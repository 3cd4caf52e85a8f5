"""Canonical shortest paths and per-broker routing tables — Section 3.2.

"We assume that each broker knows the topology of the broker network as well
as the best paths between each broker and each destination. [...] From this
topology information, each broker constructs a routing table mapping each
possible destination to the link which is the next hop along the best path to
the destination."

Correctness of link matching requires the *same* best path to be chosen by
every broker along it (otherwise a broker's routing-table annotation can
disagree with the publisher's spanning tree and an event gets dropped or
duplicated — the situation the paper's "virtual links" footnote alludes to).
We therefore compute **canonical** shortest paths: among equal-cost paths the
one whose node-name sequence is lexicographically smallest.  Canonical paths
have the suffix property (any suffix of a canonical path is itself canonical),
which makes every broker's routing table consistent with every shortest-path
spanning tree.

Repair
------
:meth:`ShortestPaths.repair` runs the same Dijkstra as the constructor on
the current topology (after fault injection, recovery, or a broker join or
leave) and reports the nodes whose canonical label differs from the old one.
A repaired instance is therefore a fresh build by construction.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import RoutingError
from repro.network.topology import Topology

#: A canonical label: (total cost, full path as a name tuple).  Tuple
#: comparison on labels *is* the canonical order.
Label = Tuple[float, Tuple[str, ...]]


class ShortestPaths:
    """Single-source canonical shortest paths over a topology.

    ``distance_ms[v]`` is the total latency from the source to ``v``;
    ``parent[v]`` the predecessor on the canonical path (``None`` at the
    source); unreachable nodes are absent from both maps.
    """

    def __init__(self, topology: Topology, source: str) -> None:
        self.topology = topology
        self.source = source
        self._build()

    def _build(self) -> None:
        self.topology.node(self.source)
        self.distance_ms: Dict[str, float] = {}
        self.parent: Dict[str, Optional[str]] = {}
        # Priority key: (cost, path-as-name-tuple).  Comparing the explicit
        # path tuple implements the canonical (lexicographically smallest
        # among equal cost) choice; networks here are small enough that the
        # O(path length) comparisons are irrelevant.
        best: Dict[str, Label] = {}
        start = (0.0, (self.source,))
        heap: List[Label] = [start]
        best[self.source] = start
        while heap:
            cost, path = heapq.heappop(heap)
            node = path[-1]
            if best.get(node, (float("inf"), ())) < (cost, path):
                continue  # stale entry
            for neighbor in self.topology.neighbors(node):
                link = self.topology.link_between(node, neighbor)
                candidate = (cost + link.latency_ms, path + (neighbor,))
                incumbent = best.get(neighbor)
                if incumbent is None or candidate < incumbent:
                    best[neighbor] = candidate
                    heapq.heappush(heap, candidate)
        # The canonical labels, kept so repair() can report what changed.
        self._labels = best
        for node, (cost, path) in best.items():
            self.distance_ms[node] = cost
            self.parent[node] = path[-2] if len(path) > 1 else None

    def repair(self) -> FrozenSet[str]:
        """Rebuild from the current topology.

        Call after any number of link removals/additions or node joins.
        Returns the set of nodes whose canonical label changed — including
        nodes that became unreachable (label dropped) and nodes that gained
        a label (joined or re-attached).
        """
        old = self._labels
        self._build()
        new = self._labels
        return frozenset(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))

    def path_to(self, destination: str) -> List[str]:
        """The canonical path from the source to ``destination`` (inclusive)."""
        if destination not in self.parent:
            raise RoutingError(f"{destination!r} is unreachable from {self.source!r}")
        path = [destination]
        while path[-1] != self.source:
            parent = self.parent[path[-1]]
            assert parent is not None
            path.append(parent)
        path.reverse()
        return path

    def hop_count(self, destination: str) -> int:
        """Number of links on the canonical path to ``destination``."""
        return len(self.path_to(destination)) - 1


class RoutingTable:
    """A broker's map from every destination to the next-hop neighbor.

    Built from the broker's own canonical shortest paths; by the suffix
    property this agrees with every other broker's table and with every
    shortest-path spanning tree.
    """

    def __init__(self, topology: Topology, broker: str) -> None:
        if topology.node(broker).kind.is_client:
            raise RoutingError(f"routing tables belong to brokers, not {broker!r}")
        self.topology = topology
        self.broker = broker
        self._paths = ShortestPaths(topology, broker)
        self._derive_next_hops()

    def _derive_next_hops(self) -> None:
        self._next_hop: Dict[str, str] = {}
        for destination in self._paths.parent:
            if destination == self.broker:
                continue
            path = self._paths.path_to(destination)
            self._next_hop[destination] = path[1]

    def repair(self) -> FrozenSet[str]:
        """Re-derive next hops after a topology change; returns the changed
        destinations (rerouted, newly reachable, or now unreachable)."""
        changed = self._paths.repair()
        if changed:
            self._derive_next_hops()
        return changed

    def next_hop(self, destination: str) -> str:
        """The neighbor on the best path toward ``destination``."""
        try:
            return self._next_hop[destination]
        except KeyError:
            raise RoutingError(
                f"{destination!r} is unreachable from broker {self.broker!r}"
            ) from None

    def reaches(self, destination: str) -> bool:
        """Whether ``destination`` is currently reachable from this broker."""
        return destination == self.broker or destination in self._next_hop

    def destinations_via(self, neighbor: str) -> List[str]:
        """All destinations whose best path leaves through ``neighbor``."""
        return sorted(d for d, hop in self._next_hop.items() if hop == neighbor)

    def distance_ms(self, destination: str) -> float:
        try:
            return self._paths.distance_ms[destination]
        except KeyError:
            raise RoutingError(
                f"{destination!r} is unreachable from broker {self.broker!r}"
            ) from None

    def __repr__(self) -> str:
        return f"RoutingTable({self.broker!r}, {len(self._next_hop)} destinations)"


def all_routing_tables(topology: Topology) -> Dict[str, RoutingTable]:
    """One routing table per broker."""
    topology.validate()
    return {broker: RoutingTable(topology, broker) for broker in topology.brokers()}
