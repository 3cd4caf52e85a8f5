"""Spanning trees for event multicast — Section 3.2.

Every publisher's events follow one spanning tree of the broker network.  We
derive each spanning tree from canonical shortest paths rooted at the
publisher's broker (the paper: "we assume that events always follow the
shortest path"); by the canonical-path suffix property the tree is consistent
with every broker's routing table, so a single PST annotation per broker
serves all spanning trees (the clean case of the paper's footnote 1 — see
:mod:`repro.core.virtual_links` for the split-link case).

A :class:`SpanningTree` answers the question the initialization mask needs:
*which destinations are downstream of broker b, and through which of b's
links?*

Repair
------
:meth:`SpanningTree.repair` rebuilds the tree from the current topology
(link/broker failure or recovery, broker join/leave) and reports the nodes
whose root path changed.  Nodes cut off from the root are left out (the tree
may cover a strict subset of the topology until they recover).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.errors import RoutingError
from repro.network.paths import ShortestPaths
from repro.network.topology import Topology


class SpanningTree:
    """A shortest-path spanning tree rooted at a broker.

    The tree spans *all* nodes (brokers and clients).  ``root`` is the broker
    nearest the publisher; the publisher client itself hangs off the root like
    any other client.  With ``partial=True`` unreachable nodes are silently
    left out instead of raising — that is the state a tree is in mid-failure,
    and the form used when a tree is first built for a broker that joined a
    degraded network.
    """

    def __init__(self, topology: Topology, root: str, *, partial: bool = False) -> None:
        if topology.node(root).kind.is_client:
            raise RoutingError(f"spanning trees are rooted at brokers, not {root!r}")
        self.topology = topology
        self.root = root
        self._paths = ShortestPaths(topology, root)
        if not partial:
            missing = [n.name for n in topology.nodes() if n.name not in self._paths.parent]
            if missing:
                raise RoutingError(f"nodes unreachable from {root!r}: {missing!r}")
        self._derive()

    def _derive(self) -> None:
        self.parent: Dict[str, Optional[str]] = dict(self._paths.parent)
        self.children: Dict[str, List[str]] = {name: [] for name in self.parent}
        for node, parent in self.parent.items():
            if parent is not None:
                self.children[parent].append(node)
        for child_list in self.children.values():
            child_list.sort()
        self._descendants: Dict[str, FrozenSet[str]] = {}
        self._compute_descendants(self.root)

    def _compute_descendants(self, node: str) -> FrozenSet[str]:
        collected: Set[str] = set()
        for child in self.children[node]:
            collected.add(child)
            collected |= self._compute_descendants(child)
        frozen = frozenset(collected)
        self._descendants[node] = frozen
        return frozen

    def repair(self) -> FrozenSet[str]:
        """Rebuild the tree after the underlying topology changed.

        Returns the set of nodes whose tree position changed: rerouted
        (new parent or new root path), dropped (unreachable), or attached
        (recovered / joined).  Empty when the change did not affect this
        tree (e.g. a lateral link the tree never used).
        """
        changed = self._paths.repair()
        if changed:
            self._derive()
        return changed

    # ------------------------------------------------------------------
    # Queries

    @property
    def covered(self) -> FrozenSet[str]:
        """The nodes the tree currently reaches (all of them when healthy)."""
        return frozenset(self.parent)

    def descendants(self, node: str) -> FrozenSet[str]:
        """All nodes strictly below ``node`` in the tree."""
        try:
            return self._descendants[node]
        except KeyError:
            raise RoutingError(f"{node!r} is not in the spanning tree") from None

    def is_downstream(self, destination: str, of: str) -> bool:
        """Whether ``destination`` is a descendant of ``of``."""
        return destination in self.descendants(of)

    def downstream_via(self, broker: str, neighbor: str) -> FrozenSet[str]:
        """Destinations below ``broker`` whose tree path leaves through the
        link to ``neighbor``.

        Empty when ``neighbor`` is not a tree child of ``broker`` (the link
        is not part of this spanning tree, e.g. a lateral link).
        """
        if neighbor in self.children.get(broker, []):
            return frozenset({neighbor}) | self.descendants(neighbor)
        return frozenset()

    def path_from_root(self, node: str) -> List[str]:
        """Tree path from the root to ``node`` (inclusive)."""
        if node not in self.parent:
            raise RoutingError(f"{node!r} is not in the spanning tree")
        path = [node]
        while path[-1] != self.root:
            parent = self.parent[path[-1]]
            assert parent is not None
            path.append(parent)
        path.reverse()
        return path

    def depth(self, node: str) -> int:
        """Number of tree links between the root and ``node``."""
        return len(self.path_from_root(node)) - 1

    def __repr__(self) -> str:
        return f"SpanningTree(root={self.root!r}, {len(self.parent)} nodes)"


def spanning_trees_for_publishers(topology: Topology) -> Dict[str, SpanningTree]:
    """One spanning tree per broker that hosts at least one publisher.

    The paper: "At worst, there will be one spanning tree for each broker
    that has publisher neighbors."  Brokers without publishers never
    originate events, so they need no tree of their own.  Returns a map from
    *root broker* name to its tree; distinct publishers on the same broker
    share the tree.
    """
    trees: Dict[str, SpanningTree] = {}
    for publisher in topology.publishers():
        root = topology.broker_of(publisher)
        if root not in trees:
            trees[root] = SpanningTree(topology, root)
    return trees
