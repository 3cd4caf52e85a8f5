"""Virtual links and initialization masks — Section 3.2 and footnote 1.

For each spanning tree, a broker needs a per-link *initialization mask*:
Maybe on links leading to downstream destinations, No elsewhere.  Matching
then refines every Maybe to Yes or No.

A single physical link can serve destinations that are downstream on some
spanning trees and not on others (lateral links make this real in the
Figure 6 topology).  Annotating per *physical* link would then conflate
subscribers that this tree should reach through the link with subscribers it
must not — producing spurious forwards or duplicate deliveries.  The paper's
footnote 1 resolves this by "splitting the link into two or more virtual
links"; this module implements that splitting in general form:

Destinations routed through the same physical link are partitioned by their
*downstream signature* — the set of spanning trees under which they are
downstream of this broker.  Each partition class is one **virtual link**, and
trit vectors (annotations, masks) have one position per virtual link.  In a
pure tree topology every physical link has exactly one class, so virtual
links collapse to the paper's simple one-trit-per-link scheme.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.errors import RoutingError
from repro.core.trits import TritVector, unpack_tritvector
from repro.network.paths import RoutingTable
from repro.network.spanning import SpanningTree
from repro.network.topology import Topology


class VirtualLink:
    """One trit position of a broker: a physical neighbor link plus the
    downstream signature shared by the destinations it carries."""

    __slots__ = ("position", "neighbor", "downstream_roots", "destinations")

    def __init__(
        self,
        position: int,
        neighbor: str,
        downstream_roots: FrozenSet[str],
        destinations: Tuple[str, ...],
    ) -> None:
        self.position = position
        self.neighbor = neighbor
        self.downstream_roots = downstream_roots
        self.destinations = destinations

    def __repr__(self) -> str:
        return (
            f"VirtualLink(#{self.position} via {self.neighbor!r}, "
            f"{len(self.destinations)} destinations, "
            f"downstream for {sorted(self.downstream_roots)!r})"
        )


class VirtualLinkTable:
    """A broker's virtual links and per-spanning-tree initialization masks.

    Parameters
    ----------
    topology / broker:
        The network and the broker this table belongs to.
    routing_table:
        The broker's routing table (canonical next hops).
    spanning_trees:
        All spanning trees in use, keyed by root broker (one per
        publisher-hosting broker — see
        :func:`repro.network.spanning.spanning_trees_for_publishers`).
    """

    def __init__(
        self,
        topology: Topology,
        broker: str,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
    ) -> None:
        if topology.node(broker).kind.is_client:
            raise RoutingError(f"virtual link tables belong to brokers, not {broker!r}")
        self.topology = topology
        self.broker = broker
        self.spanning_trees = dict(spanning_trees)
        self._build(routing_table)

    def _build(self, routing_table: RoutingTable) -> None:
        """Assign positions in ``(neighbor, signature)`` order — so the
        neighbors behind increasing positions never decrease, which
        :meth:`split` relies on — and derive the packed masks from them."""
        self._position_of: Dict[str, int] = {}
        self.virtual_links: List[VirtualLink] = []
        groups: Dict[Tuple[str, FrozenSet[str]], List[str]] = {}
        local_clients = set(self.topology.clients_of(self.broker))
        for destination in self.topology.clients():
            if destination in local_clients:
                neighbor = destination
            elif routing_table.reaches(destination):
                neighbor = routing_table.next_hop(destination)
            else:
                # Cut off by a failure: the destination owns no virtual link
                # until a repair after its recovery re-adds it.
                continue
            signature = frozenset(
                root
                for root, tree in self.spanning_trees.items()
                if self.broker in tree.parent
                and tree.is_downstream(destination, self.broker)
            )
            groups.setdefault((neighbor, signature), []).append(destination)
        for (neighbor, signature), destinations in sorted(
            groups.items(), key=lambda item: (item[0][0], sorted(item[0][1]))
        ):
            position = len(self.virtual_links)
            virtual = VirtualLink(position, neighbor, signature, tuple(sorted(destinations)))
            self.virtual_links.append(virtual)
            for destination in destinations:
                self._position_of[destination] = position
        # Per tree: the Maybe bits of the initialization mask (it has no Yes).
        self._masks: Dict[str, int] = {
            root: sum(
                1 << virtual.position
                for virtual in self.virtual_links
                if root in virtual.downstream_roots
            )
            for root in self.spanning_trees
        }
        self._targets: List[Tuple[str, bool]] = [
            (virtual.neighbor, self.topology.node(virtual.neighbor).kind.is_client)
            for virtual in self.virtual_links
        ]

    def layout(self) -> Tuple:
        """A comparable snapshot of positions, signatures and masks — equal
        layouts route identically, which is what repair's changed-detection
        needs."""
        return (
            tuple(
                (v.neighbor, tuple(sorted(v.downstream_roots)), v.destinations)
                for v in self.virtual_links
            ),
            tuple(sorted(self._masks.items())),
        )

    def rebuild(
        self,
        routing_table: RoutingTable,
        spanning_trees: Mapping[str, SpanningTree],
    ) -> bool:
        """Recompute virtual links and masks against repaired routing state.

        Returns ``True`` when the layout actually changed — the caller must
        then rebind anything that holds positions or packed mask bits (the
        engine annotations).  Returns ``False`` for repairs that did not
        touch this broker (e.g. a failed lateral link), so the caller can
        keep them.
        """
        before = self.layout()
        self.spanning_trees = dict(spanning_trees)
        self._build(routing_table)
        return self.layout() != before

    def restrict_mask(self, bits: int, destinations: FrozenSet[str]) -> int:
        """Clear every position of packed mask ``bits`` that carries none of
        ``destinations``.

        Replay uses this to re-route a recovered message toward only the
        destinations the failed element was responsible for, so subtrees
        that already received the event are not traversed again.
        """
        keep = 0
        for destination in destinations:
            position = self._position_of.get(destination)
            if position is not None:
                keep |= 1 << position
        return bits & keep

    # ------------------------------------------------------------------

    @property
    def num_links(self) -> int:
        """Number of virtual links (= trit vector length at this broker)."""
        return len(self.virtual_links)

    def position_of(self, destination: str) -> int:
        """The virtual-link position through which ``destination`` is reached."""
        try:
            return self._position_of[destination]
        except KeyError:
            raise RoutingError(
                f"{destination!r} is not a client destination known to {self.broker!r}"
            ) from None

    def neighbor_of_position(self, position: int) -> str:
        """The physical neighbor carrying virtual link ``position``."""
        try:
            return self.virtual_links[position].neighbor
        except IndexError:
            raise RoutingError(f"no virtual link #{position} at {self.broker!r}") from None

    def initialization_bits(self, root: str) -> int:
        """The Maybe bits of the broker's initialization mask for the
        spanning tree rooted at ``root`` — Maybe on virtual links whose
        destinations are downstream of this broker in that tree, No
        elsewhere."""
        try:
            return self._masks[root]
        except KeyError:
            raise RoutingError(
                f"no spanning tree rooted at {root!r} registered with {self.broker!r}"
            ) from None

    def initialization_mask(self, root: str) -> TritVector:
        """:meth:`initialization_bits` as the paper's trit vector."""
        return unpack_tritvector(0, self.initialization_bits(root), self.num_links)

    def split(self, yes_bits: int) -> Tuple[List[str], List[str]]:
        """The distinct physical neighbors behind the Yes bits of a final
        mask, sorted, as ``(brokers, clients)``.  Neighbors never decrease
        with the position, so skipping a repeat of the previous one dedupes."""
        targets = self._targets
        brokers: List[str] = []
        clients: List[str] = []
        last = None
        while yes_bits:
            low = yes_bits & -yes_bits
            yes_bits ^= low
            neighbor, is_client = targets[low.bit_length() - 1]
            if neighbor != last:
                last = neighbor
                (clients if is_client else brokers).append(neighbor)
        return brokers, clients

    @property
    def split_count(self) -> int:
        """How many physical links were split into multiple virtual links."""
        per_neighbor: Dict[str, int] = {}
        for virtual in self.virtual_links:
            per_neighbor[virtual.neighbor] = per_neighbor.get(virtual.neighbor, 0) + 1
        return sum(1 for count in per_neighbor.values() if count > 1)

    def __repr__(self) -> str:
        return (
            f"VirtualLinkTable({self.broker!r}, {self.num_links} virtual links, "
            f"{self.split_count} split)"
        )
