"""Unit tests for virtual links and initialization masks (Section 3.2)."""

from __future__ import annotations

import pytest

from repro.core import M, N, VirtualLinkTable
from repro.errors import RoutingError
from repro.network import RoutingTable, Topology, figure6_topology, spanning_trees_for_publishers


def table_for(topology: Topology, broker: str) -> VirtualLinkTable:
    routing = RoutingTable(topology, broker)
    trees = spanning_trees_for_publishers(topology)
    return VirtualLinkTable(topology, broker, routing, trees)


class TestChainTopology:
    def test_positions_cover_all_clients(self, two_broker_topology):
        table = table_for(two_broker_topology, "B0")
        for client in two_broker_topology.clients():
            position = table.position_of(client)
            assert 0 <= position < table.num_links

    def test_local_client_goes_direct(self, two_broker_topology):
        table = table_for(two_broker_topology, "B0")
        assert table.neighbor_of_position(table.position_of("c0")) == "c0"

    def test_remote_client_via_next_hop(self, two_broker_topology):
        table = table_for(two_broker_topology, "B0")
        assert table.neighbor_of_position(table.position_of("c1")) == "B1"

    def test_initialization_mask_root(self, two_broker_topology):
        table = table_for(two_broker_topology, "B0")
        mask = table.initialization_mask("B0")
        # Every destination is downstream of the root, so its links are M.
        assert mask[table.position_of("c0")] is M
        assert mask[table.position_of("c1")] is M

    def test_initialization_mask_downstream_broker(self, two_broker_topology):
        table = table_for(two_broker_topology, "B1")
        mask = table.initialization_mask("B0")
        # From B1, only its own client is downstream on B0's tree; the links
        # back toward B0 (carrying c0 and P1) must be No.
        assert mask[table.position_of("c1")] is M
        assert mask[table.position_of("c0")] is N

    def test_unknown_tree_root(self, two_broker_topology):
        table = table_for(two_broker_topology, "B0")
        with pytest.raises(RoutingError):
            table.initialization_mask("B1")

    def test_unknown_destination(self, two_broker_topology):
        table = table_for(two_broker_topology, "B0")
        with pytest.raises(RoutingError):
            table.position_of("nobody")

    def test_client_cannot_own_table(self, two_broker_topology):
        routing = RoutingTable(two_broker_topology, "B0")
        trees = spanning_trees_for_publishers(two_broker_topology)
        with pytest.raises(RoutingError):
            VirtualLinkTable(two_broker_topology, "c0", routing, trees)

    def test_no_splits_on_tree_topology(self, two_broker_topology):
        assert table_for(two_broker_topology, "B0").split_count == 0


class TestDiamondTopology:
    def test_masks_differ_per_tree(self, diamond_topology):
        table = table_for(diamond_topology, "B1")
        mask_p1 = table.initialization_mask("B0")  # tree rooted at B0
        mask_p2 = table.initialization_mask("B3")  # tree rooted at B3
        assert mask_p1 != mask_p2

    def test_split_dedupes(self, diamond_topology):
        table = table_for(diamond_topology, "B1")
        assert table.split(0) == ([], [])
        brokers, clients = table.split((1 << table.num_links) - 1)
        assert table.split_count > 0  # some neighbor sits behind two positions
        assert brokers + clients == sorted({v.neighbor for v in table.virtual_links})
        assert all(diamond_topology.node(c).kind.is_client for c in clients)

    def test_virtual_links_partition_destinations(self, diamond_topology):
        table = table_for(diamond_topology, "B0")
        covered = [d for v in table.virtual_links for d in v.destinations]
        assert sorted(covered) == diamond_topology.clients()


class TestFigure6:
    def test_lateral_links_force_splits(self):
        topology = figure6_topology(subscribers_per_broker=1)
        routing = RoutingTable(topology, "T0.M1")
        trees = spanning_trees_for_publishers(topology)
        # T0.M1 carries a lateral link to T1.M1: destinations reachable that
        # way are downstream on some publishers' trees only.
        table = VirtualLinkTable(topology, "T0.M1", routing, trees)
        assert table.num_links >= topology.degree("T0.M1")

    def test_no_laterals_no_splits(self):
        topology = figure6_topology(subscribers_per_broker=1, lateral_links=())
        trees = spanning_trees_for_publishers(topology)
        for broker in topology.brokers():
            routing = RoutingTable(topology, broker)
            table = VirtualLinkTable(topology, broker, routing, trees)
            assert table.split_count == 0
