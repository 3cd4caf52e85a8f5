"""``VirtualLinkTable.split`` against its definition, across layouts.

A final mask's Yes bits name virtual links; the broker sends once to each
distinct physical neighbor behind them, brokers and clients apart, in sorted
order.  ``split`` gets there by walking the set bits and skipping a repeat
of the previous neighbor — correct only because ``_build`` assigns positions
in neighbor order.  This property states the definition directly and checks
it on random tree-plus-chord topologies (chords split physical links into
several virtual ones), for random masks, before and after a link change and
the ``rebuild`` that follows it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import VirtualLinkTable
from repro.network.paths import all_routing_tables
from repro.network.spanning import spanning_trees_for_publishers
from tests.property.test_prop_routing import topologies


def expected_split(table, bits):
    neighbors = sorted(
        {v.neighbor for v in table.virtual_links if bits >> v.position & 1}
    )
    is_client = {n: table.topology.node(n).kind.is_client for n in neighbors}
    return (
        [n for n in neighbors if not is_client[n]],
        [n for n in neighbors if is_client[n]],
    )


def assert_split_exact(tables, data):
    for table in tables.values():
        full = (1 << table.num_links) - 1
        for bits in (0, full, *data.draw(st.lists(st.integers(0, full), max_size=4))):
            assert table.split(bits) == expected_split(table, bits)


@given(topology=topologies(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_split_is_sorted_distinct_neighbors_by_kind(topology, data):
    routing = all_routing_tables(topology)
    trees = spanning_trees_for_publishers(topology)
    tables = {
        broker: VirtualLinkTable(topology, broker, routing[broker], trees)
        for broker in topology.brokers()
    }
    assert_split_exact(tables, data)
    # Change one broker link (keeping the graph connected), repair, rebuild.
    brokers = topology.brokers()
    a, b = data.draw(st.sampled_from(brokers)), data.draw(st.sampled_from(brokers))
    if a == b:
        return
    if topology.has_link(a, b):
        removed = topology.remove_link(a, b)
        if not topology.is_connected():
            topology.add_link(a, b, latency_ms=removed.latency_ms)
            return
    else:
        topology.add_link(a, b, latency_ms=15.0)
    for tree in trees.values():
        tree.repair()
    for broker, table in tables.items():
        routing[broker].repair()
        table.rebuild(routing[broker], trees)
    assert_split_exact(tables, data)
