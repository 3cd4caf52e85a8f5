"""Ablations of the design choices DESIGN.md calls out.

Three studies, each isolating one Section 2.1 / Section 3 mechanism:

* **Factoring levels** — matching steps and tree size as the number of index
  attributes varies (0 = plain PST), on the Chart 1 workload.
* **Attribute ordering** — the paper's fewest-don't-cares heuristic against
  declaration order and its reverse.
* **Delayed branching** — parallel-tree search vs the deterministic search
  DAG: steps per match and structure size (the time/space trade).
* **Virtual links** — how many physical links the Figure 6 topology (with
  its lateral links) actually needs to split, justifying footnote 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.masks import VirtualLinkTable
from repro.experiments.tables import ExperimentTable
from repro.matching.compile import CompiledProgram
from repro.matching.engines import create_matcher
from repro.matching.optimizations import SearchDag
from repro.matching.ordering import (
    declaration_order,
    order_by_fewest_dont_cares,
    reverse_declaration_order,
)
from repro.network.figures import figure6_topology
from repro.network.paths import all_routing_tables
from repro.network.spanning import spanning_trees_for_publishers
from repro.workload.generators import EventGenerator, SubscriptionGenerator
from repro.workload.spec import CHART1_SPEC, CHART2_SPEC, WorkloadSpec


@dataclass(frozen=True)
class AblationConfig:
    spec: WorkloadSpec = CHART1_SPEC
    num_subscriptions: int = 2000
    num_events: int = 300
    seed: int = 0


def _workload(config: AblationConfig) -> Tuple[List, List]:
    generator = SubscriptionGenerator(config.spec, seed=config.seed)
    subscribers = [f"client{i:04d}" for i in range(100)]
    subscriptions = generator.subscriptions_for(subscribers, config.num_subscriptions)
    events = EventGenerator(config.spec, seed=config.seed + 1)
    sample = [events.event_for() for _ in range(config.num_events)]
    return subscriptions, sample


def _program(spec: WorkloadSpec, subscriptions: List, **options) -> CompiledProgram:
    program = CompiledProgram(spec.schema(), domains=spec.domains(), **options)
    for subscription in subscriptions:
        program.insert(subscription)
    return program


def _node_count(program: CompiledProgram) -> int:
    """The tree's nodes: the program's reachable slots (free ones excluded)."""
    return len(program.reachable_slots())


def run_factoring_ablation(config: AblationConfig = AblationConfig()) -> ExperimentTable:
    """Matching steps and structure size per number of factored attributes."""
    table = ExperimentTable(
        "Ablation: factoring levels (Chart 1 workload)",
        ["factoring_levels", "mean_steps", "sub_trees", "total_nodes"],
    )
    spec = config.spec
    subscriptions, sample = _workload(config)
    max_levels = min(4, spec.num_attributes - 1)
    for levels in range(0, max_levels + 1):
        replica = create_matcher(
            spec.schema(),
            domains=spec.domains(),
            factoring_attributes=spec.attribute_names[:levels],
        )
        for subscription in subscriptions:
            replica.insert(subscription)
        steps = sum(replica.match(event).steps for event in sample) / len(sample)
        programs = [program for _key, program in replica.subtrees()] if levels else [replica]
        table.add_row(levels, steps, len(programs), sum(map(_node_count, programs)))
    return table


def run_ordering_ablation(config: AblationConfig = AblationConfig()) -> ExperimentTable:
    """The paper's ordering heuristic vs declaration order vs its reverse.

    The synthetic workload constrains early attributes most, so declaration
    order is already near-optimal and the reversed order is the worst case —
    the heuristic should track the former and beat the latter.
    """
    table = ExperimentTable(
        "Ablation: PST attribute ordering",
        ["ordering", "mean_steps", "nodes"],
    )
    spec = config.spec
    subscriptions, sample = _workload(config)
    predicates = [s.predicate for s in subscriptions]
    orders = [
        ("fewest-dont-cares", order_by_fewest_dont_cares(spec.schema(), predicates)),
        ("declaration", declaration_order(spec.schema())),
        ("reverse", reverse_declaration_order(spec.schema())),
    ]
    for name, order in orders:
        program = _program(spec, subscriptions, attribute_order=order)
        steps = sum(program.match(event).steps for event in sample) / len(sample)
        table.add_row(name, steps, _node_count(program))
    return table


def run_delayed_branching_ablation(
    config: AblationConfig = AblationConfig(spec=CHART2_SPEC, num_subscriptions=1000),
) -> ExperimentTable:
    """Parallel search tree vs the delayed-branching search DAG."""
    table = ExperimentTable(
        "Ablation: delayed branching (tree vs search DAG)",
        ["structure", "mean_steps", "nodes"],
    )
    spec = config.spec
    subscriptions, sample = _workload(config)
    program = _program(spec, subscriptions)
    tree_steps = sum(program.match(event).steps for event in sample) / len(sample)
    table.add_row("parallel search tree", tree_steps, _node_count(program))
    dag = SearchDag(program)
    dag_steps = sum(dag.match(event).steps for event in sample) / len(sample)
    table.add_row("search DAG", dag_steps, dag.node_count())
    return table


def run_range_workload_ablation(
    config: AblationConfig = AblationConfig(),
) -> ExperimentTable:
    """Equality-only vs mixed vs range-heavy subscription workloads.

    Range tests are coarser filters (a one-sided bound accepts a large slice
    of the domain), so selectivity rises sharply with the range share; the
    PST absorbs them as linearly scanned range branches, so steps rise too —
    the quantified version of why the paper's simulations stick to equality
    tests for their selective-workload claims.
    """
    from dataclasses import replace

    table = ExperimentTable(
        "Ablation: range-test share in the subscription workload",
        ["range_probability", "mean_steps", "mean_matches", "nodes"],
    )
    for range_probability in (0.0, 0.25, 0.5, 1.0):
        spec = replace(config.spec, range_probability=range_probability)
        scoped = AblationConfig(
            spec=spec,
            num_subscriptions=config.num_subscriptions,
            num_events=config.num_events,
            seed=config.seed,
        )
        subscriptions, sample = _workload(scoped)
        program = _program(spec, subscriptions)
        results = [program.match(event) for event in sample]
        steps = sum(r.steps for r in results) / len(sample)
        matches = sum(len(r.subscriptions) for r in results) / len(sample)
        table.add_row(range_probability, steps, matches, _node_count(program))
    return table


def run_virtual_link_ablation(subscribers_per_broker: int = 3) -> ExperimentTable:
    """Count link splits on Figure 6 with and without lateral links."""
    table = ExperimentTable(
        "Ablation: virtual links (footnote 1) on the Figure 6 topology",
        ["lateral_links", "brokers_with_splits", "total_virtual_links", "physical_links"],
    )
    for laterals, label in ((None, "default"), ((), "none")):
        topology = figure6_topology(
            subscribers_per_broker=subscribers_per_broker, lateral_links=laterals
        )
        routing = all_routing_tables(topology)
        trees = spanning_trees_for_publishers(topology)
        split_brokers = 0
        virtual_total = 0
        physical_total = 0
        for broker in topology.brokers():
            links_table = VirtualLinkTable(topology, broker, routing[broker], trees)
            if links_table.split_count:
                split_brokers += 1
            virtual_total += links_table.num_links
            physical_total += topology.degree(broker)
        table.add_row(label, split_brokers, virtual_total, physical_total)
    return table
