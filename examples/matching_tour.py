"""A tour of the matching machinery: the PST as a compiled program, trits,
optimizations.

Walks the exact structures from the paper's figures:

* builds the Figure 2 matching tree and runs the marked walk for the event
  ``a = <1, 2, 3, 1, 2>``, printing the matching steps taken;
* reproduces the Figure 5 annotation computation with trit vectors;
* shows the Section 2.1 optimizations changing step counts on the same
  workload (trivial-test elimination, factoring, delayed branching).

Run:
    python examples/matching_tour.py
"""

from __future__ import annotations

from repro.core import TritVector
from repro.matching import (
    CompiledProgram,
    Event,
    FactoredMatcher,
    SearchDag,
    Subscription,
    parse_predicate,
    uniform_schema,
)
from repro.workload import CHART2_SPEC, EventGenerator, SubscriptionGenerator


def build_program(schema, subscriptions, **options) -> CompiledProgram:
    """A PST holding ``subscriptions``, kept as one flat record per node."""
    program = CompiledProgram(schema, **options)
    for subscription in subscriptions:
        program.insert(subscription)
    return program


def node_count(program: CompiledProgram) -> int:
    """The tree's nodes: the slots reachable from the root."""
    return len(program.reachable_slots())


def figure2_demo() -> None:
    print("== Figure 2: the parallel search tree ==")
    schema = uniform_schema(5)
    expressions = {
        "s1": "a1=1 & a2=2 & a3=3 & a5=3",
        "s2": "a1=1 & a2=2",
        "s3": "a3=3",
        "s4": "a1=1 & a4=1",
    }
    subscriptions = [
        Subscription(parse_predicate(schema, expression), name)
        for name, expression in expressions.items()
    ]
    tree = build_program(schema, subscriptions)
    event = Event.from_tuple(schema, (1, 2, 3, 1, 2))
    result = tree.match(event)
    print(f"event a = {event.as_tuple()}")
    for name, expression in expressions.items():
        hit = "MATCH" if name in result.subscribers else "  -  "
        print(f"  [{hit}] {name}: {expression}")
    print(f"matching steps: {result.steps} (tree has {node_count(tree)} nodes)")


def figure5_demo() -> None:
    print("\n== Figure 5: combining annotations ==")
    value_children = [TritVector("MYY"), TritVector("NYN")]
    star_child = TritVector("YYN")
    alternative = value_children[0].alternative(value_children[1])
    print(f"MYY A NYN = {alternative}   (Alternative Combine)")
    combined = alternative.parallel(star_child)
    print(f"{alternative} P YYN = {combined}   (Parallel Combine)")
    assert str(combined) == "YYM"


def optimizations_demo() -> None:
    print("\n== Section 2.1 optimizations on one workload ==")
    spec = CHART2_SPEC
    generator = SubscriptionGenerator(spec, seed=42)
    subscriptions = generator.subscriptions_for(["client"], 1500)
    events = EventGenerator(spec, seed=43)
    sample = [events.event_for() for _ in range(200)]

    def mean_steps(matcher):
        return sum(matcher.match(e).steps for e in sample) / len(sample)

    # Trivial-test elimination is built in: no node has only a *-child.
    plain = build_program(spec.schema(), subscriptions, domains=spec.domains())
    print(f"PST:                      {mean_steps(plain):7.1f} steps/event, "
          f"{node_count(plain):>6} nodes")

    factored = FactoredMatcher(
        spec.schema(), spec.factoring_attributes, spec.domains()
    )
    for subscription in subscriptions:
        factored.insert(
            Subscription(subscription.predicate, subscription.subscriber)
        )
    total_nodes = sum(node_count(t) for _k, t in factored.subtrees())
    print(f"+ factoring (3 levels):   {mean_steps(factored):7.1f} steps/event, "
          f"{total_nodes:>6} nodes across {len(dict(factored.subtrees()))} sub-trees")

    dag = SearchDag(plain)
    print(f"+ delayed branching DAG:  {mean_steps(dag):7.1f} steps/event, "
          f"{dag.node_count():>6} nodes (deterministic descent)")


def main() -> None:
    figure2_demo()
    figure5_demo()
    optimizations_demo()


if __name__ == "__main__":
    main()
