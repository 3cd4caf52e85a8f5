"""Microbenchmarks of the hot primitives.

Not chart regenerators — these pin down the per-operation costs that the
simulator's cost model abstracts (matching step, link-match refinement,
codec, trit-vector combine) so regressions in the core structures show up
directly in pytest-benchmark's statistics.
"""

from __future__ import annotations

import random

from repro.core import ContentRoutedNetwork, TritVector
from repro.matching import SearchDag, build_pst
from repro.network import linear_chain
from repro.workload import CHART1_SPEC, CHART2_SPEC, EventGenerator, SubscriptionGenerator


def build_workload(spec, num_subscriptions, seed=0):
    generator = SubscriptionGenerator(spec, seed=seed)
    subscriptions = generator.subscriptions_for(["c"], num_subscriptions)
    events = EventGenerator(spec, seed=seed + 1)
    sample = [events.event_for() for _ in range(64)]
    return subscriptions, sample


class TestMatchingMicro:
    def test_pst_match_2000_subscriptions(self, benchmark):
        subscriptions, sample = build_workload(CHART1_SPEC, 2000)
        tree = build_pst(CHART1_SPEC.schema(), subscriptions)
        state = {"i": 0}

        def match():
            state["i"] = (state["i"] + 1) % len(sample)
            return tree.match(sample[state["i"]])

        benchmark(match)

    def test_dag_match_2000_subscriptions(self, benchmark):
        subscriptions, sample = build_workload(CHART2_SPEC, 2000)
        tree = build_pst(CHART2_SPEC.schema(), subscriptions)
        dag = SearchDag(tree)
        state = {"i": 0}

        def match():
            state["i"] = (state["i"] + 1) % len(sample)
            return dag.match(sample[state["i"]])

        benchmark(match)

    def test_pst_insert(self, benchmark):
        spec = CHART1_SPEC
        generator = SubscriptionGenerator(spec, seed=7)
        subscriptions = generator.subscriptions_for(["c"], 4000)
        state = {"tree": build_pst(spec.schema(), []), "i": 0}

        def insert():
            if state["i"] >= len(subscriptions):
                state["tree"] = build_pst(spec.schema(), [])
                state["i"] = 0
            state["tree"].insert(subscriptions[state["i"]])
            state["i"] += 1

        benchmark(insert)


class TestRoutingMicro:
    def test_link_match_route_decision(self, benchmark):
        """One broker's route() on a 6-broker chain with 600 subscriptions."""
        spec = CHART1_SPEC
        topology = linear_chain(6, subscribers_per_broker=4)
        network = ContentRoutedNetwork(
            topology,
            spec.schema(),
            domains=spec.domains(),
            factoring_attributes=spec.factoring_attributes,
        )
        generator = SubscriptionGenerator(spec, seed=9)
        subscribers = topology.subscribers()
        for subscription in generator.subscriptions_for(subscribers, 600):
            network.subscribe(subscription.subscriber, subscription.predicate)
        events = EventGenerator(spec, seed=10)
        sample = [events.event_for() for _ in range(64)]
        router = network.routers["B0"]
        router.route(sample[0], "B0")  # warm annotations
        state = {"i": 0}

        def route():
            state["i"] = (state["i"] + 1) % len(sample)
            return router.route(sample[state["i"]], "B0")

        benchmark(route)


class TestPrimitivesMicro:
    def test_trit_vector_parallel_combine(self, benchmark):
        rng = random.Random(1)
        vectors = [
            TritVector("".join(rng.choice("YNM") for _ in range(32)))
            for _ in range(64)
        ]
        state = {"i": 0}

        def combine():
            state["i"] = (state["i"] + 2) % 64
            return vectors[state["i"]].parallel(vectors[state["i"] + 1])

        benchmark(combine)

    def test_event_codec_roundtrip(self, benchmark):
        from repro.broker import decode_event, encode_event

        spec = CHART1_SPEC
        event = EventGenerator(spec, seed=11).event_for()

        def roundtrip():
            return decode_event(spec.schema(), encode_event(event))

        benchmark(roundtrip)

    def test_expression_parse(self, benchmark):
        from repro.matching import parse_predicate, stock_trade_schema

        schema = stock_trade_schema()

        def parse():
            return parse_predicate(schema, "issue='IBM' & price<120 & volume>1000")

        benchmark(parse)
