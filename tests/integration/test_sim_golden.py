"""Golden pin of the fault-free Figure 6 simulator.

One small seeded Figure 6 run under link matching, drained, plus a quick
saturation search, folded into one SHA-256: the elapsed ticks, every
:class:`~repro.sim.metrics.DeliveryRecord` field, the per-link message and
byte counts, every :class:`~repro.sim.metrics.BrokerStats` field (queue
samples included), the sorted registry snapshot and the search's rate.  A
change to the simulator's per-message path must leave all of it exactly as
it is, under any ``PYTHONHASHSEED``.

Subscription ids are fixed and event ids are replaced by publish order, so
the pin does not depend on what else the process built first.
"""

from __future__ import annotations

import hashlib
import json

from repro.matching.predicates import Subscription
from repro.network.figures import figure6_topology
from repro.protocols import LinkMatchingProtocol, ProtocolContext
from repro.sim import NetworkSimulation
from repro.sim.saturation import find_saturation_rate
from repro.workload.generators import EventGenerator, SubscriptionGenerator, figure6_region_of
from repro.workload.spec import CHART1_SPEC

SUBSCRIPTIONS = 150
EVENTS_PER_PUBLISHER = 50
RATE = 1500.0
PROBE_SECONDS = 0.1

GOLDEN = "79308a2d1f94bd8d6c974857718b525ce3ed6d376e8fbe8c2a81cbb7bab681ec"


def _protocol(topology):
    generated = SubscriptionGenerator(
        CHART1_SPEC, seed=11, region_of=figure6_region_of
    ).subscriptions_for(topology.subscribers(), SUBSCRIPTIONS)
    subscriptions = [
        Subscription(s.predicate, s.subscriber, subscription_id=index)
        for index, s in enumerate(generated, 1)
    ]
    context = ProtocolContext(
        topology,
        CHART1_SPEC.schema(),
        subscriptions,
        domains=CHART1_SPEC.domains(),
        factoring_attributes=CHART1_SPEC.factoring_attributes,
    )
    return LinkMatchingProtocol(context)


def _simulation(topology, protocol, events, rate, per_publisher, published, **options):
    simulation = NetworkSimulation(topology, protocol, seed=13, **options)
    publishers = topology.publishers()
    for publisher in publishers:
        factory = events.factory_for(publisher)

        def capturing(rng, factory=factory):
            event = factory(rng)
            published[event.event_id] = len(published)
            return event

        simulation.add_poisson_publisher(
            publisher, rate / len(publishers), capturing, per_publisher
        )
    return simulation


def fingerprint() -> str:
    topology = figure6_topology(subscribers_per_broker=5)
    protocol = _protocol(topology)
    events = EventGenerator(CHART1_SPEC, seed=12, region_of=figure6_region_of)
    published = {}
    result = _simulation(
        topology, protocol, events, RATE, EVENTS_PER_PUBLISHER, published
    ).run()

    def probe(rate):
        per_publisher = int(rate / len(topology.publishers()) * PROBE_SECONDS) + 1
        return _simulation(
            topology,
            protocol,
            events,
            rate,
            per_publisher,
            {},
            queue_sample_interval_ms=PROBE_SECONDS * 1000.0 / 50.0,
        ).run(max_seconds=PROBE_SECONDS, drain=False, abort_on_queue=100)

    search = find_saturation_rate(
        probe, initial_rate=500.0, max_rate=5e5, relative_resolution=0.05
    )
    pinned = {
        "elapsed_ticks": result.elapsed_ticks,
        "published": result.published_events,
        "deliveries": [
            [
                d.client,
                published[d.event_id],
                d.publish_time_ticks,
                d.delivery_time_ticks,
                d.matched,
                d.hop,
            ]
            for d in result.deliveries
        ],
        "link_messages": sorted(map(list, result.link_messages.items())),
        "link_bytes": sorted(map(list, result.link_bytes.items())),
        "broker_stats": [
            [name]
            + [getattr(stats, field) for field in type(stats).__slots__[1:]]
            for name, stats in sorted(result.broker_stats.items())
        ],
        "registry": sorted(result.counter_snapshot().items()),
        "saturation_eps": repr(search.saturation_rate),
    }
    encoded = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def test_the_fault_free_simulator_matches_its_golden_pin():
    assert fingerprint() == GOLDEN
