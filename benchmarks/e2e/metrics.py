"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

This table is the single source for ``BENCHMARK.json`` (``python -m
benchmarks.e2e manifest`` prints it), for what a run must report, and for
how ``compare`` judges two run-sets.  README.md explains every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

FANOUT, CHAIN_25K, CHAIN_TCP, CHURN, SIM = (
    "fanout_mem",
    "chain_mem_25k",
    "chain_tcp",
    "churn_mem",
    "sim_fig6",
)
PROTOTYPES = (FANOUT, CHAIN_25K, CHAIN_TCP, CHURN)
ALL = PROTOTYPES + (SIM,)
#: Workloads whose counts repeat exactly between runs of one commit (one
#: thread, ``PYTHONHASHSEED=0``); under TCP, batching depends on timing.
DETERMINISTIC = (FANOUT, CHAIN_25K, CHURN, SIM)

#: name -> one-line reason the workload exists.
WORKLOADS: Dict[str, str] = {
    FANOUT: (
        "1 in-memory broker, 1000 subscriptions, factored matcher: the non-matching broker "
        "path (client, codec, messages, event log, node) does most of the work"
    ),
    CHAIN_25K: (
        "4-broker in-memory chain, 25000 subscriptions, batches of 64: origin match + digest "
        "mint, digest consume downstream, coalesced forwarding; set-up and memory at scale"
    ),
    CHAIN_TCP: (
        "3-broker chain over TCP loopback, 3000 subscriptions: framing, sender pool, receiver "
        "threads, node lock; closed loop for rate, open loop at 600 events/s for latency"
    ),
    CHURN: (
        "2-broker in-memory chain, 5000 standing subscriptions, subscribe+unsubscribe every "
        "10 publishes: parser, patch vs recompile, cache repair, flooding, digest epochs"
    ),
    SIM: (
        "Figure 6 simulator, 39 brokers, 2000 subscriptions, link matching: saturation search "
        "on the virtual clock, then drained runs for wall-clock speed; no codec or transport"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which the median may worsen.
    bound: float
    reported_by: Tuple[str, ...]
    #: Gated by the driver (listed under ``end_to_end`` in BENCHMARK.json):
    #: possible only for a metric every workload reports and that is never 0.
    #: The others are printed by every run and gated by ``compare``.
    gated: bool
    #: Must match exactly between two runs of one commit and seed.
    exact: bool = False


#: Every wall-clock metric has the same bound, 25 %: the reference box runs at
#: one of two speeds about a quarter apart (README.md, *Bounds*), and a bound
#: below the machine's own level shifts would flag two runs of one commit.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("events_per_s", "events/s", "higher", 0.25, ALL, True),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25, (CHAIN_TCP,), False),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25, (CHAIN_TCP,), False),
    EndToEnd("subscribe_p50_ms", "ms", "lower", 0.25, (CHURN,), False),
    EndToEnd("setup_s", "s", "lower", 0.25, ALL, True),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, ALL, True),
    EndToEnd("failed_ratio", "ratio", "lower", 0.0, ALL, False, exact=True),
    EndToEnd("sim_saturation_eps", "events/s", "higher", 0.06, (SIM,), False, exact=True),
    EndToEnd("sim_wall_msgs_per_s", "msgs/s", "higher", 0.25, (SIM,), False),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    layer: str
    unit: str
    better: str
    #: "time" metrics come from spans and vary run to run; "count" metrics
    #: come from the first traced repetition and repeat exactly on the
    #: deterministic workloads.
    kind: str
    #: The end-to-end metric(s) it should move, and on which workloads.
    moves: str
    on: Tuple[str, ...]


def _time(name: str, layer: str, moves: str, on: Tuple[str, ...], unit: str = "us") -> PerLayer:
    return PerLayer(name, layer, unit, "lower", "time", moves, on)


def _count(
    name: str,
    layer: str,
    unit: str,
    better: str,
    moves: str,
    on: Tuple[str, ...],
) -> PerLayer:
    return PerLayer(name, layer, unit, better, "count", moves, on)


_MEM = (FANOUT, CHAIN_25K)
_RATE = "events_per_s"

PER_LAYER: Tuple[PerLayer, ...] = (
    _time("client.publish_us", "broker.client", _RATE, _MEM),
    _time("client.deliver_us", "broker.client", _RATE, _MEM),
    _time("codec.encode_event_us", "broker.codec", _RATE, _MEM),
    _time("codec.decode_event_us", "broker.codec", "events_per_s latency_p50_ms", PROTOTYPES),
    _count("codec.decodes_per_event", "broker.codec", "count", "lower", _RATE, _MEM),
    _time("messages.encode_us", "broker.messages", _RATE, _MEM),
    _time("messages.decode_us", "broker.messages", _RATE, _MEM),
    _count("messages.encodes_per_event", "broker.messages", "count", "lower", _RATE, _MEM),
    _time("transport.send_us", "broker.transport", "latency_p50_ms events_per_s", (CHAIN_TCP,)),
    _time(
        "transport.transit_us",
        "broker.transport",
        "latency_p50_ms latency_p90_ms",
        (CHAIN_TCP,),
    ),
    _count("transport.msgs_per_event", "broker.transport", "count", "lower", _RATE, PROTOTYPES),
    _count("transport.bytes_per_event", "broker.transport", "bytes", "lower", _RATE, PROTOTYPES),
    _count(
        "transport.queue_depth_max",
        "broker.transport",
        "count",
        "lower",
        "latency_p90_ms",
        (CHAIN_TCP,),
    ),
    _time("node.self_us_per_event", "broker.node", _RATE, _MEM),
    _count("node.ingest_batch_mean", "broker.node", "count", "higher", _RATE, (CHAIN_25K,)),
    _count(
        "node.coalesced_sends_per_event", "broker.node", "count", "lower", _RATE, (CHAIN_25K,)
    ),
    _count("node.forwards_per_event", "broker.node", "count", "lower", _RATE, (CHAIN_25K,)),
    _count("node.deliveries_per_event", "broker.node", "count", "lower", _RATE, _MEM),
    _time("event_log.append_us", "broker.event_log", "events_per_s peak_rss_mb", _MEM),
    _time("event_log.ack_us", "broker.event_log", _RATE, _MEM),
    _time("event_log.collect_us_per_event", "broker.event_log", _RATE, _MEM),
    _time("router.route_us_per_event", "core.router", _RATE, (CHAIN_25K, CHURN)),
    _time("router.digest_consume_us", "core.router", _RATE, (CHAIN_25K,)),
    _count("router.steps_per_event", "core.router", "count", "lower", _RATE, (CHAIN_25K, SIM)),
    _time("router.add_subscription_us", "core.router", "setup_s subscribe_p50_ms", (CHURN,)),
    _time("router.remove_subscription_us", "core.router", "subscribe_p50_ms", (CHURN,)),
    _time("router.route_after_churn_us", "core.router", _RATE, (CHURN,)),
    _time(
        "engine.match_links_us_per_event",
        "matching",
        "events_per_s sim_wall_msgs_per_s",
        (CHURN, CHAIN_25K, SIM),
    ),
    _time("engine.project_links_us", "matching", _RATE, (CHAIN_25K,)),
    _count("engine.recompiles", "matching", "count", "lower", "events_per_s setup_s", (CHURN,)),
    _count(
        "engine.cache_hit_ratio",
        "matching",
        "ratio",
        "higher",
        "events_per_s peak_rss_mb",
        (CHURN, CHAIN_25K, SIM),
    ),
    _count("digest.hit_ratio", "matching.digest", "ratio", "higher", _RATE, (CHAIN_25K, CHURN)),
    _count(
        "digest.bytes_per_forward",
        "matching.digest",
        "bytes",
        "lower",
        "events_per_s",
        (CHAIN_25K, CHAIN_TCP),
    ),
    _time("parser.parse_us", "matching.parser", "setup_s subscribe_p50_ms", (CHAIN_25K, CHURN)),
    _time("protocol.handle_us_per_msg", "protocols.link_matching", "sim_wall_msgs_per_s", (SIM,)),
    _time("sim.overhead_us_per_msg", "sim", "sim_wall_msgs_per_s", (SIM,)),
    _count("sim.steps_per_msg", "sim", "count", "lower", "sim_saturation_eps", (SIM,)),
    _count("sim.msgs_per_event", "sim", "count", "lower", "sim_saturation_eps", (SIM,)),
    _time("gen.late_p99_ms", "harness", "validity of latency_*", (CHAIN_TCP,), unit="ms"),
    _time("gen.backlog_drain_s", "harness", "validity of latency_*", (CHAIN_TCP,), unit="s"),
    _time("e2e.latency_p99_ms", "harness", "watch only", (CHAIN_TCP,), unit="ms"),
    _time("trace.overhead_ratio", "tracing", "-", ALL, unit="ratio"),
    PerLayer("trace.coverage_ratio", "tracing", "ratio", "higher", "time", "-", ALL),
)


def driver_end_to_end() -> List[EndToEnd]:
    """What ``--trace 0`` prints on its last line."""
    return [metric for metric in END_TO_END if metric.gated]


def driver_per_layer() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of what ``--trace 1`` prints on its last
    line: the per-layer metrics, then the end-to-end metrics the driver
    cannot gate (taken from the untraced repetitions of that process)."""
    rows = [(metric.name, metric.unit, metric.better) for metric in PER_LAYER]
    rows += [(m.name, m.unit, m.better) for m in END_TO_END if not m.gated]
    return rows


def manifest(run_seconds: int) -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in driver_end_to_end()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in driver_per_layer()
        ],
    }
