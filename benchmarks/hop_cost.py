"""Hop-cost sweep: total network matching steps, digests on vs off.

Match-once forwarding's claim is a *network-wide* one: on a broker chain of
depth D, classic link matching runs the full refinement kernel at every hop
(D full matches per event), while the digest path matches once at the
publisher's broker and turns every downstream hop into |M(e)| mask ORs over
the precomputed leaf→link projection (see ``docs/performance.md``).  This
sweep drives the same events through the same
:class:`~repro.protocols.link_matching.LinkMatchingProtocol` twice — digests
enabled and disabled — over :func:`~repro.network.figures.linear_chain`
topologies of growing depth and subscription count, and charts the total
matching steps each configuration spends across the whole network.

The win is regime-dependent, and the sweep makes the regime explicit
(``--spec``, ``--subscribers-per-broker``): digests pay when matches are
sparse relative to links — small match sets keep the digest and its
projection cheap while every classic hop still walks the matcher tree to
prove most links *No*.  Under the paper's dense Chart 1 parameters an event
matches hundreds of subscriptions and the projection ORs rival a refinement
descent; the ``selective`` spec (the default) is the regime content-based
pub-sub deployments actually run in.

Each row reports::

    steps_off        total matching steps, per-hop rematching (baseline)
    steps_on         total matching steps, match-once forwarding
    step_reduction   steps_off / steps_on  (the headline ratio)
    origin_steps_on  steps spent at the publisher's broker (match + mint)
    downstream_mean  mean steps per downstream hop on the digest path
    digest_bytes     mean wire size of the minted digests

Run from the repo root::

    PYTHONPATH=src python benchmarks/hop_cost.py
    PYTHONPATH=src python benchmarks/hop_cost.py \\
        --depths 6 --counts 25000 --events 200 \\
        --subscribers-per-broker 50 --min-step-reduction 2.0

``--save`` archives the table under ``benchmarks/results/`` and emits
``BENCH_hop_cost.json`` next to it.  ``--min-step-reduction X`` turns the
script into the CI gate: exit 1 unless the deepest/largest sweep point
reduces total matching steps by at least X.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.network.figures import linear_chain
from repro.obs import bench as obs_bench
from repro.obs import get_registry
from repro.protocols import LinkMatchingProtocol, ProtocolContext
from repro.workload import (
    CHART1_SPEC,
    CHART2_SPEC,
    EventGenerator,
    SubscriptionGenerator,
    WorkloadSpec,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "hop_cost.txt"

#: Workloads by matching density.  ``chart1``/``chart2`` are the paper's
#: simulation parameters (dense: a Chart 1 event matches a few hundred of
#: 25k subscriptions, so digests are big and projection ORs rival a
#: refinement descent).  ``selective`` slows the non-* decay so
#: subscriptions constrain more attributes — each event matches a handful
#: of subscriptions, the regime content-based pub-sub actually runs in and
#: the one where match-once forwarding pays: digests stay tiny while every
#: classic hop still walks the matcher tree to prove its links No.
SPECS = {
    "chart1": CHART1_SPEC,
    "chart2": CHART2_SPEC,
    "selective": WorkloadSpec(
        num_attributes=10,
        values_per_attribute=5,
        factoring_levels=2,
        first_non_star_probability=0.98,
        non_star_decay=0.92,
    ),
}


def drive_totals(protocol, root, events):
    """Route every event hop by hop; returns per-run totals.

    The chain topology has no cycles, so a simple frontier walk visits each
    broker at most once per event — the same walk the simulator's trace
    performs, minus queueing.
    """
    total_steps = 0
    origin_steps = 0
    downstream_steps = 0
    downstream_hops = 0
    digest_bytes = []
    start = time.perf_counter()
    for event in events:
        frontier = [(root, protocol.make_message(event, root))]
        while frontier:
            broker, message = frontier.pop()
            decision = protocol.handle(broker, message)
            total_steps += decision.matching_steps
            if broker == root:
                origin_steps += decision.matching_steps
            else:
                downstream_steps += decision.matching_steps
                downstream_hops += 1
            for neighbor, forward in decision.sends:
                if broker == root and forward.digest is not None:
                    digest_bytes.append(forward.digest.encoded_size_bytes)
                frontier.append((neighbor, forward))
    elapsed = time.perf_counter() - start
    return {
        "total_steps": total_steps,
        "origin_steps": origin_steps,
        "downstream_steps": downstream_steps,
        "downstream_hops": downstream_hops,
        "digest_bytes": digest_bytes,
        "wall_s": elapsed,
    }


def run(depths, counts, num_events, seed, subscribers_per_broker, spec_name="selective"):
    """Sweep depth × subscription count; returns (rows, rendered table)."""
    spec = SPECS[spec_name]
    schema = spec.schema()
    domains = spec.domains()
    event_generator = EventGenerator(spec, seed=seed + 1)
    events = [event_generator.event_for() for _ in range(num_events)]

    header = (
        f"{'depth':>5} {'subscriptions':>13} {'steps_off':>12} {'steps_on':>12} "
        f"{'reduction':>9} {'origin_on':>10} {'down_mean':>9} {'digest_B':>8}"
    )
    lines = [
        f"spec={spec_name} events={num_events} seed={seed} "
        f"subscribers_per_broker={subscribers_per_broker}",
        "",
        header,
        "-" * len(header),
    ]
    rows = []
    for depth in depths:
        topology = linear_chain(
            depth, subscribers_per_broker=subscribers_per_broker
        )
        subscribers = topology.subscribers()
        for count in counts:
            subscriptions = SubscriptionGenerator(
                spec, seed=seed
            ).subscriptions_for(subscribers, count)
            context = ProtocolContext(topology, schema, subscriptions, domains=domains)
            digest_on = LinkMatchingProtocol(context, use_digests=True)
            digest_off = LinkMatchingProtocol(context, use_digests=False)
            root = topology.broker_of(topology.publishers()[0])
            off = drive_totals(digest_off, root, events)
            on = drive_totals(digest_on, root, events)
            reduction = (
                off["total_steps"] / on["total_steps"]
                if on["total_steps"]
                else float("inf")
            )
            downstream_mean = (
                on["downstream_steps"] / on["downstream_hops"]
                if on["downstream_hops"]
                else 0.0
            )
            mean_digest_bytes = (
                sum(on["digest_bytes"]) / len(on["digest_bytes"])
                if on["digest_bytes"]
                else 0.0
            )
            row = {
                "spec": spec_name,
                "depth": depth,
                "subscriptions": count,
                "events": num_events,
                "steps_off": off["total_steps"],
                "steps_on": on["total_steps"],
                "step_reduction": reduction,
                "origin_steps_on": on["origin_steps"],
                "downstream_mean_steps_on": downstream_mean,
                "mean_digest_bytes": mean_digest_bytes,
                "wall_s_off": off["wall_s"],
                "wall_s_on": on["wall_s"],
            }
            rows.append(row)
            lines.append(
                f"{depth:>5} {count:>13} {off['total_steps']:>12} "
                f"{on['total_steps']:>12} {reduction:>8.2f}x "
                f"{on['origin_steps']:>10} {downstream_mean:>9.1f} "
                f"{mean_digest_bytes:>8.1f}"
            )
    return rows, "\n".join(lines)


def emit_bench(rows, args, directory):
    payload = obs_bench.bench_payload(
        "hop_cost",
        workload={
            "spec": args.spec,
            "depths": args.depths,
            "counts": args.counts,
            "events": args.events,
            "seed": args.seed,
            "subscribers_per_broker": args.subscribers_per_broker,
        },
        wall_clock_s=None,
        metrics=get_registry(),
        extra={"rows": rows},
    )
    directory.mkdir(parents=True, exist_ok=True)
    return obs_bench.write_bench(payload, directory)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--depths", type=int, nargs="+", default=[2, 4, 6],
        help="broker-chain depths to sweep",
    )
    parser.add_argument(
        "--counts", type=int, nargs="+", default=[2000, 25000],
        help="subscription counts to sweep",
    )
    parser.add_argument("--events", type=int, default=200, help="events per run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--spec", default="selective", choices=sorted(SPECS),
        help="workload density: the paper's chart parameters (dense matches) "
        "or the selective regime where digests stay small",
    )
    parser.add_argument(
        "--subscribers-per-broker", type=int, default=20, metavar="N",
        help="subscriber clients attached to each chain broker — more "
        "subscribers per broker means more links for the classic refinement "
        "descent to resolve at every hop",
    )
    parser.add_argument("--save", action="store_true", help=f"write table to {RESULTS_PATH}")
    parser.add_argument(
        "--bench-out", metavar="DIR", default=None,
        help="emit BENCH_hop_cost.json into DIR (implied by --save)",
    )
    parser.add_argument(
        "--min-step-reduction", type=float, default=None, metavar="X",
        help="gate: exit 1 unless the deepest/largest sweep point cuts total "
        "matching steps by X",
    )
    args = parser.parse_args(argv)

    get_registry().enable()  # before any router exists, so instruments record
    rows, table = run(
        args.depths, args.counts, args.events, args.seed,
        args.subscribers_per_broker, spec_name=args.spec,
    )
    print(table)

    if args.save:
        RESULTS_DIR.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(table + "\n")
        print(f"\nsaved to {RESULTS_PATH}")
    if args.save or args.bench_out:
        out_dir = pathlib.Path(args.bench_out) if args.bench_out else RESULTS_DIR
        path = emit_bench(rows, args, out_dir)
        print(f"bench artifact: {path}")

    if args.min_step_reduction is not None:
        top = max(rows, key=lambda row: (row["depth"], row["subscriptions"]))
        if top["step_reduction"] < args.min_step_reduction:
            print(
                f"PERF GATE FAILED: step reduction {top['step_reduction']:.2f}x "
                f"< {args.min_step_reduction:.2f}x at depth {top['depth']}, "
                f"{top['subscriptions']} subscriptions",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf gate passed: step reduction {top['step_reduction']:.2f}x "
            f">= {args.min_step_reduction:.2f}x at depth {top['depth']}, "
            f"{top['subscriptions']} subscriptions"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
