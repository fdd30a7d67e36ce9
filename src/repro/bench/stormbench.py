"""Storm-coalescing benchmark: the fast path vs the per-packet path.

The fig09 flood points spend almost all of their simulated time inside
steady-state blind-retransmit storms: every round of a stale QP replays
the same request burst, the same discards, and the same re-arm timer,
only shifted in time.  The :class:`~repro.ib.transport.coalesce.StormCoalescer`
recognises such rounds and applies them as one macro-event — bulk
counters, link occupancy, timer jump — under an *exact or decline*
contract: every reported metric stays bit-identical to the per-packet
run, enforced here on every workload.

This bench wall-clocks fig09-shaped client-ODP flood points twice, with
``coalesce=False`` (the object path) and ``coalesce=True`` (the fast
path: coalescer, array core and bulk delivery), and reports the
speedup plus the coalescer's decline tally (which reasons forced real
rounds, and how often).

Run ``python -m repro.bench.stormbench`` from the repo root; it writes
``BENCH_storm.json`` (see the README's Performance section).  Use
``--smoke`` in CI for a seconds-long sanity run, and
``--check BENCH_storm.json`` to fail when a freshly measured speedup
regresses more than 30% below the committed report (speedup ratios are
machine-independent; raw wall-clock seconds are not) or when any
workload breaks bit-identity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.sim.timebase import MS

#: The flood points.  ``full`` is the headline: 256 stale QPs hammering
#: a client-ODP server — the deepest storm the fig09 grid reaches, and
#: the shape where coalescing pays the most.  ``smoke`` is the same
#: shape at tier-1 scale, small enough for CI yet deep enough that
#: blind-round and joint coalescing both engage.
_WORKLOADS = {
    "smoke": dict(num_qps=50, num_ops=512),
    "full": dict(num_qps=256, num_ops=4096),
}


def _flood_config(coalesce: bool, num_qps: int, num_ops: int,
                  size: int = 400) -> MicrobenchConfig:
    """A fig09-shaped client-ODP flood point (scaled message size keeps
    the paper's 200-page buffer footprint at reduced op counts)."""
    return MicrobenchConfig(size=size, num_ops=num_ops, num_qps=num_qps,
                            odp=OdpSetup.CLIENT, cack=14,
                            min_rnr_timer_ns=round(1.28 * MS),
                            integrity=False, seed=50, coalesce=coalesce)


def _metrics(result) -> Dict[str, Any]:
    """Every reported metric — the bit-identity surface.

    ``coalesced_rounds`` and ``events_coalesced`` describe how the run
    was executed, not what it measured, and legitimately differ.
    """
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


def _storm_point(num_qps: int, num_ops: int, repeats: int) -> Dict[str, Any]:
    """Wall-clock one flood point per-packet and coalesced.

    Best-of-``repeats`` walls on each side (the runs are deterministic,
    so repeats only filter scheduler noise); the bit-identity comparison
    uses the full metric surface of the last run of each side.
    """
    timed: Dict[str, Any] = {}
    clusters: List[Any] = []
    for mode, coalesce in (("per_packet", False), ("coalesced", True)):
        cfg = _flood_config(coalesce, num_qps, num_ops)
        walls = []
        result = None
        for _ in range(repeats):
            clusters.clear()
            started = time.perf_counter()
            result = run_microbench(cfg, on_cluster=clusters.append)
            walls.append(time.perf_counter() - started)
        timed[mode] = {
            "wall_s": round(min(walls), 4),
            "coalesced_rounds": result.coalesced_rounds,
            "events_coalesced": result.events_coalesced,
            "metrics": _metrics(result),
        }
        if coalesce:
            declines: Dict[str, int] = {}
            joint = 0
            for node in clusters[0].nodes:
                for qp in node.rnic._qps.values():
                    joint += qp.coalescer.joint_rounds
                    for reason, count in \
                            qp.coalescer.decline_reasons.items():
                        declines[reason] = declines.get(reason, 0) + count
            timed[mode]["joint_rounds"] = joint
            timed[mode]["decline_reasons"] = dict(
                sorted(declines.items(), key=lambda kv: -kv[1]))
    timed["bit_identical"] = (timed["per_packet"]["metrics"]
                              == timed["coalesced"]["metrics"])
    timed["speedup"] = round(timed["per_packet"]["wall_s"]
                             / timed["coalesced"]["wall_s"], 2)
    # Metric surfaces proved equal (or the report flags it); they hold
    # enum-valued completion tuples, so keep only the headline counters.
    packets = timed["per_packet"]["metrics"]["total_packets"]
    execution_ns = timed["per_packet"]["metrics"]["execution_time_ns"]
    del timed["per_packet"]["metrics"], timed["coalesced"]["metrics"]
    timed["num_qps"] = num_qps
    timed["num_ops"] = num_ops
    timed["total_packets"] = packets
    timed["execution_time_ns"] = execution_ns
    return timed


def run_bench(smoke: bool) -> Dict[str, Any]:
    """Measure the smoke point, plus the 256-QP headline when not in
    smoke mode."""
    workloads = {"smoke": _storm_point(repeats=2, **_WORKLOADS["smoke"])}
    if not smoke:
        workloads["full"] = _storm_point(repeats=2, **_WORKLOADS["full"])
    return workloads


def check_report(report: Dict[str, Any], committed_path: str,
                 tolerance: float = 0.7) -> List[str]:
    """Regression gate: compare ``report`` to the committed baseline.

    Speedup ratios are compared per shared workload (machine-
    independent); a measured speedup below ``tolerance`` x the committed
    one — i.e. a >30% relative wall-clock regression at the default —
    fails, as does any broken bit-identity in the measured report.

    The workload key sets are compared first: no overlap at all (the
    classic symptom of pointing ``--check`` at the wrong or an outdated
    BENCH file) fails with the missing and extra keys spelled out
    instead of crashing on a missing field.  A partial overlap — a
    smoke run checked against the full committed report — only vets the
    shared shapes.
    """
    with open(committed_path) as fh:
        committed = json.load(fh)
    failures: List[str] = []
    measured = report.get("workloads") or {}
    baseline_workloads = committed.get("workloads") or {}
    missing = sorted(set(baseline_workloads) - set(measured))
    extra = sorted(set(measured) - set(baseline_workloads))
    if not set(measured) & set(baseline_workloads):
        failures.append(
            f"no workload shared with {committed_path}: baseline "
            f"workloads missing from this run: {missing or '[]'}; "
            f"measured workloads unknown to the baseline: "
            f"{extra or '[]'} (wrong or outdated baseline file?)")
        return failures
    for name, point in measured.items():
        if not point.get("bit_identical", False):
            failures.append(f"workload {name}: coalesced metrics diverge "
                            "from per-packet metrics")
        baseline = baseline_workloads.get(name)
        if baseline is None:
            continue
        if "speedup" not in baseline or "speedup" not in point:
            failures.append(f"workload {name}: no speedup recorded on "
                            "one side (schema drift?)")
            continue
        floor = baseline["speedup"] * tolerance
        if point["speedup"] < floor:
            failures.append(
                f"workload {name}: speedup {point['speedup']}x is below "
                f"{floor:.2f}x ({tolerance:.0%} of committed "
                f"{baseline['speedup']}x)")
    if extra:
        print(f"note: measured workloads not in baseline (unchecked): "
              f"{', '.join(extra)}", file=sys.stderr)
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stormbench",
        description="Benchmark steady-state storm coalescing against the "
                    "per-packet path and write BENCH_storm.json.")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the small flood point (CI sanity)")
    parser.add_argument("--output", default="BENCH_storm.json",
                        help="output path (default: ./BENCH_storm.json)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a committed report; exit 1 "
                             "on >30%% speedup regression or broken "
                             "bit-identity")
    args = parser.parse_args(argv)

    report = {
        "bench": "repro.bench.stormbench",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "workloads": run_bench(args.smoke),
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    if args.check is not None:
        failures = check_report(report, args.check)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check passed: no regression against", args.check)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
