"""The repository benchmark: host time to reproduce the paper's workloads.

    python3 perfbench/run.py --workload {flood,spark,tenants} --seed N \
        --seconds S --trace {0,1}

Every repetition runs in a fresh interpreter (``rep.py``) with
``REPRO_*`` cleared from the environment and the worker count set
explicitly, so process-global state and the caller's knobs stay out of
the numbers.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report and the host record.

``--trace 0`` runs repetitions until ``--seconds`` is used up (at least
two), and reports the end-to-end metrics as medians over repetitions.
``wall_s`` and ``cpu_s`` are host seconds at the reference host speed:
each repetition's seconds are multiplied by ``REFERENCE_KERNEL_S`` over
the harmonic mean time of the speed kernel that ``rep.py`` sampled, in
the processes doing the work, during that repetition, and
``sim_pkts_per_s`` divides by the rescaled ``wall_s``.  ``setup_s`` is
rescaled the same way by the kernel sampled during set-up.  The raw
seconds are in the report line.  ``peak_rss_mb`` is raw.
``--trace 1`` runs one untraced and one traced repetition and reports
the per-layer metrics; its digests must agree, so wrapping changed
nothing.

Correctness: every repetition's digest of simulated outputs must equal
the others', and at the reference seed the digest stored in
``reference.json``.  A repetition whose digest does not match counts
all its operations as failed.  A change that alters simulated outputs
on purpose copies the workload's new ``digest`` from the report line
into ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
#: Scratch space for traced runs (span sample, worker aggregates).
RUN_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Speed-kernel time (rep.HostSpeed) that defines the reference host
#: speed; a typical time on a 2-CPU Xeon (Sapphire Rapids) VM.
REFERENCE_KERNEL_S = 140e-6
MIN_REPS = 2
#: Whole-run deadline; the harness allows 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "sim_pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class RepFailed(RuntimeError):
    """A repetition's interpreter failed or printed no result."""


def rep_env(workload: str) -> dict:
    """Hermetic child environment: no ``REPRO_*`` knobs from the
    caller, ``src`` on the path, and an explicit worker count."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_JOBS"] = str(workloads.JOBS[workload])
    return env


def run_rep(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed), *flags,
               "--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=rep_env(workload),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} repetition exceeded the deadline") \
            from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RepFailed(f"{workload} repetition exited {done.returncode}:\n"
                        f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def check_digests(reps, workload: str, seed: int) -> str:
    """The digest every repetition must match: the stored reference at
    the reference seed, otherwise the first repetition's."""
    if seed == REFERENCE_SEED:
        return load_reference()[workload]
    return reps[0]["digest"]


def count_failed(reps, expected: str) -> int:
    """Failed operations over repetitions; a repetition whose digest
    differs from ``expected`` counts every operation it attempted."""
    return sum(rep["failed"] if rep["digest"] == expected
               else rep["attempted"] for rep in reps)


def host_record(order) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "repeats": sum(1 for kind in order if kind == "run"),
        "order": order,
    }


def print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")


def untraced(args, deadline: float) -> dict:
    """Repetitions for ``--seconds``."""
    start = time.monotonic()
    reps, rep_times = [], []
    while len(reps) < MIN_REPS or \
            time.monotonic() - start + statistics.mean(rep_times) \
            <= args.seconds:
        begun = time.monotonic()
        reps.append(run_rep(args.workload, args.seed, deadline))
        rep_times.append(time.monotonic() - begun)
    expected = check_digests(reps, args.workload, args.seed)
    failed = count_failed(reps, expected)
    attempted = sum(rep["attempted"] for rep in reps)
    scale = [REFERENCE_KERNEL_S / rep["kernel_s"] for rep in reps]
    metrics = {
        "wall_s": statistics.median(rep["wall_s"] * k
                                    for rep, k in zip(reps, scale)),
        "cpu_s": statistics.median(rep["cpu_s"] * k
                                   for rep, k in zip(reps, scale)),
        "sim_pkts_per_s": statistics.median(
            rep["packets"] / (rep["wall_s"] * k)
            for rep, k in zip(reps, scale)),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
        "setup_s": statistics.median(
            rep["setup_s"] * REFERENCE_KERNEL_S / rep["setup_kernel_s"]
            for rep in reps),
    }
    report = {
        "workload": args.workload, "seed": args.seed,
        "host": host_record(["run"] * len(reps)),
        "digest": reps[0]["digest"], "expected_digest": expected,
        "failed_ops_ratio": failed / attempted,
        "raw_wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "raw_cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
        "raw_setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "reps": [{key: rep[key] for key in
                  ("setup_s", "setup_kernel_s", "wall_s", "cpu_s",
                   "kernel_s", "peak_rss_mb", "packets", "attempted",
                   "failed")} for rep in reps],
    }
    for key in reps[0]["extra"]:
        report[key] = statistics.median(rep["extra"][key] for rep in reps)
    return {
        "report": report,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                    for name, value in metrics.items()},
    }


def traced(args, deadline: float) -> dict:
    """One untraced and one traced repetition; per-layer metrics."""
    import tracer as tracing

    span_dir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}")
    shutil.rmtree(span_dir, ignore_errors=True)
    os.makedirs(span_dir)
    plain = run_rep(args.workload, args.seed, deadline)
    traced_rep = run_rep(args.workload, args.seed, deadline, "--trace",
                         "--span-dir", span_dir)
    expected = check_digests([plain], args.workload, args.seed)
    values = tracing.layer_metrics(
        traced_rep["aggregates"], traced_rep["wall_s"], plain["wall_s"],
        traced_rep["pool_start_s"])
    coverage = values["trace.coverage"][0]
    low, high = tracing.COVERAGE_RANGE
    reps = [plain, traced_rep]
    failed = count_failed(reps, expected)
    attributed = sum(values[name][0] for name in values
                     if name.endswith("self_s"))
    report = {
        "workload": args.workload, "seed": args.seed,
        "host": host_record(["run", "traced"]),
        "digest": plain["digest"], "traced_digest": traced_rep["digest"],
        "expected_digest": expected,
        "coverage_range": [low, high],
        "layer_share": {name: values[name][0] / attributed
                        for name in values
                        if name.endswith("self_s") and attributed},
        "clusters": len(traced_rep["aggregates"]["clusters"]),
        "span_sample": os.path.join(span_dir, "spans.json"),
    }
    return {
        "report": report,
        "correct": failed == 0 and low <= coverage <= high,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = (traced if args.trace else untraced)(args, deadline)
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(result.pop("report"), sort_keys=True))
    print_metrics(result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
