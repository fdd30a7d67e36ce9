"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with the ``time.monotonic()`` reading taken just
before the interpreter was spawned, so ``setup_s`` covers interpreter
start, imports, input generation and worker-pool start.  Prints one
JSON object on its last line of standard output.

Every repetition samples the host's speed during set-up, and untraced
ones also while the workload runs: a timer interrupts the process that
does the work every ``SAMPLE_INTERVAL_S`` and times a fixed arithmetic
kernel in it, which costs under 1% of the run.  On a shared 2-CPU VM
the speed was measured to swing by +-25% within seconds and drift by
20-50% over minutes, because other machines' work shares its cores;
the kernel's time tracks that drift, so ``run.py`` can report times at
one reference speed.  The kernel interrupts the work it measures
rather than running beside it, so the program's own processes never
compete with it: in-process workloads sample in this process around
the run, and the pooled workload
(``tenants``) samples inside every shard call, in the pool worker that
runs it, and hands the samples back through files under
``.perfbench/``.  The kernel is the benchmark's own code, so no change
to ``repro`` can move it.

    python3 perfbench/rep.py --workload flood --seed 0 --spawned-at T \
        [--trace --span-dir DIR]
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Where pool workers leave their kernel samples for the parent.
SPEED_DIR = os.path.join(os.path.dirname(HERE), ".perfbench")


SAMPLE_INTERVAL_S = 0.02
KERNEL_LOOPS = 1500


class HostSpeed:
    """Times a fixed kernel on entry and on every timer tick inside a
    ``with`` block."""

    def __init__(self):
        self.samples = []

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(KERNEL_LOOPS):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        # a block shorter than one tick still gets a sample
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self) -> float:
        """Harmonic mean of the kernel times.  Each sample stands for
        the speed over its tick, so seconds times ``REFERENCE / kernel_s``
        sum every tick's seconds at the speed measured in it; this
        follows a speed change within the block, which a median does
        not."""
        return statistics.harmonic_mean(self.samples)


def sample_shards(speed_dir: str) -> None:
    """Make every shard call of a pooled fleet sample the kernel in the
    process that runs it and leave the samples in ``speed_dir``.

    Must run before the pool starts, so the forked workers inherit the
    wrapped entry point; pickling resolves it by name to the wrapper.
    """
    from repro.experiments import shard

    run_shard = shard.run_shard

    @functools.wraps(run_shard)
    def sampled(args):
        with HostSpeed() as speed:
            result = run_shard(args)
        path = os.path.join(speed_dir,
                            f"{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w") as handle:
            json.dump(speed.samples, handle)
        return result
    shard.run_shard = sampled


def shard_samples(speed_dir: str) -> list:
    samples = []
    for entry in sorted(os.listdir(speed_dir)):
        with open(os.path.join(speed_dir, entry)) as handle:
            samples += json.load(handle)
    return samples


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--span-dir", default=None)
    args = parser.parse_args(argv)

    with HostSpeed() as setup_speed:
        tracer = None
        if args.trace:
            import tracer as tracing
            tracing.import_layers()
            tracer = tracing.Tracer(
                f"{args.workload}-{args.seed}-{os.getpid()}", args.span_dir)
            tracer.install()
        speed_dir = None
        if tracer is None and workloads.JOBS[args.workload] > 1:
            speed_dir = os.path.join(SPEED_DIR, f"speed-{os.getpid()}")
            os.makedirs(speed_dir)
            sample_shards(speed_dir)
        prepared = workloads.PREPARE[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "setup_kernel_s": setup_speed.kernel_s(),
           "pool_start_s": prepared.pool_start_s}

    cpu_start = _cpu_s(resource.RUSAGE_SELF)
    children_start = _cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    if tracer is not None:
        outcome = tracer.root(prepared.run)
    elif speed_dir is not None:
        outcome = prepared.run()
    else:
        with HostSpeed() as speed:
            outcome = prepared.run()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s(resource.RUSAGE_SELF) - cpu_start
    # pool workers are reaped by close(); their CPU then shows up in
    # RUSAGE_CHILDREN
    prepared.close()
    cpu_s += _cpu_s(resource.RUSAGE_CHILDREN) - children_start
    if speed_dir is not None:
        out["kernel_s"] = statistics.harmonic_mean(shard_samples(speed_dir))
        shutil.rmtree(speed_dir)
    elif tracer is None:
        out["kernel_s"] = speed.kernel_s()

    out.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=_peak_rss_mb(),
               packets=outcome.packets, digest=outcome.digest,
               attempted=outcome.attempted, failed=outcome.failed,
               extra=outcome.extra)
    if tracer is not None:
        out["aggregates"] = tracer.collect()
        tracer.write_sample(os.path.join(args.span_dir, "spans.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
