"""Parallel sweeps must be invisible: same rows, bit for bit, at any
process count — determinism survives the pool because every point owns
its ``Simulator(seed)``.
"""

import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.microbench import OdpSetup
from repro.experiments import runner
from repro.experiments.fig02_timeout import run_figure2
from repro.experiments.fig09_flood import run_figure9
from repro.experiments.runner import default_jobs, sweep, sweep_session


def _square(point):
    return point * point


def _tagged(point):
    return (os.getpid(), point)


class TestSweepRunner:
    def test_serial_and_parallel_preserve_order(self):
        points = list(range(20))
        assert sweep(_square, points, processes=1) == \
            sweep(_square, points, processes=4) == \
            [p * p for p in points]

    def test_parallel_actually_uses_workers(self):
        tags = sweep(_tagged, list(range(8)), processes=2)
        assert [point for _pid, point in tags] == list(range(8))
        assert all(pid != os.getpid() for pid, _point in tags)

    def test_repro_serial_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        tags = sweep(_tagged, list(range(4)), processes=4)
        assert all(pid == os.getpid() for pid, _point in tags)

    def test_repro_jobs_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert default_jobs() >= 1

    def test_nested_sweep_marker_forces_serial(self, monkeypatch):
        monkeypatch.setenv(runner._IN_WORKER_ENV, "1")
        tags = sweep(_tagged, list(range(4)), processes=4)
        assert all(pid == os.getpid() for pid, _point in tags)

    def test_empty_points(self):
        assert sweep(_square, [], processes=4) == []


class TestSweepSession:
    """One pool across consecutive sweeps: spawn cost paid once,
    results bit-identical with and without the session."""

    def test_consecutive_sweeps_share_one_pool(self):
        points = list(range(8))
        with sweep_session() as session:
            assert session.pool is None  # lazily created
            first = sweep(_tagged, points, processes=2)
            pool = session.pool
            assert pool is not None
            second = sweep(_tagged, points, processes=2)
            assert session.pool is pool
            assert session.pooled_sweeps == 2
            workers = set(pool._processes)
        assert session.pool is None  # shut down on exit
        # Every point of both sweeps ran in the one pool's workers.
        assert {pid for pid, _p in first} | {pid for pid, _p in second} \
            <= workers

    def test_results_bit_identical_with_and_without_session(self):
        points = list(range(17))
        bare = sweep(_square, points, processes=3)
        with sweep_session():
            pooled = sweep(_square, points, processes=3)
        assert pooled == bare == [p * p for p in points]

    def test_serial_sweeps_never_fork_the_pool(self):
        with sweep_session() as session:
            sweep(_square, list(range(4)), processes=1)
            assert session.pool is None
            assert session.pooled_sweeps == 0

    def test_nested_sessions_reuse_the_innermost(self):
        with sweep_session() as outer:
            sweep(_square, list(range(6)), processes=2)
            with sweep_session() as inner:
                assert inner is outer
                sweep(_square, list(range(6)), processes=2)
            # Inner exit must not tear down the outer session's pool.
            assert outer.pool is not None
            assert outer.pooled_sweeps == 2
        assert outer.pool is None

    def test_pinned_processes_bound_the_pool(self):
        with sweep_session(processes=2) as session:
            tags = sweep(_tagged, list(range(12)), processes=6)
            assert session.pool is not None
            assert session.pool._max_workers == 2
        assert [p for _pid, p in tags] == list(range(12))

    def test_unpinned_session_grows_the_pool(self):
        with sweep_session() as session:
            sweep(_square, list(range(4)), processes=2)
            assert session.workers == 2
            assert session.grown == 0
            small_pool = session.pool
            # A later, wider sweep must not silently run 2-wide.
            sweep(_square, list(range(12)), processes=6)
            assert session.workers == 6
            assert session.grown == 1
            assert session.pool is not small_pool
            assert session.pool._max_workers == 6
            # Narrower sweeps reuse the wide pool without shrinking.
            sweep(_square, list(range(4)), processes=2)
            assert session.grown == 1

    def test_pinned_session_warns_once_and_keeps_width(self):
        with sweep_session(processes=2) as session:
            sweep(_square, list(range(4)), processes=2)
            with pytest.warns(RuntimeWarning,
                              match=r"pinned to 2 workers; running with 2"):
                got = sweep(_square, list(range(12)), processes=6)
            assert got == [p * p for p in range(12)]
            assert session.workers == 2
            assert session.grown == 0
            # One-shot: the next oversized sweep stays silent.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep(_square, list(range(12)), processes=6)

    def test_figure_sweep_identical_inside_session(self):
        kwargs = dict(cacks=[1, 18], systems=["Reedbush-H"])
        bare = run_figure2(processes=2, **kwargs)
        with sweep_session():
            pooled = run_figure2(processes=2, **kwargs)
            again = run_figure2(processes=2, **kwargs)
        assert [c.points for c in bare.curves] == \
            [c.points for c in pooled.curves] == \
            [c.points for c in again.curves]


class TestParallelEqualsSerial:
    """The ISSUE acceptance gate: reduced fig02/fig09 sweeps, 4 worker
    processes versus serial, asserting *identical* result rows."""

    def test_fig02_rows_bit_identical(self):
        kwargs = dict(cacks=[1, 14, 18],
                      systems=["Private servers A", "Reedbush-H"])
        serial = run_figure2(processes=1, **kwargs)
        parallel = run_figure2(processes=4, **kwargs)
        assert [c.points for c in serial.curves] == \
            [c.points for c in parallel.curves]
        assert serial.render() == parallel.render()

    def test_fig09_rows_bit_identical(self):
        kwargs = dict(qps_values=[1, 4],
                      modes=[OdpSetup.NONE, OdpSetup.CLIENT],
                      scale=128, seed=3)
        serial = run_figure9(processes=1, **kwargs)
        parallel = run_figure9(processes=4, **kwargs)
        assert serial.curves == parallel.curves
        assert serial.render() == parallel.render()


@pytest.mark.skipif(default_jobs() < 4,
                    reason="speedup needs >= 4 usable cores")
def test_fig09_parallel_wall_clock_speedup():
    """With real cores available, 4 workers must at least halve the
    serial wall-clock of a reduced fig09 sweep."""
    import time

    kwargs = dict(qps_values=[1, 5, 10, 25],
                  modes=[OdpSetup.NONE, OdpSetup.SERVER,
                         OdpSetup.CLIENT, OdpSetup.BOTH],
                  scale=32)
    started = time.perf_counter()
    serial = run_figure9(processes=1, **kwargs)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_figure9(processes=4, **kwargs)
    parallel_s = time.perf_counter() - started
    assert serial.render() == parallel.render()
    assert parallel_s <= 0.5 * serial_s, \
        f"parallel {parallel_s:.1f}s vs serial {serial_s:.1f}s"


class _RecordingPool(ThreadPoolExecutor):
    """An in-process pool that records the points in submission order."""

    def __init__(self, workers):
        super().__init__(max_workers=1)
        self.submitted = []

    def submit(self, fn, point):
        self.submitted.append(point)
        return super().submit(fn, point)


class TestWeightedSweep:
    """``weights`` order submission heaviest first; results, ordering
    and progress reporting do not move."""

    def test_weights_keep_input_order_validate_and_report(self):
        points = list(range(8))
        expected = [p * p for p in points]
        for weights in (points[::-1], [1.0] * 8, points):
            for processes in (1, 3):
                assert sweep(_square, points, processes,
                             weights=weights) == expected
        with pytest.raises(ValueError):
            sweep(_square, points, processes=2, weights=[1.0] * 7)
        seen = []
        sweep(_square, points, processes=3, weights=points,
              progress=lambda done, total: seen.append((done, total)))
        assert seen == [(done, 8) for done in range(1, 9)]

    def test_heaviest_first_ties_keep_input_order(self, monkeypatch):
        pools = []

        def make_pool(workers):
            pools.append(_RecordingPool(workers))
            return pools[-1]

        monkeypatch.setattr(runner, "_make_pool", make_pool)
        got = sweep(_square, [0, 1, 2, 3, 4], processes=2,
                    weights=[1, 3, 2, 3, 1])
        assert got == [0, 1, 4, 9, 16]
        assert pools[0].submitted == [1, 3, 2, 0, 4]


class TestFigureWiring:
    """fig09 and tab13 submit weighted sweeps; their outputs must
    not move with placement."""

    def test_tab13_cells_bit_identical(self):
        from repro.apps.spark.workloads import SPARK_CELLS
        from repro.experiments.tab13_spark import run_table13
        cells = [SPARK_CELLS[0], SPARK_CELLS[3]]
        serial = run_table13(cells=cells, processes=1)
        parallel = run_table13(cells=cells, processes=4)
        assert serial.render() == parallel.render()

    def test_fig09_grouped_invariant_across_placement(self):
        # A grouped fig09 point is *defined* over per-group RNG streams
        # (a different, equally valid fleet definition — not the
        # monolithic classic run), so what must hold is placement
        # invariance: serial and pooled render the same.  Two cells, so
        # the pooled run really fans out and each fleet runs in a worker.
        kwargs = dict(qps_values=[4, 8], modes=[OdpSetup.CLIENT],
                      scale=128, seed=3, num_groups=2)
        serial = run_figure9(processes=1, **kwargs)
        pooled = run_figure9(processes=4, **kwargs)
        assert serial.render() == pooled.render()

    def test_fig09_effective_groups_divisor_fallback(self):
        from repro.experiments.fig09_flood import effective_groups
        assert effective_groups(4, 64, 256) == 4
        assert effective_groups(4, 6, 256) == 2   # largest common divisor
        assert effective_groups(3, 5, 7) == 1     # nothing divides: classic
        assert effective_groups(1, 64, 256) == 1
