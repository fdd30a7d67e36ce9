"""Parallel experiment sweeps.

Every figure is a grid of *independent* simulation points — fig02's
systems x C_ACK grid, fig09's QP x ODP-mode grid, fig12's 100 trials,
tab13's 12 cells.  Each point builds its own :class:`Simulator` from its
own seed, so points can fan out across worker processes with no shared
state and **bit-identical** results: :func:`sweep` preserves input
order and the per-point seeds make a worker's run byte-for-byte the
run the serial loop would have produced.

Environment knobs:

* ``REPRO_SERIAL=1`` forces serial execution regardless of arguments
  (useful for debugging and for deterministic timing baselines);
* ``REPRO_JOBS=N`` sets the default worker count (otherwise the number
  of usable cores).

:func:`sweep` is the repo's only pool-submission site: grid sweeps,
the weighted figure sweeps (fig09, fig12, tab13) and the shard fleet
(:func:`repro.experiments.shard.run_fleet`) all go through it.  It
submits one point per task, heaviest ``weights`` first, so placement
is the only thing the executor decides.

Workers must be module-level functions and points picklable tuples —
``ProcessPoolExecutor`` ships both to the pool.  Nested sweeps (a sweep
inside a worker) automatically degrade to serial so a figure that fans
out trials cannot fork a pool per worker.

Entry points that run several sweeps back to back (the figure CLIs, the
shard benchmarks) wrap them in :func:`sweep_session` so one worker pool
is spawned once and reused — results are bit-identical either way.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    TypeVar)

Point = TypeVar("Point")
Result = TypeVar("Result")

#: Set inside pool workers so nested sweep() calls stay serial.
_IN_WORKER_ENV = "REPRO_IN_SWEEP_WORKER"

#: The innermost active :func:`sweep_session`, or None.
_SESSION: Optional["_SweepSession"] = None


def serial_forced() -> bool:
    """True when the environment pins sweeps to serial execution."""
    if os.environ.get("REPRO_SERIAL", "") not in ("", "0"):
        return True
    return os.environ.get(_IN_WORKER_ENV, "") == "1"


def default_jobs() -> int:
    """Worker count used when ``processes`` is not given."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _mark_worker() -> None:
    """Pool initializer: tag the process so nested sweeps go serial."""
    os.environ[_IN_WORKER_ENV] = "1"


def _make_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=max(1, workers),
                               initializer=_mark_worker)


class _SweepSession:
    """A lazily created worker pool shared by consecutive sweeps.

    The pool is spawned on the first parallel sweep inside the session
    (a session whose sweeps all short-circuit to serial never forks) and
    shut down when the session exits.  A ``ProcessPoolExecutor`` cannot
    add workers in place, so when a later sweep asks for more jobs than
    the pool holds, an *unpinned* session replaces the pool with a wider
    one (``grown`` counts replacements); a session whose ``processes``
    was pinned explicitly keeps its width and emits a one-shot
    :class:`RuntimeWarning` naming the effective job count, since the
    pin was a deliberate cap.  Either way results are unchanged — pool
    width only moves work between processes.
    """

    def __init__(self, processes: Optional[int] = None):
        self.processes = processes
        self.pool: Optional[ProcessPoolExecutor] = None
        #: current pool width (0 before the first parallel sweep).
        self.workers = 0
        #: times the pool was replaced by a wider one (tests/diagnostics).
        self.grown = 0
        #: sweeps that went through the pooled path (tests/diagnostics).
        self.pooled_sweeps = 0
        self._warned_capped = False

    def executor(self, jobs: int) -> ProcessPoolExecutor:
        """The session pool, sized for ``jobs`` workers.

        Created on first use; grown (unpinned sessions) or capped with a
        one-shot warning (pinned sessions) when ``jobs`` exceeds the
        current width.
        """
        if self.pool is None:
            workers = self.processes if self.processes is not None else jobs
            self.workers = max(1, workers)
            self.pool = _make_pool(self.workers)
        elif jobs > self.workers:
            if self.processes is None:
                self.pool.shutdown()
                self.workers = max(1, jobs)
                self.pool = _make_pool(self.workers)
                self.grown += 1
            elif not self._warned_capped:
                self._warned_capped = True
                warnings.warn(
                    "sweep requested %d jobs but the session pool is "
                    "pinned to %d workers; running with %d"
                    % (jobs, self.workers, self.workers),
                    RuntimeWarning, stacklevel=3)
        return self.pool

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
            self.workers = 0


@contextmanager
def sweep_session(processes: Optional[int] = None
                  ) -> Iterator[_SweepSession]:
    """Reuse one worker pool across every :func:`sweep` in the block.

    Figure CLIs and shard benchmarks run several sweeps back to back;
    without a session each pays pool spawn plus a fresh interpreter
    import per worker.  Inside a session the first parallel sweep forks
    the pool and later sweeps reuse it.  Results are bit-identical with
    and without a session (a test enforces this): the pool only changes
    *where* points execute, never their seeds or ordering, and workers
    hold no state between sweeps that a point could observe — every
    point builds its own simulator from its own seed.

    Sessions nest by reusing the innermost active session's pool, so a
    helper that opens its own session composes with a caller that
    already did.  ``processes`` pins the pool's worker count; by default
    the first parallel sweep's job count decides.
    """
    global _SESSION
    if _SESSION is not None:
        yield _SESSION
        return
    session = _SweepSession(processes)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None
        session.close()


def sweep(fn: Callable[[Point], Result], points: Iterable[Point],
          processes: Optional[int] = None,
          weights: Optional[Sequence[float]] = None,
          progress: Optional[Callable[[int, int], None]] = None
          ) -> List[Result]:
    """Run ``fn`` over every point, in order, possibly across processes.

    Results come back in input order whatever the completion order, and
    each point must carry its own seed, so ``sweep(fn, pts, processes=N)``
    returns exactly ``[fn(p) for p in pts]`` for every ``N`` — a test
    enforces this bit-for-bit.

    ``processes=None`` uses :func:`default_jobs`; ``processes<=1``, a
    single point, or ``REPRO_SERIAL=1`` short-circuit to the plain
    serial loop (no pool, no pickling).  The pooled path submits one
    point per task.

    ``weights``, one relative cost estimate per point (QP count is the
    usual choice), orders submission heaviest first — the LPT makespan
    heuristic: stragglers start earliest, light points backfill.  Ties
    keep input order, and ``None`` submits in input order.  Weights
    only move wall-clock, never results; a list whose length differs
    from the points' raises :class:`ValueError`.

    ``progress``, when given, is called as ``progress(done, total)`` in
    the parent after each point's result is in hand — in input order on
    the serial path and in completion order on the pooled one — so long
    ``--jobs`` sweeps can report completion (e.g. as telemetry instants
    via :meth:`repro.telemetry.Telemetry.progress`) without changing
    results: the callback never touches the points or their outputs.
    """
    todo = list(points)
    total = len(todo)
    if weights is not None:
        weights = list(weights)
        if len(weights) != total:
            raise ValueError(f"sweep got {len(weights)} weights for "
                             f"{total} points")
    jobs = default_jobs() if processes is None else max(1, int(processes))
    jobs = min(jobs, total)
    if jobs <= 1 or serial_forced():
        results: List[Result] = []
        for point in todo:
            results.append(fn(point))
            if progress is not None:
                progress(len(results), total)
        return results
    order = range(total) if weights is None else \
        sorted(range(total), key=lambda i: -weights[i])
    if _SESSION is not None:
        pool = _SESSION.executor(jobs)
        _SESSION.pooled_sweeps += 1
        return _consume(pool, fn, todo, order, progress)
    with _make_pool(jobs) as pool:
        return _consume(pool, fn, todo, order, progress)


def _consume(pool: ProcessPoolExecutor, fn, todo: List, order,
             progress) -> List:
    """Submit ``todo`` in ``order`` and collect results by input index."""
    futures = {pool.submit(fn, todo[i]): i for i in order}
    results: List = [None] * len(todo)
    try:
        for done, future in enumerate(as_completed(futures), 1):
            results[futures[future]] = future.result()
            if progress is not None:
                progress(done, len(todo))
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return results
