"""Per-layer tracing from outside the program.

The traced run wraps the functions and methods of every loaded
``repro`` module at import-time boundaries, from the benchmark's own
files; ``src/`` is never edited.  Each module belongs to one layer
(:data:`LAYER_PREFIXES`).  A call that crosses into another layer opens
a span (name, start, end, parent span, run id); a call inside the same
layer costs one identity check.  A layer's self time is the duration
of its spans minus the time their child spans cover.  Code that is not
a module-level function or method (closures, lambdas, properties,
callbacks handed to the engine) is not wrapped, so its time is charged
to the layer of the span that calls it.

Counts are taken at the same boundaries (``all_of`` calls and inputs,
``Future.done`` reads, ``retransmit_load`` calls, ...) and from the
clusters and telemetry sessions the run builds, harvested when the
next one is built.  Aggregates stay in memory; forked pool workers
write theirs to ``span_dir`` after each shard and the parent merges
them.  A bounded sample of raw spans is kept for inspection.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

from workloads import ClusterTally

#: The catch-all layer of ``repro`` modules no named layer claims.  It
#: does not count toward coverage either, so coverage checks that the
#: named layers account for the run.
CATCH_ALL = "app"

#: Module prefix -> layer; the longest matching prefix wins.
LAYER_PREFIXES = {
    "repro.sim.future": "sim.future",
    "repro.sim": "sim",
    "repro.ib.transport": "transport",
    "repro.ib.rnic": "transport",
    "repro.ib.packets": "transport",
    "repro.ib.odp": "odp",
    "repro.host.driver": "odp",
    "repro.net": "net",
    "repro.ib": "verbs",
    "repro.host": "verbs",
    "repro.ucx": "ucx",
    "repro.apps.spark.fleet": "parallel",
    "repro.apps.spark": "spark",
    "repro.telemetry": "telemetry",
    "repro.capture": "telemetry",
    "repro.service.fleet": "parallel",
    "repro.service": "service",
    "repro.mitigate": "service",
    "repro.experiments.runner": "parallel",
    "repro.experiments.scheduler": "parallel",
    "repro.experiments.shard": "parallel",
    "repro": CATCH_ALL,
}

#: Packages imported before wrapping, so lazily imported layers are
#: wrapped too.  The entry modules come first: they import the layers
#: in an order free of import cycles.
LAYER_PACKAGES = ("repro.bench.microbench", "repro.apps.spark.benchmark",
                  "repro.service.interference", "repro.experiments.shard",
                  "repro.sim", "repro.ib", "repro.net", "repro.host",
                  "repro.ucx", "repro.apps.spark", "repro.telemetry",
                  "repro.service", "repro.mitigate", "repro.experiments")

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = ("sim", "sim.future", "transport", "odp", "net", "verbs", "ucx",
          "spark", "telemetry", "service", "parallel", CATCH_ALL)

#: Pseudo-layers: the benchmark's own root span and the tracer's own
#: bookkeeping.  Neither counts toward coverage.
ROOT = "bench"
OVERHEAD = "trace"

#: ``trace.coverage`` (named layers' self time / traced wall) must fall
#: in this range for the traced run to pass.
COVERAGE_RANGE = (0.90, 1.0)

SPAN_SAMPLE = 4096


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to."""
    best = ""
    for prefix in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else ROOT


def import_layers() -> None:
    """Import every module of the traced packages."""
    import importlib
    import pkgutil
    for name in LAYER_PACKAGES:
        module = importlib.import_module(name)
        for info in pkgutil.walk_packages(getattr(module, "__path__", []),
                                          prefix=name + "."):
            importlib.import_module(info.name)


class Tracer:
    """Span stack plus per-layer aggregates for one process."""

    def __init__(self, run_id: str, span_dir: str):
        self.run_id = run_id
        self.span_dir = span_dir
        self._clock = time.perf_counter_ns
        #: open span frames: [span id, child ns]
        self._stack: List[list] = []
        #: one-element cell holding the innermost open span's layer
        self._top: List[Optional[str]] = [None]
        self._next_id = 1
        self.sample: List[tuple] = []
        self.in_worker = False
        self._flushes = 0
        self.tally = ClusterTally()
        self._tracers: List = []
        # Wrappers hold these containers, so resets clear them in place.
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.spans: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: inclusive timers, outermost call only: name -> [depth, start]
        self.timers: Dict[str, list] = {}
        self.timer_ns: Dict[str, int] = defaultdict(int)
        self.done_reads = [0]
        self._reset()

    def _reset(self) -> None:
        for table in (self.self_ns, self.spans, self.counts, self.timer_ns):
            table.clear()
        self.done_reads[0] = 0
        self.root_ns = 0
        self.tally.clusters = []
        self.telemetry_events = 0
        self.telemetry_dropped = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, layer: str, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        stack = self._stack
        top = self._top
        prev = top[0]
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [span_id, 0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        top[0] = layer
        clock = self._clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            top[0] = prev
            duration = end - start
            self.self_ns[layer] += duration - frame[1]
            self.spans[layer] += 1
            if stack:
                stack[-1][1] += duration
            else:
                self.root_ns += duration
            if len(self.sample) < SPAN_SAMPLE:
                self.sample.append((span_id, parent, layer, name, start,
                                    end, self.run_id))

    def overhead(self, fn, *args):
        """Tracer bookkeeping, kept out of every layer's self time."""
        return self.span(OVERHEAD, fn.__name__, fn, args, {})

    def wrap(self, fn, layer: str):
        """Plain layer wrapper: a span only when the layer changes."""
        top = self._top
        span = self.span
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if top[0] is layer:
                return fn(*args, **kwargs)
            return span(layer, name, fn, args, kwargs)
        return traced

    def wrap_counted(self, fn, layer: str, counter: Optional[str] = None,
                     weigh=None, timer: Optional[str] = None):
        """Layer wrapper that also counts every call in ``counter``
        (``weigh`` adds a per-call amount to ``counter + "_inputs"``)
        and, with ``timer``, adds the outermost call's inclusive time to
        that timer."""
        inner = self.wrap(fn, layer)
        counts = self.counts
        timers = self.timers
        clock = self._clock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if weigh is not None:
                counts[counter + "_inputs"] += weigh(*args, **kwargs)
            if timer is None:
                return inner(*args, **kwargs)
            state = timers.setdefault(timer, [0, 0])
            if state[0] == 0:
                state[1] = clock()
            state[0] += 1
            try:
                return inner(*args, **kwargs)
            finally:
                state[0] -= 1
                if state[0] == 0:
                    self.timer_ns[timer] += clock() - state[1]
        return counted

    def root(self, fn):
        """Run the workload under the benchmark's root span."""
        return self.span(ROOT, "workload", fn, (), {})

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function and method of the loaded repro modules,
        then rebind names other modules imported before wrapping."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "repro" or name.startswith("repro."))]
        special = self._special()
        replaced: Dict[int, tuple] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) \
                        and obj.__module__ == module.__name__:
                    wrapped = self._wrap_member(obj, layer, special)
                    setattr(module, attr, wrapped)
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj) \
                        and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer, special)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        self._install_hooks()
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap_class(self, cls, layer: str, special) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("__"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = self._wrap_member(member.__func__, layer, special)
                setattr(cls, name, type(member)(wrapped))
            elif inspect.isfunction(member):
                setattr(cls, name, self._wrap_member(member, layer, special))

    def _wrap_member(self, fn, layer: str, special):
        key = f"{fn.__module__}.{fn.__qualname__}"
        if key in special:
            return special[key](fn, layer)
        return self.wrap(fn, layer)

    def _special(self):
        """Wrappers that count or time at named boundaries."""
        def counted(counter, weigh=None, timer=None):
            return lambda fn, layer: self.wrap_counted(
                fn, layer, counter, weigh, timer)

        def timed(timer):
            return counted(None, timer=timer)

        return {
            "repro.sim.future.all_of": counted(
                "all_of", weigh=lambda futures, *a, **k: len(futures)),
            "repro.sim.process.Process._advance": self._wrap_process,
            "repro.sim.process.Process._throw": self._wrap_process,
            "repro.ib.odp.coordinator.OdpCoordinator.retransmit_load":
                counted("retransmit_load"),
            "repro.ib.odp.coordinator.OdpCoordinator._install_pin":
                counted("pins_installed"),
            "repro.net.network.Network.bulk_book": counted("bulk_books"),
            "repro.ib.verbs.pd.ProtectionDomain.reg_mr":
                counted("mrs_registered", timer="verbs_setup"),
            "repro.ib.verbs.pd.ProtectionDomain.create_qp":
                timed("verbs_setup"),
            "repro.ib.verbs.pd.ProtectionDomain.create_ud_qp":
                timed("verbs_setup"),
            "repro.ib.verbs.qp.QueuePair.connect": timed("verbs_setup"),
            "repro.host.cluster.build_pair": timed("verbs_setup"),
            "repro.ucx.endpoint.UcxEndpoint._post": counted("ucx_ops"),
            "repro.service.tier.run_cell": counted("cells"),
            "repro.telemetry.diagnose.diagnose": timed("diagnose"),
            "repro.experiments.shard.plan_fleet": timed("plan"),
            "repro.experiments.shard.merge_fleet": timed("merge"),
            "repro.experiments.runner.sweep": self._wrap_sweep,
            "repro.experiments.shard.run_shard": self._wrap_run_shard,
        }

    def _wrap_process(self, fn, layer: str):
        """Process steps run the generator body: attribute them to the
        layer of the generator's module, not to the engine."""
        top = self._top
        span = self.span
        by_file = self._layers_by_file()
        name = fn.__qualname__

        @functools.wraps(fn)
        def step(process, *args):
            gen_layer = by_file.get(process.gen.gi_code.co_filename, layer)
            if top[0] is gen_layer:
                return fn(process, *args)
            return span(gen_layer, name, fn, (process,) + args, {})
        return step

    @staticmethod
    def _layers_by_file() -> Dict[str, str]:
        return {module.__file__: layer_of(name)
                for name, module in list(sys.modules.items())
                if module is not None and getattr(module, "__file__", None)
                and (name == "repro" or name.startswith("repro."))}

    def _wrap_sweep(self, fn, layer: str):
        """Pooled sweeps: pickled argument bytes and parent wait time."""
        inner = self.wrap(fn, layer)

        @functools.wraps(fn)
        def sweep(task, points, processes=None, *args, **kwargs):
            points = list(points)
            pooled = not self.in_worker and (processes or 0) > 1 \
                and len(points) > 1
            if not pooled:
                return inner(task, points, processes, *args, **kwargs)
            size = self.overhead(_pickled_size, points)
            self.counts["pickle_bytes"] += size
            start = self._clock()
            try:
                return inner(task, points, processes, *args, **kwargs)
            finally:
                self.timer_ns["pool_wait"] += self._clock() - start
                self.counts["pool_width"] = max(self.counts["pool_width"],
                                                min(processes, len(points)))
        return sweep

    def _wrap_run_shard(self, fn, layer: str):
        """Worker entry: busy time, result bytes, and a flush of this
        worker's aggregates for the parent to merge."""
        inner = self.wrap(fn, layer)

        @functools.wraps(fn)
        def run_shard(args):
            start = self._clock()
            result = inner(args)
            self.timer_ns["worker_busy"] += self._clock() - start
            if self.in_worker:
                self.counts["pickle_bytes"] += self.overhead(_pickled_size,
                                                             result)
                self.overhead(self.flush)
            return result
        return run_shard

    def _install_hooks(self) -> None:
        """Harvest clusters and telemetry sessions as runs build them,
        and count ``Future.done`` reads."""
        from repro.host.cluster import Cluster
        from repro.sim.future import Future
        from repro.telemetry import Telemetry

        tracer = self

        cluster_init = Cluster.__init__

        @functools.wraps(cluster_init)
        def init_cluster(cluster, *args, **kwargs):
            tracer.overhead(tracer.tally.finish)
            cluster_init(cluster, *args, **kwargs)
            tracer.tally.observe(cluster)
        Cluster.__init__ = tracer.wrap_counted(init_cluster, "verbs",
                                               timer="verbs_setup")

        telemetry_init = Telemetry.__init__

        @functools.wraps(telemetry_init)
        def init_telemetry(session, *args, **kwargs):
            telemetry_init(session, *args, **kwargs)
            tracer.overhead(tracer._harvest_tracers)
            tracer._tracers.append(session.tracer)
        Telemetry.__init__ = init_telemetry

        reads = self.done_reads

        def done(future):
            reads[0] += 1
            return future._done  # noqa: SLF001
        Future.done = property(done, doc=Future.done.__doc__)

    def _harvest_tracers(self) -> None:
        for tracer in self._tracers:
            self.telemetry_events += len(tracer) + tracer.dropped
            self.telemetry_dropped += tracer.dropped
        self._tracers = []

    def _after_fork(self) -> None:
        self.in_worker = True
        self._stack.clear()
        self._top[0] = None
        self.sample = []
        self.tally._pending = None
        self._tracers = []
        self._reset()

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict:
        """This process's aggregates, with pending harvests folded in."""
        self.tally.finish()
        self._harvest_tracers()
        return {
            "self_ns": dict(self.self_ns),
            "spans": dict(self.spans),
            "counts": dict(self.counts, done_reads=self.done_reads[0]),
            "timer_ns": dict(self.timer_ns),
            "root_ns": self.root_ns,
            "clusters": list(self.tally.clusters),
            "telemetry_events": self.telemetry_events,
            "telemetry_dropped": self.telemetry_dropped,
        }

    def flush(self) -> None:
        """Worker side: write aggregates since the last flush."""
        self._flushes += 1
        path = os.path.join(self.span_dir,
                            f"agg-{os.getpid()}-{self._flushes}.json")
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle)
        self._reset()

    def collect(self) -> Dict:
        """Parent side: own aggregates merged with every worker flush."""
        total = self.snapshot()
        for entry in sorted(os.listdir(self.span_dir)):
            if entry.startswith("agg-"):
                with open(os.path.join(self.span_dir, entry)) as handle:
                    merge_aggregates(total, json.load(handle))
        return total

    def write_sample(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "parent", "layer", "name",
                                  "start_ns", "end_ns", "run_id"],
                       "spans": self.sample}, handle)


def _pickled_size(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def merge_aggregates(total: Dict, part: Dict) -> None:
    """Add one process's aggregates into ``total`` (in place)."""
    for key in ("self_ns", "spans", "counts", "timer_ns"):
        for name, value in part[key].items():
            if name == "pool_width":
                total[key][name] = max(total[key].get(name, 0), value)
            else:
                total[key][name] = total[key].get(name, 0) + value
    total["root_ns"] += part["root_ns"]
    total["clusters"].extend(part["clusters"])
    total["telemetry_events"] += part["telemetry_events"]
    total["telemetry_dropped"] += part["telemetry_dropped"]


def self_time_ns(spans) -> Dict[str, int]:
    """Reference self-time arithmetic over finished spans given as
    ``(id, parent, layer, start, end)``: each span's duration minus the
    duration of its direct children, summed per layer."""
    child_ns: Dict[int, int] = defaultdict(int)
    for _id, parent, _layer, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    totals: Dict[str, int] = defaultdict(int)
    for span_id, _parent, layer, start, end in spans:
        totals[layer] += end - start - child_ns[span_id]
    return dict(totals)


def layer_metrics(agg: Dict, traced_wall_s: float, untraced_wall_s: float,
                  pool_start_s: float) -> Dict[str, tuple]:
    """The per-layer metrics, as name -> (value, unit)."""
    self_ns = agg["self_ns"]
    counts = agg["counts"]
    timer_ns = agg["timer_ns"]
    clusters = agg["clusters"]

    def total(key: str) -> int:
        return sum(cluster[key] for cluster in clusters)

    def seconds(ns: int) -> float:
        return ns / 1e9

    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        name = "sim.future_self_s" if layer == "sim.future" \
            else f"{layer}.self_s"
        metrics[name] = (seconds(self_ns.get(layer, 0)), "s")
    offered = total("coalesced_rounds") + total("declined_rounds")
    busy_ns = timer_ns.get("worker_busy", 0)
    idle_ns = counts.get("pool_width", 0) * timer_ns.get("pool_wait", 0) \
        - busy_ns
    attributed = sum(value for layer, value in self_ns.items()
                     if layer not in (ROOT, OVERHEAD, CATCH_ALL))
    metrics.update({
        "sim.events_fired": (total("events_fired"), "count"),
        "sim.events_coalesced": (total("events_coalesced"), "count"),
        "sim.all_of_calls": (counts.get("all_of", 0), "count"),
        "sim.all_of_inputs": (counts.get("all_of_inputs", 0), "count"),
        "sim.future_done_reads": (counts.get("done_reads", 0), "count"),
        "transport.packets_handled": (total("rx_packets"), "count"),
        "transport.blind_rounds": (total("blind_rounds"), "count"),
        "transport.timeouts": (total("timeouts"), "count"),
        "transport.coalesce_hit_ratio": (
            total("coalesced_rounds") / offered if offered else 0.0,
            "ratio"),
        "transport.coalesce_offered": (offered, "count"),
        "transport.coalesce_declines": (total("declined_rounds"), "count"),
        "odp.client_faults": (total("client_faults"), "count"),
        "odp.server_faults": (total("server_faults"), "count"),
        "odp.retransmit_load_calls": (counts.get("retransmit_load", 0),
                                      "count"),
        "odp.status_resumes": (total("status_resumes"), "count"),
        "net.packets": (total("packets"), "count"),
        "net.bulk_books": (counts.get("bulk_books", 0), "count"),
        "verbs.setup_s": (seconds(timer_ns.get("verbs_setup", 0)), "s"),
        "verbs.qps_created": (total("qps"), "count"),
        "verbs.mrs_registered": (counts.get("mrs_registered", 0), "count"),
        "ucx.ops": (counts.get("ucx_ops", 0), "count"),
        "telemetry.events_traced": (agg["telemetry_events"], "count"),
        "telemetry.dropped": (agg["telemetry_dropped"], "count"),
        "telemetry.diagnose_s": (seconds(timer_ns.get("diagnose", 0)), "s"),
        "service.cells": (counts.get("cells", 0), "count"),
        "mitigate.pinned_pages": (counts.get("pins_installed", 0), "count"),
        "parallel.plan_s": (seconds(timer_ns.get("plan", 0)), "s"),
        "parallel.pool_start_s": (pool_start_s, "s"),
        "parallel.pickle_bytes": (counts.get("pickle_bytes", 0), "bytes"),
        "parallel.merge_s": (seconds(timer_ns.get("merge", 0)), "s"),
        "parallel.worker_busy_s": (seconds(busy_ns), "s"),
        "parallel.idle_s": (seconds(max(0, idle_ns)), "s"),
        "trace.overhead": (traced_wall_s / untraced_wall_s, "ratio"),
        "trace.coverage": (attributed / agg["root_ns"]
                           if agg["root_ns"] else 0.0, "ratio"),
    })
    return metrics
