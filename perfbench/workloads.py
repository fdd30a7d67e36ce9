"""The benchmark's workloads: inputs from a seed, one run, one digest.

Each workload is a batch job a user of the simulator runs to completion:

* ``flood``   -- the client-side-ODP, 200-QP cell of Fig. 9 as
  ``run_figure9(scale=2)`` defines it (4096 x 200-byte READs, C_ACK 14,
  min RNR 1.28 ms, lazy payloads, default executor), in-process.  It is
  the hot loop of the transport, ODP, coalescer, fabric and engine
  dispatch; no UCX, no telemetry, no pool.
* ``spark``   -- the Table 13 cell SparkTC / KNL (2), 411 QPs: the
  ODP-off job then the ODP-on job, in-process.  It exercises the
  UCX/Spark stack, verbs set-up of 2 x 411 QPs and ODP fault aggregates
  through ``sim.future.all_of``.
* ``tenants`` -- the tenant interference matrix (solo/none/mitigated)
  over ``noisy_neighbor_mix()`` replicated to 8 copies, run as a fleet
  on a two-worker pool.  It is the only workload with telemetry on
  every cell, the per-packet transport path, SEND/UD traffic, pinned
  tenants beside ODP ones, dynamic-pin, and the shard
  plan/pickle/pool/merge layer.

``prepare(seed)`` does the set-up a user pays before the first result
(imports, input generation, worker-pool start) and returns a
:class:`Prepared` whose ``run`` is the timed call into ``repro``.
Simulated statistics are deterministic, so they form the correctness
digest rather than speed metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

#: Worker processes per workload: in-process ones run with 1.
JOBS = {"flood": 1, "spark": 1, "tenants": 2}

# Half the paper's operation count keeps a repetition near 5 s, so a
# run takes the median of several (see run.py).
FLOOD_QPS = 200
FLOOD_SCALE = 2
SPARK_CELL = ("SparkTC", "KNL (2)")
TENANT_COPIES = 8


@dataclass
class Outcome:
    """What one run produced: a digest of its simulated outputs, the
    simulated packet count, and the RDMA operations posted and failed."""

    digest: str
    packets: int
    attempted: int
    failed: int
    #: workload-specific figures printed in the report (not metrics).
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Prepared:
    """A workload after set-up: ``run`` is the timed call, ``close``
    releases what set-up started (the tenants' worker pool)."""

    run: Callable[[], Outcome]
    close: Callable[[], None] = lambda: None
    pool_start_s: float = 0.0


def digest(fields) -> str:
    """Canonical SHA-256 of a JSON-able structure of simulated outputs."""
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class ClusterTally:
    """Harvests simulated counters from every cluster a run builds.

    ``observe`` is called with each freshly built cluster; the previous
    one has finished by then, so it is harvested and released at once
    (holding every cluster of a run would inflate peak memory).
    ``finish`` harvests the last one.
    """

    def __init__(self):
        self.clusters: List[Dict[str, int]] = []
        self._pending = None

    def observe(self, cluster) -> None:
        self.finish()
        self._pending = cluster

    def finish(self) -> List[Dict[str, int]]:
        if self._pending is not None:
            self.clusters.append(harvest_cluster(self._pending))
            self._pending = None
        return self.clusters


def harvest_cluster(cluster) -> Dict[str, int]:
    """Per-cluster simulated totals, read after the cluster's run."""
    rnics = [node.rnic for node in cluster.nodes]
    # ``Rnic._qps`` is the device's QP table; the telemetry counter
    # harvest reads it the same way.
    qps = [qp for rnic in rnics for qp in rnic._qps.values()]  # noqa: SLF001
    requesters = [qp.requester for qp in qps if hasattr(qp, "requester")]
    coalescers = [qp.coalescer for qp in qps
                  if getattr(qp, "coalescer", None) is not None]
    cqs = [cq for rnic in rnics for cq in rnic.cqs]
    return {
        "packets": cluster.total_packets(),
        "completions": sum(cq.total_completions for cq in cqs),
        "cq_overflows": sum(cq.overflows for cq in cqs),
        "timeouts": sum(req.timeouts for req in requesters),
        "blind_rounds": sum(req.blind_retransmit_rounds
                            for req in requesters),
        "rx_packets": sum(rnic.stats["rx_packets"] for rnic in rnics),
        "client_faults": sum(rnic.odp.client_faults for rnic in rnics),
        "server_faults": sum(rnic.odp.server_faults for rnic in rnics),
        "status_resumes": sum(rnic.status_engine.resumes_done
                              for rnic in rnics),
        "coalesced_rounds": sum(c.rounds_coalesced for c in coalescers),
        "declined_rounds": sum(c.declined_rounds for c in coalescers),
        "qps": len(qps),
        "events_fired": cluster.sim.events_fired,
        "events_coalesced": cluster.sim.events_coalesced,
    }


# ----------------------------------------------------------------------
# flood
# ----------------------------------------------------------------------

def prepare_flood(seed: int) -> Prepared:
    from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                        run_microbench)
    from repro.experiments.fig09_flood import (PAPER_NUM_OPS, PAPER_SIZE,
                                               point_seed)
    from repro.sim.timebase import MS

    # run_figure9's down-scaling rule: size grows as ops shrink, so the
    # buffer keeps its 200 pages; C_ACK 14 below paper scale.
    config = MicrobenchConfig(
        size=PAPER_SIZE * FLOOD_SCALE, num_ops=PAPER_NUM_OPS // FLOOD_SCALE,
        num_qps=FLOOD_QPS, odp=OdpSetup.CLIENT, cack=14,
        min_rnr_timer_ns=round(1.28 * MS), integrity=False,
        seed=point_seed(seed, OdpSetup.CLIENT, FLOOD_QPS))

    def run() -> Outcome:
        result = run_microbench(config)
        fields = {
            "packets": result.total_packets,
            "execution_ns": result.execution_time_ns,
            "timeouts": result.timeouts,
            "blind_rounds": result.blind_retransmit_rounds,
            "client_faults": result.client_page_faults,
            "server_faults": result.server_page_faults,
        }
        missing = config.num_ops - len(result.completions)
        failed = result.errors + result.integrity_errors + missing
        return Outcome(digest(fields), result.total_packets,
                       config.num_ops, failed)

    return Prepared(run)


# ----------------------------------------------------------------------
# spark
# ----------------------------------------------------------------------

def tab13_ratio_err(ratio: float, paper_ratio: float) -> float:
    """|simulated ODP-on/off ratio - paper ratio| / paper ratio."""
    return abs(ratio - paper_ratio) / paper_ratio


def prepare_spark(seed: int) -> Prepared:
    from repro.apps.spark.benchmark import run_spark_cell
    from repro.apps.spark.workloads import get_cell
    from repro.host.cluster import Cluster

    cell = get_cell(*SPARK_CELL)

    def run() -> Outcome:
        # The cell result carries times, packets and ODP-on timeouts;
        # completions and ODP-off timeouts are read from the two job
        # clusters through the public per-cluster hook.
        tally = ClusterTally()
        Cluster.instrument = tally.observe
        try:
            result = run_spark_cell(cell, seed=seed)
        finally:
            Cluster.instrument = None
        jobs = tally.finish()
        if len(jobs) != 2:
            raise RuntimeError(f"expected 2 Spark jobs, saw {len(jobs)}")
        disable, enable = jobs
        fields = {
            "disable": {"time_s": repr(result.disable_s),
                        "packets": result.disable_packets,
                        "timeouts": disable["timeouts"],
                        "completions": disable["completions"]},
            "enable": {"time_s": repr(result.enable_s),
                       "packets": result.enable_packets,
                       "timeouts": result.enable_timeouts,
                       "completions": enable["completions"]},
        }
        attempted = sum(job["completions"] + job["cq_overflows"]
                        for job in jobs)
        failed = sum(job["cq_overflows"] for job in jobs)
        return Outcome(
            digest(fields),
            result.disable_packets + result.enable_packets,
            attempted, failed,
            {"tab13_ratio": result.ratio,
             "tab13_ratio_err": tab13_ratio_err(result.ratio,
                                                cell.paper_ratio)})

    return Prepared(run)


# ----------------------------------------------------------------------
# tenants
# ----------------------------------------------------------------------

def prepare_tenants(seed: int) -> Prepared:
    from repro.experiments import runner
    from repro.service.interference import (noisy_neighbor_mix,
                                            run_tenant_matrix)

    jobs = JOBS["tenants"]
    mix = noisy_neighbor_mix()
    stack = contextlib.ExitStack()
    session = stack.enter_context(runner.sweep_session(processes=jobs))
    start = time.perf_counter()
    pool = session.executor(jobs)
    for future in [pool.submit(os.getpid) for _ in range(jobs)]:
        future.result()
    pool_start_s = time.perf_counter() - start

    def run() -> Outcome:
        report = run_tenant_matrix(mix=mix, seed=seed,
                                   copies=TENANT_COPIES, shards=jobs)
        base_names = {spec.name for spec in mix}
        attempted = failed = packets = 0
        fingerprints = {}
        for name, cell in report.runs.items():
            packets += cell.total_packets
            fingerprints[name] = cell.fingerprint
            # copy 0 is also folded back under the base names; count
            # each tenant once
            for tenant_name, tenant in cell.tenants.items():
                if tenant_name not in base_names:
                    attempted += tenant.ops
                    failed += tenant.errors
        fields = {"render": report.render(), "fingerprints": fingerprints}
        return Outcome(digest(fields), packets, attempted, failed)

    return Prepared(run, stack.close, pool_start_s)


PREPARE = {
    "flood": prepare_flood,
    "spark": prepare_spark,
    "tenants": prepare_tenants,
}
