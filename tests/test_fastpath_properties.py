"""Differential property test: the fast path against the object path.

Hypothesis draws micro-benchmark configurations across every axis the
fast path branches on — QP count, operation count, which side takes ODP
faults, ``C_ACK``, initiator depth, the mitigation strategy (including
the one that declines the fast path) and the seed — and runs each twice:
``coalesce=False`` (the object path, the reference executor) and
``coalesce=True`` (storm coalescer, array core and bulk delivery).  Every
reported metric must be bit-identical, and the invariant monitor must
stay clean on both runs.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                    run_microbench)
from repro.ib.validate import InvariantMonitor
from repro.mitigate import STRATEGIES
from repro.sim.timebase import MS


def _metrics(result):
    """The reported metrics.  Execution-shape bookkeeping (rounds
    coalesced, events skipped, fast-path fallbacks) legitimately differs
    between the executors."""
    d = dataclasses.asdict(result)
    for key in ("config", "coalesced_rounds", "events_coalesced",
                "mitigation_fallbacks"):
        d.pop(key)
    return d


def _run_both(config):
    """Run ``config`` on both executors with the invariant monitor armed;
    return the two metric surfaces."""
    surfaces = []
    for coalesce in (False, True):
        monitors = []
        result = run_microbench(
            dataclasses.replace(config, coalesce=coalesce),
            on_cluster=lambda cluster: monitors.append(
                InvariantMonitor(cluster)))
        monitors[0].assert_clean()
        surfaces.append(_metrics(result))
    return surfaces


configs = st.builds(
    MicrobenchConfig,
    size=st.just(400),
    num_qps=st.integers(min_value=1, max_value=16),
    num_ops=st.integers(min_value=1, max_value=256),
    odp=st.sampled_from(list(OdpSetup)),
    cack=st.integers(min_value=1, max_value=16),
    max_rd_atomic=st.sampled_from([1, 16]),
    mitigation=st.sampled_from(sorted(STRATEGIES)),
    integrity=st.booleans(),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    min_rnr_timer_ns=st.just(round(1.28 * MS)),
)


#: A client-ODP flood deep enough that blind rounds, joint rounds and
#: fleet sweeps all engage (it is larger than the random draws, which
#: rarely reach the fleet sweeps): every run covers the fast path's
#: closed forms, however the draws fall.  A small flood under the
#: fast-path incompatible strategy pins the decline.
_FLOOD = MicrobenchConfig(size=400, num_qps=50, num_ops=512,
                          odp=OdpSetup.CLIENT, cack=14, integrity=False,
                          seed=50, min_rnr_timer_ns=round(1.28 * MS))


class TestFastPathMatchesObjectPath:
    @settings(max_examples=40, deadline=None)
    @given(configs)
    @example(_FLOOD)
    @example(dataclasses.replace(_FLOOD, num_qps=16, num_ops=256,
                                 max_rd_atomic=1, odp=OdpSetup.BOTH))
    @example(dataclasses.replace(_FLOOD, num_qps=8, num_ops=64, seed=0,
                                 mitigation="selective-retransmit"))
    def test_bit_identical_with_monitor_clean(self, config):
        reference, fast = _run_both(config)
        assert fast == reference

    def test_pinned_flood_engages_the_fast_path(self):
        """The pinned flood must actually run every closed form, or the
        property could pass on the per-packet path alone."""
        clusters = []
        result = run_microbench(_FLOOD, on_cluster=clusters.append)
        coalescers = [qp.coalescer for node in clusters[0].nodes
                      for qp in node.rnic._qps.values()]
        assert result.coalesced_rounds > 0
        assert sum(c.joint_rounds for c in coalescers) > 0
        assert sum(c.fleet_rounds for c in coalescers) > 0
