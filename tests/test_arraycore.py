"""Array-native hot core: window-1 identity, fleet batching, reductions.

The array core is part of the one fast path (``coalesce=True``), whose
contract is *exact or decline*: every reported metric bit-identical to
the object-path run — the structured-array mirror and the fleet
batched-delivery sweeps only change wall clock.  The Figure 4 shape
and the window-16 Figure 9 shapes live in ``test_storm_coalesce``;
these tests cover the window-1 flood shapes where the fleet sweeps
carry the run, verify the fleet and its seeded sweeps actually engage,
audit the vectorized reductions against the object walk, and pin the
RNG-stream identity the sweep's inlined jitter relies on.
"""

import dataclasses
import random

import pytest

from tests.helpers import make_connected_pair  # noqa: F401 - import order
from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                    run_microbench)
from repro.ib.transport.arraycore import ArrayCore, cascade_times
from repro.sim.engine import Simulator
from repro.sim.timebase import MS
from repro.telemetry import Telemetry


def _metrics(result):
    """Every reported metric (the bit-identity surface).

    ``coalesced_rounds`` and ``events_coalesced`` describe how the run
    was executed, not what it measured, and legitimately differ.
    """
    d = dataclasses.asdict(result)
    d.pop("config")
    d.pop("coalesced_rounds")
    d.pop("events_coalesced")
    return d


def _flood_config(coalesce, num_qps=50, num_ops=512, size=400,
                  odp=OdpSetup.CLIENT, seed=50, telemetry=None):
    """A Figure 9-shaped flood point at window 1 — the shape where the
    array core's fleet sweeps carry the run."""
    return MicrobenchConfig(size=size, num_ops=num_ops, num_qps=num_qps,
                            odp=odp, cack=14,
                            min_rnr_timer_ns=round(1.28 * MS),
                            integrity=False, seed=seed, max_rd_atomic=1,
                            coalesce=coalesce, telemetry=telemetry)


class TestBitIdentity:
    @pytest.mark.parametrize("odp", [OdpSetup.CLIENT, OdpSetup.SERVER,
                                     OdpSetup.BOTH])
    def test_fig09_shapes(self, odp):
        """Window-1 flood points for each faulting side, fast path on
        vs off."""
        kwargs = dict(num_qps=50, num_ops=512) if odp is OdpSetup.CLIENT \
            else dict(num_qps=25, num_ops=256)
        off = run_microbench(_flood_config(False, odp=odp, **kwargs))
        on = run_microbench(_flood_config(True, odp=odp, **kwargs))
        assert _metrics(off) == _metrics(on)

    def test_fleet_and_seeded_sweeps_engage(self):
        """The identity above must come from the batched path actually
        running: the scalebench flood shape (default RNR timer, 4 ops
        per QP) has to produce fleet absorptions and seeded sweeps, not
        fall back to per-round replay throughout."""
        clusters = []
        cfg = MicrobenchConfig(size=400, num_ops=2048, num_qps=512,
                               interval_us=0.0, odp=OdpSetup.CLIENT,
                               integrity=False, seed=50, max_rd_atomic=1)
        result = run_microbench(cfg, on_cluster=clusters.append)
        fleet = seeds = 0
        for node in clusters[0].nodes:
            for qp in node.rnic._qps.values():
                fleet += qp.coalescer.fleet_rounds
                seeds += qp.coalescer.seed_rounds
        assert fleet > 0
        assert seeds > 0
        assert result.blind_retransmit_rounds > 0

    def test_telemetry_counters_and_fingerprint_unchanged(self):
        """An attached telemetry session forces per-packet delivery;
        fingerprints and the counter identity surface must match the
        object path exactly (same gate the telemetry smoke runs)."""
        streams = []
        for coalesce in (False, True):
            tel = Telemetry()
            result = run_microbench(
                _flood_config(coalesce, num_qps=10, num_ops=128,
                              telemetry=tel))
            streams.append((_metrics(result), tel.fingerprint(),
                            tel.counters().identity_surface()))
        assert streams[0] == streams[1]


class TestArrayTable:
    def _flood_cluster(self, **kwargs):
        clusters = []
        run_microbench(_flood_config(True, **kwargs),
                       on_cluster=clusters.append)
        return clusters[0]

    def test_rows_match_objects_after_flood(self):
        """After a full storm run every row still mirrors its QP — the
        write-through contract held across faults, retries, and sweeps."""
        cluster = self._flood_cluster(num_qps=10, num_ops=128)
        checked = 0
        for node in cluster.nodes:
            core = node.rnic.arraycore
            assert core is not None
            for qp in node.rnic._qps.values():
                assert core.verify_row(qp) == []
                checked += 1
        assert checked == 20

    def test_retransmit_load_audit_mode(self):
        """audit=True recomputes the object walk on every reduction and
        raises on divergence; a clean flood is the assertion."""
        clusters = []

        def arm_audit(cluster):
            clusters.append(cluster)
            for node in cluster.nodes:
                node.rnic.arraycore.audit = True

        run_microbench(_flood_config(True, num_qps=10, num_ops=128),
                       on_cluster=arm_audit)
        core = clusters[0].nodes[0].rnic.arraycore
        assert core.load_queries > 0

    def test_table_grows_past_capacity(self):
        """A one-row table must transparently grow as QPs register
        while keeping every earlier row intact."""
        clusters = []

        def tiny(cluster):
            clusters.append(cluster)
            for node in cluster.nodes:
                node.rnic.arraycore = ArrayCore(node.rnic, capacity=1)

        run_microbench(_flood_config(True, num_qps=8, num_ops=64),
                       on_cluster=tiny)
        for node in clusters[0].nodes:
            core = node.rnic.arraycore
            assert len(core) == 8
            for qp in node.rnic._qps.values():
                assert core.verify_row(qp) == []

    def test_view_is_plain_python(self):
        cluster = self._flood_cluster(num_qps=2, num_ops=8)
        core = cluster.nodes[0].rnic.arraycore
        qpn = next(iter(core.slot_of))
        view = core.view(qpn)
        assert view["qpn"] == qpn
        assert isinstance(view["pending"], int)
        assert view["state"] in ("normal", "rnr_wait", "odp_wait")


class _StubLink:
    """Minimal link shape for the cascade recurrence: fixed
    serialization cost per byte, propagation delay, busy horizon."""

    def __init__(self, ns_per_byte, propagation_ns, busy_until=0):
        self._ns_per_byte = ns_per_byte
        self.propagation_ns = propagation_ns
        self._busy_until = busy_until

    def serialization_ns(self, wire_bytes):
        return self._ns_per_byte * wire_bytes


def _scalar_cascade(enq, wires, tx_ns, up, down, forward_ns, rx_ns):
    """The per-packet recurrence, straight from the coalescer's scan:
    three serial resources, each ``b[i] = max(arrival, b[i-1]) + cost``."""
    drains, dispatches = [], []
    busy_up = up._busy_until
    busy_down = down._busy_until
    drain = None
    for when, wire in zip(enq, wires):
        drain = (when if drain is None else max(when, drain)) + tx_ns
        drains.append(drain)
        busy_up = max(drain, busy_up) + up.serialization_ns(wire)
        at_switch = busy_up + up.propagation_ns + forward_ns
        busy_down = max(at_switch, busy_down) + down.serialization_ns(wire)
        dispatches.append(busy_down + down.propagation_ns + rx_ns)
    return drains, dispatches, busy_up, busy_down


class TestCascadeTimes:
    def test_matches_scalar_recurrence(self):
        rng = random.Random(7)
        enq, t = [], 0
        for _ in range(200):
            t += rng.randrange(0, 300)
            enq.append(t)
        wires = [rng.randrange(40, 4096) for _ in enq]
        up = _StubLink(3, 500, busy_until=enq[0] + 17)
        down = _StubLink(5, 700, busy_until=enq[0] + 3)
        got = cascade_times(enq, wires, 110, up, down, 90, 250)
        want = _scalar_cascade(enq, wires, 110, up, down, 90, 250)
        assert got == tuple(want)

    def test_single_packet(self):
        up = _StubLink(2, 100)
        down = _StubLink(2, 100)
        got = cascade_times([1000], [64], 50, up, down, 30, 40)
        want = _scalar_cascade([1000], [64], 50, up, down, 30, 40)
        assert got == tuple(want)


class TestJitterStreamIdentity:
    """The fleet sweep inlines ``Simulator.jitter``'s rejection loop;
    both must consume the shared Mersenne stream identically — the
    engine docstring promises a test pins this."""

    def test_jitter_matches_randint_stream(self):
        for seed in (0, 7, 50):
            sim = Simulator(seed=seed)
            reference = random.Random(seed)
            for base in (1000, 12345, 999_983, 3, 10):
                spread = int(base * 0.1)
                if spread <= 0:
                    expect = base
                else:
                    expect = max(0, base + reference.randint(-spread,
                                                             spread))
                assert sim.jitter(base, 0.1) == expect

    def test_inlined_rejection_loop_matches_jitter(self):
        """The exact loop the sweep inlines (one getrandbits per
        accepted draw, rejection on overflow) against sim.jitter on a
        twin simulator."""
        sim = Simulator(seed=50)
        twin = Simulator(seed=50)
        getrandbits = twin.rng.getrandbits
        for base in (1000, 65536, 999_983, 123_456_789):
            spread = int(base * 0.1)
            width = 2 * spread + 1
            jbits = width.bit_length()
            r = getrandbits(jbits)
            while r >= width:
                r = getrandbits(jbits)
            period = base - spread + r
            if period < 0:
                period = 0
            assert sim.jitter(base, 0.1) == period
        # Streams stayed aligned: the next draw agrees too.
        assert sim.rng.getrandbits(32) == twin.rng.getrandbits(32)
