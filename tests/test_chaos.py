"""Chaos-injection subsystem: plans, fault kinds, determinism, fabric
drop paths, and duplicate/reorder robustness of the responder."""

import pytest

from repro.chaos import (ChaosEngine, ChaosPlan, FaultKind, FaultWindow,
                         flap_and_loss_plan)
from repro.ib.opcodes import Opcode
from repro.ib.verbs.enums import OdpMode
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest
from repro.sim.timebase import MS, US

from tests.helpers import executor_surface, make_connected_pair


def post_read(client, server, wr_id=1, offset=0, size=64):
    client.qp.post_send(WorkRequest.read(
        wr_id=wr_id, local=Sge(client.mr, client.buf.addr(offset), size),
        remote=RemoteAddr(server.buf.addr(offset), server.mr.rkey)))


def install(cluster, *windows, seed=0):
    return ChaosEngine(cluster, ChaosPlan(list(windows)), seed=seed).install()


class TestPlanValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan([])

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            FaultWindow(100, 100, FaultKind.DROP)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            FaultWindow(0, 100, FaultKind.DROP, probability=1.5)

    def test_reorder_needs_magnitude(self):
        with pytest.raises(ValueError):
            FaultWindow(0, 100, FaultKind.REORDER)

    def test_scoped_kinds_need_lids(self):
        with pytest.raises(ValueError):
            FaultWindow(0, 100, FaultKind.LID_CHURN)
        with pytest.raises(ValueError):
            FaultWindow(0, 100, FaultKind.EVICTION_STORM, lids=(1,))

    def test_flap_and_loss_layout(self):
        plan = flap_and_loss_plan()
        kinds = [w.kind for w in plan]
        assert kinds == [FaultKind.DROP, FaultKind.LINK_FLAP]
        assert plan.horizon == max(w.end for w in plan)

    def test_double_install_rejected(self):
        cluster, _, _ = make_connected_pair()
        engine = install(cluster, FaultWindow(0, MS, FaultKind.DROP))
        with pytest.raises(RuntimeError):
            engine.install()
        with pytest.raises(RuntimeError):
            install(cluster, FaultWindow(0, MS, FaultKind.DROP))


class TestPacketFaults:
    def test_full_loss_window_recovers_by_timeout(self):
        cluster, client, server = make_connected_pair()
        engine = install(cluster,
                         FaultWindow(0, 2 * MS, FaultKind.DROP,
                                     probability=1.0))
        post_read(client, server)
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert client.qp.requester.timeouts >= 1
        assert engine.stats["drop"] >= 1
        assert any(d.reason == "chaos_drop" for d in cluster.network.drops)

    def test_corrupted_packets_die_at_receiver_icrc(self):
        cluster, client, server = make_connected_pair()
        install(cluster,
                FaultWindow(0, 50 * US, FaultKind.CORRUPT, probability=1.0))
        post_read(client, server)
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok  # retransmission after the window is clean
        assert sum(s.icrc_drops
                   for s in cluster.network.stats.values()) >= 1
        assert any(d.reason == "icrc" for d in cluster.network.drops)

    def test_duplicate_window_is_harmless(self):
        cluster, client, server = make_connected_pair()
        server.buf.write(0, bytes(range(64)))
        install(cluster,
                FaultWindow(0, 10 * MS, FaultKind.DUPLICATE,
                            probability=1.0))
        for i in range(4):
            post_read(client, server, wr_id=i, offset=i * 64)
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(10)
        assert len(wcs) == 4 and all(wc.ok for wc in wcs)
        assert server.qp.responder.duplicates_serviced >= 1
        assert client.buf.read(0, 64) == bytes(range(64))

    def test_reorder_window_recovers(self):
        cluster, client, server = make_connected_pair()
        payload = bytes(i % 251 for i in range(256))
        for i in range(6):
            server.buf.write(i * 256, payload)
        install(cluster,
                FaultWindow(0, 10 * MS, FaultKind.REORDER,
                            probability=0.5, magnitude_ns=20 * US))
        for i in range(6):
            post_read(client, server, wr_id=i, offset=i * 256, size=256)
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(10)
        assert len(wcs) == 6 and all(wc.ok for wc in wcs)
        for i in range(6):
            assert client.buf.read(i * 256, 256) == payload


class TestTopologyFaults:
    def test_link_flap_drops_inflight_and_recovers(self):
        cluster, client, server = make_connected_pair(buf_size=64 * 1024)
        size = 32 * 1024
        server.buf.write(0, bytes(i % 256 for i in range(size)))
        # The 32 KiB response stream is on the wire from roughly 2 us to
        # 15 us; a flap on the client's link at 5 us lands mid-stream,
        # so tracked in-flight segments drain.
        engine = install(cluster,
                         FaultWindow(5 * US, 300 * US, FaultKind.LINK_FLAP,
                                     lids=(client.node.lid,)))
        post_read(client, server, wr_id=1, size=size)
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert client.qp.requester.timeouts >= 1
        assert engine.stats.get("link_down", 0) >= 1
        assert any(d.reason == "link_down" for d in cluster.network.drops)
        assert client.buf.read(0, size) == server.buf.read(0, size)

    def test_lid_churn_detaches_and_recovers(self):
        cluster, client, server = make_connected_pair()
        engine = install(cluster,
                         FaultWindow(0, MS, FaultKind.LID_CHURN,
                                     lids=(server.node.lid,)))
        post_read(client, server)
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert cluster.network.switch.dropped_unknown_lid >= 1
        assert engine.stats["lid_detached"] == 1
        assert engine.stats["lid_reattached"] == 1
        assert cluster.network.switch.knows(server.node.lid)

    def test_firmware_pause_backlogs_rx(self):
        cluster, client, server = make_connected_pair()
        install(cluster,
                FaultWindow(0, 200 * US, FaultKind.FIRMWARE_PAUSE,
                            lids=(server.node.lid,)))
        backlog_seen = []
        cluster.sim.at(100 * US, lambda: backlog_seen.append(
            len(server.node.rnic._rx_backlog)))  # noqa: SLF001
        post_read(client, server)
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert backlog_seen == [1]  # request parked while paused
        assert wc.completed_at > 200 * US  # serviced only after resume
        assert client.qp.requester.timeouts == 0  # resumed under timeout

    def test_eviction_storm_forces_refaults(self):
        """Correct on both executors, and bit-identical between them."""
        runs = [self._eviction_storm(coalesce) for coalesce in (False, True)]
        assert runs[0] == runs[1]

    def _eviction_storm(self, coalesce):
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False,
            buf_size=16 * 4096, coalesce=coalesce)
        for i in range(8):
            server.buf.write(i * 4096, bytes([i + 1]) * 64)
        engine = install(cluster,
                         FaultWindow(0, 2 * MS, FaultKind.EVICTION_STORM,
                                     lids=(server.node.lid,),
                                     period_ns=100 * US, pages=2))
        for i in range(8):
            post_read(client, server, wr_id=i, offset=i * 4096)
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(20)
        assert len(wcs) == 8 and all(wc.ok for wc in wcs)
        assert engine.stats["evict"] >= 1
        for i in range(8):
            assert client.buf.read(i * 4096, 64) == bytes([i + 1]) * 64
        return executor_surface(cluster, client, wcs), dict(engine.stats)

    def test_latency_window_inflates_completion(self):
        cluster, client, server = make_connected_pair()
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        baseline = client.cq.poll(10)[0].completed_at

        cluster, client, server = make_connected_pair()
        install(cluster,
                FaultWindow(0, 10 * MS, FaultKind.LATENCY,
                            lids=(server.node.lid,), magnitude_ns=MS))
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        delayed = client.cq.poll(10)[0].completed_at
        # +1 ms into the server, +1 ms out of it.
        assert delayed >= baseline + 2 * MS


def _drop_scenario(cluster_seed, chaos_seed):
    cluster, client, server = make_connected_pair(seed=cluster_seed)
    engine = install(cluster,
                     FaultWindow(0, 5 * MS, FaultKind.DROP,
                                 probability=0.5),
                     seed=chaos_seed)
    for i in range(8):
        post_read(client, server, wr_id=i, offset=i * 64)
    cluster.sim.run_until_idle()
    statuses = tuple(wc.status for wc in client.cq.poll(20))
    return engine.fingerprint(), engine.drop_log(), statuses


class TestDeterminism:
    def test_same_plan_and_seed_reproduce_bitwise(self):
        assert _drop_scenario(3, 7) == _drop_scenario(3, 7)

    def test_chaos_seed_changes_draws(self):
        fp_a, _, _ = _drop_scenario(3, 7)
        fp_b, _, _ = _drop_scenario(3, 8)
        assert fp_a != fp_b

    def test_requires_real_only_inside_window(self):
        cluster, client, server = make_connected_pair()
        install(cluster,
                FaultWindow(100 * US, 200 * US, FaultKind.DROP,
                            lids=(server.node.lid,)))
        probes = []
        pair = (client.node.lid, server.node.lid)
        for when in (50 * US, 150 * US, 250 * US):
            cluster.sim.at(when, lambda: probes.append(
                cluster.network.requires_real(*pair)))
        cluster.sim.run_until_idle()
        assert probes == [False, True, False]

    def test_smoke_gates_pass(self):
        from repro.chaos.smoke import run_chaos_smoke
        out = run_chaos_smoke(seed=3, fast=True)
        assert "all chaos smoke gates passed" in out


class TestLossRuleHandles:
    def test_handle_removal_restores_traffic(self):
        cluster, client, server = make_connected_pair()
        network = cluster.network
        dropped = []
        rule = network.add_loss_rule(
            lambda pkt: pkt.opcode is Opcode.RDMA_READ_REQUEST
            and not dropped and not dropped.append(pkt))
        assert network.requires_real(client.node.lid, server.node.lid)
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        assert client.cq.poll(10)[0].ok
        assert len(network.drops) == 1

        network.remove_loss_rule(rule)
        assert not network.requires_real(client.node.lid, server.node.lid)
        network.remove_loss_rule(rule)  # double removal is a no-op
        dropped.clear()
        post_read(client, server, wr_id=2)
        cluster.sim.run_until_idle()
        assert client.cq.poll(10)[0].ok
        assert len(network.drops) == 1  # removed rule never fired again


class TestSwitchDropPath:
    def test_unknown_lid_counts_and_records(self):
        cluster, client, server = make_connected_pair()
        network = cluster.network
        network.detach_lid(server.node.lid)
        post_read(client, server)
        cluster.sim.run(until=1 * MS)
        assert network.switch.dropped_unknown_lid == 1
        assert any(d.reason == "unknown_lid" for d in network.drops)
        network.reattach_lid(server.node.lid)
        cluster.sim.run_until_idle()
        assert client.cq.poll(10)[0].ok  # timeout retransmit recovered

    def test_mid_flight_detach_drops_at_forward(self):
        cluster, client, server = make_connected_pair()
        network = cluster.network
        sim = cluster.sim
        armed = []

        def tap(time_ns, src_lid, pkt):
            # The request reaches the switch ~500 ns after injection and
            # forwards 200 ns later; a detach in between catches it
            # mid-switch.
            if pkt.opcode is Opcode.RDMA_READ_REQUEST and not armed:
                armed.append(True)
                sim.schedule(600, network.detach_lid, server.node.lid)
                sim.schedule(100 * US, network.reattach_lid,
                             server.node.lid)

        network.add_tap(tap)
        post_read(client, server)
        cluster.sim.run_until_idle()
        assert network.switch.dropped_unknown_lid == 1
        assert any(d.reason == "unknown_lid" for d in network.drops)
        assert client.cq.poll(10)[0].ok

    def test_reattach_unknown_lid_rejected(self):
        cluster, _, _ = make_connected_pair()
        with pytest.raises(ValueError):
            cluster.network.reattach_lid(99)


class TestResponderDuplicates:
    def test_duplicate_read_is_byte_identical(self):
        cluster, client, server = make_connected_pair()
        pattern = bytes(i % 251 for i in range(64))
        server.buf.write(0, pattern)
        captured = {}
        responses = []

        def tap(time_ns, src_lid, pkt):
            if pkt.opcode is Opcode.RDMA_READ_REQUEST \
                    and "req" not in captured:
                captured["req"] = pkt
            if pkt.is_read_response:
                responses.append(bytes(pkt.payload))

        cluster.network.add_tap(tap)
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        assert client.cq.poll(10)[0].ok
        first = list(responses)
        assert first and first[0] == pattern

        # Replay the request: a network-level duplicate.  The spec says
        # the responder re-executes duplicate READs; the replayed bytes
        # must match the original service exactly.
        cluster.network.inject(client.node.lid, captured["req"])
        cluster.sim.run_until_idle()
        assert responses[len(first):] == first
        assert server.qp.responder.duplicates_serviced == 1

    def test_duplicate_write_does_not_remutate(self):
        cluster, client, server = make_connected_pair()
        client.buf.write(0, b"A" * 32)
        captured = {}

        def tap(time_ns, src_lid, pkt):
            if pkt.opcode is Opcode.RDMA_WRITE_ONLY \
                    and "req" not in captured:
                captured["req"] = pkt

        cluster.network.add_tap(tap)
        client.qp.post_send(WorkRequest.write(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 32),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        assert client.cq.poll(10)[0].ok
        assert server.buf.read(0, 32) == b"A" * 32

        # Local mutation after the WRITE landed; a duplicate of the old
        # WRITE must be ACKed without re-executing the stale payload.
        server.buf.write(0, b"B" * 32)
        cluster.network.inject(client.node.lid, captured["req"])
        cluster.sim.run_until_idle()
        assert server.buf.read(0, 32) == b"B" * 32
        assert server.qp.responder.duplicates_serviced == 1
