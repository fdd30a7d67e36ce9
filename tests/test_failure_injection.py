"""Failure-injection tests: loss, eviction storms, adversarial timing."""

import pytest

from repro.host.cluster import build_pair
from repro.ib.opcodes import Opcode
from repro.ib.verbs.enums import OdpMode, WcStatus
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest

from tests.helpers import executor_surface, make_connected_pair


def post_read(client, server, wr_id=1, offset=0, size=64):
    client.qp.post_send(WorkRequest.read(
        wr_id=wr_id, local=Sge(client.mr, client.buf.addr(offset), size),
        remote=RemoteAddr(server.buf.addr(offset), server.mr.rkey)))


class TestPacketLoss:
    def test_lost_request_recovers_via_timeout(self):
        cluster, client, server = make_connected_pair()
        dropped = []
        cluster.network.add_loss_rule(
            lambda pkt: pkt.opcode is Opcode.RDMA_READ_REQUEST
            and not dropped and not dropped.append(pkt))
        post_read(client, server)
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert client.qp.requester.timeouts == 1

    def test_lost_ack_recovers_for_write(self):
        cluster, client, server = make_connected_pair()
        client.buf.write(0, b"resilient")
        dropped = []
        cluster.network.add_loss_rule(
            lambda pkt: pkt.is_ack and not dropped
            and not dropped.append(pkt))
        client.qp.post_send(WorkRequest.write(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 9),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert server.buf.read(0, 9) == b"resilient"

    def test_repeated_loss_exhausts_retries(self):
        cluster, client, server = make_connected_pair(
            attrs=QpAttrs(cack=1, retry_count=2))
        cluster.network.add_loss_rule(
            lambda pkt: pkt.opcode is Opcode.RDMA_READ_REQUEST)
        post_read(client, server)
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.status is WcStatus.RETRY_EXC_ERR
        assert client.qp.requester.timeouts == 3  # retry_count + 1

    def test_loss_of_middle_write_segment(self):
        cluster, client, server = make_connected_pair(buf_size=4 * 4096)
        payload = bytes(i % 251 for i in range(6000))
        client.buf.write(0, payload)
        dropped = []
        cluster.network.add_loss_rule(
            lambda pkt: pkt.opcode is Opcode.RDMA_WRITE_MIDDLE
            and not dropped and not dropped.append(pkt))
        client.qp.post_send(WorkRequest.write(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), len(payload)),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        wc, = client.cq.poll(10)
        assert wc.ok
        assert server.buf.read(0, len(payload)) == payload


class TestEvictionStorms:
    def test_reclaim_during_odp_traffic_stays_correct(self):
        """Correct on both executors, and bit-identical between them."""
        runs = [self._reclaim_run(coalesce) for coalesce in (False, True)]
        assert runs[0] == runs[1]

    def _reclaim_run(self, coalesce):
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False, buf_size=16 * 4096,
            coalesce=coalesce)
        for page_index in range(8):
            server.buf.write(page_index * 4096, bytes([page_index]) * 64)
        # interleave reads with kernel reclaim of the server's pages
        for i in range(8):
            post_read(client, server, wr_id=i, offset=i * 4096, size=64)
            if i % 2 == 0:
                cluster.sim.schedule(
                    500_000 * i,
                    lambda: server.node.kernel.reclaim(server.node.vm, 2))
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(20)
        assert all(wc.ok for wc in wcs)
        for i in range(8):
            assert client.buf.read(i * 4096, 64) == bytes([i]) * 64
        return executor_surface(cluster, client, wcs)

    def test_invalidated_page_refaults_transparently(self):
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False)
        server.buf.write(0, b"evict me")
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        faults_before = server.node.driver.faults_served
        page = server.buf.pages()[0]
        server.node.vm.evict(page)
        cluster.sim.run_until_idle()
        post_read(client, server, wr_id=2, offset=256)
        cluster.sim.run_until_idle()
        assert server.node.driver.faults_served == faults_before + 1
        assert len(client.cq.poll(10)) == 2

    def test_view_purged_on_invalidation(self):
        # client-side views must not survive an invalidation
        cluster, client, server = make_connected_pair(
            client_odp=OdpMode.EXPLICIT, populate=False)
        server.buf.write(0, b"x" * 64)
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        page = client.buf.pages()[0]
        assert client.node.rnic.odp.requester_range_ready(
            client.qp.qpn, client.mr, client.buf.addr(0), 64)
        client.node.vm.evict(page)
        cluster.sim.run_until_idle()
        assert not client.node.rnic.odp.requester_range_ready(
            client.qp.qpn, client.mr, client.buf.addr(0), 64)
        # and traffic still works afterwards (re-fault + resume)
        post_read(client, server, wr_id=2)
        cluster.sim.run_until_idle()
        assert len(client.cq.poll(10)) == 2


class TestAdversarialTiming:
    def test_damming_window_boundary_is_probabilistic(self):
        """Near the window edge, trials split between dam and no-dam —
        the paper: the pitfalls are 'highly affected by the timing'."""
        from repro.bench.microbench import (MicrobenchConfig, OdpSetup,
                                            run_microbench)
        outcomes = set()
        for seed in range(12):
            result = run_microbench(MicrobenchConfig(
                num_ops=2, odp=OdpSetup.SERVER, interval_us=4500,
                min_rnr_timer_ns=1_280_000, seed=seed))
            outcomes.add(result.timed_out)
        assert outcomes == {True, False}

    def test_simultaneous_bidirectional_reads(self):
        cluster, client, server = make_connected_pair()
        client.buf.write(0, b"client data")
        server.buf.write(512, b"server data")
        server.qp.post_send(WorkRequest.read(
            wr_id=10, local=Sge(server.mr, server.buf.addr(0), 11),
            remote=RemoteAddr(client.buf.addr(0), client.mr.rkey)))
        client.qp.post_send(WorkRequest.read(
            wr_id=20, local=Sge(client.mr, client.buf.addr(512), 11),
            remote=RemoteAddr(server.buf.addr(512), server.mr.rkey)))
        cluster.sim.run_until_idle()
        assert client.cq.poll(10)[0].ok
        assert server.cq.poll(10)[0].ok
        assert server.buf.read(0, 11) == b"client data"
        assert client.buf.read(512, 11) == b"server data"
