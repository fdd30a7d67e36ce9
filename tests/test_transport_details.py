"""Focused tests of RC transport internals."""

import pytest

from repro.capture.sniffer import Sniffer
from repro.ib.opcodes import Opcode, Syndrome
from repro.ib.verbs.enums import OdpMode, WcStatus
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest

from tests.helpers import executor_surface, make_connected_pair


def post_read(client, server, wr_id=1, offset=0, size=64, signaled=True):
    client.qp.post_send(WorkRequest.read(
        wr_id=wr_id, local=Sge(client.mr, client.buf.addr(offset), size),
        remote=RemoteAddr(server.buf.addr(offset), server.mr.rkey),
        signaled=signaled))


class TestInitiatorDepth:
    def test_read_window_limits_outstanding_requests(self):
        cluster, client, server = make_connected_pair(
            attrs=QpAttrs(max_rd_atomic=4))
        sniffer = Sniffer(cluster.network)
        for i in range(12):
            post_read(client, server, wr_id=i, offset=i * 64)
        # before anything completes, only 4 requests may be on the wire
        cluster.sim.run(until=cluster.sim.now + 2_000)
        requests = [r for r in sniffer.records
                    if r.opcode is Opcode.RDMA_READ_REQUEST]
        assert len(requests) <= 4
        cluster.sim.run_until_idle()
        assert len(client.cq.poll(100)) == 12

    def test_window_refills_as_reads_complete(self):
        cluster, client, server = make_connected_pair(
            attrs=QpAttrs(max_rd_atomic=2))
        for i in range(6):
            post_read(client, server, wr_id=i, offset=i * 64)
        cluster.sim.run_until_idle()
        wcs = client.cq.poll(10)
        assert [wc.wr_id for wc in wcs] == list(range(6))


class TestTxArbitration:
    def test_round_robin_interleaves_qps(self):
        cluster, client, server = make_connected_pair()
        # second QP pair on the same nodes
        qp2 = client.pd.create_qp(client.cq)
        sqp2 = server.pd.create_qp(server.cq)
        qp2.connect(sqp2.info())
        sqp2.connect(qp2.info())
        sniffer = Sniffer(cluster.network)
        # enqueue 3 packets on each QP in one burst each
        for i in range(3):
            post_read(client, server, wr_id=i, offset=i * 64)
            qp2.post_send(WorkRequest.read(
                wr_id=100 + i, local=Sge(client.mr,
                                         client.buf.addr(1024 + i * 64), 64),
                remote=RemoteAddr(server.buf.addr(1024 + i * 64),
                                  server.mr.rkey)))
        cluster.sim.run_until_idle()
        first_six = [r.src_qpn for r in sniffer.records
                     if r.opcode is Opcode.RDMA_READ_REQUEST][:6]
        # strict alternation between the two QPs
        assert first_six[0] != first_six[1]
        assert first_six[:2] * 3 == first_six

    def test_load_stretch_grows_with_active_qps(self):
        cluster, client, server = make_connected_pair()
        rnic = client.node.rnic
        assert rnic.load_stretch() == 1.0
        qps = []
        for _ in range(100):
            qp = client.pd.create_qp(client.cq)
            sqp = server.pd.create_qp(server.cq)
            qp.connect(sqp.info())
            sqp.connect(qp.info())
            qps.append(qp)
        for i, qp in enumerate(qps):
            qp.post_send(WorkRequest.read(
                wr_id=i, local=Sge(client.mr, client.buf.addr(i * 8), 8),
                remote=RemoteAddr(server.buf.addr(i * 8), server.mr.rkey)))
        stretch = rnic.load_stretch()
        assert stretch > 1.3
        cluster.sim.run_until_idle()
        assert rnic.load_stretch() == 1.0  # back to idle


class TestNakBehaviour:
    def test_seq_nak_sent_once_until_progress(self):
        cluster, client, server = make_connected_pair()
        sniffer = Sniffer(cluster.network)
        # inject an out-of-window request by dropping one request packet
        dropped = []

        def drop_first_request(pkt):
            if (pkt.opcode is Opcode.RDMA_READ_REQUEST and not dropped
                    and not pkt.retransmission):
                dropped.append(pkt)
                return True
            return False

        cluster.network.add_loss_rule(drop_first_request)
        post_read(client, server, wr_id=1, offset=0)
        post_read(client, server, wr_id=2, offset=64)
        cluster.sim.run_until_idle()
        seq_naks = [r for r in sniffer.records if r.is_seq_nak]
        assert len(seq_naks) == 1  # suppressed until ePSN advances
        assert len(client.cq.poll(10)) == 2  # both recovered

    def test_rnr_wait_discards_read_responses(self):
        # Figure 1 left: responses during the RNR delay are discarded
        # (on both executors, bit-identically)
        runs = []
        for coalesce in (False, True):
            cluster, client, server = make_connected_pair(
                server_odp=OdpMode.EXPLICIT, populate=False,
                coalesce=coalesce)
            post_read(client, server, wr_id=1, offset=0)
            post_read(client, server, wr_id=2, offset=64)  # same page
            cluster.sim.run_until_idle()
            wcs = client.cq.poll(10)
            assert len(wcs) == 2
            runs.append(executor_surface(cluster, client, wcs))
        assert runs[0] == runs[1]

    def test_duplicate_read_request_is_reexecuted(self):
        cluster, client, server = make_connected_pair()
        sniffer = Sniffer(cluster.network)
        # drop the first response so the request is retransmitted
        dropped = []

        def drop_first_response(pkt):
            if pkt.is_read_response and not dropped:
                dropped.append(pkt)
                return True
            return False

        cluster.network.add_loss_rule(drop_first_response)
        post_read(client, server, wr_id=1)
        cluster.sim.run_until_idle()
        responses = [r for r in sniffer.records
                     if r.opcode is Opcode.RDMA_READ_RESPONSE_ONLY]
        assert len(responses) >= 2  # original (dropped) + replay
        wc, = client.cq.poll(10)
        assert wc.ok


class TestCompletionSemantics:
    def test_wr_ids_preserved_out_of_numeric_order(self):
        cluster, client, server = make_connected_pair()
        for wr_id in (42, 7, 1000):
            post_read(client, server, wr_id=wr_id, offset=wr_id % 512)
        cluster.sim.run_until_idle()
        assert [wc.wr_id for wc in client.cq.poll(10)] == [42, 7, 1000]

    def test_mixed_read_write_ordering(self):
        cluster, client, server = make_connected_pair()
        client.buf.write(0, b"w" * 32)
        client.qp.post_send(WorkRequest.write(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 32),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        post_read(client, server, wr_id=2, offset=64)
        client.qp.post_send(WorkRequest.write(
            wr_id=3, local=Sge(client.mr, client.buf.addr(128), 32),
            remote=RemoteAddr(server.buf.addr(128), server.mr.rkey)))
        cluster.sim.run_until_idle()
        assert [wc.wr_id for wc in client.cq.poll(10)] == [1, 2, 3]

    def test_cq_wait_future(self):
        cluster, client, server = make_connected_pair()
        waiter = client.cq.wait(2)
        post_read(client, server, wr_id=1)
        post_read(client, server, wr_id=2, offset=64)
        cluster.sim.run_until_idle()
        assert waiter.done
        assert [wc.wr_id for wc in waiter.result] == [1, 2]

    def test_cq_capacity_overflow_counted(self):
        from repro.ib.verbs.cq import CompletionQueue
        from repro.ib.verbs.wr import WorkCompletion
        from repro.ib.verbs.enums import WcOpcode
        from repro.sim.engine import Simulator

        cq = CompletionQueue(Simulator(), cqn=1, capacity=2)
        for i in range(4):
            cq.push(WorkCompletion(i, WcStatus.SUCCESS, WcOpcode.SEND,
                                   0, 1, 0))
        assert cq.depth == 2
        assert cq.overflows == 2
