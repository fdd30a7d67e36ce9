"""Tests of the ODP machinery against the paper's Section IV observations."""

import pytest

from repro.bench.microbench import MicrobenchConfig, OdpSetup, run_microbench
from repro.host.cluster import build_pair
from repro.host.memory import PAGE_SIZE
from repro.ib.device import get_device
from repro.ib.verbs.enums import Access, OdpMode, WcStatus
from repro.ib.verbs.qp import QpAttrs
from repro.ib.verbs.wr import RemoteAddr, Sge, WorkRequest
from repro.sim.timebase import MS, US

from tests.helpers import make_connected_pair


def single_read(odp: OdpSetup, seed: int = 0) -> "MicrobenchResult":
    config = MicrobenchConfig(num_ops=1, odp=odp,
                              min_rnr_timer_ns=round(1.28 * MS), seed=seed)
    return run_microbench(config)


class TestServerSideOdp:
    def test_single_read_completes_after_rnr_delay(self):
        result = single_read(OdpSetup.SERVER)
        # Figure 1 (left): RNR NAK, then ~4.5 ms wait, then retransmission.
        assert result.rnr_naks >= 1
        assert result.server_page_faults >= 1
        assert result.timeouts == 0
        assert 3 * MS < result.execution_time_ns < 7 * MS

    def test_request_is_retransmitted_after_rnr(self):
        result = single_read(OdpSetup.SERVER)
        # original + at least one retransmission of the request
        assert result.total_packets >= 4  # req, RNR NAK, req(retx), resp

    def test_no_faults_with_pinned_memory(self):
        result = single_read(OdpSetup.NONE)
        assert result.server_page_faults == 0
        assert result.client_page_faults == 0
        assert result.rnr_naks == 0
        assert result.execution_time_ns < 100 * US


class TestClientSideOdp:
    def test_single_read_completes_after_fault_resolution(self):
        result = single_read(OdpSetup.CLIENT)
        # Figure 1 (right): response discarded, fault raised, blind
        # retransmission every ~0.5 ms until the page status is fresh.
        assert result.client_page_faults >= 1
        assert result.responses_discarded_odp >= 1
        assert result.timeouts == 0
        assert 400 * US < result.execution_time_ns < 3 * MS

    def test_blind_retransmission_period(self):
        result = single_read(OdpSetup.CLIENT)
        assert result.blind_retransmit_rounds >= 1

    def test_no_rnr_nak_in_client_side_odp(self):
        result = single_read(OdpSetup.CLIENT)
        assert result.rnr_naks == 0


class TestBothSideOdp:
    def test_single_read_completes(self):
        result = single_read(OdpSetup.BOTH)
        assert result.server_page_faults >= 1
        assert result.client_page_faults >= 1
        assert result.timeouts == 0
        assert result.errors == 0

    def test_faster_than_sum_of_timeout(self):
        result = single_read(OdpSetup.BOTH)
        assert result.execution_time_ns < 20 * MS


class TestFaultMachinery:
    def test_fault_coalescing_across_qps(self):
        """Two QPs faulting on the same server page -> one driver fault."""
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False)
        # second QP pair on the same MRs
        cqp2 = client.pd.create_qp(send_cq=client.cq)
        sqp2 = server.pd.create_qp(send_cq=server.cq)
        cqp2.connect(sqp2.info())
        sqp2.connect(cqp2.info())
        for qp, off in ((client.qp, 0), (cqp2, 256)):
            qp.post_send(WorkRequest.read(
                wr_id=off, local=Sge(client.mr, client.buf.addr(off), 64),
                remote=RemoteAddr(server.buf.addr(off), server.mr.rkey)))
        cluster.sim.run_until_idle()
        assert len(client.cq.poll(10)) == 2
        assert server.node.driver.faults_served == 1  # same page, coalesced

    def test_invalidation_flushes_nic_translation(self):
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False)
        server.buf.write(0, b"precious")
        client.qp.post_send(WorkRequest.read(
            wr_id=1, local=Sge(client.mr, client.buf.addr(0), 8),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        assert client.buf.read(0, 8) == b"precious"
        page = server.buf.pages()[0]
        assert server.node.rnic.translation.is_mapped(server.mr, page)
        # Kernel reclaims the page -> NIC entry must be flushed.
        assert server.node.vm.evict(page)
        cluster.sim.run_until_idle()
        assert not server.node.rnic.translation.is_mapped(server.mr, page)
        # A new READ re-faults and still returns the preserved bytes.
        client.qp.post_send(WorkRequest.read(
            wr_id=2, local=Sge(client.mr, client.buf.addr(8), 8),
            remote=RemoteAddr(server.buf.addr(0), server.mr.rkey)))
        cluster.sim.run_until_idle()
        assert client.buf.read(8, 8) == b"precious"
        assert server.node.driver.faults_served == 2

    def test_pinned_pages_resist_eviction(self):
        cluster, client, server = make_connected_pair()
        page = server.buf.pages()[0]
        assert not server.node.vm.evict(page)

    def test_odp_requires_capable_device(self):
        cluster, client, server = make_connected_pair(device="ConnectX-3")
        region = client.node.mmap(4096)
        with pytest.raises(ValueError):
            client.pd.reg_mr(region, Access.all(), odp=OdpMode.EXPLICIT)

    def test_implicit_odp_serves_any_mapped_address(self):
        cluster = build_pair()
        client_node, server_node = cluster.nodes
        cctx, sctx = client_node.open_device(), server_node.open_device()
        cpd, spd = cctx.alloc_pd(), sctx.alloc_pd()
        ccq, scq = cctx.create_cq(), sctx.create_cq()
        # Implicit ODP: one registration covering the whole address space.
        whole = server_node.mmap(1 << 20)
        server_mr = spd.reg_implicit_odp(whole)
        lbuf = client_node.mmap(4096, populate=True)
        client_mr = cpd.reg_mr(lbuf, Access.all())
        cqp, sqp = cpd.create_qp(ccq), spd.create_qp(scq)
        cqp.connect(sqp.info())
        sqp.connect(cqp.info())
        whole.write(123_456, b"implicit")
        cluster.sim.run_until_idle()
        cqp.post_send(WorkRequest.read(
            wr_id=1, local=Sge(client_mr, lbuf.addr(0), 8),
            remote=RemoteAddr(whole.addr(123_456), server_mr.rkey)))
        cluster.sim.run_until_idle()
        assert lbuf.read(0, 8) == b"implicit"

    def test_data_integrity_under_client_odp(self):
        config = MicrobenchConfig(num_ops=4, odp=OdpSetup.CLIENT,
                                  interval_us=50)
        result = run_microbench(config)
        assert result.errors == 0
        assert len(result.completions) == 4


class TestStatusViewIndex:
    """The per-QP page-status views, through the coordinator's API."""

    @staticmethod
    def setup_client(qps=3):
        cluster, client, server = make_connected_pair(
            client_odp=OdpMode.EXPLICIT, populate=False)
        qpns = [client.qp.qpn] + [
            client.pd.create_qp(send_cq=client.cq).qpn
            for _ in range(qps - 1)]
        return cluster, client, client.node.rnic.odp, qpns

    @staticmethod
    def ready(odp, qpn, client, page_index):
        return odp.requester_range_ready(
            qpn, client.mr, client.buf.addr(page_index * PAGE_SIZE), 64)

    def test_prewarm_then_invalidate(self):
        cluster, client, odp, (a, b, c) = self.setup_client()
        odp.prewarm_views([a, b], client.mr, client.buf.addr(0),
                          2 * PAGE_SIZE)
        for page_index in (0, 1):
            assert self.ready(odp, a, client, page_index)
            assert self.ready(odp, b, client, page_index)
            assert not self.ready(odp, c, client, page_index)
        odp.on_page_invalidated(client.mr, client.buf.pages()[0])
        assert not self.ready(odp, a, client, 0)
        assert not self.ready(odp, b, client, 0)
        assert self.ready(odp, a, client, 1)
        assert self.ready(odp, b, client, 1)

    def test_fault_and_resume_restores_only_the_faulting_qp(self):
        cluster, client, odp, (a, b, c) = self.setup_client()
        odp.prewarm_views([a, b], client.mr, client.buf.addr(0), PAGE_SIZE)
        odp.on_page_invalidated(client.mr, client.buf.pages()[0])
        fresh = odp.requester_wait_fresh(a, client.mr, client.buf.addr(0),
                                         64)
        assert not fresh.done
        cluster.sim.run_until_idle()
        assert fresh.done
        assert self.ready(odp, a, client, 0)
        assert not self.ready(odp, b, client, 0)
        assert not self.ready(odp, c, client, 0)

    def test_prewarm_reads_a_generator_for_every_page(self):
        cluster, client, odp, (a, b, c) = self.setup_client()
        odp.prewarm_views((qpn for qpn in (a, b)), client.mr,
                          client.buf.addr(0), 3 * PAGE_SIZE)
        for page_index in range(3):
            assert self.ready(odp, a, client, page_index)
            assert self.ready(odp, b, client, page_index)
            assert not self.ready(odp, c, client, page_index)


class TestRegistrationCost:
    def test_pinned_registration_costs_scale_with_pages(self):
        profile = get_device("ConnectX-4")
        small = profile.registration_cost_ns(1)
        large = profile.registration_cost_ns(1024)
        assert large > small
        assert large - small == 1023 * profile.reg_per_page_ns

    def test_odp_registration_is_instant(self):
        cluster, client, server = make_connected_pair(
            server_odp=OdpMode.EXPLICIT, populate=False)
        assert server.mr.ready.done  # resolved during setup's run
        assert server.node.vm.resident_pages() == 0  # nothing touched yet
