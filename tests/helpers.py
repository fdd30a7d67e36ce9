"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.host.cluster import Cluster, build_pair
from repro.host.node import Node
from repro.ib.verbs.cq import CompletionQueue
from repro.ib.verbs.enums import Access, OdpMode
from repro.ib.verbs.mr import MemoryRegion
from repro.ib.verbs.qp import QpAttrs, QueuePair, connect_pair


def make_connected_pair(
    device: str = "ConnectX-4",
    seed: int = 0,
    attrs: Optional[QpAttrs] = None,
    buf_size: int = 65536,
    client_odp: OdpMode = OdpMode.PINNED,
    server_odp: OdpMode = OdpMode.PINNED,
    populate: bool = True,
    profile=None,
    coalesce: bool = True,
):
    """Two nodes, one QP pair, one MR per side, ready for traffic.

    Returns ``(cluster, client, server)`` where client/server are simple
    namespaces with node, qp, cq, mr and buffer region.  ``coalesce``
    picks the executor: the fast path (default) or the object path.
    """
    cluster = build_pair(device=device, seed=seed, profile=profile,
                         coalesce=coalesce)
    client_node, server_node = cluster.nodes

    sides = []
    for node, odp in ((client_node, client_odp), (server_node, server_odp)):
        ctx = node.open_device()
        pd = ctx.alloc_pd()
        cq = ctx.create_cq()
        buf = node.mmap(buf_size, populate=populate and not odp.is_odp)
        mr = pd.reg_mr(buf, access=Access.all(), odp=odp)
        qp = pd.create_qp(send_cq=cq)
        sides.append(_Side(node, ctx, pd, cq, buf, mr, qp))
    client, server = sides
    connect_pair(client.qp, server.qp, attrs)
    cluster.sim.run_until_idle()  # flush registration costs
    return cluster, client, server


def executor_surface(cluster: Cluster, client, wcs) -> Tuple:
    """What a pair run reported, for fast-vs-object comparisons: the
    polled completions with their times and statuses, the fabric packet
    count, the client RNIC's non-zero stats and the client requester's
    retry counters."""
    req = client.qp.requester
    stats = {key: value for key, value in client.node.rnic.stats.items()
             if value}
    return ([(wc.wr_id, wc.completed_at, wc.status) for wc in wcs],
            cluster.total_packets(), stats, req.timeouts,
            req.rnr_naks_received, req.retransmitted_packets)


class _Side:
    """A bag of one endpoint's verbs objects."""

    def __init__(self, node: Node, ctx, pd, cq: CompletionQueue, buf,
                 mr: MemoryRegion, qp: QueuePair):
        self.node = node
        self.ctx = ctx
        self.pd = pd
        self.cq = cq
        self.buf = buf
        self.mr = mr
        self.qp = qp


def drain_completions(cq: CompletionQueue) -> List:
    """Poll everything currently queued."""
    return cq.poll(max_entries=10 ** 6)
