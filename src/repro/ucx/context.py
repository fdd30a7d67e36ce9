"""UCX context/worker: per-node communication state."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.host.memory import Region
from repro.ib.verbs.enums import Access, OdpMode
from repro.ib.verbs.wr import WorkCompletion
from repro.sim.future import Future, all_of
from repro.ucx.config import UcxConfig
from repro.ucx.endpoint import UcxEndpoint, UcxMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.host.node import Node


class UcxContext:
    """One node's UCX instance (context + worker merged for simplicity)."""

    def __init__(self, node: "Node", config: Optional[UcxConfig] = None):
        self.node = node
        self.config = config if config is not None else UcxConfig()
        self.ctx = node.open_device()
        self.pd = self.ctx.alloc_pd()
        self.cq = self.ctx.create_cq()
        self.cq.on_completion = self._on_completion
        self.endpoints: List[UcxEndpoint] = []
        self._by_qpn: Dict[int, UcxEndpoint] = {}
        self._odp_in_use = False

    # ------------------------------------------------------------------

    @property
    def sim(self):
        """The shared simulator."""
        return self.node.sim

    @property
    def using_odp(self) -> bool:
        """True when at least one registration went through ODP."""
        return self._odp_in_use

    def mem_map(self, region: Region) -> UcxMemory:
        """Register memory, honouring ``prefer_odp`` (Section IX-A: UCX
        silently picks ODP when the device supports it)."""
        use_odp = self.config.prefer_odp and self.ctx.odp_supported
        mode = OdpMode.EXPLICIT if use_odp else OdpMode.PINNED
        mr = self.pd.reg_mr(region, Access.all(), odp=mode)
        if use_odp:
            self._odp_in_use = True
        return UcxMemory(region, mr)

    def create_endpoint(self) -> UcxEndpoint:
        """Create an endpoint (QP) awaiting connection."""
        endpoint = UcxEndpoint(self)
        self.endpoints.append(endpoint)
        self._by_qpn[endpoint.qp.qpn] = endpoint
        return endpoint

    def _on_completion(self, wc: WorkCompletion) -> None:
        # UCX progress *consumes* the CQE it is handed.  The CQ queues
        # every push for poll()/wait() consumers and silently drops at
        # capacity; nothing else polls this private CQ, so an undrained
        # entry would sit forever — and once the cumulative completion
        # count crossed the capacity, every later completion would be
        # dropped and its endpoint future stranded (first seen as a
        # driver hang in the 10k-QP tab13 cell).
        self.cq.poll()
        endpoint = self._by_qpn.get(wc.qp_num)
        if endpoint is not None:
            endpoint._handle_completion(wc)  # noqa: SLF001 - friend class

    def flush(self) -> Future:
        """Future resolving, with one ``None`` per endpoint that had
        work in flight, once every such endpoint drains."""
        pending = [ep for ep in self.endpoints if ep.inflight > 0]
        return all_of([ep.drained() for ep in pending], label="ucx.flush")


def connect_endpoints(a: UcxEndpoint, b: UcxEndpoint) -> None:
    """Out-of-band connect of two endpoints (UCX address exchange)."""
    from repro.ib.verbs.qp import QpAttrs

    def attrs(config: UcxConfig) -> QpAttrs:
        return QpAttrs(cack=config.cack,
                       retry_count=config.retry_count,
                       min_rnr_timer_ns=config.min_rnr_timer_ns,
                       max_rd_atomic=config.max_rd_atomic)

    a.qp.connect(b.qp.info(), attrs(a.context.config))
    b.qp.connect(a.qp.info(), attrs(b.context.config))
