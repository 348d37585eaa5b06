"""Generic DMA engine.

Both the host interface's "external DMA controller" and the channel
controller's push-pull DMA (PP-DMA) are descriptor-driven engines with a
small per-descriptor setup cost and a limited number of concurrent
channels.  The actual data movement is supplied by the caller as a
generator (e.g. a DRAM access or an ONFI transfer), so the engine composes
with any data path.
"""

from __future__ import annotations

from typing import Optional

from ..kernel import Component, Resource, Simulator
from ..kernel.simtime import ns
from ..obs import spans as _obs


class DmaEngine(Component):
    """Descriptor-driven DMA with ``channels`` concurrent contexts."""

    def __init__(self, sim: Simulator, name: str, channels: int = 1,
                 setup_ps: int = ns(100),
                 parent: Optional[Component] = None):
        super().__init__(sim, name, parent)
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        if setup_ps < 0:
            raise ValueError("setup_ps must be >= 0")
        self.setup_ps = setup_ps
        self._contexts = Resource(sim, f"{name}.ctx", capacity=channels)

    def execute(self, mover):
        """Generator: run one descriptor.

        ``mover`` is a generator performing the actual transfer; the engine
        charges its setup latency first, then runs the mover while holding
        a DMA context.  Returns whatever the mover returns.
        """
        grant = self._contexts.acquire()
        yield grant
        t0 = self.sim.now if _obs.enabled else -1
        try:
            if self.setup_ps:
                yield self.setup_ps
            result = yield self.sim.process(mover)
        finally:
            self._contexts.release(grant)
        if t0 >= 0:
            _obs.record_span(self.path(), "dma", t0, self.sim.now)
        return result

    def utilization(self) -> float:
        return self._contexts.utilization()
