"""Round-robin bus arbiter.

AMBA AHB leaves the arbitration policy to the implementation; SSDExplorer
configures round-robin (paper, Section III-B2).  The arbiter grants the bus
at clock-edge granularity, scanning master indices circularly from the
last-granted position so every master gets fair service under saturation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..kernel import Event, SimulationError, Simulator
from ..kernel.simtime import Clock


class RoundRobinArbiter:
    """Grants one owner at a time, round-robin among requesting masters."""

    def __init__(self, sim: Simulator, clock: Clock, n_masters: int):
        if n_masters < 1:
            raise ValueError(f"n_masters must be >= 1, got {n_masters}")
        self.sim = sim
        self.clock = clock
        self.n_masters = n_masters
        self._pending: Dict[int, List[Event]] = {}
        self._owner: Optional[int] = None
        self._pointer = 0  # next master index to consider
        self.total_grants = 0

    @property
    def owner(self) -> Optional[int]:
        return self._owner

    def request(self, master_id: int) -> Event:
        """Request bus ownership; the returned event fires on grant."""
        if not 0 <= master_id < self.n_masters:
            raise ValueError(f"master id {master_id} out of range "
                             f"[0, {self.n_masters})")
        event = self.sim.event(f"arb.grant({master_id})")
        self._pending.setdefault(master_id, []).append(event)
        if self._owner is None:
            self._grant_next()
        return event

    def release(self, master_id: int) -> None:
        """Release ownership; the next master is granted on the next edge."""
        if self._owner != master_id:
            raise SimulationError(
                f"master {master_id} released the bus but owner is "
                f"{self._owner}")
        self._owner = None
        if any(self._pending.values()):
            # Re-arbitration costs one clock edge.
            self.sim._after(self.clock.period_ps, self._grant_next)

    def _grant_next(self, _entry: None = None) -> None:
        if self._owner is not None:
            return
        for offset in range(self.n_masters):
            candidate = (self._pointer + offset) % self.n_masters
            queue = self._pending.get(candidate)
            if queue:
                event = queue.pop(0)
                if not queue:
                    del self._pending[candidate]
                self._owner = candidate
                self._pointer = (candidate + 1) % self.n_masters
                self.total_grants += 1
                event.succeed(candidate)
                return
