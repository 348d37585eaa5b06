"""Data-buffer manager: the pool of DDR2 buffers between host and channels.

Paper: "The number of buffers available in a SSD architecture is upper
bounded by the number of channels served by the disk controller.  In
SSDExplorer the user can freely change this number, as well as the
bandwidth of the memory interface, acting upon a simple text configuration
file."

The manager owns ``n_buffers`` independent :class:`DramController`
devices, statically maps each channel onto one buffer (round-robin), and
tracks buffer occupancy so a full buffer back-pressures the host interface
(the mechanism that bounds the cache-policy head start).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..kernel import Component, Event, Simulator
from .controller import DramController, FastDramController
from .timing import Ddr2Timing


class _SpaceWaiter(Event):
    """A writer blocked in :meth:`BufferManager.reserve` on ``nbytes``."""

    __slots__ = ("manager", "buffer_index", "nbytes")

    def __init__(self, manager, buffer_index: int, nbytes: int):
        super().__init__(manager.sim)
        self.manager = manager
        self.buffer_index = buffer_index
        self.nbytes = nbytes

    def _wake(self, _entry: None) -> None:
        # Too big: re-queue, the writer stays suspended.  Room: trigger
        # inline; the writer resumes in this event.
        manager, index = self.manager, self.buffer_index
        if manager._occupancy[index] + self.nbytes > manager.capacity_bytes:
            manager._space_waiters[index].append(self)
            return
        self._ok = True
        self._value = None
        self._process()


class BufferManager(Component):
    """A pool of DRAM buffer devices with channel affinity."""

    def __init__(self, sim: Simulator, name: str, n_buffers: int,
                 timing: Ddr2Timing, n_channels: int,
                 capacity_bytes_per_buffer: int = 8 << 20,
                 parent: Optional[Component] = None,
                 enable_refresh: bool = True,
                 fast_fit: Optional[Tuple[int, float]] = None):
        super().__init__(sim, name, parent)
        if n_buffers < 1:
            raise ValueError(f"n_buffers must be >= 1, got {n_buffers}")
        if n_buffers > n_channels:
            raise ValueError(
                f"n_buffers ({n_buffers}) cannot exceed n_channels "
                f"({n_channels}) — paper Section III-C2")
        if capacity_bytes_per_buffer < 1:
            raise ValueError("capacity_bytes_per_buffer must be >= 1")
        self.n_buffers = n_buffers
        self.n_channels = n_channels
        self.capacity_bytes = capacity_bytes_per_buffer
        self.fast = fast_fit is not None
        if self.fast:
            # Queue-model devices on the fitted (overhead_ps,
            # ps_per_byte): refresh is in the fit, so enable_refresh
            # does not apply.
            self.buffers = [
                FastDramController(sim, f"buf{i}", timing, *fast_fit,
                                   parent=self)
                for i in range(n_buffers)
            ]
        else:
            self.buffers: List[DramController] = [
                DramController(sim, f"buf{i}", timing, parent=self,
                               enable_refresh=enable_refresh)
                for i in range(n_buffers)
            ]
        self._occupancy = [0] * n_buffers
        # Writers blocked on space, per buffer (FIFO).
        self._space_waiters: List[Deque[_SpaceWaiter]] = [
            deque() for __ in range(n_buffers)
        ]
        self._next_address = [0] * n_buffers

    def buffer_for_channel(self, channel: int) -> int:
        """Static channel -> buffer affinity."""
        if not 0 <= channel < self.n_channels:
            raise ValueError(f"channel {channel} out of range")
        return channel % self.n_buffers

    def occupancy(self, buffer_index: int) -> int:
        """Bytes currently held in a buffer."""
        return self._occupancy[buffer_index]

    def total_occupancy(self) -> int:
        return sum(self._occupancy)

    # ------------------------------------------------------------------
    # Space accounting (allocate on host write, free on flash flush)
    # ------------------------------------------------------------------
    def reserve(self, buffer_index: int, nbytes: int):
        """Generator: block until ``nbytes`` of space is available."""
        if nbytes > self.capacity_bytes:
            raise ValueError(
                f"request of {nbytes} B exceeds buffer capacity "
                f"{self.capacity_bytes} B")
        if self._occupancy[buffer_index] + nbytes > self.capacity_bytes:
            # Resumes only once the request fits (see _SpaceWaiter).
            waiter = _SpaceWaiter(self, buffer_index, nbytes)
            self._space_waiters[buffer_index].append(waiter)
            yield waiter
        self._occupancy[buffer_index] += nbytes

    def release(self, buffer_index: int, nbytes: int) -> None:
        """Return space after data drained to flash (or host, for reads)."""
        if nbytes > self._occupancy[buffer_index]:
            raise ValueError(
                f"releasing {nbytes} B but buffer {buffer_index} holds "
                f"{self._occupancy[buffer_index]} B")
        self._occupancy[buffer_index] -= nbytes
        # Wake each waiter as one kernel event, in FIFO order at the tail
        # of the same-time batch, where succeed() would put it; a waiter
        # that still does not fit re-queues itself.
        waiters = self._space_waiters[buffer_index]
        if waiters:
            sim = self.sim
            sim._after(0, waiters.popleft()._wake)
            sim._buckets[sim._now].extend([waiter._wake
                                           for waiter in waiters])
            waiters.clear()

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def stream_address(self, buffer_index: int, nbytes: int) -> int:
        """Allocate a sequential device address window for a transfer.

        The SSD data path writes and reads buffers as FIFOs, so sequential
        addressing (maximizing row hits) is the realistic pattern.
        """
        address = self._next_address[buffer_index]
        self._next_address[buffer_index] = (
            (address + nbytes) % (self.capacity_bytes))
        return address

    def write(self, buffer_index: int, nbytes: int):
        """Generator: write ``nbytes`` into a buffer device."""
        address = self.stream_address(buffer_index, nbytes)
        if self.fast:
            # Inline: same simulated timing, no sub-process events.
            return (yield from
                    self.buffers[buffer_index].write(address, nbytes))
        result = yield self.sim.process(
            self.buffers[buffer_index].write(address, nbytes))
        return result

    def read(self, buffer_index: int, nbytes: int):
        """Generator: read ``nbytes`` from a buffer device."""
        address = self.stream_address(buffer_index, nbytes)
        if self.fast:
            return (yield from
                    self.buffers[buffer_index].read(address, nbytes))
        result = yield self.sim.process(
            self.buffers[buffer_index].read(address, nbytes))
        return result
