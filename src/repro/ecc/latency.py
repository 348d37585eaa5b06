"""Parametric-time-delay (PTD) model of BCH codec hardware.

The paper models the ECC as a PTD block whose quality metric is its
encode/decode latency versus correction capability.  We back-annotate the
cycle counts from the structure of a standard pipelined BCH engine:

* **Encoder** — an LFSR of ``parity_bits`` stages consuming ``width`` data
  bits per cycle: latency ≈ ``codeword_bits / width`` cycles, essentially
  independent of ``t`` (matching the paper's observation that "the encoding
  operation latency ... is not substantially affected by the correction
  capability choice").
* **Decoder** —
  - syndrome stage: ``codeword_bits / width`` cycles (2t syndrome LFSRs in
    parallel),
  - Berlekamp–Massey: ``2t`` iterations of ``~t``-deep inner products →
    ``bm_factor * t^2`` cycles on a serial-multiplier array,
  - Chien search: ``codeword_bits / chien_parallelism`` cycles.

  Decode latency therefore "heavily grows with employed correction
  capability" (paper Section IV-B), dominated by the quadratic BM term plus
  a t-proportional syndrome-hardware slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..kernel.simtime import Clock


@dataclass(frozen=True)
class BchLatencyModel:
    """Cycle-count model of a hardware BCH codec.

    Defaults model a 250 MHz codec with a 16-bit datapath — numbers in the
    range of the adaptable BCH codecs of Fabiano et al. (MICPRO 2013),
    reference [23] of the paper.
    """

    clock_hz: float = 250e6
    datapath_bits: int = 16
    chien_parallelism: int = 16
    bm_cycles_per_t_squared: float = 12.0
    syndrome_slowdown_per_t: float = 0.01
    fixed_overhead_cycles: int = 32

    def __post_init__(self) -> None:
        if self.datapath_bits < 1 or self.chien_parallelism < 1:
            raise ValueError("datapath widths must be >= 1")
        if self.clock_hz <= 0:
            raise ValueError("clock_hz must be positive")

    @cached_property
    def clock(self) -> Clock:
        # Built once per model: encode/decode timing asks for it per page.
        return Clock("ecc", frequency_hz=self.clock_hz)

    def encode_cycles(self, codeword_bits: int, t: int) -> int:
        """Cycles to push a codeword through the encoder LFSR."""
        if codeword_bits < 1:
            raise ValueError("codeword_bits must be >= 1")
        streaming = -(-codeword_bits // self.datapath_bits)
        return self.fixed_overhead_cycles + streaming

    def decode_cycles(self, codeword_bits: int, t: int,
                      errors_present: bool = True) -> int:
        """Cycles to decode; grows ~quadratically with ``t``."""
        if codeword_bits < 1:
            raise ValueError("codeword_bits must be >= 1")
        if t < 0:
            raise ValueError("t must be >= 0")
        syndrome = -(-codeword_bits // self.datapath_bits)
        syndrome = int(syndrome * (1.0 + self.syndrome_slowdown_per_t * t))
        if t == 0 or not errors_present:
            # Clean codeword: syndrome stage only (all-zero early exit).
            return self.fixed_overhead_cycles + syndrome
        berlekamp = int(self.bm_cycles_per_t_squared * t * t)
        chien = -(-codeword_bits // self.chien_parallelism)
        return self.fixed_overhead_cycles + syndrome + berlekamp + chien

    def encode_time_ps(self, codeword_bits: int, t: int) -> int:
        """Encode latency in picoseconds."""
        return self.clock.cycles(self.encode_cycles(codeword_bits, t))

    def decode_time_ps(self, codeword_bits: int, t: int,
                       errors_present: bool = True) -> int:
        """Decode latency in picoseconds."""
        return self.clock.cycles(
            self.decode_cycles(codeword_bits, t, errors_present))


#: Shared default latency model.
DEFAULT_LATENCY = BchLatencyModel()
