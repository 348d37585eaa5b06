"""Error-correcting code subsystem.

A real binary BCH codec (GF(2^m) arithmetic, Berlekamp–Massey decoding)
plus the parametric latency models and the fixed/adaptive correction
schemes compared in the paper's wear-out experiment (Fig. 5).

The functional codec (:mod:`.bch`, :mod:`.galois`) needs numpy and no
simulation path calls it, so its names load on first access.
"""

from importlib import import_module

from .adaptive import (AdaptiveBch, CorrectionTable, EccScheme, FixedBch,
                       default_schemes)
from .latency import BchLatencyModel, DEFAULT_LATENCY

#: Lazily exported name -> submodule that defines it.
_LAZY = {
    "BchCode": ".bch", "BchDecodeFailure": ".bch", "BchParameters": ".bch",
    "inject_errors": ".bch",
    "GF2m": ".galois", "PRIMITIVE_POLYNOMIALS": ".galois",
    "poly2_degree": ".galois", "poly2_gcd": ".galois", "poly2_mod": ".galois",
    "poly2_multiply": ".galois",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AdaptiveBch", "BchCode", "BchDecodeFailure", "BchLatencyModel",
    "BchParameters", "CorrectionTable", "DEFAULT_LATENCY", "EccScheme",
    "FixedBch", "GF2m", "PRIMITIVE_POLYNOMIALS", "default_schemes",
    "inject_errors", "poly2_degree", "poly2_gcd", "poly2_mod",
    "poly2_multiply",
]
