"""The functional BCH codec loads on first use, so importing the
simulator does not import numpy."""

import os
import subprocess
import sys

import pytest

import repro
import repro.ecc


def test_importing_the_simulator_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, repro, repro.cli; "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_codec_names_resolve_on_first_access():
    from repro.ecc import BchCode, GF2m
    from repro.ecc.bch import BchCode as defined_code
    from repro.ecc.galois import GF2m as defined_field
    assert BchCode is defined_code
    assert GF2m is defined_field


def test_every_exported_name_resolves():
    for name in repro.ecc.__all__:
        assert getattr(repro.ecc, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_codec"):
        repro.ecc.no_such_codec


def test_exported_names_are_unchanged():
    assert repro.ecc.__all__ == [
        "AdaptiveBch", "BchCode", "BchDecodeFailure", "BchLatencyModel",
        "BchParameters", "CorrectionTable", "DEFAULT_LATENCY", "EccScheme",
        "FixedBch", "GF2m", "PRIMITIVE_POLYNOMIALS", "default_schemes",
        "inject_errors", "poly2_degree", "poly2_gcd", "poly2_mod",
        "poly2_multiply",
    ]
