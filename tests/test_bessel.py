"""Modified Bessel function K1: validated against scipy.special."""

import numpy as np
import scipy.special as sp

from levyrep.bessel import k1, k1e
from oracles import k1_asymptotic


def test_k1_matches_scipy_across_regimes():
    xs = np.geomspace(1e-6, 50.0, 400)
    ours = k1(xs)
    ref = sp.k1(xs)
    assert np.max(np.abs(ours - ref) / ref) < 1e-9


def test_k1e_matches_scipy_including_large_arguments():
    xs = np.geomspace(1e-3, 700.0, 300)
    ours = k1e(xs)
    ref = sp.k1e(xs)
    assert np.max(np.abs(ours - ref) / ref) < 1e-9


def test_k1e_no_underflow_far_out():
    # e^x K1(x) ~ sqrt(pi/(2x)) stays representable where e^{-x} underflows
    val = k1e(5000.0)
    assert np.isfinite(val) and val > 0


def test_small_argument_limit():
    # x K1(x) -> 1 as x -> 0
    for x in (1e-4, 1e-6, 1e-8):
        assert abs(x * k1(x) - 1.0) < 1e-6


def test_asymptotic_ratio_tends_to_one():
    xs = np.array([50.0, 100.0, 200.0])
    ratio = k1e(xs) * np.exp(-xs) / k1_asymptotic(xs)
    # leading-order accuracy improves like 1/x
    assert np.all(np.abs(ratio - 1.0) < 1.0 / xs)


def test_scalar_and_array_agree():
    assert k1(2.5) == k1(np.array([2.5]))[0]
