"""Damped payoff transforms and the integrability checker."""

import math

import numpy as np
import pytest
import scipy.integrate as integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import (
    DomainError,
    ParameterError,
    check_assumption2,
    constant_payoff,
    digital_payoff,
    exp_indicator_payoff,
    payoff_from_dict,
    sqrt_abs_decomposition,
    sqrt_minus_payoff,
    sqrt_plus_payoff,
)
from levyrep.payoffs import raw_sqrt_abs_payoff
from oracles import derivative_transform, sqrt_parts_transform


def _brute_transform(f, z, lo, hi):
    re, _ = integrate.quad(lambda y: (f(y) * np.exp(1j * z * y)).real, lo, hi, limit=300)
    im, _ = integrate.quad(lambda y: (f(y) * np.exp(1j * z * y)).imag, lo, hi, limit=300)
    return re + 1j * im


def test_digital_transform_against_brute_quadrature():
    payoff = digital_payoff(0.3, alpha=1.0)
    z = 2.0 + 1.0j
    brute = _brute_transform(payoff.f, z, 0.3, 60.0)
    assert abs(complex(payoff.transform(0.0, z)) - brute) < 1e-9


def test_exp_indicator_transform_against_brute_quadrature():
    payoff = exp_indicator_payoff(alpha=2.5)
    z = 1.0 + 2.5j
    brute = _brute_transform(payoff.f, z, 0.0, 80.0)
    assert abs(complex(payoff.transform(0.0, z)) - brute) < 1e-9


def test_transform_domain_enforced():
    payoff = exp_indicator_payoff(alpha=2.5)
    with pytest.raises(DomainError):
        payoff.transform(0.0, 1.0 + 0.5j)  # needs Im z > 1


def test_sqrt_plus_gamma_integral():
    # ghat_+(0, i) = int_0^inf e^{-y} sqrt(y) dy = Gamma(3/2) = sqrt(pi)/2
    val = sqrt_parts_transform("+", 0.0, 1j)
    assert abs(val - math.sqrt(math.pi) / 2.0) < 1e-8


def test_sqrt_transform_matches_closed_form():
    payoff = sqrt_plus_payoff()
    for x, z in ((0.0, 1.5 + 1.0j), (0.4, -0.5 + 2.0j)):
        numeric = sqrt_parts_transform("+", x, z)
        closed = complex(payoff.transform(x, z))
        assert abs(numeric - closed) < 1e-8


def test_derivative_transform_identity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.5, 2.0)
        a = derivative_transform("+", x, z)
        b = -1j * z * sqrt_parts_transform("+", x, z)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_sqrt_minus_reflected():
    # minus part mirrors the plus part: ghat_-(0, -i) uses damping e^{+x}
    val = sqrt_parts_transform("-", 0.0, -1j)
    assert abs(val - math.sqrt(math.pi) / 2.0) < 1e-8


def test_decomposition_sums_to_sqrt_abs():
    dec = sqrt_abs_decomposition()
    xs = np.linspace(-3.0, 3.0, 31)
    assert np.allclose(dec.f(xs), np.sqrt(np.abs(xs)), atol=1e-14)


# ---------------------------------------------------------------------------
# integrability checker


def test_assumption2_verdicts():
    assert check_assumption2(digital_payoff(0.0, alpha=1.0)).ok
    assert check_assumption2(exp_indicator_payoff(alpha=2.5)).ok
    assert not check_assumption2(exp_indicator_payoff(alpha=0.5)).ok
    assert check_assumption2(sqrt_plus_payoff()).ok
    assert check_assumption2(sqrt_minus_payoff()).ok
    assert not check_assumption2(raw_sqrt_abs_payoff()).ok
    assert check_assumption2(constant_payoff(0.0)).ok
    # a nonzero constant is not damped-L1 at alpha = 0 (it is represented
    # trivially, without the transform)
    assert not check_assumption2(constant_payoff(2.0)).ok


def test_payoff_from_dict():
    p = payoff_from_dict({"kind": "digital", "strike_level": 0.1, "alpha": 1.5})
    assert p.kind == "digital" and p.alpha == 1.5
    with pytest.raises(ParameterError):
        payoff_from_dict({"kind": "lookback"})
    assert payoff_from_dict({"kind": "polynomial", "coeffs": [1, "2"]}).params == (1.0, 2.0)
    assert payoff_from_dict({"kind": "constant", "value": 3}).params == (3.0,)
    assert payoff_from_dict({"kind": "exp_indicator"}).alpha == 2.5


@pytest.mark.parametrize("spec, message", [
    ({"kind": "digital", "strike_level": "abc"}, "strike_level must be a number"),
    ({"kind": "digital"}, r"digital payoff needs \['strike_level'\]"),
    ({"kind": "digital", "strike_level": math.nan}, "strike_level must be finite"),
    ({"kind": "digital", "strike_level": 0.0, "alpha": math.inf}, "alpha must be finite"),
    ({"kind": "digital", "strike_level": 0.0, "alfa": 1.0},
     r"\['alfa'\]; known: \['alpha', 'kind', 'strike_level'\]"),
    ({"kind": "polynomial", "coeffs": ["a"]}, "coeffs must be a number"),
    ({"kind": "polynomial", "coeffs": 2.0}, "non-empty list"),
    ({"kind": "constant", "value": None}, "value must be a number"),
    ({"kind": "sqrt_abs", "alpha": 1.0}, r"\['alpha'\]; known: \['kind'\]"),
], ids=["string-strike", "missing-strike", "nan-strike", "inf-alpha", "misspelt-alpha",
        "string-coeff", "scalar-coeffs", "none-value", "sqrt-abs-alpha"])
def test_payoff_from_dict_rejects_bad_values(spec, message):
    with pytest.raises(ParameterError, match=message):
        payoff_from_dict(spec)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=-2.0, max_value=2.0),
       x=st.floats(min_value=-3.0, max_value=3.0),
       v=st.floats(min_value=-20.0, max_value=20.0))
def test_digital_translation_identity(c, x, v):
    # ghat(x, z) = e^{-izx} ghat(0, z) on the damped line z = v + i alpha
    payoff = digital_payoff(c, alpha=1.0)
    z = v + 1.0j
    lhs = complex(payoff.transform(x, z))
    rhs = complex(np.exp(-1j * z * x) * payoff.transform(0.0, z))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@settings(max_examples=40, deadline=None)
@given(v=st.floats(min_value=-20.0, max_value=20.0),
       alpha=st.floats(min_value=0.2, max_value=3.0))
def test_digital_transform_closed_form(v, alpha):
    c = 0.4
    payoff = digital_payoff(c, alpha=alpha)
    z = v + 1j * alpha
    expected = -np.exp(1j * z * c) / (1j * z)
    assert abs(complex(payoff.transform(0.0, z)) - expected) < 1e-12
