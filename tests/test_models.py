"""Levy triplet catalog: characteristic exponents, moments, checkers."""

import math

import numpy as np
import pytest
import scipy.integrate as integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import (
    BrownianModel,
    DomainError,
    MertonModel,
    NIGModel,
    ParameterError,
    VGModel,
    check_assumption1,
    check_exponential_moment,
    model_from_dict,
)
from levyrep.models import (
    CustomModel,
    characteristic_function,
    jump_exponent_quadrature,
    truncated_abs_moment,
)

ALL = ["merton", "vg", "nig", "brownian"]


@pytest.fixture
def models(merton, vg, nig, brownian):
    return {"merton": merton, "vg": vg, "nig": nig, "brownian": brownian}


# ---------------------------------------------------------------------------
# characteristic exponent


@pytest.mark.parametrize("name", ALL)
def test_psi_vanishes_at_zero(models, name):
    assert abs(models[name].psi(0.0)) < 1e-14


@pytest.mark.parametrize("name", ["merton", "vg", "nig"])
def test_jump_exponent_matches_brute_quadrature(models, name):
    model = models[name]
    for w in (0.7, -1.3 + 0.5j, 2.0 - 0.8j):
        closed = complex(model.jump_exponent(np.array(w, dtype=complex)))
        brute = jump_exponent_quadrature(model, w)
        assert abs(closed - brute) < 1e-7 * max(1.0, abs(closed))


@pytest.mark.parametrize("name", ALL)
def test_psi_derivative_gives_mean_rate(models, name):
    # fully compensated jumps: E[X_1 - x0] = psi'(0)/i = mu
    model = models[name]
    h = 1e-6
    d = (model.psi(h) - model.psi(-h)) / (2j * h)
    assert abs(d.real - model.mu) < 1e-6
    assert abs(d.imag) < 1e-6


@pytest.mark.parametrize("name", ALL)
def test_characteristic_function_at_zero_frequency(models, name):
    assert abs(characteristic_function(models[name], 0.2, 1.0, 0.0) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# nu-moments against direct quadrature of the Levy density


@pytest.mark.parametrize("name", ["merton", "vg", "nig"])
def test_nu_second_moment_vs_quadrature(models, name):
    model = models[name]
    pos, _ = integrate.quad(lambda x: x * x * float(model.levy_density(x)),
                            1e-10, 30.0, limit=300)
    neg, _ = integrate.quad(lambda x: x * x * float(model.levy_density(x)),
                            -30.0, -1e-10, limit=300)
    val = pos + neg
    assert abs(val - model.nu_second_moment()) < 1e-6 * max(1.0, val)


def test_merton_nu_mean_closed_form(merton):
    assert abs(merton.nu_mean() - merton.gamma * merton.m) < 1e-14


def test_vg_nu_mean_vs_quadrature(vg):
    pos, _ = integrate.quad(lambda x: x * float(vg.levy_density(x)), 1e-12, np.inf)
    neg, _ = integrate.quad(lambda x: x * float(vg.levy_density(x)), -np.inf, -1e-12)
    assert abs(pos + neg - vg.nu_mean()) < 1e-7


# A Kou double-exponential measure (Kou, Management Sci. 2002) is exactly a
# piecewise-exponential table with one knot pair per side.
KOU_LAM, KOU_P, KOU_ETA1, KOU_ETA2 = 2.0, 0.4, 10.0, 5.0


def _kou_custom():
    lam, p, e1, e2 = KOU_LAM, KOU_P, KOU_ETA1, KOU_ETA2
    pos, neg = (0.05, 1.0), (-1.0, -0.05)
    return CustomModel(
        x0=0.0, mu=0.0, sigma=0.1,
        pos_knots=pos, pos_logv=tuple(math.log(lam * p * e1) - e1 * x for x in pos),
        neg_knots=neg, neg_logv=tuple(math.log(lam * (1 - p) * e2) + e2 * x for x in neg),
    )


def _kou_jump_exponent(w):
    lam, p, e1, e2 = KOU_LAM, KOU_P, KOU_ETA1, KOU_ETA2
    return (lam * p * (e1 / (e1 - 1j * w) - 1.0 - 1j * w / e1)
            + lam * (1 - p) * (e2 / (e2 + 1j * w) - 1.0 + 1j * w / e2))


def test_custom_model_matches_kou_closed_forms():
    lam, p, e1, e2 = KOU_LAM, KOU_P, KOU_ETA1, KOU_ETA2
    kou = _kou_custom()
    for w in (0.7, -3.0, 25.0, 1.5 - 4.0j, -2.0 + 3.0j):
        closed = _kou_jump_exponent(w)
        assert abs(complex(kou.jump_exponent(w)) - closed) < 1e-13 * max(1.0, abs(closed))
    # the first moment includes the jumps below the Taylor split |x| < 1e-4
    assert abs(kou.nu_mean() - (lam * p / e1 - lam * (1 - p) / e2)) < 1e-13
    assert abs(kou.nu_second_moment() - 2 * (lam * p / e1**2 + lam * (1 - p) / e2**2)) < 1e-13
    lo, hi = kou.exp_moment_strip()
    assert lo == pytest.approx(-e2, rel=1e-12) and hi == pytest.approx(e1, rel=1e-12)


@pytest.mark.parametrize("name", ["merton", "vg", "nig"])
def test_c2_vs_quadrature(models, name):
    model = models[name]
    pos, _ = integrate.quad(
        lambda x: math.expm1(x) ** 2 * float(model.levy_density(x)),
        1e-10, 30.0, limit=300,
    )
    neg, _ = integrate.quad(
        lambda x: math.expm1(x) ** 2 * float(model.levy_density(x)),
        -30.0, -1e-10, limit=300,
    )
    val = pos + neg
    assert abs(val - model.c2()) < 1e-6 * max(1.0, val)


def test_exp_jump_cumulant_equals_jump_exponent_on_imag_axis(merton, vg, nig):
    for model in (merton, vg, nig):
        for u in (0.5, 1.0, 1.5):
            a = model.exp_jump_cumulant(u)
            b = complex(model.jump_exponent(np.array(-1j * u)))
            assert abs(a - b.real) < 1e-10 * max(1.0, abs(a))
            assert abs(b.imag) < 1e-10


# ---------------------------------------------------------------------------
# moment strips and checkers


def test_exponential_moment_strip_verdicts(vg, nig):
    assert check_exponential_moment(vg, 2.0).ok          # M = 5 > 2
    assert not check_exponential_moment(vg, 5.5).ok
    assert check_exponential_moment(nig, 2.0).ok         # a - b = 4 > 2
    assert not check_exponential_moment(nig, 4.5).ok


def test_truncated_abs_moment_monotone_in_eps(vg, nig):
    for model in (vg, nig):
        vals = [truncated_abs_moment(model, eps) for eps in (1e-1, 1e-2, 1e-3)]
        assert vals[0] < vals[1] < vals[2]


def test_assumption1_verdicts(merton, vg, nig):
    assert check_assumption1(merton, 1.0, 0.0, 1.0).ok
    assert check_assumption1(vg, 1.0, 0.0, 1.0).ok
    assert check_assumption1(nig, 1.0, 0.0, 1.0).ok


def test_assumption1_fails_outside_strip(nig):
    # alpha = 4.5 outside the NIG strip (-2, 4)
    chk = check_assumption1(nig, 4.5, 0.0, 1.0)
    assert not chk.ok and not chk.moment_ok


# ---------------------------------------------------------------------------
# construction and serialization


def test_parameter_validation():
    with pytest.raises(ParameterError):
        MertonModel(x0=0.0, mu=0.0, sigma=-0.1, gamma=1.0, m=0.0, delta=0.3)
    with pytest.raises(ParameterError):
        MertonModel(x0=0.0, mu=0.0, sigma=0.2, gamma=-1.0, m=0.0, delta=0.3)
    with pytest.raises(ParameterError):
        VGModel(x0=0.0, mu=0.0, sigma=0.0, C=1.0, G=-5.0, M=5.0)
    with pytest.raises(ParameterError):
        NIGModel(x0=0.0, mu=0.0, sigma=0.0, a=1.0, b=-2.0, delta=1.0)  # |b| >= a


def test_model_from_dict_round_trip(merton):
    spec = {"kind": "merton", "x0": 0.0, "mu": -0.1, "sigma": 0.2,
            "params": {"gamma": 1.0, "m": -0.1, "delta": 0.3}}
    model = model_from_dict(spec)
    assert model == merton


MERTON_SPEC = {"kind": "merton", "x0": 0.0, "mu": -0.1, "sigma": 0.2,
               "params": {"gamma": 1.0, "m": -0.1, "delta": 0.3}}
BAD_MODEL_SPECS = [
    ({"params": {"gama": 1.0, "m": -0.1, "delta": 0.3}},
     r"\['gama'\]; known: \['delta', 'gamma', 'm'\]"),
    ({"sigma": "abc"}, "sigma must be a number"),
    ({"sigma": math.nan}, "sigma must be finite"),
    ({"mu": math.inf}, "mu must be finite"),
    ({"params": {"gamma": math.nan, "m": -0.1, "delta": 0.3}}, "gamma must be finite"),
    ({"sigam": 0.2}, r"\['sigam'\]; known: \['kind', 'mu', 'params', 'sigma', 'x0'\]"),
]


@pytest.mark.parametrize("change, message", BAD_MODEL_SPECS,
                         ids=["misspelt", "string", "nan-sigma", "inf-mu", "nan-gamma",
                              "misspelt-key"])
def test_model_from_dict_rejects_bad_values(change, message):
    with pytest.raises(ParameterError, match=message):
        model_from_dict(MERTON_SPEC | change)


def test_model_from_dict_unknown_kind():
    with pytest.raises(ParameterError):
        model_from_dict({"kind": "stable"})


def test_psi_domain_enforced(vg):
    from levyrep.models import characteristic_exponent
    with pytest.raises(DomainError):
        characteristic_exponent(vg, -6j)  # e^{6 X} moment diverges (M = 5)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=25, deadline=None)
@given(v=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_psi_conjugate_symmetry(v):
    model = MertonModel(x0=0.0, mu=-0.1, sigma=0.2, gamma=1.0, m=-0.1, delta=0.3)
    a = complex(model.psi(v))
    b = complex(model.psi(-v))
    assert abs(a - b.conjugate()) < 1e-12 * max(1.0, abs(a))


@settings(max_examples=25, deadline=None)
@given(v=st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
       tau=st.floats(min_value=0.01, max_value=2.0))
def test_characteristic_function_bounded_by_one(v, tau):
    model = NIGModel(x0=0.0, mu=-0.25, sigma=0.0, a=3.0, b=-1.0, delta=1.0)
    phi = characteristic_function(model, 0.0, tau, v)
    assert abs(phi) <= 1.0 + 1e-12
