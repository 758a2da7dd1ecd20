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
    build_mmm,
    check_assumption1,
    check_exponential_moment,
    model_from_dict,
)
from levyrep.malliavin import EPS_SEQUENCE
from levyrep.mmm import MarketSpec, StarModel
from levyrep.models import (
    CustomModel,
    characteristic_function,
    nu_tail_cutoff,
    truncated_abs_moment,
)
from oracles import (
    custom_grid_jump_exponent,
    density_exponential_tail,
    density_tail_cutoff,
    jump_exponent_quadrature,
    log_of_levy_density,
    star_log_levy_density,
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
    # contour tables reach |w| in the thousands, and 4.9i is 0.1 from the
    # strip edge at 5i
    for w in (0.7, -3.0, 25.0, 1.5 - 4.0j, -2.0 + 3.0j, 200.0, 1000.0, 4.9j):
        closed = _kou_jump_exponent(w)
        assert abs(complex(kou.jump_exponent(w)) - closed) < 1e-13 * max(1.0, abs(closed))
    # the first moment includes the jumps near 0
    assert abs(kou.nu_mean() - (lam * p / e1 - lam * (1 - p) / e2)) < 1e-13
    assert abs(kou.nu_second_moment() - 2 * (lam * p / e1**2 + lam * (1 - p) / e2**2)) < 1e-13
    # int x^k nu = lam k! (p / e1^k + (1 - p) (-1)^k / e2^k)
    closed = [lam * math.factorial(k) * (p / e1**k + (1 - p) * (-1) ** k / e2**k)
              for k in (1, 2, 3, 4)]
    assert np.allclose(kou.nu_moments(), closed, rtol=1e-13, atol=0.0)
    lo, hi = kou.exp_moment_strip()
    assert lo == pytest.approx(-e2, rel=1e-12) and hi == pytest.approx(e1, rel=1e-12)


def test_fixed_custom_grid_misses_kou_at_large_w():
    # negative control: the grid custom models used before the closed form
    kou = _kou_custom()
    for w in (0.7, 25.0):
        closed = _kou_jump_exponent(w)
        assert abs(custom_grid_jump_exponent(kou, w) - closed) < 1e-13 * max(1.0, abs(closed))
    assert abs(custom_grid_jump_exponent(kou, 200.0) - _kou_jump_exponent(200.0)) > 1e-4


# several pieces per side, with slope x length above and below the ramp
# series' radius of 2 and of both signs
MULTI_KNOT = dict(
    pos_knots=(0.05, 0.4, 1.0, 2.0), pos_logv=(0.0, 3.0, -1.5, -3.5),
    neg_knots=(-3.0, -1.2, -0.3, -0.02), neg_logv=(-6.0, -1.0, 1.0, 0.2),
)


def _piecewise_quad(f, model):
    """int f(x) nu(dx) by quad between the knots, per side."""
    total = 0.0
    for side in ("pos", "neg"):
        knots = np.abs(MULTI_KNOT[f"{side}_knots"])
        sgn = 1.0 if side == "pos" else -1.0
        edges = np.concatenate([[0.0], np.sort(knots), [60.0]])
        for a, b in zip(edges[:-1], edges[1:]):
            total += integrate.quad(lambda u: f(sgn * u) * float(model.levy_density(sgn * u)),
                                    a, b, complex_func=True, epsabs=1e-16, epsrel=1e-13,
                                    limit=2000)[0]
    return total


def test_custom_model_with_several_pieces_matches_quadrature():
    model = CustomModel(x0=0.0, mu=0.0, sigma=0.1, **MULTI_KNOT)
    lo, hi = model.exp_moment_strip()
    assert (lo, hi) == pytest.approx((-5.0 / 1.8, 2.0))
    for w in (0.3, -4.0, 20.0, 150.0, 1.0 - 0.5j, -2.0 + 1.2j):
        quad = _piecewise_quad(lambda x: np.exp(1j * w * x) - 1.0 - 1j * w * x, model)
        assert abs(complex(model.jump_exponent(w)) - quad) < 1e-11 * max(1.0, abs(quad))
    for k, m in zip((1, 2, 3, 4), model.nu_moments()):
        quad = _piecewise_quad(lambda x, k=k: x**k, model).real
        assert abs(m - quad) < 1e-12 * abs(quad)


def test_custom_model_from_arrays_is_hashable_and_equal():
    # the truncated jump exponent is cached per (model, eps)
    kou = _kou_custom()
    arrays = CustomModel(x0=0.0, mu=0.0, sigma=0.1,
                         **{k: np.array(getattr(kou, k)) for k in
                            ("pos_knots", "pos_logv", "neg_knots", "neg_logv")})
    assert arrays == kou and hash(arrays) == hash(kou)


BAD_CUSTOM_TABLES = [
    ({"pos_logv": (0.0,)}, "matching 1-d arrays"),
    ({"pos_knots": (0.05,), "pos_logv": (0.0,)}, ">= 2 knots"),
    ({"pos_knots": (-0.05, 1.0)}, "pos_knots must be positive"),
    ({"neg_knots": (-1.0, 0.05)}, "neg_knots must be negative"),
    ({"pos_knots": (0.5, 0.5)}, "must be distinct"),
    ({"pos_logv": (0.0, 1.0)}, "decay on the right tail"),
    ({"neg_logv": (1.0, 0.0)}, "decay on the left tail"),
    ({"pos_knots": (), "pos_logv": (), "neg_knots": (), "neg_logv": ()}, "at least one"),
]


@pytest.mark.parametrize("change, message", BAD_CUSTOM_TABLES,
                         ids=["lengths", "one-knot", "pos-sign", "neg-sign", "repeated",
                              "right-tail", "left-tail", "no-table"])
def test_custom_model_rejects_bad_tables(change, message):
    kou = _kou_custom()
    tables = {k: getattr(kou, k) for k in ("pos_knots", "pos_logv", "neg_knots", "neg_logv")}
    with pytest.raises(ParameterError, match=message):
        CustomModel(x0=0.0, mu=0.0, sigma=0.1, **(tables | change))


def test_custom_model_sorts_its_knots():
    kou = _kou_custom()
    shuffled = CustomModel(x0=0.0, mu=0.0, sigma=0.1,
                           pos_knots=kou.pos_knots[::-1], pos_logv=kou.pos_logv[::-1],
                           neg_knots=kou.neg_knots[::-1], neg_logv=kou.neg_logv[::-1])
    xs = np.linspace(-3.0, 3.0, 61)
    assert np.array_equal(shuffled.levy_density(xs), kou.levy_density(xs))
    assert shuffled.levy_density(np.array(0.0)) == 0.0


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


def _quad_by_octaves(f, lo, hi):
    """int_lo^hi f by quad on [lo, 2 lo], [2 lo, 4 lo], ..."""
    edges = [lo]
    while edges[-1] < hi:
        edges.append(min(2.0 * edges[-1], hi))
    return sum(integrate.quad(f, a, b, epsabs=1e-16, epsrel=1e-13, limit=400)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def _density_at(model, x):
    return float(model.levy_density(np.array(x)))


def _exp_weighted_density(model, alpha, x):
    """e^{alpha x} nu(x) in logs: nu underflows where e^{alpha x} overflows."""
    d = _density_at(model, x)
    return math.exp(alpha * x + math.log(d)) if d > 0.0 else 0.0


@pytest.fixture
def rule_models(merton, vg, nig):
    return {"merton": merton, "vg": vg, "nig": nig, "kou": _kou_custom()}


@pytest.mark.parametrize("name, alphas", [
    ("merton", (-3.0, 0.5, 5.0)), ("vg", (-4.5, 0.5, 4.5)),
    ("nig", (-1.5, 1.0, 3.5)), ("kou", (-4.5, 1.0, 9.0)),
])
def test_tail_integral_matches_quad(rule_models, name, alphas):
    model = rule_models[name]
    for alpha in alphas:
        quad = sum(
            _quad_by_octaves(
                lambda x, s=sgn: _exp_weighted_density(model, alpha, s * x), 1.0, 2.0**20)
            for sgn in (1.0, -1.0))
        assert check_exponential_moment(model, alpha).tail_integral == pytest.approx(quad, rel=1e-9)


def _exp_weighted_log_density(model, alpha, x):
    return math.exp(alpha * x + float(model.log_levy_density(np.array(x))))


@pytest.mark.parametrize("alpha", [3.9, 3.99])
def test_tail_integral_near_the_strip_edge(nig, alpha):
    # below the NIG strip edge a - b = 4, e^{alpha x} nu decays slowly where
    # nu itself underflows (x ~ 180); negative control: the rule with nu from
    # levy_density, cut where nu underflows, drops the far tail
    quad = sum(
        _quad_by_octaves(lambda x, s=sgn: _exp_weighted_log_density(nig, alpha, s * x),
                         1.0, 2.0**20)
        for sgn in (1.0, -1.0))
    assert check_exponential_moment(nig, alpha).tail_integral == pytest.approx(quad, rel=1e-9)
    if alpha == 3.99:
        assert abs(density_exponential_tail(nig, alpha) / quad - 1.0) > 1e-3


def test_star_tail_integral_matches_quad(nig):
    # the shipped NIG market's star measure at alpha = 2.99, below its strip
    # edge 3: the tilt adds e^x where nu underflows (x ~ 180), so the tail
    # needs nu* in logs.  The quad takes log nu* from a second formula;
    # negative control: log nu* as log(levy_density), which cuts the tail
    star = build_mmm(MarketSpec(r=0.0, T=1.0, K=1.0, model=nig)).star
    alpha = 2.99
    quad = sum(
        _quad_by_octaves(
            lambda x, s=sgn: math.exp(alpha * s * x + star_log_levy_density(star, s * x)),
            1.0, 2.0**20)
        for sgn in (1.0, -1.0))
    assert check_exponential_moment(star, alpha).tail_integral == pytest.approx(quad, rel=1e-9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StarModel, "log_levy_density", log_of_levy_density)
        old = check_exponential_moment(star, alpha).tail_integral
    assert abs(old / quad - 1.0) > 1e-3


@pytest.mark.parametrize("name", ["merton", "vg", "nig", "kou", "star"])
def test_log_levy_density_is_the_log_of_the_density(rule_models, merton_market, name):
    model = build_mmm(merton_market).star if name == "star" else rule_models[name]
    x = np.array([-60.0, -8.0, -1.0, -0.3, -1e-3, 0.0, 1e-3, 0.02, 0.3, 1.0, 8.0, 60.0])
    d = model.levy_density(x)
    got = model.log_levy_density(x)
    normal = d >= np.finfo(float).tiny
    assert np.allclose(got[normal], np.log(d[normal]), rtol=1e-13, atol=1e-13)
    assert np.all(got[~normal] < math.log(np.finfo(float).tiny))
    assert np.isneginf(BrownianModel(sigma=0.2).log_levy_density(x)).all()


def test_tail_cutoffs_at_zero_alpha_are_unchanged(rule_models, merton_market):
    # the mark tables and truncated_nu_nodes cut nu at alpha = 0; there the
    # log rule must stop where the density rule did
    models = [*rule_models.values(), build_mmm(merton_market).star]
    for model in models:
        for sgn in (1.0, -1.0):
            for eps in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0):
                assert nu_tail_cutoff(model, sgn, eps) == density_tail_cutoff(model, sgn, eps)


@pytest.mark.parametrize("name", ["merton", "vg", "nig", "kou"])
def test_truncated_abs_moment_matches_quad(rule_models, name):
    model = rule_models[name]
    for eps in EPS_SEQUENCE:
        quad = sum(_quad_by_octaves(lambda x, s=sgn: x * _density_at(model, s * x), eps, 1.0)
                   for sgn in (1.0, -1.0))
        assert truncated_abs_moment(model, eps) == pytest.approx(quad, rel=1e-9)


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
