"""Contour-integral engine: Gaussian closed forms, brute quadrature and
finite differences as oracles."""

import functools
import math

import numpy as np
import pytest
import scipy.integrate as integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import k1e
from scipy.stats import norm

from levyrep import (
    BrownianModel,
    DomainError,
    MarketSpec,
    MertonModel,
    NIGModel,
    ParameterError,
    QuadratureGrid,
    build_mmm,
    conditional_value,
    conditional_value_batch,
    constant_payoff,
    d2F_dx2,
    dF_dt,
    dF_dx,
    dF_dx_batch,
    density,
    density_batch,
    digital_payoff,
    grid_from_dict,
    jump_compensator,
    jump_difference,
    pide_residual,
)
from levyrep import fourier
from levyrep.simulate import moments_from_psi

T = 1.0


def _bs_digital(model, t, x, c):
    tau = T - t
    s = model.sigma * math.sqrt(tau)
    return norm.cdf((x + model.mu * tau - c) / s)


# ---------------------------------------------------------------------------
# Gaussian closed forms


def test_brownian_digital_value(brownian, grid):
    payoff = digital_payoff(-0.1, alpha=1.0)
    for t in (0.0, 0.5, 0.9):
        for x in (-0.5, 0.0, 0.4):
            num = conditional_value(brownian, payoff, grid, t, x, T)
            assert abs(num - _bs_digital(brownian, t, x, -0.1)) < 1e-10


def test_brownian_digital_derivatives(brownian, grid):
    payoff = digital_payoff(0.0, alpha=1.0)
    t, x = 0.3, 0.2
    tau = T - t
    s = brownian.sigma * math.sqrt(tau)
    d = (x + brownian.mu * tau) / s
    assert abs(dF_dx(brownian, payoff, grid, t, x, T) - norm.pdf(d) / s) < 1e-10
    d2_exact = -d * norm.pdf(d) / s**2
    assert abs(d2F_dx2(brownian, payoff, grid, t, x, T) - d2_exact) < 1e-9


def test_brownian_density_gaussian(brownian, grid):
    t = 0.25
    tau = T - t
    ys = np.linspace(-1.5, 1.5, 21)
    ref = norm.pdf(ys, loc=brownian.mu * tau, scale=brownian.sigma * math.sqrt(tau))
    num = density_batch(brownian, grid, t, T, ys)
    assert np.max(np.abs(num - ref)) < 1e-10


# ---------------------------------------------------------------------------
# derivative consistency (finite differences)


def test_dF_dt_matches_finite_difference(merton, grid):
    payoff = digital_payoff(0.0, alpha=1.0)
    t, x = 0.4, 0.15
    h = 1e-5
    fd = (
        conditional_value(merton, payoff, grid, t + h, x, T)
        - conditional_value(merton, payoff, grid, t - h, x, T)
    ) / (2 * h)
    an = dF_dt(merton, payoff, grid, t, x, T)
    assert abs(an - fd) < 1e-6 * max(1.0, abs(an))


def test_jump_difference_equals_value_difference(merton, grid):
    payoff = digital_payoff(0.0, alpha=1.0)
    t, x, y = 0.2, -0.1, 0.35
    direct = conditional_value(merton, payoff, grid, t, x + y, T) - conditional_value(
        merton, payoff, grid, t, x, T
    )
    single = jump_difference(merton, payoff, grid, t, x, y, T)
    assert abs(single - direct) < 1e-10


def test_jump_compensator_vs_brute_quadrature(merton, grid):
    payoff = digital_payoff(0.0, alpha=1.0)
    t, x = 0.3, 0.1

    def integrand(y):
        diff = conditional_value(merton, payoff, grid, t, x + y, T) - conditional_value(
            merton, payoff, grid, t, x, T
        )
        return diff * float(merton.levy_density(y))

    brute, _ = integrate.quad(integrand, -3.0, 3.0, limit=200)
    fast = jump_compensator(merton, payoff, grid, t, x, T)
    assert abs(fast - brute) < 1e-7


# ---------------------------------------------------------------------------
# the backward equation


@pytest.mark.parametrize("fixture", ["brownian", "merton"])
def test_pide_residual_vanishes(request, grid, fixture):
    model = request.getfixturevalue(fixture)
    payoff = digital_payoff(0.0, alpha=1.0)
    for t, x in ((0.1, 0.0), (0.5, -0.3), (0.8, 0.25)):
        res = pide_residual(model, payoff, grid, t, x, T)
        scale = max(1.0, abs(dF_dt(model, payoff, grid, t, x, T)))
        assert abs(res) < 1e-9 * scale


# ---------------------------------------------------------------------------
# densities


def test_density_normalizes(merton, nig, grid):
    for model in (merton, nig):
        ys = np.linspace(-8.0, 8.0, 4001)
        ps = density_batch(model, grid, 0.0, T, ys)
        assert np.all(ps > -1e-12)
        assert abs(np.trapezoid(ps, ys) - 1.0) < 1e-6


def _unit_mass(ps, ys):
    return abs(np.trapezoid(ps, ys) - 1.0) < 1e-6


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["merton", "nig"]),
       u=st.tuples(*[st.floats(0.0, 1.0)] * 4), tau=st.floats(0.2, 1.0))
def test_density_has_unit_mass_over_random_parameters(grid, kind, u, tau):
    # parameters inside each family's domain with tails light enough for a
    # finite window; the window spans 30 standard deviations (Merton's
    # clusters of several jumps included), or 25 decay lengths of the NIG
    # tail, and the step resolves the narrowest feature
    if kind == "merton":
        model = MertonModel(x0=0.0, mu=-0.1, sigma=0.1 + 0.4 * u[0], gamma=0.2 + 2.8 * u[1],
                            m=-0.3 + 0.6 * u[2], delta=0.05 + 0.45 * u[3])
        half, feature = 0.0, min(model.sigma * math.sqrt(tau), model.delta)
    else:
        a = 2.0 + 4.0 * u[0]
        model = NIGModel(x0=0.0, mu=-0.1, sigma=0.0, a=a, b=a * (u[1] - 0.5),
                         delta=0.5 + 1.5 * u[2])
        half, feature = 25.0 / (model.a - abs(model.b)), model.delta * tau
    mean, var, _, _ = moments_from_psi(model, tau)
    half = max(half, 30.0 * math.sqrt(var))
    ys = np.linspace(mean - half, mean + half, int(16.0 * half / feature) + 1)
    ps = density_batch(model, grid, 0.0, tau, ys)
    assert _unit_mass(ps, ys)
    assert not _unit_mass(1.01 * ps, ys)  # negative control


def test_density_scalar_matches_batch(merton, grid):
    ys = np.array([-0.4, 0.0, 0.6])
    batch = density_batch(merton, grid, 0.2, T, ys)
    for y, ref in zip(ys, batch):
        assert abs(density(merton, grid, 0.2, T, float(y)) - ref) < 1e-12


# ---------------------------------------------------------------------------
# near-maturity behaviour


def test_digital_value_continuous_across_fallback(nig, grid):
    # crossing into the very-short-horizon regime must not jump
    payoff = digital_payoff(0.05, alpha=1.0)
    vals = [
        conditional_value(nig, payoff, grid, T - tau, 0.0, T)
        for tau in (1e-3, 1e-4, 1e-5)
    ]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert abs(vals[1] - vals[2]) < 0.05


def _sign_inversion(model, tau, q):
    """Reference for the fallback: P(X_T - X_t > q) =
    1/2 + (1/pi) int_0^inf Im(e^{-ivq} phi(v)) / v dv as a direct complex sum
    on one node set for all of q, its panels halved until the 16- and
    24-point sums agree to 1e-9 (1 + |value|) at every point, clipped to
    [0, 1]."""
    q = np.atleast_1d(q)
    env = lambda v: np.exp(tau * np.real(model.psi(v))) / np.maximum(v, 1.0)  # noqa: E731
    v_max = fourier._auto_v_max(env, QuadratureGrid(tail_tol=1e-10, v_cap=1e8))
    edges = fourier._panel_edges(v_max, float(np.max(np.abs(q))))

    def value(order):
        gx, gw = np.polynomial.legendre.leggauss(order)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        vs = (mid[:, None] + half[:, None] * gx).ravel()
        ws = (half[:, None] * gw).ravel()
        phi_w = np.exp(tau * model.psi(vs)) / vs * ws
        return 0.5 + np.array([np.imag(np.exp(-1j * vs * qi) @ phi_w) for qi in q]) / math.pi

    for _ in range(5):
        lo, hi = value(16), value(24)
        if np.all(np.abs(hi - lo) <= 1e-9 * (1.0 + np.abs(hi))):
            return np.clip(hi, 0.0, 1.0)
        edges = np.append(np.ravel(np.column_stack([edges[:-1], 0.5 * (edges[:-1] + edges[1:])])),
                          edges[-1])
    raise AssertionError("reference did not converge")


def _counting_adapt(monkeypatch, kernel=None):
    """Count fourier._adapt calls; ``kernel`` rewrites every weight vector
    w(vs) the loop is given."""
    calls = []
    adapt = fourier._adapt

    def counted(weighted, *rest):
        calls.append(rest[-1])
        if kernel is None:
            return adapt(weighted, *rest)
        return adapt(lambda vs, ws: [kernel(w, vs) for w in weighted(vs, ws)], *rest)

    monkeypatch.setattr(fourier, "_adapt", counted)
    return calls


@pytest.mark.parametrize("tau", [1e-5, 1e-6])
@pytest.mark.parametrize("xs", [np.array([0.04]), np.linspace(0.03, 0.07, 5),
                                np.linspace(0.04, 0.06, 301)], ids=["1", "5", "301"])
def test_fallback_matches_sign_inversion_reference(nig, grid, monkeypatch, tau, xs):
    # one fallback table per call, whatever the number of points; the
    # contour's own attempt raises TruncationError before it adapts
    payoff = digital_payoff(0.05, alpha=1.0)
    calls = _counting_adapt(monkeypatch)
    got = conditional_value(nig, payoff, grid, T - tau, xs, T)
    assert calls == ["near-maturity fallback"]
    ref = _sign_inversion(nig, tau, 0.05 - xs)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_fallback_with_density_kernel_fails_the_reference(nig, grid, monkeypatch):
    # negative control: phi in place of -i phi / v inverts the density
    payoff = digital_payoff(0.05, alpha=1.0)
    xs = np.linspace(0.03, 0.07, 5)
    _counting_adapt(monkeypatch, kernel=lambda w, vs: w * 1j * vs)
    got = conditional_value(nig, payoff, grid, T - 1e-5, xs, T)
    assert np.max(np.abs(got - _sign_inversion(nig, 1e-5, 0.05 - xs))) > 1e-3


# ---------------------------------------------------------------------------
# truncated jump exponent (marks scheme)

# contour nodes z = i v - 1: both sides of |w| eps = 1 for eps = 1e-2 (v = 99,
# 101) and 1e-3 (v = 999, 1001), out to |w| eps ~ 126
_TRUNC_V = np.array([0.5, 50.0, 99.0, 101.0, 500.0, 999.0, 1001.0, 1100.0, 5000.0, 12600.0])
_TRUNC_ZS = 1j * _TRUNC_V - 1.0


def _nu_reference(model):
    """The Levy density from the model's parameters, with scipy's K1."""
    if isinstance(model, NIGModel):
        d, a, b = model.delta, model.a, model.b
        return lambda y: (d * a / math.pi * np.exp(b * y - a * np.abs(y))
                          * k1e(a * np.abs(y)) / np.abs(y))
    if isinstance(model, MertonModel):
        g, m, s = model.gamma, model.m, model.delta
        return lambda y: g / (math.sqrt(2.0 * math.pi) * s) * np.exp(-((y - m) ** 2) / (2 * s * s))
    base = _nu_reference(model.base)
    return lambda y: (1.0 - model.load * np.expm1(y)) * base(y)


def _dense_nu_rule(nu, eps, v):
    """16-point Gauss-Legendre panels for integrals against nu on |y| >= eps:
    geometric from eps to 1, unit width beyond, out to where
    nu(y) e^{2 max(y, 0)} < 1e-17, each split to a width of at most 8 / v."""
    gx, gw = np.polynomial.legendre.leggauss(16)
    ys, ws = [], []
    for sgn in (-1.0, 1.0):
        hi = 1.0
        while nu(np.array(sgn * hi)) * math.exp(max(2.0 * sgn * hi, 0.0)) > 1e-17:
            hi += 1.0
        coarse = np.concatenate([np.geomspace(eps, 1.0, 301), np.arange(2.0, hi + 1.0)])
        edges = np.concatenate([np.linspace(a, b, math.ceil((b - a) * v / 8.0) + 1)[:-1]
                                for a, b in zip(coarse[:-1], coarse[1:])] + [coarse[-1:]])
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        y = sgn * (mid[:, None] + half[:, None] * gx).ravel()
        ys.append(y)
        ws.append((half[:, None] * gw).ravel() * nu(y))
    return np.concatenate(ys), np.concatenate(ws)


@functools.lru_cache(maxsize=None)
def _dense_truncated_mults(model, eps):
    """int_{|y| >= eps} (e^{-zy} - 1) nu(dy) and the same times e^y - 1 at
    _TRUNC_ZS, by a dense rule per node and pairwise summation."""
    nu = _nu_reference(model)
    plain, weighted = [], []
    for z in _TRUNC_ZS:
        ys, ws = _dense_nu_rule(nu, eps, z.imag)
        e = np.expm1(-z * ys) * ws
        plain.append(e.sum())
        weighted.append((e * np.expm1(ys)).sum())
    return np.array(plain), np.array(weighted)


def _misfit(got, ref):
    """Largest error in units of 1e-10 max|ref|: the check passes at <= 1."""
    return np.max(np.abs(got - ref)) / (1e-10 * np.max(np.abs(ref)))


def _trunc_case(request, name, eps):
    model = request.getfixturevalue(name) if name != "star_nig" else build_mmm(
        MarketSpec(r=0.0, T=1.0, K=1.0, model=request.getfixturevalue("nig"))).star
    return model, _dense_truncated_mults(model, eps)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
@pytest.mark.parametrize("name", ["nig", "merton", "star_nig"])
def test_truncated_multipliers_match_dense_nu_rule(request, name, eps):
    model, (plain_ref, weighted_ref) = _trunc_case(request, name, eps)
    assert _misfit(fourier._mult_nu(model, eps)(_TRUNC_ZS), plain_ref) <= 1.0
    assert _misfit(fourier._mult_nu_exp(model, eps)(_TRUNC_ZS), weighted_ref) <= 1.0
    # negative control: the 800-node sum over |y| >= eps fails from v = 500 on
    ys, wts = fourier.truncated_nu_nodes(model, eps)
    high = _TRUNC_V >= 500.0
    old = np.expm1(np.multiply.outer(-_TRUNC_ZS[high], ys)) @ wts
    assert _misfit(old, plain_ref[high]) > 1.0


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_truncated_nu_nodes_reject_non_finite_eps(nig, eps):
    with pytest.raises(ParameterError):
        fourier.truncated_nu_nodes(nig, eps)


def test_truncated_series_cut_short_fails_dense_nu_rule(request, monkeypatch):
    # negative control: the series cut after k = 8 misses the k = 10 term,
    # about 2e-5 at |w| eps = 1 (the k = 20 term is below 1e-16 of the sum,
    # so no check in double precision sees it alone)
    model, (plain_ref, _) = _trunc_case(request, "nig", 1e-3)
    monkeypatch.setattr(fourier, "SMALL_JUMP_TERMS", 8)
    fourier.truncated_jump_exponent.cache_clear()
    try:
        assert _misfit(fourier._mult_nu(model, 1e-3)(_TRUNC_ZS), plain_ref) > 1.0
    finally:
        fourier.truncated_jump_exponent.cache_clear()


def test_truncated_exponent_matches_full_exponent_less_small_jumps(nig):
    # J_eps(w) + S_eps(w) = J(w): S_eps from a fine rule on [-eps, eps], at
    # nodes on both branches and at a scalar point
    J, m1 = fourier.truncated_jump_exponent(nig, 1e-3)
    nu = _nu_reference(nig)
    gx, gw = np.polynomial.legendre.leggauss(40)
    edges = np.concatenate([[0.0], np.geomspace(1e-15, 1e-3, 60)])
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    y = (mid[:, None] + half[:, None] * gx).ravel()
    ys = np.concatenate([-y, y])
    ws = np.tile((half[:, None] * gw).ravel(), 2) * nu(ys)
    w = np.array([0.3 - 1j, 800.0 - 2j, 1500.0, -4000.0 - 1j])
    u = 1j * np.multiply.outer(w, ys)
    small = ((np.expm1(u) - u) * ws).sum(axis=1)
    assert np.max(np.abs(J(w) + small - nig.jump_exponent(w))) <= 1e-12 * np.max(np.abs(small))
    assert np.ndim(J(np.array(-1j))) == 0
    # m1_eps = int y nu(dy) less the jumps below eps
    assert abs(m1 - (nig.nu_mean() - ys @ ws)) <= 1e-13


# ---------------------------------------------------------------------------
# configuration and domain errors


def test_grid_validation():
    with pytest.raises(ParameterError):
        QuadratureGrid(tol=0.0)
    g = grid_from_dict({"alpha": 1.5, "v_max": "auto"})
    assert g.alpha == 1.5 and g.v_max is None


def test_damping_outside_moment_strip(vg):
    payoff = digital_payoff(0.0, alpha=6.0)
    with pytest.raises(DomainError):
        conditional_value(vg, payoff, QuadratureGrid(alpha=6.0), 0.0, 0.0, T)


def test_batch_matches_scalar(merton, grid):
    payoff = digital_payoff(0.0, alpha=1.0)
    xs = np.array([-0.5, 0.0, 0.5])
    batch = conditional_value_batch(merton, payoff, grid, 0.2, xs, T)
    for x, ref in zip(xs, batch):
        assert abs(conditional_value(merton, payoff, grid, 0.2, float(x), T) - ref) < 1e-11
    dbatch = dF_dx_batch(merton, payoff, grid, 0.2, xs, T)
    for x, ref in zip(xs, dbatch):
        assert abs(dF_dx(merton, payoff, grid, 0.2, float(x), T) - ref) < 1e-11


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=15, deadline=None)
@given(x=st.floats(min_value=-1.0, max_value=1.0),
       dx=st.floats(min_value=0.01, max_value=1.0))
def test_digital_value_in_unit_interval_and_monotone(x, dx):
    model = MertonModel(x0=0.0, mu=-0.1, sigma=0.2, gamma=1.0, m=-0.1, delta=0.3)
    grid = QuadratureGrid(alpha=1.0)
    payoff = digital_payoff(0.0, alpha=1.0)
    lo = conditional_value(model, payoff, grid, 0.3, x, T)
    hi = conditional_value(model, payoff, grid, 0.3, x + dx, T)
    assert -1e-9 <= lo <= 1.0 + 1e-9
    assert hi >= lo - 1e-9


def test_pointwise_operations_keep_array_shape(merton, nig, grid):
    payoff = digital_payoff(0.0, alpha=1.0)
    xs = np.array([[-0.5, 0.0, 0.5], [0.1, 0.2, 0.3]])

    def jump(model, payoff, grid, t, x, T):
        return jump_difference(model, payoff, grid, t, x, 0.3, T)

    for op in (conditional_value, dF_dx, jump):
        vals = op(merton, payoff, grid, 0.2, xs, T)
        assert vals.shape == xs.shape
        assert np.array_equal(vals.ravel(), op(merton, payoff, grid, 0.2, xs.ravel(), T))
        assert type(op(merton, payoff, grid, 0.2, 0.1, T)) is float
    assert density(merton, grid, 0.2, T, xs).shape == xs.shape
    assert conditional_value(merton, payoff, grid, T, xs, T).shape == xs.shape
    # the near-maturity fallback builds one table for all the points
    near = digital_payoff(0.05, alpha=1.0)
    fb = conditional_value(nig, near, grid, T - 1e-5, xs[:, :2] / 100, T)
    assert fb.shape == (2, 2)
    assert np.array_equal(fb.ravel(), conditional_value(nig, near, grid, T - 1e-5,
                                                        xs[:, :2].ravel() / 100, T))
    one = conditional_value(nig, near, grid, T - 1e-5, xs[1, 0] / 100, T)
    assert type(one) is float and abs(one - fb[1, 0]) <= 1e-12


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_empty_point_arrays_give_empty_values(merton, nig, grid, shape):
    payoff = digital_payoff(0.0, alpha=1.0)
    xs = np.zeros(shape)

    def jump(model, payoff, grid, t, x, T):
        return jump_difference(model, payoff, grid, t, x, 0.3, T)

    for model in (merton, nig):
        for op in (conditional_value, dF_dx, jump):
            vals = op(model, payoff, grid, 0.2, xs, T)
            assert vals.shape == shape and vals.dtype == float
        vals = density(model, grid, 0.2, T, xs)
        assert vals.shape == shape and vals.dtype == float


def test_constant_payoff_needs_no_table(nig, grid):
    payoff = constant_payoff(0.7)
    xs = np.zeros((2, 3))
    assert conditional_value(nig, payoff, grid, 0.2, 0.1, T) == 0.7
    assert np.array_equal(conditional_value(nig, payoff, grid, 0.2, xs, T), xs + 0.7)
    for op in (dF_dx, d2F_dx2, dF_dt, jump_compensator, pide_residual):
        assert op(nig, payoff, grid, 0.2, 0.1, T) == 0.0
        assert np.array_equal(op(nig, payoff, grid, 0.2, xs, T), xs)


@pytest.mark.parametrize("spec", [
    {"alpah": 2.0},                       # misspelt key
    {"rule": "gauss-legendre-panels"},    # removed knob
    {"tol": "abc"},
    {"n_nodes": 256},                     # removed knob
    {"alpha": None},
    {"tol": float("nan")},
    {"alpha": float("nan")},
    {"v_max": float("inf")},
    {"tol": float("inf")},
])
def test_grid_from_dict_rejects_bad_config(spec):
    with pytest.raises(ParameterError):
        grid_from_dict(spec)


def test_grid_from_dict_accepts_every_known_key():
    g = grid_from_dict({"alpha": 0.5, "v_max": 40, "tol": "1e-8"})
    assert (g.alpha, g.v_max, g.tol) == (0.5, 40.0, 1e-8)
    assert grid_from_dict({"v_max": None}).v_max is None
    assert grid_from_dict({}) == QuadratureGrid()
