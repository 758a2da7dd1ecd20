"""Tests of the reference computations: each against an independent route
(numerical integration of its own density, scipy's moments, a martingale
identity), then against levyrep at a few points."""

import math

import numpy as np
import pytest
from scipy import integrate

import reference as R

MERTON = dict(x0=0.0, mu=-0.1, sigma=0.2, gamma=1.0, m=-0.1, delta=0.3)
NIG = dict(x0=0.0, mu=-0.25, a=3.0, b=-1.0, delta=1.0)


@pytest.fixture(scope="module")
def merton():
    return R.Merton(**MERTON)


@pytest.fixture(scope="module")
def nig():
    return R.NIG(**NIG)


def _trap_tail(density, lo, hi, q, n=200_001):
    """Trapezoid sums of the density over [q, hi] and over [lo, hi]."""
    tail_ys, ys = np.linspace(q, hi, n), np.linspace(lo, hi, n)
    return np.trapezoid(density(tail_ys), tail_ys), np.trapezoid(density(ys), ys)


# -- Merton ---------------------------------------------------------------


def test_merton_digital_is_tail_of_density(merton):
    tau, x, c = 0.7, 0.1, -0.02
    tail, mass = _trap_tail(lambda y: merton.density(tau, y), -6.0, 6.0, c - x)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert merton.digital(tau, x, c) == pytest.approx(tail, abs=1e-7)


def test_merton_dx_is_derivative(merton):
    tau, x, c, h = 0.4, -0.1, -0.02, 1e-5
    fd = (merton.digital(tau, x + h, c) - merton.digital(tau, x - h, c)) / (2 * h)
    assert merton.digital_dx(tau, x, c) == pytest.approx(fd, rel=1e-7)


def test_merton_density_moments(merton):
    ys = np.linspace(-9, 9, 60_001)
    d = merton.density(1.0, ys)
    mean, var = merton.terminal_moments(1.0)
    assert np.trapezoid(ys * d, ys) == pytest.approx(mean, abs=1e-9)
    assert np.trapezoid((ys - mean) ** 2 * d, ys) == pytest.approx(var, abs=1e-9)


def test_star_merton_is_martingale_measure(merton):
    star = R.StarMerton(merton)
    assert -1.0 < star.lam <= 0.0
    ys = np.linspace(-9, 9, 60_001)
    # E*[e^{X_T - X_t}] = 1 with r = 0 in the log-price process
    assert np.trapezoid(np.exp(ys) * star.density(0.8, ys), ys) == pytest.approx(1.0, abs=1e-9)


def test_star_merton_xi_trapezoid_converged(merton):
    star = R.StarMerton(merton)
    a = star.lrm_xi(0.02, 1.0, 1.1, 0.9, 0.05, n_trap=20_001)
    b = star.lrm_xi(0.02, 1.0, 1.1, 0.9, 0.05)
    assert a == pytest.approx(b, abs=1e-13)


# -- NIG ------------------------------------------------------------------


def test_nig_cumulants_match_scipy(nig):
    law = nig._law(1.0)
    mean, var, k4 = nig.terminal_cumulants(1.0)
    m, v, _, kurt = law.stats(moments="mvsk")
    assert mean == pytest.approx(float(m), abs=1e-12)
    assert var == pytest.approx(float(v), rel=1e-12)
    assert k4 / var**2 == pytest.approx(float(kurt), rel=1e-10)


def test_nig_digital_is_tail_of_density(nig):
    tau, x, c = 0.5, 0.2, 0.0
    tail, mass = _trap_tail(lambda y: nig.density(tau, y), -12.0, 12.0, c - x)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert nig.digital(tau, x, c)[0] == pytest.approx(tail, abs=1e-6)


def test_nig_jump_rate_against_trapezoid(nig):
    eps = 1e-3
    u = np.linspace(math.log(eps), math.log(60.0), 400_001)
    y = np.exp(u)
    rate = sum(np.trapezoid(nig.levy_density(s * y) * y, u) for s in (-1.0, 1.0))
    assert nig.jump_rate(eps) == pytest.approx(rate, rel=1e-8)


def test_nig_jump_exponent_against_quadrature(nig):
    w = 0.7 - 0.3j

    def part(sgn, f):
        val, _ = integrate.quad(lambda y: f(np.exp(1j * w * sgn * y) - 1 - 1j * w * sgn * y)
                                * nig.levy_density(sgn * y), 0.0, 60.0, limit=400,
                                points=[1e-3, 1e-2, 0.1, 1.0])
        return val

    direct = sum(part(s, np.real) + 1j * part(s, np.imag) for s in (-1.0, 1.0))
    assert complex(nig.jump_exponent(w)) == pytest.approx(direct, abs=1e-7)


def _zero_load_nig():
    """NIG with mu chosen so that mu_hat = 0: its star measure is itself."""
    base = R.NIG(**NIG)
    mu = -R.StarNIG(base).mu_hat + base.mu
    return R.NIG(NIG["x0"], mu, NIG["a"], NIG["b"], NIG["delta"])


def test_star_nig_is_martingale_measure(nig):
    star = R.StarNIG(nig)
    assert abs(complex(star.psi(-1j))) < 1e-12


def test_star_nig_gil_pelaez_matches_scipy():
    base = _zero_load_nig()
    star = R.StarNIG(base)
    assert abs(star.lam) < 1e-15
    for tau, x in ((1.0, 0.1), (0.3, -0.2), (0.02, 0.05)):
        assert star.digital(tau, x, 0.0) == pytest.approx(base.digital(tau, x, 0.0)[0],
                                                          abs=1e-8)


def test_star_nig_xi_against_jump_quadrature():
    base = _zero_load_nig()
    star = R.StarNIG(base)
    t, x, K = 0.5, 0.1, 1.0
    tau, c = 1.0 - t, math.log(K)
    f0 = base.digital(tau, x, c)[0]

    def g(y):
        return (base.digital(tau, x + y, c)[0] - f0) * math.expm1(y) * base.levy_density(y)

    nu_int = sum(integrate.quad(g, lo, hi, limit=200)[0]
                 for lo, hi in ((-8.0, -0.1), (-0.1, 0.0), (0.0, 0.1), (0.1, 8.0)))
    xi = nu_int / (math.exp(x) * star.c2)
    assert star.lrm_xi(0.0, 1.0, K, t, x) == pytest.approx(xi, abs=1e-7)


# -- agreement with levyrep -----------------------------------------------


def test_references_agree_with_levyrep(merton, nig):
    import levyrep

    grid = levyrep.QuadratureGrid(alpha=1.0)
    lm = levyrep.MertonModel(**{k: MERTON[k] for k in ("x0", "mu", "sigma", "gamma", "m",
                                                        "delta")})
    ln = levyrep.NIGModel(**NIG)
    for ref, model, c in ((merton, lm, -0.02), (nig, ln, 0.0)):
        payoff = levyrep.digital_payoff(c)
        for t, x in ((0.0, 0.0), (0.5, 0.2), (0.95, -0.1)):
            got = levyrep.conditional_value(model, payoff, grid, t, x, 1.0)
            assert got == pytest.approx(float(np.atleast_1d(ref.digital(1 - t, x, c))[0]),
                                        abs=1e-9)
        ys = np.linspace(-3, 3, 7)
        assert levyrep.density_batch(model, grid, 0.2, 1.0, ys) == pytest.approx(
            ref.density(0.8, ys), abs=1e-9)
    for ref, star_cls, model, r in ((merton, R.StarMerton, lm, 0.02),
                                    (nig, R.StarNIG, ln, 0.0)):
        market = levyrep.MarketSpec(r=r, T=1.0, K=1.1, model=model)
        transform = levyrep.build_mmm(market)
        star = star_cls(ref)
        assert star.lam == pytest.approx(transform.load, abs=1e-12)
        assert star.c2 == pytest.approx(transform.c2, abs=1e-12)
        for t, x in ((0.0, 0.0), (0.9, 0.1)):
            got = levyrep.lrm_xi(market, transform, grid, t, x, math.exp(x))
            assert got == pytest.approx(star.lrm_xi(r, 1.0, 1.1, t, x), abs=1e-9)


def test_norminvgauss_parametrisation(nig):
    """scipy's (a, b, loc, scale) with a = alpha delta tau, b = beta delta tau
    has the NIG characteristic function exp(tau J(v)) after centring."""
    tau, v = 0.6, 1.3
    law = nig._law(tau)
    ys = np.linspace(-15, 15, 300_001)
    cf = np.trapezoid(np.exp(1j * v * ys) * law.pdf(ys), ys)
    expected = np.exp(tau * (1j * v * nig.mu + nig.jump_exponent(v)))
    assert cf == pytest.approx(expected, abs=1e-8)
