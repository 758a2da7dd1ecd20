"""Minimal martingale measure: load constants, tilted triplet, density."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import (
    AssumptionError,
    MarketSpec,
    MertonModel,
    ParameterError,
    QuadratureGrid,
    VGModel,
    build_mmm,
    check_assumption3,
    density_star,
    mmm_log_density,
    psi_star,
    simulate,
)
from scipy import integrate

from levyrep.simulate import moments_from_psi
from oracles import jump_exponent_quadrature


@pytest.fixture(scope="module")
def transform(merton_market):
    return build_mmm(merton_market)


def test_merton_load_constants_closed_form(merton, transform):
    g, m, d = merton.gamma, merton.m, merton.delta
    c2 = g * (math.exp(2 * m + 2 * d * d) - 2 * math.exp(m + d * d / 2) + 1)
    jbar1 = g * (math.exp(m + d * d / 2) - 1 - m)
    mu_hat = merton.mu + 0.5 * merton.sigma**2 + jbar1
    assert abs(transform.c2 - c2) < 1e-12
    assert abs(transform.mu_hat - mu_hat) < 1e-12
    assert abs(transform.load - mu_hat / (merton.sigma**2 + c2)) < 1e-12
    assert abs(transform.girsanov_w - transform.load * merton.sigma) < 1e-15


def test_martingale_identity(transform):
    # discounted price is a star-measure martingale: psi*(-i) = 0
    assert abs(psi_star(transform, -1j)) < 1e-8


def test_star_jump_exponent_vs_brute_quadrature(transform):
    star = transform.star
    for w in (0.8, -1.2 + 0.4j):
        closed = complex(star.jump_exponent(np.array(w, dtype=complex)))
        brute = jump_exponent_quadrature(star, w)
        assert abs(closed - brute) < 1e-7 * max(1.0, abs(closed))


@pytest.mark.parametrize("name", ["merton", "nig"])
def test_star_nu_moments_match_quadrature(request, name):
    model = request.getfixturevalue(name)
    star = build_mmm(MarketSpec(r=0.02, T=1.0, K=1.0, model=model)).star
    moments = star.nu_moments()
    assert moments[0] == star.nu_mean()
    for k, m in zip((2, 3, 4), moments[1:]):
        quad = sum(integrate.quad(lambda x: x**k * float(star.levy_density(np.array(x))),
                                  a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                   for a, b in ((-40.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 40.0)))
        assert m == pytest.approx(quad, rel=1e-10)
    # the polynomial payoffs and the simulator's targets read these moments
    assert moments_from_psi(star, 1.0)[1] == pytest.approx(star.sigma**2 + moments[1])


def test_star_levy_density_is_tilted(transform, merton):
    xs = np.array([-0.5, -0.1, 0.2, 0.8])
    factor = 1.0 - transform.load * (np.exp(xs) - 1.0)
    assert np.allclose(
        transform.star.levy_density(xs), factor * merton.levy_density(xs),
        rtol=1e-12,
    )


def test_star_density_normalizes_and_prices(transform, grid):
    ys = np.linspace(-6.0, 6.0, 3001)
    ps = density_star(transform, grid, 0.0, ys)
    assert abs(np.trapezoid(ps, ys) - 1.0) < 1e-6
    # martingale pricing: E*[e^{X_T - X_0}] = 1
    assert abs(np.trapezoid(np.exp(ys) * ps, ys) - 1.0) < 1e-5


def test_radon_nikodym_mean_one(merton, merton_market, transform):
    batch = simulate(merton, merton_market.T, 10, 20000, seed=17)
    w = np.exp(mmm_log_density(transform, batch))
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 1.0) < 3 * se
    assert mmm_log_density(transform, batch, path_index=5) == pytest.approx(
        float(np.log(w[5]))
    )


def test_drift_inequality_violation_raises(merton):
    from dataclasses import replace
    bad = replace(merton, mu=0.5)  # mu_hat > 0
    with pytest.raises(AssumptionError):
        build_mmm(MarketSpec(r=0.0, T=1.0, K=1.0, model=bad))


def test_divergent_c2_raises():
    # M = 1.5 < 2: int (e^x - 1)^2 nu diverges
    model = VGModel(x0=0.0, mu=-0.1, sigma=0.0, C=1.0, G=5.0, M=1.5)
    with pytest.raises(AssumptionError):
        build_mmm(MarketSpec(r=0.0, T=1.0, K=1.0, model=model))


def test_market_validation(merton):
    with pytest.raises(ParameterError):
        MarketSpec(r=-0.01, T=1.0, K=1.0, model=merton)
    with pytest.raises(ParameterError):
        MarketSpec(r=0.0, T=0.0, K=1.0, model=merton)
    with pytest.raises(ParameterError):
        MarketSpec(r=0.0, T=1.0, K=-2.0, model=merton)
    mkt = MarketSpec(r=0.05, T=2.0, K=1.2, model=merton)
    assert mkt.strike_level() == pytest.approx(math.log(1.2) - 0.1)


@pytest.mark.parametrize("r, T, K", [
    (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, math.inf, 1.0),
    (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
], ids=["nan-r", "inf-r", "nan-T", "inf-T", "nan-K", "inf-K"])
def test_market_rejects_non_finite_values(merton, r, T, K):
    with pytest.raises(ParameterError, match="finite"):
        MarketSpec(r=r, T=T, K=K, model=merton)


# ---------------------------------------------------------------------------
# assumption checker


def test_assumption3_matrix(merton, vg, nig):
    assert check_assumption3(MarketSpec(r=0.02, T=1.0, K=1.0, model=merton)).ok
    assert check_assumption3(MarketSpec(r=0.0, T=1.0, K=1.0, model=nig)).ok
    chk = check_assumption3(MarketSpec(r=0.0, T=1.0, K=1.0, model=vg))
    assert not chk.ok
    # VG passes the load inequality but fails via the decay clause
    assert chk.c2_finite and chk.mu_hat_ok and not chk.decay_ok


# ---------------------------------------------------------------------------
# property test: the measure change neutralizes the drift for any admissible
# jump-diffusion


@settings(max_examples=15, deadline=None)
@given(
    sigma=st.floats(min_value=0.05, max_value=0.5),
    gamma=st.floats(min_value=0.1, max_value=3.0),
    m=st.floats(min_value=-0.3, max_value=0.2),
    delta=st.floats(min_value=0.05, max_value=0.5),
    frac=st.floats(min_value=0.05, max_value=0.95),
)
def test_martingale_identity_random_merton(sigma, gamma, m, delta, frac):
    g = gamma
    c2 = g * (math.exp(2 * m + 2 * delta**2) - 2 * math.exp(m + delta**2 / 2) + 1)
    jbar1 = g * (math.exp(m + delta**2 / 2) - 1 - m)
    # place mu so that mu_hat = -frac (sigma^2 + C2), inside the open interval
    mu = -frac * (sigma**2 + c2) - 0.5 * sigma**2 - jbar1
    model = MertonModel(x0=0.0, mu=mu, sigma=sigma, gamma=g, m=m, delta=delta)
    transform = build_mmm(MarketSpec(r=0.0, T=1.0, K=1.0, model=model))
    assert abs(psi_star(transform, -1j)) < 1e-8
