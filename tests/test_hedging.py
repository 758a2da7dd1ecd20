"""Locally risk-minimizing hedge ratios and the hedging decomposition."""

import math

import numpy as np
import pytest
import scipy.integrate as integrate
from scipy.stats import norm

from levyrep import (
    MarketSpec,
    NIGModel,
    build_mmm,
    conditional_value,
    digital_payoff,
    fs_decomposition_on_path,
    hedge_components,
    hedge_grid,
    lrm_xi,
    orthogonality_check,
    simulate,
)
from levyrep import fourier
from levyrep.fourier import truncated_nu_nodes
from levyrep.hedging import fs_path_study, hedge_components_batch


@pytest.fixture(scope="module")
def merton_transform(merton_market):
    return build_mmm(merton_market)


@pytest.fixture(scope="module")
def brownian_transform(brownian_market):
    return build_mmm(brownian_market)


def test_complete_market_delta_closed_form(brownian_market, brownian_transform, grid):
    # nu = 0, r = 0: xi is the Black-Scholes digital delta
    sigma = brownian_market.model.sigma
    for t in (0.0, 0.4, 0.8):
        tau = brownian_market.T - t
        for s in (0.8, 1.0, 1.25):
            x_t = math.log(s)
            d2 = (x_t - brownian_market.strike_level() - sigma**2 * tau / 2) / (
                sigma * math.sqrt(tau)
            )
            expected = norm.pdf(d2) / (s * sigma * math.sqrt(tau))
            got = lrm_xi(brownian_market, brownian_transform, grid, t, x_t, s)
            assert abs(got - expected) < 1e-8


def test_brownian_hedge_has_no_jump_terms(brownian_market, brownian_transform, grid):
    xs = np.array([-0.2, 0.0, 0.3])
    F, kappa, nu_int, psi_comp, _ = hedge_components_batch(
        brownian_market, brownian_transform, grid, 0.3, xs, with_psi_compensator=True
    )
    assert np.all(nu_int == 0.0) and np.all(psi_comp == 0.0)
    assert nu_int.shape == psi_comp.shape == kappa.shape == xs.shape
    assert np.all(kappa > 0.0) and np.all((F > 0.0) & (F < 1.0))


def test_nu_integral_vs_brute_quadrature(merton_market, merton_transform, grid):
    t, x = 0.3, 0.1
    star = merton_transform.star
    payoff = digital_payoff(merton_market.strike_level(), alpha=1.0)

    # Psi* is a star-measure value difference, but the integral runs against
    # the physical Levy measure
    def integrand(y):
        diff = conditional_value(star, payoff, grid, t, x + y, merton_market.T) - \
            conditional_value(star, payoff, grid, t, x, merton_market.T)
        return diff * math.expm1(y) * float(merton_market.model.levy_density(y))

    brute, _ = integrate.quad(integrand, -3.0, 3.0, limit=200)
    comp = hedge_components(merton_market, merton_transform, grid, t, x)
    assert abs(comp.nu_integral - brute) < 1e-7


def test_hedge_components_consistency(merton_market, merton_transform, grid):
    t, x = 0.2, -0.05
    comp = hedge_components(merton_market, merton_transform, grid, t, x)
    sigma = merton_market.model.sigma
    denom = sigma**2 + merton_transform.c2
    s_hat = math.exp(x)
    expected_xi = math.exp(-merton_market.r * merton_market.T) / (s_hat * denom) * (
        comp.kappa * sigma**2 + comp.nu_integral
    )
    assert comp.xi == pytest.approx(expected_xi, rel=1e-12)
    assert lrm_xi(merton_market, merton_transform, grid, t, x, s_hat) == \
        pytest.approx(comp.xi, rel=1e-10)


def test_hedge_grid_shape(merton_market, merton_transform, grid):
    rows = hedge_grid(merton_market, merton_transform, grid, n_t=4, n_s=7)
    assert len(rows) == 28
    ts = sorted({r[0] for r in rows})
    ss = sorted({r[1] for r in rows})
    assert len(ts) == 4 and len(ss) == 7
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.98 * merton_market.T)
    assert ss[0] == pytest.approx(0.5 * merton_market.K)
    assert ss[-1] == pytest.approx(2.0 * merton_market.K)
    assert all(np.isfinite(r[2:]).all() for r in (np.array(r) for r in rows))


def test_complete_market_orthogonal_part_vanishes(brownian_market, brownian_transform, grid):
    batch = simulate(brownian_market.model, brownian_market.T, 100, 50, seed=21)
    study = fs_path_study(brownian_market, brownian_transform, grid, batch)
    # nu = 0: L^H is identically zero along every path
    assert np.max(np.abs(study["l_fs"])) < 1e-10
    assert np.max(np.abs(study["bracket"])) < 1e-10


def test_identity_error_shrinks_with_refinement(merton_market, merton_transform, grid):
    fine = simulate(merton_market.model, merton_market.T, 200, 400, seed=22)
    mse_fine = fs_path_study(merton_market, merton_transform, grid, fine)["identity_mse"]
    coarse = fine.coarsen(4)
    mse_coarse = fs_path_study(merton_market, merton_transform, grid, coarse)["identity_mse"]
    assert mse_fine < mse_coarse


def test_decomposition_on_single_path(merton_market, merton_transform, grid):
    batch = simulate(merton_market.model, merton_market.T, 50, 6, seed=23)
    report = fs_decomposition_on_path(merton_market, merton_transform, grid, batch,
                                      path_index=2)
    state = report["state"]
    assert state.t == pytest.approx(merton_market.T)
    assert state.eta == pytest.approx(state.v_hat - state.xi * state.s_hat)
    v_direct = report["h0"] + report["gains"][0] + report["l_fs"][0]
    assert state.v_hat == pytest.approx(v_direct)


def test_orthogonality_statistic_fields(merton_market, merton_transform, grid):
    batch = simulate(merton_market.model, merton_market.T, 50, 200, seed=24)
    out = orthogonality_check(merton_market, merton_transform, grid, batch)
    assert set(out) == {"mean", "se", "z", "n_paths", "xi_scale"}
    assert out["n_paths"] == 200
    assert out["se"] > 0 and np.isfinite(out["z"])


def test_xi_scaling_shifts_bracket(merton_market, merton_transform, grid):
    # perturbing xi by a factor changes the bracket linearly in (1 - scale)
    batch = simulate(merton_market.model, merton_market.T, 50, 200, seed=25)
    b1 = fs_path_study(merton_market, merton_transform, grid, batch,
                       xi_scale=1.0)["bracket"]
    b2 = fs_path_study(merton_market, merton_transform, grid, batch,
                       xi_scale=1.2)["bracket"]
    b3 = fs_path_study(merton_market, merton_transform, grid, batch,
                       xi_scale=1.4)["bracket"]
    assert np.allclose(b3 - b2, b2 - b1, atol=1e-8)


# ---------------------------------------------------------------------------
# truncated Levy measure (the marks scheme)


@pytest.fixture(scope="module")
def nig_market():
    nig = NIGModel(x0=0.0, mu=-0.25, sigma=0.0, a=3.0, b=-1.0, delta=1.0)
    return MarketSpec(r=0.0, T=1.0, K=1.0, model=nig)


def _brute_truncated_terms(market, transform, grid, t, xs, eps):
    """Sums over the truncated nu-nodes of F*(x + y) - F*(x), times e^y - 1
    and times 1, with F* from one conditional_value call on the star model."""
    ys, wts = truncated_nu_nodes(market.model, eps)
    payoff = digital_payoff(market.strike_level(), alpha=grid.alpha)
    pts = np.concatenate([xs, np.add.outer(xs, ys).ravel()])
    F = conditional_value(transform.star, payoff, grid, t, pts, market.T)
    diff = F[xs.size:].reshape(xs.size, ys.size) - F[: xs.size, None]
    return diff @ ((np.exp(ys) - 1.0) * wts), diff @ wts


@pytest.mark.parametrize("t", [0.2, 0.5])
def test_truncated_hedge_terms_match_brute_sums(nig_market, grid, t):
    transform = build_mmm(nig_market)
    xs = np.array([-0.2, 0.0, 0.15])
    nu_ref, comp_ref = _brute_truncated_terms(nig_market, transform, grid, t, xs, 1e-2)
    _, _, nu_int, psi_comp, _ = hedge_components_batch(
        nig_market, transform, grid, t, xs, eps=1e-2, with_psi_compensator=True)
    assert np.max(np.abs(nu_int - nu_ref)) <= 1e-8
    assert np.max(np.abs(psi_comp - comp_ref)) <= 1e-8
    # negative control: the full measure adds the jumps below eps
    _, _, nu_full, _, _ = hedge_components_batch(nig_market, transform, grid, t, xs)
    assert np.max(np.abs(nu_full - nu_ref)) > 1e-8


def test_fs_path_study_runs_on_a_marks_batch(nig_market, grid):
    transform = build_mmm(nig_market)
    batch = simulate(nig_market.model, nig_market.T, 5, 20, seed=8, scheme="marks",
                     eps_jump=1e-3)
    study = fs_path_study(nig_market, transform, grid, batch)
    assert study["n_paths"] == 20 and study["n_steps"] == 5
    assert np.all(np.isfinite(study["l_fs"])) and np.all(np.isfinite(study["bracket"]))


def test_fs_path_study_builds_the_truncated_exponent_once(nig_market, grid, monkeypatch):
    # one truncated_nu_nodes sum per (model, eps) for the whole study: the
    # hedge's multipliers and the compensator mean share the cached build
    transform = build_mmm(nig_market)
    batch = simulate(nig_market.model, nig_market.T, 5, 20, seed=8, scheme="marks",
                     eps_jump=1e-3)
    calls = []
    nodes = fourier.truncated_nu_nodes

    def counted(*args, **kwargs):
        calls.append(args)
        return nodes(*args, **kwargs)

    monkeypatch.setattr(fourier, "truncated_nu_nodes", counted)
    fourier.truncated_jump_exponent.cache_clear()
    fs_path_study(nig_market, transform, grid, batch)
    assert calls == [(nig_market.model, 1e-3)]
    assert fourier.truncated_jump_exponent.cache_info().misses == 1
