"""Path simulation: distributional checks against psi-implied cumulants."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest, norm

from levyrep import (
    BrownianModel,
    ParameterError,
    SchemeError,
    moments_from_psi,
    simulate,
)
from levyrep.simulate import build_mark_table


def _terminal(batch):
    return batch.x[:, -1] - batch.x[:, 0]


def test_determinism_and_seed_sensitivity(merton):
    a = simulate(merton, 1.0, 50, 200, seed=3)
    b = simulate(merton, 1.0, 50, 200, seed=3)
    c = simulate(merton, 1.0, 50, 200, seed=4)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_brownian_terminal_is_exactly_gaussian(brownian):
    batch = simulate(brownian, 1.0, 20, 4000, seed=1)
    z = (_terminal(batch) - brownian.mu) / brownian.sigma
    assert kstest(z, norm.cdf).pvalue > 0.01


@pytest.mark.parametrize("fixture", ["merton", "vg", "nig"])
def test_exact_scheme_matches_psi_moments(request, fixture):
    model = request.getfixturevalue(fixture)
    T = 1.0
    batch = simulate(model, T, 10, 20000, seed=2)
    xT = _terminal(batch)
    mean, var, skew, kurt = moments_from_psi(model, T)
    se_mean = math.sqrt(var / xT.size)
    assert abs(xT.mean() - mean) < 4 * se_mean
    assert abs(xT.var() - var) < 0.05 * var
    assert abs((((xT - xT.mean()) / xT.std()) ** 3).mean() - skew) < 0.2


def test_marks_scheme_agrees_with_exact(merton):
    T = 1.0
    exact = simulate(merton, T, 10, 20000, seed=5)
    marks = simulate(merton, T, 10, 20000, seed=6, scheme="marks", eps_jump=1e-3)
    a, b = _terminal(exact), _terminal(marks)
    se = math.sqrt(a.var() / a.size + b.var() / b.size)
    assert abs(a.mean() - b.mean()) < 4 * se
    assert abs(a.var() - b.var()) < 0.05 * a.var()


def test_nig_marks_small_jump_correction_default_on(nig):
    batch = simulate(nig, 1.0, 10, 100, seed=7, scheme="marks", eps_jump=1e-2)
    assert batch.scheme == "marks"
    # infinite-variation models get a Gaussian small-jump proxy by default
    assert np.any(batch.dB != 0.0)


@pytest.mark.parametrize("fixture", ["merton", "vg", "nig"])
@pytest.mark.parametrize("eps", [1e-3, 1e-2, 0.3])
def test_mark_table_small_variance_matches_quad(request, fixture, eps):
    # int_{|y| < eps} y^2 nu(dy), which scales the Gaussian small-jump proxy
    model = request.getfixturevalue(fixture)
    quad = sum(integrate.quad(lambda u, s=s: u * u * float(model.levy_density(np.array(s * u))),
                              0.0, eps, epsabs=0.0, epsrel=1e-13)[0] for s in (1.0, -1.0))
    assert build_mark_table(model, eps).small_var == pytest.approx(quad, rel=1e-9)


def test_coarsen_preserves_noise(merton):
    fine = simulate(merton, 1.0, 100, 50, seed=8)
    coarse = fine.coarsen(4)
    assert coarse.n_steps == 25
    # terminal state and jump marks are unchanged, Gaussian increments re-summed
    assert np.allclose(coarse.x[:, -1], fine.x[:, -1], atol=1e-12)
    assert coarse.jump_size.size == fine.jump_size.size
    assert np.allclose(coarse.dW.sum(axis=1), fine.dW.sum(axis=1), atol=1e-12)


def test_coarsen_rejects_bad_factor(merton):
    fine = simulate(merton, 1.0, 100, 10, seed=9)
    with pytest.raises(ParameterError):
        fine.coarsen(7)


@pytest.mark.parametrize("T, n_steps, n_paths", [
    (math.nan, 5, 3),
    (math.inf, 5, 3),
    (1.0, 2.5, 3),
    (1.0, 5, 2.5),
], ids=["nan-T", "inf-T", "fractional-steps", "fractional-paths"])
def test_simulate_rejects_bad_horizon_and_counts(nig, T, n_steps, n_paths):
    with pytest.raises(ParameterError):
        simulate(nig, T, n_steps, n_paths, seed=1)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_marks_scheme_rejects_non_finite_eps(nig, eps):
    with pytest.raises(ParameterError):
        simulate(nig, 1.0, 5, 3, seed=1, scheme="marks", eps_jump=eps)
    with pytest.raises(ParameterError):
        build_mark_table(nig, eps)


def test_numpy_integer_counts_are_accepted(nig):
    a = simulate(nig, 1.0, np.int64(5), np.int64(3), seed=1, scheme="marks")
    b = simulate(nig, 1.0, 5, 3, seed=1, scheme="marks")
    assert (a.n_steps, a.n_paths) == (5, 3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.jump_size, b.jump_size)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None], ids=["negative", "float", "str", "none"])
def test_simulate_rejects_bad_seed(merton, seed):
    with pytest.raises(ParameterError, match="seed"):
        simulate(merton, 1.0, 5, 3, seed=seed)


def test_numpy_integer_seed_is_accepted(merton):
    a = simulate(merton, 1.0, 5, 3, seed=np.uint32(4))
    b = simulate(merton, 1.0, 5, 3, seed=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.jump_size, b.jump_size)


def test_unknown_scheme_rejected(merton):
    with pytest.raises(SchemeError):
        simulate(merton, 1.0, 10, 10, scheme="euler")


def test_mark_table_moments(merton):
    eps = 1e-3
    table = build_mark_table(merton, eps)
    # rate = nu(|y| >= eps): for Merton, almost the full intensity gamma
    assert abs(table.rate - merton.gamma) < 1e-2
    rng = np.random.default_rng(0)
    ys = table.sample(rng, 50000)
    assert np.all(np.abs(ys) >= eps * (1 - 1e-9))
    # sampled mark mean vs the Gaussian mark mean
    assert abs(ys.mean() - merton.m) < 4 * merton.delta / math.sqrt(ys.size) + 1e-3


def test_moments_from_psi_brownian():
    model = BrownianModel(x0=0.0, mu=0.07, sigma=0.3)
    mean, var, skew, kurt = moments_from_psi(model, 2.0)
    assert abs(mean - 0.14) < 1e-12
    assert abs(var - 0.18) < 1e-12
    assert abs(skew) < 1e-12 and abs(kurt) < 1e-12


def test_jump_times_within_horizon(merton):
    batch = simulate(merton, 2.0, 20, 500, seed=11)
    assert np.all(batch.jump_time >= 0.0) and np.all(batch.jump_time <= 2.0)
    assert np.all(batch.jump_step >= 0) and np.all(batch.jump_step < 20)
