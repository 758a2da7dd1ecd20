"""Representation integrands u/theta and Monte Carlo replication."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import (
    BrownianModel,
    MertonModel,
    ParameterError,
    QuadratureGrid,
    SchemeError,
    build_integrands,
    conditional_value,
    dF_dx,
    digital_payoff,
    jump_difference,
    polynomial_payoff,
    replicate_batch,
    replicate_on_path,
    simulate,
    sqrt_abs_decomposition,
)

T = 1.0


@pytest.fixture(scope="module")
def merton_ints(merton, grid):
    return build_integrands(merton, digital_payoff(0.0, alpha=1.0), grid, T)


def test_nan_nu_eps_is_rejected(nig, grid):
    with pytest.raises(ParameterError):
        build_integrands(nig, digital_payoff(0.0, alpha=1.0), grid, T, nu_eps=float("nan"))


def test_u_is_sigma_times_dFdx(merton, grid, merton_ints):
    payoff = digital_payoff(0.0, alpha=1.0)
    for s, x in ((0.2, -0.3), (0.6, 0.1)):
        expected = merton.sigma * dF_dx(merton, payoff, grid, s, x, T)
        assert abs(merton_ints.u(s, x) - expected) < 1e-10


def test_theta_is_value_difference(merton, grid, merton_ints):
    payoff = digital_payoff(0.0, alpha=1.0)
    s, x, y = 0.4, -0.1, 0.3
    expected = conditional_value(merton, payoff, grid, s, x + y, T) - conditional_value(
        merton, payoff, grid, s, x, T
    )
    assert abs(merton_ints.theta(s, x, y) - expected) < 1e-10


@pytest.mark.parametrize("name, nu_eps", [("merton", None), ("nig", 1e-3)])
def test_pointwise_integrands_share_the_engine(request, grid, name, nu_eps):
    # u, theta and value are priced by the same tables as the public engine
    model = request.getfixturevalue(name)
    payoff = digital_payoff(0.0, alpha=1.0)
    ints = build_integrands(model, payoff, grid, T, nu_eps=nu_eps)
    for s, x, y in ((0.2, -0.3, 0.25), (0.7, 0.1, -0.4)):
        assert ints.value(s, x) == conditional_value(model, payoff, grid, s, x, T)
        F = conditional_value(model, payoff, grid, s, np.array([x, x + y]), T)
        assert ints.theta(s, x, y) == F[1] - F[0]
        dF = dF_dx(model, payoff, grid, s, x, T)
        assert abs(ints.u(s, x) - model.sigma * dF) <= 1e-14


def test_mean_equals_time_zero_value(merton_ints, merton):
    assert abs(merton_ints.mean - merton_ints.value(0.0, merton.x0)) < 1e-10


def test_decomposed_payoff_sums_parts(merton, grid):
    ints = build_integrands(merton, sqrt_abs_decomposition(), grid, T)
    xs = np.array([-1.5, -0.2, 0.7])
    assert np.allclose(ints.claim(xs), np.sqrt(np.abs(xs)), atol=1e-14)
    # value of the decomposition = sum of the parts' conditional values
    v = ints.value(0.3, 0.2)
    parts = [
        conditional_value(merton, p, grid, 0.3, 0.2, T) for _, p in
        sqrt_abs_decomposition().parts
    ]
    assert abs(v - sum(parts)) < 1e-8


def test_zero_noise_replication_is_exact():
    # sigma = 0, no jumps: the claim is deterministic, replication = mean
    model = BrownianModel(x0=0.1, mu=0.3, sigma=0.0)
    grid = QuadratureGrid(alpha=1.0)
    payoff = polynomial_payoff([0.5, 1.0, 0.25])  # 0.5 + x + 0.25 x^2
    ints = build_integrands(model, payoff, grid, T)
    x_T = 0.1 + 0.3 * T
    expected = 0.5 + x_T + 0.25 * x_T**2
    assert abs(ints.mean - expected) < 1e-12
    batch = simulate(model, T, 10, 5, seed=0)
    report = replicate_batch(ints, batch)
    assert report["mse"] < 1e-24
    assert abs(report["mean_replication"] - expected) < 1e-12


def test_replication_unbiased_small_batch(merton, grid, merton_ints):
    batch = simulate(merton, T, 100, 500, seed=13)
    report = replicate_batch(merton_ints, batch)
    assert set(report) >= {"n_paths", "n_steps", "mse", "mean_claim",
                           "mean_replication", "se"}
    err = abs(report["mean_replication"] - merton_ints.mean)
    assert err < 4 * report["se"]
    assert report["mse"] < 0.1


def test_replication_mse_decreases_with_steps(merton, grid, merton_ints):
    fine = simulate(merton, T, 200, 400, seed=14)
    mse_fine = replicate_batch(merton_ints, fine)["mse"]
    mse_coarse = replicate_batch(merton_ints, fine.coarsen(4))["mse"]
    assert mse_fine < mse_coarse


def test_replicate_on_path_matches_batch(merton, merton_ints):
    batch = simulate(merton, T, 50, 8, seed=15)
    report = replicate_batch(merton_ints, batch)
    v = replicate_on_path(merton_ints, batch, path_index=3)
    assert abs(v - report["replication"][3]) < 1e-10


def test_one_path_batch_reports_zero_se(merton, merton_ints):
    one = simulate(merton, T, 20, 1, seed=16)
    batch = simulate(merton, T, 20, 4, seed=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = replicate_batch(merton_ints, one)
        v = replicate_on_path(merton_ints, batch, path_index=0)
    assert report["n_paths"] == 1 and report["se"] == 0.0
    assert abs(v - replicate_batch(merton_ints, batch)["replication"][0]) < 1e-10


# ---------------------------------------------------------------------------
# scheme compatibility


def test_near_maturity_step_rejected(merton, merton_ints):
    batch = simulate(merton, T, 20000, 2, seed=0)
    with pytest.raises(SchemeError):
        replicate_batch(merton_ints, batch)


def test_exact_infinite_activity_batch_rejected(nig, grid):
    from levyrep import DomainError
    # infinite-variation jumps have no full plain compensator, which only a
    # path driver asks for; u and theta exist without it ...
    plain = build_integrands(nig, digital_payoff(0.0, alpha=1.0), grid, T)
    with pytest.raises(DomainError):
        plain.parts[0].evaluate(0.5, np.array([0.0]))
    assert plain.theta(0.5, 0.0, 0.2) == jump_difference(
        nig, digital_payoff(0.0, alpha=1.0), grid, 0.5, 0.0, 0.2, T)
    # ... and exact-scheme paths carry no marks to replay against
    ints = build_integrands(nig, digital_payoff(0.0, alpha=1.0), grid, T,
                            nu_eps=1e-3)
    batch = simulate(nig, T, 20, 5, seed=0)  # exact scheme: no marks
    for integrands in (plain, ints):
        with pytest.raises(SchemeError):
            replicate_batch(integrands, batch)


def test_truncation_level_mismatch_rejected(merton, grid, merton_ints):
    batch = simulate(merton, T, 20, 5, seed=0, scheme="marks", eps_jump=1e-3)
    with pytest.raises(SchemeError):
        replicate_batch(merton_ints, batch)  # built with nu_eps=None
    ints = build_integrands(merton, digital_payoff(0.0, alpha=1.0), grid, T,
                            nu_eps=1e-3)
    report = replicate_batch(ints, batch)
    assert np.isfinite(report["mse"])


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=10, deadline=None)
@given(y=st.floats(min_value=1e-4, max_value=0.05))
def test_theta_lipschitz_near_zero_jump(y):
    # away from the digital kink, |theta(s, x, y)| <= L |y| with L the local
    # slope bound of F
    model = MertonModel(x0=0.0, mu=-0.1, sigma=0.2, gamma=1.0, m=-0.1, delta=0.3)
    grid = QuadratureGrid(alpha=1.0)
    ints = build_integrands(model, digital_payoff(0.0, alpha=1.0), grid, T)
    s, x = 0.5, 0.4  # x away from the kink at 0
    val = ints.theta(s, x, y)
    slope = dF_dx(model, digital_payoff(0.0, alpha=1.0), grid, s, x, T)
    assert abs(val) <= 2.0 * max(slope, 0.1) * y


@pytest.fixture(scope="module")
def digital_ints(merton, nig, grid):
    payoff = digital_payoff(0.0, alpha=1.0)
    return {"merton": build_integrands(merton, payoff, grid, T),
            "nig-marks": build_integrands(nig, payoff, grid, T, nu_eps=1e-3)}


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["merton", "nig-marks"]), s=st.floats(0.0, 0.9),
       x=st.floats(-0.3, 0.3), y=st.floats(-0.3, 0.3))
def test_theta_is_value_difference_over_random_states(digital_ints, grid, kind, s, x, y):
    # theta from one table at [x, x + y], F from a table per point, each to
    # grid.tol (1 + 2 pi |F|); negative control: the jump moved by 0.05
    ints = digital_ints[kind]
    theta = ints.theta(s, x, y)
    tol = 3.0 * grid.tol * (1.0 + 2.0 * np.pi)
    assert abs(theta - (ints.value(s, x + y) - ints.value(s, x))) <= tol
    assert abs(theta - (ints.value(s, x + y + 0.05) - ints.value(s, x))) > tol


def test_theta_vanishes_at_zero_jump(merton_ints):
    assert merton_ints.theta(0.5, 0.2, 0.0) == 0.0
