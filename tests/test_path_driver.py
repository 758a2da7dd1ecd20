"""Jump layout of path batches and the per-step driver over it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levyrep import SchemeError, build_integrands, digital_payoff, replicate_batch, simulate
from levyrep.simulate import _accumulate, build_mark_table

T = 1.0


@pytest.fixture(scope="module")
def batches(merton, nig):
    return {
        "merton-exact": simulate(merton, T, 20, 40, seed=3),
        "merton-marks": simulate(merton, T, 20, 40, seed=4, scheme="marks", eps_jump=1e-3),
        "nig-marks": simulate(nig, T, 10, 30, seed=5, scheme="marks", eps_jump=1e-2),
    }


def _assert_layout(batch):
    """Jumps sorted by step, and each path's jumps in time order."""
    assert np.all(np.diff(batch.jump_step) >= 0)
    for p in range(batch.n_paths):
        assert np.all(np.diff(batch.jump_time[batch.jump_path == p]) > 0)


def test_simulate_coarsen_and_select_keep_jumps_sorted(batches):
    for batch in batches.values():
        assert batch.jump_size.size > 0
        assert np.all(np.diff(batch.jump_time) >= 0)
        _assert_layout(batch)
        _assert_layout(batch.coarsen(5))
        for p in (0, batch.n_paths - 1):
            one = batch.select(p)
            _assert_layout(one)
            sel = batch.jump_path == p
            assert one.n_paths == 1 and np.all(one.jump_path == 0)
            assert np.array_equal(one.jump_size, batch.jump_size[sel])
            assert np.array_equal(one.x[0], batch.x[p])


def test_steps_yield_the_jumps_of_each_step(batches):
    for batch in batches.values():
        for b in (batch, batch.coarsen(2)):
            seen = 0
            for k, t, xk, jp, jy in b.steps():
                sel = b.jump_step == k
                assert t == b.times[k]
                assert np.array_equal(xk, b.x[:, k])
                assert np.array_equal(jp, b.jump_path[sel])
                assert np.array_equal(jy, b.jump_size[sel])
                seen += jy.size
            assert k == b.n_steps - 1 and seen == b.jump_size.size


def test_steps_reject_unsorted_jumps(merton, grid):
    batch = simulate(merton, T, 20, 10, seed=6)
    assert batch.jump_size.size > 1
    order = np.argsort(batch.jump_path, kind="stable")  # path-major layout
    shuffled = replace(batch, jump_path=batch.jump_path[order],
                       jump_step=batch.jump_step[order],
                       jump_time=batch.jump_time[order],
                       jump_size=batch.jump_size[order])
    assert np.any(np.diff(shuffled.jump_step) < 0)
    with pytest.raises(SchemeError):
        next(shuffled.steps())
    ints = build_integrands(merton, digital_payoff(0.0, alpha=1.0), grid, T)
    with pytest.raises(SchemeError):
        replicate_batch(ints, shuffled)


def test_states_do_not_depend_on_the_jump_layout(batches, merton, nig):
    """x assembled from a (path, time)-sorted copy of the jumps equals x from
    the time-sorted layout bit for bit."""
    drifts = {
        "merton-exact": ((merton.mu - merton.gamma * merton.m), 0.0),
        "merton-marks": ((merton.mu - build_mark_table(merton, 1e-3).mean), 0.0),
    }
    nig_table = build_mark_table(nig, 1e-2)
    drifts["nig-marks"] = (nig.mu - nig_table.mean, math.sqrt(nig_table.small_var))
    for name, batch in batches.items():
        model = batch.model
        drift, small_sigma = drifts[name]
        lex = np.lexsort((batch.jump_time, batch.jump_path))
        assert not np.array_equal(lex, np.arange(lex.size))
        x = _accumulate(model.x0, drift * batch.dt, model.sigma, batch.dW, small_sigma,
                        batch.dB, batch.n_steps, batch.jump_path[lex],
                        batch.jump_step[lex], batch.jump_size[lex])
        assert np.array_equal(x, batch.x), name
