"""Jump layout of path batches and the per-step driver over it."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from oracles import fs_reference, replicate_reference

from levyrep import (
    MarketSpec,
    SchemeError,
    build_integrands,
    build_mmm,
    digital_payoff,
    fourier,
    hedging,
    replicate_batch,
    simulate,
)
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


# ---------------------------------------------------------------------------
# the per-call cache of t-independent factors: the path drivers and the
# rows of hedge_grid


@pytest.fixture(scope="module")
def merton_transform(merton_market):
    return build_mmm(merton_market)


GRID_SHAPE = (12, 15)  # rows x points of the hedge-grid cases


def _grid_runs(name, merton, nig, grid):
    """(star model, hedge_grid call, one uncached hedge_components_batch
    table per row) of a case "grid-<model>-<strike>"."""
    _, kind, K = name.split("-")
    market = MarketSpec(r=0.02 if kind == "merton" else 0.0, T=T, K=float(K),
                        model=merton if kind == "merton" else nig)
    transform = build_mmm(market)
    n_t, n_s = GRID_SHAPE

    def reference():
        ss = np.geomspace(0.5 * market.K, 2.0 * market.K, n_s)
        for t in np.linspace(0.0, 0.98 * T, n_t):
            hedging.hedge_components_batch(market, transform, grid, t,
                                           np.log(ss) - market.r * t)

    return (transform.star, lambda: hedging.hedge_grid(market, transform, grid, n_t, n_s),
            reference)


def _runs(name, batches, merton, nig, grid, merton_market, merton_transform):
    """(the model whose psi the tables call, driver call, uncached reference
    loop) of one case."""
    if name.startswith("grid"):
        return _grid_runs(name, merton, nig, grid)
    if name == "fs":
        batch = batches["merton-exact"]
        return (merton_transform.star,
                lambda: hedging.fs_path_study(merton_market, merton_transform, grid, batch),
                lambda: fs_reference(merton_market, merton_transform, grid, batch))
    batch = batches[name]
    model = merton if name == "merton-exact" else nig
    ints = build_integrands(model, digital_payoff(0.0, alpha=1.0), grid, T,
                            nu_eps=batch.eps_jump if batch.scheme == "marks" else None)
    return (model, lambda: replicate_batch(ints, batch),
            lambda: replicate_reference(ints, batch))


def _recorded(monkeypatch, call):
    """(t, points, cached, values) of every contour evaluation in call()."""
    seen = []
    contour = fourier._contour

    def recorder(model, payoff, grid, t, x, T, multipliers, cache=None):
        vals, err = contour(model, payoff, grid, t, x, T, multipliers, cache)
        seen.append((t, np.array(x), cache is not None, [np.array(v) for v in vals]))
        return vals, err

    with monkeypatch.context() as m:
        m.setattr(fourier, "_contour", recorder)
        call()
    return seen


def _worst_step_misfit(monkeypatch, driver, reference, grid):
    """Largest |driver - uncached| over every step and term, in units of
    the tolerance that accepted a table, grid.tol (1 + 2 pi max|value|)."""
    driven = _recorded(monkeypatch, driver)
    ref = _recorded(monkeypatch, reference)
    assert len(driven) == len(ref) > 0
    assert all(c for _, _, c, _ in driven) and not any(c for _, _, c, _ in ref)
    worst = 0.0
    for (t, x, _, vals), (t_ref, x_ref, _, ref_vals) in zip(driven, ref):
        assert t == t_ref and np.array_equal(x, x_ref)
        assert len(vals) == len(ref_vals)
        for v, r in zip(vals, ref_vals):
            tol = grid.tol * (1.0 + 2.0 * math.pi * np.max(np.abs(r)))
            worst = max(worst, float(np.max(np.abs(v - r))) / tol)
    return worst


CASES = ["merton-exact", "nig-marks", "fs",
         "grid-merton-0.9", "grid-merton-1.1", "grid-nig-0.9", "grid-nig-1.1"]


@pytest.mark.parametrize("name", CASES)
def test_driver_steps_match_uncached_tables(name, batches, merton, nig, grid, merton_market,
                                            merton_transform, monkeypatch):
    """F, dF/dx and the compensator (replication), F*, kappa, the
    nu-integral and the Psi*-compensator (FS), or F*, kappa and the
    nu-integral (hedge grid) at every step or row agree with one uncached
    table per step or row at the same points."""
    _, driver, reference = _runs(name, batches, merton, nig, grid, merton_market,
                                 merton_transform)
    assert _worst_step_misfit(monkeypatch, driver, reference, grid) <= 1.0


def test_cache_that_keeps_the_time_factor_fails(batches, merton, nig, grid, merton_market,
                                                merton_transform, monkeypatch):
    """Negative control: node factors that also keep their first e^{tau psi}
    drop tau from every later table on the same node set."""

    def stale_weights(self, tau, ws):
        if not hasattr(self, "stale_base"):
            self.stale_base = self.ghat * np.exp(tau * self.psi)
        return [(self.stale_base if m is None else self.stale_base * m) * ws
                for m in self.mults]

    for name in CASES:
        _, driver, reference = _runs(name, batches, merton, nig, grid, merton_market,
                                     merton_transform)
        with monkeypatch.context() as m:
            m.setattr(fourier._NodeFactors, "weights", stale_weights)
            assert _worst_step_misfit(monkeypatch, driver, reference, grid) > 1e3, name


def _psi_points(monkeypatch, cls, call):
    seen = []
    psi = cls.psi

    def recorder(self, z):
        seen.append(np.asarray(z).tobytes())
        return psi(self, z)

    with monkeypatch.context() as m:
        m.setattr(cls, "psi", recorder)
        call()
    return seen


@pytest.mark.parametrize("name", CASES)
def test_psi_reaches_each_node_set_once_per_call(name, batches, merton, nig, grid,
                                                 merton_market, merton_transform, monkeypatch):
    """Within one driver call psi is evaluated once per point set (the v_max
    ladder, each layout at each order); the uncached loop repeats them."""
    model, driver, reference = _runs(name, batches, merton, nig, grid, merton_market,
                                     merton_transform)
    cls = type(model)
    driven = _psi_points(monkeypatch, cls, driver)
    assert driven and len(set(driven)) == len(driven)
    ref = _psi_points(monkeypatch, cls, reference)
    assert len(set(ref)) < len(ref)
    assert len(driven) < len(ref)


@pytest.mark.parametrize("name", CASES)
def test_driver_calls_share_no_state(name, batches, merton, nig, grid, merton_market,
                                     merton_transform):
    """Two calls on one batch, or two grids, give equal outputs: the cache
    lives for one call only."""
    _, driver, _ = _runs(name, batches, merton, nig, grid, merton_market, merton_transform)
    first, second = driver(), driver()
    if name.startswith("grid"):
        assert first == second
        return
    keys = ("l_fs", "gains", "bracket") if name == "fs" else ("replication",)
    for key in keys:
        assert np.array_equal(first[key], second[key]), key


def _layout_work(monkeypatch, call):
    """(v_max, omega) of every ``_panel_edges`` call in call(), how many
    layouts gave each edge array, the ``_split_edges`` calls per (edges,
    pieces) and the orders of the ``_nodes_weights`` calls."""
    pairs, layouts, splits, orders = [], Counter(), Counter(), []
    panel_edges, split_edges, nodes_weights = (
        fourier._panel_edges, fourier._split_edges, fourier._nodes_weights)

    def edges(v_max, omega):
        out = panel_edges(v_max, omega)
        pairs.append((v_max, omega))
        layouts[out.tobytes()] += 1
        return out

    def split(base, k):
        splits[base.tobytes(), k] += 1
        return split_edges(base, k)

    def nodes(mid, half, order):
        orders.append(order)
        return nodes_weights(mid, half, order)

    with monkeypatch.context() as m:
        m.setattr(fourier, "_panel_edges", edges)
        m.setattr(fourier, "_split_edges", split)
        m.setattr(fourier, "_nodes_weights", nodes)
        call()
    return pairs, layouts, splits, orders


@pytest.mark.parametrize("name", CASES)
def test_layouts_are_built_once_per_call(name, batches, merton, nig, grid, merton_market,
                                         merton_transform, monkeypatch):
    """Within one call the edges are built once per (v_max, omega) layout,
    and the panels, nodes and weights once per layout, refinement level and
    order; the uncached loop builds them again for every table."""
    _, driver, reference = _runs(name, batches, merton, nig, grid, merton_market,
                                 merton_transform)
    pairs, layouts, splits, orders = _layout_work(monkeypatch, driver)
    assert pairs and len(set(pairs)) == len(pairs)
    assert all(n == layouts[base] for (base, _), n in splits.items())
    assert Counter(orders) == {16: splits.total(), 24: splits.total()}
    ref_pairs, _, ref_splits, _ = _layout_work(monkeypatch, reference)
    assert len(ref_pairs) > len(pairs) and ref_splits.total() > splits.total()
