"""Jump time order, mark sampler and mark-table cache of ``simulate``,
checked against ``np.argsort``, ``np.interp`` and the plain reference
simulation in ``oracles``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import simulate
from levyrep.simulate import _packed_order, _time_order, build_mark_table
from oracles import simulate_reference

FIELDS = ("x", "dW", "dB", "jump_path", "jump_step", "jump_time", "jump_size")


@st.composite
def jump_times(draw):
    """Times in [0, T] for n on both sides of a power of two, with exact
    duplicates, neighbours one ulp apart and tiny times whose fixed-point
    values differ only below the kept prefix bits."""
    k = draw(st.integers(1, 12))
    n = 2**k + draw(st.sampled_from((-1, 0, 1)))
    T = draw(st.sampled_from((0.7, 1.0, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jt = rng.uniform(0.0, T, n)
    kind = rng.integers(0, 5, n)
    jt = np.where(kind == 1, jt[rng.integers(0, n, n)], jt)           # duplicates
    jt = np.where(kind == 2, np.nextafter(jt, T), jt)                 # one ulp up
    jt = np.where(kind == 3, 1e-9 * T * (1.0 + 1e-12 * rng.integers(0, 3, n)), jt)
    jt[rng.integers(0, n)] = T * draw(st.sampled_from((0.0, 1.0)))
    return jt, T


@settings(max_examples=200, deadline=None)
@given(case=jump_times())
def test_time_order_is_stable_argsort(case):
    jt, T = case
    assert np.array_equal(_time_order(jt, T), np.argsort(jt, kind="stable"))


def test_packed_order_without_tie_fixup_fails_on_near_ties():
    # the two middle times differ far below the fixed-point quantum of T/2**61
    jt = np.array([0.3, 1e-10 * (1.0 + 2.0**-40), 1e-10, 0.7])
    expected = np.argsort(jt, kind="stable")
    order, prefix = _packed_order(jt, 1.0)
    assert prefix[0] == prefix[1]
    assert not np.array_equal(order, expected)
    assert np.array_equal(_time_order(jt, 1.0), expected)


@pytest.mark.parametrize("fixture, eps", [("nig", 1e-3), ("merton", 1e-2), ("vg", 1e-3)])
def test_inverse_cdf_is_np_interp(request, fixture, eps):
    table = build_mark_table(request.getfixturevalue(fixture), eps)
    u = table.u_grid
    mids = 0.5 * (u[1:] + u[:-1])
    draws = np.random.default_rng(7).uniform(0.0, 1.0, 200_000)
    for pts in (np.zeros(1), u, mids, draws):
        assert np.array_equal(table.inverse_cdf(pts), np.interp(pts, u, table.y_grid))


@pytest.mark.parametrize("fixture, T, n_steps, n_paths, scheme, eps", [
    ("merton", 2.0, 20, 500, "exact", None),
    ("merton", 1.0, 250, 150, "exact", None),
    ("merton", 1.0, 10, 300, "marks", 1e-2),
    ("nig", 3.0, 10, 100, "marks", 1e-3),
    ("vg", 1.0, 10, 300, "marks", 1e-3),
], ids=["merton-exact-T2", "merton-exact", "merton-marks", "nig-marks-T3", "vg-marks"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_path_batch_equals_reference(request, fixture, T, n_steps, n_paths, scheme, eps,
                                     seed):
    model = request.getfixturevalue(fixture)
    batch = simulate(model, T, n_steps, n_paths, seed=seed, scheme=scheme,
                     eps_jump=eps or 1e-3)
    ref = simulate_reference(model, T, n_steps, n_paths, seed, scheme, eps or 1e-3)
    assert batch.jump_size.size > 0
    for name, want in zip(FIELDS, ref):
        got = getattr(batch, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_path_batch_equals_reference_at_benchmark_size(nig):
    batch = simulate(nig, 1.0, 10, 3000, seed=1, scheme="marks", eps_jump=1e-3)
    ref = simulate_reference(nig, 1.0, 10, 3000, 1, "marks", 1e-3)
    assert batch.jump_size.size > 1_000_000
    for name, want in zip(FIELDS, ref):
        assert np.array_equal(getattr(batch, name), want), name


def test_mark_table_is_built_once_and_read_only(nig):
    eps = 0.0123  # not used elsewhere, so the first call below builds
    misses = build_mark_table.cache_info().misses
    a = simulate(nig, 1.0, 5, 20, seed=1, scheme="marks", eps_jump=eps)
    b = simulate(nig, 1.0, 5, 20, seed=2, scheme="marks", eps_jump=eps)
    assert build_mark_table.cache_info().misses == misses + 1
    assert a.jump_size.size and b.jump_size.size
    table = build_mark_table(nig, eps)
    for arr in (table.u_grid, table.y_grid, table.slopes, table.u_next, table.guide):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
