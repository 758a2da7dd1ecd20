"""The angle-addition kernel of the half sum against the sum node by node,
the reuse of the accepted probe sum, and the probe points against
np.quantile."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyrep import MertonModel, NIGModel, QuadratureGrid, conditional_value, digital_payoff
from levyrep import fourier
from levyrep.fourier import make_density_table

from oracles import half_sum_direct, probe_quantiles

T = 1.0
MERTON = MertonModel(x0=0.0, mu=-0.1, sigma=0.2, gamma=1.0, m=-0.1, delta=0.3)
NIG = NIGModel(x0=0.0, mu=-0.25, sigma=0.0, a=3.0, b=-1.0, delta=1.0)
GRID = QuadratureGrid(alpha=1.0)
PAYOFF = digital_payoff(-0.02, alpha=1.0)
EPS = np.finfo(float).eps

# the kernel's rounding bound: KERNEL_C eps (1 + v_max max|x|) times each
# column's l1 norm times e^{alpha x}.  A node's phase v x carries a rounding
# error of about eps v |x|, on either route, and each sum adds its terms'
# rounding; at KERNEL_C = 1 the kernel stays within a third of the bound on
# random panels and weights, and within 1.1 of it on the suite's tables.
KERNEL_C = 4.0


def _panels(v_max, omega, level, order):
    """Midpoints, half-widths and nodes of ``_panel_edges`` split 2^level
    times: geometric panels, then a run at the width cap 30 / omega."""
    edges = fourier._split_edges(fourier._panel_edges(v_max, omega), 2**level)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vs, _ = fourier._nodes_weights(mid, half, order)
    return mid, half, vs


def _weights(vs, columns, decay, seed):
    """Random stacked weights [Re w; Im w] under the envelope e^{-decay v / v_max}."""
    rng = np.random.default_rng(seed)
    env = np.exp(-decay * vs / vs[-1])
    return rng.uniform(-1.0, 1.0, (2 * vs.size, columns)) * np.concatenate([env, env])[:, None]


def _within_bound(got, ref, vs, W, x, alpha):
    h = vs.size
    l1 = (np.abs(W[:h]) + np.abs(W[h:])).sum(axis=0)
    bound = KERNEL_C * EPS * (1.0 + vs[-1] * np.max(np.abs(x))) * l1 * np.exp(alpha * x)[:, None]
    return bool(np.all(np.abs(got - ref) <= bound))


@settings(max_examples=80, deadline=None)
@given(
    v_max=st.floats(min_value=8.0, max_value=2000.0),
    log_omega=st.floats(min_value=-1.5, max_value=1.3),
    level=st.integers(min_value=0, max_value=3),
    order=st.sampled_from([16, 24]),
    alpha=st.sampled_from([0.0, 1.0]),
    columns=st.integers(min_value=1, max_value=3),
    decay=st.floats(min_value=0.0, max_value=30.0),
    log_x=st.floats(min_value=-2.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=600),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fold_matches_the_sum_node_by_node(v_max, log_omega, level, order, alpha, columns,
                                           decay, log_x, n, seed):
    mid, half, vs = _panels(v_max, 10.0**log_omega, level, order)
    if vs.size > 6000:
        level = 0  # keep the reference sum small
        mid, half, vs = _panels(v_max, 10.0**log_omega, level, order)
    W = _weights(vs, columns, decay, seed)
    x = np.random.default_rng(seed + 1).uniform(-(10.0**log_x), 10.0**log_x, n)
    got = fourier._Fold(mid, half, W).sum(x, alpha)
    assert _within_bound(got, half_sum_direct(x, vs, W, alpha), vs, W, x, alpha)


@pytest.mark.parametrize("order", [16, 24])
@pytest.mark.parametrize("v_max, omega, level", [(300.0, 0.1, 0), (900.0, 3.0, 0), (120.0, 1.0, 2)],
                         ids=["geometric", "cap-run", "split"])
def test_fold_with_one_pair_sine_flipped_fails_the_bound(order, v_max, omega, level):
    """Negative control: the sine rows of one mirrored pair with the wrong
    sign, i.e. sin(h g x) taken for the other node of the pair."""
    mid, half, vs = _panels(v_max, omega, level, order)
    W = _weights(vs, 2, 5.0, 7)
    x = np.linspace(-1.0, 1.0, 50)
    ref = half_sum_direct(x, vs, W, 1.0)
    fold = fourier._Fold(mid, half, W)
    assert _within_bound(fold.sum(x, 1.0), ref, vs, W, x, 1.0)
    fold.F[order // 2 + 3] *= -1.0
    assert not _within_bound(fold.sum(x, 1.0), ref, vs, W, x, 1.0)


def test_fold_shares_the_trig_of_equal_widths():
    mid, half, vs = _panels(900.0, 3.0, 1, 24)
    fold = fourier._Fold(mid, half, _weights(vs, 1, 0.0, 1))
    assert fold.offsets.shape == (np.unique(half).size, 12)
    assert np.unique(half).size < mid.size // 4


def test_fold_crosses_its_chunk_boundary(monkeypatch):
    mid, half, vs = _panels(400.0, 2.0, 1, 24)
    W = _weights(vs, 3, 10.0, 3)
    fold = fourier._Fold(mid, half, W)
    G, j = fold.offsets.shape
    monkeypatch.setattr(fourier, "EVAL_BLOCK", 2 * 5 * (G * j + mid.size * 3))
    x = np.linspace(-2.0, 2.0, 5 * 3 + 2)
    got = fold.sum(x, 1.0)
    assert _within_bound(got, half_sum_direct(x, vs, W, 1.0), vs, W, x, 1.0)


# ---------------------------------------------------------------------------
# which sums fold


def _table(n_probe=5):
    return fourier.make_multi_table(NIG, PAYOFF, GRID, 0.5, T, [None, fourier._mult_dx],
                                    x_probe=np.linspace(-1.0, 1.0, n_probe))


def test_probes_and_small_sums_take_the_sum_node_by_node(monkeypatch):
    built = []
    fold = fourier._Fold
    monkeypatch.setattr(fourier, "_Fold", lambda *a: built.append(1) or fold(*a))
    table = _table()
    conditional_value(NIG, PAYOFF, GRID, 0.98, 0.1, T)
    assert built == []
    n = (fourier.FOLD_POINT_NODES - 1) // table.vs.size
    assert n > len(fourier._PROBE_QUANTILES)
    table.eval_all(np.linspace(-1.0, 1.0, n))
    assert built == []
    table.eval_all(np.linspace(-1.0, 1.0, n + 1))
    table.eval_all(np.linspace(-1.0, 1.0, 7))
    assert built == [1]


def test_folded_routes_match_themselves():
    """With the table's fold, the kernel at n <= 264 points is the fold's
    direct sum and above it the Chebyshev route, which also runs its node
    and check sums through the fold."""
    table = _table()
    x = np.linspace(-1.0, 1.0, 1000)
    outs = table.eval_all(x)
    vs, W, alpha, fold = table.vs, table.W, table.alpha, table._fold
    assert fold is not None
    routed = fourier._half_sum_cheb(x, vs, W, alpha, fold)
    assert routed is not None
    for out, col in zip(outs, routed.T):
        assert np.array_equal(out, col)
    few = np.linspace(-0.2, 0.2, 8 * (fourier.CHEB_DEGREE + 1))
    assert np.array_equal(fourier._half_sum(few, vs, W, alpha, fold), fold.sum(few, alpha))
    assert not np.array_equal(fold.sum(few, alpha), fourier._half_sum_direct(few, vs, W, alpha))


# ---------------------------------------------------------------------------
# the accepted probe sum is reused


def _count_half_sums(monkeypatch):
    calls = []
    half_sum = fourier._half_sum
    monkeypatch.setattr(fourier, "_half_sum",
                        lambda x, *rest: calls.append(np.size(x)) or half_sum(x, *rest))
    return calls


@pytest.mark.parametrize("model", [MERTON, NIG], ids=["merton", "nig"])
def test_density_reuses_its_probe_sum(monkeypatch, model):
    ys = np.linspace(-9.0, 9.0, 6001)
    calls = _count_half_sums(monkeypatch)
    got = fourier.density(model, GRID, 0.0, T, ys)
    assert calls == [6001] * 4  # the 16- and 24-point sums of two levels
    table = make_density_table(model, GRID, 0.0, T, y_probe=ys)
    table.probe_sum = None
    assert np.array_equal(got, table.eval(ys))


def test_scalar_contour_reuses_its_probe_sum(monkeypatch):
    calls = _count_half_sums(monkeypatch)
    got = conditional_value(MERTON, PAYOFF, GRID, 0.5, 0.1, T)
    assert calls and len(calls) % 2 == 0 and set(calls) == {1}
    table = fourier.make_multi_table(MERTON, PAYOFF, GRID, 0.5, T, [None], x_probe=[0.1])
    table.probe_sum = None
    assert got == table.eval_all(0.1)[0]


def test_probe_sum_is_a_copy():
    ys = np.linspace(-3.0, 3.0, 11)
    table = make_density_table(MERTON, GRID, 0.2, T, y_probe=ys)
    first = table.eval(ys)
    first[:] = -1.0
    ys[0] = 5.0  # the table keeps its own probe points
    assert np.all(table.eval(np.linspace(-3.0, 3.0, 11)) >= 0.0)


# ---------------------------------------------------------------------------
# probe points


_POINT_LISTS = st.one_of(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
    st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]), min_size=1, max_size=12),
)


def _probe_parity(probe):
    @settings(max_examples=300, deadline=None, database=None)
    @given(xs=_POINT_LISTS)
    @example(xs=[0.3])
    @example(xs=[-0.0])
    @example(xs=[1.0, 2.0])
    @example(xs=[0.0, -0.0])
    @example(xs=[3.0, 1.0, 2.0])
    @example(xs=[4.0, 1.0, 1.0, 2.0])
    @example(xs=list(np.linspace(-1.0, 1.0, 1001)))
    def check(xs):
        x = np.array(xs)
        assert np.array_equal(probe(x), probe_quantiles(x))

    return check


def test_probe_matches_numpy_quantile():
    _probe_parity(fourier._probe)()


def test_probe_parity_rejects_the_midpoint_rule():
    """Negative control: the midpoint rule differs from the linear one."""
    q = [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(AssertionError):
        _probe_parity(lambda x: np.unique(np.quantile(x, q, method="midpoint")))()


@pytest.mark.parametrize("xs", [[1.0, math.nan, 2.0], [math.inf], [1.0, math.inf],
                                [-math.inf, 1.0, math.inf], [2.0, math.nan]])
def test_probe_of_non_finite_points_matches_numpy(xs):
    with np.errstate(invalid="ignore"):
        ref = probe_quantiles(np.array(xs))
    assert np.array_equal(fourier._probe(np.array(xs)), ref, equal_nan=True)


def test_probe_of_a_scalar_is_the_point():
    assert np.array_equal(fourier._probe(np.float64(-0.25)), [-0.25])
    assert np.array_equal(fourier._probe(np.array([[0.5, -0.5]])), [-0.5, -0.25, 0.0, 0.25, 0.5])
