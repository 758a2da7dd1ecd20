"""Half-spectrum contour sums and the one-shot truncation search, against the
full complex sums and the scalar search they replace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyrep import (
    MarketSpec,
    MertonModel,
    NIGModel,
    QuadratureGrid,
    VGModel,
    build_mmm,
    density_star,
    digital_payoff,
)
from levyrep import fourier
from levyrep.errors import QuadratureError, TruncationError
from levyrep.fourier import make_density_table, make_multi_table

T = 1.0
MERTON = MertonModel(x0=0.0, mu=-0.1, sigma=0.2, gamma=1.0, m=-0.1, delta=0.3)
NIG = NIGModel(x0=0.0, mu=-0.25, sigma=0.0, a=3.0, b=-1.0, delta=1.0)
VG = VGModel(x0=0.0, mu=-0.05, sigma=0.0, C=1.0, G=5.0, M=5.0)
STAR_MERTON = build_mmm(MarketSpec(r=0.02, T=T, K=1.0, model=MERTON)).star
STAR_NIG = build_mmm(MarketSpec(r=0.02, T=T, K=1.0, model=NIG)).star
TABLE_MODELS = {"merton": MERTON, "nig": NIG, "star_merton": STAR_MERTON, "star_nig": STAR_NIG}
GRID = QuadratureGrid(alpha=1.0)
PAYOFF = digital_payoff(-0.02, alpha=1.0)


SWITCH = 8 * (fourier.CHEB_DEGREE + 1)  # the route needs more points than this


def _asymmetric(zs):
    return 1j * np.ones_like(zs)


def _recorded(build, *args, **kwargs):
    """The table of build(*args, **kwargs) with its full spectrum attached:
    the symmetric nodes ``full_zs`` and each integrand's weights on them,
    ``full_ws``.  The v < 0 weights come from the build's own ``weighted``
    callable at the mirrored nodes, not from conjugating the v > 0 half."""
    full = {}
    adapt = fourier._adapt

    def recording(weighted, *rest):
        calls = []

        def seen(vs, ws):
            calls.append((vs, ws))
            return weighted(vs, ws)

        table = adapt(seen, *rest)
        vs = table.vs
        ws = next(w for v, w in calls if v is vs)
        full["vs"] = np.concatenate([-vs[::-1], vs])
        neg, pos = weighted(-vs[::-1], ws[::-1]), weighted(vs, ws)
        full["ws"] = [np.concatenate(pair) for pair in zip(neg, pos)]
        return table

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "_adapt", recording)
        table = build(*args, **kwargs)
    table.full_zs = 1j * full["vs"] - table.alpha
    table.full_ws = full["ws"]
    return table


def _full_contour_sum(zs, w, xs):
    x = np.ravel(xs)
    return np.real(np.exp(-np.multiply.outer(x, zs)) @ w) / (2.0 * math.pi)


def _full_density_sum(dtable, ys):
    ref = _full_contour_sum(dtable.full_zs, dtable.full_ws[0], ys)
    ref[np.abs(ref) < 1e-10] = np.maximum(ref[np.abs(ref) < 1e-10], 0.0)
    return ref


def _shaped(values, shape):
    a = np.asarray(values, dtype=float)
    if shape == "0-d":
        return a[0].copy().reshape(())
    if shape == "(1, n)":
        return a.reshape(1, -1)
    return a


def _close(got, ref):
    got = np.ravel(np.asarray(got, dtype=float))
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(got - ref))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the conjugate-symmetry check sits at table construction


@pytest.mark.parametrize("n", [1, 64, 65, 1000])
def test_asymmetric_multiplier_raises_at_any_point_count(n):
    xs = np.linspace(-0.5, 0.5, n)
    q = np.quantile(xs, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(QuadratureError, match="imaginary residual"):
        table = make_multi_table(MERTON, PAYOFF, GRID, 0.2, T, [_asymmetric], x_probe=q)
        table.eval_all(xs)


class _SkewedModel:
    """Merton with a characteristic exponent that is not conjugate-symmetric."""

    def psi(self, v):
        return MERTON.psi(v) + 0.5j


@pytest.mark.parametrize("n", [1, 64, 65, 1000])
def test_asymmetric_density_weight_raises_at_any_point_count(n):
    ys = np.linspace(-3.0, 3.0, n)
    with pytest.raises(QuadratureError, match="imaginary residual"):
        make_density_table(_SkewedModel(), GRID, 0.2, T, y_probe=ys).eval(ys)
    # Merton's density weights phi x quadrature weight, times 1 + 0.5i
    adapt = fourier._adapt
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "_adapt", lambda weighted, *rest: adapt(
            lambda vs, ws: [w * (1.0 + 0.5j) for w in weighted(vs, ws)], *rest))
        with pytest.raises(QuadratureError, match="imaginary residual"):
            make_density_table(MERTON, GRID, 0.2, T, y_probe=ys).eval(ys)


@pytest.mark.parametrize("model, t", [(MERTON, 0.2), (NIG, 0.5)], ids=["merton", "nig"])
def test_asymmetry_inside_one_band_of_v_raises(model, t):
    """Negative control: a 0.1-radian phase on a band around v = 15, well
    inside the spectrum (neither the first nor the last panel), must raise."""

    def band_phase(zs):
        return np.exp(0.1j * np.exp(-(((zs.imag - 15.0) / 2.0) ** 2)))

    vs = make_multi_table(model, PAYOFF, GRID, t, T, [None]).vs
    assert vs[23] < 15.0 - 8.0 and 15.0 + 8.0 < vs[-24]
    with pytest.raises(QuadratureError, match="imaginary residual"):
        make_multi_table(model, PAYOFF, GRID, t, T, [None, band_phase])


def test_mirrored_nodes_reach_psi_once_per_panel(monkeypatch):
    points = []
    psi = MertonModel.psi
    monkeypatch.setattr(MertonModel, "psi", lambda self, w: points.append(w) or psi(self, w))
    table = make_multi_table(MERTON, PAYOFF, GRID, 0.5, T, [None, fourier._mult_dx],
                             x_probe=np.array([-0.5, 0.0, 0.5]))
    # psi is called at w = i z_v = -v - i alpha, so the v < 0 nodes have Re w > 0
    mirrored = sum(int(np.sum(np.real(w) > 0.0)) for w in points)
    assert mirrored == table.vs.size // 24


def test_symmetric_tables_pass_the_check():
    table = make_multi_table(MERTON, PAYOFF, GRID, 0.2, T, [None, fourier._mult_dx])
    assert len(table.eval_all(np.linspace(-1.0, 1.0, 5))) == 2
    assert np.all(table.zs.imag > 0.0) and np.all(table.zs.real == -1.0)


# ---------------------------------------------------------------------------
# the half-spectrum kernel against the full complex sum


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(TABLE_MODELS)),
    frac=st.floats(min_value=0.0, max_value=0.98),
    xs=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=9),
    shape=st.sampled_from(["0-d", "1-d", "(1, n)"]),
    block=st.sampled_from([None, 1, 3]),
    many=st.one_of(st.just(0), st.integers(min_value=SWITCH + 1, max_value=1500)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_matches_full_complex_sum(name, frac, xs, shape, block, many, seed):
    """Small and large point sets, so both the direct sum and the Chebyshev
    route are drawn.  A 0-d input keeps one point, so it draws no extra ones;
    about 40 of the 60 examples stay small."""
    if shape == "0-d":
        many = 0
    model = TABLE_MODELS[name]
    t = frac * T
    extra = np.random.default_rng(seed).uniform(-1.5, 1.5, many)
    x = _shaped(np.concatenate([xs, extra]), shape)
    mults = [None, fourier._mult_dx, lambda zs: np.exp(-zs * 0.3) - 1.0]
    table = _recorded(make_multi_table, model, PAYOFF, GRID, t, T, mults, x_probe=x)
    ys = 4.0 * x
    dtable = _recorded(make_density_table, model, GRID, t, T, y_probe=ys)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            # block points per chunk, so multi-point inputs cross chunk boundaries
            mp.setattr(fourier, "EVAL_BLOCK", 2 * block * table.vs.size)
        outs = table.eval_all(x)
        dens = dtable.eval(ys)
    for out, w in zip(outs, table.full_ws):
        if shape == "0-d":
            assert isinstance(out, float)
        else:
            assert out.shape == x.shape
        assert _close(out, _full_contour_sum(table.full_zs, w, x))
    ref = _full_density_sum(dtable, ys)
    if shape == "0-d":
        assert isinstance(dens, float)
    else:
        assert dens.shape == ys.shape
    assert _close(dens, ref)


def test_kernel_crosses_its_natural_chunk_boundary():
    table = _recorded(make_multi_table, NIG, PAYOFF, GRID, 0.9, T, [None, fourier._mult_dx])
    step = fourier.EVAL_BLOCK // (2 * table.vs.size)
    xs = np.linspace(-1.0, 1.0, step + 7)
    for out, w in zip(table.eval_all(xs), table.full_ws):
        assert _close(out, _full_contour_sum(table.full_zs, w, xs))


def test_density_star_keeps_the_input_shape():
    transform = build_mmm(MarketSpec(r=0.02, T=T, K=1.0, model=MERTON))
    ys = np.linspace(-3.0, 3.0, 11)
    flat = density_star(transform, GRID, 0.0, ys)
    row = density_star(transform, GRID, 0.0, ys.reshape(1, -1))
    assert flat.shape == ys.shape and row.shape == (1, ys.size)
    assert np.array_equal(row[0], flat)


# ---------------------------------------------------------------------------
# the truncation search


def _scalar_auto_v_max(envelope, grid):
    """The scalar search the ladder evaluation replaced."""
    if grid.v_max is not None:
        return grid.v_max
    v = 8.0
    hits = 0
    while v <= grid.v_cap:
        if float(envelope(np.array([v]))[0]) < grid.tail_tol:
            hits += 1
            if hits >= 3:
                return v
        else:
            hits = 0
        v *= 1.25
    raise TruncationError("envelope not below tail_tol")


def _contour_envelope(model, tau, alpha=1.0, cbar=1.0):
    def envelope(v):
        zs = 1j * v - alpha
        mag = np.exp(tau * np.real(model.psi(1j * zs)))
        return mag * (1.0 + np.abs(zs)) * cbar / np.abs(zs)

    return envelope


def _density_envelope(model, tau):
    return lambda v: np.exp(tau * np.real(model.psi(v)))


def _outcome(search, envelope, grid):
    try:
        return search(envelope, grid)
    except TruncationError:
        return "truncation"


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["merton", "nig", "vg", "star_merton"]),
    log_tau=st.floats(min_value=-6.0, max_value=0.0),
    kind=st.sampled_from(["contour", "density"]),
)
def test_ladder_search_returns_the_scalar_search_v(name, log_tau, kind):
    model = {"merton": MERTON, "nig": NIG, "vg": VG, "star_merton": STAR_MERTON}[name]
    tau = 10.0**log_tau
    if kind == "contour":
        envelope, grid = _contour_envelope(model, tau), GRID
    else:
        envelope, grid = _density_envelope(model, tau), QuadratureGrid(tail_tol=1e-13)
    new = _outcome(fourier._auto_v_max, envelope, grid)
    assert new == _outcome(_scalar_auto_v_max, envelope, grid)


def test_ladder_search_evaluates_the_envelope_once():
    calls = []

    def envelope(v):
        calls.append(v.size)
        return _contour_envelope(MERTON, 0.5)(v)

    fourier._auto_v_max(envelope, GRID)
    assert len(calls) == 1


def test_fixed_v_max_passes_through():
    def envelope(v):
        raise AssertionError("a fixed v_max needs no envelope")

    assert fourier._auto_v_max(envelope, QuadratureGrid(v_max=37.5)) == 37.5


def test_truncation_error_when_envelope_never_drops():
    small_cap = QuadratureGrid(v_cap=100.0)
    with pytest.raises(TruncationError):
        fourier._auto_v_max(_contour_envelope(NIG, 1e-5), small_cap)
    with pytest.raises(TruncationError):
        fourier._auto_v_max(lambda v: np.ones_like(v), QuadratureGrid(v_cap=10.0))


# ---------------------------------------------------------------------------
# the piecewise Chebyshev route of the kernel


def _abs_weights(W):
    h = W.shape[0] // 2
    return np.abs(W[:h]) + np.abs(W[h:])


def _route_points(vs, W, n, lo=-1.2, hi=0.9, seed=5):
    """n points on [lo, hi] with both ends, every piece edge and every
    Chebyshev point of the route's pieces, and repeated points."""
    P = fourier._cheb_pieces(vs, _abs_weights(W), hi - lo, n)
    assert P is not None
    edges, nodes = fourier._cheb_grid(lo, hi, P)
    special = np.concatenate([edges, nodes.ravel(), [0.1] * 5])
    rest = np.random.default_rng(seed).uniform(lo, hi, n - special.size)
    return np.concatenate([rest[: rest.size // 2], special, rest[rest.size // 2 :]])


@pytest.mark.parametrize("name", sorted(TABLE_MODELS))
@pytest.mark.parametrize("shape", ["1-d", "(1, n)"])
@pytest.mark.parametrize("block", [None, 7])
def test_route_matches_full_sum_at_edges_nodes_and_repeats(name, shape, block):
    mults = [None, fourier._mult_dx, lambda zs: np.exp(-zs * 0.3) - 1.0]
    table = _recorded(make_multi_table, TABLE_MODELS[name], PAYOFF, GRID, 0.5, T, mults,
                      x_probe=np.array([-1.2, 0.0, 0.9]))
    x = _shaped(_route_points(table.vs, table.W, 3000), shape)
    assert fourier._half_sum_cheb(np.ravel(x), table.vs, table.W, table.alpha) is not None
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            # block rows per route product, so the pieces cross blocks
            mp.setattr(fourier, "EVAL_BLOCK", block * (fourier.CHEB_DEGREE + 1))
        outs = table.eval_all(x)
    for out, w in zip(outs, table.full_ws):
        assert out.shape == x.shape
        assert _close(out, _full_contour_sum(table.full_zs, w, x))


@pytest.mark.parametrize("name", ["merton", "nig", "star_nig"])
def test_route_matches_full_density_sum(name):
    dtable = _recorded(make_density_table, TABLE_MODELS[name], GRID, 0.0, T,
                       y_probe=np.array([-3.0, 0.0, 3.0]))
    ys = _route_points(dtable.vs, dtable.W, 6001, lo=-3.0, hi=3.0)
    assert fourier._half_sum_cheb(ys, dtable.vs, dtable.W, 0.0) is not None
    assert _close(dtable.eval(ys), _full_density_sum(dtable, ys))


def _merton_table():
    return make_multi_table(MERTON, PAYOFF, GRID, 0.5, T, [None, fourier._mult_dx],
                            x_probe=np.array([-1.0, 0.0, 1.0]))


def test_route_switch_and_domain():
    """The direct sum at n <= SWITCH, for an all-equal input (L = 0), for
    non-finite points and when the pieces would need more than n / (4 (M+1))."""
    table = _merton_table()
    vs, W, alpha = table.vs, table.W, table.alpha

    def direct(x):
        return fourier._half_sum_direct(np.ravel(x), vs, W, alpha)

    at_switch = np.linspace(-0.2, 0.2, SWITCH)
    above = np.linspace(-0.2, 0.2, SWITCH + 1)
    assert np.array_equal(fourier._half_sum(at_switch, vs, W, alpha), direct(at_switch))
    routed = fourier._half_sum_cheb(above, vs, W, alpha)
    assert routed is not None
    assert np.array_equal(fourier._half_sum(above, vs, W, alpha), routed)

    flat = np.full(500, 0.3)
    assert fourier._half_sum_cheb(flat, vs, W, alpha) is None
    assert np.array_equal(fourier._half_sum(flat, vs, W, alpha), direct(flat))

    holes = np.linspace(-1.0, 1.0, 500)
    holes[[3, 250]] = [np.nan, np.inf]
    with np.errstate(invalid="ignore"):  # sin and cos of nan and inf
        got = fourier._half_sum(holes, vs, W, alpha)
        assert np.array_equal(got, direct(holes), equal_nan=True)
    assert np.isnan(got[3]).all() and np.isfinite(got[:3]).all()

    wide = np.linspace(-40.0, 40.0, 300)  # needs far more than 300 / 132 pieces
    assert fourier._cheb_pieces(vs, _abs_weights(W), 80.0, wide.size) is None
    assert np.array_equal(fourier._half_sum(wide, vs, W, alpha), direct(wide))


def test_route_scalar_and_row_shapes():
    table = _merton_table()
    x = np.linspace(-1.0, 1.0, 1000)
    flat = table.eval_all(x)
    row = table.eval_all(x.reshape(1, -1))
    point = table.eval_all(np.float64(0.25))
    for f, r, p in zip(flat, row, point):
        assert r.shape == (1, x.size) and np.array_equal(r[0], f)
        assert isinstance(p, float)


def _flat_spectrum(seed=1):
    """Random weights of equal size up to v = 20: no decay, so the bound is
    nearly tight, as it is for the high nodes of a short-horizon table."""
    rng = np.random.default_rng(seed)
    vs = np.linspace(0.5, 20.0, 300)
    W = rng.uniform(-1.0, 1.0, (600, 2))
    x = rng.uniform(-1.5, 1.5, 2000)
    x[[0, -1]] = [-1.5, 1.5]
    return vs, W, x


def test_route_error_stays_within_its_bound():
    vs, W, x = _flat_spectrum()
    out = fourier._half_sum_cheb(x, vs, W, 0.0)
    assert out is not None
    err = np.abs(out - fourier._half_sum_direct(x, vs, W, 0.0))
    # the a-priori bound is 1e-15 of the l1 norm; the rest is rounding
    assert np.all(err <= 1e-13 * _abs_weights(W).sum(axis=0))


def _one_rung_lower(P):
    ladder = [1, 2, 4]
    while ladder[-1] < P:
        ladder.append(int(1.25 * ladder[-1]))
    return ladder[ladder.index(P) - 1]


def test_check_flags_too_few_pieces_and_the_call_returns_the_direct_sum(monkeypatch):
    """Negative control: one rung fewer pieces than the bound asks for must
    fail the strided check, and the kernel then returns the direct sum."""
    vs, W, x = _flat_spectrum()
    pieces = fourier._cheb_pieces
    P = pieces(vs, _abs_weights(W), 3.0, x.size)
    monkeypatch.setattr(fourier, "_cheb_pieces", lambda *a: _one_rung_lower(P))
    assert fourier._half_sum_cheb(x, vs, W, 0.0) is None
    assert np.array_equal(fourier._half_sum(x, vs, W, 0.0),
                          fourier._half_sum_direct(x, vs, W, 0.0))


def test_check_flags_a_broken_interpolant(monkeypatch):
    """Negative control: a wrong barycentric weight (an indexing bug) and a
    single piece on a short-horizon NIG table must both fail the check."""
    table = make_multi_table(NIG, PAYOFF, GRID, 0.8, T, [None, fourier._mult_dx],
                             x_probe=np.array([-1.5, 0.0, 1.5]))
    x = np.linspace(-1.5, 1.5, 2000)
    args = (x, table.vs, table.W, table.alpha)
    assert fourier._half_sum_cheb(*args) is not None
    with monkeypatch.context() as mp:
        bw = fourier._CHEB_BW.copy()
        bw[5] = -bw[5]
        mp.setattr(fourier, "_CHEB_BW", bw)
        assert fourier._half_sum_cheb(*args) is None
    with monkeypatch.context() as mp:
        mp.setattr(fourier, "_cheb_pieces", lambda *a: 1)
        assert fourier._half_sum_cheb(*args) is None
