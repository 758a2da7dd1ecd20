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
from levyrep.fourier import DensityTable, make_density_table, make_multi_table

T = 1.0
MERTON = MertonModel(x0=0.0, mu=-0.1, sigma=0.2, gamma=1.0, m=-0.1, delta=0.3)
NIG = NIGModel(x0=0.0, mu=-0.25, sigma=0.0, a=3.0, b=-1.0, delta=1.0)
VG = VGModel(x0=0.0, mu=-0.05, sigma=0.0, C=1.0, G=5.0, M=5.0)
STAR_MERTON = build_mmm(MarketSpec(r=0.02, T=T, K=1.0, model=MERTON)).star
STAR_NIG = build_mmm(MarketSpec(r=0.02, T=T, K=1.0, model=NIG)).star
TABLE_MODELS = {"merton": MERTON, "nig": NIG, "star_merton": STAR_MERTON, "star_nig": STAR_NIG}
GRID = QuadratureGrid(alpha=1.0)
PAYOFF = digital_payoff(-0.02, alpha=1.0)


def _asymmetric(zs):
    return 1j * np.ones_like(zs)


class _RecordingMultiTable(fourier.MultiTable):
    """Keeps the full symmetric weights the table was built from."""

    def __init__(self, zs, base_ws, err_estimate):
        super().__init__(zs, base_ws, err_estimate)
        self.full_ws = [np.asarray(w) for w in base_ws]


class _RecordingDensityTable(fourier.DensityTable):
    def __init__(self, vs, base_w, err_estimate):
        super().__init__(vs, base_w, err_estimate)
        self.full_w = np.asarray(base_w)


def _recorded(build, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "MultiTable", _RecordingMultiTable)
        mp.setattr(fourier, "DensityTable", _RecordingDensityTable)
        return build(*args, **kwargs)


def _full_contour_sum(zs, w, xs):
    x = np.ravel(xs)
    return np.real(np.exp(-np.multiply.outer(x, zs)) @ w) / (2.0 * math.pi)


def _full_density_sum(vs, w, ys):
    y = np.ravel(ys)
    return np.real(np.exp(-1j * np.multiply.outer(y, vs)) @ w) / (2.0 * math.pi)


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
    vs = make_density_table(MERTON, GRID, 0.2, T, y_probe=ys).vs
    with pytest.raises(QuadratureError, match="imaginary residual"):
        DensityTable(vs, np.exp(0.8 * MERTON.psi(vs)) * (1.0 + 0.5j), 0.0).eval(ys)


def test_symmetric_tables_pass_the_check():
    table = make_multi_table(MERTON, PAYOFF, GRID, 0.2, T, [None, fourier._mult_dx])
    assert len(table.eval_all(np.linspace(-1.0, 1.0, 5))) == 2
    h = table.zs.size // 2
    assert np.array_equal(table.zs[:h][::-1], np.conj(table.zs[h:]))


# ---------------------------------------------------------------------------
# the half-spectrum kernel against the full complex sum


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(TABLE_MODELS)),
    frac=st.floats(min_value=0.0, max_value=0.98),
    xs=st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=9),
    shape=st.sampled_from(["0-d", "1-d", "(1, n)"]),
    block=st.sampled_from([None, 1, 3]),
)
def test_kernel_matches_full_complex_sum(name, frac, xs, shape, block):
    model = TABLE_MODELS[name]
    t = frac * T
    x = _shaped(xs, shape)
    mults = [None, fourier._mult_dx, fourier._make_mult_jump(0.3)]
    table = _recorded(make_multi_table, model, PAYOFF, GRID, t, T, mults, x_probe=x)
    ys = 4.0 * x
    dtable = _recorded(make_density_table, model, GRID, t, T, y_probe=ys)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            # block points per chunk, so multi-point inputs cross chunk boundaries
            mp.setattr(fourier, "EVAL_BLOCK", block * table.zs.size)
        outs = table.eval_all(x)
        dens = dtable.eval(ys)
    for out, w in zip(outs, table.full_ws):
        if shape == "0-d":
            assert isinstance(out, float)
        else:
            assert out.shape == x.shape
        assert _close(out, _full_contour_sum(table.zs, w, x))
    ref = _full_density_sum(dtable.vs, dtable.full_w, ys)
    ref[np.abs(ref) < 1e-10] = np.maximum(ref[np.abs(ref) < 1e-10], 0.0)
    if shape == "0-d":
        assert isinstance(dens, float)
    else:
        assert dens.shape == ys.shape
    assert _close(dens, ref)


def test_kernel_crosses_its_natural_chunk_boundary():
    table = _recorded(make_multi_table, NIG, PAYOFF, GRID, 0.9, T, [None, fourier._mult_dx])
    step = fourier.EVAL_BLOCK // table.zs.size
    xs = np.linspace(-1.0, 1.0, step + 7)
    for out, w in zip(table.eval_all(xs), table.full_ws):
        assert _close(out, _full_contour_sum(table.zs, w, xs))


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
