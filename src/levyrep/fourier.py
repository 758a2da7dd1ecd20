"""Damped-contour quadrature engine.

Everything here evaluates integrals of the form

    (1/2pi) int_R  m(z_v) ghat(x, -i z_v) phi(t, i z_v) dv,    z_v = i v - alpha,

for multipliers m covering F, its x/t-derivatives, jump differences and
compensated jump integrals, plus the (undamped) transition density.  Nodes are
composite Gauss-Legendre panels, frequency-aware in the oscillation rate and
refined until two quadrature orders agree; the truncation bound grows until
the integrand envelope is negligible.

The nodes are symmetric in +/-v and every integrand is conjugate-symmetric,
w(-v) = conj(w(v)), so each sum -- table evaluation and the convergence
probes alike -- runs over the v > 0 half only, in real arithmetic:

    (1/pi) e^{alpha x} sum_{v>0} [Re w cos(vx) + Im w sin(vx)]

(``_half_sum``; alpha = 0 for the density).  The symmetry itself is checked
once, when ``MultiTable`` or ``DensityTable`` is constructed from the full
symmetric node set, so an asymmetric multiplier raises QuadratureError
whatever the number of points later evaluated.

One private evaluator, ``_contour``, builds every contour table: the public
operations (``conditional_value``, ``dF_dx``, ``d2F_dx2``, ``dF_dt``,
``jump_difference``, ``jump_compensator``, the nu-term of ``pide_residual``),
the representation integrands, the hedge and the path drivers all pass it
their multipliers and points.  It owns the one probe policy -- the table is
tuned at the distinct 0, 1/4, 1/2, 3/4 and 1 quantiles of the points -- and
returns a float for a scalar point, an array of the input's shape otherwise.
One refinement loop, ``_adapt``, refines contour and density tables alike.
``conditional_value_batch``, ``dF_dx_batch`` and ``density_batch`` are the
same functions under their batch names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError, QuadratureError, TruncationError
from .models import BrownianModel, LevyModel
from .payoffs import DampedPayoff

IMAG_RESIDUAL_TOL = 1e-8
EVAL_BLOCK = 4_000_000  # trig-matrix entries per block of evaluation points


@dataclass(frozen=True)
class QuadratureGrid:
    """Contour configuration: damping alpha, truncation, node budget."""

    alpha: float = 1.0
    v_max: float | None = None  # None -> grow until the envelope is negligible
    n_nodes: int = 256
    tol: float = 1e-9
    tail_tol: float = 1e-12
    v_cap: float = 1e6
    max_nodes: int = 400_000

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ParameterError("alpha must be finite")
        if self.n_nodes < 64 or self.n_nodes % 2:
            raise ParameterError("n_nodes must be even and >= 64")
        if self.v_max is not None and not 0 < self.v_max < math.inf:
            raise ParameterError("v_max must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ParameterError("tol must be positive and finite")


# config keys of grid_from_dict and the type each is read as
_GRID_KEYS = {"alpha": float, "v_max": float, "n_nodes": int, "tol": float}


def grid_from_dict(spec: dict) -> QuadratureGrid:
    """QuadratureGrid from a config's ``grid`` block; ``v_max`` may be
    None or "auto".  Unknown keys and non-numeric values raise
    ParameterError."""
    unknown = sorted(set(spec) - set(_GRID_KEYS))
    if unknown:
        raise ParameterError(f"unknown grid keys {unknown}; known: {sorted(_GRID_KEYS)}")
    kwargs = {}
    for key, value in spec.items():
        if key == "v_max" and value in (None, "auto"):
            kwargs[key] = None
            continue
        try:
            kwargs[key] = _GRID_KEYS[key](value)
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"grid {key} must be a number, got {value!r}") from None
    return QuadratureGrid(**kwargs)


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_edges(v_max: float, omega: float, n_min_panels: int = 8) -> np.ndarray:
    """Panel edges on [0, v_max]: geometric growth away from the origin,
    width capped so a 24-point rule resolves the local oscillation."""
    h_cap = 30.0 / max(omega, 1e-12)
    h0 = min(v_max / n_min_panels, h_cap, 4.0)
    edges = [0.0]
    h = h0
    while edges[-1] < v_max:
        edges.append(min(edges[-1] + h, v_max))
        h = min(h * 1.4, h_cap)
    return np.asarray(edges)


def _split_edges(edges: np.ndarray, k: int) -> np.ndarray:
    if k <= 1:
        return edges
    pieces = [np.linspace(a, b, k + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
    return np.append(np.concatenate(pieces), edges[-1])


def _nodes_weights(edges: np.ndarray, order: int):
    """Nodes and weights on the positive-side panels ``edges``; the tables
    mirror them to -v."""
    gx, gw = _gl_rule(order)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    vs = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    ws = (half[:, None] * gw[None, :]).ravel()
    return vs, ws


def _auto_v_max(envelope: Callable[[np.ndarray], np.ndarray], grid: QuadratureGrid) -> float:
    """Smallest v on the ladder 8, 8*1.25, 8*1.25^2, ... <= v_cap at which the
    integrand envelope has stayed below tail_tol for three consecutive rungs;
    the envelope is evaluated once on the whole ladder."""
    if grid.v_max is not None:
        return grid.v_max
    ladder = []
    v = 8.0
    while v <= grid.v_cap:
        ladder.append(v)
        v *= 1.25
    if len(ladder) >= 3:
        below = envelope(np.array(ladder)) < grid.tail_tol
        third = below[2:] & below[1:-1] & below[:-2]
        if third.any():
            return ladder[int(np.argmax(third)) + 2]
    raise TruncationError(
        f"integrand envelope not below {grid.tail_tol:g} within v <= {grid.v_cap:g}"
    )


def _stack(half_ws) -> np.ndarray:
    """[Re w; Im w] / pi with one column per integrand's v > 0 weights."""
    w = np.column_stack(half_ws)
    return np.concatenate([w.real, w.imag]) / math.pi


def _positive_half(vs: np.ndarray, weights):
    """v > 0 half of a symmetric node set and the stacked weights of every
    integrand on it.  The half sum is exact only for conjugate-symmetric
    weights, w(-v) = conj(w(v)); a weight vector whose asymmetry exceeds
    IMAG_RESIDUAL_TOL of its l1 norm raises QuadratureError."""
    h = vs.size // 2
    if vs.size % 2 or not np.array_equal(vs[:h][::-1], -vs[h:]):
        raise QuadratureError("quadrature nodes are not symmetric in +/-v")
    half = []
    for w in weights:
        w = np.asarray(w, dtype=complex)
        asym = float(np.sum(np.abs(w[:h][::-1] - np.conj(w[h:]))))
        scale = float(np.sum(np.abs(w)))
        if asym > IMAG_RESIDUAL_TOL * scale:
            raise QuadratureError(
                f"imaginary residual {asym / scale:.3g} exceeds tolerance: "
                "weights are not conjugate-symmetric in v"
            )
        half.append(w[h:])
    return vs[h:], _stack(half)


def _half_sum(xs, vs: np.ndarray, W: np.ndarray, alpha: float) -> np.ndarray:
    """(1/pi) e^{alpha x} sum_{v>0} [Re w cos(vx) + Im w sin(vx)] at every
    point of xs (flattened) for every column of W = _stack(...): the real
    part of the full symmetric sum (1/2pi) sum_v w e^{-(iv - alpha) x}.
    One [cos | sin] @ W product per block of points gives all columns."""
    x = np.ravel(xs)
    h = vs.size
    out = np.empty((x.size, W.shape[1]))
    step = max(1, EVAL_BLOCK // (2 * h))
    trig = np.empty((min(step, x.size), 2 * h))
    for i in range(0, x.size, step):
        xb = x[i : i + step]
        tb = trig[: xb.size]
        np.multiply.outer(xb, vs, out=tb[:, :h])
        np.sin(tb[:, :h], out=tb[:, h:])
        np.cos(tb[:, :h], out=tb[:, :h])
        ob = np.matmul(tb, W, out=out[i : i + step])
        if alpha:
            ob *= np.exp(alpha * xb)[:, None]
    return out


class MultiTable:
    """Several contour integrals sharing one adapted node set.

    ``zs`` is the full symmetric node set z_v = i v - alpha and each entry of
    ``base_ws`` holds weights x multiplier x transform x phi on it for one
    integrand.  The constructor checks that every entry is conjugate-symmetric
    and keeps the v > 0 half; ``eval_all(xs)`` computes the trig matrix of the
    points once and applies every integrand's weights to it in one product
    (``_half_sum``).
    """

    def __init__(self, zs, base_ws, err_estimate):
        self.zs = zs
        self.err_estimate = err_estimate
        self._alpha = -float(zs[0].real)
        self._vs, self._W = _positive_half(zs.imag, base_ws)

    def eval_all(self, xs):
        xs = np.asarray(xs, dtype=float)
        vals = _half_sum(xs, self._vs, self._W, self._alpha)
        if xs.ndim == 0:
            return [float(v) for v in vals[0]]
        return [col.reshape(xs.shape) for col in vals.T]


def _check_contour_domain(model: LevyModel, payoff: DampedPayoff, alpha: float):
    lo, hi = model.exp_moment_strip()
    if not (lo < alpha < hi):
        raise DomainError(
            f"damping alpha={alpha:g} outside the model moment strip ({lo:g}, {hi:g})"
        )
    plo, phi_ = payoff.alpha_interval
    if not (plo < alpha < phi_):
        raise DomainError(
            f"damping alpha={alpha:g} outside payoff interval ({plo:g}, {phi_:g})"
        )


def make_multi_table(
    model: LevyModel,
    payoff: DampedPayoff,
    grid: QuadratureGrid,
    t: float,
    T: float,
    multipliers,
    x_probe=None,
    extra_omega: float = 0.0,
) -> MultiTable:
    """Adapt one contour node set until every multiplier's probe converges."""
    if t >= T:
        raise DomainError("contour table needs t < T")
    if payoff.transform0 is None:
        raise DomainError(f"payoff kind {payoff.kind!r} has no damped transform")
    alpha = grid.alpha if payoff.alpha_interval[0] < grid.alpha < payoff.alpha_interval[1] else payoff.alpha
    _check_contour_domain(model, payoff, alpha)
    tau = T - t

    if x_probe is None:
        x_probe = np.array([payoff.osc_center])
    x_probe = np.atleast_1d(np.asarray(x_probe, dtype=float))
    omega = float(np.max(np.abs(x_probe - payoff.osc_center))) + extra_omega

    # payoff-scale constant for the truncation envelope
    z_ref = 1j * 1.0 - alpha
    cbar = float(
        np.max(np.abs(z_ref * payoff.transform_contour(np.array([z_ref]))))
        * np.max(np.exp(-alpha * x_probe))
    )
    cbar = max(cbar, 1e-30)

    def envelope(v):
        zs = 1j * v - alpha
        w = 1j * zs
        mag = np.exp(tau * np.real(model.psi(w)))
        return mag * (1.0 + np.abs(zs)) * cbar / np.abs(zs)

    v_max = _auto_v_max(envelope, grid)

    def weighted(vs, ws):
        zs = 1j * vs - alpha
        base = payoff.transform_contour(zs) * np.exp(tau * model.psi(1j * zs))
        return [(base if m is None else base * m(zs)) * ws for m in multipliers]

    base_edges = _panel_edges(v_max, omega, n_min_panels=max(8, grid.n_nodes // 32))
    vs, ws, err = _adapt(weighted, base_edges, x_probe, alpha, grid, "contour")
    return MultiTable(1j * vs - alpha, ws, err)


def _adapt(weighted, base_edges, probe, alpha, grid, what):
    """The one refinement loop of contour and density tables.

    Splits every panel of ``base_edges`` into 2^level pieces until the 16-
    and 24-point Gauss-Legendre sums of every integrand agree at every probe
    point, to ``grid.tol`` relative to 1 + |2pi value| (the scale of the
    unnormalised sum).  ``weighted(vs, ws)`` gives each integrand's weights
    on nodes vs with quadrature weights ws.  Returns the full symmetric
    24-point nodes, each integrand's weights on them and the probe error.
    """
    prev = None
    for level in range(7):
        edges = _split_edges(base_edges, 2**level)
        if 2 * (edges.size - 1) * 24 > grid.max_nodes:
            raise TruncationError(f"{what} node budget exhausted before convergence")
        vs16, ws16 = _nodes_weights(edges, 16)
        p_lo = _half_sum(probe, vs16, _stack(weighted(vs16, ws16)), alpha)
        vs24, ws24 = _nodes_weights(edges, 24)
        hi = weighted(vs24, ws24)
        p_hi = _half_sum(probe, vs24, _stack(hi), alpha)
        errs = np.max(np.abs(p_hi - p_lo), axis=0)
        scales = 1.0 + 2.0 * math.pi * np.max(np.abs(p_hi), axis=0)
        if np.all(errs <= grid.tol * scales):
            neg = weighted(-vs24[::-1], ws24[::-1])
            return (
                np.concatenate([-vs24[::-1], vs24]),
                [np.concatenate(pair) for pair in zip(neg, hi)],
                float(np.max(errs)),
            )
        prev = float(np.max(errs))
    raise QuadratureError(
        f"{what} quadrature did not converge (last probe error {prev:.3g})"
    )


# ---------------------------------------------------------------------------
# multipliers


def _mult_dx(zs):
    return -zs


def _mult_dxx(zs):
    return zs * zs


def _make_mult_nu_plain(model):
    """int (e^{-z_v y} - 1) nu(dy); needs finite-variation jumps."""
    if not model.has_finite_variation_jumps:
        raise DomainError(
            "plain jump compensator diverges for infinite-variation jumps; "
            "use a truncated mark grid"
        )
    m1 = model.nu_mean()

    def mult(zs):
        return model.jump_exponent(1j * zs) - zs * m1

    return mult


def _make_mult_jump(y: float):
    def mult(zs):
        return np.exp(-zs * y) - 1.0

    return mult


def truncated_nu_nodes(model, eps: float, n_panels: int = 40, order: int = 10):
    """Gauss-Legendre nodes/weights for integrals against nu on |y| >= eps;
    the weights already include the density."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    gx, gw = np.polynomial.legendre.leggauss(order)
    ys_list, ws_list = [], []
    for sgn in (-1.0, 1.0):
        hi = max(1.0, 4.0 * eps)
        while hi < 1e4:
            d = float(model.levy_density(np.array(sgn * hi)))
            if d <= 0.0 or math.log(max(d, 1e-300)) < -50.0:
                break
            hi *= 2.0
        edges = np.geomspace(eps, hi, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        ys = sgn * (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        ws = (half[:, None] * gw[None, :]).ravel() * model.levy_density(ys)
        keep = ws > 0
        ys_list.append(ys[keep])
        ws_list.append(ws[keep])
    return np.concatenate(ys_list), np.concatenate(ws_list)


def make_mult_nu_truncated(model, eps: float, weight=None):
    """Multiplier int_{|y| >= eps} (e^{-z_v y} - 1) w(y) nu(dy) as a function
    of z_v, with optional extra weight w(y)."""
    ys, wts = truncated_nu_nodes(model, eps)
    if weight is not None:
        wts = wts * weight(ys)

    def mult(zs):
        zs = np.asarray(zs, dtype=complex)
        out = np.empty(zs.shape, dtype=complex)
        chunk = max(1, int(4e6 // max(ys.size, 1)))
        flat = zs.ravel()
        oflat = out.ravel()
        for i in range(0, flat.size, chunk):
            ex = np.exp(np.multiply.outer(-flat[i : i + chunk], ys))
            oflat[i : i + chunk] = (ex - 1.0) @ wts
        return out

    return mult


# ---------------------------------------------------------------------------
# near-maturity fallback for indicator claims

_FALLBACK_TAIL_TOL = 1e-10
_FALLBACK_V_CAP = 1e8
_FALLBACK_MAX_NODES = 6_000_000


def _digital_tail_probability(model, t, T, q, tol):
    """P(X_T - X_t > q) by sign-inversion of the characteristic function:
    1/2 + (1/pi) int_0^inf Im(e^{-ivq} phi(t, v)) / v dv.

    Used when the damped contour cannot be truncated: the 1/v factor here
    restores convergence for very short horizons.
    """
    tau = T - t

    def envelope(v):
        return np.exp(tau * np.real(model.psi(v))) / np.maximum(v, 1.0)

    grid_fb = QuadratureGrid(tail_tol=_FALLBACK_TAIL_TOL, v_cap=_FALLBACK_V_CAP)
    v_max = _auto_v_max(envelope, grid_fb)
    edges = _panel_edges(v_max, abs(q), n_min_panels=8)

    def value(order):
        vs, ws = _nodes_weights(edges, order)
        g = np.imag(np.exp(-1j * vs * q) * np.exp(tau * model.psi(vs))) / vs
        return 0.5 + float(g @ ws) / math.pi

    for level in range(5):
        if (edges.size - 1) * 24 > _FALLBACK_MAX_NODES:
            raise TruncationError("near-maturity fallback node budget exhausted")
        lo, hi = value(16), value(24)
        if abs(hi - lo) <= max(tol, 1e-10) * (1.0 + abs(hi)):
            return min(max(hi, 0.0), 1.0)
        edges = _split_edges(edges, 2)
    raise QuadratureError("near-maturity fallback did not converge")


# ---------------------------------------------------------------------------
# public operations


def _full(x, c):
    """c as a float for scalar x, else an array of x's shape filled with c."""
    return float(c) if np.ndim(x) == 0 else np.full(np.shape(x), float(c))


def _contour(model, payoff, grid, t, x, T, multipliers, extra_omega=0.0):
    """Every contour table is built here.  Returns (values, err_estimate)
    with one value per multiplier (None for F itself): a float for scalar x,
    else an array of x's shape.

    The table is tuned at the distinct 0, 1/4, 1/2, 3/4 and 1 quantiles of
    the points, which for a scalar point is the point itself.  A constant
    payoff needs no table: F is the constant, every multiplier (derivatives,
    jump terms) gives 0, and the error is 0."""
    if payoff.kind == "constant":
        c = payoff.params[0]
        return [_full(x, c if m is None else 0.0) for m in multipliers], 0.0
    xs = np.asarray(x, dtype=float)
    probe = np.unique(np.quantile(xs, [0.0, 0.25, 0.5, 0.75, 1.0]))
    table = make_multi_table(
        model, payoff, grid, t, T, multipliers, x_probe=probe, extra_omega=extra_omega
    )
    return table.eval_all(xs), table.err_estimate


def conditional_value(model, payoff, grid, t, x, T):
    """F(t, x) = E[f(X_T) | X_t = x]."""
    xs = np.asarray(x, dtype=float)
    if t == T:
        f = payoff.f(xs)
        return float(f) if xs.ndim == 0 else f
    try:
        (F,), _ = _contour(model, payoff, grid, t, xs, T, [None])
        return F
    except TruncationError:
        if payoff.kind != "digital":
            raise
    p = [_digital_tail_probability(model, t, T, payoff.params[0] - xi, grid.tol)
         for xi in xs.ravel()]
    return p[0] if xs.ndim == 0 else np.reshape(p, xs.shape)


def dF_dx(model, payoff, grid, t, x, T):
    (dF,), _ = _contour(model, payoff, grid, t, x, T, [_mult_dx])
    return dF


def d2F_dx2(model, payoff, grid, t, x, T):
    (d2F,), _ = _contour(model, payoff, grid, t, x, T, [_mult_dxx])
    return d2F


def dF_dt(model, payoff, grid, t, x, T):
    (dF,), _ = _contour(model, payoff, grid, t, x, T, [lambda zs: -model.psi(1j * zs)])
    return dF


def jump_difference(model, payoff, grid, t, x, y, T):
    """F(t, x + y) - F(t, x) as a single quadrature with factor e^{-z_v y} - 1."""
    if y == 0.0:
        return _full(x, 0.0)
    (diff,), _ = _contour(model, payoff, grid, t, x, T, [_make_mult_jump(y)],
                          extra_omega=abs(y))
    return diff


def jump_compensator(model, payoff, grid, t, x, T):
    """int (F(t, x + y) - F(t, x)) nu(dy) for finite-variation jump parts;
    0 for a constant payoff whatever the jump variation."""
    if payoff.kind == "constant":
        return _full(x, 0.0)
    (comp,), _ = _contour(model, payoff, grid, t, x, T, [_make_mult_nu_plain(model)])
    return comp


def pide_residual(model, payoff, grid, t, x, T):
    """Residual of dF/dt + mu dF/dx + (sigma^2/2) d2F/dx2 + compensated
    nu-integral; each term is quadratured independently."""
    terms = dF_dt(model, payoff, grid, t, x, T)
    terms += model.mu * dF_dx(model, payoff, grid, t, x, T)
    terms += 0.5 * model.sigma**2 * d2F_dx2(model, payoff, grid, t, x, T)
    if not isinstance(model, BrownianModel):
        # int (e^{-z_v y} - 1 + z_v y) nu(dy) = J(i z_v)
        (nu_term,), _ = _contour(model, payoff, grid, t, x, T,
                                 [lambda zs: model.jump_exponent(1j * zs)])
        terms += nu_term
    return terms


# the batch names of the pointwise operations, which take arrays as well
conditional_value_batch = conditional_value
dF_dx_batch = dF_dx


# ---------------------------------------------------------------------------
# transition density


class DensityTable:
    """Real-axis inversion table: p_t(y) = (1/2pi) int e^{-ivy} phi(t, v) dv.

    Built from the full symmetric nodes ``vs`` and weights phi x quadrature
    weight; like MultiTable it checks conjugate symmetry and keeps the v > 0
    half (``_half_sum`` with alpha = 0)."""

    def __init__(self, vs, base_w, err_estimate):
        self.vs = vs
        self.err_estimate = err_estimate
        self._v, self._W = _positive_half(vs, [base_w])

    def eval(self, ys):
        ys = np.asarray(ys, dtype=float)
        out = _half_sum(ys, self._v, self._W, 0.0)[:, 0]
        # clip tiny negative undershoot from truncation
        small = np.abs(out) < 1e-10
        out[small] = np.maximum(out[small], 0.0)
        return float(out[0]) if ys.ndim == 0 else out.reshape(ys.shape)


def make_density_table(model, grid, t, T, y_probe=None) -> DensityTable:
    if t >= T:
        raise DomainError("density table needs t < T")
    tau = T - t
    if y_probe is None:
        y_probe = np.array([0.0])
    y_probe = np.atleast_1d(np.asarray(y_probe, dtype=float))
    omega = float(np.max(np.abs(y_probe)))

    def envelope(v):
        return np.exp(tau * np.real(model.psi(v)))

    v_max = _auto_v_max(envelope, replace(grid, tail_tol=min(grid.tail_tol, 1e-13)))
    base_edges = _panel_edges(v_max, omega, n_min_panels=max(8, grid.n_nodes // 32))

    def weighted(vs, ws):
        return [np.exp(tau * model.psi(vs)) * ws]

    vs, (w,), err = _adapt(weighted, base_edges, y_probe, 0.0, grid, "density")
    return DensityTable(vs, w, err)


def density(model, grid, t, T, y):
    """p_t(y): density of X_T - X_t at y; a float for scalar y, else an
    array of y's shape."""
    ys = np.asarray(y, dtype=float)
    return make_density_table(model, grid, t, T, y_probe=ys).eval(ys)


density_batch = density
