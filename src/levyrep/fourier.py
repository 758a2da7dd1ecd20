"""Damped-contour quadrature engine.

Everything here evaluates integrals of the form

    (1/2pi) int_R  m(z_v) ghat(x, -i z_v) phi(t, i z_v) dv,    z_v = i v - alpha,

for multipliers m covering F, its x/t-derivatives and compensated jump
integrals, plus the undamped transition density and near-maturity digital
fallback.  Every jump integral is written with one jump exponent J and mean
m1, of nu or of its |y| >= eps part on the marks scheme
(``truncated_jump_exponent``).  Nodes are composite Gauss-Legendre panels,
frequency-aware in the oscillation rate and refined until two quadrature
orders agree; the truncation bound grows until the integrand envelope is
negligible.

Every integrand is conjugate-symmetric, w(-v) = conj(w(v)), so a table
holds the v > 0 half of its spectrum only, and each sum -- table
evaluation and the convergence probes alike -- runs over that half in real
arithmetic:

    (1/pi) e^{alpha x} sum_{v>0} [Re w cos(vx) + Im w sin(vx)]

(``_half_sum``; alpha = 0 for the density).  The sum is entire and
band-limited in x, so a large point set is interpolated piecewise from the
direct sum at Chebyshev points, with an a-priori error bound at rounding
level and a strided check against the direct sum (``_half_sum_cheb``);
small point sets, and every call the route does not fit, take the direct
sum.  A direct sum over few points (the probes, pointwise calls) takes a
cos and a sin per point and node (``_half_sum_direct``).  Past a measured
crossover in points x nodes, a table folds its weights once for angle
addition, e^{ivx} = e^{i m x} e^{i h g x} for node v = m + h g of a panel
with midpoint m and half-width h, and its direct sums, the Chebyshev
route's included, take one cos-sin pair per panel plus one per node of
each distinct panel width (``_Fold``).  A table's sums at the probe points
that accepted it are kept and reused when it is evaluated there
(``MultiTable.half_sum``).  The symmetry itself is checked once, when
``_adapt`` accepts a node set: every integrand is evaluated at the mirror
-v of one node per 24-point panel, so an asymmetric multiplier raises
QuadratureError whatever the number of points later evaluated.  An
asymmetry confined to a band of v narrower than a panel can fall between
the checked nodes and go unseen.

One private evaluator, ``_contour``, builds every contour table: the public
operations, the representation integrands, the hedge and the path drivers
all pass it their multipliers and points (``jump_difference`` is F at x and
x + y from one table).  It returns a float for a scalar point, an array of
the input's shape otherwise.  Contour and fallback tables are tuned at
``_probe``, the distinct 0, 1/4, 1/2, 3/4 and 1 quantiles of the points, and
one refinement loop, ``_adapt``, refines every table.  The path drivers
share one step loop (``representation._drive_paths``), whose tables share
a cache for one driver call: on a fixed node set only e^{tau psi} depends
on t, so the payoff transform, psi(i z_v) and the multipliers are kept per
node set (``_NodeFactors``), with Re psi on the v_max ladder.  Node sets
repeat only if omega does, so a driver's tables round omega up to a power
of two; every other table keeps its exact omega.
``conditional_value_batch``, ``dF_dx_batch`` and ``density_batch`` are the
same functions under their batch names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import check_keys
from .errors import DomainError, ParameterError, QuadratureError, TruncationError
from .models import BrownianModel, LevyModel, geometric_panels, nu_tail_cutoff
from .payoffs import DampedPayoff

IMAG_RESIDUAL_TOL = 1e-8
BASE_PANELS = 8  # panels of [0, v_max] before the oscillation cap and refinement
EVAL_BLOCK = 4_000_000  # trig-matrix entries per block of evaluation points

# truncated jump exponent: Gauss-Legendre order per side of [-eps, eps], the
# last power of the small-jump series, the largest |w| eps at which the
# series is used and the largest phase |w| h of a panel of width h beyond it
SMALL_JUMP_ORDER = 32
SMALL_JUMP_TERMS = 20
SMALL_JUMP_SERIES_MAX = 1.0
SMALL_JUMP_PANEL_PHASE = 16.0

# piecewise Chebyshev route of _half_sum: degree M per piece, the a-priori
# interpolation bound and the strided check against the direct sum, both
# relative to each weight column's l1 norm
CHEB_DEGREE = 32
CHEB_BOUND = 1e-15
CHEB_CHECK_TOL = 1e-12
CHEB_CHECK_POINTS = 32
# Chebyshev points of the second kind from +1 down to -1 (the sine form is
# exactly symmetric) and their barycentric weights
_CHEB_T = np.sin(0.5 * math.pi * np.arange(CHEB_DEGREE, -CHEB_DEGREE - 1, -2) / CHEB_DEGREE)
_CHEB_BW = (-1.0) ** np.arange(CHEB_DEGREE + 1)
_CHEB_BW[[0, -1]] *= 0.5

# contour and fallback tables are tuned at these quantiles of their points
_PROBE_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)
# a table builds its angle-addition fold (``_Fold``) at its first sum over
# more points than a probe has (``_probe``) and FOLD_POINT_NODES or more
# points x nodes, the measured crossover; smaller sums go node by node
FOLD_POINT_NODES = 6000


@dataclass(frozen=True)
class QuadratureGrid:
    """Contour configuration: damping alpha, truncation, tolerances."""

    alpha: float = 1.0
    v_max: float | None = None  # None -> grow until the envelope is negligible
    tol: float = 1e-9
    tail_tol: float = 1e-12
    v_cap: float = 1e6
    max_nodes: int = 400_000

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ParameterError("alpha must be finite")
        if self.v_max is not None and not 0 < self.v_max < math.inf:
            raise ParameterError("v_max must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ParameterError("tol must be positive and finite")


# config keys of grid_from_dict and the type each is read as
_GRID_KEYS = {"alpha": float, "v_max": float, "tol": float}


def grid_from_dict(spec: dict) -> QuadratureGrid:
    """QuadratureGrid from a config's ``grid`` block; ``v_max`` may be
    None or "auto".  Unknown keys and non-numeric values raise
    ParameterError."""
    check_keys("grid", spec, _GRID_KEYS)
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


def _panel_edges(v_max: float, omega: float) -> np.ndarray:
    """Panel edges on [0, v_max]: geometric growth away from the origin,
    width capped so a 24-point rule resolves the local oscillation."""
    h_cap = 30.0 / max(omega, 1e-12)
    h0 = min(v_max / BASE_PANELS, h_cap, 4.0)
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


def _nodes_weights(mid: np.ndarray, half: np.ndarray, order: int):
    """Nodes and weights of the order-point rule on the panels with
    midpoints ``mid`` and half-widths ``half``."""
    gx, gw = _gl_rule(order)
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


def _half_sum(xs, vs: np.ndarray, W: np.ndarray, alpha: float, fold=None) -> np.ndarray:
    """(1/pi) e^{alpha x} sum_{v>0} [Re w cos(vx) + Im w sin(vx)] at every
    point of xs (flattened) for every column of W = _stack(...): the real
    part of the full symmetric sum (1/2pi) sum_v w e^{-(iv - alpha) x}.

    Large finite point sets are interpolated piecewise from the sum at
    Chebyshev points (``_half_sum_cheb``); the rest, and any call whose
    interpolant fails its check, take the direct sum.  Every direct sum,
    the route's included, runs through ``fold`` (a ``_Fold`` of W) when one
    is given and over the nodes one by one otherwise."""
    x = np.ravel(xs)
    if x.size > 8 * (CHEB_DEGREE + 1) and np.all(np.isfinite(x)):
        out = _half_sum_cheb(x, vs, W, alpha, fold)
        if out is not None:
            return out
    return _direct_sum(x, vs, W, alpha, fold)


def _direct_sum(x, vs, W, alpha, fold):
    if fold is None:
        return _half_sum_direct(x, vs, W, alpha)
    return fold.sum(x, alpha)


def _half_sum_direct(x: np.ndarray, vs: np.ndarray, W: np.ndarray, alpha: float) -> np.ndarray:
    """The half sum at every point of the flat array x: one [cos | sin] @ W
    product per block of points gives all columns."""
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


class _Fold:
    """The weights of a half sum in angle-addition form.

    Node j of panel p is v = m_p + h_p g_j, and the Gauss-Legendre rule is
    symmetric, g_{k-1-j} = -g_j.  With a = Re w / pi, b = Im w / pi,
    j' = k-1-j and c_j = cos(h_p g_j x), s_j = sin(h_p g_j x) for j < k/2,
    the k terms of panel p sum to

        cos(m_p x) sum_j [(a_j + a_j') c_j + (b_j - b_j') s_j]
      + sin(m_p x) sum_j [(b_j + b_j') c_j - (a_j - a_j') s_j].

    Panels of exactly equal h_p (a run at the width cap, the pieces of one
    split panel) share c_j and s_j, so a point costs P + (k/2) G cos-sin
    pairs instead of k P, for P panels of G distinct widths.  The panels
    are sorted by width; ``F`` holds the bracketed weights with one row per
    entry of [c | s] and one column per (panel, cos or sin, column of W),
    and ``bounds`` the columns of each width's panels."""

    def __init__(self, mid: np.ndarray, half: np.ndarray, W: np.ndarray):
        P, C = mid.size, W.shape[1]
        k = W.shape[0] // (2 * P)
        j = k // 2
        order = np.argsort(half, kind="stable")
        hs = half[order]
        new = np.ones(P + 1, dtype=bool)
        np.not_equal(hs[1:], hs[:-1], out=new[1:P])
        self.bounds = np.flatnonzero(new) * (2 * C)
        self.offsets = hs[new[:P], None] * _gl_rule(k)[0][:j]
        self.mid = mid[order]
        a, b = W.reshape(2, P, k, C)[:, order].transpose(0, 2, 1, 3)
        F = np.empty((k, P, 2, C))
        np.add(a[:j], a[: j - 1 : -1], out=F[:j, :, 0])
        np.subtract(b[:j], b[: j - 1 : -1], out=F[j:, :, 0])
        np.add(b[:j], b[: j - 1 : -1], out=F[:j, :, 1])
        np.subtract(a[: j - 1 : -1], a[:j], out=F[j:, :, 1])
        self.F = F.reshape(k, -1)

    def sum(self, x: np.ndarray, alpha: float) -> np.ndarray:
        """The half sum at every point of the flat array x: per block of
        points, one product per width and one reduction over the panels."""
        G, j = self.offsets.shape
        P = self.mid.size
        C = self.F.shape[1] // (2 * P)
        out = np.empty((x.size, C))
        step = max(1, EVAL_BLOCK // (2 * (G * j + P * C)))
        for i in range(0, x.size, step):
            xb = x[i : i + step]
            n = xb.size
            arg = np.multiply.outer(self.offsets, xb).transpose(0, 2, 1)
            trig = np.empty((G, n, 2 * j))
            np.cos(arg, out=trig[:, :, :j])
            np.sin(arg, out=trig[:, :, j:])
            R = np.empty((n, self.F.shape[1]))
            for g in range(G):
                s, e = self.bounds[g], self.bounds[g + 1]
                np.matmul(trig[g], self.F[:, s:e], out=R[:, s:e])
            arg = np.multiply.outer(xb, self.mid)
            M = np.empty((n, P, 2))
            np.cos(arg, out=M[:, :, 0])
            np.sin(arg, out=M[:, :, 1])
            ob = np.matmul(M.reshape(n, 1, 2 * P), R.reshape(n, 2 * P, C),
                           out=out[i : i + step, None])[:, 0]
            if alpha:
                ob *= np.exp(alpha * xb)[:, None]
        return out


def _cheb_pieces(vs: np.ndarray, A: np.ndarray, length: float, n: int):
    """Smallest piece count P on the ladder 1, 2, 4, then x1.25 (rounded
    down) at which the interpolation bound holds for every column, or None
    when no P with 4 P (M + 1) <= n does.

    On a piece of half-width r = length / (2P) the Chebyshev coefficients of
    cos(v x) and sin(v x) are Bessel values J_j(v r) (Jacobi-Anger), so
    degree-M interpolation of node v's term errs by at most
    4 (|Re w| + |Im w|) sum_{j>M} |J_j(z)| at z = v r (twice the coefficient
    tail, for aliasing).  With |J_j(z)| <= (z/2)^j / j! the tail is at most
    (z/2)^{M+1} / (M+1)! / (1 - (z/2)/(M+2)).  ``A`` holds |Re w| + |Im w|
    per node and column; the summed bound must stay within CHEB_BOUND of the
    column's l1 norm, which also bounds the sum itself."""
    M = CHEB_DEGREE
    l1 = A.sum(axis=0)
    P = 1
    while 4 * P * (M + 1) <= n:
        q = vs * (length / (4 * P))  # z / 2
        with np.errstate(over="ignore"):
            tail = np.exp((M + 1) * np.log(q) - math.lgamma(M + 2))
        tail = np.where(q < M + 2, tail / (1.0 - q / (M + 2)), np.inf)
        if np.all(4.0 * (tail @ A) <= CHEB_BOUND * l1):
            return P
        P = 2 * P if P < 4 else int(1.25 * P)
    return None


def _cheb_grid(a: float, b: float, P: int):
    """Edges of P equal pieces of [a, b] and the (P, M + 1) Chebyshev points
    of each piece, descending; a piece's first and last points are its
    edges exactly."""
    edges = a + (b - a) * (np.arange(P + 1) / P)
    edges[-1] = b
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHEB_T
    nodes[:, 0], nodes[:, -1] = edges[1:], edges[:-1]
    return edges, nodes


def _half_sum_cheb(x: np.ndarray, vs: np.ndarray, W: np.ndarray, alpha: float, fold=None):
    """The half sum at the finite points x by piecewise Chebyshev
    interpolation, or None where the route does not apply or fails its check.

    [a, b] = [min x, max x] is split into P equal pieces (``_cheb_pieces``).
    The sum without e^{alpha x} is taken directly at the M + 1 Chebyshev
    points of each piece and interpolated to the points in that piece by
    the barycentric formula, one product per block of EVAL_BLOCK entries; a
    point on a node (a and b always are) takes the node's value.  Times
    e^{alpha x}, the result must match the direct sum at CHEB_CHECK_POINTS
    strided points, the first and last included, to CHEB_CHECK_TOL of the
    column's l1 norm times e^{alpha x}.  Both direct sums run through
    ``fold`` when one is given."""
    a, b = float(x.min()), float(x.max())
    h = vs.size
    A = np.abs(W[:h]) + np.abs(W[h:])
    P = _cheb_pieces(vs, A, b - a, x.size) if b > a else None
    if P is None:
        return None
    edges, nodes = _cheb_grid(a, b, P)
    if np.any(np.diff(nodes, axis=1) >= 0.0):
        return None  # pieces too short to hold distinct nodes
    F = _direct_sum(nodes.ravel(), vs, W, 0.0, fold).reshape(P, CHEB_DEGREE + 1, -1)
    # a column of ones gives the barycentric denominator in the same product
    F1 = np.concatenate([F, np.ones(F.shape[:2] + (1,))], axis=2)
    # sorted, the points of piece p are xs[starts[p]:starts[p + 1]]
    order = np.argsort(x)
    xs = x[order]
    starts = np.append(np.searchsorted(xs, edges[:-1]), x.size)
    out = np.empty((x.size, W.shape[1]))
    step = max(1, EVAL_BLOCK // (CHEB_DEGREE + 1))
    buf = np.empty((min(step, int(np.max(np.diff(starts)))), CHEB_DEGREE + 1))
    for p in range(P):
        for i in range(starts[p], starts[p + 1], step):
            j = min(i + step, starts[p + 1])
            c = buf[: j - i]
            np.subtract.outer(xs[i:j], nodes[p], out=c)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(_CHEB_BW, c, out=c)
                ob = c @ F1[p]
                ob = ob[:, :-1] / ob[:, -1:]
            # a point on a node divides by zero there and takes its value
            hit = np.flatnonzero(~np.isfinite(ob[:, 0]))
            if hit.size:
                ob[hit] = F[p, np.argmin(np.abs(xs[i + hit, None] - nodes[p]), axis=1)]
            out[order[i:j]] = ob
    if alpha:
        out *= np.exp(alpha * x)[:, None]
    check = np.unique(np.linspace(0, x.size - 1, CHEB_CHECK_POINTS).round().astype(int))
    ref = _direct_sum(x[check], vs, W, alpha, fold)
    tol = CHEB_CHECK_TOL * A.sum(axis=0) * np.exp(alpha * x[check])[:, None]
    if not (np.all(np.isfinite(out)) and np.all(np.abs(out[check] - ref) <= tol)):
        return None
    return out


class MultiTable:
    """Several contour integrals sharing one adapted node set.

    ``vs`` holds the v > 0 nodes of z_v = i v - alpha, on the panels with
    midpoints ``mid`` and half-widths ``half``, and ``W`` the stacked
    weights x multiplier x transform x phi of every integrand on them
    (``_stack``), as ``_adapt`` builds them.  ``eval_all(xs)`` gives every
    integrand at the points from one half sum (``half_sum``).
    """

    def __init__(self, vs, W, alpha, mid, half):
        self.vs = vs
        self.W = W
        self.alpha = alpha
        self.mid = mid
        self.half = half
        self.err_estimate = None
        self.probe_sum = None  # (points, half sums) at which _adapt accepted the table
        self._fold = None

    @property
    def zs(self):
        return 1j * self.vs - self.alpha

    def half_sum(self, x):
        """``_half_sum`` at the flat points x.  At the accepted probe points
        it is the probe's own sum.  Past the fold's crossover (FOLD_POINT_NODES)
        it runs through the angle-addition fold, built at the first such
        call and kept for the later ones."""
        if self.probe_sum is not None:
            px, psum = self.probe_sum
            if x.size == px.size and np.array_equal(x, px):
                return psum.copy()
        if (self._fold is None and x.size > len(_PROBE_QUANTILES)
                and x.size * self.vs.size >= FOLD_POINT_NODES):
            self._fold = _Fold(self.mid, self.half, self.W)
        return _half_sum(x, self.vs, self.W, self.alpha, self._fold)

    def eval_all(self, xs):
        xs = np.asarray(xs, dtype=float)
        vals = self.half_sum(np.ravel(xs))
        if xs.ndim == 0:
            return [float(v) for v in vals[0]]
        return [col.reshape(xs.shape) for col in vals.T]


class _NodeFactors:
    """The t-independent factors of a contour table's weights on one node
    set: the payoff transform, psi(i z_v) and each multiplier's values."""

    def __init__(self, model, payoff, multipliers, zs):
        self.ghat = payoff.transform_contour(zs)
        self.psi = model.psi(1j * zs)
        self.mults = [None if m is None else m(zs) for m in multipliers]

    def weights(self, tau, ws):
        base = self.ghat * np.exp(tau * self.psi)
        return [(base if m is None else base * m) * ws for m in self.mults]


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
    cache=None,
) -> MultiTable:
    """Adapt one contour node set until every multiplier's probe converges;
    ``cache`` is a path driver's dict for these multipliers (module doc)."""
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
    omega = float(np.max(np.abs(x_probe - payoff.osc_center)))
    if cache is not None and 0.0 < omega < math.inf:
        omega = math.ldexp(1.0, math.frexp(omega)[1])
    factors = {} if cache is None else cache

    # payoff-scale constant for the truncation envelope
    z_ref = 1j * 1.0 - alpha
    cbar = float(
        np.max(np.abs(z_ref * payoff.transform_contour(np.array([z_ref]))))
        * np.max(np.exp(-alpha * x_probe))
    )
    cbar = max(cbar, 1e-30)

    def envelope(v):
        zs = 1j * v - alpha
        if "ladder" not in factors:
            factors["ladder"] = np.real(model.psi(1j * zs))
        mag = np.exp(tau * factors["ladder"])
        return mag * (1.0 + np.abs(zs)) * cbar / np.abs(zs)

    v_max = _auto_v_max(envelope, grid)

    def weighted(vs, ws):
        key = vs.tobytes()
        if key not in factors:
            factors[key] = _NodeFactors(model, payoff, multipliers, 1j * vs - alpha)
        return factors[key].weights(tau, ws)

    return _adapt(weighted, _panel_edges(v_max, omega), x_probe, alpha, grid, "contour")


def _adapt(weighted, base_edges, probe, alpha, grid, what, table=MultiTable):
    """The one refinement loop of contour, density and fallback tables.

    Splits every panel of ``base_edges`` into 2^level pieces until the 16-
    and 24-point Gauss-Legendre sums of every integrand agree at every probe
    point, to ``grid.tol`` relative to 1 + |2pi value| (the scale of the
    unnormalised sum).  ``weighted(vs, ws)`` gives each integrand's weights
    on nodes vs with quadrature weights ws.  Returns the 24-point table, a
    ``table`` instance, with the probe error as its ``err_estimate`` and
    its sums at a copy of the probe points as its ``probe_sum``; the node
    budget counts both halves of the spectrum.

    The half sums are exact only for conjugate-symmetric weights,
    w(-v) = conj(w(v)).  The accepted level is checked at the mirror of one
    node per panel, the 12th of its 24: an integrand whose residual
    sum |w(-v) - conj w(v)| over them exceeds IMAG_RESIDUAL_TOL of
    sum (|w(-v)| + |w(v)|) raises QuadratureError.
    """
    x = np.array(probe, dtype=float).ravel()
    prev = None
    for level in range(7):
        edges = _split_edges(base_edges, 2**level)
        if 2 * (edges.size - 1) * 24 > grid.max_nodes:
            raise TruncationError(f"{what} node budget exhausted before convergence")
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        vs16, ws16 = _nodes_weights(mid, half, 16)
        p_lo = MultiTable(vs16, _stack(weighted(vs16, ws16)), alpha, mid, half).half_sum(x)
        vs24, ws24 = _nodes_weights(mid, half, 24)
        hi = weighted(vs24, ws24)
        out = table(vs24, _stack(hi), alpha, mid, half)
        p_hi = out.half_sum(x)
        errs = np.max(np.abs(p_hi - p_lo), axis=0)
        scales = 1.0 + 2.0 * math.pi * np.max(np.abs(p_hi), axis=0)
        if np.all(errs <= grid.tol * scales):
            check = slice(11, None, 24)
            for neg, pos in zip(weighted(-vs24[check], ws24[check]), hi):
                asym = float(np.sum(np.abs(neg - np.conj(pos[check]))))
                scale = float(np.sum(np.abs(neg) + np.abs(pos[check])))
                if asym > IMAG_RESIDUAL_TOL * scale:
                    raise QuadratureError(
                        f"imaginary residual {asym / scale:.3g} exceeds tolerance: "
                        "weights are not conjugate-symmetric in v"
                    )
            out.err_estimate = float(np.max(errs))
            out.probe_sum = (x, p_hi)
            return out
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


def _jump_pair(model, eps):
    """(J, m1): the jump exponent J(w) = int (e^{iwy} - 1 - iwy) nu(dy) and
    m1 = int y nu(dy), of nu itself or, when eps is given, of its |y| >= eps
    part (``truncated_jump_exponent``)."""
    if eps is None:
        return model.jump_exponent, model.nu_mean()
    return truncated_jump_exponent(model, eps)


def _mult_nu(model, eps=None):
    """int (e^{-z_v y} - 1) nu(dy) = J(i z_v) - z_v m1 over nu, or over
    |y| >= eps; the full measure needs finite-variation jumps."""
    if eps is None and not model.has_finite_variation_jumps:
        raise DomainError(
            "plain jump compensator diverges for infinite-variation jumps; "
            "use a truncated mark grid"
        )
    J, m1 = _jump_pair(model, eps)

    def mult(zs):
        return J(1j * zs) - zs * m1

    return mult


def _mult_nu_exp(model, eps):
    """int (e^{-z_v y} - 1)(e^y - 1) nu(dy) = J(w - i) - J(w) - J(-i) at
    w = i z_v, over nu or over |y| >= eps."""
    J, _ = _jump_pair(model, eps)
    j_mi = J(np.array(-1j))

    def mult(zs):
        w = 1j * zs
        return J(w - 1j) - J(w) - j_mi

    return mult


def truncated_nu_nodes(model, eps: float, n_panels: int = 40, order: int = 10):
    """Gauss-Legendre nodes/weights for integrals against nu on |y| >= eps;
    the weights already include the density."""
    if not 0 < eps < math.inf:
        raise ParameterError(f"eps must be positive and finite, got {eps!r}")
    ys_list, ws_list = [], []
    for sgn in (-1.0, 1.0):
        xs, ws = geometric_panels(eps, nu_tail_cutoff(model, sgn, eps), n_panels, order)
        ys = sgn * xs
        ws = ws * model.levy_density(ys)
        keep = ws > 0
        ys_list.append(ys[keep])
        ws_list.append(ws[keep])
    return np.concatenate(ys_list), np.concatenate(ws_list)


def _small_jump_rule(model, eps: float, panels: int):
    """Nodes on [-eps, eps] and their weights times nu: ``panels`` equal
    Gauss-Legendre panels of SMALL_JUMP_ORDER nodes on each of [-eps, 0] and
    [0, eps]."""
    gx, gw = _gl_rule(SMALL_JUMP_ORDER)
    h = eps / panels
    ys = ((np.arange(panels) + 0.5)[:, None] * h + 0.5 * h * gx).ravel()
    ws = np.tile(0.5 * h * gw, panels)
    ys = np.concatenate([-ys[::-1], ys])
    return ys, np.concatenate([ws[::-1], ws]) * model.levy_density(ys)


def small_jump_moments(model, eps: float, kmax: int) -> np.ndarray:
    """mu_k = int_{|y| < eps} y^k nu(dy) for k = 2..kmax from
    ``_small_jump_rule`` with one panel per side (y^2 nu is bounded at 0)."""
    ys, wts = _small_jump_rule(model, eps, 1)
    return (ys ** np.arange(2, kmax + 1)[:, None]) @ wts


@lru_cache(maxsize=32)
def truncated_jump_exponent(model, eps: float):
    """(J_eps, m1_eps) of nu restricted to |y| >= eps:
    J_eps(w) = int_{|y| >= eps} (e^{iwy} - 1 - iwy) nu(dy), vectorized over
    complex w, and m1_eps = int_{|y| >= eps} y nu(dy).

    J_eps = J - S_eps with the model's own jump exponent J and the small-jump
    part S_eps(w) = int_{|y| < eps} (e^{iwy} - 1 - iwy) nu(dy).  Where
    |w| eps <= SMALL_JUMP_SERIES_MAX, S_eps is the series
    sum_{k=2}^{SMALL_JUMP_TERMS} (iw)^k mu_k / k! in Horner form, with
    mu_k from ``small_jump_moments``.  Beyond, S_eps is the sum of
    e^{iwy} - 1 - iwy over ``_small_jump_rule`` with enough panels that
    none spans more than SMALL_JUMP_PANEL_PHASE radians at the call's
    largest |w|.
    m1_eps is the sum over ``truncated_nu_nodes``.  One build per
    (model, eps); every model is a hashable frozen dataclass.
    """
    big_ys, big_wts = truncated_nu_nodes(model, eps)
    m1 = float(big_ys @ big_wts)
    k = np.arange(2, SMALL_JUMP_TERMS + 1)
    coef = small_jump_moments(model, eps, SMALL_JUMP_TERMS) / np.array(
        [math.factorial(j) for j in k])
    rules = {}

    def small_jumps(w):
        flat = np.atleast_1d(w).ravel()
        out = np.empty(flat.shape, dtype=complex)
        near = np.abs(flat) * eps <= SMALL_JUMP_SERIES_MAX
        iw = 1j * flat[near]
        acc = np.full(iw.shape, coef[-1], dtype=complex)
        for c in coef[-2::-1]:
            acc = acc * iw + c
        out[near] = acc * iw * iw
        far = np.flatnonzero(~near)
        if far.size:
            panels = math.ceil(float(np.max(np.abs(flat[far]))) * eps / SMALL_JUMP_PANEL_PHASE)
            if panels not in rules:
                rules[panels] = _small_jump_rule(model, eps, panels)
            rys, rwts = rules[panels]
            step = max(1, EVAL_BLOCK // rys.size)
            for i in range(0, far.size, step):
                idx = far[i : i + step]
                u = 1j * np.multiply.outer(flat[idx], rys)
                out[idx] = (np.expm1(u) - u) @ rwts
        return out.reshape(np.shape(w))

    def J_eps(w):
        w = np.asarray(w, dtype=complex)
        return model.jump_exponent(w) - small_jumps(w)

    return J_eps, m1


# ---------------------------------------------------------------------------
# near-maturity fallback for indicator claims


def _digital_tail(model, grid, t, T, q):
    """P(X_T - X_t > q) at every point of q, clipped to [0, 1], by sign
    inversion: 1/2 + (1/pi) int_0^inf Im(e^{-ivq} phi(t, v)) / v dv, one
    table of the kernel -i phi(v) / v per call.

    Used when the damped contour cannot be truncated: the 1/v factor
    restores convergence for very short horizons."""
    tau = T - t
    grid = replace(grid, v_max=None, tail_tol=1e-10, v_cap=1e8, max_nodes=12_000_000)
    v_max = _auto_v_max(lambda v: np.exp(tau * np.real(model.psi(v))) / np.maximum(v, 1.0), grid)
    probe = _probe(q)
    edges = _panel_edges(v_max, float(np.max(np.abs(probe))))
    table = _adapt(lambda vs, ws: [-1j * np.exp(tau * model.psi(vs)) / vs * ws],
                   edges, probe, 0.0, grid, "near-maturity fallback")
    (p,) = table.eval_all(q)
    return np.clip(0.5 + p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# public operations


def _full(x, c):
    """c as a float for scalar x, else an array of x's shape filled with c."""
    return float(c) if np.ndim(x) == 0 else np.full(np.shape(x), float(c))


def _probe(xs):
    """The distinct 0, 1/4, 1/2, 3/4 and 1 quantiles of the points; for a
    scalar point, the point itself.  These are the values of
    ``np.unique(np.quantile(xs, _PROBE_QUANTILES))`` from one partial sort,
    by np.quantile's linear rule: virtual index v = (n - 1) q, clamped to
    the last point from v >= n - 1 on, and a + (b - a) g, or
    b - (b - a)(1 - g) for g >= 1/2, between the order statistics a and b
    around v, with g = v - (index of a)."""
    x = np.ravel(xs)
    n = x.size
    lo, hi, frac = [], [], []
    for q in _PROBE_QUANTILES:
        v = (n - 1) * q
        i = -1 if v >= n - 1 else math.floor(v)
        lo.append(i)
        hi.append(-1 if i < 0 else i + 1)
        frac.append(v - i)
    part = np.partition(x, sorted({0, -1, *lo, *hi}))
    if np.isnan(part[-1]):
        return part[-1:]  # np.quantile is nan throughout
    out = [b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g
           for a, b, g in zip(part.take(lo).tolist(), part.take(hi).tolist(), frac)]
    if not all(map(math.isfinite, out)):
        return np.unique(out)
    out.sort()
    return np.array([v for k, v in enumerate(out) if k == 0 or v != out[k - 1]])


def _contour(model, payoff, grid, t, x, T, multipliers, cache=None):
    """Every contour table is built here.  Returns (values, err_estimate)
    with one value per multiplier (None for F itself): a float for scalar x,
    else an array of x's shape; ``cache`` is a path driver's.

    The table is tuned at ``_probe`` of the points.  A constant payoff needs
    no table: F is the constant, every multiplier (derivatives, jump terms)
    gives 0, and the error is 0; nor does an empty point array."""
    if payoff.kind == "constant":
        c = payoff.params[0]
        return [_full(x, c if m is None else 0.0) for m in multipliers], 0.0
    xs = np.asarray(x, dtype=float)
    if xs.size == 0:
        return [np.empty(xs.shape) for _ in multipliers], 0.0
    table = make_multi_table(model, payoff, grid, t, T, multipliers, _probe(xs), cache)
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
    p = _digital_tail(model, grid, t, T, payoff.params[0] - xs)
    return float(p) if xs.ndim == 0 else p


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
    """F(t, x + y) - F(t, x), from one table of F at x and x + y."""
    if y == 0.0:
        return _full(x, 0.0)
    xs = np.ravel(np.asarray(x, dtype=float))
    (F,), _ = _contour(model, payoff, grid, t, np.concatenate([xs, xs + y]), T, [None])
    diff = F[xs.size:] - F[: xs.size]
    return float(diff[0]) if np.ndim(x) == 0 else diff.reshape(np.shape(x))


def jump_compensator(model, payoff, grid, t, x, T):
    """int (F(t, x + y) - F(t, x)) nu(dy) for finite-variation jump parts;
    0 for a constant payoff whatever the jump variation."""
    if payoff.kind == "constant":
        return _full(x, 0.0)
    (comp,), _ = _contour(model, payoff, grid, t, x, T, [_mult_nu(model)])
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


class DensityTable(MultiTable):
    """Real-axis inversion table: p_t(y) = (1/2pi) int e^{-ivy} phi(t, v) dv,
    a MultiTable at alpha = 0 with the one integrand phi x quadrature
    weight."""

    def eval(self, ys):
        ys = np.asarray(ys, dtype=float)
        out = self.half_sum(np.ravel(ys))[:, 0]
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

    def weighted(vs, ws):
        return [np.exp(tau * model.psi(vs)) * ws]

    return _adapt(weighted, _panel_edges(v_max, omega), y_probe, 0.0, grid, "density",
                  DensityTable)


def density(model, grid, t, T, y):
    """p_t(y): density of X_T - X_t at y; a float for scalar y, else an
    array of y's shape."""
    ys = np.asarray(y, dtype=float)
    if ys.size == 0:
        return np.empty(ys.shape)
    return make_density_table(model, grid, t, T, y_probe=ys).eval(ys)


density_batch = density
