"""Martingale-representation integrands and Monte Carlo replication.

For a claim f(X_T) the representation reads

    f(X_T) = E[f(X_T)] + int_0^T u(s, X_s) dW_s
                       + int_0^T int theta(s, X_{s-}, y) N~(ds, dy)

with u(s, x) = sigma dF/dx(s, x) and theta(s, x, y) = F(s, x+y) - F(s, x),
F being the conditional value function.  Payoffs with a one-sided damped
transform go through the contour engine; polynomials go through the
closed-form conditional expectation built from the increment cumulants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, SchemeError
from .fourier import QuadratureGrid, _mult_nu, _terms
# perfbench/tracing.py wraps make_multi_table in this module by name, so the
# name stays importable here although every table is built by _contour
from .fourier import make_multi_table  # noqa: F401
from .models import LevyModel
from .payoffs import DampedPayoff, PayoffDecomposition
from .simulate import PathBatch

# integrands are evaluated only for s <= T - NEAR_MATURITY_FRACTION * T; the
# contour degenerates in the final sliver and the last interval is covered by
# the claim's direct evaluation
NEAR_MATURITY_FRACTION = 1e-4

MAX_POLY_DEGREE = 4


def _raw_moments_from_cumulants(k1, k2, k3, k4):
    m1 = k1
    m2 = k2 + k1**2
    m3 = k3 + 3.0 * k2 * k1 + k1**3
    m4 = k4 + 3.0 * k2**2 + 4.0 * k3 * k1 + 6.0 * k2 * k1**2 + k1**4
    return 1.0, m1, m2, m3, m4


def _poly_value_coeffs(model: LevyModel, coeffs, tau: float):
    """Coefficients of x -> E[p(x + Y_tau)] for a polynomial p."""
    if len(coeffs) - 1 > MAX_POLY_DEGREE:
        raise ParameterError(f"polynomial payoffs capped at degree {MAX_POLY_DEGREE}")
    _, m2j, m3j, m4j = model.nu_moments()
    mom = _raw_moments_from_cumulants(
        model.mu * tau, (model.sigma**2 + m2j) * tau, m3j * tau, m4j * tau
    )
    out = np.zeros(len(coeffs))
    for n, a in enumerate(coeffs):
        for k in range(n + 1):
            out[k] += a * math.comb(n, k) * mom[n - k]
    return out


class _Part:
    """One signed payoff part with batchable F / dF/dx / nu-compensator."""

    def __init__(self, sign, payoff, model, grid, T, nu_eps):
        self.sign = sign
        self.payoff = payoff
        self.model = model
        self.T = T
        self.nu_eps = nu_eps
        self.kind = payoff.kind
        self._terms = _terms(model, payoff, grid, T, (_mult_nu,), model, nu_eps)

    def evaluate(self, s, xs, n=3, cache=None):
        """The first n of (F, dF_dx, nu_comp) at the points xs, zeros where
        the part has no such term; ``cache`` is a path driver's."""
        if self.kind != "polynomial":
            vals, _ = self._terms(s, xs, n, cache)
            return tuple(vals)
        xs = np.asarray(xs, dtype=float)
        coeffs = _poly_value_coeffs(self.model, self.payoff.params, self.T - s)
        pv = np.polynomial.polynomial.polyval
        F = pv(xs, coeffs)
        dF = pv(xs, np.polynomial.polynomial.polyder(coeffs))
        return (F, dF, self._poly_nu_comp(xs, coeffs))[:n]

    def _poly_nu_comp(self, xs, coeffs):
        """int (p_tau(x+y) - p_tau(x)) nu(dy) for the polynomial value
        function p_tau: expand in powers of y against nu-moments."""
        numoms = [0.0, *self.model.nu_moments()]
        deg = len(coeffs) - 1
        out = np.zeros_like(xs)
        dcoeffs = coeffs
        for j in range(1, deg + 1):
            dcoeffs = np.polynomial.polynomial.polyder(dcoeffs)
            out += (
                np.polynomial.polynomial.polyval(xs, dcoeffs)
                / math.factorial(j)
                * numoms[j]
            )
        return out


@dataclass(frozen=True)
class RepresentationIntegrands:
    """Callable integrands of the martingale representation."""

    model: LevyModel
    grid: QuadratureGrid
    T: float
    parts: tuple
    mean: float

    def _terms(self, s, xs, n, cache=None):
        """Signed sums over the parts of the first n of (F, dF/dx,
        nu-compensator) at xs; each part keeps a sub-cache of a driver's."""
        vals = [part.evaluate(s, xs, n, None if cache is None else cache.setdefault(i, {}))
                for i, part in enumerate(self.parts)]
        return [sum(p.sign * v[j] for p, v in zip(self.parts, vals)) for j in range(n)]

    def u(self, s: float, x: float) -> float:
        """Diffusion integrand sigma * dF/dx(s, x)."""
        if self.model.sigma == 0.0:
            return 0.0
        return float(self.model.sigma * self._terms(s, x, 2)[1])

    def theta(self, s: float, x: float, y: float) -> float:
        """Jump integrand F(s, x + y) - F(s, x), from one table per part at
        [x, x + y]."""
        if y == 0.0:
            return 0.0
        total = 0.0
        for part in self.parts:
            (F,) = part.evaluate(s, np.array([x, x + y]), n=1)
            total += part.sign * (F[1] - F[0])
        return float(total)

    def value(self, s: float, x: float) -> float:
        """F(s, x) summed over payoff parts."""
        return float(self._terms(s, x, 1)[0])

    def claim(self, x_T):
        x_T = np.asarray(x_T, dtype=float)
        out = np.zeros_like(x_T)
        for part in self.parts:
            out = out + part.sign * part.payoff.f(x_T)
        return out


def build_integrands(
    model: LevyModel,
    payoff,
    grid: QuadratureGrid,
    T: float,
    nu_eps: float | None = None,
) -> RepresentationIntegrands:
    """Assemble u, theta and the claim mean.

    ``nu_eps`` switches the jump compensator from the full Levy measure to
    its |y| >= nu_eps truncation; replication of a marks-scheme path batch
    must use the batch's own truncation level.
    """
    if nu_eps is not None and not 0 < nu_eps < math.inf:
        raise ParameterError(f"nu_eps must be positive and finite, got {nu_eps!r}")
    if isinstance(payoff, PayoffDecomposition):
        raw_parts = payoff.parts
    elif isinstance(payoff, DampedPayoff):
        raw_parts = ((1, payoff),)
    else:
        raise ParameterError("payoff must be a DampedPayoff or PayoffDecomposition")
    parts = tuple(_Part(s, p, model, grid, T, nu_eps) for s, p in raw_parts)
    integrands = RepresentationIntegrands(model, grid, T, parts, 0.0)
    return replace(integrands, mean=integrands.value(0.0, model.x0))


def _check_path_compat(integrands: RepresentationIntegrands, batch: PathBatch):
    dt = batch.dt
    if dt <= NEAR_MATURITY_FRACTION * integrands.T:
        raise SchemeError(
            f"step size {dt:g} reaches inside the near-maturity window "
            f"{NEAR_MATURITY_FRACTION * integrands.T:g}"
        )
    for part in integrands.parts:
        if part.kind in ("constant", "polynomial"):
            continue
        if part.nu_eps != batch.nu_eps:
            raise SchemeError(
                f"integrands built with nu_eps={part.nu_eps} but path batch "
                f"requires nu_eps={batch.nu_eps}; rebuild with build_integrands(..., "
                f"nu_eps={batch.nu_eps})"
            )


def _drive_paths(batch: PathBatch, evaluate):
    """The one step loop of ``replicate_batch`` and ``hedging.fs_path_study``:
    ``evaluate(t_k, points, cache)`` prices the grid and then the post-jump
    states of step k, with one dict ``cache`` for the loop (``fourier``).
    Yields (k, x_k, jump paths, jump sizes, the values at x_k, and the first
    value's F(x + y) - F(x) at each jump).  Exact-scheme paths of an
    infinite-activity model carry no jump marks to replay: SchemeError
    before any table is built."""
    if batch.nu_eps is None and not batch.model.is_finite_activity:
        raise SchemeError(
            "exact infinite-activity paths carry no jump marks; "
            "simulate with scheme='marks'"
        )
    n = batch.n_paths
    cache = {}
    for k, t, xk, jp, jy in batch.steps():
        vals = evaluate(t, np.concatenate([xk, xk[jp] + jy]), cache)
        yield k, xk, jp, jy, [v[:n] for v in vals], vals[0][n:] - vals[0][:n][jp]


def replicate_batch(integrands: RepresentationIntegrands, batch: PathBatch) -> dict:
    """Replay the representation along every path of the batch.

    Returns a report dict with per-path replication values, the claim values,
    the mean-squared replication error and Monte Carlo standard errors.
    """
    _check_path_compat(integrands, batch)
    model = integrands.model
    n_paths, n_steps, dt = batch.n_paths, batch.n_steps, batch.dt
    R = np.full(n_paths, integrands.mean)
    steps = _drive_paths(batch, lambda s, pts, cache: integrands._terms(s, pts, 3, cache))
    for k, _, jp, _, (_, dF, comp), jump in steps:
        if model.sigma != 0.0:
            R += model.sigma * dF * batch.dW[:, k]
        R -= comp * dt
        np.add.at(R, jp, jump)
    claim = integrands.claim(batch.x[:, -1])
    return {
        "n_paths": n_paths,
        "n_steps": n_steps,
        "mse": float(np.mean((claim - R) ** 2)),
        "mean_claim": float(np.mean(claim)),
        "mean_replication": float(np.mean(R)),
        "se": float(np.std(R, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0,
        "replication": R,
        "claim": claim,
    }


def replicate_on_path(integrands: RepresentationIntegrands, batch: PathBatch,
                      path_index: int = 0) -> float:
    """Terminal replication value for a single path of the batch."""
    return float(replicate_batch(integrands, batch.select(path_index))["replication"][0])
