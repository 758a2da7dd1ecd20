"""Square-integrable Levy models: triplets, characteristic exponents, and
executable integrability checks.

Every model exposes the compensated-jump exponent
``jump_exponent(w) = int (e^{iwx} - 1 - iwx) nu(dx)`` and
``psi(z) = i z mu - sigma^2 z^2 / 2 + jump_exponent(z)`` so that
``E[e^{i z X_t}] = e^{x0 i z} e^{t psi(z)}``.  Named kinds use closed forms;
custom densities fall back to cached quadrature grids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy import integrate

from .bessel import k1e
from .errors import DomainError, InconclusiveError, ParameterError

# Custom nu-integrals split the domain here and use a Taylor expansion below.
SMALL_JUMP_SPLIT = 1e-4


def _as_complex(w):
    return np.asarray(w, dtype=complex)


@dataclass(frozen=True)
class LevyModel:
    """Base Levy triplet (mu, sigma, nu) with initial value x0."""

    x0: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0

    kind = "base"

    def __post_init__(self):
        if self.sigma < 0:
            raise ParameterError("sigma must be nonnegative")

    # -- jump data ---------------------------------------------------------

    def levy_density(self, x):
        raise NotImplementedError

    def jump_exponent(self, w):
        """int (e^{iwx} - 1 - iwx) nu(dx), vectorized over complex w."""
        raise NotImplementedError

    def exp_moment_strip(self) -> tuple[float, float]:
        """Open interval of alpha with E[e^{alpha X_1}] < infinity."""
        raise NotImplementedError

    # -- derived quantities ------------------------------------------------

    def psi(self, z):
        z = _as_complex(z)
        return 1j * z * self.mu - 0.5 * self.sigma**2 * z * z + self.jump_exponent(z)

    def nu_mean(self) -> float:
        """int x nu(dx) (as the cumulant-derivative limit for infinite
        variation models)."""
        raise NotImplementedError

    def nu_second_moment(self) -> float:
        """int x^2 nu(dx)."""
        raise NotImplementedError

    def exp_jump_cumulant(self, u: float) -> float:
        """int (e^{ux} - 1 - ux) nu(dx) for real u inside the moment strip."""
        return float(np.real(self.jump_exponent(-1j * u)))

    def c2(self) -> float:
        """int (e^x - 1)^2 nu(dx); requires alpha=2 in the moment strip."""
        lo, hi = self.exp_moment_strip()
        if hi <= 2.0:
            raise DomainError(f"C2 diverges: needs alpha=2 < {hi:g}")
        return self.exp_jump_cumulant(2.0) - 2.0 * self.exp_jump_cumulant(1.0)

    def nu_mean_exp(self) -> float:
        """int x (e^x - 1) nu(dx), via a complex step on the jump exponent."""
        h = 1e-8
        lo, hi = self.exp_moment_strip()
        if hi <= 1.0:
            raise DomainError(f"int x(e^x-1)nu diverges: needs alpha=1 < {hi:g}")
        val = self.jump_exponent(-1j * (1.0 + 1j * h))
        return float(np.imag(val) / h)

    @property
    def is_finite_activity(self) -> bool:
        raise NotImplementedError

    @property
    def has_finite_variation_jumps(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class BrownianModel(LevyModel):
    """Drifted Brownian motion; nu = 0."""

    kind = "brownian"

    def levy_density(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def jump_exponent(self, w):
        return np.zeros_like(_as_complex(w))

    def exp_moment_strip(self):
        return (-math.inf, math.inf)

    def nu_mean(self):
        return 0.0

    def nu_second_moment(self):
        return 0.0

    @property
    def is_finite_activity(self):
        return True

    @property
    def has_finite_variation_jumps(self):
        return True


@dataclass(frozen=True)
class MertonModel(LevyModel):
    """Jump diffusion with Gaussian jump marks: intensity gamma, marks
    N(m, delta^2)."""

    gamma: float = 1.0
    m: float = 0.0
    delta: float = 0.1

    kind = "merton"

    def __post_init__(self):
        super().__post_init__()
        if self.gamma <= 0 or self.delta <= 0:
            raise ParameterError("merton requires gamma > 0 and delta > 0")

    def levy_density(self, x):
        x = np.asarray(x, dtype=float)
        return (
            self.gamma
            / (math.sqrt(2.0 * math.pi) * self.delta)
            * np.exp(-((x - self.m) ** 2) / (2.0 * self.delta**2))
        )

    def jump_exponent(self, w):
        w = _as_complex(w)
        return self.gamma * (
            np.exp(1j * w * self.m - 0.5 * self.delta**2 * w * w) - 1.0 - 1j * w * self.m
        )

    def exp_moment_strip(self):
        return (-math.inf, math.inf)

    def nu_mean(self):
        return self.gamma * self.m

    def nu_second_moment(self):
        return self.gamma * (self.m**2 + self.delta**2)

    def nu_moments(self):
        g, m, d = self.gamma, self.m, self.delta
        return (
            g * m,
            g * (m * m + d * d),
            g * (m**3 + 3 * m * d * d),
            g * (m**4 + 6 * m * m * d * d + 3 * d**4),
        )

    @property
    def is_finite_activity(self):
        return True

    @property
    def has_finite_variation_jumps(self):
        return True


@dataclass(frozen=True)
class VGModel(LevyModel):
    """Variance gamma: pure-jump, finite variation, infinite activity."""

    C: float = 1.0
    G: float = 5.0
    M: float = 5.0

    kind = "vg"

    def __post_init__(self):
        super().__post_init__()
        if self.sigma != 0.0:
            raise ParameterError("vg requires sigma = 0")
        if min(self.C, self.G, self.M) <= 0:
            raise ParameterError("vg requires C, G, M > 0")

    def levy_density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        neg = x < 0
        out[pos] = self.C * np.exp(-self.M * x[pos]) / x[pos]
        out[neg] = self.C * np.exp(self.G * x[neg]) / (-x[neg])
        return out

    def jump_exponent(self, w):
        w = _as_complex(w)
        im = np.imag(w)
        if np.any(im <= -self.M) or np.any(im >= self.G):
            raise DomainError("vg jump exponent needs Im(w) in (-M, G)")
        return self.C * (
            -np.log(1.0 - 1j * w / self.M)
            - np.log(1.0 + 1j * w / self.G)
            - 1j * w * (1.0 / self.M - 1.0 / self.G)
        )

    def exp_moment_strip(self):
        return (-self.G, self.M)

    def nu_mean(self):
        return self.C * (1.0 / self.M - 1.0 / self.G)

    def nu_second_moment(self):
        return self.C * (1.0 / self.M**2 + 1.0 / self.G**2)

    @property
    def is_finite_activity(self):
        return False

    @property
    def has_finite_variation_jumps(self):
        return True


@dataclass(frozen=True)
class NIGModel(LevyModel):
    """Normal inverse Gaussian: pure-jump, infinite variation."""

    a: float = 3.0
    b: float = -1.0
    delta: float = 1.0

    kind = "nig"

    def __post_init__(self):
        super().__post_init__()
        if self.sigma != 0.0:
            raise ParameterError("nig requires sigma = 0")
        if self.a <= 0 or self.delta <= 0 or not (-self.a < self.b < self.a):
            raise ParameterError("nig requires a > 0, delta > 0, b in (-a, a)")

    @property
    def _gamma0(self) -> float:
        return math.sqrt(self.a**2 - self.b**2)

    def levy_density(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        out = np.zeros_like(x)
        nz = ax > 0
        # e^{bx} K1(a|x|) computed via the scaled K1 to avoid overflow:
        # exponent b x - a|x| is <= 0 on both tails since |b| < a.
        out[nz] = (
            self.delta
            * self.a
            / math.pi
            * np.exp(self.b * x[nz] - self.a * ax[nz])
            * k1e(self.a * ax[nz])
            / ax[nz]
        )
        return out

    def jump_exponent(self, w):
        w = _as_complex(w)
        im = np.imag(w)
        lo, hi = self.exp_moment_strip()
        if np.any(-im <= lo) or np.any(-im >= hi):
            raise DomainError("nig jump exponent needs -Im(w) in (-(a+b), a-b)")
        g0 = self._gamma0
        root = np.sqrt(self.a**2 - (self.b + 1j * w) ** 2)
        return self.delta * (g0 - root) - 1j * w * self.delta * self.b / g0

    def exp_moment_strip(self):
        return (-(self.a + self.b), self.a - self.b)

    def nu_mean(self):
        return self.delta * self.b / self._gamma0

    def nu_second_moment(self):
        return self.delta * self.a**2 / self._gamma0**3

    def nu_moments(self):
        d, a, b = self.delta, self.a, self.b
        g0 = self._gamma0
        return (
            d * b / g0,
            d * a * a / g0**3,
            3.0 * d * b * a * a / g0**5,
            3.0 * d * a * a * (a * a + 4.0 * b * b) / g0**7,
        )

    @property
    def is_finite_activity(self):
        return False

    @property
    def has_finite_variation_jumps(self):
        return False


class _TableDensity:
    """Piecewise-exponential density from (knots, log-density) tables,
    log-linear between knots and extrapolated with the boundary slopes."""

    def __init__(self, knots, log_values):
        knots = np.asarray(knots, dtype=float)
        log_values = np.asarray(log_values, dtype=float)
        if knots.ndim != 1 or knots.shape != log_values.shape or knots.size < 2:
            raise ParameterError("density table needs matching 1-d arrays, >= 2 knots")
        order = np.argsort(knots)
        self.knots = knots[order]
        self.logv = log_values[order]
        if np.any(np.diff(self.knots) <= 0):
            raise ParameterError("density table knots must be distinct")
        self.slope_lo = (self.logv[1] - self.logv[0]) / (self.knots[1] - self.knots[0])
        self.slope_hi = (self.logv[-1] - self.logv[-2]) / (self.knots[-1] - self.knots[-2])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        logd = np.interp(x, self.knots, self.logv)
        below = x < self.knots[0]
        above = x > self.knots[-1]
        logd = np.where(below, self.logv[0] + self.slope_lo * (x - self.knots[0]), logd)
        logd = np.where(above, self.logv[-1] + self.slope_hi * (x - self.knots[-1]), logd)
        return np.exp(logd)


@dataclass(frozen=True)
class CustomModel(LevyModel):
    """Levy measure specified by piecewise-exponential tables per sign.

    ``pos_knots/pos_logv`` cover x > 0 and ``neg_knots/neg_logv`` x < 0;
    either side may be omitted.  nu-integrals split at |x| = 1e-4 with a
    Taylor expansion of the integrand below the split.
    """

    pos_knots: tuple = ()
    pos_logv: tuple = ()
    neg_knots: tuple = ()
    neg_logv: tuple = ()

    kind = "custom"

    def __post_init__(self):
        super().__post_init__()
        pos = _TableDensity(self.pos_knots, self.pos_logv) if len(self.pos_knots) else None
        neg = _TableDensity(self.neg_knots, self.neg_logv) if len(self.neg_knots) else None
        if pos is None and neg is None:
            raise ParameterError("custom model needs at least one density table")
        if pos is not None and np.any(np.asarray(self.pos_knots) <= 0):
            raise ParameterError("pos_knots must be positive")
        if neg is not None and np.any(np.asarray(self.neg_knots) >= 0):
            raise ParameterError("neg_knots must be negative")
        if pos is not None and pos.slope_hi >= 0:
            raise ParameterError("custom density must decay on the right tail")
        if neg is not None and neg.slope_lo <= 0:
            raise ParameterError("custom density must decay on the left tail")
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_neg", neg)
        object.__setattr__(self, "_grid", self._build_grid())
        m2 = self.nu_second_moment()
        if not np.isfinite(m2):
            raise ParameterError("custom density is not square integrable")

    def levy_density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if self._pos is not None:
            sel = x > 0
            out[sel] = self._pos(x[sel])
        if self._neg is not None:
            sel = x < 0
            out[sel] = self._neg(x[sel])
        return out

    def _build_grid(self):
        """Cached quadrature nodes for vectorized nu-integrals: Gauss-Legendre
        panels on [split, x_hi] per side plus small-|x| Taylor moments."""
        nodes_list, wts_list = [], []
        gl_x, gl_w = np.polynomial.legendre.leggauss(10)
        for side, dens in (("+", self._pos), ("-", self._neg)):
            if dens is None:
                continue
            slope = abs(dens.slope_hi if side == "+" else dens.slope_lo)
            x_hi = float(np.max(np.abs(dens.knots))) + 80.0 / max(slope, 1e-3)
            edges = np.geomspace(SMALL_JUMP_SPLIT, x_hi, 81)
            for a, b in zip(edges[:-1], edges[1:]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                xs = mid + half * gl_x
                if side == "-":
                    xs = -xs
                nodes_list.append(xs)
                wts_list.append(half * gl_w * self.levy_density(xs))
        nodes = np.concatenate(nodes_list)
        wts = np.concatenate(wts_list)
        # moments of nu below the split: mom[k] = int_{|x| < split} x^k nu(dx)
        mom = np.zeros(5)
        for dens, sgn in ((self._pos, 1.0), (self._neg, -1.0)):
            if dens is None:
                continue
            for k in range(1, 5):
                val, _ = integrate.quad(
                    lambda u, k=k: u**k * float(dens(sgn * u)), 0.0, SMALL_JUMP_SPLIT
                )
                mom[k] += sgn**k * val
        return nodes, wts, mom

    def jump_exponent(self, w):
        w = _as_complex(w)
        lo, hi = self.exp_moment_strip()
        im = np.imag(w)
        if np.any(-im <= lo) or np.any(-im >= hi):
            raise DomainError("custom jump exponent outside moment strip")
        nodes, wts, mom = self._grid
        scalar = w.ndim == 0
        wv = np.atleast_1d(w)
        iwx = 1j * np.multiply.outer(wv, nodes)
        big = (np.exp(iwx) - 1.0 - iwx) @ wts
        iw = 1j * wv
        small = iw**2 / 2.0 * mom[2] + iw**3 / 6.0 * mom[3] + iw**4 / 24.0 * mom[4]
        out = big + small
        return out[0] if scalar else out.reshape(w.shape)

    def exp_moment_strip(self):
        hi = -self._pos.slope_hi if self._pos is not None else math.inf
        lo = -self._neg.slope_lo if self._neg is not None else -math.inf
        return (lo, hi)

    def nu_mean(self):
        nodes, wts, mom = self._grid
        return float(nodes @ wts + mom[1])

    def nu_second_moment(self):
        nodes, wts, mom = self._grid
        return float((nodes * nodes) @ wts + mom[2])

    @property
    def is_finite_activity(self):
        return True

    @property
    def has_finite_variation_jumps(self):
        return True


# ---------------------------------------------------------------------------
# Operations


def characteristic_exponent(model: LevyModel, z) -> complex:
    """psi(z) with the exponential-moment domain enforced for complex z."""
    z = _as_complex(z)
    im = np.imag(z)
    if np.any(im != 0.0):
        lo, hi = model.exp_moment_strip()
        alpha = -im  # |e^{izx}| = e^{-Im(z) x}
        if np.any(alpha <= lo) or np.any(alpha >= hi):
            raise DomainError(
                f"exponential moment diverges at Im(z)={-np.max(np.abs(alpha)):g}; "
                f"admissible strip alpha in ({lo:g}, {hi:g})"
            )
    out = model.psi(z)
    return complex(out) if out.ndim == 0 else out


def characteristic_function(model: LevyModel, t: float, T: float, z) -> complex:
    """phi(t, z) = exp{(T - t) psi(z)} = E[e^{i z (X_T - X_t)}]."""
    if t > T:
        raise DomainError("characteristic_function requires t <= T")
    out = np.exp((T - t) * characteristic_exponent(model, z))
    return complex(out) if np.ndim(out) == 0 else out


@dataclass
class MomentCheck:
    ok: bool
    alpha: float
    tail_integral: float | None
    detail: str

    def __bool__(self):
        return self.ok


def check_exponential_moment(model: LevyModel, alpha: float) -> MomentCheck:
    """Is int_{|x| >= 1} e^{alpha x} nu(dx) finite?  Analytic verdict from the
    model's moment strip; the numeric tail value is reported when finite."""
    lo, hi = model.exp_moment_strip()
    ok = lo < alpha < hi
    if not ok:
        return MomentCheck(False, alpha, None, f"alpha={alpha:g} outside strip ({lo:g}, {hi:g})")
    if isinstance(model, BrownianModel):
        return MomentCheck(True, alpha, 0.0, "no jump component")
    val = 0.0
    for sgn in (1.0, -1.0):

        def f(x, sgn=sgn):
            d = float(model.levy_density(np.array(sgn * x)))
            if d <= 0.0:
                return 0.0
            return math.exp(min(alpha * sgn * x + math.log(d), 700.0))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            part, _ = integrate.quad(f, 1.0, np.inf, limit=200)
        val += part
    return MomentCheck(True, alpha, val, f"tail integral {val:.6g}")


@dataclass
class DecayCheck:
    ok: bool
    alpha: float
    tail_estimate: float
    v_reached: float
    detail: str

    def __bool__(self):
        return self.ok


def _decay_integrand(
    model: LevyModel, alpha: float, tau: float, v: np.ndarray, mode: str = "hedging"
) -> np.ndarray:
    """Dominating-function integrand on the contour z_v = iv - alpha.

    mode "payoff": |phi| / |z_v| — the damped-transform decay entering the
    value function and its representation integrands.
    mode "hedging": |phi| (1 + |z_v| + |jump_exponent| / |z_v|) — the stronger
    decay needed by the derivative and nu-integral terms of the hedge.
    """
    zs = 1j * v - alpha
    w = 1j * zs
    phi_abs = np.exp(tau * np.real(model.psi(w)))
    if mode == "payoff":
        return phi_abs / np.abs(zs)
    jump = np.abs(model.jump_exponent(w)) if not isinstance(model, BrownianModel) else 0.0
    return phi_abs * (1.0 + np.abs(zs) + jump / np.abs(zs))


def check_decay_condition(
    model: LevyModel,
    alpha: float,
    t: float,
    T: float,
    tol: float = 1e-6,
    v0: float = 64.0,
    max_doublings: int = 18,
    mode: str = "hedging",
    tbar_hi: float | None = None,
) -> DecayCheck:
    """Numeric test of the dominating-function condition: the contour
    integrand must have an integrable tail in v, uniformly over
    tbar in [t/2, tbar_hi] (default (T+t)/2).  Raises InconclusiveError on
    borderline decay."""
    mc = check_exponential_moment(model, alpha)
    if not mc.ok:
        return DecayCheck(False, alpha, math.inf, 0.0, f"moment check failed: {mc.detail}")
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    worst = None
    if tbar_hi is None:
        tbar_hi = (T + t) / 2.0
    for tbar in np.linspace(t / 2.0, tbar_hi, 5):
        tau = T - tbar
        if tau <= 0:
            continue

        def block(a, b):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            vals = _decay_integrand(model, alpha, tau, mid + half * gl_x, mode)
            return 2.0 * half * float(vals @ gl_w)  # both contour halves

        core = block(1e-6, v0)
        blocks = []
        verdict = None
        v_hi = v0
        for k in range(max_doublings):
            b = block(v_hi, 2.0 * v_hi)
            v_hi *= 2.0
            blocks.append(b)
            total = core + sum(blocks)
            if b < tol * max(total, 1e-300):
                verdict = DecayCheck(True, alpha, b, v_hi, f"tail negligible at v={v_hi:g}")
                break
            if len(blocks) >= 3:
                r1 = blocks[-1] / blocks[-2]
                r2 = blocks[-2] / blocks[-3]
                r = max(r1, r2)
                if r < 0.85:
                    tail = blocks[-1] * r / (1.0 - r)
                    if tail < tol * total:
                        verdict = DecayCheck(
                            True, alpha, tail, v_hi, f"geometric tail {tail:.3g} at v={v_hi:g}"
                        )
                        break
                elif min(r1, r2) >= 0.98:
                    verdict = DecayCheck(
                        False, alpha, math.inf, v_hi,
                        f"non-decaying blocks (ratio {r1:.3f}) at tbar={tbar:g}",
                    )
                    break
        if verdict is None:
            raise InconclusiveError(
                f"decay behaviour unclassified up to v={v_hi:g} at tbar={tbar:g}"
            )
        if not verdict.ok:
            return verdict
        if worst is None or verdict.tail_estimate > worst.tail_estimate:
            worst = verdict
    return worst if worst is not None else DecayCheck(True, alpha, 0.0, v0, "degenerate window")


@dataclass
class Assumption1Check:
    ok: bool
    moment_ok: bool
    decay_ok: bool
    alpha: float
    detail: str

    def __bool__(self):
        return self.ok


def check_assumption1(model: LevyModel, alpha: float, t: float = 0.0,
                      T: float = 1.0) -> Assumption1Check:
    """Combined check for the representation's standing hypotheses: the
    exponential alpha-moment is finite and the damped contour integrand
    |phi| / |z_v| has an integrable tail over the evaluation window."""
    mc = check_exponential_moment(model, alpha)
    if not mc.ok:
        return Assumption1Check(False, False, False, alpha, mc.detail)
    try:
        dc = check_decay_condition(model, alpha, t, T, mode="payoff")
    except InconclusiveError as exc:
        return Assumption1Check(False, True, False, alpha, f"inconclusive: {exc}")
    return Assumption1Check(bool(dc.ok), True, bool(dc.ok), alpha, dc.detail)


def jump_exponent_quadrature(model: LevyModel, w: complex, split: float = SMALL_JUMP_SPLIT):
    """Brute-force quadrature of int (e^{iwx} - 1 - iwx) nu(dx); the
    independent oracle for the closed-form jump exponents."""
    w = complex(w)
    total = 0.0 + 0.0j
    growth = abs(w.imag)
    for sgn in (1.0, -1.0):
        # finite cutoff where density * e^{|Im w| |x|} is negligible
        cut = 2.0
        while cut < 1e4:
            d = float(model.levy_density(np.array(sgn * cut)))
            if d <= 0.0 or math.log(d) + growth * cut < -45.0:
                break
            cut *= 2.0

        def f(x, sgn=sgn):
            x = sgn * x
            d = float(model.levy_density(np.array(x)))
            return (np.exp(1j * w * x) - 1.0 - 1j * w * x) * d

        val, _ = integrate.quad(f, split, cut, complex_func=True, limit=400)
        total += val
    # small-|x| Taylor part
    for sgn in (1.0, -1.0):
        for k, coef in ((2, (1j * w) ** 2 / 2.0), (3, (1j * w) ** 3 / 6.0), (4, (1j * w) ** 4 / 24.0)):
            mom, _ = integrate.quad(
                lambda u, k=k: u**k * float(model.levy_density(np.array(sgn * u))),
                0.0,
                split,
            )
            total += coef * sgn**k * mom
    return total


def truncated_abs_moment(model: LevyModel, eps: float, hi: float = 1.0) -> float:
    """int_{eps < |x| < hi} |x| nu(dx); the divergence probe used by the
    differentiability classifier."""
    total = 0.0
    for sgn in (1.0, -1.0):
        val, _ = integrate.quad(
            lambda x: x * float(model.levy_density(np.array(sgn * x))), eps, hi, limit=200
        )
        total += val
    return total


_MODEL_KINDS = {
    "merton": MertonModel,
    "vg": VGModel,
    "nig": NIGModel,
    "brownian": BrownianModel,
    "custom": CustomModel,
}


def _number(key: str, value) -> float:
    """A model config value as a finite float, else ParameterError."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"model {key} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ParameterError(f"model {key} must be finite, got {value!r}")
    return out


def model_from_dict(spec: dict) -> LevyModel:
    """Build a model from {"kind": ..., "params": {...}, "mu", "sigma", "x0"}.
    Unknown key or parameter names and non-numeric or non-finite values
    raise ParameterError."""
    kind = spec.get("kind")
    if kind not in _MODEL_KINDS:
        raise ParameterError(f"unknown model kind {kind!r}")
    cls = _MODEL_KINDS[kind]
    keys = ["kind", "mu", "params", "sigma", "x0"]
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ParameterError(f"unknown model keys {unknown}; known: {keys}")
    common = {k: _number(k, spec.get(k, 0.0)) for k in ("x0", "mu", "sigma")}
    known = sorted(f.name for f in fields(cls) if f.name not in common)
    params = dict(spec.get("params", {}))
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ParameterError(f"unknown {kind} parameters {unknown}; known: {known}")
    for key, value in params.items():
        if kind == "custom":  # every custom parameter is a knot table
            params[key] = tuple(_number(key, v) for v in np.atleast_1d(value))
        else:
            params[key] = _number(key, value)
    return cls(**common, **params)
