"""Square-integrable Levy models: triplets, characteristic exponents, and
executable integrability checks.

Every model exposes the compensated-jump exponent
``jump_exponent(w) = int (e^{iwx} - 1 - iwx) nu(dx)`` and
``psi(z) = i z mu - sigma^2 z^2 / 2 + jump_exponent(z)`` so that
``E[e^{i z X_t}] = e^{x0 i z} e^{t psi(z)}``, and the moments
``nu_moments() = (int x^k nu(dx), k = 1..4)``.  Every kind uses closed
forms; a custom density is log-linear between its knots, so each of its
pieces integrates exactly.  The integrals the checkers report (the
exponential tail and the truncated |x|-moment) use Gauss-Legendre panels
that grow geometrically away from the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bessel import k1e
from .config import check_keys, config_number
from .errors import DomainError, InconclusiveError, ParameterError

# int_0^1 t^j e^{xt} dt is the series sum_n x^n / (n! (n + j + 1)) of
# RAMP_SERIES_TERMS terms where |x| <= RAMP_SERIES_RADIUS (the error is below
# 2^30 / 30! there), else a recursion in j
RAMP_SERIES_RADIUS = 2.0
RAMP_SERIES_TERMS = 30

# nu-integrals of the checkers: Gauss-Legendre panels of NU_PANEL_ORDER
# nodes, NU_PANELS_PER_OCTAVE per doubling of |x|
NU_PANEL_ORDER = 16
NU_PANELS_PER_OCTAVE = 8


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

    def nu_moments(self) -> tuple[float, float, float, float]:
        """(int x^k nu(dx) for k = 1, 2, 3, 4); the first as the
        cumulant-derivative limit for infinite variation models."""
        raise NotImplementedError

    def nu_mean(self) -> float:
        """int x nu(dx)."""
        return self.nu_moments()[0]

    def nu_second_moment(self) -> float:
        """int x^2 nu(dx)."""
        return self.nu_moments()[1]

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

    def nu_moments(self):
        return 0.0, 0.0, 0.0, 0.0

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

    def nu_moments(self):
        c, g, m = self.C, self.G, self.M
        return (
            c * (1.0 / m - 1.0 / g),
            c * (1.0 / m**2 + 1.0 / g**2),
            2.0 * c * (1.0 / m**3 - 1.0 / g**3),
            6.0 * c * (1.0 / m**4 + 1.0 / g**4),
        )

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


_FACTORIALS = np.cumprod(np.concatenate([[1.0], np.arange(1.0, RAMP_SERIES_TERMS)]))


def _ramp(x, kmax: int) -> np.ndarray:
    """int_0^1 t^j e^{xt} dt for j = 0..kmax, stacked on a new first axis,
    at real or complex x: the series where |x| <= RAMP_SERIES_RADIUS, so
    that x near 0 loses nothing, else g_0 = expm1(x) / x and
    g_j = (e^x - j g_{j-1}) / x."""
    x = np.asarray(x)
    near = np.abs(x) <= RAMP_SERIES_RADIUS
    xf = np.where(near, 1.0, x)
    ex = np.exp(xf)
    g = [np.expm1(xf) / xf]
    for j in range(1, kmax + 1):
        g.append((ex - j * g[-1]) / xf)
    if np.any(near):
        n = np.arange(RAMP_SERIES_TERMS)
        terms = np.where(near, x, 0.0)[..., None] ** n / _FACTORIALS
        for j in range(kmax + 1):
            g[j] = np.where(near, terms @ (1.0 / (n + j + 1)), g[j])
    return np.stack(g)


def _knot_pieces(sgn: float, knots, logv):
    """The sgn side's knot table as log-linear pieces in u = sgn x > 0: the
    start a, length, log-density at a and slope of each.  The log-density is
    linear between knots and extends the end slopes, so the first piece
    starts at u = 0 and the last (length inf) runs to infinity."""
    name, tail = ("pos_knots", "right") if sgn > 0 else ("neg_knots", "left")
    u, lv = sgn * np.asarray(knots, dtype=float), np.asarray(logv, dtype=float)
    if u.ndim != 1 or u.shape != lv.shape or u.size < 2:
        raise ParameterError("density table needs matching 1-d arrays, >= 2 knots")
    if np.any(u <= 0):
        raise ParameterError(f"{name} must be {'positive' if sgn > 0 else 'negative'}")
    order = np.argsort(u)
    u, lv = u[order], lv[order]
    if np.any(np.diff(u) <= 0):
        raise ParameterError("density table knots must be distinct")
    slopes = np.diff(lv) / np.diff(u)
    if slopes[-1] >= 0:
        raise ParameterError(f"custom density must decay on the {tail} tail")
    a = np.concatenate([[0.0], u[1:-1]])
    log_a = np.concatenate([[lv[0] - slopes[0] * u[0]], lv[1:-1]])
    return a, np.append(np.diff(a), np.inf), log_a, slopes


def _piece_moments(a, length, log_a, slope, kmax: int) -> np.ndarray:
    """int u^k e^{log_a + slope (u - a)} du over each piece, summed, for
    k = 0..kmax: the binomial sum over j of C(k, j) a^(k-j) times
    int_0^length u^j e^{slope u} du, which is length^(j+1) g_j(slope length)
    on a finite piece and j! / (-slope)^(j+1) on the tail."""
    j = np.arange(kmax + 1)[:, None]
    ramps = np.empty((kmax + 1, a.size))
    fin = length[:-1]
    ramps[:, :-1] = fin ** (j + 1) * _ramp(slope[:-1] * fin, kmax)
    ramps[:, -1] = _FACTORIALS[: kmax + 1] / (-slope[-1]) ** (j[:, 0] + 1)
    return np.array([
        np.exp(log_a) @ sum(math.comb(k, i) * a ** (k - i) * ramps[i] for i in range(k + 1))
        for k in range(kmax + 1)
    ])


def _piece_transform(w, a, length, log_a, slope):
    """int e^{iwu} e^{log_a + slope (u - a)} du over each piece, summed:
    e^{log_a + iwa} length g_0(z length) with z = slope + iw on a finite
    piece and e^{log_a + iwa} / (-z) on the tail."""
    iw = 1j * w[..., None]
    head = np.exp(log_a + iw * a)
    z = slope + iw
    finite = head[..., :-1] * length[:-1] * _ramp(z[..., :-1] * length[:-1], 0)[0]
    return finite.sum(axis=-1) - head[..., -1] / z[..., -1]


@dataclass(frozen=True)
class CustomModel(LevyModel):
    """Levy measure specified by piecewise-exponential tables per sign.

    ``pos_knots/pos_logv`` cover x > 0 and ``neg_knots/neg_logv`` x < 0;
    either side may be omitted.  The log-density is linear between knots
    and extends the end slopes beyond them, so each side is a few
    exponential pieces, and the jump exponent and the moments are sums of
    their exact integrals (Kou's double-exponential model, Management
    Science 48, 2002, is one piece per side).
    """

    pos_knots: tuple = ()
    pos_logv: tuple = ()
    neg_knots: tuple = ()
    neg_logv: tuple = ()

    kind = "custom"

    def __post_init__(self):
        super().__post_init__()
        for name in ("pos_knots", "pos_logv", "neg_knots", "neg_logv"):
            # tuples keep the model hashable: truncated builds are cached by it
            table = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, tuple(table.tolist()))
        # each side's pieces in u = |x| > 0; moments of nu for k = 0..4
        sides, moments = [], np.zeros(5)
        for sgn, knots, logv in ((1.0, self.pos_knots, self.pos_logv),
                                 (-1.0, self.neg_knots, self.neg_logv)):
            if knots:
                pieces = _knot_pieces(sgn, knots, logv)
                sides.append((sgn, pieces))
                moments += sgn ** np.arange(5) * _piece_moments(*pieces, 4)
        if not sides:
            raise ParameterError("custom model needs at least one density table")
        if not np.all(np.isfinite(moments)):
            raise ParameterError("custom density is not square integrable")
        object.__setattr__(self, "_sides", tuple(sides))
        object.__setattr__(self, "_moments", moments)

    def levy_density(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for sgn, (a, _, log_a, slope) in self._sides:
            sel = sgn * x > 0
            u = sgn * x[sel]
            j = np.searchsorted(a, u, side="right") - 1
            out[sel] = np.exp(log_a[j] + slope[j] * (u - a[j]))
        return out

    def jump_exponent(self, w):
        w = _as_complex(w)
        lo, hi = self.exp_moment_strip()
        im = np.imag(w)
        if np.any(-im <= lo) or np.any(-im >= hi):
            raise DomainError("custom jump exponent outside moment strip")
        out = sum(_piece_transform(sgn * w, *pieces) for sgn, pieces in self._sides)
        return out - self._moments[0] - 1j * w * self._moments[1]

    def exp_moment_strip(self):
        # alpha must stay below each side's tail decay rate
        strip = [-math.inf, math.inf]
        for sgn, pieces in self._sides:
            strip[sgn > 0] = -sgn * float(pieces[3][-1])
        return tuple(strip)

    def nu_moments(self):
        return tuple(float(m) for m in self._moments[1:])

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


def geometric_panels(lo: float, hi: float, n_panels: int, order: int):
    """Gauss-Legendre nodes and weights on [lo, hi]: ``n_panels`` panels of
    ``order`` nodes whose edges grow geometrically from lo > 0."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    edges = np.geomspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    return xs, (half[:, None] * gw[None, :]).ravel()


def _nu_rule(model: LevyModel, sgn: float, lo: float, hi: float):
    """Nodes x on [lo, hi] and their weights times nu(sgn x), negative
    density values counting as 0, for NU_PANELS_PER_OCTAVE panels per
    doubling of x."""
    n_panels = max(1, math.ceil(NU_PANELS_PER_OCTAVE * math.log2(hi / lo)))
    xs, ws = geometric_panels(lo, hi, n_panels, NU_PANEL_ORDER)
    return xs, ws * np.maximum(model.levy_density(sgn * xs), 0.0)


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
        xs, ws = _nu_rule(model, sgn, 1.0, nu_tail_cutoff(model, sgn, 1.0, alpha))
        # e^{alpha x} nu in logs: nu may underflow where e^{alpha x} overflows
        with np.errstate(divide="ignore"):
            val += float(np.exp(np.log(ws) + alpha * sgn * xs).sum())
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


def nu_tail_cutoff(model: LevyModel, sgn: float, eps: float, alpha: float = 0.0) -> float:
    """Where the sgn side of nu is cut for integrals over |y| >= eps against
    e^{alpha y}: from max(1, 4 eps), doubled until nu is 0 or the log of
    e^{alpha y} nu is below -50 there, or the cap 1e4 is reached."""
    hi = max(1.0, 4.0 * eps)
    while hi < 1e4:
        d = float(model.levy_density(np.array(sgn * hi)))
        if d <= 0.0 or math.log(max(d, 1e-300)) + alpha * sgn * hi < -50.0:
            break
        hi *= 2.0
    return hi


def truncated_abs_moment(model: LevyModel, eps: float, hi: float = 1.0) -> float:
    """int_{eps < |x| < hi} |x| nu(dx); the divergence probe used by the
    differentiability classifier."""
    total = 0.0
    for sgn in (1.0, -1.0):
        xs, ws = _nu_rule(model, sgn, eps, hi)
        total += float(xs @ ws)
    return total


_MODEL_KINDS = {
    "merton": MertonModel,
    "vg": VGModel,
    "nig": NIGModel,
    "brownian": BrownianModel,
    "custom": CustomModel,
}


def model_from_dict(spec: dict) -> LevyModel:
    """Build a model from {"kind": ..., "params": {...}, "mu", "sigma", "x0"}.
    Unknown key or parameter names and non-numeric or non-finite values
    raise ParameterError."""
    kind = spec.get("kind")
    if kind not in _MODEL_KINDS:
        raise ParameterError(f"unknown model kind {kind!r}")
    cls = _MODEL_KINDS[kind]
    check_keys("model", spec, ["kind", "mu", "params", "sigma", "x0"])
    common = {k: config_number(k, spec.get(k, 0.0), "model") for k in ("x0", "mu", "sigma")}
    known = sorted(f.name for f in fields(cls) if f.name not in common)
    params = dict(spec.get("params", {}))
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ParameterError(f"unknown {kind} parameters {unknown}; known: {known}")
    for key, value in params.items():
        if kind == "custom":  # every custom parameter is a knot table
            params[key] = tuple(config_number(key, v, "model") for v in np.atleast_1d(value))
        else:
            params[key] = config_number(key, value, "model")
    return cls(**common, **params)
