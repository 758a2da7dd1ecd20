"""Independent oracles that the tests compare the package against: quadrature
for the closed-form jump exponent and square-root payoff transforms, the
fixed quadrature grid that custom models used before their closed form, the
large-argument form of K1, path simulation by plain argsort, np.interp and a
2-D np.add.at, the contour half sum node by node, the probe points by
np.quantile, and the per-step loops of replication and of the FS study with
one uncached table per step."""

import math

import numpy as np
from scipy import integrate

from levyrep.errors import DomainError, ParameterError, QuadratureError
from levyrep.hedging import _lrm_ratio, hedge_components_batch
from levyrep.mmm import exp_jump_mean
from levyrep.models import MertonModel
from levyrep.simulate import build_mark_table

# the brute-force jump exponent integrates below this |x| by a Taylor series
SMALL_JUMP_SPLIT = 1e-4


def jump_exponent_quadrature(model, w: complex, split: float = SMALL_JUMP_SPLIT):
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


def custom_grid_jump_exponent(model, w):
    """A custom model's jump exponent on the fixed grid it used before its
    closed form: per side, 80 geometric panels of 10 Gauss-Legendre nodes
    on [1e-4, max|knot| + 80 / |end slope|], plus Taylor moments of order
    2 to 4 below 1e-4.  Accurate at moderate |w| only: the negative
    control of the closed form."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(10)
    nodes, wts, mom = [], [], np.zeros(5)
    for sgn, knots, logv in ((1.0, model.pos_knots, model.pos_logv),
                             (-1.0, model.neg_knots, model.neg_logv)):
        if not knots:
            continue
        order = np.argsort(np.abs(knots))
        u, lv = np.abs(knots)[order], np.asarray(logv)[order]
        slope = abs((lv[-1] - lv[-2]) / (u[-1] - u[-2]))
        x_hi = float(u[-1]) + 80.0 / max(slope, 1e-3)
        edges = np.geomspace(SMALL_JUMP_SPLIT, x_hi, 81)
        for a, b in zip(edges[:-1], edges[1:]):
            xs = sgn * (0.5 * (a + b) + 0.5 * (b - a) * gl_x)
            nodes.append(xs)
            wts.append(0.5 * (b - a) * gl_w * model.levy_density(xs))
        for k in range(2, 5):
            val, _ = integrate.quad(
                lambda u, k=k: u**k * float(model.levy_density(np.array(sgn * u))),
                0.0, SMALL_JUMP_SPLIT,
            )
            mom[k] += sgn**k * val
    nodes, wts = np.concatenate(nodes), np.concatenate(wts)
    iw = 1j * complex(w)
    big = (np.exp(iw * nodes) - 1.0 - iw * nodes) @ wts
    return big + iw**2 / 2.0 * mom[2] + iw**3 / 6.0 * mom[3] + iw**4 / 24.0 * mom[4]


def sqrt_parts_transform(part: str, x: float, z: complex) -> complex:
    """ghat_+-(x, z) by damped numeric quadrature.

    The endpoint singularity at y = -x is removed by the substitution
    y = -x + u^2.  The closed-form Gamma expression in the payoff catalog is
    the fast path; this is the independent quadrature route.
    """
    z = complex(z)
    if part == "+":
        if z.imag <= 0.0:
            raise DomainError("sqrt_plus transform needs Im(z) > 0")
        s = 1j * z
    elif part == "-":
        if z.imag >= 0.0:
            raise DomainError("sqrt_minus transform needs Im(z) < 0")
        s = -1j * z
    else:
        raise ParameterError("part must be '+' or '-'")

    # int_{-x}^inf e^{izy} sqrt(x+y) dy = e^{-izx} int_0^inf e^{izt} sqrt(t) dt
    # -> substitute t = u^2:  2 int_0^inf u^2 e^{s u^2} du with Re(s) < 0.
    decay = -s.real
    cut = math.sqrt(80.0 / decay)

    def g(u):
        return 2.0 * u * u * np.exp(s * u * u)

    val, err = integrate.quad(g, 0.0, cut, complex_func=True, limit=400)
    if abs(err) > 1e-7 * (1.0 + abs(val)):
        raise QuadratureError(f"sqrt transform quadrature error {err:g}")
    return complex(np.exp(-1j * z * x) * val)


def derivative_transform(part: str, x: float, z: complex) -> complex:
    """ghat_{D+-}(x, z) = -iz ghat_{+-}(x, z)."""
    return -1j * complex(z) * sqrt_parts_transform(part, x, z)


def k1_asymptotic(x):
    """Leading asymptotic e^{-x} sqrt(pi/(2x)); the validation target of K1
    at large arguments."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x) * np.sqrt(np.pi / (2.0 * x))


def simulate_reference(model, T, n_steps, n_paths, seed, scheme="exact", eps_jump=1e-3,
                       gauss_correction=None):
    """The Merton exact and marks schemes of ``simulate`` with the same random
    stream and draw order, sorting the jump times with ``np.argsort``,
    drawing marks with ``np.interp`` on the mark table's knots and binning
    jumps with a 2-D ``np.add.at``.  Returns (x, dW, dB, jump_path,
    jump_step, jump_time, jump_size)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dt = T / n_steps
    dW = rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt)
    if scheme == "exact":
        assert isinstance(model, MertonModel)
        rate, gauss_correction, small_sigma = model.gamma, False, 0.0

        def marks(n):
            return rng.normal(model.m, model.delta, n)

        drift = (model.mu - model.gamma * model.m) * dt
    else:
        table = build_mark_table(model, eps_jump)
        rate = table.rate
        if gauss_correction is None:
            gauss_correction = not model.has_finite_variation_jumps
        small_sigma = math.sqrt(table.small_var) if gauss_correction else 0.0

        def marks(n):
            return np.interp(rng.uniform(0.0, 1.0, n), table.u_grid, table.y_grid)

        drift = (model.mu - table.mean) * dt
    counts = rng.poisson(rate * T, n_paths)
    total = int(counts.sum())
    jp = np.repeat(np.arange(n_paths), counts)
    jt = rng.uniform(0.0, T, total)
    jsize = marks(total)
    order = np.argsort(jt)
    jp, jt, jsize = jp[order], jt[order], jsize[order]
    jstep = np.minimum((jt / dt).astype(int), n_steps - 1)
    dB = (rng.standard_normal((n_paths, n_steps)) * math.sqrt(dt) if gauss_correction
          else np.zeros_like(dW))
    inc = drift + model.sigma * dW + small_sigma * dB
    np.add.at(inc, (jp, jstep), jsize)
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = model.x0
    np.cumsum(inc, axis=1, out=x[:, 1:])
    x[:, 1:] += model.x0
    return x, dW, dB, jp, jstep, jt, jsize


def half_sum_direct(x, vs, W, alpha):
    """(1/pi) e^{alpha x} sum_{v>0} [Re w cos(vx) + Im w sin(vx)] at the
    points x for every column of the stacked weights W = [Re w; Im w] / pi,
    with one cos and one sin per point and node."""
    x = np.ravel(x)
    h = vs.size
    arg = np.multiply.outer(x, vs)
    return (np.cos(arg) @ W[:h] + np.sin(arg) @ W[h:]) * np.exp(alpha * x)[:, None]


def probe_quantiles(xs):
    """The distinct 0, 1/4, 1/2, 3/4 and 1 quantiles of the points by
    np.quantile's default (linear) rule."""
    return np.unique(np.quantile(xs, [0.0, 0.25, 0.5, 0.75, 1.0]))


def replicate_reference(integrands, batch):
    """The replication values R of ``replicate_batch``, from one uncached
    table per part and step at the grid and post-jump states."""
    model, n = integrands.model, batch.n_paths
    R = np.full(n, integrands.mean)
    for k, s, xk, jp, jy in batch.steps():
        pts = np.concatenate([xk, xk[jp] + jy])
        for part in integrands.parts:
            F_all, dF_all, comp = part.evaluate(s, pts)
            if model.sigma != 0.0:
                R += part.sign * model.sigma * dF_all[:n] * batch.dW[:, k]
            R -= part.sign * comp[:n] * batch.dt
            np.add.at(R, jp, part.sign * (F_all[n:] - F_all[:n][jp]))
    return R


def fs_reference(market, transform, grid, batch):
    """(L^H, bracket) of ``fs_path_study`` at xi_scale 1, from one uncached
    ``hedge_components_batch`` table per step."""
    model, n, dt = market.model, batch.n_paths, batch.dt
    eps = batch.eps_jump if batch.scheme == "marks" else None
    disc = math.exp(-market.r * market.T)
    m1_exp = exp_jump_mean(model, eps)
    l_fs, bracket = np.zeros(n), np.zeros(n)
    for k, t, xk, jp, jy in batch.steps():
        s_hat = np.exp(xk)
        pts = np.concatenate([xk, xk[jp] + jy])
        F_all, kappa, nu_int, psi_comp, _ = hedge_components_batch(
            market, transform, grid, t, pts, eps=eps, with_psi_compensator=True)
        F, kappa, nu_int, psi_comp = F_all[:n], kappa[:n], nu_int[:n], psi_comp[:n]
        xi = _lrm_ratio(market, transform, s_hat, kappa, nu_int)
        a = disc * kappa - xi * s_hat
        if model.sigma > 0:
            l_fs += a * model.sigma * batch.dW[:, k]
            bracket += a * model.sigma * s_hat * model.sigma * dt
        l_fs -= (disc * psi_comp - xi * s_hat * m1_exp) * dt
        dl = disc * (F_all[n:] - F[jp]) - xi[jp] * s_hat[jp] * (np.exp(jy) - 1.0)
        np.add.at(l_fs, jp, dl)
        np.add.at(bracket, jp, dl * s_hat[jp] * (np.exp(jy) - 1.0))
    return l_fs, bracket
