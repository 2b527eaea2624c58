"""Perturbed traceless moduli space of the earring tangle in gauge-fixed coordinates.

A gauge-fixed point is (gamma, theta, h, s) with h a traceless unit quaternion,
subject to the two residual equations

    F2 = Re(conj(p) a conj(f) q f),   F3 = Re(h conj(p) a conj(f) q f),

where a = i, b = e^{gamma k} i, f = e^{theta k} i, p = e^{s Im(b h)},
q = e^{s Im(f conj(a) h)}.  The rescaled system H divides the first equation
by s and has the closed-form limit (Re(h(ba+f)), Re(ha)) at s = 0.

The evaluation is written out in components.  With b = (0, cos gamma,
sin gamma, 0), f = (0, cos theta, sin theta, 0) and h pure,

    Im(b h) = b x h,   f conj(a) h = e^{theta k} h,   a conj(f) = e^{-theta k},

so the core is conj(p) e^{-theta k} q f: two exponentials and three
quaternion products, each expanded over its nonzero components.  Every term
the expansion drops is a product with an exact zero, so the values agree
bitwise with the full quaternion chain (up to the sign of exact zeros).  At
s = 0 the limit is H1 = -hx cos theta - hy sin theta + hz sin gamma and
H2 = -hx.

Everything here is vectorized (gamma/theta broadcast, h of shape (..., 3), s
a scalar) or takes one point in Python numbers (h a 3-tuple); complex input
gives complex-step Jacobians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import pillowcase as pc
from . import quaternion as qt

S0_EPS = 1e-9          # |s| below this uses the closed-form s=0 branch
NEWTON_MAX_ITER = 50
NEWTON_CONVERGED = 1e-12
NEWTON_ACCEPT = 1e-10
CS_STEP = 1e-30        # complex-step size
SWEEP_GRID = (200, 100)  # fiber_sweep's sphere grid (azimuth, polar)
FIBER_MERGE_TOL = 1e-6
FIBER_CORNER_DELTA = 0.05  # solve_fiber refuses base points closer to a corner

_AXES = np.eye(3)
_AXES_T = tuple(map(tuple, _AXES.tolist()))
_IOTA_H = np.array([1.0, -1.0, -1.0])   # h -> -i h i on pure h


class CornerInput(ValueError):
    """Raised when a section is requested at a pillowcase corner."""


class SeedDegenerate(ValueError):
    """Raised when a fiber solve is requested too close to a corner."""


class NoConvergence(RuntimeError):
    """Raised when Newton fails to reach the acceptance residual."""


def _parts(gamma, theta, h):
    """(cos gamma, sin gamma, cos theta, sin theta, hx, hy, hz), broadcasting.

    The nonzero components of b = (0, cos gamma, sin gamma, 0),
    f = (0, cos theta, sin theta, 0) and h; Python numbers for h a 3-tuple.
    """
    if type(h) is tuple:
        m = cmath if isinstance(gamma + theta + h[0] + h[1] + h[2], complex) else math
        return (m.cos(gamma), m.sin(gamma), m.cos(theta), m.sin(theta), *h)
    gamma, theta, h = (np.asarray(x, dtype=np.result_type(x, 1.0)) for x in (gamma, theta, h))
    return (np.cos(gamma), np.sin(gamma), np.cos(theta), np.sin(theta),
            h[..., 0], h[..., 1], h[..., 2])


def _perturbation(parts, s):
    """Components of p = e^{s (b x h)} and q = e^{s e^{theta k} h}."""
    bx, by, fx, fy, hx, hy, hz = parts
    p = qt.exp_im_parts(s * (by * hz), s * -(bx * hz), s * (bx * hy - by * hx))
    q = qt.exp_im_parts(s * (fx * hx - fy * hy), s * (fx * hy + fy * hx), s * (fx * hz))
    return p, q


def _core(parts, s):
    """Components of conj(p) a conj(f) q f = conj(p) e^{-theta k} q f."""
    _, _, fx, fy, _, _, _ = parts
    (p0, p1, p2, p3), (q0, q1, q2, q3) = _perturbation(parts, s)
    # a = conj(p) e^{-theta k}
    a0 = p0 * fx - p3 * fy
    a1 = p2 * fy - p1 * fx
    a2 = -(p1 * fy + p2 * fx)
    a3 = -(p0 * fy + p3 * fx)
    # c = a q
    c0 = a0 * q0 - a1 * q1 - a2 * q2 - a3 * q3
    c1 = a0 * q1 + a1 * q0 + a2 * q3 - a3 * q2
    c2 = a0 * q2 - a1 * q3 + a2 * q0 + a3 * q1
    c3 = a0 * q3 + a1 * q2 - a2 * q1 + a3 * q0
    # core = c f
    return -(c1 * fx + c2 * fy), c0 * fx - c3 * fy, c0 * fy + c3 * fx, c1 * fy - c2 * fx


def _re_h_times(parts, core):
    """Re(h core) for pure h."""
    _, _, _, _, hx, hy, hz = parts
    return -hx * core[1] - hy * core[2] - hz * core[3]


def eval_F(gamma, theta, h, s):
    """The two defining residuals (F2, F3); F1 vanishes on the slice."""
    parts = _parts(gamma, theta, h)
    core = _core(parts, s)
    return core[0], _re_h_times(parts, core)


def eval_H(gamma, theta, h, s):
    """Rescaled system (H1, H2); closed-form branch at s = 0.

    H1 = F2 / s and H2 = F3 for s != 0; at s = 0 the limit is
    H1 = Re(h(ba+f)), H2 = Re(ha).
    """
    parts = _parts(gamma, theta, h)
    if abs(s) < S0_EPS:
        _, by, fx, fy, hx, hy, hz = parts
        return -hx * fx - hy * fy + hz * by, -hx
    core = _core(parts, s)
    return core[0] / s, _re_h_times(parts, core)


def taylor_gap(gamma, theta, h, s):
    """|H1(s) - H1(0)| at a common base point; O(s) by the first-order expansion."""
    if s == 0:
        return 0.0
    h1s, _ = eval_H(gamma, theta, h, s)
    h10, _ = eval_H(gamma, theta, h, 0.0)
    return float(np.max(np.abs(h1s - h10)))


def sigma_sections(gamma, theta):
    """The two s=0 sections h_± = ±(sin(gamma) j + sin(theta) k)/N off corners."""
    gamma = np.asarray(gamma, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sg, st = np.sin(gamma), np.sin(theta)
    n2 = sg * sg + st * st
    if np.any(n2 < 1e-18):
        raise CornerInput("sigma sections are undefined at pillowcase corners")
    n = np.sqrt(n2)
    h = np.stack([np.zeros_like(sg), sg / n, st / n], axis=-1)
    return h, -h


def iota_hat(gamma, theta, h):
    """Extended elliptic involution (gamma,theta,h) -> (-gamma,-theta,-i h i).

    For pure h, -i h i = (hx, -hy, -hz).
    """
    return -np.asarray(gamma), -np.asarray(theta), np.asarray(h) * _IOTA_H


# ---------------------------------------------------------------------------
# Newton on the traceless 2-sphere: sphere_newton, the one batched loop


def _cross(a, b):
    """a x b of two 3-tuples, or over the last axis of two (..., 3) arrays."""
    if type(a) is tuple:
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _tangent_frame(h):
    """Orthonormal frame (e1, e2) of the tangent plane at unit h (..., 3).

    e1 is h x e for the coordinate axis e least aligned with h, normalized,
    and e2 = h x e1.  For h a 3-tuple of floats the frame is two 3-tuples.
    """
    if type(h) is tuple:
        a = [abs(x) for x in h]
        e1 = qt.normalize(_cross(h, _AXES_T[a.index(min(a))]))
        return e1, _cross(h, e1)
    h = np.asarray(h)
    e1 = _cross(h, _AXES[np.argmin(np.abs(h), axis=-1)])
    e1 = e1 / np.sqrt(np.sum(e1 * e1, axis=-1, keepdims=True))
    return e1, _cross(h, e1)


def sphere_newton(residual, x, h, step, max_iter, tol):
    """Masked batched Newton in (x, h) on R^k x S^2, one row per problem.

    residual(rows, x, h) gives the m components (a sequence of arrays) of
    the problems `rows` at x (..., len(rows), k), h (..., len(rows), 3).
    Each Jacobian is one call for the live rows at the k + 2 points
    x + i CS_STEP e_j, h + i CS_STEP e1, e2 (e1, e2 the tangent frame of h,
    re-projected); its first point's real part is the value unless a real
    call gave it: the first call, or step(rows, value, jac, trial) ->
    (delta in (x, e1, e2), value where delta leads or None), trial(delta)
    being that value; a returned delta that was the last trial's keeps that
    trial's point.  Rows whose max-norm value is at most tol freeze;
    non-finite rows stop.  Returns (x, h, max-norm value, converged mask).
    """
    x = np.array(x, dtype=float)
    h = qt.normalize(np.asarray(h, dtype=float))
    n, k = x.shape
    live, res = np.arange(n), np.full(n, np.nan)
    value = residual(live, x, h)
    for taken in range(max_iter + 1):
        if value is not None:
            res[live] = m = np.abs(value).max(axis=0)
            live, value = live[m > tol], [v[m > tol] for v in value]
            if taken == max_iter or not len(live):
                break
        xl, hl = x[live], h[live]
        e1, e2 = _tangent_frame(hl)
        hs = [hl] * k + [qt.normalize(hl + 1j * CS_STEP * e) for e in (e1, e2)]
        r = residual(live, xl + 1j * CS_STEP * np.eye(k + 2, k)[:, None], np.stack(hs))
        go = np.logical_and.reduce([np.isfinite(c).all(axis=0) for c in r])
        if value is None:
            value = [c[0].real for c in r]
            res[live] = m = np.abs(value).max(axis=0)
            go &= m > tol
        if taken == max_iter or not go.any():
            break
        if not go.all():
            live, xl, hl, e1, e2 = live[go], xl[go], hl[go], e1[go], e2[go]
            r, value = [c[:, go] for c in r], [v[go] for v in value]

        def moved(d):
            return xl + np.transpose(d[:k]), qt.normalize(hl + d[k][:, None] * e1
                                                          + d[k + 1][:, None] * e2)

        tried = []      # the step rule's latest trial: (delta, its point)

        def trial(d):
            tried[:] = d, moved(d)
            return residual(live, *tried[1])

        d, value = step(live, value, [c.imag / CS_STEP for c in r], trial)
        x[live], h[live] = tried[1] if tried and tried[0] is d else moved(d)
    return x, h, res, res <= tol


def _damped_cramer_step(rows, f, jac, trial):
    """The 2 x 2 Cramer-rule step, halved up to five times where the residual grows."""
    (j11, j12), (j21, j22) = jac
    det = j11 * j22 - j12 * j21
    bad = np.abs(det) < 1e-300
    det = np.where(bad, 1.0, det)
    du = np.where(bad, 0.0, (-f[0] * j22 + f[1] * j12) / det)
    dv = np.where(bad, 0.0, (-f[1] * j11 + f[0] * j21) / det)
    res, scale = np.abs(f).max(axis=0), 1.0
    for halvings in range(6):
        d = scale * du, scale * dv
        value = trial(d)
        worse = np.abs(value).max(axis=0) > res
        if halvings == 5 or not worse.any():
            return d, value
        scale = np.where(worse, scale * 0.5, scale)


def newton_fiber(gamma, theta, h0, s):
    """Batched sphere-constrained Newton for eval_H(gamma, theta, . , s) = 0.

    sphere_newton in h alone, one row per seed h0, with the damped 2 x 2
    Cramer step.  Returns (h, residual max-norm, residual <= NEWTON_ACCEPT).
    """
    gamma, theta = (np.broadcast_to(np.asarray(x, dtype=float), len(h0)) for x in (gamma, theta))
    _, h, res, _ = sphere_newton(lambda rows, x, h: eval_H(gamma[rows], theta[rows], h, s),
                                 np.zeros((len(h0), 0)), h0, _damped_cramer_step,
                                 NEWTON_MAX_ITER, NEWTON_CONVERGED)
    return h, res, res <= NEWTON_ACCEPT


@dataclass
class FiberSolution:
    gamma: float
    theta: float
    s: float
    h_list: np.ndarray                 # (n, 3)
    residuals: np.ndarray              # (n,)
    multiplicities: np.ndarray         # (n,) seeds merged into each solution

    def count(self):
        return len(self.h_list)

    def to_json(self):
        return {
            "gamma": self.gamma, "theta": self.theta, "s": self.s,
            "h": [list(map(float, v)) for v in self.h_list],
            "residuals": [float(r) for r in self.residuals],
            "multiplicities": [int(m) for m in self.multiplicities],
        }


def _merge(h, res, tol):
    """Merge near-duplicate sphere points, keeping the best residual."""
    kept, kres, kmul = [], [], []
    for idx in np.argsort(res):
        j = next((j for j, w in enumerate(kept) if np.linalg.norm(h[idx] - w) < tol), None)
        if j is None:
            kept.append(h[idx])
            kres.append(res[idx])
            kmul.append(1)
        else:
            kmul[j] += 1
    return np.array(kept), np.array(kres), np.array(kmul)


def sphere_grid(n_azimuth, n_polar):
    """(n_azimuth * n_polar, 3) grid on the unit sphere, poles excluded."""
    az = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    pol = np.linspace(0.0, math.pi, n_polar + 2)[1:-1]
    A, P = np.meshgrid(az, pol, indexing="ij")
    return np.stack([np.sin(P) * np.cos(A), np.sin(P) * np.sin(A), np.cos(P)],
                    axis=-1).reshape(-1, 3)


def fiber_sweep(gamma, theta, s):
    """Dense spherical sweep oracle: all zeros of eval_H(gamma, theta, ., s).

    Newton-polishes every grid point below a coarse residual threshold and
    merges the converged results at a scale well below the fiber separation.
    """
    hgrid = sphere_grid(*SWEEP_GRID)
    g = np.full(len(hgrid), float(gamma))
    t = np.full(len(hgrid), float(theta))
    res = np.abs(eval_H(g, t, hgrid, s)).max(axis=0)
    cut = res < max(0.05, 2.0 * np.percentile(res, 5))
    h, r, ok = newton_fiber(g[cut], t[cut], hgrid[cut], s)
    if not np.any(ok):
        return np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int)
    return _merge(h[ok], r[ok], tol=1e-4)


def section_fibers(gamma, theta, s):
    """Fiber points of both branches over flat arrays of base points.

    Newton starts at the s = 0 sections sigma_+ and sigma_- and solves
    straight at s, one batched newton_fiber run per section.  Returns h
    (n, 2, 3), residuals (n, 2) and the converged mask (n, 2), branch +
    before -; h[k, b] is meaningless where ok[k, b] is False.
    """
    runs = [newton_fiber(gamma, theta, seed, s) for seed in sigma_sections(gamma, theta)]
    return tuple(np.stack(x, axis=1) for x in zip(*runs))


def solve_fiber(gamma, theta, s):
    """All zeros of eval_H(gamma, theta, ., s) on the traceless 2-sphere.

    Newton seeded at the two sections ±sigma, merged within FIBER_MERGE_TOL.
    A base point closer than FIBER_CORNER_DELTA to a corner raises
    SeedDegenerate; the dense sweep fiber_sweep is the independent oracle.
    """
    if abs(s) >= math.pi / 4:
        raise ValueError(f"|s| = {abs(s):.3f} outside the admissible range [0, pi/4)")
    if pc.corner_dist(gamma, theta) < FIBER_CORNER_DELTA:
        raise SeedDegenerate(f"base point ({gamma:.4f}, {theta:.4f}) is within "
                             f"{FIBER_CORNER_DELTA} of a corner")

    h, res, ok = (x[0] for x in section_fibers([gamma], [theta], s))
    if not np.all(ok):
        raise NoConvergence(
            f"Newton stalled at ({gamma:.4f}, {theta:.4f}), s={s}: residuals {res}")
    h_list, residuals, mult = _merge(h, res, FIBER_MERGE_TOL)
    return FiberSolution(float(gamma), float(theta), float(s), h_list, residuals, mult)


def sample_grid(delta=0.2, n=50):
    """Deterministic n x n base grid on P^delta.

    Corner neighborhoods U_delta(C) are taken in the chordal metric of the
    cubic-surface embedding (the plotting picture): the perturbed cover
    retreats from the corners to flat distance ~ 2s, so for s up to 0.19 the
    flat-metric delta = 0.2 disks would not clear the retreat zone, while the
    chordal ones do.  The grid is uniform over [a, pi - a] x [0, 2 pi) with
    the smallest inset a in the sequence 1e-3, 2e-3, ... (accumulated, as a
    loop adding 1e-3 would) clearing the chordal disks.

    The inset is found by bisection, since clearing is monotone in a (for
    delta < 1; corners across the base are at chordal distance >= 1).  Row j
    sits at gamma = a + j (pi - 2a) / (n - 1), so every row moves away from
    its nearer edge as a grows.  At offsets x from that edge and y from a
    corner's theta the squared chordal distance is g(x) + g(y) + g(x - y),
    g(u) = (1 - cos u)^2.  The theta grid is symmetric about each corner's
    theta, so a pair of columns +-y comes to g(x) + g(|y|) + g(|x - |y||),
    nondecreasing in x for |y| <= x; columns with |y| > x lie at least
    2 g(x) away, which the column theta = 0 attains.  So each row's distance
    from the corners grows with a, and with it the grid's.
    """
    the = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    insets = np.cumsum(np.full(int(math.pi / 2 / 1e-3) + 1, 1e-3))
    insets = insets[insets < math.pi / 2]

    def grid(a):
        gam = np.linspace(a, math.pi - a, n)
        return tuple(x.ravel() for x in np.meshgrid(gam, the, indexing="ij"))

    lo, hi = 0, len(insets)
    while lo < hi:
        mid = (lo + hi) // 2
        if float(np.min(pc.corner_dist_chordal(*grid(insets[mid])))) >= delta:
            hi = mid
        else:
            lo = mid + 1
    if lo == len(insets):
        raise ValueError(f"no {n} x {n} grid clears chordal corner distance {delta}")
    return grid(insets[lo])


def solve_fiber_grid(gammas, thetas, s):
    """section_fibers over flat arrays of base points, every row converged.

    Returns (h_plus, h_minus, res_plus, res_minus); raises NoConvergence if
    any row of either branch fails.
    """
    h, res, ok = section_fibers(gammas, thetas, s)
    if not np.all(ok):
        raise NoConvergence(f"{np.count_nonzero(~ok)} fiber solves failed over the grid")
    return h[:, 0], h[:, 1], res[:, 0], res[:, 1]


# ---------------------------------------------------------------------------
# Restriction to the two boundary pillowcases


def inner_triple(gamma, theta, h, s):
    """(c, f, d) with c = conj(q)conj(p) b p q and d = -conj(h) a h."""
    parts = _parts(gamma, theta, h)
    bx, by, fx, fy, hx, hy, hz = parts
    p, q = (qt.quat(*x) for x in _perturbation(parts, s))
    b = qt.quat(0.0, bx, by, 0.0)
    f = qt.quat(0.0, fx, fy, 0.0)
    h4 = qt.quat(0.0, hx, hy, hz)
    c = qt.mul_chain(qt.conj(q), qt.conj(p), b, p, q, renorm=True)
    d = -qt.mul_chain(qt.conj(h4), qt.I, h4, renorm=True)
    return c, f, d


def inner_invariants(gamma, theta, h, s):
    """(cos g', cos t', cos(g'-t')) of the inner-boundary triple, vectorized."""
    c, f, d = inner_triple(gamma, theta, h, s)
    return pc.triple_invariants(c, f, d)


def corner_margin(gamma, theta, h, s):
    """sin^2 g' + sin^2 t' at the inner restriction, vectorized.

    Strictly positive margins witness that the restriction misses the corners.
    """
    cg, ct, _ = inner_invariants(gamma, theta, h, s)
    return (1.0 - cg ** 2) + (1.0 - ct ** 2)


# ---------------------------------------------------------------------------
# The corner system


def corner_residuals(tau, s):
    """Residuals of the two corner equations pi/2 = tau -/+ s sin(tau)."""
    tau = np.asarray(tau)
    r1 = np.abs(tau - s * np.sin(tau) - math.pi / 2)
    r2 = np.abs(tau + s * np.sin(tau) - math.pi / 2)
    return r1, r2


def corner_system_gap(s):
    """min over tau in [0, pi] of max(|tau - s sin tau - pi/2|, |tau + s sin tau - pi/2|).

    The objective is |tau - pi/2| + |s| |sin tau|.  With x = tau - pi/2,
    so |x| <= pi/2 and sin tau = cos x >= 1 - x^2 / 2, it is at least
    |x| + |s| (1 - x^2 / 2) = |s| + |x| (1 - |s| |x| / 2) >= |s| for
    |s| < pi/4, with equality at tau = pi/2.  So the gap is |s|: strictly
    positive for 0 < |s| < pi/4, where the two corner equations have no
    common solution and the restriction cannot hit a corner.
    """
    if abs(s) >= math.pi / 4:
        raise ValueError(f"|s| = {abs(s):.3f} outside the admissible range [0, pi/4)")
    return abs(s)
