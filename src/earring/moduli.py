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

Everything here is vectorized: gamma/theta broadcast, h has shape (..., 3)
(the imaginary components), and s is a scalar.  All evaluations accept complex
input so Jacobians are computed by complex-step differentiation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import pillowcase as pc
from . import quaternion as qt

S0_EPS = 1e-9          # |s| below this uses the closed-form s=0 branch
NEWTON_MAX_ITER = 50
NEWTON_CONVERGED = 1e-12
NEWTON_ACCEPT = 1e-10
CS_STEP = 1e-30        # complex-step size

_AXES = np.eye(3)
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
    f = (0, cos theta, sin theta, 0) and h.
    """
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
# Newton on the traceless 2-sphere


def _cross(a, b):
    """a x b over the last axis of two (..., 3) arrays."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _tangent_frame(h):
    """Orthonormal frame (e1, e2) of the tangent plane at unit h (..., 3).

    e1 is h x e for the coordinate axis e least aligned with h, normalized,
    and e2 = h x e1.
    """
    h = np.asarray(h)
    e1 = _cross(h, _AXES[np.argmin(np.abs(h), axis=-1)])
    e1 = e1 / np.sqrt(np.sum(e1 * e1, axis=-1, keepdims=True))
    return e1, _cross(h, e1)


def _residual_norm(gamma, theta, h, s):
    h1, h2 = eval_H(gamma, theta, h, s)
    return np.maximum(np.abs(h1), np.abs(h2))


def newton_fiber(gamma, theta, h0, s, max_iter=NEWTON_MAX_ITER):
    """Batched sphere-constrained Newton for eval_H(gamma, theta, . , s) = 0.

    h is parameterized by two tangent coordinates at the current iterate and
    re-projected to the unit sphere each step; damping 0.5 on residual
    increase.  Returns (h, residual, converged_mask).
    """
    gamma = np.asarray(gamma, dtype=float)
    theta = np.asarray(theta, dtype=float)
    h = qt.normalize(np.asarray(h0, dtype=float))

    res = _residual_norm(gamma, theta, h, s)
    for _ in range(max_iter):
        active = res > NEWTON_CONVERGED
        if not np.any(active):
            break
        e1, e2 = _tangent_frame(h)

        def hval(u, v):
            return qt.normalize(h + u[..., None] * e1 + v[..., None] * e2)

        zeros = np.zeros_like(res)
        f1, f2 = eval_H(gamma, theta, h, s)
        step = CS_STEP
        g1u, g2u = eval_H(gamma, theta, hval(zeros + 1j * step, zeros), s)
        g1v, g2v = eval_H(gamma, theta, hval(zeros, zeros + 1j * step), s)
        j11, j21 = g1u.imag / step, g2u.imag / step
        j12, j22 = g1v.imag / step, g2v.imag / step
        det = j11 * j22 - j12 * j21
        bad = np.abs(det) < 1e-300
        det = np.where(bad, 1.0, det)
        du = (-f1 * j22 + f2 * j12) / det
        dv = (-f2 * j11 + f1 * j21) / det
        du = np.where(bad, 0.0, du)
        dv = np.where(bad, 0.0, dv)

        # damped update on the active set
        scale = np.where(active, 1.0, 0.0)
        for _damp in range(6):
            h_new = hval(scale * du, scale * dv)
            res_new = _residual_norm(gamma, theta, h_new, s)
            worse = active & (res_new > res) & (res > 0)
            if not np.any(worse):
                break
            scale = np.where(worse, scale * 0.5, scale)
        h, res = h_new, res_new
    return h, res, res <= NEWTON_ACCEPT


@dataclass
class FiberOptions:
    delta: float = 0.05          # minimum corner distance of the base point
    verify: bool = False         # run the dense spherical sweep oracle
    sweep_azimuth: int = 200
    sweep_polar: int = 100
    merge_tol: float = 1e-6


@dataclass
class FiberSolution:
    gamma: float
    theta: float
    s: float
    h_list: np.ndarray                 # (n, 3)
    residuals: np.ndarray              # (n,)
    multiplicities: np.ndarray         # (n,) seeds merged into each solution
    verified: bool = False

    def count(self):
        return len(self.h_list)

    def to_json(self):
        return {
            "gamma": self.gamma, "theta": self.theta, "s": self.s,
            "h": [list(map(float, v)) for v in self.h_list],
            "residuals": [float(r) for r in self.residuals],
            "multiplicities": [int(m) for m in self.multiplicities],
            "verified": self.verified,
        }

    def dumps(self):
        return json.dumps(self.to_json())


def _merge(h, res, tol):
    """Merge near-duplicate sphere points, keeping the best residual."""
    order = np.argsort(res)
    kept, kres, kmul = [], [], []
    for idx in order:
        v = h[idx]
        placed = False
        for j, w in enumerate(kept):
            if np.linalg.norm(v - w) < tol:
                kmul[j] += 1
                placed = True
                break
        if not placed:
            kept.append(v)
            kres.append(res[idx])
            kmul.append(1)
    return np.array(kept), np.array(kres), np.array(kmul)


def sphere_grid(n_azimuth, n_polar):
    """(n_azimuth * n_polar, 3) grid on the unit sphere, poles excluded."""
    az = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    pol = np.linspace(0.0, math.pi, n_polar + 2)[1:-1]
    A, P = np.meshgrid(az, pol, indexing="ij")
    return np.stack([np.sin(P) * np.cos(A), np.sin(P) * np.sin(A), np.cos(P)],
                    axis=-1).reshape(-1, 3)


def fiber_sweep(gamma, theta, s, opts=None):
    """Dense spherical sweep oracle: all zeros of eval_H(gamma, theta, ., s).

    Newton-polishes every grid point below a coarse residual threshold and
    merges the converged results at a scale well below the fiber separation.
    """
    opts = opts or FiberOptions()
    hgrid = sphere_grid(opts.sweep_azimuth, opts.sweep_polar)
    g = np.full(len(hgrid), float(gamma))
    t = np.full(len(hgrid), float(theta))
    res = _residual_norm(g, t, hgrid, s)
    cut = res < max(0.05, 2.0 * np.percentile(res, 5))
    h, r, ok = newton_fiber(g[cut], t[cut], hgrid[cut], s)
    if not np.any(ok):
        return np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int)
    return _merge(h[ok], r[ok], tol=1e-4)


def solve_fiber(gamma, theta, s, opts=None):
    """All zeros of eval_H(gamma, theta, ., s) on the traceless 2-sphere.

    Newton seeded at the two sections ±sigma; with opts.verify a dense
    spherical grid sweep cross-checks the solution set.
    """
    opts = opts or FiberOptions()
    if abs(s) >= math.pi / 4:
        raise ValueError(f"|s| = {abs(s):.3f} outside the admissible range [0, pi/4)")
    if pc.corner_dist(gamma, theta) < opts.delta:
        raise SeedDegenerate(
            f"base point ({gamma:.4f}, {theta:.4f}) is within {opts.delta} of a corner")

    hp, hm = sigma_sections(gamma, theta)
    seeds = np.stack([hp, hm])
    g = np.full(2, float(gamma))
    t = np.full(2, float(theta))
    h, res, ok = newton_fiber(g, t, seeds, s)
    if not np.all(ok):
        raise NoConvergence(
            f"Newton stalled at ({gamma:.4f}, {theta:.4f}), s={s}: residuals {res}")
    h_list, residuals, mult = _merge(h, res, opts.merge_tol)

    verified = False
    if opts.verify:
        h_sweep, _, _ = fiber_sweep(gamma, theta, s, opts)
        if len(h_sweep) != len(h_list):
            raise NoConvergence(
                f"sweep found {len(h_sweep)} solutions, Newton found {len(h_list)}")
        for v in h_sweep:
            if min(np.linalg.norm(v - w) for w in h_list) > 1e-6:
                raise NoConvergence("sweep solution missed by seeded Newton")
        verified = True
    return FiberSolution(float(gamma), float(theta), float(s),
                         h_list, residuals, mult, verified)


def sample_grid(delta=0.2, n=50):
    """Deterministic n x n base grid on P^delta.

    Corner neighborhoods U_delta(C) are taken in the chordal metric of the
    cubic-surface embedding (the plotting picture): the perturbed cover
    retreats from the corners to flat distance ~ 2s, so for s up to 0.19 the
    flat-metric delta = 0.2 disks would not clear the retreat zone, while the
    chordal ones do.  The grid is uniform over [a, pi - a] x [0, 2 pi) with
    the smallest inset a (in 1e-3 steps) clearing the chordal disks.
    """
    a = 1e-3
    while a < math.pi / 2:
        gam = np.linspace(a, math.pi - a, n)
        the = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        G, T = (x.ravel() for x in np.meshgrid(gam, the, indexing="ij"))
        if float(np.min(pc.corner_dist_chordal(G, T))) >= delta:
            return G, T
        a += 1e-3
    raise ValueError(f"no {n} x {n} grid clears chordal corner distance {delta}")


def solve_fiber_grid(gammas, thetas, s, newton_seed_sections=True):
    """Batched two-seed fiber solve over flat arrays of base points.

    Returns (h_plus, h_minus, res_plus, res_minus) with one Newton run per
    section seed; callers aggregate counts after merging per point.
    """
    gammas = np.asarray(gammas, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    hp, hm = sigma_sections(gammas, thetas)
    h1, r1, ok1 = newton_fiber(gammas, thetas, hp, s)
    h2, r2, ok2 = newton_fiber(gammas, thetas, hm, s)
    if not (np.all(ok1) and np.all(ok2)):
        n_bad = int(np.sum(~ok1) + np.sum(~ok2))
        raise NoConvergence(f"{n_bad} fiber solves failed over the grid")
    return h1, h2, r1, r2


# ---------------------------------------------------------------------------
# Restriction to the two boundary pillowcases


@dataclass
class ModuliPoint:
    gamma: float
    theta: float
    h: np.ndarray          # (3,) imaginary components, unit length
    s: float
    residual: float = field(default=0.0)

    def validate(self, tol=1e-9):
        f2, f3 = eval_F(self.gamma, self.theta, self.h, self.s)
        r = max(abs(float(f2)), abs(float(f3)))
        return r <= tol


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


def restrict(m):
    """Restriction of a moduli point to the two boundary pillowcases."""
    p0 = pc.normalize(m.gamma, m.theta)
    c, f, d = inner_triple(m.gamma, m.theta, m.h, m.s)
    p1 = pc.triple_to_pillowcase(c, f, d)
    return p0, p1


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


def corner_system_gap(s, resolution=1e-5):
    """min over tau in [0, pi] of max(|tau - s sin tau - pi/2|, |tau + s sin tau - pi/2|).

    Strictly positive for 0 < |s| < pi/4: the two corner equations have no
    common solution, so the restriction cannot hit a corner.
    """
    tau = np.arange(0.0, math.pi + resolution, resolution)
    r1, r2 = corner_residuals(tau, s)
    worst = np.maximum(r1, r2)
    k = int(np.argmin(worst))
    # iterative grid refinement (the objective has a kink at the minimizer)
    lo = max(0.0, tau[k] - 2 * resolution)
    hi = min(math.pi, tau[k] + 2 * resolution)
    best = float(worst[k])
    for _ in range(4):
        fine = np.linspace(lo, hi, 1001)
        f1, f2 = corner_residuals(fine, s)
        w = np.maximum(f1, f2)
        j = int(np.argmin(w))
        best = min(best, float(w[j]))
        span = (hi - lo) / 1000
        lo = max(0.0, fine[j] - 2 * span)
        hi = min(math.pi, fine[j] + 2 * span)
    return best
