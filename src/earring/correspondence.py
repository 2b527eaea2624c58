"""Action of the moduli correspondence on immersed curves in the pillowcase.

compose_curve finds the preimage of a curve under the outer restriction
inside the gauge-fixed moduli space: the solution set of { H1 = 0, H2 = 0 }
over the curve, in the unknowns u, arclength on the curve's constraint lift
(so that the base point (gamma, theta) = lift(u) lies on the curve), and h,
stepped in two sphere coordinates.  It is pushed through the inner
restriction.  Away from the corners the set is two sheets over the curve
near the s = 0 sections sigma_+-, swept by one batched fiber solve started
at those sections (md.section_fibers); pseudo-arclength continuation, one
point at a time in Python numbers, only bridges the folds near the corners.
model_map_vdelta applies the explicit local Dehn-twist model instead:
doubling away from the corner disks and one full twist per corner disk.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import curves as cv
from . import moduli as md
from . import pillowcase as pc
from . import quaternion as qt
from .curves import Curve
from .pillowcase import TWO_PI

DEFAULT_TWIST_SIGNS = (1, 1, 1, 1)

# continuation (arclength steps in (u, h), max-norm residuals)
STEP_MIN = 1e-4
STEP_MAX = 5e-2
STEP_INIT = 1e-2
CORRECTOR_ACCEPT = 1e-10
MAX_STEPS = 40000
N_SEEDS = 8
CLOSURE_TOL = 1e-5
RESIDUAL_TOL = 1e-9
SWEEP_SEP_MIN = 0.5   # smallest fiber-branch separation |h+ - h-| of a swept row


class ContinuationStall(RuntimeError):
    pass


class FoldUnresolved(ContinuationStall):
    """A fold that continuation cannot step through; compose_curve skips its seed."""


class NonTransverse(RuntimeError):
    pass


class BadDelta(ValueError):
    pass


@dataclass
class ComposedCurve:
    components: list            # list[Curve] in the inner pillowcase
    provenance: list            # per component: dict of arrays gamma,theta,h,res
    s: float
    input_curve: Curve
    is_connected: bool

    def component_count(self):
        return len(self.components)


# ---------------------------------------------------------------------------
# Continuation engine


class _Lift:
    """A closed constraint lift pts parameterized by arclength u, unrolled.

    lift(u + P) = lift(u) + disp for the period P (the lift's length) and
    disp = pts[-1] - pts[0]; row i of pts sits at u = cum[i] and at row
    position q = i, and row i + k m (m rows a period) at u + k P, q = i + k m.
    """

    def __init__(self, pts):
        d = np.diff(pts, axis=0)
        seg = np.linalg.norm(d, axis=-1)
        self.m, self.disp = len(seg), (pts[-1] - pts[0]).tolist()
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.period, self._cum = float(self.cum[-1]), self.cum.tolist()
        self._segs = [(x, y, dx / n, dy / n, n) for (x, y), (dx, dy), n
                      in zip(pts.tolist(), d.tolist(), seg.tolist())]

    def at(self, u):
        """(gamma, theta, dgamma/du, dtheta/du, row position q) at u in Python floats."""
        n = math.floor(u / self.period)
        v = u - n * self.period
        k = min(max(bisect.bisect_right(self._cum, v) - 1, 0), self.m - 1)
        x, y, dx, dy, length = self._segs[k]
        w, (a, b) = v - self._cum[k], self.disp
        return x + w * dx + n * a, y + w * dy + n * b, dx, dy, k + w / length + n * self.m

    def dist(self, y, U, H):
        """Distance in (u modulo the period, h) from y = (u, h) to samples (U, H)."""
        du = np.remainder(np.asarray(U) - y[0] + self.period / 2, self.period) - self.period / 2
        dh = np.asarray(H) - y[1]
        return np.abs(du) + np.sqrt(np.sum(dh * dh, axis=-1))


def _dot(a, b):
    return sum(map(operator.mul, a, b))


class _System:
    """Residuals and complex-step Jacobian of {H1, H2} at one point (u, h).

    u is arclength on the constraint lift (a _Lift) and h a unit 3-tuple;
    the evaluation runs in Python numbers.
    """

    def __init__(self, lift, s):
        self.lift, self.s = lift, s

    def res_and_jac(self, u, h):
        """Residual (H1, H2) and Jacobian rows in (du, de1, de2), with the frame (e1, e2)."""
        g, t, dg, dt, _ = self.lift.at(u)
        e1, e2 = md._tangent_frame(h)
        eps, s = md.CS_STEP, self.s
        ce, (x, y, z) = 1j * eps, h
        # the u-direction call's real part is the value (H1, H2) itself
        a1, a2 = md.eval_H(g + ce * dg, t + ce * dt, qt.normalize(h), s)
        b1, b2 = md.eval_H(g, t, qt.normalize((x + ce * e1[0], y + ce * e1[1], z + ce * e1[2])), s)
        c1, c2 = md.eval_H(g, t, qt.normalize((x + ce * e2[0], y + ce * e2[1], z + ce * e2[2])), s)
        jac = ((a1.imag / eps, b1.imag / eps, c1.imag / eps),
               (a2.imag / eps, b2.imag / eps, c2.imag / eps))
        return (a1.real, a2.real), jac, (e1, e2)


def _to_local(t4, frame):
    """Frame-free tangent (du, dh) -> unit (du, de1, de2) in a local sphere frame."""
    t = (t4[0], *(_dot(t4[1:], e) for e in frame))
    n = math.sqrt(_dot(t, t))
    return tuple(x / n for x in t) if n > 0 else t


def _tangent(jac, frame, prev=None):
    """Unit tangent (du, dhx, dhy, dhz) of the solution curve.

    The null vector of the 2 x 3 Jacobian is the cross product of its rows.
    Its sign follows prev, or increasing u without prev.  NonTransverse is
    raised when the Jacobian's smallest singular value s2 drops below 1e-10
    (s1^2 + s2^2 = |a|^2 + |b|^2 and s1 s2 = |a x b| for rows a, b).
    """
    a, b = jac
    c = md._cross(a, b)
    sq, cc = _dot(a, a) + _dot(b, b), _dot(c, c)
    smin = math.sqrt(2 * cc / (sq + math.sqrt(max(sq * sq - 4 * cc, 0.0)))) if cc > 0 else 0.0
    if smin < 1e-10:
        raise NonTransverse(f"Jacobian rank drop (smallest singular value {smin:.2e})")
    t4 = (c[0], *(c[1] * x + c[2] * y for x, y in zip(*frame)))
    n = math.copysign(math.sqrt(cc), _dot(t4, prev) if prev is not None else t4[0])
    return tuple(x / n for x in t4)


def _apply(y, delta, frame):
    (u, h), (e1, e2) = y, frame
    return u + delta[0], qt.normalize(tuple(x + delta[1] * a + delta[2] * b
                                            for x, a, b in zip(h, e1, e2)))


def _corrector(system, y, tangent=None, max_iter=12):
    """Newton corrector onto the solution set, pseudo-arclength with tangent.

    Each step solves the 3 x 3 system of the two Jacobian rows and a third
    row: tangent in the current frame, or without tangent the Jacobian's null
    vector (the least-norm step).  Returns (y, res, jac, frame), the last
    three from the final evaluation, which is at the returned y.
    """
    for _ in range(max_iter):
        res, jac, frame = system.res_and_jac(*y)
        if max(abs(res[0]), abs(res[1])) < 1e-13:
            return y, res, jac, frame
        a, b = jac
        c = md._cross(a, b) if tangent is None else _to_local(tangent, frame)
        bc, ca = md._cross(b, c), md._cross(c, a)
        det = _dot(a, bc)
        y = _apply(y, tuple(-(res[0] * x + res[1] * z) / det for x, z in zip(bc, ca)), frame)
    return (y, *system.res_and_jac(*y))


def _ydist(y1, y2):
    """Flat-torus distance of (gamma, theta) plus |h1 - h2|.

    y2 may hold sample arrays (G, T, H); the distance is then taken to each
    sample.
    """
    dg = y1[0] - y2[0]
    dt = y1[1] - y2[1]
    dg = dg - np.round(dg / TWO_PI) * TWO_PI
    dt = dt - np.round(dt / TWO_PI) * TWO_PI
    dh = y1[2] - y2[2]
    return np.hypot(dg, dt) + np.sqrt(np.sum(dh * dh, axis=-1))


def trace_component(system, y0, skip=None):
    """Pseudo-arclength trace of one closed solution component through y0 = (u, h).

    The trace starts toward increasing u.  Steps whose tangent rotates by more
    than 60 degrees are rejected and the step is halved: the solution curve
    folds over the base near the corners, and jumping across a fold would flip
    the traversal direction.  Before each step skip(y, tangent, start) may
    return samples (U, H) ahead of y on the component, taken as they are, and
    whether they end at the start (which closes the trace).  Returns arrays
    (U, G, T, H) of the samples, (G, T) = lift(U), closed by repeating the
    first, and a mask of those from skip (the first is one when the trace
    leaves it by skip).
    """
    lift = system.lift
    y, res, jac, frame = _corrector(system, (float(y0[0]), tuple(map(float, y0[1]))))
    if max(abs(res[0]), abs(res[1])) > CORRECTOR_ACCEPT:
        raise ContinuationStall(f"seed corrector residual {max(map(abs, res)):.2e}")
    samples, swept = [y], [False]
    tan = tan0 = _tangent(jac, frame)
    ds, far = STEP_INIT, 0.0
    for _step in range(MAX_STEPS):
        U, H, closed = skip(y, tan, samples[0]) if skip else ((), (), False)
        swept[0] |= _step == 0 and (closed or len(U) > 0)
        samples += zip(U.tolist(), map(tuple, H.tolist())) if len(U) else ()
        swept += [True] * len(U)
        if closed:
            break
        if len(U):
            y, (u, h) = samples[-1], samples[-2]
            _, jac, frame = system.res_and_jac(*y)
            tan = _tangent(jac, frame, prev=(y[0] - u, *(a - b for a, b in zip(y[1], h))))
            far = max(far, float(np.max(lift.dist(samples[0], U, H))))
        while True:
            y_pred = _apply(y, tuple(ds * x for x in _to_local(tan, frame)), frame)
            y_new, res_new, jac_new, frame_new = _corrector(system, y_pred, tangent=tan)
            if max(abs(res_new[0]), abs(res_new[1])) <= CORRECTOR_ACCEPT:
                tan_new = _tangent(jac_new, frame_new, prev=tan)
                if _dot(tan_new, tan) >= 0.5:
                    break
            ds *= 0.5
            if ds < STEP_MIN:
                g, t, *_ = lift.at(y[0])
                raise FoldUnresolved(
                    f"step underflow after {_step} steps near ({g:.3f}, {t:.3f})")
        y, tan, frame = y_new, tan_new, frame_new
        samples.append(y)
        swept.append(False)
        d0 = float(lift.dist(y, samples[0][0], samples[0][1]))
        far = max(far, d0)
        if far > 6 * STEP_MAX and d0 < max(CLOSURE_TOL, 1.2 * ds) and _dot(tan, tan0) > 0.9:
            break
        ds = min(ds * 1.3, STEP_MAX)
    else:
        raise ContinuationStall(f"no closure after {MAX_STEPS} steps")
    samples.append(samples[0])
    swept.append(swept[0])
    U = np.array([y[0] for y in samples])
    G, T = np.array([lift.at(u)[:2] for u in U.tolist()]).T
    return U, G, T, np.array([y[1] for y in samples]), np.array(swept)


def _push_component(G, T, H, swept, s):
    """Restrict a closed component (G, T, H) to the inner pillowcase as a Curve.

    A component invariant under the extended involution covers its image in
    the quotient twice; it is cut at the half period (the sample closest to
    the involution image of the start, which lies on the component exactly;
    it is taken in the lattice translate nearest to that sample).
    Returns the curve and its provenance.
    """
    n = len(G) - 1
    dists = _ydist(md.iota_hat(G[0], T[0], H[0]), (G[:n], T[:n], H[:n]))
    kmin = int(np.argmin(dists))
    doubled = dists[kmin] < 3 * STEP_MAX and n // 3 <= kmin <= 2 * n // 3 + 1
    if doubled:
        g, t, h = md.iota_hat(G[0], T[0], H[0])
        g, t = (x + np.round((y[kmin] - x) / TWO_PI) * TWO_PI for x, y in ((g, G), (t, T)))
        G = np.append(G[: kmin + 1], g)
        T = np.append(T[: kmin + 1], t)
        H = np.concatenate([H[: kmin + 1], h[None]])
        swept = np.append(swept[: kmin + 1], swept[0])

    f2, f3 = md.eval_F(G, T, H, s)
    res = np.maximum(np.abs(f2), np.abs(f3))
    if np.max(res) > RESIDUAL_TOL:
        raise ContinuationStall(f"pushed sample residual {np.max(res):.2e}")

    lift = cv.unwrap_to_lift(_inner_canonical(G, T, H, s))
    curve = Curve("loop", lift)
    prov = {"gamma": G, "theta": T, "h": H, "residual": res,
            "doubled_upstairs": doubled, "swept": swept}
    return curve, prov


def _inner_canonical(gamma, theta, h, s):
    """Canonical (n, 2) pillowcase points of the inner restriction.

    cos g' and cos t' fix g', t' in [0, pi]; cos(g' - t') fixes the joint
    sign of t'.
    """
    cg, ct, cgt = md.inner_invariants(gamma, theta, h, s)
    g1 = np.arccos(np.clip(cg, -1.0, 1.0))
    t1 = np.arccos(np.clip(ct, -1.0, 1.0))
    flip = np.abs(np.cos(g1 - t1) - cgt) > np.abs(np.cos(g1 + t1) - cgt)
    t1 = np.where(flip, -t1, t1)
    return cv.to_canonical(np.stack([g1, t1 % TWO_PI], axis=-1))


def _seed_rows(g, t, s):
    """Indices of the base points (g, t) far enough from the corners to seed."""
    return np.flatnonzero(pc.corner_dist(g, t) >= max(0.05, 2.5 * s))


def _sweep(lift, s, mirrored):
    """Both fiber branches over the rows of a closed constraint lift.

    The rows far from the corners (_seed_rows) are solved on both branches
    by one md.section_fibers call, straight at s from the s = 0 sections.
    On a doubled arc (mirrored) row m - r is the involution image of row r
    on the same branch, so only rows up to m / 2 are solved.  A row is
    regular when both branches converged, lie at least SWEEP_SEP_MIN apart,
    and the step to the next row, |d(gamma, theta)| combined with the larger
    |dh| of the two branches, is at most STEP_MAX, the longest continuation
    step.  Returns H (m, 2, 3), ok (m, 2)
    and the regular rows (m,); _Lift unrolls them over the lift's period.
    """
    m = len(lift) - 1
    half = m // 2 + 1 if mirrored else m
    rows = _seed_rows(lift[:half, 0], lift[:half, 1], s)
    H = np.full((m, 2, 3), np.nan)
    ok = np.zeros((m, 2), dtype=bool)
    H[rows], _, ok[rows] = md.section_fibers(lift[rows, 0], lift[rows, 1], s)
    H[half:], ok[half:] = H[m - half:0:-1] * md._IOTA_H, ok[m - half:0:-1]
    dh = np.max(np.linalg.norm(np.roll(H, -1, axis=0) - H, axis=-1), axis=-1)
    step = np.hypot(np.linalg.norm(np.diff(lift, axis=0), axis=-1), dh)
    sep = np.linalg.norm(H[:, 0] - H[:, 1], axis=-1)
    return H, ok, ok.all(axis=1) & (sep >= SWEEP_SEP_MIN) & (step <= STEP_MAX)


def _skip(lift, H, reg, y, tan, start):
    """The swept rows ahead of y on its sheet, for trace_component's skip.

    y lies over the unrolled rows i, i + 1 around its arclength u.  When
    both are regular and the h of y is within SWEEP_SEP_MIN / 2 of their
    branch b, the rows of b ahead of y in the direction of tan (the sign of
    its du) are taken up to the first one that is not regular, or up to the
    start's row (to within CLOSURE_TOL).  Returns (U, H, closed), closed when
    the rows end at the start.
    """
    m, q = lift.m, lift.at(y[0])[4]
    i, w = math.floor(q), q - math.floor(q)
    dist = np.linalg.norm(np.asarray(y[1]) - (1 - w) * H[i % m] - w * H[(i + 1) % m], axis=-1)
    b = int(np.argmin(dist))
    if not (reg[i % m] and reg[(i + 1) % m] and dist[b] < SWEEP_SEP_MIN / 2):
        return (), (), False
    d = 1 if tan[0] > 0 else -1
    # rows within rounding of y count as passed
    ahead = (math.floor(q + 1e-9) + 1 if d > 0 else math.ceil(q - 1e-9) - 1) + d * np.arange(m)
    r = ahead[:np.append(np.flatnonzero(~reg[ahead % m]), m)[0]]
    U, Hb = lift.cum[r % m] + (r // m) * lift.period, H[r % m, b]
    at = np.append(np.flatnonzero(lift.dist(start, U, Hb) < CLOSURE_TOL), len(U))[0]
    return U[:at], Hb[:at], at < len(U)


def compose_curve(curve, s):
    """Compose an immersed curve with the moduli correspondence at parameter s.

    Loops away from the corners yield two closed components close to the
    input; arcs with corner endpoints yield closed components forming a
    homology figure eight supported near the arc.

    The curve is resampled at step min(0.02, length / 64) and both fiber
    branches are swept over its constraint lift (_sweep), each solved
    straight at s from its s = 0 section.  Components are sought from
    N_SEEDS rows at arclength fractions 0.08 ... 0.92, on both branches,
    skipping seeds within 3 STEP_MAX of a found component or its
    involution image.  Each is traced by continuation (trace_component),
    which takes the swept rows of each regular stretch it reaches as they
    are (_skip), so that continuation steps are left only in the fold
    windows near the corners.  A seed whose trace raises ContinuationStall
    (FoldUnresolved included) or NonTransverse is skipped.  Each component's
    provenance marks its swept samples in "swept".  Every sample must lie
    within 1e-6 of the input curve's constraint lift, else ContinuationStall.
    An open path is refused with CurveError.
    """
    if not (0 < s < math.pi / 4):
        raise ValueError("s must lie in (0, pi/4)")
    if curve.kind not in ("loop", "arc"):
        raise cv.CurveError("compose acts on loops and arcs")
    pts = cv.constraint_lift(curve.resampled(min(0.02, curve.length() / 64)))
    lift = _Lift(pts)
    system = _System(lift, s)
    seeds = np.searchsorted(lift.cum, np.linspace(0.08, 0.92, N_SEEDS) * lift.period) % lift.m
    H, ok, reg = _sweep(pts, s, curve.kind == "arc")
    skip = functools.partial(_skip, lift, H, reg)

    found, components, provenance = [], [], []
    for r, b in zip(np.repeat(seeds, 2), np.tile([0, 1], N_SEEDS)):
        y = (pts[r, 0], pts[r, 1], H[r, b])
        iy = md.iota_hat(*y)
        if not ok[r, b] or any(min(np.min(_ydist(y, f)), np.min(_ydist(iy, f))) < 3 * STEP_MAX
                               for f in found):
            continue
        try:
            U, *ys, swept = trace_component(system, (lift.cum[r], H[r, b]), skip)
        except (ContinuationStall, NonTransverse):
            continue
        comp, prov = _push_component(*ys, swept, s)
        # definitional check: each traced sample lies at lift(U); the
        # involution image closing a doubled component, moved by whole periods
        # next to the sample before it, lies on one period of the lift
        G, T = prov["gamma"], prov["theta"]
        n = len(G) - prov["doubled_upstairs"]
        off = [math.hypot(g - G[k], t - T[k])
               for k, (g, t, *_) in enumerate(map(lift.at, U[:n].tolist()))]
        if prov["doubled_upstairs"]:
            x = np.array([G[n], T[n]]) - math.floor(U[n - 1] / lift.period) * np.asarray(lift.disp)
            off.append(abs(cv.PolylineProjector(pts, closed=True).project(x)[0]))
        if max(off) > 1e-6:
            raise ContinuationStall(f"trace left the input curve by {max(off):.2e}")
        found.append(tuple(ys))
        components.append(comp)
        provenance.append(prov)
    if not components:
        raise ContinuationStall("no component could be traced from any seed")

    return ComposedCurve(components, provenance, s, curve,
                         is_connected=len(components) == 1)


# ---------------------------------------------------------------------------
# The model map


def twist_angle_profile(t):
    """Smooth non-decreasing [0, 2pi] profile with value pi and slope > 0 at 0."""
    t = np.asarray(t, dtype=float)
    raw = math.pi * (1.0 + np.tanh(6.0 * t) / math.tanh(6.0))
    return np.clip(raw, 0.0, TWO_PI)


def radial_dip_profile(t):
    """Smooth [1/2, 1] radial profile with a single minimum at 0, 1 at both ends."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    return 0.5 + 0.5 * a * a * (3.0 - 2.0 * a)


def _strand_normals(points):
    d = np.gradient(points, axis=0)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return np.stack([-d[:, 1], d[:, 0]], axis=-1)


def _cap(corner_lift, p_from, p_to, sweep_target, delta, n=120):
    """Corner cap from p_from to p_to at radii ~ [delta/2, delta].

    The angular course follows the twist profile, sweeping by the 2*pi-branch
    of (angle(p_to) - angle(p_from)) nearest to sweep_target.
    """
    v1 = p_from - corner_lift
    v2 = p_to - corner_lift
    b1 = math.atan2(v1[1], v1[0])
    b2 = math.atan2(v2[1], v2[0])
    r1, r2 = np.linalg.norm(v1), np.linalg.norm(v2)
    dbeta = b2 - b1
    dbeta += TWO_PI * round((sweep_target - dbeta) / TWO_PI)
    ts = np.linspace(-1.0, 1.0, n)
    ang = b1 + dbeta * twist_angle_profile(ts) / TWO_PI
    u = (ts + 1.0) / 2.0
    rad = delta * radial_dip_profile(ts) + (1 - u) * (r1 - delta) + u * (r2 - delta)
    pts = corner_lift + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    pts[0], pts[-1] = p_from, p_to
    return pts


def model_map_vdelta(curve, delta, twist_signs=DEFAULT_TWIST_SIGNS):
    """Explicit Dehn-twist model of the correspondence action.

    Loops away from the corner disks are doubled exactly.  Arcs are doubled
    outside the corner disks (with a small transversality offset) and capped
    inside each disk by one full twist, producing a figure eight; the twist
    signs are per-corner configuration.
    """
    if not (0 < delta < math.pi / 4):
        raise BadDelta("delta must lie in (0, pi/4)")
    if curve.kind == "loop":
        if float(np.min(pc.corner_dist(curve.samples[:, 0], curve.samples[:, 1]))) < delta:
            raise BadDelta("loop enters a corner disk")
        return ComposedCurve(
            [Curve("loop", curve.samples.copy()), Curve("loop", curve.samples.copy())],
            [{}, {}], 0.0, curve, is_connected=False)
    if curve.kind != "arc":
        raise BadDelta("model map acts on loops and arcs")

    offset = delta / 400.0
    fine = curve.resampled(min(0.01, delta / 25.0))
    pts = fine.samples
    c0 = pts[0]
    c1 = pts[-1]
    r0 = np.linalg.norm(pts - c0, axis=-1)
    r1 = np.linalg.norm(pts - c1, axis=-1)
    inside0 = r0 < delta
    inside1 = r1 < delta
    mid_mask = ~(inside0 | inside1)
    if not np.any(mid_mask):
        raise BadDelta("arc is not delta-separated: no samples outside corner disks")
    i0 = int(np.argmax(mid_mask))                    # first outside sample
    i1 = len(pts) - 1 - int(np.argmax(mid_mask[::-1]))
    if np.any(~mid_mask[i0:i1 + 1]):
        raise BadDelta("arc re-enters a corner disk between its ends")

    def cut(idx_in, idx_out, center):
        # exact radius-delta point between consecutive samples
        a, b = pts[idx_in], pts[idx_out]
        ra, rb = np.linalg.norm(a - center), np.linalg.norm(b - center)
        w = (delta - ra) / (rb - ra)
        return a + w * (b - a)

    y_start = cut(i0 - 1, i0, c0) if i0 > 0 else pts[0]
    y_end = cut(i1 + 1, i1, c1) if i1 < len(pts) - 1 else pts[-1]
    middle = np.concatenate([[y_start], pts[i0:i1 + 1], [y_end]], axis=0)
    normals = _strand_normals(middle)
    strand_p = middle + offset * normals
    strand_m = middle - offset * normals

    tw_end = twist_signs[cv.corner_index_of_lift(c1)]
    tw_start = twist_signs[cv.corner_index_of_lift(c0)]
    cap_end = _cap(c1, strand_p[-1], 2 * c1 - strand_m[-1], tw_end * math.pi, delta)
    strand_back = (2 * c1 - strand_m)[::-1]
    c0_reflected = 2 * c1 - c0
    # the return cap closes onto the forward strand's lattice translate,
    # traversing the twist region in the opposite direction
    cap_start = _cap(c0_reflected, strand_back[-1],
                     strand_p[0] + 2 * (c1 - c0), -tw_start * math.pi, delta)
    loop_pts = np.concatenate(
        [strand_p, cap_end[1:], strand_back[1:], cap_start[1:]], axis=0)
    out = Curve("loop", loop_pts)
    return ComposedCurve([out], [{}], 0.0, curve, is_connected=True)


def compare_to_model(curve, s, delta):
    """Hausdorff distance between the composed and model curves over P^delta.

    Samples are restricted to the part of both outputs lying over base points
    outside the corner disks (the doubled region, where the model equals the
    s = 0 restriction).
    """
    composed = compose_curve(curve, s)
    model = model_map_vdelta(curve, delta)

    def filtered(components, step=0.004):
        pts = []
        for comp in components:
            ss = comp.resampled(step).samples
            keep = pc.corner_dist(ss[:, 0], ss[:, 1]) >= delta
            pts.append(cv.to_canonical(ss[keep]))
        return np.concatenate(pts, axis=0)

    return cv.hausdorff(filtered(composed.components), filtered(model.components))


# ---------------------------------------------------------------------------
# Generalized intersection points of a pair of test arcs


GP_N_SEEDS = 24
GP_MERGE_TOL = 1e-4
GP_COND_TOL = 1e-6
GP_MAX_ITER = 60
GP_CONVERGED = 1e-12
GP_STEP_CAP = 2.0


def _arc_interp(lift):
    """Piecewise-linear interpolation along arclength, vectorized.

    The segment is located from the real part of the parameter, so a complex
    step differentiates the linear piece the parameter lies on.
    """
    lift = np.asarray(lift, dtype=float)
    seg = np.linalg.norm(np.diff(lift, axis=0), axis=-1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])

    def at(u):
        u = np.asarray(u)
        k = np.clip(np.searchsorted(cum, u.real) - 1, 0, len(seg) - 1)
        w = (u - cum[k]) / seg[k]
        return lift[k, 0] + w * (lift[k + 1, 0] - lift[k, 0]), \
            lift[k, 1] + w * (lift[k + 1, 1] - lift[k, 1])

    return at, cum[-1]


def _gp_residual(f0, f1, t0, t1, h, s):
    """The 5 residual components of {arc0(t0) = r0(m), arc1(t1) = r1(m)}.

    The inner point is matched in the cubic-surface embedding, which is an
    immersion along the pillowcase edges (plain (gamma, theta) matching
    degenerates when the target arc lies on an edge).
    """
    g, t = f0(t0)
    h1, h2 = md.eval_H(g, t, h, s)
    cg, ct, cgt = md.inner_invariants(g, t, h, s)
    g1, t1v = f1(t1)
    return h1, h2, cg - np.cos(g1), ct - np.cos(t1v), cgt - np.cos(g1 - t1v)


def _gauss_newton_gp(f0, f1, t0, t1, h, s):
    """Batched Gauss-Newton for generalized points, one row per seed.

    md.sphere_newton in x = (t0, t1) and h on _gp_residual, with the 5 x 4
    least-squares step by a batched SVD (lstsq cutoff) capped at GP_STEP_CAP
    in its largest component.  Returns (t0, t1, h, ok, sv), sv the smallest
    singular value of each row's last step Jacobian (nan if it took no step).
    """
    sv = np.full(len(t0), np.nan)

    def capped_lstsq_step(rows, f, jac, trial):
        jac = np.transpose(np.stack(jac), (2, 0, 1))              # (n, 5, 4)
        u, sing, vt = np.linalg.svd(jac, full_matrices=False)
        sv[rows] = sing[:, -1]
        cutoff = np.finfo(float).eps * max(jac.shape[1:]) * sing[:, :1]
        with np.errstate(divide="ignore"):
            inv = np.where(sing > cutoff, 1.0 / sing, 0.0)
        res = np.stack(f, axis=-1)
        delta = -np.einsum("nki,nk->ni", vt, inv * np.einsum("nji,nj->ni", u, res))
        big = np.max(np.abs(delta), axis=-1, keepdims=True)
        return (delta * (GP_STEP_CAP / np.maximum(big, GP_STEP_CAP))).T, None

    x, h, _, ok = md.sphere_newton(
        lambda rows, x, h: _gp_residual(f0, f1, x[..., 0], x[..., 1], h, s),
        np.stack([t0, t1], axis=-1), h, capped_lstsq_step, GP_MAX_ITER, GP_CONVERGED)
    return x[:, 0], x[:, 1], h, ok, sv


def count_generalized_points(arc0, arc1, s, details=False):
    """Count solutions of {arc0(t0) = r0(m), arc1(t1) = r1(m)} over moduli points m.

    Seeds are GP_N_SEEDS arclength fractions of arc0 away from the corners,
    each on both section branches; their fiber points come from one
    md.section_fibers call, straight at s from the s = 0 sections, and
    their t1 from the arc1 sample nearest to the inner restriction.  All
    seeds then run together through _gauss_newton_gp (md.sphere_newton with
    the capped least-squares step) on the joint system in (t0, t1, h).  A
    seed that ends unconverged strictly inside both arcs raises
    md.NoConvergence; one that ends unconverged at an arc end cannot be an
    interior solution and is dropped.  Converged solutions strictly inside
    both arcs are merged in seed order (seed-major, branch +1 before -1)
    when their (t0, t1, h) keys lie within GP_MERGE_TOL = 1e-4 of each
    other, and every merged solution must have a last-step Jacobian whose
    smallest singular value reaches GP_COND_TOL = 1e-6, else NonTransverse
    is raised (also for a seed that converged without a step, which has no
    Jacobian).
    Returns the number of merged solutions, or with details=True their
    records {key, t0, t1, h, sv}.
    """
    if not (0 < s < math.pi / 4):
        raise ValueError("s must lie in (0, pi/4)")
    f0, len0 = _arc_interp(arc0.samples)
    f1, len1 = _arc_interp(arc1.samples)

    t0 = np.linspace(0.06, 0.94, GP_N_SEEDS) * len0
    g, t = f0(t0)
    rows = _seed_rows(g, t, s)
    h, _, ok = md.section_fibers(g[rows], t[rows], s)
    t0, g, t = (np.repeat(x[rows], 2)[ok.ravel()] for x in (t0, g, t))
    h = h[ok]

    # seed t1 at the arc1 sample nearest to the inner restriction
    a1_canon = cv.to_canonical(arc1.resampled(0.01).samples)
    kbest = cv.nearest_sample(_inner_canonical(g, t, h, s), a1_canon)
    t1 = kbest / (len(a1_canon) - 1.0) * len1

    t0, t1, h, ok, sv = _gauss_newton_gp(f0, f1, t0, t1, h, s)
    interior = ((1e-6 * len0 < t0) & (t0 < len0 * (1 - 1e-6))
                & (1e-6 * len1 < t1) & (t1 < len1 * (1 - 1e-6)))
    stalled = np.flatnonzero(interior & ~ok)
    if len(stalled):
        k = stalled[0]
        raise md.NoConvergence(
            f"{len(stalled)} Gauss-Newton seeds stalled inside both arcs "
            f"(first at t0={t0[k]:.4f}, t1={t1[k]:.4f})")
    keep = ok & interior

    merged = []
    for a, b, hk, sk in zip(t0[keep], t1[keep], h[keep], sv[keep]):
        key = np.concatenate([[a, b], hk])
        if any(np.linalg.norm(key - m["key"]) < GP_MERGE_TOL for m in merged):
            continue
        merged.append({"key": key, "t0": a, "t1": b, "h": hk, "sv": sk})
    for m in merged:
        if not m["sv"] >= GP_COND_TOL:
            raise NonTransverse(
                f"generalized point at t0={m['t0']:.4f} has singular value {m['sv']:.2e}")
    if details:
        return merged
    return len(merged)
