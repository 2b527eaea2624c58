"""Action of the moduli correspondence on immersed curves in the pillowcase.

compose_curve traces the preimage of a curve under the outer restriction
inside the gauge-fixed moduli space by pseudo-arclength continuation of

    { H1 = 0, H2 = 0, signed-distance-to-curve = 0 }

in the four unknowns (gamma, theta, two sphere coordinates of h), then
pushes the trace through the inner restriction.  model_map_vdelta applies
the explicit local Dehn-twist model instead: doubling away from the corner
disks and one full twist per corner disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as cv
from . import moduli as md
from . import pillowcase as pc
from . import quaternion as qt
from .curves import Curve
from .pillowcase import TWO_PI

DEFAULT_TWIST_SIGNS = (1, 1, 1, 1)


class ContinuationStall(RuntimeError):
    pass


class FoldUnresolved(RuntimeError):
    pass


class NonTransverse(RuntimeError):
    pass


class BadDelta(ValueError):
    pass


@dataclass
class ComposeOptions:
    step_min: float = 1e-4
    step_max: float = 5e-2
    step_init: float = 1e-2
    corrector_tol: float = 1e-12
    corrector_accept: float = 1e-10
    max_steps: int = 40000
    n_seeds: int = 8
    closure_tol: float = 1e-5
    residual_tol: float = 1e-9


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


class _System:
    """Residuals and complex-step Jacobian of {H1, H2, sd} on T x S^2."""

    def __init__(self, projector, s):
        self.proj = projector
        self.s = s

    def res_and_jac(self, g, t, h):
        """Residual (3,) and Jacobian (3, 4) in (dgamma, dtheta, du, dv)."""
        sd, _, normal, _ = self.proj.project(np.array([g, t]))
        e1, e2 = md._tangent_frame(h)
        eps = md.CS_STEP

        # one batched complex evaluation: value plus the four step columns
        gg = np.array([g, g + 1j * eps, g, g, g])
        tt = np.array([t, t, t + 1j * eps, t, t])
        hh = np.stack([h, h, h, h + 1j * eps * e1, h + 1j * eps * e2])
        hh = hh / np.sqrt(np.sum(hh * hh, axis=-1))[:, None]
        h1, h2 = md.eval_H(gg, tt, hh, self.s)
        res = np.array([h1[0].real, h2[0].real, sd])
        jac = np.zeros((3, 4))
        jac[0] = h1[1:].imag / eps
        jac[1] = h2[1:].imag / eps
        jac[2, :2] = normal
        return res, jac, (e1, e2)


def _to5(t4, frame):
    """Tangent 4-vector in a local sphere frame -> frame-independent 5-vector."""
    e1, e2 = frame
    return np.concatenate([t4[:2], t4[2] * e1 + t4[3] * e2])


def _to4(t5, frame):
    e1, e2 = frame
    t4 = np.array([t5[0], t5[1], np.dot(t5[2:], e1), np.dot(t5[2:], e2)])
    n = np.linalg.norm(t4)
    return t4 / n if n > 0 else t4


def _tangent5(jac, frame, prev5=None):
    _, sv, vt = np.linalg.svd(jac)
    if sv[-1] < 1e-10:
        raise NonTransverse(f"Jacobian rank drop (smallest singular value {sv[-1]:.2e})")
    t5 = _to5(vt[-1], frame)
    if prev5 is not None and np.dot(t5, prev5) < 0:
        t5 = -t5
    return t5


def _apply(y, delta, frame):
    g, t, h = y
    e1, e2 = frame
    hq = h + delta[2] * e1 + delta[3] * e2
    hq = hq / np.linalg.norm(hq)
    return (g + delta[0], t + delta[1], hq)


def _corrector(system, y, tangent5=None, max_iter=12):
    """Newton corrector onto the solution set, pseudo-arclength with tangent5.

    Returns (y, res, jac, frame), the last three from the final evaluation,
    which is at the returned y.
    """
    for _ in range(max_iter):
        res, jac, frame = system.res_and_jac(*y)
        if np.max(np.abs(res)) < 1e-13:
            return y, res, jac, frame
        if tangent5 is None:
            delta, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        else:
            aug = np.vstack([jac, _to4(tangent5, frame)])
            rhs = np.concatenate([-res, [0.0]])
            delta = np.linalg.solve(aug, rhs)
        y = _apply(y, delta, frame)
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


def _ydists(y, ys):
    """Distances from y to the samples ys = (G, T, H) and to their involution images.

    The quotient distance to a sample is the smaller of the two.
    """
    return _ydist(y, ys), _ydist(y, md.iota_hat(*ys))


def _sample_arrays(samples):
    """(G, T, H) arrays of a list of gauge-fixed points."""
    return (np.array([y[0] for y in samples]), np.array([y[1] for y in samples]),
            np.stack([y[2] for y in samples]))


def trace_component(system, y0, opts):
    """Pseudo-arclength trace of one closed solution component through y0.

    Steps whose tangent rotates by more than 60 degrees are rejected and the
    step is halved: the solution curve folds over the base near the corners,
    and jumping across a fold would flip the traversal direction.
    """
    y, res, jac, frame = _corrector(system, y0)
    if np.max(np.abs(res)) > opts.corrector_accept:
        raise ContinuationStall(f"seed corrector residual {np.max(np.abs(res)):.2e}")
    samples = [y]
    tan = _tangent5(jac, frame)
    tan0 = tan.copy()
    ds = opts.step_init
    far = 0.0
    for _step in range(opts.max_steps):
        while True:
            y_pred = _apply(y, ds * _to4(tan, frame), frame)
            y_new, res_new, jac_new, frame_new = _corrector(system, y_pred, tangent5=tan)
            if np.max(np.abs(res_new)) <= opts.corrector_accept:
                tan_new = _tangent5(jac_new, frame_new, prev5=tan)
                if np.dot(tan_new, tan) >= 0.5:
                    break
            ds *= 0.5
            if ds < opts.step_min:
                raise FoldUnresolved(
                    f"step underflow after {_step} steps near "
                    f"({y[0]:.3f}, {y[1]:.3f})")
        y, tan, frame = y_new, tan_new, frame_new
        samples.append(y)
        d0 = _ydist(y, samples[0])
        far = max(far, d0)
        if far > 6 * opts.step_max and d0 < max(opts.closure_tol, 1.2 * ds):
            if np.dot(tan, tan0) > 0.9:
                samples.append(samples[0])
                return samples
        ds = min(ds * 1.3, opts.step_max)
    raise ContinuationStall(f"no closure after {opts.max_steps} steps")


def _push_component(samples, s, opts):
    """Restrict a traced component to the inner pillowcase as a Curve.

    A trace invariant under the extended involution covers its image in the
    quotient twice; it is cut at the half period (the point closest to the
    involution image of the start, which lies on the component exactly).
    Returns the curve, its provenance and the (G, T, H) arrays of samples.
    """
    n = len(samples) - 1
    ys = _sample_arrays(samples)
    _, dists = _ydists(samples[0], tuple(a[:n] for a in ys))
    kmin = int(np.argmin(dists))
    doubled = dists[kmin] < 3 * opts.step_max and n // 3 <= kmin <= 2 * n // 3 + 1
    if doubled:
        g, t, h = md.iota_hat(*samples[0])
        G = np.append(ys[0][: kmin + 1], g)
        T = np.append(ys[1][: kmin + 1], t)
        H = np.concatenate([ys[2][: kmin + 1], h[None]])
    else:
        G, T, H = ys

    f2, f3 = md.eval_F(G, T, H, s)
    res = np.maximum(np.abs(f2), np.abs(f3))
    if np.max(res) > opts.residual_tol:
        raise ContinuationStall(f"pushed sample residual {np.max(res):.2e}")

    lift = cv.unwrap_to_lift(_inner_canonical(G, T, H, s))
    curve = Curve("loop", lift)
    prov = {"gamma": G, "theta": T, "h": H,
            "residual": res, "doubled_upstairs": doubled}
    return curve, prov, ys


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


def _fiber_at(g, t, s, branch):
    """Fiber points over the base points (g[k], t[k]), continued from s = 0.

    Row k starts at the section sigma_+ (branch[k] > 0) or sigma_- and is
    carried to s through the stages 0.05, 0.1, 0.15 below |s| and then |s|
    itself, with one batched newton_fiber call per stage for all rows.
    Returns (h, ok): h is (n, 3), and ok[k] says that every stage of row k
    converged (h[k] is meaningless otherwise).
    """
    g = np.asarray(g, dtype=float)
    t = np.asarray(t, dtype=float)
    hp, hm = md.sigma_sections(g, t)
    h = np.where(np.asarray(branch)[:, None] > 0, hp, hm)
    ok = np.ones(len(g), dtype=bool)
    for stage in [x for x in (0.05, 0.1, 0.15) if x < abs(s)] + [abs(s)]:
        h, _, converged = md.newton_fiber(g, t, h, math.copysign(stage, s))
        ok &= converged
    return h, ok


def _seed_rows(g, t, s):
    """Seeds far enough from the corners, each on both section branches.

    Returns (rows, branch): indices into g, t in seed-major order with the
    branches +1, -1 alternating.
    """
    far = np.flatnonzero(pc.corner_dist(g, t) >= max(0.05, 2.5 * s))
    return np.repeat(far, 2), np.tile([1, -1], len(far))


def compose_curve(curve, s, opts=None):
    """Compose an immersed curve with the moduli correspondence at parameter s.

    Loops away from the corners yield two closed components close to the
    input; arcs with corner endpoints yield closed components forming a
    homology figure eight supported near the arc.
    """
    opts = opts or ComposeOptions()
    if not (0 < s < math.pi / 4):
        raise ValueError("s must lie in (0, pi/4)")
    fine = curve.resampled(min(0.02, curve.length() / 64))
    lift = cv.constraint_lift(fine)
    disp = lift[-1] - lift[0]
    if np.linalg.norm(disp) > 1e-9:
        tiled = np.concatenate([lift[:-1] - disp, lift[:-1], lift + disp], axis=0)
    else:
        tiled = lift
    projector = cv.PolylineProjector(tiled, closed=True)
    system = _System(projector, s)

    total = fine.length() if curve.kind == "loop" else 2 * fine.length()
    seg = np.linalg.norm(np.diff(lift, axis=0), axis=-1)
    cumlen = np.concatenate([[0.0], np.cumsum(seg)])

    k = np.searchsorted(cumlen, np.linspace(0.08, 0.92, opts.n_seeds) * cumlen[-1])
    base = lift[np.clip(k, 1, len(lift) - 1)]
    rows, branch = _seed_rows(base[:, 0], base[:, 1], s)
    base = base[rows]
    hs, fiber_ok = _fiber_at(base[:, 0], base[:, 1], s, branch)

    components, provenance = [], []
    reps = []
    for (g, t), h, ok in zip(base, hs, fiber_ok):
        if not ok:
            continue
        y, seed_res, _, _ = _corrector(system, (float(g), float(t), h))
        if np.max(np.abs(seed_res)) > opts.corrector_accept:
            continue
        if any(min(np.min(d) for d in _ydists(y, rep)) < 3 * opts.step_max
               for rep in reps):
            continue
        try:
            samples = trace_component(system, y, opts)
        except (ContinuationStall, NonTransverse):
            continue
        comp, prov, ys = _push_component(samples, s, opts)
        reps.append(ys)
        components.append(comp)
        provenance.append(prov)
    if not components:
        raise ContinuationStall("no component could be traced from any seed")

    # definitional check: the trace projects onto the input curve
    for prov in provenance:
        worst = 0.0
        for g, t in zip(prov["gamma"], prov["theta"]):
            sd, _, _, _ = projector.project(np.array([g, t]))
            worst = max(worst, abs(sd))
        if worst > 1e-6:
            raise ContinuationStall(f"trace left the input curve by {worst:.2e}")

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


def model_map_vdelta(curve, delta, twist_signs=DEFAULT_TWIST_SIGNS, offset=None):
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

    offset = delta / 400.0 if offset is None else offset
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


def compare_to_model(curve, s, delta, opts=None, twist_signs=DEFAULT_TWIST_SIGNS):
    """Hausdorff distance between the composed and model curves over P^delta.

    Samples are restricted to the part of both outputs lying over base points
    outside the corner disks (the doubled region, where the model equals the
    s = 0 restriction).
    """
    composed = compose_curve(curve, s, opts)
    model = model_map_vdelta(curve, delta, twist_signs=twist_signs)

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
    """Residuals (..., 5) of {arc0(t0) = r0(m), arc1(t1) = r1(m)}.

    The inner point is matched in the cubic-surface embedding, which is an
    immersion along the pillowcase edges (plain (gamma, theta) matching
    degenerates when the target arc lies on an edge).
    """
    g, t = f0(t0)
    h1, h2 = md.eval_H(g, t, h, s)
    cg, ct, cgt = md.inner_invariants(g, t, h, s)
    g1, t1v = f1(t1)
    return np.stack([h1, h2, cg - np.cos(g1), ct - np.cos(t1v),
                     cgt - np.cos(g1 - t1v)], axis=-1)


def _gauss_newton_gp(f0, f1, t0, t1, h, s):
    """Masked batched Gauss-Newton for generalized points, one row per seed.

    h is stepped in two tangent coordinates (u, v) and re-projected to the
    unit sphere.  Each iteration evaluates, for the unconverged rows only,
    the residual and its four complex-step Jacobian columns (t0, t1, u, v)
    stacked on a leading axis of length 5, then solves every 5 x 4
    least-squares step by one batched SVD.  Steps are capped at
    GP_STEP_CAP in their largest component; rows whose residual drops below
    GP_CONVERGED are frozen.  Returns (t0, t1, h, ok, sv) where sv is the
    smallest singular value of each row's last step Jacobian (nan if the
    row took no step).
    """
    t0 = np.array(t0, dtype=float)
    t1 = np.array(t1, dtype=float)
    h = np.array(h, dtype=float)
    ok = np.zeros(len(t0), dtype=bool)
    sv = np.full(len(t0), np.nan)
    live = np.arange(len(t0))
    eps = md.CS_STEP
    for _ in range(GP_MAX_ITER):
        a, b, hh = t0[live], t1[live], h[live]
        e1, e2 = md._tangent_frame(hh)
        r = _gp_residual(f0, f1,
                         np.stack([a, a + 1j * eps, a, a, a]),
                         np.stack([b, b, b + 1j * eps, b, b]),
                         np.stack([hh, hh, hh, qt.normalize(hh + 1j * eps * e1),
                                   qt.normalize(hh + 1j * eps * e2)]), s)
        res = r[0].real
        jac = np.moveaxis(r[1:].imag, 0, -1) / eps            # (n, 5, 4)
        done = np.max(np.abs(res), axis=-1) < GP_CONVERGED
        ok[live[done]] = True
        # converged rows freeze; non-finite rows cannot step and stay unconverged
        step = ~done & np.isfinite(r).all(axis=(0, 2))
        live, res, jac = live[step], res[step], jac[step]
        a, b, hh, e1, e2 = a[step], b[step], hh[step], e1[step], e2[step]
        if not len(live):
            break
        u, sing, vt = np.linalg.svd(jac, full_matrices=False)
        sv[live] = sing[:, -1]
        cutoff = np.finfo(float).eps * max(jac.shape[1:]) * sing[:, :1]
        with np.errstate(divide="ignore"):
            inv = np.where(sing > cutoff, 1.0 / sing, 0.0)
        delta = -np.einsum("nki,nk->ni", vt, inv * np.einsum("nji,nj->ni", u, res))
        big = np.max(np.abs(delta), axis=-1, keepdims=True)
        delta *= GP_STEP_CAP / np.maximum(big, GP_STEP_CAP)
        t0[live] = a + delta[:, 0]
        t1[live] = b + delta[:, 1]
        h[live] = qt.normalize(hh + delta[:, 2:3] * e1 + delta[:, 3:4] * e2)
    return t0, t1, h, ok, sv


def count_generalized_points(arc0, arc1, s, n_seeds=24, merge_tol=1e-6,
                             cond_tol=1e-6, details=False):
    """Count solutions of {arc0(t0) = r0(m), arc1(t1) = r1(m)} over moduli points m.

    Seeds are n_seeds arclength fractions of arc0 away from the corners, each
    on both section branches; their fiber points come from one batched
    _fiber_at call and their t1 from the arc1 sample nearest to the inner
    restriction.  All seeds then run together through the masked batched
    Gauss-Newton _gauss_newton_gp on the joint 4-dimensional system.  A
    seed that ends unconverged strictly inside both arcs raises
    md.NoConvergence; one that ends unconverged at an arc end cannot be an
    interior solution and is dropped.  Converged solutions strictly inside
    both arcs are merged in seed order (seed-major, branch +1 before -1) by
    the distance of their (t0, t1, h) keys, and every merged solution must
    have a last-step Jacobian whose smallest singular value reaches
    cond_tol, else NonTransverse is raised (also for a seed that converged
    without a step, which has no Jacobian).
    Returns the number of merged solutions, or with details=True their
    records {key, t0, t1, h, sv}.
    """
    if not (0 < s < math.pi / 4):
        raise ValueError("s must lie in (0, pi/4)")
    f0, len0 = _arc_interp(arc0.samples)
    f1, len1 = _arc_interp(arc1.samples)

    t0 = np.linspace(0.06, 0.94, n_seeds) * len0
    g, t = f0(t0)
    rows, branch = _seed_rows(g, t, s)
    t0, g, t = t0[rows], g[rows], t[rows]
    h, ok = _fiber_at(g, t, s, branch)
    t0, g, t, h = t0[ok], g[ok], t[ok], h[ok]

    # seed t1 at the arc1 sample nearest to the inner restriction, in row
    # blocks of at most 8192 distances: one full distance matrix raised the
    # peak RSS of `earring counts` by 1.4 MB (its temporaries are large
    # enough to be mapped fresh rather than reused from the heap)
    p1 = _inner_canonical(g, t, h, s)
    a1_canon = cv.to_canonical(arc1.resampled(0.01).samples)
    block = max(1, 8192 // len(a1_canon))
    kbest = np.concatenate([
        np.argmin(pc.dist_raw(q[:, :1], q[:, 1:], a1_canon[:, 0], a1_canon[:, 1]), axis=1)
        for q in np.split(p1, range(block, len(p1), block))])
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
        if any(np.linalg.norm(key - m["key"]) < max(merge_tol, 1e-4) for m in merged):
            continue
        merged.append({"key": key, "t0": a, "t1": b, "h": hk, "sv": sk})
    for m in merged:
        if not m["sv"] >= cond_tol:
            raise NonTransverse(
                f"generalized point at t0={m['t0']:.4f} has singular value {m['sv']:.2e}")
    if details:
        return merged
    return len(merged)
