"""Combinatorial topology of PL curves in the punctured pillowcase.

Intersection numbers are computed on torus lifts: the first curve's stored
lift is held fixed and crossed against every lattice translate of the second
curve's lift and of its involution image, which counts each quotient crossing
exactly once.  Signs follow the d(gamma) wedge d(theta) orientation.

All segment crossings come from one kernel, `_crossings`.  Its broad phase
cuts each polyline into chunks of _CHUNK segments and keeps the chunk pairs
whose bounding boxes, each padded by m, overlap; its narrow phase evaluates
the dense all-pairs algebra, with the same expressions and operands and so
the same bits, on the segments of those pairs only.

Padding drops no pair that the dense algebra flags as crossing or grazing:
such a pair has |denom| > 1e-14 and computed t, u in (-tau, 1 + tau), tau the
grazing tolerance (0 without one), so a1 + t d1 and b1 + u d2 lie within
tau |d1| and tau |d2| of the two segments.  Bounding the rounding (unit eps/2)
of the cross products and the division puts the two points within
delta = 4 s g / (1e-14 - 4 g) of each other, where g = 4 eps l1 l2, s = l1 + l2
and l1, l2 are the two polylines' longest segments (delta = inf once
g >= 2.5e-15).  So boxes padded by m = tau max(l1, l2) + delta + 1e-6 overlap;
the 1e-6 covers the rounding of the padded box corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as cv
from .curves import Curve
from .pillowcase import TWO_PI


class NonTransverse(RuntimeError):
    pass


class NonSimpleArrangement(RuntimeError):
    pass


class SupportViolation(ValueError):
    pass


@dataclass
class IntersectionReport:
    points: list                 # (u_on_c1, v_on_c2, position, sign)
    algebraic: int
    geometric: int


@dataclass
class HomologyClass:
    n0: int
    n1: int
    n2: int

    def coefficients(self):
        return (self.n0, self.n1, self.n2)

    def __add__(self, other):
        return HomologyClass(self.n0 + other.n0, self.n1 + other.n1, self.n2 + other.n2)


# ---------------------------------------------------------------------------
# Crossing kernel

_CHUNK = 32


def _chunked(pts, size):
    """Segment starts and differences of polylines (..., n + 1, 2), NaN-padded
    to (..., c, size, 2) chunks, and the corners (..., c, 2) of chunk boxes."""
    a, b = pts[..., :-1, :], pts[..., 1:, :]
    n = a.shape[-2]
    c = -(-n // size)
    pad = [(0, 0)] * (a.ndim - 2) + [(0, c * size - n), (0, 0)]
    shape = a.shape[:-2] + (c, size, 2)
    a, b, d = (np.pad(x, pad, constant_values=np.nan).reshape(shape)
               for x in (a, b, b - a))
    return (a, d, np.fmin.reduce(np.fmin(a, b), axis=-2),
            np.fmax.reduce(np.fmax(a, b), axis=-2))


def _crossings(P, Qs, margin=0.0, tol=None, self_pairs=False):
    """Transverse crossings of the polyline P with each polyline of a stack.

    P is (n + 1, 2) and Qs is (k, m + 1, 2); with self_pairs, Qs is P[None]
    and only segment pairs j > i + 1 count.  Segments i of P and j of a
    translate cross when margin < t, u < 1 - margin at a1 + t d1 = b1 + u d2.
    With tol set, t or u within tol of 0 or 1 while the other lies in
    (-tol, 1 + tol) raises NonTransverse.  Returns (u, v, points, signs) in
    (translate, i, j) order, u and v being segment index + fraction.
    """
    n, m = len(P) - 1, Qs.shape[1] - 1
    if len(Qs) == 0 or n < 1 or m < 1:
        return np.zeros(0), np.zeros(0), np.zeros((0, 2)), np.zeros(0, dtype=int)
    sp, sq = min(_CHUNK, n), min(_CHUNK, m)
    A1, D1, plo, phi = _chunked(P, sp)
    B1, D2, qlo, qhi = _chunked(Qs, sq)
    # broad phase: chunk pairs whose padded boxes overlap (module docstring)
    lp = np.max(np.hypot(*np.diff(P, axis=0).T))
    lq = np.max(np.hypot(*np.diff(Qs, axis=1).transpose(2, 0, 1)))
    g = 4 * np.finfo(float).eps * lp * lq
    slack = 4 * (lp + lq) * g / (1e-14 - 4 * g) if g < 2.5e-15 else np.inf
    pad = (tol or 0.0) * max(lp, lq) + slack + 1e-6
    hit = np.all((plo[None, :, None] - pad <= qhi[:, None, :] + pad)
                 & (qlo[:, None, :] - pad <= phi[None, :, None] + pad), axis=-1)
    if self_pairs:
        hit &= np.arange(len(plo))[:, None] <= np.arange(len(plo))
    # narrow phase: the dense algebra on the segments of surviving chunk
    # pairs, a block of pairs at a time to keep the temporaries near 1 MB
    found = [(np.zeros(0, dtype=int),) * 3 + (np.zeros(0),) * 3]
    step = max(1, (1 << 17) // (sp * sq))
    for kk, cp, cq in zip(*(np.split(x, np.arange(step, len(x), step))
                             for x in np.nonzero(hit))):
        a1, d1 = A1[cp], D1[cp]
        b1, d2 = B1[kk, cq], D2[kk, cq]
        r = b1[:, None, :, :] - a1[:, :, None, :]
        denom = (d1[:, :, None, 0] * d2[:, None, :, 1]
                 - d1[:, :, None, 1] * d2[:, None, :, 0])
        rxd2 = r[..., 0] * d2[:, None, :, 1] - r[..., 1] * d2[:, None, :, 0]
        rxd1 = r[..., 0] * d1[:, :, None, 1] - r[..., 1] * d1[:, :, None, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = rxd2 / denom
            u = rxd1 / denom
        ok = ((np.abs(denom) > 1e-14) & (t > margin) & (t < 1 - margin)
              & (u > margin) & (u < 1 - margin))
        if self_pairs:
            ok &= (cq[:, None, None] * sq + np.arange(sq)
                   > cp[:, None, None] * sp + np.arange(sp)[:, None] + 1)
        if tol is not None:
            grazing = (np.abs(denom) > 1e-14) & (
                ((np.abs(t) < tol) | (np.abs(t - 1) < tol)) &
                (u > -tol) & (u < 1 + tol)
                | ((np.abs(u) < tol) | (np.abs(u - 1) < tol)) & (t > -tol) & (t < 1 + tol))
            if np.any(grazing):
                raise NonTransverse("grazing contact between polylines")
        hits = np.nonzero(ok)
        found.append((kk[hits[0]], cp[hits[0]] * sp + hits[1], cq[hits[0]] * sq + hits[2],
                      t[hits], u[hits], denom[hits]))
    k, i, j, t, u, denom = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((j, i, k))
    i, j, t, u, denom = i[order], j[order], t[order], u[order], denom[order]
    pos = A1.reshape(-1, 2)[i] + t[:, None] * D1.reshape(-1, 2)[i]
    return i + t, j + u, pos, np.sign(denom).astype(int)


def _lattice_tiles(moving_pts, fixed_pts):
    """Lattice offsets bringing the moving polyline near the fixed one."""
    lo = fixed_pts.min(axis=0) - moving_pts.max(axis=0)
    hi = fixed_pts.max(axis=0) - moving_pts.min(axis=0)
    ms = range(int(np.floor(lo[0] / TWO_PI)), int(np.ceil(hi[0] / TWO_PI)) + 1)
    ns = range(int(np.floor(lo[1] / TWO_PI)), int(np.ceil(hi[1] / TWO_PI)) + 1)
    return [(m * TWO_PI, n * TWO_PI) for m in ms for n in ns]


_JITTER_DIR = np.array([0.6180339887498949, 0.7861513777574233])
JITTER_ATTEMPTS = 5


def intersection_number(c1, c2):
    """Signed and geometric crossing counts of two curves in the quotient.

    c2 is jittered deterministically (k * 1e-7 in a fixed direction) when a
    grazing contact is detected, up to JITTER_ATTEMPTS times.
    """
    P = np.asarray(c1.samples, dtype=float)
    base = np.asarray(c2.samples, dtype=float)
    for attempt in range(JITTER_ATTEMPTS + 1):
        Q0 = base + attempt * 1e-7 * _JITTER_DIR
        Qs = np.stack([Q + np.asarray(off) for Q in (Q0, -Q0)
                       for off in _lattice_tiles(Q, P)])
        try:
            uu, vv, pos, sgn = _crossings(P, Qs, tol=1e-9)
        except NonTransverse:
            continue
        pts = [(float(a), float(b), p, int(s)) for a, b, p, s in zip(uu, vv, pos, sgn)]
        return IntersectionReport(pts, int(np.sum(sgn)), len(pts))
    raise NonTransverse(f"no transverse position after {JITTER_ATTEMPTS} jitter attempts")


def _self_crossing_params(P):
    """Interior crossings between non-adjacent segments of one polyline."""
    uu, vv, _, _ = _crossings(P, P[None], margin=1e-9, self_pairs=True)
    return list(zip(uu, vv))


def self_intersections(c):
    """Transverse self-crossings of a curve in the quotient.

    Own-lift crossings come from non-adjacent segment pairs; crossings of
    the lift with its involution and lattice images are halved, since each
    quotient crossing appears in two lift configurations.
    """
    P = np.asarray(c.samples, dtype=float)
    count = len(_self_crossing_params(P))
    for attempt in range(JITTER_ATTEMPTS + 1):
        Q0 = P + attempt * 1e-7 * _JITTER_DIR
        Qs = np.stack([-Q0 + np.asarray(off) for off in _lattice_tiles(-Q0, P)]
                      + [Q0 + np.asarray(off) for off in _lattice_tiles(Q0, P)
                         if not np.allclose(off, 0.0)])
        try:
            extra = len(_crossings(P, Qs, tol=1e-9)[0])
        except NonTransverse:
            continue
        return count + extra // 2
    raise NonTransverse("self-intersection count did not stabilize under jitter")


# ---------------------------------------------------------------------------
# Homology classes


def _dual_arcs():
    """Relative arcs from corner 3 to corners 0, 1, 2 dual to the l-basis."""
    p = math.pi
    d0 = Curve("path", np.array([[p, p], [2 * p, 2 * p]]))      # to corner 0
    d1 = Curve("path", np.array([[p, p], [0.0, p]]))            # to corner 1
    d2 = Curve("path", np.array([[p, p], [p, 2 * p]]))          # to corner 2
    return d0, d1, d2


_DUAL_SIGNS = (1, 1, 1)  # calibrated so that a ccw circle around corner i is l_i


def homology_class(c):
    """Class of a closed curve in H_1 of the 4-punctured pillowcase.

    Coefficients are in the basis l0, l1, l2 of circles around corners 0..2
    (l3 = -(l0+l1+l2)); computed by signed intersections with three dual
    relative arcs anchored at corner 3.
    """
    if c.kind != "loop":
        raise ValueError("homology classes are computed for closed curves")
    out = []
    for sign, dual in zip(_DUAL_SIGNS, _dual_arcs()):
        rep = intersection_number(c, dual)
        out.append(sign * rep.algebraic)
    return HomologyClass(*out)


# ---------------------------------------------------------------------------
# Homology figure eight classifier


def _arc_frames(arc):
    """Midpoint frame and corner entry directions of an arc."""
    pts = arc.samples
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=-1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    midu = 0.5 * cum[-1]
    k = int(np.searchsorted(cum, midu)) - 1
    k = min(max(k, 0), len(seg) - 1)
    w = (midu - cum[k]) / seg[k]
    mid = pts[k] + w * (pts[k + 1] - pts[k])
    tmid = (pts[k + 1] - pts[k]) / seg[k]
    d_start = (pts[1] - pts[0]) / np.linalg.norm(pts[1] - pts[0])
    d_end = (pts[-2] - pts[-1]) / np.linalg.norm(pts[-2] - pts[-1])
    return mid, tmid, d_start, d_end


def _rot90(v):
    return np.array([-v[1], v[0]])


def classify_homology_fig8(components, arc, delta, tube_radius=None):
    """Check the three homology-figure-eight conditions near a corner arc.

    components: list of closed Curves (the composed image); arc: the input
    arc.  Builds the local test arcs: alpha+- perpendicular rays at the two
    end corners and beta a transverse cut at the arc midpoint, and counts
    crossings.  Returns a verdict dict.
    """
    if isinstance(components, Curve):
        components = [components]
    tube_radius = tube_radius if tube_radius is not None else max(4.0 * delta, 0.8)

    arc_dense = cv.to_canonical(arc.resampled(0.01).samples)
    for comp in components:
        d = cv.min_dist_to_samples(cv.to_canonical(comp.samples), arc_dense)
        if np.max(d) > tube_radius:
            raise SupportViolation(
                f"curve leaves the {tube_radius:.2f}-tube around the arc "
                f"(distance {np.max(d):.2f})")

    mid, tmid, d_start, d_end = _arc_frames(arc)
    n = _rot90(tmid)
    beta = Curve("path", np.stack([mid - tube_radius * n, mid + tube_radius * n]))
    alpha_minus = Curve("path", np.stack(
        [arc.samples[0], arc.samples[0] + tube_radius * _rot90(d_start)]))
    alpha_plus = Curve("path", np.stack(
        [arc.samples[-1], arc.samples[-1] + tube_radius * _rot90(d_end)]))

    def count(test):
        alg = geo = 0
        for comp in components:
            rep = intersection_number(comp, test)
            alg += rep.algebraic
            geo += rep.geometric
        return alg, geo

    am_alg, am_geo = count(alpha_minus)
    ap_alg, ap_geo = count(alpha_plus)
    b_alg, b_geo = count(beta)

    is_fig8 = (am_geo == 1 and ap_geo == 1 and abs(am_alg) == 1
               and abs(ap_alg) == 1 and am_alg == -ap_alg
               and b_geo == 2 and b_alg == 0)
    return {
        "is_homology_fig8": bool(is_fig8),
        "is_connected": len(components) == 1,
        "counts": {
            "alpha_minus": (am_alg, am_geo),
            "alpha_plus": (ap_alg, ap_geo),
            "beta": (b_alg, b_geo),
        },
    }


# ---------------------------------------------------------------------------
# Bigon counting


def _point_in_polygon(points, poly):
    """Ray-casting parity of each point of points (b, 2) in a closed polygon."""
    x, y = points[:, :1], points[:, 1:]
    (x1, y1), (x2, y2) = poly.T, np.roll(poly, -1, axis=0).T
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
    return np.count_nonzero(((y1 > y) != (y2 > y)) & (xs > x), axis=1) % 2 == 1


def _subarc(samples, u1, u2):
    """Sub-polyline between two crossing parameters on an open polyline."""
    lo, hi = (u1, u2) if u1 <= u2 else (u2, u1)
    i0, i1 = int(math.floor(lo)), int(math.floor(hi))
    p_lo = samples[i0] + (lo - i0) * (samples[i0 + 1] - samples[i0])
    p_hi = samples[i1] + (hi - i1) * (samples[i1 + 1] - samples[i1])
    middle = samples[i0 + 1: i1 + 1]
    return np.concatenate([[p_lo], middle, [p_hi]], axis=0)


def _corner_lifts_in(bbox_lo, bbox_hi):
    out = []
    for m in range(int(np.floor(bbox_lo[0] / math.pi)) - 1,
                   int(np.ceil(bbox_hi[0] / math.pi)) + 2):
        for n in range(int(np.floor(bbox_lo[1] / math.pi)) - 1,
                       int(np.ceil(bbox_hi[1] / math.pi)) + 2):
            out.append((m * math.pi, n * math.pi))
    return out


def _panel_polar(deg, r, center):
    a = math.radians(deg)
    return center + r * np.array([math.cos(a), math.sin(a)])


def _panel_pl(points, step=0.008):
    pts = np.asarray(points)
    out = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        n = max(2, int(np.linalg.norm(b - a) / step) + 1)
        out.extend(a + np.linspace(0, 1, n)[1:, None] * (b - a))
    return np.asarray(out)


def _panel_fig8(path_flat, center, eps, n_cap=500):
    """Doubled path with a full-turn cap around the corner, flattened chart.

    The cap's angular overlap past one full turn produces the single
    self-crossing of the figure eight next to the strand junction.
    """
    d = np.gradient(path_flat, axis=0)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    nrm = np.stack([-d[:, 1], d[:, 0]], axis=-1)
    for sign in (+1.0, -1.0):
        plus = path_flat + sign * eps * nrm
        minus = path_flat - sign * eps * nrm
        v1 = plus[-1] - center
        v2 = minus[-1] - center
        b1, b2 = math.atan2(v1[1], v1[0]), math.atan2(v2[1], v2[0])
        diff = (b2 - b1 + math.pi) % (2 * math.pi) - math.pi
        if diff > 0:
            sweep = 2 * math.pi + diff
            r1, r2 = np.linalg.norm(v1), np.linalg.norm(v2)
            ts = np.linspace(0, 1, n_cap)
            ang = b1 + sweep * ts
            rad = ((1 - ts) * r1 + ts * r2) * (1 - 0.45 * np.sin(math.pi * ts))
            cap = center + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)],
                                                   axis=-1)
            return np.concatenate([plus, cap[1:], minus[::-1][1:]], axis=0)
    raise ValueError("figure-eight cap orientation failed")


def _spline(ctrl):
    """Not-a-knot cubic spline through ctrl at uniform knots on [0, 1], at 600 points."""
    y = np.asarray(ctrl)
    k = len(y) - 1
    # knot curvatures m: C2 at the inner knots, and a continuous third
    # derivative at the second and the second-to-last knot (not-a-knot)
    A = np.eye(k + 1, k=-1) + 4 * np.eye(k + 1) + np.eye(k + 1, k=1)
    A[0, :3] = A[k, k - 2:] = (1.0, -2.0, 1.0)
    rhs = np.zeros_like(y)
    rhs[1:-1] = 6 * k ** 2 * (y[2:] - 2 * y[1:-1] + y[:-2])
    m = np.linalg.solve(A, rhs)
    x = np.linspace(0, 1, 600)
    j = np.minimum((k * x).astype(int), k - 1)
    b = (k * x - j)[:, None]
    a = 1 - b
    return (a * y[j] + b * y[j + 1]
            + ((a ** 3 - a) * m[j] + (b ** 3 - b) * m[j + 1]) / (6 * k ** 2))


def bigon_panels():
    """The two encoded local models of the doubling discrepancy.

    Returns ((A, B_fig8), (A_fig8, B)): an arc against the figure eight of
    its partner, and the figure eight of the arc against the plain partner,
    drawn in the flattened chart at the corner (pi, pi).  The first pair has
    one embedded bigon, the second none: the doubling reroutes the partner
    around the corner, and the figure eight's self-crossing cuts the
    would-be bigon into a triangle.
    """
    O = np.array([math.pi, math.pi])
    a_full = Curve("path", np.stack(
        [np.full(300, O[0]), O[1] + np.linspace(1.1, 0.02, 300)], axis=-1))
    b_ctrl = [_panel_polar(150, 0.95, O), _panel_polar(100, 0.66, O),
              _panel_polar(60, 0.52, O), _panel_polar(75, 0.4, O),
              _panel_polar(110, 0.32, O), _panel_polar(90, 0.26, O),
              _panel_polar(50, 0.22, O)]
    b_fig8 = Curve("path", _panel_fig8(_spline(b_ctrl), O, 0.015))

    a_path = np.stack([np.full(300, O[0]), O[1] + np.linspace(1.1, 0.2, 300)],
                      axis=-1)
    a_fig8 = Curve("path", _panel_fig8(a_path, O, 0.02))
    b_plain = Curve("path", _panel_pl([
        _panel_polar(40, 0.85, O), _panel_polar(70, 0.60, O),
        _panel_polar(110, 0.60, O), _panel_polar(125, 0.80, O),
        O + np.array([-0.25, 1.05]), O + np.array([0.0, 1.22]),
        O + np.array([0.0, 0.4]), O + np.array([0.0, 0.02])]))
    return (a_full, b_fig8), (a_fig8, b_plain)


def count_bigons(c1, c2):
    """Count innermost embedded bigon faces of a two-curve arrangement.

    The curves are taken in a single planar chart (their stored lifts); faces
    bounded by exactly one sub-arc of each curve, with no other strand and no
    orbifold point inside, are counted.  Immersed bigons covering punctured
    regions are out of scope.
    """
    P = np.asarray(c1.samples, dtype=float)
    for attempt in range(JITTER_ATTEMPTS + 1):
        Q = np.asarray(c2.samples, dtype=float) + attempt * 1e-7 * _JITTER_DIR
        try:
            uu, vv, _, _ = _crossings(P, Q[None], tol=1e-9)
            self1 = [x for pair in _self_crossing_params(P) for x in pair]
            self2 = [x for pair in _self_crossing_params(Q) for x in pair]
        except NonTransverse:
            continue
        strands = np.concatenate([P, Q], axis=0)
        n = len(uu)
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                s1 = _subarc(P, uu[i], uu[j])
                s2 = _subarc(Q, vv[i], vv[j])
                # innermost: no other crossing parameter strictly inside either subarc
                lo1, hi1 = sorted((uu[i], uu[j]))
                lo2, hi2 = sorted((vv[i], vv[j]))
                if any(lo1 + 1e-12 < u < hi1 - 1e-12 for u in list(uu) + list(self1)
                       if u not in (uu[i], uu[j])):
                    continue
                if any(lo2 + 1e-12 < v < hi2 - 1e-12 for v in list(vv) + list(self2)
                       if v not in (vv[i], vv[j])):
                    continue
                # align s2 with s1's endpoints before closing the polygon
                if (np.linalg.norm(s2[0] - s1[0]) > np.linalg.norm(s2[-1] - s1[0])):
                    s2 = s2[::-1]
                poly = np.concatenate([s1, s2[::-1][1:-1]], axis=0)
                if len(poly) < 3:
                    continue
                # the two subarcs must not cross each other away from the
                # endpoints they share
                ends = (s1[0], s1[-1], s2[0], s2[-1])
                hits = _crossings(s1, s2[None], margin=1e-7)[2]
                if any(all(np.linalg.norm(p - e) > 1e-6 for e in ends) for p in hits):
                    continue
                # empty interior: no puncture, no other strand point inside
                lo = poly.min(axis=0)
                hi = poly.max(axis=0)
                if np.any(_point_in_polygon(np.array(_corner_lifts_in(lo, hi)), poly)):
                    continue
                others = strands[np.all((lo - 1e-9 <= strands)
                                        & (strands <= hi + 1e-9), axis=1)]
                # row blocks keep the (rows, len(poly)) temporaries small
                step = max(1, (1 << 16) // len(poly))
                for p in np.split(others, np.arange(step, len(others), step)):
                    far1 = np.min(np.linalg.norm(s1 - p[:, None], axis=-1), axis=1) > 1e-7
                    far2 = np.min(np.linalg.norm(s2 - p[:, None], axis=-1), axis=1) > 1e-7
                    if np.any(far1 & far2 & _point_in_polygon(p, poly)):
                        break
                else:
                    count += 1
        return count
    raise NonSimpleArrangement("arrangement not simple under jitter")
