"""Combinatorial topology of PL curves in the punctured pillowcase.

Intersection numbers are computed on torus lifts: the first curve's stored
lift is held fixed and crossed against every lattice translate of the second
curve's lift and of its involution image, which counts each quotient crossing
exactly once.  Signs follow the d(gamma) wedge d(theta) orientation.
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


def _segment_crossings(P, Q, tol=1e-9):
    """All transverse interior crossings between two open polylines in R^2.

    Returns (u, v, points, signs) with u, v arclength-like parameters
    (segment index + fraction).  Raises NonTransverse on grazing contacts.
    """
    a1, a2 = P[:-1], P[1:]
    b1, b2 = Q[:-1], Q[1:]
    d1 = a2 - a1
    d2 = b2 - b1
    # r[i,j] = b1[j] - a1[i]
    r = b1[None, :, :] - a1[:, None, :]
    denom = d1[:, None, 0] * d2[None, :, 1] - d1[:, None, 1] * d2[None, :, 0]
    rxd2 = r[:, :, 0] * d2[None, :, 1] - r[:, :, 1] * d2[None, :, 0]
    rxd1 = r[:, :, 0] * d1[:, None, 1] - r[:, :, 1] * d1[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = rxd2 / denom
        u = rxd1 / denom
    ok = (np.abs(denom) > 1e-14) & (t > 0) & (t < 1) & (u > 0) & (u < 1)
    grazing = (np.abs(denom) > 1e-14) & (
        ((np.abs(t) < tol) | (np.abs(t - 1) < tol)) &
        (u > -tol) & (u < 1 + tol)
        | ((np.abs(u) < tol) | (np.abs(u - 1) < tol)) & (t > -tol) & (t < 1 + tol))
    if np.any(grazing):
        raise NonTransverse("grazing contact between polylines")
    ii, jj = np.nonzero(ok)
    uu = ii + t[ii, jj]
    vv = jj + u[ii, jj]
    pos = a1[ii] + t[ii, jj][:, None] * d1[ii]
    sgn = np.sign(denom[ii, jj]).astype(int)
    return uu, vv, pos, sgn


def _lattice_tiles(moving_pts, fixed_pts):
    """Lattice offsets bringing the moving polyline near the fixed one."""
    lo = fixed_pts.min(axis=0) - moving_pts.max(axis=0)
    hi = fixed_pts.max(axis=0) - moving_pts.min(axis=0)
    ms = range(int(np.floor(lo[0] / TWO_PI)), int(np.ceil(hi[0] / TWO_PI)) + 1)
    ns = range(int(np.floor(lo[1] / TWO_PI)), int(np.ceil(hi[1] / TWO_PI)) + 1)
    return [(m * TWO_PI, n * TWO_PI) for m in ms for n in ns]


_JITTER_DIR = np.array([0.6180339887498949, 0.7861513777574233])


def intersection_number(c1, c2, max_attempts=5):
    """Signed and geometric crossing counts of two curves in the quotient.

    c2 is jittered deterministically (k * 1e-7 in a fixed direction) when a
    grazing contact is detected, up to max_attempts times.
    """
    P = np.asarray(c1.samples, dtype=float)
    base = np.asarray(c2.samples, dtype=float)
    for attempt in range(max_attempts + 1):
        Q0 = base + attempt * 1e-7 * _JITTER_DIR
        pts, alg, geo = [], 0, 0
        try:
            for branch, Q in (("id", Q0), ("iota", -Q0)):
                for off in _lattice_tiles(Q, P):
                    uu, vv, pos, sgn = _segment_crossings(P, Q + np.asarray(off))
                    for k in range(len(uu)):
                        pts.append((float(uu[k]), float(vv[k]), pos[k], int(sgn[k])))
                        alg += int(sgn[k])
                        geo += 1
        except NonTransverse:
            continue
        return IntersectionReport(pts, alg, geo)
    raise NonTransverse(f"no transverse position after {max_attempts} jitter attempts")


def _self_crossing_params(P, margin=1e-9):
    """Interior crossings between non-adjacent segments of one polyline."""
    a1, a2 = P[:-1], P[1:]
    d = a2 - a1
    n = len(d)
    r = a1[None, :, :] - a1[:, None, :]
    denom = d[:, None, 0] * d[None, :, 1] - d[:, None, 1] * d[None, :, 0]
    rxd2 = r[:, :, 0] * d[None, :, 1] - r[:, :, 1] * d[None, :, 0]
    rxd1 = r[:, :, 0] * d[:, None, 1] - r[:, :, 1] * d[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = rxd2 / denom
        u = rxd1 / denom
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ok = ((jj > ii + 1) & (np.abs(denom) > 1e-14)
          & (t > margin) & (t < 1 - margin) & (u > margin) & (u < 1 - margin))
    ia, ja = np.nonzero(ok)
    return [(i + t[i, j], j + u[i, j]) for i, j in zip(ia, ja)]


def self_intersections(c, max_attempts=5):
    """Transverse self-crossings of a curve in the quotient.

    Own-lift crossings come from non-adjacent segment pairs; crossings of
    the lift with its involution and lattice images are halved, since each
    quotient crossing appears in two lift configurations.
    """
    P = np.asarray(c.samples, dtype=float)
    count = len(_self_crossing_params(P))
    extra = 0
    for attempt in range(max_attempts + 1):
        Q0 = P + attempt * 1e-7 * _JITTER_DIR
        try:
            extra = 0
            for off in _lattice_tiles(-Q0, P):
                uu, _, _, _ = _segment_crossings(P, -Q0 + np.asarray(off))
                extra += len(uu)
            for off in _lattice_tiles(Q0, P):
                if np.allclose(off, 0.0):
                    continue
                uu, _, _, _ = _segment_crossings(P, Q0 + np.asarray(off))
                extra += len(uu)
            return count + extra // 2
        except NonTransverse:
            continue
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


def _interior_crossing_count(P, Q, margin=1e-7):
    """Strictly interior transverse crossings; grazing contacts ignored."""
    a1, a2 = P[:-1], P[1:]
    b1, b2 = Q[:-1], Q[1:]
    d1 = a2 - a1
    d2 = b2 - b1
    r = b1[None, :, :] - a1[:, None, :]
    denom = d1[:, None, 0] * d2[None, :, 1] - d1[:, None, 1] * d2[None, :, 0]
    rxd2 = r[:, :, 0] * d2[None, :, 1] - r[:, :, 1] * d2[None, :, 0]
    rxd1 = r[:, :, 0] * d1[:, None, 1] - r[:, :, 1] * d1[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = rxd2 / denom
        u = rxd1 / denom
    ok = ((np.abs(denom) > 1e-14) & (t > margin) & (t < 1 - margin)
          & (u > margin) & (u < 1 - margin))
    # drop hits at the shared endpoints of subarc pairs
    ii, jj = np.nonzero(ok)
    count = 0
    for i, j in zip(ii, jj):
        pos = a1[i] + t[i, j] * d1[i]
        if (np.linalg.norm(pos - P[0]) > 1e-6 and np.linalg.norm(pos - P[-1]) > 1e-6
                and np.linalg.norm(pos - Q[0]) > 1e-6
                and np.linalg.norm(pos - Q[-1]) > 1e-6):
            count += 1
    return count


def _point_in_polygon(point, poly):
    x, y = point
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xs = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
            if xs > x:
                inside = not inside
    return inside


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


def bigon_panels():
    """The two encoded local models of the doubling discrepancy.

    Returns ((A, B_fig8), (A_fig8, B)): an arc against the figure eight of
    its partner, and the figure eight of the arc against the plain partner,
    drawn in the flattened chart at the corner (pi, pi).  The first pair has
    one embedded bigon, the second none: the doubling reroutes the partner
    around the corner, and the figure eight's self-crossing cuts the
    would-be bigon into a triangle.
    """
    from scipy.interpolate import CubicSpline

    O = np.array([math.pi, math.pi])

    def smooth(ctrl, n=600):
        ctrl = np.asarray(ctrl)
        t = np.linspace(0, 1, len(ctrl))
        return CubicSpline(t, ctrl, axis=0)(np.linspace(0, 1, n))

    a_full = Curve("path", np.stack(
        [np.full(300, O[0]), O[1] + np.linspace(1.1, 0.02, 300)], axis=-1))
    b_ctrl = [_panel_polar(150, 0.95, O), _panel_polar(100, 0.66, O),
              _panel_polar(60, 0.52, O), _panel_polar(75, 0.4, O),
              _panel_polar(110, 0.32, O), _panel_polar(90, 0.26, O),
              _panel_polar(50, 0.22, O)]
    b_fig8 = Curve("path", _panel_fig8(smooth(b_ctrl), O, 0.015))

    a_path = np.stack([np.full(300, O[0]), O[1] + np.linspace(1.1, 0.2, 300)],
                      axis=-1)
    a_fig8 = Curve("path", _panel_fig8(a_path, O, 0.02))
    b_plain = Curve("path", _panel_pl([
        _panel_polar(40, 0.85, O), _panel_polar(70, 0.60, O),
        _panel_polar(110, 0.60, O), _panel_polar(125, 0.80, O),
        O + np.array([-0.25, 1.05]), O + np.array([0.0, 1.22]),
        O + np.array([0.0, 0.4]), O + np.array([0.0, 0.02])]))
    return (a_full, b_fig8), (a_fig8, b_plain)


def count_bigons(c1, c2, max_attempts=5):
    """Count innermost embedded bigon faces of a two-curve arrangement.

    The curves are taken in a single planar chart (their stored lifts); faces
    bounded by exactly one sub-arc of each curve, with no other strand and no
    orbifold point inside, are counted.  Immersed bigons covering punctured
    regions are out of scope.
    """
    P = np.asarray(c1.samples, dtype=float)
    for attempt in range(max_attempts + 1):
        Q = np.asarray(c2.samples, dtype=float) + attempt * 1e-7 * _JITTER_DIR
        try:
            uu, vv, pos, sgn = _segment_crossings(P, Q)
            self1 = [x for pair in _self_crossing_params(P) for x in pair]
            self2 = [x for pair in _self_crossing_params(Q) for x in pair]
        except NonTransverse:
            continue
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
                # the two subarcs must not cross each other away from endpoints
                if _interior_crossing_count(s1, s2) > 0:
                    continue
                # empty interior: no puncture, no other strand point inside
                lo = poly.min(axis=0)
                hi = poly.max(axis=0)
                if any(_point_in_polygon(cpt, poly)
                       for cpt in _corner_lifts_in(lo, hi)):
                    continue
                others = [p for p in np.concatenate([P, Q], axis=0)
                          if lo[0] - 1e-9 <= p[0] <= hi[0] + 1e-9
                          and lo[1] - 1e-9 <= p[1] <= hi[1] + 1e-9]
                blocked = False
                for p in others:
                    if (np.min(np.linalg.norm(s1 - p, axis=-1)) > 1e-7
                            and np.min(np.linalg.norm(s2 - p, axis=-1)) > 1e-7
                            and _point_in_polygon(p, poly)):
                        blocked = True
                        break
                if not blocked:
                    count += 1
        return count
    raise NonSimpleArrangement("arrangement not simple under jitter")
