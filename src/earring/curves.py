"""Sampled piecewise-linear curves on the pillowcase, stored via torus lifts.

A Curve keeps an (N, 2) array of lift coordinates in R^2 with consecutive
samples close, so the projection to P = T/iota is recovered by reducing
mod 2*pi and mod the elliptic involution.  Loops close up to a lattice
translation; arcs begin and end exactly at corner lifts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import pillowcase as pc
from .pillowcase import TWO_PI

EQ_QUANTUM = 1e-12  # to_canonical's snap width at the edges and the theta seam


class CurveError(ValueError):
    pass


def _nearest_corner_lift(point):
    """Lift of the corner closest to a lift point (multiples of pi)."""
    return np.round(np.asarray(point, dtype=float) / math.pi) * math.pi


def _drop_short_segments(pts):
    """pts without the end of each segment shorter than 1e-12, and the
    remaining segment vectors and lengths."""
    keep = np.linalg.norm(np.diff(pts, axis=0), axis=-1) >= 1e-12
    pts = pts[np.concatenate([[True], keep])]
    d = np.diff(pts, axis=0)
    return pts, d, np.linalg.norm(d, axis=-1)


def corner_index_of_lift(point):
    g, t = (np.asarray(point) / math.pi).round().astype(int) % 2
    return {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[(int(g), int(t))]


@dataclass
class Curve:
    kind: str                       # "loop" | "arc" | "path"
    samples: np.ndarray             # (N, 2) torus lift
    corners: tuple | None = None    # (start_index, end_index) for arcs
    closure: str | None = None      # "lattice" | "iota" for loops

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise CurveError("samples must be (N, 2)")
        if self.kind not in ("loop", "arc", "path"):
            raise CurveError(f"unknown curve kind {self.kind!r}")
        if self.kind == "loop":
            # loops may close through a lattice translation or through the
            # involution composed with one (curves winding an odd number of
            # times around corners lift to half circles)
            disp = self.samples[-1] - self.samples[0]
            lat = np.round(disp / TWO_PI) * TWO_PI
            disp_i = self.samples[-1] + self.samples[0]
            lat_i = np.round(disp_i / TWO_PI) * TWO_PI
            if np.max(np.abs(disp - lat)) <= 1e-6:
                self.closure = "lattice"
            elif np.max(np.abs(disp_i - lat_i)) <= 1e-6:
                self.closure = "iota"
            else:
                raise CurveError("loop lift does not close up in the quotient")
        if self.kind == "arc":
            ends = (self.samples[0], self.samples[-1])
            for e in ends:
                if np.max(np.abs(e - _nearest_corner_lift(e))) > 1e-9:
                    raise CurveError("arc endpoints must be corner lifts")
            self.corners = (corner_index_of_lift(ends[0]),
                            corner_index_of_lift(ends[1]))
            interior = self.samples[1:-1]
            if len(interior) and np.min(pc.corner_dist(interior[:, 0], interior[:, 1])) < 1e-9:
                raise CurveError("arc interior touches a corner")

    def __len__(self):
        return len(self.samples)

    def seg_lengths(self):
        return np.linalg.norm(np.diff(self.samples, axis=0), axis=-1)

    def length(self):
        return float(np.sum(self.seg_lengths()))

    def resampled(self, step):
        """Uniform arclength resampling preserving kind and endpoints."""
        pts, _, seg = _drop_short_segments(self.samples)
        u = np.concatenate([[0.0], np.cumsum(seg)])
        n = max(2, int(math.ceil(u[-1] / step)) + 1)
        uu = np.linspace(0.0, u[-1], n)
        out = np.stack([np.interp(uu, u, pts[:, 0]), np.interp(uu, u, pts[:, 1])], axis=-1)
        out[0], out[-1] = self.samples[0], self.samples[-1]
        return Curve(self.kind, out, corners=self.corners)

    def to_json(self):
        obj = {"kind": self.kind, "samples": self.samples.tolist()}
        if self.kind == "arc":
            obj["corners"] = list(self.corners)
        return obj

    @staticmethod
    def from_json(obj):
        return Curve(obj["kind"], np.asarray(obj["samples"], dtype=float))

    def dumps(self):
        return json.dumps(self.to_json())

    @staticmethod
    def loads(text):
        return Curve.from_json(json.loads(text))


def line_arc(start_lift, end_lift, n=257):
    """Straight arc between two corner lifts (a linear tangle variety)."""
    a = np.asarray(start_lift, dtype=float)
    b = np.asarray(end_lift, dtype=float)
    t = np.linspace(0.0, 1.0, n)[:, None]
    return Curve("arc", a + t * (b - a))


def circle_loop(center, radius, n=257, orientation=+1):
    """Round loop in the torus lift."""
    ang = orientation * np.linspace(0.0, TWO_PI, n)
    c = np.asarray(center, dtype=float)
    pts = c + radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    pts[-1] = pts[0]
    return Curve("loop", pts)


def corner_circle(corner_index, radius, n=129, orientation=+1):
    """Embedded circle around a corner: a half circle in the lift.

    The two endpoints are exchanged by the involution, so the projection is a
    closed embedded loop winding once around the orbifold point.
    """
    c = np.array(pc.CORNERS[corner_index], dtype=float)
    ang = orientation * np.linspace(0.0, math.pi, n)
    pts = c + radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return Curve("loop", pts)


def doubled_arc_lift(curve):
    """Closed lift of an arc union its reflection through the end corner.

    The reflection about a corner lift is the elliptic involution modulo the
    lattice, so the projection to P is the arc itself, traversed duplicated;
    the result is a closed polyline with lattice-vector closure.
    """
    if curve.kind != "arc":
        raise CurveError("doubled_arc_lift is for arcs")
    pts = curve.samples
    mirror = 2.0 * pts[-1] - pts[::-1]
    closed = np.concatenate([pts, mirror[1:]], axis=0)
    return closed


def constraint_lift(curve):
    """Closed polyline in R^2 cutting out the curve as a constraint set.

    A loop closed through the involution is followed by its image under
    p -> pts[-1] + pts[0] - p (the involution up to the lattice): it closes.
    """
    if curve.kind == "arc":
        return doubled_arc_lift(curve)
    pts = curve.samples
    if curve.closure == "iota":
        return np.concatenate([pts, (pts[-1] + pts[0] - pts)[1:]], axis=0)
    return pts.copy()


# ---------------------------------------------------------------------------
# Projection and signed distance to a PL constraint


class PolylineProjector:
    """Nearest-point projection onto a polyline with C1-smoothed normals.

    Segment joints are rounded over half the local sample spacing so the
    signed-distance constraint stays differentiable for the continuation
    corrector.
    """

    def __init__(self, points, closed):
        self.pts, self.seg, self.len = _drop_short_segments(
            np.asarray(points, dtype=float))
        self.closed = closed
        self.dir = self.seg / self.len[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(self.len)])

    def project(self, x):
        """(signed distance, arclength u, smoothed unit normal) at x (real 2-vector)."""
        x = np.asarray(x, dtype=float)[None]
        sd, u, normal = self._at(x, self._nearest(x))
        return float(sd[0]), float(u[0]), normal[0]

    def _nearest(self, x):
        """The segment nearest to each row of x (b, 2)."""
        p, d = self.pts[:-1], self.dir
        rx, ry = x[:, :1] - p[:, 0], x[:, 1:] - p[:, 1]
        t = np.minimum(np.maximum(rx * d[:, 0] + ry * d[:, 1], 0.0), self.len)
        return np.argmin((rx - t * d[:, 0]) ** 2 + (ry - t * d[:, 1]) ** 2, axis=-1)

    def _at(self, x, k):
        """Signed distances, arclengths and normals of rows x (b, 2) with feet on segments k.

        The tangent blends into the neighbouring segment's direction over the
        half of the segment nearer the joint, with weight rising linearly to
        1/2 at the joint (no neighbour at an open polyline's ends).
        """
        nseg, p, d, length = len(self.len), self.pts[k], self.dir[k], self.len[k]
        t = np.minimum(np.maximum((x[:, 0] - p[:, 0]) * d[:, 0]
                                  + (x[:, 1] - p[:, 1]) * d[:, 1], 0.0), length)
        back = t < 0.5 * length
        w = 0.5 * np.maximum(1.0 - np.where(back, t, length - t) / (0.5 * length), 0.0)
        j = np.where(back, k - 1, k + 1)
        if self.closed:
            j %= nseg
        else:
            w = np.where((j < 0) | (j >= nseg), 0.0, w)
            j = np.clip(j, 0, nseg - 1)
        tan = (1 - w)[:, None] * d + w[:, None] * self.dir[j]
        tan /= np.hypot(tan[:, 0], tan[:, 1])[:, None]
        normal = np.stack([-tan[:, 1], tan[:, 0]], axis=-1)
        return np.sum((x - p - t[:, None] * d) * normal, axis=1), self.cum[k] + t, normal


# ---------------------------------------------------------------------------
# Quotient-metric utilities


def _remainder(x):
    """x - n 2 pi in [-pi, pi] for the nearest integer n, exactly and oddly.

    fmod is exact and odd; the fold by 2 pi is exact by Sterbenz's lemma.
    """
    r = np.fmod(x, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, np.where(r < -math.pi, r + TWO_PI, r))


def to_canonical(samples):
    """Canonical P-representatives (gamma, theta) in [0, pi] x [0, 2 pi) of lift samples.

    The one canonicaliser of the package.  The reduction mod 2 pi is odd, so
    a sample and its involution image get bitwise the same representative.
    Within EQ_QUANTUM of an edge gamma in {0, pi}, gamma snaps onto the edge
    and theta folds into [0, pi]; within EQ_QUANTUM below 2 pi, theta snaps
    to 0.
    """
    g, t = _remainder(samples[:, 0]), _remainder(samples[:, 1])
    flip = g < 0.0
    g, t = np.where(flip, -g, g), np.where(flip, -t, t)
    low, high = g < EQ_QUANTUM, math.pi - g < EQ_QUANTUM
    g = np.where(low, 0.0, np.where(high, math.pi, g))
    t = np.where(low | high, np.abs(t),
                 np.where(t <= -EQ_QUANTUM, t + TWO_PI, np.where(t < 0.0, 0.0, t)) + 0.0)
    return np.stack([g, t], axis=-1)


# nearest_sample prunes by chunks of NN_CHUNK consecutive samples (16
# measured fastest on composed curves; 8 and 32 were close).  NN_MARGIN
# absorbs the rounding of the pruning bound: dist_raw rounds by a few ulp of
# the lift coordinates, far below 1e-9 for any lift in use.
NN_CHUNK = 16
NN_MARGIN = 1e-9


def nearest_sample(query, samples):
    """Index of the sample nearest to each query point in the quotient metric.

    Exact, pruned by the triangle inequality, and the first index of each
    minimum, as np.argmin over all samples gives.  The cloud is cut into
    chunks of NN_CHUNK consecutive samples (the last one padded by repeats
    of sample n - 1, which come after the real one); chunk j has a centre
    sample c_j and the radius r_j = max dist(c_j, x) over its samples x.
    dist_raw is the quotient metric of T/iota (iota is a torus isometry), so
    every sample of chunk j lies at least D_j - r_j from a query q,
    D_j = dist(q, c_j), while the nearest sample lies at most min_j D_j from
    q.  Only the chunks with D_j - r_j <= min_j D_j + NN_MARGIN are searched:
    they hold every minimiser, and each candidate's distance is the same
    elementwise dist_raw, so every minimum is bitwise the one over all
    samples.
    """
    n = len(samples)
    k = -(-n // NN_CHUNK)
    chunks = np.concatenate([samples, np.repeat(samples[-1:], k * NN_CHUNK - n, axis=0)])
    chunks = chunks.reshape(k, NN_CHUNK, 2)
    centre = chunks[:, NN_CHUNK // 2]
    radius = np.max(pc.dist_raw(centre[:, :1], centre[:, 1:], chunks[..., 0], chunks[..., 1]), axis=1)
    d = pc.dist_raw(query[:, :1], query[:, 1:], centre[:, 0], centre[:, 1])
    keep = d - radius <= np.min(d, axis=1, keepdims=True) + NN_MARGIN
    keep[np.arange(len(d)), np.argmin(d, axis=1)] = True     # none empty, nan queries too
    qi, ci = np.nonzero(keep)
    cand = chunks[ci]
    near = pc.dist_raw(query[qi, :1], query[qi, 1:], cand[..., 0], cand[..., 1])
    arg = np.argmin(near, axis=1)
    row = near[np.arange(len(qi)), arg]
    best = np.minimum.reduceat(row, np.searchsorted(qi, np.arange(len(query))))
    # the first candidate chunk of each query that holds its minimum (a nan
    # query has one chunk, whose first sample np.argmin also returns)
    hit = np.flatnonzero(~(row > best[qi]))
    first = hit[np.searchsorted(qi[hit], np.arange(len(query)))]
    return ci[first] * NN_CHUNK + arg[first]


def min_dist_to_samples(query, samples):
    """Min quotient distance from each query point to a sample cloud: the
    distance to its nearest_sample, bitwise the minimum over all samples."""
    i = nearest_sample(query, samples)
    return pc.dist_raw(query[:, 0], query[:, 1], samples[i, 0], samples[i, 1])


def hausdorff(samples_a, samples_b):
    """Symmetric Hausdorff distance between sample clouds in the quotient metric."""
    da = min_dist_to_samples(samples_a, samples_b)
    db = min_dist_to_samples(samples_b, samples_a)
    return float(max(np.max(da), np.max(db)))


def unwrap_to_lift(canonical):
    """Continuous lift of a canonical P-sample sequence.

    Each successive point is replaced by its closest representative under the
    lattice and the involution relative to the previous lifted point.  Against
    its predecessor a point either keeps or flips the involution sign, so the
    signs are a running parity of the flips, restarted at exact ties (where
    the unflipped point is kept); the lattice steps then add up.
    """
    c = np.asarray(canonical, dtype=float)

    def wrap(d):
        return d - np.round(d / TWO_PI) * TWO_PI

    same = np.hypot(*wrap(c[1:] - c[:-1]).T)
    flip = np.hypot(*wrap(c[1:] + c[:-1]).T)
    flips = np.cumsum(flip < same)
    parity = (flips - np.maximum.accumulate(np.where(flip == same, flips, 0))) % 2
    rep = np.concatenate([[1.0], 1.0 - 2.0 * parity])[:, None] * c
    return rep[0] + np.concatenate([[[0.0, 0.0]], np.cumsum(wrap(np.diff(rep, axis=0)), axis=0)])
