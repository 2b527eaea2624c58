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

STEP_MAX = 0.05


class CurveError(ValueError):
    pass


def _nearest_corner_lift(point):
    """Lift of the corner closest to a lift point (multiples of pi)."""
    return np.round(np.asarray(point, dtype=float) / math.pi) * math.pi


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

    def check_spacing(self, step_max=STEP_MAX):
        return float(np.max(self.seg_lengths())) < step_max

    def resampled(self, step):
        """Uniform arclength resampling preserving kind and endpoints."""
        pts = self.samples
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=-1)
        u = np.concatenate([[0.0], np.cumsum(seg)])
        n = max(2, int(math.ceil(u[-1] / step)) + 1)
        uu = np.linspace(0.0, u[-1], n)
        out = np.stack([np.interp(uu, u, pts[:, 0]), np.interp(uu, u, pts[:, 1])], axis=-1)
        out[0], out[-1] = pts[0], pts[-1]
        return Curve(self.kind, out, corners=self.corners)

    def to_json(self):
        obj = {"kind": self.kind, "samples": [[float(a), float(b)] for a, b in self.samples]}
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
    """Closed polyline in R^2 cutting out the curve as a constraint set."""
    if curve.kind == "arc":
        return doubled_arc_lift(curve)
    return curve.samples.copy()


# ---------------------------------------------------------------------------
# Projection and signed distance to a PL constraint


class PolylineProjector:
    """Nearest-point projection onto a polyline with C1-smoothed normals.

    Segment joints are rounded over half the local sample spacing so the
    signed-distance constraint stays differentiable for the continuation
    corrector.
    """

    def __init__(self, points, closed):
        self.pts = np.asarray(points, dtype=float)
        self.closed = closed
        d = np.diff(self.pts, axis=0)
        self.seg = d
        self.len = np.linalg.norm(d, axis=-1)
        if np.any(self.len < 1e-12):
            keep = np.concatenate([[True], self.len >= 1e-12])
            self.pts = self.pts[keep]
            d = np.diff(self.pts, axis=0)
            self.seg = d
            self.len = np.linalg.norm(d, axis=-1)
        self.dir = self.seg / self.len[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(self.len)])

    def project(self, x):
        """(signed distance, arclength u, smoothed unit normal) at x (real 2-vector)."""
        x = np.asarray(x, dtype=float)
        rel = x[None, :] - self.pts[:-1]
        t = np.einsum("ij,ij->i", rel, self.dir)
        t = np.clip(t, 0.0, self.len)
        foot = self.pts[:-1] + t[:, None] * self.dir
        d2 = np.sum((x[None, :] - foot) ** 2, axis=-1)
        k = int(np.argmin(d2))
        u = self.cum[k] + t[k]
        tangent = self._smooth_tangent(k, t[k])
        normal = np.array([-tangent[1], tangent[0]])
        sd = float(np.dot(x - foot[k], normal))
        return sd, u, normal, foot[k]

    def _smooth_tangent(self, k, tk):
        blend = 0.5 * self.len[k]
        t = self.dir[k]
        nseg = len(self.dir)
        if tk < blend:
            j = k - 1 if k > 0 else (nseg - 1 if self.closed else None)
            if j is not None:
                w = 0.5 * (1.0 - tk / blend)
                t = (1 - w) * self.dir[k] + w * self.dir[j]
        elif self.len[k] - tk < blend:
            j = k + 1 if k < nseg - 1 else (0 if self.closed else None)
            if j is not None:
                w = 0.5 * (1.0 - (self.len[k] - tk) / blend)
                t = (1 - w) * self.dir[k] + w * self.dir[j]
        return t / np.linalg.norm(t)


# ---------------------------------------------------------------------------
# Quotient-metric utilities


def to_canonical(samples):
    """Canonical P-representatives of lift samples (vectorized)."""
    g = samples[:, 0] % TWO_PI
    t = samples[:, 1] % TWO_PI
    flip = g > math.pi
    g = np.where(flip, TWO_PI - g, g)
    t = np.where(flip, (TWO_PI - t) % TWO_PI, t)
    edge = np.minimum(g, math.pi - g) < 1e-15
    t = np.where(edge & (t > math.pi), TWO_PI - t, t)
    return np.stack([g, t], axis=-1)


def min_dist_to_samples(query, samples):
    """Min quotient distance from each query point to a sample cloud."""
    qg, qt = query[:, 0][:, None], query[:, 1][:, None]
    sg, st = samples[:, 0][None, :], samples[:, 1][None, :]
    return np.min(pc.dist_raw(qg, qt, sg, st), axis=1)


def hausdorff(samples_a, samples_b):
    """Symmetric Hausdorff distance between sample clouds in the quotient metric."""
    da = min_dist_to_samples(samples_a, samples_b)
    db = min_dist_to_samples(samples_b, samples_a)
    return float(max(np.max(da), np.max(db)))


def unwrap_to_lift(canonical):
    """Continuous lift of a canonical P-sample sequence.

    Each successive point is replaced by its closest representative under the
    lattice and the involution relative to the previous lifted point.
    """
    out = np.empty_like(canonical)
    out[0] = canonical[0]
    for i in range(1, len(canonical)):
        g, t = canonical[i]
        best, bd = None, None
        for sg, st in ((g, t), (-g, -t)):
            dg = sg - out[i - 1, 0]
            dt = st - out[i - 1, 1]
            dg -= np.round(dg / TWO_PI) * TWO_PI
            dt -= np.round(dt / TWO_PI) * TWO_PI
            d = math.hypot(dg, dt)
            if bd is None or d < bd:
                bd = d
                best = (out[i - 1, 0] + dg, out[i - 1, 1] + dt)
        out[i] = best
    return out
