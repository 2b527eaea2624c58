"""Pillowcase coordinates: the quotient metric, corners and triple invariants.

The pillowcase P is the torus T = (R/2piZ)^2 modulo the elliptic involution
(gamma, theta) -> (-gamma, -theta); the four corners (0,0), (0,pi), (pi,0),
(pi,pi) are the orbifold points, indexed 0..3 in that order.  Points are
handled as raw torus coordinates, vectorized.  The one canonical
representative of a point is `curves.to_canonical`: (gamma, theta) in
[0, pi] x [0, 2 pi), bitwise the same for a point and its involution image,
with gamma snapped onto an edge {0, pi} (and theta folded into [0, pi])
within `curves.EQ_QUANTUM` = 1e-12 of it, and theta snapped to 0 within
EQ_QUANTUM below 2 pi.
"""

from __future__ import annotations

import math

import numpy as np

from . import quaternion as qt

TWO_PI = 2.0 * math.pi

CORNERS = ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi))


def dist_raw(g1, t1, g2, t2):
    """Quotient metric on raw (vectorized) torus coordinates."""
    g1, t1, g2, t2 = map(np.asarray, (g1, t1, g2, t2))

    def torus(dg, dt):
        dg = (dg + math.pi) % TWO_PI - math.pi
        dt = (dt + math.pi) % TWO_PI - math.pi
        return np.hypot(dg, dt)

    return np.minimum(torus(g1 - g2, t1 - t2), torus(g1 + g2, t1 + t2))


def corner_dist(g, t):
    """Distance to the nearest corner, vectorized over raw coordinates."""
    d = None
    for cg, ct in CORNERS:
        dd = dist_raw(g, t, cg, ct)
        d = dd if d is None else np.minimum(d, dd)
    return d


def embed3_raw(g, t):
    """Vectorized cubic-surface embedding (cos g, cos t, cos(g-t))."""
    g, t = np.asarray(g), np.asarray(t)
    return np.stack([np.cos(g), np.cos(t), np.cos(g - t)], axis=-1)


def corner_dist_chordal(g, t):
    """Distance to the nearest corner in the chordal metric of embed3_raw.

    This is the metric of the plotting picture, where the pillowcase sits in
    R^3 as x^2+y^2+z^2-2xyz = 1; corner neighborhoods in this metric are much
    wider in (gamma, theta) than flat ones (chordal radius grows like the
    square of flat radius near a corner).
    """
    pts = embed3_raw(g, t)
    d = None
    for cg, ct in CORNERS:
        dd = np.linalg.norm(pts - embed3_raw(cg, ct), axis=-1)
        d = dd if d is None else np.minimum(d, dd)
    return d


def triple_invariants(b, f, a):
    """(cos gamma, cos theta, cos(gamma-theta)) of a traceless triple."""
    cg = -qt.re(qt.mul(b, a))
    ct = -qt.re(qt.mul(f, a))
    cgt = -qt.re(qt.mul(b, f))
    return cg, ct, cgt
