"""Pillowcase coordinates and conversion to conjugacy classes of traceless triples.

The pillowcase P is the torus T = (R/2piZ)^2 modulo the elliptic involution
(gamma, theta) -> (-gamma, -theta).  Points are stored by a canonical
representative with gamma in [0, pi]; the four corners (0,0), (0,pi),
(pi,0), (pi,pi) are the orbifold points, indexed 0..3 in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quaternion as qt

TWO_PI = 2.0 * math.pi

CORNERS = ((0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi))
CORNER_TOL = 1e-9  # a point is a corner when |sin gamma| and |sin theta| < this
EQ_QUANTUM = 1e-12  # PillPoint equality: same canonical representative on this grid


class InvalidTriple(ValueError):
    """Raised when a triple does not satisfy Re(b a conj(f)) = 0."""


@dataclass(frozen=True)
class PillPoint:
    """Canonical representative [gamma, theta] of a pillowcase point.

    Two points are equal when their canonical representatives round to the
    same EQ_QUANTUM grid cell, and the hash is taken of that cell, so equal
    points hash equal.  Points closer than EQ_QUANTUM on either side of a
    cell boundary compare unequal.
    """

    gamma: float
    theta: float
    corner_index: int | None = None

    def _key(self):
        g, t = _canonical(self.gamma, self.theta)
        return round(g / EQ_QUANTUM), round(t / EQ_QUANTUM)

    def __eq__(self, other):
        if not isinstance(other, PillPoint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_json(self):
        return {"gamma": self.gamma, "theta": self.theta}

    @staticmethod
    def from_json(obj):
        return normalize(obj["gamma"], obj["theta"])


def _corner_index(gamma, theta):
    if abs(math.sin(gamma)) >= CORNER_TOL or abs(math.sin(theta)) >= CORNER_TOL:
        return None
    gi = 0 if abs(math.cos(gamma) - 1.0) < 0.5 else 1  # gamma near 0 vs pi
    ti = 0 if abs(math.cos(theta) - 1.0) < 0.5 else 1
    return {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[(gi, ti)]


def _canonical(gamma, theta):
    """Canonical ι-representative (gamma, theta) in [0, pi] x [0, 2 pi).

    The reduction mod 2 pi is the exact IEEE remainder, which is odd, so
    (gamma, theta) and (-gamma, -theta) get bitwise the same representative.
    Within EQ_QUANTUM of an edge gamma in {0, pi}, gamma snaps onto the edge
    and theta folds into [0, pi]; within EQ_QUANTUM below 2 pi, theta snaps
    to 0.
    """
    g = math.remainder(float(gamma), TWO_PI)
    t = math.remainder(float(theta), TWO_PI)
    if g < 0.0:
        g, t = -g, -t
    if g < EQ_QUANTUM or math.pi - g < EQ_QUANTUM:
        return (0.0 if g < EQ_QUANTUM else math.pi), abs(t)
    if -EQ_QUANTUM < t < 0.0:
        return g, 0.0
    return g, (t + TWO_PI if t < 0.0 else t + 0.0)


def normalize(gamma, theta):
    """Canonical ι-representative with gamma in [0, pi] and theta in [0, 2 pi).

    On the edges gamma in {0, pi} the tie is broken by theta in [0, pi].
    """
    g, t = _canonical(gamma, theta)
    return PillPoint(g, t, _corner_index(g, t))


def dist(p1, p2):
    """Quotient metric: flat-torus distance minimized over the two ι-lifts."""
    return float(dist_raw(p1.gamma, p1.theta, p2.gamma, p2.theta))


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
    """Distance to the nearest corner in the chordal metric of embed3.

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


def embed3(p):
    """Embedding [gamma,theta] -> (cos gamma, cos theta, cos(gamma-theta)).

    The image lies on the cubic surface x^2+y^2+z^2-2xyz = 1.
    """
    g, t = p.gamma, p.theta
    return (math.cos(g), math.cos(t), math.cos(g - t))


def pillowcase_to_triple(p):
    """Gauge-fixed traceless triple (b, f, a) = (e^{g k} i, e^{t k} i, i)."""
    b = qt.mul(qt.exp_k(p.gamma), qt.I)
    f = qt.mul(qt.exp_k(p.theta), qt.I)
    return b, f, qt.I.copy()


def triple_invariants(b, f, a):
    """(cos gamma, cos theta, cos(gamma-theta)) of a traceless triple."""
    cg = -qt.re(qt.mul(b, a))
    ct = -qt.re(qt.mul(f, a))
    cgt = -qt.re(qt.mul(b, f))
    return cg, ct, cgt


def triple_to_pillowcase(b, f, a, tol=1e-8):
    """Pillowcase coordinates of the conjugacy class of a traceless triple.

    The pair (gamma, theta) is recovered from cos gamma = -Re(ba) and
    cos theta = -Re(fa); the joint sign is fixed by cos(gamma-theta) = -Re(bf).
    """
    resid = abs(float(qt.re(qt.mul_chain(b, a, qt.conj(f)))))
    if resid > tol:
        raise InvalidTriple(f"Re(b a conj(f)) = {resid:.3e} exceeds {tol:.1e}")
    cg, ct, cgt = triple_invariants(b, f, a)
    g = math.acos(min(1.0, max(-1.0, float(cg))))
    t0 = math.acos(min(1.0, max(-1.0, float(ct))))
    # candidates (g, t0) and (g, -t0); the third invariant breaks the tie
    if abs(math.cos(g - t0) - float(cgt)) <= abs(math.cos(g + t0) - float(cgt)):
        return normalize(g, t0)
    return normalize(g, -t0)
