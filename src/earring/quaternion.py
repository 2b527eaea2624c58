"""Unit-quaternion / su(2) kernel.

Quaternions are stored as numpy arrays of shape (..., 4) in the order
(re, x, y, z), so every operation broadcasts over leading axes.  All
solvers in this package run batched over grids of moduli points, which
is why there is no scalar quaternion class: a single quaternion is just
a shape-(4,) array.

The functions are dtype-agnostic: complex inputs are accepted so that
complex-step differentiation can be pushed through entire evaluation
chains.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

I = np.array([0.0, 1.0, 0.0, 0.0])

RENORM_CHAIN = 16       # renormalize unit quaternions after > 16 products


def quat(re, x, y, z):
    """Assemble a quaternion array from components (broadcasting)."""
    return np.stack(np.broadcast_arrays(
        np.asarray(re), np.asarray(x), np.asarray(y), np.asarray(z)), axis=-1)


def re(q):
    """Real part."""
    return q[..., 0]


def conj(q):
    """Quaternion conjugate; equals the inverse for unit quaternions."""
    out = np.array(q, copy=True)
    out[..., 1:] *= -1
    return out


def norm(q):
    return np.sqrt(np.sum(q * q, axis=-1))


def normalize(q):
    """q scaled to unit norm; a tuple (complex entries give a complex step) gives a tuple."""
    if type(q) is tuple:
        n = sum(map(operator.mul, q, q))
        n = cmath.sqrt(n) if isinstance(n, complex) else math.sqrt(n)
        return tuple([x / n for x in q])
    return q / norm(q)[..., None]


def mul(q1, q2):
    """Hamilton product, broadcasting over leading axes."""
    a1, b1, c1, d1 = q1[..., 0], q1[..., 1], q1[..., 2], q1[..., 3]
    a2, b2, c2, d2 = q2[..., 0], q2[..., 1], q2[..., 2], q2[..., 3]
    return np.stack([
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ], axis=-1)


def mul_chain(*qs, renorm=None):
    """Product of several quaternions, left to right.

    With renorm=True the result is renormalized; defaults to renormalizing
    when the chain exceeds RENORM_CHAIN factors (only valid if all factors
    are unit).
    """
    out = qs[0]
    for q in qs[1:]:
        out = mul(out, q)
    if renorm is None:
        renorm = len(qs) > RENORM_CHAIN
    if renorm:
        out = normalize(out)
    return out


def exp_im_parts(x, y, z):
    """Components (re, x, y, z) of the exponential of x i + y j + z k.

    Returns cos|v| and sin|v| * v/|v| for v = (x, y, z), broadcasting over the
    three component arrays (Python numbers give Python numbers), with the
    quadratic Taylor form below |v| < 1e-8 so the v -> 0 limit is exact.
    """
    r2 = x * x + y * y + z * z
    if type(r2) in (float, complex):
        m = cmath if type(r2) is complex else math
        r = m.sqrt(r2)
        c, sinc = (1.0 - r2 / 2.0, 1.0 - r2 / 6.0) if abs(r) < 1e-8 else (m.cos(r), m.sin(r) / r)
        return c, sinc * x, sinc * y, sinc * z
    r = np.sqrt(r2)
    small = np.abs(r) < 1e-8
    # sin(r)/r via its quadratic Taylor polynomial on the small branch
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(small, 1.0 - r2 / 6.0, np.sin(r) / np.where(small, 1.0, r))
    c = np.where(small, 1.0 - r2 / 2.0, np.cos(r))
    return c, sinc * x, sinc * y, sinc * z


def exp_im(v):
    """Exponential of a purely imaginary quaternion (an (..., 3) vector)."""
    v = np.asarray(v, dtype=np.result_type(v, 1.0))
    return quat(*exp_im_parts(v[..., 0], v[..., 1], v[..., 2]))
