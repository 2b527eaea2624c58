import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earring import correspondence as co
from earring import curves as cv
from earring import moduli as md
from earring import pillowcase as pc
from earring import quaternion as qt

from quat_helpers import J, exp_k

angle = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


def canon(g, t):
    """cv.to_canonical of one point, as a pair of floats."""
    return tuple(cv.to_canonical(np.array([[g, t]], dtype=float))[0].tolist())


def bits(p):
    return np.asarray(p, dtype=float).tobytes()


def key(g, t):
    """The EQ_QUANTUM grid cell of the canonical representative."""
    cg, ct = canon(g, t)
    return round(cg / cv.EQ_QUANTUM), round(ct / cv.EQ_QUANTUM)


def gauge_fixed_triple(g, t):
    """(b, f, a) = (e^{g k} i, e^{t k} i, i)."""
    return qt.mul(exp_k(g), qt.I), qt.mul(exp_k(t), qt.I), qt.I


def test_normalize_examples():
    assert canon(-0.3, -0.4) == pytest.approx((0.3, 0.4))
    assert canon(math.pi, math.pi) == (math.pi, math.pi)
    assert canon(2 * math.pi + 0.1, 0.2) == pytest.approx((0.1, 0.2))


def test_corner_indexing():
    # every lift of a corner has the corner itself as representative
    for k, (g, t) in enumerate(pc.CORNERS):
        for m, n in ((0, 0), (1, -1), (-2, 3)):
            p = canon((-1) ** m * g + 2 * math.pi * m, (-1) ** m * t + 2 * math.pi * n)
            assert p == pytest.approx((g, t), abs=1e-12)
            assert cv.corner_index_of_lift(p) == k
    assert float(pc.corner_dist(*canon(0.5, 0.5))) > 0.5


@settings(max_examples=200)
@given(angle, angle)
def test_normalize_is_iota_invariant(g, t):
    a, ia = canon(g, t), canon(-g, -t)
    assert bits(a) == bits(ia)
    assert pc.dist_raw(*a, *ia) == 0.0
    assert pc.dist_raw(g, t, *a) < 1e-9


tiny = st.floats(-1e-13, 1e-13, allow_nan=False)
seam = st.sampled_from([0.0, math.pi, 2 * math.pi, -math.pi, 4 * math.pi])


@settings(max_examples=300)
@given(seam, angle, seam, tiny, tiny)
def test_canonical_representative_unique_at_seams(g0, t, t0, dg, dt):
    # on an edge gamma in {0, pi}, at the theta seam, and at both at once
    for a, b in (((g0 + dg, t), (g0, t)), ((1.0, t0 + dt), (1.0, t0)),
                 ((g0 + dg, t0 + dt), (g0, t0))):
        p = canon(*a)
        assert 0.0 <= p[0] <= math.pi and 0.0 <= p[1] < 2 * math.pi
        assert key(*a) == key(*b)


def test_seam_points_collapse_in_sets():
    assert bits(canon(1, 2 * math.pi - 1e-14)) == bits(canon(1, 0)) == bits((1.0, 0.0))
    assert len({key(1e-14, 4.0), key(0.0, 2 * math.pi - 4.0)}) == 1
    e = canon(math.pi - 1e-14, math.pi + 1e-14)
    assert key(*e) == key(math.pi, math.pi) and cv.corner_index_of_lift(e) == 3


def test_embed3_examples():
    p = cv.to_canonical(np.array([[0.0, 0.0], [math.pi / 2, math.pi / 2], [math.pi / 2, 0.0]]))
    assert np.allclose(pc.embed3_raw(p[:, 0], p[:, 1]), [(1, 1, 1), (0, 0, 1), (0, 1, 0)])


@settings(max_examples=200)
@given(angle, angle)
def test_embed3_lands_on_cubic(g, t):
    x, y, z = pc.embed3_raw(*canon(g, t))
    assert abs(x * x + y * y + z * z - 2 * x * y * z - 1) < 1e-12


def test_triple_roundtrip_examples():
    g, t = 0.7, 1.1
    inv = pc.triple_invariants(*gauge_fixed_triple(g, t))
    assert np.allclose(inv, (math.cos(g), math.cos(t), math.cos(g - t)), atol=1e-12)
    # the corner triple has the invariants of corner 0
    assert np.allclose(pc.triple_invariants(qt.I, qt.I, qt.I), (1, 1, 1))
    # concrete Euler evaluation at [pi/2, pi]
    b, f, _ = gauge_fixed_triple(math.pi / 2, math.pi)
    assert np.allclose(b, J, atol=1e-15)
    assert np.allclose(f, -qt.I, atol=1e-12)


def test_triple_roundtrip_random():
    # at s = 0 the inner restriction of a section point is its base point
    rng = np.random.default_rng(0)
    G, T = rng.uniform(0, 2 * math.pi, size=(2, 1000))
    base = cv.to_canonical(np.stack([G, T], axis=-1))
    for h in md.sigma_sections(G, T):
        p = co._inner_canonical(G, T, h, 0.0)
        assert np.max(pc.dist_raw(p[:, 0], p[:, 1], base[:, 0], base[:, 1])) < 1e-10


def test_triple_conjugation_invariance():
    triple = gauge_fixed_triple(0.7, 1.1)
    want = np.array(pc.triple_invariants(*triple))
    g = qt.normalize(np.random.default_rng(1).normal(size=(100, 4)))
    got = np.array(pc.triple_invariants(*(qt.mul_chain(g, x, qt.conj(g)) for x in triple)))
    assert np.max(np.abs(got - want[:, None])) < 1e-9


def test_dist_examples():
    assert pc.dist_raw(0.8, 0.9, 0.8, 0.9) == 0
    # (-0.1, 0) and (0.1, 0) are iota-equivalent
    assert pc.dist_raw(*canon(-0.1, 0), *canon(0.1, 0)) < 1e-12
    assert pc.dist_raw(*canon(0, 0.3), *canon(0, 0.5)) == pytest.approx(0.2)


def test_dist_pseudometric():
    rng = np.random.default_rng(2)
    p = cv.to_canonical(rng.uniform(-7, 7, size=(30, 2)))
    assert np.max(pc.dist_raw(p[:, 0], p[:, 1], -p[:, 0], -p[:, 1])) < 1e-9
    g, t = p[:10, 0], p[:10, 1]
    d = pc.dist_raw(g[:, None], t[:, None], g[None], t[None])
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12)
