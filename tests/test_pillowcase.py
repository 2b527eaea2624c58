import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earring import pillowcase as pc
from earring import quaternion as qt

angle = st.floats(-20, 20, allow_nan=False, allow_infinity=False)


def test_normalize_examples():
    p = pc.normalize(-0.3, -0.4)
    assert p.gamma == pytest.approx(0.3) and p.theta == pytest.approx(0.4)
    assert pc.normalize(math.pi, math.pi).corner_index == 3
    p = pc.normalize(2 * math.pi + 0.1, 0.2)
    assert p.gamma == pytest.approx(0.1) and p.theta == pytest.approx(0.2)


def test_corner_indexing():
    assert pc.normalize(0, 0).corner_index == 0
    assert pc.normalize(0, math.pi).corner_index == 1
    assert pc.normalize(math.pi, 0).corner_index == 2
    assert pc.normalize(0.5, 0.5).corner_index is None


@settings(max_examples=200)
@given(angle, angle)
def test_normalize_is_iota_invariant(g, t):
    assert pc.dist(pc.normalize(g, t), pc.normalize(-g, -t)) < 1e-9


tiny = st.floats(-1e-13, 1e-13, allow_nan=False)
seam = st.sampled_from([0.0, math.pi, 2 * math.pi, -math.pi, 4 * math.pi])


@settings(max_examples=300)
@given(angle, angle, tiny, tiny)
def test_equal_points_hash_equal(g, t, dg, dt):
    a, b = pc.normalize(g, t), pc.normalize(g + dg, t + dt)
    if a == b:
        assert hash(a) == hash(b)
    ia = pc.normalize(-g, -t)
    assert ia == a and hash(ia) == hash(a)
    assert pc.dist(a, ia) == 0.0
    assert pc.dist(a, b) == pc.dist(ia, pc.normalize(-g - dg, -t - dt))


@settings(max_examples=300)
@given(seam, angle, seam, tiny, tiny)
def test_canonical_representative_unique_at_seams(g0, t, t0, dg, dt):
    # on an edge gamma in {0, pi}, at the theta seam, and at both at once
    for a, b in (((g0 + dg, t), (g0, t)), ((1.0, t0 + dt), (1.0, t0)),
                 ((g0 + dg, t0 + dt), (g0, t0))):
        p, q = pc.normalize(*a), pc.normalize(*b)
        assert 0.0 <= p.gamma <= math.pi and 0.0 <= p.theta < 2 * math.pi
        assert p == q and len({p, q}) == 1


def test_seam_points_collapse_in_sets():
    a, b = pc.normalize(1, 2 * math.pi - 1e-14), pc.normalize(1, 0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    c, d = pc.normalize(1e-14, 4.0), pc.normalize(0.0, 2 * math.pi - 4.0)
    assert c == d and len({c, d}) == 1
    e, f = pc.normalize(math.pi - 1e-14, math.pi + 1e-14), pc.normalize(math.pi, math.pi)
    assert e == f and e.corner_index == 3


def test_embed3_examples():
    assert pc.embed3(pc.normalize(0, 0)) == pytest.approx((1, 1, 1))
    assert pc.embed3(pc.normalize(math.pi / 2, math.pi / 2)) == pytest.approx((0, 0, 1))
    assert pc.embed3(pc.normalize(math.pi / 2, 0)) == pytest.approx((0, 1, 0))


@settings(max_examples=200)
@given(angle, angle)
def test_embed3_lands_on_cubic(g, t):
    x, y, z = pc.embed3(pc.normalize(g, t))
    assert abs(x * x + y * y + z * z - 2 * x * y * z - 1) < 1e-12


def test_triple_roundtrip_examples():
    p = pc.normalize(0.7, 1.1)
    b, f, a = pc.pillowcase_to_triple(p)
    assert pc.dist(pc.triple_to_pillowcase(b, f, a), p) < 1e-12
    # corner triple
    assert pc.triple_to_pillowcase(qt.I, qt.I, qt.I).corner_index == 0
    # concrete Euler evaluation at [pi/2, pi]
    b, f, a = pc.pillowcase_to_triple(pc.normalize(math.pi / 2, math.pi))
    assert np.allclose(b, qt.J, atol=1e-15)
    assert np.allclose(f, -qt.I, atol=1e-12)


def test_triple_roundtrip_random():
    rng = np.random.default_rng(0)
    for g, t in rng.uniform(0, 2 * math.pi, size=(1000, 2)):
        p = pc.normalize(g, t)
        b, f, a = pc.pillowcase_to_triple(p)
        assert pc.dist(pc.triple_to_pillowcase(b, f, a), p) < 1e-10


def test_triple_conjugation_invariance():
    p = pc.normalize(0.7, 1.1)
    b, f, a = pc.pillowcase_to_triple(p)
    rng = np.random.default_rng(1)
    g = qt.normalize(rng.normal(size=(100, 4)))
    for gk in g:
        bb, ff, aa = (qt.rotate(gk, x) for x in (b, f, a))
        assert pc.dist(pc.triple_to_pillowcase(bb, ff, aa), p) < 1e-9


def test_invalid_triple_raises():
    with pytest.raises(pc.InvalidTriple):
        pc.triple_to_pillowcase(qt.I, qt.J, qt.K)


def test_dist_examples():
    p = pc.normalize(0.8, 0.9)
    assert pc.dist(p, p) == 0
    # (-0.1, 0) and (0.1, 0) are iota-equivalent
    assert pc.dist(pc.normalize(-0.1, 0), pc.normalize(0.1, 0)) < 1e-12
    assert pc.dist(pc.normalize(0, 0.3), pc.normalize(0, 0.5)) == pytest.approx(0.2)


def test_dist_pseudometric():
    rng = np.random.default_rng(2)
    pts = [pc.normalize(g, t) for g, t in rng.uniform(-7, 7, size=(30, 2))]
    for p in pts:
        assert pc.dist(p, pc.normalize(-p.gamma, -p.theta)) < 1e-9
    for p in pts[:10]:
        for q in pts[:10]:
            for r in pts[:10]:
                assert pc.dist(p, r) <= pc.dist(p, q) + pc.dist(q, r) + 1e-12


def test_json_round_trip():
    p = pc.normalize(1.0, 2.0)
    q = pc.PillPoint.from_json(p.to_json())
    assert pc.dist(p, q) < 1e-15
