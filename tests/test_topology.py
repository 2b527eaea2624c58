import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from earring import correspondence as co
from earring import curves as cv
from earring import topology as tp

PI = math.pi
TWO_PI = 2 * PI


# ---------------------------------------------------------------------------
# Dense references: the all-pairs segment algebra and the ray-casting loop
# that the crossing kernel and _point_in_polygon replace.


def _dense_crossings(P, Q, tol=1e-9, margin=0.0):
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
    if tol is not None:
        grazing = (np.abs(denom) > 1e-14) & (
            ((np.abs(t) < tol) | (np.abs(t - 1) < tol)) &
            (u > -tol) & (u < 1 + tol)
            | ((np.abs(u) < tol) | (np.abs(u - 1) < tol)) & (t > -tol) & (t < 1 + tol))
        if np.any(grazing):
            raise tp.NonTransverse("grazing contact between polylines")
    ii, jj = np.nonzero(ok)
    uu = ii + t[ii, jj]
    vv = jj + u[ii, jj]
    pos = a1[ii] + t[ii, jj][:, None] * d1[ii]
    sgn = np.sign(denom[ii, jj]).astype(int)
    return uu, vv, pos, sgn


def _dense_self_crossing_params(P, margin=1e-9):
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


def _scalar_point_in_polygon(point, poly):
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


@st.composite
def polylines(draw, max_points=80):
    """Random walks, with step scales from fine sampling to segments longer
    than a chunk; generic steps from a seeded generator, or hypothesis's own
    floats, which repeat values and so give collinear and shared points."""
    n = draw(st.integers(2, max_points))
    scale = draw(st.sampled_from([0.01, 0.05, 0.3, 3.0]))
    start = draw(arrays(float, 2, elements=st.floats(-4.0, 4.0)))
    if draw(st.sampled_from([True, True, True, False])):
        steps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
            -1.0, 1.0, (n - 1, 2))
    else:
        steps = draw(arrays(float, (n - 1, 2), elements=st.floats(-1.0, 1.0)))
    return np.concatenate([start[None], start + scale * np.cumsum(steps, axis=0)])


def _outcome(kernel, *args, **kwargs):
    try:
        return kernel(*args, **kwargs)
    except tp.NonTransverse:
        return "NonTransverse"


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b))


@settings(max_examples=200)
@given(polylines(), polylines(), st.data())
def test_crossing_kernel_equals_dense_algebra(P, Q, data):
    # Q through a point near P, then none, a shared vertex or a vertex of Q
    # on a segment of P (a grazing contact)
    Q += P[data.draw(st.integers(0, len(P) - 1))] - Q[len(Q) // 2] + (1e-3 / 3, 2e-3 / 7)
    contact = data.draw(st.sampled_from([None, None, "shared", "on segment"]))
    if contact == "shared":
        Q[data.draw(st.integers(0, len(Q) - 1))] = P[data.draw(st.integers(0, len(P) - 1))]
    elif contact == "on segment":
        i = data.draw(st.integers(0, len(P) - 2))
        f = data.draw(st.floats(0.0, 1.0))
        Q[data.draw(st.integers(0, len(Q) - 1))] = P[i] + f * (P[i + 1] - P[i])
    if data.draw(st.booleans()):
        Qs = np.stack([R + np.asarray(off) for R in (Q, -Q)
                       for off in tp._lattice_tiles(R, P)])
    else:
        Qs = Q[None]

    def dense(**kw):
        parts = [_dense_crossings(P, R, **kw) for R in Qs]
        return tuple(np.concatenate([p[k] for p in parts]) for k in range(4))

    assert _same(_outcome(tp._crossings, P, Qs, tol=1e-9),
                 _outcome(dense, tol=1e-9))
    assert _same(tp._crossings(P, Qs, margin=1e-7), dense(tol=None, margin=1e-7))
    assert tp._self_crossing_params(P) == _dense_self_crossing_params(P)


def test_grazing_past_a_polyline_end_is_caught():
    # the lines meet 5e-10 before P's first vertex: outside both unpadded
    # chunk boxes, but within the grazing tolerance of P
    P = np.array([[0.0, 0.0], [1.0, 0.0]])
    Q = np.array([[-5e-10, -1.0], [-5e-10, 1.0]])
    with pytest.raises(tp.NonTransverse):
        _dense_crossings(P, Q)
    with pytest.raises(tp.NonTransverse):
        tp._crossings(P, Q[None], tol=1e-9)


@settings(max_examples=200)
@given(polylines(max_points=60), polylines(max_points=40), st.data())
def test_point_in_polygon_equals_ray_casting_loop(poly, pts, data):
    # polygon vertices and points level with them hit the ray's edge cases
    k = min(len(pts), len(poly))
    pts = np.concatenate([pts, poly, np.stack([pts[:k, 0], poly[:k, 1]], axis=-1)])
    if data.draw(st.booleans()):
        pts = np.round(pts, 1)
        poly = np.round(poly, 1)
    inside = tp._point_in_polygon(pts, poly)
    assert inside.tolist() == [_scalar_point_in_polygon(p, poly) for p in pts]


def _random_curve(rng, kind, n, near):
    """A random path or a loop closing up to a lattice vector, starting near
    `near`, or the iota-image of such a path moved by a lattice vector."""
    start = near + rng.normal(0.0, 0.3, 2)
    steps = rng.normal(0.0, rng.choice([0.05, 0.2]), (n - 1, 2))
    if kind == "loop":
        shift = TWO_PI * rng.integers(-1, 2, 2) * rng.integers(0, 2)
        steps += (shift - steps.sum(axis=0)) / (n - 1)
    pts = np.concatenate([start[None], start + np.cumsum(steps, axis=0)])
    if kind == "loop":
        pts[-1] = pts[0] + shift
        return cv.Curve("loop", pts)
    if kind == "iota":
        pts = -pts + TWO_PI * rng.integers(-2, 3, 2)
    return cv.Curve("path", pts)


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["path", "loop", "iota"]),
       st.sampled_from(["path", "loop", "iota"]), st.integers(2, 60),
       st.integers(2, 60))
def test_intersection_number_antisymmetric(seed, kind1, kind2, n1, n2):
    rng = np.random.default_rng(seed)
    near = rng.uniform(0.3, TWO_PI - 0.3, 2)
    a, b = _random_curve(rng, kind1, n1, near), _random_curve(rng, kind2, n2, near)
    r12, r21 = tp.intersection_number(a, b), tp.intersection_number(b, a)
    assert r12.algebraic == -r21.algebraic
    assert r12.geometric == r21.geometric


def test_disjoint_curves():
    a = cv.circle_loop((1.0, 1.0), 0.2)
    b = cv.circle_loop((2.2, 2.2), 0.2)
    rep = tp.intersection_number(a, b)
    assert rep.algebraic == 0 and rep.geometric == 0


def test_single_transverse_crossing():
    p1 = cv.Curve("path", np.array([[1.0, 1.0], [2.0, 2.0]]))
    p2 = cv.Curve("path", np.array([[1.0, 2.0], [2.0, 1.0]]))
    rep = tp.intersection_number(p1, p2)
    assert rep.geometric == 1 and abs(rep.algebraic) == 1


def test_antisymmetry_random_pairs():
    rng = np.random.default_rng(0)
    for k in range(100):
        c1 = cv.circle_loop(rng.uniform(0.8, 2.2, 2), rng.uniform(0.2, 0.6),
                            n=64, orientation=1)
        c2 = cv.circle_loop(rng.uniform(0.8, 2.2, 2), rng.uniform(0.2, 0.6),
                            n=64, orientation=-1 if k % 2 else 1)
        r12 = tp.intersection_number(c1, c2)
        r21 = tp.intersection_number(c2, c1)
        assert r12.algebraic == -r21.algebraic
        assert r12.geometric == r21.geometric


def test_iota_aware_counting():
    # a curve and the iota-image of a partner meet even if raw lifts are far
    a = cv.Curve("path", np.array([[0.3, 0.3], [0.9, 0.9]]))
    b = cv.Curve("path", np.array([[-0.3, -0.9], [-0.9, -0.3]]))  # iota lift
    rep = tp.intersection_number(a, b)
    assert rep.geometric == 1


def test_homology_basis_circles():
    for ci in range(3):
        h = tp.homology_class(cv.corner_circle(ci, 0.1))
        expected = [0, 0, 0]
        expected[ci] = 1
        assert h.coefficients() == tuple(expected)
    h3 = tp.homology_class(cv.corner_circle(3, 0.1))
    assert h3.coefficients() == (-1, -1, -1)


def test_homology_contractible_and_orientation():
    assert tp.homology_class(cv.circle_loop((1.5, 1.5), 0.2)).coefficients() == (0, 0, 0)
    h = tp.homology_class(cv.corner_circle(1, 0.1, orientation=-1))
    assert h.coefficients() == (0, -1, 0)


def test_homology_invariance_refinement_jitter():
    base = cv.corner_circle(2, 0.25)
    fine = base.resampled(0.003)
    # radial jitter keeps the involution closure intact
    ang = np.linspace(0.0, math.pi, len(base))
    rad = 0.25 + 8e-4 * np.sin(2 * ang)
    jig = cv.Curve("loop", np.array([PI, 0.0]) +
                   rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1))
    for c in (fine, jig):
        assert tp.homology_class(c).coefficients() == (0, 0, 1)


def test_fig8_homology_matches_winding_pattern():
    A0 = cv.line_arc((0, 0), (PI, 0), n=257)
    f8 = co.model_map_vdelta(A0, 0.2).components[0]
    h = tp.homology_class(f8).coefficients()
    assert h in ((1, 0, -1), (-1, 0, 1))  # opposite windings at corners 0 and 2


def test_classifier_accepts_model_arcs():
    for a, b in (((0, 0), (PI, 0)), ((0, 0), (PI, PI)), ((PI, 0), (PI, PI))):
        arc = cv.line_arc(a, b, n=257)
        out = co.model_map_vdelta(arc, 0.2)
        v = tp.classify_homology_fig8(out.components, arc, 0.2)
        assert v["is_homology_fig8"] and v["is_connected"]
        am, ap = v["counts"]["alpha_minus"], v["counts"]["alpha_plus"]
        assert abs(am[0]) == 1 and abs(ap[0]) == 1 and am[0] == -ap[0]
        assert v["counts"]["beta"] == (0, 2)


def test_classifier_rejects_doubled_loop():
    arc = cv.line_arc((0, 0), (PI, 0), n=257)
    loop = cv.circle_loop((PI / 2, PI / 2), 0.4)
    doubled = co.model_map_vdelta(loop, 0.2)
    with pytest.raises(tp.SupportViolation):
        tp.classify_homology_fig8(doubled.components, arc, 0.2, tube_radius=0.45)


def test_classifier_accepts_disconnected_pair():
    # a disconnected homology figure eight: a half-lift oval around the start
    # corner reaching past the arc midpoint (two beta crossings) plus a small
    # circle around the end corner with the opposite orientation
    arc = cv.line_arc((0, 0), (PI, 0), n=257)
    ang = np.linspace(0, math.pi, 257)
    oval = cv.Curve("loop", np.stack([1.8 * np.cos(ang),
                                      0.3 * np.sin(ang)], axis=-1))
    c2 = cv.corner_circle(2, 0.3, orientation=-1)
    v = tp.classify_homology_fig8([oval, c2], arc, 0.2)
    assert v["is_homology_fig8"] and not v["is_connected"]


def test_model_fig8_single_self_crossing():
    arc = cv.line_arc((0, 0), (PI, PI), n=257)
    f8 = co.model_map_vdelta(arc, 0.2).components[0]
    assert tp.self_intersections(f8) == 1


def test_bigons_trivial_cases():
    p1 = cv.Curve("path", np.array([[1.0, 1.0], [2.0, 2.0]]))
    p2 = cv.Curve("path", np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert tp.count_bigons(p1, p2) == 0
    c = np.array([1.4, 1.4])
    th = np.linspace(-1.2, 1.2, 120)
    seg = cv.Curve("path", np.stack([np.full(80, c[0]),
                                     c[1] + np.linspace(-1, 1, 80)], axis=-1))
    lens = cv.Curve("path", np.stack([c[0] + 0.5 - 0.8 * th ** 2, c[1] + th],
                                     axis=-1))
    assert tp.count_bigons(seg, lens) == 1


def test_bigon_panels():
    (a_plain, b_fig8), (a_fig8, b_plain) = tp.bigon_panels()
    assert tp.count_bigons(a_plain, b_fig8) == 1
    assert tp.count_bigons(a_fig8, b_plain) == 0
    # the mechanism: the doubled side carries the single visible self-crossing
    assert len(tp._self_crossing_params(a_fig8.samples)) == 1


def test_bigon_panels_match_scipy_spline(monkeypatch):
    interpolate = pytest.importorskip("scipy.interpolate")
    panels = [c.samples for pair in tp.bigon_panels() for c in pair]
    monkeypatch.setattr(tp, "_spline", lambda ctrl: interpolate.CubicSpline(
        np.linspace(0, 1, len(ctrl)), np.asarray(ctrl), axis=0)(np.linspace(0, 1, 600)))
    reference = [c.samples for pair in tp.bigon_panels() for c in pair]
    for ours, ref in zip(panels, reference):
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-12


def test_bigon_panels_do_not_import_scipy():
    src = os.path.dirname(os.path.dirname(tp.__file__))
    code = ("import sys\nfrom earring import topology as tp\ntp.bigon_panels()\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
