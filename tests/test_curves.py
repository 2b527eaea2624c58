import math
import operator
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from earring import curves as cv
from earring import pillowcase as pc


def check_spacing(curve, step_max):
    return float(np.max(curve.seg_lengths())) < step_max


def test_loop_closure_lattice():
    L = cv.circle_loop((1.5, 1.5), 0.4)
    assert L.closure == "lattice"
    assert check_spacing(L, 0.05)


def test_loop_closure_iota():
    C = cv.corner_circle(1, 0.1)
    assert C.closure == "iota"


def test_bad_loop_rejected():
    with pytest.raises(cv.CurveError):
        cv.Curve("loop", np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_arc_endpoints():
    A = cv.line_arc((0, 0), (math.pi, 0))
    assert A.corners == (0, 2)
    with pytest.raises(cv.CurveError):
        cv.Curve("arc", np.array([[0.1, 0.0], [1.0, 0.0]]))


def test_resample_preserves_ends():
    A = cv.line_arc((0, 0), (math.pi, math.pi), n=17)
    B = A.resampled(0.01)
    assert np.allclose(B.samples[0], A.samples[0])
    assert np.allclose(B.samples[-1], A.samples[-1])
    assert check_spacing(B, 0.011)


def test_resample_keeps_end_after_short_last_segment():
    # a final segment shorter than the 1e-12 filter must not move the end
    pts = np.linspace([0.3, 0.2], [2.1, 1.4], 17)
    pts = np.insert(pts, -1, pts[-1] - 1e-13, axis=0)
    B = cv.Curve("path", pts).resampled(0.01)
    assert np.array_equal(B.samples[0], pts[0])
    assert np.array_equal(B.samples[-1], pts[-1])


def test_doubled_arc_lift_closes():
    A = cv.line_arc((0, 0), (math.pi, 0), n=33)
    closed = cv.doubled_arc_lift(A)
    disp = closed[-1] - closed[0]
    assert np.allclose(disp - np.round(disp / (2 * math.pi)) * 2 * math.pi, 0,
                       atol=1e-12)


def _canonical(gamma, theta):
    """Scalar reference for cv.to_canonical: one point in Python floats.

    The reduction mod 2 pi is the exact IEEE remainder, which is odd.  Within
    EQ_QUANTUM of an edge gamma in {0, pi}, gamma snaps onto the edge and
    theta folds into [0, pi]; within EQ_QUANTUM below 2 pi, theta snaps to 0.
    """
    q = cv.EQ_QUANTUM
    g = math.remainder(float(gamma), 2 * math.pi)
    t = math.remainder(float(theta), 2 * math.pi)
    if g < 0.0:
        g, t = -g, -t
    if g < q or math.pi - g < q:
        return (0.0 if g < q else math.pi), abs(t)
    if -q < t < 0.0:
        return g, 0.0
    return g, (t + 2 * math.pi if t < 0.0 else t + 0.0)


_seams = [k * math.pi for k in range(-6, 7)]
coordinate = st.one_of(
    st.floats(-20, 20, allow_nan=False),
    st.builds(operator.add, st.sampled_from(_seams), st.floats(-1e-13, 1e-13)))


@settings(max_examples=300)
@given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=20))
@example([(1.0, -1e-17)])        # a plain mod rounds theta up to 2 pi
@example([(1e-13, 2.0), (math.pi + 1e-13, -3.0)])
def test_to_canonical_matches_normalize(points):
    pts = np.array(points, dtype=float)
    canon = cv.to_canonical(pts)
    assert canon.tobytes() == np.array([_canonical(g, t) for g, t in points]).tobytes()
    assert cv.to_canonical(-pts).tobytes() == canon.tobytes()
    assert cv.to_canonical(canon).tobytes() == canon.tobytes()
    assert np.all((0.0 <= canon[:, 0]) & (canon[:, 0] <= math.pi))
    assert np.all((0.0 <= canon[:, 1]) & (canon[:, 1] < 2 * math.pi))


def test_unwrap_continuous():
    ang = np.linspace(0, 2 * math.pi, 100)
    canon = cv.to_canonical(np.stack([1.5 + 0.3 * np.cos(ang),
                                      1.5 + 0.3 * np.sin(ang)], axis=-1))
    lift = cv.unwrap_to_lift(canon)
    steps = np.linalg.norm(np.diff(lift, axis=0), axis=-1)
    assert np.max(steps) < 0.1


def _unwrap_by_loop(canonical):
    """The per-sample loop that unwrap_to_lift vectorizes."""
    out = np.empty_like(canonical)
    out[0] = canonical[0]
    for i in range(1, len(canonical)):
        g, t = canonical[i]
        best, bd = None, None
        for sg, st_ in ((g, t), (-g, -t)):
            dg = sg - out[i - 1, 0]
            dt = st_ - out[i - 1, 1]
            dg -= np.round(dg / (2 * math.pi)) * 2 * math.pi
            dt -= np.round(dt / (2 * math.pi)) * 2 * math.pi
            d = math.hypot(dg, dt)
            if bd is None or d < bd:
                bd = d
                best = (out[i - 1, 0] + dg, out[i - 1, 1] + dt)
        out[i] = best
    return out


@settings(max_examples=100)
@given(st.floats(-10, 10), st.floats(-10, 10),
       st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=200))
def test_unwrap_equals_loop(g0, t0, headings):
    # a path of 0.03 steps, away from the corners where both representatives tie
    steps = 0.03 * np.stack([np.cos(headings), np.sin(headings)], axis=-1)
    path = np.concatenate([[[g0, t0]], [g0, t0] + np.cumsum(steps, axis=0)])
    assume(float(np.min(pc.corner_dist(path[:, 0], path[:, 1]))) > 0.1)
    canon = cv.to_canonical(path)
    lift, ref = cv.unwrap_to_lift(canon), _unwrap_by_loop(canon)
    assert np.max(np.abs(lift - ref)) <= 1e-12

    def sign(out):
        # +1 where a sample keeps its canonical point (up to the lattice), -1 where flipped
        d = out - canon
        return np.where(np.max(np.abs(d - np.round(d / (2 * math.pi)) * 2 * math.pi), axis=1)
                        < 1e-9, 1, -1)

    assert np.array_equal(sign(lift), sign(ref))


@pytest.mark.parametrize("corner, step", [((math.pi, math.pi), (0.05, 0.03)),
                                           ((0.0, 0.0), (0.04, -0.05)),
                                           ((math.pi, 0.0), (-0.03, 0.05)),
                                           ((0.0, math.pi), (0.05, 0.05))])
def test_unwrap_ties_at_corners_equal_loop(corner, step):
    # a sample exactly on a corner is equally near both representatives; the
    # loop keeps the unflipped one, whichever sign its predecessor had
    path = np.array(corner) + np.arange(-6, 7)[:, None] * np.array(step)
    for p in (path, np.concatenate([[[1.0, 1.0]], path])):
        canon = cv.to_canonical(p)
        assert np.max(np.abs(cv.unwrap_to_lift(canon) - _unwrap_by_loop(canon))) <= 1e-12


def _dist_dense(query, samples):
    qg, qt = query[:, 0][:, None], query[:, 1][:, None]
    sg, st_ = samples[:, 0][None, :], samples[:, 1][None, :]
    return pc.dist_raw(qg, qt, sg, st_)


def _min_dist_dense(query, samples):
    """Reference for cv.min_dist_to_samples: the minimum over every sample."""
    return np.min(_dist_dense(query, samples), axis=1)


_special_point = st.one_of(
    st.tuples(st.floats(-7, 7), st.floats(-7, 7)),
    st.tuples(st.sampled_from([0.0, math.pi, -math.pi]), st.floats(0, 2 * math.pi)),
    st.builds(lambda g, e: (g, 2 * math.pi - e), st.floats(0, math.pi),
              st.floats(0, cv.EQ_QUANTUM)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 9, cv.NN_CHUNK, cv.NN_CHUNK + 1, 3 * cv.NN_CHUNK, 1000]),
       st.sampled_from([0.01, 0.3, 3.0]), st.integers(0, 2 ** 32 - 1),
       st.lists(_special_point, max_size=8), st.booleans())
def test_min_dist_to_samples_equals_dense(n, step, seed, special, canonical):
    # a random walk (a sampled curve when the step is small) with edge and
    # seam points and duplicates planted; queries include the samples' iota
    # images and lattice translates
    rng = np.random.default_rng(seed)
    cloud = rng.uniform(-7, 7, 2) + np.cumsum(rng.normal(scale=step, size=(n, 2)), axis=0)
    if special:
        cloud[rng.integers(0, n, len(special))] = special
    cloud[rng.integers(0, n, 3)] = cloud[rng.integers(0, n, 3)]
    if canonical:
        cloud = cv.to_canonical(cloud)
    pick = cloud[rng.integers(0, n, 20)]
    query = np.concatenate([
        np.array(special, dtype=float).reshape(-1, 2), pick, -pick,
        pick + 2 * math.pi * rng.integers(-2, 3, (20, 2)),
        cloud[rng.integers(0, n, 5)] + rng.normal(scale=0.05, size=(5, 2)),
        rng.uniform(-7, 7, (20, 2))])
    for a, b in ((query, cloud), (cloud, query)):
        assert np.array_equal(cv.min_dist_to_samples(a, b), _min_dist_dense(a, b))
        assert np.array_equal(cv.nearest_sample(a, b), np.argmin(_dist_dense(a, b), axis=1))
    # a nan query: nan distance at the first sample, as in the dense argmin
    nan = np.full((1, 2), math.nan)
    assert np.isnan(cv.min_dist_to_samples(nan, cloud)).all()
    assert cv.nearest_sample(nan, cloud).tolist() == [0]


@pytest.mark.parametrize("m, n", [(0, 5), (0, 40), (3, 0), (40, 0), (0, 0)])
def test_min_dist_to_samples_on_empty_as_dense(m, n):
    query, samples = np.ones((m, 2)), np.ones((n, 2))
    try:
        ref = _min_dist_dense(query, samples)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            cv.min_dist_to_samples(query, samples)
    else:
        out = cv.min_dist_to_samples(query, samples)
        assert out.dtype == ref.dtype and out.shape == ref.shape


def test_hausdorff_on_shifted_clouds():
    a = np.stack([np.linspace(0.5, 1.5, 50), np.full(50, 1.0)], axis=-1)
    b = a + np.array([0.0, 0.25])
    assert cv.hausdorff(a, b) == pytest.approx(0.25, abs=1e-6)


def test_projector_signed_distance():
    line = np.stack([np.linspace(0, 3, 40), np.zeros(40)], axis=-1)
    proj = cv.PolylineProjector(line, closed=False)
    sd, _, normal = proj.project(np.array([1.0, 0.2]))
    assert abs(abs(sd) - 0.2) < 1e-12
    sd2, _, _ = proj.project(np.array([1.0, -0.2]))
    assert abs(sd + sd2) < 1e-12  # opposite sides, opposite signs


def test_curve_json_roundtrip():
    A = cv.line_arc((0, 0), (math.pi, math.pi), n=9)
    B = cv.Curve.loads(A.dumps())
    assert B.kind == "arc" and B.corners == (0, 3)
    assert np.allclose(A.samples, B.samples)
