import math

import numpy as np
import pytest

from earring import correspondence as co
from earring import curves as cv
from earring import moduli as md
from earring import pillowcase as pc
from earring import topology as tp

PI = math.pi


@pytest.fixture(scope="module")
def composed_loop():
    L = cv.circle_loop((PI / 2, PI / 2), 0.5, n=129)
    return L, co.compose_curve(L, 0.05)


@pytest.fixture(scope="module")
def composed_a0():
    A0 = cv.line_arc((0, 0), (PI, 0), n=129)
    return A0, co.compose_curve(A0, 0.19)


def test_loop_doubles(composed_loop):
    L, out = composed_loop
    assert out.component_count() == 2
    target = cv.to_canonical(L.resampled(0.004).samples)
    for comp in out.components:
        d = cv.hausdorff(cv.to_canonical(comp.resampled(0.004).samples), target)
        assert d < 0.1


def test_trace_lies_over_input(composed_loop):
    L, out = composed_loop
    for comp, prov in zip(out.components, out.provenance):
        assert np.max(prov["residual"]) < 1e-9
        base = cv.to_canonical(np.stack([prov["gamma"], prov["theta"]], axis=-1))
        d = cv.min_dist_to_samples(base, cv.to_canonical(L.resampled(0.004).samples))
        assert np.max(d) < 5e-3


def test_s_to_zero_collapse():
    # at s = 0 the restriction is the diagonal: the pushed image is the input
    L = cv.circle_loop((PI / 2, PI / 2), 0.5, n=65)
    hp, _ = md.sigma_sections(L.samples[:, 0], L.samples[:, 1])
    cg, ct, cgt = md.inner_invariants(L.samples[:, 0], L.samples[:, 1], hp, 0.0)
    g1 = np.arccos(np.clip(cg, -1, 1))
    t1 = np.arccos(np.clip(ct, -1, 1))
    flip = np.abs(np.cos(g1 - t1) - cgt) > np.abs(np.cos(g1 + t1) - cgt)
    t1 = np.where(flip, -t1, t1)
    pushed = cv.to_canonical(np.stack([g1, t1], axis=-1))
    d = cv.hausdorff(pushed, cv.to_canonical(L.samples))
    assert d < 1e-9


def test_arc_composes_to_connected_fig8(composed_a0):
    A0, out = composed_a0
    assert out.component_count() == 1
    v = tp.classify_homology_fig8(out.components, A0, 0.19)
    assert v["is_homology_fig8"] and v["is_connected"]


def test_composed_outputs_miss_corners(composed_a0):
    _, out = composed_a0
    for comp in out.components:
        c = cv.to_canonical(comp.samples)
        assert float(np.min(pc.corner_dist(c[:, 0], c[:, 1]))) > 0.1


def test_compose_rejects_bad_s():
    L = cv.circle_loop((PI / 2, PI / 2), 0.5, n=65)
    with pytest.raises(ValueError):
        co.compose_curve(L, 0.0)
    with pytest.raises(ValueError):
        co.compose_curve(L, 1.0)


def test_model_map_loop_doubling_exact():
    L = cv.circle_loop((PI / 2, PI / 2), 0.5, n=129)
    out = co.model_map_vdelta(L, 0.2)
    assert out.component_count() == 2
    for comp in out.components:
        assert np.allclose(comp.samples, L.samples)


def test_model_map_loop_in_disk_rejected():
    L = cv.circle_loop((0.3, 0.3), 0.2, n=65)
    with pytest.raises(co.BadDelta):
        co.model_map_vdelta(L, 0.4)


def test_model_map_radial_arc_wraps_once():
    arc = cv.line_arc((0, 0), (PI, 0), n=257)
    out = co.model_map_vdelta(arc, 0.2)
    f8 = out.components[0]
    h = tp.homology_class(f8).coefficients()
    assert h in ((1, 0, -1), (-1, 0, 1))


def test_model_map_fig8_meets_alpha_once(composed_a0=None):
    arc = cv.line_arc((0, 0), (PI, 0), n=257)
    v = tp.classify_homology_fig8(co.model_map_vdelta(arc, 0.2).components,
                                  arc, 0.2)
    assert v["counts"]["alpha_minus"][1] == 1
    assert v["counts"]["alpha_plus"][1] == 1


def test_compare_to_model_small_s():
    arc = cv.line_arc((0, 0), (PI, 0), n=129)
    d = co.compare_to_model(arc, 1e-3, 0.2)
    assert d < 0.2 / 100


def test_pairing_agreement_with_model():
    arcs = [cv.line_arc((0, 0), (PI, 0), n=257),
            cv.line_arc((0, 0), (PI, PI), n=257),
            cv.line_arc((0, 0), (0, PI), n=257)]
    M_model = np.zeros((3, 3), dtype=int)
    M_comp = np.zeros((3, 3), dtype=int)
    for i, A in enumerate(arcs):
        f8 = co.model_map_vdelta(A, 0.2).components[0]
        comp = co.compose_curve(A, 0.19)
        for j, B in enumerate(arcs):
            M_model[i, j] = tp.intersection_number(f8, B).algebraic
            M_comp[i, j] = sum(abs(tp.intersection_number(c, B).algebraic)
                               for c in comp.components)
    assert M_model.tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert np.abs(M_comp).tolist() == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def test_counts_unknot_and_hopf():
    assert co.count_generalized_points(
        cv.line_arc((0, 0), (PI, 0)), cv.line_arc((0, 0), (PI, PI)), 0.05) == 1
    assert co.count_generalized_points(
        cv.line_arc((0, 0), (PI, 0)), cv.line_arc((0, 0), (PI, -2 * PI)), 0.05) == 2
    assert co.count_generalized_points(
        cv.line_arc((0, 0), (PI, -PI)), cv.line_arc((0, 0), (PI, PI)), 0.05) == 2


def test_counts_regularity_reported():
    sols = co.count_generalized_points(
        cv.line_arc((0, 0), (PI, 0)), cv.line_arc((0, 0), (PI, PI)), 0.05,
        details=True)
    assert len(sols) == 1 and sols[0]["sv"] > 1e-6


def test_determinism():
    A0 = cv.line_arc((0, 0), (PI, 0), n=65)
    a = co.compose_curve(A0, 0.1)
    b = co.compose_curve(A0, 0.1)
    assert len(a.components) == len(b.components)
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.samples, cb.samples)


def test_fiber_at_batch_rows_are_independent():
    rng = np.random.default_rng(3)
    g = np.concatenate([rng.uniform(0.3, PI - 0.3, 7), [0.12, PI / 2]])
    t = np.concatenate([rng.uniform(0.0, 2 * PI, 7), [0.05, 0.0]])
    branch = np.array([1, -1, 1, 1, -1, -1, 1, -1, 1])
    for s in (0.05, 0.19):
        h, ok = co._fiber_at(g, t, s, branch)
        # (0.12, 0.05) lies near a corner: its solve fails at s = 0.19
        assert ok[:7].all() and ok[8] and ok[7] == (s < 0.1)
        for k in range(len(g)):
            hk, okk = co._fiber_at(g[k:k + 1], t[k:k + 1], s, branch[k:k + 1])
            assert okk[0] == ok[k]
            if ok[k]:
                assert np.max(np.abs(hk[0] - h[k])) < 1e-12
                h1, h2 = md.eval_H(g[k], t[k], h[k], s)
                assert max(abs(h1), abs(h2)) < 1e-10


@pytest.mark.parametrize("a, b", [
    (((0, 0), (PI, 0)), ((0, 0), (PI, -2 * PI))),
    (((0, 0), (PI, -PI)), ((0, 0), (PI, PI))),
    (((0, 0), (0, PI)), ((0, 0), (2 * PI, PI))),
    (((0, 0), (PI, PI)), ((0, 0), (0, PI))),
])
def test_counts_symmetric(a, b):
    A, B = cv.line_arc(*a), cv.line_arc(*b)
    assert (co.count_generalized_points(A, B, 0.05)
            == co.count_generalized_points(B, A, 0.05))


def test_unknot_generalized_point_regression():
    # the unknot pair's solution (t0, t1, h) and its smallest singular value
    sols = co.count_generalized_points(
        cv.line_arc((0, 0), (PI, 0)), cv.line_arc((0, 0), (PI, PI)), 0.05,
        details=True)
    assert len(sols) == 1
    key = [0.14026986508162076, 0.13986797714824956, 0.04943064567704246,
           0.7071270631687253, 0.7053565961996274]
    assert np.max(np.abs(sols[0]["key"] - key)) < 1e-10
    assert abs(sols[0]["sv"] - 0.013595803802082373) < 1e-10


def test_stalled_interior_seed_raises(monkeypatch):
    # one Gauss-Newton iteration leaves seeds unconverged inside both arcs
    monkeypatch.setattr(co, "GP_MAX_ITER", 1)
    with pytest.raises(md.NoConvergence):
        co.count_generalized_points(
            cv.line_arc((0, 0), (PI, 0)), cv.line_arc((0, 0), (PI, PI)), 0.05)


def test_corrector_returns_its_final_evaluation():
    L = cv.circle_loop((PI / 2, PI / 2), 0.5, n=129)
    system = co._System(cv.PolylineProjector(L.samples, closed=True), 0.05)
    h, ok = co._fiber_at(np.array([PI / 2 + 0.5]), np.array([PI / 2]), 0.05,
                         np.array([1]))
    assert ok[0]
    y0 = (PI / 2 + 0.5 + 1e-3, PI / 2 + 2e-3, h[0])
    y, res, jac, frame = co._corrector(system, y0)
    assert np.max(np.abs(res)) < 1e-10
    tan = co._tangent5(jac, frame)
    y_pred = co._apply(y, 0.02 * co._to4(tan, frame), frame)
    # converged, converged along a tangent, and stopped after max_iter
    for start, kwargs in ((y0, {}), (y_pred, {"tangent5": tan}), (y0, {"max_iter": 1})):
        y, res, jac, (e1, e2) = co._corrector(system, start, **kwargs)
        res2, jac2, (f1, f2) = system.res_and_jac(*y)
        assert np.array_equal(res, res2) and np.array_equal(jac, jac2)
        assert np.array_equal(e1, f1) and np.array_equal(e2, f2)


def test_vectorized_quotient_distance():
    rng = np.random.default_rng(7)
    n = 40
    g, t = rng.uniform(-4, 10, (2, n))
    h = rng.normal(size=(n, 3))
    h /= np.linalg.norm(h, axis=-1, keepdims=True)
    samples = [(g[k], t[k], h[k]) for k in range(n)]
    ys = co._sample_arrays(samples)
    for y in [samples[3], (samples[5][0] + 0.01, -samples[5][1], h[9]),
              (1.0, 2.0, np.array([0.0, 0.6, 0.8]))]:
        direct, iota = co._ydists(y, ys)
        for k, (gk, tk, hk) in enumerate(samples):
            assert direct[k] == co._ydist(y, (gk, tk, hk))
            assert iota[k] == co._ydist(y, (-gk, -tk, hk * [1.0, -1.0, -1.0]))
        scalar = min(min(co._ydist(y, q), co._ydist(y, md.iota_hat(*q)))
                     for q in samples)
        assert np.min(np.minimum(direct, iota)) == scalar
