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


def test_section_fibers_batch_rows_are_independent():
    rng = np.random.default_rng(3)
    g = np.concatenate([rng.uniform(0.3, PI - 0.3, 7), [0.12, PI / 2]])
    t = np.concatenate([rng.uniform(0.0, 2 * PI, 7), [0.05, 0.0]])
    for s in (0.05, 0.19):
        h, _, ok = md.section_fibers(g, t, s)
        # (0.12, 0.05) lies near a corner: its solve fails at s = 0.19
        assert ok[:7].all() and ok[8].all() and (ok[7] == (s < 0.1)).all()
        for k in range(len(g)):
            hk, _, okk = md.section_fibers(g[k:k + 1], t[k:k + 1], s)
            assert (okk[0] == ok[k]).all()
            for b in np.flatnonzero(ok[k]):
                assert np.array_equal(hk[0, b], h[k, b])
                h1, h2 = md.eval_H(g[k], t[k], h[k, b], s)
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


def _gauss_newton_gp_reference(f0, f1, t0, t1, h, s):
    """The Gauss-Newton loop before md.sphere_newton: each iteration evaluates
    the residual at the iterate and at its four complex-step points, five
    points stacked, and the 60th step is taken without a check after it."""
    t0, t1, h = (np.array(x, dtype=float) for x in (t0, t1, h))
    ok = np.zeros(len(t0), dtype=bool)
    sv = np.full(len(t0), np.nan)
    live = np.arange(len(t0))
    eps = md.CS_STEP
    for _ in range(co.GP_MAX_ITER):
        a, b, hh = t0[live], t1[live], h[live]
        e1, e2 = md._tangent_frame(hh)
        r = np.stack(co._gp_residual(
            f0, f1, np.stack([a, a + 1j * eps, a, a, a]), np.stack([b, b, b + 1j * eps, b, b]),
            np.stack([hh, hh, hh, qt.normalize(hh + 1j * eps * e1),
                      qt.normalize(hh + 1j * eps * e2)]), s), axis=-1)
        res = r[0].real
        jac = np.moveaxis(r[1:].imag, 0, -1) / eps
        done = np.max(np.abs(res), axis=-1) < co.GP_CONVERGED
        ok[live[done]] = True
        step = ~done & np.isfinite(r).all(axis=(0, 2))
        live, res, jac = live[step], res[step], jac[step]
        a, b, hh, e1, e2 = a[step], b[step], hh[step], e1[step], e2[step]
        if not len(live):
            break
        u, sing, vt = np.linalg.svd(jac, full_matrices=False)
        sv[live] = sing[:, -1]
        cutoff = np.finfo(float).eps * max(jac.shape[1:]) * sing[:, :1]
        with np.errstate(divide="ignore"):
            inv = np.where(sing > cutoff, 1.0 / sing, 0.0)
        delta = -np.einsum("nki,nk->ni", vt, inv * np.einsum("nji,nj->ni", u, res))
        big = np.max(np.abs(delta), axis=-1, keepdims=True)
        delta *= co.GP_STEP_CAP / np.maximum(big, co.GP_STEP_CAP)
        t0[live] = a + delta[:, 0]
        t1[live] = b + delta[:, 1]
        h[live] = qt.normalize(hh + delta[:, 2:3] * e1 + delta[:, 3:4] * e2)
    return t0, t1, h, ok, sv


_BASIS = [((0, 0), (PI, 0)), ((0, 0), (PI, PI)), ((0, 0), (0, PI))]
_PARTNERS = [((0, 0), (PI, -2 * PI)), ((0, 0), (PI, -PI)), ((0, 0), (2 * PI, PI))]
# the nine pairs of cli.counting_matrix, row-major
_COUNTING_PAIRS = [(_PARTNERS[1], _BASIS[1]) if i == j == 1 else
                   (_BASIS[i], _PARTNERS[i]) if i == j else (_BASIS[i], _BASIS[j])
                   for i in range(3) for j in range(3)]


@pytest.mark.parametrize("s", [0.05, 0.19])
@pytest.mark.parametrize("a, b", _COUNTING_PAIRS)
def test_gauss_newton_gp_equals_reference(monkeypatch, a, b, s):
    # the sphere_newton Gauss-Newton against the loop it replaced, on the
    # seeds count_generalized_points builds: the same converged rows, at the
    # same (t0, t1, h), with the same last-step singular values
    core, runs = co._gauss_newton_gp, []

    def both(*args):
        out = core(*args)
        runs.append((out, _gauss_newton_gp_reference(*args)))
        return out

    monkeypatch.setattr(co, "_gauss_newton_gp", both)
    co.count_generalized_points(cv.line_arc(*a), cv.line_arc(*b), s)
    (t0, t1, h, ok, sv), (t0r, t1r, hr, okr, svr) = runs[0]
    assert np.array_equal(ok, okr) and ok.any()
    for x, y in ((t0, t0r), (t1, t1r), (h, hr), (sv, svr)):
        assert np.max(np.abs(x[ok] - y[ok])) <= 1e-12


def test_corrector_returns_its_final_evaluation():
    L = cv.circle_loop((PI / 2, PI / 2), 0.5, n=129)
    system = co._System(co._Lift(L.samples), 0.05)
    h, _, ok = md.section_fibers([PI / 2 + 0.5], [PI / 2], 0.05)
    assert ok[0, 0]
    y0 = (2e-3, tuple((h[0, 0] + [0.0, 1e-3, -1e-3]).tolist()))
    y, res, jac, frame = co._corrector(system, y0)
    assert max(map(abs, res)) < 1e-10
    tan = co._tangent(jac, frame)
    y_pred = co._apply(y, tuple(0.02 * x for x in co._to_local(tan, frame)), frame)
    # converged, converged along a tangent, and stopped after max_iter
    for start, kwargs in ((y0, {}), (y_pred, {"tangent": tan}), (y0, {"max_iter": 1})):
        y, res, jac, frame = co._corrector(system, start, **kwargs)
        assert (res, jac, frame) == system.res_and_jac(*y)


def _res_and_jac_four_calls(system, u, h):
    """_System.res_and_jac with its value from a separate real eval_H call."""
    g, t, dg, dt, _ = system.lift.at(u)
    e1, e2 = md._tangent_frame(h)
    eps, s = md.CS_STEP, system.s
    ce, (x, y, z), hu = 1j * eps, h, qt.normalize(h)
    h1, h2 = md.eval_H(g, t, hu, s)
    a1, a2 = md.eval_H(g + ce * dg, t + ce * dt, hu, s)
    b1, b2 = md.eval_H(g, t, qt.normalize((x + ce * e1[0], y + ce * e1[1], z + ce * e1[2])), s)
    c1, c2 = md.eval_H(g, t, qt.normalize((x + ce * e2[0], y + ce * e2[1], z + ce * e2[2])), s)
    jac = ((a1.imag / eps, b1.imag / eps, c1.imag / eps),
           (a2.imag / eps, b2.imag / eps, c2.imag / eps))
    return (h1, h2), jac, (e1, e2)


@pytest.mark.parametrize("curve, s, sep", [
    (cv.line_arc((0, 0), (PI, 0), n=129), 0.19, co.SWEEP_SEP_MIN),
    (cv.line_arc((0, 0), (PI, PI), n=129), 0.19, co.SWEEP_SEP_MIN),
    (cv.line_arc((PI, 0), (PI, PI), n=129), 0.19, co.SWEEP_SEP_MIN),
    (cv.line_arc((0, 0), (PI, 0), n=129), 0.45, co.SWEEP_SEP_MIN),
    (cv.circle_loop((1.5, 2.0), 0.5), 0.05, 10.0)])    # the loop unswept: traced whole
def test_res_and_jac_equals_four_call_reference(monkeypatch, curve, s, sep):
    # the value is the u-direction call's real part: equal to the real call's
    # at every evaluation of whole traces (up to the sign of a zero), and the
    # traced samples are bitwise the same
    monkeypatch.setattr(co, "SWEEP_SEP_MIN", sep)
    calls, res_and_jac = [], co._System.res_and_jac

    def recording(system, u, h):
        out = res_and_jac(system, u, h)
        calls.append((system, u, h, out))
        return out

    monkeypatch.setattr(co._System, "res_and_jac", recording)
    comps = co.compose_curve(curve, s).components
    assert len(calls) > 50
    for system, u, h, out in calls:
        assert out == _res_and_jac_four_calls(system, u, h)
    monkeypatch.setattr(co._System, "res_and_jac", _res_and_jac_four_calls)
    ref = co.compose_curve(curve, s).components
    assert [c.samples.tobytes() for c in comps] == [c.samples.tobytes() for c in ref]


def test_vectorized_quotient_distance():
    # _ydist against sample arrays equals the distance to each sample, also
    # through the involution, where either argument may carry the image
    rng = np.random.default_rng(7)
    n = 40
    g, t = rng.uniform(-4, 10, (2, n))
    h = rng.normal(size=(n, 3))
    h /= np.linalg.norm(h, axis=-1, keepdims=True)
    samples = [(g[k], t[k], h[k]) for k in range(n)]
    for y in [samples[3], (samples[5][0] + 0.01, -samples[5][1], h[9]),
              (1.0, 2.0, np.array([0.0, 0.6, 0.8]))]:
        direct = co._ydist(y, (g, t, h))
        iota = co._ydist(md.iota_hat(*y), (g, t, h))
        for k, (gk, tk, hk) in enumerate(samples):
            assert direct[k] == co._ydist(y, (gk, tk, hk))
            assert iota[k] == co._ydist(y, (-gk, -tk, hk * [1.0, -1.0, -1.0]))


def _continuation_components(loop, s):
    """Both branches at one sample of a loop traced all the way round, pushed."""
    fine = loop.resampled(min(0.02, loop.length() / 64))
    lift = co._Lift(fine.samples)
    system = co._System(lift, s)
    k = len(fine) // 3
    g, t = fine.samples[k]
    h, _, ok = md.section_fibers([g], [t], s)
    comps = []
    for hk in h[ok]:
        _, *ys, swept = co.trace_component(system, (lift.cum[k], hk))
        assert not swept.any()
        if all(np.min(co._ydist((g, t, hk), f[:3])) >= 3 * co.STEP_MAX for f in comps):
            comps.append((*ys, swept))
    return [co._push_component(*ys, s)[0] for ys in comps]


def _canon(curve):
    return cv.to_canonical(curve.resampled(0.01).samples)


@settings(max_examples=10)
@given(st.booleans(), st.floats(0.3, 0.6), st.floats(0.3, 0.6),
       st.floats(0.0, 1.0), st.floats(0.0, 2 * PI), st.sampled_from([0.01, 0.05, 0.1]))
def test_sweep_agrees_with_continuation(is_circle, ra, rb, where, theta0, s):
    # random circles and ellipses at corner distance >= 0.3
    rb = ra if is_circle else rb
    gamma0 = 0.3 + ra + where * (PI - 0.6 - 2 * ra)
    ang = np.linspace(0.0, 2 * PI, 161)
    pts = np.stack([gamma0 + ra * np.cos(ang), theta0 + rb * np.sin(ang)], axis=-1)
    pts[-1] = pts[0]
    loop = cv.Curve("loop", pts)
    assert float(np.min(pc.corner_dist(pts[:, 0], pts[:, 1]))) >= 0.3 - 1e-12
    swept = co.compose_curve(loop, s).components
    traced = _continuation_components(loop, s)
    assert len(swept) == len(traced)
    for a in swept:
        assert min(cv.hausdorff(_canon(a), _canon(b)) for b in traced) < co.STEP_MAX
    for b in traced:
        assert min(cv.hausdorff(_canon(a), _canon(b)) for a in swept) < co.STEP_MAX


def test_sweep_covers_loops_and_most_of_arcs(composed_loop, composed_a0):
    def share(out):
        swept = np.concatenate([p["swept"] for p in out.provenance])
        return np.count_nonzero(swept) / len(swept)

    assert share(composed_loop[1]) == 1.0
    shares = [share(composed_a0[1])]
    for p, q in [((0, 0), (PI, PI)), ((PI, 0), (PI, PI)), ((0, 0), (0, PI))]:
        shares.append(share(co.compose_curve(cv.line_arc(p, q, n=129), 0.19)))
    assert min(shares) >= 0.6, shares


def test_unswept_seeds_fall_back_to_continuation(monkeypatch):
    # no row is regular: every component is traced all the way round
    monkeypatch.setattr(co, "SWEEP_SEP_MIN", 10.0)
    A0 = cv.line_arc((0, 0), (PI, 0), n=129)
    out = co.compose_curve(A0, 0.19)
    assert out.component_count() == 1
    assert not np.any(out.provenance[0]["swept"])
    assert tp.classify_homology_fig8(out.components, A0, 0.19)["is_homology_fig8"]


@pytest.mark.parametrize("end", [(PI, 0), (PI, PI), (0, PI)])
def test_unresolved_fold_skips_only_its_seed(monkeypatch, end):
    # a fold that stops the trace from the first seed leaves the others to find
    # every component
    arc = cv.line_arc((0, 0), end, n=129)
    want = co.compose_curve(arc, 0.19).component_count()
    trace, calls = co.trace_component, []

    def first_seed_folds(*args):
        calls.append(args)
        if len(calls) == 1:
            raise co.FoldUnresolved("step underflow")
        return trace(*args)

    monkeypatch.setattr(co, "trace_component", first_seed_folds)
    assert co.compose_curve(arc, 0.19).component_count() == want
    assert len(calls) > 1


@pytest.mark.parametrize("index", [3, -1])
def test_closing_check_fires_on_a_sample_off_the_curve(monkeypatch, index):
    # a traced sample, or the involution image that closes a doubled
    # component (its last sample), moved radially off a corner circle
    loop = cv.corner_circle(1, 0.6)
    push = co._push_component

    def moved(*args):
        comp, prov = push(*args)
        assert prov["doubled_upstairs"]
        p = np.array([prov["gamma"][index], prov["theta"][index]])
        r = p - np.round(p / PI) * PI
        prov["gamma"] = prov["gamma"].copy()
        prov["theta"] = prov["theta"].copy()
        prov["gamma"][index], prov["theta"][index] = p + 1e-3 * r / np.linalg.norm(r)
        return comp, prov

    monkeypatch.setattr(co, "_push_component", moved)
    with pytest.raises(co.ContinuationStall, match="left the input curve"):
        co.compose_curve(loop, 0.19)


def _circular_arc(end, height, n=129):
    """Arc of a circle from the corner (0, 0) to the corner end, bulging by
    |height| (below half the chord) to the left of the chord for height > 0;
    a negative height gives the arc of height |height| reflected across the
    chord."""
    a, b = np.zeros(2), np.asarray(end, dtype=float)
    half = np.linalg.norm(b - a) / 2
    bulge = abs(height)
    radius = (half * half + bulge * bulge) / (2 * bulge)
    normal = np.array([-(b - a)[1], (b - a)[0]]) / (2 * half)
    centre = (a + b) / 2 - (radius - bulge) * normal
    start, stop = (math.atan2(*(p - centre)[::-1]) for p in (a, b))
    ang = np.linspace(start, start + math.remainder(stop - start, 2 * PI), n)
    pts = centre + radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if height < 0:
        pts -= 2 * np.outer(pts @ normal, normal)
    pts[0], pts[-1] = a, b
    return cv.Curve("arc", pts)


@pytest.mark.parametrize("s", [0.05, 0.19])
@pytest.mark.parametrize("end", [(PI, 0), (0, PI)])
def test_circular_arc_below_its_chord(end, s):
    # a negative height mirrors the arc across its chord: both ends stay on
    # the circle, which bulges to the other side, and the arc composes to one
    # homology figure eight like the arc of positive height
    up, down = _circular_arc(end, 0.6), _circular_arc(end, -0.6)
    chord = np.asarray(end, dtype=float) / np.linalg.norm(end)
    side = up.samples @ [-chord[1], chord[0]]
    assert np.allclose(down.samples @ [-chord[1], chord[0]], -side, rtol=0, atol=1e-12)
    assert np.allclose(down.samples @ chord, up.samples @ chord, rtol=0, atol=1e-12)
    assert abs(np.min(-side) + 0.6) < 1e-3
    out = co.compose_curve(down, s)
    assert out.component_count() == 1
    assert tp.classify_homology_fig8(out.components, down, s)["is_homology_fig8"]


@pytest.mark.parametrize("end, height", [((PI, 0), 0.9), ((PI, PI), 0.6), ((0, PI), 1.2)])
def test_curved_arc_sweep_matches_continuation(monkeypatch, end, height):
    # on a curved lift, swept components keep the orientation and the
    # figure-eight counts of continuation from the same seed
    arc = _circular_arc(end, height)
    swept_out = co.compose_curve(arc, 0.19)
    monkeypatch.setattr(co, "SWEEP_SEP_MIN", 10.0)       # no row is regular
    traced = co.compose_curve(arc, 0.19)
    assert all(np.mean(p["swept"]) >= 0.5 for p in swept_out.provenance)
    assert swept_out.component_count() == traced.component_count()
    assert (tp.classify_homology_fig8(swept_out.components, arc, 0.19)
            == tp.classify_homology_fig8(traced.components, arc, 0.19))
    for w, t in zip(swept_out.provenance, traced.provenance):
        G, T, H = (t[k] for k in ("gamma", "theta", "h"))
        dist = co._ydist((w["gamma"][0], w["theta"][0], w["h"][0]), (G[:-1], T[:-1], H[:-1]))
        k = int(np.argmin(dist))
        assert dist[k] < 3 * co.STEP_MAX
        assert np.dot([w["gamma"][1] - w["gamma"][0], w["theta"][1] - w["theta"][0]],
                      [G[k + 1] - G[k], T[k + 1] - T[k]]) > 0


@pytest.mark.parametrize("s", [0.05, 0.1, 0.19])
@pytest.mark.parametrize("radius", [0.6, 1.0])
@pytest.mark.parametrize("corner", range(4))
def test_iota_closed_loops_compose(corner, radius, s):
    # a circle around a corner closes through the involution: its lift is a
    # half circle, and its composed image is two loops in its class
    loop = cv.corner_circle(corner, radius)
    assert loop.closure == "iota"
    out = co.compose_curve(loop, s)
    assert out.component_count() == 2
    l_i = (-1, -1, -1) if corner == 3 else tuple(int(k == corner) for k in range(3))
    for comp, prov in zip(out.components, out.provenance):
        assert tp.homology_class(comp).coefficients() in (l_i, tuple(-c for c in l_i))
        assert np.max(prov["residual"]) <= 1e-9
        if s == 0.05:
            assert cv.hausdorff(_canon(comp), _canon(loop)) < 0.1


@settings(max_examples=50)
@given(st.sampled_from(["loop", "arc", "iota"]), st.floats(-3.0, 3.0), st.integers(-2, 2))
def test_lift_at_is_interpolation_unrolled(kind, frac, n):
    if kind == "loop":
        curve = cv.circle_loop((1.0, 2.0), 0.7, n=33)
    elif kind == "arc":
        curve = cv.line_arc((0, 0), (PI, PI), n=17)
    else:
        curve = cv.corner_circle(2, 0.5, n=21)
    pts = cv.constraint_lift(curve)
    lift = co._Lift(pts)
    u = frac % 1.0 * lift.period
    g, t, dg, dt, q = lift.at(u + n * lift.period)
    assert abs(g - np.interp(u, lift.cum, pts[:, 0]) - n * lift.disp[0]) < 1e-12
    assert abs(t - np.interp(u, lift.cum, pts[:, 1]) - n * lift.disp[1]) < 1e-12
    assert abs(q - np.interp(u, lift.cum, np.arange(lift.m + 1)) - n * lift.m) < 1e-9
    # the direction of the segment at u (at a vertex, of either one)
    dirs = [pts[k + 1] - pts[k] for k in {math.floor(q + e) % lift.m for e in (-1e-9, 1e-9)}]
    assert any(np.allclose([dg, dt], d / np.linalg.norm(d), rtol=0, atol=1e-12) for d in dirs)
