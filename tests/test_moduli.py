import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from earring import correspondence as co
from earring import curves as cv
from earring import moduli as md
from earring import pillowcase as pc
from earring import quaternion as qt

from quat_helpers import exp_k


def _pure(h):
    """The pure quaternion with imaginary part h (..., 3)."""
    h = np.asarray(h)
    return np.concatenate([np.zeros(h.shape[:-1] + (1,), dtype=h.dtype), h], axis=-1)


def _sigma_hat_points(n, seed=0):
    """Random solutions of sin(t) sin(nu) + sin(g) cos(nu) = 0 at s = 0."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.2, math.pi - 0.2, n)
    t = rng.uniform(0.2, math.pi - 0.2, n)
    nu = np.arctan2(-np.sin(g), np.sin(t))
    h = np.stack([np.zeros(n), -np.sin(nu), np.cos(nu)], axis=-1)
    return g, t, h


def test_eval_F_s0_first_equation_vanishes():
    rng = np.random.default_rng(1)
    g, t = rng.uniform(0, 2 * math.pi, (2, 50))
    h = qt.normalize(rng.normal(size=(50, 4)))[:, 1:]
    f2, _ = md.eval_F(g, t, h, 0.0)
    assert np.max(np.abs(f2)) < 1e-14


def test_eval_F_s0_orthogonal_h():
    # h = e^{nu i} k is orthogonal to i, so F3 = Re(h i) = 0
    nus = np.linspace(0, 2 * math.pi, 17)
    h = np.stack([np.zeros_like(nus), -np.sin(nus), np.cos(nus)], axis=-1)
    _, f3 = md.eval_F(0.3 * np.ones_like(nus), 0.7 * np.ones_like(nus), h, 0.0)
    assert np.max(np.abs(f3)) < 1e-14


def test_eval_F_matches_corner_formula():
    # independent closed form at the corner from the corner-avoidance proof
    s = 0.19
    for tau in (0.3, 1.0, 2.4):
        h4 = qt.mul(exp_k(tau), qt.I)
        f2, f3 = md.eval_F(0.0, 0.0, h4[1:], s)
        assert float(f2) == pytest.approx(
            -math.sin(s) * math.cos(tau - s * math.sin(tau)), abs=1e-12)
        assert float(f3) == pytest.approx(
            -math.cos(s) * math.cos(tau + s * math.sin(tau)), abs=1e-12)


def test_eval_H_s0_closed_form():
    g, t, h = _sigma_hat_points(100)
    h1, h2 = md.eval_H(g, t, h, 0.0)
    assert np.max(np.abs(h1)) < 1e-12
    assert np.max(np.abs(h2)) < 1e-12


def test_eval_H_h_equals_i():
    h1, h2 = md.eval_H(0.5, 0.7, np.array([1.0, 0.0, 0.0]), 0.0)
    assert float(h2) == pytest.approx(-1.0)


def test_eval_H_definitional_scaling():
    rng = np.random.default_rng(2)
    g, t = rng.uniform(0, 2 * math.pi, (2, 20))
    h = qt.normalize(rng.normal(size=(20, 4)))[:, 1:]
    s = 0.1
    h1, h2 = md.eval_H(g, t, h, s)
    f2, f3 = md.eval_F(g, t, h, s)
    assert np.max(np.abs(h1 * s - f2)) < 1e-12
    assert np.max(np.abs(h2 - f3)) < 1e-12


def test_sigma_sections_examples():
    hp, _ = md.sigma_sections(math.pi / 2, 0.0)
    assert np.allclose(hp, [0, 1, 0])
    hp, _ = md.sigma_sections(0.0, math.pi / 2)
    assert np.allclose(hp, [0, 0, 1])
    hp, hm = md.sigma_sections(math.pi / 2, math.pi / 2)
    assert np.allclose(hp, [0, 1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert np.allclose(hm, -hp)


def test_sigma_sections_solve_H0():
    rng = np.random.default_rng(3)
    g = rng.uniform(0.05, math.pi - 0.05, 500)
    t = rng.uniform(0.05, math.pi - 0.05, 500)
    for h in md.sigma_sections(g, t):
        h1, h2 = md.eval_H(g, t, h, 0.0)
        assert np.max(np.abs(h1)) < 1e-12
        assert np.max(np.abs(h2)) < 1e-12


def test_sigma_sections_corner_raises():
    with pytest.raises(md.CornerInput):
        md.sigma_sections(0.0, 0.0)


def test_iota_hat_equivariance():
    rng = np.random.default_rng(4)
    g, t = rng.uniform(0, 2 * math.pi, (2, 10000))
    h = qt.normalize(rng.normal(size=(10000, 4)))[:, 1:]
    for s in (0.0, 0.05, 0.19):
        a1, a2 = md.eval_H(g, t, h, s)
        gg, tt, hh = md.iota_hat(g, t, h)
        b1, b2 = md.eval_H(gg, tt, hh, s)
        assert np.max(np.abs(a1 - b1)) < 1e-12
        assert np.max(np.abs(a2 - b2)) < 1e-12


def test_iota_hat_is_conjugation_by_i():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(200, 3))
    g, t, hh = md.iota_hat(0.3, -1.2, h)
    assert g == -0.3 and t == 1.2
    assert np.array_equal(hh, -qt.mul_chain(qt.I, _pure(h), qt.I)[:, 1:])


def _chain(gamma, theta, h, s):
    """eval_F, eval_H and inner_invariants through the full quaternion chain."""
    h4 = _pure(h)
    b = qt.mul(exp_k(gamma), qt.I)
    f = qt.mul(exp_k(theta), qt.I)
    p = qt.exp_im(s * qt.mul(b, h4)[..., 1:])
    q = qt.exp_im(s * qt.mul_chain(f, qt.conj(qt.I), h4)[..., 1:])
    core = qt.mul_chain(qt.conj(p), qt.I, qt.conj(f), q, f)
    F = qt.re(core), qt.re(qt.mul(h4, core))
    if abs(s) < md.S0_EPS:
        H = qt.re(qt.mul(h4, qt.mul(b, qt.I) + f)), qt.re(qt.mul(h4, qt.I))
    else:
        H = qt.re(core) / s, F[1]
    c = qt.mul_chain(qt.conj(q), qt.conj(p), b, p, q, renorm=True)
    d = -qt.mul_chain(qt.conj(h4), qt.I, h4, renorm=True)
    return F, H, pc.triple_invariants(c, f, d)


kernel_angle = st.floats(-7, 7, allow_nan=False)
unit = st.floats(-1, 1, allow_nan=False)
kernel_s = st.one_of(st.just(0.0), st.floats(-1e-8, 1e-8, allow_nan=False),
                     st.floats(-0.78, 0.78, allow_nan=False))


@settings(max_examples=300)
@given(kernel_angle, kernel_angle, st.tuples(unit, unit, unit).filter(
    lambda v: np.linalg.norm(v) > 0.1), kernel_s)
def test_closed_form_kernel_equals_quaternion_chain(g, t, h, s):
    # bitwise, at a real point and on the complex-step stencil of the
    # continuation Jacobian (value, d/dgamma, d/dtheta, two sphere directions)
    h = np.array(h) / np.linalg.norm(h)
    e1, e2 = md._tangent_frame(h)
    eps = md.CS_STEP
    gg = np.array([g, g + 1j * eps, g, g, g])
    tt = np.array([t, t, t + 1j * eps, t, t])
    hh = np.stack([h, h, h, h + 1j * eps * e1, h + 1j * eps * e2])
    hh = hh / np.sqrt(np.sum(hh * hh, axis=-1))[:, None]
    for args in ((np.array([g]), np.array([t]), h[None]), (gg, tt, hh)):
        F, H, inv = _chain(*args, s)
        got = md.eval_F(*args, s), md.eval_H(*args, s), md.inner_invariants(*args, s)
        for want, have in zip(F + H + inv, got[0] + got[1] + got[2]):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert np.array_equal(have, want)


@settings(max_examples=300)
@given(kernel_angle, kernel_angle, st.tuples(unit, unit, unit).filter(
    lambda v: np.linalg.norm(v) > 0.1), kernel_s, st.tuples(unit, unit))
def test_scalar_kernel_equals_array_kernel(g, t, h, s, d):
    # one point in Python numbers (h a 3-tuple) on the complex-step stencil of
    # the continuation Jacobian (value, a base direction d, two sphere
    # directions): values to 1e-15, Jacobian columns to 1e-12 of their largest
    # entry (columns at rounding level, below 1e-15, to 1e-15)
    h = np.array(h) / np.linalg.norm(h)
    e1, e2 = md._tangent_frame(h)
    for want, have in zip((e1, e2), md._tangent_frame(tuple(h.tolist()))):
        assert type(have) is tuple and np.max(np.abs(np.array(have) - want)) <= 1e-15
    eps = md.CS_STEP
    gg = np.array([g, g + 1j * eps * d[0], g, g])
    tt = np.array([t, t + 1j * eps * d[1], t, t])
    hh = np.stack([h, h, h + 1j * eps * e1, h + 1j * eps * e2])
    hh = hh / np.sqrt(np.sum(hh * hh, axis=-1))[:, None]
    want = np.array(md.eval_H(gg, tt, hh, s))
    have = np.array([md.eval_H(g, t, tuple(h.tolist()), s)]
                    + [md.eval_H(complex(a), complex(b), tuple(c.tolist()), s)
                       for a, b, c in zip(gg[1:], tt[1:], hh[1:])]).T
    assert np.max(np.abs(have.real - want.real)) <= 1e-15
    jw, jh = want[:, 1:].imag / eps, have[:, 1:].imag / eps
    assert np.all(np.abs(jh - jw) <= np.maximum(1e-12 * np.max(np.abs(jw), axis=0), 1e-15))


def test_newton_corrects_section_seed():
    # at s = 0.19 a generic section seed has a small nonzero residual whose
    # Newton-corrected zero exists nearby, confirmed by the sweep oracle
    # (at the fully symmetric point (pi/2, pi/2) the seed is exactly a zero)
    g, t, s = 1.2, 0.7, 0.19
    hp, _ = md.sigma_sections(g, t)
    f2, f3 = md.eval_F(g, t, hp, s)
    assert max(abs(float(f2)), abs(float(f3))) > 1e-6  # nonzero residual
    h, res, ok = md.newton_fiber(np.array([g]), np.array([t]), hp[None, :], s)
    assert ok.all() and res[0] < 1e-10
    sweep_h, _, _ = md.fiber_sweep(g, t, s)
    assert min(np.linalg.norm(h[0] - v) for v in sweep_h) < 1e-6


def _newton_fiber_reference(gamma, theta, h0, s):
    """The fiber Newton loop before md.sphere_newton: every row is evaluated
    at every iteration, the value by a separate real evaluation.  Returns
    (h, residual, converged mask, step halvings over all rows)."""
    def res_norm(h):
        h1, h2 = md.eval_H(gamma, theta, h, s)
        return np.maximum(np.abs(h1), np.abs(h2))

    h = qt.normalize(np.asarray(h0, dtype=float))
    res, halvings = res_norm(h), 0
    for _ in range(md.NEWTON_MAX_ITER):
        active = res > md.NEWTON_CONVERGED
        if not np.any(active):
            break
        e1, e2 = md._tangent_frame(h)

        def hval(u, v):
            return qt.normalize(h + u[..., None] * e1 + v[..., None] * e2)

        zeros = np.zeros_like(res)
        f1, f2 = md.eval_H(gamma, theta, h, s)
        step = md.CS_STEP
        g1u, g2u = md.eval_H(gamma, theta, hval(zeros + 1j * step, zeros), s)
        g1v, g2v = md.eval_H(gamma, theta, hval(zeros, zeros + 1j * step), s)
        j11, j21 = g1u.imag / step, g2u.imag / step
        j12, j22 = g1v.imag / step, g2v.imag / step
        det = j11 * j22 - j12 * j21
        bad = np.abs(det) < 1e-300
        det = np.where(bad, 1.0, det)
        du = np.where(bad, 0.0, (-f1 * j22 + f2 * j12) / det)
        dv = np.where(bad, 0.0, (-f2 * j11 + f1 * j21) / det)
        scale = np.where(active, 1.0, 0.0)
        for _damp in range(6):
            h_new = hval(scale * du, scale * dv)
            res_new = res_norm(h_new)
            worse = active & (res_new > res) & (res > 0)
            if not np.any(worse):
                break
            halvings += int(np.count_nonzero(worse)) if _damp < 5 else 0
            scale = np.where(worse, scale * 0.5, scale)
        h, res = h_new, res_new
    return h, res, res <= md.NEWTON_ACCEPT, halvings


_CORNER_XY = [(0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi)]


def test_newton_fiber_equals_reference():
    # the sphere_newton fiber solve against the loop it replaced, both from
    # the two sections, at base points 0.01-1.5 from a corner: the same
    # converged rows at the same points, and the rows that do not converge
    # bitwise where the loop left them (the arithmetic of a live row is
    # unchanged; only converged rows freeze instead of being renormalised).
    # Some examples damp: near a corner at any s, away from them from s = 0.5
    halvings = []

    @settings(max_examples=30)
    @given(st.floats(0.0, 0.78, exclude_min=True),
           st.lists(st.tuples(st.integers(0, 3), st.floats(0.01, 1.5),
                              st.floats(0.0, 2 * math.pi)), min_size=1, max_size=6))
    @example(0.3, [(0, 0.05, 0.7), (3, 0.02, 4.0), (1, 0.5, 2.0)])
    def check(s, points):
        g, t = np.array([np.add(_CORNER_XY[c], d * np.array([math.cos(a), math.sin(a)]))
                         for c, d, a in points]).T
        for seed in md.sigma_sections(g, t):
            h, res, ok = md.newton_fiber(g, t, seed, s)
            h_ref, res_ref, ok_ref, n = _newton_fiber_reference(g, t, seed, s)
            assert np.array_equal(ok, ok_ref)
            assert np.max(np.abs(h - h_ref)[ok], initial=0.0) <= 1e-12
            assert np.array_equal(h[~ok], h_ref[~ok])
            halvings.append(n)

    check()
    assert sum(halvings) > 0


def test_solve_fiber_s0_two_sections():
    sol = md.solve_fiber(1.1, 2.2, 0.0)
    assert sol.count() == 2
    hp, hm = md.sigma_sections(1.1, 2.2)
    d = min(np.linalg.norm(sol.h_list[0] - hp), np.linalg.norm(sol.h_list[0] - hm))
    assert d < 1e-10


def test_solve_fiber_s0_circle_mode_under_F():
    # with the unrescaled equations the s = 0 fiber is the circle Re(h i) = 0
    nus = np.linspace(0, 2 * math.pi, 36, endpoint=False)
    h = np.stack([np.zeros_like(nus), np.cos(nus), np.sin(nus)], axis=-1)
    f2, f3 = md.eval_F(np.full_like(nus, 0.9), np.full_like(nus, 1.7), h, 0.0)
    assert np.max(np.abs(f2)) < 1e-14
    assert np.max(np.abs(f3)) < 1e-14


def test_solve_fiber_verified_at_019():
    sol = md.solve_fiber(math.pi / 2, math.pi / 3, 0.19)
    h_sweep, _, _ = md.fiber_sweep(math.pi / 2, math.pi / 3, 0.19)
    assert sol.count() == 2 and len(h_sweep) == 2
    for v in h_sweep:
        assert min(np.linalg.norm(v - w) for w in sol.h_list) <= 1e-6
    hp, hm = md.sigma_sections(math.pi / 2, math.pi / 3)
    for v in sol.h_list:
        assert min(np.linalg.norm(v - hp), np.linalg.norm(v - hm)) < 0.3
    assert np.max(sol.residuals) < 1e-10


def test_solve_fiber_corner_raises():
    with pytest.raises(md.SeedDegenerate):
        md.solve_fiber(0.01, 0.01, 0.1)
    with pytest.raises(ValueError):
        md.solve_fiber(1.0, 1.0, 1.0)


def _staged_fibers(g, t, s):
    """Both branches carried from the s = 0 sections to s through the stages
    0.05, 0.1, 0.15 below |s| and then |s|, one batched newton_fiber run per
    stage; ok[k, b] says that every stage of row k converged on branch b."""
    h, ok = [], []
    for seed in md.sigma_sections(g, t):
        hb, okb = seed, np.ones(len(g), dtype=bool)
        for stage in [x for x in (0.05, 0.1, 0.15) if x < abs(s)] + [abs(s)]:
            hb, _, converged = md.newton_fiber(g, t, hb, math.copysign(stage, s))
            okb &= converged
        h.append(hb)
        ok.append(okb)
    return np.stack(h, axis=1), np.stack(ok, axis=1)


@settings(max_examples=60)
@given(st.floats(0.0, 0.5, exclude_min=True),
       st.lists(st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)),
                min_size=1, max_size=8))
def test_section_fibers_equal_staged_reference(s, points):
    # at corner distance >= max(0.05, 2.5 s) the direct solve from the
    # sections converges on the rows and branches where the staged one does,
    # at the same points; the range of s stops at 0.5 because the two part
    # ways on branch - from s = 0.6
    g, t = np.array(points).T
    far = pc.corner_dist(g, t) >= max(0.05, 2.5 * s)
    assume(far.any())
    g, t = g[far], t[far]
    h, res, ok = md.section_fibers(g, t, s)
    h_ref, ok_ref = _staged_fibers(g, t, s)
    assert np.array_equal(ok, ok_ref)
    assert np.max(np.abs(h - h_ref)[ok], initial=0.0) <= 1e-10
    assert np.all(res[ok] <= md.NEWTON_ACCEPT)


def test_fiber_freeness_margin():
    # every fiber solution stays away from +-i for s <= 0.19
    G, T = md.sample_grid(0.2, 12)
    h1, h2, _, _ = md.solve_fiber_grid(G, T, 0.19)
    for h in (h1, h2):
        d_plus = np.linalg.norm(h - np.array([1.0, 0, 0]), axis=-1)
        d_minus = np.linalg.norm(h + np.array([1.0, 0, 0]), axis=-1)
        assert min(d_plus.min(), d_minus.min()) > 0.1


def test_restrict_s0_diagonal():
    hp, _ = md.sigma_sections(1.0, 2.0)
    p0 = cv.to_canonical(np.array([[1.0, 2.0]]))
    p1 = co._inner_canonical(np.array([1.0]), np.array([2.0]), hp[None], 0.0)
    assert pc.dist_raw(*p0[0], 1.0, 2.0) < 1e-12
    assert pc.dist_raw(*p0[0], *p1[0]) < 1e-12


def test_restrict_isolated_019():
    g, t = math.pi / 2, math.pi / 3
    sol = md.solve_fiber(g, t, 0.19)
    n = len(sol.h_list)
    p1 = co._inner_canonical(np.full(n, g), np.full(n, t), sol.h_list, 0.19)
    assert pc.dist_raw(*cv.to_canonical(np.array([[g, t]]))[0], g, t) < 1e-12
    assert np.all(pc.dist_raw(p1[:, 0], p1[:, 1], g, t) < 0.5)


def test_restrict_corner_avoidance_spot_check():
    rng = np.random.default_rng(5)
    G, T = md.sample_grid(0.2, 32)
    idx = rng.choice(len(G), size=1000, replace=False)
    h1, h2, _, _ = md.solve_fiber_grid(G[idx], T[idx], 0.19)
    for h in (h1, h2):
        margin = md.corner_margin(G[idx], T[idx], h, 0.19)
        assert np.min(margin) > 0


def test_validate_moduli_point():
    sol = md.solve_fiber(1.2, 0.8, 0.1)
    f2, f3 = md.eval_F(1.2, 0.8, sol.h_list[0], 0.1)
    assert max(abs(float(f2)), abs(float(f3))) <= 1e-9


def test_taylor_gap_examples():
    rng = np.random.default_rng(6)
    g, t = rng.uniform(0, 2 * math.pi, 2)
    h = rng.normal(size=3)
    h /= np.linalg.norm(h)
    assert md.taylor_gap(g, t, h, 0.0) == 0.0
    gap3 = md.taylor_gap(g, t, h, 1e-3)
    gap4 = md.taylor_gap(g, t, h, 1e-4)
    slope_const = gap3 / 1e-3
    assert gap4 < 2.0 * slope_const * 1e-4


def test_taylor_decay_exponent():
    rng = np.random.default_rng(7)
    ss = np.array([1e-2, 1e-3, 1e-4])
    for _ in range(5):
        g, t = rng.uniform(0, 2 * math.pi, 2)
        h = rng.normal(size=3)
        h /= np.linalg.norm(h)
        gaps = np.array([md.taylor_gap(g, t, h, s) for s in ss])
        slope = np.polyfit(np.log(ss), np.log(gaps), 1)[0]
        assert slope >= 0.9


def test_corner_system_gap():
    assert md.corner_system_gap(0.0) < 1e-9
    for s in (0.19, 0.5):
        gap = md.corner_system_gap(s)
        assert gap > 0
        # independent 1-D brute force oracle
        tau = np.arange(0.0, math.pi, 1e-5)
        r1, r2 = md.corner_residuals(tau, s)
        worst = np.maximum(r1, r2)
        k = int(np.argmin(worst))
        assert gap == pytest.approx(worst[k], abs=5e-5)
        assert gap > 0.9 * s * math.sin(tau[k])


def test_corner_system_gap_outside_range_raises():
    for s in (math.pi / 4, -math.pi / 4, 1.0):
        with pytest.raises(ValueError):
            md.corner_system_gap(s)


def test_fiber_json():
    sol = md.solve_fiber(1.0, 1.0, 0.05)
    obj = sol.to_json()
    assert obj["gamma"] == 1.0 and len(obj["h"]) == 2


def _sample_grid_by_scan(delta, n):
    """The linear inset scan that sample_grid's bisection replaces."""
    a = 1e-3
    while a < math.pi / 2:
        gam = np.linspace(a, math.pi - a, n)
        the = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        G, T = (x.ravel() for x in np.meshgrid(gam, the, indexing="ij"))
        if float(np.min(pc.corner_dist_chordal(G, T))) >= delta:
            return G, T
        a += 1e-3
    raise ValueError


@settings(max_examples=25)
@given(st.floats(0.005, 0.95), st.integers(1, 40))
def test_sample_grid_bisection_equals_scan(delta, n):
    G, T = md.sample_grid(delta, n)
    G0, T0 = _sample_grid_by_scan(delta, n)
    assert np.array_equal(G, G0) and np.array_equal(T, T0)
