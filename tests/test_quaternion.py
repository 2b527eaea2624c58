import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earring import quaternion as qt

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def random_units(n, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    return qt.normalize(q)


def test_defining_relations():
    assert np.allclose(qt.mul(qt.I, qt.J), qt.K)
    assert np.allclose(qt.mul(qt.I, qt.I), -qt.ONE)
    assert np.allclose(qt.mul(qt.J, qt.K), qt.I)


def test_exp_k_product_identity():
    g, t = 0.7, 1.1
    b = qt.mul(qt.exp_k(g), qt.I)
    f = qt.mul(qt.exp_k(t), qt.I)
    assert np.allclose(qt.mul(b, f), -qt.exp_k(g - t), atol=1e-14)


def test_exp_im_cases():
    assert np.allclose(qt.exp_im(np.zeros(3)), qt.ONE)
    assert np.allclose(qt.exp_im(np.array([0, 0, math.pi / 2])), qt.K, atol=1e-15)
    v = np.array([0.3, -0.4, 0.5])
    v /= np.linalg.norm(v)
    s = 0.37
    assert abs(qt.re(qt.exp_im(s * v)) - math.cos(s)) < 1e-14


def test_exp_im_small_norm_branch():
    v = np.array([1e-10, 0, 0])
    q = qt.exp_im(v)
    assert abs(qt.norm(q) - 1) < 1e-15
    assert np.allclose(qt.im(q), v, atol=1e-20)


def test_exp_inverse():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(100, 3))
    prod = qt.mul(qt.exp_im(v), qt.exp_im(-v))
    assert np.max(np.abs(prod - qt.ONE)) < 1e-12


def test_im_re_conj():
    q = qt.quat(math.cos(0.4), 0, 0, math.sin(0.4))
    assert abs(qt.re(q) - math.cos(0.4)) < 1e-15
    assert np.allclose(qt.conj(qt.I), -qt.I)
    # re(e^{gamma k} i conj(i)) = cos gamma
    g = 0.83
    b = qt.mul(qt.exp_k(g), qt.I)
    assert abs(qt.re(qt.mul(b, qt.conj(qt.I))) - math.cos(g)) < 1e-14


def test_rotate_cases():
    assert np.allclose(qt.rotate(qt.I, qt.K), -qt.K)
    assert np.allclose(qt.rotate(random_units(1)[0], qt.ONE), qt.ONE)
    nu = 0.37
    out = qt.rotate(qt.exp_i(nu), qt.J)
    assert np.allclose(out, math.cos(2 * nu) * qt.J + math.sin(2 * nu) * qt.K,
                       atol=1e-14)


def test_norm_multiplicative_on_units():
    a = random_units(10000, seed=2)
    b = random_units(10000, seed=3)
    assert np.max(np.abs(qt.norm(qt.mul(a, b)) - 1)) < 1e-12


def test_traceless_unit_squares_to_minus_one():
    h = random_units(1000, seed=4)
    h[:, 0] = 0.0
    h = qt.normalize(h)
    sq = qt.mul(h, h)
    assert np.max(np.abs(sq + qt.ONE)) < 1e-11


def test_rotate_preserves_re_and_im_norm():
    g = random_units(10000, seed=5)
    q = np.random.default_rng(6).normal(size=(10000, 4))
    out = qt.rotate(g, q)
    assert np.max(np.abs(qt.re(out) - qt.re(q))) < 1e-12
    n_in = np.linalg.norm(qt.im(q), axis=-1)
    n_out = np.linalg.norm(qt.im(out), axis=-1)
    assert np.max(np.abs(n_in - n_out)) < 1e-11


@settings(max_examples=100, deadline=None)
@given(st.tuples(finite, finite, finite, finite),
       st.tuples(finite, finite, finite, finite))
def test_mul_norm_multiplicative_hypothesis(a, b):
    qa, qb = np.array(a), np.array(b)
    lhs = qt.norm(qt.mul(qa, qb))
    rhs = qt.norm(qa) * qt.norm(qb)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.tuples(finite, finite, finite))
def test_exp_conj_inverse_hypothesis(v):
    v = np.array(v)
    q = qt.exp_im(v)
    assert np.max(np.abs(qt.mul(q, qt.conj(q)) - qt.ONE)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.tuples(finite, finite, finite), st.integers(-40, 1))
def test_exp_im_matches_vector_formula(v, scale):
    # cos|v| + sin|v| v/|v|, with the Taylor branch below |v| = 1e-8
    v = np.array(v) * 10.0 ** scale
    r2 = np.sum(v * v, axis=-1)
    r = np.sqrt(r2)
    if r < 1e-8:
        want = np.concatenate([[1.0 - r2 / 2.0], (1.0 - r2 / 6.0) * v])
    else:
        want = np.concatenate([[np.cos(r)], np.sin(r) / r * v])
    assert np.array_equal(qt.exp_im(v), want)


def test_mul_chain_renormalizes_long_products():
    qs = [random_units(1, seed=k)[0] for k in range(20)]
    out = qt.mul_chain(*qs)
    assert abs(qt.norm(out) - 1) < 1e-12
