import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earring import algebra as al
from earring import correspondence as co
from earring import curves as cv
from earring.pillowcase import TWO_PI

O = al.IDEM_CIRC
D = al.IDEM_DOT


def E(text):
    return al.Element.parse(text)


def identity_element(idem):
    return al.Element([al.ChordWord((), idem)])


def t3_complex():
    return al.TwistedComplex([O, D, D, D],
                             {(0, 1): "S1", (1, 2): "D1", (2, 3): "S2S1"})


def test_mul_examples():
    assert str(al.mul_B(E("S1"), E("S2"))) == "S1S2"
    assert al.mul_B(E("D2"), E("S1")).is_zero()
    assert al.mul_B(E("S1"), E("D1")).is_zero()
    assert str(al.mul_B(identity_element(O), E("D2"))) == "D2"
    assert str(al.mul_B(E("D1"), E("D1"))) == "D1D1"
    assert al.mul_B(E("S1"), E("S1")).is_zero()


def test_word_invariants():
    with pytest.raises(al.AlgebraError):
        al.ChordWord.parse("S1S1")
    with pytest.raises(al.AlgebraError):
        al.ChordWord.parse("D1S1")
    with pytest.raises(al.AlgebraError):
        al.ChordWord.parse("D1D2")
    w = al.ChordWord.parse("S1S2S1")
    assert w.source == O and w.target == D


def test_truncation():
    # products keep words of up to N_MAX = 12 letters and kill longer ones
    assert al.N_MAX == 12
    x = E("S1S2S1S2S1S2")
    assert str(al.mul_B(x, E("S1S2S1S2S1S2"))) == "S1S2S1S2S1S2S1S2S1S2S1S2"
    assert al.mul_B(x, E("S1S2S1S2S1S2S1")).is_zero()
    assert str(al.mul_B(E("D1D1D1D1D1D1"), E("D1D1D1D1D1D1"))) == "D1" * 12
    assert al.mul_B(E("D1" * 7), E("D1" * 6)).is_zero()


def test_associativity_randomized():
    random.seed(3)
    words = al.basis_words(5)
    for _ in range(1000):
        x, y, z = (al.Element([random.choice(words)]) for _ in range(3))
        assert al.mul_B(al.mul_B(x, y), z) == al.mul_B(x, al.mul_B(y, z))


def test_h_centrality_to_length_10():
    assert al.h_is_central(10)


def test_mc_check_examples():
    single = al.TwistedComplex([D], {})
    assert al.mc_check(single) == (True, None)
    assert al.mc_check(t3_complex()) == (True, None)
    # a deliberately inconsistent square: S1 then S2 compose to S1S2 != 0
    bad = al.TwistedComplex([O, D, O], {(0, 1): "S1", (1, 2): "S2"})
    ok, entry = al.mc_check(bad)
    assert not ok and entry == (0, 2)


def test_functor_ii_single_generators():
    out = al.functor_II(al.TwistedComplex([D], {}))
    assert out.idems == [D, D]
    assert str(out.entry(0, 1)) in ("D1+S2S1", "S2S1+D1")
    out = al.functor_II(al.TwistedComplex([O], {}))
    assert str(out.entry(0, 1)) in ("D2+S1S2", "S1S2+D2")


def test_functor_ii_preserves_mc():
    out = al.functor_II(t3_complex())
    assert out.n_gens() == 8
    assert al.mc_check(out) == (True, None)


def test_reduce_cancels_identity_pair():
    cx = al.TwistedComplex([D, D], {(0, 1): "id*"})
    assert al.reduce(cx).n_gens() == 0


def test_reduce_t3_matches_basis_change():
    reduced = al.reduce(al.functor_II(t3_complex()))
    expected = al.TwistedComplex(
        [O, D, D, D, O, D, D, D],
        {(0, 1): "S1", (1, 2): "D1", (2, 3): "S2S1", (0, 4): "D2",
         (4, 5): "S1", (5, 6): "D1", (6, 7): "S2S1", (3, 7): "D1"})
    assert reduced.same_as(expected)
    assert al.mc_check(reduced) == (True, None)


def test_reduce_idempotent():
    once = al.reduce(al.functor_II(t3_complex()))
    assert al.reduce(once).same_as(once)


def test_zigzag_updates_through_cancellation():
    # cancelling the id arrow g2 -> g3 composes the surrounding entries:
    # d(g1, g4) += d(g1, g3) d(g2, g4) = D1 * D1
    cx = al.TwistedComplex([D, D, D, D],
                           {(1, 2): "id*", (0, 2): "D1", (1, 3): "D1"})
    assert al.mc_check(cx)[0]
    out = al.reduce(cx)
    assert out.n_gens() == 2
    assert str(out.entry(0, 1)) == "D1D1"
    assert al.mc_check(out)[0]


BASIS = al.basis_words(3)


@st.composite
def twisted_complexes(draw):
    """Strictly upper-triangular complexes with entries of at most two words of length <= 3."""
    n = draw(st.integers(2, 5))
    idems = draw(st.lists(st.sampled_from([O, D]), min_size=n, max_size=n))
    diff = {}
    for i in range(n):
        for j in range(i + 1, n):
            fits = [w for w in BASIS if w.source == idems[i]
                    and (w.idem if w.is_identity() else w.target) == idems[j]]
            words = draw(st.lists(st.sampled_from(fits), max_size=2))
            if words:
                diff[(i, j)] = al.Element(words)
    return al.TwistedComplex(idems, diff)


@settings(max_examples=200)
@given(twisted_complexes().filter(lambda cx: al.mc_check(cx)[0]))
def test_reduce_keeps_mc_and_is_idempotent(cx):
    out = al.reduce(cx)
    assert al.mc_check(out) == (True, None)
    assert al.reduce(out).same_as(out)


def test_reduce_keeps_id_arrow_that_would_break_the_filtration():
    # cancelling g1 -> g5 would add g4 -> g3 = (S2 + S2S1S2) S1S2S1 against g3 -> g4
    cx = al.TwistedComplex.from_text(
        "gen g1 o\ngen g2 o\ngen g3 *\ngen g4 *\ngen g5 o\n"
        "g1 -> g3 : S1S2S1\ng1 -> g5 : D2D2+ido\ng2 -> g5 : D2\n"
        "g3 -> g4 : D1+D1D1D1\ng4 -> g5 : S2+S2S1S2\n")
    assert al.mc_check(cx)[0]
    out = al.reduce(cx)
    assert out.n_gens() == 5 and str(out.entry(0, 4)) == "ido"
    assert al.mc_check(out) == (True, None)
    assert al.reduce(out).same_as(out)


def _left_quotient_ref(w, suffix, src, mid):
    """u with u * suffix = w, u: src -> mid; None if no such basis word."""
    ls, lw = suffix.letters, w.letters
    if suffix.is_identity() or len(ls) > len(lw):
        return None
    if lw[len(lw) - len(ls):] != ls:
        return None
    head = lw[: len(lw) - len(ls)]
    u = al.ChordWord(head, mid if not head else None)
    if u.source != src or u.target != mid:
        return None
    return u


def _right_quotient_ref(w, prefix, mid, tgt):
    """u with prefix * u = w, u: mid -> tgt; None if no such basis word."""
    lp, lw = prefix.letters, w.letters
    if prefix.is_identity() or len(lp) > len(lw):
        return None
    if lw[: len(lp)] != lp:
        return None
    tail = lw[len(lp):]
    u = al.ChordWord(tail, mid if not tail else None)
    if u.source != mid or u.target != tgt:
        return None
    return u


def _candidate_changes_ref(cx):
    """Reference for al._candidate_changes: one loop per factorization side."""
    seen = set()
    for (i, k), e in cx.diff.items():
        for w in e.words:
            for (l, kk), e2 in cx.diff.items():
                if kk == k and l != i:
                    for w2 in e2.words:
                        u = _left_quotient_ref(w, w2, cx.idems[i], cx.idems[l])
                        if u is not None and i < l and (i, l, u) not in seen:
                            seen.add((i, l, u))
                            yield i, l, al.Element([u])
            for (ii, g), e2 in cx.diff.items():
                if ii == i and g != k:
                    for w2 in e2.words:
                        u = _right_quotient_ref(w, w2, cx.idems[g], cx.idems[k])
                        if u is not None and g < k and (g, k, u) not in seen:
                            seen.add((g, k, u))
                            yield g, k, al.Element([u])


def _apply_base_change_ref(cx, j, l, u):
    """Reference for al._apply_base_change: the E D, D E and E D E blocks."""
    n = cx.n_gens()
    diff = dict(cx.diff)
    for k in range(n):
        b = cx.diff.get((l, k))
        if b is not None:
            add = al.mul_B(u, b)
            if not add.is_zero():
                diff[(j, k)] = diff.get((j, k), al.Element()) + add
    for g in range(n):
        a = cx.diff.get((g, j))
        if a is not None:
            add = al.mul_B(a, u)
            if not add.is_zero():
                diff[(g, l)] = diff.get((g, l), al.Element()) + add
    b = cx.diff.get((l, j))
    if b is not None:
        add = al.mul_B(al.mul_B(u, b), u)
        if not add.is_zero():
            diff[(j, l)] = diff.get((j, l), al.Element()) + add
    diff = {k: v for k, v in diff.items() if not v.is_zero()}
    return al.TwistedComplex(list(cx.idems), diff, list(cx.labels))


@settings(max_examples=200)
@given(twisted_complexes(), st.data())
def test_base_changes_equal_the_quotient_reference(cx, data):
    # the same candidates in the same order, and each base change gives the
    # same entries in the same order, since reduce keeps the first best one
    cands = list(al._candidate_changes(cx))
    assert cands == list(_candidate_changes_ref(cx))
    j, l = sorted(data.draw(st.lists(st.integers(0, cx.n_gens() - 1), min_size=2, max_size=2,
                                     unique=True)))
    fits = [w for w in BASIS if w.source == cx.idems[j] and w.target == cx.idems[l]]
    for j, l, u in cands + [(j, l, al.Element([data.draw(st.sampled_from(fits))]))]:
        out, ref = al._apply_base_change(cx, j, l, u), _apply_base_change_ref(cx, j, l, u)
        assert list(out.diff.items()) == list(ref.diff.items())


@st.composite
def motif_chains(draw):
    """Chains of 2-5 generators whose arrows are chord-motif words, with d^2 = 0.

    For a chain, d^2 = 0 says exactly that consecutive arrows multiply to zero.
    """
    idems, words = [draw(st.sampled_from([O, D]))], []
    for _ in range(draw(st.integers(1, 4))):
        nxt = [(b, w) for (a, b, _, _), w in sorted(al._WORD_BY_MOTIF.items())
               if a == idems[-1] and (not words or al.mul_B(E(words[-1]), E(w)).is_zero())]
        b, w = draw(st.sampled_from(nxt))
        idems.append(b)
        words.append(w)
    return al.TwistedComplex(idems, {(k, k + 1): w for k, w in enumerate(words)})


@settings(max_examples=100)
@given(motif_chains())
def test_chain_curve_round_trip(cx):
    assert al.mc_check(cx) == (True, None)
    assert al.curve_to_complex(al.complex_to_curve(cx)).same_as(cx)


def test_crossing_through_a_sample_is_read_once():
    # the chord from the first D1D1 wrap to the second S2S1 wrap passes
    # through a sample exactly on the line theta = 0
    cx = al.TwistedComplex([D] * 5, {(0, 1): "S2S1", (1, 2): "D1D1", (2, 3): "S2S1",
                                     (3, 4): "D1D1"})
    curve = al.complex_to_curve(cx)
    assert 0.0 in curve.samples[1:-1, 1]
    assert _same_crossings(curve.samples)
    assert al.curve_to_complex(curve).same_as(cx)


def _template_crossings_loop(samples):
    """Reference for al._template_crossings: segment by segment, line by line."""
    out = []
    for k in range(len(samples) - 1):
        p, q = samples[k], samples[k + 1]
        for m in range(int(math.floor(min(p[1], q[1]) / TWO_PI)),
                       int(math.ceil(max(p[1], q[1]) / TWO_PI)) + 1):
            y = m * TWO_PI
            if (p[1] < y) != (q[1] < y):
                t = (y - p[1]) / (q[1] - p[1])
                x = p[0] + t * (q[0] - p[0])
                out.append((k + t, D, np.array([x, y])))
        for m in range(int(math.floor((min(p[0], q[0]) - math.pi) / TWO_PI)),
                       int(math.ceil((max(p[0], q[0]) - math.pi) / TWO_PI)) + 1):
            x = math.pi + m * TWO_PI
            if (p[0] < x) != (q[0] < x):
                t = (x - p[0]) / (q[0] - p[0])
                y = p[1] + t * (q[1] - p[1])
                out.append((k + t, O, np.array([x, y])))
    return sorted(out, key=lambda z: z[0])


def _same_crossings(samples):
    new, ref = al._template_crossings(samples), _template_crossings_loop(samples)
    return (len(new) == len(ref)
            and all(a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])
                    for a, b in zip(new, ref)))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 80), st.sampled_from([0.05, 0.5, 3.0, 10.0]), st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 79), st.sampled_from(["theta", "gamma", "corner"]),
                          st.integers(-3, 3)), max_size=10))
def test_template_crossings_equal_the_loop(n, step, seed, planted):
    # random walks with samples planted exactly on theta = 2 pi m,
    # gamma = pi + 2 pi m and on both (a corner lift), next to each other too
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-7, 7, 2) + np.cumsum(rng.normal(scale=step, size=(n, 2)), axis=0)
    for k, line, m in planted:
        if line != "gamma":
            samples[k % n, 1] = m * TWO_PI
        if line != "theta":
            samples[k % n, 0] = math.pi + m * TWO_PI
    assert _same_crossings(samples)


def test_complex_text_and_json_roundtrip():
    cx = t3_complex()
    assert al.TwistedComplex.from_text(cx.to_text()).same_as(cx)
    assert al.TwistedComplex.from_json(cx.to_json()).same_as(cx)


def test_text_parse_error_reports_line():
    with pytest.raises(al.AlgebraError, match="line 2"):
        al.TwistedComplex.from_text("gen g1 *\nnonsense here\n")


def test_dictionary_roundtrips():
    for cx in (t3_complex(),
               al.TwistedComplex([D], {}),
               al.TwistedComplex([O], {}),
               al.TwistedComplex([D, D], {(0, 1): "D1"}),
               al.TwistedComplex([D, D], {(0, 1): "D1+S2S1"}),
               al.TwistedComplex([O, O], {(0, 1): "D2+S1S2"})):
        curve = al.complex_to_curve(cx)
        assert _same_crossings(curve.samples)
        back = al.curve_to_complex(curve)
        assert back.same_as(cx), f"round trip failed for {cx.to_text()}"


def test_slope_third_line_reads_as_t3():
    line = cv.line_arc((0, 0), (3 * math.pi, math.pi), n=257)
    assert al.curve_to_complex(line).same_as(t3_complex())


def test_t3_curve_is_an_arc_with_matching_corners():
    curve = al.complex_to_curve(t3_complex())
    assert curve.kind == "arc"
    assert set(curve.corners) == {0, 3}


def test_fig8_complex_realizes_vdelta_fig8():
    cx = al.TwistedComplex([D, D], {(0, 1): "D1+S2S1"})
    curve = al.complex_to_curve(cx)
    assert curve.kind == "loop"


def test_nonbasis_entry_rejected_for_realization():
    cx = al.TwistedComplex([D, D], {(0, 1): "D1+D1D1"})
    with pytest.raises(al.UnsupportedArrow):
        al.complex_to_curve(cx)


def test_top_left_corner_hit():
    with pytest.raises(al.TopLeftCornerHit):
        al.curve_to_complex(cv.line_arc((0, 0), (0, math.pi)))


def test_pipeline_agreement_on_bottom_arc():
    # geometric and algebraic earring actions agree on the template arc
    host = al._arc_for_idem(D).resampled(0.01)
    left = al.curve_to_complex(co.model_map_vdelta(host, 0.5).components[0])
    start = al.curve_to_complex(al._pushoff(al._arc_for_idem(D)))
    right = al.reduce(al.functor_II(start))
    assert left.same_as(right)
