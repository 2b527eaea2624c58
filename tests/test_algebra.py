import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earring import algebra as al
from earring import correspondence as co
from earring import curves as cv

O = al.IDEM_CIRC
D = al.IDEM_DOT


def E(text):
    return al.Element.parse(text)


def identity_element(idem, n_max=al.N_MAX_DEFAULT):
    return al.Element([al.ChordWord((), idem)], n_max)


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
    x = al.Element(["S1S2S1S2S1S2"], n_max=8)
    y = al.Element(["S1S2S1"], n_max=8)
    assert al.mul_B(x, y, n_max=8).is_zero()


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
    assert al.curve_to_complex(curve).same_as(cx)


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
