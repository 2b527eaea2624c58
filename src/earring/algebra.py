"""The quiver algebra of the two parametrizing arcs and twisted complexes over it.

The algebra is generated over F_2 by chords S1 (a° -> a•), S2 (a• -> a°),
D1 (loop at a•), D2 (loop at a°) modulo D_j S_i = 0 = S_i D_j, with the two
length-zero idempotents id°, id•.  Words compose by concatenation read left
to right, so the basis consists of alternating S-words and powers of a single
D letter.  Twisted complexes are generator lists with a strictly triangular
F_2 differential matrix squaring to zero (the Maurer-Cartan condition with
only the associative product present).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import curves as cv
from .curves import Curve
from .pillowcase import TWO_PI

N_MAX_DEFAULT = 12

IDEM_CIRC = "o"     # a-circle:  right edge of the fundamental square
IDEM_DOT = "*"      # a-bullet:  bottom edge


class AlgebraError(ValueError):
    pass


class NonCancellable(RuntimeError):
    pass


class UnsupportedArrow(ValueError):
    pass


class TopLeftCornerHit(ValueError):
    pass


# ---------------------------------------------------------------------------
# Chord words

_SOURCE = {"S1": IDEM_CIRC, "S2": IDEM_DOT, "D1": IDEM_DOT, "D2": IDEM_CIRC}
_TARGET = {"S1": IDEM_DOT, "S2": IDEM_CIRC, "D1": IDEM_DOT, "D2": IDEM_CIRC}


def _parse_word(text):
    """'S1S2S1' -> ('S1','S2','S1'); 'id*' and 'ido' are the idempotents."""
    text = text.strip()
    if text in ("id" + IDEM_CIRC, "id" + IDEM_DOT):
        return (), text[-1]
    letters = tuple(re.findall(r"[SD][12]", text))
    if "".join(letters) != text:
        raise AlgebraError(f"cannot parse chord word {text!r}")
    return letters, None


class ChordWord:
    """An idempotent-decorated basis word of the quiver algebra."""

    __slots__ = ("letters", "idem")

    def __init__(self, letters, idem=None):
        letters = tuple(letters)
        if not letters:
            if idem not in (IDEM_CIRC, IDEM_DOT):
                raise AlgebraError("a length-zero word needs an idempotent")
        else:
            for a, b in zip(letters, letters[1:]):
                if not _composable(a, b):
                    raise AlgebraError(f"invalid chord word {''.join(letters)}")
            idem = None
        self.letters = letters
        self.idem = idem

    @staticmethod
    def parse(text):
        letters, idem = _parse_word(text)
        return ChordWord(letters, idem)

    @property
    def source(self):
        return self.idem if not self.letters else _SOURCE[self.letters[0]]

    @property
    def target(self):
        return self.idem if not self.letters else _TARGET[self.letters[-1]]

    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (self.letters, self.idem) == (other.letters, other.idem)

    def __hash__(self):
        return hash((self.letters, self.idem))

    def __repr__(self):
        return str(self)

    def __str__(self):
        if not self.letters:
            return "id" + self.idem
        return "".join(self.letters)


def _composable(a, b):
    """Letter b may follow letter a: target matches source and no dead pair."""
    if _TARGET[a] != _SOURCE[b]:
        return False
    if a[0] == "D" and b[0] == "S":
        return False
    if a[0] == "S" and b[0] == "D":
        return False
    if a[0] == "S" and b[0] == "S" and a == b:
        return False
    if a[0] == "D" and b[0] == "D" and a != b:
        return False
    return True


def word_mul(w1, w2, n_max=N_MAX_DEFAULT):
    """Concatenation product of two basis words; None when it dies."""
    if w1.is_identity():
        return w2 if w2.source == w1.idem else None
    if w2.is_identity():
        return w1 if w1.target == w2.idem else None
    if w1.target != w2.source:
        return None
    if not _composable(w1.letters[-1], w2.letters[0]):
        return None
    letters = w1.letters + w2.letters
    if len(letters) > n_max:
        return None
    return ChordWord(letters)


class Element:
    """F_2 linear combination of chord words, truncated at n_max letters."""

    def __init__(self, words=(), n_max=N_MAX_DEFAULT):
        self.n_max = n_max
        ws = set()
        for w in words:
            if isinstance(w, str):
                w = ChordWord.parse(w)
            if w in ws:
                ws.discard(w)      # F_2 cancellation
            else:
                ws.add(w)
        self.words = frozenset(ws)

    @staticmethod
    def parse(text, n_max=N_MAX_DEFAULT):
        text = text.strip()
        if text in ("0", ""):
            return Element((), n_max)
        return Element([p.strip() for p in text.split("+")], n_max)

    def is_zero(self):
        return not self.words

    def __add__(self, other):
        return Element(list(self.words) + list(other.words), self.n_max)

    def __eq__(self, other):
        return self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def __str__(self):
        if not self.words:
            return "0"
        return "+".join(sorted(str(w) for w in self.words))

    def __repr__(self):
        return str(self)


def mul_B(x, y, n_max=None):
    """Product in the quiver algebra: concatenate each word pair over F_2."""
    n_max = n_max if n_max is not None else min(x.n_max, y.n_max)
    out = []
    for w1 in x.words:
        for w2 in y.words:
            w = word_mul(w1, w2, n_max)
            if w is not None:
                out.append(w)
    return Element(out, n_max)


def identity_element(idem, n_max=N_MAX_DEFAULT):
    return Element([ChordWord((), idem)], n_max)


def central_element(n_max=N_MAX_DEFAULT):
    """H = D1 + D2 + S1S2 + S2S1, central up to truncation."""
    return Element(["D1", "D2", "S1S2", "S2S1"], n_max)


def h_central_component(idem, n_max=N_MAX_DEFAULT):
    """The component of H at one idempotent: H id° = D2+S1S2, H id• = D1+S2S1."""
    if idem == IDEM_CIRC:
        return Element(["D2", "S1S2"], n_max)
    return Element(["D1", "S2S1"], n_max)


def basis_words(max_len, n_max=N_MAX_DEFAULT):
    """All basis words of length <= max_len."""
    out = [ChordWord((), IDEM_CIRC), ChordWord((), IDEM_DOT)]
    frontier = [ChordWord((x,)) for x in ("S1", "S2", "D1", "D2")]
    out += frontier
    for _ in range(max_len - 1):
        new = []
        for w in frontier:
            for x in ("S1", "S2", "D1", "D2"):
                ww = word_mul(w, ChordWord((x,)), n_max=max(max_len, n_max))
                if ww is not None and len(ww) <= max_len:
                    new.append(ww)
        out += new
        frontier = new
    return out


# ---------------------------------------------------------------------------
# Twisted complexes


@dataclass
class TwistedComplex:
    """Generators with idempotents and a strictly triangular F_2 differential.

    The differential is a dict (i, j) -> Element with i < j in the filtration
    order (list position), entries from generator i's idempotent to j's.
    """

    idems: list                                   # idempotent per generator
    diff: dict = field(default_factory=dict)      # (i, j) -> Element
    labels: list | None = None
    n_max: int = N_MAX_DEFAULT

    def __post_init__(self):
        if self.labels is None:
            self.labels = [f"g{k+1}" for k in range(len(self.idems))]
        for (i, j), e in list(self.diff.items()):
            if isinstance(e, str):
                e = Element.parse(e, self.n_max)
                self.diff[(i, j)] = e
            if e.is_zero():
                del self.diff[(i, j)]
                continue
            if not (0 <= i < j < len(self.idems)):
                raise AlgebraError(f"arrow ({i},{j}) breaks strict triangularity")
            for w in e.words:
                if w.source != self.idems[i] or (w.target != self.idems[j]
                                                 if not w.is_identity()
                                                 else w.idem != self.idems[j]):
                    raise AlgebraError(
                        f"arrow {w} has wrong idempotents for ({i},{j})")

    def n_gens(self):
        return len(self.idems)

    def entry(self, i, j):
        return self.diff.get((i, j), Element((), self.n_max))

    def arrows(self):
        return sorted(self.diff.items())

    def copy(self):
        return TwistedComplex(list(self.idems), dict(self.diff),
                              list(self.labels), self.n_max)

    # -- serialization

    def to_text(self):
        lines = [f"gen {lbl} {idm}" for lbl, idm in zip(self.labels, self.idems)]
        for (i, j), e in self.arrows():
            lines.append(f"{self.labels[i]} -> {self.labels[j]} : {e}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text, n_max=N_MAX_DEFAULT):
        idems, labels, diff = [], [], {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if line.startswith("gen "):
                parts = line.split()
                if len(parts) != 3 or parts[2] not in (IDEM_CIRC, IDEM_DOT):
                    raise AlgebraError(f"line {lineno}: bad generator {raw!r}")
                labels.append(parts[1])
                idems.append(parts[2])
            else:
                m = re.match(r"^(\S+)\s*->\s*(\S+)\s*:\s*(.+)$", line)
                if not m:
                    raise AlgebraError(f"line {lineno}: cannot parse {raw!r}")
                try:
                    i = labels.index(m.group(1))
                    j = labels.index(m.group(2))
                except ValueError as exc:
                    raise AlgebraError(f"line {lineno}: unknown generator") from exc
                diff[(i, j)] = Element.parse(m.group(3), n_max)
        return TwistedComplex(idems, diff, labels, n_max)

    def to_json(self):
        return {
            "generators": [{"name": l, "idempotent": i}
                           for l, i in zip(self.labels, self.idems)],
            "arrows": [{"from": self.labels[i], "to": self.labels[j],
                        "word": str(e)} for (i, j), e in self.arrows()],
        }

    @staticmethod
    def from_json(obj, n_max=N_MAX_DEFAULT):
        labels = [g["name"] for g in obj["generators"]]
        idems = [g["idempotent"] for g in obj["generators"]]
        diff = {}
        for a in obj["arrows"]:
            i, j = labels.index(a["from"]), labels.index(a["to"])
            diff[(i, j)] = Element.parse(a["word"], n_max)
        return TwistedComplex(idems, diff, labels, n_max)

    def same_as(self, other):
        """Equality up to generator relabeling (order and arrows must agree)."""
        return (self.idems == other.idems
                and {k: v for k, v in self.diff.items()}
                == {k: v for k, v in other.diff.items()})


def mc_check(cx):
    """Maurer-Cartan: the differential matrix squares to zero over F_2.

    Returns (True, None) or (False, (i, k)) with the first offending entry.
    """
    n = cx.n_gens()
    for i in range(n):
        for k in range(n):
            acc = Element((), cx.n_max)
            for j in range(n):
                a = cx.diff.get((i, j))
                b = cx.diff.get((j, k))
                if a is not None and b is not None:
                    acc = acc + mul_B(a, b, cx.n_max)
            if not acc.is_zero():
                return False, (i, k)
    return True, None


def functor_II(cx):
    """The mapping cone [N -> H id -> N] on a twisted complex.

    Generators are doubled (the cone copy after the original), and the
    connecting arrows are the components of the central element: D2 + S1S2
    at a°-generators and D1 + S2S1 at a•-generators.
    """
    ok, bad = mc_check(cx)
    if not ok:
        raise AlgebraError(f"input fails the Maurer-Cartan condition at {bad}")
    n = cx.n_gens()
    idems = list(cx.idems) + list(cx.idems)
    labels = [l + "_a" for l in cx.labels] + [l + "_b" for l in cx.labels]
    diff = {}
    for (i, j), e in cx.diff.items():
        diff[(i, j)] = e
        diff[(i + n, j + n)] = e
    for i, idm in enumerate(cx.idems):
        diff[(i, i + n)] = h_central_component(idm, cx.n_max)
    return TwistedComplex(idems, diff, labels, cx.n_max)


# ---------------------------------------------------------------------------
# Reduction: id-arrow cancellation plus base-change simplification


def _cancel_id_arrow(cx, i, j):
    """Standard cancellation of an identity arrow i -> j.

    Removes both generators; arrows into the cancelled target compose with
    arrows out of the cancelled source: d(g, h) += d(g, j) d(i, h).
    """
    if not (i < j):
        raise NonCancellable(f"id arrow ({i},{j}) violates the filtration")
    n = cx.n_gens()
    new_diff = {}
    for g in range(n):
        for h in range(n):
            if g in (i, j) or h in (i, j):
                continue
            e = cx.entry(g, h)
            a = cx.diff.get((g, j))
            b = cx.diff.get((i, h))
            if a is not None and b is not None:
                e = e + mul_B(a, b, cx.n_max)
            if not e.is_zero():
                if not (g < h):
                    raise NonCancellable(
                        f"cancelling ({i},{j}) creates arrow ({g},{h}) "
                        "against the filtration")
                new_diff[(g, h)] = e
    keep = [k for k in range(n) if k not in (i, j)]
    remap = {k: p for p, k in enumerate(keep)}
    return TwistedComplex(
        [cx.idems[k] for k in keep],
        {(remap[g], remap[h]): e for (g, h), e in new_diff.items()},
        [cx.labels[k] for k in keep],
        cx.n_max)


def _apply_base_change(cx, j, l, u):
    """Unitriangular base change g_j -> g_j + u g_l (j < l), D -> (1+E) D (1+E)."""
    n = cx.n_gens()
    diff = {k: v for k, v in cx.diff.items()}
    # E D: row j gains u * D[l][k]
    for k in range(n):
        b = cx.diff.get((l, k))
        if b is not None:
            add = mul_B(u, b, cx.n_max)
            if not add.is_zero():
                diff[(j, k)] = diff.get((j, k), Element((), cx.n_max)) + add
    # D E: column l gains D[g][j] * u
    for g in range(n):
        a = cx.diff.get((g, j))
        if a is not None:
            add = mul_B(a, u, cx.n_max)
            if not add.is_zero():
                diff[(g, l)] = diff.get((g, l), Element((), cx.n_max)) + add
    # E D E: row j, column l
    b = cx.diff.get((l, j))
    if b is not None:
        add = mul_B(mul_B(u, b, cx.n_max), u, cx.n_max)
        if not add.is_zero():
            diff[(j, l)] = diff.get((j, l), Element((), cx.n_max)) + add
    diff = {k: v for k, v in diff.items() if not v.is_zero()}
    return TwistedComplex(list(cx.idems), diff, list(cx.labels), cx.n_max)


def _term_count(cx):
    return sum(len(e.words) for e in cx.diff.values())


def _candidate_changes(cx):
    """Elementary base changes that could cancel a composite term.

    For every multi-term entry and every factorization of one of its words
    through an existing single arrow, propose the complementary factor.
    """
    seen = set()
    for (i, k), e in cx.diff.items():
        for w in e.words:
            # suffix factorization w = u * (word of D[l][k])
            for (l, kk), e2 in cx.diff.items():
                if kk == k and l != i:
                    for w2 in e2.words:
                        u = _left_quotient(w, w2, cx.idems[i], cx.idems[l])
                        if u is not None and i < l:
                            key = (i, l, u)
                            if key not in seen:
                                seen.add(key)
                                yield i, l, Element([u], cx.n_max)
            # prefix factorization w = (word of D[i][g]) * u
            for (ii, g), e2 in cx.diff.items():
                if ii == i and g != k:
                    for w2 in e2.words:
                        u = _right_quotient(w, w2, cx.idems[g], cx.idems[k])
                        if u is not None and g < k:
                            key = (g, k, u)
                            if key not in seen:
                                seen.add(key)
                                yield g, k, Element([u], cx.n_max)


def _left_quotient(w, suffix, src, mid):
    """u with u * suffix = w, u: src -> mid; None if no such basis word."""
    ls, lw = suffix.letters, w.letters
    if suffix.is_identity() or len(ls) > len(lw):
        return None
    if lw[len(lw) - len(ls):] != ls:
        return None
    head = lw[: len(lw) - len(ls)]
    u = ChordWord(head, mid if not head else None)
    if u.source != src or u.target != mid:
        return None
    return u


def _right_quotient(w, prefix, mid, tgt):
    """u with prefix * u = w, u: mid -> tgt; None if no such basis word."""
    lp, lw = prefix.letters, w.letters
    if prefix.is_identity() or len(lp) > len(lw):
        return None
    if lw[: len(lp)] != lp:
        return None
    tail = lw[len(lp):]
    u = ChordWord(tail, mid if not tail else None)
    if u.source != mid or u.target != tgt:
        return None
    return u


def reduce(cx):
    """Cancel identity arrows and strip redundant composite terms.

    Alternates (1) Gaussian cancellation of id-entries and (2) greedy
    unitriangular base changes that strictly decrease the total number of
    words in the differential, until a fixpoint; homotopy type is preserved
    by both moves.
    """
    ok, bad = mc_check(cx)
    if not ok:
        raise AlgebraError(f"input fails the Maurer-Cartan condition at {bad}")
    cx = cx.copy()
    changed = True
    while changed:
        changed = False
        # pass 1: cancel an identity arrow
        found = None
        for (i, j), e in sorted(cx.diff.items()):
            if any(w.is_identity() for w in e.words):
                found = (i, j)
                break
        if found is not None:
            cx = _cancel_id_arrow(cx, *found)
            changed = True
            continue
        # pass 2: a base change strictly reducing the term count
        best = None
        count = _term_count(cx)
        for j, l, u in _candidate_changes(cx):
            trial = _apply_base_change(cx, j, l, u)
            if _term_count(trial) < count:
                best = trial
                count = _term_count(trial)
        if best is not None:
            cx = best
            changed = True
    return cx


def h_is_central(max_len=10, n_max=N_MAX_DEFAULT + 2):
    """Verify H w = w H for all basis words of length <= max_len."""
    H = central_element(n_max)
    for w in basis_words(max_len, n_max):
        e = Element([w], n_max)
        if mul_B(H, e, n_max) != mul_B(e, H, n_max):
            return False
    return True


# ---------------------------------------------------------------------------
# The curve dictionary

# Template geometry: a• is the bottom edge (corner 0 to corner 2) whose lifts
# are the lines theta = 0 mod 2 pi; a° is the right edge (corner 2 to corner
# 3) with lifts gamma = pi mod 2 pi.  S-chords wrap the shared corner 2, D1
# wraps corner 0, D2 wraps corner 3, always counterclockwise.  The top-left
# corner (0, pi) is the excluded one.

_PI = math.pi

_MOTIF_CORNER = {"S1": 2, "S2": 2, "D1": 0, "D2": 3}
_ARC_ENDS = {IDEM_DOT: (0, 2), IDEM_CIRC: (2, 3)}

_WRAP_RADIUS = 0.33
_OFFSET = 0.05


def _letter_sweep(letter):
    return 0.5 * math.pi if letter[0] == "S" else math.pi


def _word_sweep(w):
    return sum(_letter_sweep(x) for x in w.letters)


def _corner_class_of_lift(pt):
    g, t = (np.asarray(pt) / _PI).round().astype(int) % 2
    return {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[(int(g), int(t))]


def _rot(v, ang):
    c, s = math.cos(ang), math.sin(ang)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _validate_chain(cx):
    for (i, j), e in cx.diff.items():
        if len(e.words) != 1:
            raise UnsupportedArrow(f"entry {e} at ({i},{j}) is not a basis word")
        w = next(iter(e.words))
        if w.is_identity() or len(w) > 2:
            raise UnsupportedArrow(f"entry {w} is not a 1- or 2-letter word")
        if j != i + 1:
            raise UnsupportedArrow("only chain complexes are realized")
    for i in range(cx.n_gens() - 1):
        if (i, i + 1) not in cx.diff:
            raise UnsupportedArrow("chain has a missing arrow")


def realize_chain(cx):
    """Normal-position PL arc realizing a chain complex of basis words.

    Each arrow becomes a counterclockwise wrap of its corner lift at radius
    ~ _WRAP_RADIUS, entered and left a small angle past the nominal rays;
    the connecting chords then cross the template lift lines exactly once
    between consecutive wraps, and those crossings are the generators.
    """
    _validate_chain(cx)
    n = cx.n_gens()
    if n < 2:
        raise UnsupportedArrow("realize_chain needs at least one arrow")
    eps_ang = _OFFSET / _WRAP_RADIUS

    # arc lifts: (corner lift at the wrap end, unit direction along the lift)
    base = np.array([0.0, 0.0]) if cx.idems[0] == IDEM_DOT else np.array([_PI, 0.0])
    dirn = np.array([1.0, 0.0]) if cx.idems[0] == IDEM_DOT else np.array([0.0, 1.0])
    w0 = next(iter(cx.entry(0, 1).words))
    c0_class = _MOTIF_CORNER[w0.letters[0]]
    ends0 = [base, base + _PI * dirn]
    classes0 = [_corner_class_of_lift(e) for e in ends0]
    if c0_class not in classes0:
        raise UnsupportedArrow(f"first arrow {w0} does not act on the first arc")
    c_hat = ends0[classes0.index(c0_class)]
    free_start = ends0[1 - classes0.index(c0_class)]

    # walk the chain: record each wrap (center, in-ray angle, sweep)
    wraps = []
    centers = [c_hat]
    ray_in = (free_start - c_hat) / _PI
    for k in range(n - 1):
        w = next(iter(cx.entry(k, k + 1).words))
        if _MOTIF_CORNER[w.letters[0]] != _corner_class_of_lift(centers[-1]):
            raise UnsupportedArrow(
                f"arrow {w} wraps the wrong corner class at step {k}")
        sweep = _word_sweep(w)
        wraps.append((centers[-1].copy(), math.atan2(ray_in[1], ray_in[0]), sweep))
        out_dir = _rot(ray_in, sweep)
        # the next wrap sits at the far end of the new lift
        far = centers[-1] + _PI * out_dir
        ends = {_corner_class_of_lift(centers[-1]), _corner_class_of_lift(far)}
        if ends != set(_ARC_ENDS[cx.idems[k + 1]]):
            raise UnsupportedArrow(
                f"arrow {w} does not land on the {cx.idems[k+1]} arc")
        if k < n - 2:
            w_next = next(iter(cx.entry(k + 1, k + 2).words))
            target_class = _MOTIF_CORNER[w_next.letters[0]]
            if _corner_class_of_lift(far) == target_class:
                centers.append(far)
                ray_in = -out_dir
            elif _corner_class_of_lift(centers[-1]) == target_class:
                # consecutive wraps at the same corner lift
                centers.append(centers[-1].copy())
                ray_in = out_dir
            else:
                raise UnsupportedArrow(
                    f"arrow {w_next} wraps a corner not adjacent to its arc")
        else:
            free_final = far

    def wrap_points(center, a_in, sweep):
        ang0 = a_in + eps_ang
        ts = np.linspace(0.0, 1.0, max(24, int(sweep / 0.08)))
        ang = ang0 + sweep * ts
        rad = _WRAP_RADIUS * (1.0 - 0.25 * np.sin(math.pi * ts))
        return center + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    pieces = [np.asarray([free_start])]
    # jog so the opening segment crosses the first lift line once
    c, a_in, sweep = wraps[0]
    entry = wrap_points(c, a_in, sweep)[0]
    line_dir = _rot(np.array([math.cos(a_in), math.sin(a_in)]), 0.0)
    nrm = np.array([-line_dir[1], line_dir[0]])
    side_entry = math.copysign(1.0, float(np.dot(entry - c, nrm)))
    jog = 0.5 * (free_start + c) - side_entry * _OFFSET * nrm
    pieces.append(np.asarray([jog]))
    for k, (c, a_in, sweep) in enumerate(wraps):
        pieces.append(wrap_points(c, a_in, sweep))
    # closing jog for the last generator crossing
    c, a_in, sweep = wraps[-1]
    exit_pt = pieces[-1][-1]
    out_dir = _rot(np.array([math.cos(a_in), math.sin(a_in)]), sweep)
    nrm = np.array([-out_dir[1], out_dir[0]])
    side_exit = math.copysign(1.0, float(np.dot(exit_pt - c, nrm)))
    jog2 = 0.5 * (c + free_final) - side_exit * _OFFSET * nrm
    pieces.append(np.asarray([jog2]))
    pieces.append(np.asarray([free_final]))
    samples = np.concatenate(pieces, axis=0)
    return Curve("arc", _resample_keep_ends(samples, 0.04))


def _arc_for_idem(idem):
    if idem == IDEM_DOT:
        return Curve("arc", np.stack([np.zeros(2), np.array([_PI, 0.0])]))
    return Curve("arc", np.stack([np.array([_PI, 0.0]), np.array([_PI, _PI])]))


def _template_fig8(host):
    from . import correspondence as co
    return co.model_map_vdelta(host.resampled(0.01), 0.5).components[0]


def complex_to_curve(cx):
    """Geometric realization of a supported twisted complex as a PL curve.

    Chain complexes with single 1- or 2-letter basis-word arrows become
    normal-position arcs; the two-generator complex with the doubled entry
    D + SS becomes the figure eight over the matching template arc.
    """
    ok, bad = mc_check(cx)
    if not ok:
        raise AlgebraError(f"complex fails the Maurer-Cartan condition at {bad}")
    n = cx.n_gens()
    if n == 1 and not cx.diff:
        return _pushoff(_arc_for_idem(cx.idems[0]))
    if n == 2 and list(cx.diff) == [(0, 1)]:
        e = cx.entry(0, 1)
        if len(e.words) == 2:
            names = sorted(str(w) for w in e.words)
            if names == ["D1", "S2S1"] and cx.idems == [IDEM_DOT, IDEM_DOT]:
                return _template_fig8(_arc_for_idem(IDEM_DOT))
            if names == ["D2", "S1S2"] and cx.idems == [IDEM_CIRC, IDEM_CIRC]:
                return _template_fig8(_arc_for_idem(IDEM_CIRC))
            raise UnsupportedArrow(f"unsupported doubled entry {e}")
    return realize_chain(cx)


def _pushoff(arc, amount=0.07):
    """Template arc pushed slightly into the fundamental domain interior."""
    fine = arc.resampled(0.02)
    pts = fine.samples.copy()
    d = pts[-1] - pts[0]
    d = d / np.linalg.norm(d)
    nrm = np.array([-d[1], d[0]])
    if (nrm[0] + nrm[1]) < 0:
        nrm = -nrm
    bump = np.sin(np.linspace(0.0, math.pi, len(pts)))[:, None]
    return Curve("arc", pts + amount * bump * nrm)


def _resample_keep_ends(samples, step):
    seg = np.linalg.norm(np.diff(samples, axis=0), axis=-1)
    keep = np.concatenate([[True], seg > 1e-12])
    samples = samples[keep]
    seg = np.linalg.norm(np.diff(samples, axis=0), axis=-1)
    u = np.concatenate([[0.0], np.cumsum(seg)])
    nn = max(2, int(math.ceil(u[-1] / step)) + 1)
    uu = np.linspace(0.0, u[-1], nn)
    out = np.stack([np.interp(uu, u, samples[:, 0]),
                    np.interp(uu, u, samples[:, 1])], axis=-1)
    out[0], out[-1] = samples[0], samples[-1]
    return out


# ---------------------------------------------------------------------------
# Reading a curve back into a twisted complex


def _template_crossings(samples):
    """Ordered transverse crossings with the template lift lines.

    Returns a list of (arclength position index u, type) with type the
    idempotent of the template arc crossed, plus the crossing radius data.
    """
    out = []
    for k in range(len(samples) - 1):
        p, q = samples[k], samples[k + 1]
        # crossings with theta = 2 pi m  (a• lifts)
        for m in range(int(math.floor(min(p[1], q[1]) / TWO_PI)),
                       int(math.ceil(max(p[1], q[1]) / TWO_PI)) + 1):
            y = m * TWO_PI
            if (p[1] - y) * (q[1] - y) < 0:
                t = (y - p[1]) / (q[1] - p[1])
                x = p[0] + t * (q[0] - p[0])
                out.append((k + t, IDEM_DOT, np.array([x, y])))
        # crossings with gamma = pi + 2 pi m  (a° lifts)
        for m in range(int(math.floor((min(p[0], q[0]) - _PI) / TWO_PI)),
                       int(math.ceil((max(p[0], q[0]) - _PI) / TWO_PI)) + 1):
            x = _PI + m * TWO_PI
            if (p[0] - x) * (q[0] - x) < 0:
                t = (x - p[0]) / (q[0] - p[0])
                y = p[1] + t * (q[1] - p[1])
                out.append((k + t, IDEM_CIRC, np.array([x, y])))
    return sorted(out, key=lambda z: z[0])


def _nearest_corner_lift(pt):
    return np.round(np.asarray(pt) / _PI) * _PI


def _segment_wrap_data(samples, u1, u2):
    """Wrapped corner lift and signed sweep of a curve piece between crossings."""
    i0 = int(math.ceil(u1 + 1e-9))
    i1 = int(math.floor(u2 - 1e-9)) + 1
    piece = samples[max(i0 - 1, 0): i1 + 1]
    if len(piece) < 3:
        return None
    dmin, c_best = None, None
    for k in range(len(piece)):
        c = _nearest_corner_lift(piece[k])
        d = np.linalg.norm(piece[k] - c)
        if dmin is None or d < dmin:
            dmin, c_best = d, c
    if dmin is None or dmin > 1.5 * _WRAP_RADIUS:
        return None
    rel = piece - c_best
    ang = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    return c_best, ang[-1] - ang[0]


_WORD_BY_MOTIF = {
    (IDEM_CIRC, IDEM_DOT, 2, 1): "S1",
    (IDEM_DOT, IDEM_CIRC, 2, 1): "S2",
    (IDEM_DOT, IDEM_DOT, 2, 2): "S2S1",
    (IDEM_CIRC, IDEM_CIRC, 2, 2): "S1S2",
    (IDEM_DOT, IDEM_DOT, 0, 2): "D1",
    (IDEM_CIRC, IDEM_CIRC, 3, 2): "D2",
    (IDEM_DOT, IDEM_DOT, 0, 4): "D1D1",
    (IDEM_CIRC, IDEM_CIRC, 3, 4): "D2D2",
}


def _read_chain(curve):
    """Direct read of a normal-position arc: crossings plus wrap classification."""
    samples = curve.samples
    crossings = _template_crossings(samples)
    # wrap-internal crossings happen within the wrap radius of a corner lift
    gens = [(u, idm, pos) for (u, idm, pos) in crossings
            if np.linalg.norm(pos - _nearest_corner_lift(pos)) > 1.5 * _WRAP_RADIUS]
    if not gens:
        raise UnsupportedArrow("no template crossings found")
    idems = [g[1] for g in gens]
    # normal position: free ends run out to corners of the adjacent arcs
    c_start = cv.corner_index_of_lift(samples[0])
    c_end = cv.corner_index_of_lift(samples[-1])
    if c_start not in _ARC_ENDS[idems[0]] or c_end not in _ARC_ENDS[idems[-1]]:
        raise UnsupportedArrow("free ends do not land on the template arcs")
    diff = {}
    for k in range(len(gens) - 1):
        data = _segment_wrap_data(samples, gens[k][0], gens[k + 1][0])
        if data is None:
            raise UnsupportedArrow("curve piece between crossings wraps no corner")
        c_hat, sweep = data
        quarter = int(round(sweep / (0.5 * math.pi)))
        if quarter <= 0:
            raise UnsupportedArrow("clockwise chord reading is unsupported")
        key = (idems[k], idems[k + 1], _corner_class_of_lift(c_hat), quarter)
        if key not in _WORD_BY_MOTIF:
            raise UnsupportedArrow(f"no chord motif for {key}")
        diff[(k, k + 1)] = Element([_WORD_BY_MOTIF[key]])
    return TwistedComplex(idems, diff)


def _t3_complex(n_max=N_MAX_DEFAULT):
    return TwistedComplex([IDEM_CIRC, IDEM_DOT, IDEM_DOT, IDEM_DOT],
                          {(0, 1): "S1", (1, 2): "D1", (2, 3): "S2S1"},
                          n_max=n_max)


def _straight_line_complex(curve):
    """Complex of a straight corner-to-corner arc, for the slopes on record.

    The slope-1/3 arc is the three-twist tangle variety; its complex is the
    four-generator chain.  Template-edge slopes are the one-generator
    complexes.  Other slopes need the general classification algorithm,
    which is out of scope.
    """
    pts = curve.samples
    disp = pts[-1] - pts[0]
    chord = disp / np.linalg.norm(disp)
    dev = (pts - pts[0]) - np.outer((pts - pts[0]) @ chord, chord)
    if np.max(np.linalg.norm(dev, axis=-1)) > 1e-6:
        raise UnsupportedArrow("arc is not a straight line")
    steps = np.abs(np.round(disp / _PI).astype(int))
    ends = {cv.corner_index_of_lift(pts[0]), cv.corner_index_of_lift(pts[-1])}
    if sorted(steps) == [1, 3] and ends == {0, 3}:
        return _t3_complex()
    if sorted(steps) == [0, 1]:
        if ends == set(_ARC_ENDS[IDEM_DOT]):
            return TwistedComplex([IDEM_DOT], {})
        if ends == set(_ARC_ENDS[IDEM_CIRC]):
            return TwistedComplex([IDEM_CIRC], {})
    raise UnsupportedArrow(
        f"no complex on record for a straight arc with step vector {steps}")


def curve_to_complex(curve):
    """Twisted complex of a curve in the supported dictionary class.

    Normal-position arcs are read off directly (template crossings plus wrap
    motifs between them).  Figure eights over the template arcs give the
    doubled two-generator complex; template-arc push-offs give a single
    generator; straight corner-to-corner lines are looked up by slope for
    the instances on record.
    """
    from . import topology as tp
    pts = curve.samples
    corner1 = np.array([0.0, _PI])
    rel = (pts - corner1) / TWO_PI
    near1 = np.min(np.linalg.norm(pts - (np.round(rel) * TWO_PI + corner1), axis=-1))
    if near1 < 1e-6:
        raise TopLeftCornerHit("curve touches the top-left corner (0, pi)")

    if curve.kind == "loop":
        h = tp.homology_class(curve).coefficients()
        for idm, cls in ((IDEM_DOT, (1, 0, -1)), (IDEM_CIRC, (1, 1, 2))):
            if h == cls or h == tuple(-x for x in cls):
                host = _arc_for_idem(idm)
                verdict = tp.classify_homology_fig8([curve], host, 0.45)
                if verdict["is_homology_fig8"]:
                    pair = h_central_component(idm)
                    return TwistedComplex([idm, idm], {(0, 1): pair})
        raise UnsupportedArrow("closed curve is not a template figure eight")

    if curve.kind != "arc":
        raise UnsupportedArrow("only arcs and loops are supported")

    # a push-off of a template arc: right corner pair, no template crossings,
    # supported near the arc
    ends = {cv.corner_index_of_lift(pts[0]), cv.corner_index_of_lift(pts[-1])}
    crossings = [c for c in _template_crossings(pts)
                 if np.linalg.norm(c[2] - _nearest_corner_lift(c[2]))
                 > 1.5 * _WRAP_RADIUS]
    if not crossings:
        for idm in (IDEM_DOT, IDEM_CIRC):
            if ends == set(_ARC_ENDS[idm]):
                host = cv.to_canonical(_arc_for_idem(idm).resampled(0.01).samples)
                d = cv.min_dist_to_samples(cv.to_canonical(pts), host)
                if np.max(d) < 0.5:
                    return TwistedComplex([idm], {})
        return _straight_line_complex(curve)

    try:
        cx = _read_chain(curve)
        ok, _ = mc_check(cx)
        if ok:
            return cx
    except UnsupportedArrow:
        pass
    return _straight_line_complex(curve)
