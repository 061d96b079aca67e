"""Word calculus in partially commutative (graph) groups.

Generators are the vertices of a commutation graph; two generators commute
exactly when they are adjacent.  The empty edge set gives a free group, the
complete graph a free abelian one.

The identity problem is decided by a single-pass stack reduction: each
letter scans down the stack through letters that commute with it or share
its generator, and cancels the deepest inverse it reaches, or else is
pushed.  Every letter above the cancelled one commutes with it, so removing
it cannot unblock a pair; the stack therefore never holds a cancellable
pair (mutually inverse letters with only commuting or equal letters
between them).  A nontrivial product equal to the identity always contains
such a pair, so a nonempty reduction certifies a non-identity element.
Equality of u and v is decided as ``is_identity(u * v.inverse())``.

Word files are parsed one distinct token at a time: a word over KG(6, 2)
has at most 30 distinct tokens however long it is.  Words built without a
commutation graph live on the Kneser graph induced by the pairs they use,
so multiplying two such words needs them built over one shared ``graph``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import ColoringError, InputError
from .localcolor import coloring_violation


@dataclass(frozen=True)
class CommutationGraph:
    generators: tuple
    edges: frozenset  # frozensets of two generator names

    def __post_init__(self):
        gens = set(self.generators)
        if len(gens) != len(self.generators):
            raise InputError("generator names must be unique")
        for e in self.edges:
            if len(e) != 2 or not e <= gens:
                raise InputError("commutation edges must join two distinct generators")

    @cached_property
    def neighbours(self) -> dict:
        """Generator -> the set of the other generators it commutes with."""
        out = {g: [] for g in self.generators}
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        return {g: frozenset(nb) for g, nb in out.items()}

    def commutes(self, a, b) -> bool:
        return a == b or b in self.neighbours.get(a, ())


@dataclass(frozen=True)
class GroupWord:
    graph: CommutationGraph
    letters: tuple  # (generator, +1 | -1)

    def __post_init__(self):
        gens = self.graph.neighbours
        for g, e in self.letters:
            if g not in gens or e not in (1, -1):
                raise InputError(f"invalid letter ({g!r}, {e})")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.graph is not other.graph and self.graph != other.graph:
            raise InputError("words over different commutation graphs")
        return GroupWord(self.graph, self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(self.graph, tuple((g, -e) for g, e in reversed(self.letters)))


def reduce_word(w: GroupWord) -> GroupWord:
    """Single-pass stack reduction (see the module docstring); the result
    is the one the leftmost-pair cancellation fixpoint reaches."""
    neighbours = w.graph.neighbours
    out = []
    for g, e in w.letters:
        passes = neighbours[g]
        hit = -1
        for p in range(len(out) - 1, -1, -1):
            h, d = out[p]
            if h == g:
                if d != e:
                    hit = p
            elif h not in passes:
                break
        if hit < 0:
            out.append((g, e))
        else:
            del out[hit]
    return GroupWord(w.graph, tuple(out))


def is_identity(w: GroupWord) -> bool:
    return len(reduce_word(w)) == 0


def equal_words(u: GroupWord, v: GroupWord) -> bool:
    return is_identity(u * v.inverse())


def abelianize(w: GroupWord) -> dict:
    """Signed letter counts per generator; zero entries are dropped."""
    out = {}
    for g, e in w.letters:
        out[g] = out.get(g, 0) + e
    return {g: n for g, n in sorted(out.items()) if n != 0}


# -- Kneser graphs and the color-pair elements -------------------------------


def pair_name(i: int, j: int) -> str:
    a, b = sorted((i, j))
    return f"{a}.{b}"


def _check_kneser(m: int) -> None:
    if m < 4:
        raise InputError("kneser_graph needs m >= 2k")


def kneser_graph(m: int, pairs=None) -> CommutationGraph:
    """KG(m, 2): 2-subsets of 1..m, adjacent iff disjoint.

    With ``pairs`` (each ``(i, j)`` with ``1 <= i < j <= m``), the subgraph
    induced on those generators: all that a word over them needs."""
    _check_kneser(m)
    ps = combinations(range(1, m + 1), 2) if pairs is None else sorted(set(pairs))
    name = {p: pair_name(*p) for p in ps}
    edges = frozenset(
        frozenset((name[p], name[q]))
        for p, q in combinations(name, 2)
        if p[0] != q[0] and p[0] != q[1] and p[1] != q[0] and p[1] != q[1]
    )
    return CommutationGraph(tuple(name.values()), edges)


def _pair_word(m: int, steps, graph: CommutationGraph | None) -> GroupWord:
    """The product of the color-pair elements x(i, j) over ``steps``, on
    ``graph`` when given, else on the Kneser graph induced by the pairs it
    uses; a product of words built that way needs one shared ``graph``."""
    _check_kneser(m)
    letters = []
    pairs = set()
    for i, j in steps:
        if not (1 <= i <= m and 1 <= j <= m):
            raise InputError(f"colors must lie in 1..{m}")
        if i != j:
            pairs.add((i, j) if i < j else (j, i))
            letters.append((pair_name(i, j), 1 if i < j else -1))
    return GroupWord(graph if graph is not None else kneser_graph(m, pairs), tuple(letters))


def x_pair(i: int, j: int, m: int, graph: CommutationGraph | None = None) -> GroupWord:
    """The color-pair element: identity if i == j, the generator {i, j}
    if i < j, and its inverse if j < i.  Without ``graph`` the word lives
    on the Kneser graph induced by the pair it uses."""
    return _pair_word(m, ((i, j),), graph)


def walk_label(colors, m: int, graph: CommutationGraph | None = None) -> GroupWord:
    """Label of a properly colored closed walk: the product of the
    color-pair elements of each step's flanking colors.  Without ``graph``
    the word lives on the Kneser graph induced by the pairs it uses."""
    colors = list(colors)
    if not colors:
        raise InputError("walk needs at least one vertex")
    before, after = colors[-1:] + colors[:-1], colors[1:] + colors[:1]
    if any(a == b for a, b in zip(colors, after)):
        raise ColoringError("consecutive walk colors must differ")
    return _pair_word(m, zip(before, after), graph)


# -- labels on medial graphs ---------------------------------------------------


def _check_local3(G, c):
    violation = coloring_violation(G, c, 3)
    if violation is not None:
        raise ColoringError(f"labels need a local 3-coloring, got violation {violation}")


def _edge_colors(G, c, medial_dart: int) -> tuple:
    d, side = divmod(medial_dart, 2)
    b = G.vertex_of[G.pairing[d]]
    b2 = G.vertex_of[G.pairing[G.rotation[d]]]
    i, j = c.assignment[b], c.assignment[b2]
    return (j, i) if side == 1 else (i, j)


def medial_edge_label(G, c, medial_dart: int, graph: CommutationGraph | None = None) -> GroupWord:
    """Label of an oriented medial edge.

    Medial darts come from :func:`quadloc.surface_map.medial_graph`: dart
    ``2*d`` points from the midpoint of d's edge to the midpoint of the
    next edge around d's vertex, dart ``2*d + 1`` the other way.  The label
    is the color-pair element of the two far endpoints; reversal inverts it.
    Without ``graph`` the label lives on the Kneser graph induced by the
    pair it uses, so a product of such labels needs one shared ``graph``.
    """
    _check_local3(G, c)
    return _pair_word(c.m, (_edge_colors(G, c, medial_dart),), graph)


def face_label(G, c, medial_face, graph: CommutationGraph | None = None) -> GroupWord:
    """Product of oriented-edge labels around a face of the medial graph.
    Without ``graph`` the word lives on the Kneser graph induced by the
    pairs it uses."""
    _check_local3(G, c)
    return _pair_word(c.m, (_edge_colors(G, c, md) for md in medial_face.tails), graph)


# -- the transcribed element tables ---------------------------------------


def _parse_table_word(H: CommutationGraph, compact: str) -> GroupWord:
    letters = []
    for tok in compact.split():
        sign = 1
        if tok.startswith("-"):
            sign = -1
            tok = tok[1:]
        letters.append((pair_name(int(tok[0]), int(tok[1])), sign))
    return GroupWord(H, tuple(letters))


TABLE1_ELEMENTS = (
    "25 14 -24 -15",
    "15 24 -14 16 -36 -15 35 14 -24 -15",
    "15 24 -35 36 -14 -26",
    "26 14 -36 -24 34 -14",
    "14 -34 36 24 -16 15 -25 -14",
)
TABLE1_RESIDUAL = "25 16 -15 14 -16 15 -25 -14"

TABLE2_ELEMENTS = (
    "23 -13 -24 14",
    "-14 13 24 35 -25",
    "25 -24 -35 34",
    "-34 35 24 -34 -13 -35 15 -23 -35 34",
    "-34 35 -15 23 12 34",
    "-34 -12 -23 15 -45",
    # the transcribed seventh element carries a stray alphabet tag on its
    # third letter; it is read as the inverse of generator 1.5
    "23 45 -15 34 13 -23",
)
TABLE2_RESIDUAL = "23 35 -34 -13 -35 34 13 -23"


@dataclass
class TableReport:
    table: int
    passed: bool
    lines: tuple

    def text(self) -> str:
        head = f"table {self.table}: {'pass' if self.passed else 'FAIL'}"
        return "\n".join((head,) + self.lines) + "\n"


def verify_table(which: int) -> TableReport:
    """Check the transcribed element tables: the product of squares is the
    identity while the plain product is not, and equals the displayed
    residual word."""
    if which == 1:
        m, compact, residual = 6, TABLE1_ELEMENTS, TABLE1_RESIDUAL
    elif which == 2:
        m, compact, residual = 5, TABLE2_ELEMENTS, TABLE2_RESIDUAL
    else:
        raise InputError("table must be 1 or 2")
    H = kneser_graph(m)
    zs = [_parse_table_word(H, s) for s in compact]
    res = _parse_table_word(H, residual)

    squares = GroupWord(H, tuple(x for z in zs for x in 2 * z.letters))
    plain = GroupWord(H, tuple(x for z in zs for x in z.letters))

    lines = []
    ok = True

    sq_ok = is_identity(squares)
    ok &= sq_ok
    lines.append(f"product of squares reduces to identity: {sq_ok}")

    plain_red = reduce_word(plain)
    nontrivial = len(plain_red) > 0
    ok &= nontrivial
    lines.append(f"plain product non-identity (reduced length {len(plain_red)}): {nontrivial}")

    matches = equal_words(plain, res)
    ok &= matches
    lines.append(f"plain product equals displayed residual: {matches}")

    used = sorted({g for z in zs for g, _ in z.letters})
    lines.append(f"generators used: {len(used)} of {len(H.generators)}")
    if which == 1:
        nine = len(used) == 9
        ok &= nine
        lines.append(f"exactly nine generators used: {nine}")
    if which == 2:
        lines.append("note: seventh element read with its third letter as -1.5")
    return TableReport(which, ok, tuple(lines))


# -- word file format ----------------------------------------------------------


def parse_word_text(text: str):
    """Word format: a header ``kneser m 2`` then whitespace-separated tokens
    ``i.j`` / ``-i.j``; ``#`` starts a comment.

    Each distinct token is parsed once, in order of first occurrence, so
    the first bad token is the first in the word."""
    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if len(tokens) < 3 or tokens[0] != "kneser" or tokens[2] != "2":
        raise InputError("word file needs a 'kneser m 2' header")
    try:
        m = int(tokens[1])
    except ValueError:
        raise InputError(f"bad kneser parameter {tokens[1]!r}") from None
    _check_kneser(m)
    body = tokens[3:]
    pairs = {}  # distinct token -> (i, j, sign)
    for raw in dict.fromkeys(body):
        sign, tok = (-1, raw[1:]) if raw.startswith("-") else (1, raw)
        try:
            i, j = tok.split(".")
            pairs[raw] = (int(i), int(j), sign)
        except ValueError as exc:
            raise InputError(f"bad word token {tok!r}") from exc
    # letters with a color outside 1..m, or i.i, are left for GroupWord to reject
    H = kneser_graph(m, {(min(i, j), max(i, j)) for i, j, _ in pairs.values()
                         if i != j and 1 <= i <= m and 1 <= j <= m})
    letter = {raw: (pair_name(i, j), sign) for raw, (i, j, sign) in pairs.items()}
    return GroupWord(H, tuple(map(letter.__getitem__, body))), m


def format_word(w: GroupWord, m: int) -> str:
    toks = " ".join(g if e > 0 else f"-{g}" for g, e in w.letters)
    return f"kneser {m} 2\n{toks}\n"
