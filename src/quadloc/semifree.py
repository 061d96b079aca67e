"""Word calculus in partially commutative (graph) groups.

Generators are the vertices of a commutation graph; two generators commute
exactly when they are adjacent.  The empty edge set gives a free group, the
complete graph a free abelian one.  A graph stores each generator's
blockers, the generators it does not commute with (as the piling test of
Crisp, Godelle and Wiest does), and derives its edges from them.

The identity problem is decided by a single-pass stack reduction: each
letter scans down the stack to the first letter in its blockers, and
cancels the deepest inverse it passes, or else is pushed.  Every letter
above the cancelled one commutes with it, so removing it cannot unblock a
pair; the stack therefore never holds a cancellable pair (mutually inverse
letters with only commuting or equal letters between them).  A nontrivial
product equal to the identity always contains such a pair, so a nonempty
reduction certifies a non-identity element.  Equality of u and v is
decided as ``is_identity(u * v.inverse())``.

One pass over a word file's distinct tokens (at most 30 over KG(6, 2)), or
a walk's steps, names each color pair; the blockers are built once from
the names.  Words built without a commutation graph live on the Kneser
graph of the pairs they use, so a product of two needs one shared ``graph``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InputError
from .localcolor import coloring_violation


@dataclass(frozen=True, init=False)
class CommutationGraph:
    """Built from the generators and the commuting pairs, each a frozenset
    of two generator names; stored as each generator's blockers."""
    generators: tuple
    blockers: dict  # generator -> frozenset of the generators it does not commute with

    def __init__(self, generators, edges):
        gens = set(generators)
        if len(gens) != len(generators):
            raise InputError("generator names must be unique")
        commuting = {g: {g} for g in generators}
        for e in edges:
            if len(e) != 2 or not e <= gens:
                raise InputError("commutation edges must join two distinct generators")
            a, b = e
            commuting[a].add(b)
            commuting[b].add(a)
        vars(self).update(generators=generators,
                          blockers={g: frozenset(gens - c) for g, c in commuting.items()})

    @classmethod
    def _of_blockers(cls, generators: tuple, blockers: dict) -> "CommutationGraph":
        graph = object.__new__(cls)
        vars(graph).update(generators=generators, blockers=blockers)
        return graph

    def __hash__(self):
        return hash((self.generators, frozenset(self.blockers.items())))

    @cached_property
    def edges(self) -> frozenset:
        """The commuting pairs, each a frozenset of two generator names."""
        return frozenset(frozenset((a, b)) for a, b in combinations(self.generators, 2)
                         if b not in self.blockers[a])

    def commutes(self, a, b) -> bool:
        return a == b or (a in self.blockers and b in self.blockers and b not in self.blockers[a])


@dataclass(frozen=True)
class GroupWord:
    graph: CommutationGraph
    letters: tuple  # (generator, +1 | -1)

    def __post_init__(self):
        # bulk checks over the distinct letters; the walk names the first bad one
        gens, distinct = self.graph.blockers, set(self.letters)
        if not (gens.keys() >= {g for g, _ in distinct} and {e for _, e in distinct} <= {1, -1}):
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


def _reduce(w: GroupWord) -> list:
    blockers = w.graph.blockers
    out = []
    for x in w.letters:
        g, e = x
        stop = blockers[g]
        hit = -1
        p = len(out)
        for h, d in reversed(out):
            p -= 1
            if h in stop:
                break
            if d != e and h == g:
                hit = p
        if hit < 0:
            out.append(x)
        else:
            del out[hit]
    return out


def reduce_word(w: GroupWord) -> GroupWord:
    """Single-pass stack reduction (see the module docstring); the result
    is the one the leftmost-pair cancellation fixpoint reaches."""
    return GroupWord(w.graph, tuple(_reduce(w)))


def is_identity(w: GroupWord) -> bool:
    return not _reduce(w)


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
    return f"{i}.{j}" if i < j else f"{j}.{i}"


def _check_kneser(m: int) -> None:
    if m < 4:
        raise InputError(f"kneser m 2 needs m >= 4, got m = {m}")


def kneser_graph(m: int) -> CommutationGraph:
    """KG(m, 2): 2-subsets of 1..m, adjacent iff disjoint."""
    _check_kneser(m)
    return _kneser_of({(i, j): pair_name(i, j) for i, j in combinations(range(1, m + 1), 2)})


def _kneser_of(names: dict) -> CommutationGraph:
    """The subgraph of a Kneser graph induced on the named pairs
    ``{(i, j): name}``, i < j, in pair order: all that a word over them
    needs.  A pair's blockers are the other pairs that hold one of its colors."""
    holders = {}  # color -> the names of the pairs that hold it
    for (i, j), n in names.items():
        holders.setdefault(i, []).append(n)
        holders.setdefault(j, []).append(n)
    blockers = {n: frozenset(holders[i] + holders[j]) - {n} for (i, j), n in sorted(names.items())}
    return CommutationGraph._of_blockers(tuple(blockers), blockers)


def _pair_word(m: int, steps, graph: CommutationGraph | None) -> GroupWord:
    """The product of the color-pair elements x(i, j) over ``steps``, on
    ``graph`` when given, else on the Kneser graph induced by the pairs it
    uses; a product of words built that way needs one shared ``graph``."""
    _check_kneser(m)
    letters, names = [], {}  # pair (i, j), i < j -> its name
    for i, j in steps:
        if not (1 <= i <= m and 1 <= j <= m):
            raise InputError(f"colors must lie in 1..{m}")
        if i != j:
            a, b, e = (i, j, 1) if i < j else (j, i, -1)
            letters.append((names.setdefault((a, b), f"{a}.{b}"), e))
    return GroupWord(graph if graph is not None else _kneser_of(names), tuple(letters))


def x_pair(i: int, j: int, m: int, graph: CommutationGraph | None = None) -> GroupWord:
    """The color-pair element: identity if i == j, the generator {i, j}
    if i < j, and its inverse if j < i (on ``graph`` as in ``_pair_word``)."""
    return _pair_word(m, ((i, j),), graph)


def walk_label(colors, m: int, graph: CommutationGraph | None = None) -> GroupWord:
    """Label of a properly colored closed walk: the product of the
    color-pair elements of each step's flanking colors (see ``_pair_word``)."""
    colors = list(colors)
    if not colors:
        raise InputError("walk needs at least one vertex")
    before, after = colors[-1:] + colors[:-1], colors[1:] + colors[:1]
    if any(a == b for a, b in zip(colors, after)):
        raise InputError("consecutive walk colors must differ")
    return _pair_word(m, zip(before, after), graph)


# -- labels on medial graphs ---------------------------------------------------


def _check_local3(G, c):
    violation = coloring_violation(G, c, 3)
    if violation is not None:
        raise InputError(f"labels need a local 3-coloring, got violation {violation}")


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
    It lives on ``graph`` as in ``_pair_word``.
    """
    _check_local3(G, c)
    return _pair_word(c.m, (_edge_colors(G, c, medial_dart),), graph)


def face_label(G, c, medial_face, graph: CommutationGraph | None = None) -> GroupWord:
    """Product of oriented-edge labels around a face of the medial graph,
    on ``graph`` as in ``_pair_word``."""
    _check_local3(G, c)
    return _pair_word(c.m, (_edge_colors(G, c, md) for md in medial_face.tails), graph)


# -- the transcribed element tables ---------------------------------------


def _parse_table_word(H: CommutationGraph, compact: str) -> GroupWord:
    return GroupWord(H, tuple((pair_name(int(t[-2]), int(t[-1])), -1 if t[0] == "-" else 1)
                              for t in compact.split()))


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
    tables = {1: (6, TABLE1_ELEMENTS, TABLE1_RESIDUAL), 2: (5, TABLE2_ELEMENTS, TABLE2_RESIDUAL)}
    if which not in tables:
        raise InputError("table must be 1 or 2")
    m, compact, residual = tables[which]
    H = kneser_graph(m)
    zs = [_parse_table_word(H, s) for s in compact]
    res = _parse_table_word(H, residual)
    squares = GroupWord(H, tuple(x for z in zs for x in 2 * z.letters))
    plain = GroupWord(H, tuple(x for z in zs for x in z.letters))
    lines = []

    def check(label, passed):
        lines.append(f"{label}: {passed}")
        return passed

    plain_red = reduce_word(plain)
    used = len({g for z in zs for g, _ in z.letters})
    ok = check("product of squares reduces to identity", is_identity(squares))
    ok &= check(f"plain product non-identity (reduced length {len(plain_red)})", len(plain_red) > 0)
    ok &= check("plain product equals displayed residual", equal_words(plain, res))
    lines.append(f"generators used: {used} of {len(H.generators)}")
    if which == 1:
        ok &= check("exactly nine generators used", used == 9)
    if which == 2:
        lines.append("note: seventh element read with its third letter as -1.5")
    return TableReport(which, ok, tuple(lines))


# -- word file format ----------------------------------------------------------


def parse_word_text(text: str):
    """Word format: a header ``kneser m 2`` then whitespace-separated tokens
    ``i.j`` / ``-i.j``; ``#`` starts a comment.

    Each distinct token is parsed once, in order of first occurrence, so
    the first bad token is the first in the word."""
    tokens = [tok for raw in text.splitlines() for tok in raw.split("#", 1)[0].split()]
    if len(tokens) < 3 or tokens[0] != "kneser" or tokens[2] != "2":
        raise InputError("word file needs a 'kneser m 2' header")
    try:
        m = int(tokens[1])
    except ValueError:
        raise InputError(f"bad kneser parameter {tokens[1]!r}") from None
    _check_kneser(m)
    body = tokens[3:]
    letter, names = {}, {}  # distinct token -> letter; valid pair (i, j), i < j -> its name
    for raw in dict.fromkeys(body):
        sign, tok = (-1, raw[1:]) if raw.startswith("-") else (1, raw)
        try:
            i, j = map(int, tok.split("."))
        except ValueError as exc:
            raise InputError(f"bad word token {tok!r}") from exc
        letter[raw] = (pair_name(i, j), sign)
        if i != j and 1 <= i <= m and 1 <= j <= m:  # GroupWord rejects the other letters
            names[(i, j) if i < j else (j, i)] = letter[raw][0]
    return GroupWord(_kneser_of(names), tuple(map(letter.__getitem__, body))), m


def format_word(w: GroupWord, m: int) -> str:
    toks = " ".join(g if e > 0 else f"-{g}" for g, e in w.letters)
    return f"kneser {m} 2\n{toks}\n"
