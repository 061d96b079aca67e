"""Local colorings, the universal graphs U(m, r), and exhaustive search.

A proper coloring is *local-r* when every open neighborhood shows at most
``r - 1`` colors.  ``U(m, r)`` is the universal target: a graph has a
local r-coloring with at most ``m`` colors exactly when it maps
homomorphically into ``U(m, r)``.

The search enumerates colorings with colors introduced in first-use order
(color ``k+1`` may appear only after ``1..k``), which collapses the color
permutation symmetry; properness and locality are color-name invariant, so
a NONE verdict over this canonical space is a proof of nonexistence.
Vertices are colored in breadth-first order, and a search node is one color
tried at one vertex.  The kernel is one loop with one record per level, so
graph size is not bounded by the interpreter's recursion limit.  Its state
is a list of one bitmask per vertex, of the colors on its colored
neighbors; a level reads its neighbors' masks with one ``itemgetter`` call,
so placing a color opens no Python frame.  On graphs of up to
``_COPY_MAX_VERTICES`` vertices a level that has another color to try
places into a copy of that list, so backtracking restores a saved list
instead of undoing writes; a larger graph's copies would cost more than the
writes, so there the kernel writes in place and undoes.  The search looks
no further ahead than the vertex it colors.  On the benchmark's search
round, forward checking with an allowed-color mask per vertex, copied with
the neighbor masks, needs 4.3x fewer nodes on the searches both decide but
costs 1.3x more per node, and the round, which spends most of its nodes in
searches that stop at the budget, runs 6-10% slower.  A FOUND coloring is
re-checked by ``coloring_violation``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter

from .errors import ColoringError, InputError, InternalConsistencyError, LoopError

FOUND = "FOUND"
NONE = "NONE"
BUDGET_EXCEEDED = "BUDGET-EXCEEDED"

# The node limit of a search without a budget: an int, so the budget test
# compares two ints, and more nodes than any search can visit.
_NO_BUDGET = 1 << 62

# The largest graph whose search copies its mask list at a branching level.
# On psi and the r = 3..5 searches at a budget of 30,000 nodes, copies beat
# the writes and undo writes they replace by 5-20% up to 180 vertices, break
# even at 220-264 and cost 5-30% more from 289 to 699 (Klein bottle grids,
# triangulated torus grids and refined paper maps).  Searches that find a
# coloring with little backtracking lose earlier, 1.2-1.5x at 72-156
# vertices.  A FOUND search on 3,156 vertices would hold about 78 MB of
# copies.
_COPY_MAX_VERTICES = 200


@dataclass
class Coloring:
    """Total assignment vertex -> color in 1..m."""

    assignment: dict
    m: int

    def __post_init__(self):
        for v, c in self.assignment.items():
            if not 1 <= c <= self.m:
                raise ColoringError(f"color {c} of {v!r} outside 1..{self.m}")


def neighbor_sets(G):
    """Adjacency as vertex -> frozenset: a map's or a UGraph's as it is, a dict's converted."""
    return {v: frozenset(ns) for v, ns in G.items()} if isinstance(G, dict) else G.adjacency


def coloring_violation(G, c: Coloring, r: int):
    """None if ``c`` is a local r-coloring, else the first witness.

    Witnesses are ``("edge", u, w)`` for a properness failure and
    ``("vertex", v)`` for a neighborhood showing ``r`` or more colors.
    One unsorted pass decides; only a faulty coloring is walked again in
    sorted order, which names the first witness.
    """
    adj = neighbor_sets(G)
    missing = sorted(set(adj) - set(c.assignment))
    if missing:
        raise ColoringError(f"coloring is not total, vertex {missing[0]!r} uncolored")
    color = c.assignment.__getitem__
    for v, ns in adj.items():
        seen = set(map(color, ns))
        if color(v) in seen or len(seen) > r - 1:
            break
    else:
        return None
    for v in sorted(adj):
        for w in sorted(adj[v]):
            if c.assignment[v] == c.assignment[w]:
                return ("edge", v, w) if v <= w else ("edge", w, v)
    for v in sorted(adj):
        if len({c.assignment[w] for w in adj[v]}) > r - 1:
            return ("vertex", v)
    return None


def require_positive_r(r: int) -> None:
    """Reject an ``r`` below 1, for which no local coloring is defined."""
    if r < 1:
        raise InputError(f"search needs r >= 1, got {r}")


def require_positive_budget(budget: int | None, name: str = "budget") -> None:
    """Reject a node budget below 1, naming it ``name``; ``None`` means no budget."""
    if budget is not None and budget < 1:
        raise InputError(f"{name} must be positive, got {budget}")


def is_local_coloring(G, c: Coloring, r: int) -> bool:
    return coloring_violation(G, c, r) is None


# -- universal graphs --------------------------------------------------------


def u_vertex_name(i: int, A) -> str:
    body = "".join(str(a) for a in sorted(A)) if max(A, default=0) <= 9 and i <= 9 \
        else ".".join(str(a) for a in sorted(A))
    return f"{i}.{body}"


@dataclass(frozen=True)
class UGraph:
    """U(m, r): vertices (i, A) with ``i`` not in A, ``|A| = r - 1``;
    (i, A) ~ (j, B) iff ``i in B`` and ``j in A``."""

    m: int
    r: int
    vertices: tuple = field(compare=False)
    adjacency: dict = field(compare=False)
    triangle_edges: frozenset = field(compare=False)

    def natural_coloring(self) -> Coloring:
        return Coloring({u_vertex_name(i, A): i for (i, A) in self.vertices}, self.m)


def build_U(m: int, r: int) -> UGraph:
    """U(m, r), listing the neighbors (j, {i} | C) of each (i, A) from the
    definition: j in A, C a (r - 2)-subset of the colors other than i, j."""
    if not m >= r >= 2:
        raise InputError("build_U needs m >= r >= 2")
    colors = range(1, m + 1)
    verts = [(i, frozenset(A)) for i in colors
             for A in combinations([x for x in colors if x != i], r - 1)]
    names = {v: u_vertex_name(*v) for v in verts}
    adjacency = {
        names[(i, A)]: frozenset(
            names[(j, frozenset((i, *C)))]
            for j in A for C in combinations([x for x in colors if x != i and x != j], r - 2)
        )
        for (i, A) in verts
    }
    # an edge lies in a triangle iff its two ends share a neighbour
    triangles = frozenset(
        frozenset((u, w)) for u, ns in adjacency.items() for w in ns if ns & adjacency[w]
    )
    # combinations of a sorted list come out sorted, so verts is in (i, sorted A) order
    return UGraph(m, r, tuple(verts), adjacency, triangles)


def hom_to_U(G, c: Coloring, r: int):
    """The canonical homomorphism into U(m, r) induced by a local r-coloring.

    Maps ``v`` to ``(c(v), A_v)`` where ``A_v`` holds the neighborhood
    colors, padded with the smallest unused colors distinct from ``c(v)``.
    """
    violation = coloring_violation(G, c, r)
    if violation is not None:
        raise ColoringError(f"not a local {r}-coloring: {violation}")
    adj = neighbor_sets(G)
    m = c.m
    image = {}
    for v in sorted(adj):
        A = {c.assignment[w] for w in adj[v]}
        pad = 1
        while len(A) < r - 1 and pad <= m:
            if pad != c.assignment[v]:
                A.add(pad)
            pad += 1
        if len(A) < r - 1:
            raise ColoringError("cannot pad neighborhood colors, m too small")
        image[v] = (c.assignment[v], frozenset(A))
    for v in sorted(adj):
        for w in adj[v]:
            (i, A), (j, B) = image[v], image[w]
            if i not in B or j not in A:
                raise InternalConsistencyError("induced map is not a homomorphism")
    return image


# -- exhaustive search -------------------------------------------------------


@dataclass
class SearchOutcome:
    status: str
    coloring: Coloring | None
    nodes: int
    r: int
    m: int
    order: tuple

    def certificate_text(self) -> str:
        lines = [
            "# quadloc-cert v1",
            f"search local-coloring r={self.r} m={self.m}",
            "order " + " ".join(self.order),
            "canonical colors-in-first-use-order",
            f"nodes {self.nodes}",
            f"result {self.status}",
        ]
        if self.coloring is not None:
            for v in sorted(self.coloring.assignment):
                lines.append(f"color {v} {self.coloring.assignment[v]}")
        return "\n".join(lines) + "\n"


def _search_order(adj):
    """Breadth-first from a maximum-degree vertex; ties by name."""
    start = max(sorted(adj), key=lambda v: len(adj[v]))
    order = [start]
    seen = {start}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
    if len(order) < len(adj):
        raise InputError("search requires a connected graph")
    return tuple(order)


def _masks_getter(nb):
    """One C-level call that reads the masks at positions ``nb`` as a tuple.

    A one-key ``itemgetter`` returns a bare value, so a single neighbor is
    read twice; the placement loop zips with ``nb`` and stops after one, and
    ``&`` with the same mask twice is the same mask.
    """
    if len(nb) > 1:
        return itemgetter(*nb)
    if nb:
        return itemgetter(nb[0], nb[0])
    return lambda seen: ()


def _search_space(G):
    """The search order and, per position, the positions of its neighbors
    with a getter of their masks; every r of a psi run shares it."""
    adj = neighbor_sets(G)
    order = _search_order(adj)
    for v in order:
        if v in adj[v]:
            raise LoopError(f"local colorings need a loopless graph, {v!r} has a loop")
    pos = {v: i for i, v in enumerate(order)}
    nbrs = tuple(tuple(pos[w] for w in adj[v]) for v in order)
    return order, nbrs, tuple(_masks_getter(nb) for nb in nbrs)


def _walk(nbrs, getters, r: int, m: int, budget: int | None):
    """Depth-first walk of the canonical tree; returns (status, nodes, colors).

    Level ``i`` colors position ``i``.  ``seen[v]`` has bit ``k`` set when a
    colored neighbor of ``v`` has color ``k``.  A level computes its allowed
    colors once, on entry: not seen at its vertex, seen at every neighbor
    that already shows ``r - 1`` colors, and at most ``top``, one above the
    colors in use but never above ``m``.  It takes them lowest bit first.
    Each placement saves the level's record: the mask list it was entered
    with, its neighbors' masks from that list, the colors not yet tried,
    ``top`` and the color placed.  Up to ``_COPY_MAX_VERTICES`` vertices, a
    placement with a color left to try writes its neighbors' masks into a
    copy of the list, and the last color writes into the list itself, which
    no later color of the level reads; so backtracking restores nothing but
    the saved list.  On a larger graph the copies cost more than the writes
    they save, so there is one list, every placement writes into it, and an
    exhausted level writes its neighbors' masks back.  Every color tried is
    one node, the skipped infeasible ones included, so a budget stops at
    exactly ``budget + 1`` nodes.
    """
    n = len(nbrs)
    limit = budget if budget is not None else _NO_BUDGET
    full = r - 1
    copying = n <= _COPY_MAX_VERTICES
    seen = [0] * n
    levels = [None] * n  # per level: (mask list, neighbors' masks, untried, top, color)
    nodes = 0
    i = 0
    top = 1
    while True:
        masks = getters[i](seen)
        a = ((2 << top) - 2) & ~seen[i]
        for s in masks:
            if s.bit_count() >= full:
                a &= s
        nb = nbrs[i]
        k = 0
        while True:
            if a:
                low = a & -a
                a ^= low
                c = low.bit_length() - 1
                nodes += c - k
                if nodes > limit:
                    return BUDGET_EXCEEDED, budget + 1, None
                levels[i] = seen, masks, a, top, c
                if a and copying:
                    seen = seen.copy()
                for w, s in zip(nb, masks):
                    seen[w] = s | low
                break
            nodes += top - k
            if nodes > limit:
                return BUDGET_EXCEEDED, budget + 1, None
            if k and not copying:
                for w, s in zip(nb, masks):
                    seen[w] = s
            i -= 1
            if i < 0:
                return NONE, nodes, None
            seen, masks, a, top, k = levels[i]
            nb = nbrs[i]
        i += 1
        if i == n:
            return FOUND, nodes, [level[4] for level in levels]
        if c == top < m:
            top += 1


def _search(G, space, r: int, m: int, budget: int | None) -> SearchOutcome:
    order, nbrs, getters = space
    status, nodes, colors = _walk(nbrs, getters, r, m, budget)
    if status != FOUND:
        return SearchOutcome(status, None, nodes, r, m, order)
    c = Coloring(dict(zip(order, colors)), m)
    violation = coloring_violation(G, c, r)
    if violation is not None:
        raise InternalConsistencyError(f"search produced an invalid coloring: {violation}")
    return SearchOutcome(FOUND, c, nodes, r, m, order)


def search_local_coloring(G, r: int, m: int, budget: int | None = None) -> SearchOutcome:
    """Exhaustive canonical search for a local r-coloring with <= m colors.

    NONE is a proof: it is returned only after the whole canonical space
    is exhausted.  A budget stop is reported as a distinct status.
    """
    require_positive_r(r)
    require_positive_budget(budget)
    if m < r:
        raise InputError("search needs m >= r")
    return _search(G, _search_space(G), r, m, budget)


@dataclass
class PsiResult:
    value: int | None
    lower: int
    outcomes: tuple


def local_chromatic_number(G, budget: int | None = None) -> PsiResult:
    """Smallest r admitting a local r-coloring with at most |V| colors.

    Restriction to used colors preserves locality, so m = |V| loses nothing.
    """
    require_positive_budget(budget)
    space = _search_space(G)
    n = len(space[0])
    outcomes = []
    for r in range(1, n + 2):
        out = _search(G, space, r, max(n, r), budget)
        outcomes.append(out)
        if out.status == FOUND:
            return PsiResult(r, r, tuple(outcomes))
        if out.status == BUDGET_EXCEEDED:
            return PsiResult(None, r, tuple(outcomes))
    raise InternalConsistencyError("no local coloring found with m = |V|")


def find_four_chromatic_face(G, c: Coloring):
    """A face of the quadrangulation showing four distinct colors, or None."""
    if coloring_violation(G, c, len(G.vertices) + 2) is not None:
        raise ColoringError("coloring is not proper")
    for face in G.faces:
        walk = G.face_vertex_walk(face)
        if len(walk) == 4 and len({c.assignment[v] for v in walk}) == 4:
            return face
    return None
