"""Local colorings, the universal graphs U(m, r), and exhaustive search.

A proper coloring is *local-r* when every open neighborhood shows at most
``r - 1`` colors.  ``U(m, r)`` is the universal target: a graph has a
local r-coloring with at most ``m`` colors exactly when it maps
homomorphically into ``U(m, r)``.

The search enumerates colorings with colors introduced in first-use order
(color ``k+1`` may appear only after ``1..k``), which collapses the color
permutation symmetry; properness and locality are color-name invariant, so
a NONE verdict over this canonical space is a proof of nonexistence.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ColoringError, InputError

FOUND = "FOUND"
NONE = "NONE"
BUDGET_EXCEEDED = "BUDGET-EXCEEDED"


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
    """Adjacency as vertex -> frozenset, from a map, a UGraph, or a dict."""
    adj = getattr(G, "adjacency", G)
    return {v: frozenset(ns) for v, ns in adj.items()}


def coloring_violation(G, c: Coloring, r: int):
    """None if ``c`` is a local r-coloring, else the first witness.

    Witnesses are ``("edge", u, w)`` for a properness failure and
    ``("vertex", v)`` for a neighborhood showing ``r`` or more colors.
    """
    adj = neighbor_sets(G)
    missing = sorted(set(adj) - set(c.assignment))
    if missing:
        raise ColoringError(f"coloring is not total, vertex {missing[0]!r} uncolored")
    for v in sorted(adj):
        for w in sorted(adj[v]):
            if c.assignment[v] == c.assignment[w]:
                return ("edge", v, w) if v <= w else ("edge", w, v)
    for v in sorted(adj):
        if len({c.assignment[w] for w in adj[v]}) > r - 1:
            return ("vertex", v)
    return None


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

    def pair_of(self, name: str):
        for (i, A) in self.vertices:
            if u_vertex_name(i, A) == name:
                return (i, A)
        raise KeyError(name)


def build_U(m: int, r: int) -> UGraph:
    if not m >= r >= 2:
        raise InputError("build_U needs m >= r >= 2")
    verts = []
    for i in range(1, m + 1):
        for A in combinations([x for x in range(1, m + 1) if x != i], r - 1):
            verts.append((i, frozenset(A)))
    names = {v: u_vertex_name(*v) for v in verts}
    adj = {names[v]: set() for v in verts}
    triangles = set()
    for (i, A), (j, B) in combinations(verts, 2):
        if i in B and j in A:
            nu, nw = names[(i, A)], names[(j, B)]
            adj[nu].add(nw)
            adj[nw].add(nu)
            # an edge lies in a triangle of U(m, 3) iff A - {j} == B - {i}
            if A - {j} == B - {i}:
                triangles.add(frozenset((nu, nw)))
    adjacency = {v: frozenset(ns) for v, ns in adj.items()}
    return UGraph(m, r, tuple(sorted(verts, key=lambda p: (p[0], tuple(sorted(p[1]))))),
                  adjacency, frozenset(triangles))


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
                raise ColoringError("induced map is not a homomorphism")
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
    queue = [start]
    while queue:
        v = queue.pop(0)
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    for v in sorted(adj):
        if v not in seen:
            raise InputError("search requires a connected graph")
    return tuple(order)


def search_local_coloring(G, r: int, m: int, budget: int | None = None) -> SearchOutcome:
    """Exhaustive canonical search for a local r-coloring with <= m colors.

    NONE is a proof: it is returned only after the whole canonical space
    is exhausted.  A budget stop is reported as a distinct status.
    """
    if m < r:
        raise InputError("search needs m >= r")
    adj = neighbor_sets(G)
    order = _search_order(adj)
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [tuple(sorted(adj[v])) for v in order]

    color = [0] * n
    nbr_colors = {v: {} for v in order}  # vertex -> color -> count among colored neighbors
    nodes = 0

    def place(i, k):
        color[i] = k
        for w in nbrs[i]:
            cnt = nbr_colors[w]
            cnt[k] = cnt.get(k, 0) + 1

    def unplace(i, k):
        color[i] = 0
        for w in nbrs[i]:
            cnt = nbr_colors[w]
            cnt[k] -= 1
            if cnt[k] == 0:
                del cnt[k]

    def feasible(i, k):
        for w in nbrs[i]:
            j = pos[w]
            if j < i and color[j] == k:
                return False
            cnt = nbr_colors[w]
            if k not in cnt and len(cnt) >= r - 1:
                return False
        return True

    def rec(i, used):
        nonlocal nodes
        if i == n:
            return True
        top = min(used + 1, m)
        for k in range(1, top + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                return None
            if feasible(i, k):
                place(i, k)
                res = rec(i + 1, max(used, k))
                if res:
                    return True
                if res is None:
                    return None
                unplace(i, k)
        return False

    res = rec(0, 0)
    if res is None:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes, r, m, order)
    if not res:
        return SearchOutcome(NONE, None, nodes, r, m, order)
    c = Coloring({order[i]: color[i] for i in range(n)}, m)
    if coloring_violation(G, c, r) is not None:
        raise InputError("search produced an invalid coloring")  # pragma: no cover
    return SearchOutcome(FOUND, c, nodes, r, m, order)


@dataclass
class PsiResult:
    value: int | None
    lower: int
    upper: int | None
    outcomes: tuple


def local_chromatic_number(G, budget: int | None = None) -> PsiResult:
    """Smallest r admitting a local r-coloring with at most |V| colors.

    Restriction to used colors preserves locality, so m = |V| loses nothing.
    """
    adj = neighbor_sets(G)
    n = len(adj)
    outcomes = []
    for r in range(1, n + 2):
        out = search_local_coloring(G, r, max(n, r), budget)
        outcomes.append(out)
        if out.status == FOUND:
            return PsiResult(r, r, r, tuple(outcomes))
        if out.status == BUDGET_EXCEEDED:
            return PsiResult(None, r, None, tuple(outcomes))
    raise InputError("no local coloring found with m = |V|")  # pragma: no cover


def find_four_chromatic_face(G, c: Coloring):
    """A face of the quadrangulation showing four distinct colors, or None."""
    if coloring_violation(G, c, len(G.vertices) + 2) is not None:
        raise ColoringError("coloring is not proper")
    for face in G.faces:
        walk = G.face_vertex_walk(face)
        if len(walk) == 4 and len({c.assignment[v] for v in walk}) == 4:
            return face
    return None
