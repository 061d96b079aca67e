"""Local colorings, the universal graphs U(m, r), and exhaustive search.

A proper coloring is *local-r* when every open neighborhood shows at most
``r - 1`` colors.  ``U(m, r)`` is the universal target: a graph has a
local r-coloring with at most ``m`` colors exactly when it maps
homomorphically into ``U(m, r)``.

The search is forward checking (Haralick and Elliott, 1980) over colorings
with colors in first-use order: a vertex takes a color in use or the next
one.  Each vertex keeps the colors it may still take.  Coloring a vertex
removes its color at its neighbors, and a neighbor that comes to show
``r - 1`` colors cuts its own neighbors down to those: both drop only
colors that no extension can use, so a vertex left with none ends the
branch.  The next vertex is the uncolored one with the fewest allowed
colors per degree (dom/deg, Bessiere and Regin, 1996), ties to the higher
degree, then to breadth-first order.  First-use order stays a complete
symmetry reduction under this choice, as under any choice that reads only
the partial coloring: colors not yet used are interchangeable there, so
any local coloring can be renamed, vertex by vertex along the search's own
path, into one the search reaches.  So NONE is a proof of nonexistence.  A
node is one color tried at one vertex.  T(G0') has no local 4-coloring:
NONE in 8,740-13,703 nodes with 5 colors (seven seeded renamings), 14,687
with all 65; T(G1') in 384,733 with all 75.  The breadth-first kernel
before this one stopped at 2*10^6 nodes on both.  A FOUND coloring is
re-checked by ``coloring_violation``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from math import comb, lcm

from .errors import InputError, InternalConsistencyError

FOUND = "FOUND"
NONE = "NONE"
BUDGET_EXCEEDED = "BUDGET-EXCEEDED"

# The node limit of a search without a budget: an int, so the budget test
# compares two ints, and more nodes than any search can visit.
_NO_BUDGET = 1 << 62

# The largest graph whose search copies its lists at a branching level and
# picks each vertex with one max(); a larger one keeps a trail and a heap.
# Searches that backtrack much (psi and r = 3..5 at a 30,000-node budget)
# copy 1.3-2.2x faster up to 169 vertices and 1.4-1.5x slower at 310-348;
# those that find a coloring early are faster on the trail from 64 vertices.
_COPY_MAX_VERTICES = 200

_U_MAX_ADJACENCY = 10**5  # the most vertex-neighbor pairs that build_U lists


@dataclass
class Coloring:
    """Total assignment vertex -> color in 1..m."""

    assignment: dict
    m: int

    def __post_init__(self):
        for v, c in self.assignment.items():
            if not 1 <= c <= self.m:
                raise InputError(f"color {c} of {v!r} outside 1..{self.m}")


def neighbor_sets(G):
    """Adjacency as vertex -> frozenset: a map's or a UGraph's as it is, a
    dict's converted, once it is checked to be non-empty and symmetric."""
    if not isinstance(G, dict):
        return G.adjacency
    adj = {v: frozenset(ns) for v, ns in G.items()}
    if not adj:
        raise InputError("adjacency has no vertices")
    for v, ns in adj.items():
        if any(v not in adj.get(w, ()) for w in ns):
            raise InputError(f"adjacency is not symmetric at {v!r}")
    return adj


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
        raise InputError(f"coloring is not total, vertex {missing[0]!r} uncolored")
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
    # m * (m - 1) * C(m - 2, r - 2)**2 adjacencies; m is bounded before comb() runs
    if m * (m - 1) > _U_MAX_ADJACENCY or m * (m - 1) * comb(m - 2, r - 2) ** 2 > _U_MAX_ADJACENCY:
        raise InputError(f"U({m}, {r}) has more than {_U_MAX_ADJACENCY} adjacencies")
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
        raise InputError(f"not a local {r}-coloring: {violation}")
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
            raise InputError("cannot pad neighborhood colors, m too small")
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
    ranking: tuple

    def certificate_text(self) -> str:
        lines = [
            "# quadloc-cert v1",
            f"search local-coloring r={self.r} m={self.m}",
            "rule forward-checking fewest-allowed-colors-per-degree",
            "ranking " + " ".join(self.ranking),
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


def _search_space(G):
    """The tie-break ranking (degree descending, then breadth-first order),
    per position its neighbors' positions, and per position the weight of
    one allowed color in its priority: minus ``n`` times a common multiple
    of the degrees over its degree, so fewer allowed colors per degree rank
    higher and each priority is minus its position modulo ``n``.  Every r of
    a psi run shares it."""
    adj = neighbor_sets(G)
    order = _search_order(adj)
    for v in order:
        if v in adj[v]:
            raise InputError(f"local colorings need a loopless graph, {v!r} has a loop")
    ranking = tuple(sorted(order, key=lambda v: -len(adj[v])))
    pos = {v: i for i, v in enumerate(ranking)}
    nbrs = tuple(tuple(map(pos.__getitem__, adj[v])) for v in ranking)
    scale = lcm(*(len(nb) or 1 for nb in nbrs)) * len(nbrs)
    return ranking, nbrs, tuple(-scale // (len(nb) or 1) for nb in nbrs)


def _forward_check(nbrs, weights, r: int, m: int, budget: int | None):
    """Depth-first walk of the canonical tree in one loop, one record per
    level, so depth is not bounded by the recursion limit; returns (status,
    nodes, colors by position).

    ``seen[v]`` holds the colors on the colored neighbors of ``v`` as bits,
    ``allowed[v]`` the colors of ``1..m`` it may still take (a colored
    vertex its own color alone, which no later cut changes), and ``prio[v]``
    is ``count * weights[v] - v`` for ``count`` allowed colors, or ``done``,
    below every other, once ``v`` is colored.  The vertex with the largest
    priority is colored next, with its allowed colors up to ``top``, one
    above the colors in use but never above ``m``, lowest first; a placement
    makes the two cuts and fails at the first empty allowed mask.  Up to
    ``_COPY_MAX_VERTICES`` vertices a placement with a color left to try
    writes into copies of the three lists and the last color into the lists
    themselves, so backtracking restores the saved lists.  A larger graph
    has one set of lists: a placement saves each vertex's values on a trail
    before it writes them, backtracking pops the trail back to the level's
    mark, and the next vertex comes off a heap of the priorities that drops
    stale entries as they surface.  Every color tried is one node, the
    skipped infeasible ones and the failed placements included, so a budget
    stops at exactly ``budget + 1`` nodes.
    """
    n = len(nbrs)
    limit = budget if budget is not None else _NO_BUDGET
    full = r - 1
    every = (2 << m) - 2
    # at r = 1 a vertex may show no color, so no vertex with a neighbor has one
    allowed = [every if full or not nb else 0 for nb in nbrs]
    prio = [a.bit_count() * w - v for v, (a, w) in enumerate(zip(allowed, weights))]
    done = m * min(weights) - n
    seen = [0] * n
    copying = n <= _COPY_MAX_VERTICES
    trail = []
    heap = [] if copying else sorted(-p for p in prio)  # a sorted list is a heap
    pushed = 0  # the trail entries whose vertices' priorities are on the heap
    levels = [None] * n  # per level: vertex, lists, trail mark, untried, top, color
    nodes = i = 0
    top = 1
    while True:
        if copying:
            v = -max(prio) % n
        else:
            for e in trail[pushed:]:
                heappush(heap, -prio[e[0]])
            pushed = len(trail)
            while prio[heap[0] % n] != -heap[0]:
                heappop(heap)
            v = heap[0] % n
        a = allowed[v] & ((2 << top) - 2)
        k = 0
        while True:
            if a:
                low = a & -a
                a ^= low
                c = low.bit_length() - 1
                nodes += c - k
                if nodes > limit:
                    return BUDGET_EXCEEDED, budget + 1, None
                levels[i] = v, seen, allowed, prio, len(trail), a, top, c
                if not copying:
                    trail.append((v, seen[v], allowed[v], prio[v]))
                elif a:
                    seen, allowed, prio = seen.copy(), allowed.copy(), prio.copy()
                allowed[v] = low
                prio[v] = done
                for w in nbrs[v]:
                    s = seen[w]
                    if s & low:
                        continue
                    aw = allowed[w]
                    if not copying:
                        trail.append((w, s, aw, prio[w]))
                    if aw & low:
                        if aw == low:
                            break
                        allowed[w] = aw ^ low
                        prio[w] -= weights[w]
                    seen[w] = s = s | low
                    if s.bit_count() != full:
                        continue
                    for x in nbrs[w]:
                        ax = allowed[x]
                        cut = ax & s
                        if cut != ax:
                            if not cut:
                                break
                            if not copying:
                                trail.append((x, seen[x], ax, prio[x]))
                            allowed[x] = cut
                            prio[x] = cut.bit_count() * weights[x] - x
                    else:
                        continue
                    break
                else:
                    break
                k = c
                seen, allowed, prio, mark = levels[i][1:5]
            else:
                nodes += top - k
                if nodes > limit:
                    return BUDGET_EXCEEDED, budget + 1, None
                i -= 1
                if i < 0:
                    return NONE, nodes, None
                v, seen, allowed, prio, mark, a, top, k = levels[i]
            while len(trail) > mark:
                w, seen[w], allowed[w], prio[w] = trail.pop()
                heappush(heap, -prio[w])
            if pushed > mark:
                pushed = mark
        i += 1
        if i == n:
            return FOUND, nodes, [x.bit_length() - 1 for x in allowed]
        if c == top < m:
            top += 1


def _search(G, space, r: int, m: int, budget: int | None) -> SearchOutcome:
    ranking, nbrs, weights = space
    # first-use order never opens more colors than there are vertices
    status, nodes, colors = _forward_check(nbrs, weights, r, min(m, len(nbrs)), budget)
    if status != FOUND:
        return SearchOutcome(status, None, nodes, r, m, ranking)
    c = Coloring(dict(zip(ranking, colors)), m)
    violation = coloring_violation(G, c, r)
    if violation is not None:
        raise InternalConsistencyError(f"search produced an invalid coloring: {violation}")
    return SearchOutcome(FOUND, c, nodes, r, m, ranking)


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
        raise InputError("coloring is not proper")
    for face in G.faces:
        walk = G.face_vertex_walk(face)
        if len(walk) == 4 and len({c.assignment[v] for v in walk}) == 4:
            return face
    return None
