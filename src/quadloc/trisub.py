"""Face subdivisions of quadrangulations and parity checks on
triangulations with locally 4-colorable structure.

The face subdivision T(Q) adds a hub vertex inside each quadrilateral and
joins it to the four boundary vertices.  Around a vertex of a local
4-coloring, the link is a cycle on at most three colors; its winding number
around the color triangle is congruent to the vertex degree mod 2.  That
congruence propagates to the triangle-count identities checked by
:func:`fisk_check` on triangulations with at most two odd-degree vertices.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import InputError, InternalConsistencyError
from .localcolor import (
    NONE,
    Coloring,
    coloring_violation,
    is_local_coloring,
    search_local_coloring,
)
from .quadform import require_quadrangulation
from .surface_map import (
    EmbeddedGraph,
    FaceListComplex,
    assemble_embedding,
    classify_surface,
    fresh_name,
    merge_faces,
    rebuild,
    split_face,
)


@dataclass
class Triangulation:
    graph: EmbeddedGraph
    odd_vertices: tuple

    @staticmethod
    def wrap(G: EmbeddedGraph) -> "Triangulation":
        if any(len(f.tails) != 3 for f in G.faces):
            raise InputError("not a triangulation")
        odd = tuple(v for v in G.vertices if G.degree(v) % 2)
        if len(odd) % 2:
            raise InternalConsistencyError("odd-degree vertices must pair up")
        return Triangulation(G, odd)


def face_subdivision(Q: EmbeddedGraph):
    """Hub each quadrilateral: V + F vertices, E + 4F edges, 4F triangles.

    Returns ``(Triangulation, origin)`` where origin tags each vertex
    ``base`` or ``hub``.
    """
    require_quadrangulation(Q)
    taken = set(Q.vertices)
    hubs = [fresh_name(f"h{i}", taken) for i in range(len(Q.faces))]

    # slot s = 4i + pos of face i gets spoke s, new edge s: dart n + 2s at
    # the rim vertex, n + 2s + 1 at the hub.  Its triangle runs along the
    # slot, back in along the next spoke of the face and out along its own.
    n = Q.n_darts
    rim = list(chain.from_iterable(f.tails for f in Q.faces))
    back = list(range(n + 2, n + 2 * len(rim) + 2, 2))
    back[3::4] = range(n, n + 2 * len(rim), 8)
    out = range(n + 1, n + 2 * len(rim), 2)
    ends = list(zip([Q.vertex_of[d] for d in rim], chain.from_iterable(zip(hubs, hubs, hubs, hubs))))
    G = rebuild(Q, list(zip(rim, back, out)), new_ends=ends)

    if (G.n_vertices, G.n_edges, len(G.faces)) != (
        Q.n_vertices + len(Q.faces),
        Q.n_edges + 4 * len(Q.faces),
        4 * len(Q.faces),
    ):
        raise InternalConsistencyError("subdivision counts V+F / E+4F / 4F violated")
    if classify_surface(G) != classify_surface(Q):
        raise InternalConsistencyError("face subdivision changed the surface")
    hub_names = set(hubs)
    origin = {v: ("hub" if v in hub_names else "base") for v in G.vertices}
    return Triangulation.wrap(G), origin


def extend_coloring_to_subdivision(Q: EmbeddedGraph, c: Coloring, T: Triangulation, origin) -> Coloring:
    """Color every hub with one fresh color: a local (r+1)-coloring of T(Q)
    whenever ``c`` was a local r-coloring of Q."""
    fresh = c.m + 1
    assignment = {}
    for v in T.graph.vertices:
        assignment[v] = fresh if origin[v] == "hub" else c.assignment[v]
    return Coloring(assignment, fresh)


def vertex_link(G: EmbeddedGraph, v: str):
    """Neighbors of ``v`` in rotation order; consecutive ones must be
    adjacent (they span a triangle with v)."""
    link = [G.vertex_of[G.pairing[d]] for d in G.darts_at[v]]
    for i, u in enumerate(link):
        w = link[(i + 1) % len(link)]
        if w not in G.adjacency[u]:
            raise InputError(f"link of {v} is not a cycle; not a triangulation")
    return link


def link_winding(T: Triangulation, c: Coloring, v: str) -> int:
    """Winding number of the link's coloring around the color triangle.

    The at-most-three colors on the link are arranged in increasing order
    on a 3-cycle; each link step moves one position forward (+1) or back
    (-1).  The result is an integer congruent to deg(v) mod 2.
    """
    G = T.graph
    link = vertex_link(G, v)
    cols = sorted({c.assignment[u] for u in link})
    if len(cols) > 3:
        raise InputError(f"link of {v} shows {len(cols)} colors; not local-4 there")
    pos = {col: i for i, col in enumerate(cols)}
    total = 0
    for i, u in enumerate(link):
        w = link[(i + 1) % len(link)]
        a, b = c.assignment[u], c.assignment[w]
        if a == b:
            raise InputError("coloring is not proper on a link edge")
        step = (pos[b] - pos[a]) % 3
        total += 1 if step == 1 else -1
    if total % 3 != 0:
        raise InternalConsistencyError("winding steps must close around the color triangle")
    w = total // 3
    if (w - G.degree(v)) % 2:
        raise InternalConsistencyError("winding parity must match the degree")
    return w


@dataclass
class FiskReport:
    odd_vertices: tuple
    colors_equal: bool | None
    neighbor_triples_equal: bool | None
    parity_rows: tuple

    def text(self) -> str:
        lines = [f"odd-degree vertices: {' '.join(self.odd_vertices) or 'none'}"]
        if self.colors_equal is not None:
            lines.append(f"odd vertices equally colored: {self.colors_equal}")
            lines.append(f"equal neighborhood color triples: {self.neighbor_triples_equal}")
        lines.append("triple  |T|%2  sums%2")
        for (i, j, k), t, sums in self.parity_rows:
            lines.append(f"{i},{j},{k}  {t}  {' '.join(str(s) for s in sums)}")
        return "\n".join(lines) + "\n"


def fisk_check(T: Triangulation, c: Coloring) -> FiskReport:
    """Checks on a local 4-coloring of a triangulation with at most two
    odd-degree vertices: the two odd vertices carry the same color and the
    same neighborhood color triple, and for every color triple i, j, k the
    triangle count and the three degree sums agree mod 2."""
    G = T.graph
    if len(T.odd_vertices) > 2:
        raise InputError("at most two odd-degree vertices allowed")
    violation = coloring_violation(G, c, 4)
    if violation is not None:
        raise InputError(f"needs a local 4-coloring, got violation {violation}")

    colors_equal = triples_equal = None
    if len(T.odd_vertices) == 2:
        x, y = T.odd_vertices
        colors_equal = c.assignment[x] == c.assignment[y]
        tx = {c.assignment[u] for u in G.adjacency[x]}
        ty = {c.assignment[u] for u in G.adjacency[y]}
        triples_equal = tx == ty
        if not (colors_equal and triples_equal):
            raise InternalConsistencyError(
                "odd vertices of a checked local 4-coloring must share color and neighborhood triple"
            )

    tri_colors = []
    for f in G.faces:
        walk = G.face_vertex_walk(f)
        tri_colors.append((frozenset(c.assignment[v] for v in walk), walk))
    used = sorted(set(c.assignment.values()))
    rows = []
    for i, j, k in combinations(used, 3):
        key = frozenset((i, j, k))
        faces_ijk = [walk for cols, walk in tri_colors if cols == key]
        t_par = len(faces_ijk) % 2
        sums = []
        for lead in (i, j, k):
            vs = {v for walk in faces_ijk for v in walk if c.assignment[v] == lead}
            sums.append(sum(G.degree(v) for v in vs) % 2)
        if any(s != t_par for s in sums):
            raise InternalConsistencyError(
                f"triangle-count congruence failed on colors {i},{j},{k}"
            )
        rows.append(((i, j, k), t_par, tuple(sums)))
    return FiskReport(T.odd_vertices, colors_equal, triples_equal, tuple(rows))


@dataclass
class TQBoundReport:
    search_status: str
    nodes: int
    lower_bound: int | None
    upper_witness: bool
    psi_exact: int | None

    def text(self) -> str:
        lines = [f"local 4-coloring search: {self.search_status} ({self.nodes} nodes)"]
        if self.lower_bound:
            lines.append(f"local chromatic number >= {self.lower_bound}")
        lines.append(f"hub-extension witness local-5: {self.upper_witness}")
        if self.psi_exact:
            lines.append(f"local chromatic number = {self.psi_exact}")
        return "\n".join(lines) + "\n"


def tq_lower_bound_check(Q: EmbeddedGraph, c: Coloring | None = None,
                         budget: int | None = None) -> TQBoundReport:
    """Face-subdivide Q and search exhaustively for a local 4-coloring.

    NONE proves the local chromatic number of T(Q) is at least five; a
    local 4-coloring of Q extended by a fresh hub color witnesses at most
    five, pinning it exactly."""
    T, origin = face_subdivision(Q)
    out = search_local_coloring(T.graph, 4, T.graph.n_vertices, budget)
    lower = 5 if out.status == NONE else None
    witness = False
    if c is not None:
        ext = extend_coloring_to_subdivision(Q, c, T, origin)
        witness = is_local_coloring(T.graph, ext, 5)
    exact = 5 if (lower == 5 and witness) else None
    return TQBoundReport(out.status, out.nodes, lower, witness, exact)


# -- flip walk: triangulations with two adjacent odd vertices -----------------


def torus_grid_triangulation(n: int, m: int) -> EmbeddedGraph:
    """6-regular triangulation of the torus on an n x m wrap-around grid."""
    if n < 3 or m < 3:
        raise InputError("grid needs n, m >= 3 to stay simple")
    faces = []
    for i in range(n):
        for j in range(m):
            v = f"{i}.{j}"
            r = f"{(i + 1) % n}.{j}"
            u = f"{i}.{(j + 1) % m}"
            ru = f"{(i + 1) % n}.{(j + 1) % m}"
            faces.append((v, r, ru))
            faces.append((v, ru, u))
    return assemble_embedding(FaceListComplex.from_lists(faces))


def _flippable(G: EmbeddedGraph, k: int):
    """A flip keeps the map a simple triangulation: two distinct triangle
    faces, opposite vertices distinct, not yet adjacent, endpoint degrees
    above 3."""
    d = G.edge_reps[k]
    u, w = G.vertex_of[d], G.vertex_of[G.pairing[d]]
    if u == w or G.degree(u) <= 3 or G.degree(w) <= 3:
        return None
    (f1, _), (f2, _) = G.edge_slots[k]
    if f1 == f2 or len(G.faces[f1]) != 3 or len(G.faces[f2]) != 3:
        return None
    opp1 = next(v for v in G.face_vertex_walk(G.faces[f1]) if v not in (u, w))
    opp2 = next(v for v in G.face_vertex_walk(G.faces[f2]) if v not in (u, w))
    if opp1 == opp2 or opp2 in G.adjacency[opp1]:
        return None
    return opp1, opp2


def flip_edge(G: EmbeddedGraph, k: int) -> EmbeddedGraph:
    """Replace the edge by the other diagonal of the union of its two
    triangles."""
    opp = _flippable(G, k)
    if opp is None:
        raise InputError("edge is not flippable")
    f1, f2, quad = merge_faces(G, k)
    walk = [G.vertex_of[d] for d in quad]
    i, j = sorted((walk.index(opp[0]), walk.index(opp[1])))
    faces = [f.tails for fi, f in enumerate(G.faces) if fi not in (f1, f2)]
    faces += split_face(quad, i, j, G.n_darts)
    return rebuild(G, faces, drop=[k], new_ends=[(walk[i], walk[j])])


_FISK_GRID = (3, 4)
_FISK_MAX_FLIPS = 4000


def find_fisk_triangulation(seed: int):
    """Random diagonal flips from the even 3 x 4 torus grid triangulation
    until exactly two odd-degree vertices remain and they are adjacent."""
    rng = random.Random(seed)
    G = torus_grid_triangulation(*_FISK_GRID)
    for step in range(_FISK_MAX_FLIPS):
        odd = [v for v in G.vertices if G.degree(v) % 2]
        if len(odd) == 2 and odd[1] in G.adjacency[odd[0]]:
            return Triangulation.wrap(G), step
        ks = [k for k in range(G.n_edges) if _flippable(G, k) is not None]
        if not ks:
            raise InternalConsistencyError("flip walk starved of flippable edges")
        G = flip_edge(G, rng.choice(ks))
    raise InputError(f"no two-adjacent-odd-vertex triangulation within {_FISK_MAX_FLIPS} flips")
