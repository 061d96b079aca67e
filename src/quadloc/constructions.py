"""The concrete embedded graphs the toolkit certifies.

``G0`` is U(5,3) minus its triangle edges, embedded with all 4-cycles as
quadrilateral faces and the two-colored 6-cycles as hexagonal faces; the
surface is the non-orientable one of genus 7.  ``G1`` is the analogous
subgraph of U(6,3) on the vertices (i, H) with exactly one of {1,2,3} in
H, giving genus 5.  Adding a main diagonal to every hexagon produces the
odd quadrangulations ``G0'`` and ``G1'``; crosscap surgery then raises the
genus one unit at a time, ending at U(5,3) itself (genus 17) resp. the
induced U(6,3) subgraph (genus 11) once every original hexagon has been
treated.

G0 and G1 are two rows of one table (m, vertex filter, face census,
(V, E, F), genus) that one builder reads; the tests read their edge and
vertex transitivity off ``surface_map.automorphisms``.  Face lists
are generated programmatically (4-cycle and two-colored 6-cycle censuses)
so the assembler's disk checks certify the embeddings; the 6-cycle census
cuts a path as soon as it shows a third color.  ``K4'``, K4 on the
projective plane, is the face list of K4's three Hamiltonian 4-cycles
through the same assembler.
"""
from __future__ import annotations

import sys
from itertools import combinations, islice

from .errors import InputError, InternalConsistencyError
from .localcolor import Coloring, build_U, is_local_coloring, u_vertex_name
from .quadform import (
    ODD,
    crosscap_hexagon,
    find_crosscap_candidates,
    is_crosscap_site,
    quad_parity,
)
from .surface_map import (
    EmbeddedGraph,
    FaceListComplex,
    assemble_embedding,
    canonical_walk,
    classify_surface,
    rebuild,
    split_face,
)


def four_cycles(adj):
    """All 4-cycles of a simple graph, as canonical vertex walks."""
    verts = sorted(adj)
    out = set()
    for u, w in combinations(verts, 2):
        common = sorted(adj[u] & adj[w])
        for a, b in combinations(common, 2):
            out.add(canonical_walk((u, a, w, b)))
    return sorted(out)


def six_cycles_two_colored(adj, coloring):
    """All 6-cycles showing exactly two colors, as canonical vertex walks.

    Simple paths from their least vertex are grown depth first; a path is
    cut as soon as it shows a third color, since colors only accumulate.
    """
    out = set()
    nbrs = {v: sorted(adj[v]) for v in sorted(adj)}
    for start in nbrs:
        stack = [(start, [start], {coloring[start]})]
        while stack:
            v, path, colors = stack.pop()
            if len(path) == 6:
                if start in adj[v] and len(colors) == 2:
                    out.add(canonical_walk(path))
                continue
            for w in nbrs[v]:
                if w > start and w not in path and (len(colors) < 2 or coloring[w] in colors):
                    stack.append((w, path + [w], colors | {coloring[w]}))
    return sorted(out)


# name: (m, vertex filter on (i, A) in U(m,3), quad faces, hexagon faces,
#        (V, E, F), non-orientable genus)
_U_ROWS = {
    "g0": (5, lambda i, A: True, 15, 10, (30, 60, 25), 7),
    "g1": (6, lambda i, A: len(A & {1, 2, 3}) == 1, 27, 6, (36, 72, 33), 5),
}


def _build_u_row(name: str):
    """Assemble a row, the filtered vertices of U(m,3) without its triangle
    edges, from its face census, check its surface, and give it the natural
    coloring (i, A) -> i."""
    m, keep, n_quads, n_hexes, census, genus = _U_ROWS[name]
    U = build_U(m, 3)
    natural = {u_vertex_name(i, A): i for (i, A) in U.vertices if keep(i, A)}
    adj = {
        v: {w for w in U.adjacency[v] if w in natural and frozenset((v, w)) not in U.triangle_edges}
        for v in natural
    }
    quads = four_cycles(adj)
    hexes = six_cycles_two_colored(adj, natural)
    if len(quads) != n_quads or len(hexes) != n_hexes:
        raise InternalConsistencyError(
            f"face census {len(quads)}+{len(hexes)} != {n_quads}+{n_hexes}"
        )
    G = assemble_embedding(FaceListComplex.from_lists(quads + hexes))
    sc = classify_surface(G)
    if (G.n_vertices, G.n_edges, len(G.faces)) != census or sc.orientable or sc.genus != genus:
        raise InternalConsistencyError(f"{name.upper()} census failed")
    return G, Coloring({v: natural[v] for v in G.vertices}, m)


def build_G0():
    """U(5,3) without triangle edges on the non-orientable genus-7 surface."""
    return _build_u_row("g0")


def build_G1():
    """The U(6,3) subgraph on vertices (i, H) with |H ∩ {1,2,3}| = 1,
    without triangle edges, on the non-orientable genus-5 surface."""
    return _build_u_row("g1")


def add_main_diagonals(G: EmbeddedGraph, c: Coloring):
    """Add to every hexagonal face, in canonical hexagon order, the main
    diagonal with the lexicographically least endpoint pair.  Any choice of
    main diagonals yields an odd quadrangulation and keeps the natural
    coloring local-3."""
    hex_walks = sorted(tuple(G.face_vertex_walk(f)) for f in G.faces if len(f) == 6)
    out = G
    diagonals = []
    for walk in hex_walks:
        idx = next(
            i for i, f in enumerate(out.faces)
            if len(f) == 6 and tuple(out.face_vertex_walk(f)) == walk
        )
        j = min(range(3), key=lambda j: tuple(sorted((walk[j], walk[j + 3]))))
        ends = (walk[j], walk[j + 3])
        # One rebuild per hexagon: splitting all of them in one rebuild gives
        # a switching-equivalent map, but with the rotation reversed at three
        # vertices of G0' and of G1', which would change their golden files.
        faces = [f.tails for k, f in enumerate(out.faces) if k != idx]
        faces += split_face(out.faces[idx].tails, j, j + 3, out.n_darts)
        out = rebuild(out, faces, new_ends=[ends])
        diagonals.append(tuple(sorted(ends)))
    c2 = Coloring(dict(c.assignment), c.m)
    if quad_parity(out) != ODD:
        raise InternalConsistencyError("diagonal insertion must give an odd quadrangulation")
    if not is_local_coloring(out, c2, 3):
        raise InternalConsistencyError("natural coloring must stay local-3")
    return out, c2, diagonals


def build_G0_prime():
    return add_main_diagonals(*_build_u_row("g0"))[:2]


def build_G1_prime():
    return add_main_diagonals(*_build_u_row("g1"))[:2]


def g1_prime_negative_edges():
    """The twelve one-sided edges certifying that G1' has type PHI3."""
    pairs = (
        ((2, (3, 5)), (3, (2, 6))),
        ((2, (3, 6)), (3, (2, 5))),
        ((5, (2, 6)), (6, (3, 5))),
        ((5, (3, 6)), (6, (2, 5))),
        ((3, (1, 4)), (4, (3, 5))),
        ((3, (1, 4)), (4, (3, 6))),
        ((1, (2, 6)), (6, (1, 4))),
        ((1, (3, 6)), (6, (1, 4))),
        ((1, (2, 5)), (5, (1, 4))),
        ((1, (3, 5)), (5, (1, 4))),
        ((2, (1, 4)), (4, (2, 5))),
        ((2, (1, 4)), (4, (2, 6))),
    )
    return tuple(
        (u_vertex_name(i, set(a)), u_vertex_name(j, set(b))) for (i, a), (j, b) in pairs
    )


def g1_prime_certificate_edges(G: EmbeddedGraph):
    """The twelve-edge one-sided list completed by the diagonal signs it
    forces on a quadrangulation G1'.

    Around every face of a rotation-signature representation the number of
    negative edges is even (the sign accumulator returns to its start).
    Two hexagons of G1 carry their two listed edges at antipodal rim
    positions, so whichever main diagonal splits them leaves one listed
    edge on each quadrilateral; that diagonal must then be negative too.
    The bare list is therefore not a valid negative set for any diagonal
    choice; the completed one is.  The forced diagonals are the unlisted
    edges whose two ``edge_slots`` faces both hold an odd listed count.
    """
    listed = g1_prime_negative_edges()
    listed_ks = {k for u, w in listed for k in G.edges_between(u, w)}
    odd = [sum(G.edge_of[d] in listed_ks for d in f.tails) % 2 for f in G.faces]
    forced = tuple(sorted(G.edges[k] for k, ((fa, _), (fb, _)) in enumerate(G.edge_slots)
                          if odd[fa] and odd[fb] and k not in listed_ks))
    if len(forced) != sum(odd) // 2:
        raise InternalConsistencyError("certificate completion did not find one diagonal per face pair")
    return tuple(listed) + forced


def build_K4_projective():
    """K4 with three quadrilateral faces on the projective plane.

    The faces are K4's three Hamiltonian 4-cycles, so the assembler checks
    that they trace back exactly; switching at 2, 3 and 4 then makes every
    rotation list the other three vertices in ascending order.
    """
    faces = [("1", "2", "3", "4"), ("1", "3", "4", "2"), ("1", "4", "2", "3")]
    G = assemble_embedding(FaceListComplex.from_lists(faces)).switched(("2", "3", "4"))
    sc = classify_surface(G)
    if sc.orientable or sc.genus != 1:
        raise InternalConsistencyError("K4 must quadrangulate the projective plane")
    if quad_parity(G) != ODD:
        raise InternalConsistencyError("K4 on the projective plane must be odd")
    return G, Coloring({v: int(v) for v in G.vertices}, 4)


def high_genus_family(base: str):
    """G0' or G1' (``base`` 'g0p' or 'g1p') with its coloring, then each
    crosscap surgery step above it, one genus at a time.

    The first steps treat each original hexagon once, in the order of
    ``add_main_diagonals`` (removing its diagonal and drawing all three
    through a crosscap); after the last one the underlying graph is exactly
    U(5,3) resp. the induced U(6,3) subgraph.  Later steps take the first
    admissible two-colored face pair in canonical edge order.
    ``crosscap_hexagon`` checks that each step adds one crosscap and leaves
    such a pair to repeat on.
    """
    if base not in ("g0p", "g1p"):
        raise InputError("base must be 'g0p' or 'g1p'")
    G, c, diagonals = add_main_diagonals(*_build_u_row(base[:-1]))
    yield G, c
    for u, w in diagonals:
        ks = G.edges_between(u, w)
        if len(ks) != 1 or not is_crosscap_site(G, c, ks[0]):
            raise InternalConsistencyError("hexagon diagonal is not one edge of a two-colored face pair")
        G, c = crosscap_hexagon(G, c, ks[0])
        yield G, c
    while True:
        G, c = crosscap_hexagon(G, c, find_crosscap_candidates(G, c)[0])
        yield G, c


def build_high_genus_family(base: str, extra_genus: int):
    """Member ``extra_genus`` (0 to ``sys.maxsize``) of ``high_genus_family(base)``."""
    if extra_genus < 0:
        raise InputError("extra_genus must be non-negative")
    if extra_genus > sys.maxsize:
        raise InputError(f"extra_genus must be at most {sys.maxsize}, got {extra_genus}")
    return next(islice(high_genus_family(base), extra_genus, None))

