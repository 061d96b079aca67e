"""Quadrangulation structure: parity, cycle parity map, auxiliary graph,
degree excess, and the surgeries that raise genus or reshuffle faces.

Parity comes in two equivalent computations.  The direct one orients every
face arbitrarily and counts edges traversed twice in the same direction.
The second orients the *edges* and counts odd faces (three boundary edges
one way, one the other); both parities agree for every edge orientation.

The cycle parity map assigns each homology class the length parity of its
closed walks; evaluated against the one-sidedness functional it yields the
four types PHI0..PHI3.  Both are read off the 2 - chi cycles of
``EmbeddedGraph.cut_system``, the fundamental cycles in the map's one tree,
``EmbeddedGraph.spanning_tree``, of the edges left over by a dual tree.  The
one sign propagation down that tree, ``surface_map.switching_defect``,
decides orientability and both halves of the PHI3 certificate check.

A crosscap site is an edge whose two ``edge_slots`` faces are distinct
quadrilaterals with a two-colored union; the site test, the candidate list
and the crosscap surgery's post-check all read one lazy scan over edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import InputError, InternalConsistencyError
from .localcolor import Coloring, coloring_violation, is_local_coloring
from .surface_map import (
    EmbeddedGraph,
    FaceListComplex,
    SurfaceClass,
    assemble_embedding,
    classify_surface,
    fresh_name,
    merge_faces,
    rebuild,
    switching_defect,
)

EVEN = "even"
ODD = "odd"


def require_quadrangulation(G: EmbeddedGraph):
    if G.has_loop():
        raise InputError("quadrangulations are loopless")
    bad = [len(f.tails) for f in G.faces if len(f.tails) != 4]
    if bad:
        raise InputError(f"face of length {bad[0]} present")


def quad_parity(G: EmbeddedGraph) -> str:
    """Parity of the number of consistency-breaking edges.

    An edge breaks consistency iff its two face slots traverse it in the
    same direction; the count's parity does not depend on how the faces
    were oriented.
    """
    require_quadrangulation(G)
    # every edge has two slots, with the tails d and pairing[d] when they
    # traverse it in opposite directions and d twice when they agree
    tails = set(chain.from_iterable(f.tails for f in G.faces))
    return ODD if (G.n_darts - len(tails)) % 2 else EVEN


def color_order_orientation(G: EmbeddedGraph, c: Coloring):
    """Head dart per edge, orienting each edge toward its larger color."""
    heads = {}
    for k, d in enumerate(G.edge_reps):
        u, w = G.vertex_of[d], G.vertex_of[G.pairing[d]]
        if c.assignment[u] == c.assignment[w]:
            raise InputError(f"edge {u}-{w} has equal end colors; orientation undefined")
        heads[k] = G.pairing[d] if c.assignment[u] < c.assignment[w] else d
    return heads


def odd_faces_parity(G: EmbeddedGraph, orientation):
    """Parity of the number of odd faces under an edge orientation.

    ``orientation`` maps every edge index to its head dart.  A face is odd
    when its boundary traverses an odd number of edges with (equivalently,
    against) their orientation.  Returns ``(parity, odd_face_count)``; the
    parity equals :func:`quad_parity` for every orientation.
    """
    require_quadrangulation(G)
    if sorted(orientation) != list(range(G.n_edges)):
        raise InputError("orientation must pick a head dart for every edge")
    for k, h in orientation.items():
        if G.edge_of[h] != k:
            raise InputError(f"dart {h} does not belong to edge {k}")
    odd_count = 0
    for f in G.faces:
        aligned = sum(1 for d in f.tails if orientation[G.edge_of[d]] == G.pairing[d])
        if aligned % 2:
            odd_count += 1
    return (ODD if odd_count % 2 else EVEN), odd_count


def increasing_color_quad_faces(G: EmbeddedGraph, c: Coloring):
    """Quadrilateral faces whose colors read strictly increasing in some
    cyclic direction; these are exactly the odd faces of the color-order
    orientation."""
    out = []
    for i, f in enumerate(G.faces):
        if len(f) != 4:
            continue
        cols = [c.assignment[v] for v in G.face_vertex_walk(f)]
        hits = False
        for seq in (cols, cols[::-1]):
            for r in range(4):
                rot = seq[r:] + seq[:r]
                if rot[0] < rot[1] < rot[2] < rot[3]:
                    hits = True
        if hits:
            out.append(i)
    return out


# -- cycle parity map ---------------------------------------------------------


@dataclass(frozen=True)
class BasisCycle:
    cotree_edge: int
    edges: tuple  # edge indices around the fundamental cycle

    def __len__(self):
        return len(self.edges)


@dataclass
class ParityProfile:
    parity: str | None          # quadrangulation parity, when applicable
    surface: SurfaceClass
    basis: tuple                # BasisCycle per leftover edge of G.cut_system
    phi_values: tuple           # length parity bit per basis cycle
    w1_values: tuple            # one-sidedness bit per basis cycle
    phi_type: str | None

    def certificate_text(self, G: EmbeddedGraph) -> str:
        lines = ["# quadloc-cert v1", "cycle-parity profile"]
        lines.append(f"surface {self.surface.describe()}")
        lines.append(f"quad-parity {self.parity if self.parity else 'n/a'}")
        for cyc, phi, w1 in zip(self.basis, self.phi_values, self.w1_values):
            edges = " ".join("%s~%s" % G.edges[k] for k in cyc.edges)
            lines.append(f"cycle {cyc.cotree_edge} : {edges} phi={phi} w1={w1}")
        lines.append(f"type {self.phi_type if self.phi_type else 'n/a'}")
        return "\n".join(lines) + "\n"


def _fundamental_cycle(G, via, depth, k):
    """The cycle closed by cotree edge ``k``: climb from both of its ends,
    always from the deeper one, until they meet."""
    d = G.edge_reps[k]
    u, w = G.vertex_of[d], G.vertex_of[G.pairing[d]]
    edges = [k]
    while u != w:
        if depth[u] < depth[w]:
            u, w = w, u
        d = via[u]
        edges.append(G.edge_of[d])
        u = G.vertex_of[d]
    return BasisCycle(k, tuple(sorted(edges)))


def cycle_parity_profile(G: EmbeddedGraph) -> ParityProfile:
    """Length-parity and one-sidedness bits on a homology basis.

    Requires every face even.  The basis is the fundamental cycles in
    ``G.spanning_tree`` of the 2 - chi leftover edges of ``G.cut_system``,
    and it is exact: a face boundary has even length and sign product +1
    (its walk returns to its starting side), so the length parity phi and
    the one-sidedness w1 vanish on face boundaries and are functionals on
    H1(S; Z2).  Peeling the dual tree from its leaves writes the cycle of
    each of its edges as faces plus leftover cycles, so these 2 - chi cycles
    span H1(S; Z2), of dimension 2 - chi, and phi vanishes, or equals w1,
    on H1 iff it does on them.  The type is attached for quadrangulations
    of non-orientable surfaces; orientable input gets the parity map alone.
    """
    lengths = [len(f.tails) for f in G.faces]
    if any(k % 2 for k in lengths):
        raise InputError("parity map undefined: odd face present")
    via = G.spanning_tree
    depth = {}
    for w, d in via.items():
        depth[w] = 0 if d is None else depth[G.vertex_of[d]] + 1
    basis = tuple(_fundamental_cycle(G, via, depth, k) for k in G.cut_system[1])
    phi = tuple(len(cyc) % 2 for cyc in basis)
    w1 = tuple(
        sum(1 for e in cyc.edges if G.signature[e] < 0) % 2 for cyc in basis
    )
    sc = classify_surface(G)
    parity = None
    if not G.has_loop() and lengths.count(4) == len(lengths):
        parity = quad_parity(G)
    profile = ParityProfile(parity, sc, basis, phi, w1, None)
    if not sc.orientable and parity is not None:
        profile.phi_type = classify_phi_type(profile)
    return profile


def classify_phi_type(profile: ParityProfile) -> str:
    """PHI0 if the parity map vanishes; PHI3 if it equals the
    one-sidedness functional (this takes precedence, covering the genus-1
    coincidence); otherwise PHI1 for odd and PHI2 for even
    quadrangulations, by ``profile.parity``."""
    if profile.surface.orientable:
        raise InputError("type classification needs a non-orientable surface")
    if not any(profile.phi_values):
        return "PHI0"
    if profile.phi_values == profile.w1_values:
        return "PHI3"
    return "PHI1" if profile.parity == ODD else "PHI2"


@dataclass
class CertificateReport:
    passed: bool
    lines: tuple

    def text(self) -> str:
        head = "phi3-certificate: " + ("pass" if self.passed else "FAIL")
        return "\n".join((head,) + self.lines) + "\n"


def phi3_certificate(G: EmbeddedGraph, negative_edges) -> CertificateReport:
    """Check a one-sided-edge list certifying type PHI3.

    ``negative_edges`` lists vertex pairs, each naming one edge of ``G``.
    The certificate fails unless the listed set L is the negative edge set
    of some switching representative of ``G``: re-signing ``G`` by L must
    give a switching-trivial signature.  It then passes iff some 2-coloring
    of all vertices puts the ends of exactly the listed edges in one class,
    i.e. iff every cycle holds an even number of unlisted edges; G - L may
    be disconnected.  A pass implies every one-sided closed walk has odd
    length, i.e. PHI3.  Both questions go to :func:`switching_defect`; the
    second kind of FAIL names the edge whose fundamental cycle holds an odd
    number of unlisted edges.
    """
    listed = set()
    for u, w in negative_edges:
        ks = G.edges_between(str(u), str(w))
        if len(ks) != 1:
            raise InputError(f"edge {u}~{w} matches {len(ks)} edges of the map")
        listed.add(ks[0])

    E = G.edge_of
    resigned = [-s if E[d] in listed else s for d, s in enumerate(G.dart_sign)]
    if switching_defect(G, resigned) is not None:
        return CertificateReport(False, (
            "listed set is not the negative edge set of any switching representative",))
    k = switching_defect(G, [1 if e in listed else -1 for e in E])
    if k is not None:
        return CertificateReport(False, (
            "edge %s~%s closes a cycle with an odd number of unlisted edges" % G.edges[k],))
    return CertificateReport(True, (
        "graph minus listed edges bipartite: True",
        "every removed edge joins same-class vertices: True",
    ))


# -- auxiliary graph and excess -------------------------------------------------


@dataclass
class AuxiliaryGraph:
    vertices: tuple
    edges: tuple      # same-color diagonal pairs, with multiplicity
    face_tags: tuple  # per face: bichromatic | four-chromatic | other


def auxiliary_graph(G: EmbeddedGraph, c: Coloring):
    require_quadrangulation(G)
    if coloring_violation(G, c, G.n_vertices + 2) is not None:
        raise InputError("auxiliary graph needs a proper coloring")
    tags = []
    edges = []
    for f in G.faces:
        walk = G.face_vertex_walk(f)
        distinct = len({c.assignment[v] for v in walk})
        if distinct == 2:
            tags.append("bichromatic")
            for a, b in ((walk[0], walk[2]), (walk[1], walk[3])):
                edges.append(tuple(sorted((a, b))))
        elif distinct == 4:
            tags.append("four-chromatic")
        else:
            tags.append("other")
    for a, b in edges:
        if c.assignment[a] != c.assignment[b]:
            raise InternalConsistencyError("auxiliary edge joins unequal colors")
    return AuxiliaryGraph(G.vertices, tuple(sorted(edges)), tuple(tags))


@dataclass
class ExcessReport:
    per_vertex: dict
    total: int
    genus: int

    def text(self) -> str:
        lines = [f"total excess {self.total} = 4*(genus {self.genus} - 2)"]
        irregular = {v: e for v, e in sorted(self.per_vertex.items()) if e != 0}
        lines.append(f"irregular vertices: {len(irregular)}")
        return "\n".join(lines) + "\n"


def excess_report(G: EmbeddedGraph) -> ExcessReport:
    """Per-vertex degree excess over 4; the total must equal 4(g - 2) on a
    quadrangulation of the non-orientable genus-g surface."""
    require_quadrangulation(G)
    sc = classify_surface(G)
    if sc.orientable:
        raise InputError("excess identity applies to non-orientable surfaces")
    per = {v: G.degree(v) - 4 for v in G.vertices}
    total = sum(per.values())
    if total != 4 * (sc.genus - 2):
        raise InternalConsistencyError(
            f"excess identity violated: {total} != 4*({sc.genus} - 2) on a validated quadrangulation"
        )
    return ExcessReport(per, total, sc.genus)


# -- surgeries -------------------------------------------------------------------


def _crosscap_sites(G: EmbeddedGraph, c: Coloring, ks):
    """The crosscap sites among the edges ``ks``, lazily and in order; a
    face's color set is read when an edge first needs it."""
    faces, V, col = G.faces, G.vertex_of, c.assignment
    colors = {}
    for k in ks:
        (fa, _), (fb, _) = G.edge_slots[k]
        if fa != fb and len(faces[fa].tails) == len(faces[fb].tails) == 4:
            for f in (fa, fb):
                if f not in colors:
                    colors[f] = {col[V[d]] for d in faces[f].tails}
            if len(colors[fa] | colors[fb]) == 2:
                yield k


def is_crosscap_site(G: EmbeddedGraph, c: Coloring, k: int) -> bool:
    """Whether ``k`` is an edge of G and a crosscap site; only its two faces are read."""
    return 0 <= k < G.n_edges and k in _crosscap_sites(G, c, (k,))


def find_crosscap_candidates(G: EmbeddedGraph, c: Coloring):
    """The crosscap sites of G, in canonical edge order."""
    return list(_crosscap_sites(G, c, range(G.n_edges)))


def crosscap_hexagon(G: EmbeddedGraph, c: Coloring, shared_edge: int):
    """Replace two adjacent two-colored quadrilaterals by a crosscap.

    The shared edge is removed, restoring a hexagonal region, and the three
    main diagonals are drawn through a crosscap added in its middle.  The
    genus rises by one, an odd quadrangulation stays odd, and the coloring
    still locally 3-colors the result.
    """
    parity_before = quad_parity(G)
    # local 3 implies proper, and a failed test names an improper edge first
    violation = coloring_violation(G, c, 3)
    if violation is not None and violation[0] == "edge":
        raise InputError("crosscap surgery needs a proper coloring")
    if not is_crosscap_site(G, c, shared_edge):
        raise InputError("shared edge must bound two distinct quadrilaterals with a two-colored union")
    was_local3 = violation is None
    sc_before = classify_surface(G)

    # merge the two quadrilaterals into a hexagon walk
    f1, f2, hexagon = merge_faces(G, shared_edge)

    # three diagonals through the crosscap: diagonal j joins walk positions
    # j and j+3, with dart n+2j at position j and n+2j+1 at j+3.
    # The region between consecutive diagonals glues across the crosscap
    # into the quadrilateral x_i, x_{i+1}, x_{i+4}, x_{i+3}: rim slot i,
    # then the position-(i+1) diagonal, rim slot i+3 reversed, diagonal i.
    n = G.n_darts
    diag_tail_at = (n, n + 2, n + 4, n + 1, n + 3, n + 5)
    faces = [f.tails for i, f in enumerate(G.faces) if i not in (f1, f2)]
    for i in range(3):
        faces.append([
            hexagon[i],
            diag_tail_at[i + 1],
            G.pairing[hexagon[i + 3]],
            diag_tail_at[(i + 3) % 6],
        ])
    ends = [(G.vertex_of[hexagon[j]], G.vertex_of[hexagon[j + 3]]) for j in range(3)]
    G2 = rebuild(G, faces, drop=[shared_edge], new_ends=ends)

    parity_after = quad_parity(G2)
    sc_after = classify_surface(G2)
    if sc_after.orientable or sc_after.euler_characteristic != sc_before.euler_characteristic - 1:
        raise InternalConsistencyError("crosscap must lower chi by exactly one")
    if parity_before == ODD and parity_after != ODD:
        raise InternalConsistencyError("crosscap lost the odd parity")
    if was_local3 and not is_local_coloring(G2, c, 3):
        raise InternalConsistencyError("crosscap broke the local 3-coloring")
    if next(_crosscap_sites(G2, c, range(G2.n_edges)), None) is None:
        raise InternalConsistencyError("crosscap left no two-colored face pair to repeat on")
    return G2, c


def refine_3x3(G: EmbeddedGraph, c: Coloring):
    """Subdivide each edge in three and each face into nine.

    Parity and surface are untouched, parallel edges disappear, and the
    coloring extends with the same color set: every new vertex copies the
    color of the old vertex across from it, the far end of its edge or the
    opposite corner of its face.  That makes the fold onto the original a
    graph homomorphism, so properness and locality carry over verbatim.
    """
    parity_before = quad_parity(G)
    if coloring_violation(G, c, G.n_vertices + 2) is not None:
        raise InputError("refinement extends a proper coloring only")
    sc_before = classify_surface(G)

    V, P = G.vertex_of, G.pairing
    taken = set(G.vertices)
    side = {}  # dart -> the new vertex on its edge next to its tail
    for k, d in enumerate(G.edge_reps):
        side[d] = fresh_name(f"e{k}a", taken)
        side[P[d]] = fresh_name(f"e{k}b", taken)

    # grid row/column 1 lies next to 0, 2 next to 3: the old vertex across
    # from grid point (r, s) is (across[r], across[s])
    across = (0, 3, 0, 3)
    faces = []
    colors = {}
    for fi, f in enumerate(G.faces):
        t0, t1, t2, t3 = f.tails
        i11, i12, i21, i22 = (fresh_name(f"f{fi}.{rs}", taken) for rs in ("11", "12", "21", "22"))
        grid = (
            (V[t0], side[t0], side[P[t0]], V[t1]),
            (side[P[t3]], i11, i12, side[t1]),
            (side[t3], i21, i22, side[P[t1]]),
            (V[t3], side[P[t2]], side[t2], V[t2]),
        )
        for r in range(4):
            for s in range(4):
                colors[grid[r][s]] = c.assignment[grid[across[r]][across[s]]]
        for r in range(3):
            for s in range(3):
                faces.append((grid[r][s], grid[r][s + 1], grid[r + 1][s + 1], grid[r + 1][s]))

    G2 = assemble_embedding(FaceListComplex.from_lists(faces))
    c2 = Coloring({v: colors[v] for v in G2.vertices}, c.m)

    if (G2.n_vertices, G2.n_edges, len(G2.faces)) != (
        G.n_vertices + 2 * G.n_edges + 4 * len(G.faces),
        3 * G.n_edges + 12 * len(G.faces),
        9 * len(G.faces),
    ):
        raise InternalConsistencyError("refinement counts V+2E+4F / 3E+12F / 9F violated")
    if classify_surface(G2) != sc_before:
        raise InternalConsistencyError("refinement changed the surface")
    if len(G2.edges_by_ends) != G2.n_edges:
        raise InternalConsistencyError("refinement left parallel edges")
    if quad_parity(G2) != parity_before:
        raise InternalConsistencyError("refinement changed the parity")
    r_in = 1 + max(
        (len({c.assignment[w] for w in G.adjacency[v]}) for v in G.vertices), default=0
    )
    if coloring_violation(G2, c2, r_in) is not None:
        raise InternalConsistencyError("refinement broke the coloring")
    return G2, c2


def identify_face_diagonal(G: EmbeddedGraph, c: Coloring, face_index: int):
    """Cut out a face with four distinct vertices and sew its equal-colored
    diagonal together: x is identified with z, edge xy with zy, xt with zt.
    The surface and the parity stay, the face count drops by one."""
    parity_before = quad_parity(G)
    if not 0 <= face_index < len(G.faces):
        raise InputError(f"face index {face_index} is out of range for {len(G.faces)} faces")
    if coloring_violation(G, c, G.n_vertices + 2) is not None:
        raise InputError("identification needs a proper coloring")
    face = G.faces[face_index]
    walk = list(face.tails)
    names = [G.vertex_of[d] for d in walk]
    if len(set(names)) != 4:
        raise InputError("identification needs four distinct face vertices")

    ends = [p for p in range(4) if c.assignment[names[p]] == c.assignment[names[p - 2]]]
    if not ends:
        raise InputError("no equal-colored diagonal on this face")
    # start the walk at the least vertex on an equal-colored diagonal
    i = min(ends, key=names.__getitem__)
    D = walk[i:] + walk[:i]  # D0 at x, D1 at y, D2 at z, D3 at t
    x, y, z, t = names[i:] + names[:i]
    sc_before = classify_surface(G)

    P = G.pairing
    remap = {D[1]: P[D[0]], P[D[1]]: D[0], D[2]: P[D[3]], P[D[2]]: D[3]}
    faces = [[remap.get(d, d) for d in f.tails] for i, f in enumerate(G.faces) if i != face_index]
    G2 = rebuild(
        G, faces, drop=[G.edge_of[D[1]], G.edge_of[D[2]]],
        vertex_of=[x if v == z else v for v in G.vertex_of],
    )

    if len(G2.faces) != len(G.faces) - 1:
        raise InternalConsistencyError("identification must remove exactly one face")
    if classify_surface(G2) != sc_before:
        raise InternalConsistencyError("identification changed the surface")
    if quad_parity(G2) != parity_before:
        raise InternalConsistencyError("identification changed the parity")
    c2 = Coloring({v: c.assignment[v] for v in G2.vertices}, c.m)
    if coloring_violation(G2, c2, G2.n_vertices + 2) is not None:
        raise InternalConsistencyError("identification broke properness")
    return G2, c2
