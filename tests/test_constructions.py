import random
import time
from collections import Counter
from itertools import islice, permutations
from pathlib import Path

import pytest

from quadloc import constructions
from quadloc.constructions import (
    add_main_diagonals,
    build_G0,
    build_G1,
    build_high_genus_family,
    four_cycles,
    g1_prime_negative_edges,
    high_genus_family,
    six_cycles_two_colored,
)
from quadloc.errors import InputError
from quadloc.localcolor import build_U, is_local_coloring, u_vertex_name
from quadloc.quadform import ODD, excess_report, quad_parity
from quadloc.surface_map import (
    FaceListComplex,
    assemble_embedding,
    automorphisms,
    canonical_walk,
    classify_surface,
)
from quadloc.textio import write_graph
from helpers import split_hexagons
from oracles import (
    brute_two_colored_six_cycles,
    is_map_automorphism,
    unpruned_two_colored_six_cycles,
)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def test_g0_census(g0):
    G, c = g0
    assert (G.n_vertices, G.n_edges, len(G.faces)) == (30, 60, 25)
    lengths = sorted(len(f) for f in G.faces)
    assert lengths.count(4) == 15 and lengths.count(6) == 10
    sc = classify_surface(G)
    assert (sc.orientable, sc.euler_characteristic, sc.genus) == (False, -5, 7)
    assert is_local_coloring(G, c, 3)


def test_g0_edges_lie_on_one_quad_and_one_hexagon(g0):
    G, _ = g0
    on_quad = [0] * G.n_edges
    on_hex = [0] * G.n_edges
    for f in G.faces:
        for d in f.tails:
            if len(f) == 4:
                on_quad[G.edge_of[d]] += 1
            else:
                on_hex[G.edge_of[d]] += 1
    assert all(q == 1 for q in on_quad)
    assert all(h == 1 for h in on_hex)


def test_g0_quad_faces_are_all_four_cycles(g0):
    G, _ = g0
    cycles = four_cycles(G.adjacency)
    assert len(cycles) == 15
    face_sets = {frozenset(G.face_vertex_walk(f)) for f in G.faces if len(f) == 4}
    assert {frozenset(c) for c in cycles} == face_sets


def test_g1_census(g1):
    G, c = g1
    assert (G.n_vertices, G.n_edges, len(G.faces)) == (36, 72, 33)
    lengths = sorted(len(f) for f in G.faces)
    assert lengths.count(4) == 27 and lengths.count(6) == 6
    sc = classify_surface(G)
    assert (sc.orientable, sc.euler_characteristic, sc.genus) == (False, -3, 5)
    assert is_local_coloring(G, c, 3)


def test_transitivity_checks(g0, g1):
    # G0 is edge-transitive and G1 vertex-transitive: the image of one dart
    # under the automorphism group meets every edge, resp. every vertex
    G0, G1 = g0[0], g1[0]
    assert {G0.edge_of[a[0]] for a in automorphisms(G0)} == set(range(G0.n_edges))
    assert {G1.vertex_of[a[0]] for a in automorphisms(G1)} == set(G1.vertices)


def test_primes_are_not_vertex_transitive(g0p, g1p):
    for G, _ in (g0p, g1p):
        group = automorphisms(G)
        assert all(is_map_automorphism(G, a) for a in group)
        assert len({G.vertex_of[a[0]] for a in group}) < G.n_vertices


def color_permutation_darts(G, m, keep):
    """The dart permutation each permutation of the colors 1..m induces on
    ``G``, a simple graph on vertices of U(m,3), over the permutations that
    ``keep`` accepts: (i, A) goes to (perm(i), perm(A))."""
    U = build_U(m, 3)
    pairs = {u_vertex_name(i, A): (i, A) for (i, A) in U.vertices}
    dart = {(G.vertex_of[d], G.vertex_of[G.pairing[d]]): d for d in range(G.n_darts)}
    for perm in permutations(range(1, m + 1)):
        image = {}
        for v in G.vertices:
            i, A = pairs[v]
            image[v] = u_vertex_name(perm[i - 1], {perm[a - 1] for a in A})
        if keep(set(image.values())):
            yield tuple(dart[image[u], image[w]] for u, w in dart)


def test_color_permutations_induce_the_automorphism_groups(g0, g1):
    # all 120 color permutations act on G0; on G1, the 72 that keep its
    # vertex set, those preserving or swapping the split {1,2,3} | {4,5,6}
    G0, G1 = g0[0], g1[0]
    from_colors = set(color_permutation_darts(G0, 5, lambda vs: True))
    assert len(from_colors) == 120 and from_colors == set(automorphisms(G0))
    from_colors = set(color_permutation_darts(G1, 6, lambda vs: vs == set(G1.vertices)))
    assert len(from_colors) == 72 and from_colors == set(automorphisms(G1))


def test_g0_prime(g0p):
    G, c = g0p
    assert quad_parity(G) == ODD
    sc = classify_surface(G)
    assert (sc.orientable, sc.genus) == (False, 7)
    assert is_local_coloring(G, c, 3)
    assert len(set(c.assignment.values())) == 5


def test_g1_prime(g1p):
    G, c = g1p
    assert quad_parity(G) == ODD
    sc = classify_surface(G)
    assert (sc.orientable, sc.genus) == (False, 5)
    assert is_local_coloring(G, c, 3)
    assert len(set(c.assignment.values())) == 6


def test_diagonals_are_triangle_edges_of_u(g0):
    G0, c0 = g0
    _out, _c, diagonals = add_main_diagonals(G0, c0)
    U = build_U(5, 3)
    for u, w in diagonals:
        assert frozenset((u, w)) in U.triangle_edges


def test_arbitrary_diagonal_choices_stay_odd(g0):
    rng = random.Random(42)
    G0, c0 = g0
    for _ in range(20):
        G = split_hexagons(G0, [rng.randrange(3) for _ in range(10)])
        assert quad_parity(G) == ODD
        assert is_local_coloring(G, c0, 3)


def test_k4_projective(k4p):
    G, c = k4p
    assert (G.n_vertices, G.n_edges, len(G.faces)) == (4, 6, 3)
    sc = classify_surface(G)
    assert (sc.orientable, sc.euler_characteristic, sc.genus) == (False, 1, 1)
    assert quad_parity(G) == ODD
    assert excess_report(G).total == -4
    # the faces are exactly K4's 4-cycles, in the ascending-rotation gauge
    walks = sorted(canonical_walk(G.face_vertex_walk(f)) for f in G.faces)
    assert walks == four_cycles(G.adjacency)
    for v, darts in G.darts_at.items():
        nbrs = [G.vertex_of[G.pairing[d]] for d in darts]
        assert nbrs == sorted(nbrs), v
    assert write_graph(G, c) == (GOLDEN / "k4p.txt").read_text()


def test_family_genus_increments(g1p):
    for k, (G, c) in enumerate(islice(high_genus_family("g1p"), 4)):
        sc = classify_surface(G)
        assert sc.genus == 5 + k
        assert quad_parity(G) == ODD
        assert is_local_coloring(G, c, 3)
        assert len(set(c.assignment.values())) == 6


def test_family_walks_one_chain(monkeypatch):
    calls = Counter()
    for name in ("add_main_diagonals", "crosscap_hexagon"):
        def counted(*args, _fn=getattr(constructions, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(constructions, name, counted)
    members = list(islice(high_genus_family("g0p"), 13))
    assert calls == {"add_main_diagonals": 1, "crosscap_hexagon": 12}
    # the chain's members are the ones the command line builds one at a time
    assert write_graph(*build_high_genus_family("g0p", 12)) == write_graph(*members[12])
    calls.clear()
    for base, top in (("g0p", 12), ("g1p", 8)):
        for _ in islice(high_genus_family(base), top + 1):
            pass
    assert calls == {"add_main_diagonals": 2, "crosscap_hexagon": 20}


def test_family_k0_is_the_prime(g1p):
    G, c = build_high_genus_family("g1p", 0)
    ref, _ = g1p
    assert {frozenset(e) for e in G.edges} == {frozenset(e) for e in ref.edges}
    assert classify_surface(G) == classify_surface(ref)


def test_family_rejects_negative():
    with pytest.raises(InputError):
        build_high_genus_family("g1p", -1)
    with pytest.raises(InputError):
        build_high_genus_family("nope", 1)


def test_negative_edge_list_names_g1_edges(g1):
    G, _ = g1
    for u, w in g1_prime_negative_edges():
        assert len(G.edges_between(u, w)) == 1


def test_six_cycle_census_matches_hexagons(g0):
    G, c = g0
    hexes = six_cycles_two_colored(G.adjacency, c.assignment)
    assert len(hexes) == 10
    face_sets = {frozenset(G.face_vertex_walk(f)) for f in G.faces if len(f) == 6}
    assert {frozenset(h) for h in hexes} == face_sets


def test_six_cycle_census_matches_unpruned_search_on_natural_colorings(g0, g1):
    for (G, c), n in ((g0, 10), (g1, 6)):
        hexes = six_cycles_two_colored(G.adjacency, c.assignment)
        assert len(hexes) == n
        assert hexes == unpruned_two_colored_six_cycles(G.adjacency, c.assignment)


def _random_colored_graph(rng, n, proper):
    names = [str(i) for i in range(n)]
    adj = {v: set() for v in names}
    for _ in range(rng.randint(n, 2 * n + 2)):
        u, w = rng.sample(names, 2)
        adj[u].add(w)
        adj[w].add(u)
    k = rng.randint(2, 5)
    coloring = {}
    for v in names:
        free = [x for x in range(1, k + 1)
                if not proper or all(coloring.get(w) != x for w in adj[v])]
        coloring[v] = rng.choice(free or range(1, k + 1))
    return adj, coloring


def test_six_cycle_census_matches_oracles_on_random_graphs():
    rng = random.Random(17)
    found = improper = 0
    for case in range(240):
        n = rng.randint(6, 14)
        adj, coloring = _random_colored_graph(rng, n, proper=case % 3 != 0)
        got = six_cycles_two_colored(adj, coloring)
        assert got == unpruned_two_colored_six_cycles(adj, coloring)
        if n <= 8:
            assert got == brute_two_colored_six_cycles(adj, coloring)
        found += bool(got)
        improper += any(coloring[v] == coloring[w] for v in adj for w in adj[v])
    assert found >= 40 and improper >= 40, (found, improper)


def test_six_cycle_census_of_g0_and_g1_is_fast(g0, g1):
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        for G, c in (g0, g1):
            six_cycles_two_colored(G.adjacency, c.assignment)
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 0.002, elapsed


def test_assembler_error_reports_vertex():
    faces = [("a", "b", "c"), ("a", "b", "c"), ("a", "d", "e"), ("a", "d", "e")]
    with pytest.raises(InputError, match="^vertex 'a' has no disk neighborhood$"):
        assemble_embedding(FaceListComplex.from_lists(faces))


def test_u_vertex_name_format():
    assert u_vertex_name(1, {2, 3}) == "1.23"
    assert u_vertex_name(4, {1, 5}) == "4.15"
