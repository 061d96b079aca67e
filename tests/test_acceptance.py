"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
happen.  All quantities are exact integers; every assertion is tolerance
zero.
"""
import random
import time
from itertools import combinations, islice

import pytest

from quadloc.constructions import (
    add_main_diagonals,
    build_G1,
    build_high_genus_family,
    g1_prime_certificate_edges,
    g1_prime_negative_edges,
    high_genus_family,
)
from quadloc.localcolor import (
    FOUND,
    NONE,
    Coloring,
    build_U,
    is_local_coloring,
    local_chromatic_number,
    search_local_coloring,
    u_vertex_name,
)
from quadloc.quadform import (
    EVEN,
    ODD,
    color_order_orientation,
    cycle_parity_profile,
    excess_report,
    increasing_color_quad_faces,
    odd_faces_parity,
    phi3_certificate,
    quad_parity,
)
from quadloc.semifree import (
    CommutationGraph,
    GroupWord,
    abelianize,
    is_identity,
    kneser_graph,
    reduce_word,
    verify_table,
    walk_label,
    x_pair,
)
from quadloc.surface_map import automorphisms, classify_surface
from quadloc.trisub import (
    Triangulation,
    face_subdivision,
    fisk_check,
    link_winding,
    torus_grid_triangulation,
    tq_lower_bound_check,
)
from helpers import bipyramid_over_c5, klein_bottle_grid, random_orientation, two_squares_sphere
from oracles import brute_local_coloring_exists, orbit_is_identity, piling_is_identity


def report(n, ok, detail):
    print(f"ACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_g0_census(g0):
    G, _ = g0
    lengths = sorted(len(f) for f in G.faces)
    sc = classify_surface(G)
    group = automorphisms(G)
    ok = (
        (G.n_vertices, G.n_edges) == (30, 60)
        and lengths.count(4) == 15
        and lengths.count(6) == 10
        and (sc.orientable, sc.euler_characteristic, sc.genus) == (False, -5, 7)
        and len(group) == 120
        and {G.edge_of[a[0]] for a in group} == set(range(G.n_edges))
    )
    report(1, ok, "G0: 30 vertices, 60 edges, 15 quads + 10 hexagons, chi -5, genus 7; "
                  f"|Aut| = {len(group)}, edge-transitive")


def test_criterion_02_g1_census(g1):
    G, c = g1
    quads = [f for f in G.faces if len(f) == 4]
    hexes = [f for f in G.faces if len(f) == 6]
    four = sum(1 for f in quads if len({c.assignment[v] for v in G.face_vertex_walk(f)}) == 4)
    bi = sum(1 for f in quads if len({c.assignment[v] for v in G.face_vertex_walk(f)}) == 2)
    sc = classify_surface(G)
    group = automorphisms(G)
    ok = (
        (G.n_vertices, G.n_edges) == (36, 72)
        and (four, bi, len(hexes)) == (18, 9, 6)
        and (sc.euler_characteristic, sc.genus, sc.orientable) == (-3, 5, False)
        and len(group) == 72
        and {G.vertex_of[a[0]] for a in group} == set(G.vertices)
    )
    report(2, ok, f"G1: 36/72, faces 18+9+6, chi -3, genus 5; |Aut| = {len(group)}, vertex-transitive")


def test_criterion_03_primes_odd_and_locally_3_colored(g0p, g1p):
    ok = True
    for (G, c), colors in ((g0p, 5), (g1p, 6)):
        ok &= quad_parity(G) == ODD
        ok &= is_local_coloring(G, c, 3)
        ok &= len(set(c.assignment.values())) == colors
    report(3, ok, "G0' odd with a local 3-coloring in 5 colors; G1' likewise in 6")


def test_criterion_04_crosscap_family():
    t0 = time.time()
    ok = True
    chains = {}
    for base, genus, top in (("g0p", 7, 10), ("g1p", 5, 6)):
        chains[base] = list(islice(high_genus_family(base), top + 1))
        for k, (G, c) in enumerate(chains[base]):
            ok &= classify_surface(G).genus == genus + k
            ok &= quad_parity(G) == ODD and is_local_coloring(G, c, 3)
    G17 = chains["g0p"][10][0]
    U = build_U(5, 3)
    ok &= {frozenset(e) for e in G17.edges} == {
        frozenset((u, w)) for u in U.adjacency for w in U.adjacency[u]
    }
    G11 = chains["g1p"][6][0]
    U6 = build_U(6, 3)
    keep = {u_vertex_name(i, A) for (i, A) in U6.vertices if len(A & {1, 2, 3}) == 1}
    ok &= {frozenset(e) for e in G11.edges} == {
        frozenset((u, w)) for u in keep for w in U6.adjacency[u] if w in keep
    }
    report(4, ok, f"crosscaps add one genus each; endpoints U(5,3) genus 17 and "
                  f"U(6,3)-subgraph genus 11 ({time.time()-t0:.1f}s)")


def test_criterion_05_tables():
    r1 = verify_table(1)
    r2 = verify_table(2)
    ok = r1.passed and r2.passed
    ok &= any("reduced length 8" in line for line in r1.lines)
    report(5, ok, "table 1 verified (squares trivial, product the displayed 8-letter "
                  "word, nine generators); table 2 likewise with the flagged -1.5 repair")


def test_criterion_06_nine_cycle_word():
    w = walk_label([2, 1, 2, 3, 1, 3, 4, 1, 4], 4)
    ok = not is_identity(w) and abelianize(w) == {}
    report(6, ok, "the 9-cycle color word is non-identity with zero abelianization")


def test_criterion_07_excess_identity(k4p, g0p, g1p):
    ok = excess_report(k4p[0]).total == -4
    ok &= excess_report(g0p[0]).total == 20
    ok &= excess_report(g1p[0]).total == 12
    for base, k in (("g1p", 1), ("g1p", 2), ("g0p", 10)):
        G, _ = build_high_genus_family(base, k)
        rep = excess_report(G)
        ok &= rep.total == 4 * (rep.genus - 2)
    KB, _ = klein_bottle_grid()
    ok &= excess_report(KB).total == 0
    report(7, ok, "excess identity sum(d-4) = 4(g-2) on every non-orientable "
                  "quadrangulation, including -4 for K4")


def test_criterion_08_psi_k4(k4p):
    t0 = time.time()
    G, _ = k4p
    none3 = search_local_coloring(G, 3, 4)
    psi = local_chromatic_number(G)
    ok = none3.status == NONE and psi.value == 4
    ok &= brute_local_coloring_exists(G.adjacency, 3, 4) is False
    report(8, ok, f"psi(K4 on the projective plane) = 4 by exhaustive search "
                  f"({none3.nodes} nodes, {time.time()-t0:.2f}s)")


def test_criterion_09_orientation_parity_equivalence(g0, g0p, g1p, k4p):
    t0 = time.time()
    rng = random.Random(90)
    ok = True
    for G, _ in (g0p, g1p, k4p):
        want = quad_parity(G)
        for _ in range(100):
            par, _ = odd_faces_parity(G, random_orientation(G, rng))
            ok &= par == want
    G0, c0 = g0
    inc = increasing_color_quad_faces(G0, c0)
    ok &= len(inc) == 5
    Gp, cp = g0p
    par, count = odd_faces_parity(Gp, color_order_orientation(Gp, cp))
    ok &= par == ODD and count == len(increasing_color_quad_faces(Gp, cp))
    report(9, ok, f"odd-face parity equals quadrangulation parity on 300 random "
                  f"orientations; exactly 5 of G0's quads are cyclically increasing "
                  f"({time.time()-t0:.1f}s)")


def test_criterion_10_phi_types(g1p):
    G, _ = g1p
    prof = cycle_parity_profile(G)
    ok = prof.phi_type == "PHI3"
    # the twelve-edge list alone cannot be a representative's negative
    # set (four faces would carry an odd negative count); its completion by
    # the two forced diagonal signs passes; see notes in the repository docs
    literal = phi3_certificate(G, g1_prime_negative_edges())
    ok &= literal.text() == ("phi3-certificate: FAIL\nlisted set is not the negative edge set"
                             " of any switching representative\n")
    completed = g1_prime_certificate_edges(G)
    ok &= len(completed) == 14 and phi3_certificate(G, completed).passed
    KB, _ = klein_bottle_grid()
    ok &= cycle_parity_profile(KB).phi_type == "PHI0"
    report(10, ok, "G1' classified PHI3; bipartite control PHI0; the twelve-edge "
                   "list passes once completed by its two face-parity-forced diagonal "
                   "signs (flagged repair; the bare list matches no representative, a FAIL)")


def test_criterion_11_semifree_property_suite():
    t0 = time.time()
    ok = True

    # reduce vs the piling oracle on every case, and vs the full-orbit
    # oracle as a third opinion on every 10th case
    rng = random.Random(110)
    cases = 10_000
    for case in range(cases):
        n = rng.randint(2, 8)
        gens = tuple(f"g{i}" for i in range(n))
        p = rng.random()
        edges = frozenset(
            frozenset(pair) for pair in combinations(gens, 2) if rng.random() < p
        )
        H = CommutationGraph(gens, edges)
        L = rng.randint(1, 10)
        letters = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(L))
        got = is_identity(GroupWord(H, letters))
        ok &= got == piling_is_identity(letters, H.commutes)
        if case % 10 == 0:
            ok &= got == orbit_is_identity(letters, H.commutes)
    t_oracles = time.time() - t0

    # torsion at short lengths: w^2 trivial forces w trivial
    rng2 = random.Random(77)
    H6 = kneser_graph(6)
    gens6 = list(H6.generators)
    checked = 0
    while checked < 1000:
        letters = [(rng2.choice(gens6), rng2.choice((1, -1)))
                   for _ in range(rng2.randint(1, 6))]
        w = reduce_word(GroupWord(H6, tuple(letters)))
        if len(w) == 0:
            continue
        checked += 1
        ok &= not is_identity(w * w)

    # the two-color collapse identity, exhaustive for m <= 6
    for m in range(4, 7):
        H = kneser_graph(m)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    if len({i, j, k}) <= 2:
                        ok &= is_identity(
                            x_pair(i, j, m, H) * x_pair(j, k, m, H) * x_pair(k, i, m, H)
                        )
    report(11, ok, f"semi-free suite: 10^4 piling-oracle agreements, 10^3 of them also "
                   f"orbit-oracle ({t_oracles:.0f}s), "
                   f"10^3 torsion checks, exhaustive two-color collapse for m <= 6 "
                   f"({time.time()-t0:.0f}s total)")


def test_criterion_12_tk4_needs_five_colors(k4p):
    t0 = time.time()
    Q, c = k4p
    T, _ = face_subdivision(Q)
    ok = not brute_local_coloring_exists(T.graph.adjacency, 4, 7)
    rep = tq_lower_bound_check(Q, c)
    ok &= rep.search_status == NONE and rep.psi_exact == 5
    report(12, ok, f"T(K4 projective): no local 4-coloring with m <= 7 (search and "
                   f"independent enumeration agree); psi exactly 5 via the hub witness "
                   f"({time.time()-t0:.1f}s)")


def test_criterion_13_fisk_suite():
    t0 = time.time()
    ok = True
    G, c = bipyramid_over_c5()
    T = Triangulation.wrap(G)
    rep = fisk_check(T, c)
    ok &= rep.colors_equal and rep.neighbor_triples_equal

    instances = [(T, c)]
    S, _ = two_squares_sphere()
    TS, _ = face_subdivision(S)
    instances.append((TS, Coloring({"1": 1, "3": 1, "2": 2, "4": 2, "h0": 3, "h1": 3}, 3)))
    G6 = torus_grid_triangulation(3, 3)
    instances.append((Triangulation.wrap(G6), Coloring(
        {v: (int(v.split(".")[0]) + int(v.split(".")[1])) % 3 + 1 for v in G6.vertices}, 3)))
    for Ti, ci in instances:
        fisk_check(Ti, ci)  # raises if any congruence fails
        for v in Ti.graph.vertices:
            w = link_winding(Ti, ci, v)
            ok &= (w - Ti.graph.degree(v)) % 2 == 0
    report(13, ok, f"Fisk suite: bipyramid conclusions, triangle-count congruences "
                   f"and winding parity at every vertex ({time.time()-t0:.1f}s)")


def test_criterion_14_scope_statement():
    detail = (
        "out of desk scale by design: universal nonexistence over unbounded color "
        "counts and the topological machinery; covered instead by the bounded "
        "property suites and classifier consistency checks above"
    )
    report(14, True, detail)
