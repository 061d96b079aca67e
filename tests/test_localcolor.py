import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from quadloc.constructions import build_high_genus_family
from quadloc.errors import ColoringError, InputError, LoopError
from quadloc.localcolor import (
    BUDGET_EXCEEDED,
    FOUND,
    NONE,
    Coloring,
    build_U,
    coloring_violation,
    find_four_chromatic_face,
    hom_to_U,
    is_local_coloring,
    local_chromatic_number,
    search_local_coloring,
    u_vertex_name,
)
from quadloc.quadform import refine_3x3
from quadloc.textio import parse_graph
from quadloc.trisub import face_subdivision
from helpers import klein_bottle_grid, random_maps, two_squares_sphere
from oracles import brute_local_coloring_exists, recursive_search


def cycle_adjacency(n):
    return {f"c{i}": {f"c{(i - 1) % n}", f"c{(i + 1) % n}"} for i in range(n)}


def test_build_u_counts():
    U = build_U(5, 3)
    n_edges = sum(len(ns) for ns in U.adjacency.values()) // 2
    assert (len(U.vertices), n_edges, len(U.triangle_edges)) == (30, 90, 30)
    # triangle edges: three per unordered color triple
    assert len(U.triangle_edges) == 3 * len(list(combinations(range(5), 3)))

    U6 = build_U(6, 3)
    assert len(U6.vertices) == 60

    U2 = build_U(4, 2)
    n_edges = sum(len(ns) for ns in U2.adjacency.values()) // 2
    assert len(U2.vertices) == 4 * 3 and n_edges == len(U2.vertices) // 2  # perfect matching
    with pytest.raises(InputError):
        build_U(2, 3)


def test_natural_coloring_is_local_r():
    for m, r in ((5, 3), (6, 3), (4, 2), (5, 4)):
        U = build_U(m, r)
        assert is_local_coloring(U, U.natural_coloring(), r)


def test_bipartite_two_coloring_is_local_two():
    G, c = two_squares_sphere()
    assert is_local_coloring(G, c, 2)
    KB, cKB = klein_bottle_grid()
    assert is_local_coloring(KB, cKB, 2)


def test_violation_witnesses():
    adj = cycle_adjacency(4)
    bad = Coloring({"c0": 1, "c1": 1, "c2": 2, "c3": 2}, 2)
    assert coloring_violation(adj, bad, 2) == ("edge", "c0", "c1")
    c = Coloring({"c0": 1, "c1": 2, "c2": 1, "c3": 3}, 3)
    assert coloring_violation(adj, c, 2) == ("vertex", "c0")
    assert coloring_violation(adj, c, 3) is None
    with pytest.raises(ColoringError):
        coloring_violation(adj, Coloring({"c0": 1}, 1), 2)


def test_hom_to_u_round_trip(g0p):
    G, c = g0p
    image = hom_to_U(G, c, 3)
    U = build_U(5, 3)
    names = {u_vertex_name(i, A) for (i, A) in U.vertices}
    for v, (i, A) in image.items():
        assert u_vertex_name(i, A) in names
        assert i == c.assignment[v]
    # the identity-like embedding: G0' vertices map to their own U-names
    assert {u_vertex_name(*p) for p in image.values()} <= set(G.vertices)


def test_hom_to_u_pads_small_neighborhoods():
    adj = cycle_adjacency(6)
    c = Coloring({f"c{i}": i % 2 + 1 for i in range(6)}, 3)
    image = hom_to_U(adj, c, 3)
    for v, (i, A) in image.items():
        assert len(A) == 2 and i not in A
    for v in adj:
        for w in adj[v]:
            (i, A), (j, B) = image[v], image[w]
            assert i in B and j in A


def test_hom_to_u_on_k4(k4p):
    G, c = k4p
    image = hom_to_U(G, c, 4)
    for v, (i, A) in image.items():
        assert A == frozenset({1, 2, 3, 4} - {i})


def test_hom_requires_local_coloring(k4p):
    G, c = k4p
    with pytest.raises(ColoringError):
        hom_to_U(G, c, 3)


def test_search_k4_matches_brute_force(k4p):
    G, _ = k4p
    adj = G.adjacency
    # oracle first: plain enumeration over all 4^4 colorings
    assert brute_local_coloring_exists(adj, 3, 4) is False
    assert brute_local_coloring_exists(adj, 4, 4) is True
    out = search_local_coloring(G, 3, 4)
    assert out.status == NONE
    out = search_local_coloring(G, 4, 4)
    assert out.status == FOUND
    assert is_local_coloring(G, out.coloring, 4)


def test_psi_of_c5_is_three():
    adj = cycle_adjacency(5)
    assert not brute_local_coloring_exists(adj, 2, 5)
    assert brute_local_coloring_exists(adj, 3, 5)
    res = local_chromatic_number(adj)
    assert res.value == 3


def test_psi_of_k4_is_four(k4p):
    G, _ = k4p
    assert local_chromatic_number(G).value == 4


def test_psi_of_bipartite_graph_is_two():
    G, _ = two_squares_sphere()
    assert local_chromatic_number(G).value == 2


@pytest.mark.parametrize("adj, psi", [
    ({"a": set()}, 1),
    ({"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}, 2),
    ({"a": {"b", "c", "x"}, "b": {"a", "c"}, "c": {"a", "b"}, "x": {"a"}}, 3),
], ids=["one-vertex", "path", "triangle-with-leaf"])
def test_search_on_vertices_of_degree_zero_and_one(adj, psi):
    # the kernel reads a level's neighbor masks with one getter, and a
    # getter over zero or one position needs its own form
    assert local_chromatic_number(adj).value == psi
    for r in range(1, 4):
        for m in (r, r + 1):
            assert_same_as_recursive_search(adj, r, m, None, (r, m))


def test_search_none_is_monotone_in_m(k4p):
    G, _ = k4p
    assert search_local_coloring(G, 3, 4).status == NONE
    assert search_local_coloring(G, 3, 3).status == NONE


def test_color_permutation_soundness(g1p):
    rng = random.Random(13)
    G, c = g1p
    assert is_local_coloring(G, c, 3)
    perm = list(range(1, c.m + 1))
    rng.shuffle(perm)
    c2 = Coloring({v: perm[k - 1] for v, k in c.assignment.items()}, c.m)
    assert is_local_coloring(G, c2, 3)


def test_budget_exhaustion_reported_distinctly(g1p):
    G, _ = g1p
    out = search_local_coloring(G, 3, 4, budget=5)
    assert out.status == BUDGET_EXCEEDED
    assert out.nodes == 6


def test_budget_at_a_verdicts_node_count_keeps_the_verdict(k4p, g1p):
    # the kernel skips infeasible colors in bulk; every one still counts
    cases = [(k4p[0], 3, 4), (k4p[0], 4, 4), (g1p[0], 3, 3), (g1p[0], 2, 36),
             (cycle_adjacency(7), 2, 7), (cycle_adjacency(7), 3, 3)]
    for G, r, m in cases:
        out = search_local_coloring(G, r, m)
        assert out.status in (FOUND, NONE)
        at = search_local_coloring(G, r, m, budget=out.nodes)
        assert at.certificate_text() == out.certificate_text()
        below = search_local_coloring(G, r, m, budget=out.nodes - 1)
        assert (below.status, below.nodes) == (BUDGET_EXCEEDED, out.nodes)


def relabelled(G, seed):
    """The adjacency of ``G`` under a seeded shuffle of its vertex names,
    which changes the search order (ties are broken by name)."""
    names = sorted(G.adjacency)
    shuffled = list(names)
    random.Random(seed).shuffle(shuffled)
    new = dict(zip(names, shuffled))
    return {new[v]: {new[w] for w in ns} for v, ns in G.adjacency.items()}


def assert_same_as_recursive_search(adj, r, m, budget, label):
    want = recursive_search(adj, r, m, budget).certificate_text()
    assert search_local_coloring(adj, r, m, budget).certificate_text() == want, label


def test_search_matches_recursive_oracle_on_paper_graphs(g0, g1, g0p, g1p, k4p):
    graphs = {"G0": g0[0], "G1": g1[0], "G0'": g0p[0], "G1'": g1p[0], "K4'": k4p[0]}
    for name in ("K4'", "G0'", "G1'"):
        graphs[f"T({name})"] = face_subdivision(graphs[name])[0].graph
    for base, k in (("g0p", 3), ("g1p", 2), ("g1p", 6)):
        graphs[f"{base}+{k}"] = build_high_genus_family(base, k)[0]
    for name, G in graphs.items():
        n = G.n_vertices
        budgets = (None, 1, 7, 30000) if n <= 12 else (1, 7, 30000)
        for seed in range(3):
            adj = relabelled(G, seed)
            for r in range(2, 6):
                for m in sorted({r, r + 1, max(n, r)}):
                    for budget in budgets:
                        assert_same_as_recursive_search(adj, r, m, budget,
                                                        (name, seed, r, m, budget))


def test_search_matches_recursive_oracle_on_random_maps():
    loopless = 0
    for G in random_maps(41, count=1000):
        if G.has_loop():
            with pytest.raises(LoopError):
                search_local_coloring(G, 3, G.n_vertices + 3)
            with pytest.raises(LoopError):
                local_chromatic_number(G)
            continue
        for r in range(1, 6):
            for m in sorted({r, r + 1, max(G.n_vertices, r)}):
                assert_same_as_recursive_search(G, r, m, None, (loopless, r, m))
        loopless += 1
        if loopless == 300:
            break
    assert loopless == 300


def test_search_matches_recursive_oracle_on_a_large_graph(g1p):
    # G1' refined twice: 3,156 levels, so the oracle needs a raised recursion limit
    G, c = g1p
    for _ in range(2):
        G, c = refine_3x3(G, c)
    assert G.n_vertices == 3156
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(G.n_vertices + 1000)
    try:
        for r in (4, 5):
            got = search_local_coloring(G, r, r)
            assert (got.status, got.nodes) == (FOUND, 5009)
            assert got.certificate_text() == recursive_search(G, r, r).certificate_text()
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("name", ["g0", "g1", "g0p", "g1p", "k4p"])
def test_psi_outcomes_equal_standalone_searches(name):
    # every r of a psi run shares one search space; each outcome must be the
    # one a fresh search_local_coloring gives
    G, _ = parse_graph((Path(__file__).resolve().parent.parent / "golden" / f"{name}.txt").read_text())
    outcomes = local_chromatic_number(G).outcomes
    n = G.n_vertices
    assert [o.r for o in outcomes] == list(range(1, len(outcomes) + 1))
    for o in outcomes:
        want = search_local_coloring(G, o.r, max(n, o.r)).certificate_text()
        assert o.certificate_text() == want, (name, o.r)


def test_deep_search_needs_no_recursion():
    # deeper than the interpreter's default recursion limit of 1000
    odd = local_chromatic_number(cycle_adjacency(2001))
    assert (odd.value, [o.nodes for o in odd.outcomes]) == (3, [1, 5997, 3003])
    even = search_local_coloring(cycle_adjacency(2000), 2, 2)
    assert even.status == FOUND and is_local_coloring(cycle_adjacency(2000), even.coloring, 2)


def test_search_certificate_text(k4p):
    G, _ = k4p
    out = search_local_coloring(G, 3, 4)
    text = out.certificate_text()
    assert text.startswith("# quadloc-cert v1")
    assert "result NONE" in text


def test_search_found_agrees_with_oracle_on_small_samples():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(3, 7)
        adj = {f"v{i}": set() for i in range(n)}
        for a, b in combinations(range(n), 2):
            if rng.random() < 0.5:
                adj[f"v{a}"].add(f"v{b}")
                adj[f"v{b}"].add(f"v{a}")
        if any(not ns for ns in adj.values()):
            continue
        # keep connected instances only
        seen = {f"v0"}
        stack = [f"v0"]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            continue
        r = rng.randint(2, min(4, n))
        m = rng.randint(r, n)
        got = search_local_coloring(adj, r, m).status == FOUND
        assert got == brute_local_coloring_exists(adj, r, m)


def test_odd_quadrangulations_always_show_a_four_chromatic_face(k4p, g0p, g1p):
    # spot property: every proper coloring produced for an odd
    # quadrangulation in this repository admits a four-colored face
    instances = [k4p, g0p, g1p, build_high_genus_family("g1p", 1)]
    for G, c in instances:
        assert find_four_chromatic_face(G, c) is not None


def test_find_four_chromatic_face(k4p, g1):
    G, c = k4p
    assert find_four_chromatic_face(G, c) is not None
    G1, c1 = g1
    faces = [f for f in G1.faces if len(f) == 4]
    hits = [
        f for f in faces
        if len({c1.assignment[v] for v in G1.face_vertex_walk(f)}) == 4
    ]
    assert len(hits) == 18
    assert find_four_chromatic_face(G1, c1) is not None
    S, cS = two_squares_sphere()
    assert find_four_chromatic_face(S, cS) is None
