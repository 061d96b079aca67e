import random
import re
import sys
import time
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from quadloc import localcolor
from quadloc.constructions import build_high_genus_family
from quadloc.errors import InputError
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
from quadloc.trisub import face_subdivision, tq_lower_bound_check
from helpers import klein_bottle_grid, random_maps, two_squares_sphere
from oracles import brute_U, brute_local_coloring_exists, recursive_search


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


@pytest.mark.parametrize("m, r, count", [
    (4, 2, 0), (5, 3, 30), (6, 3, 60), (5, 4, 90), (6, 4, 450), (6, 5, 240), (7, 4, 1470),
])
def test_triangle_edges_match_brute_force(m, r, count):
    U = build_U(m, r)
    adj = U.adjacency
    brute = {
        frozenset((u, w)) for u in adj for w in adj[u]
        if any(u in adj[x] and w in adj[x] for x in adj)
    }
    assert U.triangle_edges == brute
    assert len(brute) == count


@pytest.mark.parametrize("m, r", [(m, r) for m in range(2, 9) for r in range(2, 6) if m >= r])
def test_build_u_matches_all_pairs_oracle(m, r):
    U = build_U(m, r)
    adj, triangles = brute_U(m, r)
    assert U.adjacency == adj
    assert U.triangle_edges == triangles


def test_build_u_rejects_more_adjacencies_than_its_bound():
    # U(m, r) lists m (m - 1) C(m - 2, r - 2)^2 vertex-neighbor pairs
    for m, r in ((4, 2), (5, 3), (6, 4), (8, 5)):
        U = build_U(m, r)
        assert sum(map(len, U.adjacency.values())) == m * (m - 1) * comb(m - 2, r - 2) ** 2
    # the last two would take C(m - 2, r - 2) of a huge m if m were not bounded first
    for m, r in ((10, 5), (317, 2), (10**20, 3), (2 * 10**20, 10**20)):
        with pytest.raises(InputError, match=rf"^U\({m}, {r}\) has more than 100000 adjacencies$"):
            build_U(m, r)


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
    assert coloring_violation(adj, bad, 4) == ("edge", "c0", "c1")
    c = Coloring({"c0": 1, "c1": 2, "c2": 1, "c3": 3}, 3)
    assert coloring_violation(adj, c, 2) == ("vertex", "c0")
    assert coloring_violation(adj, c, 3) is None
    with pytest.raises(InputError, match="^coloring is not total, vertex 'c1' uncolored$"):
        coloring_violation(adj, Coloring({"c0": 1}, 1), 2)


def test_violation_witness_is_the_least_in_sorted_order(g0p, g1p, k4p):
    rng = random.Random(15)
    checked = 0
    for G, c in (g0p, g1p, k4p):
        for _ in range(40):
            colors = dict(c.assignment)
            for v in rng.sample(G.vertices, rng.randint(0, 3)):
                colors[v] = rng.randint(1, 6)
            r = rng.randint(2, 5)
            improper = [("edge",) + e for e in G.edges if colors[e[0]] == colors[e[1]]]
            crowded = [v for v in G.vertices if len({colors[w] for w in G.adjacency[v]}) > r - 1]
            want = min(improper) if improper else ("vertex", min(crowded)) if crowded else None
            assert coloring_violation(G, Coloring(colors, 6), r) == want
            checked += want is not None
    assert checked > 40


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


def test_hom_to_u_rejects_an_m_too_small_to_pad():
    # each end of a~b sees one color; r = 3 asks for two, and with m = 2 the
    # only other color is the vertex's own
    c = Coloring({"a": 1, "b": 2}, 2)
    with pytest.raises(InputError, match="^cannot pad neighborhood colors, m too small$"):
        hom_to_U({"a": {"b"}, "b": {"a"}}, c, 3)


def test_hom_requires_local_coloring(k4p):
    G, c = k4p
    with pytest.raises(InputError, match=r"^not a local 3-coloring: \('vertex', '1'\)$"):
        hom_to_U(G, c, 3)


@pytest.mark.parametrize("adj, message", [
    ({}, "adjacency has no vertices"),
    ({"a": {"b"}}, "adjacency is not symmetric at 'a'"),
    ({"a": {"b"}, "b": set()}, "adjacency is not symmetric at 'a'"),
    ({"a": {"b"}, "b": {"a", "c"}, "c": {"a", "b"}}, "adjacency is not symmetric at 'c'"),
], ids=["empty", "not-closed", "one-way", "one-way-last"])
def test_a_malformed_adjacency_dict_is_an_input_error(adj, message):
    # the empty dict failed in max(), the unclosed one with a KeyError, and
    # the one-way edges were searched as given: FOUND
    for call in (lambda: search_local_coloring(adj, 2, 2), lambda: local_chromatic_number(adj),
                 lambda: coloring_violation(adj, Coloring({v: 1 for v in adj}, 1), 2)):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()


def test_more_colors_than_vertices_search_as_one_color_per_vertex(k4p):
    # first-use order opens at most |V| colors, so m = 10**20 searches as
    # m = |V| did, with the same nodes, and the certificate keeps the m asked
    cases = [(k4p[0], 3), (k4p[0], 4), (cycle_adjacency(5), 2), (cycle_adjacency(5), 3)]
    cases += [(G, 3) for G in random_maps(43, count=30) if not G.has_loop() and G.n_vertices >= 3]
    for G, r in cases:
        n = len(localcolor.neighbor_sets(G))
        want, got = search_local_coloring(G, r, n), search_local_coloring(G, r, 10**20)
        assert (got.status, got.nodes, got.ranking) == (want.status, want.nodes, want.ranking)
        if got.coloring:
            assert got.coloring.assignment == want.coloring.assignment and got.coloring.m == 10**20
        assert got.certificate_text() == want.certificate_text().replace(f"m={n}", "m=" + str(10**20))


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
def test_search_on_vertices_of_degree_zero_and_one(monkeypatch, adj, psi):
    # a vertex's priority divides by its degree, and at r = 1 a vertex with a
    # neighbor starts with no allowed color while a lone vertex keeps them all
    assert local_chromatic_number(adj).value == psi
    for r in range(1, 4):
        for m in (r, r + 1):
            assert_verdict_matches_recursive_search(monkeypatch, adj, r, m, None, (r, m))


def test_search_rejects_a_disconnected_graph():
    adj = {"a": {"b"}, "b": {"a"}, "c": {"d"}, "d": {"c"}}
    with pytest.raises(InputError, match="^search requires a connected graph$"):
        search_local_coloring(adj, 2, 2)


def test_u_vertex_name_dots_colors_above_nine():
    assert u_vertex_name(2, {1, 3}) == "2.13"
    assert u_vertex_name(10, {1, 2}) == "10.1.2"
    assert u_vertex_name(1, {2, 10}) == "1.2.10"


def test_search_none_is_monotone_in_m(k4p):
    G, _ = k4p
    assert search_local_coloring(G, 3, 4).status == NONE
    assert search_local_coloring(G, 3, 3).status == NONE
    with pytest.raises(InputError, match="^search needs m >= r$"):
        search_local_coloring(G, 3, 2)


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


@pytest.mark.parametrize("budget", [0, -5])
def test_nonpositive_budget_is_an_input_error(k4p, budget):
    G, c = k4p
    with pytest.raises(InputError, match=f"^budget must be positive, got {budget}$"):
        search_local_coloring(G, 3, 4, budget=budget)
    with pytest.raises(InputError, match=f"^budget must be positive, got {budget}$"):
        local_chromatic_number(G, budget=budget)
    with pytest.raises(InputError, match=f"^budget must be positive, got {budget}$"):
        tq_lower_bound_check(G, c, budget)


# The kernel copies its lists on graphs up to this many vertices and keeps
# a trail above it: 0 puts every test graph on the trail, 10**6 copies on
# every one.
KERNEL_VERTEX_BOUNDS = (0, 10 ** 6)


def kernel_modes(monkeypatch):
    for bound in KERNEL_VERTEX_BOUNDS:
        monkeypatch.setattr(localcolor, "_COPY_MAX_VERTICES", bound)
        yield bound


def relabelled(G, seed):
    """The adjacency of ``G`` under a seeded shuffle of its vertex names,
    which changes the search's tie-break ranking (breadth-first ties are
    broken by name)."""
    names = sorted(G.adjacency)
    shuffled = list(names)
    random.Random(seed).shuffle(shuffled)
    new = dict(zip(names, shuffled))
    return {new[v]: {new[w] for w in ns} for v, ns in G.adjacency.items()}


def search_in_both_modes(monkeypatch, adj, r, m, budget, label):
    """The outcome of the search, which both kernel modes give to the byte:
    a copy or a trail entry that a mode misses leaves a stale mask, which
    moves its node count or its verdict.  A FOUND coloring is re-checked and
    a budget stop lands on ``budget + 1`` nodes."""
    texts = set()
    for bound in kernel_modes(monkeypatch):
        out = search_local_coloring(adj, r, m, budget)
        texts.add(out.certificate_text())
        if out.status == FOUND:
            assert is_local_coloring(adj, out.coloring, r), (label, bound)
        elif out.status == BUDGET_EXCEEDED:
            assert out.nodes == budget + 1, (label, bound)
    assert len(texts) == 1, label
    return out


def assert_verdict_matches_recursive_search(monkeypatch, adj, r, m, budget, label):
    """Both kernel modes give one outcome, and its verdict is the oracle's
    wherever both decide; returns (oracle outcome, kernel outcome)."""
    want = recursive_search(adj, r, m, budget)
    got = search_in_both_modes(monkeypatch, adj, r, m, budget, label)
    if BUDGET_EXCEEDED not in (want.status, got.status):
        assert got.status == want.status, label
    return want, got


def test_search_matches_recursive_oracle_on_paper_graphs(monkeypatch, g0, g1, g0p, g1p, k4p):
    graphs = {"G0": g0[0], "G1": g1[0], "G0'": g0p[0], "G1'": g1p[0], "K4'": k4p[0]}
    for name in ("K4'", "G0'", "G1'"):
        graphs[f"T({name})"] = face_subdivision(graphs[name])[0].graph
    for base, k in (("g0p", 3), ("g1p", 2), ("g1p", 6)):
        graphs[f"{base}+{k}"] = build_high_genus_family(base, k)[0]
    only_oracle = []
    for name, G in graphs.items():
        n = G.n_vertices
        budgets = (None, 1, 7, 30000) if n <= 12 else (1, 7, 30000)
        for seed in range(3):
            adj = relabelled(G, seed)
            for r in range(2, 6):
                ms = {r, r + 1, max(n, r)}
                if name.startswith("T(") and r == 4:
                    ms.add(6)   # the benchmark searches T(G1') at r = 4 with m = 6
                for m in sorted(ms):
                    for budget in budgets:
                        want, got = assert_verdict_matches_recursive_search(
                            monkeypatch, adj, r, m, budget, (name, seed, r, m, budget))
                        if got.status == BUDGET_EXCEEDED != want.status:
                            only_oracle.append((name, seed, r, m, budget))
                        if name in ("T(G0')", "T(G1')") and (r, budget) == (4, 30000) and m > 4:
                            # the budget-capped r = 4 searches of the benchmark and of psi
                            assert (want.status, want.nodes) == (BUDGET_EXCEEDED, 30001)
                            if name == "T(G0')":
                                assert got.status == NONE, (seed, m)
    # forward checking decides every search the oracle decides at its budget
    assert only_oracle == []


def test_search_restores_masks_after_deep_backtracking(monkeypatch, k4p):
    # K4' refined once (28 vertices): at r = 3 the searches backtrack deep and
    # re-enter levels for thousands of nodes, so a level that reads a mask a
    # missed copy or a missed trail entry left stale reaches another verdict
    # or node count in one mode than in the other; without a budget each
    # search runs to its NONE
    G, _ = refine_3x3(*k4p)
    for seed in range(3):
        adj = relabelled(G, seed)
        for m in (3, 4, 5):
            want, got = assert_verdict_matches_recursive_search(monkeypatch, adj, 3, m, 2000,
                                                                 (seed, m))
            assert (want.status, got.status) == (BUDGET_EXCEEDED, BUDGET_EXCEEDED)
            out = search_in_both_modes(monkeypatch, adj, 3, m, None, (seed, m))
            assert out.status == NONE and out.nodes > 2000, (seed, m)


def test_search_matches_recursive_oracle_on_random_maps(monkeypatch):
    loopless = 0
    for G in random_maps(41, count=1000):
        if G.has_loop():
            with pytest.raises(InputError, match="^local colorings need a loopless graph, '.+' has a loop$"):
                search_local_coloring(G, 3, G.n_vertices + 3)
            with pytest.raises(InputError, match="^local colorings need a loopless graph, '.+' has a loop$"):
                local_chromatic_number(G)
            continue
        for r in range(1, 6):
            for m in sorted({r, r + 1, max(G.n_vertices, r)}):
                assert_verdict_matches_recursive_search(monkeypatch, G, r, m, None, (loopless, r, m))
        loopless += 1
        if loopless == 300:
            break
    assert loopless == 300


def test_search_matches_recursive_oracle_on_a_large_graph(monkeypatch, g1p):
    # G1' refined twice: 3,156 levels, so the oracle needs a raised recursion limit
    G, c = g1p
    for _ in range(2):
        G, c = refine_3x3(G, c)
    assert G.n_vertices == 3156
    # above the vertex bound the kernel keeps a trail: copying its lists at
    # each branching level would hold tens of megabytes here
    search_local_coloring(G, 4, 4)
    tracemalloc.start()
    try:
        search_local_coloring(G, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(G.n_vertices + 1000)
    try:
        for r, nodes in ((4, 4993), (5, 5079)):
            assert recursive_search(G, r, r).status == FOUND
            got = search_in_both_modes(monkeypatch, G, r, r, None, r)
            assert (got.status, got.nodes) == (FOUND, nodes)
    finally:
        sys.setrecursionlimit(limit)


def test_face_subdivision_of_g0p_needs_five_colors_under_every_ranking(g0p):
    """The abstract: face subdivisions of odd quadrangulations behave for the
    local chromatic number as they do for the chromatic number, so
    psi(T(G0')) = 5.  T(G0') (65 vertices, N7) has no local 4-coloring with
    any number of colors; each seeded renaming gives the search another
    tie-break ranking, and each NONE is a proof on its own."""
    T = face_subdivision(g0p[0])[0].graph
    for seed in range(1, 6):
        adj = relabelled(T, seed)
        start = time.perf_counter()
        out = search_local_coloring(adj, 4, len(adj))
        assert out.status == NONE, seed
        assert time.perf_counter() - start < 2, seed


@pytest.mark.parametrize("m, nodes", [(3, 8490), (4, 31809), (28, 15795)])
def test_refined_k4p_has_no_local_3_coloring(k4p, m, nodes):
    """The abstract: on the non-orientable surfaces of genus at most four,
    every odd quadrangulation has local chromatic number at least four.
    refine_3x3(K4') is an odd quadrangulation of the projective plane N1
    with 28 vertices, and it has no local 3-coloring with 3, 4 or all 28
    colors."""
    G, c = refine_3x3(*k4p)
    assert G.n_vertices == 28 and is_local_coloring(G, c, 4)
    out = search_local_coloring(G, 3, m)
    assert (out.status, out.nodes) == (NONE, nodes)


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


def test_deep_search_needs_no_recursion(monkeypatch):
    # deeper than the interpreter's default recursion limit of 1000
    for bound in kernel_modes(monkeypatch):
        odd = local_chromatic_number(cycle_adjacency(2001))
        assert (odd.value, [o.nodes for o in odd.outcomes]) == (3, [1, 1999, 3003]), bound
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
    with pytest.raises(InputError, match="^coloring is not proper$"):
        find_four_chromatic_face(S, Coloring({v: 1 for v in S.vertices}, 1))
