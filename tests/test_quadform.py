import random
import re
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

from quadloc.constructions import (
    build_G0,
    build_G1,
    build_high_genus_family,
    g1_prime_certificate_edges,
    g1_prime_negative_edges,
    high_genus_family,
)
from quadloc.errors import InputError
from quadloc.localcolor import (
    Coloring,
    find_four_chromatic_face,
    is_local_coloring,
    search_local_coloring,
)
from quadloc.quadform import (
    EVEN,
    ODD,
    auxiliary_graph,
    classify_phi_type,
    color_order_orientation,
    crosscap_hexagon,
    cycle_parity_profile,
    excess_report,
    find_crosscap_candidates,
    identify_face_diagonal,
    increasing_color_quad_faces,
    is_crosscap_site,
    odd_faces_parity,
    phi3_certificate,
    quad_parity,
    refine_3x3,
)
from quadloc.surface_map import (
    EmbeddedGraph,
    FaceListComplex,
    assemble_embedding,
    classify_surface,
)
from quadloc.textio import parse_graph, write_graph
from helpers import (
    flip_random_faces,
    klein_bottle_grid,
    random_maps,
    random_orientation,
    relabel_darts,
    split_hexagons,
    torus_grid,
    two_squares_sphere,
)
from oracles import (
    cut_cycles_span_homology,
    endpoint_pair_completion,
    face_by_face_crosscap_sites,
    full_basis_verdict,
    fundamental_cycle,
    listed_set_matches_per_cycle,
    phi3_passes_per_cycle,
    spanning_tree_parents,
)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
MISMATCH = "listed set is not the negative edge set of any switching representative"


def tree_edges(G):
    return {G.edge_of[d] for d in G.spanning_tree.values() if d is not None}


# -- parity -------------------------------------------------------------------


def test_orientable_quadrangulations_are_even():
    for G in (two_squares_sphere()[0], torus_grid(3, 3)[0], torus_grid(3, 4)[0]):
        assert quad_parity(G) == EVEN


def test_k4_and_both_primes_are_odd(k4p, g0p, g1p):
    assert quad_parity(k4p[0]) == ODD
    assert quad_parity(g0p[0]) == ODD
    assert quad_parity(g1p[0]) == ODD


def test_parity_rejects_non_quadrangulations(g0):
    with pytest.raises(InputError, match="^face of length 6 present$"):
        quad_parity(g0[0])
    loop = EmbeddedGraph([1, 0], [1, 0], [-1], ["v", "v"])
    with pytest.raises(InputError, match="^quadrangulations are loopless$"):
        quad_parity(loop)


def test_parity_independent_of_face_orientations(k4p, g1p):
    rng = random.Random(3)
    for G in (k4p[0], g1p[0], klein_bottle_grid()[0]):
        want = quad_parity(G)
        for _ in range(10):
            tails = flip_random_faces(G, rng)
            breaking = sum(1 for t1, t2 in tails if t1 == t2)
            assert (ODD if breaking % 2 else EVEN) == want


def test_parity_invariant_under_switching_and_relabeling(g1p):
    rng = random.Random(4)
    G, _ = g1p
    for _ in range(5):
        vids = [v for v in G.vertices if rng.random() < 0.3]
        assert quad_parity(G.switched(vids)) == ODD
        assert quad_parity(relabel_darts(G, rng)) == ODD


def test_odd_faces_parity_matches_quad_parity(k4p, g0p, g1p):
    rng = random.Random(9)
    for G, _ in (k4p, g0p, g1p):
        want = quad_parity(G)
        for _ in range(40):
            par, _count = odd_faces_parity(G, random_orientation(G, rng))
            assert par == want


def test_odd_faces_parity_on_even_quadrangulation():
    rng = random.Random(10)
    G, _ = two_squares_sphere()
    for _ in range(20):
        par, count = odd_faces_parity(G, random_orientation(G, rng))
        assert par == EVEN and count % 2 == 0


def test_odd_faces_parity_rejects_partial_orientation(k4p):
    G, _ = k4p
    with pytest.raises(InputError):
        odd_faces_parity(G, {0: 0})


def test_odd_faces_parity_rejects_a_dart_of_another_edge(k4p):
    G, c = k4p
    orientation = color_order_orientation(G, c)
    orientation[0] = orientation[1]
    with pytest.raises(InputError, match="^dart 3 does not belong to edge 0$"):
        odd_faces_parity(G, orientation)


def test_color_order_orientation_rejects_equal_end_colors(k4p):
    G, _ = k4p
    c = Coloring({"1": 1, "2": 1, "3": 2, "4": 3}, 3)
    with pytest.raises(InputError, match="^edge 1-2 has equal end colors; orientation undefined$"):
        color_order_orientation(G, c)


def test_color_order_orientation_odd_faces(g0p, g1p):
    for G, c in (g0p, g1p):
        orient = color_order_orientation(G, c)
        par, count = odd_faces_parity(G, orient)
        assert par == ODD
        # odd faces under the color orientation are the increasing-color ones
        assert count == len(increasing_color_quad_faces(G, c))


def test_g0_has_five_increasing_quad_faces(g0):
    G, c = g0
    assert len(increasing_color_quad_faces(G, c)) == 5


# -- cycle parity map -----------------------------------------------------------


def test_bipartite_quadrangulation_has_zero_parity_map():
    G, _ = klein_bottle_grid()
    prof = cycle_parity_profile(G)
    assert not any(prof.phi_values)
    assert prof.phi_type == "PHI0"


def test_k4_profile_is_phi3(k4p):
    G, _ = k4p
    prof = cycle_parity_profile(G)
    assert all(prof.phi_values)
    assert prof.phi_values == prof.w1_values
    assert prof.phi_type == "PHI3"


def test_g1_prime_is_phi3(g1p):
    G, _ = g1p
    prof = cycle_parity_profile(G)
    assert prof.phi_values == prof.w1_values
    assert prof.phi_type == "PHI3"


def test_crosscapped_g1_prime_is_phi1():
    G, c = build_high_genus_family("g1p", 1)
    prof = cycle_parity_profile(G)
    assert prof.parity == ODD
    assert classify_surface(G).genus == 6
    # odd with even genus cannot be PHI3, so the classifier must say PHI1
    assert prof.phi_values != prof.w1_values
    assert prof.phi_type == "PHI1"


def test_profile_stable_under_tree_choice_and_switching(g1p, k4p):
    rng = random.Random(6)
    for G, _ in (g1p, k4p):
        a = cycle_parity_profile(G)
        # reversing the vertex names moves the root, and with it the tree
        flip = dict(zip(G.vertices, reversed(G.vertices)))
        R = EmbeddedGraph(G.rotation, G.pairing, G.signature, [flip[v] for v in G.vertex_of])
        assert tree_edges(R) != tree_edges(G)
        b = cycle_parity_profile(R)
        assert (b.phi_type, b.parity) == (a.phi_type, a.parity)
        vids = [v for v in G.vertices if rng.random() < 0.4]
        c = cycle_parity_profile(G.switched(vids))
        assert c.phi_type == a.phi_type


def _profiled_maps(g0, g1, g0p, g1p):
    """The golden maps, G0 and G1, G0'+0..10 and G1'+0..6, the level-1
    primes and the Klein-bottle and torus grids."""
    maps = {name: parse_graph((GOLDEN / f"{name}.txt").read_text())[0]
            for name in ("g0", "g1", "g0p", "g1p", "k4p")}
    maps.update({"G0": g0[0], "G1": g1[0], "klein": klein_bottle_grid()[0],
                 "torus": torus_grid(4, 4)[0]})
    for base, top in (("g0p", 10), ("g1p", 6)):
        for k, (G, _) in enumerate(islice(high_genus_family(base), top + 1)):
            maps[f"{base}+{k}"] = G
    for name, (Q, cq) in (("g0p", g0p), ("g1p", g1p)):
        maps[f"{name}.L1"] = refine_3x3(Q, cq)[0]
    return maps


def test_profile_matches_the_full_basis_oracle(g0, g1, g0p, g1p):
    rng = random.Random(26)
    types = Counter()
    for name, G in _profiled_maps(g0, g1, g0p, g1p).items():
        texts = [cycle_parity_profile(H).certificate_text(H)
                 for H in (parse_graph(write_graph(G))[0] for _ in range(2))]
        assert texts[0] == texts[1], name
        rename = dict(zip(G.vertices, rng.sample(G.vertices, G.n_vertices)))
        variants = (
            G,
            G.switched([v for v in G.vertices if rng.random() < 0.5]),
            EmbeddedGraph(G.rotation, G.pairing, G.signature, [rename[v] for v in G.vertex_of]),
        )
        rank = 2 - classify_surface(G).euler_characteristic
        assert texts[0].count("\ncycle ") == rank, name
        for H in variants:
            prof = cycle_parity_profile(H)
            got = (prof.phi_type, prof.parity, any(prof.phi_values),
                   prof.phi_values == prof.w1_values)
            assert got == full_basis_verdict(H), name
            dual, leftover = H.cut_system
            assert len(prof.basis) == len(leftover) == rank
            assert [cyc.cotree_edge for cyc in prof.basis] == list(leftover)
            assert not set(leftover) & (tree_edges(H) | set(dual.values()))
            assert cut_cycles_span_homology(H, leftover), name
            types[prof.phi_type] += 1
    assert set(types) == {None, "PHI0", "PHI1", "PHI3"}, types


def test_parity_map_is_linear_on_cycle_space(g1p):
    # evaluate phi and w1 on random cycle-space elements two ways
    rng = random.Random(8)
    G, _ = g1p
    prof = cycle_parity_profile(G)
    cotree = [cyc.cotree_edge for cyc in prof.basis]
    for _ in range(20):
        picks = [i for i in range(len(cotree)) if rng.random() < 0.3]
        edges = set()
        for i in picks:
            edges ^= set(prof.basis[i].edges)
        direct_phi = len(edges) % 2
        combo_phi = sum(prof.phi_values[i] for i in picks) % 2
        assert direct_phi == combo_phi
        direct_w1 = sum(1 for e in edges if G.signature[e] < 0) % 2
        combo_w1 = sum(prof.w1_values[i] for i in picks) % 2
        assert direct_w1 == combo_w1


def test_parity_map_requires_even_faces(g0):
    cycle = EmbeddedGraph([1, 0, 3, 2, 5, 4],
                          [3, 4, 5, 0, 1, 2],
                          [1, 1, 1],
                          ["a", "a", "b", "b", "c", "c"])
    assert sorted(len(f) for f in cycle.faces) == [3, 3]
    with pytest.raises(InputError):
        cycle_parity_profile(cycle)


def test_classify_phi_type_rejects_orientable():
    G, _ = torus_grid(3, 3)
    prof = cycle_parity_profile(G)
    assert prof.phi_type is None
    with pytest.raises(InputError, match="^type classification needs a non-orientable surface$"):
        classify_phi_type(prof)


def test_phi_type_parity_consistency(g0p, g1p, k4p):
    instances = [g0p, g1p, k4p,
                 build_high_genus_family("g1p", 1),
                 build_high_genus_family("g1p", 2),
                 (klein_bottle_grid()[0], None)]
    for G, _ in instances:
        prof = cycle_parity_profile(G)
        genus = classify_surface(G).genus
        if prof.parity == ODD:
            assert prof.phi_type == "PHI1" or (prof.phi_type == "PHI3" and genus % 2 == 1)
        else:
            assert prof.phi_type in ("PHI0", "PHI2") or (
                prof.phi_type == "PHI3" and genus % 2 == 0
            )


# -- the PHI3 certificate -------------------------------------------------------


def test_twelve_edge_list_cannot_match_any_representative(g1p):
    # two hexagons carry their listed edges at antipodal rim positions, so
    # whichever diagonal splits them leaves a face with an odd negative
    # count; no switching representative of any diagonal completion matches
    G, _ = g1p
    rep = phi3_certificate(G, g1_prime_negative_edges())
    assert (rep.passed, rep.lines) == (False, (MISMATCH,))


def test_completed_certificate_passes(g1p):
    G, _ = g1p
    edges = g1_prime_certificate_edges(G)
    assert len(edges) == 14
    assert edges == endpoint_pair_completion(G, g1_prime_negative_edges())
    rep = phi3_certificate(G, edges)
    assert rep.passed


def test_completed_certificate_passes_for_other_diagonal_choices():
    G1, _ = build_G1()
    for choices in ((1, 1, 1, 1, 1, 1), (2, 0, 1, 2, 0, 1)):
        G = split_hexagons(G1, choices)
        edges = g1_prime_certificate_edges(G)
        assert edges == endpoint_pair_completion(G, g1_prime_negative_edges())
        assert phi3_certificate(G, edges).passed


def test_twelve_edge_list_certifies_g1_itself(g1):
    # the even-faced embedding has the antipodal pairs on hexagon faces,
    # where their count is even; there the twelve-edge list is consistent
    G, _ = g1
    rep = phi3_certificate(G, g1_prime_negative_edges())
    assert rep.passed


def test_tampered_certificate_fails(g1p):
    G, _ = g1p
    edges = list(g1_prime_certificate_edges(G))
    victim = edges.pop()
    replacement = next(
        e for e in G.edges if e not in [tuple(sorted(x)) for x in edges] and e != victim
    )
    # tampering may already clash with every representative, which fails too
    assert not phi3_certificate(G, edges + [replacement]).passed


def test_representative_check_matches_per_cycle_oracle(g0, g1, g0p, g1p, k4p):
    # listed sets are drawn from edges with no parallel, so that each
    # vertex pair names one edge
    rng = random.Random(9)
    verdicts = set()
    maps = [G for G, _ in (g0, g1, g0p, g1p, k4p)] + list(random_maps(41))
    for G in maps:
        for H in (G, G.switched([v for v in G.vertices if rng.random() < 0.5])):
            pairs = Counter(H.edges)
            single = [k for k, e in enumerate(H.edges) if pairs[e] == 1]
            negative = [k for k in single if H.signature[k] < 0]
            for listed in (negative, [k for k in single if rng.random() < 0.3]):
                rep = phi3_certificate(H, [H.edges[k] for k in listed])
                matched = rep.lines != (MISMATCH,)
                assert matched or not rep.passed
                assert matched == listed_set_matches_per_cycle(H, set(listed))
                verdicts.add(matched)
    assert verdicts == {True, False}


PHI3_PASS_TEXT = (
    "phi3-certificate: pass\n"
    "graph minus listed edges bipartite: True\n"
    "every removed edge joins same-class vertices: True\n"
)


def test_phi3_certificate_matches_per_cycle_oracle(g0, g1, g0p, g1p, k4p):
    # the oracle reads a depth-first tree, not the map's spanning tree; on
    # even-faced maps a pass is also the profile's PHI3 condition
    rng = random.Random(18)
    verdicts = Counter()
    maps = [G for G, _ in (g0, g1, g0p, g1p, k4p)] + list(random_maps(41))
    for G in maps:
        for H in (G, G.switched([v for v in G.vertices if rng.random() < 0.5])):
            pairs = Counter(H.edges)
            single = [k for k, e in enumerate(H.edges) if pairs[e] == 1]
            negative = [k for k in single if H.signature[k] < 0]
            even_faced = all(len(f) % 2 == 0 for f in H.faces)
            for listed in (negative, [k for k in single if rng.random() < 0.3]):
                rep = phi3_certificate(H, [H.edges[k] for k in listed])
                if rep.lines == (MISMATCH,):
                    assert not rep.passed
                    assert not listed_set_matches_per_cycle(H, set(listed))
                    verdicts["mismatch"] += 1
                    continue
                assert listed_set_matches_per_cycle(H, set(listed))
                assert rep.passed == phi3_passes_per_cycle(H, set(listed))
                if even_faced:
                    profile = cycle_parity_profile(H)
                    assert rep.passed == (profile.phi_values == profile.w1_values)
                    verdicts["even-faced", rep.passed] += 1
                verdicts[rep.passed] += 1
                if rep.passed:
                    assert rep.text() == PHI3_PASS_TEXT
                    continue
                # the witness (one of its parallels, if any) is an edge off the
                # spanning tree whose cycle holds an odd number of unlisted edges
                u, w = rep.lines[0].split()[1].split("~")
                assert rep.lines == (
                    f"edge {u}~{w} closes a cycle with an odd number of unlisted edges",
                )
                parent, tree = spanning_tree_parents(H), tree_edges(H)
                assert any(
                    len(fundamental_cycle(H, parent, k) - set(listed)) % 2
                    for k in H.edges_between(u, w) if k not in tree
                )
    assert all(verdicts[key] for key in (
        True, False, "mismatch", ("even-faced", True), ("even-faced", False)
    )), verdicts


def test_all_six_edges_certify_switched_k4_prime():
    # switched at 1 and 3 every edge of K4' is negative, so G - L has no
    # edge at all; putting every vertex in one class certifies PHI3
    G = parse_graph((GOLDEN / "k4p.txt").read_text())[0].switched({"1", "3"})
    assert set(G.signature) == {-1}
    assert phi3_certificate(G, G.edges).text() == PHI3_PASS_TEXT


def test_negative_edges_of_golden_g1p_certify_it():
    # G - L is disconnected here too
    G, _ = parse_graph((GOLDEN / "g1p.txt").read_text())
    negative = [e for e, s in zip(G.edges, G.signature) if s < 0]
    assert len(negative) == 42
    assert phi3_certificate(G, negative).text() == PHI3_PASS_TEXT


def test_empty_certificate_on_bipartite_all_positive():
    # orientable bipartite grid: the empty set matches the all-positive
    # representative and nothing is removed
    G, _ = torus_grid(4, 4)
    rep = phi3_certificate(G, [])
    assert rep.passed


# -- auxiliary graph and excess ---------------------------------------------------


def test_auxiliary_graph_of_g1(g1):
    G, c = g1
    with pytest.raises(InputError, match="^face of length 6 present$"):
        auxiliary_graph(G, c)


def test_auxiliary_graph_face_tags(g1p, k4p):
    G, c = g1p
    aux = auxiliary_graph(G, c)
    # G1': 18 four-colored quads survive; the 9 two-colored quads plus the
    # 12 hexagon halves are bichromatic
    four = aux.face_tags.count("four-chromatic")
    bi = aux.face_tags.count("bichromatic")
    assert four == 18 and bi == 21
    assert len(aux.edges) == 2 * bi
    for u, w in aux.edges:
        assert c.assignment[u] == c.assignment[w]

    # a searched local 4-coloring also shows three-colored faces
    searched = search_local_coloring(G, 4, 4).coloring
    tags = Counter(auxiliary_graph(G, searched).face_tags)
    assert tags == {"other": 28, "bichromatic": 8, "four-chromatic": 3}

    K, cK = k4p
    auxK = auxiliary_graph(K, cK)
    assert auxK.face_tags == ("four-chromatic",) * 3
    assert auxK.edges == ()


def test_auxiliary_graph_two_colored():
    G, c = two_squares_sphere()
    aux = auxiliary_graph(G, c)
    assert aux.face_tags == ("bichromatic", "bichromatic")
    assert len(aux.edges) == 4


def test_g1_face_census_against_aux(g1):
    G, c = g1
    quads = [f for f in G.faces if len(f) == 4]
    bi = sum(1 for f in quads if len({c.assignment[v] for v in G.face_vertex_walk(f)}) == 2)
    four = sum(1 for f in quads if len({c.assignment[v] for v in G.face_vertex_walk(f)}) == 4)
    assert (four, bi) == (18, 9)


def test_excess_identity(k4p, g0p, g1p):
    assert excess_report(k4p[0]).total == -4
    assert excess_report(g0p[0]).total == 20
    assert excess_report(g1p[0]).total == 12


def test_excess_on_every_nonorientable_quadrangulation_built():
    for base, k in (("g0p", 0), ("g0p", 3), ("g1p", 0), ("g1p", 2)):
        G, _ = build_high_genus_family(base, k)
        rep = excess_report(G)
        assert rep.total == 4 * (rep.genus - 2)
    KB, _ = klein_bottle_grid()
    assert excess_report(KB).total == 0


def test_excess_rejects_orientable():
    G, _ = torus_grid(3, 3)
    with pytest.raises(InputError, match="^excess identity applies to non-orientable surfaces$"):
        excess_report(G)


# -- surgeries ---------------------------------------------------------------------


def test_crosscap_raises_genus_and_keeps_structure(g1p):
    G, c = g1p
    k = find_crosscap_candidates(G, c)[0]
    G2, c2 = crosscap_hexagon(G, c, k)
    sc = classify_surface(G2)
    assert (sc.orientable, sc.genus) == (False, 6)
    assert G2.n_edges == G.n_edges + 2
    assert len(G2.faces) == len(G.faces) + 1
    assert quad_parity(G2) == ODD
    assert is_local_coloring(G2, c2, 3)
    assert len(set(c2.assignment.values())) == 6
    assert find_crosscap_candidates(G2, c2)


def test_crosscap_rejects_bad_edge(g1p):
    G, c = g1p
    candidates = set(find_crosscap_candidates(G, c))
    bad = next(k for k in range(G.n_edges) if k not in candidates)
    for k in (bad, -1, G.n_edges):
        with pytest.raises(InputError, match="^shared edge must bound two distinct quadrilaterals"
                                             " with a two-colored union$"):
            crosscap_hexagon(G, c, k)


def test_site_test_agrees_with_the_candidate_list(g0, g1, g0p, g1p, k4p):
    # both read one scan, so both are checked against the face-by-face oracle
    rng = random.Random(29)
    squares = two_squares_sphere()
    # the path a-b-c on the sphere: one 4-gon, on both sides of each edge
    path = assemble_embedding(FaceListComplex.from_lists([("a", "b", "c", "b")]))
    cases = [g0, g1, g0p, g1p, k4p, build_high_genus_family("g1p", 7), squares,
             (squares[0], Coloring(dict.fromkeys(squares[0].vertices, 1), 1)),
             (path, Coloring({"a": 1, "b": 2, "c": 1}, 2))]
    # faces of every length and improper colorings
    cases += [(G, Coloring({v: rng.randint(1, 2) for v in G.vertices}, 2))
              for G in random_maps(29, 60)]
    found = 0
    for G, c in cases:
        for H in (G, relabel_darts(G, rng), relabel_darts(G, rng)):
            sites = face_by_face_crosscap_sites(H, c)
            assert find_crosscap_candidates(H, c) == sites
            assert [k for k in range(-1, H.n_edges + 1) if is_crosscap_site(H, c, k)] == sites
            found += len(sites)
    assert found > 100


def test_crosscap_checks_coloring_before_site(g1p):
    G, c = g1p
    candidates = set(find_crosscap_candidates(G, c))
    bad = next(k for k in range(G.n_edges) if k not in candidates)
    u, w = G.edges[0]
    improper = Coloring({**c.assignment, w: c.assignment[u]}, c.m)
    uncolored = Coloring({v: x for v, x in c.assignment.items() if v != u}, c.m)
    for coloring, message in ((improper, "crosscap surgery needs a proper coloring"),
                              (uncolored, f"coloring is not total, vertex {u!r} uncolored")):
        for k in (bad, min(candidates)):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                crosscap_hexagon(G, coloring, k)


def test_crosscap_accepts_a_proper_coloring_that_is_not_local3(g1p):
    G, c = g1p
    v = G.vertices[0]
    fresh = Coloring({**c.assignment, v: c.m + 1}, c.m + 1)
    assert not is_local_coloring(G, fresh, 3)
    k = next(k for k in find_crosscap_candidates(G, fresh)
             if v not in {x for f, _ in G.edge_slots[k] for x in G.face_vertex_walk(G.faces[f])})
    G2, _ = crosscap_hexagon(G, fresh, k)
    assert classify_surface(G2).genus == classify_surface(G).genus + 1


def test_two_crosscaps_reach_genus_seven():
    G, c = build_high_genus_family("g1p", 2)
    assert classify_surface(G).genus == 7
    assert quad_parity(G) == ODD


def test_family_endpoints_match_universal_graphs():
    from quadloc.localcolor import build_U, u_vertex_name

    G, c = build_high_genus_family("g0p", 10)
    assert classify_surface(G).genus == 17
    U = build_U(5, 3)
    assert {frozenset(e) for e in G.edges} == {
        frozenset((u, w)) for u in U.adjacency for w in U.adjacency[u]
    }
    assert is_local_coloring(G, c, 3)

    G2, _ = build_high_genus_family("g1p", 6)
    assert classify_surface(G2).genus == 11
    U6 = build_U(6, 3)
    keep = {u_vertex_name(i, A) for (i, A) in U6.vertices if len(A & {1, 2, 3}) == 1}
    induced = {
        frozenset((u, w)) for u in keep for w in U6.adjacency[u] if w in keep
    }
    assert {frozenset(e) for e in G2.edges} == induced


def test_family_beyond_hexagons_creates_parallel_edges():
    G, c = build_high_genus_family("g1p", 7)
    assert classify_surface(G).genus == 12
    assert quad_parity(G) == ODD
    assert len(set(G.edges)) < G.n_edges  # parallel edges present


def test_refine_3x3_sphere_counts():
    G, c = two_squares_sphere()
    G2, c2 = refine_3x3(G, c)
    # V + 2E + 4F, 3E + 12F, 9F with chi unchanged (= 2, forcing V' = 20)
    assert (G2.n_vertices, G2.n_edges, len(G2.faces)) == (20, 36, 18)
    assert classify_surface(G2).euler_characteristic == 2
    assert is_local_coloring(G2, c2, 2)
    assert set(c2.assignment.values()) <= set(c.assignment.values())
    with pytest.raises(InputError, match="^refinement extends a proper coloring only$"):
        refine_3x3(G, Coloring({v: 1 for v in G.vertices}, 1))


def test_refine_3x3_clears_parallel_edges_and_keeps_parity():
    G, c = build_high_genus_family("g1p", 1)
    G2, c2 = refine_3x3(G, c)
    assert len(set(G2.edges)) == G2.n_edges
    assert quad_parity(G2) == ODD
    assert classify_surface(G2).genus == 6
    assert is_local_coloring(G2, c2, 3)
    assert set(c2.assignment.values()) == set(c.assignment.values())


def test_refine_3x3_parity_preserved_across_family():
    rng = random.Random(15)
    instances = []
    for n, m in ((3, 3), (3, 4), (4, 4)):
        instances.append(torus_grid(n, m))
    instances.append(two_squares_sphere())
    instances.append(klein_bottle_grid())
    G1, c1 = build_G1()
    for _ in range(3):
        instances.append((split_hexagons(G1, [rng.randrange(3) for _ in range(6)]), c1))
    for G, c in instances:
        want = quad_parity(G)
        G2, _ = refine_3x3(G, c)
        assert quad_parity(G2) == want


def test_identify_face_diagonal_on_torus():
    G, c = torus_grid(3, 3)
    # find a face with an equal-colored diagonal pair
    target = None
    for i, f in enumerate(G.faces):
        walk = G.face_vertex_walk(f)
        cols = [c.assignment[v] for v in walk]
        if cols[0] == cols[2] or cols[1] == cols[3]:
            target = i
            break
    assert target is not None
    G2, c2 = identify_face_diagonal(G, c, target)
    assert G2.n_vertices == G.n_vertices - 1
    assert G2.n_edges == G.n_edges - 2
    assert len(G2.faces) == len(G.faces) - 1
    assert classify_surface(G2) == classify_surface(G)
    assert quad_parity(G2) == quad_parity(G) == EVEN


def test_identify_with_monochromatic_star_stays_local3():
    G, c = two_squares_sphere()
    G2, c2 = identify_face_diagonal(G, c, 0)
    assert (G2.n_vertices, G2.n_edges, len(G2.faces)) == (3, 2, 1)
    assert classify_surface(G2).euler_characteristic == 2
    assert is_local_coloring(G2, c2, 3)
    assert quad_parity(G2) == EVEN


def test_identify_rejects_unequal_diagonals(k4p):
    G, c = k4p
    with pytest.raises(InputError, match="^no equal-colored diagonal on this face$"):
        identify_face_diagonal(G, c, 0)
    u, w = G.edges[0]
    improper = Coloring({**c.assignment, w: c.assignment[u]}, c.m)
    with pytest.raises(InputError, match="^identification needs a proper coloring$"):
        identify_face_diagonal(G, improper, 0)


def test_identify_requires_distinct_vertices():
    G, c = two_squares_sphere()
    G2, c2 = identify_face_diagonal(G, c, 0)
    with pytest.raises(InputError, match="^identification needs four distinct face vertices$"):
        identify_face_diagonal(G2, c2, 0)


@pytest.mark.parametrize("name, index", [("k4p", 5), ("k4p", 3), ("g1p", -1)])
def test_identify_rejects_a_face_index_out_of_range(request, name, index):
    # past the end used to raise IndexError; -1 kept the face and failed in the assembler
    G, c = request.getfixturevalue(name)
    with pytest.raises(InputError) as excinfo:
        identify_face_diagonal(G, c, index)
    assert str(excinfo.value) == f"face index {index} is out of range for {len(G.faces)} faces"


def test_auxiliary_graph_rejects_improper_coloring():
    G, _ = two_squares_sphere()
    bad = Coloring({"1": 1, "2": 1, "3": 2, "4": 2}, 2)
    with pytest.raises(InputError, match="^auxiliary graph needs a proper coloring$"):
        auxiliary_graph(G, bad)
