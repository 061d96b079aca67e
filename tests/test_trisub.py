import random

import pytest

from quadloc import trisub
from quadloc.constructions import (
    build_G0_prime,
    build_G1_prime,
    build_high_genus_family,
    build_K4_projective,
)
from quadloc.errors import InputError
from quadloc.localcolor import (
    FOUND,
    NONE,
    Coloring,
    find_four_chromatic_face,
    is_local_coloring,
    search_local_coloring,
)
from quadloc.quadform import (
    EVEN,
    ODD,
    color_order_orientation,
    odd_faces_parity,
    quad_parity,
    refine_3x3,
)
from quadloc.surface_map import FaceListComplex, assemble_embedding, classify_surface
from quadloc.trisub import (
    Triangulation,
    extend_coloring_to_subdivision,
    face_subdivision,
    find_fisk_triangulation,
    fisk_check,
    flip_edge,
    link_winding,
    torus_grid_triangulation,
    tq_lower_bound_check,
    vertex_link,
)
from helpers import bipyramid_over_c5, greedy_coloring, klein_bottle_grid, two_squares_sphere
from oracles import brute_local_coloring_exists


def test_subdivision_of_sphere_quad_is_octahedron():
    G, _ = two_squares_sphere()
    T, origin = face_subdivision(G)
    assert (T.graph.n_vertices, T.graph.n_edges, len(T.graph.faces)) == (6, 12, 8)
    assert classify_surface(T.graph).euler_characteristic == 2
    assert sorted(T.graph.degree(v) for v in T.graph.vertices) == [4] * 6
    assert sorted(origin.values()).count("hub") == 2


def test_subdivision_of_k4_projective(k4p):
    G, _ = k4p
    T, _ = face_subdivision(G)
    assert (T.graph.n_vertices, T.graph.n_edges, len(T.graph.faces)) == (7, 18, 12)
    assert classify_surface(T.graph).euler_characteristic == 1


def test_extension_witnesses_psi_upper_bound(k4p):
    G, c = k4p
    T, origin = face_subdivision(G)
    ext = extend_coloring_to_subdivision(G, c, T, origin)
    assert is_local_coloring(T.graph, ext, 5)


def test_tq_bound_on_k4_gives_exact_five(k4p):
    G, c = k4p
    T, _ = face_subdivision(G)
    # independent oracle first: no local 4-coloring with up to 7 colors
    assert not brute_local_coloring_exists(T.graph.adjacency, 4, 7)
    rep = tq_lower_bound_check(G, c)
    assert rep.parity == ODD
    assert rep.lower_bound == 5 and rep.upper_witness and rep.psi_exact == 5


def test_octahedron_contrast_case():
    G, c = two_squares_sphere()
    T, _ = face_subdivision(G)
    out = search_local_coloring(T.graph, 4, 6)
    assert out.status == FOUND  # evenness matters: the bound needs oddness
    rep = tq_lower_bound_check(G, c)
    assert rep.parity == EVEN and rep.lower_bound is None and rep.psi_exact is None


@pytest.mark.parametrize("build, status", [
    (build_K4_projective, NONE),
    (build_G0_prime, NONE),
    (build_G1_prime, NONE),
    (lambda: build_high_genus_family("g0p", 1), NONE),
    (lambda: build_high_genus_family("g1p", 1), NONE),
    (lambda: refine_3x3(*build_K4_projective()), NONE),
    (two_squares_sphere, FOUND),
    (lambda: klein_bottle_grid(4), FOUND),
], ids=["k4p", "g0p", "g1p", "g0p+1", "g1p+1", "k4p refined", "two squares", "klein bottle 4"])
def test_search_agrees_with_the_parity_bound(build, status):
    """The exhaustive search, with no budget and m = |V(T)|, is the oracle
    for the parity proof: T(Q) has a local 4-coloring exactly when Q is
    even, on these maps."""
    Q, c = build()
    T, _ = face_subdivision(Q)
    assert search_local_coloring(T.graph, 4, T.graph.n_vertices).status == status
    rep = tq_lower_bound_check(Q, c)
    assert rep.parity == (ODD if status == NONE else EVEN)
    assert rep.lower_bound == (5 if status == NONE else None)


def test_every_proper_coloring_of_an_odd_map_shows_a_four_colored_face(k4p, g0p, g1p):
    """Steps 1-2 of the parity proof, on 200 seeded greedy colorings per map,
    each in a random vertex order: orienting every edge toward its larger
    color leaves an odd number of odd faces on an odd map and an even number
    on an even one, and an odd map always has a face with four colors."""
    rng = random.Random(17)
    k4p1 = refine_3x3(*k4p)
    odd = [k4p, k4p1, refine_3x3(*k4p1), g0p, refine_3x3(*g0p), g1p, refine_3x3(*g1p),
           build_high_genus_family("g1p", 3)]
    even = [klein_bottle_grid(4), two_squares_sphere()]
    for maps, parity in ((odd, ODD), (even, EVEN)):
        for G, _ in maps:
            assert quad_parity(G) == parity
            order = list(G.vertices)
            for _ in range(200):
                rng.shuffle(order)
                c = greedy_coloring(G, order)
                assert odd_faces_parity(G, color_order_orientation(G, c))[0] == parity
                if parity == ODD:
                    assert find_four_chromatic_face(G, c) is not None


def test_link_winding_on_octahedron():
    G, _ = two_squares_sphere()
    T, origin = face_subdivision(G)
    c = Coloring({"1": 1, "3": 1, "2": 2, "4": 2, "h0": 3, "h1": 3}, 3)
    for v in T.graph.vertices:
        w = link_winding(T, c, v)
        assert w % 2 == 0  # all degrees are 4


def test_link_winding_on_bipyramid_apex():
    G, c = bipyramid_over_c5()
    T = Triangulation.wrap(G)
    assert link_winding(T, c, "a") % 2 == 1
    assert abs(link_winding(T, c, "a")) == 1


def test_link_winding_rejects_four_colors():
    G, c = bipyramid_over_c5()
    T = Triangulation.wrap(G)
    bad = Coloring(dict(c.assignment, v0=5), 5)
    with pytest.raises(InputError, match="^link of a shows 4 colors; not local-4 there$"):
        link_winding(T, bad, "a")


def test_link_winding_rejects_an_improper_link_edge():
    G = torus_grid_triangulation(3, 4)
    c = search_local_coloring(G, 4, 4).coloring
    bad = Coloring({**c.assignment, "1.1": c.assignment["0.1"]}, c.m)
    with pytest.raises(InputError, match="^coloring is not proper on a link edge$"):
        link_winding(Triangulation.wrap(G), bad, "0.0")


def test_winding_parity_sweep():
    instances = []
    G, c = bipyramid_over_c5()
    instances.append((Triangulation.wrap(G), c))
    S, _ = two_squares_sphere()
    T, origin = face_subdivision(S)
    instances.append((T, Coloring({"1": 1, "3": 1, "2": 2, "4": 2, "h0": 3, "h1": 3}, 3)))
    G6 = torus_grid_triangulation(3, 3)
    instances.append((Triangulation.wrap(G6), Coloring(
        {v: (int(v.split(".")[0]) + int(v.split(".")[1])) % 3 + 1 for v in G6.vertices}, 3)))
    for T, c in instances:
        for v in T.graph.vertices:
            w = link_winding(T, c, v)
            assert (w - T.graph.degree(v)) % 2 == 0


def test_fisk_check_on_bipyramid():
    G, c = bipyramid_over_c5()
    T = Triangulation.wrap(G)
    assert T.odd_vertices == ("a", "b")
    rep = fisk_check(T, c)
    assert rep.colors_equal and rep.neighbor_triples_equal
    assert all(t == s for (_, t, sums) in rep.parity_rows for s in sums)


def test_fisk_check_vacuous_on_octahedron():
    G, _ = two_squares_sphere()
    T, _ = face_subdivision(G)
    c = Coloring({"1": 1, "3": 1, "2": 2, "4": 2, "h0": 3, "h1": 3}, 3)
    rep = fisk_check(T, c)
    assert rep.colors_equal is None
    assert all(t == 0 and all(s == 0 for s in sums) for (_, t, sums) in rep.parity_rows)


def test_fisk_congruences_on_colored_test_triangulations():
    instances = []
    G6 = torus_grid_triangulation(3, 3)
    instances.append((Triangulation.wrap(G6), Coloring(
        {v: (int(v.split(".")[0]) + int(v.split(".")[1])) % 3 + 1 for v in G6.vertices}, 3)))
    G, c = bipyramid_over_c5()
    instances.append((Triangulation.wrap(G), c))
    for T, c in instances:
        fisk_check(T, c)  # raises on any congruence failure


def test_fisk_rejects_more_than_two_odd():
    G = torus_grid_triangulation(3, 3)
    G2 = flip_edge(G, 0)
    T = Triangulation.wrap(G2)
    if len(T.odd_vertices) > 2:
        with pytest.raises(InputError):
            fisk_check(T, greedy_coloring(G2))
    with pytest.raises(InputError, match="^grid needs n, m >= 3 to stay simple$"):
        torus_grid_triangulation(2, 5)
    # every vertex of the tetrahedron has degree 3, so no edge flips
    K4 = assemble_embedding(FaceListComplex.from_lists(
        [("1", "2", "3"), ("1", "3", "4"), ("1", "4", "2"), ("2", "4", "3")]))
    with pytest.raises(InputError, match="^edge is not flippable$"):
        flip_edge(K4, 0)


def test_flip_walk_produces_fisk_instance_without_local_4_coloring():
    T, steps = find_fisk_triangulation(seed=0)
    G = T.graph
    assert len(T.odd_vertices) == 2
    x, y = T.odd_vertices
    assert y in G.adjacency[x]
    assert G.n_vertices <= 16
    assert all(len(f) == 3 for f in G.faces)
    out = search_local_coloring(G, 4, G.n_vertices)
    assert out.status == NONE


def test_flip_walk_is_deterministic():
    T1, s1 = find_fisk_triangulation(seed=3)
    T2, s2 = find_fisk_triangulation(seed=3)
    assert s1 == s2
    assert T1.graph.edges == T2.graph.edges


def test_flip_walk_reports_a_walk_that_runs_out_of_flips(monkeypatch):
    # the even 3 x 4 grid has no odd vertex, so one flip cannot end the walk
    monkeypatch.setattr(trisub, "_FISK_MAX_FLIPS", 1)
    with pytest.raises(InputError, match="^no two-adjacent-odd-vertex triangulation within 1 flips$"):
        find_fisk_triangulation(seed=0)


def test_vertex_link_rejects_non_triangulation(k4p):
    G, _ = two_squares_sphere()
    with pytest.raises(InputError):
        vertex_link(G, "1")
    with pytest.raises(InputError, match="^not a triangulation$"):
        Triangulation.wrap(k4p[0])


def test_face_subdivision_rejects_non_quadrangulations():
    G = torus_grid_triangulation(3, 3)
    with pytest.raises(InputError):
        face_subdivision(G)
