"""Properties of every map, checked on seeded random rotation systems with
signatures (Mohar and Thomassen, *Graphs on Surfaces*, ch. 3-4): Euler's
formula against an independent face count, the tree-cotree cut system
against a Z2 rank, loops and neighbours against the edge list, the
orientation double cover, the medial map, the text round trip and
invariance under relabelling the darts.  The maps have 1-10 vertices,
loops and parallel edges, and random signs, so both orientable and
non-orientable surfaces occur.  ``rebuild`` without a dropped edge must keep
every dart's number, on these maps and on the golden maps and their
refinements.
"""
from __future__ import annotations

import random

import pytest

from quadloc.errors import InputError
from quadloc.quadform import refine_3x3
from quadloc.surface_map import (classify_surface, medial_graph, orientation_double_cover, rebuild,
                                 split_face)
from quadloc.textio import parse_graph, write_graph
from helpers import random_rotation_system, relabel_darts
from oracles import brute_faces, cut_cycles_span_homology


def seeded_maps(seed=1729, count=400):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        yield random_rotation_system(rng, n, rng.randint(max(1, n - 1), 2 * n + 6))


MAPS = list(seeded_maps())


def min_degree(G):
    return min(G.degree(v) for v in G.vertices)


def verdicts(G):
    """Everything the kernel decides about ``G`` that no dart number shows."""
    sc = classify_surface(G)
    out = [sc, G.face_lengths(), sorted(G.edges)]
    if min_degree(G) >= 2:
        M, tags = medial_graph(G)
        out += [classify_surface(M), sorted((t[0], len(f)) for t, f in zip(tags, M.faces))]
    if not sc.orientable:
        cover = orientation_double_cover(G)
        out += [classify_surface(cover), cover.face_lengths()]
    return out


def test_the_sample_covers_both_kinds_of_surface_and_of_edge():
    kinds = {classify_surface(G).orientable for G in MAPS}
    assert kinds == {True, False}
    assert any(G.has_loop() for G in MAPS)
    assert any(len(set(G.edges)) < G.n_edges for G in MAPS)
    assert sum(min_degree(G) >= 2 for G in MAPS) >= 100


def test_cut_system_leaves_a_homology_basis_off_both_trees():
    for G in MAPS:
        dual, leftover = G.cut_system
        chi = G.n_vertices - G.n_edges + len(brute_faces(G.rotation, G.pairing, G.signature))
        tree = {G.edge_of[d] for d in G.spanning_tree.values() if d is not None}
        assert sorted(dual) == list(range(len(G.faces))) and dual[0] is None
        assert len(leftover) == 2 - chi
        assert not set(leftover) & (tree | set(dual.values()))
        assert cut_cycles_span_homology(G, leftover)


def test_loops_and_neighbours_match_the_edge_list():
    for G in MAPS:
        assert G.has_loop() == any(u == w for u, w in G.edges)
        adj = {v: set() for v in G.vertices}
        for u, w in G.edges:
            adj[u].add(w)
            adj[w].add(u)
        assert G.adjacency == adj and list(G.adjacency) == list(G.vertices)


def test_euler_characteristic_matches_an_independent_face_count():
    for G in MAPS:
        faces = brute_faces(G.rotation, G.pairing, G.signature)
        chi = G.n_vertices - G.n_edges + len(faces)
        assert classify_surface(G).euler_characteristic == chi


def test_double_cover_is_orientable_with_twice_the_characteristic():
    covers = 0
    for G in MAPS:
        sc = classify_surface(G)
        if sc.orientable:
            with pytest.raises(InputError, match="^already orientable: two disjoint copies$"):
                orientation_double_cover(G)
            continue
        cover = orientation_double_cover(G)
        top = classify_surface(cover)
        assert top.orientable
        assert top.euler_characteristic == 2 * sc.euler_characteristic
        assert len(cover.faces) == 2 * len(G.faces)
        covers += 1
    assert covers >= 100


def test_medial_map_keeps_the_surface():
    for G in MAPS:
        if min_degree(G) < 2:
            continue
        M, tags = medial_graph(G)
        assert classify_surface(M) == classify_surface(G)
        assert len(tags) == G.n_vertices + len(G.faces)


def test_write_read_write_is_byte_identical():
    for G in MAPS:
        text = write_graph(G)
        G2, coloring = parse_graph(text)
        assert coloring is None
        assert write_graph(G2) == text


def test_relabelling_the_darts_changes_no_verdict():
    rng = random.Random(31)
    for G in MAPS:
        H = relabel_darts(G, rng)
        assert verdicts(H) == verdicts(G)


def face_forms(faces, pairing):
    """Each face's tail darts up to rotation and reversal (the paired darts
    in reverse order), sorted."""
    def least(seq):
        return min(seq[i:] + seq[:i] for i in range(len(seq)))
    return sorted(min(least(list(f)), least([pairing[d] for d in reversed(f)])) for f in faces)


def test_rebuild_without_a_drop_keeps_every_dart(g0, g1, g0p, g1p, k4p):
    refined = [refine_3x3(G, c)[0] for G, c in (g0p, g1p, k4p)]
    maps = [G for G, _ in (g0, g1, g0p, g1p, k4p)] + refined + MAPS
    for G in maps:
        faces = [list(f.tails) for f in G.faces]
        H = rebuild(G, faces)
        assert H.pairing == G.pairing and H.vertex_of == G.vertex_of
        assert face_forms([f.tails for f in H.faces], H.pairing) == face_forms(faces, G.pairing)
        # one chord across each face of two or more slots: new edge j has
        # darts n + 2j at the chord's first corner and n + 2j + 1 at its second
        n, split, ends = G.n_darts, [], []
        for face in faces:
            if len(face) < 2:
                split.append(face)
                continue
            i = len(face) // 2
            split += split_face(face, 0, i, n + 2 * len(ends))
            ends.append((G.vertex_of[face[0]], G.vertex_of[face[i]]))
        H = rebuild(G, split, new_ends=ends)
        assert H.pairing[:n] == G.pairing and H.vertex_of[:n] == G.vertex_of
        for j, (u, w) in enumerate(ends):
            assert H.pairing[n + 2 * j] == n + 2 * j + 1
            assert H.vertex_of[n + 2 * j:n + 2 * j + 2] == (u, w)
        assert face_forms([f.tails for f in H.faces], H.pairing) == face_forms(split, H.pairing)
