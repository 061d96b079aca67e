import random
from collections import Counter
from itertools import permutations, product

import pytest

from quadloc import surface_map
from quadloc.errors import InputError, InternalConsistencyError
from quadloc.quadform import (
    crosscap_hexagon,
    find_crosscap_candidates,
    identify_face_diagonal,
    refine_3x3,
)
from quadloc.trisub import face_subdivision, torus_grid_triangulation
from quadloc.surface_map import (
    EmbeddedGraph,
    FaceListComplex,
    _canonical_cycle,
    _match_faces,
    assemble_embedding,
    automorphisms,
    classify_surface,
    medial_graph,
    merge_faces,
    orientation_double_cover,
    rebuild,
    split_face,
    switching_defect,
)
from helpers import (
    cycle_graph,
    klein_bottle_grid,
    random_maps,
    random_rotation_system,
    relabel_darts,
    torus_grid,
    two_squares_sphere,
)
from oracles import (
    assemble_rotation,
    brute_faces,
    brute_least_rotation,
    dfs_switching_trivial,
    fundamental_cycle,
    is_map_automorphism,
    medial_tag_fits,
    sorted_dart_faces,
    spanning_tree_parents,
    validate_map,
)


def single_edge_sphere():
    return EmbeddedGraph([0, 1], [1, 0], [1], ["u", "w"])


def test_single_edge_sphere_has_one_bigon():
    G = single_edge_sphere()
    assert [len(f) for f in G.faces] == [2]
    sc = classify_surface(G)
    assert (sc.orientable, sc.euler_characteristic, sc.genus) == (True, 2, 0)


def test_one_sided_loop_is_projective_plane():
    G = EmbeddedGraph([1, 0], [1, 0], [-1], ["v", "v"])
    assert [len(f) for f in G.faces] == [2]
    sc = classify_surface(G)
    assert (sc.orientable, sc.euler_characteristic, sc.genus) == (False, 1, 1)


def test_two_squares_glued_give_sphere():
    G, _ = two_squares_sphere()
    assert sorted(len(f) for f in G.faces) == [4, 4]
    assert classify_surface(G) == classify_surface(single_edge_sphere())


def test_face_lengths_sum_to_twice_edge_count():
    for G in (single_edge_sphere(), two_squares_sphere()[0], torus_grid(3, 3)[0]):
        assert sum(len(f) for f in G.faces) == 2 * G.n_edges


def test_relabeling_preserves_faces_and_surface():
    rng = random.Random(7)
    G, _ = klein_bottle_grid()
    for _ in range(5):
        H = relabel_darts(G, rng)
        assert H.face_lengths() == G.face_lengths()
        assert classify_surface(H) == classify_surface(G)


def test_switching_preserves_everything(g1p):
    rng = random.Random(11)
    G, _ = g1p
    for _ in range(5):
        vids = [v for v in G.vertices if rng.random() < 0.4]
        H = G.switched(vids)
        assert H.face_lengths() == G.face_lengths()
        assert classify_surface(H) == classify_surface(G)


def test_structural_validation_rejects_garbage():
    with pytest.raises(InputError, match="^rotation is not a permutation of the darts$"):
        EmbeddedGraph([0, 0], [1, 0], [1], ["u", "w"])
    with pytest.raises(InputError, match="^pairing is not a fixed-point-free involution$"):
        EmbeddedGraph([0, 1], [0, 1], [1], ["u", "w"])
    with pytest.raises(InputError, match="^vertex 'u' split across several rotation cycles$"):
        EmbeddedGraph([0, 1], [1, 0], [1], ["u", "u"])
    with pytest.raises(InputError, match="^map is not connected$"):
        # two components: two disjoint single edges
        EmbeddedGraph([0, 1, 2, 3], [1, 0, 3, 2], [1, 1], ["a", "b", "c", "d"])


def map_mutations(G, others, rng):
    """Seeded variants ``(kind, rotation, pairing, signature, vertex_of)`` of
    the lists of ``G``, most of them broken; ``others`` are maps to take a
    disjoint union with."""
    R, P, S, V = G.rotation, G.pairing, G.signature, G.vertex_of
    n = len(R)

    def changed(lst, *updates):
        lst = list(lst)
        for i, x in updates:
            lst[i] = x
        return lst

    a, b, c = (rng.randrange(n) for _ in range(3))
    across = [d for d in range(n) if V[d] != V[a]]
    if across:
        e = rng.choice(across)
        yield "swap rotation", changed(R, (a, R[e]), (e, R[a])), P, S, V
    if a != b:
        yield "repeat rotation", changed(R, (a, R[b])), P, S, V
    yield "rename dart", R, P, S, changed(V, (a, rng.choice(list(G.vertices) + ["fresh"])))
    yield "pairing fixed points", R, changed(P, (a, a), (P[a], P[a])), S, V
    if len({a, b, c}) == 3:
        yield "pairing 3-cycle", R, changed(P, (a, b), (b, c), (c, a)), S, V
    H = rng.choice(others)
    suffix = rng.choice(("", "'"))
    yield ("disjoint union", R + tuple(d + n for d in H.rotation),
           P + tuple(d + n for d in H.pairing), S + H.signature,
           V + tuple(v + suffix for v in H.vertex_of))
    yield "non-str name", R, P, S, [7 if v == V[a] else v for v in V]
    yield "sign 0 or 2", R, P, changed(S, (rng.randrange(len(S)), rng.choice((0, 2)))), V
    yield "short signature", R, P, S[:-1], V


def test_validation_agrees_with_dart_level_oracle_on_mutated_maps(g0, g1, g0p, g1p, k4p):
    rng = random.Random(29)
    maps = [G for G, _ in (g0, g1, g0p, g1p, k4p)] + list(random_maps(41))
    kinds, messages = Counter(), Counter()
    cases = [("empty", (), (), (), ()), ("unequal", (0, 1), (1, 0), (1,), ("u",))]
    for G in maps:
        cases.append(("unchanged", G.rotation, G.pairing, G.signature, G.vertex_of))
        cases += map_mutations(G, maps, rng)
    for kind, *lists in cases:
        want = validate_map(*lists)
        try:
            EmbeddedGraph(*lists)
            got = None
        except InputError as exc:
            got = str(exc)
        assert got == want, (kind, lists)
        kinds[kind] += 1
        messages[None if want is None else want.split("'")[0]] += 1
    assert len(kinds) == 12 and min(kinds[k] for k in kinds if k not in ("empty", "unequal")) > 200
    assert len(messages) == 11 and messages[None] > len(maps), messages


def test_edge_index_matches_a_scan_of_the_edges(g0, g1, g0p, g1p, k4p):
    maps = [G for G, _ in (g0, g1, g0p, g1p, k4p)] + list(random_maps(41))
    assert any(G.has_loop() for G in maps)
    assert any(len(set(G.edges)) < G.n_edges for G in maps)
    for G in maps:
        scan = {}
        for k, e in enumerate(G.edges):
            scan.setdefault(e, []).append(k)
        assert G.edges_by_ends == {e: tuple(ks) for e, ks in scan.items()}
        for (u, w), ks in scan.items():
            assert G.edges_between(u, w) == G.edges_between(w, u) == tuple(ks)
        assert G.edges_between(G.vertices[0], "no such vertex") == ()


def test_medial_of_sphere_quadrangulation():
    G, _ = two_squares_sphere()
    M, tags = medial_graph(G)
    assert (M.n_vertices, M.n_edges) == (4, 8)
    kinds = sorted((t[0], len(f)) for t, f in zip(tags, M.faces))
    assert kinds == [("cycle", 4), ("cycle", 4)] + [("star", 2)] * 4
    assert classify_surface(M) == classify_surface(G)


def test_medial_of_k4_projective(k4p):
    G, _ = k4p
    M, tags = medial_graph(G)
    assert (M.n_vertices, M.n_edges) == (6, 12)
    kinds = sorted((t[0], len(f)) for t, f in zip(tags, M.faces))
    assert kinds == [("cycle", 4)] * 3 + [("star", 3)] * 4
    assert classify_surface(M).euler_characteristic == 1


def test_medial_of_g0_prime(g0p):
    G, _ = g0p
    M, tags = medial_graph(G)
    assert (M.n_vertices, M.n_edges) == (70, 140)
    stars = [t for t in tags if t[0] == "star"]
    cycles = [t for t in tags if t[0] == "cycle"]
    assert (len(stars), len(cycles)) == (30, 35)
    assert classify_surface(M).euler_characteristic == -5


def test_medial_rejects_degree_one():
    # a path: middle vertex has degree 2, ends degree 1
    G = assemble_embedding(FaceListComplex.from_lists([(1, 2, 1, 3)]))
    with pytest.raises(InputError, match="^medial graph needs minimum degree 2$"):
        medial_graph(G)


def test_medial_preserves_surface_class_on_corpus(g0, g1, k4p):
    for G in (g0[0], g1[0], k4p[0], torus_grid(3, 3)[0], klein_bottle_grid()[0]):
        M, _ = medial_graph(G)
        assert classify_surface(M) == classify_surface(G)


def test_medial_tags_name_the_faces_they_tag(g0, g1, g0p, g1p, k4p):
    maps = [G for G, _ in (g0, g1, g0p, g1p, k4p)]
    maps += [G for G in random_maps(41) if min(map(len, G.darts_at.values())) >= 2]
    assert len(maps) == 5 + 193
    for G in maps:
        M, tags = medial_graph(G)
        stars = [("star", v) for v in G.vertices]
        assert Counter(tags) == Counter(stars + [("cycle", i) for i in range(len(G.faces))])
        for tag, face in zip(tags, M.faces):
            assert medial_tag_fits(G, tag, M.face_vertex_walk(face))


def test_double_cover_of_k4_is_sphere(k4p):
    G, _ = k4p
    cover = orientation_double_cover(G)
    assert (cover.n_vertices, cover.n_edges) == (8, 12)
    sc = classify_surface(cover)
    assert (sc.orientable, sc.euler_characteristic) == (True, 2)
    assert sorted(len(f) for f in cover.faces) == [4] * 6


def test_double_cover_reports_orientable_input():
    G, _ = two_squares_sphere()
    with pytest.raises(InputError, match="^already orientable: two disjoint copies$"):
        orientation_double_cover(G)
    with pytest.raises(InputError, match="^already orientable: two disjoint copies$"):
        orientation_double_cover(torus_grid_triangulation(3, 4))


def test_double_cover_of_g1_prime(g1p):
    G, _ = g1p
    cover = orientation_double_cover(G)
    sc = classify_surface(cover)
    assert (sc.orientable, sc.euler_characteristic, sc.genus) == (True, -6, 4)
    assert sorted(len(f) for f in cover.faces) == sorted([len(f) for f in G.faces] * 2)


def test_assembler_rejects_bad_slot_count():
    with pytest.raises(InputError, match=r"^edge slot \('1', '2'\) occurs 1 times, need exactly 2$"):
        assemble_embedding(FaceListComplex.from_lists([(1, 2, 3)]))
    with pytest.raises(InputError, match="^faces need at least two sides$"):
        assemble_embedding(FaceListComplex.from_lists([("a",)]))


def test_assembler_uses_each_dart_of_a_loop_once():
    # a loop's two sides are the slot pair (v, v), each read once as a tail
    faces = [("a", "a", "b", "b"), ("b", "b", "c", "c"), ("c", "c", "a", "a")]
    G = assemble_embedding(FaceListComplex.from_lists(faces))
    assert (G.n_vertices, G.n_edges, len(G.faces)) == (3, 6, 3)
    sc = classify_surface(G)
    assert (sc.orientable, sc.genus) == (True, 1)
    assert G.has_loop()


def test_assembler_rejects_pinched_vertex():
    faces = [("a", "b", "c"), ("a", "b", "c"), ("a", "d", "e"), ("a", "d", "e")]
    with pytest.raises(InputError, match="^vertex 'a' has no disk neighborhood$"):
        assemble_embedding(FaceListComplex.from_lists(faces))


def record_assemblies(monkeypatch):
    """Every ``_assemble`` call from here on: its arguments, then the map
    built or the error raised."""
    calls, real = [], surface_map._assemble

    def record(faces, pair, names):
        calls.append([faces, pair, names])
        try:
            G, match = real(faces, pair, names)
        except InputError as exc:
            calls[-1].append(exc)
            raise
        calls[-1].append(G)
        return G, match

    monkeypatch.setattr(surface_map, "_assemble", record)
    return calls


def test_assembler_tables_match_flag_by_flag_oracle_on_every_edit(monkeypatch, g0, g1, g0p, g1p, k4p):
    calls = record_assemblies(monkeypatch)
    for G, _ in (g0, g1, g0p, g1p, k4p):
        rebuild(G, [f.tails for f in G.faces])
    for Q, c in (g0p, g1p, k4p):
        R, _ = refine_3x3(Q, c)
        face_subdivision(Q)
        face_subdivision(R)
        for k in find_crosscap_candidates(Q, c)[:2]:
            crosscap_hexagon(Q, c, k)
        for i in range(min(6, len(Q.faces))):
            try:
                identify_face_diagonal(Q, c, i)
            except InputError as exc:
                assert str(exc) == "no equal-colored diagonal on this face"
    for G in random_maps(41):
        rebuild(G, [f.tails for f in G.faces])
    assert len(calls) > 320
    for faces, pair, names, G in calls:
        assert assemble_rotation(faces, pair, names) == (list(G.rotation), list(G.signature))


def test_assembler_names_the_pinched_vertex_as_the_oracle_does(monkeypatch):
    calls = record_assemblies(monkeypatch)
    faces = [("a", "b", "c"), ("a", "b", "c"), ("a", "d", "e"), ("a", "d", "e")]
    with pytest.raises(InputError, match="^vertex 'a' has no disk neighborhood$"):
        assemble_embedding(FaceListComplex.from_lists(faces))
    # two random maps glued at one or more vertex names: disjoint darts,
    # faces and edges, so every shared name has two links
    maps = list(random_maps(42, count=40))
    for G, H in zip(maps[0::2], maps[1::2]):
        n = G.n_darts
        shared = {v: v if i % 2 == 0 else "h" + v for i, v in enumerate(H.vertices)}
        faces = [list(f.tails) for f in G.faces] + [[n + d for d in f.tails] for f in H.faces]
        pair = list(G.pairing) + [n + d for d in H.pairing]
        names = list(G.vertex_of) + [shared[v] for v in H.vertex_of]
        with pytest.raises(InputError, match="^vertex '.*' has no disk neighborhood$"):
            surface_map._assemble(faces, pair, names)
    assert len(calls) == 21
    for faces, pair, names, err in calls:
        with pytest.raises(InputError) as oracle:
            assemble_rotation(faces, pair, names)
        assert str(err) == str(oracle.value)


def test_delete_edge_then_chord_restores_sphere():
    G, _ = two_squares_sphere()
    f1, f2, merged = merge_faces(G, 0)
    faces = [f.tails for i, f in enumerate(G.faces) if i not in (f1, f2)]
    H = rebuild(G, faces + [merged], drop=[0])
    assert sorted(len(f) for f in H.faces) == [6]
    assert classify_surface(H).euler_characteristic == 2
    hexagon = next(i for i, f in enumerate(H.faces) if len(f) == 6)
    w = H.faces[hexagon].tails
    faces = [f.tails for i, f in enumerate(H.faces) if i != hexagon]
    faces += split_face(w, 0, 3, H.n_darts)
    H2 = rebuild(H, faces, new_ends=[(H.vertex_of[w[0]], H.vertex_of[w[3]])])
    assert sorted(len(f) for f in H2.faces) == [4, 4]
    assert classify_surface(H2).euler_characteristic == 2


# -- the edit engine ---------------------------------------------------------------


def test_rebuild_from_own_faces_keeps_the_map():
    for G in random_maps(31):
        H = rebuild(G, [f.tails for f in G.faces])
        assert classify_surface(H) == classify_surface(G)
        assert H.edges == G.edges
        assert H.face_lengths() == G.face_lengths()


def test_rebuild_rejects_faces_that_do_not_fit_its_darts_and_names_them():
    G, _ = two_squares_sphere()
    faces = [list(f.tails) for f in G.faces]
    f1, f2, merged = merge_faces(G, 0)
    rest = [f for i, f in enumerate(faces) if i not in (f1, f2)]
    n, d0 = G.n_darts, faces[1][0]
    cases = [
        (dict(faces=faces + [[]]), "empty face"),
        (dict(faces=[faces[0] + [n], faces[1]]), f"unknown dart {n} in a face"),
        (dict(faces=faces, drop=[0]), f"unknown dart {faces[0][0]} in a face"),
        (dict(faces=[faces[0], faces[1][1:]]),
         f"edge of dart {G.edge_reps[G.edge_of[d0]]} is covered 1 times, need 2"),
        # the dense numbers shift past the dropped edge; the message does not
        (dict(faces=rest + [merged], drop=[0], new_ends=[("1", "3")]),
         f"edge of dart {n} is covered 0 times, need 2"),
    ]
    for kwargs, message in cases:
        with pytest.raises(InputError, match=f"^{message}$"):
            rebuild(G, **kwargs)


def test_merge_then_rebuild_removes_one_face_and_keeps_chi():
    merges = 0
    for G in random_maps(32):
        chi = classify_surface(G).euler_characteristic
        for k in range(G.n_edges):
            (f1, _), (f2, _) = G.edge_slots[k]
            if f1 == f2:
                with pytest.raises(InputError, match="^edge borders a single face; deletion unsupported$"):
                    merge_faces(G, k)
                continue
            _, _, walk = merge_faces(G, k)
            if not walk:
                continue
            faces = [f.tails for i, f in enumerate(G.faces) if i not in (f1, f2)]
            H = rebuild(G, faces + [walk], drop=[k])
            assert len(H.faces) == len(G.faces) - 1
            assert classify_surface(H).euler_characteristic == chi
            assert H.edges == G.edges[:k] + G.edges[k + 1:]
            merges += 1
    assert merges > 500


def test_split_face_then_rebuild_adds_one_face_and_keeps_chi():
    assert split_face([5, 6, 7, 8], 1, 3, 10) == ([6, 7, 11], [8, 5, 10])
    for G in random_maps(33, count=100):
        chi = classify_surface(G).euler_characteristic
        for fi, face in enumerate(G.faces):
            for j in range(1, len(face)):
                faces = [f.tails for i, f in enumerate(G.faces) if i != fi]
                faces += split_face(face.tails, 0, j, G.n_darts)
                ends = (G.vertex_of[face.tails[0]], G.vertex_of[face.tails[j]])
                H = rebuild(G, faces, new_ends=[ends])
                assert len(H.faces) == len(G.faces) + 1
                assert classify_surface(H).euler_characteristic == chi
                assert H.edges == G.edges + (tuple(sorted(ends)),)


# -- fast paths against brute-force oracles ---------------------------------------


def assert_faces_match_oracle(G):
    walks = brute_faces(G.rotation, G.pairing, G.signature)
    assert [list(f.slots) for f in G.faces] == walks
    assert [f.tails for f in G.faces] == [tuple(d for d, _ in w) for w in walks]
    scan = [[] for _ in range(G.n_edges)]
    for fi, walk in enumerate(walks):
        for pos, (d, _) in enumerate(walk):
            scan[G.edge_of[d]].append((fi, pos))
    assert [list(s) for s in G.edge_slots] == scan


def test_fast_paths_match_oracles_on_golden_maps_and_refinements(g0, g1, g0p, g1p, k4p):
    for G, _ in (g0, g1, g0p, g1p, k4p):
        assert_faces_match_oracle(G)
    for G, c in (g0p, g1p, k4p):
        assert_faces_match_oracle(refine_3x3(G, c)[0])


def test_switching_defect_matches_depth_first_oracle(g0, g1, g0p, g1p, k4p):
    rng = random.Random(12)
    verdicts = set()
    for G in [G for G, _ in (g0, g1, g0p, g1p, k4p)] + list(random_maps(41)):
        for H in (G, G.switched([v for v in G.vertices if rng.random() < 0.5])):
            defect = switching_defect(H, H.dart_sign)
            trivial = defect is None
            assert trivial == dfs_switching_trivial(H)
            verdicts.add(trivial)
            if trivial:
                continue
            # the edge returned is the first off the tree whose fundamental
            # cycle, walked through root paths, has negative total sign
            parent = spanning_tree_parents(H)
            tree = {p[1] for p in parent.values() if p is not None}
            for k in range(defect + 1):
                if k in tree:
                    assert k != defect
                    continue
                negatives = sum(H.signature[e] < 0 for e in fundamental_cycle(H, parent, k))
                assert negatives % 2 == (k == defect)
    assert verdicts == {True, False}


def test_fast_paths_match_oracles_on_cycles():
    rng = random.Random(3)
    for n in (1, 2, 3, 8, 101, 640):
        assert_faces_match_oracle(cycle_graph(n))
        assert_faces_match_oracle(cycle_graph(n, [rng.choice((1, -1)) for _ in range(n)]))


def test_fast_paths_match_oracles_on_random_rotation_systems():
    for G in random_maps(2024):
        assert_faces_match_oracle(G)


def test_canonical_cycle_matches_every_rotation():
    fixed = ([0], [3, 3, 3], [1, 0, 1, 0], [2, 0, 1, 0, 0, 1], ["b", "a", "c", "a", "b"],
             [("d", 1, 0), ("d", 0, 1), ("d", 0, 1)])
    for seq in fixed:
        assert _canonical_cycle(list(seq)) == brute_least_rotation(seq)
    rng = random.Random(5)
    for _ in range(2000):
        seq = [rng.randrange(3) for _ in range(rng.randint(1, 12))]
        assert _canonical_cycle(seq) == brute_least_rotation(seq)


# -- the assembler's face check against the sort-based oracle ---------------------


def check_accepts(G, faces):
    try:
        _match_faces(G, faces)
    except InternalConsistencyError:
        return False
    return True


def oracle_accepts(G, faces):
    return sorted_dart_faces(faces, G.pairing) == sorted_dart_faces(
        [[d for d, _ in f.slots] for f in G.faces], G.pairing)


def scrambled_faces(G, rng):
    """The traced faces as tail darts, each rotated and maybe reversed, in
    random order."""
    out = []
    for f in G.faces:
        tails = [d for d, _ in f.slots]
        if rng.random() < 0.5:
            tails = [G.pairing[d] for d in reversed(tails)]
        i = rng.randrange(len(tails))
        out.append(tails[i:] + tails[:i])
    rng.shuffle(out)
    return out


def one_face_mutations(G, faces, rng):
    """``(kind, faces)`` for face lists that differ from ``faces`` in one
    face: two darts swapped, a face replaced by a copy of another, one dart
    dropped, or a dart that leaves a one-sided edge twice replaced by its
    pair.  A candidate that the oracle's least form shows to be the same
    face is skipped."""
    twice = {d for d, n in Counter(d for face in faces for d in face).items() if n == 2}

    def changed(i, face):
        return sorted_dart_faces([face], G.pairing) != sorted_dart_faces([faces[i]], G.pairing)

    def with_face(i, face):
        return faces[:i] + [face] + faces[i + 1:]

    for i in rng.sample(range(len(faces)), min(len(faces), 6)):
        face = faces[i]
        if len(face) >= 2:
            p, q = sorted(rng.sample(range(len(face)), 2))
            swapped = face[:p] + [face[q]] + face[p + 1:q] + [face[p]] + face[q + 1:]
            if changed(i, swapped):
                yield "swap", with_face(i, swapped)
            dropped = face[:p] + face[p + 1:]
            yield "drop", with_face(i, dropped)
        j = rng.randrange(len(faces))
        if changed(i, faces[j]):
            yield "copy", with_face(i, list(faces[j]))
        for p, d in enumerate(face):
            turned = face[:p] + [G.pairing[d]] + face[p + 1:]
            if d in twice and changed(i, turned):
                yield "one-sided", with_face(i, turned)
                break


def test_face_check_takes_traced_faces_as_tuples(g0, g1, g0p, g1p, k4p):
    for G, _ in (g0, g1, g0p, g1p, k4p):
        faces = [f.tails for f in G.faces]
        identity = [(i, 0, True) for i in range(len(faces))]
        assert _match_faces(G, faces) == _match_faces(G, list(map(list, faces))) == identity
        assert rebuild(G, faces).face_lengths() == G.face_lengths()


def test_face_check_matches_sort_oracle_on_scrambled_and_mutated_faces(g0, g1, g0p, g1p, k4p):
    rng = random.Random(17)
    maps = [G for G, _ in (g0, g1, g0p, g1p, k4p)]
    maps += [refine_3x3(G, c)[0] for G, c in (g0p, g1p, k4p)]
    maps += [G for G in random_maps(41) if not G.has_loop()]
    kinds = Counter()
    for G in maps:
        for _ in range(2):
            faces = scrambled_faces(G, rng)
            assert check_accepts(G, faces) and oracle_accepts(G, faces)
            assert check_accepts(G, list(map(tuple, faces)))
            for kind, mutated in one_face_mutations(G, faces, rng):
                assert not check_accepts(G, mutated), kind
                assert not oracle_accepts(G, mutated), kind
                kinds[kind] += 1
    assert min(kinds[k] for k in ("swap", "copy", "drop", "one-sided")) >= 20, kinds


def mutated_faces(mutation):
    """A traced face list with its first face changed by ``mutation``."""
    real = EmbeddedGraph.faces.func

    def faces(self):
        walks = list(real(self))
        slots = list(walks[0].slots)
        if mutation == "swap":
            slots[0], slots[1] = slots[1], slots[0]
        elif mutation == "copy":
            slots = list(walks[1].slots)
        else:
            del slots[0]
        walks[0] = surface_map.FaceWalk(*map(tuple, zip(*slots)))
        return tuple(walks)

    return property(faces)


@pytest.mark.parametrize("mutation", ["swap", "copy", "drop"])
def test_assemblers_reject_a_traced_face_that_differs(monkeypatch, g1p, mutation):
    G, _ = g1p
    requested = [list(f.tails) for f in G.faces]
    grid = torus_grid(3, 3)[0]
    complex_ = FaceListComplex.from_lists(grid.face_vertex_walk(f) for f in grid.faces)
    monkeypatch.setattr(EmbeddedGraph, "faces", mutated_faces(mutation))
    with pytest.raises(InternalConsistencyError, match="does not reproduce the input faces"):
        rebuild(G, requested)
    with pytest.raises(InternalConsistencyError, match="does not reproduce the input faces"):
        assemble_embedding(complex_)


@pytest.mark.parametrize("mutation", ["swap", "copy", "drop"])
def test_medial_map_and_double_cover_reject_a_traced_face_that_differs(monkeypatch, k4p, mutation):
    G, _ = k4p
    real, mutated = EmbeddedGraph.faces.func, mutated_faces(mutation).fget
    monkeypatch.setattr(EmbeddedGraph, "faces", property(lambda H: real(H) if H is G else mutated(H)))
    for build in (medial_graph, orientation_double_cover):
        with pytest.raises(InternalConsistencyError, match="does not reproduce the input faces"):
            build(G)


def test_assemble_embedding_rejects_changed_vertex_walks(monkeypatch):
    real = surface_map._assemble

    def renamed(*args):
        G, match = real(*args)
        swap = {"0.0": "0.1", "0.1": "0.0"}
        names = [swap.get(v, v) for v in G.vertex_of]
        return EmbeddedGraph(G.rotation, G.pairing, G.signature, names), match

    grid = torus_grid(3, 3)[0]
    complex_ = FaceListComplex.from_lists(grid.face_vertex_walk(f) for f in grid.faces)
    assert assemble_embedding(complex_).face_lengths() == grid.face_lengths()
    monkeypatch.setattr(surface_map, "_assemble", renamed)
    with pytest.raises(InternalConsistencyError, match="changed the vertex walks"):
        assemble_embedding(complex_)


# -- automorphisms -------------------------------------------------------------


def pairing_preserving_permutations(G):
    """Every dart permutation that maps edges onto edges: each edge goes to
    some edge, either way round."""
    reps, P = G.edge_reps, G.pairing
    for targets in permutations(reps):
        for flips in product((False, True), repeat=len(reps)):
            perm = [0] * G.n_darts
            for d, e, flip in zip(reps, targets, flips):
                perm[d], perm[P[d]] = (P[e], e) if flip else (e, P[e])
            yield tuple(perm)


@pytest.mark.parametrize("name, size", [
    ("k4p", 24), ("g0", 120), ("g1", 72), ("g0p", 2), ("g1p", 8),
    ("torus_grid_triangulation", 24), ("klein_bottle_grid", 32),
])
def test_automorphisms_pass_the_oracle(request, name, size):
    if name == "torus_grid_triangulation":
        G = torus_grid_triangulation(3, 4)
    elif name == "klein_bottle_grid":
        G = klein_bottle_grid(4)[0]
    else:
        G = request.getfixturevalue(name)[0]
    group = automorphisms(G)
    assert len(group) == len(set(group)) == size
    assert group[0] == tuple(range(G.n_darts))
    assert all(is_map_automorphism(G, a) for a in group)


def test_automorphisms_match_brute_force_on_two_squares():
    # C4 on the sphere has 16 flag automorphisms; the reflection that swaps
    # its two faces moves no dart, so they give 8 dart permutations
    G, _ = two_squares_sphere()
    perms = list(pairing_preserving_permutations(G))
    assert len(perms) == 384
    assert {a for a in perms if is_map_automorphism(G, a)} == set(automorphisms(G))
    assert len(automorphisms(G)) == 8


def test_automorphisms_match_brute_force_on_small_random_maps():
    rng = random.Random(27)
    sizes = Counter()
    for _ in range(40):
        n_vertices = rng.randint(1, 5)
        G = random_rotation_system(rng, n_vertices, rng.randint(max(1, n_vertices - 1), 5))
        group = automorphisms(G)
        assert group[0] == tuple(range(G.n_darts)) and len(set(group)) == len(group)
        assert {a for a in pairing_preserving_permutations(G) if is_map_automorphism(G, a)} == set(group)
        sizes[classify_surface(G).orientable, len(group) > 1] += 1
    # the sample holds orientable maps and non-orientable ones with and
    # without a symmetry
    assert sizes[True, True] and sizes[False, True] and sizes[False, False]


def test_automorphisms_survive_dart_relabelling(g1p):
    rng = random.Random(5)
    for G in (g1p[0], klein_bottle_grid(4)[0], torus_grid_triangulation(3, 4)):
        assert len(automorphisms(relabel_darts(G, rng))) == len(automorphisms(G))
