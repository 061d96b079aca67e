"""Shared test utilities: relabeling, random orientations, small builders."""
from __future__ import annotations

import random

from quadloc.localcolor import Coloring
from quadloc.surface_map import EmbeddedGraph, FaceListComplex, assemble_embedding, rebuild, split_face
from oracles import dart_signs, reversed_slot


def relabel_darts(G: EmbeddedGraph, rng: random.Random) -> EmbeddedGraph:
    perm = list(range(G.n_darts))
    rng.shuffle(perm)
    inv = [0] * G.n_darts
    for d, e in enumerate(perm):
        inv[e] = d
    rotation = [0] * G.n_darts
    pairing = [0] * G.n_darts
    vertex_of = [""] * G.n_darts
    for d in range(G.n_darts):
        rotation[perm[d]] = perm[G.rotation[d]]
        pairing[perm[d]] = perm[G.pairing[d]]
        vertex_of[perm[d]] = G.vertex_of[d]
    signature = []
    for d in range(G.n_darts):
        if d < pairing[d]:
            signature.append(G.dart_sign[inv[d]])
    return EmbeddedGraph(rotation, pairing, signature, vertex_of)


def random_orientation(G: EmbeddedGraph, rng: random.Random):
    out = {}
    for k, d in enumerate(G.edge_reps):
        out[k] = d if rng.random() < 0.5 else G.pairing[d]
    return out


def flip_random_faces(G: EmbeddedGraph, rng: random.Random):
    """Face slots with a random traversal direction per face, for checking
    that the breaking-edge parity ignores the choice."""
    sign = dart_signs(G.pairing, G.signature)
    tails_per_edge = [[] for _ in range(G.n_edges)]
    for f in G.faces:
        if rng.random() < 0.5:
            slots = [(d, s) for d, s in f.slots]
        else:
            slots = [reversed_slot(G.pairing, sign, d, s) for d, s in reversed(f.slots)]
        for d, _ in slots:
            tails_per_edge[G.edge_of[d]].append(d)
    return tails_per_edge


def two_squares_sphere():
    G = assemble_embedding(FaceListComplex.from_lists([(1, 2, 3, 4), (1, 2, 3, 4)]))
    c = Coloring({"1": 1, "2": 2, "3": 1, "4": 2}, 2)
    return G, c


def split_hexagons(G: EmbeddedGraph, choices) -> EmbeddedGraph:
    """``G`` with every hexagon split, in one rebuild, by a main diagonal:
    hexagon ``k``, in the order of its vertex walk, gets the one from corner
    ``choices[k]`` (0, 1 or 2) of its traced walk to the opposite corner."""
    hexagons = sorted((f for f in G.faces if len(f) == 6), key=G.face_vertex_walk)
    faces = [f.tails for f in G.faces if len(f) != 6]
    ends = []
    for f, j in zip(hexagons, choices, strict=True):
        faces += split_face(f.tails, j, j + 3, G.n_darts + 2 * len(ends))
        ends.append((G.vertex_of[f.tails[j]], G.vertex_of[f.tails[j + 3]]))
    return rebuild(G, faces, new_ends=ends)


def greedy_coloring(G: EmbeddedGraph, order=None) -> Coloring:
    """Smallest free color at each vertex in turn, in ``order`` (default:
    the map's vertex order): a proper coloring."""
    assignment = {}
    for v in order or G.vertices:
        used = {assignment[w] for w in G.adjacency[v] if w in assignment}
        k = 1
        while k in used:
            k += 1
        assignment[v] = k
    return Coloring(assignment, max(assignment.values()))


def torus_grid(n: int, m: int):
    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((f"{i}.{j}", f"{(i + 1) % n}.{j}",
                          f"{(i + 1) % n}.{(j + 1) % m}", f"{i}.{(j + 1) % m}"))
    G = assemble_embedding(FaceListComplex.from_lists(faces))
    if n % 3 == 0 and m % 3 == 0:
        c = Coloring({v: (int(v.split(".")[0]) + int(v.split(".")[1])) % 3 + 1
                      for v in G.vertices}, 3)
    else:
        c = greedy_coloring(G)
    return G, c


def klein_bottle_grid(n: int = 4):
    faces = []
    for i in range(n):
        for j in range(n - 1):
            faces.append((f"{i}.{j}", f"{(i + 1) % n}.{j}",
                          f"{(i + 1) % n}.{j + 1}", f"{i}.{j + 1}"))
    for i in range(n):
        faces.append((f"{i}.{n - 1}", f"{(i + 1) % n}.{n - 1}",
                      f"{(-(i + 1)) % n}.0", f"{(-i) % n}.0"))
    G = assemble_embedding(FaceListComplex.from_lists(faces))
    c = Coloring({v: (int(v.split(".")[0]) + int(v.split(".")[1])) % 2 + 1 for v in G.vertices}, 2)
    return G, c


def bipyramid_over_c5():
    faces = []
    for i in range(5):
        faces.append((f"v{i}", f"v{(i + 1) % 5}", "a"))
        faces.append((f"v{i}", f"v{(i + 1) % 5}", "b"))
    G = assemble_embedding(FaceListComplex.from_lists(faces))
    c = Coloring({"v0": 1, "v1": 2, "v2": 1, "v3": 2, "v4": 3, "a": 4, "b": 4}, 4)
    return G, c


def cycle_graph(n: int, signs=None) -> EmbeddedGraph:
    """The cycle C_n; vertex i holds dart 2i toward i+1 and 2i+1 toward
    i-1.  ``signs`` gives the signature (all positive: the sphere)."""
    rotation = [0] * (2 * n)
    pairing = [0] * (2 * n)
    for i in range(n):
        rotation[2 * i], rotation[2 * i + 1] = 2 * i + 1, 2 * i
        fwd, back = 2 * i, 2 * ((i + 1) % n) + 1
        pairing[fwd], pairing[back] = back, fwd
    signature = list(signs) if signs is not None else [1] * n
    return EmbeddedGraph(rotation, pairing, signature, [f"v{d // 2}" for d in range(2 * n)])


def random_rotation_system(rng: random.Random, n_vertices: int, n_edges: int) -> EmbeddedGraph:
    """A connected map with random rotations and signs: a random spanning
    tree plus random extra edges, loops and parallels allowed."""
    ends = [(i, rng.randrange(i)) for i in range(1, n_vertices)]
    ends += [(rng.randrange(n_vertices), rng.randrange(n_vertices))
             for _ in range(n_edges - len(ends))]
    rng.shuffle(ends)
    at = [[] for _ in range(n_vertices)]
    pairing = [0] * (2 * len(ends))
    for k, (u, w) in enumerate(ends):
        at[u].append(2 * k)
        at[w].append(2 * k + 1)
        pairing[2 * k], pairing[2 * k + 1] = 2 * k + 1, 2 * k
    rotation = [0] * len(pairing)
    vertex_of = [""] * len(pairing)
    for v, darts in enumerate(at):
        rng.shuffle(darts)
        for i, d in enumerate(darts):
            rotation[d] = darts[(i + 1) % len(darts)]
            vertex_of[d] = f"v{v}"
    signature = [rng.choice((1, -1)) for _ in ends]
    return EmbeddedGraph(rotation, pairing, signature, vertex_of)


def random_maps(seed, count=300):
    """``count`` seeded random connected maps on 1-7 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        n_vertices = rng.randint(1, 7)
        n_edges = rng.randint(max(1, n_vertices - 1), n_vertices + 8)
        yield random_rotation_system(rng, n_vertices, n_edges)
