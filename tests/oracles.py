"""Independent brute-force oracles used to cross-check the main algorithms.

These deliberately avoid the production code paths.  The coloring oracle
enumerates raw (non-canonical) colorings.  The recursive search walks the
canonical search tree with per-color neighbor counts and one feasibility
scan per color tried, where the production kernel is iterative with bitmask
state.  Where the reducer makes one pass
over one stack, the word oracles explore the full rewriting orbit, keep one
pile per generator (piling), or rescan for the leftmost cancellable pair
after every cancellation (fixpoint).  The face tracer steps through the raw
rotation system and finds reversed walks by list membership, and the least
rotation tries every rotation.  Face lists are compared as sorted least
forms, where the assembler matches each face along an index of tail
darts; a medial face's tag is checked on the least form of its vertex
walk, where production matches faces in medial darts.  The word-file
parser converts every token in turn, where the production parser converts
each distinct token once.  The reference word parser and walk labels
name each pair after collecting them and build the Kneser graph from the
disjoint pairs found by testing every pair of pairs, where production
names each pair in the one pass over the tokens or steps and builds each
pair's blockers from the pairs that hold its colors.
The sign oracles walk their own depth-first tree, where production uses
the map's one breadth-first ``EmbeddedGraph.spanning_tree``: one propagates
vertex signs, the other compares two parities on every fundamental cycle
built from root paths.  The cycle-parity verdict is read off all E - V + 1
of those cycles, where production reads the 2 - chi cycles of its
tree-cotree cut system, with the parity counted over both slots of each
edge, where production counts repeated tail darts; a Z2 rank over the face
boundaries checks that the cut system's cycles are a homology basis.  A
map automorphism is checked on the pairing, the rotation cycles and the
brute-force faces, each mapped and compared whole, where production walks
the flags of the map in lockstep from each candidate image of one flag.
The map validator walks every rotation cycle dart by dart and searches the darts depth-first under rotation and pairing,
where production checks whole lists and reads connectivity off the
spanning tree.  The map-text parser reads line by line, converting each
token where it stands and checking each dart and id as it comes, where
production files whole lists and names a fault only after a bulk test
rejects them.  The assembler's tables are filled flag by flag and each
vertex's link is collected before its rotation is written, where
production fills them by slices and writes the rotation as the link walk
goes.  The orbit oracle answers a word with a nonzero
abelianization at once and explores the full orbit of the others.  The
U(m, r) oracle tests every pair of vertices against the definition and
finds triangles around each vertex, where production lists each vertex's
neighbors and intersects the neighborhoods of an edge's ends.  The
two-colored 6-cycle census is checked against the unpruned path search,
which counts colors only once a path closes, and against a brute force
over the orderings of every two-colored 6-set of vertices.  Crosscap sites
are found face by face, each face filing its edges as its vertex walk is
scanned, where production looks each edge's two faces up in
``edge_slots`` and reads a face's colors once.  The PHI3 certificate's
forced diagonals are counted by endpoint pair over the odd faces, where
production reads them off ``edge_slots`` by edge index.
"""
from __future__ import annotations

from collections import Counter, deque
from itertools import combinations, permutations

from quadloc.errors import InputError
from quadloc.localcolor import (
    BUDGET_EXCEEDED, FOUND, NONE, Coloring, SearchOutcome, u_vertex_name,
)
from quadloc.semifree import CommutationGraph, GroupWord, _check_kneser, pair_name
from quadloc.surface_map import EmbeddedGraph


def brute_local_coloring_exists(adj, r: int, m: int) -> bool:
    """Recursive enumeration of all total colorings with colors 1..m,
    pruned only by properness and the local bound; no symmetry breaking."""
    verts = sorted(adj)
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nbrs = [sorted(idx[w] for w in adj[v]) for v in verts]
    color = [0] * n

    def around(i):
        return {color[j] for j in nbrs[i] if color[j]}

    def rec(i):
        if i == n:
            return all(len(around(j)) <= r - 1 for j in range(n))
        for k in range(1, m + 1):
            if any(color[j] == k for j in nbrs[i]):
                continue
            color[i] = k
            feasible = len(around(i)) <= r - 1 and all(
                len(around(j)) <= r - 1 for j in nbrs[i]
            )
            if feasible and rec(i + 1):
                return True
            color[i] = 0
        return False

    return rec(0)


def recursive_search(G, r: int, m: int, budget: int | None = None) -> SearchOutcome:
    """The canonical search as a plain recursion, without look-ahead: a
    static breadth-first order (from a maximum-degree vertex, ties by name),
    first-use colors and one node per color tried.  It shares no ordering or
    pruning with ``search_local_coloring``, so only their verdicts compare.
    Recursion depth is the vertex count."""
    adj = {v: frozenset(ns) for v, ns in getattr(G, "adjacency", G).items()}
    start = max(sorted(adj), key=lambda v: len(adj[v]))
    order, reached, queue = [start], {start}, deque([start])
    while queue:
        for w in sorted(adj[queue.popleft()]):
            if w not in reached:
                reached.add(w)
                order.append(w)
                queue.append(w)
    order = tuple(order)
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [tuple(sorted(adj[v])) for v in order]

    color = [0] * n
    nbr_colors = {v: {} for v in order}  # vertex -> color -> count among colored neighbors
    nodes = 0

    def place(i, k):
        color[i] = k
        for w in nbrs[i]:
            cnt = nbr_colors[w]
            cnt[k] = cnt.get(k, 0) + 1

    def unplace(i, k):
        color[i] = 0
        for w in nbrs[i]:
            cnt = nbr_colors[w]
            cnt[k] -= 1
            if cnt[k] == 0:
                del cnt[k]

    def feasible(i, k):
        for w in nbrs[i]:
            j = pos[w]
            if j < i and color[j] == k:
                return False
            cnt = nbr_colors[w]
            if k not in cnt and len(cnt) >= r - 1:
                return False
        return True

    def rec(i, used):
        nonlocal nodes
        if i == n:
            return True
        top = min(used + 1, m)
        for k in range(1, top + 1):
            nodes += 1
            if budget is not None and nodes > budget:
                return None
            if feasible(i, k):
                place(i, k)
                res = rec(i + 1, max(used, k))
                if res:
                    return True
                if res is None:
                    return None
                unplace(i, k)
        return False

    res = rec(0, 0)
    if res is None:
        return SearchOutcome(BUDGET_EXCEEDED, None, nodes, r, m, order)
    if not res:
        return SearchOutcome(NONE, None, nodes, r, m, order)
    return SearchOutcome(FOUND, Coloring(dict(zip(order, color)), m), nodes, r, m, order)


def orbit_is_identity(letters, commutes_gens) -> bool:
    """:func:`full_orbit_is_identity`, answered at once when the word's
    abelianization is nonzero.  Swaps and cancellations keep the exponent
    sum of every generator, and the empty word has every sum zero, so a
    nonzero sum means the empty word is not in the orbit.
    """
    sums = {}
    for g, e in letters:
        sums[g] = sums.get(g, 0) + e
    if any(sums.values()):
        return False
    return full_orbit_is_identity(letters, commutes_gens)


def full_orbit_is_identity(letters, commutes_gens) -> bool:
    """Explore the full orbit of a word under adjacent commuting swaps and
    free cancellations; the word is the identity iff the empty word is
    reachable.  Letters are (generator, sign) pairs; states are raw words,
    deduplicated verbatim.
    """
    gens = sorted({g for g, _ in letters})
    gid = {g: i for i, g in enumerate(gens)}
    n = len(gens)
    masks = [0] * (2 * n)
    for a in gens:
        for b in gens:
            if a != b and commutes_gens(a, b):
                for sa in (0, 1):
                    for sb in (0, 1):
                        masks[2 * gid[a] + sa] |= 1 << (2 * gid[b] + sb)

    start = tuple(2 * gid[g] + (1 if e < 0 else 0) for g, e in letters)
    if not start:
        return True
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == b ^ 1:
                nw = w[:i] + w[i + 2:]
                if not nw:
                    return True
                if nw not in seen:
                    seen.add(nw)
                    stack.append(nw)
            elif masks[a] >> b & 1:
                nw = w[:i] + (b, a) + w[i + 2:]
                if nw not in seen:
                    seen.add(nw)
                    stack.append(nw)
    return False


def piling_is_identity(letters, commutes_gens) -> bool:
    """Piling test (Crisp, Godelle and Wiest, J. Topology 2009): one pile
    per generator.  A letter whose own pile has its inverse on top pops it,
    together with the marker that inverse left on the pile of every
    generator it does not commute with; otherwise it pushes itself and
    those markers.  The word is the identity iff every pile ends empty.
    """
    gens = sorted({g for g, _ in letters})
    blockers = {a: [b for b in gens if b != a and not commutes_gens(a, b)] for a in gens}
    piles = {g: [] for g in gens}
    for g, e in letters:
        pile = piles[g]
        if pile and pile[-1] == -e:
            pile.pop()
            for b in blockers[g]:
                piles[b].pop()
        else:
            pile.append(e)
            for b in blockers[g]:
                piles[b].append(0)  # marker
    return not any(piles.values())


def fixpoint_reduce(letters, commutes_gens):
    """Cancellation fixpoint: delete the leftmost cancellable pair (its
    letters mutually inverse, every letter between them commuting with or
    equal to their generator) and rescan from the start, until none is left.
    Returns the reduced letters as a tuple."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        n = len(letters)
        for p in range(n - 1):
            g, e = letters[p]
            for q in range(p + 1, n):
                h, d = letters[q]
                if h == g and d == -e:
                    del letters[q]
                    del letters[p]
                    changed = True
                    break
                if not commutes_gens(h, g):
                    break
            if changed:
                break
    return tuple(letters)


def token_parse_word_text(text: str):
    """Word-file parser that converts every token in turn; same format,
    result and messages as ``semifree.parse_word_text``."""
    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if len(tokens) < 3 or tokens[0] != "kneser" or tokens[2] != "2":
        raise InputError("word file needs a 'kneser m 2' header")
    try:
        m = int(tokens[1])
    except ValueError:
        raise InputError(f"bad kneser parameter {tokens[1]!r}") from None
    _check_kneser(m)
    pairs = []
    for tok in tokens[3:]:
        sign = 1
        if tok.startswith("-"):
            sign = -1
            tok = tok[1:]
        try:
            i, j = tok.split(".")
            pairs.append((int(i), int(j), sign))
        except ValueError as exc:
            raise InputError(f"bad word token {tok!r}") from exc
    used = {(min(i, j), max(i, j)) for i, j, _ in pairs if i != j and 1 <= i <= m and 1 <= j <= m}
    H = reference_kneser_graph(m, used)
    return GroupWord(H, tuple((pair_name(i, j), sign) for i, j, sign in pairs)), m


def reference_pair_name(i: int, j: int) -> str:
    a, b = sorted((i, j))
    return f"{a}.{b}"


def reference_kneser_graph(m: int, pairs=None) -> CommutationGraph:
    """KG(m, 2), or its subgraph induced on ``pairs`` (either order), with
    the generators in pair order, built from the disjoint pairs found by
    testing every pair of pairs."""
    _check_kneser(m)
    ps = combinations(range(1, m + 1), 2) if pairs is None else pairs
    ps = sorted({(min(p), max(p)) for p in ps})
    names = tuple(reference_pair_name(*p) for p in ps)
    edges = [frozenset((names[x], names[y])) for x, y in combinations(range(len(ps)), 2)
             if not set(ps[x]) & set(ps[y])]
    return CommutationGraph(names, edges)


def reference_parse_word_text(text: str):
    """Word-file parser that reads each distinct token to a color pair,
    then names the valid pairs and builds their Kneser graph with
    ``reference_kneser_graph``; same format, result and messages as
    ``semifree.parse_word_text``."""
    tokens = [tok for raw in text.splitlines() for tok in raw.split("#", 1)[0].split()]
    if len(tokens) < 3 or tokens[0] != "kneser" or tokens[2] != "2":
        raise InputError("word file needs a 'kneser m 2' header")
    try:
        m = int(tokens[1])
    except ValueError:
        raise InputError(f"bad kneser parameter {tokens[1]!r}") from None
    _check_kneser(m)
    body = tokens[3:]
    pairs = {}  # distinct token -> (i, j, sign)
    for raw in dict.fromkeys(body):
        sign, tok = (-1, raw[1:]) if raw.startswith("-") else (1, raw)
        try:
            i, j = tok.split(".")
            pairs[raw] = (int(i), int(j), sign)
        except ValueError as exc:
            raise InputError(f"bad word token {tok!r}") from exc
    H = reference_kneser_graph(m, {(min(i, j), max(i, j)) for i, j, _ in pairs.values()
                                   if i != j and 1 <= i <= m and 1 <= j <= m})
    letter = {raw: (reference_pair_name(i, j), sign) for raw, (i, j, sign) in pairs.items()}
    return GroupWord(H, tuple(map(letter.__getitem__, body))), m


def reference_walk_label(colors, m: int) -> GroupWord:
    """``semifree.walk_label`` without a graph: the color-pair element of
    each step's flanking colors, on ``reference_kneser_graph`` of the pairs
    the steps use; same messages."""
    colors = list(colors)
    if not colors:
        raise InputError("walk needs at least one vertex")
    before, after = colors[-1:] + colors[:-1], colors[1:] + colors[:1]
    if any(a == b for a, b in zip(colors, after)):
        raise InputError("consecutive walk colors must differ")
    _check_kneser(m)
    letters, used = [], set()
    for i, j in zip(before, after):
        if not (1 <= i <= m and 1 <= j <= m):
            raise InputError(f"colors must lie in 1..{m}")
        if i != j:
            used.add((min(i, j), max(i, j)))
            letters.append((reference_pair_name(i, j), 1 if i < j else -1))
    return GroupWord(reference_kneser_graph(m, used), tuple(letters))


def brute_kneser_edges(m):
    """Edges of KG(m, 2) by testing every pair of 2-subsets of 1..m."""
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return {
        frozenset((f"{i}.{j}", f"{a}.{b}"))
        for x, (i, j) in enumerate(pairs)
        for a, b in pairs[x + 1:]
        if not {i, j} & {a, b}
    }


def brute_U(m: int, r: int):
    """Adjacency and triangle edges of U(m, r): (i, A) ~ (j, B) iff i in B
    and j in A, tested on every pair of vertices; an edge is a triangle
    edge when some vertex has both of its ends as neighbors."""
    verts = [(i, set(A)) for i in range(1, m + 1)
             for A in combinations([x for x in range(1, m + 1) if x != i], r - 1)]
    adj = {u_vertex_name(i, A): set() for i, A in verts}
    for (i, A), (j, B) in combinations(verts, 2):
        if i in B and j in A:
            adj[u_vertex_name(i, A)].add(u_vertex_name(j, B))
            adj[u_vertex_name(j, B)].add(u_vertex_name(i, A))
    triangles = set()
    for x, ns in adj.items():
        for u, w in combinations(sorted(ns), 2):
            if w in adj[u]:
                triangles |= {frozenset((u, w)), frozenset((u, x)), frozenset((w, x))}
    return adj, triangles


def dart_signs(pairing, signature):
    """The sign of every dart: the signature of its edge, with edges
    numbered by their smaller dart in increasing order."""
    reps = [d for d in range(len(pairing)) if d < pairing[d]]
    sign = [0] * len(pairing)
    for k, d in enumerate(reps):
        sign[d] = sign[pairing[d]] = signature[k]
    return sign


def reversed_slot(pairing, sign, d, s):
    """The edge passage of the slot ``(d, s)``, traversed the other way."""
    return pairing[d], -s * sign[d]


def brute_faces(rotation, pairing, signature):
    """Facial walks of a rotation system with signature, as lists of
    ``(dart, side)`` states, in the order of their least starting state.

    Each face is kept in the traversal found first; its reversal is
    recognised by searching the states covered so far (quadratic).
    """
    n = len(rotation)
    rotation_inv = [0] * n
    for d, e in enumerate(rotation):
        rotation_inv[e] = d
    sign = dart_signs(pairing, signature)

    def step(d, s):
        s2 = s * sign[d]
        return (rotation[pairing[d]] if s2 > 0 else rotation_inv[pairing[d]]), s2

    covered = []
    walks = []
    for d in range(n):
        for s in (1, -1):
            if (d, s) in covered:
                continue
            walk = [(d, s)]
            cur = step(d, s)
            while cur != (d, s):
                walk.append(cur)
                cur = step(*cur)
            mirrors = [reversed_slot(pairing, sign, *st) for st in walk]
            if len(walk) > 1 and any(m in walk for m in mirrors):
                raise AssertionError("facial walk coincides with its own reversal")
            covered.extend(walk + mirrors)
            walks.append(walk)
    return walks


def sorted_dart_faces(faces, pairing):
    """Faces given by tail darts, each in its least form up to rotation and
    reversal (the reversed walk has the paired darts in reverse order),
    sorted: two face lists are the same faces iff these are equal."""
    forms = []
    for face in faces:
        rev = [pairing[d] for d in reversed(face)]
        forms.append(min(brute_least_rotation(face), brute_least_rotation(rev)))
    return sorted(forms)


def is_map_automorphism(G: EmbeddedGraph, perm) -> bool:
    """Whether the dart permutation ``perm`` is an automorphism of ``G``: it
    keeps the pairing, maps every rotation cycle onto one, forward or
    reversed, and maps the faces that :func:`brute_faces` traces onto them,
    each forward or reversed through the pairing."""
    R, P, n = G.rotation, G.pairing, G.n_darts
    if sorted(perm) != list(range(n)) or any(perm[P[d]] != P[perm[d]] for d in range(n)):
        return False
    rotation_inv = [0] * n
    for d, e in enumerate(R):
        rotation_inv[e] = d
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        cycle = [start]
        while R[cycle[-1]] != start:
            cycle.append(R[cycle[-1]])
        seen.update(cycle)
        if not (all(perm[R[d]] == R[perm[d]] for d in cycle)
                or all(perm[R[d]] == rotation_inv[perm[d]] for d in cycle)):
            return False
    faces = [[d for d, _ in walk] for walk in brute_faces(R, P, G.signature)]
    return sorted_dart_faces(faces, P) == sorted_dart_faces(
        [[perm[d] for d in face] for face in faces], P
    )


def least_cycle_form(seq):
    """Least form of a cyclic sequence up to rotation and reversal."""
    seq = list(seq)
    return min(brute_least_rotation(seq), brute_least_rotation(seq[::-1]))


def unpruned_two_colored_six_cycles(adj, coloring):
    """Every simple 6-path from its least vertex, depth first, with the
    colors counted only when the path closes into a cycle."""
    out = set()
    verts = sorted(adj)
    for start in verts:
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            if len(path) == 6:
                if start in adj[v] and len({coloring[x] for x in path}) == 2:
                    out.add(least_cycle_form(path))
                continue
            for w in sorted(adj[v]):
                if w in path or w < start:
                    continue
                stack.append((w, path + [w]))
    return sorted(out)


def brute_two_colored_six_cycles(adj, coloring):
    """Every ordering of every 6-set of vertices showing exactly two
    colors, from its least vertex, that closes a cycle in ``adj``."""
    out = set()
    for six in combinations(sorted(adj), 6):
        if len({coloring[v] for v in six}) != 2:
            continue
        for rest in permutations(six[1:]):
            walk = (six[0],) + rest
            if all(walk[i - 1] in adj[walk[i]] for i in range(6)):
                out.add(least_cycle_form(walk))
    return sorted(out)


def brute_least_rotation(seq):
    """The lexicographically least rotation of a sequence, as a tuple."""
    seq = list(seq)
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def medial_tag_fits(G, tag, walk) -> bool:
    """Whether ``walk``, the vertex walk of a medial face, is the one its
    tag ``tag`` asks for up to rotation and reversal: the medial vertex
    ``e<k>`` of every edge met around the vertex (a star), read off the raw
    rotation, or along the face traced by :func:`brute_faces` (a cycle)."""
    kind, x = tag
    if kind == "star":
        d0 = G.vertex_of.index(x)
        darts = [d0]
        while G.rotation[darts[-1]] != d0:
            darts.append(G.rotation[darts[-1]])
    else:
        darts = [d for d, _ in brute_faces(G.rotation, G.pairing, G.signature)[x]]
    want = brute_least_rotation(f"e{G.edge_of[d]}" for d in darts)
    walk = list(walk)
    return want in (brute_least_rotation(walk), brute_least_rotation(walk[::-1]))


def _depth_first_tree(G):
    """Parent ``(vertex, edge index)`` per vertex of a depth-first tree
    from the least vertex (``None`` at the root)."""
    root = G.vertices[0]
    parent = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        for d in G.darts_at[v]:
            w = G.vertex_of[G.pairing[d]]
            if w not in parent:
                parent[w] = (v, G.edge_of[d])
                stack.append(w)
    return parent


def dfs_switching_trivial(G) -> bool:
    """Propagate vertex signs down a depth-first tree, then require every
    edge to close its fundamental cycle with positive total sign."""
    sign = {}
    for v, p in _depth_first_tree(G).items():  # parents come before children
        sign[v] = 1 if p is None else sign[p[0]] * G.signature[p[1]]
    for k, d in enumerate(G.edge_reps):
        u, w = G.vertex_of[d], G.vertex_of[G.pairing[d]]
        if sign[u] * sign[w] * G.signature[k] != 1:
            return False
    return True


def root_path(parent, v):
    """Edge indices from ``v`` up to the root of a tree given as parent
    ``(vertex, edge index)`` per vertex (``None`` at the root)."""
    path = []
    while parent[v] is not None:
        v, e = parent[v]
        path.append(e)
    return path


def fundamental_cycle(G, parent, k):
    """Edge indices of the cycle that edge ``k`` closes in the tree
    ``parent``: the symmetric difference of its ends' root paths, and ``k``."""
    u, w = G.edges[k]
    return (set(root_path(parent, u)) ^ set(root_path(parent, w))) | {k}


def spanning_tree_parents(G):
    """``G.spanning_tree`` in the parent form that :func:`root_path` walks."""
    return {w: None if d is None else (G.vertex_of[d], G.edge_of[d])
            for w, d in G.spanning_tree.items()}


def _cotree_cycles(G):
    """The fundamental cycle of every edge off a depth-first tree."""
    parent = _depth_first_tree(G)
    tree_edges = {p[1] for p in parent.values() if p is not None}
    return [fundamental_cycle(G, parent, k) for k in range(G.n_edges) if k not in tree_edges]


def listed_set_matches_per_cycle(G, listed) -> bool:
    """True iff the edge indices ``listed`` meet every fundamental cycle of
    a depth-first tree in as many edges, mod 2, as the negative edges do;
    each cycle is the symmetric difference of its two ends' root paths."""
    for cycle in _cotree_cycles(G):
        w1 = sum(1 for e in cycle if G.signature[e] < 0) % 2
        s1 = sum(1 for e in cycle if e in listed) % 2
        if w1 != s1:
            return False
    return True


def phi3_passes_per_cycle(G, listed) -> bool:
    """True iff every fundamental cycle of a depth-first tree holds an even
    number of edges outside the edge indices ``listed``: some 2-coloring of
    all vertices then puts the ends of exactly the listed edges in one class."""
    return all(sum(1 for e in cycle if e not in listed) % 2 == 0 for cycle in _cotree_cycles(G))


def endpoint_pair_completion(G, listed):
    """``listed`` (vertex pairs) completed by the diagonals it forces, counted
    by endpoint pair over the boundaries of the faces that hold an odd
    number of listed edges: an unlisted pair met twice there is forced.
    Production reads the forced edges off ``G.edge_slots`` by edge index;
    on a simple map both give the same edges."""
    listed_set = {frozenset(e) for e in listed}
    odd_faces = [f for f in G.faces
                 if sum(1 for d in f.tails if frozenset(G.edges[G.edge_of[d]]) in listed_set) % 2]
    counts = Counter(tuple(sorted(G.edges[G.edge_of[d]])) for f in odd_faces for d in f.tails)
    forced = sorted(e for e, n in counts.items() if n == 2 and frozenset(e) not in listed_set)
    return tuple(listed) + tuple(forced)


def face_by_face_crosscap_sites(G, c):
    """Crosscap sites found face by face, without ``G.edge_slots``: each
    face's vertex walk is scanned and its edges are filed under it; an edge
    is a site when it lies on two distinct faces that are both 4-gons and
    whose walks show two colors together."""
    faces_on = [[] for _ in range(G.n_edges)]
    walks = []
    for i, f in enumerate(G.faces):
        walks.append(G.face_vertex_walk(f))
        for d in f.tails:
            faces_on[G.edge_of[d]].append(i)
    sites = []
    for k, (a, b) in enumerate(faces_on):
        colors = {c.assignment[v] for v in walks[a] + walks[b]}
        if a != b and len(walks[a]) == len(walks[b]) == 4 and len(colors) == 2:
            sites.append(k)
    return sites


def slot_parity(G) -> str:
    """Quadrangulation parity by the slot formula: the edges whose two face
    slots in ``G.edge_slots`` leave from the same dart, counted mod 2, where
    production counts the repeated tail darts of the faces."""
    faces = G.faces
    breaking = sum(1 for (f1, p1), (f2, p2) in G.edge_slots
                   if faces[f1].tails[p1] == faces[f2].tails[p2])
    return "odd" if breaking % 2 else "even"


def full_basis_verdict(G):
    """The cycle-parity verdict read off all E - V + 1 fundamental cycles of
    a depth-first tree, where production reads the 2 - chi cycles of its
    tree-cotree cut system: ``(phi_type, parity, any phi, phi == w1)``.
    The parity is :func:`slot_parity`'s, on loopless maps whose faces all
    have length 4; the type is given when, besides, the map is one-sided."""
    cycles = _cotree_cycles(G)
    phi = [len(c) % 2 for c in cycles]
    w1 = [sum(1 for e in c if G.signature[e] < 0) % 2 for c in cycles]
    quad = all(len(f.tails) == 4 for f in G.faces) and all(u != w for u, w in G.edges)
    parity = slot_parity(G) if quad else None
    phi_type = None
    if parity is not None and not dfs_switching_trivial(G):
        if not any(phi):
            phi_type = "PHI0"
        elif phi == w1:
            phi_type = "PHI3"
        else:
            phi_type = "PHI1" if parity == "odd" else "PHI2"
    return phi_type, parity, any(phi), phi == w1


def z2_rank(vectors) -> int:
    """Rank over Z2 of vectors given as integer bit masks."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def cut_cycles_span_homology(G, leftover) -> bool:
    """Whether the fundamental cycles of the ``leftover`` edges in
    ``G.spanning_tree`` are independent modulo the face boundaries and span,
    with them, all E - V + 1 dimensions of the cycle space over Z2."""
    parent = spanning_tree_parents(G)
    cycles = [sum(1 << e for e in fundamental_cycle(G, parent, k)) for k in leftover]
    boundaries = []
    for f in G.faces:
        mask = 0
        for d in f.tails:
            mask ^= 1 << G.edge_of[d]
        boundaries.append(mask)
    dim = G.n_edges - G.n_vertices + 1
    return z2_rank(boundaries) + len(cycles) == z2_rank(boundaries + cycles) == dim


def validate_map(rotation, pairing, signature, vertex_of):
    """The first invariant of an embedded graph that the four lists break,
    as ``EmbeddedGraph`` words it, or ``None`` if they form a valid map.

    Dart by dart: each rotation cycle is walked from its least dart and must
    keep one vertex name, seen on no earlier cycle; then every dart must be
    reached from dart 0 by a depth-first search under rotation and pairing.
    """
    R, P, V, S = rotation, pairing, vertex_of, signature
    n = len(R)
    if n == 0:
        return "empty map"
    if len(P) != n or len(V) != n:
        return "rotation, pairing and vertex_of must have equal length"
    if sorted(R) != list(range(n)):
        return "rotation is not a permutation of the darts"
    for d, e in enumerate(P):
        if not 0 <= e < n or e == d or P[e] != d:
            return "pairing is not a fixed-point-free involution"
    if any(not isinstance(v, str) for v in V):
        return "vertex names must be strings"
    if len(S) != n // 2:
        return "signature must assign one sign per edge"
    if any(s not in (1, -1) for s in S):
        return "signature values must be +1 or -1"
    seen_vids = set()
    visited = [False] * n
    for d in range(n):
        if visited[d]:
            continue
        vid = V[d]
        if vid in seen_vids:
            return f"vertex {vid!r} split across several rotation cycles"
        seen_vids.add(vid)
        cur = d
        while not visited[cur]:
            visited[cur] = True
            if V[cur] != vid:
                return f"rotation cycle mixes vertices {vid!r} and {V[cur]!r}"
            cur = R[cur]
    stack = [0]
    reach = [False] * n
    reach[0] = True
    while stack:
        d = stack.pop()
        for e in (R[d], P[d]):
            if not reach[e]:
                reach[e] = True
                stack.append(e)
    if not all(reach):
        return "map is not connected"
    return None


def parse_graph_by_lines(text: str):
    """The map-text reader, line by line: ``(graph, coloring_or_None)``, or
    the same ``InputError`` as ``quadloc.textio.parse_graph``."""
    rot_lines = []
    edge_lines = []
    colors = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "vertex":
                if len(parts) < 3 or parts[2] != ":":
                    raise InputError(f"line {lineno}: expected ':' after vertex id")
                rot_lines.append((lineno, parts[1], list(map(int, parts[3:]))))
            elif kind == "edge":
                if len(parts) != 6 or parts[2] != ":" or parts[5] not in ("+", "-"):
                    raise InputError(f"line {lineno}: edge needs ': dartA dartB +|-'")
                edge_lines.append((lineno, parts[1], int(parts[3]), int(parts[4]), 1 if parts[5] == "+" else -1))
            elif kind == "color":
                if len(parts) != 3:
                    raise InputError(f"line {lineno}: color needs 'vid int'")
                if parts[1] in colors:
                    raise InputError(f"line {lineno}: duplicate color for {parts[1]}")
                colors[parts[1]] = int(parts[2])
            else:
                raise InputError(f"line {lineno}: unknown construct {kind!r}")
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc

    if not rot_lines or not edge_lines:
        raise InputError("need at least one vertex and one edge line")

    seen_darts = {}
    for lineno, vid, darts in rot_lines:
        if not darts:
            raise InputError(f"line {lineno}: vertex {vid} has no darts")
        for d in darts:
            if d in seen_darts:
                raise InputError(f"line {lineno}: duplicate dart {d}")
            seen_darts[d] = vid
    vid_lines = {}
    for lineno, vid, _ in rot_lines:
        if vid_lines.setdefault(vid, lineno) != lineno:
            raise InputError(f"line {lineno}: duplicate vertex id {vid}")

    order = sorted(seen_darts)
    dense = dict(zip(order, range(len(order))))
    n = len(order)

    rotation = [None] * n
    vertex_of = [None] * n
    for _, vid, darts in rot_lines:
        for i, d in enumerate(darts):
            rotation[dense[d]] = dense[darts[(i + 1) % len(darts)]]
            vertex_of[dense[d]] = vid

    pairing = [None] * n
    sig_by_dart = {}
    eids = set()
    for lineno, eid, da, db, sg in edge_lines:
        if eid in eids:
            raise InputError(f"line {lineno}: duplicate edge id {eid}")
        eids.add(eid)
        if da == db:
            raise InputError(f"line {lineno}: edge pairs a dart with itself")
        for d in (da, db):
            if d not in dense:
                raise InputError(f"line {lineno}: dart {d} not declared at any vertex")
            if pairing[dense[d]] is not None:
                raise InputError(f"line {lineno}: dart {d} used by two edges")
        a, b = dense[da], dense[db]
        pairing[a], pairing[b] = b, a
        sig_by_dart[a] = sig_by_dart[b] = sg
    if any(p is None for p in pairing):
        missing = order[pairing.index(None)]
        raise InputError(f"dart {missing} belongs to no edge")

    signature = [sig_by_dart[d] for d, p in enumerate(pairing) if d < p]
    G = EmbeddedGraph(rotation, pairing, signature, vertex_of)

    coloring = None
    if colors:
        unknown = sorted(set(colors) - set(G.vertices))
        if unknown:
            raise InputError(f"color given for unknown vertex {unknown[0]}")
        missing = sorted(set(G.vertices) - set(colors))
        if missing:
            raise InputError(f"coloring is not total, vertex {missing[0]} uncolored")
        coloring = Coloring(dict(colors), max(colors.values()))
    return G, coloring


def assemble_rotation(faces, pair, names):
    """``(rotation, signature)`` of the map realizing a face structure, as
    ``quadloc.surface_map._assemble`` builds it before re-tracing, or the
    same ``InputError`` for a pinched vertex."""
    n = len(pair)
    corner = []
    for face in faces:
        o, L = len(corner) // 2, len(face)
        for i in range(L):
            corner += (2 * (o + (i - 1) % L) + 1, 2 * (o + (i + 1) % L))
    flag_dart = [x for face in faces for d in face for x in (d, pair[d])]
    first = [-1] * n
    mate = [0] * len(flag_dart)
    for fl, d in enumerate(flag_dart):
        if first[d] < 0:
            first[d] = fl
        else:
            mate[fl], mate[first[d]] = first[d], fl
    start = {}
    for fl, d in enumerate(flag_dart):
        start.setdefault(names[d], fl)
    degree = Counter(names)
    rotation = [0] * n
    flag_in = [0] * n
    flag_out = [0] * n
    for v in sorted(start):
        first_flag, size = start[v], degree[v]
        cyc = []
        cur = first_flag
        while True:
            d = flag_dart[cur]
            cyc.append(d)
            out = mate[cur]
            flag_in[d], flag_out[d] = cur, out
            cur = corner[out]
            if cur == first_flag:
                break
            if len(cyc) > size:
                raise InputError(f"vertex {v!r} has no disk neighborhood")
        if len(cyc) != size:
            raise InputError(f"vertex {v!r} has no disk neighborhood")
        for i, d in enumerate(cyc):
            rotation[cyc[i - 1]] = d
    signature = [1 if flag_in[a] ^ 1 == flag_out[pair[a]] else -1 for a in range(n) if a < pair[a]]
    return rotation, signature
