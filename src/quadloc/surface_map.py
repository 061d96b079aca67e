"""Graphs embedded in surfaces, encoded as rotation systems with signatures.

An embedding is stored on *darts* (half-edges): a permutation ``rotation``
whose cycles are the cyclic dart orders around vertices, a fixed-point-free
involution ``pairing`` matching the two darts of each edge, and a ``+1/-1``
signature per edge.  Signature ``-1`` marks edges along which local
orientation flips, so non-orientable surfaces are fully representable.

Validation makes one pass per concern, each over whole lists: the
rotation is a permutation, the pairing a fixed-point-free involution, names
are strings, signs are ``+1/-1``, and every rotation step keeps its vertex.
The cycles that ``EmbeddedGraph.darts_at`` walks are then the vertex fibres
iff they cover every dart, and the map is connected iff the breadth-first
``EmbeddedGraph.spanning_tree`` reaches every vertex; both are kept, so
every sign and parity question on a map reads its one tree.  The one sign
propagation down it, :func:`switching_defect`, answers every switching
question: orientability, and both halves of the PHI3 certificate check.

Faces are traced with a sign accumulator: a walk state is ``(dart, side)``,
crossing a negative edge flips the side, and the side decides whether the
walk turns by ``rotation`` or its inverse.  Each face is kept once (its
reversed traversal is discarded), so face lengths sum to ``2 * n_edges``.
Tracing is linear in the number of darts and steps straight through the
rotation, its inverse, the pairing and the dart signs.  Every state
``(d, s)``, numbered ``2 * d + (s < 0)``, records the walk that owns it or
its mirror (the same edge passage traversed the other way), so recognising
a reversed traversal is a single lookup.  A :class:`FaceWalk` carries its
``tails`` and ``sides`` as the walk fills them.
``EmbeddedGraph.edge_slots`` indexes, once per map, the two face slots of
every edge; surgeries and checks look an edge up there instead of scanning
the faces.  ``EmbeddedGraph.cut_system`` reads it to grow a dual tree over
the faces off the spanning tree; the 2 - chi edges left over in neither
tree close a basis of the surface's cycles modulo faces.  The same
``(dart, side)`` states are the map's flags, with the turn and cross moves
of :func:`_flag_moves`: the double cover is the map of those two moves,
and :func:`automorphisms` walks them in lockstep from each candidate image
of one flag (after Lins's graph-encoded maps, 1982) to list the group.

The module also provides the inverse direction: one assembler,
:func:`_assemble`, builds a rotation system with signature from a face
structure on the dense darts ``0 .. n-1``.  One face matcher,
:func:`_match_faces`, checks every map the module builds: it indexes the
traced faces by tail dart (its own index: the maps it checks seldom read
``edge_slots``) and compares each expected face as a tuple, forward or
reversed, with the traced faces found there, matching each at most once.
It checks the assembler's output, tags the medial map's faces and finds
both lifts of every face in the double cover.  The assembler's callers are
:func:`rebuild`, the one edit path (a surgery lists the faces of its
result in the darts of the old map, drops edges and appends new ones,
darts ``n + 2j`` and ``n + 2j + 1``), and :func:`assemble_embedding`, which
builds a map from vertex walks and compares the names along the match.
:func:`merge_faces` and :func:`split_face` are the face edits of surgeries.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import eq, mul

from .errors import InputError, InternalConsistencyError


@dataclass(frozen=True)
class SurfaceClass:
    """Orientability, Euler characteristic and genus of a closed surface."""

    orientable: bool
    euler_characteristic: int
    genus: int

    def describe(self) -> str:
        kind = "orientable" if self.orientable else "non-orientable"
        return f"{kind} genus {self.genus} (chi = {self.euler_characteristic})"


class FaceWalk:
    """One facial walk: a cyclic sequence of (dart, side) slots.

    The slot ``(d, s)`` traverses the edge of ``d`` away from the vertex of
    ``d``; ``s`` is the sign-accumulator state while doing so.  An edge is
    covered by exactly two slots over the whole embedding, one per side.
    ``tails`` holds the darts and ``sides`` the states, slot by slot.
    """

    __slots__ = ("tails", "sides")

    def __init__(self, tails: tuple, sides: tuple):
        self.tails = tails
        self.sides = sides

    def __len__(self):
        return len(self.tails)

    @property
    def slots(self):
        return tuple(zip(self.tails, self.sides))


class EmbeddedGraph:
    """Immutable combinatorial map.

    Darts are ``0 .. n_darts-1``.  Edges are derived orbits of ``pairing``
    and indexed by their smaller dart in increasing order.  Vertex names are
    strings; ``rotation`` cycles must partition the darts exactly by
    ``vertex_of`` and the whole map must be connected.
    """

    __slots__ = ("rotation", "pairing", "signature", "vertex_of", "__dict__")

    def __init__(self, rotation, pairing, signature, vertex_of):
        self.rotation = tuple(rotation)
        self.pairing = tuple(pairing)
        self.signature = tuple(signature)
        self.vertex_of = tuple(vertex_of)
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self):
        """Check the map in whole-list passes (see the module docstring);
        builds ``darts_at`` and ``spanning_tree`` on the way."""
        R, P, V, S = self.rotation, self.pairing, self.vertex_of, self.signature
        n = len(R)
        if n == 0:
            raise InputError("empty map")
        if len(P) != n or len(V) != n:
            raise InputError("rotation, pairing and vertex_of must have equal length")
        darts = range(n)
        # n values that include every dart, or an involution, permute them
        if not set(R).issuperset(darts):
            raise InputError("rotation is not a permutation of the darts")
        if (min(P) < 0 or max(P) >= n or list(map(P.__getitem__, P)) != list(darts)
                or any(map(eq, P, darts))):
            raise InputError("pairing is not a fixed-point-free involution")
        if not all(issubclass(t, str) for t in set(map(type, V))):
            raise InputError("vertex names must be strings")
        if len(S) != self.n_edges:
            raise InputError("signature must assign one sign per edge")
        if S.count(1) + S.count(-1) != len(S):
            raise InputError("signature values must be +1 or -1")
        if tuple(map(V.__getitem__, R)) != V or sum(map(len, self.darts_at.values())) != n:
            raise InputError(self._cycle_fault())
        if len(self.spanning_tree) != len(self.darts_at):
            raise InputError("map is not connected")

    def _cycle_fault(self) -> str:
        """Why the rotation cycles are not the vertex fibres: the first fault
        met walking the cycles in the order of their least darts."""
        R, V = self.rotation, self.vertex_of
        seen, visited = set(), [False] * len(R)
        for d in range(len(R)):
            if visited[d]:
                continue
            vid = V[d]
            if vid in seen:
                return f"vertex {vid!r} split across several rotation cycles"
            seen.add(vid)
            while not visited[d]:
                visited[d] = True
                if V[d] != vid:
                    return f"rotation cycle mixes vertices {vid!r} and {V[d]!r}"
                d = R[d]

    # -- derived data ------------------------------------------------------

    @property
    def n_darts(self) -> int:
        return len(self.rotation)

    @cached_property
    def edge_reps(self):
        return tuple([d for d, e in enumerate(self.pairing) if d < e])

    @property
    def n_edges(self) -> int:
        return self.n_darts // 2

    @cached_property
    def edge_of(self):
        idx = [0] * self.n_darts
        for k, d in enumerate(self.edge_reps):
            idx[d] = idx[self.pairing[d]] = k
        return tuple(idx)

    @cached_property
    def dart_sign(self):
        return tuple(map(self.signature.__getitem__, self.edge_of))

    @cached_property
    def darts_at(self):
        """Vertex name -> its rotation cycle, starting from the smallest dart.
        A later cycle of a name replaces the earlier one, which leaves darts
        uncovered; validation rejects that."""
        R, V = self.rotation, self.vertex_of
        seen, out = [False] * len(R), {}
        for d in range(len(R)):
            if not seen[d]:
                cyc, e = [], d
                while not seen[e]:
                    seen[e] = True
                    cyc.append(e)
                    e = R[e]
                out[V[d]] = tuple(cyc)
        return out

    @cached_property
    def vertices(self):
        return tuple(sorted(self.darts_at))

    @property
    def n_vertices(self) -> int:
        return len(self.darts_at)

    @cached_property
    def spanning_tree(self):
        """The spanning tree behind every sign and parity question on the map.

        Breadth-first from the least vertex, taking the darts at each vertex
        in rotation order: a dict, in the order the vertices are reached, from
        each vertex to the dart at its parent whose edge reaches it (``None``
        at the root).  Every other edge closes one fundamental cycle."""
        V, P, at = self.vertex_of, self.pairing, self.darts_at
        order = [min(at)]
        via = {order[0]: None}
        for v in order:
            for d in at[v]:
                w = V[P[d]]
                if w not in via:
                    via[w] = d
                    order.append(w)
        return via

    def degree(self, vid: str) -> int:
        return len(self.darts_at[vid])

    @cached_property
    def edges(self):
        """Edge index -> sorted endpoint pair."""
        V, P = self.vertex_of, self.pairing
        return tuple([(V[d], V[P[d]]) if V[d] <= V[P[d]] else (V[P[d]], V[d])
                      for d in self.edge_reps])

    @cached_property
    def adjacency(self):
        """Vertex name -> frozenset of neighbor names (parallel edges collapsed)."""
        V, P, at = self.vertex_of, self.pairing, self.darts_at
        return {v: frozenset([V[P[d]] for d in at[v]]) for v in self.vertices}

    @cached_property
    def edges_by_ends(self):
        """Sorted endpoint pair -> the indices of the edges joining it."""
        index = {}
        for k, e in enumerate(self.edges):
            index[e] = index.get(e, ()) + (k,)
        return index

    def edges_between(self, u: str, w: str):
        return self.edges_by_ends.get((u, w) if u <= w else (w, u), ())

    def has_loop(self) -> bool:
        V = self.vertex_of
        return any(map(eq, V, map(V.__getitem__, self.pairing)))

    # -- face tracing ------------------------------------------------------

    @cached_property
    def rotation_inv(self):
        inv = [0] * self.n_darts
        for d, e in enumerate(self.rotation):
            inv[e] = d
        return tuple(inv)

    @cached_property
    def faces(self):
        """All facial walks, each kept in one traversal direction."""
        R, Ri, P, S = self.rotation, self.rotation_inv, self.pairing, self.dart_sign
        # owner[2 * d + (s < 0)]: index of the walk that traverses the slot
        # (d, s) or its mirror (the same edge passage traversed the other
        # way), -1 while untraced.  The mirrors of a walk's slots are marked
        # as the walk goes, so a mirror already owned by the walk lies on it.
        owner = [-1] * (2 * self.n_darts)
        walks = []
        for start in range(len(owner)):
            if owner[start] >= 0:
                continue
            k = len(walks)
            tails, sides = [], []
            d, s, cur = start >> 1, 1 - 2 * (start & 1), start
            while True:
                tails.append(d)
                sides.append(s)
                e = P[d]
                s *= S[d]
                # s is now the side past the edge: the next slot is
                # (R[e] or Ri[e], s), the mirror of the slot just taken (e, -s)
                if s > 0:
                    mirror, d = 2 * e + 1, R[e]
                    nxt = 2 * d
                else:
                    mirror, d = 2 * e, Ri[e]
                    nxt = 2 * d + 1
                if owner[mirror] == k:
                    raise InternalConsistencyError("facial walk coincides with its own reversal")
                owner[cur] = owner[mirror] = k
                cur = nxt
                if cur == start:
                    break
            walks.append(FaceWalk(tuple(tails), tuple(sides)))
        if sum(len(walk.tails) for walk in walks) != 2 * self.n_edges:
            raise InternalConsistencyError("face lengths do not sum to twice the edge count")
        return tuple(walks)

    @cached_property
    def edge_slots(self):
        """Edge index -> its two face slots ``(face, pos)``, in face order."""
        slots, edge_of = [[] for _ in range(self.n_edges)], self.edge_of
        for fi, face in enumerate(self.faces):
            for pos, d in enumerate(face.tails):
                slots[edge_of[d]].append((fi, pos))
        if any(len(s) != 2 for s in slots):
            raise InternalConsistencyError("edge not covered by exactly two slots")
        return tuple(tuple(s) for s in slots)

    @cached_property
    def cut_system(self):
        """The tree-cotree cut system (Eppstein, SODA 2003) on ``spanning_tree``.

        A dual spanning tree is grown breadth-first over the faces from face
        0, crossing only edges off ``spanning_tree``; the edges in neither
        tree, in edge order, are left over, 2 - chi of them.  Returns
        ``(dual_tree, leftover)``: a dict, in the order the faces are
        reached, from each face to the edge it was reached across (``None``
        at face 0), and the tuple of leftover edge indices."""
        E, faces, slots = self.edge_of, self.faces, self.edge_slots
        cut = [False] * self.n_edges
        for d in self.spanning_tree.values():
            if d is not None:
                cut[E[d]] = True
        dual, order = {0: None}, [0]
        for f in order:
            for d in faces[f].tails:
                k = E[d]
                if cut[k]:
                    continue
                (f1, _), (f2, _) = slots[k]
                g = f1 + f2 - f
                if g not in dual:
                    cut[k] = True
                    dual[g] = k
                    order.append(g)
        leftover = tuple([k for k, c in enumerate(cut) if not c])
        chi = self.n_vertices - self.n_edges + len(faces)
        if len(dual) != len(faces) or len(leftover) != 2 - chi:
            raise InternalConsistencyError("tree-cotree cut system does not span the faces")
        return dual, leftover

    def face_vertex_walk(self, face: FaceWalk):
        return tuple(self.vertex_of[d] for d in face.tails)

    def face_lengths(self):
        return tuple(sorted(len(f) for f in self.faces))

    # -- switching ---------------------------------------------------------

    def switched(self, vids) -> "EmbeddedGraph":
        """Switch local orientation at ``vids``: reverse their rotations and
        flip the sign of every edge with exactly one end among them.  The
        same embedding, in a different gauge."""
        vids = set(vids)
        rot = list(self.rotation)
        for d in range(self.n_darts):
            if self.vertex_of[d] in vids:
                rot[d] = self.rotation_inv[d]
        sig = list(self.signature)
        for k, d in enumerate(self.edge_reps):
            ends = (self.vertex_of[d], self.vertex_of[self.pairing[d]])
            if (ends[0] in vids) != (ends[1] in vids):
                sig[k] = -sig[k]
        return EmbeddedGraph(rot, self.pairing, sig, self.vertex_of)


# -- classification ---------------------------------------------------------


def switching_defect(G: EmbeddedGraph, signs):
    """Propagate vertex signs down ``G.spanning_tree`` under the per-dart
    ``signs``, making every tree edge positive; return the first edge, in
    edge order, left negative (its fundamental cycle has negative total
    sign), or ``None`` iff some switching makes every edge positive."""
    V, P = G.vertex_of, G.pairing
    sign = {}
    for w, d in G.spanning_tree.items():
        sign[w] = 1 if d is None else sign[V[d]] * signs[d]
    for k, d in enumerate(G.edge_reps):
        if sign[V[d]] * sign[V[P[d]]] != signs[d]:
            return k
    return None


def classify_surface(G: EmbeddedGraph) -> SurfaceClass:
    """Euler characteristic, orientability and genus of the carrier surface."""
    chi = G.n_vertices - G.n_edges + len(G.faces)
    orientable = switching_defect(G, G.dart_sign) is None
    if orientable:
        if chi % 2 != 0 or chi > 2:
            raise InternalConsistencyError(f"orientable map with chi = {chi}")
        return SurfaceClass(True, chi, (2 - chi) // 2)
    if chi > 1:
        raise InternalConsistencyError(f"non-orientable map with chi = {chi}")
    return SurfaceClass(False, chi, 2 - chi)


# -- automorphisms -----------------------------------------------------------


def _lockstep(moves, start: int):
    """The state map sending state 0 to ``start`` and commuting with every
    move, walked out from state 0, or ``None`` if there is none."""
    img = [-1] * len(moves[0])
    img[0], todo = start, [0]
    while todo:
        x = todo.pop()
        for m in moves:
            x2, y2 = m[x], m[img[x]]
            if img[x2] < 0:
                img[x2] = y2
                todo.append(x2)
            elif img[x2] != y2:
                return None
    return img


def _flag_moves(G: EmbeddedGraph):
    """Turn, ``(rotation[d] if s > 0 else rotation_inv[d], s)``, and cross
    the edge, ``(pairing[d], s * dart_sign[d])``, as lists over the face
    tracer's states ``(d, s)``, numbered ``2 * d + (s < 0)``: the flags."""
    Ri, P, S = G.rotation_inv, G.pairing, G.dart_sign
    turn = [x for d, e in enumerate(G.rotation) for x in (2 * e, 2 * Ri[d] + 1)]
    cross = [x for d, e in enumerate(P) for x in ((2 * e, 2 * e + 1) if S[d] > 0 else (2 * e + 1, 2 * e))]
    return turn, cross


def automorphisms(G: EmbeddedGraph):
    """Every automorphism of the map once, as a dart permutation ``a``
    (``a[d]`` is the image of dart ``d``), the identity first.

    Three moves generate the map's flag structure: turn and cross the edge,
    from :func:`_flag_moves`, and change side, ``(d, -s)``.  On a
    connected map they reach every state, so a state map commuting with
    them is fixed by the image of ``(0, +1)`` and is onto, so a bijection.
    Each of the 2 * n_darts candidate images is walked in lockstep,
    O(darts^2) in all, with no search.  Turn and cross alone admit, on some
    non-orientable maps, walks sending a dart's two sides to different
    darts.  Where no vertex has degree above 2, swapping all sides moves no
    dart: listed once.
    """
    turn, cross = _flag_moves(G)
    moves = (turn, cross, [x ^ 1 for x in range(len(turn))])
    found = (_lockstep(moves, start) for start in range(len(turn)))
    return tuple(dict.fromkeys(tuple([y >> 1 for y in img[0::2]]) for img in found if img))


# -- assembling maps from face structures -----------------------------------


def _canonical_cycle(seq):
    """Canonical form of a cyclic sequence, up to rotation only.

    The least rotation starts at an occurrence of the minimum, so only
    those rotations are compared: O(len * occurrences of the minimum)."""
    low = min(seq)
    return min(tuple(seq[i:] + seq[:i]) for i, x in enumerate(seq) if x == low)


def canonical_walk(seq):
    """Least form of a cyclic sequence up to rotation and reversal."""
    seq = list(seq)
    return min(_canonical_cycle(seq), _canonical_cycle(seq[::-1]))


def fresh_name(base: str, taken: set) -> str:
    """``base`` with underscores prepended until it is not in ``taken``;
    the name returned is added to ``taken``."""
    while base in taken:
        base = "_" + base
    taken.add(base)
    return base


def _match_faces(G: EmbeddedGraph, faces):
    """The traced face of ``G`` that each requested face is, in linear time.

    ``faces`` lists faces as lists or tuples of tail darts of ``G``.
    Returns one ``(face, pos, forward)`` per requested face: from position
    ``pos`` on, the traced face has the requested darts (forward) or their
    paired darts in reverse order (reversed).  The traced faces are indexed
    by tail dart; a dart is the tail of two slots when both passages of a
    one-sided edge leave from it.  A requested face is compared, forward and
    then reversed, with the traced faces at the index entries of its first
    dart, and each traced face is matched at most once.  Raises
    :class:`InternalConsistencyError` unless the requested faces are the
    traced faces up to order, rotation and reversal.
    """
    traced, pair = G.faces, G.pairing
    if len(faces) != len(traced):
        raise InternalConsistencyError("built map does not reproduce the input faces")
    # traced slot g is position g - offset[f] of face f = face_of[g], with
    # tail tails[g]; at[2d + j] is the j-th slot with tail d, -1 if none
    tails = tuple(chain.from_iterable(walk.tails for walk in traced))
    lengths = [len(walk.tails) for walk in traced]
    face_of = list(chain.from_iterable(map(repeat, range(len(traced)), lengths)))
    offset = list(accumulate(lengths, initial=0))
    at = [-1] * (2 * G.n_darts)
    for g, d in enumerate(tails):
        at[2 * d if at[2 * d] < 0 else 2 * d + 1] = g
    used = [False] * len(traced)
    match = []
    for face in faces:
        hit = None
        for forward in (True, False):
            seq = tuple(face) if forward else tuple([pair[d] for d in reversed(face)])
            for g in at[2 * seq[0]:2 * seq[0] + 2]:
                if g < 0 or used[face_of[g]]:
                    continue
                f = face_of[g]
                if tails[g:offset[f + 1]] + tails[offset[f]:g] == seq:
                    hit = (f, g - offset[f], forward)
                    break
            if hit:
                break
        if hit is None:
            raise InternalConsistencyError("built map does not reproduce the input faces")
        used[hit[0]] = True
        match.append(hit)
    return match


def _assemble(faces, pair, names):
    """Build an :class:`EmbeddedGraph` realizing an explicit face structure.

    The darts are ``0 .. n-1``: ``pair[d]`` is the other dart of the edge
    of ``d`` and ``names[d]`` its vertex.  ``faces`` lists faces as cyclic
    sequences of tail darts, traversing every edge exactly twice in total;
    both callers build their input that way.  The vertex links implied by
    the faces must close into a single cycle per vertex (disk condition);
    otherwise :class:`InputError` names the pinched vertex.  Returns the
    map and the :func:`_match_faces` match of ``faces``, which checks the
    traced faces of the result against them.
    """
    n = len(pair)
    tails = list(chain.from_iterable(faces))
    size = 2 * len(tails)
    # slots are numbered face by face; flag 2s is the tail end of slot s and
    # 2s + 1 its head end.  corner[fl] is the flag of the neighbouring slot
    # at the same corner of the face: the head of the slot before and the
    # tail of the slot after, wrapping round at each face's ends.
    corner = [0] * size
    corner[0::2] = range(-1, size - 1, 2)
    corner[1::2] = range(2, size + 2, 2)
    o = 0
    for e in accumulate(map(len, faces)):
        corner[2 * o], corner[2 * e - 1] = 2 * e - 1, 2 * o
        o = e

    # every dart owns exactly two flags (one per traversal of its edge);
    # mate[fl] is the other flag of the same dart.  A vertex's link walk
    # starts at its least flag, which is the first flag of one of its darts.
    flag_dart = [0] * size
    flag_dart[0::2] = tails
    flag_dart[1::2] = [pair[d] for d in tails]
    first = [-1] * n
    mate = [0] * size
    start = {}
    for fl, d in enumerate(flag_dart):
        f = first[d]
        if f < 0:
            first[d] = fl
            start.setdefault(names[d], fl)
        else:
            mate[fl] = f
            mate[f] = fl

    # vertex links -> rotation cycles, with the in-flag of every dart
    # passage; a link must close after exactly the vertex's degree steps
    degree = Counter(names)
    rotation = [0] * n
    flag_in = [0] * n
    for v in sorted(start):
        cur = first_flag = start[v]
        steps = degree[v]
        for i in range(steps):
            d = flag_dart[cur]
            flag_in[d] = cur
            cur = corner[mate[cur]]
            rotation[d] = flag_dart[cur]
            if cur == first_flag:
                break
        if cur != first_flag or i != steps - 1:
            raise InputError(f"vertex {v!r} has no disk neighborhood")

    # signatures from how the two link walks meet across each edge
    # (the out-flag of a passage is the mate of its in-flag)
    signature = [1 if flag_in[a] ^ 1 == mate[flag_in[b]] else -1 for a, b in enumerate(pair) if a < b]
    # free the per-dart and per-flag tables before the map is traced
    del tails, corner, flag_dart, first, mate, flag_in
    G = EmbeddedGraph(rotation, pair, signature, names)

    # the assembled map must reproduce the requested faces exactly
    return G, _match_faces(G, faces)


@dataclass(frozen=True)
class FaceListComplex:
    """Faces of a polygonal complex, each a cyclic vertex sequence.

    No two edges may join the same vertex pair, a loop at v being the pair
    (v, v): every such pair on the face boundaries must occur exactly twice.
    """

    faces: tuple

    @staticmethod
    def from_lists(faces):
        return FaceListComplex(tuple(tuple(str(v) for v in f) for f in faces))


def assemble_embedding(complex_: FaceListComplex):
    """Assemble a vertex-listed face complex into an embedded graph."""
    pair_count = {}
    for face in complex_.faces:
        if len(face) < 2:
            raise InputError("faces need at least two sides")
        for i, u in enumerate(face):
            w = face[(i + 1) % len(face)]
            key = (u, w) if u <= w else (w, u)
            pair_count[key] = pair_count.get(key, 0) + 1
    bad = {k: c for k, c in pair_count.items() if c != 2}
    if bad:
        k, c = sorted(bad.items())[0]
        raise InputError(f"edge slot {k} occurs {c} times, need exactly 2")

    edges = sorted(pair_count)
    edge_idx = {e: i for i, e in enumerate(edges)}
    loops_used = {}
    slot_faces = []
    for face in complex_.faces:
        tails = []
        for i, u in enumerate(face):
            w = face[(i + 1) % len(face)]
            key = (u, w) if u <= w else (w, u)
            if u == w:
                # loop: use each dart once as tail
                end = loops_used.get(key, 0)
                loops_used[key] = end + 1
            else:
                end = 0 if u == key[0] else 1
            tails.append(2 * edge_idx[key] + end)
        slot_faces.append(tails)
    # edge i has dart 2i at its smaller end and 2i + 1 at the other
    darts = range(2 * len(edges))
    G, match = _assemble(slot_faces, [d ^ 1 for d in darts], [edges[d >> 1][d & 1] for d in darts])
    # the traced vertex walks must reproduce the input, read along the
    # faces the darts matched; a reversed match reads the input walk
    # backwards from its first vertex
    for face, (f, pos, forward) in zip(complex_.faces, match):
        walk = G.face_vertex_walk(G.faces[f])
        if walk[pos:] + walk[:pos] != (face if forward else face[:1] + face[:0:-1]):
            raise InternalConsistencyError("assembled embedding changed the vertex walks")
    return G


# -- editing operations ------------------------------------------------------


def rebuild(G: EmbeddedGraph, faces, drop=(), new_ends=(), vertex_of=None) -> EmbeddedGraph:
    """The surgeries' edit path: the map with the given faces, built from ``G``.

    ``faces`` lists every face of the result as tail darts.  Darts of ``G``
    keep their numbers, except those of the edges in ``drop``, which
    disappear.  New edge ``j`` has darts ``n + 2j`` and ``n + 2j + 1``
    (``n = G.n_darts``) at the two vertices ``new_ends[j]``.  ``vertex_of``
    optionally renames the vertices of the darts of ``G``.  An empty face,
    an unknown dart or an edge not traversed twice is an :class:`InputError`.
    The result is numbered densely in dart order and re-traced by the assembler.
    """
    names = list(G.vertex_of if vertex_of is None else vertex_of)
    names += chain.from_iterable(new_ends)
    pairing = list(G.pairing)
    pairing += [d ^ 1 for d in range(len(pairing), len(names))]
    n = len(pairing)
    dropped = {d for k in drop for d in (G.edge_reps[k], G.pairing[G.edge_reps[k]])}
    covered = [0] * n
    for face in faces:
        if not face:
            raise InputError("empty face")
        for d in face:
            if not 0 <= d < n or d in dropped:
                raise InputError(f"unknown dart {d} in a face")
            covered[d] += 1
    keep = [d for d in range(n) if d not in dropped] if dropped else range(n)
    for d in keep:
        count = covered[d] + covered[pairing[d]]
        if count != 2:
            raise InputError(f"edge of dart {d} is covered {count} times, need 2")
    if not dropped:  # every dart keeps its number
        return _assemble(faces, pairing, names)[0]
    # new[d]: the dense number of kept dart d
    new = [-1] * n
    for i, d in enumerate(keep):
        new[d] = i
    faces = [[new[d] for d in face] for face in faces]
    return _assemble(faces, [new[pairing[d]] for d in keep], [names[d] for d in keep])[0]


def merge_faces(G: EmbeddedGraph, edge_index: int):
    """The walk left when an edge between two distinct faces is erased.

    Returns ``(f1, f2, tails)``: the indices of the two faces and the tail
    darts of their union, which no longer traverses the edge."""
    (f1, p1), (f2, p2) = G.edge_slots[edge_index]
    if f1 == f2:
        raise InputError("edge borders a single face; deletion unsupported")
    w1 = G.faces[f1].tails
    w2 = G.faces[f2].tails
    a1 = list(w1[p1 + 1:] + w1[:p1])  # walk 1 without its edge slot
    a2 = list(w2[p2 + 1:] + w2[:p2])
    if w1[p1] == G.pairing[w2[p2]]:
        return f1, f2, a1 + a2
    # both slots traverse the edge the same way: reverse one side
    return f1, f2, a1 + [G.pairing[d] for d in reversed(a2)]


def split_face(walk, i: int, j: int, dart: int):
    """The two walks a face walk splits into along a chord from corner
    ``i`` to corner ``j > i``; the chord has dart ``dart`` at corner ``i``
    and ``dart + 1`` at corner ``j``."""
    walk = list(walk)
    return walk[i:j] + [dart + 1], walk[j:] + walk[:i] + [dart]


# -- medial graph ------------------------------------------------------------


def medial_graph(G: EmbeddedGraph):
    """Medial map: one vertex per edge of ``G``, one edge per corner.

    Returns ``(M, tags)`` with one tag per face of ``M``: ``("star", v)``
    for the face around the vertex ``v`` of ``G`` and ``("cycle", i)`` for
    the face inside face ``i`` of ``G``.  The medial map lives on the same
    surface, which is verified.
    """
    if any(len(c) < 2 for c in G.darts_at.values()):
        raise InputError("medial graph needs minimum degree 2")

    rho, rho_inv, theta = G.rotation, G.rotation_inv, G.pairing

    # medial edge d joins the midpoints of the edges of d and rho(d): its
    # dart 2d sits at d's midpoint, 2d + 1 at rho(d)'s
    n = G.n_darts
    rotation = [0] * (2 * n)
    for a, s in zip(G.edge_reps, G.signature):
        b = theta[a]
        a2, b2, a1, b1 = 2 * a, 2 * b, 2 * rho_inv[a] + 1, 2 * rho_inv[b] + 1
        if s < 0:  # the cycle b1, b2, a2, a1 in place of b2, b1, a2, a1
            b2, b1 = b1, b2
        rotation[b2], rotation[b1], rotation[a2], rotation[a1] = b1, a2, a1, b2
    names = [f"e{k}" for k in range(G.n_edges)]
    at = list(map(names.__getitem__, G.edge_of))
    vertex_of = [""] * (2 * n)
    vertex_of[0::2] = at
    vertex_of[1::2] = map(at.__getitem__, rho)
    pairing = [md ^ 1 for md in range(2 * n)]
    tau = [1 if d < e else s for d, e, s in zip(range(n), theta, G.dart_sign)]
    signature = list(map(mul, tau, map(tau.__getitem__, rho)))
    M = EmbeddedGraph(rotation, pairing, signature, vertex_of)

    if any(len(c) != 4 for c in M.darts_at.values()) or M.n_vertices != G.n_edges:
        raise InternalConsistencyError("medial map is not 4-regular on the edge set")

    # expected faces in medial darts, the stars and then the cycles, which
    # turn at every corner; each traced face takes the tag of its match
    faces = [[2 * d for d in G.darts_at[v]] for v in G.vertices]
    for f in G.faces:
        nxt = zip(f.tails, f.tails[1:] + f.tails[:1], f.sides[1:] + f.sides[:1])
        faces.append([2 * theta[d] if s > 0 else 2 * d2 + 1 for d, d2, s in nxt])
    expected = [("star", v) for v in G.vertices] + [("cycle", i) for i in range(len(G.faces))]
    tags = [None] * len(faces)
    for tag, (mf, _, _) in zip(expected, _match_faces(M, faces)):
        tags[mf] = tag

    if classify_surface(M) != classify_surface(G):
        raise InternalConsistencyError("medial map changed the surface")
    return M, tuple(tags)


# -- orientation double cover -------------------------------------------------


def orientation_double_cover(G: EmbeddedGraph) -> EmbeddedGraph:
    """The orientable double cover of a non-orientable map: the map of the
    turn and cross moves of :func:`_flag_moves`, every edge positive, whose
    dart ``2 * d + (s < 0)`` is the lift of dart ``d`` to sheet ``s``.

    Doubles the Euler characteristic and duplicates every face.  For
    orientable input the cover would be two disjoint copies, so the
    operation reports that instead of returning a disconnected map.
    """
    base = classify_surface(G)
    if base.orientable:
        raise InputError("already orientable: two disjoint copies")
    rotation, pairing = _flag_moves(G)
    lifts = {v: (f"{v}|+", f"{v}|-") for v in G.darts_at}
    vertex_of = list(chain.from_iterable(map(lifts.__getitem__, G.vertex_of)))
    cover = EmbeddedGraph(rotation, pairing, [1] * G.n_darts, vertex_of)

    top = classify_surface(cover)
    if not top.orientable or top.euler_characteristic != 2 * base.euler_characteristic:
        raise InternalConsistencyError("double cover must be orientable with doubled chi")
    # every face of G lifts to the two sheets
    _match_faces(cover, [[2 * d + (t * s < 0) for d, s in zip(f.tails, f.sides)]
                         for t in (1, -1) for f in G.faces])
    return cover
