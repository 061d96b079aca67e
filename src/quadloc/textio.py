"""Plain-text embedding format.

One construct per line, ``#`` starts a comment::

    vertex <vid> : <dart> <dart> ...     cyclic rotation order
    edge   <eid> : <dartA> <dartB> <+|->
    color  <vid> <int>

Darts are integers (renumbered densely on read), vertex ids are arbitrary
whitespace-free tokens.  The writer emits a canonical form, so a written
graph re-reads and re-writes byte-identically.

The reader works on whole lists.  One loop splits the lines, checks the
shape of each and files its parts by kind.  The vertex, edge and color
tokens are converted with one ``map(int)`` each, the dense dart numbering
comes from one sort, and one dict renumbers the edge lines' darts.  Bulk
tests find faults; a walk over the lines then names the first fault in
file order, as a line-by-line reading does.
"""
from __future__ import annotations

from itertools import accumulate, chain
from operator import itemgetter

from .errors import InputError, InternalConsistencyError
from .localcolor import Coloring
from .surface_map import EmbeddedGraph

_SIGN = {"+": 1, "-": -1}


def parse_graph(text: str):
    """Parse the embedding format; returns ``(graph, coloring_or_None)``."""
    rotation, pairing, signature, vertex_of, colors = _read(text)
    G = EmbeddedGraph(rotation, pairing, signature, vertex_of)
    coloring = None
    if colors:
        unknown = sorted(set(colors) - set(G.vertices))
        if unknown:
            raise InputError(f"color given for unknown vertex {unknown[0]}")
        missing = sorted(set(G.vertices) - set(colors))
        if missing:
            raise InputError(f"coloring is not total, vertex {missing[0]} uncolored")
        coloring = Coloring(colors, max(colors.values()))
    return G, coloring


def _read(text):
    """The rotation, pairing, signature and vertex names of a text, in dense
    darts, and its colors; the lines and tokens are freed on return, before
    the map is validated."""
    vparts, eparts, cparts = [], [], []
    for parts in filter(None, map(str.split, _lines(text))):
        kind = parts[0]
        if kind == "vertex" and len(parts) > 2 and parts[2] == ":":
            vparts.append(parts)
        elif kind == "edge" and len(parts) == 6 and parts[2] == ":" and parts[5] in _SIGN:
            eparts.append(parts)
        elif kind == "color" and len(parts) == 3:
            cparts.append(parts)
        else:
            _first_fault(text)

    rings = list(map(itemgetter(slice(3, None)), vparts))
    try:
        darts = list(map(int, chain.from_iterable(rings)))
        da = list(map(int, map(itemgetter(3), eparts)))
        db = list(map(int, map(itemgetter(4), eparts)))
        colors = dict(zip(map(itemgetter(1), cparts), map(int, map(itemgetter(2), cparts))))
    except ValueError:
        _first_fault(text)
    if len(colors) != len(cparts):
        _first_fault(text)

    # order: token positions in increasing dart order; ranks[p]: the dense
    # number of the dart at token position p
    n = len(darts)
    order = sorted(range(n), key=darts.__getitem__)
    ranks = [0] * n
    for k, p in enumerate(order):
        ranks[p] = k
    # the edge lines' darts in dense numbers, None for an undeclared dart
    dense = dict(zip(darts, ranks))
    da = list(map(dense.get, da))
    db = list(map(dense.get, db))

    if not vparts or not eparts:
        raise InputError("need at least one vertex and one edge line")
    vids = list(map(itemgetter(1), vparts))
    eids = list(map(itemgetter(1), eparts))
    if (not all(rings) or len(dense) != n or len(set(vids)) != len(vids)
            or len(set(eids)) != len(eids) or None in da or None in db or len(set(da + db)) != 2 * len(da)):
        _first_fault(text)
    if 2 * len(da) != n:
        missing = min(set(range(n)).difference(da, db))
        raise InputError(f"dart {darts[order[missing]]} belongs to no edge")

    # each token's successor on its line, the last wrapping round, and
    # each token's vertex; both are read in dense dart order
    succ = ranks[1:] + ranks[:1]
    at = []
    start = 0
    for vid, stop in zip(vids, accumulate(map(len, rings))):
        succ[stop - 1] = ranks[start]
        at += [vid] * (stop - start)
        start = stop
    rotation = [succ[p] for p in order]
    vertex_of = [at[p] for p in order]
    pairing = [0] * n
    sign = [0] * n
    for a, b, parts in zip(da, db, eparts):
        pairing[a], pairing[b] = b, a
        sign[a] = sign[b] = _SIGN[parts[5]]
    signature = [s for d, p, s in zip(range(n), pairing, sign) if d < p]
    return rotation, pairing, signature, vertex_of, colors


def _lines(text):
    """The lines of a text, without their comments."""
    if "#" not in text:
        return text.splitlines()
    return [raw.partition("#")[0] for raw in text.splitlines()]


def _first_fault(text):
    """Raise the first fault of a text that a bulk check rejected, reading
    it line by line: a malformed line or token, then a vertex without darts
    or a repeated dart, a repeated vertex id, then an edge line with a
    repeated id or whose darts are equal, undeclared or already used."""
    vlines, elines, colors = [], [], set()
    for lineno, parts in enumerate(map(str.split, _lines(text)), start=1):
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "vertex":
                if len(parts) < 3 or parts[2] != ":":
                    raise InputError(f"line {lineno}: expected ':' after vertex id")
                vlines.append((lineno, parts[1], list(map(int, parts[3:]))))
            elif kind == "edge":
                if len(parts) != 6 or parts[2] != ":" or parts[5] not in _SIGN:
                    raise InputError(f"line {lineno}: edge needs ': dartA dartB +|-'")
                elines.append((lineno, parts[1], int(parts[3]), int(parts[4])))
            elif kind == "color":
                if len(parts) != 3:
                    raise InputError(f"line {lineno}: color needs 'vid int'")
                if parts[1] in colors:
                    raise InputError(f"line {lineno}: duplicate color for {parts[1]}")
                colors.add(parts[1])
                int(parts[2])
            else:
                raise InputError(f"line {lineno}: unknown construct {kind!r}")
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    declared, first = set(), {}
    for lineno, vid, darts in vlines:
        if not darts:
            raise InputError(f"line {lineno}: vertex {vid} has no darts")
        for d in darts:
            if d in declared:
                raise InputError(f"line {lineno}: duplicate dart {d}")
            declared.add(d)
    for lineno, vid, _ in vlines:
        if first.setdefault(vid, lineno) != lineno:
            raise InputError(f"line {lineno}: duplicate vertex id {vid}")
    eids, used = set(), set()
    for lineno, eid, da, db in elines:
        if eid in eids:
            raise InputError(f"line {lineno}: duplicate edge id {eid}")
        eids.add(eid)
        if da == db:
            raise InputError(f"line {lineno}: edge pairs a dart with itself")
        for d in (da, db):
            if d not in declared:
                raise InputError(f"line {lineno}: dart {d} not declared at any vertex")
            if d in used:
                raise InputError(f"line {lineno}: dart {d} used by two edges")
        used.update((da, db))
    raise InternalConsistencyError("a bulk check rejected a text that the line walk accepts")


def write_graph(G: EmbeddedGraph, coloring: Coloring | None = None) -> str:
    at, P, sign = G.darts_at, G.pairing, G.signature
    lines = [f"vertex {vid} : {' '.join(map(str, at[vid]))}" for vid in G.vertices]
    lines += [f"edge e{k} : {d} {P[d]} {'+' if sign[k] > 0 else '-'}"
              for k, d in enumerate(G.edge_reps)]
    if coloring is not None:
        lines += [f"color {vid} {coloring.assignment[vid]}" for vid in G.vertices]
    return "\n".join(lines) + "\n"
