"""Plain-text embedding format.

One construct per line, ``#`` starts a comment::

    vertex <vid> : <dart> <dart> ...     cyclic rotation order
    edge   <eid> : <dartA> <dartB> <+|->
    color  <vid> <int>

Darts are integers (renumbered densely on read), vertex ids are arbitrary
whitespace-free tokens.  The writer emits a canonical form, so a written
graph re-reads and re-writes byte-identically.
"""
from __future__ import annotations

from .errors import FormatError
from .localcolor import Coloring
from .surface_map import EmbeddedGraph


def parse_graph(text: str):
    """Parse the embedding format; returns ``(graph, coloring_or_None)``."""
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
                    raise FormatError(f"line {lineno}: expected ':' after vertex id")
                rot_lines.append((lineno, parts[1], list(map(int, parts[3:]))))
            elif kind == "edge":
                if len(parts) != 6 or parts[2] != ":" or parts[5] not in ("+", "-"):
                    raise FormatError(f"line {lineno}: edge needs ': dartA dartB +|-'")
                edge_lines.append((lineno, parts[1], int(parts[3]), int(parts[4]), 1 if parts[5] == "+" else -1))
            elif kind == "color":
                if len(parts) != 3:
                    raise FormatError(f"line {lineno}: color needs 'vid int'")
                if parts[1] in colors:
                    raise FormatError(f"line {lineno}: duplicate color for {parts[1]}")
                colors[parts[1]] = int(parts[2])
            else:
                raise FormatError(f"line {lineno}: unknown construct {kind!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc

    if not rot_lines or not edge_lines:
        raise FormatError("need at least one vertex and one edge line")

    seen_darts = {}
    for lineno, vid, darts in rot_lines:
        if not darts:
            raise FormatError(f"line {lineno}: vertex {vid} has no darts")
        for d in darts:
            if d in seen_darts:
                raise FormatError(f"line {lineno}: duplicate dart {d}")
            seen_darts[d] = vid
    vid_lines = {}
    for lineno, vid, _ in rot_lines:
        if vid_lines.setdefault(vid, lineno) != lineno:
            raise FormatError(f"line {lineno}: duplicate vertex id {vid}")

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
            raise FormatError(f"line {lineno}: duplicate edge id {eid}")
        eids.add(eid)
        if da == db:
            raise FormatError(f"line {lineno}: edge pairs a dart with itself")
        for d in (da, db):
            if d not in dense:
                raise FormatError(f"line {lineno}: dart {d} not declared at any vertex")
            if pairing[dense[d]] is not None:
                raise FormatError(f"line {lineno}: dart {d} used by two edges")
        a, b = dense[da], dense[db]
        pairing[a], pairing[b] = b, a
        sig_by_dart[a] = sig_by_dart[b] = sg
    if any(p is None for p in pairing):
        missing = order[pairing.index(None)]
        raise FormatError(f"dart {missing} belongs to no edge")

    signature = [sig_by_dart[d] for d, p in enumerate(pairing) if d < p]
    G = EmbeddedGraph(rotation, pairing, signature, vertex_of)

    coloring = None
    if colors:
        unknown = sorted(set(colors) - set(G.vertices))
        if unknown:
            raise FormatError(f"color given for unknown vertex {unknown[0]}")
        missing = sorted(set(G.vertices) - set(colors))
        if missing:
            raise FormatError(f"coloring is not total, vertex {missing[0]} uncolored")
        coloring = Coloring(dict(colors), max(colors.values()))
    return G, coloring


def write_graph(G: EmbeddedGraph, coloring: Coloring | None = None) -> str:
    lines = []
    for vid in G.vertices:
        darts = " ".join(str(d) for d in G.darts_at[vid])
        lines.append(f"vertex {vid} : {darts}")
    for k, d in enumerate(G.edge_reps):
        sg = "+" if G.signature[k] > 0 else "-"
        lines.append(f"edge e{k} : {d} {G.pairing[d]} {sg}")
    if coloring is not None:
        for vid in G.vertices:
            lines.append(f"color {vid} {coloring.assignment[vid]}")
    return "\n".join(lines) + "\n"
