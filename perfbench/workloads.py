"""Seeded inputs and operations for the four benchmark workloads.

Every workload has a ``setup(rng, tr)`` that builds its inputs (texts,
face lists, seeds and the facts their outputs are checked against), a
``round(inputs)`` that returns the ops of one round, and a
``ladder(inputs, rng, tr)`` that returns the ops only the traced run makes:
the larger input sizes of the per-layer readings, whose cost would leave a
timed run too few rounds, and the flip walks, whose length depends on the
seed.  Every round runs the same ops on the same inputs, so the mix a run
measures does not depend on how many rounds fit in its time.  An op is one user request: the public
calls one ``quadloc`` CLI command makes, starting from the input text, so
every per-map cache starts cold.  Checks compare
each op's output with facts that do not come from the code path being
timed: the formulas of the surgeries, the known invariants of the paper's
graphs, and abelianization counts taken directly from the input tokens.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from quadloc import constructions, localcolor, quadform, semifree, surface_map, textio, trisub

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

# Non-orientable genus of the paper's graphs.
GENUS = {"g0p": 7, "g1p": 5}
# Known bounds (lower, upper) on psi for the search instances.  The lower
# bounds are the paper's (an odd quadrangulation is not bipartite, so psi >= 3;
# psi(K4') = 4 and psi(T(K4')) = 5).  The upper bound is witnessed by the
# construction's own coloring: the natural local 3-coloring, which crosscap
# surgery keeps, and its hub extension, a local 5-coloring of T(Q).
PSI_BOUNDS = {"g0p": (3, 3), "g1p": (3, 3), "k4p": (4, 4), "tk4p": (5, 5),
              "tg0p": (3, 5), "tg1p": (3, 5)}

# Node budget of every search (per value of r for psi): no op is unbounded,
# and a budget stop is the documented exit-3 outcome, which counts as done.
NODE_BUDGET = 30_000


class CheckError(Exception):
    """An op's output contradicts a known fact."""


def expect(cond, what):
    if not cond:
        raise CheckError(what)


@dataclass
class Op:
    kind: str                       # CLI command the op mirrors
    tag: str                        # input size class, e.g. L2, C4000, w1000
    run: Callable                   # run(tr) -> output; the timed part
    check: Callable                 # check(output) raises CheckError


# -- text helpers -------------------------------------------------------------


def relabel(text, rng):
    """Rename vertices and darts of an embedding text by seeded permutations.

    Returns the new text and the vertex renaming.  Vertex names are permuted
    among themselves; darts get distinct ids drawn from ``0 .. 4n - 1``.
    """
    lines = text.splitlines()
    vids = [ln.split()[1] for ln in lines if ln.startswith("vertex ")]
    darts = [int(t) for ln in lines if ln.startswith("vertex ") for t in ln.split()[3:]]
    perm = vids[:]
    rng.shuffle(perm)
    vmap = dict(zip(vids, perm))
    dmap = dict(zip(darts, rng.sample(range(4 * len(darts)), len(darts))))
    out = []
    for ln in lines:
        p = ln.split()
        if p[0] == "vertex":
            p[1] = vmap[p[1]]
            p[3:] = [str(dmap[int(t)]) for t in p[3:]]
        elif p[0] == "edge":
            p[3], p[4] = str(dmap[int(p[3])]), str(dmap[int(p[4])])
        elif p[0] == "color":
            p[1] = vmap[p[1]]
        out.append(" ".join(p))
    return "\n".join(out) + "\n", vmap


def count_lines(text, kind):
    return sum(1 for ln in text.splitlines() if ln.startswith(kind + " "))


def refine_counts(v, e, f):
    return v + 2 * e + 4 * f, 3 * e + 12 * f, 9 * f


def golden_counts(name):
    text = (GOLDEN / f"{name}.txt").read_text()
    v, e = count_lines(text, "vertex"), count_lines(text, "edge")
    return v, e, e // 2    # a quadrangulation has 4F = 2E


SURFACE_RE = re.compile(r"V=(\d+) E=(\d+) F=(\d+) faces\[(.*)\]\n(\S+) genus (\d+) \(chi = (-?\d+)\)\n")
SUMMARY_RE = re.compile(r"done: V=(\d+) E=(\d+) F=(\d+) (\S+) genus (\d+) \(chi = (-?\d+)\)")


def check_surface_text(out, v, e, f, genus, orientable, census):
    m = SURFACE_RE.fullmatch(out)
    expect(m, f"unparsable surface report {out!r}")
    got = tuple(int(m.group(i)) for i in (1, 2, 3))
    expect(got == (v, e, f), f"counts {got} != {(v, e, f)}")
    expect(m.group(4) == census, f"face census {m.group(4)} != {census}")
    expect((m.group(5) == "orientable") == orientable, "orientability")
    expect(int(m.group(6)) == genus, f"genus {m.group(6)} != {genus}")
    expect(int(m.group(7)) == v - e + f, "chi != V - E + F")


def check_summary(summary, text, v, e, f, genus):
    m = SUMMARY_RE.fullmatch(summary)
    expect(m, f"unparsable surgery summary {summary!r}")
    got = tuple(int(m.group(i)) for i in (1, 2, 3))
    expect(got == (v, e, f), f"counts {got} != {(v, e, f)}")
    expect(m.group(4) == "non-orientable" and int(m.group(5)) == genus, f"surface {summary}")
    expect(int(m.group(6)) == v - e + f, "chi != V - E + F")
    expect((count_lines(text, "vertex"), count_lines(text, "edge")) == (v, e), "written file counts")


# -- the public call sequences of the CLI commands ----------------------------


def parse(tr, text):
    G, c = tr.call("textio.parse", textio.parse_graph, text)
    tr.count("textio.parse_darts", G.n_darts)
    return G, c


def faces(tr, G):
    tr.call("surface_map.faces", lambda: G.faces)
    tr.count("surface_map.faces_darts", G.n_darts)


def census_of(G):
    lengths = {}
    for f in G.faces:
        lengths[len(f)] = lengths.get(len(f), 0) + 1
    return " ".join(f"{n}x{ln}" for ln, n in sorted(lengths.items()))


def verify_surface(tr, text):
    G, _ = parse(tr, text)
    faces(tr, G)
    sc = tr.call("surface_map.classify", surface_map.classify_surface, G)
    return f"V={G.n_vertices} E={G.n_edges} F={len(G.faces)} faces[{census_of(G)}]\n{sc.describe()}\n"


def verify_quad_parity(tr, text):
    G, _ = parse(tr, text)
    faces(tr, G)
    return tr.call("quadform.parity", quadform.quad_parity, G)


def verify_excess(tr, text):
    G, _ = parse(tr, text)
    faces(tr, G)
    return tr.call("quadform.excess", quadform.excess_report, G).text()


def classify_phi_type(tr, text):
    G, _ = parse(tr, text)
    faces(tr, G)

    def profile():
        prof = quadform.cycle_parity_profile(G)
        prof.certificate_text(G)
        return prof

    prof = tr.call("quadform.profile", profile)
    return f"type {prof.phi_type or 'n/a'} parity {prof.parity or 'n/a'}"


def verify_local_coloring(tr, text, r):
    G, c = parse(tr, text)
    violation = tr.call("localcolor.verify", localcolor.coloring_violation, G, c, r)
    if violation is None:
        return f"ok: local {r}-coloring with {len(set(c.assignment.values()))} colors"
    return "violation: " + " ".join(str(x) for x in violation)


def verify_phi3_cert(tr, cert, text):
    G, _ = parse(tr, text)
    edges = []
    for raw in cert.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            u, w = line.split()
            edges.append((u, w))
    return tr.call("quadform.phi3_cert", quadform.phi3_certificate, G, edges).text()


def medial(tr, text):
    G, _ = parse(tr, text)
    faces(tr, G)
    M, tags = tr.call("surface_map.medial", surface_map.medial_graph, G)
    return M.n_vertices, len(tags), sum(1 for t in tags if t[0] == "star")


def double_cover(tr, text):
    G, _ = parse(tr, text)
    faces(tr, G)
    cover = tr.call("surface_map.double_cover", surface_map.orientation_double_cover, G)
    return cover.n_vertices, cover.n_edges, len(cover.faces)


def _surgery_tail(tr, G2, c2):
    out = tr.call("textio.write", textio.write_graph, G2, c2)
    faces(tr, G2)
    sc = tr.call("surface_map.classify", surface_map.classify_surface, G2)
    return f"done: V={G2.n_vertices} E={G2.n_edges} F={len(G2.faces)} {sc.describe()}", out


def surgery_refine3(tr, text):
    G, c = parse(tr, text)
    faces(tr, G)
    G2, c2 = tr.call("quadform.refine", quadform.refine_3x3, G, c)
    return _surgery_tail(tr, G2, c2)


def surgery_crosscap(tr, text, spec):
    G, c = parse(tr, text)
    faces(tr, G)
    u, w = spec.split(",")
    (k,) = G.edges_between(u, w)
    G2, c2 = tr.call("quadform.crosscap", quadform.crosscap_hexagon, G, c, k)
    return _surgery_tail(tr, G2, c2)


def surgery_diag_identify(tr, text, spec):
    G, c = parse(tr, text)
    faces(tr, G)
    walk = tuple(spec.split(","))
    for fi, f in enumerate(G.faces):
        w = G.face_vertex_walk(f)
        rev = tuple(reversed(w))
        cands = {tuple(w[k:] + w[:k]) for k in range(len(w))} | {rev[k:] + rev[:k] for k in range(len(w))}
        if walk in cands:
            break
    else:
        raise CheckError(f"no face with walk {spec}")
    G2, c2 = tr.call("quadform.diag_identify", quadform.identify_face_diagonal, G, c, fi)
    return _surgery_tail(tr, G2, c2)


def tri_subdivide(tr, text):
    G, c = parse(tr, text)
    faces(tr, G)

    def subdivide():
        T, origin = trisub.face_subdivision(G)
        return T, trisub.extend_coloring_to_subdivision(G, c, T, origin) if c else None

    T, c2 = tr.call("trisub.subdivide", subdivide)
    return tr.call("textio.write", textio.write_graph, T.graph, c2), len(T.graph.faces)


def psi(tr, text, budget):
    G, _ = parse(tr, text)
    res = tr.call("localcolor.search", localcolor.local_chromatic_number, G, budget)
    tr.search_outcome(sum(o.nodes for o in res.outcomes), res.value is not None)
    if res.value is None:
        return f"budget exceeded: psi >= {res.lower}"
    return f"psi = {res.value}"


def search(tr, text, r, m, budget):
    G, _ = parse(tr, text)
    out = tr.call("localcolor.search", localcolor.search_local_coloring, G, r, m, budget)
    tr.search_outcome(out.nodes, out.status != localcolor.BUDGET_EXCEEDED)
    out.certificate_text()
    return out.status, out.coloring


def tq_bound(tr, text, budget):
    G, c = parse(tr, text)
    return tr.call("trisub.tq_bound", trisub.tq_lower_bound_check, G, c, budget).text()


def flip_walk(tr, seed):
    T, steps = tr.call("trisub.flip_walk", trisub.find_fisk_triangulation, seed)
    tr.count("trisub.flips", steps)
    return T.graph


def assemble(tr, face_lists):
    G = tr.call("surface_map.assemble", surface_map.assemble_embedding,
                surface_map.FaceListComplex.from_lists(face_lists))
    tr.count("surface_map.assemble_darts", G.n_darts)
    return G


def _reduce_counts(tr, n_in, n_out):
    tr.count("semifree.letters_in", n_in)
    if n_out is not None:
        tr.count("semifree.letters_cancelled", n_in - n_out)


def group_is_identity(tr, text):
    w, _ = semifree.parse_word_text(text)
    ok = tr.call("semifree.reduce", semifree.is_identity, w)
    _reduce_counts(tr, len(w), 0 if ok else None)
    return "identity" if ok else "non-identity"


def group_reduce(tr, text):
    w, m = semifree.parse_word_text(text)
    red = tr.call("semifree.reduce", semifree.reduce_word, w)
    _reduce_counts(tr, len(w), len(red))
    return semifree.format_word(red, m)


def short_is_identity(tr, gens, edges, letters):
    H = semifree.CommutationGraph(gens, frozenset(frozenset(e) for e in edges))
    w = semifree.GroupWord(H, letters)
    ok = tr.call("semifree.reduce", semifree.is_identity, w)
    _reduce_counts(tr, len(w), 0 if ok else None)
    return ok


def group_table(tr, which):
    return tr.call("semifree.table", semifree.verify_table, which).text()


def group_walk_label(tr, colors, m):
    w = tr.call("semifree.walk_label", semifree.walk_label, colors, m)
    red = tr.call("semifree.reduce", semifree.reduce_word, w)
    _reduce_counts(tr, len(w), len(red))
    return semifree.format_word(red, m) + f"identity: {len(red) == 0}\n"


# -- shared set-up ---------------------------------------------------------------


def build(tr, name):
    builders = {
        "g0p": constructions.build_G0_prime,
        "g1p": constructions.build_G1_prime,
        "k4p": constructions.build_K4_projective,
    }
    G, c = tr.call("constructions.build", builders[name])
    text = tr.call("textio.write", textio.write_graph, G, c)
    if text != (GOLDEN / f"{name}.txt").read_text():
        raise CheckError(f"build {name} differs from golden/{name}.txt")
    return G, c, text


# -- maps: read-heavy work on large quadrangulations -------------------------------

# (base, refine level) -> relabellings per round.  Every map gets the read ops
# and tri subdivide; the level-0 maps also get surgery refine3, whose output
# is a level-1 map.  The level-1 verify and the level-0 subdivisions (about
# 10 ms each) are the middle third of the ops and hold the rank of op_p50_ms;
# level-1 medial, double cover and the refinements (30-50 ms) hold that of
# op_p90_ms, below the level-1 subdivisions.
MAPS_RELABELLINGS = {("g0p", 0): 2, ("g1p", 0): 2, ("g0p", 1): 3, ("g1p", 1): 3}
# The traced run adds G1' at levels 2 (3,159 faces) and 3 (28,431 faces),
# once each, for the readings at each 9x step in size.  Subdivision, which
# is quadratic, runs up to level 2 only: at level 2 it already takes seconds.
LADDER_BASE, LADDER_LEVELS, LADDER_SUBDIVIDE = "g1p", (2, 3), 2


def maps_setup(rng, tr):
    cert = (GOLDEN / "g1p_phi3_certificate.txt").read_text()
    cert_edges = [ln.split() for ln in cert.splitlines() if ln.split("#", 1)[0].strip()]
    items, top = [], {}
    for base in ("g0p", "g1p"):
        G, c, text = build(tr, base)
        counts = golden_counts(base)
        expect(counts[0] - counts[1] + counts[2] == 2 - GENUS[base], f"golden {base} surface")
        for level in range(2):
            if level:
                G, c = tr.call("quadform.refine", quadform.refine_3x3, G, c, tag=f"L{level - 1}")
                text = tr.call("textio.write", textio.write_graph, G, c, tag=f"L{level}")
                counts = refine_counts(*counts)
            for _ in range(MAPS_RELABELLINGS[(base, level)]):
                rtext, vmap = relabel(text, rng)
                rcert = None
                if base == "g1p" and level == 0:
                    rcert = "".join(f"{vmap[u]} {vmap[w]}\n" for u, w in cert_edges)
                items.append((base, level, counts, rtext, rcert, level == 0))
        top[base] = (text, counts)
    return {"items": items, "top": top}


def map_ops(base, level, counts, text, cert, refine, subdivide=True):
    """The ops on one map text, tagged with its refine level."""
    v, e, f = counts
    g = GENUS[base]
    tag = f"L{level}"
    ops = []

    def add(kind, run, check):
        ops.append(Op(kind, tag, run, check))

    add("verify surface", lambda tr: verify_surface(tr, text),
        lambda out: check_surface_text(out, v, e, f, g, False, f"{f}x4"))
    add("verify quad-parity", lambda tr: verify_quad_parity(tr, text),
        lambda out: expect(out == "odd", f"parity {out}"))
    add("verify excess", lambda tr: verify_excess(tr, text),
        lambda out: expect(out.startswith(f"total excess {4 * (g - 2)} = 4*(genus {g} - 2)\n"), out))
    want_types = ("PHI3",) if base == "g1p" else ("PHI1", "PHI3")
    add("classify phi-type", lambda tr: classify_phi_type(tr, text),
        lambda out: expect(out.split()[1] in want_types and out.endswith("parity odd"), out))
    add("verify local-coloring 3", lambda tr: verify_local_coloring(tr, text, 3),
        lambda out: expect(out.startswith("ok: local 3-coloring"), out))
    add("medial_graph", lambda tr: medial(tr, text),
        lambda out: expect(out == (e, v + f, v), f"medial {out}"))
    add("orientation_double_cover", lambda tr: double_cover(tr, text),
        lambda out: expect(out == (2 * v, 2 * e, 2 * f), f"cover {out}"))
    if cert is not None:
        add("verify phi3-cert", lambda tr: verify_phi3_cert(tr, cert, text),
            lambda out: expect(out.startswith("phi3-certificate: pass\n"), out))
    if refine:
        add("surgery refine3", lambda tr: surgery_refine3(tr, text),
            lambda out: check_summary(*out, *refine_counts(v, e, f), g))
    if subdivide:
        add("tri subdivide", lambda tr: tri_subdivide(tr, text),
            lambda out: expect(
                (count_lines(out[0], "vertex"), count_lines(out[0], "edge"), out[1])
                == (v + f, e + 4 * f, 4 * f), "subdivision counts V+F / E+4F / 4F"))
    return ops


def maps_round(inputs):
    return [op for item in inputs["items"] for op in map_ops(*item)]


def maps_ladder(inputs, rng, tr):
    text, counts = inputs["top"][LADDER_BASE]
    G, c = textio.parse_graph(text)
    ops = []
    for level in LADDER_LEVELS:
        G, c = tr.call("quadform.refine", quadform.refine_3x3, G, c, tag=f"L{level - 1}")
        counts = refine_counts(*counts)
        text = tr.call("textio.write", textio.write_graph, G, c, tag=f"L{level}")
        ops += map_ops(LADDER_BASE, level, counts, relabel(text, rng)[0], None, False,
                       level <= LADDER_SUBDIVIDE)
    return ops


# -- edits: write-heavy work on small maps, plus long faces ------------------------

# (base, refine level) -> (relabellings, crosscap steps, diagonal faces) per round.
# The level-0 surgeries (5-10 ms) are more than half the ops and hold the
# rank of op_p50_ms: many small reassemblies and face-slot scans.
EDIT_BASES = {("g0p", 0): (2, 3, 3), ("g1p", 0): (2, 3, 3), ("g0p", 1): (1, 2, 1), ("g1p", 1): (1, 2, 1)}
# n -> copies per round.  Tracing C_2k (about 0.35 s) holds the rank of
# op_p90_ms, below the assemblies of C_1k (about 0.45 s).
CYCLES = {1000: 2, 2000: 4}
ASSEMBLES = {1000: 2}
# The traced run adds the larger sizes of the face-tracing and assembly
# readings, and flip walks, whose length (58 to 379 flips for seeds 0-2)
# depends on the seed too much for a timed round.
LADDER_CYCLES = (4000, 8000)
LADDER_ASSEMBLES = (2000,)
FLIP_WALKS = 2


def cycle_text(n, rng):
    """The cycle C_n on the sphere, with seeded vertex order and dart ids."""
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    ids = rng.sample(range(4 * n), 2 * n)
    lines = [f"vertex {names[i]} : {ids[2 * i]} {ids[2 * i + 1]}" for i in range(n)]
    lines += [f"edge e{i} : {ids[2 * i + 1]} {ids[2 * ((i + 1) % n)]} +" for i in range(n)]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n", names


def _disjoint_pairs(G, edges, rng):
    """Seeded candidate edges whose face pairs are pairwise disjoint, so each
    stays a candidate after the surgeries on the others."""
    faces_of = {}
    for i, f in enumerate(G.faces):
        for d in f.tails:
            faces_of.setdefault(G.edge_of[d], []).append(i)
    edges = list(edges)
    rng.shuffle(edges)
    used, out = set(), []
    for k in edges:
        fs = set(faces_of[k])
        if not fs & used and len(G.edges_between(*G.edges[k])) == 1:
            used |= fs
            out.append(k)
    return out


def edits_setup(rng, tr):
    built = {name: build(tr, name)[:2] for name in ("g0p", "g1p")}
    chains, diags = [], []
    for (base, level), (copies, steps, n_diag) in EDIT_BASES.items():
        G, c = built[base]
        counts = golden_counts(base)
        if level:
            G, c = tr.call("quadform.refine", quadform.refine_3x3, G, c, tag=f"L{level - 1}")
            counts = refine_counts(*counts)
        text = tr.call("textio.write", textio.write_graph, G, c)
        cands = quadform.find_crosscap_candidates(G, c)
        eligible = []
        for f in G.faces:
            walk = G.face_vertex_walk(f)
            cols = [c.assignment[x] for x in walk]
            if len(set(walk)) == 4 and (cols[0] == cols[2] or cols[1] == cols[3]):
                eligible.append(walk)
        for _ in range(copies):
            rtext, vmap = relabel(text, rng)
            picked = _disjoint_pairs(G, cands, rng)[:steps]
            chains.append((rtext, [",".join(vmap[x] for x in G.edges[k]) for k in picked], counts, GENUS[base]))
            walks = rng.sample(eligible, n_diag)
            diags.append((rtext, [",".join(vmap[x] for x in w) for w in walks], counts, GENUS[base]))
    cycles = [(n, cycle_text(n, rng)) for n, copies in CYCLES.items() for _ in range(copies)]
    assembles = [(n, cycle_text(n, rng)[1]) for n, copies in ASSEMBLES.items() for _ in range(copies)]
    return {"chains": chains, "diags": diags, "cycles": cycles, "assembles": assembles}


def _check_flip(G):
    deg = {}
    for x in G.vertex_of:
        deg[x] = deg.get(x, 0) + 1
    odd = sorted(x for x, d in deg.items() if d % 2)
    expect(len(odd) == 2, f"{len(odd)} odd vertices")
    nbrs = {G.vertex_of[G.pairing[d]] for d in range(G.n_darts) if G.vertex_of[d] == odd[0]}
    expect(odd[1] in nbrs, "odd vertices not adjacent")
    expect(all(len(f) == 3 for f in G.faces), "not a triangulation")
    expect(len(deg) - G.n_edges + len(G.faces) == 0, "flip walk left the torus")


def _check_cycle_graph(G, n):
    expect((G.n_vertices, G.n_edges) == (n, n), "cycle counts")
    expect(sorted(len(f) for f in G.faces) == [n, n], "C_n needs two n-faces")


def edits_round(inputs):
    ops = []
    for text, specs, (v, e, f), g in inputs["chains"]:
        state = {"text": text}
        for step, spec in enumerate(specs):
            def run(tr, spec=spec, state=state):
                summary, out = surgery_crosscap(tr, state["text"], spec)
                state["text"] = out
                return summary, out
            n = (v, e + 2 * (step + 1), f + step + 1)
            ops.append(Op("surgery crosscap", "chain", run,
                          lambda out, n=n, g=g + step + 1: check_summary(*out, *n, g)))
    for text, specs, (v, e, f), g in inputs["diags"]:
        for spec in specs:
            ops.append(Op("surgery diag-identify", "face",
                          lambda tr, t=text, s=spec: surgery_diag_identify(tr, t, s),
                          lambda out, v=v, e=e, f=f, g=g: check_summary(*out, v - 1, e - 2, f - 1, g)))
    ops += long_face_ops(inputs["cycles"], inputs["assembles"])
    return ops


def long_face_ops(cycles, assembles):
    ops = []
    for n, (text, _names) in cycles:
        ops.append(Op("verify surface", f"C{n}", lambda tr, t=text: verify_surface(tr, t),
                      lambda out, n=n: check_surface_text(out, n, n, 2, 0, True, f"2x{n}")))
    for n, names in assembles:
        ops.append(Op("assemble_embedding", f"C{n}", lambda tr, nm=names: assemble(tr, [nm, nm]),
                      lambda G, n=n: _check_cycle_graph(G, n)))
    return ops


def edits_ladder(inputs, rng, tr):
    cycles = [(n, cycle_text(n, rng)) for n in LADDER_CYCLES]
    assembles = [(n, cycle_text(n, rng)[1]) for n in LADDER_ASSEMBLES]
    ops = long_face_ops(cycles, assembles)
    for _ in range(FLIP_WALKS):
        ops.append(Op("find_fisk_triangulation", "walk",
                      lambda tr, s=rng.randrange(10 ** 6): flip_walk(tr, s), _check_flip))
    return ops


# -- search: the local-coloring kernel -------------------------------------------------

FAMILY = (("g0p", 3), ("g1p", 2), ("g1p", 6))
# Relabelled copies per round.  tri tq-bound on K4' (about 1 ms: subdivide,
# then an exhaustive r = 4 search) and the quick r = 3, m = 3 searches on the
# larger graphs are the middle of the ops and hold the rank of op_p50_ms: as
# many ops cost less (the other ops on K4' and T(K4')) as cost more.  The
# r = 4 searches on T(G0') and T(G1') always stop at the node budget; with
# the budget-capped searches on G1', G1'+2 and G1'+6 they are the top
# quarter and hold the rank of op_p90_ms.
SEARCH_COPIES = {"k4p": 4, "tk4p": 1, "tg0p": 7, "tg1p": 1}
OTHER_COPIES = 1
# Instances that get psi only.  The cost of the four searches on G0' swings
# from 30 to 150 ms with the relabelling, so with them ops_per_s read mostly
# which relabelling the seed drew.
PSI_ONLY = ("g0p",)
def search_setup(rng, tr):
    graphs = {name: build(tr, name)[:2] for name in ("g0p", "g1p", "k4p")}
    for base, k in FAMILY:
        graphs[f"{base}+{k}"] = tr.call("constructions.build", constructions.build_high_genus_family, base, k)
    for name in ("k4p", "g0p", "g1p"):
        G, c = graphs[name]
        T, origin = tr.call("trisub.subdivide", trisub.face_subdivision, G)
        graphs["t" + name] = T.graph, trisub.extend_coloring_to_subdivision(G, c, T, origin)
    texts = {name: tr.call("textio.write", textio.write_graph, G, c) for name, (G, c) in graphs.items()}
    colors = {name: len(set(c.assignment.values())) for name, (G, c) in graphs.items()}
    copies = [(name, relabel(text, rng)[0])
              for name, text in texts.items() for _ in range(SEARCH_COPIES.get(name, OTHER_COPIES))]
    return {"copies": copies, "colors": colors}


def psi_bounds(name):
    return PSI_BOUNDS.get(name, (3, 3))    # crosscap family members


def _check_search(name, r, m, witness_colors, text):
    lower, upper = psi_bounds(name)

    def check(out):
        status, coloring = out
        if status == localcolor.FOUND:
            expect(r >= lower, f"found a local {r}-coloring of {name}, psi >= {lower}")
            G, _ = textio.parse_graph(text)
            expect(localcolor.is_local_coloring(G, coloring, r), "FOUND coloring fails the check")
            expect(max(coloring.assignment.values()) <= m, "FOUND coloring uses too many colors")
        elif status == localcolor.NONE:
            expect(r < upper or m < witness_colors, f"NONE contradicts the known local {upper}-coloring")
    return check


def _check_psi(name):
    lower, upper = psi_bounds(name)

    def check(out):
        if out.startswith("budget exceeded"):
            expect(int(out.split()[-1]) <= upper, out)
        else:
            expect(lower <= int(out.split()[-1]) <= upper and out.startswith("psi = "), f"{name}: {out}")
    return check


def search_round(inputs):
    colors = inputs["colors"]
    ops = []
    for name, text in inputs["copies"]:
        if name in ("tg0p", "tg1p"):
            m = 5 if name == "tg0p" else 6
            ops.append(Op("search local-coloring", name,
                          lambda tr, t=text, m=m: search(tr, t, 4, m, NODE_BUDGET),
                          _check_search(name, 4, m, colors[name], text)))
            continue
        ops.append(Op("psi", name, lambda tr, t=text: psi(tr, t, NODE_BUDGET), _check_psi(name)))
        if name in PSI_ONLY:
            continue
        n = count_lines(text, "vertex")
        for rr, m in ((3, 3), (3, 4), (4, 4), (psi_bounds(name)[1], n)):
            ops.append(Op("search local-coloring", name,
                          lambda tr, t=text, rr=rr, m=m: search(tr, t, rr, m, NODE_BUDGET),
                          _check_search(name, rr, m, colors[name], text)))
        if name == "k4p":
            ops.append(Op("tri tq-bound", name, lambda tr, t=text: tq_bound(tr, t, NODE_BUDGET),
                          lambda out: expect(out.endswith("local chromatic number = 5\n"), out)))
    return ops


def search_ladder(inputs, rng, tr):
    return []


# -- words: the semi-free group layer ---------------------------------------------------

# |w| -> words per round.  The identities w * w^-1 on 250 letters and w^2 on
# 500 letters (40-50 ms) are the 18 ops below the top two, w * w^-1 on 500
# letters, and op_p90_ms falls in their middle.
WORD_SIZES = {250: 16, 500: 2}
SQUARE_SIZES = {250: 8, 500: 2}
REDUCE_SIZES = (100, 300)
# Short KG(6,2) words through the CLI path (about 0.25 ms, nearly all of it
# parsing and building the commutation graph) hold the rank of op_p50_ms,
# which reads per-call overhead.  The criterion-11 cases, below them, are as
# many as the ops above them, so op_p50_ms falls in the middle of the group.
SHORT_WORDS = 34
SHORT_CASES = 38
WALKS = 4
# The traced run adds one w * w^-1 at each larger size of the reduction
# readings; the 2,000-letter identity alone takes seconds.
LADDER_SIZES = (1000, 2000)
KG_GENS = tuple(f"{i}.{j}" for i, j in combinations(range(1, 7), 2))


def tokens(letters):
    return " ".join(g if e > 0 else f"-{g}" for g, e in letters)


def word_text(letters):
    return f"kneser 6 2\n{tokens(letters)}\n"


def abelianization(letters):
    out = {}
    for g, e in letters:
        out[g] = out.get(g, 0) + e
    return {g: n for g, n in out.items() if n}


def random_word(rng, n):
    return [(rng.choice(KG_GENS), rng.choice((1, -1))) for _ in range(n)]


def short_case(rng, i):
    """Case ``i`` of the acceptance suite's criterion-11 generator.

    The generator draws 2-8 generators and 1-10 letters, and makes half the
    cases u * u^-1.  Here those three sizes cycle with ``i`` instead, so every
    seed has the same mix of sizes, and only the letters, the commutation
    edges and the order of the cases depend on the seed."""
    n = 2 + i % 7
    gens = tuple(f"g{k}" for k in range(n))
    p = rng.random()
    edges = tuple(pair for pair in combinations(gens, 2) if rng.random() < p)
    letters = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(1 + i % 10))
    if i // 10 % 2:    # half are u * u^-1, the identity by construction
        letters = letters[: (len(letters) + 1) // 2]
        letters += tuple((g, -e) for g, e in reversed(letters))
    return gens, edges, letters


def short_word(rng, i):
    """Short word ``i``: 1-10 letters, and u * u^-1 for half of them; the
    sizes cycle with ``i``, as in ``short_case``."""
    letters = random_word(rng, 1 + i % 10)
    if i // 10 % 2:
        letters = letters[: (len(letters) + 1) // 2]
        letters += [(g, -e) for g, e in reversed(letters)]
    return letters


def closed_walk(rng, t, m=6):
    while True:
        cols = [rng.randint(1, m)]
        for _ in range(t - 1):
            cols.append(rng.choice([x for x in range(1, m + 1) if x != cols[-1]]))
        if cols[0] != cols[-1]:
            return cols


def walk_abelianization(cols):
    out = {}
    t = len(cols)
    for idx in range(1, t + 1):
        a, b = cols[(idx - 2) % t], cols[idx % t]
        if a != b:
            g = semifree.pair_name(a, b)
            out[g] = out.get(g, 0) + (1 if a < b else -1)
    return {g: n for g, n in out.items() if n}


def long_word(rng, n):
    """A random word with nonzero abelianization, so that w^2 is not the identity."""
    w = random_word(rng, n)
    while not abelianization(w):
        w = random_word(rng, n)
    return w


def identity_text(w):
    return word_text(w + [(g, -e) for g, e in reversed(w)])


def words_setup(rng, tr):
    return {
        "inverse": [(n, identity_text(long_word(rng, n)))
                    for n, copies in WORD_SIZES.items() for _ in range(copies)],
        "square": [(n, word_text(2 * long_word(rng, n)))
                   for n, copies in SQUARE_SIZES.items() for _ in range(copies)],
        "reduce": [random_word(rng, n) for n in REDUCE_SIZES],
        "short": rng.sample([short_word(rng, i) for i in range(SHORT_WORDS)], SHORT_WORDS),
        "cases": rng.sample([short_case(rng, i) for i in range(SHORT_CASES)], SHORT_CASES),
        "walks": [closed_walk(rng, rng.randint(8, 64)) for _ in range(WALKS)],
    }


def _check_reduced(letters):
    def check(out):
        head, _, body = out.partition("\n")
        expect(head == "kneser 6 2", out[:40])
        red = [(t.lstrip("-"), -1 if t.startswith("-") else 1) for t in body.split()]
        expect(len(red) <= len(letters) and (len(letters) - len(red)) % 2 == 0, "reduced length")
        expect(abelianization(red) == abelianization(letters), "reduction changed the abelianization")
        expect(all(not (a == b and e == -d) for (a, e), (b, d) in zip(red, red[1:])),
               "reduced word has an adjacent inverse pair")
    return check


def _check_short(letters):
    def check(ok):
        if abelianization(letters):
            expect(not ok, "identity with nonzero abelianization")
        n = len(letters) // 2
        if len(letters) % 2 == 0 and letters[n:] == tuple((g, -e) for g, e in reversed(letters[:n])):
            expect(ok, "u * u^-1 is not the identity")
    return check


def _check_walk(cols):
    def check(out):
        ab = walk_abelianization(cols)
        body = out.split("\n")[1].split()
        red = [(t.lstrip("-"), -1 if t.startswith("-") else 1) for t in body]
        expect(abelianization(red) == ab, "walk label abelianization")
        expect(out.endswith(f"identity: {len(red) == 0}\n"), out[-30:])
        if ab:
            expect(red, "walk label with nonzero abelianization reduced to the identity")
    return check


def identity_ops(inverse, square):
    ops = []
    for n, text in inverse:
        ops.append(Op("group is-identity", f"w{n}", lambda tr, t=text: group_is_identity(tr, t),
                      lambda out: expect(out == "identity", "w * w^-1 is not the identity")))
    for n, text in square:
        # w has nonzero abelianization, so w^2 is not the identity
        ops.append(Op("group is-identity", f"sq{n}", lambda tr, t=text: group_is_identity(tr, t),
                      lambda out: expect(out == "non-identity", "w^2 reported as the identity")))
    return ops


def words_round(item):
    ops = identity_ops(item["inverse"], item["square"])
    for letters in item["reduce"]:
        ops.append(Op("group reduce", f"r{len(letters)}", lambda tr, t=word_text(letters): group_reduce(tr, t),
                      _check_reduced(letters)))
    for letters in item["short"]:
        ops.append(Op("group is-identity", "short", lambda tr, t=word_text(letters): group_is_identity(tr, t),
                      lambda out, c=_check_short(tuple(letters)): c(out == "identity")))
    for gens, edges, letters in item["cases"]:
        ops.append(Op("is_identity", "case",
                      lambda tr, a=gens, b=edges, c=letters: short_is_identity(tr, a, b, c),
                      _check_short(letters)))
    for which in (1, 2):
        ops.append(Op("group table", f"t{which}", lambda tr, w=which: group_table(tr, w),
                      lambda out, w=which: expect(out.startswith(f"table {w}: pass\n"), out)))
    for cols in item["walks"]:
        ops.append(Op("group walk-label", "walk", lambda tr, c=cols: group_walk_label(tr, c, 6),
                      _check_walk(cols)))
    return ops


def words_ladder(inputs, rng, tr):
    return identity_ops([(n, identity_text(long_word(rng, n))) for n in LADDER_SIZES], [])


@dataclass
class Workload:
    setup: Callable                 # setup(rng, tr) -> inputs; timed as setup_s
    round: Callable                 # round(inputs) -> the ops of one round
    ladder: Callable                # ladder(inputs, rng, tr) -> ops of the traced run only


WORKLOADS = {
    "maps": Workload(maps_setup, maps_round, maps_ladder),
    "edits": Workload(edits_setup, edits_round, edits_ladder),
    "search": Workload(search_setup, search_round, search_ladder),
    "words": Workload(words_setup, words_round, words_ladder),
}
