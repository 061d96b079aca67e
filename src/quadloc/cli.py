"""Command-line front end.

Exit codes: 0 verified/found, 1 property fails or NONE, 2 malformed input,
3 search budget exceeded, 4 internal consistency violated (a bug, never the
input's fault).  Reports go to standard output; certificates to ``--out``.
Identical arguments produce byte-identical output.
"""
from __future__ import annotations

import argparse
import sys

from . import constructions, quadform, semifree, trisub
from .errors import InputError, InternalConsistencyError, QuadlocError
from .localcolor import (
    BUDGET_EXCEEDED,
    FOUND,
    build_U,
    coloring_violation,
    local_chromatic_number,
    require_positive_r,
    search_local_coloring,
)
from .surface_map import canonical_walk, classify_surface
from .textio import parse_graph, write_graph

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read_graph(path, need_coloring=False):
    with open(path, "r", encoding="utf-8") as fh:
        G, c = parse_graph(fh.read())
    if need_coloring and c is None:
        raise InputError(f"{path}: coloring required (color lines missing)")
    return G, c


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_arg(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {token!r}") from None


def _budget(budget):
    """``--budget`` is optional, and positive when given."""
    if budget is not None and budget <= 0:
        raise InputError(f"--budget must be positive, got {budget}")
    return budget


def _resolve_edge(G, spec: str) -> int:
    parts = spec.split(",")
    if len(parts) == 3:
        u, w, idx = parts[0], parts[1], _int_arg(parts[2], "parallel index")
    elif len(parts) == 2:
        u, w, idx = parts[0], parts[1], None
    else:
        raise InputError("edge spec must be 'u,v' or 'u,v,k'")
    ks = G.edges_between(u, w)
    if not ks:
        raise InputError(f"no edge {u}~{w}")
    if idx is None:
        if len(ks) > 1:
            raise InputError(f"edge {u}~{w} is ambiguous ({len(ks)} parallels); use 'u,v,k'")
        return ks[0]
    if not 0 <= idx < len(ks):
        raise InputError(f"parallel index {idx} out of range for {u}~{w}")
    return ks[idx]


def _resolve_face(G, spec: str) -> int:
    """The first face whose boundary walk is ``spec`` up to rotation and reversal."""
    key = canonical_walk(spec.split(","))
    for i, f in enumerate(G.faces):
        if canonical_walk(G.face_vertex_walk(f)) == key:
            return i
    raise InputError(f"no face with boundary walk {spec}")


def cmd_build(args):
    if args.what == "u":
        U = build_U(args.m, args.r)
        lines = [f"# ugraph m={args.m} r={args.r} (abstract graph, no embedding)"]
        names = sorted(U.adjacency)
        for v in names:
            lines.append(f"adj {v} : " + " ".join(sorted(U.adjacency[v])))
        for e in sorted(tuple(sorted(e)) for e in U.triangle_edges):
            lines.append(f"triangle {e[0]} {e[1]}")
        nat = U.natural_coloring()
        for v in names:
            lines.append(f"color {v} {nat.assignment[v]}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    builders = {
        "g0": constructions.build_G0,
        "g1": constructions.build_G1,
        "g0p": constructions.build_G0_prime,
        "g1p": constructions.build_G1_prime,
        "k4p": constructions.build_K4_projective,
    }
    if args.what == "family":
        G, c = constructions.build_high_genus_family(args.base, args.k)
    else:
        G, c = builders[args.what]()
    _emit(write_graph(G, c), args.out)
    return EXIT_OK


def cmd_verify(args):
    if args.check == "surface":
        G, _ = _read_graph(args.graph)
        sc = classify_surface(G)
        lengths = {}
        for f in G.faces:
            lengths[len(f)] = lengths.get(len(f), 0) + 1
        census = " ".join(f"{n}x{l}" for l, n in sorted(lengths.items()))
        print(f"V={G.n_vertices} E={G.n_edges} F={len(G.faces)} faces[{census}]")
        print(sc.describe())
        return EXIT_OK
    if args.check == "quad-parity":
        G, _ = _read_graph(args.graph)
        print(quadform.quad_parity(G))
        return EXIT_OK
    if args.check == "excess":
        G, _ = _read_graph(args.graph)
        rep = quadform.excess_report(G)
        print(rep.text(), end="")
        return EXIT_OK
    if args.check == "local-coloring":
        require_positive_r(args.r)
        G, c = _read_graph(args.graph, need_coloring=True)
        violation = coloring_violation(G, c, args.r)
        if violation is None:
            print(f"ok: local {args.r}-coloring with {len(set(c.assignment.values()))} colors")
            return EXIT_OK
        print(f"violation: {' '.join(str(x) for x in violation)}")
        return EXIT_FAIL
    if args.check == "phi3-cert":
        G, _ = _read_graph(args.graph)
        edges = []
        with open(args.cert, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(), start=1):
                pair = raw.split("#", 1)[0].split()
                if not pair:
                    continue
                if len(pair) != 2:
                    raise InputError(f"{args.cert}: line {lineno}: expected two vertex ids")
                edges.append(tuple(pair))
        rep = quadform.phi3_certificate(G, edges)
        print(rep.text(), end="")
        return EXIT_OK if rep.passed else EXIT_FAIL
    raise InputError(f"unknown verify check {args.check}")


def cmd_classify(args):
    G, _ = _read_graph(args.graph)
    profile = quadform.cycle_parity_profile(G)
    text = profile.certificate_text(G)
    print(f"type {profile.phi_type if profile.phi_type else 'n/a'}"
          f" parity {profile.parity if profile.parity else 'n/a'}")
    if args.out:
        _emit(text, args.out)
    return EXIT_OK


def cmd_search(args):
    budget = _budget(args.budget)
    G, _ = _read_graph(args.graph)
    out = search_local_coloring(G, args.r, args.m, budget)
    if args.out:
        _emit(out.certificate_text(), args.out)
    print(f"{out.status} nodes={out.nodes}")
    if out.status == FOUND:
        for v in sorted(out.coloring.assignment):
            print(f"color {v} {out.coloring.assignment[v]}")
        return EXIT_OK
    return EXIT_BUDGET if out.status == BUDGET_EXCEEDED else EXIT_FAIL


def cmd_psi(args):
    budget = _budget(args.budget)
    G, _ = _read_graph(args.graph)
    res = local_chromatic_number(G, budget)
    for out in res.outcomes:
        print(f"r={out.r} {out.status} nodes={out.nodes}")
    if res.value is None:
        print(f"budget exceeded: psi >= {res.lower}")
        return EXIT_BUDGET
    print(f"psi = {res.value}")
    return EXIT_OK


def _load_word(args):
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return semifree.parse_word_text(fh.read())
    if args.word is None:
        raise InputError("need --in FILE or --word TOKENS")
    m = args.m
    if m is None:
        colors = [_int_arg(x, "word color") for tok in args.word.split()
                  for x in tok.lstrip("-").split(".")]
        if not colors:
            raise InputError("empty word needs --m")
        m = max(colors)
    return semifree.parse_word_text(f"kneser {m} 2\n{args.word}\n")


def cmd_group(args):
    if args.gcmd == "table":
        rep = semifree.verify_table(args.which)
        print(rep.text(), end="")
        return EXIT_OK if rep.passed else EXIT_FAIL
    if args.gcmd == "walk-label":
        colors = [_int_arg(x, "walk color") for x in args.colors.split(",")]
        m = args.m if args.m else max(colors)
        w = semifree.walk_label(colors, m)
        red = semifree.reduce_word(w)
        print(semifree.format_word(red, m), end="")
        print(f"identity: {len(red) == 0}")
        return EXIT_OK
    w, m = _load_word(args)
    if args.gcmd == "reduce":
        red = semifree.reduce_word(w)
        print(semifree.format_word(red, m), end="")
        return EXIT_OK
    if args.gcmd == "is-identity":
        ok = semifree.is_identity(w)
        print("identity" if ok else "non-identity")
        return EXIT_OK if ok else EXIT_FAIL
    raise InputError(f"unknown group command {args.gcmd}")


def cmd_surgery(args):
    G, c = _read_graph(args.graph, need_coloring=True)
    if args.scmd == "crosscap":
        k = _resolve_edge(G, args.edge)
        G2, c2 = quadform.crosscap_hexagon(G, c, k)
    elif args.scmd == "refine3":
        G2, c2 = quadform.refine_3x3(G, c)
    elif args.scmd == "diag-identify":
        fi = _resolve_face(G, args.face)
        G2, c2 = quadform.identify_face_diagonal(G, c, fi)
    else:
        raise InputError(f"unknown surgery {args.scmd}")
    _emit(write_graph(G2, c2), args.out)
    sc = classify_surface(G2)
    print(f"done: V={G2.n_vertices} E={G2.n_edges} F={len(G2.faces)} {sc.describe()}")
    return EXIT_OK


def cmd_tri(args):
    if args.tcmd == "subdivide":
        G, c = _read_graph(args.graph)
        T, origin = trisub.face_subdivision(G)
        c2 = trisub.extend_coloring_to_subdivision(G, c, T, origin) if c else None
        _emit(write_graph(T.graph, c2), args.out)
        return EXIT_OK
    if args.tcmd == "fisk-check":
        G, c = _read_graph(args.graph, need_coloring=True)
        T = trisub.Triangulation.wrap(G)
        rep = trisub.fisk_check(T, c)
        print(rep.text(), end="")
        for v in T.graph.vertices:
            trisub.link_winding(T, c, v)
        print("winding parity verified at every vertex")
        return EXIT_OK
    if args.tcmd == "tq-bound":
        budget = _budget(args.budget)
        G, c = _read_graph(args.graph)
        rep = trisub.tq_lower_bound_check(G, c, budget)
        print(rep.text(), end="")
        if rep.search_status == BUDGET_EXCEEDED:
            return EXIT_BUDGET
        return EXIT_OK if rep.lower_bound else EXIT_FAIL
    raise InputError(f"unknown tri command {args.tcmd}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="quadloc",
        description="exact toolkit for quadrangulations, local colorings and group certificates",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="construct a named embedded graph")
    bs = b.add_subparsers(dest="what", required=True)
    for name in ("g0", "g1", "g0p", "g1p", "k4p"):
        sp = bs.add_parser(name)
        sp.add_argument("--out")
    sp = bs.add_parser("u")
    sp.add_argument("m", type=int)
    sp.add_argument("r", type=int)
    sp.add_argument("--out")
    sp = bs.add_parser("family")
    sp.add_argument("base", choices=("g0p", "g1p"))
    sp.add_argument("k", type=int)
    sp.add_argument("--out")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="check properties of a graph file")
    vs = v.add_subparsers(dest="check", required=True)
    for name in ("surface", "quad-parity", "excess"):
        sp = vs.add_parser(name)
        sp.add_argument("graph")
    sp = vs.add_parser("local-coloring")
    sp.add_argument("r", type=int)
    sp.add_argument("graph")
    sp = vs.add_parser("phi3-cert")
    sp.add_argument("cert")
    sp.add_argument("graph")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("classify", help="cycle parity map and its type")
    cs = c.add_subparsers(dest="ccmd", required=True)
    sp = cs.add_parser("phi-type")
    sp.add_argument("graph")
    sp.add_argument("--out")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("search", help="exhaustive local-coloring search")
    ss = s.add_subparsers(dest="scmd2", required=True)
    sp = ss.add_parser("local-coloring")
    sp.add_argument("r", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("graph")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--out")
    s.set_defaults(func=cmd_search)

    ps = sub.add_parser(
        "psi", help="local chromatic number",
        description="Try r = 1, 2, ... with m = |V| colors and print one 'r=R STATUS nodes=N'"
                    " line per r, then the verdict line.")
    ps.add_argument("graph")
    ps.add_argument("--budget", type=int,
                    help="search nodes allowed for each r separately, not for the whole run")
    ps.set_defaults(func=cmd_psi)

    g = sub.add_parser("group", help="semi-free group word calculus")
    gs = g.add_subparsers(dest="gcmd", required=True)
    for name in ("reduce", "is-identity"):
        sp = gs.add_parser(name)
        sp.add_argument("--in", dest="infile")
        sp.add_argument("--word")
        sp.add_argument("--m", type=int)
    sp = gs.add_parser("table")
    sp.add_argument("which", type=int, choices=(1, 2))
    sp = gs.add_parser("walk-label")
    sp.add_argument("colors")
    sp.add_argument("--m", type=int)
    g.set_defaults(func=cmd_group)

    su = sub.add_parser("surgery", help="embedded-graph surgeries")
    sus = su.add_subparsers(dest="scmd", required=True)
    sp = sus.add_parser("crosscap")
    sp.add_argument("edge")
    sp.add_argument("graph")
    sp.add_argument("--out")
    sp = sus.add_parser("refine3")
    sp.add_argument("graph")
    sp.add_argument("--out")
    sp = sus.add_parser("diag-identify")
    sp.add_argument("face")
    sp.add_argument("graph")
    sp.add_argument("--out")
    su.set_defaults(func=cmd_surgery)

    t = sub.add_parser("tri", help="triangulation checks")
    ts = t.add_subparsers(dest="tcmd", required=True)
    sp = ts.add_parser("subdivide")
    sp.add_argument("graph")
    sp.add_argument("--out")
    sp = ts.add_parser("fisk-check")
    sp.add_argument("graph")
    sp = ts.add_parser("tq-bound")
    sp.add_argument("graph")
    sp.add_argument("--budget", type=int)
    t.set_defaults(func=cmd_tri)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        print(f"internal consistency violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except QuadlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
