import io
import contextlib
import sys
import time
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadloc.cli import run
from quadloc.semifree import walk_label
from quadloc.surface_map import EmbeddedGraph

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    return rc, out.getvalue()


def test_build_then_quad_parity(tmp_path):
    path = str(tmp_path / "g1p.txt")
    rc, _ = invoke(["build", "g1p", "--out", path])
    assert rc == 0
    rc, out = invoke(["verify", "quad-parity", path])
    assert rc == 0
    assert out.strip() == "odd"


def test_group_table_commands():
    rc, out = invoke(["group", "table", "1"])
    assert rc == 0 and "pass" in out
    rc, out = invoke(["group", "table", "2"])
    assert rc == 0 and "pass" in out


def test_search_none_gives_exit_one_and_certificate(tmp_path):
    g = str(tmp_path / "k4p.txt")
    cert = str(tmp_path / "cert.txt")
    invoke(["build", "k4p", "--out", g])
    rc, out = invoke(["search", "local-coloring", "3", "4", g, "--out", cert])
    assert rc == 1
    assert "NONE" in out
    text = Path(cert).read_text()
    assert text.startswith("# quadloc-cert v1")
    assert "result NONE" in text


def test_search_found_gives_exit_zero(tmp_path):
    g = str(tmp_path / "k4p.txt")
    invoke(["build", "k4p", "--out", g])
    rc, out = invoke(["search", "local-coloring", "4", "4", g])
    assert rc == 0 and "FOUND" in out


def test_budget_exit_code(tmp_path):
    g = str(tmp_path / "g1p.txt")
    invoke(["build", "g1p", "--out", g])
    rc, out = invoke(["search", "local-coloring", "3", "4", g, "--budget", "3"])
    assert rc == 3


def test_verify_surface_and_excess(tmp_path):
    g = str(tmp_path / "g0p.txt")
    invoke(["build", "g0p", "--out", g])
    rc, out = invoke(["verify", "surface", g])
    assert rc == 0 and "non-orientable genus 7" in out
    rc, out = invoke(["verify", "excess", g])
    assert rc == 0 and "total excess 20" in out


def test_verify_local_coloring(tmp_path):
    g = str(tmp_path / "g1p.txt")
    invoke(["build", "g1p", "--out", g])
    rc, out = invoke(["verify", "local-coloring", "3", g])
    assert rc == 0 and "ok" in out
    rc, out = invoke(["verify", "local-coloring", "2", g])
    assert rc == 1 and "violation" in out


def test_classify_phi_type(tmp_path):
    g = str(tmp_path / "g1p.txt")
    cert = str(tmp_path / "profile.txt")
    invoke(["build", "g1p", "--out", g])
    rc, out = invoke(["classify", "phi-type", g, "--out", cert])
    assert rc == 0 and "PHI3" in out
    text = Path(cert).read_text()
    assert text.startswith("# quadloc-cert v1")
    assert "type PHI3" in text


def test_each_map_builds_one_spanning_tree(tmp_path, monkeypatch):
    g, refined = str(tmp_path / "g1p.txt"), str(tmp_path / "g1p_refined.txt")
    invoke(["build", "g1p", "--out", g])
    assert invoke(["surgery", "refine3", g, "--out", refined])[0] == 0
    built, trees = [], []
    validate, tree = EmbeddedGraph._validate, EmbeddedGraph.spanning_tree.func

    def counted_validate(G):
        built.append(G)
        validate(G)

    def counted_tree(G):
        trees.append(G)
        return tree(G)

    counted = cached_property(counted_tree)
    counted.__set_name__(EmbeddedGraph, "spanning_tree")
    monkeypatch.setattr(EmbeddedGraph, "_validate", counted_validate)
    monkeypatch.setattr(EmbeddedGraph, "spanning_tree", counted)
    for argv in (["classify", "phi-type", refined, "--out", str(tmp_path / "profile.txt")],
                 ["verify", "surface", refined]):
        built.clear()
        trees.clear()
        assert invoke(argv)[0] == 0
        # the lists hold the maps, so no id is reused while they are compared
        assert built and sorted(map(id, trees)) == sorted(map(id, built)), argv


def test_phi3_cert_files(tmp_path):
    g = str(tmp_path / "g1p.txt")
    invoke(["build", "g1p", "--out", g])
    rc, _ = invoke(["verify", "phi3-cert", str(GOLDEN / "g1p_phi3_certificate.txt"), g])
    assert rc == 0
    rc, _ = invoke(["verify", "phi3-cert", str(GOLDEN / "g1p_negative_edges_12.txt"), g])
    assert rc == 2  # not a negative set of any representative: input mismatch


def _negative_edge_list(G) -> str:
    return "".join(f"{u} {w}\n" for (u, w), s in zip(G.edges, G.signature) if s < 0)


def test_phi3_cert_passes_when_unlisted_edges_disconnect(tmp_path):
    # every edge of K4' switched at 1 and 3 is negative; golden G1' keeps
    # 42 negative edges: in both, the unlisted edges leave G disconnected
    from quadloc.textio import parse_graph, write_graph

    k4 = parse_graph((GOLDEN / "k4p.txt").read_text())[0].switched({"1", "3"})
    (tmp_path / "k4s.txt").write_text(write_graph(k4))
    g1p = parse_graph((GOLDEN / "g1p.txt").read_text())[0]
    for g, G in ((tmp_path / "k4s.txt", k4), (GOLDEN / "g1p.txt", g1p)):
        cert = tmp_path / "cert.txt"
        cert.write_text(_negative_edge_list(G))
        assert invoke(["verify", "phi3-cert", str(cert), str(g)]) == (0, (
            "phi3-certificate: pass\n"
            "graph minus listed edges bipartite: True\n"
            "every removed edge joins same-class vertices: True\n"
        ))


def test_phi3_cert_fail_prints_one_witness_edge(tmp_path):
    # the 3x3 torus grid is orientable, so the empty list matches its
    # all-positive representative, and each row is a 3-cycle of unlisted edges
    from helpers import torus_grid
    from quadloc.textio import write_graph

    g, cert = tmp_path / "torus.txt", tmp_path / "empty.txt"
    g.write_text(write_graph(torus_grid(3, 3)[0]))
    cert.write_text("")
    assert invoke(["verify", "phi3-cert", str(cert), str(g)]) == (1, (
        "phi3-certificate: FAIL\n"
        "edge 0.1~0.2 closes a cycle with an odd number of unlisted edges\n"
    ))


def test_psi_command(tmp_path):
    g = str(tmp_path / "k4p.txt")
    invoke(["build", "k4p", "--out", g])
    rc, out = invoke(["psi", g])
    assert rc == 0
    assert out == ("r=1 NONE nodes=1\nr=2 NONE nodes=1\nr=3 NONE nodes=3\n"
                   "r=4 FOUND nodes=10\npsi = 4\n")


def test_group_word_commands():
    rc, out = invoke(["group", "is-identity", "--word", "1.2 -1.2", "--m", "4"])
    assert rc == 0 and "identity" in out
    rc, out = invoke(["group", "is-identity", "--word", "1.2 1.3", "--m", "4"])
    assert rc == 1
    rc, out = invoke(["group", "reduce", "--word", "1.2 3.4 -1.2", "--m", "4"])
    assert rc == 0 and out.splitlines()[1].strip() == "3.4"
    rc, out = invoke(["group", "walk-label", "2,1,2,3,1,3,4,1,4"])
    assert rc == 0 and "identity: False" in out


def test_surgery_pipeline(tmp_path):
    g = str(tmp_path / "g1p.txt")
    out1 = str(tmp_path / "cc.txt")
    out2 = str(tmp_path / "ref.txt")
    invoke(["build", "g1p", "--out", g])
    # crosscap on a hexagon diagonal: find one via the completed certificate
    from quadloc.constructions import build_G1, add_main_diagonals

    G1, c1 = build_G1()
    _, _, diagonals = add_main_diagonals(G1, c1)
    u, w = diagonals[0]
    rc, out = invoke(["surgery", "crosscap", f"{u},{w}", g, "--out", out1])
    assert rc == 0 and "genus 6" in out
    rc, out = invoke(["surgery", "refine3", out1, "--out", out2])
    assert rc == 0 and "genus 6" in out
    rc, out = invoke(["verify", "quad-parity", out2])
    assert out.strip() == "odd"


def test_surgery_diag_identify(tmp_path):
    # 3x3 torus grid with its 3-coloring, via the text format
    from helpers import torus_grid
    from quadloc.textio import write_graph

    G, c = torus_grid(3, 3)
    g = tmp_path / "torus.txt"
    g.write_text(write_graph(G, c))
    walk = None
    for f in G.faces:
        vs = G.face_vertex_walk(f)
        cols = [c.assignment[v] for v in vs]
        if cols[0] == cols[2] or cols[1] == cols[3]:
            walk = vs
            break
    rc, out = invoke(["surgery", "diag-identify", ",".join(walk), str(g)])
    assert rc == 0 and "V=8 E=16 F=8" in out


def test_tri_commands(tmp_path):
    g = str(tmp_path / "k4p.txt")
    t = str(tmp_path / "t.txt")
    invoke(["build", "k4p", "--out", g])
    rc, _ = invoke(["tri", "subdivide", g, "--out", t])
    assert rc == 0
    rc, out = invoke(["tri", "tq-bound", g])
    assert rc == 0 and "local chromatic number = 5" in out


@pytest.mark.parametrize("name", ["g0p", "g1p"])
def test_tq_bound_proves_psi_five_on_the_paper_quadrangulations(name):
    """The abstract: face subdivisions of odd quadrangulations have local
    chromatic number equal to their chromatic number, so psi(T(G0')) =
    psi(T(G1')) = 5 although psi(G0') = psi(G1') = 3.  The search proves
    that T(Q) has no local 4-coloring, and the hub extension of the map's
    local 3-coloring is a local 5-coloring."""
    rc, out = invoke(["tri", "tq-bound", str(GOLDEN / f"{name}.txt")])
    assert rc == 0 and out.endswith("local chromatic number >= 5\n"
                                    "hub-extension witness local-5: True\n"
                                    "local chromatic number = 5\n"), out


def test_malformed_input_is_exit_two(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertex a : 0\nvertex b : 0\nedge e0 : 0 0 +\n")
    rc, _ = invoke(["verify", "surface", str(bad)])
    assert rc == 2
    rc, _ = invoke(["verify", "surface", str(tmp_path / "missing.txt")])
    assert rc == 2


def test_round_trip_and_determinism(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    invoke(["build", "g0p", "--out", a])
    invoke(["build", "g0p", "--out", b])
    assert Path(a).read_text() == Path(b).read_text()
    rc1, out1 = invoke(["verify", "surface", a])
    rc2, out2 = invoke(["verify", "surface", a])
    assert (rc1, out1) == (rc2, out2)


def test_golden_files_match_builders(tmp_path):
    for name in ("g0", "g1", "g0p", "g1p", "k4p"):
        fresh = tmp_path / f"{name}.txt"
        rc, _ = invoke(["build", name, "--out", str(fresh)])
        assert rc == 0
        assert fresh.read_text() == (GOLDEN / f"{name}.txt").read_text()


def test_family_zero_is_the_golden_prime():
    rc, out = invoke(["build", "family", "g0p", "0"])
    assert rc == 0 and out == (GOLDEN / "g0p.txt").read_text()


def test_family_negative_genus_is_exit_two():
    rc, err = invoke_err(["build", "family", "g1p", "-1"])
    assert rc == 2 and err == "error: extra_genus must be non-negative\n"


HUGE = str(10**20)
K4P = str(GOLDEN / "k4p.txt")


@pytest.mark.parametrize("argv", [
    ["build", "u", HUGE, "3"],
    ["build", "u", "5", HUGE],
    ["build", "family", "g0p", HUGE],
    ["build", "family", "g1p", HUGE],
    ["search", "local-coloring", HUGE, "3", K4P],
    ["search", "local-coloring", "3", HUGE, K4P],
    ["search", "local-coloring", HUGE, HUGE, K4P],
    ["search", "local-coloring", "3", "4", K4P, "--budget", HUGE],
    ["verify", "local-coloring", HUGE, K4P],
    ["psi", K4P, "--budget", HUGE],
    ["tri", "tq-bound", K4P, "--budget", HUGE],
    ["group", "reduce", "--word", "1.2 3.4", "--m", HUGE],
    ["group", "is-identity", "--word", "1.2 3.4", "--m", HUGE],
    ["group", "walk-label", "1,2,3", "--m", HUGE],
    ["group", "table", HUGE],
], ids=lambda argv: " ".join(argv).replace(HUGE, "1e20").replace(K4P, "k4p.txt"))
def test_huge_integer_arguments_exit_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc, by_argparse = run(argv), False
        except SystemExit as exc:  # argparse, which prints its own usage lines
            rc, by_argparse = exc.code, True
    err = err.getvalue()
    assert rc in (0, 1, 2, 3) and "Traceback" not in err, (rc, err)
    if rc == 2:
        assert out.getvalue() == ""
        assert by_argparse or (err.startswith("error: ") and err.count("\n") == 1), err


def test_huge_family_genus_and_search_colors_are_handled():
    # family K ended in an islice ValueError (a traceback, exit 1), and
    # m = 10**20 in an OverflowError; that search now runs with m = |V| = 4
    assert invoke_err(["build", "family", "g1p", HUGE]) == \
        (2, f"error: extra_genus must be at most {sys.maxsize}, got {HUGE}\n")
    assert invoke(["search", "local-coloring", "3", HUGE, K4P]) == \
        invoke(["search", "local-coloring", "3", "4", K4P]) == (1, "NONE nodes=3\n")


def test_build_u_lists_triangle_edges(tmp_path):
    rc, out = invoke(["build", "u", "5", "3"])
    assert rc == 0
    assert out.count("triangle") == 30
    assert out.count("adj ") == 30
    # U(4,2) is a perfect matching; in U(5,4) every edge lies in a triangle
    for m, r, count in (("4", "2", 0), ("5", "4", 90)):
        rc, out = invoke(["build", "u", m, r])
        assert rc == 0 and out.count("triangle") == count


def invoke_err(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, err.getvalue()


def assert_input_error(argv):
    rc, err = invoke_err(argv)
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "vertex a\n",
    "vertex u : 0\nvertex w : 1\nedge e0\n",
    "vertex u : 0\nvertex w : 1\nedge e0 : 0 1 +-\n",
])
def test_truncated_graph_lines_are_exit_two(tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert_input_error(["verify", "surface", str(bad)])


def test_malformed_crosscap_edge_spec_is_exit_two(tmp_path):
    g = str(tmp_path / "g1p.txt")
    invoke(["build", "g1p", "--out", g])
    assert_input_error(["surgery", "crosscap", "u,v,x", g])


def test_malformed_phi3_cert_line_is_exit_two(tmp_path):
    g = str(tmp_path / "g1p.txt")
    cert = tmp_path / "cert.txt"
    invoke(["build", "g1p", "--out", g])
    cert.write_text("# one vertex only\n0\n")
    assert_input_error(["verify", "phi3-cert", str(cert), g])


@pytest.mark.parametrize("argv", [
    ["verify", "surface", "{f}"],
    ["group", "is-identity", "--in", "{f}"],
    ["verify", "phi3-cert", "{f}", str(GOLDEN / "g1p.txt")],
])
def test_non_utf8_input_file_is_exit_two(tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffkneser 6 2\n1.2\n")
    assert_input_error([a.format(f=bad) for a in argv])


def test_malformed_word_without_m_is_exit_two(tmp_path):
    assert_input_error(["group", "is-identity", "--word", "1.x"])
    assert_input_error(["group", "is-identity", "--word", ""])
    bad = tmp_path / "word.txt"
    bad.write_text("kneser x 2\n1.2\n")
    assert_input_error(["group", "reduce", "--in", str(bad)])


def test_malformed_walk_label_is_exit_two():
    assert_input_error(["group", "walk-label", "1,a,2"])


def test_walk_label_m_zero_is_not_ignored():
    assert_input_error(["group", "walk-label", "1,2,3,4,5", "--m", "0"])
    # the message names the m in use, so a 0 taken as "no --m" would show
    assert invoke_err(["group", "walk-label", "1,2,3,4,5", "--m", "0"]) == \
        (2, "error: kneser m 2 needs m >= 4, got m = 0\n")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nonpositive_budget_is_exit_two(tmp_path, budget):
    g = str(tmp_path / "k4p.txt")
    invoke(["build", "k4p", "--out", g])
    assert_input_error(["search", "local-coloring", "3", "3", g, "--budget", budget])
    assert_input_error(["psi", g, "--budget", budget])
    assert_input_error(["tri", "tq-bound", g, "--budget", budget])
    assert invoke_err(["psi", g, "--budget", budget]) == \
        (2, f"error: --budget must be positive, got {budget}\n")


@pytest.mark.parametrize("r", ["0", "-1"])
def test_nonpositive_search_r_is_exit_two(r):
    # r = 0 used to print "NONE nodes=0"; r = -1 ended in a traceback
    assert_input_error(["search", "local-coloring", r, r, str(GOLDEN / "k4p.txt")])
    assert_input_error(["search", "local-coloring", r, "3", str(GOLDEN / "k4p.txt")])


@pytest.mark.parametrize("r", ["0", "-1"])
def test_nonpositive_verify_r_is_exit_two(r):
    # printed "violation: vertex 1" and exited 1, as if the coloring failed
    k4p = str(GOLDEN / "k4p.txt")
    want = invoke_err(["search", "local-coloring", r, "3", k4p])
    assert want == (2, f"error: search needs r >= 1, got {r}\n")
    assert invoke_err(["verify", "local-coloring", r, k4p]) == want


@pytest.mark.parametrize("name", ["g0p", "k4p"])
def test_every_rotation_and_reversal_of_a_face_walk_resolves(name):
    from quadloc.cli import _resolve_face
    from quadloc.textio import parse_graph

    G, _ = parse_graph((GOLDEN / f"{name}.txt").read_text())
    for i, f in enumerate(G.faces):
        walk = list(G.face_vertex_walk(f))
        for seq in (walk, walk[::-1]):
            for k in range(len(seq)):
                assert _resolve_face(G, ",".join(seq[k:] + seq[:k])) == i
    # three corners of a face: no face of a quadrangulation has length 3
    a, b, c, _ = G.face_vertex_walk(G.faces[0])
    rc, err = invoke_err(["surgery", "diag-identify", f"{a},{b},{c}", str(GOLDEN / f"{name}.txt")])
    assert rc == 2 and err == f"error: no face with boundary walk {a},{b},{c}\n"


def test_internal_consistency_is_exit_four(tmp_path, monkeypatch):
    from quadloc import quadform
    from quadloc.errors import InternalConsistencyError

    def broken(G, c):
        raise InternalConsistencyError("refinement changed the surface")

    g = str(tmp_path / "g1p.txt")
    invoke(["build", "g1p", "--out", g])
    monkeypatch.setattr(quadform, "refine_3x3", broken)
    rc, err = invoke_err(["surgery", "refine3", g])
    assert rc == 4
    assert err == "internal consistency violated: refinement changed the surface\n"


def test_parser_is_built_once_and_dispatches_every_command(monkeypatch):
    import argparse

    from quadloc import cli

    parser = cli.build_parser()
    assert cli.build_parser() is parser
    cases = [
        (["build", "k4p"], cli.cmd_build),
        (["verify", "surface", "g"], cli.cmd_verify),
        (["classify", "phi-type", "g"], cli.cmd_classify),
        (["search", "local-coloring", "3", "3", "g", "--budget", "5"], cli.cmd_search),
        (["psi", "g", "--budget", "5"], cli.cmd_psi),
        (["group", "table", "1"], cli.cmd_group),
        (["surgery", "refine3", "g"], cli.cmd_surgery),
        (["tri", "tq-bound", "g", "--budget", "5"], cli.cmd_tri),
    ]
    for argv, func in cases + cases:
        assert parser.parse_args(argv).func is func
    # options given to one call do not leak into the next
    assert parser.parse_args(["psi", "g"]).budget is None
    assert not hasattr(parser.parse_args(["psi", "g"]), "tcmd")
    # a run builds no parser once the first one exists
    built = []
    real_init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or real_init(self, *a, **k))
    assert invoke(["group", "table", "1"])[0] == 0
    assert built == []


def test_walk_label_with_large_m_builds_only_the_used_colors():
    rc4, out4 = invoke(["group", "walk-label", "1,2,1,2", "--m", "4"])
    rc, out = invoke(["group", "walk-label", "1,2,1,2", "--m", "30000"])
    assert rc == rc4 == 0
    assert out.splitlines()[0] == "kneser 30000 2"
    assert out.splitlines()[1:] == out4.splitlines()[1:]


def test_walk_label_through_200_colors_is_fast_and_small():
    # a graph on every pair of the walk's colors fails here at once, before
    # the 200-color run below fills memory (KG(200, 2) has about 1.9e8 edges)
    assert len(walk_label(range(1, 31), 30).graph.generators) <= 30
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rc, out = invoke(["group", "walk-label", ",".join(map(str, range(1, 201)))])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.startswith("kneser 200 2\n") and out.endswith("identity: False\n")
    assert elapsed < 1.0 and peak < 100e6, (elapsed, peak)


def test_invalid_word_letters_are_exit_two():
    for word in ("1.2 1.1", "1.2 1.7", "0.1"):
        assert_input_error(["group", "reduce", "--word", word, "--m", "6"])


def invoke_all(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue(), err.getvalue()


FISK_ROWS = "".join(f"{t}  0  0 0 0\n" for t in ("1,2,3", "1,2,4", "1,3,4", "2,3,4"))


def test_fisk_check_prints_the_congruences_and_the_winding_line(tmp_path):
    from helpers import bipyramid_over_c5
    from quadloc.localcolor import search_local_coloring
    from quadloc.textio import write_graph
    from quadloc.trisub import torus_grid_triangulation

    bipyramid = tmp_path / "bipyramid.txt"
    bipyramid.write_text(write_graph(*bipyramid_over_c5()))
    assert invoke_all(["tri", "fisk-check", str(bipyramid)]) == (0, (
        "odd-degree vertices: a b\n"
        "odd vertices equally colored: True\n"
        "equal neighborhood color triples: True\n"
        "triple  |T|%2  sums%2\n" + FISK_ROWS
        + "winding parity verified at every vertex\n"), "")
    G = torus_grid_triangulation(3, 4)
    grid = tmp_path / "grid.txt"
    grid.write_text(write_graph(G, search_local_coloring(G, 4, 4).coloring))
    assert invoke_all(["tri", "fisk-check", str(grid)]) == (0, (
        "odd-degree vertices: none\n"
        "triple  |T|%2  sums%2\n" + FISK_ROWS
        + "winding parity verified at every vertex\n"), "")


def test_fisk_check_input_errors_are_exit_two(tmp_path):
    from helpers import bipyramid_over_c5
    from quadloc.localcolor import Coloring
    from quadloc.textio import write_graph

    G, c = bipyramid_over_c5()
    uncolored = tmp_path / "uncolored.txt"
    uncolored.write_text(write_graph(G))
    assert invoke_all(["tri", "fisk-check", str(uncolored)]) == (
        2, "", f"error: {uncolored}: coloring required (color lines missing)\n")
    improper = tmp_path / "improper.txt"
    improper.write_text(write_graph(G, Coloring(dict(c.assignment, v4=1), 4)))
    rc, out, err = invoke_all(["tri", "fisk-check", str(improper)])
    assert (rc, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: needs a local 4-coloring")


DIGON = "vertex a : 0 2\nvertex b : 1 3\nedge e0 : 0 1 +\nedge e1 : 2 3 +\ncolor a 1\ncolor b 2\n"


@pytest.mark.parametrize("spec, graph, message", [
    ("x", "g1p", "edge spec must be 'u,v' or 'u,v,k'"),
    ("zz,yy", "g1p", "no edge zz~yy"),
    ("1.24,2.15,3", "g1p", "parallel index 3 out of range for 1.24~2.15"),
    ("1.24,2.15,q", "g1p", "parallel index must be an integer, got 'q'"),
    ("a,b", "digon", "edge a~b is ambiguous (2 parallels); use 'u,v,k'"),
    ("b,a,1", "digon", "face of length 2 present"),
], ids=["one-part", "no-edge", "index-range", "index-type", "ambiguous", "digon-face"])
def test_crosscap_edge_spec_errors_name_the_fault(tmp_path, spec, graph, message):
    if graph == "digon":
        path = tmp_path / "digon.txt"
        path.write_text(DIGON)
    else:
        path = GOLDEN / f"{graph}.txt"
    assert invoke_all(["surgery", "crosscap", spec, str(path)]) == (2, "", f"error: {message}\n")


def test_word_and_surgery_input_paths(tmp_path):
    # without --m the Kneser size is the largest color in the word
    assert invoke_all(["group", "is-identity", "--word", "1.2 3.4 -1.2 -3.4"]) == (0, "identity\n", "")
    assert invoke_all(["group", "reduce"]) == (2, "", "error: need --in FILE or --word TOKENS\n")
    from quadloc.textio import parse_graph, write_graph

    uncolored = tmp_path / "uncolored.txt"
    uncolored.write_text(write_graph(parse_graph((GOLDEN / "g1p.txt").read_text())[0]))
    assert invoke_all(["surgery", "refine3", str(uncolored)]) == (
        2, "", f"error: {uncolored}: coloring required (color lines missing)\n")


@pytest.fixture(scope="module")
def g1p_refined_twice(tmp_path_factory):
    """G1' after two refine3 rounds: 3,156 vertices, more search levels
    than the interpreter's default recursion limit."""
    d = tmp_path_factory.mktemp("refined")
    paths = [str(d / f"L{k}.txt") for k in range(3)]
    assert invoke(["build", "g1p", "--out", paths[0]])[0] == 0
    for k in (1, 2):
        assert invoke(["surgery", "refine3", paths[k - 1], "--out", paths[k]])[0] == 0
    return paths[2]


@pytest.mark.parametrize("argv, stdout", [
    (["search", "local-coloring", "3", "3", "{}", "--budget", "100000"],
     "BUDGET-EXCEEDED nodes=100001\n"),
    (["psi", "{}", "--budget", "100000"],
     "r=1 NONE nodes=1\nr=2 NONE nodes=1379\nr=3 BUDGET-EXCEEDED nodes=100001\n"
     "budget exceeded: psi >= 3\n"),
    (["tri", "tq-bound", "{}", "--budget", "5000"],
     "local 4-coloring search: BUDGET-EXCEEDED (5001 nodes)\n"
     "hub-extension witness local-5: True\n"),
], ids=["search", "psi", "tq-bound"])
def test_searches_on_large_graphs_reach_the_budget(g1p_refined_twice, argv, stdout):
    argv = [a.format(g1p_refined_twice) for a in argv]
    assert invoke_all(argv) == (3, stdout, "")


@pytest.mark.parametrize("argv", [["search", "local-coloring", "2", "3"], ["psi"]])
def test_search_on_a_graph_with_a_loop_is_exit_two(tmp_path, argv):
    from quadloc.surface_map import EmbeddedGraph
    from quadloc.textio import write_graph

    g = tmp_path / "loop.txt"
    g.write_text(write_graph(EmbeddedGraph([1, 0], [1, 0], [1], ["u", "u"])))
    assert_input_error(argv + [str(g)])


@pytest.mark.parametrize("argv", [["search", "local-coloring", "4", "4"], ["psi"]])
def test_invalid_search_coloring_is_exit_four(tmp_path, monkeypatch, argv):
    from quadloc import localcolor

    g = str(tmp_path / "k4p.txt")
    invoke(["build", "k4p", "--out", g])
    monkeypatch.setattr(localcolor, "coloring_violation", lambda G, c, r: ("vertex", "0"))
    rc, err = invoke_err(argv + [g])
    assert rc == 4
    assert err == ("internal consistency violated: search produced an invalid coloring:"
                   " ('vertex', '0')\n")


def _golden_bytes(*names):
    return tuple((GOLDEN / name).read_bytes() for name in names)


WORD_TEXTS = (b"kneser 6 2\n1.2 3.4 -1.2 -3.4 1.3 # note\n-2.5 4.6 5.6\n",
              b"kneser 5 2\n2.3 -1.3 -2.4 1.4\n")
GRAPH_TEXTS = _golden_bytes("k4p.txt", "g0p.txt", "g1p.txt")
# each command with the texts it is meant to read, which the fuzzer mutates
FUZZ_CASES = (
    (["group", "reduce", "--in", "{f}"], WORD_TEXTS),
    (["group", "is-identity", "--in", "{f}"], WORD_TEXTS),
    (["verify", "surface", "{f}"], GRAPH_TEXTS),
    (["verify", "quad-parity", "{f}"], GRAPH_TEXTS),
    (["classify", "phi-type", "{f}"], GRAPH_TEXTS),
    (["verify", "phi3-cert", "{f}", str(GOLDEN / "g1p.txt")], _golden_bytes("g1p_phi3_certificate.txt")),
    (["verify", "phi3-cert", str(GOLDEN / "g1p_phi3_certificate.txt"), "{f}"], _golden_bytes("g1p.txt")),
)


@st.composite
def fuzz_case(draw):
    """A command and either random bytes or one of its texts with a few
    bytes replaced, inserted or deleted at uniformly drawn places."""
    argv, texts = draw(st.sampled_from(FUZZ_CASES))
    if draw(st.booleans()):
        return argv, draw(st.binary(max_size=100))
    data = bytearray(draw(st.sampled_from(texts)))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(data) + 1)
        chunk = rng.choice([b"\n", b" ", b"-", b".", b":", b"#", b"+", b"0", b"7", b"99", b"\xff"])
        edit = rng.choice(("replace", "insert", "delete"))
        if edit == "insert":
            data[pos:pos] = chunk
        elif edit == "replace":
            data[pos:pos + len(chunk)] = chunk
        else:
            del data[pos:pos + len(chunk)]
    return argv, bytes(data)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(fuzz_case())
def test_cli_inputs_exit_zero_one_or_two(fuzz_file, case):
    argv, data = case
    fuzz_file.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run([a.format(f=fuzz_file) for a in argv])
        except SystemExit as exc:  # argparse, which prints its own usage lines
            assert exc.code == 2
            return
    assert rc in (0, 1, 2), (rc, err.getvalue())
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
