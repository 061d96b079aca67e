import io
import contextlib
from pathlib import Path

import pytest

from quadloc.cli import run

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


def test_phi3_cert_files(tmp_path):
    g = str(tmp_path / "g1p.txt")
    invoke(["build", "g1p", "--out", g])
    rc, _ = invoke(["verify", "phi3-cert", str(GOLDEN / "g1p_phi3_certificate.txt"), g])
    assert rc == 0
    rc, _ = invoke(["verify", "phi3-cert", str(GOLDEN / "g1p_negative_edges_12.txt"), g])
    assert rc == 2  # not a negative set of any representative: input mismatch


def test_psi_command(tmp_path):
    g = str(tmp_path / "k4p.txt")
    invoke(["build", "k4p", "--out", g])
    rc, out = invoke(["psi", g])
    assert rc == 0
    assert out == ("r=1 NONE nodes=1\nr=2 NONE nodes=3\nr=3 NONE nodes=6\n"
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


def test_build_u_lists_triangle_edges(tmp_path):
    rc, out = invoke(["build", "u", "5", "3"])
    assert rc == 0
    assert out.count("triangle") == 30
    assert out.count("adj ") == 30


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


def test_malformed_word_without_m_is_exit_two(tmp_path):
    assert_input_error(["group", "is-identity", "--word", "1.x"])
    assert_input_error(["group", "is-identity", "--word", ""])
    bad = tmp_path / "word.txt"
    bad.write_text("kneser x 2\n1.2\n")
    assert_input_error(["group", "reduce", "--in", str(bad)])


def test_malformed_walk_label_is_exit_two():
    assert_input_error(["group", "walk-label", "1,a,2"])


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nonpositive_budget_is_exit_two(tmp_path, budget):
    g = str(tmp_path / "k4p.txt")
    invoke(["build", "k4p", "--out", g])
    assert_input_error(["search", "local-coloring", "3", "3", g, "--budget", budget])
    assert_input_error(["psi", g, "--budget", budget])
    assert_input_error(["tri", "tq-bound", g, "--budget", budget])


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


def test_walk_label_with_large_m_builds_only_the_used_colors():
    rc4, out4 = invoke(["group", "walk-label", "1,2,1,2", "--m", "4"])
    rc, out = invoke(["group", "walk-label", "1,2,1,2", "--m", "30000"])
    assert rc == rc4 == 0
    assert out.splitlines()[0] == "kneser 30000 2"
    assert out.splitlines()[1:] == out4.splitlines()[1:]


def test_invalid_word_letters_are_exit_two():
    for word in ("1.2 1.1", "1.2 1.7", "0.1"):
        assert_input_error(["group", "reduce", "--word", word, "--m", "6"])


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
     "r=1 NONE nodes=1\nr=2 NONE nodes=4296\nr=3 BUDGET-EXCEEDED nodes=100001\n"
     "budget exceeded: psi >= 3\n"),
    (["tri", "tq-bound", "{}", "--budget", "5000"],
     "local 4-coloring search: BUDGET-EXCEEDED (5001 nodes)\n"
     "hub-extension witness local-5: True\n"),
], ids=["search", "psi", "tq-bound"])
def test_searches_on_large_graphs_reach_the_budget(g1p_refined_twice, argv, stdout):
    argv = [a.format(g1p_refined_twice) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    assert (rc, out.getvalue(), err.getvalue()) == (3, stdout, "")


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
