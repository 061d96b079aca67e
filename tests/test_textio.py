import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadloc.errors import InputError
from quadloc.quadform import refine_3x3
from quadloc.textio import parse_graph, write_graph
from helpers import cycle_graph, klein_bottle_grid, two_squares_sphere
from oracles import parse_graph_by_lines


def test_round_trip_is_byte_identical(g1p):
    G, c = g1p
    text = write_graph(G, c)
    G2, c2 = parse_graph(text)
    assert write_graph(G2, c2) == text


def test_round_trip_verifies_identically(k4p):
    G, c = k4p
    G2, c2 = parse_graph(write_graph(G, c))
    assert G2.rotation == G.rotation
    assert G2.pairing == G.pairing
    assert G2.signature == G.signature
    assert G2.vertex_of == G.vertex_of
    assert c2.assignment == c.assignment


def test_round_trip_without_coloring():
    G, _ = klein_bottle_grid()
    text = write_graph(G)
    G2, c2 = parse_graph(text)
    assert c2 is None
    assert G2.face_lengths() == G.face_lengths()


def test_comments_and_blank_lines_ignored():
    G, c = two_squares_sphere()
    text = "# header\n\n" + write_graph(G, c).replace("edge e0", "edge e0 ", 1)
    G2, _ = parse_graph(text)
    assert G2.n_edges == G.n_edges


def test_parser_rejects_duplicate_darts():
    text = "vertex u : 0 1\nvertex w : 1\nedge e0 : 0 1 +\n"
    with pytest.raises(InputError, match="^line 2: duplicate dart 1$"):
        parse_graph(text)


def test_parser_names_the_line_and_id_of_a_duplicate_vertex():
    text = "vertex u : 0\nvertex w : 1\n# u again\nvertex u : 2 3\nedge e0 : 0 1 +\nedge e1 : 2 3 +\n"
    with pytest.raises(InputError, match=r"^line 4: duplicate vertex id u$"):
        parse_graph(text)


def test_parser_rejects_non_involutive_pairing():
    text = "vertex u : 0\nvertex w : 1\nedge e0 : 0 0 +\nedge e1 : 1 1 +\n"
    with pytest.raises(InputError, match="^line 3: edge pairs a dart with itself$"):
        parse_graph(text)


def test_parser_rejects_dart_on_two_edges():
    text = "vertex u : 0 2\nvertex w : 1 3\nedge e0 : 0 1 +\nedge e1 : 1 2 +\nedge e2 : 2 3 +\n"
    with pytest.raises(InputError, match="^line 4: dart 1 used by two edges$"):
        parse_graph(text)


def test_parser_rejects_disconnected():
    text = (
        "vertex a : 0\nvertex b : 1\nvertex c : 2\nvertex d : 3\n"
        "edge e0 : 0 1 +\nedge e1 : 2 3 +\n"
    )
    with pytest.raises(InputError, match="connected"):
        parse_graph(text)


def test_parser_rejects_partial_coloring():
    G, c = two_squares_sphere()
    text = write_graph(G, c)
    text = "\n".join(line for line in text.splitlines() if not line.startswith("color 4")) + "\n"
    with pytest.raises(InputError, match="^coloring is not total, vertex 4 uncolored$"):
        parse_graph(text)
    with pytest.raises(InputError, match=r"^color 0 of 'a' outside 1\.\.1$"):
        parse_graph("vertex a : 0\nvertex b : 1\nedge e0 : 0 1 +\ncolor a 0\ncolor b 1\n")


@pytest.mark.parametrize("line", [
    "vertex a", "vertex", "edge e0", "edge e0 :", "edge e0 : 0 1 +-",
])
def test_parser_rejects_truncated_or_malformed_lines(line):
    text = "vertex u : 0\nvertex w : 1\nedge e0 : 0 1 +\n" + line + "\n"
    want = "expected ':' after vertex id" if line.startswith("vertex") else "edge needs ': dartA dartB +|-'"
    with pytest.raises(InputError, match=f"^{re.escape('line 4: ' + want)}$"):
        parse_graph(text)


GOLDEN_TEXTS = {
    name: (Path(__file__).resolve().parent.parent / "golden" / f"{name}.txt").read_text()
    for name in ("k4p", "g0", "g0p", "g1", "g1p")
}
GOLDEN_LINES = {name: GOLDEN_TEXTS[name].splitlines() for name in ("k4p", "g1p")}
TOKENS = st.one_of(
    st.sampled_from(["vertex", "edge", "color", ":", "+", "-", "#", "0", "-1", "1.23"]),
    st.integers(-3, 400).map(str),
    st.text(alphabet="0123456789.:+-#ex", min_size=1, max_size=4),
)


@st.composite
def mutated_golden_text(draw):
    lines = list(GOLDEN_LINES[draw(st.sampled_from(sorted(GOLDEN_LINES)))])
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "replace")))
        if op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif lines[k].split():
            tokens = lines[k].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_golden_text())
def test_parser_raises_only_input_errors_on_mutated_golden_files(text):
    try:
        parse_graph(text)
    except InputError:
        pass


def relabelled(text, rng):
    """The text with its vertex ids permuted and its darts renamed to
    distinct ints, some of them negative, and its lines shuffled."""
    lines = text.splitlines()
    vids = sorted({ln.split()[1] for ln in lines if ln.startswith("vertex")})
    darts = sorted({t for ln in lines if ln.startswith(("vertex", "edge"))
                    for t in ln.split()[3:] if t.lstrip("-").isdigit()}, key=int)
    vmap = dict(zip(vids, rng.sample(vids, len(vids))))
    dmap = dict(zip(darts, map(str, rng.sample(range(-len(darts), 3 * len(darts)), len(darts)))))
    out = []
    for ln in lines:
        parts = ln.split()
        parts[1] = vmap.get(parts[1], parts[1])
        parts[3:] = [dmap.get(t, t) for t in parts[3:]]
        out.append(" ".join(parts))
    rng.shuffle(out)
    return "\n".join(out) + "\n"


def respelled(text, rng):
    """The same map spelled otherwise: int tokens as 07, +7 or -0, tabs
    and runs of blanks between tokens, CRLF line ends, trailing comments
    and blank lines."""
    out = []
    for ln in text.splitlines():
        parts = ln.split()
        for i, t in enumerate(parts):
            if i >= 2 and t.isdigit() and rng.random() < 0.3:
                parts[i] = rng.choice(("0", "+", "00")) + t if t != "0" else rng.choice(("-0", "+0", "00"))
        line = "".join(p + rng.choice((" ", "\t", "  ", " \t")) for p in parts).rstrip()
        if rng.random() < 0.1:
            line += rng.choice((" # note", "#", "\t# vertex x : 1"))
        out.append(line)
        if rng.random() < 0.05:
            out.append(rng.choice(("", "   ", "# comment", "\t")))
    return rng.choice(("\n", "\r\n")).join(out) + "\n"


@st.composite
def reader_inputs(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    name = draw(st.sampled_from(sorted(GOLDEN_TEXTS)))
    if name in GOLDEN_LINES and draw(st.booleans()):
        text = draw(mutated_golden_text())
    else:
        text = GOLDEN_TEXTS[name]
    if draw(st.booleans()):
        text = relabelled(text, rng)
    if rng.random() < 0.3:
        # cut a line after its first one to four tokens, or add a vertex
        # line without darts
        lines = text.splitlines()
        k = rng.randrange(len(lines))
        if rng.random() < 0.7:
            lines[k] = " ".join(lines[k].split()[:rng.randint(1, 4)])
        else:
            lines.insert(k, "vertex new :")
        text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        text = respelled(text, rng)
    return text


def read_outcome(parse, text):
    try:
        G, c = parse(text)
    except InputError as exc:
        return type(exc), str(exc)
    coloring = None if c is None else (c.assignment, c.m)
    return G.rotation, G.pairing, G.signature, G.vertex_of, coloring


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reader_inputs())
def test_parser_matches_line_by_line_oracle(text):
    assert read_outcome(parse_graph, text) == read_outcome(parse_graph_by_lines, text)


@pytest.mark.parametrize("name", sorted(GOLDEN_TEXTS))
def test_parser_matches_the_oracle_with_and_without_comments(name):
    # a text without '#' skips the comment cut; both readings must agree
    # with the oracle, and a repeated dart is named by its line either way
    text = GOLDEN_TEXTS[name]
    assert "#" not in text
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("vertex"))
    commented = lines[:k] + [lines[k] + "  # vertex x : 1 2"] + lines[k + 1:]
    commented = "# a comment line\n" + "\n".join(commented) + "\n"
    # the next vertex line repeats the first dart of line k + 1
    dart = lines[k].split()[3]
    repeated = lines[:k + 1] + [f"{lines[k + 1]} {dart}"] + lines[k + 2:]
    repeated = "\n".join(repeated) + "\n"
    assert "#" not in repeated
    for t in (text, commented, repeated, "# c\n" + repeated):
        assert read_outcome(parse_graph, t) == read_outcome(parse_graph_by_lines, t)
    assert read_outcome(parse_graph, commented) == read_outcome(parse_graph, text)
    assert read_outcome(parse_graph, repeated) == (InputError, f"line {k + 2}: duplicate dart {dart}")
    assert read_outcome(parse_graph, "# c\n" + repeated) == (InputError, f"line {k + 3}: duplicate dart {dart}")


def test_parse_peak_memory_stays_below_500_bytes_per_dart(g1p):
    # the reader files each line's tokens, not the split line: C_2000 and
    # level-2 G1' peaked at 627 and 565 bytes per dart when it kept the lines
    rng = random.Random(35)
    level2 = refine_3x3(*refine_3x3(*g1p))[0]
    for G in (cycle_graph(2000), level2):
        text = relabelled(write_graph(G), rng)
        parse_graph(text)
        tracemalloc.start()
        try:
            parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * G.n_darts, (G.n_darts, peak)
