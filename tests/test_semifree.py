import random
import time
import tracemalloc
from itertools import combinations, islice

import pytest

from quadloc import semifree
from quadloc.errors import InputError
from quadloc.semifree import (
    CommutationGraph,
    GroupWord,
    abelianize,
    equal_words,
    face_label,
    format_word,
    is_identity,
    kneser_graph,
    medial_edge_label,
    parse_word_text,
    pair_name,
    reduce_word,
    verify_table,
    walk_label,
    x_pair,
)
from quadloc.surface_map import medial_graph
from hypothesis import given, settings, strategies as st
from oracles import (
    brute_kneser_edges,
    fixpoint_reduce,
    full_orbit_is_identity,
    orbit_is_identity,
    piling_is_identity,
    reference_kneser_graph,
    reference_pair_name,
    reference_parse_word_text,
    reference_walk_label,
    token_parse_word_text,
)


def test_kneser_graph_counts():
    H5 = kneser_graph(5)
    assert (len(H5.generators), len(H5.edges)) == (10, 15)  # Petersen
    H4 = kneser_graph(4)
    assert (len(H4.generators), len(H4.edges)) == (6, 3)  # perfect matching
    H6 = kneser_graph(6)
    assert (len(H6.generators), len(H6.edges)) == (15, 45)
    with pytest.raises(InputError):
        kneser_graph(3)


def test_x_pair_cases():
    assert len(x_pair(3, 3, 5)) == 0
    assert x_pair(1, 2, 5).letters == (("1.2", 1),)
    assert x_pair(2, 1, 5).letters == (("1.2", -1),)
    H = kneser_graph(5)
    for i in range(1, 6):
        for j in range(1, 6):
            assert is_identity(x_pair(i, j, 5, H) * x_pair(j, i, 5, H))
    with pytest.raises(InputError):
        x_pair(0, 2, 5)
    with pytest.raises(InputError, match="^words over different commutation graphs$"):
        x_pair(1, 2, 5, H) * x_pair(1, 2, 4, kneser_graph(4))


def test_reduce_simple_cancellation():
    H = kneser_graph(4)
    w = GroupWord(H, (("1.2", 1), ("1.2", -1)))
    assert len(reduce_word(w)) == 0
    # a separating commuting letter
    w2 = GroupWord(H, (("1.2", 1), ("3.4", 1), ("1.2", -1)))
    assert reduce_word(w2).letters == (("3.4", 1),)
    # a separating non-commuting letter blocks the cancellation
    w3 = GroupWord(H, (("1.2", 1), ("1.3", 1), ("1.2", -1)))
    assert len(reduce_word(w3)) == 3


def test_equation_xij_xjk_collapses_when_two_colors():
    # x_{i,j} x_{j,k} = x_{i,k} whenever |{i,j,k}| <= 2, exhaustively
    for m in range(4, 7):
        H = kneser_graph(m)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    if len({i, j, k}) <= 2:
                        prod = x_pair(i, j, m, H) * x_pair(j, k, m, H) * x_pair(k, i, m, H)
                        assert is_identity(prod)


def test_table1_passes():
    rep = verify_table(1)
    assert rep.passed
    assert any("reduced length 8" in line for line in rep.lines)
    assert any("nine generators used: True" in line for line in rep.lines)


def test_table2_passes_with_flagged_repair():
    rep = verify_table(2)
    assert rep.passed
    assert any("-1.5" in line for line in rep.lines)
    with pytest.raises(InputError, match="^table must be 1 or 2$"):
        verify_table(3)


def test_table1_mutation_fails(monkeypatch):
    zs = list(semifree.TABLE1_ELEMENTS)
    zs[2] = ""
    monkeypatch.setattr(semifree, "TABLE1_ELEMENTS", tuple(zs))
    assert not verify_table(1).passed


def test_walk_label_nine_cycle_word():
    w = walk_label([2, 1, 2, 3, 1, 3, 4, 1, 4], 4)
    assert not is_identity(w)
    assert abelianize(w) == {}


def test_walk_label_rejects_improper():
    with pytest.raises(InputError, match="^consecutive walk colors must differ$"):
        walk_label([1, 1, 2], 3)
    with pytest.raises(InputError, match="^consecutive walk colors must differ$"):
        walk_label([1, 2, 1], 3)  # wraparound: last equals first
    with pytest.raises(InputError, match="^walk needs at least one vertex$"):
        walk_label([], 4)


def test_two_colored_even_walks_are_identity():
    H = kneser_graph(5)
    for t in (2, 4, 6, 8):
        colors = [1 if i % 2 == 0 else 2 for i in range(t)]
        assert is_identity(walk_label(colors, 5, H))


def test_odd_proper_walks_never_identity():
    rng = random.Random(32)
    H = kneser_graph(6)
    trials = 0
    while trials < 100:
        t = rng.choice([3, 5, 7, 9])
        colors = [rng.randint(1, 6)]
        while len(colors) < t:
            nxt = rng.randint(1, 6)
            if nxt != colors[-1]:
                colors.append(nxt)
        if colors[-1] == colors[0]:
            continue
        trials += 1
        assert not is_identity(walk_label(colors, 6, H))


def test_abelianize_units():
    H = kneser_graph(4)
    assert abelianize(GroupWord(H, (("1.2", 1),))) == {"1.2": 1}
    assert abelianize(GroupWord(H, (("1.2", 1), ("3.4", -1), ("1.2", 1)))) == {"1.2": 2, "3.4": -1}


def test_group_axioms_on_random_words():
    rng = random.Random(5)
    H = kneser_graph(5)
    gens = list(H.generators)
    for _ in range(60):
        letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        w = GroupWord(H, tuple(letters))
        assert is_identity(w * w.inverse())
        red = reduce_word(w)
        assert reduce_word(red).letters == red.letters  # idempotent
    for _ in range(30):
        u = GroupWord(H, tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(4)))
        v = GroupWord(H, tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(4)))
        if is_identity(u) and is_identity(v):
            assert is_identity(u * v)
        assert is_identity((u * v) * (u * v).inverse())


def _random_commutation_graph(rng, n):
    gens = tuple(f"g{i}" for i in range(n))
    edges = set()
    p = rng.random()
    for a, b in combinations(gens, 2):
        if rng.random() < p:
            edges.add(frozenset((a, b)))
    return CommutationGraph(gens, frozenset(edges))


def _sampled_cases():
    """1,500 seeded (commutation graph, word) pairs of 1-10 letters."""
    rng = random.Random(110)
    for _ in range(1500):
        n = rng.randint(2, 8)
        H = _random_commutation_graph(rng, n)
        L = rng.randint(1, 10)
        yield H, tuple((rng.choice(H.generators), rng.choice((1, -1))) for _ in range(L))


def test_reduce_agrees_with_orbit_oracle_sampled():
    for H, letters in _sampled_cases():
        got = is_identity(GroupWord(H, letters))
        want = orbit_is_identity(letters, H.commutes)
        assert got == want, (H.edges, letters)


def test_orbit_oracle_shortcut_agrees_with_the_full_orbit():
    answers = set()
    for H, letters in islice(_sampled_cases(), 150):
        fast = orbit_is_identity(letters, H.commutes)
        assert fast == full_orbit_is_identity(letters, H.commutes), (H.edges, letters)
        answers.add(fast)
    assert answers == {True, False}


def test_torsion_free_at_short_lengths():
    rng = random.Random(77)
    H = kneser_graph(6)
    gens = list(H.generators)
    checked = 0
    while checked < 200:
        letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))]
        w = reduce_word(GroupWord(H, tuple(letters)))
        if len(w) == 0:
            continue
        checked += 1
        assert not is_identity(w * w)


def test_equal_words_via_quotient():
    H = kneser_graph(4)
    u = GroupWord(H, (("1.2", 1), ("3.4", 1)))
    v = GroupWord(H, (("3.4", 1), ("1.2", 1)))
    assert equal_words(u, v)
    assert not equal_words(u, GroupWord(H, (("1.2", 1),)))


def test_word_file_round_trip():
    w = walk_label([2, 1, 2, 3, 1, 3, 4, 1, 4], 4)
    text = format_word(w, 4)
    w2, m = parse_word_text(text)
    assert m == 4 and w2.letters == w.letters
    with pytest.raises(InputError):
        parse_word_text("words 4 2\n1.2\n")


def test_medial_face_labels_reduce_to_identity(g0p, g1p):
    for G, c in (g0p, g1p):
        M, tags = medial_graph(G)
        H = kneser_graph(c.m)
        for f in M.faces:
            assert is_identity(face_label(G, c, f, H))


def test_face_label_checks_the_coloring_once(g1p, monkeypatch):
    G, c = g1p
    M, _ = medial_graph(G)
    H = kneser_graph(c.m)
    face = max(M.faces, key=len)
    expected = GroupWord(H, ())
    for md in face.tails:
        expected = expected * medial_edge_label(G, c, md, H)
    calls = []
    real = semifree.coloring_violation
    monkeypatch.setattr(semifree, "coloring_violation", lambda *a: calls.append(a) or real(*a))
    assert face_label(G, c, face, H).letters == expected.letters
    assert len(face) > 1 and len(calls) == 1


def test_medial_edge_label_reversal_inverts(g1p):
    G, c = g1p
    H = kneser_graph(c.m)
    for d in range(0, 40, 7):
        fwd = medial_edge_label(G, c, 2 * d, H)
        rev = medial_edge_label(G, c, 2 * d + 1, H)
        assert is_identity(fwd * rev)


def test_labels_require_local_three(k4p):
    G, c = k4p  # the proper 4-coloring shows three colors in every neighborhood
    with pytest.raises(InputError, match=r"^labels need a local 3-coloring, got violation \('vertex', '1'\)$"):
        medial_edge_label(G, c, 0)


def _graph_of_density(rng, n, p):
    gens = tuple(f"g{i}" for i in range(n))
    return CommutationGraph(gens, frozenset(
        frozenset(pair) for pair in combinations(gens, 2) if rng.random() < p))


def _random_letters(rng, gens, n, mirrored):
    letters = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(n))
    if mirrored:  # u * u^-1, the identity by construction
        letters = letters[: (n + 1) // 2]
        letters += tuple((g, -e) for g, e in reversed(letters))
    return letters


@pytest.mark.parametrize("density", ["free", "abelian", "random"])
def test_reduce_matches_fixpoint_letter_for_letter(density):
    rng = random.Random(f"reduce-{density}")
    for case in range(1500):
        n = rng.randint(1, 7)
        p = {"free": 0.0, "abelian": 1.0, "random": rng.random()}[density]
        H = _graph_of_density(rng, n, p)
        letters = _random_letters(rng, H.generators, rng.randint(0, 80), case % 2 == 1)
        got = reduce_word(GroupWord(H, letters)).letters
        assert got == fixpoint_reduce(letters, H.commutes), (H.edges, letters)
        assert (len(got) == 0) == piling_is_identity(letters, H.commutes)


@st.composite
def graph_and_letters(draw):
    n = draw(st.integers(1, 6))
    gens = tuple(f"g{i}" for i in range(n))
    pairs = list(combinations(gens, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    H = CommutationGraph(gens, frozenset(frozenset(e) for e, k in zip(pairs, keep) if k))
    letters = draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                            max_size=40))
    if draw(st.booleans()):
        letters = letters + [(g, -e) for g, e in reversed(letters)]
    return H, tuple(letters)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(graph_and_letters())
def test_reduce_matches_fixpoint_property(case):
    H, letters = case
    red = reduce_word(GroupWord(H, letters))
    assert red.letters == fixpoint_reduce(letters, H.commutes)
    assert reduce_word(red).letters == red.letters
    assert is_identity(GroupWord(H, letters)) == piling_is_identity(letters, H.commutes)


WORD_TOKENS = st.one_of(
    st.builds("{}{}.{}".format, st.sampled_from(["", "-", "--"]), st.integers(-1, 9), st.integers(-1, 9)),
    st.text(alphabet="0123456789.-#kner", min_size=1, max_size=5),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.booleans(), st.sampled_from([-1, 0, 1, 2, 3, 5, 6, 9, 10 ** 6]),
       st.lists(WORD_TOKENS, max_size=12))
def test_word_parser_raises_only_input_errors_on_random_tokens(header, m, tokens):
    text = (f"kneser {m} 2\n" if header else "") + " ".join(tokens) + "\n"
    try:
        parse_word_text(text)
    except InputError:
        pass


def _induced_kneser(m, pairs):
    """KG(m, 2) induced on ``pairs`` (each ``(i, j)``, in either order), as
    the parser builds it for a word that uses exactly those pairs."""
    text = f"kneser {m} 2\n" + " ".join(f"{i}.{j}" for i, j in pairs) + "\n"
    return parse_word_text(text)[0].graph


def test_kneser_graph_matches_pair_of_pairs_oracle():
    rng = random.Random(19)
    for m in range(4, 10):
        H = kneser_graph(m)
        all_pairs = list(combinations(range(1, m + 1), 2))
        assert H.generators == tuple(pair_name(i, j) for i, j in all_pairs)
        assert set(H.edges) == brute_kneser_edges(m)
        for _ in range(20):
            pairs = rng.sample(all_pairs, rng.randint(0, len(all_pairs)))
            sub = _induced_kneser(m, pairs)
            names = {pair_name(i, j) for i, j in pairs}
            assert sub.generators == tuple(g for g in H.generators if g in names)
            assert set(sub.edges) == {e for e in brute_kneser_edges(m) if e <= names}


def _kneser_pair_subsets(rng):
    """(m, graph, pairs used): all of KG(m, 2) for m = 4..8, and the
    subgraphs the parser induces on seeded random pair subsets."""
    for m in range(4, 9):
        all_pairs = list(combinations(range(1, m + 1), 2))
        yield m, kneser_graph(m), all_pairs
        for _ in range(15):
            pairs = rng.sample(all_pairs, rng.randint(0, len(all_pairs)))
            yield m, _induced_kneser(m, pairs), pairs


def test_kneser_blockers_are_the_pairs_sharing_exactly_one_color():
    for m, H, used in _kneser_pair_subsets(random.Random(41)):
        assert set(H.blockers) == {pair_name(*p) for p in used}
        for p in used:
            want = {pair_name(*q) for q in used if len(set(p) & set(q)) == 1}
            assert H.blockers[pair_name(*p)] == want, (m, p)


def test_kneser_graph_equals_the_graph_built_from_brute_force_edges():
    for m, H, _ in _kneser_pair_subsets(random.Random(43)):
        names = set(H.generators)
        edges = frozenset(e for e in brute_kneser_edges(m) if e <= names)
        ref = CommutationGraph(H.generators, edges)
        assert H == ref and hash(H) == hash(ref)
        assert H.edges == ref.edges == edges
        assert H.blockers == ref.blockers
    assert _induced_kneser(5, [(2, 1), (1, 2), (3, 4)]) == _induced_kneser(5, [(1, 2), (3, 4)])
    H = kneser_graph(5)
    assert H != CommutationGraph(H.generators, H.edges - {frozenset(("1.2", "3.4"))})
    assert H != CommutationGraph(tuple(reversed(H.generators)), H.edges)
    with pytest.raises(InputError, match="^generator names must be unique$"):
        CommutationGraph(("1.2", "3.4", "1.2"), [])
    with pytest.raises(InputError, match="^commutation edges must join two distinct generators$"):
        CommutationGraph(("1.2", "3.4"), [frozenset(("1.2", "5.6"))])


def test_walk_label_through_400_colors_is_fast_and_small():
    # a graph that stored every commuting pair took 0.16-0.65 s and 34-36 MB
    def label_and_reduce():
        return reduce_word(walk_label(range(1, 401), 400))

    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        red = label_and_reduce()
        elapsed.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        assert label_and_reduce().letters == red.letters
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(red) == 400 and len(red.graph.generators) == 400
    assert min(elapsed) < 0.05, elapsed
    assert peak < 2 * 2 ** 20, peak


def test_parsed_word_reduces_as_over_the_full_kneser_graph():
    rng = random.Random(23)
    for m in (4, 5, 6, 9):
        H = kneser_graph(m)
        for case in range(150):
            letters = _random_letters(rng, H.generators, rng.randint(0, 30), case % 2 == 1)
            w, m2 = parse_word_text(format_word(GroupWord(H, letters), m))
            assert m2 == m and w.letters == letters
            assert set(w.graph.generators) == {g for g, _ in letters}
            assert reduce_word(w).letters == reduce_word(GroupWord(H, letters)).letters


def test_walk_label_on_used_colors_matches_full_kneser_graph():
    rng = random.Random(29)
    for m in (4, 6, 8):
        H = kneser_graph(m)
        for _ in range(60):
            t = rng.randint(2, 20)
            cols = [rng.randint(1, m)]
            while len(cols) < t or cols[-1] == cols[0]:
                cols.append(rng.choice([x for x in range(1, m + 1) if x != cols[-1]]))
            own, full = walk_label(cols, m), walk_label(cols, m, H)
            assert own.letters == full.letters
            assert set(own.graph.generators) == {g for g, _ in own.letters}
            assert reduce_word(own).letters == reduce_word(full).letters


def test_invalid_letters_rejected_on_used_colors():
    for text in ("kneser 6 2\n1.2 1.1\n", "kneser 6 2\n1.2 1.7\n", "kneser 6 2\n0.3\n"):
        with pytest.raises(InputError, match=r"^invalid letter \("):
            parse_word_text(text)
    with pytest.raises(InputError, match="colors must lie in 1..4"):
        walk_label([1, 2, 5, 2], 4)
    with pytest.raises(InputError, match=r"^kneser m 2 needs m >= 4, got m = 3$"):
        parse_word_text("kneser 3 2\n1.2\n")


def _random_word_text(rng):
    """A word file with a seeded mix of good and bad headers, comments,
    repeated tokens, signs, i.i letters, colors out of range and malformed
    tokens; about half the files draw up to three odd tokens."""
    m = rng.choice([4, 5, 6, 6, 6, 9, 12])
    header = rng.choice([f"kneser {m} 2"] * 12 + [
        "kneser 3 2", "kneser x 2", f"kneser {m} 3", f"words {m} 2", f"kneser {m}", "",
        f"kneser +{m} 2", f"kneser {m}.0 2"])
    pool = []
    for _ in range(rng.randint(1, 12)):
        i, j = rng.sample(range(1, m + 1), 2)
        pool.append(rng.choice(["", "-"]) + f"{i}.{j}")
    odd = [f"{i}.{i}" for i in range(1, 3)] + ["0.3", f"1.{m + 1}", "-0.2", "--1.2", "+1.2",
           "01.2", "1.2.3", "x", "1.", ".2", "1-2", "1.x", "-", "1._2", "1.2#3"]
    if rng.random() < 0.5:
        pool += rng.sample(odd, rng.randint(1, 3))
    body = [rng.choice(pool) for _ in range(rng.randint(0, 40))]
    out, line = [header], []
    for tok in body:
        line.append(tok)
        if rng.random() < 0.15:
            out.append(rng.choice([" ", "\t", "  "]).join(line) + rng.choice(["", " # note", "#1.2 x"]))
            line = []
    out.append(" ".join(line))
    if rng.random() < 0.2:
        out.insert(rng.randrange(len(out) + 1), "# a comment line")
    return rng.choice(["\n", "\r\n", "\n\x0b"]).join(out) + rng.choice(["", "\n"])


def _word_outcome(build, *args):
    """The letters, ``m``, generators and blockers of the word a parser or
    walk label builds, or the kind and message of the error it raises."""
    try:
        out = build(*args)
    except InputError as exc:
        return "error", type(exc), str(exc)
    w, m = out if isinstance(out, tuple) else (out, None)
    return "word", w.letters, m, w.graph.generators, w.graph.blockers


PARSE_ERRORS = ("word file needs a 'kneser m 2' header", "bad kneser parameter",
                "kneser m 2 needs m >= 4", "bad word token", "invalid letter")


def test_parse_matches_token_by_token_oracle():
    rng = random.Random(61)
    kinds = set()
    for _ in range(4000):
        text = _random_word_text(rng)
        got = _word_outcome(parse_word_text, text)
        assert got == _word_outcome(token_parse_word_text, text), text
        kinds.add("word" if got[0] == "word" else next(p for p in PARSE_ERRORS if got[2].startswith(p)))
    assert kinds == {"word", *PARSE_ERRORS}  # every outcome is drawn


def test_parse_matches_the_reference_parser():
    rng = random.Random(67)
    kinds = set()
    for _ in range(3000):
        text = _random_word_text(rng)
        got = _word_outcome(parse_word_text, text)
        assert got == _word_outcome(reference_parse_word_text, text), text
        kinds.add("word" if got[0] == "word" else next(p for p in PARSE_ERRORS if got[2].startswith(p)))
    assert kinds == {"word", *PARSE_ERRORS}  # every outcome is drawn


def test_walk_labels_and_tables_match_the_reference_path(monkeypatch):
    rng = random.Random(71)
    kinds = set()
    for _ in range(1500):
        m = rng.choice([3, 4, 5, 6, 9])
        cols = [rng.randint(0 if rng.random() < 0.1 else 1, m + (rng.random() < 0.1))
                for _ in range(rng.randint(0, 14))]
        got = _word_outcome(walk_label, cols, m)
        assert got == _word_outcome(reference_walk_label, cols, m), (cols, m)
        kinds.add(got[0] if got[0] == "word" else got[2])
        if got[0] == "word":
            assert walk_label(cols, m, kneser_graph(m)).letters == got[1]
    assert kinds >= {"word", "walk needs at least one vertex", "consecutive walk colors must differ",
                     "kneser m 2 needs m >= 4, got m = 3", "colors must lie in 1..6"}
    for m in range(4, 10):
        assert kneser_graph(m).blockers == reference_kneser_graph(m).blockers
    tables = [verify_table(which).text() for which in (1, 2)]
    monkeypatch.setattr(semifree, "kneser_graph", reference_kneser_graph)
    monkeypatch.setattr(semifree, "pair_name", reference_pair_name)
    assert tables == [verify_table(which).text() for which in (1, 2)]


def test_word_layer_names_pairs_in_one_pass_and_builds_blockers_once(monkeypatch):
    # each pair is named in the pass over the tokens or the steps, and one
    # build turns those names into blockers, without kneser_graph
    calls = []
    build = semifree._kneser_of
    monkeypatch.setattr(semifree, "_kneser_of", lambda names: calls.append(dict(names)) or build(names))
    monkeypatch.setattr(semifree, "kneser_graph", lambda *a: pytest.fail("kneser_graph called"))
    w, _ = parse_word_text("kneser 6 2\n1.2 -2.1 3.4 1.2 -5.6 4.3 # 1.5\n2.1 -3.4\n")
    assert calls == [{(1, 2): "1.2", (3, 4): "3.4", (5, 6): "5.6"}]
    assert w.graph.generators == ("1.2", "3.4", "5.6")
    calls.clear()
    with pytest.raises(InputError, match=r"^invalid letter \('1.1', 1\)$"):
        parse_word_text("kneser 6 2\n2.1 1.1 1.7 -1.2\n")
    assert calls == [{(1, 2): "1.2"}]   # letters GroupWord rejects get no blockers
    calls.clear()
    w = walk_label([1, 2, 3, 1, 2, 4], 6)   # steps 4.2 1.3 2.1 3.2 1.4 2.1
    assert calls == [{(2, 4): "2.4", (1, 3): "1.3", (1, 2): "1.2", (2, 3): "2.3", (1, 4): "1.4"}]
    assert w.graph.generators == ("1.2", "1.3", "1.4", "2.3", "2.4")


def _long_case(rng, kind):
    """A graph of the given kind and a word of about 40-600 letters over it, built
    so that many scans run deep: long stretches of letters that commute with
    one another or repeat, half of them followed by inverses."""
    if kind == "kg62":
        H = kneser_graph(6)
        # 1.2, 3.4 and 5.6 commute with one another
        stretch = rng.choice([("1.2", "3.4", "5.6"), ("1.3", "2.4"), ("1.2",)])
    else:
        n = rng.randint(1, 8)
        p = {"free": 0.0, "abelian": 1.0, "near-complete": rng.uniform(0.75, 0.97)}[kind]
        H = _graph_of_density(rng, n, p)
        stretch = (rng.choice(H.generators),) if kind == "free" else H.generators
    letters = []
    while len(letters) < rng.randint(40, 320):
        if rng.random() < 0.5:
            sign = rng.choice((1, -1))
            letters += [(rng.choice(stretch), sign) for _ in range(rng.randint(10, 120))]
        else:
            letters += _random_letters(rng, H.generators, rng.randint(1, 12), False)
    if rng.random() < 0.5:
        letters += [(g, -e) for g, e in reversed(letters[rng.randrange(len(letters)):])]
    return H, tuple(letters)


@pytest.mark.parametrize("kind", ["free", "abelian", "near-complete", "kg62"])
def test_long_words_match_fixpoint(kind):
    rng = random.Random(f"long-{kind}")
    for _ in range(150):
        H, letters = _long_case(rng, kind)
        got = reduce_word(GroupWord(H, letters)).letters
        assert got == fixpoint_reduce(letters, H.commutes), (H.edges, letters)


def test_x_pair_without_graph_builds_only_its_colors():
    # a small m first, so that a full build fails here instead of running for minutes
    assert x_pair(1, 2, 30).graph.generators == ("1.2",)
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        w = x_pair(1, 2, 200)
        elapsed.append(time.perf_counter() - t0)
    assert w.letters == (("1.2", 1),) and w.graph.generators == ("1.2",)
    assert min(elapsed) < 0.01, elapsed  # all of KG(200, 2) has about 1.9e8 edges
    assert x_pair(7, 7, 200).graph.generators == ()
    with pytest.raises(InputError, match="colors must lie in 1..200"):
        x_pair(1, 201, 200)


def test_labels_without_graph_match_the_full_kneser_graph(g0p, g1p):
    for G, c in (g0p, g1p):
        M, _ = medial_graph(G)
        H = kneser_graph(c.m)
        for f in M.faces:
            own = face_label(G, c, f)
            assert own.letters == face_label(G, c, f, H).letters
            assert set(own.graph.generators) == {g for g, _ in own.letters}
        for md in range(2 * G.n_darts):
            own = medial_edge_label(G, c, md)
            assert own.letters == medial_edge_label(G, c, md, H).letters
            assert set(own.graph.generators) == {g for g, _ in own.letters}
