import gzip
import hashlib
import io
import random
import re
import struct
import tempfile
from bisect import bisect_left, bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from specwalk.cli import main
from specwalk.graph import (RDF_TYPE, GraphBuilder, GraphError,
                            UnknownTermError, hashed_state, hashed_uniforms,
                            read_snapshot, write_snapshot)
from specwalk import ntriples
from specwalk.ntriples import (_LINE_RE, ParseError, ParseReport, load_graph,
                               parse_ntriples, serialize_ntriples)
from specwalk.walks import (WalkStrategy, _cumulative, extract_corpus,
                            weighted_pick)

from conftest import (EX, N_NODES, PREDICATES, TYPE_T, build, scan_pick,
                      small_edges, small_graph, small_graphs,
                      v1_snapshot_bytes, v2_snapshot_bytes)


TOP_UNIFORM = 1.0 - 2.0 ** -53  # the largest value hashed_uniforms returns


def scan_path(g, v, predicates, u, weights=None):
    """Reference sampler: scan v's out-edges for the step's predicate (all of
    them for None) and take matches[floor(u[k] * len(matches))], or, with
    per-edge weights, scan_pick's index among the matches; the out-edge
    indices taken, -1 from a dead end on."""
    edges = []
    for pred, uk in zip(predicates, u):
        matches = [(g.out_ptr[v] + i, o)
                   for i, (p, o) in enumerate(g.out_adj[v])
                   if pred is None or p == pred] if v >= 0 else []
        if weights is None:
            i = int(uk * len(matches)) if matches else None
        else:
            i = scan_pick([weights[e] for e, _ in matches], uk)
        e, v = matches[i] if i is not None else (-1, -1)
        edges.append(int(e))
    return edges


def splitmix_reference(seed, *counters):
    """hashed_uniforms for one draw, in Python integers: SplitMix64 of the
    state xor each counter in turn, starting from seed mod 2**64."""
    mask = (1 << 64) - 1
    x = seed & mask
    for c in counters:
        x = ((x ^ c) + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        x ^= x >> 31
    return (x >> 11) * 2.0 ** -53


def parse(text, **kw):
    return parse_ntriples(io.StringIO(text), **kw)


class TestParsing:
    def test_single_well_formed_line(self):
        g = parse("<http://x/s> <http://x/p> <http://x/o> .\n")
        assert g.n_triples == 1
        assert g.report.parsed == 1
        for term in ("http://x/s", "http://x/p", "http://x/o"):
            assert not g.literal[g.term_id(term)]

    def test_typed_literal_object(self):
        lit = '"1989"^^<http://www.w3.org/2001/XMLSchema#integer>'
        g = parse(f"<http://x/s> <http://x/p> {lit} .\n")
        assert g.n_triples == 1
        assert g.literal[g.term_id(lit)]

    def test_language_tagged_literal(self):
        g = parse('<http://x/s> <http://x/p> "chat"@fr .\n')
        assert g.literal[g.term_id('"chat"@fr')]

    def test_blank_nodes_interned_by_label(self):
        g = parse("_:a <http://x/p> _:b .\n_:a <http://x/q> _:b .\n")
        assert g.n_triples == 2
        assert g.term_id("_:a") == g.term_id("_:a")

    def test_lenient_mode_skips_bad_line(self):
        lines = [
            "<http://x/s1> <http://x/p> <http://x/o> .",
            "<http://x/s2> <http://x/p> <http://x/o> .",
            "<http://x/s3> <http://x/p> <http://x/o>",  # missing terminator
            "<http://x/s4> <http://x/p> <http://x/o> .",
            "<http://x/s5> <http://x/p> <http://x/o> .",
        ]
        g = parse("\n".join(lines) + "\n")
        assert g.n_triples == 4
        assert g.report.skipped == 1
        assert g.report.errors[0][0] == 3

    def test_strict_mode_aborts_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("<http://x/s> <http://x/p> <http://x/o> .\nbroken\n",
                  strict=True)

    @pytest.mark.parametrize("line", ["<_:b> <http://x/p> <http://x/o> .",
                                      "<http://x/s> <_:p> <http://x/o> .",
                                      "<http://x/s> <http://x/p> <_:b> ."])
    def test_iri_cannot_pass_for_a_blank_node(self, line):
        # the IRI <_:b> would intern as the blank node _:b
        text = ("<http://x/a> <http://x/q> _:b .\n"
                "<http://x/a> <http://x/q> <http://x/c> .\n" + line + "\n")
        g = parse(text)
        assert (g.n_triples, g.report.skipped) == (2, 1)
        assert g.report.errors == [(3, line)]
        with pytest.raises(ParseError, match="line 3"):
            parse(text, strict=True)

    def test_comments_and_blanks_ignored(self):
        g = parse("# header\n\n<http://x/s> <http://x/p> <http://x/o> .\n")
        assert g.n_triples == 1
        assert g.report.skipped == 0

    def test_duplicate_lines_deduplicated(self):
        line = "<http://x/s> <http://x/p> <http://x/o> .\n"
        g = parse(line * 3)
        assert g.n_triples == 1
        assert g.report.parsed == 3


def _reference_parse_ntriples(lines, strict=False, rdf_type=RDF_TYPE):
    """The per-line parser: strip each line, pass over blanks and comments,
    match the rest and add each triple to a GraphBuilder."""
    builder = GraphBuilder(rdf_type=rdf_type)
    report = ParseReport()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            if strict:
                raise ParseError(
                    f"malformed N-Triples at line {lineno}: {line!r}")
            report.skipped += 1
            report.errors.append((lineno, line))
            continue
        s_iri, s_bnode, pred, o_iri, o_bnode, o_lit = m.groups()
        builder.add(s_iri or s_bnode, pred, o_iri or o_bnode or o_lit)
        report.parsed += 1
    graph = builder.build()
    graph.report = report
    return graph


def assert_parses_like_reference(lines, strict=False):
    """parse_ntriples at BLOCK_LINES, 1 and 3 lines a block gives the
    reference's terms, triple arrays and report, or its
    ParseError message."""
    try:
        want, error = _reference_parse_ntriples(lines, strict), None
    except ParseError as exc:
        want, error = None, str(exc)
    for block_lines in (ntriples.BLOCK_LINES, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ntriples, "BLOCK_LINES", block_lines)
            if error is not None:
                with pytest.raises(ParseError) as exc:
                    parse_ntriples(iter(lines), strict)
                assert str(exc.value) == error
                continue
            got = parse_ntriples(iter(lines), strict)
        assert got.terms == want.terms
        for name in ("out_src", "out_pred", "out_obj"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.report == want.report


_LINE_IRIS = ["<http://x/a>", "<http://x/a/b>", "<#c>", "<http://x/p>"]
_LINE_BNODES = ["_:b", "_:b1", "_:b1.x"]
_LINE_LITERALS = st.builds(
    lambda body, suffix: f'"{body}"{suffix}',
    st.lists(st.sampled_from(["x", " ", "\t", "é", '\\"', "\\\\",
                              "\\n", "#"]), max_size=4).map("".join),
    st.sampled_from(["", "@en", "@en-US", "^^<http://x/int>"]))
_GAP = st.sampled_from([" ", "\t", " \t "])
_EDGE = st.sampled_from(["", " ", "\t", "  "])
_TRIPLE_LINES = st.builds(
    lambda lead, s, g1, p, g2, o, g3, tail: f"{lead}{s}{g1}{p}{g2}{o}{g3}.{tail}",
    _EDGE, st.sampled_from(_LINE_IRIS + _LINE_BNODES), _GAP,
    st.sampled_from(_LINE_IRIS), _GAP,
    st.one_of(st.sampled_from(_LINE_IRIS + _LINE_BNODES), _LINE_LITERALS),
    _EDGE, st.sampled_from(["", " ", "\t", " # note", "#x"]))
_OTHER_LINES = st.builds(
    lambda lead, body, tail: lead + body + tail, _EDGE, st.sampled_from([
        "", "# comment", "#", "broken", "<http://x/a> <http://x/p> <http://x/b>",
        '"x" <http://x/p> <http://x/b> .', "<_:b> <http://x/p> <http://x/b> .",
        '<"a"> <http://x/p> <http://x/b> .', "<> <http://x/p> <http://x/b> .",
        "<http://x/a> _:b <http://x/b> .", '<http://x/a> <http://x/p> "x .',
        "<http://x/a> <http://x/p> <http://x/b> . extra"]), _EDGE)
# lines drawn from a pool of up to six, so that triples repeat; the last
# line may lack its newline
_NT_LINES = st.builds(
    lambda lines, cut: lines[:-1] + [lines[-1].rstrip("\r\n")]
    if lines and cut else lines,
    st.lists(st.tuples(st.one_of(_TRIPLE_LINES, _TRIPLE_LINES, _OTHER_LINES),
                       st.sampled_from(["\n", "\r\n"])).map("".join),
             min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=14)),
    st.booleans())


# plain lines "<s> <p> <o> .\n" (which the byte check accepts) and lines one
# edit away from plain: one character inserted, replaced or deleted
_PLAIN_BODIES = ["http://x/a", "a", "#c", "_", "_b", ":b", "a.b"]
_PLAIN_LINES = st.builds("<{}> <{}> <{}> .\n".format,
                         *[st.sampled_from(_PLAIN_BODIES)] * 3)
_EDIT_CHARS = st.sampled_from([
    " ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\xa0",
    "\u2028", "\x00", "<", ">", '"', "_", ":", ".", "#", "\u00e9", "\n"])


@st.composite
def _near_plain_lines(draw):
    line = draw(_PLAIN_LINES)
    edit = draw(st.sampled_from(["insert", "replace", "delete"]))
    i = draw(st.integers(0, len(line) - (edit != "insert")))
    c = "" if edit == "delete" else draw(_EDIT_CHARS)
    return line[:i] + c + line[i + (edit != "insert"):]


# items that are not one line each: two lines in one item, or a line
# without its newline in mid-block
_NOT_LINE_ITEMS = st.one_of(
    st.builds(str.__add__, _PLAIN_LINES, _PLAIN_LINES),
    _PLAIN_LINES.map(lambda line: line[:-1]))
_NEAR_PLAIN = st.builds(
    lambda lines, cut: lines[:-1] + [lines[-1][:-1]] if lines and cut
    else lines,
    st.lists(st.one_of(_PLAIN_LINES, _PLAIN_LINES, _PLAIN_LINES,
                       _near_plain_lines(), _NOT_LINE_ITEMS), max_size=10),
    st.booleans())


class _CountingLineRe:
    """Stands in for ntriples._LINE_RE and counts its match calls."""

    def __init__(self):
        self.calls = 0

    def match(self, line):
        self.calls += 1
        return _LINE_RE.match(line)


class TestBlockParse:
    @settings(max_examples=300, deadline=None)
    @given(lines=_NT_LINES, strict=st.booleans())
    def test_matches_reference_parser(self, lines, strict):
        assert_parses_like_reference(lines, strict)

    @settings(max_examples=500, deadline=None)
    @given(lines=_NEAR_PLAIN, strict=st.booleans())
    @example(lines=["<a> <p> <b> .\n", "<b> <p> <c> ."], strict=False)
    @example(lines=["<a> <p> <b> .\n<b> <p> <c> .\n"], strict=True)
    @example(lines=["<a> <p> <b> .", "<b> <p> <c> .\n"], strict=False)
    @example(lines=["<a> <p> <_:b> .\n"], strict=False)
    @example(lines=["<a> <p> <\x85> .\n"], strict=False)
    @example(lines=["<a> <p> <b> .\x00", "<b> <p> <c> .\n"], strict=False)
    @example(lines=["<a> <p> <b> x\n", '<a> <p> <b"> .\n'], strict=False)
    @example(lines=["<a> <p> <b\tc> .\n", "<> <p> <b> .\n"], strict=False)
    @example(lines=["<a> <p> <b> .\n<b> <p> <c> .", "\n"], strict=False)
    def test_near_plain_lines_match_reference_parser(self, lines, strict):
        assert_parses_like_reference(lines, strict)

    def test_plain_file_without_final_newline(self, tmp_path):
        path = tmp_path / "g.nt"
        path.write_text("".join(f"<http://x/s{i}> <http://x/p> <http://x/o> .\n"
                                for i in range(7)).rstrip("\n"))
        with open(path, encoding="utf-8") as f:
            lines = list(f)
        assert not lines[-1].endswith("\n")
        for strict in (False, True):
            assert_parses_like_reference(lines, strict)
        assert load_graph(str(path)).n_triples == 7

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 4097])
    def test_plain_lines_split_in_runs(self, monkeypatch, n):
        lines = [f"<http://x/s{i % 70}> <http://x/p{i % 3}> <http://x/o{i}> .\n"
                 for i in range(n)]
        counting = _CountingLineRe()
        monkeypatch.setattr(ntriples, "_LINE_RE", counting)
        assert_parses_like_reference(lines)
        assert counting.calls == 0

    @pytest.mark.parametrize("make", ["franchise", "layered"])
    def test_serialized_graphs_never_reach_the_regex(self, monkeypatch,
                                                     request, make):
        g, _ = request.getfixturevalue(make)
        out = io.StringIO()
        serialize_ntriples(g, out)
        lines = out.getvalue().splitlines(keepends=True)
        counting = _CountingLineRe()
        monkeypatch.setattr(ntriples, "_LINE_RE", counting)
        got = parse_ntriples(lines)
        assert counting.calls == 0
        assert got.checksum() == g.checksum()
        # one literal sends its block, and only its block, to the regex
        monkeypatch.setattr(ntriples, "BLOCK_LINES", 100)
        lines[150] = '<http://x/a> <http://x/p> "x" .\n'
        parse_ntriples(lines)
        assert counting.calls == 100

    def test_malformed_line_in_second_block(self, monkeypatch):
        lines = [f"<http://x/s{i}> <http://x/p> <http://x/o> .\n"
                 for i in range(6)]
        lines[4] = "<http://x/s4> <http://x/p>\n"
        monkeypatch.setattr(ntriples, "BLOCK_LINES", 3)
        g = parse_ntriples(lines)
        assert (g.report.parsed, g.n_triples) == (5, 5)
        assert g.report.errors == [(5, "<http://x/s4> <http://x/p>")]
        with pytest.raises(ParseError, match="line 5:"):
            parse_ntriples(lines, strict=True)
        assert_parses_like_reference(lines)
        assert_parses_like_reference(lines, strict=True)

    def test_repeat_spans_blocks(self, monkeypatch):
        lines = ["<http://x/a> <http://x/p> _:b .\n",
                 "_:b <http://x/p> <http://x/c> .\n",
                 "<http://x/c> <http://x/q> \"x\" .\n",
                 "<http://x/a> <http://x/p> _:b .\n"]
        monkeypatch.setattr(ntriples, "BLOCK_LINES", 3)
        g = parse_ntriples(lines)
        assert (g.report.parsed, g.n_triples) == (4, 3)
        assert g.terms == ["http://x/a", "http://x/p", "_:b", "http://x/c",
                           "http://x/q", '"x"']
        assert g.literal == [False] * 5 + [True]
        assert_parses_like_reference(lines)


class TestAdjacency:
    def test_out_neighbors_lists_all_edges(self):
        g = build([(EX + "v", EX + "p", EX + "a"), (EX + "v", EX + "q", EX + "b")])
        out = g.out_adj[g.term_id(EX + "v")]
        assert sorted(g.terms[p] for p, _ in out) == [EX + "p", EX + "q"]

    def test_literal_has_no_outgoing_edges(self):
        g = build([(EX + "v", EX + "p", '"5"')])
        assert g.out_adj[g.term_id('"5"')] == []

    def test_unknown_id_distinct_from_empty(self):
        g = build([(EX + "v", EX + "p", EX + "a")])
        assert g.out_adj[g.term_id(EX + "a")] == []
        assert g.types_of(g.term_id(EX + "a")) == frozenset()
        with pytest.raises(UnknownTermError):
            g.types_of(999)

    def test_numpy_integer_ids_accepted(self):
        g = build([(EX + "v", RDF_TYPE, TYPE_T),
                   (EX + "v", EX + "p", EX + "a")])
        v, t = g.term_id(EX + "v"), g.term_id(TYPE_T)
        for tid in (v, np.int64(v), np.int32(v), np.uint8(v)):
            assert g.types_of(tid) == {t}
            assert g.entities_of_type(np.int64(t)) == {v}
        strategy = WalkStrategy(depth=1, walks_per_entity=3)
        assert extract_corpus(g, np.array([v]), strategy, seed=1) == \
            extract_corpus(g, [v], strategy, seed=1)

    @pytest.mark.parametrize("tid", [True, False, 1.0, np.float64(1), "1",
                                     None, -1, np.int64(-1), np.int64(999),
                                     np.uint64(2 ** 63)])
    def test_invalid_ids_rejected(self, tid):
        g = build([(EX + "v", EX + "p", EX + "a")])
        with pytest.raises(UnknownTermError):
            g.types_of(tid)

    def test_duplicate_triple_collapses(self):
        line = "<http://x/v> <http://x/p> <http://x/o> .\n"
        g = parse(line + line)
        assert len(g.out_adj[g.term_id("http://x/v")]) == 1

    def test_in_neighbors_mirror(self):
        g = build([(EX + "a", EX + "p", EX + "v")])
        (p, s), = g.in_adj[g.term_id(EX + "v")]
        assert g.terms[s] == EX + "a"
        assert g.in_adj[g.term_id(EX + "a")] == []

    def test_in_neighbors_star_hub(self):
        g = build([(EX + f"s{i}", EX + "p", EX + "hub") for i in range(7)])
        assert len(g.in_adj[g.term_id(EX + "hub")]) == 7

    def test_round_trip_consistency_and_degree_sums(self):
        rng = random.Random(0)
        triples = {(EX + f"n{rng.randrange(30)}", EX + f"p{rng.randrange(4)}",
                    EX + f"n{rng.randrange(30)}") for _ in range(120)}
        g = build(sorted(triples))
        out_total = sum(len(g.out_adj[v]) for v in range(g.n_terms))
        in_total = sum(len(g.in_adj[v]) for v in range(g.n_terms))
        assert out_total == in_total == g.n_triples
        for s, p, o in g.triples:
            assert (p, o) in g.out_adj[s]
            assert (p, s) in g.in_adj[o]


class TestTypeIndex:
    def test_entities_of_type_counts(self):
        g = build([(EX + f"e{i}", RDF_TYPE, TYPE_T) for i in range(3)])
        assert len(g.entities_of_type(TYPE_T)) == 3

    def test_entity_with_two_types(self):
        g = build([(EX + "e", RDF_TYPE, EX + "T1"),
                   (EX + "e", RDF_TYPE, EX + "T2")])
        e = g.term_id(EX + "e")
        assert e in g.entities_of_type(EX + "T1")
        assert e in g.entities_of_type(EX + "T2")

    def test_unknown_type_empty(self):
        g = build([(EX + "e", RDF_TYPE, TYPE_T)])
        assert g.entities_of_type(EX + "Nope") == frozenset()

    def test_type_index_matches_brute_force(self, layered):
        g, _ = layered
        scan: dict[int, set[int]] = {}
        for s, p, o in g.triples:
            if p == g.rdf_type_id:
                scan.setdefault(o, set()).add(s)
        assert scan
        for t, members in scan.items():
            assert g.entities_of_type(t) == members

    def test_custom_rdf_type_predicate(self):
        g = build([(EX + "e", EX + "isa", TYPE_T)], rdf_type=EX + "isa")
        assert g.entities_of_type(TYPE_T) == {g.term_id(EX + "e")}


class TestTripleStore:
    @settings(max_examples=150, deadline=None)
    @given(edges=small_edges)
    def test_matches_builder_triples(self, edges):
        g = small_graph(edges)
        want = {(s, g.term_id(p), o) for s, p, o in edges}
        assert g.triples == want and want == g.triples
        assert len(g.triples) == g.n_triples == len(want)
        assert list(g.triples) == sorted(want)
        ids = range(-1, g.n_terms + 1)
        for s in ids:
            for p in range(g.n_terms):
                for o in ids:
                    assert ((s, p, o) in g.triples) == ((s, p, o) in want)
        rdf_type = g.rdf_type_id
        for v in range(g.n_terms):
            assert g.out_adj[v] == [(p, o) for s, p, o in sorted(want) if s == v]
            assert g.in_adj[v] == [(p, s) for s, p, o in sorted(want) if o == v]
            assert g.entities_of_type(v) == {
                s for s, p, o in want if p == rdf_type and o == v}
            assert g.types_of(v) == {
                o for s, p, o in want if p == rdf_type and s == v}


class TestSampling:
    def test_exhaustive_sample_returns_all(self):
        g = build([(EX + f"e{i}", RDF_TYPE, TYPE_T) for i in range(5)])
        got = g.sample_entities(TYPE_T, 5, seed=1)
        assert sorted(got) == sorted(g.entities_of_type(TYPE_T))

    def test_shortfall_returns_all(self):
        g = build([(EX + f"e{i}", RDF_TYPE, TYPE_T) for i in range(5)])
        assert len(g.sample_entities(TYPE_T, 10, seed=1)) == 5

    def test_deterministic_given_seed(self):
        g = build([(EX + f"e{i}", RDF_TYPE, TYPE_T) for i in range(50)])
        assert g.sample_entities(TYPE_T, 10, 42) == g.sample_entities(TYPE_T, 10, 42)
        assert g.sample_entities(TYPE_T, 10, 42) != g.sample_entities(TYPE_T, 10, 43)

    def test_zero_instances_error(self):
        g = build([(EX + "a", EX + "p", EX + "b")])
        with pytest.raises(GraphError):
            g.sample_entities(EX + "T", 1, seed=0)

    def test_uniformity_chi_square(self):
        n_pop, n_sample, reps = 10_000, 300, 1000
        b = GraphBuilder()
        for i in range(n_pop):
            b.add(EX + f"film{i}", RDF_TYPE, TYPE_T)
        g = b.build()
        counts = [0] * g.n_terms
        for rep in range(reps):
            picked = g.sample_entities(TYPE_T, n_sample, seed=rep)
            assert len(set(picked)) == n_sample
            for v in picked:
                counts[v] += 1
        members = sorted(g.entities_of_type(TYPE_T))
        observed = [counts[v] for v in members]
        _, p_value = stats.chisquare(observed)
        assert p_value > 0.01


class TestOutSlices:
    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(),
           pred=st.integers(0, N_NODES + len(PREDICATES) - 1),
           nodes=st.lists(st.integers(-1, N_NODES - 1), max_size=12))
    @example(g=small_graph([(0, PREDICATES[0], 1), (0, PREDICATES[0], 2),
                            (1, PREDICATES[1], 0)]),
             pred=N_NODES, nodes=[0, -1, 0, 1, -1, 1])
    @example(g=small_graph([(0, PREDICATES[0], 1)]), pred=N_NODES, nodes=[])
    def test_matches_bisect_reference(self, g, pred, nodes):
        # pred ranges over node ids too: predicates with no edges
        key = g.out_key.tolist()
        lo, hi = g.out_slices(np.array(nodes, dtype=np.int64), pred)
        assert lo.shape == hi.shape == (len(nodes),)
        want = [(bisect_left(key, v * g.n_terms + pred),
                 bisect_right(key, v * g.n_terms + pred)) for v in nodes]
        assert list(zip(lo.tolist(), hi.tolist())) == want
        for v, a, b in zip(nodes, lo.tolist(), hi.tolist()):
            assert sorted(g.out_obj[a:b].tolist()) == (
                sorted(o for p, o in g.out_adj[v] if p == pred)
                if v >= 0 else [])


class TestSamplePath:
    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           starts=st.lists(st.integers(0, N_NODES - 1), min_size=1,
                           max_size=8),
           depth=st.integers(0, 4),
           mode=st.sampled_from(["one id", "per row", "free"]),
           weighted=st.booleans())
    def test_matches_scanning_reference(self, g, data, starts, depth, mode,
                                        weighted):
        # step k reads predicates[k]: one id, a row of a (d, rows) matrix,
        # or, with predicates None, every out-edge of the current node
        names = st.lists(st.sampled_from(PREDICATES), min_size=depth,
                         max_size=depth)
        if mode == "one id":
            predicates = [g.term_id(p) for p in data.draw(names)]
            per_row = [predicates] * len(starts)
        elif mode == "per row":
            per_row = [[g.term_id(p) for p in data.draw(names)]
                       for _ in starts]
            predicates = np.array(per_row, dtype=np.int64).reshape(
                len(starts), depth).T
        else:
            predicates, per_row = None, [[None] * depth] * len(starts)
        u = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, 0.5, TOP_UNIFORM])
                     | st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53),
                     min_size=depth, max_size=depth),
            min_size=len(starts), max_size=len(starts)))).reshape(
                len(starts), depth)
        weights = pick = None
        if weighted:  # dyadic, zero included, so running sums are exact
            weights = data.draw(st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                min_size=g.n_triples, max_size=g.n_triples))
            cum, last = _cumulative(weights)

            def pick(lo, hi, u):
                return weighted_pick(cum, last, lo, hi, u)

        got = g.sample_paths(np.array(starts), u, predicates, pick)
        assert got.shape == (len(starts), depth)
        assert got.tolist() == [scan_path(g, v, preds, row, weights)
                                for v, preds, row in zip(starts, per_row, u)]

    def test_pick_rule_on_every_slice_width(self):
        # one node with w edges for predicate p{w}, w = 1..40, and a second
        # node after it whose edges a pick past a slice's end would read
        triples = [(EX + "s", EX + f"p{w:02d}", EX + f"o{w:02d}_{i:02d}")
                   for w in range(1, 41) for i in range(w)]
        g = build(triples + [(EX + "t", EX + "p01", EX + "x")])
        s = g.term_id(EX + "s")
        for w in range(1, 41):
            u = [i / w for i in range(w)] + [(i + 0.999) / w
                                             for i in range(w)] + [TOP_UNIFORM]
            got = g.sample_paths(np.full(len(u), s),
                                 np.array(u).reshape(-1, 1),
                                 [g.term_id(EX + f"p{w:02d}")])
            picked = [int(x * w) for x in u]
            assert picked[-1] == w - 1
            assert (got >= 0).all()
            assert g.out_obj[got[:, 0]].tolist() == [
                g.term_id(EX + f"o{w:02d}_{i:02d}") for i in picked]

    def test_follows_predicate_runs(self):
        g = build([(EX + "s", EX + "p", EX + "a"),
                   (EX + "s", EX + "q", EX + "b"),
                   (EX + "b", EX + "p", EX + "c")])
        ids = [g.term_id(EX + n) for n in ("s", "b", "c")]
        preds = [g.term_id(EX + "q"), g.term_id(EX + "p")]
        u = np.zeros((1, 2))
        edges = g.sample_paths([ids[0]], u, preds)
        assert g.out_obj[edges].tolist() == [ids[1:]]
        assert g.out_pred[edges].tolist() == [preds]
        edges = g.sample_paths([ids[0]], u, preds[::-1])
        assert edges[0, 1] == -1
        assert g.out_obj[edges[0, 0]] == g.term_id(EX + "a")
        assert g.sample_paths([ids[0]], u[:, :0], []).tolist() == [[]]
        nodes, paths = g.path_counts([ids[0], ids[0]], preds)
        assert nodes.tolist() == [ids[2]] and paths.tolist() == [2]

    def test_free_steps_and_weighted_pick(self):
        # with predicates None a step chooses among all of the current
        # node's out-edges; a pick of -1 ends the walk there
        g = build([(EX + "s", EX + "p", EX + "a"),
                   (EX + "s", EX + "q", EX + "b"),
                   (EX + "b", EX + "p", EX + "c")])
        s, a, b, c = (g.term_id(EX + n) for n in "sabc")
        u = np.array([[0.0, 0.0], [0.5, 0.0]])
        edges = g.sample_paths([s, s], u)
        assert g.out_obj[edges[0, 0]] == a and edges[0, 1] == -1
        assert g.out_obj[edges[1]].tolist() == [b, c]
        cum, last = _cumulative((g.out_obj != a).astype(float))
        edges = g.sample_paths([s, s], u, pick=lambda lo, hi, u:
                               weighted_pick(cum, last, lo, hi, u))
        assert g.out_obj[edges].tolist() == [[b, c], [b, c]]
        assert g.sample_paths([s], u[:1], pick=lambda lo, hi, u: np.full(
            len(lo), -1)).tolist() == [[-1, -1]]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.one_of(st.integers(-2 ** 70, -1),
                          st.integers(2 ** 64, 2 ** 70),
                          st.integers(0, 2 ** 64 - 1)),
           entity=st.integers(0, 2 ** 40), attempts=st.integers(1, 30),
           prefix=st.lists(st.integers(0, 2 ** 40), min_size=2, max_size=6))
    def test_hashed_uniforms_in_unit_interval(self, seed, entity, attempts,
                                              prefix):
        entities = np.array([entity, entity + 1])[:, None, None]
        u = hashed_uniforms(seed, entities, np.arange(attempts)[:, None],
                            np.arange(4))
        assert u.shape == (2, attempts, 4)
        assert u.min() >= 0.0 and u.max() <= TOP_UNIFORM
        assert np.array_equal(u * 2.0 ** 53, np.floor(u * 2.0 ** 53))
        # each draw depends on (seed mod 2**64, entity, attempt, column) alone
        assert np.array_equal(u[0, -1], hashed_uniforms(
            seed + 2 ** 64, entity, attempts - 1, np.arange(4)))
        assert u[1].tolist() == [[splitmix_reference(seed, entity + 1, a, c)
                                  for c in range(4)] for a in range(attempts)]
        assert len(np.unique(u)) == u.size
        # four to eight parts, the estimator's (depth, predicates..., trial,
        # column) form, fold in turn like three
        many = hashed_uniforms(seed, *prefix, np.arange(attempts)[:, None],
                               np.arange(4))
        assert many.tolist() == [[splitmix_reference(seed, *prefix, a, c)
                                  for c in range(4)] for a in range(attempts)]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(-2 ** 70, 2 ** 70),
           prefix=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4),
           rows=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=5))
    def test_hashed_state_resumes(self, seed, prefix, rows):
        # a state mixed from some parts continues with the rest
        rows = np.array(rows)
        state = hashed_state(hashed_state(seed, *prefix), rows)[:, None]
        assert np.array_equal(hashed_uniforms(state, np.arange(3)),
                              hashed_uniforms(seed, *prefix, rows[:, None],
                                              np.arange(3)))


_SNAPSHOT_TEXT = st.text(alphabet="aé\u2028\U0001D11E\\\"\t", max_size=5)

_NT_RESOURCES = st.sampled_from([EX + "a", EX + "a/b", EX + "ab", "_:b",
                                  "_:b1", "_:b10", "_:b1a", "_:b1.x"])
_NT_LITERALS = st.builds(
    lambda text, suffix: f'"{text}"{suffix}',
    st.text(alphabet="x \t", max_size=3),
    st.sampled_from(["", "@en", "@en-US", "^^<" + EX + "int>"]))


# 6,000 distinct triples, more than one 4,096-line chunk of rendered_lines
_MANY_TRIPLES = [(f"_:b{i % 1000}", EX + "pq"[i % 2],
                  f'"{i % 1200}"' + ("@en" if i % 3 else ""))
                 for i in range(6000)]


def _rendered_terms(g):
    """N-Triples surface form of each term: a literal or a blank node as
    interned, any other term as an IRI in angle brackets."""
    return [t if lit or t.startswith("_:") else f"<{t}>"
            for t, lit in zip(g.terms, g.literal)]


def _reference_rendered_lines(g, sep, end):
    """Graph.rendered_lines as one f-string per line: the oracle for the
    array renderer."""
    r = _rendered_terms(g)
    rank = np.empty(len(r), dtype=np.int64)
    rank[sorted(range(len(r)), key=r.__getitem__)] = np.arange(len(r))
    cols = (g.out_src, g.out_pred, g.out_obj)
    order = np.lexsort([rank[a] for a in cols[::-1]])
    for lo in range(0, len(order), 4096):
        at = order[lo:lo + 4096]
        yield "".join(f"{r[s]}{sep}{r[p]}{sep}{r[o]}{end}" for s, p, o
                      in zip(*(a[at].tolist() for a in cols)))


_ORACLE_RESOURCES = st.sampled_from(
    ["#", "#a", EX + "a", EX + "a/b", EX + "ab", "_:b", "_:b1", "_:b10"])


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @example(triples=_MANY_TRIPLES)
    @given(triples=st.lists(st.tuples(
        _NT_RESOURCES, st.sampled_from([EX + "p", EX + "p/q", EX + "q"]),
        st.one_of(_NT_RESOURCES, _NT_LITERALS)), max_size=25))
    def test_canonical_order_is_the_line_sort(self, triples):
        # terms that prefix each other (_:b1/_:b10, "x"/"x"@en/"x"@en-US)
        # and literals holding a tab or a space; the reference is the sort
        # of the rendered lines as strings
        g = build(triples)
        r = _rendered_terms(g)
        tab_lines = sorted(f"{r[s]}\t{r[p]}\t{r[o]}" for s, p, o in g.triples)
        assert g.checksum() == hashlib.sha256(
            "".join(line + "\n" for line in tab_lines).encode()).hexdigest()
        buf = io.StringIO()
        serialize_ntriples(g, buf)
        assert buf.getvalue() == "".join(sorted(
            f"{r[s]} {r[p]} {r[o]} .\n" for s, p, o in g.triples))
        # every generated term is N-Triples: the text parses back strictly
        assert parse(buf.getvalue(), strict=True).checksum() == g.checksum()

    @settings(max_examples=150, deadline=None)
    @example(triples=_MANY_TRIPLES)
    @given(triples=st.lists(st.tuples(
        _ORACLE_RESOURCES, st.sampled_from(["#", EX + "p", EX + "p/q"]),
        st.one_of(_ORACLE_RESOURCES, _NT_LITERALS,
                  st.sampled_from(['"a\\"b"', '"\\u00e9"@fr', '"é"',
                                   '"\\\\"^^<#>']))),
        max_size=25))
    def test_rendered_lines_equal_the_reference(self, triples):
        # <#>, blank nodes, literals with escapes and non-ASCII text, and
        # terms that prefix each other (#/#a, _:b1/_:b10, "x"/"x"@en)
        g = build(triples)
        for sep, end in ((" ", " .\n"), ("\t", "\n")):
            assert list(g.rendered_lines(sep, end)) == \
                list(_reference_rendered_lines(g, sep, end))
        assert g.checksum() == hashlib.sha256("".join(
            _reference_rendered_lines(g, "\t", "\n")).encode()).hexdigest()

    def test_checksum_pinned(self):
        # digest of the sorted rendered lines, as written before terms
        # were rendered once each
        g = build([(EX + "a", EX + "p", "_:b1"),
                   ("_:b1", EX + "q", '"two words"@en'),
                   (EX + "a", RDF_TYPE, EX + "T"),
                   (EX + "a", EX + "q",
                    '"1"^^<http://www.w3.org/2001/XMLSchema#integer>')])
        assert g.checksum() == ("a3fab5cb36f6373b7e2fdf70521d6e94"
                                "016ef006351bc14daf09396952197291")

    def test_parse_serialize_parse_fixed_point(self, layered):
        g, _ = layered
        buf = io.StringIO()
        serialize_ntriples(g, buf)
        g2 = parse(buf.getvalue())
        buf2 = io.StringIO()
        serialize_ntriples(g2, buf2)
        assert buf.getvalue() == buf2.getvalue()
        assert g2.checksum() == g.checksum()
        assert g2.n_triples == g.n_triples

    def test_snapshot_round_trip(self, tmp_path, layered):
        g, _ = layered
        path = str(tmp_path / "g.snap")
        write_snapshot(g, path)
        g2 = read_snapshot(path)
        assert g2.terms == g.terms
        assert g2.literal == g.literal
        assert g2.triples == g.triples
        assert g2.checksum() == g.checksum()

    def test_snapshot_golden_bytes(self, tmp_path):
        g = build([(EX + "a", EX + "p", EX + "b"),
                   (EX + "a", EX + "q", '"lit"'),
                   (EX + "b", EX + "p", EX + "a")])
        terms = [EX + "a", EX + "p", EX + "b", EX + "q", '"lit"']
        triples = [(0, 1, 2), (0, 3, 4), (2, 1, 0)]
        assert g.terms == terms
        assert g.literal == [False] * 4 + [True]
        want = (b"SWSNAP03" + struct.pack("<IQ", 5, 3)
                + struct.pack("<H", len(RDF_TYPE)) + RDF_TYPE.encode()
                + struct.pack("<5I", 10, 10, 10, 10, 5)
                + struct.pack("<9I", *(i for t in triples for i in t))
                + b"http://x/ahttp://x/phttp://x/bhttp://x/q\"lit\"")
        path = tmp_path / "g.snap"
        write_snapshot(g, str(path))
        assert path.read_bytes() == want
        path.write_bytes(want)
        g2 = read_snapshot(str(path))
        assert list(g2.triples) == triples
        assert g2.terms == g.terms and g2.literal == g.literal

    def test_snapshot_repeated_term(self, tmp_path):
        g = build([(EX + "a", EX + "p", EX + "b"), (EX + "b", EX + "p", EX + "c")])
        path = tmp_path / "g.snap"
        write_snapshot(g, str(path))
        # same length, so only the term table changes
        path.write_bytes(path.read_bytes().replace(b"http://x/c", b"http://x/a"))
        with pytest.raises(GraphError,
                           match="repeats a term.*" + re.escape(str(path))):
            read_snapshot(str(path))
        out = tmp_path / "pr.tsv"
        assert main(["pagerank", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_snapshot_bad_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(GraphError):
            read_snapshot(str(path))

    @staticmethod
    def _triples_at(g):
        """The offset of a snapshot's triple rows: after the header (magic,
        counts and the rdf:type IRI) and the term lengths."""
        return 22 + len(g.rdf_type.encode()) + 4 * g.n_terms

    @pytest.mark.parametrize("where", ["header", "lengths", "triples",
                                       "terms", "trailing"])
    def test_snapshot_truncated_or_padded(self, tmp_path, where):
        g = build([(EX + "s", EX + "p", EX + "o"), (EX + "o", EX + "p", EX + "s")])
        path = tmp_path / "g.snap"
        write_snapshot(g, str(path))
        data = path.read_bytes()
        text_at = self._triples_at(g) + 12 * g.n_triples
        cut = {"header": data[:14], "lengths": data[:self._triples_at(g) - 3],
               "triples": data[:text_at - 5], "terms": data[:-3],
               "trailing": data + b"\0"}[where]
        path.write_bytes(cut)
        # a cut in the text, or padding after it, leaves too few or too
        # many characters for the term lengths
        problem = ("term lengths sum to" if where in ("terms", "trailing")
                   else "truncated graph snapshot")
        with pytest.raises(GraphError,
                           match=problem + ".*" + re.escape(str(path))):
            read_snapshot(str(path))

    def test_snapshot_term_id_out_of_range(self, tmp_path):
        g = build([(EX + "s", EX + "p", EX + "o")])
        path = tmp_path / "g.snap"
        write_snapshot(g, str(path))
        data = bytearray(path.read_bytes())
        # the last triple's object
        struct.pack_into("<I", data, self._triples_at(g) + 8, g.n_terms)
        path.write_bytes(data)
        with pytest.raises(GraphError, match="out of range"):
            read_snapshot(str(path))

    @pytest.mark.parametrize("fault", ["swapped", "repeated"])
    def test_snapshot_triples_not_ascending(self, tmp_path, fault):
        g = build([(EX + "s", EX + "p", EX + "o"), (EX + "o", EX + "p", EX + "s"),
                   (EX + "o", EX + "q", EX + "s")])
        path = tmp_path / "g.snap"
        write_snapshot(g, str(path))
        data = path.read_bytes()
        at = self._triples_at(g)
        head, block, text = (data[:at], data[at:at + 12 * g.n_triples],
                             data[at + 12 * g.n_triples:])
        if fault == "swapped":
            block = block[12:24] + block[:12] + block[24:]
        else:  # a repeated last triple, counted in the header
            block += block[-12:]
            head = head[:12] + struct.pack("<Q", g.n_triples + 1) + head[20:]
        path.write_bytes(head + block + text)
        with pytest.raises(GraphError, match="sorted and distinct"):
            read_snapshot(str(path))
        assert main(["pagerank", str(path),
                     "--out", str(tmp_path / "pr.tsv")]) == 2

    # characters of two ("é"), three and four utf-8 bytes
    _UNICODE = [(EX + "é", EX + "p", '"ü\u2028\U0001D11E"'),
                (EX + "x", EX + "p", EX + "é")]

    def _unicode_snapshot(self, tmp_path):
        """The snapshot bytes of _UNICODE and the offset of its term
        lengths (header: magic, counts and the rdf:type IRI)."""
        path = tmp_path / "g.snap"
        write_snapshot(build(self._UNICODE), str(path))
        return path, bytearray(path.read_bytes()), 22 + len(RDF_TYPE)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_snapshot_lengths_do_not_sum_to_the_blob(self, tmp_path, delta):
        path, data, at = self._unicode_snapshot(tmp_path)
        (n,) = struct.unpack_from("<I", data, at)
        assert n == len(EX + "é")  # characters, not bytes
        struct.pack_into("<I", data, at, n + delta)
        path.write_bytes(data)
        with pytest.raises(GraphError,
                           match="term lengths sum to.*" + re.escape(str(path))):
            read_snapshot(str(path))

    def test_snapshot_bytes_not_utf8(self, tmp_path):
        path, data, _ = self._unicode_snapshot(tmp_path)
        path.write_bytes(bytes(data).replace("é".encode(), b"\xff\xfe"))
        with pytest.raises(GraphError,
                           match="not utf-8.*" + re.escape(str(path))):
            read_snapshot(str(path))

    def test_snapshot_format_1_is_rejected(self, tmp_path):
        path = tmp_path / "g.snap"
        path.write_bytes(v1_snapshot_bytes(build(self._UNICODE)))
        for load in (read_snapshot, load_graph):
            with pytest.raises(GraphError, match="format 1 snapshot; re-run "
                               "ingest on the N-Triples input: "
                               + re.escape(str(path))):
                load(str(path))

    def test_snapshot_format_2_is_rejected(self, tmp_path):
        path = tmp_path / "g.snap"
        path.write_bytes(v2_snapshot_bytes(build(self._UNICODE)))
        for load in (read_snapshot, load_graph):
            with pytest.raises(GraphError, match="format 2 snapshot; re-run "
                               "ingest on the N-Triples input: "
                               + re.escape(str(path))):
                load(str(path))

    @settings(max_examples=100, deadline=None)
    @given(triples=st.lists(st.tuples(
        _SNAPSHOT_TEXT, _SNAPSHOT_TEXT, _SNAPSHOT_TEXT, st.booleans()),
        min_size=1, max_size=12))
    def test_snapshot_round_trip_any_text(self, triples):
        # non-ASCII, U+2028 and astral characters, and literals holding
        # backslashes and quotes; an object literal is quoted, so it never
        # shares a term with an IRI
        g = build([(EX + s, EX + p, f'"{o}"' if lit else EX + o)
                   for s, p, o, lit in triples])
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "g.snap"
            write_snapshot(g, str(path))
            data = path.read_bytes()
            g2 = read_snapshot(str(path))
            write_snapshot(g2, str(path))
            assert path.read_bytes() == data
        assert g2.terms == g.terms and g2.literal == g.literal
        for a in ("out_src", "out_pred", "out_obj"):
            assert np.array_equal(getattr(g2, a), getattr(g, a))
        assert g2.checksum() == g.checksum()

    def test_gzip_input(self, tmp_path):
        text = "<http://x/s> <http://x/p> <http://x/o> .\n"
        path = tmp_path / "g.nt.gz"
        with gzip.open(path, "wt") as f:
            f.write(text)
        g = load_graph(str(path))
        assert g.n_triples == 1

    def test_literal_subject_rejected(self):
        b = GraphBuilder()
        b.add(EX + "s", EX + "p", '"lit"')
        b.add('"lit"', EX + "p", EX + "o")
        with pytest.raises(GraphError, match="literal in subject"):
            b.build()
