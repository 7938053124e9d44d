import io
import math
import random
import re
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk.graph import (RDF_TYPE, Graph, GraphBuilder, UnknownTermError,
                            escape_token, hashed_uniforms)
from specwalk.specificity import (SemanticRelationship, SpecificityEntry,
                                  SpecificityTable)
from specwalk import walks
from specwalk.walks import (Walk, WalkCorpus, WalkStrategy, extract_corpus,
                            prune_check, read_corpus_lines, write_corpus,
                            write_stats_csv)

from conftest import (EX, N_NODES, PREDICATES, build, scan_pick,
                      small_graphs)

FILM = EX + "Film"
PERSON = EX + "Person"
SYNTH = "http://synth.specwalk.local/"


def film_graph():
    return build([
        (EX + "film1", RDF_TYPE, FILM),
        (EX + "film2", RDF_TYPE, FILM),
        (EX + "person", RDF_TYPE, PERSON),
        (EX + "film1", EX + "director", EX + "person"),
        (EX + "person", EX + "directed", EX + "film1"),
        (EX + "person", EX + "directed", EX + "film2"),
        (EX + "film1", EX + "sequelOf", EX + "film2"),
        (EX + "film2", EX + "director", EX + "person"),
    ])


def walk_of(g, *names):
    return Walk(tuple(g.term_id(EX + n) for n in names))


class TestWalkObject:
    def test_token_shape_validation(self):
        with pytest.raises(ValueError):
            Walk((1,))
        with pytest.raises(ValueError):
            Walk((1, 2))
        with pytest.raises(ValueError):
            Walk((1, 2, 3, 4))

    def test_accessors(self):
        w = Walk((10, 1, 11, 2, 12))
        assert w.nodes == (10, 11, 12)
        assert w.predicates == (1, 2)
        assert w.depth == 2


class TestPruning:
    def test_root_revisit(self):
        g = film_graph()
        w = walk_of(g, "film1", "director", "person", "directed", "film1")
        assert prune_check(w, "none", g)
        assert not prune_check(w, "NRSE", g)
        assert not prune_check(w, "UE", g)

    def test_same_type_terminal(self):
        g = film_graph()
        w = walk_of(g, "film1", "director", "person", "directed", "film2")
        assert prune_check(w, "NRSE", g)
        assert prune_check(w, "UE", g)
        # terminal may share the root's type, intermediates may not
        assert prune_check(w, "NRST", g)
        assert not prune_check(w, "UET", g)

    def test_same_type_intermediate(self):
        g = film_graph()
        w = walk_of(g, "film1", "sequelOf", "film2", "director", "person")
        assert prune_check(w, "UE", g)
        assert not prune_check(w, "NRST", g)
        assert not prune_check(w, "UET", g)

    def test_untyped_nodes_pass_type_schemes(self):
        g = build([(EX + "a", EX + "p", EX + "b"),
                   (EX + "b", EX + "p", EX + "c")])
        w = walk_of(g, "a", "p", "b", "p", "c")
        assert prune_check(w, "NRST", g)
        assert prune_check(w, "UET", g)

    def test_unknown_scheme(self):
        g = film_graph()
        w = walk_of(g, "film1", "director", "person")
        with pytest.raises(ValueError):
            prune_check(w, "nrse", g)

    def test_acceptance_nesting(self, franchise):
        # UE-accepted walks are NRSE-accepted; UET-accepted are NRST-accepted
        g, info = franchise
        films = sorted(g.entities_of_type(info["type"]))
        strategy = WalkStrategy(depth=3, walks_per_entity=200)
        for entity in films[:6]:
            for walk in extract_corpus(g, [entity], strategy, seed=3).walks:
                if prune_check(walk, "UE", g):
                    assert prune_check(walk, "NRSE", g)
                if prune_check(walk, "UET", g):
                    assert prune_check(walk, "NRST", g)

    def test_restrictiveness_counts(self, franchise):
        g, info = franchise
        films = sorted(g.entities_of_type(info["type"]))
        accepted = {}
        for scheme in ("none", "NRSE", "UE", "NRST", "UET"):
            strategy = WalkStrategy(pruning=scheme, depth=3,
                                    walks_per_entity=300)
            corpus = extract_corpus(g, films[:8], strategy, seed=5)
            accepted[scheme] = len(corpus.walks)
        assert accepted["none"] >= accepted["NRSE"] >= accepted["UE"]
        assert accepted["none"] >= accepted["NRST"] >= accepted["UET"]


class TestExtraction:
    def test_single_chain(self):
        # no type edge, so the p edge is the only choice
        g = build([(EX + "f", EX + "p", EX + "x")])
        strategy = WalkStrategy(depth=1, walks_per_entity=5)
        corpus = extract_corpus(g, [g.term_id(EX + "f")], strategy, seed=0)
        assert len(corpus.walks) == 5
        want = (g.term_id(EX + "f"), g.term_id(EX + "p"), g.term_id(EX + "x"))
        assert all(w.tokens == want for w in corpus.walks)

    def test_shorter_walk_kept_at_dead_end(self, chain_graph):
        g = chain_graph
        strategy = WalkStrategy(depth=3, walks_per_entity=3)
        corpus = extract_corpus(g, [g.term_id(EX + "f")], strategy, seed=0)
        # x has no outgoing edges, so depth-3 attempts stop after one hop
        assert {w.depth for w in corpus.walks} <= {1, 2}

    def test_no_outgoing_edges_empty(self, chain_graph):
        g = chain_graph
        strategy = WalkStrategy(depth=2, walks_per_entity=10)
        corpus = extract_corpus(g, [g.term_id(EX + "x")], strategy, seed=0)
        assert corpus.walks == []
        assert corpus.stats[0].attempts == 10

    def test_star_covers_leaves(self):
        g = build([(EX + "root", EX + "p", EX + f"leaf{i}") for i in range(10)])
        strategy = WalkStrategy(depth=1, walks_per_entity=500)
        corpus = extract_corpus(g, [g.term_id(EX + "root")], strategy, seed=1)
        assert len(corpus.walks) == 500
        assert len({w.tokens for w in corpus.walks}) >= 9

    def test_walks_replay_as_triples(self, franchise):
        g, info = franchise
        films = sorted(g.entities_of_type(info["type"]))
        strategy = WalkStrategy(depth=3, walks_per_entity=100)
        for walk in extract_corpus(g, films[:5], strategy, seed=2).walks:
            for i in range(0, len(walk.tokens) - 2, 2):
                v, p, o = walk.tokens[i:i + 3]
                assert (v, p, o) in g.triples

    def test_deterministic_across_workers(self, franchise):
        g, info = franchise
        films = sorted(g.entities_of_type(info["type"]))
        strategy = WalkStrategy(depth=2, walks_per_entity=50)
        seq = extract_corpus(g, films, strategy, seed=9, workers=1)
        par = extract_corpus(g, films, strategy, seed=9, workers=4)
        assert [w.tokens for w in seq.walks] == [w.tokens for w in par.walks]

    def test_deterministic_in_seed_only(self, chain_graph):
        g = build([(EX + "root", EX + "p", EX + f"leaf{i}") for i in range(6)])
        strategy = WalkStrategy(depth=1, walks_per_entity=20)
        a = extract_corpus(g, [g.term_id(EX + "root")], strategy, seed=3)
        b = extract_corpus(g, [g.term_id(EX + "root")], strategy, seed=3)
        c = extract_corpus(g, [g.term_id(EX + "root")], strategy, seed=4)
        assert [w.tokens for w in a.walks] == [w.tokens for w in b.walks]
        assert [w.tokens for w in a.walks] != [w.tokens for w in c.walks]

    @pytest.mark.parametrize("bad", [True, 1.0, "0", -1, 3, 2 ** 70,
                                     np.int64(3)])
    def test_bad_root_named(self, bad):
        # a bool, a non-integer, a negative or an out-of-range root (ids
        # 0-2 are interned), between good roots and before another bad one
        g = build([(EX + "f", EX + "p", EX + "x")])
        with pytest.raises(UnknownTermError,
                           match=re.escape(f"unknown term id: {bad!r}")):
            extract_corpus(g, [0, np.int64(2), bad, -5],
                           WalkStrategy(depth=1, walks_per_entity=2))


class TestBiases:
    def test_frequency_bias_proportions(self):
        triples = [(EX + "root", EX + "p", EX + "a"),
                   (EX + "root", EX + "q", EX + "b")]
        triples += [(EX + f"s{i}", EX + "p", EX + f"t{i}") for i in range(8)]
        g = build(triples)
        strategy = WalkStrategy(bias="frequency", depth=1, walks_per_entity=2000)
        corpus = extract_corpus(g, [g.term_id(EX + "root")], strategy, seed=0)
        p_walks = sum(w.predicates[0] == g.term_id(EX + "p")
                      for w in corpus.walks)
        # edge weights 9:1 by global predicate frequency
        assert p_walks / len(corpus.walks) == pytest.approx(0.9, abs=0.03)

    def test_pagerank_bias_prefers_high_score(self):
        g = build([(EX + "root", EX + "p", EX + "hi"),
                   (EX + "root", EX + "p", EX + "lo")])
        scores = np.zeros(g.n_terms)
        scores[[g.term_id(EX + "hi"), g.term_id(EX + "lo")]] = 0.9, 0.1
        strategy = WalkStrategy(bias="pagerank", depth=1, walks_per_entity=2000,
                                pagerank_scores=scores)
        corpus = extract_corpus(g, [g.term_id(EX + "root")], strategy, seed=0)
        hi = sum(w.nodes[-1] == g.term_id(EX + "hi") for w in corpus.walks)
        assert hi / len(corpus.walks) == pytest.approx(0.9, abs=0.03)

    def test_pagerank_unscored_literal_never_taken(self):
        g = build([(EX + "root", EX + "p", '"literal leaf"'),
                   (EX + "root", EX + "p", EX + "node")])
        scores = np.zeros(g.n_terms)
        scores[g.term_id(EX + "node")] = 0.5
        strategy = WalkStrategy(bias="pagerank", depth=1, walks_per_entity=200,
                                pagerank_scores=scores)
        corpus = extract_corpus(g, [g.term_id(EX + "root")], strategy, seed=0)
        assert len(corpus.walks) == 200
        assert all(w.nodes[-1] == g.term_id(EX + "node") for w in corpus.walks)

    def test_specificity_bias_follows_templates(self, franchise):
        g, info = franchise
        chain = tuple(g.term_id(p) for p in info["specific_chain"])
        table = SpecificityTable(depths={2: [
            SpecificityEntry(SemanticRelationship(chain), 1.0, 100),
            SpecificityEntry(SemanticRelationship(
                (g.term_id(SYNTH + "p/director"),
                 g.term_id(SYNTH + "p/birthPlace"))), 0.2, 100),
        ]})
        strategy = WalkStrategy(bias="specificity", depth=2,
                                specificity_table=table, threshold=0.5,
                                walks_per_entity=100)
        films = sorted(g.entities_of_type(info["type"]))
        corpus = extract_corpus(g, [films[0]], strategy, seed=0)
        assert len(corpus.walks) == 100
        assert all(w.predicates == chain for w in corpus.walks)

    def test_template_at_threshold_walked(self, franchise):
        # a template scored exactly at the threshold is walked; the other
        # one, below it, is not
        g, info = franchise
        chain = tuple(g.term_id(p) for p in info["specific_chain"])
        table = SpecificityTable(depths={2: [
            SpecificityEntry(SemanticRelationship(chain), 0.5, 100),
            SpecificityEntry(SemanticRelationship(
                (g.term_id(SYNTH + "p/director"),
                 g.term_id(SYNTH + "p/birthPlace"))), 0.25, 100),
        ]})
        strategy = WalkStrategy(bias="specificity", depth=2,
                                specificity_table=table, threshold=0.5,
                                walks_per_entity=20)
        films = sorted(g.entities_of_type(info["type"]))
        corpus = extract_corpus(g, [films[0]], strategy, seed=0)
        assert len(corpus.walks) == 20
        assert all(w.predicates == chain for w in corpus.walks)

    def test_template_predicate_outside_terms_raises(self, aliasing_graph):
        # e0's key for bad is e1's q key: the walk used to write e0 q y
        g, bad = aliasing_graph
        table = SpecificityTable(depths={1: [
            SpecificityEntry(SemanticRelationship((bad,)), 1.0, 10)]})
        strategy = WalkStrategy(bias="specificity", depth=1,
                                specificity_table=table, walks_per_entity=5)
        with pytest.raises(UnknownTermError, match=f"id: {bad}$"):
            extract_corpus(g, [g.term_id(EX + "e0")], strategy)

    def test_specificity_walks_in_attempt_order(self, franchise):
        # draw column 0 of attempt a picks the template whose cumulative
        # score first exceeds u * total; walks come out in attempt order
        g, info = franchise
        templates = [tuple(g.term_id(SYNTH + p) for p in names) for names in
                     (("p/director", "p/knownFor"),
                      ("p/director", "p/birthPlace"))]
        table = SpecificityTable(depths={2: [
            SpecificityEntry(SemanticRelationship(t), score, 100)
            for t, score in zip(templates, (1.0, 0.6))]})
        strategy = WalkStrategy(bias="specificity", depth=2,
                                specificity_table=table, walks_per_entity=60)
        film = sorted(g.entities_of_type(info["type"]))[0]
        u = hashed_uniforms(4, film, np.arange(60), 0)
        picks = (u * 1.6 >= 1.0).astype(int).tolist()
        corpus = extract_corpus(g, [film], strategy, seed=4)
        assert len(set(picks)) == 2
        assert [w.predicates for w in corpus.walks] == [templates[j]
                                                       for j in picks]

    def test_specificity_bias_no_templates_empty(self, chain_graph):
        g = chain_graph
        table = SpecificityTable(depths={1: []})
        strategy = WalkStrategy(bias="specificity", depth=1,
                                specificity_table=table, walks_per_entity=50)
        corpus = extract_corpus(g, [g.term_id(EX + "f")], strategy, seed=0)
        assert corpus.walks == []

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            WalkStrategy(bias="specificity")
        with pytest.raises(ValueError):
            WalkStrategy(bias="pagerank")
        with pytest.raises(ValueError):
            WalkStrategy(bias="degree")
        with pytest.raises(ValueError):
            WalkStrategy(pruning="unique")
        with pytest.raises(ValueError):
            WalkStrategy(depth=0)

    @pytest.mark.parametrize("bad", [-100.0, math.nan, math.inf])
    def test_pagerank_scores_must_be_finite_and_non_negative(self, bad):
        # scored objects x1, x2, x3 10, y bad, w 5, z 7: with -100 the
        # cumulative weights fall, and every walk from b read "b q z", an
        # edge of c; with NaN every walk from b dead-ended
        g = build([(EX + "a", EX + "p", EX + n) for n in ("x1", "x2", "x3",
                                                          "y")]
                  + [(EX + "b", EX + "q", EX + "w"),
                     (EX + "c", EX + "q", EX + "z")])
        names = ("x1", "x2", "x3", "y", "w", "z")
        scores = np.zeros(g.n_terms)
        scores[[g.term_id(EX + n) for n in names]] = 10, 10, 10, bad, 5, 7
        strategy = WalkStrategy(depth=1, walks_per_entity=20)
        with pytest.raises(ValueError, match="finite and >= 0"):
            replace(strategy, bias="pagerank", pagerank_scores=scores)
        scores[g.term_id(EX + "y")] = 0.0
        corpus = extract_corpus(g, [g.term_id(EX + "b")], replace(
            strategy, bias="pagerank", pagerank_scores=scores))
        assert {w.tokens for w in corpus.walks} == {tuple(
            g.term_id(EX + n) for n in ("b", "q", "w"))}

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_pagerank_scores_must_cover_the_graph(self, chain_graph, delta):
        g = chain_graph
        strategy = WalkStrategy(bias="pagerank", depth=1, walks_per_entity=2,
                                pagerank_scores=np.ones(g.n_terms + delta))
        with pytest.raises(ValueError, match=f"cover {g.n_terms + delta} "
                                             f"terms, but the graph has "
                                             f"{g.n_terms}"):
            extract_corpus(g, [g.term_id(EX + "f")], strategy)

    def test_template_length_must_match_depth(self, chain_graph):
        g = chain_graph
        p = g.out_pred[0]
        for predicates in ((p,), (p, p, p)):
            table = SpecificityTable(depths={2: [
                SpecificityEntry(SemanticRelationship((p, p)), 1.0, 1),
                SpecificityEntry(SemanticRelationship(predicates), 1.0, 1)]})
            strategy = WalkStrategy(bias="specificity", depth=2,
                                    specificity_table=table,
                                    walks_per_entity=5)
            with pytest.raises(ValueError, match="at depth 2 must have 2"):
                extract_corpus(g, [g.out_src[0]], strategy)

    @pytest.mark.parametrize("n_templates", [1, 6])
    def test_one_sample_paths_call_per_specificity_chunk(self, franchise,
                                                         monkeypatch,
                                                         n_templates):
        g, info = franchise
        calls = []
        sample_paths = Graph.sample_paths

        def counting_sample_paths(self, *args, **kwargs):
            calls.append(1)
            return sample_paths(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "sample_paths", counting_sample_paths)
        monkeypatch.setattr(walks, "CHUNK_ROWS", 64)
        films = sorted(g.entities_of_type(info["type"]))[:10]
        preds = sorted(set(g.out_pred[np.isin(g.out_src, films)].tolist()))
        preds = preds[:n_templates]
        table = SpecificityTable(depths={1: [
            SpecificityEntry(SemanticRelationship((p,)), 1.0, 1)
            for p in preds]})
        strategy = WalkStrategy(bias="specificity", depth=1,
                                specificity_table=table, walks_per_entity=30)
        corpus = extract_corpus(g, films, strategy, seed=1)
        assert len(calls) == math.ceil(10 * 30 / 64) == 5
        used = {w.predicates for w in corpus.walks}
        assert used <= {(p,) for p in preds}
        assert len(used) == min(n_templates, len(preds)) > 0

    @pytest.mark.parametrize("bias", walks.BIASES)
    def test_graph_without_triples(self, bias):
        g = Graph(["http://x/a", "http://x/p"], np.zeros((0, 3), dtype=np.int64))
        table = SpecificityTable(depths={1: [
            SpecificityEntry(SemanticRelationship((1,)), 1.0, 1)]})
        strategy = WalkStrategy(bias=bias, depth=1, walks_per_entity=4,
                                specificity_table=table,
                                pagerank_scores=np.array([1.0, 0.0]))
        corpus = extract_corpus(g, [0], strategy)
        assert corpus.walks == [] and corpus.counters["dead"] == 4


class TestCorpusIO:
    def test_stats_empty_and_duplicates(self):
        g = build([(EX + "f", EX + "p", EX + "x")])
        strategy = WalkStrategy(depth=1, walks_per_entity=4)
        (empty,) = extract_corpus(g, [g.term_id(EX + "x")], strategy, 0).stats
        assert (empty.attempts, empty.walks, empty.distinct) == (4, 0, 0)
        (stats,) = extract_corpus(g, [g.term_id(EX + "f")], strategy, 0).stats
        assert (stats.attempts, stats.walks, stats.distinct) == (4, 4, 1)

    def test_write_read_round_trip(self):
        g = build([(EX + "f", EX + "p", EX + "x")])
        strategy = WalkStrategy(depth=1, walks_per_entity=2)
        corpus = extract_corpus(g, [g.term_id(EX + "f")], strategy, 0)
        buf = io.StringIO()
        write_corpus(g, corpus, buf, header={"bias": "uniform", "depth": 1})
        buf.seek(0)
        lines = list(read_corpus_lines(buf))
        assert len(lines) == 2
        assert lines[0] == [EX + "f", EX + "p", EX + "x"]

    def test_read_corpus_lines_shares_equal_tokens(self):
        # 35,000 tokens over 200 distinct ones: each list holds references
        # to one str per distinct token, about 19 bytes a token, where a
        # str per token took 84
        rng = random.Random(1)
        vocab = [f"{EX}n{i}" for i in range(200)]
        text = "# header\n" + "".join(
            " ".join(rng.choices(vocab, k=7)) + "\n" for _ in range(5000))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lines = list(read_corpus_lines(io.StringIO(text)))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 32 * 7 * 5000, held / (7 * 5000)
        assert lines == [line.split(" ") for line in text.splitlines()[1:]]
        assert len({id(t) for line in lines for t in line}) == len(vocab)

    def test_literal_whitespace_escaped_in_tokens(self):
        g = build([(EX + "f", EX + "p", '"two words"')])
        w = Walk((g.term_id(EX + "f"), g.term_id(EX + "p"),
                  g.term_id('"two words"')))
        buf = io.StringIO()
        write_corpus(g, WalkCorpus(tokens=np.array([w.tokens])), buf)
        tokens = buf.getvalue().split(" ")
        assert len(tokens) == 3
        assert tokens[2].rstrip("\n") == '"two\\u0020words"'

    def test_space_and_underscore_literals_keep_apart(self):
        # "x y" and "x_y" once folded to one token and one embedding node
        g = build([(EX + "a", EX + "p", '"x y"'),
                   (EX + "a", EX + "p", '"x_y"'),
                   (EX + "a", EX + "q", EX + "b")])
        corpus = extract_corpus(g, [g.term_id(EX + "a")],
                                WalkStrategy(depth=1, walks_per_entity=40), 0)
        buf = io.StringIO()
        write_corpus(g, corpus, buf)
        assert len(set(buf.getvalue().splitlines())) == \
            len(set(tokens_of(corpus))) == 3

    def test_bytes_match_per_token_rendering(self):
        g = build([(EX + "f", EX + "p", '"two  words\tand tab"'),
                   (EX + "f", EX + "q", EX + "x"),
                   (EX + "x", EX + "p", '"two  words\tand tab"'),
                   (EX + "x", EX + "q", EX + "f")])
        corpus = extract_corpus(g, [g.term_id(EX + "f"), g.term_id(EX + "x")],
                                WalkStrategy(depth=3, walks_per_entity=20), 1)
        buf = io.StringIO()
        write_corpus(g, corpus, buf, header={"b": 1, "a": "x"})
        want = "# a=x b=1\n" + "".join(
            " ".join(g.render_token(t) for t in w.tokens) + "\n"
            for w in corpus.walks)
        assert buf.getvalue() == want
        assert '"two\\u0020\\u0020words\\u0009and\\u0020tab"' in want

    def test_stats_csv_shape(self):
        g = build([(EX + "f", EX + "p", EX + "x")])
        strategy = WalkStrategy(depth=1, walks_per_entity=3)
        corpus = extract_corpus(g, [g.term_id(EX + "f")], strategy, 0)
        buf = io.StringIO()
        write_stats_csv(g, corpus, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "entity,attempts,walks,distinct"
        fields = lines[1].split(",")
        assert fields[0] == EX + "f"
        assert fields[1:4] == ["3", "3", "1"]


# -- corpus tokens: an injective, whitespace-free term map ----------------

_TRICKY = st.sampled_from(list(' \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000'
                               '"\\_u0#:@^<>'))
_text = st.text(st.one_of(_TRICKY, st.characters()), max_size=8)
_terms = st.lists(st.one_of(
    _text.map(lambda t: EX + t),  # IRI
    st.text("abcxyz019_.-", min_size=1, max_size=4).map(
        lambda t: "_:" + t),  # blank node
    st.tuples(_text, st.sampled_from(
        ["", "@en", "@en-GB", "^^<http://www.w3.org/2001/XMLSchema#string>"])
              ).map(lambda t: '"' + t[0] + '"' + t[1]),  # literal
), min_size=1, max_size=12)


def term_graph(terms):
    """Graph interning each distinct term string once."""
    b = GraphBuilder()
    for term in terms:
        b.intern(term)
    return b.build()


def unescape_token(token):
    return re.sub(r"\\(\\|u[0-9A-F]{4})",
                  lambda m: "\\" if m[1] == "\\" else chr(int(m[1][1:], 16)),
                  token)


class TestCorpusTokens:
    def test_escape_fast_path_equals_regex_rule_at_every_code_point(self):
        # escape_token returns a printable term without " " or "\\" as it
        # is; the rule it shortcuts escapes "\\" and every \s character
        def rule(term):
            return re.sub(r"[\\\s]", lambda m: "\\\\" if m[0] == "\\" else
                          f"\\u{ord(m[0]):04X}", term)

        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        escaped = set(re.findall(r"[\\\s]", chars))
        assert {" ", "\\", "\t", "\u3000"} <= escaped
        for c in chars:
            assert escape_token(c) == (rule(c) if c in escaped else c)
        assert escape_token("a\\ b\u2028c") == rule("a\\ b\u2028c")

    @settings(max_examples=200, deadline=None)
    @given(terms=_terms)
    def test_render_token_injective_and_whitespace_free(self, terms):
        g = term_graph(terms)
        tokens = [g.render_token(t) for t in range(g.n_terms)]
        assert len(set(tokens)) == g.n_terms
        for t, token in enumerate(tokens):
            assert not any(c.isspace() for c in token)
            assert unescape_token(token) == g.terms[t]

    @settings(max_examples=100, deadline=None)
    @given(terms=_terms, data=st.data())
    def test_write_read_round_trip(self, terms, data):
        # the CLI always writes a header; a headerless corpus whose first
        # walk starts with "# " still reads as a header
        g = term_graph(terms)
        term = st.integers(0, g.n_terms - 1)
        rows = data.draw(st.lists(st.one_of(
            st.lists(term, min_size=3, max_size=3).map(lambda r: r + [-1, -1]),
            st.lists(term, min_size=5, max_size=5)), max_size=6))
        corpus = WalkCorpus(
            tokens=np.array(rows, dtype=np.int64).reshape(-1, 5))
        buf = io.StringIO()
        write_corpus(g, corpus, buf, header={"depth": 2})
        buf.seek(0)
        assert list(read_corpus_lines(buf)) == [
            [g.render_token(t) for t in row if t >= 0] for row in rows]


# -- lockstep extraction against a scalar reference -----------------------

def scan_prune(nodes, scheme, g):
    """The pruning predicates over sets of directly asserted types."""
    types = [g.types_of(v) for v in nodes]
    if scheme == "NRSE":
        return nodes[0] not in nodes[1:]
    if scheme == "UE":
        return len(set(nodes)) == len(nodes)
    if scheme == "NRST":
        return all(not (t & types[0]) for t in types[1:-1])
    if scheme == "UET":
        return all(not (types[i] & types[j]) for i in range(len(nodes))
                   for j in range(i + 1, len(nodes)))
    return True


def scan_attempt(g, e, a, strategy, seed):
    """Reference for one attempt: attempt a of entity e, one step at a time,
    scanning out_adj and reading draw column c as hashed_uniforms(seed, e,
    a, c). Returns its tokens, only (e,) when it takes no step: a free walk
    dead-ended at its root, no template picked or a template that does not
    complete."""
    def u(column):
        return float(hashed_uniforms(seed, e, a, column)[0])

    tokens, v = [e], e
    if strategy.bias == "specificity":
        entries = strategy.specificity_table.above_threshold(
            strategy.depth, strategy.threshold)
        j = scan_pick([x.score for x in entries], u(0))
        if j is None:
            return (e,)
        for k, pred in enumerate(entries[j].relationship.predicates):
            matches = [o for p, o in g.out_adj[v] if p == pred]
            if not matches:
                return (e,)
            v = matches[min(int(u(k + 1) * len(matches)), len(matches) - 1)]
            tokens += [pred, v]
        return tuple(tokens)
    freq = g.predicate_frequency()
    scores = strategy.pagerank_scores
    weight = {"frequency": lambda p, o: freq[p],
              "pagerank": lambda p, o: float(scores[o])}.get(strategy.bias)
    for k in range(strategy.depth):
        edges = g.out_adj[v]
        if weight is None:
            i = (min(int(u(k + 1) * len(edges)), len(edges) - 1)
                 if edges else None)
        else:
            i = scan_pick([weight(p, o) for p, o in edges], u(k + 1))
        if i is None:
            break
        tokens += edges[i]
        v = tokens[-1]
    return tuple(tokens)


def scan_walks(g, entities, strategy, seed):
    """Reference extraction: every attempt's scan_attempt walk, in entity
    then attempt order, kept when it took a step and passes pruning."""
    out = []
    for e in entities:
        for a in range(strategy.walks_per_entity):
            tokens = scan_attempt(g, e, a, strategy, seed)
            if len(tokens) >= 3 and scan_prune(tokens[0::2],
                                               strategy.pruning, g):
                out.append(tokens)
    return out


@st.composite
def walk_cases(draw, bias, pruning, max_depth=3):
    """(graph, roots, strategy, seed) over conftest's small graphs; template
    and PageRank weights are dyadic, zero included, so that running sums
    are exact."""
    g = draw(small_graphs())
    depth = draw(st.integers(1, max_depth))
    weight = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    table = scores = None
    if bias == "specificity":
        templates = st.lists(st.sampled_from(PREDICATES), min_size=depth,
                             max_size=depth)
        table = SpecificityTable(depths={depth: [
            SpecificityEntry(SemanticRelationship(
                tuple(g.term_id(p) for p in names)), score, 1)
            for names, score in draw(st.lists(st.tuples(templates, weight),
                                              max_size=4))]})
    if bias == "pagerank":
        scores = np.zeros(g.n_terms)
        scores[:N_NODES] = draw(st.lists(weight, min_size=N_NODES,
                                         max_size=N_NODES))
    strategy = WalkStrategy(bias=bias, pruning=pruning, depth=depth,
                            walks_per_entity=draw(st.integers(1, 8)),
                            specificity_table=table, threshold=0.0,
                            pagerank_scores=scores)
    roots = draw(st.lists(st.integers(0, N_NODES - 1), min_size=1,
                          max_size=4))
    return g, roots, strategy, draw(st.integers(-2 ** 65, 2 ** 65))


def tokens_of(corpus):
    return [w.tokens for w in corpus.walks]


def per_entity(corpus):
    """Each listed entity's walks, split by its stats."""
    out, at = [], 0
    for s in corpus.stats:
        out.append(tokens_of(corpus)[at:at + s.walks])
        at += s.walks
    return out


class TestLockstep:
    @pytest.mark.parametrize("pruning", walks.PRUNING_SCHEMES)
    @pytest.mark.parametrize("bias", walks.BIASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_reference(self, bias, pruning, data):
        g, roots, strategy, seed = data.draw(walk_cases(bias, pruning))
        corpus = extract_corpus(g, roots, strategy, seed)
        assert tokens_of(corpus) == scan_walks(g, roots, strategy, seed)
        assert [(s.entity, s.attempts) for s in corpus.stats] == [
            (e, strategy.walks_per_entity) for e in roots]
        for s, got in zip(corpus.stats, per_entity(corpus)):
            assert (s.walks, s.distinct) == (len(got), len(set(got)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bias=st.sampled_from(walks.BIASES),
           pruning=st.sampled_from(walks.PRUNING_SCHEMES))
    def test_entity_walks_independent_of_others(self, data, bias, pruning):
        g, roots, strategy, seed = data.draw(walk_cases(bias, pruning))
        together = per_entity(extract_corpus(g, roots, strategy, seed))
        alone = [tokens_of(extract_corpus(g, [e], strategy, seed))
                 for e in roots]
        backwards = per_entity(extract_corpus(g, roots[::-1], strategy, seed))
        assert together == alone == backwards[::-1]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bias=st.sampled_from(walks.BIASES),
           pruning=st.sampled_from(walks.PRUNING_SCHEMES),
           extra=st.integers(1, 10))
    def test_budget_prefix(self, data, bias, pruning, extra):
        # the walks of attempts 0..a-1 do not depend on the budget
        g, roots, strategy, seed = data.draw(walk_cases(bias, pruning))
        larger = replace(strategy,
                         walks_per_entity=strategy.walks_per_entity + extra)
        small = per_entity(extract_corpus(g, roots, strategy, seed))
        large = per_entity(extract_corpus(g, roots, larger, seed))
        assert [w[:len(s)] for s, w in zip(small, large)] == small

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bias=st.sampled_from(walks.BIASES),
           pruning=st.sampled_from(walks.PRUNING_SCHEMES))
    def test_chunk_size_does_not_change_output(self, data, bias, pruning):
        g, roots, strategy, seed = data.draw(walk_cases(bias, pruning))
        want = extract_corpus(g, roots, strategy, seed)
        for rows in (1, 10 ** 9):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(walks, "CHUNK_ROWS", rows)
                got = extract_corpus(g, roots, strategy, seed)
            assert got == want

    def test_weighted_pick_never_takes_zero_weight(self):
        # in [1, 4) the running total rounds up to the slice's end at u near
        # 1, past the zero-weight edges 2 and 3; [2, 4) weighs zero in total
        cum, last = walks._cumulative([2.0 ** 40, 1.0, 0.0, 0.0, 3.0])
        lo, hi = np.array([1, 1, 1, 2, 0]), np.array([4, 4, 4, 4, 5])
        u = np.array([0.0, 0.5, 1 - 2.0 ** -53, 0.5, 1 - 2.0 ** -53])
        assert walks.weighted_pick(cum, last, lo, hi, u).tolist() == [
            1, 1, 1, -1, 4]


# -- the array corpus against the tuple-building extraction it replaced ---

def _reference_extract_corpus(g, entities, strategy, seed):
    """extract_corpus one scan_attempt at a time: one Walk per accepted
    attempt, distinct walks counted per listed entity over a set. Returns
    ([tokens], [(entity, attempts, walks, distinct)], counters)."""
    attempts = strategy.walks_per_entity
    out, stats, live_rows = [], [], 0
    for e in entities:
        walked = [scan_attempt(g, e, a, strategy, seed)
                  for a in range(attempts)]
        live = [t for t in walked if len(t) >= 3]
        kept = [Walk(t) for t in live
                if scan_prune(t[0::2], strategy.pruning, g)]
        live_rows += len(live)
        out += kept
        stats.append((e, attempts, len(kept), len({w.tokens for w in kept})))
    n_rows = len(stats) * attempts
    counters = {"attempts": n_rows, "accepted": len(out),
                "distinct": sum(s[3] for s in stats),
                "pruned": live_rows - len(out), "dead": n_rows - live_rows}
    return [w.tokens for w in out], stats, counters


def _reference_write_corpus(g, tokens, header=None):
    """write_corpus's bytes as it wrote them from Walk tuples."""
    buf = io.StringIO()
    if header:
        fields = " ".join(f"{k}={v}" for k, v in sorted(header.items()))
        buf.write(f"# {fields}\n")
    buf.writelines(" ".join(map(g.render_token, t)) + "\n" for t in tokens)
    return buf.getvalue()


def _written(g, corpus, header=None):
    buf = io.StringIO()
    write_corpus(g, corpus, buf, header)
    return buf.getvalue()


def _stats_of(corpus):
    return [tuple(s) for s in corpus.stats]


class TestArrayCorpus:
    @pytest.mark.parametrize("pruning", walks.PRUNING_SCHEMES)
    @pytest.mark.parametrize("bias", walks.BIASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_tuple_reference(self, bias, pruning, data):
        g, roots, strategy, seed = data.draw(walk_cases(bias, pruning))
        corpus = extract_corpus(g, roots, strategy, seed)
        want, stats, counters = _reference_extract_corpus(g, roots, strategy,
                                                          seed)
        assert tokens_of(corpus) == want
        assert _stats_of(corpus) == stats
        assert corpus.counters == counters
        header = {"bias": bias, "pruning": pruning}
        assert _written(g, corpus, header) == _reference_write_corpus(
            g, want, header)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), bias=st.sampled_from(walks.BIASES),
           pruning=st.sampled_from(walks.PRUNING_SCHEMES))
    def test_counters_against_an_unpruned_pass(self, data, bias, pruning):
        # pruning takes no draw, so the unpruned pass walks the same rows
        g, roots, strategy, seed = data.draw(walk_cases(bias, pruning))
        c = extract_corpus(g, roots, strategy, seed).counters
        free = extract_corpus(g, roots, replace(strategy, pruning="none"),
                              seed)
        assert c["attempts"] == c["accepted"] + c["pruned"] + c["dead"]
        assert c["dead"] == free.counters["dead"] == c["attempts"] - len(
            free.walks)
        assert c["pruned"] == len(free.walks) - c["accepted"]

    def test_merged_depths_match_reference(self, franchise):
        # as cmd_walk merges its passes: depth-1 rows padded to width 5
        g, info = franchise
        roots = sorted(g.entities_of_type(info["type"]))[:4]
        merged, tokens, stats = WalkCorpus(), [], []
        for depth in (1, 2):
            strategy = WalkStrategy(depth=depth, walks_per_entity=30,
                                    pruning="NRSE")
            part = extract_corpus(g, roots, strategy, seed=7)
            merged.walks.extend(part.walks)
            merged.stats.extend(part.stats)
            want, want_stats, _ = _reference_extract_corpus(g, roots,
                                                            strategy, 7)
            tokens += want
            stats += want_stats
        assert merged.tokens.shape == (len(tokens), 5)
        assert tokens_of(merged) == tokens
        assert {len(t) for t in tokens} == {3, 5}
        assert _stats_of(merged) == stats
        assert len(merged.stats) == 8
        assert _written(g, merged) == _reference_write_corpus(g, tokens)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks, "CHUNK_ROWS", 7)  # blocks split the rows
            assert _written(g, merged) == _reference_write_corpus(g, tokens)
        buf = io.StringIO()
        write_stats_csv(g, merged, buf)
        assert buf.getvalue() == "entity,attempts,walks,distinct\n" + "".join(
            f"{g.terms[e]},{a},{n},{d}\n" for e, a, n, d in stats)

    def test_views_build_walks_on_access(self):
        corpus = WalkCorpus(tokens=np.array([[1, 2, 3, -1, -1],
                                             [4, 5, 6, 7, 8]]))
        assert len(corpus.walks) == 2
        assert corpus.walks[1] == Walk((4, 5, 6, 7, 8))
        assert corpus.walks[-2] == Walk((1, 2, 3))
        assert corpus.walks == [Walk((1, 2, 3)), Walk((4, 5, 6, 7, 8))]
        assert corpus.walks != [Walk((1, 2, 3))]
        assert Walk((1, 2, 3)) in corpus.walks
        with pytest.raises(IndexError):
            corpus.walks[2]
        assert WalkCorpus().walks == [] and WalkCorpus().stats == []

    def test_hash_leading_walks_read_back(self):
        # the IRIs <#a> and <#> render as "#a" and "#": lines "#a ..." and
        # "# ...", and only a first line that starts with "# " is a header
        g = build([("#a", EX + "p", EX + "b"), ("#", EX + "p", EX + "b"),
                   (EX + "b", EX + "p", "#a")])
        corpus = extract_corpus(g, [g.term_id("#a"), g.term_id("#")],
                                WalkStrategy(depth=2, walks_per_entity=5), 0)
        for header in (None, {"bias": "uniform"}):
            buf = io.StringIO(_written(g, corpus, header))
            assert list(read_corpus_lines(buf)) == [
                [g.render_token(t) for t in w.tokens] for w in corpus.walks]


# -- walk distribution against exact enumeration ---------------------------

def walk_distribution(g, root, strategy):
    """Exact probability of each outcome of one attempt from root: the walk's
    tokens, or None when the attempt yields no walk. A free step takes an
    out-edge in proportion to its weight (1, freq[pred] or score[obj]), so
    a zero weight is never taken and a zero total ends the walk; a template
    is drawn in proportion to its score, and a template that dead-ends
    yields nothing."""
    dist = defaultdict(float)
    if strategy.bias == "specificity":
        entries = strategy.specificity_table.above_threshold(
            strategy.depth, strategy.threshold)
        total = sum(e.score for e in entries)
        for e in entries if total > 0 else []:
            paths = [((root,), e.score / total)]
            for pred in e.relationship.predicates:
                paths = [(tokens + (pred, o), p / len(matches))
                         for tokens, p in paths
                         for matches in [[o for q, o in g.out_adj[tokens[-1]]
                                          if q == pred]]
                         for o in matches]
            for tokens, p in paths:
                dist[tokens] += p
    else:
        freq = g.predicate_frequency()
        scores = strategy.pagerank_scores
        weight = {"uniform": lambda p, o: 1.0,
                  "frequency": lambda p, o: float(freq[p]),
                  "pagerank": lambda p, o: float(scores[o])}[strategy.bias]

        def extend(tokens, p, steps):
            edges = g.out_adj[tokens[-1]]
            w = [weight(q, o) for q, o in edges]
            if steps == 0 or sum(w) == 0:
                dist[tokens if len(tokens) > 1 else None] += p
                return
            for (q, o), wi in zip(edges, w):
                if wi > 0:
                    extend(tokens + (q, o), p * wi / sum(w), steps - 1)

        extend((root,), 1.0, strategy.depth)
    dist[None] = 1.0 - sum(p for t, p in dist.items() if t is not None)
    return dist


class TestWalkDistribution:
    """Empirical walk frequencies of extract_corpus within 5 SE of the exact
    probabilities, as TestEstimatorExpectation checks alg2."""

    N = 4000
    Z = 5.0

    @pytest.mark.parametrize("bias", walks.BIASES)
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_enumeration(self, bias, data):
        g, roots, strategy, seed = data.draw(walk_cases(bias, "none",
                                                        max_depth=2))
        strategy = replace(strategy, walks_per_entity=self.N)
        counts = Counter(w.tokens for w in extract_corpus(
            g, roots[:1], strategy, seed).walks)
        counts[None] = self.N - sum(counts.values())
        dist = walk_distribution(g, roots[0], strategy)
        for tokens in set(dist) | set(counts):
            p = min(max(dist.get(tokens, 0.0), 0.0), 1.0)
            se = math.sqrt(p * (1.0 - p) / self.N)
            assert abs(counts[tokens] / self.N - p) <= self.Z * se + 1e-9, \
                (tokens, counts[tokens], p)
