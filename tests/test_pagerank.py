import io
import random

import numpy as np
import pytest

from specwalk.ntriples import parse_ntriples
from specwalk.pagerank import (ScoreMap, compute_pagerank, load_scores,
                               save_scores)

from conftest import EX, build


def dense_solve(g, damping=0.85):
    """Direct linear solve of the PageRank fixed point (resource nodes)."""
    nodes = [i for i in range(g.n_terms) if not g.literal[i]]
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    m = np.zeros((n, n))
    for v in nodes:
        outs = [index[o] for _, o in g.out_adj[v] if not g.literal[o]]
        if outs:
            for j in outs:
                m[j, index[v]] += 1.0 / len(outs)
        else:
            m[:, index[v]] = 1.0 / n
    a = np.eye(n) - damping * m
    b = np.full(n, (1.0 - damping) / n)
    rank = np.linalg.solve(a, b)
    rank = rank / rank.sum()
    return {g.terms[v]: rank[index[v]] for v in nodes}


class TestCompute:
    def test_two_cycle_symmetric(self):
        g = build([(EX + "a", EX + "p", EX + "b"),
                   (EX + "b", EX + "p", EX + "a")])
        scores = compute_pagerank(g).scores
        # predicate node is dangling; the two cycle nodes tie
        assert scores[EX + "a"] == pytest.approx(scores[EX + "b"])

    def test_star_center_dominates(self):
        g = build([(EX + f"s{i}", EX + "p", EX + "hub") for i in range(8)])
        scores = compute_pagerank(g).scores
        assert scores[EX + "hub"] > max(scores[EX + f"s{i}"] for i in range(8))

    def test_matches_dense_solve_on_star(self):
        g = build([(EX + f"s{i}", EX + "p", EX + "hub") for i in range(5)])
        got = compute_pagerank(g).scores
        want = dense_solve(g)
        for term, value in want.items():
            assert got[term] == pytest.approx(value, abs=1e-9)

    def test_matches_dense_solve_on_random_graphs(self):
        for seed in range(3):
            rng = random.Random(seed)
            triples = {(EX + f"n{rng.randrange(40)}", EX + f"p{rng.randrange(3)}",
                        EX + f"n{rng.randrange(40)}") for _ in range(150)}
            g = build(sorted(triples))
            assert g.n_terms <= 50
            got = compute_pagerank(g).scores
            want = dense_solve(g)
            err = max(abs(got[t] - want[t]) for t in want)
            assert err <= 1e-6

    def test_normalized_sum(self, layered):
        g, _ = layered
        sm = compute_pagerank(g)
        assert sum(sm.scores.values()) == pytest.approx(1.0, abs=1e-8)

    def test_literals_excluded(self):
        g = build([(EX + "a", EX + "p", '"five"'),
                   (EX + "a", EX + "q", EX + "b")])
        scores = compute_pagerank(g).scores
        assert '"five"' not in scores
        assert EX + "b" in scores

    def test_no_resource_to_resource_edge(self):
        # every node dangles: uniform scores, not a casting error
        g = build([(EX + "a", EX + "p", '"five"')])
        scores = compute_pagerank(g).scores
        assert scores == pytest.approx({EX + "a": 0.5, EX + "p": 0.5})
        assert scores == pytest.approx(dense_solve(g))

    def test_invalid_damping(self, chain_graph):
        with pytest.raises(ValueError):
            compute_pagerank(chain_graph, damping=1.0)


class TestScoreIO:
    def test_load_basic_rows(self):
        lines = ["http://x/a\t0.586402\n", "http://x/b\t161.258\n",
                 "http://x/c\t57.1176\n"]
        sm = load_scores(lines)
        assert sm.scores["http://x/a"] == 0.586402
        assert sm.scores["http://x/b"] == 161.258
        assert sm.scores["http://x/c"] == 57.1176

    def test_comments_and_blanks_skipped(self):
        sm = load_scores(["# header\n", "\n", "http://x/a\t1.5\n"])
        assert sm.scores == {"http://x/a": 1.5}

    def test_duplicate_keeps_last(self):
        sm = load_scores(["http://x/a\t1\n", "http://x/a\t2\n"])
        assert sm.scores["http://x/a"] == 2.0

    def test_lenient_skips_bad_row(self):
        sm = load_scores(["http://x/a\t1\n", "garbage row\n", "http://x/b\t2\n"])
        assert set(sm.scores) == {"http://x/a", "http://x/b"}

    def test_round_trip(self):
        sm = ScoreMap({"http://x/b": 161.258, "http://x/a": 0.586402})
        buf = io.StringIO()
        save_scores(sm, buf)
        buf.seek(0)
        assert load_scores(buf).scores == sm.scores

    def test_round_trip_keeps_hash_leading_term(self):
        # the IRI <#a> is the term "#a", so its row starts with '#'
        g = parse_ntriples(["<#a> <p> <b> .\n", "<b> <p> <#a> .\n",
                            "<b> <p> <c> .\n"])
        sm = compute_pagerank(g)
        buf = io.StringIO()
        save_scores(sm, buf)
        assert buf.getvalue().startswith("#a\t")
        buf.seek(0)
        loaded = load_scores(buf)
        assert set(loaded.scores) == set(sm.scores) == {"#a", "b", "c", "p"}
        assert loaded.bind(g)[g.term_id("#a")] > 0

    def test_hash_comment_without_score_still_skipped(self):
        sm = load_scores(["# two\tcolumns\n", "#x\t0.5\n"])
        assert sm.scores == {"#x": 0.5}

    def test_bind_resolves_and_drops_unmatched(self, chain_graph):
        g = chain_graph
        sm = ScoreMap({EX + "f": 0.3, "http://nowhere/z": 0.7})
        bound = sm.bind(g)
        assert bound == {g.term_id(EX + "f"): 0.3}
