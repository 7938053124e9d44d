import io
import math
import random
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specwalk.graph import (RDF_TYPE, Graph, GraphBuilder, GraphError,
                            UnknownTermError, exact_counts, slice_members)
from specwalk import specificity
from specwalk.recommend import SweepPoint, ndcg, sensitivity_sweep
from specwalk.specificity import (FORWARD_RETRY_LIMIT, EstimatorParams,
                                  SemanticRelationship, SpecificityEntry,
                                  SpecificityTable, estimate_specificity,
                                  exact_specificity, rank_at_budgets,
                                  rank_by_specificity, trial_outcomes)
from specwalk.synth import layered_graph, relevance_inversion_graph

from conftest import (EX, N_NODES, PREDICATES, TYPE_T, build, in_edges,
                      scan_trials, small_graphs)


def rel(g, *preds):
    return SemanticRelationship(tuple(g.term_id(p) for p in preds))


# -- independent oracles -------------------------------------------------

def enumerate_frequencies(g, seeds, depth, excluded):
    """Occurrence counts of all length-`depth` predicate sequences from the
    seeds, by recursive path enumeration (excluded predicates dropped)."""
    freq = {}

    def rec(v, prefix, remaining):
        if remaining == 0:
            freq[prefix] = freq.get(prefix, 0) + 1
            return
        for p, o in g.out_adj[v]:
            if p not in excluded:
                rec(o, prefix + (p,), remaining - 1)

    for s in seeds:
        rec(s, (), depth)
    return freq


def brute_force_specificity(g, relationship, t, seeds=None):
    """Separately written exhaustive enumerator for the exact definition:
    (score, number of length-d paths into the reachable nodes). Seeds
    default to the entities of type t."""
    if seeds is None:
        seeds = g.entities_of_type(t)
    d = relationship.depth

    def forward(v, preds):
        if not preds:
            return {v}
        out = set()
        for p, o in g.out_adj[v]:
            if p == preds[0]:
                out |= forward(o, preds[1:])
        return out

    reachable = set()
    for s in seeds:
        reachable |= forward(s, list(relationship.predicates))
    if not reachable:
        return 0.0, 0

    def incoming_paths(v, depth):
        if depth == 0:
            return [v]
        origins = []
        for _, u in in_edges(g, v):
            origins.extend(incoming_paths(u, depth - 1))
        return origins

    acc = 0.0
    support = 0
    for k in sorted(reachable):
        origins = incoming_paths(k, d)
        support += len(origins)
        if origins:
            acc += sum(1 for v in origins if v in seeds) / len(origins)
    return acc / len(reachable), support


def _reference_incoming_path_counts(g, node, depth, origins):
    """(total, from-origins) Python-int counts of the length-`depth` paths
    ending at node, by a dict frontier walked backwards from it."""
    counts = {node: 1}  # start u -> number of paths from u to node so far
    for _ in range(depth):
        nxt = {}
        for v, c in counts.items():
            for _, u in in_edges(g, v):
                nxt[u] = nxt.get(u, 0) + c
        counts = nxt
    return (sum(counts.values()),
            sum(c for v, c in counts.items() if v in origins))


def _reference_exact_specificity(g, relationship, seeds):
    """(score, support) by the per-node loop: Python-int path counts for
    each reachable node, ratios added one at a time in ascending node
    order, so an exact implementation must match it bit for bit."""
    origins = frozenset(seeds)
    reachable = set(origins)
    for pred in relationship.predicates:
        reachable = {o for v in reachable for p, o in g.out_adj[v] if p == pred}
    if not reachable:
        return 0.0, 0
    acc = 0.0
    support = 0
    for k in sorted(reachable):
        total, fro = _reference_incoming_path_counts(g, k, relationship.depth,
                                                     origins)
        support += total
        if total:
            acc += fro / total
    return acc / len(reachable), support


def _reference_node_to_node(g, n1, n2, depth):
    total, fro = _reference_incoming_path_counts(g, n1, depth, {n2})
    return fro / total if total else 0.0


def _reference_select_paths(g, seeds, depth, n_paths, prev=None,
                            threshold=0.5, include_type_edges=False):
    """Candidate relationships of the given depth, ranked by frequency of
    occurrence from the seeds (ties to the smaller predicate-id sequence),
    by per-prefix recounting: each prefix's path counts from the seeds
    (Graph.path_counts), summed per predicate over its end nodes' out-edges
    into a histogram of its extensions. With prev (entries of depth - 1),
    only extensions of its above-threshold entries are counted."""
    if prev is None:
        prefixes, steps = [()], depth
    else:
        prefixes, steps = {e.relationship.predicates for e in prev
                           if e.score >= threshold}, 1
    skip_type = not include_type_edges and g.rdf_type_id is not None
    freq = {}
    for _ in range(steps):
        freq = {}
        for prefix in prefixes:
            nodes, paths = g.path_counts(seeds, prefix)
            at, owner = slice_members(g.out_ptr[nodes], g.out_ptr[nodes + 1])
            hist = np.bincount(g.out_pred[at], paths[owner], g.n_terms)
            if skip_type:
                hist[g.rdf_type_id] = 0
            for p in np.flatnonzero(exact_counts(hist)).tolist():
                freq[prefix + (p,)] = int(hist[p])
        prefixes = list(freq)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return [SemanticRelationship(seq) for seq, _ in ranked[:n_paths]]


def alg2_expectation(g, relationship, seeds, type_set):
    """Exact mean of one alg2 trial, by propagating probability mass.

    One forward attempt starts at a uniform seed and takes a uniform
    matching edge per predicate; it dead-ends with probability q, and the
    R + 1 attempts of a trial reach the endpoint distribution with
    probability 1 - q^(R+1). The reverse walk takes a uniform in-edge per
    step; the trial hits when it lands in type_set."""
    mass = {s: 1.0 / len(seeds) for s in seeds}
    for pred in relationship.predicates:
        nxt = {}
        for v, m in mass.items():
            matches = [o for p, o in g.out_adj[v] if p == pred]
            for o in matches:
                nxt[o] = nxt.get(o, 0.0) + m / len(matches)
        mass = nxt
    reached = sum(mass.values())
    if not mass:
        return 0.0
    success = 1.0 - (1.0 - reached) ** (FORWARD_RETRY_LIMIT + 1)
    back = {v: m / reached for v, m in mass.items()}
    for _ in range(relationship.depth):
        nxt = {}
        for v, m in back.items():
            for _, u in in_edges(g, v):
                nxt[u] = nxt.get(u, 0.0) + m / len(in_edges(g, v))
        back = nxt
    return success * sum(m for v, m in back.items() if v in type_set)


def scan_trial_outcomes(g, relationship, seeds, type_set, n_walks, seed):
    """Scalar reference for trial_outcomes' hits, as scan_trials walks
    them."""
    return [hit for hit, _ in scan_trials(g, relationship, seeds, type_set,
                                          n_walks, seed)]


def draw_relationship(g, data, seeds, depth):
    """A relationship realizable from the seeds when they have one, else
    any predicate sequence of the depth."""
    realizable = sorted(enumerate_frequencies(g, seeds, depth, frozenset()))
    preds = [g.term_id(p) for p in PREDICATES]
    return SemanticRelationship(data.draw(
        st.sampled_from(realizable) if realizable else
        st.tuples(*[st.sampled_from(preds)] * depth)))


def hub_graph(seed=0, n_hubs=3, fan_in=2000):
    """Hub-heavy graph: 100 type-T entities e*, 200 other nodes o* and
    n_hubs * fan_in middle nodes m*, each m* pointing at one hub h*, so
    every hub has in-degree fan_in. e* and o* link into the m*, the o* and
    40 leaves x*, which the hubs also point at."""
    rng = random.Random(seed)
    b = GraphBuilder()
    for i in range(100):
        b.add(EX + f"e{i}", RDF_TYPE, TYPE_T)

    def source():
        return f"e{rng.randrange(100)}" if rng.random() < 0.6 \
            else f"o{rng.randrange(200)}"

    for m in range(n_hubs * fan_in):
        b.add(EX + f"m{m}", EX + "in", EX + f"h{m % n_hubs}")
        for _ in range(rng.randrange(1, 3)):
            b.add(EX + source(), EX + "link", EX + f"m{m}")
    for _ in range(300):
        b.add(EX + source(), EX + "link", EX + f"o{rng.randrange(200)}")
    for x in range(40):
        for h in rng.sample(range(n_hubs), rng.randrange(1, n_hubs + 1)):
            b.add(EX + f"h{h}", EX + "out", EX + f"x{x}")
        for _ in range(rng.randrange(4)):
            b.add(EX + source(), EX + "link", EX + f"x{x}")
    return b.build()


def count_matrix(g):
    m = np.zeros((g.n_terms, g.n_terms), dtype=np.int64)
    for s, _, o in g.triples:
        m[s, o] += 1
    return m


class TestNodeToNode:
    def test_sole_incoming_path(self):
        g = build([(EX + "a", EX + "p", EX + "x")])
        assert _reference_node_to_node(
            g, g.term_id(EX + "x"), g.term_id(EX + "a"), 1) == 1.0

    def test_split_incoming(self):
        g = build([(EX + "a", EX + "p", EX + "x"),
                   (EX + "b", EX + "q", EX + "x")])
        assert _reference_node_to_node(
            g, g.term_id(EX + "x"), g.term_id(EX + "a"), 1) == 0.5

    def test_no_incoming_paths_zero(self):
        g = build([(EX + "a", EX + "p", EX + "x")])
        assert _reference_node_to_node(
            g, g.term_id(EX + "a"), g.term_id(EX + "x"), 1) == 0.0

    def test_matches_matrix_power_oracle(self):
        rng = random.Random(3)
        triples = set()
        for _ in range(200):
            u, v = rng.sample(range(50), 2)
            if u < v:  # DAG edges
                triples.add((EX + f"n{u}", EX + f"p{rng.randrange(5)}", EX + f"n{v}"))
        g = build(sorted(triples))
        m = count_matrix(g)
        for d in (1, 2, 3):
            md = np.linalg.matrix_power(m, d)
            for _ in range(30):
                n1, n2 = rng.randrange(g.n_terms), rng.randrange(g.n_terms)
                total = md[:, n1].sum()
                expected = md[n2, n1] / total if total else 0.0
                assert _reference_node_to_node(g, n1, n2, d) == pytest.approx(expected)


class TestExact:
    def test_all_paths_from_type_instances(self):
        # t-instances are the only nodes with outgoing (non-type) edges
        g = build([(EX + "f1", RDF_TYPE, TYPE_T),
                   (EX + "f2", RDF_TYPE, TYPE_T),
                   (EX + "f1", EX + "p", EX + "x"),
                   (EX + "f2", EX + "p", EX + "x")])
        entry = exact_specificity(g, rel(g, EX + "p"), g.term_id(TYPE_T))
        assert entry.score == 1.0

    def test_half_ratio(self):
        g = build([(EX + "f1", RDF_TYPE, TYPE_T),
                   (EX + "f1", EX + "p", EX + "x"),
                   (EX + "g", EX + "q", EX + "x")])
        entry = exact_specificity(g, rel(g, EX + "p"), g.term_id(TYPE_T))
        assert entry.score == 0.5

    def test_array_seeds_equal_list(self, franchise):
        # a seed array used to fail on its truth value
        g, info = franchise
        t = g.term_id(info["type"])
        films = sorted(g.entities_of_type(t))[:3]
        r = SemanticRelationship(tuple(g.term_id(p)
                                       for p in info["specific_chain"]))
        entry = exact_specificity(g, r, t, seeds=films)
        assert entry.support > 0
        assert exact_specificity(g, r, t, seeds=np.array(films)) == entry

    def test_unreachable_relationship_zero_support(self):
        g = build([(EX + "f1", RDF_TYPE, TYPE_T),
                   (EX + "a", EX + "p", EX + "x")])
        entry = exact_specificity(g, rel(g, EX + "p"), g.term_id(TYPE_T))
        assert entry.score == 0.0
        assert entry.support == 0

    def test_unknown_type_error(self, chain_graph):
        with pytest.raises(GraphError):
            exact_specificity(chain_graph, rel(chain_graph, EX + "p"),
                              chain_graph.term_id(EX + "x"))

    def test_matches_brute_force_oracle_random_graphs(self):
        for seed in range(3):
            rng = random.Random(seed)
            b = GraphBuilder()
            for i in range(20):
                b.add(EX + f"e{i}", RDF_TYPE, TYPE_T)
            for _ in range(400):
                s = rng.randrange(200)
                o = rng.randrange(200)
                name = f"e{s}" if s < 20 else f"n{s}"
                b.add(EX + name, EX + f"p{rng.randrange(6)}",
                      EX + (f"e{o}" if o < 20 else f"n{o}"))
            g = b.build()
            t = g.term_id(TYPE_T)
            preds = [EX + f"p{i}" for i in range(6)]
            for d in (1, 2):
                for _ in range(10):
                    r = rel(g, *[rng.choice(preds) for _ in range(d)])
                    assert exact_specificity(g, r, t).score == pytest.approx(
                        brute_force_specificity(g, r, t)[0], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           seeds=st.sets(st.integers(0, N_NODES - 1), min_size=1),
           depth=st.integers(1, 3))
    def test_matches_path_enumeration_small_graphs(self, g, data, seeds,
                                                   depth):
        # small graphs have cycles, several predicates and type edges
        r = draw_relationship(g, data, seeds, depth)
        entry = exact_specificity(g, r, None, seeds=seeds)
        score, support = brute_force_specificity(g, r, None, seeds=seeds)
        assert entry.score == pytest.approx(score, abs=1e-12)
        assert entry.support == support

    def test_empty_seed_set_error(self, chain_graph):
        with pytest.raises(ValueError, match="seed set must be non-empty"):
            exact_specificity(chain_graph, rel(chain_graph, EX + "p"),
                              chain_graph.term_id(TYPE_T), seeds=[])

    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           seeds=st.sets(st.integers(0, N_NODES - 1), min_size=1),
           depth=st.integers(1, 3))
    def test_equals_per_node_reference_small_graphs(self, g, data, seeds,
                                                    depth):
        r = draw_relationship(g, data, seeds, depth)
        entry = exact_specificity(g, r, None, seeds=seeds)
        assert (entry.score, entry.support) == \
            _reference_exact_specificity(g, r, seeds)

    def test_equals_per_node_reference_hub_graph(self):
        g = hub_graph()
        t = g.term_id(TYPE_T)
        seeds = g.entities_of_type(t)
        hub_in = [g.term_id(EX + f"h{h}") for h in range(3)]
        assert [len(in_edges(g, h)) for h in hub_in] == [2000] * 3
        rels = _reference_select_paths(g, sorted(seeds), 3, 3)
        assert rel(g, EX + "link", EX + "in", EX + "out") in rels
        for r in rels:
            entry = exact_specificity(g, r, t)
            assert entry.support > 0
            assert (entry.score, entry.support) == \
                _reference_exact_specificity(g, r, seeds)


class TestExactCountBound:
    """Float64 path counts are exact below 2**53, and every path count
    raises ArithmeticError at or past it. Two nodes joined by two
    predicates in each direction have 2**d length-d paths into each."""

    @pytest.fixture
    def two_cycle(self):
        g = build([(EX + "a", EX + "p", EX + "b"), (EX + "a", EX + "q", EX + "b"),
                   (EX + "b", EX + "p", EX + "a"), (EX + "b", EX + "q", EX + "a")])
        return g, g.term_id(EX + "a"), g.term_id(EX + "b")

    def test_exact_at_2_pow_52(self, two_cycle):
        g, a, b = two_cycle
        r = SemanticRelationship((g.term_id(EX + "p"),) * 52)
        entry = exact_specificity(g, r, None, seeds=[a])
        assert entry.support == 2 ** 52
        assert (entry.score, entry.support) == \
            _reference_exact_specificity(g, r, [a])

    @pytest.mark.parametrize("depth", [53, 54, 60])
    def test_raises_at_or_past_2_pow_53(self, two_cycle, depth):
        g, a, b = two_cycle
        r = SemanticRelationship((g.term_id(EX + "q"),) * depth)
        with pytest.raises(ArithmeticError, match=re.escape("2**53")):
            exact_specificity(g, r, None, seeds=[a])


    def test_forward_counts_and_candidates(self):
        # p from each of a, b to both: 2**(d - 1) p-paths from a into each;
        # a, the one seed, is typed, and the ranking's candidates follow p
        g = build([(EX + s, EX + "p", EX + o) for s in "ab" for o in "ab"]
                  + [(EX + "a", RDF_TYPE, TYPE_T)])
        a, p = g.term_id(EX + "a"), g.term_id(EX + "p")
        assert g.path_counts([a], [p] * 53)[1].tolist() == [2 ** 52] * 2
        with pytest.raises(ArithmeticError, match=re.escape("2**53")):
            g.path_counts([a], [p] * 54)

        def params(depth):
            return EstimatorParams(seed_set_size=1, n_walks=2,
                                   max_depth=depth, threshold=0.0, mode="eq2")

        table = rank_by_specificity(g, TYPE_T, params(52))
        assert [e.relationship for e in table.entries_at(52)] == \
            [SemanticRelationship((p,) * 52)]
        with pytest.raises(ArithmeticError, match=re.escape("2**53")):
            rank_by_specificity(g, TYPE_T, params(53))


class TestEstimator:
    def test_unrealizable_candidate_zero(self):
        g2 = build([(EX + "f", RDF_TYPE, TYPE_T),
                    (EX + "f", EX + "p", EX + "x"),
                    (EX + "other", EX + "q", EX + "y")])
        cand = rel(g2, EX + "q")  # no q-edge from any seed
        out = estimate_specificity(g2, [cand],
                                   sorted(g2.entities_of_type(TYPE_T)),
                                   g2.term_id(TYPE_T), 50, seed=1)
        assert out[0].score == 0.0
        assert out[0].support == 50

    def test_deterministic_chain_always_one(self, chain_graph):
        g = chain_graph
        t = g.term_id(TYPE_T)
        for n in (2, 10, 100):
            out = estimate_specificity(g, [rel(g, EX + "p")],
                                       sorted(g.entities_of_type(t)), t, n, seed=0)
            assert out[0].score == 1.0

    def test_requires_n_walks_above_seed_count(self, chain_graph):
        g = chain_graph
        seeds = sorted(g.entities_of_type(TYPE_T))
        with pytest.raises(ValueError):
            estimate_specificity(g, [rel(g, EX + "p")], seeds,
                                 g.term_id(TYPE_T), 1, seed=0)

    def test_empty_candidates_empty_result(self, chain_graph):
        g = chain_graph
        assert estimate_specificity(g, [], sorted(g.entities_of_type(TYPE_T)),
                                    g.term_id(TYPE_T), 10) == []

    def test_empty_seed_set_error(self, chain_graph):
        with pytest.raises(ValueError):
            estimate_specificity(chain_graph, [rel(chain_graph, EX + "p")],
                                 [], chain_graph.term_id(TYPE_T), 10)

    def test_predicate_id_outside_terms_raises(self, aliasing_graph):
        # such an id used to read another node's edges: e0's key for bad is
        # e1's q key, so the trial found e1 q y and scored 1.0
        g, bad = aliasing_graph
        e0, t = g.term_id(EX + "e0"), g.term_id(TYPE_T)
        for pred in (bad, -1, g.n_terms):
            cand = SemanticRelationship((pred,))
            with pytest.raises(UnknownTermError, match=f"id: {pred}$"):
                estimate_specificity(g, [cand], [e0], t, 50)
            with pytest.raises(UnknownTermError, match=f"id: {pred}$"):
                exact_specificity(g, cand, t, seeds=[e0])

    def test_close_to_exact_on_layered_graph(self, layered):
        g, info = layered
        t = g.term_id(info["type"])
        seeds = g.sample_entities(t, 60, seed=4)
        hits = 0
        runs = 0
        for name in ("near", "group", "hub"):
            pred = info["rels"][name]["pred"]
            exact = exact_specificity(g, rel(g, pred), t).score
            for seed in range(20):
                est = estimate_specificity(g, [rel(g, pred)], seeds, t,
                                           2000, seed=seed)[0].score
                hits += abs(est - exact) <= 0.05
                runs += 1
        assert hits / runs >= 0.95

    def test_error_non_increasing_in_n_walks(self, layered):
        g, info = layered
        t = g.term_id(info["type"])
        seeds = g.sample_entities(t, 60, seed=4)
        pred = info["rels"]["group"]["pred"]
        exact = exact_specificity(g, rel(g, pred), t).score
        maes = []
        for n in (100, 500, 2000, 5000):
            errs = [abs(estimate_specificity(g, [rel(g, pred)], seeds, t, n,
                                             seed=s)[0].score - exact)
                    for s in range(25)]
            maes.append(sum(errs) / len(errs))
        assert all(b <= a + 0.01 for a, b in zip(maes, maes[1:]))


class TestEstimatorExpectation:
    """alg2 against its exact expectation on graphs whose in-degrees are not
    balanced, where it differs from eq2 by design."""

    N = 20_000
    Z = 5.0  # a 5-sigma miss has probability ~6e-7 per check

    def assert_within(self, estimate, expected):
        p = min(max(expected, 0.0), 1.0)  # float sums can stray past 1
        se = math.sqrt(p * (1.0 - p) / self.N)
        assert abs(estimate - expected) <= self.Z * se + 1e-9, \
            (estimate, expected)

    @pytest.mark.parametrize("kind", ["franchise", "inversion"])
    def test_planted_graphs(self, kind, franchise):
        g, info = franchise if kind == "franchise" else \
            relevance_inversion_graph(seed=0)
        t = g.term_id(info["type"])
        # ten seeds that are not films make forward dead-ends, and retries,
        # common
        others = random.Random(3).sample(
            [v for v in range(g.n_terms) if g.out_adj[v]], 10)
        seeds = sorted(set(g.sample_entities(t, 20, seed=3)) | set(others))
        candidates = [r for d in (1, 2, 3)
                      for r in _reference_select_paths(g, seeds, d, 25 * d)]
        type_set = g.entities_of_type(t)
        for entry in estimate_specificity(g, candidates, seeds, t, self.N,
                                          seed=5):
            self.assert_within(entry.score, alg2_expectation(
                g, entry.relationship, seeds, type_set))

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           seeds=st.sets(st.integers(0, N_NODES - 1), min_size=1),
           type_set=st.sets(st.integers(0, N_NODES - 1)),
           depth=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_small_graphs(self, g, data, seeds, type_set, depth, seed):
        r = draw_relationship(g, data, seeds, depth)
        outcomes = trial_outcomes(g, [r], seeds, type_set, self.N, seed)[0][0]
        self.assert_within(outcomes.mean(), alg2_expectation(
            g, r, sorted(seeds), type_set))

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           seeds=st.sets(st.integers(0, N_NODES - 1), min_size=1),
           type_set=st.sets(st.integers(0, N_NODES - 1)),
           depth=st.integers(1, 3), n=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    def test_matches_scalar_reference(self, g, data, seeds, type_set, depth,
                                      n, seed):
        r = draw_relationship(g, data, seeds, depth)
        hit, _ = trial_outcomes(g, [r], seeds, type_set, n, seed)
        assert hit[0].tolist() == \
            scan_trial_outcomes(g, r, seeds, type_set, n, seed)

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           seeds=st.sets(st.integers(0, N_NODES - 1), min_size=1),
           type_set=st.sets(st.integers(0, N_NODES - 1)),
           depth=st.integers(1, 3), n=st.integers(1, 40),
           extra=st.integers(1, 300), seed=st.integers(0, 2**16))
    def test_budget_prefix(self, g, data, seeds, type_set, depth, n, extra,
                           seed):
        # trial i does not depend on the budget, dead-end retries included
        r = draw_relationship(g, data, seeds, depth)
        small = trial_outcomes(g, [r], seeds, type_set, n, seed)[0][0]
        large = trial_outcomes(g, [r], seeds, type_set, n + extra, seed)[0][0]
        assert small.tolist() == large[:n].tolist()

    @pytest.mark.parametrize("preds", [("p",), ("p", "r")])
    def test_budget_prefix_with_retries(self, preds):
        # 2 of 30 seeds have p, so an attempt succeeds 1 time in 15: most
        # trials retry, and about 47% still dead-end after the last retry
        g = build([(EX + f"e{i}", EX + "q", EX + "y") for i in range(30)]
                  + [(EX + "e0", EX + "p", EX + "x"),
                     (EX + "e1", EX + "p", EX + "x"),
                     (EX + "x", EX + "r", EX + "z"),
                     (EX + "w", EX + "r", EX + "z")])
        seeds = {g.term_id(EX + f"e{i}") for i in range(30)}
        r = rel(g, *(EX + p for p in preds))
        large = trial_outcomes(g, [r], seeds, seeds, 400, seed=7)[0][0]
        for n in (1, 7, 31, 150, 399):
            hit, _ = trial_outcomes(g, [r], seeds, seeds, n, seed=7)
            assert hit[0].tolist() == large[:n].tolist()
        assert large[:60].tolist() == scan_trial_outcomes(
            g, r, seeds, seeds, 60, seed=7)
        # a forward walk that lands on x returns to a seed; one from z,
        # half the time
        p = alg2_expectation(g, r, sorted(seeds), seeds)
        assert p == pytest.approx(
            (1 - (14 / 15) ** (FORWARD_RETRY_LIMIT + 1)) / len(preds))
        assert abs(large.mean() - p) <= self.Z * math.sqrt(p * (1 - p) / 400)


class TestLockstep:
    """trial_outcomes over many same-depth candidates at once, and the
    ranking that scores every n_walks budget from one run."""

    @pytest.mark.parametrize("block", [specificity.BLOCK_ROWS, 7])
    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           seeds=st.sets(st.integers(0, N_NODES - 1), min_size=1),
           type_set=st.sets(st.integers(0, N_NODES - 1)),
           depth=st.integers(1, 3), n=st.integers(1, 30),
           seed=st.integers(0, 2**16))
    def test_rows_match_scalar_reference(self, block, g, data, seeds,
                                         type_set, depth, n, seed):
        # a block of 7 rows splits candidates and starts mid-candidate
        realizable = sorted(enumerate_frequencies(g, seeds, depth, frozenset()))
        preds = [g.term_id(p) for p in PREDICATES]
        any_seq = st.tuples(*[st.sampled_from(preds)] * depth)
        rels = [SemanticRelationship(seq) for seq in data.draw(st.lists(
            st.sampled_from(realizable) | any_seq if realizable else any_seq,
            min_size=1, max_size=6, unique=True))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specificity, "BLOCK_ROWS", block)
            got, _ = trial_outcomes(g, rels, seeds, type_set, n, seed)
        assert got.shape == (len(rels), n)
        for r, row in zip(rels, got):
            assert row.tolist() == scan_trial_outcomes(g, r, seeds, type_set,
                                                       n, seed)

    @pytest.mark.parametrize("preds", [("p",), ("p", "r")])
    def test_dead_ends_match_scalar_count(self, preds):
        # the graph of test_budget_prefix_with_retries
        g = build([(EX + f"e{i}", EX + "q", EX + "y") for i in range(30)]
                  + [(EX + "e0", EX + "p", EX + "x"),
                     (EX + "e1", EX + "p", EX + "x"),
                     (EX + "x", EX + "r", EX + "z"),
                     (EX + "w", EX + "r", EX + "z")])
        seeds = {g.term_id(EX + f"e{i}") for i in range(30)}
        r = rel(g, *(EX + p for p in preds))
        hit, dead = trial_outcomes(g, [r], seeds, seeds, 150, 7)
        scan = scan_trials(g, r, seeds, seeds, 150, 7)
        assert hit[0].tolist() == [h for h, _ in scan]
        assert dead[0].tolist() == [d for _, d in scan]
        assert 0 < dead.sum() < 150

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs(), data=st.data(), size=st.integers(1, N_NODES),
           extra=st.lists(st.integers(1, 40), min_size=1, max_size=4,
                          unique=True),
           threshold=st.sampled_from([0.2, 0.4, 0.5, 0.6, 0.8]),
           seed=st.integers(0, 2**16))
    def test_budgets_equal_independent_runs(self, g, data, size, extra,
                                            threshold, seed):
        types = sorted({o for _, p, o in g.triples if p == g.rdf_type_id})
        assume(types)
        t = data.draw(st.sampled_from(types))
        budgets = [size + e for e in extra]
        params = EstimatorParams(seed_set_size=size, n_walks=max(budgets),
                                 max_depth=2, threshold=threshold, seed=seed)
        self.assert_equal_independent_runs(g, t, params, budgets)

    def test_budgets_keeping_different_prefixes(self):
        # a's expected score is 0.5, the threshold: x{i} has one in-edge from
        # a typed e{i} and one from an untyped u{i}; only a extends, by b
        g = build([(EX + f"e{i}", RDF_TYPE, TYPE_T) for i in range(10)]
                  + [(EX + f"{s}{i}", EX + "a", EX + f"x{i}")
                     for i in range(10) for s in "eu"]
                  + [(EX + f"x{i}", EX + "b", EX + f"y{i}") for i in range(10)]
                  + [(EX + f"e{i}", EX + "c", EX + "z") for i in range(10)])
        params = EstimatorParams(seed_set_size=10, n_walks=30, max_depth=2,
                                 threshold=0.5, seed=1)
        tables = self.assert_equal_independent_runs(g, TYPE_T, params,
                                                    list(range(11, 31)))
        kept = {tuple(e.relationship.render(g) for e in table.above_threshold(
            1, params.threshold)) for table in tables}
        assert kept == {(EX + "c",), (EX + "c", EX + "a")}
        assert {len(table.entries_at(2)) for table in tables} == {0, 1}

    @staticmethod
    def assert_equal_independent_runs(g, t, params, budgets):
        tables = rank_at_budgets(g, t, params, budgets)
        runs = {}
        for n, table in zip(budgets, tables):
            runs[n] = rank_by_specificity(g, t, replace(params, n_walks=n))
            assert table == runs[n]
        values = sorted(budgets)
        ideal = runs[values[-1]]
        assert sensitivity_sweep(g, t, params, n_walks_values=budgets) == [
            SweepPoint("n_walks", v, depth, ndcg(runs[v].entries_at(depth),
                                                 ideal.entries_at(depth)))
            for v in values for depth in sorted(ideal.depths)]
        return tables

    def test_sample_paths_calls_do_not_grow_with_candidates(self,
                                                           monkeypatch):
        calls = []
        sample_paths = Graph.sample_paths

        def counting_sample_paths(self, starts, u, predicates=None,
                                  pick=None, inward=False):
            # one forward and one reverse call per step count (depth)
            calls.append(("in" if inward else "out", u.shape[1]))
            return sample_paths(self, starts, u, predicates, pick, inward)

        monkeypatch.setattr(Graph, "sample_paths", counting_sample_paths)
        for k in (1, 3, 8):
            # k predicates from every node of a 5-cycle of typed nodes, so
            # no forward walk dead-ends; k + k**2 candidates, 100 trials each
            g = build([(EX + f"e{i}", RDF_TYPE, TYPE_T) for i in range(5)]
                      + [(EX + f"e{i}", EX + f"p{j}", EX + f"e{(i + j) % 5}")
                         for i in range(5) for j in range(k)])
            t = g.term_id(TYPE_T)
            seeds = sorted(g.entities_of_type(t))
            candidates = [rel(g, EX + f"p{j}") for j in range(k)] + [
                rel(g, EX + f"p{i}", EX + f"p{j}")
                for i in range(k) for j in range(k)]
            calls.clear()
            entries = estimate_specificity(g, candidates, seeds, t, 100)
            assert [e.score for e in entries] == [1.0] * len(candidates)
            assert calls == [("out", 1), ("in", 1), ("out", 2), ("in", 2)]
            calls.clear()
            rank_by_specificity(g, t, EstimatorParams(
                seed_set_size=5, n_walks=100, max_depth=2, threshold=0.0))
            assert calls == [("out", 1), ("in", 1), ("out", 2), ("in", 2)]


class TestSelectPaths:
    def test_depth_one_enumeration(self):
        g = build([(EX + "f1", RDF_TYPE, TYPE_T),
                   (EX + "f2", RDF_TYPE, TYPE_T),
                   (EX + "f1", EX + "p", EX + "a"),
                   (EX + "f1", EX + "q", EX + "b"),
                   (EX + "f2", EX + "p", EX + "c")])
        seeds = sorted(g.entities_of_type(TYPE_T))
        got = _reference_select_paths(g, seeds, 1, 10)
        assert got[0] == rel(g, EX + "p")  # frequency 2 beats 1
        assert got[1] == rel(g, EX + "q")

    def test_type_edges_excluded_from_candidates(self):
        g = build([(EX + "f", RDF_TYPE, TYPE_T),
                   (EX + "f", EX + "p", EX + "a")])
        got = _reference_select_paths(g, sorted(g.entities_of_type(TYPE_T)),
                                      1, 10)
        assert got == [rel(g, EX + "p")]

    def test_extension_mode(self):
        g = build([(EX + "f", RDF_TYPE, TYPE_T),
                   (EX + "f", EX + "p", EX + "m"),
                   (EX + "m", EX + "r", EX + "x")])
        prev = [SpecificityEntry(rel(g, EX + "p"), 0.9, 10)]
        got = _reference_select_paths(g, sorted(g.entities_of_type(TYPE_T)),
                                      2, 10, prev=prev)
        assert got == [rel(g, EX + "p", EX + "r")]

    def test_extension_skips_below_threshold(self):
        g = build([(EX + "f", RDF_TYPE, TYPE_T),
                   (EX + "f", EX + "p", EX + "m"),
                   (EX + "m", EX + "r", EX + "x")])
        prev = [SpecificityEntry(rel(g, EX + "p"), 0.2, 10)]
        assert _reference_select_paths(g, sorted(g.entities_of_type(TYPE_T)),
                                       2, 10, prev=prev, threshold=0.5) == []

    def test_prev_listed_twice_counted_once(self):
        # p|s occurs once and q|r twice; listing p three times must not
        # triple p|s's count
        g = build([(EX + "f", RDF_TYPE, TYPE_T),
                   (EX + "f", EX + "p", EX + "m"),
                   (EX + "m", EX + "s", EX + "x"),
                   (EX + "f", EX + "q", EX + "n"),
                   (EX + "n", EX + "r", EX + "y"),
                   (EX + "n", EX + "r", EX + "z")])
        prev = [SpecificityEntry(rel(g, EX + p), 0.9, 10)
                for p in ("p", "p", "q", "p")]
        got = _reference_select_paths(g, sorted(g.entities_of_type(TYPE_T)),
                                      2, 10, prev=prev)
        assert got == [rel(g, EX + "q", EX + "r"), rel(g, EX + "p", EX + "s")]

    def test_top25_matches_frequency_oracle(self):
        rng = random.Random(9)
        b = GraphBuilder()
        frequencies = {}
        for i in range(40):
            frequencies[EX + f"p{i:02d}"] = rng.randrange(1, 30)
        n = 0
        for pred, count in frequencies.items():
            for _ in range(count):
                b.add(EX + f"e{n % 50}", pred, EX + f"o{n}")
                n += 1
        for i in range(50):
            b.add(EX + f"e{i}", RDF_TYPE, TYPE_T)
        g = b.build()
        seeds = sorted(g.entities_of_type(TYPE_T))
        got = _reference_select_paths(g, seeds, 1, 25)
        # oracle ordering is by count desc then predicate-id sequence
        oracle_ids = sorted(((g.term_id(p),) for p in frequencies),
                            key=lambda seq: (-frequencies[g.terms[seq[0]]], seq))
        assert [r.predicates for r in got] == oracle_ids[:25]


    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), data=st.data(),
           seeds=st.sets(st.integers(0, N_NODES - 1), min_size=1),
           depth=st.integers(1, 3), n_paths=st.integers(1, 12),
           with_prev=st.booleans(), include_type_edges=st.booleans())
    def test_ranking_matches_path_enumeration(self, g, data, seeds, depth,
                                              n_paths, with_prev,
                                              include_type_edges):
        seeds = sorted(seeds)
        excluded = frozenset() if include_type_edges else {g.rdf_type_id}
        freq = enumerate_frequencies(g, seeds, depth, excluded)
        prev = None
        if with_prev and depth > 1:
            prefixes = enumerate_frequencies(g, seeds, depth - 1, excluded)
            prev = [SpecificityEntry(SemanticRelationship(seq),
                                     data.draw(st.sampled_from([0.2, 0.9])), 1)
                    for seq in sorted(prefixes)]
            kept = {e.relationship.predicates for e in prev if e.score >= 0.5}
            freq = {seq: c for seq, c in freq.items() if seq[:-1] in kept}
        expected = sorted(freq, key=lambda seq: (-freq[seq], seq))[:n_paths]
        got = _reference_select_paths(g, seeds, depth, n_paths, prev=prev,
                                      include_type_edges=include_type_edges)
        assert [r.predicates for r in got] == expected

    @pytest.mark.parametrize("mode", ["eq2", "alg2"])
    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), data=st.data(), size=st.integers(1, N_NODES),
           max_depth=st.integers(1, 4), include_type_edges=st.booleans())
    def test_eq2_ranking_equals_exact_per_candidate(self, mode, g, data, size,
                                                    max_depth,
                                                    include_type_edges):
        # at threshold 0 every entry extends, in both modes; eq2's entries
        # are also its exact scores
        types = sorted({o for _, p, o in g.triples if p == g.rdf_type_id})
        assume(types)
        t = data.draw(st.sampled_from(types))
        params = EstimatorParams(seed_set_size=size, n_walks=size + 1,
                                 max_depth=max_depth, threshold=0.0,
                                 mode=mode,
                                 include_type_edges=include_type_edges)
        seeds = sorted(g.sample_entities(t, size, params.seed))
        table = rank_by_specificity(g, t, params)
        prev = None
        for depth in range(1, max_depth + 1):
            entries = table.entries_at(depth)
            assert sorted(e.relationship for e in entries) == sorted(
                _reference_select_paths(g, seeds, depth, 25 * depth, prev,
                                        0.0, include_type_edges))
            for e in entries:
                if mode == "eq2":
                    assert e == exact_specificity(g, e.relationship, t,
                                                  seeds=seeds)
            prev = entries


class TestRanking:
    def test_chain_graph_single_entry(self, chain_graph):
        params = EstimatorParams(seed_set_size=1, n_walks=10, max_depth=1, seed=0)
        table = rank_by_specificity(chain_graph, TYPE_T, params)
        (entry,) = table.entries_at(1)
        assert entry.score == 1.0

    def test_specific_above_hub_at_every_depth(self):
        g, info = relevance_inversion_graph(seed=2)
        t = g.term_id(info["type"])
        params = EstimatorParams(seed_set_size=20, n_walks=500, max_depth=2,
                                 seed=1)
        table = rank_by_specificity(g, t, params)
        spec_chain = tuple(g.term_id(p) for p in info["specific_chain"])
        hub_chain = tuple(g.term_id(p) for p in info["hub_chain"])
        ranked = [e.relationship.predicates for e in table.entries_at(2)]
        assert ranked.index(spec_chain) < ranked.index(hub_chain)

    def test_score_at_threshold_extends(self):
        # test_half_ratio's graph plus x r y: p scores exactly 0.5 (x has one
        # in-edge from the seed f1 and one from g), so at threshold 0.5 its
        # prefix is extended by r
        g = build([(EX + "f1", RDF_TYPE, TYPE_T),
                   (EX + "f1", EX + "p", EX + "x"),
                   (EX + "g", EX + "q", EX + "x"),
                   (EX + "x", EX + "r", EX + "y")])
        params = EstimatorParams(seed_set_size=1, n_walks=10, max_depth=2,
                                 threshold=0.5, mode="eq2")
        table = rank_by_specificity(g, TYPE_T, params)
        assert [(e.relationship, e.score) for e in table.entries_at(1)] == \
            [(rel(g, EX + "p"), 0.5)]
        assert [e.relationship for e in table.entries_at(2)] == \
            [rel(g, EX + "p", EX + "r")]

    def test_extension_prefixes_above_threshold(self, layered):
        g, info = layered
        t = g.term_id(info["type"])
        params = EstimatorParams(seed_set_size=40, n_walks=300, max_depth=2,
                                 threshold=0.5, seed=2)
        table = rank_by_specificity(g, t, params)
        above = {e.relationship.predicates
                 for e in table.above_threshold(1, params.threshold)}
        for e in table.entries_at(2):
            assert e.relationship.predicates[:1] in above

    def test_scores_sorted_and_bounded(self, layered):
        g, info = layered
        params = EstimatorParams(seed_set_size=40, n_walks=300, max_depth=2, seed=0)
        table = rank_by_specificity(g, g.term_id(info["type"]), params)
        for depth, entries in table.depths.items():
            scores = [e.score for e in entries]
            assert scores == sorted(scores, reverse=True)
            assert all(0.0 <= s <= 1.0 for s in scores)
            assert all(e.support == params.n_walks for e in entries)

    def test_deterministic_serialization(self, layered):
        g, info = layered
        params = EstimatorParams(seed_set_size=40, n_walks=200, max_depth=2, seed=7)
        outs = []
        for _ in range(2):
            table = rank_by_specificity(g, g.term_id(info["type"]), params)
            buf = io.StringIO()
            table.to_tsv(g, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_table_tsv_round_trip(self, layered):
        g, info = layered
        params = EstimatorParams(seed_set_size=40, n_walks=200, max_depth=2, seed=7)
        table = rank_by_specificity(g, g.term_id(info["type"]), params)
        buf = io.StringIO()
        table.to_tsv(g, buf)
        buf.seek(0)
        table2 = SpecificityTable.from_tsv(g, buf)
        for depth in table.depths:
            got = [(e.relationship.predicates, round(e.score, 6), e.support)
                   for e in table.entries_at(depth)]
            want = [(e.relationship.predicates, e.score, e.support)
                    for e in table2.entries_at(depth)]
            assert got == want

    @pytest.mark.parametrize("mode", ["alg2", "eq2"])
    def test_path_counts_and_propagations_per_depth(self, monkeypatch, mode):
        # two nodes, two predicates each way: 2**d candidates at depth d
        g = build([(EX + "a", RDF_TYPE, TYPE_T)]
                  + [(EX + s, EX + p, EX + o)
                     for s, o in ("ab", "ba") for p in "pq"])
        calls = Counter()
        path_counts, bincount = Graph.path_counts, np.bincount

        def counting_path_counts(self, *args):
            calls["path_counts"] += 1
            return path_counts(self, *args)

        def counting_bincount(x, *args, **kwargs):
            calls["propagations"] += x is g.out_obj  # a full-graph step
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(Graph, "path_counts", counting_path_counts)
        monkeypatch.setattr(np, "bincount", counting_bincount)
        path_calls = set()
        for max_depth in (2, 4, 8):
            calls.clear()
            table = rank_by_specificity(g, TYPE_T, EstimatorParams(
                seed_set_size=1, n_walks=2, max_depth=max_depth,
                threshold=0.0, mode=mode))
            assert len(table.entries_at(max_depth)) == min(
                2 ** max_depth, 25 * max_depth)
            path_calls.add(calls["path_counts"])
            assert calls["propagations"] == \
                (2 * max_depth if mode == "eq2" else 0)
        assert len(path_calls) == 1

    def test_estimator_params_validation(self):
        with pytest.raises(ValueError):
            EstimatorParams(seed_set_size=100, n_walks=100)
        with pytest.raises(ValueError):
            EstimatorParams(threshold=1.5)
        with pytest.raises(ValueError):
            EstimatorParams(mode="magic")

    @pytest.mark.parametrize("row, message", [
        ("1\tp|q\t0.500000\t3", "line 3: depth 1 but 2 predicates in 'p|q'"),
        ("2\tp\t0.500000\t3", "line 3: depth 2 but 1 predicates in 'p'"),
        ("1\tp\t0.500000", "line 3: expected 4 tab-separated fields, got 3"),
        ("1\tp\t0.5\t3\tx", "line 3: expected 4 tab-separated fields, got 5"),
        ("one\tp\t0.500000\t3", "line 3: invalid literal"),
        ("1\tp\t1.500000\t3", "line 3: score outside [0,1]: 1.5"),
        ("1\tp\tnan\t3", "line 3: score outside [0,1]: nan"),
        ("1\tz\t0.500000\t3", "line 3: term not in graph: 'z'"),
    ], ids=["longer-than-depth", "shorter-than-depth", "three-fields",
            "five-fields", "bad-depth", "score-above-one", "score-nan",
            "unknown-predicate"])
    def test_table_tsv_malformed_row(self, row, message):
        g = build([("a", "p", "b"), ("b", "q", "c")])
        lines = ["depth\trelationship\tscore\tsupport\n",
                 "1\tq\t1.000000\t2\n", row + "\n"]
        with pytest.raises(ValueError, match=re.escape(message)):
            SpecificityTable.from_tsv(g, lines)

    def test_relationship_must_be_non_empty(self):
        with pytest.raises(ValueError):
            SemanticRelationship(())

    @pytest.mark.parametrize("pred", [True, 10.0, np.float64(1), "1", None])
    def test_relationship_predicates_must_be_integers(self, pred):
        # a template is cast to int64, where 10.0 read as predicate 10 and
        # True as 1: estimate_specificity scored 1.0 under the wrong one
        with pytest.raises(ValueError, match=re.escape(
                f"predicate id must be an integer: {pred!r}")):
            SemanticRelationship((3, pred))
        assert SemanticRelationship((3, np.int64(4))) == \
            SemanticRelationship((3, 4))
