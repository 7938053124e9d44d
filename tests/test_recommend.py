import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk.recommend import (Recommendation, ndcg, precision_at_k,
                                sensitivity_sweep, top_k)
from specwalk.skipgram import EmbeddingModel, TrainConfig, Vocabulary
from specwalk.specificity import (EstimatorParams, SemanticRelationship,
                                  SpecificityEntry)
from specwalk.synth import sensitivity_fixture


def model_from_vectors(vectors: dict[str, list[float]],
                       counts: dict[str, int] | None = None) -> EmbeddingModel:
    vocab = Vocabulary(counts or {t: 1 for t in vectors})
    dim = len(next(iter(vectors.values())))
    w_in = np.array([vectors[t] for t in vocab.tokens], dtype=np.float32)
    return EmbeddingModel(vocab, w_in, None, TrainConfig(dim=dim))


def entries(scored):
    return [SpecificityEntry(SemanticRelationship((pid,)), s, 1)
            for pid, s in scored]


def _reference_top_k(model: EmbeddingModel, query: str, k: int,
                     candidates=None) -> Recommendation:
    """The scalar loop top_k replaced: one exact cosine per pool token."""
    if candidates is None:
        pool = [t for t in model.vocab.tokens if t != query]
    else:
        pool = sorted(t for t in set(candidates)
                      if t != query and t in model.vocab.index)
    q = model.vector(query).astype(np.float64)
    qn = np.linalg.norm(q)
    scored = []
    for token in pool:
        v = model.vector(token).astype(np.float64)
        vn = np.linalg.norm(v)
        cos = float(q @ v / (qn * vn)) if qn > 0 and vn > 0 else 0.0
        scored.append((token, cos))
    scored.sort(key=lambda tc: (-tc[1], tc[0]))
    return Recommendation(query, scored[:k], k)


# Few distinct values, so rows repeat (exact ties), scale each other (cosines
# equal in exact arithmetic, maybe not in floating point) or are zero.
_value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, -3.0]),
                   st.floats(-4.0, 4.0, width=32))


@st.composite
def small_models(draw):
    dim = draw(st.sampled_from([1, 2, 3, 4, 17, 64]))  # 64: real models
    rows = draw(st.lists(st.lists(_value, min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    rows.append([0.0] * dim)
    n = draw(st.integers(1, 10))
    names = draw(st.permutations("abcdefghij"))[:n]
    vectors = {t: draw(st.sampled_from(rows)) for t in names}
    counts = {t: draw(st.integers(1, 3)) for t in names}
    return model_from_vectors(vectors, counts)


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(model=small_models(), data=st.data())
    def test_equals_scalar_reference(self, model, data):
        tokens = model.vocab.tokens
        query = data.draw(st.sampled_from(tokens))
        k = data.draw(st.integers(1, len(tokens) + 2))
        candidates = data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(tokens + ["unknown"]))))
        got = top_k(model, query, k, candidates)
        want = _reference_top_k(model, query, k, candidates)
        assert got == want  # exact floats, order and length

    def test_cut_inside_block_of_exact_ties(self):
        vectors = {f"t{i:02d}": [1.0, 2.0, 3.0] for i in range(20)}
        vectors["q"] = [3.0, 2.0, 1.0]
        vectors["far"] = [-1.0, 0.0, 0.0]
        # reverse-lexicographic vocabulary order: t19 comes first in the pool
        m = model_from_vectors(vectors, {f"t{i:02d}": 30 - i for i in range(20)}
                               | {"q": 1, "far": 1})
        rec = top_k(m, "q", 5)
        assert [t for t, _ in rec.ranked] == ["t00", "t01", "t02", "t03", "t04"]
        assert len({c for _, c in rec.ranked}) == 1
        assert rec == _reference_top_k(m, "q", 5)


    def test_orders_by_cosine(self):
        m = model_from_vectors({
            "q": [1.0, 0.0],
            "close": [0.9, 0.1],
            "mid": [0.5, 0.5],
            "far": [-1.0, 0.0],
        })
        rec = top_k(m, "q", 3)
        assert [t for t, _ in rec.ranked] == ["close", "mid", "far"]
        assert rec.ranked[0][1] > rec.ranked[1][1] > rec.ranked[2][1]

    def test_query_excluded(self):
        m = model_from_vectors({"q": [1.0, 0.0], "o": [0.0, 1.0]})
        rec = top_k(m, "q", 5)
        assert [t for t, _ in rec.ranked] == ["o"]

    def test_scale_invariance(self):
        m1 = model_from_vectors({"q": [1.0, 2.0], "a": [2.0, 1.0], "b": [0.0, 1.0]})
        m2 = model_from_vectors({"q": [10.0, 20.0], "a": [0.4, 0.2], "b": [0.0, 7.0]})
        r1 = top_k(m1, "q", 2)
        r2 = top_k(m2, "q", 2)
        assert [t for t, _ in r1.ranked] == [t for t, _ in r2.ranked]
        for (_, c1), (_, c2) in zip(r1.ranked, r2.ranked):
            assert c1 == pytest.approx(c2)

    def test_zero_vector_scores_zero_and_ranks_below_positive(self):
        m = model_from_vectors({
            "q": [1.0, 0.0], "zero": [0.0, 0.0],
            "pos": [1.0, 1.0], "tiny": [1e-30, 1.0],
            "neg": [-1.0, 0.0], "slight": [-1e-30, 1.0],
        })
        rec = top_k(m, "q", 5)
        assert [t for t, _ in rec.ranked] == ["pos", "tiny", "zero",
                                              "slight", "neg"]
        scores = dict(rec.ranked)
        assert scores["zero"] == 0.0
        assert scores["tiny"] > 0.0 > scores["slight"]
        for k in range(1, 6):  # wherever the cut falls
            assert top_k(m, "q", k).ranked == rec.ranked[:k]

    def test_zero_query_scores_every_token_zero(self):
        m = model_from_vectors({"q": [0.0, 0.0], "b": [1.0, 0.0],
                                "a": [-1.0, 2.0], "c": [0.0, 0.0]})
        assert top_k(m, "q", 2).ranked == [("a", 0.0), ("b", 0.0)]

    def test_candidate_filter(self):
        m = model_from_vectors({"q": [1.0, 0.0], "a": [1.0, 0.1],
                                "b": [1.0, 0.2], "c": [1.0, 0.3]})
        rec = top_k(m, "q", 5, candidates=["b", "c", "q", "not-in-vocab"])
        assert {t for t, _ in rec.ranked} == {"b", "c"}

    def test_unknown_query(self):
        m = model_from_vectors({"a": [1.0]})
        with pytest.raises(KeyError):
            top_k(m, "missing", 1)

    def test_invalid_k(self):
        m = model_from_vectors({"a": [1.0], "b": [1.0]})
        with pytest.raises(ValueError):
            top_k(m, "a", 0)


class TestPrecision:
    def test_simple_hit_ratio(self):
        rec = Recommendation("q", [("a", 0.9), ("b", 0.8), ("c", 0.7)], 3)
        assert precision_at_k(rec, {"a", "c", "z"}) == pytest.approx(2 / 3)

    def test_no_hits(self):
        rec = Recommendation("q", [("a", 0.9)], 1)
        assert precision_at_k(rec, {"z"}) == 0.0

    def test_equals_recall_when_k_matches_truth(self):
        truth = {"a", "b", "c"}
        rec = Recommendation("q", [("a", 0.9), ("x", 0.8), ("b", 0.7)], 3)
        p = precision_at_k(rec, truth)
        recall = sum(1 for t, _ in rec.ranked if t in truth) / len(truth)
        assert p == recall

    def test_short_result_list_counts_against_k(self):
        rec = Recommendation("q", [("a", 0.9)], 3)
        assert precision_at_k(rec, {"a"}) == pytest.approx(1 / 3)


class TestNdcg:
    def test_identical_ranking_is_one(self):
        ideal = entries([(1, 0.9), (2, 0.5), (3, 0.2)])
        assert ndcg(list(ideal), ideal) == pytest.approx(1.0)

    def test_single_item(self):
        ideal = entries([(1, 0.7)])
        assert ndcg(entries([(1, 0.3)]), ideal) == pytest.approx(1.0)

    def test_adjacent_swap_hand_computed(self):
        ideal = entries([(1, 1.0), (2, 0.5)])
        swapped = entries([(2, 0.5), (1, 1.0)])
        idcg = 1.0 / math.log2(2) + 0.5 / math.log2(3)
        dcg = 0.5 / math.log2(2) + 1.0 / math.log2(3)
        assert ndcg(swapped, ideal) == pytest.approx(dcg / idcg)

    def test_missing_item_gets_zero_gain(self):
        ideal = entries([(1, 1.0), (2, 0.5)])
        got = ndcg(entries([(3, 0.9), (1, 0.2)]), ideal)
        idcg = 1.0 / math.log2(2) + 0.5 / math.log2(3)
        assert got == pytest.approx((1.0 / math.log2(3)) / idcg)

    def test_degenerate_zero_ideal(self):
        ideal = entries([(1, 0.0), (2, 0.0)])
        assert ndcg(entries([(2, 0.0), (1, 0.0)]), ideal) == 1.0

    def test_bounded_and_maximized_only_by_ideal_order(self):
        # brute force over all permutations of a 5-item universe with
        # distinct scores: NDCG is in [0,1] and equals 1 only for the
        # score-sorted order
        ideal = entries([(1, 0.9), (2, 0.7), (3, 0.5), (4, 0.3), (5, 0.1)])
        for perm in itertools.permutations(ideal):
            value = ndcg(list(perm), ideal)
            assert 0.0 <= value <= 1.0 + 1e-12
            if list(perm) == ideal:
                assert value == pytest.approx(1.0)
            else:
                assert value < 1.0


@pytest.fixture(scope="module")
def fixture_graph():
    return sensitivity_fixture(seed=3)


class TestSensitivity:
    def test_single_sweep_point_is_one(self, fixture_graph):
        g, info = fixture_graph
        params = EstimatorParams(seed_set_size=40, n_walks=200, max_depth=1,
                                 seed=0)
        points = sensitivity_sweep(g, g.term_id(info["type"]), params,
                                   n_walks_values=[200])
        assert len(points) == 1
        assert points[0].ndcg == pytest.approx(1.0)
        assert points[0].parameter == "n_walks"

    def test_requires_exactly_one_sweep(self, fixture_graph):
        g, info = fixture_graph
        params = EstimatorParams(seed_set_size=40, n_walks=200, max_depth=1)
        with pytest.raises(ValueError):
            sensitivity_sweep(g, g.term_id(info["type"]), params)
        with pytest.raises(ValueError):
            sensitivity_sweep(g, g.term_id(info["type"]), params,
                              n_walks_values=[100], s_values=[10])

    def test_ndcg_improves_with_walk_budget(self, fixture_graph):
        g, info = fixture_graph
        params = EstimatorParams(seed_set_size=50, n_walks=200, max_depth=1,
                                 seed=1)
        points = sensitivity_sweep(g, g.term_id(info["type"]), params,
                                   n_walks_values=[100, 400, 3000])
        by_value = {p.value: p.ndcg for p in points}
        assert by_value[3000] == pytest.approx(1.0)
        assert by_value[100] <= by_value[3000]
        assert all(0.0 <= v <= 1.0 for v in by_value.values())
