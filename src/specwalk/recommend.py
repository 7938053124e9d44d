"""Entity recommendation over trained embeddings plus ranking metrics.

Cosine top-k retrieval (a zero vector scores 0, so it ranks below positive
and above negative cosines), precision@k (equal to recall@k when k matches
the ground-truth size), and NDCG with graded gains taken from the ideal
ranking's scores.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .skipgram import EmbeddingModel
from .specificity import EstimatorParams, SpecificityEntry, rank_by_specificity


@dataclass
class Recommendation:
    query: str
    ranked: list[tuple[str, float]]  # (token, cosine), non-increasing
    k: int


def top_k(model: EmbeddingModel, query: str, k: int,
          candidates=None) -> Recommendation:
    """k highest-cosine tokens for the query; the query itself is excluded.

    `candidates` optionally restricts the pool (e.g. to same-type entity
    tokens). Ties are broken lexicographically by token.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if query not in model.vocab.index:
        raise KeyError(f"query not in vocabulary: {query!r}")
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


def precision_at_k(rec: Recommendation, truth: set[str]) -> float:
    """|top-k intersect truth| / k; equals recall@k when k == |truth|."""
    hits = sum(1 for token, _ in rec.ranked if token in truth)
    return hits / rec.k


def _dcg(entries: list[SpecificityEntry],
         gains: dict[tuple[int, ...], float]) -> float:
    return sum(gains.get(e.relationship.predicates, 0.0) / math.log2(rank + 1)
               for rank, e in enumerate(entries, 1))


def ndcg(ranked: list[SpecificityEntry], ideal: list[SpecificityEntry]) -> float:
    """DCG of the evaluated ranking normalized by the ideal ranking's DCG.

    An item's gain is its score in the ideal list (0 when absent). Returns
    1.0 for a degenerate all-zero ideal.
    """
    gains = {e.relationship.predicates: e.score for e in ideal}
    idcg = _dcg(ideal, gains)
    if idcg == 0.0:
        return 1.0
    return _dcg(ranked, gains) / idcg


@dataclass
class SweepPoint:
    parameter: str
    value: int
    depth: int
    ndcg: float


def sensitivity_sweep(g, t, base_params: EstimatorParams,
                      n_walks_values=None, s_values=None) -> list[SweepPoint]:
    """NDCG of specificity rankings across estimator budgets.

    Exactly one of the sweeps must be given; the run at the largest value is
    taken as ground truth, so its NDCG is 1.0 by construction.
    """
    if (n_walks_values is None) == (s_values is None):
        raise ValueError("provide exactly one of n_walks_values / s_values")
    if n_walks_values is not None:
        parameter, values = "n_walks", sorted(n_walks_values)
    else:
        parameter, values = "seed_set_size", sorted(s_values)
    runs = {v: rank_by_specificity(g, t, replace(base_params, **{parameter: v}))
            for v in values}
    ideal = runs[values[-1]]
    points = []
    for v in values:
        for depth in sorted(ideal.depths):
            points.append(SweepPoint(
                parameter, v, depth,
                ndcg(runs[v].entries_at(depth), ideal.entries_at(depth))))
    return points
