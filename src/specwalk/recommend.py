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
from .specificity import (EstimatorParams, SpecificityEntry, rank_at_budgets,
                          rank_by_specificity)


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

    One mat-vec scores the whole pool approximately. Every row within 1e-9
    of the k-th approximate score is then rescored with the per-row formula
    `q @ v / (|q| |v|)`, and only those rows are sorted. The result equals
    scoring every row with that formula: for finite float32 vectors the two
    scores differ by about 1e-14, far inside the margin.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if query not in model.vocab.index:
        raise KeyError(f"query not in vocabulary: {query!r}")
    index, tokens = model.vocab.index, model.vocab.tokens
    qi = index[query]
    if candidates is None:
        rows = np.delete(np.arange(len(tokens)), qi)
    else:
        rows = np.array(sorted({index[t] for t in candidates if t in index}
                               - {qi}), dtype=np.intp)
    q = model.vector(query).astype(np.float64)
    qn = np.linalg.norm(q)
    pool = model.w_in[rows].astype(np.float64)
    denom = np.sqrt(np.einsum("ij,ij->i", pool, pool)) * qn
    approx = np.divide(pool @ q, denom, out=np.zeros(len(rows)),
                       where=denom > 0)
    if k < len(rows):
        cut = np.partition(approx, len(rows) - k)[len(rows) - k]
        rows = rows[approx >= cut - 1e-9]
    scored = []
    for i in rows.tolist():
        v = model.w_in[i].astype(np.float64)
        vn = np.linalg.norm(v)
        cos = float(q @ v / (qn * vn)) if qn > 0 and vn > 0 else 0.0
        scored.append((tokens[i], cos))
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
    taken as ground truth, so its NDCG is 1.0 by construction. An n_walks
    sweep scores once, at its largest value (rank_at_budgets); each
    seed_set_size value samples its own seed set and ranks on its own.
    """
    if (n_walks_values is None) == (s_values is None):
        raise ValueError("provide exactly one of n_walks_values / s_values")
    if n_walks_values is not None:
        parameter, values = "n_walks", sorted(n_walks_values)
        runs = dict(zip(values, rank_at_budgets(g, t, base_params, values)))
    else:
        parameter, values = "seed_set_size", sorted(s_values)
        runs = {v: rank_by_specificity(g, t, replace(base_params,
                                                     seed_set_size=v))
                for v in values}
    ideal = runs[values[-1]]
    points = []
    for v in values:
        for depth in sorted(ideal.depths):
            points.append(SweepPoint(
                parameter, v, depth,
                ndcg(runs[v].entries_at(depth), ideal.entries_at(depth))))
    return points
