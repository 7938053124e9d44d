"""PageRank scores for the PageRank-biased walk baseline.

Scores can be computed in-graph by power iteration (synthetic graphs) or
loaded from an external TSV score file. Literals are excluded from the chain:
only resource nodes take part, and edges to literals carry no rank.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError

log = logging.getLogger(__name__)

EPSILON = 1e-12
MAX_ITERS = 200


@dataclass
class ScoreMap:
    """Term-keyed node scores."""

    scores: dict[str, float]

    def bind(self, graph: Graph) -> np.ndarray:
        """One float64 score per term id of the graph, 0 for an unscored
        term; entries that match no term are dropped with a warning."""
        bound = np.zeros(graph.n_terms)
        known = [t for t in self.scores if graph.has_term(t)]
        bound[[graph.term_id(t) for t in known]] = [
            self.scores[t] for t in known]
        if len(known) < len(self.scores):
            log.warning("%d score entries did not match any graph term",
                        len(self.scores) - len(known))
        return bound


def compute_pagerank(graph: Graph, damping: float = 0.85) -> ScoreMap:
    """Standard power iteration with uniform teleport over resource nodes.

    Dangling mass is redistributed uniformly; iteration stops when the L1
    change drops below EPSILON or after MAX_ITERS steps. Output is
    normalized.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0,1)")
    resource = ~graph.literal
    nodes = np.flatnonzero(resource)
    if not len(nodes):
        raise GraphError("graph has no resource nodes")
    n = len(nodes)
    index = np.cumsum(resource) - 1  # resource id -> its row
    # resource-to-resource edges only, in triple order
    to_resource = resource[graph.out_obj]
    src_a = index[graph.out_src[to_resource]]
    dst_a = index[graph.out_obj[to_resource]]
    out_deg = np.bincount(src_a, minlength=n).astype(float)
    inv_deg = np.where(out_deg > 0, 1.0 / np.maximum(out_deg, 1), 0.0)
    dangling = out_deg == 0
    rank = np.full(n, 1.0 / n)
    for _ in range(MAX_ITERS):
        contrib = rank * inv_deg
        # with no edge, bincount's zeros are int64: add, do not +=
        new = np.bincount(dst_a, contrib[src_a], n) + rank[dangling].sum() / n
        new = damping * new + (1.0 - damping) / n
        delta = np.abs(new - rank).sum()
        rank = new
        if delta < EPSILON:
            break
    rank = rank / rank.sum()
    return ScoreMap({graph.terms[v]: r
                     for v, r in zip(nodes.tolist(), rank.tolist())})


def load_scores(lines) -> ScoreMap:
    """Read raw (non-normalized) scores from TSV lines `term<TAB>score`.

    A line that starts with '#' is a comment unless it is such a row, as
    save_scores writes for a term such as the IRI <#a>.
    """
    scores: dict[str, float] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 2:
                raise ValueError("expected two columns")
            term, value = parts[0], float(parts[1])
        except ValueError:
            if line.startswith("#"):
                continue
            log.warning("skipping bad score row at line %d: %r", lineno, line)
            continue
        if term in scores:
            log.warning("duplicate score entry for %r at line %d; keeping last",
                        term, lineno)
        scores[term] = value
    return ScoreMap(scores)


def save_scores(score_map: ScoreMap, out) -> None:
    for term in sorted(score_map.scores):
        out.write(f"{term}\t{score_map.scores[term]:.12g}\n")
