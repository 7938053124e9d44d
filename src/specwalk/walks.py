"""Per-entity walk corpus extraction with biased edge choice and pruning.

Bias modes: uniform over outgoing edges; frequency (global predicate
frequency); pagerank (next-node score, literals unscored); specificity (walk
follows a relationship template drawn from above-threshold table entries with
probability proportional to score). Pruning predicates follow the four
schemes NRSE / UE / NRST / UET.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, uniforms
from .specificity import SpecificityTable

BIASES = ("uniform", "frequency", "pagerank", "specificity")
PRUNING_SCHEMES = ("none", "NRSE", "UE", "NRST", "UET")


@dataclass(frozen=True)
class Walk:
    """Alternating node/predicate token sequence v0,e1,v1,...,ed,vd."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) < 3 or len(self.tokens) % 2 == 0:
            raise ValueError("walk must be v0,e1,v1,... with at least one edge")

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.tokens[0::2]

    @property
    def predicates(self) -> tuple[int, ...]:
        return self.tokens[1::2]

    @property
    def depth(self) -> int:
        return len(self.tokens) // 2


@dataclass
class WalkStrategy:
    bias: str = "uniform"
    pruning: str = "none"
    depth: int = 2
    walks_per_entity: int = 500
    specificity_table: SpecificityTable | None = None
    threshold: float = 0.5
    pagerank_scores: dict[int, float] | None = None

    def __post_init__(self):
        if self.bias not in BIASES:
            raise ValueError(f"unknown bias: {self.bias!r}")
        if self.pruning not in PRUNING_SCHEMES:
            raise ValueError(f"unknown pruning scheme: {self.pruning!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.walks_per_entity < 1:
            raise ValueError("walks_per_entity must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0,1]")
        if self.bias == "specificity" and self.specificity_table is None:
            raise ValueError("specificity bias requires a specificity table")
        if self.bias == "pagerank" and self.pagerank_scores is None:
            raise ValueError("pagerank bias requires node scores")


@dataclass
class EntityStats:
    entity: int
    attempts: int
    walks: int
    distinct: int


@dataclass
class WalkCorpus:
    walks: list[Walk] = field(default_factory=list)
    stats: list[EntityStats] = field(default_factory=list)


def prune_check(walk: Walk, scheme: str, g: Graph) -> bool:
    """True when the walk passes the pruning predicate.

    NRSE: the root must not reappear. UE: all nodes unique. NRST: no
    intermediate node (strictly before the terminal) shares a type with the
    root; the terminal may. UET: no two nodes anywhere share a type.
    """
    if scheme == "none":
        return True
    nodes = walk.nodes
    if scheme == "NRSE":
        return nodes[0] not in nodes[1:]
    if scheme == "UE":
        return len(set(nodes)) == len(nodes)
    if scheme == "NRST":
        root_types = g.types_of(nodes[0])
        if not root_types:
            return True
        return all(not (g.types_of(v) & root_types) for v in nodes[1:-1])
    if scheme == "UET":
        seen: set[int] = set()
        for v in nodes:
            ts = g.types_of(v)
            if ts & seen:
                return False
            seen |= ts
        return True
    raise ValueError(f"unknown pruning scheme: {scheme!r}")


def _walk_uniform(g, v0, depth, rng, weight_fn):
    tokens = [v0]
    v = v0
    for _ in range(depth):
        lo, hi = g.out_ptr[v:v + 2].tolist()
        if lo == hi:
            break
        if weight_fn is None:
            i = lo + rng.randrange(hi - lo)
            p, o = int(g.out_pred[i]), int(g.out_obj[i])
        else:
            edges = g.out_adj[v]
            weights = [weight_fn(p, o) for p, o in edges]
            total = sum(weights)
            if total <= 0:
                break
            p, o = rng.choices(edges, weights=weights)[0]
        tokens.extend((p, o))
        v = o
    return tokens if len(tokens) >= 3 else None


def _template_walks(g, v0, templates, weights, attempts, rng):
    """Each attempt's tokens (None when its template dead-ends), in attempt
    order. Templates for all attempts are drawn first, then one (attempts,
    longest template) block of uniforms; the attempts of one template walk
    together through Graph.sample_paths."""
    if not templates:
        return []
    picks = np.array(rng.choices(range(len(templates)), weights=weights,
                                 k=attempts))
    u = uniforms(rng, attempts, max(map(len, templates)))
    out: list[list[int] | None] = [None] * attempts
    for j, template in enumerate(templates):
        rows = np.flatnonzero(picks == j)
        if not len(rows):
            continue
        tokens = np.empty((len(rows), 2 * len(template) + 1), dtype=np.int64)
        tokens[:, 0::2] = g.sample_paths(np.full(len(rows), v0), template,
                                         u[rows])
        tokens[:, 1::2] = template
        for a, row in zip(rows.tolist(), tokens.tolist()):
            if row[-1] >= 0:
                out[a] = row
    return out


def extract_walks(g: Graph, entity: int, strategy: WalkStrategy,
                  seed: int = 0) -> WalkCorpus:
    """Up to walks_per_entity accepted walks rooted at entity.

    The budget counts attempts: walks rejected by pruning (or incomplete
    specificity templates) consume budget without being retried.
    """
    g._check(entity)
    rng = random.Random(f"{seed}|{entity}")
    corpus = WalkCorpus()

    weight_fn = None
    templates: list[tuple[int, ...]] = []
    template_weights: list[float] = []
    if strategy.bias == "frequency":
        freq = g.predicate_frequency()
        weight_fn = lambda p, o: freq[p]  # noqa: E731
    elif strategy.bias == "pagerank":
        scores = strategy.pagerank_scores
        weight_fn = lambda p, o: scores.get(o, 0.0)  # noqa: E731
    elif strategy.bias == "specificity":
        for e in strategy.specificity_table.above_threshold(
                strategy.depth, strategy.threshold):
            templates.append(e.relationship.predicates)
            template_weights.append(e.score)

    attempts = strategy.walks_per_entity
    if strategy.bias == "specificity":
        attempt_tokens = _template_walks(g, entity, templates,
                                         template_weights, attempts, rng)
    else:
        attempt_tokens = (_walk_uniform(g, entity, strategy.depth, rng,
                                        weight_fn) for _ in range(attempts))
    for tokens in attempt_tokens:
        if tokens is None:
            continue  # dead end, or an incomplete template: discard
        walk = Walk(tuple(tokens))
        if prune_check(walk, strategy.pruning, g):
            corpus.walks.append(walk)

    corpus.stats.append(EntityStats(
        entity=entity, attempts=attempts, walks=len(corpus.walks),
        distinct=len({w.tokens for w in corpus.walks})))
    return corpus


def extract_corpus(g: Graph, entities, strategy: WalkStrategy,
                   seed: int = 0, workers: int = 1) -> WalkCorpus:
    """Extract walks for many entities, merged in the given entity order.

    Per-entity random streams are derived from (seed, entity). `workers` is
    accepted for compatibility but extraction always runs sequentially: the
    walk loop is pure Python holding the interpreter lock, and threads made
    it slower, not faster.
    """
    merged = WalkCorpus()
    for e in entities:
        part = extract_walks(g, e, strategy, seed)
        merged.walks.extend(part.walks)
        merged.stats.extend(part.stats)
    return merged


# -- corpus files --------------------------------------------------------

def write_corpus(g: Graph, corpus: WalkCorpus, out,
                 header: dict | None = None) -> None:
    """One walk per line, space-separated tokens; '#' header records the run."""
    if header:
        fields = " ".join(f"{k}={v}" for k, v in sorted(header.items()))
        out.write(f"# {fields}\n")
    for walk in corpus.walks:
        out.write(" ".join(g.render_token(t) for t in walk.tokens) + "\n")


def write_stats_csv(g: Graph, corpus: WalkCorpus, out) -> None:
    out.write("entity,attempts,walks,distinct\n")
    for s in corpus.stats:
        out.write(f"{g.terms[s.entity]},{s.attempts},{s.walks},{s.distinct}\n")


def read_corpus_lines(stream):
    """Token lists from a corpus stream, skipping header/comment lines."""
    for line in stream:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        yield line.split(" ")
