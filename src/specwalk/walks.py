"""Walk corpus extraction with biased edge choice and pruning.

Bias modes: uniform over outgoing edges; frequency (global predicate
frequency); pagerank (next-node score, literals unscored); specificity (walk
follows a relationship template drawn from above-threshold table entries with
probability proportional to score). Pruning predicates follow the four
schemes NRSE / UE / NRST / UET.

Every attempt of every entity advances together, one step at a time, over
the graph's triple arrays. Attempt a of entity e reads only the draws
hashed_uniforms(seed, e, a, column): column 0 picks a specificity template,
column k + 1 picks step k. So an entity's walks depend only on (seed,
entity), and attempt a does not depend on the budget.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Graph, distinct_rows, hashed_uniforms, slice_members
from .specificity import SpecificityTable

BIASES = ("uniform", "frequency", "pagerank", "specificity")
PRUNING_SCHEMES = ("none", "NRSE", "UE", "NRST", "UET")

CHUNK_ROWS = 8192  # rows walked or written together; bounds working arrays


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
        if self.bias == "pagerank" and not all(
                0.0 <= s < math.inf for s in self.pagerank_scores.values()):
            raise ValueError("pagerank scores must be finite and >= 0")


class EntityStats(NamedTuple):
    entity: int
    attempts: int
    walks: int
    distinct: int


class _View(Sequence):
    """Read-only sequence over some of a corpus's arrays that builds one
    record per index on access; extend(view) concatenates the arrays."""

    def __init__(self, corpus: "WalkCorpus", names: tuple[str, ...], record):
        self._corpus, self._names, self._record = corpus, names, record

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self._corpus, name) for name in self._names]

    def __len__(self) -> int:
        return len(self._arrays()[0])

    def __getitem__(self, i):
        return self._record(*(a[i].tolist() for a in self._arrays()))

    def __iter__(self):
        return map(self._record, *(a.tolist() for a in self._arrays()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def extend(self, other: "_View") -> None:
        """Append other's records; token rows are padded with -1 to the
        wider of the two widths."""
        for name, a, b in zip(self._names, self._arrays(), other._arrays()):
            if a.ndim == 2:
                width = max(a.shape[1], b.shape[1])
                a, b = (np.pad(x, ((0, 0), (0, width - x.shape[1])),
                               constant_values=-1) for x in (a, b))
            setattr(self._corpus, name, np.concatenate((a, b)))


def _ints(*shape):
    return field(default_factory=lambda: np.zeros(shape, dtype=np.int64))


@dataclass(eq=False)
class WalkCorpus:
    """Accepted walks as token rows, int64 padded with -1 after each walk's
    last token; per listed entity, its id, attempts, accepted walks and
    distinct walks; and the counters of the extraction pass.

    `walks` and `stats` are views that build a Walk or an EntityStats per row
    on access.
    """

    tokens: np.ndarray = _ints(0, 0)
    entity: np.ndarray = _ints(0)
    attempts: np.ndarray = _ints(0)
    accepted: np.ndarray = _ints(0)
    distinct: np.ndarray = _ints(0)
    counters: dict = field(default_factory=dict)

    @property
    def walks(self) -> _View:
        return _View(self, ("tokens",),
                     lambda row: Walk(tuple(t for t in row if t >= 0)))

    @property
    def stats(self) -> _View:
        return _View(self, ("entity", "attempts", "accepted", "distinct"),
                     EntityStats)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WalkCorpus) and self.walks == other.walks
                and self.stats == other.stats
                and self.counters == other.counters)


def prune_mask(g: Graph, nodes: np.ndarray, scheme: str) -> np.ndarray:
    """Per row of `nodes`, one walk's nodes padded with -1 after its last,
    True when the walk passes the pruning predicate.

    NRSE: the root must not reappear. UE: all nodes unique. NRST: no
    intermediate node (strictly before the terminal) shares a type with the
    root; the terminal may. UET: no two nodes anywhere share a type. A type
    shared within a row shows as a repeated (row, type) pair; a repeated
    typed node counts as sharing its types.
    """
    if scheme not in PRUNING_SCHEMES:
        raise ValueError(f"unknown pruning scheme: {scheme!r}")
    ok = np.ones(len(nodes), dtype=bool)
    if scheme == "none":
        return ok
    if scheme == "NRSE":
        return ~(nodes[:, 1:] == nodes[:, :1]).any(axis=1)
    if scheme == "UE":
        s = np.sort(nodes, axis=1)
        return ~((s[:, 1:] == s[:, :-1]) & (s[:, 1:] >= 0)).any(axis=1)
    if g.rdf_type_id is None:
        return ok
    at, owner = slice_members(*g.out_slices(nodes.ravel(), g.rdf_type_id))
    row, col = np.divmod(owner, nodes.shape[1])
    pair = row * g.n_terms + g.out_obj[at]
    if scheme == "UET":
        pair = np.sort(pair)
        bad = pair[1:][pair[1:] == pair[:-1]] // g.n_terms
    else:
        last = (nodes >= 0).sum(axis=1) - 1
        inner = (col > 0) & (col < last[row])
        bad = row[inner][np.isin(pair[inner], pair[col == 0])]
    ok[bad] = False
    return ok


def prune_check(walk: Walk, scheme: str, g: Graph) -> bool:
    """True when the walk passes the pruning predicate (see prune_mask)."""
    return bool(prune_mask(g, np.array([walk.nodes]), scheme)[0])


def _cumulative(weights):
    """(cum, last): cum[i] sums weights[:i]; last[i] is the last index <= i
    with a positive weight, -1 if none."""
    w = np.asarray(weights, dtype=np.float64)
    return (np.concatenate(([0.0], np.cumsum(w))),
            np.maximum.accumulate(np.where(w > 0, np.arange(len(w)), -1)))


def weighted_pick(cum, last, lo, hi, u) -> np.ndarray:
    """Per row, the index i in [lo, hi) whose cumulative weight first
    exceeds cum[lo] + u * (cum[hi] - cum[lo]), or, where rounding leaves
    none, the slice's last positive-weight index; -1 where the slice's total
    is zero. A zero-weight index is never picked."""
    base = cum[lo]
    total = cum[hi] - base
    out = np.full(len(lo), -1, dtype=np.int64)
    ok = total > 0
    i = np.searchsorted(cum, base[ok] + u[ok] * total[ok], "right") - 1
    out[ok] = last[np.minimum(i, hi[ok] - 1)]
    return out


def _edge_picker(g: Graph, strategy: WalkStrategy):
    """Graph.sample_paths's pick for a free walk: None, the uniform default,
    or out-edges weighted by predicate frequency or the object's score."""
    if strategy.bias == "uniform":
        return None
    if strategy.bias == "frequency":
        weights = g.predicate_frequency()[g.out_pred]
    else:
        scores = np.zeros(g.n_terms)
        scores[list(strategy.pagerank_scores)] = list(
            strategy.pagerank_scores.values())
        weights = scores[g.out_obj]
    cum, last = _cumulative(weights)
    return lambda lo, hi, u: weighted_pick(cum, last, lo, hi, u)


def _walk_tokens(g: Graph, roots: np.ndarray, strategy: WalkStrategy, seed):
    """Per chunk of attempt rows r (attempt r % walks_per_entity of root i =
    r // walks_per_entity): (i, token rows padded with -1); a template walk
    that does not complete holds only its root."""
    attempts, depth = strategy.walks_per_entity, strategy.depth
    if strategy.bias == "specificity":
        entries = strategy.specificity_table.above_threshold(
            depth, strategy.threshold)
        if any(e.relationship.depth != depth for e in entries):
            raise ValueError(f"specificity templates at depth {depth} must "
                             f"have {depth} predicates")
        templates = np.array([e.relationship.predicates for e in entries],
                             dtype=np.int64).reshape(-1, depth)
        cum = _cumulative([e.score for e in entries])
    else:
        pick = _edge_picker(g, strategy)
    n_rows = len(roots) * attempts
    for r0 in range(0, n_rows, CHUNK_ROWS):
        rows = np.arange(r0, min(r0 + CHUNK_ROWS, n_rows))
        root = roots[rows // attempts]
        u = hashed_uniforms(seed, root[:, None], (rows % attempts)[:, None],
                            np.arange(depth + 1))
        if strategy.bias == "specificity":
            j = weighted_pick(*cum, np.zeros(len(rows), dtype=np.int64),
                              np.full(len(rows), len(templates)), u[:, 0])
            edges = np.full((len(rows), depth), -1, dtype=np.int64)
            has = j >= 0
            edges[has] = g.sample_paths(root[has], u[has, 1:],
                                        templates[j[has]].T)
            edges[edges[:, -1] < 0] = -1  # an incomplete template is dead
        else:
            edges = g.sample_paths(root, u[:, 1:], pick=pick)
        taken = edges >= 0
        tokens = np.full((len(rows), 2 * depth + 1), -1, dtype=np.int64)
        tokens[:, 0] = root
        tokens[:, 1::2][taken] = g.out_pred[edges[taken]]
        tokens[:, 2::2][taken] = g.out_obj[edges[taken]]
        yield rows // attempts, tokens


def extract_corpus(g: Graph, entities, strategy: WalkStrategy,
                   seed: int = 0, workers: int = 1) -> WalkCorpus:
    """Up to walks_per_entity accepted walks rooted at each entity, in entity
    order, then attempt order; one stats record per listed entity.

    The budget counts attempts: walks rejected by pruning (counted as
    `pruned`), dead-ended at the root or along an incomplete specificity
    template (`dead`) consume budget without being retried. A free walk that
    dead-ends after at least one step is kept, shorter. `workers` is
    accepted for compatibility and ignored.
    """
    roots = list(entities)
    if not (set(map(type, roots)) <= {int}
            and (not roots or 0 <= min(roots) and max(roots) < g.n_terms)):
        for e in roots:  # name the first bad root
            g._check(e)
    roots = np.array(roots, dtype=np.int64)
    attempts = strategy.walks_per_entity
    blocks, n_live = [], 0  # accepted rows, each after its root's index
    for owner, tokens in _walk_tokens(g, roots, strategy, seed):
        nodes = tokens[:, 0::2]
        live = nodes[:, 1] >= 0
        keep = live & prune_mask(g, nodes, strategy.pruning)
        blocks.append(np.column_stack((owner[keep], tokens[keep])))
        n_live += int(live.sum())

    n_rows = len(roots) * attempts
    owned = np.concatenate(
        blocks or [np.zeros((0, 2 * strategy.depth + 2), dtype=np.int64)])
    owner, tokens = owned[:, 0], owned[:, 1:]
    distinct = distinct_rows(owned)[:, 0]
    return WalkCorpus(
        tokens, roots, np.full(len(roots), attempts),
        np.bincount(owner, minlength=len(roots)),
        np.bincount(distinct, minlength=len(roots)),
        {"attempts": n_rows, "accepted": len(tokens),
         "distinct": len(distinct), "pruned": n_live - len(tokens),
         "dead": n_rows - n_live})


# -- corpus files --------------------------------------------------------

def write_corpus(g: Graph, corpus: WalkCorpus, out,
                 header: dict | None = None) -> None:
    """One walk per line, space-separated tokens, after a '# ' header line
    that records the run. Each distinct token is rendered once."""
    if header:
        fields = " ".join(f"{k}={v}" for k, v in sorted(header.items()))
        out.write(f"# {fields}\n")
    tokens = corpus.tokens
    seen = np.zeros(g.n_terms + 1, dtype=bool)
    seen[tokens] = True  # padding (-1) marks the last slot, which stays ""
    ids = np.flatnonzero(seen[:-1]).tolist()
    word = np.full(g.n_terms + 1, "", dtype=object)
    word[ids] = [g.render_token(t) for t in ids]
    spaced = np.full(g.n_terms + 1, "", dtype=object)
    spaced[ids] = [" " + w for w in word[ids]]
    for r0 in range(0, len(tokens), CHUNK_ROWS):
        block = tokens[r0:r0 + CHUNK_ROWS]
        cells = np.empty((len(block), block.shape[1] + 1), dtype=object)
        cells[:, 0] = word[block[:, 0]]
        cells[:, 1:-1] = spaced[block[:, 1:]]
        cells[:, -1] = "\n"
        out.write("".join(cells.ravel().tolist()))


def write_stats_csv(g: Graph, corpus: WalkCorpus, out) -> None:
    out.write("entity,attempts,walks,distinct\n")
    for s in corpus.stats:
        out.write(f"{g.terms[s.entity]},{s.attempts},{s.walks},{s.distinct}\n")


def read_corpus_lines(stream):
    """Token lists from a corpus stream, each line split on runs of
    whitespace (render_token escapes it within a token). Only the first line
    can be a header, and only when it starts with '# ': a later line that
    starts with '#' is a walk rooted at an IRI such as <#a>. Blank lines are
    skipped."""
    for i, line in enumerate(stream):
        tokens = line.split()
        if tokens and not (i == 0 and line.startswith("# ")):
            yield tokens
