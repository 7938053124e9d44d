"""Specificity of semantic relationships to an entity type.

Two routes are provided: an exact exhaustive computation over incoming-path
counts (mode "eq2") and a bidirectional random-walk Monte-Carlo estimator
(mode "alg2", the default). The estimator samples destination nodes in
proportion to forward-path multiplicity and weights reverse paths by the
product of inverse in-degrees, whereas the exact form averages uniformly over
distinct reachable nodes and counts paths uniformly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .graph import (Graph, GraphError, UnknownTermError, exact_counts,
                    hashed_state, hashed_uniforms, slice_members, slice_pick)

# Fixed implementation values, not parameters of the method.
FORWARD_RETRY_LIMIT = 10
CANDIDATES_PER_DEPTH = 25
BLOCK_ROWS = 8192  # (candidate, trial) rows advanced together; bounds memory


@dataclass(frozen=True, order=True)
class SemanticRelationship:
    """An ordered predicate sequence; a template for fixed-length paths."""

    predicates: tuple[int, ...]

    def __post_init__(self):
        if len(self.predicates) < 1:
            raise ValueError("relationship must contain at least one predicate")
        # templates are cast to int64 arrays, where 2.0 or True would alias
        for p in self.predicates:
            if type(p) is bool or not isinstance(p, (int, np.integer)):
                raise ValueError(f"predicate id must be an integer: {p!r}")

    @property
    def depth(self) -> int:
        return len(self.predicates)

    def render(self, graph: Graph) -> str:
        return "|".join(graph.terms[p] for p in self.predicates)


@dataclass(frozen=True)
class SpecificityEntry:
    relationship: SemanticRelationship
    score: float
    support: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score outside [0,1]: {self.score}")


@dataclass
class EstimatorParams:
    seed_set_size: int = 300
    n_walks: int = 2000
    max_depth: int = 1
    threshold: float = 0.5
    seed: int = 0
    mode: str = "alg2"  # "alg2" (estimator) or "eq2" (exact)
    include_type_edges: bool = False

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0,1]")
        if self.mode not in ("alg2", "eq2"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.n_walks <= self.seed_set_size:
            raise ValueError("n_walks must exceed seed_set_size")


@dataclass
class SpecificityTable:
    """Per-depth ranked relationship lists."""

    depths: dict[int, list[SpecificityEntry]] = field(default_factory=dict)
    # alg2 trial counts, {depth: {relationship: {"trials", "hits", "dead",
    # "se"}}}; empty for eq2 and for a table read from TSV
    counters: dict[int, dict] = field(default_factory=dict)

    def entries_at(self, depth: int) -> list[SpecificityEntry]:
        return self.depths.get(depth, [])

    def above_threshold(self, depth: int, threshold: float) -> list[SpecificityEntry]:
        return [e for e in self.entries_at(depth) if e.score >= threshold]

    def to_tsv(self, graph: Graph, out) -> None:
        out.write("depth\trelationship\tscore\tsupport\n")
        for depth in sorted(self.depths):
            for e in self.depths[depth]:
                out.write(f"{depth}\t{e.relationship.render(graph)}\t"
                          f"{e.score:.6f}\t{e.support}\n")

    @classmethod
    def from_tsv(cls, graph: Graph, lines):
        """Read the table that to_tsv writes.

        ValueError naming the line for a row that is not four tab-separated
        fields, names a term the graph lacks, holds a score outside [0, 1]
        or a relationship with a different number of predicates than its
        depth column.
        """
        table = cls()
        lines = iter(lines)
        header = next(lines, None)
        if header is None or not header.startswith("depth\t"):
            raise ValueError("missing specificity table header")
        for lineno, raw in enumerate(lines, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"specificity table line {lineno}: expected "
                                 f"4 tab-separated fields, got {len(fields)}")
            try:
                depth, score, support = (int(fields[0]), float(fields[2]),
                                         int(fields[3]))
                preds = tuple(graph.term_id(t) for t in fields[1].split("|"))
                if len(preds) != depth:
                    raise ValueError(f"depth {depth} but {len(preds)} "
                                     f"predicates in {fields[1]!r}")
                table.depths.setdefault(depth, []).append(SpecificityEntry(
                    SemanticRelationship(preds), score, support))
            except (ValueError, UnknownTermError) as exc:
                raise ValueError(f"specificity table line {lineno}: "
                                 f"{exc}") from None
        return table


# -- exact computation (path counts over the triple arrays) --------------

def _incoming_paths(g: Graph, origins):
    """Yield, for depth 1, 2, ..., the (total, from-origins) counts at every
    node of the length-depth paths (any predicates) ending there: each
    depth one propagation x[v] <- sum of x[u] over the triples (u, p, v),
    from all ones and from the origin indicator (see exact_counts)."""
    total, fro = np.ones(g.n_terms), np.zeros(g.n_terms)
    fro[g.ids(origins)] = 1.0
    while True:
        total = np.bincount(g.out_obj, total[g.out_src], g.n_terms)
        fro = np.bincount(g.out_obj, fro[g.out_src], g.n_terms)
        yield total, fro


def _exact_entry(rel: SemanticRelationship, reachable: np.ndarray,
                 counts: tuple[np.ndarray, np.ndarray]) -> SpecificityEntry:
    """eq2 entry from rel's reachable nodes and its depth's _incoming_paths."""
    if not len(reachable):
        return SpecificityEntry(rel, 0.0, 0)
    total, fro = exact_counts(counts[0][reachable]), counts[1][reachable]
    # every total is >= 1 (the forward path); cumsum adds left to right in
    # ascending node order, where np.sum's pairwise order can round otherwise
    acc = float(np.cumsum(fro / total)[-1])
    return SpecificityEntry(rel, acc / len(reachable),
                            sum(total.astype(np.int64).tolist()))


def exact_specificity(g: Graph, rel: SemanticRelationship, t,
                      seeds=None) -> SpecificityEntry:
    """Exhaustive specificity: mean over reachable nodes of the fraction of
    all incoming length-d paths (any predicates) that originate in the seed
    set. Seeds default to every entity of type t."""
    if seeds is None:
        seeds = g.entities_of_type(t)
        if not seeds:
            name = t if isinstance(t, str) else g.terms[t]
            raise GraphError(f"type has no instances: {name!r}")
    elif not len(seeds):
        raise ValueError("seed set must be non-empty")
    reachable, _ = g.path_counts(seeds, rel.predicates)
    return _exact_entry(rel, reachable, next(islice(
        _incoming_paths(g, seeds), rel.depth - 1, None)))


# -- bidirectional random-walk estimator ---------------------------------

def trial_outcomes(g: Graph, rels, seeds, type_set, n_walks: int,
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(hit, dead): whether each of the n_walks trials of each of the
    same-depth candidates rels hit, and whether its forward walk still
    dead-ended after the last retry, both (len(rels), n_walks) matrices.

    Rows are (candidate, trial) pairs, candidate-major. Each forward attempt
    advances the rows still pending together, in blocks of at most
    BLOCK_ROWS, and a row whose forward walk ends takes its reverse walk in
    the same block. Trial i of candidate (p1, ..., pd) reads the floats
    hashed_uniforms(seed, d, p1, ..., pd, i, c). Forward attempt a reads
    columns a(1 + d) to a(1 + d) + d: the first picks its seed,
    seeds[floor(u * |S|)] of the sorted seed set, and the others walk the
    candidate's predicates with Graph.sample_paths to the object of the
    last edge taken. Rows that dead-end retry with the next attempt, up to
    FORWARD_RETRY_LIMIT times, and only they draw its columns. The reverse
    walk takes any in-edges with Graph.sample_paths(inward=True), reading
    the d columns after the last attempt's. A trial hits when it lands on a
    member of type_set; a forward or reverse dead-end is a miss. Trial i
    depends on the seed, its candidate and i alone, so the outcomes at
    budget n are the first n outcomes at any larger budget, whatever the
    other candidates and the block bounds.
    """
    depth = rels[0].depth if rels else 1
    preds = np.array([r.predicates for r in rels],
                     dtype=np.int64).reshape(len(rels), depth)
    seeds = np.sort(g.ids(seeds))
    width = 1 + depth
    member = np.zeros(g.n_terms, dtype=bool)
    member[list(type_set)] = True
    prefix = hashed_state(seed, depth, *preds.T)  # one per candidate
    hit = np.zeros(len(rels) * n_walks, dtype=bool)
    todo = np.arange(len(hit))  # rows whose forward walk has not ended
    for attempt in range(FORWARD_RETRY_LIMIT + 1):
        if not len(todo):
            break
        left = []
        for r0 in range(0, len(todo), BLOCK_ROWS):
            rows = todo[r0:r0 + BLOCK_ROWS]
            cand, trial = np.divmod(rows, n_walks)
            state = hashed_state(prefix[cand], trial)[:, None]
            u = hashed_uniforms(state, attempt * width + np.arange(width))
            starts = seeds[slice_pick(np.zeros(len(rows), dtype=np.int64),
                                      np.full(len(rows), len(seeds)), u[:, 0])]
            # a (d, rows) predicate matrix: column i holds row i's predicates
            last = g.sample_paths(starts, u[:, 1:], preds[cand].T)[:, -1]
            done = last >= 0
            left.append(rows[~done])
            u = hashed_uniforms(state[done], (FORWARD_RETRY_LIMIT + 1) * width
                                + np.arange(depth))
            back = g.sample_paths(g.out_obj[last[done]], u, inward=True)[:, -1]
            hit[rows[done]] = (back >= 0) & member[g.out_src[back]]
        todo = np.concatenate(left)
    dead = np.zeros(len(hit), dtype=bool)
    dead[todo] = True
    return hit.reshape(-1, n_walks), dead.reshape(-1, n_walks)


def estimate_specificity(g: Graph, candidates, seeds, t, n_walks: int,
                         seed: int = 0) -> list[SpecificityEntry]:
    """Monte-Carlo specificity per candidate via bidirectional walks.

    Each of the n_walks trials forward-walks from a random seed along the
    candidate's exact predicate sequence, then reverse-walks the same depth
    along arbitrary incoming edges; the trial counts when it lands on a node
    of type t. A forward walk that dead-ends is retried from a fresh seed up
    to FORWARD_RETRY_LIMIT times; a trial still dead-ended counts as a miss.
    The score is the mean of trial_outcomes' hits, one lockstep per depth.
    """
    seeds = g.ids(seeds)
    if not len(seeds):
        raise ValueError("seed set must be non-empty")
    if n_walks <= len(seeds):
        raise ValueError("n_walks must exceed the seed set size")
    type_set = g.entities_of_type(t)
    candidates = list(candidates)
    hits = {}
    for depth in sorted({rel.depth for rel in candidates}):
        rels = [rel for rel in candidates if rel.depth == depth]
        hit, _ = trial_outcomes(g, rels, seeds, type_set, n_walks, seed)
        hits.update(zip(rels, hit.sum(axis=1).tolist()))
    return [SpecificityEntry(rel, hits[rel] / n_walks, n_walks)
            for rel in candidates]


# -- candidate selection -------------------------------------------------

def _extend(g: Graph, frontiers: dict, include_type_edges: bool) -> dict:
    """Sequence -> (nodes, paths), as from Graph.path_counts, of every
    one-predicate extension of the prefixes in such a map, most frequent
    (paths summed) first, ties to the smaller predicate ids."""
    found = []
    for prefix, (nodes, paths) in frontiers.items():
        at, owner = slice_members(g.out_ptr[nodes], g.out_ptr[nodes + 1])
        if not include_type_edges and g.rdf_type_id is not None:
            keep = g.out_pred[at] != g.rdf_type_id
            at, owner = at[keep], owner[keep]
        # int64: with int32 ids the product wraps past 46,340 terms
        keys, inv = np.unique(g.out_pred[at].astype(np.int64) * g.n_terms
                              + g.out_obj[at], return_inverse=True)
        counts = np.bincount(inv, paths[owner], len(keys))
        preds, objs = np.divmod(keys, g.n_terms)
        lo = np.flatnonzero(np.diff(preds, prepend=-1))  # predicate starts
        found += zip((-exact_counts(np.add.reduceat(counts, lo))).tolist(),
                     [prefix + (p,) for p in preds[lo].tolist()],
                     np.split(objs, lo[1:]), np.split(counts, lo[1:]))
    found.sort(key=lambda c: c[:2])
    return {seq: (nodes, paths) for _, seq, nodes, paths in found}


# -- full ranking pipeline -----------------------------------------------

def rank_at_budgets(g: Graph, t, params: EstimatorParams,
                    budgets) -> list[SpecificityTable]:
    """rank_by_specificity at each n_walks in budgets, one table per value,
    from one estimator run per depth.

    The budgets share the seed set and every draw: trial i of a candidate
    has one outcome at every budget, so each depth scores the union of the
    budgets' candidates once, at the largest budget, and budget n reads the
    first n trials. Budgets may keep different entries at one depth and so
    extend different prefixes at the next; outcomes are shared per
    candidate. An alg2 table's counters hold, per depth and candidate,
    trials, hits, forward dead-ends after the last retry and the standard
    error sqrt(p(1 - p) / trials) of its score p.
    """
    for n in budgets:  # each budget must make valid params
        replace(params, n_walks=n)
    t_id = g.term_id(t) if isinstance(t, str) else t
    seeds = sorted(g.sample_entities(t_id, params.seed_set_size, params.seed))
    type_set = g.entities_of_type(t_id)
    incoming = _incoming_paths(g, seeds)
    tables = [SpecificityTable() for _ in budgets]
    frontiers = {(): g.path_counts(seeds, ())}
    kept = [{()} for _ in budgets]  # prefixes each budget extends
    for depth in range(1, params.max_depth + 1):
        frontiers = _extend(g, frontiers, params.include_type_edges)
        chosen = [[SemanticRelationship(seq) for seq in islice(
            (seq for seq in frontiers if seq[:-1] in k),
            CANDIDATES_PER_DEPTH * depth)] for k in kept]
        union = sorted(set().union(*chosen))
        if params.mode == "eq2":
            counts = next(incoming)
            exact = {rel: _exact_entry(rel, frontiers[rel.predicates][0],
                                       counts) for rel in union}
        else:
            hit, dead = trial_outcomes(g, union, seeds, type_set,
                                       max(budgets), params.seed)
            row = {rel: i for i, rel in enumerate(union)}
        for table, rels, n in zip(tables, chosen, budgets):
            if params.mode == "eq2":
                entries = [exact[rel] for rel in rels]
            else:
                at = [row[rel] for rel in rels]
                hits = hit[at, :n].sum(axis=1).tolist()
                deads = dead[at, :n].sum(axis=1).tolist()
                entries = [SpecificityEntry(rel, h / n, n)
                           for rel, h in zip(rels, hits)]
                table.counters[depth] = {
                    rel: {"trials": n, "hits": h, "dead": d,
                          "se": math.sqrt(h / n * (1 - h / n) / n)}
                    for rel, h, d in zip(rels, hits, deads)}
            entries.sort(key=lambda e: (-e.score, e.relationship.predicates))
            table.depths[depth] = entries
        kept = [{e.relationship.predicates for e in table.above_threshold(
            depth, params.threshold)} for table in tables]
        frontiers = {seq: frontiers[seq] for seq in set().union(*kept)}
    return tables


def rank_by_specificity(g: Graph, t, params: EstimatorParams) -> SpecificityTable:
    """Ranked specificity tables for depths 1..max_depth.

    Depth 1 candidates come from frequency enumeration; deeper depths extend
    only entries whose score met the threshold at the previous depth, from
    their kept frontiers; eq2 steps its path counts once per depth, and
    alg2 scores a depth's candidates in one lockstep.
    """
    return rank_at_budgets(g, t, params, [params.n_walks])[0]
