"""The benchmark's workloads: inputs, the pipeline driver and its checks.

Each workload builds its input from a ``specwalk.synth`` generator seeded by
the benchmark's ``--seed``, writes it to an N-Triples file, and then runs the
pipeline on that file the way the CLI would: every call into a specwalk
module goes through ``Tracer.call``, in CLI order, with the same file round
trips (snapshot, specificity table, score file, corpus, model). All work runs
in this one process with ``workers=1``.

Three methods per workload:

* ``setup(seed, workdir)`` generates the graph and writes the input files
  (what ``specwalk synth`` does). It counts toward ``setup_s``.
* ``pipeline(inputs, tracer, workdir)`` is timed as ``pipeline_s``: from
  reading the input file to the final output.
* ``inspect(inputs, out, checks)`` runs after the timed region. It checks the
  outputs and returns the deterministic counts and quality figures of the
  run, keyed by metric name.

Why each workload exists, and which layer it stresses, is in its docstring.
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
from collections import Counter
from dataclasses import replace

import numpy as np

from specwalk.graph import read_snapshot, write_snapshot
from specwalk.ntriples import load_graph, serialize_ntriples
from specwalk.pagerank import compute_pagerank, load_scores, save_scores
from specwalk.recommend import precision_at_k, sensitivity_sweep, top_k
from specwalk.skipgram import EmbeddingModel, TrainConfig, train
from specwalk.specificity import (EstimatorParams, SpecificityTable,
                                  rank_by_specificity)
from specwalk.synth import RelSpec, franchise_graph, layered_graph
from specwalk.walks import (WalkCorpus, WalkStrategy, extract_corpus,
                            read_corpus_lines, write_corpus)


class Checks:
    """Named correctness checks; each one counts toward ``error_rate``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


# -- helpers shared by the workloads ---------------------------------------

def _write(path: str, fill) -> None:
    with open(path, "w", encoding="utf-8") as f:
        fill(f)


def _read(path: str, parse):
    with open(path, encoding="utf-8") as f:
        return parse(f)


def _write_input(g, workdir: str) -> str:
    path = os.path.join(workdir, "input.nt")
    _write(path, lambda f: serialize_ntriples(g, f))
    return path


def _ingest(tr, inputs: dict, workdir: str):
    """``specwalk ingest`` then the snapshot read every later command does.

    Returns the parsed graph and the graph read back from the snapshot.
    """
    parsed = tr.call("ntriples.parse", load_graph, inputs["nt"])
    snap = os.path.join(workdir, "graph.snap")
    tr.call("graph.snapshot_write", write_snapshot, parsed, snap)
    g = tr.call("graph.snapshot_read", read_snapshot, snap)
    tr.call("graph.checksum", g.checksum)
    return parsed, g, snap


def _ingest_counts(inputs: dict, out: dict, checks: Checks) -> dict:
    parsed, g = out["parsed"], out["graph"]
    checks.check("snapshot checksum equals the generated graph's",
                 g.checksum() == inputs["checksum"])
    return {"ntriples.skipped_lines": parsed.report.skipped,
            "ntriples.parsed_triples": parsed.n_triples,
            "graph.n_triples": g.n_triples, "graph.n_terms": g.n_terms,
            "graph.snapshot_bytes": os.path.getsize(out["snapshot"])}


def _walk_counts(corpora: list[WalkCorpus]) -> dict:
    attempts = sum(s.attempts for c in corpora for s in c.stats)
    accepted = sum(len(c.walks) for c in corpora)
    return {"walks.attempts": attempts, "walks.accepted": accepted,
            "walks.accept_ratio": accepted / attempts if attempts else 0.0,
            "walks.distinct": sum(len({w.tokens for w in c.walks})
                                  for c in corpora),
            "walks.tokens": sum(len(w.tokens) for c in corpora
                                for w in c.walks)}


def pair_counts(lines, window: int) -> tuple[int, int]:
    """(total, distinct) ordered (center, context) pairs in one epoch.

    Counted the way ``specwalk.skipgram.train`` visits them: every ordered
    pair of positions at most ``window`` apart within a line.
    """
    total = 0
    distinct: set[tuple[str, str]] = set()
    for line, mult in Counter(map(tuple, lines)).items():
        n = len(line)
        for i in range(n):
            lo, hi = max(0, i - window), min(n, i + window + 1)
            total += mult * (hi - lo - 1)
            distinct.update((line[i], line[j]) for j in range(lo, hi) if j != i)
    return total, len(distinct)


def _train_counts(trained: list[tuple[list[list[str]], TrainConfig]],
                  final_loss: float) -> dict:
    pairs = per_epoch = distinct = 0
    for lines, config in trained:
        total, uniq = pair_counts(lines, config.window)
        per_epoch += total
        distinct += uniq
        pairs += total * config.epochs
    return {"skipgram.pairs": pairs,
            "skipgram.distinct_pair_ratio": distinct / per_epoch,
            "skipgram.final_loss": final_loss}


def _finite(model: EmbeddingModel) -> bool:
    return bool(np.isfinite(model.w_in).all())


def _table_counts(table: SpecificityTable, n_walks: int) -> dict:
    candidates = sum(len(v) for v in table.depths.values())
    return {"specificity.candidates": candidates,
            "specificity.trials": candidates * n_walks}


# -- workloads ---------------------------------------------------------------

class FranchiseE2E:
    """The paper's pipeline on the criterion-7 franchise graph (705 triples).

    ingest -> specificity (alg2, depth 2) -> specificity-biased and uniform
    walks at depths 1 and 2 -> SGNS on each corpus -> precision@3 of film
    recommendations. SGNS does nearly all the work; the specificity corpus
    repeats each (center, context) pair hundreds of times, so it is the
    workload on which training on deduplicated pair counts would show. The
    graph, walk and recommend layers barely register here.
    """

    name = "franchise-e2e"

    def __init__(self, smoke: bool = False):
        self.walks_per_entity = 6 if smoke else 20
        self.train_config = TrainConfig(dim=64, window=10, negatives=10,
                                        epochs=2 if smoke else 5)

    def setup(self, seed: int, workdir: str) -> dict:
        g, info = franchise_graph(seed)
        truth = os.path.join(workdir, "truth.json")
        _write(truth, lambda f: json.dump(info["truth"], f, sort_keys=True))
        return {"seed": seed, "nt": _write_input(g, workdir), "truth": truth,
                "type": info["type"], "checksum": g.checksum()}

    def pipeline(self, inputs: dict, tr, workdir: str) -> dict:
        seed = inputs["seed"]
        parsed, g, snap = _ingest(tr, inputs, workdir)
        t = g.term_id(inputs["type"])
        params = EstimatorParams(seed_set_size=30, n_walks=600, max_depth=2,
                                 seed=seed + 1)
        ranked = tr.call("specificity.rank", rank_by_specificity, g, t, params)
        table_path = os.path.join(workdir, "spec.tsv")
        tr.call("specificity.table_write", _write, table_path,
                lambda f: ranked.to_tsv(g, f))
        table = tr.call("specificity.table_read", _read, table_path,
                        lambda f: SpecificityTable.from_tsv(g, f))
        films = sorted(g.entities_of_type(t))
        truth = _read(inputs["truth"], json.load)
        candidates = {g.render_token(v) for v in films}
        config = replace(self.train_config, seed=seed + 3)
        out = {"parsed": parsed, "graph": g, "snapshot": snap, "table": table,
               "params": params, "runs": {}}
        for bias in ("specificity", "uniform"):
            corpus = WalkCorpus()
            for depth in (1, 2):
                strategy = WalkStrategy(
                    bias=bias, depth=depth,
                    walks_per_entity=self.walks_per_entity,
                    specificity_table=table if bias == "specificity" else None)
                part = tr.call("walks.extract", extract_corpus, g, films,
                               strategy, seed=seed + 2, workers=1)
                corpus.walks.extend(part.walks)
                corpus.stats.extend(part.stats)
            corpus_path = os.path.join(workdir, f"{bias}.corpus")
            header = {"bias": bias, "depth": 2, "graph": g.checksum()}
            tr.call("walks.write_corpus", _write, corpus_path,
                    lambda f: write_corpus(g, corpus, f, header))
            lines = tr.call("walks.read_corpus", _read, corpus_path,
                            lambda f: list(read_corpus_lines(f)))
            model = tr.call("skipgram.train", train, lines, config)
            model_path = os.path.join(workdir, f"{bias}.model")
            tr.call("skipgram.model_save", _write, model_path, model.save_text)
            loaded = tr.call("skipgram.model_load", _read, model_path,
                             EmbeddingModel.load_text)
            precisions, pools = [], []
            for query in sorted(truth):
                if query not in loaded.vocab.index:
                    precisions.append(0.0)
                    continue
                rec = tr.call("recommend.topk", top_k, loaded, query, 3,
                              candidates=candidates)
                precisions.append(tr.call("recommend.precision", precision_at_k,
                                          rec, set(truth[query])))
                pools.append(len((candidates & loaded.vocab.index.keys())
                                 - {query}))
            out["runs"][bias] = {
                "corpus": corpus, "lines": lines, "config": config,
                "model": model, "loaded": loaded, "pools": pools,
                "precision": sum(precisions) / len(precisions)}
        return out

    def inspect(self, inputs: dict, out: dict, checks: Checks) -> dict:
        g, table, runs = out["graph"], out["table"], out["runs"]
        spec, uni = runs["specificity"], runs["uniform"]
        p_spec, p_uni = spec["precision"], uni["precision"]
        checks.check("precision@3 of the specificity model >= 0.8",
                     p_spec >= 0.8, f"{p_spec:.3f}")
        checks.check("precision@3 of the specificity model >= uniform's",
                     p_spec >= p_uni, f"{p_spec:.3f} < {p_uni:.3f}")
        bad = [w for r in runs.values() for w in r["corpus"].walks
               if any(w.tokens[i:i + 3] not in g.triples
                      for i in range(0, len(w.tokens) - 2, 2))]
        checks.check("every walk replays as graph triples", not bad,
                     f"{len(bad)} walks do not")
        templates = {e.relationship.predicates
                     for d in table.depths for e in table.above_threshold(d, 0.5)}
        off = [w for w in spec["corpus"].walks if w.predicates not in templates]
        checks.check("every specificity walk follows an above-threshold "
                     "template", not off, f"{len(off)} walks do not")
        checks.check("embeddings are finite",
                     all(_finite(r[m]) for r in runs.values()
                         for m in ("model", "loaded")))
        pools = spec["pools"] + uni["pools"]
        return {
            **_ingest_counts(inputs, out, checks),
            **_table_counts(table, out["params"].n_walks),
            **_walk_counts([r["corpus"] for r in runs.values()]),
            **_train_counts([(r["lines"], r["config"]) for r in runs.values()],
                            spec["model"].epoch_losses[-1]),
            "recommend.queries": len(pools),
            "recommend.pool_size": statistics.median_low(pools),
            "precision_at_3": p_spec,
            "precision_at_3_uniform": p_uni,
        }


class KGWalk:
    """A 100k-triple franchise graph (25k terms, 5,000 films).

    ingest -> checksum -> PageRank -> depth-3 walks from every film under
    uniform/UET, frequency/NRSE and pagerank/none -> write each corpus ->
    one SGNS epoch on a fixed slice of the uniform corpus -> top-k over the
    whole vocabulary for a fixed sample of films. Here the ntriples, graph,
    walks and pagerank layers dominate, so it is the workload for the CSR
    graph and snapshot work. Its corpus is varied (few repeated pairs), so a
    training change that helps only repetitive corpora should not show here,
    and one that slows varied corpora would. top_k ranks the whole model
    vocabulary here, against 30 films on franchise-e2e.
    """

    name = "kg-walk"
    PAIRS = (("uniform", "UET"), ("frequency", "NRSE"), ("pagerank", "none"))

    def __init__(self, smoke: bool = False):
        self.scale = (dict(n_franchises=20, films_per=5, n_distractor_films=100,
                           n_noise=400) if smoke else
                      dict(n_franchises=400, films_per=5,
                           n_distractor_films=3000, n_noise=10000))
        self.walks_per_entity = 2 if smoke else 3
        self.slice_lines = 200 if smoke else 600
        self.queries = 12 if smoke else 60
        self.train_config = TrainConfig(dim=64, window=10, negatives=10,
                                        epochs=1)

    def setup(self, seed: int, workdir: str) -> dict:
        g, info = franchise_graph(seed, **self.scale)
        return {"seed": seed, "nt": _write_input(g, workdir),
                "type": info["type"], "checksum": g.checksum()}

    def pipeline(self, inputs: dict, tr, workdir: str) -> dict:
        seed = inputs["seed"]
        parsed, g, snap = _ingest(tr, inputs, workdir)
        scores = tr.call("pagerank.compute", compute_pagerank, g)
        scores_path = os.path.join(workdir, "pagerank.tsv")
        tr.call("pagerank.scores_write", _write, scores_path,
                lambda f: save_scores(scores, f))
        bound = tr.call("pagerank.scores_read", _read, scores_path,
                        lambda f: load_scores(f).bind(g))
        films = sorted(g.entities_of_type(g.term_id(inputs["type"])))
        corpora, paths = [], {}
        for bias, pruning in self.PAIRS:
            strategy = WalkStrategy(
                bias=bias, pruning=pruning, depth=3,
                walks_per_entity=self.walks_per_entity,
                pagerank_scores=bound if bias == "pagerank" else None)
            corpus = tr.call("walks.extract", extract_corpus, g, films,
                             strategy, seed=seed + 2, workers=1)
            paths[bias] = os.path.join(workdir, f"{bias}.corpus")
            header = {"bias": bias, "pruning": pruning, "depth": 3,
                      "graph": g.checksum()}
            tr.call("walks.write_corpus", _write, paths[bias],
                    lambda f: write_corpus(g, corpus, f, header))
            corpora.append(corpus)
        lines = tr.call("walks.read_corpus", _read, paths["uniform"],
                        lambda f: list(read_corpus_lines(f)))
        step = max(1, len(lines) // self.slice_lines)
        train_lines = lines[::step][:self.slice_lines]
        config = replace(self.train_config, seed=seed + 3)
        model = tr.call("skipgram.train", train, train_lines, config)
        model_path = os.path.join(workdir, "model.txt")
        tr.call("skipgram.model_save", _write, model_path, model.save_text)
        loaded = tr.call("skipgram.model_load", _read, model_path,
                         EmbeddingModel.load_text)
        film_tokens = sorted({g.render_token(v) for v in films}
                             & loaded.vocab.index.keys())
        queries = random.Random(seed).sample(
            film_tokens, min(self.queries, len(film_tokens)))
        for query in queries:
            tr.call("recommend.topk", top_k, loaded, query, 10)
        return {"parsed": parsed, "graph": g, "snapshot": snap,
                "scores": scores, "corpora": corpora, "train_lines": train_lines,
                "config": config, "model": model, "loaded": loaded,
                "queries": queries}

    def inspect(self, inputs: dict, out: dict, checks: Checks) -> dict:
        counts = _ingest_counts(inputs, out, checks)
        checks.check("no N-Triples line is skipped",
                     counts["ntriples.skipped_lines"] == 0)
        total = sum(out["scores"].scores.values())
        checks.check("PageRank sums to 1 within 1e-8", abs(total - 1.0) <= 1e-8,
                     f"sum {total!r}")
        checks.check("embeddings are finite",
                     _finite(out["model"]) and _finite(out["loaded"]))
        return {
            **counts,
            "pagerank.nodes": len(out["scores"].scores),
            **_walk_counts(out["corpora"]),
            **_train_counts([(out["train_lines"], out["config"])],
                            out["model"].epoch_losses[-1]),
            "recommend.queries": len(out["queries"]),
            "recommend.pool_size": len(out["loaded"].vocab) - 1,
        }


def _sweep_rels() -> tuple[RelSpec, ...]:
    """25 planted layers with rho evenly spread over 0.05-0.95.

    Every second layer has a depth-2 extension at 0.8 of its rho. There are
    exactly 25 so that the default 25 depth-1 candidates score all of them.
    """
    rels = []
    for i in range(25):
        rho = round(0.05 + 0.90 * i / 24, 4)
        n_targets = (8, 12, 20, 30)[i % 4]
        ext = (f"x{i:02d}", round(0.8 * rho, 4), max(1, n_targets // 4)) \
            if i % 2 else None
        rels.append(RelSpec(f"r{i:02d}", rho, n_targets,
                            coverage=0.9 if i % 3 == 0 else 1.0, ext=ext))
    return tuple(rels)


class EstimatorSweep:
    """Specificity estimation on a layered graph (~58k triples).

    alg2 ranking at the README defaults (seed set 300, 2000 walks, 25*d
    candidates, depth 2), the same ranking with eq2, and sensitivity sweeps
    over n_walks and seed_set_size. This is the only workload where the
    specificity layer does most of the work, so vectorising the estimator or
    the exact path counts shows here. No walks or training run: a change to
    those layers should leave this workload unchanged. The layered graph
    balances in-degrees so that alg2's expectation equals each layer's
    planted rho, which gives the estimator an exact oracle.
    """

    name = "estimator-sweep"
    CLT_Z = 5.0  # a 5-sigma miss has probability ~6e-7 per relationship

    def __init__(self, smoke: bool = False):
        self.scale = (dict(n_entities=200, n_noise=700) if smoke else
                      dict(n_entities=600, n_noise=2000))
        self.params = EstimatorParams(
            seed_set_size=50 if smoke else 300, n_walks=400 if smoke else 2000,
            max_depth=2)
        self.n_walks_values = [100, 200, 400] if smoke else [400, 1000, 2000]
        self.s_values = [20, 50] if smoke else [50, 150, 300]

    def setup(self, seed: int, workdir: str) -> dict:
        g, info = layered_graph(seed, rels=_sweep_rels(), **self.scale)
        rho = {r["pred"]: r["rho"] for r in info["rels"].values() if "pred" in r}
        return {"seed": seed, "nt": _write_input(g, workdir),
                "type": info["type"], "checksum": g.checksum(), "rho": rho}

    def pipeline(self, inputs: dict, tr, workdir: str) -> dict:
        parsed, g, snap = _ingest(tr, inputs, workdir)
        t = g.term_id(inputs["type"])
        base = replace(self.params, seed=inputs["seed"] + 1)
        alg2 = tr.call("specificity.rank", rank_by_specificity, g, t, base)
        tr.call("specificity.table_write", _write,
                os.path.join(workdir, "alg2.tsv"), lambda f: alg2.to_tsv(g, f))
        eq2 = tr.call("specificity.exact", rank_by_specificity, g, t,
                      replace(base, mode="eq2"))
        tr.call("specificity.table_write", _write,
                os.path.join(workdir, "eq2.tsv"), lambda f: eq2.to_tsv(g, f))
        # sensitivity_sweep lives in specwalk.recommend, but all of its work
        # is rank_by_specificity, so its spans belong to the specificity layer
        by_walks = tr.call("specificity.sweep", sensitivity_sweep, g, t, base,
                           n_walks_values=self.n_walks_values)
        by_seeds = tr.call("specificity.sweep", sensitivity_sweep, g, t, base,
                           s_values=self.s_values)

        def write_sweep(f):
            f.write("parameter,value,depth,ndcg\n")
            for p in by_walks + by_seeds:
                f.write(f"{p.parameter},{p.value},{p.depth},{p.ndcg:.6f}\n")
        _write(os.path.join(workdir, "sweep.csv"), write_sweep)
        return {"parsed": parsed, "graph": g, "snapshot": snap, "alg2": alg2,
                "eq2": eq2, "by_walks": by_walks, "n_walks": base.n_walks}

    def inspect(self, inputs: dict, out: dict, checks: Checks) -> dict:
        g, n = out["graph"], out["n_walks"]
        scored = {g.terms[e.relationship.predicates[0]]: e.score
                  for e in out["alg2"].entries_at(1)}
        for pred, rho in sorted(inputs["rho"].items()):
            score = scored.get(pred)
            bound = self.CLT_Z * math.sqrt(rho * (1.0 - rho) / n)
            checks.check(f"alg2 score of {pred.rsplit('/', 1)[1]} within "
                         f"{self.CLT_Z:g} SE of its planted rho",
                         score is not None and abs(score - rho) <= bound,
                         f"score {score} rho {rho:.4f} bound {bound:.4f}")
        low = min(self.n_walks_values)
        low_points = [p.ndcg for p in out["by_walks"] if p.value == low]
        return {**_ingest_counts(inputs, out, checks),
                **_table_counts(out["alg2"], n),
                "ndcg_low_budget": sum(low_points) / len(low_points)}


WORKLOADS = {w.name: w for w in (FranchiseE2E, KGWalk, EstimatorSweep)}
