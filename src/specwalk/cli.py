"""Pipeline command line: ingest -> pagerank -> specificity -> walk -> train
-> recommend/eval, plus synthetic graph generation and sensitivity sweeps.

Every command accepts --seed and --config (JSON file mirroring the flag
names; explicit flags win) and writes a JSON metadata sidecar next to each
output artifact recording the seed, a config hash and the graph checksum
(and, for `ingest` of N-Triples, `walk`, `train`, `eval` and alg2
`specificity`, the run's counters).

Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .graph import (Graph, GraphError, distinct_rows, read_snapshot,
                    write_snapshot)
from .ntriples import load_graph, open_text, serialize_ntriples
from .pagerank import compute_pagerank, load_scores, save_scores
from .recommend import precision_at_k, sensitivity_sweep, top_k
from .skipgram import EmbeddingModel, TrainConfig, train
from .specificity import (EstimatorParams, SpecificityTable,
                          rank_by_specificity)
from .synth import (franchise_graph, layered_graph, relevance_inversion_graph,
                    sensitivity_fixture)
from .walks import (BIASES, PRUNING_SCHEMES, WalkCorpus, WalkStrategy,
                    extract_corpus, read_corpus_lines, write_corpus,
                    write_stats_csv)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _write_sidecar(args, graph: Graph | None = None,
                   counters: dict | None = None) -> None:
    """Write <args.out>.meta.json recording the command's parameters, and
    the run's deterministic `counters` when given."""
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "config")}
    payload = json.dumps(params, sort_keys=True, default=str)
    meta = {
        "command": args.command,
        "params": json.loads(payload),
        "config_hash": hashlib.sha256(payload.encode()).hexdigest(),
        "graph_checksum": graph.checksum() if graph is not None else None,
        "tool_version": __version__,
    }
    if counters is not None:
        meta["counters"] = counters
    with open(args.out + ".meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True, indent=2)
        f.write("\n")


# -- commands ------------------------------------------------------------

def cmd_ingest(args) -> int:
    g = load_graph(args.input, strict=args.strict, rdf_type=args.rdf_type)
    write_snapshot(g, args.out)
    report = g.report  # None for a snapshot input
    _write_sidecar(args, g, None if report is None else {
        "parsed_lines": report.parsed, "skipped_lines": report.skipped,
        "duplicate_triples": report.parsed - g.n_triples})
    typed = g.out_pred == g.rdf_type_id  # all False without rdf:type
    print(f"triples={g.n_triples} terms={g.n_terms} "
          f"typed_entities={len(np.unique(g.out_src[typed]))} "
          f"types={len(np.unique(g.out_obj[typed]))}")
    if g.report is not None and g.report.skipped:
        print(f"skipped_lines={g.report.skipped}", file=sys.stderr)
    return 0


def cmd_pagerank(args) -> int:
    g = read_snapshot(args.snapshot)
    scores = compute_pagerank(g, damping=args.damping)
    with open(args.out, "w", encoding="utf-8") as f:
        save_scores(scores, f)
    _write_sidecar(args, g)
    print(f"scored_nodes={len(scores.scores)}")
    return 0


def _estimator_params(args) -> EstimatorParams:
    return EstimatorParams(
        seed_set_size=args.seed_set_size,
        n_walks=args.n_walks,
        max_depth=args.depth,
        threshold=args.threshold,
        seed=args.seed,
        mode="eq2" if getattr(args, "exact", False) else "alg2",
        include_type_edges=args.include_type_edges,
    )


def cmd_specificity(args) -> int:
    g = read_snapshot(args.snapshot)
    table = rank_by_specificity(g, g.term_id(args.type),
                                _estimator_params(args))
    with open(args.out, "w", encoding="utf-8") as f:
        table.to_tsv(g, f)
    counters = {depth: {rel.render(g): c for rel, c in by_rel.items()}
                for depth, by_rel in table.counters.items()}
    _write_sidecar(args, g, counters or None)
    for depth in sorted(table.depths):
        kept = sum(1 for e in table.depths[depth] if e.score >= args.threshold)
        print(f"depth={depth} candidates={len(table.depths[depth])} "
              f"above_threshold={kept}")
    return 0


def _walk_entities(g: Graph, args) -> list[int]:
    if args.limit is not None and args.limit < 1:
        raise ValueError("--limit must be >= 1")
    if args.entities is not None:
        with open_text(args.entities) as f:
            return [g.term_id(line.strip()) for line in f if line.strip()]
    members = sorted(g.entities_of_type(g.term_id(args.type)))
    if not members:
        raise GraphError(f"type has no instances: {args.type!r}")
    if args.limit is not None and args.limit < len(members):
        return g.sample_entities(g.term_id(args.type), args.limit, args.seed)
    return members


def cmd_walk(args) -> int:
    if args.entities is not None and args.limit is not None:
        raise UsageError("--limit applies to --type, not --entities")
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    g = read_snapshot(args.snapshot)
    if args.bias == "specificity" and not args.table:
        raise UsageError("bias=specificity requires --table")
    if args.bias == "pagerank" and not args.scores:
        raise UsageError("bias=pagerank requires --scores")
    table = scores = None
    if args.table:
        with open(args.table, encoding="utf-8") as f:
            table = SpecificityTable.from_tsv(g, f)
    if args.scores:
        with open(args.scores, encoding="utf-8") as f:
            scores = load_scores(f).bind(g)
    entities = _walk_entities(g, args)
    strategy = WalkStrategy(bias=args.bias, pruning=args.pruning,
                            depth=args.depth, walks_per_entity=args.walks,
                            specificity_table=table, threshold=args.threshold,
                            pagerank_scores=scores)
    depths = [args.depth]
    if args.depth > 1 and not args.no_depth1:
        depths = [1, args.depth]  # depth-d corpora include depth-1 walks
    merged, counters = WalkCorpus(), {}
    for depth in depths:
        part = extract_corpus(g, entities, replace(strategy, depth=depth),
                              seed=args.seed, workers=args.workers)
        merged.walks.extend(part.walks)
        merged.stats.extend(part.stats)
        counters[depth] = part.counters
    header = {"bias": args.bias, "pruning": args.pruning, "depth": args.depth,
              "walks_per_entity": args.walks, "seed": args.seed,
              "graph": g.checksum()}
    with open(args.out, "w", encoding="utf-8") as f:
        write_corpus(g, merged, f, header)
    _write_sidecar(args, g, counters)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as f:
            write_stats_csv(g, merged, f)
    distinct = len(distinct_rows(merged.tokens))
    print(f"entities={len(entities)} walks={len(merged.walks)} "
          f"distinct={distinct}")
    if not merged.walks:
        print("warning: no walks generated", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    config = TrainConfig(dim=args.dim, window=args.window,
                         negatives=args.negatives, epochs=args.epochs,
                         lr=args.lr, min_count=args.min_count,
                         subsample=args.subsample, seed=args.seed)
    with open_text(args.corpus) as f:
        model = train(read_corpus_lines(f), config)
    with open(args.out, "w", encoding="utf-8") as f:
        model.save_text(f)
    _write_sidecar(args, counters={
        "vocab_size": len(model.vocab), "epoch_pairs": model.epoch_pairs,
        "epoch_losses": model.epoch_losses, "final_lr": model.final_lr})
    print(f"vocab={len(model.vocab)} dim={config.dim} "
          f"final_loss={model.epoch_losses[-1] if model.epoch_losses else 0.0:.4f}")
    return 0


def _candidate_tokens(args) -> set[str] | None:
    if (args.snapshot is None) != (args.type is None):
        raise UsageError("--snapshot and --type must be given together")
    if args.snapshot is None:
        return None
    g = read_snapshot(args.snapshot)
    return {g.render_token(v)
            for v in g.entities_of_type(g.term_id(args.type))}


def cmd_recommend(args) -> int:
    candidates = _candidate_tokens(args)
    with open(args.model, encoding="utf-8") as f:
        model = EmbeddingModel.load_text(f)
    rec = top_k(model, args.query, args.k, candidates=candidates)
    rows = [(args.query, token, f"{score:.6f}") for token, score in rec.ranked]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["query", "token", "cosine"])
            w.writerows(rows)
        _write_sidecar(args)
    else:
        for _, token, score in rows:
            print(f"{token}\t{score}")
    return 0


def cmd_eval(args) -> int:
    if args.k is not None and args.k < 1:
        raise ValueError("--k must be >= 1")
    candidates = _candidate_tokens(args)
    with open(args.model, encoding="utf-8") as f:
        model = EmbeddingModel.load_text(f)
    with open(args.truth, encoding="utf-8") as f:
        truth = json.load(f)
    if not isinstance(truth, dict) or not all(
            isinstance(v, list) and all(isinstance(t, str) for t in v)
            for v in truth.values()):
        raise ValueError(f"{args.truth}: truth must be a JSON object that "
                         "maps each query to a list of strings")
    for query, v in truth.items():
        if not v:
            raise ValueError(f"{args.truth}: the truth of {query!r} must be "
                             "a non-empty list of strings")
    truth = {q: set(v) for q, v in truth.items()}
    rows = []
    for query in sorted(truth):
        relevant = truth[query]
        k = args.k if args.k is not None else len(relevant)
        if k != len(relevant) and not args.allow_mismatch:
            raise UsageError(
                f"k={k} differs from |truth|={len(relevant)} for {query!r}; "
                "pass --allow-mismatch to override")
        if query not in model.vocab.index:
            print(f"warning: query not in vocabulary: {query}", file=sys.stderr)
            continue
        rec = top_k(model, query, k, candidates=candidates)
        rows.append((args.label, args.depth, query, k,
                     f"{precision_at_k(rec, relevant):.6f}"))
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["scheme", "depth", "query", "k", "precision"])
        w.writerows(rows)
    # every query not scored was missing from the vocabulary
    _write_sidecar(args, counters={
        "queries": len(truth), "scored": len(rows),
        "missing_queries": len(truth) - len(rows)})
    if rows:
        mean = sum(float(r[4]) for r in rows) / len(rows)
        print(f"queries={len(rows)} mean_precision={mean:.4f}")
    return 0


def cmd_sensitivity(args) -> int:
    g = read_snapshot(args.snapshot)
    t = g.term_id(args.type)
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    acc: dict[tuple[int, int], list[float]] = {}
    parameter = args.sweep
    for r in range(args.repeats):
        base = _estimator_params(args)
        base = replace(base, seed=args.seed + r)
        kwargs = {"n_walks_values": args.values} if parameter == "n_walks" \
            else {"s_values": args.values}
        for point in sensitivity_sweep(g, t, base, **kwargs):
            acc.setdefault((point.value, point.depth), []).append(point.ndcg)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow([parameter, "depth", "ndcg", "repeats"])
        for (value, depth), scores in sorted(acc.items()):
            w.writerow([value, depth,
                        f"{sum(scores) / len(scores):.6f}", len(scores)])
    _write_sidecar(args, g)
    return 0


def cmd_synth(args) -> int:
    if args.kind == "franchise":
        g, info = franchise_graph(seed=args.seed, n_franchises=args.franchises,
                                  films_per=args.films_per,
                                  n_distractor_films=args.distractors)
    elif args.kind == "inversion":
        g, info = relevance_inversion_graph(seed=args.seed)
    elif args.kind == "layered":
        g, info = layered_graph(seed=args.seed)
    else:  # "sensitivity", the last of --kind's choices
        g, info = sensitivity_fixture(seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as f:
        serialize_ntriples(g, f)
    _write_sidecar(args, g)
    if args.truth_out:
        truth = info.get("truth", {})
        with open(args.truth_out, "w", encoding="utf-8") as f:
            json.dump(truth, f, sort_keys=True, indent=2)
            f.write("\n")
    if args.info_out:
        with open(args.info_out, "w", encoding="utf-8") as f:
            json.dump({k: v for k, v in info.items() if k != "truth"},
                      f, sort_keys=True, indent=2, default=str)
            f.write("\n")
    print(f"triples={g.n_triples} terms={g.n_terms}")
    return 0


# -- parser --------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """Comma-separated distinct integers, such as "60,120"."""
    values = [int(v) for v in text.split(",")]
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="specwalk", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults (flags override)")

    p = sub.add_parser("ingest",
                       help="parse N-Triples (.nt or .nt.gz) into a snapshot")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--rdf-type",
                   default="http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pagerank", help="power-iteration PageRank scores")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True)
    p.add_argument("--damping", type=float, default=0.85)
    common(p)
    p.set_defaults(func=cmd_pagerank)

    def estimator_flags(p):
        p.add_argument("--type", required=True)
        p.add_argument("--depth", type=int, default=2)
        p.add_argument("--seed-set-size", type=int, default=300)
        p.add_argument("--n-walks", type=int, default=2000)
        p.add_argument("--threshold", type=float, default=0.5)
        p.add_argument("--include-type-edges", action="store_true")

    p = sub.add_parser("specificity", help="ranked specificity table")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True)
    estimator_flags(p)
    p.add_argument("--exact", action="store_true",
                   help="exhaustive computation instead of the estimator")
    common(p)
    p.set_defaults(func=cmd_specificity)

    p = sub.add_parser("walk", help="extract a walk corpus")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True)
    p.add_argument("--bias", default="uniform", choices=BIASES)
    p.add_argument("--pruning", default="none", choices=PRUNING_SCHEMES)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--walks", type=int, default=500,
                   help="walk attempts per entity")
    roots = p.add_mutually_exclusive_group(required=True)
    roots.add_argument("--type", default=None)
    roots.add_argument("--entities", default=None,
                       help="file of entity IRIs, one per line")
    p.add_argument("--limit", type=int, default=None,
                   help="sample this many entities of --type")
    p.add_argument("--table", default=None, help="specificity table TSV")
    p.add_argument("--scores", default=None, help="PageRank score TSV")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--stats", default=None, help="per-entity stats CSV")
    p.add_argument("--no-depth1", action="store_true",
                   help="do not concatenate depth-1 walks for depth>1")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored; extraction "
                        "is sequential (default 1)")
    common(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("train", help="train skip-gram embeddings")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=500)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--negatives", type=int, default=25)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--subsample", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recommend", help="top-k cosine recommendation")
    p.add_argument("model")
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--snapshot", default=None)
    p.add_argument("--type", default=None,
                   help="restrict candidates to entities of this type")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("eval", help="precision@k against ground truth")
    p.add_argument("model")
    p.add_argument("--truth", required=True,
                   help="JSON map query -> list of relevant tokens")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="default: per-query ground-truth size")
    p.add_argument("--allow-mismatch", action="store_true")
    p.add_argument("--label", default="model")
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--snapshot", default=None)
    p.add_argument("--type", default=None)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sensitivity", help="NDCG sweep over estimator budgets")
    p.add_argument("snapshot")
    p.add_argument("--out", required=True)
    p.add_argument("--sweep", required=True,
                   choices=["n_walks", "seed_set_size"])
    p.add_argument("--values", required=True, type=_int_list,
                   help="comma-separated values")
    p.add_argument("--repeats", type=int, default=1)
    estimator_flags(p)
    common(p)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("synth", help="generate a planted synthetic graph")
    p.add_argument("--kind", required=True,
                   choices=["franchise", "inversion", "layered", "sensitivity"])
    p.add_argument("--out", required=True, help="N-Triples output")
    p.add_argument("--truth-out", default=None)
    p.add_argument("--info-out", default=None)
    p.add_argument("--franchises", type=int, default=5)
    p.add_argument("--films-per", type=int, default=4)
    p.add_argument("--distractors", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def _config_flags(args) -> list[str]:
    """The config file's keys as command-line flags: "n_walks": 80 becomes
    --n-walks=80, "strict": true becomes --strict and false adds nothing."""
    with open(args.config, encoding="utf-8") as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise UsageError("config file must contain a JSON object")
    unknown = set(config) - (set(vars(args)) - {"func", "config", "command"})
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in config.items():
        switch = isinstance(getattr(args, key), bool)
        if switch != isinstance(value, bool) \
                or not isinstance(value, (str, int, float)):
            wanted = "true or false" if switch else "a string or a number"
            raise UsageError(f"config key {key!r} takes {wanted}, "
                             f"not {json.dumps(value)}")
        flag = "--" + key.replace("_", "-")
        if not switch:
            flags.append(f"{flag}={value}")
        elif value:
            flags.append(flag)
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # flags placed before the user's own, so the user's win
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, KeyError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
