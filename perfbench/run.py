"""Pipeline benchmark for specwalk: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kg-walk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

``setup_s`` is the median time to import the program in a fresh interpreter
(five tries) plus the median time to generate the input graph and write it
(three tries). Then the run repeats the pipeline until ``--seconds`` would
be exceeded, at least twice, and reports the median iteration as
``pipeline_s``. ``--trace 0`` reports the end-to-end metrics from untraced
iterations. ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics from the traced ones, plus the tracing
overhead (traced minus untraced ``pipeline_s``).

Every iteration's outputs are checked, and its counts must repeat those of
the first iteration exactly. A human-readable report goes to standard output
and a full JSON record (environment, every metric, failed checks) to
``.perfbench/results/``; with ``--trace 1`` the spans go next to it. The last
line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The run needs the specwalk sources under ``src/`` of the checkout; without
them it exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer, self_times, write_spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
# The keys of workloads.WORKLOADS, repeated so that parsing arguments does not
# import numpy before the BLAS thread cap is set.
WORKLOAD_NAMES = ("franchise-e2e", "kg-walk", "estimator-sweep")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # imports are short and noisy, so take more of them
MIN_ITERATIONS = 2
LAYERS = ("ntriples", "graph", "pagerank", "specificity", "walks", "skipgram",
          "recommend")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Figures that exist on some workloads only, and the error rate (0 when the
# run is correct); printed in the report, not part of the result line.
REPORT_UNITS = {"error_rate": "ratio", "precision_at_3": "ratio",
                "precision_at_3_uniform": "ratio", "ndcg_low_budget": "ratio"}
PER_LAYER_UNITS = {
    "ntriples.parse_s": "s", "ntriples.triples_per_s": "1/s",
    "ntriples.skipped_lines": "count",
    "graph.snapshot_write_s": "s", "graph.snapshot_read_s": "s",
    "graph.snapshot_bytes": "bytes", "graph.checksum_s": "s",
    "graph.n_triples": "count", "graph.n_terms": "count",
    "pagerank.compute_s": "s", "pagerank.nodes": "count",
    "specificity.rank_s": "s", "specificity.exact_s": "s",
    "specificity.sweep_s": "s", "specificity.candidates": "count",
    "specificity.trials": "count", "specificity.trials_per_s": "1/s",
    "walks.extract_s": "s", "walks.attempts": "count",
    "walks.accepted": "count", "walks.accept_ratio": "ratio",
    "walks.distinct": "count", "walks.walks_per_s": "1/s",
    "walks.write_corpus_s": "s", "walks.tokens_per_s": "1/s",
    "skipgram.train_s": "s", "skipgram.pairs": "count",
    "skipgram.distinct_pair_ratio": "ratio", "skipgram.pairs_per_s": "1/s",
    "skipgram.final_loss": "nats", "skipgram.model_save_s": "s",
    "skipgram.model_load_s": "s",
    "recommend.topk_s": "s", "recommend.queries": "count",
    "recommend.pool_size": "count", "recommend.query_p50_ms": "ms",
    "recommend.query_tail_ms": "ms", "recommend.query_tail_pct": "%",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.overhead_s": "s",
}
# Counts that do not need tracing: the input properties an optimisation may
# depend on, reported by every run.
INPUT_PROPERTIES = ("graph.n_triples", "graph.n_terms", "walks.accept_ratio",
                    "skipgram.distinct_pair_ratio", "specificity.candidates")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if current.isdigit() and 0 < int(current) < cap:
            cap = int(current)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` if present."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the specwalk sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "specwalk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_latency(latencies_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above."""
    n = len(latencies_ms)
    if n <= 10:
        return 0.0, 0.0
    return sorted(latencies_ms)[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    total: dict[str, float] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
    query_ms = [1000.0 * s.duration for s in spans if s.name == "recommend.topk"]

    def t(name):
        return total.get(name, 0.0)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    def c(name):
        return counts.get(name, 0)

    tail_ms, tail_pct = tail_latency(query_ms)
    selfs = self_times(spans)
    m = {
        "ntriples.parse_s": t("ntriples.parse"),
        "ntriples.triples_per_s": rate(c("ntriples.parsed_triples"),
                                       t("ntriples.parse")),
        "graph.snapshot_write_s": t("graph.snapshot_write"),
        "graph.snapshot_read_s": t("graph.snapshot_read"),
        "graph.checksum_s": t("graph.checksum"),
        "pagerank.compute_s": t("pagerank.compute"),
        "specificity.rank_s": t("specificity.rank"),
        "specificity.exact_s": t("specificity.exact"),
        "specificity.sweep_s": t("specificity.sweep"),
        "specificity.trials_per_s": rate(c("specificity.trials"),
                                         t("specificity.rank")),
        "walks.extract_s": t("walks.extract"),
        "walks.walks_per_s": rate(c("walks.accepted"), t("walks.extract")),
        "walks.write_corpus_s": t("walks.write_corpus"),
        "walks.tokens_per_s": rate(c("walks.tokens"), t("walks.write_corpus")),
        "skipgram.train_s": t("skipgram.train"),
        "skipgram.pairs_per_s": rate(c("skipgram.pairs"), t("skipgram.train")),
        "skipgram.model_save_s": t("skipgram.model_save"),
        "skipgram.model_load_s": t("skipgram.model_load"),
        "recommend.topk_s": t("recommend.topk"),
        "recommend.query_p50_ms": statistics.median(query_ms) if query_ms else 0.0,
        "recommend.query_tail_ms": tail_ms,
        "recommend.query_tail_pct": tail_pct,
        **{f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS},
        "trace.spans": len(spans),
    }
    for name in PER_LAYER_UNITS:
        if name not in m and name != "trace.overhead_s":
            m[name] = c(name)
    return m


def import_seconds() -> float:
    """Time to import the program and the driver, in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC, HERE],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def environment(blas_cap: int) -> dict:
    import numpy

    return {"git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "nproc": nproc(),
            "blas_threads": blas_cap, "workers": 1}


def run_workload(args) -> int:
    blas_cap = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "specwalk", "__init__.py")):
        print(f"error: specwalk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import specwalk
    from workloads import WORKLOADS, Checks
    if os.path.dirname(os.path.abspath(specwalk.__file__)) != \
            os.path.join(SRC, "specwalk"):
        print(f"error: imported specwalk from {specwalk.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    checks = Checks()
    failed_ops = 0
    iterations = []
    try:
        import_times = [import_seconds() for _ in range(IMPORT_REPEATS)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        start = time.perf_counter()
        while True:
            i = len(iterations)
            tracer = Tracer(f"{tag}-i{i}", enabled=bool(args.trace) and i % 2 == 1)
            gc.collect()
            try:
                t_start = time.perf_counter()
                out = tracer.call("driver.pipeline", workload.pipeline,
                                  inputs, tracer, workdir)
                seconds = time.perf_counter() - t_start
                counts = workload.inspect(inputs, out, checks)
            except Exception:
                traceback.print_exc()
                failed_ops += 1
                break
            del out
            if iterations:
                checks.check("counts repeat those of the first iteration",
                             counts == iterations[0]["counts"])
            iterations.append({"seconds": seconds, "traced": tracer.enabled,
                               "calls": tracer.calls, "spans": tracer.spans,
                               "counts": counts})
            elapsed = time.perf_counter() - start
            if len(iterations) >= MIN_ITERATIONS and elapsed + seconds > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not iterations:
        print("error: no pipeline iteration completed", file=sys.stderr)
        return 1

    attempted = checks.attempted + sum(it["calls"] for it in iterations) + failed_ops
    failed = len(checks.failures) + failed_ops
    counts = iterations[0]["counts"]
    untraced = [it["seconds"] for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    end_to_end = {"pipeline_s": statistics.median(untraced), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
    report = {"error_rate": failed / attempted,
              **{k: counts[k] for k in REPORT_UNITS if k in counts}}
    per_layer = {}
    if traced:
        per_iteration = [layer_metrics(it["spans"], counts) for it in traced]
        per_layer = {name: statistics.median(m[name] for m in per_iteration)
                     for name in per_iteration[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(it["seconds"] for it in traced)
            - end_to_end["pipeline_s"])

    env = environment(blas_cap)
    units = {**END_TO_END_UNITS, **REPORT_UNITS, **PER_LAYER_UNITS}
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(iterations)} traced={len(traced)} "
          f"setup_runs={SETUP_REPEATS} import_runs={IMPORT_REPEATS}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# input properties " + json.dumps(
        {k: counts[k] for k in INPUT_PROPERTIES if k in counts}, sort_keys=True))
    if per_layer.get("recommend.query_tail_pct"):
        print(f"# recommend.query_tail_ms is the "
              f"p{per_layer['recommend.query_tail_pct']:.1f} of "
              f"{per_layer['recommend.queries']:g} queries per iteration")
    for name, value in {**end_to_end, **report, **per_layer}.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    for failure in checks.failures:
        print(f"# FAILED CHECK: {failure}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "smoke": args.smoke,
                   "environment": env, "end_to_end": end_to_end,
                   "report": report, "per_layer": per_layer, "counts": counts,
                   "import_times": import_times, "setup_times": setup_times,
                   "iteration_seconds": [it["seconds"] for it in iterations],
                   "checks_attempted": checks.attempted,
                   "failed_checks": checks.failures}, f, indent=2,
                  sort_keys=True)
    if traced:
        write_spans([s for it in traced for s in it["spans"]],
                    os.path.join(OUT, "results", tag + ".spans.jsonl"))

    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines \
                    or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30,
                   help="measurement budget per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for checking the harness itself")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
