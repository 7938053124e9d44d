"""Small-scale check of the benchmark harness itself.

    python3 perfbench/smoke_check.py

For every workload in BENCHMARK.json, runs ``run.py --smoke`` (small inputs)
untraced once and traced twice with the same seed, and checks that:

* each run exits 0 and ends with a result line of exactly the four keys;
* the untraced run emits every end-to-end metric of BENCHMARK.json and the
  traced runs every per-layer metric, each with the unit BENCHMARK.json gives;
* every counted (not timed) metric repeats exactly between the two traced
  runs.

It exits 1 if any check fails. Correctness of the small runs is reported but
not required: the workloads' quality thresholds hold at full scale only.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
# Units of metrics that are counted, not timed: they must repeat exactly.
EXACT_UNITS = {"count", "bytes", "ratio", "nats", "%"}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, 0), run(workload, 1), run(workload, 1)]
        for result, trace in zip(results, (0, 1, 1)):
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{workload} trace={trace}: missing {missing}, "
                                f"extra {extra}, wrong unit {wrong}")
            bad = sorted(k for k, v in result["metrics"].items()
                         if not isinstance(v["value"], (int, float)))
            if bad:
                problems.append(f"{workload} trace={trace}: non-numeric {bad}")
        first, second = results[1]["metrics"], results[2]["metrics"]
        drift = sorted(k for k, unit in expected[1].items()
                       if unit in EXACT_UNITS and k in first and k in second
                       and first[k]["value"] != second[k]["value"])
        if drift:
            problems.append(f"{workload}: counts differ between runs: {drift}")
        print(f"{workload}: correct={[r['correct'] for r in results]} "
              f"attempted={[r['attempted'] for r in results]}")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
