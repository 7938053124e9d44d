"""The library keeps what the benchmark calls.

Runs each workload of ``perfbench/workloads.py`` once in process, at smoke
scale, through setup -> pipeline -> inspect. A renamed or deleted function,
option or file format that a workload uses fails here, in the tier-1 suite,
instead of only when the benchmark runs.
"""
import importlib.util
import math
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 3


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


class PassThrough:
    """Tracer stand-in: forwards each call and counts it."""

    def __init__(self):
        self.calls = 0

    def call(self, name, fn, *args, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name](smoke=True)
    inputs = workload.setup(SEED, str(tmp_path))
    tracer = PassThrough()
    out = workload.pipeline(inputs, tracer, str(tmp_path))
    checks = workloads.Checks()
    counts = workload.inspect(inputs, out, checks)
    assert tracer.calls > 0
    assert checks.attempted > 0
    # the precision@3 thresholds hold at full scale only (smoke_check.py)
    failures = [f for f in checks.failures if not f.startswith("precision@3")]
    assert failures == []
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in counts.values())
