"""The traced benchmark run still reports what BENCHMARK.json declares.

A traced train run that stops reaching a wrapped callable (for example a
``train()`` that no longer reloads its checkpoint) leaves that layer's metric
out of the result and warns "missing layer".  These runs use tiny widths and
take a second or two each.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["train-trans", "train-frame"])
def test_traced_train_run_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    metrics = result["metrics"]
    for entry in BENCHMARK["per_layer"]:
        name = entry["name"]
        assert name in metrics, f"{workload}: per-layer metric {name} missing\n{proc.stderr}"
        assert math.isfinite(metrics[name]["value"]), f"{workload}: {name} = {metrics[name]['value']}"
    assert "missing layer" not in proc.stderr, proc.stderr
