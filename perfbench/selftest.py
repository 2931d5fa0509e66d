#!/usr/bin/env python3
"""Self-test of the benchmark at tiny model widths; takes well under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` once untraced and twice traced,
each in a fresh process as the real benchmark runs, and asserts that:

* the last stdout line is the result object, correct, with no failures;
* every end-to-end (untraced) or per-layer (traced) metric listed in
  BENCHMARK.json appears with its unit and a finite value;
* the traced runs report no missing layer and no warning;
* runs of the same seed give identical losses / prediction digests and
  identical computed counts.

It then checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
TIMEOUT = 180


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_result(lines: list[str], expected: dict[str, str], failures: list[str], label: str) -> dict:
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failures.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        failures.append(f"{label}: metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            failures.append(f"{label}: {name} has unit {entry.get('unit')!r}, BENCHMARK.json says {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} value {value!r} is not a finite number")
    return json.loads(lines[-2])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures: list[str] = []
    for workload in (w["name"] for w in bench["workloads"]):
        records = []
        for trace in (0, 1, 1):
            label = f"{workload} trace={trace}"
            code, lines, stderr = run(workload, trace)
            if code != 0 or len(lines) < 2:
                failures.append(f"{label}: exit {code}, stderr: {stderr[-500:]}")
                continue
            record = check_result(lines, per_layer if trace else end_to_end, failures, label)
            if trace:
                for key in ("missing_layers", "warnings"):
                    if record.get(key):
                        failures.append(f"{label}: {key} {record[key]}")
            else:
                for name, metric in json.loads(lines[-1])["metrics"].items():
                    if metric["value"] <= 0:
                        failures.append(f"{label}: end-to-end metric {name} is {metric['value']}")
            records.append(record)
        if len(records) == 3:
            for key in ("digest", "losses"):
                if len({json.dumps(r.get(key)) for r in records}) != 1:
                    failures.append(f"{workload}: {key} differs between runs of seed {SEED}")
            if records[1]["counts"] != records[2]["counts"]:
                failures.append(f"{workload}: counts differ between traced runs: "
                                f"{records[1]['counts']} vs {records[2]['counts']}")
        print(f"{workload}: {len(records)} runs checked", flush=True)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(bench["workloads"][0]["name"], 0, cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            failures.append(f"bare directory: exit {code}, stdout {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
