#!/usr/bin/env python3
"""comem benchmark: train and eval throughput at paper dimensions.

Run from the repository root:

    python3 perfbench/run.py --workload train-trans --seed 1 --seconds 30 --trace 0

Each invocation generates a synthetic dataset from ``--seed``, times the
public entry points that ``comem train`` / ``comem eval`` call
(``training.train``, ``training.evaluate_model``, ``training.load_checkpoint``)
for about ``--seconds`` seconds, checks their outputs, and prints two JSON
lines: a record of the run (environment, checks, losses, digests) and, last,
the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from ``tracing.py``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# Fixed for every workload so that runs compare; recorded with each result.
BLAS_THREADS = 2
MODEL_SEED = 0  # throughput does not depend on the weights
SETUP_REPEATS = 5  # set-up time is the median of these
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    task: str
    mode: str  # "train" or "eval"
    batch: int  # optimizer batch; eval calls evaluate_model at its own default batch
    episodes: int  # splits are 80/10/10 and every episode yields one item per task


WORKLOADS = {
    # one B=16 optimizer step per epoch: 4 micro-batches of 4 items x 5 candidates
    "train-trans": Workload("trans", "train", 16, 20),
    # one B=64 optimizer step per epoch, no candidate fold
    "train-frame": Workload("frame", "train", 64, 80),
    # 64 test items: one predict call of 320 episode rows per evaluate_model
    "eval-trans": Workload("trans", "eval", 64, 640),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny model widths for the self-test; results are not comparable")
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
    }


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Run:
    """One workload run: setup, timed iterations, output checks, metrics."""

    def __init__(self, args, work: Path):
        from comem import data, model, training
        from comem.decoders import COUNT_MAX, NUM_CHOICES, TaskKind
        from comem.errors import ComemError

        self.data, self.model, self.training = data, model, training
        self.ComemError = ComemError
        self.args, self.work = args, work
        self.wl = WORKLOADS[args.workload]
        self.task = TaskKind(self.wl.task)
        tiny = model.tiny_model_config()
        self.dims = {k: getattr(tiny, k) for k in ("embed_dim", "question_hidden", "fact_channels",
                                                     "context_dim", "memory_dim", "gate_dim")} if args.tiny else None
        self.cfg = training.TrainConfig(task=self.wl.task, batch_size=self.wl.batch, epochs=1, seed=MODEL_SEED)
        self.ckpt = work / "model.ckpt"
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}  # name -> passed / failed counts, first failure
        self.tracer = None
        if args.trace:
            from tracing import Tracer

            self.tracer = Tracer(train_workload=self.wl.mode == "train")
        if self.task.is_multiple_choice:
            self.answer_range = NUM_CHOICES
        elif self.task is TaskKind.REPETITION_COUNT:
            self.answer_range = COUNT_MAX + 1
        else:
            self.answer_range = None  # set from the dataset

    # -- checks ------------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "", weight: int = 1):
        """Record one output check; a failure counts ``weight`` failed operations."""
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0})
        if ok:
            entry["passed"] += 1
            return
        entry["failed"] += 1
        entry.setdefault("detail", detail)
        self.failed += weight
        print(f"check failed: {name}: {detail}", file=sys.stderr)

    def check_predictions(self, dump: list[dict], split: str):
        """One in-range prediction per item of ``split``, in split order."""
        items = self.dataset.items[split]
        self.attempted += len(items)
        self.check(f"{split}: one prediction per item", [row["id"] for row in dump] == [i.id for i in items],
                   f"{len(dump)} predictions for {len(items)} items")
        bad = [row for row in dump if not 0 <= row["pred"] < self.answer_range]
        self.check(f"{split}: predictions in range", not bad,
                   f"{len(bad)} outside 0..{self.answer_range - 1}", weight=len(bad))

    # -- setup -------------------------------------------------------------

    def setup_once(self, i: int) -> float:
        """Generate and load the dataset, then build (train) or load (eval) the model."""
        data_dir = self.work / f"data{i}"
        t0 = time.perf_counter()
        self.data.generate_dataset(self.data.SyntheticSpec(seed=self.args.seed), self.wl.episodes, data_dir)
        self.dataset = self.data.Dataset(data_dir, self.task)
        model_cfg = self.training.model_config_for(self.dataset, self.cfg, self.dims)
        elapsed = time.perf_counter() - t0
        if self.wl.mode == "eval" and not self.ckpt.exists():
            # stands in for a trained checkpoint; not part of the timed setup
            initial = self.model.CoMemoryModel(model_cfg, seed=MODEL_SEED)
            self.training.save_checkpoint(self.ckpt, initial, self.cfg, 0, [])
            del initial
        t0 = time.perf_counter()
        if self.wl.mode == "eval":
            self.eval_model, _ = self.training.load_checkpoint(self.ckpt)
            self.params = self.eval_model.store.size()
        else:
            self.params = self.model.CoMemoryModel(model_cfg, seed=MODEL_SEED).store.size()
        elapsed += time.perf_counter() - t0
        self.data_dir = data_dir
        if self.answer_range is None:
            self.answer_range = self.dataset.answer_vocab
        return elapsed

    # -- one timed iteration -----------------------------------------------

    def iterate(self) -> tuple[float, object]:
        """One timed call; returns (seconds, outcome), outcome None when it raised."""
        if self.wl.mode == "eval":
            # Like each `comem eval` process, every call gets freshly loaded
            # weights (untimed).  Where the 200 MB of weights land in memory
            # (huge pages or not) changes how fast every GEMM reads them;
            # reloading draws that per call instead of once per run.
            self.eval_model = None
            self.eval_model, _ = self.training.load_checkpoint(self.ckpt)
        ops = self.steps_per_call() if self.wl.mode == "train" else len(self.dataset.items["test"])
        t0 = time.perf_counter()
        try:
            if self.wl.mode == "train":
                outcome = self.training.train(self.cfg, self.data_dir, self.ckpt, dims=self.dims)
            else:
                outcome = self.training.evaluate_model(self.eval_model, self.dataset, "test")
        except self.ComemError as e:
            seconds = time.perf_counter() - t0
            self.attempted += ops
            self.check(f"{self.wl.mode} call completes", False, f"{type(e).__name__}: {e}", weight=ops)
            return seconds, None
        seconds = time.perf_counter() - t0
        if self.wl.mode == "train":
            self.attempted += ops
        else:
            self.check_predictions(outcome[1], "test")
        return seconds, outcome

    def items_per_call(self) -> int:
        return len(self.dataset.items["train" if self.wl.mode == "train" else "test"]) * self.cfg.epochs

    def steps_per_call(self) -> int:
        return math.ceil(len(self.dataset.items["train"]) / self.wl.batch) * self.cfg.epochs

    # -- the run -----------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        tracer = self.tracer
        if tracer:
            tracer.install()
        setup_times = [self.setup_once(i) for i in range(SETUP_REPEATS)]
        if tracer:
            tracer.uninstall()
            tracer.phase = "step"

        # Iteration 0 warms allocator and caches and is not timed.  With
        # tracing, later iterations alternate traced / untraced so the
        # overhead is measured in the same process.
        min_iters = 4 if tracer else 2
        iters, outcomes, count_sets, walls = [], [], [], []
        start = time.perf_counter()
        while len(iters) < min_iters or time.perf_counter() - start + statistics.median(walls) <= self.args.seconds:
            traced = bool(tracer) and len(iters) % 2 == 1
            t_wall = time.perf_counter()
            if traced:
                before, tapes_before = tracer.counts_snapshot(), len(tracer.tapes)
                tracer.install()
            try:
                seconds, outcome = self.iterate()
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                after = tracer.counts_snapshot()
                count_sets.append({**{k: after[k] - before[k] for k in after}, "tapes": tracer.tapes[tapes_before:]})
            walls.append(time.perf_counter() - t_wall)
            iters.append({"seconds": seconds, "traced": traced, "warmup": not iters})
            outcomes.append(outcome)

        record = {"iterations": iters, "setup_seconds": setup_times}
        done = [o for o in outcomes if o is not None]
        if self.wl.mode == "train":
            record.update(self.check_training(done))
        elif done:
            digests = [digest([(r["id"], r["pred"]) for r in dump]) for _, dump in done]
            self.check("eval: same predictions every call", len(set(digests)) == 1, f"{len(set(digests))} digests")
            record["digest"] = digests[0]
            record["test_metric"] = done[0][0]

        timed = [it["seconds"] for it in iters[1:] if not it["traced"]]
        e2e = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": self.items_per_call() / statistics.median(timed), "unit": "items/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
        }
        if tracer:
            traced_times = [it["seconds"] for it in iters if it["traced"]]
            overhead = 100.0 * (statistics.median(traced_times) / statistics.median(timed) - 1.0)
            self.check("trace: counts repeat across iterations", all(c == count_sets[0] for c in count_sets),
                       json.dumps(count_sets, default=str)[:500])
            if self.wl.mode == "train":
                steps = self.steps_per_call() * len(traced_times)
            else:  # one step is one predict call
                steps = int(count_sets[0]["forward_calls"]) * len(traced_times) or len(traced_times)
            metrics, missing, not_exercised = tracer.metrics(steps, epochs=len(traced_times), overhead_pct=overhead)
            for warning in tracer.warnings:
                print(f"warning: {warning}", file=sys.stderr)
            record.update({"traced_end_to_end": e2e, "counts": {k: metrics[k]["value"] for k in (
                "tensor.tape_nodes", "tensor.tape_mb", "tensor.gemm_gflop", "tensor.conv_gflop",
                "encoders.fact_gru_calls", "model.micro_batches_per_step") if k in metrics},
                "missing_layers": missing, "not_exercised": not_exercised, "warnings": tracer.warnings})
        else:
            metrics = e2e
        record["checks"] = self.checks
        record["error_rate"] = self.failed / max(1, self.attempted)
        result = {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}
        return result, record

    def check_training(self, histories: list[list[dict]]) -> dict:
        if not histories:
            return {}
        strip = [[{k: v for k, v in h.items() if k != "seconds"} for h in hist] for hist in histories]
        losses = [h["train_loss"] for h in strip[0]]
        self.check("train: losses finite", all(math.isfinite(x) for x in losses), str(losses))
        self.check("train: same losses every call", all(s == strip[0] for s in strip), str(strip))
        model, manifest = self.training.load_checkpoint(self.ckpt)
        metric, dump = self.training.evaluate_model(model, self.dataset, "val")
        self.check_predictions(dump, "val")
        recorded = [h["val_metric"] for h in manifest["history"]]
        best = min(recorded) if self.task.value == "count" else max(recorded)
        self.check("train: checkpoint re-evaluates to best val_metric", metric == best, f"{metric} vs {best}")
        self.check("train: checkpoint history matches train()", manifest["history"] == histories[-1])
        return {"losses": losses, "val_metric": metric, "digest": digest(strip[0])}


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads these once, when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "comem" / "__init__.py").is_file():
        print(f"error: no comem sources under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import numpy as np

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        run = Run(args, work)
        result, record = run.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload]
    header = {
        "benchmark": "comem", "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "dims": "tiny" if args.tiny else "paper", "env": environment(np),
        "dataset": {"episodes": wl.episodes, "items": {s: len(v) for s, v in run.dataset.items.items()}},
        "params": run.params,
    }
    print(json.dumps({**header, **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
