"""Per-layer spans for the traced benchmark run.

The tracer wraps public callables of the ``comem`` modules in the namespace
where their callers look them up (``comem.model.run_episodes``,
``comem.memory.attention_gru_encode``, ``comem.tensor.matmul``, ...) and
restores the originals afterwards.  Nothing under ``src/`` knows about it.

Two kinds of wrappers exist:

* layer spans nest on a stack; a span's self time is its duration minus the
  durations of the layer spans it directly encloses;
* op spans (GEMM, temporal conv) are leaves that cut across layers.  They
  are timed and counted but are not subtracted from any layer's self time.

Everything a span records is keyed by phase: ``setup``, ``step`` (timed
iterations) or ``val`` (anything inside the validation pass that
``training.train`` runs after each epoch).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass

MB = 1e6  # decimal megabytes, as peak_rss_mb


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` plus an attribute path inside it."""

    key: str
    module: str
    attr: str
    kind: str = "span"  # "span", "op" or "counter"
    train_only: bool = False


# Each target names the namespace its caller reads at call time.
TARGETS = [
    Target("data.gen", "comem.data", "generate_dataset"),
    Target("data.batch", "comem.data", "Dataset.batch"),
    Target("data.features", "comem.data", "Dataset.features"),
    Target("data.read", "comem.data", "read_feature_file", kind="counter"),
    Target("facts.pyramid", "comem.model", "build_contextual_facts"),
    Target("encoders.token", "comem.model", "encode_token_batch"),
    Target("encoders.fact_gru", "comem.memory", "attention_gru_encode"),
    Target("memory.fact_proj", "comem.model", "fact_projections"),
    Target("memory.fact_proj", "comem.memory", "fact_projections"),
    Target("memory.co_attention", "comem.memory", "co_attention"),
    Target("memory.ensemble", "comem.memory", "dynamic_fact_ensemble"),
    Target("memory.episodes", "comem.model", "run_episodes"),
    *[Target("decoders.head", "comem.decoders", name) for name in (
        "score_choice", "count_regression", "word_logits", "cross_entropy_loss",
        "l2_count_loss", "predict_count", "predict_word")],
    Target("model.forward", "comem.model", "CoMemoryModel.forward_loss"),
    Target("model.forward", "comem.model", "CoMemoryModel.predict"),
    Target("tensor.backward", "comem.tensor", "Tensor.backward"),
    Target("tensor.gemm", "comem.tensor", "matmul", kind="op"),
    Target("tensor.conv", "comem.tensor", "conv1d_temporal", kind="op"),
    Target("tensor.conv", "comem.tensor", "deconv1d_temporal", kind="op"),
    Target("training.adam", "comem.training", "adam_step"),
    # on the eval workload evaluate_model is the timed call itself, not a val pass
    Target("training.val", "comem.training", "evaluate_model", train_only=True),
    Target("training.ckpt_save", "comem.training", "save_checkpoint"),
    Target("training.ckpt_load", "comem.training", "load_checkpoint"),
]

# Per-layer metric -> unit, in report order.
PER_LAYER = {
    "data.gen_s": "s/call",
    "data.batch_s": "s/step",
    "data.feature_cache_hit_ratio": "ratio",
    "facts.pyramid_s": "s/step",
    "facts.rss_delta_mb": "MB/step",
    "encoders.token_s": "s/step",
    "encoders.fact_gru_s": "s/step",
    "encoders.fact_gru_calls": "count/step",
    "memory.fact_proj_s": "s/step",
    "memory.co_attention_s": "s/step",
    "memory.ensemble_s": "s/step",
    "memory.episodes_s": "s/step",
    "memory.episodes_self_s": "s/step",
    "decoders.head_s": "s/step",
    "model.forward_s": "s/step",
    "model.forward_self_s": "s/step",
    "model.micro_batches_per_step": "count/step",
    "tensor.backward_s": "s/step",
    "tensor.tape_nodes": "nodes/fwd",
    "tensor.tape_mb": "MB/fwd",
    "tensor.gemm_calls": "count/step",
    "tensor.gemm_gflop": "GFLOP/step",
    "tensor.gemm_s": "s/step",
    "tensor.gemm_gflop_per_s": "GFLOP/s",
    "tensor.conv_gflop": "GFLOP/step",
    "tensor.conv_s": "s/step",
    "training.adam_s": "s/step",
    "training.val_s": "s/epoch",
    "training.ckpt_save_s": "s/call",
    "training.ckpt_load_s": "s/call",
    "training.ckpt_mb": "MB",
    "trace.overhead_pct": "%",
}

# Layers an eval run never enters: there is no loss, tape, backward or Adam.
# On eval-trans they read 0 as measured; anywhere else zero calls mean the
# layer has gone missing.
TRAIN_ONLY_METRICS = {"tensor.backward_s", "tensor.tape_nodes", "tensor.tape_mb",
                      "training.adam_s", "training.val_s"}


def _resident_bytes() -> int | None:
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


def tape_size(root) -> tuple[int, int] | None:
    """Nodes reachable from ``root`` through ``_parents`` and their value bytes."""
    if not hasattr(root, "_parents"):
        return None
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node._parents)
    return len(seen), nbytes


def _gemm_flop(args, result) -> float:
    x, w = args[0], args[1]
    k, n = w.data.shape
    return 2.0 * (x.data.size // k) * k * n


def _conv_flop(args, result) -> float:
    # im2col form: (rows out, k*Cin) @ (k*Cin, Cout)
    k, cin, cout = args[1].data.shape
    return 2.0 * (result.data.size // cout) * k * cin * cout


def _deconv_flop(args, result) -> float:
    # one gemm over the input rows: (rows in, Cin) @ (Cin, k*Cout)
    x, kernel = args[0], args[1]
    k, cin, cout = kernel.data.shape
    return 2.0 * (x.data.size // cin) * cin * k * cout


FLOP = {"matmul": _gemm_flop, "conv1d_temporal": _conv_flop, "deconv1d_temporal": _deconv_flop}


class Tracer:
    """Installs wrappers, records spans and counters, and restores originals."""

    def __init__(self, train_workload: bool):
        self.train_workload = train_workload
        self.phase = "setup"
        self._stack: list[list] = []  # [key, child seconds]
        self.calls = defaultdict(int)  # (phase, key) -> calls
        self.incl = defaultdict(float)  # (phase, key) -> seconds, outermost calls only
        self.self_s = defaultdict(float)  # (phase, key) -> seconds minus child layer spans
        self.counts = defaultdict(float)  # (phase, name) -> counter
        self.tapes: list[tuple[int, int]] = []  # per forward pass in the step phase
        self.warnings: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._reads = 0
        self._rss_ok = _resident_bytes() is not None
        if not self._rss_ok:
            self._warn("/proc/self/statm unreadable: facts.rss_delta_mb is not measured")

    def _warn(self, message: str):
        if message not in self.warnings:
            self.warnings.append(message)

    # -- installation ------------------------------------------------------

    def install(self):
        for target in TARGETS:
            if target.train_only and not self.train_workload:
                continue
            owner, name = self._resolve(target)
            if owner is None:
                self._warn(f"missing layer: {target.module}.{target.attr} not found, {target.key} not traced")
                continue
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(target, original))

    def uninstall(self):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    @staticmethod
    def _resolve(target: Target):
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None, None
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            return None, None
        return owner, name

    # -- recording ---------------------------------------------------------

    def _current_phase(self) -> str:
        return "val" if any(frame[0] == "training.val" for frame in self._stack) else self.phase

    def _wrap(self, target: Target, fn):
        key = target.key
        if target.kind == "counter":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._reads += 1
                self.calls[(self._current_phase(), key)] += 1
                return fn(*args, **kwargs)
            return counted

        if target.kind == "op":
            flop = FLOP[target.attr]

            @functools.wraps(fn)
            def op(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                phase = self._current_phase()
                self.calls[(phase, key)] += 1
                self.incl[(phase, key)] += dt
                self.counts[(phase, key + ".flop")] += flop(args, result)
                return result
            return op

        @functools.wraps(fn)
        def span(*args, **kwargs):
            phase = self._current_phase()
            nested = any(frame[0] == key for frame in self._stack)
            reads_before = self._reads
            rss_before = _resident_bytes() if key == "facts.pyramid" and self._rss_ok else None
            frame = [key, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[(phase, key)] += 1
                self.self_s[(phase, key)] += dt - frame[1]
                if not nested:
                    self.incl[(phase, key)] += dt
            if key == "data.features" and self._reads == reads_before:
                self.counts[(phase, "data.features.hits")] += 1
            elif rss_before is not None:
                self.counts[(phase, "facts.rss_delta")] += _resident_bytes() - rss_before
            elif key == "training.ckpt_save":
                self._record_checkpoint_size(args[0])
            elif key == "model.forward" and phase == "step" and isinstance(result, tuple):
                size = tape_size(result[0])
                if size is not None:
                    self.tapes.append(size)
            return result
        return span

    def _record_checkpoint_size(self, path):
        manifest = os.fspath(path)
        sizes = [os.path.getsize(p) for p in (manifest, manifest + ".bin") if os.path.exists(p)]
        self.counts[("all", "training.ckpt_bytes")] += sum(sizes)

    # -- summary -----------------------------------------------------------

    def counts_snapshot(self) -> dict:
        """Step-phase counts; between iterations of one run they must not differ."""
        return {
            "gemm_calls": self.calls[("step", "tensor.gemm")],
            "gemm_flop": self.counts[("step", "tensor.gemm.flop")],
            "conv_flop": self.counts[("step", "tensor.conv.flop")],
            "fact_gru_calls": self.calls[("step", "encoders.fact_gru")],
            "forward_calls": self.calls[("step", "model.forward")],
        }

    def metrics(self, steps: int, epochs: int, overhead_pct: float | None) -> tuple[dict, list[str], list[str]]:
        """Per-layer metrics; returns (metrics, missing layers, layers not exercised).

        ``steps`` counts optimizer steps (train) or predict calls (eval) in
        the traced iterations, ``epochs`` the traced ``train`` calls.
        """
        every = ("setup", "step", "val")

        def total(table, key, phases=("step",)):
            return sum(table[(p, key)] for p in phases)

        def per_step(table, key):
            return lambda: total(table, key) / steps

        def per_call(key, phases):
            return lambda: total(self.incl, key, phases) / total(self.calls, key, phases)

        def n(key, phases=("step",)):
            return total(self.calls, key, phases)

        tapes = self.tapes
        table = {  # metric -> (calls that feed it, value)
            "data.gen_s": (n("data.gen", ("setup",)), per_call("data.gen", ("setup",))),
            "data.batch_s": (n("data.batch"), per_step(self.incl, "data.batch")),
            "data.feature_cache_hit_ratio": (
                n("data.features", ("step", "val")),
                lambda: total(self.counts, "data.features.hits", ("step", "val"))
                / n("data.features", ("step", "val"))),
            "facts.pyramid_s": (n("facts.pyramid"), per_step(self.self_s, "facts.pyramid")),
            "facts.rss_delta_mb": (n("facts.pyramid") if self._rss_ok else 0,
                                   lambda: total(self.counts, "facts.rss_delta") / steps / MB),
            "encoders.token_s": (n("encoders.token"), per_step(self.incl, "encoders.token")),
            "encoders.fact_gru_s": (n("encoders.fact_gru"), per_step(self.incl, "encoders.fact_gru")),
            "encoders.fact_gru_calls": (n("encoders.fact_gru"), per_step(self.calls, "encoders.fact_gru")),
            "memory.fact_proj_s": (n("memory.fact_proj"), per_step(self.incl, "memory.fact_proj")),
            "memory.co_attention_s": (n("memory.co_attention"), per_step(self.incl, "memory.co_attention")),
            "memory.ensemble_s": (n("memory.ensemble"), per_step(self.incl, "memory.ensemble")),
            "memory.episodes_s": (n("memory.episodes"), per_step(self.incl, "memory.episodes")),
            "memory.episodes_self_s": (n("memory.episodes"), per_step(self.self_s, "memory.episodes")),
            "decoders.head_s": (n("decoders.head"), per_step(self.self_s, "decoders.head")),
            "model.forward_s": (n("model.forward"), per_step(self.incl, "model.forward")),
            "model.forward_self_s": (n("model.forward"), per_step(self.self_s, "model.forward")),
            "model.micro_batches_per_step": (n("model.forward"), per_step(self.calls, "model.forward")),
            "tensor.backward_s": (n("tensor.backward"), per_step(self.incl, "tensor.backward")),
            "tensor.tape_nodes": (len(tapes), lambda: sum(t[0] for t in tapes) / len(tapes)),
            "tensor.tape_mb": (len(tapes), lambda: sum(t[1] for t in tapes) / len(tapes) / MB),
            "tensor.gemm_calls": (n("tensor.gemm"), per_step(self.calls, "tensor.gemm")),
            "tensor.gemm_gflop": (n("tensor.gemm"), lambda: total(self.counts, "tensor.gemm.flop") / steps / 1e9),
            "tensor.gemm_s": (n("tensor.gemm"), per_step(self.incl, "tensor.gemm")),
            "tensor.gemm_gflop_per_s": (n("tensor.gemm"), lambda: total(self.counts, "tensor.gemm.flop") / 1e9
                                        / total(self.incl, "tensor.gemm")),
            "tensor.conv_gflop": (n("tensor.conv"), lambda: total(self.counts, "tensor.conv.flop") / steps / 1e9),
            "tensor.conv_s": (n("tensor.conv"), per_step(self.incl, "tensor.conv")),
            "training.adam_s": (n("training.adam"), per_step(self.incl, "training.adam")),
            "training.val_s": (n("training.val"), lambda: total(self.incl, "training.val") / epochs),
            "training.ckpt_save_s": (n("training.ckpt_save", every), per_call("training.ckpt_save", every)),
            "training.ckpt_load_s": (n("training.ckpt_load", every), per_call("training.ckpt_load", every)),
            "training.ckpt_mb": (n("training.ckpt_save", every),
                                 lambda: self.counts[("all", "training.ckpt_bytes")] / MB
                                 / n("training.ckpt_save", every)),
            "trace.overhead_pct": (1 if overhead_pct is not None else 0, lambda: overhead_pct),
        }
        out, missing, not_exercised = {}, [], []
        for name, unit in PER_LAYER.items():
            calls, value = table[name]
            if calls:
                out[name] = {"value": float(value()), "unit": unit}
            elif name in TRAIN_ONLY_METRICS and not self.train_workload:
                out[name] = {"value": 0.0, "unit": unit}
                not_exercised.append(name)
            else:
                missing.append(name)
                self._warn(f"missing layer: {name} got no calls on this workload; not reported")
        return out, missing, not_exercised
