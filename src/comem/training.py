"""Per-task optimization loop, metrics, and checkpoint round-trip."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset
from .decoders import TaskKind
from .errors import ConfigError, DomainError, FormatError, NumericError
from .model import CoMemoryModel, ModelConfig
from .tensor import ParameterStore

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# v2 dropped the fact GRUs' update-gate parameters, which the forward pass never read
CHECKPOINT_FORMAT = "comem-checkpoint-v2"


@dataclass
class TrainConfig:
    task: str = "frame"
    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 50
    cycles: int = 2
    levels: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise DomainError("learning rate must be > 0 and counts positive")
        if self.cycles < 1 or self.levels < 1:
            raise DomainError("cycles and levels must be positive")
        TaskKind(self.task)


class AdamState:
    """First/second moment buffers keyed by parameter name."""

    def __init__(self, params: ParameterStore):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(
    params: ParameterStore,
    state: AdamState,
    lr: float = 0.001,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
):
    """Standard bias-corrected Adam over every parameter with a gradient.

    Parameters are visited in store insertion order, so accumulation and
    updates are deterministic.  When the global gradient norm is not finite,
    ``NumericError`` is raised before any parameter, moment buffer or step
    count changes.
    """
    norm = np.sqrt(sum(float(np.vdot(p.grad, p.grad)) for _, p in params.items() if p.grad is not None))
    if not np.isfinite(norm):
        raise NumericError(f"adam_step: global gradient norm is {norm} before step {state.step + 1}")
    state.step += 1
    t = state.step
    correction = np.sqrt(1.0 - beta2 ** t) / (1.0 - beta1 ** t)
    for name, p in params.items():
        g = p.grad
        m, v = state.m[name], state.v[name]
        if g is None:
            m *= beta1
            v *= beta2
            continue
        if g.shape != p.data.shape:
            raise DomainError(f"adam_step: gradient shape {g.shape} vs parameter {p.data.shape} for {name!r}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= (lr * correction) * m / (np.sqrt(v) + eps)


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model: CoMemoryModel, train_config: TrainConfig, epoch: int, history: list[dict]):
    """Manifest JSON at ``path`` plus a float32 blob at ``path + '.bin'``.

    Writes are atomic (temp file then rename).
    """
    path = Path(path)
    entries, blobs, offset = [], [], 0
    for name, t in model.store.items():
        raw = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(t.data.shape), "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "model_config": model.config.to_dict(),
        "train_config": asdict(train_config),
        "epoch": epoch,
        "history": history,
        "blob": path.name + ".bin",
        "parameters": entries,
        "total_bytes": offset,
    }
    blob_tmp = path.with_name(path.name + ".bin.tmp")
    blob_tmp.write_bytes(b"".join(blobs))
    os.replace(blob_tmp, path.with_name(path.name + ".bin"))
    manifest_tmp = path.with_name(path.name + ".tmp")
    manifest_tmp.write_text(json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(manifest_tmp, path)


def load_checkpoint(path) -> tuple[CoMemoryModel, dict]:
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError covers JSON and UTF-8 decoding
        raise FormatError(f"{path}: unreadable checkpoint manifest ({e})")
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise FormatError(f"{path}: unsupported checkpoint format {fmt!r}, expected {CHECKPOINT_FORMAT!r}")
    blob_name = _field(manifest, "blob", path)
    if not isinstance(blob_name, str) or blob_name in ("", "..") or Path(blob_name).name != blob_name:
        raise FormatError(f"{path}: checkpoint blob {blob_name!r} is not a file name in the manifest's directory")
    blob_path = path.parent / blob_name
    try:
        blob = blob_path.read_bytes()
    except OSError as e:
        raise FormatError(f"{path}: unreadable checkpoint blob {blob_path} ({e})")
    total = _field(manifest, "total_bytes", path)
    if len(blob) != total:
        raise FormatError(f"{path}: blob has {len(blob)} bytes, manifest says {total}")
    try:
        config = ModelConfig.from_dict(_field(manifest, "model_config", path))
    except TypeError as e:
        raise FormatError(f"{path}: bad model_config in checkpoint manifest ({e})")
    model = CoMemoryModel(config, seed=0)
    values = {}
    for entry in _field(manifest, "parameters", path):
        name = _field(entry, "name", path)
        shape = tuple(_field(entry, "shape", path))
        nbytes = _field(entry, "nbytes", path)
        count = int(np.prod(shape)) if shape else 1
        if nbytes != count * 4:
            raise FormatError(f"{path}: parameter {name!r} has {nbytes} bytes, expected {count * 4}")
        start = _field(entry, "offset", path)
        values[name] = np.frombuffer(blob[start : start + nbytes], dtype="<f4").reshape(shape).copy()
    model.store.load_values(values)
    return model, manifest


def _field(record, key: str, path):
    """``record[key]`` of a checkpoint manifest; a missing key is a ``FormatError``."""
    try:
        return record[key]
    except (KeyError, TypeError):
        raise FormatError(f"{path}: checkpoint manifest has no {key!r} field") from None


# -- training ------------------------------------------------------------------


def model_config_for(dataset: Dataset, cfg: TrainConfig, dims: Optional[dict] = None) -> ModelConfig:
    sample = dataset.features(dataset.items["train"][0].video) if dataset.items["train"] else None
    if sample is None:
        raise DomainError("training split is empty")
    overrides = dims or {}
    return ModelConfig(
        task=cfg.task,
        vocab_size=dataset.vocab_size,
        input_width_a=sample[0].shape[1],
        input_width_b=sample[1].shape[1],
        answer_vocab=dataset.answer_vocab,
        resolution=sample[0].shape[0],
        levels=cfg.levels,
        cycles=cfg.cycles,
        **overrides,
    )


def _metric_from_preds(task: TaskKind, preds: np.ndarray, golds: np.ndarray) -> float:
    if task is TaskKind.REPETITION_COUNT:
        return float(np.mean((preds.astype(np.float64) - golds.astype(np.float64)) ** 2))
    return float(np.mean(preds == golds))


def _better(task: TaskKind, a: float, b: float) -> bool:
    return a < b if task is TaskKind.REPETITION_COUNT else a > b


def evaluate_model(model: CoMemoryModel, dataset: Dataset, split: str = "test", batch_size: int = 64):
    """Metric plus per-item predictions for one split."""
    task = model.config.task_kind()
    if task is not dataset.task:
        raise ConfigError(f"checkpoint task {task.value!r} does not match dataset task {dataset.task.value!r}")
    items = dataset.items[split]
    if not items:
        raise DomainError(f"split {split!r} is empty")
    preds, golds, ids = [], [], []
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        batch = dataset.batch(chunk)
        p = model.predict(batch)
        preds.extend(int(x) for x in p)
        golds.extend(int(a) for a in batch["answers"])
        ids.extend(batch["ids"])
    metric = _metric_from_preds(task, np.asarray(preds), np.asarray(golds))
    dump = [{"id": i, "pred": p, "gold": g} for i, p, g in zip(ids, preds, golds)]
    return metric, dump


def evaluate(checkpoint_path, data_dir, split: str = "test", batch_size: int = 64):
    model, _ = load_checkpoint(checkpoint_path)
    dataset = Dataset(data_dir, model.config.task_kind())
    return evaluate_model(model, dataset, split=split, batch_size=batch_size)


def _micro_batch_size(task: TaskKind, batch_size: int) -> int:
    """Graph chunk size for one optimizer step.

    Multiple-choice batches hold five candidate graphs at once, so they are
    split into smaller forward/backward chunks with accumulated gradients;
    the optimizer step and the resulting updates are unchanged.
    """
    if task.is_multiple_choice:
        return max(1, batch_size // 4)
    return batch_size


def train(
    cfg: TrainConfig,
    data_dir,
    checkpoint_path,
    dims: Optional[dict] = None,
    log_fn=None,
) -> list[dict]:
    """Train one task; keeps the best-validation checkpoint at ``checkpoint_path``.

    Returns the per-epoch history: train loss, validation metric, seconds.
    Deterministic for a fixed seed and single-worker execution.
    """
    task = TaskKind(cfg.task)
    dataset = Dataset(data_dir, task)
    model_cfg = model_config_for(dataset, cfg, dims)
    model = CoMemoryModel(model_cfg, seed=cfg.seed)
    state = AdamState(model.store)
    shuffle_rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg.seed)))
    items = dataset.items["train"]
    history: list[dict] = []
    best: Optional[float] = None
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.time()
        order = shuffle_rng.permutation(len(items))
        losses = []
        micro = _micro_batch_size(task, cfg.batch_size)
        for start in range(0, len(items), cfg.batch_size):
            chunk = [items[int(i)] for i in order[start : start + cfg.batch_size]]
            model.store.zero_grad()
            step_loss = 0.0
            for ms in range(0, len(chunk), micro):
                sub = chunk[ms : ms + micro]
                batch = dataset.batch(sub)
                loss, _ = model.forward_loss(batch)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise NumericError(f"non-finite loss in epoch {epoch}, batch starting at item {start} ({sub[0].id})")
                step_loss += value * len(sub)
                # weight so accumulated gradients equal the full-batch mean
                loss.backward(np.full_like(loss.data, len(sub) / len(chunk)))
            adam_step(model.store, state, lr=cfg.learning_rate)
            losses.append(step_loss / len(chunk))
        val_metric, _ = evaluate_model(model, dataset, split="val", batch_size=cfg.batch_size)
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "val_metric": val_metric,
            "seconds": round(time.time() - t0, 3),
        }
        history.append(entry)
        if log_fn:
            log_fn(entry)
        if best is None or _better(task, val_metric, best):
            best = val_metric
            save_checkpoint(checkpoint_path, model, cfg, epoch, history)
    # keep the recorded history complete in the (already best) manifest
    best_model, manifest = load_checkpoint(checkpoint_path)
    save_checkpoint(checkpoint_path, best_model, cfg, manifest["epoch"], history)
    return history


def write_metric_log(path, history: list[dict]):
    lines = ["epoch,train_loss,val_metric,seconds"]
    lines += [f"{h['epoch']},{h['train_loss']:.6f},{h['val_metric']:.6f},{h['seconds']}" for h in history]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
