"""Per-task optimization loop, metrics, and checkpoint round-trip."""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset
from .decoders import NUM_CHOICES, TaskKind
from .errors import ConfigError, DomainError, FormatError, NumericError
from .model import CoMemoryModel, ModelConfig
from .tensor import ParameterStore

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# v2 dropped the fact GRUs' update-gate parameters, which the forward pass never read;
# v3 recorded the blob's sha256; v4 records each parameter's sha256 instead
CHECKPOINT_FORMAT = "comem-checkpoint-v4"

# threads that run the Adam update and hash checkpoint parameters; two fill a
# 2-core host, and the result does not depend on the count
THREADS = 2


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


# elements per block of the Adam update: a block's operands and scratch stay in cache
ADAM_BLOCK = 1 << 16


class AdamState:
    """First/second moment buffers keyed by parameter name, plus scratch blocks.

    Each of the ``THREADS`` update threads owns two scratch blocks of the
    parameters' dtype, which every step reuses.
    """

    def __init__(self, params: ParameterStore):
        self.step = 0
        self.m = {name: np.zeros(t.data.shape, dtype=t.data.dtype) for name, t in params.items()}
        self.v = {name: np.zeros(t.data.shape, dtype=t.data.dtype) for name, t in params.items()}
        self._scratch = [np.empty((2, ADAM_BLOCK), dtype=params.dtype) for _ in range(THREADS)]


def adam_step(
    params: ParameterStore,
    state: AdamState,
    lr: float = 0.001,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
):
    """Standard bias-corrected Adam over every parameter with a gradient.

    Moments and weights are updated in place, in the parameters' dtype, in
    the operation order of ``p -= s * m / (sqrt(v) + eps)`` with ``m``, ``v``
    decayed first and the bias-corrected step size ``s`` rounded once to that
    dtype; gradients are left unchanged.  The ``ADAM_BLOCK``-element blocks of
    all parameters, in store insertion order, are dealt to ``THREADS``
    threads in turn; each element is updated by one thread, so the result
    does not depend on the thread count.  Every parameter is checked, and
    when the global gradient norm is not finite ``NumericError`` is raised,
    before any parameter, moment buffer or step count changes.
    """
    blocks = []  # (gradient or None, m, v, weights) per block
    for name, p in params.items():
        g = p.grad
        if g is not None and g.shape != p.data.shape:
            raise DomainError(f"adam_step: gradient shape {g.shape} vs parameter {p.data.shape} for {name!r}")
        if not p.data.flags.c_contiguous:
            raise DomainError(f"adam_step: parameter {name!r} is not C-contiguous")
        m, v, w = state.m[name].reshape(-1), state.v[name].reshape(-1), p.data.reshape(-1)
        g = None if g is None else g.reshape(-1)
        for start in range(0, w.size, ADAM_BLOCK):
            block = slice(start, start + ADAM_BLOCK)
            blocks.append((None if g is None else g[block], m[block], v[block], w[block]))
    norm = np.sqrt(sum(float(np.vdot(p.grad, p.grad)) for _, p in params.items() if p.grad is not None))
    if not np.isfinite(norm):
        raise NumericError(f"adam_step: global gradient norm is {norm} before step {state.step + 1}")
    state.step += 1
    t = state.step
    step_size = np.dtype(params.dtype).type(lr * (np.sqrt(1.0 - beta2 ** t) / (1.0 - beta1 ** t)))

    def update(lane: int):
        tmp_block, upd_block = state._scratch[lane]
        for g, m, v, w in blocks[lane::THREADS]:
            m *= beta1
            v *= beta2
            if g is None:
                continue
            tmp, upd = tmp_block[: g.size], upd_block[: g.size]
            m += np.multiply(g, 1.0 - beta1, out=tmp)
            np.multiply(g, g, out=tmp)
            v += np.multiply(tmp, 1.0 - beta2, out=tmp)
            np.multiply(m, step_size, out=upd)
            upd /= np.add(np.sqrt(v, out=tmp), eps, out=tmp)
            w -= upd

    with ThreadPoolExecutor(THREADS) as pool:
        list(pool.map(update, range(THREADS)))  # re-raises a thread's exception


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model: CoMemoryModel, train_config: TrainConfig, epoch: int, history: list[dict]):
    """Manifest JSON at ``path`` plus a float32 blob at ``path + '.bin'``.

    Each parameter is written straight to the blob while ``THREADS`` threads
    hash the parameters; the manifest records each one's sha256.  Both files
    are written to a temp file and renamed, the blob first.
    """
    path = Path(path)
    entries, digests, offset = [], [], 0
    blob_tmp = path.with_name(path.name + ".bin.tmp")
    with ThreadPoolExecutor(THREADS) as pool, open(blob_tmp, "wb") as fh:
        for name, t in model.store.items():
            raw = np.ascontiguousarray(t.data, dtype="<f4")
            digests.append(pool.submit(_sha256, raw))
            fh.write(raw)
            entries.append({"name": name, "shape": list(t.data.shape), "offset": offset, "nbytes": raw.nbytes})
            offset += raw.nbytes
    for entry, digest in zip(entries, digests):
        entry["sha256"] = digest.result()
    os.replace(blob_tmp, path.with_name(path.name + ".bin"))
    _write_manifest(path, {
        "format": CHECKPOINT_FORMAT,
        "model_config": model.config.to_dict(),
        "train_config": asdict(train_config),
        "epoch": epoch,
        "history": history,
        "blob": path.name + ".bin",
        "parameters": entries,
        "total_bytes": offset,
    })


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array).hexdigest()  # releases the GIL while it hashes


def _write_manifest(path: Path, manifest: dict):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[CoMemoryModel, dict]:
    """The model and manifest of a checkpoint whose parameters match their recorded sha256.

    Each parameter is read into its own array, hashed by one of ``THREADS``
    threads while the next is read, and the model is built from those arrays
    without drawing initial weights.
    """
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
    total = _field(manifest, "total_bytes", path)
    try:
        config = ModelConfig.from_dict(_field(manifest, "model_config", path))
        config.task_kind()
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad model_config in checkpoint manifest ({e})")
    if not all(isinstance(v, int) for k, v in asdict(config).items() if k != "task"):
        raise FormatError(f"{path}: checkpoint model_config dimensions must be integers")
    entries = _field(manifest, "parameters", path)
    if not isinstance(entries, list):
        raise FormatError(f"{path}: checkpoint manifest's 'parameters' is not a list")
    values, digests, offset = {}, [], 0
    try:
        with ThreadPoolExecutor(THREADS) as pool, open(blob_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != total:
                raise FormatError(f"{path}: blob has {size} bytes, manifest says {total}")
            for entry in entries:
                name = _field(entry, "name", path)
                shape = _field(entry, "shape", path)
                if not isinstance(name, str) or not isinstance(shape, list) \
                        or not all(isinstance(n, int) and n >= 0 for n in shape):
                    raise FormatError(f"{path}: parameter {name!r} needs a string name and a list of sizes, "
                                      f"got shape {shape!r}")
                nbytes = _field(entry, "nbytes", path)
                expected_sha = _field(entry, "sha256", path)
                count = math.prod(shape)
                if nbytes != count * 4:
                    raise FormatError(f"{path}: parameter {name!r} has {nbytes} bytes, expected {count * 4}")
                if _field(entry, "offset", path) != offset:
                    raise FormatError(f"{path}: parameter {name!r} does not start at blob byte {offset}")
                if offset + nbytes > total:
                    raise FormatError(f"{path}: blob ends inside parameter {name!r}")
                value = np.empty(shape, dtype="<f4")
                if fh.readinto(value) != nbytes:
                    raise FormatError(f"{path}: blob ends inside parameter {name!r}")
                digests.append((name, expected_sha, pool.submit(_sha256, value)))
                values[name] = value
                offset += nbytes
    except OSError as e:
        raise FormatError(f"{path}: unreadable checkpoint blob {blob_path} ({e})")
    if offset != total:
        raise FormatError(f"{path}: parameters cover {offset} of the blob's {total} bytes")
    for name, expected_sha, digest in digests:
        if digest.result() != expected_sha:
            raise FormatError(f"{path}: parameter {name!r} has sha256 {digest.result()}, "
                              f"the manifest records {expected_sha!r}")
    return CoMemoryModel(config, values=values), manifest


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


# episode rows per forward/backward chunk: 16 multiple-choice items x 5 candidates, or 80 items
MICRO_BATCH_ROWS = 80


def _micro_batch_size(task: TaskKind) -> int:
    """Items per forward/backward chunk of an optimizer step.

    A chunk holds ``MICRO_BATCH_ROWS`` episode rows: a multiple-choice item
    runs its ``NUM_CHOICES`` candidate questions through the memories, so it
    counts that many rows.  The budget bounds the tape a chunk keeps while
    letting every GEMM see as many rows as fit.  Gradients accumulate over the
    chunks to the step's mean, so the update changes only in float summation
    order.
    """
    return MICRO_BATCH_ROWS // NUM_CHOICES if task.is_multiple_choice else MICRO_BATCH_ROWS


def _step_gradients(model: CoMemoryModel, dataset: Dataset, chunk: list, micro: int) -> float:
    """Backward the mean loss of ``chunk``, ``micro`` items per graph; returns that mean.

    Each piece's backward is weighted ``len(piece) / len(chunk)``, so the
    parameters' accumulated gradients are those of the whole chunk's mean.
    """
    total = 0.0
    for ms in range(0, len(chunk), micro):
        sub = chunk[ms : ms + micro]
        loss, _ = model.forward_loss(dataset.batch(sub))
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss in the micro-batch starting at item {sub[0].id}")
        total += value * len(sub)
        loss.backward(np.full_like(loss.data, len(sub) / len(chunk)))
    return total / len(chunk)


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
    micro = _micro_batch_size(task)
    history: list[dict] = []
    best: Optional[float] = None
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.time()
        order = shuffle_rng.permutation(len(items))
        losses = []
        for start in range(0, len(items), cfg.batch_size):
            chunk = [items[int(i)] for i in order[start : start + cfg.batch_size]]
            losses.append(_step_gradients(model, dataset, chunk, micro))
            adam_step(model.store, state, lr=cfg.learning_rate)
            model.store.zero_grad()  # frees the gradients for the val pass and the checkpoint
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
    # Verify the best checkpoint by reloading it, with the training weights and
    # Adam moments released first; its blob stays, and its manifest is
    # rewritten only to record epochs that came after it.
    del model, state
    _, manifest = load_checkpoint(checkpoint_path)
    if len(manifest["history"]) < len(history):
        _write_manifest(Path(checkpoint_path), {**manifest, "history": history})
    return history


def write_metric_log(path, history: list[dict]):
    lines = ["epoch,train_loss,val_metric,seconds"]
    lines += [f"{h['epoch']},{h['train_loss']:.6f},{h['val_metric']:.6f},{h['seconds']}" for h in history]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
