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

from . import tensor as T
from .data import Dataset, is_json_int, read_json_object
from .decoders import TaskKind
from .errors import ConfigError, DomainError, FormatError, NumericError
from .model import CoMemoryModel, ModelConfig
from .tensor import ParameterStore, flush_subnormals

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# v2 dropped the fact GRUs' update-gate parameters, which the forward pass never read;
# v3 recorded the blob's sha256; v4 each parameter's sha256 instead; v5 stores
# each GRU weight block ([w_z | w_r | w_h], its bias, [u_z | u_r]) as one parameter
CHECKPOINT_FORMAT = "comem-checkpoint-v5"


@dataclass
class TrainConfig:
    task: TaskKind = TaskKind.FRAME_QA
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
        if not 0 <= self.seed < 2**63:
            raise DomainError(f"seed must be in [0, 2**63), got {self.seed}")
        self.task = TaskKind(self.task)


# elements per block of the Adam update: a block's operands and scratch stay in cache
ADAM_BLOCK = 1 << 16


class AdamState:
    """First/second moment buffers keyed by parameter name, plus scratch blocks.

    Each of the ``T.THREADS`` update threads owns two scratch blocks of the
    parameters' dtype, which every step reuses.
    """

    def __init__(self, params: ParameterStore):
        self.step = 0
        self.m = {name: np.zeros(t.data.shape, dtype=t.data.dtype) for name, t in params.items()}
        self.v = {name: np.zeros(t.data.shape, dtype=t.data.dtype) for name, t in params.items()}
        self._scratch = [np.empty((2, ADAM_BLOCK), dtype=params.dtype) for _ in range(T.THREADS)]


def adam_step(params: ParameterStore, state: AdamState, lr: float = 0.001):
    """Standard bias-corrected Adam over every parameter with a gradient.

    Moments and weights are updated in place, in the parameters' dtype, in
    the operation order of ``p -= s * m / (sqrt(v) + eps)`` with ``m``, ``v``
    decayed first and the bias-corrected step size ``s`` rounded once to that
    dtype; gradients are left unchanged.  The ``ADAM_BLOCK``-element blocks of
    all parameters, in store insertion order, are dealt to ``T.THREADS``
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
    step_size = np.dtype(params.dtype).type(lr * (np.sqrt(1.0 - ADAM_BETA2 ** t) / (1.0 - ADAM_BETA1 ** t)))

    def update(lane: int):
        tmp_block, upd_block = state._scratch[lane]
        for g, m, v, w in blocks[lane::T.THREADS]:
            m *= ADAM_BETA1
            v *= ADAM_BETA2
            if g is None:
                continue
            tmp, upd = tmp_block[: g.size], upd_block[: g.size]
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            np.multiply(g, g, out=tmp)
            v += np.multiply(tmp, 1.0 - ADAM_BETA2, out=tmp)
            np.multiply(m, step_size, out=upd)
            upd /= np.add(np.sqrt(v, out=tmp), ADAM_EPS, out=tmp)
            w -= upd

    with ThreadPoolExecutor(T.THREADS) as pool:
        list(pool.map(update, range(T.THREADS)))  # re-raises a thread's exception


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model: CoMemoryModel, train_config: TrainConfig, epoch: int, history: list[dict]):
    """Manifest JSON at ``path`` plus a float32 blob beside it.

    The blob is written straight to whichever of ``<name>.0.bin`` and
    ``<name>.1.bin`` the current manifest does not name, while ``T.THREADS``
    threads hash the parameters; the manifest records each one's sha256.  The
    manifest's atomic rename is the one commit, so no rename replaces a blob and
    a save cut short before it leaves the previous checkpoint whole.  Then the
    superseded blob is deleted if it is one of this checkpoint's own names
    (``<name>.bin`` being the one older saves wrote).
    """
    path = Path(path)
    own = [path.name + suffix for suffix in (".0.bin", ".1.bin", ".bin")]
    try:
        old = read_json_object(path).get("blob")
    except FormatError:  # no readable manifest: nothing to supersede
        old = None
    blob = path.with_name(own[1] if old == own[0] else own[0])
    entries, digests, offset = [], [], 0
    with ThreadPoolExecutor(T.THREADS) as pool, open(blob, "wb") as fh:
        for name, t in model.store.items():
            raw = np.ascontiguousarray(t.data, dtype="<f4")
            digests.append(pool.submit(_sha256, raw))
            fh.write(raw)
            entries.append({"name": name, "shape": list(t.data.shape), "offset": offset, "nbytes": raw.nbytes})
            offset += raw.nbytes
    for entry, digest in zip(entries, digests):
        entry["sha256"] = digest.result()
    _write_manifest(path, {
        "format": CHECKPOINT_FORMAT,
        "model_config": asdict(model.config),
        "train_config": asdict(train_config),
        "epoch": epoch,
        "history": history,
        "blob": blob.name,
        "parameters": entries,
        "total_bytes": offset,
    })
    if old in own:
        path.with_name(old).unlink(missing_ok=True)


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array).hexdigest()  # releases the GIL while it hashes


def _write_manifest(path: Path, manifest: dict):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[CoMemoryModel, dict]:
    """The model and manifest of a checkpoint whose parameters match their recorded sha256.

    Each parameter is read into its own array, hashed by one of ``T.THREADS``
    threads while the next is read, and the model is built from those arrays
    without drawing initial weights.
    """
    path = Path(path)
    manifest = read_json_object(path)
    fmt = manifest.get("format")
    if fmt != CHECKPOINT_FORMAT:
        raise FormatError(f"{path}: unsupported checkpoint format {fmt!r}, expected {CHECKPOINT_FORMAT!r}")
    blob_name = _field(manifest, "blob", path)
    if not isinstance(blob_name, str) or blob_name in ("", "..") or Path(blob_name).name != blob_name:
        raise FormatError(f"{path}: checkpoint blob {blob_name!r} is not a file name in the manifest's directory")
    blob_path = path.parent / blob_name
    total = _int_field(manifest, "total_bytes", path)
    _int_field(manifest, "epoch", path)
    try:
        config = ModelConfig(**_field(manifest, "model_config", path))
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad model_config in checkpoint manifest ({e})")
    if not all(is_json_int(v) for k, v in asdict(config).items() if k != "task"):
        raise FormatError(f"{path}: checkpoint model_config dimensions must be integers")
    entries = _field(manifest, "parameters", path)
    if not isinstance(entries, list):
        raise FormatError(f"{path}: checkpoint manifest's 'parameters' is not a list")
    values, digests, offset = {}, [], 0
    try:
        with ThreadPoolExecutor(T.THREADS) as pool, open(blob_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != total:
                raise FormatError(f"{path}: blob has {size} bytes, manifest says {total}")
            for entry in entries:
                name = _field(entry, "name", path)
                shape = _field(entry, "shape", path)
                if not isinstance(name, str) or not isinstance(shape, list) \
                        or not all(is_json_int(n) and n >= 0 for n in shape):
                    raise FormatError(f"{path}: parameter {name!r} needs a string name and a list of sizes, "
                                      f"got shape {shape!r}")
                nbytes = _int_field(entry, "nbytes", path)
                expected_sha = _field(entry, "sha256", path)
                count = math.prod(shape)
                if nbytes != count * 4:
                    raise FormatError(f"{path}: parameter {name!r} has {nbytes} bytes, expected {count * 4}")
                if _int_field(entry, "offset", path) != offset:
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


def _int_field(record, key: str, path) -> int:
    """``_field`` that must hold a JSON integer, not ``true``/``false``."""
    value = _field(record, key, path)
    if not is_json_int(value):
        raise FormatError(f"{path}: checkpoint manifest's {key!r} must be an integer, got {value!r}")
    return value


# -- training ------------------------------------------------------------------


def model_config_for(dataset: Dataset, cfg: TrainConfig, dims: Optional[dict] = None) -> ModelConfig:
    """The model for ``cfg`` on ``dataset``: feature widths and length from its manifest's spec, ``dims`` overriding."""
    (length, width_a), (_, width_b) = dataset.feature_shapes
    return ModelConfig(
        task=cfg.task,
        vocab_size=dataset.vocab_size,
        input_width_a=width_a,
        input_width_b=width_b,
        answer_vocab=dataset.answer_vocab,
        resolution=length,
        levels=cfg.levels,
        cycles=cfg.cycles,
        **(dims or {}),
    )


# items per forward pass in training and evaluation (a multiple-choice item runs one
# episode row per candidate); results depend on it only through float summation order
ITEMS_PER_PASS = 64


def check_dataset(config: ModelConfig, dataset: Dataset):
    """``ConfigError`` unless ``dataset`` has ``config``'s task, vocabulary sizes, video length and feature widths."""
    (length, width_a), (_, width_b) = dataset.feature_shapes
    for field, ours, theirs in (("task", config.task.value, dataset.task.value),
                                ("vocab_size", config.vocab_size, dataset.vocab_size),
                                ("answer_vocab", config.answer_vocab, dataset.answer_vocab),
                                ("resolution", config.resolution, length),
                                ("input_width_a", config.input_width_a, width_a),
                                ("input_width_b", config.input_width_b, width_b)):
        if ours != theirs:
            raise ConfigError(f"checkpoint {field} {ours!r} does not match dataset {field} {theirs!r}")


@flush_subnormals()
def evaluate_model(model: CoMemoryModel, dataset: Dataset, split: str = "test"):
    """Metric plus per-item predictions for one split of a dataset that ``check_dataset`` accepts."""
    check_dataset(model.config, dataset)
    items = dataset.items[split]
    if not items:
        raise DomainError(f"split {split!r} is empty")
    preds = np.concatenate([model.predict(dataset.batch(items[start : start + ITEMS_PER_PASS]))
                            for start in range(0, len(items), ITEMS_PER_PASS)])
    golds = [item.answer for item in items]
    dump = [{"id": item.id, "pred": int(p), "gold": item.answer} for item, p in zip(items, preds)]
    return model.config.task.metric(preds, golds), dump


def evaluate(checkpoint_path, data_dir, split: str = "test"):
    model, _ = load_checkpoint(checkpoint_path)
    dataset = Dataset(data_dir, model.config.task)
    return evaluate_model(model, dataset, split=split)


def _step_gradients(model: CoMemoryModel, dataset: Dataset, chunk: list) -> float:
    """Backward the mean loss of ``chunk``, ``ITEMS_PER_PASS`` items per graph; returns that mean.

    Each piece's backward is weighted ``len(piece) / len(chunk)``, so the
    parameters' accumulated gradients are those of the whole chunk's mean.
    """
    total = 0.0
    for ms in range(0, len(chunk), ITEMS_PER_PASS):
        sub = chunk[ms : ms + ITEMS_PER_PASS]
        loss, _ = model.forward_loss(dataset.batch(sub))
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss in the micro-batch starting at item {sub[0].id}")
        total += value * len(sub)
        loss.backward(np.full_like(loss.data, len(sub) / len(chunk)))
    return total / len(chunk)


@flush_subnormals()
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
    dataset = Dataset(data_dir, cfg.task)
    if not dataset.items["train"]:
        raise DomainError("training split is empty")
    if not dataset.items["val"]:
        raise DomainError("validation split is empty: the best-validation checkpoint needs val items")
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
        for start in range(0, len(items), cfg.batch_size):
            chunk = [items[int(i)] for i in order[start : start + cfg.batch_size]]
            losses.append(_step_gradients(model, dataset, chunk))
            adam_step(model.store, state, lr=cfg.learning_rate)
            model.store.zero_grad()  # frees the gradients for the val pass and the checkpoint
        val_metric, _ = evaluate_model(model, dataset, split="val")
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "val_metric": val_metric,
            "seconds": round(time.time() - t0, 3),
        }
        history.append(entry)
        if log_fn:
            log_fn(entry)
        if best is None or cfg.task.better(val_metric, best):
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
