"""Adam, checkpoint round-trips, and the deterministic training loop."""

import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from comem.data import Dataset, SyntheticSpec, generate_dataset
from comem.decoders import TaskKind
from comem.errors import ConfigError, DomainError, FormatError, NumericError
from comem.model import CoMemoryModel, ModelConfig
from comem.tensor import ParameterStore
from comem import training
from comem.training import (
    AdamState,
    TrainConfig,
    _metric_from_preds,
    _micro_batch_size,
    _step_gradients,
    adam_step,
    evaluate,
    evaluate_model,
    load_checkpoint,
    model_config_for,
    save_checkpoint,
    train,
    write_metric_log,
)

TINY_DIMS = dict(embed_dim=5, question_hidden=4, fact_channels=4,
                 context_dim=4, memory_dim=4, gate_dim=4)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "d"
    generate_dataset(SyntheticSpec(seed=21), 20, out)
    return out


def _cfg(task="frame", **kw):
    defaults = dict(task=task, epochs=2, batch_size=8, levels=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


# -- adam -----------------------------------------------------------------------


def test_adam_first_step_closed_form():
    store = ParameterStore(seed=0, dtype=np.float64)
    p = store.add("w", (3,))
    before = p.data.copy()
    g = np.array([0.5, -2.0, 0.01])
    p.grad = g.copy()
    state = AdamState(store)
    adam_step(store, state, lr=0.01)
    # bias correction makes the first step lr * sign(g) for |g| >> eps
    assert np.allclose(p.data, before - 0.01 * np.sign(g), atol=1e-6)


def test_adam_missing_grad_leaves_parameter_but_decays_moments():
    store = ParameterStore(seed=1, dtype=np.float64)
    p = store.add("w", (2,))
    state = AdamState(store)
    state.m["w"][...] = 1.0
    state.v["w"][...] = 1.0
    before = p.data.copy()
    adam_step(store, state, lr=0.1)
    assert np.array_equal(p.data, before)
    assert np.allclose(state.m["w"], 0.9)
    assert np.allclose(state.v["w"], 0.999)


def test_adam_rejects_shape_mismatch():
    store = ParameterStore(seed=2, dtype=np.float64)
    p = store.add("w", (2, 2))
    p.grad = np.zeros(3)
    with pytest.raises(DomainError, match="gradient shape"):
        adam_step(store, AdamState(store), lr=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_rejects_non_finite_gradient_norm_before_any_update(bad):
    store = ParameterStore(seed=5, dtype=np.float64)
    a = store.add("a", (3,))
    b = store.add("b", (2,))
    a.grad = np.array([0.1, -0.2, 0.3])
    b.grad = np.array([0.5, bad])
    state = AdamState(store)
    state.m["a"][...] = 0.25
    before = {name: (t.data.copy(), state.m[name].copy(), state.v[name].copy()) for name, t in store.items()}
    with pytest.raises(NumericError, match="gradient norm"):
        adam_step(store, state, lr=0.1)
    assert state.step == 0
    for name, t in store.items():
        data, m, v = before[name]
        assert np.array_equal(t.data, data)
        assert np.array_equal(state.m[name], m) and np.array_equal(state.v[name], v)
    assert np.array_equal(a.grad, [0.1, -0.2, 0.3])


def _reference_adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook expression, one temporary per operation; the in-place step must match it bit for bit.

    The bias-corrected step size is rounded once to the parameters' dtype
    (a no-op for float64), so a float32 step runs in float32 throughout.
    """
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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= p.data.dtype.type(lr * correction) * m / (np.sqrt(v) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_step_matches_reference_expression(dtype):
    stores, states = [], []
    for _ in range(2):
        store = ParameterStore(seed=9, dtype=dtype)
        store.add("w", (6, 5))
        store.add("k", (3, 4, 2))
        store.add("unused", (7, 3))
        store.add("b", (5,))
        store.add("big", (3, 210, 250))  # more than two update blocks
        stores.append(store)
        states.append(AdamState(store))
    rng = np.random.default_rng(3)
    for step in range(5):
        grads = {name: rng.standard_normal(t.data.shape).astype(dtype) * 10.0 ** (step - 2)
                 for name, t in stores[0].items() if name != "unused"}
        for store in stores:
            for name, t in store.items():
                t.grad = None if name == "unused" else grads[name].copy()
        adam_step(stores[0], states[0], lr=0.01)
        _reference_adam_step(stores[1], states[1], lr=0.01)
        for name, t in stores[0].items():
            assert t.grad is None if name == "unused" else np.array_equal(t.grad, grads[name]), name
    for (name, a), (_, b) in zip(stores[0].items(), stores[1].items()):
        assert a.data.dtype == dtype
        assert np.array_equal(a.data, b.data), name
        assert np.array_equal(states[0].m[name], states[1].m[name]), name
        assert np.array_equal(states[0].v[name], states[1].v[name]), name
    assert states[0].step == states[1].step == 5


def _adam_run(threads: int, monkeypatch) -> list[np.ndarray]:
    """Weights and moments after three float32 steps over 15 update blocks, with ``threads`` threads."""
    monkeypatch.setattr(training, "THREADS", threads)
    store = ParameterStore(seed=6, dtype=np.float32)
    for name, shape in [("a", (5, 65536)), ("unused", (2, 70000)), ("b", (3, 50000)), ("c", (7,))]:
        store.add(name, shape)
    state = AdamState(store)
    rng = np.random.default_rng(8)
    for _ in range(3):
        for name, t in store.items():
            t.grad = None if name == "unused" else rng.standard_normal(t.data.shape).astype(np.float32)
        adam_step(store, state, lr=0.01)
    return [a for name, t in store.items() for a in (t.data, state.m[name], state.v[name])]


@pytest.mark.parametrize("threads", [1, 5])
def test_adam_update_does_not_depend_on_the_thread_count(monkeypatch, threads):
    """One thread, or more threads than cores switching every microsecond, give the default's bits."""
    expected = _adam_run(training.THREADS, monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _adam_run(threads, monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def test_no_thread_outlives_adam_or_checkpoint_io(tmp_path):
    before = set(threading.enumerate())
    store = ParameterStore(seed=1)
    store.add("w", (3, 70000)).grad = np.ones((3, 70000), dtype=np.float32)
    adam_step(store, AdamState(store))
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    load_checkpoint(path)
    assert set(threading.enumerate()) == before


def test_adam_is_deterministic():
    results = []
    for _ in range(2):
        store = ParameterStore(seed=4, dtype=np.float64)
        p = store.add("w", (3,))
        state = AdamState(store)
        for step in range(5):
            p.grad = np.sin(np.arange(3) + step)
            adam_step(store, state, lr=0.05)
        results.append(p.data.copy())
    assert np.array_equal(results[0], results[1])


# -- checkpoints ------------------------------------------------------------------


def _tiny_model(task="frame", seed=0):
    cfg = ModelConfig(task=task, vocab_size=15, input_width_a=4, input_width_b=4,
                      answer_vocab=4, resolution=4, levels=2, cycles=2, **TINY_DIMS)
    return CoMemoryModel(cfg, seed=seed)


def test_checkpoint_round_trip_byte_identical(tmp_path):
    model = _tiny_model(seed=7)
    tc = TrainConfig(task="frame", epochs=1)
    p1 = tmp_path / "a.ckpt"
    save_checkpoint(p1, model, tc, epoch=3, history=[{"epoch": 1}])
    loaded, manifest = load_checkpoint(p1)
    assert manifest["epoch"] == 3
    for (n1, t1), (n2, t2) in zip(model.store.items(), loaded.store.items()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p2, loaded, TrainConfig(**manifest["train_config"]), manifest["epoch"], manifest["history"])
    assert (p1.with_name("a.ckpt.bin")).read_bytes() == (p2.with_name("b.ckpt.bin")).read_bytes()
    m1 = json.loads(p1.read_text())
    m2 = json.loads(p2.read_text())
    m1.pop("blob"), m2.pop("blob")
    assert m1 == m2


def test_checkpoint_rejects_bad_manifest(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(FormatError, match="format"):
        load_checkpoint(path)
    path.write_text("not json")
    with pytest.raises(FormatError):
        load_checkpoint(path)
    path.write_bytes(b"\xff\xfe not utf-8")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_v1_format(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    assert manifest["format"] == "comem-checkpoint-v4"
    manifest["format"] = "comem-checkpoint-v1"  # v1 also held the fact GRUs' unused update gates
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="comem-checkpoint-v1"):
        load_checkpoint(path)


def test_checkpoint_rejects_v2_format(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    manifest["format"] = "comem-checkpoint-v2"  # v2 had no sha256 at all
    for entry in manifest["parameters"]:
        del entry["sha256"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="comem-checkpoint-v2"):
        load_checkpoint(path)


def test_checkpoint_rejects_v3_format(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    for entry in manifest["parameters"]:  # v3 recorded one sha256, of the whole blob
        del entry["sha256"]
    manifest["sha256"] = hashlib.sha256(path.with_name("c.ckpt.bin").read_bytes()).hexdigest()
    manifest["format"] = "comem-checkpoint-v3"
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="comem-checkpoint-v3"):
        load_checkpoint(path)


def test_checkpoint_manifest_holds_each_parameter_sha256(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    blob = path.with_name("c.ckpt.bin").read_bytes()
    entries = json.loads(path.read_text())["parameters"]
    assert len(entries) > 1
    for entry in entries:
        raw = blob[entry["offset"] : entry["offset"] + entry["nbytes"]]
        assert entry["sha256"] == hashlib.sha256(raw).hexdigest(), entry["name"]


def test_checkpoint_rejects_flipped_blob_byte(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    blob = path.with_name("c.ckpt.bin")
    raw = bytearray(blob.read_bytes())
    flipped = len(raw) // 2
    raw[flipped] ^= 0x01
    blob.write_bytes(bytes(raw))
    entry, = [e for e in json.loads(path.read_text())["parameters"]
              if e["offset"] <= flipped < e["offset"] + e["nbytes"]]
    with pytest.raises(FormatError, match=f"parameter '{entry['name']}' has sha256"):
        load_checkpoint(path)


def test_load_checkpoint_draws_no_initial_weights(tmp_path, monkeypatch):
    path = tmp_path / "c.ckpt"
    model = _tiny_model(seed=3)
    save_checkpoint(path, model, TrainConfig(task="frame"), 1, [])

    def refuse(self, *args, **kwargs):
        raise AssertionError("load_checkpoint drew initial weights")

    draws = [name for name in dir(np.random.Generator)
             if not name.startswith("_") and callable(getattr(np.random.Generator, name))]
    assert {"random", "uniform", "standard_normal", "integers"} <= set(draws)
    monkeypatch.setattr(np.random, "Generator", type("NoDraws", (np.random.Generator,), dict.fromkeys(draws, refuse)))
    loaded, _ = load_checkpoint(path)
    for (n1, t1), (n2, t2) in zip(model.store.items(), loaded.store.items()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)


def test_checkpoint_blob_must_be_a_file_name_beside_the_manifest(tmp_path):
    path = tmp_path / "ckpt" / "c.ckpt"
    path.parent.mkdir()
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    # the first two reach the real blob, by paths that could point anywhere
    for blob in (str(path.with_name("c.ckpt.bin")), "../ckpt/c.ckpt.bin", "..", ""):
        path.write_text(json.dumps({**manifest, "blob": blob}))
        with pytest.raises(FormatError, match="not a file name"):
            load_checkpoint(path)
    path.write_text(json.dumps(manifest))
    load_checkpoint(path)


def test_checkpoint_rejects_blob_size_mismatch(tmp_path):
    model = _tiny_model()
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, model, TrainConfig(task="frame"), 1, [])
    blob = path.with_name("c.ckpt.bin")
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(FormatError, match="bytes"):
        load_checkpoint(path)


def test_checkpoint_missing_blob_is_format_error(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    path.with_name("c.ckpt.bin").unlink()
    with pytest.raises(FormatError, match="blob"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["total_bytes", "blob", "parameters", "model_config"])
def test_checkpoint_manifest_missing_key_is_format_error(tmp_path, key):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=key):
        load_checkpoint(path)


def test_checkpoint_parameter_entry_missing_key_is_format_error(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    del manifest["parameters"][3]["offset"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="offset"):
        load_checkpoint(path)


def test_checkpoint_parameter_entry_missing_sha256_is_format_error(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    del manifest["parameters"][-1]["sha256"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="sha256"):
        load_checkpoint(path)


def _mutated_manifest(tmp_path, mutate):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))
    return path


@pytest.mark.parametrize("mutate, match", [
    (lambda m: m.update(parameters=5), "parameters"),
    (lambda m: m["parameters"][2].update(shape=5), "shape"),
    (lambda m: m["parameters"][2].update(shape=["a"]), "shape"),
    (lambda m: m["parameters"][2].update(name=["w"]), "name"),
    (lambda m: m["model_config"].update(task="sort"), "model_config"),
    (lambda m: m["model_config"].update(embed_dim=None), "model_config"),
], ids=["parameters-int", "shape-int", "shape-str", "name-list", "unknown-task", "null-dim"])
def test_checkpoint_manifest_bad_field_is_format_error(tmp_path, mutate, match):
    with pytest.raises(FormatError, match=match):
        load_checkpoint(_mutated_manifest(tmp_path, mutate))


def test_checkpoint_parameter_past_the_blob_end_is_format_error(tmp_path):
    """A parameter that claims more bytes than the blob holds fails before its array is allocated."""
    def mutate(m):
        m["parameters"][-1].update(shape=[2**31, 2**31], nbytes=2**64)

    with pytest.raises(FormatError, match="blob ends inside"):
        load_checkpoint(_mutated_manifest(tmp_path, mutate))


# -- metrics / evaluation ----------------------------------------------------------


def test_metric_accuracy_and_mse():
    preds = np.array([1, 2, 3, 4])
    assert _metric_from_preds(TaskKind.FRAME_QA, preds, preds.copy()) == 1.0
    assert _metric_from_preds(TaskKind.FRAME_QA, preds, np.array([1, 0, 3, 0])) == 0.5
    mse = _metric_from_preds(TaskKind.REPETITION_COUNT, np.array([0, 4]), np.array([2, 2]))
    assert mse == 4.0


def test_evaluate_rejects_task_mismatch(data_dir):
    model = _tiny_model(task="frame")
    # widths must match the dataset so the failure is the task check itself
    model.config.input_width_a = 64
    with pytest.raises(ConfigError, match="task"):
        evaluate_model(model, Dataset(data_dir, TaskKind.STATE_TRANSITION))


def test_model_config_reads_dataset_dimensions(data_dir):
    ds = Dataset(data_dir, TaskKind.FRAME_QA)
    cfg = model_config_for(ds, _cfg("frame"), dims=TINY_DIMS)
    assert cfg.input_width_a == 64 and cfg.input_width_b == 64
    assert cfg.vocab_size == ds.vocab_size
    assert cfg.answer_vocab == ds.answer_vocab
    assert cfg.levels == 2


def test_recorded_resolution_is_the_feature_length(tmp_path):
    generate_dataset(SyntheticSpec(seed=22, length=20), 12, tmp_path / "d")
    ds = Dataset(tmp_path / "d", TaskKind.FRAME_QA)
    assert model_config_for(ds, _cfg("frame"), dims=TINY_DIMS).resolution == 20
    train(_cfg("frame", epochs=1), tmp_path / "d", tmp_path / "m.ckpt", dims=TINY_DIMS)
    assert load_checkpoint(tmp_path / "m.ckpt")[0].config.resolution == 20


# -- training loop ------------------------------------------------------------------


def test_single_adam_step_descends(data_dir):
    ds = Dataset(data_dir, TaskKind.FRAME_QA)
    model = CoMemoryModel(model_config_for(ds, _cfg("frame"), dims=TINY_DIMS), seed=0)
    batch = ds.batch(ds.items["train"][:8])
    state = AdamState(model.store)
    model.store.zero_grad()
    loss0, _ = model.forward_loss(batch)
    loss0.backward()
    adam_step(model.store, state, lr=0.003)
    loss1, _ = model.forward_loss(batch)
    assert float(loss1.data) < float(loss0.data)


def test_train_smoke_writes_history_and_checkpoint(tmp_path, data_dir):
    ckpt = tmp_path / "m.ckpt"
    history = train(_cfg("count"), data_dir, ckpt, dims=TINY_DIMS)
    assert len(history) == 2
    assert all(set(h) == {"epoch", "train_loss", "val_metric", "seconds"} for h in history)
    model, manifest = load_checkpoint(ckpt)
    assert manifest["history"] == history
    metric, dump = evaluate(ckpt, data_dir)
    assert metric >= 0.0
    assert len(dump) == len(Dataset(data_dir, TaskKind.REPETITION_COUNT).items["test"])

    log = tmp_path / "metrics.csv"
    write_metric_log(log, history)
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_metric,seconds"
    assert len(lines) == 3


def test_train_saves_once_per_improved_epoch_and_records_the_whole_history(tmp_path, data_dir, monkeypatch):
    import comem.training as training

    saved_epochs = []
    real_save = training.save_checkpoint

    def counting_save(path, model, train_config, epoch, history):
        saved_epochs.append(epoch)
        real_save(path, model, train_config, epoch, history)

    monkeypatch.setattr(training, "save_checkpoint", counting_save)
    ckpt = tmp_path / "m.ckpt"
    history = train(_cfg("frame", epochs=3, seed=1), data_dir, ckpt, dims=TINY_DIMS)
    improved, best = [], None
    for h in history:
        if best is None or h["val_metric"] > best:
            best = h["val_metric"]
            improved.append(h["epoch"])
    assert saved_epochs == improved
    # an epoch after the best one, so the manifest is rewritten at the end
    assert improved[-1] < 3
    _, manifest = load_checkpoint(ckpt)
    assert manifest["history"] == history
    assert manifest["epoch"] == improved[-1]


def test_same_seed_gives_identical_loss_curves(tmp_path, data_dir):
    h1 = train(_cfg("frame", seed=5), data_dir, tmp_path / "a.ckpt", dims=TINY_DIMS)
    h2 = train(_cfg("frame", seed=5), data_dir, tmp_path / "b.ckpt", dims=TINY_DIMS)
    assert [h["train_loss"] for h in h1] == [h["train_loss"] for h in h2]
    assert [h["val_metric"] for h in h1] == [h["val_metric"] for h in h2]
    assert (tmp_path / "a.ckpt.bin").read_bytes() == (tmp_path / "b.ckpt.bin").read_bytes()


def test_different_seed_changes_training(tmp_path, data_dir):
    h1 = train(_cfg("frame", seed=0), data_dir, tmp_path / "a.ckpt", dims=TINY_DIMS)
    h2 = train(_cfg("frame", seed=1), data_dir, tmp_path / "b.ckpt", dims=TINY_DIMS)
    assert [h["train_loss"] for h in h1] != [h["train_loss"] for h in h2]


def test_micro_batches_hold_80_episode_rows():
    for task in TaskKind:
        assert _micro_batch_size(task) == (16 if task.is_multiple_choice else 80)


def test_step_gradients_do_not_depend_on_the_chunking(data_dir):
    """Float64: chunks of 1, 4, 5 (the last one ragged) and 16 items give the 16-item mean loss and gradients
    up to summation order."""
    ds = Dataset(data_dir, TaskKind.STATE_TRANSITION)
    chunk = ds.items["train"][:16]
    assert len(chunk) == 16
    model = CoMemoryModel(model_config_for(ds, _cfg("trans"), dims=TINY_DIMS), seed=3, dtype=np.float64)
    results = []
    for micro in (1, 4, 5, 16):
        model.store.zero_grad()
        loss = _step_gradients(model, ds, chunk, micro)
        results.append((loss, {name: p.grad.copy() for name, p in model.store.items()}))
    loss16, grads16 = results[-1]
    largest = max(np.abs(g).max() for g in grads16.values())
    assert largest > 0.0
    for loss, grads in results[:-1]:
        assert abs(loss - loss16) <= 1e-12 * abs(loss16)
        for name, g in grads.items():
            assert np.abs(g - grads16[name]).max() <= 1e-12 * largest, name


def test_multiple_choice_training_smoke(tmp_path, data_dir):
    history = train(_cfg("trans", epochs=1), data_dir, tmp_path / "t.ckpt", dims=TINY_DIMS)
    assert history[0]["train_loss"] >= 0.0
    metric, dump = evaluate(tmp_path / "t.ckpt", data_dir)
    assert 0.0 <= metric <= 1.0
    assert all(0 <= d["pred"] < 5 for d in dump)


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(task="frame", learning_rate=0.0)
    with pytest.raises(DomainError):
        TrainConfig(task="frame", cycles=0)
    with pytest.raises(ValueError):
        TrainConfig(task="sorting")
