"""Adam, checkpoint round-trips, and the deterministic training loop."""

import dataclasses
import hashlib
import json
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import comem.data
import comem.tensor
from comem.data import Dataset, SyntheticSpec, generate_dataset
from comem.decoders import TaskKind
from comem.errors import ConfigError, DomainError, FormatError, NumericError
from comem.model import CoMemoryModel, ModelConfig
from comem.tensor import ParameterStore
from comem import training
from comem.training import (
    AdamState,
    TrainConfig,
    _step_gradients,
    adam_step,
    check_dataset,
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
        p.data[...] -= p.data.dtype.type(lr * correction) * m / (np.sqrt(v) + eps)


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
    monkeypatch.setattr(comem.tensor, "THREADS", threads)
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
    expected = _adam_run(comem.tensor.THREADS, monkeypatch)
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


def _blob(path):
    """The blob file the checkpoint manifest at ``path`` names."""
    return path.with_name(json.loads(path.read_text())["blob"])


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
    assert _blob(p1).read_bytes() == _blob(p2).read_bytes()
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
    assert manifest["format"] == "comem-checkpoint-v5"
    # v1 also held the fact GRUs' unused update gates; v4 held one parameter per GRU gate
    for old in ("comem-checkpoint-v1", "comem-checkpoint-v4"):
        manifest["format"] = old
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=old):
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
    manifest["sha256"] = hashlib.sha256(_blob(path).read_bytes()).hexdigest()
    manifest["format"] = "comem-checkpoint-v3"
    path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="comem-checkpoint-v3"):
        load_checkpoint(path)


def test_checkpoint_manifest_holds_each_parameter_sha256(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    blob = _blob(path).read_bytes()
    entries = json.loads(path.read_text())["parameters"]
    assert len(entries) > 1
    for entry in entries:
        raw = blob[entry["offset"] : entry["offset"] + entry["nbytes"]]
        assert entry["sha256"] == hashlib.sha256(raw).hexdigest(), entry["name"]


def test_checkpoint_rejects_flipped_blob_byte(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    blob = _blob(path)
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
    for blob in (str(path.with_name(manifest["blob"])), "../ckpt/" + manifest["blob"], "..", ""):
        path.write_text(json.dumps({**manifest, "blob": blob}))
        with pytest.raises(FormatError, match="not a file name"):
            load_checkpoint(path)
    path.write_text(json.dumps(manifest))
    load_checkpoint(path)


def test_checkpoint_rejects_blob_size_mismatch(tmp_path):
    model = _tiny_model()
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, model, TrainConfig(task="frame"), 1, [])
    blob = _blob(path)
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(FormatError, match="bytes"):
        load_checkpoint(path)


def test_checkpoint_missing_blob_is_format_error(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(), TrainConfig(task="frame"), 1, [])
    _blob(path).unlink()
    with pytest.raises(FormatError, match="blob"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["total_bytes", "blob", "parameters", "model_config", "epoch"])
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
    # JSON true is a Python int equal to 1: [true, 45] has q_gru1.w's 45 elements, and levels: true would load as 1
    (lambda m: next(e for e in m["parameters"] if e["name"] == "q_gru1.w").update(shape=[True, 45]), "shape"),
    (lambda m: m["model_config"].update(levels=True), "model_config dimensions must be integers"),
    # false equals the first parameter's offset 0, and epoch is not compared with anything
    (lambda m: m["parameters"][0].update(offset=False), "'offset' must be an integer"),
    (lambda m: m["parameters"][2].update(nbytes=True), "'nbytes' must be an integer"),
    (lambda m: m.update(total_bytes=True), "'total_bytes' must be an integer"),
    (lambda m: m.update(epoch=True), "'epoch' must be an integer"),
    # every entry is well formed, but the blob holds bytes no parameter claims
    (lambda m: m["parameters"].pop(), "parameters cover"),
], ids=["parameters-int", "shape-int", "shape-str", "name-list", "unknown-task", "null-dim", "shape-bool",
        "bool-dim", "offset-bool", "nbytes-bool", "total-bytes-bool", "epoch-bool", "parameters-short"])
def test_checkpoint_manifest_bad_field_is_format_error(tmp_path, mutate, match):
    with pytest.raises(FormatError, match=match):
        load_checkpoint(_mutated_manifest(tmp_path, mutate))


def test_checkpoint_parameter_past_the_blob_end_is_format_error(tmp_path):
    """A parameter that claims more bytes than the blob holds fails before its array is allocated."""
    def mutate(m):
        m["parameters"][-1].update(shape=[2**31, 2**31], nbytes=2**64)

    with pytest.raises(FormatError, match="blob ends inside"):
        load_checkpoint(_mutated_manifest(tmp_path, mutate))


def _same_bits(a, b):
    return [(n, t.data.tobytes()) for n, t in a.store.items()] == [(n, t.data.tobytes()) for n, t in b.store.items()]


def test_checkpoint_blob_names_alternate_and_one_blob_stays(tmp_path):
    path = tmp_path / "c.ckpt"
    names = []
    for epoch in (1, 2, 3):
        save_checkpoint(path, _tiny_model(seed=epoch), TrainConfig(task="frame"), epoch, [])
        names.append(_blob(path).name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", names[-1]]
    assert names == ["c.ckpt.0.bin", "c.ckpt.1.bin", "c.ckpt.0.bin"]
    loaded, manifest = load_checkpoint(path)
    assert manifest["epoch"] == 3 and _same_bits(loaded, _tiny_model(seed=3))


def test_save_cut_short_before_the_manifest_commit_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "c.ckpt"
    first = _tiny_model(seed=1)
    save_checkpoint(path, first, TrainConfig(task="frame"), 1, [])
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == path:
            raise OSError("cut short before the manifest commit")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="cut short"):
        save_checkpoint(path, _tiny_model(seed=2), TrainConfig(task="frame"), 2, [])
    monkeypatch.undo()
    loaded, manifest = load_checkpoint(path)
    assert manifest["epoch"] == 1 and _same_bits(loaded, first)
    # the next save writes over the orphan blob and deletes the superseded one
    save_checkpoint(path, _tiny_model(seed=3), TrainConfig(task="frame"), 3, [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", "c.ckpt.1.bin"]
    assert _same_bits(load_checkpoint(path)[0], _tiny_model(seed=3))


def test_first_save_over_an_older_checkpoint_deletes_its_blob(tmp_path):
    """Older saves kept the blob at ``<name>.bin``; that checkpoint loads, and the next save deletes its blob."""
    path = tmp_path / "c.ckpt"
    model = _tiny_model(seed=1)
    save_checkpoint(path, model, TrainConfig(task="frame"), 1, [])
    _blob(path).rename(tmp_path / "c.ckpt.bin")
    path.write_text(json.dumps({**json.loads(path.read_text()), "blob": "c.ckpt.bin"}))
    assert _same_bits(load_checkpoint(path)[0], model)
    save_checkpoint(path, model, TrainConfig(task="frame"), 2, [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", "c.ckpt.0.bin"]


def test_save_never_deletes_a_blob_the_checkpoint_does_not_own(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, _tiny_model(seed=1), TrainConfig(task="frame"), 1, [])
    foreign = _blob(path).rename(tmp_path / "d.ckpt.0.bin")  # another checkpoint's own name
    path.write_text(json.dumps({**json.loads(path.read_text()), "blob": foreign.name}))
    raw = foreign.read_bytes()
    load_checkpoint(path)
    save_checkpoint(path, _tiny_model(seed=2), TrainConfig(task="frame"), 2, [])
    assert foreign.read_bytes() == raw
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", "c.ckpt.0.bin", "d.ckpt.0.bin"]


# -- metrics / evaluation ----------------------------------------------------------


def test_metric_accuracy_and_mse():
    preds = np.array([1, 2, 3, 4])
    assert TaskKind.FRAME_QA.metric(preds, preds.copy()) == 1.0
    assert TaskKind.FRAME_QA.metric(preds, np.array([1, 0, 3, 0])) == 0.5
    mse = TaskKind.REPETITION_COUNT.metric(np.array([0, 4]), np.array([2, 2]))
    assert mse == 4.0


def test_evaluate_rejects_task_mismatch(data_dir):
    model = _tiny_model(task="frame")
    # widths must match the dataset so the failure is the task check itself
    model.config.input_width_a = 64
    with pytest.raises(ConfigError, match="task"):
        evaluate_model(model, Dataset(data_dir, TaskKind.STATE_TRANSITION))


def test_check_dataset_compares_the_task_then_the_vocabularies(data_dir):
    ds = Dataset(data_dir, TaskKind.FRAME_QA)
    cfg = model_config_for(ds, _cfg("frame"), dims=TINY_DIMS)
    check_dataset(cfg, ds)
    wider = dataclasses.replace(cfg, vocab_size=cfg.vocab_size + 1)
    for bad, field in [(dataclasses.replace(wider, task="trans"), "task 'trans'"),
                       (wider, f"vocab_size {cfg.vocab_size + 1}"),
                       (dataclasses.replace(cfg, answer_vocab=cfg.answer_vocab - 1), f"answer_vocab {cfg.answer_vocab - 1}")]:
        with pytest.raises(ConfigError, match=f"checkpoint {field} does not match"):
            check_dataset(bad, ds)


def test_check_dataset_compares_the_video_length_and_feature_widths(data_dir):
    ds = Dataset(data_dir, TaskKind.FRAME_QA)
    cfg = model_config_for(ds, _cfg("frame"), dims=TINY_DIMS)
    for field in ("resolution", "input_width_a", "input_width_b"):
        ours = getattr(cfg, field) + 3
        with pytest.raises(ConfigError, match=f"checkpoint {field} {ours} does not match dataset {field} {ours - 3}$"):
            check_dataset(dataclasses.replace(cfg, **{field: ours}), ds)


@pytest.mark.parametrize("eval_batch", [1, 5, 16])
def test_evaluation_does_not_depend_on_the_eval_batch(data_dir, monkeypatch, eval_batch):
    ds = Dataset(data_dir, TaskKind.STATE_TRANSITION)
    assert len(ds.items["train"]) == 16
    model = CoMemoryModel(model_config_for(ds, _cfg("trans"), dims=TINY_DIMS), seed=0)
    want = evaluate_model(model, ds, split="train")
    monkeypatch.setattr(training, "ITEMS_PER_PASS", eval_batch)
    assert evaluate_model(model, ds, split="train") == want


def test_model_config_reads_dataset_dimensions(data_dir):
    ds = Dataset(data_dir, TaskKind.FRAME_QA)
    cfg = model_config_for(ds, _cfg("frame"), dims=TINY_DIMS)
    assert cfg.input_width_a == 64 and cfg.input_width_b == 64
    assert cfg.vocab_size == ds.vocab_size
    assert cfg.answer_vocab == ds.answer_vocab
    assert cfg.levels == 2


def test_model_config_reads_no_feature_file(data_dir, monkeypatch):
    """The widths and the length come from the manifest's spec, which ``Dataset.features`` checks each file against."""
    def read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(comem.data, "read_feature_file", read)
    cfg = model_config_for(Dataset(data_dir, TaskKind.FRAME_QA), _cfg("frame"), dims=TINY_DIMS)
    assert (cfg.input_width_a, cfg.input_width_b, cfg.resolution) == (64, 64, 34)


def test_evaluate_refuses_an_empty_split(tmp_path):
    generate_dataset(SyntheticSpec(seed=24), 5, tmp_path / "d")
    ds = Dataset(tmp_path / "d", TaskKind.FRAME_QA)
    model = CoMemoryModel(model_config_for(ds, _cfg("frame"), dims=TINY_DIMS), seed=0)
    with pytest.raises(DomainError, match="split 'val' is empty"):
        evaluate_model(model, ds, split="val")


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


def _refuse_before_any_step(tmp_path, monkeypatch, match: str):
    """``train`` on the set at ``tmp_path / "d"`` raises ``DomainError`` before a step or a save."""
    def step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "_step_gradients", step)
    with pytest.raises(DomainError, match=match):
        train(_cfg("frame", epochs=1), tmp_path / "d", tmp_path / "m.ckpt", dims=TINY_DIMS)
    assert not (tmp_path / "m.ckpt").exists()


def test_train_refuses_an_empty_validation_split_before_any_step(tmp_path, monkeypatch):
    """5 episodes split 4/0/1: there is nothing to pick the kept checkpoint by, so no epoch runs."""
    generate_dataset(SyntheticSpec(seed=24), 5, tmp_path / "d")
    assert not Dataset(tmp_path / "d", TaskKind.FRAME_QA).items["val"]
    _refuse_before_any_step(tmp_path, monkeypatch, "validation split is empty")


def test_train_refuses_an_empty_training_split_before_any_step(tmp_path, monkeypatch):
    """1 episode splits 0/0/1: there is nothing to train on."""
    generate_dataset(SyntheticSpec(seed=24), 1, tmp_path / "d")
    assert not Dataset(tmp_path / "d", TaskKind.FRAME_QA).items["train"]
    _refuse_before_any_step(tmp_path, monkeypatch, "training split is empty")


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


def test_train_never_renames_over_an_existing_blob(tmp_path, data_dir, monkeypatch):
    """A rename over a written blob made every save wait for the file system; timing-free, none may happen."""
    renames = []  # (target, whether it existed)
    for name in ("replace", "rename"):
        def spy(src, dst, *args, real=getattr(os, name), **kwargs):
            renames.append((Path(dst), Path(dst).exists()))
            return real(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, name, spy)
    monkeypatch.setattr(TaskKind, "better", lambda task, a, b: True)  # every epoch saves
    ckpt = tmp_path / "m.ckpt"
    train(_cfg("frame", epochs=3), data_dir, ckpt, dims=TINY_DIMS)
    assert [dst for dst, _ in renames].count(ckpt) == 3
    assert [dst for dst, existed in renames if existed and dst.suffix == ".bin"] == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", _blob(ckpt).name]


def test_same_seed_gives_identical_loss_curves(tmp_path, data_dir):
    h1 = train(_cfg("frame", seed=5), data_dir, tmp_path / "a.ckpt", dims=TINY_DIMS)
    h2 = train(_cfg("frame", seed=5), data_dir, tmp_path / "b.ckpt", dims=TINY_DIMS)
    assert [h["train_loss"] for h in h1] == [h["train_loss"] for h in h2]
    assert [h["val_metric"] for h in h1] == [h["val_metric"] for h in h2]
    assert _blob(tmp_path / "a.ckpt").read_bytes() == _blob(tmp_path / "b.ckpt").read_bytes()


def test_different_seed_changes_training(tmp_path, data_dir):
    h1 = train(_cfg("frame", seed=0), data_dir, tmp_path / "a.ckpt", dims=TINY_DIMS)
    h2 = train(_cfg("frame", seed=1), data_dir, tmp_path / "b.ckpt", dims=TINY_DIMS)
    assert [h["train_loss"] for h in h1] != [h["train_loss"] for h in h2]


def test_training_and_evaluation_run_items_per_pass_items_per_forward(tmp_path, monkeypatch):
    """With ``ITEMS_PER_PASS`` at 8, a 20-item trans step runs 3 passes, and evaluating N items ceil(N / 8)."""
    generate_dataset(SyntheticSpec(seed=23), 25, tmp_path / "d")
    ds = Dataset(tmp_path / "d", TaskKind.STATE_TRANSITION)
    assert [len(ds.items[s]) for s in ("train", "val", "test")] == [20, 2, 3]
    passes = {"forward_loss": [], "predict": []}  # items per call

    def counting(name):
        real = getattr(CoMemoryModel, name)

        def call(self, batch):
            passes[name].append(len(batch["answers"]))
            return real(self, batch)
        return call

    for name in passes:
        monkeypatch.setattr(CoMemoryModel, name, counting(name))
    monkeypatch.setattr(training, "ITEMS_PER_PASS", 8)
    train(_cfg("trans", epochs=1, batch_size=20), tmp_path / "d", tmp_path / "m.ckpt", dims=TINY_DIMS)
    assert passes == {"forward_loss": [8, 8, 4], "predict": [2]}
    passes["predict"].clear()
    model = CoMemoryModel(model_config_for(ds, _cfg("trans"), dims=TINY_DIMS), seed=0)
    for split in ("train", "test"):
        evaluate_model(model, ds, split=split)
    assert passes["predict"] == [8, 8, 4, 3]


def test_step_gradients_do_not_depend_on_the_chunking(data_dir, monkeypatch):
    """Float64: chunks of 1, 4, 5 (the last one ragged) and 16 items give the 16-item mean loss and gradients
    up to summation order."""
    ds = Dataset(data_dir, TaskKind.STATE_TRANSITION)
    chunk = ds.items["train"][:16]
    assert len(chunk) == 16
    model = CoMemoryModel(model_config_for(ds, _cfg("trans"), dims=TINY_DIMS), seed=3, dtype=np.float64)
    results = []
    for items_per_pass in (1, 4, 5, 16):
        monkeypatch.setattr(training, "ITEMS_PER_PASS", items_per_pass)
        model.store.zero_grad()
        loss = _step_gradients(model, ds, chunk)
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


def test_trans_learns_at_width_32(tmp_path):
    """Trans at uniform width 32 leaves the hinge margin (loss 1.0) and beats chance (ACC 0.2) on test.

    Over training seeds 0-11 on this set, 15 epochs read test ACC 0.35-0.55
    and a last-epoch train loss of 0.34-0.46; each bound sits past the worst
    seed, so a last-bit change passes and a model that cannot learn fails.
    """
    generate_dataset(SyntheticSpec(seed=2), 400, tmp_path / "d")
    width = dict.fromkeys(("embed_dim", "question_hidden", "fact_channels", "context_dim", "memory_dim", "gate_dim"), 32)
    history = train(TrainConfig(task="trans", epochs=15, seed=0), tmp_path / "d", tmp_path / "m.ckpt", dims=width)
    acc, _ = evaluate(tmp_path / "m.ckpt", tmp_path / "d")
    assert acc >= 0.30
    assert history[-1]["train_loss"] <= 0.55


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(task="frame", learning_rate=0.0)
    with pytest.raises(DomainError):
        TrainConfig(task="frame", cycles=0)
    with pytest.raises(ValueError):
        TrainConfig(task="sorting")
    for seed in (-1, 2**63):
        with pytest.raises(DomainError, match="seed"):
            TrainConfig(task="frame", seed=seed)
    TrainConfig(task="frame", seed=2**63 - 1)
