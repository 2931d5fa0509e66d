"""Padding on dataset batches whose questions and candidates differ in length.

The synthetic generator gives every question of a task one length and every
candidate one token, so its batches never pad.  The fixture here keeps the
generated features and answers but rewrites each question and candidate to
1-8 random tokens, so every batch pads and the lengths decide the result.
"""

import functools
import json

import numpy as np
import pytest

from comem import decoders as D
from comem import training
from comem.data import Dataset, SyntheticSpec, generate_dataset, load_qa_file
from comem.decoders import TaskKind
from comem.model import CoMemoryModel
from comem.training import TrainConfig, evaluate_model, model_config_for, train

TINY_DIMS = dict(embed_dim=5, question_hidden=4, fact_channels=4,
                 context_dim=4, memory_dim=4, gate_dim=4)
TRAIN_ITEMS = 20


@pytest.fixture(scope="module")
def ragged_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ragged") / "d"
    manifest = generate_dataset(SyntheticSpec(seed=23), 25, out)
    rng = np.random.default_rng(23)

    def tokens():
        return [int(t) for t in rng.integers(0, manifest["vocab_size"], size=rng.integers(1, 9))]

    for path in sorted((out / "qa").glob("*.jsonl")):
        lines = []
        for item in load_qa_file(path):
            item.question = tokens()
            if item.candidates is not None:
                item.candidates = [tokens() for _ in item.candidates]
            lines.append(json.dumps(item.to_json(), sort_keys=True))
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return out


def _model(ds, task):
    cfg = model_config_for(ds, TrainConfig(task=task.value, levels=2), dims=TINY_DIMS)
    model = CoMemoryModel(cfg, seed=4, dtype=np.float64)
    if task is TaskKind.REPETITION_COUNT:
        model.decoder.b.data[...] = 5.5  # estimates at a rounding boundary, so the counts vary by item
    return model


@pytest.mark.parametrize("task", list(TaskKind))
def test_a_padded_batch_equals_its_items_run_one_by_one(ragged_dir, task):
    """Float64: each item's head output, loss and prediction in one padded batch match a batch of that item alone."""
    ds = Dataset(ragged_dir, task)
    items = ds.items["train"]
    batch = ds.batch(items)
    padded = [("q_ids", "q_len")] + ([("cand_ids", "cand_len")] if task.is_multiple_choice else [])
    assert all(batch[n].min() < batch[ids].shape[-1] for ids, n in padded)  # every id array pads some rows
    model = _model(ds, task)
    out, _ = model._forward(batch)
    losses = D.task_loss(task, out, batch["answers"]).data
    preds = D.task_predictions(task, out)
    scale = np.abs(out.data).max()
    for i, item in enumerate(items):
        one = ds.batch([item])
        one_out, _ = model._forward(one)
        loss = D.task_loss(task, one_out, one["answers"]).data[0]
        assert np.abs(one_out.data[0] - out.data[i]).max() <= 1e-12 * scale, item.id
        assert abs(loss - losses[i]) <= 1e-12 * max(1.0, abs(losses[i])), item.id
        assert D.task_predictions(task, one_out)[0] == preds[i], item.id


def _first_step(tmp_path, monkeypatch, ragged_dir, task, items_per_pass):
    """The mean loss and the gradients that ``train()`` hands its first Adam step, at float64."""
    grads = []
    monkeypatch.setattr(training, "ITEMS_PER_PASS", items_per_pass)
    monkeypatch.setattr(training, "CoMemoryModel", functools.partial(CoMemoryModel, dtype=np.float64))
    monkeypatch.setattr(training, "adam_step",
                        lambda store, state, lr: grads.append({n: p.grad.copy() for n, p in store.items()}))
    cfg = TrainConfig(task=task.value, batch_size=TRAIN_ITEMS, epochs=1, levels=2, seed=4)
    history = train(cfg, ragged_dir, tmp_path / f"{task.value}{items_per_pass}.ckpt", dims=TINY_DIMS)
    assert len(grads) == 1
    return history[0]["train_loss"], grads[0]


@pytest.mark.parametrize("task", list(TaskKind))
def test_training_gradients_do_not_depend_on_the_items_per_pass(tmp_path, monkeypatch, ragged_dir, task):
    assert len(Dataset(ragged_dir, task).items["train"]) == TRAIN_ITEMS
    want_loss, want = _first_step(tmp_path, monkeypatch, ragged_dir, task, 64)
    largest = max(np.abs(g).max() for g in want.values())
    assert largest > 0.0
    for items_per_pass in (1, 5):
        loss, grads = _first_step(tmp_path, monkeypatch, ragged_dir, task, items_per_pass)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for name, g in grads.items():
            assert np.abs(g - want[name]).max() <= 1e-12 * largest, (items_per_pass, name)


@pytest.mark.parametrize("task", list(TaskKind))
def test_evaluation_does_not_depend_on_the_items_per_pass(monkeypatch, ragged_dir, task):
    ds = Dataset(ragged_dir, task)
    model = _model(ds, task)
    monkeypatch.setattr(training, "ITEMS_PER_PASS", 64)
    want = evaluate_model(model, ds, split="train")
    assert len({row["pred"] for row in want[1]}) > 1
    for items_per_pass in (1, 5):
        monkeypatch.setattr(training, "ITEMS_PER_PASS", items_per_pass)
        assert evaluate_model(model, ds, split="train") == want, items_per_pass
