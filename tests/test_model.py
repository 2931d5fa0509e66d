"""Model forward: untiled facts against a per-candidate reference, and the task heads.

The model runs all K candidates of an item over one copy of that item's
facts, with the candidate axis carried only by the question and memories.
The reference below runs ``run_episodes`` once per (item, candidate) on that
item's facts alone, with that candidate's fused question.  For every task,
the training loss and predictions must come from the decoders' own losses
and ``predict``.
"""

import dataclasses
import weakref

import numpy as np
import pytest

import comem.model as model_module
import comem.tensor as T
from comem import decoders as D
from comem.data import make_batch
from comem.encoders import encode_token_batch
from comem.errors import DomainError
from comem.memory import run_episodes
from comem.model import CoMemoryModel, ModelConfig, tiny_model_config
from comem.tensor import Tensor
from oracle_ops import mul

ITEMS = 3


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _random_batch(cfg, rng):
    """A ``make_batch`` dict of ITEMS random answered items, questions of 4, 3 and 5 tokens."""
    questions = [list(rng.integers(0, cfg.vocab_size, size=n)) for n in (4, 3, 5)]
    candidates = None
    if cfg.task.is_multiple_choice:
        candidates = [[list(rng.integers(0, cfg.vocab_size, size=1 + (b + k) % 3)) for k in range(D.NUM_CHOICES)]
                      for b in range(ITEMS)]
    L = cfg.resolution
    batch = make_batch(rng.standard_normal((ITEMS, L, cfg.input_width_a)),
                       rng.standard_normal((ITEMS, L, cfg.input_width_b)), questions, candidates)
    batch["answers"] = rng.integers(0, D.num_answers(cfg.task, cfg.answer_vocab), size=ITEMS)
    return batch, questions, candidates


@pytest.fixture
def case():
    cfg = tiny_model_config("trans")
    model = CoMemoryModel(cfg, seed=4, dtype=np.float64)
    batch, questions, candidates = _random_batch(cfg, _rng(40))
    return model, batch, questions, candidates


def _reference_run(model, batch, b, k):
    """``run_episodes`` on item ``b``'s facts with candidate ``k``'s fused question."""
    A, B = model._facts(batch["features_a"][b : b + 1], batch["features_b"][b : b + 1])
    q = model._question(batch["q_ids"][b : b + 1], batch["q_len"][b : b + 1])
    e = encode_token_batch(batch["cand_ids"][b, k : k + 1], batch["cand_len"][b, k : k + 1],
                           model.embedding, model.q_gru1, model.q_gru2)
    fused = T.tanh(T.matmul(T.concat([q, e], axis=-1), model.fuse_w, model.fuse_b))
    m_h, maps = run_episodes(A, B, fused, model.comem, model.config.cycles)
    return D.score_choice(m_h, model.decoder), maps


def test_folded_scores_match_per_candidate_reference(case):
    model, batch, _, _ = case
    with T.no_grad():
        scores, maps = model._forward(batch)
        for b in range(ITEMS):
            for k in range(D.NUM_CHOICES):
                ref, ref_maps = _reference_run(model, batch, b, k)
                assert abs(scores.data[b, k] - ref.data[0]) <= 1e-10
                for got, want in zip(maps, ref_maps):
                    assert np.abs(got.a.gates.data[b, k] - want.a.gates.data[0]).max() <= 1e-10
                    assert np.abs(got.b.steps.data[b, k] - want.b.steps.data[0]).max() <= 1e-10
    assert scores.data.shape == (ITEMS, D.NUM_CHOICES)
    assert maps[0].a.levels.data.shape == (ITEMS, D.NUM_CHOICES, model.config.levels, model.config.resolution)


def test_folded_gradients_match_per_candidate_reference(case):
    model, batch, _, _ = case
    weights = _rng(41).standard_normal((ITEMS, D.NUM_CHOICES))
    params = model.store.tensors()

    def grads_of(loss):
        model.store.zero_grad()
        loss.backward()
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    scores, _ = model._forward(batch)
    folded = grads_of(T.tsum(mul(scores, Tensor(weights))))
    total = None
    for b in range(ITEMS):
        for k in range(D.NUM_CHOICES):
            term = T.scale(_reference_run(model, batch, b, k)[0], weights[b, k])
            total = term if total is None else total + term
    reference = grads_of(T.tsum(total))
    # one absolute tolerance for every tensor: a gradient that is exactly zero
    # in exact arithmetic carries only rounding noise, which differs between
    # the two evaluation orders
    scale = max(np.abs(g).max() for g in reference)
    worst = max(np.abs(f - r).max() for f, r in zip(folded, reference))
    assert scale > 0 and worst <= 1e-10 * scale


def test_inspect_maps_match_reference_for_predicted_candidate(case):
    model, batch, questions, candidates = case
    for b in range(ITEMS):
        report = model.inspect(batch["features_a"][b], batch["features_b"][b], questions[b], candidates[b])
        with T.no_grad():
            ref_scores = [float(_reference_run(model, batch, b, k)[0].data[0]) for k in range(D.NUM_CHOICES)]
            pred = int(np.argmax(ref_scores))
            _, ref_maps = _reference_run(model, batch, b, pred)
        assert report["prediction"] == pred
        assert len(report["cycles"]) == len(ref_maps)
        for exported, maps in zip(report["cycles"], ref_maps):
            assert exported["cycle"] == maps.cycle
            for mod, levels, steps in (("appearance", maps.a.levels, maps.a.steps),
                                       ("motion", maps.b.levels, maps.b.steps)):
                assert np.abs(np.asarray(exported[mod]["levels"]) - levels.data[0]).max() <= 1e-10
                assert np.abs(np.asarray(exported[mod]["steps"]) - steps.data[0]).max() <= 1e-10


def test_inspect_requires_five_candidates(case):
    model, batch, questions, candidates = case
    for bad in (None, candidates[0][:4]):
        with pytest.raises(DomainError, match="5 candidates"):
            model.inspect(batch["features_a"][0], batch["features_b"][0], questions[0], bad)


@pytest.mark.parametrize("task", [t.value for t in D.TaskKind])
def test_forward_loss_is_the_tested_head_loss(task):
    """The training loss is the mean of the decoders' own losses over the head output."""
    cfg = tiny_model_config(task)
    kind = cfg.task
    model = CoMemoryModel(cfg, seed=5, dtype=np.float64)
    batch, _, _ = _random_batch(cfg, _rng(50))
    loss, preds = model.forward_loss(batch)
    out, _ = model._forward(batch)
    per_item = []
    for b, a in enumerate(batch["answers"]):
        row = out.data[b]
        if kind.is_multiple_choice:
            per_item.append(D.hinge_loss(Tensor(row), a).data)
        elif kind is D.TaskKind.REPETITION_COUNT:
            per_item.append(D.l2_count_loss(Tensor(row), a).data)
        else:
            per_item.append(D.cross_entropy_loss(Tensor(row), a).data)
    assert abs(float(loss.data) - np.mean(per_item)) <= 1e-12
    assert np.array_equal(preds, model.predict(batch))


@pytest.mark.parametrize("task", ["trans", "frame"])
def test_cross_modal_weights_get_real_gradients(task):
    """``w_a3``/``w_b3`` move every attention weight, so their gradients are more than rounding noise."""
    cfg = tiny_model_config(task)
    model = CoMemoryModel(cfg, seed=0, dtype=np.float64)
    batch, _, _ = _random_batch(cfg, _rng(60))
    model.forward_loss(batch)[0].backward()
    grads = {name: np.abs(p.grad).max() for name, p in model.store.items()}
    largest = max(grads.values())
    assert grads["comem.w_a3"] > 1e-4 * largest and grads["comem.w_b3"] > 1e-4 * largest


@pytest.mark.parametrize("task", [t.value for t in D.TaskKind])
def test_every_parameter_is_read_by_the_forward_pass(task):
    from comem.model import build_gradcheck_case

    f, params = build_gradcheck_case(task)
    f().backward()
    assert all(p.grad is not None for p in params)


@pytest.mark.parametrize("task", [t.value for t in D.TaskKind])
def test_every_parameter_gradient_is_c_contiguous(task):
    """The optimizer reads gradients flat; split and transposed views would be copied there twice."""
    cfg = tiny_model_config(task)
    model = CoMemoryModel(cfg, seed=2)
    batch, _, _ = _random_batch(cfg, _rng(70))
    model.forward_loss(batch)[0].backward()
    assert [name for name, p in model.store.items() if not p.grad.flags.c_contiguous] == []


def test_gradcheck_cases_differ_per_task():
    from comem.model import build_gradcheck_case

    losses = {float(build_gradcheck_case(task.value)[0]().data) for task in D.TaskKind}
    assert len(losses) == len(D.TaskKind)


def test_predict_holds_no_fact_level_once_projected(monkeypatch):
    """At ``run_episodes`` entry no fact level is alive: the forward keeps only their projections."""
    cfg = dataclasses.replace(tiny_model_config("frame"), levels=3, resolution=8)
    model = CoMemoryModel(cfg, seed=5, dtype=np.float64)
    batch, _, _ = _random_batch(cfg, _rng(42))
    levels, alive = [], []
    build, run = model_module.build_contextual_facts, model_module.run_episodes

    def recording_build(*args, **kwargs):
        facts = build(*args, **kwargs)
        levels.extend(weakref.ref(lv.data) for lv in facts.levels)
        return facts

    def counting_run(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in levels))
        return run(*args, **kwargs)

    monkeypatch.setattr(model_module, "build_contextual_facts", recording_build)
    monkeypatch.setattr(model_module, "run_episodes", counting_run)
    model.predict(batch)
    assert len(levels) == 2 * cfg.levels and alive == [0]


def test_model_config_holds_a_task_kind_and_refuses_an_unknown_task():
    assert ModelConfig(task="trans", vocab_size=13).task is D.TaskKind.STATE_TRANSITION
    with pytest.raises(ValueError, match="bogus"):
        ModelConfig(task="bogus", vocab_size=13)
