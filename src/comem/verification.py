"""Full-model gradient-check harness (wide precision, random synthetic inputs)."""

from __future__ import annotations

import numpy as np

from .decoders import NUM_CHOICES, TaskKind, num_answers
from .model import CoMemoryModel, ModelConfig, make_batch, tiny_model_config
from .tensor import WIDE_DTYPE


def default_check_config(task: str) -> ModelConfig:
    """Paper dimensions with a small vocabulary (inputs are random anyway)."""
    return ModelConfig(task=task, vocab_size=40, answer_vocab=8)


def build_gradcheck_case(task: str, seed: int = 0, size: str = "tiny", batch: int = 2):
    """Returns (f, tensors): a scalar loss closure over a float64 model.

    ``f`` re-runs the full forward pass (pyramid, episodes, decoder, loss)
    on a fixed random batch, so finite differences see every parameter.
    """
    cfg = tiny_model_config(task) if size == "tiny" else default_check_config(task)
    model = CoMemoryModel(cfg, seed=seed, dtype=WIDE_DTYPE)
    kind = TaskKind(task)
    # offset by the task's index: the multiple-choice tasks share one model and would draw the same inputs
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 17 + list(TaskKind).index(kind))))
    L = cfg.resolution
    features_a = rng.standard_normal((batch, L, cfg.input_width_a))
    features_b = rng.standard_normal((batch, L, cfg.input_width_b))
    # variable lengths, so finite differences also pass through the padding mask
    questions = [list(rng.integers(0, cfg.vocab_size, size=rng.integers(2, 6))) for _ in range(batch)]
    candidates = None
    if kind.is_multiple_choice:
        flat = [list(rng.integers(0, cfg.vocab_size, size=rng.integers(1, 4))) for _ in range(batch * NUM_CHOICES)]
        candidates = [flat[i : i + NUM_CHOICES] for i in range(0, len(flat), NUM_CHOICES)]
    batch_dict = make_batch(features_a, features_b, questions, candidates)
    batch_dict["answers"] = rng.integers(0, num_answers(kind, cfg.answer_vocab), size=batch)

    def f():
        loss, _ = model.forward_loss(batch_dict)
        return loss

    return f, model.store.tensors()
