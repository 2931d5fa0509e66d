"""Full per-task model: parameter construction and batched forward passes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import decoders as D
from .data import make_batch
from .decoders import DecoderParams, TaskKind
from .encoders import GruParams, encode_token_batch
from .errors import DomainError
from .facts import PyramidParams, build_contextual_facts
from .memory import CoMemoryParams, fact_projections, run_episodes
from .tensor import ParameterStore, Tensor


@dataclass
class ModelConfig:
    task: TaskKind
    vocab_size: int
    input_width_a: int = 2048
    input_width_b: int = 2048
    answer_vocab: int = 0
    resolution: int = 34
    levels: int = 3
    cycles: int = 2
    embed_dim: int = 300
    question_hidden: int = 512
    fact_channels: int = 1024
    context_dim: int = 512
    memory_dim: int = 1024
    gate_dim: int = 512

    def __post_init__(self):
        self.task = TaskKind(self.task)


def tiny_model_config(task: str = "frame") -> ModelConfig:
    """Small dimensions for gradient checking: L=4, C=4, N=2, memory 4, q 3, T=2."""
    return ModelConfig(
        task=task,
        vocab_size=13,
        input_width_a=4,
        input_width_b=4,
        answer_vocab=4,
        resolution=4,
        levels=2,
        cycles=2,
        embed_dim=5,
        question_hidden=3,
        fact_channels=4,
        context_dim=3,
        memory_dim=4,
        gate_dim=3,
    )


def build_gradcheck_case(task: str, seed: int = 0):
    """Returns (f, tensors): a scalar loss closure over a float64 tiny model.

    ``f`` re-runs the full forward pass (pyramid, episodes, decoder, loss)
    on a fixed random batch of two items, so finite differences see every
    parameter.
    """
    if not 0 <= seed < 2**63:
        raise DomainError(f"seed must be in [0, 2**63), got {seed}")
    batch = 2
    cfg = tiny_model_config(task)
    model = CoMemoryModel(cfg, seed=seed, dtype=T.WIDE_DTYPE)
    # offset by the task's index: the multiple-choice tasks share one model and would draw the same inputs
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 17 + list(TaskKind).index(cfg.task))))
    L = cfg.resolution
    features_a = rng.standard_normal((batch, L, cfg.input_width_a))
    features_b = rng.standard_normal((batch, L, cfg.input_width_b))
    # variable lengths, so finite differences also cover codes read before the last step
    questions = [list(rng.integers(0, cfg.vocab_size, size=rng.integers(2, 6))) for _ in range(batch)]
    candidates = None
    if cfg.task.is_multiple_choice:
        flat = [list(rng.integers(0, cfg.vocab_size, size=rng.integers(1, 4))) for _ in range(batch * D.NUM_CHOICES)]
        candidates = [flat[i : i + D.NUM_CHOICES] for i in range(0, len(flat), D.NUM_CHOICES)]
    batch_dict = make_batch(features_a, features_b, questions, candidates)
    batch_dict["answers"] = rng.integers(0, D.num_answers(cfg.task, cfg.answer_vocab), size=batch)

    def f():
        loss, _ = model.forward_loss(batch_dict)
        return loss

    return f, model.store.tensors()


class CoMemoryModel:
    """Owns the parameter store and runs task-specific forward passes."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32, values=None):
        """Parameters are drawn from ``seed``, or taken from ``values`` (name -> array) when given."""
        self.config = config
        self.store = ParameterStore(seed=seed, dtype=dtype, values=values)
        c = config
        self.embedding = self.store.add("embed", (c.vocab_size, c.embed_dim))
        self.q_gru1 = GruParams.create(self.store, "q_gru1", c.embed_dim, c.question_hidden)
        self.q_gru2 = GruParams.create(self.store, "q_gru2", c.question_hidden, c.question_hidden)
        self.pyramid_a = PyramidParams.create(self.store, "pyr_a", c.input_width_a, c.fact_channels, c.levels)
        self.pyramid_b = PyramidParams.create(self.store, "pyr_b", c.input_width_b, c.fact_channels, c.levels)
        self.comem = CoMemoryParams.create(
            self.store, "comem",
            fact_dim=c.fact_channels, memory_dim=c.memory_dim,
            question_dim=c.question_hidden, gate_dim=c.gate_dim, context_dim=c.context_dim,
        )
        if c.task.is_multiple_choice:
            self.fuse_w = self.store.add("fuse.w", (2 * c.question_hidden, c.question_hidden))
            self.fuse_b = self.store.add("fuse.b", (c.question_hidden,))
        self.decoder = DecoderParams.create(self.store, "dec", 2 * c.memory_dim, c.task, c.answer_vocab)
        self.store.check_filled()

    # -- building blocks ---------------------------------------------------

    def _facts(self, features_a: np.ndarray, features_b: np.ndarray):
        dtype = self.store.dtype
        fa = Tensor(np.asarray(features_a, dtype=dtype))
        fb = Tensor(np.asarray(features_b, dtype=dtype))
        return build_contextual_facts(fa, self.pyramid_a), build_contextual_facts(fb, self.pyramid_b)

    def _question(self, q_ids: np.ndarray, q_len: np.ndarray) -> Tensor:
        return encode_token_batch(q_ids, q_len, self.embedding, self.q_gru1, self.q_gru2)

    def _candidate_questions(self, q: Tensor, cand_ids: np.ndarray, cand_len: np.ndarray) -> Tensor:
        """(B, K, Q): ``tanh([q; e_k] @ fuse.w + fuse.b)`` for candidate ``k`` of each item.

        The question half, ``q @ fuse.w[:Q] + fuse.b``, is computed once per
        item and broadcast over the K candidates.
        """
        n_items, K = cand_ids.shape[:2]
        Q = q.data.shape[-1]
        e = encode_token_batch(cand_ids.reshape(n_items * K, -1), cand_len.reshape(n_items * K),
                               self.embedding, self.q_gru1, self.q_gru2)
        e_part = T.matmul(T.reshape(e, (n_items, K, Q)), T.take(self.fuse_w, slice(Q, None)))
        q_part = T.matmul(q, T.take(self.fuse_w, slice(None, Q)), self.fuse_b)
        return T.tanh(e_part + T.reshape(q_part, (n_items, 1, Q)))

    def _forward(self, batch: dict):
        """Head output and per-cycle attention maps for a ``make_batch`` dict.

        Multiple choice runs one fused question per candidate, (B, K, Q), so
        the output is (B, K) scores and the maps are (B, K, N, L).  The facts
        stay untiled at (B, N, L, ·): their projections are made once here and
        shared by every cycle and every candidate.  The fact levels are not
        kept past their projection, so those that no backward reads are freed.
        """
        task = self.config.task
        proj = fact_projections(*self._facts(batch["features_a"], batch["features_b"]), self.comem)
        q = self._question(batch["q_ids"], batch["q_len"])
        if task.is_multiple_choice:
            q = self._candidate_questions(q, batch["cand_ids"], batch["cand_len"])
        m_h, maps = run_episodes(None, None, q, self.comem, self.config.cycles, facts_proj=proj)
        return D.head(task, m_h, self.decoder), maps

    # -- training and inference ----------------------------------------------

    def forward_loss(self, batch: dict) -> tuple[Tensor, np.ndarray]:
        """Mean loss over a batch dict; returns (loss, per-item predictions)."""
        task = self.config.task
        out, _ = self._forward(batch)
        return T.tmean(D.task_loss(task, out, batch["answers"])), D.task_predictions(task, out)

    def predict(self, batch: dict) -> np.ndarray:
        with T.no_grad():
            out, _ = self._forward(batch)
        return D.task_predictions(self.config.task, out)

    def inspect(self, features_a, features_b, question_tokens, candidates=None) -> dict:
        """One forward pass for a single item; returns attention maps and prediction."""
        task = self.config.task
        if task.is_multiple_choice and (candidates is None or len(candidates) != D.NUM_CHOICES):
            raise DomainError("multiple-choice inspection needs 5 candidates")
        batch = make_batch([features_a], [features_b], [question_tokens],
                           [candidates] if task.is_multiple_choice else None)
        with T.no_grad():
            out, maps = self._forward(batch)
        pred = int(D.task_predictions(task, out)[0])
        index = (0, pred) if task.is_multiple_choice else (0,)  # MC maps are (1, K, N, L)
        return {
            "prediction": pred,
            "cycles": [m.export(index) for m in maps],
        }
