"""Full per-task model: parameter construction and batched forward passes."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import tensor as T
from . import decoders as D
from .decoders import DecoderParams, TaskKind
from .encoders import GruParams, encode_token_batch
from .errors import DomainError
from .facts import PyramidParams, build_contextual_facts
from .memory import CoMemoryParams, fact_projections, run_episodes
from .tensor import ParameterStore, Tensor


@dataclass
class ModelConfig:
    task: str
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

    def task_kind(self) -> TaskKind:
        return TaskKind(self.task)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**d)


def tiny_model_config(task: str = "frame", vocab_size: int = 13, answer_vocab: int = 4) -> ModelConfig:
    """Small dimensions for gradient checking: L=4, C=4, N=2, memory 4, q 3, T=2."""
    return ModelConfig(
        task=task,
        vocab_size=vocab_size,
        input_width_a=4,
        input_width_b=4,
        answer_vocab=answer_vocab,
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


def pad_token_batch(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad token id sequences; returns (ids, 0/1 mask), both (B, T)."""
    if any(len(s) == 0 for s in seqs):
        raise DomainError("pad_token_batch: empty token sequence")
    width = max(len(s) for s in seqs)
    ids = np.zeros((len(seqs), width), dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=np.float64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = np.asarray(s, dtype=np.int64)
        mask[i, : len(s)] = 1.0
    return ids, mask


def make_batch(features_a, features_b, questions, candidates=None) -> dict:
    """The batch dict every forward pass reads, for items given as parallel lists.

    ``features_a``/``features_b``: one (L, D) array per item; ``questions``:
    one token id list per item; ``candidates``: per item, its
    ``NUM_CHOICES`` candidate token id lists (multiple choice only).
    Training callers add ``answers``.
    """
    batch = {"features_a": np.stack(features_a), "features_b": np.stack(features_b)}
    batch["q_ids"], batch["q_mask"] = pad_token_batch(questions)
    if candidates is not None:
        ids, mask = pad_token_batch([c for item in candidates for c in item])
        batch["cand_ids"] = ids.reshape(len(candidates), D.NUM_CHOICES, -1)
        batch["cand_mask"] = mask.reshape(len(candidates), D.NUM_CHOICES, -1)
    return batch


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
        task = c.task_kind()
        if task.is_multiple_choice:
            self.fuse_w = self.store.add("fuse.w", (2 * c.question_hidden, c.question_hidden))
            self.fuse_b = self.store.add("fuse.b", (c.question_hidden,), init="zeros")
        self.decoder = DecoderParams.create(self.store, "dec", 2 * c.memory_dim, task, c.answer_vocab)
        self.store.check_filled()

    # -- building blocks ---------------------------------------------------

    def _facts(self, features_a: np.ndarray, features_b: np.ndarray):
        dtype = self.store.dtype
        fa = Tensor(np.asarray(features_a, dtype=dtype))
        fb = Tensor(np.asarray(features_b, dtype=dtype))
        A = build_contextual_facts(fa, self.pyramid_a, self.config.levels, modality="appearance")
        B = build_contextual_facts(fb, self.pyramid_b, self.config.levels, modality="motion")
        return A, B

    def _question(self, q_ids: np.ndarray, q_mask: np.ndarray) -> Tensor:
        return encode_token_batch(q_ids, q_mask, self.embedding, self.q_gru1, self.q_gru2)

    def _fuse_candidate(self, q: Tensor, e: Tensor) -> Tensor:
        return T.tanh(T.affine(T.concat([q, e], axis=-1), self.fuse_w, self.fuse_b))

    def _candidate_questions(self, q: Tensor, cand_ids: np.ndarray, cand_mask: np.ndarray) -> Tensor:
        """(B, K, Q): candidate ``k`` of item ``b`` fused with that item's question."""
        n_items, K = cand_ids.shape[:2]
        e = encode_token_batch(cand_ids.reshape(n_items * K, -1), cand_mask.reshape(n_items * K, -1),
                               self.embedding, self.q_gru1, self.q_gru2)
        q_all = self._fuse_candidate(T.take(q, np.repeat(np.arange(n_items), K)), e)
        return T.reshape(q_all, (n_items, K, q_all.data.shape[-1]))

    def _forward(self, batch: dict):
        """Head output and per-cycle attention maps for a ``make_batch`` dict.

        Multiple choice runs one fused question per candidate, (B, K, Q), so
        the output is (B, K) scores and the maps are (B, K, N, L).  The facts
        stay untiled at (B, N, L, ·): their projections are made once here and
        shared by every cycle and every candidate.
        """
        task = self.config.task_kind()
        A, B = self._facts(batch["features_a"], batch["features_b"])
        q = self._question(batch["q_ids"], batch["q_mask"])
        if task.is_multiple_choice:
            q = self._candidate_questions(q, batch["cand_ids"], batch["cand_mask"])
        proj = fact_projections(A, B, self.comem)
        m_h, maps = run_episodes(A, B, q, self.comem, self.config.cycles, facts_proj=proj)
        return D.head(task, m_h, self.decoder), maps

    # -- training and inference ----------------------------------------------

    def forward_loss(self, batch: dict) -> tuple[Tensor, np.ndarray]:
        """Mean loss over a batch dict; returns (loss, per-item predictions)."""
        task = self.config.task_kind()
        out, _ = self._forward(batch)
        return T.tmean(D.task_loss(task, out, batch["answers"])), D.task_predictions(task, out)

    def predict(self, batch: dict) -> np.ndarray:
        with T.no_grad():
            out, _ = self._forward(batch)
        return D.task_predictions(self.config.task_kind(), out)

    def inspect(self, features_a, features_b, question_tokens, candidates=None) -> dict:
        """One forward pass for a single item; returns attention maps and prediction."""
        task = self.config.task_kind()
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
