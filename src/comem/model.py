"""Full per-task model: parameter construction and batched forward passes."""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from . import tensor as T
from . import decoders as D
from .decoders import DecoderParams, TaskKind
from .encoders import GruParams, TokenEmbeddingTable, encode_token_batch
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


class CoMemoryModel:
    """Owns the parameter store and runs task-specific forward passes."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.store = ParameterStore(seed=seed, dtype=dtype)
        c = config
        self.embedding = TokenEmbeddingTable.create(self.store, "embed", c.vocab_size, c.embed_dim)
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

    def _episodes(self, A, B, q: Tensor):
        """Memory read-out and maps; ``q`` is (B, Q), or (B, K, Q) for K candidates.

        The facts stay untiled at (B, N, L, ·): their projections are made
        once here and shared by every cycle and every candidate.
        """
        proj = fact_projections(A, B, self.comem)
        return run_episodes(A, B, q, self.comem, self.config.cycles, facts_proj=proj)

    def _mc_scores(self, A, B, q: Tensor, cand_ids: np.ndarray, cand_mask: np.ndarray):
        """Scores (B, K) and maps (B, K, N, L): one question per candidate, facts untiled.

        Candidate ``k`` of item ``b`` is fused with that item's question into
        row ``(b, k)``; the memories carry that (B, K) layout and the facts
        broadcast against it.
        """
        n_items, K = cand_ids.shape[:2]
        e = encode_token_batch(cand_ids.reshape(n_items * K, -1), cand_mask.reshape(n_items * K, -1),
                               self.embedding, self.q_gru1, self.q_gru2)
        q_all = self._fuse_candidate(T.repeat_rows(q, K), e)
        m_h, maps = self._episodes(A, B, T.reshape(q_all, (n_items, K, q_all.data.shape[-1])))
        return D.score_choice(m_h, self.decoder), maps

    # -- training forward ---------------------------------------------------

    def forward_loss(self, batch: dict) -> tuple[Tensor, np.ndarray]:
        """Mean loss over a batch dict; returns (loss, per-item predictions)."""
        task = self.config.task_kind()
        A, B = self._facts(batch["features_a"], batch["features_b"])
        q = self._question(batch["q_ids"], batch["q_mask"])
        answers = np.asarray(batch["answers"])
        if task.is_multiple_choice:
            scores, _ = self._mc_scores(A, B, q, batch["cand_ids"], batch["cand_mask"])
            s_p = T.select_index(scores, answers)
            margins = T.relu(1.0 + scores - T.reshape(s_p, s_p.data.shape + (1,)))
            # the correct candidate contributes a constant relu(1) = 1 per row
            n_neg = scores.data.shape[-1] - 1
            per_item = T.scale(T.tsum(margins, axis=-1) - 1.0, 1.0 / n_neg)
            preds = np.argmax(scores.data, axis=-1)
        elif task is TaskKind.REPETITION_COUNT:
            m_h, _ = self._episodes(A, B, q)
            r = D.count_regression(m_h, self.decoder)
            per_item = D.l2_count_loss(r, answers.astype(np.float64))
            preds = np.clip(np.floor(np.asarray(r.data, dtype=np.float64) + 0.5), D.COUNT_MIN, D.COUNT_MAX).astype(np.int64)
        else:
            m_h, _ = self._episodes(A, B, q)
            logits = D.word_logits(m_h, self.decoder)
            per_item = D.cross_entropy_loss(logits, answers)
            preds = np.argmax(logits.data, axis=-1)
        return T.tmean(per_item), preds

    # -- inference -----------------------------------------------------------

    def predict(self, batch: dict) -> np.ndarray:
        task = self.config.task_kind()
        with T.no_grad():
            A, B = self._facts(batch["features_a"], batch["features_b"])
            q = self._question(batch["q_ids"], batch["q_mask"])
            if task.is_multiple_choice:
                scores, _ = self._mc_scores(A, B, q, batch["cand_ids"], batch["cand_mask"])
                return np.argmax(scores.data, axis=-1)
            m_h, _ = self._episodes(A, B, q)
            if task is TaskKind.REPETITION_COUNT:
                return np.atleast_1d(D.predict_count(m_h, self.decoder))
            return np.atleast_1d(D.predict_word(m_h, self.decoder))

    def score_candidates(self, features_a, features_b, question_tokens, candidates) -> np.ndarray:
        """Candidate scores for one item (used by ``answer_multiple_choice``)."""
        q_ids, q_mask = pad_token_batch([question_tokens])
        cand_ids, cand_mask = pad_token_batch(list(candidates))
        with T.no_grad():
            A, B = self._facts(np.asarray(features_a)[None], np.asarray(features_b)[None])
            q = self._question(q_ids, q_mask)
            scores, _ = self._mc_scores(A, B, q, cand_ids[None], cand_mask[None])
        return np.asarray(scores.data[0], dtype=np.float64)

    def inspect(self, features_a, features_b, question_tokens, candidates=None) -> dict:
        """One forward pass for a single item; returns attention maps and prediction."""
        task = self.config.task_kind()
        q_ids, q_mask = pad_token_batch([question_tokens])
        with T.no_grad():
            A, B = self._facts(np.asarray(features_a)[None], np.asarray(features_b)[None])
            q = self._question(q_ids, q_mask)
            if task.is_multiple_choice:
                if candidates is None or len(candidates) != D.NUM_CHOICES:
                    raise DomainError("multiple-choice inspection needs 5 candidates")
                cand_ids, cand_mask = pad_token_batch(list(candidates))
                scores, maps = self._mc_scores(A, B, q, cand_ids[None], cand_mask[None])
                pred = int(np.argmax(scores.data[0]))
                index = (0, pred)  # maps are (1, K, N, L): the predicted candidate's row
            else:
                m_h, maps = self._episodes(A, B, q)
                index = (0,)
                if task is TaskKind.REPETITION_COUNT:
                    pred = int(D.predict_count(m_h, self.decoder)[0])
                else:
                    pred = int(np.argmax(D.word_logits(m_h, self.decoder).data[0]))
        return {
            "prediction": pred,
            "cycles": [m.export(index) for m in maps],
        }
