"""Task heads and losses: multiple-choice scoring, count regression, word classification."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .errors import DimensionError, DomainError
from .tensor import ParameterStore, Tensor

COUNT_MIN = 0
COUNT_MAX = 10
NUM_CHOICES = 5


class TaskKind(str, Enum):
    REPEATING_ACTION = "action"
    STATE_TRANSITION = "trans"
    REPETITION_COUNT = "count"
    FRAME_QA = "frame"

    @property
    def is_multiple_choice(self) -> bool:
        return self in (TaskKind.REPEATING_ACTION, TaskKind.STATE_TRANSITION)

    @property
    def metric_name(self) -> str:
        return "MSE" if self is TaskKind.REPETITION_COUNT else "ACC"

    def metric(self, preds, golds) -> float:
        """The ``metric_name`` of integer predictions against integer answers."""
        if self is TaskKind.REPETITION_COUNT:
            return float(np.mean((np.asarray(preds, np.float64) - np.asarray(golds, np.float64)) ** 2))
        return float(np.mean(np.asarray(preds) == np.asarray(golds)))

    def better(self, a: float, b: float) -> bool:
        """Whether metric ``a`` beats ``b``: a lower MSE or a higher ACC."""
        return a < b if self is TaskKind.REPETITION_COUNT else a > b


@dataclass
class DecoderParams:
    """The head's read-out ``m_h @ w + b``: one column for a choice score (no bias) or a count, one per answer word."""

    w: Tensor
    b: Tensor | None = None

    @staticmethod
    def create(store: ParameterStore, prefix: str, memory_dim: int, task: TaskKind, answer_vocab: int = 0) -> "DecoderParams":
        if task.is_multiple_choice:
            return DecoderParams(store.add(f"{prefix}.w_m", (memory_dim, 1)))
        if task is TaskKind.REPETITION_COUNT:
            return DecoderParams(store.add(f"{prefix}.w_n", (memory_dim, 1)), store.add(f"{prefix}.b_n", (1,)))
        if answer_vocab < 1:
            raise DomainError("word classifier needs a positive answer vocabulary size")
        return DecoderParams(store.add(f"{prefix}.w_w", (memory_dim, answer_vocab)),
                             store.add(f"{prefix}.b_w", (answer_vocab,)))


def score_choice(m_h: Tensor, p: DecoderParams) -> Tensor:
    """One scalar per row, ``m_h . w + b``: a candidate's score ``W_m . m_h`` or the unrounded count ``W_n . m_h + b``."""
    s = T.matmul(m_h, p.w, p.b)
    return T.reshape(s, s.data.shape[:-1])


# the count's training estimate is the same read-out as a choice score
count_regression = score_choice


def hinge_loss(scores: Tensor, answers) -> Tensor:
    """Mean over the wrong slots of ``max(0, 1 + s_wrong - s_answer)``, for scores (..., K) and answers (...)."""
    answers = np.asarray(answers)
    slots = np.arange(scores.data.shape[-1] - 1)
    if slots.size == 0:
        raise DomainError("hinge_loss: need at least one incorrect-candidate score")
    rows = [r[..., None] for r in np.indices(answers.shape, sparse=True)]
    wrong = T.take(scores, (*rows, slots + (slots >= answers[..., None])))  # every slot but the answer
    right = T.take(scores, (*rows, answers[..., None]))
    return T.tmean(T.relu(1.0 + wrong - right), axis=-1)


def round_count(r):
    """Integer counts from unrounded estimates: round half-up, clamped to 0..10."""
    rounded = np.floor(np.asarray(r, dtype=np.float64) + 0.5)
    return np.clip(rounded, COUNT_MIN, COUNT_MAX).astype(np.int64)


def predict_count(m_h: Tensor, p: DecoderParams):
    """Integer prediction from ``round_count``; a scalar for one memory vector."""
    counts = task_predictions(TaskKind.REPETITION_COUNT, count_regression(m_h, p))
    return counts if counts.ndim else int(counts)


def l2_count_loss(r: Tensor, y) -> Tensor:
    """Squared error between the unrounded estimate and the integer target."""
    y = np.asarray(y, dtype=r.data.dtype)
    if y.shape != r.data.shape:
        raise DimensionError(f"l2_count_loss: target shape {y.shape} vs estimate {r.data.shape}")
    return T.square(r - Tensor(y))


def word_logits(m_h: Tensor, p: DecoderParams) -> Tensor:
    return T.matmul(m_h, p.w, p.b)


def classify_word(m_h: Tensor, p: DecoderParams) -> Tensor:
    """Probability distribution over the answer vocabulary."""
    return T.softmax(word_logits(m_h, p), axis=-1)


def cross_entropy_loss(logits: Tensor, target) -> Tensor:
    """Stable cross-entropy from raw logits against integer class targets."""
    target = np.asarray(target)
    return T.logsumexp(logits, axis=-1) - T.take(logits, (*np.indices(target.shape, sparse=True), target))


def predict_word(m_h: Tensor, p: DecoderParams):
    """Argmax class (ties resolve to the lowest index); a scalar for one memory vector."""
    idx = task_predictions(TaskKind.FRAME_QA, word_logits(m_h, p))
    return idx if idx.ndim else int(idx)


# -- one head per task -----------------------------------------------------------


def num_answers(task: TaskKind, answer_vocab: int | None = None) -> int | None:
    """Size of the answer range: candidate slots, counts 0..10, or answer words."""
    if task.is_multiple_choice:
        return NUM_CHOICES
    if task is TaskKind.REPETITION_COUNT:
        return COUNT_MAX + 1
    return answer_vocab


def head(task: TaskKind, m_h: Tensor, p: DecoderParams) -> Tensor:
    """The task's raw output: choice scores, unrounded counts or word logits."""
    if task is TaskKind.FRAME_QA:
        return word_logits(m_h, p)
    return score_choice(m_h, p)


def task_loss(task: TaskKind, out: Tensor, answers) -> Tensor:
    """Per-item loss of ``head``'s output ``out`` (B, ...) against integer answers (B,).

    Multiple choice: ``hinge_loss``; count: ``l2_count_loss``; word:
    ``cross_entropy_loss``.
    """
    if task.is_multiple_choice:
        return hinge_loss(out, answers)
    if task is TaskKind.REPETITION_COUNT:
        return l2_count_loss(out, answers)
    return cross_entropy_loss(out, answers)


def task_predictions(task: TaskKind, out: Tensor) -> np.ndarray:
    """Per-item answers from ``head``'s output: rounded counts, else the argmax (ties to the lowest index)."""
    if task is TaskKind.REPETITION_COUNT:
        return round_count(out.data)
    return np.argmax(out.data, axis=-1)
