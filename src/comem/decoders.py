"""Task heads and losses: multiple-choice scoring, count regression, word classification."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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


@dataclass
class DecoderParams:
    """W_m (choice score), W_n + b (count), W_w + bias (word classifier)."""

    w_m: Tensor | None = None
    w_n: Tensor | None = None
    b_n: Tensor | None = None
    w_w: Tensor | None = None
    b_w: Tensor | None = None

    @staticmethod
    def create(store: ParameterStore, prefix: str, memory_dim: int, task: TaskKind, answer_vocab: int = 0) -> "DecoderParams":
        p = DecoderParams()
        if task.is_multiple_choice:
            p.w_m = store.add(f"{prefix}.w_m", (memory_dim, 1))
        elif task is TaskKind.REPETITION_COUNT:
            p.w_n = store.add(f"{prefix}.w_n", (memory_dim, 1))
            p.b_n = store.add(f"{prefix}.b_n", (1,), init="zeros")
        else:
            if answer_vocab < 1:
                raise DomainError("word classifier needs a positive answer vocabulary size")
            p.w_w = store.add(f"{prefix}.w_w", (memory_dim, answer_vocab))
            p.b_w = store.add(f"{prefix}.b_w", (answer_vocab,), init="zeros")
        return p


def score_choice(m_h: Tensor, p: DecoderParams) -> Tensor:
    """Real-valued candidate score ``W_m . m_h`` (scalar per row)."""
    s = T.matmul(m_h, p.w_m)
    return T.reshape(s, s.data.shape[:-1])


def hinge_loss(s_p: Tensor, s_n: Sequence[Tensor]) -> Tensor:
    """Mean over incorrect candidates of ``max(0, 1 + s_n - s_p)``."""
    if len(s_n) == 0:
        raise DomainError("hinge_loss: need at least one incorrect-candidate score")
    terms = [T.relu(1.0 + sn - s_p) for sn in s_n]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return T.scale(total, 1.0 / len(s_n))


def count_regression(m_h: Tensor, p: DecoderParams) -> Tensor:
    """Unrounded count estimate ``W_n . m_h + b`` used by the training loss."""
    r = T.matmul(m_h, p.w_n)
    r = T.reshape(r, r.data.shape[:-1])
    return r + T.reshape(p.b_n, ())


def round_count(r):
    """Integer counts from unrounded estimates: round half-up, clamped to 0..10."""
    rounded = np.floor(np.asarray(r, dtype=np.float64) + 0.5)
    return np.clip(rounded, COUNT_MIN, COUNT_MAX).astype(np.int64)


def predict_count(m_h: Tensor, p: DecoderParams):
    """Integer prediction from ``round_count``; a scalar for one memory vector."""
    counts = round_count(count_regression(m_h, p).data)
    return counts if counts.ndim else int(counts)


def l2_count_loss(r: Tensor, y) -> Tensor:
    """Squared error between the unrounded estimate and the integer target."""
    y = np.asarray(y, dtype=r.data.dtype)
    if y.shape != r.data.shape:
        raise DimensionError(f"l2_count_loss: target shape {y.shape} vs estimate {r.data.shape}")
    return T.square(r - Tensor(y))


def word_logits(m_h: Tensor, p: DecoderParams) -> Tensor:
    return T.affine(m_h, p.w_w, p.b_w)


def classify_word(m_h: Tensor, p: DecoderParams) -> Tensor:
    """Probability distribution over the answer vocabulary."""
    return T.softmax(word_logits(m_h, p), axis=-1)


def cross_entropy_loss(logits: Tensor, target) -> Tensor:
    """Stable cross-entropy from raw logits against integer class targets."""
    target = np.asarray(target)
    return T.logsumexp(logits, axis=-1) - T.take(logits, (*np.indices(target.shape, sparse=True), target))


def predict_word(m_h: Tensor, p: DecoderParams):
    """Argmax class (ties resolve to the lowest index)."""
    logits = word_logits(m_h, p)
    idx = np.argmax(logits.data, axis=-1)
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
    if task.is_multiple_choice:
        return score_choice(m_h, p)
    if task is TaskKind.REPETITION_COUNT:
        return count_regression(m_h, p)
    return word_logits(m_h, p)


def task_loss(task: TaskKind, out: Tensor, answers) -> Tensor:
    """Per-item loss of ``head``'s output ``out`` (B, ...) against integer answers (B,).

    Multiple choice: ``hinge_loss`` of the correct score against the K-1
    wrong ones; count: ``l2_count_loss``; word: ``cross_entropy_loss``.
    """
    answers = np.asarray(answers)
    if task.is_multiple_choice:
        slots = np.arange(out.data.shape[-1] - 1)
        wrong = slots + (slots >= answers[:, None])  # (B, K-1): every slot but the answer
        rows = np.indices(answers.shape, sparse=True)
        return hinge_loss(T.take(out, (*rows, answers)), [T.take(out, (*rows, w)) for w in wrong.T])
    if task is TaskKind.REPETITION_COUNT:
        return l2_count_loss(out, answers)
    return cross_entropy_loss(out, answers)


def task_predictions(task: TaskKind, out: Tensor) -> np.ndarray:
    """Per-item answers from ``head``'s output: rounded counts, else the argmax (ties to the lowest index)."""
    if task is TaskKind.REPETITION_COUNT:
        return round_count(out.data)
    return np.argmax(out.data, axis=-1)
