"""Dual-memory episodic loop over two fact modalities.

Each cycle: cross-modal gate generation (one blocked additive-attention op
per modality, ``T.additive_gate``), per-step soft fusion of pyramid levels,
gate-driven GRU encoding of the fused fact sequence, and a ReLU affine update
of each modality's memory from [memory, question, context].  The facts stay
untiled, (..., N, L, ·); when several questions (one per answer candidate)
run over the same facts, only the question and the memories carry that
candidate axis, (..., K, ·).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import GruParams, attention_gru_encode
from .errors import DimensionError, DomainError
from .facts import ContextualFactSet
from .tensor import ParameterStore, Tensor


@dataclass
class MemoryState:
    m_a: Tensor
    m_b: Tensor
    cycle: int = 0


@dataclass
class ModalityMaps:
    """One modality's raw gates and both softmax normalizations for one cycle.

    ``gates``: (..., N, L) raw gates.  ``levels``: softmax over the level
    axis (columns sum to 1).  ``steps``: softmax over the step axis of the
    level-mean gate.
    """

    gates: Tensor
    levels: Tensor
    steps: Tensor

    def export(self, index: tuple) -> dict:
        return {name: np.asarray(t.data[index], dtype=np.float64).tolist()
                for name, t in (("levels", self.levels), ("steps", self.steps))}


@dataclass
class AttentionMaps:
    """The appearance (``a``) and motion (``b``) maps of one cycle."""

    a: ModalityMaps
    b: ModalityMaps
    cycle: int = 0

    def export(self, index: tuple = ()) -> dict:
        """Both normalizations as nested lists; ``index`` picks one row, e.g. ``(0, k)``."""
        return {"cycle": self.cycle, "appearance": self.a.export(index), "motion": self.b.export(index)}


@dataclass
class ModalityParams:
    """One modality's gate weights, initial-memory projection, memory update and fact GRU."""

    w1: Tensor
    w2: Tensor
    w3: Tensor
    w4: Tensor
    proj: Tensor
    upd_w: Tensor
    upd_b: Tensor
    gru: GruParams


@dataclass
class CoMemoryParams:
    """The appearance (``a``) and motion (``b``) memories' parameters."""

    a: ModalityParams
    b: ModalityParams

    @staticmethod
    def create(
        store: ParameterStore,
        prefix: str,
        fact_dim: int,
        memory_dim: int,
        question_dim: int,
        gate_dim: int,
        context_dim: int,
    ) -> "CoMemoryParams":
        """Each parameter kind is drawn for ``a``, then ``b``; names and order are the checkpoint layout."""
        mq = memory_dim + question_dim
        upd_in = memory_dim + question_dim + context_dim
        attn_shapes = ((mq, fact_dim), (fact_dim, gate_dim), (mq, gate_dim), (gate_dim, 1))
        w = {m: [store.add(f"{prefix}.w_{m}{i}", shape) for i, shape in enumerate(attn_shapes, 1)] for m in "ab"}
        proj = {m: store.add(f"{prefix}.proj_{m}", (question_dim, memory_dim)) for m in "ab"}
        upd = {m: (store.add(f"{prefix}.upd_{m}_w", (upd_in, memory_dim)),
                   store.add(f"{prefix}.upd_{m}_b", (memory_dim,))) for m in "ab"}
        gru = {m: GruParams.create(store, f"{prefix}.gru_{m}", fact_dim, context_dim, update_gate=False) for m in "ab"}
        a, b = (ModalityParams(*w[m], proj[m], *upd[m], gru[m]) for m in "ab")
        return CoMemoryParams(a=a, b=b)


def init_memory(q: Tensor, p: CoMemoryParams) -> MemoryState:
    """Initial memories: separate learned ReLU projections of the question."""
    return MemoryState(m_a=T.relu(T.matmul(q, p.a.proj)), m_b=T.relu(T.matmul(q, p.b.proj)))


@dataclass
class FactProjections:
    """One modality's memory-independent linear maps of its facts, computed once per forward.

    ``gate``: (..., N, L, Z), the facts times the second attention weight.
    ``gru``: (..., N, L, 2H), every level through the fact GRU's input
    weights and biases, ``f @ w + b``.
    """

    gate: Tensor
    gru: Tensor


def fact_projections(A: ContextualFactSet, B: ContextualFactSet, p: CoMemoryParams) -> tuple[FactProjections, FactProjections]:
    """Project the untiled facts once; every cycle and every candidate reuses them.

    ``tanh(W2 (f + inner))`` distributes to ``tanh(W2 f + W2 inner)``, so
    ``W2 f`` is shared.  The fact GRU's input map is affine and each step's
    level weights sum to 1, so ``proj(sum_i s_i f_i) = sum_i s_i proj(f_i)``:
    the level ensemble can mix projected levels instead of raw facts.
    Returns the (appearance, motion) projections.
    """
    def project(F: ContextualFactSet, mp: ModalityParams) -> FactProjections:
        f = F.stacked()
        return FactProjections(gate=T.matmul(f, mp.w2), gru=T.matmul(f, mp.gru.w, mp.gru.b))

    return project(A, p.a), project(B, p.b)


def _attend(fp: FactProjections, m_own: Tensor, m_other: Tensor, q: Tensor, mp: ModalityParams) -> ModalityMaps:
    """One modality's gates ``tanh(W2 f + W2 W1 [m; q] + W3 [m_other; q]) . w4`` and their softmaxes.

    ``fp.gate`` holds the untiled facts already multiplied by ``mp.w2``.
    The inner term uses the modality's own memory, the outer term the other
    modality's memory; both are (..., [K,] Z) vectors added inside the
    ``tanh``, so the other memory moves the level and step softmaxes.
    ``T.additive_gate`` computes the gates without holding the
    (..., [K,] N, L, Z) ``tanh``.  The maps are (..., [K,] N, L), the step
    softmax (..., [K,] L).
    """
    extra = q.data.ndim - (fp.gate.data.ndim - 2)  # 1 when q carries a candidate axis the facts lack
    if extra not in (0, 1):
        raise DimensionError(f"question {q.shape} does not match facts {fp.gate.shape}")
    inner = T.matmul(T.matmul(T.concat([m_own, q], axis=-1), mp.w1), mp.w2)  # (..., [K,] Z)
    inner = inner + T.matmul(T.concat([m_other, q], axis=-1), mp.w3)
    if extra:
        g = T.additive_gate(fp.gate, inner, mp.w4)
    else:  # one query per fact row: a candidate axis of one, dropped again
        g = T.additive_gate(fp.gate, T.reshape(inner, inner.data.shape[:-1] + (1, -1)), mp.w4)
        g = T.reshape(g, fp.gate.data.shape[:-1])
    return ModalityMaps(gates=g, levels=T.softmax(g, axis=-2), steps=T.softmax(T.tmean(g, axis=-2), axis=-1))


def co_attention(
    A: ContextualFactSet | None,
    B: ContextualFactSet | None,
    m: MemoryState,
    q: Tensor,
    p: CoMemoryParams,
    facts_proj: tuple[FactProjections, FactProjections] | None = None,
) -> AttentionMaps:
    """Cross-modal gates plus the level-axis and step-axis softmaxes.

    ``q`` and the memories may carry a candidate axis (..., K, ·) that the
    facts lack; the maps then have shape (..., K, N, L).  The fact sets are
    read only to make ``facts_proj`` when it is not given.
    """
    fp_a, fp_b = fact_projections(A, B, p) if facts_proj is None else facts_proj
    (na, la), (nb, lb) = fp_a.gate.data.shape[-3:-1], fp_b.gate.data.shape[-3:-1]
    if (na, la) != (nb, lb):
        raise DimensionError(f"co_attention: fact sets disagree: {na}x{la} vs {nb}x{lb}")
    return AttentionMaps(a=_attend(fp_a, m.m_a, m.m_b, q, p.a), b=_attend(fp_b, m.m_b, m.m_a, q, p.b),
                         cycle=m.cycle + 1)


def dynamic_fact_ensemble(F: ContextualFactSet | Tensor, s_levels: Tensor) -> Tensor:
    """Per-step weighted average of levels: ``f_j = sum_i s[i, j] f_j^i``.

    ``F`` is a fact set or any per-level tensor (..., N, L, D) shared by all
    candidates, such as ``FactProjections.gru``.  ``s_levels`` is
    (..., N, L), or (..., K, N, L) with one weight set per candidate; the
    result is (..., L, D) or (..., K, L, D).  The levels are never tiled K
    times: ``T.mix_levels`` contracts the weights against them directly.
    """
    stacked = F.stacked() if isinstance(F, ContextualFactSet) else F  # (..., N, L, D)
    shape = s_levels.data.shape
    if len(shape) not in (stacked.data.ndim - 1, stacked.data.ndim) or shape[-2:] != stacked.data.shape[-3:-1]:
        raise DimensionError(f"dynamic_fact_ensemble: weights {s_levels.shape} vs facts {stacked.shape}")
    col_sums = s_levels.data.sum(axis=-2)
    if np.abs(col_sums - 1.0).max() > 1e-4:
        raise DomainError(f"dynamic_fact_ensemble: level weights must sum to 1 per step (max deviation {np.abs(col_sums - 1.0).max():.2e})")
    if len(shape) == stacked.data.ndim:  # (..., K, N, L)
        return T.mix_levels(s_levels, stacked)
    mixed = T.mix_levels(T.reshape(s_levels, shape[:-2] + (1,) + shape[-2:]), stacked)
    return T.reshape(mixed, shape[:-2] + mixed.data.shape[-2:])


def _update(fp: FactProjections, maps: ModalityMaps, m_own: Tensor, q: Tensor, mp: ModalityParams) -> tuple[Tensor, Tensor]:
    """One modality's level ensemble, fact GRU and memory update; returns (memory, context).

    The ensemble mixes the GRU-projected levels, so the fact GRU runs on
    (..., [K,] L, 2H) inputs without an input gemm of its own.
    """
    c = attention_gru_encode(dynamic_fact_ensemble(fp.gru, maps.levels), maps.steps, mp.gru)
    return T.relu(T.matmul(T.concat([m_own, q, c], axis=-1), mp.upd_w, mp.upd_b)), c


def memory_cycle(
    A: ContextualFactSet | None,
    B: ContextualFactSet | None,
    m: MemoryState,
    q: Tensor,
    p: CoMemoryParams,
    facts_proj: tuple[FactProjections, FactProjections] | None = None,
) -> tuple[MemoryState, AttentionMaps, Tensor, Tensor]:
    """One attention / ensemble / encode / update cycle for both modalities; ``A``, ``B`` as in ``co_attention``."""
    if facts_proj is None:
        facts_proj = fact_projections(A, B, p)
    maps = co_attention(A, B, m, q, p, facts_proj=facts_proj)
    m_a, c_a = _update(facts_proj[0], maps.a, m.m_a, q, p.a)
    m_b, c_b = _update(facts_proj[1], maps.b, m.m_b, q, p.b)
    return MemoryState(m_a=m_a, m_b=m_b, cycle=m.cycle + 1), maps, c_a, c_b


def run_episodes(
    A: ContextualFactSet | None,
    B: ContextualFactSet | None,
    q: Tensor,
    p: CoMemoryParams,
    cycles: int = 2,
    facts_proj: tuple[FactProjections, FactProjections] | None = None,
) -> tuple[Tensor, list[AttentionMaps]]:
    """Iterate ``cycles`` memory updates; returns [m_a^T ; m_b^T] and all maps.

    ``q`` is (..., Q) for the facts' own batch rows, or (..., K, Q) to run K
    questions (one per answer candidate) over the same untiled facts; the
    read-out and maps then carry the same K axis.  The fact sets are read
    only to make ``facts_proj`` when it is not given, so a caller that passes
    it can let the levels go first.
    """
    if cycles < 1:
        raise DomainError(f"run_episodes: cycles must be >= 1, got {cycles}")
    if facts_proj is None:
        facts_proj = fact_projections(A, B, p)
    m = init_memory(q, p)
    all_maps = []
    for _ in range(cycles):
        m, maps, _, _ = memory_cycle(A, B, m, q, p, facts_proj=facts_proj)
        all_maps.append(maps)
    return T.concat([m.m_a, m.m_b], axis=-1), all_maps
