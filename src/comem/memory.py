"""Dual-memory episodic loop over two fact modalities.

Each cycle: cross-modal gate generation, per-step soft fusion of pyramid
levels, gate-driven GRU encoding of the fused fact sequence, and a ReLU
affine update of each modality's memory from [memory, question, context].
The facts stay untiled, (..., N, L, ·); when several questions (one per
answer candidate) run over the same facts, only the question and the
memories carry that candidate axis, (..., K, ·).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import GruParams, attention_gru_encode, gru_input_projection
from .errors import DimensionError, DomainError
from .facts import ContextualFactSet
from .tensor import ParameterStore, Tensor


@dataclass
class MemoryState:
    m_a: Tensor
    m_b: Tensor
    cycle: int = 0


@dataclass
class AttentionMaps:
    """Raw gates and both softmax normalizations for one cycle.

    ``ga``/``gb``: (..., N, L) raw gates.  ``sa_levels``/``sb_levels``:
    softmax over the level axis (columns sum to 1).  ``sa_steps``/
    ``sb_steps``: softmax over the step axis of the level-mean gate.
    """

    ga: Tensor
    gb: Tensor
    sa_levels: Tensor
    sb_levels: Tensor
    sa_steps: Tensor
    sb_steps: Tensor
    cycle: int = 0

    def export(self, index: tuple = ()) -> dict:
        """Both normalizations as nested lists; ``index`` picks one row, e.g. ``(0, k)``."""
        def tolist(t: Tensor):
            return np.asarray(t.data[index], dtype=np.float64).tolist()

        return {
            "cycle": self.cycle,
            "appearance": {"levels": tolist(self.sa_levels), "steps": tolist(self.sa_steps)},
            "motion": {"levels": tolist(self.sb_levels), "steps": tolist(self.sb_steps)},
        }


@dataclass
class CoMemoryParams:
    """Attention weights, memory projections/updates, and fact-encoding GRUs."""

    w_a1: Tensor
    w_a2: Tensor
    w_a3: Tensor
    w_a4: Tensor
    w_b1: Tensor
    w_b2: Tensor
    w_b3: Tensor
    w_b4: Tensor
    proj_a: Tensor
    proj_b: Tensor
    upd_a_w: Tensor
    upd_a_b: Tensor
    upd_b_w: Tensor
    upd_b_b: Tensor
    gru_a: GruParams
    gru_b: GruParams

    @property
    def memory_dim(self) -> int:
        return self.proj_a.data.shape[1]

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
        mq = memory_dim + question_dim

        def attn(mod):
            return (
                store.add(f"{prefix}.w_{mod}1", (mq, fact_dim)),
                store.add(f"{prefix}.w_{mod}2", (fact_dim, gate_dim)),
                store.add(f"{prefix}.w_{mod}3", (mq, gate_dim)),
                store.add(f"{prefix}.w_{mod}4", (gate_dim, 1)),
            )

        w_a1, w_a2, w_a3, w_a4 = attn("a")
        w_b1, w_b2, w_b3, w_b4 = attn("b")
        upd_in = memory_dim + question_dim + context_dim
        return CoMemoryParams(
            w_a1=w_a1, w_a2=w_a2, w_a3=w_a3, w_a4=w_a4,
            w_b1=w_b1, w_b2=w_b2, w_b3=w_b3, w_b4=w_b4,
            proj_a=store.add(f"{prefix}.proj_a", (question_dim, memory_dim)),
            proj_b=store.add(f"{prefix}.proj_b", (question_dim, memory_dim)),
            upd_a_w=store.add(f"{prefix}.upd_a_w", (upd_in, memory_dim)),
            upd_a_b=store.add(f"{prefix}.upd_a_b", (memory_dim,), init="zeros"),
            upd_b_w=store.add(f"{prefix}.upd_b_w", (upd_in, memory_dim)),
            upd_b_b=store.add(f"{prefix}.upd_b_b", (memory_dim,), init="zeros"),
            gru_a=GruParams.create(store, f"{prefix}.gru_a", fact_dim, context_dim, update_gate=False),
            gru_b=GruParams.create(store, f"{prefix}.gru_b", fact_dim, context_dim, update_gate=False),
        )


def init_memory(q: Tensor, p: CoMemoryParams) -> MemoryState:
    """Initial memories: separate learned ReLU projections of the question."""
    return MemoryState(
        m_a=T.relu(T.matmul(q, p.proj_a)),
        m_b=T.relu(T.matmul(q, p.proj_b)),
        cycle=0,
    )


@dataclass
class FactProjections:
    """Memory-independent linear maps of both fact sets, computed once per forward.

    ``gate_*``: (..., N, L, Z), the facts times the second attention weight.
    ``gru_*``: (..., N, L, 2H), every level through its fact GRU's input
    weights (``gru_input_projection``).
    """

    gate_a: Tensor
    gate_b: Tensor
    gru_a: Tensor
    gru_b: Tensor


def fact_projections(A: ContextualFactSet, B: ContextualFactSet, p: CoMemoryParams) -> FactProjections:
    """Project the untiled facts once; every cycle and every candidate reuses them.

    ``tanh(W2 (f + inner))`` distributes to ``tanh(W2 f + W2 inner)``, so
    ``W2 f`` is shared.  The fact GRU's input map is affine and each step's
    level weights sum to 1, so ``proj(sum_i s_i f_i) = sum_i s_i proj(f_i)``:
    the level ensemble can mix projected levels instead of raw facts.
    """
    fa, fb = A.stacked(), B.stacked()
    return FactProjections(
        gate_a=T.matmul(fa, p.w_a2), gate_b=T.matmul(fb, p.w_b2),
        gru_a=gru_input_projection(fa, p.gru_a), gru_b=gru_input_projection(fb, p.gru_b),
    )


def _with_candidate_axis(facts: Tensor, q: Tensor) -> Tensor:
    """View (..., N, L, X) facts as (..., 1, N, L, X) when ``q`` carries a candidate axis.

    ``q`` and the memories are (..., Q) or (..., K, Q): the candidate axis
    rides only on them, and the untiled facts broadcast against it.
    """
    extra = q.data.ndim - (facts.data.ndim - 2)
    if extra == 0:
        return facts
    if extra != 1:
        raise DimensionError(f"question {q.shape} does not match facts {facts.shape}")
    shape = facts.data.shape
    return T.reshape(facts, shape[:-3] + (1,) + shape[-3:])


def _gates_one_modality(gate_proj: Tensor, m_inner: Tensor, m_outer: Tensor, q: Tensor, w1, w2, w3, w4) -> Tensor:
    """Raw gates ``tanh(W2 f + W2 W1 [m; q] + W3 [m_other; q]) . w4`` for all levels/steps of one modality.

    ``gate_proj``: (..., [1,] N, L, Z), the untiled facts already multiplied
    by ``w2``.  The inner term uses the modality's own memory, the outer term
    the other modality's memory; both are (..., Z) vectors added inside the
    ``tanh``, so the other memory moves the level and step softmaxes.
    Returns (..., [K,] N, L).
    """
    inner = T.matmul(T.matmul(T.concat([m_inner, q], axis=-1), w1), w2)  # (..., Z)
    inner = inner + T.matmul(T.concat([m_outer, q], axis=-1), w3)
    inner = T.reshape(inner, inner.data.shape[:-1] + (1, 1, inner.data.shape[-1]))
    g = T.matmul(T.tanh(gate_proj + inner), w4)
    return T.reshape(g, g.data.shape[:-1])


def co_attention(
    A: ContextualFactSet,
    B: ContextualFactSet,
    m: MemoryState,
    q: Tensor,
    p: CoMemoryParams,
    facts_proj: FactProjections | None = None,
) -> AttentionMaps:
    """Cross-modal gates plus the level-axis and step-axis softmaxes.

    ``q`` and the memories may carry a candidate axis (..., K, ·) that the
    facts lack; the maps then have shape (..., K, N, L).
    """
    if A.num_levels != B.num_levels or A.length != B.length:
        raise DimensionError(
            f"co_attention: fact sets disagree: {A.num_levels}x{A.length} vs {B.num_levels}x{B.length}"
        )
    if facts_proj is None:
        facts_proj = fact_projections(A, B, p)
    fa_p = _with_candidate_axis(facts_proj.gate_a, q)
    fb_p = _with_candidate_axis(facts_proj.gate_b, q)
    ga = _gates_one_modality(fa_p, m.m_a, m.m_b, q, p.w_a1, p.w_a2, p.w_a3, p.w_a4)
    gb = _gates_one_modality(fb_p, m.m_b, m.m_a, q, p.w_b1, p.w_b2, p.w_b3, p.w_b4)
    sa_levels = T.softmax(ga, axis=-2)
    sb_levels = T.softmax(gb, axis=-2)
    sa_steps = T.softmax(T.tmean(ga, axis=-2), axis=-1)
    sb_steps = T.softmax(T.tmean(gb, axis=-2), axis=-1)
    return AttentionMaps(ga=ga, gb=gb, sa_levels=sa_levels, sb_levels=sb_levels,
                         sa_steps=sa_steps, sb_steps=sb_steps, cycle=m.cycle + 1)


def dynamic_fact_ensemble(F: ContextualFactSet | Tensor, s_levels: Tensor) -> Tensor:
    """Per-step weighted average of levels: ``f_j = sum_i s[i, j] f_j^i``.

    ``F`` is a fact set or any per-level tensor (..., N, L, D) shared by all
    candidates, such as ``FactProjections.gru_a``.  ``s_levels`` is
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


def memory_cycle(
    A: ContextualFactSet,
    B: ContextualFactSet,
    m: MemoryState,
    q: Tensor,
    p: CoMemoryParams,
    facts_proj: FactProjections | None = None,
) -> tuple[MemoryState, AttentionMaps, Tensor, Tensor]:
    """One attention / ensemble / encode / update cycle for both modalities.

    The ensemble mixes the GRU-projected levels, so the fact GRU runs on
    (..., [K,] L, 2H) inputs without an input gemm of its own.
    """
    if facts_proj is None:
        facts_proj = fact_projections(A, B, p)
    maps = co_attention(A, B, m, q, p, facts_proj=facts_proj)
    ens_a = dynamic_fact_ensemble(facts_proj.gru_a, maps.sa_levels)
    ens_b = dynamic_fact_ensemble(facts_proj.gru_b, maps.sb_levels)
    c_a = attention_gru_encode(ens_a, maps.sa_steps, p.gru_a, projected=True)
    c_b = attention_gru_encode(ens_b, maps.sb_steps, p.gru_b, projected=True)
    m_a = T.relu(T.affine(T.concat([m.m_a, q, c_a], axis=-1), p.upd_a_w, p.upd_a_b))
    m_b = T.relu(T.affine(T.concat([m.m_b, q, c_b], axis=-1), p.upd_b_w, p.upd_b_b))
    return MemoryState(m_a=m_a, m_b=m_b, cycle=m.cycle + 1), maps, c_a, c_b


def run_episodes(
    A: ContextualFactSet,
    B: ContextualFactSet,
    q: Tensor,
    p: CoMemoryParams,
    cycles: int = 2,
    facts_proj: FactProjections | None = None,
) -> tuple[Tensor, list[AttentionMaps]]:
    """Iterate ``cycles`` memory updates; returns [m_a^T ; m_b^T] and all maps.

    ``q`` is (..., Q) for the facts' own batch rows, or (..., K, Q) to run K
    questions (one per answer candidate) over the same untiled facts; the
    read-out and maps then carry the same K axis.
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
