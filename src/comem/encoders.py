"""GRU cells, the gate-driven fact encoder, and question/answer encoders.

The question and answer-candidate encoders share a token embedding table
and a two-layer GRU; the final hidden state of the second layer is the
embedding.  The fact encoder replaces the GRU update gate with an external
per-step scalar gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import DimensionError, DomainError
from .tensor import ParameterStore, Tensor


@dataclass
class GruParams:
    """Reset / candidate parameters of one GRU cell, and its update gate's if it has one.

    The fact encoder's update gate is external (``attention_gru_encode``), so
    its cells are created without ``w_z`` / ``u_z`` / ``b_z``.
    """

    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor
    w_z: Optional[Tensor] = None
    u_z: Optional[Tensor] = None
    b_z: Optional[Tensor] = None

    @property
    def hidden_size(self) -> int:
        return self.u_h.data.shape[1]

    @staticmethod
    def create(store: ParameterStore, prefix: str, input_size: int, hidden_size: int,
               update_gate: bool = True) -> "GruParams":
        def mat(name, din):
            return store.add(f"{prefix}.{name}", (din, hidden_size))

        def bias(name):
            return store.add(f"{prefix}.{name}", (hidden_size,), init="zeros")

        # z is drawn first, so a cell with an update gate keeps the z, r, h parameter order
        z = dict(w_z=mat("w_z", input_size), u_z=mat("u_z", hidden_size), b_z=bias("b_z")) if update_gate else {}
        return GruParams(
            w_r=mat("w_r", input_size), u_r=mat("u_r", hidden_size), b_r=bias("b_r"),
            w_h=mat("w_h", input_size), u_h=mat("u_h", hidden_size), b_h=bias("b_h"), **z,
        )


def gru_input_projection(x: Tensor, p: GruParams) -> Tensor:
    """``x @ [w_r | w_h] + [b_r | b_h]``: the fact encoder's input gemm for every step."""
    return T.affine(x, T.concat([p.w_r, p.w_h], axis=-1), T.concat([p.b_r, p.b_h], axis=-1))


def attention_gru_encode(facts: Tensor, gates: Tensor, p: GruParams, projected: bool = False) -> Tensor:
    """Encode ``facts[..., L, D]`` with per-step gates replacing the update gate.

    ``h_j = g_j * h_cand_j + (1 - g_j) * h_{j-1}``, ``h_0 = 0``; returns the
    final hidden state (the contextual vector).  With ``projected`` the
    facts are already ``gru_input_projection`` outputs, shaped (..., L, 2H).
    """
    if facts.data.ndim < 2:
        raise DimensionError(f"attention_gru_encode: facts must be (..., L, D), got {facts.shape}")
    if gates.data.shape != facts.data.shape[:-1]:
        raise DimensionError(f"attention_gru_encode: gates shape {gates.shape} vs facts {facts.shape}")
    if np.any(gates.data < 0) or np.any(gates.data > 1):
        raise DomainError("attention_gru_encode: gates must lie in [0, 1]")
    H = p.hidden_size
    if projected and facts.data.shape[-1] != 2 * H:
        raise DimensionError(f"attention_gru_encode: projected facts {facts.shape} need width {2 * H}")
    proj = facts if projected else gru_input_projection(facts, p)
    return T.take(T.gru_scan(proj, p.u_r, p.u_h, gate=gates), (..., -1, slice(None)))


def _run_gru_layer(xs: Tensor, p: GruParams, mask: np.ndarray | None) -> Tensor:
    """Every hidden state of a GRU over ``xs[(B,) T, D]``; steps where ``mask`` is 0 keep the state.

    The mask freezes padded steps so batched encoding matches per-item
    encoding exactly.
    """
    proj = T.affine(xs, T.concat([p.w_z, p.w_r, p.w_h], axis=-1),
                    T.concat([p.b_z, p.b_r, p.b_h], axis=-1))
    return T.gru_scan(proj, T.concat([p.u_z, p.u_r], axis=-1), p.u_h, mask=mask)


def encode_token_batch(
    ids: np.ndarray,
    mask: np.ndarray,
    table: Tensor,
    layer1: GruParams,
    layer2: GruParams,
) -> Tensor:
    """Two-layer GRU encoding of padded token ids ``(B, T)`` with 0/1 mask; ``table`` is (V, E)."""
    states = _run_gru_layer(_run_gru_layer(T.take(table, ids), layer1, mask), layer2, mask)
    return T.take(states, (..., -1, slice(None)))
