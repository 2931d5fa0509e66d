"""GRU cells, the gate-driven fact encoder, and question/answer encoders.

The question and answer-candidate encoders share a token embedding table
and a two-layer GRU; the second layer's state at a sequence's last token is
its embedding.  The fact encoder replaces the GRU update gate with an external
per-step scalar gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DomainError
from .tensor import ParameterStore, Tensor


@dataclass
class GruParams:
    """One GRU cell's weights, one parameter per block.

    ``w`` (D, 3H) and ``b`` (3H,) are the input weights and biases
    ``[z | r | h]``, ``u_gates`` (H, 2H) is ``[u_z | u_r]``.  The fact
    encoder's update gate is external (``attention_gru_encode``), so its
    cells hold only the ``[r | h]`` blocks, (D, 2H) and (2H,), and ``u_r``.
    """

    w: Tensor
    b: Tensor
    u_gates: Tensor
    u_h: Tensor

    @staticmethod
    def create(store: ParameterStore, prefix: str, input_size: int, hidden_size: int,
               update_gate: bool = True) -> "GruParams":
        H, gates = hidden_size, 3 if update_gate else 2
        # fan_out=H gives every H-wide gate block its own Glorot bound
        return GruParams(
            w=store.add(f"{prefix}.w", (input_size, gates * H), fan_out=H),
            b=store.add(f"{prefix}.b", (gates * H,)),
            u_gates=store.add(f"{prefix}.u_gates", (H, (gates - 1) * H), fan_out=H),
            u_h=store.add(f"{prefix}.u_h", (H, H)),
        )


def attention_gru_encode(proj: Tensor, gates: Tensor, p: GruParams) -> Tensor:
    """Encode projected facts with per-step gates replacing the update gate.

    ``proj`` is (..., L, 2H), the facts through the cell's input weights,
    ``facts @ p.w + p.b``.  ``h_j = g_j * h_cand_j + (1 - g_j) * h_{j-1}``,
    ``h_0 = 0``; returns the final hidden state (the contextual vector).
    ``T.gru_scan`` checks the shapes.
    """
    if np.any(gates.data < 0) or np.any(gates.data > 1):
        raise DomainError("attention_gru_encode: gates must lie in [0, 1]")
    return T.take(T.gru_scan(proj, p.u_gates, p.u_h, gate=gates), (..., -1, slice(None)))


def _run_gru_layer(xs: Tensor, p: GruParams) -> Tensor:
    """Every hidden state of a GRU over ``xs[(B,) T, D]``."""
    return T.gru_scan(T.matmul(xs, p.w, p.b), p.u_gates, p.u_h)


def encode_token_batch(
    ids: np.ndarray,
    lengths: np.ndarray,
    table: Tensor,
    layer1: GruParams,
    layer2: GruParams,
) -> Tensor:
    """Two-layer GRU codes (B, H) of right-padded token ids ``(B, T)``; ``table`` is (V, E).

    Each row's code is its layer-2 state at its last real token,
    ``lengths - 1``: a GRU runs forward, so no state up to there sees the
    padding, and the padded steps get no gradient.
    """
    states = _run_gru_layer(_run_gru_layer(T.take(table, ids), layer1), layer2)
    return T.take(states, (np.arange(len(lengths)), lengths - 1))
