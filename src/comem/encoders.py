"""GRU cells, the gate-driven fact encoder, and question/answer encoders.

The question and answer-candidate encoders share a token embedding table
and a two-layer GRU; the final hidden state of the second layer is the
embedding.  The fact encoder replaces the GRU update gate with an external
per-step scalar gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import DimensionError, DomainError, VocabularyError
from .tensor import ParameterStore, Tensor


@dataclass
class GruParams:
    """Update / reset / candidate gate parameters for one GRU cell."""

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    @property
    def hidden_size(self) -> int:
        return self.w_z.data.shape[1]

    @staticmethod
    def create(store: ParameterStore, prefix: str, input_size: int, hidden_size: int) -> "GruParams":
        def mat(name, din):
            return store.add(f"{prefix}.{name}", (din, hidden_size))

        def bias(name):
            return store.add(f"{prefix}.{name}", (hidden_size,), init="zeros")

        return GruParams(
            w_z=mat("w_z", input_size), u_z=mat("u_z", hidden_size), b_z=bias("b_z"),
            w_r=mat("w_r", input_size), u_r=mat("u_r", hidden_size), b_r=bias("b_r"),
            w_h=mat("w_h", input_size), u_h=mat("u_h", hidden_size), b_h=bias("b_h"),
        )


@dataclass
class TokenEmbeddingTable:
    """Vocabulary-indexed embedding rows (default width 300)."""

    table: Tensor

    @property
    def vocab_size(self) -> int:
        return self.table.data.shape[0]

    @property
    def width(self) -> int:
        return self.table.data.shape[1]

    @staticmethod
    def create(store: ParameterStore, name: str, vocab_size: int, width: int = 300) -> "TokenEmbeddingTable":
        return TokenEmbeddingTable(store.add(name, (vocab_size, width)))

    def load_pretrained(self, path, token_to_id: dict[str, int]):
        """Overwrite rows from a text file of lines ``word v1 ... vE``."""
        width = self.width
        loaded = 0
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                parts = line.rstrip("\n").split(" ")
                if len(parts) != width + 1:
                    raise DomainError(f"embedding line for {parts[0]!r} has {len(parts) - 1} values, expected {width}")
                tid = token_to_id.get(parts[0])
                if tid is None:
                    continue
                self.table.data[tid] = np.asarray([float(v) for v in parts[1:]], dtype=self.table.data.dtype)
                loaded += 1
        return loaded


def _candidate_and_update(x: Tensor, h_prev: Tensor, p: GruParams):
    z = T.sigmoid(T.affine(x, p.w_z, p.b_z) + T.matmul(h_prev, p.u_z))
    r = T.sigmoid(T.affine(x, p.w_r, p.b_r) + T.matmul(h_prev, p.u_r))
    h_cand = T.tanh(T.affine(x, p.w_h, p.b_h) + T.matmul(T.mul(r, h_prev), p.u_h))
    return z, h_cand


def gru_step(x: Tensor, h_prev: Tensor, p: GruParams) -> Tensor:
    """One standard GRU step: ``h = z * h_cand + (1 - z) * h_prev``."""
    if x.data.shape[-1] != p.w_z.data.shape[0]:
        raise DimensionError(f"gru_step: input shape {x.shape} vs W {p.w_z.shape}")
    if h_prev.data.shape[-1] != p.hidden_size:
        raise DimensionError(f"gru_step: hidden shape {h_prev.shape} vs H {p.hidden_size}")
    z, h_cand = _candidate_and_update(x, h_prev, p)
    return T.mul(z, h_cand) + T.mul(1.0 - z, h_prev)


def _zeros_like_hidden(facts_data: np.ndarray, hidden: int) -> Tensor:
    lead = facts_data.shape[:-2]
    return Tensor(np.zeros(lead + (hidden,), dtype=facts_data.dtype))


def gru_input_projection(x: Tensor, p: GruParams) -> Tensor:
    """``x @ [w_r | w_h] + [b_r | b_h]``: the fact encoder's input gemm for every step.

    The update gate is external, so ``w_z`` / ``u_z`` are not projected.
    """
    return T.affine(x, T.concat([p.w_r, p.w_h], axis=-1), T.concat([p.b_r, p.b_h], axis=-1))


def attention_gru_encode(facts: Tensor, gates: Tensor, p: GruParams, projected: bool = False) -> Tensor:
    """Encode ``facts[..., L, D]`` with per-step gates replacing the update gate.

    ``h_j = g_j * h_cand_j + (1 - g_j) * h_{j-1}``, ``h_0 = 0``; returns the
    final hidden state (the contextual vector).  With ``projected`` the
    facts are already ``gru_input_projection`` outputs, shaped (..., L, 2H).
    """
    if facts.data.ndim < 2:
        raise DimensionError(f"attention_gru_encode: facts must be (..., L, D), got {facts.shape}")
    L = facts.data.shape[-2]
    if gates.data.shape != facts.data.shape[:-1]:
        raise DimensionError(f"attention_gru_encode: gates shape {gates.shape} vs facts {facts.shape}")
    if np.any(gates.data < 0) or np.any(gates.data > 1):
        raise DomainError("attention_gru_encode: gates must lie in [0, 1]")
    H = p.hidden_size
    if projected and facts.data.shape[-1] != 2 * H:
        raise DimensionError(f"attention_gru_encode: projected facts {facts.shape} need width {2 * H}")
    proj = facts if projected else gru_input_projection(facts, p)
    h = _zeros_like_hidden(facts.data, H)
    batched = facts.data.ndim >= 3
    for j in range(L):
        px = _slice_step(proj, j)
        g = _slice_step_gate(gates, j, batched)
        r = T.sigmoid(T.slice_last(px, 0, H) + T.matmul(h, p.u_r))
        h_cand = T.tanh(T.slice_last(px, H, 2 * H) + T.matmul(T.mul(r, h), p.u_h))
        h = T.mul(g, h_cand) + T.mul(1.0 - g, h)
    return h


def _slice_step(facts: Tensor, j: int) -> Tensor:
    data = facts.data[..., j, :]

    def backward(g):
        if not (facts.requires_grad or facts._parents):
            return
        if facts.grad is None:
            facts.grad = np.zeros_like(facts.data)
        facts.grad[..., j, :] += g

    return T._make(data, (facts,), backward)


def _slice_step_gate(gates: Tensor, j: int, batched: bool) -> Tensor:
    data = gates.data[..., j : j + 1] if batched else gates.data[j]

    def backward(g):
        if not (gates.requires_grad or gates._parents):
            return
        if gates.grad is None:
            gates.grad = np.zeros_like(gates.data)
        if batched:
            gates.grad[..., j : j + 1] += g
        else:
            gates.grad[j] += g

    return T._make(data, (gates,), backward)


def _run_gru_layer(xs: Tensor, p: GruParams, mask: np.ndarray | None) -> tuple[list[Tensor], Tensor]:
    """Run a GRU over ``xs[(B,) T, D]``; keeps hidden frozen where mask is 0.

    Returns (per-step hidden states, final hidden state).  The mask freezes
    padded steps so batched encoding matches per-item encoding exactly.
    """
    steps = xs.data.shape[-2]
    H = p.hidden_size
    proj = T.affine(xs, T.concat([p.w_z, p.w_r, p.w_h], axis=-1),
                    T.concat([p.b_z, p.b_r, p.b_h], axis=-1))
    u_zr = T.concat([p.u_z, p.u_r], axis=-1)
    h = _zeros_like_hidden(xs.data, H)
    outputs = []
    for j in range(steps):
        px = _slice_step(proj, j)
        hu = T.matmul(h, u_zr)
        z = T.sigmoid(T.slice_last(px, 0, H) + T.slice_last(hu, 0, H))
        r = T.sigmoid(T.slice_last(px, H, 2 * H) + T.slice_last(hu, H, 2 * H))
        h_cand = T.tanh(T.slice_last(px, 2 * H, 3 * H) + T.matmul(T.mul(r, h), p.u_h))
        h_new = T.mul(z, h_cand) + T.mul(1.0 - z, h)
        if mask is not None:
            m = mask[..., j : j + 1].astype(xs.data.dtype)
            h = T.mul(Tensor(m), h_new) + T.mul(Tensor(1.0 - m), h)
        else:
            h = h_new
        outputs.append(h)
    return outputs, h


def encode_token_batch(
    ids: np.ndarray,
    mask: np.ndarray,
    table: TokenEmbeddingTable,
    layer1: GruParams,
    layer2: GruParams,
) -> Tensor:
    """Two-layer GRU encoding of padded token ids ``(B, T)`` with 0/1 mask."""
    emb = T.gather_rows(table.table, ids)
    out1, _ = _run_gru_layer(emb, layer1, mask)
    xs2 = T.stack(out1, axis=-2)
    _, h2 = _run_gru_layer(xs2, layer2, mask)
    return h2


def _validate_tokens(tokens: Sequence[int], table: TokenEmbeddingTable):
    if len(tokens) == 0:
        raise DomainError("encode_question: empty token sequence")
    for t in tokens:
        if not 0 <= int(t) < table.vocab_size:
            raise VocabularyError(f"token id {t} outside vocabulary of size {table.vocab_size}")


def encode_question(
    tokens: Sequence[int],
    table: TokenEmbeddingTable,
    layer1: GruParams,
    layer2: GruParams,
) -> Tensor:
    """Embed tokens and run the two-layer GRU; returns the final layer-2 state."""
    _validate_tokens(tokens, table)
    ids = np.asarray(tokens, dtype=np.int64)[None, :]
    mask = np.ones_like(ids, dtype=np.float64)
    h = encode_token_batch(ids, mask, table, layer1, layer2)
    return T.reshape(h, (h.data.shape[-1],))


def encode_answer_candidate(
    tokens: Sequence[int],
    table: TokenEmbeddingTable,
    layer1: GruParams,
    layer2: GruParams,
) -> Tensor:
    """Candidate answers are encoded exactly like questions (shared weights)."""
    return encode_question(tokens, table, layer1, layer2)
