"""GRU cell, gate-driven fact encoder, and question/answer encoders."""

import numpy as np
import pytest

import comem.tensor as T
from comem.encoders import (
    GruParams,
    _run_gru_layer,
    attention_gru_encode,
    encode_token_batch,
)
from comem.errors import DimensionError, DomainError
from comem.model import pad_token_batch
from comem.tensor import ParameterStore, Tensor, grad_check


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _gru(seed, din, hidden, dtype=np.float64):
    store = ParameterStore(seed=seed, dtype=dtype)
    return GruParams.create(store, "g", din, hidden), store


def _scalar_gru(w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h):
    p, _ = _gru(0, 1, 1)
    for name, v in [("w_z", w_z), ("u_z", u_z), ("b_z", b_z), ("w_r", w_r),
                    ("u_r", u_r), ("b_r", b_r), ("w_h", w_h), ("u_h", u_h), ("b_h", b_h)]:
        getattr(p, name).data[...] = v
    return p


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _hand_gru(x, h, p):
    z = _sig(x * p.w_z.data[0, 0] + h * p.u_z.data[0, 0] + p.b_z.data[0])
    r = _sig(x * p.w_r.data[0, 0] + h * p.u_r.data[0, 0] + p.b_r.data[0])
    cand = np.tanh(x * p.w_h.data[0, 0] + r * h * p.u_h.data[0, 0] + p.b_h.data[0])
    return z * cand + (1 - z) * h


def _last_state(xs, p, mask=None):
    """Final state of one GRU layer over the rows of ``xs`` (one input per step)."""
    return T.take(_run_gru_layer(Tensor(np.asarray(xs, dtype=np.float64)), p, mask), (..., -1, slice(None)))


def _cols(start, stop):
    return (..., slice(start, stop))


def _reference_scan(proj, u_gates, u_h, gate=None, mask=None):
    """The recurrence ``T.gru_scan`` fuses, one ``T`` op at a time (float64 oracle)."""
    H, G = u_h.data.shape[0], u_gates.data.shape[1]
    h = Tensor(np.zeros(proj.data.shape[:-2] + (H,)))
    states = []
    for j in range(proj.data.shape[-2]):
        px = T.take(proj, (..., j, slice(None)))
        hu = T.matmul(h, u_gates)
        if gate is None:
            z = T.sigmoid(T.take(px, _cols(0, H)) + T.take(hu, _cols(0, H)))
            r = T.sigmoid(T.take(px, _cols(H, G)) + T.take(hu, _cols(H, G)))
        else:
            z = T.take(gate, _cols(j, j + 1))
            r = T.sigmoid(T.take(px, _cols(0, H)) + hu)
        h_cand = T.tanh(T.take(px, _cols(G, G + H)) + T.matmul(T.mul(r, h), u_h))
        h_new = T.mul(z, h_cand) + T.mul(1.0 - z, h)
        if mask is not None:
            m = Tensor(mask[..., j : j + 1])
            h_new = T.mul(m, h_new) + T.mul(1.0 - m, h)
        h = h_new
        states.append(h)
    return T.stack(states, axis=-2)


# -- gru_scan ------------------------------------------------------------------


def test_gru_zero_params_halves_hidden():
    p = _scalar_gru(0, 0, 0, 0, 0, 0, 0, 0, 0)
    # step 1 sets h = 0.8 through a saturated update gate; step 2 projects x = 2 through zero weights
    proj = Tensor([[40.0, 0.0, np.arctanh(0.8)], [0.0, 0.0, 0.0]])
    h = T.gru_scan(proj, T.concat([p.u_z, p.u_r], axis=-1), p.u_h)
    assert np.allclose(h.data[:, 0], [0.8, 0.4])  # z=0.5, candidate=0 -> 0.5*h_prev
    h0 = _last_state([[2.0]], p)
    assert np.allclose(h0.data, [0.0])


def test_gru_matches_scalar_recurrence():
    p = _scalar_gru(0.3, -0.2, 0.1, 0.5, 0.4, -0.1, 0.7, 0.2, 0.05)
    h = 0.0
    for x in [1.0, -0.5, 2.0]:
        h = _hand_gru(x, h, p)
    ht = _last_state([[1.0], [-0.5], [2.0]], p)
    assert np.allclose(ht.data, [h], atol=1e-12)


def test_gru_output_width_is_hidden_size():
    p, _ = _gru(1, 16, 512)
    h = _last_state(np.zeros((1, 16)), p)
    assert h.data.shape == (512,)


def test_gru_shape_errors():
    p, _ = _gru(0, 3, 4)
    u_gates = T.concat([p.u_z, p.u_r], axis=-1)
    with pytest.raises(DimensionError):
        _last_state(np.zeros((1, 5)), p)
    with pytest.raises(DimensionError):  # projections of a 2-wide GRU against 4-wide weights
        T.gru_scan(Tensor(np.zeros((1, 6))), u_gates, p.u_h)
    with pytest.raises(DimensionError):  # an external gate takes [r | h] projections
        T.gru_scan(Tensor(np.zeros((2, 12))), u_gates, p.u_h, gate=Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        T.gru_scan(Tensor(np.zeros((2, 8))), p.u_r, p.u_h, gate=Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        T.gru_scan(Tensor(np.zeros((2, 12))), u_gates, p.u_h, mask=np.ones(3))


@pytest.mark.parametrize("external_gate", [False, True])
@pytest.mark.parametrize("lead", [(), (2, 3)])
@pytest.mark.parametrize("masked", [False, True])
def test_gru_scan_matches_per_step_reference(external_gate, lead, masked):
    rng = _rng(20)
    H, L = 3, 5
    G = H if external_gate else 2 * H
    proj = Tensor(rng.standard_normal(lead + (L, G + H)), requires_grad=True)
    u_gates = Tensor(rng.standard_normal((H, G)), requires_grad=True)
    u_h = Tensor(rng.standard_normal((H, H)), requires_grad=True)
    gate = Tensor(rng.uniform(0.0, 1.0, lead + (L,)), requires_grad=True) if external_gate else None
    mask = rng.integers(0, 2, lead + (L,)).astype(np.float64) if masked else None
    weights = Tensor(rng.standard_normal(lead + (L, H)))  # every step's state reaches the loss
    tensors = [proj, u_gates, u_h] + ([gate] if external_gate else [])

    def run(scan):
        for t in tensors:
            t.grad = None
        out = scan(proj, u_gates, u_h, gate=gate, mask=mask)
        T.tsum(T.mul(out, weights)).backward()
        return out.data, [t.grad for t in tensors]

    got, got_grads = run(T.gru_scan)
    want, want_grads = run(_reference_scan)
    assert got.shape == lead + (L, H)
    assert np.abs(got - want).max() <= 1e-10
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-10


# -- attention_gru_encode ------------------------------------------------------


def test_zero_gates_give_zero_vector():
    rng = _rng(2)
    p, _ = _gru(2, 3, 4)
    facts = Tensor(rng.standard_normal((6, 3)))
    out = attention_gru_encode(facts, Tensor(np.zeros(6)), p)
    assert np.allclose(out.data, 0.0)


def test_one_hot_gate_returns_that_candidate():
    rng = _rng(3)
    p, _ = _gru(3, 3, 4)
    facts = rng.standard_normal((5, 3))
    j = 2
    gates = np.zeros(5)
    gates[j] = 1.0
    out = attention_gru_encode(Tensor(facts), Tensor(gates), p)
    # h was 0 until step j, so the output is the candidate state at step j
    r = _sig(facts[j] @ p.w_r.data + p.b_r.data)  # u_r term vanishes at h=0
    cand = np.tanh(facts[j] @ p.w_h.data + p.b_h.data)
    assert np.allclose(out.data, cand, atol=1e-10)
    assert r.shape == (4,)


def test_attention_encode_matches_scalar_recurrence():
    p = _scalar_gru(0.3, -0.2, 0.1, 0.5, 0.4, -0.1, 0.7, 0.2, 0.05)
    facts = np.array([[1.0], [-2.0]])
    gates = np.array([0.5, 0.5])
    h = 0.0
    for x, g in zip(facts[:, 0], gates):
        r = _sig(x * p.w_r.data[0, 0] + h * p.u_r.data[0, 0] + p.b_r.data[0])
        cand = np.tanh(x * p.w_h.data[0, 0] + r * h * p.u_h.data[0, 0] + p.b_h.data[0])
        h = g * cand + (1 - g) * h
    out = attention_gru_encode(Tensor(facts), Tensor(gates), p)
    assert np.allclose(out.data, [h], atol=1e-12)


def test_attention_encode_ignores_trailing_zero_gate_facts():
    rng = _rng(4)
    p, _ = _gru(4, 3, 4)
    facts = rng.standard_normal((5, 3))
    gates = np.array([0.7, 0.3, 0.0, 0.0, 0.0])
    out1 = attention_gru_encode(Tensor(facts), Tensor(gates), p).data
    facts2 = facts.copy()
    facts2[2:] = rng.standard_normal((3, 3))  # only zero-gated suffix changes
    out2 = attention_gru_encode(Tensor(facts2), Tensor(gates), p).data
    assert np.allclose(out1, out2, atol=1e-12)


def test_attention_encode_rejects_out_of_range_gates():
    p, _ = _gru(0, 2, 2)
    facts = Tensor(np.zeros((3, 2)))
    with pytest.raises(DomainError):
        attention_gru_encode(facts, Tensor([0.5, 1.5, 0.0]), p)
    with pytest.raises(DomainError):
        attention_gru_encode(facts, Tensor([-0.1, 0.5, 0.0]), p)


def test_attention_encode_batched_equals_per_item():
    rng = _rng(5)
    p, _ = _gru(5, 3, 4)
    facts = rng.standard_normal((2, 6, 3))
    gates = rng.uniform(0, 1, size=(2, 6))
    batched = attention_gru_encode(Tensor(facts), Tensor(gates), p).data
    for b in range(2):
        single = attention_gru_encode(Tensor(facts[b]), Tensor(gates[b]), p).data
        assert np.allclose(batched[b], single, atol=1e-10)


def test_attention_encode_gradients():
    rng = _rng(6)
    p, store = _gru(6, 2, 3)
    facts = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    gates = Tensor(rng.uniform(0.1, 0.9, size=4), requires_grad=True)

    def f():
        return T.tsum(T.square(attention_gru_encode(facts, gates, p)))

    err = grad_check(f, store.tensors() + [facts, gates], eps=1e-5, max_coords=4)
    assert err <= 1e-4


# -- question / answer encoders --------------------------------------------------


def _encoder(seed, vocab=9, embed=4, hidden=5, dtype=np.float64):
    store = ParameterStore(seed=seed, dtype=dtype)
    table = store.add("emb", (vocab, embed))
    l1 = GruParams.create(store, "l1", embed, hidden)
    l2 = GruParams.create(store, "l2", hidden, hidden)
    return table, l1, l2, store


def _encode_question(tokens, table, l1, l2):
    """One question's final layer-2 state, (H,), through the batched encoder."""
    ids, mask = pad_token_batch([tokens])
    h = encode_token_batch(ids, mask, table, l1, l2)
    return T.reshape(h, (h.data.shape[-1],))


def test_question_zero_params_is_zero():
    table, l1, l2, store = _encoder(0)
    for name, t in store.items():
        if not name.startswith("emb"):
            t.data[...] = 0.0
    q = _encode_question([3], table, l1, l2)
    assert np.allclose(q.data, 0.0)


def test_question_output_width():
    store = ParameterStore(seed=1)
    table = store.add("emb", (20, 300))
    l1 = GruParams.create(store, "l1", 300, 512)
    l2 = GruParams.create(store, "l2", 512, 512)
    q = _encode_question([1, 2, 3], table, l1, l2)
    assert q.data.shape == (512,)


def test_question_matches_composed_gru_steps():
    table, l1, l2, _ = _encoder(7)
    tokens = [2, 5]
    outs = Tensor(table.data[tokens])
    for layer in (l1, l2):
        proj = T.affine(outs, T.concat([layer.w_z, layer.w_r, layer.w_h], axis=-1),
                        T.concat([layer.b_z, layer.b_r, layer.b_h], axis=-1))
        outs = _reference_scan(proj, T.concat([layer.u_z, layer.u_r], axis=-1), layer.u_h)
    q = _encode_question(tokens, table, l1, l2)
    assert np.allclose(q.data, outs.data[-1], atol=1e-10)


def test_question_depends_on_token_order():
    table, l1, l2, _ = _encoder(8)
    q1 = _encode_question([1, 2], table, l1, l2).data
    q2 = _encode_question([2, 1], table, l1, l2).data
    assert np.abs(q1 - q2).max() > 1e-9


def test_question_validation_errors():
    table, l1, l2, _ = _encoder(9)
    with pytest.raises(DomainError):
        _encode_question([], table, l1, l2)


def test_batched_encoding_matches_per_item_with_padding():
    table, l1, l2, _ = _encoder(11)
    seqs = [[1, 2, 3], [4], [5, 6]]
    ids, mask = pad_token_batch(seqs)
    batched = encode_token_batch(ids, mask, table, l1, l2).data
    for i, s in enumerate(seqs):
        single = _encode_question(s, table, l1, l2).data
        assert np.allclose(batched[i], single, atol=1e-10)


def test_encoder_gradients():
    table, l1, l2, store = _encoder(12, vocab=6, embed=3, hidden=3)

    def f():
        return T.tsum(T.square(_encode_question([1, 4, 2], table, l1, l2)))

    assert grad_check(f, store.tensors(), eps=1e-5, max_coords=3) <= 1e-4

