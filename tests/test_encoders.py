"""GRU cell, gate-driven fact encoder, and question/answer encoders."""

import numpy as np
import pytest

import comem.tensor as T
from comem.data import pad_token_batch
from comem.encoders import (
    GruParams,
    _run_gru_layer,
    attention_gru_encode,
    encode_token_batch,
)
from comem.errors import DimensionError, DomainError
from comem.tensor import ParameterStore, Tensor, grad_check
from oracle_ops import mul, sigmoid


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _gru(seed, din, hidden, dtype=np.float64, update_gate=True):
    store = ParameterStore(seed=seed, dtype=dtype)
    return GruParams.create(store, "g", din, hidden, update_gate=update_gate), store


def _block(p, gate):
    """Gate ``gate``'s (w, u, b), read by column from ``[z | r | h]`` (or a fact cell's ``[r | h]``) blocks."""
    H = p.u_h.data.shape[0]
    i = ("zrh" if p.w.data.shape[1] == 3 * H else "rh").index(gate)
    cols = slice(i * H, (i + 1) * H)
    return p.w.data[:, cols], p.u_h.data if gate == "h" else p.u_gates.data[:, cols], p.b.data[cols]


def _scalar_gru(w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h):
    p, _ = _gru(0, 1, 1)
    p.w.data[0], p.b.data[...], p.u_gates.data[0], p.u_h.data[0] = [w_z, w_r, w_h], [b_z, b_r, b_h], [u_z, u_r], u_h
    return p


def _scalar_fact_gru(w_r, u_r, b_r, w_h, u_h, b_h):
    p, _ = _gru(0, 1, 1, update_gate=False)
    p.w.data[0], p.b.data[...], p.u_gates.data[0], p.u_h.data[0] = [w_r, w_h], [b_r, b_h], u_r, u_h
    return p


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _hand_gru(x, h, p):
    (w_z, u_z, b_z), (w_r, u_r, b_r), (w_h, u_h, b_h) = (_block(p, gate) for gate in "zrh")
    z = _sig(x * w_z[0, 0] + h * u_z[0, 0] + b_z[0])
    r = _sig(x * w_r[0, 0] + h * u_r[0, 0] + b_r[0])
    cand = np.tanh(x * w_h[0, 0] + r * h * u_h[0, 0] + b_h[0])
    return z * cand + (1 - z) * h


def _fact_encode(facts, gates, p):
    """``attention_gru_encode`` of raw facts, through the cell's input weights."""
    return attention_gru_encode(T.matmul(facts, p.w, p.b), gates, p)


def _last_state(xs, p):
    """Final state of one GRU layer over the rows of ``xs`` (one input per step)."""
    return T.take(_run_gru_layer(Tensor(np.asarray(xs, dtype=np.float64)), p), (..., -1, slice(None)))


def _cols(start, stop):
    return (..., slice(start, stop))


def _reference_scan(proj, u_gates, u_h, gate=None):
    """The recurrence ``T.gru_scan`` fuses, one ``T`` op at a time (float64 oracle)."""
    H, G = u_h.data.shape[0], u_gates.data.shape[1]
    h = Tensor(np.zeros(proj.data.shape[:-2] + (H,)))
    states = []
    for j in range(proj.data.shape[-2]):
        px = T.take(proj, (..., j, slice(None)))
        hu = T.matmul(h, u_gates)
        if gate is None:
            z = sigmoid(T.take(px, _cols(0, H)) + T.take(hu, _cols(0, H)))
            r = sigmoid(T.take(px, _cols(H, G)) + T.take(hu, _cols(H, G)))
        else:
            z = T.take(gate, _cols(j, j + 1))
            r = sigmoid(T.take(px, _cols(0, H)) + hu)
        h_cand = T.tanh(T.take(px, _cols(G, G + H)) + T.matmul(mul(r, h), u_h))
        h = mul(z, h_cand) + mul(-z + 1.0, h)
        states.append(h)
    return T.stack(states, axis=-2)


# -- gru_scan ------------------------------------------------------------------


def test_gru_zero_params_halves_hidden():
    p = _scalar_gru(0, 0, 0, 0, 0, 0, 0, 0, 0)
    # step 1 sets h = 0.8 through a saturated update gate; step 2 projects x = 2 through zero weights
    proj = Tensor([[40.0, 0.0, np.arctanh(0.8)], [0.0, 0.0, 0.0]])
    h = T.gru_scan(proj, p.u_gates, p.u_h)
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
    u_gates, u_r = p.u_gates, Tensor(_block(p, "r")[1])
    with pytest.raises(DimensionError):
        _last_state(np.zeros((1, 5)), p)
    with pytest.raises(DimensionError):  # projections of a 2-wide GRU against 4-wide weights
        T.gru_scan(Tensor(np.zeros((1, 6))), u_gates, p.u_h)
    with pytest.raises(DimensionError):  # an external gate takes [r | h] projections
        T.gru_scan(Tensor(np.zeros((2, 12))), u_gates, p.u_h, gate=Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        T.gru_scan(Tensor(np.zeros((2, 8))), u_r, p.u_h, gate=Tensor(np.zeros(3)))


@pytest.mark.parametrize("external_gate", [False, True])
@pytest.mark.parametrize("lead", [(), (2, 3)])
@pytest.mark.parametrize("ragged", [False, True])
def test_gru_scan_matches_per_step_reference(external_gate, lead, ragged):
    """Unless ``ragged``, every step's state reaches the loss; if ``ragged``, each row's first 1..L do.

    A ragged read is how ``encode_token_batch`` reads its codes: the steps
    past it must get exactly zero gradient.
    """
    rng = _rng(20)
    H, L = 3, 5
    G = H if external_gate else 2 * H
    proj = Tensor(rng.standard_normal(lead + (L, G + H)), requires_grad=True)
    u_gates = Tensor(rng.standard_normal((H, G)), requires_grad=True)
    u_h = Tensor(rng.standard_normal((H, H)), requires_grad=True)
    gate = Tensor(rng.uniform(0.0, 1.0, lead + (L,)), requires_grad=True) if external_gate else None
    weights = rng.standard_normal(lead + (L, H))
    past = np.arange(L) >= np.asarray(rng.integers(1, L + 1, lead))[..., None] if ragged \
        else np.zeros(lead + (L,), dtype=bool)
    weights[past] = 0.0
    weights = Tensor(weights)
    tensors = [proj, u_gates, u_h] + ([gate] if external_gate else [])

    def run(scan):
        for t in tensors:
            t.grad = None
        out = scan(proj, u_gates, u_h, gate=gate)
        T.tsum(mul(out, weights)).backward()
        return out.data, [t.grad for t in tensors]

    got, got_grads = run(T.gru_scan)
    want, want_grads = run(_reference_scan)
    assert got.shape == lead + (L, H)
    assert np.abs(got - want).max() <= 1e-10
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max() <= 1e-10
    assert not got_grads[0][past].any()
    if external_gate:
        assert not got_grads[3][past].any()


# -- attention_gru_encode ------------------------------------------------------


def test_zero_gates_give_zero_vector():
    rng = _rng(2)
    p, _ = _gru(2, 3, 4, update_gate=False)
    facts = Tensor(rng.standard_normal((6, 3)))
    out = _fact_encode(facts, Tensor(np.zeros(6)), p)
    assert np.allclose(out.data, 0.0)


def test_one_hot_gate_returns_that_candidate():
    rng = _rng(3)
    p, _ = _gru(3, 3, 4, update_gate=False)
    facts = rng.standard_normal((5, 3))
    j = 2
    gates = np.zeros(5)
    gates[j] = 1.0
    out = _fact_encode(Tensor(facts), Tensor(gates), p)
    # h was 0 until step j, so the output is the candidate state at step j
    (w_r, _, b_r), (w_h, _, b_h) = _block(p, "r"), _block(p, "h")
    r = _sig(facts[j] @ w_r + b_r)  # u_r term vanishes at h=0
    cand = np.tanh(facts[j] @ w_h + b_h)
    assert np.allclose(out.data, cand, atol=1e-10)
    assert r.shape == (4,)


def test_attention_encode_matches_scalar_recurrence():
    p = _scalar_fact_gru(0.5, 0.4, -0.1, 0.7, 0.2, 0.05)
    (w_r, u_r, b_r), (w_h, u_h, b_h) = _block(p, "r"), _block(p, "h")
    facts = np.array([[1.0], [-2.0]])
    gates = np.array([0.5, 0.5])
    h = 0.0
    for x, g in zip(facts[:, 0], gates):
        r = _sig(x * w_r[0, 0] + h * u_r[0, 0] + b_r[0])
        cand = np.tanh(x * w_h[0, 0] + r * h * u_h[0, 0] + b_h[0])
        h = g * cand + (1 - g) * h
    out = _fact_encode(Tensor(facts), Tensor(gates), p)
    assert np.allclose(out.data, [h], atol=1e-12)


def test_attention_encode_ignores_trailing_zero_gate_facts():
    rng = _rng(4)
    p, _ = _gru(4, 3, 4, update_gate=False)
    facts = rng.standard_normal((5, 3))
    gates = np.array([0.7, 0.3, 0.0, 0.0, 0.0])
    out1 = _fact_encode(Tensor(facts), Tensor(gates), p).data
    facts2 = facts.copy()
    facts2[2:] = rng.standard_normal((3, 3))  # only zero-gated suffix changes
    out2 = _fact_encode(Tensor(facts2), Tensor(gates), p).data
    assert np.allclose(out1, out2, atol=1e-12)


def test_attention_encode_rejects_out_of_range_gates():
    p, _ = _gru(0, 2, 2, update_gate=False)
    facts = Tensor(np.zeros((3, 2)))
    with pytest.raises(DomainError):
        _fact_encode(facts, Tensor([0.5, 1.5, 0.0]), p)
    with pytest.raises(DomainError):
        _fact_encode(facts, Tensor([-0.1, 0.5, 0.0]), p)


def test_attention_encode_batched_equals_per_item():
    rng = _rng(5)
    p, _ = _gru(5, 3, 4, update_gate=False)
    facts = rng.standard_normal((2, 6, 3))
    gates = rng.uniform(0, 1, size=(2, 6))
    batched = _fact_encode(Tensor(facts), Tensor(gates), p).data
    for b in range(2):
        single = _fact_encode(Tensor(facts[b]), Tensor(gates[b]), p).data
        assert np.allclose(batched[b], single, atol=1e-10)


def test_attention_encode_gradients():
    rng = _rng(6)
    p, store = _gru(6, 2, 3, update_gate=False)
    facts = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    gates = Tensor(rng.uniform(0.1, 0.9, size=4), requires_grad=True)

    def f():
        return T.tsum(T.square(_fact_encode(facts, gates, p)))

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
    ids, lengths = pad_token_batch([tokens])
    h = encode_token_batch(ids, lengths, table, l1, l2)
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
        outs = _reference_scan(T.matmul(outs, layer.w, layer.b), layer.u_gates, layer.u_h)
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
    ids, lengths = pad_token_batch(seqs)
    batched = encode_token_batch(ids, lengths, table, l1, l2).data
    for i, s in enumerate(seqs):
        single = _encode_question(s, table, l1, l2).data
        assert np.allclose(batched[i], single, atol=1e-10)


def test_encoder_gradients():
    table, l1, l2, store = _encoder(12, vocab=6, embed=3, hidden=3)

    def f():
        return T.tsum(T.square(_encode_question([1, 4, 2], table, l1, l2)))

    assert grad_check(f, store.tensors(), eps=1e-5, max_coords=3) <= 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_codes_and_gradients_ignore_the_padding_ids(dtype):
    """Codes are read at each row's last real token: any ids past it give the bits of id-0 padding.

    A pad-only id's embedding row gets an all-zero gradient.
    """
    table, l1, l2, store = _encoder(13, vocab=9, dtype=dtype)
    ids, lengths = pad_token_batch([[1, 2, 3, 4], [5], [6, 7], [3, 1, 7]])
    padded = np.arange(ids.shape[1]) >= lengths[:, None]
    assert padded.any() and not ids[padded].any()
    weights = Tensor(_rng(14).standard_normal((len(lengths), 5)).astype(dtype))

    def run(pad_ids):
        for t in store.tensors():
            t.grad = None
        codes = encode_token_batch(np.where(padded, pad_ids, ids), lengths, table, l1, l2)
        T.tsum(mul(codes, weights)).backward()
        return codes.data, [t.grad for t in store.tensors()]

    want, want_grads = run(0)
    pad_only = 8  # no sequence uses it
    for pad_ids in (pad_only, _rng(15).integers(0, 9, ids.shape)):
        got, got_grads = run(pad_ids)
        assert np.array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert np.array_equal(g, w)
        assert not table.grad[pad_only].any()
