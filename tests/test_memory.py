"""Dual-memory loop: gates, ensembles, cycles, and cross-modal coupling."""

import numpy as np
import pytest

import comem.memory as memory
import comem.tensor as T
from comem.errors import DimensionError, DomainError
from comem.facts import ContextualFactSet
from comem.memory import (
    AttentionMaps,
    CoMemoryParams,
    MemoryState,
    co_attention,
    dynamic_fact_ensemble,
    init_memory,
    memory_cycle,
    run_episodes,
)
from comem.tensor import ParameterStore, Tensor, grad_check

DIMS = dict(fact_dim=3, memory_dim=4, question_dim=2, gate_dim=3, context_dim=3)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _params(seed, dtype=np.float64, **overrides):
    store = ParameterStore(seed=seed, dtype=dtype)
    dims = {**DIMS, **overrides}
    return CoMemoryParams.create(store, "cm", **dims), store, dims


def _facts(seed, n_levels, L, C, batch=None):
    rng = _rng(seed)
    shape = (L, C) if batch is None else (batch, L, C)
    return ContextualFactSet(levels=[Tensor(rng.standard_normal(shape)) for _ in range(n_levels)])


def _state(seed, memory_dim, batch=None):
    rng = _rng(seed)
    shape = (memory_dim,) if batch is None else (batch, memory_dim)
    return MemoryState(m_a=Tensor(rng.standard_normal(shape)), m_b=Tensor(rng.standard_normal(shape)))


def _question(seed, qdim, batch=None):
    rng = _rng(seed)
    shape = (qdim,) if batch is None else (batch, qdim)
    return Tensor(rng.standard_normal(shape))


# -- init_memory ----------------------------------------------------------------


def test_init_memory_zero_projection_is_zero():
    p, _, dims = _params(0)
    p.a.proj.data[...] = 0.0
    q = _question(0, dims["question_dim"])
    m = init_memory(q, p)
    assert np.allclose(m.m_a.data, 0.0)
    assert m.m_a.data.shape == (dims["memory_dim"],)
    assert m.m_b.data.shape == (dims["memory_dim"],)


def test_init_memory_is_relu_affine():
    p, _, dims = _params(1)
    q = _question(1, dims["question_dim"])
    m = init_memory(q, p)
    assert np.allclose(m.m_a.data, np.maximum(q.data @ p.a.proj.data, 0.0), atol=1e-12)


def test_paper_scale_memory_widths():
    p, _, _ = _params(2, dtype=np.float32, fact_dim=8, memory_dim=1024,
                      question_dim=512, gate_dim=512, context_dim=512)
    q = Tensor(np.random.default_rng(0).standard_normal(512).astype(np.float32))
    m = init_memory(q, p)
    assert m.m_a.data.shape == (1024,) and m.m_b.data.shape == (1024,)


# -- co_attention ------------------------------------------------------------------


def test_zero_gate_weight_gives_uniform_softmaxes():
    p, _, dims = _params(3)
    p.a.w4.data[...] = 0.0
    A = _facts(3, 2, 5, dims["fact_dim"])
    B = _facts(4, 2, 5, dims["fact_dim"])
    maps = co_attention(A, B, _state(5, dims["memory_dim"]), _question(6, dims["question_dim"]), p)
    assert np.allclose(maps.a.gates.data, 0.0, atol=1e-12)
    assert np.allclose(maps.a.levels.data, 0.5, atol=1e-9)
    assert np.allclose(maps.a.steps.data, 0.2, atol=1e-9)


def test_single_level_weights_are_one():
    p, _, dims = _params(4)
    A = _facts(7, 1, 4, dims["fact_dim"])
    B = _facts(8, 1, 4, dims["fact_dim"])
    maps = co_attention(A, B, _state(9, dims["memory_dim"]), _question(10, dims["question_dim"]), p)
    assert np.allclose(maps.a.levels.data, 1.0, atol=1e-9)
    assert np.allclose(maps.b.levels.data, 1.0, atol=1e-9)


def test_gates_match_hand_evaluation():
    p, _, dims = _params(5)
    L, N = 2, 2
    A = _facts(11, N, L, dims["fact_dim"])
    B = _facts(12, N, L, dims["fact_dim"])
    m = _state(13, dims["memory_dim"])
    q = _question(14, dims["question_dim"])
    maps = co_attention(A, B, m, q, p)
    mq_a = np.concatenate([m.m_a.data, q.data])
    mq_b = np.concatenate([m.m_b.data, q.data])
    fa = np.stack([lv.data for lv in A.levels])  # (N, L, C)
    for i in range(N):
        for j in range(L):
            za = np.tanh((fa[i, j] + mq_a @ p.a.w1.data) @ p.a.w2.data + mq_b @ p.a.w3.data)
            ga = za @ p.a.w4.data
            assert np.allclose(maps.a.gates.data[i, j], ga[0], atol=1e-7)
    # softmax over levels column-wise
    e = np.exp(maps.a.gates.data - maps.a.gates.data.max(axis=0, keepdims=True))
    assert np.allclose(maps.a.levels.data, e / e.sum(axis=0, keepdims=True), atol=1e-9)
    mean_g = maps.a.gates.data.mean(axis=0)
    es = np.exp(mean_g - mean_g.max())
    assert np.allclose(maps.a.steps.data, es / es.sum(), atol=1e-9)


def test_cross_modal_coupling_present_and_removable():
    for seed in range(10):
        p, _, dims = _params(20 + seed)
        A = _facts(seed, 2, 3, dims["fact_dim"])
        B = _facts(seed + 50, 2, 3, dims["fact_dim"])
        q = _question(seed + 100, dims["question_dim"])
        m = _state(seed + 150, dims["memory_dim"])
        m.m_b.requires_grad = True

        maps = co_attention(A, B, m, q, p)
        T.tsum(maps.a.gates).backward()
        assert np.abs(m.m_b.grad).max() > 0.0, "the gates must react to the other memory"

        # removing the outer weight severs the coupling exactly
        m.m_b.grad = None
        p.a.w3.data[...] = 0.0
        base = co_attention(A, B, m, q, p).a.gates.data
        m2 = MemoryState(m_a=m.m_a, m_b=Tensor(m.m_b.data + 5.0))
        moved = co_attention(A, B, m2, q, p).a.gates.data
        assert np.array_equal(base, moved)


def test_other_memory_moves_both_attention_weights():
    """The softmaxes cancel any per-row constant, so the other memory must act inside the gate."""
    p, _, dims = _params(21)
    A = _facts(80, 2, 3, dims["fact_dim"])
    B = _facts(81, 2, 3, dims["fact_dim"])
    q = _question(82, dims["question_dim"])
    m = _state(83, dims["memory_dim"])
    base = co_attention(A, B, m, q, p)
    moved_b = co_attention(A, B, MemoryState(m_a=m.m_a, m_b=Tensor(m.m_b.data + 1.0)), q, p)
    moved_a = co_attention(A, B, MemoryState(m_a=Tensor(m.m_a.data + 1.0), m_b=m.m_b), q, p)
    for got, want in ((moved_b.a.levels, base.a.levels), (moved_b.a.steps, base.a.steps),
                      (moved_a.b.levels, base.b.levels), (moved_a.b.steps, base.b.steps)):
        assert np.abs(got.data - want.data).max() > 1e-6


def test_level_softmax_is_shift_invariant_along_levels():
    p, _, dims = _params(6)
    A = _facts(30, 2, 3, dims["fact_dim"])
    B = _facts(31, 2, 3, dims["fact_dim"])
    maps = co_attention(A, B, _state(32, dims["memory_dim"]), _question(33, dims["question_dim"]), p)
    shifted = maps.a.gates.data + 7.5  # constant across levels at every step
    e = np.exp(shifted - shifted.max(axis=0, keepdims=True))
    assert np.allclose(maps.a.levels.data, e / e.sum(axis=0, keepdims=True), atol=1e-9)


def test_co_attention_rejects_mismatched_fact_sets():
    p, _, dims = _params(7)
    A = _facts(34, 2, 4, dims["fact_dim"])
    B = _facts(35, 3, 4, dims["fact_dim"])
    with pytest.raises(DimensionError):
        co_attention(A, B, _state(36, dims["memory_dim"]), _question(37, dims["question_dim"]), p)


def test_co_attention_takes_one_candidate_axis_above_the_facts_not_two():
    p, _, dims = _params(8)
    A = _facts(38, 2, 4, dims["fact_dim"], batch=2)
    B = _facts(39, 2, 4, dims["fact_dim"], batch=2)
    rng = _rng(40)

    def args(*axes):  # memories and question with axes (2, *axes, ·)
        m = MemoryState(*(Tensor(rng.standard_normal((2, *axes, dims["memory_dim"]))) for _ in "ab"))
        return m, Tensor(rng.standard_normal((2, *axes, dims["question_dim"])))

    assert co_attention(A, B, *args(3), p).a.gates.shape == (2, 3, 2, 4)  # (B, K, N, L)
    with pytest.raises(DimensionError):
        co_attention(A, B, *args(3, 2), p)  # (B, K, J, Q)


# -- dynamic_fact_ensemble -----------------------------------------------------------


def test_ensemble_single_level_is_identity():
    F = _facts(40, 1, 4, 3)
    out = dynamic_fact_ensemble(F, Tensor(np.ones((1, 4))))
    assert np.allclose(out.data, F.levels[0].data, atol=1e-12)


def test_ensemble_uniform_weights_average_levels():
    F = _facts(41, 3, 4, 2)
    out = dynamic_fact_ensemble(F, Tensor(np.full((3, 4), 1 / 3)))
    mean = np.mean([lv.data for lv in F.levels], axis=0)
    assert np.allclose(out.data, mean, atol=1e-12)


def test_ensemble_matches_weighted_sum_loop():
    levels = [Tensor(np.array([[1.0], [2.0]])), Tensor(np.array([[-3.0], [4.0]]))]
    F = ContextualFactSet(levels=levels)
    s = np.array([[0.3, 0.8], [0.7, 0.2]])
    out = dynamic_fact_ensemble(F, Tensor(s)).data
    for j in range(2):
        expected = sum(s[i, j] * levels[i].data[j] for i in range(2))
        assert np.allclose(out[j], expected, atol=1e-12)


def test_ensemble_rejects_unnormalized_weights():
    F = _facts(42, 2, 3, 2)
    with pytest.raises(DomainError):
        dynamic_fact_ensemble(F, Tensor(np.full((2, 3), 0.6)))
    with pytest.raises(DimensionError):
        dynamic_fact_ensemble(F, Tensor(np.full((3, 3), 1 / 3)))


# -- memory_cycle / run_episodes --------------------------------------------------------


def test_zero_step_gates_reduce_update_to_memory_question(monkeypatch):
    real_co_attention = memory.co_attention

    def zero_step_gates(*args, **kwargs):
        maps = real_co_attention(*args, **kwargs)
        maps.a.steps = Tensor(np.zeros_like(maps.a.steps.data))
        maps.b.steps = Tensor(np.zeros_like(maps.b.steps.data))
        return maps

    monkeypatch.setattr(memory, "co_attention", zero_step_gates)
    p, _, dims = _params(8)
    A = _facts(50, 2, 4, dims["fact_dim"])
    B = _facts(51, 2, 4, dims["fact_dim"])
    q = _question(52, dims["question_dim"])
    m0 = init_memory(q, p)
    m1, maps, c_a, c_b = memory_cycle(A, B, m0, q, p)
    assert np.allclose(c_a.data, 0.0) and np.allclose(c_b.data, 0.0)
    concat = np.concatenate([m0.m_a.data, q.data, np.zeros(dims["context_dim"])])
    expected = np.maximum(concat @ p.a.upd_w.data + p.a.upd_b.data, 0.0)
    assert np.allclose(m1.m_a.data, expected, atol=1e-10)


def test_cycle_output_dims_paper_scale():
    p, _, dims = _params(9, dtype=np.float32, fact_dim=6, memory_dim=1024,
                         question_dim=512, gate_dim=512, context_dim=512)
    A, B = (ContextualFactSet([Tensor(lv.data.astype(np.float32)) for lv in _facts(seed, 2, 4, 6).levels])
            for seed in (53, 54))
    q = Tensor(_rng(55).standard_normal(512).astype(np.float32))
    m1, maps, c_a, c_b = memory_cycle(A, B, init_memory(q, p), q, p)
    assert c_a.data.shape == (512,) and c_b.data.shape == (512,)
    assert m1.m_a.data.shape == (1024,)
    m_h, _ = run_episodes(A, B, q, p, cycles=2)
    assert m_h.data.shape == (2048,)


def test_cycle_matches_composition_of_suboperations():
    from comem.encoders import attention_gru_encode

    p, _, dims = _params(10)
    A = _facts(56, 2, 4, dims["fact_dim"])
    B = _facts(57, 2, 4, dims["fact_dim"])
    q = _question(58, dims["question_dim"])
    m0 = _state(59, dims["memory_dim"])
    m1, maps, c_a, c_b = memory_cycle(A, B, m0, q, p)
    maps2 = co_attention(A, B, m0, q, p)
    ens_a = dynamic_fact_ensemble(A, maps2.a.levels)
    c_a2 = attention_gru_encode(T.matmul(ens_a, p.a.gru.w, p.a.gru.b), maps2.a.steps, p.a.gru)
    assert np.allclose(c_a.data, c_a2.data, atol=1e-10)
    upd_in = np.concatenate([m0.m_a.data, q.data, c_a2.data])
    assert np.allclose(m1.m_a.data, np.maximum(upd_in @ p.a.upd_w.data + p.a.upd_b.data, 0.0), atol=1e-10)


def test_run_episodes_single_cycle_base_case():
    p, _, dims = _params(11)
    A = _facts(60, 2, 4, dims["fact_dim"])
    B = _facts(61, 2, 4, dims["fact_dim"])
    q = _question(62, dims["question_dim"])
    m_h, maps = run_episodes(A, B, q, p, cycles=1)
    m1, _, _, _ = memory_cycle(A, B, init_memory(q, p), q, p)
    assert len(maps) == 1 and maps[0].cycle == 1
    assert np.allclose(m_h.data, np.concatenate([m1.m_a.data, m1.m_b.data]), atol=1e-10)


def test_run_episodes_rejects_nonpositive_cycles():
    p, _, dims = _params(12)
    A = _facts(63, 2, 4, dims["fact_dim"])
    B = _facts(64, 2, 4, dims["fact_dim"])
    with pytest.raises(DomainError):
        run_episodes(A, B, _question(65, dims["question_dim"]), p, cycles=0)


def test_run_episodes_deterministic():
    p, _, dims = _params(13)
    A = _facts(66, 2, 4, dims["fact_dim"])
    B = _facts(67, 2, 4, dims["fact_dim"])
    q = _question(68, dims["question_dim"])
    m1, _ = run_episodes(A, B, q, p, cycles=2)
    m2, _ = run_episodes(A, B, q, p, cycles=2)
    assert np.array_equal(m1.data, m2.data)


def test_normalizations_hold_for_100_random_draws():
    worst_level, worst_step = 0.0, 0.0
    for seed in range(100):
        p, _, dims = _params(200 + seed)
        A = _facts(seed, 3, 5, dims["fact_dim"])
        B = _facts(seed + 1000, 3, 5, dims["fact_dim"])
        q = _question(seed + 2000, dims["question_dim"])
        _, all_maps = run_episodes(A, B, q, p, cycles=2)
        for maps in all_maps:
            for s_levels in (maps.a.levels, maps.b.levels):
                worst_level = max(worst_level, float(np.abs(s_levels.data.sum(axis=-2) - 1.0).max()))
            for s_steps in (maps.a.steps, maps.b.steps):
                worst_step = max(worst_step, float(np.abs(s_steps.data.sum(axis=-1) - 1.0).max()))
    assert worst_level <= 1e-6 and worst_step <= 1e-6


def test_batched_episodes_match_per_item():
    p, _, dims = _params(14)
    batch = 3
    A = _facts(70, 2, 4, dims["fact_dim"], batch=batch)
    B = _facts(71, 2, 4, dims["fact_dim"], batch=batch)
    q = _question(72, dims["question_dim"], batch=batch)
    m_h, _ = run_episodes(A, B, q, p, cycles=2)
    for b in range(batch):
        Ab = ContextualFactSet(levels=[Tensor(lv.data[b]) for lv in A.levels])
        Bb = ContextualFactSet(levels=[Tensor(lv.data[b]) for lv in B.levels])
        single, _ = run_episodes(Ab, Bb, Tensor(q.data[b]), p, cycles=2)
        assert np.allclose(m_h.data[b], single.data, atol=1e-8)


def test_full_loop_gradients_tiny_config():
    p, store, dims = _params(15)
    rng = _rng(73)
    A = ContextualFactSet(
        levels=[Tensor(rng.standard_normal((4, dims["fact_dim"])), requires_grad=True) for _ in range(2)])
    B = ContextualFactSet(
        levels=[Tensor(rng.standard_normal((4, dims["fact_dim"])), requires_grad=True) for _ in range(2)])
    q = Tensor(rng.standard_normal(dims["question_dim"]), requires_grad=True)

    def f():
        m_h, _ = run_episodes(A, B, q, p, cycles=2)
        return T.tsum(T.square(m_h))

    tensors = store.tensors() + A.levels + B.levels + [q]
    assert grad_check(f, tensors, eps=1e-5, max_coords=2) <= 1e-4


def test_fact_sets_support_repeated_forward_backward():
    """Each forward stacks the levels afresh, so a second pass over the same fact sets backpropagates too."""
    p, store, dims = _params(17)
    rng = _rng(77)
    A, B = (ContextualFactSet(levels=[Tensor(rng.standard_normal((4, dims["fact_dim"])), requires_grad=True)
                                      for _ in range(2)]) for _ in range(2))
    q = _question(78, dims["question_dim"])
    leaves = store.tensors() + A.levels + B.levels
    grads = []
    for _ in range(2):
        for t in leaves:
            t.grad = None
        m_h, _ = run_episodes(A, B, q, p, cycles=2)
        T.tsum(T.square(m_h)).backward()
        grads.append([t.grad.copy() for t in leaves])
    for first, second in zip(*grads):
        assert np.array_equal(first, second)


def test_attention_maps_export_layout():
    p, _, dims = _params(16)
    A = _facts(74, 2, 4, dims["fact_dim"])
    B = _facts(75, 2, 4, dims["fact_dim"])
    _, all_maps = run_episodes(A, B, _question(76, dims["question_dim"]), p, cycles=2)
    exported = all_maps[1].export()
    assert exported["cycle"] == 2
    assert len(exported["appearance"]["levels"]) == 2  # N rows
    assert len(exported["appearance"]["steps"]) == 4  # L entries
