"""Conv-deconv pyramid: shapes, oracles, receptive fields, gradients."""

import numpy as np
import pytest

import comem.tensor as T
from comem.errors import DimensionError, DomainError, GeometryError
from comem.facts import (
    ContextualFactSet,
    PyramidParams,
    build_contextual_facts,
)
from comem.tensor import ParameterStore, Tensor, grad_check


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _pyramid(seed, input_width, channels, levels, dtype=np.float64):
    store = ParameterStore(seed=seed, dtype=dtype)
    return PyramidParams.create(store, "p", input_width, channels, levels), store


def test_fact_set_validates_levels():
    with pytest.raises(DomainError):
        ContextualFactSet(levels=[], modality="appearance")
    with pytest.raises(DimensionError):
        ContextualFactSet(levels=[Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2)))], modality="motion")


def test_paper_scale_shapes():
    rng = _rng(0)
    p, _ = _pyramid(0, 2048, 1024, 3, dtype=np.float32)
    units = Tensor(rng.standard_normal((34, 2048)).astype(np.float32))
    facts = build_contextual_facts(units, p)
    assert facts.num_levels == 3
    for lv in facts.levels:
        assert lv.data.shape == (34, 1024)


def test_single_level_is_conv_relu_only():
    rng = _rng(1)
    p, _ = _pyramid(1, 4, 3, 1)
    units = Tensor(rng.standard_normal((6, 4)))
    facts = build_contextual_facts(units, p)
    direct = T.relu(T.conv1d_temporal(units, p.convs[0], stride=1, pad=1))
    assert facts.num_levels == 1
    assert np.allclose(facts.levels[0].data, direct.data, atol=1e-12)


def test_two_level_pyramid_matches_composed_oracle():
    rng = _rng(2)
    p, _ = _pyramid(2, 2, 2, 2)
    units = Tensor(rng.standard_normal((8, 2)))
    facts = build_contextual_facts(units, p)
    lvl1 = T.relu(T.conv1d_temporal(units, p.convs[0], stride=1, pad=1))
    lvl2_coarse = T.relu(T.conv1d_temporal(T.maxpool1d(lvl1), p.convs[1], stride=1, pad=1))
    lvl2 = T.relu(T.deconv1d_temporal(lvl2_coarse, p.deconvs[(2, 0)], target_len=8))
    assert np.allclose(facts.levels[0].data, lvl1.data, atol=1e-12)
    assert np.allclose(facts.levels[1].data, lvl2.data, atol=1e-12)


def test_three_level_internal_lengths_34_17_9():
    rng = _rng(3)
    p, _ = _pyramid(3, 2, 2, 3)
    units = Tensor(rng.standard_normal((34, 2)))
    lvl1 = T.relu(T.conv1d_temporal(units, p.convs[0], stride=1, pad=1))
    lvl2 = T.relu(T.conv1d_temporal(T.maxpool1d(lvl1), p.convs[1], stride=1, pad=1))
    lvl3 = T.relu(T.conv1d_temporal(T.maxpool1d(lvl2), p.convs[2], stride=1, pad=1))
    assert lvl1.data.shape[0] == 34 and lvl2.data.shape[0] == 17 and lvl3.data.shape[0] == 9
    facts = build_contextual_facts(units, p)
    # decoder path restores every level to the base resolution
    assert all(lv.data.shape[0] == 34 for lv in facts.levels)


def test_batched_build_matches_per_item():
    rng = _rng(4)
    p, _ = _pyramid(4, 3, 2, 2)
    units = rng.standard_normal((2, 6, 3))
    batched = build_contextual_facts(Tensor(units), p)
    for b in range(2):
        single = build_contextual_facts(Tensor(units[b]), p)
        for lv_b, lv_s in zip(batched.levels, single.levels):
            assert np.allclose(lv_b.data[b], lv_s.data, atol=1e-12)


def test_geometry_rejections():
    p, _ = _pyramid(5, 2, 2, 3)
    with pytest.raises(GeometryError):
        build_contextual_facts(Tensor(np.zeros((4, 2))), p, num_levels=3)  # coarsest 1
    with pytest.raises(DomainError):
        build_contextual_facts(Tensor(np.zeros((8, 2))), p, num_levels=4)
    with pytest.raises(DomainError):
        build_contextual_facts(Tensor(np.zeros((8, 2))), p, num_levels=0)


def test_level1_locality_of_single_unit_perturbation():
    rng = _rng(6)
    p, _ = _pyramid(6, 2, 2, 1)
    units = rng.standard_normal((10, 2))
    base = build_contextual_facts(Tensor(units), p).levels[0].data
    u = 5
    bumped = units.copy()
    bumped[u] += 10.0
    out = build_contextual_facts(Tensor(bumped), p).levels[0].data
    changed = np.where(np.abs(out - base).max(axis=-1) > 1e-9)[0]
    assert changed.size > 0
    assert changed.min() >= u - 1 and changed.max() <= u + 1


def _perturbation_field(level, base_length, seed):
    """Max over inputs of |{output steps that react to flipping that input}|."""
    rng = _rng(seed)
    p, _ = _pyramid(seed, 2, 2, level)
    units = rng.standard_normal((base_length, 2))
    # bias the graph away from dead ReLUs so reachability is visible
    units = np.abs(units) + 0.5
    base = build_contextual_facts(Tensor(units), p, num_levels=level).levels[level - 1].data
    widest = 0
    for u in range(base_length):
        bumped = units.copy()
        bumped[u] += 3.0
        out = build_contextual_facts(Tensor(bumped), p, num_levels=level).levels[level - 1].data
        changed = int((np.abs(out - base).max(axis=-1) > 1e-9).sum())
        widest = max(widest, changed)
    return widest


# Input units one output step depends on at each level, at base length 16:
# conv 3 taps, pool 2, deconv 3 taps at stride 2, composed as boolean
# dependency matrices (max over output steps).
ANALYTIC_RECEPTIVE_FIELD_16 = {1: 3, 2: 10, 3: 16}


def test_perturbation_field_within_analytic_receptive_field():
    observed = []
    for level, analytic in ANALYTIC_RECEPTIVE_FIELD_16.items():
        # the perturbation oracle measures the transpose quantity: how many
        # outputs depend on one input; max over inputs equals max fan-out,
        # which bounds and (for this symmetric geometry) matches max fan-in
        observed.append(_perturbation_field(level, 16, seed=8 + level))
        assert 3 <= observed[-1] <= analytic + 2  # dead-unit slack only shrinks it
    assert observed == sorted(set(observed))  # context grows with every level


def test_context_growth_under_single_unit_perturbation():
    rng = _rng(10)
    p, _ = _pyramid(10, 2, 2, 3)
    units = np.abs(rng.standard_normal((16, 2))) + 0.5
    base = build_contextual_facts(Tensor(units), p)
    u = 8
    bumped = units.copy()
    bumped[u] += 3.0
    out = build_contextual_facts(Tensor(bumped), p)
    changed = [
        int((np.abs(o.data - b.data).max(axis=-1) > 1e-9).sum())
        for o, b in zip(out.levels, base.levels)
    ]
    assert changed[2] > changed[0]


def test_pyramid_gradients_on_toy_config():
    rng = _rng(11)
    p, store = _pyramid(11, 4, 3, 2)
    units = Tensor(rng.standard_normal((6, 4)), requires_grad=True)

    def f():
        facts = build_contextual_facts(units, p)
        return T.tsum(T.square(facts.stacked()))

    err = grad_check(f, store.tensors() + [units], eps=1e-5, max_coords=3)
    assert err <= 1e-4


def test_stacked_shape_and_cache():
    rng = _rng(12)
    p, _ = _pyramid(12, 3, 2, 2)
    facts = build_contextual_facts(Tensor(rng.standard_normal((6, 3))), p)
    s = facts.stacked()
    assert s.data.shape == (2, 6, 2)
    assert facts.stacked() is s
