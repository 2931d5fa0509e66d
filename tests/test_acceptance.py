"""Acceptance suite: one test per release criterion.

Each test prints a single ``CRITERION n: PASS`` line (visible with ``pytest -s``
or in the captured output); the pytest verdict per test is the pass/fail line.

Criteria 7 and 8 evaluate checkpoints produced by the documented CLI training
runs (see README, "Reproducing the training results").  Point COMEM_RUNS_DIR at
the directory holding them (default /root/runs); the tests fail with an
explanatory message when the checkpoints are absent.
"""

import filecmp
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import comem.tensor as T
from comem.cli import full_model_gradcheck
from comem.data import (
    FeatureSequence,
    SyntheticSpec,
    build_vocabulary,
    generate_dataset,
    read_feature_file,
    write_feature_file,
)
from comem.decoders import (
    COUNT_MAX,
    COUNT_MIN,
    DecoderParams,
    TaskKind,
    classify_word,
    hinge_loss,
    predict_count,
    score_choice,
)
from comem.encoders import GruParams, attention_gru_encode
from comem.facts import ContextualFactSet, PyramidParams, build_contextual_facts
from comem.memory import (
    CoMemoryParams,
    MemoryState,
    co_attention,
    dynamic_fact_ensemble,
    init_memory,
    run_episodes,
)
from comem.model import CoMemoryModel, ModelConfig
from comem.tensor import ParameterStore, Tensor
from comem.training import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train
from oracle_ops import mul

RUNS_DIR = Path(os.environ.get("COMEM_RUNS_DIR", "/root/runs"))
MISSING_RUNS = (
    "missing trained checkpoint {path}; run the training commands from the "
    "README section 'Reproducing the training results' (or set COMEM_RUNS_DIR)"
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _ok(n, detail=""):
    print(f"CRITERION {n}: PASS {detail}".rstrip(), flush=True)


def _runs_path(rel) -> Path:
    path = RUNS_DIR / rel
    assert path.exists(), MISSING_RUNS.format(path=path)
    return path


# -- 1: gradient fidelity ---------------------------------------------------------


def test_criterion_01_full_model_gradient_fidelity():
    t0 = time.time()
    err = full_model_gradcheck(seed=0)
    elapsed = time.time() - t0
    assert err <= 1e-4, f"max relative gradient error {err:.3e} > 1e-4"
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s (limit 120s)"
    _ok(1, f"(max relative error {err:.3e} across all four task losses, {elapsed:.1f}s)")


# -- 2: shape conformance at paper defaults -----------------------------------------


def test_criterion_02_paper_default_shapes():
    store = ParameterStore(seed=0, dtype=np.float32)
    pyr = PyramidParams.create(store, "pyr", 2048, 1024, 3)
    cm = CoMemoryParams.create(store, "cm", fact_dim=1024, memory_dim=1024,
                               question_dim=512, gate_dim=512, context_dim=512)
    rng = _rng(0)
    units = Tensor(rng.standard_normal((34, 2048)).astype(np.float32))
    q = Tensor(rng.standard_normal(512).astype(np.float32))
    t0 = time.time()
    with T.no_grad():
        A = build_contextual_facts(units, pyr)
        B = ContextualFactSet(levels=[Tensor(lv.data.copy()) for lv in A.levels])
        from comem.memory import memory_cycle
        m1, _, c_a, c_b = memory_cycle(A, B, init_memory(q, cm), q, cm)
        m_h, _ = run_episodes(A, B, q, cm, cycles=2)
    elapsed = time.time() - t0
    assert A.num_levels == 3
    assert all(lv.data.shape == (34, 1024) for lv in A.levels)
    assert c_a.data.shape == (512,) and c_b.data.shape == (512,)
    assert m1.m_a.data.shape == (1024,) and m1.m_b.data.shape == (1024,)
    assert m_h.data.shape == (2048,)
    assert elapsed < 1.0, f"paper-dim forward took {elapsed:.2f}s (limit 1s)"
    _ok(2, f"(34x2048 -> 3x34x1024 facts, c 512, m 1024, m_h 2048 in {elapsed:.2f}s)")


# -- 3: normalization invariants -----------------------------------------------------


def test_criterion_03_softmax_normalizations_100_draws():
    worst = 0.0
    for seed in range(100):
        store = ParameterStore(seed=seed, dtype=np.float64)
        p = CoMemoryParams.create(store, "cm", fact_dim=3, memory_dim=4,
                                  question_dim=2, gate_dim=3, context_dim=3)
        rng = _rng(1000 + seed)
        A = ContextualFactSet(levels=[Tensor(rng.standard_normal((5, 3))) for _ in range(3)])
        B = ContextualFactSet(levels=[Tensor(rng.standard_normal((5, 3))) for _ in range(3)])
        _, all_maps = run_episodes(A, B, Tensor(rng.standard_normal(2)), p, cycles=2)
        for maps in all_maps:
            for s in (maps.a.levels, maps.b.levels):
                worst = max(worst, float(np.abs(s.data.sum(axis=-2) - 1.0).max()))
            for s in (maps.a.steps, maps.b.steps):
                worst = max(worst, float(np.abs(s.data.sum(axis=-1) - 1.0).max()))
    assert worst <= 1e-6, f"normalization deviation {worst:.2e} > 1e-6"
    _ok(3, f"(100 draws, both modalities, every cycle; worst deviation {worst:.2e})")


# -- 4: cross-modal coupling -----------------------------------------------------------


def test_criterion_04_cross_modal_coupling_10_seeds():
    for seed in range(10):
        store = ParameterStore(seed=seed, dtype=np.float64)
        p = CoMemoryParams.create(store, "cm", fact_dim=3, memory_dim=4,
                                  question_dim=2, gate_dim=3, context_dim=3)
        rng = _rng(2000 + seed)
        A = ContextualFactSet(levels=[Tensor(rng.standard_normal((4, 3))) for _ in range(2)])
        B = ContextualFactSet(levels=[Tensor(rng.standard_normal((4, 3))) for _ in range(2)])
        q = Tensor(rng.standard_normal(2))
        weights = rng.standard_normal((2, 4))

        def jacobian_row_sum(cross_weight, own_gate):
            m = MemoryState(m_a=Tensor(rng.standard_normal(4), requires_grad=True),
                            m_b=Tensor(rng.standard_normal(4), requires_grad=True))
            maps = co_attention(A, B, m, q, p)
            gate = maps.a.gates if own_gate == "a" else maps.b.gates
            T.tsum(mul(gate, Tensor(weights))).backward()
            other = m.m_b if own_gate == "a" else m.m_a
            return other.grad

        assert np.abs(jacobian_row_sum(p.a.w3, "a")).max() > 0.0, f"seed {seed}: ga blind to m_b"
        assert np.abs(jacobian_row_sum(p.b.w3, "b")).max() > 0.0, f"seed {seed}: gb blind to m_a"
        p.a.w3.data[...] = 0.0
        assert np.all(jacobian_row_sum(p.a.w3, "a") == 0.0), f"seed {seed}: W_a3=0 left coupling"
        p.b.w3.data[...] = 0.0
        assert np.all(jacobian_row_sum(p.b.w3, "b") == 0.0), f"seed {seed}: W_b3=0 left coupling"
    _ok(4, "(gate Jacobian nonzero iff the cross weight is nonzero, 10 seeds, both modalities)")


# -- 5: attention-GRU oracle -------------------------------------------------------------


def test_criterion_05_attention_gru_oracles():
    rng = _rng(5)
    store = ParameterStore(seed=5, dtype=np.float64)
    p = GruParams.create(store, "g", 3, 4, update_gate=False)  # blocks [r | h]
    facts = rng.standard_normal((6, 3))

    out = attention_gru_encode(T.matmul(Tensor(facts), p.w, p.b), Tensor(np.zeros(6)), p)
    assert np.allclose(out.data, 0.0), "zero gates must give the zero vector"

    gates = np.zeros(6)
    gates[3] = 1.0
    out = attention_gru_encode(T.matmul(Tensor(facts), p.w, p.b), Tensor(gates), p)
    cand = np.tanh(facts[3] @ p.w.data[:, 4:] + p.b.data[4:])  # h=0 before the hot step
    assert np.allclose(out.data, cand, atol=1e-12), "one-hot gate must return that candidate"

    ps = ParameterStore(seed=6, dtype=np.float64)
    sp = GruParams.create(ps, "s", 1, 1, update_gate=False)
    (w_r, w_h), (b_r, b_h), u_r, u_h = sp.w.data[0], sp.b.data, sp.u_gates.data[0, 0], sp.u_h.data[0, 0]
    sfacts = rng.standard_normal((5, 1))
    sgates = rng.uniform(0, 1, size=5)
    h = 0.0
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    for x, g in zip(sfacts[:, 0], sgates):
        r = sig(x * w_r + h * u_r + b_r)
        c = np.tanh(x * w_h + r * h * u_h + b_h)
        h = g * c + (1 - g) * h
    out = attention_gru_encode(T.matmul(Tensor(sfacts), sp.w, sp.b), Tensor(sgates), sp)
    err = abs(float(out.data[0]) - h)
    assert err <= 1e-9, f"scalar recurrence error {err:.2e} > 1e-9"
    _ok(5, f"(zero gate, one-hot gate, scalar recurrence error {err:.2e})")


# -- 6: ensemble oracle --------------------------------------------------------------------


def test_criterion_06_ensemble_oracles():
    rng = _rng(6)
    one = ContextualFactSet(levels=[Tensor(rng.standard_normal((5, 3)))])
    out = dynamic_fact_ensemble(one, Tensor(np.ones((1, 5))))
    assert np.array_equal(out.data, one.levels[0].data), "N=1 must be the identity"

    three = ContextualFactSet(levels=[Tensor(rng.standard_normal((4, 2))) for _ in range(3)])
    out = dynamic_fact_ensemble(three, Tensor(np.full((3, 4), 1 / 3)))
    mean = np.mean([lv.data for lv in three.levels], axis=0)
    assert np.allclose(out.data, mean, atol=1e-12), "uniform weights must give the level mean"

    worst = 0.0
    for seed in range(20):
        r = _rng(600 + seed)
        levels = [r.standard_normal((6, 3)) for _ in range(2)]
        logits = r.standard_normal((2, 6))
        s = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        F = ContextualFactSet(levels=[Tensor(lv) for lv in levels])
        out = dynamic_fact_ensemble(F, Tensor(s)).data
        for j in range(6):
            expected = s[0, j] * levels[0][j] + s[1, j] * levels[1][j]
            worst = max(worst, float(np.abs(out[j] - expected).max()))
    assert worst <= 1e-6, f"N=2 loop-oracle error {worst:.2e} > 1e-6"
    _ok(6, f"(identity, uniform mean, N=2 loop oracle error {worst:.2e})")


# -- 7: synthetic learnability ----------------------------------------------------------


def _count_baseline_from_traces(data_dir: Path) -> float:
    """Constant-mean baseline MSE on the count test split, answers recomputed
    from the latent run traces."""
    traces = {}
    for line in (data_dir / "traces.jsonl").read_text().splitlines():
        d = json.loads(line)
        traces[d["video"]] = [r[0] for r in d["runs"]]
    spec_d = json.loads((data_dir / "manifest.json").read_text())["spec"]
    vocab = build_vocabulary(SyntheticSpec(**spec_d))
    inv = {v: k for k, v in vocab.items()}

    def answers(split):
        ys = []
        for line in (data_dir / "qa" / f"count_{split}.jsonl").read_text().splitlines():
            item = json.loads(line)
            x = int(inv[item["question"][4]].split("_")[1])
            ys.append(min(COUNT_MAX, traces[item["video"]].count(x)))
        return np.asarray(ys, dtype=np.float64)

    mean = answers("train").mean()
    test = answers("test")
    return float(np.mean((test - mean) ** 2))


def test_criterion_07_synthetic_learnability():
    data = _runs_path("data_main")
    spec_d = json.loads((data / "manifest.json").read_text())["spec"]
    assert spec_d["length"] == 34 and spec_d["actions"] == 8 and spec_d["objects"] == 8
    assert spec_d["seed"] == 1
    assert json.loads((data / "manifest.json").read_text())["episodes"] == 2000

    baseline = _count_baseline_from_traces(data)
    assert baseline >= 2.5, f"count constant-mean baseline {baseline:.3f} < 2.5"

    thresholds = {"action": 0.60, "trans": 0.60, "count": 1.5, "frame": 0.50}
    results = {}
    for task, bound in thresholds.items():
        ckpt = _runs_path(f"ckpt/{task}.ckpt")
        manifest = json.loads(ckpt.read_text())
        assert manifest["train_config"]["epochs"] == 20
        metric, _ = evaluate(ckpt, data, split="test")
        results[task] = metric
        if task == "count":
            assert metric <= bound, f"count test MSE {metric:.3f} > {bound}"
        else:
            assert metric >= bound, f"{task} test ACC {metric:.3f} < {bound}"
    _ok(7, "(action ACC {action:.3f}, trans ACC {trans:.3f}, count MSE {count:.3f} "
           "vs baseline {b:.3f}, frame ACC {frame:.3f})".format(b=baseline, **results))


# -- 8: ablation direction ---------------------------------------------------------------


def test_criterion_08_two_cycles_not_worse_than_one():
    data = _runs_path("data_ablate")
    accs = {1: [], 2: []}
    for cycles in (1, 2):
        for seed in (0, 1, 2):
            ckpt = _runs_path(f"ablation/trans_T{cycles}_s{seed}.ckpt")
            model, _ = load_checkpoint(ckpt)
            assert model.config.cycles == cycles
            metric, _ = evaluate(ckpt, data, split="test")
            accs[cycles].append(metric)
    mean1 = float(np.mean(accs[1]))
    mean2 = float(np.mean(accs[2]))
    assert mean2 >= mean1 - 0.01, (
        f"T=2 mean ACC {mean2:.3f} fell more than 1 point below T=1 mean {mean1:.3f}")
    _ok(8, f"(3 seeds: T=1 mean ACC {mean1:.3f}, T=2 mean ACC {mean2:.3f})")


# -- 9: determinism and persistence ---------------------------------------------------------


def test_criterion_09_determinism_and_persistence(tmp_path):
    # byte-identical generation
    spec = SyntheticSpec(seed=9)
    generate_dataset(spec, 10, tmp_path / "g1")
    generate_dataset(spec, 10, tmp_path / "g2")
    files = sorted(p.relative_to(tmp_path / "g1") for p in (tmp_path / "g1").rglob("*") if p.is_file())
    for rel in files:
        assert filecmp.cmp(tmp_path / "g1" / rel, tmp_path / "g2" / rel, shallow=False), rel

    # identical loss curves for the same seed
    dims = dict(embed_dim=5, question_hidden=4, fact_channels=4,
                context_dim=4, memory_dim=4, gate_dim=4)
    cfg = TrainConfig(task="frame", epochs=2, batch_size=8, levels=2, seed=3)
    h1 = train(cfg, tmp_path / "g1", tmp_path / "a.ckpt", dims=dims)
    h2 = train(cfg, tmp_path / "g1", tmp_path / "b.ckpt", dims=dims)
    assert [e["train_loss"] for e in h1] == [e["train_loss"] for e in h2]
    assert [e["val_metric"] for e in h1] == [e["val_metric"] for e in h2]

    # checkpoint round-trip byte-identical
    model, manifest = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(tmp_path / "c.ckpt", model, TrainConfig(**manifest["train_config"]),
                    manifest["epoch"], manifest["history"])
    blobs = [tmp_path / json.loads((tmp_path / name).read_text())["blob"] for name in ("a.ckpt", "c.ckpt")]
    assert blobs[0].read_bytes() == blobs[1].read_bytes()

    # feature-file round-trip bit-exact
    values = _rng(9).standard_normal((34, 64)).astype(np.float32)
    write_feature_file(tmp_path / "f.cmf", FeatureSequence(values))
    assert read_feature_file(tmp_path / "f.cmf").values.tobytes() == values.tobytes()
    _ok(9, "(generation, loss curves, checkpoint and feature round-trips)")


# -- 10: decoder range contracts --------------------------------------------------------------


def test_criterion_10_decoder_range_contracts():
    rng = _rng(10)
    store = ParameterStore(seed=10, dtype=np.float64)
    pc = DecoderParams.create(store, "c", 8, TaskKind.REPETITION_COUNT)
    pw = DecoderParams.create(store, "w", 8, TaskKind.FRAME_QA, answer_vocab=9)
    pm = DecoderParams.create(store, "m", 8, TaskKind.REPEATING_ACTION)

    heads = rng.standard_normal((10_000, 8)) * rng.uniform(0.01, 100.0, size=(10_000, 1))
    counts = predict_count(Tensor(heads), pc)
    assert counts.min() >= COUNT_MIN and counts.max() <= COUNT_MAX

    probs = classify_word(Tensor(heads), pw).data
    assert np.all(np.isfinite(probs)) and probs.min() >= 0.0
    assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-6

    scores = score_choice(Tensor(heads.reshape(2000, 5, 8)), pm).data
    mc_preds = np.argmax(scores, axis=-1)
    assert mc_preds.min() >= 0 and mc_preds.max() <= 4

    for i in range(2000):
        s = scores[i]
        loss = float(hinge_loss(Tensor(np.array(s[0])),
                                [Tensor(np.array(v)) for v in s[1:]]).data)
        assert loss >= 0.0
        if (s[0] - s[1:]).min() >= 1.0:
            assert loss == 0.0
        else:
            assert loss > 0.0
    _ok(10, "(10k fuzzed heads: count 0..10, MC 0..4, probabilities normalized, hinge contract)")
