"""Task heads: choice scoring, hinge loss, count regression, word classifier."""

import numpy as np
import pytest

import comem.tensor as T
from comem.decoders import (
    COUNT_MAX,
    COUNT_MIN,
    NUM_CHOICES,
    DecoderParams,
    TaskKind,
    classify_word,
    count_regression,
    cross_entropy_loss,
    head,
    hinge_loss,
    l2_count_loss,
    num_answers,
    predict_count,
    predict_word,
    round_count,
    score_choice,
    task_loss,
    task_predictions,
    word_logits,
)
from comem.errors import DimensionError, DomainError
from comem.tensor import ParameterStore, Tensor


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _params(task, memory_dim=6, answer_vocab=0, seed=0):
    store = ParameterStore(seed=seed, dtype=np.float64)
    return DecoderParams.create(store, "dec", memory_dim, task, answer_vocab=answer_vocab), store


# -- choice scoring ------------------------------------------------------------


def test_score_choice_zero_weight_is_zero():
    p, _ = _params(TaskKind.REPEATING_ACTION)
    p.w.data[...] = 0.0
    s = score_choice(Tensor(_rng(0).standard_normal(6)), p)
    assert s.data.shape == ()
    assert s.data == 0.0


def test_score_choice_unit_weight_picks_coordinate():
    p, _ = _params(TaskKind.STATE_TRANSITION)
    p.w.data[...] = 0.0
    p.w.data[2, 0] = 1.0
    m_h = np.array([1.0, 2.0, -3.5, 4.0, 5.0, 6.0])
    assert score_choice(Tensor(m_h), p).data == -3.5


def test_score_choice_matches_dot_product():
    p, _ = _params(TaskKind.REPEATING_ACTION, seed=1)
    m_h = _rng(1).standard_normal((3, 6))
    s = score_choice(Tensor(m_h), p)
    assert s.data.shape == (3,)
    assert np.allclose(s.data, m_h @ p.w.data[:, 0], atol=1e-12)


def test_score_choice_is_linear_in_memory():
    p, _ = _params(TaskKind.REPEATING_ACTION, seed=2)
    m_h = _rng(2).standard_normal(6)
    s1 = score_choice(Tensor(m_h), p).data
    s2 = score_choice(Tensor(3.0 * m_h), p).data
    assert np.allclose(s2, 3.0 * s1, atol=1e-12)


# -- hinge loss ----------------------------------------------------------------


def test_hinge_hand_cases():
    # margins violated by 0.3 and satisfied with slack: relu(1 + 1.3 - 2) = 0.3
    loss = hinge_loss(Tensor(np.array([2.0, 1.3, -1.0])), 0)
    assert np.allclose(loss.data, 0.15, atol=1e-12)
    loss = hinge_loss(Tensor(np.array([1.3, -1.0, 2.0])), 2)
    assert np.allclose(loss.data, 0.15, atol=1e-12)
    # exactly at the margin contributes zero
    loss = hinge_loss(Tensor(np.array([2.0, 1.0])), 0)
    assert loss.data == 0.0
    # fully violated: relu(1 + 2.5 - 2) = 1.5
    loss = hinge_loss(Tensor(np.array([2.0, 2.5])), 0)
    assert np.allclose(loss.data, 1.5, atol=1e-12)


def test_hinge_requires_negatives():
    with pytest.raises(DomainError):
        hinge_loss(Tensor(np.array([1.0])), 0)


def test_hinge_nonnegative_and_zero_iff_margins_met():
    rng = _rng(3)
    for _ in range(200):
        s_p = float(rng.normal())
        s_n = rng.normal(size=4)
        loss = float(hinge_loss(Tensor(np.concatenate([[s_p], s_n])), 0).data)
        assert loss >= 0.0
        if (s_p - s_n).min() >= 1.0:
            assert loss == 0.0
        else:
            assert loss > 0.0


def test_hinge_gradient_pushes_scores_apart():
    s = Tensor(np.array([0.0, 0.5]), requires_grad=True)
    hinge_loss(s, 0).backward()
    assert s.grad[0] < 0.0 and s.grad[1] > 0.0


# -- count regression ----------------------------------------------------------


def test_count_regression_is_affine():
    p, _ = _params(TaskKind.REPETITION_COUNT, seed=4)
    m_h = _rng(4).standard_normal((2, 6))
    r = count_regression(Tensor(m_h), p)
    assert r.data.shape == (2,)
    assert np.allclose(r.data, m_h @ p.w.data[:, 0] + p.b.data[0], atol=1e-12)


def test_predict_count_rounds_half_up_and_clamps():
    p, _ = _params(TaskKind.REPETITION_COUNT)
    p.w.data[...] = 0.0
    for raw, expected in [(-3.0, 0), (-0.2, 0), (0.49, 0), (0.5, 1), (2.5, 3),
                          (3.49, 3), (9.5, 10), (14.2, 10)]:
        p.b.data[0] = raw
        assert predict_count(Tensor(np.zeros(6)), p) == expected


def test_predict_count_batched():
    p, _ = _params(TaskKind.REPETITION_COUNT)
    p.w.data[...] = 0.0
    p.w.data[0, 0] = 1.0
    m_h = np.zeros((3, 6))
    m_h[:, 0] = [-1.0, 4.6, 99.0]
    out = predict_count(Tensor(m_h), p)
    assert out.tolist() == [0, 5, 10]


def test_l2_count_loss_cases():
    assert l2_count_loss(Tensor(np.array(2.5)), 2).data == pytest.approx(0.25)
    assert l2_count_loss(Tensor(np.array(4.0)), 4).data == 0.0
    batched = l2_count_loss(Tensor(np.array([1.0, 3.0])), [0, 5])
    assert np.allclose(batched.data, [1.0, 4.0])
    with pytest.raises(DimensionError):
        l2_count_loss(Tensor(np.array([1.0, 2.0])), [1, 2, 3])


# -- word classifier -----------------------------------------------------------


def test_classify_word_zero_params_is_uniform():
    p, _ = _params(TaskKind.FRAME_QA, answer_vocab=8)
    p.w.data[...] = 0.0
    probs = classify_word(Tensor(_rng(5).standard_normal(6)), p)
    assert np.allclose(probs.data, 1 / 8, atol=1e-12)


def test_classify_word_sums_to_one():
    p, _ = _params(TaskKind.FRAME_QA, answer_vocab=11, seed=6)
    probs = classify_word(Tensor(_rng(6).standard_normal((4, 6))), p)
    assert probs.data.shape == (4, 11)
    assert np.allclose(probs.data.sum(axis=-1), 1.0, atol=1e-9)
    assert probs.data.min() >= 0.0


def test_classify_word_closed_form():
    p, _ = _params(TaskKind.FRAME_QA, answer_vocab=5, seed=7)
    m_h = _rng(7).standard_normal(6)
    logits = m_h @ p.w.data + p.b.data
    e = np.exp(logits - logits.max())
    assert np.allclose(classify_word(Tensor(m_h), p).data, e / e.sum(), atol=1e-12)


def test_predict_word_is_shift_invariant():
    p, _ = _params(TaskKind.FRAME_QA, answer_vocab=7, seed=8)
    m_h = Tensor(_rng(8).standard_normal(6))
    before = predict_word(m_h, p)
    p.b.data[...] += 100.0  # uniform logit shift cannot move the argmax
    assert predict_word(m_h, p) == before


def test_cross_entropy_matches_negative_log_probability():
    p, _ = _params(TaskKind.FRAME_QA, answer_vocab=6, seed=9)
    m_h = Tensor(_rng(9).standard_normal(6))
    probs = classify_word(m_h, p).data
    for y in range(6):
        loss = cross_entropy_loss(word_logits(m_h, p), y)
        assert np.allclose(loss.data, -np.log(probs[y]), atol=1e-10)


def test_cross_entropy_survives_large_logits():
    logits = Tensor(np.array([1000.0, 0.0, -1000.0]))
    loss = cross_entropy_loss(logits, 0)
    assert np.isfinite(loss.data) and loss.data >= 0.0


def test_word_head_requires_vocab():
    store = ParameterStore(seed=0)
    with pytest.raises(DomainError):
        DecoderParams.create(store, "d", 6, TaskKind.FRAME_QA, answer_vocab=0)


# -- one head per task ----------------------------------------------------------


def test_task_predictions_argmax_and_ties():
    scores = Tensor(np.array([[0.1, 0.9, 0.3, 0.2, 0.0], [0.5] * 5]))
    # identical scores tie to the lowest index
    assert task_predictions(TaskKind.STATE_TRANSITION, scores).tolist() == [1, 0]
    assert task_predictions(TaskKind.FRAME_QA, scores).tolist() == [1, 0]
    assert task_predictions(TaskKind.REPETITION_COUNT, Tensor(np.array([-0.2, 2.5, 14.2]))).tolist() == [0, 3, 10]


def test_round_count_matches_predict_count():
    p, _ = _params(TaskKind.REPETITION_COUNT, seed=15)
    m_h = Tensor(_rng(15).standard_normal((50, 6)) * 8.0)
    r = count_regression(m_h, p)
    assert np.array_equal(round_count(r.data), predict_count(m_h, p))
    assert np.array_equal(task_predictions(TaskKind.REPETITION_COUNT, r), predict_count(m_h, p))


@pytest.mark.parametrize("task", list(TaskKind))
def test_head_is_the_task_decoder(task):
    p, _ = _params(task, answer_vocab=7, seed=16)
    m_h = Tensor(_rng(16).standard_normal((3, 6)))
    decoder = {TaskKind.REPETITION_COUNT: count_regression, TaskKind.FRAME_QA: word_logits}.get(task, score_choice)
    assert np.array_equal(head(task, m_h, p).data, decoder(m_h, p).data)


def test_task_loss_hinge_over_the_wrong_candidates():
    scores = _rng(17).standard_normal((4, NUM_CHOICES))
    answers = np.array([0, 2, 4, 2])
    loss = task_loss(TaskKind.REPEATING_ACTION, Tensor(scores), answers)
    for b, a in enumerate(answers):
        wrong = [max(0.0, 1.0 + scores[b, k] - scores[b, a]) for k in range(NUM_CHOICES) if k != a]
        assert loss.data[b] == pytest.approx(np.mean(wrong), abs=1e-15)


def test_task_loss_count_and_word():
    r = Tensor(np.array([1.0, 3.0]))
    assert np.array_equal(task_loss(TaskKind.REPETITION_COUNT, r, [0, 5]).data, l2_count_loss(r, [0, 5]).data)
    logits = Tensor(_rng(18).standard_normal((2, 5)))
    assert np.array_equal(task_loss(TaskKind.FRAME_QA, logits, [4, 1]).data, cross_entropy_loss(logits, [4, 1]).data)


def test_num_answers_per_task():
    assert NUM_CHOICES == 5
    assert num_answers(TaskKind.STATE_TRANSITION, 9) == num_answers(TaskKind.REPEATING_ACTION) == NUM_CHOICES
    assert num_answers(TaskKind.REPETITION_COUNT, 9) == COUNT_MAX + 1
    assert num_answers(TaskKind.FRAME_QA, 9) == 9


def test_choice_prediction_invariant_to_positive_weight_scaling():
    p, _ = _params(TaskKind.REPEATING_ACTION, seed=10)
    cands = _rng(10).standard_normal((5, 6))
    before = int(np.argmax(score_choice(Tensor(cands), p).data))
    p.w.data[...] *= 7.0
    assert int(np.argmax(score_choice(Tensor(cands), p).data)) == before


# -- range contracts -------------------------------------------------------------


def test_decoder_range_contracts_fuzzed():
    """10k random memory heads: count predictions stay in 0..10, class
    probabilities stay normalized, and choice scores stay finite."""
    rng = _rng(11)
    pc, _ = _params(TaskKind.REPETITION_COUNT, seed=12)
    pw, _ = _params(TaskKind.FRAME_QA, answer_vocab=9, seed=13)
    pm, _ = _params(TaskKind.REPEATING_ACTION, seed=14)
    heads = rng.standard_normal((10_000, 6)) * rng.uniform(0.1, 50.0, size=(10_000, 1))
    counts = predict_count(Tensor(heads), pc)
    assert counts.min() >= COUNT_MIN and counts.max() <= COUNT_MAX
    probs = classify_word(Tensor(heads), pw).data
    assert np.all(np.isfinite(probs))
    assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-6
    assert probs.min() >= 0.0
    scores = score_choice(Tensor(heads), pm).data
    assert np.all(np.isfinite(scores))
    words = predict_word(Tensor(heads), pw)
    assert words.min() >= 0 and words.max() < 9
