"""Tensor engine: forward oracles, gradient fidelity, geometry rules."""

import ctypes
import platform
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comem.tensor as T
from comem.errors import DimensionError, DomainError, GeometryError
from comem.tensor import ParameterStore, Tensor, grad_check
from oracle_ops import mul, sigmoid


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def _op_gradcheck(f, tensors, tol=1e-6, seed=0, max_coords=10):
    err = grad_check(f, tensors, eps=1e-5, max_coords=max_coords, seed=seed)
    assert err <= tol, f"gradient error {err:.3e} > {tol}"


# -- affine / matmul ----------------------------------------------------------


def test_affine_identity():
    x = _param([1.0, 0.0])
    W = _param(np.eye(2))
    y = T.matmul(x, W)
    assert np.allclose(y.data, [1.0, 0.0])


def test_affine_hand_case():
    y = T.matmul(_param([2.0, 3.0]), _param([[1.0], [1.0]]), _param([0.5]))
    assert np.allclose(y.data, [5.5])


def test_affine_matches_dot_product_loop():
    rng = _rng(7)
    x = rng.standard_normal(3)
    W = rng.standard_normal((3, 2))
    y = T.matmul(_param(x), _param(W)).data
    expected = [sum(x[i] * W[i, j] for i in range(3)) for j in range(2)]
    assert np.allclose(y, expected, atol=1e-12)


def test_affine_shape_errors_name_shapes():
    with pytest.raises(DimensionError) as e:
        T.matmul(_param([1.0, 2.0]), _param(np.zeros((3, 2))))
    assert "(2,)" in str(e.value) and "(3, 2)" in str(e.value)
    with pytest.raises(DimensionError):
        T.matmul(_param([1.0, 2.0]), _param(np.zeros((2, 3))), _param(np.zeros(4)))


def test_matmul_batched_matches_per_row():
    rng = _rng(1)
    x = rng.standard_normal((4, 5, 3))
    W = rng.standard_normal((3, 2))
    y = T.matmul(_param(x), _param(W)).data
    assert np.allclose(y, x @ W, atol=1e-12)


def test_single_column_matmul_rows_do_not_depend_on_the_row_count():
    """Float32 at width 2048, the paper-dims score heads' input: a row's product with a (D, 1)
    weight has the same bits alone, in a ragged block of rows, or among 320 rows."""
    rng = _rng(7)
    x = rng.standard_normal((320, 2048)).astype(np.float32)
    w = Tensor(rng.standard_normal((2048, 1)).astype(np.float32))
    full = T.matmul(Tensor(x), w).data
    for block in (1, 5, 13, 16):
        parts = [T.matmul(Tensor(x[i : i + block]), w).data for i in range(0, len(x), block)]
        assert np.array_equal(np.concatenate(parts), full), block


@pytest.mark.parametrize("shape, dout", [((2, 5, 7), 6), ((9, 7), 1), ((7,), 3)])
def test_biased_matmul_is_one_node_with_the_bits_of_matmul_then_add(shape, dout):
    rng = _rng(12)
    x, W, b = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
               for s in (shape, (7, dout), (dout,)))
    y = T.matmul(x, W, b)
    assert [n for n in T._topo_order(y._node) if n._backward is not None] == [y._node]
    ref = T.matmul(x, W) + b
    assert y.data.dtype == ref.data.dtype and y.data.tobytes() == ref.data.tobytes()
    g = rng.standard_normal(y.shape).astype(np.float32)
    y.backward(g)
    grads = [t.grad for t in (x, W, b)]
    for t in (x, W, b):
        t.grad = None
    ref.backward(g)
    for got, t in zip(grads, (x, W, b)):
        assert got.dtype == t.grad.dtype and got.tobytes() == t.grad.tobytes()


# -- conv ----------------------------------------------------------------------


def test_conv_keeps_length_with_pad_one():
    rng = _rng(0)
    x = _param(rng.standard_normal((34, 2048)))
    K = _param(rng.standard_normal((3, 2048, 4)) * 0.01)
    y = T.conv1d_temporal(x, K, stride=1, pad=1)
    assert y.data.shape == (34, 4)


def test_conv_delta_kernel_reproduces_channel():
    rng = _rng(2)
    x = rng.standard_normal((6, 3))
    K = np.zeros((3, 3, 1))
    K[1, 2, 0] = 1.0  # centered tap picking input channel 2
    y = T.conv1d_temporal(_param(x), _param(K), stride=1, pad=1)
    assert np.allclose(y.data[:, 0], x[:, 2], atol=1e-12)


def test_conv_k1_identity_kernel_is_identity():
    rng = _rng(3)
    x = rng.standard_normal((5, 4))
    K = np.eye(4)[None]  # (1, 4, 4)
    y = T.conv1d_temporal(_param(x), _param(K), stride=1, pad=0)
    assert np.allclose(y.data, x, atol=1e-12)


def test_conv_matches_sliding_window_oracle():
    x = np.array([[1.0], [2.0], [-1.0], [3.0]])
    K = np.array([[[2.0]], [[0.5]]])  # k=2
    y = T.conv1d_temporal(_param(x), _param(K), stride=1, pad=0).data
    expected = [2 * x[i, 0] + 0.5 * x[i + 1, 0] for i in range(3)]
    assert np.allclose(y[:, 0], expected, atol=1e-12)


def test_conv_random_matches_loop_oracle():
    rng = _rng(11)
    L, cin, cout, k, stride, pad = 7, 2, 3, 3, 2, 1
    x = rng.standard_normal((L, cin))
    K = rng.standard_normal((k, cin, cout))
    y = T.conv1d_temporal(_param(x), _param(K), stride=stride, pad=pad).data
    xp = np.pad(x, ((pad, pad), (0, 0)))
    lout = (L + 2 * pad - k) // stride + 1
    expected = np.zeros((lout, cout))
    for o in range(lout):
        for r in range(k):
            expected[o] += xp[o * stride + r] @ K[r]
    assert np.allclose(y, expected, atol=1e-12)


def test_conv_empty_output_rejected():
    with pytest.raises(GeometryError):
        T.conv1d_temporal(_param(np.zeros((2, 1))), _param(np.zeros((4, 1, 1))), stride=1, pad=0)


# -- deconv ----------------------------------------------------------------------


def test_deconv_lengths():
    rng = _rng(4)
    K = _param(rng.standard_normal((3, 2, 2)))
    assert T.deconv1d_temporal(_param(rng.standard_normal((17, 2))), K, target_len=34).data.shape == (34, 2)
    assert T.deconv1d_temporal(_param(rng.standard_normal((9, 2))), K, target_len=17).data.shape == (17, 2)


def test_deconv_matches_scatter_loop_oracle():
    rng = _rng(5)
    L, cin, cout, k, target = 4, 2, 3, 3, 8
    x = rng.standard_normal((L, cin))
    K = rng.standard_normal((k, cin, cout))
    y = T.deconv1d_temporal(_param(x), _param(K), target_len=target).data
    raw = np.zeros(((L - 1) * 2 + k, cout))
    for i in range(L):
        for r in range(k):
            raw[2 * i + r] += x[i] @ K[r]
    assert np.allclose(y, raw[:target], atol=1e-12)


def test_deconv_is_transpose_of_strided_conv():
    """For k=2 the untrimmed output equals M^T x, M the stride-2 conv matrix."""
    rng = _rng(6)
    L, k, target = 2, 2, 4
    x = rng.standard_normal((L, 1))
    K = rng.standard_normal((k, 1, 1))
    # conv matrix M: R^target -> R^L for conv1d(stride=2, pad=0)
    M = np.zeros((L, target))
    for col in range(target):
        basis = np.zeros((target, 1))
        basis[col] = 1.0
        M[:, col] = T.conv1d_temporal(_param(basis), _param(K), stride=2, pad=0).data[:, 0]
    y = T.deconv1d_temporal(_param(x), _param(K), target_len=target).data
    assert np.allclose(y[:, 0], M.T @ x[:, 0], atol=1e-12)


def test_deconv_rejects_unreachable_targets():
    x = _param(np.zeros((5, 1)))
    K = _param(np.zeros((3, 1, 1)))
    for bad in (8, 11, 12):
        with pytest.raises(GeometryError):
            T.deconv1d_temporal(x, K, target_len=bad)


@pytest.mark.parametrize("lead, L", [((), 8), ((2,), 7)], ids=["unbatched-even", "batched-odd"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("stride, pad", [(1, (1, 1)), (2, (0, 0)), (2, (0, 1)), (2, (1, 1))])
def test_col2im_is_the_adjoint_of_im2col(stride, pad, k, lead, L):
    """<im2col(x), c> = <x, col2im(c) trimmed by the pad>: the scatter that conv's input gradient and the deconv share."""
    rng, C = _rng(21), 3
    lout = (L + sum(pad) - k) // stride + 1
    x = rng.standard_normal(lead + (L, C))
    c = rng.standard_normal(lead + (lout, k * C))
    lhs = np.sum(T._im2col(x, k, stride, pad, lout) * c)
    back = T._col2im(c, k, stride, L + sum(pad))[..., pad[0] : pad[0] + L, :]
    assert back.shape == x.shape
    assert abs(lhs - np.sum(x * back)) <= 1e-12 * max(1.0, abs(lhs))


def _bytes_kept(forward) -> int:
    """Bytes a taped forward still holds beyond its output; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        y = forward()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y._node._backward is not None
    return held - y.data.nbytes


@pytest.mark.parametrize("op", ["conv stride 1", "conv stride 2", "deconv", "maxpool odd L"])
def test_taped_temporal_ops_keep_no_copies(op):
    """Beyond its output, a taped op keeps less than one copy of its input (conv, pool) or kernel (deconv)."""
    rng = _rng(21)
    x = _param(rng.standard_normal((4, 65, 128)))
    if op.startswith("conv"):
        K = _param(rng.standard_normal((3, 128, 128)))
        kept, limit = _bytes_kept(lambda: T.conv1d_temporal(x, K, stride=int(op[-1]), pad=1)), x.data.nbytes
    elif op == "deconv":
        x, K = _param(rng.standard_normal((2, 9, 128))), _param(rng.standard_normal((3, 128, 128)))
        kept, limit = _bytes_kept(lambda: T.deconv1d_temporal(x, K, target_len=18)), K.data.nbytes
    else:
        kept, limit = _bytes_kept(lambda: T.maxpool1d(x)), x.data.nbytes
    assert kept < limit, f"{op}: keeps {kept / limit:.2f} copies"


def test_taped_stack_of_relu_levels_keeps_no_dropped_level():
    """Once the caller drops two ReLU'd conv/deconv levels stacked into a matmul, the tape keeps
    neither them nor their pre-activations: less than one level beyond the stack, the masks and the output."""
    rng = _rng(22)
    x, h = _param(rng.standard_normal((4, 64, 64))), _param(rng.standard_normal((4, 32, 64)))
    Kc, Kd, W = (_param(rng.standard_normal(s)) for s in ((3, 64, 64), (3, 64, 64), (64, 8)))

    def forward():
        levels = [T.relu(T.conv1d_temporal(x, Kc, pad=1)), T.relu(T.deconv1d_temporal(h, Kd, target_len=64))]
        return T.matmul(T.stack(levels, axis=-3), W)

    level = x.data.nbytes  # one (4, 64, 64) float64 level
    beyond = _bytes_kept(forward) - 2 * level - 2 * (level // 8)  # the stack and two bool masks
    assert beyond < level, f"keeps {beyond / level:.2f} levels beyond the stack, the masks and the output"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_keeps_a_sign_mask_with_the_gradient_bits_of_the_input_sign(dtype):
    x = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 2.5, -1.5, 1e-30], dtype=dtype)
    g = np.array([1.0, 2.0, np.inf, -3.0, np.nan, 4.0, -np.inf, 5.0, 6.0], dtype=dtype)
    a = Tensor(x.copy(), requires_grad=True)
    y = T.relu(a)
    assert [s.dtype for s in y._node.saved] == [np.bool_]
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN on both sides
        y.backward(g)
        want = g * (x > 0)
    assert a.grad.dtype == want.dtype and a.grad.tobytes() == want.tobytes()


# -- maxpool ----------------------------------------------------------------------


def test_maxpool_ceiling_lengths():
    rng = _rng(7)
    assert T.maxpool1d(_param(rng.standard_normal((34, 2)))).data.shape == (17, 2)
    assert T.maxpool1d(_param(rng.standard_normal((17, 2)))).data.shape == (9, 2)


def test_maxpool_hand_case():
    y = T.maxpool1d(_param([[1.0], [5.0], [2.0], [2.0]]))
    assert np.allclose(y.data, [[5.0], [2.0]])


def test_maxpool_matches_window_loop():
    rng = _rng(3)
    x = rng.standard_normal((6, 3))
    y = T.maxpool1d(_param(x)).data
    expected = np.stack([x[2 * i : 2 * i + 2].max(axis=0) for i in range(3)])
    assert np.allclose(y, expected, atol=1e-12)


def test_maxpool_odd_tail_is_single_element():
    x = _param([[1.0], [9.0], [-4.0]])
    y = T.maxpool1d(x)
    assert np.allclose(y.data, [[9.0], [-4.0]])


def test_maxpool_gradient_tie_breaks_to_earliest():
    x = _param([[2.0], [2.0]])
    y = T.tsum(T.maxpool1d(x))
    y.backward()
    assert np.allclose(x.grad, [[1.0], [0.0]])


def _argmax_maxpool(x: np.ndarray, g: np.ndarray):
    """Window-2 max pooling by ``argmax`` over the window axis: output and input gradient."""
    L = x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(0, L % 2), (0, 0)], constant_values=-np.inf)
    xr = xp.reshape(xp.shape[:-2] + (xp.shape[-2] // 2, 2, x.shape[-1]))
    idx = xr.argmax(axis=-2)[..., None, :]
    gp = np.zeros_like(xr)
    np.put_along_axis(gp, idx, g[..., None, :], axis=-2)
    return np.take_along_axis(xr, idx, axis=-2).squeeze(-2), gp.reshape(xp.shape)[..., :L, :]


@pytest.mark.parametrize("length", [8, 7])
def test_maxpool_matches_argmax_bit_for_bit_with_ties_and_nans(length):
    """Ties go to the earlier index and the first NaN of a window wins, as with ``argmax``."""
    rng = _rng(11)
    x = rng.choice(np.array([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf, np.nan]), size=(3, length, 40))
    g = rng.standard_normal((3, (length + 1) // 2, 40))
    t = _param(x)
    y = T.maxpool1d(t)
    y.backward(g)
    data, grad = _argmax_maxpool(x, g)
    assert y.data.tobytes() == data.tobytes()
    assert t.grad.tobytes() == grad.tobytes()


# -- softmax / logsumexp ------------------------------------------------------------


def test_softmax_symmetry_and_closed_form():
    assert np.allclose(T.softmax(_param([0.0, 0.0, 0.0])).data, [1 / 3] * 3)
    y = T.softmax(_param([1.0, 2.0])).data
    assert np.allclose(y, [0.26894142, 0.73105858], atol=1e-7)


def test_softmax_is_overflow_stable():
    y = T.softmax(_param([1000.0, 0.0])).data
    assert np.isfinite(y).all() and y[0] > 0.999999


def test_softmax_empty_axis_rejected():
    with pytest.raises(GeometryError):
        T.softmax(Tensor(np.zeros((3, 0))), axis=-1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_sums_to_one(values):
    y = T.softmax(Tensor(np.asarray(values)))
    assert abs(float(y.data.sum()) - 1.0) <= 1e-6
    assert (y.data > 0).all()


def test_logsumexp_matches_naive_on_moderate_values():
    rng = _rng(8)
    x = rng.standard_normal((4, 5))
    y = T.logsumexp(_param(x), axis=-1).data
    assert np.allclose(y, np.log(np.exp(x).sum(axis=-1)), atol=1e-12)


# -- elementwise ----------------------------------------------------------------------


def test_pointwise_fixed_points():
    assert T.tanh(_param([0.0])).data[0] == 0.0
    assert T.relu(_param([-1.0])).data[0] == 0.0
    assert sigmoid(_param([0.0])).data[0] == 0.5


def test_concat_widths_add_up():
    a = Tensor(np.zeros(1024))
    b = Tensor(np.zeros(512))
    assert T.concat([a, b]).data.shape == (1536,)


def test_binary_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        T.add(_param(np.zeros(3)), _param(np.zeros(4)))
    with pytest.raises(DimensionError):
        mul(_param(np.zeros((2, 3))), _param(np.zeros((3, 2))))


def test_mul_backward_is_other_operand():
    rng = _rng(9)
    a = _param(rng.standard_normal(5))
    b = _param(rng.standard_normal(5))
    T.tsum(mul(a, b)).backward()
    assert np.allclose(a.grad, b.data, atol=1e-12)
    assert np.allclose(b.grad, a.data, atol=1e-12)


def test_broadcast_add_gradient_reduces():
    a = _param(np.ones((3, 4)))
    b = _param(np.ones(4))
    T.tsum(a + b).backward()
    assert np.allclose(b.grad, [3.0] * 4)


# -- grad_check harness ------------------------------------------------------------


def test_gradcheck_linear_function_is_exact():
    x = _param([1.0, -2.0, 3.0])
    assert grad_check(lambda: T.tsum(x), [x]) <= 1e-10


def test_gradcheck_quadratic_closed_form():
    x = _param([1.0, 2.0])
    loss = T.tsum(T.square(x))
    loss.backward()
    assert np.allclose(x.grad, [2.0, 4.0])
    x.grad = None
    assert grad_check(lambda: T.tsum(T.square(x)), [x], eps=1e-4) <= 1e-6


def test_gradcheck_rejects_nonscalar():
    x = _param([1.0, 2.0])
    with pytest.raises(DomainError):
        grad_check(lambda: x, [x])


# -- gradient fidelity across primitives, 10 seeds -----------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_match_finite_differences(seed):
    rng = _rng(100 + seed)
    x = _param(rng.standard_normal((5, 3)))
    W = _param(rng.standard_normal((3, 4)))
    b = _param(rng.standard_normal(4))
    K = _param(rng.standard_normal((3, 3, 2)))
    Kd = _param(rng.standard_normal((3, 3, 3)))
    v = _param(rng.standard_normal(6))
    s = _param(rng.uniform(0.0, 1.0, (2, 3, 2, 4)))  # (batch, K, N, L)
    levels = _param(rng.standard_normal((2, 2, 4, 5)))  # (batch, N, L, D)
    p_zrh = _param(rng.standard_normal((2, 4, 9)))  # (batch, L, [z | r | h]) for H = 3
    p_rh = _param(rng.standard_normal((2, 4, 6)))  # (batch, L, [r | h])
    u_zr = _param(rng.standard_normal((3, 6)))
    u_r = _param(rng.standard_normal((3, 3)))
    u_h = _param(rng.standard_normal((3, 3)))
    gate = _param(rng.uniform(0.0, 1.0, (2, 4)))
    keys = _param(rng.standard_normal((2, 2, 4, 3)))  # (batch, N, L, Z)
    queries = _param(rng.standard_normal((2, 5, 3)))  # (batch, K, Z)
    query = _param(rng.standard_normal((2, 1, 3)))  # (batch, 1, Z)
    keys0 = _param(rng.standard_normal((2, 4, 3)))  # (N, L, Z), no leading axes
    queries0 = _param(rng.standard_normal((5, 3)))  # (K, Z)
    w_gate = _param(rng.standard_normal((3, 1)))
    xb = _param(rng.standard_normal((2, 4, 3)))  # drawn last, so the cases above keep their inputs
    w_col = _param(rng.standard_normal((3, 1)))
    b_col = _param(rng.standard_normal(1))

    def take_twice():
        y = T.tanh(x)  # the second take adds into the gradient the first one made
        return T.tsum(mul(T.take(y, (slice(None), 1)), T.take(y, (np.arange(5), np.array([1, 1, 2, 0, 1])))))

    cases = [
        (lambda: T.tsum(T.tanh(T.matmul(x, W, b))), [x, W, b]),
        (lambda: T.tsum(sigmoid(T.matmul(x, W))), [x, W]),
        (lambda: T.tsum(T.square(T.softmax(x, axis=-1))), [x]),
        (lambda: T.tsum(T.logsumexp(x, axis=-1)), [x]),
        (lambda: T.tsum(T.conv1d_temporal(x, K, stride=1, pad=1)), [x, K]),
        (lambda: T.tsum(T.tanh(T.deconv1d_temporal(x, Kd, target_len=9))), [x, Kd]),
        (lambda: T.tsum(T.square(T.maxpool1d(x))), [x]),
        (lambda: T.tsum(mul(T.relu(v), T.tanh(v))), [v]),
        (lambda: T.tsum(T.square(T.concat([v, T.scale(v, 2.0)]))), [v]),
        (lambda: T.tsum(T.square(T.take(levels, (..., -1, slice(None))))), [levels]),
        (lambda: T.tsum(T.square(T.take(x, (np.arange(5), np.array([0, 2, 1, 0, 2]))))), [x]),
        (lambda: T.tsum(T.square(T.take(v, (np.array(4),)))), [v]),
        (lambda: T.tsum(T.square(T.take(x, np.repeat(np.arange(5), 3)))), [x]),
        (take_twice, [x]),
        (lambda: T.tsum(T.square(T.gru_scan(p_zrh, u_zr, u_h))), [p_zrh, u_zr, u_h]),
        (lambda: T.tsum(T.square(T.gru_scan(p_rh, u_r, u_h, gate=gate))), [p_rh, u_r, u_h, gate]),
        (lambda: T.tsum(T.square(T.stack([v, T.scale(v, -1.0)], axis=0))), [v]),
        (lambda: T.tsum(T.square(T.tmean(x, axis=0))), [x]),
        (lambda: T.tsum(T.square(T.mix_levels(s, levels))), [s, levels]),
        (lambda: T.tsum(T.square(T.additive_gate(keys, queries, w_gate))), [keys, queries, w_gate]),
        (lambda: T.tsum(T.square(T.additive_gate(keys, query, w_gate))), [keys, query, w_gate]),
        (lambda: T.tsum(T.square(T.additive_gate(keys0, queries0, w_gate))), [keys0, queries0, w_gate]),
        (lambda: T.tsum(T.square(T.matmul(xb, W, b))), [xb, W, b]),
        (lambda: T.tsum(T.square(T.matmul(x, w_col, b_col))), [x, w_col, b_col]),
        (lambda: T.tsum(T.square(T.matmul(T.take(x, 0), W, b))), [x, W, b]),
    ]
    for f, tensors in cases:
        for t in tensors:
            t.grad = None
        _op_gradcheck(f, tensors, tol=1e-4, seed=seed, max_coords=4)


def test_mix_levels_matches_loop_oracle():
    rng = _rng(7)
    s = rng.uniform(0.0, 1.0, (2, 3, 4, 5))  # (batch, K, N, L)
    x = rng.standard_normal((2, 4, 5, 6))  # (batch, N, L, D)
    out = T.mix_levels(Tensor(s), Tensor(x)).data
    assert out.shape == (2, 3, 5, 6)
    for b in range(2):
        for k in range(3):
            for j in range(5):
                expected = sum(s[b, k, n, j] * x[b, n, j] for n in range(4))
                assert np.allclose(out[b, k, j], expected, atol=1e-12)
    with pytest.raises(DimensionError):
        T.mix_levels(Tensor(s), Tensor(x[:, :3]))
    with pytest.raises(DimensionError):
        T.mix_levels(Tensor(s[:1]), Tensor(x))


def _composed_gate(f: Tensor, u: Tensor, w: Tensor) -> Tensor:
    """``tanh(f + u) @ w`` from separate ops, which hold the (..., K, N, L, Z) sum and its ``tanh``."""
    lead, (N, L, Z), K = f.shape[:-3], f.shape[-3:], u.shape[-2]
    g = T.matmul(T.tanh(T.reshape(f, lead + (1, N, L, Z)) + T.reshape(u, lead + (K, 1, 1, Z))), w)
    return T.reshape(g, lead + (K, N, L))


@pytest.mark.parametrize("lead, K", [((2,), 5), ((2,), 1), ((), 4), ((2, 3), 2)])
def test_additive_gate_matches_loop_and_composed_oracles(lead, K):
    rng = _rng(9)
    N, L, Z = 3, 4, 6
    f, u, w = rng.standard_normal(lead + (N, L, Z)), rng.standard_normal(lead + (K, Z)), rng.standard_normal((Z, 1))
    out = T.additive_gate(Tensor(f), Tensor(u), Tensor(w)).data
    assert out.shape == lead + (K, N, L)
    for *row, k, n, l in np.ndindex(*out.shape):
        row = tuple(row)
        assert abs(out[row + (k, n, l)] - np.tanh(f[row + (n, l)] + u[row + (k,)]) @ w[:, 0]) <= 1e-12
    seed_grad = rng.standard_normal(out.shape)
    results = []
    for op in (T.additive_gate, _composed_gate):
        leaves = [_param(f), _param(u), _param(w)]
        y = op(*leaves)
        y.backward(seed_grad)
        results.append([y.data] + [t.grad for t in leaves])
    for got, want, name in zip(*results, ("value", "df", "du", "dw")):
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def test_additive_gate_under_no_grad_records_nothing():
    rng = _rng(10)
    args = (_param(rng.standard_normal((2, 3, 4, 5))), _param(rng.standard_normal((2, 2, 5))),
            _param(rng.standard_normal((5, 1))))
    taped = T.additive_gate(*args)
    with T.no_grad():
        quiet = T.additive_gate(*args)
    assert taped._parents and taped._node._backward is not None
    assert np.array_equal(quiet.data, taped.data)
    assert quiet._parents == () and quiet._node._backward is None


def test_additive_gate_rejects_mismatched_shapes():
    f, u, w = np.zeros((2, 3, 4, 5)), np.zeros((2, 2, 5)), np.zeros((5, 1))
    for bad in ((f[..., :4], u, w),  # f's Z
                (f, u[..., :4], w),  # u's Z
                (f, u[:1], w),  # leading axes
                (f, u[:, None], w),  # a second query axis
                (f[0, 0], u[0], w),  # f without (N, L, Z)
                (f, u, w[:4]),  # w's rows
                (f, u, np.zeros((5, 2)))):  # w's columns
        with pytest.raises(DimensionError):
            T.additive_gate(*(Tensor(a) for a in bad))


def test_additive_gate_never_holds_the_full_tanh():
    """Forward and backward peak below one (R, K, N, L, Z) array; numpy reports its buffers to tracemalloc."""
    R, K, N, L, Z = 4, 5, 3, 34, 64
    rng = _rng(11)
    f, u, w = _param(rng.standard_normal((R, N, L, Z))), _param(rng.standard_normal((R, K, Z))), \
        _param(rng.standard_normal((Z, 1)))
    seed_grad = np.ones((R, K, N, L))
    full = R * K * N * L * Z * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        T.additive_gate(f, u, w).backward(seed_grad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.grad.shape == f.shape and u.grad.shape == u.shape and w.grad.shape == w.shape
    assert peak < full, f"peak {peak / full:.2f}x one (R, K, N, L, Z) array"


def test_gru_scan_under_no_grad_records_nothing():
    rng = _rng(8)
    args = (_param(rng.standard_normal((2, 5, 6))), _param(rng.standard_normal((3, 3))),
            _param(rng.standard_normal((3, 3))))
    gate = _param(rng.uniform(0.0, 1.0, (2, 5)))
    taped = T.gru_scan(*args, gate=gate)
    with T.no_grad():
        quiet = T.gru_scan(*args, gate=gate)
    assert taped._parents and taped._node._backward is not None
    assert np.array_equal(quiet.data, taped.data)
    assert quiet._parents == () and quiet._node._backward is None


def test_take_gradient_accumulates_repeats():
    table = _param(np.arange(12, dtype=np.float64).reshape(4, 3))
    ids = np.array([1, 1, 3])
    T.tsum(T.take(table, ids)).backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.allclose(table.grad, expected)


def test_gradient_linearity_of_independent_graphs():
    rng = _rng(12)
    x = _param(rng.standard_normal(4))
    T.tsum(T.square(x)).backward()
    g1 = x.grad.copy()
    x.grad = None
    T.tsum(T.tanh(x)).backward()
    g2 = x.grad.copy()
    x.grad = None
    (T.tsum(T.square(x)) + T.tsum(T.tanh(x))).backward()
    assert np.allclose(x.grad, g1 + g2, atol=1e-12)


def test_backward_visits_shared_nodes_once():
    x = _param([2.0])
    y = T.square(x)  # used twice below
    (y + y).backward()
    assert np.allclose(x.grad, [8.0])  # d(2x^2)/dx = 4x


def test_add_gives_each_parent_its_own_gradient():
    rng = _rng(15)
    a = _param(rng.standard_normal((2, 3)))
    b = _param(rng.standard_normal((2, 3)))
    T.add(a, b).backward(rng.standard_normal((2, 3)))
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    assert np.array_equal(a.grad, b.grad)
    before = b.grad.copy()
    T.tsum(T.square(a)).backward()  # a later accumulation into a only
    assert np.array_equal(b.grad, before)
    assert not np.array_equal(a.grad, before)


def test_backward_does_not_take_the_callers_seed():
    x = _param([1.0, 2.0])
    seed = np.array([0.5, -1.0])
    x.backward(seed)
    x.backward(seed)
    assert np.array_equal(seed, [0.5, -1.0])
    assert np.array_equal(x.grad, [1.0, -2.0])


def test_broadcast_tsum_gradient_is_copied_before_accumulation():
    x = _param(np.ones((2, 3)))
    T.tsum(x).backward()  # the first gradient x sees is a read-only broadcast view
    assert x.grad.flags.writeable
    T.tsum(T.scale(x, 2.0)).backward()
    assert np.array_equal(x.grad, np.full((2, 3), 3.0))


def test_finite_outputs_on_finite_inputs():
    rng = _rng(13)
    x = _param(rng.standard_normal((8, 4)) * 50)
    y = T.softmax(T.tanh(T.matmul(x, _param(rng.standard_normal((4, 4))))), axis=-1)
    loss = T.tsum(T.square(y))
    loss.backward()
    assert np.isfinite(loss.data).all() and np.isfinite(x.grad).all()


def test_data_cannot_be_reassigned():
    """The node records the value's shape and dtype, so ``data`` is read-only; its array stays writable."""
    t = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(AttributeError):
        t.data = t.data.astype(np.float32)
    t.data[...] = 1.0
    T.tsum(t).backward()
    assert t.data.dtype == t.grad.dtype == np.float64 and np.array_equal(t.data, np.ones(3))


def test_no_grad_blocks_tape():
    x = _param([1.0, 2.0])
    with T.no_grad():
        y = T.square(x)
    assert y._parents == () and y._node._backward is None


def test_grad_shape_always_matches_data():
    rng = _rng(14)
    x = _param(rng.standard_normal((3, 2)))
    T.tsum(T.square(T.reshape(x, (6,)))).backward()
    assert x.grad.shape == x.data.shape


def test_backward_frees_the_graph_and_keeps_leaf_gradients():
    rng = _rng(16)
    x = _param(rng.standard_normal((3, 4)))
    W = _param(rng.standard_normal((4, 2)))
    h = T.tanh(T.matmul(x, W))  # an intermediate the test holds
    loss = T.tsum(T.square(h))
    loss.backward()
    for node in (h, loss):
        assert node.grad is None and node._parents == ()
    dh = 2.0 * h.data * (1.0 - h.data * h.data)  # the data survives the walk
    assert np.allclose(W.grad, x.data.T @ dh, atol=1e-12)
    assert np.allclose(x.grad, dh @ W.data.T, atol=1e-12)


def test_second_backward_through_a_freed_graph_raises():
    x = _param([1.0, -2.0, 0.5])
    y = T.tanh(x)
    T.tsum(T.square(y)).backward()
    first = x.grad.copy()
    with pytest.raises(DomainError, match="freed graph"):
        T.tsum(T.scale(y, 3.0)).backward()
    with pytest.raises(DomainError, match="freed graph"):
        y.backward(np.ones(3))
    assert np.array_equal(x.grad, first)
    x.grad = None
    T.tsum(T.scale(T.tanh(x), 3.0)).backward()  # a fresh forward records a new graph
    assert np.allclose(x.grad, 3.0 * (1.0 - np.tanh(x.data) ** 2), atol=1e-12)


def test_leaf_gradients_are_c_contiguous():
    rng = _rng(17)
    K = _param(rng.standard_normal((4, 3, 2)))  # deconv kernel: one gemm per tap, stacked tap-major
    T.tsum(T.square(T.deconv1d_temporal(Tensor(rng.standard_normal((6, 3))), K, 12))).backward()
    assert K.grad.flags.c_contiguous


# -- parameter store ------------------------------------------------------------


def test_parameter_store_deterministic_and_ordered():
    s1 = ParameterStore(seed=3)
    s2 = ParameterStore(seed=3)
    for s in (s1, s2):
        s.add("w", (4, 5))
        s.add("b", (5,))
    (n1, w1), (n2, b1) = s1.items()
    assert [n1, n2] == ["w", "b"]
    assert np.array_equal(w1.data, s2.tensors()[0].data)
    assert np.allclose(b1.data, 0.0)  # 1-d initializes to zeros


def test_parameter_store_rejects_duplicates():
    s = ParameterStore()
    s.add("w", (2, 2))
    with pytest.raises(DomainError):
        s.add("w", (2, 2))


def test_parameter_store_init_bound():
    s = ParameterStore(seed=0)
    w = s.add("w", (100, 50))
    bound = np.sqrt(6.0 / 150)
    assert np.abs(w.data).max() <= bound


@pytest.mark.parametrize("shape, block", [((100, 50), None), ((3, 7, 9), None), ((1, 1), None), ((6, 3 * 4), 4)],
                         ids=["shape0", "shape1", "shape2", "shape3"])
def test_initial_weights_are_drawn_in_the_store_dtype(shape, block):
    """Float64 stores draw exactly ``Generator.uniform``'s weights; float32 stores draw float32 in the bound.

    A GRU weight block (D, 3H) passes ``fan_out=H``: each gate keeps the bound ``sqrt(6 / (D + H))``.
    """
    fan_in, fan_out = int(np.prod(shape[:-1])), shape[-1] if len(shape) == 2 else shape[0] * shape[-1]
    bound = np.sqrt(6.0 / (fan_in + (block or fan_out)))
    w64 = ParameterStore(seed=4, dtype=np.float64).add("w", shape, fan_out=block).data
    assert w64.tobytes() == _rng(4).uniform(-bound, bound, size=shape).tobytes()
    w32 = ParameterStore(seed=4, dtype=np.float32).add("w", shape, fan_out=block).data
    assert w32.dtype == np.float32 and np.abs(w32).max() <= np.float32(bound)


_B = T.DRAW_BLOCK
# odd sizes, and sizes just below, at and above the chunk boundaries of 2 and 3 threads
_DRAW_SIZES = [21, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 3 * _B - 1, 3 * _B, 3 * _B + 1, 6 * _B + 5]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("earlier", [0, 1, 3], ids=lambda n: f"earlier{n}")
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_chunked_draw_equals_one_serial_draw(monkeypatch, threads, earlier, dtype):
    """Each weight, and the draw after it, equals one ``Generator.random`` call's, whatever the thread count.

    An odd number of earlier float32 values leaves the generator holding a pending uint32 half.  Three
    threads on two cores, switching every microsecond, must still give the serial bits.
    """
    monkeypatch.setattr(T, "THREADS", threads)
    before = set(threading.enumerate())
    store, serial = ParameterStore(seed=9, dtype=dtype), _rng(9)
    if earlier:
        store.add("earlier", (earlier, 1))
        serial.random((earlier, 1), dtype=dtype)

    def serial_glorot(n):
        s = np.dtype(dtype).type(np.sqrt(6.0 / (n + 1)))
        w = serial.random((n, 1), dtype=dtype)
        w *= 2 * s
        w -= s
        return w.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i, n in enumerate(_DRAW_SIZES):
            assert store.add(f"w{i}", (n, 1)).data.tobytes() == serial_glorot(n), n
            assert store.add(f"next{i}", (1, 1)).data.tobytes() == serial_glorot(1), n
    finally:
        sys.setswitchinterval(interval)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_philox_at_continues_the_serial_stream(dtype):
    """From every buffer position, with and without a pending uint32 half, which a float64 draw keeps."""
    for earlier in range(8):
        rng = _rng(5)
        rng.random(earlier, dtype=np.float32)
        state = rng.bit_generator.state
        for start in range(9, 30):
            serial = _rng(5)
            serial.random(earlier, dtype=np.float32)
            serial.random(start, dtype=dtype)
            moved = np.random.Generator(T._philox_at(state, start, dtype))
            for g in (dtype, np.float32):
                assert moved.random(7, dtype=g).tobytes() == serial.random(7, dtype=g).tobytes(), (earlier, start)


def test_given_values_validate_names_and_shapes():
    s = ParameterStore(values={"w": np.zeros((2, 2)), "extra": np.zeros(1)})
    s.add("w", (2, 2))
    with pytest.raises(DomainError, match="extra"):
        s.check_filled()
    with pytest.raises(DomainError, match="'v'"):
        ParameterStore(values={"w": np.zeros((2, 2))}).add("v", (2, 2))
    with pytest.raises(DimensionError):
        ParameterStore(values={"w": np.zeros((3, 2))}).add("w", (2, 2))


def test_given_values_become_the_parameters():
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    s = ParameterStore(values={"w": w, "b": np.ones(3)})
    assert s.add("w", (2, 3)).data is w
    b = s.add("b", (3,))
    assert b.data.dtype == np.float32 and np.array_equal(b.data, np.ones(3))
    s.check_filled()


# -- subnormal flushing --------------------------------------------------------------

x86_64_linux = pytest.mark.skipif(sys.platform != "linux" or platform.machine() != "x86_64",
                                  reason="flush_subnormals sets MXCSR only on x86-64 Linux")


def _mxcsr() -> int:
    """The calling thread's MXCSR control bits (its sticky exception flags, bits 0-5, masked out).

    MXCSR is the last 4 bytes of glibc's 32-byte x86-64 ``fenv_t``.
    """
    env = ctypes.create_string_buffer(32)
    assert ctypes.CDLL("libm.so.6").fegetenv(env) == 0
    return int.from_bytes(env.raw[28:32], "little") & ~0x3F


def _subnormals(a: np.ndarray) -> int:
    return int(((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)).sum())


def _saturated_gradient_subnormals() -> list[int]:
    """Subnormals in the float32 gradients of a saturated ``gru_scan`` (proj, u_gates, u_h) and ``softmax``."""
    rng = _rng(31)
    H = 8
    proj = Tensor(rng.standard_normal((4, 6, 3 * H)).astype(np.float32) * 60, requires_grad=True)
    u_gates = Tensor(rng.standard_normal((H, 2 * H)).astype(np.float32), requires_grad=True)
    u_h = Tensor(rng.standard_normal((H, H)).astype(np.float32), requires_grad=True)
    T.tsum(T.gru_scan(proj, u_gates, u_h)).backward()
    x = Tensor(rng.standard_normal((16, 12)).astype(np.float32) * 40, requires_grad=True)
    y = T.softmax(x)
    y.backward(rng.standard_normal(y.shape).astype(np.float32))
    return [_subnormals(t.grad) for t in (proj, u_gates, u_h, x)]


@x86_64_linux
def test_flush_subnormals_leaves_no_subnormal_in_saturated_gradients():
    plain = _saturated_gradient_subnormals()
    assert plain[0] > 0 and plain[3] > 0, plain  # the gru_scan and softmax cases do reach subnormals
    with T.flush_subnormals():
        assert _saturated_gradient_subnormals() == [0, 0, 0, 0]
    assert _saturated_gradient_subnormals() == plain


@x86_64_linux
def test_flush_subnormals_sets_ftz_daz_and_restores_mxcsr():
    before = _mxcsr()
    with T.flush_subnormals():
        inside = _mxcsr()
        started = []
        worker = threading.Thread(target=lambda: started.append(_mxcsr()))
        worker.start()
        worker.join()
        with T.flush_subnormals():
            pass
        assert _mxcsr() == inside
    assert inside & 0x8040 == 0x8040 and started[0] & 0x8040 == 0x8040
    assert _mxcsr() == before
    with pytest.raises(KeyError):
        with T.flush_subnormals():
            raise KeyError("inside")
    assert _mxcsr() == before
