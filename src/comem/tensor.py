"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays; every differentiable operation records its graph on
small ``_Node`` objects that the tensors point to.  A node holds its
parents' nodes, its backward closure, its gradient and only the arrays its
backward reads (a parent's value for ``matmul``, its own output for
``tanh``), never a value merely because it was computed: an op output that no
backward reads is freed once the forward drops its last reference.
``Tensor.backward`` replays the closures in reverse topological order and
frees the graph as it goes.  Where a backward needs a cheap layout of an input
it already holds (``_im2col`` taps, a re-laid kernel, contiguous rows), it
derives that layout again instead of keeping a copy.  Training runs in float32;
gradient checking builds float64 graphs (see ``grad_check``).

All sequence operations accept an optional leading batch dimension: a
"vector" argument may be shaped ``(n,)`` or ``(B, n)``, an ``L x C`` matrix
may be ``(L, C)`` or ``(B, L, C)``.
"""

from __future__ import annotations

import contextlib
import ctypes
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, GeometryError, NumericError

DEFAULT_DTYPE = np.float32
WIDE_DTYPE = np.float64

# threads that draw initial weights, run the Adam update and hash checkpoint
# parameters; two fill a 2-core host, and no result depends on the count
THREADS = 2

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


# MXCSR's flush-to-zero (bit 15) and denormals-are-zero (bit 6) bits; on x86-64
# glibc, fenv_t is 32 bytes and MXCSR is its last 4
_FTZ_DAZ = (1 << 15) | (1 << 6)
try:
    _libm = ctypes.CDLL("libm.so.6") if sys.platform == "linux" and platform.machine() == "x86_64" else None
except OSError:
    _libm = None
if _libm is not None:
    _libm.fegetenv.argtypes = _libm.fesetenv.argtypes = [ctypes.c_char_p]  # fenv_t *; both return int


@contextlib.contextmanager
def flush_subnormals():
    """Flush subnormal floats to zero, as results and as inputs, on the calling thread inside the block.

    Sets MXCSR's FTZ and DAZ bits through libm's ``fegetenv``/``fesetenv``
    and restores the previous environment on exit, also after an exception.
    Threads started inside the block inherit the bits.  On any platform but
    x86-64 Linux it does nothing.
    """
    if _libm is None:
        yield
        return
    env = ctypes.create_string_buffer(32)
    _libm.fegetenv(env)
    saved = env.raw
    env[28:32] = (int.from_bytes(saved[28:32], "little") | _FTZ_DAZ).to_bytes(4, "little")
    _libm.fesetenv(env)
    try:
        yield
    finally:
        _libm.fesetenv(ctypes.create_string_buffer(saved, 32))


class _Node:
    """One tensor's place on the tape: everything the backward walk needs, and no value.

    ``saved`` names the arrays ``_backward`` reads, so a tape walk can size
    what the graph keeps alive.
    """

    __slots__ = ("shape", "dtype", "grad", "requires_grad", "_parents", "_backward", "saved")

    def __init__(self, shape, dtype, requires_grad: bool = False):
        self.shape, self.dtype = shape, dtype
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[_Node, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.saved: tuple[np.ndarray, ...] = ()

    @property
    def data(self) -> np.ndarray:
        """A zero-stride byte array whose ``nbytes`` is that of ``saved``, for walks that size the tape by ``data``."""
        return np.broadcast_to(np.uint8(0), (sum(a.nbytes for a in self.saved),))


class Tensor:
    """A value and its ``_Node``; gradients and the graph live on the node.

    ``data`` cannot be reassigned, since the node records its shape and
    dtype; its array may still be written in place.
    """

    __slots__ = ("_data", "_node")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(DEFAULT_DTYPE)
        self._data = data
        self._node = _Node(data.shape, data.dtype, bool(requires_grad))

    # -- graph bookkeeping -------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._node.grad

    @grad.setter
    def grad(self, g: Optional[np.ndarray]):
        self._node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool):
        self._node.requires_grad = bool(flag)

    @property
    def _parents(self) -> tuple:
        return self._node._parents

    def backward(self, grad: Optional[np.ndarray] = None):
        """Accumulate gradients of ``self`` into every reachable leaf.

        A graph supports one backward: the walk frees each non-leaf node once
        its backward has run, dropping its gradient, its closure, the arrays
        it saved and its parents.  A second backward that reaches a freed
        node raises ``DomainError``; leaf gradients stay.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        order = _topo_order(self._node)
        _accumulate(self._node, grad, shared=True)  # the caller keeps its array
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents, node.saved = None, _freed, (), ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    __radd__ = __add__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, -_lift(other, self.dtype))


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _on_tape(n: _Node) -> bool:
    """Whether gradients flow into ``n``: a leaf that asks for them, or a recorded node."""
    return n.requires_grad or n._backward is not None


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a node, so it must save what its backward reads."""
    return _grad_enabled and any(_on_tape(p._node) for p in parents)


def _freed(g):
    raise DomainError("backward through a freed graph: a graph supports one backward")


def _topo_order(root: _Node) -> list[_Node]:
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _accumulate(n: _Node, g: np.ndarray, shared: bool = False):
    """Add ``g`` into ``n.grad``.

    A first gradient becomes ``n.grad`` without a copy: backward closures
    hand over arrays they have just computed, or views of their node's own
    gradient, which nothing reads once that node's backward has run.  It is
    copied when it is read-only (a broadcast view) or ``shared``, that is,
    also handed to another node.
    """
    if not _on_tape(n):
        return
    reduced = _unbroadcast(g, n.shape)
    if n.grad is not None:
        n.grad += reduced
    elif (shared and reduced is g) or not reduced.flags.writeable or reduced.dtype != n.dtype:
        n.grad = np.array(reduced, dtype=n.dtype)
    else:
        n.grad = reduced


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, saved: tuple = ()) -> Tensor:
    """Wrap ``data``; when recording, its node gets ``parents``' nodes, ``backward`` and the ``saved`` arrays.

    ``backward`` must reach its parents through their nodes and hold no
    ``Tensor``, and ``saved`` must list the arrays it reads, so that no value
    outlives its use and a tape walk sees what the graph keeps alive.
    """
    out = Tensor(data)
    if _recording(parents):
        node = out._node
        node._parents = tuple(p._node for p in parents)
        node._backward = backward
        node.saved = saved
    return out


# -- pointwise and structural ops -------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    an, bn = a._node, b._node

    def backward(g):
        _accumulate(an, g)
        _accumulate(bn, g, shared=an.grad is g)  # copied only if ``a`` kept g itself

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    an = a._node

    def backward(g):
        _accumulate(an, g * c)

    return _make(a.data * c, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    an = a._node

    def backward(g):
        _accumulate(an, g * (1.0 - data * data))

    return _make(data, (a,), backward, (data,))


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; the tape keeps the sign mask ``a > 0``, not ``a``."""
    mask = a.data > 0 if _recording((a,)) else None
    an = a._node

    def backward(g):
        _accumulate(an, g * mask)

    return _make(np.maximum(a.data, 0), (a,), backward, (mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow for very negative inputs yields inf and a correct 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def square(a: Tensor) -> Tensor:
    x, an = a.data, a._node

    def backward(g):
        _accumulate(an, g * 2.0 * x)

    return _make(x * x, (a,), backward, (x,))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise DimensionError("concat: need at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    nodes = [t._node for t in tensors]

    def backward(g):
        for n, piece in zip(nodes, np.split(g, splits, axis=axis)):
            _accumulate(n, piece)

    return _make(data, tuple(tensors), backward)


def reshape(a: Tensor, shape) -> Tensor:
    an = a._node

    def backward(g):
        _accumulate(an, g.reshape(an.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def take(x: Tensor, key) -> Tensor:
    """``x[key]`` for any numpy index.

    The backward scatter-adds straight into ``x.grad``, so repeated indices
    accumulate and an existing gradient gets one add per element.
    """
    xn = x._node

    def backward(g):
        if xn.grad is None:
            xn.grad = np.zeros(xn.shape, dtype=xn.dtype)
        np.add.at(xn.grad, key, g)

    return _make(x.data[key], (x,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)
    an = a._node

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(an, np.broadcast_to(g, an.shape))

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]

    def backward(g):
        for i, n in enumerate(nodes):
            _accumulate(n, np.take(g, i, axis=axis))

    return _make(data, tuple(tensors), backward)


# -- linear algebra ----------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as one C-contiguous (rows, last axis) matrix, so BLAS sees one large gemm instead of a batch loop."""
    return np.ascontiguousarray(a).reshape(-1, a.shape[-1])


def _gemm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a[..., D] @ w[D, E]`` as one gemm over ``_rows(a)``, shaped (..., E).

    For a single-column ``w`` the rows run padded with zero rows to a multiple
    of 4: BLAS gemv kernels sum a ragged tail of rows in another order, and
    the padding keeps each row's value independent of how many rows ``a`` has.
    """
    x = _rows(a)
    pad = -len(x) % 4 if w.shape[1] == 1 else 0
    if pad:
        x = np.concatenate([x, np.zeros((pad, x.shape[1]), dtype=x.dtype)])
    return (x @ w)[: len(x) - pad].reshape(a.shape[:-1] + (w.shape[1],))


def matmul(x: Tensor, W: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``x[..., Din] @ W[Din, Dout] (+ b[Dout])``; the bias is added in place into the product."""
    if W.data.ndim != 2 or x.data.shape[-1] != W.data.shape[0]:
        raise DimensionError(f"matmul: shapes {x.shape} and {W.shape} do not conform")
    dout = W.data.shape[1]
    if b is not None and b.data.shape != (dout,):
        raise DimensionError(f"matmul: bias shape {b.shape} does not match output width {dout}")
    data = _gemm(x.data, W.data)
    if b is not None:
        data += b.data
    xd, wd, xn, wn = x.data, W.data, x._node, W._node
    bn = None if b is None else b._node

    def backward(g):
        g2 = _rows(g)
        if _on_tape(xn):
            _accumulate(xn, _gemm(g2, wd.T).reshape(xd.shape))
        if _on_tape(wn):
            _accumulate(wn, _rows(xd).T @ g2)
        if bn is not None:
            _accumulate(bn, g)

    parents = (x, W) if b is None else (x, W, b)
    return _make(data, parents, backward, (xd, wd))


def mix_levels(s: Tensor, x: Tensor) -> Tensor:
    """Per-step level mix ``out[..., k, l, :] = sum_n s[..., k, n, l] x[..., n, l, :]``.

    ``s``: (..., K, N, L) weights, ``x``: (..., N, L, D) levels shared by all
    K rows -> (..., K, L, D).  Runs as one batched (K, N) @ (N, D) product per
    step; the output is a step-major view of that product.
    """
    if s.data.ndim < 3 or x.data.ndim != s.data.ndim or s.data.shape[:-3] != x.data.shape[:-3] \
            or s.data.shape[-2:] != x.data.shape[-3:-1]:
        raise DimensionError(f"mix_levels: weights {s.shape} do not match levels {x.shape}")
    s_t = np.moveaxis(s.data, -1, -3)  # (..., L, K, N)
    x_t = np.moveaxis(x.data, -2, -3)  # (..., L, N, D)
    data = np.moveaxis(s_t @ x_t, -3, -2)
    sn, xn = s._node, x._node

    def backward(g):
        g_t = np.moveaxis(g, -2, -3)  # (..., L, K, D)
        if _on_tape(xn):
            _accumulate(xn, np.moveaxis(np.swapaxes(s_t, -1, -2) @ g_t, -3, -2))
        if _on_tape(sn):
            _accumulate(sn, np.moveaxis(g_t @ np.swapaxes(x_t, -1, -2), -3, -1))

    return _make(data, (s, x), backward, (s_t, x_t))


def additive_gate(f: Tensor, u: Tensor, w: Tensor) -> Tensor:
    """Additive attention scores ``out[..., k, n, l] = tanh(f[..., n, l, :] + u[..., k, :]) @ w[:, 0]``.

    ``f``: (..., N, L, Z), ``u``: (..., K, Z) with the same leading axes,
    ``w``: (Z, 1) -> (..., K, N, L).  Loops over the flattened leading rows
    with one reused (K*N*L, Z) buffer, so the (..., K, N, L, Z) ``tanh`` is
    never held; the backward recomputes each row's ``tanh`` instead of
    keeping it on the tape.
    """
    if f.data.ndim < 3 or u.data.ndim != f.data.ndim - 1 or f.data.shape[:-3] != u.data.shape[:-2] \
            or f.data.shape[-1] != u.data.shape[-1] or w.data.shape != (f.data.shape[-1], 1):
        raise DimensionError(f"additive_gate: facts {f.shape}, queries {u.shape} and weight {w.shape} do not conform")
    (N, L, Z), K = f.data.shape[-3:], u.data.shape[-2]
    f2, u2, wd = f.data.reshape(-1, N * L, Z), u.data.reshape(-1, K, Z), w.data
    dtype, rows = np.result_type(f2, u2, wd), K * N * L
    fn, un, wn = f._node, u._node, w._node

    def tanh_block(r: int, buf: np.ndarray) -> np.ndarray:
        t = buf[:rows].reshape(K, N * L, Z)
        np.add(f2[r], u2[r][:, None], out=t)
        return np.tanh(t, out=t)

    buf = np.zeros((rows + -rows % 4, Z), dtype=dtype)  # zero rows up to a multiple of 4 spare ``_gemm`` a copy
    data = np.empty((len(f2), rows), dtype=dtype)
    for r in range(len(f2)):
        tanh_block(r, buf)
        data[r] = _gemm(buf, wd)[:rows, 0]

    def backward(g):
        g2 = np.ascontiguousarray(g).reshape(len(f2), K, N * L)
        buf = np.empty((rows, Z), dtype=dtype)
        df, du = np.empty(f2.shape, dtype=dtype), np.empty(u2.shape, dtype=dtype)
        dw = np.zeros(Z, dtype=dtype)
        for r in range(len(f2)):
            t = tanh_block(r, buf)
            dw += buf.T @ g2[r].reshape(-1)
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            t *= g2[r][:, :, None]
            t *= wd[:, 0]  # the gradient of the tanh's argument, (1 - t^2) g w
            df[r] = t.sum(axis=0)
            du[r] = t.sum(axis=1)
        _accumulate(fn, df.reshape(fn.shape))
        _accumulate(un, du.reshape(un.shape))
        _accumulate(wn, dw[:, None])

    return _make(data.reshape(f.data.shape[:-3] + (K, N, L)), (f, u, w), backward, (f2, u2, wd))


# -- reductions with stability ----------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.size == 0 or x.data.shape[axis] == 0:
        raise GeometryError(f"softmax: empty axis {axis} for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    xn = x._node

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(xn, (g - dot) * data)

    return _make(data, (x,), backward, (data,))


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.size == 0 or x.data.shape[axis] == 0:
        raise GeometryError(f"logsumexp: empty axis {axis} for shape {x.shape}")
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = (np.log(s) + m).squeeze(axis)
    soft = e / s
    xn = x._node

    def backward(g):
        _accumulate(xn, np.expand_dims(g, axis) * soft)

    return _make(data, (x,), backward, (soft,))


# -- temporal ops -------------------------------------------------------------


def _check_seq(x: Tensor, name: str):
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"{name}: expected (L, C) or (B, L, C), got {x.shape}")


def _im2col(x: np.ndarray, k: int, stride: int, pad: tuple[int, int], lout: int) -> np.ndarray:
    """(..., L, C) -> (..., lout, k*C): tap ``r`` of step ``i`` reads step ``stride*i + r`` of ``x`` padded by ``(left, right)`` zeros."""
    pad_spec = [(0, 0)] * x.ndim
    pad_spec[-2] = pad
    xp = np.pad(x, pad_spec) if any(pad) else x
    span, c = stride * (lout - 1) + 1, x.shape[-1]
    cols = np.empty(x.shape[:-2] + (lout, k * c), dtype=x.dtype)
    for r in range(k):
        cols[..., r * c : (r + 1) * c] = xp[..., r : r + span : stride, :]
    return cols


def _col2im(cols: np.ndarray, k: int, stride: int, length: int) -> np.ndarray:
    """(..., lout, k*C) -> (..., length, C), the adjoint of ``_im2col``: tap ``r`` of step ``i`` adds at ``stride*i + r``."""
    lout, c = cols.shape[-2], cols.shape[-1] // k
    span = stride * (lout - 1) + 1
    out = np.zeros(cols.shape[:-2] + (length, c), dtype=cols.dtype)
    for r in range(k):
        out[..., r : r + span : stride, :] += cols[..., r * c : (r + 1) * c]
    return out


def conv1d_temporal(x: Tensor, K: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """1-d convolution over the temporal axis with zero padding on both edges.

    ``x``: (..., L, Cin), ``K``: (k, Cin, Cout) -> (..., L', Cout) with
    ``L' = (L + 2 pad - k) // stride + 1``.  Runs as one im2col gemm; the
    backward gathers the taps again for the kernel gradient instead of
    keeping them, and scatters the input gradient back with ``_col2im``.
    """
    _check_seq(x, "conv1d_temporal")
    if K.data.ndim != 3:
        raise DimensionError(f"conv1d_temporal: kernel must be (k, Cin, Cout), got {K.shape}")
    k, cin, cout = K.data.shape
    if x.data.shape[-1] != cin:
        raise DimensionError(f"conv1d_temporal: input channels {x.shape} vs kernel {K.shape}")
    L = x.data.shape[-2]
    lout = (L + 2 * pad - k) // stride + 1
    if L + 2 * pad < k or lout < 1:
        raise GeometryError(f"conv1d_temporal: L={L}, pad={pad}, k={k}, stride={stride} gives empty output")
    xd, kd, xn, kn = x.data, K.data, x._node, K._node
    data = _gemm(_im2col(xd, k, stride, (pad, pad), lout), kd.reshape(k * cin, cout))

    def backward(g):
        g2 = _rows(g)
        if _on_tape(kn):
            cols2 = _im2col(xd, k, stride, (pad, pad), lout).reshape(-1, k * cin)
            _accumulate(kn, (cols2.T @ g2).reshape(k, cin, cout))
        if _on_tape(xn):
            gcols = _gemm(g, kd.reshape(k * cin, cout).T)
            _accumulate(xn, _col2im(gcols, k, stride, L + 2 * pad)[..., pad : pad + L, :])

    return _make(data, (x, K), backward, (xd, kd))


def _taps_kernel(K: np.ndarray) -> np.ndarray:
    """(k, Cin, Cout) -> (Cin, k*Cout): every tap's kernel side by side for one gemm."""
    k, cin, cout = K.shape
    return K.transpose(1, 0, 2).reshape(cin, k * cout)


def deconv1d_temporal(x: Tensor, K: Tensor, target_len: int) -> Tensor:
    """Stride-2 transposed convolution over time, right-trimmed to ``target_len``.

    The adjoint of ``conv1d_temporal(stride=2)``: one gemm gives every tap's
    contribution and ``_col2im`` adds ``x[i] @ K[r]`` at step ``2i + r`` of the
    raw ``2(L - 1) + k`` steps.  ``target_len`` must be ``2L - 1`` or ``2L``.
    The backward gathers the gradient's taps once with ``_im2col`` and lays
    the kernel out again instead of keeping the copy.
    """
    _check_seq(x, "deconv1d_temporal")
    if K.data.ndim != 3:
        raise DimensionError(f"deconv1d_temporal: kernel must be (k, Cin, Cout), got {K.shape}")
    k, cin, cout = K.data.shape
    if x.data.shape[-1] != cin:
        raise DimensionError(f"deconv1d_temporal: input channels {x.shape} vs kernel {K.shape}")
    L = x.data.shape[-2]
    raw_len = (L - 1) * 2 + k
    if target_len not in (2 * L - 1, 2 * L) or target_len > raw_len:
        raise GeometryError(
            f"deconv1d_temporal: target_len={target_len} not reachable from L={L}, k={k} (admissible {2*L-1} or {2*L}, raw {raw_len})"
        )
    xd, kd, xn, kn = x.data, K.data, x._node, K._node
    data = _col2im(_gemm(xd, _taps_kernel(kd)), k, 2, raw_len)[..., :target_len, :]

    def backward(g):
        g2 = _im2col(g, k, 2, (0, raw_len - target_len), L).reshape(-1, k * cout)
        if _on_tape(xn):
            _accumulate(xn, _gemm(g2, _taps_kernel(kd).T).reshape(xd.shape))
        if _on_tape(kn):
            # one gemm per tap, stacked tap-major, so the gradient is C-contiguous like K
            _accumulate(kn, _rows(xd).T @ g2.reshape(-1, k, cout).swapaxes(0, 1))

    return _make(data, (x, K), backward, (xd, kd))


def maxpool1d(x: Tensor) -> Tensor:
    """Temporal max pooling with window 2 and stride 2; odd tails pool a single element.

    Gradient routes to the argmax; ties break to the earliest index, and as
    with ``argmax`` the first NaN of a window wins.  The backward keeps only
    which element of each window won.
    """
    _check_seq(x, "maxpool1d")
    L, C = x.data.shape[-2], x.data.shape[-1]
    lout = (L + 1) // 2
    if L % 2:
        pad_spec = [(0, 0)] * x.data.ndim
        pad_spec[-2] = (0, 1)
        xp = np.pad(x.data, pad_spec, constant_values=-np.inf)
    else:
        xp = x.data
    windows = x.data.shape[:-2] + (lout, 2, C)
    xr = xp.reshape(windows)
    first, second = xr[..., 0, :], xr[..., 1, :]
    take_first = first >= second
    take_first |= np.isnan(first)
    data = np.where(take_first, first, second)
    xn = x._node

    def backward(g):
        gp = np.zeros(windows, dtype=xn.dtype)
        idx = (~take_first).view(np.uint8)  # each window's argmax, 0 or 1
        np.put_along_axis(gp, idx[..., None, :], g[..., None, :], axis=-2)
        _accumulate(xn, gp.reshape(windows[:-3] + (2 * lout, C))[..., :L, :])

    return _make(data, (x,), backward, (take_first,))


# -- recurrence ----------------------------------------------------------------


def gru_scan(proj: Tensor, u_gates: Tensor, u_h: Tensor, gate: Optional[Tensor] = None) -> Tensor:
    """GRU recurrence over precomputed input projections; returns every state (..., L, H).

    ``proj`` is each step's input projection: (..., L, 3H) as ``[z | r | h]``
    with ``u_gates = [u_z | u_r]`` (H, 2H); or, with an external update
    ``gate`` (..., L), (..., L, 2H) as ``[r | h]`` with ``u_gates = u_r``.
    From ``h_0 = 0``, each step computes::

        z = sigmoid(p_z + h u_z)  (or the gate)    r = sigmoid(p_r + h u_r)
        c = tanh(p_h + (r * h) u_h)                h' = z * c + (1 - z) * h

    The backward is one reverse loop; the ``u_gates`` and ``u_h`` gradients
    are one gemm each over all steps.
    """
    H = u_h.data.shape[-1]
    G = H if gate is not None else 2 * H
    if u_h.data.shape != (H, H) or u_gates.data.shape != (H, G) or proj.data.ndim < 2 \
            or proj.data.shape[-1] != G + H:
        raise DimensionError(f"gru_scan: projections {proj.shape} do not match u_gates {u_gates.shape}, u_h {u_h.shape}")
    steps_shape = proj.data.shape[:-1]
    if gate is not None and gate.data.shape != steps_shape:
        raise DimensionError(f"gru_scan: gate shape {gate.shape} vs projections {proj.shape}")
    dtype, L, lead = proj.data.dtype, steps_shape[-1], steps_shape[:-1]

    # step j of proj and gate is a view at axis -2 / -1; states are step-major
    parents = (proj, u_gates, u_h) + (() if gate is None else (gate,))
    record = _recording(parents)
    ugd, uhd = u_gates.data, u_h.data
    states = (L,) + lead + (H,)
    hs = np.zeros((L + 1,) + states[1:], dtype=dtype)  # hs[j] is the state entering step j
    if record:
        rs, cs = np.empty(states, dtype=dtype), np.empty(states, dtype=dtype)
        zs = np.empty(states, dtype=dtype) if gate is None else np.moveaxis(gate.data, -1, 0)[..., None]
    for j in range(L):
        h, px = hs[j], proj.data[..., j, :]
        hu = _gemm(h, ugd)
        if gate is None:
            z = _sigmoid(px[..., :H] + hu[..., :H])
            r = _sigmoid(px[..., H:G] + hu[..., H:])
        else:
            z = gate.data[..., j : j + 1]
            r = _sigmoid(px[..., :H] + hu)
        c = np.tanh(px[..., G:] + _gemm(r * h, uhd))
        hs[j + 1] = z * c + (1.0 - z) * h
        if record:
            rs[j], cs[j] = r, c
            if gate is None:
                zs[j] = z
    data = np.moveaxis(hs[1:], 0, -2)
    if not record:
        return Tensor(data)
    pn, ugn, uhn = proj._node, u_gates._node, u_h._node
    gn = None if gate is None else gate._node

    def backward(g):
        dproj = np.empty((L,) + lead + (G + H,), dtype=dtype)
        dz_ext = None if gn is None else np.empty((L,) + lead + (1,), dtype=dtype)
        dh = np.zeros(lead + (H,), dtype=dtype)
        for j in reversed(range(L)):
            dh = dh + g[..., j, :]
            h, z, r, c = hs[j], zs[j], rs[j], cs[j]
            da_h = dh * z * (1.0 - c * c)
            d_rh = _gemm(da_h, uhd.T)
            if gn is None:
                dproj[j, ..., :H] = dh * (c - h) * z * (1.0 - z)
            else:
                dz_ext[j] = (dh * (c - h)).sum(axis=-1, keepdims=True)
            dproj[j, ..., G - H : G] = d_rh * h * r * (1.0 - r)
            dproj[j, ..., G:] = da_h
            dh = dh * (1.0 - z) + d_rh * r + _gemm(dproj[j, ..., :G], ugd.T)
        _accumulate(pn, np.moveaxis(dproj, 0, -2))
        if gn is not None:
            _accumulate(gn, np.moveaxis(dz_ext[..., 0], 0, -1))
        h_prev = hs[:-1].reshape(-1, H)
        if _on_tape(ugn):
            _accumulate(ugn, h_prev.T @ dproj[..., :G].reshape(-1, G))
        if _on_tape(uhn):
            _accumulate(uhn, (rs.reshape(-1, H) * h_prev).T @ dproj[..., G:].reshape(-1, H))

    return _make(data, parents, backward, (hs, rs, cs, zs, ugd, uhd))


# -- parameters ----------------------------------------------------------------

# a parameter's initial draw is split into chunks that start at multiples of this many values
DRAW_BLOCK = 1 << 16


def _philox_at(state: dict, start: int, dtype) -> np.random.Philox:
    """A Philox bit generator at value ``start`` of a ``Generator.random`` draw in ``dtype`` from ``state``.

    A float64 value takes one uint64, and a float32 value one uint32 half, the
    low half first, after any half ``state`` holds pending.  ``start`` must
    lie past ``state``'s buffered block, which any ``start >= 9`` does.
    """
    pending = state["has_uint32"]
    skip, half = divmod(start - pending, 2) if np.dtype(dtype) == np.float32 else (start, 0)
    # Philox makes 4 uint64 per counter step; advance() clears the buffer, so
    # the next draw computes the block after the counter's
    blocks, pos = divmod(state["buffer_pos"] + skip, 4)
    bitgen = np.random.Philox()
    bitgen.state = state
    bitgen.advance(blocks - 1)
    raw = bitgen.random_raw(pos + half)  # with a half, the last uint64's high half is the chunk's first value
    moved = bitgen.state
    if half:
        moved.update(has_uint32=1, uinteger=int(raw[-1] >> 32))
    elif np.dtype(dtype) != np.float32:
        moved.update(has_uint32=pending, uinteger=state["uinteger"])
    bitgen.state = moved
    return bitgen


class ParameterStore:
    """Named, ordered collection of learnable tensors.

    Insertion order is the canonical order for optimizer updates and
    checkpoint layout; it must be deterministic for a given model config.

    Given ``values`` (name -> array), ``add`` takes each parameter from them
    instead of drawing an initial value; the arrays become the parameters
    without a copy when they are C-contiguous and of the store's dtype.
    ``check_filled`` then reports values that no parameter took.
    """

    def __init__(self, seed: int = 0, dtype=DEFAULT_DTYPE, values: Optional[dict[str, np.ndarray]] = None):
        self._params: dict[str, Tensor] = {}
        self.dtype = dtype
        self._values = None if values is None else dict(values)
        self._rng = np.random.Generator(np.random.Philox(key=np.uint64(seed))) if values is None else None

    def add(self, name: str, shape, fan_out: Optional[int] = None) -> Tensor:
        """Register a parameter: a vector starts at zero, a matrix or kernel gets a Glorot draw.

        ``fan_out`` overrides the Glorot bound's output width: a block of
        several H-wide weight matrices side by side passes ``fan_out=H``, so
        each block keeps the bound it would have alone.
        """
        if name in self._params:
            raise DomainError(f"parameter {name!r} already exists")
        shape = tuple(int(s) for s in shape)
        if self._values is not None:
            if name not in self._values:
                raise DomainError(f"parameter name mismatch: no value given for {name!r}")
            data = np.asarray(self._values.pop(name))
            if data.shape != shape:
                raise DimensionError(f"parameter {name!r}: stored shape {data.shape} vs expected {shape}")
            data = np.ascontiguousarray(data, dtype=self.dtype)
        elif len(shape) < 2:
            data = np.zeros(shape, dtype=self.dtype)
        else:
            fan_in = int(np.prod(shape[:-1]))
            if fan_out is None:
                fan_out = shape[-1] if len(shape) == 2 else shape[0] * shape[-1]
            # uniform(-s, s) drawn in the store's dtype: for float64 these are
            # exactly Generator.uniform's values, and float32 skips a float64 copy
            s = np.dtype(self.dtype).type(np.sqrt(6.0 / (fan_in + fan_out)))
            data = np.empty(shape, dtype=self.dtype)
            self._draw_uniform(data.reshape(-1), s)
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def _draw_uniform(self, out: np.ndarray, s):
        """Fill ``out`` with uniform(-s, s): bit for bit one ``random`` call on the store's generator.

        ``out`` is cut into at most ``THREADS`` chunks that start at multiples
        of ``DRAW_BLOCK`` values.  The caller draws chunk 0 from the store's
        generator, and one thread per further chunk draws it from a generator
        set to the chunk's place in the serial stream.  The store's generator
        then takes the last chunk's end state.
        """
        blocks = out.size // DRAW_BLOCK
        starts = sorted({blocks * i // THREADS * DRAW_BLOCK for i in range(THREADS)})
        state = self._rng.bit_generator.state
        rngs = [self._rng] + [np.random.Generator(_philox_at(state, start, self.dtype)) for start in starts[1:]]
        chunks = [out[a:b] for a, b in zip(starts, starts[1:] + [out.size])]

        def fill(rng: np.random.Generator, chunk: np.ndarray):
            rng.random(dtype=self.dtype, out=chunk)
            chunk *= 2 * s
            chunk -= s

        with ThreadPoolExecutor(len(chunks)) as pool:
            others = pool.map(fill, rngs[1:], chunks[1:])
            fill(rngs[0], chunks[0])
            list(others)  # re-raises a thread's exception
        self._rng.bit_generator.state = rngs[-1].bit_generator.state

    def items(self):
        return list(self._params.items())

    def tensors(self):
        return list(self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def size(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def check_filled(self):
        """Raise ``DomainError`` if given values were left without a parameter."""
        if self._values:
            raise DomainError(f"parameter name mismatch: extra={sorted(self._values)}")


# -- verification ---------------------------------------------------------------


def grad_check(
    f: Callable[[], Tensor],
    tensors: Iterable[Tensor],
    eps: float = 1e-4,
    max_coords: int = 10,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``f`` must be a deterministic scalar-valued function of the given
    tensors (re-evaluated several times).  Relative error per coordinate is
    ``|analytic - fd| / max(1, |analytic|, |fd|)``.  Works best on float64
    tensors.
    """
    tensors = list(tensors)
    for t in tensors:
        t.grad = None
    loss = f()
    if loss.data.size != 1:
        raise DomainError(f"grad_check: f must be scalar-valued, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NumericError("grad_check: f evaluated to a non-finite value")
    loss.backward()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))

    def eval_scalar() -> float:
        with no_grad():
            v = f()
        val = float(v.data)
        if not np.isfinite(val):
            raise NumericError("grad_check: f evaluated to a non-finite value")
        return val

    worst = 0.0
    for t in tensors:
        n = t.data.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        flat = t.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = eval_scalar()
            flat[c] = orig - eps
            f_minus = eval_scalar()
            flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            a = float(aflat[c])
            rel = abs(a - fd) / max(1.0, abs(a), abs(fd))
            worst = max(worst, rel)
    return worst
