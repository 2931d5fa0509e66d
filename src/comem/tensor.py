"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays; every differentiable operation records a backward
closure on the tensors it produces.  ``Tensor.backward`` replays those
closures in reverse topological order and frees the graph as it goes.
Training runs in float32; gradient checking builds float64 graphs (see
``grad_check``).

All sequence operations accept an optional leading batch dimension: a
"vector" argument may be shaped ``(n,)`` or ``(B, n)``, an ``L x C`` matrix
may be ``(L, C)`` or ``(B, L, C)``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, GeometryError, NumericError

DEFAULT_DTYPE = np.float32
WIDE_DTYPE = np.float64

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(DEFAULT_DTYPE)
        self.data = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # -- graph bookkeeping -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self, grad: Optional[np.ndarray] = None):
        """Accumulate gradients of ``self`` into every reachable leaf.

        A graph supports one backward: the walk frees each non-leaf node once
        its backward has run, dropping its gradient, its closure (and the
        forward arrays that holds) and its parents.  A second backward that
        reaches a freed node raises ``DomainError``; leaf gradients stay.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        order = _topo_order(self)
        _accumulate(self, grad, shared=True)  # the caller keeps its array
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _freed, ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, -_lift(other, self.dtype))

    def __rsub__(self, other):
        return add(_lift(other, self.dtype), -self)


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _on_tape(t: Tensor) -> bool:
    """Whether gradients flow into ``t``: a leaf that asks for them, or a recorded node."""
    return t.requires_grad or t._backward is not None


def _freed(g):
    raise DomainError("backward through a freed graph: a graph supports one backward")


def _topo_order(root: Tensor):
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


def _accumulate(t: Tensor, g: np.ndarray, shared: bool = False):
    """Add ``g`` into ``t.grad``.

    A first gradient becomes ``t.grad`` without a copy: backward closures
    hand over arrays they have just computed, or views of their node's own
    gradient, which nothing reads once that node's backward has run.  It is
    copied when it is read-only (a broadcast view) or ``shared``, that is,
    also handed to another tensor.  A leaf's first gradient is also copied
    when it is not C-contiguous (a split or transposed view), so the
    optimizer reads every leaf gradient in place.
    """
    if not _on_tape(t):
        return
    reduced = _unbroadcast(g, t.data.shape)
    leaf = not t._parents
    if t.grad is not None:
        t.grad += reduced
    elif ((shared and reduced is g) or not reduced.flags.writeable or reduced.dtype != t.data.dtype
          or (leaf and not reduced.flags.c_contiguous)):
        t.grad = np.array(reduced, dtype=t.data.dtype, order="C" if leaf else "K")
    else:
        t.grad = reduced


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(_on_tape(p) for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- pointwise and structural ops -------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g, shared=a.grad is g)  # copied only if ``a`` kept g itself

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        _accumulate(a, g * c)

    return _make(a.data * c, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - data * data))

    return _make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _make(data, (a,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow for very negative inputs yields inf and a correct 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

    def backward(g):
        _accumulate(a, g * data * (1.0 - data))

    return _make(data, (a,), backward)


def square(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise DimensionError("concat: need at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _make(data, tuple(tensors), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def backward(g):
        _accumulate(a, g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), backward)


def take(x: Tensor, key) -> Tensor:
    """``x[key]`` for any numpy index.

    The backward scatter-adds straight into ``x.grad``, so repeated indices
    accumulate and an existing gradient gets one add per element.
    """
    def backward(g):
        if x.grad is None:
            x.grad = np.zeros(x.data.shape, dtype=x.data.dtype)
        np.add.at(x.grad, key, g)

    return _make(x.data[key], (x,), backward)


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            _accumulate(t, np.take(g, i, axis=axis))

    return _make(data, tuple(tensors), backward)


# -- linear algebra ----------------------------------------------------------


def matmul(x: Tensor, W: Tensor) -> Tensor:
    """``x[..., Din] @ W[Din, Dout]``."""
    if W.data.ndim != 2 or x.data.shape[-1] != W.data.shape[0]:
        raise DimensionError(f"matmul: shapes {x.shape} and {W.shape} do not conform")
    din, dout = W.data.shape
    # collapse leading axes so BLAS sees one large gemm instead of a batch loop
    x2 = np.ascontiguousarray(x.data).reshape(-1, din)
    data = (x2 @ W.data).reshape(x.data.shape[:-1] + (dout,))

    def backward(g):
        g2 = np.ascontiguousarray(g).reshape(-1, dout)
        if _on_tape(x):
            _accumulate(x, (g2 @ W.data.T).reshape(x.data.shape))
        if _on_tape(W):
            _accumulate(W, x2.T @ g2)

    return _make(data, (x, W), backward)


def affine(x: Tensor, W: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``x @ W (+ b)`` with shape validation naming both operands."""
    y = matmul(x, W)
    if b is not None:
        if b.data.shape != (W.data.shape[1],):
            raise DimensionError(f"affine: bias shape {b.shape} does not match output width {W.data.shape[1]}")
        y = add(y, b)
    return y


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

    def backward(g):
        g_t = np.moveaxis(g, -2, -3)  # (..., L, K, D)
        if _on_tape(x):
            _accumulate(x, np.moveaxis(np.swapaxes(s_t, -1, -2) @ g_t, -3, -2))
        if _on_tape(s):
            _accumulate(s, np.moveaxis(g_t @ np.swapaxes(x_t, -1, -2), -3, -1))

    return _make(data, (s, x), backward)


# -- reductions with stability ----------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.size == 0 or x.data.shape[axis] == 0:
        raise GeometryError(f"softmax: empty axis {axis} for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(x, (g - dot) * data)

    return _make(data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.size == 0 or x.data.shape[axis] == 0:
        raise GeometryError(f"logsumexp: empty axis {axis} for shape {x.shape}")
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    data = (np.log(s) + m).squeeze(axis)
    soft = e / s

    def backward(g):
        _accumulate(x, np.expand_dims(g, axis) * soft)

    return _make(data, (x,), backward)


# -- temporal ops -------------------------------------------------------------


def _check_seq(x: Tensor, name: str):
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"{name}: expected (L, C) or (B, L, C), got {x.shape}")


def conv1d_temporal(x: Tensor, K: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """1-d convolution over the temporal axis with zero padding on both edges.

    ``x``: (..., L, Cin), ``K``: (k, Cin, Cout) -> (..., L', Cout) with
    ``L' = (L + 2 pad - k) // stride + 1``.
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

    pad_spec = [(0, 0)] * x.data.ndim
    pad_spec[-2] = (pad, pad)
    xp = np.pad(x.data, pad_spec) if pad else x.data
    span = stride * (lout - 1) + 1
    # im2col: gather the k taps into one contiguous block, then a single gemm
    cols = np.empty(xp.shape[:-2] + (lout, k * cin), dtype=xp.dtype)
    for r in range(k):
        cols[..., r * cin : (r + 1) * cin] = xp[..., r : r + span : stride, :]
    cols2 = cols.reshape(-1, k * cin)
    k2 = K.data.reshape(k * cin, cout)
    data = (cols2 @ k2).reshape(xp.shape[:-2] + (lout, cout))

    def backward(g):
        g2 = np.ascontiguousarray(g).reshape(-1, cout)
        if _on_tape(K):
            _accumulate(K, (cols2.T @ g2).reshape(k, cin, cout))
        if _on_tape(x):
            gcols = (g2 @ k2.T).reshape(cols.shape)
            gxp = np.zeros_like(xp)
            for r in range(k):
                gxp[..., r : r + span : stride, :] += gcols[..., r * cin : (r + 1) * cin]
            if pad:
                gxp = gxp[..., pad : pad + L, :]
            _accumulate(x, gxp)

    return _make(data, (x, K), backward)


def deconv1d_temporal(x: Tensor, K: Tensor, target_len: int) -> Tensor:
    """Stride-2 transposed convolution over time, right-trimmed to ``target_len``.

    Scatter form of the adjoint of ``conv1d_temporal(stride=2)``:
    ``y[2i + r] += x[i] @ K[r]``.  ``target_len`` must be ``2L - 1`` or ``2L``.
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
    shape = x.data.shape[:-2] + (raw_len, cout)
    x2 = np.ascontiguousarray(x.data).reshape(-1, cin)
    kt = K.data.transpose(1, 0, 2).reshape(cin, k * cout)
    # one gemm produces every tap's contribution; scatter-add into the output
    taps = (x2 @ kt).reshape(x.data.shape[:-1] + (k, cout))
    data = np.zeros(shape, dtype=x.data.dtype)
    for r in range(k):
        data[..., r : r + 2 * L : 2, :] += taps[..., r, :]
    data = data[..., :target_len, :].copy()

    def backward(g):
        g_raw = np.zeros(shape, dtype=g.dtype)
        g_raw[..., :target_len, :] = g
        g_taps = np.empty(x.data.shape[:-1] + (k, cout), dtype=g.dtype)
        for r in range(k):
            g_taps[..., r, :] = g_raw[..., r : r + 2 * L : 2, :]
        g2 = g_taps.reshape(-1, k * cout)
        if _on_tape(x):
            _accumulate(x, (g2 @ kt.T).reshape(x.data.shape))
        if _on_tape(K):
            _accumulate(K, (x2.T @ g2).reshape(cin, k, cout).transpose(1, 0, 2))

    return _make(data, (x, K), backward)


def maxpool1d(x: Tensor) -> Tensor:
    """Temporal max pooling with window 2 and stride 2; odd tails pool a single element.

    Gradient routes to the argmax; ties break to the earliest index, and as
    with ``argmax`` the first NaN of a window wins.
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
    xr = xp.reshape(xp.shape[:-2] + (lout, 2, C))
    first, second = xr[..., 0, :], xr[..., 1, :]
    take_first = first >= second
    take_first |= np.isnan(first)
    data = np.where(take_first, first, second)

    def backward(g):
        gp = np.zeros_like(xr)
        idx = (~take_first).view(np.uint8)  # each window's argmax, 0 or 1
        np.put_along_axis(gp, idx[..., None, :], g[..., None, :], axis=-2)
        gp = gp.reshape(xp.shape)[..., :L, :]
        _accumulate(x, gp)

    return _make(data, (x,), backward)


# -- recurrence ----------------------------------------------------------------


def gru_scan(proj: Tensor, u_gates: Tensor, u_h: Tensor, gate: Optional[Tensor] = None,
             mask: Optional[np.ndarray] = None) -> Tensor:
    """GRU recurrence over precomputed input projections; returns every state (..., L, H).

    ``proj`` is each step's input projection: (..., L, 3H) as ``[z | r | h]``
    with ``u_gates = [u_z | u_r]`` (H, 2H); or, with an external update
    ``gate`` (..., L), (..., L, 2H) as ``[r | h]`` with ``u_gates = u_r``.
    From ``h_0 = 0``, each step computes::

        z = sigmoid(p_z + h u_z)  (or the gate)    r = sigmoid(p_r + h u_r)
        c = tanh(p_h + (r * h) u_h)                h' = z * c + (1 - z) * h

    ``mask`` (..., L) holds 0/1; ``h`` is kept unchanged where it is 0.  The
    backward is one reverse loop; the ``u_gates`` and ``u_h`` gradients are
    one gemm each over all steps.
    """
    H = u_h.data.shape[-1]
    G = H if gate is not None else 2 * H
    if u_h.data.shape != (H, H) or u_gates.data.shape != (H, G) or proj.data.ndim < 2 \
            or proj.data.shape[-1] != G + H:
        raise DimensionError(f"gru_scan: projections {proj.shape} do not match u_gates {u_gates.shape}, u_h {u_h.shape}")
    steps_shape = proj.data.shape[:-1]
    if gate is not None and gate.data.shape != steps_shape:
        raise DimensionError(f"gru_scan: gate shape {gate.shape} vs projections {proj.shape}")
    if mask is not None and np.shape(mask) != steps_shape:
        raise DimensionError(f"gru_scan: mask shape {np.shape(mask)} vs projections {proj.shape}")
    dtype, L, lead = proj.data.dtype, steps_shape[-1], steps_shape[:-1]

    def mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        # one 2-D gemm over the contiguous leading axes; a batched matmul would loop per matrix
        return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[-1],))

    # step j of proj, gate and mask is a view at axis -2 / -1; states are step-major
    m = None if mask is None else np.asarray(mask, dtype=dtype)[..., None]
    parents = (proj, u_gates, u_h) + (() if gate is None else (gate,))
    record = _grad_enabled and any(_on_tape(p) for p in parents)
    states = (L,) + lead + (H,)
    hs = np.zeros((L + 1,) + states[1:], dtype=dtype)  # hs[j] is the state entering step j
    if record:
        rs, cs = np.empty(states, dtype=dtype), np.empty(states, dtype=dtype)
        zs = np.empty(states, dtype=dtype) if gate is None else np.moveaxis(gate.data, -1, 0)[..., None]
    for j in range(L):
        h, px = hs[j], proj.data[..., j, :]
        hu = mm(h, u_gates.data)
        if gate is None:
            z = _sigmoid(px[..., :H] + hu[..., :H])
            r = _sigmoid(px[..., H:G] + hu[..., H:])
        else:
            z = gate.data[..., j : j + 1]
            r = _sigmoid(px[..., :H] + hu)
        c = np.tanh(px[..., G:] + mm(r * h, u_h.data))
        h_new = z * c + (1.0 - z) * h
        hs[j + 1] = h_new if m is None else m[..., j, :] * h_new + (1.0 - m[..., j, :]) * h
        if record:
            rs[j], cs[j] = r, c
            if gate is None:
                zs[j] = z
    data = np.moveaxis(hs[1:], 0, -2)

    def backward(g):
        dproj = np.empty((L,) + lead + (G + H,), dtype=dtype)
        dz_ext = None if gate is None else np.empty((L,) + lead + (1,), dtype=dtype)
        dh = np.zeros(lead + (H,), dtype=dtype)
        for j in reversed(range(L)):
            dh = dh + g[..., j, :]
            h, z, r, c = hs[j], zs[j], rs[j], cs[j]
            d_new = dh if m is None else m[..., j, :] * dh
            d_prev = d_new * (1.0 - z) if m is None else d_new * (1.0 - z) + (1.0 - m[..., j, :]) * dh
            da_h = d_new * z * (1.0 - c * c)
            d_rh = mm(da_h, u_h.data.T)
            if gate is None:
                dproj[j, ..., :H] = d_new * (c - h) * z * (1.0 - z)
            else:
                dz_ext[j] = (d_new * (c - h)).sum(axis=-1, keepdims=True)
            dproj[j, ..., G - H : G] = d_rh * h * r * (1.0 - r)
            dproj[j, ..., G:] = da_h
            dh = d_prev + d_rh * r + mm(np.ascontiguousarray(dproj[j, ..., :G]), u_gates.data.T)
        _accumulate(proj, np.moveaxis(dproj, 0, -2))
        if gate is not None:
            _accumulate(gate, np.moveaxis(dz_ext[..., 0], 0, -1))
        h_prev = hs[:-1].reshape(-1, H)
        if _on_tape(u_gates):
            _accumulate(u_gates, h_prev.T @ dproj[..., :G].reshape(-1, G))
        if _on_tape(u_h):
            _accumulate(u_h, (rs.reshape(-1, H) * h_prev).T @ dproj[..., G:].reshape(-1, H))

    return _make(data, parents, backward)


# -- parameters ----------------------------------------------------------------


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

    def add(self, name: str, shape, init: str = "auto") -> Tensor:
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
        elif init == "zeros" or (init == "auto" and len(shape) < 2):
            data = np.zeros(shape, dtype=self.dtype)
        else:
            fan_in = int(np.prod(shape[:-1]))
            fan_out = shape[-1] if len(shape) == 2 else shape[0] * shape[-1]
            # uniform(-s, s) drawn in the store's dtype: for float64 these are
            # exactly Generator.uniform's values, and float32 skips a float64 copy
            s = np.dtype(self.dtype).type(np.sqrt(6.0 / (fan_in + fan_out)))
            data = self._rng.random(shape, dtype=self.dtype)
            data *= 2 * s
            data -= s
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

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
