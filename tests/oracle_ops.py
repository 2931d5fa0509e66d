"""Taped ops that only the tests use, as building blocks of reference implementations.

The model never multiplies two tensors pointwise or takes a sigmoid on its
own (``gru_scan`` fuses its gates), so these stay out of ``comem.tensor``.
They record on the same tape and follow its rules.
"""

from comem.errors import DimensionError
from comem.tensor import Tensor, _accumulate, _make, _sigmoid


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Pointwise ``a * b`` with numpy broadcasting."""
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    x, y, xn, yn = a.data, b.data, a._node, b._node

    def backward(g):
        _accumulate(xn, g * y)
        _accumulate(yn, g * x)

    return _make(data, (a, b), backward, (x, y))


def sigmoid(a: Tensor) -> Tensor:
    data, an = _sigmoid(a.data), a._node

    def backward(g):
        _accumulate(an, g * data * (1.0 - data))

    return _make(data, (a,), backward, (data,))
