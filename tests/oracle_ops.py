"""Differentiable ops that only the tests build on: the finite-difference table
and the composite oracles of the fused ops.

Each is a node built on ``Tensor._make`` with its own backward pass, as the
engine's ops are; training and evaluation never call them, so they live here
and not in ``relpe.tensor``.
"""

import math

import numpy as np
from scipy.special import erf as np_erf

from relpe.tensor import Tensor, _check_finite, as_tensor


def neg(x):
    """``-x``: a move of values, so exact like ``reshape``: the filter never sees it."""
    return Tensor._make(-x.data, (x,), lambda g: x._accumulate(-g, exact=True), exact=True)


def sub(a, b):
    """``a - b`` as ``a + neg(b)``; ``b`` may be a constant."""
    return a + neg(as_tensor(b))


def div(a, b):
    """``a / b``, elementwise with broadcasting; ``b`` may be a constant."""
    b = as_tensor(b)
    def bwd(g):
        if a.requires_grad:
            a._accumulate(g / b.data)
        if b.requires_grad:
            b._accumulate(-g * a.data / (b.data * b.data))
    return Tensor._make(a.data / b.data, (a, b), bwd)


def power(x, exponent: float):
    """``x ** exponent`` for a constant exponent."""
    e = float(exponent)
    return Tensor._make(x.data ** e, (x,),
                        lambda g: x._accumulate(g * e * x.data ** (e - 1.0)))


def exp(x):
    out = np.exp(x.data)
    return Tensor._make(out, (x,), lambda g: x._accumulate(g * out))


def log(x):
    return Tensor._make(np.log(x.data), (x,), lambda g: x._accumulate(g / x.data))


def erf(x):
    def bwd(g):
        x._accumulate(g * (2.0 / math.sqrt(math.pi)) * np.exp(-x.data * x.data))
    return Tensor._make(np_erf(x.data), (x,), bwd)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``, as one node; a non-finite
    input raises the ValueError the fused attention node raises."""
    _check_finite("softmax", x.data)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    def bwd(g):
        x._accumulate(y * (g - (g * y).sum(axis=axis, keepdims=True)))
    return Tensor._make(y, (x,), bwd)


def mean(x, axis):
    return div(x.sum(axis=axis), float(x.shape[axis]))


def log_softmax(x, axis=-1):
    shift = sub(x, x.data.max(axis=axis, keepdims=True))
    return sub(shift, log(exp(shift).sum(axis=axis, keepdims=True)))
