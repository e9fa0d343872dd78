"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly: every operation returns a new Tensor holding the
result plus a closure that routes the incoming gradient to its parents.
``Tensor.backward()`` runs a single topological sweep, visiting each recorded
node exactly once. An optional value filter (see :func:`value_filter`) is
applied to every primitive's output and every gradient accumulation, which is
how reduced-precision arithmetic is emulated without a second code path.
One rule says what the filter sees: ops that only move, copy or negate
values are exact and skip it, and every sum is filtered. The exact values are
the outputs of ``reshape``, ``transpose``, ``take_rows`` and negation, the
gradients of all but ``take_rows``, the gradient copies ``+`` hands its
parents and the ``backward()`` seed. This relies on one invariant of a
filtered graph: every tensor is an op output or a working copy the caller
already filtered (the mixed-precision step rounds its working weights), so
the filter would return an exact op's values unchanged. A constant leaf fed
to an exact op keeps its float64 values. The sums are a ``take_rows``
scatter, a reduction over broadcast axes and a second gradient accumulation.
GeLU, layer norm, the weighted log-softmax + NLL and ``affine``
(``x @ w + b``) are fused: each is one node with a closed-form backward pass,
so to the value filter it is a single primitive: the filter rounds its output
once and each input gradient once, and its intermediates stay float64. The
attention block's node (``relpe.attention.attention``), which softmaxes its
scores in place, follows the same rule.
Under :func:`no_grad` no graph is recorded at all.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional

import numpy as np

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Added to layer norm's variance before the square root.
_LN_EPS = 1e-12

# Module-level hook applied to op outputs and gradient accumulations.
_value_filter: Optional[Callable[[np.ndarray], np.ndarray]] = None
# False inside no_grad(): results keep no parents and no backward closure.
_grad_enabled = True


@contextlib.contextmanager
def value_filter(fn):
    """Temporarily filter every primitive result through ``fn``.

    Used by the mixed-precision emulation to round all intermediate values
    (forward activations and backward gradients) to binary16. ``fn`` must
    return a new array: a gradient it returns is stored without a copy.
    """
    global _value_filter
    prev = _value_filter
    _value_filter = fn
    try:
        yield
    finally:
        _value_filter = prev


@contextlib.contextmanager
def no_grad():
    """Build no graph: every result has ``requires_grad=False`` and no parents.

    For forward passes that are never differentiated (evaluation, finite
    differences); each intermediate is freed as soon as nothing uses it.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _filtered(a: np.ndarray) -> np.ndarray:
    if _value_filter is None:
        return a
    return _value_filter(a)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class Tensor:
    """A dense n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # -- basics ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray, copy: bool = False, exact: bool = False):
        """Add ``g`` into ``grad``, which never shares memory with another array.

        A fresh ``g`` is kept as it is; a view of another array, or a ``g``
        the caller still holds (``copy=True``), is copied first. An ``exact``
        ``g`` moves filtered values without arithmetic, so its first
        accumulation skips the filter; summing it over broadcast axes, or
        adding it to a gradient, does not.
        """
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.data.shape:
            g, exact = _unbroadcast(g, self.data.shape), False
        if self.grad is not None:
            self.grad = _filtered(self.grad + g)
        elif exact or _value_filter is None:
            self.grad = g.copy() if copy or g.base is not None else g
        else:
            self.grad = _value_filter(g)

    # -- graph construction ----------------------------------------------

    @staticmethod
    def _make(out_data, parents, backward, exact: bool = False) -> "Tensor":
        """A node holding ``out_data``, filtered unless the op is ``exact``."""
        out_data = np.asarray(out_data, dtype=np.float64)
        out = Tensor(out_data if exact else _filtered(out_data))
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, seed: float = 1.0):
        """Reverse sweep from a scalar; fills ``grad`` on every tracked node.

        ``seed`` is the scalar's own gradient (a mixed step's loss scale), a
        value the filter keeps.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.full_like(self.data, seed), exact=True)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        def bwd(g):
            # g is this node's own gradient, so neither parent may keep it.
            if self.requires_grad:
                self._accumulate(g, copy=True, exact=True)
            if other.requires_grad:
                other._accumulate(g, copy=True, exact=True)
        return Tensor._make(self.data + other.data, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g):
            self._accumulate(-g, exact=True)
        return Tensor._make(-self.data, (self,), bwd, exact=True)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)
        return Tensor._make(self.data * other.data, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        def bwd(g):
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data * other.data))
        return Tensor._make(self.data / other.data, (self, other), bwd)

    def __pow__(self, exponent: float):
        e = float(exponent)
        def bwd(g):
            self._accumulate(g * e * self.data ** (e - 1.0))
        return Tensor._make(self.data ** e, (self,), bwd)

    def __matmul__(self, other):
        other = as_tensor(other)
        def bwd(g):
            # Transpose only the matrix axes; _accumulate sums any leading
            # axes an operand was broadcast over.
            if self.requires_grad:
                self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ g)
        return Tensor._make(self.data @ other.data, (self, other), bwd)

    # -- elementwise functions -------------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)
        def bwd(g):
            self._accumulate(g * (1.0 - out_data * out_data))
        return Tensor._make(out_data, (self,), bwd)

    # -- shape manipulation ----------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        def bwd(g):
            self._accumulate(g.reshape(old), exact=True)
        return Tensor._make(self.data.reshape(shape), (self,), bwd, exact=True)

    def transpose(self, axes=None):
        def bwd(g):
            inv = None if axes is None else np.argsort(axes)
            self._accumulate(g.transpose(inv), exact=True)
        return Tensor._make(self.data.transpose(axes), (self,), bwd, exact=True)

    @property
    def T(self):
        return self.transpose()

    @property
    def mT(self):
        """Swap only the last two axes, like numpy's ``ndarray.mT``."""
        return self.transpose((*range(self.ndim - 2), self.ndim - 1, self.ndim - 2))

    def __getitem__(self, key):
        def bwd(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            self._accumulate(full)
        return Tensor._make(self.data[key], (self,), bwd)

    def take_rows(self, indices):
        """Gather rows by a non-negative integer index array; grads scatter-add back."""
        idx = np.asarray(indices, dtype=np.intp)
        def bwd(g):
            self._accumulate(_scatter_rows(g, idx, self.data.shape))
        return Tensor._make(self.data[idx], (self,), bwd, exact=True)

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))
        return Tensor._make(out_data, (self,), bwd)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _scatter_rows(g: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Zeros of ``shape`` with each row ``g[k]`` added into row ``idx[k]``, in order.

    Bitwise equal to ``np.add.at``: ``np.bincount`` over the flattened
    row-major positions adds its weights in the same order, from the same +0.0.
    """
    width = math.prod(shape[1:])
    flat = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, g.reshape(-1), shape[0] * width).reshape(shape)


class NonFiniteValueError(ValueError):
    """A forward value that must be finite (a softmax or log-softmax input) is NaN/inf."""


def _check_finite(op: str, a: np.ndarray):
    """Raise NonFiniteValueError naming the first non-finite entry of ``op``'s input."""
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))[0]
        raise NonFiniteValueError(f"{op} input is not finite at index {tuple(int(i) for i in bad)}")


def nll_loss(logits: Tensor, labels, weights) -> tuple[Tensor, np.ndarray]:
    """Weighted negative log-likelihood of ``labels`` under softmax rows, as one node.

    ``logits`` is (P, C), ``labels`` (P,) class indices and ``weights`` (P,)
    constants. Returns the scalar ``sum_i weights[i] * nll[i]`` and the
    per-row ``nll[i] = -log softmax(logits[i])[labels[i]]`` as an array. P may
    be 0, which gives a loss of 0.
    """
    logits = as_tensor(logits)
    _check_finite("log_softmax", logits.data)
    labels = np.asarray(labels, dtype=np.intp)
    rows = np.arange(labels.size)
    weights = np.asarray(weights, dtype=np.float64)
    shift = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    total = e.sum(axis=-1, keepdims=True)
    nll = np.log(total[:, 0]) - shift[rows, labels]
    def bwd(g):
        d = e / total
        d[rows, labels] -= 1.0
        logits._accumulate(d * (g * weights)[:, None])
    return Tensor._make(np.sum(nll * weights), (logits,), bwd), nll


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: x is (..., d_in), w (d_in, d_out) and b (d_out,).

    The forward is the composite's expression, so it is bitwise equal to it;
    the weight and bias gradients sum over every leading axis of x.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    def bwd(g):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.reshape(-1, x.shape[-1]).T @ g2)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=0))
    return Tensor._make(x.data @ w.data + b.data, (x, w, b), bwd)


# Cephes' erf/erfc coefficients (ndtr.c), highest power first; p1evl's
# leading 1 is implied.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(26) rounds to 1 and exp(-26**2) is still a normal number.
_ERF_SATURATES = 26.0


def _polevl(x, coef, out=None):
    """coef[0]*x**n + ... + coef[n] by Horner's rule, as Cephes' ``polevl``."""
    y = np.multiply(x, coef[0], out=out)
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _p1evl(x, coef):
    """x**n + coef[0]*x**(n-1) + ... + coef[n-1], as Cephes' ``p1evl``."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _np_erf(x) -> np.ndarray:
    """Elementwise erf: a NumPy port of the Cephes ``erf`` that SciPy runs.

    For |x| <= 1 it is ``x * polevl(x², T) / p1evl(x², U)`` with Cephes'
    operations in Cephes' order, so it is bitwise equal to
    ``scipy.special.erf`` there. For |x| > 1 it is ±(1 − erfc|x|), computed
    only at those elements and within 1 ulp of SciPy (NumPy's ``exp`` is not
    the C library's). ±inf gives ±1, NaN stays NaN, and no input raises a
    floating-point warning.
    """
    x = np.asarray(x, dtype=np.float64)
    far = np.abs(x) > 1.0                                 # NaN is not far
    has_far = far.any()
    near = np.clip(x, -1.0, 1.0) if has_far else x       # keeps the powers finite
    z = near * near
    y = _polevl(z, _ERF_T, out=np.empty_like(x))
    y *= near
    del near                                              # free the clipped copy
    y /= _p1evl(z, _ERF_U)
    del z
    if has_far:
        xf = x[far]
        b = np.minimum(np.abs(xf), _ERF_SATURATES)
        small = b < 8.0
        p = np.where(small, _polevl(b, _ERFC_P), _polevl(b, _ERFC_R))
        q = np.where(small, _p1evl(b, _ERFC_Q), _p1evl(b, _ERFC_S))
        y[far] = np.copysign(1.0 - np.exp(-b * b) * p / q, xf)
    return y


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GeLU: x * Phi(x) with Phi the standard normal CDF, as one node."""
    x = as_tensor(x)
    erf1 = _np_erf(x.data * (1.0 / _SQRT2))
    erf1 += 1.0                                          # 2 * Phi(x)
    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data * x.data)
        x._accumulate(g * (0.5 * erf1 + x.data * pdf))
    out = x.data * 0.5
    out *= erf1
    return Tensor._make(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then affine.

    One node with parents (x, gamma, beta); gamma and beta broadcast against
    the last axis.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = float(x.shape[-1])
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / n
    std = ((centered * centered).sum(axis=-1, keepdims=True) / n + _LN_EPS) ** 0.5
    normed = centered / std
    def bwd(g):
        if gamma.requires_grad:
            gamma._accumulate(g * normed)
        if beta.requires_grad:
            beta._accumulate(g, copy=True)
        if x.requires_grad:
            gn = g * gamma.data
            x._accumulate((gn - gn.sum(axis=-1, keepdims=True) / n
                           - normed * (gn * normed).sum(axis=-1, keepdims=True) / n) / std)
    return Tensor._make(normed * gamma.data + beta.data, (x, gamma, beta), bwd)


def take_queries(a: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Rows ``queries`` (..., r) of axis -2 of ``a`` (..., n, m) or (..., H, n, m).

    The leading axes of ``queries`` match those of ``a``; the heads axis, if
    any, shares one index. Returns (..., r, m) or (..., H, r, m).
    """
    extra = (1,) * (a.ndim - queries.ndim - 1)
    return np.take_along_axis(a, queries.reshape(*queries.shape[:-1], *extra, -1, 1), axis=-2)


def query_index(queries: np.ndarray, n: int) -> np.ndarray:
    """Flat row numbers of positions ``queries`` (..., r) in a (..., n, m) array
    viewed as (prod(...) * n, m) rows."""
    lead = queries.shape[:-1]
    return (np.arange(math.prod(lead)).reshape(*lead, 1) * n + queries).reshape(-1)


def keep_mask(rng: np.random.Generator, rate: float, shape: tuple,
              queries: np.ndarray | None = None, n: int | None = None) -> np.ndarray:
    """Inverted-dropout multipliers, 0 or 1/(1 - rate), for an array of ``shape``.

    With ``queries``, ``shape`` holds only those rows of axis -2 out of ``n``:
    the draw is still made at the full shape and then its rows are taken, so
    the RNG stream and every kept value match a full-row mask.
    """
    if queries is None:
        return (rng.random(shape) >= rate) / (1.0 - rate)
    draw = take_queries(rng.random((*shape[:-2], n, shape[-1])), queries)
    return (draw >= rate) / (1.0 - rate)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            queries: np.ndarray | None = None, n: int | None = None) -> Tensor:
    """Inverted dropout; identity when rate == 0.

    ``x`` may hold only the rows ``queries`` of an (..., n, m) activation;
    see :func:`keep_mask`.
    """
    if rate <= 0.0:
        return x
    return x * Tensor(keep_mask(rng, rate, x.shape, queries, n))
