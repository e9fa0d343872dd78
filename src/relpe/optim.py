"""LAMB and Adam optimizers, LR schedules, and emulated mixed precision.

The mixed-precision path keeps full-precision master weights, rounds them to
binary16 working copies for each step, runs forward/backward with every
primitive result rounded to binary16 (via the tensor value filter), widens
the gradients, and applies the optimizer update to the masters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, value_filter


class NonFiniteGradientError(RuntimeError):
    """A gradient handed to ``step`` was NaN/inf."""


# ---------------------------------------------------------------------------
# binary16 rounding
# ---------------------------------------------------------------------------

HALF_MAX = 65504.0


def round_half(x):
    """Round to the nearest IEEE-754 binary16 value (ties to even), re-widened.

    Overflow maps to signed infinity, subnormals are honored, and NaN passes
    through. Accepts scalars or arrays; returns float64. The rounding is
    numpy's float16 conversion; the tests check it bit for bit against an
    independent frexp/ldexp implementation.
    """
    with np.errstate(over="ignore"):
        out = np.asarray(x, dtype=np.float64).astype(np.float16).astype(np.float64)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# learning-rate schedules
# ---------------------------------------------------------------------------

def require_number(owner, name: str, kind: type, low, error=ValueError):
    """Raise ``error`` unless ``owner.<name>`` is a finite ``kind`` >= ``low``.

    A ``float`` setting also takes an int; a bool is never a number here.
    """
    value = getattr(owner, name)
    types = (int, float) if kind is float else (kind,)
    if (isinstance(value, bool) or not isinstance(value, types)
            or not math.isfinite(value) or value < low):
        what = "a finite number" if kind is float else f"an {kind.__name__}"
        raise error(f"{name}={value!r} must be {what} >= {low}")


@dataclass
class LrSchedule:
    """Linear warmup to ``lr_max``, then linear decay to 0 at ``total_steps``."""
    lr_max: float = 1e-3
    warmup_steps: int = 100
    total_steps: int = 1000

    def __post_init__(self):
        require_number(self, "lr_max", float, 0)
        require_number(self, "warmup_steps", int, 1)
        require_number(self, "total_steps", int, 1)
        if not self.warmup_steps < self.total_steps:
            raise ValueError(f"warmup_steps={self.warmup_steps} must be < "
                             f"total_steps={self.total_steps}")


def lr_at_step(schedule: LrSchedule, t: int) -> float:
    """Learning rate at step t; past the end the rate clamps to 0."""
    if t < 0:
        raise ValueError("step must be >= 0")
    w, total = schedule.warmup_steps, schedule.total_steps
    if t > total:
        return 0.0
    if t <= w:
        return schedule.lr_max * t / w
    return schedule.lr_max * ((total - t) / (total - w))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def default_exclusion(name: str) -> bool:
    """Blocks exempt from weight decay and trust scaling: norms and biases."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("gamma", "beta") or "bias" in leaf:
        return True
    return leaf.startswith("b") and not leaf.startswith("bank")


# Moment decay rates and denominator epsilon (You et al. 2019).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-6


@dataclass
class OptimizerState:
    weight_decay: float = 0.01
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


class _Layout:
    """Flat float64 masters ``w``, moments ``m``/``v``, gradient ``g`` and scratch ``a``
    of the blocks ``key`` ((name, tensor, shape), ...); block i is ``spans[i]``.
    ``decay`` holds each element's weight decay: 0.0 on excluded blocks."""

    def __init__(self, key, excluded: list[bool], trust_scaling: bool, weight_decay: float):
        sizes = [math.prod(shape) for _, _, shape in key]
        ends = np.cumsum(sizes).tolist()
        self.key, self.spans = key, list(zip([0] + ends[:-1], ends))
        self.scaled = [span for span, x in zip(self.spans, excluded) if trust_scaling and not x]
        self.weight_decay = weight_decay
        self.decay = np.repeat([0.0 if x else weight_decay for x in excluded], sizes)
        self.w, self.m, self.v, self.g, self.a = (np.zeros(ends[-1]) for _ in range(5))
        self.wv, self.mv, self.vv = map(self.split, (self.w, self.m, self.v))

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[lo:hi].reshape(k[2]) for (lo, hi), k in zip(self.spans, self.key)]

    def gather(self, grads) -> np.ndarray:
        grads = [np.zeros(w.shape) if g is None else g for g, w in zip(grads, self.wv)]
        return np.concatenate(grads, axis=None, out=self.g)


def _bound(view: np.ndarray, array) -> np.ndarray:
    """``view``, first overwritten with ``array`` (zeros for None) unless it is ``array``."""
    if array is not view:
        view[...] = 0.0 if array is None else array
    return view


class _MomentOptimizer:
    """Shared Adam-style moment machinery; subclasses scale the update. ``p.data`` and
    ``state.m``/``state.v`` are views of one ``_Layout``; replaced arrays are copied in."""

    trust_scaling = False

    def __init__(self, weight_decay=0.01):
        self.state = OptimizerState(weight_decay=weight_decay)
        self._flat: _Layout | None = None

    def _layout(self, params: dict[str, Tensor]) -> _Layout:
        """The layout of ``params``, with every ``p.data`` bound to its master view."""
        key = tuple((n, p, p.data.shape) for n, p in params.items())
        decay = self.state.weight_decay
        if self._flat is None or self._flat.key != key or self._flat.weight_decay != decay:
            excluded = [default_exclusion(name) for name in params]
            self._flat = _Layout(key, excluded, self.trust_scaling, decay)
        for p, w in zip(params.values(), self._flat.wv):
            p.data = _bound(w, p.data)
        return self._flat

    def step(self, params: dict[str, Tensor], lr: float, grads: dict | np.ndarray | None = None):
        """One update over all blocks; the step counter advances once per call. ``grads``
        maps names to gradients (default: each ``p.grad``) or is the layout's flat ``g``."""
        st, lay = self.state, self._layout(params)
        if grads is not lay.g:
            lay.gather(p.grad if grads is None else grads[name] for name, p in params.items())
        g, m, v, w, a = lay.g, lay.m, lay.v, lay.w, lay.a
        if not np.isfinite(g).all():
            name = next(n for n, x in zip(params, lay.split(g)) if not np.isfinite(x).all())
            raise NonFiniteGradientError(f"non-finite gradient in block {name!r}")
        for name, mv, vv in zip(params, lay.mv, lay.vv):
            st.m[name], st.v[name] = _bound(mv, st.m.get(name)), _bound(vv, st.v.get(name))
        st.step += 1
        # The per-block update in place: a becomes u, and g (spent) the per-element scale.
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=a), g, out=a)
        np.divide(m, 1.0 - BETA1 ** st.step, out=a)
        np.sqrt(np.divide(v, 1.0 - BETA2 ** st.step, out=g), out=g)
        a /= np.add(g, EPS, out=g)
        a += np.multiply(w, lay.decay, out=g)
        g.fill(lr)
        for lo, hi in lay.scaled:   # ||x|| reduces as np.linalg.norm does
            w_norm = math.sqrt(w[lo:hi].dot(w[lo:hi]))
            u_norm = math.sqrt(a[lo:hi].dot(a[lo:hi]))
            if w_norm > 0.0 and u_norm > 0.0:
                g[lo:hi] = lr * (w_norm / u_norm)
        w -= np.multiply(a, g, out=a)


class LambOptimizer(_MomentOptimizer):
    """Layer-wise adaptive update: Adam direction scaled by ||w|| / ||u|| per block."""
    trust_scaling = True


class AdamOptimizer(_MomentOptimizer):
    """Plain Adam with decoupled weight decay (no trust scaling)."""
    trust_scaling = False


def make_optimizer(kind: str, weight_decay=0.01) -> _MomentOptimizer:
    if kind == "lamb":
        return LambOptimizer(weight_decay)
    if kind == "adam":
        return AdamOptimizer(weight_decay)
    raise ValueError(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# mixed precision
# ---------------------------------------------------------------------------

@dataclass
class PrecisionPolicy:
    mode: str = "full"                 # "full" or "mixed_emulated"
    loss_scale: float = 1024.0         # an overflowing step is skipped

    def __post_init__(self):
        if self.mode not in ("full", "mixed_emulated"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        require_number(self, "loss_scale", float, 1)
        if math.frexp(self.loss_scale)[0] != 0.5:
            raise ValueError(f"loss_scale={self.loss_scale!r} must be a power of two >= 1")


def training_step(policy: PrecisionPolicy, loss_fn, params: dict[str, Tensor],
                  optimizer: _MomentOptimizer, lr: float):
    """Run one optimizer step under the precision policy.

    ``loss_fn`` builds the scalar loss tensor from the parameters' current
    data and returns (loss, metrics). Returns (metrics, skipped): a mixed
    step whose unscaled gradient is not finite leaves weights and moments
    untouched. In mixed mode the parameters' data holds the master weights;
    working binary16 copies exist only inside this call.
    """
    for p in params.values():
        p.zero_grad()

    if policy.mode == "full":
        loss, metrics = loss_fn()
        loss.backward()
        optimizer.step(params, lr)
        return metrics, False

    lay = optimizer._layout(params)
    try:
        for p, working in zip(params.values(), lay.split(round_half(lay.w))):
            p.data = working
        with value_filter(round_half):
            loss, metrics = loss_fn()
            # The seed is the loss scale's binary16 value: a power of two past
            # HALF_MAX rounds to inf.
            loss.backward(policy.loss_scale if policy.loss_scale <= HALF_MAX else math.inf)
        grads = lay.gather(p.grad for p in params.values())
        grads /= policy.loss_scale
        overflow = not np.isfinite(grads).all()
    finally:
        for p, w in zip(params.values(), lay.wv):
            p.data = w

    if not overflow:
        optimizer.step(params, lr, grads)
    return metrics, overflow
