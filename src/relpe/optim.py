"""LAMB and Adam optimizers, LR schedules, and emulated mixed precision.

``training_step`` is the one step of both precisions: mixed precision runs it
on binary16 working copies of full-precision masters, which the update moves.
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
    independent frexp/ldexp implementation. It sets no floating-point error
    state (``training_step`` silences the whole step once), so a standalone
    call on a value past ``HALF_MAX`` may warn "overflow encountered in cast".
    """
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
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


class _MomentOptimizer:
    """Shared Adam-style moment machinery; subclasses scale the update.

    The constructor lays ``params`` out once in flat float64 buffers: masters
    ``w``, moments ``m``/``v``, gradient ``g`` and scratch ``a``, block i at
    ``spans[i]``. Every ``p.data`` and ``state.m``/``state.v`` entry is a view
    of them from then on; ``decay`` holds each element's weight decay (0.0 on
    excluded blocks).
    """

    trust_scaling = False

    def __init__(self, params: dict[str, Tensor], weight_decay=0.01):
        self.params = dict(params)
        self.shapes = [p.data.shape for p in self.params.values()]
        sizes = [p.data.size for p in self.params.values()]
        ends = np.cumsum(sizes).tolist()
        self.spans = list(zip([0] + ends[:-1], ends))
        excluded = [default_exclusion(name) for name in self.params]
        self.scaled = [span for span, x in zip(self.spans, excluded)
                       if self.trust_scaling and not x]
        self.decay = np.repeat([0.0 if x else weight_decay for x in excluded], sizes)
        self.w = np.concatenate([p.data for p in self.params.values()], axis=None)
        self.m, self.v, self.g, self.a = (np.zeros(self.w.size) for _ in range(4))
        self.state = OptimizerState(m=dict(zip(self.params, self.split(self.m))),
                                    v=dict(zip(self.params, self.split(self.v))))
        self.bind(self.w)

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[lo:hi].reshape(shape) for (lo, hi), shape in zip(self.spans, self.shapes)]

    def bind(self, flat: np.ndarray):
        """Point every ``p.data`` at its block of ``flat``: the masters or a working copy."""
        for p, x in zip(self.params.values(), self.split(flat)):
            p.data = x

    def gather(self, grads) -> np.ndarray:
        """The flat ``g`` of per-block gradients in parameter order (None: zeros)."""
        grads = [np.zeros(shape) if g is None else g for g, shape in zip(grads, self.shapes)]
        return np.concatenate(grads, axis=None, out=self.g)

    def step(self, lr: float, grads: dict | np.ndarray | None = None):
        """One update over all blocks; the step counter advances once per call. ``grads``
        maps names to gradients (default: each ``p.grad``) or is the flat ``g``."""
        st, params = self.state, self.params
        if grads is not self.g:
            self.gather(p.grad if grads is None else grads[name] for name, p in params.items())
        g, m, v, w, a = self.g, self.m, self.v, self.w, self.a
        if not np.isfinite(g).all():
            name = next(n for n, x in zip(params, self.split(g)) if not np.isfinite(x).all())
            raise NonFiniteGradientError(f"non-finite gradient in block {name!r}")
        st.step += 1
        # The per-block update in place: a becomes u, and g (spent) the per-element scale.
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=a), g, out=a)
        np.divide(m, 1.0 - BETA1 ** st.step, out=a)
        np.sqrt(np.divide(v, 1.0 - BETA2 ** st.step, out=g), out=g)
        a /= np.add(g, EPS, out=g)
        a += np.multiply(w, self.decay, out=g)
        g.fill(lr)
        for lo, hi in self.scaled:   # ||x|| reduces as np.linalg.norm does
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


def make_optimizer(kind: str, params: dict[str, Tensor], weight_decay=0.01) -> _MomentOptimizer:
    if kind == "lamb":
        return LambOptimizer(params, weight_decay)
    if kind == "adam":
        return AdamOptimizer(params, weight_decay)
    raise ValueError(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# mixed precision
# ---------------------------------------------------------------------------

@dataclass
class PrecisionPolicy:
    # Both modes run training_step's one sequence. A non-finite unscaled
    # gradient skips a "mixed_emulated" step and ends a "full" run.
    mode: str = "full"                 # "full" or "mixed_emulated"
    loss_scale: float = 1024.0         # the mixed backward seed

    def __post_init__(self):
        if self.mode not in ("full", "mixed_emulated"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        require_number(self, "loss_scale", float, 1)
        if math.frexp(self.loss_scale)[0] != 0.5:
            raise ValueError(f"loss_scale={self.loss_scale!r} must be a power of two >= 1")


def training_step(policy: PrecisionPolicy, loss_fn, optimizer: _MomentOptimizer, lr: float):
    """Run one optimizer step over ``optimizer.params``; returns (metrics, skipped).

    ``loss_fn`` builds the scalar loss from the parameters' current data and
    returns (loss, metrics). One sequence serves both modes; mixed mode adds
    the binary16 working copy (inside this call only), the round_half filter,
    the loss-scaled seed and the unscale. A non-finite forward value raises the
    guard's NonFiniteValueError; a non-finite gradient raises NonFiniteGradientError
    from ``optimizer.step`` in full mode and skips a mixed step untouched. The
    step's floating-point warnings are silenced: the guards name the value.
    """
    mixed = policy.mode == "mixed_emulated"
    scale = policy.loss_scale if mixed else 1.0
    params = optimizer.params.values()
    for p in params:
        p.zero_grad()
    with np.errstate(all="ignore"):
        try:
            if mixed:
                optimizer.bind(round_half(optimizer.w))
            with value_filter(round_half if mixed else None):
                loss, metrics = loss_fn()
                # The seed is the loss scale's binary16 value: a power of two
                # past HALF_MAX rounds to inf.
                loss.backward(scale if scale <= HALF_MAX else math.inf)
            g = optimizer.gather(p.grad for p in params)
        finally:
            if mixed:
                optimizer.bind(optimizer.w)
        if mixed:
            g /= scale
            if not np.isfinite(g).all():
                return metrics, True
        optimizer.step(lr, g)
    return metrics, False
