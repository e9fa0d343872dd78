"""LAMB and Adam optimizers, LR schedules, and emulated mixed precision.

The mixed-precision path keeps full-precision master weights, rounds them to
binary16 working copies for each step, runs forward/backward with every
primitive result rounded to binary16 (via the tensor value filter), widens
the gradients, and applies the optimizer update to the masters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, value_filter


class NonFiniteGradientError(RuntimeError):
    """A gradient was NaN/inf where the policy does not allow skipping."""


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

@dataclass
class LrSchedule:
    kind: str = "linear_warmup_linear_decay"     # or linear_warmup_poly_decay
    lr_max: float = 1e-3
    warmup_steps: int = 100
    total_steps: int = 1000
    poly_power: float = 1.0

    KINDS = ("linear_warmup_linear_decay", "linear_warmup_poly_decay")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.warmup_steps < self.total_steps:
            raise ValueError("need 0 < warmup_steps < total_steps")


def lr_at_step(schedule: LrSchedule, t: int) -> float:
    """Learning rate at step t; past the end the rate clamps to 0."""
    if t < 0:
        raise ValueError("step must be >= 0")
    w, total = schedule.warmup_steps, schedule.total_steps
    if t > total:
        return 0.0
    if t <= w:
        return schedule.lr_max * t / w
    frac = (total - t) / (total - w)
    if schedule.kind == "linear_warmup_poly_decay":
        frac = frac ** schedule.poly_power
    return schedule.lr_max * frac


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def default_exclusion(name: str) -> bool:
    """Blocks exempt from weight decay and trust scaling: norms and biases."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf in ("gamma", "beta") or "bias" in leaf:
        return True
    return leaf.startswith("b") and not leaf.startswith("bank")


@dataclass
class OptimizerState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.01
    use_exclusion_list: bool = True
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


class _MomentOptimizer:
    """Shared Adam-style moment machinery; subclasses scale the update."""

    trust_scaling = False

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-6, weight_decay=0.01,
                 use_exclusion_list=True):
        self.state = OptimizerState(beta1=beta1, beta2=beta2, eps=eps,
                                    weight_decay=weight_decay,
                                    use_exclusion_list=use_exclusion_list)

    def _excluded(self, name: str) -> bool:
        return self.state.use_exclusion_list and default_exclusion(name)

    def step(self, params: dict[str, Tensor], lr: float,
             grads: dict[str, np.ndarray] | None = None):
        """One update over all blocks; the step counter advances once per call."""
        st = self.state
        st.step += 1
        t = st.step
        for name, p in params.items():
            g = grads[name] if grads is not None else p.grad
            if g is None:
                g = np.zeros_like(p.data)
            g = np.asarray(g, dtype=np.float64)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient in block {name!r}")
            if name not in st.m:
                st.m[name] = np.zeros_like(p.data)
                st.v[name] = np.zeros_like(p.data)
            st.m[name] = st.beta1 * st.m[name] + (1.0 - st.beta1) * g
            st.v[name] = st.beta2 * st.v[name] + (1.0 - st.beta2) * g * g
            m_hat = st.m[name] / (1.0 - st.beta1 ** t)
            v_hat = st.v[name] / (1.0 - st.beta2 ** t)
            r = m_hat / (np.sqrt(v_hat) + st.eps)
            decay = 0.0 if self._excluded(name) else st.weight_decay
            u = r + decay * p.data
            scale = lr
            if self.trust_scaling and not self._excluded(name):
                w_norm = float(np.linalg.norm(p.data))
                u_norm = float(np.linalg.norm(u))
                trust = w_norm / u_norm if w_norm > 0.0 and u_norm > 0.0 else 1.0
                scale = lr * trust
            p.data = p.data - scale * u


class LambOptimizer(_MomentOptimizer):
    """Layer-wise adaptive update: Adam direction scaled by ||w|| / ||u|| per block."""
    trust_scaling = True


class AdamOptimizer(_MomentOptimizer):
    """Plain Adam with decoupled weight decay (no trust scaling)."""
    trust_scaling = False


def make_optimizer(kind: str, **kwargs) -> _MomentOptimizer:
    if kind == "lamb":
        return LambOptimizer(**kwargs)
    if kind == "adam":
        return AdamOptimizer(**kwargs)
    raise ValueError(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# mixed precision
# ---------------------------------------------------------------------------

@dataclass
class PrecisionPolicy:
    mode: str = "full"                 # "full" or "mixed_emulated"
    loss_scale: float = 1024.0
    skip_on_overflow: bool = True

    def __post_init__(self):
        if self.mode not in ("full", "mixed_emulated"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        s = self.loss_scale
        if s < 1.0 or 2.0 ** round(np.log2(s)) != s:
            raise ValueError("loss_scale must be a power of two >= 1")


def training_step(policy: PrecisionPolicy, loss_fn, params: dict[str, Tensor],
                  optimizer: _MomentOptimizer, lr: float):
    """Run one optimizer step under the precision policy.

    ``loss_fn`` builds the scalar loss tensor from the parameters' current
    data and returns (loss, metrics). Returns (metrics, skipped). In mixed
    mode the parameters' data holds the master weights; working binary16
    copies exist only inside this call.
    """
    for p in params.values():
        p.zero_grad()

    if policy.mode == "full":
        loss, metrics = loss_fn()
        loss.backward()
        optimizer.step(params, lr)
        return metrics, False

    masters = {name: p.data for name, p in params.items()}
    try:
        for p in params.values():
            p.data = round_half(p.data)
        with value_filter(round_half):
            loss, metrics = loss_fn()
            scaled = loss * policy.loss_scale
            scaled.backward()
        grads = {}
        overflow = False
        for name, p in params.items():
            g = np.zeros_like(p.data) if p.grad is None else p.grad.astype(np.float64)
            g = g / policy.loss_scale
            if not np.all(np.isfinite(g)):
                overflow = True
            grads[name] = g
    finally:
        for name, p in params.items():
            p.data = masters[name]

    if overflow:
        if not policy.skip_on_overflow:
            raise NonFiniteGradientError(
                "non-finite gradient under mixed precision with overflow-skip disabled")
        return metrics, True
    optimizer.step(params, lr, grads)
    return metrics, False
