"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, EncoderModel, make_batch, pretrain_loss
from .synth import make_offset_copy_examples
from .tensor import Tensor, no_grad


class NonDeterministicLossError(RuntimeError):
    """The loss function returned different values on repeated evaluation."""


@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_parameter: str
    per_parameter: dict = field(default_factory=dict)

    def passed(self, threshold: float = 1e-4) -> bool:
        return self.max_relative_error < threshold


def _relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def check_gradients(loss_fn, params: dict[str, Tensor], step: float = 1e-4,
                    samples_per_param: int = 64,
                    rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare tape gradients with central differences per coordinate.

    ``loss_fn`` must be a deterministic scalar-valued function of ``params``
    (evaluated with the parameters' current data). Coordinates are sampled
    when a parameter has more than ``samples_per_param`` entries. Only the
    analytic pass builds a graph; the determinism probes and every perturbed
    evaluation run under :func:`no_grad`.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)

    with no_grad():
        base = loss_fn().item()
        repeat = loss_fn().item()
    if repeat != base:
        raise NonDeterministicLossError(
            "loss function is not deterministic; gradient check is meaningless")

    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }

    worst = 0.0
    worst_name = ""
    per_parameter = {}
    with no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            n = flat.size
            if n <= samples_per_param:
                coords = np.arange(n)
            else:
                coords = rng.choice(n, size=samples_per_param, replace=False)
            param_worst = 0.0
            for c in coords:
                orig = flat[c]
                a = analytic[name].reshape(-1)[c]
                # Two step sizes: the small one bounds truncation error, the
                # large one bounds float64 roundoff when the true gradient is
                # near zero.
                err = np.inf
                for h in (step, 8.0 * step):
                    flat[c] = orig + h
                    f_plus = loss_fn().item()
                    flat[c] = orig - h
                    f_minus = loss_fn().item()
                    flat[c] = orig
                    numeric = (f_plus - f_minus) / (2.0 * h)
                    err = min(err, _relative_error(a, numeric))
                param_worst = max(param_worst, err)
            per_parameter[name] = param_worst
            if param_worst > worst:
                worst = param_worst
                worst_name = name
    return GradCheckReport(max_relative_error=worst, worst_parameter=worst_name,
                           per_parameter=per_parameter)


def check_full_model(scheme, seed: int = 0) -> GradCheckReport:
    """Gradient check of the whole pretraining loss for one positional scheme.

    The model is a 2-layer encoder (d_model 64, 2 heads, vocabulary 128,
    ``max_seq_len`` 32) built from ``seed``, on one length-12 offset-copy
    example with two masked queries and NSP label 1. Its batch is built once;
    every forward of the check runs it.
    """
    cfg = EncoderConfig(vocab_size=128, d_model=64, num_layers=2, num_heads=2,
                        max_seq_len=32, scheme=scheme)
    model = EncoderModel(cfg, seed=seed)
    example = make_offset_copy_examples(1, 12, cfg.vocab_size - 5, -3,
                                        np.random.default_rng(7))[0]
    example.nsp_label = 1
    batch = make_batch([example], cfg)

    def loss_fn():
        loss, _ = pretrain_loss(model.pretrain_forward(batch))
        return loss

    return check_gradients(loss_fn, model.parameters(), rng=np.random.default_rng(11))
