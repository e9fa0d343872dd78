"""Training loop, metrics logging, and evaluation.

Per-step randomness (batch choice, dropout) is derived from (seed, step), so
training is a pure function of the run config and resuming from a checkpoint
reproduces an uninterrupted run.
"""

from __future__ import annotations

import ctypes
import functools
import json
import time
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_manifest, load_optimizer_state, save_checkpoint
from .config import RunConfig
from .data import PretrainExample
from .encoder import EncoderModel, pretrain_loss
from .optim import NonFiniteGradientError, lr_at_step, make_optimizer, training_step
from .tensor import NonFiniteValueError, no_grad


class TrainingDiverged(RuntimeError):
    """A training step met a value that must be finite and is not."""


@functools.cache
def _keep_freed_memory_mapped() -> None:
    """Set glibc's mmap and trim thresholds to 256 MiB, once per process.

    Memory a step frees then stays mapped for the next step, instead of being
    unmapped or trimmed and faulted back in. Any mallopt call freezes glibc's
    dynamic mmap threshold, so the trim threshold is set only if the mmap
    threshold was. Values are unaffected; hosts without glibc's mallopt skip this.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 256 << 20) == 1:      # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)           # M_TRIM_THRESHOLD


class Trainer:
    def __init__(self, config: RunConfig, examples: list[PretrainExample]):
        _keep_freed_memory_mapped()
        if not examples:
            raise ValueError("no training examples")
        self.config = config
        self.examples = examples
        self.model = EncoderModel(config.model, seed=config.seed)
        self.params = self.model.parameters()
        self.optimizer = make_optimizer(config.optimizer, self.params, config.weight_decay)
        self.step = 0

    def run_step(self, t: int):
        """Execute training step t (1-based) and return its metrics record; a step
        that diverges (see ``training_step``; the loss is checked before the
        backward) raises TrainingDiverged naming t and leaves the optimizer unchanged."""
        config = self.config
        lr = lr_at_step(config.schedule, t)
        idx = np.random.default_rng([config.seed, 1, t]).integers(len(self.examples),
                                                                  size=config.batch_size)
        batch = [self.examples[i] for i in idx]
        dropout = config.model.hidden_dropout > 0 or config.model.attn_dropout > 0
        def loss_fn():
            rng = np.random.default_rng([config.seed, 2, t]) if dropout else None
            loss, metrics = pretrain_loss(self.model.pretrain_forward(batch, rng=rng), batch)
            if not np.isfinite(metrics["loss"]):
                raise NonFiniteValueError(f"loss is {metrics['loss']}")
            return loss, metrics
        start = time.monotonic()
        try:
            metrics, skipped = training_step(config.precision, loss_fn, self.optimizer, lr)
        except (NonFiniteValueError, NonFiniteGradientError) as exc:
            raise TrainingDiverged(f"training diverged at step {t}: {exc}") from None
        self.step = t
        return {"step": t, **{k: metrics[k] for k in
                              ("loss", "mlm_loss", "nsp_loss", "mlm_accuracy")},
                "lr": lr, "skipped": skipped, "wall_time": time.monotonic() - start}

    def save(self, path, metrics=None):
        save_checkpoint(path, self.optimizer, self.config.to_dict(), self.step, metrics)

    def resume(self, checkpoint_path) -> dict:
        """Restore a checkpoint's masters, moments and step; returns its manifest."""
        step, total = load_manifest(checkpoint_path)["step"], self.config.total_steps
        if step > total:
            raise CheckpointError(f"resume step {step} is past total_steps={total}")
        manifest = load_optimizer_state(checkpoint_path, self.optimizer)
        self.step = manifest["step"]
        return manifest

    def train(self, out_dir=None, resume_from=None):
        """Run from the current step to config.total_steps, logging every step."""
        config = self.config
        out_dir = Path(out_dir if out_dir is not None else config.out_dir)
        resumed = self.resume(resume_from) if resume_from else {"step": 0}
        start_step = resumed["step"]
        out_dir.mkdir(parents=True, exist_ok=True)

        log_path = out_dir / "metrics.jsonl"
        # Resuming into the run's own directory continues its log: earlier
        # records stay, and a resume record marks where the replayed steps
        # start (they supersede any records of the same steps above it).
        append = bool(resume_from) and log_path.exists()
        with open(log_path, "a" if append else "w", encoding="utf-8") as log_fh:
            if append:
                log_fh.write(json.dumps({"type": "resume", "from_step": start_step}) + "\n")
            else:
                log_fh.write(json.dumps({"type": "header", "run_config": config.to_dict(),
                                         "seed": config.seed}) + "\n")
            last = None
            if config.total_steps == 0:
                self.save(out_dir / "checkpoint-init")
            for t in range(start_step + 1, config.total_steps + 1):
                last = self.run_step(t)
                log_fh.write(json.dumps(last) + "\n")
                if config.checkpoint_every and t % config.checkpoint_every == 0 \
                        and t != config.total_steps:
                    self.save(out_dir / f"checkpoint-{t}", metrics=last)
            if config.total_steps > 0:
                # a resume with no step left keeps its checkpoint's metrics
                self.save(out_dir / "checkpoint-final",
                          metrics=resumed.get("metrics") if last is None else last)
            return last


# Limits of one multi-example evaluation pass of B examples padded to length
# n: B*n padded tokens, which bound the fixed cost each pass amortizes, and
# B*n*n attention scores per head, which bound its largest block to that of a
# 512-token pass (2 x 256 x 256) so long examples do not grow the peak memory.
_EVAL_CHUNK_TOKENS = 1024
_EVAL_CHUNK_SCORES = 2 * 256 * 256


def _eval_chunks(examples: list[PretrainExample]):
    """(start index, chunk) for consecutive runs of examples within both
    limits above; a longer example forms a chunk of its own.
    """
    start, chunk, longest = 0, [], 0
    for ex in examples:
        n = max(longest, len(ex.tokens))
        if chunk and (n * (len(chunk) + 1) > _EVAL_CHUNK_TOKENS
                      or n * n * (len(chunk) + 1) > _EVAL_CHUNK_SCORES):
            yield start, chunk
            start, chunk, n = start + len(chunk), [], len(ex.tokens)
        chunk.append(ex)
        longest = n
    if chunk:
        yield start, chunk


def evaluate(model: EncoderModel, examples: list[PretrainExample]) -> dict:
    """MLM loss/accuracy per prediction and NSP accuracy over an example set.

    Runs the training step's batched forward and loss on chunks of examples,
    without building a graph; as in a training step, floating-point warnings
    are silenced and a non-finite value raises NonFiniteValueError.
    """
    totals = dict.fromkeys(("num_predictions", "mlm_nll_sum", "mlm_correct",
                            "nsp_correct"), 0)
    with no_grad(), np.errstate(all="ignore"):
        for start, chunk in _eval_chunks(examples):
            try:
                _, metrics = pretrain_loss(model.pretrain_forward(chunk), chunk)
            except (IndexError, ValueError) as exc:   # name the examples, not the chunk
                raise type(exc)(f"examples {start}-{start + len(chunk) - 1}: {exc}") from None
            for key in totals:
                totals[key] += metrics[key]
    n, n_pred = len(examples), totals["num_predictions"]
    return {
        "num_examples": n,
        "num_predictions": n_pred,
        "mlm_loss": totals["mlm_nll_sum"] / n_pred if n_pred else 0.0,
        "mlm_accuracy": totals["mlm_correct"] / n_pred if n_pred else 0.0,
        "nsp_accuracy": totals["nsp_correct"] / n if n else 0.0,
    }
