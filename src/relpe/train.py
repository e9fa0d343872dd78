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

from .checkpoint import load_optimizer_state, save_checkpoint
from .config import RunConfig
from .data import PretrainExample
from .encoder import EncoderModel, pretrain_loss
from .optim import lr_at_step, make_optimizer, training_step
from .tensor import no_grad


class TrainingDiverged(RuntimeError):
    pass


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

    def _batch_for_step(self, t: int) -> list[PretrainExample]:
        rng = np.random.default_rng([self.config.seed, 1, t])
        idx = rng.integers(len(self.examples), size=self.config.batch_size)
        return [self.examples[i] for i in idx]

    def _loss_fn_for_step(self, t: int):
        batch = self._batch_for_step(t)
        dropout_active = (self.config.model.hidden_dropout > 0
                          or self.config.model.attn_dropout > 0)

        def loss_fn():
            rng = (np.random.default_rng([self.config.seed, 2, t])
                   if dropout_active else None)
            return pretrain_loss(self.model.pretrain_forward(batch, rng=rng), batch)

        return loss_fn

    def run_step(self, t: int):
        """Execute training step t (1-based); returns the metrics record."""
        lr = lr_at_step(self.config.schedule, t)
        loss_fn = self._loss_fn_for_step(t)
        start = time.monotonic()
        metrics, skipped = training_step(self.config.precision, loss_fn, self.optimizer, lr)
        if self.config.precision.mode == "full" and not np.isfinite(metrics["loss"]):
            raise TrainingDiverged(f"non-finite loss at step {t}: {metrics['loss']}")
        self.step = t
        record = {"step": t, **{k: metrics[k] for k in
                                ("loss", "mlm_loss", "nsp_loss", "mlm_accuracy")},
                  "lr": lr, "skipped": skipped,
                  "wall_time": time.monotonic() - start}
        return record

    def save(self, path, metrics=None):
        save_checkpoint(path, self.optimizer, self.config.to_dict(), self.step, metrics)

    def resume(self, checkpoint_path):
        self.step = load_optimizer_state(checkpoint_path, self.optimizer)["step"]
        return self.step

    def train(self, out_dir=None, resume_from=None):
        """Run from the current step to config.total_steps, logging every step."""
        config = self.config
        out_dir = Path(out_dir if out_dir is not None else config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        start_step = self.resume(resume_from) if resume_from else 0

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
                self.save(out_dir / "checkpoint-final", metrics=last)
            return last


# Most padded tokens (examples x longest length) in one evaluation pass.
_EVAL_CHUNK_TOKENS = 512


def _eval_chunks(examples: list[PretrainExample]):
    """(start index, chunk) for consecutive runs of examples whose padded
    size fits _EVAL_CHUNK_TOKENS; a longer example forms a chunk of its own.
    """
    start, chunk, longest = 0, [], 0
    for ex in examples:
        n = max(longest, len(ex.tokens))
        if chunk and n * (len(chunk) + 1) > _EVAL_CHUNK_TOKENS:
            yield start, chunk
            start, chunk, n = start + len(chunk), [], len(ex.tokens)
        chunk.append(ex)
        longest = n
    if chunk:
        yield start, chunk


def evaluate(model: EncoderModel, examples: list[PretrainExample]) -> dict:
    """MLM loss/accuracy per prediction and NSP accuracy over an example set.

    Runs the training step's batched forward and loss on chunks of examples,
    without building a graph.
    """
    totals = dict.fromkeys(("num_predictions", "mlm_nll_sum", "mlm_correct",
                            "nsp_correct"), 0)
    with no_grad():
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
