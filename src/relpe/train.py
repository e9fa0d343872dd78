"""Training loop, metrics logging, and evaluation.

Per-step randomness (batch choice, dropout) is derived from (seed, step), so
training is a pure function of the run config and resuming from a checkpoint
reproduces an uninterrupted run.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import time
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_manifest, load_optimizer_state, save_checkpoint
from .config import RunConfig
from .data import PretrainExample
from .encoder import EncoderConfig, EncoderModel, make_batch, pretrain_loss
from .optim import NonFiniteGradientError, lr_at_step, make_optimizer, training_step
from .tensor import NonFiniteValueError, no_grad


class TrainingDiverged(RuntimeError):
    """A training step met a value that must be finite and is not."""


@functools.cache
def _keep_freed_memory_mapped() -> None:
    """Set glibc's mmap and trim thresholds to 256 MiB, once per process.

    ``Trainer`` and ``evaluate`` call this. Memory a step or an evaluation pass
    frees then stays mapped for the next one, instead of being unmapped or
    trimmed and faulted back in. Any mallopt call freezes glibc's
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
        """Check every example against ``config.model`` first, named as
        :func:`evaluate` names an error; the check iterates ``examples`` and
        never indexes it."""
        _keep_freed_memory_mapped()
        if not examples:
            raise ValueError("no training examples")
        for start, chunk in _eval_chunks(config.model, examples):
            with _naming_examples(start, chunk):
                make_batch(chunk, config.model)
        self.config = config
        self.examples = examples
        self.model = EncoderModel(config.model, seed=config.seed)
        self.params = self.model.parameters()
        self.optimizer = make_optimizer(config.optimizer, self.params, config.weight_decay)
        self.step = 0

    def run_step(self, t: int):
        """Execute training step t (1-based) and return its metrics record.

        The step's examples become one :class:`~relpe.encoder.Batch` before the
        forward runs. A step that diverges (see ``training_step``; the loss is
        checked before the backward) raises TrainingDiverged naming t and
        leaves the optimizer unchanged."""
        config = self.config
        lr = lr_at_step(config.schedule, t)
        idx = np.random.default_rng([config.seed, 1, t]).integers(len(self.examples),
                                                                  size=config.batch_size)
        start = time.monotonic()
        batch = make_batch([self.examples[i] for i in idx], config.model)
        dropout = config.model.hidden_dropout > 0 or config.model.attn_dropout > 0
        def loss_fn():
            rng = np.random.default_rng([config.seed, 2, t]) if dropout else None
            loss, metrics = pretrain_loss(self.model.pretrain_forward(batch, rng=rng))
            if not np.isfinite(metrics["loss"]):
                raise NonFiniteValueError(f"loss is {metrics['loss']}")
            return loss, metrics
        try:
            metrics, skipped = training_step(config.precision, loss_fn, self.optimizer, lr)
        except (NonFiniteValueError, NonFiniteGradientError) as exc:
            raise TrainingDiverged(f"training diverged at step {t}: {exc}") from None
        self.step = t
        accuracy = metrics["mlm_accuracy"]   # NaN without predictions; JSON has no NaN
        return {"step": t, **{k: metrics[k] for k in ("loss", "mlm_loss", "nsp_loss")},
                "mlm_accuracy": None if np.isnan(accuracy) else accuracy,
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
        """Run from the current step to config.total_steps, logging every step;
        ``resume_from`` names a checkpoint to :meth:`resume` from first."""
        config = self.config
        out_dir = Path(out_dir if out_dir is not None else config.out_dir)
        resumed = self.resume(resume_from) if resume_from else {}
        start_step = self.step
        out_dir.mkdir(parents=True, exist_ok=True)

        log_path = out_dir / "metrics.jsonl"
        # Resuming into the run's own directory continues its log: earlier
        # records stay, and a resume record marks where the replayed steps
        # start (they supersede any records of the same steps above it).
        append = start_step > 0 and log_path.exists()
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


def _eval_pass_budget(cfg: EncoderConfig) -> int:
    """Elements a multi-example evaluation pass may hold in each of three
    arrays, for B examples padded to length n with P predictions: the attention
    scores of one head (B*n*n), the activations of one layer (B*n*w, w =
    max(d_model, ffn_size)) and the MLM logits (P*vocab_size).

    The budget is the activations of 1,024 tokens at width max(w, 128): a model
    of width 128 or more runs up to 1,024 padded tokens a pass and a narrower
    one more, so each pass's fixed cost is spread over at least 1,024 tokens
    unless the logits bind. It is never below 2 x 256 x 256 (1 MiB of float64,
    the per-head score block of a 512-token pass), and long examples split as
    their per-head scores reach it, so they do not raise the peak above that of
    short ones. The PRPE bank block, (B, n, 2*prpe_clip+1) per head, is not
    counted.
    """
    return 1024 * max(cfg.d_model, cfg.ffn_size, 128)


def _eval_chunks(cfg: EncoderConfig, examples: list[PretrainExample]):
    """(start index, chunk) for consecutive runs of examples, each as long as
    ``_eval_pass_budget(cfg)`` allows; an example too long for it forms a chunk
    of its own.
    """
    width, budget = max(cfg.d_model, cfg.ffn_size), _eval_pass_budget(cfg)
    start, chunk, longest, predictions = 0, [], 0, 0
    for ex in examples:
        n = max(longest, len(ex.tokens))
        p = predictions + len(ex.predict_positions)
        if chunk and max((len(chunk) + 1) * n * max(n, width),
                         p * cfg.vocab_size) > budget:
            yield start, chunk
            start, chunk = start + len(chunk), []
            n, p = len(ex.tokens), len(ex.predict_positions)
        chunk.append(ex)
        longest, predictions = n, p
    if chunk:
        yield start, chunk


@functools.cache
def _take_first_use_memory() -> None:
    """Make one 256 KiB temporary, once per process, before the first evaluation pass.

    NumPy keeps a per-thread block for good, taken at the first temporary of
    256 KiB or more it could reuse in place. Taken during a real pass, it lands
    among the pass's arrays; the next pass then lays its arrays out around it
    and grows the heap (test 09's example set: up to 379 page faults in the
    second evaluation, none after). Taken here, it lands before the pass's
    arrays. Values are unaffected.
    """
    np.ones(1 << 15) + 0.0


@contextlib.contextmanager
def _naming_examples(start: int, chunk: list):
    """Prefix an example error raised inside with the chunk's 0-based range,
    ``examples s-e: ``, before ``make_batch``'s ``batch example i has ...``. An
    int past NumPy's intp range raises OverflowError, also prefixed."""
    try:
        yield
    except (IndexError, ValueError, OverflowError) as exc:
        raise type(exc)(f"examples {start}-{start + len(chunk) - 1}: {exc}") from None


def evaluate(model: EncoderModel, examples: list[PretrainExample]) -> dict:
    """MLM loss/accuracy per prediction and NSP accuracy over an example set.

    Builds one :class:`~relpe.encoder.Batch` per chunk of examples and runs
    the training step's forward and loss on it, without building a graph; as
    in a training step, floating-point warnings are silenced and a non-finite
    value raises NonFiniteValueError. An error, such as an example the model
    cannot run, names its chunk's examples (``examples s-e: ...``).
    """
    _keep_freed_memory_mapped()
    totals = dict.fromkeys(("num_predictions", "mlm_nll_sum", "mlm_correct",
                            "nsp_correct"), 0)
    with no_grad(), np.errstate(all="ignore"):
        _take_first_use_memory()
        for start, chunk in _eval_chunks(model.cfg, examples):
            with _naming_examples(start, chunk):
                _, metrics = pretrain_loss(model.pretrain_forward(make_batch(chunk, model.cfg)))
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
