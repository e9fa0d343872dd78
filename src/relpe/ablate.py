"""Ablation grid over positional-encoding scheme, masking strategy, and length.

Each cell trains a tiny model on the offset-copy task at the training length
and evaluates at both the training and the extrapolated length. Absolute
encodings built for the training length cannot address longer sequences;
that failure is recorded as an out-of-range cell rather than a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig
from .encoder import EncoderConfig, EncoderModel
from .optim import LrSchedule, lr_at_step, make_optimizer
from .posenc import Scheme
from .synth import make_offset_copy_examples
from .tensor import Tensor
from .train import evaluate
from .encoder import pretrain_loss

DEFAULT_OFFSET = -3


@dataclass
class AblationGrid:
    schemes: list[str] = field(default_factory=lambda: ["pape", "prpe", "frpe"])
    strategies: list[str] = field(default_factory=lambda: ["char", "wwm"])
    sl_train: int = 32
    sl_eval: int = 64
    steps: int = 1500
    batch_size: int = 8
    num_symbols: int = 48
    offset: int = DEFAULT_OFFSET
    d_model: int = 32
    num_layers: int = 1
    num_heads: int = 2
    optimizer: str = "adam"
    lr_max: float = 0.003
    seed: int = 0
    pape_max_position: int | None = None  # default: sl_train (hard length limit)


def _cell_config(grid: AblationGrid, scheme: str) -> EncoderConfig:
    maxpos = grid.pape_max_position or grid.sl_train
    return EncoderConfig(
        vocab_size=5 + grid.num_symbols,
        d_model=grid.d_model,
        num_layers=grid.num_layers,
        num_heads=grid.num_heads,
        ffn_size=2 * grid.d_model,
        max_seq_len=maxpos if scheme == "pape" else grid.sl_train,
        scheme=Scheme(scheme),
    )


def train_offset_copy(model: EncoderModel, grid: AblationGrid, seed: int):
    """LAMB training on freshly sampled offset-copy batches."""
    params = model.parameters()
    optimizer = make_optimizer(grid.optimizer, weight_decay=0.0)
    schedule = LrSchedule(lr_max=grid.lr_max,
                          warmup_steps=max(1, grid.steps // 10),
                          total_steps=grid.steps)
    for t in range(1, grid.steps + 1):
        rng = np.random.default_rng([seed, t])
        batch = make_offset_copy_examples(grid.batch_size, grid.sl_train,
                                          grid.num_symbols, grid.offset, rng)
        for p in params.values():
            p.zero_grad()
        total = Tensor(0.0)
        for ex in batch:
            out = model.pretrain_forward(ex)
            loss, _ = pretrain_loss(out, ex)
            total = total + loss
        (total / float(len(batch))).backward()
        optimizer.step(params, lr_at_step(schedule, t))


def run_cell(grid: AblationGrid, scheme: str, strategy: str) -> dict:
    """Train one grid cell and measure accuracy at both sequence lengths."""
    seed = grid.seed + hash_cell(scheme, strategy) % 1000
    cfg = _cell_config(grid, scheme)
    model = EncoderModel(cfg, seed=seed)
    train_offset_copy(model, grid, seed)

    eval_rng = np.random.default_rng([seed, 999_999])
    train_len_examples = make_offset_copy_examples(
        64, grid.sl_train, grid.num_symbols, grid.offset, eval_rng)
    eval_len_examples = make_offset_copy_examples(
        64, grid.sl_eval, grid.num_symbols, grid.offset, eval_rng)

    row = {"scheme": scheme, "strategy": strategy,
           "sl_train": grid.sl_train, "sl_eval": grid.sl_eval,
           "accuracy_train_len": evaluate(model, train_len_examples)["mlm_accuracy"]}
    try:
        row["accuracy_eval_len"] = evaluate(model, eval_len_examples)["mlm_accuracy"]
        row["status"] = "ok"
    except IndexError as exc:
        row["accuracy_eval_len"] = None
        row["status"] = f"out-of-range: {exc}"
    return row


def hash_cell(scheme: str, strategy: str) -> int:
    # Stable across processes (unlike built-in hash of str).
    return sum(ord(c) * (i + 1) for i, c in enumerate(scheme + ":" + strategy))


def run_grid(grid: AblationGrid, out_dir, config: RunConfig | None = None) -> list[dict]:
    """Run every cell; write results.tsv and results.json to ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [run_cell(grid, scheme, strategy)
            for scheme in grid.schemes for strategy in grid.strategies]

    columns = ["scheme", "strategy", "sl_train", "sl_eval",
               "accuracy_train_len", "accuracy_eval_len", "status"]
    with open(out_dir / "results.tsv", "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join("" if row[c] is None else str(row[c])
                               for c in columns) + "\n")
    payload = {
        "grid": {k: getattr(grid, k) for k in vars(grid)},
        "seed": grid.seed,
        "run_config": config.to_dict() if config is not None else None,
        "rows": rows,
    }
    (out_dir / "results.json").write_text(json.dumps(payload, indent=2) + "\n",
                                          encoding="utf-8")
    return rows
