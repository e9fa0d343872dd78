"""Ablation grid over positional-encoding scheme and sequence length.

Each cell is a ``RunConfig`` trained by ``Trainer`` on a pool of offset-copy
examples drawn once from the cell seed, then evaluated at both the training
and the extrapolated length. Absolute encodings built for the training
length cannot address longer sequences; that failure is recorded as an
out-of-range cell rather than a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .synth import make_offset_copy_examples
from .train import Trainer, evaluate

DEFAULT_OFFSET = -3


@dataclass
class AblationGrid:
    schemes: list[str] = field(default_factory=lambda: ["pape", "prpe", "frpe"])
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


def _cell_config(grid: AblationGrid, scheme: str) -> RunConfig:
    """The run config a cell trains under; a bad grid raises ConfigError."""
    for n in (grid.sl_train, grid.sl_eval):
        try:  # zero examples: only the task geometry is checked
            make_offset_copy_examples(0, n, grid.num_symbols, grid.offset, rng=None)
        except ValueError as exc:
            raise ConfigError(f"invalid ablation grid: {exc}") from None
    maxpos = grid.sl_train if grid.pape_max_position is None else grid.pape_max_position
    if maxpos < 1:
        raise ConfigError(f"invalid ablation grid: pape_max_position={maxpos} must be >= 1")
    return RunConfig.from_dict({
        "model": {"vocab_size": 5 + grid.num_symbols, "d_model": grid.d_model,
                  "num_layers": grid.num_layers, "num_heads": grid.num_heads,
                  "ffn_size": 2 * grid.d_model,
                  "max_seq_len": maxpos if scheme == "pape" else grid.sl_train,
                  "scheme": scheme},
        "schedule": {"lr_max": grid.lr_max, "warmup_steps": max(1, grid.steps // 10),
                     "total_steps": grid.steps},
        "optimizer": grid.optimizer, "weight_decay": 0.0,
        "batch_size": grid.batch_size, "total_steps": grid.steps, "checkpoint_every": 0,
        # Offset-copy queries are the masked positions under either masking
        # strategy, so the grid has no strategy axis. The seed still hashes
        # "char", so each cell trains exactly as its former char cell did.
        "seed": grid.seed + hash_cell(scheme, "char") % 1000,
    })


def run_cell(grid: AblationGrid, scheme: str) -> dict:
    """Train one grid cell and measure accuracy at both sequence lengths."""
    config = _cell_config(grid, scheme)
    seed = config.seed
    pool = make_offset_copy_examples(grid.steps * grid.batch_size, grid.sl_train,
                                     grid.num_symbols, grid.offset,
                                     np.random.default_rng([seed, 0]))
    trainer = Trainer(config, pool)
    for t in range(1, grid.steps + 1):
        trainer.run_step(t)

    eval_rng = np.random.default_rng([seed, 999_999])
    train_len_examples = make_offset_copy_examples(
        64, grid.sl_train, grid.num_symbols, grid.offset, eval_rng)
    eval_len_examples = make_offset_copy_examples(
        64, grid.sl_eval, grid.num_symbols, grid.offset, eval_rng)

    row = {"scheme": scheme, "sl_train": grid.sl_train, "sl_eval": grid.sl_eval,
           "accuracy_train_len": evaluate(trainer.model, train_len_examples)["mlm_accuracy"]}
    try:
        row["accuracy_eval_len"] = evaluate(trainer.model, eval_len_examples)["mlm_accuracy"]
        row["status"] = "ok"
    except IndexError as exc:
        row["accuracy_eval_len"] = None
        row["status"] = f"out-of-range: {exc}"
    row["run_config"] = config.to_dict()
    return row


def hash_cell(scheme: str, strategy: str) -> int:
    # Stable across processes (unlike built-in hash of str).
    return sum(ord(c) * (i + 1) for i, c in enumerate(scheme + ":" + strategy))


def run_grid(grid: AblationGrid, out_dir) -> list[dict]:
    """Run every cell; write results.tsv and results.json to ``out_dir``.

    Every cell's config is built before the first cell trains, so a bad grid
    fails before any work is done.
    """
    for scheme in grid.schemes:
        _cell_config(grid, scheme)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [run_cell(grid, scheme) for scheme in grid.schemes]

    columns = ["scheme", "sl_train", "sl_eval",
               "accuracy_train_len", "accuracy_eval_len", "status"]
    with open(out_dir / "results.tsv", "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join("" if row[c] is None else str(row[c])
                               for c in columns) + "\n")
    payload = {
        "grid": {k: getattr(grid, k) for k in vars(grid)},
        "seed": grid.seed,
        "rows": rows,
    }
    (out_dir / "results.json").write_text(json.dumps(payload, indent=2) + "\n",
                                          encoding="utf-8")
    return rows
