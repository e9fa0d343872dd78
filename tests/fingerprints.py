"""Fingerprints of trained bits: the committed record that training is unchanged.

Each cell trains a tiny two-layer model for 3 steps through ``Trainer.train``
and records the sha256 of its final checkpoint's optimizer state (``step``,
``w``, ``m`` and ``v``, in that order) and its held-out MLM loss as a float
hex string. The cells cover every scheme in both precision modes under LAMB,
and one Adam run with hidden and attention dropout on padded batches.

    python tests/fingerprints.py           # print this build's fingerprints as JSON
    python tests/fingerprints.py --write   # regenerate tests/fingerprints.json

Bits depend on the BLAS thread count, so the script pins BLAS to one thread
before NumPy loads. They may also move with the NumPy and BLAS build, which
the record names.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np

from relpe.config import RunConfig
from relpe.encoder import EncoderConfig
from relpe.optim import LrSchedule, PrecisionPolicy
from relpe.synth import make_offset_copy_examples
from relpe.train import Trainer, evaluate


def cells() -> dict:
    """{cell name: (RunConfig, training examples, held-out examples)}."""
    def examples(seed, padded):
        rng = np.random.default_rng(seed)
        if not padded:
            return make_offset_copy_examples(8, 12, 8, -3, rng)
        return make_offset_copy_examples(4, 12, 8, -3, rng) + make_offset_copy_examples(
            4, 8, 8, -2, rng)

    def config(scheme, mode="full", optimizer="lamb", dropout=0.0):
        return RunConfig(
            model=EncoderConfig(vocab_size=13, d_model=8, num_layers=2, num_heads=2,
                                ffn_size=16, max_seq_len=12, scheme=scheme, prpe_clip=3,
                                hidden_dropout=dropout, attn_dropout=dropout),
            schedule=LrSchedule(lr_max=1e-2, warmup_steps=1, total_steps=4),
            precision=PrecisionPolicy(mode=mode), optimizer=optimizer, batch_size=4,
            total_steps=3, checkpoint_every=0, seed=3)

    found = {f"{scheme}-{mode}": (config(scheme, mode), examples(0, False), examples(1, False))
             for scheme in ("none", "pape", "prpe", "frpe")
             for mode in ("full", "mixed_emulated")}
    found["frpe-adam-dropout-padded"] = (config("frpe", optimizer="adam", dropout=0.1),
                                         examples(0, True), examples(1, True))
    return found


def fingerprint(config: RunConfig, examples, held_out, out_dir: Path) -> dict:
    trainer = Trainer(config, examples)
    trainer.train(out_dir=out_dir)
    digest = hashlib.sha256()
    with np.load(out_dir / "checkpoint-final" / "optstate.bin") as npz:
        for key in ("step", "w", "m", "v"):
            digest.update(npz[key].tobytes())
    return {"state_sha256": digest.hexdigest(),
            "mlm_loss": float(evaluate(trainer.model, held_out)["mlm_loss"]).hex()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def fingerprints() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"environment": environment(),
                "cells": {name: fingerprint(*cell, Path(tmp) / name)
                          for name, cell in cells().items()}}


if __name__ == "__main__":
    text = json.dumps(fingerprints(), indent=2) + "\n"
    if sys.argv[1:] == ["--write"]:
        (Path(__file__).resolve().parent / "fingerprints.json").write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
