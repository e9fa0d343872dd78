"""The benchmark's three training workloads, built from a seed.

Every input the program receives (corpus, examples, model init, run seed) is
derived from the workload seed, so one seed always gives the same inputs.
Sizes follow the acceptance tests; ``STEPS`` is the length of one training
round, chosen so a round takes a few seconds on one core.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relpe import data, synth
from relpe.config import RunConfig
from relpe.encoder import EncoderConfig
from relpe.optim import LrSchedule, PrecisionPolicy

# Steps in one training round. At least 100 timed steps per run come from
# running two or more rounds.
STEPS = {"mlm_full": 150, "mlm_mixed": 100, "long_frpe": 60}

# Reference kernel (see reference.py) sharing each workload's bottleneck: the
# small models spend their steps in many tiny-array ops; long_frpe also
# streams (n, n, d_z) relative blocks through memory. Scaling long_frpe by the
# block alone, or the small models by a kernel with the block, left 10-15%
# run-to-run spread on this host; the matched kernels leave under 8%.
REFERENCE = {"mlm_full": "dispatch", "mlm_mixed": "dispatch", "long_frpe": "dispatch+stream"}


@dataclass
class Inputs:
    """Generated inputs of one workload plus the time spent generating them."""
    config: RunConfig
    train: list[data.PretrainExample]
    heldout: list[data.PretrainExample]
    synth_s: float
    data_s: float


def _toy_mlm(workdir: Path, seeds, *, alphabet, docs, heldout_docs, words,
             seq_len, strategy):
    corpus_seed, heldout_seed, example_seed, heldout_example_seed = seeds
    t0 = time.perf_counter()
    corpus, lexicon = synth.generate_toy_corpus(
        workdir / "train", num_docs=docs, sentences_per_doc=words,
        words_per_sentence=words, alphabet=alphabet, seed=corpus_seed)
    heldout_corpus, _ = synth.generate_toy_corpus(
        workdir / "heldout", num_docs=heldout_docs, sentences_per_doc=words,
        words_per_sentence=words, alphabet=alphabet, seed=heldout_seed)
    t1 = time.perf_counter()
    vocab = data.build_vocab([corpus])
    lex = data.Lexicon.load(lexicon)
    train = data.make_examples(data.load_corpus(corpus), vocab, lex, strategy,
                               seq_len, seed=example_seed)
    heldout = data.make_examples(data.load_corpus(heldout_corpus), vocab, lex,
                                 strategy, seq_len, seed=heldout_example_seed)
    return train, heldout, t1 - t0, time.perf_counter() - t1


def build(workload: str, seed: int, workdir: Path, steps: int | None = None) -> Inputs:
    """Generate the inputs and run config of ``workload`` from ``seed``."""
    steps = steps or STEPS[workload]
    *input_seeds, run_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(5))
    schedule = dict(warmup_steps=max(1, steps // 10), total_steps=steps)
    run = dict(optimizer="lamb", total_steps=steps, seed=run_seed)
    if workload == "mlm_full":
        # Acceptance test 09: toy language, char masking, full precision.
        train, heldout, synth_s, data_s = _toy_mlm(
            workdir, input_seeds, alphabet=200, docs=10, heldout_docs=10, words=10,
            seq_len=44, strategy="char")
        config = RunConfig(
            model=EncoderConfig(vocab_size=256, d_model=32, num_layers=2, num_heads=2,
                                ffn_size=64, max_seq_len=44, scheme="frpe"),
            schedule=LrSchedule(lr_max=0.005, **schedule),
            masking_strategy="char", batch_size=4, checkpoint_every=50, **run)
    elif workload == "mlm_mixed":
        # Acceptance test 08, with clipped learned relative banks (clip 16 < n)
        # and whole-word masking, under emulated binary16.
        train, heldout, synth_s, data_s = _toy_mlm(
            workdir, input_seeds, alphabet=60, docs=8, heldout_docs=8, words=8,
            seq_len=36, strategy="wwm")
        config = RunConfig(
            model=EncoderConfig(vocab_size=80, d_model=32, num_layers=1, num_heads=2,
                                ffn_size=64, max_seq_len=36, scheme="prpe",
                                prpe_clip=16),
            schedule=LrSchedule(lr_max=0.01, **schedule),
            precision=PrecisionPolicy(mode="mixed_emulated", loss_scale=1024.0),
            masking_strategy="wwm", batch_size=4, checkpoint_every=0, **run)
    elif workload == "long_frpe":
        # Offset copy trained at n=128, evaluated at n=256: twice the training
        # length and past the FRPE table built for the model.
        t0 = time.perf_counter()
        rng = np.random.default_rng(input_seeds)
        train = synth.make_offset_copy_examples(32, 128, 48, -3, rng)
        heldout = synth.make_offset_copy_examples(8, 256, 48, -3, rng)
        synth_s, data_s = time.perf_counter() - t0, 0.0
        config = RunConfig(
            model=EncoderConfig(vocab_size=5 + 48, d_model=64, num_layers=2,
                                num_heads=2, ffn_size=128, max_seq_len=128,
                                scheme="frpe"),
            schedule=LrSchedule(lr_max=0.003, **schedule),
            batch_size=2, checkpoint_every=0, **run)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(config, train, heldout, synth_s, data_s)
