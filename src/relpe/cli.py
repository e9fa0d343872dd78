"""Command-line interface.

Subcommands: build-vocab, prepare-data, pretrain, eval, ablate, gradcheck.
Exit codes: 0 success, 1 user/config error or a diverged run, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ablate as ablate_mod
from .checkpoint import CheckpointError, load_checkpoint, load_manifest
from .config import ConfigError, RunConfig
from .data import (SPECIAL_TOKENS, CorpusError, Lexicon, Vocabulary, build_vocab,
                   load_corpus, make_examples, masking_stats, read_examples, write_examples)
from .encoder import EncoderConfig, EncoderModel
from .gradcheck import check_full_model
from .tensor import NonFiniteValueError
from .train import Trainer, TrainingDiverged, evaluate


class UserError(Exception):
    pass


def _load_run_config(args) -> RunConfig:
    """The --config file with the --seed/--out/--strategy/--scheme overrides."""
    if not getattr(args, "config", None):
        raise UserError("--config is required for this command")
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "strategy", None):
        overrides["masking_strategy"] = args.strategy
    if getattr(args, "scheme", None):
        overrides["model"] = {"scheme": args.scheme}
    return RunConfig.from_json(args.config, overrides)


def _read_examples(path, model: EncoderConfig):
    """The examples of ``path``; an id outside the model's embeddings is a UserError."""
    examples = read_examples(path)
    for i, ex in enumerate(examples):
        for kind, ids, field in (("token", ex.tokens, "vocab_size"),
                                 ("predict label", ex.predict_labels, "vocab_size"),
                                 ("segment", ex.segments, "type_vocab_size")):
            size = getattr(model, field)
            bad = [t for t in ids if not 0 <= t < size]
            if bad:
                raise UserError(f"{path}: example {i} has {kind} {bad[0]} "
                                f"outside [0, {field}={size})")
    return examples


def cmd_build_vocab(args) -> int:
    if args.max_size is not None and args.max_size < len(SPECIAL_TOKENS):
        raise UserError(f"--max-size {args.max_size} is below the "
                        f"{len(SPECIAL_TOKENS)} special tokens")
    vocab = build_vocab(args.corpus, min_count=args.min_count, max_size=args.max_size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(out)
    print(f"wrote vocabulary of {len(vocab)} tokens to {out}")
    return 0


def cmd_prepare_data(args) -> int:
    config = _load_run_config(args)
    if not config.corpus:
        raise UserError("config.corpus is required for prepare-data")
    documents = load_corpus(config.corpus)
    if args.vocab:
        vocab = Vocabulary.load(args.vocab)
    else:
        vocab = build_vocab([config.corpus])
    lexicon = Lexicon.load(config.lexicon) if config.lexicon else Lexicon.empty()
    examples = make_examples(documents, vocab, lexicon, config.masking_strategy,
                             config.model.max_seq_len, config.seed)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_examples(examples, out / "examples.jsonl")
    vocab.save(out / "vocab.txt")
    stats = masking_stats(examples)
    stats["run_config"] = config.to_dict()
    stats["seed"] = config.seed
    (out / "stats.json").write_text(json.dumps(stats, indent=2) + "\n",
                                    encoding="utf-8")
    print(f"wrote {len(examples)} examples to {out / 'examples.jsonl'} "
          f"(mask rate {stats['mask_rate']:.4f})")
    return 0


def cmd_pretrain(args) -> int:
    config = _load_run_config(args)
    if not config.train_examples:
        raise UserError("config.train_examples is required for pretrain")
    examples = _read_examples(config.train_examples, config.model)
    trainer = Trainer(config, examples)
    last = trainer.train(out_dir=config.out_dir, resume_from=args.resume)
    if last is not None:
        print(f"finished at step {last['step']}: loss {last['loss']:.4f}")
    else:   # a 0-step run, or a resume of a finished one
        print(f"no steps left to run: wrote the step-{trainer.step} checkpoint")
    return 0


def cmd_eval(args) -> int:
    manifest = load_manifest(args.checkpoint)
    config = RunConfig.from_dict(manifest["config"])
    model = EncoderModel(config.model, seed=config.seed)
    load_checkpoint(args.checkpoint, model.parameters())
    try:
        report = evaluate(model, _read_examples(args.examples, config.model))
    except (IndexError, NonFiniteValueError) as exc:
        raise UserError(f"evaluation failed: {exc}")
    report["run_config"] = config.to_dict()
    report["seed"] = config.seed
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def cmd_ablate(args) -> int:
    grid = ablate_mod.AblationGrid(
        schemes=args.schemes.split(","),
        sl_train=args.sl_train, sl_eval=args.sl_eval,
        steps=args.steps, seed=args.seed if args.seed is not None else 0)
    if args.pape_max_position is not None:
        grid.pape_max_position = args.pape_max_position
    rows = ablate_mod.run_grid(grid, args.out)
    for row in rows:
        print(f"{row['scheme']:>5} "
              f"train@{row['sl_train']}={row['accuracy_train_len']:.3f} "
              f"eval@{row['sl_eval']}="
              + (f"{row['accuracy_eval_len']:.3f}" if row["accuracy_eval_len"] is not None
                 else row["status"]))
    return 0


def cmd_gradcheck(args) -> int:
    known = ["none", "pape", "prpe", "frpe"]
    schemes = args.scheme.split(",") if args.scheme else known
    for name in schemes:
        if name not in known:
            raise UserError(f"--scheme {name!r} is not one of {', '.join(known)}")
    threshold = args.threshold
    failures = []
    for name in schemes:
        report = check_full_model(name, seed=args.seed if args.seed is not None else 0)
        status = "pass" if report.passed(threshold) else "FAIL"
        print(f"{name:>5}: max relative error {report.max_relative_error:.2e} "
              f"(worst: {report.worst_parameter}) {status}")
        if not report.passed(threshold):
            worst = sorted(report.per_parameter.items(), key=lambda kv: -kv[1])[:5]
            failures.append((name, worst))
    if failures:
        for name, worst in failures:
            print(f"scheme {name} worst parameters:", file=sys.stderr)
            for pname, err in worst:
                print(f"  {pname}: {err:.3e}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relpe",
                                     description="Desk-scale encoder pretraining kit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a character vocabulary")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("prepare-data", help="convert a corpus into examples")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--strategy", choices=["char", "wwm"], default=None)
    p.add_argument("--vocab", default=None)
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("pretrain", help="run pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None, help="checkpoint directory to resume from")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an example file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the scheme/length grid")
    p.add_argument("--out", required=True)
    p.add_argument("--schemes", default="pape,prpe,frpe")
    p.add_argument("--sl-train", type=int, default=32)
    p.add_argument("--sl-eval", type=int, default=64)
    p.add_argument("--steps", type=int, default=1200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pape-max-position", type=int, default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--scheme", default=None,
                   help="comma-separated schemes (default: all four)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UserError, ConfigError, CorpusError, CheckpointError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError, ValueError, IndexError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
