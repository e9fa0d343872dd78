"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Training-based criteria (5, 8, 9) dominate the runtime.
"""

import json
import math

import mpmath
import numpy as np

from relpe.ablate import AblationGrid, run_cell
from relpe.attention import AttentionConfig, attention_scores, init_head_weights, multi_head_attention
from relpe.config import RunConfig
from relpe.data import (Lexicon, PretrainExample, build_pairs, build_vocab, load_corpus,
                        make_example, make_examples, masking_stats, segment_words)
from relpe.encoder import EncoderConfig, EncoderModel, make_batch
from relpe.gradcheck import check_full_model
from relpe.optim import (AdamOptimizer, LambOptimizer, LrSchedule,
                         PrecisionPolicy, round_half, training_step)
from relpe.posenc import Scheme, build_rel_table, frpe_vector
from relpe.synth import generate_toy_corpus, make_offset_copy_examples
from relpe.tensor import Tensor
from relpe.train import Trainer, evaluate

from oracle_ops import power, sub
from test_attention import reference_multi_head
from test_optim import step_on_grads


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number:02d}] {name}: {status}{suffix}")
    assert passed, f"criterion {number:02d} {name}: {detail}"


def test_01_relative_sinusoid_correctness():
    """Sinusoid components match a 50-digit oracle; squared norm is d_z/2."""
    mpmath.mp.dps = 50
    rng = np.random.default_rng(0)
    max_err = 0.0
    for _ in range(1000):
        d_z = 2 * int(rng.integers(1, 33))
        delta = int(rng.integers(-512, 513))
        k = int(rng.integers(0, d_z // 2))
        v = frpe_vector(delta, d_z)
        angle = mpmath.mpf(delta) / mpmath.mpf(10000.0) ** (mpmath.mpf(2 * k) / d_z)
        max_err = max(max_err,
                      abs(v[2 * k] - float(mpmath.sin(angle))),
                      abs(v[2 * k + 1] - float(mpmath.cos(angle))))
    norm_err = 0.0
    for d_z in (2, 8, 64):
        for delta in range(-511, 512):
            v = frpe_vector(delta, d_z)
            norm_err = max(norm_err, abs(float(v @ v) - d_z / 2))
    report(1, "relative sinusoid correctness",
           max_err < 1e-12 and norm_err < 1e-9,
           f"component err {max_err:.2e}, norm err {norm_err:.2e}")


def test_02_attention_oracle_equivalence():
    """Vectorized attention matches a double-loop direct summation, 100 cases."""
    rng = np.random.default_rng(1)
    schemes = [Scheme.FRPE, Scheme.PRPE, Scheme.NONE]
    max_diff = 0.0
    for trial in range(100):
        scheme = schemes[trial % 3]
        heads = int(rng.integers(1, 5))
        d_z = 2 * int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        cfg = AttentionConfig(num_heads=heads, d_model=heads * d_z, scheme=scheme)
        weights = init_head_weights(cfg, rng)
        table = (None if scheme is Scheme.NONE
                 else build_rel_table(n, d_z, scheme, rng_seed=trial, clip=4))
        x = rng.normal(size=(n, cfg.d_model))
        got = multi_head_attention(Tensor(x), weights, cfg, table).data
        expected = reference_multi_head(x, weights, cfg, table)
        max_diff = max(max_diff, float(np.abs(got - expected).max()))
    report(2, "attention oracle equivalence", max_diff < 1e-12,
           f"max abs diff {max_diff:.2e} over 100 cases")


def test_03_full_model_gradient_checks():
    """Central differences on the full desk model for every scheme."""
    worst = 0.0
    details = []
    for scheme in (Scheme.NONE, Scheme.PAPE, Scheme.PRPE, Scheme.FRPE):
        rep = check_full_model(scheme)
        details.append(f"{scheme.value}={rep.max_relative_error:.1e}")
        worst = max(worst, rep.max_relative_error)
    report(3, "full-model gradient checks", worst < 1e-4, ", ".join(details))


def test_04_shift_equivariance():
    """Relative schemes give identical scores under a joint index shift; the
    absolute scheme demonstrably does not."""
    rng = np.random.default_rng(2)
    base = rng.normal(size=(4, 8))
    x = np.concatenate([base, base], axis=0)
    s = 4
    rel_violation = 0.0
    for scheme in (Scheme.FRPE, Scheme.PRPE):
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=scheme)
        weights = init_head_weights(cfg, np.random.default_rng(3))
        table = build_rel_table(8, cfg.d_z, scheme, rng_seed=1, clip=16)
        q = Tensor(x) @ weights.wq.data[:, :cfg.d_z]
        k = Tensor(x) @ weights.wk.data[:, :cfg.d_z]
        e = attention_scores(q, k, table).data
        rel_violation = max(rel_violation,
                            float(np.abs(e[:4, :4] - e[4:, 4:]).max()))

    pape_cfg = EncoderConfig(vocab_size=16, d_model=8, num_layers=1, num_heads=2,
                             max_seq_len=8, scheme=Scheme.PAPE)
    model = EncoderModel(pape_cfg, seed=4)
    example = PretrainExample([5, 6, 7, 8] * 2, [0] * 8, [], [], 0)
    states = model.embed_inputs(make_batch([example], pape_cfg))
    params = model.parameters()
    q = states @ params["layer0.attn.wq"].data[:, :pape_cfg.d_z]
    k = states @ params["layer0.attn.wk"].data[:, :pape_cfg.d_z]
    e = attention_scores(q, k).data[0]
    pape_violation = float(np.abs(e[:4, :4] - e[4:, 4:]).max())
    report(4, "shift equivariance",
           rel_violation < 1e-9 and pape_violation > 1e-6,
           f"relative {rel_violation:.2e}, absolute {pape_violation:.2e}")


def test_05_length_extrapolation(tmp_path):
    """Offset-copy: relative sinusoids trained at length 32 hold at 64; the
    absolute table either cannot address 64 or collapses."""
    grid = AblationGrid()
    frpe = run_cell(grid, "frpe", tmp_path / "frpe")
    pape32 = run_cell(grid, "pape", tmp_path / "pape32")
    grid64 = AblationGrid(pape_max_position=64)
    pape64 = run_cell(grid64, "pape", tmp_path / "pape64")

    frpe_ok = (frpe["status"] == "ok"
               and frpe["accuracy_train_len"] >= 0.95
               and abs(frpe["accuracy_eval_len"] - frpe["accuracy_train_len"]) <= 0.05)
    pape_ok = (pape32["status"].startswith("out-of-range")
               or (pape64["status"] == "ok"
                   and pape64["accuracy_eval_len"]
                   <= frpe["accuracy_eval_len"] - 0.10))
    report(5, "length extrapolation", frpe_ok and pape_ok,
           f"frpe {frpe['accuracy_train_len']:.3f}@32 / "
           f"{frpe['accuracy_eval_len']:.3f}@64; absolute-table status "
           f"'{pape32['status'].split(':')[0]}', "
           f"maxpos=64 acc {pape64['accuracy_eval_len']:.3f}@64")


def _random_documents(rng, num_docs, sentences_per_doc, sentence_len,
                      alphabet="abcdefgh"):
    return [["".join(rng.choice(list(alphabet), size=sentence_len))
             for _ in range(sentences_per_doc)]
            for _ in range(num_docs)]


def test_06_masking_statistics():
    """Aggregate target rates, whole-word integrity, and pair balance."""
    rng = np.random.default_rng(5)
    from relpe.data import SPECIAL_TOKENS, Vocabulary
    vocab = Vocabulary(tokens=list(SPECIAL_TOKENS) + list("abcdefgh"))

    # 10,000 length-128 examples, per-character strategy, for the rates
    char_examples = []
    for i in range(10_000):
        a = "".join(rng.choice(list("abcdefgh"), size=62))
        b = "".join(rng.choice(list("abcdefgh"), size=63))
        char_examples.append(make_example(a, b, i % 2, vocab, Lexicon.empty(),
                                          "char", np.random.default_rng([6, i])))
    stats = masking_stats(char_examples)
    rates_ok = (abs(stats["mask_rate"] - 0.12) <= 0.005
                and abs(stats["random_replace_rate"] - 0.015) <= 0.003)

    # whole-word masking: a lexicon word is never partially targeted
    lexicon = Lexicon(words={"abc", "de", "fgh", "ha"})
    violations = 0
    for i in range(10_000):
        a = "".join(rng.choice(list("abcdefgh"), size=62))
        b = "".join(rng.choice(list("abcdefgh"), size=63))
        ex = make_example(a, b, i % 2, vocab, lexicon, "wwm",
                          np.random.default_rng([7, i]))
        targeted = set(ex.predict_positions)
        for text, off in ((a, 1), (b, len(a) + 2)):
            for s, e in segment_words(text, lexicon):
                hit = sum(1 for p in range(off + s, off + e) if p in targeted)
                if hit not in (0, e - s):
                    violations += 1

    # pair balance over 10,000 sampled pairs
    docs = _random_documents(np.random.default_rng(8), 50, 50, 40)
    labels = []
    pair_rng = np.random.default_rng(9)
    while len(labels) < 10_000:
        labels.extend(is_next for _, _, is_next
                      in build_pairs(docs, 128, pair_rng))
    positive = float(np.mean(labels[:10_000]))
    balance_ok = abs(positive - 0.5) <= 0.02
    report(6, "masking statistics",
           rates_ok and violations == 0 and balance_ok,
           f"mask {stats['mask_rate']:.4f}, replace "
           f"{stats['random_replace_rate']:.4f}, wwm violations {violations}, "
           f"positives {positive:.3f}")


def test_07_layerwise_adaptive_optimizer():
    """Trust-ratio norm invariant, quadratic convergence, first-step value."""
    # invariant: with zero decay, each step moves w by exactly lr * ||w||
    rng = np.random.default_rng(10)
    p = Tensor(rng.normal(size=50), requires_grad=True)
    opt = LambOptimizer({"w": p}, weight_decay=0.0)
    invariant_err = 0.0
    for t in range(100):
        before = p.data.copy()
        p.grad = rng.normal(size=50)
        step_on_grads(opt, 0.01)
        step_norm = float(np.linalg.norm(p.data - before))
        expected = 0.01 * float(np.linalg.norm(before))
        invariant_err = max(invariant_err, abs(step_norm - expected))

    # dim-100 convex quadratic
    target = np.random.default_rng(11).normal(size=100)
    q = Tensor(np.zeros(100), requires_grad=True)
    opt2 = LambOptimizer({"w": q}, weight_decay=0.0)
    for t in range(2000):
        q.zero_grad()
        power(sub(q, target), 2.0).sum().backward()
        step_on_grads(opt2, 0.05 * (1.0 - t / 2000.0))
    quad_err = float(np.linalg.norm(q.data - target))

    # scalar first step: w=1, g=1 -> w' = 1 - lr (the trust ratio cancels eps)
    s = Tensor(np.ones(1), requires_grad=True)
    s.grad = np.ones(1)
    step_on_grads(LambOptimizer({"w": s}, weight_decay=0.0), 0.1)
    first_err = abs(float(s.data[0]) - 0.9)
    report(7, "layerwise adaptive optimizer",
           invariant_err < 1e-12 and quad_err < 1e-3 and first_err < 1e-9,
           f"invariant {invariant_err:.1e}, quadratic {quad_err:.1e}, "
           f"first step {first_err:.1e}")


def _toy_mlm_setup(tmp_path, alphabet, num_docs, sentences, words, seq_len, seed):
    corpus, lexicon = generate_toy_corpus(tmp_path, alphabet=alphabet,
                                          num_docs=num_docs,
                                          sentences_per_doc=sentences,
                                          words_per_sentence=words, seed=seed)
    docs = load_corpus(corpus)
    vocab = build_vocab([corpus])
    lex = Lexicon.load(lexicon)
    return make_examples(docs, vocab, lex, "char", seq_len, seed=1)


def test_08_binary16_and_mixed_precision(tmp_path):
    """Manual binary16 rounding vs the hardware oracle; emulated
    mixed-precision training tracks the full-precision run."""
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.normal(0, s, 2500) for s in (1e-6, 1.0, 1e2, 6e4)])
    with np.errstate(over="ignore"):
        oracle = np.float16(x).astype(np.float64)
    round_ok = (np.array_equal(round_half(x), oracle)
                and round_half(2049.0) == 2048.0
                and round_half(65520.0) == math.inf)

    examples = _toy_mlm_setup(tmp_path, alphabet=60, num_docs=8, sentences=8,
                              words=8, seq_len=36, seed=0)
    finals = {}
    trainers = {}
    for mode in ("full", "mixed_emulated"):
        config = RunConfig(
            model=EncoderConfig(vocab_size=80, d_model=32, num_layers=1,
                                num_heads=2, ffn_size=64, max_seq_len=36),
            schedule=LrSchedule(lr_max=0.01, warmup_steps=50, total_steps=500),
            precision=PrecisionPolicy(mode=mode),
            optimizer="lamb", batch_size=4, total_steps=500,
            checkpoint_every=0, seed=0, out_dir=str(tmp_path / mode))
        trainer = Trainer(config, examples)
        finals[mode] = trainer.train(out_dir=config.out_dir)["loss"]
        trainers[mode] = trainer
    rel = abs(finals["mixed_emulated"] - finals["full"]) / finals["full"]

    # master weights stayed full precision: they hold values binary16 cannot
    masters = trainers["mixed_emulated"].params
    masters_full_precision = any(
        not np.array_equal(p.data, round_half(p.data)) for p in masters.values())

    # a forced overflow is skipped and leaves the masters untouched
    p = Tensor(np.array([300.0]), requires_grad=True)
    opt = AdamOptimizer({"w": p}, weight_decay=0.0)

    def overflowing_loss():
        loss = (p * p).sum()
        return loss, {"loss": loss.item()}

    _, skipped = training_step(PrecisionPolicy(mode="mixed_emulated"),
                               overflowing_loss, opt, lr=0.1)
    overflow_ok = skipped and p.data[0] == 300.0 and opt.state.step == 0
    report(8, "binary16 and mixed-precision emulation",
           round_ok and rel <= 0.05 and masters_full_precision and overflow_ok,
           f"rounding oracle ok={round_ok}, final-loss rel diff {rel:.4f}, "
           f"masters full precision={masters_full_precision}, "
           f"overflow skipped={overflow_ok}")


def test_09_toy_mlm_learning(tmp_path):
    """2,000 layer-adaptive steps on the toy language cut the masked loss by
    half and lift accuracy far above chance for a 256-way output."""
    examples = _toy_mlm_setup(tmp_path, alphabet=200, num_docs=10, sentences=10,
                              words=10, seq_len=44, seed=0)
    config = RunConfig(
        model=EncoderConfig(vocab_size=256, d_model=32, num_layers=2,
                            num_heads=2, ffn_size=64, max_seq_len=44),
        schedule=LrSchedule(lr_max=0.005, warmup_steps=200, total_steps=2000),
        optimizer="lamb", batch_size=4, total_steps=2000,
        checkpoint_every=0, seed=0, out_dir=str(tmp_path / "run"))
    trainer = Trainer(config, examples)
    held = examples[:64]
    init = evaluate(trainer.model, held)["mlm_loss"]
    trainer.train(out_dir=config.out_dir)
    final = evaluate(trainer.model, held)
    uniform = math.log(256.0)
    ok = (abs(init - uniform) / uniform <= 0.10
          and final["mlm_loss"] <= 0.5 * init
          and final["mlm_accuracy"] > 20.0 / 256.0)
    report(9, "toy masked-language-model learning", ok,
           f"loss {init:.3f} -> {final['mlm_loss']:.3f} "
           f"(uniform {uniform:.3f}), accuracy {final['mlm_accuracy']:.3f} "
           f"vs floor {20 / 256:.3f}")


def test_10_determinism_and_persistence(tmp_path):
    """Identical config+seed reproduce the metrics log bitwise (modulo wall
    time); resuming from the step-100 checkpoint replays steps 101-200."""
    examples = make_offset_copy_examples(8, 12, 8, -3, np.random.default_rng(0))
    config = RunConfig(
        model=EncoderConfig(vocab_size=13, d_model=8, num_layers=1, num_heads=2,
                            ffn_size=16, max_seq_len=12),
        schedule=LrSchedule(lr_max=1e-3, warmup_steps=20, total_steps=200),
        optimizer="lamb", batch_size=2, total_steps=200,
        checkpoint_every=100, seed=3, out_dir=str(tmp_path))

    def run(out, resume_from=None):
        trainer = Trainer(config, examples)
        trainer.train(out_dir=tmp_path / out, resume_from=resume_from)
        return trainer

    def log_without_wall_time(out):
        lines = (tmp_path / out / "metrics.jsonl").read_text().splitlines()
        cleaned = []
        for line in lines:
            record = json.loads(line)
            record.pop("wall_time", None)
            cleaned.append(json.dumps(record, sort_keys=True))
        return cleaned

    a = run("a")
    b = run("b")
    logs_identical = log_without_wall_time("a") == log_without_wall_time("b")

    # checkpoint round trip is bitwise: the restored masters are the trained ones
    fresh = Trainer(config, examples)
    fresh.resume(tmp_path / "a" / "checkpoint-final")
    round_trip_ok = all(np.array_equal(fresh.params[n].data, a.params[n].data)
                        for n in a.params)

    resumed = run("c", resume_from=tmp_path / "b" / "checkpoint-100")
    params_match = all(np.array_equal(a.params[n].data, resumed.params[n].data)
                      for n in a.params)
    tail_a = [l for l in log_without_wall_time("a")
              if '"step"' in l and json.loads(l)["step"] > 100]
    tail_c = [l for l in log_without_wall_time("c") if '"step"' in l]
    resume_ok = params_match and tail_a == tail_c
    report(10, "determinism and persistence",
           logs_identical and round_trip_ok and resume_ok,
           f"logs identical={logs_identical} (wall time excluded), "
           f"round trip={round_trip_ok}, resume replay={resume_ok}")
