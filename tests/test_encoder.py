import re

import numpy as np
import pytest

import relpe.attention
import relpe.optim
from relpe.data import PAD_ID, PretrainExample
from relpe.encoder import EncoderConfig, EncoderModel, ForwardOutput, pretrain_loss
from relpe.gradcheck import check_gradients
from relpe.optim import PrecisionPolicy, make_optimizer, round_half, training_step
from relpe.posenc import Scheme
from relpe.synth import make_offset_copy_examples
from relpe.tensor import Tensor, affine, gelu, layer_norm, value_filter


def tiny_config(**kw):
    defaults = dict(vocab_size=16, d_model=8, num_layers=2, num_heads=2,
                    ffn_size=16, max_seq_len=12, scheme=Scheme.FRPE)
    defaults.update(kw)
    return EncoderConfig(**defaults)


def tiny_example():
    return PretrainExample(tokens=[1, 5, 6, 2, 7, 8, 2],
                           segments=[0, 0, 0, 0, 1, 1, 1],
                           predict_positions=[1, 4],
                           predict_labels=[9, 10],
                           nsp_label=1)


class TestEncoderConfig:
    def test_default_ffn_is_four_times_model(self):
        assert EncoderConfig(vocab_size=8, d_model=12, num_heads=2).ffn_size == 48

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=8, d_model=10, num_heads=3)

    def test_frpe_needs_even_per_head_size(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=8, d_model=6, num_heads=2, scheme=Scheme.FRPE)
        # fine for a scheme without sinusoid pairs
        EncoderConfig(vocab_size=8, d_model=6, num_heads=2, scheme=Scheme.NONE)

    def test_scheme_coerced_from_string(self):
        cfg = EncoderConfig(vocab_size=8, scheme="prpe")
        assert cfg.scheme is Scheme.PRPE


class TestParameterRegistry:
    def test_names_unique_and_scheme_dependent(self):
        frpe = EncoderModel(tiny_config(), seed=0).parameters()
        pape = EncoderModel(tiny_config(scheme=Scheme.PAPE), seed=0).parameters()
        prpe = EncoderModel(tiny_config(scheme=Scheme.PRPE), seed=0).parameters()
        assert "abspos.table" not in frpe and "relpos.bank_k" not in frpe
        assert "abspos.table" in pape
        assert {"relpos.bank_k", "relpos.bank_v"} <= set(prpe)

    def test_parameter_count_matches_manual_budget(self):
        cfg = tiny_config()
        model = EncoderModel(cfg, seed=0)
        total = sum(p.data.size for p in model.parameters().values())
        d, f, v = cfg.d_model, cfg.ffn_size, cfg.vocab_size
        embed = v * d + 2 * d + 2 * d
        per_layer = 4 * d * d + d + 2 * d + d * f + f + f * d + d + 2 * d
        heads = d * d + d + 2 * d + v  # mlm dense + bias + ln + output bias
        pooler_nsp = d * d + d + d * 2 + 2
        assert total == embed + cfg.num_layers * per_layer + heads + pooler_nsp

    def test_determinism_by_seed(self):
        a = EncoderModel(tiny_config(), seed=7).parameters()
        b = EncoderModel(tiny_config(), seed=7).parameters()
        c = EncoderModel(tiny_config(), seed=8).parameters()
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)
        assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


class TestEmbedInputs:
    def test_out_of_range_token_reports_position(self):
        model = EncoderModel(tiny_config(), seed=0)
        with pytest.raises(IndexError, match="position 2"):
            model.embed_inputs([1, 2, 99], [0, 0, 0])

    def test_out_of_range_segment_rejected(self):
        model = EncoderModel(tiny_config(), seed=0)
        with pytest.raises(IndexError):
            model.embed_inputs([1, 2], [0, 5])

    def test_length_mismatch_rejected(self):
        model = EncoderModel(tiny_config(), seed=0)
        with pytest.raises(ValueError):
            model.embed_inputs([1, 2, 3], [0, 0])

    def test_rows_are_normalized(self):
        model = EncoderModel(tiny_config(), seed=1)
        out = model.embed_inputs([1, 5, 6], [0, 0, 1]).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_relative_scheme_embeddings_are_position_free(self):
        model = EncoderModel(tiny_config(), seed=1)
        out = model.embed_inputs([5, 5, 5], [0, 0, 0]).data
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])

    def test_absolute_scheme_embeddings_differ_by_position(self):
        model = EncoderModel(tiny_config(scheme=Scheme.PAPE), seed=1)
        out = model.embed_inputs([5, 5, 5], [0, 0, 0]).data
        assert not np.array_equal(out[0], out[1])

    def test_pape_hard_length_limit(self):
        model = EncoderModel(tiny_config(scheme=Scheme.PAPE, max_seq_len=4), seed=0)
        model.embed_inputs([1] * 4, [0] * 4)
        with pytest.raises(IndexError, match="max_position=4"):
            model.embed_inputs([1] * 5, [0] * 5)

    def test_frpe_runs_past_table_build_length(self):
        model = EncoderModel(tiny_config(max_seq_len=4), seed=0)
        out = model.encode([1] * 9, [0] * 9)
        assert out.data.shape == (9, 8)
        assert np.all(np.isfinite(out.data))


class TestForward:
    def test_shapes(self):
        model = EncoderModel(tiny_config(), seed=2)
        ex = tiny_example()
        out = model.pretrain_forward(ex)                # a batch of one
        assert out.slot_states.data.shape == (1, 3, 8)  # [CLS] and two predictions
        np.testing.assert_array_equal(out.slot_positions, [[0, 1, 4]])
        assert model.encode([ex.tokens], [ex.segments]).data.shape == (1, 7, 8)
        assert out.pooled.data.shape == (1, 8)
        assert out.mlm_logits.data.shape == (2, 16)
        assert out.nsp_logits.data.shape == (1, 2)

    def test_forward_is_deterministic_without_dropout(self):
        model = EncoderModel(tiny_config(), seed=2)
        a = model.pretrain_forward(tiny_example())
        b = model.pretrain_forward(tiny_example())
        np.testing.assert_array_equal(a.mlm_logits.data, b.mlm_logits.data)
        np.testing.assert_array_equal(a.nsp_logits.data, b.nsp_logits.data)

    def test_dropout_changes_activations_but_respects_rng(self):
        cfg = tiny_config(hidden_dropout=0.3)
        model = EncoderModel(cfg, seed=2)
        ex = tiny_example()
        a = model.pretrain_forward(ex, rng=np.random.default_rng(1))
        b = model.pretrain_forward(ex, rng=np.random.default_rng(1))
        c = model.pretrain_forward(ex, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a.slot_states.data, b.slot_states.data)
        assert not np.array_equal(a.slot_states.data, c.slot_states.data)

    def test_pooled_is_tanh_bounded(self):
        model = EncoderModel(tiny_config(), seed=3)
        out = model.pretrain_forward(tiny_example())
        assert np.all(np.abs(out.pooled.data) < 1.0)

    def test_prediction_position_out_of_range(self):
        model = EncoderModel(tiny_config(), seed=3)
        ex = tiny_example()
        ex.predict_positions = [1, 7]
        with pytest.raises(IndexError):
            model.pretrain_forward(ex)

    def test_decoder_shares_token_embedding_storage(self):
        model = EncoderModel(tiny_config(), seed=4)
        ex = tiny_example()
        before = model.pretrain_forward(ex).mlm_logits.data.copy()
        model.token_embedding.data[:] *= 1.5
        after = model.pretrain_forward(ex).mlm_logits.data
        assert not np.allclose(before, after)

    def test_tied_decoder_gradient_includes_both_roles(self):
        # the embedding gradient must combine input-side and decoder-side use
        model = EncoderModel(tiny_config(), seed=4)
        ex = tiny_example()
        loss, _ = pretrain_loss(model.pretrain_forward(ex), ex)
        loss.backward()
        g = model.token_embedding.grad
        assert g is not None
        # rows never used as input still receive decoder (softmax) gradient
        unused = 15
        assert unused not in ex.tokens
        assert np.any(g[unused] != 0.0)


class TestPretrainLoss:
    def test_uniform_logits_give_log_vocab(self):
        model = EncoderModel(tiny_config(), seed=5)
        ex = tiny_example()
        out = model.pretrain_forward(ex)
        out.mlm_logits = Tensor(np.zeros((2, 16)))
        out.nsp_logits = Tensor(np.zeros((1, 2)))
        loss, metrics = pretrain_loss(out, ex)
        assert metrics["mlm_loss"] == pytest.approx(np.log(16.0), abs=1e-12)
        assert metrics["nsp_loss"] == pytest.approx(np.log(2.0), abs=1e-12)
        assert loss.item() == pytest.approx(np.log(16.0) + np.log(2.0), abs=1e-12)

    def test_initial_loss_near_log_vocab(self):
        # with sigma=0.02 init the MLM logits are near-uniform
        model = EncoderModel(tiny_config(vocab_size=64), seed=6)
        ex = tiny_example()
        _, metrics = pretrain_loss(model.pretrain_forward(ex), ex)
        assert abs(metrics["mlm_loss"] - np.log(64.0)) < 0.5

    def test_no_prediction_positions(self):
        model = EncoderModel(tiny_config(), seed=6)
        ex = tiny_example()
        ex.predict_positions, ex.predict_labels = [], []
        loss, metrics = pretrain_loss(model.pretrain_forward(ex), ex)
        assert metrics["mlm_loss"] == 0.0
        assert np.isnan(metrics["mlm_accuracy"])
        assert loss.item() == pytest.approx(metrics["nsp_loss"])

    def test_label_count_mismatch(self):
        model = EncoderModel(tiny_config(), seed=6)
        ex = tiny_example()
        out = model.pretrain_forward(ex)
        ex.predict_labels = [9]
        with pytest.raises(ValueError):
            pretrain_loss(out, ex)

    def test_perfect_logits_give_accuracy_one(self):
        model = EncoderModel(tiny_config(), seed=6)
        ex = tiny_example()
        out = model.pretrain_forward(ex)
        logits = np.zeros((2, 16))
        logits[0, ex.predict_labels[0]] = 50.0
        logits[1, ex.predict_labels[1]] = 50.0
        out.mlm_logits = Tensor(logits)
        _, metrics = pretrain_loss(out, ex)
        assert metrics["mlm_accuracy"] == 1.0
        assert metrics["mlm_loss"] < 1e-12

    @pytest.mark.parametrize("scheme",
                             [Scheme.NONE, Scheme.PAPE, Scheme.FRPE, Scheme.PRPE])
    def test_full_model_gradients(self, scheme):
        cfg = tiny_config(scheme=scheme, d_model=8, num_layers=1,
                          ffn_size=8, vocab_size=12)
        model = EncoderModel(cfg, seed=7)
        ex = PretrainExample(tokens=[1, 5, 6, 2, 7, 2], segments=[0, 0, 0, 0, 1, 1],
                             predict_positions=[2, 4], predict_labels=[8, 9],
                             nsp_label=0)

        def loss():
            out = model.pretrain_forward(ex)
            total, _ = pretrain_loss(out, ex)
            return total

        report = check_gradients(loss, model.parameters(), step=3e-5,
                                 samples_per_param=8,
                                 rng=np.random.default_rng(0))
        assert report.max_relative_error < 1e-4, report.worst_parameter


def mixed_batch(vocab_size=16, lengths=(9, 6, 9, 4), seed=0):
    """Examples of mixed lengths; the second has no predictions."""
    rng = np.random.default_rng(seed)
    batch = []
    for i, n in enumerate(lengths):
        k = 0 if i == 1 else int(rng.integers(1, 4))
        batch.append(PretrainExample(
            tokens=[int(t) for t in rng.integers(0, vocab_size, n)],
            segments=[0] * (n // 2) + [1] * (n - n // 2),
            predict_positions=sorted(int(p) for p in rng.choice(n, k, replace=False)),
            predict_labels=[int(t) for t in rng.integers(0, vocab_size, k)],
            nsp_label=i % 2))
    return batch


class SlicedDraws:
    """Stands in for a Generator in a batch-of-one forward of example ``b``.

    Each ``random(shape)`` call returns example b's slice of the next
    batch-shaped draw: index b on the batch axis, the leading part of every
    other axis (padding sits at the end of each sequence axis).
    """

    def __init__(self, draws, b):
        self.draws, self.b = iter(draws), b

    def random(self, shape):
        full = next(self.draws)
        return full[(self.b, *(slice(0, size) for size in shape[1:]))][None]


def padded(batch):
    """Token and segment ids padded to (B, n), and the (B, n) validity mask."""
    n = max(len(ex.tokens) for ex in batch)
    tokens = np.full((len(batch), n), PAD_ID)
    segments = np.zeros((len(batch), n), dtype=int)
    for i, ex in enumerate(batch):
        tokens[i, :len(ex.tokens)], segments[i, :len(ex.segments)] = ex.tokens, ex.segments
    return tokens, segments, np.arange(n) < np.array([len(ex.tokens) for ex in batch])[:, None]


def run_batched(model, batch, rng=None):
    for p in model.parameters().values():
        p.zero_grad()
    loss, metrics = pretrain_loss(model.pretrain_forward(batch, rng=rng), batch)
    loss.backward()
    return loss.item(), metrics, {k: p.grad for k, p in model.parameters().items()}


def run_per_example(model, batch, rngs=None):
    """One batch-of-one graph per example, summed the way a batch loss is defined."""
    for p in model.parameters().values():
        p.zero_grad()
    total, parts = Tensor(0.0), []
    for i, ex in enumerate(batch):
        loss, m = pretrain_loss(model.pretrain_forward(ex, rng=rngs and rngs[i]), ex)
        total, parts = total + loss, parts + [m]
    total = total / float(len(batch))
    total.backward()
    metrics = {key: float(np.mean([m[key] for m in parts]))
               for key in ("loss", "mlm_loss", "nsp_loss")}
    scored = [m["mlm_accuracy"] for m in parts if m["num_predictions"]]
    metrics["mlm_accuracy"] = float(np.mean(scored)) if scored else float("nan")
    for key in ("num_predictions", "mlm_correct", "mlm_nll_sum", "nsp_correct"):
        metrics[key] = sum(m[key] for m in parts)
    return total.item(), metrics, {k: p.grad for k, p in model.parameters().items()}


def assert_runs_agree(got, want):
    assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
    assert got[1].keys() == want[1].keys()
    for key in want[1]:
        assert got[1][key] == pytest.approx(want[1][key], rel=0, abs=1e-12,
                                            nan_ok=True), key
    for name, grad in want[2].items():
        if grad is None:            # a head no prediction reached
            assert got[2][name] is None, name
            continue
        np.testing.assert_allclose(got[2][name], grad, rtol=0, atol=1e-12, err_msg=name)


BATCH_CASES = {
    "none": dict(scheme=Scheme.NONE),
    "pape": dict(scheme=Scheme.PAPE),
    "prpe-clip-below-n": dict(scheme=Scheme.PRPE, prpe_clip=2),
    "frpe": dict(scheme=Scheme.FRPE),
    "frpe-past-max-len": dict(scheme=Scheme.FRPE, max_seq_len=4),
}


class TestBatchedForward:
    """One (B, n, d) pass equals a batch-of-one pass per example."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_matches_per_example_forward(self, case):
        model = EncoderModel(tiny_config(**BATCH_CASES[case]), seed=11)
        batch = mixed_batch()
        got, want = run_batched(model, batch), run_per_example(model, batch)
        assert_runs_agree(got, want)
        assert got[1]["num_predictions"] == sum(len(ex.predict_positions) for ex in batch)

    def test_padding_is_invisible_to_each_example(self):
        model = EncoderModel(tiny_config(), seed=12)
        batch = mixed_batch()
        out = model.pretrain_forward(batch)
        alone = model.pretrain_forward(batch[3])        # the shortest example
        k = 1 + len(batch[3].predict_positions)
        np.testing.assert_allclose(out.slot_states.data[3, :k], alone.slot_states.data[0],
                                   rtol=0, atol=1e-12)
        assert out.slot_states.data.shape == (4, 4, 8)  # 1 + the most predictions
        tokens, segments, mask = padded(batch)
        states = model.encode(tokens, segments, mask=mask).data
        n = len(batch[3].tokens)
        np.testing.assert_allclose(
            states[3, :n], model.encode([batch[3].tokens], [batch[3].segments]).data[0],
            rtol=0, atol=1e-12)
        assert states.shape == (4, 9, 8)
        np.testing.assert_array_equal(out.predict_examples,
                                      np.repeat(np.arange(4), [len(ex.predict_positions)
                                                               for ex in batch]))

    def test_batch_without_predictions(self):
        model = EncoderModel(tiny_config(), seed=13)
        batch = mixed_batch()
        for ex in batch:
            ex.predict_positions, ex.predict_labels = [], []
        got, want = run_batched(model, batch), run_per_example(model, batch)
        assert got[1]["mlm_loss"] == 0.0 and np.isnan(got[1]["mlm_accuracy"])
        assert_runs_agree(got, want)

    def test_dropout_draws_one_batch_shaped_mask_per_site(self):
        cfg = tiny_config(hidden_dropout=0.2, attn_dropout=0.3)
        model = EncoderModel(cfg, seed=14)
        batch = mixed_batch()
        b, n, d, heads = len(batch), 9, cfg.d_model, cfg.num_heads
        # site order: embeddings, then per layer attention weights, the
        # attention output and the feed-forward output
        shapes = [(b, n, d)] + [(b, heads, n, n), (b, n, d), (b, n, d)] * cfg.num_layers
        source = np.random.default_rng(5)
        draws = [source.random(shape) for shape in shapes]

        got = run_batched(model, batch, rng=np.random.default_rng(5))
        rngs = [SlicedDraws(draws, i) for i in range(b)]
        want = run_per_example(model, batch, rngs)
        assert_runs_agree(got, want)
        for r in rngs:
            assert next(r.draws, None) is None    # every draw was used
        without = run_batched(model, batch)
        assert abs(without[0] - got[0]) > 1e-6

    def test_binary16_padding_mask_gives_finite_scores(self, monkeypatch):
        # The fused attention node raises on a non-finite score before its
        # softmax; here its outputs and every gradient must be finite too.
        outputs = []
        fused = relpe.attention.attention

        def recorded(*args, **kwargs):
            outputs.append(fused(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(relpe.attention, "attention", recorded)
        model = EncoderModel(tiny_config(), seed=15)
        batch = mixed_batch()
        params = model.parameters()
        masters = {k: p.data for k, p in params.items()}
        for p in params.values():
            p.data = round_half(p.data)
        tokens = np.full((4, 9), PAD_ID)
        segments = np.zeros((4, 9), dtype=int)
        for i, ex in enumerate(batch):
            tokens[i, :len(ex.tokens)], segments[i, :len(ex.segments)] = ex.tokens, ex.segments
        other = tokens.copy()
        other[3, 4:] = [5, 9, 1, 12, 7]             # example 3 has 4 tokens
        mask = np.arange(9) < np.array([len(ex.tokens) for ex in batch])[:, None]
        with value_filter(round_half):
            loss, metrics = pretrain_loss(model.pretrain_forward(batch), batch)
            (loss * 1024.0).backward()
            states = [model.encode(ids, segments, mask=mask).data for ids in (tokens, other)]
        for k, p in params.items():
            p.data = masters[k]
        assert len(outputs) == 6
        for out in outputs[:2]:                       # the training step's two layers
            assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(out.grad))
        for padded, changed in ((outputs[2].data, outputs[4].data),
                                (outputs[3].data, outputs[5].data), states):
            np.testing.assert_array_equal(padded[:3], changed[:3])
            np.testing.assert_array_equal(padded[3, :4], changed[3, :4])
            assert not np.array_equal(padded[3, 4:], changed[3, 4:])
        assert np.isfinite(metrics["loss"])
        assert all(np.all(np.isfinite(p.grad)) for p in params.values())
        reference = run_batched(model, batch)[1]
        assert metrics["loss"] == pytest.approx(reference["loss"], rel=1e-2)

    def test_example_errors_are_named(self):
        # Length and position errors: test_first_bad_example_names_the_error.
        model = EncoderModel(tiny_config(), seed=16)
        batch = mixed_batch()
        batch[3].tokens[2] = 99
        with pytest.raises(IndexError, match="position 2 of batch example 3"):
            model.pretrain_forward(batch)
        with pytest.raises(ValueError):
            model.pretrain_forward([])

    @pytest.mark.parametrize("damage, error, message", [
        ({2: dict(predict_positions=[9])}, IndexError,
         "prediction position out of range for length-9 sequence"),
        ({3: dict(predict_positions=[0, -1])}, IndexError,
         "prediction position out of range for length-4 sequence"),
        ({1: dict(segments=[0] * 5)}, ValueError,
         "batch example 1: token_ids and segment_ids must have equal, nonzero length"),
        ({2: dict(tokens=[], segments=[], predict_positions=[])}, ValueError,
         "batch example 2: token_ids and segment_ids must have equal, nonzero length"),
        ({1: dict(predict_positions=[6]), 2: dict(segments=[0])}, IndexError,
         "prediction position out of range for length-6 sequence"),
        ({1: dict(segments=[0]), 2: dict(predict_positions=[9])}, ValueError,
         "batch example 1: token_ids and segment_ids must have equal, nonzero length"),
    ], ids=["past-the-end", "negative", "short-segments", "empty", "position-first",
            "length-first"])
    def test_first_bad_example_names_the_error(self, damage, error, message):
        # The first damaged example in batch order decides the error, and a
        # length error of an example comes before its positions' error.
        model = EncoderModel(tiny_config(), seed=16)
        batch = mixed_batch()
        for i, fields in damage.items():
            for name, value in fields.items():
                setattr(batch[i], name, value)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            model.pretrain_forward(batch)


def full_rows_forward(model, examples, rng=None):
    """The forward before the last layer ran only at the heads' rows, kept as
    the oracle: every final state from ``encode``, then the heads on the
    gathered rows. Its slots are every position."""
    tokens, segments, mask = padded(examples)
    b, n = tokens.shape
    states = model.encode(tokens, segments, mask=None if mask.all() else mask, rng=rng)
    positions = [np.asarray(ex.predict_positions, dtype=np.intp) for ex in examples]
    owners = np.repeat(np.arange(b), [pos.size for pos in positions])
    positions = np.concatenate(positions)
    rows = states.reshape(b * n, model.cfg.d_model)
    pooled = affine(rows.take_rows(np.arange(b) * n), model.pooler_w, model.pooler_b).tanh()
    nsp_logits = affine(pooled, model.nsp_w, model.nsp_b)
    if positions.size:
        h = rows.take_rows(owners * n + positions)
        h = gelu(affine(h, model.mlm_dense_w, model.mlm_dense_b))
        h = layer_norm(h, model.mlm_ln_gamma, model.mlm_ln_beta)
        mlm_logits = affine(h, model.token_embedding.T, model.mlm_output_bias)
    else:
        mlm_logits = Tensor(np.zeros((0, model.cfg.vocab_size)))
    return ForwardOutput(slot_states=states, slot_positions=np.tile(np.arange(n), (b, 1)),
                         pooled=pooled, mlm_logits=mlm_logits, nsp_logits=nsp_logits,
                         predict_examples=owners)


class TestLastLayerAtQueryRows:
    """The pruned last layer gives the full-row forward's logits, loss,
    metrics and every gradient."""

    @staticmethod
    def run(model, batch, forward, rng_seed):
        for p in model.parameters().values():
            p.zero_grad()
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        out = forward(model, batch, rng)
        loss, metrics = pretrain_loss(out, batch)
        loss.backward()
        return out, loss.item(), metrics, {k: p.grad for k, p in model.parameters().items()}

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_matches_full_row_forward(self, case, dropout):
        model = EncoderModel(tiny_config(**BATCH_CASES[case], hidden_dropout=dropout,
                                         attn_dropout=dropout), seed=17)
        # padded; example 1 predicts nothing, examples 2 and 3 predict position 0
        batch = mixed_batch()
        seed = 8 if dropout else None
        got = self.run(model, batch, EncoderModel.pretrain_forward, seed)
        want = self.run(model, batch, full_rows_forward, seed)
        for name in ("pooled", "mlm_logits", "nsp_logits"):
            np.testing.assert_allclose(getattr(got[0], name).data, getattr(want[0], name).data,
                                       rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_array_equal(got[0].predict_examples, want[0].predict_examples)
        slots = got[0].slot_positions
        np.testing.assert_array_equal(slots, [[0, 4, 7, 8], [0, 0, 0, 0],
                                              [0, 0, 4, 0], [0, 0, 2, 0]])
        states = np.take_along_axis(want[0].slot_states.data, slots[..., None], axis=1)
        np.testing.assert_allclose(got[0].slot_states.data, states, rtol=0, atol=1e-12)
        assert_runs_agree(got[1:], want[1:])


def graph_nodes(loss: Tensor) -> int:
    """Recorded nodes (tensors with a backward pass) reachable from ``loss``."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._backward is not None:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


class TestNodeBudget:
    """The graph a training step records stays as small as the fused ops made it.

    Layer norm, softmax, GeLU, log-softmax + NLL, every ``x @ W + b`` and each
    attention block's heads are one node each; before the first four were
    fused these graphs had 188 and 192 nodes, and 88 and 92 before the last
    two. Running the last layer only at the heads' rows added three (a
    reshape, a row gather and a reshape pick that layer's residual rows). A
    change that lowers a count updates the number here; one that raises it
    says why in CHANGES.md.
    """

    def test_acceptance_gradcheck_config(self):
        # test 03's model and example: FRPE, n=12, d_model 64
        cfg = EncoderConfig(vocab_size=128, d_model=64, num_layers=2, num_heads=2,
                            max_seq_len=32, scheme=Scheme.FRPE)
        example = make_offset_copy_examples(1, 12, 123, -3, np.random.default_rng(7))[0]
        example.nsp_label = 1
        loss, _ = pretrain_loss(EncoderModel(cfg, seed=0).pretrain_forward(example), example)
        assert graph_nodes(loss) == 39

    def test_toy_mlm_batch(self):
        # the toy-MLM benchmark model (test 09's config) on a padded batch of four
        cfg = EncoderConfig(vocab_size=256, d_model=32, num_layers=2, num_heads=2,
                            ffn_size=64, max_seq_len=44, scheme=Scheme.FRPE)
        batch = mixed_batch(vocab_size=256, lengths=(44, 30, 44, 20))
        loss, _ = pretrain_loss(EncoderModel(cfg, seed=0).pretrain_forward(batch), batch)
        assert graph_nodes(loss) == 39


def force_exact_off(monkeypatch):
    """Send every exact op's output and gradient through the value filter again."""
    make, accumulate = Tensor._make, Tensor._accumulate
    monkeypatch.setattr(Tensor, "_make", staticmethod(
        lambda data, parents, backward, exact=False: make(data, parents, backward)))
    monkeypatch.setattr(Tensor, "_accumulate",
                        lambda self, g, copy=False, exact=False: accumulate(self, g, copy))


def mixed_steps(scheme, steps=2):
    """Two mixed-precision LAMB steps of the tiny model with dropout on a mixed-length batch.

    Returns each step's loss and, after the last step, the (scaled)
    gradients, the masters and the moments.
    """
    model = EncoderModel(tiny_config(scheme=scheme, hidden_dropout=0.1, attn_dropout=0.1),
                         seed=21)
    params, batch = model.parameters(), mixed_batch()
    optimizer = make_optimizer("lamb", params)
    policy = PrecisionPolicy(mode="mixed_emulated", loss_scale=1024.0)
    losses = []
    for t in range(1, steps + 1):
        def loss_fn():
            rng = np.random.default_rng([5, t])
            return pretrain_loss(model.pretrain_forward(batch, rng=rng), batch)
        metrics, skipped = training_step(policy, loss_fn, optimizer, lr=1e-2)
        assert not skipped
        losses.append(metrics["loss"])
    state = optimizer.state
    return (losses, {k: p.grad for k, p in params.items()},
            {k: p.data for k, p in params.items()}, state.m, state.v)


SCHEMES = [Scheme.NONE, Scheme.PAPE, Scheme.PRPE, Scheme.FRPE]


class TestExactOpsInAMixedStep:
    """Reshapes, transposes, row gathers, sign flips, the gradient copies of ``+``
    and the backward seed skip the binary16 filter without changing a bit."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_bitwise_equal_with_exact_forced_off(self, scheme, monkeypatch):
        on = mixed_steps(scheme)
        with monkeypatch.context() as m:
            force_exact_off(m)
            off = mixed_steps(scheme)
        assert on[0] == off[0]
        for got, want in zip(on[1:], off[1:]):
            assert got.keys() == want.keys()
            for name in got:
                np.testing.assert_array_equal(got[name].view(np.uint64),
                                              want[name].view(np.uint64), err_msg=name)


class TestRoundingBudget:
    """The binary16 roundings one mixed step makes, counted at ``relpe.optim.round_half``
    (the name the bench tracer wraps), and as many again with the exact ops
    forced back through the filter. A change that lowers a count updates the
    number here; one that raises it says why in CHANGES.md."""

    @pytest.mark.parametrize("scheme, calls, forced_off", [
        (Scheme.NONE, 108, 134), (Scheme.PAPE, 111, 139), (Scheme.PRPE, 112, 138),
        (Scheme.FRPE, 108, 134)], ids=["none", "pape", "prpe", "frpe"])
    def test_calls_per_step(self, scheme, calls, forced_off, monkeypatch):
        count = [0]
        real = relpe.optim.round_half

        def counted(x):
            count[0] += 1
            return real(x)

        monkeypatch.setattr(relpe.optim, "round_half", counted)
        mixed_steps(scheme, steps=1)
        assert count[0] == calls
        count[0] = 0
        force_exact_off(monkeypatch)
        mixed_steps(scheme, steps=1)
        assert count[0] == forced_off
