import math
import re

import numpy as np
import pytest

import relpe.encoder
from relpe.attention import (AttentionConfig, HeadWeights, attention_output, attention_scores,
                             init_head_weights, multi_head_attention)
from relpe.optim import round_half
from relpe.posenc import RelPositionTable, Scheme, build_rel_table
from relpe.tensor import Tensor, dropout, no_grad, value_filter

from oracle_ops import softmax


def frpe_oracle(delta, d_z):
    """FRPE vector of one offset, one math.sin / math.cos call per component."""
    out = np.empty(d_z)
    for k in range(d_z // 2):
        angle = delta / 10000.0 ** (2 * k / d_z)
        out[2 * k], out[2 * k + 1] = math.sin(angle), math.cos(angle)
    return out


def rel_row(table, delta, role):
    """a_delta for one role: the FRPE formula, or the learned bank's clipped row."""
    if table.rows is not None:
        return frpe_oracle(delta, table.d_z)
    bank = table.bank_k if role == "K" else table.bank_v
    return bank.data[int(np.clip(delta, -table.clip, table.clip)) + table.clip]


def reference_multi_head(x, weights, cfg, table=None, mask=None):
    """Loop-based direct-summation reference: no batching, explicit sums."""
    n, d = x.shape
    d_z = cfg.d_z
    head_outputs = np.zeros((n, cfg.num_heads * d_z))
    for h in range(cfg.num_heads):
        wq = weights.wq.data[:, h * d_z:(h + 1) * d_z]
        wk = weights.wk.data[:, h * d_z:(h + 1) * d_z]
        wv = weights.wv.data[:, h * d_z:(h + 1) * d_z]
        e = np.zeros((n, n))
        for i in range(n):
            q_i = x[i] @ wq
            for j in range(n):
                k_j = x[j] @ wk
                if table is not None:
                    k_j = k_j + rel_row(table, j - i, "K")
                e[i, j] = q_i @ k_j / np.sqrt(d_z)
                if mask is not None and not mask[j]:
                    e[i, j] += -1e9
        for i in range(n):
            alpha = np.exp(e[i] - e[i].max())
            alpha /= alpha.sum()
            z_i = np.zeros(d_z)
            for j in range(n):
                v_j = x[j] @ wv
                if table is not None:
                    v_j = v_j + rel_row(table, j - i, "V")
                z_i += alpha[j] * v_j
            head_outputs[i, h * d_z:(h + 1) * d_z] = z_i
    return head_outputs @ weights.wo.data + weights.bo.data


def make_weights(cfg, seed=0):
    return init_head_weights(cfg, np.random.default_rng(seed))


class TestAttentionScores:
    def test_zero_query_gives_zero_scores(self):
        table = build_rel_table(4, 4, Scheme.FRPE)
        q = Tensor(np.zeros((4, 4)))
        k = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        scores = attention_scores(q, k, table)
        np.testing.assert_array_equal(scores.data, 0.0)

    def test_single_position_no_table(self):
        q = Tensor([[1.0, 2.0]])
        k = Tensor([[3.0, -1.0]])
        scores = attention_scores(q, k)
        assert scores.data[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)

    def test_identity_rows_with_frpe_match_double_loop(self):
        table = build_rel_table(4, 2, Scheme.FRPE)
        q = Tensor(np.eye(2))
        k = Tensor(np.eye(2))
        scores = attention_scores(q, k, table)
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = q.data[i] @ (k.data[j] + frpe_oracle(j - i, 2)) / np.sqrt(2)
        np.testing.assert_allclose(scores.data, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            attention_scores(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))))
        with pytest.raises(ValueError):
            attention_scores(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))),
                             build_rel_table(4, 8, Scheme.FRPE))


class TestAttentionOutput:
    def test_identity_alpha_returns_values(self):
        v = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        out = attention_output(Tensor(np.eye(3)), v)
        np.testing.assert_array_equal(out.data, v.data)

    def test_zero_values_uniform_alpha_averages_encodings(self):
        n, d_z = 3, 4
        table = build_rel_table(n, d_z, Scheme.FRPE)
        alpha = Tensor(np.full((n, n), 1.0 / n))
        out = attention_output(alpha, Tensor(np.zeros((n, d_z))), table)
        for i in range(n):
            expected = np.mean([frpe_oracle(j - i, d_z) for j in range(n)], axis=0)
            np.testing.assert_allclose(out.data[i], expected, atol=1e-12)

    def test_random_case_matches_double_loop(self):
        rng = np.random.default_rng(2)
        n, d_z = 3, 4
        table = build_rel_table(n, d_z, Scheme.FRPE)
        alpha_raw = rng.random((n, n))
        alpha_raw /= alpha_raw.sum(axis=1, keepdims=True)
        v = rng.normal(size=(n, d_z))
        out = attention_output(Tensor(alpha_raw), Tensor(v), table)
        expected = np.zeros((n, d_z))
        for i in range(n):
            for j in range(n):
                expected[i] += alpha_raw[i, j] * (v[j] + frpe_oracle(j - i, d_z))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestOffsetRowAttention:
    """Relative scores, outputs and their gradients against the double loop.

    With L = sum(G1 * scores) + sum(G2 * out), each gradient is a sum over
    the pairs (i, j) whose offset j - i selects the encoding row.
    """

    @staticmethod
    def direct(table, q, k, alpha, v, g1, g2):
        n, d_z = q.shape
        s = 1.0 / np.sqrt(d_z)
        scores, out = np.zeros((n, n)), np.zeros((n, d_z))
        dq, dalpha = np.zeros((n, d_z)), np.zeros((n, n))
        d_bank = {"K": {}, "V": {}}
        for i in range(n):
            for j in range(n):
                a_k, a_v = rel_row(table, j - i, "K"), rel_row(table, j - i, "V")
                scores[i, j] = q[i] @ (k[j] + a_k) * s
                out[i] += alpha[i, j] * (v[j] + a_v)
                dq[i] += g1[i, j] * (k[j] + a_k) * s
                dalpha[i, j] = g2[i] @ (v[j] + a_v)
                key = int(np.clip(j - i, -table.clip, table.clip)) + table.clip
                d_bank["K"][key] = d_bank["K"].get(key, 0.0) + g1[i, j] * q[i] * s
                d_bank["V"][key] = d_bank["V"].get(key, 0.0) + alpha[i, j] * g2[i]
        return scores, out, dq, dalpha, d_bank

    @pytest.mark.parametrize("scheme, max_len, n", [
        (Scheme.PRPE, 7, 7),       # clip 2 < n: offsets past +-2 share a row
        (Scheme.FRPE, 4, 8),       # twice the built table's length
    ])
    def test_matches_double_loop(self, scheme, max_len, n):
        rng = np.random.default_rng(17)
        d_z = 4
        table = build_rel_table(max_len, d_z, scheme, rng_seed=5, clip=2)
        rows_before = None if table.rows is None else table.rows.copy()
        q, k, v = (Tensor(rng.normal(size=(n, d_z)), requires_grad=True) for _ in range(3))
        alpha = Tensor(softmax(Tensor(rng.normal(size=(n, n)))).data, requires_grad=True)
        g1, g2 = rng.normal(size=(n, n)), rng.normal(size=(n, d_z))

        scores = attention_scores(q, k, table)
        out = attention_output(alpha, v, table)
        ((scores * Tensor(g1)).sum() + (out * Tensor(g2)).sum()).backward()

        want = self.direct(table, q.data, k.data, alpha.data, v.data, g1, g2)
        for got, expected in zip((scores.data, out.data, q.grad, alpha.grad), want):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        if scheme is Scheme.PRPE:
            for role, bank in (("K", table.bank_k), ("V", table.bank_v)):
                expected = np.zeros_like(bank.data)
                for key, grad in want[4][role].items():
                    expected[key] = grad
                np.testing.assert_allclose(bank.grad, expected, rtol=0, atol=1e-12)
        else:
            assert table.max_len == max_len
            np.testing.assert_array_equal(table.rows, rows_before)


class TestStackedHeads:
    """Heads on a leading axis agree with one 2-D call per head."""

    @pytest.mark.parametrize("scheme, max_len, n", [
        (Scheme.FRPE, 8, 5),       # inside the built table
        (Scheme.FRPE, 4, 8),       # twice the built table's length
        (Scheme.PRPE, 7, 7),       # clip 2 < n
    ])
    def test_matches_per_head_calls(self, scheme, max_len, n):
        rng = np.random.default_rng(21)
        heads, d_z = 3, 4
        table = build_rel_table(max_len, d_z, scheme, rng_seed=5, clip=2)
        qkv = [rng.normal(size=(heads, n, d_z)) for _ in range(3)]
        alpha = softmax(Tensor(rng.normal(size=(heads, n, n)))).data
        g1, g2 = rng.normal(size=(heads, n, n)), rng.normal(size=(heads, n, d_z))

        def run(per_head):
            """Scores, outputs, q/k/v/alpha gradients and bank gradients."""
            for p in table.parameters().values():
                p.zero_grad()
            index = range(heads) if per_head else [slice(None)]
            groups = [[Tensor(a[h], requires_grad=True) for a in (*qkv, alpha)]
                      for h in index]
            loss, values = Tensor(0.0), []
            for (q, k, v, al), h in zip(groups, index):
                s, o = attention_scores(q, k, table), attention_output(al, v, table)
                loss = loss + (s * Tensor(g1[h])).sum() + (o * Tensor(g2[h])).sum()
                values += [s.data, o.data]
            loss.backward()
            grads = [t.grad for group in groups for t in group]
            banks = [p.grad for p in table.parameters().values()]
            # one array per quantity, with the heads (or the one group) stacked first
            return ([np.stack(values[i::2]) for i in range(2)]
                    + [np.stack(grads[i::4]) for i in range(4)] + banks)

        stacked, per_head = run(per_head=False), run(per_head=True)
        assert len(stacked) == (8 if scheme is Scheme.PRPE else 6)
        for got, want in zip(stacked, per_head):
            np.testing.assert_allclose(got.reshape(want.shape), want, rtol=0, atol=1e-12)

    def test_attention_dropout_draws_head_masks_in_order(self):
        rate, n = 0.3, 6
        cfg = AttentionConfig(num_heads=3, d_model=12, scheme=Scheme.FRPE,
                              attn_dropout=rate)
        weights = make_weights(cfg, seed=22)
        table = build_rel_table(n, cfg.d_z, Scheme.FRPE)
        x = np.random.default_rng(23).normal(size=(n, 12))
        got = multi_head_attention(Tensor(x), weights, cfg, table,
                                   rng=np.random.default_rng(24)).data

        rng, d_z, heads = np.random.default_rng(24), cfg.d_z, []
        for h in range(cfg.num_heads):
            cols = slice(h * d_z, (h + 1) * d_z)
            q, k, v = (Tensor(x @ w.data[:, cols])
                       for w in (weights.wq, weights.wk, weights.wv))
            alpha = softmax(attention_scores(q, k, table)).data
            keep = (rng.random((n, n)) >= rate) / (1.0 - rate)
            heads.append(attention_output(Tensor(alpha * keep), v, table).data)
        expected = np.concatenate(heads, axis=1) @ weights.wo.data + weights.bo.data
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        without = multi_head_attention(Tensor(x), weights, cfg, table).data
        assert not np.allclose(got, without)

class TestMultiHeadAttention:
    def test_single_position_softmax_collapses(self):
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.FRPE)
        weights = make_weights(cfg)
        table = build_rel_table(1, cfg.d_z, Scheme.FRPE)
        x = np.random.default_rng(3).normal(size=(1, 8))
        out = multi_head_attention(Tensor(x), weights, cfg, table)
        a0 = frpe_oracle(0, cfg.d_z)
        per_head = [x @ weights.wv.data[:, h * 4:(h + 1) * 4] + a0 for h in range(2)]
        expected = np.concatenate(per_head, axis=1) @ weights.wo.data + weights.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_masked_position_content_is_ignored(self):
        cfg = AttentionConfig(num_heads=2, d_model=8)
        weights = make_weights(cfg, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 8))
        mask = np.array([True, True, False])
        out1 = multi_head_attention(Tensor(x), weights, cfg, mask=mask).data
        x2 = x.copy()
        x2[2] = rng.normal(size=8) * 50.0
        out2 = multi_head_attention(Tensor(x2), weights, cfg, mask=mask).data
        np.testing.assert_allclose(out1[:2], out2[:2], atol=1e-12)

    def test_masked_weight_is_negligible(self):
        cfg = AttentionConfig(num_heads=1, d_model=4)
        weights = make_weights(cfg, seed=7)
        x = Tensor(np.random.default_rng(8).normal(size=(3, 4)))
        q = x @ weights.wq
        k = x @ weights.wk
        mask = np.array([True, False, True])
        alpha = softmax(attention_scores(q, k, mask=mask), axis=-1).data
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(alpha[:, 1] < 1e-30)

    def test_mask_under_binary16_gives_exact_zero_weight(self):
        # A masked score of about -65000 plus any additive fill would round
        # to -inf in binary16; the fill must replace the score instead.
        mask = np.array([False, True, True])
        table = build_rel_table(3, 2, Scheme.FRPE)
        q = Tensor([[180.0, 180.0], [1.0, 0.0], [0.0, 1.0]])
        k = Tensor([[-180.0, -180.0], [0.5, 0.0], [0.0, 0.5]])
        with value_filter(round_half):
            scores = attention_scores(q, k, table, mask=mask)
            alpha = softmax(scores, axis=-1).data
        assert np.all(np.isfinite(scores.data))
        assert np.all(alpha[:, 0] == 0.0)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-3)

    def test_masked_frpe_block_under_binary16_is_finite(self):
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.FRPE)
        weights = make_weights(cfg, seed=18)
        table = build_rel_table(5, cfg.d_z, Scheme.FRPE)
        x = Tensor(np.random.default_rng(19).normal(size=(5, 8)), requires_grad=True)
        mask = np.array([True, True, True, False, False])
        with value_filter(round_half):
            out = multi_head_attention(x, weights, cfg, table, mask=mask)
            (out * out).sum().backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))
        reference = multi_head_attention(Tensor(x.data), weights, cfg, table, mask=mask)
        np.testing.assert_allclose(out.data, reference.data, rtol=2e-2, atol=2e-2)

    @pytest.mark.parametrize("scheme", [Scheme.NONE, Scheme.FRPE, Scheme.PRPE])
    def test_random_cases_match_reference(self, scheme):
        rng = np.random.default_rng(9)
        for trial in range(10):
            heads = int(rng.integers(1, 5))
            d_z = int(rng.integers(1, 5)) * 2
            n = int(rng.integers(1, 9))
            cfg = AttentionConfig(num_heads=heads, d_model=heads * d_z, scheme=scheme)
            weights = make_weights(cfg, seed=trial)
            table = (None if scheme is Scheme.NONE
                     else build_rel_table(n, d_z, scheme, rng_seed=trial, clip=3))
            x = rng.normal(size=(n, cfg.d_model))
            got = multi_head_attention(Tensor(x), weights, cfg, table).data
            expected = reference_multi_head(x, weights, cfg, table)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_no_table_equals_vanilla_bit_for_bit(self):
        cfg = AttentionConfig(num_heads=2, d_model=8)
        weights = make_weights(cfg, seed=11)
        x = np.random.default_rng(12).normal(size=(5, 8))
        got = multi_head_attention(Tensor(x), weights, cfg).data

        # vanilla reference with the identical operation order
        d_z = cfg.d_z
        outs = []
        for h in range(cfg.num_heads):
            cols = slice(h * d_z, (h + 1) * d_z)
            q = x @ weights.wq.data[:, cols]
            k = x @ weights.wk.data[:, cols]
            v = x @ weights.wv.data[:, cols]
            scores = (q @ k.T) * (1.0 / np.sqrt(d_z))
            shifted = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            alpha = e / e.sum(axis=-1, keepdims=True)
            outs.append(alpha @ v)
        expected = np.concatenate(outs, axis=1) @ weights.wo.data + weights.bo.data
        np.testing.assert_array_equal(got, expected)

    def test_shift_equivariance_of_relative_scores(self):
        # identical token content at (i, j) and (i+s, j+s) gives equal scores
        rng = np.random.default_rng(13)
        base = rng.normal(size=(4, 8))
        x = np.concatenate([base, base], axis=0)  # period-4 content
        for scheme in (Scheme.FRPE, Scheme.PRPE):
            cfg = AttentionConfig(num_heads=2, d_model=8, scheme=scheme)
            weights = make_weights(cfg, seed=14)
            table = build_rel_table(8, cfg.d_z, scheme, rng_seed=1, clip=16)
            q = Tensor(x @ weights.wq.data[:, :cfg.d_z])
            k = Tensor(x @ weights.wk.data[:, :cfg.d_z])
            e = attention_scores(q, k, table).data
            s = 4
            for i in range(4):
                for j in range(4):
                    assert e[i, j] == pytest.approx(e[i + s, j + s], abs=1e-9)

    def test_gradients_flow_through_relative_banks(self):
        from relpe.gradcheck import check_gradients
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.PRPE)
        weights = make_weights(cfg, seed=15)
        table = build_rel_table(6, cfg.d_z, Scheme.PRPE, rng_seed=2, clip=3)
        x = Tensor(np.random.default_rng(16).normal(size=(6, 8)))

        def loss():
            out = multi_head_attention(x, weights, cfg, table)
            return (out * out).sum()

        params = {**{f"attn.{k}": v for k, v in weights.parameters().items()},
                  **table.parameters()}
        report = check_gradients(loss, params, step=1e-5)
        assert report.max_relative_error < 1e-5
        assert report.per_parameter["relpos.bank_k"] >= 0  # banks were checked


def composite_multi_head_attention(x, weights, cfg, table=None, mask=None, rng=None,
                                   queries=None):
    """The attention block as single-op nodes: the composite the fused
    block replaced, kept as its oracle. With
    ``queries`` (..., r) it runs on every row, then takes the query rows."""
    *lead, n, d_model = x.shape
    split = (*lead, n, cfg.num_heads, cfg.d_z)
    b = len(lead)
    swap = (*range(b), b + 1, b, b + 2)

    def heads(w):
        return (x @ w).reshape(split).transpose(swap)

    q, k, v = heads(weights.wq), heads(weights.wk), heads(weights.wv)
    alpha = softmax(attention_scores(q, k, table, mask), axis=-1)
    if cfg.attn_dropout > 0.0 and rng is not None:
        alpha = dropout(alpha, cfg.attn_dropout, rng)
    merged = attention_output(alpha, v, table).transpose(swap).reshape(*lead, n, d_model)
    out = merged @ weights.wo + weights.bo
    if queries is None:
        return out
    rows = np.arange(math.prod(lead)).reshape(*lead, 1) * n + queries
    return out.reshape(-1, d_model).take_rows(rows.reshape(-1)).reshape(*queries.shape, d_model)


def lengths_mask(lengths, n):
    return np.arange(n) < np.asarray(lengths)[:, None]


# (scheme, heads, d_z, table max_len, PRPE clip, x shape, mask, attention dropout[,
#  query rows])
FUSED_ATTENTION_CASES = {
    "none-batch-mask": (Scheme.NONE, 2, 4, 0, 0, (4, 7, 8), lengths_mask([7, 4, 7, 2], 7), 0.0),
    "pape-no-table": (Scheme.PAPE, 3, 2, 0, 0, (2, 5, 6), None, 0.0),
    "frpe-batch-mask": (Scheme.FRPE, 2, 4, 8, 0, (3, 6, 8), lengths_mask([6, 3, 5], 6), 0.0),
    "frpe-past-max-len": (Scheme.FRPE, 2, 2, 3, 0, (2, 8, 4), lengths_mask([8, 5], 8), 0.0),
    "frpe-vector-mask": (Scheme.FRPE, 2, 4, 6, 0, (6, 8), np.arange(6) < 4, 0.0),
    "prpe-clip-below-n": (Scheme.PRPE, 2, 4, 7, 2, (3, 7, 8), lengths_mask([7, 2, 6], 7), 0.0),
    "frpe-no-valid-key": (Scheme.FRPE, 2, 4, 6, 0, (3, 6, 8), lengths_mask([6, 0, 3], 6), 0.0),
    "prpe-dropout": (Scheme.PRPE, 2, 4, 7, 2, (2, 7, 8), lengths_mask([7, 4], 7), 0.3),
    "frpe-dropout": (Scheme.FRPE, 4, 2, 5, 0, (2, 5, 8), lengths_mask([3, 5], 5), 0.2),
    "none-dropout-unbatched": (Scheme.NONE, 1, 4, 0, 0, (5, 4), None, 0.4),
    # query rows: [CLS] first, repeated positions, padding slots at position 0
    "none-queries-unbatched": (Scheme.NONE, 1, 4, 0, 0, (5, 4), None, 0.4, np.array([0, 3, 3])),
    "frpe-queries-past-max-len": (Scheme.FRPE, 2, 2, 3, 0, (2, 8, 4), lengths_mask([8, 5], 8),
                                  0.2, np.array([[0, 7, 2], [0, 4, 0]])),
    "prpe-queries-clip-below-n": (Scheme.PRPE, 2, 4, 7, 2, (3, 7, 8), lengths_mask([7, 2, 6], 7),
                                  0.3, np.array([[0, 6], [0, 0], [5, 1]])),
    # clip n-1: every offset unclipped; clip > n: bank rows no offset reaches
    "prpe-clip-n-minus-1": (Scheme.PRPE, 2, 4, 7, 6, (3, 7, 8), lengths_mask([7, 2, 6], 7), 0.0),
    "prpe-queries-clip-past-n": (Scheme.PRPE, 2, 4, 7, 9, (2, 7, 8), lengths_mask([7, 4], 7),
                                 0.3, np.array([[6, 0, 6], [3, 1, 0]])),
}


def run_attention_case(block, case, seed=31):
    """Output and every gradient (x, the five weights, the PRPE banks) of
    ``block`` on a case, under a random upstream gradient."""
    scheme, heads, d_z, max_len, clip, shape, mask, rate, *queries = case
    cfg = AttentionConfig(num_heads=heads, d_model=heads * d_z, scheme=scheme,
                          attn_dropout=rate)
    weights = make_weights(cfg, seed=seed)
    table = (build_rel_table(max_len, d_z, scheme, rng_seed=seed, clip=clip)
             if scheme.relative else None)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    out = block(x, weights, cfg, table, mask, np.random.default_rng(seed + 1), *queries)
    (out * Tensor(rng.normal(size=out.shape))).sum().backward()
    leaves = {"x": x, **weights.parameters(),
              **(table.parameters() if table is not None else {})}
    return out.data, {name: t.grad for name, t in leaves.items()}


class TestFusedAttentionMatchesComposite:
    """The fused block equals the composite: gradients to 1e-12, and the forward
    bit for bit, except PRPE's to 1e-12 (it gathers scores from q B_K^T and
    sums each bank row's weights before the bank matmul, where the composite
    takes each pair's bank row)."""

    @pytest.mark.parametrize("name", sorted(FUSED_ATTENTION_CASES))
    def test_forward_and_gradients(self, name):
        case = FUSED_ATTENTION_CASES[name]
        got_out, got = run_attention_case(multi_head_attention, case)
        want_out, want = run_attention_case(composite_multi_head_attention, case)
        if case[0] is Scheme.PRPE:
            np.testing.assert_allclose(got_out, want_out, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got_out, want_out)
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)
        if case[0] is Scheme.PRPE:
            clip, n = case[4], case[5][-2]
            unused = np.abs(np.arange(2 * clip + 1) - clip) > n - 1
            for key in ("relpos.bank_k", "relpos.bank_v"):
                assert np.any(got[key] != 0) and not np.any(got[key][unused]), key

    def test_no_grad_forward_is_the_same_and_records_nothing(self):
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.PRPE)
        weights = make_weights(cfg, seed=30)
        table = build_rel_table(7, 4, Scheme.PRPE, rng_seed=30, clip=2)
        x = Tensor(np.random.default_rng(30).normal(size=(3, 7, 8)), requires_grad=True)
        mask = lengths_mask([7, 2, 6], 7)
        want = multi_head_attention(x, weights, cfg, table, mask).data
        with no_grad():
            out = multi_head_attention(x, weights, cfg, table, mask)
        np.testing.assert_array_equal(out.data, want)
        assert not out.requires_grad and out._parents == () and out._backward is None

    @pytest.mark.parametrize("scheme", [Scheme.NONE, Scheme.FRPE, Scheme.PRPE])
    def test_block_is_one_node(self, scheme):
        # its parents: x, the five weights and, under PRPE, both banks
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=scheme)
        weights = make_weights(cfg, seed=38)
        table = build_rel_table(5, 4, scheme, clip=2) if scheme.relative else None
        x = Tensor(np.random.default_rng(39).normal(size=(2, 5, 8)), requires_grad=True)
        out = multi_head_attention(x, weights, cfg, table)
        want = [x, *weights.parameters().values(),
                *(table.parameters().values() if table is not None else ())]
        assert len(out._parents) == len(want)
        assert all(got is p for got, p in zip(out._parents, want))

    @pytest.mark.parametrize("k_shape, v_shape", [((4, 4), (4, 4)), ((5, 2), (5, 2)),
                                                  ((5, 4), (3, 4))],
                             ids=["even-rows", "width-not-d_z", "different-shapes"])
    def test_misshapen_banks_are_named(self, k_shape, v_shape):
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.PRPE)
        table = RelPositionTable(d_z=4, max_len=5, clip=2, bank_k=Tensor(np.zeros(k_shape)),
                                 bank_v=Tensor(np.zeros(v_shape)))
        with pytest.raises(ValueError, match=re.escape(
                f"relative banks bank_k, bank_v of shapes [{k_shape}, {v_shape}]")):
            multi_head_attention(Tensor(np.zeros((2, 5, 8))), make_weights(cfg, seed=30), cfg,
                                 table)

    @pytest.mark.parametrize("banks", [{}, {"bank_k": Tensor(np.zeros((5, 4)))}],
                             ids=["neither", "bank_k-only"])
    def test_table_without_rows_or_banks_is_refused(self, banks):
        # such a table would otherwise run plain attention without a word
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.PRPE)
        with pytest.raises(ValueError, match="needs FRPE rows or both PRPE banks"):
            multi_head_attention(Tensor(np.zeros((2, 5, 8))), make_weights(cfg, seed=30), cfg,
                                 RelPositionTable(d_z=4, max_len=5, clip=2, **banks))

    @pytest.mark.parametrize("mask", [np.ones((3, 5), dtype=bool),    # batch of 3, not 2
                                      np.ones((2, 6), dtype=bool),    # 6 keys, not 5
                                      np.ones(4, dtype=bool)])
    def test_misfit_mask_raises_the_composite_error(self, mask):
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.FRPE)
        weights, table = make_weights(cfg, seed=32), build_rel_table(5, 4, Scheme.FRPE)
        x = Tensor(np.random.default_rng(33).normal(size=(2, 5, 8)))
        with pytest.raises(ValueError) as composite:
            composite_multi_head_attention(x, weights, cfg, table, mask)
        with pytest.raises(ValueError) as fused:
            multi_head_attention(x, weights, cfg, table, mask)
        assert str(fused.value) == str(composite.value)

    def test_nonfinite_input_raises_the_composite_error(self):
        cfg = AttentionConfig(num_heads=2, d_model=8)
        weights = make_weights(cfg, seed=36)
        x = np.random.default_rng(37).normal(size=(2, 5, 8))
        x[1, 3, 2] = np.nan
        with pytest.raises(ValueError, match="softmax input is not finite") as composite:
            composite_multi_head_attention(Tensor(x), weights, cfg)
        with pytest.raises(ValueError) as fused:
            multi_head_attention(Tensor(x), weights, cfg)
        assert str(fused.value) == str(composite.value)

    @pytest.mark.parametrize("scheme", [Scheme.NONE, Scheme.PAPE, Scheme.PRPE, Scheme.FRPE])
    def test_encoder_with_composite_blocks(self, scheme, monkeypatch):
        # the whole model, padded batch and dropout: same loss bit for bit
        from relpe.encoder import EncoderConfig, EncoderModel, pretrain_loss
        from test_encoder import mixed_batch

        # FRPE runs past its table (n = 9 > 6); PAPE's table must hold n
        cfg = EncoderConfig(vocab_size=16, d_model=8, num_layers=2, num_heads=2,
                            ffn_size=16, max_seq_len=12 if scheme is Scheme.PAPE else 6,
                            scheme=scheme, prpe_clip=2,
                            hidden_dropout=0.1, attn_dropout=0.2)

        def run():
            model, batch = EncoderModel(cfg, seed=34), mixed_batch()
            loss, _ = pretrain_loss(
                model.pretrain_forward(batch, rng=np.random.default_rng(35)))
            loss.backward()
            return loss.data, {k: p.grad for k, p in model.parameters().items()}

        got = run()
        monkeypatch.setattr(relpe.encoder, "multi_head_attention",
                            composite_multi_head_attention)
        want = run()
        np.testing.assert_array_equal(got[0], want[0])
        for key, grad in want[1].items():
            np.testing.assert_allclose(got[1][key], grad, rtol=0, atol=1e-12, err_msg=key)


def frpe_block_rows(x, weights, cfg, rows, g):
    """Double-loop FRPE block on query ``rows``: their outputs, and dx of
    sum(g * out) for a ``g`` that is zero off those rows."""
    n, d_z = x.shape[0], cfg.d_z
    enc = {delta: frpe_oracle(delta, d_z) for delta in range(-(n - 1), n)}
    s = 1.0 / np.sqrt(d_z)
    out, dx = np.tile(weights.bo.data, (len(rows), 1)), np.zeros_like(x)
    for h in range(cfg.num_heads):
        cols = slice(h * d_z, (h + 1) * d_z)
        wq, wk, wv = (w.data[:, cols] for w in (weights.wq, weights.wk, weights.wv))
        wo = weights.wo.data[cols]
        q, k, v = x @ wq, x @ wk, x @ wv
        dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        for r, i in enumerate(rows):
            e = np.array([q[i] @ (k[j] + enc[j - i]) * s for j in range(n)])
            alpha = np.exp(e - e.max())
            alpha /= alpha.sum()
            z = np.zeros(d_z)
            for j in range(n):
                z += alpha[j] * (v[j] + enc[j - i])
            out[r] += z @ wo
            g_z = wo @ g[i]
            d_alpha = np.array([g_z @ (v[j] + enc[j - i]) for j in range(n)])
            d_e = alpha * (d_alpha - alpha @ d_alpha) * s
            for j in range(n):
                dq[i] += d_e[j] * (k[j] + enc[j - i])
                dk[j] += d_e[j] * q[i]
                dv[j] += alpha[j] * g_z
        dx += dq @ wq.T + dk @ wk.T + dv @ wv.T
    return out, dx


class TestFrpePastTheTable:
    """FRPE at n = 300 on a table built to 64: absolute angles up to 299 rad,
    through the wide rows, against the sin/cos double loop on sampled rows."""

    N, ROWS = 300, [0, 1, 150, 298, 299]

    def test_fused_block_matches_double_loop(self):
        n, rows = self.N, self.ROWS
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=Scheme.FRPE)
        rng = np.random.default_rng(41)
        weights = HeadWeights(*(Tensor(rng.normal(0.0, 0.5, (8, 8)), requires_grad=True)
                                for _ in range(4)), bo=Tensor(rng.normal(size=8)))
        table = build_rel_table(64, cfg.d_z, Scheme.FRPE)
        x = Tensor(rng.normal(size=(n, 8)), requires_grad=True)
        g = np.zeros((n, 8))
        g[rows] = rng.normal(size=(len(rows), 8))
        out = multi_head_attention(x, weights, cfg, table)
        (out * Tensor(g)).sum().backward()

        want_out, want_dx = frpe_block_rows(x.data, weights, cfg, rows, g)
        np.testing.assert_allclose(out.data[rows], want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, want_dx, rtol=0, atol=1e-12)

    def test_composite_matches_double_loop(self):
        n, rows, d_z = self.N, self.ROWS, 4
        rng = np.random.default_rng(42)
        table = build_rel_table(64, d_z, Scheme.FRPE)
        rows_before = table.rows.copy()
        q, k, v = (rng.normal(size=(n, d_z)) for _ in range(3))
        alpha = softmax(Tensor(rng.normal(size=(n, n)))).data
        g1, g2 = np.zeros((n, n)), np.zeros((n, d_z))
        g1[rows], g2[rows] = rng.normal(size=(len(rows), n)), rng.normal(size=(len(rows), d_z))
        q_t, alpha_t = Tensor(q, requires_grad=True), Tensor(alpha, requires_grad=True)
        scores = attention_scores(q_t, Tensor(k), table)
        out = attention_output(alpha_t, Tensor(v), table)
        ((scores * Tensor(g1)).sum() + (out * Tensor(g2)).sum()).backward()

        s = 1.0 / np.sqrt(d_z)
        want = {name: np.zeros((len(rows),) + shape) for name, shape in
                (("scores", (n,)), ("out", (d_z,)), ("dq", (d_z,)), ("dalpha", (n,)))}
        for r, i in enumerate(rows):
            for j in range(n):
                a = frpe_oracle(j - i, d_z)
                want["scores"][r, j] = q[i] @ (k[j] + a) * s
                want["out"][r] += alpha[i, j] * (v[j] + a)
                want["dq"][r] += g1[i, j] * (k[j] + a) * s
                want["dalpha"][r, j] = g2[i] @ (v[j] + a)
        for got, key in ((scores.data[rows], "scores"), (out.data[rows], "out"),
                         (q_t.grad[rows], "dq"), (alpha_t.grad[rows], "dalpha")):
            np.testing.assert_allclose(got, want[key], rtol=0, atol=1e-12, err_msg=key)
        off = np.setdiff1d(np.arange(n), rows)
        assert not q_t.grad[off].any() and not alpha_t.grad[off].any()
        np.testing.assert_array_equal(table.rows, rows_before)


class TestRelativeShiftOnlyForLearnedRows:
    """No path builds offset rows or shifts them. FRPE reads the n absolute
    rows from one ``block`` call per block (the composite makes one for its
    scores and one for its outputs); PRPE reads its banks and never ``block``."""

    @staticmethod
    def run_block(scheme, block=multi_head_attention, queries=None):
        cfg = AttentionConfig(num_heads=2, d_model=8, scheme=scheme, attn_dropout=0.2)
        table = build_rel_table(4, cfg.d_z, scheme, rng_seed=3, clip=2)
        x = Tensor(np.random.default_rng(43).normal(size=(3, 6, 8)), requires_grad=True)
        out = block(x, make_weights(cfg, seed=44), cfg, table, lengths_mask([6, 3, 5], 6),
                    np.random.default_rng(45), queries)
        (out * out).sum().backward()
        assert np.all(np.isfinite(x.grad))
        return table

    @pytest.mark.parametrize("block", [multi_head_attention, composite_multi_head_attention])
    def test_frpe_block_calls_no_offset_map(self, block, monkeypatch):
        shapes, lookup = [], RelPositionTable.block

        def counted(table, n):
            rows = lookup(table, n)
            shapes.append(rows.shape)
            return rows

        monkeypatch.setattr(RelPositionTable, "block", counted)
        self.run_block(Scheme.FRPE, block)
        assert shapes == [(6, 4)] * (1 if block is multi_head_attention else 2)

    @pytest.mark.parametrize("queries", [None, np.array([[0, 5], [2, 2], [4, 0]])],
                             ids=["all-rows", "queries"])
    def test_prpe_reads_banks_directly(self, queries, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("PRPE read through block")

        monkeypatch.setattr(RelPositionTable, "block", refuse)
        for block in (multi_head_attention, composite_multi_head_attention):
            table = self.run_block(Scheme.PRPE, block, queries)
            assert np.any(table.bank_k.grad != 0) and np.any(table.bank_v.grad != 0)
