import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf as np_erf

import relpe.gradcheck
from relpe.attention import (MASK_FILL, AttentionConfig, HeadWeights, attention_output,
                             attention_scores, multi_head_attention)
from relpe.gradcheck import (GradCheckReport, NonDeterministicLossError,
                            check_full_model, check_gradients)
from relpe.optim import round_half
from relpe.posenc import RelPositionTable, Scheme, build_rel_table, frpe_vector
from relpe.tensor import (Tensor, _np_erf, _scatter_rows, affine, gelu,
                          keep_mask, layer_norm, nll_loss, no_grad, take_queries,
                          value_filter)

from oracle_ops import div, erf, exp, log, log_softmax, mean, neg, power, softmax, sub


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).uniform(-scale, scale, shape)


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_large_magnitude_analytic_ratio(self):
        out = softmax(Tensor([1000.0, 1000.0 + math.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_single_element(self):
        assert softmax(Tensor([4.2])).data[0] == 1.0

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_rows_sum_to_one(self, scale):
        x = Tensor(rand((20, 7), seed=3, scale=scale))
        out = softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        # far-from-max entries may underflow to exactly 0 at extreme scales
        assert np.all(out.data >= 0) and np.all(out.data <= 1)

    def test_nonfinite_input_names_index(self):
        x = np.zeros((2, 3))
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            softmax(Tensor(x))


def ulps(got, want):
    """Distance in units in the last place between same-signed float64 arrays."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    return np.abs(got.view(np.int64) - want.view(np.int64))


class TestNumpyErf:
    """relpe's NumPy port of Cephes' erf against SciPy (which runs Cephes) and mpmath."""

    def test_bitwise_equal_to_scipy_up_to_one(self):
        tiny = np.finfo(np.float64).tiny
        edges = [0.0, -0.0, 5e-324, -5e-324, 3 * 5e-324, tiny / 2, tiny, -tiny, 1e-300,
                 np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 1.0, -1.0]
        x = np.concatenate([edges, rand(1_000_000, seed=40)])
        np.testing.assert_array_equal(_np_erf(x).view(np.int64), np_erf(x).view(np.int64))

    @pytest.mark.parametrize("lo, hi", [(1.0, 8.0), (8.0, 30.0)])
    def test_within_one_ulp_of_scipy_beyond_one(self, lo, hi):
        # either side of the clip at 8, where SciPy switches erfc's rational form
        b = np.concatenate([[np.nextafter(lo, hi), np.nextafter(hi, lo)],
                            np.random.default_rng(41).uniform(lo, hi, 200_000)])
        x = np.concatenate([b, -b, [8.0, -8.0, 30.0, -30.0]])
        assert ulps(_np_erf(x), np_erf(x)).max() <= 1

    def test_exactly_one_from_six_to_thirty(self):
        # from |x| = 6 on, 1 - erfc|x| rounds to exactly 1.0: the clipped branch
        # (|x| >= 8) and the P/Q form below it both match SciPy bit for bit
        b = np.linspace(6.0, 30.0, 480_001)
        x = np.concatenate([b, -b])
        got = _np_erf(x)
        np.testing.assert_array_equal(got.view(np.int64), np_erf(x).view(np.int64))
        np.testing.assert_array_equal(got, np.sign(x))

    def test_clip_point_and_its_neighbouring_ulps(self):
        b = [8.0]
        for _ in range(4):
            b = [np.nextafter(b[0], 0.0), *b, np.nextafter(b[-1], 9.0)]
        x = np.concatenate([b, np.negative(b)])
        np.testing.assert_array_equal(_np_erf(x).view(np.int64), np_erf(x).view(np.int64))

    def test_strided_and_scalar_inputs(self):
        # the far branch reads and writes by flat index in row-major order
        x = rand((40, 30), seed=42, scale=4.0).T[:, ::2]
        got = _np_erf(x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got, _np_erf(x.copy()))
        assert ulps(got, np_erf(x)).max() <= 1
        for v in (0.5, -3.0, 12.0):
            assert _np_erf(v).shape == () and ulps(_np_erf(v), np_erf(v)) <= 1

    def test_infinities_and_nan(self):
        got = _np_erf(np.array([np.inf, -np.inf, np.nan, 0.5]))
        np.testing.assert_array_equal(got[:2], [1.0, -1.0])
        assert np.isnan(got[2]) and got[3] == np_erf(0.5)

    def test_no_warning_on_huge_or_infinite_inputs(self):
        x = np.array([1e300, -1e300, np.inf, -np.inf, np.nan, 1e154, 0.25, -3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _np_erf(x)
        np.testing.assert_array_equal(got[:4], [1.0, -1.0, 1.0, -1.0])
        assert ulps(got[5:], np_erf(x[5:])).max() <= 1

    def test_within_two_ulp_of_mpmath(self):
        import mpmath
        x = np.concatenate([np.linspace(-7.0, 7.0, 14_001), np.geomspace(1e-300, 1.0, 600),
                            -np.geomspace(1e-12, 30.0, 400)])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.erf(mpmath.mpf(float(v)))) for v in x])
        assert ulps(_np_erf(x), want).max() <= 2


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(0.0)).item() == 0.0

    def test_limit_at_ten(self):
        assert abs(gelu(Tensor(10.0)).item() - 10.0) < 1e-9

    def test_phi_of_one_oracle(self):
        import mpmath
        expected = float(mpmath.mpf(1) * mpmath.ncdf(1))
        assert abs(gelu(Tensor(1.0)).item() - expected) < 1e-14

    @given(st.floats(-10, 10))
    def test_reflection_identity(self, x):
        # Phi(x) + Phi(-x) = 1, so gelu(x) - gelu(-x) = x
        got = gelu(Tensor(x)).item() - gelu(Tensor(-x)).item()
        assert got == pytest.approx(x, abs=1e-12)

    def test_monotone_on_positive_axis(self):
        xs = np.linspace(0.0, 20.0, 500)
        ys = gelu(Tensor(xs)).data
        assert np.all(np.diff(ys) > 0)

    def test_peak_memory_is_a_few_inputs(self):
        # An FFN-sized input with a sixth of its entries on erf's far branch.
        # The forward holds four input-sized arrays at most: the scaled input,
        # its clipped square, the result, and the clipped copy or a denominator.
        x = Tensor(np.random.default_rng(0).normal(size=(64, 43, 64)))
        tracemalloc.start()
        try:
            gelu(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * x.data.nbytes, peak / x.data.nbytes


class TestLayerNorm:
    def test_constant_row_goes_to_beta(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_gamma_zero_broadcasts_beta(self):
        x = Tensor(rand((3, 4), seed=1))
        beta = Tensor([1.0, -2.0, 0.5, 4.0])
        out = layer_norm(x, Tensor(np.zeros(4)), beta)
        np.testing.assert_allclose(out.data, np.tile(beta.data, (3, 1)), atol=1e-15)

    def test_hand_computed_row(self):
        # row [1,2,3]: mean 2, population variance 2/3
        out = layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        expected = [-math.sqrt(1.5), 0.0, math.sqrt(1.5)]
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_normalized_moments(self):
        x = Tensor(rand((6, 16), seed=2, scale=5.0))
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-9)

    def test_shift_invariance_and_scale_equivariance(self):
        gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
        x = rand((4, 8), seed=5)
        base = layer_norm(Tensor(x), gamma, beta).data
        shifted = layer_norm(Tensor(x + 11.5), gamma, beta).data
        scaled = layer_norm(Tensor(3.0 * x), gamma, beta).data
        np.testing.assert_allclose(shifted, base, atol=1e-9)
        np.testing.assert_allclose(scaled, base, atol=1e-9)


# A batch of two sequences (3 and 2 valid positions) for the attention cases.
TWO_LENGTHS = np.array([[True, True, True], [True, True, False]])


def attention_case(scheme, queries=None):
    """One-head attention on a as two length-3 sequences of width 2; b holds
    the Q, K and V projections (its rows), W^O and b^O (entries spread over
    all of b) and, for PRPE, both (3, 2) clip-1 banks (clip 1 < n = 3).
    "frpe" passes FRPE vectors as unclipped banks (5 rows, clip n-1),
    "frpe_rows" as the absolute rows P; ``queries`` computes only those rows
    of each sequence."""
    cfg = AttentionConfig(num_heads=1, d_model=2)

    def op(a, b):
        flat = b.reshape(-1)
        weights = HeadWeights(*(b.take_rows([i]).reshape(2, 2) for i in range(3)),
                              wo=flat.take_rows([9, 2, 7, 4]).reshape(2, 2),
                              bo=flat.take_rows([5, 10]))
        table = None
        if scheme == "frpe":
            bank = Tensor(frpe_vector(np.arange(-2, 3), 2))
            table = RelPositionTable(d_z=2, max_len=3, clip=2, bank_k=bank, bank_v=bank)
        elif scheme == "frpe_rows":
            table = build_rel_table(3, 2, Scheme.FRPE)
        elif scheme == "prpe":
            table = RelPositionTable(d_z=2, max_len=3, clip=1, bank_k=b.T.take_rows([0, 1]).T,
                                     bank_v=b.T.take_rows([2, 3]).T)
        return multi_head_attention(a.reshape(2, 3, 2), weights, cfg, table, mask=TWO_LENGTHS,
                                    queries=queries)
    return op


# Query rows of the two sequences: repeated positions and a padding slot at 0.
QUERY_ROWS = np.array([[0, 2, 2], [1, 0, 0]])


class TestAutodiffPrimitives:
    """Every differentiable op agrees with central differences at 1e-5."""

    CASES = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: sub(a, b),
        "mul": lambda a, b: a * b,
        "div": lambda a, b: div(a, b + 2.0),
        "matmul": lambda a, b: a @ b.T,
        "exp": lambda a, b: exp(a),
        "log": lambda a, b: log(a + 2.0),
        "tanh": lambda a, b: a.tanh(),
        "erf": lambda a, b: erf(a),
        "pow": lambda a, b: power(a + 2.0, 1.7),
        "sum_axis": lambda a, b: a.sum(axis=0),
        "reshape": lambda a, b: a.reshape(-1) * b.reshape(-1),
        "transpose": lambda a, b: a.T @ b,
        "mT": lambda a, b: a.reshape(3, 2, 2).mT * b.reshape(3, 2, 2),
        "slice": lambda a, b: a.reshape(-1).take_rows([4, 5, 8, 9]).reshape(2, 2) * 3.0,
        "take_rows": lambda a, b: a.take_rows([0, 2, 2, 1]),
        "take_rows_many": lambda a, b: a.take_rows([0, 2, 2, 1, 0, 1, 2, 2, 0, 1, 1, 2]),
        "softmax": lambda a, b: softmax(a, axis=-1) * b,
        "log_softmax": lambda a, b: log_softmax(a, axis=-1),
        "nll_loss": lambda a, b: nll_loss(a, [0, 2, 2], [0.5, 1.0, 2.0])[0],
        "gelu": lambda a, b: gelu(a),
        "layer_norm": lambda a, b: layer_norm(a, b.take_rows([0]).reshape(4),
                                              b.take_rows([1]).reshape(4)),
        "broadcast_row": lambda a, b: a * b.take_rows([0]).reshape(4),
        "mean": lambda a, b: mean(a, axis=1),
        "affine": lambda a, b: affine(a, b.T, b.reshape(-1).take_rows([0, 1, 2])),
        "affine_batched": lambda a, b: affine(a.reshape(3, 2, 2), b.take_rows([0, 1]),
                                              b.take_rows([2]).reshape(4)),
        "attention_none": attention_case("none"),
        "attention_frpe": attention_case("frpe"),
        "attention_prpe_clipped": attention_case("prpe"),
        "attention_none_queries": attention_case("none", QUERY_ROWS),
        "attention_frpe_rows_queries": attention_case("frpe_rows", QUERY_ROWS),
        "attention_prpe_clipped_queries": attention_case("prpe", QUERY_ROWS),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_finite_differences(self, name):
        op = self.CASES[name]
        a = Tensor(rand((3, 4), seed=10), requires_grad=True)
        b = Tensor(rand((3, 4), seed=11), requires_grad=True)

        def loss():
            out = op(a, b)
            return (out * out).sum() if out.data.size > 1 else out

        report = check_gradients(loss, {"a": a, "b": b}, step=1e-5)
        assert report.max_relative_error < 1e-5, (name, report.per_parameter)

    def test_repeated_use_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x
        y.backward()
        assert y.item() == 6.0
        assert x.grad == pytest.approx(5.0)

    @pytest.mark.parametrize("fn", [None, round_half], ids=["full", "round_half"])
    def test_gradients_never_share_memory(self, fn):
        a, b, c, d = (Tensor(rand((3, 4), seed=s), requires_grad=True)
                      for s in (1, 2, 3, 4))
        with value_filter(fn):
            s, t = a + b, d.T
            ((s * c).sum() + t.sum()).backward()
        grads = [a.grad, b.grad, c.grad, d.grad, s.grad, t.grad]
        for i, g in enumerate(grads):
            assert all(not np.shares_memory(g, h) for h in grads[i + 1:])
        assert all(p.grad.flags.writeable for p in (a, b, c, d))
        if fn is None:
            np.testing.assert_array_equal(a.grad, c.data)
            np.testing.assert_array_equal(b.grad, c.data)
            np.testing.assert_array_equal(c.grad, s.data)
            np.testing.assert_array_equal(d.grad, np.ones((3, 4)))

    def test_value_filter_applies_to_op_outputs(self):
        x = Tensor(1.0)
        with value_filter(lambda a: np.round(a)):
            out = x + 0.4
        assert out.item() == 1.0


# The composite formulas the fused ops replaced, built from single-op nodes
# (``oracle_ops``' exp, log, erf, sub, div and power; sum) that keep their own
# gradients.

def softmax_composite(x, axis=-1):
    e = exp(sub(x, x.data.max(axis=axis, keepdims=True)))
    return div(e, e.sum(axis=axis, keepdims=True))


def layer_norm_composite(x, gamma, beta, eps=1e-12):
    n = float(x.shape[-1])
    centered = sub(x, div(x.sum(axis=-1, keepdims=True), n))
    var = div((centered * centered).sum(axis=-1, keepdims=True), n)
    return div(centered, power(var + eps, 0.5)) * gamma + beta


def gelu_composite(x):
    return x * 0.5 * (erf(x * (1.0 / math.sqrt(2.0))) + 1.0)


def nll_composite(logits, labels, weights):
    # logp[i, labels[i]] as a flat gather
    rows = np.arange(len(labels)) * logits.shape[-1] + np.asarray(labels, dtype=np.intp)
    picked = log_softmax(logits).reshape(-1).take_rows(rows)
    return (picked * Tensor(-np.asarray(weights))).sum(), -picked.data


def affine_composite(x, w, b):
    return x @ w + b


def run_with_upstream(op, arrays, seed):
    """Output, per-input gradients and auxiliary outputs of ``op`` under a
    random upstream gradient."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out, *aux = op(*inputs)
    (out * Tensor(rand(out.shape, seed=seed))).sum().backward()
    return [out.data, *aux], [t.grad for t in inputs]


def nll_case(labels, weights):
    return (lambda x: nll_loss(x, labels, weights),
            lambda x: nll_composite(x, labels, weights))


def masked_scores():
    x = rand((2, 3, 5, 5), seed=20, scale=4.0)
    x[0, :, :, 3:] = MASK_FILL          # example 0 has 3 valid keys
    x[1, :, :, 4] = MASK_FILL
    return x


def single(op):
    return lambda *args: (op(*args),)


def layer_norm_inputs(seed, gamma, beta):
    return [rand((2, 5, 8), seed=seed, scale=3.0), gamma, beta]


FUSED_CASES = {
    "softmax-masked-rows": (single(softmax), single(softmax_composite), [masked_scores()]),
    "layer_norm-vector-affine": (
        single(layer_norm), single(layer_norm_composite),
        layer_norm_inputs(21, rand(8, seed=22) + 1.0, rand(8, seed=23))),
    "layer_norm-scalar-affine": (
        single(layer_norm), single(layer_norm_composite),
        layer_norm_inputs(24, np.array(1.3), np.array(-0.4))),
    "gelu": (single(gelu), single(gelu_composite),
             [np.concatenate([[0.0, 10.0, -10.0], rand(29, seed=25, scale=4.0)])]),
    "nll-repeated-labels-unequal-weights": (
        *nll_case([1, 3, 3, 0, 3, 1], [0.5, 0.25, 1.0, 0.0, 2.0, 0.125]),
        [rand((6, 5), seed=26, scale=5.0)]),
    "nll-no-rows": (*nll_case([], []), [np.zeros((0, 5))]),
    "affine-2d": (single(affine), single(affine_composite),
                  [rand((5, 4), seed=27), rand((4, 3), seed=28), rand(3, seed=29)]),
    "affine-batched": (single(affine), single(affine_composite),
                       [rand((2, 5, 4), seed=27), rand((4, 3), seed=28), rand(3, seed=29)]),
}


class TestFusedOpsMatchComposites:
    """Each fused node equals the composite it replaced: forward and every gradient."""

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_forward_and_gradients(self, name):
        fused, composite, arrays = FUSED_CASES[name]
        got_out, got_grads = run_with_upstream(fused, arrays, seed=30)
        want_out, want_grads = run_with_upstream(composite, arrays, seed=30)
        for got, want in zip(got_out, want_out, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for i, (got, want) in enumerate(zip(got_grads, want_grads, strict=True)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"input {i}")

    def test_gelu_sweep_across_the_erf_branch_switch(self):
        # the NumPy erf switches from its |z| <= 1 branch to 1 - erfc at |x| = sqrt(2)
        root2 = math.sqrt(2.0)
        edges = [root2, -root2, np.nextafter(root2, 2.0), -np.nextafter(root2, 2.0)]
        x = np.concatenate([np.linspace(-12.0, 12.0, 48_001), edges])
        got_out, got_grads = run_with_upstream(single(gelu), [x], seed=31)
        want_out, want_grads = run_with_upstream(single(gelu_composite), [x], seed=31)
        near = np.abs(x) <= root2
        assert near.sum() > 5_000 and (~near).sum() > 5_000
        np.testing.assert_array_equal(got_out[0][near], want_out[0][near])
        np.testing.assert_allclose(got_out[0][~near], want_out[0][~near], rtol=0, atol=1e-15)
        np.testing.assert_allclose(got_grads[0], want_grads[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["affine-2d", "affine-batched"])
    def test_affine_forward_is_bitwise(self, name):
        _, _, arrays = FUSED_CASES[name]
        x, w, b = map(Tensor, arrays)
        np.testing.assert_array_equal(affine(x, w, b).data, affine_composite(x, w, b).data)

    def test_masked_columns_get_zero_weight_and_gradient(self):
        x = Tensor(masked_scores(), requires_grad=True)
        y = softmax(x, axis=-1)
        (y * Tensor(rand(y.shape, seed=31))).sum().backward()
        assert np.all(y.data[0, :, :, 3:] == 0.0) and np.all(x.grad[0, :, :, 3:] == 0.0)

    def test_nll_rejects_nonfinite_logits(self):
        x = np.zeros((2, 3))
        x[1, 0] = np.inf
        with pytest.raises(ValueError, match=r"input is not finite at index \(1, 0\)"):
            nll_loss(Tensor(x), [0, 1], [1.0, 1.0])


class CountingFilter:
    """A value filter that records every array it is applied to."""

    def __init__(self, fn=np.copy):
        self.fn, self.seen = fn, []

    def __call__(self, a):
        self.seen.append(a.copy())
        return self.fn(a)


FUSED_FORWARDS = {
    "softmax": (softmax, [masked_scores()]),
    "layer_norm": (layer_norm, layer_norm_inputs(32, rand(8, seed=33) + 1.0, rand(8, seed=34))),
    "gelu": (gelu, [rand((4, 6), seed=35, scale=4.0)]),
    "nll_loss": (lambda x: nll_loss(x, [2, 0, 2], [0.5, 0.25, 1.0])[0],
                 [rand((3, 7), seed=36, scale=5.0)]),
    "affine": (affine, [rand((2, 5, 4), seed=37), rand((4, 6), seed=38), rand(6, seed=39)]),
    "attention": (lambda x, wq, wk, wv, wo, bo, r_k, r_v: multi_head_attention(
                      x, HeadWeights(wq, wk, wv, wo, bo), AttentionConfig(num_heads=2, d_model=4),
                      RelPositionTable(d_z=2, max_len=3, clip=2, bank_k=r_k, bank_v=r_v),
                      mask=TWO_LENGTHS),
                  [rand((2, 3, 4), seed=40, scale=2.0),
                   *(rand((4, 4), seed=s, scale=2.0) for s in (41, 42, 43, 47)),
                   rand(4, seed=48), rand((5, 2), seed=44), rand((5, 2), seed=45)]),
}


class TestFusedOpsUnderValueFilter:
    """A fused op is one primitive to the value filter: only its output is filtered."""

    @pytest.mark.parametrize("name", sorted(FUSED_FORWARDS))
    def test_filter_sees_only_the_output(self, name):
        op, arrays = FUSED_FORWARDS[name]
        exact = op(*map(Tensor, arrays)).data
        counter = CountingFilter()
        with value_filter(counter):
            out = op(*map(Tensor, arrays))
        assert len(counter.seen) == 1
        np.testing.assert_array_equal(counter.seen[0], exact)
        np.testing.assert_array_equal(out.data, exact)

    @pytest.mark.parametrize("name", sorted(FUSED_FORWARDS))
    def test_round_half_output_rounds_the_exact_result(self, name):
        op, arrays = FUSED_FORWARDS[name]
        arrays = [round_half(a) for a in arrays]      # binary16 inputs, as in a mixed step
        exact = op(*map(Tensor, arrays)).data
        counter = CountingFilter(round_half)
        with value_filter(counter):
            out = op(*(Tensor(a, requires_grad=True) for a in arrays))
        assert len(counter.seen) == 1
        np.testing.assert_array_equal(out.data, round_half(exact))

    @pytest.mark.parametrize("name", sorted(FUSED_FORWARDS))
    def test_filter_sees_each_input_gradient_once(self, name):
        op, arrays = FUSED_FORWARDS[name]
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        counter = CountingFilter()
        with value_filter(counter):
            out = op(*inputs)
            counter.seen.clear()
            out._backward(rand(out.shape, seed=46))
        assert len(counter.seen) == len(inputs)
        assert all(t.grad is not None for t in inputs)


class TestExactOpsSkipTheFilter:
    """Ops that only move or copy values never reach the value filter;
    every arithmetic result and every sum still does, once."""

    @staticmethod
    def leaf(shape=(3, 4), seed=50):
        return Tensor(round_half(rand(shape, seed=seed, scale=3.0)), requires_grad=True)

    @pytest.mark.parametrize("shape, op", [
        ((3, 4), lambda a: a.reshape(4, 3)),
        ((3, 4), lambda a: a.T),
        ((2, 2, 3), lambda a: a.mT),
    ], ids=["reshape", "T", "mT"])
    def test_outputs_and_gradients_are_not_filtered(self, shape, op):
        a = self.leaf(shape)
        with no_grad():
            want = op(Tensor(a.data)).data
        counter = CountingFilter()
        with value_filter(counter):
            out = op(a)
            g = round_half(rand(out.shape, seed=51))
            out._backward(g)
        assert counter.seen == []
        np.testing.assert_array_equal(out.data, want)
        assert a.grad is not None and not np.shares_memory(a.grad, g)

    def test_take_rows_gathers_exactly_and_rounds_its_scatter_once(self):
        a = self.leaf()
        counter = CountingFilter(round_half)
        with value_filter(counter):
            out = a.take_rows([2, 0])
            assert counter.seen == []
            g = round_half(rand(out.shape, seed=51))
            out._backward(g)
        np.testing.assert_array_equal(out.data, a.data[[2, 0]])
        assert len(counter.seen) == 1 and counter.seen[0].shape == a.shape
        want = np.zeros(a.shape)
        np.add.at(want, [2, 0], g)
        np.testing.assert_array_equal(a.grad, round_half(want))

    def test_add_hands_both_parents_unfiltered_copies(self):
        a, b = self.leaf(seed=52), self.leaf(seed=53)
        counter = CountingFilter()
        with value_filter(counter):
            out = a + b
            counter.seen.clear()
            out._backward(round_half(rand(out.shape, seed=54)))
        assert counter.seen == []
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_sums_over_broadcast_axes_are_filtered(self):
        a, row = self.leaf(seed=55), self.leaf(shape=(4,), seed=56)
        counter = CountingFilter(round_half)
        with value_filter(counter):
            out = a + row
            counter.seen.clear()
            out._backward(round_half(rand(out.shape, seed=57)))
        assert len(counter.seen) == 1 and counter.seen[0].shape == (4,)

    @pytest.mark.parametrize("op, rows", [
        (lambda a: a.reshape(12), [2]),           # a move's gradient, then a scatter
        (lambda a: a.take_rows([0, 1]), [2]),     # disjoint rows: still a sum
        (lambda a: a.take_rows([0, 1]), [1, 2]),
        (lambda a: a.take_rows([0, 0]), [2]),
    ], ids=["reshape", "disjoint-rows", "shared-rows", "repeated-rows"])
    def test_second_accumulation_is_rounded(self, op, rows):
        a = self.leaf()
        counter = CountingFilter(round_half)
        with value_filter(counter):
            x, y = op(a), a.take_rows(rows)
            x._backward(round_half(rand(x.shape, seed=58)))
            want = a.grad.copy()
            counter.seen.clear()
            g = round_half(rand(y.shape, seed=59))
            y._backward(g)
        assert len(counter.seen) == 1
        np.add.at(want, rows, g)
        np.testing.assert_array_equal(a.grad, round_half(want))

    @pytest.mark.parametrize("seed", [1.0, 1024.0, math.inf])
    def test_backward_seed_is_the_root_gradient(self, seed):
        a = self.leaf()
        counter = CountingFilter()
        with value_filter(counter):
            loss = nll_loss(a, [0, 3, 1], [1.0, 1.0, 1.0])[0]
            counter.seen.clear()
            neg(loss).backward(seed)
        assert len(counter.seen) == 1                 # the nll gradient, not the seed
        assert loss.grad == -seed


class TestScatterRows:
    """``take_rows``' gradient scatter is bitwise equal to ``np.add.at``, the oracle."""

    @pytest.mark.parametrize("k", [0, 1, 4, 9, 10, 11, 37, 200])
    def test_bitwise_equal_to_add_at(self, k):
        rng = np.random.default_rng(k)
        for _ in range(25):
            shape = (int(rng.integers(1, 12)),) + tuple(rng.integers(1, 4, rng.integers(0, 3)))
            idx = rng.integers(shape[0], size=(k,) if rng.random() < 0.5 else (2, k))
            g = rng.normal(size=idx.shape + shape[1:]) * 10.0 ** rng.integers(
                -12, 12, idx.shape + shape[1:])
            g[rng.random(g.shape) < 0.2] = -0.0
            want = np.zeros(shape)
            np.add.at(want, idx, g)
            got = _scatter_rows(g, idx, shape)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def take_queries_loop(a, queries):
    """Rows ``queries`` (..., r) of axis -2 of ``a``, one sequence at a time."""
    lead = queries.shape[:-1]
    out = np.empty(a.shape[:-2] + (queries.shape[-1], a.shape[-1]))
    for s in np.ndindex(*lead):
        out[s] = a[s][..., queries[s], :]
    return out


class TestTakeQueries:
    """``take_queries`` against a per-sequence loop, with and without a heads axis."""

    @pytest.mark.parametrize("lead, heads", [((), ()), ((1,), ()), ((1,), (3,)), ((4,), ()),
                                             ((4,), (2,)), ((2, 3), ()), ((2, 3), (2,))])
    def test_matches_a_per_sequence_loop(self, lead, heads):
        rng = np.random.default_rng(len(lead) + 7 * len(heads))
        n, m, r = 6, 5, 8                            # more query rows than positions
        a = rng.normal(size=lead + heads + (n, m))
        queries = rng.integers(0, n, lead + (r,))   # unsorted, with repeats
        queries[..., :2] = queries[..., 2:3]
        got = take_queries(a, queries)
        assert got.shape == lead + heads + (r, m)
        np.testing.assert_array_equal(got, take_queries_loop(a, queries))

    def test_keep_mask_rows_are_the_full_masks_rows(self):
        queries = np.array([[3, 0, 3], [5, 1, 2]])
        shape = (2, 2, 6, 6)                         # (B, H, n, n)
        full = keep_mask(np.random.default_rng(3), 0.3, shape)
        rows = keep_mask(np.random.default_rng(3), 0.3, (2, 2, 3, 6), queries, 6)
        np.testing.assert_array_equal(rows, take_queries_loop(full, queries))


class TestStackedMatmul:
    """Matmul gradients transpose only the matrix axes of stacked operands."""

    @pytest.mark.parametrize("b_shape", [(4, 5), (2, 4, 5)])
    def test_matches_finite_differences(self, b_shape):
        a = Tensor(rand((2, 3, 4), seed=12), requires_grad=True)
        b = Tensor(rand(b_shape, seed=13), requires_grad=True)

        def loss():
            out = a @ b
            return (out * out).sum()

        report = check_gradients(loss, {"a": a, "b": b}, step=1e-5)
        assert report.max_relative_error < 1e-5, report.per_parameter


def offset_rows(bank, n):
    """Row clip(j - i, -k, k) + k of a (2k+1, d_z) ``bank`` for every pair (i, j)."""
    clip = len(bank) // 2
    out = np.zeros((n, n, bank.shape[1]))
    for i in range(n):
        for j in range(n):
            out[i, j] = bank[min(max(j - i, -clip), clip) + clip]
    return out


class TestOffsetMaps:
    """PRPE's map from (query i, key j) pairs to bank rows clip(j - i, -k, k) + k,
    as the composite oracles read it, against the direct double loop: k < n-1
    (offsets share the edge rows), k = n-1 (none do) and k > n (rows no offset
    reaches)."""

    D_Z = 4

    @staticmethod
    def clips(n):
        return [k for k in (n - 2, n - 1, n + 1) if k >= 1]

    def table(self, n, clip):
        return build_rel_table(n, self.D_Z, Scheme.PRPE, rng_seed=n + clip, clip=clip)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_gather_matches_oracle(self, n):
        for clip in self.clips(n):
            table = self.table(n, clip)
            q = Tensor(rand((n, self.D_Z), seed=n), requires_grad=True)
            scores = attention_scores(q, Tensor(np.zeros((n, self.D_Z))), table)
            g = rand((n, n), seed=n + 1)
            (scores * Tensor(g)).sum().backward()
            rows, s = offset_rows(table.bank_k.data, n), 1.0 / math.sqrt(self.D_Z)
            want, dq = np.zeros((n, n)), np.zeros((n, self.D_Z))
            d_bank = np.zeros((2 * clip + 1, self.D_Z))
            for i in range(n):
                for j in range(n):
                    want[i, j] = q.data[i] @ rows[i, j] * s
                    dq[i] += g[i, j] * rows[i, j] * s
                    d_bank[min(max(j - i, -clip), clip) + clip] += g[i, j] * q.data[i] * s
            for got, expected in ((scores.data, want), (q.grad, dq), (table.bank_k.grad, d_bank)):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_scatter_matches_oracle(self, n):
        for clip in self.clips(n):
            table = self.table(n, clip)
            alpha = Tensor(rand((n, n), seed=n), requires_grad=True)
            out = attention_output(alpha, Tensor(np.zeros((n, self.D_Z))), table)
            g = rand((n, self.D_Z), seed=n + 1)
            (out * Tensor(g)).sum().backward()
            rows = offset_rows(table.bank_v.data, n)
            want, d_alpha = np.zeros((n, self.D_Z)), np.zeros((n, n))
            d_bank = np.zeros((2 * clip + 1, self.D_Z))
            for i in range(n):
                for j in range(n):
                    want[i] += alpha.data[i, j] * rows[i, j]
                    d_alpha[i, j] = g[i] @ rows[i, j]
                    d_bank[min(max(j - i, -clip), clip) + clip] += alpha.data[i, j] * g[i]
            for got, expected in ((out.data, want), (alpha.grad, d_alpha),
                                  (table.bank_v.grad, d_bank)):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_gradchecks(self, n):
        for clip in self.clips(n):
            table = self.table(n, clip)
            q, k, v = (Tensor(rand((n, self.D_Z), seed=n + i), requires_grad=True)
                       for i in range(3))
            alpha = Tensor(rand((n, n), seed=n + 3), requires_grad=True)

            def loss():
                scores = attention_scores(q, k, table)
                out = attention_output(alpha, v, table)
                return (scores * scores).sum() + (out * out).sum()

            report = check_gradients(loss, {"q": q, "k": k, "v": v, "alpha": alpha,
                                            **table.parameters()}, step=1e-5)
            assert report.max_relative_error < 1e-5, report.per_parameter

    def test_leading_axes_map_each_matrix(self):
        n, table = 5, self.table(5, 2)
        q, alpha = rand((2, 3, n, self.D_Z), seed=4), rand((2, 3, n, n), seed=5)
        scores = attention_scores(Tensor(q), Tensor(np.zeros(q.shape)), table).data
        out = attention_output(Tensor(alpha), Tensor(np.zeros(q.shape)), table).data
        for b in np.ndindex(2, 3):
            np.testing.assert_allclose(scores[b], attention_scores(
                Tensor(q[b]), Tensor(np.zeros((n, self.D_Z))), table).data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out[b], attention_output(
                Tensor(alpha[b]), Tensor(np.zeros((n, self.D_Z))), table).data, rtol=0, atol=1e-12)


class TestNoGrad:
    def test_results_record_no_graph(self):
        a = Tensor(rand((3, 4)), requires_grad=True)
        with no_grad():
            outs = [a + 1.0, a @ a.T, softmax(a), layer_norm(a, Tensor(1.0), Tensor(0.0)),
                    a.take_rows([2, 0]), (a * a).sum()]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
        # values are the same as with a graph
        np.testing.assert_array_equal(outs[1].data, (a @ a.T).data)

    def test_restores_on_exit_and_on_exceptions(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        out = (a * a).sum()
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(a.grad, [2.0, 4.0])

    def test_nests(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (a * 2.0).requires_grad
            assert not (a * 2.0).requires_grad   # the outer context still holds
        assert (a * 2.0).requires_grad


class TestCheckGradients:
    def test_only_the_analytic_pass_builds_a_graph(self):
        p = Tensor(rand(6, seed=9), requires_grad=True)
        graphs = []

        def loss():
            out = (p * p).sum()
            graphs.append(out.requires_grad)
            return out

        report = check_gradients(loss, {"p": p})
        assert report.max_relative_error < 1e-7
        # two determinism probes, then the analytic pass, then 4 per coordinate
        assert graphs == [False, False, True] + [False] * (4 * 6)

    def test_sum_of_squares(self):
        p = Tensor(rand(20, seed=7), requires_grad=True)
        report = check_gradients(lambda: (p * p).sum(), {"p": p})
        assert report.max_relative_error < 1e-7

    def test_constant_loss(self):
        p = Tensor(rand(5, seed=8), requires_grad=True)
        report = check_gradients(lambda: (p * 0.0).sum(), {"p": p})
        assert report.max_relative_error == 0.0

    def test_nondeterministic_loss_detected(self):
        p = Tensor([1.0], requires_grad=True)
        state = {"calls": 0}

        def loss():
            state["calls"] += 1
            return (p * float(state["calls"])).sum()

        with pytest.raises(NonDeterministicLossError):
            check_gradients(loss, {"p": p})

    def test_full_model_check_builds_its_batch_once(self, monkeypatch):
        # every forward of check_full_model runs one unchanged batch
        built, real = [], relpe.gradcheck.make_batch
        monkeypatch.setattr(relpe.gradcheck, "make_batch",
                            lambda examples, cfg: built.append(1) or real(examples, cfg))
        losses = []

        def probe(loss_fn, params, rng):
            losses.extend(loss_fn().item() for _ in range(3))
            return GradCheckReport(0.0, "")

        monkeypatch.setattr(relpe.gradcheck, "check_gradients", probe)
        check_full_model("frpe")
        assert len(built) == 1 and len(losses) == 3 and len(set(losses)) == 1

    def test_rejects_nonpositive_step(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            check_gradients(lambda: (p * p).sum(), {"p": p}, step=0.0)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_random_composite_gradients(seed):
    a = Tensor(rand((2, 3), seed=seed), requires_grad=True)
    b = Tensor(rand((3, 2), seed=seed + 1), requires_grad=True)

    def loss():
        h = gelu(a @ b)
        return (softmax(h, axis=-1) * h.tanh()).sum()

    report = check_gradients(loss, {"a": a, "b": b}, step=1e-5)
    assert report.max_relative_error < 1e-5
