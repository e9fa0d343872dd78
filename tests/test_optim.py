import math
from dataclasses import dataclass

import numpy as np
import pytest

from relpe.optim import (BETA1, BETA2, EPS, HALF_MAX, AdamOptimizer, LambOptimizer,
                         LrSchedule, NonFiniteGradientError, OptimizerState,
                         PrecisionPolicy, default_exclusion, lr_at_step, make_optimizer,
                         round_half, training_step)
from relpe.tensor import Tensor

from oracle_ops import power, sub


def step_on_grads(opt, lr, grads=None):
    """``opt.step(lr)`` on each parameter's ``grad``, or on ``grads[name]`` when
    given, gathered into the flat ``g`` as ``training_step`` gathers them."""
    opt.gather(p.grad if grads is None else grads[name] for name, p in opt.params.items())
    opt.step(lr)


def _round_half_oracle(x):
    """Binary16 rounding by frexp/ldexp, independent of numpy's float16 cast.

    Rounds |x| to a multiple of its binary16 ulp with ties to even; overflow
    goes to signed infinity, and zeros, infinities and NaN pass through.
    """
    out = np.array(x, dtype=np.float64)
    finite = np.isfinite(out) & (out != 0.0)
    a = np.abs(out[finite])
    _, e = np.frexp(a)
    # Normal binade ulp is 2^(e-11); subnormal ulp bottoms out at 2^-24.
    ulp = np.ldexp(1.0, np.maximum(e - 11, -24))
    v = np.rint(a / ulp) * ulp
    v[v > HALF_MAX] = np.inf
    out[finite] = np.copysign(v, out[finite])
    return out


def _binary16_edge_cases():
    """Every finite binary16 value, every midpoint between neighbours and the
    float64 neighbours of each midpoint, plus the special values."""
    halves = np.arange(2 ** 16, dtype=np.uint16).view(np.float16).astype(np.float64)
    grid = np.unique(halves[np.isfinite(halves)])
    mid = 0.5 * (grid[:-1] + grid[1:])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, HALF_MAX, 65520.0,
               np.nextafter(65520.0, 0.0), 2.0 ** -25, 1.5 * 2.0 ** -25]
    x = np.concatenate([halves, mid, np.nextafter(mid, -np.inf),
                        np.nextafter(mid, np.inf), special])
    return np.concatenate([x, -x])


class TestRoundHalf:
    def test_bitwise_equal_to_frexp_oracle(self):
        rng = np.random.default_rng(5)
        random_bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        x = np.concatenate([_binary16_edge_cases(), random_bits.view(np.float64)])
        got, want = round_half(x), _round_half_oracle(x)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                      want[~nan].view(np.uint64))

    def test_matches_float16_cast_on_random_values(self):
        rng = np.random.default_rng(0)
        for scale in (1e-6, 1e-3, 1.0, 1e2, 6e4):
            x = rng.normal(0.0, scale, 2000)
            got = round_half(x)
            with np.errstate(over="ignore"):
                expected = np.float16(x).astype(np.float64)
            np.testing.assert_array_equal(got, expected)

    def test_matches_float16_cast_on_subnormals(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, 2000) * 2.0 ** -14
        np.testing.assert_array_equal(round_half(x),
                                      np.float16(x).astype(np.float64))

    def test_tie_to_even(self):
        # ulp is 2 in [2048, 4096): 2049 ties down to 2048, 2051 ties up to 2052
        assert round_half(2049.0) == 2048.0
        assert round_half(2051.0) == 2052.0

    def test_overflow_to_infinity(self):
        assert round_half(65520.0) == np.inf
        assert round_half(-65520.0) == -np.inf
        assert round_half(HALF_MAX) == HALF_MAX
        assert round_half(1e300) == np.inf

    def test_nan_and_infinity_pass_through(self):
        assert np.isnan(round_half(np.nan))
        assert round_half(np.inf) == np.inf
        assert round_half(-np.inf) == -np.inf

    def test_signed_zero_and_tiny_values(self):
        assert round_half(0.0) == 0.0
        assert np.signbit(round_half(-0.0))
        assert round_half(2.0 ** -25) == 0.0          # half of smallest subnormal
        assert round_half(1.5 * 2.0 ** -25) == 2.0 ** -24

    def test_idempotent(self):
        x = np.random.default_rng(2).normal(0.0, 10.0, 500)
        once = round_half(x)
        np.testing.assert_array_equal(round_half(once), once)

    def test_scalar_in_scalar_out(self):
        out = round_half(1.0001)
        assert isinstance(out, float)
        assert out == np.float64(np.float16(1.0001))


class TestExclusionList:
    @pytest.mark.parametrize("name", ["embed.ln.gamma", "layer0.ln2.beta",
                                      "mlm.output_bias", "layer1.ffn.b1",
                                      "layer0.attn.bo", "pooler.b"])
    def test_excluded(self, name):
        assert default_exclusion(name)

    @pytest.mark.parametrize("name", ["embed.token", "layer0.attn.wq",
                                      "relpos.bank_k", "relpos.bank_v",
                                      "mlm.dense.w", "abspos.table"])
    def test_included(self, name):
        assert not default_exclusion(name)


class TestLrSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule(warmup_steps=0, total_steps=10)
        with pytest.raises(ValueError):
            LrSchedule(warmup_steps=10, total_steps=10)

    def test_linear_warmup(self):
        s = LrSchedule(lr_max=2.0, warmup_steps=10, total_steps=100)
        assert lr_at_step(s, 0) == 0.0
        assert lr_at_step(s, 5) == pytest.approx(1.0)
        assert lr_at_step(s, 10) == pytest.approx(2.0)

    def test_linear_decay(self):
        s = LrSchedule(lr_max=2.0, warmup_steps=10, total_steps=100)
        assert lr_at_step(s, 55) == pytest.approx(1.0)
        assert lr_at_step(s, 100) == 0.0
        assert lr_at_step(s, 101) == 0.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at_step(LrSchedule(), -1)


def reference_moment_updates(grads, beta1, beta2, eps):
    """Brute-force Adam moment recursion for one parameter over many steps."""
    m = np.zeros_like(grads[0])
    v = np.zeros_like(grads[0])
    rs = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        rs.append(m_hat / (np.sqrt(v_hat) + eps))
    return rs


class TestOptimizers:
    def test_lamb_first_step_hand_computed(self):
        # unit weights, unit gradient: u = 1/(1+eps) in every coordinate and
        # the trust ratio ||w||/||u|| = 1+eps cancels it, so w' = 1 - lr exactly
        p = Tensor(np.ones(4), requires_grad=True)
        p.grad = np.ones(4)
        step_on_grads(LambOptimizer({"w": p}, weight_decay=0.0), 0.1)
        np.testing.assert_allclose(p.data, 0.9, rtol=1e-14)

    def test_trust_ratio_rescales_adam_update(self):
        rng = np.random.default_rng(3)
        w0 = rng.normal(0.0, 2.0, 6)
        g = rng.normal(size=6)

        adam_p = Tensor(w0.copy(), requires_grad=True)
        adam_p.grad = g.copy()
        step_on_grads(AdamOptimizer({"w": adam_p}, weight_decay=0.01), 0.1)
        adam_update = w0 - adam_p.data
        # bias correction makes the first moments m_hat = g and v_hat = g^2
        np.testing.assert_allclose(adam_update, 0.1 * (g / (np.abs(g) + EPS) + 0.01 * w0),
                                   rtol=1e-12, atol=0)

        lamb_p = Tensor(w0.copy(), requires_grad=True)
        lamb_p.grad = g.copy()
        step_on_grads(LambOptimizer({"w": lamb_p}, weight_decay=0.01), 0.1)
        lamb_update = w0 - lamb_p.data

        u = adam_update / 0.1
        trust = np.linalg.norm(w0) / np.linalg.norm(u)
        np.testing.assert_allclose(lamb_update, trust * adam_update, atol=1e-12)

    def test_moment_recursion_matches_brute_force(self):
        rng = np.random.default_rng(4)
        grads = [rng.normal(size=5) for _ in range(10)]
        p = Tensor(np.zeros(5), requires_grad=True)
        opt = AdamOptimizer({"w": p}, weight_decay=0.0)
        w = np.zeros(5)
        for r in reference_moment_updates(grads, 0.9, 0.999, 1e-6):
            w = w - 0.01 * r
        for g in grads:
            step_on_grads(opt, 0.01, grads={"w": g})
        np.testing.assert_allclose(p.data, w, atol=1e-14)

    def test_trust_ratio_is_one_for_zero_norms(self):
        # fresh zero weights: w_norm = 0, so the update falls back to plain Adam
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.ones(3)
        q = Tensor(np.zeros(3), requires_grad=True)
        q.grad = np.ones(3)
        step_on_grads(LambOptimizer({"w": p}, weight_decay=0.0), 0.1)
        step_on_grads(AdamOptimizer({"w": q}, weight_decay=0.0), 0.1)
        np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_allclose(p.data, -0.1 / (1.0 + EPS), rtol=1e-15, atol=0)

    def test_exclusion_skips_decay_and_trust(self):
        gamma = Tensor(np.full(4, 2.0), requires_grad=True)
        gamma.grad = np.zeros(4)
        w = Tensor(np.full(4, 2.0), requires_grad=True)
        w.grad = np.zeros(4)
        step_on_grads(LambOptimizer({"ln.gamma": gamma, "dense.w": w}, weight_decay=0.5), 0.1)
        np.testing.assert_array_equal(gamma.data, 2.0)      # no decay applied
        assert np.all(w.data < 2.0)                          # decayed

    def test_step_counter_advances_once_per_call(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        opt = AdamOptimizer({"p": p, "q": q})
        p.grad = np.ones(2)
        q.grad = np.ones(2)
        step_on_grads(opt, 0.01)
        assert opt.state.step == 1

    def test_nonfinite_gradient_raises(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(NonFiniteGradientError, match="'w'"):
            step_on_grads(AdamOptimizer({"w": p}), 0.01)

    def test_make_optimizer(self):
        params = {"w": Tensor(np.ones(2), requires_grad=True)}
        assert isinstance(make_optimizer("lamb", params), LambOptimizer)
        assert isinstance(make_optimizer("adam", params), AdamOptimizer)
        with pytest.raises(ValueError):
            make_optimizer("sgd", params)

    @pytest.mark.parametrize("kind", ["adam", "lamb"])
    def test_quadratic_convergence(self, kind):
        target = np.array([1.5, -2.0, 0.5, 3.0])
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = make_optimizer(kind, {"w": p}, weight_decay=0.0)
        # decay the rate so the layer-wise update (proportional to ||w|| for
        # trust scaling) stops oscillating around the optimum
        for t in range(400):
            p.zero_grad()
            power(sub(p, target), 2.0).sum().backward()
            step_on_grads(opt, 0.05 * (1.0 - t / 400.0))
        np.testing.assert_allclose(p.data, target, atol=5e-3)


@dataclass
class _OracleState(OptimizerState):
    """The optimizer state plus the weight decay the per-block oracle reads."""
    weight_decay: float = 0.01


def _per_block_step(st: OptimizerState, data: dict, grads: dict, lr: float,
                    trust_scaling: bool) -> dict:
    """The optimizer update as a loop over blocks, on plain arrays.

    ``data`` maps names to weights and ``grads`` to gradients (None for no
    gradient); returns the new weights and advances ``st`` in place.
    """
    st.step += 1
    t = st.step
    out = {}
    for name, w in data.items():
        g = grads[name]
        if g is None:
            g = np.zeros_like(w)
        g = np.asarray(g, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in block {name!r}")
        if name not in st.m:
            st.m[name] = np.zeros_like(w)
            st.v[name] = np.zeros_like(w)
        st.m[name] = BETA1 * st.m[name] + (1.0 - BETA1) * g
        st.v[name] = BETA2 * st.v[name] + (1.0 - BETA2) * g * g
        m_hat = st.m[name] / (1.0 - BETA1 ** t)
        v_hat = st.v[name] / (1.0 - BETA2 ** t)
        r = m_hat / (np.sqrt(v_hat) + EPS)
        excluded = default_exclusion(name)
        decay = 0.0 if excluded else st.weight_decay
        u = r + decay * w
        scale = lr
        if trust_scaling and not excluded:
            w_norm = float(np.linalg.norm(w))
            u_norm = float(np.linalg.norm(u))
            trust = w_norm / u_norm if w_norm > 0.0 and u_norm > 0.0 else 1.0
            scale = lr * trust
        out[name] = w - scale * u
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestFlatUpdateMatchesPerBlockLoop:
    """The in-place update over flat buffers equals the per-block loop bit for bit."""

    SHAPES = {"embed.token": (7, 4), "embed.ln.gamma": (4,), "embed.ln.beta": (4,),
              "layer0.attn.wq": (4, 4), "layer0.attn.bo": (4,), "relpos.bank_k": (5, 2),
              "layer0.ffn.w1": (4, 3, 2), "zero.w": (3, 2), "mlm.output_bias": (7,),
              "unused.w": (2, 2), "pooler.w": (1,)}

    def init(self, seed=0, shapes=None):
        rng = np.random.default_rng(seed)
        data = {name: rng.normal(0.0, 1.0, shape)
                for name, shape in (shapes or self.SHAPES).items()}
        if "zero.w" in data:
            data["zero.w"][...] = 0.0          # zero weight norm: trust ratio falls back to 1
        return data

    def grads(self, data, step, seed=1):
        rng = np.random.default_rng([seed, step])
        grads = {name: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), w.shape)
                 for name, w in data.items()}
        if "unused.w" in grads:
            grads["unused.w"] = None           # no gradient reached this block
        if "zero.w" in grads and step == 1:
            grads["zero.w"][...] = 0.0         # zero update norm on the first step
        return grads

    def assert_same(self, params, data, opt, st):
        assert opt.state.step == st.step
        assert opt.state.m.keys() == st.m.keys() and opt.state.v.keys() == st.v.keys()
        for name, w in data.items():
            np.testing.assert_array_equal(_bits(params[name].data), _bits(w), err_msg=name)
        for name in st.m:
            np.testing.assert_array_equal(_bits(opt.state.m[name]), _bits(st.m[name]), err_msg=name)
            np.testing.assert_array_equal(_bits(opt.state.v[name]), _bits(st.v[name]), err_msg=name)

    @pytest.mark.parametrize("exclusion", [True, False], ids=["exclusion", "no-exclusion"])
    @pytest.mark.parametrize("via", ["p.grad", "grads="])
    @pytest.mark.parametrize("kind", ["lamb", "adam"])
    def test_matches_over_steps(self, kind, via, exclusion):
        # ``via`` is what gather reads: each parameter's grad, as training_step
        # hands them over, or a separate name -> array dict
        # without exclusion: a parameter set with no norm or bias block, so
        # every block is decayed and (under LAMB) trust-scaled
        data = self.init(shapes=None if exclusion else {
            name: shape for name, shape in self.SHAPES.items() if not default_exclusion(name)})
        params = {name: Tensor(w.copy(), requires_grad=True) for name, w in data.items()}
        opt = make_optimizer(kind, params, weight_decay=0.01)
        st = _OracleState(weight_decay=0.01)
        for t in range(1, 7):
            grads = self.grads(data, t)
            lr = 0.01 * t
            if via == "grads=":
                step_on_grads(opt, lr, grads={k: None if g is None else g.copy()
                                              for k, g in grads.items()})
            else:
                for name, p in params.items():
                    p.grad = grads[name]
                step_on_grads(opt, lr)
            data = _per_block_step(st, data, grads, lr, kind == "lamb")
            self.assert_same(params, data, opt, st)

    @pytest.mark.parametrize("warm", [0, 2])
    def test_nonfinite_middle_block_leaves_everything_untouched(self, warm):
        data = self.init()
        params = {name: Tensor(w.copy(), requires_grad=True) for name, w in data.items()}
        opt = LambOptimizer(params)
        for t in range(1, warm + 1):
            step_on_grads(opt, 0.01, grads=self.grads(data, t))
        before = {name: p.data.copy() for name, p in params.items()}
        moments = {name: (m.copy(), opt.state.v[name].copy())
                   for name, m in opt.state.m.items()}
        grads = self.grads(data, warm + 1)
        grads["layer0.attn.wq"][1, 2] = np.nan          # a middle block
        grads["mlm.output_bias"][0] = np.inf            # a later one
        with pytest.raises(NonFiniteGradientError, match="'layer0.attn.wq'"):
            step_on_grads(opt, 0.01, grads=grads)
        assert opt.state.step == warm
        assert opt.state.m.keys() == moments.keys()
        for name, p in params.items():
            np.testing.assert_array_equal(_bits(p.data), _bits(before[name]))
        for name, (m, v) in moments.items():
            np.testing.assert_array_equal(_bits(opt.state.m[name]), _bits(m))
            np.testing.assert_array_equal(_bits(opt.state.v[name]), _bits(v))


class TestPrecisionPolicy:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(mode="bf16")

    @pytest.mark.parametrize("scale", [0.5, 3.0, 1000.0, math.inf, math.nan, 1.5e308])
    def test_loss_scale_must_be_power_of_two(self, scale):
        with pytest.raises(ValueError):
            PrecisionPolicy(mode="mixed_emulated", loss_scale=scale)

    def test_mixed_loss_scale_must_be_a_binary16_value(self):
        # a larger power of two seeds the backward with inf, which would skip
        # every step; full mode never reads the scale
        with pytest.raises(ValueError, match=r"^loss_scale=65536\.0 must be <= 32768 "):
            PrecisionPolicy(mode="mixed_emulated", loss_scale=65536.0)
        assert PrecisionPolicy(mode="full", loss_scale=65536.0).loss_scale == 65536.0
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = AdamOptimizer({"w": p}, weight_decay=0.0)
        policy = PrecisionPolicy(mode="mixed_emulated", loss_scale=32768.0)
        _, skipped = training_step(policy, self.quadratic(p, np.full(1, 0.25)), opt, lr=0.1)
        assert not skipped and opt.state.step == 1 and p.data[0] > 0.0

    def quadratic(self, p, target):
        def loss_fn():
            loss = power(sub(p, target), 2.0).sum()
            return loss, {"loss": loss.item()}
        return loss_fn

    def test_full_mode_matches_manual_step(self):
        target = np.array([1.0, 2.0])
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        policy = PrecisionPolicy(mode="full")
        metrics, skipped = training_step(policy, self.quadratic(p, target),
                                         AdamOptimizer({"w": p}, weight_decay=0.0), lr=0.1)
        assert not skipped and metrics["loss"] == pytest.approx(5.0)
        q.grad = 2.0 * (q.data - target)
        step_on_grads(AdamOptimizer({"w": q}, weight_decay=0.0), 0.1)
        np.testing.assert_array_equal(p.data, q.data)

    def test_mixed_mode_rounds_working_weights(self):
        p = Tensor(np.array([1.0001, 2.0]), requires_grad=True)
        seen = {}

        def loss_fn():
            seen["working"] = p.data.copy()
            loss = (p * p).sum()
            return loss, {"loss": loss.item()}

        policy = PrecisionPolicy(mode="mixed_emulated", loss_scale=64.0)
        training_step(policy, loss_fn, AdamOptimizer({"w": p}, weight_decay=0.0), lr=0.0)
        np.testing.assert_array_equal(seen["working"],
                                      round_half([1.0001, 2.0]))
        # masters restored at full precision (lr=0 means no update)
        np.testing.assert_array_equal(p.data, [1.0001, 2.0])

    def test_mixed_mode_close_to_full_on_well_scaled_problem(self):
        target = np.array([0.5, -0.25, 0.75])
        full = Tensor(np.zeros(3), requires_grad=True)
        mixed = Tensor(np.zeros(3), requires_grad=True)
        opt_f = AdamOptimizer({"w": full}, weight_decay=0.0)
        opt_m = AdamOptimizer({"w": mixed}, weight_decay=0.0)
        for _ in range(50):
            training_step(PrecisionPolicy(mode="full"),
                          self.quadratic(full, target), opt_f, lr=0.02)
            training_step(PrecisionPolicy(mode="mixed_emulated", loss_scale=1024.0),
                          self.quadratic(mixed, target), opt_m, lr=0.02)
        np.testing.assert_allclose(mixed.data, full.data, atol=0.02)

    def test_overflow_skips_update_and_moments(self):
        p = Tensor(np.array([300.0]), requires_grad=True)  # 300^2 overflows binary16
        opt = AdamOptimizer({"w": p}, weight_decay=0.0)
        policy = PrecisionPolicy(mode="mixed_emulated", loss_scale=1024.0)
        metrics, skipped = training_step(policy, self.quadratic(p, np.zeros(1)), opt, lr=0.1)
        assert skipped
        np.testing.assert_array_equal(p.data, [300.0])
        assert opt.state.step == 0
        assert not opt.state.m["w"].any() and not opt.state.v["w"].any()

    def test_gradients_are_unscaled_before_update(self):
        # one step of mixed precision on a linear loss: the update must not
        # depend on the loss scale
        results = []
        for scale in (1.0, 4096.0):
            p = Tensor(np.array([1.0]), requires_grad=True)

            def loss_fn():
                loss = (p * 3.0).sum()
                return loss, {}

            training_step(PrecisionPolicy(mode="mixed_emulated", loss_scale=scale),
                          loss_fn, AdamOptimizer({"w": p}, weight_decay=0.0), lr=0.01)
            results.append(p.data.copy())
        np.testing.assert_allclose(results[0], results[1], atol=1e-12)
