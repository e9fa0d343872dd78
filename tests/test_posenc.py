import math

import numpy as np
import pytest

from relpe.attention import _pair_rows
from relpe.encoder import EncoderConfig, EncoderModel, make_batch, pretrain_loss
from relpe.optim import AdamOptimizer
from relpe.posenc import Scheme, build_rel_table, frpe_vector
from relpe.tensor import Tensor

from test_attention import frpe_oracle, rel_row
from test_optim import step_on_grads
from test_encoder import id_batch, mixed_batch

# Formula against oracle: the bound criterion 01 holds frpe_vector to against
# a 50-digit oracle for |offset| <= 512. numpy's vectorised power and sin/cos
# may round the angle differently from math, and that gap grows with |offset|.
FRPE_ATOL = 1e-12


class TestFrpeVector:
    def test_zero_offset(self):
        np.testing.assert_array_equal(frpe_vector(0, 4), [0.0, 1.0, 0.0, 1.0])

    def test_offset_one_matches_high_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 50
        got = frpe_vector(1, 2)
        assert abs(got[0] - float(mpmath.sin(1))) < 1e-15
        assert abs(got[1] - float(mpmath.cos(1))) < 1e-15

    @pytest.mark.parametrize("d_z", [2, 4, 16])
    def test_sign_symmetry(self, d_z):
        plus, minus = frpe_vector(5, d_z), frpe_vector(-5, d_z)
        np.testing.assert_allclose(minus[0::2], -plus[0::2], atol=1e-15)
        np.testing.assert_allclose(minus[1::2], plus[1::2], atol=1e-15)

    @pytest.mark.parametrize("d_z", [1, 3, 7])
    def test_odd_dimension_rejected(self, d_z):
        with pytest.raises(ValueError):
            frpe_vector(1, d_z)

    @pytest.mark.parametrize("d_z", [2, 8, 64])
    def test_squared_norm_is_half_dimension(self, d_z):
        for delta in (-511, -40, -1, 0, 1, 17, 511):
            v = frpe_vector(delta, d_z)
            assert abs((v * v).sum() - d_z / 2) < 1e-9
            assert np.all(np.abs(v) <= 1.0)

    @pytest.mark.parametrize("d_z", [2, 8, 64])
    def test_vector_is_bitwise_row_of_block(self, d_z):
        offsets = np.arange(-300, 301)
        block = frpe_vector(offsets, d_z)
        assert block.shape == (601, d_z)
        for row, delta in zip(block, offsets):
            np.testing.assert_array_equal(frpe_vector(int(delta), d_z), row)

    def test_component_is_sinusoid_of_offset(self):
        d_z = 8
        for delta in (-9, 3, 120):
            v = frpe_vector(delta, d_z)
            for k in range(d_z // 2):
                angle = delta / (10000.0 ** (2 * k / d_z))
                assert v[2 * k] == pytest.approx(math.sin(angle), abs=1e-15)
                assert v[2 * k + 1] == pytest.approx(math.cos(angle), abs=1e-15)

    def test_wavelengths_form_geometric_progression(self):
        # component pair k oscillates with period 2*pi*10000^(2k/d_z); near a
        # quarter period the sin component should be close to its peak.
        d_z = 4
        for k in (0, 1):
            period = 2 * math.pi * 10000.0 ** (2 * k / d_z)
            quarter = frpe_vector(round(period / 4), d_z)
            assert quarter[2 * k] > 0.8


class TestBuildRelTable:
    def test_single_position(self):
        table = build_rel_table(1, 4, Scheme.FRPE)
        assert table.rows.shape == (1, 4)
        np.testing.assert_array_equal(table.rows[0], frpe_vector(0, 4))

    def test_frpe_rows_match_direct_formula(self):
        table = build_rel_table(3, 4, Scheme.FRPE)
        assert table.rows.shape == (3, 4)
        for delta in range(-2, 3):       # negative offsets through the formula the rows use
            want = frpe_oracle(delta, 4)
            np.testing.assert_allclose(frpe_vector(delta, 4), want, rtol=0, atol=FRPE_ATOL)
            if delta >= 0:
                np.testing.assert_allclose(table.rows[delta], want, rtol=0, atol=FRPE_ATOL)

    @pytest.mark.parametrize("scheme", [Scheme.PAPE, Scheme.NONE])
    def test_wrong_constructor_rejected(self, scheme):
        with pytest.raises(ValueError):
            build_rel_table(8, 4, scheme)

    def test_frpe_registers_no_parameters(self):
        assert build_rel_table(8, 4, Scheme.FRPE).parameters() == {}

    def test_frpe_fixed_under_optimizer_steps(self):
        table = build_rel_table(8, 4, Scheme.FRPE)
        before = table.rows.copy()
        # the optimizer only ever sees registered parameters
        dummy = {"w": Tensor(np.ones(3), requires_grad=True), **table.parameters()}
        opt = AdamOptimizer(dummy, weight_decay=0.0)
        for _ in range(100):
            dummy["w"].grad = np.ones(3)
            step_on_grads(opt, 0.1)
        np.testing.assert_array_equal(table.rows, before)

    @pytest.mark.parametrize("scheme", [Scheme.FRPE, Scheme.PRPE])
    @pytest.mark.parametrize("n", [1, 3, 6])    # inside and past max_len
    def test_block_holds_one_row_per_offset(self, scheme, n):
        """FRPE's block row o is a_o; PRPE pairs (i, j) read a_{j-i} from the
        banks, and its tables have no block."""
        table = build_rel_table(3, 4, scheme, rng_seed=4, clip=2)
        if scheme is Scheme.FRPE:
            rows = table.block(n)
            assert rows.shape == (n, 4)
            for o in range(n):
                np.testing.assert_allclose(rows[o], rel_row(table, o, "K"),
                                           rtol=0, atol=FRPE_ATOL)
        else:
            with pytest.raises(ValueError, match="PRPE"):
                table.block(n)
            for role, bank in (("K", table.bank_k), ("V", table.bank_v)):
                pairs = _pair_rows(bank, n).data
                assert pairs.shape == (n, n, 4)
                for i, j in np.ndindex(n, n):
                    np.testing.assert_array_equal(pairs[i, j], rel_row(table, j - i, role))

    def test_prpe_has_separate_banks(self):
        table = build_rel_table(8, 4, Scheme.PRPE, rng_seed=3, clip=2)
        assert table.bank_k.shape == (5, 4)
        assert table.bank_v.shape == (5, 4)
        assert not np.array_equal(table.bank_k.data, table.bank_v.data)
        assert set(table.parameters()) == {"relpos.bank_k", "relpos.bank_v"}


class TestRelLookup:
    """Relative rows as attention reads them: FRPE's ``block(n)[j]`` is a_j, and
    PRPE's pair (i, j) reads bank row clip(j - i, -k, k) + k."""

    def test_identity_offset(self):
        table = build_rel_table(4, 6, Scheme.FRPE)
        np.testing.assert_array_equal(table.block(4)[0], [0, 1, 0, 1, 0, 1])

    def test_prpe_clipping(self):
        table = build_rel_table(16, 4, Scheme.PRPE, clip=2)
        for bank in (table.bank_k, table.bank_v):
            pairs = _pair_rows(bank, 10).data           # pair (i, j) has offset j - i
            np.testing.assert_array_equal(pairs[0, 7], pairs[0, 2])
            np.testing.assert_array_equal(pairs[9, 0], pairs[2, 0])
            np.testing.assert_array_equal(pairs[0, 2], bank.data[4])
            np.testing.assert_array_equal(pairs[9, 0], bank.data[0])

    def test_frpe_extrapolates_past_built_range(self):
        table = build_rel_table(32, 8, Scheme.FRPE)
        rows = table.rows.copy()
        got = table.block(64)[40]
        np.testing.assert_allclose(got, frpe_oracle(40, 8), rtol=0, atol=FRPE_ATOL)
        np.testing.assert_array_equal(got, frpe_vector(40, 8))
        assert table.max_len == 32
        np.testing.assert_array_equal(table.rows, rows)

    def test_rows_past_the_table_are_built_once_per_length(self, monkeypatch):
        import relpe.posenc
        table = build_rel_table(32, 8, Scheme.FRPE)
        rows = table.rows.copy()
        calls = []

        def counted(deltas, d_z):
            calls.append(np.size(deltas))
            return frpe_vector(deltas, d_z)

        monkeypatch.setattr(relpe.posenc, "frpe_vector", counted)
        for _ in range(2):                            # two passes, each over two layers
            for n in (64, 64, 40, 20, 64):
                got = table.block(n)
                np.testing.assert_array_equal(
                    got.view(np.uint64), frpe_vector(np.arange(n), 8).view(np.uint64))
        assert calls == [64]                          # n = 40 is a slice of the n = 64 rows
        table.block(80)
        assert calls == [64, 80]
        np.testing.assert_array_equal(table.rows, rows)

    def test_lookup_depends_on_offset_only(self):
        # the table's rows (n <= max_len) and the wide rows (n > max_len)
        # agree on every offset they share
        table = build_rel_table(32, 8, Scheme.FRPE)
        long = table.block(40)
        for n in (1, 5, 32):
            np.testing.assert_array_equal(table.block(n), long[:n])


class TestAbsTable:
    """PAPE's learned rows, ``abspos.table``, as the encoder adds them."""

    @staticmethod
    def model(seed=0, max_seq_len=8):
        cfg = EncoderConfig(vocab_size=16, d_model=8, num_layers=1, num_heads=2,
                            max_seq_len=max_seq_len, scheme=Scheme.PAPE)
        return EncoderModel(cfg, seed=seed)

    def test_row_zero(self):
        model = self.model(seed=1)
        params = model.parameters()
        table = params["abspos.table"]
        assert table.shape == (8, 8)
        tokens, segments = [5, 6, 7], [0, 0, 1]
        x = (params["embed.token"].data[tokens] + params["embed.segment"].data[segments]
             + table.data[:3])
        x = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True)
                                                         + 1e-12)
        np.testing.assert_allclose(model.embed_inputs(id_batch(model.cfg, tokens, segments))
                                   .data[0], x, rtol=0, atol=1e-12)

    def test_boundary_is_an_error(self):
        # make_batch, which builds every batch the model runs, refuses the length
        model = self.model(max_seq_len=4)
        model.embed_inputs(id_batch(model.cfg, [[1] * 4] * 2, [[0] * 4] * 2))
        with pytest.raises(IndexError, match="batch example 0 has length 5, .*max_seq_len=4"):
            id_batch(model.cfg, [[1] * 5] * 2, [[0] * 5] * 2)

    def test_gradient_step_touches_only_used_row(self):
        model = self.model(seed=2)
        table = model.parameters()["abspos.table"]
        before = table.data.copy()
        x = model.embed_inputs(id_batch(model.cfg, [5, 9, 3], [0, 0, 1]))
        (x * x * Tensor(np.arange(8.0))).sum().backward()
        step_on_grads(AdamOptimizer({"abspos.table": table}, weight_decay=0.0), 0.01)
        assert np.all(np.any(table.data[:3] != before[:3], axis=1))
        np.testing.assert_array_equal(table.data[3:], before[3:])

    def test_rows_past_batch_length_get_zero_gradient(self):
        model = self.model(seed=3, max_seq_len=16)
        batch = mixed_batch(vocab_size=16)                 # longest example: 9 tokens
        loss, _ = pretrain_loss(model.pretrain_forward(make_batch(batch, model.cfg)))
        loss.backward()
        grad = model.parameters()["abspos.table"].grad
        assert np.all(np.any(grad[:9] != 0, axis=1))
        np.testing.assert_array_equal(grad[9:], 0.0)
