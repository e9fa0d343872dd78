import math

import numpy as np
import pytest

from relpe.optim import AdamOptimizer
from relpe.posenc import (AbsPositionTable, Scheme, _frpe_block, build_abs_table,
                          build_rel_table, frpe_vector, pape_lookup, rel_lookup)
from relpe.tensor import Tensor


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
        block = _frpe_block(offsets, d_z)
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
        assert table.rows.shape == (5, 4)
        for delta in range(-2, 3):
            np.testing.assert_allclose(rel_lookup(table, 0, delta),
                                       frpe_vector(delta, 4), atol=0)

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
        opt = AdamOptimizer(weight_decay=0.0)
        for _ in range(100):
            dummy["w"].grad = np.ones(3)
            opt.step(dummy, lr=0.1)
        np.testing.assert_array_equal(table.rows, before)

    @pytest.mark.parametrize("scheme", [Scheme.FRPE, Scheme.PRPE])
    @pytest.mark.parametrize("n", [1, 3, 6])    # inside and past max_len
    def test_block_holds_one_row_per_offset(self, scheme, n):
        table = build_rel_table(3, 4, scheme, rng_seed=4, clip=2)
        for role in ("K", "V"):
            rows = table.block(n, role).data
            assert rows.shape == (2 * n - 1, 4)
            for o in range(2 * n - 1):
                np.testing.assert_array_equal(rows[o], table.row(o - (n - 1), role))

    def test_prpe_has_separate_banks(self):
        table = build_rel_table(8, 4, Scheme.PRPE, rng_seed=3, clip=2)
        assert table.bank_k.shape == (5, 4)
        assert table.bank_v.shape == (5, 4)
        assert not np.array_equal(table.bank_k.data, table.bank_v.data)
        assert set(table.parameters()) == {"relpos.bank_k", "relpos.bank_v"}


class TestRelLookup:
    def test_identity_offset(self):
        table = build_rel_table(4, 6, Scheme.FRPE)
        np.testing.assert_array_equal(rel_lookup(table, 2, 2), [0, 1, 0, 1, 0, 1])

    def test_prpe_clipping(self):
        table = build_rel_table(16, 4, Scheme.PRPE, clip=2)
        np.testing.assert_array_equal(rel_lookup(table, 0, 7), rel_lookup(table, 0, 2))
        np.testing.assert_array_equal(rel_lookup(table, 9, 0), rel_lookup(table, 2, 0))

    def test_frpe_extrapolates_past_built_range(self):
        table = build_rel_table(32, 8, Scheme.FRPE)
        rows = table.rows.copy()
        got = rel_lookup(table, 0, 40)
        np.testing.assert_allclose(got, frpe_vector(40, 8), atol=0)
        table.block(64)
        assert table.max_len == 32
        np.testing.assert_array_equal(table.rows, rows)

    def test_lookup_depends_on_offset_only(self):
        table = build_rel_table(32, 8, Scheme.FRPE)
        for shift in (1, 5, 11):
            np.testing.assert_array_equal(rel_lookup(table, 3, 9),
                                          rel_lookup(table, 3 + shift, 9 + shift))

    def test_bad_role_rejected(self):
        table = build_rel_table(4, 4, Scheme.FRPE)
        with pytest.raises(ValueError):
            rel_lookup(table, 0, 1, role="Q")


class TestAbsTable:
    def test_row_zero(self):
        table = build_abs_table(8, 4, rng_seed=1)
        np.testing.assert_array_equal(pape_lookup(table, 0).data, table.table.data[0])

    def test_boundary_is_an_error(self):
        table = build_abs_table(8, 4)
        with pytest.raises(IndexError):
            pape_lookup(table, 8)

    def test_gradient_step_touches_only_used_row(self):
        table = build_abs_table(8, 4, rng_seed=2)
        before = table.table.data.copy()
        loss = (pape_lookup(table, 3) * pape_lookup(table, 3)).sum()
        loss.backward()
        opt = AdamOptimizer(weight_decay=0.0)
        opt.step(table.parameters(), lr=0.01)
        after = table.table.data
        assert not np.array_equal(after[3], before[3])
        mask = np.ones(8, dtype=bool)
        mask[3] = False
        np.testing.assert_array_equal(after[mask], before[mask])
