"""Tests for the reliability model: the Section 3 calibration targets."""

import numpy as np
import pytest

from repro.nand.geometry import BlockGeometry
from repro.nand.reliability import (
    AgingState,
    RATED_PE_CYCLES,
    ReliabilityModel,
    hash_unit,
)


class TestAgingState:
    def test_fractions(self):
        aging = AgingState(1000, 6.0)
        assert aging.pe_frac == pytest.approx(1000 / RATED_PE_CYCLES)
        assert aging.ret_frac == pytest.approx(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AgingState(-1, 0)
        with pytest.raises(ValueError):
            AgingState(0, -0.1)


class TestHashUnit:
    def test_deterministic(self):
        assert hash_unit(1, 2, 3) == hash_unit(1, 2, 3)

    def test_range(self):
        values = [hash_unit(0, i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_sensitivity_to_every_key(self):
        base = hash_unit(5, 1, 2, 3)
        assert hash_unit(6, 1, 2, 3) != base
        assert hash_unit(5, 2, 2, 3) != base
        assert hash_unit(5, 1, 3, 3) != base
        assert hash_unit(5, 1, 2, 4) != base

    def test_roughly_uniform(self):
        values = np.array([hash_unit(7, i) for i in range(20000)])
        assert abs(values.mean() - 0.5) < 0.02


class TestLayerProfile:
    def test_profile_normalized_to_delta_v_fresh(self, reliability):
        profile = reliability.layer_profile
        assert profile.min() == pytest.approx(1.0)
        assert profile.max() == pytest.approx(reliability.delta_v_fresh)

    def test_representative_layers_are_distinct(self, reliability):
        layers = {
            reliability.layer_alpha,
            reliability.layer_beta,
            reliability.layer_kappa,
            reliability.layer_omega,
        }
        assert len(layers) == 4

    def test_alpha_is_top_edge_and_omega_bottom_edge(self, reliability):
        assert reliability.layer_alpha == 0
        assert reliability.layer_omega == reliability.geometry.n_layers - 1

    def test_kappa_is_worst_and_interior(self, reliability):
        profile = reliability.layer_profile
        kappa = reliability.layer_kappa
        assert profile[kappa] == profile.max()
        assert 0 < kappa < reliability.geometry.n_layers - 1

    def test_edges_are_degraded(self, reliability):
        """Block-edge layers have elevated BER (Fig. 6(a))."""
        profile = reliability.layer_profile
        beta = profile[reliability.layer_beta]
        assert profile[reliability.layer_alpha] > 1.2 * beta
        assert profile[reliability.layer_omega] > 1.2 * beta

    def test_severity_in_unit_range(self, reliability):
        severity = reliability.layer_severity
        assert severity.min() == pytest.approx(0.0)
        assert severity.max() == pytest.approx(1.0)


class TestCalibrationTargets:
    """The quantitative anchors from the paper's Section 3."""

    def test_delta_v_fresh_about_1_6(self, reliability, fresh):
        bers = [reliability.layer_ber(0, 0, i, fresh) for i in range(48)]
        delta_v = max(bers) / min(bers)
        assert 1.4 <= delta_v <= 1.9

    def test_delta_v_aged_about_2_3(self, reliability, aged_eol):
        bers = [reliability.layer_ber(0, 0, i, aged_eol) for i in range(48)]
        delta_v = max(bers) / min(bers)
        assert 2.0 <= delta_v <= 2.7

    def test_delta_h_virtually_one(self, reliability, aged_eol):
        """Intra-layer similarity: Delta-H stays within RTN bounds for
        every layer and aging condition tested."""
        for aging in [AgingState(0, 0), AgingState(1000, 1.0), aged_eol]:
            for layer in range(0, 48, 7):
                bers = [reliability.wl_ber(0, 0, layer, wl, aging) for wl in range(4)]
                assert max(bers) / min(bers) < 1.03

    def test_worse_layers_degrade_faster(self, reliability):
        """Fig. 6(c): kappa pulls away from beta near end of life."""
        beta, kappa = reliability.layer_beta, reliability.layer_kappa
        fresh_ratio = reliability.layer_ber(0, 0, kappa, AgingState(0, 0)) / (
            reliability.layer_ber(0, 0, beta, AgingState(0, 0))
        )
        aged_ratio = reliability.layer_ber(0, 0, kappa, AgingState(2000, 12.0)) / (
            reliability.layer_ber(0, 0, beta, AgingState(2000, 12.0))
        )
        assert aged_ratio > fresh_ratio * 1.15

    def test_ber_monotone_in_pe(self, reliability):
        bers = [
            reliability.layer_ber(0, 0, 20, AgingState(pe, 1.0))
            for pe in (0, 500, 1000, 1500, 2000)
        ]
        assert bers == sorted(bers)

    def test_ber_monotone_in_retention(self, reliability):
        bers = [
            reliability.layer_ber(0, 0, 20, AgingState(1000, ret))
            for ret in (0.0, 1.0, 3.0, 6.0, 12.0)
        ]
        assert bers == sorted(bers)

    def test_per_block_delta_v_spread(self, reliability, fresh):
        """Fig. 6(d): different blocks have visibly different Delta-V."""
        ratios = []
        for block in range(24):
            bers = [reliability.layer_ber(0, block, i, fresh) for i in range(48)]
            ratios.append(max(bers) / min(bers))
        spread = max(ratios) / min(ratios)
        assert 1.08 <= spread <= 1.4


class TestPerWLQuantities:
    def test_wl_ber_close_to_layer_ber(self, reliability, fresh):
        layer_value = reliability.layer_ber(0, 0, 10, fresh)
        for wl in range(4):
            wl_value = reliability.wl_ber(0, 0, 10, wl, fresh)
            assert abs(wl_value / layer_value - 1.0) < 0.013

    def test_n_ret_scales_with_wl_bits(self, reliability, aged_eol):
        n_ret = reliability.n_ret(0, 0, 20, 0, aged_eol)
        bits = 3 * 16 * 1024 * 8
        expected = reliability.wl_ber(0, 0, 20, 0, aged_eol) * bits
        assert n_ret == round(expected)

    def test_ber_ep1_is_fraction_of_wl_ber(self, reliability, aged_eol):
        ep1 = reliability.ber_ep1(0, 0, 20, 0, aged_eol)
        total = reliability.wl_ber(0, 0, 20, 0, aged_eol)
        assert 0.2 * total < ep1 < 0.4 * total

    def test_program_slowdown_range_and_similarity(self, reliability):
        for layer in range(0, 48, 5):
            slowdown = reliability.program_slowdown(0, 0, layer)
            assert 0.0 <= slowdown <= 1.0
        # worst layer slower than best layer
        assert reliability.program_slowdown(
            0, 0, reliability.layer_kappa
        ) > reliability.program_slowdown(0, 0, reliability.layer_beta)

    def test_spare_margin_decreases_with_aging(self, reliability):
        margin_fresh = reliability.spare_margin(0, 0, 20, 0, AgingState(0, 0), 5.5e-4)
        margin_aged = reliability.spare_margin(
            0, 0, 20, 0, AgingState(2000, 12.0), 5.5e-4
        )
        assert margin_fresh > margin_aged


class TestDeterminism:
    def test_same_seed_same_surface(self, fresh):
        a = ReliabilityModel(seed=11)
        b = ReliabilityModel(seed=11)
        assert a.layer_ber(0, 3, 17, fresh) == b.layer_ber(0, 3, 17, fresh)

    def test_adopted_memos_give_the_same_surface(self, fresh, aged_eol):
        a = ReliabilityModel(seed=11)
        warm = (a.layer_ber(0, 3, 17, fresh), a.program_slowdown(0, 3, 17))
        snapshot = a.memo_snapshot()
        sizes = [len(memo) for memo in snapshot]
        a.layer_ber(1, 4, 5, aged_eol)  # a keeps memoizing on its own
        b = ReliabilityModel(seed=11)
        b.adopt_memos(snapshot)
        assert (b.layer_ber(0, 3, 17, fresh), b.program_slowdown(0, 3, 17)) == warm
        assert b.layer_ber(1, 4, 5, aged_eol) == a.layer_ber(1, 4, 5, aged_eol)
        # neither model memoizes into the snapshot
        assert [len(memo) for memo in snapshot] == sizes

    def test_different_seed_different_blocks(self, fresh):
        a = ReliabilityModel(seed=11)
        b = ReliabilityModel(seed=12)
        assert a.block_factor(0, 3) != b.block_factor(0, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityModel(delta_v_fresh=0.9)
        with pytest.raises(ValueError):
            ReliabilityModel(delta_v_fresh=2.0, delta_v_aged=1.5)
        with pytest.raises(ValueError):
            ReliabilityModel(rtn_noise=0.5)

    def test_small_geometry_supported(self, fresh):
        model = ReliabilityModel(BlockGeometry(n_layers=8, wls_per_layer=2))
        assert model.layer_ber(0, 0, 7, fresh) > 0
