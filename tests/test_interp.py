"""Lagrange fractional-delay bank micro-oracles."""

import numpy as np

from chunksdr.demod.interp import ANCHOR, N_FILTERS, lagrange_bank, lagrange_taps
from dsp_refs import lagrange_interp


class TestBank:
    def test_shape_and_immutability(self):
        bank = lagrange_bank()
        assert bank.shape == (128, 8)
        assert lagrange_bank() is bank  # cached single instance

    def test_dc_gain_unity(self):
        """Every filter's taps sum to 1 (reproduces constants)."""
        sums = lagrange_bank().sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_constant_window_any_index(self):
        window = np.full(8, 3.7 - 1.2j)
        for idx in (0, 17, 64, 127):
            assert abs(lagrange_interp(window, idx) - (3.7 - 1.2j)) < 1e-6

    def test_index_64_is_half_sample(self):
        """Linear ramp 0..7: delay 0.5 between the center taps gives 3.5."""
        ramp = np.arange(8, dtype=float)
        assert abs(lagrange_interp(ramp, 64) - 3.5) < 1e-9

    def test_cubic_polynomial_exact(self):
        """Oracle: evaluate the polynomial directly at the filter's delay."""
        coeffs = np.array([0.3, -1.1, 0.7, 0.05])  # c0 + c1 t + c2 t^2 + c3 t^3
        t = np.arange(8, dtype=float)
        window = np.polyval(coeffs[::-1], t)
        for idx in (1, 33, 64, 100, 127):
            want = np.polyval(coeffs[::-1], ANCHOR + idx / N_FILTERS)
            assert abs(lagrange_interp(window, idx) - want) < 1e-9

    def test_degree_seven_exact(self):
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=8)
        t = np.arange(8, dtype=float)
        window = np.polyval(coeffs[::-1], t)
        for idx in (5, 64, 121):
            want = np.polyval(coeffs[::-1], ANCHOR + idx / N_FILTERS)
            assert abs(lagrange_interp(window, idx) - want) < 1e-8

    def test_taps_match_bank(self):
        np.testing.assert_allclose(
            lagrange_taps(np.arange(128) / 128.0), lagrange_bank(), atol=1e-12
        )
