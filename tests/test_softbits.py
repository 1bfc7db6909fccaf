"""Max-log LLR mapping and deinterleaving."""

import numpy as np
import pytest

from chunksdr.demod.softbits import llr_map, llr_map_deinterleave
from chunksdr.errors import LengthMismatch
from chunksdr.modem import interleave, order_codeword
from dsp_refs import slice_8psk


class TestLlrMap:
    def test_exact_point_signs_and_magnitudes(self, constellation):
        """On a constellation point at high SNR: all three signs match the
        point's bits (positive = bit 0) and magnitudes are large."""
        llrs = llr_map(constellation.points, noise_var=0.01)
        for k in range(8):
            bits = constellation.bits_of_position[k]
            for b in range(3):
                if bits[b] == 0:
                    assert llrs[k, b] > 10
                else:
                    assert llrs[k, b] < -10

    def test_boundary_equidistant_llr_zero(self, constellation):
        """Halfway between two points differing in one bit: that LLR is 0."""
        # positions 0 (label 000) and 1 (label 001) differ in bit 2 (LSB)
        x = np.array([np.exp(1j * np.pi / 8)], np.complex64)
        llrs = llr_map(x, noise_var=0.1)
        assert abs(llrs[0, 2]) < 1e-5

    def test_hard_decisions_match_slicer(self, constellation):
        """Slicer/LLR consistency on random symbols."""
        rng = np.random.default_rng(1)
        x = (rng.normal(size=10000) + 1j * rng.normal(size=10000)).astype(np.complex64)
        x = x[np.abs(x) > 1e-3]
        llrs = llr_map(x, noise_var=0.5)
        hard = (llrs < 0).astype(np.uint8)
        for i in range(0, x.size, 131):
            _, bits = slice_8psk(complex(x[i]))
            np.testing.assert_array_equal(hard[i], bits)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            llr_map_deinterleave(np.zeros(10, np.complex64), 0.1, expected_symbols=20)


class TestDeinterleave:
    def test_inverts_tx_interleaver(self, constellation):
        """Mapping interleaved bits then soft-demapping reproduces the
        codeword order."""
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 3 * 340).astype(np.uint8)
        symbols = constellation.map_bits(interleave(order_codeword(bits), 3))
        frame = llr_map_deinterleave(symbols, noise_var=0.01)
        hard = (frame.llrs < 0).astype(np.uint8)
        np.testing.assert_array_equal(hard, bits)

    def test_start_sample_number_carried(self):
        frame = llr_map_deinterleave(np.ones(3, np.complex64), 0.1, start_sample_number=4242)
        assert frame.start_sample_number == 4242
