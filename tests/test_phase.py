"""Decision-directed phase tracking and the 8PSK slicer."""

import numpy as np

from chunksdr.demod.phase import track_phase_two_pass
from dsp_refs import _POINTS, slice_8psk, slice_positions


class TestSlicer:
    def test_exact_points(self, constellation):
        for k in range(8):
            point, bits = slice_8psk(complex(constellation.points[k]))
            assert point == complex(constellation.points[k])
            assert tuple(constellation.bits_of_position[k]) == bits

    def test_scale_invariance(self, constellation):
        for k in range(8):
            x = complex(constellation.points[k]) * 3.7
            point, _ = slice_8psk(x)
            assert point == complex(constellation.points[k])

    def test_boundary_tie_smaller_label(self, constellation):
        """At exactly pi/8 the tie breaks toward the smaller Gray label."""
        point, bits = slice_8psk(np.exp(1j * np.pi / 8))
        # neighbors are positions 0 (label 0) and 1 (label 1): label 0 wins
        assert point == complex(constellation.points[0])
        assert bits == (0, 0, 0)

    def test_zero_input_convention(self):
        point, bits = slice_8psk(0j)
        assert bits == (0, 0, 0)

    def test_vectorized_positions_match(self, constellation):
        rng = np.random.default_rng(2)
        x = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        pos = slice_positions(x)
        for i in range(0, 1000, 97):
            point, _ = slice_8psk(complex(x[i]))
            assert complex(_POINTS[pos[i]]) == point


class TestPhaseTracking:
    def _run(self, x, warmup=2048, bw=2e-3):
        return track_phase_two_pass(np.asarray(x, np.complex64), bw, warmup)

    def test_zero_offset_identity(self, random_symbols):
        x = random_symbols(8000, seed=1)
        y, theta, _ = self._run(x)
        np.testing.assert_allclose(y, x, atol=1e-5)
        assert abs(theta) < 1e-6

    def test_constant_offset_converges(self, random_symbols):
        """0.3 rad static offset: output lands on constellation points."""
        x = random_symbols(16000, seed=2) * np.exp(0.3j)
        y, theta, _ = self._run(x)
        err = y - _POINTS[slice_positions(y)]
        rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
        assert rms <= 0.02
        # the loop actually removed the rotation (0.3 < pi/8: unambiguous)
        assert abs(theta - 0.3) % (2 * np.pi) < 0.05

    def test_frequency_offset_estimate(self, random_symbols):
        """1e-4 cycles/symbol: loop frequency converges within 10%."""
        f = 1e-4
        x = random_symbols(20000, seed=3)
        n = np.arange(x.size)
        y, _, freq = self._run(x * np.exp(2j * np.pi * f * n), warmup=4096)
        want = 2 * np.pi * f
        assert abs(freq - want) <= 0.1 * want

    def test_residual_phase_error_at_inf_snr(self, random_symbols):
        x = random_symbols(16000, seed=4) * np.exp(0.25j)
        y, _, _ = self._run(x)
        tail = y[4000:]
        err = np.angle(tail * np.conj(_POINTS[slice_positions(tail)]))
        assert float(np.sqrt(np.mean(err**2))) <= 0.02

    def test_second_pass_idempotent(self, random_symbols):
        """Running the forward pass twice from the converged state is stable:
        the tracker output is a pure function of its inputs."""
        x = random_symbols(8000, seed=5) * np.exp(0.2j)
        a, _, _ = self._run(x)
        b, _, _ = self._run(x)
        np.testing.assert_array_equal(a, b)

    def test_tail_block_no_update(self, random_symbols):
        """A tail shorter than 8 symbols is derotated with the last ramp."""
        x = random_symbols(8005, seed=6)
        y, _, _ = self._run(x)
        assert y.size == 8005
        np.testing.assert_allclose(y[-5:], x[-5:], atol=1e-5)
