"""Symbol tracking: Gardner detector and the two-pass loop."""

import numpy as np
import pytest

from chunksdr.channel import ChannelConfig, apply as chan_apply
from chunksdr.demod.filters import resample_matched_filter, rx_taps
from chunksdr.demod.interp import ANCHOR, N_TAPS, lagrange_taps
from chunksdr.demod.timing import gardner_ted, track_symbols_two_pass
from chunksdr.errors import WarmupExceedsChunk
from chunksdr.modem import pulse_shape


def _interp_at(y: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Reference fractional interpolation, independent of the tracker."""
    base = np.floor(positions).astype(np.int64)
    mu = positions - base
    taps = lagrange_taps(mu)
    idx = base[:, None] + np.arange(-ANCHOR, N_TAPS - ANCHOR)[None, :]
    return np.sum(y[idx] * taps, axis=1)


@pytest.fixture(scope="module")
def alternating_stream(desk_plan):
    """RC-shaped alternating +-1 pattern at 2 samples/symbol."""
    n = 600
    symbols = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(np.complex64)
    tx = pulse_shape(symbols, desk_plan.profile)
    return resample_matched_filter(tx, rx_taps(desk_plan.profile))


class TestGardnerTed:
    def _triplets(self, y, tau_symbols, n=256, start=100):
        ks = np.arange(start, start + n)
        ontime = _interp_at(y, 2 * ks + 2 * tau_symbols)
        early = _interp_at(y, 2 * ks - 1 + 2 * tau_symbols)
        late = _interp_at(y, 2 * ks + 1 + 2 * tau_symbols)
        return early, ontime, late

    def test_zero_at_perfect_timing(self, alternating_stream):
        early, ontime, late = self._triplets(alternating_stream, 0.0)
        e = gardner_ted(early, ontime, late) / 256
        assert abs(e) < 1e-5

    def test_late_is_strictly_negative(self, alternating_stream):
        """Sign convention: sampling 0.1 symbol late gives a negative error."""
        early, ontime, late = self._triplets(alternating_stream, +0.1)
        assert gardner_ted(early, ontime, late) < 0

    def test_early_is_strictly_positive(self, alternating_stream):
        early, ontime, late = self._triplets(alternating_stream, -0.1)
        assert gardner_ted(early, ontime, late) > 0

    def test_all_zero_input(self):
        z = np.zeros(16, np.complex64)
        assert gardner_ted(z, z, z) == 0.0

    def test_sign_on_random_data(self, shaped_stream):
        """The averaged S-curve keeps the convention on random symbols."""
        _, tx = shaped_stream(3000, seed=8)
        y = resample_matched_filter(tx, rx_taps_for_test())
        e_late = gardner_ted(*self._triplets(y, +0.15, n=1000))
        e_early = gardner_ted(*self._triplets(y, -0.15, n=1000))
        assert e_late < 0 < e_early


def rx_taps_for_test():
    from chunksdr.numerology import load_profile

    profile, _ = load_profile("desk")
    return rx_taps(profile)


class TestTwoPassTracking:
    def _track(self, samples, profile, warmup_symbols, init_index=0.0):
        return track_symbols_two_pass(
            samples, profile.timing_loop_bw, warmup=2 * warmup_symbols, filter_index=init_index
        )

    def test_perfect_start_recovers_from_first_symbol(self, desk_plan, shaped_stream):
        """No discarded transient: symbol 0 of the tracked stream is good."""
        profile = desk_plan.profile
        symbols, tx = shaped_stream(12000, seed=21)
        y = resample_matched_filter(tx, rx_taps(profile))
        res = self._track(y, profile, warmup_symbols=4096)
        idx = np.round(res.positions / 2).astype(int)
        ok = (idx >= 0) & (idx < symbols.size)
        err = res.symbols[ok] - symbols[idx[ok]]
        evm_all = float(np.sqrt(np.mean(np.abs(err) ** 2)))
        evm_first = float(np.sqrt(np.mean(np.abs(err[:100]) ** 2)))
        assert evm_all <= 0.02
        assert evm_first <= 0.02

    def test_ppm_skip_accounting_desk_chunk(self, desk_ctx, desk_stream_16):
        """+10 ppm over one desk chunk: net skips ~ chunk * 1e-5, within 1."""
        plan = desk_ctx.plan
        rx = chan_apply(desk_stream_16.samples, ChannelConfig(clock_offset_ppm=10))
        chunk = rx[: plan.chunk.chunk_samples]
        y = resample_matched_filter(chunk, desk_ctx.tables.rx_taps)
        res = self._track(y, plan.profile, warmup_symbols=4096)
        net = res.skips - res.repeats
        expected = res.consumed_samples * 1e-5
        assert abs(net - expected) <= 1.0

    def test_consumed_identity_exact(self, desk_plan, shaped_stream):
        """outputs*2 + skips - repeats == consumed input samples, exactly."""
        _, tx = shaped_stream(6000, seed=5)
        rx = chan_apply(tx, ChannelConfig(clock_offset_ppm=10))
        y = resample_matched_filter(rx, rx_taps(desk_plan.profile))
        res = self._track(y, desk_plan.profile, warmup_symbols=2048)
        assert res.consumed_samples == 2 * res.symbols.size + res.skips - res.repeats

    def test_offset_acquired_in_warmup(self, desk_plan, shaped_stream):
        """A half-sample initial offset is gone by the first output symbol."""
        profile = desk_plan.profile
        symbols, tx = shaped_stream(12000, seed=13)
        y = resample_matched_filter(tx, rx_taps(profile))
        res = self._track(y, profile, warmup_symbols=4096, init_index=60.0)
        idx = np.round(res.positions / 2).astype(int)
        ok = (idx >= 0) & (idx < symbols.size)
        err = res.symbols[ok][:100] - symbols[idx[ok]][:100]
        assert float(np.sqrt(np.mean(np.abs(err) ** 2))) <= 0.02

    def test_two_pass_beats_single_pass_at_0db(self, desk_plan, constellation):
        """Monte Carlo: first-100-symbol EVM, converged vs cold start."""
        profile = desk_plan.profile
        rng = np.random.default_rng(77)
        two_pass_evm = []
        single_evm = []
        n_sym = 2400
        warmup = 1024
        for trial in range(30):
            symbols = constellation.points[rng.integers(0, 8, n_sym)]
            tx = pulse_shape(symbols, profile)
            noisy = chan_apply(
                tx, ChannelConfig(esn0_db=0.0, seed=1000 + trial)
            )
            y = resample_matched_filter(noisy, rx_taps(profile))
            for warm, bucket in ((warmup, two_pass_evm), (0, single_evm)):
                res = track_symbols_two_pass(
                    y, profile.timing_loop_bw, warmup=2 * warm, filter_index=48.0
                )
                idx = np.round(res.positions / 2).astype(int)
                ok = (idx >= 0) & (idx < n_sym)
                err = res.symbols[ok][:100] - symbols[idx[ok]][:100]
                bucket.append(float(np.mean(np.abs(err) ** 2)))
        assert np.mean(two_pass_evm) < np.mean(single_evm)

    def test_two_pass_repeatable(self, desk_plan, shaped_stream):
        """Loop state is a pure function of its inputs."""
        _, tx = shaped_stream(8000, seed=3)
        y = resample_matched_filter(tx, rx_taps(desk_plan.profile))
        a = self._track(y, desk_plan.profile, warmup_symbols=2048)
        b = self._track(y, desk_plan.profile, warmup_symbols=2048)
        np.testing.assert_array_equal(a.symbols, b.symbols)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_warmup_exceeds_chunk(self, desk_plan):
        with pytest.raises(WarmupExceedsChunk):
            track_symbols_two_pass(np.zeros(100, np.complex64), 1e-3, warmup=200)
