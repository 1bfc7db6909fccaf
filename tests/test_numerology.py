"""Geometry derivations: every documented plan value must come out exactly."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chunksdr.errors import (
    NonIntegerFrameSamples,
    NumerologyError,
    OverlapTooSmall,
    PacketNotMultipleOf64,
)
from chunksdr.numerology import (
    PacketPlan,
    WaveformProfile,
    first_sample_of_packet,
    group_of_packet,
    load_numerology,
    load_profile,
    make_numerology,
)


class TestPaperProfile:
    def test_frame_geometry(self, paper_plan):
        profile = paper_plan.profile
        assert profile.frame_symbols == 21690
        assert profile.frame_samples == 34704
        assert profile.payload_bits == 64800

    def test_packet_geometry(self, paper_plan):
        assert paper_plan.packet.samples_per_packet == 4352
        assert paper_plan.packet.packet_payload_bytes == 8704
        assert paper_plan.packet.packet_payload_bytes % 64 == 0

    def test_group_is_frame_plus_112(self, paper_plan):
        assert paper_plan.packet.samples_per_group == 34816
        assert paper_plan.packet.samples_per_group - paper_plan.frame_samples == 112

    def test_packets_per_frame_about_8(self, paper_plan):
        ratio = paper_plan.frame_samples / paper_plan.packet.samples_per_packet
        assert round(ratio, 2) == 7.97
        assert round(ratio) == 8

    def test_chunk_geometry(self, paper_plan):
        assert paper_plan.chunk.packets_per_chunk == 136
        assert paper_plan.chunk.chunk_samples == 591872
        assert paper_plan.chunk.guaranteed_frames == 16

    @pytest.mark.parametrize("servers", [1, 2, 4])
    def test_16s_multicast_groups(self, servers):
        profile, packet = load_profile("paper")
        plan = make_numerology(profile, PacketPlan(**packet), servers=servers)
        assert plan.distribution.total_groups == 16 * servers

    def test_two_server_subscriptions(self, paper_plan):
        dist = paper_plan.distribution
        assert dist.total_groups == 32
        assert dist.subscriptions(0) == tuple(range(17))
        assert set(dist.subscriptions(1)) == set(range(16, 32)) | {0}

    def test_extra_samples_cover_clock_slack(self, paper_plan):
        chunk = paper_plan.chunk
        slack = chunk.chunk_samples * 10 * 1e-6
        assert chunk.extra_samples >= slack
        assert chunk.overlap_samples >= paper_plan.frame_samples + chunk.extra_samples


class TestDeskProfile:
    def test_desk_values(self, desk_plan):
        profile = desk_plan.profile
        assert profile.frame_symbols == 1050
        assert profile.frame_samples == 1680
        assert desk_plan.packet.samples_per_group == 1792
        assert desk_plan.packet.samples_per_group - profile.frame_samples == 112
        assert desk_plan.chunk.chunk_samples == 30464

    def test_overlap_invariant(self, desk_plan):
        chunk = desk_plan.chunk
        assert chunk.overlap_samples >= desk_plan.frame_samples + chunk.extra_samples
        assert chunk.chunk_samples >= 16 * desk_plan.frame_samples + chunk.overlap_samples


class TestValidation:
    def test_non_integer_frame_samples(self):
        profile = WaveformProfile(
            name="bad", preamble_symbols=31, payload_symbols=1020
        )  # 1051 * 8/5 not an integer
        with pytest.raises(NonIntegerFrameSamples):
            profile.validate()

    def test_packet_not_multiple_of_64(self, desk_plan):
        with pytest.raises(PacketNotMultipleOf64):
            make_numerology(desk_plan.profile, PacketPlan(samples_per_packet=100))

    def test_overlap_too_small(self, desk_plan):
        # 64-sample packets: a group of 512 cannot cover a 1680-sample frame
        with pytest.raises(OverlapTooSmall):
            make_numerology(desk_plan.profile, PacketPlan(samples_per_packet=64))


class TestPacketMaps:
    def test_group_of_packet_examples(self, paper_plan):
        assert group_of_packet(0, paper_plan) == 0
        assert group_of_packet(135, paper_plan) == 16
        # hand-checked: (264 div 8) mod 32 = 33 mod 32
        assert group_of_packet(264, paper_plan) == 1

    def test_first_sample_examples(self, paper_plan, desk_plan):
        assert first_sample_of_packet(0, paper_plan) == 0
        assert first_sample_of_packet(136, paper_plan) == 591872
        assert first_sample_of_packet(8, desk_plan) == 1792

    @given(st.integers(min_value=0, max_value=10**9))
    def test_group_periodicity(self, packet_number):
        plan = load_numerology("paper", servers=2)
        period = plan.packet.packets_per_group * plan.distribution.total_groups
        assert group_of_packet(packet_number, plan) == group_of_packet(
            packet_number + period, plan
        )

    def test_first_sample_monotone(self, desk_plan):
        samples = [first_sample_of_packet(i, desk_plan) for i in range(100)]
        assert samples == sorted(samples)
        assert len(set(samples)) == 100


class TestSubscriptionCoverage:
    @pytest.mark.parametrize("servers", [2, 3, 4])
    def test_boundary_groups_shared(self, servers):
        """Chunk-boundary groups go to two servers, interior groups to one."""
        plan = load_numerology("paper", servers=servers)
        dist = plan.distribution
        counts = {}
        for s in range(servers):
            for g in dist.subscriptions(s):
                counts[g] = counts.get(g, 0) + 1
        for g in range(dist.total_groups):
            expected = 2 if g % dist.advance_groups == 0 else 1
            assert counts[g] == expected, f"group {g}"

    def test_single_server_covers_everything(self):
        plan = load_numerology("paper", servers=1)
        assert set(plan.distribution.subscriptions(0)) == set(range(16))


class TestProfileFiles:
    def test_load_by_name(self):
        profile, packet = load_profile("desk")
        assert profile.name == "desk"
        assert packet["samples_per_packet"] == 224

    def test_load_by_path(self, tmp_path):
        p = tmp_path / "custom.profile"
        p.write_text(
            "name = custom\npreamble_symbols = 30\n"
            "payload_symbols = 1020\nsamples_per_packet = 224\n"
        )
        profile, packet = load_profile(str(p))
        assert profile.name == "custom"
        assert profile.samples_per_symbol == Fraction(8, 5)

    def test_unknown_profile(self):
        with pytest.raises(NumerologyError):
            load_profile("nonexistent")

    def test_payload_sharing_a_factor_with_the_codeword_order(self, tmp_path):
        """1013 * 3 payload bits: a * p mod n would repeat codeword bits."""
        p = tmp_path / "bad.profile"
        p.write_text("name = x\npreamble_symbols = 32\npayload_symbols = 1013\n")
        with pytest.raises(NumerologyError, match="codeword order multiplier 1013"):
            load_profile(str(p))

    @pytest.mark.parametrize(
        "line",
        [
            "bogus_key = 1", "samples_per_symbol = 8/5", "bits_per_symbol = 3",
            "rolloff = 0.25", "max_clock_offset_ppm = 10", "preamble_seed = 2001",
            "packets_per_group = 8", "groups_per_chunk = 17",
        ],
        ids=[
            "bogus_key", "samples_per_symbol", "bits_per_symbol", "rolloff",
            "max_clock_offset_ppm", "preamble_seed", "packets_per_group", "groups_per_chunk",
        ],
    )
    def test_unknown_key(self, tmp_path, line):
        p = tmp_path / "bad.profile"
        p.write_text(f"name = x\n{line}\n")
        with pytest.raises(NumerologyError):
            load_profile(str(p))
