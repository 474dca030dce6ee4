"""Tests for interleaved non-zero (INZ) encoding — Section IV-A."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression import inz

i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
small = st.integers(min_value=-500, max_value=500)


class TestInvertWord:
    def test_zero_maps_to_zero(self):
        assert inz.invert_word(0) == 0

    def test_small_negatives_become_small(self):
        # Zigzag property: magnitude-n values use ~2n codes.
        assert inz.invert_word(inz.to_u32(-1)) == 1
        assert inz.invert_word(1) == 2
        assert inz.invert_word(inz.to_u32(-2)) == 3
        assert inz.invert_word(2) == 4

    def test_extremes(self):
        assert inz.invert_word(0x8000_0000) == 0xFFFF_FFFF
        assert inz.invert_word(0x7FFF_FFFF) == 0xFFFF_FFFE

    @given(i32)
    def test_roundtrip(self, value):
        u = inz.to_u32(value)
        assert inz.uninvert_word(inz.invert_word(u)) == u

    @given(i32)
    def test_nonzero_maps_to_nonzero(self, value):
        u = inz.to_u32(value)
        if u != 0:
            assert inz.invert_word(u) != 0

    @given(st.integers(-100, 100))
    def test_monotone_in_magnitude(self, magnitude):
        # |v| <= |w|  =>  invert(v) fits in no more bits than invert(w).
        v = inz.to_u32(magnitude)
        w = inz.to_u32(magnitude * 2)
        assert inz.invert_word(v).bit_length() <= inz.invert_word(w).bit_length() + 1


class TestInterleave:
    def test_single_lane_is_identity(self):
        assert inz.interleave([0xDEADBEEF]) == 0xDEADBEEF

    def test_two_lane_positions(self):
        # Bit j of word i lands at j*2 + i.
        assert inz.interleave([1, 0]) == 0b01
        assert inz.interleave([0, 1]) == 0b10
        assert inz.interleave([2, 0]) == 0b0100
        assert inz.interleave([3, 3]) == 0b1111

    def test_high_bits_land_on_top(self):
        vec = inz.interleave([1 << 31, 1 << 31])
        assert vec == 0b11 << 62

    @given(st.lists(i32, min_size=1, max_size=4))
    def test_roundtrip(self, words):
        unsigned = [inz.to_u32(w) for w in words]
        vec = inz.interleave(unsigned)
        assert inz.deinterleave(vec, len(words)) == unsigned


class TestEncode:
    def test_all_zero_payload_is_zero_bytes(self):
        enc = inz.encode([0, 0, 0, 0])
        assert enc.num_bytes == 0
        assert enc.data == b""
        assert not enc.abandoned
        assert inz.decode(enc) == [0, 0, 0, 0]

    def test_empty_input_is_zero_payload(self):
        assert inz.encode([]).num_bytes == 0

    def test_small_values_compress(self):
        enc = inz.encode([5, -3, 7, 2])
        assert enc.num_bytes < 16
        assert inz.decode_signed(enc) == [5, -3, 7, 2]

    def test_large_values_abandoned(self):
        words = [0x7FFF_FFFF, -0x8000_0000, 0x7FFF_0000, -1]
        enc = inz.encode(words)
        assert enc.abandoned
        assert enc.num_bytes == 16
        assert inz.decode_signed(enc) == [0x7FFF_FFFF, -0x8000_0000,
                                          0x7FFF_0000, -1]

    def test_paper_example_two_words_save_five_bytes(self):
        """Figure 7: two words with one significant byte each encode so the
        most significant non-zero byte moves from byte 7 to byte 2,
        eliminating 5 bytes of an 8-byte payload."""
        # Two words whose magnitudes fit in one byte (the figure's shape).
        enc = inz.encode([0x25, 0x4C])
        # 8 bytes of raw data -> at most 3 bytes survive.
        assert enc.num_bytes == 3
        assert inz.decode(enc)[:2] == [0x25, 0x4C]

    def test_too_many_words_rejected(self):
        with pytest.raises(ValueError):
            inz.encode([1, 2, 3, 4, 5])

    def test_shorter_payloads_zero_pad(self):
        enc = inz.encode([9])
        assert inz.decode(enc) == [9, 0, 0, 0]

    def test_descriptor_mismatch_detected(self):
        enc = inz.encode([1, 2, 3, 4])
        with pytest.raises(ValueError):
            inz.decode_bytes(enc.data, enc.num_bytes + 1)

    @given(st.lists(i32, min_size=0, max_size=4))
    @settings(max_examples=300)
    def test_roundtrip_any_payload(self, words):
        enc = inz.encode([inz.to_u32(w) for w in words])
        expect = [inz.to_u32(w) for w in words] + [0] * (4 - len(words))
        assert inz.decode(enc) == expect

    @given(st.lists(small, min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_small_payloads_never_abandoned(self, words):
        enc = inz.encode_signed(words)
        assert not enc.abandoned
        assert enc.num_bytes <= 6  # 4 lanes x ~10 bits + 2 bits
        assert inz.decode_signed(enc) == words

    @given(st.lists(i32, min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_never_expands_beyond_raw(self, words):
        assert inz.encode_signed(words).num_bytes <= 16

    @given(st.lists(small, min_size=4, max_size=4),
           st.lists(i32, min_size=4, max_size=4))
    @settings(max_examples=100)
    @example(small_words=[0, 0, 0, 0], any_words=[0, 0, 0, -1])
    def test_smaller_values_never_cost_more(self, small_words, any_words):
        """Replacing every word with a smaller-magnitude one never grows
        the encoding (monotonicity of the leading-zero optimization).

        The shrink keeps each word's sign: a bare ``w % 8`` maps -1 to 7,
        whose zigzag code (14) is larger than that of -1 (1).
        """
        shrunk = [w % 8 if w >= 0 else -(-w % 8) for w in any_words]
        assert (inz.encode_signed(shrunk).num_bytes
                <= inz.encode_signed(any_words).num_bytes)


class TestEncodedPayloadBits:
    def test_bits_are_eight_times_bytes(self):
        words = [3, -9, 12, 0]
        assert inz.encoded_payload_bits(words) == inz.encode(words).num_bytes * 8

    def test_compression_ratio_for_typical_deltas(self):
        """MD position deltas are a few hundred fixed-point units; INZ
        should beat 50% on such payloads (the Fig. 9a regime)."""
        words = [211, -180, 95, 0]
        assert inz.encoded_payload_bits(words) <= 64  # vs 128 raw
