"""FNV-1 / MurmurHash3 / context-encoding tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernel
from repro.core.hashing import (
    bit_position_table,
    context_bit_positions,
    context_mask,
    fnv1_64,
    murmur3_32,
    popcount,
)
from repro.workloads.apps import APP_NAMES, get_app


class TestFNV1:
    def test_empty_input_is_offset_basis(self):
        assert fnv1_64(b"") == 0xCBF29CE484222325

    def test_known_vector_a(self):
        # FNV-1 64-bit of "a" (published test vector)
        assert fnv1_64(b"a") == 0xAF63BD4C8601B7BE

    def test_known_vector_foobar(self):
        assert fnv1_64(b"foobar") == 0x340D8765A4DDA9C2

    def test_deterministic(self):
        assert fnv1_64(b"hello") == fnv1_64(b"hello")

    def test_fits_64_bits(self):
        assert fnv1_64(b"\xff" * 100) < (1 << 64)


class TestMurmur3:
    def test_empty_zero_seed(self):
        assert murmur3_32(b"") == 0

    def test_known_vector_empty_seed1(self):
        assert murmur3_32(b"", seed=1) == 0x514E28B7

    def test_known_vector_test(self):
        # murmur3_32("test", 0) = 0xba6bd213 (public reference value)
        assert murmur3_32(b"test") == 0xBA6BD213

    def test_known_vector_hello_world(self):
        # murmur3_32("Hello, world!", 0x9747b28c) = 0x24884CBA
        assert murmur3_32(b"Hello, world!", seed=0x9747B28C) == 0x24884CBA

    def test_tail_handling(self):
        # inputs of lengths 1..7 exercise every tail branch
        values = {murmur3_32(b"x" * n) for n in range(1, 8)}
        assert len(values) == 7

    def test_fits_32_bits(self):
        assert murmur3_32(b"\xff" * 33) < (1 << 32)


class TestContextBits:
    def test_single_hash_by_default(self):
        positions = context_bit_positions(0x400000, 16)
        assert len(positions) == 1
        assert 0 <= positions[0] < 16

    def test_two_hashes_optional(self):
        positions = context_bit_positions(0x400000, 16, hashes_per_block=2)
        assert len(positions) == 2

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            context_bit_positions(0x400000, 0)
        with pytest.raises(ValueError):
            context_bit_positions(0x400000, 16, hashes_per_block=3)

    @given(address=st.integers(0, (1 << 48) - 1), bits=st.integers(1, 64))
    @settings(max_examples=100)
    def test_positions_in_range(self, address, bits):
        for position in context_bit_positions(address, bits, hashes_per_block=2):
            assert 0 <= position < bits

    def test_deterministic(self):
        a = context_bit_positions(0x1234, 16)
        b = context_bit_positions(0x1234, 16)
        assert a == b


class TestContextMask:
    def test_empty_context_is_zero(self):
        assert context_mask([], 16) == 0

    def test_mask_fits_width(self):
        mask = context_mask(range(0, 64 * 100, 64), 16)
        assert mask < (1 << 16)

    def test_union_property(self):
        a = context_mask([0x1000], 16)
        b = context_mask([0x2000], 16)
        assert context_mask([0x1000, 0x2000], 16) == a | b

    @given(
        addresses=st.lists(st.integers(0, 1 << 40), min_size=1, max_size=8),
        bits=st.integers(4, 64),
    )
    @settings(max_examples=60)
    def test_mask_has_at_most_one_bit_per_address(self, addresses, bits):
        mask = context_mask(addresses, bits)
        assert popcount(mask) <= len(set(addresses))
        assert mask != 0


class TestBitPositionTable:
    def test_table_matches_direct_hashing(self):
        addresses = {1: 0x400000, 2: 0x400040}
        table = bit_position_table(addresses, 16)
        for block, address in addresses.items():
            assert table[block] == context_bit_positions(address, 16)

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_vectorized_table_matches_reference(self, name):
        program = get_app(name, 0.15).program
        addresses = {block.block_id: block.address for block in program}
        with kernel.reference_path():
            expected = bit_position_table(addresses, 16)
        with kernel.force_numpy_kernel():
            assert bit_position_table(addresses, 16) == expected

    @pytest.mark.parametrize("hash_bits", [1, 7, 16, 64, 1000])
    def test_random_addresses_including_high_bit(self, hash_bits):
        rng = random.Random(hash_bits)
        addresses = {
            index: rng.choice(
                (rng.randrange(2**20), rng.randrange(2**64),
                 rng.randrange(2**63, 2**64))
            )
            for index in range(2_000)
        }
        addresses[2_000] = 2**64 - 1
        addresses[2_001] = 2**63
        with kernel.reference_path():
            expected = bit_position_table(addresses, hash_bits)
        with kernel.force_numpy_kernel():
            assert bit_position_table(addresses, hash_bits) == expected


class TestPopcount:
    @pytest.mark.parametrize(
        "value,expected", [(0, 0), (1, 1), (0b1011, 3), ((1 << 64) - 1, 64)]
    )
    def test_values(self, value, expected):
        assert popcount(value) == expected
