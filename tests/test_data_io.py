import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nandarrange import (
    ArchConfig,
    BlockPattern,
    Permutation,
    gen_random_block,
    gray_decode,
    gray_encode,
    read_checkpoint,
    read_mapping_table,
    read_pattern,
    split_dataset,
    split_indices,
    write_mapping_table,
    write_pattern,
)
from nandarrange.data_io import GENERATOR_ID, MappingTable
from nandarrange.errors import (
    ArrangeError,
    BadMagic,
    InvalidArgument,
    LevelOutOfRange,
    NotABijection,
    TooFewBlocks,
    TruncatedFile,
    UnsupportedVersion,
)


class TestGrayCode:
    def test_known_codes(self):
        assert gray_encode(0) == 0b0000
        assert gray_encode(2) == 0b0011
        assert gray_decode(0b0000) == 0
        assert gray_decode(0b0011) == 2

    def test_round_trip_all_levels(self):
        assert [gray_decode(gray_encode(x)) for x in range(16)] == list(range(16))

    def test_adjacent_levels_differ_in_one_bit(self):
        for level in range(15):
            diff = gray_encode(level) ^ gray_encode(level + 1)
            assert bin(diff).count("1") == 1

    def test_encode_is_bijection(self):
        assert sorted(gray_encode(x) for x in range(16)) == list(range(16))

    def test_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            gray_encode(16)
        with pytest.raises(LevelOutOfRange):
            gray_decode(-1)


class TestGenRandomBlock:
    def test_deterministic(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=10)
        a = gen_random_block(cfg, seed=99)
        b = gen_random_block(cfg, seed=99)
        assert np.array_equal(a.cells, b.cells)
        assert GENERATOR_ID == "numpy-pcg64"

    def test_supports_paper_scale(self):
        cfg = ArchConfig(num_wordlines=16, cells_per_page=18 * 1024 * 8)
        block = gen_random_block(cfg, seed=0)
        assert block.cells.shape == (16, 147456)

    def test_level_histogram_is_flat(self):
        cfg = ArchConfig(num_wordlines=16, cells_per_page=62500)  # 1e6 cells
        block = gen_random_block(cfg, seed=123)
        counts = np.bincount(block.cells.ravel(), minlength=16)
        freqs = counts / block.cells.size
        assert np.all(np.abs(freqs - 1 / 16) < 0.005)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgument, match="seed must be non-negative, got -1"):
            gen_random_block(ArchConfig(num_wordlines=4, cells_per_page=2), seed=-1)


class TestSplit:
    def test_ten_blocks_split_seven_three(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=2)
        blocks = [gen_random_block(cfg, seed=i) for i in range(10)]
        train, test = split_dataset(blocks, seed=0)
        assert (len(train), len(test)) == (7, 3)

    def test_disjoint_and_covering(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=2)
        blocks = [gen_random_block(cfg, seed=i) for i in range(13)]
        train, test = split_dataset(blocks, seed=5)
        assert len(train) + len(test) == 13
        seen = {id(b) for b in train} | {id(b) for b in test}
        assert seen == {id(b) for b in blocks}

    def test_deterministic(self):
        assert split_indices(20, seed=7) == split_indices(20, seed=7)

    def test_too_few_blocks(self):
        with pytest.raises(TooFewBlocks):
            split_indices(9, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgument, match="seed must be non-negative, got -1"):
            split_indices(10, seed=-1)

    def test_train_share_rounds_half_up(self):
        # 0.7 * 45 = 31.499999999999996 in floats: a float half-up gave 31.
        for count in range(10, 5001):
            train, _ = split_indices(count, seed=0)
            assert len(train) == math.floor(Fraction(7 * count, 10) + Fraction(1, 2)), count
        assert [len(split_indices(count, seed=0)[0]) for count in (20, 45, 100)] == [14, 32, 70]


class TestMappingTable:
    def test_identity_n4_exact_bytes(self):
        data = write_mapping_table(Permutation.identity(4))
        expected = bytes.fromhex("50 44 41 4d 01 04 00 00 00 01 00 02 00 03 00")
        assert data == expected

    def test_payload_is_two_bytes_per_wordline(self):
        data = write_mapping_table(Permutation.identity(16))
        assert len(data) - 7 == 32

    def test_round_trip_many_random_permutations(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(3, 40))
            perm = Permutation(tuple(int(v) for v in rng.permutation(n)))
            table = read_mapping_table(write_mapping_table(perm))
            assert table.entries == perm.order

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_mapping_table(b"NOPE" + bytes(11))

    def test_unsupported_version(self):
        data = bytearray(write_mapping_table(Permutation.identity(4)))
        data[4] = 2
        with pytest.raises(UnsupportedVersion):
            read_mapping_table(bytes(data))

    def test_truncated(self):
        data = write_mapping_table(Permutation.identity(4))
        with pytest.raises(TruncatedFile):
            read_mapping_table(data[:-1])
        with pytest.raises(TruncatedFile):
            read_mapping_table(data + b"\x00")

    def test_non_bijective_entries(self):
        data = bytearray(write_mapping_table(Permutation.identity(4)))
        data[7:9] = (1).to_bytes(2, "little")  # entry 0 duplicated with entry 1
        with pytest.raises(NotABijection):
            read_mapping_table(bytes(data))

    def test_writer_refuses_more_wordlines_than_the_header_holds(self):
        with pytest.raises(
            InvalidArgument, match=r"^mapping table limited to 65535 wordlines, got 65536$"
        ):
            write_mapping_table(Permutation.identity(65_536))

    def test_as_permutation(self):
        table = MappingTable((2, 0, 1))
        assert table.as_permutation().order == (2, 0, 1)


underlying_perm = st.integers(3, 12).flatmap(
    lambda n: st.permutations(list(range(n)))
)


@given(underlying_perm)
@settings(max_examples=60)
def test_mapping_round_trip_property(order):
    perm = Permutation(tuple(order))
    assert read_mapping_table(write_mapping_table(perm)).as_permutation().order == perm.order


class TestPatternFile:
    def test_round_trip(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=9)
        block = gen_random_block(cfg, seed=4)
        out = read_pattern(write_pattern(block))
        assert np.array_equal(out.cells, block.cells)

    def test_file_size(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=9)
        block = gen_random_block(cfg, seed=4)
        assert len(write_pattern(block)) == 13 + 5 * 9

    def test_cell_byte_out_of_range(self):
        block = BlockPattern(np.zeros((3, 2), dtype=np.uint8))
        data = bytearray(write_pattern(block))
        data[13] = 0x10
        with pytest.raises(LevelOutOfRange):
            read_pattern(bytes(data))

    def test_bad_magic_and_truncation(self):
        block = BlockPattern(np.zeros((3, 2), dtype=np.uint8))
        data = write_pattern(block)
        with pytest.raises(BadMagic):
            read_pattern(b"XXXX" + data[4:])
        with pytest.raises(TruncatedFile):
            read_pattern(data[:-1])


@given(st.integers(3, 8), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=60)
def test_pattern_round_trip_property(n, c, seed):
    block = gen_random_block(ArchConfig(num_wordlines=n, cells_per_page=c), seed)
    assert np.array_equal(read_pattern(write_pattern(block)).cells, block.cells)


# (decoder, magic, header fields after the version byte) for every binary format.
DECODERS = [
    (read_pattern, b"PDAP", "II"),
    (read_mapping_table, b"PDAM", "H"),
    (read_checkpoint, b"PDAW", "IIII"),
]


def _decode_or_typed_error(decode, data):
    try:
        decode(data)
    except ArrangeError:
        pass


@given(st.binary(max_size=96))
@settings(max_examples=300)
def test_decoders_accept_arbitrary_bytes(data):
    for decode, magic, _ in DECODERS:
        _decode_or_typed_error(decode, data)
        _decode_or_typed_error(decode, magic + data)


@given(st.data())
@settings(max_examples=300)
def test_decoders_accept_random_header_dimensions(data):
    decode, magic, fields = data.draw(st.sampled_from(DECODERS))
    top = {"I": 2**32 - 1, "H": 2**16 - 1}
    dims = [
        data.draw(st.one_of(st.integers(0, 4), st.integers(0, top[f]))) for f in fields
    ]
    body = data.draw(st.binary(max_size=64))
    _decode_or_typed_error(decode, magic + struct.pack("<B" + fields, 1, *dims) + body)
