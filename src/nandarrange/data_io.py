"""Gray-code level mapping, dataset production, and the binary file codecs.

Every binary format shares one framing, written once here by pack_header and
unpack_header: magic, version byte 0x01, little-endian header fields, then a
payload whose exact size the header fields fix. Two formats live here:

PDAP pattern file    magic "PDAP", N as u32, C as u32, then N*C raw cell
                     bytes wordline-major.
PDAM mapping table   magic "PDAM", N as u16, then N u16 entries; entry i =
                     source page stored at physical wordline i. Payload after
                     the 7-byte header is exactly 2N bytes, which is the whole
                     metadata cost of realizing an arrangement through FTL
                     address mapping.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import LEVELS, ArchConfig, BlockPattern, Permutation, check_seed
from .errors import (
    BadMagic,
    InvalidArgument,
    LevelOutOfRange,
    TooFewBlocks,
    TruncatedFile,
    UnsupportedVersion,
)

# Recorded in generation manifests so datasets can be reproduced bit-exactly.
GENERATOR_ID = "numpy-pcg64"

PATTERN_MAGIC = b"PDAP"
MAPPING_MAGIC = b"PDAM"
FORMAT_VERSION = 1

_GRAY = tuple(x ^ (x >> 1) for x in range(LEVELS))
_GRAY_INV = tuple(_GRAY.index(code) for code in range(LEVELS))
GRAY_TABLE = np.array(_GRAY, dtype=np.uint8)
GRAY_TABLE.flags.writeable = False


def gray_encode(level: int) -> int:
    """Reflected binary Gray code of a program level; bit k lands on logical page k."""
    level = int(level)
    if not 0 <= level < LEVELS:
        raise LevelOutOfRange(f"level {level} outside 0..{LEVELS - 1}")
    return _GRAY[level]


def gray_decode(code: int) -> int:
    code = int(code)
    if not 0 <= code < LEVELS:
        raise LevelOutOfRange(f"code {code} outside 0..{LEVELS - 1}")
    return _GRAY_INV[code]


def gen_random_block(cfg: ArchConfig, seed: int) -> BlockPattern:
    """Uniform i.i.d. levels from a seeded PCG64 stream (see GENERATOR_ID)."""
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    cells = rng.integers(0, LEVELS, size=(cfg.num_wordlines, cfg.cells_per_page), dtype=np.uint8)
    cells.flags.writeable = False
    return BlockPattern(cells)


def split_indices(count: int, seed: int) -> tuple[list[int], list[int]]:
    """Seeded shuffle of 0..count-1 followed by a 70/30 cut (half-up rounding)."""
    if count < 10:
        raise TooFewBlocks(f"need at least 10 blocks to split, got {count}")
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(count)
    n_train = (7 * count + 5) // 10
    return [int(i) for i in order[:n_train]], [int(i) for i in order[n_train:]]


def split_dataset(
    blocks: list[BlockPattern], seed: int
) -> tuple[list[BlockPattern], list[BlockPattern]]:
    """Disjoint, covering 7:3 train/test split, deterministic given seed."""
    train_idx, test_idx = split_indices(len(blocks), seed)
    return [blocks[i] for i in train_idx], [blocks[i] for i in test_idx]


@dataclass(frozen=True)
class MappingTable:
    """Deserialized FTL arrangement artifact: entry i = source page at wordline i."""

    entries: tuple[int, ...]

    def __post_init__(self):
        self.as_permutation()  # raises NotABijection unless the entries are a bijection

    def as_permutation(self) -> Permutation:
        return Permutation(self.entries)


def pack_header(magic: bytes, fields: str, *values: int) -> bytes:
    """Magic, version byte, then ``values`` as the little-endian struct ``fields``."""
    return magic + struct.pack("<B" + fields, FORMAT_VERSION, *values)


def unpack_header(
    data: bytes, magic: bytes, fields: str, payload_size: Callable[..., int]
) -> tuple[list[int], memoryview]:
    """Check the framing pack_header writes; return the header fields and a
    view of the payload, so that no copy of it is made here.

    ``payload_size`` maps the header fields to the exact payload byte count
    (raising a CodecError for fields that describe no valid object).
    """
    if data[:4] != magic:
        raise BadMagic(f"expected magic {magic!r}, got {bytes(data[:4])!r}")
    fmt = "<B" + fields
    header_len = 4 + struct.calcsize(fmt)
    if len(data) < header_len:
        raise TruncatedFile(f"{magic!r} header needs {header_len} bytes, file has {len(data)}")
    version, *values = struct.unpack_from(fmt, data, 4)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{magic!r} version {version}, supported: {FORMAT_VERSION}")
    expected = header_len + payload_size(*values)
    if len(data) != expected:
        raise TruncatedFile(f"{magic!r} for {values} must be {expected} bytes, got {len(data)}")
    return values, memoryview(data)[header_len:]


def write_mapping_table(perm: Permutation) -> bytes:
    n = len(perm)
    if n > 0xFFFF:
        raise InvalidArgument(f"mapping table limited to 65535 wordlines, got {n}")
    return pack_header(MAPPING_MAGIC, "H", n) + struct.pack(f"<{n}H", *perm.order)


def read_mapping_table(data: bytes) -> MappingTable:
    (n,), payload = unpack_header(data, MAPPING_MAGIC, "H", lambda n: 2 * n)
    return MappingTable(struct.unpack(f"<{n}H", payload))


def _pattern_parts(pattern: BlockPattern) -> tuple[bytes, np.ndarray]:
    """The PDAP header and the C-contiguous uint8 cells that follow it; uint8
    cells are not copied."""
    header = pack_header(PATTERN_MAGIC, "II", pattern.num_wordlines, pattern.cells_per_page)
    return header, pattern.cells.astype(np.uint8, copy=False)


def write_pattern(pattern: BlockPattern) -> bytes:
    return b"".join(_pattern_parts(pattern))


def read_pattern(data: bytes) -> BlockPattern:
    """Decode a PDAP file. The cells of a ``bytes`` file are a read-only view
    of its payload, which the pattern keeps without a copy."""
    (n, c), payload = unpack_header(data, PATTERN_MAGIC, "II", lambda n, c: n * c)
    return BlockPattern(np.frombuffer(payload, dtype=np.uint8).reshape(n, c))


def save_pattern(path: str | Path, pattern: BlockPattern) -> None:
    """Write the header, then the cell buffer itself: no file-sized bytes is made."""
    with open(path, "wb") as file:
        file.writelines(_pattern_parts(pattern))


def load_pattern(path: str | Path) -> BlockPattern:
    return read_pattern(Path(path).read_bytes())


def save_mapping_table(path: str | Path, perm: Permutation) -> None:
    Path(path).write_bytes(write_mapping_table(perm))


def load_mapping_table(path: str | Path) -> MappingTable:
    return read_mapping_table(Path(path).read_bytes())
