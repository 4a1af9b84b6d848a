"""Domain types and permutation mechanics for wordline-level page arrangement.

A block is an N x C integer matrix: row n is the physical page on wordline n,
column i is a bitline. Cells hold QLC program levels 0..15 (0 = erased).
Arrangement decisions are permutations in gather form: ``order[i]`` names the
source page stored at physical wordline position i.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    LevelOutOfRange,
    NotABijection,
)

LEVELS = 16
ERASED = 0

# Working-set budget of every chunked pass: each walks as many items (cells,
# page columns, starting pairs, permutation rows) per chunk as fit at its own
# bytes per item. Read at call time, so one setting reaches every pass.
CHUNK_BYTES = 2**20

# Largest score tensor a build may allocate: its float64 tensor and float32
# products take 12 N^3 bytes, so 2 GiB admits N <= 563.
TENSOR_BYTES = 2**31


def chunk_size(item_bytes: int) -> int:
    """Items of ``item_bytes`` bytes that fit in CHUNK_BYTES, and at least one."""
    return max(1, CHUNK_BYTES // item_bytes)


def chunks(count: int, item_bytes: int):
    """In-order slices of range(count), each of chunk_size(item_bytes) items
    but the last."""
    size = chunk_size(item_bytes)
    return (slice(start, min(start + size, count)) for start in range(0, count, size))


def usable_cpus() -> int:
    """CPUs this process may run on (all of the host's where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def second_thread(num_chunks: int) -> bool:
    """Whether a pass of ``num_chunks`` chunks runs part of its work on a
    helper thread: it spans at least two chunks and the process may run on
    at least two CPUs. The CPUs are counted at each call."""
    return num_chunks >= 2 and usable_cpus() >= 2


@contextmanager
def on_helper_thread(work: Callable[[], object]):
    """Run ``work()`` on a new thread while the body of the with-statement
    runs on the calling thread. The thread is joined when the statement
    ends, however it ends, and an exception ``work`` raised is raised again
    in the caller unless the body raised its own.

    The helper thread starts with numpy's default error state, not the
    caller's, so ``work`` must do nothing that np.errstate governs.
    """
    failure = []

    def run():
        try:
            work()
        except BaseException as exc:
            failure.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    try:
        yield
    finally:
        thread.join()
    if failure:
        raise failure[0]


def brief(value) -> str:
    """``value`` as a refusal message shows it: in full, except an integer of
    more than 64 bits (str() refuses past 4,300 digits), shown by its size."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"
    return str(value)


def check_seed(seed: int) -> None:
    """Raise InvalidArgument unless seed >= 0, the range every seeded stream takes."""
    if seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {brief(seed)}")


@dataclass(frozen=True)
class ArchConfig:
    """Block geometry plus the lateral-coupling score coefficients.

    k1 weighs the upside neighbor (wordline n+1), k2 the underside neighbor
    (wordline n-1); alpha rescales all scores without changing their order.
    The coefficients must keep every score the geometry admits a finite
    float (InvalidArgument otherwise).
    """

    num_wordlines: int = 16
    cells_per_page: int = 64
    k1: float = 4.0
    k2: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if self.num_wordlines < 3:
            raise InvalidArgument(
                "num_wordlines must be >= 3 (a wordline triple must exist), "
                f"got {brief(self.num_wordlines)}"
            )
        if self.cells_per_page < 1:
            raise InvalidArgument(
                f"cells_per_page must be positive, got {brief(self.cells_per_page)}"
            )
        if not all(0 < v <= sys.float_info.max for v in (self.k1, self.k2, self.alpha)):
            raise InvalidArgument("k1, k2 and alpha must all be positive and finite")
        # Bound, in floats as the scores are, the divisor alpha (k1 + k2), a page
        # triple's numerator k2 M + k1 M' (M <= 1280 C, 5 * 16 * 16 per cell)
        # and the block score over N - 2 triples; the factors 2 cover rounding.
        # float() of an integer past the float range raises OverflowError.
        try:
            k1, k2, alpha = float(self.k1), float(self.k2), float(self.alpha)
            scale = alpha * (k1 + k2)
            numerator = 2 * max(k1, k2) * 1280 * self.cells_per_page
            in_range = 0 < scale < math.inf and math.isfinite(
                numerator / scale * 2 * (self.num_wordlines - 2)
            )
        except OverflowError:
            in_range = False
        if not in_range:
            raise InvalidArgument(
                f"k1={brief(self.k1)}, k2={brief(self.k2)}, alpha={brief(self.alpha)} put the "
                f"scores of a {brief(self.num_wordlines)}x{brief(self.cells_per_page)} block "
                "outside the float range"
            )


@dataclass(frozen=True, eq=False)
class BlockPattern:
    """Immutable N x C matrix of program levels 0..15, wordline-major.

    The levels are checked here, once: any other value raises LevelOutOfRange
    naming the first offending cell in row-major order. After the check, a
    C-contiguous array that no array can write (see _unwritable) is kept as
    it is, so a block read from file bytes, or made read-only by the
    function that made it, is held once; any other input is copied into a
    read-only array."""

    cells: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cells)
        if arr.ndim != 2:
            raise DimensionMismatch(f"cells must be a 2-D matrix, got ndim={arr.ndim}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise LevelOutOfRange(f"cells must hold integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() > LEVELS - 1):
            row, col = np.argwhere((arr < 0) | (arr > LEVELS - 1))[0]
            raise LevelOutOfRange(
                f"cell ({row}, {col}) holds {int(arr[row, col])}, allowed range is 0..{LEVELS - 1}"
            )
        if not (arr.flags.c_contiguous and _unwritable(arr)):
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "cells", arr)

    @property
    def num_wordlines(self) -> int:
        return self.cells.shape[0]

    @property
    def cells_per_page(self) -> int:
        return self.cells.shape[1]


def _unwritable(arr: np.ndarray) -> bool:
    """Whether no array can write ``arr``'s memory: ``arr`` and every array
    it views are read-only, and that memory is owned by the last of them or
    by an immutable bytes object."""
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return base is None or isinstance(base, bytes)


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..N-1; ``order[i]`` = source page placed at position i."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(v) for v in self.order)
        n = len(order)
        if sorted(order) != list(range(n)):
            raise NotABijection(_bijection_fault(order))
        object.__setattr__(self, "order", order)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.order)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.order, dtype=np.int64)


def _bijection_fault(order: tuple[int, ...]) -> str:
    """Why ``order`` is no bijection, in a few words whatever its length."""
    n = len(order)
    missing = min(set(range(n)).difference(order))
    seen = set()
    for value in order:
        if value in seen or not 0 <= value < n:
            break
        seen.add(value)
    kind = "repeats" if value in seen else "is out of range"
    return (
        f"not a bijection on 0..{n - 1} (N={n}): entry {brief(value)} {kind}, "
        f"page {missing} is missing"
    )


def validate_pattern(pattern: BlockPattern, cfg: ArchConfig) -> None:
    """Raise DimensionMismatch unless ``pattern`` has the shape ``cfg`` names.

    Its levels need no check: BlockPattern admits only levels 0..15.
    """
    cells = pattern.cells
    if cells.shape != (cfg.num_wordlines, cfg.cells_per_page):
        raise DimensionMismatch(
            f"pattern is {cells.shape[0]}x{cells.shape[1]}, "
            f"config wants {cfg.num_wordlines}x{cfg.cells_per_page}"
        )


def apply_permutation(pattern: BlockPattern, perm: Permutation) -> BlockPattern:
    """Gather rows: result row i = pattern row ``perm.order[i]``. Input unchanged."""
    if len(perm) != pattern.num_wordlines:
        raise DimensionMismatch(
            f"permutation length {len(perm)} != wordline count {pattern.num_wordlines}"
        )
    cells = pattern.cells[perm.as_array()]
    cells.flags.writeable = False
    return BlockPattern(cells)
