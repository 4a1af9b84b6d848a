"""Lateral-charge-migration scoring: cell triples and whole blocks.

Higher scores mean less migration impact. A cell's score depends on its own
level, the levels of its vertical neighbors on the same bitline, and an
erase-adjacency coupling coefficient. Block scores sum the interior wordline
triples only: edge wordlines lack one neighbor, so exactly N-2 triples exist
and the block score decomposes over consecutive triples of any arrangement.
The per-cell gathers, the leaves of the block score's sum and the score
tensor's column blocks are sized from the one working-set budget,
core.CHUNK_BYTES, so no pass holds an array of the block's size in floats.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from functools import lru_cache, partial

import numpy as np

from .core import (
    ERASED,
    LEVELS,
    TENSOR_BYTES,
    ArchConfig,
    BlockPattern,
    brief,
    chunk_size,
    on_helper_thread,
    second_thread,
    validate_pattern,
)
from .errors import LevelOutOfRange, TooManyWordlines

_tensor_builds = 0


def tensor_build_count() -> int:
    """Process-wide count of score-tensor constructions (inference-purity probe)."""
    return _tensor_builds


def _check_level(name: str, value: int) -> int:
    value = int(value)
    if not 0 <= value < LEVELS:
        raise LevelOutOfRange(f"{name} level {brief(value)} outside 0..{LEVELS - 1}")
    return value


def ae_coefficient(under: int, mid: int, up: int) -> int:
    """Erase-adjacency coupling coefficient of a vertical cell triple.

    Depends only on which of the three cells are erased (level 0) versus
    programmed. An erased middle cell is insensitive to its neighbors (5);
    a programmed cell between two erased ones is the most exposed (1); one
    erased neighbor gives the intermediate coupling (2).
    """
    under = _check_level("under", under)
    mid = _check_level("mid", mid)
    up = _check_level("up", up)
    if mid == 0:
        return 5
    if under != 0 and up != 0:
        return 5
    if under == 0 and up == 0:
        return 1
    return 2


def cell_score(under: int, mid: int, up: int, cfg: ArchConfig) -> float:
    """Score of the middle cell of a vertical triple; higher = less migration."""
    coupling = ae_coefficient(under, mid, up)
    under, mid, up = int(under), int(mid), int(up)
    f = (
        cfg.k2 * (LEVELS - abs(under - mid)) + cfg.k1 * (LEVELS - abs(mid - up))
    ) / (cfg.alpha * (cfg.k1 + cfg.k2))
    return coupling * (LEVELS - mid) * f


@lru_cache(maxsize=8)
def score_table(cfg: ArchConfig) -> np.ndarray:
    """Read-only 16x16x16 table of cell_score over every (under, mid, up) level
    triple. Cached per config, which a frozen ArchConfig lets it key on."""
    triples = itertools.product(range(LEVELS), repeat=3)
    lut = np.array([cell_score(*t, cfg) for t in triples]).reshape(LEVELS, LEVELS, LEVELS)
    lut.flags.writeable = False
    return lut


def gather_triples(
    table: np.ndarray, pattern: BlockPattern, start: int, out: np.ndarray, index: np.ndarray
) -> None:
    """out[k] = table[x[s], x[s + C], x[s + 2C]] for s = start + k.

    ``table`` is any 16x16x16 per-triple table indexed [under, mid, up], x is
    the pattern's cells in flat (row-major) order, and s runs over
    the interior cells 0 .. (N-2) C in the same order: interior cell s is the
    middle of the vertical triple (x[s], x[s + C], x[s + 2C]), so any run of
    interior cells reads three contiguous runs of the cells. The triples are
    packed as under << 8 | mid << 4 | up into ``index``, a reused uint16
    buffer at least as long as ``out``, and read by one take. take converts
    its index to intp first, 8 bytes a cell, so callers pass runs of about
    core.CHUNK_BYTES // 8 cells; the index is in range by construction, and
    mode="clip" keeps take from buffering a copy of its output. ``out`` must
    be a one-dimensional C-contiguous run inside the interior, or ValueError
    is raised before anything is written. The pattern's shape is the
    caller's to check, once per pass, against its ArchConfig.
    """
    cells = pattern.cells.reshape(-1)
    c = pattern.cells_per_page
    stop = start + out.size
    if out.ndim != 1 or not out.flags.c_contiguous or index.size < out.size:
        raise ValueError("gather output must be a one-dimensional C-contiguous array "
                         "no longer than its index buffer")
    if not 0 <= start <= stop <= cells.size - 2 * c:
        raise ValueError(
            f"interior cells {start}..{stop} outside 0..{cells.size - 2 * c}"
        )
    index = index[: out.size]
    np.left_shift(cells[start:stop], 4, out=index, dtype=np.uint16, casting="unsafe")
    np.bitwise_or(index, cells[start + c : stop + c], out=index, casting="unsafe")
    index <<= 4
    np.bitwise_or(index, cells[start + 2 * c : stop + 2 * c], out=index, casting="unsafe")
    np.take(table, index, out=out, mode="clip")


# numpy's pairwise sum adds runs of at most this many values in one loop.
_PAIRWISE_BLOCK = 128


def block_score(pattern: BlockPattern, cfg: ArchConfig) -> float:
    """Total migration score S_T: the sum over the N-2 interior wordline triples.

    The result is the bits of one ``np.sum`` over the (N-2) x C interior cell
    scores, without that array. numpy sums a contiguous float64 run by a fixed
    pairwise tree (Higham, "The accuracy of floating point summation", 1993):
    a node of n > 128 values splits at n2 = n // 2 - (n // 2) % 8, and each
    subtree's sum is exactly np.sum of its own range. So the walk mirrors
    that split down to nodes of at most max(core.CHUNK_BYTES // 8, 128)
    values, gathers each such leaf into one reused float64 buffer, sums it
    with np.sum, and adds the leaf sums up the same tree. The 128 floor makes
    every node numpy sums without splitting a leaf, whatever the budget.
    Memory is the leaf buffer, its uint16 index and take's intp copy of it:
    about 2.25 MiB at the default budget, whatever N and C. A pattern not of
    cfg's shape raises DimensionMismatch; cfg's N >= 3 leaves a triple to sum.
    """
    validate_pattern(pattern, cfg)
    table = score_table(cfg)
    count = (pattern.num_wordlines - 2) * pattern.cells_per_page
    leaf = max(chunk_size(8), _PAIRWISE_BLOCK)
    values = np.empty(min(count, leaf), dtype=np.float64)
    index = np.empty(values.size, dtype=np.uint16)

    def tree_sum(start: int, n: int) -> np.float64:
        if n <= leaf:
            gather_triples(table, pattern, start, values[:n], index)
            return values[:n].sum()
        half = n // 2 - n // 2 % 8
        return tree_sum(start, half) + tree_sum(start + half, n - half)

    return float(tree_sum(0, count))


# Column blocks of the score-tensor build hold at most this many cells, so
# that 720 k < 2^24 keeps every float32 block sum exact (see build_score_tensor).
_EXACT_BLOCK_CELLS = 16_384


def _block_width(num_wordlines: int) -> int:
    """Cells per column block of the score-tensor build at N wordlines, each
    charged its 4 N^2 bytes of the float32 block buffer."""
    return min(_EXACT_BLOCK_CELLS, chunk_size(4 * num_wordlines**2))


def build_score_tensor(pattern: BlockPattern, cfg: ArchConfig) -> np.ndarray:
    """N x N x N tensor of page-triple scores over ordered source-page triples.

    Entry (a, b, c) scores placing source page a under, b in the middle and c
    on top at some consecutive wordline triple; entries with repeated indices
    are zeroed because a page can occupy only one position. The block score of
    any arrangement sigma equals the sum of entries
    (sigma[t], sigma[t+1], sigma[t+2]) over t.

    Built without the 16^3 table. With x = pattern.cells, m_i = x[b, i],
    w_i = 16 - m_i, z_i = [m_i != 0], e_ai = [x[a, i] = 0] and
    D_ai = 16 - |x[a, i] - m_i|, the coupling coefficient is
    5 - z_i (3 e_ai + 3 e_ci - 2 e_ai e_ci), so summing cell_score over the
    bitlines gives

        M[a, b, c] = r[a, b] + p[a, b, c],   p[a, b, c] = sum_i P[a, b, i] e_ci
        Q[a, b, i] = D_ai w_i,   P[a, b, i] = Q[a, b, i] z_i (2 e_ai - 3)
        r[a, b]    = 5 sum_i Q[a, b, i] - 3 sum_i Q[a, b, i] z_i e_ai
                   = 5 sum_i Q[a, b, i] + 3 p[a, b, a]
        T[a, b, c] = (k2 M[a, b, c] + k1 M[c, b, a]) / (alpha (k1 + k2)).

    The second form of r holds because (2 e_ai - 3) e_ai = -e_ai, so r is
    read off the pair sums once the last block is in, and added per middle
    page as T is formed.

    The page is walked in column blocks of k = _block_width(N) cells (C if
    fewer). A block forms Q, then P, for the (a, b) pairs of a walk's
    under-pages a in one reused (rows, N, k) float32 buffer; a float32
    reduction sums Q over the block into a float64 (N, N) accumulator, and
    one float32 (N, k) by (k, N) matmul per under-page adds the block's p
    into the float64 tensor. Each matmul is N^2 k <= core.CHUNK_BYTES / 4 =
    2^18 multiply-adds (unless one column already passes the budget), which
    OpenBLAS 0.3.31 runs on the thread that calls it; one (N^2, k) by (k, N)
    product per block woke its worker thread and about doubled the build's
    CPU time for no wall-time gain.

    When the page spans two or more column blocks and core.second_thread
    admits it, the under-pages split in two halves: a helper thread walks
    every block for the upper half, in its own half-size buffer, while the
    calling thread walks the lower half. The halves own disjoint rows of
    the accumulators, so they share them, and the working set stays one
    block. Both walks do only the exact integer-valued float32 work below;
    every buffer is made, and the final combination with k1, k2 and alpha
    done, on the calling thread, under its np.errstate. Otherwise one walk
    takes every under-page on the calling thread.

    Exactness: every Q entry is an integer in [0, 256] and every P entry an
    integer in [-720, 0] (16 * 15 * 3), so any partial sum of a block, in any
    order, is an integer of magnitude at most 720 k < 2^24 for k <= 16,384:
    the float32 block sums are exact whatever the reduction order, BLAS
    blocking or thread count. The float64 accumulators hold integers of
    magnitude below 4000 C, far below 2^53 for any C a PDAP file can hold,
    so M is exact and rounding happens only in the final combination with
    k1, k2 and alpha.

    Memory is O(N^2 k + N^3) whatever C: the float32 block (both halves
    together) stays within core.CHUNK_BYTES (or one column), the matmul
    output is N^3 float32, and the float64 tensor doubles as the
    accumulator. A pattern not of cfg's shape raises DimensionMismatch, and
    one whose 12 N^3 bytes of N^3 arrays pass core.TENSOR_BYTES raises
    TooManyWordlines before anything is allocated.
    """
    global _tensor_builds
    validate_pattern(pattern, cfg)
    n, c = pattern.cells.shape
    if 12 * n**3 > TENSOR_BYTES:
        raise TooManyWordlines(
            f"a score tensor at N={n} needs {12 * n**3} bytes, past the "
            f"{TENSOR_BYTES}-byte budget"
        )
    width = min(_block_width(n), c)
    products = np.empty((n, n, n), dtype=np.float32)
    block_sums = np.empty((n, n), dtype=np.float32)
    row_sums = np.zeros((n, n), dtype=np.float64)
    # Not np.zeros: its fresh calloc pages fault in during the first block's
    # add, which measured several times slower than this fill at N=64.
    tensor = np.empty((n, n, n), dtype=np.float64)
    tensor.fill(0.0)
    # Each walk's buffers: the N x k levels, erased flags and per-cell
    # factor, and its rows x N x k block of page pairs.
    half = n // 2 if second_thread(-(-c // width)) else n
    walks = [
        (
            rows,
            np.empty((3, n, width), dtype=np.float32),
            np.empty((rows.stop - rows.start) * n * width, dtype=np.float32),
        )
        for rows in (slice(0, half), slice(half, n))
        if rows.start < rows.stop
    ]

    def walk(rows: slice, per_cell: np.ndarray, pairs: np.ndarray) -> None:
        # Every column block, for the under-pages ``rows`` only.
        for start in range(0, c, width):
            cells = pattern.cells[:, start : start + width]
            k = cells.shape[1]
            levels, erased, factor = per_cell[:, :, :k]
            np.copyto(levels, cells, casting="unsafe")
            np.equal(levels, ERASED, out=erased)
            block = pairs[: (rows.stop - rows.start) * n * k].reshape(-1, n, k)
            # block[a, b] = Q[a, b] = (16 - |x_a - m|) w, then P = Q z (2 e_a - 3).
            np.subtract(levels[rows, None, :], levels[None, :, :], out=block)
            np.abs(block, out=block)
            np.subtract(LEVELS, block, out=block)
            np.subtract(LEVELS, levels, out=factor)
            block *= factor[None, :, :]
            np.add.reduce(block, axis=2, out=block_sums[rows])
            row_sums[rows] += block_sums[rows]
            np.subtract(1, erased, out=factor)
            block *= factor[None, :, :]
            np.multiply(erased, 2, out=factor)
            factor -= 3
            block *= factor[rows, None, :]
            np.matmul(block, erased.T, out=products[rows])
            tensor[rows] += products[rows]

    with on_helper_thread(partial(walk, *walks[1])) if len(walks) == 2 else nullcontext():
        walk(*walks[0])
    idx = np.arange(n)
    row_terms = 5 * row_sums + 3 * tensor[idx, :, idx]
    scale = cfg.alpha * (cfg.k1 + cfg.k2)
    for b in range(n):
        pair = tensor[:, b, :] + row_terms[:, b, None]
        tensor[:, b, :] = (cfg.k2 * pair + cfg.k1 * pair.T) / scale
    tensor[idx, idx, :] = 0.0
    tensor[:, idx, idx] = 0.0
    tensor[idx, :, idx] = 0.0
    _tensor_builds += 1
    return tensor
