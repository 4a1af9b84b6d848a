"""Lateral-charge-migration scoring: cell triples, page triples, whole blocks.

Higher scores mean less migration impact. A cell's score depends on its own
level, the levels of its vertical neighbors on the same bitline, and an
erase-adjacency coupling coefficient. Block scores sum the interior wordline
triples only: edge wordlines lack one neighbor, so exactly N-2 triples exist
and the block score decomposes over consecutive triples of any arrangement.
The per-cell gathers and the score tensor's column blocks walk the block in
chunks of the one working-set budget, core.CHUNK_BYTES.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .core import ERASED, LEVELS, ArchConfig, BlockPattern, chunks, validate_pattern
from .errors import LengthMismatch, LevelOutOfRange, TooFewWordlines

_tensor_builds = 0


def tensor_build_count() -> int:
    """Process-wide count of score-tensor constructions (inference-purity probe)."""
    return _tensor_builds


def _check_level(name: str, value: int) -> int:
    value = int(value)
    if not 0 <= value < LEVELS:
        raise LevelOutOfRange(f"{name} level {value} outside 0..{LEVELS - 1}")
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
    under = _check_level("under", under)
    mid = _check_level("mid", mid)
    up = _check_level("up", up)
    f = (
        cfg.k2 * (LEVELS - abs(under - mid)) + cfg.k1 * (LEVELS - abs(mid - up))
    ) / (cfg.alpha * (cfg.k1 + cfg.k2))
    return ae_coefficient(under, mid, up) * (LEVELS - mid) * f


@lru_cache(maxsize=8)
def _cell_lut(k1: float, k2: float, alpha: float) -> np.ndarray:
    # The smallest geometry, which admits every coefficient set some block does.
    cfg = ArchConfig(num_wordlines=3, cells_per_page=1, k1=k1, k2=k2, alpha=alpha)
    triples = itertools.product(range(LEVELS), repeat=3)
    lut = np.array([cell_score(*t, cfg) for t in triples]).reshape(LEVELS, LEVELS, LEVELS)
    lut.flags.writeable = False
    return lut


def score_table(cfg: ArchConfig) -> np.ndarray:
    """Read-only 16x16x16 table of cell_score over every (under, mid, up) level triple."""
    return _cell_lut(cfg.k1, cfg.k2, cfg.alpha)


def page_triple_score(
    under_page: np.ndarray, mid_page: np.ndarray, up_page: np.ndarray, cfg: ArchConfig
) -> float:
    """Sum of cell scores across all bitlines of one wordline triple."""
    under_page = np.asarray(under_page)
    mid_page = np.asarray(mid_page)
    up_page = np.asarray(up_page)
    if not (under_page.shape == mid_page.shape == up_page.shape) or under_page.ndim != 1:
        raise LengthMismatch(
            f"page vectors must share one length, got {under_page.shape}, "
            f"{mid_page.shape}, {up_page.shape}"
        )
    BlockPattern(np.stack((under_page, mid_page, up_page)))  # LevelOutOfRange unless 0..15
    return float(score_table(cfg)[under_page, mid_page, up_page].sum())


def gather_triples(
    table: np.ndarray, pattern: BlockPattern, cfg: ArchConfig, out: np.ndarray
) -> None:
    """out[t, i] = table[x[t, i], x[t+1, i], x[t+2, i]] over the interior cells.

    ``table`` is any 16x16x16 per-triple table indexed [under, mid, up], x is
    the validated pattern's cells, and ``out`` is (N-2) x C. The triples are
    packed into one whole-block uint16 index, under << 8 | mid << 4 | up,
    built in place from the cells so no converted copy of the block exists
    beside it. take converts its index to intp first, so the gather walks the
    index in chunks charged 8 bytes a cell against core.CHUNK_BYTES; the index
    is in range by construction, and mode="clip" keeps take from buffering a
    copy of its output. ``out`` must be a C-contiguous (N-2) x C array, so
    that its flat reshape is a view the chunks write into; any other ``out``
    raises ValueError before anything is written.
    """
    validate_pattern(pattern, cfg)
    cells = pattern.cells
    if out.shape != cells[2:].shape or not out.flags.c_contiguous:
        raise ValueError(f"gather output must be a C-contiguous {cells[2:].shape} array")
    index = np.left_shift(cells[:-2], 4, dtype=np.uint16, casting="unsafe")
    np.bitwise_or(index, cells[1:-1], out=index, casting="unsafe")
    index <<= 4
    np.bitwise_or(index, cells[2:], out=index, casting="unsafe")
    flat_index = index.reshape(-1)
    flat_out = out.reshape(-1)
    for part in chunks(flat_index.size, 8):
        np.take(table, flat_index[part], out=flat_out[part], mode="clip")


def block_score(pattern: BlockPattern, cfg: ArchConfig) -> float:
    """Total migration score S_T: the sum over the N-2 interior wordline triples.

    The values fill the interior rows of one N x C array, summed by a single
    ``sum``: numpy's pairwise order over them pins the result's bits, which a
    chunked sum would change. N x C is the size of the channel's voltages, so
    glibc malloc reuses the space either frees for the other; an (N-2) x C
    array raised the paper-arrange benchmark's peak RSS from 72 to 88 MiB.
    """
    if pattern.num_wordlines < 3:
        raise TooFewWordlines(
            f"block score needs >= 3 wordlines, got {pattern.num_wordlines}"
        )
    values = np.empty(pattern.cells.shape, dtype=np.float64)
    gather_triples(score_table(cfg), pattern, cfg, values[1:-1])
    return float(values[1:-1].sum())


# Column blocks of the score-tensor build hold at most this many cells, so
# that 720 k < 2^24 keeps every float32 block sum exact (see build_score_tensor).
_EXACT_BLOCK_CELLS = 16_384


def _block_width(num_wordlines: int) -> int:
    """Cells per column block of the score-tensor build at N wordlines, each
    charged its 4 N^2 bytes of the float32 block buffer."""
    return next(chunks(_EXACT_BLOCK_CELLS, 4 * num_wordlines**2)).stop


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
    fewer). A block forms Q, then P, for all N^2 (a, b) pairs in one reused
    (N, N, k) float32 buffer; a float32 matrix-vector product sums Q over the
    block into a float64 (N, N) accumulator, and one (N^2, k) by (k, N)
    float32 matmul adds the block's p into the float64 tensor.

    Exactness: every Q entry is an integer in [0, 256] and every P entry an
    integer in [-720, 0] (16 * 15 * 3), so any partial sum of a block, in any
    order, is an integer of magnitude at most 720 k < 2^24 for k <= 16,384:
    the float32 block sums are exact whatever the BLAS blocking or thread
    count. The float64 accumulators hold integers of magnitude below 4000 C,
    far below 2^53 for any C a PDAP file can hold, so M is exact and rounding
    happens only in the final combination with k1, k2 and alpha.

    Memory is O(N^2 k + N^3) whatever C: the float32 block stays within
    core.CHUNK_BYTES (or one column), the matmul output is N^3 float32, and
    the float64 tensor doubles as the accumulator.
    """
    global _tensor_builds
    if pattern.num_wordlines < 3:
        raise TooFewWordlines(
            f"score tensor needs >= 3 wordlines, got {pattern.num_wordlines}"
        )
    validate_pattern(pattern, cfg)
    n, c = pattern.cells.shape
    width = min(_block_width(n), c)
    buffer = np.empty(n * n * width, dtype=np.float32)
    ones = np.ones(width, dtype=np.float32)
    products = np.empty((n * n, n), dtype=np.float32)
    row_sums = np.zeros(n * n, dtype=np.float64)
    # Not np.zeros: its fresh calloc pages fault in during the first block's
    # add, which measured several times slower than this fill at N=64.
    tensor = np.empty((n, n, n), dtype=np.float64)
    pair_sums = tensor.reshape(n * n, n)
    pair_sums.fill(0.0)
    for start in range(0, c, width):
        levels = pattern.cells[:, start : start + width].astype(np.float32)
        k = levels.shape[1]
        erased = (levels == ERASED).astype(np.float32)
        block = buffer[: n * n * k].reshape(n, n, k)
        # block[a, b] = Q[a, b] = (16 - |x_a - m|) w, then P = Q z (2 e_a - 3).
        np.subtract(levels[:, None, :], levels[None, :, :], out=block)
        np.abs(block, out=block)
        np.subtract(LEVELS, block, out=block)
        block *= (LEVELS - levels)[None, :, :]
        flat = block.reshape(n * n, k)
        row_sums += flat @ ones[:k]
        block *= (1 - erased)[None, :, :]
        block *= (2 * erased - 3)[:, None, :]
        np.matmul(flat, erased.T, out=products)
        pair_sums += products
    idx = np.arange(n)
    row_terms = 5 * row_sums.reshape(n, n) + 3 * tensor[idx, :, idx]
    scale = cfg.alpha * (cfg.k1 + cfg.k2)
    for b in range(n):
        pair = tensor[:, b, :] + row_terms[:, b, None]
        tensor[:, b, :] = (cfg.k2 * pair + cfg.k1 * pair.T) / scale
    tensor[idx, idx, :] = 0.0
    tensor[:, idx, idx] = 0.0
    tensor[idx, :, idx] = 0.0
    _tensor_builds += 1
    return tensor
