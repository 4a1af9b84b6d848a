"""Lateral-charge-migration scoring: cell triples, page triples, whole blocks.

Higher scores mean less migration impact. A cell's score depends on its own
level, the levels of its vertical neighbors on the same bitline, and an
erase-adjacency coupling coefficient. Block scores sum the interior wordline
triples only: edge wordlines lack one neighbor, so exactly N-2 triples exist
and the block score decomposes over consecutive triples of any arrangement.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .core import ERASED, LEVELS, ArchConfig, BlockPattern, validate_pattern
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
    cfg = ArchConfig(k1=k1, k2=k2, alpha=alpha)
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
    for name, page in (("under", under_page), ("mid", mid_page), ("up", up_page)):
        if not np.issubdtype(page.dtype, np.integer):
            raise LevelOutOfRange(f"{name} page must hold integer levels, got {page.dtype}")
        if page.size and (page.min() < 0 or page.max() >= LEVELS):
            raise LevelOutOfRange(f"{name} page holds a level outside 0..{LEVELS - 1}")
    return float(score_table(cfg)[under_page, mid_page, up_page].sum())


def triple_index(pattern: BlockPattern, cfg: ArchConfig) -> np.ndarray:
    """Validated (N-2) x C uint16 index of every interior cell's level triple.

    Entry (t, i) is under << 8 | mid << 4 | up for the cells of bitline i on
    wordlines t, t+1 and t+2, so ``table.ravel()[index]`` gathers any 16x16x16
    per-triple table (indexed [under, mid, up]) over the interior cells.
    """
    validate_pattern(pattern, cfg)
    cells = pattern.cells.astype(np.uint16)
    index = cells[:-2] << 4
    index |= cells[1:-1]
    index <<= 4
    index |= cells[2:]
    return index


def block_score(pattern: BlockPattern, cfg: ArchConfig) -> float:
    """Total migration score S_T: the sum over the N-2 interior wordline triples."""
    if pattern.num_wordlines < 3:
        raise TooFewWordlines(
            f"block score needs >= 3 wordlines, got {pattern.num_wordlines}"
        )
    return float(score_table(cfg).ravel()[triple_index(pattern, cfg)].sum())


def build_score_tensor(pattern: BlockPattern, cfg: ArchConfig) -> np.ndarray:
    """N x N x N tensor of page-triple scores over ordered source-page triples.

    Entry (a, b, c) scores placing source page a under, b in the middle and c
    on top at some consecutive wordline triple; entries with repeated indices
    are zeroed because a page can occupy only one position. The block score of
    any arrangement sigma equals the sum of entries
    (sigma[t], sigma[t+1], sigma[t+2]) over t.

    Built per middle page b without the 16^3 table. With x = pattern.cells,
    m_i = x[b, i], w_i = 16 - m_i, z_i = [m_i != 0], e_ai = [x[a, i] = 0] and
    D_ai = 16 - |x[a, i] - m_i|, the coupling coefficient is
    5 - z_i (3 e_ai + 3 e_ci - 2 e_ai e_ci), so summing cell_score over the
    bitlines gives

        M_b[a, c] = r_a + sum_i w_i z_i D_ai (2 e_ai - 3) e_ci
        r_a       = sum_i D_ai w_i (5 - 3 z_i e_ai)
        T[a, b, c] = (k2 M_b[a, c] + k1 M_b[c, a]) / (alpha (k1 + k2)),

    one N x C by C x N matmul per b. Every product and partial sum in M_b is
    an integer of magnitude at most 1280 C, far below 2^53 for any C a PDAP
    file can hold, so M_b is exact in float64 whatever the BLAS summation
    order or thread count; rounding happens only in the final
    combination with k1, k2 and alpha. Memory is O(N C + N^3) at any C.

    The N x C passes (|x - m|, the coupling and the sign) run in int16, where
    every value is at most 768 in magnitude, and each operand is converted to
    float64 once, just before its matmul.
    """
    global _tensor_builds
    if pattern.num_wordlines < 3:
        raise TooFewWordlines(
            f"score tensor needs >= 3 wordlines, got {pattern.num_wordlines}"
        )
    validate_pattern(pattern, cfg)
    n = pattern.num_wordlines
    # Signed levels: x - m in the pattern's own (possibly unsigned) dtype wraps.
    levels = pattern.cells.astype(np.int16)
    programmed = levels != ERASED
    sign = np.where(programmed, np.int16(-3), np.int16(-1))
    headroom = LEVELS - levels
    coupled = headroom * programmed
    erased = (~programmed).astype(np.float64)
    # The second r_a term for every b at once: D_ai e_ai = w_i e_ai.
    erased_term = erased @ (headroom * coupled).T.astype(np.float64)
    work = np.empty_like(levels)
    exact = np.empty(levels.shape, dtype=np.float64)
    tensor = np.empty((n, n, n), dtype=np.float64)
    for b in range(n):
        np.subtract(levels, levels[b], out=work)
        np.abs(work, out=work)
        np.subtract(LEVELS, work, out=work)
        np.copyto(exact, work)
        row_term = exact @ (5.0 * headroom[b]) - 3.0 * erased_term[:, b]
        work *= coupled[b]
        work *= sign
        np.copyto(exact, work)
        pair = exact @ erased.T
        pair += row_term[:, None]
        tensor[:, b, :] = (cfg.k2 * pair + cfg.k1 * pair.T) / (cfg.alpha * (cfg.k1 + cfg.k2))
    idx = np.arange(n)
    tensor[idx, idx, :] = 0.0
    tensor[:, idx, idx] = 0.0
    tensor[idx, :, idx] = 0.0
    _tensor_builds += 1
    return tensor
