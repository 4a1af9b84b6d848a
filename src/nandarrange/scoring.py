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

from .core import LEVELS, ArchConfig, BlockPattern, validate_pattern
from .errors import LengthMismatch, LevelOutOfRange, TooFewWordlines

# Columns processed per slab when materializing the triple-score tensor, so
# full-device page widths (C > 100k) do not allocate an N^3 x C intermediate.
_TENSOR_COLUMN_CHUNK = 8192

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


def block_score(pattern: BlockPattern, cfg: ArchConfig) -> float:
    """Total migration score S_T: the sum over the N-2 interior wordline triples."""
    if pattern.num_wordlines < 3:
        raise TooFewWordlines(
            f"block score needs >= 3 wordlines, got {pattern.num_wordlines}"
        )
    validate_pattern(pattern, cfg)
    cells = pattern.cells
    return float(score_table(cfg)[cells[:-2], cells[1:-1], cells[2:]].sum())


def build_score_tensor(pattern: BlockPattern, cfg: ArchConfig) -> np.ndarray:
    """N x N x N tensor of page-triple scores over ordered source-page triples.

    Entry (a, b, c) scores placing source page a under, b in the middle and c
    on top at some consecutive wordline triple; entries with repeated indices
    are zeroed because a page can occupy only one position. The block score of
    any arrangement sigma equals the sum of entries
    (sigma[t], sigma[t+1], sigma[t+2]) over t.
    """
    global _tensor_builds
    if pattern.num_wordlines < 3:
        raise TooFewWordlines(
            f"score tensor needs >= 3 wordlines, got {pattern.num_wordlines}"
        )
    validate_pattern(pattern, cfg)
    cells = pattern.cells
    n = pattern.num_wordlines
    lut = score_table(cfg)
    tensor = np.zeros((n, n, n), dtype=np.float64)
    for start in range(0, pattern.cells_per_page, _TENSOR_COLUMN_CHUNK):
        chunk = cells[:, start : start + _TENSOR_COLUMN_CHUNK]
        tensor += lut[
            chunk[:, None, None, :], chunk[None, :, None, :], chunk[None, None, :, :]
        ].sum(axis=-1)
    idx = np.arange(n)
    repeated = (
        (idx[:, None, None] == idx[None, :, None])
        | (idx[None, :, None] == idx[None, None, :])
        | (idx[:, None, None] == idx[None, None, :])
    )
    tensor[repeated] = 0.0
    _tensor_builds += 1
    return tensor
