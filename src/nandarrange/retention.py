"""Synthetic lateral-migration retention channel.

Each interior cell's susceptibility is the normalized complement of its own
wordline-triple score, so the channel degrades exactly the configurations the
scoring model marks as exposed: charge drifts toward the k1/k2-weighted
neighbor mix at a rate set by coupling * time, scaled up for higher program
levels, and only once exposure clears a release threshold. Edge wordlines
have no complete triple and are modeled as drift-free. Gaussian read noise is
added last. The channel exists to make the score-versus-BER inverse relation
testable at desk scale; it is not a device model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import LEVELS, ArchConfig, BlockPattern, validate_pattern
from .errors import DimensionMismatch, InvalidArgument
from .data_io import GRAY_TABLE
from .scoring import score_table

_POPCOUNT4 = np.array([bin(v).count("1") for v in range(LEVELS)], dtype=np.int64)
BITS_PER_CELL = 4

# Exposure below this fraction of the score range moves no charge; the scale
# maps full exposure (the minimum-score triple, e.g. erased/full/erased) to a
# drift of coupling*time*15 level units, matching the weighted-pull magnitude
# of that worst case.
EXPOSURE_THRESHOLD = 0.25
FULL_EXPOSURE_DRIFT = 15.0


@dataclass(frozen=True)
class RetentionConfig:
    coupling: float = 0.08
    time: float = 1.0
    saturation_gain: float = 0.5
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("coupling", "time", "saturation_gain", "noise_sigma"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be non-negative")


def cell_exposure(pattern: BlockPattern, cfg: ArchConfig) -> np.ndarray:
    """Per-cell exposure in [0, 1]: 0 at the best-scoring triple, 1 at the worst.

    Interior cells score their own (below, self, above) triple; edge wordlines
    have no triple and get exposure 0. Uses alpha-normalized scores so the
    exposure is invariant to the score-range coefficient.
    """
    x = pattern.cells
    lut = score_table(replace(cfg, alpha=1.0))
    best, worst = lut.max(), lut.min()
    exposure = np.zeros(x.shape, dtype=np.float64)
    exposure[1:-1] = (best - lut[x[:-2], x[1:-1], x[2:]]) / (best - worst)
    return exposure


def simulate_retention(
    pattern: BlockPattern, cfg: ArchConfig, rcfg: RetentionConfig
) -> np.ndarray:
    """Analog read voltages (level units) after one retention period.

    Drift per interior cell: coupling * time * (1 + gain * level/15) *
    sign(weighted neighbor pull) * 15 * max(0, (exposure - threshold) /
    (1 - threshold)). Cells in level-equilibrium with their neighbors (zero
    pull) and cells below the exposure threshold do not move; the worst-case
    triple drifts by the full weighted-pull magnitude. Deterministic given
    rcfg.seed.
    """
    validate_pattern(pattern, cfg)
    levels = pattern.cells.astype(np.float64)
    n = pattern.num_wordlines
    rate = rcfg.coupling * rcfg.time
    saturation = 1.0 + rcfg.saturation_gain * levels / (LEVELS - 1)

    pull = np.zeros_like(levels)
    pull[:-1] += cfg.k1 * (levels[1:] - levels[:-1])
    pull[1:] += cfg.k2 * (levels[:-1] - levels[1:])

    exposure = cell_exposure(pattern, cfg)
    response = np.clip(
        (exposure - EXPOSURE_THRESHOLD) / (1.0 - EXPOSURE_THRESHOLD), 0.0, 1.0
    )
    drift = rate * saturation * np.sign(pull) * FULL_EXPOSURE_DRIFT * response

    voltages = levels + drift
    if rcfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(rcfg.seed))
        voltages = voltages + rng.normal(0.0, rcfg.noise_sigma, size=(n, pattern.cells_per_page))
    return voltages


def read_back(voltages: np.ndarray) -> BlockPattern:
    """Quantize voltages to the nearest level, round half up, clamp to 0..15."""
    voltages = np.asarray(voltages, dtype=np.float64)
    levels = np.clip(np.floor(voltages + 0.5), 0, LEVELS - 1)
    return BlockPattern(levels.astype(np.uint8))


def measure_ber(original: BlockPattern, readback: BlockPattern) -> float:
    """Fraction of differing Gray-coded bits between two patterns."""
    if original.cells.shape != readback.cells.shape:
        raise DimensionMismatch(
            f"patterns differ in shape: {original.cells.shape} vs {readback.cells.shape}"
        )
    a = GRAY_TABLE[original.cells]
    b = GRAY_TABLE[readback.cells]
    flipped = int(_POPCOUNT4[a ^ b].sum())
    return flipped / (BITS_PER_CELL * original.cells.size)
