"""Synthetic lateral-migration retention channel.

Each interior cell's susceptibility is the normalized complement of its own
wordline-triple score, so the channel degrades exactly the configurations the
scoring model marks as exposed: charge drifts toward the k1/k2-weighted
neighbor mix at a rate set by coupling * time, scaled up for higher program
levels, and only once exposure clears a release threshold. Edge wordlines
have no complete triple and are modeled as drift-free. Gaussian read noise is
added last. The channel exists to make the score-versus-BER inverse relation
testable at desk scale; it is not a device model.

Every per-cell quantity before the noise (saturation, neighbor pull,
exposure, drift) is a function of the cell's (under, mid, up) level triple
alone, so each is evaluated once on the 16^3 = 4,096 triples and gathered
through scoring.triple_index: the only full-size passes are the index, one
gather, the normal draw and one in-place add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LEVELS, ArchConfig, BlockPattern, validate_levels
from .errors import DimensionMismatch, InvalidArgument
from .data_io import GRAY_TABLE
from .scoring import score_table, triple_index

BITS_PER_CELL = 4
# Bits that differ between the Gray codes of levels a and b, at index a << 4 | b.
_BIT_FLIPS = np.array(
    [bin(int(a) ^ int(b)).count("1") for a in GRAY_TABLE for b in GRAY_TABLE], dtype=np.uint8
)

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
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidArgument(f"{name} must be finite and non-negative, got {value}")
        # The largest drift any cell can take must stay finite, or inf * 0 makes NaN.
        if not math.isfinite(
            self.coupling * self.time * (1 + self.saturation_gain) * FULL_EXPOSURE_DRIFT
        ):
            raise InvalidArgument(
                "coupling * time * (1 + saturation_gain) * 15, the largest drift, overflows"
            )


def _exposure_table(cfg: ArchConfig) -> np.ndarray:
    """16x16x16 exposure of every level triple, from alpha-normalized scores."""
    lut = score_table(replace(cfg, alpha=1.0))
    best, worst = lut.max(), lut.min()
    return (best - lut) / (best - worst)


def cell_exposure(pattern: BlockPattern, cfg: ArchConfig) -> np.ndarray:
    """Per-cell exposure in [0, 1]: 0 at the best-scoring triple, 1 at the worst.

    Interior cells score their own (below, self, above) triple; edge wordlines
    have no triple and get exposure 0. Uses alpha-normalized scores so the
    exposure is invariant to the score-range coefficient.
    """
    index = triple_index(pattern, cfg)
    exposure = np.zeros(pattern.cells.shape, dtype=np.float64)
    np.take(_exposure_table(cfg), index, out=exposure[1:-1], mode="clip")
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

    The drifted level is a function of the cell's level triple alone, so it
    is computed once for each of the 4,096 triples and gathered per cell;
    each entry gets the same float operations, in the same order, as a
    per-cell evaluation of the formula above.
    """
    index = triple_index(pattern, cfg)
    under, mid, up = np.indices((LEVELS, LEVELS, LEVELS), dtype=np.float64)
    rate = rcfg.coupling * rcfg.time
    saturation = 1.0 + rcfg.saturation_gain * mid / (LEVELS - 1)
    pull = (0.0 + cfg.k1 * (up - mid)) + cfg.k2 * (under - mid)
    response = np.clip(
        (_exposure_table(cfg) - EXPOSURE_THRESHOLD) / (1.0 - EXPOSURE_THRESHOLD), 0.0, 1.0
    )
    drift = rate * saturation * np.sign(pull) * FULL_EXPOSURE_DRIFT * response

    voltages = np.empty(pattern.cells.shape, dtype=np.float64)
    voltages[[0, -1]] = pattern.cells[[0, -1]]
    # The index is in range by construction; mode="clip" keeps take from
    # buffering a copy of its output.
    np.take(mid + drift, index, out=voltages[1:-1], mode="clip")
    if rcfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(rcfg.seed))
        voltages += rng.normal(0.0, rcfg.noise_sigma, size=voltages.shape)
    return voltages


def read_back(voltages: np.ndarray) -> BlockPattern:
    """Quantize voltages to the nearest level, round half up, clamp to 0..15.

    Infinities clamp like any out-of-range voltage; NaN has no nearest level
    and raises InvalidArgument.
    """
    levels = np.add(voltages, 0.5, dtype=np.float64)
    if np.isnan(levels).any():
        raise InvalidArgument("voltages hold NaN, which has no nearest level")
    np.floor(levels, out=levels)
    np.clip(levels, 0, LEVELS - 1, out=levels)
    return BlockPattern(levels.astype(np.uint8))


def measure_ber(original: BlockPattern, readback: BlockPattern) -> float:
    """Fraction of differing Gray-coded bits between two patterns.

    Both patterns must hold levels 0..15 (LevelOutOfRange otherwise).
    """
    if original.cells.shape != readback.cells.shape:
        raise DimensionMismatch(
            f"patterns differ in shape: {original.cells.shape} vs {readback.cells.shape}"
        )
    validate_levels(original)
    validate_levels(readback)
    index = original.cells.astype(np.uint8, copy=False) << 4
    index |= readback.cells.astype(np.uint8, copy=False)
    flipped = int(_BIT_FLIPS[index].sum())
    return flipped / (BITS_PER_CELL * original.cells.size)
