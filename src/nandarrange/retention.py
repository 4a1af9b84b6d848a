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
through scoring.triple_index. The only full-size arrays are that uint16
index and each function's result (float64 voltages or exposure, uint8
read-back levels); the gather, the normal draw, the quantization and the
bit count walk the block in chunks of core.CHUNK_BYTES at 8 bytes a cell
(2^17 cells), so their temporaries stay within about 1 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LEVELS, ArchConfig, BlockPattern, check_seed, chunks
from .errors import DimensionMismatch, InvalidArgument
from .data_io import GRAY_TABLE
from .scoring import _gather, score_table, triple_index

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
        check_seed(self.seed)
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
    _gather(_exposure_table(cfg), index, exposure[1:-1])
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
    per-cell evaluation of the formula above. The noise is drawn one chunk
    of cells at a time; each draw continues the same PCG64 stream, so the
    voltages equal those of one whole-block draw bit for bit.
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
    _gather(mid + drift, index, voltages[1:-1])
    if rcfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(rcfg.seed))
        flat = voltages.reshape(-1)
        for part in chunks(flat.size, 8):
            flat[part] += rng.normal(0.0, rcfg.noise_sigma, size=flat[part].size)
    return voltages


def read_back(voltages: np.ndarray) -> BlockPattern:
    """Quantize voltages to the nearest level, round half up, clamp to 0..15.

    Infinities clamp like any out-of-range voltage; NaN has no nearest level
    and raises InvalidArgument.
    """
    voltages = np.asarray(voltages)
    levels = np.empty(voltages.shape, dtype=np.uint8)
    flat_voltages, flat_levels = voltages.reshape(-1), levels.reshape(-1)
    for part in chunks(flat_levels.size, 8):
        chunk = np.add(flat_voltages[part], 0.5, dtype=np.float64)
        if np.isnan(chunk).any():
            raise InvalidArgument("voltages hold NaN, which has no nearest level")
        np.floor(chunk, out=chunk)
        np.clip(chunk, 0, LEVELS - 1, out=chunk)
        flat_levels[part] = chunk
    return BlockPattern(levels)


def measure_ber(original: BlockPattern, readback: BlockPattern) -> float:
    """Fraction of differing Gray-coded bits between two patterns of one shape.

    Both hold levels 0..15, as every BlockPattern does, so each cell pair
    indexes the 256-entry bit-flip table directly. Patterns without cells
    have no bits to compare and raise DimensionMismatch.
    """
    if original.cells.shape != readback.cells.shape:
        raise DimensionMismatch(
            f"patterns differ in shape: {original.cells.shape} vs {readback.cells.shape}"
        )
    if original.cells.size == 0:
        raise DimensionMismatch(
            f"patterns of shape {original.cells.shape} hold no cells, so no bit error rate"
        )
    flat_original, flat_readback = original.cells.reshape(-1), readback.cells.reshape(-1)
    flipped = 0
    for part in chunks(flat_original.size, 8):
        index = flat_original[part].astype(np.uint8) << 4
        index |= flat_readback[part].astype(np.uint8, copy=False)
        flipped += int(np.take(_BIT_FLIPS, index).sum())
    return flipped / (BITS_PER_CELL * original.cells.size)
