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
per cell by scoring.gather_triples. Every pass walks the cells in flat
(row-major) chunks of core.CHUNK_BYTES at 8 bytes a cell (2^17 cells), so
its temporaries stay within a few MiB; the only full-size arrays are each
function's result (float64 voltages, uint8 read-back levels), and
read_back hands its levels to BlockPattern read-only, so they are held
once. channel_ber reads back each chunk of voltages in place as it is made,
so the BER of a channel run needs no full-size array at all. When the
process may run on two CPUs and the block spans two or more chunks, a helper
thread draws each next chunk's noise while the current chunk is finished
(see _voltage_chunks), with the same bits.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import (
    LEVELS,
    ArchConfig,
    BlockPattern,
    brief,
    check_seed,
    chunk_size,
    chunks,
    on_helper_thread,
    second_thread,
    validate_pattern,
)
from .errors import DimensionMismatch, InvalidArgument
from .data_io import GRAY_TABLE
from .scoring import gather_triples, score_table

BITS_PER_CELL = 4
# Bits that differ between the Gray codes of levels a and b, at index a << 4 | b.
_BIT_FLIPS = np.array(
    [bin(int(a) ^ int(b)).count("1") for a in GRAY_TABLE for b in GRAY_TABLE], dtype=np.uint8
)
_BIT_FLIPS.flags.writeable = False

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
            if not 0 <= value <= sys.float_info.max:
                raise InvalidArgument(f"{name} must be finite and non-negative, got {brief(value)}")
        check_seed(self.seed)
        # The largest drift any cell can take must stay finite, or inf * 0 makes NaN;
        # float() lets an integer product overflow to inf, not raise OverflowError.
        if not math.isfinite(
            float(self.coupling) * self.time * (1 + self.saturation_gain) * FULL_EXPOSURE_DRIFT
        ):
            raise InvalidArgument(
                "coupling * time * (1 + saturation_gain) * 15, the largest drift, overflows"
            )


def _exposure_table(cfg: ArchConfig) -> np.ndarray:
    """16x16x16 exposure of every level triple, from alpha-normalized scores."""
    lut = score_table(replace(cfg, alpha=1.0))
    best, worst = lut.max(), lut.min()
    return (best - lut) / (best - worst)


def _drifted_levels(cfg: ArchConfig, rcfg: RetentionConfig) -> np.ndarray:
    """16x16x16 drifted level of the middle cell of every level triple."""
    under, mid, up = np.indices((LEVELS, LEVELS, LEVELS), dtype=np.float64)
    rate = rcfg.coupling * rcfg.time
    saturation = 1.0 + rcfg.saturation_gain * mid / (LEVELS - 1)
    pull = (0.0 + cfg.k1 * (up - mid)) + cfg.k2 * (under - mid)
    response = np.clip(
        (_exposure_table(cfg) - EXPOSURE_THRESHOLD) / (1.0 - EXPOSURE_THRESHOLD), 0.0, 1.0
    )
    return mid + rate * saturation * np.sign(pull) * FULL_EXPOSURE_DRIFT * response


def _voltage_chunks(
    pattern: BlockPattern, cfg: ArchConfig, rcfg: RetentionConfig
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (part, values): the read voltages of the flat (row-major) cells
    ``part``, for each core.chunks run of cells in order.

    Edge rows read their levels, interior cells gather their drifted level,
    then the run's noise is added. Every run continues the same PCG64
    stream, and standard_normal scaled by sigma is bit for bit
    rng.normal(0, sigma), so the values equal one whole-block draw.
    ``values`` is a view of one reused float64 buffer, valid until the next
    run.

    When core.second_thread admits the walk, a helper thread draws the next
    run's standard normals into a second buffer while the caller gathers,
    scales and adds this run and the consumer reads it, so at most one draw
    is in flight and the stream keeps its order. The helper only draws:
    scaling by sigma, the one step np.errstate governs, stays on the caller.
    The helper is joined before the next run starts, and also when the
    consumer closes the generator or an exception leaves it.
    """
    validate_pattern(pattern, cfg)
    table = _drifted_levels(cfg, rcfg)
    cells = pattern.cells.reshape(-1)
    size, c = cells.size, pattern.cells_per_page
    width = min(size, chunk_size(8))
    flat = np.empty(width)
    index = np.empty(width, dtype=np.uint16)
    parts = list(chunks(size, 8))
    ahead = rcfg.noise_sigma > 0 and second_thread(len(parts))
    if rcfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(rcfg.seed))
        noise = [np.empty(width) for _ in range(1 + ahead)]

    def draw(k: int) -> None:
        # Run k's standard normals into its buffer; nothing past the last run.
        if rcfg.noise_sigma > 0 and k < len(parts):
            rng.standard_normal(out=noise[k % len(noise)][: parts[k].stop - parts[k].start])

    draw(0)
    for k, part in enumerate(parts):
        overlap = ahead and k + 1 < len(parts)
        with on_helper_thread(partial(draw, k + 1)) if overlap else nullcontext():
            values = flat[: part.stop - part.start]
            # Cells part.start .. lo lie in the top edge row, hi .. part.stop in the bottom one.
            lo = min(max(part.start, c), part.stop)
            hi = max(min(part.stop, size - c), lo)
            head, tail = lo - part.start, hi - part.start
            values[:head] = cells[part.start : lo]
            if hi > lo:
                gather_triples(table, pattern, lo - c, values[head:tail], index)
            values[tail:] = cells[hi : part.stop]
            if rcfg.noise_sigma > 0:
                sample = noise[k % len(noise)][: values.size]
                sample *= rcfg.noise_sigma
                values += sample
            yield part, values
        if not ahead:
            draw(k + 1)


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
    per-cell evaluation of the formula above. The cells are walked in chunks,
    each drawing its noise from the same PCG64 stream and copied into the
    returned array, so the voltages equal those of one whole-block draw bit
    for bit.
    """
    voltages = np.empty(pattern.cells.shape, dtype=np.float64)
    flat = voltages.reshape(-1)
    for part, values in _voltage_chunks(pattern, cfg, rcfg):
        flat[part] = values
    return voltages


def _read_levels(values: np.ndarray, out: np.ndarray) -> None:
    """Quantize a run of float64 voltages, which must hold no NaN, into the
    uint8 run ``out`` as read_back documents, overwriting ``values``.

    values + 0.5 is clipped to 0..15 and then cast, which truncates; on
    0..15 that is floor, so this equals flooring before the clip."""
    values += 0.5
    np.clip(values, 0, LEVELS - 1, out=values)
    np.copyto(out, values, casting="unsafe")


def _bit_flips(original: np.ndarray, readback: np.ndarray) -> int:
    """Differing Gray-coded bits between two equal runs of levels 0..15."""
    index = original.astype(np.uint8) << 4
    index |= readback.astype(np.uint8, copy=False)
    return int(np.take(_BIT_FLIPS, index).sum())


def read_back(voltages: np.ndarray) -> BlockPattern:
    """Quantize voltages to the nearest level, round half up, clamp to 0..15.

    Infinities clamp like any out-of-range voltage; NaN has no nearest level
    and raises InvalidArgument.
    """
    voltages = np.asarray(voltages)
    levels = np.empty(voltages.shape, dtype=np.uint8)
    flat_voltages, flat_levels = voltages.reshape(-1), levels.reshape(-1)
    work = np.empty(min(flat_levels.size, chunk_size(8)))
    for part in chunks(flat_levels.size, 8):
        values = work[: part.stop - part.start]
        np.copyto(values, flat_voltages[part])
        if np.isnan(values).any():
            raise InvalidArgument("voltages hold NaN, which has no nearest level")
        _read_levels(values, flat_levels[part])
    levels.flags.writeable = False
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
    flipped = sum(
        _bit_flips(flat_original[part], flat_readback[part])
        for part in chunks(flat_original.size, 8)
    )
    return flipped / (BITS_PER_CELL * original.cells.size)


def channel_ber(pattern: BlockPattern, cfg: ArchConfig, rcfg: RetentionConfig) -> float:
    """measure_ber(pattern, read_back(simulate_retention(pattern, cfg, rcfg))),
    bit for bit, without the N x C voltages: each chunk of voltages is read
    back in place into one reused uint8 buffer and compared as it is made,
    so memory stays within a few chunks (about 4 MiB at the default budget)
    whatever N and C. The voltages are levels, drifts and seeded noise,
    never NaN, so read_back's NaN scan is skipped.
    """
    cells = pattern.cells.reshape(-1)
    levels = np.empty(min(cells.size, chunk_size(8)), dtype=np.uint8)
    flipped = 0
    for part, values in _voltage_chunks(pattern, cfg, rcfg):
        read = levels[: values.size]
        _read_levels(values, read)
        flipped += _bit_flips(cells[part], read)
    return flipped / (BITS_PER_CELL * cells.size)
