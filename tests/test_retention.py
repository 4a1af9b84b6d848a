import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nandarrange import (
    ArchConfig,
    BlockPattern,
    RetentionConfig,
    gen_random_block,
    measure_ber,
    read_back,
    simulate_retention,
)
from nandarrange.core import LEVELS, validate_pattern
from nandarrange.data_io import GRAY_TABLE
from nandarrange.errors import DimensionMismatch, InvalidArgument, LevelOutOfRange
from nandarrange.retention import (
    EXPOSURE_THRESHOLD,
    FULL_EXPOSURE_DRIFT,
    cell_exposure,
)
from nandarrange.scoring import score_table


CFG3 = ArchConfig(num_wordlines=3, cells_per_page=1)

_POPCOUNT4 = np.array([bin(v).count("1") for v in range(LEVELS)], dtype=np.int64)


def _reference_cell_exposure(pattern, cfg):
    """Slow reference: indexes the score table with three N-2 x C arrays."""
    x = pattern.cells
    lut = score_table(replace(cfg, alpha=1.0))
    best, worst = lut.max(), lut.min()
    exposure = np.zeros(x.shape, dtype=np.float64)
    exposure[1:-1] = (best - lut[x[:-2], x[1:-1], x[2:]]) / (best - worst)
    return exposure


def _reference_simulate_retention(pattern, cfg, rcfg):
    """Slow reference: evaluates the drift formula over full N x C float arrays."""
    validate_pattern(pattern, cfg)
    levels = pattern.cells.astype(np.float64)
    n = pattern.num_wordlines
    rate = rcfg.coupling * rcfg.time
    saturation = 1.0 + rcfg.saturation_gain * levels / (LEVELS - 1)

    pull = np.zeros_like(levels)
    pull[:-1] += cfg.k1 * (levels[1:] - levels[:-1])
    pull[1:] += cfg.k2 * (levels[:-1] - levels[1:])

    exposure = _reference_cell_exposure(pattern, cfg)
    response = np.clip(
        (exposure - EXPOSURE_THRESHOLD) / (1.0 - EXPOSURE_THRESHOLD), 0.0, 1.0
    )
    drift = rate * saturation * np.sign(pull) * FULL_EXPOSURE_DRIFT * response

    voltages = levels + drift
    if rcfg.noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(rcfg.seed))
        voltages = voltages + rng.normal(0.0, rcfg.noise_sigma, size=(n, pattern.cells_per_page))
    return voltages


def _reference_measure_ber(original, readback):
    """Slow reference: Gray-codes both patterns, then popcounts the XOR."""
    a = GRAY_TABLE[original.cells]
    b = GRAY_TABLE[readback.cells]
    flipped = int(_POPCOUNT4[a ^ b].sum())
    return flipped / (4 * original.cells.size)


def test_config_rejects_negative_fields():
    with pytest.raises(InvalidArgument):
        RetentionConfig(coupling=-0.1)


@pytest.mark.parametrize("field", ["coupling", "time", "saturation_gain", "noise_sigma"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_non_finite_fields(field, value):
    with pytest.raises(InvalidArgument):
        RetentionConfig(**{field: value})


@pytest.mark.parametrize(
    "fields",
    [
        {"coupling": 1e200, "time": 1e200},
        {"coupling": 1e300, "saturation_gain": 1e10},
        {"time": 1e308},
    ],
)
def test_config_rejects_overflowing_drift(fields):
    with pytest.raises(InvalidArgument):
        RetentionConfig(**fields)


def test_largest_finite_drift_reads_back():
    cfg = ArchConfig(num_wordlines=4, cells_per_page=3)
    block = gen_random_block(cfg, seed=1)
    rcfg = RetentionConfig(coupling=1e150, time=1e150, noise_sigma=0.0)
    voltages = simulate_retention(block, cfg, rcfg)
    assert np.isfinite(voltages).all()
    assert 0.0 <= measure_ber(block, read_back(voltages)) <= 1.0


class TestSimulateRetention:
    def test_no_physics_is_identity(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=6)
        block = gen_random_block(cfg, seed=1)
        rcfg = RetentionConfig(coupling=0.0, noise_sigma=0.0)
        assert np.array_equal(simulate_retention(block, cfg, rcfg), block.cells.astype(float))

    def test_uniform_levels_do_not_drift(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=6)
        block = BlockPattern(np.full((5, 6), 9, dtype=np.uint8))
        rcfg = RetentionConfig(coupling=0.3, time=2.0, noise_sigma=0.0)
        assert np.array_equal(simulate_retention(block, cfg, rcfg), block.cells.astype(float))

    def test_hand_computed_middle_cell(self):
        block = BlockPattern(np.array([[0], [15], [0]], dtype=np.uint8))
        rcfg = RetentionConfig(coupling=0.1, time=1.0, saturation_gain=0.0, noise_sigma=0.0)
        voltages = simulate_retention(block, CFG3, rcfg)
        # worst-case triple: full exposure, downward pull, 0.1 * 15 = 1.5
        assert voltages[1, 0] == pytest.approx(13.5)

    def test_edge_wordlines_do_not_drift(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=6)
        block = gen_random_block(cfg, seed=21)
        rcfg = RetentionConfig(coupling=0.3, time=2.0, noise_sigma=0.0)
        voltages = simulate_retention(block, cfg, rcfg)
        assert np.array_equal(voltages[0], block.cells[0].astype(float))
        assert np.array_equal(voltages[-1], block.cells[-1].astype(float))

    def test_exposure_bounds_and_extremes(self):
        from nandarrange.retention import cell_exposure

        cfg = ArchConfig(num_wordlines=3, cells_per_page=2)
        worst = BlockPattern(np.array([[0, 0], [15, 0], [0, 0]], dtype=np.uint8))
        exposure = cell_exposure(worst, cfg)
        assert exposure[1, 0] == 1.0  # minimum-score triple
        assert exposure[1, 1] == 0.0  # all-erased triple scores the maximum
        assert exposure[0].tolist() == [0.0, 0.0] and exposure[2].tolist() == [0.0, 0.0]

    def test_exposure_validates_pattern_against_config(self):
        with pytest.raises(DimensionMismatch):
            cell_exposure(BlockPattern(np.zeros((4, 1), dtype=np.uint8)), CFG3)
        with pytest.raises(LevelOutOfRange):
            cell_exposure(BlockPattern(np.array([[0], [16], [0]], dtype=np.uint8)), CFG3)

    def test_memory_is_bounded_at_paper_scale(self):
        # The per-cell reference holds about ten N x C float64 temporaries
        # (about 144 MiB here); the table gather needs only the result, the
        # noise draw and the uint16 triple index.
        cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
        block = gen_random_block(cfg, seed=5)
        bound = 3 * cfg.num_wordlines * cfg.cells_per_page * 8
        peaks = []
        for simulate in (simulate_retention, _reference_simulate_retention):
            tracemalloc.start()
            try:
                simulate(block, cfg, RetentionConfig(seed=5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < bound < peaks[1]

    def test_deterministic_given_seed(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=8)
        block = gen_random_block(cfg, seed=2)
        rcfg = RetentionConfig(seed=77)
        a = simulate_retention(block, cfg, rcfg)
        b = simulate_retention(block, cfg, rcfg)
        assert np.array_equal(a, b)


class TestReadBack:
    def test_round_half_up(self):
        assert read_back(np.array([[13.5], [0.0], [1.0]])).cells[0, 0] == 14

    def test_clamps_below_zero(self):
        assert read_back(np.array([[-0.7], [0.0], [1.0]])).cells[0, 0] == 0

    def test_clamps_above_fifteen(self):
        assert read_back(np.array([[16.2], [0.0], [1.0]])).cells[0, 0] == 15

    def test_exact_integers_unchanged(self):
        v = np.arange(16, dtype=float).reshape(4, 4)
        assert np.array_equal(read_back(v).cells, v.astype(np.uint8))

    def test_infinities_clamp(self):
        assert read_back(np.array([[np.inf], [-np.inf], [1.0]])).cells[:, 0].tolist() == [15, 0, 1]

    def test_nan_is_rejected(self):
        with pytest.raises(InvalidArgument):
            read_back(np.array([[1.0], [np.nan], [1.0]]))


class TestMeasureBer:
    def test_identical_patterns(self):
        block = gen_random_block(ArchConfig(num_wordlines=4, cells_per_page=8), seed=3)
        assert measure_ber(block, block) == 0.0

    def test_single_adjacent_misread(self):
        # 25x4 = 100 cells; levels 2 and 3 are Gray-adjacent: 1 flipped bit of 400.
        cells = np.full((25, 4), 2, dtype=np.uint8)
        other = cells.copy()
        other[0, 0] = 3
        assert measure_ber(BlockPattern(cells), BlockPattern(other)) == pytest.approx(1 / 400)

    def test_zero_fifteen_flip_is_quarter(self):
        a = BlockPattern(np.zeros((4, 5), dtype=np.uint8))
        b = BlockPattern(np.full((4, 5), 15, dtype=np.uint8))
        assert measure_ber(a, b) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        a = BlockPattern(np.zeros((3, 2), dtype=np.uint8))
        b = BlockPattern(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            measure_ber(a, b)

    @pytest.mark.parametrize("level", [-1, 16, 255])
    @pytest.mark.parametrize("side", [0, 1])
    def test_out_of_range_level(self, level, side):
        cells = [np.full((3, 2), 7, dtype=np.int16) for _ in range(2)]
        cells[side][1, 1] = level
        with pytest.raises(LevelOutOfRange):
            measure_ber(BlockPattern(cells[0]), BlockPattern(cells[1]))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30)
def test_ber_symmetric_and_zero_iff_equal(seed):
    cfg = ArchConfig(num_wordlines=4, cells_per_page=6)
    rng = np.random.default_rng(seed)
    a = BlockPattern(rng.integers(0, 16, size=(4, 6), dtype=np.uint8))
    b = BlockPattern(rng.integers(0, 16, size=(4, 6), dtype=np.uint8))
    assert measure_ber(a, b) == measure_ber(b, a)
    if np.array_equal(a.cells, b.cells):
        assert measure_ber(a, b) == 0.0
    else:
        assert measure_ber(a, b) > 0.0


def test_arranged_blocks_read_back_with_fewer_errors():
    # Paired comparison: annealing the arrangement before the channel should
    # not raise the BER. Measured 50/50 strict wins; asserted with headroom.
    cfg = ArchConfig(num_wordlines=8, cells_per_page=64)
    from nandarrange import AnnealSchedule, apply_permutation, simulated_annealing

    not_worse = 0
    deltas = []
    for k in range(50):
        block = gen_random_block(cfg, seed=4000 + k)
        result = simulated_annealing(block, cfg, AnnealSchedule(seed=k, iterations=3000))
        arranged = apply_permutation(block, result.perm)
        rcfg = RetentionConfig(seed=k)
        ber_id = measure_ber(block, read_back(simulate_retention(block, cfg, rcfg)))
        ber_ar = measure_ber(arranged, read_back(simulate_retention(arranged, cfg, rcfg)))
        not_worse += ber_ar <= ber_id
        deltas.append(ber_ar - ber_id)
    assert not_worse >= 48
    assert np.mean(deltas) < 0


def test_small_drift_is_absorbed_by_quantization():
    # lambda*t small enough that |drift| < 0.5 everywhere: BER must be 0.
    cfg = ArchConfig(num_wordlines=6, cells_per_page=12)
    block = gen_random_block(cfg, seed=9)
    rcfg = RetentionConfig(coupling=0.001, time=1.0, saturation_gain=0.5, noise_sigma=0.0)
    out = read_back(simulate_retention(block, cfg, rcfg))
    assert measure_ber(block, out) == 0.0


def non_negative(high):
    return st.one_of(st.just(0.0), st.floats(0.0, high))


@st.composite
def channel_cases(draw):
    n = draw(st.integers(3, 12))
    c = draw(st.integers(1, 64))
    cfg = ArchConfig(
        num_wordlines=n,
        cells_per_page=c,
        k1=draw(st.floats(0.01, 100.0)),
        k2=draw(st.floats(0.01, 100.0)),
        alpha=draw(st.floats(0.01, 100.0)),
    )
    rcfg = RetentionConfig(
        coupling=draw(non_negative(1.0)),
        time=draw(non_negative(10.0)),
        saturation_gain=draw(non_negative(3.0)),
        noise_sigma=draw(non_negative(1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 40% erased cells, so every erase-adjacency class and zero pull occur often.
    cells = np.where(rng.random((n, c)) < 0.4, 0, rng.integers(1, 16, size=(n, c)))
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int64]))
    return BlockPattern(cells.astype(dtype)), cfg, rcfg


@given(channel_cases())
@settings(max_examples=100, deadline=None)
def test_channel_is_bit_identical_to_per_cell_reference(case):
    pattern, cfg, rcfg = case
    voltages = simulate_retention(pattern, cfg, rcfg)
    expected = _reference_simulate_retention(pattern, cfg, rcfg)
    assert np.array_equal(voltages, expected)
    assert np.array_equal(np.signbit(voltages), np.signbit(expected))
    assert np.array_equal(cell_exposure(pattern, cfg), _reference_cell_exposure(pattern, cfg))
    readback = read_back(voltages)
    assert measure_ber(pattern, readback) == _reference_measure_ber(pattern, readback)
