import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nandarrange import (
    ArchConfig,
    BlockPattern,
    RetentionConfig,
    block_score,
    channel_ber,
    gen_random_block,
    measure_ber,
    read_back,
    simulate_retention,
)
from nandarrange import core, retention
from nandarrange.core import LEVELS, validate_pattern
from nandarrange.data_io import GRAY_TABLE
from nandarrange.errors import DimensionMismatch, InvalidArgument, LevelOutOfRange
from nandarrange.retention import EXPOSURE_THRESHOLD, FULL_EXPOSURE_DRIFT
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


def _reference_read_back(voltages):
    """Slow reference: rounds the whole block half up in one float64 pass."""
    levels = np.clip(np.floor(np.asarray(voltages, dtype=np.float64) + 0.5), 0, LEVELS - 1)
    return levels.astype(np.uint8)


def _reference_measure_ber(original, readback):
    """Slow reference: Gray-codes both patterns, then popcounts the XOR."""
    a = GRAY_TABLE[original.cells]
    b = GRAY_TABLE[readback.cells]
    flipped = int(_POPCOUNT4[a ^ b].sum())
    return flipped / (4 * original.cells.size)


def test_config_rejects_negative_fields():
    with pytest.raises(InvalidArgument):
        RetentionConfig(coupling=-0.1)
    with pytest.raises(InvalidArgument, match="seed must be non-negative, got -1"):
        RetentionConfig(seed=-1)


@pytest.mark.parametrize("field", ["coupling", "time", "saturation_gain", "noise_sigma"])
@pytest.mark.parametrize(
    "value", [float("inf"), float("nan"), pytest.param(10**400, id="int-past-float")]
)
def test_config_rejects_non_finite_fields(field, value):
    with pytest.raises(InvalidArgument):
        RetentionConfig(**{field: value})


@pytest.mark.parametrize(
    "fields",
    [
        {"coupling": 1e200, "time": 1e200},
        {"coupling": 1e300, "saturation_gain": 1e10},
        {"time": 1e308},
        {"coupling": 10**300, "time": 10**300},  # an int product past the float range
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

    def test_memory_is_bounded_at_paper_scale(self, peak_bytes):
        # The per-cell reference holds about ten N x C float64 temporaries
        # (about 144 MiB here). The table gather holds only the float64
        # result and the uint16 triple index; the gather and the noise draw
        # walk chunks of at most 1 MiB, where a whole-block draw alone would
        # add N * C * 8 bytes.
        cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
        n, c = cfg.num_wordlines, cfg.cells_per_page
        block = gen_random_block(cfg, seed=5)
        bound = 3 * n * c * 8
        peaks = [
            peak_bytes(simulate, block, cfg, RetentionConfig(seed=5))
            for simulate in (simulate_retention, _reference_simulate_retention)
        ]
        assert peaks[0] < bound < peaks[1]
        assert peaks[0] < n * c * 8 + (n - 2) * c * 2 + 2 * 2**20

    @pytest.mark.parametrize("slab_cells", [7, 9, 30])
    def test_gather_slabs_do_not_change_values(self, monkeypatch, slab_cells):
        # Chunks that cross rows (7), that fill one row exactly (9), and that
        # span rows with a shorter last chunk over the 108 cells (30).
        monkeypatch.setattr("nandarrange.core.CHUNK_BYTES", slab_cells * 8)
        cfg = ArchConfig(num_wordlines=12, cells_per_page=9)
        block = gen_random_block(cfg, seed=8)
        rcfg = RetentionConfig(seed=8)
        cells = block.cells
        expected_score = float(score_table(cfg)[cells[:-2], cells[1:-1], cells[2:]].sum())
        assert block_score(block, cfg).hex() == expected_score.hex()
        voltages = simulate_retention(block, cfg, rcfg)
        assert np.array_equal(voltages, _reference_simulate_retention(block, cfg, rcfg))
        readback = read_back(voltages)
        assert np.array_equal(readback.cells, _reference_read_back(voltages))
        assert measure_ber(block, readback) == _reference_measure_ber(block, readback)
        voltages[-1, -1] = np.nan  # in the last chunk at every chunk size
        with pytest.raises(InvalidArgument):
            read_back(voltages)

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

    @pytest.mark.parametrize("budget", [1, 56, core.CHUNK_BYTES])
    def test_nan_is_rejected_in_any_chunk(self, monkeypatch, budget):
        voltages = np.full((4, 9), 3.0)
        voltages[3, 8] = np.nan  # in the last chunk at every budget
        monkeypatch.setattr(core, "CHUNK_BYTES", budget)
        with pytest.raises(InvalidArgument, match="NaN"):
            read_back(voltages)

    @given(
        hnp.arrays(
            st.sampled_from([np.float64, np.float32]),
            st.tuples(st.integers(1, 6), st.integers(1, 9)),
            elements=st.one_of(
                st.floats(allow_nan=False, width=32),
                st.sampled_from([-0.5, -0.0, 0.5, 14.5, 15.5, 15.499999999999998]),
            ),
        ),
        st.sampled_from([1, 56, core.CHUNK_BYTES]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_one_whole_block_rounding(self, voltages, budget):
        # Clipping before the cast equals the reference's floor before the
        # clip, at halves, infinities and every chunking.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CHUNK_BYTES", budget)
            got = read_back(voltages).cells
        assert np.array_equal(got, _reference_read_back(voltages))

    def test_memory_holds_only_the_levels_at_paper_scale(self, peak_bytes):
        # The uint8 levels, handed to BlockPattern read-only and kept by it,
        # are the only full-size array; a copy of them would add N * C, and
        # a whole-block float64 pass N * C * 8.
        n, c = 16, 147_456
        voltages = np.random.default_rng(7).normal(7.5, 5.0, size=(n, c))
        assert peak_bytes(read_back, voltages) < n * c + 2 * 2**20
        assert np.array_equal(read_back(voltages).cells, _reference_read_back(voltages))


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

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_patterns_without_cells_are_rejected(self, shape):
        empty = BlockPattern(np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DimensionMismatch, match="no cells"):
            measure_ber(empty, empty)

    def test_memory_is_bounded_at_paper_scale(self, peak_bytes):
        # Chunks of at most 1 MiB; a whole-block pass would hold N * C bytes
        # of index and as many of gathered flips.
        cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
        a, b = gen_random_block(cfg, seed=11), gen_random_block(cfg, seed=12)
        assert peak_bytes(measure_ber, a, b) < 2 * 2**20
        assert measure_ber(a, b) == _reference_measure_ber(a, b)

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
    readback = read_back(voltages)
    assert measure_ber(pattern, readback) == _reference_measure_ber(pattern, readback)


@given(channel_cases(), st.sampled_from([1, 56, 4096, core.CHUNK_BYTES]))
@settings(max_examples=100, deadline=None)
def test_channel_ber_equals_the_whole_block_path(case, budget):
    # Voltages read back and compared chunk by chunk, at every budget, give
    # the bits of the BER of the whole voltages array.
    pattern, cfg, rcfg = case
    expected = measure_ber(pattern, read_back(simulate_retention(pattern, cfg, rcfg)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "CHUNK_BYTES", budget)
        got = channel_ber(pattern, cfg, rcfg)
    assert got.hex() == expected.hex()


@pytest.mark.parametrize("sigma", [0.0, 1e300, 1e308])
@pytest.mark.parametrize("budget", [1, 56, core.CHUNK_BYTES])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_channel_ber_at_the_noise_extremes(sigma, budget, dtype):
    # With no noise the voltages are the exact levels and drifts; sigma 1e300
    # puts nearly every voltage far outside 0..15, and 1e308 overflows some
    # to +-inf (numpy's overflow warning is silenced for that). The in-place
    # read-back clamps them all as read_back does.
    cfg = ArchConfig(num_wordlines=5, cells_per_page=37)
    rng = np.random.default_rng(31)
    cells = np.where(rng.random((5, 37)) < 0.4, 0, rng.integers(1, 16, size=(5, 37)))
    pattern = BlockPattern(cells.astype(dtype))
    rcfg = RetentionConfig(coupling=0.5, noise_sigma=sigma, seed=9)
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore"):
        patch.setattr(core, "CHUNK_BYTES", budget)
        voltages = simulate_retention(pattern, cfg, rcfg)
        expected = measure_ber(pattern, read_back(voltages))
        got = channel_ber(pattern, cfg, rcfg)
    assert got.hex() == expected.hex()
    reference = BlockPattern(_reference_read_back(voltages))
    assert expected.hex() == _reference_measure_ber(pattern, reference).hex()
    assert np.isinf(voltages).any() == (sigma == 1e308)


class TestChannelBer:
    def test_validates_pattern_against_config(self):
        with pytest.raises(DimensionMismatch):
            channel_ber(BlockPattern(np.zeros((4, 1), dtype=np.uint8)), CFG3, RetentionConfig())

    def test_memory_is_bounded_at_paper_scale(self, peak_bytes):
        # A few 2^17-cell chunks (voltages, noise, index and the read-back
        # temporaries), where the whole-block path holds the N x C float64
        # voltages (18 MiB here) and the uint8 levels twice.
        cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
        block = gen_random_block(cfg, seed=5)
        rcfg = RetentionConfig(seed=5)
        assert peak_bytes(channel_ber, block, cfg, rcfg) < 8 * 2**20
        expected = measure_ber(block, read_back(simulate_retention(block, cfg, rcfg)))
        assert channel_ber(block, cfg, rcfg).hex() == expected.hex()


class TestTwoThreads:
    # Chunks of 7 cells, so that small blocks walk many chunks and, on two
    # CPUs, a helper thread draws each next chunk's noise ahead.
    @pytest.fixture(autouse=True)
    def seven_cell_chunks(self, monkeypatch):
        monkeypatch.setattr(core, "CHUNK_BYTES", 7 * 8)

    @pytest.mark.parametrize("n,c", [(3, 5), (5, 17), (17, 23)])
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 3.0])
    def test_outputs_equal_one_thread(self, n, c, sigma, cpus, helpers):
        cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
        block = gen_random_block(cfg, seed=n * c)
        rcfg = RetentionConfig(coupling=0.3, noise_sigma=sigma, seed=n)
        runs = []
        for count in (1, 2):
            cpus(count)
            voltages = simulate_retention(block, cfg, rcfg)
            runs.append(
                (
                    voltages.tobytes(),
                    channel_ber(block, cfg, rcfg).hex(),
                    measure_ber(block, read_back(voltages)).hex(),
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][1] == runs[0][2]
        assert runs[0][0] == _reference_simulate_retention(block, cfg, rcfg).tobytes()
        # Each chunk but the last starts one helper, in each of the two walks;
        # without noise there is nothing to draw.
        num_chunks = -(-n * c // 7)
        assert helpers.starts == (2 * (num_chunks - 1) if sigma > 0 else 0)
        assert helpers.most == min(1, helpers.starts)

    def _case(self, n=17, c=5):
        cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
        return gen_random_block(cfg, seed=12), cfg, RetentionConfig(coupling=0.3, seed=12)

    def test_closing_the_voltages_joins_the_helper(self, cpus, helpers):
        cpus(2)
        before = threading.active_count()
        walk = retention._voltage_chunks(*self._case())
        next(walk)
        next(walk)
        walk.close()
        assert (helpers.starts, helpers.alive) == (2, 0)
        assert threading.active_count() == before

    def test_a_failing_gather_joins_the_helper(self, cpus, helpers, monkeypatch):
        # At 17 x 5 every chunk of 7 cells gathers once; chunk 3 fails.
        cpus(2)
        gather, calls = retention.gather_triples, []

        def failing(*args):
            calls.append(args[2])
            if len(calls) == 4:
                raise RuntimeError("gather failed")
            gather(*args)

        monkeypatch.setattr(retention, "gather_triples", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="gather failed"):
            channel_ber(*self._case())
        assert calls == [0, 2, 9, 16]  # interior cells from C = 5 on, chunks of 7
        assert (helpers.starts, helpers.alive) == (4, 0)
        assert threading.active_count() == before

    def test_a_failing_draw_on_the_helper_reaches_the_caller(self, cpus, helpers, monkeypatch):
        cpus(2)

        class DrawFailed(Exception):
            pass

        generator, threads = np.random.Generator, []

        class FailingGenerator:
            def __init__(self, bit_generator):
                self.rng = generator(bit_generator)

            def standard_normal(self, out):
                threads.append(threading.current_thread())
                if len(threads) == 3:
                    raise DrawFailed
                return self.rng.standard_normal(out=out)

        case = self._case()
        monkeypatch.setattr(np.random, "Generator", FailingGenerator)
        before = threading.active_count()
        with pytest.raises(DrawFailed):
            channel_ber(*case)
        # Chunk 0 is drawn by the caller, chunks 1 and 2 each on a helper.
        caller = threading.current_thread()
        assert threads[0] is caller and caller not in threads[1:]
        assert threads[1] is not threads[2]
        assert (helpers.starts, helpers.alive) == (2, 0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("count", [1, 2])
    def test_the_callers_error_state_governs_the_noise(self, count, cpus, helpers):
        # sigma 1e308 overflows some noise to +-inf; only the caller scales
        # by sigma, so its error state decides, on either path.
        cpus(count)
        block, cfg, _ = self._case()
        rcfg = RetentionConfig(noise_sigma=1e308, seed=12)
        before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            channel_ber(block, cfg, rcfg)
        assert (helpers.starts > 0) == (count == 2)
        assert helpers.alive == 0 and threading.active_count() == before
