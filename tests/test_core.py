import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from nandarrange import (
    AnnealSchedule,
    ArchConfig,
    BlockPattern,
    Permutation,
    RetentionConfig,
    apply_permutation,
    block_score,
    build_score_tensor,
    exhaustive_best,
    gen_random_block,
    greedy_arrange,
    invert_permutation,
    measure_ber,
    random_search,
    read_back,
    simulate_retention,
    simulated_annealing,
    validate_pattern,
)
from nandarrange import core, retention, scoring, solvers
from nandarrange.errors import (
    DimensionMismatch,
    InvalidArgument,
    LevelOutOfRange,
    NotABijection,
)


def pattern_of(rows):
    return BlockPattern(np.asarray(rows, dtype=np.int64))


class TestArchConfig:
    def test_defaults(self):
        cfg = ArchConfig()
        assert (cfg.num_wordlines, cfg.cells_per_page) == (16, 64)
        assert (cfg.k1, cfg.k2, cfg.alpha) == (4.0, 1.0, 1.0)

    def test_rejects_two_wordlines(self):
        with pytest.raises(InvalidArgument):
            ArchConfig(num_wordlines=2, cells_per_page=4)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(k1=0), dict(k2=-1.0), dict(alpha=0), dict(cells_per_page=0)],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(num_wordlines=4, cells_per_page=8)
        base.update(kwargs)
        with pytest.raises(InvalidArgument):
            ArchConfig(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k1=float("inf")),
            dict(k2=float("nan")),
            dict(alpha=float("inf")),
            # alpha (k1 + k2) underflows to 0, or overflows to inf.
            dict(alpha=5e-324, k1=1e-3, k2=1e-3),
            dict(alpha=1e308),
            # The k-weighted numerator overflows.
            dict(k1=1e305),
            # The largest block score overflows: greedy and annealing used to
            # raise NotABijection here, from inf + (-inf) = nan.
            dict(num_wordlines=5, cells_per_page=8, alpha=1e-305),
        ],
    )
    def test_rejects_coefficients_whose_scores_overflow(self, kwargs):
        with pytest.raises(InvalidArgument):
            ArchConfig(**{**dict(num_wordlines=4, cells_per_page=8), **kwargs})

    def test_small_geometry_admits_larger_scores(self):
        # alpha=1e-303 overflows a default 16x64 block but not a 3x1 one.
        with pytest.raises(InvalidArgument):
            ArchConfig(alpha=1e-303)
        ArchConfig(num_wordlines=3, cells_per_page=1, alpha=1e-303)


class TestValidatePattern:
    def test_all_erased_block_is_valid(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=8)
        validate_pattern(pattern_of(np.zeros((4, 8))), cfg)

    def test_level_16_rejected_with_location(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=8)
        cells = np.zeros((4, 8), dtype=np.int64)
        cells[2, 5] = 16
        with pytest.raises(LevelOutOfRange, match=r"\(2, 5\)"):
            validate_pattern(pattern_of(cells), cfg)

    def test_shape_mismatch(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=8)
        with pytest.raises(DimensionMismatch):
            validate_pattern(pattern_of(np.zeros((3, 8))), cfg)

    def test_negative_level_rejected(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=1)
        with pytest.raises(LevelOutOfRange):
            validate_pattern(pattern_of([[0], [-1], [0]]), cfg)

    def test_one_dimensional_cells_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^cells must be a 2-D matrix, got ndim=1$"):
            BlockPattern(np.zeros(8, dtype=np.uint8))


@st.composite
def level_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(["int8", "uint8", "int16", "uint16", "int64"])))
    info = np.iinfo(dtype)
    values = st.integers(max(-300, int(info.min)), min(300, int(info.max)))
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6))
    return draw(hnp.arrays(dtype, shape, elements=values))


@given(level_arrays())
def test_block_pattern_holds_only_levels(cells):
    bad = [(r, c) for r in range(cells.shape[0]) for c in range(cells.shape[1])
           if not 0 <= int(cells[r, c]) <= 15]
    if not bad:
        assert np.array_equal(BlockPattern(cells).cells, cells)
        return
    row, col = bad[0]  # the first in row-major order
    with pytest.raises(LevelOutOfRange, match=rf"^cell \({row}, {col}\) holds {cells[row, col]},"):
        BlockPattern(cells)


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity(4).order == (0, 1, 2, 3)

    @pytest.mark.parametrize("bad", [(0, 0, 1), (1, 2, 3), (0,) * 3])
    def test_rejects_non_bijection(self, bad):
        with pytest.raises(NotABijection):
            Permutation(bad)

    @pytest.mark.parametrize(
        "bad, fault",
        [
            ((0,) * 65_535, "entry 0 repeats, page 1 is missing"),
            (tuple(range(1, 65_536)), "entry 65535 is out of range, page 0 is missing"),
        ],
    )
    def test_message_names_first_fault_and_stays_short(self, bad, fault):
        with pytest.raises(NotABijection) as info:
            Permutation(bad)
        assert "N=65535" in str(info.value) and fault in str(info.value)
        assert len(str(info.value)) < 200

    def test_apply_identity_is_noop(self):
        p = pattern_of([[1, 2], [3, 4], [5, 6]])
        out = apply_permutation(p, Permutation.identity(3))
        assert np.array_equal(out.cells, p.cells)

    def test_apply_gathers_rows(self):
        p = pattern_of([[1], [2], [3]])  # rows A, B, C
        out = apply_permutation(p, Permutation((2, 0, 1)))
        assert out.cells[:, 0].tolist() == [3, 1, 2]  # C, A, B

    def test_apply_length_mismatch(self):
        p = pattern_of([[0], [0], [0]])
        with pytest.raises(DimensionMismatch):
            apply_permutation(p, Permutation((1, 0)))

    def test_apply_leaves_input_unchanged(self):
        cells = np.arange(12).reshape(4, 3) % 16
        p = BlockPattern(cells)
        apply_permutation(p, Permutation((3, 2, 1, 0)))
        assert np.array_equal(p.cells, cells)

    def test_invert_known_values(self):
        assert invert_permutation(Permutation((2, 0, 1))).order == (1, 2, 0)
        assert invert_permutation(Permutation((1, 0))).order == (1, 0)
        ident = Permutation.identity(5)
        assert invert_permutation(ident).order == ident.order


def brute_force_inverse(perm: Permutation) -> Permutation:
    # Independent oracle: solve result[perm[i]] = i by scanning.
    n = len(perm)
    result = []
    for target in range(n):
        for i in range(n):
            if perm.order[i] == target:
                result.append(i)
                break
    return Permutation(tuple(result))


@given(st.permutations(list(range(6))), st.integers(0, 2**31 - 1))
def test_apply_then_inverse_restores(order, seed):
    rng = np.random.default_rng(seed)
    p = BlockPattern(rng.integers(0, 16, size=(6, 4), dtype=np.uint8))
    sigma = Permutation(tuple(order))
    roundtrip = apply_permutation(apply_permutation(p, sigma), brute_force_inverse(sigma))
    assert np.array_equal(roundtrip.cells, p.cells)


@given(st.permutations(list(range(7))))
def test_double_inverse_is_identity_map(order):
    sigma = Permutation(tuple(order))
    assert invert_permutation(invert_permutation(sigma)).order == sigma.order


@given(st.permutations(list(range(5))), st.integers(0, 2**31 - 1))
def test_apply_preserves_row_multiset(order, seed):
    rng = np.random.default_rng(seed)
    p = BlockPattern(rng.integers(0, 16, size=(5, 3), dtype=np.uint8))
    out = apply_permutation(p, Permutation(tuple(order)))
    before = sorted(p.cells[i].tobytes() for i in range(5))
    after = sorted(out.cells[i].tobytes() for i in range(5))
    assert before == after


@given(st.permutations(list(range(5))), st.integers(0, 2**31 - 1))
def test_apply_preserves_validity(order, seed):
    cfg = ArchConfig(num_wordlines=5, cells_per_page=3)
    rng = np.random.default_rng(seed)
    p = BlockPattern(rng.integers(0, 16, size=(5, 3), dtype=np.uint8))
    validate_pattern(p, cfg)
    validate_pattern(apply_permutation(p, Permutation(tuple(order))), cfg)


def test_block_pattern_is_read_only():
    p = pattern_of([[0], [1], [2]])
    with pytest.raises(ValueError):
        p.cells[0, 0] = 3


@given(st.integers(0, 5000), st.integers(1, 3000), st.integers(0, 2**21))
def test_chunks_split_the_range_in_order(count, item_bytes, budget):
    size = max(1, budget // item_bytes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "CHUNK_BYTES", budget)
        parts = [range(count)[part] for part in core.chunks(count, item_bytes)]
    assert [i for part in parts for i in part] == list(range(count))
    assert all(1 <= len(part) <= size for part in parts)
    assert all(len(part) == size for part in parts[:-1])


def _chunk_lengths(monkeypatch, module):
    """Record the chunk lengths of every core.chunks walk that ``module`` makes."""
    walks = []

    def recording(count, item_bytes):
        parts = list(core.chunks(count, item_bytes))
        walks.append([part.stop - part.start for part in parts])
        return iter(parts)

    monkeypatch.setattr(module, "chunks", recording)
    return walks


class TestChunkSizesAtBenchmarkShapes:
    # The default budget keeps every pass's chunks at the sizes the benchmark
    # shapes were measured with. The tensor build's column widths are pinned
    # in test_scoring.py (TestColumnBlocks::test_block_width_bounds).
    def test_cell_passes_walk_2_17_cells(self, monkeypatch):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=2**17)
        block = gen_random_block(cfg, seed=1)
        gathers = _chunk_lengths(monkeypatch, scoring)
        cell_passes = _chunk_lengths(monkeypatch, retention)
        block_score(block, cfg)
        measure_ber(block, read_back(simulate_retention(block, cfg, RetentionConfig(seed=1))))
        assert gathers == [[2**17, 2**17]] * 2  # block_score, then the drift gather
        assert cell_passes == [[2**17] * 4] * 3  # noise, read_back, measure_ber

    def test_greedy_walks_1024_pairs_at_n64(self, monkeypatch):
        walks = _chunk_lengths(monkeypatch, solvers)
        solvers._greedy_best(np.zeros((64, 64, 64)))
        assert walks == [[1024] * 3 + [64 * 63 - 3 * 1024]]

    def test_random_search_draws_8192_at_n8(self, monkeypatch):
        cfg = ArchConfig(num_wordlines=8, cells_per_page=32)
        block = gen_random_block(cfg, seed=2)
        walks = _chunk_lengths(monkeypatch, solvers)
        random_search(block, cfg, 2000, 0)
        random_search(block, cfg, 10_000, 0)
        assert walks == [[2000], [8192, 1808]]

    def test_exhaustive_walks_8192_rows_at_n8(self, monkeypatch):
        cfg = ArchConfig(num_wordlines=8, cells_per_page=32)
        walks = _chunk_lengths(monkeypatch, solvers)
        exhaustive_best(gen_random_block(cfg, seed=3), cfg)
        assert walks == [[8192] * 4 + [40_320 - 4 * 8192]]


def _every_chunked_pass(cells):
    """Outputs of every pass that walks core.chunks, on one 7 x 24 block."""
    cfg = ArchConfig(num_wordlines=7, cells_per_page=24)
    block = BlockPattern(cells)
    voltages = simulate_retention(block, cfg, RetentionConfig(seed=21))
    readback = read_back(voltages)
    results = [
        exhaustive_best(block, cfg),
        random_search(block, cfg, 300, 5),
        greedy_arrange(block, cfg),
        simulated_annealing(block, cfg, AnnealSchedule(iterations=500, seed=5)),
    ]
    return {
        "block_score": block_score(block, cfg).hex(),
        "tensor": build_score_tensor(block, cfg),
        "voltages": voltages,
        "readback": readback.cells,
        "ber": measure_ber(block, readback).hex(),
        "solvers": [(r.perm.order, r.score.hex(), r.evaluations) for r in results],
    }


@pytest.mark.parametrize("kind", ["random", "identical_rows"])
def test_every_budget_gives_the_default_outputs(kind):
    # Identical rows tie every arrangement, so the earliest best must win
    # across every chunk boundary.
    cells = gen_random_block(ArchConfig(num_wordlines=7, cells_per_page=24), seed=21).cells
    if kind == "identical_rows":
        cells = np.tile(cells[0], (7, 1))
    expected = _every_chunked_pass(cells)
    if kind == "identical_rows":
        assert [order for order, _, _ in expected["solvers"][::2]] == [tuple(range(7))] * 2
    for budget in (1, 56, 4096):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CHUNK_BYTES", budget)
            got = _every_chunked_pass(cells)
        for key, value in expected.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[key], value), (budget, key)
            else:
                assert got[key] == value, (budget, key)
