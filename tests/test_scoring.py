import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nandarrange import (
    ArchConfig,
    BlockPattern,
    Permutation,
    ae_coefficient,
    apply_permutation,
    block_score,
    build_score_tensor,
    cell_score,
    page_triple_score,
)
from nandarrange import core
from nandarrange.errors import LengthMismatch, LevelOutOfRange, TooFewWordlines
from nandarrange.scoring import (
    _EXACT_BLOCK_CELLS,
    _block_width,
    gather_triples,
    score_table,
    tensor_build_count,
)

CFG = ArchConfig(num_wordlines=4, cells_per_page=8)


def _reference_score_tensor(pattern, cfg):
    """Slow reference: gathers the 16^3 score table for every ordered page
    triple and bitline (an N^3 x C intermediate), then sums over bitlines."""
    cells = pattern.cells
    tensor = score_table(cfg)[
        cells[:, None, None, :], cells[None, :, None, :], cells[None, None, :, :]
    ].sum(axis=-1)
    tensor[_repeated_index_mask(pattern.num_wordlines)] = 0.0
    return tensor


def _reference_matmul_tensor(pattern, cfg):
    """Slow reference: the per-middle-page matmul build with every N x C pass
    in float64."""
    n = pattern.num_wordlines
    levels = pattern.cells.astype(np.float64)
    erased = (pattern.cells == 0).astype(np.float64)
    sign = 2.0 * erased - 3.0
    work = np.empty_like(levels)
    tensor = np.empty((n, n, n), dtype=np.float64)
    for b in range(n):
        mid = levels[b]
        headroom = 16 - mid
        coupled = headroom * (mid != 0)
        np.subtract(levels, mid, out=work)
        np.abs(work, out=work)
        np.subtract(16, work, out=work)
        row_term = work @ (5.0 * headroom) - 3.0 * (erased @ (headroom * coupled))
        work *= coupled
        work *= sign
        pair = work @ erased.T
        pair += row_term[:, None]
        tensor[:, b, :] = (cfg.k2 * pair + cfg.k1 * pair.T) / (cfg.alpha * (cfg.k1 + cfg.k2))
    tensor[_repeated_index_mask(n)] = 0.0
    return tensor


def _reference_block_score(pattern, cfg):
    """Slow reference: indexes the score table with three N-2 x C arrays."""
    cells = pattern.cells
    return float(score_table(cfg)[cells[:-2], cells[1:-1], cells[2:]].sum())


def _repeated_index_mask(n):
    idx = np.arange(n)
    return (
        (idx[:, None, None] == idx[None, :, None])
        | (idx[None, :, None] == idx[None, None, :])
        | (idx[:, None, None] == idx[None, None, :])
    )


# Every erased/programmed class of the coupling table, with representative
# programmed levels.
AE_TABLE = [
    ((15, 0, 7), 5),   # P 0 P
    ((0, 0, 0), 5),    # 0 0 0
    ((3, 8, 12), 5),   # P P P
    ((0, 9, 0), 1),    # 0 P 0
    ((0, 0, 11), 5),   # 0 0 P
    ((0, 9, 3), 2),    # 0 P P
    ((6, 0, 0), 5),    # P 0 0
    ((14, 2, 0), 2),   # P P 0
]


@pytest.mark.parametrize("triple,expected", AE_TABLE)
def test_ae_table_rows(triple, expected):
    assert ae_coefficient(*triple) == expected


def test_ae_depends_only_on_erased_pattern():
    rng = np.random.default_rng(0)
    for _ in range(200):
        base = rng.integers(0, 16, size=3)
        programmed = rng.integers(1, 16, size=3)
        varied = np.where(base > 0, programmed, 0)
        assert ae_coefficient(*base) == ae_coefficient(*varied)


def test_ae_rejects_out_of_range():
    with pytest.raises(LevelOutOfRange):
        ae_coefficient(16, 0, 0)


class TestCellScore:
    def test_hand_evaluated_triples(self):
        assert cell_score(0, 0, 0, CFG) == 1280.0
        assert cell_score(15, 0, 15, CFG) == 80.0
        assert cell_score(0, 15, 0, CFG) == 1.0

    def test_positive_everywhere_and_max_at_origin(self):
        values = [
            cell_score(u, m, p, CFG)
            for u, m, p in itertools.product(range(16), repeat=3)
        ]
        assert min(values) > 0
        assert max(values) == 1280.0 == cell_score(0, 0, 0, CFG)

    def test_asymmetric_under_neighbor_swap(self):
        assert cell_score(0, 5, 9, CFG) != cell_score(9, 5, 0, CFG)

    def test_alpha_rescales_scores(self):
        scaled = ArchConfig(num_wordlines=4, cells_per_page=8, alpha=4.0)
        for triple in [(0, 0, 0), (3, 7, 12), (15, 1, 2)]:
            assert cell_score(*triple, scaled) == pytest.approx(cell_score(*triple, CFG) / 4.0)


class TestPageTripleScore:
    def test_all_zero_pages(self):
        zeros = np.zeros(4, dtype=np.int64)
        assert page_triple_score(zeros, zeros, zeros, CFG) == 5120.0

    def test_single_cell_matches_cell_score(self):
        assert page_triple_score(np.array([0]), np.array([15]), np.array([0]), CFG) == 1.0

    def test_two_cells_sum(self):
        under = np.array([0, 15])
        mid = np.array([15, 0])
        up = np.array([0, 15])
        assert page_triple_score(under, mid, up, CFG) == 81.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            page_triple_score(np.zeros(3, dtype=int), np.zeros(4, dtype=int), np.zeros(3, dtype=int), CFG)

    def test_rejects_level_16_naming_page_and_cell(self):
        up = np.array([0, 0, 16])
        with pytest.raises(LevelOutOfRange, match=r"cell \(2, 2\) holds 16"):
            page_triple_score(np.zeros(3, dtype=int), np.zeros(3, dtype=int), up, CFG)

    def test_rejects_float_pages(self):
        zeros = np.zeros(3, dtype=int)
        with pytest.raises(LevelOutOfRange, match="integers"):
            page_triple_score(zeros, np.zeros(3), zeros, CFG)


class TestBlockScore:
    def test_interior_triples_only(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=1)
        assert block_score(BlockPattern(np.zeros((4, 1), dtype=np.uint8)), cfg) == 2560.0

    def test_three_wordline_sandwich(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=1)
        pattern = BlockPattern(np.array([[0], [15], [0]], dtype=np.uint8))
        assert block_score(pattern, cfg) == 1.0

    def test_three_wordlines_equals_page_triple(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=6)
        rng = np.random.default_rng(5)
        cells = rng.integers(0, 16, size=(3, 6), dtype=np.uint8)
        pattern = BlockPattern(cells)
        expected = page_triple_score(cells[0], cells[1], cells[2], cfg)
        assert block_score(pattern, cfg) == pytest.approx(expected, rel=1e-12)

    def test_rejects_short_blocks(self):
        short = BlockPattern(np.zeros((2, 1), dtype=np.uint8))
        with pytest.raises(TooFewWordlines):
            block_score(short, CFG)
        with pytest.raises(TooFewWordlines, match=r"^score tensor needs >= 3 wordlines, got 2$"):
            build_score_tensor(short, CFG)


def test_gather_refuses_a_non_contiguous_output():
    # A flat reshape of a strided output would be a copy, so the gathered
    # values would never reach it.
    table = np.arange(16**3, dtype=np.float64).reshape(16, 16, 16)
    cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
    x = np.random.default_rng(3).integers(0, 16, size=(5, 4), dtype=np.uint8)
    out = np.zeros((3, 8))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        gather_triples(table, BlockPattern(x), cfg, out)
    assert not out.any()
    with pytest.raises(ValueError, match=r"C-contiguous \(3, 4\) array"):
        gather_triples(table, BlockPattern(x), cfg, np.zeros((3, 5)))
    contiguous = np.empty((3, 4))
    gather_triples(table, BlockPattern(x), cfg, contiguous)
    assert np.array_equal(contiguous, table[x[:-2], x[1:-1], x[2:]])


class TestScoreTensor:
    def test_repeated_indices_are_zero(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=2)
        rng = np.random.default_rng(1)
        tensor = build_score_tensor(BlockPattern(rng.integers(0, 16, size=(4, 2), dtype=np.uint8)), cfg)
        for i in range(4):
            for j in range(4):
                assert tensor[i, i, j] == 0
                assert tensor[i, j, i] == 0
                assert tensor[j, i, i] == 0

    def test_nonzero_entry_count(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=3)
        rng = np.random.default_rng(2)
        tensor = build_score_tensor(BlockPattern(rng.integers(0, 16, size=(5, 3), dtype=np.uint8)), cfg)
        assert int((tensor > 0).sum()) == 5 * 4 * 3

    def test_all_zero_pattern_entry(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=1)
        tensor = build_score_tensor(BlockPattern(np.zeros((3, 1), dtype=np.uint8)), cfg)
        assert tensor[0, 1, 2] == 1280.0

    def test_matches_cell_score_loops(self):
        # Independent slow path: triple loops over cell_score.
        cfg = ArchConfig(num_wordlines=4, cells_per_page=3)
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 16, size=(4, 3), dtype=np.uint8)
        tensor = build_score_tensor(BlockPattern(cells), cfg)
        for a, b, c in itertools.product(range(4), repeat=3):
            if len({a, b, c}) < 3:
                continue
            expected = sum(
                cell_score(int(cells[a, i]), int(cells[b, i]), int(cells[c, i]), cfg)
                for i in range(3)
            )
            assert tensor[a, b, c] == pytest.approx(expected, rel=1e-12)

    def test_build_counter_increments(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=1)
        before = tensor_build_count()
        build_score_tensor(BlockPattern(np.zeros((3, 1), dtype=np.uint8)), cfg)
        assert tensor_build_count() == before + 1


positive_coefficient = st.floats(min_value=0.01, max_value=100.0)


@st.composite
def tensor_cases(draw):
    n = draw(st.integers(3, 12))
    c = draw(st.integers(1, 300))
    cfg = ArchConfig(
        num_wordlines=n,
        cells_per_page=c,
        k1=draw(positive_coefficient),
        k2=draw(positive_coefficient),
        alpha=draw(positive_coefficient),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 40% erased cells (not 1/16), so every erase-adjacency class occurs often.
    cells = np.where(rng.random((n, c)) < 0.4, 0, rng.integers(1, 16, size=(n, c)))
    kind = rng.integers(0, 3, size=c)
    cells[:, kind == 1] = 0
    cells[:, kind == 2] = 15
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int64]))
    return BlockPattern(cells.astype(dtype)), cfg


@given(tensor_cases())
@settings(max_examples=80, deadline=None)
def test_tensor_matches_gather_reference(case):
    pattern, cfg = case
    tensor = build_score_tensor(pattern, cfg)
    np.testing.assert_allclose(tensor, _reference_score_tensor(pattern, cfg), rtol=1e-12, atol=0)
    assert np.all(tensor[_repeated_index_mask(pattern.num_wordlines)] == 0.0)


@given(tensor_cases())
@settings(max_examples=80, deadline=None)
def test_tensor_and_block_score_are_bit_identical_to_float_references(case):
    pattern, cfg = case
    assert np.array_equal(build_score_tensor(pattern, cfg), _reference_matmul_tensor(pattern, cfg))
    assert block_score(pattern, cfg).hex() == _reference_block_score(pattern, cfg).hex()


@pytest.mark.parametrize("k1,k2,alpha", [(4.0, 1.0, 1.0), (2.5, 0.3, 2.0), (1.0, 7.0, 1.0)])
def test_tensor_entry_equals_cell_score_for_every_level_triple(k1, k2, alpha):
    cfg = ArchConfig(num_wordlines=3, cells_per_page=1, k1=k1, k2=k2, alpha=alpha)
    for triple in itertools.product(range(16), repeat=3):
        pattern = BlockPattern(np.array(triple, dtype=np.uint8).reshape(3, 1))
        tensor = build_score_tensor(pattern, cfg)
        assert tensor[0, 1, 2] == pytest.approx(cell_score(*triple, cfg), rel=1e-14)


class TestTensorExactness:
    # The per-page sums are exact integers in float64, so these hold bit for bit.
    def test_column_order_does_not_change_tensor(self):
        cfg = ArchConfig(num_wordlines=9, cells_per_page=257)
        rng = np.random.default_rng(21)
        cells = rng.integers(0, 16, size=(9, 257), dtype=np.uint8)
        shuffled = cells[:, rng.permutation(257)]
        assert np.array_equal(
            build_score_tensor(BlockPattern(cells), cfg),
            build_score_tensor(BlockPattern(shuffled), cfg),
        )

    def test_equal_weights_make_tensor_symmetric_in_outer_pages(self):
        cfg = ArchConfig(num_wordlines=7, cells_per_page=50, k1=3.0, k2=3.0)
        rng = np.random.default_rng(22)
        tensor = build_score_tensor(BlockPattern(rng.integers(0, 16, size=(7, 50))), cfg)
        assert np.array_equal(tensor, tensor.transpose(2, 1, 0))

    def test_cell_dtype_and_layout_do_not_change_tensor(self):
        # Levels below the middle page's level would wrap if x - m ran in uint8.
        cfg = ArchConfig(num_wordlines=6, cells_per_page=40)
        rng = np.random.default_rng(23)
        wide = rng.integers(0, 16, size=(6, 80), dtype=np.uint8)
        expected = build_score_tensor(BlockPattern(wide[:, ::2].copy()), cfg)
        for cells in (
            wide[:, ::2].astype(np.int16),
            wide[:, ::2].astype(np.int64),
            wide[:, ::2],
        ):
            assert np.array_equal(build_score_tensor(BlockPattern(cells), cfg), expected)


def test_tensor_build_memory_is_bounded_at_wide_blocks(peak_bytes):
    # A gather over all N^3 page triples would need N^3 * C * 8 bytes (8 GiB
    # here); the build needs one float32 block, the N^3 result and the
    # float32 product of each block.
    cfg = ArchConfig(num_wordlines=64, cells_per_page=4096)
    pattern = BlockPattern(np.random.default_rng(24).integers(0, 16, size=(64, 4096), dtype=np.uint8))
    assert peak_bytes(build_score_tensor, pattern, cfg) < 32 * 2**20


def _erase_heavy_block(n, c, seed):
    rng = np.random.default_rng(seed)
    cells = np.where(rng.random((n, c)) < 0.4, 0, rng.integers(1, 16, size=(n, c)))
    return BlockPattern(cells.astype(np.uint8))


class TestColumnBlocks:
    # The build walks the page in column blocks of _block_width(N) cells; its
    # float32 block sums are exact only while 720 * width < 2^24.
    def test_block_width_bounds(self):
        assert 720 * _EXACT_BLOCK_CELLS < 2**24
        for n in (3, 4, 16, 64, 100, 512, 513, 4096):
            width = _block_width(n)
            assert 1 <= width <= _EXACT_BLOCK_CELLS
            assert 4 * n * n * width <= core.CHUNK_BYTES or width == 1
        assert (_block_width(3), _block_width(16), _block_width(64)) == (16_384, 1024, 64)

    @pytest.mark.parametrize("n", [3, 16, 64])
    @pytest.mark.parametrize("extra", ["k-1", "k", "k+1", "3k+5"])
    def test_block_boundaries(self, n, extra):
        k = _block_width(n)
        c = {"k-1": k - 1, "k": k, "k+1": k + 1, "3k+5": 3 * k + 5}[extra]
        pattern = _erase_heavy_block(n, c, seed=n * 1000 + c)
        for k1, k2, alpha in ((4.0, 1.0, 1.0), (2.5, 0.3, 2.0)):
            cfg = ArchConfig(num_wordlines=n, cells_per_page=c, k1=k1, k2=k2, alpha=alpha)
            assert np.array_equal(build_score_tensor(pattern, cfg), _reference_matmul_tensor(pattern, cfg))

    def test_worst_case_block_sums_stay_exact(self):
        # Pages at levels 2, 1, 0 in every column add the odd value
        # 15 * 15 * (-3) = -675 to the pair sum (0, 1, 2) per column. A block
        # wider than the exactness bound passes 2^24 with an odd total, where
        # float32 rounds. (Pages all at level 1 would not show this: their
        # sums are multiples of 16 and stay exact far past 2^24.)
        c = 60_000
        pattern = BlockPattern(np.repeat(np.array([[2], [1], [0]], dtype=np.uint8), c, axis=1))
        cfg = ArchConfig(num_wordlines=3, cells_per_page=c)
        assert np.array_equal(build_score_tensor(pattern, cfg), _reference_matmul_tensor(pattern, cfg))

    def test_memory_at_paper_scale_is_independent_of_the_page(self, peak_bytes):
        # One float32 block is at most 1 MiB whatever C, where a single N x C
        # float64 operand would take 18 MiB here.
        cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
        pattern = _erase_heavy_block(16, 147_456, seed=25)
        assert peak_bytes(build_score_tensor, pattern, cfg) < 4 * 2**20
        assert np.array_equal(build_score_tensor(pattern, cfg), _reference_matmul_tensor(pattern, cfg))


def test_decomposition_identity_random_instances():
    # block_score of any arrangement equals the tensor summed over the
    # permutation's consecutive triples: the property linking the block
    # objective to the training tensor.
    cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
    rng = np.random.default_rng(7)
    for _ in range(5):
        pattern = BlockPattern(rng.integers(0, 16, size=(5, 4), dtype=np.uint8))
        tensor = build_score_tensor(pattern, cfg)
        for order in itertools.permutations(range(5)):
            sigma = np.asarray(order)
            direct = block_score(apply_permutation(pattern, Permutation(order)), cfg)
            via_tensor = float(tensor[sigma[:-2], sigma[1:-1], sigma[2:]].sum())
            assert direct == pytest.approx(via_tensor, rel=1e-12)


def test_alpha_invariant_argmax():
    from nandarrange import exhaustive_best

    rng = np.random.default_rng(11)
    cells = rng.integers(0, 16, size=(5, 4), dtype=np.uint8)
    base = ArchConfig(num_wordlines=5, cells_per_page=4)
    scaled = ArchConfig(num_wordlines=5, cells_per_page=4, alpha=3.0)
    pattern = BlockPattern(cells)
    assert exhaustive_best(pattern, base).perm.order == exhaustive_best(pattern, scaled).perm.order
