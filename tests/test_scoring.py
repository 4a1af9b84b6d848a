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
)
from nandarrange import core
from nandarrange.errors import DimensionMismatch, LevelOutOfRange
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


def _reference_einsum_tensor(pattern, cfg):
    """Slow reference: float64 np.einsum sums over the bitlines of the
    coupling coefficient 5 - z_b (3 e_a + 3 e_c - 2 e_a e_c), split into the
    part without e_c and the part that multiplies it."""
    x = pattern.cells.astype(np.float64)
    erased = (x == 0).astype(np.float64)
    coupled = (1.0 - erased)[None, :, :]
    q = (16.0 - np.abs(x[:, None, :] - x[None, :, :])) * (16.0 - x)[None, :, :]
    outer = q * (5.0 - 3.0 * coupled * erased[:, None, :])
    inner = q * coupled * (3.0 - 2.0 * erased[:, None, :])
    m = np.einsum("abi->ab", outer)[:, :, None] - np.einsum("abi,ci->abc", inner, erased)
    tensor = (cfg.k2 * m + cfg.k1 * m.transpose(2, 1, 0)) / (cfg.alpha * (cfg.k1 + cfg.k2))
    tensor[_repeated_index_mask(pattern.num_wordlines)] = 0.0
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


class TestBlockScore:
    def test_interior_triples_only(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=1)
        assert block_score(BlockPattern(np.zeros((4, 1), dtype=np.uint8)), cfg) == 2560.0

    def test_three_wordline_sandwich(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=1)
        pattern = BlockPattern(np.array([[0], [15], [0]], dtype=np.uint8))
        assert block_score(pattern, cfg) == 1.0

    def test_all_erased_three_rows(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=4)
        assert block_score(BlockPattern(np.zeros((3, 4), dtype=np.uint8)), cfg) == 5120.0

    def test_two_cells_sum(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=2)
        pattern = BlockPattern(np.array([[0, 15], [15, 0], [0, 15]], dtype=np.uint8))
        assert block_score(pattern, cfg) == 81.0

    def test_three_wordlines_equals_page_triple(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=6)
        rng = np.random.default_rng(5)
        cells = rng.integers(0, 16, size=(3, 6), dtype=np.uint8)
        pattern = BlockPattern(cells)
        expected = float(score_table(cfg)[cells[0], cells[1], cells[2]].sum())
        assert block_score(pattern, cfg) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("score", [block_score, build_score_tensor])
    @pytest.mark.parametrize("shape", [(5, 8), (4, 9), (2, 1)])
    def test_rejects_a_pattern_of_another_shape(self, score, shape):
        # One shape check per pass, ahead of the first cell read. A block of
        # fewer than 3 wordlines is one such shape: ArchConfig admits no N < 3.
        pattern = BlockPattern(np.zeros(shape, dtype=np.uint8))
        message = rf"^pattern is {shape[0]}x{shape[1]}, config wants 4x8$"
        with pytest.raises(DimensionMismatch, match=message):
            score(pattern, CFG)


def test_gather_refuses_a_non_contiguous_output():
    # take would fill a strided output through a hidden copy of it, so the
    # gather refuses one, and any run outside the interior, before writing.
    table = np.arange(16**3, dtype=np.float64).reshape(16, 16, 16)
    x = np.random.default_rng(3).integers(0, 16, size=(5, 4), dtype=np.uint8)
    index = np.empty(12, dtype=np.uint16)
    out = np.zeros(24)[::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        gather_triples(table, BlockPattern(x), 0, out, index)
    assert not out.any()
    with pytest.raises(ValueError, match="one-dimensional"):
        gather_triples(table, BlockPattern(x), 0, np.zeros((3, 4)), index)
    with pytest.raises(ValueError, match="index buffer"):
        gather_triples(table, BlockPattern(x), 0, np.zeros(12), index[:11])
    with pytest.raises(ValueError, match=r"^interior cells 5\.\.13 outside 0\.\.12$"):
        gather_triples(table, BlockPattern(x), 5, np.zeros(8), index)
    with pytest.raises(ValueError, match=r"^interior cells -1\.\.1 outside 0\.\.12$"):
        gather_triples(table, BlockPattern(x), -1, np.zeros(2), index)
    expected = table[x[:-2], x[1:-1], x[2:]].reshape(-1)
    contiguous = np.empty(12)
    gather_triples(table, BlockPattern(x), 0, contiguous, index)
    assert np.array_equal(contiguous, expected)
    run = np.empty(5)  # interior cells 3 to 7, across the end of the first row
    gather_triples(table, BlockPattern(x), 3, run, index)
    assert np.array_equal(run, expected[3:8])


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


# Budgets of 1 B and 56 B both give the 128-value floor of the leaf size,
# 4 KiB gives 512 values and the default 2^17.
SUM_BUDGETS = [1, 56, 4096, core.CHUNK_BYTES]


@st.composite
def summation_cases(draw):
    """Blocks whose (N-2) C interior cells fall near a multiple of 8, near
    numpy's 128-value pairwise block, or near a small multiple of the leaf
    size of the drawn budget."""
    budget = draw(st.sampled_from(SUM_BUDGETS))
    leaf = max(budget // 8, 128)
    target = draw(st.sampled_from([8 * draw(st.integers(1, 40)), 128, 256, leaf, 2 * leaf, 3 * leaf]))
    rows = draw(st.sampled_from([1, 2, 3, 5]))
    c = max(1, (target + draw(st.integers(-9, 9))) // rows)
    cfg = ArchConfig(
        num_wordlines=rows + 2,
        cells_per_page=c,
        k1=draw(positive_coefficient),
        k2=draw(positive_coefficient),
        alpha=draw(positive_coefficient),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.where(rng.random((rows + 2, c)) < 0.4, 0, rng.integers(1, 16, size=(rows + 2, c)))
    return BlockPattern(cells.astype(np.uint8)), cfg, budget


@given(summation_cases())
@settings(max_examples=150, deadline=None)
def test_block_score_equals_one_whole_block_sum(case):
    # The leaf-by-leaf walk must give the bits of one np.sum over the
    # (N-2) x C gathered scores, at every budget.
    pattern, cfg, budget = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "CHUNK_BYTES", budget)
        got = block_score(pattern, cfg)
    assert got.hex() == _reference_block_score(pattern, cfg).hex()


@pytest.mark.parametrize(
    "n,c", [(3, 1), (3, 2**17 - 1), (3, 2**17), (3, 2**17 + 1), (4, 2**17), (5, 131_073), (16, 147_456)]
)
def test_block_score_equals_one_whole_block_sum_at_leaf_edges(n, c):
    cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
    pattern = _erase_heavy_block(n, c, seed=n + c)
    assert block_score(pattern, cfg).hex() == _reference_block_score(pattern, cfg).hex()


def test_block_score_memory_is_independent_of_the_page(peak_bytes):
    # One leaf of 2^17 values, its uint16 index and take's intp copy of the
    # index; the whole-block gather held 14 * 147,456 float64 values (15.75
    # MiB) and a uint16 index of them.
    cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
    pattern = _erase_heavy_block(16, 147_456, seed=26)
    assert peak_bytes(block_score, pattern, cfg) < 3 * 2**20


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

    @pytest.mark.parametrize(
        "n,c,kind",
        [
            (16, 1024, "mixed"),  # one block, one per-page product of 2^18 multiply-adds
            (64, 64, "mixed"),  # the same at the other end of the budget
            (16, 3 * 1024 + 5, "mixed"),
            (3, 16_384 + 1, "mixed"),
            (6, 50, "erased"),
            (7, 300, "programmed"),
        ],
    )
    def test_bytes_equal_the_float64_einsum_reference(self, n, c, kind):
        rng = np.random.default_rng(n * c)
        cells = {
            "mixed": lambda: _erase_heavy_block(n, c, seed=n + c).cells,
            "erased": lambda: np.zeros((n, c), dtype=np.uint8),
            "programmed": lambda: rng.integers(1, 16, size=(n, c), dtype=np.uint8),
        }[kind]()
        pattern = BlockPattern(cells)
        for k1, k2, alpha in ((4.0, 1.0, 1.0), (2.5, 0.3, 2.0)):
            cfg = ArchConfig(num_wordlines=n, cells_per_page=c, k1=k1, k2=k2, alpha=alpha)
            tensor = build_score_tensor(pattern, cfg)
            assert tensor.tobytes() == _reference_einsum_tensor(pattern, cfg).tobytes()

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


@pytest.mark.parametrize("n", [3, 5, 17])
def test_build_on_two_threads_equals_one(n, cpus, helpers, monkeypatch):
    # Column blocks of 5 cells over C = 41: nine blocks, the last of one
    # cell. On two CPUs a helper thread walks the upper half of the
    # under-pages (2 of 3, 3 of 5, 9 of 17).
    monkeypatch.setattr(core, "CHUNK_BYTES", 4 * n * n * 5)
    assert _block_width(n) == 5
    c = 41
    pattern = _erase_heavy_block(n, c, seed=n)
    cfg = ArchConfig(num_wordlines=n, cells_per_page=c, k1=2.5, k2=0.3, alpha=2.0)
    tensors = []
    for count in (1, 2):
        cpus(count)
        tensors.append(build_score_tensor(pattern, cfg).tobytes())
    assert helpers.starts == 1
    assert tensors[0] == tensors[1] == _reference_matmul_tensor(pattern, cfg).tobytes()


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
