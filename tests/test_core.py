import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from nandarrange import (
    AnnealSchedule,
    ArchConfig,
    BlockPattern,
    NetworkConfig,
    Permutation,
    RetentionConfig,
    TrainConfig,
    apply_permutation,
    block_score,
    build_score_tensor,
    channel_ber,
    exhaustive_best,
    gen_random_block,
    greedy_arrange,
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
            # Integers past the float range, which used to raise OverflowError.
            dict(k1=10**400),
            dict(num_wordlines=10**400),
            dict(cells_per_page=10**400),
            dict(k1=10**300, cells_per_page=10**10),
            # Integers whose exact product passes the float range: their scale
            # used to raise OverflowError in the score-tensor build.
            dict(k1=10**300, k2=1, alpha=10**300),
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

    def test_float_cells_rejected(self):
        with pytest.raises(LevelOutOfRange, match=r"^cells must hold integers, got dtype float64$"):
            BlockPattern(np.zeros((3, 3)))


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


class TestConstructorCopyRule:
    # A pattern keeps the array it is given only when no array can write that
    # memory; anything else is copied, so changing the source later leaves
    # the pattern as it was checked.
    def test_writeable_array_is_copied(self):
        cells = np.zeros((3, 4), dtype=np.uint8)
        p = BlockPattern(cells)
        cells[1, 2] = 9
        assert not p.cells.any()

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        cells = np.zeros((3, 4), dtype=np.uint8)
        view = cells.view()
        view.flags.writeable = False
        p = BlockPattern(view)
        cells[1, 2] = 9
        assert not p.cells.any()

    def test_read_only_view_of_a_bytearray_is_copied(self):
        data = bytearray(12)
        array = np.frombuffer(data, dtype=np.uint8)
        array.flags.writeable = False
        p = BlockPattern(array.reshape(3, 4))
        data[6] = 9
        assert not p.cells.any()

    def test_unwritable_arrays_are_kept(self):
        owned = np.arange(12, dtype=np.uint8).reshape(3, 4).copy()
        owned.flags.writeable = False
        assert BlockPattern(owned).cells is owned
        frozen = np.frombuffer(bytes(range(12)), dtype=np.uint8).reshape(3, 4)
        assert BlockPattern(frozen).cells is frozen

    def test_strided_array_is_copied_contiguous(self):
        owned = np.arange(24, dtype=np.uint8).reshape(3, 8) % 16
        owned.flags.writeable = False
        cells = BlockPattern(owned[:, ::2]).cells
        assert cells.flags.c_contiguous and not cells.flags.writeable
        assert np.array_equal(cells, owned[:, ::2])

    def test_kept_arrays_are_checked_first(self):
        frozen = np.frombuffer(bytes([0, 1, 2, 16, 4, 5]), dtype=np.uint8).reshape(3, 2)
        with pytest.raises(LevelOutOfRange, match=r"^cell \(1, 1\) holds 16,"):
            BlockPattern(frozen)

    def test_apply_permutation_holds_one_copy_at_paper_scale(self, peak_bytes):
        # The gathered rows are the pattern's cells; a second copy of them in
        # BlockPattern would double the peak (4.50 MiB here).
        n, c = 16, 147_456
        block = gen_random_block(ArchConfig(num_wordlines=n, cells_per_page=c), seed=6)
        perm = Permutation(tuple(reversed(range(n))))
        assert peak_bytes(apply_permutation, block, perm) < n * c + 2**18
        assert np.array_equal(apply_permutation(block, perm).cells, block.cells[::-1])


@given(st.integers(0, 5000), st.integers(1, 3000), st.integers(0, 2**21))
def test_chunks_split_the_range_in_order(count, item_bytes, budget):
    size = max(1, budget // item_bytes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "CHUNK_BYTES", budget)
        parts = [range(count)[part] for part in core.chunks(count, item_bytes)]
    assert [i for part in parts for i in part] == list(range(count))
    assert all(1 <= len(part) <= size for part in parts)
    assert all(len(part) == size for part in parts[:-1])


class TestHelperThread:
    def test_usable_cpus_follow_the_affinity_mask(self):
        assert core.usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("count, expected", [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity_count_the_host(self, monkeypatch, count, expected):
        # Platforms without CPU affinity (macOS, Windows) have no sched_getaffinity.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert core.usable_cpus() == expected

    def test_second_thread_needs_two_cpus_and_two_chunks(self, cpus):
        cpus(1)
        assert not core.second_thread(2)
        cpus(2)
        assert not core.second_thread(1)
        assert core.second_thread(2)

    def test_the_work_runs_beside_the_body(self):
        ran = []
        with core.on_helper_thread(lambda: ran.append(threading.current_thread())):
            pass
        assert len(ran) == 1 and ran[0] is not threading.current_thread()

    def test_an_exception_of_the_work_reaches_the_caller(self):
        before = threading.active_count()
        with pytest.raises(KeyError, match="missing"):
            with core.on_helper_thread(lambda: {}["missing"]):
                pass
        assert threading.active_count() == before

    def test_concurrent_callers_under_fast_switching(self, cpus, monkeypatch):
        # Three callers at once, each with its own helper threads (six threads
        # on at most two CPUs), switching every microsecond: a row or a draw
        # that two threads shared would change the bytes.
        monkeypatch.setattr(core, "CHUNK_BYTES", 4 * 9 * 9 * 5)
        cfg = ArchConfig(num_wordlines=9, cells_per_page=47)
        block = gen_random_block(cfg, seed=13)
        rcfg = RetentionConfig(coupling=0.3, seed=13)

        def outputs():
            return (
                build_score_tensor(block, cfg).tobytes(),
                simulate_retention(block, cfg, rcfg).tobytes(),
                channel_ber(block, cfg, rcfg).hex(),
            )

        cpus(1)
        expected = outputs()
        cpus(2)
        results = []
        callers = [
            threading.Thread(target=lambda: results.extend(outputs() for _ in range(5)))
            for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expected] * 15

    def test_an_exception_of_the_body_waits_for_the_work(self):
        done = []

        def work():
            time.sleep(0.05)
            done.append(True)

        with pytest.raises(ValueError):
            with core.on_helper_thread(work):
                raise ValueError
        assert done == [True]


def _chunk_lengths(monkeypatch, module):
    """Record the chunk lengths of every core.chunks walk that ``module`` makes."""
    walks = []

    def recording(count, item_bytes):
        parts = list(core.chunks(count, item_bytes))
        walks.append([part.stop - part.start for part in parts])
        return iter(parts)

    monkeypatch.setattr(module, "chunks", recording)
    return walks


def _gather_runs(monkeypatch):
    """Record (start, length) of every gather_triples run, from either module."""
    runs = []
    gather = scoring.gather_triples

    def recording(table, pattern, start, out, index):
        runs.append((start, out.size))
        gather(table, pattern, start, out, index)

    monkeypatch.setattr(scoring, "gather_triples", recording)
    monkeypatch.setattr(retention, "gather_triples", recording)
    return runs


class TestChunkSizesAtBenchmarkShapes:
    # The default budget keeps every pass's chunks at the sizes the benchmark
    # shapes were measured with. The tensor build's column widths are pinned
    # in test_scoring.py (TestColumnBlocks::test_block_width_bounds).
    def test_cell_passes_walk_2_17_cells(self, monkeypatch):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=2**17)
        block = gen_random_block(cfg, seed=1)
        runs = _gather_runs(monkeypatch)
        cell_passes = _chunk_lengths(monkeypatch, retention)
        block_score(block, cfg)
        assert runs == [(0, 2**17), (2**17, 2**17)]  # the summation tree's two leaves
        runs.clear()
        rcfg = RetentionConfig(seed=1)
        ber = channel_ber(block, cfg, rcfg)
        assert ber == measure_ber(block, read_back(simulate_retention(block, cfg, rcfg)))
        # Rows 0 and 3 are edges; rows 1 and 2 are one chunk each, in both
        # voltage walks.
        assert runs == [(0, 2**17), (2**17, 2**17)] * 2
        # channel_ber's voltages, simulate_retention's, read_back, measure_ber
        assert cell_passes == [[2**17] * 4] * 4

    def test_block_score_sums_16_leaves_at_paper_scale(self, monkeypatch):
        # 14 interior rows of 147,456 cells split four times, at multiples of 8.
        cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
        runs = _gather_runs(monkeypatch)
        block_score(gen_random_block(cfg, seed=1), cfg)
        assert runs == [(129_024 * k, 129_024) for k in range(16)]

    def test_greedy_walks_1024_pairs_at_n64(self, monkeypatch):
        walks = _chunk_lengths(monkeypatch, solvers)
        solvers._greedy_best(np.zeros((64, 64, 64)))
        assert walks == [[1024] * 3 + [64 * 63 - 3 * 1024]]

    def test_random_search_draws_8192_at_n8(self, monkeypatch):
        cfg = ArchConfig(num_wordlines=8, cells_per_page=32)
        block = gen_random_block(cfg, seed=2)
        walks = _chunk_lengths(monkeypatch, solvers)
        tensor = build_score_tensor(block, cfg)
        random_search(block, cfg, tensor, 2000, 0)
        random_search(block, cfg, tensor, 10_000, 0)
        assert walks == [[2000], [8192, 1808]]

    def test_only_paper_scale_passes_start_helper_threads(self, cpus, helpers):
        cpus(2)
        for n, c in ((8, 32), (64, 64)):  # desk-pipeline and wide-search
            cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
            block = gen_random_block(cfg, seed=4)
            build_score_tensor(block, cfg)
            simulate_retention(block, cfg, RetentionConfig(seed=4))
            channel_ber(block, cfg, RetentionConfig(seed=4))
        assert helpers.starts == 0
        cfg = ArchConfig(num_wordlines=16, cells_per_page=147_456)
        block = gen_random_block(cfg, seed=4)
        build_score_tensor(block, cfg)
        assert helpers.starts == 1  # 144 column blocks of 1,024 cells
        # 18 chunks of 2^17 cells: each but the last draws its successor's
        # noise on a helper, one at a time.
        channel_ber(block, cfg, RetentionConfig(seed=4))
        assert (helpers.starts, helpers.most) == (1 + 17, 1)

    def test_exhaustive_walks_8192_rows_at_n8(self, monkeypatch):
        cfg = ArchConfig(num_wordlines=8, cells_per_page=32)
        walks = _chunk_lengths(monkeypatch, solvers)
        block = gen_random_block(cfg, seed=3)
        tensor = build_score_tensor(block, cfg)
        exhaustive_best(block, cfg, tensor)
        assert walks == [[8192] * 4 + [40_320 - 4 * 8192]]


def _every_chunked_pass(cells):
    """Outputs of every pass that walks core.chunks, on one 7 x 24 block."""
    cfg = ArchConfig(num_wordlines=7, cells_per_page=24)
    block = BlockPattern(cells)
    voltages = simulate_retention(block, cfg, RetentionConfig(seed=21))
    readback = read_back(voltages)
    tensor = build_score_tensor(block, cfg)
    results = [
        exhaustive_best(block, cfg, tensor),
        random_search(block, cfg, tensor, 300, 5),
        greedy_arrange(block, cfg, tensor),
        simulated_annealing(block, cfg, tensor, AnnealSchedule(iterations=500, seed=5)),
    ]
    return {
        "block_score": block_score(block, cfg).hex(),
        "tensor": build_score_tensor(block, cfg),
        "voltages": voltages,
        "readback": readback.cells,
        "ber": measure_ber(block, readback).hex(),
        "channel_ber": channel_ber(block, cfg, RetentionConfig(seed=21)).hex(),
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
    assert expected["channel_ber"] == expected["ber"]
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


HUGE = 10**5000  # str() refuses an integer past 4,300 digits
LONG = 10**400  # printed in full, its 401 digits would swamp the message

# (site, error, the values of +-HUGE and LONG it refuses): every library
# refusal that prints a number its caller passed in. test_cli.py covers the
# command line's own.
TINY_TENSOR = build_score_tensor(pattern_of([[0], [1], [2]]), ArchConfig(3, 1))
REFUSAL_SITES = {
    "check_seed": (core.check_seed, InvalidArgument, (-HUGE,)),
    "ArchConfig.num_wordlines": (
        lambda v: ArchConfig(num_wordlines=v), InvalidArgument, (HUGE, -HUGE, LONG)
    ),
    "ArchConfig.cells_per_page": (
        lambda v: ArchConfig(cells_per_page=v), InvalidArgument, (HUGE, -HUGE, LONG)
    ),
    "ArchConfig.k1": (  # with alpha = k1, alpha (k1 + k2) overflows a float from 10**300
        lambda v: ArchConfig(k1=v, alpha=v), InvalidArgument, (HUGE, -HUGE, LONG, 10**300)
    ),
    "RetentionConfig.coupling": (
        lambda v: RetentionConfig(coupling=v), InvalidArgument, (HUGE, -HUGE, LONG)
    ),
    "TrainConfig.epochs": (lambda v: TrainConfig(epochs=v), InvalidArgument, (-HUGE,)),
    "NetworkConfig.hidden_size": (
        lambda v: NetworkConfig(input_dim=1, hidden_size=v, output_dim=3),
        InvalidArgument,
        (HUGE, -HUGE, LONG),
    ),
    "AnnealSchedule.cooling_factor": (
        lambda v: AnnealSchedule(cooling_factor=v), InvalidArgument, (HUGE, -HUGE, LONG)
    ),
    "AnnealSchedule.iterations": (
        lambda v: AnnealSchedule(iterations=v), InvalidArgument, (-HUGE,)
    ),
    "random_search.iterations": (
        lambda v: random_search(pattern_of([[0], [1], [2]]), ArchConfig(3, 1), TINY_TENSOR, v, 0),
        InvalidArgument,
        (-HUGE,),
    ),
    "Permutation": (lambda v: Permutation((v, 0, 1)), NotABijection, (HUGE, -HUGE, LONG)),
    "scoring level": (
        lambda v: scoring.ae_coefficient(0, v, 0), LevelOutOfRange, (HUGE, -HUGE, LONG)
    ),
}


@pytest.mark.parametrize(
    "site, value",
    [
        pytest.param(site, value, id=f"{site}-{core.brief(value)}")
        for site, (_, _, values) in REFUSAL_SITES.items()
        for value in values
    ],
)
def test_refusals_of_huge_integers_stay_short(site, value):
    refuse, error, _ = REFUSAL_SITES[site]
    with pytest.raises(error) as info:
        refuse(value)
    assert len(str(info.value)) <= 200


@pytest.mark.parametrize(
    "value, shown",
    [
        pytest.param(value, shown, id=shown)  # pytest's own id would str() HUGE
        for value, shown in [
            (0, "0"),
            (-(2**64) + 1, "-18446744073709551615"),
            (2**64, "<65-bit integer>"),
            (-HUGE, "-<16610-bit integer>"),
            (0.5, "0.5"),
            (1e300, "1e+300"),
            (True, "True"),
        ]
    ],
)
def test_brief_prints_all_but_a_long_integer_in_full(value, shown):
    assert core.brief(value) == shown
