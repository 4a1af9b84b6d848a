import inspect
import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nandarrange import (
    AnnealSchedule,
    ArchConfig,
    BlockPattern,
    NetworkConfig,
    Permutation,
    apply_permutation,
    arrange,
    block_score,
    build_score_tensor,
    exhaustive_best,
    gen_random_block,
    greedy_arrange,
    init_params,
    random_search,
    simulated_annealing,
    tensor_build_count,
)
from nandarrange import core, solvers
from nandarrange.errors import DimensionMismatch, InvalidArgument, TooManyWordlines


def brute_force_max(pattern, cfg):
    # Second, independently coded enumeration: no tensor, direct block_score.
    best = -math.inf
    for order in itertools.permutations(range(pattern.num_wordlines)):
        score = block_score(apply_permutation(pattern, Permutation(order)), cfg)
        best = max(best, score)
    return best


def _reference_seq_score(tensor_list, seq):
    total = 0.0
    for t in range(len(seq) - 2):
        total += tensor_list[seq[t]][seq[t + 1]][seq[t + 2]]
    return total


def _reference_greedy(tensor_list, n):
    # The pure-Python greedy the array pass replaced: one starting pair at a
    # time, a strict-> scan over the remaining pages in ascending order.
    best_order = None
    best = -math.inf
    count = 0
    for u in range(n):
        for v in range(n):
            if v == u:
                continue
            seq = [u, v]
            remaining = [w for w in range(n) if w != u and w != v]
            while remaining:
                row = tensor_list[seq[-2]][seq[-1]]
                best_w = remaining[0]
                for w in remaining[1:]:
                    if row[w] > row[best_w]:
                        best_w = w
                remaining.remove(best_w)
                seq.append(best_w)
            count += 1
            score = _reference_seq_score(tensor_list, seq)
            if score > best:
                best = score
                best_order = seq
    return best_order, best, count


def _reference_exhaustive(tensor_list, n):
    # The itertools loop the array pass replaced; strict > keeps the first
    # (lexicographically smallest) permutation among ties.
    best_order = None
    best = -math.inf
    count = 0
    for order in itertools.permutations(range(n)):
        count += 1
        score = _reference_seq_score(tensor_list, order)
        if score > best:
            best = score
            best_order = list(order)
    return best_order, best, count


def _reference_random_search(pattern, cfg, iterations, seed):
    # The sequential loop the batched scoring replaced: a hand-written
    # Fisher-Yates shuffle and one strict-> comparison per draw.
    n = pattern.num_wordlines
    view = memoryview(build_score_tensor(pattern, cfg))
    rng = random.Random(seed)
    best_order = None
    best = -math.inf
    seq = list(range(n))
    for _ in range(iterations):
        for k in range(n - 1, 0, -1):
            j = rng.randrange(k + 1)
            seq[k], seq[j] = seq[j], seq[k]
        score = solvers._seq_score(view, seq)
        if score > best:
            best = score
            best_order = list(seq)
    perm = Permutation(tuple(best_order))
    return perm.order, block_score(apply_permutation(pattern, perm), cfg), iterations


def _reference_simulated_annealing(pattern, cfg, schedule, history=None):
    # The loop the touched-triple deltas replaced: every candidate is rescored
    # in full, N-2 lookups per step.
    n = pattern.num_wordlines
    tensor = build_score_tensor(pattern, cfg)
    rng = random.Random(schedule.seed)
    seq, current, greedy_count = solvers._greedy_best(tensor)
    view = memoryview(tensor)
    best = current
    best_order = list(seq)
    temp = schedule.initial_temperature
    if temp is None:
        temp = max(solvers.SA_DEFAULT_T0_FRACTION * current, 1e-12)
    for _ in range(schedule.iterations):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        seq[i], seq[j] = seq[j], seq[i]
        candidate = solvers._seq_score(view, seq)
        delta = candidate - current
        if delta >= 0 or (temp > 0 and rng.random() < math.exp(delta / temp)):
            current = candidate
            if history is not None:
                history.append(current)
            if current > best:
                best = current
                best_order = list(seq)
        else:
            seq[i], seq[j] = seq[j], seq[i]
        temp *= schedule.cooling_factor
    perm = Permutation(tuple(best_order))
    score = block_score(apply_permutation(pattern, perm), cfg)
    return perm.order, score, greedy_count + 1 + schedule.iterations


BLOCK_KINDS = ("random", "identical_rows", "all_erased", "two_level")


def make_block(kind, n, c, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        cells = rng.integers(0, 16, size=(n, c))
    elif kind == "identical_rows":
        cells = np.tile(rng.integers(0, 16, size=c), (n, 1))
    elif kind == "all_erased":
        cells = np.zeros((n, c))
    else:
        # Two levels only: at small C many rows repeat, so many triples tie.
        lo, hi = rng.choice(16, size=2, replace=False)
        cells = np.where(rng.random((n, c)) < 0.5, lo, hi)
    return BlockPattern(cells.astype(np.uint8))


@st.composite
def greedy_cases(draw):
    n = draw(st.integers(3, 12))
    c = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(BLOCK_KINDS))
    cfg = ArchConfig(
        num_wordlines=n,
        cells_per_page=c,
        k1=draw(st.sampled_from([4.0, 1.0, 0.3])),
        k2=draw(st.sampled_from([1.0, 2.5])),
    )
    return make_block(kind, n, c, draw(st.integers(0, 2**32 - 1))), cfg


class TestExhaustive:
    def test_evaluates_24_permutations_at_n4(self):
        cfg = ArchConfig(num_wordlines=4, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=3)
        tensor = build_score_tensor(pattern, cfg)
        result = exhaustive_best(pattern, cfg, tensor)
        assert result.evaluations == 24

    def test_identical_rows_give_identity(self):
        for n in range(3, 9):
            cfg = ArchConfig(num_wordlines=n, cells_per_page=4)
            cells = np.tile(np.array([1, 5, 9, 13], dtype=np.uint8), (n, 1))
            pattern = BlockPattern(cells)
            tensor = build_score_tensor(pattern, cfg)
            result = exhaustive_best(pattern, cfg, tensor)
            assert result.perm.order == tuple(range(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_permutation_rows_are_lexicographic(self, n):
        expected = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
        np.testing.assert_array_equal(solvers._permutations(n), expected.reshape(-1, n))

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_reference_loop(self, n, kind):
        cfg = ArchConfig(num_wordlines=n, cells_per_page=6)
        pattern = make_block(kind, n, 6, seed=n)
        tensor = build_score_tensor(pattern, cfg)
        order, _, count = _reference_exhaustive(tensor.tolist(), n)
        result = exhaustive_best(pattern, cfg, tensor)
        assert list(result.perm.order) == order
        assert result.evaluations == count == math.factorial(n)
        assert result.score.hex() == block_score(apply_permutation(pattern, Permutation(tuple(order))), cfg).hex()

    def test_memory_is_bounded_at_the_limit(self, peak_bytes):
        # The N! x N uint8 table is 3.1 MiB at N=9, and building it peaks at
        # 3.4 MiB; each column pass over a chunk of 7,281 rows adds a few
        # chunk-long index and float arrays. Measured: 4.05 MiB (8.85 MiB when
        # each pass ran over all N! rows).
        cfg = ArchConfig(num_wordlines=9, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=9)
        tensor = build_score_tensor(pattern, cfg)
        assert peak_bytes(exhaustive_best, pattern, cfg, tensor) < 5 * 2**20

    def test_matches_independent_enumeration(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=42)
        tensor = build_score_tensor(pattern, cfg)
        result = exhaustive_best(pattern, cfg, tensor)
        assert result.score == pytest.approx(brute_force_max(pattern, cfg), rel=1e-12)

    def test_refuses_large_n(self):
        cfg = ArchConfig(num_wordlines=10, cells_per_page=2)
        pattern = gen_random_block(cfg, seed=0)
        tensor = build_score_tensor(pattern, cfg)
        with pytest.raises(TooManyWordlines):
            exhaustive_best(pattern, cfg, tensor)

    def test_score_matches_recomputation(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=8)
        tensor = build_score_tensor(pattern, cfg)
        result = exhaustive_best(pattern, cfg, tensor)
        assert result.score == block_score(apply_permutation(pattern, result.perm), cfg)


class TestRandomSearch:
    def test_single_iteration_scores_one_sample(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=1)
        tensor = build_score_tensor(pattern, cfg)
        result = random_search(pattern, cfg, tensor, iterations=1, seed=0)
        assert result.evaluations == 1
        assert result.score == block_score(apply_permutation(pattern, result.perm), cfg)

    def test_deterministic(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=2)
        tensor = build_score_tensor(pattern, cfg)
        a = random_search(pattern, cfg, tensor, iterations=50, seed=9)
        b = random_search(pattern, cfg, tensor, iterations=50, seed=9)
        assert a.perm.order == b.perm.order and a.score == b.score

    def test_never_exceeds_exhaustive(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=3)
        tensor = build_score_tensor(pattern, cfg)
        best = exhaustive_best(pattern, cfg, tensor).score
        assert random_search(pattern, cfg, tensor, iterations=200, seed=1).score <= best

    def test_usually_finds_small_optimum(self):
        # 10000 draws over 120 permutations: the optimum is found essentially
        # always; allow one miss in 100 seeded trials.
        cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
        hits = 0
        for trial in range(100):
            pattern = gen_random_block(cfg, seed=500 + trial)
            tensor = build_score_tensor(pattern, cfg)
            best = exhaustive_best(pattern, cfg, tensor).score
            found = random_search(pattern, cfg, tensor, iterations=10000, seed=trial).score
            hits += found == pytest.approx(best, rel=1e-12)
        assert hits >= 99

    def test_rejects_zero_iterations(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=0)
        tensor = build_score_tensor(pattern, cfg)
        with pytest.raises(InvalidArgument):
            random_search(pattern, cfg, tensor, iterations=0, seed=0)

    def test_rejects_negative_seed(self):
        # random.Random(-s) follows Random(s)'s stream, so -3 would repeat 3.
        assert random.Random(-3).random() == random.Random(3).random()
        cfg = ArchConfig(num_wordlines=5, cells_per_page=4)
        pattern = gen_random_block(cfg, seed=0)
        tensor = build_score_tensor(pattern, cfg)
        with pytest.raises(InvalidArgument, match="seed must be non-negative, got -3"):
            random_search(pattern, cfg, tensor, iterations=10, seed=-3)

    @given(
        kind=st.sampled_from(BLOCK_KINDS),
        n=st.integers(8, 12),
        c=st.integers(1, 12),
        extra=st.sampled_from([None, -1, 0, 1]),
        block_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, kind, n, c, extra, block_seed, seed):
        # At the default budget a chunk holds k = CHUNK_BYTES // 16N draws
        # (8,192 at N=8): one draw, one short chunk, one exactly full chunk
        # and a partial last chunk.
        k = core.CHUNK_BYTES // (16 * n)
        iterations = 1 if extra is None else k + extra
        cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
        pattern = make_block(kind, n, c, block_seed)
        order, score, count = _reference_random_search(pattern, cfg, iterations, seed)
        tensor = build_score_tensor(pattern, cfg)
        result = random_search(pattern, cfg, tensor, iterations=iterations, seed=seed)
        assert result.perm.order == order
        assert result.score.hex() == score.hex()
        assert result.evaluations == count

    @given(
        kind=st.sampled_from(BLOCK_KINDS),
        n=st.integers(3, 10),
        c=st.integers(1, 8),
        iterations=st.integers(1, 300),
        rows=st.integers(0, 80),
        block_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_batch_size_matches_reference_loop(
        self, kind, n, c, iterations, rows, block_seed, seed
    ):
        # A budget of rows * 16N bytes gives chunks of that many draws; below
        # one draw's 16N bytes a chunk still holds one.
        cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
        pattern = make_block(kind, n, c, block_seed)
        order, score, count = _reference_random_search(pattern, cfg, iterations, seed)
        tensor = build_score_tensor(pattern, cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CHUNK_BYTES", rows * 16 * n)
            result = random_search(pattern, cfg, tensor, iterations=iterations, seed=seed)
        assert result.perm.order == order
        assert result.score.hex() == score.hex()
        assert result.evaluations == count

    def test_memory_is_bounded_at_n64(self, peak_bytes):
        # The 2 MiB tensor, one chunk of 1,024 draws as Python lists and its
        # 512 KiB index array.
        cfg = ArchConfig(num_wordlines=64, cells_per_page=64)
        pattern = gen_random_block(cfg, seed=5)

        def build_and_search():
            random_search(pattern, cfg, build_score_tensor(pattern, cfg), 5000, 1)

        assert peak_bytes(build_and_search) < 16 * 2**20


class TestGreedy:
    def test_identical_rows_give_identity(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=3)
        cells = np.tile(np.array([2, 7, 11], dtype=np.uint8), (5, 1))
        pattern = BlockPattern(cells)
        tensor = build_score_tensor(pattern, cfg)
        assert greedy_arrange(pattern, cfg, tensor).perm.order == (0, 1, 2, 3, 4)

    def test_bounded_by_exhaustive(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=8)
        for seed in range(10):
            pattern = gen_random_block(cfg, seed=seed)
            tensor = build_score_tensor(pattern, cfg)
            best = exhaustive_best(pattern, cfg, tensor).score
            assert greedy_arrange(pattern, cfg, tensor).score <= best + 1e-9

    def test_beats_mean_of_random_permutations(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=8)
        pattern = gen_random_block(cfg, seed=7)
        rng = np.random.default_rng(7)
        samples = [
            block_score(apply_permutation(pattern, Permutation(tuple(map(int, rng.permutation(6))))), cfg)
            for _ in range(1000)
        ]
        tensor = build_score_tensor(pattern, cfg)
        assert greedy_arrange(pattern, cfg, tensor).score >= np.mean(samples)

    def test_evaluation_count(self):
        cfg = ArchConfig(num_wordlines=5, cells_per_page=2)
        pattern = gen_random_block(cfg, seed=0)
        tensor = build_score_tensor(pattern, cfg)
        assert greedy_arrange(pattern, cfg, tensor).evaluations == 5 * 4

    @given(greedy_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, case):
        pattern, cfg = case
        tensor = build_score_tensor(pattern, cfg)
        order, score, count = solvers._greedy_best(tensor)
        ref_order, ref_score, ref_count = _reference_greedy(tensor.tolist(), pattern.num_wordlines)
        assert order == ref_order
        assert score.hex() == ref_score.hex()
        assert count == ref_count == pattern.num_wordlines * (pattern.num_wordlines - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_loop_at_n64(self, seed):
        cfg = ArchConfig(num_wordlines=64, cells_per_page=64)
        pattern = gen_random_block(cfg, seed=seed)
        tensor = build_score_tensor(pattern, cfg)
        order, _, count = _reference_greedy(tensor.tolist(), 64)
        result = greedy_arrange(pattern, cfg, tensor)
        assert list(result.perm.order) == order
        assert result.evaluations == count

    @given(greedy_cases(), st.integers(1, 140))
    @settings(max_examples=100, deadline=None)
    def test_every_chunk_size_matches_reference_loop(self, case, rows):
        pattern, cfg = case
        n = pattern.num_wordlines
        tensor = build_score_tensor(pattern, cfg)
        ref_order, ref_score, ref_count = _reference_greedy(tensor.tolist(), n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "CHUNK_BYTES", rows * 16 * n)
            order, score, count = solvers._greedy_best(tensor)
        assert order == ref_order
        assert score.hex() == ref_score.hex()
        assert count == ref_count == n * (n - 1)

    @pytest.mark.parametrize("level", [None, 0, 9])
    @pytest.mark.parametrize("n", [5, 9])
    def test_ties_across_chunks_go_to_the_earliest_pair(self, monkeypatch, n, level):
        # Identical rows (level None) or one level everywhere: every starting
        # pair's completion ties, so every chunk boundary splits a run of tied
        # totals, and the first pair's identity order must win.
        if level is None:
            pattern = make_block("identical_rows", n, 6, seed=n)
        else:
            pattern = BlockPattern(np.full((n, 6), level, dtype=np.uint8))
        tensor = build_score_tensor(pattern, ArchConfig(num_wordlines=n, cells_per_page=6))
        ref_order, ref_score, _ = _reference_greedy(tensor.tolist(), n)
        assert ref_order == list(range(n))
        pairs = n * (n - 1)
        for chunk in (1, n, 2 * n, 3 * n, n * n, (pairs - 1) * n, pairs * n, 2**16):
            monkeypatch.setattr(core, "CHUNK_BYTES", chunk * 16)
            order, score, count = solvers._greedy_best(tensor)
            assert (order, score.hex(), count) == (ref_order, ref_score.hex(), pairs)

    def test_memory_is_bounded_by_the_tensor(self, peak_bytes):
        # The 2 MiB tensor, its build's temporaries, and one chunk of 1,024
        # starting pairs: three 512 KiB (pairs, N) arrays.
        cfg = ArchConfig(num_wordlines=64, cells_per_page=64)
        pattern = gen_random_block(cfg, seed=4)

        def build_and_search():
            greedy_arrange(pattern, cfg, build_score_tensor(pattern, cfg))

        assert peak_bytes(build_and_search) < 6 * 2**20

    def test_memory_does_not_grow_with_the_starting_pairs(self, peak_bytes):
        # At N=128 the tensor is 16 MiB and its build peaks near 26 MiB. One
        # pass over all N(N-1) starting pairs would hold three 16 MiB
        # (pairs, N) arrays on top; 512-pair chunks hold three 512 KiB ones.
        cfg = ArchConfig(num_wordlines=128, cells_per_page=64)
        pattern = gen_random_block(cfg, seed=4)

        def build_and_search():
            greedy_arrange(pattern, cfg, build_score_tensor(pattern, cfg))

        assert peak_bytes(build_and_search) < 32 * 2**20


class TestSimulatedAnnealing:
    def test_schedule_validation(self):
        with pytest.raises(InvalidArgument):
            AnnealSchedule(cooling_factor=1.0)
        with pytest.raises(InvalidArgument):
            AnnealSchedule(iterations=0)
        with pytest.raises(InvalidArgument):
            AnnealSchedule(initial_temperature=0.0)
        with pytest.raises(InvalidArgument, match="^initial_temperature must be finite"):
            AnnealSchedule(initial_temperature=float("inf"))
        with pytest.raises(InvalidArgument, match="^initial_temperature must be finite"):
            AnnealSchedule(initial_temperature=10**400)  # an int past the float range
        with pytest.raises(InvalidArgument, match="seed must be non-negative, got -3"):
            AnnealSchedule(seed=-3)

    def test_single_iteration_at_least_greedy(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=8)
        pattern = gen_random_block(cfg, seed=11)
        tensor = build_score_tensor(pattern, cfg)
        greedy = greedy_arrange(pattern, cfg, tensor).score
        result = simulated_annealing(pattern, cfg, tensor, AnnealSchedule(iterations=1, seed=0))
        assert result.score >= greedy

    def test_zero_temperature_hill_climbs(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=8)
        pattern = gen_random_block(cfg, seed=13)
        schedule = AnnealSchedule(initial_temperature=1e-12, iterations=2000, seed=3)
        history = []
        order, score, count = _reference_simulated_annealing(pattern, cfg, schedule, history)
        assert all(b >= a for a, b in zip(history, history[1:]))
        tensor = build_score_tensor(pattern, cfg)
        result = simulated_annealing(pattern, cfg, tensor, schedule)
        assert (result.perm.order, result.score.hex(), result.evaluations) == (
            order, score.hex(), count)

    def test_deterministic(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=8)
        pattern = gen_random_block(cfg, seed=17)
        schedule = AnnealSchedule(iterations=500, seed=21)
        tensor = build_score_tensor(pattern, cfg)
        a = simulated_annealing(pattern, cfg, tensor, schedule)
        b = simulated_annealing(pattern, cfg, tensor, schedule)
        assert a.perm.order == b.perm.order and a.score == b.score
        default = simulated_annealing(pattern, cfg, tensor)  # no schedule: AnnealSchedule()
        explicit = simulated_annealing(pattern, cfg, tensor, AnnealSchedule())
        assert (default.perm.order, default.score, default.evaluations) == (
            explicit.perm.order, explicit.score, explicit.evaluations)

    def test_score_matches_recomputation(self):
        cfg = ArchConfig(num_wordlines=6, cells_per_page=8)
        pattern = gen_random_block(cfg, seed=19)
        tensor = build_score_tensor(pattern, cfg)
        result = simulated_annealing(pattern, cfg, tensor, AnnealSchedule(iterations=300, seed=5))
        assert result.score == block_score(apply_permutation(pattern, result.perm), cfg)

    @given(
        kind=st.sampled_from(BLOCK_KINDS),
        n=st.integers(3, 64),
        c=st.integers(1, 24),
        t0=st.one_of(
            st.sampled_from([None, 1e-300, 1e300]),
            st.floats(min_value=1e-6, max_value=1e9),
        ),
        cooling=st.one_of(
            st.sampled_from([5e-324, 1e-300, 1e-3, 0.5, 0.999, 1 - 2**-53]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
        iterations=st.integers(1, 3000),
        block_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop(self, kind, n, c, t0, cooling, iterations, block_seed, seed):
        cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
        pattern = make_block(kind, n, c, block_seed)
        schedule = AnnealSchedule(
            initial_temperature=t0, cooling_factor=cooling, iterations=iterations, seed=seed
        )
        order, score, count = _reference_simulated_annealing(pattern, cfg, schedule)
        tensor = build_score_tensor(pattern, cfg)
        result = simulated_annealing(pattern, cfg, tensor, schedule)
        assert result.perm.order == order
        assert result.score.hex() == score.hex()
        assert result.evaluations == count

    def test_exact_path_is_rare_and_alone_gives_the_same_results(self, monkeypatch):
        cfg = ArchConfig(num_wordlines=64, cells_per_page=64)
        pattern = gen_random_block(cfg, seed=9)
        schedule = AnnealSchedule(seed=7)
        calls = []
        exact_sum = solvers._seq_score
        monkeypatch.setattr(solvers, "_seq_score", lambda *args: calls.append(1) or exact_sum(*args))
        tensor = build_score_tensor(pattern, cfg)
        fast = simulated_annealing(pattern, cfg, tensor, schedule)
        # The touched-triple deltas settle almost every step by themselves.
        assert len(calls) < schedule.iterations // 100
        # A huge slack sends every step to the exact sums.
        monkeypatch.setattr(solvers, "_SA_SLACK", 1e300)
        calls.clear()
        slow = simulated_annealing(pattern, cfg, tensor, schedule)
        assert len(calls) >= schedule.iterations
        assert (slow.perm.order, slow.score.hex(), slow.evaluations) == (
            fast.perm.order, fast.score.hex(), fast.evaluations)

    @pytest.mark.parametrize("slack", [1e11, 1e12])
    @pytest.mark.parametrize("n, t0", [(8, None), (16, None), (64, None), (16, 1000.0)])
    def test_band_decisions_match_the_reference(self, monkeypatch, slack, n, t0):
        # A draw u in [exp((d - beta)/T), exp((d + beta)/T)) cannot be settled
        # from the deltas and goes to the exact sums, reusing u. The default
        # slack makes that band too thin to hit; these slacks widen it.
        cfg = ArchConfig(num_wordlines=n, cells_per_page=64)
        pattern = gen_random_block(cfg, seed=n)
        schedule = AnnealSchedule(initial_temperature=t0, iterations=3000, seed=1)
        order, score, count = _reference_simulated_annealing(pattern, cfg, schedule)
        monkeypatch.setattr(solvers, "_SA_SLACK", slack)
        lines, first = inspect.getsourcelines(solvers.simulated_annealing)
        band_line = first + 1 + next(
            k for k, line in enumerate(lines) if "elif u < exp((d + beta) / temp):" in line
        )
        code = solvers.simulated_annealing.__code__
        band_hits = 0

        def count_band(frame, event, arg):
            nonlocal band_hits
            band_hits += event == "line" and frame.f_lineno == band_line
            return count_band

        tensor = build_score_tensor(pattern, cfg)
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: count_band if frame.f_code is code else None)
        try:
            result = simulated_annealing(pattern, cfg, tensor, schedule)
        finally:
            sys.settrace(previous)
        assert band_hits > 0
        assert (result.perm.order, result.score.hex(), result.evaluations) == (
            order, score.hex(), count)


@pytest.mark.parametrize("n", [3, 8, 64])
def test_tensor_view_lookup_is_bit_exact(n):
    cfg = ArchConfig(num_wordlines=n, cells_per_page=16)
    tensor = build_score_tensor(gen_random_block(cfg, seed=n), cfg)
    view, nested = memoryview(tensor), tensor.tolist()
    rng = np.random.default_rng(n)
    for _ in range(20):
        seq = rng.permutation(n).tolist()
        assert solvers._seq_score(view, seq).hex() == _reference_seq_score(nested, seq).hex()


@given(
    kind=st.sampled_from(BLOCK_KINDS),
    n=st.integers(3, 12),
    c=st.integers(1, 12),
    k1=st.sampled_from([4.0, 1.0, 0.3]),
    dtype=st.sampled_from([np.uint8, np.int64]),
    rows=st.integers(1, 40),
    block_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_row_totals_match_seq_score(kind, n, c, k1, dtype, rows, block_seed, seed):
    # Exhaustive and random search both rank their rows by _row_totals; a
    # total that rounds differently from _seq_score could flip a near-tie.
    cfg = ArchConfig(num_wordlines=n, cells_per_page=c, k1=k1)
    tensor = build_score_tensor(make_block(kind, n, c, block_seed), cfg)
    rng = np.random.default_rng(seed)
    orders = np.array([rng.permutation(n) for _ in range(rows)], dtype=dtype)
    view = memoryview(tensor)
    expected = [solvers._seq_score(view, order).hex() for order in orders.tolist()]
    assert [total.hex() for total in solvers._row_totals(tensor, orders).tolist()] == expected


def test_lstm_arrange_rescores_the_network_arrangement():
    cfg = ArchConfig(num_wordlines=6, cells_per_page=5)
    netcfg = NetworkConfig(input_dim=5, hidden_size=4, output_dim=6)
    model = (init_params(netcfg, seed=3), netcfg)
    pattern = gen_random_block(cfg, seed=7)
    before = tensor_build_count()
    result = solvers.lstm_arrange(pattern, cfg, model)
    assert tensor_build_count() == before
    perm = arrange(pattern, *model)
    assert result.perm == perm
    assert result.score == block_score(apply_permutation(pattern, perm), cfg)
    assert result.evaluations == 0


# (perm, score, evaluations) recorded from the sequential implementations, so
# the array greedy start, the batched random search and the annealing step's
# fast deltas keep every RNG decision.
PINNED_RANDOM_SEARCH = [
    (8, 16, 5, 300, 11, (0, 6, 3, 4, 2, 1, 5, 7), 48188.399999999994, 300),
    (24, 32, 9, 500, 2,
     (4, 22, 5, 21, 13, 9, 20, 23, 15, 14, 0, 6, 16, 11, 17, 19, 18, 12, 8, 2, 10, 1, 7, 3),
     313081.0, 500),
    (64, 64, 12, 5000, 3,
     (7, 4, 5, 30, 2, 22, 34, 12, 50, 10, 51, 24, 25, 54, 17, 6, 37, 49, 60, 38, 59, 21, 44, 11, 43,
      15, 63, 56, 28, 61, 35, 29, 58, 39, 47, 46, 1, 33, 14, 45, 3, 0, 19, 18, 48, 42, 13, 36, 40, 26,
      16, 53, 9, 27, 52, 57, 55, 8, 32, 23, 62, 20, 31, 41),
     1721144.8, 5000),
]
PINNED_ANNEALING = [
    (8, 16, 5, 2000, 4, (0, 5, 7, 1, 2, 4, 6, 3), 49512.6, 2057),
    (24, 32, 9, 3000, 7,
     (5, 2, 10, 12, 11, 21, 18, 22, 4, 8, 7, 1, 3, 9, 14, 23, 15, 13, 19, 17, 16, 6, 0, 20),
     333915.4, 3553),
    (64, 64, 11, 10000, 3,
     (1, 32, 15, 40, 58, 20, 24, 59, 27, 44, 13, 4, 46, 17, 25, 36, 57, 35, 62, 7, 28, 52, 53, 34, 19,
      11, 61, 5, 10, 50, 26, 60, 37, 31, 38, 56, 14, 47, 18, 23, 55, 3, 2, 41, 0, 63, 54, 30, 8, 12,
      29, 16, 22, 51, 9, 48, 33, 42, 21, 6, 39, 45, 43, 49),
     1841010.2, 14033),
    (16, 32, 7, 2000, 8, (10, 5, 13, 6, 11, 4, 12, 1, 2, 0, 3, 14, 7, 15, 9, 8), 215685.8, 2241),
]
# Schedules other than the default, keyed by (n, c, block_seed, iterations, seed).
# Halving from T0=1e5, the temperature underflows to 0.0 after about 1,090 of
# the 2,000 steps.
PINNED_ANNEALING_SCHEDULES = {
    (16, 32, 7, 2000, 8): {"initial_temperature": 1e5, "cooling_factor": 0.5},
}


@pytest.mark.parametrize("n,c,block_seed,iterations,seed,perm,score,evaluations", PINNED_RANDOM_SEARCH)
def test_random_search_is_pinned(n, c, block_seed, iterations, seed, perm, score, evaluations):
    cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
    pattern = gen_random_block(cfg, seed=block_seed)
    tensor = build_score_tensor(pattern, cfg)
    result = random_search(pattern, cfg, tensor, iterations=iterations, seed=seed)
    assert (result.perm.order, result.score, result.evaluations) == (perm, score, evaluations)


@pytest.mark.parametrize("n,c,block_seed,iterations,seed,perm,score,evaluations", PINNED_ANNEALING)
def test_simulated_annealing_is_pinned(
    monkeypatch, n, c, block_seed, iterations, seed, perm, score, evaluations
):
    cfg = ArchConfig(num_wordlines=n, cells_per_page=c)
    extra = PINNED_ANNEALING_SCHEDULES.get((n, c, block_seed, iterations, seed), {})
    schedule = AnnealSchedule(iterations=iterations, seed=seed, **extra)
    pattern = gen_random_block(cfg, seed=block_seed)
    tensor = build_score_tensor(pattern, cfg)
    # A slack above the rounding bound only sends more steps to the exact
    # sums; at 2**38 draws land in the band, where the exact sums decide.
    for slack in (solvers._SA_SLACK, 2.0**38):
        monkeypatch.setattr(solvers, "_SA_SLACK", slack)
        result = simulated_annealing(pattern, cfg, tensor, schedule)
        assert (result.perm.order, result.score, result.evaluations) == (perm, score, evaluations)


def test_all_solvers_return_valid_bijections_and_obey_exhaustive_bound():
    cfg = ArchConfig(num_wordlines=6, cells_per_page=6)
    for seed in range(5):
        pattern = gen_random_block(cfg, seed=100 + seed)
        tensor = build_score_tensor(pattern, cfg)
        best = exhaustive_best(pattern, cfg, tensor)
        others = [
            random_search(pattern, cfg, tensor, iterations=100, seed=seed),
            greedy_arrange(pattern, cfg, tensor),
            simulated_annealing(pattern, cfg, tensor, AnnealSchedule(iterations=500, seed=seed)),
        ]
        for result in [best] + others:
            assert sorted(result.perm.order) == list(range(6))
        for result in others:
            assert result.score <= best.score + 1e-9 * abs(best.score)


CLASSICAL_SOLVERS = {
    "exhaustive": exhaustive_best,
    "random": lambda pattern, cfg, tensor: random_search(pattern, cfg, tensor, 10, 0),
    "greedy": greedy_arrange,
    "sa": simulated_annealing,
}


# Wrong shapes, and a non-array as passed by the old (pattern, cfg, schedule) form.
WRONG_TENSORS = {
    str(shape): np.zeros(shape) for shape in [(5, 5, 5), (6, 6), (6, 6, 5), (6, 6, 6, 1), (36, 6)]
} | {"AnnealSchedule": AnnealSchedule()}


@pytest.mark.parametrize("tensor", WRONG_TENSORS.values(), ids=WRONG_TENSORS.keys())
@pytest.mark.parametrize("name", CLASSICAL_SOLVERS)
def test_a_tensor_not_of_the_blocks_shape_is_refused(name, tensor):
    cfg = ArchConfig(num_wordlines=6, cells_per_page=4)
    pattern = gen_random_block(cfg, seed=1)
    with pytest.raises(DimensionMismatch, match=r"^score tensor has shape .*, N=6 wants \(6, 6, 6\)$"):
        CLASSICAL_SOLVERS[name](pattern, cfg, tensor)


@pytest.mark.parametrize("name", CLASSICAL_SOLVERS)
def test_solvers_search_the_callers_tensor_and_build_none(name):
    cfg = ArchConfig(num_wordlines=6, cells_per_page=4)
    pattern = gen_random_block(cfg, seed=1)
    before = tensor_build_count()
    # An all-zero tensor ties every order, so each solver keeps the first one
    # it scores: the identity, or random search's first draw.
    result = CLASSICAL_SOLVERS[name](pattern, cfg, np.zeros((6, 6, 6)))
    assert tensor_build_count() == before
    first = list(range(6))
    if name == "random":
        random.Random(0).shuffle(first)
    assert result.perm.order == tuple(first)
    assert result.score == block_score(apply_permutation(pattern, result.perm), cfg)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@given(
    n=st.integers(3, 6),
    c=st.integers(1, 8),
    k1=_log_uniform(1e-320, 1e308),
    k2=_log_uniform(1e-320, 1e308),
    alpha=_log_uniform(1e-320, 1e308),
    block_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_admitted_coefficients_give_finite_scores_and_bijections(n, c, k1, k2, alpha, block_seed):
    try:
        cfg = ArchConfig(num_wordlines=n, cells_per_page=c, k1=k1, k2=k2, alpha=alpha)
    except InvalidArgument:
        return
    pattern = make_block("random", n, c, block_seed)
    tensor = build_score_tensor(pattern, cfg)
    assert np.isfinite(tensor).all()
    assert math.isfinite(block_score(pattern, cfg))
    for result in (
        greedy_arrange(pattern, cfg, tensor),
        simulated_annealing(pattern, cfg, tensor, AnnealSchedule(iterations=200, seed=block_seed)),
    ):
        assert sorted(result.perm.order) == list(range(n))
        assert math.isfinite(result.score)

