"""Arrangement solvers: exhaustive, random search, greedy, annealing, and the
trained network's arrangement (lstm_arrange).

The classical solvers maximize the block score. They search the block's
triple-score tensor, which makes one candidate evaluation an O(N) sum. The
caller builds it (scoring.build_score_tensor) and passes it after the
config, so one tensor serves every solver run on a block; this module builds
none, and each solver checks the tensor's shape once (_check_tensor). Every
solver, the network included, leaves through _finish, which recomputes the
reported score from the returned permutation with block_score, so results
can never carry a stale cached value. Every solver is a deterministic
function of its inputs and seed.

Greedy, random and exhaustive search differ only in their candidate orders:
greedy completions of every ordered starting pair (one masked argmax per
appended page), seeded draws, or the rows of a lexicographic N! x N
permutation array. Each scores them in core.chunks at 16N bytes a row
(1,024 greedy pairs at N=64), so its working memory is the tensor plus one
chunk, and keeps the earliest best row through _first_best. Ties go to the
lowest page index within a greedy step, then to the earliest starting pair,
draw or lexicographic map. Totals accumulate one triple per pass, left to
right from 0.0, which is the exact float sum that _seq_score takes over the
same order; a pairwise row sum would round differently and could flip a
near-tie.

Random search and annealing follow one Python RNG stream each, so their draws
stay sequential. Annealing reads single entries through a memoryview of the
tensor, only for the at most six triples a swap touches (listed once per
position pair before the loop), and falls back to the exact full sum only
when a rounding bound cannot settle a step.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import neural
from .core import (
    ArchConfig, BlockPattern, Permutation, apply_permutation, brief, check_seed, chunks,
    validate_pattern,
)
from .errors import DimensionMismatch, InvalidArgument, TooManyWordlines
from .scoring import block_score

EXHAUSTIVE_LIMIT = 9

SA_DEFAULT_COOLING = 0.999
SA_DEFAULT_ITERATIONS = 10_000
# Auto initial temperature: this fraction of the greedy starting score.
SA_DEFAULT_T0_FRACTION = 0.05
# Rounding slack of the annealing step's fast-delta bound; the proof in
# simulated_annealing needs 2.3.
_SA_SLACK = 4.0


@dataclass(frozen=True)
class SolverResult:
    perm: Permutation
    score: float
    evaluations: int
    elapsed: float


@dataclass(frozen=True)
class AnnealSchedule:
    """Annealing parameters. initial_temperature=None derives T0 at run time
    as SA_DEFAULT_T0_FRACTION of the greedy starting score."""

    initial_temperature: float | None = None
    cooling_factor: float = SA_DEFAULT_COOLING
    iterations: int = SA_DEFAULT_ITERATIONS
    seed: int = 0

    def __post_init__(self):
        t0 = self.initial_temperature
        if t0 is not None and not 0 < t0 <= sys.float_info.max:
            raise InvalidArgument("initial_temperature must be finite and positive, or None")
        if not 0.0 < self.cooling_factor < 1.0:
            raise InvalidArgument(
                f"cooling_factor must lie in (0,1), got {brief(self.cooling_factor)}"
            )
        if self.iterations < 1:
            raise InvalidArgument(f"iterations must be >= 1, got {brief(self.iterations)}")
        check_seed(self.seed)


def _seq_score(tensor: memoryview, seq: list[int]) -> float:
    total = 0.0
    for t in range(len(seq) - 2):
        total += tensor[seq[t], seq[t + 1], seq[t + 2]]
    return total


def _row_totals(tensor: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_seq_score of every row of an integer page-order array, batched: the
    triples are added one column at a time, left to right from 0.0."""
    totals = np.zeros(len(rows))
    for t in range(rows.shape[1] - 2):
        totals += tensor[rows[:, t], rows[:, t + 1], rows[:, t + 2]]
    return totals


def _first_best(scored) -> tuple[list[int], float]:
    """The first best row over chunks of (rows, totals), and its total.

    The first argmax within a chunk and a strict > across chunks keep the
    earliest best row for any chunk size. The row is copied out as a list,
    so no chunk outlives its turn."""
    best_order, best = None, -math.inf
    for rows, totals in scored:
        top = int(totals.argmax())
        if totals[top] > best:
            best_order, best = rows[top].tolist(), float(totals[top])
    return best_order, best


def _check_tensor(pattern: BlockPattern, cfg: ArchConfig, tensor: np.ndarray) -> None:
    """Raise DimensionMismatch unless ``pattern`` has cfg's shape and ``tensor``
    is the N x N x N shape of its score tensor."""
    validate_pattern(pattern, cfg)
    n = pattern.num_wordlines
    shape = np.shape(tensor)
    if shape != (n, n, n):
        raise DimensionMismatch(f"score tensor has shape {shape}, N={n} wants {(n, n, n)}")


def check_exhaustive(n: int) -> None:
    """Raise TooManyWordlines when exhaustive search refuses N=n, which a
    caller can ask before it builds the block's tensor."""
    if n > EXHAUSTIVE_LIMIT:
        raise TooManyWordlines(
            f"exhaustive search refuses N={n} (limit {EXHAUSTIVE_LIMIT}; use sa instead)"
        )


def _finish(pattern, cfg, order, evaluations, started) -> SolverResult:
    perm = Permutation(tuple(order))
    score = block_score(apply_permutation(pattern, perm), cfg)
    return SolverResult(perm, score, evaluations, time.perf_counter() - started)


def _permutations(n: int) -> np.ndarray:
    """All n! permutations of range(n) as uint8 rows, in lexicographic order."""
    perms = np.zeros((1, 0), dtype=np.uint8)
    for k in range(1, n + 1):
        # perms holds range(k-1) in lexicographic order; prefixing each first
        # page i in turn, and shifting values >= i up by one, extends it to k.
        block = len(perms)
        grown = np.empty((k * block, k), dtype=np.uint8)
        for i in range(k):
            rows = grown[i * block:(i + 1) * block]
            rows[:, 0] = i
            rows[:, 1:] = perms + (perms >= i)
        perms = grown
    return perms


def exhaustive_best(pattern: BlockPattern, cfg: ArchConfig, tensor: np.ndarray) -> SolverResult:
    """Score all N! arrangements; ties go to the lexicographically smallest map.

    One pass per triple position over each chunk of an N! x N uint8
    permutation table (3.3 MB at N=9)."""
    _check_tensor(pattern, cfg, tensor)
    started = time.perf_counter()
    n = pattern.num_wordlines
    check_exhaustive(n)
    perms = _permutations(n)
    best_order, _ = _first_best(
        (perms[part], _row_totals(tensor, perms[part])) for part in chunks(len(perms), 16 * n)
    )
    return _finish(pattern, cfg, best_order, len(perms), started)


def random_search(
    pattern: BlockPattern, cfg: ArchConfig, tensor: np.ndarray, iterations: int, seed: int
) -> SolverResult:
    """Best of `iterations` uniform permutations, each a random.shuffle of the
    last (Fisher-Yates over one Mersenne Twister stream).

    The draws are sequential; they are scored in numpy chunks by
    _row_totals, the exact left-to-right sums exhaustive search takes."""
    if iterations < 1:
        raise InvalidArgument(f"iterations must be >= 1, got {brief(iterations)}")
    check_seed(seed)
    _check_tensor(pattern, cfg, tensor)
    started = time.perf_counter()
    rng = random.Random(seed)
    seq = list(range(pattern.num_wordlines))

    def scored():
        for part in chunks(iterations, 16 * len(seq)):
            draws = []
            for _ in range(part.stop - part.start):
                rng.shuffle(seq)
                draws.append(seq[:])
            rows = np.array(draws)
            yield rows, _row_totals(tensor, rows)

    best_order, _ = _first_best(scored())
    return _finish(pattern, cfg, best_order, iterations, started)


def _greedy_best(tensor: np.ndarray) -> tuple[list[int], float, int]:
    """Greedy completions of every ordered starting pair, advanced together
    one chunk of pairs at a time.

    Returns the best order, its tensor-sum score and the number of
    completions scored, N(N-1)."""
    n = tensor.shape[0]
    first, second = np.nonzero(~np.eye(n, dtype=bool))
    rows = tensor.reshape(n * n, n)
    best_order, best = _first_best(
        _greedy_chunk(rows, first[part], second[part]) for part in chunks(len(first), 16 * n)
    )
    return best_order, best, len(first)


def _greedy_chunk(rows: np.ndarray, first: np.ndarray, second: np.ndarray):
    """Greedy completions of the starting pairs (first[k], second[k]): their
    page orders, one row per pair, and their totals."""
    n = rows.shape[1]
    m = len(first)
    seqs = np.empty((n, m), dtype=np.intp)
    seqs[0] = first
    seqs[1] = second
    # -inf on placed pages, 0.0 elsewhere: adding it masks without changing
    # any other entry's bits, and is cheaper than a boolean-mask assignment.
    # Entry (k, page) sits at flat index base[k] + page.
    base = np.arange(0, m * n, n)
    placed = np.zeros(m * n)
    placed[base + first] = -np.inf
    placed[base + second] = -np.inf
    mask = placed.reshape(m, n)
    totals = np.zeros(m)
    for t in range(2, n):
        cand = rows[seqs[t - 2] * n + seqs[t - 1]]
        cand += mask
        pick = cand.argmax(axis=1)
        at = base + pick
        totals += cand.take(at)
        placed[at] = -np.inf
        seqs[t] = pick
    return seqs.T, totals


def greedy_arrange(pattern: BlockPattern, cfg: ArchConfig, tensor: np.ndarray) -> SolverResult:
    """Constructive baseline: from every ordered pair, repeatedly append the page
    that maximizes the newest complete triple's score; keep the best completion.

    Time O(N^4) in numpy passes; memory one chunk of starting pairs beside
    the caller's tensor."""
    _check_tensor(pattern, cfg, tensor)
    started = time.perf_counter()
    best_order, _, count = _greedy_best(tensor)
    return _finish(pattern, cfg, best_order, count, started)


def simulated_annealing(
    pattern: BlockPattern,
    cfg: ArchConfig,
    tensor: np.ndarray,
    schedule: AnnealSchedule = AnnealSchedule(),
) -> SolverResult:
    """Swap-neighborhood Metropolis search seeded from the greedy arrangement.

    Each step proposes swapping two uniformly chosen positions, accepts
    improvements outright and regressions with probability exp(delta/T), then
    cools T by the schedule factor. The best state ever visited is returned.
    The default schedule is one shared AnnealSchedule(), safe as it is frozen.

    Every draw and decision is that of this rule on exact scores, where delta
    is _seq_score of the candidate minus _seq_score of the current order. A
    step reads only the triples that the swap of positions lo < hi touches,
    k in [lo-2, lo] and [hi-2, hi] (at most 6), and takes the fast delta
    d = sum(new) - sum(old) over them. A bound beta on |delta - d| settles
    most steps without the exact sums:

    - d > beta: delta > 0, accept without a draw.
    - d < -beta and T == 0 (underflowed): reject without a draw.
    - d < -beta and T > 0: draw u; accept if u < exp((d - beta)/T) and reject
      if u >= exp((d + beta)/T), which holds for any non-decreasing exp.
    - Otherwise, and for u inside that band: recompute the exact sums and
      apply the rule to them.

    The current score is carried as current + d, within `err` of its exact
    sum. The exact sum is recomputed when a decision needs it and when the
    carried score plus err could exceed the best, so the best score stays
    exact.

    Why beta suffices. Let eps = 2**-53, gamma_k = k*eps/(1 - k*eps) and
    K = max(N, 8). Tensor entries are >= 0, and a recursive sum of m >= 0
    terms is within gamma_(m-1) times its value (Higham, Accuracy and Stability
    of Numerical Algorithms, section 4.2). Write C and C' for the exact
    current and candidate sums, and S_old and S_new for the exact touched
    sums. Counting one more rounding for each subtraction,
    |delta - d| <= gamma_K * (C + C' + S_old + S_new) <= 2 * gamma_K * (C + S_new + S_old),
    because C' = C + S_new - S_old. C is at most (current + err)/(1 - gamma_K),
    and each S at most its computed sum s/(1 - gamma_K), so for K*eps <= 0.01
    |delta - d| < 2.1 * K * eps * (current + err + s_new + s_old).
    beta is _SA_SLACK = 4 times K * eps times that sum. The headroom covers the
    rounding of beta and of d -/+ beta, and eps * |current + d|, the rounding of
    the carried score, so err may grow by beta on each carried accept. If
    beta underflows to 0, every sum involved is below 2**-1022, where float
    addition is exact and d == delta.
    """
    _check_tensor(pattern, cfg, tensor)
    started = time.perf_counter()
    n = pattern.num_wordlines
    rng = random.Random(schedule.seed)

    seq, current, greedy_count = _greedy_best(tensor)
    view = memoryview(tensor)
    best = current
    best_order = list(seq)
    temp = schedule.initial_temperature
    if temp is None:
        temp = max(SA_DEFAULT_T0_FRACTION * current, 1e-12)

    # touched[i * n + j]: the triples a swap of positions i and j touches, k in
    # [p-2, p] for p = i, j, clamped; one tuple serves both orders of a pair.
    window = [range(max(p - 2, 0), min(p, n - 3) + 1) for p in range(n)]
    touched = [()] * (n * n)
    for lo in range(n):
        for hi in range(lo + 1, n):
            if hi - lo > 3:
                pair = (*window[lo], *window[hi])
            else:  # the two windows overlap or abut
                pair = tuple(range(window[lo].start, window[hi].stop))
            touched[lo * n + hi] = touched[hi * n + lo] = pair
    tri = [view[seq[k], seq[k + 1], seq[k + 2]] for k in range(n - 2)]
    unit = _SA_SLACK * max(n, 8) * 2.0**-53
    err = 0.0
    randrange, rand, exp = rng.randrange, rng.random, math.exp
    cooling = schedule.cooling_factor
    for _ in range(schedule.iterations):
        i = randrange(n)
        j = randrange(n)
        while j == i:
            j = randrange(n)
        seq[i], seq[j] = seq[j], seq[i]
        swap = touched[i * n + j]
        new_sum = old_sum = 0.0
        for k in swap:
            new_sum += view[seq[k], seq[k + 1], seq[k + 2]]
            old_sum += tri[k]
        d = new_sum - old_sum
        beta = unit * (current + err + new_sum + old_sum)
        u = candidate = None
        if d > beta:
            accept = True
        elif d < -beta:
            accept = False
            if temp > 0:
                u = rand()
                if u < exp((d - beta) / temp):
                    accept = True
                elif u < exp((d + beta) / temp):
                    accept = None
        else:
            accept = None
        if accept is None:
            if err:
                seq[i], seq[j] = seq[j], seq[i]
                current, err = _seq_score(view, seq), 0.0
                seq[i], seq[j] = seq[j], seq[i]
            candidate = _seq_score(view, seq)
            delta = candidate - current
            accept = delta >= 0 or (
                temp > 0 and (rand() if u is None else u) < exp(delta / temp)
            )
        if accept:
            for k in swap:
                tri[k] = view[seq[k], seq[k + 1], seq[k + 2]]
            if candidate is None:
                current += d
                err += beta
                if current + err > best:
                    current, err = _seq_score(view, seq), 0.0
            else:
                current, err = candidate, 0.0
            if current > best:
                best = current
                best_order = list(seq)
        else:
            seq[i], seq[j] = seq[j], seq[i]
        temp *= cooling

    evaluations = greedy_count + 1 + schedule.iterations
    return _finish(pattern, cfg, best_order, evaluations, started)


def lstm_arrange(
    pattern: BlockPattern,
    cfg: ArchConfig,
    model: tuple[neural.NetworkParams, neural.NetworkConfig],
) -> SolverResult:
    """The trained network's arrangement, rescored like every other solver's.
    Inference builds no score tensor and counts no evaluations."""
    started = time.perf_counter()
    return _finish(pattern, cfg, neural.arrange(pattern, *model).order, 0, started)
