"""Classical arrangement baselines: exhaustive, random search, greedy, annealing.

All solvers maximize the block score. Internally they work on the triple-score
tensor, which makes one candidate evaluation an O(N) sum; the reported score is
always recomputed from the returned permutation with block_score, so results
can never carry a stale cached value. Every solver is a deterministic function
of its inputs and seed.

Greedy and exhaustive search are numpy array passes. Greedy advances all
N(N-1) ordered starting pairs together, one masked argmax per appended page;
exhaustive search scores every row of a lexicographic N! x N permutation
array. Ties go to the lowest page index within a greedy step, then to the
earliest starting pair, and in exhaustive search to the lexicographically
smallest map: argmax returns the first maximum. Totals accumulate one triple
per pass, left to right from 0.0, which is the exact float sum that
_seq_score takes over the same order; a pairwise row sum would round
differently and could flip a near-tie. Random search and annealing stay
sequential Python loops over their RNG streams and read single entries
through a memoryview of the tensor, which returns the same doubles without
copying it into nested lists.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .core import ArchConfig, BlockPattern, Permutation, apply_permutation
from .errors import InvalidArgument, TooManyWordlines
from .scoring import block_score, build_score_tensor

EXHAUSTIVE_LIMIT = 9

SA_DEFAULT_COOLING = 0.999
SA_DEFAULT_ITERATIONS = 10_000
# Auto initial temperature: this fraction of the greedy starting score.
SA_DEFAULT_T0_FRACTION = 0.05


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
        if self.initial_temperature is not None and not self.initial_temperature > 0:
            raise InvalidArgument("initial_temperature must be positive (or None for auto)")
        if not 0.0 < self.cooling_factor < 1.0:
            raise InvalidArgument(f"cooling_factor must lie in (0,1), got {self.cooling_factor}")
        if self.iterations < 1:
            raise InvalidArgument(f"iterations must be >= 1, got {self.iterations}")


def _seq_score(tensor: memoryview, seq: list[int]) -> float:
    total = 0.0
    for t in range(len(seq) - 2):
        total += tensor[seq[t], seq[t + 1], seq[t + 2]]
    return total


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


def exhaustive_best(pattern: BlockPattern, cfg: ArchConfig) -> SolverResult:
    """Score all N! arrangements; ties go to the lexicographically smallest map.

    One pass per triple position over an N! x N uint8 permutation table
    (3.3 MB at N=9)."""
    started = time.perf_counter()
    n = pattern.num_wordlines
    if n > EXHAUSTIVE_LIMIT:
        raise TooManyWordlines(
            f"exhaustive search refuses N={n} (limit {EXHAUSTIVE_LIMIT}; use sa instead)"
        )
    tensor = build_score_tensor(pattern, cfg)
    perms = _permutations(n)
    totals = np.zeros(len(perms))
    for t in range(n - 2):
        totals += tensor[perms[:, t], perms[:, t + 1], perms[:, t + 2]]
    best_order = perms[int(totals.argmax())].tolist()
    return _finish(pattern, cfg, best_order, len(perms), started)


def random_search(
    pattern: BlockPattern, cfg: ArchConfig, iterations: int, seed: int
) -> SolverResult:
    """Best of `iterations` uniform permutations (Fisher-Yates, Mersenne Twister)."""
    if iterations < 1:
        raise InvalidArgument(f"iterations must be >= 1, got {iterations}")
    started = time.perf_counter()
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
        score = _seq_score(view, seq)
        if score > best:
            best = score
            best_order = list(seq)
    return _finish(pattern, cfg, best_order, iterations, started)


def _greedy_best(tensor: np.ndarray) -> tuple[list[int], float, int]:
    """Greedy completions of every ordered starting pair, advanced together.

    Returns the best order, its tensor-sum score and the number of
    completions scored, N(N-1)."""
    n = tensor.shape[0]
    first, second = np.nonzero(~np.eye(n, dtype=bool))
    starts = np.arange(len(first))
    rows = tensor.reshape(n * n, n)
    seqs = np.empty((len(first), n), dtype=np.intp)
    seqs[:, 0] = first
    seqs[:, 1] = second
    # -inf on placed pages, 0.0 elsewhere: adding it masks without changing
    # any other entry's bits, and is cheaper than a boolean-mask assignment.
    placed = np.zeros((len(first), n))
    placed[starts, first] = -np.inf
    placed[starts, second] = -np.inf
    totals = np.zeros(len(first))
    for t in range(2, n):
        cand = rows[seqs[:, t - 2] * n + seqs[:, t - 1]]
        cand += placed
        pick = cand.argmax(axis=1)
        totals += cand[starts, pick]
        placed[starts, pick] = -np.inf
        seqs[:, t] = pick
    best = int(totals.argmax())
    return seqs[best].tolist(), float(totals[best]), len(first)


def greedy_arrange(pattern: BlockPattern, cfg: ArchConfig) -> SolverResult:
    """Constructive baseline: from every ordered pair, repeatedly append the page
    that maximizes the newest complete triple's score; keep the best completion.

    Time O(N^4) in numpy passes; memory O(N^3), the size of the tensor itself."""
    started = time.perf_counter()
    best_order, _, count = _greedy_best(build_score_tensor(pattern, cfg))
    return _finish(pattern, cfg, best_order, count, started)


def simulated_annealing(
    pattern: BlockPattern,
    cfg: ArchConfig,
    schedule: AnnealSchedule | None = None,
    history: list[float] | None = None,
) -> SolverResult:
    """Swap-neighborhood Metropolis search seeded from the greedy arrangement.

    Each step proposes swapping two uniformly chosen positions, accepts
    improvements outright and regressions with probability exp(delta/T), then
    cools T by the schedule factor. The best state ever visited is returned.
    Candidate scores are recomputed in full from the triple-score tensor, so
    they cannot drift. That is N-2 lookups per step where an incremental
    delta needs at most 6 (a swap touches at most six triples): the same at
    desk scale (N=8), about ten times more at N=64.
    If `history` is given, the current score is appended after every accepted
    move (diagnostics only).
    """
    if schedule is None:
        schedule = AnnealSchedule()
    started = time.perf_counter()
    n = pattern.num_wordlines
    tensor = build_score_tensor(pattern, cfg)
    rng = random.Random(schedule.seed)

    seq, current, greedy_count = _greedy_best(tensor)
    view = memoryview(tensor)
    best = current
    best_order = list(seq)
    temp = schedule.initial_temperature
    if temp is None:
        temp = max(SA_DEFAULT_T0_FRACTION * current, 1e-12)

    for _ in range(schedule.iterations):
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        seq[i], seq[j] = seq[j], seq[i]
        candidate = _seq_score(view, seq)
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

    evaluations = greedy_count + 1 + schedule.iterations
    return _finish(pattern, cfg, best_order, evaluations, started)
