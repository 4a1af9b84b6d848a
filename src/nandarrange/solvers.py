"""Classical arrangement baselines: exhaustive, random search, greedy, annealing.

All solvers maximize the block score. Internally they work on the triple-score
tensor, which makes one candidate evaluation an O(N) sum; the reported score is
always recomputed from the returned permutation with block_score, so results
can never carry a stale cached value. Every solver is a deterministic function
of its inputs and seed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

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


def _seq_score(tensor: list, seq: list[int]) -> float:
    total = 0.0
    for t in range(len(seq) - 2):
        total += tensor[seq[t]][seq[t + 1]][seq[t + 2]]
    return total


def _finish(pattern, cfg, order, evaluations, started) -> SolverResult:
    perm = Permutation(tuple(order))
    score = block_score(apply_permutation(pattern, perm), cfg)
    return SolverResult(perm, score, evaluations, time.perf_counter() - started)


def exhaustive_best(pattern: BlockPattern, cfg: ArchConfig) -> SolverResult:
    """Score all N! arrangements; ties go to the lexicographically smallest map."""
    started = time.perf_counter()
    n = pattern.num_wordlines
    if n > EXHAUSTIVE_LIMIT:
        raise TooManyWordlines(
            f"exhaustive search refuses N={n} (limit {EXHAUSTIVE_LIMIT}; use sa instead)"
        )
    tensor = build_score_tensor(pattern, cfg).tolist()
    best_order = None
    best = -math.inf
    count = 0
    # itertools yields lexicographic order; strict improvement keeps the first
    # (smallest) permutation among ties.
    for order in itertools.permutations(range(n)):
        count += 1
        score = _seq_score(tensor, order)
        if score > best:
            best = score
            best_order = order
    return _finish(pattern, cfg, best_order, count, started)


def random_search(
    pattern: BlockPattern, cfg: ArchConfig, iterations: int, seed: int
) -> SolverResult:
    """Best of `iterations` uniform permutations (Fisher-Yates, Mersenne Twister)."""
    if iterations < 1:
        raise InvalidArgument(f"iterations must be >= 1, got {iterations}")
    started = time.perf_counter()
    n = pattern.num_wordlines
    tensor = build_score_tensor(pattern, cfg).tolist()
    rng = random.Random(seed)
    best_order = None
    best = -math.inf
    seq = list(range(n))
    for _ in range(iterations):
        for k in range(n - 1, 0, -1):
            j = rng.randrange(k + 1)
            seq[k], seq[j] = seq[j], seq[k]
        score = _seq_score(tensor, seq)
        if score > best:
            best = score
            best_order = list(seq)
    return _finish(pattern, cfg, best_order, iterations, started)


def _greedy_orders(tensor: list, n: int):
    """Yield one completed order per ordered starting pair, ascending."""
    for u in range(n):
        for v in range(n):
            if v == u:
                continue
            seq = [u, v]
            remaining = [w for w in range(n) if w != u and w != v]
            while remaining:
                a, b = seq[-2], seq[-1]
                row = tensor[a][b]
                best_w = remaining[0]
                best_val = row[best_w]
                for w in remaining[1:]:
                    val = row[w]
                    if val > best_val:
                        best_val = val
                        best_w = w
                remaining.remove(best_w)
                seq.append(best_w)
            yield seq


def _greedy_best(tensor: list, n: int) -> tuple[list[int], float, int]:
    best_order = None
    best = -math.inf
    count = 0
    for seq in _greedy_orders(tensor, n):
        count += 1
        score = _seq_score(tensor, seq)
        if score > best:
            best = score
            best_order = seq
    return best_order, best, count


def greedy_arrange(pattern: BlockPattern, cfg: ArchConfig) -> SolverResult:
    """Constructive baseline: from every ordered pair, repeatedly append the page
    that maximizes the newest complete triple's score; keep the best completion."""
    started = time.perf_counter()
    n = pattern.num_wordlines
    tensor = build_score_tensor(pattern, cfg).tolist()
    best_order, _, count = _greedy_best(tensor, n)
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
    tensor = build_score_tensor(pattern, cfg).tolist()
    rng = random.Random(schedule.seed)

    seq, current, greedy_count = _greedy_best(tensor, n)
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
        candidate = _seq_score(tensor, seq)
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
