"""Acceptance suite: one test per numbered criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale training criterion (7) shares one session-scoped run
across its sub-checks. Criterion 7c is expected to fail at desk scale; the
README's "Known red" section carries the measured analysis.
"""

import itertools
import math
import time

import numpy as np
import pytest

import nandarrange as na
from nandarrange import cli, scoring

# Dataset seeds for the desk-scale training run (criterion 7): blocks are
# uniform random via gen_random_block(seed = DESK_SEED_BASE + k).
DESK_SEED_BASE = 2000
DESK_BLOCKS = 100
DESK_SPLIT_SEED = 1
DESK_RUN_SEED = 1


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def test_criterion_01_scoring_oracle():
    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=4, cells_per_page=8)
    values = (
        na.cell_score(0, 0, 0, cfg),
        na.cell_score(15, 0, 15, cfg),
        na.cell_score(0, 15, 0, cfg),
    )
    table = [
        ((15, 0, 7), 5), ((0, 0, 0), 5), ((3, 8, 12), 5), ((0, 9, 0), 1),
        ((0, 0, 11), 5), ((0, 9, 3), 2), ((6, 0, 0), 5), ((14, 2, 0), 2),
    ]
    table_ok = all(na.ae_coefficient(*t) == e for t, e in table)
    elapsed = time.perf_counter() - started
    ok = values == (1280.0, 80.0, 1.0) and table_ok and elapsed < 1.0
    line = report(1, ok, f"cell scores {values}, 8 coupling rows ok={table_ok}, {elapsed:.3f}s")
    assert ok, line


def test_criterion_02_decomposition_identity():
    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=5, cells_per_page=8)
    worst = 0.0
    for k in range(100):
        pattern = na.gen_random_block(cfg, seed=100 + k)
        tensor = na.build_score_tensor(pattern, cfg)
        for order in itertools.permutations(range(5)):
            sigma = np.asarray(order)
            direct = na.block_score(na.apply_permutation(pattern, na.Permutation(order)), cfg)
            via = float(tensor[sigma[:-2], sigma[1:-1], sigma[2:]].sum())
            worst = max(worst, abs(direct - via) / max(abs(direct), 1e-12))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 10.0
    line = report(2, ok, f"worst relative error {worst:.2e} over 100x120 arrangements, {elapsed:.1f}s")
    assert ok, line


def test_criterion_03_exhaustive_oracle():
    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=5, cells_per_page=8)
    matches = 0
    for k in range(100):
        pattern = na.gen_random_block(cfg, seed=300 + k)
        best = -math.inf
        for order in itertools.permutations(range(5)):  # independent enumeration
            best = max(best, na.block_score(na.apply_permutation(pattern, na.Permutation(order)), cfg))
        tensor = na.build_score_tensor(pattern, cfg)
        solver = na.exhaustive_best(pattern, cfg, tensor)
        matches += abs(solver.score - best) <= 1e-9 * abs(best)
    n4_cfg = na.ArchConfig(num_wordlines=4, cells_per_page=8)
    n4_block = na.gen_random_block(n4_cfg, 0)
    n4_tensor = na.build_score_tensor(n4_block, n4_cfg)
    n4 = na.exhaustive_best(n4_block, n4_cfg, n4_tensor)
    elapsed = time.perf_counter() - started
    ok = matches == 100 and n4.evaluations == 24 and elapsed < 10.0
    line = report(3, ok, f"brute-force matches {matches}/100, N=4 evaluations={n4.evaluations}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_04_solver_ordering():
    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=6, cells_per_page=16)
    ordered = True
    optimum_hits = 0
    for k in range(100):
        pattern = na.gen_random_block(cfg, seed=400 + k)
        tensor = na.build_score_tensor(pattern, cfg)
        exhaustive = na.exhaustive_best(pattern, cfg, tensor)
        greedy = na.greedy_arrange(pattern, cfg, tensor)
        sa = na.simulated_annealing(pattern, cfg, tensor, na.AnnealSchedule(seed=k))
        tol = 1e-9 * abs(exhaustive.score)
        if not (exhaustive.score + tol >= sa.score >= greedy.score - tol):
            ordered = False
        if abs(sa.score - exhaustive.score) <= tol:
            optimum_hits += 1
    elapsed = time.perf_counter() - started
    ok = ordered and optimum_hits >= 90 and elapsed < 60.0
    line = report(4, ok, f"ordering ok={ordered}, SA optimum on {optimum_hits}/100, {elapsed:.1f}s")
    assert ok, line


def test_criterion_05_gradient_fidelity():
    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=4, cells_per_page=8)
    pattern = na.gen_random_block(cfg, seed=7)
    netcfg = na.NetworkConfig(input_dim=8, hidden_size=4, output_dim=4)
    params = na.init_params(netcfg, seed=3)
    tensor = na.build_score_tensor(pattern, cfg)

    def loss_now():
        p = na.head_forward(na.lstm_forward(pattern, params, netcfg), params, netcfg)
        return -na.expected_score(na.combination_probability(na.seqgen_transform(p)), tensor)

    _, grads = na.backward(pattern, params, netcfg, tensor)
    step = 1e-5
    worst = 0.0
    checked = 0
    for p_arr, g_arr in zip(params.tensors(), grads.tensors()):
        flat_p, flat_g = p_arr.ravel(), g_arr.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = loss_now()
            flat_p[i] = orig - step
            down = loss_now()
            flat_p[i] = orig
            fd = (up - down) / (2 * step)
            a = flat_g[i]
            if a != fd:
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-12))
            checked += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    line = report(5, ok, f"worst relative error {worst:.2e} over {checked} parameters, {elapsed:.1f}s")
    assert ok, line


def test_criterion_06_permutation_fixed_point():
    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=5, cells_per_page=8)
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in range(50):
        pattern = na.gen_random_block(cfg, seed=600 + k)
        sigma = tuple(int(v) for v in rng.permutation(5))
        psg = np.zeros((5, 5))
        psg[np.arange(5), list(sigma)] = 1.0
        s_m = na.expected_score(na.combination_probability(psg), na.build_score_tensor(pattern, cfg))
        direct = na.block_score(na.apply_permutation(pattern, na.Permutation(sigma)), cfg)
        worst = max(worst, abs(s_m - direct) / max(abs(direct), 1e-12))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 5.0
    line = report(6, ok, f"worst relative error {worst:.2e} over 50 instances, {elapsed:.1f}s")
    assert ok, line


@pytest.fixture(scope="session")
def desk_training_run():
    cfg = na.ArchConfig(num_wordlines=8, cells_per_page=32)
    blocks = [na.gen_random_block(cfg, seed=DESK_SEED_BASE + k) for k in range(DESK_BLOCKS)]
    train_blocks, test_blocks = na.split_dataset(blocks, seed=DESK_SPLIT_SEED)
    netcfg = na.NetworkConfig(input_dim=32, hidden_size=16, output_dim=8)
    traincfg = na.TrainConfig(epochs=300, seed=DESK_RUN_SEED)

    def metrics(params):
        sms, rowmaxes = [], []
        for block in train_blocks:
            p = na.head_forward(na.lstm_forward(block, params, netcfg), params, netcfg)
            pac = na.combination_probability(na.seqgen_transform(p))
            sms.append(na.expected_score(pac, na.build_score_tensor(block, cfg)))
            rowmaxes.append(float(p.max(axis=1).mean()))
        return float(np.mean(sms)), float(np.mean(rowmaxes))

    started = time.perf_counter()
    initial_sm, initial_rowmax = metrics(na.init_params(netcfg, seed=DESK_RUN_SEED))
    tensors = [na.build_score_tensor(block, cfg) for block in train_blocks]
    params, history = na.train(train_blocks, netcfg, traincfg, tensors)
    elapsed = time.perf_counter() - started
    final_sm, final_rowmax = metrics(params)

    beats = 0
    uplifts = []
    for block in test_blocks:
        perm = na.arrange(block, params, netcfg)
        arranged = na.block_score(na.apply_permutation(block, perm), cfg)
        identity = na.block_score(block, cfg)
        uplifts.append(100.0 * (arranged - identity) / identity)
        beats += arranged > identity
    return dict(
        initial_sm=initial_sm,
        final_sm=final_sm,
        initial_rowmax=initial_rowmax,
        final_rowmax=final_rowmax,
        history=history,
        beats=beats,
        n_test=len(test_blocks),
        mean_uplift=float(np.mean(uplifts)),
        elapsed=elapsed,
    )


def test_criterion_07ab_training_convergence(desk_training_run):
    r = desk_training_run
    ratio = r["final_sm"] / r["initial_sm"]
    ok_a = ratio >= 1.05
    ok_b = r["final_rowmax"] > r["initial_rowmax"]
    ok_time = r["elapsed"] < 600.0
    ok_trend = r["history"][-1] < r["history"][0]
    ok = ok_a and ok_b and ok_time and ok_trend
    line = report(
        "7ab",
        ok,
        f"mean S_m {r['initial_sm']:.0f}->{r['final_sm']:.0f} (x{ratio:.2f}, bar 1.05), "
        f"row max {r['initial_rowmax']:.3f}->{r['final_rowmax']:.3f}, train {r['elapsed']:.0f}s",
    )
    assert ok, line


def test_criterion_07c_heldout_uplift(desk_training_run):
    # Known red at desk scale: an H=16 single-pass LSTM cannot reach the
    # ~top-3% per-block arrangement quality this bar demands (measured
    # ceiling analysis in README, "Known red"). Asserted faithfully rather
    # than weakened.
    r = desk_training_run
    needed = math.ceil(0.95 * r["n_test"])
    ok = r["beats"] >= needed
    line = report(
        "7c",
        ok,
        f"extracted permutations beat identity on {r['beats']}/{r['n_test']} held-out blocks "
        f"(need >= {needed}); mean uplift {r['mean_uplift']:+.2f}%",
    )
    assert ok, line


def test_criterion_08_score_ber_monotonicity():
    from scipy.stats import spearmanr

    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=8, cells_per_page=64)
    scores, bers = [], []
    for k in range(50):
        pattern = na.gen_random_block(cfg, seed=800 + k)
        scores.append(na.block_score(pattern, cfg))
        # default retention config (coupling*time=0.08, gain 0.5, sigma 0.05),
        # one noise seed per pattern
        voltages = na.simulate_retention(pattern, cfg, na.RetentionConfig(seed=k))
        bers.append(na.measure_ber(pattern, na.read_back(voltages)))
    rho = float(spearmanr(scores, bers).statistic)
    elapsed = time.perf_counter() - started
    ok = rho <= -0.8 and elapsed < 30.0
    line = report(8, ok, f"Spearman rho(score, BER) = {rho:.3f} over 50 patterns, {elapsed:.1f}s")
    assert ok, line


def test_criterion_09_mapping_table_contract():
    started = time.perf_counter()
    identity4 = na.write_mapping_table(na.Permutation.identity(4))
    exact = identity4 == bytes.fromhex("50 44 41 4d 01 04 00 00 00 01 00 02 00 03 00")
    payload_ok = all(
        len(na.write_mapping_table(na.Permutation.identity(n))) - 7 == 2 * n
        for n in (3, 4, 16, 100)
    )
    rng = np.random.default_rng(9)
    round_trips = 0
    for _ in range(1000):
        n = int(rng.integers(3, 64))
        perm = na.Permutation(tuple(int(v) for v in rng.permutation(n)))
        data = na.write_mapping_table(perm)
        round_trips += na.read_mapping_table(data).as_permutation().order == perm.order
    elapsed = time.perf_counter() - started
    ok = exact and payload_ok and round_trips == 1000 and elapsed < 5.0
    line = report(9, ok, f"exact bytes={exact}, payload=2N ok={payload_ok}, round trips {round_trips}/1000, {elapsed:.1f}s")
    assert ok, line


def test_criterion_10_inference_purity(tmp_path, capsys):
    started = time.perf_counter()
    cfg = na.ArchConfig(num_wordlines=6, cells_per_page=16)
    block_path = tmp_path / "block.pdap"
    na.save_pattern(block_path, na.gen_random_block(cfg, seed=10))
    netcfg = na.NetworkConfig(input_dim=16, hidden_size=8, output_dim=6)
    model_path = tmp_path / "model.pdaw"
    na.save_checkpoint(model_path, na.init_params(netcfg, seed=0), netcfg)

    before = scoring.tensor_build_count()
    code = cli.main(
        [
            "arrange",
            "--in", str(block_path),
            "--solver", "lstm",
            "--model", str(model_path),
            "--out-map", str(tmp_path / "map.pdam"),
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    delta = scoring.tensor_build_count() - before
    elapsed = time.perf_counter() - started
    ok = code == 0 and "tensor_builds=0" in out and delta == 0 and elapsed < 5.0
    line = report(10, ok, f"exit={code}, reported tensor_builds delta={delta}, {elapsed:.1f}s")
    assert ok, line
