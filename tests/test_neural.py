import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nandarrange import (
    ArchConfig,
    BlockPattern,
    NetworkConfig,
    Permutation,
    TrainConfig,
    apply_permutation,
    arrange,
    backward,
    block_score,
    build_score_tensor,
    combination_probability,
    expected_score,
    extract_permutation,
    gen_random_block,
    head_forward,
    init_params,
    lstm_forward,
    read_checkpoint,
    seqgen_transform,
    split_dataset,
    train,
    write_checkpoint,
)
from nandarrange.errors import (
    BadMagic,
    CodecError,
    DimensionMismatch,
    InvalidArgument,
    LevelOutOfRange,
    NonFiniteLoss,
    TooFewWordlines,
    TruncatedFile,
    UnsupportedVersion,
)
from nandarrange import neural
from nandarrange.neural import (
    ADAM_EPSILON,
    LEVEL_SCALE,
    NetworkParams,
    _param_shapes,
    _softmax_rows,
)
from nandarrange.scoring import tensor_build_count

CFG4 = ArchConfig(num_wordlines=4, cells_per_page=8)
NET4 = NetworkConfig(input_dim=8, hidden_size=4, output_dim=4)


def score_tensors(blocks, cfg):
    return [build_score_tensor(block, cfg) for block in blocks]


def tiny_setup(seed=0):
    netcfg = NET4
    pattern = gen_random_block(CFG4, seed=seed)
    params = init_params(netcfg, seed=seed + 1)
    tensor = build_score_tensor(pattern, CFG4)
    return pattern, params, netcfg, tensor


def full_loss(pattern, params, netcfg, tensor):
    p = head_forward(lstm_forward(pattern, params, netcfg), params, netcfg)
    return -expected_score(combination_probability(seqgen_transform(p)), tensor)


# Slow references: the per-tensor code the flat-vector training step replaced.


def _reference_init_params(netcfg, seed):
    rng = np.random.default_rng(seed)
    h, c, n = netcfg.hidden_size, netcfg.input_dim, netcfg.output_dim

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    tensors = [uniform((4 * h, c), c), uniform((4 * h, h), h), np.zeros(4 * h)]
    tensors[2][h : 2 * h] = 1.0
    return tensors + [uniform((n, h), h), np.zeros(n)]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _reference_lstm_pass(cells, params, netcfg):
    """One step at a time, sigmoid from exp, an eight-array cache."""
    steps = cells.shape[0]
    h = netcfg.hidden_size
    x = cells.astype(np.float64) / LEVEL_SCALE
    hidden = np.zeros((steps, h))
    cache = {
        key: np.zeros((steps, h))
        for key in ("h_prev", "c_prev", "gi", "gf", "gg", "go", "tanh_c")
    }
    cache["x"] = x
    h_state = np.zeros(h)
    c_state = np.zeros(h)
    for step in range(steps):
        z = params.w_input @ x[step] + params.w_hidden @ h_state + params.bias
        gi = _sigmoid(z[:h])
        gf = _sigmoid(z[h : 2 * h])
        gg = np.tanh(z[2 * h : 3 * h])
        go = _sigmoid(z[3 * h :])
        cache["h_prev"][step] = h_state
        cache["c_prev"][step] = c_state
        c_state = gf * c_state + gi * gg
        tanh_c = np.tanh(c_state)
        h_state = go * tanh_c
        for key, value in (("gi", gi), ("gf", gf), ("gg", gg), ("go", go), ("tanh_c", tanh_c)):
            cache[key][step] = value
        hidden[step] = h_state
    return hidden, cache


def _reference_backward(pattern, params, netcfg, score_tensor):
    """Per-triple tensordots, per-row recursion and per-step outer products."""
    n = pattern.num_wordlines
    s = np.asarray(score_tensor, dtype=np.float64)
    hidden, lstm_cache = _reference_lstm_pass(pattern.cells, params, netcfg)
    p = _softmax_rows(hidden @ params.head_w.T + params.head_b)
    psg = seqgen_transform(p)
    prior = np.vstack([np.ones(n), np.cumprod(1.0 - psg[:-1], axis=0)])

    g_psg = np.zeros_like(psg)
    s_m = 0.0
    for t in range(n - 2):
        u, v, w = psg[t], psg[t + 1], psg[t + 2]
        a_bc = np.tensordot(u, s, axes=(0, 0))
        b_ab = np.tensordot(s, w, axes=(2, 0))
        s_m += float(v @ a_bc @ w)
        g_psg[t] += b_ab @ v
        g_psg[t + 1] += a_bc @ w
        g_psg[t + 2] += v @ a_bc
    loss = -s_m
    g_psg = -g_psg

    g_p = np.zeros_like(p)
    g_prior_next = np.zeros(n)
    for i in range(n - 1, -1, -1):
        total = g_psg[i] - prior[i] * g_prior_next
        g_p[i] = prior[i] * total
        g_prior_next = p[i] * total + (1.0 - psg[i]) * g_prior_next

    row_dot = (g_p * p).sum(axis=1, keepdims=True)
    g_logits = p * (g_p - row_dot)

    grads = NetworkParams(np.zeros_like(params.flat), [t.shape for t in params.tensors()])
    grads.head_w[...] = g_logits.T @ hidden
    grads.head_b[...] = g_logits.sum(axis=0)
    g_hidden = g_logits @ params.head_w

    h = netcfg.hidden_size
    x = lstm_cache["x"]
    dz = np.empty(4 * h)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for step in range(n - 1, -1, -1):
        gi = lstm_cache["gi"][step]
        gf = lstm_cache["gf"][step]
        gg = lstm_cache["gg"][step]
        go = lstm_cache["go"][step]
        tanh_c = lstm_cache["tanh_c"][step]
        dh = g_hidden[step] + dh_next
        d_o = dh * tanh_c
        dc = dc_next + dh * go * (1.0 - tanh_c**2)
        d_i = dc * gg
        d_g = dc * gi
        d_f = dc * lstm_cache["c_prev"][step]
        dc_next = dc * gf
        dz[:h] = d_i * gi * (1.0 - gi)
        dz[h : 2 * h] = d_f * gf * (1.0 - gf)
        dz[2 * h : 3 * h] = d_g * (1.0 - gg**2)
        dz[3 * h :] = d_o * go * (1.0 - go)
        grads.w_input += np.outer(dz, x[step])
        grads.w_hidden += np.outer(dz, lstm_cache["h_prev"][step])
        grads.bias += dz
        dh_next = params.w_hidden.T @ dz
    return loss, grads


def _reference_adam_step(tensors, moment1, moment2, glist, step, traincfg):
    """Clip by the global norm, then one Adam step, tensor by tensor."""
    if traincfg.gradient_clip_norm is not None:
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in glist)))
        if norm > traincfg.gradient_clip_norm:
            scale = traincfg.gradient_clip_norm / norm
            for g in glist:
                g *= scale
    bias1 = 1.0 - traincfg.beta1**step
    bias2 = 1.0 - traincfg.beta2**step
    for tensor, m1, m2, g in zip(tensors, moment1, moment2, glist):
        m1 *= traincfg.beta1
        m1 += (1.0 - traincfg.beta1) * g
        m2 *= traincfg.beta2
        m2 += (1.0 - traincfg.beta2) * (g * g)
        tensor -= traincfg.learning_rate * (m1 / bias1) / (np.sqrt(m2 / bias2) + ADAM_EPSILON)


def _reference_train(dataset, netcfg, traincfg, cfg):
    rng = np.random.default_rng(traincfg.seed)
    params = init_params(netcfg, rng)
    tensors = [build_score_tensor(block, cfg) for block in dataset]
    moment1 = [np.zeros_like(t) for t in params.tensors()]
    moment2 = [np.zeros_like(t) for t in params.tensors()]
    step = 0
    history = []
    for _ in range(traincfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            loss, grads = _reference_backward(dataset[idx], params, netcfg, tensors[idx])
            step += 1
            _reference_adam_step(params.tensors(), moment1, moment2, grads.tensors(), step, traincfg)
            total += loss
        history.append(total / len(dataset))
    return params, history


def assert_close_to_max(actual, expected, tol):
    """|actual - expected| <= tol * max|expected| everywhere."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.abs(actual - expected).max() <= tol * np.abs(expected).max()


class TestNetworkConfig:
    def test_rejects_zero_hidden(self):
        with pytest.raises(InvalidArgument):
            NetworkConfig(input_dim=4, hidden_size=0, output_dim=4)


class TestLstmForward:
    def test_zero_params_give_zero_hidden(self):
        pattern, params, netcfg, _ = tiny_setup()
        zero = NetworkParams(np.zeros_like(params.flat), _param_shapes(netcfg))
        hidden = lstm_forward(pattern, zero, netcfg)
        assert np.all(hidden == 0.0)

    def test_row_order_changes_hidden_states(self):
        pattern, params, netcfg, _ = tiny_setup(seed=5)
        shuffled = apply_permutation(pattern, Permutation((1, 0, 3, 2)))
        a = lstm_forward(pattern, params, netcfg)
        b = lstm_forward(shuffled, params, netcfg)
        assert not np.allclose(a, b)

    def test_single_step_matches_cell_equations(self):
        # One step at C=2, H=2, checked against the gate formulas written out.
        netcfg = NetworkConfig(input_dim=2, hidden_size=2, output_dim=1)
        params = init_params(netcfg, seed=3)
        cells = np.array([[6, 12]], dtype=np.uint8)
        hidden = lstm_forward(BlockPattern(cells), params, netcfg)

        x = cells[0] / 15.0
        z = params.w_input @ x + params.bias  # h_prev = 0
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        gi, gf, gg, go = sig(z[0:2]), sig(z[2:4]), np.tanh(z[4:6]), sig(z[6:8])
        c = gi * gg  # c_prev = 0
        expected = go * np.tanh(c)
        assert hidden[0] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        pattern, params, netcfg, _ = tiny_setup()
        bad = BlockPattern(np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            lstm_forward(bad, params, netcfg)

    def test_out_of_range_levels_never_reach_the_network(self):
        _, params, netcfg, _ = tiny_setup()
        with pytest.raises(LevelOutOfRange, match=r"cell \(0, 0\) holds 200"):
            lstm_forward(BlockPattern(np.full((4, 8), 200, dtype=np.uint8)), params, netcfg)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 4.0])
    def test_matches_reference_recurrence(self, scale):
        rng = np.random.default_rng(17)
        for n, c, h in ((3, 1, 1), (8, 32, 16), (10, 16, 8), (6, 5, 3)):
            netcfg = NetworkConfig(input_dim=c, hidden_size=h, output_dim=n)
            params = init_params(netcfg, seed=n)
            params.flat[:] = rng.uniform(-scale, scale, size=params.flat.size)
            pattern = BlockPattern(rng.integers(0, 16, size=(n, c), dtype=np.uint8))
            expected, _ = _reference_lstm_pass(pattern.cells, params, netcfg)
            assert_close_to_max(lstm_forward(pattern, params, netcfg), expected, 1e-13)


class TestHeadForward:
    def test_zero_head_gives_uniform_rows(self):
        pattern, params, netcfg, _ = tiny_setup()
        zero = NetworkParams(np.zeros_like(params.flat), _param_shapes(netcfg))
        zero.w_input[...] = params.w_input  # keep the LSTM, zero only the head
        zero.w_hidden[...] = params.w_hidden
        zero.bias[...] = params.bias
        p = head_forward(lstm_forward(pattern, zero, netcfg), zero, netcfg)
        assert p == pytest.approx(np.full((4, 4), 0.25))

    def test_softmax_shift_invariance(self):
        logits = np.array([[0.3, -1.2, 2.0, 0.0]])
        assert _softmax_rows(logits) == pytest.approx(_softmax_rows(logits + 7.5), rel=1e-12)

    def test_rows_sum_to_one(self):
        for seed in range(5):
            pattern, params, netcfg, _ = tiny_setup(seed=seed)
            p = head_forward(lstm_forward(pattern, params, netcfg), params, netcfg)
            assert p.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-9)
            assert np.all(p >= 0) and np.all(p <= 1)


class TestSeqgenTransform:
    def test_one_hot_first_row_kills_column(self):
        p = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.5, 0.25, 0.25],
                [0.2, 0.4, 0.4],
            ]
        )
        psg = seqgen_transform(p)
        assert psg[1, 0] == 0.0 and psg[2, 0] == 0.0

    def test_two_by_two_hand_case(self):
        p = np.array([[0.6, 0.4], [0.3, 0.7]])
        psg = seqgen_transform(p)
        assert psg == pytest.approx(np.array([[0.6, 0.4], [0.12, 0.42]]))

    def test_uniform_rows_stay_uniform_within_rows(self):
        p = np.full((4, 4), 0.25)
        psg = seqgen_transform(p)
        for row in psg:
            assert row == pytest.approx(np.full(4, row[0]))

    def test_first_row_passes_through(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(5), size=5)
        assert seqgen_transform(p)[0] == pytest.approx(p[0], rel=1e-12)


@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
@settings(max_examples=50)
def test_seqgen_output_in_unit_interval(seed, n):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=n)
    psg = seqgen_transform(p)
    assert np.all(psg >= 0.0) and np.all(psg <= 1.0)


class TestCombinationProbability:
    def test_identity_n3(self):
        pac = combination_probability(np.eye(3))
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 2] = 1.0
        assert pac == pytest.approx(expected)

    def test_identity_n4(self):
        pac = combination_probability(np.eye(4))
        assert pac[0, 1, 2] == 1.0 and pac[1, 2, 3] == 1.0
        assert pac.sum() == pytest.approx(2.0)

    def test_total_mass_identity(self):
        rng = np.random.default_rng(4)
        psg = rng.uniform(0, 0.3, size=(5, 5))
        pac = combination_probability(psg)
        expected = sum(
            psg[t].sum() * psg[t + 1].sum() * psg[t + 2].sum() for t in range(3)
        )
        assert pac.sum() == pytest.approx(expected, rel=1e-9)

    def test_matches_brute_force_triple_sum(self):
        rng = np.random.default_rng(6)
        psg = rng.uniform(0, 0.4, size=(4, 4))
        pac = combination_probability(psg)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    expected = sum(psg[t, a] * psg[t + 1, b] * psg[t + 2, c] for t in range(2))
                    assert pac[a, b, c] == pytest.approx(expected, rel=1e-12)


class TestExpectedScore:
    def test_zero_tensor(self):
        pac = combination_probability(np.eye(4))
        assert expected_score(pac, np.zeros((4, 4, 4))) == 0.0

    def test_identity_on_all_zero_pattern(self):
        cfg = ArchConfig(num_wordlines=3, cells_per_page=1)
        tensor = build_score_tensor(BlockPattern(np.zeros((3, 1), dtype=np.uint8)), cfg)
        assert expected_score(combination_probability(np.eye(3)), tensor) == 1280.0

    def test_permutation_matrix_consistency(self):
        # Deterministic P^sg encoding sigma reproduces the block score exactly.
        cfg = ArchConfig(num_wordlines=5, cells_per_page=6)
        rng = np.random.default_rng(12)
        for _ in range(10):
            pattern = gen_random_block(cfg, seed=int(rng.integers(1 << 30)))
            sigma = tuple(int(v) for v in rng.permutation(5))
            psg = np.zeros((5, 5))
            psg[np.arange(5), list(sigma)] = 1.0
            s_m = expected_score(combination_probability(psg), build_score_tensor(pattern, cfg))
            direct = block_score(apply_permutation(pattern, Permutation(sigma)), cfg)
            assert s_m == pytest.approx(direct, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expected_score(np.zeros((3, 3, 3)), np.zeros((4, 4, 4)))


def relative_error(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        pattern, params, netcfg, tensor = tiny_setup(seed=7)
        _, grads = backward(pattern, params, netcfg, tensor)
        step = 1e-5
        worst = 0.0
        for p_arr, g_arr in zip(params.tensors(), grads.tensors()):
            flat_p, flat_g = p_arr.ravel(), g_arr.ravel()
            for k in range(flat_p.size):
                orig = flat_p[k]
                flat_p[k] = orig + step
                up = full_loss(pattern, params, netcfg, tensor)
                flat_p[k] = orig - step
                down = full_loss(pattern, params, netcfg, tensor)
                flat_p[k] = orig
                fd = (up - down) / (2 * step)
                worst = max(worst, relative_error(flat_g[k], fd))
        assert worst < 1e-4

    def test_loss_matches_forward_composition(self):
        pattern, params, netcfg, tensor = tiny_setup(seed=9)
        loss, _ = backward(pattern, params, netcfg, tensor)
        assert loss == pytest.approx(full_loss(pattern, params, netcfg, tensor), rel=1e-12)

    def test_gradient_scales_inversely_with_alpha(self):
        pattern, params, netcfg, _ = tiny_setup(seed=10)
        scaled_cfg = ArchConfig(num_wordlines=4, cells_per_page=8, alpha=1e6)
        base = backward(pattern, params, netcfg, build_score_tensor(pattern, CFG4))[1]
        small = backward(pattern, params, netcfg, build_score_tensor(pattern, scaled_cfg))[1]
        base_norm = np.sqrt(sum(float((g**2).sum()) for g in base.tensors()))
        small_norm = np.sqrt(sum(float((g**2).sum()) for g in small.tensors()))
        assert small_norm == pytest.approx(base_norm / 1e6, rel=1e-9)

    def test_bit_identical_on_repeat(self):
        pattern, params, netcfg, tensor = tiny_setup(seed=11)
        loss_a, grads_a = backward(pattern, params, netcfg, tensor)
        loss_b, grads_b = backward(pattern, params, netcfg, tensor)
        assert loss_a == loss_b
        for a, b in zip(grads_a.tensors(), grads_b.tensors()):
            assert np.array_equal(a, b)

    def test_each_call_returns_gradients_of_its_own(self):
        # train reuses one workspace; the public call must not hand it out twice.
        pattern, params, netcfg, tensor = tiny_setup(seed=11)
        _, grads_a = backward(pattern, params, netcfg, tensor)
        kept = grads_a.flat.copy()
        _, grads_b = backward(pattern, params, netcfg, tensor)
        assert not np.shares_memory(grads_a.flat, grads_b.flat)
        assert not any(np.shares_memory(a, b) for a in grads_a.tensors() for b in grads_b.tensors())
        grads_b.flat[:] = np.nan
        assert np.array_equal(grads_a.flat, kept)

    @given(
        n=st.integers(3, 10),
        c=st.integers(1, 16),
        h=st.integers(1, 8),
        scale=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    # Here the whole w_input gradient cancels to ~2.5e-6 of the largest
    # gradient entry, so a bound scaled by that tensor's own maximum would
    # fail on rounding (its error is ~1.6e-12 of that maximum).
    @example(n=5, c=1, h=1, scale=0.1, seed=40)
    def test_matches_reference_backward(self, n, c, h, scale, seed):
        # N=3 is a single triple, where a wrong reshape or transpose shows.
        rng = np.random.default_rng(seed)
        netcfg = NetworkConfig(input_dim=c, hidden_size=h, output_dim=n)
        params = init_params(netcfg, rng)
        params.flat[:] = rng.uniform(-scale, scale, size=params.flat.size)
        pattern = BlockPattern(rng.integers(0, 16, size=(n, c), dtype=np.uint8))
        tensor = build_score_tensor(pattern, ArchConfig(num_wordlines=n, cells_per_page=c))
        loss, grads = backward(pattern, params, netcfg, tensor)
        ref_loss, ref_grads = _reference_backward(pattern, params, netcfg, tensor)
        assert relative_error(loss, ref_loss) <= 1e-12
        bound = 1e-12 * np.abs(ref_grads.flat).max()
        for got, expected in zip(grads.tensors(), ref_grads.tensors()):
            assert np.abs(got - expected).max() <= bound

    def test_non_finite_params_raise(self):
        # inf merely saturates the gates; nan actually poisons the pass
        pattern, params, netcfg, tensor = tiny_setup(seed=12)
        params.w_input[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss):
            backward(pattern, params, netcfg, tensor)


class TestTrain:
    def test_epochs_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            TrainConfig(epochs=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgument, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", 0.0, r"^learning_rate must be finite and positive$"),
            ("learning_rate", float("inf"), r"^learning_rate must be finite and positive$"),
            ("beta1", 1.0, r"^beta1 must lie in \(0,1\), got 1.0$"),
            ("beta2", 0.0, r"^beta2 must lie in \(0,1\), got 0.0$"),
            ("gradient_clip_norm", -1.0,
             r"^gradient_clip_norm must be finite and positive, or None$"),
            ("gradient_clip_norm", float("inf"),
             r"^gradient_clip_norm must be finite and positive, or None$"),
            # Integers past the float range.
            pytest.param("learning_rate", 10**400, r"^learning_rate must be finite and positive$",
                         id="learning_rate-int-past-float"),
            pytest.param("gradient_clip_norm", 10**400,
                         r"^gradient_clip_norm must be finite and positive, or None$",
                         id="gradient_clip_norm-int-past-float"),
        ],
    )
    def test_rejects_bad_optimizer_settings(self, field, value, message):
        with pytest.raises(InvalidArgument, match=message):
            TrainConfig(**{field: value})

    def test_one_epoch_changes_params_and_history_length(self):
        netcfg = NetworkConfig(input_dim=8, hidden_size=4, output_dim=4)
        blocks = [gen_random_block(CFG4, seed=s) for s in range(4)]
        traincfg = TrainConfig(epochs=3, seed=2)
        params, history = train(blocks, netcfg, traincfg, score_tensors(blocks, CFG4))
        assert len(history) == 3
        init = init_params(netcfg, seed=2)
        changed = any(
            not np.array_equal(a, b) for a, b in zip(params.tensors(), init.tensors())
        )
        assert changed

    def test_deterministic_given_seed(self):
        netcfg = NetworkConfig(input_dim=8, hidden_size=4, output_dim=4)
        blocks = [gen_random_block(CFG4, seed=s) for s in range(3)]
        traincfg = TrainConfig(epochs=2, seed=4)
        tensors = score_tensors(blocks, CFG4)
        params_a, hist_a = train(blocks, netcfg, traincfg, tensors)
        params_b, hist_b = train(blocks, netcfg, traincfg, tensors)
        assert hist_a == hist_b
        for a, b in zip(params_a.tensors(), params_b.tensors()):
            assert np.array_equal(a, b)

    def test_matches_reference_train(self):
        netcfg = NET4
        blocks = [gen_random_block(CFG4, seed=s) for s in range(4)]
        traincfg = TrainConfig(epochs=3, seed=2)
        params, history = train(blocks, netcfg, traincfg, score_tensors(blocks, CFG4))
        ref_params, ref_history = _reference_train(blocks, netcfg, traincfg, CFG4)
        for got, expected in zip(history, ref_history):
            assert relative_error(got, expected) <= 1e-12
        for got, expected in zip(params.tensors(), ref_params.tensors()):
            assert_close_to_max(got, expected, 1e-12)

    def test_short_desk_run_is_pinned(self):
        # Recorded from the training step that allocated its arrays per call
        # (numpy 2.4, OpenBLAS, x86-64): the reusable workspace must not move a bit.
        cfg = ArchConfig(num_wordlines=8, cells_per_page=32)
        blocks = [gen_random_block(cfg, seed=s) for s in range(10)]
        netcfg = NetworkConfig(input_dim=32, hidden_size=16, output_dim=8)
        traincfg = TrainConfig(epochs=3, seed=1)
        params, history = train(blocks, netcfg, traincfg, score_tensors(blocks, cfg))
        assert hashlib.sha256(write_checkpoint(params, netcfg)).hexdigest() == (
            "1292600aa37e92ac9a0e76a179ddac6415a9cc9ad353d8e642226e685a2cf83f"
        )
        assert hashlib.sha256(repr(history).encode()).hexdigest() == (
            "60833e254450e4cc764e0ec0dbe0409c3a0ecbfa562456b2076d16f6586dcbd2"
        )

    def test_clip_norm_does_not_depend_on_the_builtin_sum(self, monkeypatch):
        # From Python 3.12 the builtin sum adds floats with Neumaier's
        # compensation; this emulation of it must leave a desk epoch's
        # parameters exactly where the plain left-to-right fold puts them.
        builtin_sum = sum

        def compensated_sum(values, start=0):
            values = list(values)
            if not all(isinstance(v, float) for v in values):
                return builtin_sum(values, start)
            total, compensation = float(start), 0.0
            for v in values:
                t = total + v
                if abs(total) >= abs(v):
                    compensation += (total - t) + v
                else:
                    compensation += (v - t) + total
                total = t
            return total + compensation if compensation and math.isfinite(compensation) else total

        assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
        cfg = ArchConfig(num_wordlines=8, cells_per_page=32)
        blocks = [gen_random_block(cfg, seed=s) for s in range(70)]
        netcfg = NetworkConfig(input_dim=32, hidden_size=16, output_dim=8)
        traincfg = TrainConfig(epochs=1, seed=1)
        tensors = score_tensors(blocks, cfg)
        plain, _ = train(blocks, netcfg, traincfg, tensors)
        monkeypatch.setattr(neural, "sum", compensated_sum, raising=False)
        compensated, _ = train(blocks, netcfg, traincfg, tensors)
        assert compensated.flat.tobytes() == plain.flat.tobytes()

    @pytest.mark.parametrize(
        "mismatch, message",
        [
            ("width", "pattern has 9 cells/page, network wants 8"),
            ("wordlines", "network emits 4 positions, block has 3"),
            ("tensor", r"score tensor must be \(4,4,4\), got \(4, 4, 5\)"),
        ],
    )
    def test_every_shape_is_checked_before_the_first_step(self, monkeypatch, mismatch, message):
        blocks = [gen_random_block(CFG4, seed=s) for s in range(3)]
        tensors = [build_score_tensor(block, CFG4) for block in blocks]
        if mismatch == "tensor":
            tensors[1] = np.zeros((4, 4, 5))
        else:
            other = ArchConfig(
                num_wordlines=4 if mismatch == "width" else 3,
                cells_per_page=9 if mismatch == "width" else 8,
            )
            blocks[1] = gen_random_block(other, seed=1)
            tensors[1] = build_score_tensor(blocks[1], other)
        steps = []
        monkeypatch.setattr(neural, "_backward_into", lambda *args: steps.append(args))
        with pytest.raises(DimensionMismatch, match=message):
            train(blocks, NET4, TrainConfig(epochs=1), tensors)
        assert steps == []

    def test_uses_prebuilt_tensors(self):
        netcfg = NetworkConfig(input_dim=8, hidden_size=4, output_dim=4)
        blocks = [gen_random_block(CFG4, seed=s) for s in range(3)]
        traincfg = TrainConfig(epochs=2, seed=4)
        tensors = [build_score_tensor(block, CFG4) for block in blocks]
        before = tensor_build_count()
        train(blocks, netcfg, traincfg, tensors)
        assert tensor_build_count() == before
        with pytest.raises(InvalidArgument):
            train(blocks, netcfg, traincfg, tensors[:2])

    def test_empty_dataset_rejected(self):
        netcfg = NetworkConfig(input_dim=8, hidden_size=4, output_dim=4)
        with pytest.raises(InvalidArgument):
            train([], netcfg, TrainConfig(epochs=1), [])

    def test_divergence_raises_non_finite_loss_with_epoch(self):
        # One +inf score-tensor entry makes the very first loss non-finite.
        netcfg = NetworkConfig(input_dim=8, hidden_size=4, output_dim=4)
        blocks = [gen_random_block(CFG4, seed=s) for s in range(2)]
        tensors = [build_score_tensor(block, CFG4) for block in blocks]
        tensors[1][0, 1, 2] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss) as info:
            train(blocks, netcfg, TrainConfig(epochs=2, seed=0), tensors)
        assert info.value.epoch == 0

    def test_overflow_raises_non_finite_loss_with_epoch(self):
        # No NaN or inf in the data: a learning rate near the float limit
        # overflows the first epoch's arithmetic. Softmax maps a -inf logit
        # to 0, so the loss alone would stay finite.
        blocks, _ = split_dataset([gen_random_block(CFG4, seed=3 + k) for k in range(10)], 1)
        traincfg = TrainConfig(epochs=3, seed=1, learning_rate=1e307, gradient_clip_norm=None)
        with pytest.raises(NonFiniteLoss) as info:
            train(blocks, NET4, traincfg, score_tensors(blocks, CFG4))
        assert info.value.epoch == 0


def _reference_extract_permutation(p):
    # The decode the argsort replaced: sort all N^2 (-p, row, column) tuples.
    n = p.shape[0]
    ranked = sorted((-p[i, j], i, j) for i in range(n) for j in range(n))
    mapping = [-1] * n
    row_free = [True] * n
    col_free = [True] * n
    for _, i, j in ranked:
        if row_free[i] and col_free[j]:
            mapping[i] = j
            row_free[i] = False
            col_free[j] = False
    return tuple(mapping)


@st.composite
def decode_matrices(draw):
    n = draw(st.integers(1, 12))
    # A few distinct values, both zeros and infinities make ties, signed-zero
    # ties and uniform rows common.
    values = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, -np.inf]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=4,
    ))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=n * n, max_size=n * n))
    p = np.array([values[k] for k in picks], dtype=np.float64).reshape(n, n)
    if draw(st.booleans()):
        p[draw(st.integers(0, n - 1))] = values[0]
    return p


class TestExtractPermutation:
    @given(decode_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_decode(self, p):
        assert extract_permutation(p).order == _reference_extract_permutation(p)

    def test_memory_is_bounded_at_n1024(self, peak_bytes):
        # The reference would build 2^20 Python tuples. The argsort holds an
        # 8 MiB negated copy and an 8 MiB index array beside the 8 MiB input.
        p = np.random.default_rng(4).random((1024, 1024))
        assert peak_bytes(extract_permutation, p) < 32 * 2**20

    def test_identity_matrix(self):
        assert extract_permutation(np.eye(5)).order == (0, 1, 2, 3, 4)

    def test_conflicting_argmaxes_resolved_globally(self):
        p = np.array([[0.9, 0.1], [0.8, 0.2]])
        assert extract_permutation(p).order == (0, 1)

    def test_near_permutation_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sigma = tuple(int(v) for v in rng.permutation(6))
            p = np.full((6, 6), 0.05)
            p[np.arange(6), list(sigma)] = 0.7
            assert extract_permutation(p).order == sigma

    def test_always_a_bijection(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.uniform(size=(5, 5))
            assert sorted(extract_permutation(p).order) == list(range(5))


class TestArrange:
    def test_deterministic_and_bijective_untrained(self):
        pattern, params, netcfg, _ = tiny_setup(seed=14)
        a = arrange(pattern, params, netcfg)
        b = arrange(pattern, params, netcfg)
        assert a.order == b.order
        assert sorted(a.order) == list(range(4))

    def test_builds_no_score_tensor(self):
        pattern, params, netcfg, _ = tiny_setup(seed=15)
        before = tensor_build_count()
        arrange(pattern, params, netcfg)
        assert tensor_build_count() == before

    def test_wrong_block_size_rejected(self):
        _, params, netcfg, _ = tiny_setup(seed=16)
        cfg = ArchConfig(num_wordlines=5, cells_per_page=8)
        with pytest.raises(DimensionMismatch):
            arrange(gen_random_block(cfg, seed=0), params, netcfg)


def test_shape_checks_refuse_with_typed_errors():
    with pytest.raises(DimensionMismatch, match=r"^10 parameters, shapes need 4$"):
        NetworkParams(np.zeros(10), [(2, 2)])
    params = init_params(NET4, seed=0)
    with pytest.raises(DimensionMismatch, match=r"^hidden states must be \(\*, 4\), got \(4, 3\)$"):
        head_forward(np.zeros((4, 3)), params, NET4)
    with pytest.raises(DimensionMismatch, match=r"^probability matrix must be 2-D, got shape \(4,\)$"):
        seqgen_transform(np.zeros(4))
    with pytest.raises(DimensionMismatch, match=r"^sequence matrix must be square, got \(3, 4\)$"):
        combination_probability(np.zeros((3, 4)))
    with pytest.raises(TooFewWordlines, match=r"^combination probabilities need at least 3 positions$"):
        combination_probability(np.eye(2))
    with pytest.raises(DimensionMismatch, match=r"^probability matrix must be square, got \(3, 4\)$"):
        extract_permutation(np.zeros((3, 4)))


class TestFlatParams:
    def test_views_tile_flat_in_checkpoint_order(self):
        netcfg = NetworkConfig(input_dim=5, hidden_size=3, output_dim=4)
        params = init_params(netcfg, seed=0)
        tensors = params.tensors()
        assert [t.shape for t in tensors] == _param_shapes(netcfg)
        named = [params.w_input, params.w_hidden, params.bias, params.head_w, params.head_b]
        assert all(a is b for a, b in zip(tensors, named)) and len(tensors) == len(named)
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        params.flat[:] = np.arange(params.flat.size)
        assert np.array_equal(np.concatenate([t.ravel() for t in tensors]), params.flat)
        for t in tensors:
            assert np.shares_memory(t, params.flat)
            t[...] = -1.0
        assert np.all(params.flat == -1.0)

    def test_init_matches_per_tensor_draw(self):
        netcfg = NetworkConfig(input_dim=6, hidden_size=5, output_dim=4)
        for seed in range(5):
            params = init_params(netcfg, seed=seed)
            expected = _reference_init_params(netcfg, seed)
            assert len(params.tensors()) == len(expected)
            for got, want in zip(params.tensors(), expected):
                assert np.array_equal(got, want)

    def test_checkpoint_bytes_are_pinned(self):
        # Recorded from the per-tensor implementation at desk shape.
        netcfg = NetworkConfig(input_dim=32, hidden_size=16, output_dim=8)
        data = write_checkpoint(init_params(netcfg, 1), netcfg)
        assert hashlib.sha256(data).hexdigest() == (
            "1a83d5cf1afd5ada512cfd840692ae25d8ad6c7b9cf2a6fd7e8beeb199ba71fb"
        )

    def test_read_checkpoint_owns_a_writable_copy(self):
        netcfg = NET4
        data = write_checkpoint(init_params(netcfg, seed=3), netcfg)
        params, _ = read_checkpoint(data)
        assert params.flat.flags.writeable and params.flat.flags.owndata
        assert not np.shares_memory(params.flat, np.frombuffer(data, dtype=np.uint8))
        params.w_input[0, 0] += 1.0
        assert write_checkpoint(params, netcfg) != data

    @pytest.mark.parametrize("clip", [5.0, None])
    def test_adam_and_clip_match_per_tensor_loop(self, monkeypatch, clip):
        netcfg = NET4
        shapes = _param_shapes(netcfg)
        size = sum(int(np.prod(s)) for s in shapes)
        rng = np.random.default_rng(9)
        # Norms spread around the clip norm of 5: some steps clip, some do not.
        feed = [rng.normal(size=size) * rng.choice([0.01, 0.3, 3.0]) for _ in range(20)]
        assert sum(np.linalg.norm(g) > 5.0 for g in feed) >= 5
        calls = iter(range(20))

        def fed_backward(ws, x, params, s_flat):
            ws.grad.flat[:] = feed[next(calls)]
            return 0.0

        monkeypatch.setattr(neural, "_backward_into", fed_backward)
        traincfg = TrainConfig(epochs=5, seed=6, learning_rate=1e-2, gradient_clip_norm=clip)
        blocks = [gen_random_block(CFG4, seed=s) for s in range(4)]
        params, _ = train(blocks, netcfg, traincfg, score_tensors(blocks, CFG4))

        rng = np.random.default_rng(traincfg.seed)
        expected = init_params(netcfg, rng)
        tensors = [t.copy() for t in expected.tensors()]
        moment1 = [np.zeros_like(t) for t in tensors]
        moment2 = [np.zeros_like(t) for t in tensors]
        for step, g in enumerate(feed, start=1):
            glist = [t.copy() for t in NetworkParams(g.copy(), shapes).tensors()]
            _reference_adam_step(tensors, moment1, moment2, glist, step, traincfg)
        assert next(calls, None) is None
        for got, want in zip(params.tensors(), tensors):
            assert np.array_equal(got, want)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        netcfg = NET4
        params = init_params(netcfg, seed=21)
        data = write_checkpoint(params, netcfg)
        restored, restored_cfg = read_checkpoint(data)
        assert restored_cfg == netcfg
        for a, b in zip(params.tensors(), restored.tensors()):
            assert np.array_equal(a, b)
        assert write_checkpoint(restored, restored_cfg) == data

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            read_checkpoint(b"WXYZ" + bytes(40))

    def test_unsupported_version(self):
        netcfg = NetworkConfig(input_dim=2, hidden_size=2, output_dim=3)
        data = bytearray(write_checkpoint(init_params(netcfg, 0), netcfg))
        data[4] = 9
        with pytest.raises(UnsupportedVersion):
            read_checkpoint(bytes(data))

    def test_truncated(self):
        netcfg = NetworkConfig(input_dim=2, hidden_size=2, output_dim=3)
        data = write_checkpoint(init_params(netcfg, 0), netcfg)
        with pytest.raises(TruncatedFile):
            read_checkpoint(data[:-8])

    def test_invalid_header_dimensions(self):
        netcfg = NetworkConfig(input_dim=2, hidden_size=2, output_dim=3)
        data = bytearray(write_checkpoint(init_params(netcfg, 0), netcfg))
        assert data[13:17] == (1).to_bytes(4, "little")  # the head's linear layers
        for layers in (2, 7):
            data[13:17] = layers.to_bytes(4, "little")
            with pytest.raises(CodecError, match=f"^checkpoint head has {layers} linear layers; "):
                read_checkpoint(bytes(data))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, value):
        netcfg = NetworkConfig(input_dim=2, hidden_size=2, output_dim=3)
        params = init_params(netcfg, 0)
        params.flat[7] = value
        params.flat[9] = np.nan
        with pytest.raises(CodecError, match="checkpoint parameter 7 is not finite"):
            read_checkpoint(write_checkpoint(params, netcfg))

    def test_magic_is_pdaw(self):
        netcfg = NetworkConfig(input_dim=2, hidden_size=2, output_dim=3)
        assert write_checkpoint(init_params(netcfg, 0), netcfg)[:4] == b"PDAW"
