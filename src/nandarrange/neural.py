"""Differentiable arrangement solver.

An LSTM embeds the page sequence (one step per wordline, inputs are levels
scaled into [0,1], no layer normalization); a linear head plus softmax turns
each step's hidden state into a distribution over source pages for that
physical position. Training transforms the position probabilities into
non-repeating sequence-generation probabilities, contracts them with each
block's triple-score tensor into an expected arrangement score S_m, and
minimizes -S_m with exact hand-rolled backpropagation through the whole
chain. The caller builds those tensors: this module imports no scorer.
Inference never touches a score tensor: decode the probability matrix
greedily into a bijection and you are done.

Parameter layout: the four LSTM gates are stacked as row blocks in the order
input, forget, cell-candidate, output, so w_input is (4H, C), w_hidden is
(4H, H) and bias is (4H,). All parameters live in one contiguous float64
vector, NetworkParams.flat: w_input, w_hidden, bias, then the head's weight
(N, H) and bias (N,), each row-major, and the named attributes are views into
it. Adam, gradient clipping and the checkpoint body act on that one vector.
Checkpoints use the PDAW format; its body is ``flat`` as little-endian
float64, and its layout is in the README "File formats" table.

The recurrence evaluates every gate with one tanh per step, using
sigmoid(z) = 1/2 + tanh(z/2)/2 for the input, forget and output gates.

Training runs in one workspace per run (``_Workspace``): every array a
forward-and-backward step writes, the gradient vector and the per-step row
views are allocated once, and each step and its in-place Adam update write
into them. ``backward`` runs the same code on a fresh workspace per call.
Inference allocates only what it writes: ``lstm_forward`` a fresh
``_Forward`` (the workspace's LSTM arrays), ``head_forward`` its probability
matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import BlockPattern, Permutation, brief, check_seed
from .data_io import pack_header, unpack_header
from .errors import (
    CodecError,
    DimensionMismatch,
    InvalidArgument,
    NonFiniteLoss,
    TooFewWordlines,
)

CHECKPOINT_MAGIC = b"PDAW"

LEVEL_SCALE = 15.0
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class NetworkConfig:
    """Shape of the network: input width C, LSTM hidden size, output width N."""

    input_dim: int
    hidden_size: int
    output_dim: int

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise InvalidArgument("input_dim and output_dim must be positive")
        if self.hidden_size < 1:
            raise InvalidArgument(f"hidden_size must be >= 1, got {brief(self.hidden_size)}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 1e-3
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    gradient_clip_norm: float | None = 5.0

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidArgument(f"epochs must be >= 1, got {brief(self.epochs)}")
        check_seed(self.seed)
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise InvalidArgument("learning_rate must be finite and positive")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidArgument(f"{name} must lie in (0,1), got {brief(value)}")
        clip = self.gradient_clip_norm
        if clip is not None and not 0 < clip <= sys.float_info.max:
            raise InvalidArgument("gradient_clip_norm must be finite and positive, or None")


class NetworkParams:
    """Named views into one contiguous float64 parameter vector ``flat``.

    The views follow the checkpoint order of ``tensors()``: w_input, w_hidden,
    bias, head_w, head_b. Writing to a view writes to ``flat``, so the
    optimizer and the checkpoint codec act on ``flat`` alone.
    """

    def __init__(self, flat: np.ndarray, shapes: list[tuple[int, ...]]):
        views = []
        offset = 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        if offset != flat.size:
            raise DimensionMismatch(f"{flat.size} parameters, shapes need {offset}")
        self.flat = flat
        self.w_input, self.w_hidden, self.bias, self.head_w, self.head_b = views
        self._views = views

    def tensors(self) -> list[np.ndarray]:
        """All parameter arrays in the fixed checkpoint order."""
        return list(self._views)


def _param_shapes(netcfg: NetworkConfig) -> list[tuple[int, ...]]:
    """Parameter shapes in checkpoint order; weights are 2-D (out, fan_in)."""
    h, c, n = netcfg.hidden_size, netcfg.input_dim, netcfg.output_dim
    return [(4 * h, c), (4 * h, h), (4 * h,), (n, h), (n,)]


def init_params(netcfg: NetworkConfig, seed: int | np.random.Generator = 0) -> NetworkParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases except the open forget gate.

    Weights are drawn in checkpoint order from one generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shapes = _param_shapes(netcfg)
    params = NetworkParams(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
    for view in params.tensors():
        if view.ndim == 2:
            bound = 1.0 / np.sqrt(view.shape[1])
            view[...] = rng.uniform(-bound, bound, size=view.shape)
    h = netcfg.hidden_size
    params.bias[h : 2 * h] = 1.0
    return params


class _Forward:
    """Every array the LSTM's forward pass over n steps writes: states, gates
    and the loop's row views. ``lstm_forward`` builds one per call."""

    def __init__(self, netcfg: NetworkConfig, n: int):
        h = netcfg.hidden_size

        # LSTM forward. sigmoid(z) = 1/2 + tanh(z/2)/2 for the input, forget
        # and output gates; the cell candidate is a plain tanh. Row 0 of hs
        # and cs is the zero initial state.
        self.mul = np.full(4 * h, 0.5)
        self.mul[2 * h : 3 * h] = 1.0
        self.add = 1.0 - self.mul
        self.zx = np.empty((n, 4 * h))
        self.w_hidden = np.empty((4 * h, h))
        self.zh = np.empty(4 * h)
        self.hs = np.zeros((n + 1, h))
        self.cs = np.zeros((n + 1, h))
        self.hidden = self.hs[1:]
        self.tanh_c = np.empty((n, h))
        self.gates = np.empty((n, 4 * h))
        self.gi, self.gf, self.gg, self.go = (
            self.gates[:, k * h : (k + 1) * h] for k in range(4)
        )
        self.vec_h = np.empty(h)
        self.forward_steps = tuple(zip(
            self.zx, self.hs[:-1], self.hidden, self.cs[:-1], self.cs[1:], self.gates,
            self.gi, self.gf, self.gg, self.go, self.tanh_c,
        ))


class _Workspace(_Forward):
    """Every array one forward-and-backward pass writes, over the network's
    n = output_dim steps: _score_rows admits only blocks of n wordlines.

    ``train`` builds one per run and every step writes into it; ``backward``
    builds a fresh one per call. The row views each loop walks are built here
    once, as tuples, so a step allocates no array and builds no view. The
    gradient lands in ``grad``, named views into the workspace's own flat
    vector in checkpoint order.
    """

    def __init__(self, netcfg: NetworkConfig):
        h, n = netcfg.hidden_size, netcfg.output_dim
        super().__init__(netcfg, n)
        m = max(n - 2, 0)  # consecutive position triples
        self.p = np.empty((n, n))  # the logits, softmaxed in place

        # Non-repetition transform.
        self.psg = np.empty((n, n))
        self.prior = np.empty((n, n))
        self.prior[:1] = 1.0
        self.vec_out = np.empty(n)
        self.seqgen_steps = _seqgen_steps(self.p, self.prior, self.psg)

        # Score contraction over the consecutive position triples.
        self.u_s = np.empty((m, n * n))
        self.g_mid = np.empty((m, n, 1))
        self.g_last = np.empty((m, 1, n))
        self.vw = np.empty((m, n, n))
        self.g_first = np.empty((m, n))
        self.triples = np.empty((m, n))
        self.g_psg = np.empty((n, n))

        # Reverse non-repetition recursion: g_prior has a zero row past the last.
        self.direct = np.empty((n, n))
        self.decay = np.empty((n, n))
        self.g_prior = np.zeros((n + 1, n))
        self.prior_steps = tuple(zip(
            self.decay[1:], self.g_prior[2:], self.g_prior[1:-1], self.direct[1:]
        ))[::-1]
        self.g_p = np.empty((n, n))
        self.g_logits = np.empty((n, n))
        self.row = np.empty((n, 1))

        self.g_hidden = np.empty((n, h))  # head backward: dLoss/dhidden

        # LSTM backward. Row t+1 of dh_carry and dc_carry holds what step t
        # receives from step t+1; row n stays zero.
        self.factors = np.empty((n, 4, h))
        self.dc_dh = np.empty((n, h))
        self.tmp_nh = np.empty((n, h))
        self.dz = np.empty((n, 4 * h))
        dz_gates = self.dz.reshape(n, 4, h)
        self.dh = np.empty(h)
        self.dc = np.empty(h)
        self.dh_carry = np.zeros((n + 1, h))
        self.dc_carry = np.zeros((n + 1, h))
        self.reverse_steps = tuple(zip(
            self.g_hidden, self.dh_carry[1:], self.dc_carry[1:], self.dh_carry[:-1],
            self.dc_carry[:-1], self.dc_dh, self.factors[:, :3], self.factors[:, 3],
            dz_gates[:, :3], dz_gates[:, 3], self.gf, self.dz,
        ))[::-1]

        shapes = _param_shapes(netcfg)
        self.grad = NetworkParams(np.zeros(sum(math.prod(s) for s in shapes)), shapes)


def _lstm_into(ws: _Forward, x: np.ndarray, params: NetworkParams) -> None:
    """Run the recurrence over scaled levels x (N, C) into the workspace.

    Fills hs and cs (row 0 the zero initial state), tanh of the cell states
    and the activated gates. Each step is one tanh over all 4H gates, using
    sigmoid(z) = 1/2 + tanh(z/2)/2; the halving is folded into the input
    projection and the recurrent weights (scaling by 1/2 is exact).
    """
    zx, w_hidden, zh, cell, mul, add = ws.zx, ws.w_hidden, ws.zh, ws.vec_h, ws.mul, ws.add
    np.matmul(x, params.w_input.T, out=zx)
    zx += params.bias
    zx *= mul
    np.multiply(params.w_hidden, mul[:, None], out=w_hidden)
    for zx_t, h_prev, h_t, c_prev, c_t, g_t, gi, gf, gg, go, tanh_c in ws.forward_steps:
        np.matmul(w_hidden, h_prev, out=zh)
        np.add(zx_t, zh, out=g_t)
        np.tanh(g_t, out=g_t)
        g_t *= mul
        g_t += add
        np.multiply(gf, c_prev, out=c_t)
        np.multiply(gi, gg, out=cell)
        c_t += cell
        np.tanh(c_t, out=tanh_c)
        np.multiply(go, tanh_c, out=h_t)


def _scaled_levels(pattern: BlockPattern, netcfg: NetworkConfig) -> np.ndarray:
    """The LSTM input (N, C): levels scaled into [0,1], once the width is checked."""
    width = pattern.cells_per_page
    if width != netcfg.input_dim:
        raise DimensionMismatch(f"pattern has {width} cells/page, network wants {netcfg.input_dim}")
    return pattern.cells.astype(np.float64) / LEVEL_SCALE


def lstm_forward(
    pattern: BlockPattern, params: NetworkParams, netcfg: NetworkConfig
) -> np.ndarray:
    """Hidden-state sequence (N, hidden_size); initial hidden and cell state are zero."""
    x = _scaled_levels(pattern, netcfg)
    ws = _Forward(netcfg, pattern.num_wordlines)
    _lstm_into(ws, x, params)
    return ws.hidden


def _softmax_rows(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax; ``out`` may be ``logits`` itself."""
    out = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def _head_into(p: np.ndarray, hidden: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Softmax probabilities of the head on ``hidden`` (N, H), written to p."""
    logits = np.matmul(hidden, params.head_w.T, out=p)
    logits += params.head_b
    return _softmax_rows(logits, out=logits)


def head_forward(
    hidden_states: np.ndarray, params: NetworkParams, netcfg: NetworkConfig
) -> np.ndarray:
    """Row-stochastic position-probability matrix: row i is the source-page
    distribution for physical position i."""
    hidden = np.asarray(hidden_states, dtype=np.float64)
    if hidden.ndim != 2 or hidden.shape[1] != netcfg.hidden_size:
        raise DimensionMismatch(
            f"hidden states must be (*, {netcfg.hidden_size}), got {hidden.shape}"
        )
    return _head_into(np.empty((hidden.shape[0], netcfg.output_dim)), hidden, params)


def _seqgen_steps(p: np.ndarray, prior: np.ndarray, psg: np.ndarray) -> tuple:
    """Rows (p[i], prior[i], psg[i], prior[i+1]) for _seqgen_into; the last
    row has None for prior[i+1]."""
    return tuple(zip(p, prior, psg, [*prior[1:], None]))


def _seqgen_into(steps: tuple, scratch: np.ndarray) -> None:
    """psg[i] = p[i] * prior[i] and prior[i+1] = prior[i] * (1 - psg[i]), row by row."""
    for p_i, prior_i, psg_i, prior_next in steps:
        np.multiply(p_i, prior_i, out=psg_i)
        if prior_next is not None:
            np.subtract(1.0, psg_i, out=scratch)
            np.multiply(prior_i, scratch, out=prior_next)


def seqgen_transform(p: np.ndarray) -> np.ndarray:
    """Non-repetition transform: row 0 passes through, later rows are scaled by
    the probability that no earlier position already generated that page.

    psg[i,j] = p[i,j] * prod_{t<i} (1 - psg[t,j]); once a column reaches 1 the
    rest of the column is extinguished. Differentiable everywhere.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionMismatch(f"probability matrix must be 2-D, got shape {p.shape}")
    psg = np.empty_like(p)
    prior = np.empty_like(p)
    prior[0] = 1.0
    _seqgen_into(_seqgen_steps(p, prior, psg), np.empty(p.shape[1]))
    return psg


def combination_probability(psg: np.ndarray) -> np.ndarray:
    """P[a,b,c] = sum over consecutive position triples (t, t+1, t+2) of the
    probability that they generate pages a, b, c respectively."""
    psg = np.asarray(psg, dtype=np.float64)
    if psg.ndim != 2 or psg.shape[0] != psg.shape[1]:
        raise DimensionMismatch(f"sequence matrix must be square, got {psg.shape}")
    if psg.shape[0] < 3:
        raise TooFewWordlines("combination probabilities need at least 3 positions")
    return np.einsum("ta,tb,tc->abc", psg[:-2], psg[1:-1], psg[2:], optimize=True)


def expected_score(pac: np.ndarray, sac: np.ndarray) -> float:
    """S_m: probability-weighted total triple score. The training loss is -S_m."""
    pac = np.asarray(pac, dtype=np.float64)
    sac = np.asarray(sac, dtype=np.float64)
    if pac.shape != sac.shape:
        raise DimensionMismatch(f"probability {pac.shape} vs score {sac.shape}")
    return float((pac * sac).sum())


def _score_rows(
    pattern: BlockPattern, netcfg: NetworkConfig, score_tensor: np.ndarray
) -> np.ndarray:
    """The score tensor as (N, N*N) float64 rows, once it and the block's
    wordline count are checked against the network."""
    n = pattern.num_wordlines
    if netcfg.output_dim != n:
        raise DimensionMismatch(f"network emits {netcfg.output_dim} positions, block has {n}")
    s = np.asarray(score_tensor, dtype=np.float64)
    if s.shape != (n, n, n):
        raise DimensionMismatch(f"score tensor must be ({n},{n},{n}), got {s.shape}")
    return s.reshape(n, n * n)


def _backward_into(
    ws: _Workspace, x: np.ndarray, params: NetworkParams, s_flat: np.ndarray
) -> float:
    """Loss -S_m for one block; the gradient of every parameter goes to ws.grad.

    ``x`` is the block's scaled levels and ``s_flat`` its score tensor as
    (N, N*N) rows, both checked against ws's network. See ``backward``.
    """
    _lstm_into(ws, x, params)
    p = _head_into(ws.p, ws.hidden, params)
    _seqgen_into(ws.seqgen_steps, ws.vec_out)
    psg, prior, g_psg, grad = ws.psg, ws.prior, ws.g_psg, ws.grad

    # S_m = sum_t sum_abc u_t[a] v_t[b] w_t[c] s[a,b,c] with (u, v, w) the
    # rows (t, t+1, t+2); the gradient of each role leaves that role out.
    n = psg.shape[0]
    u, v, w = psg[:-2], psg[1:-1], psg[2:]
    u_s = np.matmul(u, s_flat, out=ws.u_s).reshape(n - 2, n, n)
    g_mid = np.matmul(u_s, w[:, :, None], out=ws.g_mid)[:, :, 0]
    g_last = np.matmul(v[:, None, :], u_s, out=ws.g_last)[:, 0, :]
    vw = np.multiply(v[:, :, None], w[:, None, :], out=ws.vw).reshape(n - 2, n * n)
    g_first = np.matmul(vw, s_flat.T, out=ws.g_first)
    loss = -float(np.multiply(g_last, w, out=ws.triples).sum())
    g_psg.fill(0.0)
    g_psg[2:] -= g_last
    g_psg[1:-1] -= g_mid
    g_psg[:-2] -= g_first

    # Non-repetition recursion, reversed: psg[i] = p[i] * prior[i] and
    # prior[i+1] = prior[i] - p[i] * prior[i]**2, so g_prior[i] (dLoss/dprior[i],
    # zero past the last row) obeys a two-term recurrence.
    np.multiply(p, g_psg, out=ws.direct)
    np.multiply(2.0, psg, out=ws.decay)
    np.subtract(1.0, ws.decay, out=ws.decay)
    for decay_i, g_prior_next, g_prior_i, direct_i in ws.prior_steps:
        np.multiply(decay_i, g_prior_next, out=g_prior_i)
        g_prior_i += direct_i
    g_p = np.multiply(prior, ws.g_prior[1:], out=ws.g_p)
    np.subtract(g_psg, g_p, out=g_p)
    g_p *= prior

    g_logits = np.multiply(g_p, p, out=ws.g_logits)
    row_dot = np.sum(g_logits, axis=1, keepdims=True, out=ws.row)
    np.subtract(g_p, row_dot, out=g_logits)
    g_logits *= p

    # The linear head, reversed: its weight and bias gradients, then dLoss/dhidden.
    np.matmul(g_logits.T, ws.hidden, out=grad.head_w)
    np.sum(g_logits, axis=0, out=grad.head_b)
    np.matmul(g_logits, params.head_w, out=ws.g_hidden)

    # dZ = dc * (dgate/dz * partner) for the i, f, g gates and dh * (...) for
    # the output gate; the factors in brackets depend only on the forward pass.
    gi, gf, gg, go, tanh_c, tmp = ws.gi, ws.gf, ws.gg, ws.go, ws.tanh_c, ws.tmp_nh
    f_i, f_f, f_g, f_o = (ws.factors[:, k] for k in range(4))
    np.multiply(gg, gi, out=f_i)
    f_i *= np.subtract(1.0, gi, out=tmp)
    np.multiply(ws.cs[:-1], gf, out=f_f)
    f_f *= np.subtract(1.0, gf, out=tmp)
    np.multiply(gg, gg, out=tmp)
    np.multiply(gi, np.subtract(1.0, tmp, out=tmp), out=f_g)
    np.multiply(tanh_c, go, out=f_o)
    f_o *= np.subtract(1.0, go, out=tmp)
    np.multiply(tanh_c, tanh_c, out=tmp)
    np.multiply(go, np.subtract(1.0, tmp, out=tmp), out=ws.dc_dh)
    w_hidden, dh, dc, scratch = params.w_hidden, ws.dh, ws.dc, ws.vec_h
    for (g_hidden, dh_next, dc_next, dh_out, dc_out, dc_dh, f_cell, f_out,
         dz_cell, dz_out, gf_t, dz) in ws.reverse_steps:
        np.add(g_hidden, dh_next, out=dh)
        np.multiply(dh, dc_dh, out=scratch)
        np.add(dc_next, scratch, out=dc)
        np.multiply(f_cell, dc, out=dz_cell)
        np.multiply(f_out, dh, out=dz_out)
        np.multiply(dc, gf_t, out=dc_out)
        np.matmul(dz, w_hidden, out=dh_out)
    np.matmul(ws.dz.T, x, out=grad.w_input)
    np.matmul(ws.dz.T, ws.hs[:-1], out=grad.w_hidden)
    np.sum(ws.dz, axis=0, out=grad.bias)

    if not np.isfinite(loss) or not np.isfinite(grad.flat).all():
        raise NonFiniteLoss(
            "non-finite loss or gradient; clip gradients or reduce the learning rate"
        )
    return loss


def backward(
    pattern: BlockPattern,
    params: NetworkParams,
    netcfg: NetworkConfig,
    score_tensor: np.ndarray,
) -> tuple[float, NetworkParams]:
    """Loss -S_m for one block and its exact gradients w.r.t. every parameter.

    Reverse-mode through the score contraction, the combination triples, the
    non-repetition recursion, the softmax head and the unrolled LSTM steps.
    The three roles a row of P^sg plays in the N-2 consecutive triples are
    contracted for all triples at once with plain matmuls over the score
    tensor reshaped to (N, N*N); the LSTM input projection runs for all steps
    before the recurrence, the gate-derivative factors for all steps before
    the reverse loop, and the weight gradients after it (dZ^T x, dZ^T h_prev,
    sum of dZ). What remains per step is a handful of small numpy calls, each
    writing into a preallocated workspace: inside ``train``, which reuses one
    workspace, a step measured 0.16-0.21 ms at N=8, C=32, H=16 on a 2-vCPU
    host, almost all of it numpy call overhead. This call builds a fresh workspace,
    so the returned gradients belong to the caller. Raises NonFiniteLoss
    (epoch None) if anything overflows.
    """
    s_flat = _score_rows(pattern, netcfg, score_tensor)
    x = _scaled_levels(pattern, netcfg)
    ws = _Workspace(netcfg)
    loss = _backward_into(ws, x, params, s_flat)
    return loss, ws.grad


def train(
    dataset: list[BlockPattern],
    netcfg: NetworkConfig,
    traincfg: TrainConfig,
    tensors: list[np.ndarray],
) -> tuple[NetworkParams, list[float]]:
    """Train on the given blocks, one adaptive-moment step per block.

    Blocks are shuffled every epoch from the run seed. The caller passes one
    score tensor per block, in dataset order; this module never builds one.
    Every block and tensor shape is checked against ``netcfg`` before the
    first step, and each block's scaled levels and reshaped tensor are made
    once per run. All steps write into one workspace. Adam and gradient
    clipping act on the flat parameter vector in place; the clip norm adds
    the per-tensor sums of squares in checkpoint order. Returns the final
    parameters and the per-epoch mean training loss.

    Every step runs with numpy overflow, invalid and divide errors raised, so
    a non-finite loss, gradient or parameter anywhere in an epoch raises
    NonFiniteLoss naming that epoch.
    """
    if not dataset:
        raise InvalidArgument("training dataset is empty")
    if len(tensors) != len(dataset):
        raise InvalidArgument(f"{len(tensors)} score tensors for {len(dataset)} blocks")
    inputs = []
    for block, tensor in zip(dataset, tensors):
        inputs.append((_scaled_levels(block, netcfg), _score_rows(block, netcfg, tensor)))
    rng = np.random.default_rng(traincfg.seed)
    params = init_params(netcfg, rng)

    ws = _Workspace(netcfg)
    flat, g = params.flat, ws.grad.flat
    square = np.empty_like(flat)
    square_views = NetworkParams(square, _param_shapes(netcfg)).tensors()
    moment1 = np.zeros_like(flat)
    moment2 = np.zeros_like(flat)
    update = np.empty_like(flat)
    denom = np.empty_like(flat)
    beta1, beta2 = traincfg.beta1, traincfg.beta2
    clip = traincfg.gradient_clip_norm
    step = 0
    history: list[float] = []
    for epoch in range(traincfg.epochs):
        order = rng.permutation(len(dataset))
        total = 0.0
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for idx in order:
                    x, s_flat = inputs[idx]
                    loss = _backward_into(ws, x, params, s_flat)
                    np.multiply(g, g, out=square)
                    if clip is not None:
                        # Not the builtin sum: it compensates float sums from Python 3.12.
                        squares = 0.0
                        for v in square_views:
                            squares += float(v.sum())
                        norm = float(np.sqrt(squares))
                        if norm > clip:
                            g *= clip / norm
                            np.multiply(g, g, out=square)
                    step += 1
                    bias1 = 1.0 - beta1**step
                    bias2 = 1.0 - beta2**step
                    moment1 *= beta1
                    moment1 += np.multiply(1.0 - beta1, g, out=update)
                    moment2 *= beta2
                    moment2 += np.multiply(1.0 - beta2, square, out=update)
                    np.divide(moment1, bias1, out=update)
                    update *= traincfg.learning_rate
                    np.divide(moment2, bias2, out=denom)
                    np.sqrt(denom, out=denom)
                    denom += ADAM_EPSILON
                    update /= denom
                    flat -= update
                    total += loss
        except (NonFiniteLoss, FloatingPointError) as exc:
            raise NonFiniteLoss(
                f"training diverged at epoch {epoch}: {exc}", epoch=epoch
            ) from exc
        history.append(total / len(dataset))
    return params, history


def extract_permutation(p: np.ndarray) -> Permutation:
    """Conflict-free greedy decode of a probability matrix into a bijection.

    Repeatedly claim the largest remaining entry whose row and column are both
    free; ties break on (row, column). Valid even when rowwise argmaxes collide.
    A stable argsort of the negated, flattened matrix gives that order, since
    flat index order is (row, column) order. It is read 4N entries at a time,
    and only entries whose row and column are free at the start of their
    chunk reach the Python loop: O(N^2) memory, and few Python steps.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"probability matrix must be square, got {p.shape}")
    n = p.shape[0]
    ranked = np.argsort(-p.reshape(-1), kind="stable")
    mapping = [-1] * n
    row_free = np.ones(n, dtype=bool)
    col_free = np.ones(n, dtype=bool)
    assigned = 0
    for start in range(0, n * n, 4 * n):
        rows, cols = np.divmod(ranked[start:start + 4 * n], n)
        free = row_free[rows] & col_free[cols]
        for i, j in zip(rows[free].tolist(), cols[free].tolist()):
            if row_free[i] and col_free[j]:
                mapping[i] = j
                row_free[i] = col_free[j] = False
                assigned += 1
        if assigned == n:
            break
    return Permutation(tuple(mapping))


def arrange(
    pattern: BlockPattern, params: NetworkParams, netcfg: NetworkConfig
) -> Permutation:
    """Inference: embed, classify, decode. Never builds a score tensor."""
    if netcfg.output_dim != pattern.num_wordlines:
        raise DimensionMismatch(
            f"network emits {netcfg.output_dim} positions, block has {pattern.num_wordlines}"
        )
    hidden = lstm_forward(pattern, params, netcfg)
    return extract_permutation(head_forward(hidden, params, netcfg))


def write_checkpoint(params: NetworkParams, netcfg: NetworkConfig) -> bytes:
    # The header's third field counts the head's linear layers: always 1.
    header = pack_header(
        CHECKPOINT_MAGIC, "IIII", netcfg.input_dim, netcfg.hidden_size, 1, netcfg.output_dim
    )
    return header + params.flat.astype("<f8").tobytes()


def _checkpoint_layout(c: int, h: int, layers: int, n: int):
    """Network config and tensor shapes a checkpoint header describes."""
    if layers != 1:
        raise CodecError(f"checkpoint head has {layers} linear layers; only 1 is read")
    try:
        netcfg = NetworkConfig(input_dim=c, hidden_size=h, output_dim=n)
    except InvalidArgument as exc:
        raise CodecError(f"checkpoint header carries invalid dimensions: {exc}") from exc
    return netcfg, _param_shapes(netcfg)


def read_checkpoint(data: bytes) -> tuple[NetworkParams, NetworkConfig]:
    dims, body = unpack_header(
        data,
        CHECKPOINT_MAGIC,
        "IIII",
        lambda *dims: 8 * sum(math.prod(s) for s in _checkpoint_layout(*dims)[1]),
    )
    netcfg, shapes = _checkpoint_layout(*dims)
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        # train never writes one: a non-finite step raises NonFiniteLoss.
        raise CodecError(f"checkpoint parameter {bad[0]} is not finite: {float(flat[bad[0]])}")
    return NetworkParams(flat, shapes), netcfg


def save_checkpoint(path: str | Path, params: NetworkParams, netcfg: NetworkConfig) -> None:
    Path(path).write_bytes(write_checkpoint(params, netcfg))


def load_checkpoint(path: str | Path) -> tuple[NetworkParams, NetworkConfig]:
    return read_checkpoint(Path(path).read_bytes())
