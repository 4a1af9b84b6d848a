"""Differentiable arrangement solver.

An LSTM embeds the page sequence (one step per wordline, inputs are levels
scaled into [0,1], no layer normalization); a linear head plus softmax turns
each step's hidden state into a distribution over source pages for that
physical position. Training transforms the position probabilities into
non-repeating sequence-generation probabilities, contracts them with the
triple-score tensor into an expected arrangement score S_m, and minimizes
-S_m with exact hand-rolled backpropagation through the whole chain.
Inference never touches the score tensor: decode the probability matrix
greedily into a bijection and you are done.

Parameter layout: the four LSTM gates are stacked as row blocks in the order
input, forget, cell-candidate, output, so w_input is (4H, C), w_hidden is
(4H, H) and bias is (4H,). All parameters live in one contiguous float64
vector, NetworkParams.flat: w_input, w_hidden, bias, then the head's weight
and bias per layer, each row-major, and the named attributes are views into
it. Adam, gradient clipping and the checkpoint body act on that one vector.
Checkpoints use the PDAW format; its body is ``flat`` as little-endian
float64, and its layout is in the README "File formats" table.

The recurrence evaluates every gate with one tanh per step, using
sigmoid(z) = 1/2 + tanh(z/2)/2 for the input, forget and output gates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ArchConfig, BlockPattern, Permutation
from .data_io import pack_header, unpack_header
from .errors import (
    CodecError,
    DimensionMismatch,
    InvalidArgument,
    NonFiniteGradient,
    NonFiniteLoss,
    TooFewWordlines,
)
from .scoring import build_score_tensor

CHECKPOINT_MAGIC = b"PDAW"

LEVEL_SCALE = 15.0
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class NetworkConfig:
    """Shape of the network: input width C, LSTM hidden size, output width N."""

    input_dim: int
    hidden_size: int
    output_dim: int
    num_linear_layers: int = 1

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise InvalidArgument("input_dim and output_dim must be positive")
        if self.hidden_size < 1:
            raise InvalidArgument(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.num_linear_layers not in (1, 2):
            raise InvalidArgument(
                f"num_linear_layers must be 1 or 2, got {self.num_linear_layers}"
            )


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
            raise InvalidArgument(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise InvalidArgument("learning_rate must be positive")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidArgument(f"{name} must lie in (0,1), got {value}")
        if self.gradient_clip_norm is not None and not self.gradient_clip_norm > 0:
            raise InvalidArgument("gradient_clip_norm must be positive or None")


class NetworkParams:
    """Named views into one contiguous float64 parameter vector ``flat``.

    The views follow the checkpoint order of ``tensors()``: w_input, w_hidden,
    bias, then one (head_w[k], head_b[k]) pair per head layer. Writing to a
    view writes to ``flat``, so the optimizer and the checkpoint codec act on
    ``flat`` alone.
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
        self.w_input, self.w_hidden, self.bias = views[:3]
        self.head_w = views[3::2]
        self.head_b = views[4::2]
        self._views = views

    def tensors(self) -> list[np.ndarray]:
        """All parameter arrays in the fixed checkpoint order."""
        return list(self._views)

    def zeros_like(self) -> "NetworkParams":
        return NetworkParams(np.zeros_like(self.flat), [v.shape for v in self._views])


def _param_shapes(netcfg: NetworkConfig) -> list[tuple[int, ...]]:
    """Parameter shapes in checkpoint order; weights are 2-D (out, fan_in)."""
    h, c, n = netcfg.hidden_size, netcfg.input_dim, netcfg.output_dim
    head = [(n, h), (n,)] if netcfg.num_linear_layers == 1 else [(h, h), (h,), (n, h), (n,)]
    return [(4 * h, c), (4 * h, h), (4 * h,)] + head


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


def _lstm_pass(cells: np.ndarray, params: NetworkParams, netcfg: NetworkConfig):
    """Run the recurrence; return what backward needs.

    Returns x (N, C), hidden states hs (N+1, H) and cell states cs (N+1, H)
    with row 0 the zero initial state, tanh of the cell states (N, H), and the
    activated gates (N, 4H). Each step is one tanh over all 4H gates, using
    sigmoid(z) = 1/2 + tanh(z/2)/2; the halving is folded into the input
    projection and the recurrent weights (scaling by 1/2 is exact).
    """
    steps, width = cells.shape
    if width != netcfg.input_dim:
        raise DimensionMismatch(f"pattern has {width} cells/page, network wants {netcfg.input_dim}")
    h = netcfg.hidden_size
    mul = np.full(4 * h, 0.5)
    mul[2 * h : 3 * h] = 1.0  # the cell candidate is a plain tanh
    add = 1.0 - mul
    x = cells.astype(np.float64) / LEVEL_SCALE
    zx = (x @ params.w_input.T + params.bias) * mul
    w_hidden = params.w_hidden * mul[:, None]
    hs = np.zeros((steps + 1, h))
    cs = np.zeros((steps + 1, h))
    tanh_c = np.empty((steps, h))
    gates = np.empty((steps, 4 * h))
    gi, gf, gg, go = (gates[:, k * h : (k + 1) * h] for k in range(4))
    for t in range(steps):
        g = np.tanh(zx[t] + w_hidden @ hs[t], out=gates[t])
        g *= mul
        g += add
        c = np.multiply(gf[t], cs[t], out=cs[t + 1])
        c += gi[t] * gg[t]
        np.multiply(go[t], np.tanh(c, out=tanh_c[t]), out=hs[t + 1])
    return x, hs, cs, tanh_c, gates


def lstm_forward(
    pattern: BlockPattern, params: NetworkParams, netcfg: NetworkConfig
) -> np.ndarray:
    """Hidden-state sequence (N, hidden_size); initial hidden and cell state are zero."""
    return _lstm_pass(pattern.cells, params, netcfg)[1][1:]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _head_pass(hidden: np.ndarray, params: NetworkParams, netcfg: NetworkConfig):
    """Softmax probabilities and ``inputs``, the input of each head layer:
    the hidden states, then the ReLU output of every layer but the last."""
    if hidden.ndim != 2 or hidden.shape[1] != netcfg.hidden_size:
        raise DimensionMismatch(
            f"hidden states must be (*, {netcfg.hidden_size}), got {hidden.shape}"
        )
    inputs = [hidden]
    for w, b in zip(params.head_w[:-1], params.head_b[:-1]):
        inputs.append(np.maximum(inputs[-1] @ w.T + b, 0.0))
    logits = inputs[-1] @ params.head_w[-1].T + params.head_b[-1]
    return _softmax_rows(logits), inputs


def head_forward(
    hidden_states: np.ndarray, params: NetworkParams, netcfg: NetworkConfig
) -> np.ndarray:
    """Row-stochastic position-probability matrix: row i is the source-page
    distribution for physical position i."""
    p, _ = _head_pass(np.asarray(hidden_states, dtype=np.float64), params, netcfg)
    return p


def _seqgen_with_prior(p: np.ndarray):
    psg = np.empty_like(p)
    prior = np.empty_like(p)
    prior[0] = 1.0
    rows = p.shape[0]
    for i in range(rows):
        psg[i] = p[i] * prior[i]
        if i + 1 < rows:
            prior[i + 1] = prior[i] * (1.0 - psg[i])
    return psg, prior


def seqgen_transform(p: np.ndarray) -> np.ndarray:
    """Non-repetition transform: row 0 passes through, later rows are scaled by
    the probability that no earlier position already generated that page.

    psg[i,j] = p[i,j] * prod_{t<i} (1 - psg[t,j]); once a column reaches 1 the
    rest of the column is extinguished. Differentiable everywhere.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionMismatch(f"probability matrix must be 2-D, got shape {p.shape}")
    psg, _ = _seqgen_with_prior(p)
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
    sum of dZ). What remains per step is a handful of small numpy calls: a
    call takes about 0.4 ms at N=8, C=32, H=16 on a 2-vCPU host, almost all
    of it numpy call overhead. Raises NonFiniteGradient if anything overflows.
    """
    n = pattern.num_wordlines
    if netcfg.output_dim != n:
        raise DimensionMismatch(f"network emits {netcfg.output_dim} positions, block has {n}")
    s = np.asarray(score_tensor, dtype=np.float64)
    if s.shape != (n, n, n):
        raise DimensionMismatch(f"score tensor must be ({n},{n},{n}), got {s.shape}")

    x, hs, cs, tanh_c, gates = _lstm_pass(pattern.cells, params, netcfg)
    p, inputs = _head_pass(hs[1:], params, netcfg)
    psg, prior = _seqgen_with_prior(p)

    # S_m = sum_t sum_abc u_t[a] v_t[b] w_t[c] s[a,b,c] with (u, v, w) the
    # rows (t, t+1, t+2); the gradient of each role leaves that role out.
    u, v, w = psg[:-2], psg[1:-1], psg[2:]
    s_flat = s.reshape(n, n * n)
    u_s = (u @ s_flat).reshape(n - 2, n, n)
    g_mid = (u_s @ w[:, :, None])[:, :, 0]
    g_last = (v[:, None, :] @ u_s)[:, 0, :]
    g_first = (v[:, :, None] * w[:, None, :]).reshape(n - 2, n * n) @ s_flat.T
    loss = -float((g_last * w).sum())
    g_psg = np.zeros_like(psg)
    g_psg[2:] -= g_last
    g_psg[1:-1] -= g_mid
    g_psg[:-2] -= g_first

    # Non-repetition recursion, reversed: psg[i] = p[i] * prior[i] and
    # prior[i+1] = prior[i] - p[i] * prior[i]**2, so g_prior[i] (dLoss/dprior[i],
    # zero past the last row) obeys a two-term recurrence.
    direct = p * g_psg
    decay = 1.0 - 2.0 * psg
    g_prior = np.zeros((n + 1, n))
    for i in range(n - 1, 0, -1):
        np.multiply(decay[i], g_prior[i + 1], out=g_prior[i])
        g_prior[i] += direct[i]
    g_p = prior * (g_psg - prior * g_prior[1:])

    row_dot = (g_p * p).sum(axis=1, keepdims=True)
    g_logits = p * (g_p - row_dot)

    # Head layers in reverse; inputs[k] = max(z, 0) for k > 0, so the ReLU
    # mask z > 0 is inputs[k] > 0.
    grads = params.zeros_like()
    g_hidden = g_logits
    for k in range(len(inputs) - 1, -1, -1):
        grads.head_w[k][...] = g_hidden.T @ inputs[k]
        grads.head_b[k][...] = g_hidden.sum(axis=0)
        g_hidden = g_hidden @ params.head_w[k]
        if k:
            g_hidden *= inputs[k] > 0

    # dZ = dc * (dgate/dz * partner) for the i, f, g gates and dh * (...) for
    # the output gate; the factors in brackets depend only on the forward pass.
    h = netcfg.hidden_size
    gi, gf, gg, go = (gates[:, k * h : (k + 1) * h] for k in range(4))
    factors = np.empty((n, 4, h))
    factors[:, 0] = gg * gi * (1.0 - gi)
    factors[:, 1] = cs[:-1] * gf * (1.0 - gf)
    factors[:, 2] = gi * (1.0 - gg * gg)
    factors[:, 3] = tanh_c * go * (1.0 - go)
    dc_dh = go * (1.0 - tanh_c * tanh_c)
    dz = np.empty((n, 4 * h))
    dz_gates = dz.reshape(n, 4, h)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(n - 1, -1, -1):
        dh = g_hidden[t] + dh_next
        dc = dc_next + dh * dc_dh[t]
        np.multiply(factors[t, :3], dc, out=dz_gates[t, :3])
        np.multiply(factors[t, 3], dh, out=dz_gates[t, 3])
        dc_next = dc * gf[t]
        dh_next = dz[t] @ params.w_hidden
    grads.w_input[...] = dz.T @ x
    grads.w_hidden[...] = dz.T @ hs[:-1]
    grads.bias[...] = dz.sum(axis=0)

    if not np.isfinite(loss) or not np.isfinite(grads.flat).all():
        raise NonFiniteGradient(
            "non-finite loss or gradient; clip gradients or reduce the learning rate"
        )
    return loss, grads


def train(
    dataset: list[BlockPattern],
    netcfg: NetworkConfig,
    traincfg: TrainConfig,
    cfg: ArchConfig,
    *,
    tensors: list[np.ndarray] | None = None,
) -> tuple[NetworkParams, list[float]]:
    """Train on the given blocks, one adaptive-moment step per block.

    Blocks are shuffled every epoch from the run seed. Score tensors are built
    once per block up front unless the caller passes them in dataset order
    (scoring happens only here, never at inference). Adam and gradient
    clipping act on the flat parameter vector; the clip norm adds the
    per-tensor sums of squares in checkpoint order. Returns the final
    parameters and the per-epoch mean training loss.

    Every step runs with numpy overflow, invalid and divide errors raised, so
    a non-finite loss, gradient or parameter anywhere in an epoch raises
    NonFiniteLoss naming that epoch.
    """
    if not dataset:
        raise InvalidArgument("training dataset is empty")
    if tensors is None:
        tensors = [build_score_tensor(block, cfg) for block in dataset]
    elif len(tensors) != len(dataset):
        raise InvalidArgument(f"{len(tensors)} score tensors for {len(dataset)} blocks")
    rng = np.random.default_rng(traincfg.seed)
    params = init_params(netcfg, rng)

    flat = params.flat
    moment1 = np.zeros_like(flat)
    moment2 = np.zeros_like(flat)
    step = 0
    history: list[float] = []
    for epoch in range(traincfg.epochs):
        order = rng.permutation(len(dataset))
        total = 0.0
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for idx in order:
                    loss, grads = backward(dataset[idx], params, netcfg, tensors[idx])
                    g = grads.flat
                    if traincfg.gradient_clip_norm is not None:
                        norm = float(np.sqrt(sum(float((t * t).sum()) for t in grads.tensors())))
                        if norm > traincfg.gradient_clip_norm:
                            g *= traincfg.gradient_clip_norm / norm
                    step += 1
                    bias1 = 1.0 - traincfg.beta1**step
                    bias2 = 1.0 - traincfg.beta2**step
                    moment1 *= traincfg.beta1
                    moment1 += (1.0 - traincfg.beta1) * g
                    moment2 *= traincfg.beta2
                    moment2 += (1.0 - traincfg.beta2) * (g * g)
                    flat -= traincfg.learning_rate * (moment1 / bias1) / (
                        np.sqrt(moment2 / bias2) + ADAM_EPSILON
                    )
                    total += loss
        except (NonFiniteGradient, FloatingPointError) as exc:
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
    header = pack_header(
        CHECKPOINT_MAGIC,
        "IIII",
        netcfg.input_dim,
        netcfg.hidden_size,
        netcfg.num_linear_layers,
        netcfg.output_dim,
    )
    return header + params.flat.astype("<f8").tobytes()


def _checkpoint_layout(c: int, h: int, layers: int, n: int):
    """Network config and tensor shapes a checkpoint header describes."""
    try:
        netcfg = NetworkConfig(
            input_dim=c, hidden_size=h, output_dim=n, num_linear_layers=layers
        )
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
    return NetworkParams(flat, shapes), netcfg


def save_checkpoint(path: str | Path, params: NetworkParams, netcfg: NetworkConfig) -> None:
    Path(path).write_bytes(write_checkpoint(params, netcfg))


def load_checkpoint(path: str | Path) -> tuple[NetworkParams, NetworkConfig]:
    return read_checkpoint(Path(path).read_bytes())
