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
(4H, H) and bias is (4H,). Checkpoints use the PDAW format; its layout is in
the README "File formats" table.
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


@dataclass
class NetworkParams:
    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray
    head_w: list[np.ndarray]
    head_b: list[np.ndarray]

    def tensors(self) -> list[np.ndarray]:
        """All parameter arrays in the fixed checkpoint order."""
        out = [self.w_input, self.w_hidden, self.bias]
        for w, b in zip(self.head_w, self.head_b):
            out.append(w)
            out.append(b)
        return out

    def zeros_like(self) -> "NetworkParams":
        return NetworkParams(
            np.zeros_like(self.w_input),
            np.zeros_like(self.w_hidden),
            np.zeros_like(self.bias),
            [np.zeros_like(w) for w in self.head_w],
            [np.zeros_like(b) for b in self.head_b],
        )


def _head_shapes(netcfg: NetworkConfig) -> list[tuple[int, ...]]:
    h, n = netcfg.hidden_size, netcfg.output_dim
    if netcfg.num_linear_layers == 1:
        return [(n, h), (n,)]
    return [(h, h), (h,), (n, h), (n,)]


def init_params(netcfg: NetworkConfig, seed: int | np.random.Generator = 0) -> NetworkParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases except the open forget gate."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h, c = netcfg.hidden_size, netcfg.input_dim

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    w_input = uniform((4 * h, c), c)
    w_hidden = uniform((4 * h, h), h)
    bias = np.zeros(4 * h)
    bias[h : 2 * h] = 1.0
    head_w, head_b = [], []
    shapes = _head_shapes(netcfg)
    for w_shape, b_shape in zip(shapes[0::2], shapes[1::2]):
        head_w.append(uniform(w_shape, w_shape[1]))
        head_b.append(np.zeros(b_shape))
    return NetworkParams(w_input, w_hidden, bias, head_w, head_b)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_pass(cells: np.ndarray, params: NetworkParams, netcfg: NetworkConfig):
    """Run the recurrence; return hidden states plus the caches backward needs."""
    steps, width = cells.shape
    if width != netcfg.input_dim:
        raise DimensionMismatch(f"pattern has {width} cells/page, network wants {netcfg.input_dim}")
    h = netcfg.hidden_size
    x = cells.astype(np.float64) / LEVEL_SCALE
    hidden = np.zeros((steps, h))
    cache = {
        "x": x,
        "h_prev": np.zeros((steps, h)),
        "c_prev": np.zeros((steps, h)),
        "gi": np.zeros((steps, h)),
        "gf": np.zeros((steps, h)),
        "gg": np.zeros((steps, h)),
        "go": np.zeros((steps, h)),
        "tanh_c": np.zeros((steps, h)),
    }
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
        cache["gi"][step] = gi
        cache["gf"][step] = gf
        cache["gg"][step] = gg
        cache["go"][step] = go
        cache["tanh_c"][step] = tanh_c
        hidden[step] = h_state
    return hidden, cache


def lstm_forward(
    pattern: BlockPattern, params: NetworkParams, netcfg: NetworkConfig
) -> np.ndarray:
    """Hidden-state sequence (N, hidden_size); initial hidden and cell state are zero."""
    hidden, _ = _lstm_pass(pattern.cells, params, netcfg)
    return hidden


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _head_pass(hidden: np.ndarray, params: NetworkParams, netcfg: NetworkConfig):
    if hidden.ndim != 2 or hidden.shape[1] != netcfg.hidden_size:
        raise DimensionMismatch(
            f"hidden states must be (*, {netcfg.hidden_size}), got {hidden.shape}"
        )
    if len(params.head_w) == 1:
        z1 = a1 = None
        logits = hidden @ params.head_w[0].T + params.head_b[0]
    else:
        z1 = hidden @ params.head_w[0].T + params.head_b[0]
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ params.head_w[1].T + params.head_b[1]
    return _softmax_rows(logits), (z1, a1)


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
    Raises NonFiniteGradient if anything overflows.
    """
    n = pattern.num_wordlines
    if netcfg.output_dim != n:
        raise DimensionMismatch(f"network emits {netcfg.output_dim} positions, block has {n}")
    s = np.asarray(score_tensor, dtype=np.float64)
    if s.shape != (n, n, n):
        raise DimensionMismatch(f"score tensor must be ({n},{n},{n}), got {s.shape}")

    hidden, lstm_cache = _lstm_pass(pattern.cells, params, netcfg)
    p, (z1, a1) = _head_pass(hidden, params, netcfg)
    psg, prior = _seqgen_with_prior(p)

    # Expected score and dS_m/dpsg via the three roles each row plays.
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

    # Non-repetition recursion, reversed: prior[i+1] = prior[i] * (1 - psg[i]).
    g_p = np.zeros_like(p)
    g_prior_next = np.zeros(n)
    for i in range(n - 1, -1, -1):
        total = g_psg[i] - prior[i] * g_prior_next
        g_p[i] = prior[i] * total
        g_prior_next = p[i] * total + (1.0 - psg[i]) * g_prior_next

    row_dot = (g_p * p).sum(axis=1, keepdims=True)
    g_logits = p * (g_p - row_dot)

    grads = params.zeros_like()
    if len(params.head_w) == 1:
        grads.head_w[0][...] = g_logits.T @ hidden
        grads.head_b[0][...] = g_logits.sum(axis=0)
        g_hidden = g_logits @ params.head_w[0]
    else:
        grads.head_w[1][...] = g_logits.T @ a1
        grads.head_b[1][...] = g_logits.sum(axis=0)
        g_a1 = g_logits @ params.head_w[1]
        g_z1 = g_a1 * (z1 > 0)
        grads.head_w[0][...] = g_z1.T @ hidden
        grads.head_b[0][...] = g_z1.sum(axis=0)
        g_hidden = g_z1 @ params.head_w[0]

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

    if not np.isfinite(loss) or not all(np.isfinite(g).all() for g in grads.tensors()):
        raise NonFiniteGradient(
            "non-finite loss or gradient; clip gradients or reduce the learning rate"
        )
    return loss, grads


def train(
    dataset: list[BlockPattern],
    netcfg: NetworkConfig,
    traincfg: TrainConfig,
    cfg: ArchConfig,
) -> tuple[NetworkParams, list[float]]:
    """Train on the given blocks, one adaptive-moment step per block.

    Blocks are shuffled every epoch from the run seed; score tensors are built
    once per block up front (scoring happens only here, never at inference).
    Returns the final parameters and the per-epoch mean training loss.
    """
    if not dataset:
        raise InvalidArgument("training dataset is empty")
    rng = np.random.default_rng(traincfg.seed)
    params = init_params(netcfg, rng)
    tensors = [build_score_tensor(block, cfg) for block in dataset]

    moment1 = [np.zeros_like(t) for t in params.tensors()]
    moment2 = [np.zeros_like(t) for t in params.tensors()]
    step = 0
    history: list[float] = []
    for epoch in range(traincfg.epochs):
        order = rng.permutation(len(dataset))
        total = 0.0
        for idx in order:
            try:
                loss, grads = backward(dataset[idx], params, netcfg, tensors[idx])
            except NonFiniteGradient as exc:
                raise NonFiniteLoss(
                    f"training diverged at epoch {epoch}: {exc}", epoch=epoch
                ) from exc
            glist = grads.tensors()
            if traincfg.gradient_clip_norm is not None:
                norm = float(np.sqrt(sum(float((g * g).sum()) for g in glist)))
                if norm > traincfg.gradient_clip_norm:
                    scale = traincfg.gradient_clip_norm / norm
                    for g in glist:
                        g *= scale
            step += 1
            bias1 = 1.0 - traincfg.beta1**step
            bias2 = 1.0 - traincfg.beta2**step
            for tensor, m1, m2, g in zip(params.tensors(), moment1, moment2, glist):
                m1 *= traincfg.beta1
                m1 += (1.0 - traincfg.beta1) * g
                m2 *= traincfg.beta2
                m2 += (1.0 - traincfg.beta2) * (g * g)
                tensor -= traincfg.learning_rate * (m1 / bias1) / (
                    np.sqrt(m2 / bias2) + ADAM_EPSILON
                )
            total += loss
        history.append(total / len(dataset))
    return params, history


def extract_permutation(p: np.ndarray) -> Permutation:
    """Conflict-free greedy decode of a probability matrix into a bijection.

    Repeatedly claim the largest remaining entry whose row and column are both
    free; ties break on (row, column). Valid even when rowwise argmaxes collide.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"probability matrix must be square, got {p.shape}")
    n = p.shape[0]
    ranked = sorted((-p[i, j], i, j) for i in range(n) for j in range(n))
    mapping = [-1] * n
    row_free = [True] * n
    col_free = [True] * n
    assigned = 0
    for _, i, j in ranked:
        if row_free[i] and col_free[j]:
            mapping[i] = j
            row_free[i] = False
            col_free[j] = False
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
    body = b"".join(
        np.ascontiguousarray(t, dtype="<f8").tobytes() for t in params.tensors()
    )
    return header + body


def _checkpoint_layout(c: int, h: int, layers: int, n: int):
    """Network config and tensor shapes a checkpoint header describes."""
    try:
        netcfg = NetworkConfig(
            input_dim=c, hidden_size=h, output_dim=n, num_linear_layers=layers
        )
    except InvalidArgument as exc:
        raise CodecError(f"checkpoint header carries invalid dimensions: {exc}") from exc
    return netcfg, [(4 * h, c), (4 * h, h), (4 * h,)] + _head_shapes(netcfg)


def read_checkpoint(data: bytes) -> tuple[NetworkParams, NetworkConfig]:
    dims, body = unpack_header(
        data,
        CHECKPOINT_MAGIC,
        "IIII",
        lambda *dims: 8 * sum(math.prod(s) for s in _checkpoint_layout(*dims)[1]),
    )
    netcfg, shapes = _checkpoint_layout(*dims)
    arrays = []
    offset = 0
    for shape in shapes:
        count = math.prod(shape)
        arrays.append(
            np.frombuffer(body, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += 8 * count
    # Head tensors follow the LSTM ones as (weight, bias) pairs, one per layer.
    params = NetworkParams(arrays[0], arrays[1], arrays[2], arrays[3::2], arrays[4::2])
    return params, netcfg


def save_checkpoint(path: str | Path, params: NetworkParams, netcfg: NetworkConfig) -> None:
    Path(path).write_bytes(write_checkpoint(params, netcfg))


def load_checkpoint(path: str | Path) -> tuple[NetworkParams, NetworkConfig]:
    return read_checkpoint(Path(path).read_bytes())
