"""Small fully connected Q-networks with manual gradients.

One shared local network Q' serves every agent: its input is the agent
observation (which embeds the agent index) concatenated with a one-hot
action encoding, and the joint action value is the sum of local values,
accumulated left-to-right by agent index. Hidden layers use ReLU, the
output is linear.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import budget
from .warehouse import OBS_DIM


@dataclass
class MlpParams:
    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l]: (d_in, d_out)
    biases: list[np.ndarray]  # biases[l]: (d_out,)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype


def init_mlp(layer_dims: list[int], rng: np.random.Generator, dtype=np.float64) -> MlpParams:
    """He-scaled normal weights, zero biases."""
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    weights, biases = [], []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)).astype(dtype))
        biases.append(np.zeros(d_out, dtype=dtype))
    return MlpParams(layer_dims=list(layer_dims), weights=weights, biases=biases)


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a single input (d,) or a batch (B, d)."""
    out, _ = mlp_forward_cached(params, x)
    return out


def mlp_forward_cached(params: MlpParams, x: np.ndarray):
    """Forward pass keeping layer inputs for backpropagation."""
    x = np.asarray(x, dtype=params.dtype)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.layer_dims[0]:
        raise ValueError("input dimension mismatch")
    inputs = []
    last = params.n_layers - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        h = h @ w
        h += b
        if layer != last:
            np.maximum(h, 0.0, out=h)
    out = h[0] if single else h
    return out, inputs


def mlp_backward(params: MlpParams, inputs: list[np.ndarray], grad_out: np.ndarray):
    """Gradients of sum(grad_out * output) w.r.t. all weights and biases."""
    grad = np.asarray(grad_out, dtype=params.dtype)
    if grad.ndim == 1:
        grad = grad[None, :]
    grads_w = [None] * params.n_layers
    grads_b = [None] * params.n_layers
    last = params.n_layers - 1
    for layer in range(last, -1, -1):
        h_in = inputs[layer]
        if layer != last:
            # ReLU was applied to this layer's output; its post-activation
            # value is the next layer's cached input. grad was freshly
            # allocated by the matmul below, so masking in place is safe.
            post = inputs[layer + 1]
            np.multiply(grad, post > 0.0, out=grad)
        grads_w[layer] = h_in.T @ grad
        grads_b[layer] = grad.sum(axis=0)
        if layer > 0:
            w = params.weights[layer]
            # with one output, grad @ w.T is an outer product: each entry is
            # one multiply, so broadcasting is bit-equal and skips BLAS
            grad = grad * w[:, 0] if w.shape[1] == 1 else grad @ w.T
    return grads_w, grads_b


@dataclass
class Optimizer:
    """Plain SGD or Adam over MlpParams."""

    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)

    def _ensure_state(self, params: MlpParams) -> None:
        if not self.m_w:
            self.m_w = [np.zeros_like(w) for w in params.weights]
            self.v_w = [np.zeros_like(w) for w in params.weights]
            self.m_b = [np.zeros_like(b) for b in params.biases]
            self.v_b = [np.zeros_like(b) for b in params.biases]

    def apply(self, params: MlpParams, grads_w, grads_b) -> None:
        if self.kind == "sgd":
            for w, b, gw, gb in zip(params.weights, params.biases, grads_w, grads_b):
                w -= self.learning_rate * gw
                b -= self.learning_rate * gb
            return
        if self.kind != "adam":
            raise ValueError(f"unknown optimizer kind: {self.kind!r}")
        self._ensure_state(params)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for layer in range(params.n_layers):
            for value, grad, m, v in (
                (params.weights[layer], grads_w[layer], self.m_w[layer], self.v_w[layer]),
                (params.biases[layer], grads_b[layer], self.m_b[layer], self.v_b[layer]),
            ):
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                value -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def mlp_gradient_step(
    params: MlpParams,
    inputs: list[np.ndarray],
    grad_out: np.ndarray,
    optimizer: Optimizer,
) -> None:
    """Backpropagate the output gradient and apply one optimizer update."""
    grads_w, grads_b = mlp_backward(params, inputs, grad_out)
    optimizer.apply(params, grads_w, grads_b)


def target_sync(params: MlpParams) -> MlpParams:
    """Deep copy with no aliasing against the live parameters."""
    return copy.deepcopy(params)


# ---------------------------------------------------------------------------
# Shared local Q' network over (observation, one-hot action)
# ---------------------------------------------------------------------------


def q_input_dim(a_max: int, obs_dim: int = OBS_DIM) -> int:
    return obs_dim + a_max + 1


def default_q_dims(a_max: int, hidden: tuple[int, int] = (64, 64)) -> list[int]:
    return [q_input_dim(a_max), *hidden, 1]


def q_inputs(
    observations: np.ndarray, actions: np.ndarray, a_max: int, dtype=np.float64
) -> np.ndarray:
    """Stack (N, OBS_DIM) observations with one-hot actions into (N, in_dim) rows of `dtype`.

    Pass the params' dtype, so the forward pass needs no cast.
    """
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    actions = np.asarray(actions, dtype=int)
    n = observations.shape[0]
    rows = np.zeros((n, observations.shape[1] + a_max + 1), dtype=dtype)
    rows[:, : observations.shape[1]] = observations
    rows[np.arange(n), observations.shape[1] + actions] = 1.0
    return rows


# Row cap of one forward pass in action_value_table: a lockstep batch of
# episodes needs tens of thousands of rows, and evaluating them at once
# would multiply the hidden activations' memory.
FORWARD_BLOCK_ROWS = 2048

# Every forward block is padded to a whole multiple of this many rows and
# the padded outputs are discarded. BLAS kernels round rows in a partial
# unroll differently from the same rows in a full one (with OpenBLAS 0.3.31
# the last M mod 4 rows of an M-row product), so without the padding a
# row's Q value would depend on its position and on the batch size N.
# With it, a row's value depends only on the row.
FORWARD_ROW_MULTIPLE = 4


def action_value_table(params: MlpParams, observations: np.ndarray, a_max: int) -> np.ndarray:
    """Q'(i, o_i, a) tables for the budgeted argmax: (..., N, OBS_DIM) -> (..., N, A_max+1).

    Row r of the forward pass is agent r // (A_max+1) with action
    r % (A_max+1); the rows go through the network in blocks of at most
    FORWARD_BLOCK_ROWS, so memory stays bounded for any batch size. Each
    block is padded to a multiple of FORWARD_ROW_MULTIPLE rows (copies of
    its last row), so every entry is bit-identical to the same
    observation's entry in any other call.
    """
    width = a_max + 1
    flat = observations.reshape(-1, observations.shape[-1])
    n_rows = flat.shape[0] * width
    out = np.empty(n_rows, dtype=params.dtype)
    for start in range(0, n_rows, FORWARD_BLOCK_ROWS):
        stop = min(start + FORWARD_BLOCK_ROWS, n_rows)
        padded = stop + (start - stop) % FORWARD_ROW_MULTIPLE
        rows = np.minimum(np.arange(start, padded), n_rows - 1)
        inputs = q_inputs(flat[rows // width], rows % width, a_max, params.dtype)
        out[start:stop] = mlp_forward(params, inputs)[: stop - start, 0]
    return out.reshape(observations.shape[:-1] + (width,))


# The training bootstrap's name for the same forward, (B, N, OBS_DIM) -> (B, N, A_max+1).
action_value_table_batch = action_value_table


def _row_key_weights(width: int) -> np.ndarray:
    # any fixed weights work: distinct_rows checks every merge bitwise
    return np.sin(np.arange(1.0, width + 1.0))


def distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse) of a 2-D array with rows[inverse] bitwise equal to x.

    Rows are grouped by a 1-D projection key, which is far cheaper than
    np.unique(axis=0). The key is summed column by column, so equal rows
    get equal keys wherever they sit (a BLAS product would not promise
    that). A key collision between rows that differ in any bit is caught
    by a bitwise check, and then nothing is merged: the result is
    (x, arange(len(x))).
    """
    key = sum(x[:, j] * w for j, w in enumerate(_row_key_weights(x.shape[1])))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rows = x[first]
    bits = np.dtype(f"u{x.dtype.itemsize}")
    if np.array_equal(rows[inverse].view(bits), x.view(bits)):
        return rows, inverse
    return x, np.arange(len(x))


def greedy_actions(
    params: MlpParams, observations: np.ndarray, a_max: int, budget_limit: int
) -> np.ndarray:
    """Budgeted argmax joint action(s) of the value decomposition.

    (N, OBS_DIM) observations give one (N,) action; (K, N, OBS_DIM) give (K, N).

    A batch is deduplicated twice. The shared Q' makes an agent's table
    row a function of its observation row alone, so the forward runs once
    per distinct observation row; and episodes whose agents all map to the
    same distinct rows have the same table stack, so the budget argmax runs
    once per distinct stack. Both merges are exact (see distinct_rows and
    action_value_table), so every action equals a per-episode call's. A
    single episode is not deduplicated: feature 0 is the agent index, so
    its N rows are always distinct.
    """
    if observations.ndim == 2:
        table = action_value_table(params, observations, a_max)
        return budget.solve_budget_argmax(table, budget_limit)
    n_batch, n_agents, obs_dim = observations.shape
    rows, row_of = distinct_rows(observations.reshape(-1, obs_dim))
    tables = action_value_table(params, rows, a_max)
    stacks, stack_of = distinct_rows(row_of.reshape(n_batch, n_agents))
    actions = budget.solve_budget_argmax(tables[stacks], budget_limit)
    return actions[stack_of]


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------


@dataclass
class Transition:
    observations: np.ndarray  # (N, OBS_DIM)
    action: np.ndarray  # (N,)
    group: int  # 0-based group index
    reward: float  # joint scalar (trainer-scaled)
    next_observations: np.ndarray
    terminal: bool
    # bootstrap value memoized per target-network era; recomputing it for
    # the same target parameters is the training loop's dominant cost
    bootstrap_era: int = -1
    bootstrap_value: float = 0.0


class ReplayBuffer:
    """FIFO ring buffer with uniform with-replacement sampling.

    Until the buffer reaches capacity, a batch larger than the number of
    stored items raises; a full buffer may be sampled at any batch size.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._cursor] = item
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        if not self._items:
            raise ValueError("cannot sample from an empty buffer")
        if len(self._items) < self.capacity and batch_size > len(self._items):
            raise ValueError(
                f"batch_size {batch_size} exceeds the {len(self._items)} stored items "
                f"of a buffer not yet full (capacity {self.capacity})"
            )
        indices = rng.integers(0, len(self._items), size=batch_size)
        return [self._items[i] for i in indices]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def config_hash(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]


def save_checkpoint(
    path,
    params: MlpParams,
    *,
    kind: str,
    config_digest: str = "",
    meta: dict | None = None,
) -> None:
    """Write a versioned JSON checkpoint; floats round-trip bit-exactly."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "layer_dims": params.layer_dims,
        "dtype": np.dtype(params.dtype).name,
        "weights": [w.ravel().tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "config_hash": config_digest,
        "meta": meta or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> dict:
    """Read a checkpoint into {kind, params, config_hash, meta}; other keys are ignored."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint format version")
    dims = [int(d) for d in doc["layer_dims"]]
    dtype = np.dtype(doc.get("dtype", "float64"))
    weights = [
        np.asarray(flat, dtype=dtype).reshape(d_in, d_out)
        for flat, d_in, d_out in zip(doc["weights"], dims[:-1], dims[1:])
    ]
    biases = [np.asarray(b, dtype=dtype) for b in doc["biases"]]
    return {
        "kind": doc["kind"],
        "params": MlpParams(layer_dims=dims, weights=weights, biases=biases),
        "config_hash": doc.get("config_hash", ""),
        "meta": doc.get("meta", {}),
    }


def params_digest(params: MlpParams) -> str:
    """Stable content hash of the parameter values."""
    hasher = hashlib.sha256()
    for w, b in zip(params.weights, params.biases):
        hasher.update(np.ascontiguousarray(w).tobytes())
        hasher.update(np.ascontiguousarray(b).tobytes())
    return hasher.hexdigest()
