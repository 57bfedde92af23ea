"""Small fully connected Q-networks with manual gradients.

One shared local network Q' serves every agent: its input is the agent
observation (which embeds the agent index) concatenated with a one-hot
action encoding, and the joint action value is the sum of local values,
accumulated left-to-right by agent index. Hidden layers use ReLU, the
output is linear. The trainers build their networks in NET_DTYPE; the
float64 default of init_mlp serves the finite-difference gradient checks.

Each net's parameters live in one contiguous vector (MlpParams.flat), and
the per-layer weights and biases are views into it. mlp_backward writes
the gradient into a vector of the same layout, so the Adam step runs once
over the whole vector rather than once per array. Adam is purely
element-wise, so one pass over the concatenation is bit-equal to a pass
per array.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import budget
from .warehouse import OBS_DIM, distinct_keys


NET_DTYPE = np.float32


@dataclass(frozen=True)
class LearnerConfig:
    """The recipe both trainers share: Adam on uniform replay under a decaying epsilon."""

    episodes: int = 300
    learning_rate: float = 1e-3
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.8
    batch_size: int = 64
    buffer_capacity: int = 50_000
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon schedule must stay within [0, 1] and be nonincreasing")
        if not 0.0 <= self.epsilon_decay_fraction <= 1.0:
            raise ValueError("epsilon_decay_fraction must lie in [0, 1]")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name, least in (("episodes", 0), ("batch_size", 1), ("buffer_capacity", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.buffer_capacity < self.batch_size:
            # updates wait for batch_size stored transitions, which such a buffer never holds
            raise ValueError(
                f"buffer_capacity {self.buffer_capacity} is smaller than batch_size "
                f"{self.batch_size}, so no update would ever run"
            )
        if not all(isinstance(w, int) and w >= 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be integers >= 1, got {self.hidden}")

    def epsilon(self, step: int, steps_per_episode: int) -> float:
        """Linear decay from epsilon_start to epsilon_end over the first decay fraction of steps."""
        horizon = max(int(self.episodes * steps_per_episode * self.epsilon_decay_fraction), 1)
        if step >= horizon:
            return self.epsilon_end
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * (step / horizon)

    def replay_capacity(self, steps_per_episode: int) -> int:
        """Replay slots for a run: buffer_capacity, but never more than the steps it takes."""
        return min(self.buffer_capacity, self.episodes * steps_per_episode)


@dataclass
class MlpParams:
    """A vector in a net's layout: its parameters, or a gradient of them.

    `flat` holds w0, b0, w1, b1, ... in that order, each weight matrix
    row-major; weights[l] (d_in, d_out) and biases[l] (d_out,) are views
    into it, so an in-place write to either shows in `flat` and the other
    way round. Build one with pack_mlp, or wrap a vector of exactly the
    length that layer_dims needs.
    """

    layer_dims: list[int]
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = [], []
        start = 0
        for d_in, d_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            stop = start + d_in * d_out
            self.weights.append(self.flat[start:stop].reshape(d_in, d_out))
            self.biases.append(self.flat[stop : stop + d_out])
            start = stop + d_out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype


def pack_mlp(layer_dims, weights, biases, dtype) -> MlpParams:
    """MlpParams holding copies of per-layer arrays, checked against layer_dims.

    weights[l] must have shape (d_in, d_out) or be that matrix raveled, as a
    checkpoint stores it, and biases[l] shape (d_out,). Every width in
    layer_dims is an integer >= 1 (not a float or a bool). A ValueError
    names the first field that breaks this.
    """
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1
               for d in layer_dims):
        raise ValueError(f"layer_dims {list(layer_dims)} holds a width that is not an integer >= 1")
    layer_dims = [int(d) for d in layer_dims]
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dims")
    n_layers = len(layer_dims) - 1
    for name, arrays in (("weights", weights), ("biases", biases)):
        if len(arrays) != n_layers:
            raise ValueError(f"{name} holds {len(arrays)} layers, where layer_dims "
                             f"{layer_dims} needs {n_layers}")
    parts = []
    for layer, (d_in, d_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        for name, values, shape in (
            ("weights", weights[layer], (d_in, d_out)),
            ("biases", biases[layer], (d_out,)),
        ):
            array = np.asarray(values, dtype=dtype)
            if array.shape not in (shape, (math.prod(shape),)):
                raise ValueError(f"{name}[{layer}] has shape {array.shape}, expected {shape}")
            parts.append(array.ravel())
    return MlpParams(layer_dims=layer_dims, flat=np.concatenate(parts))


def init_mlp(layer_dims: list[int], rng: np.random.Generator, dtype=np.float64) -> MlpParams:
    """He-scaled normal weights, zero biases."""
    weights, biases = [], []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)).astype(dtype))
        biases.append(np.zeros(d_out, dtype=dtype))
    return pack_mlp(layer_dims, weights, biases, dtype)


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


def mlp_backward(params: MlpParams, inputs: list[np.ndarray], grad_out: np.ndarray) -> MlpParams:
    """Gradient of sum(grad_out * output) w.r.t. the parameters, in their layout.

    Each layer's weight and bias gradients are written in place into one
    fresh vector, so `.flat` is the whole gradient.
    """
    grads = MlpParams(layer_dims=params.layer_dims, flat=np.empty_like(params.flat))
    grad = np.asarray(grad_out, dtype=params.dtype)
    last = params.n_layers - 1
    for layer in range(last, -1, -1):
        h_in = inputs[layer]
        if layer != last:
            # ReLU was applied to this layer's output; its post-activation
            # value is the next layer's cached input. grad was freshly
            # allocated by the matmul below, so masking in place is safe.
            post = inputs[layer + 1]
            np.multiply(grad, post > 0.0, out=grad)
        np.matmul(h_in.T, grad, out=grads.weights[layer])
        if grad.shape[1] == 1:
            grad.sum(axis=0, out=grads.biases[layer])
        else:
            # einsum adds the rows in the same order as sum(axis=0), so the
            # sums are bit-equal, at a fraction of the ufunc's overhead; on
            # one column the ufunc sums pairwise and einsum does not
            np.einsum("ij->j", grad, out=grads.biases[layer])
        if layer > 0:
            w = params.weights[layer]
            # with one output, grad @ w.T is an outer product: each entry is
            # one multiply, so broadcasting is bit-equal and skips BLAS
            grad = grad * w[:, 0] if w.shape[1] == 1 else grad @ w.T
    return grads


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Optimizer:
    """Adam over MlpParams, as one pass over the flat parameter vector.

    `m` and `v` are the moment vectors in the layout of MlpParams.flat,
    made on the first step. Every operation of the update is element-wise,
    and each runs on the same operands in the same order as it would on
    each layer's arrays separately, so the result is bit-equal to a
    per-array Adam; only the number of numpy calls differs.
    """

    learning_rate: float = 1e-3
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def apply(self, params: MlpParams, grad: np.ndarray) -> None:
        """One Adam step on params.flat from `grad`, a vector in its layout.

        `grad` (mlp_backward's `.flat`) is used as scratch: it holds no
        gradient afterwards, and a view of it sees the overwrite.
        """
        if self.m is None:
            self.m = np.zeros_like(params.flat)
            self.v = np.zeros_like(params.flat)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        m, v = self.m, self.v
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
        scratch = np.multiply(grad, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += scratch
        np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
        scratch *= grad
        v *= ADAM_BETA2
        v += scratch
        # value -= lr (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(m, bias1, out=scratch)
        scratch *= self.learning_rate
        np.divide(v, bias2, out=grad)
        np.sqrt(grad, out=grad)
        grad += ADAM_EPS
        scratch /= grad
        params.flat -= scratch


def target_sync(params: MlpParams) -> MlpParams:
    """A copy of the parameters that shares no memory with the live ones."""
    return MlpParams(layer_dims=list(params.layer_dims), flat=params.flat.copy())


# ---------------------------------------------------------------------------
# Shared local Q' network over (observation, one-hot action)
# ---------------------------------------------------------------------------


def q_input_dim(a_max: int) -> int:
    return OBS_DIM + a_max + 1


def default_q_dims(a_max: int, hidden: tuple[int, ...] = LearnerConfig.hidden) -> list[int]:
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


def greedy_actions(
    params: MlpParams,
    observations: np.ndarray,
    a_max: int,
    budget_limit: int,
    *,
    row_of: np.ndarray | None = None,
) -> np.ndarray:
    """Budgeted argmax joint action(s) of the value decomposition.

    Without row_of, (N, OBS_DIM) observations give one episode's (N,)
    action. With row_of, observations are a batch's distinct observation
    rows and agent (k, i) observes observations[row_of[k, i]], as
    warehouse.observe_distinct returns them; the result is the (K, N)
    actions (the (N,) action for an (N,) row_of).

    The shared Q' makes an agent's table row a function of its observation
    row alone, so the forward runs once per given row; and episodes whose
    agents all map to the same rows have the same table stack, so the
    budget argmax runs once per distinct stack, grouped by
    warehouse.distinct_keys. Both are exact (see action_value_table), and
    each table is solved on its own, so every action equals a per-episode
    call's.
    """
    if row_of is None and observations.ndim != 2:
        raise ValueError("a batch's observations need row_of (see warehouse.observe_distinct)")
    tables = action_value_table(params, observations, a_max)
    if row_of is None:
        return budget.solve_budget_argmax(tables, budget_limit)
    flat = row_of.reshape(-1, row_of.shape[-1])
    first, stack_of = distinct_keys(flat)
    actions = budget.solve_budget_argmax(tables[flat[first]], budget_limit)
    return actions[stack_of].reshape(row_of.shape)


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------


@dataclass
class Transition:
    """One env step as a ReplayBuffer item.

    The Q-net trainer keeps its steps, and their per-era bootstrap memo, in
    the preallocated columns of training.QReplay instead; this list form is
    the reference the column replay is tested against.
    """

    observations: np.ndarray  # (N, OBS_DIM)
    action: np.ndarray  # (N,)
    reward: float  # joint scalar (trainer-scaled)
    next_observations: np.ndarray
    terminal: bool


class ReplayRing:
    """The slot rules of a FIFO replay ring, apart from what the slots hold.

    Pushes fill slots 0, 1, ... in turn; once `capacity` items are stored,
    each push overwrites the oldest slot. A batch is drawn uniformly with
    replacement over the stored slots. Until the ring is full, a batch
    larger than the number of stored items raises; a full ring may be
    drawn at any batch size.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.pushes = 0

    def __len__(self) -> int:
        return min(self.pushes, self.capacity)

    def next_slot(self) -> int:
        """The slot the next push writes, counted as stored from now on."""
        slot = self.pushes % self.capacity
        self.pushes += 1
        return slot

    def draw(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """`batch_size` stored slots, uniformly with replacement."""
        size = len(self)
        if not size:
            raise ValueError("cannot sample from an empty buffer")
        if size < self.capacity and batch_size > size:
            raise ValueError(
                f"batch_size {batch_size} exceeds the {size} stored items "
                f"of a buffer not yet full (capacity {self.capacity})"
            )
        return rng.integers(0, size, size=batch_size)


class ReplayBuffer:
    """A ReplayRing of Python objects: `sample` returns a list of the stored items."""

    def __init__(self, capacity: int):
        self._ring = ReplayRing(capacity)
        self._items: list = []

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item) -> None:
        slot = self._ring.next_slot()
        if slot == len(self._items):
            self._items.append(item)
        else:
            self._items[slot] = item

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        items = self._items
        # Python ints index a list faster than numpy integer scalars
        return [items[i] for i in self._ring.draw(batch_size, rng).tolist()]


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
    # json.dumps runs the C encoder; json.dump always takes the pure-Python path
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


class CheckpointError(ValueError):
    """A checkpoint is not a JSON object, or a field is missing or of the wrong type or shape."""


def load_checkpoint(path) -> dict:
    """Read a checkpoint into {kind, params, config_hash, meta}; other keys are ignored.

    A file that is not a JSON object, a missing field, a dtype other than
    the two that save_checkpoint writes, or weights and biases that do not
    match layer_dims raise CheckpointError naming the defect.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise CheckpointError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError("the top level is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint format version")
    dtype = doc.get("dtype", "float64")
    if dtype not in ("float32", "float64"):
        raise CheckpointError(f"dtype {dtype!r} is not 'float32' or 'float64'")
    try:
        kind = doc["kind"]
        params = pack_mlp(doc["layer_dims"], doc["weights"], doc["biases"], np.dtype(dtype))
    except KeyError as exc:
        raise CheckpointError(f"missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(str(exc)) from exc
    return {
        "kind": kind,
        "params": params,
        "config_hash": doc.get("config_hash", ""),
        "meta": doc.get("meta", {}),
    }


def params_digest(params: MlpParams) -> str:
    """Stable content hash of the parameter values (w0, b0, w1, b1, ... in order)."""
    return hashlib.sha256(params.flat.tobytes()).hexdigest()
