"""Small feed-forward networks with hand-written gradients.

Enough machinery for the 128/64 actor-critic pair: tanh MLPs, analytic
backprop, adaptive-moment updates, stabilized categorical sampling, and a
versioned checkpoint format. No autodiff graph, everything is numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

CHECKPOINT_VERSION = 2


class ShapeMismatchError(Exception):
    pass


class CheckpointError(Exception):
    pass


def param_count(dims: tuple[int, ...]) -> int:
    """Length of the flat parameter vector for layer widths ``dims``."""
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def layer_views(flat: np.ndarray, dims: tuple[int, ...]):
    """Per-layer (weights, biases) views into a flat parameter-layout vector.

    Layer i occupies its row-major (dims[i], dims[i+1]) weight matrix followed
    by its bias; writing through a view writes into ``flat``.
    """
    weights, biases = [], []
    start = 0
    for a, b in zip(dims, dims[1:]):
        weights.append(flat[start:start + a * b].reshape(a, b))
        start += a * b
        biases.append(flat[start:start + b])
        start += b
    return weights, biases


@dataclass
class MlpParams:
    """A feed-forward net with tanh hidden layers and a linear output head,
    stored as one float64 vector ``theta``; ``weights[i]`` and ``biases[i]``
    are views into it."""

    dims: tuple[int, ...]  # layer widths, input first
    theta: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if len(self.dims) < 2 or min(self.dims) < 1:
            raise ShapeMismatchError(f"bad layer dims {self.dims}")
        if self.theta.shape != (param_count(self.dims),):
            raise ShapeMismatchError(
                f"theta shape {self.theta.shape} does not match dims {self.dims}"
            )
        self.weights, self.biases = layer_views(self.theta, self.dims)

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]


def orthogonal(rng: np.random.Generator, shape: tuple[int, int],
               gain: float = 1.0) -> np.ndarray:
    """Orthogonal weight matrix scaled by gain."""
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_mlp(rng: np.random.Generator, in_dim: int, hidden: tuple[int, ...],
             out_dim: int, out_gain: float = 1.0) -> MlpParams:
    """Orthogonal initialization: gain sqrt(2) for hidden layers, a caller
    supplied gain for the output head (small for actors, 1 for critics)."""
    dims = (in_dim, *hidden, out_dim)
    p = MlpParams(dims, np.zeros(param_count(dims)))
    last = len(p.weights) - 1
    for i, w in enumerate(p.weights):
        w[...] = orthogonal(rng, w.shape, out_gain if i == last else np.sqrt(2.0))
    return p


def _layers(p: MlpParams, x: np.ndarray, acts: list | None) -> np.ndarray:
    """The layer loop behind ``forward`` and ``forward_cached``.

    A single row stays 1-D through every layer, and ``acts``, when given,
    receives the input and each layer's output. Each layer's matmul makes a
    new array that the bias add and the nonlinearity then update in place,
    so ``x`` is never written.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.shape[-1] != p.in_dim:
        raise ShapeMismatchError(
            f"input dim {h.shape[-1]} does not match network ({p.in_dim})"
        )
    if acts is not None:
        acts.append(h)
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w
        h += b
        if i != last:
            np.tanh(h, out=h)
        if acts is not None:
            acts.append(h)
    return h


def forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Deterministic forward pass; accepts a single vector or a batch."""
    return _layers(p, x, None)


def forward_cached(p: MlpParams, x: np.ndarray):
    """Forward pass returning (output, activations) for use by backward:
    the input, then each layer's output."""
    acts: list[np.ndarray] = []
    return _layers(p, x, acts), acts


def backward(p: MlpParams, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Analytic dLoss/dtheta given dLoss/dOutput, laid out like ``p.theta``.

    The upstream gradient must match the forward output shape for ``x``.
    Each layer's gradient is written straight into its view of the result.
    """
    x = np.asarray(x, dtype=np.float64)
    _, acts = forward_cached(p, x.reshape(1, -1) if x.ndim == 1 else x)
    g = np.asarray(upstream, dtype=np.float64)
    if g.ndim == 1 and acts[-1].shape[0] == 1:
        g = g.reshape(1, -1)
    if g.shape != acts[-1].shape:
        raise ShapeMismatchError(
            f"upstream shape {g.shape} does not match output {acts[-1].shape}"
        )
    grad = np.empty_like(p.theta)
    w_grads, b_grads = layer_views(grad, p.dims)
    for i in range(len(p.weights) - 1, -1, -1):
        np.matmul(acts[i].T, g, out=w_grads[i])
        np.sum(g, axis=0, out=b_grads[i])
        if i > 0:
            g = g @ p.weights[i].T
            d = np.square(acts[i])
            np.subtract(1.0, d, out=d)
            g *= d
    return grad


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators, laid out like the parameter vector.

    ``scratch`` is two work vectors of the same length that let
    ``adam_step`` run without temporaries; it is not checkpointed.
    """

    lr: float
    m: np.ndarray
    v: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def adam_init(p: MlpParams, lr: float) -> OptimizerState:
    return OptimizerState(lr=lr, m=np.zeros_like(p.theta), v=np.zeros_like(p.theta))


def adam_step(state: OptimizerState, p: MlpParams, grad: np.ndarray):
    """One bias-corrected moment update. Mutates and returns (state, p).

    Works in place through ``state.scratch``, in the order of
    ``theta -= scale * m / (sqrt(v) + eps)``, so the rounding is that of
    the plain expression.
    """
    if grad.shape != p.theta.shape:
        raise ShapeMismatchError(
            f"gradient shape {grad.shape} vs parameter {p.theta.shape}"
        )
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    scale = state.lr * np.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    s, d = state.scratch
    state.m *= b1
    np.multiply(1.0 - b1, grad, out=s)
    state.m += s
    state.v *= b2
    np.multiply(1.0 - b2, grad, out=s)
    s *= grad
    state.v += s
    np.sqrt(state.v, out=d)
    d += state.eps
    np.multiply(scale, state.m, out=s)
    s /= d
    p.theta -= s
    return state, p


# ---------------------------------------------------------------------------
# Categorical policy head


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction.

    A single row takes plain ufunc reductions, which skip the keepdims
    bookkeeping and the ndarray method wrappers and round the same, so a
    row gives the bits of its row in a batch.
    """
    if scores.ndim == 1:
        z = scores - np.maximum.reduce(scores)
        z -= np.log(np.add.reduce(np.exp(z)))
        return z
    z = scores - scores.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


class Categorical(NamedTuple):
    """One row's distribution for ``categorical_sample``."""

    logp: np.ndarray  # log-probabilities
    cum: np.ndarray   # their running sum, the inverse CDF's table


def categorical(scores: np.ndarray) -> Categorical:
    """The distribution softmax(scores) of one row of scores."""
    logp = log_softmax(np.asarray(scores, dtype=np.float64))
    return Categorical(logp, np.add.accumulate(np.exp(logp)))


def categorical_sample(scores, rng: np.random.Generator):
    """Sample from softmax(scores) by inverse CDF, one uniform per row.

    A single row of scores, or its ``categorical`` distribution, gives
    (index, log-probability) as Python scalars; a caller that draws from
    one row many times passes the distribution to skip the softmax. A 2-D
    batch gives (indices, log-probabilities) arrays from one
    ``rng.random(n)``, which draws the same uniforms, in the same order, as
    n single-row calls.
    """
    if type(scores) is not Categorical:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim == 1:
            scores = categorical(scores)
        else:
            logp = log_softmax(scores)
            last = logp.shape[-1] - 1
            cum = np.exp(logp).cumsum(axis=-1)
            u = rng.random(len(cum))
            u *= cum[:, -1]
            # cum is non-decreasing, so counting entries <= u is
            # searchsorted(side="right")
            idx = (cum <= u[:, None]).sum(axis=1)
            np.minimum(idx, last, out=idx)
            return idx, logp[np.arange(len(idx)), idx]
    logp, cum = scores
    u = rng.random() * cum[-1]
    idx = min(int(cum.searchsorted(u, side="right")), len(cum) - 1)
    return idx, float(logp[idx])


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, nets: dict[str, MlpParams],
                    opts: dict[str, OptimizerState], meta: dict) -> None:
    """Write every parameter vector plus optimizer state as a versioned npz
    archive; the manifest records each net's layer dims and its hidden
    nonlinearity, always ``"tanh"``."""
    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {"version": CHECKPOINT_VERSION, "meta": meta, "nets": {}, "opts": {}}
    for name, p in nets.items():
        manifest["nets"][name] = {"dims": list(p.dims), "activation": "tanh"}
        arrays[f"{name}_theta"] = p.theta
    for name, s in opts.items():
        manifest["opts"][name] = {
            "lr": s.lr, "beta1": s.beta1, "beta2": s.beta2,
            "eps": s.eps, "step": s.step,
        }
        arrays[f"{name}_m"] = s.m
        arrays[f"{name}_v"] = s.v
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _require_keys(spec: dict, keys: tuple[str, ...], owner: str) -> None:
    for key in keys:
        if key not in spec:
            raise CheckpointError(f"missing manifest key {key!r} for {owner}")


def load_checkpoint(path, expect: dict[str, tuple[int, int]] | None = None):
    """Read a checkpoint; returns (nets, opts, meta).

    ``expect`` maps net name to a required (in_dim, out_dim); a missing
    manifest key or tensor, a net whose activation is not tanh, any shape
    inconsistency, or a NaN or infinity in a parameter or optimizer tensor,
    raises CheckpointError instead of returning garbage.
    """
    with np.load(path) as data:
        if "manifest" not in data:
            raise CheckpointError("not a checkpoint: missing manifest")
        manifest = json.loads(bytes(data["manifest"].tobytes()).decode("utf-8"))
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {manifest.get('version')}"
            )
        _require_keys(manifest, ("meta", "nets", "opts"), "the checkpoint")
        for name, spec in manifest["nets"].items():
            _require_keys(spec, ("dims", "activation"), f"net {name!r}")
            if spec["activation"] != "tanh":
                raise CheckpointError(
                    f"net {name!r} has activation {spec['activation']!r}; "
                    "only 'tanh' is supported")
        for name, spec in manifest["opts"].items():
            _require_keys(spec, ("lr", "beta1", "beta2", "eps", "step"),
                          f"optimizer {name!r}")
        for key in ([f"{name}_theta" for name in manifest["nets"]]
                    + [f"{name}_{t}" for name in manifest["opts"] for t in "mv"]):
            if key not in data:
                raise CheckpointError(f"missing tensor {key!r}")
        try:
            nets = {
                name: MlpParams(spec["dims"], data[f"{name}_theta"])
                for name, spec in manifest["nets"].items()
            }
            opts = {
                name: OptimizerState(
                    lr=spec["lr"], m=data[f"{name}_m"], v=data[f"{name}_v"],
                    beta1=spec["beta1"], beta2=spec["beta2"],
                    eps=spec["eps"], step=spec["step"],
                )
                for name, spec in manifest["opts"].items()
            }
        except ShapeMismatchError as exc:
            raise CheckpointError(str(exc)) from exc
    for name, s in opts.items():
        want = nets[name].theta.shape if name in nets else None
        if s.m.shape != want or s.v.shape != want:
            raise CheckpointError(
                f"optimizer state {name!r} has shapes {s.m.shape}/{s.v.shape}, "
                f"expected {want} from its net"
            )
    tensors = {f"{name}_theta": p.theta for name, p in nets.items()}
    for name, s in opts.items():
        tensors[f"{name}_m"], tensors[f"{name}_v"] = s.m, s.v
    for key, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {key} holds non-finite values")
    if expect:
        for name, (in_dim, out_dim) in expect.items():
            if name not in nets:
                raise CheckpointError(f"checkpoint has no net {name!r}")
            got = (nets[name].in_dim, nets[name].out_dim)
            if got != (in_dim, out_dim):
                raise CheckpointError(
                    f"net {name!r} has shape {got}, expected {(in_dim, out_dim)}"
                )
    return nets, opts, manifest["meta"]
