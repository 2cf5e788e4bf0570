"""Small feed-forward networks with hand-written gradients.

Enough machinery for the 128/64 actor-critic pair: tanh MLPs, analytic
backprop, adaptive-moment updates and stabilized categorical sampling. No
autodiff graph, everything is numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class ShapeMismatchError(ValueError):
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


def forward(p: MlpParams, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Deterministic forward pass; accepts a single vector or a batch.

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


def forward_cached(p: MlpParams, x: np.ndarray):
    """Forward pass returning (output, activations) for use by backward:
    the input, then each layer's output."""
    acts: list[np.ndarray] = []
    return forward(p, x, acts), acts


def backward(p: MlpParams, x: np.ndarray, upstream) -> np.ndarray:
    """Analytic dLoss/dtheta, laid out like ``p.theta``; makes the only
    forward pass it needs.

    ``upstream`` is dLoss/dOutput, which must match the forward output
    shape for ``x``, or a loss head: a callable that takes the forward
    output and returns dLoss/dOutput, so a caller that needs the output
    for its loss need not run the forward pass again. A 1-D ``x`` is one
    row, and its head receives a ``(1, out_dim)`` output. Each layer's
    gradient is written straight into its view of the result.
    """
    x = np.asarray(x, dtype=np.float64)
    out, acts = forward_cached(p, x.reshape(1, -1) if x.ndim == 1 else x)
    g = np.asarray(upstream(out) if callable(upstream) else upstream,
                   dtype=np.float64)
    if g.ndim == 1 and out.shape[0] == 1:
        g = g.reshape(1, -1)
    if g.shape != out.shape:
        raise ShapeMismatchError(
            f"upstream shape {g.shape} does not match output {out.shape}"
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
    """One row's distribution for ``categorical_sample``, as Python lists:
    a draw from it then bisects floats, with no NumPy scalar per step."""

    logp: list[float]  # log-probabilities
    cum: list[float]   # their running sum, the inverse CDF's table


def categorical(scores: np.ndarray) -> Categorical:
    """The distribution softmax(scores) of one row of scores.

    The log-softmax and the running sum are computed in NumPy, then handed
    over as lists (``tolist`` keeps every bit), for a caller that draws
    from one row many times.
    """
    logp = log_softmax(np.asarray(scores, dtype=np.float64))
    return Categorical(logp.tolist(), np.add.accumulate(np.exp(logp)).tolist())


def categorical_sample(scores, rng: np.random.Generator):
    """Sample from softmax(scores) by inverse CDF, one uniform per row.

    A single row of scores, or its ``categorical`` distribution, gives
    (index, log-probability) as Python scalars; a caller that draws from
    one row many times passes the distribution to skip the softmax. The
    draw is ``u = rng.random() * cum[-1]`` and ``bisect_right(cum, u)``,
    clamped to the last index, in Python floats: the product and the
    ``<=`` comparisons are those of float64, so the index is that of
    ``searchsorted(side="right")``. A 2-D batch gives (indices,
    log-probabilities) arrays from one ``rng.random(n)``, which draws the
    same uniforms, in the same order, as n single-row calls.
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
    idx = bisect_right(cum, rng.random() * cum[-1])
    if idx == len(cum):  # no entry above u: u == cum[-1], or a NaN row
        idx -= 1
    return idx, logp[idx]
