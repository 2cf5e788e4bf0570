"""Clipped-surrogate policy optimization over the attack environment.

Separate actor and critic networks (each with its own adaptive-moment
optimizer and learning rate), generalized advantage estimation, an entropy
bonus, and per-batch advantage normalization. Rollouts come from a set of
sequentially-stepped environment instances with independent seed streams.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from . import neural
from .c2_env import C2Env, ScenarioConfig
from .net_model import NetworkTopology, build_config, load_yaml
from .neural import MlpParams, OptimizerState


class TrainingDiverged(Exception):
    def __init__(self, message: str, checkpoint_path: str | None = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class PpoConfig:
    critic_lr: float = 3e-4
    actor_lr: float = 3e-5
    gamma: float = 0.99
    horizon: int = 4096
    minibatch: int = 64
    epochs: int = 5
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    entropy_coef: float = 0.001
    total_steps: int = 5_000_000
    seed: int = 0
    num_envs: int = 8
    hidden: tuple[int, ...] = (128, 64)
    reward_scale: float = 1e-3
    checkpoint_interval: int = 0  # env steps between checkpoints; 0 = final only
    stop_reward: float | None = None
    stop_window: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ValueError("clip_epsilon must be in (0, 1)")
        for name in ("critic_lr", "actor_lr", "horizon", "minibatch", "epochs",
                     "num_envs", "reward_scale", "stop_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("gamma", "gae_lambda"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        for name in ("entropy_coef", "total_steps", "seed", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.horizon % self.num_envs != 0:
            raise ValueError("horizon must be divisible by num_envs")
        if 0 < self.total_steps < self.horizon:
            # training runs total_steps // horizon batches: this budget trains nothing
            raise ValueError(
                f"total_steps ({self.total_steps}) must be 0 or at least one "
                f"horizon ({self.horizon})")
        if not all(w > 0 for w in self.hidden):
            raise ValueError(
                f"hidden must be a list of positive layer widths, got {self.hidden!r}")

    @classmethod
    def from_yaml(cls, text: str) -> "PpoConfig":
        doc = load_yaml(text, ValueError)
        return build_config(cls, {} if doc is None else doc, ValueError, "PPO config")


@dataclass
class PolicyParams:
    """Actor/critic weights plus both optimizer states."""

    actor: MlpParams
    critic: MlpParams
    actor_opt: OptimizerState
    critic_opt: OptimizerState

    def tensors(self) -> list[tuple[str, MlpParams, np.ndarray]]:
        """The six tensors of a checkpoint, weights first, as (member name,
        the net whose ``theta`` it is laid out like, tensor)."""
        a, c = self.actor, self.critic
        return [("actor_theta", a, a.theta), ("critic_theta", c, c.theta),
                ("actor_m", a, self.actor_opt.m), ("actor_v", a, self.actor_opt.v),
                ("critic_m", c, self.critic_opt.m), ("critic_v", c, self.critic_opt.v)]


def init_policy(rng: np.random.Generator, obs_dim: int, n_actions: int,
                cfg: PpoConfig) -> PolicyParams:
    actor = neural.init_mlp(rng, obs_dim, cfg.hidden, n_actions, out_gain=0.01)
    critic = neural.init_mlp(rng, obs_dim, cfg.hidden, 1, out_gain=1.0)
    return PolicyParams(actor, critic, neural.adam_init(actor, cfg.actor_lr),
                        neural.adam_init(critic, cfg.critic_lr))


# ---------------------------------------------------------------------------
# Checkpoints
#
# A checkpoint is an npz archive of the six ``PolicyParams.tensors`` and a
# ``manifest`` member, sorted-key UTF-8 JSON of a ``_Manifest``.

CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A file that ``load_policy`` cannot read as a policy."""


@dataclass(frozen=True)
class _NetEntry:
    dims: tuple[int, ...]  # layer widths, input first
    activation: Literal["tanh"]


@dataclass(frozen=True)
class _OptEntry:
    lr: float
    beta1: float
    beta2: float
    eps: float
    step: int


@dataclass(frozen=True)
class _Nets:
    actor: _NetEntry
    critic: _NetEntry


@dataclass(frozen=True)
class _Opts:
    actor: _OptEntry
    critic: _OptEntry


@dataclass(frozen=True)
class _Manifest:
    """A checkpoint's manifest; ``meta`` adds obs_dim and n_actions."""

    version: int
    meta: dict[str, int]
    nets: _Nets
    opts: _Opts


def _blank_policy(nets, opts, obs_dim: int) -> PolicyParams:
    """A policy whose (actor, critic) nets have the layer widths of ``nets``
    but a first layer ``obs_dim`` wide, and whose optimizers have the
    settings and step of ``opts``: ``MlpParams`` and ``OptimizerState``
    pairs, or the manifest's entries. ``tensors`` fills in its tensors."""
    actor, critic = (MlpParams(dims, neural.aligned(neural.param_count(dims)))
                     for dims in ((obs_dim, *net.dims[1:]) for net in nets))
    return PolicyParams(actor, critic, *(
        OptimizerState(s.lr, neural.aligned(p.theta.size),
                       neural.aligned(p.theta.size), s.beta1, s.beta2, s.eps, s.step)
        for p, s in zip((actor, critic), opts)))


def save_policy(path, params: PolicyParams, meta: dict[str, int] | None = None) -> None:
    manifest = _Manifest(
        CHECKPOINT_VERSION,
        {**(meta or {}), "obs_dim": params.actor.in_dim,
         "n_actions": params.actor.out_dim},
        _Nets(*(_NetEntry(p.dims, "tanh") for p in (params.actor, params.critic))),
        _Opts(*(_OptEntry(s.lr, s.beta1, s.beta2, s.eps, s.step)
                for s in (params.actor_opt, params.critic_opt))))
    arrays = {key: tensor for key, _, tensor in params.tensors()}
    arrays["manifest"] = np.frombuffer(json.dumps(
        dataclasses.asdict(manifest), sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_policy(path, expect_obs_dim: int,
                expect_actions: int) -> tuple[PolicyParams, dict[str, int]]:
    """Read a checkpoint; returns (params, meta). A file that is not an
    intact npz archive, a manifest that is not JSON, of another version or
    that does not fit ``_Manifest`` (named by key path), nets that do not
    fit the expected widths, or a tensor that is missing, does not fit its
    net or holds a NaN or infinity, raises CheckpointError."""
    try:
        with np.lib.npyio.NpzFile(path) as data:
            # a member that is not an .npy array reads as its raw bytes
            members = {key: np.asarray(data[key]) for key in data.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"not a checkpoint: {path}: {exc}") from None
    if "manifest" not in members:
        raise CheckpointError("not a checkpoint: missing manifest")
    try:
        doc = json.loads(members.pop("manifest").tobytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise CheckpointError(f"manifest is not JSON: {exc}") from None
    version = doc.get("version") if type(doc) is dict else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    manifest = build_config(_Manifest, doc, CheckpointError, "checkpoint manifest")
    nets = (manifest.nets.actor, manifest.nets.critic)
    shapes = [net.dims[:1] + net.dims[-1:] for net in nets]
    want = [(expect_obs_dim, expect_actions), (expect_obs_dim, 1)]
    if shapes != want:
        raise CheckpointError(f"actor and critic have shapes {shapes}, expected {want}")
    try:
        params = _blank_policy(nets, (manifest.opts.actor, manifest.opts.critic),
                               expect_obs_dim)
    except (ValueError, MemoryError) as exc:
        raise CheckpointError(f"checkpoint manifest: {exc}") from None
    for key, _, tensor in params.tensors():
        if key not in members:
            raise CheckpointError(f"missing tensor {key!r}")
        got = members.pop(key)
        if (got.dtype, got.shape) != (tensor.dtype, tensor.shape):
            raise CheckpointError(f"tensor {key} is {got.dtype} {got.shape}, expected "
                                  f"{tensor.dtype} {tensor.shape} from its net's dims")
        tensor[...] = got
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"tensor {key} holds non-finite values")
    return params, manifest.meta


# ---------------------------------------------------------------------------
# Training on the live observation slots
#
# ``train`` runs on ``C2Env.live_slots``, the slots that can be non-zero. A
# dead slot is 0.0 in every sample, so the first-layer weight rows it feeds
# get a +-0 gradient: Adam never moves them, and their moments stay +0.0.
# Cutting those rows out of each net and its moments leaves every other bit
# of training as it is at full width, as long as every matmul has two or
# more rows (numpy takes a one-row product through a matrix-vector kernel,
# which rounds a shorter sum differently). That holds at tiny width only.
# At enterprise101 width the first-layer sums are longer than the BLAS's
# K-block, and dropping the dead terms changes the outputs' last bits at
# 1, 2, 8 and 64 rows alike, so compact training there follows a
# trajectory of its own.


def _live_rows(dims: tuple[int, ...], flat: np.ndarray,
               live: np.ndarray) -> np.ndarray:
    """``flat``, laid out like the parameters of a net with layer widths
    ``dims``, with its first-layer weight cut to the rows ``live``."""
    w0 = neural.layer_views(flat, dims)[0][0]
    return np.concatenate((w0[live].ravel(), flat[w0.size:]))


def _compact_policy(params: PolicyParams, live: np.ndarray) -> PolicyParams:
    """Copies of both nets and their optimizer states that take only the
    observation slots ``live``."""
    compact = _blank_policy((params.actor, params.critic),
                            (params.actor_opt, params.critic_opt), len(live))
    for (_, _, tensor), (_, net, full) in zip(compact.tensors(), params.tensors()):
        tensor[...] = _live_rows(net.dims, full, live)
    return compact


def _expand_policy(compact: PolicyParams, full: PolicyParams,
                   live: np.ndarray) -> None:
    """Write a ``_compact_policy`` copy, trained since, back into ``full``;
    the dead first-layer rows keep ``full``'s values."""
    for (_, net, tensor), (_, full_net, into) in zip(compact.tensors(), full.tensors()):
        w0 = neural.layer_views(into, full_net.dims)[0][0]
        c0 = neural.layer_views(tensor, net.dims)[0][0]
        w0[live] = c0
        into[w0.size:] = tensor[c0.size:]
    full.actor_opt.step = compact.actor_opt.step
    full.critic_opt.step = compact.critic_opt.step


# ---------------------------------------------------------------------------
# Advantage estimation


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float, lam: float) -> np.ndarray:
    """Exponentially weighted TD-residual sums, truncated at episode ends.

    ``values`` must hold one extra row: the bootstrap estimate for the state
    after the last transition. A done flag zeroes the bootstrap across the
    corresponding episode boundary.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if values.shape[0] != rewards.shape[0] + 1:
        raise ValueError(
            f"values must have len(rewards)+1 rows: {values.shape[0]} vs "
            f"{rewards.shape[0]}+1"
        )
    if dones.shape != rewards.shape:
        raise ValueError("dones shape must match rewards")
    advantages = np.zeros_like(rewards)
    carry = np.zeros(rewards.shape[1:])
    for t in range(rewards.shape[0] - 1, -1, -1):
        live = 1.0 - dones[t].astype(np.float64)
        delta = rewards[t] + gamma * values[t + 1] * live - values[t]
        carry = delta + gamma * lam * live * carry
        advantages[t] = carry
    return advantages


# ---------------------------------------------------------------------------
# Rollout collection


@dataclass
class RolloutBatch:
    obs: np.ndarray        # (T, N, obs_dim)
    actions: np.ndarray    # (T, N) int
    log_probs: np.ndarray  # (T, N)
    rewards: np.ndarray    # (T, N) raw environment rewards
    values: np.ndarray     # (T+1, N) critic estimates (scaled reward domain)
    dones: np.ndarray      # (T, N) bool
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None
    episode_returns: list[float] = field(default_factory=list)
    episode_lengths: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.obs.shape[0] * self.obs.shape[1]


class _EnvRunner:
    """One environment plus its reset-seed stream and episode accumulators."""

    def __init__(self, env: C2Env, seed_seq: np.random.SeedSequence):
        self.env = env
        self._seeds = seed_seq
        self.obs = None
        self.ep_return = 0.0
        self.ep_length = 0

    def reset(self):
        seed = int(self._seeds.spawn(1)[0].generate_state(1)[0])
        self.obs = self.env.reset(seed=seed)
        self.ep_return = 0.0
        self.ep_length = 0
        return self.obs


def collect_rollout(runners: list[_EnvRunner], actor: MlpParams,
                    critic: MlpParams, steps_per_env: int,
                    sample_rng: np.random.Generator,
                    slots: np.ndarray) -> RolloutBatch:
    """Advance every environment ``steps_per_env`` times under the actor.

    Episodes that finish mid-horizon are logged and the environment restarts
    immediately, so the batch always holds exactly horizon transitions. Each
    step makes one batched forward per network and one batched action draw.
    The nets read and the batch stores only the columns ``slots`` of each
    observation, sorted indices such as ``C2Env.live_slots`` (all of them
    for ``np.arange(obs_len)``), gathered straight into the step's row.
    """
    n = len(runners)
    obs_buf = np.zeros((steps_per_env, n, actor.in_dim))
    act_buf = np.zeros((steps_per_env, n), dtype=np.int64)
    logp_buf = np.zeros((steps_per_env, n))
    rew_buf = np.zeros((steps_per_env, n))
    val_buf = np.zeros((steps_per_env + 1, n))
    done_buf = np.zeros((steps_per_env, n), dtype=bool)
    ep_returns: list[float] = []
    ep_lengths: list[int] = []

    def observe(out):
        # the slots are in range, so "clip" moves none; it spares the
        # buffered copy that "raise" makes of a take into ``out``
        for i, r in enumerate(runners):
            r.obs.take(slots, out=out[i], mode="clip")
        return out

    for r in runners:
        if r.obs is None or r.env.done:
            r.reset()

    for t in range(steps_per_env):
        obs_mat = observe(obs_buf[t])
        logits = neural.forward(actor, obs_mat)
        val_buf[t] = neural.forward(critic, obs_mat)[:, 0]
        act_buf[t], logp_buf[t] = neural.categorical_sample(logits, sample_rng)
        rewards, dones = [], []
        for runner, a_idx in zip(runners, act_buf[t].tolist()):
            next_obs, reward, done, _ = runner.env.step(a_idx)
            rewards.append(reward)
            dones.append(done)
            runner.ep_return += reward
            runner.ep_length += 1
            if done:
                ep_returns.append(runner.ep_return)
                ep_lengths.append(runner.ep_length)
                runner.reset()
            else:
                runner.obs = next_obs
        rew_buf[t] = rewards
        done_buf[t] = dones

    val_buf[steps_per_env] = neural.forward(
        critic, observe(np.empty((n, actor.in_dim))))[:, 0]
    return RolloutBatch(
        obs=obs_buf, actions=act_buf, log_probs=logp_buf, rewards=rew_buf,
        values=val_buf, dones=done_buf,
        episode_returns=ep_returns, episode_lengths=ep_lengths,
    )


def prepare_batch(batch: RolloutBatch, cfg: PpoConfig) -> None:
    """Fill in advantages and value targets (in the scaled reward domain)."""
    scaled = batch.rewards * cfg.reward_scale
    adv = compute_gae(scaled, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda)
    batch.returns = adv + batch.values[:-1]
    batch.advantages = (adv - adv.mean()) / (adv.std() + 1e-8)


# ---------------------------------------------------------------------------
# Loss and update


def ppo_loss(actor: MlpParams, critic: MlpParams, obs: np.ndarray,
             actions: np.ndarray, logp_old: np.ndarray, advantages: np.ndarray,
             returns: np.ndarray, cfg: PpoConfig):
    """Loss pieces and parameter gradients on one set of prepared samples.

    Returns (policy loss, value loss, entropy, actor gradient, critic
    gradient). The actor gradient is that of policy loss - entropy_coef *
    entropy, the critic gradient that of the value loss; both are laid out
    like the networks' ``theta``. Each net makes one forward pass, inside
    ``neural.backward``, whose output the loss heads below read.
    """
    pieces = []

    def policy_head(logits):
        logp_all = neural.log_softmax(logits)
        probs = np.exp(logp_all)
        n, n_actions = logits.shape
        rows = np.arange(n)
        logp = logp_all[rows, actions]
        ratio = np.exp(logp - logp_old)
        surr1 = ratio * advantages
        surr2 = np.maximum(ratio, 1.0 - cfg.clip_epsilon)
        np.minimum(surr2, 1.0 + cfg.clip_epsilon, out=surr2)
        surr2 *= advantages
        pieces.append(-(np.add.reduce(np.minimum(surr1, surr2)) / n))
        row_entropy = -np.add.reduce(probs * logp_all, axis=1)
        pieces.append(np.add.reduce(row_entropy) / n)

        # d(-objective)/dlogits: gradient flows only where the unclipped
        # branch is active (ties included, where both branches coincide).
        active = (surr1 <= surr2).astype(np.float64)
        coeff = -(active * ratio * advantages) / n
        one_hot = np.zeros((n, n_actions))
        one_hot[rows, actions] = 1.0
        dlogits = coeff[:, None] * (one_hot - probs)
        # entropy bonus: loss includes -beta * H
        dlogits += cfg.entropy_coef * probs * (logp_all + row_entropy[:, None]) / n
        return dlogits

    def value_head(values):
        err = values[:, 0] - returns
        pieces.append(np.add.reduce(np.square(err)) / len(returns))
        return (2.0 * err / len(returns))[:, None]

    a_grads = neural.backward(actor, obs, policy_head)
    c_grads = neural.backward(critic, obs, value_head)
    policy_loss, ent, value_loss = pieces
    return float(policy_loss), float(value_loss), float(ent), a_grads, c_grads


def ppo_update(params: PolicyParams, batch: RolloutBatch, cfg: PpoConfig,
               shuffle_rng: np.random.Generator) -> dict:
    """K epochs of minibatch updates over one prepared rollout batch."""
    if batch.advantages is None or batch.returns is None:
        raise ValueError("batch not prepared: advantages/returns missing")
    n = batch.size
    obs = batch.obs.reshape(n, -1)
    actions = batch.actions.reshape(n)
    logp_old = batch.log_probs.reshape(n)
    advantages = batch.advantages.reshape(n)
    returns = batch.returns.reshape(n)

    policy_losses, value_losses, entropies = [], [], []
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            p_loss, v_loss, ent, a_grads, c_grads = ppo_loss(
                params.actor, params.critic, obs[idx], actions[idx],
                logp_old[idx], advantages[idx], returns[idx], cfg)
            if not (math.isfinite(p_loss) and math.isfinite(v_loss)
                    and math.isfinite(ent)):
                raise TrainingDiverged(
                    f"non-finite loss: policy={p_loss} value={v_loss} entropy={ent}"
                )
            neural.adam_step(params.actor_opt, params.actor, a_grads)
            neural.adam_step(params.critic_opt, params.critic, c_grads)
            policy_losses.append(p_loss)
            value_losses.append(v_loss)
            entropies.append(ent)
    return {
        "policy_loss": float(np.mean(policy_losses)),
        "value_loss": float(np.mean(value_losses)),
        "entropy": float(np.mean(entropies)),
    }


# ---------------------------------------------------------------------------
# Training loop


METRIC_COLUMNS = ("step", "episodes", "mean_reward", "mean_length",
                  "policy_loss", "value_loss", "entropy")


@dataclass
class TrainResult:
    params: PolicyParams
    metrics: list[dict]
    total_env_steps: int
    episodes: int
    stopped_early: bool
    gradient_updates: int


def format_metrics_csv(rows: list[dict]) -> str:
    lines = [",".join(METRIC_COLUMNS)]
    for row in rows:
        cells = []
        for col in METRIC_COLUMNS:
            v = row[col]
            if isinstance(v, float):
                cells.append(f"{v:.6g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def memory_needed(cfg: PpoConfig, env: C2Env) -> int:
    """Bytes that training ``env`` under ``cfg`` needs for both nets'
    parameter, moment and Adam scratch vectors, at full and at live width,
    for its rollout buffers and for its envs' observation buffers."""
    widths = (env.obs_len, len(env.live_slots))
    floats = 5 * sum(neural.param_count((w, *cfg.hidden, out))
                     for w in widths for out in (env.n_actions, 1))
    # per transition: the live observation, then the action, log-prob,
    # reward, value, done flag, advantage and return
    floats += cfg.horizon * (widths[1] + 7) + cfg.num_envs * env.obs_len
    return 8 * floats


def physical_memory() -> int:
    """Bytes of this machine's physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def train(topology: NetworkTopology, scenario: ScenarioConfig, cfg: PpoConfig,
          out_dir=None, log=None) -> TrainResult:
    """Run the full collect/estimate/update loop.

    The nets are initialized at full observation width, trained on the
    env's ``live_slots`` only, and written back to full width for every
    checkpoint and for the result; the dead first-layer rows keep their
    initial values and zero moments, as full-width training leaves them.
    With ``out_dir`` set, periodic checkpoints and a final checkpoint land
    there; on divergence the last good checkpoint is preserved and
    TrainingDiverged carries its path. A config that needs more than the
    machine's physical memory (``memory_needed``) raises ValueError before
    any net, buffer or further env is allocated.
    """
    probe = C2Env(topology, scenario)
    need, have = memory_needed(cfg, probe), physical_memory()
    if need > have:
        raise ValueError(
            f"PPO config hidden {list(cfg.hidden)}, horizon {cfg.horizon} and "
            f"num_envs {cfg.num_envs} need {need / 2**30:.1f} GiB for nets and "
            f"buffers, more than this machine's {have / 2**30:.1f} GiB of memory")
    master = np.random.SeedSequence(cfg.seed)
    init_seq, sample_seq, shuffle_seq, env_seq = master.spawn(4)
    init_rng = np.random.default_rng(init_seq)
    sample_rng = np.random.default_rng(sample_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)

    envs = [probe] + [C2Env(topology, scenario) for _ in range(cfg.num_envs - 1)]
    runners = [_EnvRunner(env, child)
               for env, child in zip(envs, env_seq.spawn(cfg.num_envs))]
    params = init_policy(init_rng, probe.obs_len, probe.n_actions, cfg)
    live = probe.live_slots
    work = _compact_policy(params, live)

    steps_per_env = cfg.horizon // cfg.num_envs
    iterations = cfg.total_steps // cfg.horizon
    metrics: list[dict] = []
    recent_returns: list[float] = []
    total_steps = 0
    episodes = 0
    updates = 0
    stopped = False
    last_checkpoint = 0
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    def checkpoint(name: str) -> str | None:
        """Write ``work`` back into ``params`` at full width, then save it
        as ``name`` under ``out_dir``, if set; returns the path."""
        _expand_policy(work, params, live)
        if out_path is None:
            return None
        path = out_path / name
        save_policy(path, params, meta={
            "env_steps": total_steps, "episodes": episodes,
            "gradient_updates": updates, "seed": cfg.seed,
        })
        return str(path)

    last_good: str | None = None
    for it in range(iterations):
        batch = collect_rollout(runners, work.actor, work.critic,
                                steps_per_env, sample_rng, live)
        prepare_batch(batch, cfg)
        try:
            stats = ppo_update(work, batch, cfg, shuffle_rng)
        except TrainingDiverged as exc:
            raise TrainingDiverged(str(exc), checkpoint_path=last_good) from exc
        total_steps += cfg.horizon
        episodes += len(batch.episode_returns)
        updates += cfg.epochs * math.ceil(batch.size / cfg.minibatch)
        recent_returns.extend(batch.episode_returns)
        del recent_returns[:-cfg.stop_window]

        row = {
            "step": total_steps,
            "episodes": episodes,
            "mean_reward": (float(np.mean(batch.episode_returns))
                            if batch.episode_returns else float("nan")),
            "mean_length": (float(np.mean(batch.episode_lengths))
                            if batch.episode_lengths else float("nan")),
            **stats,
        }
        # freed before the next collect_rollout fills a new batch, so one
        # rollout batch is alive at a time, as memory_needed counts
        del batch
        metrics.append(row)
        if log is not None:
            log(row)

        if (out_path is not None and cfg.checkpoint_interval > 0
                and total_steps - last_checkpoint >= cfg.checkpoint_interval):
            last_checkpoint = total_steps
            last_good = checkpoint(f"checkpoint_{total_steps}.npz")

        if (cfg.stop_reward is not None
                and len(recent_returns) >= cfg.stop_window
                and float(np.mean(recent_returns)) >= cfg.stop_reward):
            stopped = True
            break

    checkpoint("checkpoint_final.npz")
    if out_path is not None:
        (out_path / "metrics.csv").write_text(format_metrics_csv(metrics))
    return TrainResult(
        params=params, metrics=metrics, total_env_steps=total_steps,
        episodes=episodes, stopped_early=stopped, gradient_updates=updates,
    )
