"""Clipped-surrogate policy optimization over the attack environment.

Separate actor and critic networks (each with its own adaptive-moment
optimizer and learning rate), generalized advantage estimation, an entropy
bonus, and per-batch advantage normalization. Rollouts come from a set of
sequentially-stepped environment instances with independent seed streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

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
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.horizon % self.num_envs != 0:
            raise ValueError("horizon must be divisible by num_envs")
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
    obs_dim: int
    n_actions: int


def init_policy(rng: np.random.Generator, obs_dim: int, n_actions: int,
                cfg: PpoConfig) -> PolicyParams:
    actor = neural.init_mlp(rng, obs_dim, cfg.hidden, n_actions, out_gain=0.01)
    critic = neural.init_mlp(rng, obs_dim, cfg.hidden, 1, out_gain=1.0)
    return PolicyParams(
        actor=actor,
        critic=critic,
        actor_opt=neural.adam_init(actor, cfg.actor_lr),
        critic_opt=neural.adam_init(critic, cfg.critic_lr),
        obs_dim=obs_dim,
        n_actions=n_actions,
    )


def save_policy(path, params: PolicyParams, meta: dict | None = None) -> None:
    meta = dict(meta or {})
    meta.update({"obs_dim": params.obs_dim, "n_actions": params.n_actions})
    neural.save_checkpoint(
        path,
        nets={"actor": params.actor, "critic": params.critic},
        opts={"actor": params.actor_opt, "critic": params.critic_opt},
        meta=meta,
    )


def load_policy(path, expect_obs_dim: int | None = None,
                expect_actions: int | None = None) -> tuple[PolicyParams, dict]:
    expect = None
    if expect_obs_dim is not None and expect_actions is not None:
        expect = {"actor": (expect_obs_dim, expect_actions),
                  "critic": (expect_obs_dim, 1)}
    nets, opts, meta = neural.load_checkpoint(path, expect=expect)
    for key in ("actor", "critic"):
        if key not in nets or key not in opts:
            raise neural.CheckpointError(f"checkpoint missing {key!r}")
    params = PolicyParams(
        actor=nets["actor"], critic=nets["critic"],
        actor_opt=opts["actor"], critic_opt=opts["critic"],
        obs_dim=nets["actor"].in_dim, n_actions=nets["actor"].out_dim,
    )
    return params, meta


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
                    sample_rng: np.random.Generator) -> RolloutBatch:
    """Advance every environment ``steps_per_env`` times under the actor.

    Episodes that finish mid-horizon are logged and the environment restarts
    immediately, so the batch always holds exactly horizon transitions. Each
    step makes one batched forward per network and one batched action draw.
    """
    n = len(runners)
    obs_dim = runners[0].env.obs_len
    obs_buf = np.zeros((steps_per_env, n, obs_dim))
    act_buf = np.zeros((steps_per_env, n), dtype=np.int64)
    logp_buf = np.zeros((steps_per_env, n))
    rew_buf = np.zeros((steps_per_env, n))
    val_buf = np.zeros((steps_per_env + 1, n))
    done_buf = np.zeros((steps_per_env, n), dtype=bool)
    ep_returns: list[float] = []
    ep_lengths: list[int] = []

    for r in runners:
        if r.obs is None or r.env.done:
            r.reset()

    for t in range(steps_per_env):
        obs_mat = np.stack([r.obs for r in runners], out=obs_buf[t])
        logits = neural.forward(actor, obs_mat)
        val_buf[t] = neural.forward(critic, obs_mat)[:, 0]
        act_buf[t], logp_buf[t] = neural.categorical_sample(logits, sample_rng)
        for i, (runner, a_idx) in enumerate(zip(runners, act_buf[t].tolist())):
            next_obs, reward, done, _ = runner.env.step(a_idx)
            rew_buf[t, i] = reward
            done_buf[t, i] = done
            runner.ep_return += reward
            runner.ep_length += 1
            if done:
                ep_returns.append(runner.ep_return)
                ep_lengths.append(runner.ep_length)
                runner.reset()
            else:
                runner.obs = next_obs

    final_obs = np.stack([r.obs for r in runners])
    val_buf[steps_per_env] = neural.forward(critic, final_obs)[:, 0]
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
    like the networks' ``theta``.
    """
    logits = neural.forward(actor, obs)
    logp_all = neural.log_softmax(logits)
    probs = np.exp(logp_all)
    n, n_actions = logits.shape
    rows = np.arange(n)
    logp = logp_all[rows, actions]
    ratio = np.exp(logp - logp_old)
    surr1 = ratio * advantages
    surr2 = ratio.clip(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
    surr2 *= advantages
    policy_loss = -np.minimum(surr1, surr2).mean()
    row_entropy = -(probs * logp_all).sum(axis=1)
    ent = row_entropy.mean()

    # d(-objective)/dlogits: gradient flows only where the unclipped branch
    # is active (ties included, where both branches coincide).
    active = (surr1 <= surr2).astype(np.float64)
    coeff = -(active * ratio * advantages) / n
    one_hot = np.zeros((n, n_actions))
    one_hot[rows, actions] = 1.0
    dlogits = coeff[:, None] * (one_hot - probs)
    # entropy bonus: loss includes -beta * H
    dlogits += cfg.entropy_coef * probs * (logp_all + row_entropy[:, None]) / n

    err = neural.forward(critic, obs)[:, 0] - returns
    value_loss = (err ** 2).mean()
    dv = (2.0 * err / len(returns))[:, None]
    return (float(policy_loss), float(value_loss), float(ent),
            neural.backward(actor, obs, dlogits), neural.backward(critic, obs, dv))


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


def train(topology: NetworkTopology, scenario: ScenarioConfig, cfg: PpoConfig,
          out_dir=None, log=None) -> TrainResult:
    """Run the full collect/estimate/update loop.

    With ``out_dir`` set, periodic checkpoints and a final checkpoint land
    there; on divergence the last good checkpoint is preserved and
    TrainingDiverged carries its path.
    """
    master = np.random.SeedSequence(cfg.seed)
    init_seq, sample_seq, shuffle_seq, env_seq = master.spawn(4)
    init_rng = np.random.default_rng(init_seq)
    sample_rng = np.random.default_rng(sample_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)

    runners = []
    for env_child in env_seq.spawn(cfg.num_envs):
        runners.append(_EnvRunner(C2Env(topology, scenario), env_child))
    probe = runners[0].env
    params = init_policy(init_rng, probe.obs_len, probe.n_actions, cfg)

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
        batch = collect_rollout(runners, params.actor, params.critic,
                                steps_per_env, sample_rng)
        prepare_batch(batch, cfg)
        try:
            stats = ppo_update(params, batch, cfg, shuffle_rng)
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
