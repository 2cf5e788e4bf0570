from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2sim import neural, ppo
from c2sim.ppo import (
    PpoConfig,
    RolloutBatch,
    _EnvRunner,
    collect_rollout,
    compute_gae,
    format_metrics_csv,
    init_policy,
    ppo_loss,
    ppo_update,
    prepare_batch,
    train,
)

import oracles


def small_cfg(**kw):
    base = dict(horizon=64, num_envs=2, minibatch=16, epochs=2,
                total_steps=128, seed=0)
    base.update(kw)
    return PpoConfig(**base)


class TestConfig:
    def test_table_defaults(self):
        cfg = PpoConfig()
        assert cfg.critic_lr == 3e-4
        assert cfg.actor_lr == 3e-5
        assert cfg.gamma == 0.99
        assert cfg.horizon == 4096
        assert cfg.minibatch == 64
        assert cfg.epochs == 5
        assert cfg.gae_lambda == 0.95
        assert cfg.clip_epsilon == 0.2
        assert cfg.entropy_coef == 0.001
        assert cfg.total_steps == 5_000_000

    def test_bounds(self):
        with pytest.raises(ValueError):
            PpoConfig(clip_epsilon=1.5)
        with pytest.raises(ValueError):
            PpoConfig(gamma=0.0)
        with pytest.raises(ValueError):
            PpoConfig(horizon=10, num_envs=3)
        for window in (0, -3):
            with pytest.raises(ValueError, match="stop_window"):
                PpoConfig(stop_window=window)

    def test_readme_trainer_table_lists_every_field_and_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Trainer config\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.M)
        fields = dataclasses.fields(PpoConfig)
        assert [key for key, _ in rows] == [f.name for f in fields]
        table = PpoConfig.from_yaml("".join(f"{k}: {v}\n" for k, v in rows))
        for f in fields:
            assert getattr(table, f.name) == f.default, f.name

    def test_from_yaml(self):
        cfg = PpoConfig.from_yaml("horizon: 1024\nnum_envs: 8\nseed: 3\n")
        assert cfg.horizon == 1024 and cfg.seed == 3

    def test_from_yaml_unknown_key_named(self):
        with pytest.raises(ValueError, match="horizn"):
            PpoConfig.from_yaml("horizn: 1024\n")

    def test_from_yaml_empty_document_gives_defaults(self):
        assert PpoConfig.from_yaml("") == PpoConfig()

    def test_from_yaml_reads_yaml_1_2_floats(self):
        # YAML 1.1 reads an exponent without a dot as a string
        cfg = PpoConfig.from_yaml("actor_lr: 3e-5\n")
        assert cfg == PpoConfig() and cfg.actor_lr == 3e-5
        cfg = PpoConfig.from_yaml("critic_lr: 3E-4\nentropy_coef: 1e-3\n"
                                  "reward_scale: 1.0e-3\nhorizon: 4096\n")
        assert cfg == PpoConfig() and type(cfg.horizon) is int


class TestGae:
    def test_single_step(self):
        adv = compute_gae(np.array([1.0]), np.array([0.0, 0.0]),
                          np.array([True]), gamma=0.99, lam=0.95)
        assert adv[0] == pytest.approx(1.0)

    def test_two_step_hand_recursion(self):
        adv = compute_gae(np.array([1.0, 1.0]), np.zeros(3),
                          np.array([False, True]), gamma=1.0, lam=1.0)
        assert adv.tolist() == [2.0, 1.0]

    def test_terminal_masks_bootstrap(self):
        adv = compute_gae(np.array([2.0]), np.array([0.5, 100.0]),
                          np.array([True]), gamma=0.99, lam=0.95)
        assert adv[0] == pytest.approx(2.0 - 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"len\(rewards\)\+1"):
            compute_gae(np.zeros(3), np.zeros(3), np.zeros(3, bool), 0.99, 0.95)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lambda_one_equals_mc_minus_value(self, data):
        n = data.draw(st.integers(1, 64))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n + 1)
        dones = rng.random(n) < 0.15
        dones[-1] = True  # no truncation: the sequence closes its episode
        gamma = data.draw(st.sampled_from([1.0, 0.99, 0.9]))
        adv = compute_gae(rewards, values, dones, gamma, lam=1.0)
        mc = oracles.mc_returns(rewards, dones, gamma)
        assert np.max(np.abs(adv - (mc - values[:-1]))) < 1e-6

    def test_2d_matches_per_column(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal((12, 3))
        values = rng.standard_normal((13, 3))
        dones = rng.random((12, 3)) < 0.2
        adv = compute_gae(rewards, values, dones, 0.99, 0.95)
        for j in range(3):
            col = compute_gae(rewards[:, j], values[:, j], dones[:, j],
                              0.99, 0.95)
            assert adv[:, j] == pytest.approx(col, abs=1e-12)


class TestPpoLoss:
    def _setup(self, n=32, n_actions=6, seed=0):
        rng = np.random.default_rng(seed)
        actor = neural.init_mlp(rng, 5, (8,), n_actions, out_gain=0.3)
        critic = neural.init_mlp(rng, 5, (8,), 1)
        obs = rng.standard_normal((n, 5))
        actions = rng.integers(0, n_actions, n)
        returns = rng.standard_normal(n)
        return actor, critic, obs, actions, returns

    def test_ratio_one_gives_mean_advantage(self):
        actor, critic, obs, actions, returns = self._setup()
        cfg = small_cfg()
        logp_old = neural.log_softmax(neural.forward(actor, obs))[
            np.arange(len(actions)), actions]
        advantages = np.random.default_rng(1).standard_normal(len(actions))
        p_loss, _, _, _, _ = ppo_loss(actor, critic, obs, actions, logp_old,
                                      advantages, returns, cfg)
        assert p_loss == pytest.approx(-advantages.mean(), abs=1e-9)

    def test_scalar_clip_hand_trace(self):
        # ratio 2, advantage 1, epsilon 0.2 -> min(2, 1.2) = 1.2
        ratio = 2.0
        adv = 1.0
        eps = 0.2
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1 - eps, 1 + eps) * adv
        assert min(unclipped, clipped) == pytest.approx(1.2)
        # negative advantage: ratio 0.5, adv -1 -> min(-0.5, -0.8) = -0.8
        assert min(0.5 * -1.0, np.clip(0.5, 0.8, 1.2) * -1.0) == pytest.approx(-0.8)

    def test_zero_advantages_zero_policy_loss(self):
        actor, critic, obs, actions, returns = self._setup()
        cfg = small_cfg()
        logp_old = neural.log_softmax(neural.forward(actor, obs))[
            np.arange(len(actions)), actions]
        p_loss, v_loss, ent, _, _ = ppo_loss(actor, critic, obs, actions,
                                             logp_old, np.zeros(len(actions)),
                                             returns, cfg)
        assert p_loss == pytest.approx(0.0, abs=1e-12)
        assert v_loss > 0 and ent > 0

    def test_clip_bound_holds_per_sample(self):
        rng = np.random.default_rng(9)
        cfg = small_cfg()
        for _ in range(200):
            ratio = float(np.exp(rng.standard_normal() * 1.5))
            adv = float(rng.standard_normal() * 3)
            objective = min(ratio * adv,
                            float(np.clip(ratio, 0.8, 1.2)) * adv)
            assert objective <= max(ratio * adv,
                                    float(np.clip(ratio, 0.8, 1.2)) * adv) + 1e-12
            if 0.8 <= ratio <= 1.2:
                assert objective == pytest.approx(ratio * adv, abs=1e-12)

    def test_full_actor_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        n, n_actions = 16, 5
        cfg = small_cfg()
        actor = neural.init_mlp(rng, 4, (6,), n_actions, out_gain=0.5)
        old_actor = neural.init_mlp(rng, 4, (6,), n_actions, out_gain=0.5)
        critic = neural.init_mlp(rng, 4, (6,), 1)
        obs = rng.standard_normal((n, 4))
        actions = rng.integers(0, n_actions, n)
        adv = rng.standard_normal(n)
        logp_old = neural.log_softmax(neural.forward(old_actor, obs))[
            np.arange(n), actions]

        def loss_of(p):
            logits = neural.forward(p, obs)
            logp_all = neural.log_softmax(logits)
            logp = logp_all[np.arange(n), actions]
            ratio = np.exp(logp - logp_old)
            clipped = np.clip(ratio, 1 - cfg.clip_epsilon, 1 + cfg.clip_epsilon)
            objective = np.minimum(ratio * adv, clipped * adv)
            ent = -(np.exp(logp_all) * logp_all).sum(axis=1).mean()
            return -objective.mean() - cfg.entropy_coef * ent

        _, _, _, grads, _ = ppo_loss(actor, critic, obs, actions, logp_old, adv,
                                     np.zeros(n), cfg)
        g_weights, g_biases = neural.layer_views(grads, actor.dims)
        h = 1e-6
        for arr, g in ((actor.weights[0], g_weights[0]),
                       (actor.biases[1], g_biases[1])):
            it = np.nditer(arr, flags=["multi_index"])
            checked = 0
            while not it.finished and checked < 12:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_of(actor)
                arr[idx] = orig - h
                down = loss_of(actor)
                arr[idx] = orig
                num = (up - down) / (2 * h)
                assert g[idx] == pytest.approx(num, rel=1e-4, abs=1e-8)
                checked += 1
                it.iternext()


class _ThreeStepEnv:
    """Minimal episodic stub: two observations, terminates every 3 steps."""

    def __init__(self):
        self.obs_len = 2
        self.n_actions = 2
        self.t = 0
        self.done = True

    def reset(self, seed=None):
        self.t = 0
        self.done = False
        return np.array([1.0, 0.0])

    def step(self, action):
        self.t += 1
        self.done = self.t >= 3
        reward = 1.0 if self.done else 0.0
        return np.array([0.0, 1.0]), reward, self.done, {}


class TestCollectRollout:
    def _runners(self, n=1):
        seq = np.random.SeedSequence(0)
        return [_EnvRunner(_ThreeStepEnv(), child) for child in seq.spawn(n)]

    def _policy(self):
        rng = np.random.default_rng(0)
        actor = neural.init_mlp(rng, 2, (4,), 2, out_gain=0.01)
        critic = neural.init_mlp(rng, 2, (4,), 1)
        return actor, critic

    def test_episode_boundaries_in_batch(self):
        actor, critic = self._policy()
        batch = collect_rollout(self._runners(), actor, critic, 8,
                                np.random.default_rng(0))
        assert batch.dones[:, 0].sum() >= 2
        assert batch.obs.shape == (8, 1, 2)

    def test_episode_rewards_equal_sums_between_dones(self):
        actor, critic = self._policy()
        batch = collect_rollout(self._runners(), actor, critic, 9,
                                np.random.default_rng(0))
        assert batch.episode_returns == [1.0, 1.0, 1.0]
        assert batch.episode_lengths == [3, 3, 3]
        # brute-force re-summation from the reward/done arrays
        total = 0.0
        sums = []
        for t in range(9):
            total += batch.rewards[t, 0]
            if batch.dones[t, 0]:
                sums.append(total)
                total = 0.0
        assert sums == batch.episode_returns

    def test_seeded_batches_identical(self, tiny_inputs):
        from c2sim.c2_env import C2Env

        def make_batch():
            topology, scenario = tiny_inputs
            runners = [_EnvRunner(C2Env(topology, scenario), child)
                       for child in np.random.SeedSequence(5).spawn(2)]
            actor, critic = self._policy()
            rng = np.random.default_rng(5)
            actor2 = neural.init_mlp(np.random.default_rng(1),
                                     runners[0].env.obs_len, (8,),
                                     runners[0].env.n_actions, out_gain=0.01)
            critic2 = neural.init_mlp(np.random.default_rng(2),
                                      runners[0].env.obs_len, (8,), 1)
            return collect_rollout(runners, actor2, critic2, 16, rng)

        a, b = make_batch(), make_batch()
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.rewards, b.rewards)


class TestUpdate:
    def test_ratio_is_one_immediately_after_copy(self, tiny_inputs):
        from c2sim.c2_env import C2Env

        topology, scenario = tiny_inputs
        cfg = small_cfg(horizon=32, num_envs=1, minibatch=32, epochs=1)
        runners = [_EnvRunner(C2Env(topology, scenario), child)
                   for child in np.random.SeedSequence(1).spawn(1)]
        rng = np.random.default_rng(0)
        params = init_policy(rng, runners[0].env.obs_len,
                             runners[0].env.n_actions, cfg)
        batch = collect_rollout(runners, params.actor, params.critic, 32,
                                np.random.default_rng(3))
        obs = batch.obs.reshape(32, -1)
        actions = batch.actions.reshape(32)
        logp_now = neural.log_softmax(neural.forward(params.actor, obs))[
            np.arange(32), actions]
        ratio = np.exp(logp_now - batch.log_probs.reshape(32))
        assert np.max(np.abs(ratio - 1.0)) < 1e-9

    def test_update_runs_and_reports_finite_losses(self, tiny_inputs):
        from c2sim.c2_env import C2Env

        topology, scenario = tiny_inputs
        cfg = small_cfg(horizon=64, num_envs=2, minibatch=16, epochs=2)
        runners = [_EnvRunner(C2Env(topology, scenario), child)
                   for child in np.random.SeedSequence(1).spawn(2)]
        params = init_policy(np.random.default_rng(0),
                             runners[0].env.obs_len,
                             runners[0].env.n_actions, cfg)
        batch = collect_rollout(runners, params.actor, params.critic, 32,
                                np.random.default_rng(3))
        prepare_batch(batch, cfg)
        assert batch.advantages.shape == (32, 2)
        losses = ppo_loss(
            params.actor, params.critic, batch.obs.reshape(64, -1),
            batch.actions.reshape(64), batch.log_probs.reshape(64),
            batch.advantages.reshape(64), batch.returns.reshape(64), cfg)[:3]
        assert all(np.isfinite(v) for v in losses)
        stats = ppo_update(params, batch, cfg, np.random.default_rng(4))
        for key in ("policy_loss", "value_loss", "entropy"):
            assert np.isfinite(stats[key])

    def test_loss_requires_prepared_batch(self, tiny_inputs):
        from c2sim.c2_env import C2Env

        topology, scenario = tiny_inputs
        cfg = small_cfg()
        runners = [_EnvRunner(C2Env(topology, scenario), child)
                   for child in np.random.SeedSequence(1).spawn(1)]
        params = init_policy(np.random.default_rng(0),
                             runners[0].env.obs_len,
                             runners[0].env.n_actions, cfg)
        batch = collect_rollout(runners, params.actor, params.critic, 8,
                                np.random.default_rng(3))
        with pytest.raises(ValueError, match="not prepared"):
            ppo_update(params, batch, cfg, np.random.default_rng(4))

    def test_advantage_normalization(self):
        batch = RolloutBatch(
            obs=np.zeros((8, 1, 2)), actions=np.zeros((8, 1), dtype=np.int64),
            log_probs=np.zeros((8, 1)),
            rewards=np.arange(8, dtype=np.float64).reshape(8, 1),
            values=np.zeros((9, 1)), dones=np.zeros((8, 1), dtype=bool),
        )
        prepare_batch(batch, small_cfg())
        assert batch.advantages.mean() == pytest.approx(0.0, abs=1e-9)
        assert batch.advantages.std() == pytest.approx(1.0, abs=1e-4)


class TestTrain:
    def test_zero_total_steps_returns_initial_params(self, tiny_inputs):
        topology, scenario = tiny_inputs
        cfg = small_cfg(total_steps=0)
        result = train(topology, scenario, cfg)
        fresh = init_policy(
            np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0]),
            result.params.obs_dim, result.params.n_actions, cfg)
        for a, b in zip(result.params.actor.weights, fresh.actor.weights):
            assert np.array_equal(a, b)
        assert result.metrics == []
        assert result.total_env_steps == 0

    def test_seeded_runs_produce_identical_metrics(self, tiny_inputs):
        topology, scenario = tiny_inputs
        cfg = small_cfg(horizon=128, num_envs=2, minibatch=32, epochs=2,
                        total_steps=512, seed=11)
        r1 = train(topology, scenario, cfg)
        r2 = train(topology, scenario, cfg)
        assert format_metrics_csv(r1.metrics) == format_metrics_csv(r2.metrics)
        for a, b in zip(r1.params.actor.weights, r2.params.actor.weights):
            assert np.array_equal(a, b)

    def test_checkpoints_and_metrics_written(self, tiny_inputs, tmp_path):
        topology, scenario = tiny_inputs
        cfg = small_cfg(horizon=128, num_envs=2, minibatch=32, epochs=1,
                        total_steps=256, seed=1, checkpoint_interval=128)
        train(topology, scenario, cfg, out_dir=tmp_path)
        assert (tmp_path / "checkpoint_final.npz").exists()
        assert (tmp_path / "checkpoint_128.npz").exists()
        assert (tmp_path / "metrics.csv").exists()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,episodes,mean_reward,mean_length,policy_loss,value_loss,entropy"

    def test_policy_roundtrip_via_checkpoint(self, tiny_inputs, tmp_path):
        topology, scenario = tiny_inputs
        cfg = small_cfg(total_steps=128, horizon=64, num_envs=2,
                        minibatch=32, epochs=1)
        result = train(topology, scenario, cfg, out_dir=tmp_path)
        params, meta = ppo.load_policy(
            tmp_path / "checkpoint_final.npz",
            expect_obs_dim=result.params.obs_dim,
            expect_actions=result.params.n_actions)
        assert meta["env_steps"] == 128
        for a, b in zip(params.critic.weights, result.params.critic.weights):
            assert np.array_equal(a, b)
