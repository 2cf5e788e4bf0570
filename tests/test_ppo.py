from __future__ import annotations

import dataclasses
import json
import re
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2sim import neural, ppo
from c2sim.ppo import (
    CheckpointError,
    PpoConfig,
    RolloutBatch,
    _EnvRunner,
    collect_rollout,
    compute_gae,
    format_metrics_csv,
    init_policy,
    load_policy,
    ppo_loss,
    ppo_update,
    prepare_batch,
    save_policy,
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
        # a negative entropy_coef would turn the entropy bonus into a penalty
        for name in ("entropy_coef", "total_steps", "seed", "checkpoint_interval"):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                PpoConfig(**{name: -64})
        assert PpoConfig(checkpoint_interval=0, seed=0).checkpoint_interval == 0
        # a budget of 1..horizon-1 steps would run no batch and train nothing
        with pytest.raises(ValueError, match=r"total_steps \(4095\).*horizon \(4096\)"):
            PpoConfig(total_steps=4095)
        assert PpoConfig(total_steps=0).total_steps == 0
        assert PpoConfig(total_steps=4096).total_steps == 4096
        assert PpoConfig(entropy_coef=0.0).entropy_coef == 0.0

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

    @settings(derandomize=True, max_examples=40, deadline=None)
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

    @pytest.mark.parametrize("n", [64, 8, 1])
    def test_one_pass_matches_two_pass_reference(self, monkeypatch, n):
        """The same losses and gradients, bit for bit, as the loss that runs
        each net's forward pass twice, from one forward pass per net."""
        rng = np.random.default_rng(n)
        actor = neural.init_mlp(rng, 70, (128, 64), 18, out_gain=0.01)
        critic = neural.init_mlp(rng, 70, (128, 64), 1)
        old_actor = neural.init_mlp(rng, 70, (128, 64), 18, out_gain=0.5)
        obs = (rng.random((n, 70)) < 0.3).astype(np.float64)
        actions = rng.integers(0, 18, n)
        logp_old = neural.log_softmax(neural.forward(old_actor, obs))[
            np.arange(n), actions]
        args = (actor, critic, obs, actions, logp_old, rng.standard_normal(n),
                rng.standard_normal(n), small_cfg(entropy_coef=0.01))
        want = oracles.reference_ppo_loss(*args)
        calls = []
        inner = neural.forward

        def counted(*a, **kw):
            calls.append(a[0].out_dim)
            return inner(*a, **kw)

        monkeypatch.setattr(neural, "forward", counted)
        got = ppo_loss(*args)
        assert [v.hex() for v in got[:3]] == [v.hex() for v in want[:3]]
        assert [g.tobytes() for g in got[3:]] == [g.tobytes() for g in want[3:]]
        assert calls == [18, 1]

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
                                np.random.default_rng(0), np.arange(2))
        assert batch.dones[:, 0].sum() >= 2
        assert batch.obs.shape == (8, 1, 2)

    def test_episode_rewards_equal_sums_between_dones(self):
        actor, critic = self._policy()
        batch = collect_rollout(self._runners(), actor, critic, 9,
                                np.random.default_rng(0), np.arange(2))
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
            return collect_rollout(runners, actor2, critic2, 16, rng,
                                   np.arange(runners[0].env.obs_len))

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
                                np.random.default_rng(3),
                                np.arange(runners[0].env.obs_len))
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
                                np.random.default_rng(3),
                                np.arange(runners[0].env.obs_len))
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
                                np.random.default_rng(3),
                                np.arange(runners[0].env.obs_len))
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
            result.params.actor.in_dim, result.params.actor.out_dim, cfg)
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

    def test_one_rollout_batch_alive_at_a_time(self, tiny_inputs, monkeypatch):
        """The previous batch's observation buffer is freed by the time
        collect_rollout is entered to fill the next one."""
        obs_refs, alive_on_entry = [], []
        collect = ppo.collect_rollout

        def watched(*args, **kwargs):
            alive_on_entry.append([ref() is not None for ref in obs_refs])
            batch = collect(*args, **kwargs)
            obs_refs.append(weakref.ref(batch.obs))
            return batch

        monkeypatch.setattr(ppo, "collect_rollout", watched)
        train(*tiny_inputs, small_cfg(total_steps=192))
        assert alive_on_entry == [[], [False], [False, False]]

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
            expect_obs_dim=result.params.actor.in_dim,
            expect_actions=result.params.actor.out_dim)
        assert meta["env_steps"] == 128
        for a, b in zip(params.critic.weights, result.params.critic.weights):
            assert np.array_equal(a, b)


def rewrite_checkpoint(path, edit):
    """Rewrite a saved checkpoint: ``edit(manifest, arrays)`` changes its
    manifest dict and tensor dict in place."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    manifest = json.loads(arrays.pop("manifest").tobytes())
    edit(manifest, arrays)
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(),
                                          dtype=np.uint8), **arrays)


TENSORS = ("actor_theta", "critic_theta", "actor_m", "actor_v", "critic_m", "critic_v")


class TestCheckpoints:
    @staticmethod
    def _policy(hidden=(8, 4), seed=5):
        """A policy of 6 inputs and 3 actions, as ``_load`` expects."""
        return init_policy(np.random.default_rng(seed), 6, 3, PpoConfig(hidden=hidden))

    @staticmethod
    def _load(path):
        return load_policy(path, expect_obs_dim=6, expect_actions=3)

    def _saved(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_policy(path, self._policy())
        return path

    def test_round_trip(self, tmp_path):
        params = self._policy()
        params.actor_opt.step = 17
        path = tmp_path / "ckpt.npz"
        save_policy(path, params, meta={"env_steps": 123})
        loaded, meta = self._load(path)
        assert meta == {"env_steps": 123, "obs_dim": 6, "n_actions": 3}
        assert loaded.actor_opt.step == 17
        assert loaded.critic_opt.lr == 3e-4
        for name in ("actor", "critic"):
            for w1, w2 in zip(getattr(params, name).weights, getattr(loaded, name).weights):
                assert np.array_equal(w1, w2)
        for (key, _, a), (_, _, b) in zip(params.tensors(), loaded.tensors()):
            assert np.array_equal(a, b), key

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(hidden=st.lists(st.integers(1, 9), max_size=3),
           steps=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    def test_save_load_save_gives_identical_members(self, tmp_path_factory,
                                                    hidden, steps, seed):
        params = self._policy(tuple(hidden), seed)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            for net, opt in ((params.actor, params.actor_opt),
                             (params.critic, params.critic_opt)):
                neural.adam_step(opt, net, rng.standard_normal(net.theta.shape))
        out = tmp_path_factory.mktemp("round_trip")
        save_policy(out / "a.npz", params, meta={"env_steps": steps})
        loaded, meta = self._load(out / "a.npz")
        save_policy(out / "b.npz", loaded, meta=meta)
        with zipfile.ZipFile(out / "a.npz") as a, zipfile.ZipFile(out / "b.npz") as b:
            # exactly the seven members, the weights first
            assert a.namelist() == b.namelist() == [
                f"{key}.npy" for key in (*TENSORS, "manifest")]
            for name in a.namelist():
                assert a.read(name) == b.read(name), name
        assert loaded.actor_opt.step == loaded.critic_opt.step == steps

    def test_adam_step_on_loaded_checkpoint_changes_forward(self, tmp_path):
        rng = np.random.default_rng(5)
        loaded, _ = self._load(self._saved(tmp_path))
        actor = loaded.actor
        x = rng.standard_normal((4, 6))
        before = neural.forward(actor, x)
        grad = neural.backward(actor, x, np.ones((4, 3)))
        neural.adam_step(loaded.actor_opt, actor, grad)
        assert not np.allclose(neural.forward(actor, x), before, rtol=0, atol=1e-6)

    def test_version_1_rejected(self, tmp_path):
        manifest = json.dumps({"version": 1, "meta": {}, "nets": {}, "opts": {}})
        path = tmp_path / "old.npz"
        np.savez(path, manifest=np.frombuffer(manifest.encode(), dtype=np.uint8))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            self._load(path)

    def test_expected_shape_mismatch_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with pytest.raises(CheckpointError, match="shape"):
            load_policy(path, expect_obs_dim=6, expect_actions=4)

    def test_truncated_optimizer_state_rejected(self, tmp_path):
        params = self._policy()
        params.actor_opt.m = params.actor_opt.m[:-1]
        path = tmp_path / "ckpt.npz"
        save_policy(path, params)
        with pytest.raises(CheckpointError,
                           match=r"tensor actor_m is float64 \(106,\), expected "
                                 r"float64 \(107,\)"):
            self._load(path)

    @pytest.mark.parametrize("key, value", [
        ("actor_theta", np.nan), ("critic_theta", -np.inf),
        ("actor_m", np.nan), ("critic_v", np.inf),
    ])
    def test_non_finite_tensor_rejected(self, tmp_path, key, value):
        params = self._policy()
        {k: t for k, _, t in params.tensors()}[key][3] = value
        path = tmp_path / "ckpt.npz"
        save_policy(path, params)
        with pytest.raises(CheckpointError, match=f"tensor {key} holds non-finite"):
            self._load(path)

    def test_first_non_finite_tensor_named(self, tmp_path):
        params = self._policy()
        params.critic.theta[0] = np.nan
        params.actor_opt.v[:] = np.inf
        path = tmp_path / "ckpt.npz"
        save_policy(path, params)
        with pytest.raises(CheckpointError, match="tensor critic_theta "):
            self._load(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(CheckpointError, match="manifest"):
            self._load(path)

    def test_missing_net_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: m["nets"].pop("actor"))
        with pytest.raises(CheckpointError,
                           match="checkpoint manifest: nets is missing actor"):
            self._load(path)

    @pytest.mark.parametrize("table", ["nets", "opts"])
    def test_manifest_without_critic_rejected(self, tmp_path, table):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: m[table].pop("critic"))
        with pytest.raises(CheckpointError,
                           match=f"checkpoint manifest: {table} is missing critic"):
            self._load(path)

    @pytest.mark.parametrize("table", ["nets", "opts"])
    def test_third_net_rejected_as_unknown_key(self, tmp_path, table):
        path = self._saved(tmp_path)

        def add_omega(m, a):
            m[table]["omega"] = m[table]["actor"]
            a.update(omega_theta=a["actor_theta"], omega_m=a["actor_m"],
                     omega_v=a["actor_v"])

        rewrite_checkpoint(path, add_omega)
        with pytest.raises(CheckpointError, match=f"checkpoint manifest: {table} "
                                                  "has unknown key\\(s\\): omega"):
            self._load(path)

    @pytest.mark.parametrize("width", [0, 10**15, 10**20])
    def test_impossible_layer_width_rejected(self, tmp_path, width):
        # 10**15 and 10**20 are refused by the allocator before any memory
        # is taken
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: m["nets"]["critic"].update(
            dims=[6, width, 1]))
        with pytest.raises(CheckpointError, match="checkpoint manifest: "):
            self._load(path)

    @pytest.mark.parametrize("member, message", [
        ("actor_theta", r"tensor actor_theta is \|S2 \(\), expected float64"),
        ("manifest", "unsupported checkpoint version None")])
    def test_member_that_is_not_an_array_rejected(self, tmp_path, member, message):
        # NpzFile gives a member without the .npy magic as its raw bytes
        saved = self._saved(tmp_path)
        path = tmp_path / "raw.npz"
        with zipfile.ZipFile(saved) as src, zipfile.ZipFile(path, "w") as dst:
            for name in src.namelist():
                dst.writestr(name, b"{}" if name == f"{member}.npy" else src.read(name))
        with pytest.raises(CheckpointError, match=message):
            self._load(path)

    def test_every_net_recorded_as_tanh(self, tmp_path):
        with np.load(self._saved(tmp_path)) as data:
            manifest = json.loads(data["manifest"].tobytes())
        assert {spec["activation"] for spec in manifest["nets"].values()} == {"tanh"}

    @pytest.mark.parametrize("activation", ["linear", "relu"])
    def test_other_activation_rejected(self, tmp_path, activation):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: m["nets"]["critic"].update(
            activation=activation))
        with pytest.raises(CheckpointError,
                           match=f"checkpoint manifest: nets.critic.activation "
                                 f"must be 'tanh', got '{activation}'"):
            self._load(path)

    def test_missing_manifest_key_named(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: m["nets"]["actor"].pop("dims"))
        with pytest.raises(CheckpointError,
                           match="checkpoint manifest: nets.actor is missing dims"):
            self._load(path)

    def test_missing_tensor_named(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: a.pop("actor_m"))
        with pytest.raises(CheckpointError, match="missing tensor 'actor_m'"):
            self._load(path)


def _full_width_train(topology, scenario, cfg):
    """``train`` without the live-slot cut: the same seed streams, the
    nets at full observation width throughout."""
    from c2sim.c2_env import C2Env

    init_seq, sample_seq, shuffle_seq, env_seq = np.random.SeedSequence(
        cfg.seed).spawn(4)
    runners = [_EnvRunner(C2Env(topology, scenario), child)
               for child in env_seq.spawn(cfg.num_envs)]
    params = init_policy(np.random.default_rng(init_seq), runners[0].env.obs_len,
                         runners[0].env.n_actions, cfg)
    sample_rng = np.random.default_rng(sample_seq)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    for _ in range(cfg.total_steps // cfg.horizon):
        batch = collect_rollout(runners, params.actor, params.critic,
                                cfg.horizon // cfg.num_envs, sample_rng,
                                np.arange(runners[0].env.obs_len))
        prepare_batch(batch, cfg)
        ppo_update(params, batch, cfg, shuffle_rng)
    return params


def _skip_unless_recorded_build(what):
    """Rounding can differ on a numpy/BLAS build unlike the one the golden
    digests were recorded on; there a bit mismatch is a skip, as in
    test_golden."""
    from test_golden import RECORDED_BUILD

    from c2sim.cli import current_build

    build = current_build()
    if build != RECORDED_BUILD:
        pytest.skip(f"{what} differ on a build unlike the recorded one "
                    f"({build}; recorded {RECORDED_BUILD})")
    pytest.fail(f"{what} differ on the recorded build")


class TestAlignedStorage:
    def test_every_policy_vector_starts_on_a_cache_line(self, tiny_inputs,
                                                         tmp_path):
        """Both nets' theta, moments and Adam scratch, and with the
        default widths every weight block, start on a 64-byte boundary,
        whether the policy is initialized, cut to the live slots or
        loaded."""
        from c2sim.c2_env import C2Env

        env = C2Env(*tiny_inputs)
        full = init_policy(np.random.default_rng(0), env.obs_len,
                           env.n_actions, PpoConfig())
        save_policy(tmp_path / "policy.npz", full)
        loaded, _ = load_policy(tmp_path / "policy.npz", env.obs_len, env.n_actions)
        for params in (full, ppo._compact_policy(full, env.live_slots), loaded):
            vectors = [tensor for _, _, tensor in params.tensors()]
            for opt in (params.actor_opt, params.critic_opt):
                vectors.extend(opt.scratch)
            for net in (params.actor, params.critic):
                vectors.extend(net.weights)
            assert [v.ctypes.data % 64 for v in vectors] == [0] * len(vectors)


class TestLiveSlotTraining:
    """``train`` runs on ``C2Env.live_slots`` and must give the bits of
    full-width training at two or more rows per matmul. One-row products
    (``num_envs: 1``, a one-row minibatch tail) round differently."""

    @pytest.fixture(scope="class")
    def walk(self, tiny_inputs):
        """Distinct tiny observations from a seeded random walk, with the
        env that made them."""
        from c2sim.c2_env import C2Env

        env = C2Env(*tiny_inputs)
        rng = np.random.default_rng(2)
        rows = []
        for ep in range(6):
            rows.append(env.reset(seed=ep).copy())
            while not env.done:
                rows.append(env.step(int(rng.integers(env.n_actions)))[0].copy())
        obs = np.unique(np.array(rows), axis=0)
        return env, obs[rng.permutation(len(obs))]

    @pytest.mark.parametrize("rows", [2, 8, 64])
    def test_compact_nets_give_full_width_bits(self, walk, rows):
        env, obs = walk
        assert len(obs) >= 64 * 3
        live = env.live_slots
        full = init_policy(np.random.default_rng(rows), env.obs_len,
                           env.n_actions, PpoConfig())
        compact = ppo._compact_policy(full, live)
        rng = np.random.default_rng(rows)
        dead = np.ones(env.obs_len, dtype=bool)
        dead[live] = False
        mismatches = []
        for trial in range(3):
            x = obs[trial * rows:(trial + 1) * rows]
            for name in ("actor", "critic"):
                f, c = getattr(full, name), getattr(compact, name)
                out = neural.forward(f, x)
                if not np.array_equal(neural.forward(c, x[:, live]), out):
                    mismatches.append(f"{name} forward, {rows} rows")
                g = rng.standard_normal(out.shape)
                grad = neural.backward(f, x, g)
                # the dead slots are zero, so their first-layer rows get a
                # zero gradient ...
                assert not x[:, dead].any()
                assert not grad[:f.weights[0].size].reshape(
                    f.weights[0].shape)[dead].any()
                # ... and the rest is the compact net's gradient
                if not np.array_equal(ppo._live_rows(f.dims, grad, live),
                                      neural.backward(c, x[:, live], g)):
                    mismatches.append(f"{name} gradient, {rows} rows")
        if mismatches:
            _skip_unless_recorded_build(mismatches)

    def test_train_gives_full_width_bits(self, tiny_inputs):
        # a 32-row minibatch tail; every matmul has at least 4 rows
        cfg = small_cfg(horizon=128, num_envs=4, minibatch=48, epochs=2,
                        total_steps=256, seed=3)
        got = train(*tiny_inputs, cfg).params
        want = _full_width_train(*tiny_inputs, cfg)
        mismatches = []
        for name in ("actor", "critic"):
            for a, b, what in (
                    (getattr(got, name).theta, getattr(want, name).theta, "theta"),
                    (getattr(got, f"{name}_opt").m, getattr(want, f"{name}_opt").m, "m"),
                    (getattr(got, f"{name}_opt").v, getattr(want, f"{name}_opt").v, "v")):
                if a.tobytes() != b.tobytes():
                    mismatches.append(f"{name} {what}")
            assert getattr(got, f"{name}_opt").step == getattr(want, f"{name}_opt").step
        if mismatches:
            _skip_unless_recorded_build(mismatches)

    def test_dead_rows_keep_their_initial_values(self, tiny_inputs):
        from c2sim.c2_env import C2Env

        cfg = small_cfg(horizon=128, num_envs=2, minibatch=32, epochs=2,
                        total_steps=256, seed=4)
        result = train(*tiny_inputs, cfg)
        env = C2Env(*tiny_inputs)
        dead = np.ones(env.obs_len, dtype=bool)
        dead[env.live_slots] = False
        fresh = init_policy(
            np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[0]),
            env.obs_len, env.n_actions, cfg)
        for name in ("actor", "critic"):
            net, opt = getattr(result.params, name), getattr(result.params, f"{name}_opt")
            assert net.dims == getattr(fresh, name).dims
            w0 = net.weights[0]
            assert np.array_equal(w0[dead], getattr(fresh, name).weights[0][dead])
            assert not np.array_equal(w0[~dead], getattr(fresh, name).weights[0][~dead])
            for moment in (opt.m, opt.v):
                rows = moment[:w0.size].reshape(w0.shape)[dead]
                # exactly +0.0, the sign bit clear too
                assert not rows.any() and not np.signbit(rows).any()
                assert moment[:w0.size].reshape(w0.shape)[~dead].any()

    def test_interval_checkpoint_equals_final_of_shorter_run(self, tiny_inputs, tmp_path):
        cfg = small_cfg(horizon=128, num_envs=2, minibatch=32, epochs=1, seed=6)
        long_run = dataclasses.replace(cfg, total_steps=384, checkpoint_interval=128)
        train(*tiny_inputs, long_run, out_dir=tmp_path / "long")
        for k in (128, 256):
            short = train(*tiny_inputs, dataclasses.replace(cfg, total_steps=k),
                          out_dir=tmp_path / f"short{k}").params
            with np.load(tmp_path / "long" / f"checkpoint_{k}.npz") as a, \
                    np.load(tmp_path / f"short{k}" / "checkpoint_final.npz") as b:
                assert sorted(a.files) == sorted(b.files)
                for key in a.files:
                    assert a[key].tobytes() == b[key].tobytes(), (k, key)
                # ... and both hold the trained full-width state
                for name in ("actor", "critic"):
                    opt = getattr(short, f"{name}_opt")
                    assert b[f"{name}_theta"].tobytes() == getattr(short, name).theta.tobytes()
                    assert b[f"{name}_m"].tobytes() == opt.m.tobytes()
                    assert b[f"{name}_v"].tobytes() == opt.v.tobytes()
