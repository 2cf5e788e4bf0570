from __future__ import annotations

import json

import numpy as np
import pytest

from c2sim import neural
from c2sim.neural import (
    CheckpointError,
    MlpParams,
    ShapeMismatchError,
    adam_init,
    adam_step,
    backward,
    categorical_sample,
    forward,
    forward_cached,
    init_mlp,
    load_checkpoint,
    log_softmax,
    orthogonal,
    save_checkpoint,
)


def reference_forward(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Independent layer-by-layer recomputation with explicit loops."""
    h = np.asarray(x, dtype=np.float64)
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        out = np.empty(w.shape[1])
        for j in range(w.shape[1]):
            out[j] = b[j]
            for k in range(w.shape[0]):
                out[j] += h[k] * w[k, j]
        h = out if i == last else np.tanh(out)
    return h


class TestForward:
    def test_zero_network_outputs_zero(self):
        p = MlpParams((3, 4, 2), np.zeros(3 * 4 + 4 + 4 * 2 + 2))
        assert np.array_equal(forward(p, np.ones(3)), np.zeros(2))

    def test_tiny_network_hand_computation(self):
        w, b = 0.5, 0.25
        # layout W0, b0, W1, b1
        p = MlpParams((1, 1, 1), np.array([w, b, 1.0, 0.0]))
        out = forward(p, np.array([2.0]))
        assert out[0] == pytest.approx(np.tanh(2.0 * w + b), abs=1e-12)

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(2)
        p = init_mlp(rng, 6, (5, 4), 3, out_gain=0.7)
        for _ in range(5):
            x = rng.standard_normal(6)
            assert forward(p, x) == pytest.approx(
                reference_forward(p, x), abs=1e-6)

    def test_batched_equals_rowwise(self):
        rng = np.random.default_rng(3)
        p = init_mlp(rng, 4, (8,), 2)
        xs = rng.standard_normal((7, 4))
        batched = forward(p, xs)
        for i in range(7):
            assert batched[i] == pytest.approx(forward(p, xs[i]), abs=1e-12)

    @pytest.mark.parametrize("activation", ["tanh"])
    def test_forward_equals_forward_cached_bit_for_bit(self, activation):
        rng = np.random.default_rng(7)
        p = init_mlp(rng, 160, (128, 64), 18, out_gain=0.01)
        for x in (rng.standard_normal(160), rng.standard_normal((8, 160)),
                  rng.standard_normal((1, 160))):
            out = forward(p, x)
            cached, acts = forward_cached(p, x)
            assert out.shape == cached.shape == x.shape[:-1] + (18,)
            assert out.tobytes() == cached.tobytes()
            assert acts[-1] is cached and len(acts) == 4
            hidden = getattr(np, activation)(x @ p.weights[0] + p.biases[0])
            assert acts[1].tobytes() == hidden.tobytes()

    def test_shape_mismatch_raises(self):
        p = init_mlp(np.random.default_rng(0), 4, (8,), 2)
        with pytest.raises(ShapeMismatchError):
            forward(p, np.zeros(5))

    @pytest.mark.parametrize("activation", ["tanh"])
    def test_input_never_written_or_aliased(self, activation):
        rng = np.random.default_rng(6)
        p = init_mlp(rng, 5, (6, 4), 3)
        for x in (rng.standard_normal(5), rng.standard_normal((4, 5))):
            before = x.copy()
            x.flags.writeable = False  # an in-place write would raise
            out, acts = forward_cached(p, x)
            assert x.tobytes() == before.tobytes()
            for a in (forward(p, x), out, *acts[1:]):
                assert not np.shares_memory(a, x)
            upstream = np.ones(out.shape)
            upstream.flags.writeable = False
            backward(p, x, upstream)


class TestFlatLayout:
    def test_layer_views_write_through_to_theta(self):
        p = init_mlp(np.random.default_rng(0), 3, (4,), 2)
        p.weights[1][2, 1] = 7.0
        p.biases[0][3] = -5.0
        # layout W0 (3x4), b0 (4), W1 (4x2), b1 (2)
        assert p.theta[12 + 4 + 2 * 2 + 1] == 7.0
        assert p.theta[12 + 3] == -5.0
        x = np.ones(3)
        assert forward(p, x) == pytest.approx(reference_forward(p, x), abs=1e-12)

    def test_theta_length_must_match_dims(self):
        with pytest.raises(ShapeMismatchError):
            MlpParams((3, 4, 2), np.zeros(25))


def finite_difference_grads(p: MlpParams, x, upstream, h=1e-5):
    """Central differences of loss = sum(out * upstream), one per entry of
    ``p.theta``."""
    def loss():
        return float(np.sum(forward(p, x) * upstream))

    g = np.zeros_like(p.theta)
    for k in range(p.theta.size):
        orig = p.theta[k]
        p.theta[k] = orig + h
        up = loss()
        p.theta[k] = orig - h
        down = loss()
        p.theta[k] = orig
        g[k] = (up - down) / (2 * h)
    return g


def assert_grads_close(got: np.ndarray, want: np.ndarray, rtol=1e-4):
    assert got.shape == want.shape
    denom = np.maximum(np.abs(want), 1e-8)
    assert np.max(np.abs(got - want) / denom) < rtol


class TestBackward:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = init_mlp(rng, 5, (6, 4), 3, out_gain=0.8)
        x = rng.standard_normal((4, 5))
        upstream = rng.standard_normal((4, 3))
        analytic = backward(p, x, upstream)
        numeric = finite_difference_grads(p, x, upstream)
        assert_grads_close(analytic, numeric)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(1)
        p = init_mlp(rng, 5, (6,), 3)
        grads = backward(p, rng.standard_normal(5), np.zeros(3))
        assert np.all(grads == 0.0)

    def test_upstream_shape_mismatch(self):
        p = init_mlp(np.random.default_rng(0), 3, (4,), 2)
        with pytest.raises(ShapeMismatchError):
            backward(p, np.zeros((5, 3)), np.zeros((5, 3)))


def reference_adam_step(state, theta, grad):
    """The out-of-place update, on copies: returns (theta, m, v)."""
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    scale = state.lr * np.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    m = state.m * b1 + (1.0 - b1) * grad
    v = state.v * b2 + (1.0 - b2) * grad * grad
    return theta - scale * m / (np.sqrt(v) + state.eps), m, v


class TestAdam:
    def test_in_place_update_equals_plain_formula_bit_for_bit(self):
        rng = np.random.default_rng(8)
        nets = [init_mlp(rng, 6, (8,), 3), init_mlp(rng, 6, (5, 4), 1)]
        opts = [adam_init(nets[0], 3e-2), adam_init(nets[1], 1e-3)]
        for _ in range(20):
            for p, state in zip(nets, opts):  # the two optimizers interleave
                grad = rng.standard_normal(p.theta.size) * 10.0 ** rng.integers(-6, 2)
                want = reference_adam_step(state, p.theta, grad)
                adam_step(state, p, grad)
                for got, ref in zip((p.theta, state.m, state.v), want):
                    assert got.tobytes() == ref.tobytes()

    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(0)
        p = init_mlp(rng, 3, (4,), 2)
        snapshot = p.theta.copy()
        state = adam_init(p, lr=0.01)
        adam_step(state, p, np.zeros_like(p.theta))
        assert np.array_equal(p.theta, snapshot)

    def test_scalar_first_step_magnitude(self):
        p = MlpParams((1, 1), np.zeros(2))
        state = adam_init(p, lr=1e-3)
        grads = np.array([1.0, 0.0])  # dW, db
        adam_step(state, p, grads)
        # bias-corrected m-hat = 1, v-hat = 1 -> step of lr/(1+eps)
        assert p.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_repeated_identical_gradients_move_monotonically(self):
        p = MlpParams((1, 1), np.zeros(2))
        state = adam_init(p, lr=1e-3)
        grads = np.array([2.5, 0.0])  # dW, db
        prev = 0.0
        for _ in range(20):
            adam_step(state, p, grads)
            cur = p.weights[0][0, 0]
            assert cur < prev
            prev = cur

    def test_gradient_shape_mismatch(self):
        p = init_mlp(np.random.default_rng(0), 3, (4,), 2)
        state = adam_init(p, lr=1e-3)
        bad = np.zeros(p.theta.size + 3)
        with pytest.raises(ShapeMismatchError):
            adam_step(state, p, bad)


class TestCategorical:
    def test_dominant_score_always_wins(self):
        rng = np.random.default_rng(0)
        scores = np.array([0.0, 1e9, 0.0])
        for _ in range(100):
            idx, logp = categorical_sample(scores, rng)
            assert idx == 1
            assert logp == pytest.approx(0.0, abs=1e-9)

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(7)
        k = 5
        n = 100_000
        counts = np.zeros(k)
        scores = np.zeros(k)
        for _ in range(n):
            idx, _ = categorical_sample(scores, rng)
            counts[idx] += 1
        p = 1.0 / k
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 3 * sigma)

    def test_log_probabilities_normalize(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(12) * 10
        logp = log_softmax(scores)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-9)

    def test_stability_at_large_magnitudes(self):
        for scale in (1e2, 1e3, 1e4):
            scores = np.array([scale, -scale, 0.0])
            logp = log_softmax(scores)
            assert np.all(np.isfinite(logp))
            assert np.isfinite(-(np.exp(logp) * logp).sum())  # the entropy

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_equals_row_calls_bit_for_bit(self, seed):
        scores = np.random.default_rng(seed).standard_normal((8, 18)) * 3.0
        scores[1] = 0.0            # uniform
        scores[2, 5] = 1e9         # one dominant action
        scores[3, -1] = 40.0       # nearly all mass on the last action
        batch_rng = np.random.default_rng(100 + seed)
        row_rng = np.random.default_rng(100 + seed)
        idx, logp = categorical_sample(scores, batch_rng)
        rows = [categorical_sample(row, row_rng) for row in scores]
        assert idx.tolist() == [i for i, _ in rows]
        assert logp.tobytes() == np.array([lp for _, lp in rows]).tobytes()
        assert batch_rng.bit_generator.state == row_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_distribution_draws_equal_row_draws_bit_for_bit(self, seed):
        scores = np.random.default_rng(seed).standard_normal((8, 18)) * 3.0
        scores[1] = 0.0            # uniform
        scores[2, 5] = 1e9         # one dominant action
        scores[3, -1] = 40.0       # nearly all mass on the last action
        dist_rng = np.random.default_rng(100 + seed)
        row_rng = np.random.default_rng(100 + seed)
        for row in scores:
            dist = neural.categorical(row)
            for _ in range(200):
                idx, logp = categorical_sample(dist, dist_rng)
                want_idx, want_logp = categorical_sample(row, row_rng)
                assert (idx, logp.hex()) == (want_idx, want_logp.hex())
                assert type(idx) is int and type(logp) is float
        assert dist_rng.bit_generator.state == row_rng.bit_generator.state

    def test_row_gives_python_scalars(self):
        idx, logp = categorical_sample(np.zeros(4), np.random.default_rng(0))
        assert type(idx) is int and type(logp) is float

    def test_sampled_logp_matches_distribution(self):
        rng = np.random.default_rng(3)
        scores = np.array([0.3, -1.2, 2.0, 0.0])
        logp_all = log_softmax(scores)
        idx, logp = categorical_sample(scores, rng)
        assert logp == pytest.approx(logp_all[idx], abs=1e-12)


class TestOrthogonalInit:
    def test_columns_orthonormal_up_to_gain(self):
        rng = np.random.default_rng(0)
        gain = np.sqrt(2.0)
        w = orthogonal(rng, (64, 16), gain=gain)
        gram = w.T @ w / gain**2
        assert gram == pytest.approx(np.eye(16), abs=1e-10)


class TestCheckpoints:
    def _nets_and_opts(self, rng):
        actor = init_mlp(rng, 6, (8, 4), 3, out_gain=0.01)
        critic = init_mlp(rng, 6, (8, 4), 1)
        opts = {"actor": adam_init(actor, 3e-5), "critic": adam_init(critic, 3e-4)}
        return {"actor": actor, "critic": critic}, opts

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        nets, opts = self._nets_and_opts(rng)
        opts["actor"].step = 17
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={"env_steps": 123})
        nets2, opts2, meta = load_checkpoint(path)
        assert meta["env_steps"] == 123
        assert opts2["actor"].step == 17
        assert opts2["critic"].lr == 3e-4
        for name in nets:
            for w1, w2 in zip(nets[name].weights, nets2[name].weights):
                assert np.array_equal(w1, w2)
            assert np.array_equal(nets[name].theta, nets2[name].theta)
            assert np.array_equal(opts[name].m, opts2[name].m)
            assert np.array_equal(opts[name].v, opts2[name].v)

    def test_adam_step_on_loaded_checkpoint_changes_forward(self, tmp_path):
        rng = np.random.default_rng(5)
        nets, opts = self._nets_and_opts(rng)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={})
        nets2, opts2, _ = load_checkpoint(path)
        actor = nets2["actor"]
        x = rng.standard_normal((4, 6))
        before = forward(actor, x)
        grad = backward(actor, x, np.ones((4, 3)))
        adam_step(opts2["actor"], actor, grad)
        assert not np.allclose(forward(actor, x), before, rtol=0, atol=1e-6)

    def test_version_1_rejected(self, tmp_path):
        manifest = json.dumps({"version": 1, "meta": {}, "nets": {}, "opts": {}})
        path = tmp_path / "old.npz"
        np.savez(path, manifest=np.frombuffer(manifest.encode(), dtype=np.uint8))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_expected_shape_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        nets, opts = self._nets_and_opts(rng)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={})
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path, expect={"actor": (6, 4), "critic": (6, 1)})

    def test_truncated_optimizer_state_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        nets, opts = self._nets_and_opts(rng)
        opts["actor"].m = opts["actor"].m[:-1]
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={})
        with pytest.raises(CheckpointError, match="optimizer state 'actor'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("actor_theta", np.nan), ("critic_theta", -np.inf),
        ("actor_m", np.nan), ("critic_v", np.inf),
    ])
    def test_non_finite_tensor_rejected(self, tmp_path, key, value):
        rng = np.random.default_rng(5)
        nets, opts = self._nets_and_opts(rng)
        name, tensor = key.rsplit("_", 1)
        arr = nets[name].theta if tensor == "theta" else getattr(opts[name], tensor)
        arr[3] = value
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={})
        with pytest.raises(CheckpointError, match=f"tensor {key} holds non-finite"):
            load_checkpoint(path)

    def test_first_non_finite_tensor_named(self, tmp_path):
        rng = np.random.default_rng(5)
        nets, opts = self._nets_and_opts(rng)
        nets["critic"].theta[0] = np.nan
        opts["actor"].v[:] = np.inf
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={})
        with pytest.raises(CheckpointError, match="tensor critic_theta "):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    def test_missing_net_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        nets, opts = self._nets_and_opts(rng)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={})
        with pytest.raises(CheckpointError, match="no net"):
            load_checkpoint(path, expect={"omega": (6, 3)})

    def _saved(self, tmp_path):
        nets, opts = self._nets_and_opts(np.random.default_rng(5))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, nets, opts, meta={})
        return path

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
                           match=f"net 'critic' has activation '{activation}'"):
            load_checkpoint(path)

    def test_missing_manifest_key_named(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: m["nets"]["actor"].pop("dims"))
        with pytest.raises(CheckpointError,
                           match="missing manifest key 'dims' for net 'actor'"):
            load_checkpoint(path)

    def test_missing_tensor_named(self, tmp_path):
        path = self._saved(tmp_path)
        rewrite_checkpoint(path, lambda m, a: a.pop("actor_m"))
        with pytest.raises(CheckpointError, match="missing tensor 'actor_m'"):
            load_checkpoint(path)


def rewrite_checkpoint(path, edit):
    """Rewrite a saved checkpoint: ``edit(manifest, arrays)`` changes its
    manifest dict and tensor dict in place."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    manifest = json.loads(arrays.pop("manifest").tobytes())
    edit(manifest, arrays)
    np.savez(path, manifest=np.frombuffer(json.dumps(manifest).encode(),
                                          dtype=np.uint8), **arrays)
