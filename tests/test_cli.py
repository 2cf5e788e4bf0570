from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import signal
import tempfile
import zipfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from c2sim import analysis, cli, netgen, neural, ppo
from c2sim.c2_env import C2Env, ScenarioError
from c2sim.net_model import (
    ManifestParseError, TopologyError, UnreachableSubnetError, load_topology,
    save_topology)


GEN_CONFIG = """
total_ips: 12
num_subnets: 3
min_ips_per_subnet: 3
max_ips_per_subnet: 6
max_open_ports: 3
max_cpes: 2
seed: 4
"""

DATA = resources.files("c2sim") / "data"
TRACES_FIXTURE = Path(__file__).parent / "data" / "traces.jsonl"

SCENARIO = "initial_foothold: [1, 0]\nsensitive_hosts: [[1, 0]]\n"

PPO_SMALL = """
horizon: 128
num_envs: 2
minibatch: 32
epochs: 2
total_steps: 512
seed: 5
"""


def run(argv):
    return cli.main(argv)


def topology_sha256(topology) -> str:
    return hashlib.sha256(save_topology(topology).encode("utf-8")).hexdigest()


def assert_invalid(rc, capsys, *words):
    """EXIT_INVALID with a one-line ``error:`` message naming ``words``."""
    assert rc == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err


# a value that stands for a deleted node or key
DELETED = "<deleted>"


class TestValidate:
    def test_valid_manifest(self, tmp_path, tiny_inputs):
        path = tmp_path / "net.yaml"
        path.write_text(save_topology(tiny_inputs[0]))
        assert run(["validate", "--topology", str(path)]) == cli.EXIT_OK

    def test_invalid_manifest(self, tmp_path, capsys):
        path = tmp_path / "net.yaml"
        path.write_text("schema_version: 1\nsubnets: []\n")
        assert run(["validate", "--topology", str(path)]) == cli.EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "subnets: [unclosed", "schema_version: 1\n---\nschema_version: 1\n",
        "schema_version: 1\nsubnets:\n  - {id: 1, hosts: [{local_id: 0, os: 2002-13-45}]}\n",
        'schema_version: !!int "abc"\n', "schema_version: !!float ._e3\n",
        "schema_version: 1\nsubnets: []\nschema_version: 1\n",
    ], ids=["unclosed-sequence", "two-documents", "month-13-os", "tagged-int",
            "tagged-float", "repeated-key"])
    def test_malformed_yaml_is_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "net.yaml"
        path.write_text(text)
        assert run(["validate", "--topology", str(path)]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: malformed YAML at line"), err
        assert err.count("\n") == 1, err

    def test_missing_file(self, tmp_path):
        assert run(["validate", "--topology",
                    str(tmp_path / "nope.yaml")]) == cli.EXIT_IO

    @pytest.mark.parametrize("edit, words", [
        (lambda d: d["allow_rules"][0].pop("peer"), ["allow_rules[0]", "peer"]),
        (lambda d: d.update(allow_rules=5), ["allow_rules", "list"]),
        (lambda d: d.update(sensitive_hosts=5), ["sensitive_hosts", "list"]),
        (lambda d: d["subnets"][0].update(hosts=7), ["subnets[0].hosts", "list"]),
        (lambda d: d["subnets"][1]["hosts"][0]["services"][0].update(cves=3),
         ["subnets[1].hosts[0].services[0].cves", "list"]),
        (lambda d: d["firewalls"][0].update(params="x"),
         ["firewalls[0].params", "mapping"]),
        (lambda d: d["subnets"].__setitem__(1, "subnet-2"),
         ["subnets[1]", "mapping"]),
        (lambda d: d["subnets"][1]["hosts"][0].update(
            discovery_value=float("nan")),
         ["subnets[1].hosts[0].discovery_value", "finite"]),
        (lambda d: d["firewalls"][1].update(params={
            "max_upload_volume": float("nan")}),
         ["firewalls[1].params.max_upload_volume", "finite"]),
        (lambda d: d["subnets"][0]["hosts"][0].update(local_id="0"),
         ["subnets[0].hosts[0].local_id", "integer"]),
        (lambda d: d["firewalls"][0].update(edge=["internet"]),
         ["firewalls[0].edge", "pair"]),
        (lambda d: d.update(adjacency=[[1, 2, 3]]), ["adjacency", "pair"]),
        (lambda d: d.pop("subnets"), ["subnets", "missing"]),
        (lambda d: d["subnets"][1]["hosts"][0].update(discovery_valu=5.0),
         ["subnets[1].hosts[0]", "unknown", "discovery_valu"]),
        (lambda d: d.update(firewall_rules=[]), ["unknown", "firewall_rules"]),
        (lambda d: d["subnets"][1]["hosts"][0].update(is_sensitive=True),
         ["subnets[1].hosts[0]", "unknown", "is_sensitive"]),
        (lambda d: d["subnets"][0]["hosts"][0].update(is_security_product=False),
         ["subnets[0].hosts[0]", "unknown", "is_security_product"]),
        (lambda d: d["allow_rules"].append({"subnet": 1, "peer": 3, "port": 443}),
         ["allow rule between subnets 1 and 3", "not adjacent"]),
    ], ids=["rule-without-peer", "scalar-rules", "scalar-sensitive",
            "scalar-hosts", "scalar-cves", "string-params", "string-subnet",
            "nan-discovery-value", "nan-upload-volume", "string-local-id",
            "one-sided-edge", "triple-edge", "no-subnets", "misspelt-host-key",
            "unknown-top-level-key", "host-sensitive-flag",
            "host-security-product-flag", "non-adjacent-rule"])
    def test_malformed_manifest_entry(self, tmp_path, capsys, edit, words):
        """The tiny manifest with one entry broken fails naming the key."""
        doc = yaml.safe_load(
            (DATA / "scenarios" / "tiny_topology.yaml").read_text())
        edit(doc)
        path = tmp_path / "net.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = run(["validate", "--topology", str(path)])
        assert_invalid(rc, capsys, *words)


    @pytest.mark.parametrize("edit, words", [
        (lambda d: d["firewalls"][0]["params"].update(connect_probability=2),
         ["manifest: firewalls[0].params connect_probability must be in (0, 1], "
          "got 2.0"]),
        (lambda d: d["subnets"][1]["hosts"][0]["services"][0]["cves"][0].update(
            cvss_score=11),
         ["manifest: subnets[1].hosts[0].services[0].cves[0] ",
          "cvss_score must be in [0, 10], got 11.0"]),
        (lambda d: d["subnets"][0]["hosts"][0]["services"][0].update(
            defense_tier="extreme"),
         ["manifest: subnets[0].hosts[0].services[0] ", "defense_tier",
          "'extreme'"]),
        (lambda d: d["subnets"][0].update(id=0),
         ["manifest: subnets[0] subnet id must be positive, got 0"]),
    ], ids=["connect-probability", "cvss-score", "defense-tier", "subnet-id"])
    def test_out_of_range_manifest_value(self, tmp_path, capsys, edit, words):
        """A domain type's range check fails naming the key path."""
        doc = yaml.safe_load(
            (DATA / "scenarios" / "tiny_topology.yaml").read_text())
        edit(doc)
        path = tmp_path / "net.yaml"
        path.write_text(yaml.safe_dump(doc))
        rc = run(["validate", "--topology", str(path)])
        assert_invalid(rc, capsys, *words)


class TestGenerate:
    def test_happy_path(self, tmp_path):
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(GEN_CONFIG)
        out = tmp_path / "net.yaml"
        assert run(["generate", "--config", str(cfg),
                    "--out", str(out)]) == cli.EXIT_OK
        topology = load_topology(out.read_text())
        assert len(topology.hosts()) == 12

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(GEN_CONFIG)
        a, b, c = (tmp_path / n for n in ("a.yaml", "b.yaml", "c.yaml"))
        run(["generate", "--config", str(cfg), "--out", str(a), "--seed", "1"])
        run(["generate", "--config", str(cfg), "--out", str(b), "--seed", "2"])
        run(["generate", "--config", str(cfg), "--out", str(c), "--seed", "1"])
        assert a.read_text() != b.read_text()
        assert a.read_text() == c.read_text()

    def test_invalid_bounds_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(GEN_CONFIG.replace("min_ips_per_subnet: 3",
                                          "min_ips_per_subnet: 9"))
        assert run(["generate", "--config", str(cfg),
                    "--out", str(tmp_path / "x.yaml")]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "min_ips_per_subnet" in err

    @pytest.mark.parametrize("text, words", [
        (GEN_CONFIG + "bogus: 1\n", ["unknown", "bogus"]),
        ("just a string\n", ["mapping"]),
        (GEN_CONFIG.replace("total_ips: 12\n", ""), ["missing", "total_ips"]),
        (GEN_CONFIG.replace("num_subnets: 3", "num_subnets: x"),
         ["num_subnets", "integer"]),
        (GEN_CONFIG.replace("seed: 4", "seed: true"), ["seed", "integer"]),
        (GEN_CONFIG + "graph_shape: [star\n", ["malformed YAML", "line"]),
        (GEN_CONFIG.replace("total_ips: 12", "total_ips: 12.5"),
         ["total_ips", "integer"]),
        (GEN_CONFIG + "graph_shape: 5\n", ["graph_shape", "string"]),
        ("", ["generator config", "mapping"]),
        (GEN_CONFIG.replace("seed: 4", "seed: -1"),
         ["generator config", "seed must be >= 0"]),
    ], ids=["unknown-key", "not-a-mapping", "missing-key", "string-count",
            "boolean-seed", "malformed-yaml", "fractional-count",
            "integer-shape", "empty-document", "negative-seed"])
    def test_bad_config_document(self, tmp_path, capsys, text, words):
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(text)
        rc = run(["generate", "--config", str(cfg),
                  "--out", str(tmp_path / "x.yaml")])
        assert_invalid(rc, capsys, *words)

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == cli.EXIT_USAGE


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = out / "ppo.yaml"
    cfg.write_text(PPO_SMALL)
    rc = run(["train", "--scenario", "tiny", "--config", str(cfg),
              "--out-dir", str(out / "run1"), "--seed", "5"])
    assert rc == cli.EXIT_OK
    return out, cfg


class TestTrainEvalPipeline:
    def test_outputs_exist(self, train_run, tiny_inputs):
        out, _ = train_run
        run_dir = out / "run1"
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "checkpoint_final.npz").exists()
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["topology_sha256"] == topology_sha256(tiny_inputs[0])
        assert manifest["seed"] == 5
        assert manifest["finished_at"] is not None
        # the resolved configs: PPO_SMALL after the --seed override, and tiny
        ppo_cfg = manifest["configs"]["ppo"]
        assert (ppo_cfg["seed"], ppo_cfg["total_steps"], ppo_cfg["horizon"]) == (
            5, 512, 128)
        assert ppo_cfg["hidden"] == [128, 64] and ppo_cfg["stop_reward"] is None
        scenario = manifest["configs"]["scenario"]
        assert scenario["max_steps"] == 150
        assert scenario["sensitive_hosts"] == [[2, 1], [3, 0]]
        assert scenario["action_times"]["sleep"] == 60.0

    def test_manifest_records_the_numpy_build(self, train_run):
        out, _ = train_run
        manifest = json.loads((out / "run1" / "run_manifest.json").read_text())
        build = manifest["build"]
        assert build["numpy"] == np.__version__
        assert build == cli.current_build()
        assert build["blas"] and isinstance(build["simd_found"], list)

    def test_eval_consumes_checkpoint(self, train_run, tiny_inputs):
        out, _ = train_run
        eval_dir = out / "eval1"
        rc = run(["eval", "--checkpoint", str(out / "run1" / "checkpoint_final.npz"),
                  "--scenario", "tiny", "--n", "3",
                  "--out-dir", str(eval_dir), "--seed", "1"])
        assert rc == cli.EXIT_OK
        with open(eval_dir / "traces.jsonl") as fh:
            traces = analysis.read_traces_jsonl(fh)
        assert len(traces) == 3
        manifest = json.loads((eval_dir / "run_manifest.json").read_text())
        assert manifest["configs"]["scenario"]["payload_size_mb"] == 3000.0
        assert manifest["topology_sha256"] == topology_sha256(tiny_inputs[0])
        assert (eval_dir / "summary.csv").exists()
        assert (eval_dir / "upload_times.csv").exists()
        assert (eval_dir / "upload_gaps.csv").exists()

    def test_train_rerun_byte_identical_metrics(self, train_run):
        out, cfg = train_run
        rc = run(["train", "--scenario", "tiny", "--config", str(cfg),
                  "--out-dir", str(out / "run2"), "--seed", "5"])
        assert rc == cli.EXIT_OK
        m1 = (out / "run1" / "metrics.csv").read_bytes()
        m2 = (out / "run2" / "metrics.csv").read_bytes()
        assert m1 == m2

    def test_eval_rerun_byte_identical(self, train_run):
        out, _ = train_run
        ckpt = str(out / "run1" / "checkpoint_final.npz")
        for name in ("evalA", "evalB"):
            rc = run(["eval", "--checkpoint", ckpt, "--scenario", "tiny",
                      "--n", "4", "--out-dir", str(out / name), "--seed", "2"])
            assert rc == cli.EXIT_OK
        for fname in ("traces.jsonl", "summary.csv",
                      "upload_times.csv", "upload_gaps.csv"):
            assert ((out / "evalA" / fname).read_bytes()
                    == (out / "evalB" / fname).read_bytes())

    def test_non_finite_checkpoint_rejected(self, tmp_path, capsys, tiny_inputs):
        env = C2Env(*tiny_inputs)
        params = ppo.init_policy(np.random.default_rng(0), env.obs_len,
                                 env.n_actions, ppo.PpoConfig())
        params.actor.theta[:] = np.nan
        ckpt = tmp_path / "nan.npz"
        ppo.save_policy(ckpt, params)
        rc = run(["eval", "--checkpoint", str(ckpt), "--scenario", "tiny",
                  "--n", "3", "--out-dir", str(tmp_path / "ev")])
        assert_invalid(rc, capsys, "actor_theta", "non-finite")
        assert not (tmp_path / "ev" / "traces.jsonl").exists()

    def test_non_tanh_checkpoint_rejected(self, tmp_path, capsys, tiny_inputs):
        from test_ppo import rewrite_checkpoint

        env = C2Env(*tiny_inputs)
        params = ppo.init_policy(np.random.default_rng(0), env.obs_len,
                                 env.n_actions, ppo.PpoConfig())
        ckpt = tmp_path / "linear.npz"
        ppo.save_policy(ckpt, params)
        rewrite_checkpoint(ckpt, lambda m, a: m["nets"]["actor"].update(
            activation="linear"))
        rc = run(["eval", "--checkpoint", str(ckpt), "--scenario", "tiny",
                  "--n", "3", "--out-dir", str(tmp_path / "ev")])
        assert_invalid(rc, capsys, "checkpoint manifest: nets.actor.activation",
                       "must be 'tanh'", "got 'linear'")
        assert not (tmp_path / "ev" / "traces.jsonl").exists()

    @pytest.mark.parametrize("edit, words", [
        (lambda m: m.update(nets=[]),
         ["checkpoint manifest: nets must be a mapping, got []"]),
        (lambda m: m["nets"]["actor"].update(dims="abc"),
         ["checkpoint manifest: nets.actor.dims must be a list of integers, got 'abc'"]),
        (lambda m: m["opts"]["critic"].update(lr="fast"),
         ["checkpoint manifest: opts.critic.lr must be a finite number, got 'fast'"]),
        (lambda m: m["opts"]["actor"].update(step=1.5),
         ["checkpoint manifest: opts.actor.step must be an integer, got 1.5"]),
    ], ids=["nets-list", "dims-string", "lr-string", "step-float"])
    def test_mistyped_manifest_value_rejected(self, tmp_path, capsys, tiny_inputs,
                                              edit, words):
        from test_ppo import rewrite_checkpoint

        env = C2Env(*tiny_inputs)
        params = ppo.init_policy(np.random.default_rng(0), env.obs_len,
                                 env.n_actions, ppo.PpoConfig())
        ckpt = tmp_path / "mistyped.npz"
        ppo.save_policy(ckpt, params)
        rewrite_checkpoint(ckpt, lambda m, a: edit(m))
        rc = run(["eval", "--checkpoint", str(ckpt), "--scenario", "tiny",
                  "--n", "3", "--out-dir", str(tmp_path / "ev")])
        assert_invalid(rc, capsys, *words)
        assert not (tmp_path / "ev" / "traces.jsonl").exists()

    @pytest.mark.parametrize("damage", ["empty", "npy", "truncated", "flipped", "text"])
    def test_file_that_is_not_a_checkpoint_rejected(self, tmp_path, capsys,
                                                    tiny_inputs, damage):
        env = C2Env(*tiny_inputs)
        good = tmp_path / "good.npz"
        ppo.save_policy(good, ppo.init_policy(np.random.default_rng(0), env.obs_len,
                                              env.n_actions, ppo.PpoConfig()))
        raw = bytearray(good.read_bytes())
        ckpt = tmp_path / "damaged.npz"
        if damage == "empty":
            ckpt.write_bytes(b"")
        elif damage == "npy":
            with open(ckpt, "wb") as fh:
                np.save(fh, np.zeros(3))
        elif damage == "truncated":
            ckpt.write_bytes(raw[:2000])
        elif damage == "flipped":
            # one byte in the middle of a member's data: its CRC fails as
            # the member is read
            with zipfile.ZipFile(good) as zf:
                info = zf.getinfo("actor_m.npy")
            raw[info.header_offset + info.file_size // 2] ^= 0xFF
            ckpt.write_bytes(raw)
        else:
            ckpt.write_text("this is not a checkpoint\n")
        rc = run(["eval", "--checkpoint", str(ckpt), "--scenario", "tiny",
                  "--n", "3", "--out-dir", str(tmp_path / "ev")])
        assert_invalid(rc, capsys, "not a checkpoint: ")
        assert not (tmp_path / "ev" / "traces.jsonl").exists()

    def test_checkpoint_topology_mismatch_rejected(self, train_run, tmp_path):
        out, _ = train_run
        gen_cfg = tmp_path / "gen.yaml"
        gen_cfg.write_text(GEN_CONFIG)
        other_net = tmp_path / "other.yaml"
        run(["generate", "--config", str(gen_cfg), "--out", str(other_net)])
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            "schema_version: 1\n"
            f"topology: {other_net.name}\n"
            "initial_foothold: [1, 0]\n"
            "sensitive_hosts: [[1, 0]]\n"
            "payload_size_mb: 100\n"
        )
        rc = run(["eval", "--checkpoint",
                  str(out / "run1" / "checkpoint_final.npz"),
                  "--scenario", str(scenario),
                  "--out-dir", str(tmp_path / "ev"), "--seed", "0"])
        assert rc == cli.EXIT_INVALID


class TestConfigErrors:
    def test_unknown_ppo_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "ppo.yaml"
        cfg.write_text(PPO_SMALL + "learning_rate: 0.1\n")
        rc = run(["train", "--scenario", "tiny", "--config", str(cfg),
                  "--out-dir", str(tmp_path / "out")])
        assert rc == cli.EXIT_INVALID
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("text, words", [
        ("- 1\n", ["mapping"]),
        (PPO_SMALL + "1: 2\n", ["unknown", "1"]),
        (PPO_SMALL.replace("horizon: 128", "horizon: abc"), ["horizon", "integer"]),
        (PPO_SMALL + "actor_lr: fast\n", ["actor_lr", "number"]),
        (PPO_SMALL + "stop_reward: [1]\n", ["stop_reward", "number"]),
        ("actor_lr: [\n", ["malformed YAML", "line 2"]),
        (PPO_SMALL.replace("horizon: 128", "horizon: 128.5"), ["horizon", "integer"]),
        (PPO_SMALL.replace("seed: 5", "seed: true"), ["seed", "integer"]),
        (PPO_SMALL + "gamma: true\n", ["gamma", "number"]),
        (PPO_SMALL + "hidden: [64, x]\n", ["hidden[1]", "integer"]),
        (PPO_SMALL + "actor_lr: .nan\n", ["actor_lr", "number", "nan"]),
        (PPO_SMALL + "stop_reward: .NaN\n", ["stop_reward", "number", "nan"]),
        (PPO_SMALL + "actor_lr: .inf\n", ["actor_lr", "finite", "inf"]),
        ("defaults: &d {horizon: 128}\n<<: *d\n",
         ["malformed YAML at line 2", "merge"]),
        (PPO_SMALL.replace("seed: 5", "seed: 2002-13-45"),
         ["malformed YAML at line 7", "cannot read '2002-13-45' as !!timestamp"]),
        (PPO_SMALL.replace("seed: 5", 'seed: !!int "abc"'),
         ["malformed YAML at line 7", "cannot read 'abc' as !!int"]),
        (PPO_SMALL + "actor_lr: !!float ._e3\n",
         ["malformed YAML at line 8", "cannot read '._e3' as !!float"]),
        # no digit after the dot: a string, as in YAML 1.1, not a float
        (PPO_SMALL + "actor_lr: ._e3\n", ["actor_lr", "number", "'._e3'"]),
        (PPO_SMALL + "stop_window: 0\n", ["PPO config", "stop_window", "positive"]),
        (PPO_SMALL.replace("seed: 5", "seed: -1"), ["PPO config", "seed must be >= 0"]),
        (PPO_SMALL + "checkpoint_interval: -64\n",
         ["PPO config", "checkpoint_interval must be >= 0"]),
        (PPO_SMALL + "entropy_coef: -1.0\n",
         ["PPO config", "entropy_coef must be >= 0"]),
        (PPO_SMALL.replace("total_steps: 512", "total_steps: 100"),
         ["PPO config", "total_steps (100) must be 0 or at least one horizon (128)"]),
        # gradient clipping, unnormalized advantages and a sparser metric
        # cadence are not options: their keys are unknown like any other
        (PPO_SMALL + "grad_clip: 0.5\n", ["unknown key", "grad_clip"]),
        (PPO_SMALL + "normalize_advantages: false\n",
         ["unknown key", "normalize_advantages"]),
        (PPO_SMALL + "eval_interval: 4096\n", ["unknown key", "eval_interval"]),
    ], ids=["list-document", "integer-key", "string-horizon", "string-rate",
            "list-stop-reward", "malformed-yaml",
            "fractional-horizon", "boolean-seed", "boolean-rate",
            "string-width", "nan-rate", "nan-stop-reward", "infinite-rate",
            "merge-key", "month-13", "tagged-int", "tagged-float",
            "fraction-only-exponent", "zero-stop-window", "negative-seed",
            "negative-checkpoint-interval", "negative-entropy-coef",
            "total-steps-below-horizon", "grad-clip-key",
            "normalize-advantages-key", "eval-interval-key"])
    def test_bad_ppo_config_document(self, tmp_path, capsys, text, words):
        cfg = tmp_path / "ppo.yaml"
        cfg.write_text(text)
        rc = run(["train", "--scenario", "tiny", "--config", str(cfg),
                  "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, *words)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("steps, words", [
        ("100", ["--total-steps 100: PPO config total_steps (100) must be 0 or "
                 "at least one horizon (4096)"]),
        ("-5", ["--total-steps -5: PPO config total_steps must be >= 0"]),
    ], ids=["below-horizon", "negative"])
    def test_bad_total_steps_flag(self, tmp_path, capsys, steps, words):
        # the flag overrides the PPO config after it is read, and its
        # refusal names both
        rc = run(["train", "--scenario", "tiny", "--total-steps", steps,
                  "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, *words)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, seed", [
        ("generate", "-3"), ("train", "-1"), ("eval", "-2")])
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, command, seed):
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(GEN_CONFIG)
        out = tmp_path / "out"
        argv = {"generate": ["--config", str(cfg), "--out", str(out)],
                "train": ["--scenario", "tiny", "--out-dir", str(out)],
                "eval": ["--checkpoint", str(tmp_path / "ckpt.npz"),
                         "--scenario", "tiny", "--out-dir", str(out)]}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *argv, "--seed", seed])
        assert exc.value.code == cli.EXIT_USAGE
        assert f"argument --seed: must be >= 0, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_eval_n_below_one_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--checkpoint", str(tmp_path / "ckpt.npz"),
                 "--scenario", "tiny", "--n", n, "--out-dir", str(out)])
        assert exc.value.code == cli.EXIT_USAGE
        assert f"argument --n: must be >= 1, got {n}" in capsys.readouterr().err
        assert not (out / "run_manifest.json").exists()

    @pytest.mark.parametrize("text, words", [
        ("just a string\n", ["mapping"]),
        ("initial_foothold: 5\nsensitive_hosts: [[1, 0]]\n",
         ["initial_foothold", "pair"]),
        ("initial_foothold: [1, 0, 2]\nsensitive_hosts: [[1, 0]]\n",
         ["initial_foothold", "pair"]),
        ("initial_foothold: [1, 0]\nsensitive_hosts: [3]\n",
         ["sensitive_hosts", "pair"]),
        ("initial_foothold: [1, 0]\nsensitive_hosts: [[1, x]]\n",
         ["sensitive_hosts", "pair"]),
        ("initial_foothold: [1, 0]\nsensitive_hosts: 7\n",
         ["sensitive_hosts", "pair"]),
        ("initial_foothold: [1, 0]\nsensitive_hosts: [[1, 0]]\nupload_rates: 5\n",
         ["upload_rates", "mapping"]),
        ("initial_foothold: [1, 0]\nsensitive_hosts: {\n",
         ["malformed YAML", "line 3"]),
        (SCENARIO + "action_times: {sleep: abc}\n", ["action_times.sleep", "number"]),
        (SCENARIO + "decay_factor: [1]\n", ["decay_factor", "number"]),
        (SCENARIO + "rewards: {connection: abc}\n", ["rewards.connection", "number"]),
        (SCENARIO + "max_steps: 1.9\n", ["max_steps", "integer"]),
        (SCENARIO + "max_steps: true\n", ["max_steps", "integer"]),
        (SCENARIO + 'cvss_scaled_exploits: "no"\n', ["cvss_scaled_exploits"]),
        (SCENARIO + "payload_size_mb: abc\n", ["payload_size_mb", "number"]),
        (SCENARIO + "upload_rates: {fast: abc, slow: 1}\n",
         ["upload_rates.fast", "number"]),
        (SCENARIO + "upload_rates: {fast: 1000, slow: 10, turbo: 5000}\n",
         ["upload_rates", "unknown", "turbo"]),
        (SCENARIO + "bogus: 1\n", ["unknown", "bogus"]),
        (SCENARIO + "schema_version: 2\n", ["schema_version", "1"]),
        (SCENARIO + "topology: 5\n", ["topology", "string"]),
        (SCENARIO + "payload_size_mb: .nan\n", ["payload_size_mb", "nan"]),
        (SCENARIO + "action_times: {sleep: .nan}\n", ["action_times.sleep", "nan"]),
        (SCENARIO + "payload_size_mb: .inf\n", ["payload_size_mb", "finite"]),
        (SCENARIO + "max_steps: 50\nmax_steps: 60\n",
         ["malformed YAML at line 4", "duplicate key 'max_steps'"]),
        (SCENARIO + "decay_factor: 2\n",
         ["scenario decay_factor must be in (0, 1)"]),
        (SCENARIO + "action_times: {sleep: -1}\n",
         ["scenario action_times.sleep must be >= 0"]),
    ], ids=["not-a-mapping", "scalar-foothold", "triple-foothold",
            "scalar-target", "string-local-id", "scalar-targets",
            "scalar-upload-rates", "malformed-yaml", "string-action-time",
            "list-decay", "string-reward", "fractional-max-steps",
            "boolean-max-steps", "string-flag", "string-payload",
            "string-upload-rate", "unknown-upload-rate", "unknown-key",
            "schema-version-2", "integer-topology",
            "nan-payload", "nan-action-time", "infinite-payload",
            "repeated-key", "decay-above-one", "negative-action-time"])
    def test_bad_scenario_document(self, tmp_path, capsys, text, words):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(text)
        rc = run(["train", "--scenario", str(scenario),
                  "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, *words)

    @pytest.mark.parametrize("key", ["initial_foothold", "sensitive_hosts"])
    def test_scenario_missing_required_key(self, tmp_path, capsys, key):
        doc = {"initial_foothold": "[1, 0]", "sensitive_hosts": "[[1, 0]]"}
        del doc[key]
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("".join(f"{k}: {v}\n" for k, v in doc.items()))
        rc = run(["train", "--scenario", str(scenario),
                  "--out-dir", str(tmp_path / "out")])
        assert rc == cli.EXIT_INVALID
        assert key in capsys.readouterr().err


    @pytest.mark.parametrize("hidden", ["5", "[0]", "[64, -1]", "[true]"])
    def test_bad_hidden_layer_widths(self, tmp_path, capsys, hidden):
        cfg = tmp_path / "ppo.yaml"
        cfg.write_text(PPO_SMALL + f"hidden: {hidden}\n")
        rc = run(["train", "--scenario", "tiny", "--config", str(cfg),
                  "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, "hidden")

    @pytest.mark.parametrize("table, key", [("rewards", "bonus"),
                                            ("action_times", "scan")])
    def test_unknown_scenario_table_key(self, tmp_path, capsys, table, key):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text("initial_foothold: [1, 0]\n"
                            "sensitive_hosts: [[1, 0]]\n"
                            f"{table}: {{{key}: 5}}\n")
        rc = run(["train", "--scenario", str(scenario),
                  "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, table, key)


def complete_trace(env):
    """A complete tiny trace: the optimal route plus one repeated step."""
    from test_analysis import OPTIMAL_PREFIX, OPTIMAL_UPLOADS, lucky_seed

    return analysis.replay_trace(
        env, lucky_seed(env),
        OPTIMAL_PREFIX + [OPTIMAL_PREFIX[5]] + OPTIMAL_UPLOADS)


class TestAnalyze:
    def test_analyze_with_prune_and_timing(self, tmp_path, tiny_inputs):
        trace = complete_trace(C2Env(*tiny_inputs))
        traces_path = tmp_path / "traces.jsonl"
        with open(traces_path, "w") as fh:
            analysis.write_traces_jsonl([trace], fh)

        out_dir = tmp_path / "out"
        rc = run(["analyze", "--traces", str(traces_path),
                  "--prune", "--timing", "--scenario", "tiny",
                  "--out-dir", str(out_dir)])
        assert rc == cli.EXIT_OK
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["configs"]["scenario"]["topology_ref"] == "tiny_topology.yaml"
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "upload_gaps.csv").exists()
        with open(out_dir / "pruned_best.jsonl") as fh:
            pruned = analysis.read_traces_jsonl(fh)[0]
        assert pruned.n_steps == trace.n_steps - 1

    def test_topology_hash_ignores_manifest_layout(self, tmp_path, tiny_inputs):
        """``--scenario tiny`` and ``--topology`` on a reformatted copy of
        its manifest record the same topology_sha256."""
        traces_path = tmp_path / "traces.jsonl"
        with open(traces_path, "w") as fh:
            analysis.write_traces_jsonl([complete_trace(C2Env(*tiny_inputs))], fh)
        scenario = tmp_path / "tiny.yaml"
        scenario.write_text((DATA / "scenarios" / "tiny.yaml").read_text())
        original = (DATA / "scenarios" / "tiny_topology.yaml").read_text()
        reformatted = tmp_path / "net.yaml"
        reformatted.write_text(yaml.safe_dump(
            yaml.safe_load(original), default_flow_style=True, width=60))
        assert reformatted.read_text() != original

        hashes = []
        for name, inputs in (("bundled", ["--scenario", "tiny"]),
                             ("copy", ["--scenario", str(scenario),
                                       "--topology", str(reformatted)])):
            rc = run(["analyze", "--traces", str(traces_path), *inputs,
                      "--out-dir", str(tmp_path / name)])
            assert rc == cli.EXIT_OK
            manifest = json.loads(
                (tmp_path / name / "run_manifest.json").read_text())
            hashes.append(manifest["topology_sha256"])
        assert hashes == [topology_sha256(tiny_inputs[0])] * 2

        rc = run(["analyze", "--traces", str(traces_path),
                  "--out-dir", str(tmp_path / "no-env")])
        assert rc == cli.EXIT_OK
        manifest = json.loads(
            (tmp_path / "no-env" / "run_manifest.json").read_text())
        assert manifest["topology_sha256"] is None

    def test_prune_without_scenario(self, tmp_path, capsys, tiny_inputs):
        env = C2Env(*tiny_inputs)
        traces_path = tmp_path / "traces.jsonl"
        with open(traces_path, "w") as fh:
            analysis.write_traces_jsonl(
                [analysis.replay_trace(env, 0, [env.actions[-1]])], fh)
        rc = run(["analyze", "--traces", str(traces_path), "--prune",
                  "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, "--scenario")

    @pytest.mark.parametrize("line, words", [
        ('{"record": "step", "trace": 0, "step": 0}', ("line 1", "before")),
        ('{"type": "step", "step": 0}', ("line 1", "record")),
        ('[1, 2]', ("line 1", "object")),
        ('{"record": "trace",', ("line 1", "not JSON")),
        ('{"record": "trace", "trace": [1], "seed": 1, "terminal_status": {}}',
         ("line 1", "trace", "integer")),
        ('{"record": "trace", "trace": 0, "seed": 1, "terminal_status": []}',
         ("line 1", "terminal_status", "mapping")),
        ('{"record": "trace", "trace": 0, "seed": 1, '
         '"terminal_status": {"x": "completed"}}',
         ("line 1", "terminal_status", "'x'")),
        ('{"record": "stpe", "trace": 0, "step": 0}',
         ("line 1", "unknown record", "'stpe'")),
        ('{"record": "trace", "trace": 0, "seed": 1, "terminal_status": {}}\n'
         '{"record": "trace", "trace": 0, "seed": 2, "terminal_status": {}}',
         ("line 2", "trace 0", "twice")),
        ('{"record": "trace", "trace": 0, "seed": -5, "terminal_status": {}}',
         ("line 1: seed must be >= 0, got -5",)),
        ('{"record": "trace", "trace": -7, "seed": 1, "terminal_status": {}}',
         ("line 1: trace must be >= 0, got -7",)),
    ])
    def test_malformed_traces_file(self, tmp_path, capsys, line, words):
        traces_path = tmp_path / "traces.jsonl"
        traces_path.write_text(line + "\n")
        rc = run(["analyze", "--traces", str(traces_path),
                  "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, *words)

    # line 1 is the trace record; line 2 holds step 0, a subnet scan, lines 3
    # and 5 steps 1 and 3, exploits, and line 10 step 8, an upload
    @pytest.mark.parametrize("line, field, value, words", [
        (3, "action", "teleport", ("line 3", "unknown action", "teleport")),
        (3, "target", 5, ("line 3", "target", "pair")),
        (3, "target", [99, 99], ("step 1", "(99, 99)", "not in the topology")),
        (10, "rate", "medium", ("step 8", "upload rate", "medium")),
        (3, "vulnerability", "CVE-0000-0000", ("step 1", "CVE-0000-0000")),
        (5, "vulnerability", "CVE-9999-0001", ("step 3", "CVE-9999-0001")),
        (3, "reward", "abc", ("line 3", "reward", "number")),
        (3, "clock", None, ("line 3", "clock", "number")),
        (3, "step", 1.5, ("line 3", "step", "integer")),
        (1, "seed", "7", ("line 1", "seed", "integer")),
        (3, "clock", float("nan"), ("line 3", "clock", "finite")),
        (1, "emergencies", "many", ("line 1", "emergencies", "integer")),
        (1, "terminal_status", {"2,1": 5, "3,0": "completed"},
         ("line 1", "terminal_status", "string")),
        (3, "record", "stpe", ("line 3", "unknown record", "'stpe'")),
        (3, "record", "trace", ("line 3", "trace 0", "twice")),
        (1, "seed", -5, ("line 1: seed must be >= 0, got -5",)),
        (1, "emergencies", -1, ("line 1: emergencies must be >= 0, got -1",)),
        (3, "step", -1, ("line 3: step must be >= 0, got -1",)),
        (2, "n_discovered", -2, ("line 2: n_discovered must be >= 0, got -2",)),
        (3, "vulnerability", DELETED, ("line 3: exploit step has no vulnerability",)),
        (10, "rate", DELETED, ("line 10: upload step has no rate",)),
    ], ids=["unknown-action", "scalar-target", "unknown-host", "unknown-rate",
            "unknown-cve", "unknown-cve-step-3", "string-reward", "null-clock",
            "fractional-step", "string-seed", "nan-clock", "string-emergencies",
            "integer-status", "misspelt-record", "repeated-trace", "negative-seed",
            "negative-emergencies", "negative-step", "negative-n-discovered",
            "exploit-without-cve", "upload-without-rate"])
    def test_corrupt_line_in_pruned_trace(self, tmp_path, capsys, tiny_inputs,
                                          line, field, value, words):
        with open(tmp_path / "good.jsonl", "w") as fh:
            analysis.write_traces_jsonl([complete_trace(C2Env(*tiny_inputs))], fh)
        lines = (tmp_path / "good.jsonl").read_text().splitlines()
        row = json.loads(lines[line - 1])
        if value is DELETED:
            del row[field]
        else:
            row[field] = value
        lines[line - 1] = json.dumps(row)
        traces_path = tmp_path / "traces.jsonl"
        traces_path.write_text("\n".join(lines) + "\n")
        rc = run(["analyze", "--traces", str(traces_path), "--prune",
                  "--scenario", "tiny", "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, *words)

    def test_prune_that_misses_the_recorded_statuses(self, tmp_path, capsys,
                                                     tiny_inputs):
        # one upload to each target, recorded as complete: deleting steps
        # cannot finish either payload
        from test_analysis import OPTIMAL_PREFIX, OPTIMAL_UPLOADS, lucky_seed

        env = C2Env(*tiny_inputs)
        trace = analysis.replay_trace(env, lucky_seed(env),
                                      OPTIMAL_PREFIX + OPTIMAL_UPLOADS[:2])
        assert trace.classification() == "none"
        trace.terminal_status = dict.fromkeys(trace.terminal_status, "completed")
        traces_path = tmp_path / "traces.jsonl"
        with open(traces_path, "w") as fh:
            analysis.write_traces_jsonl([trace], fh)
        rc = run(["analyze", "--traces", str(traces_path), "--prune",
                  "--scenario", "tiny", "--out-dir", str(tmp_path / "out")])
        assert_invalid(rc, capsys, "pruned trace reaches", "'incomplete'",
                       "original was")
        assert not (tmp_path / "out" / "pruned_best.jsonl").exists()

    def test_analyze_without_traces_file(self, tmp_path):
        rc = run(["analyze", "--traces", str(tmp_path / "missing.jsonl"),
                  "--out-dir", str(tmp_path / "out")])
        assert rc == cli.EXIT_IO


class _Overrun(Exception):
    """A run went past its wall-clock budget."""


def run_within(seconds, argv):
    """``run(argv)``, interrupted with _Overrun if it takes longer than
    ``seconds`` of wall-clock time."""
    def overrun(signum, frame):
        raise _Overrun(f"c2sim {argv[0]} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNoValueHangsAStep:
    """Values that load-time checks accept cannot hang a step: a firewall
    jumps all the update periods a step carries it past at once. Pruning
    the committed traces under these values ends with exit 0, or 3 when
    the shortened trace no longer verifies."""

    def analyze(self, tmp_path, scenario, topology):
        (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(scenario))
        (tmp_path / "net.yaml").write_text(yaml.safe_dump(topology))
        return run_within(10, [
            "analyze", "--traces", str(TRACES_FIXTURE), "--prune",
            "--scenario", str(tmp_path / "scenario.yaml"),
            "--topology", str(tmp_path / "net.yaml"),
            "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("kind", ["subnet_scan", "exploit", "connect",
                                      "upload", "sleep", "erroneous"])
    def test_huge_action_time(self, tmp_path, kind):
        scenario = yaml.safe_load((DATA / "scenarios" / "tiny.yaml").read_text())
        scenario["action_times"][kind] = 1e30
        topology = yaml.safe_load((DATA / "scenarios" / "tiny_topology.yaml").read_text())
        rc = self.analyze(tmp_path, scenario, topology)
        assert rc in (cli.EXIT_OK, cli.EXIT_INVALID)

    def test_tiny_update_period(self, tmp_path):
        scenario = yaml.safe_load((DATA / "scenarios" / "tiny.yaml").read_text())
        topology = yaml.safe_load((DATA / "scenarios" / "tiny_topology.yaml").read_text())
        for fw in topology["firewalls"]:
            fw["params"]["update_frequency"] = 1.0e-9
        rc = self.analyze(tmp_path, scenario, topology)
        assert rc in (cli.EXIT_OK, cli.EXIT_INVALID)
        # the period passes the manifest's own checks
        assert run(["validate", "--topology", str(tmp_path / "net.yaml")]) == cli.EXIT_OK


def test_every_input_error_is_a_value_error():
    # cli.main maps exit 3 from ValueError alone
    errors = [TopologyError, ManifestParseError, UnreachableSubnetError,
              ScenarioError, netgen.GenerationError, netgen.ReferenceDataError,
              ppo.CheckpointError, analysis.PruneDivergenceError,
              neural.ShapeMismatchError, analysis.TraceFormatError,
              analysis.TraceReplayError]
    assert [e for e in errors if not issubclass(e, ValueError)] == []


def document_nodes(doc, path=()):
    """The key path of every node of a parsed document, the root first."""
    yield path
    if type(doc) is dict:
        items = doc.items()
    elif type(doc) is list:
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from document_nodes(value, (*path, key))



def mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value`` or,
    for DELETED, removed (DELETED for the root removed)."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutated_text(doc, path, value) -> str:
    """``mutated(doc, path, value)`` as YAML (the root removed is an empty
    document)."""
    doc = mutated(doc, path, value)
    return "" if doc is DELETED else yaml.safe_dump(doc)


class TestRefusalByProperty:
    """Any one node of an input document replaced by an odd value, or
    deleted, gives exit 0, 3 or 4, with one stderr line on failure: never a
    traceback or a hang. PPO configs are only parsed, since an absurd one
    could ask for more memory than training can have."""

    TOPOLOGY = DATA / "scenarios" / "tiny_topology.yaml"
    DOCUMENTS = {
        "scenario": yaml.safe_load((DATA / "scenarios" / "tiny.yaml").read_text()),
        "topology": yaml.safe_load(TOPOLOGY.read_text()),
        "generator config": yaml.safe_load(GEN_CONFIG),
        "PPO config": yaml.safe_load(PPO_SMALL),
    }
    VALUES = [None, "x", -1, 0, 1e30, float("nan"), float("inf"), [], {}, True,
              DELETED]

    def argv(self, name, path, out):
        """The command that reads document ``name``, written at ``path``."""
        if name == "scenario":
            return ["analyze", "--traces", str(TRACES_FIXTURE), "--prune",
                    "--scenario", path, "--topology", str(self.TOPOLOGY),
                    "--out-dir", out]
        if name == "topology":
            return ["validate", "--topology", path]
        return ["generate", "--config", path, "--out", f"{out}/net.yaml"]

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.sampled_from(sorted(DOCUMENTS)).flatmap(lambda name: st.tuples(
        st.just(name), st.sampled_from(list(document_nodes(
            TestRefusalByProperty.DOCUMENTS[name]))),
        st.sampled_from(TestRefusalByProperty.VALUES))))
    def test_one_node_mutated(self, mutation):
        name, path, value = mutation
        text = mutated_text(self.DOCUMENTS[name], path, value)
        if name == "PPO config":
            try:
                ppo.PpoConfig.from_yaml(text)
            except ValueError as exc:
                assert "\n" not in str(exc)
            return
        with tempfile.TemporaryDirectory() as tmp:
            doc = f"{tmp}/document.yaml"
            with open(doc, "w") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = run_within(10, self.argv(name, doc, f"{tmp}/out"))
        assert rc in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_IO)
        if rc != cli.EXIT_OK:
            assert err.getvalue().count("\n") == 1, err.getvalue()

    TRACE_ROWS = [json.loads(line) for line in TRACES_FIXTURE.read_text().splitlines()]
    # the step lines of trace 0, the complete trace that --prune replays
    STEP_LINES = [i for i, row in enumerate(TRACE_ROWS)
                  if row["record"] == "step" and row["trace"] == 0]
    # besides the odd values, ones that fit a step's fields: another action
    # kind, rate, CVE id (of the network, or of none) or target (on the
    # network, or off it), so that replays step actions outside the space
    STEP_VALUES = VALUES + ["exploit", "upload", "connect", "sleep", "fast",
                            "slow", "medium", "CVE-2019-15920", "CVE-2020-1259",
                            "CVE-1999-0001", [3, 0], [2, 1], [1, 0], [9, 9]]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(STEP_LINES).flatmap(lambda line: st.tuples(
        st.just(line), st.sampled_from(list(document_nodes(
            TestRefusalByProperty.TRACE_ROWS[line]))),
        st.sampled_from(TestRefusalByProperty.STEP_VALUES))))
    def test_one_node_of_a_trace_step_mutated(self, mutation):
        # the committed traces, one node of one step line replaced or
        # deleted (the whole line, for the root), then pruned
        line, path, value = mutation
        row = mutated(self.TRACE_ROWS[line], path, value)
        rows = [*self.TRACE_ROWS[:line], *([] if row is DELETED else [row]),
                *self.TRACE_ROWS[line + 1:]]
        with tempfile.TemporaryDirectory() as tmp:
            traces = f"{tmp}/traces.jsonl"
            with open(traces, "w") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in rows)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = run_within(10, [
                    "analyze", "--traces", traces, "--prune", "--scenario",
                    str(DATA / "scenarios" / "tiny.yaml"), "--topology",
                    str(self.TOPOLOGY), "--out-dir", f"{tmp}/out"])
        assert rc in (cli.EXIT_OK, cli.EXIT_INVALID)
        if rc != cli.EXIT_OK:
            assert err.getvalue().count("\n") == 1, err.getvalue()
