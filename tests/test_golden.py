"""Golden digests of the seeded tiny CLI chain, of the enterprise101
manifest, of a scripted attacker on enterprise101, and of pruning a
committed traces file.

    train --scenario tiny --seed 7 --total-steps 8192
    -> eval --n 20 --seed 3
    -> analyze --timing --prune --scenario tiny

runs in process, and the sha256 of every output is compared with the
digests recorded below: the CSV and JSON-lines files byte for byte, and the
final checkpoint member by member (``np.savez`` stamps the zip entries with
the time of writing, so the archive's own bytes vary). ``run_manifest.json``
holds timestamps and paths and is not compared.

Training rounds through matmul, ``tanh`` and ``exp``, whose last bits depend
on the numpy build, its BLAS and the SIMD kernels numpy picks for the CPU.
``RECORDED_BUILD`` is that configuration from ``np.show_config`` where the
digests were recorded (with ``OPENBLAS_NUM_THREADS=1``; one and two threads
give the same digests there). On a build that differs, a digest mismatch is
reported as a skip naming both builds; the digests are never re-recorded by
the test. Re-recording needs a line in CHANGES.md saying why the output
changed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from c2sim import cli, scenarios
from c2sim.c2_env import C2Env
from c2sim.cli import current_build
from c2sim.net_model import load_topology, save_topology

RECORDED_BUILD = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "openblas_configuration":
        "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell "
        "MAX_THREADS=64",
    "simd_found": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}

DIGESTS = {
    "train/metrics.csv":
        "a3633a5c76bd8cf711f5bf538550ab28be28931cb92a101181eebcf7c3c8b7d6",
    "train/checkpoint_final.npz:actor_m":
        "cdd139a8b142313476aef1506cf58e5cba35cd2bf8a5ccd4dc2d2578f137f5d3",
    "train/checkpoint_final.npz:actor_theta":
        "4b4bee27483960db3f39aff5ce0a59fb9adfbb12453d51b51412a616f4e90477",
    "train/checkpoint_final.npz:actor_v":
        "426de4e0521ab6fbb2a3cd9b0db77fbfc7db803db7ed373c01ee2709a7277b0d",
    "train/checkpoint_final.npz:critic_m":
        "14e4131ae881de536b1b641e60f17475a3adb801792bbc75d81890d90b2661d2",
    "train/checkpoint_final.npz:critic_theta":
        "ed4d215318fa01a2b7606683f0c858b2567f9a3413b1eaa8497a7bcda67d7f1e",
    "train/checkpoint_final.npz:critic_v":
        "183acf9f4db4fd2052b5a02a46632b71235a70156f7b385001131843b2dc1886",
    "train/checkpoint_final.npz:manifest":
        "9cd1352a450039fa9b3105eb1af475df49f0186f2a10c842a3794cf39aa47135",
    "eval/traces.jsonl":
        "db7c995b76333dd99c9c8edd846e6a6454c0879b4399ee88f4f8c621447e28c0",
    "eval/summary.csv":
        "618809a5afc1413d1f0e02cd1f78522a0f8100d4d14b0104bb708a32427b2070",
    "eval/upload_times.csv":
        "79189552dc3306d81f6af9b5815527406285ff50b8e73e7e546bd7dc330daf16",
    "eval/upload_gaps.csv":
        "c44848ef10ab8966eb1b4ebe5eca020d465bee846857e5cafd0d512d87f72ad3",
    "analyze/summary.csv":
        "618809a5afc1413d1f0e02cd1f78522a0f8100d4d14b0104bb708a32427b2070",
    "analyze/upload_times.csv":
        "79189552dc3306d81f6af9b5815527406285ff50b8e73e7e546bd7dc330daf16",
    "analyze/upload_gaps.csv":
        "c44848ef10ab8966eb1b4ebe5eca020d465bee846857e5cafd0d512d87f72ad3",
    "analyze/pruned_best.jsonl":
        "0f24327aacce30b5fba3570d27aeb23ffda99b94e8f88491ead21443a5876eba",
}


# Traces 8 and 11 of the chain's eval/traces.jsonl (one complete, one with
# two emergencies), as write_traces_jsonl writes them.
TRACES_FIXTURE = Path(__file__).parent / "data" / "traces.jsonl"

# The benchmark's enterprise-campaign attacker, read from its own file so
# that the digest below follows the code the benchmark runs.
ATTACKER_PY = Path(__file__).parents[1] / "perfbench" / "attacker.py"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def chain_digests(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    checkpoint = out / "train" / "checkpoint_final.npz"
    traces = out / "eval" / "traces.jsonl"
    for argv in (
        ["train", "--scenario", "tiny", "--seed", "7", "--total-steps", "8192",
         "--out-dir", str(out / "train")],
        ["eval", "--checkpoint", str(checkpoint), "--scenario", "tiny",
         "--n", "20", "--seed", "3", "--out-dir", str(out / "eval")],
        ["analyze", "--traces", str(traces), "--timing", "--prune",
         "--scenario", "tiny", "--out-dir", str(out / "analyze")],
    ):
        assert cli.main(argv) == cli.EXIT_OK, argv
    digests = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.name == "run_manifest.json" or not path.is_file():
            continue
        if path.suffix == ".npz":
            with np.load(path) as members:
                for key in members.files:
                    digests[f"{name}:{key}"] = sha256(members[key].tobytes())
        else:
            digests[name] = sha256(path.read_bytes())
    return digests


def test_chain_writes_exactly_the_recorded_outputs(chain_digests):
    assert sorted(chain_digests) == sorted(DIGESTS)


def test_chain_outputs_match_recorded_digests(chain_digests):
    changed = sorted(k for k, v in DIGESTS.items() if chain_digests.get(k) != v)
    if not changed:
        return
    build = current_build()
    if build != RECORDED_BUILD:
        differs = {k: build.get(k) for k in RECORDED_BUILD
                   if build.get(k) != RECORDED_BUILD[k]}
        pytest.skip(f"outputs {changed} differ on a build unlike the recorded "
                    f"one ({differs}; recorded {RECORDED_BUILD}); digests not "
                    f"compared and not re-recorded")
    pytest.fail(f"seeded outputs changed on the recorded build: {changed}")


def test_enterprise101_manifest_is_byte_identical():
    """The full-scale manifest involves no BLAS, so its digest is a hard
    assert on every build; loading it gives back the generated network."""
    topology, _ = scenarios.enterprise101()
    manifest = save_topology(topology).encode("utf-8")
    assert len(manifest) == 1_130_710
    assert sha256(manifest) == (
        "9c9dcfff4a20a21f26080ea2d0908c83647b36486badf16be1f310b94856254c")
    assert load_topology(manifest.decode("utf-8")) == topology


def test_prune_of_committed_traces_is_byte_identical(tmp_path):
    """``analyze --prune`` replays the environment alone, with no BLAS, so
    its digests are a hard assert on every build. The best trace is the
    chain's best, so the pruned trace is the chain's too."""
    out = tmp_path / "analyze"
    assert cli.main(["analyze", "--traces", str(TRACES_FIXTURE), "--prune",
                     "--scenario", "tiny", "--out-dir", str(out)]) == cli.EXIT_OK
    pruned = sha256((out / "pruned_best.jsonl").read_bytes())
    assert pruned == DIGESTS["analyze/pruned_best.jsonl"]
    assert sha256((out / "summary.csv").read_bytes()) == (
        "e0beb229f705a8845e14a7ec17d84506ffcd80f9aaaf8c90b77227ac0bae09d2")


def _scripted_attacker_class():
    spec = importlib.util.spec_from_file_location("_perfbench_attacker", ATTACKER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ScriptedAttacker


def test_enterprise101_scripted_attacker_is_byte_identical():
    """Two seeded 1,500-step episodes of the benchmark's scripted attacker on
    the reloaded enterprise101 manifest: every observation, reward, done
    flag and info dict. The env does no BLAS work, so the digest is a hard
    assert on every build."""
    generated, scenario = scenarios.enterprise101()
    env = C2Env(load_topology(save_topology(generated)), scenario)
    attacker = _scripted_attacker_class()(
        env.actions, scenario.initial_foothold, scenario.payload_size_mb,
        np.random.default_rng(5))
    digest = hashlib.sha256()
    for episode in range(2):
        digest.update(env.reset(seed=episode))
        attacker.reset()
        for _ in range(1_500):
            obs, reward, done, info = env.step(attacker.act())
            attacker.observe(info)
            digest.update(obs)  # its bytes, without a copy
            digest.update(json.dumps([reward, done, info]).encode())
            if done:
                break
    assert digest.hexdigest() == (
        "ac5317bb00e309b88bcea133319a660b85a19185472f08272f59cd246f1c1138")
