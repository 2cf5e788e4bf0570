"""Smoke test of the benchmark: every workload, small, through its own code.

    python3 -m pytest perfbench/test_smoke.py -q

Takes about a minute, most of it the enterprise101 manifest round-trip.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SMALL = {
    "tiny-train": dict(iterations=1),
    "tiny-analyze": dict(paths_per_round=3, prunes_per_round=1, min_prunes=2),
    "enterprise-campaign": {},
}

# Per-layer metrics that must be non-zero where the workload runs the layer.
EXERCISED = {
    "tiny-train": [
        "neural.forward.calls.rows8", "neural.forward.calls.rows64",
        "neural.backward.calls", "neural.forward_cached.calls_in_backward",
        "neural.adam_step.us_p50", "neural.categorical_sample.us_p50",
        "ppo.collect_rollout.s", "ppo.prepare_batch.s", "ppo.ppo_update.s",
        "ppo.gradient_updates", "c2_env.steps.erroneous", "c2_env.episodes",
    ],
    "tiny-analyze": [
        "neural.forward.calls.rows1", "neural.categorical_sample.calls",
        "analysis.sample_paths.s", "analysis.replay_trace.calls_per_prune",
        "analysis.replay_trace.us_p50", "analysis.replayed_steps_per_prune",
        "c2_env.encode_observation.us_p50", "c2_env.reset.us",
    ],
    "enterprise-campaign": [
        "net_model.save_topology.s", "net_model.load_topology.s",
        "net_model.manifest_bytes", "netgen.generate.s", "c2_env.C2Env.init.s",
        "attacker.wall_share", "c2_env.valid_ratio",
    ],
}


@pytest.fixture(scope="module")
def spec():
    sys.path.insert(0, str(run.SRC))
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(SMALL)
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("workload,trace", [
    ("tiny-train", False), ("tiny-train", True),
    ("tiny-analyze", False), ("tiny-analyze", True),
    ("enterprise-campaign", True),
])
def test_workload_runs_small(spec, workload, trace):
    record = run.run_workload(spec, workload, seed=0, seconds=0, trace=trace,
                              **SMALL[workload])
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(record["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    # the traced run still measures end to end, for the overhead
    assert all(e["value"] > 0 for e in record["end_to_end"].values())
    if trace:
        zero = [n for n in EXERCISED[workload]
                if record["metrics"][n]["value"] <= 0]
        assert not zero


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
