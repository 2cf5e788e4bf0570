"""c2sim benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload tiny-train --seed 0 --seconds 15 --trace 0

Run from the repository root. The code under test is imported from
``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the last line holds every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` the c2sim layers are wrapped and it
holds every per-layer metric. Times are normalized to a fixed host speed
(``hostspeed.py``); the wall-clock figures are printed and recorded beside
them. Human-readable lines with each metric's unit and sample count come
first, and the full record (environment, sample counts, check results,
host speed, span table) is written to
``perfbench/results/<workload>-seed<n>-trace<t>.json``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Printed and recorded, but given no bound and so not in BENCHMARK.json,
# which holds the units of every other metric: op latency percentiles, and
# the wall-clock figures behind the normalized throughput and set-up time.
UNGATED_UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms",
                 "wall_throughput_per_s": "1/s", "wall_setup_s": "s"}


def _blas_threads() -> str:
    """Pin BLAS to one thread; must run before numpy is imported.

    On a 2-core machine two OpenBLAS threads made tiny-train slower and
    noisier (4.6-5.4k against 5.8-6.1k env-steps/s): the matrices are small.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return os.environ["OPENBLAS_NUM_THREADS"]


def _environment(blas_threads: str) -> dict:
    import hashlib
    import platform
    import subprocess

    import numpy as np
    import yaml

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "c2sim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(blas_threads),
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile; NaN when every op failed its check."""
    import numpy as np

    return float(np.percentile(values, q * 100.0)) if len(values) else float("nan")


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, **size) -> dict:
    """Set up, measure and check one workload; return the results record.

    ``size`` overrides a workload's size parameters (the smoke test uses
    this to run every workload small through the same code). Needs
    ``src`` on ``sys.path`` and BLAS already pinned.
    """
    import resource
    import tempfile

    import numpy as np
    import workloads
    from hostspeed import HostSpeed
    from tracing import Tracer

    tracer = Tracer() if trace else None
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as work:
        run = workloads.WORKLOADS[workload]
        with HostSpeed() as speed:
            if tracer:
                with tracer.installed():
                    m = run(seed, seconds, Path(work), tracer, **size)
            else:
                m = run(seed, seconds, Path(work), None, **size)

    # each set-up sample is the fastest of its burst
    setups = [speed.times(burst) for burst in m.setup]
    setup_wall = [raw.min() for raw, _ in setups]
    setup_norm = [norm.min() for _, norm in setups]
    work_wall, work_norm = (t.sum() for t in speed.times(m.work_iv))
    op_s = speed.times(m.op_iv)[1]
    end_to_end = {
        "setup_s": (float(np.median(setup_norm)), len(setups)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "throughput_per_s": (m.work / work_norm, m.work),
        "op_ms_p50": (_percentile(op_s, 0.5) * 1e3, len(op_s)),
        "op_ms_tail": (_percentile(op_s, m.tail_q) * 1e3, len(op_s)),
        "wall_throughput_per_s": (m.work / work_wall, m.work),
        "wall_setup_s": (float(np.median(setup_wall)), len(setups)),
    }
    if tracer:
        values = tracer.layer_metrics(m.details.get("removed_steps", 0))
        for name in ("ppo.gradient_updates", "net_model.manifest_bytes",
                     "attacker.wall_share"):
            values[name] = m.layer.get(name, 0)
        values["traced.throughput_per_s"] = end_to_end["throughput_per_s"][0]
        values["traced.op_ms_p50"] = end_to_end["op_ms_p50"][0]
        specs = spec["per_layer"]
    else:
        values = {k: v for k, (v, _) in end_to_end.items()}
        specs = spec["end_to_end"]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"no value for metrics {missing}")

    units = {s["name"]: s["unit"] for s in spec["end_to_end"]} | UNGATED_UNITS
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": m.failures,
        "metrics": {s["name"]: {"value": float(values[s["name"]]),
                                "unit": s["unit"]} for s in specs},
        "end_to_end": {
            name: {"value": value, "unit": units[name], "samples": n,
                   "as": m.names.get(base := name.removeprefix("wall_"), base)}
            for name, (value, n) in end_to_end.items()},
        "layer": m.layer,
        "details": m.details,
        "op_ms_quantiles": {
            f"p{q}": _percentile(op_s, q / 100) * 1e3
            for q in (0, 10, 25, 50, 75, 90, 99)},
        "host_speed": {"reference_us_p50": speed.reference_us(),
                       "samples": speed.samples},
        "spans": tracer.spans() if tracer else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "c2sim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a c2sim checkout; {SRC / 'c2sim'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        parser.error(f"--workload must be one of {workload_names}")

    threads = _blas_threads()
    sys.path.insert(0, str(SRC))
    record = run_workload(spec, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    record["environment"] = _environment(threads)

    gated = {s["name"] for s in spec["end_to_end"]}
    for name, e in record["end_to_end"].items():
        print(f"{args.workload:20s} {name:21s} {e['value']:12.6g} {e['unit']:4s} "
              f"n={e['samples']:<7d} = {e['as']}"
              f"{'' if name in gated else '  (reported, no bound)'}")
    for name, value in record["layer"].items():
        print(f"{args.workload:20s} {name:26s} {value:14.6g}")
    for what in record["failures"]:
        print(f"{args.workload}: check failed: {what}")
    print(f"{args.workload}: {record['attempted']} ops attempted, "
          f"{record['failed']} failed"
          f"{'' if record['correct'] else ' - OUTPUT CHECK FAILED'}")

    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
