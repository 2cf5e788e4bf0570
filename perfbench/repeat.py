"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload tiny-train --seeds 0-9 [--trace 1]
        [--seconds 15] [--out perfbench/results/repeat-tiny-train.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: the inter-quartile distance as a share of the median. Without
``--trace`` the unbounded end-to-end figures are summarized too. With
``--out`` the per-run values and the summary are written as JSON; the
committed ``baseline.json`` is made from such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(last)
        result["seed"] = seed
        record = json.loads((HERE / "results" / (
            f"{args.workload}-seed{seed}-trace{args.trace}.json")).read_text())
        result["samples"] = {n: e["samples"]
                             for n, e in record["end_to_end"].items()}
        result["host_speed"] = record["host_speed"]
        if not args.trace:  # add the unbounded end-to-end figures
            for name, e in record["end_to_end"].items():
                result["metrics"].setdefault(
                    name, {"value": e["value"], "unit": e["unit"]})
        else:
            result["end_to_end"] = {n: e["value"]
                                    for n, e in record["end_to_end"].items()}
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    summary = summarize(runs) if len(runs) > 1 else {}
    for name, s in summary.items():
        print(f"{name:42s} median {s['median']:12.6g} {s['unit']:6s} "
              f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": seconds, "trace": args.trace,
            "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
