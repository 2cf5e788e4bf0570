"""Command-line entry point: generate networks, train, evaluate, analyze.

Every run with an output directory records a run manifest (command, inputs,
seed, resolved configs, topology hash, version, numpy build, timestamps)
before any work starts. All randomness flows from --seed, so reruns with
identical inputs give identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, netgen, ppo, scenarios
from .c2_env import C2Env, ScenarioConfig, ScenarioError
from .net_model import load_topology, save_topology

log = logging.getLogger("c2sim")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def current_build() -> dict:
    """The numpy version, BLAS and SIMD extensions of this process's numpy.
    Training rounds through matmul, ``tanh`` and ``exp``, whose last bits
    depend on them, so they decide whether a recorded digest binds."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_configuration": blas.get("openblas configuration"),
        "simd_found": list(config["SIMD Extensions"].get("found", [])),
    }


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    topology=None, **configs) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "run_manifest.json"
    config_files = {
        key: str(getattr(args, key))
        for key in ("topology", "scenario", "config", "checkpoint", "traces")
        if getattr(args, key, None)
    }
    manifest = {
        "command": command,
        "config_files": config_files,
        "seed": getattr(args, "seed", None),
        "configs": {name: dataclasses.asdict(cfg)
                    for name, cfg in configs.items() if cfg is not None},
        # the canonical manifest's hash: the same network in any layout
        # hashes the same
        "topology_sha256": None if topology is None else hashlib.sha256(
            save_topology(topology).encode("utf-8")).hexdigest(),
        "version": __version__,
        "build": current_build(),
        "out_dir": str(out_dir),
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "finished_at": None,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _finish_manifest(path: Path) -> None:
    manifest = json.loads(path.read_text())
    manifest["finished_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_env_inputs(args) -> tuple:
    """Resolve --topology/--scenario, honoring the bundled 'tiny' shortcut."""
    if args.scenario == "tiny":
        return scenarios.tiny()
    scenario_path = Path(args.scenario)
    scenario = ScenarioConfig.from_yaml(scenario_path.read_text())
    if args.topology:
        topology_path = Path(args.topology)
    elif scenario.topology_ref:
        topology_path = scenario_path.parent / scenario.topology_ref
    else:
        raise ScenarioError(
            "no topology: pass --topology or set 'topology' in the scenario"
        )
    topology = load_topology(topology_path.read_text())
    return topology, scenario


def cmd_generate(args) -> int:
    cfg = netgen.GenConfig.from_yaml(Path(args.config).read_text())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    refs = netgen.load_default_references()
    topology = netgen.generate(cfg, refs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(save_topology(topology))
    n_hosts = len(topology.hosts())
    log.info("generated %d subnets / %d hosts -> %s",
             len(topology.subnets), n_hosts, out)
    print(f"wrote {out} ({len(topology.subnets)} subnets, {n_hosts} hosts)")
    return EXIT_OK


def cmd_validate(args) -> int:
    load_topology(Path(args.topology).read_text())
    print(f"{args.topology}: valid")
    return EXIT_OK


def cmd_train(args) -> int:
    topology, scenario = _load_env_inputs(args)
    if args.config:
        cfg = ppo.PpoConfig.from_yaml(Path(args.config).read_text())
    else:
        cfg = ppo.PpoConfig()
    if args.seed is not None:  # argparse has refused a negative seed
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.total_steps is not None:
        try:
            cfg = dataclasses.replace(cfg, total_steps=args.total_steps)
        except ValueError as exc:
            raise ValueError(
                f"--total-steps {args.total_steps}: PPO config {exc}") from None

    out_dir = Path(args.out_dir)
    manifest = _write_manifest(out_dir, "train", args, topology,
                               ppo=cfg, scenario=scenario)
    result = ppo.train(
        topology, scenario, cfg, out_dir=out_dir,
        log=lambda row: log.info(
            "step %s episodes %s mean_reward %.1f",
            row["step"], row["episodes"], row["mean_reward"]),
    )
    _finish_manifest(manifest)
    print(f"trained {result.total_env_steps} env steps, "
          f"{result.episodes} episodes, "
          f"checkpoint {out_dir / 'checkpoint_final.npz'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    topology, scenario = _load_env_inputs(args)
    env = C2Env(topology, scenario)
    params, _ = ppo.load_policy(
        args.checkpoint, expect_obs_dim=env.obs_len, expect_actions=env.n_actions)
    out_dir = Path(args.out_dir)
    manifest = _write_manifest(out_dir, "eval", args, topology, scenario=scenario)
    traces = analysis.sample_paths(env, params.actor, args.n, args.seed)
    with open(out_dir / "traces.jsonl", "w") as fh:
        analysis.write_traces_jsonl(traces, fh)
    summary = analysis.summarize(traces)
    (out_dir / "summary.csv").write_text(summary.to_csv())
    times_csv, gaps_csv = analysis.timing_to_csv(traces)
    (out_dir / "upload_times.csv").write_text(times_csv)
    (out_dir / "upload_gaps.csv").write_text(gaps_csv)
    _finish_manifest(manifest)
    print(f"sampled {len(traces)} paths: {summary.n_complete} complete, "
          f"{summary.n_partial} partial, {summary.n_none} none "
          f"-> {out_dir}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.prune and args.scenario is None:
        raise ScenarioError("--prune replays traces and needs --scenario")
    with open(args.traces) as fh:
        traces = analysis.read_traces_jsonl(fh)
    if not traces:
        raise ValueError(f"no traces in {args.traces}")
    topology, scenario = _load_env_inputs(args) if args.scenario else (None, None)
    out_dir = Path(args.out_dir)
    manifest = _write_manifest(out_dir, "analyze", args, topology,
                               scenario=scenario)
    summary = analysis.summarize(traces)
    (out_dir / "summary.csv").write_text(summary.to_csv())
    if args.timing:
        times_csv, gaps_csv = analysis.timing_to_csv(traces)
        (out_dir / "upload_times.csv").write_text(times_csv)
        (out_dir / "upload_gaps.csv").write_text(gaps_csv)
    if args.prune:
        env = C2Env(topology, scenario)
        complete = [t for t in traces if t.classification() == "complete"]
        if not complete:
            raise ValueError("no fully successful trace to prune")
        best = max(complete, key=lambda t: t.total_reward)
        pruned = analysis.prune_trace(env, best)
        with open(out_dir / "pruned_best.jsonl", "w") as fh:
            analysis.write_traces_jsonl([pruned], fh)
        print(f"pruned best trace: {best.n_steps} -> {pruned.n_steps} steps")
    _finish_manifest(manifest)
    print(f"summary -> {out_dir / 'summary.csv'}")
    return EXIT_OK


def _at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def seed(text: str) -> int:
    """The type of --seed: argparse reports a value < 0 as a usage error."""
    return _at_least(0, text)


def paths(text: str) -> int:
    """The type of eval's --n: argparse reports a value < 1 as a usage error."""
    return _at_least(1, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2sim",
        description="Attack-campaign simulator, trainer, and analyzer",
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a network manifest")
    p.add_argument("--config", required=True, help="generator config YAML")
    p.add_argument("--seed", type=seed, default=None)
    p.add_argument("--out", required=True, help="output manifest path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="validate a network manifest")
    p.add_argument("--topology", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train an attack policy")
    p.add_argument("--topology", default=None)
    p.add_argument("--scenario", required=True,
                   help="scenario YAML, or 'tiny' for the bundled scenario")
    p.add_argument("--config", default=None, help="trainer config YAML")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=seed, default=None)
    p.add_argument("--total-steps", type=int, default=None,
                   help="override the configured environment-step budget")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="sample attack paths from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--topology", default=None)
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=paths, default=100)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="summarize recorded traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--prune", action="store_true",
                   help="prune the best successful trace (needs env inputs)")
    p.add_argument("--timing", action="store_true",
                   help="emit upload timing series")
    p.add_argument("--topology", default=None)
    p.add_argument("--scenario", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ValueError as exc:  # every refused input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ppo.TrainingDiverged as exc:
        print(f"training diverged: {exc} "
              f"(last checkpoint: {exc.checkpoint_path})", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
