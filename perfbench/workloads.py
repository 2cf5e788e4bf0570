"""The benchmark's three workloads.

Each workload is a closed-loop batch job in one process: it sets up, then
repeats its unit of work until ``seconds`` have passed (at least once, and
for tiny-analyze until ``min_prunes`` traces are pruned), checks every
output, and returns a ``Measurement``. All inputs derive from ``seed``.
Workloads record ``(start, end)`` intervals of ``time.perf_counter``, not
durations, so that the caller can scale each by the host's speed at the
time (``hostspeed.HostSpeed``).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from c2sim import analysis, net_model, ppo, scenarios
from c2sim.c2_env import C2Env

from attacker import ScriptedAttacker


@dataclass
class Measurement:
    tail_q: float              # the tail percentile reported for ops
    # set-up samples, each a burst of back-to-back set-ups
    setup: list[list[tuple]] = field(default_factory=list)
    work: int = 0              # units of throughput (env steps or paths)
    work_iv: list[tuple] = field(default_factory=list)  # time producing them
    op_iv: list[tuple] = field(default_factory=list)    # one per op
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # end-to-end metric -> the workload's own name for it
    names: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)  # checks and extra outputs
    layer: dict = field(default_factory=dict)    # per-layer values not traced

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def _seed_int(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# One tiny set-up lasts ~15 ms, short enough for a single timing to be
# mostly host noise. Each set-up sample is the fastest of a burst of
# back-to-back set-ups; the run reports the median of its samples.
SETUP_BURST = 5


def _set_up(make, setup: list[list[tuple]]):
    """Call ``make`` SETUP_BURST times, record the burst, return the last."""
    burst = []
    for _ in range(SETUP_BURST):
        t0 = time.perf_counter()
        made = make()
        burst.append((t0, time.perf_counter()))
    setup.append(burst)
    return made


# ---------------------------------------------------------------------------
# tiny-train


def tiny_train(seed: int, seconds: float, work_dir: Path, tracer,
               iterations: int = 2) -> Measurement:
    """``ppo.train`` with the default config for ``iterations`` batches per
    op, seeded ``(seed, op)``, writing checkpoints and metrics.csv."""
    base = ppo.PpoConfig()
    m = Measurement(0.9, names={"throughput_per_s": "train_env_steps_per_s",
                                "op_ms_p50": "iteration_ms_p50",
                                "op_ms_tail": "iteration_ms_p90"})
    digests = []
    updates = 0
    deadline = time.perf_counter() + seconds
    while not m.attempted or time.perf_counter() < deadline:
        op = m.attempted
        # ppo.train builds its own environments, so set-up is the load only
        topology, scenario = _set_up(scenarios.tiny, m.setup)
        cfg = ppo.PpoConfig(seed=_seed_int(seed, op),
                            total_steps=iterations * base.horizon)
        out_dir = work_dir / f"train{op}"
        marks = []
        t0 = time.perf_counter()
        result = ppo.train(topology, scenario, cfg, out_dir=out_dir,
                           log=lambda row: marks.append(time.perf_counter()))
        t1 = time.perf_counter()
        m.attempted += 1
        m.work += result.total_env_steps
        m.work_iv.append((t0, t1))
        m.op_iv.extend(zip([t0, *marks], marks))
        updates += result.gradient_updates

        problems = []
        if result.total_env_steps != iterations * cfg.horizon:
            problems.append(f"{result.total_env_steps} env steps")
        if len(result.metrics) != iterations:
            problems.append(f"{len(result.metrics)} metrics rows")
        if not all(math.isfinite(row[k]) for row in result.metrics
                   for k in ("policy_loss", "value_loss", "entropy")):
            problems.append("non-finite loss")
        if problems:
            m.fail(f"op {op}: " + ", ".join(problems))
        csv = (out_dir / "metrics.csv").read_bytes()
        digests.append(hashlib.sha256(csv).hexdigest())
    m.details["metrics_csv_sha256"] = digests
    m.details["iterations_per_op"] = iterations
    m.layer["ppo.gradient_updates"] = updates
    return m


# ---------------------------------------------------------------------------
# tiny-analyze


def _same_trace(a, b) -> bool:
    return a.steps == b.steps and a.terminal_status == b.terminal_status


def tiny_analyze(seed: int, seconds: float, work_dir: Path, tracer,
                 paths_per_round: int = 40, prunes_per_round: int = 10,
                 min_prunes: int = 100) -> Measurement:
    """Rounds of ``c2sim eval`` + ``analyze --prune`` on tiny.

    Each round seeds a fresh actor with ``init_policy``, samples paths,
    writes the eval outputs, checks that every sampled trace replays
    exactly, then prunes the first ``prunes_per_round`` of them. The
    traces are drawn independently, so these are a fair sample; pruning
    a quarter of them gives eval a fifth of the run's time, enough for a
    steady ``eval_paths_per_s``. ``min_prunes`` keeps the prune p90 on at
    least 10 samples beyond it.
    """
    cfg = ppo.PpoConfig()
    m = Measurement(0.9, names={"throughput_per_s": "eval_paths_per_s",
                                "op_ms_p50": "prune_ms_p50",
                                "op_ms_tail": "prune_ms_p90"})
    classes = {"complete": 0, "partial": 0, "none": 0}
    removed = 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    # counted in rounds, so that failing checks cannot stall the loop
    per_round = min(paths_per_round, prunes_per_round)
    while rnd * per_round < min_prunes or time.perf_counter() < deadline:
        env = _set_up(lambda: C2Env(*scenarios.tiny()), m.setup)
        rng = np.random.default_rng([seed, rnd])
        actor = ppo.init_policy(rng, env.obs_len, env.n_actions, cfg).actor
        t0 = time.perf_counter()
        traces = analysis.sample_paths(env, actor, paths_per_round,
                                       _seed_int(seed, rnd))
        with open(work_dir / f"traces{rnd}.jsonl", "w") as fh:
            analysis.write_traces_jsonl(traces, fh)
        (work_dir / f"summary{rnd}.csv").write_text(
            analysis.summarize(traces).to_csv())
        times_csv, gaps_csv = analysis.timing_to_csv(traces)
        (work_dir / f"upload_times{rnd}.csv").write_text(times_csv)
        (work_dir / f"upload_gaps{rnd}.csv").write_text(gaps_csv)
        m.work += len(traces)
        m.work_iv.append((t0, time.perf_counter()))

        for i, trace in enumerate(traces):
            m.attempted += 1
            classes[trace.classification()] += 1
            with tracer.paused() if tracer else contextlib.nullcontext():
                replay = analysis.replay_trace(
                    env, trace.seed, [s.to_action() for s in trace.steps])
            if not _same_trace(replay, trace):
                m.fail(f"round {rnd} trace {i}: replay differs")
                continue
            if i >= prunes_per_round:
                continue
            t0 = time.perf_counter()
            try:
                pruned = analysis.prune_trace(env, trace)
            except analysis.PruneDivergenceError as exc:
                m.fail(f"round {rnd} trace {i}: {exc}")
                continue
            m.op_iv.append((t0, time.perf_counter()))
            if pruned.terminal_status != trace.terminal_status:
                m.fail(f"round {rnd} trace {i}: prune changed terminal status")
                continue
            removed += trace.n_steps - pruned.n_steps
        rnd += 1
    m.details["rounds"] = rnd
    m.details["paths_per_round"] = paths_per_round
    m.details["prunes_per_round"] = prunes_per_round
    m.details["classification"] = classes
    m.details["removed_steps"] = removed
    return m


# ---------------------------------------------------------------------------
# enterprise-campaign


def enterprise_campaign(seed: int, seconds: float, work_dir: Path,
                        tracer) -> Measurement:
    """Scripted attacker on the full-scale network after a manifest
    round-trip; episodes reset with seeds derived from ``seed``."""
    t0 = time.perf_counter()
    generated, scenario = scenarios.enterprise101()
    manifest = net_model.save_topology(generated)
    topology = net_model.load_topology(manifest)
    env = C2Env(topology, scenario)
    setup = [[(t0, time.perf_counter())]]
    attacker = ScriptedAttacker(env.actions, scenario.initial_foothold,
                                scenario.payload_size_mb,
                                np.random.default_rng([seed, 1]))

    m = Measurement(0.99, setup=setup, names={
        "throughput_per_s": "env_steps_per_s",
        "op_ms_p50": "env_step_ms_p50", "op_ms_tail": "env_step_ms_p99"})
    m.attempted += 1
    with tracer.paused() if tracer else contextlib.nullcontext():
        if topology != generated:
            m.fail("load_topology(save_topology(t)) != t")
    m.layer["net_model.manifest_bytes"] = len(manifest.encode("utf-8"))

    perf = time.perf_counter
    attacker_s = 0.0
    episodes = 0
    obs_len = env.obs_len
    steps = m.op_iv
    loop_start = perf()
    deadline = loop_start + seconds
    while not m.work or perf() < deadline:
        t_reset = perf()
        env.reset(seed=_seed_int(seed, episodes))
        m.work_iv.append((t_reset, perf()))
        attacker.reset()
        episodes += 1
        clock = 0.0
        done = False
        while not done and (m.work < 1 or perf() < deadline):
            a0 = perf()
            action = attacker.act()
            a1 = perf()
            obs, _, done, info = env.step(action)
            a2 = perf()
            attacker.observe(info)
            attacker_s += (a1 - a0) + (perf() - a2)
            steps.append((a1, a2))
            m.work += 1
            m.attempted += 1
            if len(obs) != obs_len or not math.isfinite(obs.sum()):
                m.fail(f"episode {episodes} step {info['clock']}: bad observation")
            elif not info["clock"] > clock:
                m.fail(f"episode {episodes}: clock {info['clock']} <= {clock}")
            clock = info["clock"]
    wall = perf() - loop_start
    m.work_iv.extend(steps)
    m.details["episodes_started"] = episodes
    m.layer["attacker.wall_share"] = attacker_s / wall
    return m


WORKLOADS = {
    "tiny-train": tiny_train,
    "tiny-analyze": tiny_analyze,
    "enterprise-campaign": enterprise_campaign,
}
