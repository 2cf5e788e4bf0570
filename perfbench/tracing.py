"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions of the c2sim modules from outside: it
replaces module attributes and ``C2Env`` methods for the duration of a
``with tracer.installed():`` block and restores them afterwards. Nothing
under ``src/`` is changed. Spans are kept in memory as per-name duration
lists plus self time (duration minus the time covered by child spans), and
counters are recorded at the same call boundaries.

Wrapping works because the package resolves these names at call time:
``ppo`` and ``analysis`` call ``neural.forward`` through the module,
``ppo.train`` calls ``collect_rollout`` through its own globals, and
``scenarios`` imported ``load_topology`` and ``generate`` into its own
namespace, so those copies are wrapped too.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

STEP_KINDS = ("subnet_scan", "exploit", "connect", "upload", "sleep", "erroneous")
FORWARD_ROWS = (1, 8, 64)


class Tracer:
    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, child seconds]
        self._paused = 0

    # -- recording -----------------------------------------------------------

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    @contextlib.contextmanager
    def paused(self):
        """Run untraced code, such as output checks, inside a traced run."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn, name: str, label=None, after=None):
        """Time ``fn`` as span ``name``; ``label(args, out)`` may rename it
        and ``after(args, out)`` records counters."""
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
            span = label(args, out) if label else name
            self.durations[span].append(dt)
            self.self_time[span] += dt - frame[1]
            if after:
                after(args, out)
            return out

        return traced

    def _count_in(self, fn, counter: str, parent: str):
        """Count calls of ``fn`` made while span ``parent`` is open."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self._paused and self.active(parent):
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        from c2sim import analysis, c2_env, net_model, netgen, neural, ppo, scenarios

        def forward_rows(args, out):
            x = np.asarray(args[1])
            return f"neural.forward.rows{1 if x.ndim == 1 else x.shape[0]}"

        def step_kind(args, out):
            info = out[3]
            return f"c2_env.step.{info['action'] if info['valid'] else 'erroneous'}"

        def step_counts(args, out):
            env, (_, _, done, info) = args[0], out
            if info["emergency"]:
                self.counts["c2_env.emergencies"] += 1
            if self.active("analysis.prune_trace"):
                self.counts["analysis.replayed_steps"] += 1
            if done:
                self.counts["c2_env.episodes"] += 1
                self.counts["c2_env.completions"] += sum(
                    env.terminal_status(a) == "completed"
                    for a in env.scenario.sensitive_hosts)

        def encode_label(args, out):
            parent = self._stack[-1][0] if self._stack else ""
            suffix = "in_step" if parent == "c2_env.step" else "other"
            return f"c2_env.encode_observation.{suffix}"

        def replay_counts(args, out):
            if self.active("analysis.prune_trace"):
                self.counts["analysis.replay_trace.in_prune"] += 1

        plan = [
            (neural, "forward", dict(label=forward_rows)),
            (neural, "backward", {}),
            (neural, "adam_step", {}),
            (neural, "categorical_sample", {}),
            (ppo, "collect_rollout", {}),
            (ppo, "prepare_batch", {}),
            (ppo, "ppo_update", {}),
            (analysis, "sample_paths", {}),
            (analysis, "prune_trace", {}),
            (analysis, "replay_trace", dict(after=replay_counts)),
            (net_model, "save_topology", {}),
            (net_model, "load_topology", {}),
            (scenarios, "load_topology", dict(name="net_model.load_topology")),
            (netgen, "generate", {}),
            (scenarios, "generate", dict(name="netgen.generate")),
            (c2_env.C2Env, "__init__", dict(name="c2_env.C2Env.init")),
            (c2_env.C2Env, "step", dict(label=step_kind, after=step_counts)),
            (c2_env.C2Env, "reset", {}),
            (c2_env.C2Env, "encode_observation", dict(label=encode_label)),
        ]
        saved = []
        try:
            for owner, attr, opts in plan:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                prefix = owner.__name__.rsplit(".", 1)[-1]
                if prefix == "C2Env":
                    prefix = "c2_env"
                name = opts.get("name", f"{prefix}.{attr}")
                setattr(owner, attr, self._wrap(
                    fn, name, opts.get("label"), opts.get("after")))
            fn = neural.forward_cached
            saved.append((neural, "forward_cached", fn))
            neural.forward_cached = self._count_in(
                fn, "neural.forward_cached.calls_in_backward", "neural.backward")
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summaries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def median(self, name: str) -> float:
        values = self.durations.get(name)
        return float(np.median(values)) if values else 0.0

    def spans(self) -> dict:
        """Per-span call count, total, self time and median, for the results
        file."""
        return {
            name: {
                "calls": len(values),
                "total_s": float(sum(values)),
                "self_s": float(self.self_time[name]),
                "p50_us": float(np.median(values)) * 1e6,
            }
            for name, values in sorted(self.durations.items())
        }

    def layer_metrics(self, removed_steps: int) -> dict:
        """Per-layer metrics from the spans; a layer not run reads 0.

        ``removed_steps`` is the number of steps the run's prunes removed.

        ``.s`` and ``.us*`` metrics are per-call medians, ``calls`` and the
        outcome counters are totals over the run.
        """
        m: dict[str, float] = {}
        for rows in FORWARD_ROWS:
            name = f"neural.forward.rows{rows}"
            m[f"neural.forward.calls.rows{rows}"] = self.calls(name)
            m[f"neural.forward.us_p50.rows{rows}"] = self.median(name) * 1e6
        m["neural.backward.calls"] = self.calls("neural.backward")
        m["neural.backward.s"] = self.median("neural.backward")
        m["neural.forward_cached.calls_in_backward"] = self.counts[
            "neural.forward_cached.calls_in_backward"]
        for fn in ("adam_step", "categorical_sample"):
            m[f"neural.{fn}.calls"] = self.calls(f"neural.{fn}")
            m[f"neural.{fn}.us_p50"] = self.median(f"neural.{fn}") * 1e6
        for fn in ("collect_rollout", "prepare_batch", "ppo_update"):
            m[f"ppo.{fn}.s"] = self.median(f"ppo.{fn}")

        step_total = 0.0
        n_steps = 0
        for kind in STEP_KINDS:
            name = f"c2_env.step.{kind}"
            m[f"c2_env.step.us_p50.{kind}"] = self.median(name) * 1e6
            m[f"c2_env.steps.{kind}"] = self.calls(name)
            step_total += self.total(name)
            n_steps += self.calls(name)
        encode = "c2_env.encode_observation.in_step"
        m["c2_env.encode_observation.us_p50"] = self.median(encode) * 1e6
        m["c2_env.encode_observation.step_share"] = (
            self.total(encode) / step_total if step_total else 0.0)
        m["c2_env.reset.us"] = self.median("c2_env.reset") * 1e6
        m["c2_env.valid_ratio"] = (
            1.0 - self.calls("c2_env.step.erroneous") / n_steps if n_steps else 0.0)
        for counter in ("episodes", "emergencies", "completions"):
            m[f"c2_env.{counter}"] = self.counts[f"c2_env.{counter}"]
        m["c2_env.C2Env.init.s"] = self.median("c2_env.C2Env.init")

        prunes = self.calls("analysis.prune_trace")
        replays = self.counts["analysis.replay_trace.in_prune"]
        m["analysis.sample_paths.s"] = self.median("analysis.sample_paths")
        m["analysis.replay_trace.calls_per_prune"] = replays / prunes if prunes else 0.0
        m["analysis.replay_trace.us_p50"] = self.median("analysis.replay_trace") * 1e6
        m["analysis.replayed_steps_per_prune"] = (
            self.counts["analysis.replayed_steps"] / prunes if prunes else 0.0)
        m["analysis.prune.removed_per_replay"] = (
            removed_steps / replays if replays else 0.0)

        m["net_model.save_topology.s"] = self.median("net_model.save_topology")
        m["net_model.load_topology.s"] = self.median("net_model.load_topology")
        m["netgen.generate.s"] = self.median("netgen.generate")
        return m
