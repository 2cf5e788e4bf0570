"""Attack-path sampling, effect-based pruning, and summary statistics.

Traces are serialized as JSON-lines so downstream tooling can consume them;
summaries and upload-timing series are emitted as plain CSV tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .c2_env import C2Env, Connect, Exploit, Sleep, SubnetScan, Upload
from .net_model import build_config
from .neural import MlpParams


class PruneDivergenceError(ValueError):
    """A pruned trace no longer reproduces the original terminal statuses."""


class TraceFormatError(ValueError):
    """A traces file line that is not a record of the JSON-lines format."""


class TraceReplayError(ValueError):
    """A trace names a host, an exploit CVE or an upload rate that the replay
    environment does not have."""


_ACTION_KINDS = {cls.kind for cls in (SubnetScan, Exploit, Connect, Upload, Sleep)}
# the field each of these actions must name, as ``to_action`` reads it
_NAMED_BY = {"exploit": "vulnerability", "upload": "rate"}


@dataclass
class TraceStep:
    step: int
    clock: float
    action: str
    target: tuple[int, int] | None
    reward: float
    outcome: str
    vulnerability: str | None = None
    rate: str | None = None
    n_discovered: int | None = None

    def to_action(self):
        if self.action == "subnet_scan":
            return SubnetScan(tuple(self.target))
        if self.action == "exploit":
            return Exploit(tuple(self.target), self.vulnerability)
        if self.action == "connect":
            return Connect(tuple(self.target))
        if self.action == "upload":
            return Upload(tuple(self.target), self.rate)
        if self.action == "sleep":
            return Sleep()
        raise TraceFormatError(f"unknown action {self.action!r}")


@dataclass
class AttackTrace:
    seed: int
    steps: list[TraceStep] = field(default_factory=list)
    terminal_status: dict[tuple[int, int], str] = field(default_factory=dict)
    emergencies: int = 0

    @property
    def total_reward(self) -> float:
        return sum(s.reward for s in self.steps)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def duration_seconds(self) -> float:
        return self.steps[-1].clock if self.steps else 0.0

    @property
    def duration_minutes(self) -> float:
        return self.duration_seconds / 60.0

    def classification(self) -> str:
        """complete / partial / none over the sensitive targets."""
        statuses = list(self.terminal_status.values())
        done = sum(1 for s in statuses if s == "completed")
        if statuses and done == len(statuses):
            return "complete"
        return "partial" if done else "none"

    def action_count(self, kind: str) -> int:
        return sum(1 for s in self.steps if s.action == kind)


def _record_step(trace: AttackTrace, idx: int, reward: float, info: dict) -> None:
    trace.steps.append(TraceStep(
        step=idx,
        clock=info["clock"],
        action=info["action"],
        target=info["target"],
        reward=reward,
        outcome=info["outcome"],
        vulnerability=info.get("cve"),
        rate=info.get("rate"),
        n_discovered=(len(info["newly_discovered"])
                      if "newly_discovered" in info else None),
    ))
    if info.get("emergency"):
        trace.emergencies += 1


def _terminal_status(env: C2Env) -> dict[tuple[int, int], str]:
    """Each sensitive host's status, in address order."""
    return {addr: env.terminal_status(addr)
            for addr in sorted(env.scenario.sensitive_hosts)}


def sample_paths(env: C2Env, actor: MlpParams, n: int, seed: int) -> list[AttackTrace]:
    """Run n full episodes with stochastic action draws from the actor.

    Episode k resets with the k-th seed spawned from ``seed``. The actions
    come from one stream, seeded ``(seed, 1)``, that gives one uniform per
    step. Paths are drawn in order, so trace k depends on the lengths of
    traces 0..k-1. Stepping the paths side by side with batched forwards
    would reorder that stream and change the matmul rounding, and with them
    the seeded traces; so each step makes one single-row
    ``neural.categorical_sample`` call, which bisects the distribution's
    Python lists with no NumPy call. The distribution comes from one
    single-row ``neural.forward`` and ``neural.categorical``, which run only
    when the observation's bytes differ from the previous step's. Until a
    target is infected, an erroneous action, a failed exploit, a sleep or an
    empty scan leaves the observation as it was, and the same bits give the
    same distribution, so the seeded traces do not change.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    episode_seeds = [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)
    ]
    sample_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    traces = []
    seen = dist = None  # the last observation's bytes and its distribution
    for ep_seed in episode_seeds:
        obs = env.reset(seed=ep_seed)
        trace = AttackTrace(seed=ep_seed)
        idx = 0
        while not env.done:
            key = obs.tobytes()
            if key != seen:
                seen = key
                dist = neural.categorical(neural.forward(actor, obs))
            a_idx, _ = neural.categorical_sample(dist, sample_rng)
            obs, reward, _, info = env.step(a_idx)
            _record_step(trace, idx, reward, info)
            idx += 1
        trace.terminal_status = _terminal_status(env)
        traces.append(trace)
    return traces


def _check_replayable(env: C2Env, actions: list) -> list:
    """``actions`` (actions or their indices) with each action in
    ``env.actions`` mapped to its index. Raises TraceReplayError naming the
    step of an index out of range or of an action ``env`` cannot take:
    ``C2Env``'s own check (a host outside the topology, an upload rate the
    scenario lacks) or a CVE no host in the topology has. A known CVE aimed
    at a host without it is a failed exploit, not an error."""
    index, n, out = env.action_index, env.n_actions, []
    for idx, action in enumerate(actions):
        if type(action) is int or isinstance(action, np.integer):
            if not 0 <= action < n:
                raise TraceReplayError(f"step {idx}: action index {action} outside [0, {n})")
        elif action in index:
            action = index[action]
        else:
            try:
                env.check_action(action)
            except ValueError as exc:
                raise TraceReplayError(f"step {idx}: {exc}") from None
            if isinstance(action, Exploit) and action.cve_id not in env.cve_ids:
                raise TraceReplayError(
                    f"step {idx}: exploit names {action.cve_id}, which no host in "
                    f"the topology has")
        out.append(action)
    return out


def replay_trace(env: C2Env, seed: int, actions: list) -> AttackTrace:
    """Re-run a recorded action sequence on a fresh episode; raises
    TraceReplayError on an action ``env`` cannot take. ``actions`` holds
    actions or their indices, as ``C2Env.step`` takes them; an action in
    the space is stepped by its index."""
    actions = _check_replayable(env, actions)
    env.reset(seed=seed)
    trace = AttackTrace(seed=seed)
    for idx, action in enumerate(actions):
        if env.done:
            break
        _, reward, _, info = env.step(action)
        _record_step(trace, idx, reward, info)
    trace.terminal_status = _terminal_status(env)
    return trace


_REMOVABLE_OUTCOMES = ("exploit_failed", "already_connected", "erroneous")


def _candidates(steps: list[TraceStep]) -> list[int]:
    """Indices of the steps a prune pass tries to delete, found in one walk;
    an exploit is one if an earlier step exploited its host already."""
    out, exploited = [], set()
    for i, step in enumerate(steps):
        if step.action == "exploit" and step.outcome == "exploited":
            if step.target in exploited:
                out.append(i)
            exploited.add(step.target)
        elif (step.outcome in _REMOVABLE_OUTCOMES or step.action == "sleep"
              or step.action == "subnet_scan" and step.n_discovered == 0):
            out.append(i)
    return out


def _probe(env: C2Env, seed: int, actions: list) -> dict[tuple[int, int], str]:
    """The terminal statuses of a replay of checked actions; records nothing."""
    env.reset(seed=seed)
    for action in actions:
        if env.step(action)[2]:
            break
    return _terminal_status(env)


def prune_trace(env: C2Env, trace: AttackTrace) -> AttackTrace:
    """Drop steps with no effect on the outcome, verified by replay.

    Candidates are failed and repeated exploits, rediscovery scans, connects
    on already connected hosts, erroneous actions, and sleeps. Each pass
    probes them from the last to the first, and removes one only if the
    sequence without it still reaches the original terminal statuses, so
    sleeps needed for window or attempt compliance survive. A pass ends with
    one recorded replay of the kept actions: it gives the next pass its
    outcomes, and after a pass that removed nothing it is the result, or
    PruneDivergenceError if it misses the original statuses.
    """
    original_status = dict(trace.terminal_status)
    steps = trace.steps
    # mapped once, so that an error names the trace's own step
    actions = _check_replayable(env, [s.to_action() for s in steps])
    while True:
        n_before = len(actions)
        # a deletion moves only later steps, so no earlier candidate changes
        for i in reversed(_candidates(steps)):
            if _probe(env, trace.seed, actions[:i] + actions[i + 1:]) == original_status:
                del actions[i]
        replay = replay_trace(env, trace.seed, actions)
        if len(actions) == n_before:
            break
        steps = replay.steps
        del actions[len(steps):]  # the steps after the episode ended
    if replay.terminal_status != original_status:
        raise PruneDivergenceError(
            f"pruned trace reaches {replay.terminal_status}, "
            f"original was {original_status}")
    return replay


def summarize(traces: list[AttackTrace]) -> "PathSummary":
    if not traces:
        raise ValueError("no traces to summarize")
    return PathSummary.from_traces(traces)


def _stats(values) -> dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


@dataclass
class PathSummary:
    steps: dict[str, float]
    duration_minutes: dict[str, float]
    rewards: dict[str, float]
    n_traces: int
    n_complete: int
    n_partial: int
    n_none: int
    # connect/upload/sleep statistics over fully successful traces only
    action_counts: dict[str, dict[str, float]]

    @classmethod
    def from_traces(cls, traces: list[AttackTrace]) -> "PathSummary":
        per_trace = [{
            "steps": t.n_steps,
            "duration_minutes": t.duration_minutes,
            "reward": t.total_reward,
            "classification": t.classification(),
        } for t in traces]
        classes = [r["classification"] for r in per_trace]
        successful = [t for t in traces if t.classification() == "complete"]
        counts = {}
        for kind in ("connect", "upload", "sleep"):
            if successful:
                counts[kind] = _stats([t.action_count(kind) for t in successful])
            else:
                counts[kind] = {"mean": float("nan"), "std": float("nan"),
                                "min": float("nan"), "max": float("nan")}
        return cls(
            steps=_stats([r["steps"] for r in per_trace]),
            duration_minutes=_stats([r["duration_minutes"] for r in per_trace]),
            rewards=_stats([r["reward"] for r in per_trace]),
            n_traces=len(traces),
            n_complete=classes.count("complete"),
            n_partial=classes.count("partial"),
            n_none=classes.count("none"),
            action_counts=counts,
        )

    def to_csv(self) -> str:
        lines = ["metric,mean,std,min,max"]
        for name, stats in (("steps", self.steps),
                            ("duration_minutes", self.duration_minutes),
                            ("reward", self.rewards)):
            lines.append(f"{name},{stats['mean']:.6g},{stats['std']:.6g},"
                         f"{stats['min']:.6g},{stats['max']:.6g}")
        for kind in ("connect", "upload", "sleep"):
            s = self.action_counts[kind]
            lines.append(f"{kind}_actions,{s['mean']:.6g},{s['std']:.6g},"
                         f"{s['min']:.6g},{s['max']:.6g}")
        lines.append(f"outcomes,complete={self.n_complete},"
                     f"partial={self.n_partial},none={self.n_none},"
                     f"total={self.n_traces}")
        return "\n".join(lines) + "\n"


def upload_timing(trace: AttackTrace) -> tuple[list[float], list[float]]:
    """Upload timestamps plus inter-upload gaps.

    Gaps are measured between consecutive uploads of the same target so an
    interleaved two-target schedule still reflects each channel's cadence;
    the per-target gap lists are concatenated.
    """
    events = [(s.target, s.clock) for s in trace.steps
              if s.action == "upload" and s.outcome == "uploaded"]
    times = [t for _, t in events]
    gaps: list[float] = []
    targets = sorted({tgt for tgt, _ in events})
    for tgt in targets:
        own = [t for e_tgt, t in events if e_tgt == tgt]
        gaps.extend(np.diff(own).tolist())
    return times, gaps


def timing_to_csv(traces: list[AttackTrace]) -> tuple[str, str]:
    """(upload times CSV, inter-upload gaps CSV) over a trace collection."""
    time_lines = ["trace,event,time_s"]
    gap_lines = ["trace,gap_s"]
    for i, trace in enumerate(traces):
        times, gaps = upload_timing(trace)
        for j, t in enumerate(times):
            time_lines.append(f"{i},{j},{t:.6g}")
        for g in gaps:
            gap_lines.append(f"{i},{g:.6g}")
    return "\n".join(time_lines) + "\n", "\n".join(gap_lines) + "\n"


# ---------------------------------------------------------------------------
# JSON-lines trace persistence


def _addr_key(addr: tuple[int, int]) -> str:
    return f"{addr[0]},{addr[1]}"


# one encoder for the lines and the fragments that are not made by hand
_encode = json.JSONEncoder().encode
_INF = float("inf")


def _json_number(x) -> str:
    """The JSON text of a number, as the encoder writes it: ``repr`` of a
    finite float or an int; anything else (NaN, an infinity, a bool, a
    subclass) goes to the encoder."""
    kind = type(x)
    if kind is int or kind is float and -_INF < x < _INF:
        return repr(x)
    return _encode(x)


def write_traces_jsonl(traces: list[AttackTrace], fh) -> None:
    """Write each trace as a trace record line, then one line per step.

    Every line equals ``json.dumps(row, sort_keys=True)`` of its record. A
    step line is formatted from fragments in sorted key order, with no
    per-step dict: the JSON text of each string and of each integer-pair
    target is made once per call, and numbers go through ``_json_number``.
    """
    texts: dict = {}  # a string or an integer pair -> its JSON text

    def text(value) -> str:
        out = texts.get(value)
        if out is None:
            out = texts[value] = _encode(value)  # a tuple as a JSON list
        return out

    for i, trace in enumerate(traces):
        meta = {
            "emergencies": trace.emergencies,
            "record": "trace",
            "seed": trace.seed,
            # sorted as strings, as sort_keys would: "10,0" before "2,1"
            "terminal_status": dict(sorted(
                (_addr_key(a), s) for a, s in trace.terminal_status.items())),
            "trace": i,
        }
        lines = [_encode(meta), "\n"]
        for s in trace.steps:
            t = s.target
            if not t:
                target = "null"
            elif (type(t) is tuple and len(t) == 2
                  and type(t[0]) is int and type(t[1]) is int):
                # a pair of floats or bools would equal its int pair as a key
                target = text(t)
            else:
                target = _encode(list(t))
            found = ("" if s.n_discovered is None else
                     f', "n_discovered": {_json_number(s.n_discovered)}')
            rate = f', "rate": {text(s.rate)}' if s.rate else ""
            cve = (f', "vulnerability": {text(s.vulnerability)}'
                   if s.vulnerability else "")
            lines.append(
                f'{{"action": {text(s.action)}, "clock": {_json_number(s.clock)}'
                f'{found}, "outcome": {text(s.outcome)}{rate}, "record": "step"'
                f', "reward": {_json_number(s.reward)}'
                f', "step": {_json_number(s.step)}, "target": {target}'
                f', "trace": {i}{cve}}}\n')
        fh.write("".join(lines))


def _address_key(key: str, lineno: int) -> tuple[int, int]:
    try:
        subnet, local = (int(x) for x in key.split(","))
    except ValueError:
        raise TraceFormatError(
            f"line {lineno}: terminal_status key {key!r} is not 'subnet,local'"
        ) from None
    return subnet, local


@dataclass(slots=True)
class _TraceRecord:
    """A trace record once its ``record`` and ``trace`` keys are taken off."""

    seed: int
    terminal_status: dict[str, str]
    emergencies: int = 0


def _check_counters(where: str, **counters) -> None:
    """Raise TraceFormatError for a counter below zero; None is absent."""
    for key, value in counters.items():
        if value is not None and value < 0:
            raise TraceFormatError(f"{where}: {key} must be >= 0, got {value}")


def read_traces_jsonl(fh) -> list[AttackTrace]:
    """Parse traces written by ``write_traces_jsonl``; raises
    TraceFormatError naming the first line that is not a valid record,
    such as one with a negative trace index, seed, emergencies, step or
    n_discovered, or an exploit or upload step without its vulnerability
    or rate."""
    traces: dict[int, AttackTrace] = {}
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: not JSON ({exc.msg})") from None
        where = f"line {lineno}"
        if not isinstance(row, dict):
            raise TraceFormatError(f"{where}: not a JSON object")
        try:
            record = row.pop("record")
            if record not in ("trace", "step"):
                raise TraceFormatError(f"{where}: unknown record {record!r}")
            index = build_config(int, row.pop("trace"), TraceFormatError,
                                 f"{where}: trace")
            _check_counters(where, trace=index)
        except KeyError as exc:
            raise TraceFormatError(f"{where}: missing key {exc}") from None
        if record == "trace":
            if index in traces:
                raise TraceFormatError(f"{where}: trace {index} is recorded twice")
            meta = build_config(_TraceRecord, row, TraceFormatError, where)
            _check_counters(where, seed=meta.seed, emergencies=meta.emergencies)
            traces[index] = AttackTrace(
                seed=meta.seed, emergencies=meta.emergencies,
                terminal_status={_address_key(key, lineno): status
                                 for key, status in meta.terminal_status.items()})
            continue
        if index not in traces:
            raise TraceFormatError(
                f"{where}: step of trace {index} comes before its trace record")
        step = build_config(TraceStep, row, TraceFormatError, where)
        _check_counters(where, step=step.step, n_discovered=step.n_discovered)
        if step.action not in _ACTION_KINDS:
            raise TraceFormatError(f"{where}: unknown action {step.action!r}")
        if step.action != "sleep" and step.target is None:
            raise TraceFormatError(f"{where}: {step.action} target must be a pair "
                                   f"of integers, got None")
        named = _NAMED_BY.get(step.action)
        if named and getattr(step, named) is None:
            raise TraceFormatError(f"{where}: {step.action} step has no {named}")
        traces[index].steps.append(step)
    return [traces[k] for k in sorted(traces)]
