from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from c2sim import analysis, neural, ppo
from c2sim.analysis import (
    AttackTrace,
    TraceStep,
    prune_trace,
    read_traces_jsonl,
    replay_trace,
    sample_paths,
    summarize,
    timing_to_csv,
    upload_timing,
    write_traces_jsonl,
)
from c2sim.c2_env import (
    C2Env,
    Connect,
    Exploit,
    ScenarioConfig,
    Sleep,
    SubnetScan,
    Upload,
)

from conftest import chain_topology
from oracles import reference_prune_trace, reference_sample_paths


OPTIMAL_PREFIX = [
    SubnetScan((1, 0)),
    Exploit((2, 0), "CVE-2020-1259"),
    SubnetScan((2, 0)),
    Exploit((2, 1), "CVE-2020-1259"),
    Exploit((3, 0), "CVE-2019-15920"),
    Connect((2, 1)),
    Connect((3, 0)),
]
OPTIMAL_UPLOADS = [
    Upload((2, 1), "fast"), Upload((3, 0), "fast"),
    Upload((2, 1), "fast"), Upload((3, 0), "fast"),
    Upload((2, 1), "fast"), Upload((3, 0), "fast"),
]


def lucky_seed(env, limit=200):
    """Seed where both connects succeed on the first attempt."""
    for seed in range(limit):
        trace = replay_trace(env, seed, OPTIMAL_PREFIX + OPTIMAL_UPLOADS)
        outcomes = [s.outcome for s in trace.steps if s.action == "connect"]
        if outcomes == ["connected", "connected"]:
            return seed
    raise AssertionError("no lucky seed found")


@pytest.fixture
def tiny_env(tiny_inputs):
    return C2Env(*tiny_inputs)


class TestSamplePaths:
    def _uniform_actor(self, env):
        return neural.init_mlp(np.random.default_rng(0), env.obs_len, (8,),
                               env.n_actions, out_gain=0.0)

    def test_random_policy_yields_structurally_valid_trace(self, tiny_env):
        traces = sample_paths(tiny_env, self._uniform_actor(tiny_env), 1, seed=4)
        t = traces[0]
        assert t.n_steps <= tiny_env.scenario.max_steps
        clocks = [s.clock for s in t.steps]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))
        assert set(t.terminal_status) == set(tiny_env.scenario.sensitive_hosts)
        assert t.classification() in ("complete", "partial", "none")

    def test_seeded_sampling_reproducible(self, tiny_env):
        actor = self._uniform_actor(tiny_env)
        a = sample_paths(tiny_env, actor, 5, seed=9)
        b = sample_paths(tiny_env, actor, 5, seed=9)
        assert [t.classification() for t in a] == [t.classification() for t in b]
        assert [t.total_reward for t in a] == [t.total_reward for t in b]

    def test_n_must_be_positive(self, tiny_env):
        with pytest.raises(ValueError):
            sample_paths(tiny_env, self._uniform_actor(tiny_env), 0, seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_a_forward_on_every_step(self, tiny_env, monkeypatch, seed):
        actor = ppo.init_policy(np.random.default_rng([seed, 0]),
                                tiny_env.obs_len, tiny_env.n_actions,
                                ppo.PpoConfig()).actor
        want = reference_sample_paths(tiny_env, actor, 40, seed)
        forwards = []
        real_forward = neural.forward

        def counted(p, x):
            forwards.append(1)
            return real_forward(p, x)

        monkeypatch.setattr(neural, "forward", counted)
        traces = sample_paths(tiny_env, actor, 40, seed)
        monkeypatch.undo()
        assert [t.seed for t in traces] == [s for s, _ in want]
        for trace, (ep_seed, taken) in zip(traces, want):
            replay = replay_trace(tiny_env, ep_seed,
                                  [tiny_env.actions[i] for i in taken])
            assert trace.steps == replay.steps
            assert trace.terminal_status == replay.terminal_status
        n_steps = sum(t.n_steps for t in traces)
        # fewer forwards than draws: a step that left the observation as it
        # was drew from the previous step's distribution
        assert 0 < len(forwards) < n_steps


class TestReplay:
    def test_replay_reproduces_trace(self, tiny_env):
        seed = lucky_seed(tiny_env)
        actions = OPTIMAL_PREFIX + OPTIMAL_UPLOADS
        a = replay_trace(tiny_env, seed, actions)
        b = replay_trace(tiny_env, seed, actions)
        assert [s.outcome for s in a.steps] == [s.outcome for s in b.steps]
        assert a.total_reward == b.total_reward
        assert a.classification() == "complete"

    def test_replay_by_index_equals_replay_by_value(self, tiny_env):
        seed = lucky_seed(tiny_env)
        noise = Exploit((3, 0), "CVE-2020-1259")  # a CVE its host lacks
        assert noise not in tiny_env.action_index
        actions = OPTIMAL_PREFIX + [noise, Sleep()] + OPTIMAL_UPLOADS
        mixed = [a if a == noise else tiny_env.action_index[a] for a in actions]
        by_value = replay_trace(tiny_env, seed, actions)
        assert replay_trace(tiny_env, seed, mixed) == by_value
        assert by_value.steps[7].outcome == "exploit_failed"
        assert by_value.classification() == "complete"

    @pytest.mark.parametrize("bad", [-1, "n_actions"])
    def test_index_outside_the_space_names_its_step(self, tiny_env, bad):
        n = tiny_env.n_actions
        bad = n if bad == "n_actions" else bad
        with pytest.raises(analysis.TraceReplayError,
                           match=rf"^step 2: action index {bad} outside \[0, {n}\)$"):
            replay_trace(tiny_env, 0, [Sleep(), 0, bad])


class TestPrune:
    def test_duplicate_connect_removed(self, tiny_env):
        seed = lucky_seed(tiny_env)
        actions = (OPTIMAL_PREFIX + [Connect((2, 1))] + OPTIMAL_UPLOADS)
        trace = replay_trace(tiny_env, seed, actions)
        redundant = [s for s in trace.steps if s.outcome == "already_connected"]
        assert len(redundant) == 1
        pruned = prune_trace(tiny_env, trace)
        assert pruned.n_steps == trace.n_steps - 1
        assert all(s.outcome != "already_connected" for s in pruned.steps)
        assert pruned.terminal_status == trace.terminal_status

    def test_failed_exploit_and_noise_removed(self, tiny_env):
        seed = lucky_seed(tiny_env)
        noisy = (
            [SubnetScan((1, 0))]
            + OPTIMAL_PREFIX
            + [Exploit((3, 0), "CVE-2020-1259"),  # wrong os: fails
               Sleep()]
            + OPTIMAL_UPLOADS
        )
        trace = replay_trace(tiny_env, seed, noisy)
        assert trace.classification() == "complete"
        pruned = prune_trace(tiny_env, trace)
        outcomes = [s.outcome for s in pruned.steps]
        assert "exploit_failed" not in outcomes
        assert "slept" not in outcomes
        # the duplicated opening scan collapses to a single discovery scan
        assert sum(1 for s in pruned.steps if s.action == "subnet_scan") == 2

    def test_minimal_trace_is_fixpoint(self, tiny_env):
        seed = lucky_seed(tiny_env)
        trace = replay_trace(tiny_env, seed, OPTIMAL_PREFIX + OPTIMAL_UPLOADS)
        pruned = prune_trace(tiny_env, trace)
        assert [s.to_action() for s in pruned.steps] == [
            s.to_action() for s in trace.steps]

    def test_repeated_exploit_removed(self, tiny_env):
        seed = lucky_seed(tiny_env)
        noisy = (OPTIMAL_PREFIX
                 + [Exploit((2, 0), "CVE-2020-1259")]  # pivot again
                 + OPTIMAL_UPLOADS)
        trace = replay_trace(tiny_env, seed, noisy)
        pruned = prune_trace(tiny_env, trace)
        assert sum(1 for s in pruned.steps if s.action == "exploit") == 3

    def test_erroneous_actions_removed(self, tiny_env):
        seed = lucky_seed(tiny_env)
        noisy = ([Upload((2, 1), "fast")]  # before connection: erroneous
                 + OPTIMAL_PREFIX + OPTIMAL_UPLOADS)
        trace = replay_trace(tiny_env, seed, noisy)
        pruned = prune_trace(tiny_env, trace)
        assert all(s.outcome != "erroneous" for s in pruned.steps)


    def test_unreachable_status_raises(self, tiny_env):
        # a completed target recorded as incomplete: deleting steps cannot
        # leave it short of its payload, so no replay reaches the record
        trace = replay_trace(tiny_env, lucky_seed(tiny_env),
                             OPTIMAL_PREFIX + [Connect((2, 1))] + OPTIMAL_UPLOADS)
        assert set(trace.terminal_status.values()) == {"completed"}
        trace.terminal_status[(2, 1)] = "incomplete"
        with pytest.raises(analysis.PruneDivergenceError,
                           match=r"^pruned trace reaches .*'completed'.*, original "
                                 r"was .*'incomplete'"):
            prune_trace(tiny_env, trace)

    def test_equals_the_reference_prune(self, tiny_env):
        """Every trace sampled from a few seeded actors, on tiny and on a
        three-subnet chain, prunes as the reference does: the same steps,
        statuses and emergencies, or the same PruneDivergenceError when one
        recorded status is altered."""
        chain = chain_topology(3)
        # the foothold doubles as a target, so short episodes reach the
        # connect and upload stages
        chain_env = C2Env(chain, ScenarioConfig(
            initial_foothold=(1, 0), sensitive_hosts=((1, 0), (3, 0)),
            payload_size_mb=3000.0, max_steps=80))
        statuses = ("completed", "isolated", "incomplete")
        rng = np.random.default_rng(31)
        outcomes = {"pruned": 0, "raised": 0, "altered and raised": 0}

        def pruned(prune, env, trace):
            try:
                out = prune(env, trace)
            except analysis.PruneDivergenceError as exc:
                return str(exc)
            return out.steps, out.terminal_status, out.emergencies

        for env, n_actors, n_paths in ((tiny_env, 4, 10), (chain_env, 2, 10)):
            for a in range(n_actors):
                actor = ppo.init_policy(np.random.default_rng([a, 1]), env.obs_len,
                                        env.n_actions, ppo.PpoConfig()).actor
                for k, trace in enumerate(sample_paths(env, actor, n_paths, seed=a)):
                    altered = k % 3 == 2
                    if altered:
                        addr = sorted(trace.terminal_status)[int(rng.integers(2))]
                        was = trace.terminal_status[addr]
                        trace.terminal_status[addr] = statuses[
                            (statuses.index(was) + int(rng.integers(1, 3))) % 3]
                    want = pruned(reference_prune_trace, env, trace)
                    assert pruned(prune_trace, env, trace) == want
                    raised = isinstance(want, str)
                    outcomes["raised" if raised else "pruned"] += 1
                    outcomes["altered and raised"] += altered and raised
        assert min(outcomes.values()) > 0, outcomes


class TestSummarize:
    def _fake_trace(self, n_steps, reward_each, clock_step=30.0, seed=1):
        steps = [
            TraceStep(step=i, clock=clock_step * (i + 1), action="sleep",
                      target=None, reward=reward_each, outcome="slept")
            for i in range(n_steps)
        ]
        return AttackTrace(seed=seed, steps=steps,
                           terminal_status={(9, 9): "completed"})

    def test_singleton_statistics(self):
        s = summarize([self._fake_trace(10, 5.0)])
        assert s.steps == {"mean": 10, "std": 0, "min": 10, "max": 10}
        assert s.rewards["mean"] == 50.0
        assert s.n_complete == 1

    def test_two_point_statistics(self):
        a = self._fake_trace(4, 25.0)   # reward 100
        b = self._fake_trace(4, 75.0)   # reward 300
        s = summarize([a, b])
        assert s.rewards["mean"] == 200.0
        assert s.rewards["std"] == 100.0
        assert s.rewards["min"] == 100.0 and s.rewards["max"] == 300.0

    def test_action_counts_over_successful_only(self, tiny_env):
        seed = lucky_seed(tiny_env)
        good = replay_trace(tiny_env, seed, OPTIMAL_PREFIX + OPTIMAL_UPLOADS)
        bad = replay_trace(tiny_env, seed, [Sleep()] * 5)
        s = summarize([good, bad])
        assert s.n_complete == 1 and s.n_none == 1
        assert s.action_counts["upload"]["mean"] == 6
        assert s.action_counts["connect"]["mean"] == 2
        assert s.action_counts["sleep"]["mean"] == 0  # bad trace excluded

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_csv_shape(self):
        text = summarize([self._fake_trace(3, 1.0)]).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "metric,mean,std,min,max"
        assert len(lines) == 8


class TestUploadTiming:
    def test_alternating_upload_two_sleeps_gives_130s_gaps(self, tiny_env):
        seed = lucky_seed(tiny_env)
        actions = list(OPTIMAL_PREFIX)
        for _ in range(3):
            actions += [Upload((2, 1), "fast"), Sleep(), Sleep()]
        trace = replay_trace(tiny_env, seed, actions)
        times, gaps = upload_timing(trace)
        assert len(times) == 3
        assert gaps == pytest.approx([130.0, 130.0])

    def test_single_upload_empty_gap_series(self, tiny_env):
        seed = lucky_seed(tiny_env)
        trace = replay_trace(tiny_env, seed,
                             OPTIMAL_PREFIX + [Upload((2, 1), "fast")])
        times, gaps = upload_timing(trace)
        assert len(times) == 1 and gaps == []

    def test_no_uploads_is_not_an_error(self, tiny_env):
        trace = replay_trace(tiny_env, 0, [Sleep(), Sleep()])
        times, gaps = upload_timing(trace)
        assert times == [] and gaps == []

    def test_interleaved_targets_tracked_per_host(self, tiny_env):
        seed = lucky_seed(tiny_env)
        actions = list(OPTIMAL_PREFIX) + OPTIMAL_UPLOADS
        trace = replay_trace(tiny_env, seed, actions)
        _, gaps = upload_timing(trace)
        # A at t, t+20, t+40 and B at t+10, t+30, t+50: all per-host gaps 20
        assert gaps == pytest.approx([20.0, 20.0, 20.0, 20.0])

    def test_timing_csv(self, tiny_env):
        seed = lucky_seed(tiny_env)
        trace = replay_trace(tiny_env, seed, OPTIMAL_PREFIX + OPTIMAL_UPLOADS)
        times_csv, gaps_csv = timing_to_csv([trace])
        assert times_csv.splitlines()[0] == "trace,event,time_s"
        assert len(times_csv.strip().splitlines()) == 7
        assert gaps_csv.splitlines()[0] == "trace,gap_s"


def reference_trace_lines(traces):
    """The lines of ``write_traces_jsonl(traces)``, each made as
    ``json.dumps(row, sort_keys=True)`` of its record's dict."""
    lines = []
    for i, trace in enumerate(traces):
        lines.append(json.dumps({
            "emergencies": trace.emergencies, "record": "trace",
            "seed": trace.seed, "trace": i,
            "terminal_status": {f"{a},{b}": status for (a, b), status
                                in trace.terminal_status.items()},
        }, sort_keys=True))
        for s in trace.steps:
            row = {"action": s.action, "clock": s.clock, "outcome": s.outcome,
                   "record": "step", "reward": s.reward, "step": s.step,
                   "target": list(s.target) if s.target else None, "trace": i}
            if s.n_discovered is not None:
                row["n_discovered"] = s.n_discovered
            if s.rate:
                row["rate"] = s.rate
            if s.vulnerability:
                row["vulnerability"] = s.vulnerability
            lines.append(json.dumps(row, sort_keys=True))
    return lines


def written(traces) -> str:
    buf = io.StringIO()
    write_traces_jsonl(traces, buf)
    return buf.getvalue()


_KINDS = ["subnet_scan", "exploit", "connect", "upload", "sleep"]
# quotes, backslashes, control and non-ASCII characters, and any text
_TEXT = st.one_of(
    st.sampled_from(['"', "\\", 'CVE-"2020"\\1259', "Schwachstelle-ä",
                     "\u2028", "\x00\x1f", "脆弱性", "😀"]),
    st.text(max_size=8))
_INTS = st.integers(min_value=-2**70, max_value=2**70)
# finite and non-finite floats (-0.0 among them), ints and bools
_NUMBERS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e300]),
                     _INTS, st.booleans())
# small pairs repeat within one call; pairs of floats and bools equal an
# int pair as dict keys but are written otherwise
_TARGETS = st.one_of(
    st.none(), st.just(()),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(*[st.sampled_from([1, 1.0, True, 0, -0.0, False])] * 2),
    st.lists(st.integers(0, 3), max_size=3))
_STEPS = st.builds(
    TraceStep, step=st.one_of(_INTS, st.booleans()), clock=_NUMBERS,
    action=st.one_of(st.sampled_from(_KINDS), _TEXT), target=_TARGETS,
    reward=_NUMBERS, outcome=_TEXT,
    vulnerability=st.one_of(st.none(), st.just(""), _TEXT),
    rate=st.one_of(st.none(), st.just(""), _TEXT),
    n_discovered=st.one_of(st.none(), _INTS, st.booleans()))
_ADDRESSES = st.tuples(st.integers(0, 12), st.integers(0, 12))
_TRACES = st.lists(st.builds(
    AttackTrace, seed=_INTS, emergencies=_INTS,
    steps=st.lists(_STEPS, max_size=6),
    terminal_status=st.dictionaries(_ADDRESSES, _TEXT, max_size=3)), max_size=3)

# traces the reader accepts: finite float clocks and rewards, counters of
# at least 0, an integer-pair target on every step but a sleep, and a
# vulnerability on every exploit and a rate on every upload (the writer
# leaves out an empty one)
_READABLE_STEPS = st.builds(
    TraceStep, step=st.integers(0, 2**70),
    clock=st.floats(allow_nan=False, allow_infinity=False),
    action=st.sampled_from(_KINDS),
    target=st.one_of(st.none(), st.tuples(st.integers(0, 2**40),
                                          st.integers(0, 9))),
    reward=st.floats(allow_nan=False, allow_infinity=False), outcome=_TEXT,
    vulnerability=st.one_of(st.none(), _TEXT),
    rate=st.one_of(st.none(), _TEXT),
    n_discovered=st.one_of(st.none(), st.integers(0, 2**70)),
).filter(lambda s: (s.action == "sleep" or s.target is not None)
          and (s.action != "exploit" or s.vulnerability)
          and (s.action != "upload" or s.rate))
_READABLE_TRACES = st.lists(st.builds(
    AttackTrace, seed=st.integers(0, 2**70), emergencies=st.integers(0, 2**70),
    steps=st.lists(_READABLE_STEPS, max_size=6),
    terminal_status=st.dictionaries(_ADDRESSES, _TEXT, max_size=3)), max_size=3)

_EDGE_CASES = [AttackTrace(seed=2**64, emergencies=1, terminal_status={
    (10, 0): 'say "hi"', (2, 1): "ü"}, steps=[
        TraceStep(0, 0, "sleep", None, -0.0, "slept"),
        TraceStep(1, float("nan"), "exploit", (1, 2), float("inf"),
                  "exploited", vulnerability='CVE-"1"\\2-ö'),
        TraceStep(2, -float("inf"), "exploit", (1.0, 2), 2**80,
                  "exploit_failed", vulnerability='CVE-"1"\\2-ö'),
        TraceStep(3, 1.5, "upload", (True, 2), True, "uploaded", rate=""),
        TraceStep(4, 1e-7, "subnet_scan", (1, 2), 1, "scanned",
                  n_discovered=0),
        TraceStep(5, 2.0, "connect", [1, 2], -0.0, "connected", rate=None),
    ])]


class TestJsonl:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_TRACES)
    @example(_EDGE_CASES)
    def test_lines_equal_json_dumps_property(self, traces):
        assert written(traces) == "".join(
            line + "\n" for line in reference_trace_lines(traces))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_READABLE_TRACES)
    def test_write_read_write_property(self, traces):
        first = written(traces)
        assert written(read_traces_jsonl(io.StringIO(first))) == first

    def test_round_trip(self, tiny_env):
        actor = neural.init_mlp(np.random.default_rng(0), tiny_env.obs_len,
                                (8,), tiny_env.n_actions, out_gain=0.0)
        traces = sample_paths(tiny_env, actor, 3, seed=2)
        buf = io.StringIO()
        write_traces_jsonl(traces, buf)
        buf.seek(0)
        back = read_traces_jsonl(buf)
        assert len(back) == 3
        for orig, rt in zip(traces, back):
            assert rt.seed == orig.seed
            assert rt.terminal_status == orig.terminal_status
            assert [s.outcome for s in rt.steps] == [s.outcome for s in orig.steps]
            assert rt.total_reward == pytest.approx(orig.total_reward)

    def test_lines_are_sorted_key_json_dumps(self, tiny_env):
        traces = [replay_trace(tiny_env, 0, OPTIMAL_PREFIX + OPTIMAL_UPLOADS),
                  replay_trace(tiny_env, 0, [])]
        buf = io.StringIO()
        write_traces_jsonl(traces, buf)
        lines = buf.getvalue().splitlines()
        records = [json.loads(line) for line in lines]
        assert lines == [json.dumps(r, sort_keys=True) for r in records]
        assert {"vulnerability", "rate", "n_discovered"} <= {
            key for r in records for key in r}
        assert [r["record"] for r in records].count("trace") == 2

    def test_addresses_ordered_as_strings(self):
        # (2, 1) < (10, 0) as tuples, but "10,0" < "2,1" as keys
        trace = AttackTrace(seed=4, terminal_status={
            (2, 1): "exfiltrated", (10, 0): "isolated"})
        trace.steps.append(TraceStep(
            step=0, clock=10.0, action="upload", target=(10, 0), reward=-1.5,
            outcome="upload", rate="fast"))
        buf = io.StringIO()
        write_traces_jsonl([trace], buf)
        lines = buf.getvalue().splitlines()
        assert lines == [json.dumps(json.loads(line), sort_keys=True)
                         for line in lines]
        assert list(json.loads(lines[0])["terminal_status"]) == ["10,0", "2,1"]
