from __future__ import annotations

import io
import json

import numpy as np
import pytest

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
from c2sim.c2_env import C2Env, Connect, Exploit, Sleep, SubnetScan, Upload

from oracles import reference_sample_paths


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


class TestJsonl:
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
