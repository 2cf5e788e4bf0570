from __future__ import annotations

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c2sim.c2_env import (
    CONNECTION_STATUSES,
    ActionTimes,
    C2Env,
    Connect,
    EnvState,
    EpisodeDoneError,
    Exploit,
    RewardTable,
    ScenarioConfig,
    ScenarioError,
    Sleep,
    SubnetScan,
    Upload,
    action_cost,
    apply_decay,
    build_action_space,
    CONNECTED,
    ISOLATED,
    NOT_CONNECTED,
    OUTCOME_ALREADY,
    OUTCOME_BLOCKED,
    OUTCOME_CONNECTED,
    OUTCOME_EMERGENCY,
)
from c2sim.net_model import (
    AllowRule,
    Firewall,
    FirewallParams,
    NetworkTopology,
    Subnet,
    firewall_path,
    vuln_applies,
)

from conftest import chain_topology, make_host, vuln
from test_golden import _scripted_attacker_class
import oracles


def scenario_for(topology, payload=3000.0, max_steps=500, **kw):
    sensitive = tuple(h.address for h in topology.hosts() if h.is_sensitive)
    return ScenarioConfig(
        initial_foothold=(1, 0),
        sensitive_hosts=sensitive,
        payload_size_mb=payload,
        max_steps=max_steps,
        **kw,
    )


@pytest.fixture
def chain3():
    """1 - 2 - 3 chain, target at (3, 0), everything mutually visible."""
    t = chain_topology(3)
    return t, scenario_for(t)


def env_of(pair) -> C2Env:
    return C2Env(pair[0], pair[1])


def infect(env, addr, at=0.0):
    """Mark a host discovered and infected at time ``at``."""
    i = env.host_index[addr]
    env.state.discovered[i] = env.state.infected[i] = True
    env.state.infection_time[i] = at


def set_status(env, addr, status):
    """Set a target's connection status by writing its ``state.status``
    one-hot."""
    env.state.status[env.target_index[addr]] = [
        float(s == status) for s in CONNECTION_STATUSES]


def status_of(env, addr):
    """The connection status a target's ``state.status`` one-hot names."""
    one_hot = env.state.status[env.target_index[addr]].tolist()
    assert sorted(one_hot) == [0.0, 0.0, 1.0], one_hot
    return CONNECTION_STATUSES[one_hot.index(1.0)]


def target_value(env, field, addr):
    """A target's entry in one of the per-target state fields."""
    return getattr(env.state, field)[env.target_index[addr]]


def infection_time(env, addr):
    return env.state.infection_time[env.host_index[addr]]


def fw_slot(env, fw_id):
    """Position of a firewall in the env's update-time lists."""
    return [fw.id for fw in env.topology.firewalls].index(fw_id)


class TestReset:
    def test_initial_condition(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        st = env.state
        for h in env.topology.hosts():
            i = env.host_index[h.address]
            if h.address == (1, 0):
                assert st.discovered[i] and st.infected[i]
                assert st.infection_time[i] == 0.0
            else:
                assert not st.discovered[i] and not st.infected[i]
        assert env.state.clock == 0.0
        for j, fw in enumerate(env.topology.firewalls):
            assert st.fw_last_update[j] == 0.0
        assert st.fw_next_due == min(
            fw.params.update_period_seconds for fw in env.topology.firewalls)

    def test_reset_deterministic(self, chain3):
        env = env_of(chain3)
        a = env.reset(seed=7).copy()
        b = env.reset(seed=7)
        assert np.array_equal(a, b)

    def test_reset_builds_no_episode_state(self, chain3):
        env = env_of(chain3)
        st = env.state
        held = {f.name: getattr(st, f.name) for f in dataclasses.fields(st)
                if isinstance(getattr(st, f.name), (np.ndarray, list))}
        logs = list(st.uploads)
        for seed in range(2):
            prepare_connected(env, seed=seed)
            env.step(Upload((3, 0), "fast"))
            assert st.uploads[0]
        env.reset(seed=2)
        assert env.state is st
        for name, value in held.items():
            assert getattr(env.state, name) is value, name
        assert all(a is b for a, b in zip(env.state.uploads, logs, strict=True))
        assert not any(env.state.uploads)

    @pytest.mark.parametrize("name", ["tiny", "chain3", "enterprise101"])
    def test_reset_after_any_prefix_equals_a_fresh_reset(
            self, name, chain3, tiny_inputs, enterprise_inputs):
        """A seeded walk of the benchmark's scripted attacker, mixed with
        uniform actions on the small networks, then ``reset(seed)``: the
        observation, every ``EnvState`` field and the next 50 steps equal a
        fresh env's."""
        pair = {"tiny": tiny_inputs, "chain3": chain3,
                "enterprise101": enterprise_inputs}[name]
        scenario = pair[1]
        attacker = _scripted_attacker_class()
        # the enterprise attacker needs ~1,000 steps to its first upload and
        # ~1,900 to its first emergency; a uniform action there is erroneous
        longest, explore, examples = ((2_000, 0.0, 10) if name == "enterprise101"
                                      else (80, 0.5, 40))
        used = C2Env(*pair)
        seen = set()

        def walk(env, rng, steps):
            """Step ``env`` up to ``steps`` times; yield each step's output."""
            actor = attacker(env.actions, scenario.initial_foothold,
                             scenario.payload_size_mb, rng)
            for _ in range(steps):
                if env.done:
                    return
                idx = (int(rng.integers(env.n_actions)) if rng.random() < explore
                       else actor.act())
                out = env.step(idx)
                actor.observe(out[3])
                yield out

        @settings(derandomize=True, deadline=None, max_examples=examples)
        @given(st.integers(0, 2**32 - 1), st.integers(1, longest),
               st.integers(0, 2**63 - 1))
        def check(walk_seed, steps, seed):
            used.reset(seed=walk_seed)
            for _, _, _, info in walk(used, np.random.default_rng(walk_seed), steps):
                seen.add(info["outcome"])
                seen.add("emergency" if info["emergency"] else "no emergency")
            fresh = C2Env(*pair)
            assert used.reset(seed=seed).tobytes() == fresh.reset(seed=seed).tobytes()
            for f in dataclasses.fields(EnvState):
                a, b = getattr(used.state, f.name), getattr(fresh.state, f.name)
                if isinstance(a, np.ndarray):
                    assert a.tobytes() == b.tobytes(), f.name
                else:
                    assert a == b, f.name
            n = 0
            for (obs, reward, done, info), (obs_f, reward_f, done_f, info_f) in zip(
                    walk(used, np.random.default_rng(seed), 50),
                    walk(fresh, np.random.default_rng(seed), 50), strict=True):
                assert obs.tobytes() == obs_f.tobytes(), n
                assert (reward, done, info) == (reward_f, done_f, info_f), n
                n += 1

        check()
        assert {"uploaded", "emergency"} <= seen, seen

    def test_observation_length_formula(self, chain3, tiny_inputs):
        for topology, scenario in (chain3, tiny_inputs):
            env = C2Env(topology, scenario)
            n_hosts = len(topology.hosts())
            n_subnets = len(topology.subnets)
            max_local = max(len(s.hosts) for s in topology.subnets)
            n_services = len({b.service_name for h in topology.hosts()
                              for b in h.services})
            expected = (n_hosts * (n_subnets + max_local + 2 + n_services + 4)
                        + len(scenario.sensitive_hosts) * 8)
            assert env.obs_len == expected
            assert env.reset(seed=0).shape == (expected,)

    def test_observation_length_formula_at_full_scale(self, enterprise_inputs):
        topology, scenario = enterprise_inputs
        env = C2Env(topology, scenario)
        n_hosts = len(topology.hosts())
        assert n_hosts == 1444
        max_local = max(len(s.hosts) for s in topology.subnets)
        n_services = len({b.service_name for h in topology.hosts()
                          for b in h.services})
        expected = (n_hosts * (len(topology.subnets) + max_local + 2
                               + n_services + 4)
                    + len(scenario.sensitive_hosts) * 8)
        assert env.obs_len == expected
        obs = env.reset(seed=0)
        assert obs.shape == (expected,)
        # dynamic_index lists the discovered bits by host row, then the
        # infected bits
        foothold = env.host_index[scenario.initial_foothold]
        assert obs[env.dynamic_index[foothold]] == 1.0
        assert obs[env.dynamic_index[n_hosts + foothold]] == 1.0

    def test_scenario_mismatch_rejected(self, chain3):
        topology, scenario = chain3
        bad = dataclasses.replace(scenario, initial_foothold=(9, 9))
        with pytest.raises(ScenarioError, match="foothold"):
            C2Env(topology, bad)
        bad = dataclasses.replace(scenario, sensitive_hosts=((9, 9),))
        with pytest.raises(ScenarioError, match="sensitive"):
            C2Env(topology, bad)
        dup = dataclasses.replace(scenario, sensitive_hosts=((3, 0), (3, 0)))
        with pytest.raises(ScenarioError, match="duplicate"):
            C2Env(topology, dup)

    def test_step_after_done_is_contract_violation(self, chain3):
        env = env_of(chain3)
        with pytest.raises(EpisodeDoneError):
            env.step(0)


class TestActionSpace:
    def test_flat_enumeration_fixed_per_topology(self, chain3):
        topology, scenario = chain3
        actions = build_action_space(topology, scenario)
        n_hosts = len(topology.hosts())
        n_vulns = sum(len({v.cve_id for v in h.vulnerabilities()})
                      for h in topology.hosts())
        n_sens = len(scenario.sensitive_hosts)
        assert len(actions) == n_hosts + n_vulns + n_sens + 2 * n_sens + 1
        assert isinstance(actions[-1], Sleep)
        # stable across construction
        assert actions == build_action_space(topology, scenario)


def fresh(action):
    """An action equal to ``action`` but built anew, as a replayed trace
    builds its actions."""
    if isinstance(action, Sleep):
        return Sleep()
    host = (action.host[0], action.host[1])
    return dataclasses.replace(action, host=host)


class TestActionLookup:
    @pytest.mark.parametrize("bad, error, message", [
        (-1, ValueError, r"action index -1 outside \[0, 18\)"),
        (18, ValueError, r"action index 18 outside \[0, 18\)"),
        (np.int64(18), ValueError, r"action index 18 outside"),
        (2.0, TypeError, "2.0"),
        ("3", TypeError, "'3'"),
        (True, TypeError, "True"),
        (Exploit((99, 0), "CVE-x"), ValueError, r"host \(99, 0\)"),
        (Upload((2, 1), "medium"), ValueError, "upload rate 'medium'"),
    ], ids=["negative", "past-end", "numpy-past-end", "float", "str", "bool",
            "unknown-host", "unknown-rate"])
    def test_bad_action_is_a_named_error(self, tiny_inputs, bad, error, message):
        env = C2Env(*tiny_inputs)
        assert env.n_actions == 18
        before = env.reset(seed=0).copy()
        with pytest.raises(error, match=message):
            env.step(bad)
        # rejected before the episode changes
        assert env.state.clock == 0.0 and env.state.step_count == 0
        assert np.array_equal(env.encode_observation(), before)
        assert env.step(Sleep())[3]["outcome"] == "slept"

    @pytest.mark.parametrize("bad, error, message", [
        (Exploit((99, 0), "CVE-x"), ValueError,
         r"^exploit targets host \(99, 0\), which is not in the topology$"),
        (Upload((2, 1), "medium"), ValueError, "upload rate 'medium' is not one of"),
        (3, TypeError, "not an action"),
    ], ids=["unknown-host", "unknown-rate", "index"])
    def test_check_action_is_a_named_error(self, tiny_inputs, bad, error, message):
        with pytest.raises(error, match=message):
            C2Env(*tiny_inputs).check_action(bad)

    def test_check_action_accepts_takeable_actions(self, tiny_inputs):
        env = C2Env(*tiny_inputs)
        # in the space, built anew, and outside the space but on a known host
        for action in (*env.actions, *map(fresh, env.actions),
                       Exploit((2, 0), "CVE-0000-0000")):
            assert env.check_action(action) is None
        assert env.done  # checking needs no episode

    @staticmethod
    def walk_in_lockstep(pair, choose, episodes):
        """Step two envs through the same seeded walk, one by action index
        and one by freshly built actions, and require identical output."""
        by_index, by_value = C2Env(*pair), C2Env(*pair)
        rng = np.random.default_rng(5)
        infos = []
        for ep in range(episodes):
            assert by_index.reset(seed=ep).tobytes() == by_value.reset(seed=ep).tobytes()
            done = False
            while not done:
                idx = choose(by_index, rng)
                obs, reward, done, info = by_index.step(idx)
                obs_v, reward_v, done_v, info_v = by_value.step(
                    fresh(by_index.actions[idx]))
                # bitwise, without copying the observations
                assert np.array_equal(obs.view(np.int64), obs_v.view(np.int64))
                assert (reward, done) == (reward_v, done_v)
                assert list(info.items()) == list(info_v.items())
                infos.append(info)
        return infos

    def test_by_value_steps_match_by_index_on_tiny(self, tiny_inputs):
        infos = self.walk_in_lockstep(
            tiny_inputs, lambda env, rng: int(rng.integers(env.n_actions)), 20)
        assert {info["outcome"] for info in infos} >= {
            "erroneous", "scanned", "exploited", "uploaded", OUTCOME_CONNECTED}

    def test_by_value_steps_match_by_index_on_enterprise101(self, enterprise_inputs):
        topology, scenario = enterprise_inputs
        env = C2Env(topology, scenario)
        kinds = np.array([a.kind for a in env.actions])
        hosts = np.array([env.host_index.get(getattr(a, "host", None), 0)
                          for a in env.actions])
        scan, exploit = kinds == "subnet_scan", kinds == "exploit"
        targeted = exploit & np.isin(
            hosts, [env.host_index[a] for a in scenario.sensitive_hosts])

        def choose(e, rng):
            # a share of uniform (mostly erroneous) picks and of channel
            # actions (connects, uploads, sleep and exploits of discovered
            # targets); otherwise a scan or exploit whose host precondition
            # holds
            u = rng.random()
            if u < 0.1:
                return int(rng.integers(e.n_actions))
            discovered = e.state.discovered[hosts] == 1.0
            if u < 0.4:
                ok = ~(scan | exploit) | (targeted & discovered)
            else:
                ok = (scan & (e.state.infected[hosts] == 1.0)) | (exploit & discovered)
            choices = np.flatnonzero(ok)
            return int(choices[rng.integers(len(choices))])

        infos = self.walk_in_lockstep(
            (topology, dataclasses.replace(scenario, max_steps=1_500)), choose, 1)
        assert len(infos) == 1_500
        assert {info["outcome"] for info in infos} >= {
            "erroneous", "scanned", "exploited", "exploit_failed", "uploaded"}

    def test_off_space_actions(self, tiny_inputs):
        # actions a replayed trace may hold that the action space does not:
        # an exploit naming a CVE its host lacks, and a connect or upload
        # aimed at a host that is not sensitive
        env = C2Env(*tiny_inputs)
        env.reset(seed=0)
        _, _, _, info = env.step(SubnetScan((1, 0)))
        assert (2, 0) in info["newly_discovered"]
        off_space = [
            # (action, valid, outcome, elapsed, reward); (1, 0) and (2, 0)
            # are medium-tier hosts: cost is the kind's base plus 1
            (Exploit((2, 0), "CVE-2019-15920"), True, "exploit_failed", 10.0, -5.0),
            (Connect((1, 0)), False, "erroneous", 1.0, -2.0),
            (Upload((1, 0), "fast"), False, "erroneous", 1.0, -3.0),
        ]
        clock = 30.0
        for action, valid, outcome, elapsed, reward in off_space:
            assert action not in env.actions
            _, got_reward, done, info = env.step(action)
            clock += elapsed
            assert (info["valid"], info["outcome"], info["elapsed"]) == (
                valid, outcome, elapsed), action
            assert got_reward == reward, action
            assert info["clock"] == env.state.clock == clock
            assert not done
        assert env.state.infected.sum() == 1


class TestStepSemantics:
    def test_scan_from_uninfected_host_is_erroneous(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        obs, reward, done, info = env.step(SubnetScan((2, 0)))
        assert info["outcome"] == "erroneous"
        assert env.state.clock == 1.0
        assert reward == -action_cost(SubnetScan((2, 0)), env.topology.host((2, 0)))
        assert not env.state.discovered[env.host_index[(2, 1)]]

    def test_sleep_only_advances_clock_and_decay(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        discovered = env.state.discovered.copy()
        infected = env.state.infected.copy()
        statuses = env.state.status.copy()
        _, reward, _, info = env.step(Sleep())
        assert info["outcome"] == "slept"
        assert env.state.clock == 60.0
        assert reward == -1.0
        assert np.array_equal(env.state.discovered, discovered)
        assert np.array_equal(env.state.infected, infected)
        assert np.array_equal(env.state.status, statuses)

    def test_clock_advances_per_action_table(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        expected = 0.0
        for action, dt in ((SubnetScan((1, 0)), 30.0),
                           (Exploit((2, 0), "CVE-2000-0001"), 10.0),
                           (Sleep(), 60.0)):
            env.step(action)
            expected += dt
            assert env.state.clock == expected


class TestSubnetScan:
    def test_scan_discovers_same_subnet_and_allowed_neighbors(self, tiny_inputs):
        env = C2Env(*tiny_inputs)
        env.reset(seed=0)
        _, reward, _, info = env.step(SubnetScan((1, 0)))
        newly = set(info["newly_discovered"])
        # same subnet plus the port-443 pivot and the smtp decoy
        assert newly == {(1, 1), (2, 0), (4, 0)}
        # only the pivot carries a discovery value
        assert reward == 1000.0 - action_cost(
            SubnetScan((1, 0)), env.topology.host((1, 0)))

    def test_rescan_discovers_nothing(self, tiny_inputs):
        env = C2Env(*tiny_inputs)
        env.reset(seed=0)
        env.step(SubnetScan((1, 0)))
        _, reward, _, info = env.step(SubnetScan((1, 0)))
        assert info["newly_discovered"] == []
        assert reward < 0

    def test_neighbor_without_matching_rule_stays_hidden(self, tiny_inputs):
        env = C2Env(*tiny_inputs)
        env.reset(seed=0)
        env.step(SubnetScan((1, 0)))
        # (2, 1) listens on 8443 but the 1<->2 rule only opens 443
        assert not env.state.discovered[env.host_index[(2, 1)]]
        # enumerate the allow rules directly as the oracle
        topology = env.topology
        allowed = topology.allowed_ports(1, 2)
        host = topology.host((2, 1))
        assert not any(b.port in allowed for b in host.services)


    def test_scans_match_the_topology_at_full_scale(self, enterprise_inputs):
        # one host per subnet infected by a direct write, then scanned from:
        # each scan reveals what a walk of the hosts and allow rules finds,
        # less the hosts found before, credits their discovery values in
        # that order, and returns them sorted
        env = C2Env(*enterprise_inputs)
        env.reset(seed=0)
        topology = env.topology
        found = {env.scenario.initial_foothold}
        credited = np.zeros(len(env.host_index))
        scans = 0
        for s in topology.subnets:
            origin = s.hosts[0].address
            infect(env, origin)
            found.add(origin)
            _, reward, done, info = env.step(SubnetScan(origin))
            newly = [a for a in scan_walk(topology, s.id) if a not in found]
            gained = 0.0
            for addr in newly:
                value = topology.host(addr).discovery_value
                gained += value
                credited[env.host_index[addr]] += value
            found.update(newly)
            assert info["valid"] and not done
            assert info["newly_discovered"] == sorted(newly), s.id
            assert reward == gained - action_cost(SubnetScan(origin),
                                                  topology.host(origin)), s.id
            assert np.array_equal(env.state.accumulated_reward, credited), s.id
            scans += bool(newly)
        assert scans > len(topology.subnets) // 2
        assert env.state.discovered.sum() == len(found)


class TestExploit:
    def _exhibit(self):
        """Windows host (24, 3) running https, plus a linux twin (44, 5)."""
        win_vuln = vuln("CVE-2020-1259", service="https", os="windows")
        lin = make_host(44, 5, os="linux", ports=(443,), service="https",
                        cves=(win_vuln,))
        win = make_host(24, 3, os="windows", ports=(443,), service="https",
                        cves=(win_vuln,))
        foothold = make_host(1, 0)
        t = NetworkTopology(
            subnets=(
                Subnet(id=1, hosts=(foothold,),
                       allow_rules=(AllowRule(24, None), AllowRule(44, None))),
                Subnet(id=24, hosts=(win,)),
                Subnet(id=44, hosts=(lin,)),
            ),
            firewalls=(
                Firewall(id="fw-i", edge=("internet", 1)),
                Firewall(id="fw-24", edge=(1, 24)),
                Firewall(id="fw-44", edge=(1, 44)),
            ),
            internet_gateway_subnets=frozenset({1}),
            adjacency=((1, 24), (1, 44)),
        )
        scenario = ScenarioConfig(initial_foothold=(1, 0),
                                  sensitive_hosts=((24, 3),))
        return C2Env(t, scenario)

    def test_exploit_succeeds_on_matching_service_and_os(self):
        env = self._exhibit()
        env.reset(seed=0)
        env.step(SubnetScan((1, 0)))
        _, reward, _, info = env.step(Exploit((24, 3), "CVE-2020-1259"))
        assert info["outcome"] == "exploited"
        i = env.host_index[(24, 3)]
        assert env.state.infected[i] and env.state.infection_time[i] == env.state.clock
        assert reward == 1000.0 - action_cost(
            Exploit((24, 3), "CVE-2020-1259"), env.topology.host((24, 3)))

    def test_exploit_fails_on_os_mismatch(self):
        env = self._exhibit()
        env.reset(seed=0)
        env.step(SubnetScan((1, 0)))
        _, reward, _, info = env.step(Exploit((44, 5), "CVE-2020-1259"))
        assert info["outcome"] == "exploit_failed"
        assert not env.state.infected[env.host_index[(44, 5)]]
        assert reward < 0

    def test_reexploit_succeeds_without_additional_reward(self):
        env = self._exhibit()
        env.reset(seed=0)
        env.step(SubnetScan((1, 0)))
        env.step(Exploit((24, 3), "CVE-2020-1259"))
        credited = env.state.accumulated_reward[env.host_index[(24, 3)]]
        _, reward, _, info = env.step(Exploit((24, 3), "CVE-2020-1259"))
        assert info["outcome"] == "exploited"
        assert reward == -action_cost(
            Exploit((24, 3), "CVE-2020-1259"), env.topology.host((24, 3)))
        assert env.state.accumulated_reward[env.host_index[(24, 3)]] == credited

    def test_exploit_on_undiscovered_host_is_erroneous(self):
        env = self._exhibit()
        env.reset(seed=0)
        _, _, _, info = env.step(Exploit((24, 3), "CVE-2020-1259"))
        assert info["outcome"] == "erroneous"
        assert env.state.clock == 1.0


def prepare_connected(env, seed=0, connect=True):
    """Walk the chain3 env to an infected (and optionally connected) target."""
    env.reset(seed=seed)
    env.step(SubnetScan((1, 0)))
    env.step(Exploit((2, 0), "CVE-2000-0001"))
    env.step(SubnetScan((2, 0)))
    env.step(Exploit((3, 0), "CVE-2000-0001"))
    if connect:
        for _ in range(50):
            _, _, _, info = env.step(Connect((3, 0)))
            if info["outcome"] == OUTCOME_CONNECTED:
                return
            if info["outcome"] == OUTCOME_EMERGENCY:
                raise AssertionError("unexpected emergency while connecting")
            env.step(Sleep())
            env.step(Sleep())
        raise AssertionError("could not connect in 50 attempts")


class TestConnect:
    def test_first_attempt_counter_is_one(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        env.step(Connect((3, 0)))
        # one decay-free increment at the attempt instant
        assert target_value(env, "attempts", (3, 0)) == 1.0

    def test_blocked_after_firewall_update(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        infected_at = infection_time(env, (3, 0))
        env.state.fw_last_update[fw_slot(env, "fw-1-2")] = infected_at + 1.0
        _, _, _, info = env.step(Connect((3, 0)))
        assert info["outcome"] == OUTCOME_BLOCKED

    def test_connect_on_connected_host_is_valid_noop(self, chain3):
        env = env_of(chain3)
        prepare_connected(env)
        before = target_value(env, "attempts", (3, 0))
        clock = env.state.clock
        _, reward, _, info = env.step(Connect((3, 0)))
        assert info["outcome"] == OUTCOME_ALREADY
        assert env.state.clock == clock + 1.0
        assert target_value(env, "attempts", (3, 0)) > before * 0.999
        assert reward == -action_cost(Connect((3, 0)), env.topology.host((3, 0)))

    def test_connect_success_probability_composes_over_path(self):
        # 4 firewalls between the target's subnet and the internet
        t = chain_topology(4, fw_params=FirewallParams(connect_probability=0.8))
        scenario = scenario_for(t)
        env = C2Env(t, scenario)
        hits = 0
        trials = 20_000
        rng = np.random.default_rng(5)
        for i in range(trials):
            env.reset(seed=int(rng.integers(2**63)))
            infect(env, (4, 0))
            _, _, _, info = env.step(Connect((4, 0)))
            hits += info["outcome"] == OUTCOME_CONNECTED
        assert hits / trials == pytest.approx(0.8 ** 4, abs=0.02)

    def test_fourth_rapid_attempt_triggers_emergency(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        # force deterministic blocking so attempts accumulate
        infected_at = infection_time(env, (3, 0))
        env.state.fw_last_update[fw_slot(env, "fw-internet-1")] = infected_at + 0.5
        outcomes = []
        for _ in range(4):
            _, _, _, info = env.step(Connect((3, 0)))
            outcomes.append(info["outcome"])
        assert outcomes[:3] == [OUTCOME_BLOCKED] * 3
        assert outcomes[3] == OUTCOME_EMERGENCY
        assert status_of(env, (3, 0)) == ISOLATED


class TestUpload:
    def test_fast_upload_moves_1000mb(self, chain3):
        topology, scenario = chain3
        env = C2Env(topology, dataclasses.replace(scenario, payload_size_mb=10_000.0))
        prepare_connected(env)
        _, reward, _, info = env.step(Upload((3, 0), "fast"))
        assert info["mb"] == 1000.0
        assert target_value(env, "payload", (3, 0)) == 9000.0
        assert reward == 100.0 - action_cost(
            Upload((3, 0), "fast"), topology.host((3, 0)))

    def test_slow_upload_moves_10mb(self, chain3):
        env = env_of(chain3)
        prepare_connected(env)
        _, reward, _, info = env.step(Upload((3, 0), "slow"))
        assert info["mb"] == 10.0
        assert reward == 1.0 - action_cost(
            Upload((3, 0), "slow"), env.topology.host((3, 0)))

    def test_final_upload_clamps_and_pays_bonus(self, chain3):
        topology, scenario = chain3
        env = C2Env(topology, dataclasses.replace(scenario, payload_size_mb=500.0))
        prepare_connected(env)
        _, reward, done, info = env.step(Upload((3, 0), "fast"))
        assert info["mb"] == 500.0
        assert target_value(env, "payload", (3, 0)) == 0.0
        assert reward == 50.0 + 10_000.0 - action_cost(
            Upload((3, 0), "fast"), topology.host((3, 0)))
        assert done  # single sensitive host completed
        assert env.terminal_status((3, 0)) == "completed"

    def test_upload_from_unconnected_host_is_erroneous(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        _, _, _, info = env.step(Upload((3, 0), "fast"))
        assert info["outcome"] == "erroneous"
        assert target_value(env, "payload", (3, 0)) == 3000.0


class TestEmergencyWindows:
    def _uploader(self, payload=20_000.0):
        t = chain_topology(2)
        scenario = scenario_for(t, payload=payload)
        env = C2Env(t, scenario)
        env.reset(seed=1)
        infect(env, (2, 0))
        set_status(env, (2, 0), CONNECTED)
        return env

    def test_six_consecutive_fast_uploads_trigger_volume(self):
        env = self._uploader()
        outcomes = []
        for _ in range(6):
            _, _, _, info = env.step(Upload((2, 0), "fast"))
            outcomes.append(info["emergency"])
        assert outcomes == [False] * 5 + [True]
        assert status_of(env, (2, 0)) == ISOLATED

    def test_five_spread_uploads_stay_quiet(self):
        env = self._uploader()
        for _ in range(5):
            _, _, _, info = env.step(Upload((2, 0), "fast"))
            assert not info["emergency"]
            env.step(Sleep())
            env.step(Sleep())

    def test_25_slow_uploads_trigger_time_window(self):
        env = self._uploader()
        outcomes = []
        for _ in range(25):
            _, _, _, info = env.step(Upload((2, 0), "slow"))
            outcomes.append(info["emergency"])
        assert outcomes == [False] * 24 + [True]

    def test_counters_decay_between_uploads_and_isolation_ends_the_episode(self):
        # the target is infected and connected by direct writes, so a step
        # finds it through ``state.infected`` alone
        env = self._uploader()
        t = env.target_index[(2, 0)]
        st = env.state
        d = env.scenario.decay_factor
        times = env.scenario.action_times
        volume = upload_time = 0.0
        for k in range(20):
            _, _, done, info = env.step(Upload((2, 0), "fast"))
            volume = apply_decay(volume, times.upload, d) + info["mb"]
            upload_time = apply_decay(upload_time, times.upload, d) + times.upload
            assert (st.upload_volume[t], st.upload_time[t]) == (volume, upload_time)
            if info["emergency"]:
                break
            assert not done
            if k < 3:  # spread the first uploads out, then upload back to back
                env.step(Sleep())
                volume = apply_decay(volume, times.sleep, d)
                upload_time = apply_decay(upload_time, times.sleep, d)
                assert (st.upload_volume[t], st.upload_time[t]) == (
                    volume, upload_time)
        assert info["emergency"] and status_of(env, (2, 0)) == ISOLATED
        assert st.payload[t] > 0.0
        assert done and env.done  # its only target is isolated

    def test_emergency_penalty_forfeits_accumulated_rewards(self, chain3):
        topology, scenario = chain3
        env = C2Env(topology,
                    dataclasses.replace(scenario, payload_size_mb=20_000.0))
        prepare_connected(env)
        accumulated = env.state.accumulated_reward[env.host_index[(3, 0)]]
        assert accumulated == pytest.approx(3000.0)  # found+infected+connected
        uploaded = 0.0
        while True:
            _, reward, _, info = env.step(Upload((3, 0), "fast"))
            if info["emergency"]:
                expected_gain = info["mb"] * 0.1
                expected_penalty = accumulated + uploaded + expected_gain
                cost = action_cost(Upload((3, 0), "fast"),
                                   env.topology.host((3, 0)))
                bonus = 10_000.0 if target_value(env, "payload", (3, 0)) == 0 else 0.0
                assert reward == pytest.approx(
                    expected_gain + bonus - expected_penalty - cost)
                break
            uploaded += info["mb"] * 0.1

    def test_emergency_updates_whole_path_blocking_neighbors(self, chain3):
        topology, scenario = chain3
        # make (3, 1) sensitive too so it has runtime connect state
        scenario = dataclasses.replace(
            scenario, sensitive_hosts=((3, 0), (3, 1)))
        env = C2Env(topology, scenario)
        prepare_connected(env, connect=False)
        # infect the neighbor as well
        infect(env, (3, 1), at=env.state.clock)
        # exhaust attempts on (3, 0) to force an emergency
        env.state.fw_last_update[fw_slot(env, "fw-internet-1")] = (
            infection_time(env, (3, 0)) + 0.5)
        for _ in range(4):
            env.step(Connect((3, 0)))
        assert status_of(env, (3, 0)) == ISOLATED
        # neighbor infected before the update is now blocked deterministically
        _, _, _, info = env.step(Connect((3, 1)))
        assert info["outcome"] == OUTCOME_BLOCKED


class TestDecay:
    def test_zero_elapsed_identity(self):
        assert apply_decay(1.0, 0.0, 0.999) == 1.0

    def test_sixty_seconds(self):
        assert apply_decay(1.0, 60.0, 0.999) == pytest.approx(
            0.999 ** 60, abs=1e-12)
        assert apply_decay(1.0, 60.0, 0.999) == pytest.approx(0.94172, abs=1e-4)

    def test_zero_base(self):
        assert apply_decay(0.0, 12345.0, 0.999) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            apply_decay(-1.0, 5.0, 0.999)
        with pytest.raises(ValueError):
            apply_decay(1.0, -5.0, 0.999)


class TestActionCost:
    def test_sleep_is_minimal(self):
        assert action_cost(Sleep(), None) == 1.0

    def test_exploit_on_high_tier_is_maximal(self):
        host = make_host(1, 0, service="ssh", tier="high")
        assert action_cost(Exploit((1, 0), "CVE-X"), host) == 6.0

    def test_connect_on_low_tier_is_base(self):
        host = make_host(1, 0, service="dns", tier="low")
        assert action_cost(Connect((1, 0)), host) == 1.0

    def test_all_costs_within_bounds(self, tiny_inputs):
        topology, scenario = tiny_inputs
        for action in build_action_space(topology, scenario):
            target = getattr(action, "host", None)
            host = topology.host(target) if target else None
            assert 1.0 <= action_cost(action, host) <= 6.0


class TestScenarioConfig:
    def test_yaml_round_trip(self, tiny_inputs):
        _, scenario = tiny_inputs
        # every field written out, tuples as lists; a JSON text is YAML
        doc = json.loads(json.dumps(dataclasses.asdict(scenario)))
        doc["topology"] = doc.pop("topology_ref")
        assert ScenarioConfig.from_yaml(json.dumps(doc)) == scenario
        # tiny.yaml writes these as YAML integers; the loader widens them
        numbers = [scenario.payload_size_mb, scenario.decay_factor,
                   *vars(scenario.rewards).values(),
                   *vars(scenario.action_times).values(),
                   *scenario.upload_rates.values()]
        assert all(type(v) is float for v in numbers)

    def test_yaml_1_2_float(self):
        # YAML 1.1 reads an exponent without a dot as a string
        s = ScenarioConfig.from_yaml("initial_foothold: [1, 0]\n"
                                     "sensitive_hosts: [[1, 0]]\n"
                                     "rewards: {upload_bonus: 1e4}\n")
        assert s.rewards == RewardTable()

    def test_defaults_match_documented_values(self):
        s = ScenarioConfig(initial_foothold=(1, 0), sensitive_hosts=((1, 0),))
        assert s.payload_size_mb == 10_000.0
        assert s.max_steps == 10_000
        assert s.decay_factor == 0.999
        assert s.rewards.discovery == 1000.0
        assert s.rewards.upload_per_mb == 0.1
        assert s.rewards.upload_bonus == 10_000.0
        assert s.action_times.subnet_scan == 30.0
        assert s.upload_rates == {"fast": 1000.0, "slow": 10.0}

    def test_invalid_fields_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig(initial_foothold=(1, 0), sensitive_hosts=((1, 0),),
                           payload_size_mb=0.0)
        with pytest.raises(ScenarioError):
            ScenarioConfig(initial_foothold=(1, 0), sensitive_hosts=((1, 0),),
                           decay_factor=1.0)

    def test_negative_action_time_rejected(self):
        with pytest.raises(ScenarioError, match="action_times.sleep"):
            ScenarioConfig(initial_foothold=(1, 0), sensitive_hosts=((1, 0),),
                           action_times=ActionTimes(sleep=-60.0))

    @pytest.mark.parametrize("rates, missing", [
        ({"slow": 10.0}, "fast"),
        ({"fast": 1000.0}, "slow"),
        ({"fast": 0.0, "slow": 10.0}, "fast"),
        ({"fast": 1000.0, "slow": -1.0}, "slow"),
    ])
    def test_upload_rates_need_positive_fast_and_slow(self, rates, missing):
        with pytest.raises(ScenarioError, match=f"upload_rates.{missing}"):
            ScenarioConfig(initial_foothold=(1, 0), sensitive_hosts=((1, 0),),
                           upload_rates=rates)

    def test_cvss_scaled_exploits_flag(self, chain3):
        topology, scenario = chain3
        scenario = dataclasses.replace(scenario, cvss_scaled_exploits=True)
        env = C2Env(topology, scenario)
        hits = 0
        trials = 2000
        for i in range(trials):
            env.reset(seed=i)
            env.state.discovered[env.host_index[(2, 0)]] = True
            _, _, _, info = env.step(Exploit((2, 0), "CVE-2000-0001"))
            hits += info["outcome"] == "exploited"
        # conftest vulnerability carries cvss_score 7.5 -> p = 0.75
        assert hits / trials == pytest.approx(0.75, abs=0.04)


class TestScheduledUpdates:
    def test_update_on_crossing_period(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        env.state.clock = 86_399.0
        env.step(Sleep())  # 86,459 crosses the 86,400 boundary
        for j, fw in enumerate(env.topology.firewalls):
            assert env.state.fw_last_update[j] == 86_400.0
        assert env.state.fw_next_due == 2 * 86_400.0

    def test_no_update_just_before_boundary(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        env.state.clock = 86_338.0
        env.step(Sleep())  # 86,398 < 86,400
        assert all(t == 0.0 for t in env.state.fw_last_update)

    def test_two_periods_in_one_jump(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        env.state.clock = 2 * 86_400.0 + 10.0
        env.step(Sleep())
        for last in env.state.fw_last_update:
            assert last == 2 * 86_400.0
        assert env.state.fw_next_due == 3 * 86_400.0

    def test_firewalls_with_different_periods(self, chain3):
        # 1 h, 2.5 h and 24 h schedules; with sleeps only, each firewall's
        # last update is the latest multiple of its period
        topology, scenario = chain3
        firewalls = tuple(
            dataclasses.replace(fw, params=FirewallParams(update_frequency=hours))
            for fw, hours in zip(topology.firewalls, (1.0, 2.5, 24.0)))
        topology = dataclasses.replace(topology, firewalls=firewalls)
        env = C2Env(topology, dataclasses.replace(scenario, max_steps=2_000))
        env.reset(seed=0)
        periods = [fw.params.update_period_seconds for fw in topology.firewalls]
        for _ in range(1_500):  # 25 h
            env.step(Sleep())
            due = []
            for j, period in enumerate(periods):
                last = (env.state.clock // period) * period
                assert env.state.fw_last_update[j] == last
                due.append(last + period)
            assert env.state.fw_next_due == min(due)


class TestObservation:
    def test_fresh_reset_has_two_status_bits(self, tiny_inputs):
        env = C2Env(*tiny_inputs)
        obs = env.reset(seed=0)
        n_hosts = len(env.topology.hosts())
        assert obs[env.dynamic_index[:2 * n_hosts]].sum() == 2.0

    def test_discovery_flips_exactly_one_host_bit(self, tiny_inputs):
        env = C2Env(*tiny_inputs)
        before = env.reset(seed=0).copy()
        after, _, _, info = env.step(SubnetScan((1, 0)))
        newly = set(info["newly_discovered"])
        for addr, i in env.host_index.items():
            base = env.dynamic_index[i] - 1  # the host's discovery value
            block_before = before[base:base + 4]
            block_after = after[base:base + 4]
            if addr in newly:
                assert block_after[1] == 1.0 and block_before[1] == 0.0
                assert block_after[3] == block_before[3]
            else:
                assert np.array_equal(block_before, block_after)

    def test_isolated_one_hot_position(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        set_status(env, (3, 0), ISOLATED)
        obs = env.encode_observation()
        off = env.dynamic_index[2 * len(env.topology.hosts())]  # the one target
        assert obs[off:off + 3].tolist() == [0.0, 0.0, 1.0]
        set_status(env, (3, 0), NOT_CONNECTED)
        obs = env.encode_observation()
        assert obs[off:off + 3].tolist() == [1.0, 0.0, 0.0]

    def test_direct_state_write_shows_in_the_observation(self, chain3):
        # the status bits have one copy, so the next observation shows a
        # host that ``infect`` marks discovered and infected
        env = env_of(chain3)
        env.reset(seed=0)
        infect(env, (3, 0))
        obs = env.encode_observation()
        assert np.array_equal(obs, oracles.reference_observation(env))
        assert obs[env.dynamic_index[env.host_index[(3, 0)]]] == 1.0

    def test_direct_infection_mid_episode_shows_in_the_next_step(self, chain3):
        # a step rewrites the slots of the targets ``state.infected`` marks,
        # so a target infected by a direct write, after the clock has moved,
        # shows its hours since infection in the next step's observation
        env = env_of(chain3)
        env.reset(seed=0)
        for _ in range(3):
            env.step(Sleep())
        infect(env, (3, 0), at=env.state.clock)
        obs, _, _, _ = env.step(Sleep())
        assert np.array_equal(obs, oracles.reference_observation(env))
        off = env.dynamic_index[2 * len(env.topology.hosts())]  # the one target
        assert obs[off + 3] == pytest.approx(env.scenario.action_times.sleep / 3600.0)

    @pytest.mark.parametrize("network", ["chain3", "tiny"])
    def test_matches_reference_encoder_on_random_walks(self, network, request):
        # episodes run back to back on one env, so every reset follows a
        # finished episode
        pair = request.getfixturevalue(
            "tiny_inputs" if network == "tiny" else network)
        env = C2Env(*pair)
        rng = np.random.default_rng(11)
        isolations_after_connect = 0
        for ep in range(40):
            obs = env.reset(seed=ep)
            assert np.array_equal(obs, oracles.reference_observation(env))
            status = {a: status_of(env, a) for a in env.target_index}
            while not env.done:
                obs, _, _, _ = env.step(int(rng.integers(env.n_actions)))
                assert np.array_equal(obs, oracles.reference_observation(env))
                for addr in env.target_index:
                    now = status_of(env, addr)
                    isolations_after_connect += (status[addr] == CONNECTED
                                                 and now == ISOLATED)
                    status[addr] = now
        assert isolations_after_connect > 0  # the one-hot moved off "connected"

    def test_matches_reference_encoder_at_full_scale(self, enterprise_inputs):
        env = C2Env(*enterprise_inputs)
        # a seeded walk over the actions whose host precondition holds; a
        # uniform walk would be almost all erroneous steps
        kinds = np.array([a.kind for a in env.actions])
        hosts = np.array([env.host_index.get(getattr(a, "host", None), 0)
                          for a in env.actions])
        scan, exploit = kinds == "subnet_scan", kinds == "exploit"
        rng = np.random.default_rng(3)
        obs = env.reset(seed=0)
        assert np.array_equal(obs, oracles.reference_observation(env))
        steps = 0
        while not env.done:
            st = env.state
            ok = ~(scan | exploit) | (scan & (st.infected[hosts] == 1.0)) | (
                exploit & (st.discovered[hosts] == 1.0))
            choices = np.flatnonzero(ok)
            obs, _, _, _ = env.step(int(choices[rng.integers(len(choices))]))
            steps += 1
            if steps % 100 == 0:
                assert np.array_equal(obs, oracles.reference_observation(env)), steps
        assert steps >= 1000 and env.state.infected.sum() > 1
        assert any(status_of(env, a) != NOT_CONNECTED for a in env.target_index)

        # the encoder writes into the env's buffer; it allocates no array
        # of observation size
        tracemalloc.start()
        try:
            env.encode_observation()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < obs.nbytes // 100, peak

        # reset rewrites the host status bits that the episode's scans and
        # exploits set
        assert np.array_equal(env.reset(seed=1), oracles.reference_observation(env))

    def test_returned_observation_is_read_only(self, chain3):
        env = env_of(chain3)
        obs = env.reset(seed=0)
        with pytest.raises(ValueError):
            obs[0] = 1.0
        obs, _, _, _ = env.step(Sleep())
        with pytest.raises(ValueError):
            obs[:] = 0.0
        with pytest.raises(ValueError):
            env.encode_observation()[-1] = 1.0


class TestTargetState:
    """A target's status one-hot and decayed attempt count have one copy,
    its observation slots; its other counters are arrays indexed, like the
    two views, by ``target_index``."""

    def test_status_and_attempts_are_views_of_the_observation(self, tiny_inputs):
        env = C2Env(*tiny_inputs)
        obs = env.reset(seed=0)
        st = env.state
        assert list(env.target_index) == sorted(env.scenario.sensitive_hosts)
        assert list(env.target_index.values()) == list(range(2))
        assert st.status.shape == (2, 3) and st.attempts.shape == (2,)
        assert np.shares_memory(st.status, obs)
        assert np.shares_memory(st.attempts, obs)
        slots = env.dynamic_index[2 * len(env.host_index):].reshape(2, 8)
        assert np.array_equal(st.status, obs[slots[:, :3]])
        assert np.array_equal(st.attempts, obs[slots[:, 5]])

    def test_direct_connected_write_makes_upload_valid(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        _, _, _, info = env.step(Upload((3, 0), "fast"))
        assert not info["valid"]
        set_status(env, (3, 0), CONNECTED)
        off = env.dynamic_index[2 * len(env.host_index)]  # the one target
        assert env.encode_observation()[off:off + 3].tolist() == [0.0, 1.0, 0.0]
        obs, _, _, info = env.step(Upload((3, 0), "fast"))
        assert info["valid"] and info["outcome"] == "uploaded"
        assert obs[off:off + 3].tolist() == [0.0, 1.0, 0.0]
        assert np.array_equal(obs, oracles.reference_observation(env))

    def test_reset_restores_every_target(self, chain3):
        topology, scenario = chain3
        env = C2Env(topology, dataclasses.replace(
            scenario, sensitive_hosts=((3, 0), (3, 1))))
        fresh = env.reset(seed=0).copy()
        prepare_connected(env)
        env.step(Upload((3, 0), "fast"))
        set_status(env, (3, 1), ISOLATED)
        st = env.state
        assert st.payload[0] < scenario.payload_size_mb
        assert st.attempts[0] > 0 and st.upload_time[0] > 0 and st.uploads[0]
        obs = env.reset(seed=1)
        st = env.state
        assert [status_of(env, a) for a in env.target_index] == [NOT_CONNECTED] * 2
        assert st.attempts.tolist() == [0.0, 0.0]
        assert st.payload.tolist() == [scenario.payload_size_mb] * 2
        assert st.upload_time.tolist() == st.upload_volume.tolist() == [0.0, 0.0]
        assert st.uploads == [[], []]
        assert np.array_equal(obs, fresh)
        assert np.array_equal(obs, oracles.reference_observation(env))


class TestDirectHostWrites:
    """A step reads the episode's host arrays in place, through memoryviews
    of ``state.infection_time`` and ``state.accumulated_reward`` and of the
    buffer that ``state.discovered`` views: what a direct write leaves in
    them is what the next step reads."""

    def test_discovered_write_makes_an_exploit_valid(self, chain3):
        env = env_of(chain3)
        env.reset(seed=0)
        i = env.host_index[(3, 0)]
        _, _, _, info = env.step(Exploit((3, 0), "CVE-2000-0001"))
        assert not info["valid"]
        env.state.discovered[i] = 1.0
        _, reward, _, info = env.step(Exploit((3, 0), "CVE-2000-0001"))
        assert info["valid"] and info["outcome"] == "exploited"
        assert env.state.infected[i] == 1.0
        assert env.state.infection_time[i] == env.state.clock
        assert env.state.accumulated_reward[i] == 1000.0  # infection only
        assert reward == 1000.0 - action_cost(Exploit((3, 0), "CVE-2000-0001"),
                                              env.topology.host((3, 0)))

    def test_infection_time_write_moves_since_slot_and_block(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        i = env.host_index[(3, 0)]
        off = env.dynamic_index[2 * len(env.host_index)]  # the one target
        update = env.state.clock
        env.state.fw_last_update[fw_slot(env, "fw-1-2")] = update
        # infected before the path's last update: blocked
        env.state.infection_time[i] = update - 7200.0
        obs, _, _, info = env.step(Connect((3, 0)))
        assert info["connect_result"] == OUTCOME_BLOCKED
        assert obs[off + 3] == pytest.approx(
            (env.state.clock - update + 7200.0) / 3600.0)
        # infected after it: the attempt goes through to the dice
        env.state.infection_time[i] = env.state.clock
        obs, _, _, info = env.step(Connect((3, 0)))
        assert info["connect_result"] != OUTCOME_BLOCKED
        assert obs[off + 3] == pytest.approx(
            env.scenario.action_times.connect / 3600.0)
        assert np.array_equal(obs, oracles.reference_observation(env))

    def test_accumulated_reward_write_is_what_an_emergency_forfeits(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        i = env.host_index[(3, 0)]
        env.state.fw_last_update[fw_slot(env, "fw-internet-1")] = (
            env.state.infection_time[i] + 0.5)
        env.state.accumulated_reward[i] = 12345.0
        for _ in range(4):  # blocked attempts, the fourth over the limit
            _, reward, done, info = env.step(Connect((3, 0)))
        assert info["emergency"] and info["penalty"] == 12345.0
        assert reward == -12345.0 - action_cost(Connect((3, 0)),
                                                env.topology.host((3, 0)))
        assert env.state.accumulated_reward[i] == 0.0
        assert done  # its only target is isolated


def network_pair(network, request):
    """(topology, scenario) of tiny, chain3, chain4x3 or enterprise101."""
    if network == "chain4x3":
        t = chain_topology(4, hosts_per_subnet=3)
        return t, scenario_for(t)
    fixture = {"tiny": "tiny_inputs", "enterprise101": "enterprise_inputs"}
    return request.getfixturevalue(fixture.get(network, network))


class TestLiveSlots:
    """``live_slots`` is the trainer's input index: an observation slot
    outside it must be 0.0 in every state. ``dynamic_index`` names the
    slots an episode writes: every other slot keeps its value."""

    @staticmethod
    def dynamic_slots(env) -> np.ndarray:
        """The slots an episode writes, in ``dynamic_index``'s documented
        order, from the layout the reference encoder documents: each host
        block ends with (discovery value, discovered, infection value,
        infected), and eight slots per sensitive host follow the host
        blocks. The discovered bits come first, then the infected bits,
        each by host row, then the target slots."""
        hosts = env.topology.hosts()
        targets = len(env.scenario.sensitive_hosts) * 8
        block = (env.obs_len - targets) // len(hosts)
        ends = np.arange(1, len(hosts) + 1) * block
        return np.concatenate((
            ends - 3, ends - 1, np.arange(env.obs_len - targets, env.obs_len)))

    @pytest.mark.parametrize("network", ["tiny", "chain3", "chain4x3", "enterprise101"])
    def test_dynamic_index_is_the_documented_layout(self, network, request):
        env = C2Env(*network_pair(network, request))
        assert env.dynamic_index.dtype == np.intp
        assert np.array_equal(env.dynamic_index, self.dynamic_slots(env))
        # the status views are the buffer's bits at those slots
        n = len(env.host_index)
        obs = env.reset(seed=0)
        assert np.shares_memory(env.state.discovered, obs)
        assert np.array_equal(env.state.discovered, obs[env.dynamic_index[:n]])
        assert np.array_equal(env.state.infected, obs[env.dynamic_index[n:2 * n]])

    @pytest.mark.parametrize("network", ["tiny", "chain3", "chain4x3"])
    def test_observations_are_zero_outside_live_slots(self, network, request):
        pair = network_pair(network, request)
        env = C2Env(*pair)
        live = env.live_slots
        assert live.dtype == np.intp
        assert np.array_equal(live, np.unique(live))
        assert 0 <= live[0] and live[-1] < env.obs_len
        assert np.isin(self.dynamic_slots(env), live).all()
        dead = np.ones(env.obs_len, dtype=bool)
        dead[live] = False
        static = np.ones(env.obs_len, dtype=bool)
        static[env.dynamic_index] = False
        fixed = env.reset(seed=0)[static].copy()
        rng = np.random.default_rng(5)
        seen = np.zeros(env.obs_len, dtype=bool)
        for ep in range(20):
            obs = env.reset(seed=ep)
            while True:
                for o in (obs, oracles.reference_observation(env)):
                    assert not o[dead].any()
                    assert np.array_equal(o[static], fixed)
                    seen |= o != 0.0
                if env.done:
                    break
                obs, _, _, _ = env.step(int(rng.integers(env.n_actions)))
        # the walks reach most live slots, so the check above had teeth
        assert seen[live].mean() > 0.8
        # asked after the walks, a new env gives the same index
        assert np.array_equal(C2Env(*pair).live_slots, live)

    def test_sizes_at_tiny_and_full_scale(self, tiny_inputs, enterprise_inputs):
        tiny = C2Env(*tiny_inputs)
        assert (len(tiny.live_slots), tiny.obs_len) == (70, 160)
        full = C2Env(*enterprise_inputs)
        assert (len(full.live_slots), full.obs_len) == (13_236, 241_164)
        assert np.isin(self.dynamic_slots(full), full.live_slots).all()


class TestInvariantsAndOracles:
    def test_eq8_and_window_triggers_match_oracles_on_random_walks(self, chain3):
        topology, scenario = chain3
        scenario = dataclasses.replace(scenario, max_steps=60)
        env = C2Env(topology, scenario)
        rng = np.random.default_rng(123)
        total_emergencies = 0
        for ep in range(300):
            _, emergencies = oracles.run_checked_episode(env, rng, env_seed=ep)
            total_emergencies += emergencies
        assert total_emergencies > 0  # the oracle actually saw triggers

    def test_detection_penalty_is_zero_sum_with_credited_rewards(self, chain3):
        # per-host accumulation equals discovery+infection+connection+partial
        # uploads credited to that host, so the penalty cancels them exactly
        topology, scenario = chain3
        scenario = dataclasses.replace(scenario, max_steps=80,
                                       payload_size_mb=30_000.0)
        env = C2Env(topology, scenario)
        rng = np.random.default_rng(77)
        checked_emergencies = 0
        for ep in range(200):
            env.reset(seed=ep)
            credited = {h.address: 0.0 for h in topology.hosts()}
            while not env.done:
                action = env.actions[int(rng.integers(env.n_actions))]
                _, _, _, info = env.step(action)
                if not info["valid"]:
                    continue
                for addr in info.get("newly_discovered", []):
                    credited[addr] += topology.host(addr).discovery_value
                target = info["target"]
                if info["outcome"] == "exploited":
                    # infection value credited only on the first success
                    if infection_time(env, target) == info["clock"]:
                        credited[target] += topology.host(target).infection_value
                if info.get("connect_result") == OUTCOME_CONNECTED:
                    credited[target] += scenario.rewards.connection
                if info["outcome"] == "uploaded":
                    credited[target] += scenario.rewards.upload_per_mb * info["mb"]
                if info.get("emergency"):
                    assert info["penalty"] == pytest.approx(credited[target])
                    credited[target] = 0.0
                    checked_emergencies += 1
                for addr, want in credited.items():
                    got = env.state.accumulated_reward[env.host_index[addr]]
                    assert got == pytest.approx(want)
        assert checked_emergencies > 0

    def test_isolation_is_absorbing(self, chain3):
        env = env_of(chain3)
        prepare_connected(env, connect=False)
        env.state.fw_last_update[fw_slot(env, "fw-internet-1")] = (
            infection_time(env, (3, 0)) + 0.5)
        for _ in range(4):
            env.step(Connect((3, 0)))
        assert status_of(env, (3, 0)) == ISOLATED
        accumulated = env.state.accumulated_reward[env.host_index[(3, 0)]]
        rng = np.random.default_rng(0)
        for _ in range(100):
            if env.done:
                break
            env.step(int(rng.integers(env.n_actions)))
            assert status_of(env, (3, 0)) == ISOLATED
            assert env.state.accumulated_reward[env.host_index[(3, 0)]] <= accumulated

    def test_done_iff_targets_settled_or_step_cap(self, chain3):
        topology, scenario = chain3
        scenario = dataclasses.replace(scenario, max_steps=5)
        env = C2Env(topology, scenario)
        env.reset(seed=0)
        done = False
        for _ in range(5):
            assert not done
            _, _, done, _ = env.step(Sleep())
        assert done and env.state.step_count == 5

    def test_update_blocking_invariant_exhaustive(self, chain3):
        # connect blocked iff some path firewall updated after infection
        topology, scenario = chain3
        env = C2Env(topology, scenario)
        path = firewall_path(topology, 3)
        for stale_fw in [None, *path]:
            prepare_connected(env, connect=False)
            if stale_fw is not None:
                env.state.fw_last_update[fw_slot(env, stale_fw)] = (
                    infection_time(env, (3, 0)) + 0.5)
            _, _, _, info = env.step(Connect((3, 0)))
            if stale_fw is None:
                assert info["outcome"] != OUTCOME_BLOCKED
            else:
                assert info["outcome"] == OUTCOME_BLOCKED


def scan_walk(topology, sid):
    """Every host a scan from subnet ``sid`` can discover, in discovery
    order, found by walking the topology as the scan step once did."""
    newly = []

    def discover(host):
        if host.address not in newly:
            newly.append(host.address)

    for h in topology.subnet(sid).hosts:
        discover(h)
    for nb in topology.neighbors(sid):
        allowed = topology.allowed_ports(sid, nb)
        if allowed is not None and not allowed:
            continue
        for h in topology.subnet(nb).hosts:
            if not h.services:
                continue
            if allowed is None or any(b.port in allowed for b in h.services):
                discover(h)
    return newly


class TestPrecomputedTables:
    @pytest.mark.parametrize("network", ["chain3", "tiny", "enterprise101"])
    def test_scan_reveals_match_topology_walk(self, network, request):
        env = C2Env(*network_pair(network, request))
        topology = env.topology
        for s in topology.subnets:
            reveals = env._scan_reveals[s.id]
            assert [env._addresses[i] for i, _, _ in reveals] == scan_walk(
                topology, s.id), s.id
            # each with its discovered bit and discovery value
            assert all(bit == env.dynamic_index[i] and value == topology.host(
                env._addresses[i]).discovery_value for i, bit, value in reveals)

    @pytest.mark.parametrize("network", ["tiny", "enterprise101"])
    def test_costs_and_exploit_odds_match_their_definitions(self, network, request):
        env = C2Env(*network_pair(network, request))
        topology = env.topology
        d = env.scenario.decay_factor
        exploits = 0
        for action, plan in zip(env.actions, env._plans):
            target = getattr(action, "host", None)
            host = topology.host(target) if target else None
            _, kind, plan_host, row, reward, elapsed, decay, cvss = plan
            assert env._plans[env.action_index[action]] is plan
            assert (kind, plan_host) == (action.kind, target)
            assert row == env.host_index.get(target, -1)
            assert reward == -action_cost(action, host), action
            assert elapsed == env.scenario.action_times.of(action)
            assert decay == apply_decay(1.0, elapsed, d), action
            if isinstance(action, Exploit):
                exploits += 1
                applicable = [v.cvss_score for v in host.vulnerabilities()
                              if v.cve_id == action.cve_id and vuln_applies(host, v)]
                key = (action.host, action.cve_id)
                assert (key in env._exploit_cvss) == bool(applicable), action
                if applicable:
                    assert env._exploit_cvss[key] == max(applicable), action
                # the step reads the CVSS from the plan, not the table
                assert cvss == env._exploit_cvss.get(key), action
            else:
                assert cvss is None, action
        assert len(env._exploit_cvss) <= exploits
        elapsed, decay = env._erroneous
        assert elapsed == env.scenario.action_times.erroneous
        assert decay == apply_decay(1.0, elapsed, d)
        assert env.cve_ids == {v.cve_id for h in topology.hosts()
                               for v in h.vulnerabilities()}

    def test_golden_digest_of_random_episodes_on_tiny(self, tiny_inputs):
        # sha256 over every observation, reward, done flag and info dict of
        # 300 seeded random-action episodes, recorded before the episode
        # state moved to host arrays and re-recorded when the scenario loader
        # began widening integer action times to floats (info["elapsed"] is
        # 30.0, not 30); the env does no BLAS work, so the value holds on any
        # platform
        env = C2Env(*tiny_inputs)
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for ep in range(300):
            digest.update(env.reset(seed=ep).tobytes())
            done = False
            while not done:
                obs, reward, done, info = env.step(int(rng.integers(env.n_actions)))
                digest.update(obs.tobytes())
                digest.update(json.dumps([reward, done, info], sort_keys=True).encode())
        assert digest.hexdigest() == (
            "7957a4a928af243c3e3dde994edb62ed665fd015639371819c95f061a48900c6")
