"""Independent reference implementations used to cross-check the simulator.

Everything here recomputes behavior from first principles (closed-form sums,
brute-force window scans) without touching the incremental state the
environment maintains.
"""

from __future__ import annotations

import numpy as np

from c2sim import neural
from c2sim.analysis import PruneDivergenceError, _check_replayable, replay_trace
from c2sim.c2_env import (
    CONNECTED,
    CONNECTION_STATUSES,
    INFECTION_TIME_SCALE,
    ISOLATED,
    NOT_CONNECTED,
    OUTCOME_CONNECTED,
    UPLOAD_TIME_SCALE,
    UPLOAD_VOLUME_SCALE,
    VALUE_SCALE,
)
from c2sim.net_model import firewall_path

WINDOW = 300.0


def closed_form_attempts(attempt_times, now, d):
    """Eq-style decayed attempt counter: sum of d^(now - t_k)."""
    return sum(d ** (now - t) for t in attempt_times)


def window_sums(events, now, window=WINDOW):
    """(volume, time) of upload events with timestamps in (now-window, now]."""
    vol = sum(mb for t, mb, dur in events if now - window < t <= now)
    tim = sum(dur for t, mb, dur in events if now - window < t <= now)
    return vol, tim


def predict_emergency(attempt_times, events, now, d, max_attempts,
                      max_volume, max_time_seconds):
    """Would a threshold check at `now` trigger an emergency update?"""
    if closed_form_attempts(attempt_times, now, d) > max_attempts:
        return True
    vol, tim = window_sums(events, now)
    return vol > max_volume or tim > max_time_seconds


def min_compliant_cadence(n_uploads, mb_per_upload, upload_seconds,
                          sleep_seconds, max_volume, max_time_seconds,
                          max_sleeps=60):
    """Smallest natural inter-upload gap (upload + k sleeps) whose uniform
    schedule never crosses the window thresholds at any event."""
    for k in range(max_sleeps + 1):
        gap = upload_seconds + k * sleep_seconds
        times = [gap * (i + 1) for i in range(n_uploads)]
        events = [(t, mb_per_upload, upload_seconds) for t in times]
        ok = True
        for t in times:
            vol, tim = window_sums(events, t)
            if vol > max_volume or tim > max_time_seconds:
                ok = False
                break
        if ok:
            return gap
    raise AssertionError("no compliant cadence found")


def run_checked_episode(env, action_rng, env_seed, max_actions=None):
    """Random-walk an episode, asserting the incremental attempt counters
    match the closed form, every emergency flag matches the brute-force
    window oracle, and each target's ``state.status`` one-hot names the
    status its step outcomes give: connected from a successful connect,
    isolated from an emergency. Returns (steps checked, emergencies seen)."""
    env.reset(seed=env_seed)
    scenario = env.scenario
    d = scenario.decay_factor
    sensitive = sorted(scenario.sensitive_hosts)
    attempts = {a: [] for a in sensitive}
    status = {a: NOT_CONNECTED for a in sensitive}
    events = {a: [] for a in sensitive}
    fw_by_id = {fw.id: fw for fw in env.topology.firewalls}
    thresholds = {}
    for addr in sensitive:
        fws = [fw_by_id[f] for f in firewall_path(env.topology, addr[0])]
        thresholds[addr] = (
            min(f.params.max_connect_attempts for f in fws),
            min(f.params.max_upload_volume for f in fws),
            min(f.params.max_upload_time_seconds for f in fws),
        )
    emergencies = 0
    steps = 0
    while not env.done and (max_actions is None or steps < max_actions):
        idx = int(action_rng.integers(env.n_actions))
        action = env.actions[idx]
        _, _, _, info = env.step(idx)
        steps += 1
        now = info["clock"]
        target = info["target"]
        if info["valid"] and target in attempts:
            if info["action"] == "connect":
                attempts[target].append(now)
            elif info["action"] == "upload":
                events[target].append((now, info["mb"], scenario.action_times.upload))
            if info.get("connect_result") == OUTCOME_CONNECTED:
                status[target] = CONNECTED
            if info["emergency"]:
                status[target] = ISOLATED
        for k, addr in enumerate(sensitive):
            # incremental decayed counters vs closed form
            got = env.state.attempts[k]
            want = closed_form_attempts(attempts[addr], env.state.clock, d)
            assert abs(got - want) <= 1e-9, (addr, got, want)
            # the status one-hot vs the status the outcomes give
            one_hot = [float(s == status[addr]) for s in CONNECTION_STATUSES]
            assert env.state.status[k].tolist() == one_hot, (addr, status[addr])
        # emergency flag vs brute-force window oracle
        if info["valid"] and info["action"] in ("connect", "upload") \
                and target in attempts:
            ma, mv, mt = thresholds[target]
            want_emergency = predict_emergency(
                attempts[target], events[target], now, d, ma, mv, mt)
            assert info["emergency"] == want_emergency, (
                target, now, info, attempts[target], events[target])
            if info["emergency"]:
                emergencies += 1
    return steps, emergencies


def reference_observation(env):
    """The observation of ``env``'s current state, encoded into a new array
    from the topology, the scenario and the episode state alone.

    Per host, in ``topology.hosts()`` order: subnet one-hot, local one-hot
    (rank of the local id in its subnet), OS pair (windows, other), service
    bits, then (discovery value, discovered, infection value, infected). Per
    sensitive host, sorted: connection-status one-hot, hours since
    infection, payload share left, decayed attempts, upload minutes and
    upload volume.

    The status one-hot and the decayed attempts are copied from
    ``state.status`` and ``state.attempts``, which are views of the env's
    own observation buffer, so this encoder does not check them;
    ``run_checked_episode`` checks both against the step outcomes.
    """
    topology, scenario, st = env.topology, env.scenario, env.state
    hosts = topology.hosts()
    subnet_ids = topology.subnet_ids
    max_local = max(len(s.hosts) for s in topology.subnets)
    services = sorted({b.service_name for h in hosts for b in h.services})
    block = len(subnet_ids) + max_local + 2 + len(services) + 4
    sensitive = sorted(scenario.sensitive_hosts)
    obs = np.zeros(len(hosts) * block + len(sensitive) * 8)
    for k, h in enumerate(hosts):
        i = env.host_index[h.address]
        locals_ = sorted(x.local_id for x in topology.subnet(h.subnet_id).hosts)
        off = k * block
        obs[off + subnet_ids.index(h.subnet_id)] = 1.0
        off += len(subnet_ids)
        obs[off + locals_.index(h.local_id)] = 1.0
        off += max_local
        obs[off + (0 if h.os == "windows" else 1)] = 1.0
        off += 2
        for b in h.services:
            obs[off + services.index(b.service_name)] = 1.0
        off += len(services)
        obs[off:off + 4] = (h.discovery_value * VALUE_SCALE, st.discovered[i],
                            h.infection_value * VALUE_SCALE, st.infected[i])
    off = len(hosts) * block
    for k, addr in enumerate(sensitive):
        i = env.host_index[addr]
        since = st.clock - st.infection_time[i] if st.infected[i] else 0.0
        obs[off:off + 3] = st.status[k]
        obs[off + 3:off + 8] = (
            since * INFECTION_TIME_SCALE,
            st.payload[k] / scenario.payload_size_mb,
            st.attempts[k],
            st.upload_time[k] * UPLOAD_TIME_SCALE,
            st.upload_volume[k] * UPLOAD_VOLUME_SCALE,
        )
        off += 8
    return obs


def reference_sample_paths(env, actor, n, seed):
    """The action indices of ``analysis.sample_paths(env, actor, n, seed)``,
    drawn with one ``neural.forward`` and one ``neural.categorical_sample``
    on every step: [(episode seed, [action index, ...]), ...]."""
    episode_seeds = [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)
    ]
    sample_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    paths = []
    for ep_seed in episode_seeds:
        obs = env.reset(seed=ep_seed)
        taken = []
        while not env.done:
            a_idx, _ = neural.categorical_sample(neural.forward(actor, obs),
                                                 sample_rng)
            obs, _, _, _ = env.step(a_idx)
            taken.append(a_idx)
        paths.append((ep_seed, taken))
    return paths


_REMOVABLE_OUTCOMES = ("exploit_failed", "already_connected", "erroneous")


def _removable(steps, i):
    step = steps[i]
    if step.outcome in _REMOVABLE_OUTCOMES:
        return True
    if step.action == "subnet_scan" and step.n_discovered == 0:
        return True
    if step.action == "sleep":
        return True
    if step.action == "exploit" and step.outcome == "exploited":
        # re-exploiting a host compromised earlier changes nothing
        return any(s.action == "exploit" and s.outcome == "exploited"
                   and s.target == step.target for s in steps[:i])
    return False


def reference_prune_trace(env, trace):
    """``analysis.prune_trace`` as a recording ``replay_trace`` per probe and
    a rescan of the earlier steps per exploit candidate: candidates judged
    one at a time, the last kept probe as the result, and one more replay
    to verify a trace from which nothing was removed."""
    original_status = dict(trace.terminal_status)
    steps = list(trace.steps)
    # mapped once, so that an error names the trace's own step
    actions = _check_replayable(env, [s.to_action() for s in steps])
    result = None  # the last kept probe, which is the replay of ``actions``
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1, -1, -1):
            if not _removable(steps, i):
                continue
            probe = replay_trace(env, trace.seed, actions[:i] + actions[i + 1:])
            if probe.terminal_status == original_status:
                del steps[i]
                del actions[i]
                result = probe
                changed = True
        if changed:
            # later passes judge the shortened sequence by its own outcomes
            steps = list(result.steps)
            del actions[len(steps):]  # the steps after the episode ended

    if result is None:  # nothing was removed; verify the sequence as it is
        result = replay_trace(env, trace.seed, actions)
        if result.terminal_status != original_status:
            raise PruneDivergenceError(
                f"pruned trace reaches {result.terminal_status}, "
                f"original was {original_status}"
            )
    return result


def mc_returns(rewards, dones, gamma):
    """Discounted reward-to-go, reset at episode boundaries, no bootstrap."""
    out = np.zeros_like(np.asarray(rewards, dtype=np.float64))
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        if dones[t]:
            running = 0.0
        running = rewards[t] + gamma * running
        out[t] = running
    return out


def reference_ppo_loss(actor, critic, obs, actions, logp_old, advantages,
                       returns, cfg):
    """The two-pass clipped-surrogate loss: each net's forward pass runs
    here for the loss and again inside ``neural.backward`` for the
    gradient. Returns what ``ppo.ppo_loss`` returns."""
    logits = neural.forward(actor, obs)
    logp_all = neural.log_softmax(logits)
    probs = np.exp(logp_all)
    n, n_actions = logits.shape
    rows = np.arange(n)
    logp = logp_all[rows, actions]
    ratio = np.exp(logp - logp_old)
    surr1 = ratio * advantages
    surr2 = ratio.clip(1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
    surr2 *= advantages
    policy_loss = -np.minimum(surr1, surr2).mean()
    row_entropy = -(probs * logp_all).sum(axis=1)
    ent = row_entropy.mean()

    # d(-objective)/dlogits: gradient flows only where the unclipped branch
    # is active (ties included, where both branches coincide).
    active = (surr1 <= surr2).astype(np.float64)
    coeff = -(active * ratio * advantages) / n
    one_hot = np.zeros((n, n_actions))
    one_hot[rows, actions] = 1.0
    dlogits = coeff[:, None] * (one_hot - probs)
    # entropy bonus: loss includes -beta * H
    dlogits += cfg.entropy_coef * probs * (logp_all + row_entropy[:, None]) / n

    err = neural.forward(critic, obs)[:, 0] - returns
    value_loss = (err ** 2).mean()
    dv = (2.0 * err / len(returns))[:, None]
    return (float(policy_loss), float(value_loss), float(ent),
            neural.backward(actor, obs, dlogits), neural.backward(critic, obs, dv))
