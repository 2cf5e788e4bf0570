"""Independent reference implementations used to cross-check the simulator.

Everything here recomputes behavior from first principles (closed-form sums,
brute-force window scans) without touching the incremental state the
environment maintains.
"""

from __future__ import annotations

import numpy as np

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
    match the closed form and every emergency flag matches the brute-force
    window oracle. Returns (steps checked, emergencies seen)."""
    env.reset(seed=env_seed)
    scenario = env.scenario
    d = scenario.decay_factor
    sensitive = sorted(scenario.sensitive_hosts)
    attempts = {a: [] for a in sensitive}
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
        # incremental decayed counters vs closed form
        for addr in sensitive:
            got = env.state.targets[addr].cum_connect_attempts
            want = closed_form_attempts(attempts[addr], env.state.clock, d)
            assert abs(got - want) <= 1e-9, (addr, got, want)
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
