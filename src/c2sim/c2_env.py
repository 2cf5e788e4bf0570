"""The three-stage attack campaign MDP.

Stage one: discover hosts with subnet scans and compromise them with
exploits. Stage two: establish a channel from a compromised sensitive host
out to the remote server, across every firewall on the path to the internet.
Stage three: upload the host's payload without tripping the firewalls'
rate monitors.

All timing is wall-clock seconds, advanced per action. Firewalls update on a
24h schedule and in response to suspicious traffic; an update blocks future
connections from hosts compromised before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .net_model import (
    Address,
    Host,
    NetworkTopology,
    build_config,
    firewall_path,
    load_yaml,
    vuln_applies,
)

# Fixed length of the rate-monitoring window (the "five-minute window").
WINDOW_SECONDS = 300.0

NOT_CONNECTED = "not_connected"
CONNECTED = "connected"
ISOLATED = "isolated"
CONNECTION_STATUSES = (NOT_CONNECTED, CONNECTED, ISOLATED)
_STATUS_ONE_HOT = {s: tuple(float(s == t) for t in CONNECTION_STATUSES)
                   for s in CONNECTION_STATUSES}

# Connect attempt outcomes.
OUTCOME_CONNECTED = "connected"
OUTCOME_BLOCKED = "blocked_by_update"
OUTCOME_FAILED = "failed_random"
OUTCOME_EMERGENCY = "triggered_emergency"
OUTCOME_ALREADY = "already_connected"

# Base action cost by type plus a penalty for the target's defense tier;
# the total always lands in [1, 6].
BASE_COST = {"subnet_scan": 2, "exploit": 4, "connect": 1, "upload": 2, "sleep": 1}
TIER_PENALTY = {"low": 0, "medium": 1, "high": 2}

# Observation scaling so features sit near unit range.
VALUE_SCALE = 1e-3
INFECTION_TIME_SCALE = 1.0 / 3600.0
UPLOAD_TIME_SCALE = 1.0 / 60.0
UPLOAD_VOLUME_SCALE = 1e-3


class ScenarioError(ValueError):
    """Scenario config inconsistent with the topology."""


class EpisodeDoneError(Exception):
    """step() was called on a finished episode."""


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class SubnetScan:
    host: Address
    kind = "subnet_scan"


@dataclass(frozen=True)
class Exploit:
    host: Address
    cve_id: str
    kind = "exploit"


@dataclass(frozen=True)
class Connect:
    host: Address
    kind = "connect"


@dataclass(frozen=True)
class Upload:
    host: Address
    rate: str  # "fast" | "slow"
    kind = "upload"


@dataclass(frozen=True)
class Sleep:
    kind = "sleep"


Action = SubnetScan | Exploit | Connect | Upload | Sleep


@dataclass(frozen=True)
class RewardTable:
    discovery: float = 1000.0
    infection: float = 1000.0
    connection: float = 1000.0
    upload_per_mb: float = 0.1
    upload_bonus: float = 10000.0


@dataclass(frozen=True)
class ActionTimes:
    """Wall-clock seconds consumed by each action type. Erroneous actions
    are interrupted early and consume one second."""

    subnet_scan: float = 30.0
    exploit: float = 10.0
    connect: float = 1.0
    upload: float = 10.0
    sleep: float = 60.0
    erroneous: float = 1.0

    def of(self, action: Action) -> float:
        return getattr(self, action.kind)


@dataclass(frozen=True)
class ScenarioConfig:
    initial_foothold: Address
    sensitive_hosts: tuple[Address, ...]
    payload_size_mb: float = 10000.0
    max_steps: int = 10000
    decay_factor: float = 0.999
    rewards: RewardTable = field(default_factory=RewardTable)
    action_times: ActionTimes = field(default_factory=ActionTimes)
    upload_rates: dict[str, float] = field(
        default_factory=lambda: {"fast": 1000.0, "slow": 10.0}
    )
    cvss_scaled_exploits: bool = False
    topology_ref: str | None = field(default=None, metadata={"key": "topology"})

    def __post_init__(self) -> None:
        if self.payload_size_mb <= 0:
            raise ScenarioError("payload_size_mb must be positive")
        if not 0.0 < self.decay_factor < 1.0:
            raise ScenarioError("decay_factor must be in (0, 1)")
        if self.max_steps < 1:
            raise ScenarioError("max_steps must be >= 1")
        for name, seconds in vars(self.action_times).items():
            if seconds < 0:
                raise ScenarioError(f"action_times.{name} must be >= 0")
        for rate in ("fast", "slow"):
            if not self.upload_rates.get(rate, 0) > 0:
                raise ScenarioError(f"upload_rates.{rate} must be positive")
        unknown = sorted(str(k) for k in self.upload_rates.keys() - {"fast", "slow"})
        if unknown:
            raise ScenarioError("upload_rates has unknown key(s): " + ", ".join(unknown))

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        doc = load_yaml(text, ScenarioError)
        if isinstance(doc, dict):
            build_config(Literal[1], doc.pop("schema_version", 1), ScenarioError,
                         "scenario schema_version")
        return build_config(cls, doc, ScenarioError, "scenario")


# ---------------------------------------------------------------------------
# Runtime state


@dataclass
class EnvState:
    """One episode. Host arrays are indexed by ``C2Env.host_index``, target
    state by ``C2Env.target_index``, firewall last-update times as
    ``topology.firewalls``; a firewall's next scheduled update is one update
    period after its last. ``discovered``, ``infected``, ``status`` (per
    target, the not connected/connected/isolated one-hot) and ``attempts``
    (decayed connect attempts) are views of the env's observation buffer;
    the other target counters are lists: payload left (MB), decayed upload
    time (s) and volume (MB), and each target's ``(time, mb)`` uploads.

    ``reset`` makes fresh ``infection_time`` and ``accumulated_reward``
    arrays each episode, and the env reads and writes them, like the
    buffer's slots, through memoryviews. Write to any of these arrays in
    place, and the next step reads the written value; an array assigned
    in place of one is not seen."""

    discovered: np.ndarray
    infected: np.ndarray
    infection_time: np.ndarray
    accumulated_reward: np.ndarray
    status: np.ndarray
    attempts: np.ndarray
    payload: list[float]
    upload_time: list[float]
    upload_volume: list[float]
    uploads: list[list[tuple[float, float]]]
    fw_last_update: list[float]
    # No scheduled update is due while clock is below this, the least last
    # update plus period as of reset or the last scheduled update; an
    # emergency only pushes its firewalls' updates later.
    fw_next_due: float = math.inf
    clock: float = 0.0
    step_count: int = 0


def apply_decay(c: float, elapsed: float, d: float) -> float:
    """Exponential decay of a cumulative metric over elapsed wall-clock."""
    if c < 0 or elapsed < 0:
        raise ValueError("decay inputs must be non-negative")
    return c * d ** elapsed


def action_cost(action: Action, target: Host | None) -> float:
    """Cost in [1, 6] from the action type and the target's defense tier."""
    base = BASE_COST[action.kind]
    if target is None:
        return float(base)
    return float(base + TIER_PENALTY[target.max_defense_tier()])


def build_action_space(topology: NetworkTopology,
                       scenario: ScenarioConfig) -> list[Action]:
    """Flat, deterministic enumeration of every action in the MDP."""
    actions: list[Action] = []
    hosts = topology.hosts()
    for h in hosts:
        actions.append(SubnetScan(h.address))
    for h in hosts:
        seen = set()
        for b in h.services:
            for v in b.vulnerabilities:
                if v.cve_id not in seen:
                    seen.add(v.cve_id)
                    actions.append(Exploit(h.address, v.cve_id))
    sensitive = sorted(scenario.sensitive_hosts)
    for addr in sensitive:
        actions.append(Connect(addr))
    for addr in sensitive:
        actions.append(Upload(addr, "fast"))
        actions.append(Upload(addr, "slow"))
    actions.append(Sleep())
    return actions


class C2Env:
    """Episodic environment over a fixed topology and scenario.

    One instance is single-threaded; run several instances with separate
    seeds for parallel rollouts. The topology is never mutated; everything
    a step needs from it (scan reveals, firewall paths, the best applicable
    CVSS per host and CVE) is tabulated once, in ``__init__``, so a step
    costs the same at any network size. So is a plan per action: its kind,
    host row, cost, elapsed time and decay factor, an exploit's CVE id and
    best applicable CVSS score (None when no vulnerability of that id
    applies to the host), and an upload's rate. ``step`` reads the plan by
    index or, through ``action_index``, by the action's value, and builds
    one for an action outside the space (a replayed exploit naming a CVE its
    host lacks, a connect to a host that is not sensitive); the plans are
    not episode state.

    Each instance owns one observation buffer, rewritten in place by every
    ``reset`` and ``step``. The observation they return is a read-only view
    of it, valid until that instance's next ``reset`` or ``step``; a caller
    that keeps an observation longer copies it. The hosts' discovered and
    infected bits, and the targets' channel status one-hots and decayed
    attempt counts, have one copy, the buffer's slots: ``state.discovered``,
    ``state.infected``, ``state.status`` and ``state.attempts`` are views of
    them, valid until the next ``reset``. ``dynamic_index`` names every
    slot an episode writes; the rest keep the values set in ``__init__``.

    A step reads and writes that state a slot or a host at a time, as
    Python floats, through memoryviews: of the buffer (the status bits and
    the target slots) and of the episode's ``infection_time`` and
    ``accumulated_reward``. It makes no NumPy scalar access, and its only
    NumPy calls are the random draws of a connect or a CVSS-scaled exploit.
    Between steps a caller's own work (a sum over the 241,164-float
    observation at enterprise101) evicts the CPU caches, and a NumPy scalar
    access then costs about twice a memoryview read.

    ``target_index`` maps each sensitive host to its target number, in
    sorted address order, as ``host_index`` maps hosts to rows. A step does
    per-target work (counter decay, then one pass after the action that
    writes the slots ``encode_observation`` writes and checks whether every
    target is settled) only for the targets that ``state.infected`` marks:
    a connect or upload needs an infected host, so until its infection a
    target keeps the slots ``reset`` wrote.
    """

    def __init__(self, topology: NetworkTopology, scenario: ScenarioConfig):
        self.topology = topology
        self.scenario = scenario
        self._validate_scenario()

        self.actions = build_action_space(topology, scenario)
        self.n_actions = len(self.actions)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        hosts = topology.hosts()
        self._hosts = {h.address: h for h in hosts}
        self._addresses = [h.address for h in hosts]
        self.host_index = {addr: i for i, addr in enumerate(self._addresses)}
        self._infection_values = [h.infection_value for h in hosts]
        self.target_index = {addr: k for k, addr in
                             enumerate(sorted(scenario.sensitive_hosts))}
        # By host row, its target number (None: not a sensitive host).
        self._target_of: list[int | None] = [None] * len(hosts)
        for addr, k in self.target_index.items():
            self._target_of[self.host_index[addr]] = k

        self._build_obs_layout()
        self._build_tables()
        # What a step needs of each action, by index; an action outside the
        # space gets its plan from ``_plan`` per step.
        self._plans = [self._plan(a) for a in self.actions]
        erroneous = scenario.action_times.erroneous
        self._erroneous = (erroneous,
                           apply_decay(1.0, erroneous, scenario.decay_factor))
        self.state: EnvState | None = None
        self._done = True
        self._settled = False
        self._rng: np.random.Generator | None = None
        # Memoryviews of the episode's infection_time and accumulated_reward.
        self._infection_time: memoryview | None = None
        self._rewards: memoryview | None = None

    # -- setup ------------------------------------------------------------

    def _validate_scenario(self) -> None:
        try:
            self.topology.host(self.scenario.initial_foothold)
        except KeyError as exc:
            raise ScenarioError(f"initial foothold not in topology: {exc}") from exc
        if not self.scenario.sensitive_hosts:
            raise ScenarioError("scenario names no sensitive hosts")
        if len(set(self.scenario.sensitive_hosts)) != len(
                self.scenario.sensitive_hosts):
            raise ScenarioError("duplicate sensitive host addresses")
        for addr in self.scenario.sensitive_hosts:
            try:
                host = self.topology.host(addr)
            except KeyError as exc:
                raise ScenarioError(f"sensitive host not in topology: {exc}") from exc
            if addr == self.scenario.initial_foothold:
                continue
            if not any(vuln_applies(host, v) for v in host.vulnerabilities()):
                raise ScenarioError(
                    f"sensitive host {addr} has no vulnerability exploitable "
                    f"on its own os/services"
                )

    def _build_tables(self) -> None:
        t = self.topology
        hosts = self._hosts.values()
        # Per (host, CVE), the best CVSS score among the host's
        # vulnerabilities with that id that ``vuln_applies`` to it (no
        # entry: the exploit fails).
        self._exploit_cvss: dict[tuple[Address, str], float] = {}
        for h in hosts:
            for v in h.vulnerabilities():
                if vuln_applies(h, v):
                    key = (h.address, v.cve_id)
                    self._exploit_cvss[key] = max(
                        self._exploit_cvss.get(key, v.cvss_score), v.cvss_score)
        # The CVE ids exploit actions name: those of every host, applicable or not.
        self.cve_ids = frozenset(a.cve_id for a in self.actions if isinstance(a, Exploit))

        # Hosts a scan from each subnet reveals, in discovery order: the
        # subnet's own hosts, then each neighbor's hosts with a service on a
        # port the allow rules open (any service under an all-ports rule);
        # each as its row, discovered bit and discovery value.
        self._scan_reveals: dict[int, list[tuple[int, int, float]]] = {}
        for s in t.subnets:
            order = list(s.hosts)
            for nb in t.neighbors(s.id):
                allowed = t.allowed_ports(s.id, nb)
                order += [h for h in t.subnet(nb).hosts if h.services and (
                    allowed is None or any(b.port in allowed for b in h.services))]
            rows = {self.host_index[h.address]: h for h in order}
            self._scan_reveals[s.id] = [
                (i, self._host_slots[i] + 1, float(h.discovery_value))
                for i, h in rows.items()]

        # By target number: path firewall indices, (attempts, volume, time)
        # thresholds and the probability of a connect crossing every firewall.
        self._fw_periods = [fw.params.update_period_seconds for fw in t.firewalls]
        fw_index = {fw.id: j for j, fw in enumerate(t.firewalls)}
        self._target_paths: list[list[int]] = []
        self._thresholds: list[tuple[float, float, float]] = []
        self._connect_p: list[float] = []
        for addr in self.target_index:
            path = [fw_index[f] for f in firewall_path(t, addr[0])]
            params = [t.firewalls[j].params for j in path]
            self._target_paths.append(path)
            self._thresholds.append((
                min(p.max_connect_attempts for p in params),
                min(p.max_upload_volume for p in params),
                min(p.max_upload_time_seconds for p in params),
            ))
            self._connect_p.append(math.prod(p.connect_probability for p in params))

    def _build_obs_layout(self) -> None:
        subnet_ids = self.topology.subnet_ids
        subnet_index = {sid: i for i, sid in enumerate(subnet_ids)}
        local_index = {}
        max_local = 0
        for s in self.topology.subnets:
            ordered = sorted(h.local_id for h in s.hosts)
            for i, lid in enumerate(ordered):
                local_index[(s.id, lid)] = i
            max_local = max(max_local, len(ordered))
        service_vocab = sorted({
            b.service_name for h in self._hosts.values() for b in h.services
        })
        svc_index = {name: i for i, name in enumerate(service_vocab)}

        n_sub = len(subnet_ids)
        n_svc = len(service_vocab)
        status = n_sub + max_local + 2 + n_svc
        block = status + 4
        hosts_end = len(self._addresses) * block
        n_targets = len(self.target_index)
        self.obs_len = hosts_end + n_targets * 8

        # The static slots are written once, here; reset and the steps that
        # change them write the status bits, one-hots and attempt counts,
        # encode_observation the other target slots.
        template = np.zeros(self.obs_len, dtype=np.float64)
        for i, addr in enumerate(self._addresses):
            h = self._hosts[addr]
            off = i * block
            template[off + subnet_index[h.subnet_id]] = 1.0
            base = off + n_sub
            template[base + local_index[addr]] = 1.0
            base += max_local
            template[base + (0 if h.os == "windows" else 1)] = 1.0
            base += 2
            for b in h.services:
                template[base + svc_index[b.service_name]] = 1.0
            template[off + status] = h.discovery_value * VALUE_SCALE
            template[off + status + 2] = h.infection_value * VALUE_SCALE
        # Each host block ends with (discovery value, discovered, infection
        # value, infected), so each status bit sits at a fixed stride; the
        # targets' 8 slots each follow the host blocks. dynamic_index names
        # every slot written after this point, in that order: the
        # discovered bits by host row, the infected bits by host row, then
        # the targets' slots in sorted address order.
        values = np.arange(status, hosts_end, block, dtype=np.intp)
        self.dynamic_index = np.concatenate(
            (values + 1, values + 3, np.arange(hosts_end, self.obs_len, dtype=np.intp)))
        # The slots that can be non-zero, the rest being 0.0 in every state
        # (a mask, as np.union1d imports numpy.ma, ~1.5 MB, on first use).
        live = template != 0.0
        live[self.dynamic_index] = True
        self.live_slots = np.flatnonzero(live)
        self._discovered_bits = template[status + 1:hosts_end:block]
        self._infected_bits = template[status + 3:hosts_end:block]
        # By host row, the slot of its discovery value: its discovered bit
        # is the next slot, its infected bit the third after.
        self._host_slots = values.tolist()
        # Per target: its number, host row, infected bit and first slot.
        # Its 8 slots are the status one-hot, hours since infection, payload
        # share left, decayed attempts, upload minutes and upload volume.
        self._target_slots = [
            (k, i, i * block + status + 3, hosts_end + 8 * k)
            for k, i in enumerate(self.host_index[a] for a in self.target_index)]
        targets = template[hosts_end:].reshape(n_targets, 8)
        self._status, self._attempts = targets[:, :3], targets[:, 5]
        # Every target's slots at reset: not connected, full payload.
        fresh = _STATUS_ONE_HOT[NOT_CONNECTED] + (0.0, 1.0, 0.0, 0.0, 0.0)
        self._targets_start = hosts_end
        self._fresh_targets = np.array(fresh * n_targets)
        self._obs = template
        # The same buffer, read and written a slot at a time as Python
        # floats, which costs about half of numpy's scalar indexing.
        self._cells = memoryview(template)
        self._obs_readonly = template.view()
        self._obs_readonly.flags.writeable = False

    # -- episode control ---------------------------------------------------

    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start an episode. Returns the initial observation, a read-only
        view valid until this env's next ``reset`` or ``step``."""
        self._rng = np.random.default_rng(seed)
        n = len(self._addresses)
        discovered, infected = self._discovered_bits, self._infected_bits
        discovered[:] = infected[:] = 0.0
        foothold = self.host_index[self.scenario.initial_foothold]
        discovered[foothold] = infected[foothold] = 1.0
        self._obs[self._targets_start:] = self._fresh_targets
        n_targets = len(self._target_slots)
        self.state = EnvState(
            discovered=discovered,
            infected=infected,
            infection_time=np.zeros(n),
            accumulated_reward=np.zeros(n),
            status=self._status,
            attempts=self._attempts,
            payload=[self.scenario.payload_size_mb] * n_targets,
            upload_time=[0.0] * n_targets,
            upload_volume=[0.0] * n_targets,
            uploads=[[] for _ in range(n_targets)],
            fw_last_update=[0.0] * len(self._fw_periods),
            fw_next_due=min(self._fw_periods, default=math.inf),
        )
        # The step reads and writes these two arrays a host at a time, as
        # Python floats, through memoryviews of this episode's arrays.
        self._infection_time = memoryview(self.state.infection_time)
        self._rewards = memoryview(self.state.accumulated_reward)
        self._done = False
        return self.encode_observation()

    @property
    def done(self) -> bool:
        return self._done

    def step(self, action: int | Action):
        """Apply one action, given by its index in ``actions`` or by value.
        Returns (observation, reward, done, info).

        The observation is a read-only view valid until this env's next
        ``reset`` or ``step``. An index outside ``[0, n_actions)``, a host
        outside the topology or an upload rate the scenario lacks raises
        ValueError, and anything that is neither an index nor an action (a
        bool included) raises TypeError, before the episode changes.

        The step rewrites the status bits its scan or exploit changes, the
        target one-hot and attempts its connect, emergency or decay changes,
        and, through ``encode_observation``, the slots of each infected
        target; an uninfected target's slots still hold what ``reset`` wrote.
        The step reads and writes episode state as Python floats, a slot or
        a host at a time, through memoryviews: of the buffer for the status
        bits and target slots, of this episode's arrays for
        ``state.infection_time`` and ``state.accumulated_reward``. What a
        direct in-place write leaves in any of them is what it reads.
        """
        if self._done:  # also before the first reset
            raise EpisodeDoneError("step() after episode end; call reset()")
        if type(action) is int or (isinstance(action, (int, np.integer))
                                   and not isinstance(action, bool)):
            if not 0 <= action < self.n_actions:
                raise ValueError(
                    f"action index {action} outside [0, {self.n_actions})")
            plan = self._plans[action]
        else:
            i = self.action_index.get(action)
            plan = self._plan(action) if i is None else self._plans[i]
        arg, kind, host, row, reward, elapsed, decay, cvss = plan

        st, cells = self.state, self._cells
        if kind == "exploit":  # discovered
            valid = cells[self._host_slots[row] + 1] != 0.0
        elif kind == "sleep":
            valid = True
        elif kind == "subnet_scan":  # infected
            valid = cells[self._host_slots[row] + 3] != 0.0
        else:
            k = self._target_of[row]
            if k is None:
                valid = False
            elif kind == "connect":  # infected and not isolated
                off = self._targets_start + 8 * k
                valid = (cells[self._host_slots[row] + 3] != 0.0
                         and not cells[off + 2])
            else:  # connected, with payload left
                off = self._targets_start + 8 * k
                valid = cells[off + 1] == 1.0 and st.payload[k] > 0
        if not valid:
            elapsed, decay = self._erroneous
        st.clock += elapsed
        # An uninfected target's counters are still reset's zeros.
        upload_time, upload_volume = st.upload_time, st.upload_volume
        for j, _, bit, slot in self._target_slots:
            if cells[bit]:
                cells[slot + 5] *= decay
                upload_time[j] *= decay
                upload_volume[j] *= decay
        if st.clock >= st.fw_next_due:
            self._scheduled_updates()

        info = {
            "action": kind,
            "target": host,
            "valid": valid,
            "elapsed": elapsed,
            "outcome": "erroneous",
            "emergency": False,
            "penalty": 0.0,
        }
        if kind == "exploit":
            info["cve"] = arg
            if valid:
                success, gained = self._do_exploit(row, cvss)
                reward += gained
                info["outcome"] = "exploited" if success else "exploit_failed"
        elif kind == "upload":
            info["rate"] = arg
            if valid:
                mb, gained, penalty, emergency = self._do_upload(k, row, arg)
                reward += gained - penalty
                info["outcome"] = "uploaded"
                info["mb"] = mb
                info["emergency"] = emergency
                info["penalty"] = penalty
        elif not valid:
            pass  # an erroneous scan or connect changes nothing more
        elif kind == "subnet_scan":
            newly, gained = self._do_subnet_scan(host[0])
            reward += gained
            info["outcome"] = "scanned"
            info["newly_discovered"] = newly
        elif kind == "connect":
            outcome, result, gained, penalty = self._do_connect(k, row)
            reward += gained - penalty
            info["outcome"] = outcome
            info["connect_result"] = result
            info["emergency"] = outcome == OUTCOME_EMERGENCY
            info["penalty"] = penalty
        else:
            info["outcome"] = "slept"

        st.step_count += 1
        obs = self.encode_observation()
        capped = st.step_count >= self.scenario.max_steps
        self._done = self._settled or capped
        info["clock"] = st.clock
        if capped and not self._settled:
            info["truncated"] = True
        return obs, reward, self._done, info

    def check_action(self, action: Action) -> None:
        """Raise as ``step(action)`` would for an action this env cannot
        take: ValueError for a host outside the topology or an upload rate
        the scenario lacks, TypeError for anything that is not an action."""
        if action not in self.action_index:
            self._plan(action)

    # -- action semantics ---------------------------------------------------

    def _plan(self, action: Action) -> tuple:
        """(argument, kind, host, host row, base reward, elapsed, decay,
        cvss) for a valid step of ``action``: the argument is an exploit's
        CVE id or an upload's rate (None for any other kind), the reward is
        ``-action_cost``, the decay is ``apply_decay(1.0, elapsed,
        decay_factor)``, and the cvss is an exploit's ``_exploit_cvss``
        entry (None for any other kind)."""
        if not isinstance(action, Action):
            raise TypeError(f"not an action or action index: {action!r}")
        kind = action.kind
        host = getattr(action, "host", None)
        row = self.host_index.get(host, -1)
        if row < 0 and kind != "sleep":
            raise ValueError(f"{kind} targets host {host}, which is not in the "
                             f"topology")
        if kind == "upload" and action.rate not in self.scenario.upload_rates:
            raise ValueError(f"upload rate {action.rate!r} is not one of "
                             f"{sorted(self.scenario.upload_rates)}")
        arg = cvss = None
        if kind == "exploit":
            arg = action.cve_id
            cvss = self._exploit_cvss.get((host, arg))
        elif kind == "upload":
            arg = action.rate
        elapsed = self.scenario.action_times.of(action)
        return (arg, kind, host, row, -action_cost(action, self._hosts.get(host)),
                elapsed, apply_decay(1.0, elapsed, self.scenario.decay_factor), cvss)

    def _scheduled_updates(self) -> None:
        """Apply every update due by now. A firewall is due one period
        after its last update, and jumps all the periods it missed at once,
        so no clock jump makes a step loop. Called once the clock reaches
        ``fw_next_due``."""
        st = self.state
        clock, last, periods = st.clock, st.fw_last_update, self._fw_periods
        for j, period in enumerate(periods):
            nxt = last[j] + period
            if nxt <= clock:
                last[j] = nxt + (clock - nxt) // period * period
        st.fw_next_due = min([t + p for t, p in zip(last, periods)])

    def _do_subnet_scan(self, subnet: int) -> tuple[list[Address], float]:
        """Discover same-subnet hosts plus allow-rule-visible neighbors.
        Credits each new host's discovery value in discovery order and
        returns the new hosts' addresses, sorted, and their summed value."""
        cells, rewards = self._cells, self._rewards
        newly = []
        gained = 0.0
        for i, bit, value in self._scan_reveals[subnet]:
            if cells[bit] == 0.0:
                cells[bit] = 1.0
                rewards[i] += value
                gained += value
                newly.append(i)
        addresses = self._addresses
        return sorted([addresses[i] for i in newly]), gained

    def _do_exploit(self, i: int, best: float | None) -> tuple[bool, float]:
        success = best is not None
        if success and self.scenario.cvss_scaled_exploits:
            success = self._rng.random() < best / 10.0
        if not success:
            return False, 0.0
        cells = self._cells
        bit = self._host_slots[i] + 3
        if cells[bit]:
            return True, 0.0
        cells[bit] = 1.0
        self._infection_time[i] = self.state.clock
        gained = self._infection_values[i]
        self._rewards[i] += gained
        return True, gained

    def _set_status(self, k: int, status: str) -> None:
        off = self._targets_start + 8 * k
        cells = self._cells
        cells[off], cells[off + 1], cells[off + 2] = _STATUS_ONE_HOT[status]

    def _do_connect(self, k: int, i: int) -> tuple[str, str, float, float]:
        """Connect target ``k`` (host row ``i``). Returns (outcome, attempt
        result, reward gained, penalty).

        The attempt result records how the attempt itself resolved even when
        the threshold check afterwards escalates the outcome to an emergency.
        """
        st, cells = self.state, self._cells
        off = self._targets_start + 8 * k
        cells[off + 5] += 1.0

        gained = 0.0
        infected_at = self._infection_time[i]
        if cells[off + 1] == 1.0:
            result = OUTCOME_ALREADY
        elif any(st.fw_last_update[j] > infected_at for j in self._target_paths[k]):
            result = OUTCOME_BLOCKED
        elif self._rng.random() < self._connect_p[k]:
            self._set_status(k, CONNECTED)
            gained = self.scenario.rewards.connection
            self._rewards[i] += gained
            result = OUTCOME_CONNECTED
        else:
            result = OUTCOME_FAILED

        penalty = 0.0
        outcome = result
        if self.check_emergency(k):
            penalty = self._trigger_emergency(k, i)
            outcome = OUTCOME_EMERGENCY
        return outcome, result, gained, penalty

    def _do_upload(self, k: int, i: int,
                   rate: str) -> tuple[float, float, float, bool]:
        """Upload from target ``k`` (host row ``i``). Returns (mb uploaded,
        reward gained, emergency penalty, emergency)."""
        st = self.state
        payload = st.payload
        mb = min(self.scenario.upload_rates[rate], payload[k])
        payload[k] -= mb
        st.uploads[k].append((st.clock, mb))
        st.upload_volume[k] += mb
        st.upload_time[k] += self.scenario.action_times.upload

        gained = self.scenario.rewards.upload_per_mb * mb
        self._rewards[i] += gained
        if payload[k] <= 0.0:
            payload[k] = 0.0
            # Completion bonus is never part of the per-host accumulation,
            # so a later detection cannot revoke it.
            gained += self.scenario.rewards.upload_bonus

        penalty = 0.0
        emergency = self.check_emergency(k)
        if emergency:
            penalty = self._trigger_emergency(k, i)
        return mb, gained, penalty, emergency

    def window_totals(self, k: int) -> tuple[float, float]:
        """Target ``k``'s upload volume (MB) and time (s) in the window.

        An upload counts iff its timestamp lies in (clock - 300, clock];
        each one took ``action_times.upload`` seconds.
        """
        lo = self.state.clock - WINDOW_SECONDS
        duration = self.scenario.action_times.upload
        vol = tim = 0.0
        for time, mb in reversed(self.state.uploads[k]):
            if time <= lo:
                break
            vol += mb
            tim += duration
        return vol, tim

    def check_emergency(self, k: int) -> bool:
        """True when target ``k``'s traffic exceeds a path threshold."""
        max_attempts, max_volume, max_time = self._thresholds[k]
        if self._cells[self._targets_start + 8 * k + 5] > max_attempts:
            return True
        vol, tim = self.window_totals(k)
        return vol > max_volume or tim > max_time

    def _trigger_emergency(self, k: int, i: int) -> float:
        """Update the path firewalls, isolate target ``k`` (host row ``i``),
        forfeit its rewards."""
        st = self.state
        for j in self._target_paths[k]:
            st.fw_last_update[j] = st.clock
        self._set_status(k, ISOLATED)
        penalty = self._rewards[i]
        self._rewards[i] = 0.0
        return penalty

    # -- termination & encoding ---------------------------------------------

    def terminal_status(self, addr: Address) -> str:
        """completed | isolated | incomplete for a sensitive host."""
        k = self.target_index[addr]
        if self.state.payload[k] <= 0.0:
            return "completed"
        if self._cells[self._targets_start + 8 * k + 2]:
            return "isolated"
        return "incomplete"

    def encode_observation(self) -> np.ndarray:
        """Write the slots of the infected targets that no step keeps
        current: hours since infection, payload share left, upload minutes
        and volume. The host bits, status one-hots and attempt counts are
        already current, written where the state changes. An uninfected
        target is skipped: no step changes its slots before its infection.

        The same pass notes whether every target is settled (infected, and
        its payload all sent or its channel isolated), which ``step`` reads
        to end the episode.

        Returns a read-only view of the buffer, valid until this env's next
        ``reset`` or ``step``; copy it to keep it.
        """
        st = self.state
        cells, infection_time = self._cells, self._infection_time
        clock, payload, size = st.clock, st.payload, self.scenario.payload_size_mb
        upload_time, upload_volume = st.upload_time, st.upload_volume
        settled = True
        for k, i, bit, off in self._target_slots:
            if not cells[bit]:  # its payload is all there, its channel unused
                settled = False
                continue
            left = payload[k]
            cells[off + 3] = (clock - infection_time[i]) * INFECTION_TIME_SCALE
            cells[off + 4] = left / size
            cells[off + 6] = upload_time[k] * UPLOAD_TIME_SCALE
            cells[off + 7] = upload_volume[k] * UPLOAD_VOLUME_SCALE
            if left > 0 and not cells[off + 2]:  # not isolated
                settled = False
        self._settled = settled
        return self._obs_readonly
