"""Seeded scripted attacker for the enterprise-campaign workload.

It draws uniformly among the actions the step ``info`` stream has shown to
be applicable, plus a small share of uniformly random (almost always
erroneous) actions. It knows the environment only through ``env.actions``
and the ``info`` dict of each step; it never reads environment state.

A uniform-random policy over the 4,109 enterprise actions is ~99% erroneous
and never reaches connects or uploads, so the candidate sets are what make
the workload exercise every action kind. They are kept incrementally;
rebuilding them every step cost about 25% of the run in a prototype.
"""

from __future__ import annotations

import numpy as np

# Share of draws made uniformly over the whole action space rather than the
# candidate set. It keeps erroneous steps in the mix, as a learned policy
# still makes them, without swamping the useful kinds. Fixed, so that runs
# of the workload stay comparable.
ERROR_SHARE = 0.05


class _IndexSet:
    """Set of action indices with O(1) insert, remove and uniform draw."""

    def __init__(self) -> None:
        self.items: list[int] = []
        self._pos: dict[int, int] = {}

    def add(self, idx: int) -> None:
        if idx not in self._pos:
            self._pos[idx] = len(self.items)
            self.items.append(idx)

    def discard(self, idx: int) -> None:
        pos = self._pos.pop(idx, None)
        if pos is None:
            return
        last = self.items.pop()
        if pos < len(self.items):
            self.items[pos] = last
            self._pos[last] = pos


class ScriptedAttacker:
    """Candidate-set attacker; one instance per environment."""

    def __init__(self, actions: list, foothold, payload_mb: float,
                 rng: np.random.Generator):
        self.n_actions = len(actions)
        self.rng = rng
        self.payload_mb = payload_mb
        self._scan: dict = {}
        self._exploits: dict = {}
        self._connect: dict = {}
        self._uploads: dict = {}
        self._sleep = None
        for i, a in enumerate(actions):
            if a.kind == "subnet_scan":
                self._scan[a.host] = i
            elif a.kind == "exploit":
                self._exploits.setdefault(a.host, {})[a.cve_id] = i
            elif a.kind == "connect":
                self._connect[a.host] = i
            elif a.kind == "upload":
                self._uploads.setdefault(a.host, []).append(i)
            else:
                self._sleep = i
        self.foothold = tuple(foothold)
        self.reset()

    def reset(self) -> None:
        """Forget the previous episode; only the foothold is known."""
        self.candidates = _IndexSet()
        self.candidates.add(self._sleep)
        self._discovered: set = set()
        self._infected: set = set()
        self._scanned_subnets: set = set()
        self._remaining: dict = {t: self.payload_mb for t in self._connect}
        self._discover(self.foothold)
        self._infect(self.foothold)

    def act(self) -> int:
        if self.rng.random() < ERROR_SHARE:
            return int(self.rng.integers(self.n_actions))
        items = self.candidates.items
        return items[int(self.rng.integers(len(items)))]

    def observe(self, info: dict) -> None:
        """Update the candidate sets from one step's ``info``."""
        if not info["valid"]:
            return
        kind = info["action"]
        target = info["target"]
        outcome = info["outcome"]
        if kind == "subnet_scan":
            self._scanned(target[0])
            for addr in info["newly_discovered"]:
                self._discover(addr)
        elif kind == "exploit":
            if outcome == "exploited":
                self._infect(target)
            else:
                self.candidates.discard(self._exploits[target][info["cve"]])
        elif kind == "connect":
            if outcome == "connected":
                self.candidates.discard(self._connect[target])
                if self._remaining[target] > 0:
                    for i in self._uploads[target]:
                        self.candidates.add(i)
            elif outcome in ("triggered_emergency", "blocked_by_update"):
                # isolation is permanent; a block lasts as long as the
                # infection it predates, which is the rest of the episode
                self._drop_target(target)
        elif kind == "upload":
            self._remaining[target] -= info["mb"]
            if info["emergency"] or self._remaining[target] <= 0:
                self._drop_target(target)

    # -- candidate bookkeeping ------------------------------------------------

    def _discover(self, addr) -> None:
        if addr in self._discovered:
            return
        self._discovered.add(addr)
        if addr not in self._infected:
            for i in self._exploits.get(addr, {}).values():
                self.candidates.add(i)

    def _infect(self, addr) -> None:
        if addr in self._infected:
            return
        self._infected.add(addr)
        for i in self._exploits.get(addr, {}).values():
            self.candidates.discard(i)
        if addr[0] not in self._scanned_subnets:
            self.candidates.add(self._scan[addr])
        if addr in self._connect and self._remaining[addr] > 0:
            self.candidates.add(self._connect[addr])

    def _scanned(self, subnet: int) -> None:
        # every scan from a subnet reveals the same hosts
        self._scanned_subnets.add(subnet)
        for addr in self._infected:
            if addr[0] == subnet:
                self.candidates.discard(self._scan[addr])

    def _drop_target(self, addr) -> None:
        self._remaining[addr] = 0.0
        self.candidates.discard(self._connect[addr])
        for i in self._uploads[addr]:
            self.candidates.discard(i)
