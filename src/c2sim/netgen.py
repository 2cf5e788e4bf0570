"""Probabilistic generation of enterprise networks from offline reference
tables: port open-frequencies, per-port service/CPE distributions, and a CVE
snapshot keyed by CPE.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Literal

import numpy as np

from .net_model import (
    INTERNET,
    KNOWN_OSES,
    AllowRule,
    DefenseTier,
    Firewall,
    FirewallParams,
    Host,
    NetworkTopology,
    ServiceBinding,
    Subnet,
    Vulnerability,
    build_config,
    key_path_text,
    load_yaml,
)

BUCKETS = ("high", "moderate", "low", "rare")

# Probability mass of each open-frequency bucket: the width of its score
# range. A uniform draw on [0, 1) lands in "high" iff it falls in [0.1, 1.0).
BUCKET_RANGES = {
    "high": (0.1, 1.0),
    "moderate": (0.05, 0.1),
    "low": (0.005, 0.05),
    "rare": (0.0, 0.005),
}


class GenerationError(ValueError):
    """Configuration cannot produce a valid network."""


class ReferenceDataError(ValueError):
    """A reference table violates its schema. A table-level check names the
    entry at fault by ``key_path``, its keys from the table, so that
    ``build_config`` names it in the format of an entry's own fault."""

    def __init__(self, problem: str, key_path: tuple = ()):
        where = key_path_text(key_path)
        super().__init__(f"{where} {problem}" if where else problem)
        self.problem, self.key_path = problem, key_path


def bucket_for(score: float) -> str:
    """Open-frequency bucket of a score. Boundaries belong to the upper
    bucket (0.1 is high, 0.05 is moderate, 0.005 is low)."""
    if not 0.0 <= score <= 1.0:
        raise ReferenceDataError(f"open_frequency must be in [0, 1], got {score}")
    if score >= 0.1:
        return "high"
    if score >= 0.05:
        return "moderate"
    if score >= 0.005:
        return "low"
    return "rare"


@dataclass(frozen=True)
class PortEntry:
    port: int
    open_frequency: float

    def __post_init__(self) -> None:
        bucket_for(self.open_frequency)  # the [0, 1] range check

    @property
    def bucket(self) -> str:
        return bucket_for(self.open_frequency)


@dataclass(frozen=True)
class PortProbabilityTable:
    """The port probability document: an open frequency per port."""

    ports: tuple[PortEntry, ...]

    def __post_init__(self) -> None:
        if not self.ports:
            raise ReferenceDataError("empty port probability table")
        seen = set()
        for i, e in enumerate(self.ports):
            if e.port in seen:
                raise ReferenceDataError(f"duplicate port {e.port}", ("ports", i))
            seen.add(e.port)

    @functools.cached_property
    def by_bucket(self) -> dict[str, tuple[int, ...]]:
        """The ports of each open-frequency bucket, ascending; built once
        per table, not once per generated host."""
        out: dict[str, list[int]] = {b: [] for b in BUCKETS}
        for e in self.ports:
            out[e.bucket].append(e.port)
        return {b: tuple(sorted(ports)) for b, ports in out.items()}


@dataclass(frozen=True)
class CpeOption:
    service_name: str
    cpe: str
    probability: float
    is_security_product: bool = False


@dataclass(frozen=True)
class CpeReferenceTable:
    """The CPE reference document: the service/CPE options of each port, in
    the order ``assign_cpes`` draws among them."""

    records: dict[int, tuple[CpeOption, ...]]

    def __post_init__(self) -> None:
        for port, options in self.records.items():
            total = sum(o.probability for o in options)
            if abs(total - 1.0) > 1e-9:
                raise ReferenceDataError(
                    f"CPE probabilities sum to {total}, not 1", ("records", port))

    @property
    def security_product_labels(self) -> frozenset[str]:
        return frozenset(
            o.cpe for opts in self.records.values() for o in opts
            if o.is_security_product
        )


@dataclass(frozen=True)
class CveDatabase:
    """The CVE snapshot document: CVE records by CPE label."""

    cpes: dict[str, tuple[Vulnerability, ...]] = field(default_factory=dict)
    schema_version: Literal[1] = 1

    def lookup(self, cpe: str) -> tuple[Vulnerability, ...]:
        return self.cpes.get(cpe, ())


@dataclass(frozen=True)
class _DefenseTiers:
    """The defense tier document: a tier per service name."""

    tiers: dict[str, DefenseTier]


@dataclass(frozen=True)
class References:
    """Bundle of the three offline reference tables plus the tier map."""

    ports: PortProbabilityTable
    cpes: CpeReferenceTable
    cves: CveDatabase
    tiers: dict[str, str] = field(default_factory=dict)


def _data_text(name: str) -> str:
    return (resources.files("c2sim") / "data" / name).read_text(encoding="utf-8")


def load_default_references() -> References:
    """The reference tables shipped with the package, each one YAML document
    read by ``build_config``, so a fault is named by its key path."""
    def read(kind, file: str, name: str):
        return build_config(kind, load_yaml(_data_text(file), ReferenceDataError),
                            ReferenceDataError, name)

    return References(
        ports=read(PortProbabilityTable, "port_probabilities.yaml",
                   "port probabilities"),
        cpes=read(CpeReferenceTable, "cpe_reference.yaml", "CPE reference"),
        cves=read(CveDatabase, "cve_snapshot.yaml", "CVE snapshot"),
        tiers=read(_DefenseTiers, "defense_tiers.yaml", "defense tiers").tiers,
    )


@dataclass(frozen=True)
class GenConfig:
    total_ips: int
    num_subnets: int
    min_ips_per_subnet: int
    max_ips_per_subnet: int
    max_open_ports: int
    max_cpes: int
    seed: int = 0
    graph_shape: str = "star"  # star | chain | random_tree
    gateway_subnet: int = 1

    def __post_init__(self) -> None:
        if self.num_subnets < 1:
            raise GenerationError("num_subnets must be >= 1")
        if self.seed < 0:
            raise GenerationError("seed must be >= 0")
        if self.min_ips_per_subnet > self.max_ips_per_subnet:
            raise GenerationError(
                f"min_ips_per_subnet {self.min_ips_per_subnet} exceeds "
                f"max_ips_per_subnet {self.max_ips_per_subnet}"
            )
        if self.min_ips_per_subnet < 1:
            raise GenerationError("min_ips_per_subnet must be >= 1")
        if self.max_ips_per_subnet > 254:
            raise GenerationError(
                "max_ips_per_subnet exceeds a /24 block (254 hosts)"
            )
        if self.max_cpes > self.max_open_ports:
            raise GenerationError(
                f"max_cpes {self.max_cpes} exceeds max_open_ports {self.max_open_ports}"
            )
        if self.max_open_ports < 1 or self.max_cpes < 1:
            raise GenerationError("max_open_ports and max_cpes must be >= 1")
        if self.graph_shape not in ("star", "chain", "random_tree"):
            raise GenerationError(f"unknown graph_shape {self.graph_shape!r}")
        if not 1 <= self.gateway_subnet <= self.num_subnets:
            raise GenerationError(
                f"gateway_subnet {self.gateway_subnet} outside 1..{self.num_subnets}"
            )

    @classmethod
    def from_yaml(cls, text: str) -> "GenConfig":
        return build_config(cls, load_yaml(text, GenerationError),
                            GenerationError, "generator config")


def assign_ports(rng: np.random.Generator, max_open_ports: int,
                 table: PortProbabilityTable) -> set[int]:
    """Draw a host's open ports.

    The number of ports is uniform on 1..max_open_ports. Each port is drawn
    by first sampling a bucket (probability = width of its score range) and
    then picking uniformly inside the bucket, skipping ports already chosen.
    """
    by_bucket = table.by_bucket
    count = int(rng.integers(1, max_open_ports + 1))
    count = min(count, len(table.ports))
    chosen: set[int] = set()
    misses = 0
    while len(chosen) < count:
        u = rng.random()
        bucket = bucket_for(u)
        candidates = [p for p in by_bucket[bucket] if p not in chosen]
        if not candidates:
            misses += 1
            if misses > 200:
                # Degenerate table: fall back to any remaining port.
                candidates = sorted(
                    e.port for e in table.ports if e.port not in chosen
                )
                chosen.add(candidates[int(rng.integers(len(candidates)))])
                misses = 0
            continue
        chosen.add(candidates[int(rng.integers(len(candidates)))])
    return chosen


def assign_cpes(rng: np.random.Generator, ports: set[int],
                refs: CpeReferenceTable, max_cpes: int,
                tiers: dict[str, str] | None = None) -> list[ServiceBinding]:
    """Attach service/CPE bindings to a subset of a host's open ports.

    The CPE count is uniform on 1..max_cpes, reduced so it never exceeds the
    number of open ports. Ports with no reference entry are skipped.
    """
    if not ports:
        raise ValueError("ports must be non-empty")
    tiers = tiers or {}
    count = int(rng.integers(1, max_cpes + 1))
    count = min(count, len(ports))
    port_list = sorted(ports)
    picked = rng.choice(len(port_list), size=count, replace=False)
    bindings = []
    for idx in sorted(int(i) for i in picked):
        port = port_list[idx]
        options = refs.records.get(port)
        if not options:
            continue
        probs = np.array([o.probability for o in options])
        opt = options[int(rng.choice(len(options), p=probs / probs.sum()))]
        bindings.append(ServiceBinding(
            port=port,
            service_name=opt.service_name,
            cpe=opt.cpe,
            defense_tier=tiers.get(opt.service_name, "low"),
        ))
    return bindings


def assign_cves(bindings: list[ServiceBinding], db: CveDatabase) -> list[ServiceBinding]:
    """Enrich bindings with the CVE lists recorded for their CPEs."""
    return [replace(b, vulnerabilities=db.lookup(b.cpe)) for b in bindings]


def assign_allow_rules(subnets: list[Subnet], adjacency: list[tuple[int, int]]
                       ) -> dict[int, list[AllowRule]]:
    """Derive the allow rules of each firewalled subnet edge (each pair in
    ``adjacency``) from the service overlap of its two subnets.

    Identical service-name sets open all traffic; a partial overlap opens only
    the ports those shared services listen on; disjoint sets get no rule.
    Each rule is written on both sides of the edge.
    """
    service_ports: dict[int, dict[str, set[int]]] = {}
    for s in subnets:
        names: dict[str, set[int]] = {}
        for h in s.hosts:
            for b in h.services:
                names.setdefault(b.service_name, set()).add(b.port)
        service_ports[s.id] = names

    rules: dict[int, list[AllowRule]] = {s.id: [] for s in subnets}
    for a, b in adjacency:
        names_a, names_b = service_ports[a], service_ports[b]
        if not names_a or not names_b:
            continue
        if set(names_a) == set(names_b):
            rules[a].append(AllowRule(peer=b, port=None))
            rules[b].append(AllowRule(peer=a, port=None))
            continue
        shared = set(names_a) & set(names_b)
        if not shared:
            continue
        ports = sorted(
            {p for name in shared for p in names_a[name] | names_b[name]}
        )
        for p in ports:
            rules[a].append(AllowRule(peer=b, port=p))
            rules[b].append(AllowRule(peer=a, port=p))
    return rules


def _subnet_sizes(cfg: GenConfig, rng: np.random.Generator) -> list[int]:
    n = cfg.num_subnets
    lo, hi = cfg.min_ips_per_subnet, cfg.max_ips_per_subnet
    if cfg.total_ips < n * lo or cfg.total_ips > n * hi:
        raise GenerationError(
            f"total_ips {cfg.total_ips} infeasible for {n} subnets of "
            f"[{lo}, {hi}] hosts"
        )
    sizes = [lo] * n
    extra = cfg.total_ips - n * lo
    while extra > 0:
        open_idx = [i for i in range(n) if sizes[i] < hi]
        sizes[open_idx[int(rng.integers(len(open_idx)))]] += 1
        extra -= 1
    return sizes


def _adjacency(cfg: GenConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    ids = list(range(1, cfg.num_subnets + 1))
    if cfg.num_subnets == 1:
        return []
    if cfg.graph_shape == "star":
        hub = cfg.gateway_subnet
        return [(hub, i) for i in ids if i != hub]
    if cfg.graph_shape == "chain":
        return [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    edges = []
    for i in ids[1:]:
        parent = int(rng.integers(1, i))
        edges.append((parent, i))
    return edges


def generate(cfg: GenConfig, refs: References) -> NetworkTopology:
    """Generate a validated network topology, deterministically per seed."""
    rng = np.random.default_rng(cfg.seed)
    sizes = _subnet_sizes(cfg, rng)
    adjacency = _adjacency(cfg, rng)

    security_labels = refs.cpes.security_product_labels
    bare_subnets = []
    for sid, size in zip(range(1, cfg.num_subnets + 1), sizes):
        hosts = []
        for lid in range(size):
            os_name = KNOWN_OSES[int(rng.integers(len(KNOWN_OSES)))]
            ports = assign_ports(rng, cfg.max_open_ports, refs.ports)
            bindings = assign_cpes(rng, ports, refs.cpes, cfg.max_cpes, refs.tiers)
            bindings = assign_cves(bindings, refs.cves)
            is_security = any(b.cpe in security_labels for b in bindings)
            if is_security:
                bindings = [replace(b, defense_tier="high") for b in bindings]
            hosts.append(Host(
                address=(sid, lid),
                os=os_name,
                open_ports=frozenset(ports),
                services=tuple(bindings),
                discovery_value=1000.0,
                infection_value=1000.0,
                is_security_product=is_security,
            ))
        bare_subnets.append(Subnet(id=sid, hosts=tuple(hosts)))

    rules = assign_allow_rules(bare_subnets, adjacency)
    subnets = tuple(
        replace(s, allow_rules=tuple(rules[s.id])) for s in bare_subnets
    )

    firewalls = [Firewall(
        id=f"fw-internet-{cfg.gateway_subnet}",
        edge=(INTERNET, cfg.gateway_subnet),
        params=FirewallParams(),
    )]
    for a, b in adjacency:
        firewalls.append(Firewall(
            id=f"fw-{a}-{b}", edge=(a, b), params=FirewallParams(),
        ))

    return NetworkTopology(
        subnets=subnets,
        firewalls=tuple(firewalls),
        internet_gateway_subnets=frozenset({cfg.gateway_subnet}),
        adjacency=tuple(adjacency),
    )
