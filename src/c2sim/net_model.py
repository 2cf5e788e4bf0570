"""Network domain model: subnets, hosts, services, firewalls, and the YAML
manifest format that persists them.

A topology is immutable once loaded/validated and can be shared freely across
environment instances.
"""

from __future__ import annotations

import functools
import gc
import math
import re
import types
import typing
from collections import deque
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import yaml
from yaml.events import (
    DocumentEndEvent, DocumentStartEvent, MappingEndEvent, MappingStartEvent,
    ScalarEvent, SequenceEndEvent, SequenceStartEvent, StreamEndEvent,
    StreamStartEvent)
from yaml.nodes import ScalarNode

SCHEMA_VERSION = 1

Address = tuple[int, int]

# libyaml's loader and dumper give the same documents and manifest text as
# the pure-Python ones, several times faster; PyYAML may be built without it.
if yaml.__with_libyaml__:
    SafeLoader, SafeDumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    SafeLoader, SafeDumper = yaml.SafeLoader, yaml.SafeDumper


class _ConfigLoader(SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as ``3e-5`` and
    ``1.5e3``, which YAML 1.1 (a dot and a signed exponent required) leaves
    as strings. Integers and every other scalar resolve as before."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_config_yaml(text: str):
    """Parse a scenario, generator or trainer config document; raises
    ValueError, in one line, on malformed YAML."""
    try:
        return yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = (getattr(exc, "problem", None) or " ".join(str(exc).split())
                   or type(exc).__name__)
        raise ValueError(f"malformed YAML{where}: {problem}") from None


# The field annotations a config dataclass may use, named as its messages
# name them; a nested config dataclass and ``X | None`` are also accepted.
_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", Address: "a [subnet, local] pair",
          tuple[int, ...]: "a list of integers",
          tuple[Address, ...]: "a list of [subnet, local] pairs",
          dict[str, float]: "a mapping of names to numbers"}


@functools.cache
def _config_fields(cls) -> dict:
    """YAML key -> (field name, annotation, required) for a config dataclass;
    ``field(metadata={"key": ...})`` gives a field another YAML key."""
    hints = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name): (
                f.name, hints[f.name],
                f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def build_config(cls, doc, error: type[Exception], name: str, path: str = ""):
    """The config dataclass ``cls`` built from a parsed document, each field
    checked against its annotation; raises ``error`` naming the YAML key.

    An int is widened where a number is expected and a list becomes a tuple;
    neither a bool nor NaN is a number (NaN would pass every range check).
    ``name`` names the document in messages, and a nested config's keys are
    named ``<key>.<field>``. Range checks are left to ``cls.__post_init__``.
    """
    if not isinstance(doc, dict):
        raise error(f"{name} must be a mapping, got {doc!r}")
    specs = _config_fields(cls)
    unknown = sorted(str(k) for k in doc if k not in specs)
    if unknown:
        raise error(f"unknown {name} key(s): {', '.join(unknown)}")
    missing = [key for key, (_, _, required) in specs.items()
               if required and key not in doc]
    if missing:
        raise error(f"{name} is missing {', '.join(missing)}")
    return cls(**{attr: _config_value(kind, doc[key], path + key, error)
                  for key, (attr, kind, _) in specs.items() if key in doc})


def _config_value(kind, value, key: str, error: type[Exception]):
    if isinstance(kind, types.UnionType):  # X | None
        return None if value is None else _config_value(
            kind.__args__[0], value, key, error)
    if is_dataclass(kind):
        return build_config(kind, value, error, key, key + ".")
    if kind is float and type(value) is int:
        return float(value)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            return tuple(_config_value(args[0], v, f"{key}[{i}]", error)
                         for i, v in enumerate(value))
        # a fixed pair of scalars, such as Address
        if len(value) == len(args) and all(
                type(v) is t for v, t in zip(value, args)):
            return tuple(value)
    elif origin is dict and isinstance(value, dict):
        if all(type(k) is args[0] for k in value):
            return {k: _config_value(args[1], v, f"{key}.{k}", error)
                    for k, v in value.items()}
    elif type(value) is kind and not (kind is float and math.isnan(value)):
        return value
    raise error(f"{key} must be {_KINDS[kind]}, got {value!r}")


# Sentinel for the internet side of a firewall edge / adjacency.
INTERNET = "internet"

OS_WINDOWS = "windows"
OS_LINUX = "linux"
KNOWN_OSES = (OS_WINDOWS, OS_LINUX)

DEFENSE_TIERS = ("high", "medium", "low")


class TopologyError(Exception):
    """A manifest violated a structural invariant."""


class ManifestParseError(TopologyError):
    """The manifest text is not well-formed YAML or misses required keys."""


class UnreachableSubnetError(TopologyError):
    """A subnet has no path to the internet gateway."""


@dataclass(frozen=True)
class Vulnerability:
    """A CVE record attached to a service binding."""

    cve_id: str
    cvss_score: float
    cvss_vector: str
    required_service: str
    required_os: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.cvss_score <= 10.0:
            raise TopologyError(
                f"{self.cve_id}: cvss_score must be in [0, 10], got {self.cvss_score}"
            )


@dataclass(frozen=True)
class ServiceBinding:
    """A service (with optional CPE label) listening on one port of a host."""

    port: int
    service_name: str
    cpe: str
    vulnerabilities: tuple[Vulnerability, ...] = ()
    defense_tier: str = "low"

    def __post_init__(self) -> None:
        if self.defense_tier not in DEFENSE_TIERS:
            raise TopologyError(
                f"port {self.port}: defense_tier must be one of {DEFENSE_TIERS}, "
                f"got {self.defense_tier!r}"
            )


@dataclass(frozen=True)
class Host:
    address: Address
    os: str
    open_ports: frozenset[int]
    services: tuple[ServiceBinding, ...] = ()
    discovery_value: float = 1000.0
    infection_value: float = 1000.0
    is_sensitive: bool = False
    is_security_product: bool = False

    @property
    def subnet_id(self) -> int:
        return self.address[0]

    @property
    def local_id(self) -> int:
        return self.address[1]

    @property
    def service_names(self) -> frozenset[str]:
        return frozenset(b.service_name for b in self.services)

    def max_defense_tier(self) -> str:
        """Highest tier among the host's services; 'low' when unserviced."""
        tiers = {b.defense_tier for b in self.services}
        for tier in ("high", "medium"):
            if tier in tiers:
                return tier
        return "low"

    def vulnerabilities(self) -> list[Vulnerability]:
        return [v for b in self.services for v in b.vulnerabilities]


@dataclass(frozen=True)
class AllowRule:
    """Permits traffic between the owning subnet and ``peer`` on ``port``.

    ``port`` of None means all ports.
    """

    peer: int
    port: int | None = None


@dataclass(frozen=True)
class Subnet:
    id: int
    hosts: tuple[Host, ...]
    allow_rules: tuple[AllowRule, ...] = ()

    def __post_init__(self) -> None:
        if self.id <= 0:
            raise TopologyError(f"subnet id must be positive, got {self.id}")


@dataclass(frozen=True)
class FirewallParams:
    """Behavioural parameters of one firewall (times in native units:
    upload window in MB and minutes, update period in hours)."""

    connect_probability: float = 0.8
    max_connect_attempts: int = 3
    max_upload_volume: float = 5000.0
    max_upload_time: float = 4.0
    update_frequency: float = 24.0

    def __post_init__(self) -> None:
        if not 0.0 < self.connect_probability <= 1.0:
            raise TopologyError(
                f"connect_probability must be in (0, 1], got {self.connect_probability}"
            )
        for name in ("max_connect_attempts", "max_upload_volume",
                     "max_upload_time", "update_frequency"):
            if getattr(self, name) <= 0:
                raise TopologyError(f"{name} must be strictly positive")

    @property
    def max_upload_time_seconds(self) -> float:
        return self.max_upload_time * 60.0

    @property
    def update_period_seconds(self) -> float:
        return self.update_frequency * 3600.0


@dataclass(frozen=True)
class Firewall:
    id: str
    edge: tuple[int | str, int | str]
    params: FirewallParams = field(default_factory=FirewallParams)


@dataclass(frozen=True)
class NetworkTopology:
    """Validated, immutable description of an enterprise network.

    Collections are canonicalized on construction (subnets by id, hosts by
    address, firewall edges low-to-high with the internet side last), so two
    logically identical topologies compare equal regardless of input order.
    """

    subnets: tuple[Subnet, ...]
    firewalls: tuple[Firewall, ...]
    internet_gateway_subnets: frozenset[int]
    adjacency: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subnets", _canonical_subnets(self.subnets))
        object.__setattr__(self, "firewalls", _canonical_firewalls(self.firewalls))
        object.__setattr__(
            self, "internet_gateway_subnets",
            frozenset(self.internet_gateway_subnets))
        object.__setattr__(
            self, "adjacency",
            tuple(sorted(tuple(sorted(e)) for e in self.adjacency)))
        validate_topology(self)

    @property
    def subnet_ids(self) -> list[int]:
        return sorted(s.id for s in self.subnets)

    def subnet(self, subnet_id: int) -> Subnet:
        for s in self.subnets:
            if s.id == subnet_id:
                return s
        raise KeyError(f"no subnet {subnet_id}")

    def hosts(self) -> list[Host]:
        """All hosts ordered by (subnet_id, local_id)."""
        out = [h for s in self.subnets for h in s.hosts]
        out.sort(key=lambda h: h.address)
        return out

    def host(self, address: Address) -> Host:
        sid, lid = address
        for h in self.subnet(sid).hosts:
            if h.local_id == lid:
                return h
        raise KeyError(f"no host {address}")

    def neighbors(self, subnet_id: int) -> list[int]:
        out = set()
        for a, b in self.adjacency:
            if a == subnet_id:
                out.add(b)
            elif b == subnet_id:
                out.add(a)
        return sorted(out)

    def allowed_ports(self, subnet_a: int, subnet_b: int) -> set[int] | None:
        """Ports permitted between two subnets, or None meaning all ports.

        Rules are treated symmetrically: a rule on either side opens the port
        for both. An empty set means no traffic is allowed.
        """
        ports: set[int] = set()
        for sid, peer in ((subnet_a, subnet_b), (subnet_b, subnet_a)):
            for rule in self.subnet(sid).allow_rules:
                if rule.peer != peer:
                    continue
                if rule.port is None:
                    return None
                ports.add(rule.port)
        return ports

    def firewall_on_edge(self, side_a: int | str, side_b: int | str) -> Firewall:
        key = frozenset((side_a, side_b))
        for fw in self.firewalls:
            if frozenset(fw.edge) == key:
                return fw
        raise KeyError(f"no firewall on edge ({side_a}, {side_b})")


def _canonical_subnets(subnets) -> tuple[Subnet, ...]:
    out = []
    for s in sorted(subnets, key=lambda s: s.id):
        hosts = tuple(sorted(
            (replace(h, services=tuple(sorted(h.services, key=lambda b: b.port)))
             for h in s.hosts),
            key=lambda h: h.address,
        ))
        rules = tuple(sorted(s.allow_rules,
                             key=lambda r: (r.peer, -1 if r.port is None else r.port)))
        out.append(replace(s, hosts=hosts, allow_rules=rules))
    return tuple(out)


def _canonical_firewalls(firewalls) -> tuple[Firewall, ...]:
    out = []
    for fw in firewalls:
        a, b = fw.edge
        if a == INTERNET:
            a, b = b, a
        elif b != INTERNET and a > b:
            a, b = b, a
        out.append(replace(fw, edge=(a, b)))
    return tuple(sorted(out, key=lambda f: f.id))


def validate_topology(t: NetworkTopology) -> None:
    """Raise TopologyError naming the first violated invariant."""
    if not t.subnets:
        raise TopologyError("topology has no subnets")

    subnet_ids = [s.id for s in t.subnets]
    if len(set(subnet_ids)) != len(subnet_ids):
        raise TopologyError("duplicate subnet ids")
    id_set = set(subnet_ids)

    seen: set[Address] = set()
    for s in t.subnets:
        for h in s.hosts:
            if h.subnet_id != s.id:
                raise TopologyError(
                    f"host {h.address} listed under subnet {s.id}"
                )
            if h.address in seen:
                raise TopologyError(f"duplicate host address {h.address}")
            seen.add(h.address)
            if h.os not in KNOWN_OSES:
                raise TopologyError(
                    f"host {h.address}: unknown os {h.os!r}"
                )
            cpe_count = sum(1 for b in h.services if b.cpe)
            if cpe_count > len(h.open_ports):
                raise TopologyError(
                    f"host {h.address}: cpe count exceeds open ports "
                    f"({cpe_count} > {len(h.open_ports)})"
                )
            bound_ports = [b.port for b in h.services]
            if len(set(bound_ports)) != len(bound_ports):
                raise TopologyError(
                    f"host {h.address}: multiple services bound to one port"
                )
            for b in h.services:
                if b.port not in h.open_ports:
                    raise TopologyError(
                        f"host {h.address}: service on closed port {b.port}"
                    )
            if h.is_sensitive and not h.vulnerabilities():
                raise TopologyError(
                    f"sensitive host {h.address} has no exploitable vulnerability"
                )
        for rule in s.allow_rules:
            if rule.peer not in id_set:
                raise TopologyError(
                    f"subnet {s.id}: allow rule references unknown subnet {rule.peer}"
                )

    if not t.internet_gateway_subnets:
        raise TopologyError("no internet gateway subnet")
    for gw in t.internet_gateway_subnets:
        if gw not in id_set:
            raise TopologyError(f"internet gateway {gw} is not a subnet")

    edges = set()
    for a, b in t.adjacency:
        if a not in id_set or b not in id_set:
            raise TopologyError(f"adjacency edge ({a}, {b}) references unknown subnet")
        if a == b:
            raise TopologyError(f"self-edge on subnet {a}")
        key = frozenset((a, b))
        if key in edges:
            raise TopologyError(f"duplicate adjacency edge ({a}, {b})")
        edges.add(key)

    # Firewalls must sit on existing edges, one per edge, covering every edge
    # of the subnet graph including each gateway's link to the internet.
    required = set(edges)
    required.update(frozenset((gw, INTERNET)) for gw in t.internet_gateway_subnets)
    covered = set()
    for fw in t.firewalls:
        a, b = fw.edge
        for side in (a, b):
            if side != INTERNET and side not in id_set:
                raise TopologyError(
                    f"firewall {fw.id}: edge side {side!r} is not a subnet"
                )
        key = frozenset(fw.edge)
        if key not in required:
            raise TopologyError(
                f"firewall {fw.id} sits on non-existent edge {fw.edge}"
            )
        if key in covered:
            raise TopologyError(f"two firewalls on edge {fw.edge}")
        covered.add(key)
    missing = required - covered
    if missing:
        edge = sorted(missing, key=lambda k: sorted(map(str, k)))[0]
        raise TopologyError(f"edge {tuple(sorted(map(str, edge)))} has no firewall")

    # Connectivity: every subnet must reach the internet through the graph.
    dist = _distances_to_internet(t)
    for sid in subnet_ids:
        if sid not in dist:
            raise UnreachableSubnetError(f"subnet {sid} has no path to the internet")


def _distances_to_internet(t: NetworkTopology) -> dict[int, int]:
    """Hop count from each subnet to the internet node (gateways are 1)."""
    dist: dict[int, int] = {}
    q: deque[int] = deque()
    for gw in sorted(t.internet_gateway_subnets):
        dist[gw] = 1
        q.append(gw)
    while q:
        cur = q.popleft()
        for nxt in t.neighbors(cur):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                q.append(nxt)
    return dist


def firewall_path(t: NetworkTopology, from_subnet: int) -> list[str]:
    """Firewall ids along the fewest-hops path from a subnet to the internet.

    Ties between equal-length paths are broken by always stepping to the
    lowest-numbered next subnet, so the result is deterministic.
    """
    if from_subnet not in {s.id for s in t.subnets}:
        raise KeyError(f"no subnet {from_subnet}")
    dist = _distances_to_internet(t)
    if from_subnet not in dist:
        raise UnreachableSubnetError(
            f"subnet {from_subnet} has no path to the internet"
        )
    path: list[str] = []
    cur = from_subnet
    while dist[cur] > 1:
        nxt = min(n for n in t.neighbors(cur) if dist.get(n) == dist[cur] - 1)
        path.append(t.firewall_on_edge(cur, nxt).id)
        cur = nxt
    path.append(t.firewall_on_edge(cur, INTERNET).id)
    return path


# ---------------------------------------------------------------------------
# YAML manifest serialization


@contextmanager
def _gc_paused():
    """Run the block with the cyclic garbage collector off.

    A manifest's YAML node graph and document hold no reference cycles, so
    reference counting frees them. But while they grow, the collections
    their allocations trigger rescan them again and again: with
    enterprise101's ~600k nodes, load took about twice as long and save
    about a third longer. The collector is process-wide; it is turned back
    on only if it was on.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _ManifestLoader(SafeLoader):
    """SafeLoader that resolves each distinct scalar once per load.

    PyYAML's parser asks ``resolve`` for the tag of every untagged scalar,
    and its constructor builds each scalar node on its own: for
    enterprise101 that is ~600k regex resolutions and constructor calls in
    Python. Both are memoized here, for one load only (a loader reads one
    stream). The memos are exact. A tag depends only on the text and the
    implicit flags, since the safe resolver has no path resolvers. The safe
    scalar constructors are pure functions of ``(tag, text)`` and return
    immutable values, so one object can stand for every equal scalar, as an
    alias of one node already does.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._tags = {}     # (text, implicit) -> resolved tag
        self._scalars = {}  # (tag, text) -> constructed value

    def resolve(self, kind, value, implicit):
        if kind is not ScalarNode:
            return super().resolve(kind, value, implicit)
        key = (value, implicit)
        try:
            return self._tags[key]
        except KeyError:
            tag = self._tags[key] = super().resolve(kind, value, implicit)
            return tag

    def construct_object(self, node, deep=False):
        if type(node) is not ScalarNode:
            return super().construct_object(node, deep)
        key = (node.tag, node.value)
        try:
            return self._scalars[key]
        except KeyError:
            data = self._scalars[key] = super().construct_object(node, deep)
            return data


@_gc_paused()
def load_topology(yaml_text: str) -> NetworkTopology:
    """Parse and validate a YAML manifest.

    Raises ManifestParseError naming the key (as ``subnets[0].hosts[2].os``)
    when an entry has the wrong shape or type, and TopologyError when the
    network breaks an invariant."""
    try:
        doc = yaml.load(yaml_text, Loader=_ManifestLoader)
    except yaml.YAMLError as exc:
        raise ManifestParseError(f"malformed YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestParseError("manifest root must be a mapping")

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ManifestParseError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )

    sensitive = set(_addresses(doc, "sensitive_hosts"))
    security = set(_addresses(doc, "security_products"))

    rules_by_subnet: dict[int, list[AllowRule]] = {}
    for i, raw in enumerate(_entries(doc, "allow_rules", "")):
        where = f"allow_rules[{i}]"
        raw = _mapping(raw, where)
        port = raw.get("port", "all")
        rule = AllowRule(peer=_get(raw, "peer", int, where),
                         port=None if port == "all" else _get(raw, "port", int, where))
        rules_by_subnet.setdefault(_get(raw, "subnet", int, where), []).append(rule)

    if "subnets" not in doc:
        raise ManifestParseError("manifest is missing 'subnets'")
    subnets = tuple(
        _parse_subnet(_mapping(raw, f"subnets[{i}]"), f"subnets[{i}]",
                      rules_by_subnet, sensitive, security)
        for i, raw in enumerate(_entries(doc, "subnets", "")))
    firewalls = tuple(
        _parse_firewall(_mapping(raw, f"firewalls[{i}]"), f"firewalls[{i}]")
        for i, raw in enumerate(_entries(doc, "firewalls", "")))
    adjacency = _addresses(doc, "adjacency")
    gateways = frozenset(_ints(doc, "internet_gateways", ""))

    return NetworkTopology(
        subnets=subnets,
        firewalls=firewalls,
        internet_gateway_subnets=gateways,
        adjacency=adjacency,
    )


# The manifest's scalar kinds, named as its messages name them.
_MANIFEST_KINDS = {int: "an integer", float: "a finite number",
                   str: "a string", bool: "true or false"}
_REQUIRED = object()


def _get(raw: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """``raw[key]`` (or ``default``) checked to be of ``kind``; an int is
    widened where a number is expected, and a bool is never a number."""
    value = raw.get(key, default)
    if type(value) is kind:
        if kind is not float or math.isfinite(value):
            return value
    elif kind is float and type(value) is int:
        return float(value)
    elif value is _REQUIRED:
        raise ManifestParseError(f"{where} is missing '{key}'")
    raise ManifestParseError(
        f"{where}.{key} must be {_MANIFEST_KINDS[kind]}, got {value!r}")


def _mapping(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ManifestParseError(f"{where} must be a mapping, got {raw!r}")
    return raw


def _entries(raw: dict, key: str, where: str) -> list:
    """The list under ``key``; an absent key is an empty list. ``where`` is
    empty at the top level."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ManifestParseError(
            f"{where}.{key}".lstrip(".") + f" must be a list, got {value!r}")
    return value


def _ints(raw: dict, key: str, where: str) -> list[int]:
    values = _entries(raw, key, where)
    for value in values:
        if type(value) is not int:
            raise ManifestParseError(f"{where}.{key}".lstrip(".")
                                     + f" must be a list of integers, got {value!r}")
    return values


def _addresses(doc: dict, key: str) -> tuple[tuple[int, int], ...]:
    """A top-level list of integer pairs: host addresses or subnet edges."""
    pairs = _entries(doc, key, "")
    for pair in pairs:
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise ManifestParseError(
                f"{key} must be a list of integer pairs, got {pair!r}")
    return tuple((a, b) for a, b in pairs)


def _parse_subnet(raw, where, rules_by_subnet, sensitive, security) -> Subnet:
    sid = _get(raw, "id", int, where)
    hosts = []
    for i, h in enumerate(_entries(raw, "hosts", where)):
        host_where = f"{where}.hosts[{i}]"
        h = _mapping(h, host_where)
        addr = (sid, _get(h, "local_id", int, host_where))
        hosts.append(Host(
            address=addr,
            os=_get(h, "os", str, host_where),
            open_ports=frozenset(_ints(h, "open_ports", host_where)),
            services=tuple(
                _parse_service(_mapping(b, f"{host_where}.services[{j}]"),
                               f"{host_where}.services[{j}]")
                for j, b in enumerate(_entries(h, "services", host_where))),
            discovery_value=_get(h, "discovery_value", float, host_where, 1000.0),
            infection_value=_get(h, "infection_value", float, host_where, 1000.0),
            is_sensitive=addr in sensitive
            or _get(h, "is_sensitive", bool, host_where, False),
            is_security_product=addr in security
            or _get(h, "is_security_product", bool, host_where, False),
        ))
    return Subnet(
        id=sid,
        hosts=tuple(hosts),
        allow_rules=tuple(rules_by_subnet.get(sid, ())),
    )


def _parse_service(raw, where) -> ServiceBinding:
    name = _get(raw, "name", str, where)
    vulns = []
    for i, v in enumerate(_entries(raw, "cves", where)):
        cve_where = f"{where}.cves[{i}]"
        v = _mapping(v, cve_where)
        required_os = v.get("required_os")
        vulns.append(Vulnerability(
            cve_id=_get(v, "id", str, cve_where),
            cvss_score=_get(v, "cvss_score", float, cve_where),
            cvss_vector=_get(v, "cvss_vector", str, cve_where),
            required_service=_get(v, "required_service", str, cve_where, name),
            required_os=None if required_os is None
            else _get(v, "required_os", str, cve_where),
        ))
    return ServiceBinding(
        port=_get(raw, "port", int, where),
        service_name=name,
        cpe=_get(raw, "cpe", str, where, ""),
        vulnerabilities=tuple(vulns),
        defense_tier=_get(raw, "defense_tier", str, where, "low"),
    )


@_gc_paused()
def save_topology(t: NetworkTopology) -> str:
    """Serialize a topology to manifest YAML. load_topology round-trips it.

    The text is exactly ``yaml.dump(_manifest_doc(t), Dumper=SafeDumper,
    sort_keys=False, allow_unicode=True, width=100)``, made without the
    representation graph that yaml.dump builds first (see
    ``_manifest_events``)."""
    return yaml.emit(_manifest_events(_manifest_doc(t), SafeDumper(None)),
                     Dumper=SafeDumper, allow_unicode=True, width=100)


def _manifest_doc(t: NetworkTopology) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "subnets": [_dump_subnet(s) for s in sorted(t.subnets, key=lambda s: s.id)],
        "adjacency": sorted([list(e) for e in (sorted(e) for e in t.adjacency)]),
        "internet_gateways": sorted(t.internet_gateway_subnets),
        "firewalls": [_dump_firewall(fw) for fw in sorted(t.firewalls, key=lambda f: f.id)],
        "allow_rules": [
            {"subnet": s.id, "peer": r.peer, "port": "all" if r.port is None else r.port}
            for s in sorted(t.subnets, key=lambda s: s.id)
            for r in sorted(s.allow_rules, key=lambda r: (r.peer, r.port or -1))
        ],
        "sensitive_hosts": sorted(
            [list(h.address) for h in t.hosts() if h.is_sensitive]
        ),
        "security_products": sorted(
            [list(h.address) for h in t.hosts() if h.is_security_product]
        ),
    }


_MAP_TAG, _SEQ_TAG = "tag:yaml.org,2002:map", "tag:yaml.org,2002:seq"


def _manifest_events(doc, dumper):
    """The YAML events that ``yaml.dump(doc, sort_keys=False)`` serializes
    ``doc`` into, with ``dumper``'s representers and resolver; ``doc`` holds
    dicts, lists and str, int, float, bool or None scalars.

    yaml.dump first represents every value as a node, then serializes the
    node graph, resolving each scalar's text twice to decide whether its
    tag may stay implicit: for enterprise101 that is ~600k nodes and 1.2M
    regex resolutions in Python. Here each scalar's tag and text come from
    the same SafeRepresenter functions, once per distinct value, and the
    resolution is memoized by text. Both memos are exact. A representer's
    text depends only on the value, and resolution only on the text, since
    the safe resolver has no path resolvers. Floats are never memoized by
    value, because ``0.0 == -0.0`` yet each is written its own way.
    Collections are block style (yaml.dump's ``default_flow_style=False``),
    and the document shares no collection, so it needs no anchor.
    """
    representers = dumper.yaml_representers
    resolve = dumper.resolve
    implicit_by_text = {}
    events = {}  # (type, value) -> ScalarEvent, for all but floats

    def scalar(value):
        node = representers[type(value)](dumper, value)
        tag, text = node.tag, node.value
        try:
            detected, default = implicit_by_text[text]
        except KeyError:
            detected, default = implicit_by_text[text] = (
                resolve(ScalarNode, text, (True, False)),
                resolve(ScalarNode, text, (False, True)))
        return ScalarEvent(None, tag, (tag == detected, tag == default), text,
                           style=node.style)

    map_end, seq_end = MappingEndEvent(), SequenceEndEvent()
    yield StreamStartEvent()
    yield DocumentStartEvent()
    stack = [doc]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is dict:
            yield MappingStartEvent(None, _MAP_TAG, True, flow_style=False)
            stack.append(map_end)
            for key, value in reversed(item.items()):
                stack.append(value)
                stack.append(key)
        elif kind is list:
            yield SequenceStartEvent(None, _SEQ_TAG, True, flow_style=False)
            stack.append(seq_end)
            stack.extend(reversed(item))
        elif item is map_end or item is seq_end:
            yield item
        elif kind is float:
            yield scalar(item)
        else:
            event = events.get((kind, item))
            if event is None:
                event = events[kind, item] = scalar(item)
            yield event
    yield DocumentEndEvent()
    yield StreamEndEvent()


def _dump_subnet(s: Subnet) -> dict:
    return {
        "id": s.id,
        "hosts": [
            {
                "local_id": h.local_id,
                "os": h.os,
                "open_ports": sorted(h.open_ports),
                "discovery_value": h.discovery_value,
                "infection_value": h.infection_value,
                "services": [
                    {
                        "port": b.port,
                        "name": b.service_name,
                        "cpe": b.cpe,
                        "defense_tier": b.defense_tier,
                        "cves": [
                            {
                                "id": v.cve_id,
                                "cvss_score": v.cvss_score,
                                "cvss_vector": v.cvss_vector,
                                "required_service": v.required_service,
                                "required_os": v.required_os,
                            }
                            for v in b.vulnerabilities
                        ],
                    }
                    for b in sorted(h.services, key=lambda b: b.port)
                ],
            }
            for h in sorted(s.hosts, key=lambda h: h.local_id)
        ],
    }


def _dump_firewall(fw: Firewall) -> dict:
    return {
        "id": fw.id,
        "edge": [fw.edge[0], fw.edge[1]],
        "params": {
            "connect_probability": fw.params.connect_probability,
            "max_connect_attempts": fw.params.max_connect_attempts,
            "max_upload_volume": fw.params.max_upload_volume,
            "max_upload_time": fw.params.max_upload_time,
            "update_frequency": fw.params.update_frequency,
        },
    }


def _parse_firewall(raw, where) -> Firewall:
    edge = raw.get("edge")
    if not (type(edge) is list and len(edge) == 2 and all(
            side == INTERNET or type(side) is int for side in edge)):
        raise ManifestParseError(
            f"{where}.edge must be a pair of subnet ids or '{INTERNET}', "
            f"got {edge!r}")
    params = raw.get("params")
    params_where = f"{where}.params"
    params = {} if params is None else _mapping(params, params_where)
    return Firewall(
        id=_get(raw, "id", str, where),
        edge=(edge[0], edge[1]),
        params=FirewallParams(
            connect_probability=_get(
                params, "connect_probability", float, params_where, 0.8),
            max_connect_attempts=_get(
                params, "max_connect_attempts", int, params_where, 3),
            max_upload_volume=_get(
                params, "max_upload_volume", float, params_where, 5000.0),
            max_upload_time=_get(
                params, "max_upload_time", float, params_where, 4.0),
            update_frequency=_get(
                params, "update_frequency", float, params_where, 24.0),
        ),
    )
