"""Network domain model: subnets, hosts, services, firewalls, the YAML
manifest format that persists them, and the typed reader of every parsed
document (configs, manifests, trace records, the generator's reference
tables).

A topology is immutable once loaded/validated and can be shared freely across
environment instances.
"""

from __future__ import annotations

import functools
import math
import re
import types
import typing
from collections import deque
from dataclasses import (
    MISSING, dataclass, field, fields, is_dataclass, replace)
from typing import Literal

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import (
    AliasEvent, DocumentEndEvent, DocumentStartEvent, MappingEndEvent,
    MappingStartEvent, ScalarEvent, SequenceEndEvent, SequenceStartEvent,
    StreamEndEvent, StreamStartEvent)
from yaml.nodes import ScalarNode

SCHEMA_VERSION = 1

Address = tuple[int, int]

# Sentinel for the internet side of a firewall edge / adjacency.
INTERNET = "internet"

# A firewall edge: two subnet ids, or a gateway subnet and the internet.
Edge = tuple[int | Literal["internet"], int | Literal["internet"]]

# libyaml's loader and dumper give the same documents and manifest text as
# the pure-Python ones, several times faster; PyYAML may be built without it.
if yaml.__with_libyaml__:
    SafeLoader, SafeDumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    SafeLoader, SafeDumper = yaml.SafeLoader, yaml.SafeDumper

# A YAML 1.2 float with an exponent but no dot or no exponent sign, such as
# ``3e-5`` or ``1e3``, which YAML 1.1 reads as a string.
_FLOAT_1_2 = re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$")


def load_yaml(text: str, error: type[Exception]):
    """The document in ``text``, read as described in ``_ManifestLoader``.
    Malformed YAML raises ``error`` in one line:
    ``malformed YAML at line L, column C: <context>, <problem>``."""
    try:
        return yaml.load(text, Loader=_ManifestLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = ", ".join(filter(None, (getattr(exc, "context", None),
                                          getattr(exc, "problem", None))))
        raise error(f"malformed YAML{where}: "
                    f"{problem or ' '.join(str(exc).split())}") from None


# ---------------------------------------------------------------------------
# Typed documents
#
# Every parsed document (the scenario, generator and trainer configs, a
# topology manifest, a trace-file record, the generator's reference tables)
# is read by ``build_config`` against dataclass annotations, under one rule
# set.


class _Invalid(Exception):
    """A document value that does not fit its annotation. ``path`` gathers
    the keys and list indexes from the value up to the document root as the
    exception propagates, so reading a document that fits formats none."""

    def __init__(self, problem: str, path=()):
        super().__init__(problem)
        self.problem, self.path = problem, list(path)

    def message(self, name: str) -> str:
        where = key_path_text(reversed(self.path))
        return f"{name}: {where} {self.problem}" if where else f"{name} {self.problem}"


def key_path_text(path) -> str:
    """A key path, root first, as error messages name it:
    ``subnets[1].hosts[0].os``."""
    where = ""
    for part in path:
        where += (f"[{part}]" if type(part) is int
                  else f".{part}" if where else str(part))
    return where


class _Reader(typing.NamedTuple):
    """How one annotation's values are read: a value whose type is in
    ``exact`` is taken as it is, and ``convert`` reads any other, returning
    the value to store or raising _Invalid."""

    exact: frozenset
    convert: typing.Callable
    name: str

    def read(self, value):
        return value if type(value) in self.exact else self.convert(value)


def build_config(kind, doc, error: type[Exception], name: str):
    """``doc``, a parsed document, read as ``kind``: a dataclass, whose
    fields are read by their annotations, or any annotation ``_reader``
    handles (a scalar, ``X | Y``, ``Literal``, a tuple or a ``dict``).

    A mapping's unknown and missing keys fail, a number must be finite
    (an int is widened to float), a bool is not a number, a list becomes
    a tuple, and a ``Literal`` admits only its values. A failure raises
    ``error`` naming the document (``name``) and the key path in it, such
    as ``subnets[1].hosts[0].os``. ``field(metadata={"key": ...})`` reads a
    field from another key. Range checks are left to ``__post_init__``; a
    type's own ``ValueError`` from one is raised as ``error`` too, after the
    key path of the entry that failed it, extended by the error's own
    ``key_path`` (and read from its ``problem``) when it names one of that
    entry's parts.
    """
    try:
        return _reader(kind).read(doc)
    except _Invalid as exc:
        raise error(exc.message(name)) from None


_NONE = type(None)

# Annotations named as the messages name them; the rest are named by kind.
_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", _NONE: "null", Address: "a pair of integers",
          Edge: f"a pair of subnet ids or '{INTERNET}'",
          tuple[int, ...]: "a list of integers",
          tuple[Address, ...]: "a list of integer pairs",
          dict[str, float]: "a mapping of names to numbers"}


@functools.cache
def _reader(kind) -> _Reader:
    """The reader of one annotation, built once per annotation, so that
    reading a value does no annotation work."""
    name = _KINDS.get(kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)

    def reject(value):
        raise _Invalid(f"must be {name}, got {value!r}")

    exact = frozenset()
    if kind in (int, str, bool, _NONE):
        exact, convert = frozenset({kind}), reject
    elif kind is float:
        def convert(value):
            if type(value) is int or type(value) is float and math.isfinite(value):
                return float(value)
            reject(value)
    elif origin is Literal:
        name = name or " or ".join(map(repr, args))
        literal_types = frozenset(map(type, args))

        def convert(value):
            if type(value) not in literal_types or value not in args:
                reject(value)
            return value
    elif origin in (types.UnionType, typing.Union):
        alternatives = [_reader(a) for a in args]
        name = name or " or ".join(r.name for r in alternatives)
        exact = frozenset().union(*(r.exact for r in alternatives))

        def convert(value):
            for r in alternatives:
                try:
                    return r.read(value)
                except _Invalid as exc:
                    if exc.path:  # a part of the value, named by its path
                        raise
            reject(value)
    elif origin is tuple and args[-1] is Ellipsis:
        item_exact, item_convert, _ = _reader(args[0])
        name = name or "a list"

        def convert(value):
            if type(value) is not list:
                reject(value)
            out = list(value)
            try:
                for i, v in enumerate(value):
                    if type(v) not in item_exact:
                        out[i] = item_convert(v)
            except _Invalid as exc:
                exc.path.append(i)
                raise
            return tuple(out)
    elif origin is tuple:  # a fixed-length list, such as Address
        items = [_reader(a) for a in args]
        name = name or f"a list of {len(args)} values"

        def convert(value):
            if type(value) is list and len(value) == len(items):
                try:
                    return tuple(r.read(v) for r, v in zip(items, value))
                except _Invalid:
                    pass
            reject(value)
    elif origin is dict:
        keys, values = _reader(args[0]), _reader(args[1])
        name = name or "a mapping"

        def convert(value):
            if type(value) is not dict:
                reject(value)
            out = {}
            for k, v in value.items():
                if type(k) not in keys.exact:
                    raise _Invalid(f"key {k!r} ({type(k).__name__}) must be "
                                   f"{keys.name}")
                try:
                    out[k] = values.read(v)
                except _Invalid as exc:
                    exc.path.append(k)
                    raise
            return out
    elif is_dataclass(kind):
        name, convert = name or "a mapping", _dataclass_reader(kind)
    else:
        raise TypeError(f"no document reader for {kind!r}")
    return _Reader(exact, convert, name)


def _dataclass_reader(cls):
    """The convert function of a dataclass: each of a mapping's values is
    read by its key's field reader; then the required keys are checked."""
    hints = typing.get_type_hints(cls)
    spec = {}  # document key -> (field name, exact types, convert)
    required = []
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        r = _reader(hints[f.name])
        spec[key] = (f.name, r.exact, r.convert)
        if f.default is MISSING and f.default_factory is MISSING:
            required.append(key)
    needed = frozenset(required)

    def convert(doc):
        if type(doc) is not dict:
            raise _Invalid(f"must be a mapping, got {doc!r}")
        kwargs = {}
        for key, value in doc.items():
            try:
                attr, exact, convert_value = spec[key]
            except KeyError:
                raise _Invalid("has unknown key(s): " + ", ".join(
                    sorted(str(k) for k in doc if k not in spec))) from None
            if type(value) in exact:
                kwargs[attr] = value
            else:
                try:
                    kwargs[attr] = convert_value(value)
                except _Invalid as exc:
                    exc.path.append(key)
                    raise
        if len(doc) < len(spec) and not doc.keys() >= needed:
            raise _Invalid("is missing " + ", ".join(
                k for k in required if k not in doc))
        try:
            return cls(**kwargs)
        except ValueError as exc:  # the type's own range check
            # one that names the entry at fault (a ``key_path`` from the
            # checked value) reads like a fault of that entry
            raise _Invalid(getattr(exc, "problem", str(exc)),
                           reversed(getattr(exc, "key_path", ()))) from None
    return convert


OS_WINDOWS = "windows"
OS_LINUX = "linux"
KNOWN_OSES = (OS_WINDOWS, OS_LINUX)

DefenseTier = Literal["high", "medium", "low"]
DEFENSE_TIERS = typing.get_args(DefenseTier)


class TopologyError(ValueError):
    """A manifest violated a structural invariant."""


class ManifestParseError(TopologyError):
    """The manifest text is not well-formed YAML or does not fit the
    manifest's types."""


class UnreachableSubnetError(TopologyError):
    """A subnet has no path to the internet gateway."""


@dataclass(frozen=True)
class Vulnerability:
    """A CVE record attached to a service binding."""

    cve_id: str = field(metadata={"key": "id"})
    cvss_score: float
    cvss_vector: str
    # empty until bound to a service: ServiceBinding fills in its own name
    required_service: str = ""
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
    service_name: str = field(metadata={"key": "name"})
    cpe: str = ""
    defense_tier: str = "low"
    vulnerabilities: tuple[Vulnerability, ...] = field(
        default=(), metadata={"key": "cves"})

    def __post_init__(self) -> None:
        if self.defense_tier not in DEFENSE_TIERS:
            raise TopologyError(
                f"port {self.port}: defense_tier must be one of {DEFENSE_TIERS}, "
                f"got {self.defense_tier!r}"
            )
        # a CVE that names no service requires this binding's service
        if not all(v.required_service for v in self.vulnerabilities):
            object.__setattr__(self, "vulnerabilities", tuple(
                v if v.required_service
                else replace(v, required_service=self.service_name)
                for v in self.vulnerabilities))


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

    def exploitable(self) -> bool:
        """Whether any of the host's vulnerabilities ``vuln_applies`` to it."""
        return any(vuln_applies(self, v) for v in self.vulnerabilities())


def vuln_applies(host: Host, vuln: Vulnerability) -> bool:
    """Whether ``vuln`` is exploitable on ``host``: the host runs the
    service it requires, if any, and the OS it requires, if any."""
    return ((not vuln.required_service or vuln.required_service in host.service_names)
            and (vuln.required_os is None or vuln.required_os == host.os))


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
    edge: Edge
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
            if h.is_sensitive and not h.exploitable():
                raise TopologyError(
                    f"sensitive host {h.address} has no exploitable vulnerability"
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

    # Allow rules sit on edges too: a rule opens ports through one firewall.
    # Checked after connectivity, so an unreachable subnet is named as one.
    for s in t.subnets:
        for rule in s.allow_rules:
            if frozenset((s.id, rule.peer)) not in edges:
                raise TopologyError(
                    f"allow rule between subnets {s.id} and {rule.peer}, "
                    f"which are not adjacent"
                )


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
# YAML documents and manifest serialization


_MAP_TAG, _SEQ_TAG = "tag:yaml.org,2002:map", "tag:yaml.org,2002:seq"
_MAP_END, _SEQ_END = MappingEndEvent(), SequenceEndEvent()


def _anchor(anchors, event, value) -> None:
    name = event.anchor
    if name in anchors:
        raise ComposerError(
            f"found duplicate anchor {name!r}; first occurrence",
            anchors[name][1], "second occurrence", event.start_mark)
    anchors[name] = (value, event.start_mark)


def _unhashable_key(stack, event):
    raise ConstructorError("while constructing a mapping", stack[-1][3].start_mark,
                           "found unhashable key", event.start_mark)


def _duplicate_key(start, keys, marks):
    """Raise naming the first of ``keys`` equal to an earlier one (as dict
    keys are equal: ``1``, ``1.0`` and ``true`` are one key) and its mark."""
    seen = set()
    for key, mark in zip(keys, marks):
        if key in seen:
            raise ConstructorError("while constructing a mapping", start.start_mark,
                                   f"found duplicate key {key!r}", mark)
        seen.add(key)


class _ManifestLoader(SafeLoader):
    """The loader of every c2sim document (configs, manifests, the CVE
    snapshot and the defense tiers): SafeLoader's scalars plus YAML 1.2
    floats, built straight from the parser's events.

    PyYAML composes a node graph of the whole stream (for enterprise101,
    ~600k ScalarNode and MappingNode objects, each with two marks) and only
    then constructs the document from it. ``get_single_data`` here builds
    the dicts and lists as their events arrive, so no graph is ever held,
    and it resolves and constructs each distinct scalar once per load. The
    memos are exact. A tag depends only on the text and the implicit flags,
    since the resolver has no path resolvers. The safe scalar constructors
    are pure functions of ``(tag, text)`` and return immutable values, so
    one object can stand for every equal scalar, as an alias of one node
    already does.

    Anchors and aliases (also of a collection inside itself) behave as in
    ``yaml.SafeLoader``. A mapping key equal to an earlier key of the same
    mapping raises ConstructorError at its line, where SafeLoader keeps the
    last value. A merge key (``<<``) and the value key (``=``)
    raise ConstructorError naming their tag, as any tag with no constructor
    does, and so does a collection tagged ``!!set``, ``!!omap``, ``!!pairs``
    or any tag but the plain mapping and sequence ones. A document with
    several faults reports the first one the parser reaches, where
    SafeLoader reports YAML syntax faults before construction faults.
    """

    def get_single_data(self):
        get_event = self.get_event
        get_event()  # StreamStartEvent
        if type(get_event()) is StreamEndEvent:
            return None  # an empty stream; else a DocumentStartEvent came
        resolve, construct = self.resolve, self.construct_object
        untagged = {}  # (text, implicit) -> value of an untagged scalar
        scalars = {}   # (tag, text) -> constructed value
        anchors = {}   # anchor -> (value, mark)

        def scalar(tag, event):
            key = (tag, event.value)
            try:
                return scalars[key]
            except KeyError:
                pass
            try:
                value = scalars[key] = construct(ScalarNode(
                    tag, event.value, event.start_mark, event.end_mark,
                    style=event.style), deep=True)
            except (ValueError, TypeError, KeyError, AttributeError):
                # a safe constructor's own fault on a resolved or tagged
                # scalar it cannot read, such as month 13 or ``!!int abc``
                raise ConstructorError(
                    None, None, f"cannot read {event.value!r} as "
                    f"{tag.replace('tag:yaml.org,2002:', '!!')}",
                    event.start_mark) from None
            return value

        root = items = []  # the open collection's values; a mapping's are
        in_map = False     # its keys and values in turn
        stack = []  # per open collection: (parent items, parent in_map,
        #             the collection, its start event)
        key_marks = []  # the marks of the open mappings' keys, in order
        event = get_event()
        first_mark = event.start_mark
        while True:
            kind = type(event)
            if kind is ScalarEvent:
                tag = event.tag
                if tag is None or tag == "!":  # the resolver picks the tag
                    key = (event.value, event.implicit)
                    try:
                        value = untagged[key]
                    except KeyError:
                        value = untagged[key] = scalar(
                            resolve(ScalarNode, event.value, event.implicit), event)
                else:
                    value = scalar(tag, event)
                if event.anchor is not None:
                    _anchor(anchors, event, value)
                if in_map and not len(items) & 1:
                    key_marks.append(event.start_mark)
                items.append(value)
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                if kind is MappingStartEvent:
                    container, plain_tag = {}, _MAP_TAG
                else:
                    container, plain_tag = [], _SEQ_TAG
                if event.anchor is not None:
                    _anchor(anchors, event, container)
                tag = event.tag
                if not (tag is None or tag == "!" or tag == plain_tag):
                    raise ConstructorError(
                        None, None, f"found a "
                        f"{'mapping' if kind is MappingStartEvent else 'sequence'}"
                        f" tagged {tag!r}; only plain mappings and sequences are "
                        f"read", event.start_mark)
                if in_map and not len(items) & 1:
                    _unhashable_key(stack, event)
                stack.append((items, in_map, container, event))
                if kind is MappingStartEvent:
                    items, in_map = [], True
                else:
                    items, in_map = container, False
            elif kind is MappingEndEvent:
                parent, in_map, container, start = stack.pop()
                pairs = iter(items)
                container.update(zip(pairs, pairs))
                first_key = len(key_marks) - (len(items) >> 1)
                if len(container) != len(items) >> 1:
                    _duplicate_key(start, items[::2], key_marks[first_key:])
                del key_marks[first_key:]
                items = parent
                items.append(container)
            elif kind is SequenceEndEvent:
                items, in_map, container, _ = stack.pop()
                items.append(container)
            elif kind is AliasEvent:
                try:
                    value = anchors[event.anchor][0]
                except KeyError:
                    raise ComposerError(
                        None, None, f"found undefined alias {event.anchor!r}",
                        event.start_mark) from None
                if in_map and not len(items) & 1:
                    if type(value) is dict or type(value) is list:
                        _unhashable_key(stack, event)
                    key_marks.append(event.start_mark)
                items.append(value)
            else:  # DocumentEndEvent: the root is complete
                break
            event = get_event()
        event = get_event()
        if type(event) is not StreamEndEvent:
            raise ComposerError(
                "expected a single document in the stream", first_mark,
                "but found another document", event.start_mark)
        return root[0]


class _ManifestDumper(SafeDumper):
    """SafeDumper that quotes a string ``_ManifestLoader`` would read as a
    YAML 1.2 float, such as the label ``1e3``."""


_ManifestLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", _FLOAT_1_2, list("-+0123456789."))
_ManifestDumper.add_implicit_resolver(
    "tag:yaml.org,2002:float", _FLOAT_1_2, list("-+0123456789."))


@dataclass(slots=True)
class _HostEntry:
    """A manifest host: listed under its subnet, so named by ``local_id``."""

    local_id: int
    os: str
    open_ports: tuple[int, ...] = ()
    discovery_value: float = 1000.0
    infection_value: float = 1000.0
    services: tuple[ServiceBinding, ...] = ()


@dataclass(slots=True)
class _SubnetEntry:
    id: int
    hosts: tuple[_HostEntry, ...] = ()


@dataclass(slots=True)
class _RuleEntry:
    """A manifest allow rule: the owning subnet is named in the rule."""

    subnet: int
    peer: int
    port: int | Literal["all"] = "all"


@dataclass(slots=True)
class _Manifest:
    schema_version: Literal[SCHEMA_VERSION]
    subnets: tuple[_SubnetEntry, ...]
    adjacency: tuple[Address, ...] = ()
    internet_gateways: tuple[int, ...] = ()
    firewalls: tuple[Firewall, ...] = ()
    allow_rules: tuple[_RuleEntry, ...] = ()
    sensitive_hosts: tuple[Address, ...] = ()
    security_products: tuple[Address, ...] = ()


def load_topology(yaml_text: str) -> NetworkTopology:
    """Parse and validate a YAML manifest.

    Raises ManifestParseError naming the key (as ``subnets[0].hosts[2].os``)
    when an entry has the wrong shape or type, and TopologyError when the
    network breaks an invariant."""
    manifest = build_config(_Manifest, load_yaml(yaml_text, ManifestParseError),
                            ManifestParseError, "manifest")

    rules_by_subnet: dict[int, list[AllowRule]] = {}
    for rule in manifest.allow_rules:
        rules_by_subnet.setdefault(rule.subnet, []).append(
            AllowRule(rule.peer, None if rule.port == "all" else rule.port))
    sensitive = set(manifest.sensitive_hosts)
    security = set(manifest.security_products)
    subnets = []
    for i, s in enumerate(manifest.subnets):
        hosts = []
        for h in s.hosts:
            address = (s.id, h.local_id)
            hosts.append(Host(
                address=address,
                os=h.os,
                open_ports=frozenset(h.open_ports),
                services=h.services,
                discovery_value=h.discovery_value,
                infection_value=h.infection_value,
                is_sensitive=address in sensitive,
                is_security_product=address in security,
            ))
        try:
            subnets.append(Subnet(id=s.id, hosts=tuple(hosts), allow_rules=tuple(
                rules_by_subnet.get(s.id, ()))))
        except TopologyError as exc:
            raise ManifestParseError(f"manifest: subnets[{i}] {exc}") from None
    return NetworkTopology(
        subnets=tuple(subnets),
        firewalls=manifest.firewalls,
        internet_gateway_subnets=frozenset(manifest.internet_gateways),
        adjacency=manifest.adjacency,
    )


def save_topology(t: NetworkTopology) -> str:
    """Serialize a topology to manifest YAML, built from the types that
    load_topology reads (``_manifest_doc``). load_topology round-trips it.

    The text is exactly ``yaml.dump(_manifest_doc(t),
    Dumper=_ManifestDumper, sort_keys=False, allow_unicode=True,
    width=100)``, emitted from ``_manifest_events`` without the node graph
    that yaml.dump builds first."""
    return yaml.emit(_manifest_events(_manifest_doc(t)), Dumper=_ManifestDumper,
                     allow_unicode=True, width=100)


def _manifest_doc(t: NetworkTopology) -> dict:
    """``t`` as the ``_Manifest`` that load_topology reads, made into plain
    dicts and lists by ``_document``. ``t``'s tuples are in canonical order
    already; only its sets are sorted here."""
    hosts = t.hosts()
    return _document(_Manifest(
        schema_version=SCHEMA_VERSION,
        subnets=tuple(_SubnetEntry(s.id, tuple(
            _HostEntry(h.local_id, h.os, tuple(sorted(h.open_ports)),
                       h.discovery_value, h.infection_value, h.services)
            for h in s.hosts)) for s in t.subnets),
        adjacency=t.adjacency,
        internet_gateways=tuple(sorted(t.internet_gateway_subnets)),
        firewalls=t.firewalls,
        allow_rules=tuple(_RuleEntry(s.id, r.peer, "all" if r.port is None else r.port)
                          for s in t.subnets for r in s.allow_rules),
        sensitive_hosts=tuple(h.address for h in hosts if h.is_sensitive),
        security_products=tuple(h.address for h in hosts if h.is_security_product)))


_SCALARS = frozenset({int, float, str, bool, _NONE})


@functools.cache
def _document_keys(cls) -> tuple:
    """(document key, attribute) per field of a dataclass, in field order."""
    return tuple((f.metadata.get("key", f.name), f.name) for f in fields(cls))


def _document(value):
    """``value`` as the document ``build_config`` reads back into it: a
    scalar as it is, a tuple as a list, and a dataclass as a mapping of its
    fields' document keys in field order."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return [_document(v) for v in value]
    return {key: _document(getattr(value, name)) for key, name in _document_keys(kind)}


def _manifest_events(doc):
    """The YAML events that yaml.dump serializes ``doc`` into, as
    ``save_topology`` calls it; ``doc`` holds dicts, lists and str, int,
    float, bool or None scalars, and shares no collection, so it needs no
    anchor. Collections are block style.

    yaml.dump represents every value as a node, then resolves each scalar's
    text twice to decide whether its tag may stay implicit: for enterprise101
    that is ~100k nodes and ~175k regex resolutions. Here the dumper's own
    representer makes a scalar's tag and text once per distinct
    ``(type, value)``, and the resolution is memoized by text. Both memos
    are exact: a representer's text depends only on the value, and the safe
    resolver has no path resolvers. Floats are not memoized, because
    ``0.0 == -0.0`` and NaN is not equal to itself."""
    dumper = _ManifestDumper(None)
    representers, resolve = dumper.yaml_representers, dumper.resolve
    implicit_by_text = {}
    scalars = {}  # (type, value) -> ScalarEvent

    def scalar(value):
        node = representers[type(value)](dumper, value)
        tag, text = node.tag, node.value
        if text not in implicit_by_text:
            implicit_by_text[text] = (resolve(ScalarNode, text, (True, False)),
                                      resolve(ScalarNode, text, (False, True)))
        detected, default = implicit_by_text[text]
        return ScalarEvent(None, tag, (tag == detected, tag == default), text,
                           style=node.style)

    yield StreamStartEvent()
    yield DocumentStartEvent()
    stack = [doc]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is dict:
            yield MappingStartEvent(None, _MAP_TAG, True, flow_style=False)
            stack.append(_MAP_END)
            for key, value in reversed(item.items()):
                stack += value, key
        elif kind is list:
            yield SequenceStartEvent(None, _SEQ_TAG, True, flow_style=False)
            stack.append(_SEQ_END)
            stack.extend(reversed(item))
        elif item is _MAP_END or item is _SEQ_END:
            yield item
        elif kind is float:
            yield scalar(item)
        else:
            if (kind, item) not in scalars:
                scalars[kind, item] = scalar(item)
            yield scalars[kind, item]
    yield DocumentEndEvent()
    yield StreamEndEvent()
