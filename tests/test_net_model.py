from __future__ import annotations

import collections
import math
import re
from importlib import resources

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from c2sim import net_model, netgen, scenarios
from c2sim.net_model import (
    AllowRule,
    Firewall,
    FirewallParams,
    Host,
    NetworkTopology,
    ServiceBinding,
    Subnet,
    TopologyError,
    ManifestParseError,
    UnreachableSubnetError,
    Vulnerability,
    firewall_path,
    load_topology,
    save_topology,
)

from conftest import make_host, vuln


MINIMAL_MANIFEST = """
schema_version: 1
subnets:
  - id: 1
    hosts:
      - {local_id: 0, os: linux, open_ports: [80],
         services: [{port: 80, name: http, cpe: "cpe:/a:x:y:1"}]}
      - {local_id: 1, os: windows, open_ports: [443], services: []}
      - {local_id: 2, os: linux, open_ports: [22], services: []}
  - id: 2
    hosts:
      - {local_id: 0, os: linux, open_ports: [80],
         services: [{port: 80, name: http, cpe: "cpe:/a:x:y:1"}]}
      - {local_id: 1, os: windows, open_ports: [443], services: []}
      - {local_id: 2, os: linux, open_ports: [22], services: []}
adjacency: [[1, 2]]
internet_gateways: [1]
firewalls:
  - {id: fw-i-1, edge: [internet, 1]}
  - {id: fw-1-2, edge: [1, 2]}
allow_rules:
  - {subnet: 1, peer: 2, port: all}
  - {subnet: 2, peer: 1, port: all}
"""


# A YAML 1.2 float with an exponent but no dot or no exponent sign
FLOAT_1_2 = re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$")


class PurePythonManifestDumper(yaml.SafeDumper):
    """The manifest dumper on PyYAML's pure-Python emitter, which
    save_topology writes with when PyYAML is built without libyaml."""


PurePythonManifestDumper.add_implicit_resolver(
    "tag:yaml.org,2002:float", FLOAT_1_2, list("-+0123456789."))


def reference_dump(t, dumper=net_model._ManifestDumper) -> str:
    """The manifest text as one yaml.dump call writes it, node graph and
    all: save_topology must write the same bytes."""
    return yaml.dump(net_model._manifest_doc(t), Dumper=dumper,
                     sort_keys=False, allow_unicode=True, width=100)


def small_generated(refs):
    return netgen.generate(netgen.GenConfig(
        total_ips=40, num_subnets=10, min_ips_per_subnet=3,
        max_ips_per_subnet=6, max_open_ports=4, max_cpes=2, seed=11), refs)


def one_subnet(*hosts, fw="fw"):
    return NetworkTopology(
        subnets=(Subnet(id=1, hosts=hosts),),
        firewalls=(Firewall(id=fw, edge=("internet", 1)),),
        internet_gateway_subnets=frozenset({1}),
        adjacency=(),
    )


def labelled(name, cpe, fw, cve_id, vector):
    """One host whose service name, CPE, CVE and firewall id are the given
    labels."""
    cve = Vulnerability(cve_id=cve_id, cvss_score=5.0, cvss_vector=vector)
    return one_subnet(Host(
        address=(1, 0), os="linux", open_ports=frozenset({80}),
        services=(ServiceBinding(port=80, service_name=name, cpe=cpe,
                                 vulnerabilities=(cve,)),),
    ), fw=fw)


# Topologies whose scalars the writer's memos and quoting must get right.
LABELLED = {
    # strings that read as floats: `.5` in YAML 1.1 too, the rest only in YAML 1.2
    "float-like-labels": lambda: labelled("3e-5", "+1E9", "1e3", ".5", "1E3"),
    # strings that YAML 1.1 reads as booleans or null, and a null value
    "yaml-1-1-words": lambda: labelled("yes", "off", "null", "~", ""),
    "unicode-labels": lambda: labelled(
        "httpd-постфикс", "cpe:/a:пример:web:1", "防火墙-1", "CVE-ñ", "AV:N/É"),
    # each zero written with its own sign, in either order
    "signed-zeros": lambda: one_subnet(
        make_host(1, 0, discovery=0.0, infection=-0.0, cves=(vuln(score=-0.0),)),
        make_host(1, 1, discovery=-0.0, infection=0.0, cves=(vuln(score=0.0),))),
}


def assert_same_document(ours, ref):
    """Equal documents, down to each value's type, NaN and the sign of
    zero; the shapes must also match (``==`` alone would equate 1 and True,
    fail on NaN and equate 0.0 and -0.0)."""
    assert type(ours) is type(ref), (ours, ref)
    if isinstance(ref, dict):
        assert list(ours) == list(ref)
        for key in ref:
            assert_same_document(ours[key], ref[key])
    elif isinstance(ref, list):
        assert len(ours) == len(ref)
        for a, b in zip(ours, ref):
            assert_same_document(a, b)
    elif isinstance(ref, float) and math.isnan(ref):
        assert math.isnan(ours)
    elif isinstance(ref, float):
        assert (ours, math.copysign(1.0, ours)) == (ref, math.copysign(1.0, ref))
    else:
        assert ours == ref


CRAFTED_DOCUMENT = """
base: &base {port: 80, name: http, cpe: ""}
shared: &shared [1, 2, 3]
again: *shared
blob: !!binary aGVsbG8gd29ybGQ=
stamp: 2001-12-14t21:59:43.10-05:00
day: 2002-12-14
stamps: [2002-12-14, 2002-12-14]
flags: [yes, On, off, NO, true, y, n]
octal: 0o17
old_octal: 017
sexagesimal: 1:30
floats: [.nan, .NaN, .inf, -.inf, 0.0, -0.0, 0.0, -0.0, 1e3, 1.0e3, 3e-5, 6.8523015e+5]
strings: ['0.0', "-0.0", '1', '.nan', 'yes', '', abc, abc]
tagged: [!!str 1, !!int "2", !!float "3", !!str 0.0, !!float -0.0]
nulls: [~, null, Null, ]
numbers: [0x1F, 0b101, 1_000, +5, -0, 1, 1]
hosts:
  - {local_id: 0, os: linux, discovery_value: 0.0}
  - {local_id: 1, os: linux, discovery_value: -0.0}
"""


class ReferenceLoader(yaml.SafeLoader):
    """yaml.SafeLoader reading YAML 1.2 floats (``1e3``, ``3e-5``) as every
    c2sim document is read."""


ReferenceLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", FLOAT_1_2, list("-+0123456789."))


class PurePythonManifestLoader(ReferenceLoader):
    """The manifest loader's event builder on PyYAML's pure-Python parser,
    which it reads when PyYAML is built without libyaml."""

    get_single_data = net_model._ManifestLoader.get_single_data


MANIFEST_LOADERS = [net_model._ManifestLoader, PurePythonManifestLoader]
LOADER_IDS = ["manifest-loader", "pure-python-parser"]

EVENT_BUILDER_DOCUMENTS = {
    "explicit-tags": (
        "!!map {a: !!seq [1, !!str 2, ! 3], !!str 4: !!map {b: !!str yes}}"),
    "shared-collections": "base: &b {x: [1, 2]}\ns: [*b, *b]\n",
    "explicit-empty-document": "--- \n...\n",
    "empty-stream": "",
    "comment-only-stream": "# only a comment\n",
    "crafted": CRAFTED_DOCUMENT,
}


class TestManifestLoader:
    """The manifest loader builds exactly what yaml.SafeLoader with YAML 1.2
    floats builds, and rejects merge keys and the value key."""

    def test_no_path_resolvers(self):
        # the memos key a tag on the scalar's text alone, which is exact only
        # while no resolver depends on the node's path
        assert not net_model._ManifestLoader.yaml_path_resolvers
        assert not net_model.SafeDumper.yaml_path_resolvers

    def test_crafted_document_loads_as_safe_loader_loads_it(self):
        ours = yaml.load(CRAFTED_DOCUMENT, Loader=net_model._ManifestLoader)
        ref = yaml.load(CRAFTED_DOCUMENT, Loader=ReferenceLoader)
        assert_same_document(ours, ref)
        for doc in (ours, ref):  # an alias is the anchored object itself
            assert doc["again"] is doc["shared"]
        assert ours["blob"] == b"hello world"
        assert ours["flags"] == [True, True, False, False, True, "y", "n"]
        assert (ours["octal"], ours["old_octal"], ours["sexagesimal"]) == (
            "0o17", 15, 90)
        assert [math.copysign(1.0, x) for x in ours["floats"][4:8]] == [
            1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("loader", MANIFEST_LOADERS, ids=LOADER_IDS)
    @pytest.mark.parametrize("name", sorted(EVENT_BUILDER_DOCUMENTS))
    def test_document_loads_as_safe_loader_loads_it(self, loader, name):
        text = EVENT_BUILDER_DOCUMENTS[name]
        assert_same_document(yaml.load(text, Loader=loader),
                             yaml.load(text, Loader=ReferenceLoader))

    @pytest.mark.parametrize("loader", MANIFEST_LOADERS, ids=LOADER_IDS)
    def test_self_references_are_the_collection_itself(self, loader):
        seq = yaml.load("&a [*a, 1]", Loader=loader)
        assert len(seq) == 2 and seq[0] is seq and seq[1] == 1
        mapping = yaml.load("&m {k: *m, j: [*m]}", Loader=loader)
        assert list(mapping) == ["k", "j"]
        assert mapping["k"] is mapping and mapping["j"][0] is mapping

    @pytest.mark.parametrize("text, problem, safe_loader_rejects", [
        ("a: &x 1\nb: &x 2\n", "duplicate anchor", True),
        ("a: *nowhere\n", "undefined alias", True),
        ("? [1]\n: 2\n", "unhashable key", True),
        ("a: &s [1]\nb: {*s : 2}\n", "unhashable key", True),
        ("a: 1\n---\nb: 2\n", "single document", True),
        ("{<<: 5}", "merge", True),
        ("{<<: [{a: 1}, 5]}", "merge", True),
        ("a: <<\n", "merge", True),
        ("x: !unknown {a: 1}", "!unknown", True),
        ("!!set {a, b}", "tag:yaml.org,2002:set", False),
        ("x: !!omap [a: 1]", "tag:yaml.org,2002:omap", False),
        ("x: !!pairs [a: 1]", "tag:yaml.org,2002:pairs", False),
        ("&m {<<: *m}", "merge", False),
        ("a: &a {x: 1, y: 2}\nb: &b {y: 3, z: 4, x: 0}\n"
         "first: {<<: [*a, *b], w: 5}\n", "merge", False),
        ("a: &a {x: 1, y: 1}\nb: &b {x: 2, z: 2}\n"
         "m: {<<: *a, q: 0, <<: *b, y: 7}\n", "merge", False),
        ("base: &b {x: [1, 2]}\nm: {<<: *b}\n", "merge", False),
        ("base: &base {port: 80, name: http, cpe: ''}\n"
         "merged:\n  <<: *base\n  name: https\n", "merge", False),
        # yaml.SafeLoader keeps a repeated key's last value
        ("records:\n  80: [a]\n  80: [b]\n", "line 3, column 3", False),
        ("a: 1\nb: 2\na: 3\n", "found duplicate key 'a'", False),
        ("{1: a, true: b, 1.0: c}", "found duplicate key True", False),
        ("x: {a: {b: 1, b: 2}}", "found duplicate key 'b'", False),
        ("k: &k x\nm: {x: 1, *k : 2}\n", "found duplicate key 'x'", False),
        # yaml.SafeLoader raises the constructor's own bare error for these
        ("a: [1, 2002-13-45]", "cannot read '2002-13-45' as !!timestamp", False),
        ('a: !!int "abc"', "cannot read 'abc' as !!int", False),
        ("a: !!bool maybe", "cannot read 'maybe' as !!bool", False),
        ("a: !!timestamp 2002-01-01x", "cannot read '2002-01-01x' as !!timestamp",
         False),
        ("a: !!float ._e3", "cannot read '._e3' as !!float", False),
    ], ids=["duplicate-anchor", "undefined-alias", "unhashable-key",
            "unhashable-alias-key", "second-document", "merge-of-scalar",
            "merge-list-with-scalar", "merge-key-as-value", "unknown-tag",
            "set", "omap", "pairs", "recursive-merge", "merge-sequence-overlap",
            "two-merge-keys", "shared-collections-merge",
            "crafted-merge", "repeated-port", "repeated-key", "equal-keys",
            "repeated-nested-key", "repeated-alias-key", "month-13", "tagged-int",
            "tagged-bool", "tagged-timestamp", "tagged-float"])
    def test_bad_document_raises(self, text, problem, safe_loader_rejects):
        for loader in MANIFEST_LOADERS:
            with pytest.raises(yaml.YAMLError, match=re.escape(problem)) as exc:
                yaml.load(text, Loader=loader)
            assert exc.value.problem_mark is not None
        with pytest.raises(ManifestParseError, match=re.escape(problem)) as exc:
            load_topology(text)
        assert "line " in str(exc.value)
        if safe_loader_rejects:
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=ReferenceLoader)

    @pytest.mark.parametrize("loader", MANIFEST_LOADERS, ids=LOADER_IDS)
    def test_value_key_raises(self, loader):
        # yaml.SafeLoader reads ``=`` as the value key; c2sim rejects it
        text = "{=: 1, b: =x, c: [{=: 2}]}"
        with pytest.raises(yaml.YAMLError, match="value") as exc:
            yaml.load(text, Loader=loader)
        assert exc.value.problem_mark is not None
        with pytest.raises(ManifestParseError, match="value") as exc:
            load_topology(text)
        assert "line " in str(exc.value)

    def test_no_node_graph(self, monkeypatch, tiny_inputs):
        """The tiny manifest (whose four firewalls share ``&fwparams``)
        loads with PyYAML's composer and constructor passes disabled."""
        def disabled(*args, **kwargs):
            raise AssertionError("a manifest load composed a node graph")

        for name in ("get_single_node", "construct_document"):
            monkeypatch.setattr(net_model._ManifestLoader, name, disabled)
        text = (resources.files("c2sim") / "data" / "scenarios"
                / "tiny_topology.yaml").read_text()
        assert "&fwparams" in text
        assert load_topology(text) == tiny_inputs[0]


class TestLoadTopology:
    def test_minimal_manifest(self):
        t = load_topology(MINIMAL_MANIFEST)
        assert len(t.hosts()) == 6
        assert len(t.subnets) == 2
        # connected: both subnets reach the internet
        assert firewall_path(t, 2) == ["fw-1-2", "fw-i-1"]

    def test_cpe_count_exceeding_open_ports_rejected(self):
        bad = """
schema_version: 1
subnets:
  - id: 1
    hosts:
      - local_id: 0
        os: linux
        open_ports: [80]
        services:
          - {port: 80, name: http, cpe: "cpe:/a:x:y:1"}
          - {port: 81, name: http-alt, cpe: "cpe:/a:x:z:1"}
adjacency: []
internet_gateways: [1]
firewalls:
  - {id: fw-i-1, edge: [internet, 1]}
"""
        with pytest.raises(TopologyError, match="cpe count exceeds open ports"):
            load_topology(bad)

    def test_bundled_enterprise_network_has_1444_hosts(self, enterprise_inputs):
        topology, scenario = enterprise_inputs
        reloaded = load_topology(save_topology(topology))
        assert reloaded == topology
        assert len(reloaded.subnets) == 101
        assert len(reloaded.hosts()) == 1444
        sizes = [len(s.hosts) for s in reloaded.subnets]
        assert min(sizes) >= 3 and max(sizes) <= 50
        for addr in scenario.sensitive_hosts:
            reloaded.host(addr)

    def test_cve_without_required_service_takes_its_binding_service(self):
        t = load_topology(MINIMAL_MANIFEST.replace(
            'cpe: "cpe:/a:x:y:1"}]}\n      - {local_id: 1',
            'cpe: "cpe:/a:x:y:1", cves: [{id: CVE-1, cvss_score: 5, '
            'cvss_vector: v}, {id: CVE-2, cvss_score: 5, cvss_vector: v, '
            'required_service: ssh}]}]}\n      - {local_id: 1', 1))
        cves = t.host((1, 0)).services[0].vulnerabilities
        assert [(v.cve_id, v.cvss_score, v.required_service) for v in cves] == [
            ("CVE-1", 5.0, "http"), ("CVE-2", 5.0, "ssh")]

    def test_malformed_yaml(self):
        with pytest.raises(ManifestParseError):
            load_topology("subnets: [unclosed")

    def test_yaml_1_2_float(self):
        # YAML 1.1 reads an exponent without a dot as a string
        t = load_topology(MINIMAL_MANIFEST.replace(
            "{id: fw-i-1, edge: [internet, 1]}",
            "{id: fw-i-1, edge: [internet, 1], params: {max_upload_volume: 5e3}}"))
        volume = t.firewall_on_edge("internet", 1).params.max_upload_volume
        assert type(volume) is float and volume == 5000.0

    @pytest.mark.parametrize("text, value", [
        ("._e3", "._e3"), ("._5e3", "._5e3"), (".5e3", 500.0), (".5_0e-1", 0.05),
    ])
    def test_fraction_only_float_needs_a_digit_after_the_dot(self, text, value):
        # as YAML 1.1's own float rule: ``._e3`` is a string, not a float
        # the float constructor cannot read
        doc = net_model.load_yaml(f"a: {text}\n", ManifestParseError)
        assert doc == {"a": value} and type(doc["a"]) is type(value)
        host = Host(address=(1, 0), os="linux", open_ports=frozenset())
        t = NetworkTopology(subnets=(Subnet(id=1, hosts=(host,)),), firewalls=(
            Firewall(id=text, edge=("internet", 1)),),
            internet_gateway_subnets=frozenset({1}), adjacency=())
        assert load_topology(save_topology(t)) == t

    def test_wrong_schema_version(self):
        with pytest.raises(ManifestParseError, match="schema_version"):
            load_topology(MINIMAL_MANIFEST.replace(
                "schema_version: 1", "schema_version: 99"))


class TestValidation:
    def _base_parts(self):
        subnets = (
            Subnet(id=1, hosts=(make_host(1, 0),),
                   allow_rules=(AllowRule(peer=2, port=None),)),
            Subnet(id=2, hosts=(make_host(2, 0),)),
        )
        firewalls = (
            Firewall(id="f1", edge=("internet", 1)),
            Firewall(id="f2", edge=(1, 2)),
        )
        return subnets, firewalls

    def test_duplicate_host_addresses(self):
        subnets, firewalls = self._base_parts()
        dup = Subnet(id=1, hosts=(make_host(1, 0), make_host(1, 0)))
        with pytest.raises(TopologyError, match="duplicate host address"):
            NetworkTopology(subnets=(dup, subnets[1]), firewalls=firewalls,
                            internet_gateway_subnets=frozenset({1}),
                            adjacency=((1, 2),))

    def test_disconnected_subnet(self):
        subnets, _ = self._base_parts()
        firewalls = (Firewall(id="f1", edge=("internet", 1)),)
        with pytest.raises(UnreachableSubnetError):
            NetworkTopology(subnets=subnets, firewalls=firewalls,
                            internet_gateway_subnets=frozenset({1}),
                            adjacency=())

    def test_firewall_on_missing_edge(self):
        subnets, firewalls = self._base_parts()
        bad = firewalls + (Firewall(id="f3", edge=(1, 7)),)
        with pytest.raises(TopologyError, match="not a subnet"):
            NetworkTopology(subnets=subnets, firewalls=bad,
                            internet_gateway_subnets=frozenset({1}),
                            adjacency=((1, 2),))

    def test_edge_without_firewall(self):
        subnets, firewalls = self._base_parts()
        with pytest.raises(TopologyError, match="has no firewall"):
            NetworkTopology(subnets=subnets, firewalls=firewalls[:1],
                            internet_gateway_subnets=frozenset({1}),
                            adjacency=((1, 2),))

    def test_two_firewalls_on_one_edge(self):
        subnets, firewalls = self._base_parts()
        bad = firewalls + (Firewall(id="f2b", edge=(2, 1)),)
        with pytest.raises(TopologyError, match="two firewalls"):
            NetworkTopology(subnets=subnets, firewalls=bad,
                            internet_gateway_subnets=frozenset({1}),
                            adjacency=((1, 2),))

    def test_sensitive_host_needs_vulnerability(self):
        host = make_host(1, 0, sensitive=True)  # no cves attached
        with pytest.raises(TopologyError, match="no exploitable vulnerability"):
            NetworkTopology(
                subnets=(Subnet(id=1, hosts=(host,)),),
                firewalls=(Firewall(id="f1", edge=("internet", 1)),),
                internet_gateway_subnets=frozenset({1}),
                adjacency=(),
            )
        # tiny's windows host (2, 0), marked sensitive, whose one CVE
        # requires linux: a vulnerability that cannot apply counts as none
        doc = yaml.safe_load((resources.files("c2sim") / "data" / "scenarios"
                              / "tiny_topology.yaml").read_text())
        host = doc["subnets"][1]["hosts"][0]
        assert (host["local_id"], host["os"]) == (0, "windows")
        host["services"][0]["cves"][0]["required_os"] = "linux"
        doc["sensitive_hosts"].append([2, 0])
        with pytest.raises(TopologyError, match=r"sensitive host \(2, 0\) has no "
                                                "exploitable vulnerability"):
            load_topology(yaml.safe_dump(doc))

    def test_allow_rule_to_unknown_subnet(self):
        s = Subnet(id=1, hosts=(make_host(1, 0),),
                   allow_rules=(AllowRule(peer=9, port=80),))
        with pytest.raises(TopologyError, match="subnets 1 and 9, which are not adjacent"):
            NetworkTopology(
                subnets=(s,),
                firewalls=(Firewall(id="f1", edge=("internet", 1)),),
                internet_gateway_subnets=frozenset({1}),
                adjacency=(),
            )

    def test_allow_rule_between_non_adjacent_subnets(self):
        # 1-2-3 is a chain: subnets 1 and 3 share no firewall
        subnets = (
            Subnet(id=1, hosts=(make_host(1, 0),),
                   allow_rules=(AllowRule(peer=3, port=443),)),
            Subnet(id=2, hosts=(make_host(2, 0),)),
            Subnet(id=3, hosts=(make_host(3, 0),)),
        )
        firewalls = (Firewall(id="f1", edge=("internet", 1)),
                     Firewall(id="f2", edge=(1, 2)),
                     Firewall(id="f3", edge=(2, 3)))
        with pytest.raises(TopologyError, match="subnets 1 and 3, which are not adjacent"):
            NetworkTopology(subnets=subnets, firewalls=firewalls,
                            internet_gateway_subnets=frozenset({1}),
                            adjacency=((1, 2), (2, 3)))

    def test_firewall_params_bounds(self):
        with pytest.raises(TopologyError):
            FirewallParams(connect_probability=0.0)
        with pytest.raises(TopologyError):
            FirewallParams(max_upload_volume=-1)
        defaults = FirewallParams()
        assert defaults.connect_probability == 0.8
        assert defaults.max_connect_attempts == 3
        assert defaults.max_upload_volume == 5000
        assert defaults.max_upload_time == 4
        assert defaults.update_frequency == 24


class TestRoundTrip:
    def test_minimal_round_trip(self):
        t = load_topology(MINIMAL_MANIFEST)
        assert load_topology(save_topology(t)) == t

    def test_generated_round_trip(self, refs):
        t = small_generated(refs)
        assert load_topology(save_topology(t)) == t

    @pytest.mark.parametrize("network", ["tiny", "generated"])
    def test_libyaml_and_pure_python_yaml_agree(self, network, refs, tiny_inputs):
        """save_topology and load_topology (libyaml when PyYAML has it) give
        exactly what pure-Python yaml.dump and yaml.load give."""
        t = tiny_inputs[0] if network == "tiny" else small_generated(refs)
        text = save_topology(t)
        assert text == reference_dump(t, PurePythonManifestDumper)
        assert_same_document(yaml.load(text, Loader=net_model._ManifestLoader),
                             yaml.load(text, Loader=yaml.SafeLoader))
        assert load_topology(text) == t

    def test_signed_zeros_saved_as_reference_dumper_saves_them(self):
        t = LABELLED["signed-zeros"]()
        text = save_topology(t)
        assert text == reference_dump(t)
        assert "discovery_value: 0.0" in text and "infection_value: -0.0" in text
        back = load_topology(text)
        for address, signs in (((1, 0), (1.0, -1.0)), ((1, 1), (-1.0, 1.0))):
            host = back.host(address)
            assert (math.copysign(1.0, host.discovery_value),
                    math.copysign(1.0, host.infection_value)) == signs

    def test_float_like_labels_round_trip(self):
        """Strings that read as YAML 1.2 floats are saved quoted."""
        t = LABELLED["float-like-labels"]()
        text = save_topology(t)
        for label in ("'3e-5'", "'+1E9'", "'1e3'", "'.5'", "'1E3'"):
            assert label in text
        assert load_topology(text) == t

    def test_unicode_labels_round_trip(self):
        t = LABELLED["unicode-labels"]()
        back = load_topology(save_topology(t))
        assert back == t
        assert back.host((1, 0)).services[0].service_name == "httpd-постфикс"

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), subnets=st.integers(1, 6))
    def test_generated_round_trip_property(self, refs, seed, subnets):
        cfg = netgen.GenConfig(
            total_ips=subnets * 3, num_subnets=subnets,
            min_ips_per_subnet=2, max_ips_per_subnet=5,
            max_open_ports=3, max_cpes=2, seed=seed,
        )
        t = netgen.generate(cfg, refs)
        text = save_topology(t)
        assert text == reference_dump(t)
        assert load_topology(text) == t


class TestManifestWriter:
    """save_topology writes the bytes of one yaml.dump call with
    _ManifestDumper, from an event stream instead of a node graph."""

    @staticmethod
    def network(name, refs, tiny_inputs):
        if name == "tiny":
            return tiny_inputs[0]
        if name == "generated":
            return small_generated(refs)
        if name == "enterprise101":
            return scenarios.enterprise101()[0]
        return LABELLED[name]()

    @pytest.mark.parametrize("name", ["tiny", "generated", "enterprise101", *LABELLED])
    def test_same_bytes_as_yaml_dump(self, name, refs, tiny_inputs):
        t = self.network(name, refs, tiny_inputs)
        assert save_topology(t) == reference_dump(t)

    @pytest.mark.parametrize("name", ["tiny", "generated", *LABELLED])
    def test_pure_python_emitter_writes_the_same_bytes(self, name, refs, tiny_inputs):
        t = self.network(name, refs, tiny_inputs)
        text = yaml.emit(net_model._manifest_events(net_model._manifest_doc(t)),
                         Dumper=PurePythonManifestDumper, allow_unicode=True,
                         width=100)
        assert text == reference_dump(t, PurePythonManifestDumper)

    def test_no_node_graph(self, monkeypatch, tiny_inputs):
        def disabled(*args, **kwargs):
            raise AssertionError("a manifest save built a node graph")

        for name in ("represent", "represent_data", "serialize"):
            monkeypatch.setattr(net_model._ManifestDumper, name, disabled)
        assert load_topology(save_topology(tiny_inputs[0])) == tiny_inputs[0]


def _fig2_like_topology():
    """Subnet 1 sits behind firewall 1 and firewall 4 on its way out."""
    subnets = (
        Subnet(id=1, hosts=(make_host(1, 0),)),
        Subnet(id=2, hosts=(make_host(2, 0),)),
        Subnet(id=3, hosts=(make_host(3, 0),)),
    )
    firewalls = (
        Firewall(id="firewall-1", edge=(1, 3)),
        Firewall(id="firewall-2", edge=(2, 3)),
        Firewall(id="firewall-4", edge=(3, "internet")),
    )
    return NetworkTopology(
        subnets=subnets, firewalls=firewalls,
        internet_gateway_subnets=frozenset({3}),
        adjacency=((1, 3), (2, 3)),
    )


class TestFirewallPath:
    def test_layered_path_crosses_both_firewalls(self):
        t = _fig2_like_topology()
        assert firewall_path(t, 1) == ["firewall-1", "firewall-4"]

    def test_internet_adjacent_subnet_single_perimeter(self):
        t = _fig2_like_topology()
        assert firewall_path(t, 3) == ["firewall-4"]

    def test_diamond_tie_broken_by_lower_subnet_id(self):
        # 1 connects to both 2 and 3; both reach gateway 4
        subnets = tuple(Subnet(id=i, hosts=(make_host(i, 0),))
                        for i in (1, 2, 3, 4))
        firewalls = (
            Firewall(id="a", edge=(1, 2)),
            Firewall(id="b", edge=(1, 3)),
            Firewall(id="c", edge=(2, 4)),
            Firewall(id="d", edge=(3, 4)),
            Firewall(id="e", edge=(4, "internet")),
        )
        t = NetworkTopology(
            subnets=subnets, firewalls=firewalls,
            internet_gateway_subnets=frozenset({4}),
            adjacency=((1, 2), (1, 3), (2, 4), (3, 4)),
        )
        assert firewall_path(t, 1) == ["a", "c", "e"]

    def test_unreachable_error(self):
        with pytest.raises(KeyError):
            firewall_path(_fig2_like_topology(), 9)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_bfs_oracle_on_random_trees(self, data):
        n = data.draw(st.integers(2, 20))
        parents = [data.draw(st.integers(1, i - 1)) for i in range(2, n + 1)]
        adjacency = tuple((p, i + 2) for i, p in enumerate(parents))
        subnets = tuple(Subnet(id=i, hosts=(make_host(i, 0),))
                        for i in range(1, n + 1))
        firewalls = [Firewall(id="fw-i", edge=("internet", 1))]
        firewalls += [Firewall(id=f"fw-{a}-{b}", edge=(a, b))
                      for a, b in adjacency]
        t = NetworkTopology(
            subnets=subnets, firewalls=tuple(firewalls),
            internet_gateway_subnets=frozenset({1}),
            adjacency=adjacency,
        )

        # independent breadth-first oracle over the same graph
        graph = collections.defaultdict(set)
        for a, b in adjacency:
            graph[a].add(b)
            graph[b].add(a)
        graph[1].add("internet")
        graph["internet"].add(1)
        dist = {"internet": 0}
        frontier = ["internet"]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in graph[node]:
                    if nb not in dist:
                        dist[nb] = dist[node] + 1
                        nxt.append(nb)
            frontier = nxt

        start = data.draw(st.integers(1, n))
        path = firewall_path(t, start)
        assert len(path) == dist[start]
