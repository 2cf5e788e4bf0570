from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from c2sim import netgen
from c2sim.net_model import Subnet, save_topology
from c2sim.netgen import (
    BUCKET_RANGES,
    CpeOption,
    CpeReferenceTable,
    GenConfig,
    GenerationError,
    PortEntry,
    PortProbabilityTable,
    ReferenceDataError,
    assign_allow_rules,
    assign_cpes,
    assign_cves,
    assign_ports,
    bucket_for,
    generate,
)

from conftest import make_host


def table(*entries) -> PortProbabilityTable:
    return PortProbabilityTable(ports=tuple(
        PortEntry(port=p, open_frequency=f) for p, f in entries))


def read_references(monkeypatch, file: str, text: str) -> netgen.References:
    """The bundled references, with the table ``file`` read from ``text``."""
    data_text = netgen._data_text
    monkeypatch.setattr(netgen, "_data_text", lambda name: (
        text if name == file else data_text(name)))
    return netgen.load_default_references()


class TestGenConfig:
    def test_min_above_max_rejected(self):
        with pytest.raises(GenerationError, match="min_ips_per_subnet"):
            GenConfig(total_ips=10, num_subnets=2, min_ips_per_subnet=5,
                      max_ips_per_subnet=3, max_open_ports=2, max_cpes=1)

    def test_max_cpes_capped_by_open_ports(self):
        with pytest.raises(GenerationError, match="max_cpes"):
            GenConfig(total_ips=10, num_subnets=2, min_ips_per_subnet=2,
                      max_ips_per_subnet=8, max_open_ports=2, max_cpes=3)

    def test_infeasible_total(self, refs):
        cfg = GenConfig(total_ips=3, num_subnets=2, min_ips_per_subnet=3,
                        max_ips_per_subnet=5, max_open_ports=2, max_cpes=1)
        with pytest.raises(GenerationError, match="infeasible"):
            generate(cfg, refs)


class TestGenerate:
    def test_bounds(self, refs):
        cfg = GenConfig(total_ips=6, num_subnets=2, min_ips_per_subnet=3,
                        max_ips_per_subnet=3, max_open_ports=2, max_cpes=2,
                        seed=7)
        t = generate(cfg, refs)
        assert len(t.subnets) == 2
        for s in t.subnets:
            assert len(s.hosts) == 3
            for h in s.hosts:
                assert 1 <= len(h.open_ports) <= 2
                assert sum(1 for b in h.services if b.cpe) <= len(h.open_ports)

    def test_determinism(self, refs):
        cfg = GenConfig(total_ips=12, num_subnets=3, min_ips_per_subnet=3,
                        max_ips_per_subnet=6, max_open_ports=3, max_cpes=2,
                        seed=7)
        assert save_topology(generate(cfg, refs)) == save_topology(generate(cfg, refs))

    def test_full_scale_subnet_sizes(self, refs):
        cfg = GenConfig(total_ips=1400, num_subnets=101, min_ips_per_subnet=3,
                        max_ips_per_subnet=50, max_open_ports=4, max_cpes=2,
                        seed=5)
        t = generate(cfg, refs)
        sizes = [len(s.hosts) for s in t.subnets]
        assert sum(sizes) == 1400
        assert min(sizes) >= 3 and max(sizes) <= 50

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.data())
    def test_random_configs_validate(self, refs, data):
        n = data.draw(st.integers(1, 7))
        lo = data.draw(st.integers(1, 4))
        hi = data.draw(st.integers(lo, lo + 5))
        total = data.draw(st.integers(n * lo, n * hi))
        ports = data.draw(st.integers(1, 6))
        cpes = data.draw(st.integers(1, ports))
        shape = data.draw(st.sampled_from(["star", "chain", "random_tree"]))
        cfg = GenConfig(total_ips=total, num_subnets=n, min_ips_per_subnet=lo,
                        max_ips_per_subnet=hi, max_open_ports=ports,
                        max_cpes=cpes, seed=data.draw(st.integers(0, 2**31)),
                        graph_shape=shape)
        generate(cfg, refs)  # constructor validates all invariants


class TestAssignPorts:
    def test_single_port_table(self):
        rng = np.random.default_rng(0)
        assert assign_ports(rng, 1, table((80, 0.5))) == {80}

    def test_bucket_of_port_443_at_0_2_is_high(self):
        assert bucket_for(0.2) == "high"
        assert PortEntry(port=443, open_frequency=0.2).bucket == "high"

    def test_bucket_boundaries(self):
        assert bucket_for(0.1) == "high"
        assert bucket_for(0.05) == "moderate"
        assert bucket_for(0.005) == "low"
        assert bucket_for(0.0049) == "rare"

    def test_two_port_bucket_frequencies(self):
        # scores 0.5 (high) and 0.001 (rare): draw weights are the bucket
        # widths renormalized over non-empty buckets
        tab = table((80, 0.5), (9929, 0.001))
        w_high = BUCKET_RANGES["high"][1] - BUCKET_RANGES["high"][0]
        w_rare = BUCKET_RANGES["rare"][1] - BUCKET_RANGES["rare"][0]
        p80 = w_high / (w_high + w_rare)
        rng = np.random.default_rng(42)
        n = 10_000
        counts = {80: 0, 9929: 0}
        for _ in range(n):
            counts[next(iter(assign_ports(rng, 1, tab)))] += 1
        expected = np.array([p80 * n, (1 - p80) * n])
        chi2 = stats.chisquare([counts[80], counts[9929]], expected)
        assert chi2.pvalue > 0.01

    def test_count_capped_by_table_size(self):
        rng = np.random.default_rng(3)
        got = assign_ports(rng, 10, table((80, 0.5), (443, 0.2)))
        assert 1 <= len(got) <= 2


class TestAssignCpes:
    def _refs(self):
        return CpeReferenceTable(records={
            80: (CpeOption("http", "cpe:/a:a:a:1", 0.9),
                 CpeOption("http", "cpe:/a:b:b:1", 0.1)),
        })

    def test_single_port_caps_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bindings = assign_cpes(rng, {80}, self._refs(), max_cpes=5)
            assert len(bindings) <= 1

    def test_port_without_reference_entry_skipped(self):
        rng = np.random.default_rng(0)
        bindings = assign_cpes(rng, {4444}, self._refs(), max_cpes=3)
        assert bindings == []

    def test_cpe_frequencies_match_reference(self):
        rng = np.random.default_rng(11)
        counts = {"cpe:/a:a:a:1": 0, "cpe:/a:b:b:1": 0}
        n = 10_000
        for _ in range(n):
            for b in assign_cpes(rng, {80}, self._refs(), max_cpes=1):
                counts[b.cpe] += 1
        chi2 = stats.chisquare(
            [counts["cpe:/a:a:a:1"], counts["cpe:/a:b:b:1"]],
            [0.9 * n, 0.1 * n])
        assert chi2.pvalue > 0.01

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ReferenceDataError, match="sum"):
            CpeReferenceTable(records={
                80: (CpeOption("http", "x", 0.5), CpeOption("http", "y", 0.4)),
            })


class TestAllowRules:
    def _subnet(self, sid, services):
        hosts = tuple(
            make_host(sid, i, ports=(port,), service=name)
            for i, (name, port) in enumerate(services)
        )
        return Subnet(id=sid, hosts=hosts)

    def test_mirrored_services_allow_all(self):
        a = self._subnet(1, [("http", 80)])
        b = self._subnet(2, [("http", 80)])
        rules = assign_allow_rules([a, b], [(1, 2)])
        assert rules[1] == [netgen.AllowRule(peer=2, port=None)]
        assert rules[2] == [netgen.AllowRule(peer=1, port=None)]

    def test_partial_overlap_allows_matching_ports_only(self):
        a = self._subnet(1, [("http", 80), ("ssh", 22)])
        b = self._subnet(2, [("ssh", 22), ("https", 443)])
        rules = assign_allow_rules([a, b], [(1, 2)])
        assert rules[1] == [netgen.AllowRule(peer=2, port=22)]
        assert rules[2] == [netgen.AllowRule(peer=1, port=22)]

    def test_disjoint_services_no_rules(self):
        a = self._subnet(1, [("http", 80)])
        b = self._subnet(2, [("dns", 53)])
        rules = assign_allow_rules([a, b], [(1, 2)])
        assert rules[1] == [] and rules[2] == []

    def test_non_adjacent_subnets_get_no_rule(self):
        # 1 and 3 run identical services but share no firewall
        a, b, c = (self._subnet(sid, [("http", 80)]) for sid in (1, 2, 3))
        rules = assign_allow_rules([a, b, c], [(1, 2), (2, 3)])
        assert rules[1] == [netgen.AllowRule(peer=2, port=None)]
        assert rules[2] == [netgen.AllowRule(peer=1, port=None),
                            netgen.AllowRule(peer=3, port=None)]
        assert rules[3] == [netgen.AllowRule(peer=2, port=None)]


class TestAssignCves:
    def test_lookup_attaches_all_records(self, refs):
        bindings = [netgen.ServiceBinding(
            port=445, service_name="smb",
            cpe="cpe:/a:microsoft:server_message_block:3.1")]
        out = assign_cves(bindings, refs.cves)
        assert len(out[0].vulnerabilities) == 2

    def test_absent_cpe_empty_list(self, refs):
        bindings = [netgen.ServiceBinding(
            port=80, service_name="http", cpe="cpe:/a:nobody:nothing:0")]
        out = assign_cves(bindings, refs.cves)
        assert out[0].vulnerabilities == ()

    def test_known_windows_cve_present_with_score_and_vector(self, refs):
        bindings = [netgen.ServiceBinding(
            port=443, service_name="https",
            cpe="cpe:/a:microsoft:internet_information_services:10.0")]
        out = assign_cves(bindings, refs.cves)
        cves = {v.cve_id: v for v in out[0].vulnerabilities}
        assert "CVE-2020-1259" in cves
        v = cves["CVE-2020-1259"]
        assert 0.0 <= v.cvss_score <= 10.0
        assert v.cvss_vector.startswith("CVSS:")
        assert v.required_os == "windows"
        assert v.required_service == "https"

    def test_malformed_snapshot_rejected(self, monkeypatch):
        with pytest.raises(ReferenceDataError, match="missing"):
            read_references(monkeypatch, "cve_snapshot.yaml",
                            "cpes:\n  'cpe:/a:x:y:1':\n    - id: CVE-1\n")

    def test_snapshot_score_out_of_range_names_the_record(self, monkeypatch):
        with pytest.raises(ReferenceDataError) as exc:
            read_references(
                monkeypatch, "cve_snapshot.yaml",
                "cpes:\n  'cpe:/a:x:y:1':\n    - {id: CVE-1, cvss_score: 11, "
                "cvss_vector: v}\n")
        assert str(exc.value) == (
            "CVE snapshot: cpes.cpe:/a:x:y:1[0] CVE-1: cvss_score must be in "
            "[0, 10], got 11.0")

    def test_snapshot_reads_yaml_1_2_floats(self, monkeypatch):
        refs = read_references(
            monkeypatch, "cve_snapshot.yaml",
            "cpes:\n  'cpe:/a:x:y:1':\n    - {id: CVE-1, cvss_score: 75e-1, "
            "cvss_vector: v}\n")
        assert refs.cves.lookup("cpe:/a:x:y:1")[0].cvss_score == 7.5


class TestDefenseTiers:
    def test_bundled_tiers(self, refs):
        assert refs.tiers["ssh"] == "high" and refs.tiers["http"] == "medium"
        assert set(refs.tiers.values()) == {"high", "medium", "low"}

    @pytest.mark.parametrize("text, words", [
        ("tiers:\n  ssh: extreme\n", ["defense tiers: tiers.ssh", "'extreme'"]),
        ("tiers:\n  ssh: [high]\n", ["tiers.ssh", "'high' or 'medium' or 'low'"]),
        ("tiers: [ssh]\n", ["tiers", "mapping"]),
        ("tier:\n  ssh: high\n", ["unknown", "tier"]),
    ], ids=["unknown-tier", "list-tier", "list-document", "misspelt-key"])
    def test_bad_tier_file_fails_at_load(self, monkeypatch, text, words):
        with pytest.raises(ReferenceDataError) as exc:
            read_references(monkeypatch, "defense_tiers.yaml", text)
        for word in words:
            assert word in str(exc.value)


class TestPortAndCpeTables:
    def test_bundled_buckets_follow_open_frequency(self, refs):
        assert len(refs.ports.ports) == 50
        for e in refs.ports.ports:
            assert e.bucket == bucket_for(e.open_frequency)
        assert all(refs.ports.by_bucket.values())

    @pytest.mark.parametrize("file, text, words", [
        ("port_probabilities.yaml",
         "ports:\n  - {port: 80, open_frequency: 0.5}\n"
         "  - {port: 22, open_frequency: high}\n",
         ["port probabilities: ports[1].open_frequency", "'high'"]),
        ("port_probabilities.yaml",
         "ports:\n  - {port: 80, open_frequency: 0.5}\n"
         "  - {port: '22', open_frequency: 0.2}\n",
         ["port probabilities: ports[1].port", "integer", "'22'"]),
        ("port_probabilities.yaml",
         "ports:\n  - {port: 80, open_frequency: 0.5, bucket: high}\n",
         ["port probabilities: ports[0]", "unknown", "bucket"]),
        ("port_probabilities.yaml",
         "ports:\n  - {port: 80, open_frequency: 0.5}\n"
         "  - {port: 22, open_frequency: 0.2}\n"
         "  - {port: 80, open_frequency: 0.1}\n",
         ["port probabilities: ports[2] duplicate port 80"]),
        ("port_probabilities.yaml", "ports: []\n", ["empty"]),
        ("port_probabilities.yaml",
         "ports:\n  - {port: 80, open_frequency: 1.5}\n",
         ["port probabilities: ports[0]", "open_frequency", "[0, 1]", "1.5"]),
        ("cpe_reference.yaml",
         "records:\n  80:\n    - {service_name: http, cpe: 'cpe:/a:x:y:1', "
         "probability: 1.0, is_security_product: 0}\n",
         ["CPE reference: records[80][0].is_security_product", "true or false"]),
        ("cpe_reference.yaml",
         "records:\n  80:\n    - {service_name: http, cpe: 'cpe:/a:x:y:1', "
         "probability: 0.5}\n    - {service_name: http, cpe: 'cpe:/a:x:z:1', "
         "probability: 0.25}\n",
         ["CPE reference: records[80] CPE probabilities sum to 0.75, not 1"]),
        ("cpe_reference.yaml",
         "records:\n  80:\n    - {service: http, cpe: 'cpe:/a:x:y:1', "
         "probability: 1.0}\n",
         ["CPE reference: records[80][0]", "unknown", "service"]),
        ("cpe_reference.yaml",
         "records:\n  80:\n    - {service_name: http, cpe: 'cpe:/a:x:y:1', "
         "probability: 1.0}\n  80:\n    - {service_name: www, "
         "cpe: 'cpe:/a:x:z:1', probability: 1.0}\n",
         ["malformed YAML at line 4, column 3", "duplicate key 80"]),
    ], ids=["string-frequency", "string-port", "stored-bucket", "duplicate-port",
            "empty-table", "frequency-above-one", "integer-flag", "cpe-sum",
            "misspelt-key", "repeated-port-key"])
    def test_bad_table_fails_at_load(self, monkeypatch, file, text, words):
        with pytest.raises(ReferenceDataError) as exc:
            read_references(monkeypatch, file, text)
        for word in words:
            assert word in str(exc.value)

    def test_quoted_port_key_named_without_the_table(self, monkeypatch):
        text = netgen._data_text("cpe_reference.yaml")
        assert "\n  80:\n" in text
        with pytest.raises(ReferenceDataError) as exc:
            read_references(monkeypatch, "cpe_reference.yaml",
                            text.replace("\n  80:\n", "\n  '80':\n"))
        message = str(exc.value)
        assert message == "CPE reference: records key '80' (str) must be an integer"
        assert "service_name" not in message


def test_security_product_hosts_get_high_tiers(refs):
    cfg = GenConfig(total_ips=30, num_subnets=3, min_ips_per_subnet=8,
                    max_ips_per_subnet=12, max_open_ports=4, max_cpes=4,
                    seed=0)
    t = generate(cfg, refs)
    flagged = [h for h in t.hosts() if h.is_security_product]
    assert flagged, "seed should produce at least one security-product host"
    for h in flagged:
        assert all(b.defense_tier == "high" for b in h.services)
