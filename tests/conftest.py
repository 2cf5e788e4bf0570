from __future__ import annotations

import pytest

from c2sim import netgen, scenarios
from c2sim.net_model import (
    AllowRule,
    Firewall,
    FirewallParams,
    Host,
    NetworkTopology,
    ServiceBinding,
    Subnet,
    Vulnerability,
)


def make_host(subnet_id, local_id, os="linux", ports=(80,), service="http",
              tier="low", cves=(), sensitive=False, discovery=1000.0,
              infection=1000.0):
    services = tuple(
        ServiceBinding(
            port=p, service_name=service, cpe=f"cpe:/a:test:{service}:1",
            defense_tier=tier,
            vulnerabilities=tuple(cves) if p == min(ports) else (),
        )
        for p in ports
    )
    return Host(
        address=(subnet_id, local_id), os=os,
        open_ports=frozenset(ports), services=services,
        discovery_value=discovery, infection_value=infection,
        is_sensitive=sensitive,
    )


def vuln(cve="CVE-2000-0001", service="http", os=None, score=7.5):
    return Vulnerability(
        cve_id=cve, cvss_score=score,
        cvss_vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        required_service=service, required_os=os,
    )


def chain_topology(n_subnets, hosts_per_subnet=2, sensitive_last=True,
                   fw_params=None, allow_all=True):
    """Subnets 1-2-...-n in a chain, internet behind subnet 1."""
    params = fw_params or FirewallParams()
    subnets = []
    for sid in range(1, n_subnets + 1):
        hosts = []
        for lid in range(hosts_per_subnet):
            is_target = (sensitive_last and sid == n_subnets and lid == 0)
            hosts.append(make_host(
                sid, lid, os="linux", ports=(80,), service="http",
                cves=(vuln(),), sensitive=is_target,
            ))
        rules = []
        if allow_all:  # all ports open to each chain neighbour
            for peer in (sid - 1, sid + 1):
                if 1 <= peer <= n_subnets:
                    rules.append(AllowRule(peer=peer, port=None))
        subnets.append(Subnet(id=sid, hosts=tuple(hosts),
                              allow_rules=tuple(rules)))
    adjacency = tuple((i, i + 1) for i in range(1, n_subnets))
    firewalls = [Firewall(id="fw-internet-1", edge=("internet", 1), params=params)]
    for a, b in adjacency:
        firewalls.append(Firewall(id=f"fw-{a}-{b}", edge=(a, b), params=params))
    return NetworkTopology(
        subnets=tuple(subnets),
        firewalls=tuple(firewalls),
        internet_gateway_subnets=frozenset({1}),
        adjacency=adjacency,
    )


@pytest.fixture(scope="session")
def refs():
    return netgen.load_default_references()


@pytest.fixture(scope="session")
def tiny_inputs():
    return scenarios.tiny()


@pytest.fixture(scope="session")
def enterprise_inputs():
    """The full-scale network and scenario, generated once per session."""
    return scenarios.enterprise101()
