"""Access to the scenarios shipped with the package.

``tiny`` loads directly from bundled YAML. The full-scale network is stored
as a generator config and generated deterministically on each call, which
keeps the package small while the manifest stays reproducible byte for byte.
"""

from __future__ import annotations

from importlib import resources

from .c2_env import ScenarioConfig
from .net_model import NetworkTopology, load_topology
from .netgen import GenConfig, generate, load_default_references


def _scenario_text(name: str) -> str:
    return (resources.files("c2sim") / "data" / "scenarios" / name).read_text(
        encoding="utf-8"
    )


def tiny() -> tuple[NetworkTopology, ScenarioConfig]:
    """The bundled desk-scale training scenario."""
    topology = load_topology(_scenario_text("tiny_topology.yaml"))
    scenario = ScenarioConfig.from_yaml(_scenario_text("tiny.yaml"))
    return topology, scenario


def enterprise_gen_config() -> GenConfig:
    return GenConfig.from_yaml(_scenario_text("enterprise101_gen.yaml"))


def enterprise101() -> tuple[NetworkTopology, ScenarioConfig]:
    """Full-scale reference network with a paper-style two-target scenario.

    Target selection is deterministic: the first windows host past subnet 20
    and the first linux host past subnet 40 that carry an exploitable
    vulnerability.
    """
    topology = generate(enterprise_gen_config(), load_default_references())

    windows_target = next(
        h.address for h in topology.hosts()
        if h.subnet_id >= 20 and h.os == "windows" and h.exploitable()
    )
    linux_target = next(
        h.address for h in topology.hosts()
        if h.subnet_id >= 40 and h.os == "linux" and h.exploitable()
    )
    scenario = ScenarioConfig(
        initial_foothold=(1, 0),
        sensitive_hosts=(windows_target, linux_target),
        payload_size_mb=10000.0,
        max_steps=10000,
    )
    return topology, scenario
