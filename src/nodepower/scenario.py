"""Fleet-scale extrapolation: energy, carbon, rated-power gap, demand swing.

Everything here is deliberately plain arithmetic. The value of the module
is not the math but the bookkeeping: facility overheads applied in a stated
order, carbon figures computed per named accounting basis side by side, and
an explicit gap between what a calibrated model predicts and what a
rated-power estimate would have claimed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from .files import ConfigError, read_ini
from .reference import NODE_TDP_KW

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "cluster_energy",
    "carbon_emissions",
    "tdp_gap",
    "aggregate_swing",
    "run_scenario",
    "load_scenario_spec",
    "format_scenario_report",
    "scenario_result_document",
]

LOSS_CONVENTIONS = ("divide", "multiply")


@dataclass(frozen=True)
class ScenarioSpec:
    """A hypothetical cluster and the accounting assumptions applied to it.

    ``per_node_power_kw`` is typically a model prediction at the fleet's
    expected intensity, but any override works. ``conversion_loss_fraction``
    covers facility power conversion and switching; with the default
    ``divide`` convention, losses are a fraction of delivered power
    (facility = IT x PUE / (1 - loss)), while ``multiply`` treats them as a
    surcharge (facility = IT x PUE x (1 + loss)). ``swing_window_ms`` is
    metadata describing how fast the demand swing happens; nothing here
    models sub-second dynamics.
    """

    nodes: int
    gpus_per_node: int
    duration_days: float
    per_node_power_kw: float
    pue: float = 1.0
    conversion_loss_fraction: float = 0.0
    carbon_intensity_kg_per_mwh: Mapping[str, float] = field(
        default_factory=dict
    )
    per_node_swing_kw: float = 0.0
    swing_window_ms: float = 20.0
    loss_convention: str = "divide"

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise ValueError("nodes must be a positive integer")
        if not isinstance(self.gpus_per_node, int) or self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be a positive integer")
        if not self.duration_days > 0:
            raise ValueError("duration_days must be positive")
        if not self.per_node_power_kw > 0:
            raise ValueError("per_node_power_kw must be positive")
        if self.pue < 1.0:
            raise ValueError("pue must be >= 1.0")
        if not 0.0 <= self.conversion_loss_fraction < 1.0:
            raise ValueError("conversion_loss_fraction must be in [0, 1)")
        if self.per_node_swing_kw < 0:
            raise ValueError("per_node_swing_kw must be non-negative")
        if self.swing_window_ms <= 0:
            raise ValueError("swing_window_ms must be positive")
        for name in (
            "duration_days", "per_node_power_kw", "pue",
            "per_node_swing_kw", "swing_window_ms",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.loss_convention not in LOSS_CONVENTIONS:
            raise ValueError(
                f"loss_convention must be one of {LOSS_CONVENTIONS}, "
                f"got {self.loss_convention!r}"
            )
        for name, value in self.carbon_intensity_kg_per_mwh.items():
            if not value > 0:
                raise ValueError(
                    f"carbon intensity {name!r} must be positive"
                )
            if not math.isfinite(value):
                raise ValueError(f"carbon intensity {name!r} must be finite")

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.gpus_per_node


@dataclass(frozen=True)
class ScenarioResult:
    """All fleet-scale outputs for one scenario, plus the swing estimate.

    ``emissions_tonnes`` and ``emissions_gap_tonnes`` are keyed by the
    intensity names in the spec, so different accounting bases (grid
    average, non-baseload, ...) sit next to each other in one report.
    """

    it_energy_gwh: float
    facility_energy_gwh: float
    emissions_tonnes: dict[str, float]
    tdp_facility_energy_gwh: float
    energy_gap_gwh: float
    emissions_gap_tonnes: dict[str, float]
    aggregate_swing_mw: float
    node_tdp_kw: float


# ---------------------------------------------------------------------------
# core arithmetic
# ---------------------------------------------------------------------------

def cluster_energy(spec: ScenarioSpec) -> tuple[float, float]:
    """IT and facility energy in GWh for the cluster described by ``spec``.

    IT energy is nodes x per-node kW x hours / 1e6; facility energy layers
    PUE and conversion losses on top under the spec's loss convention.
    """
    it_gwh = (
        spec.nodes * spec.per_node_power_kw * spec.duration_days * 24.0
        / 1e6
    )
    if spec.loss_convention == "divide":
        facility_gwh = it_gwh * spec.pue / (1.0 - spec.conversion_loss_fraction)
    else:
        facility_gwh = it_gwh * spec.pue * (1.0 + spec.conversion_loss_fraction)
    return it_gwh, facility_gwh


def carbon_emissions(
    energy_gwh: float, intensity_kg_per_mwh: float
) -> float:
    """Tonnes of CO2e for an energy quantity at one carbon intensity.

    GWh x 1000 gives MWh; times kg/MWh gives kg; over 1000 gives tonnes.
    The factors cancel, so tonnes = GWh x intensity numerically.
    """
    if not energy_gwh > 0:
        raise ValueError("energy_gwh must be positive")
    if not intensity_kg_per_mwh > 0:
        raise ValueError("intensity_kg_per_mwh must be positive")
    return energy_gwh * intensity_kg_per_mwh


def tdp_gap(
    spec: ScenarioSpec, node_tdp_kw: float = NODE_TDP_KW
) -> tuple[float, dict[str, float]]:
    """How much a node-rating estimate overstates the facility energy.

    Returns the facility-level energy gap in GWh (rating-based minus
    model-based) and the per-intensity emissions that the gap alone would
    account for. A rating below the modeled power is rejected: the gap is
    defined as an overestimate, and a negative one means the inputs are
    swapped or the model is predicting above the hardware rating.
    """
    if not 0 < node_tdp_kw < math.inf:
        raise ValueError(
            f"node_tdp_kw must be a positive, finite rating in kW, got "
            f"{node_tdp_kw}"
        )
    if node_tdp_kw < spec.per_node_power_kw:
        raise ValueError(
            f"node_tdp_kw ({node_tdp_kw}) is below the modeled per-node "
            f"power ({spec.per_node_power_kw}); gap would be negative"
        )
    _, facility = cluster_energy(spec)
    _, facility_tdp = cluster_energy(
        replace(spec, per_node_power_kw=node_tdp_kw)
    )
    gap = facility_tdp - facility
    gap_emissions = {
        name: carbon_emissions(gap, intensity) if gap > 0 else 0.0
        for name, intensity in spec.carbon_intensity_kg_per_mwh.items()
    }
    return gap, gap_emissions


def aggregate_swing(
    total_gpus: int, gpus_per_node: int, per_node_swing_kw: float
) -> float:
    """Synchronized cluster-wide demand swing in MW.

    Assumes every node's trough lines up (the synchronization points of
    data-parallel training do this), so per-node swings add.
    """
    if total_gpus <= 0 or gpus_per_node <= 0:
        raise ValueError("GPU counts must be positive")
    if total_gpus % gpus_per_node != 0:
        raise ValueError(
            f"total_gpus ({total_gpus}) must be divisible by gpus_per_node "
            f"({gpus_per_node})"
        )
    if per_node_swing_kw < 0:
        raise ValueError("per_node_swing_kw must be non-negative")
    nodes = total_gpus // gpus_per_node
    return nodes * per_node_swing_kw / 1000.0


def run_scenario(
    spec: ScenarioSpec, node_tdp_kw: float = NODE_TDP_KW
) -> ScenarioResult:
    """Evaluate the full scenario: energy, emissions, gap, swing."""
    it_gwh, facility_gwh = cluster_energy(spec)
    emissions = {
        name: carbon_emissions(facility_gwh, intensity)
        for name, intensity in spec.carbon_intensity_kg_per_mwh.items()
    }
    gap_gwh, gap_emissions = tdp_gap(spec, node_tdp_kw)
    swing_mw = aggregate_swing(
        spec.total_gpus, spec.gpus_per_node, spec.per_node_swing_kw
    )
    return ScenarioResult(
        it_energy_gwh=it_gwh,
        facility_energy_gwh=facility_gwh,
        emissions_tonnes=emissions,
        tdp_facility_energy_gwh=facility_gwh + gap_gwh,
        energy_gap_gwh=gap_gwh,
        emissions_gap_tonnes=gap_emissions,
        aggregate_swing_mw=swing_mw,
        node_tdp_kw=node_tdp_kw,
    )


# ---------------------------------------------------------------------------
# spec files and reports
# ---------------------------------------------------------------------------

def load_scenario_spec(path) -> ScenarioSpec:
    """Read a scenario spec from a UTF-8 INI file: a ``[scenario]`` section
    with ScenarioSpec's scalar fields (an absent optional one takes its
    default) and an optional ``[carbon_intensity_kg_per_mwh]`` section
    naming the intensities (``grid_average = 428``). A file that cannot be
    read or parsed, or a missing, unknown or invalid value, raises
    ``ConfigError``, as does an intensity named like a ``[scenario]`` key:
    that is how a ``[DEFAULT]`` key, which the reader merges into every
    section, would otherwise turn up as an intensity."""
    sections = read_ini(path, "scenario spec")
    if "scenario" not in sections:
        raise ConfigError(f"{path}: missing [scenario] section")
    kinds = {"nodes": int, "gpus_per_node": int, "loss_convention": str}
    bands = sections.get("carbon_intensity_kg_per_mwh", {})
    shared = [name for name in bands if name in sections["scenario"]]
    if shared:
        raise ConfigError(
            f"{path}: invalid scenario spec: [carbon_intensity_kg_per_mwh] "
            f"and [scenario] both hold {', '.join(shared)} (from a "
            "[DEFAULT] section?)"
        )
    try:
        return ScenarioSpec(
            **{key: kinds.get(key, float)(value)
               for key, value in sections["scenario"].items()},
            carbon_intensity_kg_per_mwh={
                name: float(value) for name, value in bands.items()
            },
        )
    except (TypeError, ValueError) as exc:  # TypeError: key missing or unknown
        raise ConfigError(f"{path}: invalid scenario spec: {exc}") from exc


def format_scenario_report(
    spec: ScenarioSpec,
    result: ScenarioResult,
    provenance: Mapping[str, Any] | None = None,
) -> str:
    """Human-readable scenario report with the assumptions spelled out."""
    lines = [
        "scenario report",
        "---------------",
        f"cluster: {spec.nodes} nodes x {spec.gpus_per_node} GPUs "
        f"({spec.total_gpus} GPUs), {spec.duration_days:g} days",
        f"per-node power: {spec.per_node_power_kw:g} kW "
        f"(node rating {result.node_tdp_kw:g} kW)",
        f"assumptions: PUE {spec.pue:g}, conversion loss "
        f"{spec.conversion_loss_fraction:.0%} ({spec.loss_convention} "
        "convention)",
        "",
        f"IT energy:        {result.it_energy_gwh:10.2f} GWh",
        f"facility energy:  {result.facility_energy_gwh:10.2f} GWh",
        f"rating-based:     {result.tdp_facility_energy_gwh:10.2f} GWh",
        f"overestimate gap: {result.energy_gap_gwh:10.2f} GWh",
    ]
    if result.emissions_tonnes:
        lines.append("")
        lines.append("emissions (facility / gap), tonnes CO2e:")
        for name in result.emissions_tonnes:
            gap_t = result.emissions_gap_tonnes.get(name, 0.0)
            lines.append(
                f"  {name:24s} {result.emissions_tonnes[name]:12,.0f} / "
                f"{gap_t:12,.0f}"
            )
    lines.append("")
    lines.append(
        f"aggregate demand swing: {result.aggregate_swing_mw:.1f} MW "
        f"within ~{spec.swing_window_ms:g} ms "
        f"({spec.per_node_swing_kw:g} kW/node, synchronized)"
    )
    if provenance:
        lines.append("")
        lines.append("model provenance: " + json.dumps(provenance, sort_keys=True))
    lines.append("")
    return "\n".join(lines)


def scenario_result_document(
    spec: ScenarioSpec, result: ScenarioResult
) -> dict[str, Any]:
    """JSON-ready dict of the result plus the assumptions that shaped it."""
    return {"spec": asdict(spec), "result": asdict(result)}
