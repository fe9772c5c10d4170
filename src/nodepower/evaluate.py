"""Energy comparison against measurements and rated-power baselines.

Given a fitted (or preset) power model, this module answers the question
the calibration exists for: how close does predicted training energy land
to what the meters recorded, and how much better is that than the usual
shortcut of multiplying a TDP rating by the run time?

Comparisons work from published per-workload summaries by default, so the
whole evaluation runs without raw trace data; workloads summarized from
traces slot into the same path and are tagged by their source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import reference
from .files import LeakageError, WorkloadRecord, write_csv
from .ingest import WorkloadSummary
from .model import FittedModel, TdpConfig, tdp_bounds
from .reference import ReferenceWorkload, ValidationWorkload

__all__ = [
    "LeakageError",
    "EvalWorkload",
    "EnergyComparison",
    "MapeReport",
    "ValidationReport",
    "in_sample_workloads",
    "validation_workloads",
    "compare_energy",
    "mape",
    "in_sample_report",
    "validation_report",
    "write_comparison_table",
]

ESTIMATORS = ("model", "chip_tdp", "node_tdp")


@dataclass(frozen=True)
class EvalWorkload:
    """One workload reduced to what an energy comparison needs.

    ``x`` is the log10 per-node computational intensity, ``source`` says
    where the measured figures came from (``published-summary`` or
    ``traces``).
    """

    workload_id: str
    architecture: str
    nodes: int
    duration_h: float
    measured_energy_kwh: float
    measured_p_avg_kw: float
    x: float
    source: str = "published-summary"

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.duration_h <= 0:
            raise ValueError("duration_h must be positive")
        if not self.measured_energy_kwh > 0:
            raise ValueError(
                f"workload {self.workload_id!r} has no measured energy"
            )

    @classmethod
    def from_reference(
        cls, row: ReferenceWorkload | ValidationWorkload
    ) -> "EvalWorkload":
        """Build from a row of either published table: the training-run
        summaries or the out-of-sample validation runs."""
        return cls(
            workload_id=row.workload_id,
            architecture=row.architecture,
            nodes=row.nodes,
            duration_h=row.duration_h,
            measured_energy_kwh=row.it_energy_kwh,
            measured_p_avg_kw=row.p_avg_kw,
            x=math.log10(row.flops_per_node),
            source="published-summary",
        )

    @classmethod
    def from_record(
        cls, record: WorkloadRecord, summary: WorkloadSummary
    ) -> "EvalWorkload":
        """Build from an ingested record with its trace-derived summary."""
        if record.compute is None:
            raise ValueError(
                f"workload {record.workload_id!r} has no compute estimate"
            )
        return cls(
            workload_id=record.workload_id,
            architecture=record.architecture,
            nodes=record.nodes,
            duration_h=record.duration_h,
            measured_energy_kwh=summary.it_energy_kwh,
            measured_p_avg_kw=summary.p_avg_kw,
            x=record.compute.log_intensity,
            source="traces",
        )


@dataclass(frozen=True)
class EnergyComparison:
    """Measured energy next to the model and the two rated-power estimates.

    ``normalized`` maps each estimator (plus ``measured``, which is exactly
    1.0) to its ratio against the measured energy.
    """

    workload_id: str
    measured_kwh: float
    model_kwh: float
    chip_tdp_kwh: float
    node_tdp_kwh: float
    normalized: dict[str, float]
    source: str

    def ape(self, estimator: str) -> float:
        """Absolute percentage error of one estimator."""
        return abs(self.normalized[estimator] - 1.0) * 100.0


@dataclass(frozen=True)
class MapeReport:
    """Mean absolute percentage error per estimator over one workload set."""

    scope: str  # "in_sample" or "out_of_sample"
    mape: dict[str, float]
    per_workload: dict[str, dict[str, float]]

    @property
    def n_workloads(self) -> int:
        return len(self.per_workload)


@dataclass(frozen=True)
class ValidationReport:
    """Out-of-sample MAPE together with its per-workload comparison rows."""

    mape_report: MapeReport
    comparisons: tuple[EnergyComparison, ...]


# ---------------------------------------------------------------------------
# workload sets
# ---------------------------------------------------------------------------

def in_sample_workloads(
    exclusions: Sequence[tuple[str, str]] = reference.DEFAULT_EXCLUSIONS,
    workloads: Iterable[EvalWorkload] | None = None,
) -> tuple[EvalWorkload, ...]:
    """The training workloads (by default the published ones), minus the
    exclusions whose reason is leakage.

    Statistical outliers stay in: a workload dropped from the regression
    for leverage reasons is still a legitimate measurement to score
    predictions against, whereas a duplicated measurement (leakage) would
    double-count.
    """
    if workloads is None:
        workloads = map(EvalWorkload.from_reference,
                        reference.REFERENCE_WORKLOADS)
    leaked = {wid for wid, reason in exclusions if reason == "leakage"}
    return tuple(w for w in workloads if w.workload_id not in leaked)


def validation_workloads() -> tuple[EvalWorkload, ...]:
    """The held-out workloads with published measurements."""
    return tuple(
        map(EvalWorkload.from_reference, reference.VALIDATION_WORKLOADS)
    )


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def compare_energy(
    workload: EvalWorkload,
    fitted: FittedModel,
    tdp: TdpConfig,
) -> EnergyComparison:
    """Score one workload: model energy and TDP bounds against measurement."""
    model_kwh = fitted.energy_kwh(
        workload.x, workload.architecture, workload.nodes,
        workload.duration_h,
    )
    chip_kwh, node_kwh = tdp_bounds(tdp, workload.nodes, workload.duration_h)
    measured = workload.measured_energy_kwh
    normalized = {
        "measured": 1.0,
        "model": model_kwh / measured,
        "chip_tdp": chip_kwh / measured,
        "node_tdp": node_kwh / measured,
    }
    return EnergyComparison(
        workload_id=workload.workload_id,
        measured_kwh=measured,
        model_kwh=model_kwh,
        chip_tdp_kwh=chip_kwh,
        node_tdp_kwh=node_kwh,
        normalized=normalized,
        source=workload.source,
    )


def mape(
    comparisons: Iterable[EnergyComparison],
    scope: str,
) -> MapeReport:
    """Mean absolute percentage error per estimator.

    Raises
    ------
    ValueError
        Empty comparison set, or a scope other than ``in_sample`` /
        ``out_of_sample``.
    """
    if scope not in ("in_sample", "out_of_sample"):
        raise ValueError(
            f"scope must be 'in_sample' or 'out_of_sample', got {scope!r}"
        )
    rows = list(comparisons)
    if not rows:
        raise ValueError("cannot compute MAPE over an empty comparison set")
    per_workload = {
        c.workload_id: {est: c.ape(est) for est in ESTIMATORS} for c in rows
    }
    means = {
        est: sum(v[est] for v in per_workload.values()) / len(per_workload)
        for est in ESTIMATORS
    }
    return MapeReport(scope=scope, mape=means, per_workload=per_workload)


def in_sample_report(
    fitted: FittedModel,
    tdp: TdpConfig,
    workloads: Sequence[EvalWorkload] | None = None,
) -> ValidationReport:
    """Score the training workload set (published summaries by default)."""
    rows = tuple(workloads) if workloads is not None else in_sample_workloads()
    comparisons = tuple(compare_energy(w, fitted, tdp) for w in rows)
    return ValidationReport(
        mape_report=mape(comparisons, "in_sample"),
        comparisons=comparisons,
    )


def validation_report(
    fitted: FittedModel,
    tdp: TdpConfig,
    workloads: Sequence[EvalWorkload] | None = None,
) -> ValidationReport:
    """Score the held-out workloads, refusing to proceed on leakage.

    If the model's provenance lists its training workloads, any overlap
    with the validation ids raises ``LeakageError``; a model without
    recorded training ids cannot be checked and is scored as-is.
    """
    rows = (
        tuple(workloads) if workloads is not None else validation_workloads()
    )
    training = fitted.provenance.get("training_workload_ids")
    if training is not None:
        overlap = sorted(
            {w.workload_id for w in rows} & set(training)
        )
        if overlap:
            raise LeakageError(
                "validation workloads found in training provenance: "
                + ", ".join(overlap)
            )
    comparisons = tuple(compare_energy(w, fitted, tdp) for w in rows)
    return ValidationReport(
        mape_report=mape(comparisons, "out_of_sample"),
        comparisons=comparisons,
    )


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

_TABLE_HEADER = (
    "workload_id",
    "measured_kwh",
    "model_kwh",
    "chip_tdp_kwh",
    "node_tdp_kwh",
    "model_pct",
    "chip_tdp_pct",
    "node_tdp_pct",
    "source",
)


def write_comparison_table(
    comparisons: Iterable[EnergyComparison],
    destination,
) -> None:
    """Emit comparison rows as CSV, percentages normalized to measured=100.

    ``destination`` is a path or a writable text stream; energies are kWh,
    the ``*_pct`` columns are the normalized ratios times 100.
    """
    write_csv(destination, _TABLE_HEADER, [
        (
            c.workload_id,
            repr(c.measured_kwh),
            repr(c.model_kwh),
            repr(c.chip_tdp_kwh),
            repr(c.node_tdp_kwh),
            f"{c.normalized['model'] * 100.0:.2f}",
            f"{c.normalized['chip_tdp'] * 100.0:.2f}",
            f"{c.normalized['node_tdp'] * 100.0:.2f}",
            c.source,
        )
        for c in comparisons
    ])
