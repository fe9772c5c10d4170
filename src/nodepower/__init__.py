"""Node-level power and energy models for AI training workloads.

The package turns workload descriptions (architecture, batch, parallelism,
node count) into computational intensity, calibrates saturating power
models against measured traces with cluster-robust uncertainty, and scales
the predictions up to fleet-level energy, carbon, and demand-swing figures.

Typical entry points:

>>> import nodepower as npower
>>> m = npower.preset("arch-fe")
>>> m.power_kw(15.36, arch=npower.Architecture_LLM)  # doctest: +SKIP

with `nodepower.fit.two_stage_fit` for calibrating against new traces and
`nodepower.scenario.run_scenario` for extrapolation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .flops import (
    CnnArch,
    ComputeEstimate,
    FlopsMismatchWarning,
    LlmArch,
    ParallelismConfig,
    derive_global_batch,
    estimate,
    flops_per_iteration,
    intensity,
)
from .model import (
    FittedModel,
    ModelForm,
    PowerParams,
    TdpConfig,
    load_model,
    predict_energy,
    predict_power,
    preset,
    preset_names,
    save_model,
    tdp_bounds,
)
from .fit import (
    FitConfig,
    FitResult,
    LoocvReport,
    loocv,
    two_stage_fit,
    wnls_fit,
)
from .ingest import (
    NodeTrace,
    RegressionDataset,
    WorkloadRecord,
    WorkloadSummary,
    WorkloadTable,
    load_and_assemble,
    load_workload,
    summarize_workload,
)
from .evaluate import (
    EnergyComparison,
    EvalWorkload,
    MapeReport,
    compare_energy,
    in_sample_report,
    mape,
    validation_report,
)
from .scenario import (
    ScenarioResult,
    ScenarioSpec,
    aggregate_swing,
    carbon_emissions,
    cluster_energy,
    run_scenario,
    tdp_gap,
)
from .reference import Architecture_CNN, Architecture_LLM

__all__ = [
    "__version__",
    # flops
    "CnnArch", "ComputeEstimate", "FlopsMismatchWarning", "LlmArch",
    "ParallelismConfig", "derive_global_batch", "estimate",
    "flops_per_iteration", "intensity",
    # model
    "FittedModel", "ModelForm", "PowerParams", "TdpConfig", "load_model",
    "predict_energy", "predict_power", "preset", "preset_names",
    "save_model", "tdp_bounds",
    # fit
    "FitConfig", "FitResult", "LoocvReport", "loocv", "two_stage_fit",
    "wnls_fit",
    # ingest
    "NodeTrace", "RegressionDataset", "WorkloadRecord", "WorkloadSummary",
    "WorkloadTable", "load_and_assemble", "load_workload",
    "summarize_workload",
    # evaluate
    "EnergyComparison", "EvalWorkload", "MapeReport", "compare_energy",
    "in_sample_report", "mape", "validation_report",
    # scenario
    "ScenarioResult", "ScenarioSpec", "aggregate_swing", "carbon_emissions",
    "cluster_energy", "run_scenario", "tdp_gap",
    # architectures
    "Architecture_CNN", "Architecture_LLM",
]
