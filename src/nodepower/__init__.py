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

import importlib

# the public names, grouped by the module each is taken from; a name is
# imported on first use (PEP 562), so that ``import nodepower`` loads no
# numpy
_EXPORTS = {
    "flops": (
        "CnnArch", "ComputeEstimate", "FlopsMismatchWarning", "LlmArch",
        "ParallelismConfig", "derive_global_batch", "estimate",
        "flops_per_iteration", "intensity",
    ),
    "model": (
        "FittedModel", "ModelForm", "PowerParams", "TdpConfig", "load_model",
        "predict_energy", "predict_power", "preset", "preset_names",
        "save_model", "tdp_bounds",
    ),
    "fit": (
        "FitConfig", "FitResult", "LoocvReport", "loocv", "two_stage_fit",
        "wnls_fit",
    ),
    "ingest": (
        "NodeTrace", "RegressionDataset", "WorkloadRecord", "WorkloadSummary",
        "WorkloadTable", "load_and_assemble", "load_workload",
        "summarize_workload",
    ),
    "evaluate": (
        "EnergyComparison", "EvalWorkload", "MapeReport", "compare_energy",
        "in_sample_report", "mape", "validation_report",
    ),
    "scenario": (
        "ScenarioResult", "ScenarioSpec", "aggregate_swing",
        "carbon_emissions", "cluster_energy", "run_scenario", "tdp_gap",
    ),
    "reference": ("Architecture_CNN", "Architecture_LLM"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
