"""The package namespace: every public name is imported on first use and is
the object its home module defines."""

from __future__ import annotations

import argparse
import importlib

import pytest

import nodepower
from nodepower import cli, model, reference
from nodepower.files import ModelForm

PUBLIC = [name for name in nodepower.__all__ if name != "__version__"]

# the public names in their documented order
ALL = [
    "__version__", "CnnArch", "ComputeEstimate", "FlopsMismatchWarning",
    "LlmArch", "ParallelismConfig", "derive_global_batch", "estimate",
    "flops_per_iteration", "intensity", "FittedModel", "ModelForm",
    "PowerParams", "TdpConfig", "load_model", "predict_energy",
    "predict_power", "preset", "preset_names", "save_model", "tdp_bounds",
    "FitConfig", "FitResult", "LoocvReport", "loocv", "two_stage_fit",
    "wnls_fit", "NodeTrace", "RegressionDataset", "WorkloadRecord",
    "WorkloadSummary", "WorkloadTable", "load_and_assemble",
    "load_workload", "summarize_workload", "EnergyComparison",
    "EvalWorkload", "MapeReport", "compare_energy", "in_sample_report",
    "mape", "validation_report", "ScenarioResult", "ScenarioSpec",
    "aggregate_swing", "carbon_emissions", "cluster_energy",
    "run_scenario", "tdp_gap", "Architecture_CNN", "Architecture_LLM",
]


def test_public_names_are_unchanged():
    assert nodepower.__all__ == ALL


def test_every_public_name_is_its_home_modules_object():
    for name in PUBLIC:
        value = getattr(nodepower, name)
        home = importlib.import_module(f"nodepower.{nodepower._HOME[name]}")
        assert getattr(home, name) is value, name
        defined_in = getattr(value, "__module__", "")
        if defined_in.startswith("nodepower."):
            assert getattr(importlib.import_module(defined_in), name) is value


def test_dir_and_star_import_list_every_public_name():
    assert set(nodepower.__all__) <= set(dir(nodepower))
    namespace: dict = {}
    exec("from nodepower import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nodepower.__all__)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nodepower.no_such_name
    assert not hasattr(nodepower, "fit_everything")


def _choices(command: str, dest: str) -> list[str]:
    parser = cli._build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return list(next(
        a.choices for a in commands.choices[command]._actions if a.dest == dest
    ))


@pytest.mark.parametrize("command", ["fit", "loocv"])
def test_form_choices_are_the_model_forms(command):
    assert _choices(command, "form") == [f.value for f in ModelForm]


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_preset_choices_are_the_built_presets(command):
    assert _choices(command, "preset") == list(model.preset_names())


def test_presets_must_match_the_listed_names(monkeypatch):
    monkeypatch.setattr(
        reference, "PRESET_NAMES", (*reference.PRESET_NAMES, "extra")
    )
    with pytest.raises(ValueError):
        model._build_presets()
