"""Runtime dependencies: numpy only. scipy comes with the test extra, and no
command may import it."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nodepower
from nodepower.data import desk_dir, desk_exclusions, desk_manifest

ROOT = Path(__file__).resolve().parents[1]

# Runs each command in turn with every scipy import made to fail, then
# writes the exit codes and any scipy module that got loaded anyway.
GUARDED_RUN = """\
import importlib.abc, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not a runtime dependency")
        return None

sys.meta_path.insert(0, NoScipy())
sys.path.insert(0, sys.argv[1])
from nodepower.cli import main

codes = [main(args) for args in json.loads(sys.argv[2])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
with open(sys.argv[3], "w") as f:
    json.dump({"codes": codes, "scipy": loaded}, f)
"""


def test_no_command_imports_scipy(tmp_path):
    fit = [
        ["fit", "--manifest", str(desk_manifest()),
         "--exclusions", str(desk_exclusions()), "--form", form,
         "--out", str(tmp_path / form),
         "--pin-timestamp", "2026-01-01T00:00:00Z"]
        for form in ("simple", "asymptotic", "arch-fe", "sigmoid")
    ]
    sigmoid_model = str(tmp_path / "sigmoid" / "model-sigmoid.json")
    config = str(desk_dir() / "smc-llama-70b-64.ini")
    commands = [
        *fit,
        ["loocv", "--manifest", str(desk_manifest()),
         "--exclusions", str(desk_exclusions()), "--form", "sigmoid",
         "--out", str(tmp_path / "loocv")],
        ["evaluate", "--model", sigmoid_model, "--scope", "validation"],
        ["predict", "--model", sigmoid_model, "--config", config],
        ["scenario", "--spec", str(ROOT / "demos" / "fleet.ini")],
        ["flops", config],
    ]
    result = tmp_path / "result.json"
    src = str(Path(nodepower.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN, src, json.dumps(commands),
         str(result)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(result.read_text())
    assert got == {"codes": [0] * len(commands), "scipy": []}, proc.stderr


def test_scipy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0]
                for r in requirements}

    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])
