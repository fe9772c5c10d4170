"""Runtime dependencies: numpy only. scipy comes with the test extra, and no
command may import it; ``import nodepower``, ``--help``, ``scenario`` and
``flops`` do not import numpy either, and clean configs do not import
configparser."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nodepower
from nodepower.data import desk_dir, desk_exclusions, desk_manifest
from test_cli import GOLDEN_OUT

ROOT = Path(__file__).resolve().parents[1]

# Imports the package and runs each command in turn with every import of
# one top-level package made to fail, then writes the exit codes and any
# module of that package that got loaded anyway.
GUARDED_RUN = """\
import importlib.abc, json, sys

blocked = sys.argv[2]

class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == blocked:
            raise ImportError(f"{name} must not be imported here")
        return None

def run(args):
    try:
        return main(args)
    except SystemExit as exc:  # --help
        return exc.code

sys.meta_path.insert(0, Block())
sys.path.insert(0, sys.argv[1])
import nodepower
from nodepower.cli import main

codes = [run(args) for args in json.loads(sys.argv[3])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == blocked)
with open(sys.argv[4], "w") as f:
    json.dump({"codes": codes, "loaded": loaded}, f)
"""


def _guarded_run(blocked, commands, tmp_path):
    """The exit codes of the commands, run in one fresh interpreter in
    which ``blocked`` cannot be imported, and the modules of it loaded."""
    result = tmp_path / "result.json"
    src = str(Path(nodepower.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN, src, blocked,
         json.dumps(commands), str(result)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text()), proc.stderr


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
    got, stderr = _guarded_run("scipy", commands, tmp_path)
    assert got == {"codes": [0] * len(commands), "loaded": []}, stderr


def test_scenario_and_flops_do_not_import_numpy(tmp_path):
    commands = [["--help"]] + [
        [*GOLDEN_OUT[name][1](), "--out", str(tmp_path / name)]
        for name in ("scenario", "flops")
    ]
    got, stderr = _guarded_run("numpy", commands, tmp_path)
    assert got == {"codes": [0] * len(commands), "loaded": []}, stderr
    for name in ("scenario", "flops"):
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / name).iterdir()
        }
        assert written == GOLDEN_OUT[name][0]


def test_clean_configs_do_not_import_configparser(tmp_path):
    """The desk configs and the fleet spec are clean INI text, which
    ``read_ini`` reads without configparser."""
    commands = [
        ["scenario", "--spec", str(ROOT / "demos" / "fleet.ini")],
        ["flops", *map(str, sorted(desk_dir().glob("*.ini")))],
        ["fit", "--manifest", str(desk_manifest()),
         "--exclusions", str(desk_exclusions()), "--form", "arch-fe",
         "--out", str(tmp_path / "fit"),
         "--pin-timestamp", "2026-01-01T00:00:00Z"],
    ]
    got, stderr = _guarded_run("configparser", commands, tmp_path)
    assert got == {"codes": [0] * len(commands), "loaded": []}, stderr


# Runs each command in turn in one fresh interpreter, then writes the exit
# codes and which of the named modules got loaded.
LOADED_RUN = """\
import json, sys

sys.path.insert(0, sys.argv[1])
from nodepower.cli import main

codes = [main(args) for args in json.loads(sys.argv[2])]
loaded = sorted(m for m in json.loads(sys.argv[3]) if m in sys.modules)
with open(sys.argv[4], "w") as f:
    json.dump({"codes": codes, "loaded": loaded}, f)
"""


def _loaded_run(commands, modules, tmp_path):
    """The exit codes of the commands, run in one fresh interpreter, and
    which of the modules got loaded."""
    result = tmp_path / "result.json"
    src = str(Path(nodepower.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", LOADED_RUN, src,
         json.dumps(commands), json.dumps(modules), str(result)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text()), proc.stderr


def test_fit_and_loocv_do_not_load_numpy_ma_or_char(tmp_path):
    """numpy loads ``numpy.ma`` on the first ``np.unique`` of floats or
    ``np.percentile``, and ``numpy.char`` with ``numpy.strings`` on the
    first ``np.char`` call: milliseconds that every fresh process would pay
    for nothing."""
    data = ["--manifest", str(desk_manifest()),
            "--exclusions", str(desk_exclusions())]
    commands = [
        ["fit", *data, "--form", form, "--out", str(tmp_path / form),
         "--pin-timestamp", "2026-01-01T00:00:00Z"]
        for form in ("arch-fe", "simple")
    ] + [
        ["loocv", *data, "--form", form,
         "--out", str(tmp_path / f"loocv-{form}")]
        for form in ("asymptotic", "simple", "sigmoid")
    ]
    got, stderr = _loaded_run(
        commands, ["numpy.ma", "numpy.char", "numpy.strings"], tmp_path
    )
    assert got == {"codes": [0] * 5, "loaded": []}, stderr


def test_scenario_does_not_load_flops(tmp_path):
    """A scenario reads no workload config, so it needs no operation
    counts: ``nodepower.files`` imports ``flops`` only where a config's
    architecture is parsed or a compute estimate attached."""
    commands = [["scenario", "--spec", str(ROOT / "demos" / "fleet.ini")]]
    got, stderr = _loaded_run(commands, ["nodepower.flops"], tmp_path)
    assert got == {"codes": [0], "loaded": []}, stderr


def test_scipy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0]
                for r in requirements}

    assert names(project["dependencies"]) == {"numpy"}
    assert "scipy" in names(project["optional-dependencies"]["test"])
