"""The bit-identity tools: ``tools/dump_numbers.py`` and
``tools/diff_numbers.py``."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

from nodepower.data import desk_exclusions, desk_manifest
from nodepower.model import ModelForm

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DESK_NUMBERS = Path(__file__).resolve().parent / "desk-numbers.json"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_numbers = _tool("diff_numbers")
dump_numbers = _tool("dump_numbers")

DUMP = {
    "two_stage_fit": {
        "all": {"asymptotic": {"estimates": {"alpha": (5.5).hex()}}},
    },
    "loocv": {
        "all": {
            "sigmoid": {
                "mean": {"x0": (9.8).hex(), "k": (0.0).hex()},
                "flagged_outliers": ["w1"],
            },
        },
    },
}


def _diff(tmp_path, a, b, capsys, options=()):
    """diff_numbers' exit code and stdout lines for dumps a and b."""
    paths = []
    for name, dump in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(dump))
        paths.append(str(path))
    rc = diff_numbers.main([*paths, *options])
    return rc, capsys.readouterr().out.splitlines()


def _changed(path, value):
    """DUMP with the leaf at ``path`` set to ``value``."""
    dump = copy.deepcopy(DUMP)
    node = dump
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return dump


class TestDiffNumbers:
    def test_identical_dumps_exit_0(self, tmp_path, capsys):
        rc, lines = _diff(tmp_path, DUMP, copy.deepcopy(DUMP), capsys)
        assert rc == 0
        assert lines == [
            "loocv/all/sigmoid: identical",
            "two_stage_fit/all/asymptotic: identical",
            "loocv: identical",
            "two_stage_fit: identical",
        ]

    def test_one_ulp_prints_its_relative_difference(self, tmp_path, capsys):
        path = ("loocv", "all", "sigmoid", "mean", "x0")
        moved = math.nextafter(9.8, math.inf)
        rc, lines = _diff(
            tmp_path, DUMP, _changed(path, moved.hex()), capsys
        )
        assert rc == 1
        where = "loocv/all/sigmoid/mean/x0"
        relative = (moved - 9.8) / moved
        assert f"loocv/all/sigmoid: {relative:.2g} at {where}" in lines
        assert f"loocv: {relative:.2g} at {where}" in lines
        assert "two_stage_fit: identical" in lines

    def test_sign_of_zero_differs(self, tmp_path, capsys):
        path = ("loocv", "all", "sigmoid", "mean", "k")
        rc, lines = _diff(
            tmp_path, DUMP, _changed(path, (-0.0).hex()), capsys
        )
        assert rc == 1
        assert "loocv: differs at loocv/all/sigmoid/mean/k" in lines

    @pytest.mark.parametrize("change", ["missing leaf", "error string"])
    def test_non_numbers_differ(self, change, tmp_path, capsys):
        if change == "missing leaf":
            path = ("loocv", "all", "sigmoid", "flagged_outliers")
            other, where = _changed(path, []), "/".join((*path, "0"))
        else:
            path = ("two_stage_fit", "all", "asymptotic")
            other = _changed(path, "NonConvergenceError: did not converge")
            where = "two_stage_fit/all/asymptotic"
        rc, lines = _diff(tmp_path, DUMP, other, capsys)
        assert rc == 1
        assert f"{where.split('/')[0]}: differs at {where}" in lines

    @pytest.mark.parametrize("tol, rc", [(1e-15, 0), (1e-16, 1), (0.0, 1)])
    def test_rel_bounds_the_relative_difference(
        self, tol, rc, tmp_path, capsys
    ):
        # one ulp at 9.8 is about 1.8e-16 relative
        path = ("loocv", "all", "sigmoid", "mean", "x0")
        moved = math.nextafter(9.8, math.inf).hex()
        args = [] if tol == 0.0 else ["--rel", str(tol)]
        got, _ = _diff(tmp_path, DUMP, _changed(path, moved), capsys, args)
        assert got == rc

    @pytest.mark.parametrize("change", [
        ("loocv", "all", "sigmoid", "flagged_outliers"),
        ("two_stage_fit", "all", "asymptotic"),
        ("loocv", "all", "sigmoid", "mean", "k"),
    ], ids=["missing leaf", "error string", "sign of zero"])
    def test_rel_never_forgives_a_value_that_is_not_close(
        self, change, tmp_path, capsys
    ):
        value = {
            "flagged_outliers": [], "asymptotic": "NonConvergenceError: x",
            "k": (-0.0).hex(),
        }[change[-1]]
        rc, _ = _diff(
            tmp_path, DUMP, _changed(change, value), capsys,
            ["--rel", "1e-3"],
        )
        assert rc == 1


def test_dump_numbers_on_the_desk_set(tmp_path, capsys):
    dump = dump_numbers.dump(str(desk_manifest()), str(desk_exclusions()))
    assert set(dump) == {"two_stage_fit", "loocv", "wnls_fit"}
    forms = {
        "two_stage_fit": {f.value for f in ModelForm},
        "loocv": {f.value for f in dump_numbers.LOOCV_FORMS},
        "wnls_fit": {"asymptotic", "arch-fe", "simple"},
    }
    # on all nine desk workloads the joint (beta_comp_kw, alpha) fit has no
    # interior optimum (both grow without bound from the default starts),
    # so it raises, and the dump pins its message
    raised = {("wnls_fit", "all", "asymptotic")}
    for section, labels in dump.items():
        assert set(labels) == {"all", "excluded"}
        for label, results in labels.items():
            assert set(results) == forms[section]
            for form, result in results.items():
                # a fit or scan that raised prints as a string
                kind = str if (section, label, form) in raised else dict
                assert isinstance(result, kind), (section, form, result)
    # every number within 1e-12 relative of the pinned dump: a change that
    # moves a fit or LOOCV number regenerates the file, with
    #   PYTHONPATH=src python3 tools/dump_numbers.py \
    #     src/nodepower/data/desk/manifest.csv \
    #     src/nodepower/data/desk/exclusions.csv > tests/desk-numbers.json
    # and says why in CHANGES.md
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(dump))
    rc = diff_numbers.main([str(DESK_NUMBERS), str(path), "--rel", "1e-12"])
    assert rc == 0, capsys.readouterr().out
