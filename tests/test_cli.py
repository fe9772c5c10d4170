"""Command-line surface: happy paths, artifact layout, and the exit-code map."""

from __future__ import annotations

import csv
import filecmp
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nodepower
from nodepower import fit as fitmod
from nodepower.cli import main
from nodepower.data import desk_dir, desk_exclusions, desk_manifest
from nodepower.model import load_model, preset, save_model
from nodepower.reference import REFERENCE_WORKLOADS

MANIFEST = str(desk_manifest())
EXCLUSIONS = str(desk_exclusions())
SRC = str(Path(nodepower.__file__).resolve().parents[1])
FLEET = str(Path(__file__).resolve().parents[1] / "demos" / "fleet.ini")

SCENARIO_INI = """\
[scenario]
nodes = 2500
gpus_per_node = 8
duration_days = 90
per_node_power_kw = 7.3
pue = 1.1
conversion_loss_fraction = 0.10
per_node_swing_kw = 2.4

[carbon_intensity_kg_per_mwh]
grid_average = 428
nonbaseload = 806
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "fleet.ini"
    path.write_text(SCENARIO_INI)
    return str(path)


class TestFlops:
    def test_prints_totals_and_writes_csv(self, tmp_path, capsys):
        config = desk_dir() / "smc-gpt3-175b-64.ini"
        rc = main(["flops", str(config), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "smc-gpt3-175b-64" in out
        table = tmp_path / "flops.csv"
        rows = list(csv.DictReader(table.open()))
        assert len(rows) == 1
        assert float(rows[0]["flops_per_iteration"]) == pytest.approx(
            6.01e18, rel=0.01
        )

    def test_missing_config_is_input_error(self, capsys):
        rc = main(["flops", "/nonexistent/w.ini"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("nodepower: error: input:")
        assert "\n" not in err.rstrip("\n")


class TestFit:
    def test_writes_model_and_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "fit", "--manifest", MANIFEST, "--exclusions", EXCLUSIONS,
            "--form", "asymptotic", "--out", str(out),
            "--pin-timestamp", "2026-01-01T00:00:00Z",
        ])
        assert rc == 0
        model_path = out / "model-asymptotic.json"
        fitted = load_model(model_path)
        assert fitted.params.alpha == pytest.approx(5.44, abs=0.05)
        assert (out / "fit-report.txt").exists()
        report = capsys.readouterr().out
        assert "alpha" in report and "robust" in report.lower()
        with (out / "fit-report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["parameter"] for r in rows} >= {"alpha", "beta_comp_kw"}

    def test_two_runs_are_byte_identical(self, tmp_path):
        args = [
            "fit", "--manifest", MANIFEST, "--exclusions", EXCLUSIONS,
            "--form", "arch-fe",
            "--pin-timestamp", "2026-01-01T00:00:00Z",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert sorted(match) == names and not mismatch and not errors

    def test_single_workload_manifest_is_degenerate(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        src = desk_dir()
        manifest.write_text(
            "config,trace\n"
            f"{src}/smc-gpt3-175b-64.ini,"
            f"{src}/traces/smc-gpt3-175b-64.csv\n"
        )
        rc = main(["fit", "--manifest", str(manifest)])
        assert rc == 4
        assert capsys.readouterr().err.startswith(
            "nodepower: error: degenerate-data:"
        )

    def test_unknown_exclusion_id(self, tmp_path, capsys):
        bad = tmp_path / "exclusions.csv"
        bad.write_text("workload_id,reason\nno-such-run,outlier\n")
        rc = main([
            "fit", "--manifest", MANIFEST, "--exclusions", str(bad),
        ])
        assert rc == 7
        assert capsys.readouterr().err == (
            "nodepower: error: unknown-workload: exclusion names unknown "
            "workload 'no-such-run'\n"
        )

    def test_oversized_field_is_input_error(self, tmp_path, capsys):
        # a node id over csv's field size limit
        src = desk_dir()
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "workload_id,node_id,elapsed_s,power_kw\n"
            f"smc-gpt3-175b-64,{'n' * 200_000},0.0,5.0\n"
        )
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            f"config,trace\n{src}/smc-gpt3-175b-64.ini,{trace}\n"
        )
        rc = main(["fit", "--manifest", str(manifest), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            f"nodepower: error: input: {trace}: line 2: field larger than "
            "field limit"
        )


class TestPredict:
    def test_preset_prediction(self, capsys):
        config = desk_dir() / "smc-gpt3-175b-64.ini"
        rc = main(["predict", "--preset", "arch-fe", "--config", str(config)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kW" in out and "kWh" in out

    def test_model_and_preset_are_exclusive(self, tmp_path, capsys):
        config = desk_dir() / "smc-gpt3-175b-64.ini"
        with pytest.raises(SystemExit) as exc:
            main([
                "predict", "--preset", "arch-fe", "--model", "m.json",
                "--config", str(config),
            ])
        assert exc.value.code == 2


class TestEvaluate:
    def test_published_scope_tables(self, tmp_path, capsys):
        rc = main([
            "evaluate", "--preset", "arch-fe", "--scope", "both",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        blob = json.loads((tmp_path / "mape.json").read_text())
        assert blob["in_sample_mape"]["model"] == pytest.approx(
            10.77, abs=0.05
        )
        assert blob["out_of_sample_mape"]["model"] == pytest.approx(
            5.26, abs=0.05
        )
        in_rows = list(
            csv.DictReader((tmp_path / "in-sample-comparisons.csv").open())
        )
        assert len(in_rows) == 8
        val_rows = list(
            csv.DictReader((tmp_path / "validation-comparisons.csv").open())
        )
        assert len(val_rows) == 4

    def test_exclusions_replace_the_default_policy(self, tmp_path, capsys):
        # without --manifest, the policy file decides the published
        # in-sample set: its leakage entry goes, the shipped one comes back
        policy = tmp_path / "exclusions.csv"
        policy.write_text("workload_id,reason\nbnl-resnet-2-1,leakage\n")
        rc = main([
            "evaluate", "--preset", "arch-fe", "--scope", "in-sample",
            "--exclusions", str(policy), "--out", str(tmp_path),
        ])
        assert rc == 0
        blob = json.loads((tmp_path / "mape.json").read_text())
        assert set(blob["in_sample_per_workload"]) == {
            w.workload_id for w in REFERENCE_WORKLOADS
        } - {"bnl-resnet-2-1"}
        assert blob["in_sample_mape"]["model"] != pytest.approx(
            10.77, abs=0.05
        )

    def test_leakage_detected_from_model_file(self, tmp_path, capsys):
        # a model whose training record claims a validation workload
        clean = tmp_path / "clean.json"
        save_model(preset("asymptotic"), clean)
        doc = json.loads(clean.read_text())
        doc["provenance"] = {
            "kind": "fit",
            "training_workload_ids": ["dell-llama-70b-8"],
        }
        path = tmp_path / "tainted.json"
        path.write_text(json.dumps(doc))
        rc = main(["evaluate", "--model", str(path), "--scope", "validation"])
        assert rc == 6
        assert capsys.readouterr().err.startswith(
            "nodepower: error: leakage:"
        )


class TestLoocv:
    def test_summary_artifacts(self, tmp_path, capsys):
        # no exclusions: the stability scan covers every workload, which is
        # how the outlier shows up as the most divergent holdout
        rc = main([
            "loocv", "--manifest", MANIFEST, "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = list(
            csv.DictReader((tmp_path / "loocv-summary.csv").open())
        )
        alpha = next(r for r in summary if r["parameter"] == "alpha")
        assert 3.0 <= float(alpha["cov_percent"]) <= 20.0
        assert alpha["most_divergent"] == "bnl-resnet-1-1"
        holdouts = list(
            csv.DictReader((tmp_path / "loocv-holdouts.csv").open())
        )
        assert len({r["holdout_workload_id"] for r in holdouts}) == 9

    def test_exclusions_hash_as_the_kept_rows_do(self, tmp_path, capsys):
        # the hash printed after --exclusions is that of a manifest which
        # omits the excluded workloads
        excluded = {
            line.split(",")[0]
            for line in Path(EXCLUSIONS).read_text().splitlines()[1:]
        }
        kept = [
            ",".join(str(desk_dir() / f) for f in line.split(","))
            for line in Path(MANIFEST).read_text().splitlines()[1:]
            if Path(line.split(",")[0]).stem not in excluded
        ]
        assert len(kept) == 7
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(["config,trace", *kept]) + "\n")

        def sha_line(*args):
            assert main(["loocv", *args]) == 0
            out = capsys.readouterr().out
            return next(
                line for line in out.splitlines()
                if line.startswith("dataset sha256: ")
            )

        assert sha_line(
            "--manifest", MANIFEST, "--exclusions", EXCLUSIONS
        ) == sha_line("--manifest", str(manifest))
        assert sha_line("--manifest", MANIFEST) != sha_line(
            "--manifest", str(manifest)
        )


class TestScenario:
    def test_report_and_json(self, tmp_path, capsys, scenario_file):
        rc = main([
            "scenario", "--spec", scenario_file, "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "48.18" in out  # facility GWh for this spec
        blob = json.loads((tmp_path / "scenario.json").read_text())
        assert blob["result"]["it_energy_gwh"] == pytest.approx(
            39.42, abs=0.01
        )
        assert blob["result"]["aggregate_swing_mw"] == pytest.approx(6.0)

    def test_loss_convention_override(self, capsys, scenario_file):
        rc = main([
            "scenario", "--spec", scenario_file,
            "--loss-convention", "multiply",
        ])
        assert rc == 0
        assert "47.70" in capsys.readouterr().out  # 39.42 * 1.1 * 1.1

    def test_missing_spec_file(self, capsys):
        rc = main(["scenario", "--spec", "/nonexistent/fleet.ini"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("nodepower: error: input:")


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


def test_scenario_and_preset_prediction_do_not_load_scipy():
    src, fleet = SRC, FLEET
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from nodepower.cli import main; "
        "from nodepower.model import preset; "
        "rc = main(['scenario', '--spec', sys.argv[2]]); "
        "preset('arch-fe').power_kw(15.0, 'llm'); "
        "print(rc, 'scipy.special' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src, str(fleet)],
        capture_output=True, text=True, check=True,
    )
    assert out.stderr.strip().splitlines()[-1] == "0 False"


# ---------------------------------------------------------------------------
# bad input exits 3 with one line; anything else is a traceback
# ---------------------------------------------------------------------------

def _edited_config(tmp_path, old, new):
    text = (desk_dir() / "smc-resnet-2-1.ini").read_text()
    assert old in text
    path = tmp_path / "w.ini"
    path.write_text(text.replace(old, new))
    return str(path)


def _edited_model(tmp_path, edit):
    path = tmp_path / "model.json"
    save_model(preset("asymptotic"), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return ["evaluate", "--model", str(path)]


def _written(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


def _manifest_with_trace(tmp_path, trace):
    config = desk_dir() / "smc-resnet-2-1.ini"
    manifest = _written(
        tmp_path, "manifest.csv",
        f"config,trace\n{config},{_written(tmp_path, 't.csv', trace)}\n",
    )
    return ["fit", "--manifest", manifest, "--out", str(tmp_path / "o")]


def _edited_manifest(tmp_path, old, new):
    """A manifest of the one desk workload whose config is edited."""
    return _written(
        tmp_path, "manifest.csv",
        f"config,trace\n{_edited_config(tmp_path, old, new)},"
        f"{desk_dir() / 'traces' / 'smc-resnet-2-1.csv'}\n",
    )


def _edited_spec(tmp_path, old, new):
    assert old in SCENARIO_INI
    return [
        "scenario", "--spec",
        _written(tmp_path, "s.ini", SCENARIO_INI.replace(old, new)),
    ]


_TRACE_HEADER = b"workload_id,node_id,elapsed_s,power_kw\n"
_TYPO = "workload_id,reason\nsmc-llama-70b-8,leakge\n"

# each case: tmp_path -> argv
BAD_INPUT = {
    # a % is read literally (see test_ingest), so here it makes a bad number
    "percent-in-config": lambda t: [
        "flops", _edited_config(t, "duration_h = 0.22", "duration_h = 22%"),
    ],
    "model-unknown-parameter": lambda t: _edited_model(
        t, lambda doc: doc["params"].update(gamma=1.0)
    ),
    "model-without-variant": lambda t: _edited_model(
        t, lambda doc: doc.pop("variant")
    ),
    "model-alpha-infinite": lambda t: _edited_model(
        t, lambda doc: doc["params"].update(alpha=math.inf)
    ),
    "model-x0-nan": lambda t: _edited_model(
        t, lambda doc: doc.update(
            variant="sigmoid",
            params={**preset("sigmoid").params.as_dict(), "x0": math.nan},
        )
    ),
    "model-not-json": lambda t: [
        "evaluate", "--model", _written(t, "m.json", "{not json"),
    ],
    "spec-without-section-header": lambda t: [
        "scenario", "--spec", _written(t, "s.ini", "nodes = 10\n"),
    ],
    "spec-unknown-key": lambda t: [
        "scenario", "--spec", _written(t, "s.ini", SCENARIO_INI.replace(
            "pue = 1.1", "pue_facility = 1.1"
        )),
    ],
    # a [DEFAULT] key is merged into every section, the intensities too
    "spec-default-key-becomes-an-intensity": lambda t: [
        "scenario", "--spec", _written(t, "s.ini", "[DEFAULT]\npue = 1.2\n" + (
            Path(FLEET).read_text().replace("pue = 1.1\n", "")
        )),
    ],
    "manifest-nul-byte": lambda t: [
        "fit", "--manifest",
        _written(t, "m.csv", "config,trace\nw\0.ini,t.csv\n"),
        "--out", str(t / "o"),
    ],
    "trace-not-utf8": lambda t: _manifest_with_trace(
        t, _TRACE_HEADER + b"smc-resnet-2-1,n\xff,0.0,5.0\n"
    ),
    "more-traces-than-nodes": lambda t: _manifest_with_trace(
        t, _TRACE_HEADER + b"smc-resnet-2-1,a,0,5\nsmc-resnet-2-1,b,0,5\n"
    ),
    "one-id-two-intensities": lambda t: [
        "fit", "--manifest", _written(t, "m.csv", "config,trace\n" + "".join(
            f"{config},{desk_dir() / 'traces' / 'smc-resnet-2-1.csv'}\n"
            for config in (
                desk_dir() / "smc-resnet-2-1.ini",
                _edited_config(t, "global_batch = 3200", "global_batch = 64"),
            )
        )), "--out", str(t / "o"),
    ],
    "exclusion-reason-typo-fit": lambda t: [
        "fit", "--manifest", MANIFEST,
        "--exclusions", _written(t, "x.csv", _TYPO), "--out", str(t / "o"),
    ],
    "exclusion-reason-typo-evaluate": lambda t: [
        "evaluate", "--preset", "arch-fe",
        "--exclusions", _written(t, "x.csv", _TYPO),
    ],
    "evaluate-chip-tdp-over-node-tdp": lambda t: [
        "evaluate", "--preset", "arch-fe", "--tdp-chip-kw", "5",
    ],
    "evaluate-node-tdp-inf": lambda t: [
        "evaluate", "--preset", "arch-fe", "--tdp-node-kw", "inf",
        "--out", str(t / "o"),
    ],
    "evaluate-node-tdp-nan": lambda t: [
        "evaluate", "--preset", "arch-fe", "--tdp-node-kw", "nan",
    ],
    "evaluate-chip-tdp-inf": lambda t: [
        "evaluate", "--preset", "arch-fe", "--tdp-chip-kw", "inf",
    ],
    "evaluate-chip-tdp-nan": lambda t: [
        "evaluate", "--preset", "arch-fe", "--tdp-chip-kw", "nan",
    ],
    "scenario-node-tdp-below-model": lambda t: [
        "scenario", "--spec", FLEET, "--tdp-node-kw", "1",
    ],
    "reference-flops-zero": lambda t: [
        "flops", _edited_config(
            t, "reference_flops = 34600000000000.0", "reference_flops = 0"
        ),
    ],
    "interconnect-nan": lambda t: [
        "flops", _edited_config(
            t, "interconnect_total_kw = 0.0", "interconnect_total_kw = nan"
        ),
    ],
    "interconnect-inf-fit": lambda t: [
        "fit", "--manifest", _edited_manifest(
            t, "interconnect_total_kw = 0.0", "interconnect_total_kw = inf"
        ), "--out", str(t / "o"),
    ],
    "duration-inf-evaluate": lambda t: [
        "evaluate", "--preset", "arch-fe", "--manifest", _edited_manifest(
            t, "duration_h = 0.22", "duration_h = inf"
        ), "--out", str(t / "o"),
    ],
    "spec-pue-inf": lambda t: _edited_spec(t, "pue = 1.1", "pue = inf"),
    "spec-pue-nan": lambda t: _edited_spec(t, "pue = 1.1", "pue = nan"),
    "spec-duration-inf": lambda t: _edited_spec(
        t, "duration_days = 90", "duration_days = inf"
    ),
    "spec-swing-nan": lambda t: _edited_spec(
        t, "per_node_swing_kw = 2.4", "per_node_swing_kw = nan"
    ),
    "spec-intensity-inf": lambda t: _edited_spec(
        t, "grid_average = 428", "grid_average = inf"
    ),
    "intensity-below-one-operation-per-node": lambda t: [
        "predict", "--preset", "arch-fe", "--config", _edited_config(
            t, "flops_per_image_gflops = 3.6",
            "flops_per_image_gflops = 1e-15",
        ),
    ],
    "operation-count-beyond-float": lambda t: [
        "flops", _edited_config(
            t, "global_batch = 3200", "global_batch = " + "9" * 400
        ),
    ],
    "operation-count-infinite": lambda t: [
        "flops", _edited_config(
            t, "flops_per_image_gflops = 3.6",
            "flops_per_image_gflops = 1e300",
        ),
    ],
    "fit-out-is-a-file": lambda t: [
        "fit", "--manifest", MANIFEST, "--out", _written(t, "o", "x"),
    ],
}

# a non-finite value is named by its field, before anything reads it
NON_FINITE = {
    "interconnect-inf-fit": "interconnect_total_kw must be finite",
    "duration-inf-evaluate": "duration_h must be finite",
    "spec-pue-inf": "pue must be finite",
    "spec-pue-nan": "pue must be finite",
    "spec-duration-inf": "duration_days must be finite",
    "spec-swing-nan": "per_node_swing_kw must be finite",
    "spec-intensity-inf": "carbon intensity 'grid_average' must be finite",
}

# these crashed with a traceback before their readers raised typed errors;
# a fresh interpreter shows one again
IN_A_SUBPROCESS = ("model-unknown-parameter", "spec-without-section-header")


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_exits_3_with_one_line(case, tmp_path, capsys):
    argv = BAD_INPUT[case](tmp_path)
    if case in IN_A_SUBPROCESS:
        run = subprocess.run(
            [sys.executable, "-m", "nodepower.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        rc, err = run.returncode, run.stderr
    else:
        rc, err = main(argv), capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("nodepower: error: input: "), err
    assert NON_FINITE.get(case, "") in err, err
    assert err.count("\n") == 1 and err.endswith("\n"), err


def test_error_line_is_printable_ascii(tmp_path, capsys):
    assert main(BAD_INPUT["manifest-nul-byte"](tmp_path)) == 3
    line = capsys.readouterr().err.removesuffix("\n")
    assert "w\\x00.ini" in line, line
    assert line.isascii() and line.isprintable(), line


def test_trace_row_error_names_its_file(tmp_path, capsys):
    desk = tmp_path / "desk"
    shutil.copytree(desk_dir(), desk)
    trace = desk / "traces" / "smc-llama-70b-8.csv"
    lines = trace.read_text().split("\n")
    lines[4] = lines[4].rsplit(",", 1)[0] + ",-1.0"
    trace.write_text("\n".join(lines))
    argv = ["fit", "--manifest", str(desk / "manifest.csv"),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"nodepower: error: input: {trace}: line 5: non-positive power_kw "
        "(-1.0)\n"
    )


@pytest.mark.parametrize("rating, message", [
    ("nan", "--tdp-node-kw must be a positive, finite rating"),
    ("inf", "--tdp-node-kw must be a positive, finite rating"),
    ("0", "--tdp-node-kw must be a positive, finite rating"),
    ("-1", "--tdp-node-kw must be a positive, finite rating"),
    ("1", "node_tdp_kw (1.0) is below the modeled per-node power (7.3)"),
])
def test_scenario_node_rating_is_checked(rating, message, tmp_path, capsys):
    argv = ["scenario", "--spec", FLEET, f"--tdp-node-kw={rating}",
            "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("nodepower: error: input: " + message), err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "scenario.json").exists()


def test_internal_value_error_is_not_an_input_error(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("an internal bug")

    monkeypatch.setattr(fitmod, "two_stage_fit", broken)
    with pytest.raises(ValueError, match="an internal bug"):
        main(["fit", "--manifest", MANIFEST, "--out", str(tmp_path)])


# ---------------------------------------------------------------------------
# the bytes of --out files
# ---------------------------------------------------------------------------

GOLDEN_OUT = {
    "flops": ({
        "flops.csv": "cab943baad5bd9bd6536bc7b6611793f"
                     "5fad95e68a8fb203a67008639e256ec6",
    }, lambda: ["flops", *map(str, sorted(desk_dir().glob("*.ini")))]),
    "evaluate": ({
        "in-sample-comparisons.csv": "2446d2ab543baf3aa67702a6a5e0218a"
                                     "4fa91d7b35e2cdedfa4ff7d812748118",
        "mape.json": "548947cdc1db70f96805c5b04d3e3655"
                     "120e35aedc724838b193aa47eb1bd739",
        "validation-comparisons.csv": "5b2870a9cd3c483be33d1d51d8fe4f20"
                                      "d6d7d50a5f9c546929caeaabea6f24b9",
    }, lambda: ["evaluate", "--preset", "arch-fe", "--scope", "both"]),
    "scenario": ({
        "scenario.json": "be3480429e0794aae685d92a288738d2"
                         "561347e58925b3fc8f7f10574d3c4fa0",
    }, lambda: ["scenario", "--spec", FLEET]),
}


@pytest.mark.parametrize("command", GOLDEN_OUT)
def test_out_files_keep_their_bytes(command, tmp_path, capsys):
    want, argv = GOLDEN_OUT[command]
    assert main([*argv(), "--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
    }
    assert got == want
