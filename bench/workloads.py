"""The benchmark's workloads: their inputs, timed operations and checks.

Each workload is a closed loop with one client: one operation at a time
from one process. CLI operations are fresh ``python -m nodepower.cli``
processes; the others call the package's public functions in-process.
Every operation checks its output; a raise, a non-zero exit or a failed
check counts as a failed operation.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import gen
from tracing import FORMS, LOOCV_FORMS

PIN_TIMESTAMP = "2025-01-01T00:00:00+00:00"
CLI_TIMEOUT_S = 170

# The published arch-fe preset, which ``predict`` and ``evaluate`` score.
PRESET_P_IDLE_KW = 1.86
PRESET_BETA_KW = {"llm": 6.89, "cnn": 6.28}
PRESET_ALPHA = 5.11
NODE_TDP_KW = 10.2  # the CLI's default node rating for ``scenario``

# Recovery tolerance of the anchored arch-fe fit's magnitudes on generated
# data. At 4k-77k rows with 0.35 kW noise the errors are a few hundredths
# of a kW, so this leaves a wide margin.
BETA_TOL_KW = 0.1
SSE_RTOL = 1e-9
PRINTED_TOL = 1e-4  # the CLI prints x and kW with four decimals

DESK_PREDICT_CONFIG = "smc-llama-70b-64.ini"
DESK_PREDICT_SHAPE = ("llm", 64, (8192, 80, 4096, 32000, 64))


class CheckFailed(Exception):
    """An operation ran but its output was wrong."""


@dataclass
class Inputs:
    """What one workload reads: data files and their sizes."""

    manifest: Path
    exclusions: Path
    configs: tuple[Path, ...]
    predict_config: Path
    predict_shape: tuple
    workloads: int
    excluded: int
    rows: int
    bytes: int
    truth_sse: float | None = None
    flops_x: dict[str, float] = field(default_factory=dict)

    def sizes(self) -> dict[str, int]:
        return {"workloads": self.workloads, "excluded": self.excluded,
                "rows": self.rows, "bytes": self.bytes}


def _data_lines(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines()[1:] if line)


def make_inputs(kind: str, seed: int, root: Path, directory: Path) -> Inputs:
    if kind == "desk":
        desk = root / "src" / "nodepower" / "data" / "desk"
        traces = sorted((desk / "traces").glob("*.csv"))
        configs = tuple(sorted(desk.glob("*.ini")))
        exclusions = desk / "exclusions.csv"
        return Inputs(
            manifest=desk / "manifest.csv",
            exclusions=exclusions,
            configs=configs,
            predict_config=desk / DESK_PREDICT_CONFIG,
            predict_shape=DESK_PREDICT_SHAPE,
            workloads=len(configs),
            excluded=_data_lines(exclusions),
            rows=sum(_data_lines(p) for p in traces),
            bytes=sum(p.stat().st_size for p in (*traces, *configs)),
        )
    made = gen.generate(kind, seed, directory)
    first = made.specs[0]
    return Inputs(
        manifest=made.manifest,
        exclusions=made.exclusions,
        configs=made.configs,
        predict_config=made.configs[0],
        predict_shape=(first.arch, first.nodes, first.params),
        workloads=made.workloads,
        excluded=_data_lines(made.exclusions),
        rows=made.rows,
        bytes=made.bytes,
        truth_sse=made.truth_sse,
        flops_x={
            w.workload_id: gen.log_intensity(w.arch, w.nodes, w.params)
            for w in made.specs
        },
    )


def preset_power_kw(arch: str, x: float) -> float:
    return PRESET_P_IDLE_KW + PRESET_BETA_KW[arch] * x / (PRESET_ALPHA + x)


def scenario_closed_form(spec_path: Path) -> dict:
    """The scenario result for ``spec_path``, by the arithmetic the package
    documents: IT energy, facility overheads (divide convention), carbon per
    basis, the node-rating gap and the synchronized swing."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    parser.read(spec_path)
    sec = parser["scenario"]
    if sec.get("loss_convention", "divide") != "divide":
        raise CheckFailed("closed form covers the divide convention only")
    nodes = sec.getint("nodes")
    hours = sec.getfloat("duration_days") * 24.0
    overhead = sec.getfloat("pue", 1.0) / (
        1.0 - sec.getfloat("conversion_loss_fraction", 0.0)
    )
    intensity = {
        k: float(v) for k, v in parser.items("carbon_intensity_kg_per_mwh")
    }
    it = nodes * sec.getfloat("per_node_power_kw") * hours / 1e6
    facility = it * overhead
    rated = nodes * NODE_TDP_KW * hours / 1e6 * overhead
    gap = rated - facility
    return {
        "it_energy_gwh": it,
        "facility_energy_gwh": facility,
        "emissions_tonnes": {k: facility * v for k, v in intensity.items()},
        "node_tdp_kw": NODE_TDP_KW,
        "tdp_facility_energy_gwh": rated,
        "energy_gap_gwh": gap,
        "emissions_gap_tonnes": {k: gap * v for k, v in intensity.items()},
        "aggregate_swing_mw": nodes * sec.getfloat("per_node_swing_kw") / 1e3,
    }


def _close(got, want, path: str = "") -> None:
    if isinstance(want, dict):
        if set(got) != set(want):
            raise CheckFailed(f"{path}: keys {sorted(got)} != {sorted(want)}")
        for key in want:
            _close(got[key], want[key], f"{path}.{key}")
    elif not math.isclose(got, want, rel_tol=1e-9):
        raise CheckFailed(f"{path}: {got!r} != closed form {want!r}")


def _printed(pattern: str, text: str) -> float:
    match = re.search(pattern, text)
    if match is None:
        raise CheckFailed(f"no {pattern!r} in output")
    return float(match.group(1))


class Session:
    """Runs one workload's operations; every call checks its own output."""

    def __init__(self, root: Path, inputs: Inputs, scratch: Path) -> None:
        self.inputs = inputs
        self.scratch = scratch
        self.fleet = root / "demos" / "fleet.ini"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._fit_files: dict[str, bytes] | None = None
        self._calls = 0

    # -- CLI, fresh processes ---------------------------------------------

    def _argv(self, command: str) -> list[str]:
        i = self.inputs
        self._calls += 1
        out = str(self.scratch / f"{command}-{self._calls}")
        data = ["--manifest", str(i.manifest), "--exclusions", str(i.exclusions)]
        return {
            "fit": ["fit", *data, "--form", "arch-fe", "--out", out,
                    "--pin-timestamp", PIN_TIMESTAMP],
            "loocv": ["loocv", "--form", "sigmoid", *data],
            "evaluate": ["evaluate", "--preset", "arch-fe", "--scope", "both",
                         *data, "--out", out],
            "predict": ["predict", "--preset", "arch-fe", "--config",
                        str(i.predict_config)],
            "scenario": ["scenario", "--spec", str(self.fleet), "--out", out],
            "flops": ["flops", *map(str, i.configs)],
        }[command]

    def cli(self, command: str, spans: Path | None = None) -> tuple[float, str]:
        """Run one command as a fresh process; wall seconds and stderr.

        With ``spans``, the process runs under ``-X importtime`` through
        ``child.py``, which installs the layer wrappers and writes spans.
        """
        argv = self._argv(command)
        if spans is None:
            prefix = ["-m", "nodepower.cli"]
        else:
            prefix = ["-X", "importtime",
                      str(Path(__file__).with_name("child.py")), "cli",
                      str(spans)]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *prefix, *argv], env=self.env, cwd=self.scratch,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise CheckFailed(
                f"{command} exited {proc.returncode}: {tail[0]}"
            )
        getattr(self, f"_check_{command}")(argv, proc.stdout)
        return elapsed, proc.stderr

    def _check_fit(self, argv: list[str], stdout: str) -> None:
        out = Path(argv[argv.index("--out") + 1])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        doc = json.loads(files["model-arch-fe.json"])
        if doc["provenance"].get("converged") is not True:
            raise CheckFailed("fit: model provenance is not converged")
        if self._fit_files is None:
            self._fit_files = files
        else:
            shutil.rmtree(out)
            if files != self._fit_files:
                raise CheckFailed("fit: --out differs from the first repeat")

    def _check_loocv(self, argv: list[str], stdout: str) -> None:
        lines = stdout.splitlines()
        start = next(
            (n for n, line in enumerate(lines) if line.startswith("---")),
            None,
        )
        if start is None:
            raise CheckFailed("loocv: no holdout table")
        rows = []
        for line in lines[start + 1:]:
            if ": mean" in line:
                break
            rows.append(line.split())
        expected = self.inputs.workloads - self.inputs.excluded
        if len(rows) != expected or not all(
            math.isfinite(float(v)) for row in rows for v in row[1:]
        ):
            raise CheckFailed(
                f"loocv: {len(rows)} holdout rows, expected {expected} finite"
            )

    def _check_evaluate(self, argv: list[str], stdout: str) -> None:
        """MAPE ordering model < chip-TDP < node-TDP on the published
        validation tables and on the desk set. Generated data follow the
        benchmark's curve, not the preset's (its CNN magnitude is lower), so
        there the model need only beat the node rating."""
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads((out / "mape.json").read_text())
        shutil.rmtree(out)
        for scope in ("in_sample_mape", "out_of_sample_mape"):
            m = doc[scope]
            if scope == "out_of_sample_mape" or self.inputs.truth_sse is None:
                ordered = m["model"] < m["chip_tdp"] < m["node_tdp"]
            else:
                ordered = m["model"] < m["node_tdp"]
            if not ordered:
                raise CheckFailed(f"evaluate: {scope} ordering {m}")

    def _check_predict(self, argv: list[str], stdout: str) -> None:
        arch, nodes, params = self.inputs.predict_shape
        x = gen.log_intensity(arch, nodes, params)
        got_x = _printed(r"intensity: x = (\S+)", stdout)
        power = _printed(r"predicted node power: (\S+) kW", stdout)
        if abs(got_x - x) > PRINTED_TOL:
            raise CheckFailed(f"predict: x = {got_x}, expected {x:.4f}")
        if abs(power - preset_power_kw(arch, x)) > PRINTED_TOL:
            raise CheckFailed(f"predict: {power} kW, expected "
                              f"{preset_power_kw(arch, x):.4f}")

    def _check_scenario(self, argv: list[str], stdout: str) -> None:
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads((out / "scenario.json").read_text())
        shutil.rmtree(out)
        _close(doc["result"], scenario_closed_form(self.fleet), "scenario")

    def _check_flops(self, argv: list[str], stdout: str) -> None:
        printed = dict(
            re.findall(r"^(\S+): .* x = (\S+) ", stdout, flags=re.MULTILINE)
        )
        if len(printed) != len(self.inputs.configs):
            raise CheckFailed(
                f"flops: {len(printed)} lines for "
                f"{len(self.inputs.configs)} configs"
            )
        for wid, x in self.inputs.flops_x.items():
            if abs(float(printed[wid]) - x) > PRINTED_TOL:
                raise CheckFailed(f"flops: {wid} x = {printed[wid]}, "
                                  f"expected {x:.4f}")

    # -- in-process ---------------------------------------------------------

    def calibrate(self):
        """Timed manifest -> fitted models path; returns (seconds, excluded
        dataset, fitted models). This is ``nodepower fit`` minus import, for
        all four forms."""
        from nodepower import fit, flops, ingest, model

        start = time.perf_counter()
        with warnings.catch_warnings():
            # the desk set's recorded count for one run disagrees by design
            warnings.simplefilter("ignore", flops.FlopsMismatchWarning)
            _, dataset = ingest.load_and_assemble(self.inputs.manifest)
        exclusions = ingest.load_exclusions(self.inputs.exclusions)
        excluded = fit.apply_exclusions(dataset, exclusions)
        sha = dataset.sha256()
        results = {}
        fitted = {}
        for form in FORMS:
            results[form] = fit.two_stage_fit(
                dataset, model.ModelForm.from_string(form),
                fit.FitConfig(exclusions=exclusions),
            )
            fitted[form] = fit.to_fitted_model(
                results[form], dataset=dataset, dataset_sha256=sha,
                created_utc=PIN_TIMESTAMP,
            )
        elapsed = time.perf_counter() - start
        for form, result in results.items():
            if not result.converged:
                raise CheckFailed(f"calibrate: {form} did not converge")
        return elapsed, excluded, fitted

    def loocv(self, excluded) -> float:
        from nodepower import fit, model

        start = time.perf_counter()
        reports = [
            fit.loocv(excluded, model.ModelForm.from_string(form))
            for form in LOOCV_FORMS
        ]
        elapsed = time.perf_counter() - start
        expected = self.inputs.workloads - self.inputs.excluded
        for form, report in zip(LOOCV_FORMS, reports):
            values = [v for row in report.per_holdout.values()
                      for v in row.values()]
            if len(report.per_holdout) != expected or not all(
                math.isfinite(v) for v in values
            ):
                raise CheckFailed(
                    f"loocv {form}: {len(report.per_holdout)} rows, "
                    f"expected {expected} finite"
                )
        return elapsed

    def model_round_trip(self, fitted) -> None:
        """Fitted model files read back to the same model."""
        from nodepower import model

        for form, m in fitted.items():
            path = self.scratch / f"model-{form}.json"
            model.save_model(m, path)
            back = model.load_model(path)
            if back.params != m.params or back.form != m.form:
                raise CheckFailed(f"model file round trip changed {form}")

    def anchored_truth_fit(self) -> None:
        """With the shape and idle anchored at the generating truth, the
        arch-fe fit recovers the true magnitudes and reaches at most the
        weighted SSE of the true curve."""
        from nodepower import fit, ingest, model

        _, dataset = ingest.load_and_assemble(self.inputs.manifest)
        result = fit.two_stage_fit(
            dataset, model.ModelForm.from_string("arch-fe"),
            fit.FitConfig(
                exclusions=ingest.load_exclusions(self.inputs.exclusions),
                shape_override={"alpha": gen.ALPHA},
                stage2_p_idle_kw=gen.P_IDLE_KW,
            ),
        )
        problems = [] if result.converged else ["not converged"]
        for arch in ("llm", "cnn"):
            got = result.estimates[f"beta_{arch}_kw"]
            if abs(got - gen.BETA_KW[arch]) > BETA_TOL_KW:
                problems.append(f"beta_{arch}_kw {got:.4f} vs "
                                f"{gen.BETA_KW[arch]}")
        if result.weighted_sse > self.inputs.truth_sse * (1.0 + SSE_RTOL):
            problems.append(f"SSE {result.weighted_sse!r} above the truth's "
                            f"{self.inputs.truth_sse!r}")
        if problems:
            raise CheckFailed("anchored arch-fe fit: " + "; ".join(problems))
