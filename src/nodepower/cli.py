"""Command-line surface for the pipeline.

One subcommand per pipeline stage:

    flops      compute per-iteration and per-node FLOPs for workload configs
    fit        calibrate a model form against a trace manifest
    predict    evaluate a fitted or preset model on one workload config
    evaluate   score a model against measured energies and TDP baselines
    loocv      leave-one-workload-out stability of the shape stage
    scenario   fleet-scale energy / carbon / swing extrapolation

Commands are deterministic given identical inputs; the only timestamp lives
in the fitted model's provenance and can be pinned with ``--pin-timestamp``.
Errors print a single ``nodepower: error: <category>: <message>`` line on
stderr, with the category mapped to a stable exit code:

    2  usage (argparse)
    3  input (missing/invalid files, bad configs, bad traces, option values
       the model rejects, an output path that cannot be written)
    4  degenerate data (parameters not identifiable)
    5  non-convergence
    6  validation leakage
    7  unknown workload in an exclusion policy

Any other exception is a bug in the package and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .files import (
    ConfigError,
    DegenerateDataError,
    LeakageError,
    ModelForm,
    NonConvergenceError,
    TraceFormatError,
    UnknownWorkloadError,
    load_workload_config,
    with_compute,
    write_csv,
    write_json,
)
from .reference import DEFAULT_EXCLUSIONS, NODE_TDP_KW, PRESET_NAMES

# The modules that load numpy are imported by the commands that use them,
# so that flops and scenario run without it.
if TYPE_CHECKING:
    from . import evaluate as evalmod
    from . import fit as fitmod
    from . import model

__all__ = ["main"]

_CHIP_TDP_DEFAULT_KW = 0.7  # typical vendor board rating; not a measurement


# ---------------------------------------------------------------------------
# small output helpers
# ---------------------------------------------------------------------------

def _table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def _provenance_line(provenance: Mapping[str, Any]) -> str:
    return "provenance: " + json.dumps(
        provenance, sort_keys=True, default=str
    )


def _load_model_arg(args: argparse.Namespace) -> model.FittedModel:
    from . import model

    # argparse requires exactly one of --preset and --model
    if args.preset:
        return model.preset(args.preset)
    return model.load_model(args.model)


def _tdp_from_args(args: argparse.Namespace) -> model.TdpConfig:
    from . import model

    try:
        return model.TdpConfig(
            chip_tdp_kw=args.tdp_chip_kw, node_tdp_kw=args.tdp_node_kw
        )
    except ValueError as exc:
        raise ConfigError(
            f"--tdp-chip-kw/--tdp-node-kw: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_flops(args: argparse.Namespace) -> int:
    rows = []
    for config_path in args.configs:
        record = with_compute(load_workload_config(config_path))
        est = record.compute
        assert est is not None
        print(
            f"{record.workload_id}: {est.flops_per_iteration:.3e} flops/iter, "
            f"{est.flops_per_node:.3e} flops/node, "
            f"x = {est.log_intensity:.4f} (log10 flops per node)"
        )
        rows.append(
            (
                record.workload_id,
                repr(est.flops_per_iteration),
                repr(est.flops_per_node),
                repr(est.log_intensity),
            )
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "flops.csv",
            ("workload_id", "flops_per_iteration", "flops_per_node",
             "log10_intensity"),
            rows,
        )
    return 0


def _stage_rows(
    result: fitmod.FitResult,
) -> list[tuple[str, fitmod.FitResult, list[tuple]]]:
    """Each stage that ran, stage 1 first, with each of its parameters
    once: name, ``free`` or ``fixed``, value, and the robust SE, t and p of
    a free one (NaN where standard errors were not computed)."""
    nan = float("nan")
    stages = []
    for stage_name, stage in (("stage1", result.stage1), ("stage2", result)):
        if stage is None:
            continue
        stats = (stage.robust_se, stage.t_value, stage.p_value)
        rows = [
            (name, "free", stage.estimates[name],
             [stat.get(name, nan) for stat in stats])
            for name in stage.param_order
        ]
        rows += [(name, "fixed", v, []) for name, v in stage.fixed.items()]
        stages.append((stage_name, stage, rows))
    return stages


def _fit_report_text(
    result: fitmod.FitResult,
    config: fitmod.FitConfig,
    dataset_sha: str,
    fitted: model.FittedModel,
    stages: list[tuple[str, fitmod.FitResult, list[tuple]]],
) -> str:
    lines = [
        "two-stage fit report",
        "--------------------",
        f"form: {result.form.value}",
        f"dataset sha256: {dataset_sha}",
        f"workloads (after exclusions): {result.clusters}",
        f"observations: {result.observations}",
        "exclusions: "
        + (
            ", ".join(f"{wid} ({reason})" for wid, reason in result.exclusions)
            or "none"
        ),
        "",
    ]
    titles = {
        "stage1": "stage 1 (shape; idle {0:g} kW, magnitude {1:g} kW pinned)"
        .format(config.stage1_p_idle_kw, config.stage1_beta_kw),
        "stage2": f"stage 2 (magnitudes; shape pinned, idle "
        f"{config.stage2_p_idle_kw:g} kW)",
    }
    for stage_name, stage, rows in stages:
        lines.append(titles[stage_name])
        lines.append(_table(
            ("parameter", "estimate", "robust SE", "t", "p"),
            [
                (name, f"{value:.6g}",
                 *([f"{v:.4g}" for v in stats] or ["(fixed)", "", ""]))
                for name, _, value, stats in rows
            ],
        ))
        lines.append(f"weighted SSE: {stage.weighted_sse:.6g}")
        lines.append("")
    lines.append(f"created: {fitted.provenance.get('created_utc', 'unpinned')}")
    lines.append(_provenance_line(fitted.provenance))
    lines.append("")
    return "\n".join(lines)


def cmd_fit(args: argparse.Namespace) -> int:
    from . import fit as fitmod
    from . import ingest, model

    _, dataset = ingest.load_and_assemble(args.manifest)
    exclusions = (
        ingest.load_exclusions(args.exclusions) if args.exclusions else ()
    )
    form = ModelForm.from_string(args.form)
    config = fitmod.FitConfig(exclusions=exclusions)
    result = fitmod.two_stage_fit(dataset, form, config)
    sha = dataset.sha256()
    fitted = fitmod.to_fitted_model(
        result,
        dataset=dataset,
        dataset_sha256=sha,
        created_utc=args.pin_timestamp,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / f"model-{form.value}.json"
    model.save_model(fitted, model_path)

    stages = _stage_rows(result)
    report = _fit_report_text(result, config, sha, fitted, stages)
    (out / "fit-report.txt").write_text(report, encoding="utf-8")
    write_csv(
        out / "fit-report.csv",
        ("stage", "parameter", "kind", "estimate", "robust_se", "t_value",
         "p_value"),
        [
            (stage_name, name, kind, repr(value),
             *([repr(v) for v in stats] or ["", "", ""]))
            for stage_name, _, rows in stages
            for name, kind, value, stats in rows
        ],
    )

    sys.stdout.write(report)
    print(f"model file: {model_path}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    fitted = _load_model_arg(args)
    record = with_compute(load_workload_config(args.config))
    est = record.compute
    assert est is not None
    power = fitted.power_kw(est.log_intensity, arch=record.architecture)
    energy = fitted.energy_kwh(
        est.log_intensity, record.architecture, record.nodes,
        record.duration_h,
    )
    print(f"workload: {record.workload_id} ({record.architecture}, "
          f"{record.nodes} nodes, {record.duration_h:g} h)")
    print(f"intensity: x = {est.log_intensity:.4f} (log10 flops per node)")
    print(f"predicted node power: {power:.4f} kW")
    print(f"predicted IT energy:  {energy:.4f} kWh")
    print(_provenance_line(fitted.provenance))
    return 0


def _comparison_rows_text(
    comparisons: Iterable[evalmod.EnergyComparison],
) -> str:
    rows = [
        (
            c.workload_id,
            f"{c.measured_kwh:.2f}",
            f"{c.model_kwh:.2f}",
            f"{c.chip_tdp_kwh:.2f}",
            f"{c.node_tdp_kwh:.2f}",
            f"{c.normalized['model'] * 100:.1f}%",
            f"{c.normalized['chip_tdp'] * 100:.1f}%",
            f"{c.normalized['node_tdp'] * 100:.1f}%",
        )
        for c in comparisons
    ]
    return _table(
        ("workload", "measured kWh", "model kWh", "chip-TDP kWh",
         "node-TDP kWh", "model", "chip", "node"),
        rows,
    )


# evaluate's scopes, in print order: (comparison CSV, mape.json key prefix)
_EVAL_SCOPES = {
    "in-sample": ("in-sample-comparisons.csv", "in_sample"),
    "validation": ("validation-comparisons.csv", "out_of_sample"),
}


def _in_sample_workloads(
    args: argparse.Namespace,
) -> tuple[tuple[evalmod.EvalWorkload, ...], str]:
    """The in-sample workloads and a note on where their measured figures
    come from. ``--exclusions`` replaces the default policy: the shipped
    one for the published tables, none for a manifest."""
    from . import evaluate as evalmod
    from . import ingest

    if args.manifest:
        candidates = [
            evalmod.EvalWorkload.from_record(r, ingest.summarize_workload(r))
            for r in map(with_compute, ingest.load_manifest(args.manifest))
        ]
        policy, note = (), f"trace-derived summaries ({args.manifest})"
    else:
        candidates, policy, note = None, DEFAULT_EXCLUSIONS, (
            "published summary tables"
        )
    if args.exclusions:
        policy = ingest.load_exclusions(args.exclusions)
    workloads = evalmod.in_sample_workloads(policy, candidates)
    if not workloads:
        raise ConfigError(
            "no in-sample workloads are left after the leakage exclusions"
        )
    return workloads, note


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import evaluate as evalmod

    fitted = _load_model_arg(args)
    tdp = _tdp_from_args(args)

    reports: dict[str, evalmod.ValidationReport] = {}
    for scope in _EVAL_SCOPES:
        if args.scope not in (scope, "both"):
            continue
        if scope == "in-sample":
            workloads, data_note = _in_sample_workloads(args)
            report = evalmod.in_sample_report(fitted, tdp, workloads)
            print(f"in-sample comparison ({data_note}):")
        else:
            report = evalmod.validation_report(fitted, tdp)
            print("out-of-sample comparison (published summary tables):")
        reports[scope] = report
        print(_comparison_rows_text(report.comparisons))
        m = report.mape_report.mape
        print(
            f"MAPE: model {m['model']:.2f}%  chip-TDP {m['chip_tdp']:.2f}%  "
            f"node-TDP {m['node_tdp']:.2f}%"
        )
        print()

    print(
        f"TDP baselines: chip {tdp.chip_tdp_kw:g} kW/GPU x "
        f"{tdp.gpus_per_node} GPUs, node {tdp.node_tdp_kw:g} kW"
    )
    print(_provenance_line(fitted.provenance))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        doc: dict[str, Any] = {"tdp": {
            "chip_tdp_kw": tdp.chip_tdp_kw,
            "node_tdp_kw": tdp.node_tdp_kw,
            "gpus_per_node": tdp.gpus_per_node,
        }, "model_provenance": dict(fitted.provenance)}
        for scope, report in reports.items():
            csv_name, key = _EVAL_SCOPES[scope]
            evalmod.write_comparison_table(report.comparisons, out / csv_name)
            doc[f"{key}_mape"] = report.mape_report.mape
            doc[f"{key}_per_workload"] = report.mape_report.per_workload
        write_json(out / "mape.json", doc)
    return 0


def cmd_loocv(args: argparse.Namespace) -> int:
    from . import fit as fitmod
    from . import ingest

    _, dataset = ingest.load_and_assemble(args.manifest)
    if args.exclusions:
        dataset = fitmod.apply_exclusions(
            dataset, ingest.load_exclusions(args.exclusions)
        )
    form = ModelForm.from_string(args.form)
    report = fitmod.loocv(dataset, form)

    print(f"leave-one-workload-out, shape stage, form {form.value}")
    print(f"dataset sha256: {dataset.sha256()}")
    rows = [
        (wid, *(f"{report.per_holdout[wid][p]:.4f}" for p in report.parameters))
        for wid in report.per_holdout
    ]
    print(_table(("holdout", *report.parameters), rows))
    for p in report.parameters:
        print(
            f"{p}: mean {report.mean[p]:.4f}, sd {report.sd[p]:.4f}, "
            f"CoV {report.cov_percent[p]:.1f}%  "
            f"(most divergent holdout: {report.most_divergent[p]})"
        )
    print(
        "flagged outliers (> 2 SD): "
        + (", ".join(report.flagged_outliers) or "none")
    )

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "loocv-holdouts.csv",
            ("holdout_workload_id", "parameter", "estimate"),
            [
                (wid, p, repr(report.per_holdout[wid][p]))
                for wid in report.per_holdout
                for p in report.parameters
            ],
        )
        write_csv(
            out / "loocv-summary.csv",
            ("parameter", "mean", "sd", "cov_percent", "most_divergent"),
            [
                (
                    p, repr(report.mean[p]), repr(report.sd[p]),
                    repr(report.cov_percent[p]), report.most_divergent[p],
                )
                for p in report.parameters
            ],
        )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from . import scenario

    if not 0 < args.tdp_node_kw < math.inf:
        raise ConfigError(
            f"--tdp-node-kw must be a positive, finite rating in kW, got "
            f"{args.tdp_node_kw}"
        )
    spec = scenario.load_scenario_spec(args.spec)
    if args.loss_convention:
        spec = replace(spec, loss_convention=args.loss_convention)
    try:
        result = scenario.run_scenario(spec, node_tdp_kw=args.tdp_node_kw)
    except ValueError as exc:  # a node rating below the modeled power
        raise ConfigError(str(exc)) from exc
    sys.stdout.write(
        scenario.format_scenario_report(
            spec, result, provenance={"spec_file": str(args.spec)}
        )
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(
            out / "scenario.json",
            scenario.scenario_result_document(spec, result),
        )
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodepower",
        description="Power and energy models for AI training workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flops", help="FLOP accounting for workload configs")
    p.add_argument("configs", nargs="+", help="workload config files")
    p.add_argument("--out", help="directory for the machine-readable table")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("fit", help="two-stage calibration on a manifest")
    p.add_argument("--manifest", required=True,
                   help="CSV manifest of (config, trace) pairs")
    p.add_argument("--exclusions",
                   help="CSV exclusion policy (workload_id, reason)")
    p.add_argument("--form", default=ModelForm.LOG_ASYMPTOTIC_ARCH_FE.value,
                   choices=[f.value for f in ModelForm])
    p.add_argument("--out", default=".",
                   help="output directory (default: current directory)")
    p.add_argument("--pin-timestamp", metavar="ISO8601",
                   help="pin the provenance timestamp for reproducible files")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict power/energy for one config")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model", help="fitted model file")
    g.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--config", required=True, help="workload config file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "evaluate", help="score a model against measured energies"
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--model", help="fitted model file")
    g.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--scope", default="both",
                   choices=["in-sample", "validation", "both"])
    p.add_argument("--manifest",
                   help="score against trace-derived summaries instead of "
                        "the published tables (in-sample only)")
    p.add_argument("--exclusions",
                   help="exclusion policy; its leakage entries are dropped "
                        "from the in-sample set (default: the shipped policy "
                        "for the published tables, none for --manifest)")
    p.add_argument("--tdp-chip-kw", type=float, default=_CHIP_TDP_DEFAULT_KW,
                   help="per-GPU rated power, kW (default 0.7, a typical "
                        "vendor board rating)")
    p.add_argument("--tdp-node-kw", type=float, default=NODE_TDP_KW,
                   help=f"node rated power, kW (default {NODE_TDP_KW})")
    p.add_argument("--out", help="directory for machine-readable tables")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("loocv", help="leave-one-workload-out stability")
    p.add_argument("--manifest", required=True)
    p.add_argument("--exclusions",
                   help="drop these workloads before the holdout scan")
    p.add_argument("--form", default=ModelForm.LOG_ASYMPTOTIC.value,
                   choices=[f.value for f in ModelForm])
    p.add_argument("--out", help="directory for machine-readable tables")
    p.set_defaults(func=cmd_loocv)

    p = sub.add_parser("scenario", help="fleet-scale extrapolation")
    p.add_argument("--spec", required=True, help="scenario spec file (INI)")
    p.add_argument("--tdp-node-kw", type=float, default=NODE_TDP_KW,
                   help="node rating for the counterfactual, kW "
                        f"(default {NODE_TDP_KW})")
    p.add_argument("--loss-convention", choices=["divide", "multiply"],
                   help="override the spec's conversion-loss convention")
    p.add_argument("--out", help="directory for the machine-readable result")
    p.set_defaults(func=cmd_scenario)

    return parser


def _error(category: str, exc: BaseException) -> int:
    message = " ".join(str(exc).split()) or exc.__class__.__name__
    # a control character (a NUL in a path, say) is shown escaped
    message = "".join(
        c if c.isprintable() else ascii(c)[1:-1] for c in message
    )
    print(f"nodepower: error: {category}: {message}", file=sys.stderr)
    return _EXIT_CODES[category]


_EXIT_CODES = {
    "input": 3,
    "degenerate-data": 4,
    "non-convergence": 5,
    "leakage": 6,
    "unknown-workload": 7,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownWorkloadError as exc:
        return _error("unknown-workload", exc)
    except DegenerateDataError as exc:
        return _error("degenerate-data", exc)
    except NonConvergenceError as exc:
        return _error("non-convergence", exc)
    except LeakageError as exc:
        return _error("leakage", exc)
    except (TraceFormatError, ConfigError, OSError) as exc:
        return _error("input", exc)


if __name__ == "__main__":
    raise SystemExit(main())
