"""In-memory spans at the package's layer boundaries.

The traced run wraps public module attributes and class methods of
``nodepower`` in the traced process only, so nested calls (for example
``loocv`` -> ``wnls_fit`` -> ``build_weights``) are attributed to their
callers. Nothing under ``src/`` changes. A name that a later version of the
package removes or renames is skipped and shows up as an absent span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    name: str
    label: str
    start: float
    end: float
    parent: int | None
    run_id: str
    path: str = ""


def _form_label(args: tuple, kwargs: dict) -> str:
    form = args[1] if len(args) > 1 else kwargs.get("form")
    return str(getattr(form, "value", form))


def _command_label(args: tuple, kwargs: dict) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return str(argv[0]) if argv else "none"


def _path_arg(args: tuple, kwargs: dict) -> str:
    """The trace file a parse call read ("" for a stream)."""
    source = args[0] if args else kwargs.get("path_or_stream")
    return str(source) if isinstance(source, (str, Path)) else ""


def _file_size(path: str) -> tuple[int, int]:
    """Data rows and bytes of a trace file, measured after the run."""
    if not path:
        return 0, 0
    data = Path(path).read_bytes()
    return max(data.count(b"\n") - 1, 0), len(data)


# (module, attribute path, span name, labeller, path recorder)
TARGETS: tuple[tuple[str, str, str, Any, Any], ...] = (
    ("nodepower.cli", "main", "cli.main", _command_label, None),
    ("nodepower.ingest", "parse_trace_file", "ingest.parse_trace_file",
     None, _path_arg),
    ("nodepower.ingest", "load_workload_config", "ingest.load_workload_config",
     None, None),
    ("nodepower.ingest", "assemble_dataset", "ingest.assemble_dataset",
     None, None),
    ("nodepower.ingest", "summarize_workload", "ingest.summarize_workload",
     None, None),
    ("nodepower.ingest", "RegressionDataset.sha256", "ingest.sha256",
     None, None),
    ("nodepower.ingest", "RegressionDataset.drop", "ingest.drop", None, None),
    ("nodepower.ingest", "RegressionDataset.subset", "ingest.drop", None, None),
    ("nodepower.ingest", "RegressionDataset.workloads", "ingest.workloads",
     None, None),
    ("nodepower.flops", "estimate", "flops.estimate", None, None),
    ("nodepower.fit", "two_stage_fit", "fit.two_stage_fit", _form_label, None),
    ("nodepower.fit", "wnls_fit", "fit.wnls_fit", None, None),
    ("nodepower.fit", "build_weights", "fit.build_weights", None, None),
    ("nodepower.fit", "cluster_robust_covariance",
     "fit.cluster_robust_covariance", None, None),
    ("nodepower.fit", "loocv", "fit.loocv", _form_label, None),
    ("nodepower.fit", "apply_exclusions", "fit.apply_exclusions", None, None),
    ("nodepower.fit", "to_fitted_model", "fit.to_fitted_model", None, None),
    ("nodepower.model", "preset", "model.preset", None, None),
    ("nodepower.model", "save_model", "model.save_model", None, None),
    ("nodepower.model", "load_model", "model.load_model", None, None),
    ("nodepower.evaluate", "in_sample_report", "evaluate.in_sample_report",
     None, None),
    ("nodepower.evaluate", "validation_report", "evaluate.validation_report",
     None, None),
    ("nodepower.evaluate", "write_comparison_table",
     "evaluate.write_comparison_table", None, None),
    ("nodepower.scenario", "load_scenario_spec", "scenario.load_scenario_spec",
     None, None),
    ("nodepower.scenario", "run_scenario", "scenario.run_scenario", None, None),
    ("nodepower.scenario", "format_scenario_report",
     "scenario.format_scenario_report", None, None),
)

FORMS = ("simple", "asymptotic", "arch-fe", "sigmoid")
LOOCV_FORMS = ("asymptotic", "sigmoid")
COMMANDS = ("fit", "loocv", "evaluate", "predict", "scenario", "flops")
LAYERS = ("cli", "ingest", "flops", "fit", "model", "evaluate", "scenario")


class Tracer:
    """Records spans in memory; ``install`` wraps the package's layers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self.absent: list[str] = []

    def _wrap(self, fn: Callable, name: str, labeller, pather) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                len(self.spans), name,
                labeller(args, kwargs) if labeller else "", 0.0, 0.0,
                self._stack[-1] if self._stack else None, self.run_id,
                pather(args, kwargs) if pather else "",
            )
            self.spans.append(span)
            self._stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        for module_name, path, name, labeller, pather in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (AttributeError, KeyError):
                original = None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, labeller, pather))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def load_spans(path: Path) -> list[Span]:
    return [Span(**d) for d in json.loads(path.read_text())]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from spans of one or more runs.

    ``<name>.s`` sums inclusive durations of the outermost spans of a name
    (a ``subset`` inside ``drop`` is not counted twice); ``<layer>.self_s``
    is the time spans of that module spent outside their child spans.
    """
    by_key = {(s.run_id, s.span_id): s for s in spans}
    children: dict[tuple[str, int], list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault((s.run_id, s.parent), []).append(s)

    def dur(s: Span) -> float:
        return s.end - s.start

    def nested_in_same(s: Span) -> bool:
        parent = by_key.get((s.run_id, s.parent)) if s.parent is not None \
            else None
        return parent is not None and parent.name == s.name

    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        if nested_in_same(s):
            continue
        key = f"{s.name}.{s.label}" if s.label else s.name
        totals[key] = totals.get(key, 0.0) + dur(s)
        calls[key] = calls.get(key, 0) + 1

    def total(key: str) -> float:
        return totals.get(key, 0.0)

    m: dict[str, float] = {}
    for cmd in COMMANDS:
        m[f"cli.{cmd}.main_s"] = total(f"cli.main.{cmd}")
    parse = [s for s in spans if s.name == "ingest.parse_trace_file"]
    m["ingest.parse_trace_file.s"] = total("ingest.parse_trace_file")
    m["ingest.parse_trace_file.calls"] = len(parse)
    sizes = [_file_size(s.path) for s in parse]
    m["ingest.parse_trace_file.rows"] = sum(r for r, _ in sizes)
    m["ingest.parse_trace_file.bytes"] = sum(b for _, b in sizes)
    parse_s = m["ingest.parse_trace_file.s"]
    m["ingest.rows_per_s"] = (
        m["ingest.parse_trace_file.rows"] / parse_s if parse_s > 0 else 0.0
    )
    for name in ("load_workload_config", "assemble_dataset",
                 "summarize_workload"):
        m[f"ingest.{name}.s"] = total(f"ingest.{name}")
    for name in ("sha256", "drop", "workloads"):
        m[f"ingest.{name}.s"] = total(f"ingest.{name}")
        m[f"ingest.{name}.calls"] = calls.get(f"ingest.{name}", 0)
    m["flops.estimate.s"] = total("flops.estimate")
    m["flops.estimate.calls"] = calls.get("flops.estimate", 0)

    stage = {(i, f): 0.0 for i in (1, 2) for f in FORMS}
    for s in spans:
        if s.name != "fit.two_stage_fit":
            continue
        fits = sorted(
            (c for c in children.get((s.run_id, s.span_id), [])
             if c.name == "fit.wnls_fit"),
            key=lambda c: c.start,
        )
        # stage 1 is skipped when a shape override is given
        for index, c in zip((1, 2) if len(fits) > 1 else (2,), fits):
            if s.label in FORMS:
                stage[(index, s.label)] += dur(c)
    for form in FORMS:
        m[f"fit.two_stage_fit.{form}.s"] = total(f"fit.two_stage_fit.{form}")
        m[f"fit.stage1.{form}.s"] = stage[(1, form)]
        m[f"fit.stage2.{form}.s"] = stage[(2, form)]
    m["fit.wnls_fit.calls"] = calls.get("fit.wnls_fit", 0)
    m["fit.build_weights.s"] = total("fit.build_weights")
    m["fit.cluster_robust_covariance.s"] = total("fit.cluster_robust_covariance")
    m["fit.cluster_robust_covariance.calls"] = calls.get(
        "fit.cluster_robust_covariance", 0
    )
    for form in LOOCV_FORMS:
        m[f"fit.loocv.{form}.s"] = total(f"fit.loocv.{form}")
    m["fit.loocv.holdouts"] = sum(
        1 for s in spans
        if s.name == "fit.wnls_fit"
        and by_key.get((s.run_id, s.parent), s).name == "fit.loocv"
    )
    m["fit.apply_exclusions.s"] = total("fit.apply_exclusions")
    m["fit.to_fitted_model.s"] = total("fit.to_fitted_model")
    for name in ("model.preset", "model.save_model", "model.load_model",
                 "evaluate.in_sample_report", "evaluate.validation_report",
                 "evaluate.write_comparison_table",
                 "scenario.load_scenario_spec", "scenario.run_scenario",
                 "scenario.format_scenario_report"):
        m[f"{name}.s"] = total(name)

    self_time = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        covered = sum(dur(c) for c in children.get((s.run_id, s.span_id), []))
        layer = s.name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + dur(s) - covered
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.spans"] = len(spans)
    return m
