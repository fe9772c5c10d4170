"""The package's file boundary: its error types, the readers and writers
of every file format it shares, and workload-config parsing.

Across the package, files are read with ``read_text`` (a typed error for
a file that cannot be read) and ``read_ini`` (workload configs, scenario
specs), and CSV and JSON files are written with ``write_csv`` and
``write_json`` (model files, ``mape.json``, ``scenario.json``). Only
``_open_text`` tells a path from a stream.

The module imports no numpy, and neither do ``flops``, ``reference``,
``scenario`` and ``cli``: with the package's lazy ``__init__``, that is
all ``nodepower scenario`` and ``nodepower flops`` load.
"""

from __future__ import annotations

import configparser
import csv
import enum
import io
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from . import flops
from .reference import Architecture_CNN, Architecture_LLM

if TYPE_CHECKING:
    from .ingest import NodeTrace

__all__ = [
    "TraceFormatError",
    "ConfigError",
    "DegenerateDataError",
    "NonConvergenceError",
    "UnknownWorkloadError",
    "LeakageError",
    "ModelForm",
    "WorkloadRecord",
    "read_text",
    "read_ini",
    "write_csv",
    "write_json",
    "load_workload_config",
    "with_compute",
]


# ---------------------------------------------------------------------------
# error types
# ---------------------------------------------------------------------------

class TraceFormatError(ValueError):
    """A trace file violated the format contract; the message names the line."""


class ConfigError(ValueError):
    """A config, manifest, exclusion, scenario or model file that cannot be
    read or holds a bad value, or an option value the model rejects."""


class DegenerateDataError(ValueError):
    """The data cannot identify the requested parameters."""


class NonConvergenceError(RuntimeError):
    """The best start point did not reach an optimum."""


class UnknownWorkloadError(KeyError):
    """An exclusion policy named a workload the dataset does not contain."""


class LeakageError(ValueError):
    """A validation workload appears in the model's training provenance."""


class ModelForm(enum.Enum):
    """The selectable functional forms: the ``--form`` choices and a model
    file's ``variant``. ``nodepower.model.FORMS`` defines each one."""

    SIMPLE_ASYMPTOTIC = "simple"
    LOG_ASYMPTOTIC = "asymptotic"
    LOG_ASYMPTOTIC_ARCH_FE = "arch-fe"
    SIGMOID = "sigmoid"

    @classmethod
    def from_string(cls, value: str) -> "ModelForm":
        for form in cls:
            if form.value == value:
                return form
        raise ValueError(
            f"unknown model form {value!r}; choose from "
            f"{[f.value for f in cls]}"
        )


@dataclass(frozen=True)
class WorkloadRecord:
    """One training run: configuration, traces, and (optionally) its
    compute estimate."""

    workload_id: str
    architecture: str
    arch_params: flops.LlmArch | flops.CnnArch | None
    nodes: int
    gpus_per_node: int
    traces: tuple[NodeTrace, ...]
    interconnect_total_kw: float
    duration_h: float
    source: str
    reference_flops: float | None = None
    compute: flops.ComputeEstimate | None = None

    def __post_init__(self) -> None:
        if self.architecture not in (Architecture_LLM, Architecture_CNN):
            raise ValueError(
                f"architecture must be 'llm' or 'cnn', got "
                f"{self.architecture!r}"
            )
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise ValueError("nodes must be a positive integer")
        if not isinstance(self.gpus_per_node, int) or self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be a positive integer")
        if len(self.traces) > self.nodes:
            raise ValueError(
                f"{self.workload_id}: {len(self.traces)} traces for "
                f"{self.nodes} nodes"
            )
        if not self.interconnect_total_kw >= 0:
            raise ValueError("interconnect_total_kw must be >= 0")
        if not self.duration_h > 0:
            raise ValueError("duration_h must be positive")
        if self.reference_flops is not None and not self.reference_flops > 0:
            raise ValueError("reference_flops must be positive")
        for trace in self.traces:
            if trace.workload_id != self.workload_id:
                raise ValueError(
                    f"trace for {trace.workload_id!r} attached to record "
                    f"{self.workload_id!r}"
                )


# ---------------------------------------------------------------------------
# readers and writers
# ---------------------------------------------------------------------------

@contextmanager
def _open_text(
    path_or_stream: str | Path | IO[str], mode: str = "r"
) -> Iterator[IO[str]]:
    """A stream as is, or the named file opened as UTF-8 with ``newline=""``
    and closed on exit."""
    if not isinstance(path_or_stream, (str, os.PathLike)):
        yield path_or_stream
        return
    with open(path_or_stream, mode, encoding="utf-8", newline="") as fh:
        yield fh


def read_text(
    path_or_stream: str | Path | IO[str], error: type[ValueError], kind: str
) -> str:
    """The whole text of a stream or a UTF-8 file, line endings kept; a
    file that cannot be opened or decoded, or a path with a NUL byte,
    raises ``error``."""
    try:
        with _open_text(path_or_stream) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: NUL byte or decoding
        raise error(f"{path_or_stream}: cannot read {kind} ({exc})") from exc


def read_ini(
    path: str | Path, kind: str = "config"
) -> configparser.ConfigParser:
    """An INI file parsed with ``#``/``;`` comments and no interpolation;
    ``ConfigError`` if it cannot be read or parsed."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    # newline=None: a bare carriage return ends a line, as in a file that
    # open() reads in its default mode
    lines = io.StringIO(read_text(path, ConfigError, kind), newline=None)
    try:
        parser.read_file(lines, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: invalid {kind} syntax ({exc})") from exc
    return parser


def write_csv(
    path_or_stream: str | Path | IO[str],
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> None:
    """Write a header and rows as CSV with ``\\n`` line endings."""
    with _open_text(path_or_stream, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path_or_stream: str | Path | IO[str], doc: Any) -> None:
    """Write a JSON document with sorted keys, indent 2 and a trailing
    newline, so that equal documents give equal bytes."""
    with _open_text(path_or_stream, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# workload configs
# ---------------------------------------------------------------------------

def _get(section: configparser.SectionProxy, key: str, kind=str):
    if key not in section:
        raise ValueError(f"missing key {key!r} in [{section.name}]")
    raw = section[key]
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"key {key!r} has invalid value {raw!r}") from None


def _parse_llm_section(
    section: configparser.SectionProxy, total_gpus: int
) -> flops.LlmArch:
    common = dict(
        hidden_size=_get(section, "hidden_size", int),
        layers=_get(section, "layers", int),
        sequence_length=_get(section, "sequence_length", int),
        vocab_size=_get(section, "vocab_size", int),
    )
    has_direct = "global_batch" in section
    has_derived = any(
        key in section for key in ("minibatch", "tp", "cp", "pp")
    )
    if has_direct and has_derived:
        raise ValueError(
            "give either global_batch or minibatch+tp/cp/pp, not both"
        )
    if has_direct:
        return flops.LlmArch(
            **common, global_batch=_get(section, "global_batch", int)
        )
    parallelism = flops.ParallelismConfig(
        tp=_get(section, "tp", int),
        cp=_get(section, "cp", int),
        pp=_get(section, "pp", int),
        total_gpus=total_gpus,
    )
    return flops.LlmArch(
        **common,
        minibatch=_get(section, "minibatch", int),
        parallelism=parallelism,
    )


def _parse_cnn_section(section: configparser.SectionProxy) -> flops.CnnArch:
    return flops.CnnArch(
        flops_per_image=_get(section, "flops_per_image_gflops", float) * 1e9,
        image_side=_get(section, "image_side", int),
        global_batch=_get(section, "global_batch", int),
    )


def _workload_record(parser: configparser.ConfigParser) -> WorkloadRecord:
    """The record, without traces, that a parsed workload config describes.
    A missing or invalid value raises ValueError."""
    if "workload" not in parser:
        raise ValueError("missing [workload] section")
    w = parser["workload"]
    architecture = _get(w, "architecture").lower()
    if architecture not in (Architecture_LLM, Architecture_CNN):
        raise ValueError(
            f"architecture must be 'llm' or 'cnn', got {architecture!r}"
        )
    nodes = _get(w, "nodes", int)
    gpus_per_node = _get(w, "gpus_per_node", int)
    if architecture not in parser:
        raise ValueError(f"missing [{architecture}] section")
    if architecture == Architecture_LLM:
        arch_params: flops.LlmArch | flops.CnnArch = _parse_llm_section(
            parser[Architecture_LLM], nodes * gpus_per_node
        )
    else:
        arch_params = _parse_cnn_section(parser[Architecture_CNN])
    return WorkloadRecord(
        workload_id=_get(w, "id"),
        architecture=architecture,
        arch_params=arch_params,
        nodes=nodes,
        gpus_per_node=gpus_per_node,
        traces=(),
        interconnect_total_kw=float(w.get("interconnect_total_kw", "0")),
        duration_h=_get(w, "duration_h", float),
        source=w.get("source", "unknown"),
        reference_flops=(
            _get(w, "reference_flops", float)
            if "reference_flops" in w else None
        ),
    )


def load_workload_config(path: str | Path) -> WorkloadRecord:
    """Read a workload config file; the returned record has no traces yet.
    Raises ``ConfigError`` on a file that cannot be read or parsed, and on
    a missing or invalid value."""
    parser = read_ini(path)
    try:
        return _workload_record(parser)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def with_compute(record: WorkloadRecord) -> WorkloadRecord:
    """Attach the architecture-derived compute estimate to a record.

    If the record carries a recorded reference count, the computed value is
    checked against it (>1% disagreement emits FlopsMismatchWarning); the
    computed value is what the dataset uses either way. Every model form
    needs a finite intensity above one operation per node (x > 0).
    """
    if record.arch_params is None:
        raise ConfigError(
            f"{record.workload_id}: no architecture parameters; cannot "
            "compute an operation count"
        )
    try:
        est = flops.estimate(record.arch_params, record.nodes)
        usable = 0 < est.log_intensity < math.inf
    except OverflowError:  # an integer beyond the float range
        usable = False
    if not usable:
        raise ConfigError(
            f"{record.workload_id}: the operations per node per iteration "
            "must be a finite count above one"
        )
    if record.reference_flops is not None:
        flops.verify_against_reference(
            est.flops_per_iteration,
            record.reference_flops,
            context=record.workload_id,
        )
    return replace(record, compute=est)
