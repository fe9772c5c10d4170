"""The package's file boundary: its error types, the readers and writers
of every file format it shares, and workload-config parsing.

Across the package, files are read with ``read_text`` (a typed error for
a file that cannot be read) and ``read_ini`` (workload configs, scenario
specs), and CSV and JSON files are written with ``write_csv`` and
``write_json`` (model files, ``mape.json``, ``scenario.json``). Only
``_open_text`` tells a path from a stream.

The module imports no numpy, and neither do ``flops``, ``reference``,
``scenario`` and ``cli``: with the package's lazy ``__init__``, that is
all ``nodepower scenario`` and ``nodepower flops`` load. ``flops`` is
imported only where a config's architecture is parsed or a compute
estimate attached, so ``nodepower scenario`` does not load it.
``configparser`` is imported only for INI text outside the subset
``read_ini`` reads itself.
"""

from __future__ import annotations

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

from .reference import Architecture_CNN, Architecture_LLM

if TYPE_CHECKING:
    from . import flops
    from .ingest import NodeTrace

# an INI file's sections: section name -> lowercased key -> value
Ini = dict[str, dict[str, str]]

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

    def __str__(self) -> str:
        # KeyError would show the repr of its message, in quotes
        return Exception.__str__(self)


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
        for name in ("interconnect_total_kw", "duration_h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def read_ini(path: str | Path, kind: str = "config") -> Ini:
    """The sections of an INI file, each a dict of lowercased keys to
    stripped values, parsed with ``#``/``;`` comments and no interpolation;
    ``ConfigError`` if it cannot be read or parsed.

    Clean text (see ``_read_clean_ini``) is read here; any other text goes
    to ``configparser``, which alone words the errors. Its ``[DEFAULT]``
    values are merged into every section, as ``ConfigParser.items`` does.
    """
    text = read_text(path, ConfigError, kind)
    sections = _read_clean_ini(text)
    if sections is not None:
        return sections
    import configparser  # only for text outside the clean subset

    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    # newline=None: a bare carriage return ends a line, as in a file that
    # open() reads in its default mode
    lines = io.StringIO(text, newline=None)
    try:
        parser.read_file(lines, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: invalid {kind} syntax ({exc})") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _read_clean_ini(text: str) -> Ini | None:
    """The sections of clean INI text, as ``configparser`` reads them; None
    for other text.

    Clean text is printable ASCII with ``\\n`` line ends. Each line is
    empty, a comment (``#`` or ``;`` in column 0), an exact ``[name]`` header
    or an unindented ``key = value``, and no other line holds ``#`` or
    ``;``. A name holds no bracket and is not ``DEFAULT``; a key holds no
    ``:``. Every key line follows a header, and no section, nor lowercased
    key within a section, appears twice. Such text has no continuation
    line, inline comment or default section, and ``configparser`` cannot
    fail on it.
    """
    if not text.isascii() or not text.replace("\n", "").isprintable():
        return None
    sections: Ini = {}
    section: dict[str, str] | None = None
    for line in text.split("\n"):
        if not line or line[0] in "#;":
            continue
        if line[0] == " " or "#" in line or ";" in line:
            return None
        if line[0] == "[":
            name = line[1:-1]
            if (line[-1] != "]" or not name or "[" in name or "]" in name
                    or name == "DEFAULT" or name in sections):
                return None
            section = sections[name] = {}
            continue
        key, equals, value = line.partition("=")
        key = key.rstrip().lower()
        if (section is None or not equals or not key or ":" in key
                or key in section):
            return None
        section[key] = value.strip()
    return sections


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

def _get(section: dict[str, str], name: str, key: str, kind=str):
    if key not in section:
        raise ValueError(f"missing key {key!r} in [{name}]")
    raw = section[key]
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"key {key!r} has invalid value {raw!r}") from None


def _parse_llm_section(
    section: dict[str, str], total_gpus: int
) -> flops.LlmArch:
    from . import flops

    llm = Architecture_LLM
    common = dict(
        hidden_size=_get(section, llm, "hidden_size", int),
        layers=_get(section, llm, "layers", int),
        sequence_length=_get(section, llm, "sequence_length", int),
        vocab_size=_get(section, llm, "vocab_size", int),
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
            **common, global_batch=_get(section, llm, "global_batch", int)
        )
    parallelism = flops.ParallelismConfig(
        tp=_get(section, llm, "tp", int),
        cp=_get(section, llm, "cp", int),
        pp=_get(section, llm, "pp", int),
        total_gpus=total_gpus,
    )
    return flops.LlmArch(
        **common,
        minibatch=_get(section, llm, "minibatch", int),
        parallelism=parallelism,
    )


def _parse_cnn_section(section: dict[str, str]) -> flops.CnnArch:
    from . import flops

    cnn = Architecture_CNN
    return flops.CnnArch(
        flops_per_image=(
            _get(section, cnn, "flops_per_image_gflops", float) * 1e9
        ),
        image_side=_get(section, cnn, "image_side", int),
        global_batch=_get(section, cnn, "global_batch", int),
    )


def _workload_record(sections: Ini) -> WorkloadRecord:
    """The record, without traces, that a config's sections describe. A
    missing or invalid value raises ValueError."""
    if "workload" not in sections:
        raise ValueError("missing [workload] section")
    w = sections["workload"]
    architecture = _get(w, "workload", "architecture").lower()
    if architecture not in (Architecture_LLM, Architecture_CNN):
        raise ValueError(
            f"architecture must be 'llm' or 'cnn', got {architecture!r}"
        )
    nodes = _get(w, "workload", "nodes", int)
    gpus_per_node = _get(w, "workload", "gpus_per_node", int)
    if architecture not in sections:
        raise ValueError(f"missing [{architecture}] section")
    if architecture == Architecture_LLM:
        arch_params: flops.LlmArch | flops.CnnArch = _parse_llm_section(
            sections[Architecture_LLM], nodes * gpus_per_node
        )
    else:
        arch_params = _parse_cnn_section(sections[Architecture_CNN])
    return WorkloadRecord(
        workload_id=_get(w, "workload", "id"),
        architecture=architecture,
        arch_params=arch_params,
        nodes=nodes,
        gpus_per_node=gpus_per_node,
        traces=(),
        interconnect_total_kw=float(w.get("interconnect_total_kw", "0")),
        duration_h=_get(w, "workload", "duration_h", float),
        source=w.get("source", "unknown"),
        reference_flops=(
            _get(w, "workload", "reference_flops", float)
            if "reference_flops" in w else None
        ),
    )


def load_workload_config(path: str | Path) -> WorkloadRecord:
    """Read a workload config file; the returned record has no traces yet.
    Raises ``ConfigError`` on a file that cannot be read or parsed, and on
    a missing or invalid value."""
    sections = read_ini(path)
    try:
        return _workload_record(sections)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def with_compute(record: WorkloadRecord) -> WorkloadRecord:
    """Attach the architecture-derived compute estimate to a record.

    If the record carries a recorded reference count, the computed value is
    checked against it (>1% disagreement emits FlopsMismatchWarning); the
    computed value is what the dataset uses either way. Every model form
    needs a finite intensity above one operation per node (x > 0).
    """
    from . import flops

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
