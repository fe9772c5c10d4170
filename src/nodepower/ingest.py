"""Trace-file parsing, workload configuration, and dataset assembly.

The on-disk layout this module consumes:

* trace file: CSV with header ``workload_id,node_id,elapsed_s,power_kw``,
  one row per power sample, UTF-8, ``.`` decimal separator;
* workload config: INI file with a ``[workload]`` section (identity, node
  count, duration, interconnect) and one of ``[llm]``/``[cnn]`` holding the
  architecture parameters the flops module needs;
* manifest: CSV with header ``config,trace`` listing the per-workload file
  pairs, paths relative to the manifest's own directory;
* exclusion policy: CSV with header ``workload_id,reason``, each reason one
  of ``EXCLUSION_REASONS``.

The two input error types, the file readers and writers and
workload-config parsing live in ``nodepower.files``, which imports no
numpy; they stay importable from here.

A manifest's trace files are read one by one, and their clean texts
(see ``_clean_text``) are parsed in batches of at most ``BATCH_ROWS``
data lines: one ``np.loadtxt`` call, one node-id coding and one set of
checks per batch, since on short traces those fixed costs outweigh the
rows. A larger file, and text that is not clean, is parsed alone, and a
batch that fails a check is parsed again one file at a time, so records
and errors are those of loading each workload in turn. A larger clean
file is split into pieces of ``BATCH_ROWS`` lines, one ``np.loadtxt``
call each, so that the lines and table in memory at once are bounded per
call, not per file; its checks still run on its whole columns.

Energy is average power times node count times duration. That is how the
reference summaries were built (their reported energies reproduce within
rounding), and it keeps 2-second and 5-minute sampling comparable without
pretending either is a continuous waveform. Total interconnect power, when
metered, is split evenly across nodes and added as a constant to every
sample of the workload.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .files import (
    ConfigError,
    TraceFormatError,
    WorkloadRecord,
    load_workload_config,
    read_ini,
    read_text,
    with_compute,
    write_csv,
    write_json,
)

__all__ = [
    "TraceFormatError",
    "ConfigError",
    "NodeTrace",
    "WorkloadRecord",
    "WorkloadSummary",
    "RegressionDataset",
    "WorkloadTable",
    "parse_trace_file",
    "write_trace_file",
    "allocate_interconnect",
    "summarize_workload",
    "with_compute",
    "assemble_dataset",
    "load_workload_config",
    "load_workload",
    "load_manifest",
    "load_and_assemble",
    "load_exclusions",
    "EXCLUSION_REASONS",
    "read_text",
    "read_ini",
    "write_csv",
    "write_json",
]

EXCLUSION_REASONS = ("outlier", "leakage", "manual")


@dataclass(frozen=True)
class NodeTrace:
    """One node's power samples for one workload, in increasing time."""

    workload_id: str
    node_id: str
    elapsed_s: np.ndarray
    power_kw: np.ndarray

    def __post_init__(self) -> None:
        elapsed = np.asarray(self.elapsed_s, dtype=float)
        power = np.asarray(self.power_kw, dtype=float)
        object.__setattr__(self, "elapsed_s", elapsed)
        object.__setattr__(self, "power_kw", power)
        # one pass accepts valid columns: strictly increasing times from a
        # first >= 0 to a last < inf, all of them finite, and finite
        # positive powers; the checks below word the first failure
        if (elapsed.ndim == 1 and elapsed.shape == power.shape
                and elapsed.size and 0 <= elapsed[0] and elapsed[-1] < np.inf
                and (elapsed[1:] > elapsed[:-1]).all()
                and 0 < power.min() and power.max() < np.inf):
            return
        name = f"trace {self.workload_id}/{self.node_id}"
        if elapsed.ndim != 1 or elapsed.shape != power.shape:
            raise ValueError(f"{name}: columns must be 1-D, of equal length")
        if not elapsed.size:
            raise ValueError(f"{name} is empty")
        if np.any(np.diff(elapsed) <= 0):
            raise ValueError(f"{name} is not strictly increasing in elapsed_s")
        if np.any(elapsed < 0):
            raise ValueError(f"{name}: elapsed_s must be >= 0")
        if not np.all(power > 0):
            raise ValueError(f"{name}: power_kw must be positive")
        if not (np.isfinite(elapsed).all() and np.isfinite(power).all()):
            raise ValueError(f"{name}: elapsed_s and power_kw must be finite")

    @classmethod
    def _checked(
        cls, workload_id: str, node_id: str, elapsed_s: np.ndarray,
        power_kw: np.ndarray,
    ) -> "NodeTrace":
        """A trace from float64 columns that have passed this class's
        checks already, as ``_traces`` checks a file's whole columns:
        built without checking them again."""
        trace = object.__new__(cls)
        trace.__dict__.update(
            workload_id=workload_id, node_id=node_id, elapsed_s=elapsed_s,
            power_kw=power_kw,
        )
        return trace


@dataclass(frozen=True)
class WorkloadSummary:
    p_avg_kw: float
    p_max_kw: float
    p_sd_kw: float
    duration_h: float
    it_energy_kwh: float
    n_observations: int

    def __post_init__(self) -> None:
        if self.p_avg_kw > self.p_max_kw:
            raise ValueError("p_avg_kw must not exceed p_max_kw")
        if not self.it_energy_kwh > 0:
            raise ValueError("it_energy_kwh must be positive")


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------

_TRACE_HEADER = ("workload_id", "node_id", "elapsed_s", "power_kw")

# Data lines per np.loadtxt call: a manifest's clean trace files are
# parsed together in batches of at most this many, and a file with more
# lines is parsed alone, this many at a time. Besides the texts, a call
# holds its lines and table at once (about 170 bytes a line on the
# benchmark's traces), so a larger bound raises peak memory while saving
# little more: past a few dozen files a batch, the per-file text checks
# and traces outweigh the per-call cost.
BATCH_ROWS = 2048

# Besides the newline, what csv.reader or str.strip treats specially in
# ASCII text: the quote, CR, NUL and whitespace.
_NOT_CLEAN = '"\r\0 \t\v\f\x1c\x1d\x1e\x1f'


class _CleanText(NamedTuple):
    """A clean trace text (see ``_clean_text``), the number of its lines
    that start with the workload id (its data lines, if it is clean), and
    the width in UCS-4 units that ``np.loadtxt`` gives its node ids."""

    workload_id: str
    text: str
    rows: int
    width: int


def _clean_text(text: str, workload_id: str) -> _CleanText | None:
    """The text, if it may be clean trace text; None for other text.

    Clean text is ASCII with no quote, CR, NUL or whitespace but
    newlines. It starts with the exact header, and every data line has
    four fields, the first ``workload_id``, and fits the csv field limit.
    ``np.loadtxt`` reads the other three (see ``_parse_clean``), and it
    rejects an empty number. The text is checked as a whole here; that no
    other line follows the header is checked when it is split into pieces
    (see ``_pieces``), and that no node id is empty once they are parsed.
    """
    if (not text.isascii() or any(c in text for c in _NOT_CLEAN)
            or "," in workload_id or "\n" in workload_id):
        return None
    rows = text.count("\n" + workload_id + ",")
    header = ",".join(_TRACE_HEADER) + "\n"
    # no line reaches the field size limit when every aligned block of half
    # of it holds a newline
    block = max(csv.field_size_limit() // 2, 1)
    # loadtxt needs four fields on each line; three commas a line make it
    # exactly four
    if (rows < 1 or not text.startswith(header)
            or text.count(",") != 3 * (rows + 1)
            or any(text.find("\n", i, i + block) < 0
                   for i in range(0, len(text) - block + 1, block))):
        return None
    # room for node ids twice as long as the first row's, or as long as the
    # mean line, and one UCS-4 unit more that stays zero unless an id was
    # cut short. A first data line without the workload id still leaves a
    # comma at or after start, the one after the id on a later line, so
    # the width is at least one; _pieces then finds the line that is no
    # data row
    start = len(header) + len(workload_id) + 1
    first = text.find(",", start) - start
    width = min(2 * first, len(text) // rows) + 1
    return _CleanText(workload_id, text, rows, width)


def _pieces(
    texts: Sequence[_CleanText],
) -> Iterator[tuple[list[str], list[int], list[int]] | None]:
    """The data lines of clean texts, ``BATCH_ROWS`` lines at a time
    across texts (the last piece may hold fewer), each piece with the row
    where each text starts in it (or the piece starts) and that text's
    index; None, and no more pieces, once a text proves to hold a line
    that is not a data row.

    A text is split without a list of its whole lines: each cut is found
    from the mean length of the text's lines left, and moved back to the
    room left in the piece. A text whose data rows do not reach its end
    holds another line, such as a blank one; within them, a blank line
    would give ``np.loadtxt`` fewer rows than lines.
    """
    lines: list[str] = []
    firsts: list[int] = []
    owners: list[int] = []
    header = len(",".join(_TRACE_HEADER)) + 1
    for i, t in enumerate(texts):
        text, a, left = t.text, header, t.rows
        while left:
            keep = min(BATCH_ROWS - len(lines), left)
            b = text.find("\n", a + keep * (len(text) - a) // left) + 1
            b = b or len(text)
            # split on "\n" only: str.splitlines also splits on \v, \f and
            # \x1c-\x1e
            part = text[a:b].split("\n")
            if not part[-1]:
                part.pop()
            for _ in range(len(part) - keep):
                b = text.rfind("\n", a, b - 1) + 1
                part.pop()
            if not owners or owners[-1] != i:
                firsts.append(len(lines))
                owners.append(i)
            lines += part
            a, left = b, left - len(part)
            if len(lines) == BATCH_ROWS:
                yield lines, firsts, owners
                lines, firsts, owners = [], [], []
        if a < len(text):
            yield None
            return
    if lines:
        yield lines, firsts, owners


def _parse_clean(
    texts: Sequence[_CleanText],
) -> list[tuple[NodeTrace, ...]] | None:
    """Each clean text's traces, parsed by one ``np.loadtxt`` call per
    piece of at most ``BATCH_ROWS`` data lines (see ``_pieces``) and
    checked together; None if a text holds a line that does not start with
    its workload id, if loadtxt rejects a line or cuts a node id short, if
    a node id is empty, or, for more than one text, if a check fails.

    Each piece keeps only its node-id runs' codes and its numbers, written
    into columns that span every text, so the lines and loadtxt's table
    (node ids as fixed-width strings) of one piece are all that exists at
    once. The numbers are those ``float`` reads: both parse with
    ``PyOS_string_to_double``, and loadtxt rejects what only ``float``
    takes, such as ``1_0``. Node ids are coded per (text, id), so each
    text's codes follow the last text's and the checks of ``_traces`` see
    each text on its own. One text is the batch of one: a check that fails
    raises its error, on csv's line (row i is on line i + 2).
    """
    width = max(t.width for t in texts)
    dtype = [("node", f"U{width}"), ("elapsed", "f8"), ("power", "f8")]
    rows = sum(t.rows for t in texts)
    codes = np.empty(rows, np.intp)
    elapsed, power = np.empty(rows), np.empty(rows)
    node_ids: dict[tuple[int, str], int] = {}
    end = 0
    for piece in _pieces(texts):
        if piece is None:
            return None
        lines, firsts, owners = piece
        # a blank line is no data row: loadtxt skips it, and warns of a
        # piece of nothing else
        if not any(lines):
            return None
        try:
            table = np.loadtxt(lines, dtype, comments=None, delimiter=",",
                               usecols=(1, 2, 3), ndmin=1)
        except ValueError:
            return None
        if len(table) < len(lines):
            return None
        start, end = end, end + len(table)
        nodes = table["node"]
        if (table.view(np.uint32).reshape(end - start, -1)[:, width - 1].any()
                or (nodes == "").any()):
            return None
        # node ids are coded run by run: a text holds few runs of equal
        # ids. Each text and each piece starts a run; a run that goes on
        # from the last piece finds its code in node_ids
        new = np.concatenate(([True], nodes[1:] != nodes[:-1]))
        new[firsts] = True
        heads = np.flatnonzero(new)
        owner = np.take(owners, np.searchsorted(firsts, heads, "right") - 1)
        run_codes = [node_ids.setdefault(key, len(node_ids))
                     for key in zip(owner.tolist(), nodes[heads].tolist())]
        codes[start:end] = np.repeat(
            run_codes, np.diff(heads, append=end - start)
        )
        elapsed[start:end] = table["elapsed"]
        power[start:end] = table["power"]
    counts = [0] * len(texts)
    for i, _ in node_ids:
        counts[i] += 1
    return _traces(
        [(t.workload_id, n) for t, n in zip(texts, counts)],
        [node for _, node in node_ids], codes, elapsed, power,
        range(2, rows + 2) if len(texts) == 1 else None,
    )


def _tokenize(
    text: str,
) -> tuple[list[str], list[int], list[Sequence[str]], Exception | None]:
    """Split trace text with ``csv.reader``, as read from a file opened with
    ``newline=""``, into its header, the data rows' line numbers (csv's
    1-based ``line_num``, which counts blank lines and the lines inside
    quoted fields), four raw field columns, and the error that cut the rows
    short (or None). Blank rows are left out."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
    except csv.Error as exc:  # a field over csv's size limit
        raise TraceFormatError(f"line {reader.line_num}: {exc}") from exc
    if header is None:
        raise TraceFormatError("line 1: empty trace file")
    data: list[list[str]] = []
    lines: list[int] = []
    error: Exception | None = None
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                error = TraceFormatError(
                    f"line {reader.line_num}: expected 4 fields, "
                    f"got {len(row)}"
                )
                break
            data.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:
        error = TraceFormatError(f"line {reader.line_num}: {exc}")
    return header, lines, list(zip(*data)) or [()] * 4, error


def parse_trace_file(
    path_or_stream: str | Path | IO[str], workload_id: str
) -> tuple[NodeTrace, ...]:
    """Parse one workload's trace file into per-node traces.

    The text is read once and each column is checked as a whole. Clean text
    (see ``_clean_text``) is parsed as a batch of one by ``_parse_clean``,
    the parser ``load_manifest`` gives batches of several files: one
    ``np.loadtxt`` call per ``BATCH_ROWS`` lines. Other text, and clean
    text that loadtxt rejects, is parsed by ``csv.reader``. Both paths
    share the checks on the numbers, so an error reads the same on either.
    On bad input the error names the first offending row in file order;
    within a row the checks run in the order: field count, workload id,
    node id, numbers, negative elapsed time, power, non-finite value,
    duplicate.

    Parameters
    ----------
    path_or_stream : path or readable text stream
        A stream is read as is; a named file is opened with ``newline=""``
        so that csv sees its line endings (a stream with bare carriage
        returns is tokenized the same way).
    workload_id : str
        Every row must carry this id; a row for a different workload is a
        format error (trace files are per-workload).

    Returns
    -------
    tuple of NodeTrace
        One per distinct node_id, in first-appearance order, columns
        sorted by elapsed_s.

    Raises
    ------
    TraceFormatError
        On a malformed row, a non-positive power, a negative elapsed time,
        a non-finite number, or a duplicate (node_id, elapsed_s) pair (the
        message names the 1-based line), or a file that cannot be read.
    """
    text = read_text(path_or_stream, TraceFormatError, "trace file")
    return _parse_text(text, _clean_text(text, workload_id), workload_id)


def _parse_text(
    text: str, clean: _CleanText | None, workload_id: str
) -> tuple[NodeTrace, ...]:
    """The traces of one trace text: clean text (``clean``, from
    ``_clean_text``) as the batch of one; other text, and clean text that
    ``np.loadtxt`` rejects, by ``csv.reader``."""
    if clean is not None:
        traces = _parse_clean([clean])
        if traces is not None:
            return traces[0]
    header, lines, (wids, node_text, elapsed_text, power_text), error = (
        _tokenize(text)
    )
    del text, clean
    if tuple(h.strip() for h in header) != _TRACE_HEADER:
        raise TraceFormatError(
            f"line 1: expected header {','.join(_TRACE_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    n = len(wids)  # rows [0, n) passed every check so far
    # identity checks run once per distinct raw value; index() finds the
    # first row that carries it
    wrong = [wids.index(w) for w in dict.fromkeys(islice(wids, n))
             if w.strip() != workload_id]
    if wrong:
        row = min(wrong)
        n, error = _failure(lines, row, f"row belongs to workload "
                            f"{wids[row].strip()!r}, expected {workload_id!r}")
    empty = [node_text.index(v) for v in dict.fromkeys(islice(node_text, n))
             if not v.strip()]
    if empty:
        n, error = _failure(lines, min(empty), "empty node_id")
    try:
        elapsed, power = _floats(elapsed_text, n), _floats(power_text, n)
    except ValueError:
        n, error = _failure(lines, next(i for i in range(n) if not (
            _is_float(elapsed_text[i]) and _is_float(power_text[i])
        )), "non-numeric elapsed_s or power_kw")
        elapsed, power = _floats(elapsed_text, n), _floats(power_text, n)
    del elapsed_text, power_text  # the largest columns: free them early
    # stripped node id -> code, in first-appearance order
    node_ids: dict[str, int] = {}
    code_of = {
        v: node_ids.setdefault(v.strip(), len(node_ids))
        for v in dict.fromkeys(islice(node_text, n))
    }
    codes = np.fromiter(
        map(code_of.__getitem__, islice(node_text, n)), np.intp, n
    )
    return _traces(
        [(workload_id, len(node_ids))], list(node_ids), codes, elapsed, power,
        lines, error,
    )[0]


def _failure(
    lines: Sequence[int], row: int, message: str
) -> tuple[int, TraceFormatError]:
    """Rows [0, row) left to check, and the error naming row's line. Each
    check sees only the rows before the earliest failure so far, so the
    error that stands at the end is the first in file order."""
    return row, TraceFormatError(f"line {lines[row]}: {message}")


def _traces(
    workloads: Sequence[tuple[str, int]], node_ids: list[str],
    codes: np.ndarray, elapsed: np.ndarray, power: np.ndarray,
    lines: Sequence[int] | None, error: Exception | None = None,
) -> list[tuple[NodeTrace, ...]] | None:
    """The traces of the rows that passed the checks so far, ``len(codes)``
    of them (a code indexes ``node_ids``), if their numbers pass; else the
    error of the first offending row.

    ``workloads`` holds each text's workload id and node count, in code
    order: the codes of one text are above those of the texts before it.
    Without ``lines`` (a batch of several texts), a check that fails
    returns None instead of wording an error.
    """
    n = len(codes)
    # one pass over each column accepts every row; the loop words the
    # first failure
    if not (n and 0 <= elapsed[:n].min() and elapsed[:n].max() < np.inf
            and 0 < power[:n].min() and power[:n].max() < np.inf):
        if lines is None:
            return None
        for bad, message in (
            (elapsed < 0, "negative elapsed_s ({e})"),
            (~(power > 0), "non-positive power_kw ({p})"),
            (~np.isfinite(elapsed), "non-finite elapsed_s ({e})"),
            (~np.isfinite(power), "non-finite power_kw ({p})"),
        ):
            if bad[:n].any():
                row = int(bad[:n].argmax())
                n, error = _failure(lines, row, message.format(
                    e=float(elapsed[row]), p=float(power[row])
                ))
    codes, elapsed, power = codes[:n], elapsed[:n], power[:n]
    # rows grouped by node in first-appearance order, each node's times
    # strictly increasing, are sorted already and hold no duplicate
    step = codes[1:] - codes[:-1]
    if (step >= 0).all() and ((step > 0) | (elapsed[1:] > elapsed[:-1])).all():
        sorted_codes, times, powers = codes, elapsed, power
    else:
        order = np.lexsort((elapsed, codes))  # stable: file order on ties
        sorted_codes = codes[order]
        times, powers = elapsed[order], power[order]
        same = ((sorted_codes[1:] == sorted_codes[:-1])
                & (times[1:] == times[:-1]))
        if same.any():
            if lines is None:
                return None
            row = int(order[1:][same].min())
            n, error = _failure(lines, row, f"duplicate sample for node "
                                f"{node_ids[codes[row]]!r} at elapsed_s="
                                f"{float(elapsed[row])}")
    if error is not None:
        raise error
    if not n:
        raise TraceFormatError("trace file has a header but no data rows")
    ends = np.cumsum(
        np.bincount(sorted_codes, minlength=len(node_ids))
    ).tolist()
    # each trace owns a copy: slices would keep the file's whole sorted
    # columns alive, one large block per file, which fragments the heap.
    # The checks above cover NodeTrace's own, so they are not run again.
    spans = zip(node_ids, [0] + ends, ends)
    return [
        tuple(NodeTrace._checked(workload_id, node_id, times[a:b].copy(),
                                 powers[a:b].copy())
              for node_id, a, b in islice(spans, count))
        for workload_id, count in workloads
    ]


def _floats(texts: Sequence[str], n: int) -> np.ndarray:
    """The first n texts as float64, stripped and parsed by ``float`` (which
    strips less: not the separators \x1c-\x1f)."""
    return np.fromiter(map(float, map(str.strip, islice(texts, n))), float, n)


def _is_float(text: str) -> bool:
    try:
        float(text.strip())
    except ValueError:
        return False
    return True


def write_trace_file(
    traces: Iterable[NodeTrace], path_or_stream: str | Path | IO[str]
) -> None:
    """Serialize traces in the trace-file format.

    Floats are written with their shortest exact decimal representation, so
    parse -> write -> parse is lossless for (node_id, elapsed_s, power_kw).
    """
    write_csv(path_or_stream, _TRACE_HEADER, (
        # repr of Python floats: numpy's repr would add np.float64(...)
        (trace.workload_id, trace.node_id, repr(t), repr(p))
        for trace in traces
        for t, p in zip(trace.elapsed_s.tolist(), trace.power_kw.tolist())
    ))


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def allocate_interconnect(record: WorkloadRecord) -> float:
    """Per-node interconnect power increment in kW (even split)."""
    return record.interconnect_total_kw / record.nodes


def summarize_workload(record: WorkloadRecord) -> WorkloadSummary:
    """Pooled power statistics and IT energy for one workload.

    The mean and maximum pool every sample across every node; the standard
    deviation is the population SD of the pooled samples (at the sample
    counts involved the sample/population distinction is noise, and the
    population form keeps the constant-trace case exactly zero). The
    interconnect increment shifts mean and max but not the SD. Energy is
    ``p_avg x nodes x duration`` by construction.
    """
    if not record.traces:
        raise ValueError(f"{record.workload_id}: no traces to summarize")
    powers = np.concatenate([t.power_kw for t in record.traces])
    increment = allocate_interconnect(record)
    p_avg = float(powers.mean()) + increment
    p_max = float(powers.max()) + increment
    p_sd = float(powers.std(ddof=0))
    return WorkloadSummary(
        p_avg_kw=p_avg,
        p_max_kw=p_max,
        p_sd_kw=p_sd,
        duration_h=record.duration_h,
        it_energy_kwh=p_avg * record.nodes * record.duration_h,
        n_observations=int(powers.size),
    )


# ---------------------------------------------------------------------------
# the regression dataset
# ---------------------------------------------------------------------------

class _Segment(NamedTuple):
    """A run of power samples that share workload, node, architecture and
    intensity: one node's trace, its interconnect share added."""

    workload_id: str
    node_id: str
    arch: str
    x: float
    power_kw: np.ndarray


@dataclass(frozen=True)
class WorkloadTable:
    """The regression dataset: one row per workload, in first-appearance
    order.

    Within a workload the intensity and architecture are constant and the
    fit's weights 1/n sum to one, so the weighted squared error of any curve
    f is ``sum_g (mean_kw_g - f(x_g))**2 + sum_g within_ss_g / n_g``: the
    estimator needs only these columns, not the power samples. The power
    samples stay in ``segments``, in row order, for the content hash.
    """

    workload_ids: np.ndarray
    arch: np.ndarray
    x: np.ndarray
    mean_kw: np.ndarray
    n: np.ndarray
    within_ss: np.ndarray  # sum of squared deviations from mean_kw
    segments: tuple[_Segment, ...]

    @property
    def n_observations(self) -> int:
        return int(self.n.sum())

    def workloads(self) -> tuple[str, ...]:
        return tuple(self.workload_ids.tolist())

    def drop(self, workload_ids: Iterable[str]) -> "WorkloadTable":
        gone = set(workload_ids)
        keep = ~np.isin(self.workload_ids, list(gone))
        return WorkloadTable(
            self.workload_ids[keep], self.arch[keep], self.x[keep],
            self.mean_kw[keep], self.n[keep], self.within_ss[keep],
            tuple(s for s in self.segments if s.workload_id not in gone),
        )

    def sha256(self) -> str:
        """Canonical content hash (used in fit provenance) of the
        per-sample rows: the row count, each text column (workload id, node
        id, architecture) as UCS-4 at its longest value's width (so not
        dtype-dependent), then the power and intensity columns as
        little-endian float64. It is streamed segment by segment, and no
        per-sample column is built."""
        sizes = [s.power_kw.size for s in self.segments]
        h = hashlib.sha256(
            f"nodepower-dataset/2 {self.n_observations}\n".encode()
        )
        for field in ("workload_id", "node_id", "arch"):
            values = [getattr(s, field) for s in self.segments]
            # a UCS-4 cell drops trailing NULs, so they add no width
            width = max([len(v.rstrip("\0")) for v in values] + [1])
            h.update(f"{width}\n".encode())
            cells = np.array(values, dtype=str).astype(f"<U{width}").tobytes()
            cell = 4 * width
            for i, size in enumerate(sizes):
                h.update(cells[i * cell:(i + 1) * cell] * size)
        for s in self.segments:
            h.update(s.power_kw.astype("<f8", copy=False).tobytes())
        for s, size in zip(self.segments, sizes):
            h.update(np.array([s.x], dtype="<f8").tobytes() * size)
        return h.hexdigest()


def _table(segments: Sequence[_Segment]) -> WorkloadTable:
    """The workload table of segments in row order: per-workload means and
    within-workload sums of squares, each one bincount over every sample.

    Raises
    ------
    ValueError
        No samples, or (a ``ConfigError``) an intensity or architecture
        that varies within a workload.
    """
    if not segments:
        raise ValueError("no observations")
    rank: dict[str, int] = {}  # workload id -> row, in first-appearance order
    seg_group = np.array(
        [rank.setdefault(s.workload_id, len(rank)) for s in segments]
    )
    head = np.unique(seg_group, return_index=True)[1]  # first segment of a row
    group = np.repeat(seg_group, [s.power_kw.size for s in segments])
    power = np.concatenate([s.power_kw for s in segments])
    n = np.bincount(group)
    mean = np.bincount(group, weights=power) / n
    dev = power - mean[group]
    within_ss = np.bincount(group, weights=dev * dev)
    x = np.array([s.x for s in segments], dtype=float)
    arch = np.array([s.arch for s in segments], dtype=str)
    for name, column in (("intensity x", x), ("architecture", arch)):
        varies = np.flatnonzero(column != column[head][seg_group])
        if varies.size:
            raise ConfigError(
                f"workload {segments[varies[0]].workload_id!r}: {name} "
                "varies within the workload"
            )
    return WorkloadTable(
        np.array(list(rank), dtype=str), arch[head], x[head], mean, n,
        within_ss, tuple(segments),
    )


def RegressionDataset(
    workload_ids: np.ndarray,
    node_ids: np.ndarray,
    power_kw: np.ndarray,
    x: np.ndarray,
    arch: np.ndarray,
) -> WorkloadTable:
    """The workload table of per-observation columns, one row per power
    sample. Each run of rows with equal workload, node, intensity and
    architecture becomes one segment.

    Raises
    ------
    ValueError
        Columns of unequal length, no rows, or an intensity or architecture
        that varies within a workload.
    """
    power = np.asarray(power_kw, dtype=float)
    columns = [np.asarray(c) for c in (workload_ids, node_ids, x, arch)]
    if any(len(c) != len(power) for c in columns):
        raise ValueError("dataset columns have unequal lengths")
    cuts = np.flatnonzero(
        np.any([c[1:] != c[:-1] for c in columns], axis=0)
    ) + 1
    bounds = [0, *cuts.tolist(), len(power)] if len(power) else []
    wids, nids, xs, archs = columns
    return _table([
        _Segment(str(wids[a]), str(nids[a]), str(archs[a]), float(xs[a]),
                 power[a:b])
        for a, b in zip(bounds, bounds[1:])
    ])


def assemble_dataset(records: Iterable[WorkloadRecord]) -> WorkloadTable:
    """The workload table of compute-tagged records.

    Every record must already carry a ComputeEstimate (see with_compute).
    Each trace is one segment, its interconnect share added; cardinality is
    preserved exactly: one observation per power sample.
    """
    segments = []
    for record in records:
        if record.compute is None:
            raise ValueError(
                f"{record.workload_id}: no compute estimate attached; "
                "call with_compute first"
            )
        increment = allocate_interconnect(record)
        segments.extend(
            _Segment(
                record.workload_id, trace.node_id, record.architecture,
                record.compute.log_intensity, trace.power_kw + increment,
            )
            for trace in record.traces
        )
    return _table(segments)


# ---------------------------------------------------------------------------
# manifests and exclusion files
# ---------------------------------------------------------------------------

class _Workload(NamedTuple):
    """A workload's config record and trace text, read but not parsed."""

    record: WorkloadRecord
    trace_path: str | Path
    text: str
    clean: _CleanText | None  # see _clean_text


def _read_workload(
    config_path: str | Path, trace_path: str | Path
) -> _Workload:
    record = load_workload_config(config_path)
    text = read_text(trace_path, TraceFormatError, "trace file")
    return _Workload(
        record, trace_path, text, _clean_text(text, record.workload_id)
    )


def _with_traces(
    workload: _Workload, traces: tuple[NodeTrace, ...] | None = None
) -> WorkloadRecord:
    """The workload's record holding its traces, parsed from its own text
    unless given. An error in the text is prefixed with the trace file's
    path, and more traced nodes than the config's node count raise
    ``ConfigError``."""
    path = workload.trace_path
    if traces is None:
        try:
            traces = _parse_text(
                workload.text, workload.clean, workload.record.workload_id
            )
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from exc
    try:
        return replace(workload.record, traces=traces)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _with_batch_traces(batch: Sequence[_Workload]) -> list[WorkloadRecord]:
    """The records of a batch of workloads, in order. Several clean texts
    are parsed together; a batch that fails a check is parsed again one
    text at a time, so the error raised is that of the first workload
    that fails."""
    traces = _parse_clean([w.clean for w in batch]) if len(batch) > 1 else None
    if traces is None:
        return [_with_traces(w) for w in batch]
    return [_with_traces(w, t) for w, t in zip(batch, traces)]


def load_workload(
    config_path: str | Path, trace_path: str | Path
) -> WorkloadRecord:
    """Config plus traces: one fully populated record. An error in the
    trace text names the trace file, and more traced nodes than the
    config's node count raise ``ConfigError``."""
    return _with_traces(_read_workload(config_path, trace_path))


def _read_pairs(
    path: Path, header: tuple[str, str], kind: str
) -> list[tuple[str, str]]:
    """The stripped rows of a two-column CSV file that starts with header."""
    text = read_text(path, ConfigError, kind)
    reader = csv.reader(io.StringIO(text, newline=""))
    pairs: list[tuple[str, str]] = []
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise ConfigError(
                f"{path}: {kind} must start with header {','.join(header)!r}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(
                    f"{path}: line {reader.line_num}: expected 2 fields"
                )
            pairs.append((row[0].strip(), row[1].strip()))
    except csv.Error as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from exc
    return pairs


def load_manifest(path: str | Path) -> tuple[WorkloadRecord, ...]:
    """Load every (config, trace) pair named by a manifest file.

    Paths inside the manifest resolve relative to the manifest's directory.
    Each workload's config and trace text are read in manifest order, and
    runs of clean texts (see ``_clean_text``) of at most ``BATCH_ROWS``
    data lines in all are parsed together: one ``np.loadtxt`` call and one
    set of checks per batch (see ``_parse_clean``). A text that is not
    clean, or has ``BATCH_ROWS`` lines or more, is parsed alone, a clean
    one in pieces of ``BATCH_ROWS`` lines, so no loadtxt call reads more
    lines than that. Records, traces and errors are those of
    ``load_workload`` called on each pair in turn: the first workload that
    fails raises, its config checked before its trace.
    """
    path = Path(path)
    records: list[WorkloadRecord] = []
    batch: list[_Workload] = []
    rows = 0
    for config, trace in _read_pairs(path, ("config", "trace"), "manifest"):
        try:
            workload = _read_workload(
                path.parent / config, path.parent / trace
            )
        except (ConfigError, TraceFormatError):
            _with_batch_traces(batch)  # an earlier workload's error first
            raise
        # text that is not clean fills a batch: it is parsed alone
        size = workload.clean.rows if workload.clean else BATCH_ROWS
        if rows + size > BATCH_ROWS:
            records += _with_batch_traces(batch)
            batch, rows = [], 0
        batch.append(workload)
        rows += size
        if rows >= BATCH_ROWS:  # parsed before the next text is read
            records += _with_batch_traces(batch)
            batch, rows = [], 0
    records += _with_batch_traces(batch)
    if not records:
        raise ConfigError(f"{path}: manifest lists no workloads")
    return tuple(records)


def load_and_assemble(
    manifest_path: str | Path,
) -> tuple[tuple[WorkloadRecord, ...], WorkloadTable]:
    """Manifest -> compute-tagged records -> workload table."""
    records = tuple(with_compute(r) for r in load_manifest(manifest_path))
    return records, assemble_dataset(records)


def load_exclusions(path: str | Path) -> tuple[tuple[str, str], ...]:
    """Read an exclusion policy file: CSV of workload_id,reason rows, each
    reason one of ``EXCLUSION_REASONS`` (else ``ConfigError``)."""
    pairs = _read_pairs(
        Path(path), ("workload_id", "reason"), "exclusion file"
    )
    for wid, reason in pairs:
        if reason not in EXCLUSION_REASONS:
            raise ConfigError(
                f"{path}: exclusion reason {reason!r} for {wid!r} not in "
                f"{sorted(EXCLUSION_REASONS)}"
            )
    return tuple(pairs)
