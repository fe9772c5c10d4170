"""Trace parsing, summaries, dataset assembly, config loading."""

from __future__ import annotations

import configparser
import csv
import dataclasses
import io
import itertools
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nodepower import files, flops, ingest
from nodepower.data import desk_dir
from nodepower.ingest import (
    ConfigError,
    NodeTrace,
    TraceFormatError,
    WorkloadRecord,
    parse_trace_file,
    summarize_workload,
    write_trace_file,
)
from nodepower.reference import Architecture_CNN, Architecture_LLM

ROOT = Path(__file__).resolve().parents[1]


def _trace(wid="w1", node="n1", values=(5.0, 6.0, 7.0), dt=2.0):
    return NodeTrace(
        workload_id=wid, node_id=node,
        elapsed_s=np.arange(len(values)) * dt, power_kw=np.array(values),
    )


def _record(traces, wid="w1", nodes=None, arch=Architecture_LLM,
            interconnect=0.0, duration_h=1.0):
    return WorkloadRecord(
        workload_id=wid,
        architecture=arch,
        arch_params=flops.LlmArch(
            hidden_size=64, layers=2, sequence_length=8, vocab_size=100,
            global_batch=4,
        ),
        nodes=nodes if nodes is not None else len(traces),
        gpus_per_node=8,
        traces=tuple(traces),
        interconnect_total_kw=interconnect,
        duration_h=duration_h,
        source="SMC",
    )


TRACE_TEXT = textwrap.dedent(
    """\
    workload_id,node_id,elapsed_s,power_kw
    w1,n1,0.0,5.5
    w1,n1,2.0,6.0
    w1,n2,0.0,5.0
    w1,n2,2.0,7.25
    """
)


class TestParse:
    def test_round_trip(self):
        traces = parse_trace_file(io.StringIO(TRACE_TEXT), "w1")
        out = io.StringIO()
        write_trace_file(traces, out)
        assert out.getvalue() == TRACE_TEXT

    def test_groups_by_node_in_first_appearance_order(self):
        traces = parse_trace_file(io.StringIO(TRACE_TEXT), "w1")
        assert [t.node_id for t in traces] == ["n1", "n2"]
        assert traces[0].power_kw.tolist() == [5.5, 6.0]

    def test_rows_out_of_time_order_are_sorted_per_node(self):
        text = textwrap.dedent(
            """\
            workload_id,node_id,elapsed_s,power_kw
            w1,n1,4.0,5.4
            w1,n2,2.0,7.2
            w1,n1,0.0,5.0
            w1,n2,0.0,7.0
            w1,n1,2.0,5.2
            """
        )
        n1, n2 = parse_trace_file(io.StringIO(text), "w1")
        assert (n1.node_id, n2.node_id) == ("n1", "n2")
        assert n1.elapsed_s.tolist() == [0.0, 2.0, 4.0]
        assert n1.power_kw.tolist() == [5.0, 5.2, 5.4]
        assert n2.elapsed_s.tolist() == [0.0, 2.0]
        assert n2.power_kw.tolist() == [7.0, 7.2]

    def test_non_ascii_text_parses_as_csv_does(self):
        text = TRACE_TEXT.replace("n2", "nœud-2")
        assert _outcome(parse_trace_file, text) == (
            _outcome(_reference_parse, text)
        )
        assert [t.node_id for t in parse_trace_file(io.StringIO(text), "w1")
                ] == ["n1", "nœud-2"]

    @pytest.mark.parametrize("row, expected", [
        # a fifth field, which np.loadtxt would pass over with usecols
        ("w1,n2,2.0,5.0,7", "line 3: expected 4 fields, got 5"),
        # padding that str.strip removes and np.loadtxt keeps or rejects
        ("w1,n1\xa0,2.0,5.0", ["n1"]),
        ("w1,n1,2.0\x1c,5.0", ["n1"]),
        # a node id longer than twice the first row's would be cut short
        ("w1,n1-long,2.0,5.0", ["n1", "n1-long"]),
        ("w1,,2.0,5.0", "line 3: empty node_id"),
    ])
    def test_text_off_the_fast_path_parses_as_csv_does(self, row, expected):
        text = f"workload_id,node_id,elapsed_s,power_kw\nw1,n1,0.0,5.5\n{row}\n"
        got = _outcome(parse_trace_file, text)
        assert got == _outcome(_reference_parse, text)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert [node for node, *_ in got] == expected

    def test_traces_own_their_columns(self):
        # a view would keep the whole file's columns alive with any trace
        for trace in parse_trace_file(io.StringIO(TRACE_TEXT), "w1"):
            assert trace.elapsed_s.base is None
            assert trace.power_kw.base is None

    def test_header_required(self):
        with pytest.raises(TraceFormatError, match="header"):
            parse_trace_file(io.StringIO("a,b,c,d\nw1,n1,0,5\n"), "w1")

    def test_wrong_workload_id_rejected_with_line_number(self):
        bad = TRACE_TEXT.replace("w1,n2,0.0,5.0", "other,n2,0.0,5.0")
        with pytest.raises(TraceFormatError, match="line 4"):
            parse_trace_file(io.StringIO(bad), "w1")

    def test_duplicate_timestamp_rejected(self):
        bad = TRACE_TEXT + "w1,n2,2.0,7.0\n"
        with pytest.raises(TraceFormatError, match="duplicate"):
            parse_trace_file(io.StringIO(bad), "w1")

    def test_nonpositive_power_rejected(self):
        bad = TRACE_TEXT.replace("7.25", "0.0")
        with pytest.raises(TraceFormatError, match="power"):
            parse_trace_file(io.StringIO(bad), "w1")

    def test_negative_elapsed_rejected(self):
        bad = TRACE_TEXT.replace("w1,n2,0.0,5.0", "w1,n2,-1.0,5.0")
        with pytest.raises(TraceFormatError):
            parse_trace_file(io.StringIO(bad), "w1")

    def test_non_numeric_field_rejected(self):
        bad = TRACE_TEXT.replace("7.25", "seven")
        with pytest.raises(TraceFormatError):
            parse_trace_file(io.StringIO(bad), "w1")

    def test_short_row_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_trace_file(
                io.StringIO("workload_id,node_id,elapsed_s,power_kw\nw1,n1,0\n"),
                "w1",
            )

    def test_short_row_then_long_row_reports_the_short_one(self):
        # the two rows' field counts sum to eight: only a per-line count
        # catches them
        bad = TRACE_TEXT.replace("w1,n1,2.0,6.0", "w1,n1,2.0").replace(
            "w1,n2,0.0,5.0", "w1,n2,0.0,5.0,x"
        )
        with pytest.raises(TraceFormatError) as err:
            parse_trace_file(io.StringIO(bad), "w1")
        assert str(err.value) == "line 3: expected 4 fields, got 3"

    def test_carriage_return_ends_a_line_as_in_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(
            TRACE_TEXT.replace("w1,n2,0.0,5.0", "w1,n\r2,0.0,5.0").encode()
        )
        with pytest.raises(TraceFormatError) as err:
            parse_trace_file(path, "w1")
        assert str(err.value) == "line 4: expected 4 fields, got 2"

    @pytest.mark.parametrize("quote", ['"', ""])
    def test_csv_errors_keep_their_place_in_file_order(self, quote):
        # a field over csv's size limit is a format error on csv's line,
        # unless an earlier row is at fault
        node = quote + "n" * (csv.field_size_limit() + 1) + quote
        long_row = f"w1,{node},0.0,5.0\n"
        with pytest.raises(TraceFormatError, match="^line 6: .*field limit"):
            parse_trace_file(io.StringIO(TRACE_TEXT + long_row), "w1")
        long_header = TRACE_TEXT.replace("power_kw", "power_kw" + node, 1)
        with pytest.raises(TraceFormatError, match="^line 1: .*field limit"):
            parse_trace_file(io.StringIO(long_header), "w1")
        bad = TRACE_TEXT.replace("w1,n1,2.0,6.0", "w2,n1,2.0,6.0")
        with pytest.raises(TraceFormatError, match="^line 3: row belongs"):
            parse_trace_file(io.StringIO(bad + long_row), "w1")

    @pytest.mark.parametrize("workload_id, text", [
        (" w1", TRACE_TEXT.replace("\nw1,", "\n w1,")),
        ("w1,n1", "workload_id,node_id,elapsed_s,power_kw\nw1,n1,0.0,5.5\n"),
    ])
    def test_workload_id_is_compared_to_the_stripped_field(
        self, workload_id, text
    ):
        # every row's text starts with the expected id, yet the stripped
        # first field is "w1"
        with pytest.raises(TraceFormatError) as err:
            parse_trace_file(io.StringIO(text), workload_id)
        assert str(err.value) == (
            f"line 2: row belongs to workload 'w1', expected {workload_id!r}"
        )

    @pytest.mark.parametrize("row, message", [
        ("w1,n2,nan,5.0", "line 4: non-finite elapsed_s (nan)"),
        ("w1,n2,inf,5.0", "line 4: non-finite elapsed_s (inf)"),
        ("w1,n2,0.0,inf", "line 4: non-finite power_kw (inf)"),
    ])
    def test_non_finite_value_rejected_with_line_number(self, row, message):
        bad = TRACE_TEXT.replace("w1,n2,0.0,5.0", row)
        with pytest.raises(TraceFormatError) as err:
            parse_trace_file(io.StringIO(bad), "w1")
        assert str(err.value) == message

    def test_first_offending_row_in_file_order_is_reported(self):
        # line 3 has the later check (power), line 5 the earlier (workload)
        bad = TRACE_TEXT.replace("w1,n1,2.0,6.0", "w1,n1,2.0,0.0") + (
            "other,n3,0.0,5.0\n"
        )
        with pytest.raises(TraceFormatError) as err:
            parse_trace_file(io.StringIO(bad), "w1")
        assert str(err.value) == "line 3: non-positive power_kw (0.0)"


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=15.0).map(lambda v: round(v, 4)),
        min_size=1, max_size=20,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_parse_write_round_trip_random(values, n_nodes):
    traces = [
        _trace(node=f"n{i}", values=values) for i in range(n_nodes)
    ]
    out = io.StringIO()
    write_trace_file(traces, out)
    back = parse_trace_file(io.StringIO(out.getvalue()), "w1")
    assert len(back) == n_nodes
    for orig, parsed in zip(traces, back):
        assert parsed.node_id == orig.node_id
        assert parsed.power_kw.tolist() == list(values)
        assert parsed.elapsed_s.tolist() == orig.elapsed_s.tolist()


def _reference_parse(fh, workload_id):
    """The row-by-row csv loop that the bulk parser replaced, with the
    non-finite check added: (node_id, elapsed_s, power_kw) per node."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError("line 1: empty trace file") from None
    if tuple(h.strip() for h in header) != ingest._TRACE_HEADER:
        raise TraceFormatError(
            f"line 1: expected header {','.join(ingest._TRACE_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    by_node = {}
    seen = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 4:
            raise TraceFormatError(
                f"line {line}: expected 4 fields, got {len(row)}"
            )
        wid, node_id, elapsed_text, power_text = (f.strip() for f in row)
        if wid != workload_id:
            raise TraceFormatError(
                f"line {line}: row belongs to workload {wid!r}, "
                f"expected {workload_id!r}"
            )
        if not node_id:
            raise TraceFormatError(f"line {line}: empty node_id")
        try:
            elapsed = float(elapsed_text)
            power = float(power_text)
        except ValueError:
            raise TraceFormatError(
                f"line {line}: non-numeric elapsed_s or power_kw"
            ) from None
        if elapsed < 0:
            raise TraceFormatError(
                f"line {line}: negative elapsed_s ({elapsed})"
            )
        if not power > 0:
            raise TraceFormatError(
                f"line {line}: non-positive power_kw ({power})"
            )
        if not math.isfinite(elapsed):
            raise TraceFormatError(
                f"line {line}: non-finite elapsed_s ({elapsed})"
            )
        if not math.isfinite(power):
            raise TraceFormatError(
                f"line {line}: non-finite power_kw ({power})"
            )
        key = (node_id, elapsed)
        if key in seen:
            raise TraceFormatError(
                f"line {line}: duplicate sample for node {node_id!r} "
                f"at elapsed_s={elapsed}"
            )
        seen.add(key)
        times, powers = by_node.setdefault(node_id, ([], []))
        times.append(elapsed)
        powers.append(power)
    if not by_node:
        raise TraceFormatError("trace file has a header but no data rows")
    out = []
    for node_id, (times, powers) in by_node.items():
        order = np.argsort(np.array(times), kind="stable")
        out.append(
            (node_id, np.array(times)[order], np.array(powers)[order])
        )
    return out


_DEFECTS = (
    "non-finite", "duplicate", "power", "negative", "numeric", "node",
    "workload", "fields",
)


@st.composite
def _trace_texts(draw):
    """Trace text with blank lines, padded and quoted fields, CRLF or CR
    line endings, rows out of time order, and up to two injected defects.
    About half the examples use none of quotes, CR or blank lines, so that
    both of the parser's tokenizers see every defect."""
    plain = draw(st.booleans())
    nodes = ("n1", " n1\t", "n2") if plain else ("n1", "n2", "node,3", "n\n4")
    n = draw(st.integers(0, 8))
    times = draw(st.permutations(range(n)))
    rows = [
        [
            draw(st.sampled_from(["w1", "w1 "])),
            draw(st.sampled_from(nodes)),
            draw(st.sampled_from([f"{t}", f"{t}.0", f"{2 * t}e-1"])),
            repr(draw(st.floats(0.5, 12.0))),
        ]
        for t in times
    ]
    defects = draw(st.lists(
        st.tuples(st.sampled_from(_DEFECTS), st.integers(0, max(n - 1, 0))),
        max_size=2 if n else 0,
    ))
    # a changed field count last, so that the other defects find their field
    for kind, i in sorted(defects, key=lambda d: d[0] == "fields"):
        row = rows[i]
        if kind == "fields":
            row.append("x") if draw(st.booleans()) else row.pop()
        elif kind == "workload":
            row[0] = "w2"
        elif kind == "node":
            row[1] = draw(st.sampled_from(["", " "]))
        elif kind == "numeric":
            row[draw(st.sampled_from([2, 3]))] = "seven"
        elif kind == "negative":
            row[2] = draw(st.sampled_from(["-1.5", "-inf"]))
        elif kind == "power":
            row[3] = draw(st.sampled_from(["0", "-2.5", "nan", "-0.0"]))
        elif kind == "non-finite":
            column, value = draw(st.sampled_from(
                [(2, "nan"), (2, "inf"), (3, "inf"), (3, "Infinity")]
            ))
            row[column] = value
        elif n > 1:  # duplicate: another row's node and time
            j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
            row[1:3] = rows[j][1:3]

    def field(value):
        if plain:
            return value
        pad = draw(st.sampled_from(["", " ", "\t"]))
        value = pad + value + pad
        if any(c in value for c in ',\n"') or draw(st.booleans()):
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = [",".join(map(field, ingest._TRACE_HEADER))]
    lines += [",".join(map(field, row)) for row in rows]
    if not plain:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    eol = "\n" if plain else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _outcome(parse, text):
    """The error message, or each trace's node id and column bytes."""
    try:
        traces = parse(io.StringIO(text, newline=""), "w1")
    except TraceFormatError as exc:
        return str(exc)
    return [
        (node, elapsed.dtype, elapsed.tobytes(), power.tobytes())
        for node, elapsed, power in (
            (t.node_id, t.elapsed_s, t.power_kw) if isinstance(t, NodeTrace)
            else t for t in traces
        )
    ]


# one row per defect kind, each bad on its own after "w1,n1,0.0,5.5"
_DEFECT_ROWS = {
    "fields": "w1,n2,0.0",
    "workload": "w2,n2,0.0,5.0",
    "node": "w1, ,0.0,5.0",
    "numeric": "w1,n2,zero,5.0",
    "negative": "w1,n2,-1.0,5.0",
    "power": "w1,n2,0.0,0.0",
    "non-finite": "w1,n2,0.0,inf",
    "duplicate": "w1,n1,0.0,5.0",
}


def test_every_pair_of_defects_reports_the_earlier_row():
    header = "workload_id,node_id,elapsed_s,power_kw\nw1,n1,0.0,5.5\n"
    for a, b in itertools.product(_DEFECT_ROWS.values(), repeat=2):
        text = f"{header}{a}\n{b}\n"
        expected = _outcome(_reference_parse, text)
        assert expected.startswith("line 3: ")
        assert _outcome(parse_trace_file, text) == expected, text


@settings(max_examples=300)
@given(_trace_texts())
def test_bulk_parse_matches_row_by_row_reference(text):
    assert _outcome(parse_trace_file, text) == _outcome(_reference_parse, text)


def _arabic_indic(text):
    return "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in text)


@st.composite
def _clean_texts(draw):
    """Four-field trace text without quotes, CR or blank lines. Its numbers
    take the spellings that ``float`` and ``np.loadtxt`` read alike
    (``+5``, ``5.``, ``.5``, ``1E3``, ``infinity``, ``-nan``, ``1e500``,
    17-digit reprs), and node ids may be longer than the first row's. At
    most one odd node id (padded, or holding a character that
    ``str.splitlines`` breaks at) and one odd spelling (``1_0``,
    Arabic-Indic digits, padded) join them, and some texts carry one
    defect."""
    first = draw(st.sampled_from(["n1", "node07", "x"]))
    nodes = [first, first + "9", first * 2]
    if draw(st.booleans()):  # cut short at the width the first row sets
        nodes.append(first * 2 + "0")
    nodes += draw(st.one_of(st.just([]), st.sampled_from([
        [" " + first], [first + "\t"], ["n1\xa0"], ["a b"], ["n\v1"],
        ["n\f1"], ["n\x1c2"], ["n\x1e3"], ["n\x852"], ["n\u20282"], ["nœud"],
    ])))
    odd = draw(st.one_of(st.none(), st.sampled_from([
        lambda v: v + "_0", _arabic_indic, lambda v: " " + v,
        lambda v: v + "\t", lambda v: "\v" + v, lambda v: v + "\x1c",
    ])))
    n = draw(st.integers(1, 10))
    times = draw(st.permutations(range(n)))

    def spell(t):
        return draw(st.sampled_from([
            f"{t}", f"+{t}", f"{t}.", f"{t}E0", f"{10 * t}e-1", repr(t / 3),
        ] + ([odd(f"{t}")] if odd else [])))

    powers = ["+5", "5.", ".5", "1E3", "1e-1", "infinity", "-nan", "1e500"]
    powers += [odd("12")] if odd else []
    rows = [
        [
            "w1",
            first if i == 0 else draw(st.sampled_from(nodes)),
            spell(t),
            draw(st.one_of(
                st.floats(0.5, 12.0).map(repr), st.sampled_from(powers),
            )),
        ]
        for i, t in enumerate(times)
    ]
    if draw(st.sampled_from([True, False, False, False])):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["wid", "pad", "node", "more", "less"]))
        if kind == "wid":
            row[0] = "w2"
        elif kind == "pad":
            row[0] = draw(st.sampled_from([" w1", "w1 "]))
        elif kind == "node":
            row[1] = ""
        elif kind == "more":
            row.append("1")
        else:
            row.pop()
    header = ",".join(ingest._TRACE_HEADER)
    if draw(st.sampled_from([True] + [False] * 7)):
        header = header.replace("node_id", " node_id")
    lines = [header] + [",".join(row) for row in rows]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300)
@given(_clean_texts())
def test_clean_text_parse_matches_row_by_row_reference(text):
    assert _outcome(parse_trace_file, text) == _outcome(_reference_parse, text)


@pytest.mark.parametrize("row, expected", [
    (f"w1,{'n' * 65},2.0,5.0", "line 3: field larger than field limit (64)"),
    (f"w1,n1,{'0' * 62}2.0,5.0", "line 3: field larger than field limit (64)"),
    (f"w1,n1,2.0,{'0' * 62}5.0", "line 3: field larger than field limit (64)"),
    (f"w1,{'n' * 64},2.0,5.0", None),
])
def test_a_field_over_the_size_limit_is_read_by_csv(row, expected):
    text = f"workload_id,node_id,elapsed_s,power_kw\nw1,n1,0.0,5.5\n{row}\n"
    old = csv.field_size_limit(64)
    try:
        got = _outcome(parse_trace_file, text)
    finally:
        csv.field_size_limit(old)
    if expected is None:  # a field of exactly the limit is read
        assert [node for node, *_ in got] == ["n1", "n" * 64]
    else:
        assert got == expected


def _large_trace_text(nodes=64, samples=520, seed=1):
    """A trace file shaped like the benchmark's ``large`` input set: one
    workload, zero-padded node ids, 2-second sampling, four-decimal powers
    (about 1.2 MB of text at the defaults)."""
    rng = np.random.default_rng(seed)
    elapsed = [repr(2.0 * i) for i in range(samples)]
    out = ["workload_id,node_id,elapsed_s,power_kw"]
    for node in range(nodes):
        powers = np.maximum(rng.normal(8.0, 0.35, samples), 0.05).tolist()
        out.extend(f"syn-w,node{node:03d},{t},{p:.4f}"
                   for t, p in zip(elapsed, powers))
    return "\n".join(out) + "\n"


def test_clean_traces_never_reach_csv_reader(monkeypatch):
    """The desk traces and a benchmark-shaped file take the np.loadtxt path,
    and give what csv.reader gives for the same rows (CRLF line endings
    send a text to csv.reader), so a regression to the slow path fails
    here without a timing run."""
    texts = [(p.read_text(), p.stem)
             for p in sorted((desk_dir() / "traces").glob("*.csv"))]
    texts.append((_large_trace_text(), "syn-w"))

    def parse(text, workload_id):
        return _outcome(lambda fh, _: parse_trace_file(fh, workload_id), text)

    via_csv = [parse(text.replace("\n", "\r\n"), wid) for text, wid in texts]
    calls = []
    real_reader = csv.reader
    monkeypatch.setattr(
        csv, "reader", lambda *a, **k: calls.append(a) or real_reader(*a, **k)
    )
    assert [parse(text, wid) for text, wid in texts] == via_csv
    assert calls == []
    assert len(via_csv[-1]) == 64  # traces, not an error message


@pytest.mark.parametrize("row", [
    "w1,n2,-1.0,5.0", "w1,n2,0.0,0.0", "w1,n2,0.0,-5.0", "w1,n2,nan,5.0",
    "w1,n2,0.0,inf", "w1,n2,2.0,5.0", "w1,n1,0.0,5.0",
])
def test_clean_text_that_fails_a_check_is_read_once(row, monkeypatch):
    """A clean text with a bad number, a duplicate sample, or one that
    repeats an earlier row out of time order raises csv.reader's message
    for the same rows (its CRLF twin) without being tokenized again."""
    text = TRACE_TEXT + row + "\n"
    via_csv = _outcome(parse_trace_file, text.replace("\n", "\r\n"))
    assert via_csv.startswith("line "), via_csv

    def tokenize(text):
        raise AssertionError("clean text reached csv.reader")

    monkeypatch.setattr(ingest, "_tokenize", tokenize)
    assert _outcome(parse_trace_file, text) == via_csv


def _node_trace(elapsed, power):
    return NodeTrace(
        workload_id="w", node_id="n", elapsed_s=elapsed, power_kw=power
    )


class TestTraceTypes:
    def test_samples_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            _node_trace([2.0, 1.0], [5.0, 5.0])
        with pytest.raises(ValueError, match="increasing"):
            _node_trace([1.0, 1.0], [5.0, 5.0])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _node_trace([], [])

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="elapsed_s"):
            _node_trace([-1.0], [5.0])
        with pytest.raises(ValueError, match="power_kw"):
            _node_trace([0.0], [0.0])
        with pytest.raises(ValueError, match="power_kw"):
            _node_trace([0.0, 2.0], [5.0, -1.0])
        # decreasing, negative and a NaN power: the first check words it
        with pytest.raises(ValueError, match="not strictly increasing"):
            _node_trace([2.0, -1.0], [5.0, np.nan])

    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="equal length"):
            _node_trace([0.0, 2.0], [5.0])

    @pytest.mark.parametrize("elapsed, power", [
        ([0.0, np.nan], [5.0, 5.0]),
        ([0.0, np.inf], [5.0, 5.0]),
        ([0.0, 2.0], [5.0, np.inf]),
    ])
    def test_non_finite_values_rejected(self, elapsed, power):
        with pytest.raises(ValueError, match="finite"):
            _node_trace(elapsed, power)

    def test_columns_are_float_arrays(self):
        t = _node_trace((0, 2), (5, 6))
        assert t.elapsed_s.dtype == t.power_kw.dtype == np.float64


class TestSummary:
    def test_pooled_statistics_match_numpy(self):
        t1 = _trace(node="n1", values=(5.0, 6.0, 7.0))
        t2 = _trace(node="n2", values=(4.0, 8.0, 6.5))
        record = _record([t1, t2], duration_h=0.5)
        summary = summarize_workload(record)
        pooled = np.array([5.0, 6.0, 7.0, 4.0, 8.0, 6.5])
        assert summary.p_avg_kw == pytest.approx(pooled.mean(), rel=1e-15)
        assert summary.p_max_kw == pytest.approx(pooled.max(), rel=1e-15)
        assert summary.p_sd_kw == pytest.approx(pooled.std(ddof=0), rel=1e-15)
        assert summary.n_observations == 6
        assert summary.it_energy_kwh == pytest.approx(
            pooled.mean() * 2 * 0.5, rel=1e-15
        )

    def test_interconnect_increment_shifts_everything_uniformly(self):
        t1 = _trace(node="n1", values=(5.0, 6.0))
        t2 = _trace(node="n2", values=(4.0, 7.0))
        base = summarize_workload(_record([t1, t2]))
        shifted = summarize_workload(
            _record([t1, t2], interconnect=1.0)  # 0.5 kW per node
        )
        assert shifted.p_avg_kw == pytest.approx(
            base.p_avg_kw + 0.5, rel=1e-12
        )
        assert shifted.p_max_kw == pytest.approx(
            base.p_max_kw + 0.5, rel=1e-12
        )
        assert shifted.p_sd_kw == pytest.approx(base.p_sd_kw, rel=1e-12)

    def test_allocation_is_even_split(self):
        record = _record([_trace(node="n1"), _trace(node="n2")],
                         interconnect=3.0)
        assert ingest.allocate_interconnect(record) == 1.5


class TestRecordValidation:
    def test_more_traces_than_nodes_rejected(self):
        with pytest.raises(ValueError):
            _record([_trace(node="n1"), _trace(node="n2")], nodes=1)

    def test_foreign_trace_id_rejected(self):
        with pytest.raises(ValueError):
            _record([_trace(wid="other")])


class TestDataset:
    def _dataset(self):
        r1 = ingest.with_compute(_record(
            [_trace(node="n1", values=(5.0, 6.0))], wid="w1"
        ))
        r2 = ingest.with_compute(_record(
            [_trace(wid="w2", node="n1", values=(4.0, 4.5, 5.0))], wid="w2",
            arch=Architecture_CNN,
        ))
        return ingest.assemble_dataset([r1, r2])

    def test_cardinality_one_observation_per_sample(self):
        ds = self._dataset()
        assert ds.n_observations == 5
        assert list(ds.workloads()) == ["w1", "w2"]

    def test_x_is_constant_within_workload(self):
        ds = self._dataset()
        x_of = dict(zip(ds.workloads(), ds.x.tolist()))
        assert [s.workload_id for s in ds.segments] == ["w1", "w2"]
        for s in ds.segments:
            assert s.x == x_of[s.workload_id]

    def test_workload_table_in_first_appearance_order(self):
        t = ingest.RegressionDataset(
            workload_ids=np.array(["b", "a", "b", "c", "a"]),
            node_ids=np.array(["n1", "n1", "n2", "n1", "n2"]),
            power_kw=np.array([5.0, 2.0, 7.0, 3.0, 4.0]),
            x=np.array([14.0, 12.0, 14.0, 16.0, 12.0]),
            arch=np.array([
                Architecture_LLM, Architecture_CNN, Architecture_LLM,
                Architecture_CNN, Architecture_CNN,
            ]),
        )
        assert t.workloads() == ("b", "a", "c")
        np.testing.assert_array_equal(t.n, [2, 2, 1])
        np.testing.assert_array_equal(t.x, [14.0, 12.0, 16.0])
        np.testing.assert_array_equal(
            t.arch, [Architecture_LLM, Architecture_CNN, Architecture_CNN]
        )
        np.testing.assert_allclose(t.mean_kw, [6.0, 3.0, 3.0], rtol=1e-15)
        np.testing.assert_allclose(t.within_ss, [2.0, 2.0, 0.0], atol=1e-15)
        assert t.drop(["a"]).workloads() == ("b", "c")

    def test_drop(self):
        ds = self._dataset()
        only_w2 = ds.drop(["w1"])
        assert list(only_w2.workloads()) == ["w2"]
        assert only_w2.n_observations == 3
        assert [s.workload_id for s in only_w2.segments] == ["w2"]
        assert ds.drop([]).n_observations == 5

    def test_sha256_tracks_content(self):
        ds = self._dataset()
        h1 = ds.sha256()
        assert h1 == ds.sha256()  # stable
        assert ds.drop(["w1"]).sha256() != h1

    @staticmethod
    def _rows(wids, nids, power):
        n = len(power)
        return ingest.RegressionDataset(
            workload_ids=np.array(wids), node_ids=np.array(nids),
            power_kw=np.array(power, dtype=float), x=np.full(n, 14.0),
            arch=np.full(n, Architecture_LLM),
        )

    def test_sha256_ignores_string_dtype_width(self):
        ds = self._dataset()
        rows = dict(
            workload_ids=np.repeat(ds.workload_ids, ds.n),
            node_ids=np.full(5, "n1"),
            power_kw=[5.0, 6.0, 4.0, 4.5, 5.0],
            x=np.repeat(ds.x, ds.n), arch=np.repeat(ds.arch, ds.n),
        )
        wide = ingest.RegressionDataset(**{
            **rows,
            "workload_ids": rows["workload_ids"].astype("<U40"),
            "node_ids": rows["node_ids"].astype("<U17"),
            "arch": rows["arch"].astype("<U9"),
        })
        assert ingest.RegressionDataset(**rows).sha256() == ds.sha256()
        assert wide.sha256() == ds.sha256()
        short = self._rows(["a", "a"], ["n1", "n2"], [5.0, 6.0])
        # drop() keeps the wider dtype of the ids it removed
        dropped = self._rows(
            ["a", "a", "longer-id"], ["n1", "n2", "n3"], [5.0, 6.0, 7.0]
        ).drop(["longer-id"])
        assert dropped.workload_ids.dtype.itemsize > (
            short.workload_ids.dtype.itemsize
        )
        assert dropped.sha256() == short.sha256()

    def test_sha256_encoding_is_unambiguous(self):
        split_late = self._rows(["w", "w"], ["a", "b\nc"], [5.0, 6.0])
        split_early = self._rows(["w", "w"], ["a\nb", "c"], [5.0, 6.0])
        assert split_late.sha256() != split_early.sha256()
        ulp = self._rows(
            ["w", "w"], ["a", "b"], [5.0, np.nextafter(6.0, np.inf)]
        )
        base = self._rows(["w", "w"], ["a", "b"], [5.0, 6.0])
        assert ulp.sha256() != base.sha256()

    def test_assemble_requires_compute(self):
        with pytest.raises(ValueError):
            ingest.assemble_dataset([_record([_trace()])])

    def test_records_without_cnn_arch_error(self):
        r = _record([_trace()])
        assert r.compute is None


def _write_config(tmp_path, body, name="w.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


LLM_CONFIG = """\
    [workload]
    id = w1
    architecture = llm
    nodes = 2
    gpus_per_node = 8
    duration_h = 0.5
    source = SMC

    [llm]
    hidden_size = 64
    layers = 2
    sequence_length = 8
    vocab_size = 100
    global_batch = 4
    """


class TestConfigLoading:
    def test_llm_config(self, tmp_path):
        record = ingest.load_workload_config(
            _write_config(tmp_path, LLM_CONFIG)
        )
        assert record.workload_id == "w1"
        assert record.nodes == 2
        assert record.arch_params.global_batch == 4
        assert record.interconnect_total_kw == 0.0

    def test_cnn_config(self, tmp_path):
        body = """\
            [workload]
            id = c1
            architecture = cnn
            nodes = 1
            gpus_per_node = 8
            duration_h = 1.0
            source = BNL

            [cnn]
            flops_per_image_gflops = 11.3
            image_side = 32
            global_batch = 512
            """
        record = ingest.load_workload_config(_write_config(tmp_path, body))
        assert record.arch_params.flops_per_image == pytest.approx(11.3e9)

    def test_minibatch_and_global_batch_mutually_exclusive(self, tmp_path):
        body = LLM_CONFIG + "    minibatch = 2\n    tp = 1\n    cp = 1\n    pp = 1\n"
        with pytest.raises(ConfigError):
            ingest.load_workload_config(_write_config(tmp_path, body))

    def test_missing_section_rejected(self, tmp_path):
        body = LLM_CONFIG.replace("[llm]", "[other]")
        with pytest.raises(ConfigError):
            ingest.load_workload_config(_write_config(tmp_path, body))

    def test_missing_key_rejected(self, tmp_path):
        body = LLM_CONFIG.replace("vocab_size = 100\n", "")
        with pytest.raises(ConfigError):
            ingest.load_workload_config(_write_config(tmp_path, body))

    def test_percent_and_bare_carriage_returns_are_plain_text(self, tmp_path):
        # no interpolation: "%" is a character like any other; and a bare
        # CR ends a line, as it does in a file opened in text mode
        body = LLM_CONFIG.replace("source = SMC", "source = 100% SMC")
        path = _write_config(tmp_path, body)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        # configparser reads it: the clean reader declines a CR
        assert files._read_clean_ini(path.read_bytes().decode()) is None
        record = ingest.load_workload_config(path)
        assert record.source == "100% SMC"
        assert record.arch_params.vocab_size == 100

    def test_reference_flops_mismatch_warns_on_compute(self, tmp_path):
        body = LLM_CONFIG.replace(
            "source = SMC", "source = SMC\n    reference_flops = 1e18"
        )
        record = ingest.load_workload_config(_write_config(tmp_path, body))
        with pytest.warns(flops.FlopsMismatchWarning):
            tagged = ingest.with_compute(record)
        assert tagged.compute is not None


def _configparser_sections(text):
    """The sections configparser reads from text, in file order, as
    ``read_ini`` sets it up; raises ``configparser.Error``."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    parser.read_file(io.StringIO(text, newline=None))
    return [(s, list(parser.items(s))) for s in parser.sections()]


def _mostly(clean, odd):
    """One of clean or odd, each clean one drawn 30 times as often."""
    return st.sampled_from(clean * 30 + odd)


_INI_NAMES = _mostly(
    ["a", "b", "A", "a b", "k:v", "%"],
    [" a ", "", "DEFAULT", "a]b", "[c", "\u00e9"],
)
_INI_KEYS = _mostly(
    ["k", "K", "key", "a b", "%", "k[1]"],
    ["", "x:y", "\u00e9", "#k", " k", "k;", "[k]"],
)
_INI_VALUES = _mostly(
    ["1", "", "v w", "100%", "%(k)s", "a=b", "c:d", "[x]", "1 "],
    ["1 # c", "1 ; c", "1#c", "\u00e9"],
)
_INI_DELIMITERS = _mostly(["=", " = "], [":", " : ", "\t=\t"])
_INI_INDENTS = _mostly([""], [" ", "\t"])
# comments, blank lines, continuations, bare keys, duplicates, DEFAULT
_INI_EXTRAS = _mostly(
    ["", "# c", "; c"],
    ["  # c", " ", "\t", "  cont", "\tcont", "k", "[a]", "k = 2", "K=3",
     "[DEFAULT]"],
)
_INI_ENDINGS = _mostly(["\n"], ["\r\n", "\r"])


@st.composite
def _ini_texts(draw):
    lines = []
    for name in draw(st.lists(_INI_NAMES, min_size=1, max_size=3,
                              unique=True)):
        lines.append(f"[{name}]")
        for key in draw(st.lists(_INI_KEYS, max_size=4, unique_by=str.lower)):
            lines.append(draw(_INI_INDENTS) + key + draw(_INI_DELIMITERS)
                         + draw(_INI_VALUES))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_INI_EXTRAS))
    return "".join(line + draw(_INI_ENDINGS) for line in lines)


@settings(max_examples=1000, deadline=None)
@given(text=_ini_texts())
def test_clean_ini_reader_agrees_with_configparser(text):
    """Where the clean reader accepts a text, its sections, keys and values
    are configparser's, in the same order; where configparser fails, it
    declines, so that configparser words the error."""
    clean = files._read_clean_ini(text)
    try:
        expected = _configparser_sections(text)
    except configparser.Error:
        assert clean is None
        return
    if clean is not None:
        assert [(s, list(d.items())) for s, d in clean.items()] == expected


def test_shipped_ini_files_take_the_clean_reader():
    paths = [*sorted(desk_dir().glob("*.ini")),
             ROOT / "demos" / "fleet.ini"]
    for path in paths:
        text = path.read_text(encoding="utf-8")
        clean = files._read_clean_ini(text)
        assert clean is not None, path
        expected = _configparser_sections(text)
        assert [(s, list(d.items())) for s, d in clean.items()] == expected


def test_other_ini_text_is_read_by_configparser(tmp_path):
    # a default section is merged into every section, as configparser's
    # items() merges it; an indented line continues a value
    path = tmp_path / "a.ini"
    path.write_text("[DEFAULT]\nd = 1\n[a]\nk = v\n  w\n", encoding="utf-8")
    assert files.read_ini(path) == {"a": {"d": "1", "k": "v\nw"}}
    path.write_text("[a]\nk = 1\nK = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=(
        r"invalid config syntax \(While reading from .*a\.ini.* \[line  3\]: "
        r"option 'k' in section 'a' already exists\)"
    )):
        files.read_ini(path)


class TestManifest:
    def test_load_and_assemble(self, tmp_path):
        config = _write_config(tmp_path, LLM_CONFIG)
        trace = tmp_path / "w.csv"
        write_trace_file(
            [_trace(node="n1"), _trace(node="n2")], trace
        )
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "config,trace\nw.ini,w.csv\n", encoding="utf-8"
        )
        records, ds = ingest.load_and_assemble(manifest)
        assert len(records) == 1
        assert ds.n_observations == 6
        assert records[0].compute is not None

    def test_manifest_header_required(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("a,b\nw.ini,w.csv\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            ingest.load_manifest(manifest)

    def test_exclusions_file(self, tmp_path):
        path = tmp_path / "ex.csv"
        path.write_text(
            "workload_id,reason\nw1,leakage\nw2,outlier\n", encoding="utf-8"
        )
        assert ingest.load_exclusions(path) == (
            ("w1", "leakage"), ("w2", "outlier"),
        )


def _trace_lines(wid, rows, end="\n"):
    """Trace text of ``wid`` holding rows given as ``node,elapsed,power``."""
    header = ",".join(ingest._TRACE_HEADER)
    return end.join([header, *(f"{wid},{row}" for row in rows)]) + end


def _write_manifest(tmp_path, traces, nodes=4):
    """A manifest of one LLM workload per trace text (a function of the
    workload id), ``w0``, ``w1``, ..., each config allowing ``nodes``
    nodes; the (config, trace) paths in manifest order."""
    lines, pairs = ["config,trace"], []
    for i, trace in enumerate(traces):
        wid = f"w{i}"
        config = _write_config(tmp_path, LLM_CONFIG.replace(
            "id = w1", f"id = {wid}").replace("nodes = 2", f"nodes = {nodes}"),
            f"{wid}.ini")
        path = tmp_path / f"{wid}.csv"
        path.write_bytes(trace(wid).encode())
        lines.append(f"{wid}.ini,{wid}.csv")
        pairs.append((config, path))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest, pairs


def _columns(traces):
    return [(t.workload_id, t.node_id, t.elapsed_s.tobytes(),
             t.power_kw.tobytes()) for t in traces]


# clean, CRLF (csv.reader), out of time order (lexsort), interleaved
# nodes, a node id longer than the widths the others give (np.loadtxt
# would cut it short in a batch), a node id an earlier file also uses,
# and a blank line (csv.reader)
_MIXED_TRACES = [
    lambda w: _trace_lines(w, ["n1,0.0,5.5", "n1,2.0,6.0", "n1,4.0,6.5"]),
    lambda w: _trace_lines(w, ["n1,0.0,5.0", "n2,0.0,7.0"], "\r\n"),
    lambda w: _trace_lines(w, ["n2,4.0,5.0", "n2,2.0,6.0", "n1,2.0,7.0",
                               "n1,0.0,8.0"]),
    lambda w: _trace_lines(w, ["n1,0.0,5.0", "n2,0.0,6.0", "n1,2.0,7.0",
                               "n2,2.0,8.0"]),
    lambda w: _trace_lines(w, ["a,0.0,5.0", "abcdefghijkl,0.0,6.0"]),
    lambda w: _trace_lines(w, ["n1,0.0,9.0", "n3,0.0,9.5"]),
    lambda w: _trace_lines(w, ["n1,0.0,5.0"]) + f"\n{w},n1,2.0,6.0\n",
]


@pytest.mark.parametrize("bound", [1, 5, ingest.BATCH_ROWS])
def test_manifest_batches_parse_as_each_file_alone(bound, tmp_path,
                                                    monkeypatch):
    manifest, pairs = _write_manifest(tmp_path, _MIXED_TRACES)
    monkeypatch.setattr(ingest, "BATCH_ROWS", bound)
    records = ingest.load_manifest(manifest)
    alone = [ingest.load_workload(config, trace) for config, trace in pairs]
    assert [dataclasses.replace(r, traces=()) for r in records] == [
        dataclasses.replace(r, traces=()) for r in alone
    ]
    assert [_columns(r.traces) for r in records] == [
        _columns(parse_trace_file(trace, f"w{i}"))
        for i, (_, trace) in enumerate(pairs)
    ] == [_columns(r.traces) for r in alone]


@pytest.mark.parametrize("text", [
    "workload_id,node_id,elapsed_s,power_kw\nw1,n1,0.0,5.0\n\n"
    "w1,n1,2.0,-1.0\n",
    "workload_id,node_id,elapsed_s,power_kw\nw1,n1,0.0,5.0\n\n",
])
def test_blank_lines_keep_their_line_numbers(text):
    """Text that passes the whole-text checks but holds a blank line, which
    np.loadtxt would skip, is read by csv.reader, which counts it."""
    assert _outcome(parse_trace_file, text) == _outcome(
        parse_trace_file, text.replace("\n", "\r\n")
    )


@pytest.mark.parametrize("bound, sizes", [
    (8, [3, 4, 2, 12, 1, 5, 6, 8, 7]),
    (64, [20] * 9),
    (ingest.BATCH_ROWS, [66] * 60),
])
def test_manifest_batches_keep_to_the_bound(bound, sizes, tmp_path,
                                            monkeypatch):
    """No np.loadtxt call reads more data lines than the larger of the
    bound and the largest file, and files under the bound share calls."""
    traces = [
        lambda w, n=n: _trace_lines(w, [f"n{t % 2},{t // 2}.0,5.0"
                                        for t in range(n)])
        for n in sizes
    ]
    manifest, _ = _write_manifest(tmp_path, traces)
    monkeypatch.setattr(ingest, "BATCH_ROWS", bound)
    calls = []
    real = np.loadtxt
    monkeypatch.setattr(
        np, "loadtxt", lambda data, *a, **k: calls.append(len(data))
        or real(data, *a, **k)
    )
    records = ingest.load_manifest(manifest)
    assert [sum(t.elapsed_s.size for t in r.traces) for r in records] == sizes
    assert sum(calls) == sum(sizes)
    assert max(calls) <= max(bound, max(sizes))
    assert len(calls) < len(sizes)


@pytest.mark.parametrize("defects", [
    {2: "row", 4: "config"},
    {1: "row", 3: "row"},
    {1: "nodes", 3: "row"},
    {3: "row", 1: "duplicate"},
    {2: "row", 3: "missing"},
    {0: "csv-row", 2: "row"},
])
def test_manifest_raises_the_first_workloads_error(defects, tmp_path):
    """The error is that of loading each workload in turn: the first
    failing workload in manifest order, its config before its trace. Bad
    rows sit on a different line in each file, so the message tells the
    workloads apart."""
    def trace(i):
        rows = [f"n1,{t}.0,5.0" for t in range(6)]
        kind = defects.get(i)
        if kind in ("row", "csv-row"):
            rows[i] = f"n1,{i}.0,-1.0"
        elif kind == "duplicate":
            rows[i] = rows[i - 1]
        elif kind == "nodes":  # five nodes for a config that allows four
            rows = [f"n{t},0.0,5.0" for t in range(5)]
        end = "\r\n" if kind == "csv-row" else "\n"
        return lambda w: _trace_lines(w, rows, end)

    manifest, pairs = _write_manifest(tmp_path, [trace(i) for i in range(6)])
    for i, kind in defects.items():
        if kind == "config":
            pairs[i][0].write_text(
                pairs[i][0].read_text().replace("nodes = 4", "nodes = four")
            )
        elif kind == "missing":
            pairs[i][1].unlink()

    def outcome(load, *args):
        try:
            load(*args)
        except ValueError as exc:
            return type(exc), str(exc)
        return None

    first = min(defects)
    expected = outcome(ingest.load_workload, *pairs[first])
    assert expected is not None
    assert next(o for o in (outcome(ingest.load_workload, *pair)
                            for pair in pairs) if o) == expected
    assert outcome(ingest.load_manifest, manifest) == expected


@pytest.mark.parametrize("row, message", [
    (",2.0,5.0", "line 3: empty node_id"),
    ("n1,2.0,", "line 3: non-numeric elapsed_s or power_kw"),
])
def test_an_empty_field_in_clean_looking_text(row, message, tmp_path,
                                             monkeypatch):
    """Text that passes the whole-text checks but holds an empty node id
    or power on a middle line raises csv.reader's message for that line,
    alone and from a batch of several files."""
    rows = ["n1,0.0,5.0", row, "n1,4.0,6.0"]
    assert _outcome(parse_trace_file, _trace_lines("w1", rows)) == message
    good = ["n1,0.0,5.0", "n1,2.0,6.0"]
    manifest, pairs = _write_manifest(
        tmp_path, [lambda w: _trace_lines(w, good),
                   lambda w: _trace_lines(w, rows),
                   lambda w: _trace_lines(w, good)],
    )
    calls = []
    real = np.loadtxt
    monkeypatch.setattr(
        np, "loadtxt", lambda data, *a, **k: calls.append(len(data))
        or real(data, *a, **k)
    )
    with pytest.raises(TraceFormatError) as exc:
        ingest.load_manifest(manifest)
    assert str(exc.value) == f"{pairs[1][1]}: {message}"
    assert calls[0] == 2 * len(good) + len(rows)  # one batch of all three


def test_trace_errors_name_the_trace_file_once(tmp_path):
    rows = ["n1,0.0,5.0", "n1,2.0,5.0", "n1,4.0,-1.0"]
    manifest, pairs = _write_manifest(
        tmp_path, [lambda w: _trace_lines(w, rows[:2]),
                   lambda w: _trace_lines(w, rows)],
    )
    config, trace = pairs[1]
    message = "line 4: non-positive power_kw (-1.0)"
    with pytest.raises(TraceFormatError) as alone:
        parse_trace_file(trace, "w1")
    assert str(alone.value) == message
    for load, args in ((ingest.load_workload, pairs[1]),
                       (ingest.load_manifest, (manifest,))):
        with pytest.raises(TraceFormatError) as exc:
            load(*args)
        assert str(exc.value) == f"{trace}: {message}"
    # a file that cannot be read is named by read_text alone
    trace.unlink()
    with pytest.raises(TraceFormatError) as alone:
        parse_trace_file(trace, "w1")
    assert str(alone.value).startswith(f"{trace}: cannot read trace file")
    for load, args in ((ingest.load_workload, pairs[1]),
                       (ingest.load_manifest, (manifest,))):
        with pytest.raises(TraceFormatError) as exc:
            load(*args)
        assert str(exc.value) == str(alone.value)


def test_parsed_traces_are_checked_once(monkeypatch):
    # a manifest's traces pass the checks on their file's whole columns,
    # and are built without NodeTrace's own checks, which each would pass
    checked = []
    post_init = NodeTrace.__post_init__

    def spy(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(NodeTrace, "__post_init__", spy)
    traces = [
        t for r in ingest.load_manifest(desk_dir() / "manifest.csv")
        for t in r.traces
    ]
    assert traces and not checked
    for t in traces:
        again = NodeTrace(t.workload_id, t.node_id, t.elapsed_s, t.power_kw)
        assert again.elapsed_s is t.elapsed_s and again.power_kw is t.power_kw
        assert t.elapsed_s.dtype == t.power_kw.dtype == np.float64
    assert len(checked) == len(traces)


class TestDeskDataset:
    def test_shape(self, desk_dataset):
        assert desk_dataset.n_observations == 7450
        assert len(desk_dataset.workloads()) == 9

    def test_holds_no_per_sample_text(self, desk_dataset):
        # text columns with one entry per sample took most of the memory
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    yield from arrays(getattr(value, field.name))

        found = list(arrays(desk_dataset))
        assert found
        n = desk_dataset.n_observations
        assert not [
            a.dtype for a in found if a.dtype.kind in "USO" and len(a) == n
        ]

    def test_sha256_format_is_pinned(self, desk_dataset):
        # fit provenance records this value; a new value is a file-format
        # change and belongs in the changelog
        assert desk_dataset.sha256() == (
            "fb75d18ca39fc763e21ca382c410ef82fee04bb8fb1ed302d75f52ad9ae9333e"
        )

    def test_sha256_of_ids_with_nul_characters_is_pinned(self):
        # a UCS-4 cell drops trailing NULs, so they add no width and no
        # bytes (the width of "ab\0" is 2), while a NUL inside a value
        # counts; the values below were taken with numpy's str_len widths
        S = ingest._Segment
        table = ingest._table([
            S("ab\x00", "n\x00\x00", "llm", 12.5, np.array([5.0, 5.5])),
            S("ab\x00", "a\x00b", "llm", 12.5, np.array([5.25])),
            S("c", "\x00", "cnn", 11.0, np.array([3.0, 3.125])),
        ])
        assert table.sha256() == (
            "5633263943b0cf627e6ac49fa98bb0dee2329c31e4ddcaf68da4ccf6427e51e3"
        )
        # every node id all NULs: width 0, written as 1
        table = ingest._table([
            S("w\x00", "\x00", "llm", 12.5, np.array([5.0])),
            S("v\x00\x00", "\x00\x00", "cnn", 11.0, np.array([3.0])),
        ])
        assert table.sha256() == (
            "a79516cf02b6bdb7a2cd93a850b3430645cf37192adf9400d5c16beb7b37ba3e"
        )

    def test_intensities_match_published_flops(self, desk_records):
        # config-derived x must agree with the published per-node counts to
        # a few percent for all workloads except the documented misfit
        from nodepower import reference
        by_id = {r.workload_id: r for r in reference.REFERENCE_WORKLOADS}
        for record in desk_records:
            if record.workload_id == "bnl-llama-13b-1":
                continue
            want = math.log10(by_id[record.workload_id].flops_per_node)
            assert record.compute.log_intensity == pytest.approx(
                want, abs=0.01
            ), record.workload_id

    def test_summaries_near_published_values(self, desk_records):
        from nodepower import reference
        by_id = {r.workload_id: r for r in reference.REFERENCE_WORKLOADS}
        for record in desk_records:
            published = by_id[record.workload_id]
            got = summarize_workload(record)
            # synthetic traces are drawn around the published mean; the
            # ceiling clip drags the realized mean slightly low
            assert got.p_avg_kw == pytest.approx(
                published.p_avg_kw, rel=0.06
            ), record.workload_id
            assert got.p_max_kw <= published.p_max_kw + 1e-9
