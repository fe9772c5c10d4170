"""nodepower benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-cli --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35
    python3 bench/compare.py PARENT_DIR CHANGE_DIR

``--trace 0`` measures the end-to-end metrics with tracing off: closed-loop
rounds of the workload's operations until ``--seconds`` runs out, each time
reported as the median of its samples, corrected for the host's speed (see
``reference_s``). ``--trace 1`` makes one
separate pass with spans recorded at the package's layer boundaries and
reports per-layer metrics, including the tracing overhead. ``all`` runs
every workload both ways in child processes and prints every metric.

Every run checks its outputs, prints a table of metrics with units, writes
a machine-readable record under ``bench/out/`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The package is imported from this checkout's ``src/``; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS/OpenMP thread per measuring process

import argparse
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_CHILDREN = 2  # set-up runs in fresh processes, besides our own
MIN_SECONDS_PER_ROUND = 1.0
# workload -> input set (the reasons for each are in BENCHMARK.json)
WORKLOADS = {"desk-cli": "desk", "synth-large": "large", "synth-wide": "wide"}


def _fail(message: str) -> int:
    print(f"bench: error: {message}", file=sys.stderr)
    return 2


# Host-speed correction. On a shared virtual machine the CPU speed can
# wander by up to half over tens of seconds (other tenants on the host), far
# more than the bounds. Every timed sample is bracketed by a fixed
# pure-Python loop timed on the same pinned CPU, and scaled to the loop's
# nominal time:
#     corrected = wall * REF_NOMINAL_S / mean(loop before, loop after)
# Raw wall times stay in the run record next to the corrected ones.
REF_LOOPS = 100_000
REF_NOMINAL_S = 0.0065  # the loop's time on the 2-vCPU VM that set the bounds


def reference_s() -> float:
    """Best of three runs of a fixed pure-Python loop: the host's speed now."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(REF_LOOPS):
            x += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class Recorder:
    """Samples per metric and the operations attempted and failed."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.refs: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, metric: str, seconds: float, ref: float) -> None:
        self.samples.setdefault(metric, []).append(seconds)
        self.refs.setdefault(metric, []).append(ref)

    def attempt(self, metric: str | None, fn: Callable[[], float | None]):
        """Run one operation; record its timed seconds under ``metric``.

        A failed operation is counted and its time up to the failure kept,
        so a failure never shortens a metric."""
        # imported here: workloads loads numpy, which must not be imported
        # before the timed set-up
        from workloads import CheckFailed

        self.attempted += 1
        before = reference_s() if metric else 0.0
        start = time.perf_counter()
        try:
            value = fn()
        except (CheckFailed, subprocess.TimeoutExpired) as exc:
            value = time.perf_counter() - start
            self.failures.append(f"{metric}: {exc}")
        except Exception as exc:  # any error inside the package is a failure
            value = time.perf_counter() - start
            self.failures.append(f"{metric}: {type(exc).__name__}: {exc}")
        if metric is not None:
            self.add(metric, float(value), (before + reference_s()) / 2)
        return value

    def medians(self) -> tuple[dict[str, float], dict[str, float]]:
        """Host-speed-corrected and raw medians per metric."""
        corrected = {
            m: statistics.median(
                t * REF_NOMINAL_S / r for t, r in zip(v, self.refs[m])
            )
            for m, v in self.samples.items()
        }
        raw = {m: statistics.median(v) for m, v in self.samples.items()}
        return corrected, raw


def _child_setup() -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def measure(session, rec: Recorder, seconds: float) -> dict:
    """Closed-loop rounds of the timed operations until ``seconds`` is
    spent. CLI and in-process operations alternate, so each metric's samples
    spread over the whole run."""
    state: dict = {}

    def calibrate() -> float:
        elapsed, state["excluded"], state["fitted"] = session.calibrate()
        return elapsed

    def repeat(metric: str, fn: Callable[[], float]) -> None:
        # short operations repeat within a round, so each metric gets
        # about a second of samples per round
        spent = 0.0
        while spent < MIN_SECONDS_PER_ROUND:
            spent += rec.attempt(metric, fn)

    operations = (
        ("cli_fit_s", lambda: session.cli("fit")[0]),
        ("calibrate_s", calibrate),
        ("cli_scenario_s", lambda: session.cli("scenario")[0]),
        ("loocv_s", lambda: session.loocv(state["excluded"])),
    )
    began = time.perf_counter()
    while True:
        ran = False
        for metric, fn in operations:
            # skip an operation whose last sample would not fit in the time
            # left, so shorter ones use the end of the run
            last = rec.samples.get(metric, [0.0])[-1]
            if time.perf_counter() - began + last > seconds:
                continue
            if metric == "loocv_s" and "excluded" not in state:
                continue
            repeat(metric, fn)
            ran = True
        if not ran:
            break
    if "fitted" in state:
        rec.attempt(None, lambda: session.model_round_trip(state["fitted"]))
    if session.inputs.truth_sse is not None:
        rec.attempt(None, session.anchored_truth_fit)
    metrics = {"peak_rss_mb": _peak_rss_mb()}
    return metrics


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_metrics(stderr: str) -> dict[str, float]:
    """Import costs from ``-X importtime`` output, in seconds.

    A package's cost is the cumulative time of its outermost entries: those
    whose importer is not part of the same package (scipy, for one, loads
    ``scipy.stats`` through submodules that are listed without it).
    """
    entries = []  # (self s, cumulative s, importer, name), in import order
    importers: list[str] = []
    lines = [m.groups() for m in map(_IMPORT_LINE.match, stderr.splitlines())
             if m]
    for own, cumulative, indent, name in reversed(lines):  # parents first
        level = len(indent) // 2
        del importers[level:]
        entries.append((int(own) / 1e6, int(cumulative) / 1e6,
                        importers[-1] if importers else "", name))
        importers.append(name)

    def inside(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    def cost(package: str) -> float:
        return sum(c for _, c, parent, n in entries
                   if inside(n, package) and not inside(parent, package))

    return {
        "import.total_s": cost("nodepower"),
        "import.nodepower_self_s": sum(
            s for s, _, _, n in entries if inside(n, "nodepower")
        ),
        "import.scipy_stats_s": cost("scipy.stats"),
        "import.scipy_special_s": cost("scipy.special"),
        "import.numpy_s": cost("numpy"),
    }


def trace(session, rec: Recorder, scratch: Path) -> tuple[dict, list, list]:
    """One traced pass: per-layer metrics, the spans behind them, and notes
    on how much of the end-to-end time the main layers account for."""
    from tracing import COMMANDS, Tracer, layer_metrics, load_spans

    metrics: dict[str, float] = {}
    spans = []
    imports = []
    for command in COMMANDS:
        metrics[f"cli.{command}.process_s"] = rec.attempt(
            None, lambda c=command: session.cli(c)[0]
        )
        path = scratch / f"spans-{command}.json"

        def traced(c: str = command, p: Path = path) -> None:
            imports.append(import_metrics(session.cli(c, spans=p)[1]))
            spans.extend(load_spans(p))

        rec.attempt(None, traced)
    for key in imports[0] if imports else ():
        metrics[key] = statistics.median(m[key] for m in imports)

    state: dict = {}

    def in_process() -> float:
        elapsed, state["excluded"], state["fitted"] = session.calibrate()
        state["loocv_s"] = session.loocv(state["excluded"])
        return elapsed + state["loocv_s"]

    # untraced, traced, untraced: the faster untraced pass is the baseline,
    # so first-call costs in the first pass do not read as negative overhead
    before = rec.attempt(None, in_process)
    tracer = Tracer(run_id="in-process")
    tracer.install()
    try:
        traced_s = rec.attempt(None, in_process)
        traced_loocv_s = state.get("loocv_s", 0.0)
        if "fitted" in state:
            rec.attempt(None, lambda: session.model_round_trip(state["fitted"]))
    finally:
        tracer.uninstall()
    untraced = min(before, rec.attempt(None, in_process))
    spans.extend(tracer.spans)
    metrics.update(layer_metrics(spans))
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = traced_s - untraced
    loocv_spans = sum(s.end - s.start for s in tracer.spans
                      if s.name == "fit.loocv")
    notes = [
        f"import.total_s / cli.scenario.process_s = "
        f"{metrics.get('import.total_s', 0.0) / metrics['cli.scenario.process_s']:.2f}",
        f"fit.loocv spans / traced in-process loocv = "
        f"{loocv_spans / traced_loocv_s if traced_loocv_s else 0.0:.3f}",
    ]
    if tracer.absent:
        notes.append("absent (not wrapped): " + ", ".join(tracer.absent))
    return metrics, spans, notes


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from child import setup

    # the measuring process and its CLI children share one CPU, so the
    # reference loop sees the speed the timed work sees
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "pinned_cpu": cpu,
        "loadavg_start": _loadavg(),
    }
    rec = Recorder()
    before = reference_s()
    try:
        own_setup = setup()
    except ImportError as exc:
        return _fail(f"cannot import nodepower from {ROOT / 'src'}: {exc}")
    rec.add("setup_s", own_setup, (before + reference_s()) / 2)
    import nodepower
    import numpy
    import scipy

    if not Path(nodepower.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"nodepower imported from {nodepower.__file__}, "
                     f"not from {ROOT / 'src'}")
    from workloads import Session, make_inputs

    if not args.trace:
        for _ in range(SETUP_CHILDREN):
            rec.attempt("setup_s", _child_setup)

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    spans: list = []
    notes: list = []
    try:
        inputs = make_inputs(WORKLOADS[args.workload], args.seed, ROOT,
                             scratch / "inputs")
        session = Session(ROOT, inputs, scratch)
        if args.trace:
            metrics, spans, notes = trace(session, rec, scratch)
            raw = {}
        else:
            metrics = measure(session, rec, args.seconds)
            corrected, raw = rec.medians()
            metrics.update(corrected)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record.update({
        "loadavg_end": _loadavg(),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "inputs": inputs.sizes(),
        "samples": rec.samples,
        "reference_s": rec.refs,
        "raw_medians": raw,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "error_rate": len(rec.failures) / max(rec.attempted, 1),
        "notes": notes,
        "metrics": metrics,
    })
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (OUT / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        from dataclasses import asdict

        (OUT / f"{stamp}-spans.json").write_text(
            json.dumps([asdict(s) for s in spans])
        )

    units = _units()
    _print_table(args, record, metrics, units)
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, (unit, per_layer) in units.items()
            if per_layer == args.trace
        },
    }
    print(json.dumps(result))
    return 0


def _units() -> dict[str, tuple[str, int]]:
    """Metric name -> (unit, 0 for end-to-end or 1 for per-layer), as
    declared in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["unit"], 0) for m in doc["end_to_end"]}
    out.update({m["name"]: (m["unit"], 1) for m in doc["per_layer"]})
    return out


def _print_table(args, record: dict, metrics: dict, units: dict) -> None:
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"nodepower benchmark: {args.workload}, seed {args.seed}, {mode}")
    print(f"inputs: {record['inputs']}")
    for name in sorted(metrics):
        unit = units.get(name, ("", 0))[0] or "-"
        samples = record["samples"].get(name)
        extra = (f"  (median of {len(samples)}; raw wall "
                 f"{record['raw_medians'][name]:.4g} s)" if samples else "")
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}{extra}")
    print(f"  error_rate {record['error_rate']:.4g} ({len(record['failures'])} "
          f"failed of {record['attempted']} attempted)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for note in record["notes"]:
        print(f"  {note}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, in child processes."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace_flag in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace_flag)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nodepower" / "__init__.py").is_file():
        return _fail(f"no package source at {ROOT / 'src' / 'nodepower'}")
    if not (ROOT / "demos" / "fleet.ini").is_file():
        return _fail(f"no scenario spec at {ROOT / 'demos' / 'fleet.ini'}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
