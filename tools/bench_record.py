"""Write the record of a benchmark comparison as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py PARENT_OUT CHANGE_OUT BENCH_20.json
        [PARENT_COMMIT CHANGE_COMMIT]

PARENT_OUT and CHANGE_OUT are the ``bench/out`` directories of two
checkouts, the parent commit's and the change's, each filled by
``bench/run.py --trace 0`` runs. The verdicts are those of
``bench/compare.py``, whose functions this script calls, so the file holds
what ``python3 bench/compare.py PARENT_OUT CHANGE_OUT`` prints: per
workload and end-to-end metric, each side's quartiles, the pair count, the
change's win share, its gain and the verdict. It adds the two commits, the
host's CPU count, the Python and numpy versions the runs reported, and
whether the runs' checkouts held compiled bytecode of the package.
``bench/run.py`` reads the commit from the checkout's ``.git``, so runs
made in a ``git archive`` export report ``unknown``; PARENT_COMMIT and
CHANGE_COMMIT, when given, are recorded for those runs.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "bench" / "compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one(runs: list[dict], key: str) -> object:
    """The value every run reports for ``key``, or all of them if they
    differ."""
    values = sorted({json.dumps(r.get(key)) for r in runs})
    found = [json.loads(v) for v in values]
    return found[0] if len(found) == 1 else found


def _side(out: Path, runs: list[dict], commit: str | None) -> dict:
    checkout = out.resolve().parent.parent
    if commit:
        runs = [{**r, "commit": commit} if r.get("commit") == "unknown"
                else r for r in runs]
    return {
        "commit": _one(runs, "commit"),
        "runs": len(runs),
        "seeds": sorted({r["seed"] for r in runs}),
        # the runs import the package from the checkout's src/; without
        # cached bytecode every fresh CLI process compiles it again
        "bytecode_cached": any(
            (checkout / "src" / "nodepower").glob("__pycache__/*.pyc")
        ),
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 5):
        print(__doc__, file=sys.stderr)
        return 2
    compare = _compare()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_out, change_out, target = Path(argv[0]), Path(argv[1]), argv[2]
    parent_commit, change_commit = argv[3:] or (None, None)
    parent_runs = compare.load_runs(parent_out)
    change_runs = compare.load_runs(change_out)
    if not parent_runs or not change_runs:
        print("bench_record: no untraced runs found", file=sys.stderr)
        return 2
    every = parent_runs + change_runs
    record = {
        "parent": _side(parent_out, parent_runs, parent_commit),
        "change": _side(change_out, change_runs, change_commit),
        "cpu_count": _one(every, "cpu_count"),
        "python": _one(every, "python"),
        "numpy": _one(every, "numpy"),
        "seconds": _one(every, "seconds"),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if parent and change:
            record["workloads"][workload] = {
                metric["name"]: compare.verdict(metric, parent, change)
                for metric in bench["end_to_end"]
            }
    # one line per list, and per workload and metric
    text = json.dumps(record, indent=1)
    for pattern in (r"\[[^\[\]{}]*\]", r'\{\s*"metric"[^{}]*\}'):
        text = re.sub(
            pattern, lambda m: json.dumps(json.loads(m.group())), text
        )
    Path(target).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
