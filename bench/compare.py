"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of run records written by ``run.py``
(``bench/out/*.json``) or single record files. For every workload and every
end-to-end metric in BENCHMARK.json, the untraced runs of each side give a
median and quartiles; runs are paired by seed (by order where seeds do not
match). The verdict follows the benchmark's bounds:

* better      the change wins at least 9 of 10 pairs (ties count for
              neither), at least ten pairs were run, the medians differ by
              more than the parent's quartile distance, and no more
              operations failed than at the parent;
* worse       the change's median is worse than the parent's by more than
              the metric's bound;
* unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, unless every change run beats every
              parent run;
* unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(source: Path) -> list[dict]:
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    runs = []
    for path in files:
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and doc.get("trace") == 0 and "metrics" in doc:
            runs.append(doc)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    matched = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    if len(matched) == min(len(parent), len(change)):
        return matched
    return list(zip(parent, change))


def verdict(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    name = metric["name"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p = [r["metrics"][name] for r in parent]
    c = [r["metrics"][name] for r in change]
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    matched = pairs(parent, change)
    wins = sum(
        1 for a, b in matched
        if sign * (a["metrics"][name] - b["metrics"][name]) > 0
    )
    share = wins / len(matched) if matched else 0.0
    worse_by = sign * (cm - pm) / pm
    spread = (p3 - p1) / pm
    failed = (sum(len(r["failures"]) for r in change)
              > sum(len(r["failures"]) for r in parent))
    if (len(matched) >= MIN_PAIRS and share >= WIN_SHARE and worse_by < 0
            and abs(cm - pm) > p3 - p1 and not failed):
        result = "better"
    elif worse_by > metric["bound"]:
        result = "worse"
    elif spread > metric["bound"] and not all(
        sign * (x - y) > 0 for x in p for y in c
    ):
        result = "unresolved"
    else:
        result = "unchanged"
    return {"metric": name, "parent": (p1, pm, p3),
            "change": (c1, cm, c3), "pairs": len(matched), "win_share": share,
            "change_pct": 0.0 - 100.0 * worse_by, "verdict": result}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs = (load_runs(Path(a)) for a in argv)
    print(f"{'workload':12s} {'metric':15s} {'parent q1/med/q3':>27s} "
          f"{'change q1/med/q3':>27s} {'pairs':>5s} {'wins':>5s} "
          f"{'gain':>7s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if not parent or not change:
            print(f"{workload:12s} (no runs on {'parent' if not parent else 'change'})")
            continue
        for metric in bench["end_to_end"]:
            v = verdict(metric, parent, change)
            fmt = "/".join(f"{x:.4g}" for x in v["parent"])
            cfmt = "/".join(f"{x:.4g}" for x in v["change"])
            print(f"{workload:12s} {v['metric']:15s} {fmt:>27s} {cfmt:>27s} "
                  f"{v['pairs']:5d} {v['win_share']:5.0%} "
                  f"{v['change_pct']:+6.1f}%  {v['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
