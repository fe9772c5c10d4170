"""Compare two outputs of ``tools/dump_numbers.py``, number by number.

    python3 tools/diff_numbers.py A B [--rel TOL]

A and B are the JSON files ``tools/dump_numbers.py`` printed for two
checkouts on the same inputs, or two directories its ``--gate`` wrote, in
which case each file is compared with its namesake, a file that one side
lacks comparing as empty, and every printed path starts with the file's
name less ``.json``. For each fit or scan in them (a path such as
``loocv/excluded/sigmoid``), and then for each of the two sections,
``two_stage_fit`` and ``loocv``, it prints ``identical`` when every value
below that path is equal, or else the largest relative difference of two
numbers there, |a - b| / max(|a|, |b|), and the path of the number where it
lies. A value that is not a number and differs (an error message, a flag
list of another length), and a zero whose sign differs, print ``differs``
and the path. The exit code is 0 when everything is identical and 1
otherwise. With ``--rel TOL`` it is 0 when every pair of numbers differs by
at most TOL relative and no value is missing, non-numeric and different,
or a zero of the other sign; the printed lines are the same.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

DEPTH = 3  # section / exclusions / form


def _leaves(value: object, path: tuple[str, ...] = ()):
    """(path, value) of every leaf of the JSON ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, str(key)))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, str(i)))
    else:
        yield path, value


def _number(value: object) -> float | None:
    if not isinstance(value, str):
        return None
    try:
        return float.fromhex(value)
    except ValueError:
        return None


def _difference(a: object, b: object) -> float:
    """0 for equal values, the relative difference of two finite numbers,
    and inf for any other two different values (a leaf that one side lacks
    reads as None). Two ``float.hex`` strings that differ but compare equal
    are +0.0 and -0.0, which differ in their sign bit: inf."""
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None or x == y:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(a: dict, b: dict) -> dict[str, tuple[float, str]]:
    """{path: (largest relative difference, where)} for every path of
    ``DEPTH`` or fewer keys, the top-level sections included."""
    left, right = dict(_leaves(a)), dict(_leaves(b))
    worst: dict[str, tuple[float, str]] = {}
    for path in sorted(left.keys() | right.keys()):
        diff = _difference(left.get(path), right.get(path))
        for depth in (DEPTH, 1):
            group = "/".join(path[:depth])
            if group not in worst or diff > worst[group][0]:
                worst[group] = (diff, "/".join(path))
    return worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two outputs of tools/dump_numbers.py."
    )
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument(
        "--rel", type=float, default=0.0, metavar="TOL",
        help="largest relative difference that exits 0 (default: exact)",
    )
    args = parser.parse_args(argv)
    a, b = (_dumps(Path(p)) for p in (args.a, args.b))
    ok = True
    for name in sorted(a.keys() | b.keys()):
        worst = compare(a.get(name, {}), b.get(name, {}))
        for group in sorted(worst, key=lambda g: (g.count("/") == 0, g)):
            diff, where = worst[group]
            if diff == 0.0:
                print(f"{name}{group}: identical")
            elif math.isinf(diff):
                print(f"{name}{group}: differs at {name}{where}")
            else:
                print(f"{name}{group}: {diff:.2g} at {name}{where}")
        ok &= all(d <= args.rel for d, _ in worst.values())
    return 0 if ok else 1


def _dumps(path: Path) -> dict[str, dict]:
    """{prefix: dump}: one file under the prefix "", or a directory's
    ``*.json`` files, each under its name less ``.json`` and a slash."""
    if not path.is_dir():
        return {"": json.loads(path.read_text(encoding="utf-8"))}
    return {
        f"{p.stem}/": json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(path.glob("*.json"))
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
