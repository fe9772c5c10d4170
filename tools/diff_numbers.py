"""Compare two outputs of ``tools/dump_numbers.py``, number by number.

    python3 tools/diff_numbers.py A B [--rel TOL]

A and B are the JSON files ``tools/dump_numbers.py`` printed for two
checkouts on the same inputs. For each fit or scan in them (a path such as
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
    a, b = (
        json.loads(open(p, encoding="utf-8").read()) for p in (args.a, args.b)
    )
    worst = compare(a, b)
    for group in sorted(worst, key=lambda g: (g.count("/") == 0, g)):
        diff, where = worst[group]
        if diff == 0.0:
            print(f"{group}: identical")
        elif math.isinf(diff):
            print(f"{group}: differs at {where}")
        else:
            print(f"{group}: {diff:.2g} at {where}")
    return 0 if all(d <= args.rel for d, _ in worst.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
