"""Entry points the benchmark runs in fresh Python processes.

    python bench/child.py setup
        Import the package, run the warm-up, print {"setup_s": ...}.
    python [-X importtime] bench/child.py cli SPANS_JSON ARG...
        Run ``nodepower.cli.main(ARG...)`` with the layer wrappers
        installed, write the spans to SPANS_JSON, exit with main's code.

``setup`` is also what the measuring process itself runs before timing.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "src" / "nodepower" / "data" / "desk"


def setup() -> float:
    """Import the package and warm it up; seconds taken.

    The warm-up loads the bundled desk manifest and fits the arch-fe form
    once, so lazy imports and first-call costs are paid before timing.
    """
    start = time.perf_counter()
    import nodepower.cli  # noqa: F401  (imports every layer the CLI uses)
    from nodepower import fit, flops, ingest, model

    with warnings.catch_warnings():
        # the desk set's recorded count for one run disagrees by design
        warnings.simplefilter("ignore", flops.FlopsMismatchWarning)
        _, dataset = ingest.load_and_assemble(DESK / "manifest.csv")
    fit.two_stage_fit(
        dataset,
        model.ModelForm.from_string("arch-fe"),
        fit.FitConfig(exclusions=ingest.load_exclusions(DESK / "exclusions.csv")),
    )
    return time.perf_counter() - start


def _traced_cli(spans_path: Path, argv: list[str]) -> int:
    import nodepower.cli

    from tracing import Tracer

    tracer = Tracer(run_id=f"cli-{argv[0]}")
    tracer.install()
    try:
        return nodepower.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    mode = sys.argv[1]
    if mode == "setup":
        print(json.dumps({"setup_s": setup()}))
        return 0
    if mode == "cli":
        return _traced_cli(Path(sys.argv[2]), sys.argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main())
