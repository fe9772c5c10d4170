"""Deterministic desk-scale stand-in for the measured trace campaign.

The real per-node traces are hundreds of thousands of rows and are not
shipped. This module fabricates a small dataset with the same shape: for
each workload in the published summary table it writes a config file and a
trace whose samples are drawn around the published mean with the published
spread, clipped at the published maximum. Summaries computed from these
traces land close to (not exactly on) the published numbers; anything that
needs the published values verbatim reads them from `reference` instead.

Everything is seeded and the files are written with stable formatting, so
two runs with the same seed are byte-identical. The generated layout is

    <dest>/manifest.csv
    <dest>/exclusions.csv
    <dest>/<workload_id>.ini
    <dest>/traces/<workload_id>.csv

which is exactly what `ingest.load_and_assemble` expects.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import reference
from .ingest import NodeTrace, write_csv, write_trace_file
from .reference import ReferenceWorkload

__all__ = [
    "DEFAULT_SEED",
    "MAX_SAMPLES_PER_NODE",
    "GeneratedDataset",
    "sample_interval_s",
    "samples_per_node",
    "synthesize_trace",
    "generate",
]

DEFAULT_SEED = 1729
MAX_SAMPLES_PER_NODE = 50
MIN_SAMPLES_PER_NODE = 3

# sampling cadence of the two measurement sites
_INTERVAL_BY_SOURCE = {"SMC": 2.0, "BNL": 300.0}

# architecture blocks for the config files, keyed by workload id. The
# model-shape numbers (hidden size, layers, per-image cost) describe the
# published runs; reference_flops carries the published per-iteration total
# so ingest can cross-check its own arithmetic.
_LLAMA70B = {
    "hidden_size": 8192, "layers": 80,
    "sequence_length": 4096, "vocab_size": 32000,
}
_ARCH_SECTIONS: dict[str, dict[str, object]] = {
    "smc-gpt3-175b-64": {
        "_kind": "llm",
        "hidden_size": 12288, "layers": 96,
        "sequence_length": 2048, "vocab_size": 50257,
        "minibatch": 128, "tp": 4, "cp": 1, "pp": 8,
    },
    "smc-llama-70b-64": {"_kind": "llm", **_LLAMA70B, "global_batch": 64},
    "smc-llama-70b-8": {"_kind": "llm", **_LLAMA70B, "global_batch": 8},
    "smc-llama-70b-1": {
        "_kind": "llm", **_LLAMA70B,
        "minibatch": 4, "tp": 4, "cp": 1, "pp": 1,
    },
    "bnl-llama-13b-1": {
        "_kind": "llm",
        "hidden_size": 5120, "layers": 40,
        "sequence_length": 4096, "vocab_size": 32000,
        "global_batch": 64,
    },
    "smc-resnet-1-8": {
        "_kind": "cnn",
        "flops_per_image_gflops": 3.6, "image_side": 224,
        "global_batch": 3200,
    },
    "smc-resnet-2-1": {
        "_kind": "cnn",
        "flops_per_image_gflops": 3.6, "image_side": 224,
        "global_batch": 3200,
    },
    "bnl-resnet-1-1": {
        "_kind": "cnn",
        "flops_per_image_gflops": 11.3, "image_side": 32,
        "global_batch": 512,
    },
    "bnl-resnet-2-1": {
        "_kind": "cnn",
        "flops_per_image_gflops": 11.3, "image_side": 32,
        "global_batch": 4096,
    },
}


@dataclass(frozen=True)
class GeneratedDataset:
    """Where the generator put things, and how much it wrote."""

    root: Path
    manifest: Path
    exclusions: Path
    workloads: int
    trace_rows: int
    seed: int


def sample_interval_s(source: str) -> float:
    """Sampling cadence for a measurement site (2 s SMC, 300 s BNL)."""
    try:
        return _INTERVAL_BY_SOURCE[source]
    except KeyError:
        raise ValueError(f"no sampling cadence known for source {source!r}")


def samples_per_node(duration_h: float, interval_s: float) -> int:
    """Trace length per node: the real cadence, capped for desk scale."""
    n = int(duration_h * 3600.0 / interval_s)
    return max(MIN_SAMPLES_PER_NODE, min(n, MAX_SAMPLES_PER_NODE))


def synthesize_trace(
    row: ReferenceWorkload, rng: np.random.Generator
) -> list[NodeTrace]:
    """Draw per-node power samples consistent with one summary row.

    Samples are Gaussian around the published mean with the published SD,
    clipped into (0, p_max] and rounded to 0.1 W. Clipping pulls the
    realized mean slightly below the published one for workloads running
    close to their ceiling; consumers that need the published mean exactly
    should not recompute it from these traces.
    """
    interval = sample_interval_s(row.source)
    n = samples_per_node(row.duration_h, interval)
    elapsed = np.arange(n) * interval
    traces = []
    for node_idx in range(row.nodes):
        draws = rng.normal(row.p_avg_kw, row.p_sd_kw, size=n)
        draws = np.clip(draws, 1e-4, row.p_max_kw)
        traces.append(
            NodeTrace(
                workload_id=row.workload_id,
                node_id=f"node{node_idx:03d}",
                elapsed_s=elapsed,
                # Python's round: correctly rounded, unlike np.round
                power_kw=np.array([round(v, 4) for v in draws.tolist()]),
            )
        )
    return traces


def _config_text(row: ReferenceWorkload) -> str:
    arch = dict(_ARCH_SECTIONS[row.workload_id])
    kind = arch.pop("_kind")
    lines = [
        "# synthetic desk-scale stand-in; measured summaries live in",
        "# nodepower.reference, and real traces can replace this file's",
        "# companion CSV without changing the format.",
        "[workload]",
        f"id = {row.workload_id}",
        f"architecture = {row.architecture}",
        f"nodes = {row.nodes}",
        f"gpus_per_node = {reference.GPUS_PER_NODE}",
        f"duration_h = {row.duration_h!r}",
        "interconnect_total_kw = 0.0",
        f"source = {row.source}",
        f"reference_flops = {row.flops_per_iteration!r}",
        "",
        f"[{kind}]",
    ]
    for key, value in arch.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float)
                     else f"{key} = {value}")
    lines.append("")
    return "\n".join(lines)


def generate(
    dest: Path | str,
    seed: int = DEFAULT_SEED,
) -> GeneratedDataset:
    """Write the full synthetic dataset under ``dest``.

    Deterministic for a given seed: one generator is consumed in a fixed
    workload/node order and every file is formatted stably.
    """
    root = Path(dest)
    traces_dir = root / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    manifest_rows = []
    total_rows = 0
    for row in reference.REFERENCE_WORKLOADS:
        config_name = f"{row.workload_id}.ini"
        trace_name = f"traces/{row.workload_id}.csv"
        (root / config_name).write_text(
            _config_text(row), encoding="utf-8"
        )
        traces = synthesize_trace(row, rng)
        write_trace_file(traces, root / trace_name)
        total_rows += sum(t.power_kw.size for t in traces)
        manifest_rows.append((config_name, trace_name))

    manifest = root / "manifest.csv"
    write_csv(manifest, ("config", "trace"), manifest_rows)
    exclusions = root / "exclusions.csv"
    write_csv(
        exclusions, ("workload_id", "reason"), reference.DEFAULT_EXCLUSIONS
    )

    return GeneratedDataset(
        root=root,
        manifest=manifest,
        exclusions=exclusions,
        workloads=len(reference.REFERENCE_WORKLOADS),
        trace_rows=total_rows,
        seed=seed,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m nodepower.synthetic",
        description="Generate the synthetic desk-scale trace dataset.",
    )
    parser.add_argument(
        "--dest", default="desk-data",
        help="output directory (default: ./desk-data)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"random seed (default: {DEFAULT_SEED})",
    )
    args = parser.parse_args(argv)
    result = generate(args.dest, seed=args.seed)
    print(
        f"[synth] wrote {result.workloads} workloads, "
        f"{result.trace_rows} trace rows (seed {result.seed}) "
        f"under {result.root}"
    )
    print(f"[synth] manifest: {result.manifest}")
    print(f"[synth] exclusions: {result.exclusions}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
