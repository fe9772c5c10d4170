"""Seeded input generator for the synthetic benchmark workloads.

Writes workload configs, trace files, a manifest and an exclusion policy in
the package's documented on-disk formats (trace CSV header
``workload_id,node_id,elapsed_s,power_kw``; ``[workload]`` plus
``[llm]``/``[cnn]`` INI; ``config,trace`` manifest; ``workload_id,reason``
exclusions). It deliberately does not call ``nodepower.synthetic``: a change
to the package's own generator must not change the benchmark's data.

Powers are drawn around a stated true curve, the ``arch-fe`` form::

    power = P_IDLE + BETA[arch] * x / (ALPHA + x) + N(0, NOISE_SD)

where x is log10 of the operations per node per iteration, computed here
with the accounting the package documents (six operations per parameter
for transformers, three forward passes per image for CNNs). The two
magnitudes differ widely, so pooled power rises steeply from the CNN to the
LLM intensities: with one shared magnitude the desk-shaped x values (11.5
to 17) cover too little of a logistic curve, and the sigmoid form's optimum
drifts far outside the data, where its fit fails to converge for some seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

P_IDLE_KW = 1.86
BETA_KW = {"llm": 6.89, "cnn": 4.0}
ALPHA = 5.11
NOISE_SD_KW = 0.35
SAMPLE_INTERVAL_S = 2.0

# The nine desk workloads' shapes: (id, arch, nodes, arch params).
# LLM params: hidden, layers, sequence, vocab, global batch.
# CNN params: forward GFLOPs per 224px image, image side, global batch.
DESK_SHAPES = (
    ("gpt3-175b-64", "llm", 64, (12288, 96, 2048, 50257, 2048)),
    ("llama-70b-64", "llm", 64, (8192, 80, 4096, 32000, 64)),
    ("llama-70b-8", "llm", 8, (8192, 80, 4096, 32000, 8)),
    ("llama-70b-1", "llm", 1, (8192, 80, 4096, 32000, 8)),
    ("llama-13b-1", "llm", 1, (5120, 40, 4096, 32000, 64)),
    ("resnet-1-8", "cnn", 8, (3.6, 224, 3200)),
    ("resnet-2-1", "cnn", 1, (3.6, 224, 3200)),
    ("resnet-3-1", "cnn", 1, (11.3, 32, 512)),
    ("resnet-4-1", "cnn", 1, (11.3, 32, 4096)),
)
DESK_EXCLUSIONS = (("llama-70b-8", "leakage"), ("resnet-3-1", "outlier"))
LARGE_SAMPLES_PER_NODE = 520  # 149 traced nodes -> 77,480 rows

WIDE_WORKLOADS = 60
WIDE_DESIGN_SEED = 20250601
WIDE_EXCLUSIONS = (("wide-007", "outlier"), ("wide-030", "manual"))
LLM_SHAPES = (
    (4096, 32, 2048, 32000),
    (5120, 40, 4096, 32000),
    (8192, 80, 4096, 32000),
    (12288, 96, 2048, 50257),
)
CNN_SHAPES = ((3.6, 224), (4.1, 224), (11.3, 32))
NODE_CHOICES = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class Workload:
    workload_id: str
    arch: str
    nodes: int
    params: tuple
    traced_nodes: int
    samples_per_node: int
    duration_h: float


@dataclass(frozen=True)
class Inputs:
    """Paths and sizes of one generated input set."""

    manifest: Path
    exclusions: Path
    configs: tuple[Path, ...]
    workloads: int
    rows: int
    bytes: int
    truth_sse: float  # weighted SSE of the true curve after exclusions
    specs: tuple[Workload, ...]


def log_intensity(arch: str, nodes: int, params: tuple) -> float:
    """log10 operations per node per iteration."""
    if arch == "llm":
        h, layers, seq, vocab, batch = (float(v) for v in params)
        correction = 1.0 + seq / (6.0 * h) + vocab / (16.0 * layers * h)
        flops = 96.0 * batch * seq * layers * h * h * correction
    else:
        gflops, side, batch = params
        flops = 3.0 * gflops * 1e9 * (side / 224.0) ** 2 * batch
    return math.log10(flops / nodes)


def true_power_kw(arch: str, x: float) -> float:
    return P_IDLE_KW + BETA_KW[arch] * x / (ALPHA + x)


def _config_text(w: Workload) -> str:
    lines = [
        "[workload]",
        f"id = {w.workload_id}",
        f"architecture = {w.arch}",
        f"nodes = {w.nodes}",
        "gpus_per_node = 8",
        f"duration_h = {w.duration_h!r}",
        "interconnect_total_kw = 0.0",
        "source = BENCH",
        "",
    ]
    if w.arch == "llm":
        h, layers, seq, vocab, batch = w.params
        lines += [
            "[llm]",
            f"hidden_size = {h}",
            f"layers = {layers}",
            f"sequence_length = {seq}",
            f"vocab_size = {vocab}",
            f"global_batch = {batch}",
        ]
    else:
        gflops, side, batch = w.params
        lines += [
            "[cnn]",
            f"flops_per_image_gflops = {gflops!r}",
            f"image_side = {side}",
            f"global_batch = {batch}",
        ]
    return "\n".join(lines) + "\n"


def _trace_text(
    w: Workload, rng: np.random.Generator
) -> tuple[str, int, float]:
    """Trace file text, its row count, and the workload's weighted SSE
    against the true curve (each workload carries total weight one)."""
    mean = true_power_kw(w.arch, log_intensity(w.arch, w.nodes, w.params))
    n = w.samples_per_node
    elapsed = [repr(SAMPLE_INTERVAL_S * i) for i in range(n)]
    out = ["workload_id,node_id,elapsed_s,power_kw"]
    sse = 0.0
    for node in range(w.traced_nodes):
        powers = np.maximum(mean + rng.normal(0.0, NOISE_SD_KW, n), 0.05)
        text = [f"{p:.4f}" for p in powers.tolist()]
        written = np.array([float(p) for p in text])
        sse += float(((written - mean) ** 2).sum())
        prefix = f"{w.workload_id},node{node:03d},"
        out.extend(f"{prefix}{t},{p}" for t, p in zip(elapsed, text))
    rows = w.traced_nodes * n
    return "\n".join(out) + "\n", rows, sse / rows


def large_workloads(rng: np.random.Generator) -> list[Workload]:
    return [
        Workload(
            f"syn-{name}", arch, nodes, params, nodes,
            LARGE_SAMPLES_PER_NODE, float(rng.uniform(0.05, 10.0)),
        )
        for name, arch, nodes, params in DESK_SHAPES
    ]


def wide_workloads(rng: np.random.Generator) -> list[Workload]:
    """The wide set's structure is fixed; the seed only draws durations
    (and, in ``generate``, the noise), so every seed costs the same work."""
    design = np.random.default_rng(WIDE_DESIGN_SEED)
    out = []
    for i in range(WIDE_WORKLOADS):
        # alternate architectures so both arch-FE magnitudes are identified
        arch = "llm" if i % 2 == 0 else "cnn"
        nodes = int(design.choice(NODE_CHOICES))
        if arch == "llm":
            shape = LLM_SHAPES[design.integers(len(LLM_SHAPES))]
            params: tuple = (*shape, int(2 ** design.integers(3, 12)))
        else:
            shape = CNN_SHAPES[design.integers(len(CNN_SHAPES))]
            params = (*shape, int(design.integers(2, 65)) * 64)
        out.append(Workload(
            f"wide-{i:03d}", arch, nodes, params,
            traced_nodes=min(nodes, int(design.integers(1, 5))),
            samples_per_node=int(design.integers(20, 41)),
            duration_h=float(rng.uniform(0.05, 10.0)),
        ))
    return out


def generate(kind: str, seed: int, directory: Path) -> Inputs:
    """Write the ``large`` or ``wide`` input set for ``seed`` into directory."""
    rng = np.random.default_rng([seed, 0 if kind == "large" else 1])
    if kind == "large":
        workloads = large_workloads(rng)
        exclusions = [(f"syn-{wid}", why) for wid, why in DESK_EXCLUSIONS]
    elif kind == "wide":
        workloads = wide_workloads(rng)
        exclusions = list(WIDE_EXCLUSIONS)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    traces_dir = directory / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    rows = 0
    written = 0
    truth_sse = 0.0
    excluded = {wid for wid, _ in exclusions}
    configs = []
    manifest = ["config,trace"]
    for w in workloads:
        config = directory / f"{w.workload_id}.ini"
        trace = traces_dir / f"{w.workload_id}.csv"
        text, n, sse = _trace_text(w, rng)
        if w.workload_id not in excluded:
            truth_sse += sse
        written += config.write_text(_config_text(w), encoding="utf-8")
        written += trace.write_text(text, encoding="utf-8")
        rows += n
        configs.append(config)
        manifest.append(f"{config.name},traces/{trace.name}")
    manifest_path = directory / "manifest.csv"
    exclusions_path = directory / "exclusions.csv"
    written += manifest_path.write_text(
        "\n".join(manifest) + "\n", encoding="utf-8"
    )
    written += exclusions_path.write_text(
        "workload_id,reason\n"
        + "".join(f"{wid},{why}\n" for wid, why in exclusions),
        encoding="utf-8",
    )
    return Inputs(
        manifest=manifest_path,
        exclusions=exclusions_path,
        configs=tuple(configs),
        workloads=len(workloads),
        rows=rows,
        bytes=written,
        truth_sse=truth_sse,
        specs=tuple(workloads),
    )
