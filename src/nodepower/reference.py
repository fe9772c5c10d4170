"""Published measurement summaries and calibration constants.

Everything the toolkit knows about the measurement campaign it was calibrated
on lives here: per-workload summary statistics for the nine training runs
(two clusters, H100 nodes with 8 GPUs each), the four held-out validation
runs, the physical power constraints used during fitting, and the published
coefficient values behind the shipped presets.

Values are transcribed from the source study's summary tables. They are data,
not code: nothing in this module computes. Keeping them in one flat module
makes provenance auditable and lets the synthetic dataset generator, the
evaluation module, and the presets all draw from a single transcription.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "Architecture_LLM",
    "Architecture_CNN",
    "ReferenceWorkload",
    "ValidationWorkload",
    "REFERENCE_WORKLOADS",
    "VALIDATION_WORKLOADS",
    "DEFAULT_EXCLUSIONS",
    "IDLE_POWER_KW",
    "BURN_POWER_KW",
    "FINAL_IDLE_KW",
    "NODE_TDP_KW",
    "GPUS_PER_NODE",
    "ALPHA_FULL_DATA",
    "ALPHA_POST_EXCLUSION",
    "SIGMOID_X0_FULL_DATA",
    "SIGMOID_X0_POST_EXCLUSION",
    "SIGMOID_K_SHAPE_STAGE",
    "BETA_SINGLE_KW",
    "BETA_LLM_KW",
    "BETA_CNN_KW",
    "SIGMOID_BETA_KW",
    "SIGMOID_K_REFIT",
    "PRESET_NAMES",
    "IN_SAMPLE_ERRORS_TEXT",
    "IN_SAMPLE_ERRORS_NORMALIZED",
    "OUT_OF_SAMPLE_MODEL_MAPE",
]

# architecture tags used across the package (string constants rather than an
# enum so that reference data stays a plain-data module)
Architecture_LLM = "llm"
Architecture_CNN = "cnn"


class ReferenceWorkload(NamedTuple):
    """One row of the published training-run summary table."""

    workload_id: str
    source: str                # metering site: "SMC" or "BNL"
    architecture: str          # "llm" or "cnn"
    global_batch: int
    nodes: int
    flops_per_iteration: float
    flops_per_node: float
    p_avg_kw: float
    p_max_kw: float
    p_sd_kw: float
    duration_h: float
    it_energy_kwh: float
    note: str = ""


class ValidationWorkload(NamedTuple):
    """One row of the published out-of-sample validation table."""

    workload_id: str
    source: str
    architecture: str
    nodes: int
    p_avg_kw: float
    it_energy_kwh: float
    duration_h: float
    flops_per_node: float


# ---------------------------------------------------------------------------
# training workloads (the nine-run calibration set)
# ---------------------------------------------------------------------------
# Power columns are per-node kW; energy is total IT energy including the
# allocated interconnect share. FLOP columns are per optimizer iteration.

REFERENCE_WORKLOADS: tuple[ReferenceWorkload, ...] = (
    ReferenceWorkload(
        "smc-gpt3-175b-64", "SMC", Architecture_LLM,
        2048, 64, 6.01e18, 9.40e16, 7.67, 8.45, 0.73, 0.95, 464.94,
    ),
    ReferenceWorkload(
        "smc-llama-70b-64", "SMC", Architecture_LLM,
        64, 64, 1.47e17, 2.29e15, 5.91, 8.76, 1.52, 0.03, 12.10,
        note=(
            "recorded global batch (64) disagrees with the one derived from "
            "the run's parallelism settings; the recorded value reproduces "
            "the published per-iteration operation count and is used as-is"
        ),
    ),
    ReferenceWorkload(
        "smc-llama-70b-8", "SMC", Architecture_LLM,
        8, 8, 1.83e16, 2.29e15, 7.73, 8.73, 1.11, 0.09, 5.43,
        note=(
            "recorded global batch (8) disagrees with the one derived from "
            "the run's parallelism settings; the recorded value reproduces "
            "the published per-iteration operation count and is used as-is. "
            "Also serves as a validation row, so it is excluded from fitting."
        ),
    ),
    ReferenceWorkload(
        "smc-llama-70b-1", "SMC", Architecture_LLM,
        8, 1, 1.83e16, 1.83e16, 6.78, 7.32, 1.05, 0.5, 3.39,
    ),
    ReferenceWorkload(
        "bnl-llama-13b-1", "BNL", Architecture_LLM,
        64, 1, 6.03e18, 6.03e18, 7.79, 8.42, 0.61, 8.0, 62.36,
        note=(
            "published per-iteration count (6.03e18) is ~200x the value the "
            "transformer formula yields for these architecture parameters "
            "(~3.0e16); the published batch columns also disagree (8 vs 64). "
            "The pipeline computes from the formula and warns on the mismatch."
        ),
    ),
    ReferenceWorkload(
        "smc-resnet-1-8", "SMC", Architecture_CNN,
        3200, 8, 3.46e13, 4.32e12, 6.36, 7.89, 1.66, 0.07, 3.75,
    ),
    ReferenceWorkload(
        "smc-resnet-2-1", "SMC", Architecture_CNN,
        3200, 1, 3.46e13, 3.46e13, 6.76, 6.88, 0.29, 0.22, 1.51,
    ),
    ReferenceWorkload(
        "bnl-resnet-1-1", "BNL", Architecture_CNN,
        512, 1, 3.54e11, 3.54e11, 4.6, 5.02, 0.34, 26.8, 123.41,
        note=(
            "ran at ~36% of the measured power ceiling versus 77-93% for "
            "every other workload; excluded from fitting as an outlier but "
            "kept in error reporting"
        ),
    ),
    ReferenceWorkload(
        "bnl-resnet-2-1", "BNL", Architecture_CNN,
        4096, 1, 2.83e12, 2.83e12, 5.76, 6.48, 0.11, 5.25, 30.15,
    ),
)

# default fitting exclusions, with machine-readable reasons understood by
# fit.apply_exclusions: the 8-node Llama run doubles as a validation row
# (leakage) and the first BNL ResNet run sat far below every other workload's
# utilization band (outlier).
DEFAULT_EXCLUSIONS: tuple[tuple[str, str], ...] = (
    ("smc-llama-70b-8", "leakage"),
    ("bnl-resnet-1-1", "outlier"),
)


# ---------------------------------------------------------------------------
# validation workloads (out-of-sample)
# ---------------------------------------------------------------------------

VALIDATION_WORKLOADS: tuple[ValidationWorkload, ...] = (
    ValidationWorkload(
        "dell-llama-70b-8", "Dell", Architecture_LLM,
        8, 7.29, 5.54, 0.10, 2.29e15,
    ),
    ValidationWorkload(
        "smc-llama-70b-8", "SMC", Architecture_LLM,
        8, 7.73, 5.43, 0.09, 2.29e15,
    ),
    ValidationWorkload(
        "smc-unet-19m-1-1", "SMC", Architecture_CNN,
        1, 6.41, 1.43, 0.22, 4.87e12,
    ),
    ValidationWorkload(
        "smc-unet-19m-2-9", "SMC", Architecture_CNN,
        9, 5.90, 3.06, 0.06, 6.96e11,
    ),
)


# ---------------------------------------------------------------------------
# physical constraints and hardware ratings
# ---------------------------------------------------------------------------

IDLE_POWER_KW = 1.8      # measured stable no-load node draw; stage-1 constraint
BURN_POWER_KW = 8.4      # stress-test node ceiling; stage-1 magnitude anchor
FINAL_IDLE_KW = 1.86     # idle value used for the final magnitude refits
NODE_TDP_KW = 10.2       # manufacturer-rated node maximum
GPUS_PER_NODE = 8

# Note: no per-GPU TDP was published for these systems. 0.7 kW/GPU (a typical
# H100 SXM board rating, an external datum) is used as the documented example
# default in the CLI and tests, never silently.


# ---------------------------------------------------------------------------
# published coefficient values (the shipped presets draw on these)
# ---------------------------------------------------------------------------

# shape-stage estimates (idle and magnitude pinned at the measured 1.8/8.4 kW)
ALPHA_FULL_DATA = 5.55            # saturating form, all nine workloads
ALPHA_POST_EXCLUSION = 5.11       # saturating form, after default exclusions
SIGMOID_X0_FULL_DATA = 11.46      # sigmoid midpoint, all nine workloads
SIGMOID_X0_POST_EXCLUSION = 9.91  # sigmoid midpoint, after default exclusions
SIGMOID_K_SHAPE_STAGE = 1.12      # sigmoid steepness from the shape stage

# magnitude-stage estimates (idle pinned at 1.86 kW, shape pinned as above)
BETA_SINGLE_KW = 6.65             # single active-power magnitude
BETA_LLM_KW = 6.89                # architecture-specific magnitudes
BETA_CNN_KW = 6.28
SIGMOID_BETA_KW = 6.94            # sigmoid magnitude (steepness refit freely)
SIGMOID_K_REFIT = 0.19

# the shipped calibrated models, built from the values above by
# nodepower.model, in listing order
PRESET_NAMES = ("asymptotic", "arch-fe", "sigmoid", "sigmoid-postexclusion")

# published in-sample error summaries (mean absolute percentage error for the
# node-rating, chip-rating, and model estimators). Two inconsistent triples
# appear in the source: the running text and the normalized comparison figure.
# Both are kept as published. No module or test reads these three constants
# or LOOCV_ALPHA_STABILITY; acceptance criterion 2 holds the arch-fe preset's
# in-sample MAPE to its own 15% band, not to these values.
IN_SAMPLE_ERRORS_TEXT = (36.83, 27.26, 11.46)        # (node, chip, model) %
IN_SAMPLE_ERRORS_NORMALIZED = (42.41, 21.82, 11.05)  # (node, chip, model) %
OUT_OF_SAMPLE_MODEL_MAPE = 5.39                      # %

# shape-stage leave-one-out stability summary for the saturating form
# (mean, sd, cov%) across the nine holdouts
LOOCV_ALPHA_STABILITY = (5.56, 0.43, 7.7)
