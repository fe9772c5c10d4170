"""Weighted nonlinear calibration with cluster-robust inference.

The estimation pipeline mirrors how the shipped presets were produced:

* every observation in a workload gets weight 1/n, so each workload
  contributes total weight 1 regardless of how densely it was sampled;
* parameters are estimated in two stages. Stage 1 pins the magnitudes to the
  physically measured idle (1.8 kW) and stress-ceiling (8.4 kW) values and
  estimates only the shape (alpha, or the sigmoid midpoint and steepness).
  Stage 2 pins the shape and the final idle value (1.86 kW) and re-estimates
  the magnitudes; the sigmoid's steepness is left free in stage 2;
* uncertainty comes from a cluster-robust sandwich with the workload as the
  cluster: observations within a run are long stretches of the same machine
  state and are anything but independent.

The estimator runs on one row per workload, not on every power sample.
Within a workload the intensity and architecture are constant and the
weights sum to one, so the weighted SSE is the unweighted SSE of the
workload means plus the constant sum_g SS_g / n_g (SS_g the within-workload
sum of squares), the Gauss-Newton normal equations are those of the means,
and each cluster's sandwich score is grad f(x_g) * (mean_g - f(x_g)): the
grouped-data regression result (Angrist & Pischke, *Mostly Harmless
Econometrics*, section 3.1). Estimates, standard errors and the reported
weighted SSE are those of the per-observation definition; ``build_weights``
keeps that definition, and the tests check the grouped fit against it.

With at most two free parameters per stage, the optimizer is a damped
Gauss-Newton with analytic Jacobians and a fixed multi-start grid over the
shape parameters (the objective has a mild ridge; restarts are cheaper than
cleverness). A golden-section scan backs up the one-parameter stages in the
unlikely event Gauss-Newton stalls. Everything is deterministic: same data
in, same estimates out, to the last bit.

The raw-operations variant is fitted through log10(alpha) internally; its
scale spans six decades and Newton steps on the raw axis are useless.
Reported estimates and standard errors are for alpha itself (delta method).
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np
from scipy import stats
from scipy.special import expit

from .ingest import RegressionDataset, WorkloadTable
from .model import FittedModel, ModelForm, PowerParams
from .reference import (
    Architecture_LLM,
    BURN_POWER_KW,
    FINAL_IDLE_KW,
    IDLE_POWER_KW,
)

__all__ = [
    "DegenerateDataError",
    "NonConvergenceError",
    "UnknownWorkloadError",
    "FitConfig",
    "FitResult",
    "LoocvReport",
    "build_weights",
    "apply_exclusions",
    "wnls_fit",
    "cluster_robust_covariance",
    "two_stage_fit",
    "loocv",
    "to_fitted_model",
]

K_FLOOR = 1e-3       # sigmoid steepness bound: stops collapse to a step
ALPHA_FLOOR = 1e-6   # positivity guard for the log-scale saturation constant

# free-parameter menu per form; order is the canonical reporting order
_FORM_PARAMS: dict[ModelForm, tuple[str, ...]] = {
    ModelForm.SIMPLE_ASYMPTOTIC: ("p_idle_kw", "beta_comp_kw", "alpha"),
    ModelForm.LOG_ASYMPTOTIC: ("p_idle_kw", "beta_comp_kw", "alpha"),
    ModelForm.LOG_ASYMPTOTIC_ARCH_FE: (
        "p_idle_kw", "beta_llm_kw", "beta_cnn_kw", "alpha",
    ),
    ModelForm.SIGMOID: ("p_idle_kw", "beta_comp_kw", "x0", "k"),
}

_SHAPE_PARAMS: dict[ModelForm, tuple[str, ...]] = {
    ModelForm.SIMPLE_ASYMPTOTIC: ("alpha",),
    ModelForm.LOG_ASYMPTOTIC: ("alpha",),
    ModelForm.LOG_ASYMPTOTIC_ARCH_FE: ("alpha",),
    ModelForm.SIGMOID: ("x0", "k"),
}

_MAGNITUDE_PARAMS: dict[ModelForm, tuple[str, ...]] = {
    ModelForm.SIMPLE_ASYMPTOTIC: ("beta_comp_kw",),
    ModelForm.LOG_ASYMPTOTIC: ("beta_comp_kw",),
    ModelForm.LOG_ASYMPTOTIC_ARCH_FE: ("beta_llm_kw", "beta_cnn_kw"),
    # steepness is re-estimated alongside the magnitude in stage 2
    ModelForm.SIGMOID: ("beta_comp_kw", "k"),
}


_Data = TypeVar("_Data", RegressionDataset, WorkloadTable)


class DegenerateDataError(ValueError):
    """The data cannot identify the requested parameters."""


class NonConvergenceError(RuntimeError):
    """No start point converged within the iteration budget."""


class UnknownWorkloadError(KeyError):
    """An exclusion policy named a workload the dataset does not contain."""


@dataclass(frozen=True)
class FitConfig:
    """Fitting policy: stage constraints, exclusions, and tolerances.

    The stage constraints are the measured physical anchors; they are
    configurable because generative tests (and any re-calibration against a
    system with a different idle floor) need to align them with the truth
    that produced the data.
    """

    exclusions: tuple[tuple[str, str], ...] = ()
    convergence_tol: float = 1e-8
    max_iterations: int = 200
    stage1_p_idle_kw: float = IDLE_POWER_KW
    stage1_p_max_kw: float = BURN_POWER_KW
    stage2_p_idle_kw: float = FINAL_IDLE_KW
    shape_override: Mapping[str, float] | None = None
    compute_se: bool = True

    @property
    def stage1_beta_kw(self) -> float:
        return self.stage1_p_max_kw - self.stage1_p_idle_kw


@dataclass(frozen=True)
class FitResult:
    """Point estimates with cluster-robust uncertainty for one fit stage."""

    form: ModelForm
    estimates: dict[str, float]
    fixed: dict[str, float]
    robust_se: dict[str, float]
    t_value: dict[str, float]
    p_value: dict[str, float]
    clusters: int
    observations: int
    weighted_sse: float
    converged: bool
    exclusions: tuple[tuple[str, str], ...] = ()
    param_order: tuple[str, ...] = ()
    covariance: tuple[tuple[float, ...], ...] | None = None
    stage1: "FitResult | None" = None

    def all_params(self) -> dict[str, float]:
        """Free and fixed parameters merged (estimates win on collision)."""
        out = dict(self.fixed)
        out.update(self.estimates)
        return out


@dataclass(frozen=True)
class LoocvReport:
    """Leave-one-workload-out stability of the shape parameters."""

    form: ModelForm
    parameters: tuple[str, ...]
    per_holdout: dict[str, dict[str, float]]
    mean: dict[str, float]
    sd: dict[str, float]
    cov_percent: dict[str, float]
    flagged_outliers: tuple[str, ...]
    most_divergent: dict[str, str]


# ---------------------------------------------------------------------------
# weights and exclusions
# ---------------------------------------------------------------------------

def build_weights(dataset: RegressionDataset) -> np.ndarray:
    """Per-observation weights 1/n_workload; each workload sums to one.

    The fit itself works on per-workload means (see the module docstring);
    this is the per-observation definition it reproduces.
    """
    w = np.empty(dataset.n_observations, dtype=float)
    for _, idx in dataset.cluster_index().items():
        w[idx] = 1.0 / idx.size
    return w


def apply_exclusions(
    dataset: _Data,
    policy: Sequence[tuple[str, str]],
) -> _Data:
    """Drop the workloads named by an exclusion policy.

    ``dataset`` is a per-observation dataset or a workload table; the
    result is of the same kind.

    The policy is a sequence of (workload_id, reason) pairs with reasons in
    {outlier, leakage, manual}; naming a workload the dataset does not have
    is an error rather than a no-op, because a silently ignored exclusion is
    how a leaked validation row sneaks back in.
    """
    if not policy:
        return dataset
    present = set(dataset.workloads())
    valid_reasons = {"outlier", "leakage", "manual"}
    for wid, reason in policy:
        if wid not in present:
            raise UnknownWorkloadError(
                f"exclusion names unknown workload {wid!r}"
            )
        if reason not in valid_reasons:
            raise ValueError(
                f"exclusion reason {reason!r} for {wid!r} not in "
                f"{sorted(valid_reasons)}"
            )
    return dataset.drop([wid for wid, _ in policy])


# ---------------------------------------------------------------------------
# model evaluation on the fit's internal parameter scale
# ---------------------------------------------------------------------------
# Internally the simple form's `alpha` is carried as log10(alpha); the
# helpers below translate between user-facing names/values and the internal
# vector the optimizer sees.

def _internal_value(form: ModelForm, name: str, value: float) -> float:
    if form is ModelForm.SIMPLE_ASYMPTOTIC and name == "alpha":
        if not value > 0:
            raise ValueError("alpha must be positive")
        return math.log10(value)
    return value


def _external_value(form: ModelForm, name: str, value: float) -> float:
    if form is ModelForm.SIMPLE_ASYMPTOTIC and name == "alpha":
        return 10.0 ** value
    return value


def _dexternal_dinternal(form: ModelForm, name: str, internal: float) -> float:
    """Derivative of the reported parameter w.r.t. the internal one."""
    if form is ModelForm.SIMPLE_ASYMPTOTIC and name == "alpha":
        return (10.0 ** internal) * math.log(10.0)
    return 1.0


def _lower_bound(form: ModelForm, name: str) -> float:
    if name == "k":
        return K_FLOOR
    if name == "alpha" and form is not ModelForm.SIMPLE_ASYMPTOTIC:
        return ALPHA_FLOOR
    return -np.inf


def _predict(
    form: ModelForm,
    params: Mapping[str, float],
    x: np.ndarray,
    is_llm: np.ndarray,
) -> np.ndarray:
    """Fitted values given internal-scale parameters."""
    p_idle = params["p_idle_kw"]
    if form is ModelForm.SIGMOID:
        z = (x - params["x0"]) / params["k"]
        return p_idle + params["beta_comp_kw"] * expit(z)
    if form is ModelForm.SIMPLE_ASYMPTOTIC:
        r = np.power(10.0, x)
        a = 10.0 ** params["alpha"]  # internal scale is log10(alpha)
        return p_idle + params["beta_comp_kw"] * r / (a + r)
    if form is ModelForm.LOG_ASYMPTOTIC_ARCH_FE:
        beta = np.where(
            is_llm, params["beta_llm_kw"], params["beta_cnn_kw"]
        )
    else:
        beta = params["beta_comp_kw"]
    return p_idle + beta * x / (params["alpha"] + x)


def _partial(
    form: ModelForm,
    params: Mapping[str, float],
    x: np.ndarray,
    is_llm: np.ndarray,
    name: str,
) -> np.ndarray:
    """d predict / d params[name] on the internal scale."""
    ones = np.ones_like(x)
    if name == "p_idle_kw":
        return ones
    if form is ModelForm.SIGMOID:
        beta, x0, k = (
            params["beta_comp_kw"], params["x0"], params["k"],
        )
        s = expit((x - x0) / k)
        if name == "beta_comp_kw":
            return s
        if name == "x0":
            return -beta * s * (1.0 - s) / k
        if name == "k":
            return -beta * s * (1.0 - s) * (x - x0) / (k * k)
    elif form is ModelForm.SIMPLE_ASYMPTOTIC:
        r = np.power(10.0, x)
        a = 10.0 ** params["alpha"]
        if name == "beta_comp_kw":
            return r / (a + r)
        if name == "alpha":  # internal: log10(alpha)
            return (
                -params["beta_comp_kw"] * r * a * math.log(10.0)
                / np.square(a + r)
            )
    else:
        alpha = params["alpha"]
        g = x / (alpha + x)
        if name == "beta_comp_kw":
            return g
        if name == "beta_llm_kw":
            return np.where(is_llm, g, 0.0)
        if name == "beta_cnn_kw":
            return np.where(is_llm, 0.0, g)
        if name == "alpha":
            beta = (
                np.where(is_llm, params["beta_llm_kw"], params["beta_cnn_kw"])
                if form is ModelForm.LOG_ASYMPTOTIC_ARCH_FE
                else params["beta_comp_kw"]
            )
            return -beta * x / np.square(alpha + x)
    raise ValueError(f"{form.value} model has no parameter {name!r}")


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    scale = np.maximum(np.abs(old), 1e-12)
    return float(np.max(np.abs(new - old) / scale))


def _gauss_newton(
    sse_fn: Callable[[np.ndarray], float],
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    theta0: np.ndarray,
    lower: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, bool]:
    """Damped Gauss-Newton: full step, halved until the objective drops."""
    theta = np.maximum(theta0, lower)
    sse = sse_fn(theta)
    converged = False
    for _ in range(max_iter):
        r = residual_fn(theta)
        J = jacobian_fn(theta)
        dtheta, *_ = np.linalg.lstsq(J, r, rcond=None)
        if not np.all(np.isfinite(dtheta)):
            break
        step = 1.0
        accepted = None
        for _ in range(40):
            cand = np.maximum(theta + step * dtheta, lower)
            sse_cand = sse_fn(cand)
            if sse_cand <= sse * (1.0 + 1e-14) + 1e-300:
                accepted = (cand, sse_cand)
                break
            step *= 0.5
        if accepted is None:
            break
        cand, sse_cand = accepted
        change = _relative_change(cand, theta)
        theta, sse = cand, sse_cand
        if change < tol:
            converged = True
            break
    return theta, sse, converged


def _golden_section(
    sse_fn: Callable[[np.ndarray], float],
    lo: float,
    hi: float,
    tol: float,
    max_iter: int = 400,
) -> tuple[float, float]:
    """Scalar minimizer used as the fallback for one-parameter stages."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = sse_fn(np.array([c]))
    fd = sse_fn(np.array([d]))
    for _ in range(max_iter):
        if abs(b - a) <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = sse_fn(np.array([c]))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = sse_fn(np.array([d]))
    mid = 0.5 * (a + b)
    return mid, sse_fn(np.array([mid]))


# ---------------------------------------------------------------------------
# the weighted fit
# ---------------------------------------------------------------------------

def _default_starts(
    form: ModelForm,
    free: tuple[str, ...],
    table: WorkloadTable,
) -> list[dict[str, float]]:
    if set(free) >= {"x0", "k"}:
        return [
            {"x0": m, "k": kk, "beta_comp_kw": 6.6, "p_idle_kw": 1.8}
            for m in (9.0, 11.0, 13.0, 15.0, 17.0)
            for kk in (0.1, 1.0)
        ]
    # quantiles over observations, not over workloads
    x_rows = np.repeat(table.x, table.n)
    if "alpha" in free:
        if form is ModelForm.SIMPLE_ASYMPTOTIC:
            qs = np.percentile(x_rows, [10, 30, 50, 70, 90])
            alphas = [10.0 ** float(q) for q in qs]
        else:
            alphas = [1.0, 3.0, 5.0, 8.0, 12.0]
        return [
            {
                "alpha": a, "beta_comp_kw": 6.6, "beta_llm_kw": 6.6,
                "beta_cnn_kw": 6.6, "p_idle_kw": 1.8, "x0": 11.0, "k": 1.0,
            }
            for a in alphas
        ]
    # magnitude-style parameters: the problem is linear (or nearly so) in
    # them, a single generic start is enough
    return [{
        "p_idle_kw": 1.8, "beta_comp_kw": 6.6, "beta_llm_kw": 6.6,
        "beta_cnn_kw": 6.6, "alpha": 5.0,
        "x0": float(np.median(x_rows)), "k": 1.0,
    }]


def wnls_fit(
    dataset: RegressionDataset | WorkloadTable,
    form: ModelForm,
    fixed_params: Mapping[str, float],
    free_params: Sequence[str],
    *,
    starts: Sequence[Mapping[str, float]] | None = None,
    convergence_tol: float = 1e-8,
    max_iterations: int = 200,
    compute_se: bool = True,
    exclusions: tuple[tuple[str, str], ...] = (),
) -> FitResult:
    """Minimize the weighted squared error over the named free parameters.

    Parameters
    ----------
    dataset : RegressionDataset or WorkloadTable
        A per-observation dataset is fitted through its workload table.
    form : ModelForm
    fixed_params : mapping
        Parameter values held constant (user scale).
    free_params : sequence of str
        Names to estimate; at most two.
    starts : sequence of mappings, optional
        Start points (user scale). Defaults to the fixed multi-start grid
        for shape parameters and a single generic start otherwise.
    compute_se : bool
        Attach cluster-robust standard errors. Point estimates are
        independent of this flag.

    Returns
    -------
    FitResult

    Raises
    ------
    DegenerateDataError
        Fewer than two distinct intensity values, or the Jacobian cannot
        identify the free parameters (for example an architecture magnitude
        with no observations of that architecture).
    NonConvergenceError
        No start point converged within ``max_iterations``.
    ValueError
        The intensity or architecture varies within a workload.
    """
    free = tuple(free_params)
    if len(free) == 0:
        raise ValueError("free_params must name at least one parameter")
    if len(free) > 2:
        raise ValueError(
            f"at most two free parameters per stage, got {len(free)}"
        )
    allowed = _FORM_PARAMS[form]
    for name in (*free, *fixed_params):
        if name not in allowed:
            raise ValueError(
                f"{form.value} model has no parameter {name!r}"
            )
    missing = [
        n for n in allowed if n not in free and n not in fixed_params
    ]
    if missing:
        raise ValueError(
            f"parameters neither free nor fixed: {missing}"
        )
    table = (
        dataset.workload_table
        if isinstance(dataset, RegressionDataset)
        else dataset
    )
    if np.unique(table.x).size < 2:
        raise DegenerateDataError(
            "need at least two distinct intensity values"
        )

    y = table.mean_kw
    x = table.x
    is_llm = table.arch == Architecture_LLM
    if form is ModelForm.LOG_ASYMPTOTIC_ARCH_FE:
        if "beta_llm_kw" in free and not np.any(is_llm):
            raise DegenerateDataError("no LLM observations to identify beta_llm_kw")
        if "beta_cnn_kw" in free and not np.any(~is_llm):
            raise DegenerateDataError("no CNN observations to identify beta_cnn_kw")
    # the weighted SSE's part that no curve can explain
    within = float(np.sum(table.within_ss / table.n))

    fixed_internal = {
        n: _internal_value(form, n, float(v)) for n, v in fixed_params.items()
    }

    def unpack(theta: np.ndarray) -> dict[str, float]:
        p = dict(fixed_internal)
        for n, v in zip(free, theta):
            p[n] = float(v)
        return p

    def residual_fn(theta: np.ndarray) -> np.ndarray:
        return y - _predict(form, unpack(theta), x, is_llm)

    def sse_fn(theta: np.ndarray) -> float:
        r = residual_fn(theta)
        return float(r @ r) + within

    def jacobian_fn(theta: np.ndarray) -> np.ndarray:
        p = unpack(theta)
        cols = [_partial(form, p, x, is_llm, n) for n in free]
        return np.column_stack(cols)

    lower = np.array([_lower_bound(form, n) for n in free])
    if starts is None:
        start_maps = _default_starts(form, free, table)
    else:
        start_maps = [dict(s) for s in starts]
    start_vectors = [
        np.array([
            _internal_value(form, n, float(s[n])) for n in free
        ])
        for s in start_maps
    ]

    best: tuple[np.ndarray, float, bool] | None = None
    for theta0 in start_vectors:
        theta, sse, converged = _gauss_newton(
            sse_fn, residual_fn, jacobian_fn, theta0, lower,
            convergence_tol, max_iterations,
        )
        if best is None or sse < best[1]:
            best = (theta, sse, converged)
    assert best is not None
    theta, sse, converged = best

    if not converged and len(free) == 1:
        # fall back to a bracketing scan around the best point found
        width = max(1.0, abs(float(theta[0])))
        lo = max(float(lower[0]), float(theta[0]) - 4.0 * width)
        hi = float(theta[0]) + 4.0 * width
        mid, sse_gs = _golden_section(sse_fn, lo, hi, convergence_tol)
        if sse_gs <= sse:
            theta = np.array([mid])
            sse = sse_gs
            converged = True
    if not converged:
        raise NonConvergenceError(
            f"{form.value} fit did not converge within "
            f"{max_iterations} iterations from any start point"
        )

    estimates = {
        n: _external_value(form, n, float(v)) for n, v in zip(free, theta)
    }

    robust_se: dict[str, float] = {}
    t_value: dict[str, float] = {}
    p_value: dict[str, float] = {}
    covariance: tuple[tuple[float, ...], ...] | None = None
    clusters = len(table.workload_ids)
    if compute_se:
        # one row per cluster, unit weights: the per-observation sandwich
        cov = cluster_robust_covariance(
            jacobian_fn(theta), residual_fn(theta), np.ones(clusters),
            table.workload_ids,
        )
        # translate to the reported parameter scale (delta method)
        scale = np.array([
            _dexternal_dinternal(form, n, float(v))
            for n, v in zip(free, theta)
        ])
        cov = cov * np.outer(scale, scale)
        covariance = tuple(tuple(float(v) for v in row) for row in cov)
        df = clusters - 1
        for i, n in enumerate(free):
            se = math.sqrt(max(cov[i, i], 0.0))
            robust_se[n] = se
            t = estimates[n] / se if se > 0 else math.inf
            t_value[n] = t
            p_value[n] = float(2.0 * stats.t.sf(abs(t), df))

    return FitResult(
        form=form,
        estimates=estimates,
        fixed=dict(fixed_params),
        robust_se=robust_se,
        t_value=t_value,
        p_value=p_value,
        clusters=clusters,
        observations=table.n_observations,
        weighted_sse=sse,
        converged=converged,
        exclusions=exclusions,
        param_order=free,
        covariance=covariance,
    )


def cluster_robust_covariance(
    jacobian: np.ndarray,
    residuals: np.ndarray,
    weights: np.ndarray,
    cluster_ids: np.ndarray,
) -> np.ndarray:
    """Sandwich covariance of a weighted (non)linear least-squares fit.

    V = (J'WJ)^-1 [ sum_g s_g s_g' ] (J'WJ)^-1 * G/(G-1)

    with per-cluster scores s_g = J_g' W_g e_g built from the raw residuals
    e and the diagonal weight matrix W; G/(G-1) is the small-sample factor.
    Point estimates are never touched here.

    Parameters
    ----------
    jacobian : (n, p) array
        Gradient of the fitted values w.r.t. the free parameters, at the
        optimum, on the same scale as the estimates the caller reports.
    residuals : (n,) array
        Raw residuals y - f(x) at the optimum.
    weights : (n,) array
    cluster_ids : (n,) array
        Cluster label per observation.

    Raises
    ------
    DegenerateDataError
        Fewer than two clusters, or a singular J'WJ.
    """
    J = np.atleast_2d(np.asarray(jacobian, dtype=float))
    if J.shape[0] == 1 and J.shape[1] != 1 and len(residuals) > 1:
        J = J.T
    e = np.asarray(residuals, dtype=float)
    w = np.asarray(weights, dtype=float)
    ids = np.asarray(cluster_ids)
    labels = list(dict.fromkeys(ids.tolist()))
    n_clusters = len(labels)
    if n_clusters < 2:
        raise DegenerateDataError(
            "cluster-robust covariance needs at least two clusters"
        )
    bread = J.T @ (J * w[:, None])
    try:
        bread_inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(
            "singular J'WJ: free parameters are not identified"
        ) from exc
    p = J.shape[1]
    meat = np.zeros((p, p))
    for label in labels:
        g = ids == label
        score = J[g].T @ (w[g] * e[g])
        meat += np.outer(score, score)
    correction = n_clusters / (n_clusters - 1.0)
    return bread_inv @ meat @ bread_inv * correction


# ---------------------------------------------------------------------------
# the two-stage procedure
# ---------------------------------------------------------------------------

def _stage1(
    table: WorkloadTable, form: ModelForm, config: FitConfig
) -> FitResult:
    """Shape estimation with magnitudes pinned to the measured anchors."""
    fixed = {
        "p_idle_kw": config.stage1_p_idle_kw,
        "beta_comp_kw": config.stage1_beta_kw,
    }
    # the pooled shape stage treats both architectures identically, so the
    # arch-FE variant shares the single-magnitude form here
    stage_form = (
        ModelForm.LOG_ASYMPTOTIC
        if form is ModelForm.LOG_ASYMPTOTIC_ARCH_FE
        else form
    )
    free = _SHAPE_PARAMS[stage_form]
    return wnls_fit(
        table, stage_form, fixed, free,
        convergence_tol=config.convergence_tol,
        max_iterations=config.max_iterations,
        compute_se=config.compute_se,
    )


def two_stage_fit(
    dataset: RegressionDataset,
    form: ModelForm,
    config: FitConfig | None = None,
) -> FitResult:
    """Full calibration: constrained shape stage, then magnitude refit.

    Stage 1 fixes idle and magnitude at the measured anchors and estimates
    the shape; stage 2 fixes the shape (from stage 1, or from
    ``config.shape_override``) and the final idle value, and estimates the
    magnitudes (plus the sigmoid steepness). The returned result is the
    stage-2 fit with the stage-1 result attached and the exclusion policy
    recorded.
    """
    config = config or FitConfig()
    data = apply_exclusions(dataset.workload_table, config.exclusions)

    stage1_result: FitResult | None = None
    if config.shape_override is not None:
        shape = {
            n: float(config.shape_override[n]) for n in _SHAPE_PARAMS[form]
        }
    else:
        stage1_result = _stage1(data, form, config)
        shape = {
            n: stage1_result.estimates[n] for n in stage1_result.param_order
        }

    free = _MAGNITUDE_PARAMS[form]
    fixed: dict[str, float] = {"p_idle_kw": config.stage2_p_idle_kw}
    for name, value in shape.items():
        if name not in free:  # sigmoid k moves to the free set in stage 2
            fixed[name] = value
    start: dict[str, float] = {
        "beta_comp_kw": config.stage1_beta_kw,
        "beta_llm_kw": config.stage1_beta_kw,
        "beta_cnn_kw": config.stage1_beta_kw,
    }
    if form is ModelForm.SIGMOID:
        start["k"] = shape.get("k", 1.0)
    result = wnls_fit(
        data, form, fixed, free,
        starts=[start],
        convergence_tol=config.convergence_tol,
        max_iterations=config.max_iterations,
        compute_se=config.compute_se,
        exclusions=config.exclusions,
    )
    return replace(result, stage1=stage1_result)


def loocv(
    dataset: RegressionDataset,
    form: ModelForm,
    config: FitConfig | None = None,
) -> LoocvReport:
    """Leave-one-workload-out stability of the shape-stage estimates.

    Each workload is held out in turn and the constrained shape stage is
    refit on the remainder (exclusions in ``config`` are NOT applied here;
    pass the dataset you want scanned). Reported statistics are the mean,
    sample SD, and coefficient of variation of each shape parameter across
    holdouts, plus two flags: workloads whose omission moves any parameter
    more than two SDs from the holdout mean, and the single most divergent
    holdout per parameter.
    """
    config = config or FitConfig()
    table = dataset.workload_table
    workloads = table.workloads()
    if len(workloads) < 3:
        raise DegenerateDataError(
            "leave-one-out needs at least three workloads"
        )
    quiet = replace(config, compute_se=False)
    per_holdout: dict[str, dict[str, float]] = {}
    for wid in workloads:
        held = _stage1(table.drop([wid]), form, quiet)
        per_holdout[wid] = dict(held.estimates)
    stage_form = (
        ModelForm.LOG_ASYMPTOTIC
        if form is ModelForm.LOG_ASYMPTOTIC_ARCH_FE
        else form
    )
    parameters = _SHAPE_PARAMS[stage_form]
    mean: dict[str, float] = {}
    sd: dict[str, float] = {}
    cov_percent: dict[str, float] = {}
    most_divergent: dict[str, str] = {}
    flagged: list[str] = []
    for name in parameters:
        values = np.array([per_holdout[w][name] for w in workloads])
        m = float(values.mean())
        s = float(values.std(ddof=1))
        mean[name] = m
        sd[name] = s
        cov_percent[name] = 100.0 * s / m if m != 0 else math.inf
        deviations = np.abs(values - m)
        most_divergent[name] = workloads[int(np.argmax(deviations))]
        if s > 0:
            for wid, dev in zip(workloads, deviations):
                if dev > 2.0 * s and wid not in flagged:
                    flagged.append(wid)
    return LoocvReport(
        form=form,
        parameters=parameters,
        per_holdout=per_holdout,
        mean=mean,
        sd=sd,
        cov_percent=cov_percent,
        flagged_outliers=tuple(flagged),
        most_divergent=most_divergent,
    )


# ---------------------------------------------------------------------------
# fit result -> fitted model file
# ---------------------------------------------------------------------------

def to_fitted_model(
    result: FitResult,
    *,
    dataset: RegressionDataset | None = None,
    dataset_sha256: str | None = None,
    created_utc: str | None = None,
) -> FittedModel:
    """Package a two-stage result as a serializable fitted model.

    Provenance records the dataset content hash, the exclusions applied,
    the workloads trained on, and a timestamp (pass ``created_utc`` to pin
    it; fits are otherwise identical across reruns).
    """
    params_all = result.all_params()
    names = _FORM_PARAMS[result.form]
    params = PowerParams(**{n: params_all[n] for n in names})
    params.validate_for(result.form)
    if dataset_sha256 is None and dataset is not None:
        dataset_sha256 = dataset.sha256()
    if created_utc is None:
        created_utc = (
            _dt.datetime.now(_dt.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
        )
    training: list[str] | None = None
    if dataset is not None:
        excluded = {wid for wid, _ in result.exclusions}
        training = [
            w for w in dataset.workloads() if w not in excluded
        ]
    provenance: dict[str, Any] = {
        "kind": "fit",
        "created_utc": created_utc,
        "exclusions": [list(p) for p in result.exclusions],
        "clusters": result.clusters,
        "observations": result.observations,
        "converged": result.converged,
    }
    if dataset_sha256 is not None:
        provenance["dataset_sha256"] = dataset_sha256
    if training is not None:
        provenance["training_workload_ids"] = training
    if result.stage1 is not None:
        provenance["stage1_estimates"] = dict(result.stage1.estimates)
    return FittedModel(
        form=result.form,
        params=params,
        robust_se=dict(result.robust_se),
        provenance=provenance,
    )
