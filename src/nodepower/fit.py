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
cleverness); a small final step counts as convergence only at a full-rank
Jacobian and a relative offset of at most 1e-3. A golden-section scan backs
up the one-parameter stages in the unlikely event Gauss-Newton stalls.
Everything is deterministic: same data in, same estimates out, to the last
bit.

Every curve, gradient and parameter role comes from the form table,
``nodepower.model.FORMS``; this module holds no formula of its own and
treats every form alike. Parameters the table marks as log10-scale (the
raw-operations variant's alpha, whose scale spans six decades) are fitted
as log10 of the value; reported estimates and standard errors are for the
value itself.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence, TypeVar

import numpy as np

from .ingest import RegressionDataset, WorkloadTable
from .model import FORMS, FittedModel, ModelForm, PowerParams
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

_Data = TypeVar("_Data", RegressionDataset, WorkloadTable)


class DegenerateDataError(ValueError):
    """The data cannot identify the requested parameters."""


class NonConvergenceError(RuntimeError):
    """The best start point did not reach an optimum."""


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
# optimizers
# ---------------------------------------------------------------------------

OFFSET_TOL = 1e-3  # Bates & Watts' suggested relative-offset threshold


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    scale = np.maximum(np.abs(old), 1e-12)
    return float(np.max(np.abs(new - old) / scale))


def _relative_offset(r: np.ndarray, J: np.ndarray, floor: float) -> float:
    """Bates & Watts (1981, *Technometrics* 23:2): ``||Q1' r|| / sqrt(p)``
    over ``||r - Q1 Q1' r|| / sqrt(n - p)``, Q1 an orthonormal basis of J's
    columns; zero at a stationary point. A residual scale below ``floor``
    counts as ``floor`` (n == p, or noise-free data). A rank-deficient J,
    where the parameters are not identified, reads as infinite."""
    n, p = J.shape
    norms = np.linalg.norm(J, axis=0)  # the rank test ignores column scale
    if not np.all(norms > 0):
        return math.inf
    q, R = np.linalg.qr(J / norms)
    # with unit columns (at most two here) |R_ii| is 1 or a sine
    if not np.min(np.abs(np.diag(R))) > np.finfo(float).eps * n:
        return math.inf
    qtr = q.T @ r
    orth = r - q @ qtr
    scale = math.sqrt(float(orth @ orth) / (n - p)) if n > p else 0.0
    return math.sqrt(float(qtr @ qtr) / p) / max(scale, floor, 1e-300)


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
        Start points (user scale). Defaults to the form table's start
        points taken on the free parameters, duplicates dropped: the
        multi-start grid when the shape is free, one start otherwise.
        Of the starts that reach the lowest SSE (within 1e-12 relative),
        the first wins.
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
        The lowest-SSE start did not reach an optimum.
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
    spec = FORMS[form]
    for name in (*free, *fixed_params):
        if name not in spec.params:
            raise ValueError(
                f"{form.value} model has no parameter {name!r}"
            )
    missing = [
        n for n in spec.params if n not in free and n not in fixed_params
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
    for name in free:
        arch = spec.per_arch.get(name)
        if arch is not None and not np.any(table.arch == arch):
            raise DegenerateDataError(
                f"no {arch.upper()} observations to identify {name}"
            )

    y = table.mean_kw
    x = table.x
    is_llm = table.arch == Architecture_LLM
    # the weighted SSE's part that no curve can explain
    within = float(np.sum(table.within_ss / table.n))

    # the optimizer sees log10 of each log10-scale parameter
    on_log10 = [n in spec.log10 for n in free]

    def internal(name: str, value: float) -> float:
        if name not in spec.log10:
            return float(value)
        if not value > 0:
            raise ValueError(f"{name} must be positive")
        return math.log10(value)

    fixed = {n: float(v) for n, v in fixed_params.items()}
    for n, v in fixed.items():
        internal(n, v)  # rejects a non-positive log10-scale value

    def params_at(theta: np.ndarray) -> dict[str, float]:
        p = dict(fixed)
        for n, v, log in zip(free, theta, on_log10):
            p[n] = 10.0 ** float(v) if log else float(v)
        return p

    def residual_fn(theta: np.ndarray) -> np.ndarray:
        return y - spec.curve(params_at(theta), x, is_llm)

    def sse_fn(theta: np.ndarray) -> float:
        r = residual_fn(theta)
        return float(r @ r) + within

    def gradient_fn(theta: np.ndarray) -> np.ndarray:
        """Jacobian with respect to the user-scale parameters."""
        grad = spec.gradient(params_at(theta), x, is_llm)
        return np.column_stack([grad[n] for n in free])

    def jacobian_fn(theta: np.ndarray) -> np.ndarray:
        # d value / d log10(value) = value * ln 10
        chain = [
            10.0 ** float(v) * math.log(10.0) if log else 1.0
            for v, log in zip(theta, on_log10)
        ]
        return gradient_fn(theta) * chain

    lower = np.array([
        internal(n, spec.lower[n]) if n in spec.lower else -np.inf
        for n in free
    ])
    # one start per distinct point on the free parameters
    points = dict.fromkeys(
        tuple(internal(n, s[n]) for n in free)
        for s in (spec.starts(table.x) if starts is None else starts)
    )
    runs = [
        _gauss_newton(
            sse_fn, residual_fn, jacobian_fn, np.array(theta0), lower,
            convergence_tol, max_iterations,
        )
        for theta0 in points
    ]
    # starts that reach one optimum differ in SSE only by rounding: take
    # the first, in start order, within rounding of the lowest SSE, so
    # that the winner does not depend on summation order
    lowest = min(sse for _, sse, _ in runs)
    theta, sse, converged = next(
        run for run in runs if not run[1] > lowest * (1.0 + 1e-12)
    )
    # a run that creeps along a ridge also stops on a small step (a sigmoid
    # off to x0 -> -inf, k -> +inf is flat over the data: its Jacobian has
    # rank 1); residuals below sqrt(eps) of the data's RMS are rounding
    converged = converged and _relative_offset(
        residual_fn(theta), jacobian_fn(theta),
        math.sqrt(np.finfo(float).eps * float(np.mean(y * y))),
    ) <= OFFSET_TOL

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
            f"{form.value} fit did not converge within {max_iterations} "
            "iterations, or stopped at a rank-deficient Jacobian or a "
            f"relative offset above {OFFSET_TOL:g}"
        )

    optimum = params_at(theta)
    estimates = {n: optimum[n] for n in free}

    robust_se: dict[str, float] = {}
    t_value: dict[str, float] = {}
    p_value: dict[str, float] = {}
    covariance: tuple[tuple[float, ...], ...] | None = None
    clusters = len(table.workload_ids)
    if compute_se:
        # imported here so that only fits that report p-values load scipy
        from scipy.special import stdtr

        # one row per cluster, unit weights: the per-observation sandwich,
        # on the reported parameter scale
        cov = cluster_robust_covariance(
            gradient_fn(theta), residual_fn(theta), np.ones(clusters),
            table.workload_ids,
        )
        covariance = tuple(tuple(float(v) for v in row) for row in cov)
        df = clusters - 1
        for i, n in enumerate(free):
            se = math.sqrt(max(cov[i, i], 0.0))
            robust_se[n] = se
            t = estimates[n] / se if se > 0 else math.inf
            t_value[n] = t
            p_value[n] = float(2.0 * stdtr(df, -abs(t)))

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
    spec = FORMS[form]
    fixed = {"p_idle_kw": config.stage1_p_idle_kw}
    for name in FORMS[spec.stage1_form].params:
        if name not in fixed and name not in spec.shape:
            fixed[name] = config.stage1_beta_kw
    return wnls_fit(
        table, spec.stage1_form, fixed, spec.shape,
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
    spec = FORMS[form]
    data = apply_exclusions(dataset.workload_table, config.exclusions)

    stage1_result: FitResult | None = None
    if config.shape_override is not None:
        shape = {n: float(config.shape_override[n]) for n in spec.shape}
    else:
        stage1_result = _stage1(data, form, config)
        shape = dict(stage1_result.estimates)

    free = spec.stage2_free
    fixed: dict[str, float] = {"p_idle_kw": config.stage2_p_idle_kw}
    for name, value in shape.items():
        if name not in free:  # a shape parameter may stay free in stage 2
            fixed[name] = value
    # magnitudes start at the stage-1 anchor, shape parameters where
    # stage 1 left them
    start = {n: shape.get(n, config.stage1_beta_kw) for n in free}
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
    parameters = FORMS[form].shape
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
    params = PowerParams(
        **{n: params_all[n] for n in FORMS[result.form].params}
    )
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
