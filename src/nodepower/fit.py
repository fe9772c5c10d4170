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
weighted SSE are those of the per-observation definition, and the tests
check the grouped fit against it.

With at most two free parameters per stage, the optimizer is a damped
hybrid of Newton and Gauss-Newton steps with analytic derivatives and a
fixed multi-start grid over the shape parameters (the objective has a mild
ridge; restarts are cheaper than cleverness). The sigmoid is a
large-residual problem, on which Gauss-Newton alone converges only
linearly (Dennis & Schnabel, *Numerical Methods for Unconstrained
Optimization*, section 10.2) and stops on its step test short of the
optimum. So each iteration also takes the curvature S = sum_i r_i hess f_i
from the same shape evaluation as the Jacobian, and a problem whose
H = J'J - S is positive definite takes the Newton step H^-1 J'r; the others,
and every stage where no free parameter has curvature (the magnitudes of the
saturation forms), take the Gauss-Newton step (a hybrid method: Fletcher &
Xu 1987, *IMA J. Numer. Anal.* 7). Every point of a fit's start grid is
scored once, without iterating, and only the first with the lowest SSE
iterates; a run that misses its optimum reruns the whole grid. ``loocv``'s
G holdouts iterate one such start each, as one array problem in one loop:
the parameters of B problems form a (B, p) array, each problem halves its
own step and stops on its own, and both steps are solved in closed form
from one Gram-Schmidt. Each iteration takes the live problems a call at a
time: their derivatives, their steps, and their full steps in one plain
pass, which most problems end with; the problems whose full step raises the
SSE then try their halvings together, several scales per problem in one
evaluation. Memory is bounded per evaluation, not per problem: no curve or
derivative evaluation, halvings and the optimum tests of the winners
included, takes more than ``BATCH_ELEMENTS`` problems x workloads, so a
large batch makes more calls, not larger ones. A batch holds at most the
larger of G holdouts and one grid of S starts, and carries each problem's
residual row and user-scale point between iterations, so that no point's
residuals are evaluated, or its parameters mapped back to the user scale,
twice. Every reduction runs along one problem's row, so each problem is
bit-identical to a run on its own, and the halvings give the bits that
trying one scale at a time would.
Every stage, with one free parameter or two, converges in one way only: a
small final step, at a full-rank Jacobian, with a relative offset of at
most 1e-3; the step and the offset test share one Gram-Schmidt and its
rank rule. Everything is deterministic: same data in, same estimates out,
to the last bit.

Every curve, gradient and parameter role comes from the form table,
``nodepower.model.FORMS``; this module holds no formula of its own and
treats every form alike. Where a form's optimizer map covers the free
shape parameters, the fit iterates them on the map's scale, and the map
gives the forward and inverse transforms and the derivatives of the
shape's argument there. The raw-operations variant's alpha, whose scale
spans six decades, is fitted as log10(alpha). The sigmoid's (x0, k) are
fitted as the coefficients of its linear predictor z = c0 + c1 t, on the
intensities standardized over the table fitted, t = (x - mean) / sd; on
(x0, k), a curve flat over the data lies at x0 -> -inf, k -> inf, a ridge
a step can land on and take many halvings to leave, while on (c0, c1) it
is the edge c1 -> 0+, and the bound k >= K_FLOOR is c1 <= sd / K_FLOOR. A
step outside the map's domain is rejected like one that raises the SSE.
Starts, reported estimates and standard errors are on the user scale.
Without a map the user scale is the optimizer's, and the standard errors
take the Jacobian that the optimum test evaluated; with one, they take the
curve's gradient at the user-scale optimum. Everything about an objective
that no evaluation changes (parameter positions, masks, 10^x, the map's
per-table constants) is taken once per objective (``FormSpec.resolve``),
so an evaluation is the form's arithmetic and the gathers of each
problem's table.
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .files import (
    DegenerateDataError,
    NonConvergenceError,
    UnknownWorkloadError,
)
from .ingest import EXCLUSION_REASONS, WorkloadTable
from .model import (
    FORMS, FittedModel, FormSpec, ModelForm, PowerParams, _take,
)
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
    "apply_exclusions",
    "wnls_fit",
    "cluster_robust_covariance",
    "two_stage_fit",
    "loocv",
    "to_fitted_model",
]


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
# exclusions
# ---------------------------------------------------------------------------

def apply_exclusions(
    dataset: WorkloadTable,
    policy: Sequence[tuple[str, str]],
) -> WorkloadTable:
    """Drop the workloads named by an exclusion policy.

    The policy is a sequence of (workload_id, reason) pairs with reasons in
    ``ingest.EXCLUSION_REASONS``; naming a workload the dataset does not have
    is an error rather than a no-op, because a silently ignored exclusion is
    how a leaked validation row sneaks back in.
    """
    if not policy:
        return dataset
    present = set(dataset.workloads())
    for wid, reason in policy:
        if wid not in present:
            raise UnknownWorkloadError(
                f"exclusion names unknown workload {wid!r}"
            )
        if reason not in EXCLUSION_REASONS:
            raise ValueError(
                f"exclusion reason {reason!r} for {wid!r} not in "
                f"{sorted(EXCLUSION_REASONS)}"
            )
    return dataset.drop([wid for wid, _ in policy])


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

OFFSET_TOL = 1e-3  # Bates & Watts' suggested relative-offset threshold
MAX_HALVINGS = 40  # step scales tried per iteration before a problem stops
BATCH_ELEMENTS = 8192  # problems x workloads per curve or derivative call
_EPS = float(np.finfo(float).eps)


def _relative_change(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Largest relative parameter change of each problem (row)."""
    scale = np.maximum(np.abs(old), 1e-12)
    return (np.abs(new - old) / scale).max(axis=-1)


def _relative_offsets(
    r: np.ndarray, J: list[np.ndarray], floor: np.ndarray
) -> np.ndarray:
    """The relative offset (Bates & Watts 1981, *Technometrics* 23:2) of
    each problem: ``||Q1' r|| / sqrt(p)`` over ``||r - Q1 Q1' r|| /
    sqrt(n - p)``, Q1 an orthonormal basis of J's columns; zero at a
    stationary point. ``r`` is (B, n), ``J`` holds the p columns, each
    (B, n), and ``floor`` is (B,) or one value. A residual scale below
    ``floor`` counts as ``floor`` (n == p, or noise-free data). A
    rank-deficient J (the rank rule of ``_gram_schmidt``), where the
    parameters are not identified, reads as infinite. Every sum runs along
    one problem's row."""
    n, p = r.shape[-1], len(J)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # on unit columns a norm that overflows reads as a zero column
        unit = [c / np.sqrt(_row_sum(c * c))[:, None] for c in J]
        _, q1, _, v, r22 = _gram_schmidt(unit)
        Q = [q1] if p == 1 else [q1, v / r22[:, None]]
        qtr = [_row_sum(q * r) for q in Q]
        along = sum(b * b for b in qtr)
        orth = r - sum(b[:, None] * q for b, q in zip(qtr, Q))
        scale = np.sqrt(_row_sum(orth * orth) / (n - p)) if n > p else 0.0
        offset = np.sqrt(along / p) / np.maximum(
            np.maximum(scale, floor), 1e-300
        )
    return np.where(np.isfinite(along), offset, np.inf)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis: one problem's row at a time, pairwise,
    never a BLAS dot, so a problem's sums do not depend on its batch."""
    return np.add.reduce(a, axis=-1)


class _Objective:
    """One fit stage's weighted SSE on T tables of n workloads each.

    Table t holds the rows ``keep[t]`` of a workload table. B problems are
    solved at once: their free parameters, on the optimizer's scale, are
    the rows of a (B, p) array ``theta``, and ``rows`` (B,) names each
    problem's table. With one table every problem reads its columns as they
    are, broadcast. Every step is elementwise or a sum along the last axis,
    so a problem's numbers do not depend on the batch it runs in. The
    form's curve and derivatives come from ``FormSpec.resolve``, taken once
    on the T tables.

    The optimizer's scale is the user scale, but for the shape parameters
    when they are exactly those of the form table's optimizer map
    (``FormSpec.optimizer_map``): then theta holds the map's coordinates in
    their columns, with the map's constants taken once from each table's
    intensities. An evaluation takes the problems' points on the user scale
    too, ``user`` (B, p), where the caller has them, so that no point is
    mapped back twice; without a map, ``user`` is theta itself.
    """

    def __init__(
        self,
        spec: FormSpec,
        fixed: Mapping[str, float],
        free: tuple[str, ...],
        table: WorkloadTable,
        keep: np.ndarray,
    ) -> None:
        self.spec = spec
        self.free = free
        position = {n: i for i, n in enumerate(free)}
        self.x = table.x[keep]
        self.arch = table.arch[keep]
        shape = tuple(n for n in spec.shape if n in free)
        m = spec.optimizer_map
        self.map = m if m is not None and m.params == shape else None
        mapped = () if self.map is None else self.map.params
        self.mapped = [position[n] for n in mapped]
        self.constants = () if self.map is None else m.constants(self.x)
        # the map bounds its own coordinates; the others are clipped to the
        # form table's lower bounds
        self.lower = np.array([
            -np.inf if n in mapped else spec.lower.get(n, -np.inf)
            for n in free
        ])
        self.form = spec.resolve(
            fixed, free, self.x,
            self.arch == Architecture_LLM if spec.per_arch else None,
        )
        self.y = table.mean_kw[keep]
        # the weighted SSE's part that no curve can explain
        self.within = _row_sum((table.within_ss / table.n)[keep])

    def _mapped(
        self, values: np.ndarray, rows: np.ndarray, inverse: bool
    ) -> np.ndarray:
        """(B, p) ``values`` with the map's columns put through its inverse
        (theta to user) or its forward function."""
        if self.map is None:
            return values
        out = values.copy()
        f = self.map.inverse if inverse else self.map.forward
        columns = f(
            [values[:, i:i + 1] for i in self.mapped],
            self._constants(rows, self.map.scale_constants),
        )
        for i, column in zip(self.mapped, columns):
            out[:, i:i + 1] = column
        return out

    def _constants(
        self, rows: np.ndarray, count: int | None = None
    ) -> tuple[np.ndarray, ...]:
        """The problems' rows of the map's first ``count`` constants (all
        of them by default)."""
        return tuple(_take(c, rows) for c in self.constants[:count])

    def user(self, theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Free parameters on the user scale, (B, p); NaN outside the
        map's domain."""
        return self._mapped(theta, rows, inverse=True)

    def internal(self, user: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Free parameters on the optimizer's scale, (B, p)."""
        return self._mapped(user, rows, inverse=False)

    @staticmethod
    def _split(user: np.ndarray) -> list[np.ndarray]:
        return [user[:, i:i + 1] for i in range(user.shape[1])]

    def residual(
        self, theta: np.ndarray, rows: np.ndarray,
        user: np.ndarray | None = None,
    ) -> np.ndarray:
        """Workload-mean residuals at theta, (B, n)."""
        if user is None:
            user = self.user(theta, rows)
        return _take(self.y, rows) - self.form.curve(self._split(user), rows)

    def sse(self, r: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Weighted SSE of each problem from its residuals, (B,)."""
        return _row_sum(r * r) + _take(self.within, rows)

    def _columns(self, J: list, count: int) -> list[np.ndarray]:
        # a column that no free parameter enters is one row for all
        shape = (count, self.x.shape[-1])
        return [
            c if c.shape == shape else np.broadcast_to(c, shape) for c in J
        ]

    def gradient(self, user: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
        """d curve / d user-scale parameter at the user-scale points
        ``user`` (B, p), one (B, n) array per free parameter."""
        J, _ = self.form.derivatives(self._split(user), rows)
        return self._columns(J, len(user))

    def derivatives(
        self, theta: np.ndarray, rows: np.ndarray,
        user: np.ndarray | None = None,
    ) -> tuple[list[np.ndarray], dict[tuple[int, int], np.ndarray]]:
        """The Jacobian d curve / d theta, one (B, n) array per free
        parameter, and the curve's second derivatives in theta, {(i, j):
        (B, n)} for i <= j, on the pairs of free parameters where they are
        not zero everywhere; from one shape evaluation at theta. On the
        map's scale the map gives the derivatives of the shape's
        argument."""
        if user is None:
            user = self.user(theta, rows)
        u = self._split(user)
        argument = None if self.map is None else self.map.derivatives(
            [u[i] for i in self.mapped], self._constants(rows)
        )
        J, H = self.form.derivatives(u, rows, argument)
        return self._columns(J, len(theta)), H


def _gram_schmidt(
    J: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, Any, Any, Any]:
    """Two-column Gram-Schmidt QR of each problem's Jacobian, p <= 2.

    ``J`` holds the p columns, each (B, n); every sum runs row by row.
    Returns r11 = ||J1||, q1 = J1 / r11 and, for p = 2, r12 = q1'J2,
    v = J2 - r12 q1 and r22 = ||v|| (``None`` for p = 1). The rank rule:
    J is rank-deficient when a column is zero, or when the two columns are
    at an angle whose sine is at most n * eps; then q1 or r22 is NaN. Call
    under ``np.errstate`` that silences those divisions.
    """
    r11 = np.sqrt(_row_sum(J[0] * J[0]))
    q1 = J[0] / r11[:, None]
    if len(J) == 1:
        return r11, q1, None, None, None
    r12 = _row_sum(q1 * J[1])
    v = J[1] - r12[:, None] * q1
    r22 = np.sqrt(_row_sum(v * v))
    sine = r22 / np.sqrt(_row_sum(J[1] * J[1]))
    r22 = np.where(sine > _EPS * J[1].shape[-1], r22, np.nan)
    return r11, q1, r12, v, r22


def _lstsq_step(
    J: list[np.ndarray],
    r: np.ndarray,
    curvature: Mapping[tuple[int, int], np.ndarray] | None = None,
) -> np.ndarray:
    """Least-squares solution d of J d = r for each problem, p <= 2, from
    ``_gram_schmidt``: the Gauss-Newton step. A rank-deficient J gives a
    non-finite step. Given the curvature S = sum_i r_i hess f_i of each
    problem, {(i, j): (B,)} for i <= j (a pair not given is zero), a
    problem whose H = J'J - S is positive definite, and whose solution of
    H d = J'r is finite, takes that Newton step instead; J'J = R'R and
    J'r = R'Q'r come from the same Gram-Schmidt. Called under the kernel's
    ``np.errstate``, where those divisions are silent.
    """
    r11, q1, r12, v, r22 = _gram_schmidt(J)
    d = np.empty((len(r), len(J)))
    b1 = _row_sum(q1 * r)
    if len(J) == 1:
        d[:, 0] = b1 / r11
        if curvature:
            h11 = r11 * r11 - curvature[0, 0]
            newton = r11 * b1 / h11
            np.copyto(d[:, 0], newton, where=(h11 > 0) & np.isfinite(newton))
        return d
    b2 = _row_sum(v * r)  # r22 times the second entry of Q'r
    r22r22 = r22 * r22
    d[:, 1] = b2 / r22r22
    d[:, 0] = (b1 - r12 * d[:, 1]) / r11
    if curvature:
        s11, s12, s22 = (
            curvature.get(ij, 0.0) for ij in ((0, 0), (0, 1), (1, 1))
        )
        h11 = r11 * r11 - s11
        h12 = r11 * r12 - s12
        h22 = r12 * r12 + r22r22 - s22
        g1, g2 = r11 * b1, r12 * b1 + b2  # J'r
        det = h11 * h22 - h12 * h12
        n1 = (h22 * g1 - h12 * g2) / det
        n2 = (h11 * g2 - h12 * g1) / det
        take = (h11 > 0) & (det > 0) & np.isfinite(n1) & np.isfinite(n2)
        np.copyto(d[:, 0], n1, where=take)
        np.copyto(d[:, 1], n2, where=take)
    return d


def _step(
    objective: _Objective,
    theta: np.ndarray,
    rows: np.ndarray,
    r: np.ndarray,
    user: np.ndarray | None = None,
) -> np.ndarray:
    """Each problem's step from theta, where its residuals are r and its
    user-scale point ``user``: ``_lstsq_step`` with the curvature from the
    form table's second derivatives. That is the Newton step where H is
    positive definite and the step finite, and the Gauss-Newton step
    elsewhere and in a stage where no free parameter has curvature."""
    J, second = objective.derivatives(theta, rows, user)
    return _lstsq_step(
        J, r, {ij: _row_sum(r * h) for ij, h in second.items()}
    )


def _per_call(objective: _Objective) -> int:
    """Problems per curve or derivative evaluation: ``BATCH_ELEMENTS``
    problems x workloads, at least one problem."""
    return max(1, BATCH_ELEMENTS // objective.x.shape[-1])


def _residuals(
    objective: _Objective, theta: np.ndarray, rows: np.ndarray,
    user: np.ndarray | None = None,
) -> np.ndarray:
    """Residual rows of B problems, (B, n), in calls of at most
    ``_per_call`` problems, from their user-scale points ``user`` when
    given."""
    size = _per_call(objective)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if user is None:
            user = objective.user(theta, rows)
        return np.concatenate([
            objective.residual(
                theta[i:i + size], rows[i:i + size], user[i:i + size]
            )
            for i in range(0, len(theta), size)
        ])


def _gauss_newton(
    objective: _Objective,
    theta0: np.ndarray,
    rows: np.ndarray,
    resid0: np.ndarray,
    user0: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped hybrid Newton / Gauss-Newton on B independent problems at
    once.

    Each iteration takes one derivative evaluation per problem, from its
    point alone, and the step of ``_step``: Newton where H = J'J - S is
    positive definite and the Newton step finite, Gauss-Newton otherwise,
    and Gauss-Newton wherever no free parameter has a second derivative. Each
    problem takes the first scale 2^-j of its step, j = 0 ..
    ``MAX_HALVINGS`` - 1, at which its SSE does not rise. It stops
    converged on a relative step below ``tol``; unconverged on a non-finite
    step, on no scale that descends, or after ``max_iter`` iterations.
    ``theta0`` lies at or above the lower bounds, with residual rows
    ``resid0`` and user-scale points ``user0`` (theta0 itself without an
    optimizer map). Returns theta (B, p), SSE (B,), the converged flags
    (B,), the residual rows (B, n) and the user-scale points (B, p).

    Every problem of the batch iterates in one loop. An iteration takes
    the live problems in calls of at most size = ``BATCH_ELEMENTS`` // n
    problems (n workloads each): each call evaluates their derivatives,
    their steps and their full steps, a plain pass that most problems end
    with. The problems whose full step raises the SSE then try their
    halvings together: the m problems still halving try k scales each,
    with k = size // m, at least 1 and at most the scales left, and no
    call takes more than size // k problems at k scales. The scales are
    exact powers of two, so every candidate, and the one accepted, has the
    bits that trying one halving at a time would give it. Between
    iterations the loop carries each problem's point, its residual row
    (B, n) and its user-scale point, so that no point is mapped back to
    the user scale twice.
    """
    # Problems are independent and every sum runs along one problem's row,
    # so each is bit-identical alone and in any call. A call holds about
    # ten (problems, n) arrays at once (the curve, its gradient, the step):
    # hence the bound per call.
    size = _per_call(objective)
    carry = objective.map is not None  # else the user scale is theta
    lower = objective.lower
    theta, resid = theta0.copy(), resid0.copy()
    user = user0.copy() if carry else theta
    with np.errstate(over="ignore"):
        sse = objective.sse(resid, rows)
    converged = np.zeros(len(theta), dtype=bool)
    going: list[np.ndarray] = []  # problems that moved, not converged
    missed: list[tuple] = []  # problems whose candidates all missed

    def accept(todo, at, at_rows, limit, step, cand, k):
        # k candidates per problem of todo, problem by problem: each
        # problem moves to its first one whose SSE is at most its limit
        cand_rows = at_rows if k == 1 else np.repeat(at_rows, k)
        cand_user = objective.user(cand, cand_rows) if carry else cand
        cand_resid = objective.residual(cand, cand_rows, cand_user)
        cand_sse = objective.sse(cand_resid, cand_rows)
        if k == 1:
            hit = cand_sse <= limit
            every = hit.all()
            pick = None if every else hit
        else:
            down = cand_sse.reshape(-1, k) <= limit[:, None]
            hit = down.any(axis=-1)
            every = hit.all()
            pick = (np.arange(len(hit)) * k + down.argmax(axis=-1))[hit]
        if pick is not None:
            cand, cand_user, cand_resid, cand_sse = (
                a[pick] for a in (cand, cand_user, cand_resid, cand_sse)
            )
        if not every:
            miss = ~hit
            missed.append(tuple(
                a[miss] for a in (todo, at, at_rows, limit, step)
            ))
            todo, at = todo[hit], at[hit]
        small = _relative_change(cand, at) < tol
        theta[todo] = cand
        if carry:
            user[todo] = cand_user
        resid[todo] = cand_resid
        sse[todo] = cand_sse
        converged[todo[small]] = True
        going.append(todo[~small])

    # a step or candidate that overflows or divides by zero is non-finite,
    # which the rules below read as a stop or a rejection
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        live = np.arange(len(theta))  # problems still iterating
        for _ in range(max_iter):
            going.clear()
            missed.clear()
            # derivatives, steps and the plain full-step pass, per call
            for i in range(0, len(live), size):
                todo = live[i:i + size]
                at, at_rows = theta[todo], rows[todo]
                step = _step(
                    objective, at, at_rows, resid[todo], user[todo]
                )
                finite = np.isfinite(step).all(axis=-1)
                if not finite.all():
                    todo, at, at_rows, step = (
                        a[finite] for a in (todo, at, at_rows, step)
                    )
                if todo.size:
                    accept(
                        todo, at, at_rows,
                        sse[todo] * (1.0 + 1e-14) + 1e-300, step,
                        np.maximum(at + step, lower), 1,
                    )
            # the misses' halvings from 2^-1, as many scales as fit a call
            j = 1
            while missed and j < MAX_HALVINGS:
                todo, at, at_rows, limit, step = (
                    np.concatenate(a) for a in zip(*missed)
                )
                missed.clear()
                k = min(MAX_HALVINGS - j, max(1, size // len(todo)))
                scales = 0.5 ** np.arange(j, j + k)
                per = max(1, size // k)  # problems per call
                for i in range(0, len(todo), per):
                    s = slice(i, i + per)
                    cand = np.maximum(
                        at[s, None] + scales[:, None] * step[s, None], lower
                    ).reshape(-1, len(lower))
                    accept(
                        todo[s], at[s], at_rows[s], limit[s], step[s], cand,
                        k,
                    )
                j += k
            live = np.concatenate(going) if going else live[:0]
            if not live.size:
                break
    return theta, sse, converged, resid, user


def _start_points(
    objective: _Objective,
    starts: Sequence[Mapping[str, float]] | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Every table's start points on the optimizer's scale, (S, p), the
    table of each, (S,), and the count per table: the user-scale
    ``starts``, by default the form table's, one per distinct point on the
    free parameters and raised to their lower bounds. A grid that does not
    read the intensities is built once and mapped through every table's
    constants in one call."""
    spec, free = objective.spec, objective.free
    tables = len(objective.x)

    def distinct(grid: Sequence[Mapping[str, float]]) -> np.ndarray:
        return np.array(list(dict.fromkeys(
            tuple(float(s[n]) for n in free) for s in grid
        )), dtype=float)

    if starts is None and callable(spec.shape_starts):
        points = [distinct(spec.starts(x)) for x in objective.x]
    else:
        grid = spec.starts(None) if starts is None else starts
        points = [distinct(grid)] * tables
    counts = [len(p) for p in points]
    rows = np.repeat(np.arange(tables), counts)
    lower = [spec.lower.get(n, -np.inf) for n in free]
    user = np.maximum(np.concatenate(points), lower)
    return objective.internal(user, rows), rows, counts


def _lowest_sse_starts(
    objective: _Objective,
    theta0: np.ndarray,
    rows: np.ndarray,
    counts: Sequence[int],
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Index into ``theta0`` of each table's first start, in start order,
    with the lowest weighted SSE, NaN read as +inf, and every start's
    residual row and user-scale point, (S, n) and (S, p). The starts lie
    in table order, ``counts[t]`` of them for table t; each is mapped to
    the user scale and scored once, without iterating."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        user = objective.user(theta0, rows)
        resid = _residuals(objective, theta0, rows, user)
        sse = objective.sse(resid, rows)
    sse[np.isnan(sse)] = np.inf
    return _first_lowest(sse, counts), (resid, user)


def _first_lowest(
    sse: np.ndarray, counts: Sequence[int], rel: float = 0.0
) -> np.ndarray:
    """Index of each table's first SSE that is at most the table's lowest
    times (1 + ``rel``), or of its first if every one is NaN. The SSEs lie
    in table order, ``counts[t]`` of them for table t."""
    first = np.cumsum([0, *counts[:-1]])
    lowest = np.fmin.reduceat(sse, first)
    within = sse <= np.repeat(lowest * (1.0 + rel), counts)
    index = np.where(within, np.arange(len(sse)), len(sse))
    picks = np.minimum.reduceat(index, first)
    return np.where(picks < len(sse), picks, first)


def _check_identified(
    spec: FormSpec, free: tuple[str, ...], x: np.ndarray, arch: np.ndarray
) -> None:
    """Raise DegenerateDataError unless the intensities ``x`` and
    architectures ``arch`` of every table, one table or one per row, can
    identify the free parameters. The first table that cannot names the
    reason, its distinct intensities checked first."""
    # distinct values as np.unique counts them, all NaNs one value (NaNs
    # sort last); np.unique on floats would load numpy.ma, which a fresh
    # process need not import
    s = np.sort(np.atleast_2d(x), axis=-1)
    distinct = (s.shape[-1] > 0) + np.count_nonzero(
        ~((s[:, 1:] == s[:, :-1]) | np.isnan(s[:, :-1])), axis=-1
    )
    checks = [(distinct < 2, "need at least two distinct intensity values")]
    for name in free:
        needed = spec.per_arch.get(name)
        if needed is not None:
            checks.append((
                ~np.any(np.atleast_2d(arch) == needed, axis=-1),
                f"no {needed.upper()} observations to identify {name}",
            ))
    failed = np.array([f for f, _ in checks])  # (checks, tables)
    if failed.any():
        first = failed[:, np.argmax(failed.any(axis=0))]
        raise DegenerateDataError(checks[int(np.argmax(first))][1])


def _winners(
    objective: _Objective, rows: np.ndarray, counts: Sequence[int],
    theta: np.ndarray, sse: np.ndarray, converged: np.ndarray,
    resid: np.ndarray, user: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The optimum of each table from its runs, as ``_gauss_newton``
    returns them: theta, SSE, whether it is an optimum, residual rows and
    user-scale points, one row per table, and the Jacobian d curve / d
    theta there, (T, n, p), on the rows that are at an optimum. The runs
    lie in table order, ``counts[i]`` of them for the i-th table; ``rows``
    names each run's table.

    A winning run is at an optimum only if it stopped on a small step at
    a full-rank Jacobian with a relative offset of at most ``OFFSET_TOL``,
    whatever the number of free parameters.
    """
    # starts that reach one optimum differ in SSE only by rounding: take
    # the first, in start order, within rounding of the lowest SSE, so that
    # the winner does not depend on summation order
    picks = _first_lowest(sse, counts, 1e-12)
    tables = rows[picks]
    theta, sse, ok, resid, user = (
        a[picks] for a in (theta, sse, converged, resid, user)
    )
    jacobian = np.empty((len(picks), resid.shape[-1], theta.shape[-1]))
    # a run can also stop on a small step where the Jacobian has rank 1,
    # as at a sigmoid's edge c1 -> 0+ (a curve flat over the data), or
    # short of the optimum; residuals below sqrt(eps) of the data's RMS are
    # rounding. The tables share calls, as many as the kernel's bound lets.
    runs = np.flatnonzero(ok)
    size = _per_call(objective)
    for i in range(0, len(runs), size):
        w = runs[i:i + size]
        y = _take(objective.y, tables[w])
        J = objective.derivatives(theta[w], tables[w], user[w])[0]
        # (n, p) per table in C order, as np.column_stack builds it
        jacobian[w] = np.stack(J, axis=-1)
        ok[w] = _relative_offsets(
            resid[w], J, np.sqrt(_EPS * np.mean(y * y, axis=-1)),
        ) <= OFFSET_TOL
    return theta, sse, ok, resid, user, jacobian


def _optima(
    objective: _Objective, form: ModelForm, tol: float, max_iter: int,
    starts: Sequence[Mapping[str, float]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The optimum of every table from its ``_start_points`` (``starts``,
    or the form table's): the user-scale point (T, p), SSE (T,), residual
    rows (T, n) and the Jacobian d curve / d theta (T, n, p).

    Each table's first lowest-SSE start (``_lowest_sse_starts``) iterates,
    all T as one batch. A table whose run ``_winners`` does not pass
    reruns its whole start list as one batch, one table at a time in table
    order; the first rerun that fails too raises NonConvergenceError for
    ``form``. So no batch holds more than the larger of T problems and one
    table's starts.
    """
    theta0, rows, counts = _start_points(objective, starts)
    picks, (resid0, user0) = _lowest_sse_starts(
        objective, theta0, rows, counts
    )

    def run(s: np.ndarray, per_table: Sequence[int]):
        return _winners(objective, rows[s], per_table, *_gauss_newton(
            objective, theta0[s], rows[s], resid0[s], user0[s], tol,
            max_iter,
        ))

    _, sse, ok, resid, user, jacobian = out = run(picks, [1] * len(counts))
    for t in np.flatnonzero(~ok):
        # a list of one start would rerun the run that just failed
        if counts[t] > 1:
            for a, b in zip(out, run(rows == t, [counts[t]])):
                a[t] = b[0]
        if not ok[t]:
            raise _not_converged(form, max_iter)
    return user, sse, resid, jacobian


def _not_converged(form: ModelForm, max_iterations: int) -> Exception:
    return NonConvergenceError(
        f"{form.value} fit did not converge within {max_iterations} "
        "iterations, or stopped at a rank-deficient Jacobian or a "
        f"relative offset above {OFFSET_TOL:g}"
    )


# ---------------------------------------------------------------------------
# the weighted fit
# ---------------------------------------------------------------------------

def wnls_fit(
    table: WorkloadTable,
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
    table : WorkloadTable
    form : ModelForm
    fixed_params : mapping
        Parameter values held constant (user scale).
    free_params : sequence of str
        Names to estimate; at most two.
    starts : sequence of mappings, optional
        Start points (user scale). Defaults to the form table's start
        points taken on the free parameters, duplicates dropped: the
        multi-start grid when the shape is free, one start otherwise.
        Every start is scored once, and only the first with the lowest
        weighted SSE (NaN read as +inf) iterates. If its run is not at an
        optimum, all the starts iterate as one batch, and of those that
        reach the lowest SSE (within 1e-12 relative) the first wins.
    compute_se : bool
        Attach cluster-robust standard errors. Point estimates are
        independent of this flag.

    Returns
    -------
    FitResult
        Its ``converged`` means stationary: the run that iterated, or the
        rerun's winner, passed the step, rank and offset tests. It does
        not mean the global optimum. A start the grid does not hold, such
        as a single caller-given one, can converge at a stationary point
        whose SSE lies above the optimum's.

    Raises
    ------
    DegenerateDataError
        Fewer than two distinct intensity values, or the Jacobian cannot
        identify the free parameters (for example an architecture magnitude
        with no observations of that architecture).
    NonConvergenceError
        Neither the lowest-SSE start nor the rerun of all the starts
        reached an optimum: the run did not stop on a relative step below
        ``convergence_tol`` within ``max_iterations``, or it stopped at a
        rank-deficient Jacobian or a relative offset above ``OFFSET_TOL``.
        This holds for one free parameter as for two.
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
    _check_identified(spec, free, table.x, table.arch)
    fixed = {n: float(v) for n, v in fixed_params.items()}

    objective = _Objective(
        spec, fixed, free, table, np.arange(len(table.x))[None]
    )
    user, sse, resid, jacobian = _optima(
        objective, form, convergence_tol, max_iterations, starts
    )
    estimates = {n: float(v) for n, v in zip(free, user[0])}

    robust_se: dict[str, float] = {}
    t_value: dict[str, float] = {}
    p_value: dict[str, float] = {}
    covariance: tuple[tuple[float, ...], ...] | None = None
    clusters = len(table.workload_ids)
    if compute_se:
        # one row per cluster, unit weights: the per-observation sandwich,
        # on the reported parameter scale, which is theta's without a map
        cov = cluster_robust_covariance(
            jacobian[0] if objective.map is None else np.column_stack([
                g[0] for g in objective.gradient(user, np.zeros(1, int))
            ]),
            resid[0],
            np.ones(clusters),
            table.workload_ids,
        )
        covariance = tuple(tuple(float(v) for v in row) for row in cov)
        df = clusters - 1
        for i, n in enumerate(free):
            se = math.sqrt(max(cov[i, i], 0.0))
            robust_se[n] = se
            t = estimates[n] / se if se > 0 else math.inf
            t_value[n] = t
            p_value[n] = _two_sided_t_p(t, df)

    return FitResult(
        form=form,
        estimates=estimates,
        fixed=dict(fixed_params),
        robust_se=robust_se,
        t_value=t_value,
        p_value=p_value,
        clusters=clusters,
        observations=table.n_observations,
        weighted_sse=float(sse[0]),
        converged=True,
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
    # each observation's cluster, numbered in order of first appearance
    _, first, cluster = np.unique(
        np.asarray(cluster_ids), return_index=True, return_inverse=True
    )
    cluster = np.argsort(np.argsort(first))[cluster]
    n_clusters = len(first)
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
    # one score row per cluster, s_g = J_g' W_g e_g, each summed row by row;
    # the meat sum_g s_g s_g' accumulates in cluster order, so with one row
    # per cluster it has the bits of a loop over the clusters
    scores = np.column_stack([
        np.bincount(cluster, weights=c, minlength=n_clusters)
        for c in (J * (w * e)[:, None]).T
    ])
    meat = np.add.accumulate(
        scores[:, :, None] * scores[:, None, :], axis=0
    )[-1]
    correction = n_clusters / (n_clusters - 1.0)
    return bread_inv @ meat @ bread_inv * correction


# Stirling series coefficients B_2k / (2k (2k - 1)), highest order first
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _log_gamma_ratio(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a). The difference of two
    ``math.lgamma`` values keeps their absolute error, about 1e-13 by
    a = 80, so from a = 15 on the two Stirling series are subtracted term
    by term instead (error below 1e-15)."""
    if a < 15.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def series(z: float) -> float:
        # lgamma(z) - [(z - 1/2) log z - z + log(2 pi) / 2]
        total = 0.0
        for c in _STIRLING:
            total = total / (z * z) + c
        return total / z

    return (
        a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
        + series(a + 0.5) - series(a)
    )


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function I_x(a, b),
    evaluated to machine precision by the modified Lentz method (Press et
    al., *Numerical Recipes*, section 6.4). It converges quickly for
    x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for coefficient in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + coefficient / c
            c = c if abs(c) >= tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge at a={a}, "
        f"b={b}, x={x}"
    )


def _two_sided_t_p(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic with ``df`` degrees of freedom:
    2 P(T > |t|) = I_x(df/2, 1/2) at x = df / (df + t^2), the regularized
    incomplete beta function (Press et al., *Numerical Recipes*, section
    6.4). y = 1 - x and both logarithms are formed from t^2 / df, so log y
    keeps full precision at small |t|. Past |t| = 1e154 the tail rounds to
    0, as scipy's does."""
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    t = abs(t)
    u = t * t / df
    x, y = 1.0 / (1.0 + u), u / (1.0 + u)
    log_x = -math.log1p(u)
    log_y = 2.0 * math.log(t) - math.log(df) - math.log1p(u)
    a = 0.5 * df
    # x^a y^(1/2) / B(a, 1/2)
    front = math.exp(
        _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
        + a * log_x + 0.5 * log_y
    )
    # the fraction converges fast below x = (a + 1) / (a + b + 2), b = 1/2;
    # above it, take the complement I_x(a, b) = 1 - I_y(b, a)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_continued_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_continued_fraction(0.5, a, y) / 0.5


# ---------------------------------------------------------------------------
# the two-stage procedure
# ---------------------------------------------------------------------------

def _stage1_constraints(
    form: ModelForm, config: FitConfig
) -> tuple[ModelForm, dict[str, float], tuple[str, ...]]:
    """Stage 1's form, its magnitudes pinned to the measured anchors, and
    its free shape parameters."""
    spec = FORMS[form]
    betas = FORMS[spec.stage1_form].betas
    fixed = {"p_idle_kw": config.stage1_p_idle_kw}
    fixed.update(dict.fromkeys(betas, config.stage1_beta_kw))
    return spec.stage1_form, fixed, spec.shape


def two_stage_fit(
    dataset: WorkloadTable,
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
    data = apply_exclusions(dataset, config.exclusions)

    stage1_result: FitResult | None = None
    if config.shape_override is not None:
        shape = {n: float(config.shape_override[n]) for n in spec.shape}
    else:
        stage1_result = wnls_fit(
            data, *_stage1_constraints(form, config),
            convergence_tol=config.convergence_tol,
            max_iterations=config.max_iterations,
            compute_se=config.compute_se,
        )
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
    table: WorkloadTable,
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

    A holdout's shape is, bit for bit, the stage-1 fit of ``wnls_fit`` on
    the table without that workload, by that fit's rule: each holdout
    iterates its lowest-SSE start, all in one batch, and a holdout whose
    run misses its optimum reruns its own grid, one at a time in table
    order. So no batch holds more problems than the larger of the holdouts
    and one grid. The first rerun that fails raises that fit's
    NonConvergenceError.
    """
    config = config or FitConfig()
    workloads = table.workloads()
    if len(workloads) < 3:
        raise DegenerateDataError(
            "leave-one-out needs at least three workloads"
        )
    stage_form, fixed, free = _stage1_constraints(form, config)
    spec = FORMS[stage_form]
    # holdout h's table is the workload table without row h, in table
    # order: its row j is table row j + (j >= h)
    g = len(workloads)
    cols = np.arange(g - 1)
    keep = cols + (cols >= np.arange(g)[:, None])
    objective = _Objective(spec, fixed, free, table, keep)
    _check_identified(spec, free, objective.x, objective.arch)
    optima = _optima(
        objective, stage_form, config.convergence_tol, config.max_iterations
    )[0]
    per_holdout = {
        wid: {n: float(v) for n, v in zip(free, optima[h])}
        for h, wid in enumerate(workloads)
    }
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
    dataset: WorkloadTable | None = None,
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
