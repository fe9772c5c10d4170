"""Power-model functional forms, TDP baselines, and fitted-model files.

Every variant maps a node's log10 computational intensity x to average
node power in kW as p_idle + beta * g(x; shape), with one of two shapes:

* ``asymptotic``   g = x / (alpha + x), the saturation ratio
* ``arch-fe``      same, with one beta for LLM and one for CNN workloads
* ``sigmoid``      g = logistic((x - x0) / k)
* ``simple``       g = r / (alpha + r) on raw operations r = 10^x

``FORMS`` is the one place a form is defined: per form it holds the
magnitudes (one beta, or one per architecture), the shape function, which
parameters each fit stage estimates, which may be negative, the scale the
fit iterates the shape on (``OptimizerMap``), the lower bounds and the
shape start points; the parameter order, the curve, its gradient and its
second derivatives follow. Prediction, validation and ``nodepower.fit``
read it. The form names are ``ModelForm``, which lives in
``nodepower.files`` so the CLI can offer them without numpy.

The simple raw-scale variant is kept for completeness but has no calibrated
preset: the published shape values only make sense on the log scale. Every
variant is strictly increasing in x and strictly inside
(p_idle, p_idle + magnitude) for finite intensity, mirroring the physical
picture of a node that can neither dip below idle nor exceed the sum of its
component maxima.

Predictions are of *average* node power over a training run; multiplying by
node count and duration gives the energy estimate used across the toolkit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Any, Callable, Mapping

import numpy as np

from . import reference
from .files import ConfigError, ModelForm, read_text, write_json
from .reference import Architecture_CNN, Architecture_LLM

__all__ = [
    "ModelForm",
    "FormSpec",
    "FORMS",
    "OptimizerMap",
    "ResolvedForm",
    "PowerParams",
    "TdpConfig",
    "FittedModel",
    "predict_power",
    "predict_energy",
    "tdp_bounds",
    "save_model",
    "load_model",
    "preset",
    "preset_names",
    "MODEL_FILE_FORMAT",
]

MODEL_FILE_FORMAT = "nodepower-model/1"


@dataclass(frozen=True)
class PowerParams:
    """Parameter set for one model variant.

    Only the fields a variant uses may be populated; ``validate_for`` is the
    gate every prediction and serialization path goes through.
    """

    p_idle_kw: float
    beta_comp_kw: float | None = None
    beta_llm_kw: float | None = None
    beta_cnn_kw: float | None = None
    alpha: float | None = None
    x0: float | None = None
    k: float | None = None

    def validate_for(self, form: ModelForm) -> None:
        spec = FORMS[form]
        required = spec.params
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in required:
                if value is None:
                    raise ValueError(f"{form.value} model requires {f.name}")
            elif value is not None:
                raise ValueError(
                    f"{form.value} model does not use {f.name} (got {value!r})"
                )
        for name in required:
            value = getattr(self, name)
            if name not in spec.signed and not value > 0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")

    def as_dict(self) -> dict[str, float]:
        """Populated fields only, in declaration order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }


# ---------------------------------------------------------------------------
# the form table: p_idle + beta * g(x; shape) per form
# ---------------------------------------------------------------------------

K_FLOOR = 1e-3       # sigmoid steepness bound: stops collapse to a step
ALPHA_FLOOR = 1e-6   # positivity guard for the log-scale saturation constant


# Each shape g is a function of one argument w: the saturation ratio of
# alpha, the logistic of its linear predictor z. A shape function
# g(params on the user scale, x) returns g and two functions that a curve
# never calls: ``slopes()`` gives dg/dw and d2g/dw2, and ``argument()``
# gives w's derivatives in every shape parameter, {name: dw/dname} and
# {(a, b): d2w/da db} on the pairs, a before b, where they are not zero
# everywhere. The curve's derivatives follow by the chain rule
# (``ResolvedForm.derivatives``), and an optimizer map gives w's
# derivatives on its own scale in place of ``argument``'s.


def _saturation(p: Mapping[str, Any], x: np.ndarray):
    """x / (alpha + x): half of the magnitude is reached at x = alpha. The
    argument is alpha itself."""
    alpha = p["alpha"]

    def slopes():
        shift = alpha + x
        slope = -x / np.square(shift)
        return slope, -2.0 * slope / shift

    def argument():
        return {"alpha": 1.0}, {}

    return x / (alpha + x), slopes, argument


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z), the formula of scipy's ``expit``. z is first clipped
    to [-708, 708], the widest whole-number range in which e^-z is a normal
    float, so nothing overflows or underflows: beyond the clip the value is
    exactly 1 for z > 0 and stays at 1 / (1 + e^708) = 3.3e-308 for z < 0."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -708.0), 708.0)))


def _logistic_shape(p: Mapping[str, Any], x: np.ndarray):
    """logistic(z), z = (x - x0) / k: midpoint x0, steepness k."""
    x0, k = p["x0"], p["k"]
    z = (x - x0) / k
    s = _logistic(z)

    def slopes():
        slope = s * (1.0 - s)
        return slope, slope * (1.0 - 2.0 * s)

    def argument():
        # dz/dx0 = -1/k and dz/dk = -z/k; d2z/dx0 dk = 1/k^2 and d2z/dk2 =
        # 2 z/k^2
        inv = 1.0 / k
        dk = z * -inv
        return (
            {"x0": -inv, "k": dk},
            {("x0", "k"): inv * inv, ("k", "k"): dk * (-2.0 * inv)},
        )

    return s, slopes, argument


def _times(a: Any, d: Any) -> Any:
    """a * d, or a itself where d is the number 1: a derivative that is
    one everywhere costs no array operation."""
    return a if isinstance(d, float) and d == 1.0 else a * d


# start magnitudes for every start point: the measured idle and about the
# stress-ceiling span
_START_IDLE_KW = 1.8
_START_BETA_KW = 6.6


_LOG_ALPHA_STARTS = tuple({"alpha": a} for a in (1.0, 3.0, 5.0, 8.0, 12.0))


def _raw_alpha_starts(x: np.ndarray) -> list[dict[str, float]]:
    # alpha is on the raw-operations scale: start at the workloads' own
    # intensities (one per workload, however densely each was sampled)
    return [{"alpha": 10.0 ** q}
            for q in _percentiles(x, (10, 30, 50, 70, 90))]


def _percentiles(x: np.ndarray, qs: tuple[float, ...]) -> list[float]:
    """``np.percentile(x, qs)`` (its default, linear method) over ``sorted``
    values, equal bit for bit but for the sign of a zero result:
    ``np.percentile`` imports ``numpy.ma``, which a fresh process pays."""
    v = sorted(np.ravel(x).astype(float).tolist())
    out = []
    for q in qs:
        index = (len(v) - 1) * (q / 100)
        below = math.floor(index)
        a, b, g = v[below], v[min(below + 1, len(v) - 1)], index - below
        # numpy's _lerp: from the nearer end, so exact at both
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return out


_SIGMOID_STARTS = tuple(
    {"x0": m, "k": k}
    for m in (9.0, 11.0, 13.0, 15.0, 17.0) for k in (0.1, 1.0)
)


# ---------------------------------------------------------------------------
# the scales the fit iterates on
# ---------------------------------------------------------------------------

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class OptimizerMap:
    """The scale theta on which the fit iterates a form's shape parameters
    ``params`` when they are exactly the free shape parameters, and its
    map to the user scale u, on which they are reported. Each function
    takes columns, one (B, 1) array per parameter in the order of
    ``params``, and the constants that ``constants`` takes once from each
    table's intensities x (T, n), one (T, 1) or (T, n) array each, here
    taken per problem:

    * ``forward(u, c)`` gives theta, ``inverse(theta, c)`` gives u, NaN
      where theta lies outside the map's domain; c holds only the first
      ``scale_constants`` constants, the ones the map between the scales
      reads;
    * ``derivatives(u, c)``, at the point u, gives the Jacobian {a:
      dw/dtheta_a} and the second derivatives {(a, b): d2w/dtheta_a
      dtheta_b}, a before b in ``params``, of the shape's argument w (see
      ``_saturation``), on their entries that are not zero everywhere.
      Each key is the name in ``params`` of a coordinate's parameter, as
      in the shape's own ``argument()``.
    """

    params: tuple[str, ...]
    forward: Callable[[list, tuple], list]
    inverse: Callable[[list, tuple], list]
    derivatives: Callable[[list, tuple], tuple[dict, dict]]
    constants: Callable[[np.ndarray], tuple] = lambda x: ()
    scale_constants: int = 0


def _log10_map(name: str) -> OptimizerMap:
    """theta = log10(w), for a shape whose argument w is one positive
    parameter that spans decades: dw/dtheta = w ln 10, d2w/dtheta2 =
    w ln 10 ln 10."""

    def derivatives(u: list, c: tuple) -> tuple[dict, dict]:
        d = u[0] * _LN10
        return {name: d}, {(name, name): d * _LN10}

    return OptimizerMap(
        params=(name,),
        forward=lambda u, c: [np.log10(u[0])],
        inverse=lambda theta, c: [10.0 ** theta[0]],
        derivatives=derivatives,
    )


def _standardized(
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each table's mean and population SD of its intensities x (T, n),
    (T, 1) each, summed along one table's row, and its standardized
    intensities t = (x - mean) / sd, (T, n)."""
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1)[:, None] / n
    dev = x - mean
    sd = np.sqrt(np.add.reduce(dev * dev, axis=-1)[:, None] / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a table of one intensity has no scale; the fit rejects it
        return mean, sd, dev / sd


def _predictor_forward(u: list, c: tuple) -> list:
    (x0, k), (mean, sd) = u, c
    return [(mean - x0) / k, sd / k]


def _predictor_inverse(theta: list, c: tuple) -> list:
    (c0, c1), (mean, sd) = theta, c
    k = sd / c1
    k = np.where((c1 > 0.0) & (k >= K_FLOOR), k, np.nan)  # c1 <= sd/K_FLOOR
    return [mean - c0 * k, k]


# The logistic's shape in its linear predictor z = c0 + c1 t, on the
# standardized intensity t = (x - mean) / sd of the table fitted: k =
# sd / c1 and x0 = mean - c0 k. On (x0, k) a curve flat over the data lies
# at x0 -> -inf, k -> inf, a ridge a step can land on; on (c0, c1) it is
# the finite edge c1 -> 0+, and z is linear in c: dz/dc = (1, t), with no
# second derivative (Bates & Watts 1988, *Nonlinear Regression Analysis
# and Its Applications*, ch. 7; Ratkowsky 1990, *Handbook of Nonlinear
# Regression Models*). The floor k >= K_FLOOR is the bound c1 <= sd /
# K_FLOOR, and a point outside (0, sd / K_FLOOR] gets NaN parameters,
# hence NaN residuals, which the fit rejects.
_LINEAR_PREDICTOR = OptimizerMap(
    params=("x0", "k"),
    forward=_predictor_forward,
    inverse=_predictor_inverse,
    derivatives=lambda u, c: ({"x0": 1.0, "k": c[2]}, {}),
    constants=_standardized,
    scale_constants=2,
)


@dataclass(frozen=True)
class FormSpec:
    """One form, p_idle + beta * g(x; shape): its magnitudes, its shape
    function and its parameter roles. Prediction, parameter validation,
    the two-stage fit and the CLI all read ``FORMS``."""

    # beta: one parameter name, or one per architecture {arch: name}
    magnitudes: str | Mapping[str, str]
    # the shape function, g(params on the user scale, x) -> (g, slopes,
    # argument): see ``_saturation``
    g: Callable[..., tuple[Any, Callable, Callable]]
    shape: tuple[str, ...]         # g's parameters, estimated in stage 1
    stage2_free: tuple[str, ...]   # estimated in stage 2
    stage1_form: ModelForm         # the form stage 1 fits
    # the shape parameters' start points (user scale): one grid, or a
    # function of the workloads' intensities x
    shape_starts: (
        tuple[dict[str, float], ...]
        | Callable[[np.ndarray], list[dict[str, float]]]
    )
    raw_operations: bool = False   # g reads 10^x rather than x
    positive_x: bool = True        # defined for x > 0 only
    signed: tuple[str, ...] = ()   # may be zero or negative
    # the scale the fit iterates the shape on when the free shape
    # parameters are the map's; the user scale otherwise
    optimizer_map: OptimizerMap | None = None
    lower: Mapping[str, float] = field(default_factory=dict)  # user scale

    @property
    def per_arch(self) -> dict[str, str]:
        """Magnitudes that only one architecture's rows identify."""
        if isinstance(self.magnitudes, str):
            return {}
        return {name: arch for arch, name in self.magnitudes.items()}

    @property
    def betas(self) -> tuple[str, ...]:
        """The magnitude parameters."""
        return tuple(self.per_arch) or (self.magnitudes,)

    @property
    def params(self) -> tuple[str, ...]:
        """Every parameter, in reporting order."""
        return ("p_idle_kw", *self.betas, *self.shape)

    def starts(self, x: np.ndarray | None) -> list[dict[str, float]]:
        """Start points on the user scale, from the workloads' intensities
        ``x`` (one per workload), which a fixed grid ignores (``None``
        then will do)."""
        start = {"p_idle_kw": _START_IDLE_KW}
        start.update(dict.fromkeys(self.betas, _START_BETA_KW))
        grid = self.shape_starts
        return [{**start, **s} for s in (grid(x) if callable(grid) else grid)]

    def resolve(
        self,
        fixed: Mapping[str, Any],
        free: tuple[str, ...],
        x: np.ndarray,
        is_llm: Any = None,
    ) -> "ResolvedForm":
        """The form with the parameters ``free`` left free and the others
        at ``fixed``, on the T tables of ``x`` and ``is_llm``: see
        ``ResolvedForm``."""
        return ResolvedForm(self, fixed, free, x, is_llm)

    def _one_table(
        self, p: Mapping[str, Any], names: tuple[str, ...], x: Any,
        is_llm: Any,
    ) -> "ResolvedForm":
        return self.resolve(
            {n: v for n, v in p.items() if n not in names}, names,
            np.asarray(x)[None], np.asarray(is_llm)[None],
        )

    def curve(self, p: Mapping[str, Any], x: np.ndarray, is_llm: np.ndarray):
        """Power in kW from the parameters ``p`` on the user scale, log10
        intensities ``x`` and an LLM mask that broadcasts against x."""
        return self._one_table(p, (), x, is_llm).curve([], None)

    def gradient(
        self, p: Mapping[str, Any], x: np.ndarray, is_llm: np.ndarray
    ) -> dict[str, np.ndarray]:
        """{name: d curve / d p[name]}, arguments as for ``curve``."""
        return self.derivatives(p, x, is_llm)[0]

    def derivatives(
        self,
        p: Mapping[str, Any],
        x: np.ndarray,
        is_llm: np.ndarray,
        names: tuple[str, ...] | None = None,
        argument: tuple[dict, dict] | None = None,
    ) -> tuple[dict[str, Any], dict[tuple[str, str], Any]]:
        """``ResolvedForm.derivatives`` over the parameters ``names``
        (default all), keyed by name: the gradient {name: d curve /
        d p[name]} and the second derivatives {(a, b): d2 curve / d p[a]
        d p[b]}, a before b in ``params``. Arguments as for ``curve``."""
        names = self.params if names is None else tuple(names)
        J, H = self._one_table(p, names, x, is_llm).derivatives(
            [p[n] for n in names], None, argument
        )
        order = self.params.index
        return dict(zip(names, J)), {
            tuple(sorted((names[i], names[j]), key=order)): h
            for (i, j), h in H.items()
        }


def _on(mask: np.ndarray | None, values: Any) -> Any:
    """``values`` on the rows of ``mask`` and 0 on the others; every row
    where there is no mask."""
    return values if mask is None else np.where(mask, values, 0.0)


def _take(column: Any, rows: np.ndarray | None) -> Any:
    """Each problem's table of a per-table array, (B, ...): with one table,
    that table, which broadcasts."""
    return column[0] if len(column) == 1 else column[rows]


class ResolvedForm:
    """One form, p_idle + beta * g(x; shape), with the parameters ``free``
    left free and the others fixed at ``fixed``, on T tables: ``x`` (T, n)
    holds each table's log10 intensities and ``is_llm`` (T, n) its LLM
    mask, which only a form with a magnitude per architecture reads.
    Everything that no evaluation changes is taken once: the fixed values,
    the position of each free parameter, the shape's input (10^x for the
    raw-operations form) and the rows that each free magnitude scales.

    An evaluation takes the free parameters on the user scale, ``u``, one
    (B, 1) column or one number per name in ``free``, and ``rows`` (B,),
    the table of each problem; with one table every problem reads it as it
    is, broadcast. So a call is the form's arithmetic and the gathers of
    each problem's table.
    """

    def __init__(
        self,
        spec: FormSpec,
        fixed: Mapping[str, Any],
        free: tuple[str, ...],
        x: np.ndarray,
        is_llm: Any,
    ) -> None:
        self.g = spec.g
        self.free = free
        self.fixed = dict(fixed)
        position = {n: i for i, n in enumerate(free)}
        self.w = np.power(10.0, x) if spec.raw_operations else x
        self.idle = position.get("p_idle_kw")
        # the free shape parameters in the shape's order, with positions
        self.shape = tuple(
            (n, position[n]) for n in spec.shape if n in position
        )
        m = spec.magnitudes
        self.is_llm = is_llm
        if isinstance(m, str):
            self.magnitude = m
            self.betas = [(position[m], None)] if m in position else []
        else:
            # one magnitude per architecture: the LLM's and the CNN's
            self.magnitude = (m[Architecture_LLM], m[Architecture_CNN])
            # each free magnitude's position and the rows it scales
            self.betas = [
                (position[name], is_llm == (arch == Architecture_LLM))
                for name, arch in spec.per_arch.items() if name in position
            ]

    def _params(self, u: list) -> dict[str, Any]:
        p = dict(self.fixed)
        p.update(zip(self.free, u))
        return p

    def _beta(self, p: Mapping[str, Any], rows: np.ndarray | None) -> Any:
        if isinstance(self.magnitude, str):
            return p[self.magnitude]
        llm, cnn = self.magnitude
        return np.where(_take(self.is_llm, rows), p[llm], p[cnn])

    def curve(self, u: list, rows: np.ndarray | None) -> Any:
        """Power in kW."""
        p = self._params(u)
        return p["p_idle_kw"] + self._beta(p, rows) * self.g(
            p, _take(self.w, rows)
        )[0]

    def derivatives(
        self,
        u: list,
        rows: np.ndarray | None,
        argument: tuple[dict, dict] | None = None,
    ) -> tuple[list[Any], dict[tuple[int, int], Any]]:
        """The curve's gradient, one entry per free parameter in the order
        of ``free``, and its second derivatives {(i, j): d2 curve / d u_i
        d u_j}, i <= j, on the pairs of free parameters where they are not
        zero everywhere: beta d2g between shape parameters, dg between a
        magnitude and a shape parameter. Given ``argument``, the
        derivatives of the shape's argument on an optimizer map's scale, as
        its ``derivatives`` gives them ({name: dw/dname}, {(a, b):
        d2w/da db}, each name standing for its own coordinate), the shape
        parameters' derivatives are on that scale.

        By the chain rule through the argument w: beta dg/da = beta g'
        dw/da and beta d2g/da db = beta (g'' dw/da dw/db + g' d2w/da db).
        """
        p = self._params(u)
        w = _take(self.w, rows)
        g, slopes, user_argument = self.g(p, w)
        J: list[Any] = [None] * len(self.free)
        H: dict[tuple[int, int], Any] = {}
        shape = self.shape
        if shape:
            dw, d2w = argument or user_argument()
            d1, d2 = slopes()
            beta = self._beta(p, rows)
            b1, b2 = beta * d1, beta * d2
            b2w = {a: _times(b2, dw[a]) for a, _ in shape}
            for k, (a, i) in enumerate(shape):
                J[i] = _times(b1, dw[a])
                for b, j in shape[k:]:
                    h = _times(b2w[b], dw[a])
                    H[min(i, j), max(i, j)] = (
                        h + _times(b1, d2w[a, b]) if (a, b) in d2w else h
                    )
        for i, scaled in self.betas:
            mask = None if scaled is None else _take(scaled, rows)
            J[i] = _on(mask, g)
            for a, j in shape:
                # d2 curve / dbeta da = dg/da on the rows beta scales
                H[min(i, j), max(i, j)] = _on(mask, _times(d1, dw[a]))
        if self.idle is not None:
            J[self.idle] = np.ones_like(w)
        return J, H


FORMS: dict[ModelForm, FormSpec] = {
    ModelForm.SIMPLE_ASYMPTOTIC: FormSpec(
        magnitudes="beta_comp_kw",
        g=_saturation,
        shape=("alpha",),
        stage2_free=("beta_comp_kw",),
        stage1_form=ModelForm.SIMPLE_ASYMPTOTIC,
        shape_starts=_raw_alpha_starts,
        raw_operations=True,
        # alpha spans six decades: Newton steps on the raw axis are useless
        optimizer_map=_log10_map("alpha"),
    ),
    ModelForm.LOG_ASYMPTOTIC: FormSpec(
        magnitudes="beta_comp_kw",
        g=_saturation,
        shape=("alpha",),
        stage2_free=("beta_comp_kw",),
        stage1_form=ModelForm.LOG_ASYMPTOTIC,
        shape_starts=_LOG_ALPHA_STARTS,
        lower={"alpha": ALPHA_FLOOR},
    ),
    ModelForm.LOG_ASYMPTOTIC_ARCH_FE: FormSpec(
        magnitudes={
            Architecture_LLM: "beta_llm_kw", Architecture_CNN: "beta_cnn_kw",
        },
        g=_saturation,
        shape=("alpha",),
        stage2_free=("beta_llm_kw", "beta_cnn_kw"),
        # the pooled shape stage treats both architectures identically
        stage1_form=ModelForm.LOG_ASYMPTOTIC,
        shape_starts=_LOG_ALPHA_STARTS,
        lower={"alpha": ALPHA_FLOOR},
    ),
    ModelForm.SIGMOID: FormSpec(
        magnitudes="beta_comp_kw",
        g=_logistic_shape,
        shape=("x0", "k"),
        # steepness is re-estimated alongside the magnitude in stage 2
        stage2_free=("beta_comp_kw", "k"),
        stage1_form=ModelForm.SIGMOID,
        shape_starts=_SIGMOID_STARTS,
        positive_x=False,
        signed=("x0",),
        optimizer_map=_LINEAR_PREDICTOR,
        lower={"k": K_FLOOR},
    ),
}


def predict_power(
    form: ModelForm,
    params: PowerParams,
    x: float | np.ndarray,
    arch: str | None = None,
):
    """Predicted average node power in kW at log10 intensity ``x``.

    Parameters
    ----------
    form : ModelForm
    params : PowerParams
        Must be populated consistently with ``form``.
    x : float or ndarray
        log10 of effective operations per node per iteration. Asymptotic
        forms require x > 0 (intensities below one operation per node are
        outside the model's domain).
    arch : str, optional
        "llm" or "cnn"; required by the architecture-fixed-effect form and
        ignored otherwise.

    Returns
    -------
    float or ndarray, matching the shape of ``x``.
    """
    params.validate_for(form)
    spec = FORMS[form]
    if spec.per_arch and arch not in (Architecture_LLM, Architecture_CNN):
        raise ValueError(
            "the architecture-fixed-effect form needs arch='llm' or 'cnn', "
            f"got {arch!r}"
        )
    xv = np.asarray(x, dtype=float)
    if spec.positive_x and np.any(xv <= 0):
        raise ValueError(
            "asymptotic forms are defined for x > 0 "
            "(log10 intensity above one operation per node)"
        )
    out = spec.curve(params.as_dict(), xv, arch == Architecture_LLM)
    return float(out) if xv.ndim == 0 else out


def predict_energy(
    form: ModelForm,
    params: PowerParams,
    x: float,
    arch: str | None,
    nodes: int,
    duration_h: float,
) -> float:
    """Predicted IT energy in kWh: power(x) x nodes x duration."""
    if not isinstance(nodes, int) or nodes < 1:
        raise ValueError("nodes must be a positive integer")
    if not duration_h > 0:
        raise ValueError("duration_h must be positive")
    return predict_power(form, params, x, arch) * nodes * duration_h


# ---------------------------------------------------------------------------
# TDP baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TdpConfig:
    """Rated-power figures used for baseline energy estimates.

    ``chip_tdp_kw`` has no default on purpose: no per-GPU rating was published
    for the measured systems, so callers must state the value they are using
    (0.7 kW per GPU is a typical vendor board rating and is the documented
    example default in the CLI).
    """

    chip_tdp_kw: float
    node_tdp_kw: float = reference.NODE_TDP_KW
    gpus_per_node: int = reference.GPUS_PER_NODE

    def __post_init__(self) -> None:
        if not isinstance(self.gpus_per_node, int) or self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be a positive integer")
        for name in ("chip_tdp_kw", "node_tdp_kw"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} must be a positive, finite rating in kW, got "
                    f"{getattr(self, name)}"
                )
        chip_total = self.chip_tdp_kw * self.gpus_per_node
        if chip_total > self.node_tdp_kw:
            raise ValueError(
                f"chip_tdp_kw*gpus_per_node = {chip_total:g} kW must be "
                f"at most node_tdp_kw = {self.node_tdp_kw:g} kW"
            )


def tdp_bounds(
    tdp: TdpConfig, nodes: int, duration_h: float
) -> tuple[float, float]:
    """Chip- and node-rating energy estimates in kWh.

    The chip figure (GPU count x chip rating x hours) ignores everything
    outside the accelerators and acts as the lower rated-power bound; the
    node figure uses the full node rating and acts as the upper one.
    """
    if not isinstance(nodes, int) or nodes < 1:
        raise ValueError("nodes must be a positive integer")
    if duration_h < 0:
        raise ValueError("duration_h must be non-negative")
    chip = tdp.chip_tdp_kw * tdp.gpus_per_node * nodes * duration_h
    node = tdp.node_tdp_kw * nodes * duration_h
    return chip, node


# ---------------------------------------------------------------------------
# fitted-model files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FittedModel:
    """A model variant plus parameters, uncertainty, and provenance.

    ``provenance`` carries at least: how the parameters came to be ("preset"
    or "fit"), the training workload ids, and the exclusions applied; fits
    add the dataset hash and a timestamp.
    """

    form: ModelForm
    params: PowerParams
    robust_se: Mapping[str, float] = field(default_factory=dict)
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def power_kw(self, x: float, arch: str | None = None) -> float:
        return predict_power(self.form, self.params, x, arch)

    def energy_kwh(
        self, x: float, arch: str | None, nodes: int, duration_h: float
    ) -> float:
        return predict_energy(
            self.form, self.params, x, arch, nodes, duration_h
        )


def _model_document(model: FittedModel) -> dict[str, Any]:
    model.params.validate_for(model.form)
    return {
        "format": MODEL_FILE_FORMAT,
        "variant": model.form.value,
        "params": model.params.as_dict(),
        "robust_se": dict(model.robust_se),
        "provenance": dict(model.provenance),
    }


def save_model(model: FittedModel, path_or_stream: str | Path | IO[str]) -> None:
    """Write a fitted model as JSON.

    Parameters round-trip bit-exactly: floats are serialized with Python's
    shortest-exact decimal representation. Keys are sorted so identical
    models produce identical bytes.
    """
    write_json(path_or_stream, _model_document(model))


def load_model(path_or_stream: str | Path | IO[str]) -> FittedModel:
    """Read a fitted-model JSON file written by save_model; ``ConfigError``
    if it cannot be read, is not JSON or does not hold a valid model."""
    text = read_text(path_or_stream, ConfigError, "model file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path_or_stream}: not JSON ({exc})") from exc
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != MODEL_FILE_FORMAT:
        raise ConfigError(
            f"{path_or_stream}: not a recognized model file "
            f"(format={found!r})"
        )
    try:
        form = ModelForm.from_string(doc.get("variant"))
        params = PowerParams(**doc.get("params", {}))
        params.validate_for(form)
        robust_se, provenance = (
            dict(doc.get(key, {})) for key in ("robust_se", "provenance")
        )
    except (TypeError, ValueError) as exc:
        # TypeError: an unknown parameter, or a value of the wrong JSON type
        raise ConfigError(f"{path_or_stream}: invalid model ({exc})") from exc
    return FittedModel(form, params, robust_se, provenance)


# ---------------------------------------------------------------------------
# calibrated presets
# ---------------------------------------------------------------------------

def _preset_provenance(name: str) -> dict[str, Any]:
    excluded = {wid for wid, _ in reference.DEFAULT_EXCLUSIONS}
    training = [
        row.workload_id
        for row in reference.REFERENCE_WORKLOADS
        if row.workload_id not in excluded
    ]
    return {
        "kind": "preset",
        "name": name,
        "training_workload_ids": training,
        "exclusions": [list(pair) for pair in reference.DEFAULT_EXCLUSIONS],
        "note": (
            "published coefficients from the calibration study; magnitudes "
            "refit at idle 1.86 kW with the shape pinned from the "
            "constrained stage"
        ),
    }


def _build_presets() -> dict[str, FittedModel]:
    # the names are those of reference.PRESET_NAMES, which the CLI offers
    # without loading this module; the unpacking raises if a preset is
    # added or removed there and not here
    asymptotic, arch_fe, sigmoid, post_exclusion = reference.PRESET_NAMES
    presets: dict[str, FittedModel] = {}
    presets[asymptotic] = FittedModel(
        form=ModelForm.LOG_ASYMPTOTIC,
        params=PowerParams(
            p_idle_kw=reference.FINAL_IDLE_KW,
            beta_comp_kw=reference.BETA_SINGLE_KW,
            alpha=reference.ALPHA_POST_EXCLUSION,
        ),
        robust_se={"beta_comp_kw": 0.35},
        provenance=_preset_provenance(asymptotic),
    )
    presets[arch_fe] = FittedModel(
        form=ModelForm.LOG_ASYMPTOTIC_ARCH_FE,
        params=PowerParams(
            p_idle_kw=reference.FINAL_IDLE_KW,
            beta_llm_kw=reference.BETA_LLM_KW,
            beta_cnn_kw=reference.BETA_CNN_KW,
            alpha=reference.ALPHA_POST_EXCLUSION,
        ),
        robust_se={"beta_llm_kw": 0.50, "beta_cnn_kw": 0.32},
        provenance=_preset_provenance(arch_fe),
    )
    presets[sigmoid] = FittedModel(
        form=ModelForm.SIGMOID,
        params=PowerParams(
            p_idle_kw=reference.FINAL_IDLE_KW,
            beta_comp_kw=reference.SIGMOID_BETA_KW,
            x0=reference.SIGMOID_X0_FULL_DATA,
            k=reference.SIGMOID_K_REFIT,
        ),
        robust_se={"beta_comp_kw": 1.33, "k": 0.16},
        provenance=_preset_provenance(sigmoid),
    )
    # the published record is ambiguous about which sigmoid midpoint the
    # final magnitudes were paired with; both candidates ship
    post = replace(
        presets[sigmoid].params, x0=reference.SIGMOID_X0_POST_EXCLUSION
    )
    presets[post_exclusion] = FittedModel(
        form=ModelForm.SIGMOID,
        params=post,
        robust_se=dict(presets[sigmoid].robust_se),
        provenance=_preset_provenance(post_exclusion),
    )
    return presets


_PRESETS = _build_presets()


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset(name: str) -> FittedModel:
    """Return a shipped calibrated model by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None
