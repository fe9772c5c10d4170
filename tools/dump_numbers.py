"""Print every number the calibration produces, for a bit-identity check.

    PYTHONPATH=src python3 tools/dump_numbers.py MANIFEST EXCLUSIONS

Run it with a checkout's ``src`` on ``PYTHONPATH``, once per checkout, and
compare the two outputs: they are equal exactly when every number is equal
to the last bit. MANIFEST and EXCLUSIONS are a manifest and an exclusion
policy, the bundled desk set's (``nodepower.data``) or a set written by
``bench/gen.py``. The output is JSON, with every float as ``float.hex``:

* each form's ``two_stage_fit``, with and without the exclusions: the
  estimates, robust SEs, t and p values, weighted SSE and covariance of
  both stages;
* ``loocv`` of the ``asymptotic``, ``sigmoid`` and ``simple`` forms on the
  table with and without the exclusions: every holdout's estimates, their
  mean, SD and coefficient of variation, and the flags;
* three ``wnls_fit`` stages from start points, on the table with and
  without the exclusions: ``asymptotic``'s (beta_comp_kw, alpha) jointly
  from the default starts, idle fixed at 1.8 kW; ``arch-fe``'s
  (beta_llm_kw, alpha) jointly from the default starts, idle fixed at
  the stage-2 value (``FitConfig().stage2_p_idle_kw``) and beta_cnn_kw at
  ``reference.BETA_CNN_KW``; and ``simple``'s alpha at the stage-1
  anchors from the starts 10^x at the 10th, 30th, 50th, 70th and 90th
  percentiles of the table's intensities x.

A fit or scan that raises prints as its error type and message.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
import warnings

import numpy as np

from nodepower import ingest
from nodepower.fit import (
    FitConfig, apply_exclusions, loocv, two_stage_fit, wnls_fit,
)
from nodepower.model import ModelForm
from nodepower.reference import BETA_CNN_KW

LOOCV_FORMS = (
    ModelForm.LOG_ASYMPTOTIC, ModelForm.SIGMOID, ModelForm.SIMPLE_ASYMPTOTIC,
)


def _hex(value: object) -> object:
    """``value`` with every float as ``float.hex``, dataclasses as dicts of
    their fields and enums as their values."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {
            f.name: _hex(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    raise TypeError(f"cannot dump {type(value).__name__}")


def _run(call, *args, **kwargs) -> object:
    try:
        return _hex(call(*args, **kwargs))
    except Exception as error:  # noqa: BLE001 - an error is a result here
        return f"{type(error).__name__}: {error}"


def _loocv(table, policy, form) -> object:
    return loocv(apply_exclusions(table, policy), form)


def _wnls_fits(table) -> dict:
    """The three stage fits from start points that no two-stage fit runs."""
    config = FitConfig()
    idle = {"p_idle_kw": config.stage1_p_idle_kw}
    q = np.percentile(table.x, (10, 30, 50, 70, 90))
    return {
        ModelForm.LOG_ASYMPTOTIC.value: _run(
            wnls_fit, table, ModelForm.LOG_ASYMPTOTIC, idle,
            ("beta_comp_kw", "alpha"),
        ),
        ModelForm.LOG_ASYMPTOTIC_ARCH_FE.value: _run(
            wnls_fit, table, ModelForm.LOG_ASYMPTOTIC_ARCH_FE,
            {"p_idle_kw": config.stage2_p_idle_kw, "beta_cnn_kw": BETA_CNN_KW},
            ("beta_llm_kw", "alpha"),
        ),
        ModelForm.SIMPLE_ASYMPTOTIC.value: _run(
            wnls_fit, table, ModelForm.SIMPLE_ASYMPTOTIC,
            {**idle, "beta_comp_kw": config.stage1_beta_kw}, ("alpha",),
            starts=[{"alpha": 10.0 ** v} for v in q],
        ),
    }


def dump(manifest: str, exclusions: str) -> dict:
    with warnings.catch_warnings():
        # a workload's operation count may disagree with its recorded
        # reference; the warning is not a number
        warnings.simplefilter("ignore")
        _, table = ingest.load_and_assemble(manifest)
    out: dict = {"two_stage_fit": {}, "loocv": {}, "wnls_fit": {}}
    for label, policy in (
        ("all", ()), ("excluded", ingest.load_exclusions(exclusions)),
    ):
        config = FitConfig(exclusions=policy)
        out["two_stage_fit"][label] = {
            form.value: _run(two_stage_fit, table, form, config)
            for form in ModelForm
        }
        out["loocv"][label] = {
            form.value: _run(_loocv, table, policy, form)
            for form in LOOCV_FORMS
        }
        out["wnls_fit"][label] = _wnls_fits(apply_exclusions(table, policy))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(dump(*argv), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
