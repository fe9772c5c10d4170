"""Run the full calibration pipeline on the bundled trace dataset.

Two-stage weighted fit with cluster-robust inference, then the
leave-one-workload-out stability scan. The bundled traces are
synthesized from published per-run summaries (mean, SD, max), so the
point estimates land near the published coefficients but the raw-trace
numbers are not bit-reproducible from here; treat this as a worked
example of the pipeline, not a re-measurement.
"""

import warnings

from nodepower import FitConfig, ModelForm, load_and_assemble, loocv, two_stage_fit
from nodepower.data import desk_exclusions, desk_manifest
from nodepower.ingest import load_exclusions


def show(result):
    print(f"form: {result.form.value}, clusters: {result.clusters}, "
          f"observations: {result.observations}")
    for name, value in result.fixed.items():
        print(f"  {name:14s} {value:10.4f}  [pinned]")
    for name in result.param_order:
        print(f"  {name:14s} {result.estimates[name]:10.4f}"
              f"  (robust SE {result.robust_se[name]:.4f},"
              f" p {result.p_value[name]:.2e})")


def main():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the known 13B flops mismatch
        _, dataset = load_and_assemble(desk_manifest())

    policy = load_exclusions(desk_exclusions())
    print(f"dataset: {len(dataset.workloads())} workloads, "
          f"{dataset.n_observations} samples, "
          f"sha256 {dataset.sha256()[:12]}…")
    print(f"exclusions on file: {policy}")
    print()

    for form in (ModelForm.LOG_ASYMPTOTIC, ModelForm.LOG_ASYMPTOTIC_ARCH_FE):
        show(two_stage_fit(dataset, form, FitConfig(exclusions=policy)))
        print()

    print("stability: hold out each workload, refit the shape stage")
    report = loocv(dataset, ModelForm.LOG_ASYMPTOTIC)
    for name in report.parameters:
        print(f"  {name}: mean {report.mean[name]:.3f}, "
              f"CoV {report.cov_percent[name]:.1f}%, "
              f"most divergent holdout {report.most_divergent[name]}")


if __name__ == "__main__":
    main()
