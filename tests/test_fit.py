"""Estimation core: closed-form oracles, sandwich oracle, recovery, LOOCV.

The oracles here are deliberately independent implementations: the weighted
least-squares estimates are checked against their closed forms (the
magnitude stages are linear given a fixed shape), and the cluster-robust
covariance against an explicit dense-matrix construction.
"""

from __future__ import annotations

import hashlib
import itertools
import subprocess
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, stdtr, stdtrit

import nodepower
import nodepower.fit as fitmod
from nodepower import ingest, model, synthetic
from nodepower.data import desk_dir, desk_manifest
from nodepower.fit import (
    DegenerateDataError,
    FitConfig,
    NonConvergenceError,
    UnknownWorkloadError,
    apply_exclusions,
    cluster_robust_covariance,
    loocv,
    to_fitted_model,
    two_stage_fit,
    wnls_fit,
)
from nodepower.flops import FlopsMismatchWarning
from nodepower.ingest import RegressionDataset
from nodepower.model import FORMS, ModelForm
from nodepower.reference import Architecture_CNN, Architecture_LLM


@dataclass(frozen=True)
class Rows:
    """Per-observation columns, one row per power sample: the definition
    the grouped estimator reproduces, kept next to the workload table built
    from them."""

    workload_ids: np.ndarray
    node_ids: np.ndarray
    power_kw: np.ndarray
    x: np.ndarray
    arch: np.ndarray

    @classmethod
    def of_records(cls, records, prefix=""):
        """The rows of compute-tagged records in assembly order: each
        trace's samples, its interconnect share added."""
        parts = []
        for r in records:
            increment = ingest.allocate_interconnect(r)
            for t in r.traces:
                n = t.power_kw.size
                parts.append((
                    np.full(n, prefix + r.workload_id), np.full(n, t.node_id),
                    t.power_kw + increment,
                    np.full(n, r.compute.log_intensity),
                    np.full(n, r.architecture),
                ))
        return cls(*(np.concatenate(c) for c in zip(*parts)))

    @property
    def table(self):
        return RegressionDataset(
            workload_ids=self.workload_ids, node_ids=self.node_ids,
            power_kw=self.power_kw, x=self.x, arch=self.arch,
        )

    def cluster_index(self):
        """Observation indices per workload, in first-appearance order."""
        return {
            wid: np.flatnonzero(self.workload_ids == wid)
            for wid in dict.fromkeys(self.workload_ids.tolist())
        }

    def weights(self):
        """Per-observation weights 1/n_workload; each workload sums to one."""
        w = np.empty(len(self.power_kw))
        for idx in self.cluster_index().values():
            w[idx] = 1.0 / idx.size
        return w

    def sums(self):
        """Per-workload count, mean power and within-workload sum of
        squares, in first-appearance order: each one bincount over the rows
        in row order."""
        rank = {wid: g for g, wid in enumerate(self.cluster_index())}
        group = np.array([rank[w] for w in self.workload_ids.tolist()])
        n = np.bincount(group)
        mean = np.bincount(group, weights=self.power_kw) / n
        dev = self.power_kw - mean[group]
        return n, mean, np.bincount(group, weights=dev * dev)

    def sha256(self):
        """The dataset hash from whole columns: the row count, each text
        column as UCS-4 at its longest value's width, then power and x as
        little-endian float64."""
        h = hashlib.sha256(
            f"nodepower-dataset/2 {len(self.power_kw)}\n".encode()
        )
        for text in (self.workload_ids, self.node_ids, self.arch):
            width = max(int(np.char.str_len(text).max(initial=0)), 1)
            h.update(f"{width}\n".encode())
            h.update(text.astype(f"<U{width}").tobytes())
        for number in (self.power_kw, self.x):
            h.update(number.astype("<f8").tobytes())
        return h.hexdigest()


def make_rows(groups):
    """groups: list of (workload_id, x, arch, [powers])."""
    wids, nids, power, xs, archs = [], [], [], [], []
    for wid, x, arch, powers in groups:
        for i, p in enumerate(powers):
            wids.append(wid)
            nids.append(f"{wid}-n{i}")
            power.append(p)
            xs.append(x)
            archs.append(arch)
    return Rows(
        workload_ids=np.array(wids),
        node_ids=np.array(nids),
        power_kw=np.array(power, dtype=float),
        x=np.array(xs, dtype=float),
        arch=np.array(archs),
    )


def make_dataset(groups):
    return make_rows(groups).table


def asym(x, p_idle, beta, alpha):
    return p_idle + beta * x / (alpha + x)


# reference intensities: roughly the span of the measured campaign
XS = [11.5, 12.5, 13.5, 15.4, 16.3, 16.5, 17.0]


def noise_free_rows(p_idle=1.8, beta=6.6, alpha=5.0, n_per=4):
    groups = []
    for j, x in enumerate(XS):
        arch = Architecture_LLM if j % 2 == 0 else Architecture_CNN
        y = asym(x, p_idle, beta, alpha)
        groups.append((f"w{j}", x, arch, [y] * n_per))
    return make_rows(groups)


def noise_free_dataset(**kwargs):
    return noise_free_rows(**kwargs).table


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class TestWeights:
    def test_each_workload_sums_to_one(self):
        rows = make_rows([
            ("a", 12.0, Architecture_LLM, [5.0] * 7),
            ("b", 14.0, Architecture_CNN, [6.0] * 3),
        ])
        w = rows.weights()
        idx = rows.cluster_index()
        assert w[idx["a"]].sum() == pytest.approx(1.0, rel=1e-15)
        assert w[idx["b"]].sum() == pytest.approx(1.0, rel=1e-15)
        assert np.all(w[idx["a"]] == 1.0 / 7)


# ---------------------------------------------------------------------------
# closed-form oracle for the linear magnitude stage
# ---------------------------------------------------------------------------

class TestMagnitudeClosedForm:
    def test_single_beta_matches_weighted_projection(self):
        rng = np.random.default_rng(7)
        groups = [
            (f"w{j}", x, Architecture_LLM,
             list(asym(x, 1.86, 6.6, 5.0) + rng.normal(0, 0.4, size=5)))
            for j, x in enumerate(XS)
        ]
        ds = make_rows(groups)
        alpha = 5.0
        result = wnls_fit(
            ds.table, ModelForm.LOG_ASYMPTOTIC,
            fixed_params={"p_idle_kw": 1.86, "alpha": alpha},
            free_params=["beta_comp_kw"],
        )
        w = ds.weights()
        g = ds.x / (alpha + ds.x)
        want = np.sum(w * g * (ds.power_kw - 1.86)) / np.sum(w * g * g)
        assert result.estimates["beta_comp_kw"] == pytest.approx(
            want, abs=1e-10
        )

    def test_arch_fe_betas_match_per_architecture_projections(self):
        rng = np.random.default_rng(11)
        groups = []
        for j, x in enumerate(XS):
            arch = Architecture_LLM if j % 2 == 0 else Architecture_CNN
            beta = 7.0 if arch == Architecture_LLM else 6.2
            y = asym(x, 1.86, beta, 5.0) + rng.normal(0, 0.3, size=4)
            groups.append((f"w{j}", x, arch, list(y)))
        ds = make_rows(groups)
        result = wnls_fit(
            ds.table, ModelForm.LOG_ASYMPTOTIC_ARCH_FE,
            fixed_params={"p_idle_kw": 1.86, "alpha": 5.0},
            free_params=["beta_llm_kw", "beta_cnn_kw"],
        )
        w = ds.weights()
        g = ds.x / (5.0 + ds.x)
        for name, arch in (
            ("beta_llm_kw", Architecture_LLM),
            ("beta_cnn_kw", Architecture_CNN),
        ):
            mask = ds.arch == arch
            want = (
                np.sum(w[mask] * g[mask] * (ds.power_kw[mask] - 1.86))
                / np.sum(w[mask] * g[mask] ** 2)
            )
            assert result.estimates[name] == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------

class TestPreconditions:
    def test_needs_two_distinct_intensities(self):
        ds = make_dataset([
            ("a", 13.0, Architecture_LLM, [5.0, 5.5]),
            ("b", 13.0, Architecture_LLM, [6.0]),
        ])
        with pytest.raises(DegenerateDataError):
            wnls_fit(
                ds, ModelForm.LOG_ASYMPTOTIC,
                fixed_params={"p_idle_kw": 1.8, "beta_comp_kw": 6.6},
                free_params=["alpha"],
            )

    @pytest.mark.parametrize("x", [
        [], [1.0], [1.0, 1.0], [1.0, 2.0], [0.0, -0.0], [np.nan, np.nan],
        [np.nan, 1.0], [1.0, np.nan, 1.0], [np.inf, np.inf], [np.inf, -np.inf],
    ], ids=str)
    def test_distinct_intensities_counted_as_np_unique_counts(self, x):
        x = np.array(x, dtype=float)
        spec = FORMS[ModelForm.LOG_ASYMPTOTIC]
        arch = np.full(x.shape, Architecture_LLM)
        if np.unique(x).size < 2:
            with pytest.raises(DegenerateDataError, match="two distinct"):
                fitmod._check_identified(spec, ("alpha",), x, arch)
        else:
            fitmod._check_identified(spec, ("alpha",), x, arch)

    def test_tables_checked_together_as_one_at_a_time(self):
        # one table per row: the error is that of the first table that
        # fails alone, its intensities checked before its architectures
        spec = FORMS[ModelForm.LOG_ASYMPTOTIC_ARCH_FE]
        free = ("beta_llm_kw", "beta_cnn_kw")
        llm, cnn = Architecture_LLM, Architecture_CNN
        x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        arch = np.array([[llm, cnn, llm], [llm, llm, llm], [cnn, cnn, cnn]])
        fitmod._check_identified(spec, free, x[[0, 0]], arch[[0, 0]])
        for order in itertools.permutations(range(3)):
            for t in order:
                try:
                    fitmod._check_identified(spec, free, x[t], arch[t])
                except DegenerateDataError as exc:
                    want = str(exc)
                    break
            rows = list(order)
            with pytest.raises(DegenerateDataError) as got:
                fitmod._check_identified(spec, free, x[rows], arch[rows])
            assert str(got.value) == want, order

    def test_at_most_two_free_parameters(self):
        ds = noise_free_dataset()
        with pytest.raises(ValueError):
            wnls_fit(
                ds, ModelForm.LOG_ASYMPTOTIC,
                fixed_params={},
                free_params=["p_idle_kw", "beta_comp_kw", "alpha"],
            )

    def test_arch_magnitude_needs_that_architecture(self):
        ds = make_dataset([
            (f"w{j}", x, Architecture_LLM, [asym(x, 1.8, 6.6, 5.0)] * 3)
            for j, x in enumerate(XS)
        ])
        with pytest.raises(DegenerateDataError):
            wnls_fit(
                ds, ModelForm.LOG_ASYMPTOTIC_ARCH_FE,
                fixed_params={"p_idle_kw": 1.86, "alpha": 5.0},
                free_params=["beta_llm_kw", "beta_cnn_kw"],
            )

    @pytest.mark.parametrize("column", ["x", "arch"])
    def test_workload_must_have_one_intensity_and_architecture(self, column):
        ds = noise_free_rows()
        values = getattr(ds, column).copy()
        values[np.flatnonzero(ds.workload_ids == "w3")[-1]] = values[0]
        # the table of malformed rows names the workload
        bad = replace(ds, **{column: values})
        with pytest.raises(ValueError, match="'w3'"):
            two_stage_fit(bad.table, ModelForm.LOG_ASYMPTOTIC)

    def test_unknown_parameter_name(self):
        ds = noise_free_dataset()
        with pytest.raises(ValueError):
            wnls_fit(
                ds, ModelForm.LOG_ASYMPTOTIC,
                fixed_params={"p_idle_kw": 1.8, "beta_comp_kw": 6.6},
                free_params=["x0"],
            )


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

class TestWeighting:
    def test_duplicating_a_workloads_rows_changes_nothing(self):
        # per-observation weight 1/n means a workload's influence does not
        # grow with its sampling density
        rng = np.random.default_rng(3)
        groups = [
            (f"w{j}", x, Architecture_LLM,
             list(asym(x, 1.8, 6.6, 5.0) + rng.normal(0, 0.2, size=3)))
            for j, x in enumerate(XS)
        ]
        ds = make_dataset(groups)
        doubled = make_dataset(
            [(wid, x, a, powers * 2) for wid, x, a, powers in groups]
        )
        r1 = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC)
        r2 = two_stage_fit(doubled, ModelForm.LOG_ASYMPTOTIC)
        assert r1.stage1.estimates["alpha"] == pytest.approx(
            r2.stage1.estimates["alpha"], abs=1e-9
        )
        assert r1.estimates["beta_comp_kw"] == pytest.approx(
            r2.estimates["beta_comp_kw"], abs=1e-9
        )

    def test_estimates_bit_identical_with_and_without_se(self):
        rng = np.random.default_rng(5)
        groups = [
            (f"w{j}", x, Architecture_LLM,
             list(asym(x, 1.8, 6.6, 5.0) + rng.normal(0, 0.2, size=4)))
            for j, x in enumerate(XS)
        ]
        ds = make_dataset(groups)
        with_se = two_stage_fit(
            ds, ModelForm.LOG_ASYMPTOTIC, FitConfig(compute_se=True)
        )
        without = two_stage_fit(
            ds, ModelForm.LOG_ASYMPTOTIC, FitConfig(compute_se=False)
        )
        assert (
            with_se.estimates["beta_comp_kw"]
            == without.estimates["beta_comp_kw"]
        )
        assert (
            with_se.stage1.estimates["alpha"]
            == without.stage1.estimates["alpha"]
        )
        assert without.robust_se == {}
        assert with_se.robust_se["beta_comp_kw"] > 0


# ---------------------------------------------------------------------------
# the sandwich, against an explicit-matrix oracle
# ---------------------------------------------------------------------------

def sandwich_oracle(J, e, w, ids):
    """Dense textbook construction, no shortcuts shared with the library."""
    J = np.asarray(J, dtype=float)
    if J.ndim == 1:
        J = J[:, None]
    W = np.diag(w)
    A_inv = np.linalg.inv(J.T @ W @ J)
    labels = list(dict.fromkeys(ids))
    meat = np.zeros((J.shape[1], J.shape[1]))
    for lab in labels:
        sel = np.array([i == lab for i in ids])
        Jg = J[sel]
        Wg = np.diag(w[sel])
        sg = Jg.T @ Wg @ e[sel]
        meat += np.outer(sg, sg)
    G = len(labels)
    return A_inv @ meat @ A_inv * (G / (G - 1))


def cluster_loop_covariance(J, e, w, ids):
    """The sandwich with one score per cluster from a loop over the
    labels, as the library built it before its scores were vectorized:
    the bit-level oracle on one row per cluster."""
    labels = list(dict.fromkeys(ids.tolist()))
    bread_inv = np.linalg.inv(J.T @ (J * w[:, None]))
    meat = np.zeros((J.shape[1], J.shape[1]))
    for label in labels:
        g = ids == label
        score = J[g].T @ (w[g] * e[g])
        meat += np.outer(score, score)
    G = len(labels)
    return bread_inv @ meat @ bread_inv * (G / (G - 1.0))


def hot_workload_dataset():
    """Seven workloads on the asymptotic curve, noise-free, and an eighth
    1.5 kW above it."""
    groups = [
        (f"w{j}", x, Architecture_LLM, [asym(x, 1.8, 6.6, 5.0)] * 3)
        for j, x in enumerate(XS)
    ]
    groups.append(
        ("hot", 12.0, Architecture_LLM,
         [asym(12.0, 1.8, 6.6, 5.0) + 1.5] * 3)
    )
    return make_dataset(groups)


def arch_fe_dataset(workloads):
    """``workloads`` workloads of both architectures, 5 to 29 samples each,
    around the arch-fe curve with a magnitude per architecture (the
    benchmark generator's truth), seeded by their count."""
    rng = np.random.default_rng(workloads)
    groups = []
    for j in range(workloads):
        arch = Architecture_LLM if j % 2 else Architecture_CNN
        x = float(rng.uniform(11.5, 17.0))
        beta = 6.89 if arch == Architecture_LLM else 4.0
        y = asym(x, 1.86, beta, 5.11) + rng.normal(
            0.0, 0.35, size=int(rng.integers(5, 30))
        )
        groups.append((f"w{j:02d}", x, arch, list(y)))
    return make_dataset(groups)


class TestSandwich:
    @pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
    @pytest.mark.parametrize("data", ["desk", "sixty"])
    def test_fit_path_bit_identical_to_the_cluster_loop(
        self, form, data, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        config = FitConfig()
        table = arch_fe_dataset(60)
        if data == "desk":
            config = FitConfig(exclusions=desk_exclusion_policy)
            table = desk_dataset
        calls = []

        def spy(*args):
            calls.append((cluster_robust_covariance(*args), args))
            return calls[-1][0]

        monkeypatch.setattr(fitmod, "cluster_robust_covariance", spy)
        res = two_stage_fit(table, form, config)
        assert len(calls) == 2  # stage 1 and stage 2
        for got, args in calls:
            assert np.array_equal(got, cluster_loop_covariance(*args))
        assert res.covariance == tuple(map(tuple, calls[-1][0].tolist()))

    def test_matches_oracle_on_randomized_instances(self):
        rng = np.random.default_rng(42)
        for case in range(100):
            G = rng.integers(2, 6)
            n = int(rng.integers(G, 51))
            p = int(rng.integers(1, 3))
            ids = np.array(
                [f"c{i}" for i in np.sort(rng.integers(0, G, size=n))]
            )
            # ensure every cluster label appears
            ids[:G] = [f"c{i}" for i in range(G)]
            J = rng.normal(size=(n, p))
            e = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            got = cluster_robust_covariance(J, e, w, ids)
            want = sandwich_oracle(J, e, w, list(ids))
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_single_cluster_rejected(self):
        J = np.ones((4, 1))
        with pytest.raises(DegenerateDataError):
            cluster_robust_covariance(
                J, np.ones(4), np.ones(4), np.array(["a"] * 4)
            )

    def test_unidentified_parameters_rejected(self):
        J = np.zeros((4, 1))
        ids = np.array(["a", "a", "b", "b"])
        with pytest.raises(DegenerateDataError):
            cluster_robust_covariance(J, np.ones(4), np.ones(4), ids)

    def test_known_two_cluster_hand_case(self):
        # one parameter, J = 1, weights 1: A = n, s_g = sum of cluster
        # residuals, V = (s1^2 + s2^2) / n^2 * 2
        J = np.ones((4, 1))
        e = np.array([1.0, -0.5, 0.25, 0.75])
        w = np.ones(4)
        ids = np.array(["a", "a", "b", "b"])
        s_a, s_b = 0.5, 1.0
        want = (s_a**2 + s_b**2) / 16.0 * 2.0
        got = cluster_robust_covariance(J, e, w, ids)
        assert got[0, 0] == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# exclusions
# ---------------------------------------------------------------------------

class TestExclusions:
    def test_drop_by_policy(self):
        ds = noise_free_dataset()
        out = apply_exclusions(ds, [("w0", "outlier")])
        assert "w0" not in out.workloads()
        assert len(out.workloads()) == len(XS) - 1

    def test_unknown_workload_is_an_error(self):
        ds = noise_free_dataset()
        with pytest.raises(UnknownWorkloadError):
            apply_exclusions(ds, [("missing", "outlier")])

    def test_unknown_reason_is_an_error(self):
        ds = noise_free_dataset()
        with pytest.raises(ValueError):
            apply_exclusions(ds, [("w0", "whim")])

    def test_empty_policy_is_identity(self):
        ds = noise_free_dataset()
        assert apply_exclusions(ds, []) is ds


# ---------------------------------------------------------------------------
# two-stage recovery
# ---------------------------------------------------------------------------

# stage-2 idle pinned to the same value the data was generated with, so
# exact recovery is well-defined for the constrained estimator
RECOVERY_CONFIG = FitConfig(stage2_p_idle_kw=1.8)


class TestNoiseFreeRecovery:
    def test_log_asymptotic(self):
        ds = noise_free_dataset(p_idle=1.8, beta=6.6, alpha=5.0)
        res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC, RECOVERY_CONFIG)
        assert res.stage1.estimates["alpha"] == pytest.approx(5.0, rel=1e-6)
        assert res.estimates["beta_comp_kw"] == pytest.approx(6.6, rel=1e-6)

    def test_simple_asymptotic(self):
        truth_alpha = 3.0e15
        groups = []
        for j, x in enumerate(XS):
            r = 10.0 ** x
            y = 1.8 + 6.6 * r / (truth_alpha + r)
            groups.append((f"w{j}", x, Architecture_LLM, [y] * 3))
        ds = make_dataset(groups)
        res = two_stage_fit(ds, ModelForm.SIMPLE_ASYMPTOTIC, RECOVERY_CONFIG)
        assert res.stage1.estimates["alpha"] == pytest.approx(
            truth_alpha, rel=1e-6
        )
        assert res.estimates["beta_comp_kw"] == pytest.approx(6.6, rel=1e-6)

    def test_sigmoid(self):
        groups = []
        for j, x in enumerate(XS):
            y = 1.8 + 6.6 * expit((x - 13.8) / 1.3)
            groups.append((f"w{j}", x, Architecture_LLM, [y] * 3))
        ds = make_dataset(groups)
        res = two_stage_fit(ds, ModelForm.SIGMOID, RECOVERY_CONFIG)
        assert res.stage1.estimates["x0"] == pytest.approx(13.8, rel=1e-6)
        assert res.stage1.estimates["k"] == pytest.approx(1.3, rel=1e-6)
        assert res.estimates["beta_comp_kw"] == pytest.approx(6.6, rel=1e-6)
        assert res.estimates["k"] == pytest.approx(1.3, rel=1e-6)

    def test_arch_fe_with_shared_magnitude(self):
        ds = noise_free_dataset(p_idle=1.8, beta=6.6, alpha=5.0)
        res = two_stage_fit(
            ds, ModelForm.LOG_ASYMPTOTIC_ARCH_FE, RECOVERY_CONFIG
        )
        assert res.stage1.estimates["alpha"] == pytest.approx(5.0, rel=1e-6)
        assert res.estimates["beta_llm_kw"] == pytest.approx(6.6, rel=1e-6)
        assert res.estimates["beta_cnn_kw"] == pytest.approx(6.6, rel=1e-6)

    def test_arch_fe_with_distinct_magnitudes_via_override(self):
        groups = []
        for j, x in enumerate(XS):
            arch = Architecture_LLM if j % 2 == 0 else Architecture_CNN
            beta = 7.0 if arch == Architecture_LLM else 6.2
            groups.append(
                (f"w{j}", x, arch, [asym(x, 1.8, beta, 5.0)] * 3)
            )
        ds = make_dataset(groups)
        config = FitConfig(
            stage2_p_idle_kw=1.8, shape_override={"alpha": 5.0}
        )
        res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC_ARCH_FE, config)
        assert res.stage1 is None
        assert res.estimates["beta_llm_kw"] == pytest.approx(7.0, rel=1e-6)
        assert res.estimates["beta_cnn_kw"] == pytest.approx(6.2, rel=1e-6)


class TestTwoStageStructure:
    def test_stage1_attached_and_constraints_recorded(self):
        ds = noise_free_dataset()
        res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC)
        assert res.stage1 is not None
        assert res.stage1.fixed["p_idle_kw"] == 1.8
        assert res.stage1.fixed["beta_comp_kw"] == pytest.approx(6.6)
        assert res.fixed["p_idle_kw"] == 1.86
        assert res.fixed["alpha"] == res.stage1.estimates["alpha"]

    def test_default_stage1_magnitude_is_burn_minus_idle(self):
        config = FitConfig()
        assert config.stage1_beta_kw == pytest.approx(8.4 - 1.8, rel=1e-15)

    def test_sigmoid_steepness_freed_in_stage_two(self):
        groups = [
            (f"w{j}", x, Architecture_LLM,
             [1.8 + 6.6 * expit((x - 13.8) / 1.3)] * 2)
            for j, x in enumerate(XS)
        ]
        ds = make_dataset(groups)
        res = two_stage_fit(ds, ModelForm.SIGMOID, RECOVERY_CONFIG)
        assert "k" in res.estimates
        assert "k" not in res.fixed
        assert res.fixed["x0"] == res.stage1.estimates["x0"]

    def test_exclusions_applied_before_both_stages(self):
        ds = noise_free_dataset()
        config = FitConfig(
            exclusions=(("w0", "outlier"),), stage2_p_idle_kw=1.8
        )
        res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC, config)
        assert res.clusters == len(XS) - 1
        assert res.exclusions == (("w0", "outlier"),)

    def test_inference_columns_populated(self):
        rng = np.random.default_rng(9)
        groups = [
            (f"w{j}", x, Architecture_LLM,
             list(asym(x, 1.8, 6.6, 5.0) + rng.normal(0, 0.2, size=4)))
            for j, x in enumerate(XS)
        ]
        ds = make_dataset(groups)
        res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC)
        se = res.robust_se["beta_comp_kw"]
        t = res.t_value["beta_comp_kw"]
        p = res.p_value["beta_comp_kw"]
        assert se > 0
        assert t == pytest.approx(res.estimates["beta_comp_kw"] / se)
        assert 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# coverage under cluster noise
# ---------------------------------------------------------------------------

class TestNoiseCoverage:
    def test_beta_within_three_robust_se_in_most_replicates(self):
        # cluster-level disturbances, the setting the sandwich exists for
        rng = np.random.default_rng(2024)
        hits = 0
        replicates = 200
        for _ in range(replicates):
            groups = []
            for j, x in enumerate(XS):
                shift = rng.normal(0.0, 0.3)
                y = asym(x, 1.8, 6.6, 5.0) + shift
                groups.append((f"w{j}", x, Architecture_LLM, [y] * 10))
            ds = make_dataset(groups)
            res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC, RECOVERY_CONFIG)
            beta = res.estimates["beta_comp_kw"]
            se = res.robust_se["beta_comp_kw"]
            if abs(beta - 6.6) <= 3.0 * se:
                hits += 1
        assert hits / replicates >= 0.95


# ---------------------------------------------------------------------------
# LOOCV
# ---------------------------------------------------------------------------

class TestLoocv:
    def test_needs_three_workloads(self):
        ds = make_dataset([
            ("a", 12.0, Architecture_LLM, [5.0, 5.2]),
            ("b", 14.0, Architecture_LLM, [6.0, 6.1]),
        ])
        with pytest.raises(DegenerateDataError):
            loocv(ds, ModelForm.LOG_ASYMPTOTIC)

    def test_interchangeable_workloads_give_zero_cov(self):
        # three identical copies of the same relationship: every holdout
        # refit sees the same geometry, so the spread collapses
        base = [(x, asym(x, 1.8, 6.6, 5.0)) for x in (12.0, 14.0, 16.0)]
        groups = []
        for c in range(3):
            for x, y in base:
                groups.append((f"copy{c}-x{x}", x, Architecture_LLM, [y] * 2))
        ds = make_dataset(groups)
        rep = loocv(ds, ModelForm.LOG_ASYMPTOTIC)
        assert rep.cov_percent["alpha"] == pytest.approx(0.0, abs=1e-4)
        assert rep.flagged_outliers == ()

    def test_divergent_workload_flagged(self):
        # one workload 1.5 kW hot: omitting it moves the shape hard
        ds = hot_workload_dataset()
        rep = loocv(ds, ModelForm.LOG_ASYMPTOTIC)
        assert rep.most_divergent["alpha"] == "hot"
        assert "hot" in rep.flagged_outliers

    def test_report_shape(self, desk_dataset):
        rep = loocv(desk_dataset, ModelForm.LOG_ASYMPTOTIC)
        assert rep.parameters == ("alpha",)
        assert set(rep.per_holdout) == set(desk_dataset.workloads())
        assert rep.sd["alpha"] > 0
        assert rep.cov_percent["alpha"] == pytest.approx(
            100.0 * rep.sd["alpha"] / rep.mean["alpha"], rel=1e-12
        )


# ---------------------------------------------------------------------------
# packaging fits as models
# ---------------------------------------------------------------------------

class TestToFittedModel:
    def test_provenance_and_parameters(self):
        ds = noise_free_dataset()
        config = FitConfig(
            exclusions=(("w0", "outlier"),), stage2_p_idle_kw=1.8
        )
        res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC, config)
        m = to_fitted_model(
            res, dataset=ds, created_utc="2026-01-01T00:00:00+00:00"
        )
        assert m.form is ModelForm.LOG_ASYMPTOTIC
        assert m.params.alpha == pytest.approx(5.0, rel=1e-6)
        assert m.params.beta_comp_kw == pytest.approx(6.6, rel=1e-6)
        prov = m.provenance
        assert prov["kind"] == "fit"
        assert prov["created_utc"] == "2026-01-01T00:00:00+00:00"
        assert prov["dataset_sha256"] == ds.sha256()
        assert "w0" not in prov["training_workload_ids"]
        assert ["w0", "outlier"] in prov["exclusions"]

    def test_model_predicts_like_the_fit(self):
        ds = noise_free_dataset()
        res = two_stage_fit(ds, ModelForm.LOG_ASYMPTOTIC, RECOVERY_CONFIG)
        m = to_fitted_model(res, dataset=ds, created_utc="t")
        x = 15.4
        want = asym(x, 1.8, 6.6, 5.0)
        assert m.power_kw(x) == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# the per-workload estimator against the per-observation definition
# ---------------------------------------------------------------------------

ALL_FORMS = tuple(ModelForm)


def unequal_noisy_rows():
    """Both architectures, 3 to 40 rows per workload, within-run noise."""
    rng = np.random.default_rng(17)
    groups = []
    for j, x in enumerate(XS):
        arch = Architecture_LLM if j % 3 else Architecture_CNN
        n = int(rng.integers(3, 41))
        y = asym(x, 1.86, 6.6, 5.0) + rng.normal(0.0, 0.3) + rng.normal(
            0.0, 0.5, size=n
        )
        groups.append((f"w{j}", x, arch, list(y)))
    return make_rows(groups)


def per_row_sse_and_se(ds, stage):
    """Weighted SSE and CR1 standard errors of a fitted stage, computed on
    every observation with the per-row weights."""
    spec = FORMS[stage.form]
    params = stage.all_params()
    is_llm = ds.arch == Architecture_LLM
    w = ds.weights()
    e = ds.power_kw - spec.curve(params, ds.x, is_llm)
    # Jacobian on the reported scale
    grad = spec.gradient(params, ds.x, is_llm)
    J = np.column_stack([grad[n] for n in stage.param_order])
    cov = cluster_robust_covariance(J, e, w, ds.workload_ids)
    return float(np.sum(w * e * e)), np.sqrt(np.diag(cov))


class TestPerWorkloadEquivalence:
    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.value)
    def test_sse_se_and_counts_match_per_row_definition(self, form):
        ds = unequal_noisy_rows()
        res = two_stage_fit(ds.table, form)
        for stage in (res.stage1, res):
            sse, se = per_row_sse_and_se(ds, stage)
            assert stage.weighted_sse == pytest.approx(sse, rel=1e-12)
            got = np.array([stage.robust_se[n] for n in stage.param_order])
            np.testing.assert_allclose(got, se, rtol=1e-9, atol=0.0)
            assert stage.observations == len(ds.power_kw)
            assert stage.clusters == len(XS)


def _load(manifest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FlopsMismatchWarning)
        return ingest.load_and_assemble(manifest)


class TestTableFromTraces:
    """The table built from the traces is, bit for bit, the table of the
    same rows given one by one; its sums and hash are those of the rows."""

    @pytest.mark.parametrize("data", ["desk", "synthetic", "repeated"])
    def test_equals_the_table_of_its_rows(self, data, tmp_path):
        if data == "synthetic":
            manifest = synthetic.generate(tmp_path, seed=3).manifest
        else:
            manifest = desk_manifest()
        if data == "repeated":
            # one workload listed twice: its rows merge into one workload
            lines = manifest.read_text().splitlines()
            twice = next(line for line in lines if "smc-llama-70b-1" in line)
            listed = [
                ",".join(str(desk_dir() / f) for f in line.split(","))
                for line in [*lines[1:], twice]
            ]
            manifest = tmp_path / "manifest.csv"
            manifest.write_text("\n".join(["config,trace", *listed]) + "\n")
        records, table = _load(manifest)
        rows = Rows.of_records(records)
        want = rows.table
        for name in ("workload_ids", "arch", "x", "mean_kw", "n", "within_ss"):
            got, ref = getattr(table, name), getattr(want, name)
            assert got.dtype == ref.dtype, name
            assert got.tobytes() == ref.tobytes(), name
        for got, ref in zip((table.n, table.mean_kw, table.within_ss),
                            rows.sums()):
            assert got.tobytes() == ref.tobytes()
        assert table.sha256() == want.sha256() == rows.sha256()
        if data == "repeated":
            once = _load(desk_manifest())[1]
            i = table.workloads().index("smc-llama-70b-1")
            assert table.workloads() == once.workloads()
            assert table.n[i] == 2 * once.n[i]


# the sigmoid's stage-1 start grid before its scan, kept as caller-given
# starts for the tests of the start-grid path
SIGMOID_STARTS = [
    {"x0": m, "k": k}
    for m in (9.0, 11.0, 13.0, 15.0, 17.0) for k in (0.1, 1.0)
]


# ---------------------------------------------------------------------------
# the stage-1 fit reaches the optimum of a dense grid
# ---------------------------------------------------------------------------

def _stage1_grid_min(table, form, config):
    """Smallest stage-1 weighted SSE over a dense grid of shape values."""
    x, idle, beta = table.x, config.stage1_p_idle_kw, config.stage1_beta_kw
    if form is ModelForm.SIGMOID:
        x0 = np.linspace(5.0, 20.0, 301)[:, None, None]
        k = np.linspace(0.05, 10.0, 400)[None, :, None]
        curve = idle + beta * expit((x - x0) / k)
    elif form is ModelForm.SIMPLE_ASYMPTOTIC:
        log10_alpha = np.linspace(8.0, 20.0, 12001)[:, None]
        curve = idle + beta / (1.0 + 10.0 ** (log10_alpha - x))
    else:
        alpha = np.linspace(0.05, 50.0, 20000)[:, None]
        curve = asym(x, idle, beta, alpha)
    sse = np.sum((table.mean_kw - curve) ** 2, axis=-1)
    return float(sse.min() + np.sum(table.within_ss / table.n))


class TestStage1Optimum:
    @pytest.mark.parametrize("form", [
        ModelForm.SIMPLE_ASYMPTOTIC,
        ModelForm.LOG_ASYMPTOTIC,
        ModelForm.LOG_ASYMPTOTIC_ARCH_FE,
        ModelForm.SIGMOID,
    ], ids=lambda f: f.value)
    def test_desk_stage1_at_most_grid_minimum(
        self, form, desk_dataset, desk_exclusion_policy
    ):
        config = FitConfig(exclusions=desk_exclusion_policy)
        res = two_stage_fit(desk_dataset, form, config)
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        grid = _stage1_grid_min(table, form, config)
        assert res.stage1.weighted_sse <= grid * (1.0 + 1e-12)


class TestMultiStart:
    def test_keeps_the_first_start_within_rounding_of_the_lowest_sse(
        self, desk_dataset, desk_exclusion_policy
    ):
        # on the desk data nine of the ten sigmoid starts reach one optimum
        # and their SSEs differ only by rounding
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        form = ModelForm.SIGMOID
        fixed = {"p_idle_kw": 1.8, "beta_comp_kw": 6.6}
        shape = FORMS[form].shape
        single = []
        for s in SIGMOID_STARTS:
            try:
                single.append(wnls_fit(
                    table, form, fixed, shape, starts=[s], compute_se=False
                ))
            except NonConvergenceError:
                continue  # stopped off the optimum (see TestRelativeOffset)
        lowest = min(r.weighted_sse for r in single)
        first = next(
            r for r in single if r.weighted_sse <= lowest * (1.0 + 1e-12)
        )
        multi = wnls_fit(
            table, form, fixed, shape, starts=SIGMOID_STARTS, compute_se=False
        )
        assert multi.estimates == first.estimates


class TestRelativeOffset:
    """A run that stops on a small step must also stop near an optimum."""

    def test_ridge_run_off_is_not_converged(
        self, desk_dataset, desk_exclusion_policy
    ):
        # from this start the logistic is 1 to rounding at five of the
        # seven workloads (z >= 34), so the Jacobian is all but zero; its
        # step, of order 1e16, takes c1 below zero at every one of the
        # halvings, and the run stops at its start (weighted SSE 30.92,
        # optimum 7.42), unconverged
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        with pytest.raises(NonConvergenceError, match="rank-deficient"):
            wnls_fit(
                table, ModelForm.SIGMOID,
                {"p_idle_kw": 1.8, "beta_comp_kw": 6.6}, ("x0", "k"),
                starts=[{"x0": 9.0, "k": 0.1}],
            )

    def test_early_stop_off_the_optimum_is_not_converged(
        self, desk_dataset, desk_exclusion_policy
    ):
        # with a loose step tolerance the run stops after a step of under
        # 10%, where the relative offset still reads about 0.02
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        with pytest.raises(NonConvergenceError, match="relative offset"):
            wnls_fit(
                table, ModelForm.SIGMOID,
                {"p_idle_kw": 1.8, "beta_comp_kw": 6.6}, ("x0", "k"),
                starts=[{"x0": 13.0, "k": 2.0}], convergence_tol=0.1,
            )

    def test_offset_is_zero_at_a_stationary_point(self):
        rng = np.random.default_rng(3)
        J = rng.normal(size=(7, 2))
        r = rng.normal(size=7)
        q, _ = np.linalg.qr(J)
        r_perp = r - q @ (q.T @ r)
        # a residual along J's columns is all offset
        offsets = fitmod._relative_offsets(
            np.array([r_perp, J @ [1.0, 2.0]]),
            [np.array([c, c]) for c in J.T], np.array([0.0, 1e-6]),
        )
        assert offsets[0] < 1e-14
        assert offsets[1] > 1e3

    def test_rank_deficient_jacobian_reads_infinite(self):
        r = np.array([0.1, -0.2, 0.3, 0.0])
        flat = np.ones((4, 2)) * [1e-27, 2e-27]  # two constant columns
        zero = np.column_stack([np.ones(4), np.zeros(4)])
        # column scale alone is not rank deficiency
        scaled = np.column_stack([np.arange(4.0), np.ones(4)]) * [1e-20, 1.0]
        batch = (flat, zero, scaled)
        offsets = fitmod._relative_offsets(
            np.array([r, r, r]),
            [np.array([J[:, i] for J in batch]) for i in (0, 1)], 1e-8,
        )
        assert offsets[0] == np.inf
        assert offsets[1] == np.inf
        assert np.isfinite(offsets[2])
        # a column whose norm overflows is no basis: infinite, as the
        # Householder offset reads it, not a zero Q1'r
        for huge in (np.full((4, 1), 1e200), scaled * [1e220, 1.0]):
            with np.errstate(over="ignore"):
                assert householder_offset(r, huge, 1e-8) == np.inf
            assert fitmod._relative_offsets(
                r[None], [c[None] for c in huge.T], 1e-8
            )[0] == np.inf

    def test_no_residual_degrees_of_freedom(self):
        # n == p: the scale is the floor, with no division by zero
        J = np.array([[1.0, 0.0], [0.0, 1.0]])
        offsets = fitmod._relative_offsets(
            np.array([np.zeros(2), [3e-4, 4e-4]]),
            [np.array([c, c]) for c in J.T], np.array([0.0, 0.1]),
        )
        assert offsets[0] == 0.0
        assert offsets[1] == pytest.approx(5e-4 / np.sqrt(2) / 0.1, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_the_householder_offset(self, p):
        # random full-rank problems, some with column scales 1e20 apart,
        # twenty to a batch
        rng = np.random.default_rng(11 + p)
        scales = ([1.0], [1e-10], [1e10]) if p == 1 else (
            [1.0, 1.0], [1e-10, 1e10], [1e10, 1e-10], [1e-3, 1e17],
        )
        for n in (p + 1, p + 2, 7, 9, 60):
            for scale in scales:
                J = rng.normal(size=(20, n, p)) * scale
                r = rng.normal(size=(20, n)) * 10.0 ** rng.uniform(
                    -6, 3, size=(20, 1)
                )
                floor = 10.0 ** rng.uniform(-12, -4, size=20)
                got = fitmod._relative_offsets(
                    r, [J[..., i] for i in range(p)], floor
                )
                for b in range(20):
                    want = householder_offset(r[b], J[b], floor[b])
                    assert got[b] == pytest.approx(want, rel=1e-12, abs=0.0)


def householder_offset(r, J, floor):
    """The relative offset from numpy's Householder QR of the unit-scaled
    columns: an oracle independent of the package's Gram-Schmidt."""
    n, p = J.shape
    norms = np.linalg.norm(J, axis=0)
    if not np.all(norms > 0):
        return np.inf
    q, R = np.linalg.qr(J / norms)
    if not np.min(np.abs(np.diag(R))) > np.finfo(float).eps * n:
        return np.inf
    qtr = q.T @ r
    orth = r - q @ qtr
    scale = np.sqrt(float(orth @ orth) / (n - p)) if n > p else 0.0
    return np.sqrt(float(qtr @ qtr) / p) / max(scale, floor, 1e-300)


# ---------------------------------------------------------------------------
# starts and holdouts as one batch
# ---------------------------------------------------------------------------

LOOCV_FORMS = (ModelForm.LOG_ASYMPTOTIC, ModelForm.SIGMOID)
LOOCV_BATCH_FORMS = (*LOOCV_FORMS, ModelForm.SIMPLE_ASYMPTOTIC)


@pytest.fixture(scope="module")
def many_workload_dataset(tmp_path_factory):
    """Four seeds of the synthetic desk stand-in as one 36-workload set."""
    parts = []
    for seed in range(4):
        made = synthetic.generate(
            tmp_path_factory.mktemp(f"seed{seed}"), seed=seed
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlopsMismatchWarning)
            records, _ = ingest.load_and_assemble(made.manifest)
        parts.append(Rows.of_records(records, prefix=f"s{seed}-"))
    return Rows(*(
        np.concatenate([getattr(p, f.name) for p in parts])
        for f in fields(Rows)
    )).table


def _stage1_fixed(config):
    return {
        "p_idle_kw": config.stage1_p_idle_kw,
        "beta_comp_kw": config.stage1_beta_kw,
    }


def _stage1_sse(table, form, estimates, config):
    """Stage-1 weighted SSE of shape ``estimates`` on a workload table."""
    idle, beta = config.stage1_p_idle_kw, config.stage1_beta_kw
    if form is ModelForm.SIGMOID:
        z = (table.x - estimates["x0"]) / estimates["k"]
        curve = idle + beta * expit(z)
    elif form is ModelForm.SIMPLE_ASYMPTOTIC:
        curve = asym(10.0 ** table.x, idle, beta, estimates["alpha"])
    else:
        curve = asym(table.x, idle, beta, estimates["alpha"])
    e = table.mean_kw - curve
    return float(np.sum(e * e) + np.sum(table.within_ss / table.n))


def _percentile_starts(x):
    """The simple form's alpha starts on a table's intensities ``x``: the
    raw operations at their 10th to 90th percentiles."""
    qs = (10, 30, 50, 70, 90)
    return [{"alpha": 10.0 ** q} for q in np.percentile(x, qs)]


def _grid_starts(table, form):
    """The start grid of a stage-1 grid run of ``form`` on ``table``: the
    simple form's percentile starts, the sigmoid's ``SIGMOID_STARTS``, and
    the form table's (None) for the others."""
    if form is ModelForm.SIMPLE_ASYMPTOTIC:
        return _percentile_starts(table.x)
    return SIGMOID_STARTS if form is ModelForm.SIGMOID else None


def _grid_run(table, form, fixed, free, starts=None):
    """A stage fit of ``table`` that iterates every point of its start
    grid (``starts``, by default the form table's) as one batch, the
    winner taken by ``fit._winners``: user-scale estimates, weighted SSE
    and whether it is at an optimum."""
    objective = fitmod._Objective(
        FORMS[form], fixed, free, table, np.arange(len(table.x))[None]
    )
    theta0, rows, counts = fitmod._start_points(objective, starts)
    theta, sse, ok, *_ = fitmod._winners(
        objective, rows, counts, *_run(objective, theta0, rows, 1e-8, 200)
    )
    optimum = objective.user(theta, rows[:1])[0]
    return (
        {n: float(v) for n, v in zip(free, optimum)}, float(sse[0]),
        bool(ok[0]),
    )


def _batches(monkeypatch):
    """Spy on ``fit._gauss_newton``: the list of its batches' sizes."""
    batches = []
    gauss_newton = fitmod._gauss_newton

    def spy(objective, theta0, *args):
        batches.append(len(theta0))
        return gauss_newton(objective, theta0, *args)

    monkeypatch.setattr(fitmod, "_gauss_newton", spy)
    return batches


def _assert_first_holdouts_message(table, form):
    """With one iteration allowed, ``loocv`` raises the non-convergence
    message of ``wnls_fit`` on the first holdout's table."""
    config = FitConfig(max_iterations=1)
    with pytest.raises(NonConvergenceError) as alone:
        wnls_fit(
            table.drop([table.workloads()[0]]), form,
            _stage1_fixed(config), FORMS[form].shape,
            max_iterations=1, compute_se=False,
        )
    with pytest.raises(NonConvergenceError) as batched:
        loocv(table, form, config)
    assert str(batched.value) == str(alone.value)


class TestBatchedLoocv:
    @pytest.mark.parametrize(
        "data, form",
        [
            (data, form)
            for data in ("desk", "many", "sixty")
            for form in (*LOOCV_FORMS, ModelForm.SIMPLE_ASYMPTOTIC)
        ] + [
            (data, form)
            for data in ("one-fifty", "desk-excluded") for form in LOOCV_FORMS
        ],
        ids=lambda v: v.value if isinstance(v, ModelForm) else v,
    )
    def test_each_holdout_equals_its_own_stage1_fit(
        self, form, data, desk_dataset, desk_exclusion_policy,
        many_workload_dataset,
    ):
        # bit for bit the holdout table's default stage-1 fit (a scan and a
        # run from its best point), and within rounding of the fit from its
        # whole start grid. 150 workloads make one LOOCV batch of 150
        # holdouts of 149 rows each
        table = {
            "desk": lambda: desk_dataset,
            "desk-excluded": lambda: apply_exclusions(
                desk_dataset, desk_exclusion_policy
            ),
            "many": lambda: many_workload_dataset,
            "sixty": lambda: arch_fe_dataset(60),
            "one-fifty": lambda: arch_fe_dataset(150),
        }[data]()
        config = FitConfig()
        rep = loocv(table, form, config)
        assert list(rep.per_holdout) == list(table.workloads())
        fixed, shape = _stage1_fixed(config), FORMS[form].shape
        for wid, estimates in rep.per_holdout.items():
            held = table.drop([wid])
            alone = wnls_fit(held, form, fixed, shape, compute_se=False)
            assert estimates == alone.estimates, wid
            grid, grid_sse, _ = _grid_run(
                held, form, fixed, shape, _grid_starts(held, form)
            )
            for name in shape:
                assert estimates[name] == pytest.approx(
                    grid[name], rel=1e-12, abs=0.0
                ), wid
            assert alone.weighted_sse <= grid_sse * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "data, form",
        [
            (data, form) for data in ("desk", "hot")
            for form in (ModelForm.LOG_ASYMPTOTIC, ModelForm.SIMPLE_ASYMPTOTIC)
        ] + [("desk", ModelForm.SIGMOID)],
        ids=lambda v: v.value if isinstance(v, ModelForm) else v,
    )
    def test_holdout_scan_sums_match_each_holdouts_own_scan(
        self, form, data, desk_dataset, monkeypatch
    ):
        # each holdout's scan SSEs, summed before and after the held-out
        # workload from the one scan of the whole table, against the scan
        # of the holdout's own objective: within G eps relative, and the
        # same first lowest point
        table = desk_dataset if data == "desk" else hot_workload_dataset()
        seen = []
        pick = fitmod._scan_best

        def spy(sse):
            seen.append(sse.copy())
            return pick(sse)

        monkeypatch.setattr(fitmod, "_scan_best", spy)
        config = FitConfig()
        loocv(table, form, config)
        (sums,) = seen
        workloads = table.workloads()
        stage_form, fixed, free = fitmod._stage1_constraints(form, config)
        spec = FORMS[stage_form]
        for h, wid in enumerate(workloads):
            held = table.drop([wid])
            own = fitmod._Objective(
                spec, fixed, free, held, np.arange(len(held.x))[None]
            )
            user = _scan_user(own)
            assert sums.shape == (len(user), len(workloads))
            rows = np.zeros(len(user), dtype=int)
            sse = own.sse(own.residual(user, rows, user), rows)
            np.testing.assert_allclose(
                sums[:, h], sse, rtol=len(workloads) * fitmod._EPS, atol=0.0,
                err_msg=wid,
            )
            assert np.argmin(sums[:, h]) == np.argmin(sse), wid

    @staticmethod
    def _start_on_the_ridge(table, monkeypatch, holdouts):
        """Start the given LOOCV holdouts, or the one table of a fit, at the
        scan point (9, 0.1), the ridge start of TestRelativeOffset, which
        stops unconverged above the scan's minimum; spy on the batches."""
        form = ModelForm.SIGMOID
        ridge = 3 * fitmod.GRID_POINTS + 4
        user = _scan_user(_holdout_objectives(table, form, FitConfig())[1])
        assert user[ridge] == pytest.approx([9.0, 0.1], rel=1e-15)
        pick = fitmod._scan_best

        def ridge_start(sse):
            picks = pick(sse)
            picks[list(holdouts) if len(picks) > 1 else 0] = ridge
            return picks

        monkeypatch.setattr(fitmod, "_scan_best", ridge_start)
        return _batches(monkeypatch)

    def test_a_holdout_off_the_optimum_raises(
        self, desk_dataset, monkeypatch
    ):
        # one holdout, and then the whole table, start on the ridge: each
        # raises rather than rerunning a start grid
        config = FitConfig()
        table = desk_dataset
        form = ModelForm.SIGMOID
        batches = self._start_on_the_ridge(table, monkeypatch, [2])
        with pytest.raises(NonConvergenceError, match="above a point of its"):
            loocv(table, form, config)
        batches.clear()
        with pytest.raises(NonConvergenceError, match="above a point of its"):
            wnls_fit(
                table, form, _stage1_fixed(config), FORMS[form].shape,
                compute_se=False,
            )
        assert batches == [1]

    def test_holdouts_off_the_optimum_run_one_batch(
        self, desk_dataset, monkeypatch
    ):
        # two holdouts start on the ridge and miss their optimum: the LOOCV
        # runs its one batch of G holdouts and no rerun before it raises
        config = FitConfig()
        table = desk_dataset
        batches = self._start_on_the_ridge(table, monkeypatch, [2, 5])
        with pytest.raises(NonConvergenceError, match="above a point of its"):
            loocv(table, ModelForm.SIGMOID, config)
        assert batches == [len(table.workloads())]

    @pytest.mark.parametrize("form", LOOCV_FORMS, ids=lambda f: f.value)
    def test_desk_holdouts_at_most_grid_minimum(self, form, desk_dataset):
        config = FitConfig()
        table = desk_dataset
        rep = loocv(desk_dataset, form, config)
        for wid, estimates in rep.per_holdout.items():
            held = table.drop([wid])
            sse = _stage1_sse(held, form, estimates, config)
            grid = _stage1_grid_min(held, form, config)
            assert sse <= grid * (1.0 + 1e-12), wid

    @pytest.mark.parametrize("form", LOOCV_FORMS, ids=lambda f: f.value)
    def test_many_holdouts_at_most_grid_minimum(
        self, form, many_workload_dataset
    ):
        # each holdout iterates one start: the dense grid is the evidence
        # that it is the optimum, on 36 workloads as on the desk's nine
        config = FitConfig()
        table = many_workload_dataset
        rep = loocv(table, form, config)
        for wid, estimates in rep.per_holdout.items():
            held = table.drop([wid])
            sse = _stage1_sse(held, form, estimates, config)
            grid = _stage1_grid_min(held, form, config)
            assert sse <= grid * (1.0 + 1e-12), wid

    def test_holdout_with_one_intensity_is_degenerate(self):
        # holding out "c" leaves two workloads at the same intensity, whose
        # SD, which the sigmoid's scale divides by, is zero
        ds = make_dataset([
            ("a", 12.0, Architecture_LLM, [5.0, 5.2]),
            ("b", 12.0, Architecture_LLM, [5.1, 5.3]),
            ("c", 14.0, Architecture_LLM, [6.0, 6.1]),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for form in LOOCV_FORMS:
                with pytest.raises(DegenerateDataError, match="two distinct"):
                    loocv(ds, form)

    def test_non_convergence_keeps_the_single_fit_message(
        self, desk_dataset
    ):
        _assert_first_holdouts_message(desk_dataset, ModelForm.SIGMOID)

    @pytest.mark.parametrize("form", [
        ModelForm.LOG_ASYMPTOTIC, ModelForm.SIMPLE_ASYMPTOTIC,
    ], ids=lambda f: f.value)
    def test_a_scanned_holdouts_non_convergence_keeps_its_message(
        self, form, desk_dataset
    ):
        _assert_first_holdouts_message(desk_dataset, form)

    def test_each_problem_alone_matches_the_batch(self, desk_dataset):
        # every (holdout, start) problem of the desk sigmoid LOOCV from its
        # former start grid, run as a batch of one, is bit-identical to its
        # row of the whole batch
        config = FitConfig()
        table = desk_dataset
        spec = FORMS[ModelForm.SIGMOID]
        g = len(table.workload_ids)
        keep = np.array([np.delete(np.arange(g), h) for h in range(g)])
        objective = fitmod._Objective(
            spec, _stage1_fixed(config), spec.shape, table, keep
        )
        theta0, rows, _ = fitmod._start_points(objective, SIGMOID_STARTS)
        batch = _kernel(objective, theta0, rows, 1e-8, 200)
        for i in range(len(theta0)):
            one = _kernel(
                objective, theta0[i:i + 1], rows[i:i + 1], 1e-8, 200
            )
            for got, want in zip(one, batch):
                assert np.array_equal(got, want[i:i + 1]), i

    def test_no_runtime_warnings(self, desk_dataset, desk_exclusion_policy):
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        config = FitConfig(exclusions=desk_exclusion_policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for form in ModelForm:
                two_stage_fit(desk_dataset, form, config)
            for form in LOOCV_FORMS:
                loocv(desk_dataset, form)
            # the ridge start of TestRelativeOffset: a Jacobian all but
            # zero, and candidates outside the map's domain
            with pytest.raises(NonConvergenceError):
                wnls_fit(
                    table, ModelForm.SIGMOID,
                    {"p_idle_kw": 1.8, "beta_comp_kw": 6.6}, ("x0", "k"),
                    starts=[{"x0": 9.0, "k": 0.1}],
                )


class TestOneStartPerFit:
    """A fit iterates one start, the first lowest-SSE point of its scan or
    grid, and a grid reruns whole only when that run misses its
    optimum."""

    @pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
    def test_desk_stage1_runs_one_problem(
        self, form, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        batches = _batches(monkeypatch)
        two_stage_fit(
            desk_dataset, form, FitConfig(exclusions=desk_exclusion_policy)
        )
        # the sigmoid's stage 1, then its stage 2 from one start; the
        # saturation forms run the kernel from their alpha scan's best
        # point and solve their magnitudes exactly
        want = [1, 1] if form is ModelForm.SIGMOID else [1]
        assert batches == want

    def test_a_miss_reruns_the_grid_once(
        self, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # a fit from given starts starts at the ridge start of
        # TestRelativeOffset, which stops unconverged; it then iterates its
        # whole grid, once
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        form = ModelForm.SIGMOID
        fixed, shape = _stage1_fixed(FitConfig()), FORMS[form].shape
        ridge = {"x0": 9.0, "k": 0.1}
        assert ridge.items() <= SIGMOID_STARTS[0].items()
        grid, grid_sse, ok = _grid_run(
            table, form, fixed, shape, SIGMOID_STARTS
        )
        assert ok
        pick = fitmod._scan_best

        def ridge_start(sse):
            return np.zeros_like(pick(sse))  # the grid's first

        monkeypatch.setattr(fitmod, "_scan_best", ridge_start)
        batches = _batches(monkeypatch)
        got = wnls_fit(
            table, form, fixed, shape, starts=SIGMOID_STARTS, compute_se=False
        )
        assert batches == [1, len(SIGMOID_STARTS)]
        assert got.estimates == grid
        assert got.weighted_sse == grid_sse

    @pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
    @pytest.mark.parametrize(
        "data", ["desk-all", "desk-excluded", "many", "sixty"]
    )
    def test_stage1_agrees_with_its_grid_run(
        self, form, data, desk_dataset, desk_exclusion_policy,
        many_workload_dataset,
    ):
        table = {
            "desk-all": lambda: desk_dataset,
            "desk-excluded": lambda: apply_exclusions(
                desk_dataset, desk_exclusion_policy
            ),
            "many": lambda: many_workload_dataset,
            "sixty": lambda: arch_fe_dataset(60),
        }[data]()
        config = FitConfig()
        stage1 = two_stage_fit(table, form, config).stage1
        grid, grid_sse, ok = _grid_run(
            table, *fitmod._stage1_constraints(form, config),
            _grid_starts(table, form),
        )
        assert ok
        for name, value in grid.items():
            assert stage1.estimates[name] == pytest.approx(
                value, rel=1e-12, abs=0.0
            ), name
        assert stage1.weighted_sse <= grid_sse * (1.0 + 1e-12)


def _scan_user(objective):
    """The user-scale points of the stage-1 scan of ``objective``'s form,
    by this module's own reading of the form table: alpha's
    ``SCAN_POINTS`` on the fit's scale, mapped to the user scale, and the
    sigmoid's ``GRID_POINTS`` x ``GRID_POINTS``, x0 by x0, on the user
    scale."""
    spec = objective.spec
    if len(spec.scan) == 1:
        ((lo, hi, space),) = spec.scan
        theta = space(lo, hi, fitmod.SCAN_POINTS)[:, None]
        return objective.user(theta, np.zeros(len(theta), dtype=int))
    axes = [space(lo, hi, fitmod.GRID_POINTS) for lo, hi, space in spec.scan]
    return np.array(list(itertools.product(*axes)))


def _holdout_objectives(table, form, config):
    """``loocv``'s stage-1 objective of ``form`` on the G holdouts of
    ``table``, and its objective on the whole table."""
    stage_form, fixed, free = fitmod._stage1_constraints(form, config)
    spec = FORMS[stage_form]
    g = len(table.workload_ids)
    keep = np.array([np.delete(np.arange(g), h) for h in range(g)])
    return (
        fitmod._Objective(spec, fixed, free, table, keep),
        fitmod._Objective(spec, fixed, free, table, np.arange(g)[None]),
    )


def _picks(monkeypatch):
    """Spy on ``fit._scan_best``: the list of the picks it returns."""
    seen = []
    pick = fitmod._scan_best

    def spy(sse):
        seen.append(pick(sse))
        return seen[-1]

    monkeypatch.setattr(fitmod, "_scan_best", spy)
    return seen


def step_workload_dataset():
    """Eight workloads at idle below x = 13 and at the stress ceiling
    above it, two samples each: a step, which a sigmoid fits ever better
    as k falls to its floor."""
    xs = [11.6, 12.1, 12.6, 16.2, 13.8, 16.8, 12.0, 16.3]
    return make_dataset([
        (f"w{j}", x, Architecture_LLM,
         [(1.8 if x < 13.0 else 8.4) + d for d in (-0.05, 0.05)])
        for j, x in enumerate(xs)
    ])


def _run_starts(monkeypatch):
    """Spy on ``fit._gauss_newton``: per run, its objective, start points,
    tables, start residual rows and user-scale start points."""
    runs = []
    gauss_newton = fitmod._gauss_newton

    def kernel(*args):
        runs.append(args[:5])
        return gauss_newton(*args)

    monkeypatch.setattr(fitmod, "_gauss_newton", kernel)
    return runs


def _assert_runs_start_at_round_trips(runs):
    """Each run starts at one point on both scales, with that point's
    residual rows, bit for bit: a scan point on the user scale and its
    image through its own table's constants where the run iterates on the
    sigmoid's map (stage 1), else a start's round trip."""
    assert runs
    for objective, theta0, rows, resid0, user0 in runs:
        if objective.map is not None:
            assert np.array_equal(objective.internal(user0, rows), theta0)
            assert set(map(tuple, user0)) <= set(
                map(tuple, _scan_user(objective))
            )
        else:
            assert np.array_equal(user0, objective.user(theta0, rows))
        assert np.array_equal(resid0, objective.residual(theta0, rows, user0))


def _scan_picks(table, config):
    """Index of the first point of the sigmoid's stage-1 scan with the
    lowest SSE on ``table``, by this module's own formulas."""
    objective = _holdout_objectives(table, ModelForm.SIGMOID, config)[1]
    user = _scan_user(objective)
    z = (table.x - user[:, :1]) / user[:, 1:]
    e = table.mean_kw - config.stage1_p_idle_kw - (
        config.stage1_beta_kw * expit(z)
    )
    return int(np.argmin(np.sum(e * e, axis=-1)))


class TestOnePick:
    """Every table's candidate points are scored once, on the whole table,
    and its first lowest point alone starts a run."""

    @pytest.mark.parametrize(
        "data", ["desk-all", "desk-excluded", "many", "sixty"]
    )
    def test_each_holdouts_pick_is_its_own_round_trip_pick(
        self, data, desk_dataset, desk_exclusion_policy,
        many_workload_dataset, monkeypatch,
    ):
        # the sigmoid's holdouts score its scan on the whole table, and
        # pick what each holdout's own scoring of the scan picks (the name
        # is that of the start grid, which each holdout scored at its
        # points' round trips)
        table = {
            "desk-all": lambda: desk_dataset,
            "desk-excluded": lambda: apply_exclusions(
                desk_dataset, desk_exclusion_policy
            ),
            "many": lambda: many_workload_dataset,
            "sixty": lambda: arch_fe_dataset(60),
        }[data]()
        config = FitConfig()
        seen = _picks(monkeypatch)
        loocv(table, ModelForm.SIGMOID, config)
        (picks,) = seen
        want = [
            _scan_picks(table.drop([wid]), config) for wid in table.workloads()
        ]
        assert picks.tolist() == want

    def test_a_step_raises_on_the_edge_of_its_scan(self, monkeypatch):
        # without w4 (x = 13.8) the step's best scan point is (15, K_FLOOR),
        # where the logistic is 0 or 1 to rounding at every workload; the
        # run cannot leave it, and the fit raises on the scan's edge
        table = step_workload_dataset().drop(["w4"])
        seen = _picks(monkeypatch)
        with pytest.raises(NonConvergenceError, match="on the edge of its"):
            wnls_fit(
                table, ModelForm.SIGMOID, _stage1_fixed(FitConfig()),
                ("x0", "k"), compute_se=False,
            )
        (picks,) = seen
        user = _scan_user(_holdout_objectives(
            table, ModelForm.SIGMOID, FitConfig()
        )[1])
        assert user[picks[0]].tolist() == [15.0, model.K_FLOOR]

    def test_start_scoring_evaluates_the_whole_table_once(
        self, monkeypatch
    ):
        # the sigmoid's 60 holdouts score its 121 scan points as 121 rows
        # of the 60 workloads and evaluate nothing else before their runs;
        # scoring every holdout's scan is 7,260 rows of 59
        calls = []
        residual = fitmod._Objective.residual
        gauss_newton = fitmod._gauss_newton

        def spy(self, theta, *args):
            calls.append((len(theta), self.x.shape[-1]))
            return residual(self, theta, *args)

        def kernel(*args):
            calls.append("kernel")
            return gauss_newton(*args)

        monkeypatch.setattr(fitmod._Objective, "residual", spy)
        monkeypatch.setattr(fitmod, "_gauss_newton", kernel)
        loocv(arch_fe_dataset(60), ModelForm.SIGMOID)
        scan = fitmod.GRID_POINTS ** 2
        assert calls[:calls.index("kernel")] == [(scan, 60)]

    @pytest.mark.parametrize("exclude", [False, True])
    @pytest.mark.parametrize("call", ["loocv", "two_stage_fit"])
    def test_each_run_starts_at_its_round_trip(
        self, call, exclude, desk_dataset, desk_exclusion_policy,
        monkeypatch,
    ):
        # every kernel run of the sigmoid starts from one point on both
        # scales, with that point's residual row, bit for bit: stage 1
        # from a scan point, stage 2 from its one start
        runs = _run_starts(monkeypatch)
        policy = desk_exclusion_policy if exclude else ()
        if call == "loocv":
            loocv(apply_exclusions(desk_dataset, policy), ModelForm.SIGMOID)
        else:
            two_stage_fit(
                desk_dataset, ModelForm.SIGMOID, FitConfig(exclusions=policy)
            )
        _assert_runs_start_at_round_trips(runs)

    def test_a_given_start_runs_from_its_round_trip(
        self, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # on the excluded desk table, at beta = 6.6 kW, the round trip of
        # (17, 0.1) has other residuals than the start itself, and the run
        # starts from the round trip's
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        start = np.array([[17.0, 0.1]])
        runs = _run_starts(monkeypatch)
        wnls_fit(
            table, ModelForm.SIGMOID, {"p_idle_kw": 1.8, "beta_comp_kw": 6.6},
            ("x0", "k"), starts=[{"x0": 17.0, "k": 0.1}], compute_se=False,
        )
        ((objective, theta0, rows, resid0, user0),) = runs
        assert not np.array_equal(
            resid0, objective.residual(start, rows, start)
        )
        assert np.array_equal(user0, objective.user(theta0, rows))
        assert np.array_equal(resid0, objective.residual(theta0, rows, user0))


SATURATION_FORMS = (
    ModelForm.SIMPLE_ASYMPTOTIC,
    ModelForm.LOG_ASYMPTOTIC,
    ModelForm.LOG_ASYMPTOTIC_ARCH_FE,
)


def _scan_sses(table, form, config):
    """The user-scale alpha of every point of the stage-1 scan of ``form``
    on ``table``, with its weighted SSE by this module's own formulas."""
    stage_form, fixed, free = fitmod._stage1_constraints(form, config)
    objective = fitmod._Objective(
        FORMS[stage_form], fixed, free, table, np.arange(len(table.x))[None]
    )
    alpha = _scan_user(objective)[:, 0]
    sse = [
        _stage1_sse(table, form, {"alpha": float(a)}, config) for a in alpha
    ]
    return alpha, np.array(sse)


class TestScanCertificate:
    """Stage 1 of a saturation form scans alpha over the form table's
    domain and runs the kernel from the best point; the scan certifies the
    result."""

    @pytest.mark.parametrize(
        "form", SATURATION_FORMS, ids=lambda f: f.value
    )
    @pytest.mark.parametrize("data", ["desk-all", "desk-excluded", "many"])
    def test_stage1_is_certified_by_its_scan(
        self, form, data, desk_dataset, desk_exclusion_policy,
        many_workload_dataset, monkeypatch,
    ):
        table = {
            "desk-all": desk_dataset,
            "desk-excluded": apply_exclusions(
                desk_dataset, desk_exclusion_policy
            ),
            "many": many_workload_dataset,
        }[data]
        config = FitConfig()
        batches = _batches(monkeypatch)
        stage1 = two_stage_fit(table, form, config).stage1
        assert batches == [1]  # the run from the scan's best point
        alpha, sse = _scan_sses(table, form, config)
        assert stage1.weighted_sse <= sse.min() * (1.0 + 1e-12)
        assert alpha[0] < stage1.estimates["alpha"] < alpha[-1]

    @pytest.mark.parametrize(
        "form", SATURATION_FORMS, ids=lambda f: f.value
    )
    def test_a_lower_scan_point_raises(
        self, form, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # run from a point 20 scan steps above the best, the optimum
        # stops at the edge of that point's neighbours, above the scan's
        # minimum
        pick = fitmod._scan_best

        def far(sse):
            return pick(sse) + 20

        monkeypatch.setattr(fitmod, "_scan_best", far)
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        with pytest.raises(NonConvergenceError, match="above a point"):
            two_stage_fit(table, form, FitConfig())

    @pytest.mark.parametrize(
        "form", SATURATION_FORMS, ids=lambda f: f.value
    )
    def test_a_run_from_below_the_best_point_raises(
        self, form, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # run from five scan steps below the best, the optimum stops at its
        # upper bound, that point's upper neighbour: in a fit, and in every
        # LOOCV holdout
        pick = fitmod._scan_best

        def below(sse):
            return pick(sse) - 5

        monkeypatch.setattr(fitmod, "_scan_best", below)
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        with pytest.raises(NonConvergenceError, match="above a point"):
            two_stage_fit(table, form, FitConfig())
        with pytest.raises(NonConvergenceError, match="above a point"):
            loocv(table, form, FitConfig())

    @pytest.mark.parametrize("exclude", [False, True])
    def test_sigmoid_results_at_most_a_dense_grid_of_its_domain(
        self, exclude, desk_dataset, desk_exclusion_policy
    ):
        # the sigmoid's stage 1 and every LOOCV holdout against a 201 x 201
        # grid of its scan's domain, x0 evenly spaced over [0, 30] and k
        # log-spaced over [K_FLOOR, 100], by this module's own formulas
        config = FitConfig()
        table = desk_dataset
        if exclude:
            table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        x0 = np.linspace(0.0, 30.0, 201)[:, None, None]
        k = np.geomspace(model.K_FLOOR, 100.0, 201)[None, :, None]

        def grid_min(t):
            curve = config.stage1_p_idle_kw + config.stage1_beta_kw * expit(
                (t.x - x0) / k
            )
            sse = np.sum((t.mean_kw - curve) ** 2, axis=-1)
            return float(sse.min() + np.sum(t.within_ss / t.n))

        form = ModelForm.SIGMOID
        fit = wnls_fit(
            table, form, _stage1_fixed(config), FORMS[form].shape,
            compute_se=False,
        )
        assert fit.weighted_sse <= grid_min(table) * (1.0 + 1e-12)
        rep = loocv(table, form, config)
        assert list(rep.per_holdout) == list(table.workloads())
        for wid, estimates in rep.per_holdout.items():
            held = table.drop([wid])
            sse = _stage1_sse(held, form, estimates, config)
            assert sse <= grid_min(held) * (1.0 + 1e-12), wid

    def test_a_kernel_fit_of_simple_needs_given_starts(self, desk_dataset):
        # the simple form's alpha is scanned wherever it is fitted alone;
        # to fit it with a magnitude the caller gives the start points
        form = ModelForm.SIMPLE_ASYMPTOTIC
        fixed, free = {"p_idle_kw": 1.8}, ("beta_comp_kw", "alpha")
        with pytest.raises(ValueError, match="no start points"):
            wnls_fit(desk_dataset, form, fixed, free)
        fit = wnls_fit(
            desk_dataset, form, fixed, free,
            starts=[{"beta_comp_kw": 6.6, "alpha": 1e12}],
        )
        assert fit.converged

    def test_scanned_maps_read_no_table_constants(
        self, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # LOOCV scores every holdout from one scan of the whole table, which
        # holds only where the points scored are the same for every table:
        # the scan lies on the fit's scale where the form's map reads no
        # table constants, and on the user scale where it does (the
        # sigmoid's)
        scored = []
        scores = fitmod._scores

        def spy(objective, whole, user):
            scored.append(user.copy())
            return scores(objective, whole, user)

        monkeypatch.setattr(fitmod, "_scores", spy)
        tables = (
            desk_dataset, apply_exclusions(desk_dataset, desk_exclusion_policy)
        )
        for form in (*SATURATION_FORMS, ModelForm.SIGMOID):
            scored.clear()
            for table in tables:
                wnls_fit(
                    table, *fitmod._stage1_constraints(form, FitConfig()),
                    compute_se=False,
                )
            first, second = scored
            assert np.array_equal(first, second), form

    @pytest.mark.parametrize(
        "form", (*SATURATION_FORMS, ModelForm.SIGMOID), ids=lambda f: f.value
    )
    def test_a_best_point_on_the_domain_edge_raises(
        self, form, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # a domain whose first axis ends one unit (one decade on the simple
        # form's log10 scale) below the optimum, alpha = 5.44 or 10^12.34,
        # or below the sigmoid's x0 = 9.82
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        stage_form = fitmod._stage1_constraints(form, FitConfig())[0]
        spec = FORMS[stage_form]
        end = {"simple": 11.3, "sigmoid": 9.0}.get(form.value, 4.4)
        (lo, _, space), *rest = spec.scan
        monkeypatch.setitem(
            FORMS, stage_form, replace(spec, scan=((lo, end, space), *rest))
        )
        with pytest.raises(NonConvergenceError, match="on the edge"):
            two_stage_fit(table, form, FitConfig())


# ---------------------------------------------------------------------------
# step halvings tried as one batch
# ---------------------------------------------------------------------------

def _run(objective, theta0, rows, tol, max_iter):
    """``fit._gauss_newton`` from ``theta0``, given its residual rows and
    user-scale points as ``fit._optima`` starts a run from them."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        user0 = objective.user(theta0, rows)
        resid0 = objective.residual(theta0, rows, user0)
    return fitmod._gauss_newton(
        objective, theta0, rows, resid0, user0, tol, max_iter
    )


def _kernel(objective, theta0, rows, tol, max_iter):
    """``_run``'s theta, SSE, converged flags and residual rows."""
    return _run(objective, theta0, rows, tol, max_iter)[:4]


def _reference_gauss_newton(objective, theta0, rows, tol, max_iter):
    """The kernel's rule in its plainest form, with one curve evaluation
    per halving on every live problem of the batch. Kept as the oracle for
    ``fit._gauss_newton``, with the kernel's own step, ``fit._step``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lower = objective.lower
        theta = np.maximum(theta0, lower)
        resid = objective.residual(theta, rows)
        sse = objective.sse(resid, rows)
        converged = np.zeros(len(theta), dtype=bool)
        live = np.arange(len(theta))
        for _ in range(max_iter):
            step = fitmod._step(
                objective, theta[live], rows[live], resid[live]
            )
            finite = np.isfinite(step).all(axis=-1)
            todo = live[finite]
            if not todo.size:
                break
            at, step, at_rows = theta[todo], step[finite], rows[todo]
            limit = sse[todo] * (1.0 + 1e-14) + 1e-300
            going = [todo[:0]]
            scale = 1.0
            for _ in range(fitmod.MAX_HALVINGS):
                cand = np.maximum(at + scale * step, lower)
                cand_resid = objective.residual(cand, at_rows)
                cand_sse = objective.sse(cand_resid, at_rows)
                down = cand_sse <= limit
                if down.any():
                    moved = todo[down]
                    small = fitmod._relative_change(cand[down], at[down]) < tol
                    theta[moved] = cand[down]
                    resid[moved] = cand_resid[down]
                    sse[moved] = cand_sse[down]
                    converged[moved[small]] = True
                    going.append(moved[~small])
                    if down.all():
                        break
                    up = ~down
                    todo, at, step = todo[up], at[up], step[up]
                    at_rows, limit = at_rows[up], limit[up]
                scale *= 0.5
            live = np.concatenate(going)
    return theta, sse, converged, resid


def _loocv_batch(table, form):
    """Every (holdout, start) problem of ``loocv``'s stage-1 batch:
    objective, theta0 and rows."""
    objective, _ = _holdout_objectives(table, form, FitConfig())
    g = len(table.workload_ids)
    if form is not ModelForm.SIMPLE_ASYMPTOTIC:
        theta0, rows, _ = fitmod._start_points(
            objective, _grid_starts(table, form)
        )
        return objective, theta0, rows
    # the simple form has no default grid: each holdout's percentile starts
    user = np.array([
        [s["alpha"]] for x in objective.x for s in _percentile_starts(x)
    ])
    rows = np.repeat(np.arange(g), len(user) // g)
    return objective, objective.internal(user, rows), rows


def _ridge_batch(table):
    """The ridge start of TestRelativeOffset, which stops at once: every
    halving of its step leaves the sigmoid map's domain."""
    spec = FORMS[ModelForm.SIGMOID]
    objective = fitmod._Objective(
        spec, {"p_idle_kw": 1.8, "beta_comp_kw": 6.6}, ("x0", "k"), table,
        np.arange(len(table.x))[None],
    )
    theta0, rows, _ = fitmod._start_points(
        objective, [{"x0": 9.0, "k": 0.1}]
    )
    return objective, theta0, rows


def _call_rows(monkeypatch, method="residual"):
    """Spy on an ``_Objective`` method: the list of its calls' row
    counts."""
    seen = []
    original = getattr(fitmod._Objective, method)

    def spy(self, theta, *args):
        seen.append(len(theta))
        return original(self, theta, *args)

    monkeypatch.setattr(fitmod._Objective, method, spy)
    return seen


class TestBatchedHalving:
    # each id keeps the "-False" of the one-problem-per-call case the
    # kernel no longer has, so that the ids stay stable
    @pytest.mark.parametrize(
        "problem",
        ["loocv-sigmoid", "loocv-asymptotic", "loocv-simple", "ridge"],
        ids=lambda p: f"{p}-False",
    )
    def test_bit_identical_to_one_halving_per_call(
        self, problem, desk_dataset, desk_exclusion_policy,
    ):
        if problem == "ridge":
            batch = _ridge_batch(
                apply_exclusions(desk_dataset, desk_exclusion_policy)
            )
        else:
            form = ModelForm.from_string(problem.removeprefix("loocv-"))
            batch = _loocv_batch(desk_dataset, form)
        want = _reference_gauss_newton(*batch, 1e-8, 200)
        got = _kernel(*batch, 1e-8, 200)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        # the residual rows it returns are those of its final points
        objective, _, rows = batch
        assert np.array_equal(got[3], objective.residual(got[0], rows))
        if problem == "ridge":
            assert not got[2].any()

    @pytest.mark.parametrize("slice_elements", [None, 24])
    def test_no_call_exceeds_the_slice_bound(
        self, slice_elements, desk_dataset, desk_exclusion_policy,
        monkeypatch,
    ):
        # the kernel evaluates whatever batch it is given in one call: run
        # whole (None) or by a caller in slices of slice_elements // n
        # problems, no call holds more rows than its slice, and the sliced
        # runs are bit-identical to the whole one
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        objective, theta0, rows = _loocv_batch(table, ModelForm.SIGMOID)
        whole = _kernel(objective, theta0, rows, 1e-8, 200)
        size = len(theta0)
        if slice_elements is not None:
            size = max(1, slice_elements // objective.x.shape[-1])
        assert size <= len(theta0)
        seen = _call_rows(monkeypatch)
        parts = []
        for lo in range(0, len(theta0), size):
            seen.clear()
            parts.append(_kernel(
                objective, theta0[lo:lo + size], rows[lo:lo + size],
                1e-8, 200,
            ))
            assert max(seen) <= min(size, len(theta0) - lo)
        for i, w in enumerate(whole):
            assert np.array_equal(np.concatenate([p[i] for p in parts]), w)

    def test_residual_calls_within_budget(
        self, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # after the one evaluation that scores the 121 points of its scan,
        # the desk sigmoid's LOOCV takes 5 curve evaluations of 32 residual
        # rows in all, and its fit 12 of 12 (7 in stage 2); from the
        # former ten-point start grid they took 11 of 59 and 14 of 14, one
        # evaluation per problem and halving needed 301 and 360 on the
        # (x0, k) scale, and halving calls that tried several scales per
        # problem took 387 and 62 rows
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        scan = fitmod.GRID_POINTS ** 2
        seen = _call_rows(monkeypatch)
        loocv(table, ModelForm.SIGMOID)
        assert seen[0] == scan
        assert len(seen) <= 80
        assert sum(seen[1:]) <= 150
        seen.clear()
        two_stage_fit(
            desk_dataset, ModelForm.SIGMOID,
            FitConfig(exclusions=desk_exclusion_policy),
        )
        assert seen[0] == scan
        assert len(seen) <= 65
        assert sum(seen[1:]) <= 30


# ---------------------------------------------------------------------------
# every problem of a batch in one loop, each evaluation one call
# ---------------------------------------------------------------------------

class TestOneLoop:
    @pytest.mark.parametrize("exclude", [False, True])
    @pytest.mark.parametrize(
        "form", LOOCV_BATCH_FORMS, ids=lambda f: f.value
    )
    def test_no_evaluation_in_loocv_exceeds_the_bound(
        self, form, exclude, desk_dataset, desk_exclusion_policy,
        monkeypatch,
    ):
        # the whole of loocv and of the two-stage fit, the kernel and the
        # optimum tests of their winners: no curve or derivative evaluation
        # holds more rows than the larger of the G holdouts and the
        # candidates, a scan or a start grid
        table = desk_dataset
        if exclude:
            table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        spec = FORMS[form]
        candidates = {1: fitmod.SCAN_POINTS, 2: fitmod.GRID_POINTS ** 2}[
            len(spec.scan)
        ]
        bound = max(len(table.workload_ids), candidates)
        residual = _call_rows(monkeypatch, "residual")
        derivatives = _call_rows(monkeypatch, "derivatives")
        loocv(table, form)
        two_stage_fit(table, form)
        assert max(residual) == candidates
        assert max(residual) <= bound
        assert max(derivatives) <= bound

    def test_derivative_calls_within_budget(self, desk_dataset, monkeypatch):
        # desk sigmoid LOOCV: 8 derivative evaluations, one per iteration
        # of the holdouts' batch and one for the optimum tests
        seen = _call_rows(monkeypatch, "derivatives")
        loocv(desk_dataset, ModelForm.SIGMOID)
        assert len(seen) <= 10


class TestOneConvergenceRule:
    """Every stage, one free parameter or two, converges only through the
    Gauss-Newton step, rank and offset tests."""

    def test_capped_one_parameter_fit_raises(
        self, desk_dataset, desk_exclusion_policy
    ):
        # one iteration from alpha = 50 ends near alpha = 4 (weighted SSE
        # 9.13; the optimum is alpha = 5.437, SSE 8.156): not an optimum,
        # so not a result, for one free parameter as for two
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        with pytest.raises(NonConvergenceError, match="within 1 iter"):
            wnls_fit(
                table, ModelForm.LOG_ASYMPTOTIC,
                {"p_idle_kw": 1.8, "beta_comp_kw": 6.6}, ("alpha",),
                starts=[{"alpha": 50.0}], max_iterations=1,
            )

    @pytest.mark.parametrize("max_iterations", [1, 2, 200])
    @pytest.mark.parametrize(
        "form", [ModelForm.LOG_ASYMPTOTIC, ModelForm.SIMPLE_ASYMPTOTIC],
        ids=lambda f: f.value,
    )
    @pytest.mark.parametrize("exclude", [False, True])
    def test_every_result_is_at_most_the_grid_minimum(
        self, form, max_iterations, exclude, desk_dataset,
        desk_exclusion_policy,
    ):
        config = FitConfig()
        table = desk_dataset
        if exclude:
            table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        # the default starts; a single one of them may converge to a
        # local optimum (a simple-form start at alpha = 2.3e15 stops at
        # SSE 65.67 on the excluded table), which the offset test accepts
        returned = 0
        try:
            res = wnls_fit(
                table, form, _stage1_fixed(config), FORMS[form].shape,
                max_iterations=max_iterations, compute_se=False,
            )
        except NonConvergenceError:
            pass
        else:
            returned += 1
            grid = _stage1_grid_min(table, form, config)
            assert res.weighted_sse <= grid * (1.0 + 1e-12)
        try:
            rep = loocv(
                table, form, replace(config, max_iterations=max_iterations)
            )
        except NonConvergenceError:
            pass
        else:
            returned += 1
            for wid, estimates in rep.per_holdout.items():
                held = table.drop([wid])
                sse = _stage1_sse(held, form, estimates, config)
                grid = _stage1_grid_min(held, form, config)
                assert sse <= grid * (1.0 + 1e-12), wid
        if max_iterations == 200:
            assert returned == 2


class TestClosedFormStep:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(5)
        for p in (1, 2):
            J = rng.normal(size=(6, 9, p))
            r = rng.normal(size=(6, 9))
            got = fitmod._lstsq_step([J[..., i] for i in range(p)], r)
            for b in range(6):
                want = np.linalg.lstsq(J[b], r[b], rcond=None)[0]
                np.testing.assert_allclose(got[b], want, rtol=1e-12)

    def test_rank_deficient_step_is_not_finite(self):
        # parallel columns (to rounding) or a zero column: no step, so the
        # problem stops instead of creeping along the ridge
        col = np.arange(1.0, 8.0)[None]
        r = np.ones((1, 7))
        with np.errstate(divide="ignore", invalid="ignore"):
            for J in ([col, 3.0 * col], [np.zeros((1, 7)), col]):
                assert not np.isfinite(fitmod._lstsq_step(J, r)).any()


# ---------------------------------------------------------------------------
# the hybrid Newton / Gauss-Newton step
# ---------------------------------------------------------------------------

def _stage1_objective(table, form):
    """The stage-1 objective of ``form`` on one table, and its starts (the
    simple form's on the table's percentiles)."""
    stage_form, fixed, free = fitmod._stage1_constraints(form, FitConfig())
    spec = FORMS[stage_form]
    objective = fitmod._Objective(
        spec, fixed, free, table, np.arange(len(table.x))[None]
    )
    starts = _grid_starts(table, form)
    return objective, fitmod._start_points(objective, starts)[0]


@pytest.fixture(scope="module")
def synthetic_tables(tmp_path_factory):
    """Two seeds of the synthetic desk stand-in, one table each."""
    tables = []
    for seed in (0, 1):
        made = synthetic.generate(
            tmp_path_factory.mktemp(f"tie{seed}"), seed=seed
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlopsMismatchWarning)
            tables.append(ingest.load_and_assemble(made.manifest)[1])
    return tables


STAGE1_FORMS = (
    ModelForm.SIMPLE_ASYMPTOTIC, ModelForm.LOG_ASYMPTOTIC, ModelForm.SIGMOID,
)


class TestHybridStep:
    @pytest.mark.parametrize("p", [1, 2])
    def test_newton_where_positive_definite_else_gauss_newton(self, p):
        rng = np.random.default_rng(17 + p)
        J = rng.normal(size=(400, 9, p))
        r = rng.normal(size=(400, 9))
        # curvature from small to past J'J, so that H is positive definite
        # for some problems and indefinite for others
        S = rng.normal(size=(400, p, p)) * np.geomspace(1e-3, 30.0, 400)[
            :, None, None
        ]
        S = S + np.swapaxes(S, 1, 2)
        cols = [J[..., i] for i in range(p)]
        curvature = {(i, j): S[:, i, j] for i in range(p) for j in range(i, p)}
        gauss_newton = fitmod._lstsq_step(cols, r)
        got = fitmod._lstsq_step(cols, r, curvature)
        newton = 0
        for b in range(400):
            H = J[b].T @ J[b] - S[b]
            if np.all(np.linalg.eigvalsh(H) > 0):
                newton += 1
                want = np.linalg.solve(H, J[b].T @ r[b])
                np.testing.assert_allclose(got[b], want, rtol=1e-9)
            else:
                assert np.array_equal(got[b], gauss_newton[b]), b
        assert 0 < newton < len(r)  # both branches taken
        # no curvature: the Gauss-Newton step, bit for bit
        assert np.array_equal(fitmod._lstsq_step(cols, r, {}), gauss_newton)

    @pytest.mark.parametrize("case", [
        "simple-stage1", "sigmoid-stage1", "sigmoid-stage2", "arch-fe-stage2",
    ])
    def test_second_derivatives_on_the_optimizer_scale(
        self, case, desk_dataset, desk_exclusion_policy
    ):
        # d2 curve / d theta_i d theta_j against central differences of the
        # Jacobian in theta, the log10 scale of the simple form included
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        form = ModelForm.from_string(case.rsplit("-", 1)[0])
        if case.endswith("stage1"):
            # off the last start, whose curve is not flat over the data
            # (from the first, (9, 0.1), the logistic's c-scale curvature
            # is below what a central difference resolves)
            objective, theta0 = _stage1_objective(table, form)
            theta = theta0[-1:] + 0.3
        else:
            spec = FORMS[form]
            fixed = {"p_idle_kw": 1.86, "alpha": 5.4, "x0": 9.8}
            fixed = {n: v for n, v in fixed.items() if n in spec.params}
            objective = fitmod._Objective(
                spec, fixed, spec.stage2_free, table,
                np.arange(len(table.x))[None],
            )
            theta = np.array([[6.7, 5.5][:len(spec.stage2_free)]])
            if form is ModelForm.LOG_ASYMPTOTIC_ARCH_FE:
                theta = np.array([[6.8, 6.2]])
        rows = np.zeros(1, dtype=int)
        J, H = objective.derivatives(theta, rows)
        p = theta.shape[1]
        if case == "arch-fe-stage2":
            assert H == {}  # linear in the magnitudes: no curvature
        for i in range(p):
            h = 1e-6 * max(abs(theta[0, i]), 1.0)
            step = np.zeros_like(theta)
            step[0, i] = h
            up = objective.derivatives(theta + step, rows)[0]
            down = objective.derivatives(theta - step, rows)[0]
            for j in range(p):
                numeric = (up[j] - down[j]) / (2.0 * h)
                got = H.get((min(i, j), max(i, j)), np.zeros_like(numeric))
                np.testing.assert_allclose(
                    got, numeric, rtol=1e-5,
                    atol=1e-7 * np.max(np.abs(numeric)) + 1e-300,
                    err_msg=f"{case} ({i}, {j})",
                )

    @pytest.mark.parametrize("form", STAGE1_FORMS, ids=lambda f: f.value)
    @pytest.mark.parametrize("data", ["desk", "synthetic-0", "synthetic-1"])
    def test_tied_starts_give_one_estimate(
        self, form, data, desk_dataset, desk_exclusion_policy,
        synthetic_tables,
    ):
        # every start whose SSE ties with the lowest stops at the same
        # estimates to 1e-12 relative; Gauss-Newton alone stopped them up
        # to 5e-7 apart (the simple form's flat alpha ridge)
        table = (
            apply_exclusions(desk_dataset, desk_exclusion_policy)
            if data == "desk" else synthetic_tables[int(data[-1])]
        )
        objective, theta0 = _stage1_objective(table, form)
        theta, sse, converged, _ = _kernel(
            objective, theta0, np.zeros(len(theta0), dtype=int), 1e-8, 200
        )
        tied = sse <= np.fmin.reduce(sse) * (1.0 + 1e-12)
        assert converged[tied].all()
        estimates = objective.user(theta[tied], np.zeros(tied.sum(), int))
        winner = estimates[0]
        assert np.all(np.abs(estimates - winner) <= 1e-12 * np.abs(winner))

    def test_desk_sigmoid_stage2_at_the_mpmath_optimum(
        self, desk_dataset, desk_exclusion_policy
    ):
        # the optimum over (beta, k) at the stage-1 midpoint the fit
        # reports, solved to 40 digits; Gauss-Newton alone stopped 4e-9 off
        mpmath = pytest.importorskip("mpmath")
        config = FitConfig(exclusions=desk_exclusion_policy)
        result = two_stage_fit(desk_dataset, ModelForm.SIGMOID, config)
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        with mpmath.workdps(40):
            x0 = mpmath.mpf(result.stage1.estimates["x0"])
            idle = mpmath.mpf(result.fixed["p_idle_kw"])
            data = [
                (mpmath.mpf(x), mpmath.mpf(y))
                for x, y in zip(table.x.tolist(), table.mean_kw.tolist())
            ]

            def gradient(beta, k):
                # d SSE / d (beta, k), halved
                gb = gk = mpmath.mpf(0)
                for x, y in data:
                    s = 1 / (1 + mpmath.exp(-(x - x0) / k))
                    r = y - idle - beta * s
                    gb += r * s
                    gk += r * beta * s * (1 - s) * (x - x0) / (k * k)
                return gb, gk

            optimum = mpmath.findroot(gradient, (
                mpmath.mpf(result.estimates["beta_comp_kw"]),
                mpmath.mpf(result.estimates["k"]),
            ))
            for name, want in zip(("beta_comp_kw", "k"), optimum):
                got = mpmath.mpf(result.estimates[name])
                assert abs(got - want) <= 1e-13 * abs(want), name

    def test_desk_sigmoid_stage2_takes_newton_steps(
        self, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # 6 iterations; Gauss-Newton alone took 94, its steps alternating
        # in sign and shrinking by about 0.85 each
        config = FitConfig(exclusions=desk_exclusion_policy)
        stage1 = two_stage_fit(desk_dataset, ModelForm.SIGMOID, config).stage1
        iterations = []
        step = fitmod._step

        def counted(*args):
            iterations.append(len(args[1]))
            return step(*args)

        monkeypatch.setattr(fitmod, "_step", counted)
        wnls_fit(
            apply_exclusions(desk_dataset, desk_exclusion_policy),
            ModelForm.SIGMOID,
            {"p_idle_kw": config.stage2_p_idle_kw,
             "x0": stage1.estimates["x0"]},
            ("beta_comp_kw", "k"),
            starts=[{"beta_comp_kw": config.stage1_beta_kw,
                     "k": stage1.estimates["k"]}],
        )
        assert 1 <= len(iterations) <= 10


# ---------------------------------------------------------------------------
# the optimizer map: the sigmoid's linear predictor, simple's log10 alpha
# ---------------------------------------------------------------------------

def _sigmoid_stage1(table):
    """The desk sigmoid's stage-1 objective on one table."""
    return fitmod._Objective(
        FORMS[ModelForm.SIGMOID], {"p_idle_kw": 1.8, "beta_comp_kw": 6.6},
        ("x0", "k"), table, np.arange(len(table.x))[None],
    )


class TestOptimizerMap:
    def test_sigmoid_stage1_iterates_the_linear_predictor(
        self, desk_dataset, desk_exclusion_policy
    ):
        # theta = (c0, c1) with z = c0 + c1 t, t = (x - mean) / sd over the
        # table's own intensities: k = sd / c1 and x0 = mean - c0 k
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        objective = _sigmoid_stage1(table)
        x = table.x
        mean, sd = x.mean(), x.std()
        starts = SIGMOID_STARTS
        theta, rows, _ = fitmod._start_points(objective, starts)
        user = np.array([[s["x0"], s["k"]] for s in starts])
        np.testing.assert_allclose(
            theta[:, 0], (mean - user[:, 0]) / user[:, 1]
        )
        np.testing.assert_allclose(theta[:, 1], sd / user[:, 1])
        np.testing.assert_allclose(
            objective.user(theta, rows), user, rtol=1e-14
        )
        # stage 2, x0 fixed and k free, stays on the user scale
        stage2 = fitmod._Objective(
            FORMS[ModelForm.SIGMOID], {"p_idle_kw": 1.86, "x0": 9.8},
            ("beta_comp_kw", "k"), table, np.arange(len(x))[None],
        )
        point = np.array([[6.6, 4.8]])
        assert stage2.map is None
        assert np.array_equal(stage2.user(point, rows[:1]), point)

    def test_log10_scale_of_simple_alpha(
        self, desk_dataset, desk_exclusion_policy
    ):
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        objective, theta0 = _stage1_objective(
            table, ModelForm.SIMPLE_ASYMPTOTIC
        )
        rows = np.zeros(len(theta0), dtype=int)
        user = objective.user(theta0, rows)
        assert np.array_equal(user, 10.0 ** theta0)
        assert np.array_equal(objective.internal(user, rows), np.log10(user))

    def test_outside_the_bound_is_nan(
        self, desk_dataset, desk_exclusion_policy
    ):
        # 0 < c1 <= sd / K_FLOOR, that is k >= K_FLOOR: a candidate outside
        # gets NaN parameters and residuals, which no SSE limit accepts
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        objective = _sigmoid_stage1(table)
        sd = table.x.std()
        edge = sd / model.K_FLOOR
        theta = np.array([
            [1.0, 0.5], [1.0, edge * (1.0 - 1e-12)],
            [1.0, 0.0], [1.0, -0.5], [1.0, edge * (1.0 + 1e-12)],
        ])
        rows = np.zeros(len(theta), dtype=int)
        with np.errstate(divide="ignore"):  # as in the kernel
            user = objective.user(theta, rows)
            sse = objective.sse(objective.residual(theta, rows), rows)
        assert np.isfinite(user[:2]).all()
        assert (user[:2, 1] >= model.K_FLOOR).all()
        assert np.isnan(user[2:]).all()
        assert np.isfinite(sse[:2]).all() and np.isnan(sse[2:]).all()

    def test_starts_below_the_floor_are_raised_to_it(
        self, desk_dataset, desk_exclusion_policy
    ):
        # a start below k's floor would lie outside the map's domain: it is
        # raised to the floor on the user scale before it is mapped
        objective = _sigmoid_stage1(
            apply_exclusions(desk_dataset, desk_exclusion_policy)
        )
        low, floor = (
            fitmod._start_points(objective, [{"x0": 13.0, "k": k}])[0]
            for k in (1e-5, model.K_FLOOR)
        )
        assert np.isfinite(floor).all()
        assert np.array_equal(low, floor)

    @pytest.mark.parametrize("form", STAGE1_FORMS, ids=lambda f: f.value)
    def test_jacobian_on_the_optimizer_scale(
        self, form, desk_dataset, desk_exclusion_policy
    ):
        # d curve / d theta against central differences of the curve
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        objective, theta0 = _stage1_objective(table, form)
        theta = theta0[-1:] + 0.3
        rows = np.zeros(1, dtype=int)
        J, _ = objective.derivatives(theta, rows)
        for i in range(theta.shape[1]):
            h = 1e-6 * max(abs(theta[0, i]), 1.0)
            step = np.zeros_like(theta)
            step[0, i] = h
            # the curve is the table's means less the residuals
            numeric = (
                objective.residual(theta - step, rows)
                - objective.residual(theta + step, rows)
            ) / (2.0 * h)
            np.testing.assert_allclose(
                J[i], numeric, rtol=1e-6,
                atol=1e-8 * np.max(np.abs(numeric)), err_msg=f"{i}",
            )

    def test_every_desk_start_alone_stays_in_bounds(
        self, desk_dataset, desk_exclusion_policy
    ):
        # each stage-1 start of the desk sigmoid, run on its own, ends at
        # 0 < c1 <= sd / K_FLOOR, k >= K_FLOOR. Unbounded, start (17, 0.1)
        # steps to c1 < 0 (k = -0.0028, SSE 30.44) and stops there
        table = apply_exclusions(desk_dataset, desk_exclusion_policy)
        objective = _sigmoid_stage1(table)
        edge = table.x.std() / model.K_FLOOR
        ends = {}
        for start in SIGMOID_STARTS:
            theta0, rows, _ = fitmod._start_points(objective, [start])
            theta, _, converged, _ = _kernel(
                objective, theta0, rows, 1e-8, 200
            )
            c1 = theta[0, 1]
            assert 0.0 < c1 <= edge * (1.0 + 1e-15), start
            k = objective.user(theta, rows)[0, 1]
            assert k >= model.K_FLOOR, start
            ends[start["x0"], start["k"]] = converged[0], k
        # the ridge start stops at once, unconverged; (17, 0.1) reaches
        # the optimum, at k = 4.84
        assert not ends[9.0, 0.1][0]
        assert ends[17.0, 0.1][0]
        assert ends[17.0, 0.1][1] == pytest.approx(4.8427818, rel=1e-6)

    def test_desk_sigmoid_loocv_iterations(
        self, desk_dataset, desk_exclusion_policy, monkeypatch
    ):
        # the desk sigmoid LOOCV with the shipped exclusions takes 15
        # kernel iterations; on the (x0, k) scale it took 23, with one
        # start's steps landing on the flat ridge and halving back
        iterations = []
        step = fitmod._step

        def counted(*args):
            iterations.append(len(args[1]))
            return step(*args)

        monkeypatch.setattr(fitmod, "_step", counted)
        loocv(apply_exclusions(desk_dataset, desk_exclusion_policy),
              ModelForm.SIGMOID)
        assert 1 <= len(iterations) <= 16


# ---------------------------------------------------------------------------
# each point mapped back once; the standard errors' Jacobian
# ---------------------------------------------------------------------------

def _map_backs(monkeypatch):
    """Spy on the sigmoid map's inverse (``model._predictor_inverse``)
    while ``fit._gauss_newton`` runs: per kernel run, the list of the
    points it maps back to the user scale, each as the bytes of its
    coordinates (c0, c1) and its table's mean and SD."""
    runs, inside = [], []
    spec = FORMS[ModelForm.SIGMOID]
    inverse = spec.optimizer_map.inverse

    def spy(theta, c):
        if inside:
            points = np.concatenate(
                np.broadcast_arrays(*theta, *c[:2]), axis=-1
            )
            runs[-1].extend(row.tobytes() for row in points)
        return inverse(theta, c)

    gauss_newton = fitmod._gauss_newton

    def kernel(*args):
        runs.append([])
        inside.append(True)
        try:
            return gauss_newton(*args)
        finally:
            inside.pop()

    monkeypatch.setitem(FORMS, ModelForm.SIGMOID, replace(
        spec, optimizer_map=replace(spec.optimizer_map, inverse=spy)
    ))
    monkeypatch.setattr(fitmod, "_gauss_newton", kernel)
    return runs


class TestOneMapBackPerPoint:
    @pytest.mark.parametrize("exclude", [False, True])
    @pytest.mark.parametrize("call", ["loocv", "two_stage_fit"])
    def test_no_point_of_a_run_is_mapped_back_twice(
        self, call, exclude, desk_dataset, desk_exclusion_policy,
        monkeypatch,
    ):
        # the kernel carries each point's user-scale parameters with theta,
        # so neither the derivatives at an accepted point nor the offset
        # test map it back again
        policy = desk_exclusion_policy if exclude else ()
        runs = _map_backs(monkeypatch)
        if call == "loocv":
            loocv(apply_exclusions(desk_dataset, policy), ModelForm.SIGMOID)
        else:
            two_stage_fit(
                desk_dataset, ModelForm.SIGMOID, FitConfig(exclusions=policy)
            )
        # LOOCV's holdouts and stage 1 run on the map's (c0, c1); stage 2
        # frees k and the magnitude, which it iterates as they are
        assert runs[0] and not any(runs[1:])
        for points in runs:
            twice = len(points) - len(set(points))
            assert twice == 0


class TestStandardErrorJacobian:
    @pytest.mark.parametrize("exclude", [False, True])
    @pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
    def test_equal_to_the_gradient_at_the_optimum(
        self, form, exclude, desk_dataset, desk_exclusion_policy,
        monkeypatch,
    ):
        # without an optimizer map the standard errors take the Jacobian
        # of the offset test; with one, the fit calls gradient. Either way
        # they equal those from objective.gradient at the optimum
        config = FitConfig(
            exclusions=desk_exclusion_policy if exclude else ()
        )
        table = apply_exclusions(desk_dataset, config.exclusions)
        calls = _call_rows(monkeypatch, "gradient")
        result = two_stage_fit(desk_dataset, form, config)
        gradient_calls = len(calls)
        mapped = 0
        rows = np.zeros(1, dtype=int)
        for stage in (result.stage1, result):
            objective = fitmod._Objective(
                FORMS[stage.form], stage.fixed, stage.param_order, table,
                np.arange(len(table.x))[None],
            )
            mapped += objective.map is not None
            user = np.array([[stage.estimates[n] for n in stage.param_order]])
            cov = cluster_robust_covariance(
                np.column_stack(
                    [g[0] for g in objective.gradient(user, rows)]
                ),
                objective.residual(
                    objective.internal(user, rows), rows, user
                )[0],
                np.ones(len(table.workload_ids)), table.workload_ids,
            )
            assert stage.covariance == tuple(
                tuple(float(v) for v in row) for row in cov
            )
            assert stage.robust_se == {
                n: float(np.sqrt(max(cov[i, i], 0.0)))
                for i, n in enumerate(stage.param_order)
            }
        # stage 1 of simple (log10 alpha) and of the sigmoid (c0, c1)
        assert mapped == (
            form in (ModelForm.SIMPLE_ASYMPTOTIC, ModelForm.SIGMOID)
        )
        assert gradient_calls == mapped


class TestTwoSidedTTail:
    """The p-value's t tail against scipy's ``stdtr`` (scipy comes with
    the test extra) and, where scipy itself loses digits, against closed
    forms and mpmath."""

    @staticmethod
    def assert_close(got, want, rtol=1e-12):
        assert abs(got - want) <= rtol * want, (got, want)

    def test_matches_scipy_on_a_grid(self):
        # below |t| = 1e-3 stdtr itself loses digits (2.8e-11 off at df 1,
        # t 1e-6); those t are covered by the closed forms below
        ts = np.concatenate(
            [np.linspace(0.0, 10.0, 201), np.geomspace(1e-3, 1e3, 61)]
        )
        for df in range(1, 201):
            want = 2.0 * stdtr(df, -ts)
            for t, w in zip(ts.tolist(), want.tolist()):
                if w > 0.0:
                    self.assert_close(fitmod._two_sided_t_p(t, df), w)

    def test_complement_branch_and_deep_tail(self):
        # near x = (a + 1)/(a + b + 2) at large df the complement branch
        # subtracts from one, and the 1e-70 tail needs log-space care
        cases = [(df, t) for df in (165, 173, 177, 199)
                 for t in (1.6, 1.7, 1.7175, 1.8)]
        cases += [(df, -float(stdtrit(df, 0.5e-70))) for df in range(56, 60)]
        for df, t in cases:
            want = 2.0 * float(stdtr(df, -t))
            assert want > 0.0
            self.assert_close(fitmod._two_sided_t_p(t, df), want)

    def test_closed_forms_at_small_t(self):
        # df 1 is the Cauchy distribution, df 2 has p = 1 - t/sqrt(2 + t^2)
        for t in (1e-12, 1e-8, 1e-6, 1e-4, 0.3):
            self.assert_close(
                fitmod._two_sided_t_p(t, 1), 1.0 - 2.0 * np.arctan(t) / np.pi
            )
            self.assert_close(
                fitmod._two_sided_t_p(t, 2), 1.0 - t / np.sqrt(2.0 + t * t)
            )

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for df, t in ((1, 1e-8), (1, 1e150), (57, 122.47), (173, 727.66),
                      (200, 0.01), (10_000, 1.7318)):
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            want = float(mpmath.betainc(df / 2, 0.5, 0, x, regularized=True))
            self.assert_close(fitmod._two_sided_t_p(t, df), want)

    def test_edge_cases(self):
        for df in (1, 2, 30, 200):
            assert fitmod._two_sided_t_p(0.0, df) == 1.0
            assert fitmod._two_sided_t_p(-0.0, df) == 1.0
            # se == 0 gives t = inf
            assert fitmod._two_sided_t_p(np.inf, df) == 0.0
            assert fitmod._two_sided_t_p(-np.inf, df) == 0.0
            assert fitmod._two_sided_t_p(1e200, df) == 0.0
            assert np.isnan(fitmod._two_sided_t_p(np.nan, df))
            assert fitmod._two_sided_t_p(-2.5, df) == fitmod._two_sided_t_p(
                2.5, df
            )


def test_import_does_not_load_scipy_stats():
    src = str(Path(nodepower.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nodepower; "
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
