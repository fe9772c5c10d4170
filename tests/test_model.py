"""Model forms: closed-form oracles, serialization, presets, invariants."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit

from nodepower import model
from nodepower.files import ConfigError
from nodepower.model import (
    FittedModel,
    ModelForm,
    PowerParams,
    TdpConfig,
    load_model,
    predict_energy,
    predict_power,
    preset,
    preset_names,
    save_model,
    tdp_bounds,
)
from nodepower.reference import Architecture_CNN, Architecture_LLM

ASYM = PowerParams(p_idle_kw=1.86, beta_comp_kw=6.65, alpha=5.11)
FE = PowerParams(
    p_idle_kw=1.86, beta_llm_kw=6.89, beta_cnn_kw=6.28, alpha=5.11
)
SIG = PowerParams(p_idle_kw=1.86, beta_comp_kw=6.94, x0=11.46, k=0.19)
SIMPLE = PowerParams(p_idle_kw=1.86, beta_comp_kw=6.65, alpha=1e15)


class TestPredictPower:
    def test_log_asymptotic_closed_form(self):
        x = 16.0
        want = 1.86 + 6.65 * x / (5.11 + x)
        got = predict_power(ModelForm.LOG_ASYMPTOTIC, ASYM, x)
        assert got == pytest.approx(want, rel=1e-15)

    def test_arch_fe_selects_magnitude_by_architecture(self):
        x = 13.0
        llm = predict_power(
            ModelForm.LOG_ASYMPTOTIC_ARCH_FE, FE, x, arch=Architecture_LLM
        )
        cnn = predict_power(
            ModelForm.LOG_ASYMPTOTIC_ARCH_FE, FE, x, arch=Architecture_CNN
        )
        g = x / (5.11 + x)
        assert llm == pytest.approx(1.86 + 6.89 * g, rel=1e-15)
        assert cnn == pytest.approx(1.86 + 6.28 * g, rel=1e-15)
        assert llm > cnn

    def test_arch_fe_requires_architecture(self):
        with pytest.raises(ValueError):
            predict_power(ModelForm.LOG_ASYMPTOTIC_ARCH_FE, FE, 13.0)

    def test_sigmoid_closed_form(self):
        x = 12.0
        want = 1.86 + 6.94 * expit((x - 11.46) / 0.19)
        got = predict_power(ModelForm.SIGMOID, SIG, x)
        assert got == pytest.approx(want, rel=1e-15)

    def test_sigmoid_midpoint_is_half_magnitude(self):
        got = predict_power(ModelForm.SIGMOID, SIG, 11.46)
        assert got == pytest.approx(1.86 + 6.94 / 2.0, rel=1e-15)

    def test_simple_form_works_on_raw_operations(self):
        x = 15.0  # 10^15 raw ops
        want = 1.86 + 6.65 * 1e15 / (1e15 + 1e15)
        got = predict_power(ModelForm.SIMPLE_ASYMPTOTIC, SIMPLE, x)
        assert got == pytest.approx(want, rel=1e-12)

    def test_asymptotic_half_saturation_at_alpha(self):
        params = PowerParams(p_idle_kw=2.0, beta_comp_kw=6.0, alpha=7.5)
        got = predict_power(ModelForm.LOG_ASYMPTOTIC, params, 7.5)
        assert got == 2.0 + 6.0 * 0.5

    def test_nonpositive_intensity_rejected_for_log_forms(self):
        with pytest.raises(ValueError):
            predict_power(ModelForm.LOG_ASYMPTOTIC, ASYM, 0.0)
        with pytest.raises(ValueError):
            predict_power(ModelForm.LOG_ASYMPTOTIC, ASYM, -3.0)

    def test_vectorized_input(self):
        xs = np.array([11.0, 13.0, 15.0, 17.0])
        got = predict_power(ModelForm.LOG_ASYMPTOTIC, ASYM, xs)
        want = 1.86 + 6.65 * xs / (5.11 + xs)
        np.testing.assert_allclose(got, want, rtol=1e-15)


class TestLogistic:
    """The sigmoid form's numpy logistic against scipy's ``expit`` (scipy
    comes with the test extra)."""

    def test_within_four_ulp_of_scipy(self):
        z = np.linspace(-800.0, 800.0, 320_001)
        got, want = model._logistic(z), expit(z)
        # for z <= -708 the numpy form holds at its floor, where scipy goes
        # on down to the smallest normal float, then subnormal, then 0
        floor = 1.0 / (1.0 + np.exp(708.0))
        above = z > -708.0
        np.testing.assert_array_max_ulp(got[above], want[above], maxulp=4)
        assert np.all(got[~above] == floor)

    def test_exactly_half_at_zero(self):
        assert model._logistic(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]

    def test_nan_passes_through(self):
        got = model._logistic(np.array([np.nan, 1.0]))
        assert np.isnan(got[0]) and got[1] == pytest.approx(expit(1.0))

    def test_no_overflow_or_underflow(self):
        with np.errstate(all="raise"):
            got = model._logistic(np.array([-1000.0, -709.0, 709.0, 1000.0]))
        assert got[2] == got[3] == 1.0
        assert 0.0 < got[0] == got[1] < 3.4e-308


class TestPredictEnergy:
    def test_energy_is_power_times_node_hours(self):
        x = 16.973
        p = predict_power(
            ModelForm.LOG_ASYMPTOTIC_ARCH_FE, FE, x, arch=Architecture_LLM
        )
        e = predict_energy(
            ModelForm.LOG_ASYMPTOTIC_ARCH_FE, FE, x, Architecture_LLM,
            nodes=64, duration_h=0.95,
        )
        assert e == pytest.approx(p * 64 * 0.95, rel=1e-15)


class TestPowerParams:
    def test_validate_rejects_missing_required_field(self):
        p = PowerParams(p_idle_kw=1.86, beta_comp_kw=6.65)  # no alpha
        with pytest.raises(ValueError):
            p.validate_for(ModelForm.LOG_ASYMPTOTIC)

    def test_validate_rejects_foreign_fields(self):
        p = PowerParams(
            p_idle_kw=1.86, beta_comp_kw=6.65, alpha=5.11, x0=11.0,
        )
        with pytest.raises(ValueError):
            p.validate_for(ModelForm.LOG_ASYMPTOTIC)

    def test_as_dict_drops_unset_fields(self):
        d = ASYM.as_dict()
        assert d == {
            "p_idle_kw": 1.86, "beta_comp_kw": 6.65, "alpha": 5.11,
        }


class TestFormTable:
    @pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
    def test_gradient_matches_central_difference_of_curve(self, form):
        spec = model.FORMS[form]
        params = {
            ModelForm.SIMPLE_ASYMPTOTIC: SIMPLE,
            ModelForm.LOG_ASYMPTOTIC: ASYM,
            ModelForm.LOG_ASYMPTOTIC_ARCH_FE: FE,
            ModelForm.SIGMOID: SIG,
        }[form].as_dict()
        assert tuple(params) == spec.params
        x = np.linspace(5.0, 20.0, 61)
        for is_llm in (np.ones_like(x, bool), np.zeros_like(x, bool)):
            grad = spec.gradient(params, x, is_llm)
            for name in spec.params:
                h = 1e-6 * abs(params[name])
                up = spec.curve({**params, name: params[name] + h}, x, is_llm)
                down = spec.curve(
                    {**params, name: params[name] - h}, x, is_llm
                )
                numeric = (up - down) / (2.0 * h)
                scale = np.max(np.abs(numeric))
                np.testing.assert_allclose(
                    grad[name], numeric, rtol=1e-6, atol=1e-8 * scale,
                    err_msg=f"{form.value} d/d{name}",
                )


    @pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
    def test_second_derivatives_match_central_difference_of_gradient(
        self, form
    ):
        spec = model.FORMS[form]
        params = PARAMS[form].as_dict()
        order = spec.params.index
        # the logistic's second derivatives vary over a few k around x0
        x = np.linspace(10.5, 12.5, 61) if form is ModelForm.SIGMOID else (
            np.linspace(5.0, 20.0, 61)
        )
        for is_llm in (np.ones_like(x, bool), np.zeros_like(x, bool)):
            _, second = spec.derivatives(params, x, is_llm)
            assert all(order(a) < order(b) or a == b for a, b in second)
            for a in spec.params:
                h = 1e-5 * abs(params[a])
                up = spec.gradient({**params, a: params[a] + h}, x, is_llm)
                down = spec.gradient(
                    {**params, a: params[a] - h}, x, is_llm
                )
                for b in spec.params:
                    numeric = (up[b] - down[b]) / (2.0 * h)
                    key = (a, b) if order(a) <= order(b) else (b, a)
                    got = second.get(key, np.zeros_like(x))
                    scale = np.max(np.abs(numeric))
                    np.testing.assert_allclose(
                        got, numeric, rtol=1e-5, atol=1e-7 * scale + 1e-300,
                        err_msg=f"{form.value} d2/d{a} d{b}",
                    )
                    # a pair the table leaves out is zero everywhere
                    assert key in second or not np.any(numeric), key

    @pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
    def test_derivatives_from_kept_shape_values_are_bit_identical(
        self, form
    ):
        spec = model.FORMS[form]
        p = PARAMS[form].as_dict()
        x = GRID[form]
        is_llm = np.arange(x.size) % 2 == 0
        # only the named parameters, and no magnitude-shape term when no
        # magnitude is named
        gradient, second = spec.derivatives(p, x, is_llm, spec.shape)
        assert tuple(gradient) == spec.shape
        assert all(a in spec.shape and b in spec.shape for a, b in second)


PARAMS = {
    ModelForm.SIMPLE_ASYMPTOTIC: SIMPLE,
    ModelForm.LOG_ASYMPTOTIC: ASYM,
    ModelForm.LOG_ASYMPTOTIC_ARCH_FE: FE,
    ModelForm.SIGMOID: SIG,
}

# log10 intensities per form: the saturation ratio reaches exactly 1, and
# the logistic's argument passes +-708 (its clip) on both sides
GRID = {
    ModelForm.SIMPLE_ASYMPTOTIC: np.linspace(0.25, 150.0, 599),
    ModelForm.LOG_ASYMPTOTIC: np.concatenate(
        [np.linspace(0.25, 40.0, 160), np.geomspace(50.0, 1e17, 16)]
    ),
    ModelForm.SIGMOID: np.concatenate(
        [np.linspace(-200.0, 200.0, 801), np.linspace(5.0, 20.0, 151)]
    ),
}
GRID[ModelForm.LOG_ASYMPTOTIC_ARCH_FE] = GRID[ModelForm.LOG_ASYMPTOTIC]


def written_out(form, p, x, llm):
    """The module docstring's curve p_idle + beta * g and its gradient,
    written out per form in the operation order of the model: the shape
    parameters' by the chain rule through g's argument w, beta g'(w)
    dw/dparameter."""
    if form is ModelForm.SIGMOID:
        x0, k, beta = p["x0"], p["k"], p["beta_comp_kw"]
        z = (x - x0) / k
        assert z.min() < -708.0 and z.max() > 708.0
        g = 1.0 / (1.0 + np.exp(-np.clip(z, -708.0, 708.0)))
        slope = beta * (g * (1.0 - g))
        grad = {
            "beta_comp_kw": g, "x0": slope * -(1.0 / k),
            "k": slope * ((x - x0) / k * -(1.0 / k)),
        }
    else:
        if form is ModelForm.SIMPLE_ASYMPTOTIC:
            x = 10.0 ** x
        alpha = p["alpha"]
        g = x / (alpha + x)
        assert g.max() == 1.0
        if form is ModelForm.LOG_ASYMPTOTIC_ARCH_FE:
            mine, other = (
                ("beta_llm_kw", "beta_cnn_kw") if llm
                else ("beta_cnn_kw", "beta_llm_kw")
            )
            grad = {mine: g, other: np.zeros_like(g)}
        else:
            mine = "beta_comp_kw"
            grad = {mine: g}
        beta = p[mine]
        grad["alpha"] = beta * (-x / np.square(alpha + x))
    grad["p_idle_kw"] = np.ones_like(g)
    return p["p_idle_kw"] + beta * g, grad


@pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
@pytest.mark.parametrize("llm", [True, False], ids=["llm", "cnn"])
def test_curve_and_gradient_equal_the_written_out_forms(form, llm):
    spec = model.FORMS[form]
    p = PARAMS[form].as_dict()
    x = GRID[form]
    is_llm = np.full(x.shape, llm)
    want_curve, want_grad = written_out(form, p, x, is_llm[0])
    assert np.all(spec.curve(p, x, is_llm) == want_curve)
    grad = spec.gradient(p, x, is_llm)
    assert sorted(grad) == sorted(want_grad)
    for name, want in want_grad.items():
        assert np.all(grad[name] == want), name


@pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
def test_every_parameter_but_x0_must_be_positive(form):
    good = PARAMS[form]
    good.validate_for(form)
    for name in good.as_dict():
        if name == "x0":
            for value in (-3.0, -1.0, 0.0):
                replace(good, x0=value).validate_for(form)
            continue
        for value in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                replace(good, **{name: value}).validate_for(form)


@pytest.mark.parametrize("form", list(ModelForm), ids=lambda f: f.value)
def test_every_parameter_must_be_finite(form):
    # inf > 0 holds, and the signed x0 has no positivity test to fail
    good = PARAMS[form]
    for name in good.as_dict():
        bad = (math.inf, -math.inf, math.nan) if name == "x0" else (math.inf,)
        for value in bad:
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                replace(good, **{name: value}).validate_for(form)


@pytest.mark.parametrize(
    "variant, name, value",
    [("sigmoid", "x0", math.nan), ("asymptotic", "alpha", math.inf)],
)
def test_non_finite_parameter_file_rejected(tmp_path, variant, name, value):
    path = tmp_path / "model.json"
    save_model(preset(variant), path)
    doc = json.loads(path.read_text())
    doc["params"][name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        load_model(path)


class TestTdp:
    def test_bounds_arithmetic(self):
        tdp = TdpConfig(chip_tdp_kw=0.7)
        chip, node = tdp_bounds(tdp, nodes=64, duration_h=0.95)
        assert chip == pytest.approx(0.7 * 8 * 64 * 0.95, rel=1e-15)
        assert node == pytest.approx(10.2 * 64 * 0.95, rel=1e-15)
        assert node == pytest.approx(620.16, abs=1e-9)

    def test_chip_never_exceeds_node(self):
        tdp = TdpConfig(chip_tdp_kw=0.7)
        for nodes in (1, 8, 64):
            chip, node = tdp_bounds(tdp, nodes=nodes, duration_h=2.0)
            assert chip <= node

    def test_chip_rating_above_node_budget_rejected(self):
        with pytest.raises(ValueError):
            TdpConfig(chip_tdp_kw=2.0, node_tdp_kw=10.2, gpus_per_node=8)

    @pytest.mark.parametrize("name", ["chip_tdp_kw", "node_tdp_kw"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -0.7])
    def test_ratings_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=(
            f"^{name} must be a positive, finite rating in kW"
        )):
            TdpConfig(**{"chip_tdp_kw": 0.7, name: value})


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        m = FittedModel(
            form=ModelForm.SIGMOID,
            params=SIG,
            robust_se={"beta_comp_kw": 1.33, "k": 0.16},
            provenance={"kind": "preset", "name": "sigmoid"},
        )
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        assert back.form is m.form
        assert back.params == m.params
        assert dict(back.robust_se) == dict(m.robust_se)
        assert dict(back.provenance) == dict(m.provenance)

    def test_round_trip_preserves_bits(self, tmp_path):
        # repr-level float serialization: the awkwardest decimals survive
        params = PowerParams(
            p_idle_kw=1.8600000000000001,
            beta_comp_kw=6.652349857394857,
            alpha=5.110000000000001,
        )
        m = FittedModel(form=ModelForm.LOG_ASYMPTOTIC, params=params)
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        assert back.params.beta_comp_kw == params.beta_comp_kw
        assert back.params.alpha == params.alpha

    def test_double_save_is_byte_identical(self, tmp_path):
        m = preset("arch-fe")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, a)
        save_model(m, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else/9"}))
        with pytest.raises(ValueError):
            load_model(path)

    def test_params_inconsistent_with_form_rejected(self, tmp_path):
        doc = {
            "format": model.MODEL_FILE_FORMAT,
            "variant": "sigmoid",
            "params": {"p_idle_kw": 1.86, "beta_comp_kw": 6.94},  # no x0/k
            "robust_se": {},
            "provenance": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)


class TestPresets:
    def test_names(self):
        assert set(preset_names()) == {
            "asymptotic", "arch-fe", "sigmoid", "sigmoid-postexclusion",
        }

    def test_arch_fe_coefficients(self):
        m = preset("arch-fe")
        assert m.params.p_idle_kw == 1.86
        assert m.params.beta_llm_kw == 6.89
        assert m.params.beta_cnn_kw == 6.28
        assert m.params.alpha == 5.11

    def test_preset_predicts_documented_example(self):
        m = preset("arch-fe")
        x = math.log10(9.40e16)
        assert m.power_kw(x, arch=Architecture_LLM) == pytest.approx(
            7.16, abs=0.01
        )

    def test_provenance_excludes_validation_ids(self):
        from nodepower.reference import VALIDATION_WORKLOADS
        m = preset("asymptotic")
        training = set(m.provenance["training_workload_ids"])
        validation = {v.workload_id for v in VALIDATION_WORKLOADS}
        assert not training & validation

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("nope")

    def test_presets_are_independent_instances(self):
        assert preset("sigmoid").params.x0 == 11.46
        assert preset("sigmoid-postexclusion").params.x0 == 9.91


# hypothesis-backed structural invariants; the exhaustive randomized sweep
# lives with the acceptance checks

finite_params = st.tuples(
    st.floats(min_value=0.5, max_value=3.0),    # p_idle
    st.floats(min_value=0.5, max_value=10.0),   # beta
    st.floats(min_value=0.1, max_value=50.0),   # alpha
)


@given(finite_params, st.floats(min_value=1e-3, max_value=100.0))
def test_asymptotic_bounded(params, x):
    p_idle, beta, alpha = params
    pp = PowerParams(p_idle_kw=p_idle, beta_comp_kw=beta, alpha=alpha)
    y = predict_power(ModelForm.LOG_ASYMPTOTIC, pp, x)
    assert p_idle < y < p_idle + beta


@given(
    finite_params,
    st.floats(min_value=1e-3, max_value=99.0),
    st.floats(min_value=1e-4, max_value=1.0),
)
def test_asymptotic_monotone(params, x, dx):
    p_idle, beta, alpha = params
    pp = PowerParams(p_idle_kw=p_idle, beta_comp_kw=beta, alpha=alpha)
    lo = predict_power(ModelForm.LOG_ASYMPTOTIC, pp, x)
    hi = predict_power(ModelForm.LOG_ASYMPTOTIC, pp, x + dx)
    assert hi > lo


@given(
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=5.0, max_value=20.0),
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_sigmoid_symmetry_about_midpoint(p_idle, beta, x0, k, offset):
    pp = PowerParams(p_idle_kw=p_idle, beta_comp_kw=beta, x0=x0, k=k)
    above = predict_power(ModelForm.SIGMOID, pp, x0 + offset * k)
    below = predict_power(ModelForm.SIGMOID, pp, x0 - offset * k)
    mid = p_idle + beta / 2.0
    assert (above - mid) == pytest.approx(-(below - mid), abs=1e-9 * beta)
