import math

import pytest

from casimag import (ExperimentDataset, GeometryParams, MatsubaraContext,
                     apply_pfa_correction, compare_models, gradient_curves,
                     lifshitz, nickel, pressure, roughness_factor)
from casimag.lifshitz import PressureResult
from casimag.sphere_plate import read_theta_table, theta_at

CTX = MatsubaraContext(temperature=300.0)
GEOM = GeometryParams(radius=61.71e-6, delta_s=1.5e-9, delta_p=1.4e-9)
# no roughness and no theta table: gradient_curves gives the bare PFA
# gradient -2 pi R P(a, T)
SMOOTH = GeometryParams(radius=GEOM.radius)


def _gradient_at(a, model, geom, ctx):
    """The gradient of one model at one separation."""
    (grad,), = gradient_curves([a], [model], geom, ctx)
    return grad


def _force_pressure(monkeypatch, value):
    forced = PressureResult(pressure=value, terms_used=1,
                            series_tail_bound=0.0, quad_error=0.0)
    monkeypatch.setattr("casimag.sphere_plate.pressure_curves",
                        lambda a, models, ctx, *args: [[forced] * len(a)
                                                       for _ in models])


class TestGradientPfa:
    def test_unit_pressure_scaling(self, monkeypatch):
        _force_pressure(monkeypatch, -1.0)
        grad = _gradient_at(3e-7, nickel("drude"), SMOOTH, CTX)
        # 2 pi R with R = 61.71 um
        assert grad == pytest.approx(3.877353653060523e-4, rel=1e-12)

    def test_linear_in_radius(self, monkeypatch):
        _force_pressure(monkeypatch, -2.5)
        g1 = _gradient_at(3e-7, nickel("drude"), SMOOTH, CTX)
        geom2 = GeometryParams(radius=2 * GEOM.radius)
        g2 = _gradient_at(3e-7, nickel("drude"), geom2, CTX)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-14)

    def test_composes_with_pressure(self):
        a = 3e-7
        model = nickel("nonlocal")
        grad = _gradient_at(a, model, SMOOTH, CTX)
        p = pressure(a, model, CTX).pressure
        assert grad == pytest.approx(-2.0 * math.pi * GEOM.radius * p,
                                     rel=1e-12)
        assert grad > 0.0

    def test_proximity_regime_enforced(self):
        with pytest.raises(ValueError, match="proximity"):
            _gradient_at(7e-6, nickel("drude"), SMOOTH, CTX)


class TestRoughness:
    def test_identity_for_smooth_surfaces(self):
        assert 1.25 * roughness_factor(3e-7, SMOOTH) == 1.25

    def test_nickel_experiment_magnitude(self):
        # 1 + 10 (1.5^2 + 1.4^2) nm^2 / (300 nm)^2, a 0.05% effect
        factor = roughness_factor(3e-7, GEOM)
        assert factor == pytest.approx(1.0004677777777778, rel=1e-12)
        assert abs(factor - 1.000468) <= 1e-6

    def test_quadratic_decay(self):
        f1 = roughness_factor(3e-7, GEOM) - 1.0
        f2 = roughness_factor(6e-7, GEOM) - 1.0
        assert f2 == pytest.approx(f1 / 4.0, rel=1e-12)

    def test_monotone_decrease(self):
        values = [roughness_factor(a, GEOM)
                  for a in (2e-7, 3e-7, 5e-7, 1e-6)]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_perturbative_bound_enforced(self):
        with pytest.raises(ValueError, match="perturbative"):
            gradient_curves([1e-8], [nickel("drude")], GEOM, CTX)


class TestPfaCorrection:
    def test_absent_table_is_identity(self):
        assert apply_pfa_correction(3.7, 3e-7, GEOM) == 3.7

    def test_constant_negative_unity(self):
        geom = GeometryParams(radius=61.71e-6,
                              theta_table=((1e-9, -1.0), (1e-3, -1.0)))
        a = 0.005 * geom.radius
        assert apply_pfa_correction(1.0, a, geom) == pytest.approx(0.995,
                                                                   rel=1e-12)

    def test_linear_interpolation(self):
        geom = GeometryParams(radius=61.71e-6,
                              theta_table=((100e-9, -0.2), (200e-9, -0.6)))
        assert theta_at(150e-9, geom) == pytest.approx(-0.4, rel=1e-12)
        assert theta_at(125e-9, geom) == pytest.approx(-0.3, rel=1e-12)

    def test_nodes_and_a_single_row_give_their_theta_exactly(self):
        rows = ((100e-9, 0.1), (200e-9, 0.7), (300e-9, -0.3))
        for table in (rows, rows[:1]):
            geom = GeometryParams(radius=61.71e-6, theta_table=table)
            assert [theta_at(a, geom) for a, _ in table] == \
                [theta for _, theta in table]

    def test_out_of_range_uses_endpoint_with_warning(self):
        geom = GeometryParams(radius=61.71e-6,
                              theta_table=((100e-9, -0.2), (200e-9, -0.6)))
        with pytest.warns(UserWarning, match="outside theta table"):
            assert theta_at(300e-9, geom) == -0.6
        with pytest.warns(UserWarning):
            assert theta_at(50e-9, geom) == -0.2

    def test_theta_magnitude_validated(self):
        with pytest.raises(ValueError):
            GeometryParams(radius=1e-5, theta_table=((1e-9, -1.5),))

    @pytest.mark.parametrize("kwargs", [
        {"radius": math.nan},
        {"radius": math.inf},
        {"radius": 1e-5, "delta_s": math.nan},
        {"radius": 1e-5, "delta_p": math.inf},
        {"radius": 1e-5, "theta_table": ((math.inf, 0.1),)},
        {"radius": 1e-5, "theta_table": ((1e-9, math.nan),)},
        {"radius": 1e-5, "theta_table": ()},
    ], ids=["radius-nan", "radius-inf", "delta_s-nan", "delta_p-inf",
            "theta_a-inf", "theta-nan", "theta-empty"])
    def test_non_finite_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeometryParams(**kwargs)

    def test_correction_order_is_immaterial_to_second_order(self):
        geom = GeometryParams(radius=61.71e-6, delta_s=1.5e-9, delta_p=1.4e-9,
                              theta_table=((1e-9, -1.0), (1e-3, -1.0)))
        a, grad = 3e-7, 1.0
        ab = apply_pfa_correction(grad * roughness_factor(a, geom), a, geom)
        ba = apply_pfa_correction(grad, a, geom) * roughness_factor(a, geom)
        assert ab == pytest.approx(ba, rel=1e-15)  # multiplicative factors
        additive = grad * (1.0 + (roughness_factor(a, geom) - 1.0)
                           + theta_at(a, geom) * a / geom.radius)
        assert abs(ab - additive) < 1e-5 * abs(grad)


def synthetic_dataset(model, geom, separations, err=1e-8, offset=0.0):
    grads, = gradient_curves(separations, [model], geom, CTX)
    return ExperimentDataset(a=tuple(separations),
                             grad_expt=tuple(g + offset for g in grads),
                             err_expt=tuple(err for _ in grads))


class TestCompare:
    SEPARATIONS = (223e-9, 300e-9, 420e-9, 550e-9)

    def test_self_consistency(self):
        model = nickel("nonlocal")
        data = synthetic_dataset(model, GEOM, self.SEPARATIONS)
        rows, = compare_models(data, [model], GEOM, CTX)
        for row in rows:
            assert row.delta == pytest.approx(0.0, abs=1e-12 * row.grad_theory)
            assert row.inside_ci

    def test_offset_data_all_outside(self):
        model = nickel("drude")
        base = synthetic_dataset(model, GEOM, self.SEPARATIONS, err=1e-8)
        shifted = ExperimentDataset(
            a=base.a,
            grad_expt=tuple(g + 3.0 * 1e-8 for g in base.grad_expt),
            err_expt=base.err_expt)
        rows, = compare_models(shifted, [model], GEOM, CTX)
        assert all(not row.inside_ci for row in rows)

    def test_translation_consistency(self):
        model = nickel("plasma")
        data = synthetic_dataset(model, GEOM, self.SEPARATIONS, err=1e-7)
        shift = 2.5e-7
        shifted = ExperimentDataset(
            a=data.a,
            grad_expt=tuple(g + shift for g in data.grad_expt),
            err_expt=data.err_expt)
        r1, = compare_models(data, [model], GEOM, CTX)
        r2, = compare_models(shifted, [model], GEOM, CTX)
        for a, b in zip(r1, r2):
            assert b.delta == pytest.approx(a.delta - shift, rel=1e-12)

    def test_model_discrimination_systematic_sign(self):
        # data generated from the dissipative local theory, compared
        # against the wavevector-dependent one: differences are one-signed
        data = synthetic_dataset(nickel("drude"), GEOM, self.SEPARATIONS)
        rows, = compare_models(data, [nickel("nonlocal")], GEOM, CTX)
        assert all(row.delta < 0.0 for row in rows)

    def test_gradient_curve_matches_per_point_gradient(self):
        model = nickel("nonlocal")
        curve, = gradient_curves(self.SEPARATIONS, [model], GEOM, CTX)
        for a, grad in zip(self.SEPARATIONS, curve):
            assert grad == pytest.approx(_gradient_at(a, model, GEOM, CTX),
                                         rel=1e-12)

    def test_all_models_match_their_single_model_curves(self):
        models = [nickel(v) for v in ("nonlocal", "plasma", "drude")]
        data = synthetic_dataset(models[2], GEOM, self.SEPARATIONS, err=1e-9)
        curves = gradient_curves(self.SEPARATIONS, models, GEOM, CTX)
        rows = compare_models(data, models, GEOM, CTX, err_theory_rel=0.01)
        for model, curve, comp in zip(models, curves, rows):
            assert [curve] == gradient_curves(self.SEPARATIONS, [model], GEOM,
                                              CTX)
            assert [comp] == compare_models(data, [model], GEOM, CTX,
                                            err_theory_rel=0.01)

    @pytest.mark.parametrize("separations,geom,match", [
        ((223e-9, 300e-9, 7e-6), GEOM, "proximity"),
        ((223e-9, 300e-9, 420e-9),
         GeometryParams(radius=61.71e-6, delta_s=25e-9), "perturbative"),
        ((0.0, 223e-9, 300e-9), SMOOTH, "separation must be finite and > 0"),
        ((-1e-7, 223e-9, 300e-9), SMOOTH,
         "separation must be finite and > 0"),
    ])
    def test_every_separation_checked_before_any_pressure(
            self, monkeypatch, separations, geom, match):
        calls = []
        kernel = lifshitz.lifshitz_summand

        def spy(y, xi, *args):
            calls.append(xi)
            return kernel(y, xi, *args)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        data = ExperimentDataset(a=separations, grad_expt=(1e-4,) * 3,
                                 err_expt=(1e-6,) * 3)
        with pytest.raises(ValueError, match=match):
            compare_models(data, [nickel("drude")], geom, CTX)
        assert calls == []

    @pytest.mark.parametrize("err_theory_rel", [math.nan, math.inf, -0.01])
    def test_theory_error_checked_before_any_pressure(self, monkeypatch,
                                                      err_theory_rel):
        # NaN would put every point outside the CI and inf every point
        # inside it
        calls = []
        kernel = lifshitz.lifshitz_summand

        def spy(y, xi, *args):
            calls.append(xi)
            return kernel(y, xi, *args)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        data = ExperimentDataset(a=(223e-9, 300e-9), grad_expt=(1e-4,) * 2,
                                 err_expt=(1e-6,) * 2)
        with pytest.raises(ValueError, match="err_theory_rel"):
            compare_models(data, [nickel("drude")], GEOM, CTX,
                           err_theory_rel=err_theory_rel)
        assert calls == []

    def test_theory_error_enters_ci(self):
        model = nickel("drude")
        data = synthetic_dataset(model, GEOM, self.SEPARATIONS, err=1e-9)
        rows, = compare_models(data, [model], GEOM, CTX, err_theory_rel=0.01)
        for row in rows:
            expected = math.hypot(1e-9, 0.01 * row.grad_theory)
            assert row.ci_halfwidth == pytest.approx(expected, rel=1e-12)


class TestDatasets:
    def test_experiment_csv_round_trip(self, tmp_path):
        path = tmp_path / "expt.csv"
        path.write_text("a_nm,grad_uN_per_m,err_uN_per_m\n"
                        "223,95.2,0.6\n300,35.0,0.5\n", encoding="utf-8")
        data = ExperimentDataset.from_csv(path)
        assert data.a == pytest.approx((223e-9, 300e-9), rel=1e-15)
        assert data.grad_expt == pytest.approx((95.2e-6, 35.0e-6))
        assert data.err_expt == pytest.approx((0.6e-6, 0.5e-6))

    def test_experiment_requires_increasing_separations(self):
        with pytest.raises(ValueError):
            ExperimentDataset(a=(2e-7, 1e-7), grad_expt=(1.0, 2.0),
                              err_expt=(0.1, 0.1))

    def test_experiment_requires_positive_errors(self):
        with pytest.raises(ValueError):
            ExperimentDataset(a=(1e-7, 2e-7), grad_expt=(1.0, 2.0),
                              err_expt=(0.1, 0.0))

    @pytest.mark.parametrize("column", ["a", "grad_expt", "err_expt"])
    def test_experiment_rejects_non_finite_values(self, column):
        columns = {"a": (1e-7, 2e-7), "grad_expt": (1.0, 2.0),
                   "err_expt": (0.1, 0.1)}
        columns[column] = (columns[column][0], math.nan)
        with pytest.raises(ValueError, match="finite"):
            ExperimentDataset(**columns)

    def test_theta_csv(self, tmp_path):
        path = tmp_path / "theta.csv"
        path.write_text("a_nm,theta\n100,-0.2\n500,-0.5\n", encoding="utf-8")
        table = read_theta_table(path)
        assert [r[0] for r in table] == pytest.approx([100e-9, 500e-9], rel=1e-15)
        assert [r[1] for r in table] == [-0.2, -0.5]

    def test_malformed_csv_reports_row(self, tmp_path):
        path = tmp_path / "expt.csv"
        path.write_text("a_nm,grad_uN_per_m,err_uN_per_m\n223,95.2\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="row 2"):
            ExperimentDataset.from_csv(path)
