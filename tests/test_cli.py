"""End-to-end command-line tests (in-process via main())."""

import os
import subprocess
import sys

import pytest

import casimag
from casimag.cli import main
from casimag.csvio import read_csv

import _ni_optical

BASE = """
variant = nonlocal
omega_p_ev = 4.89
gamma_ev = 0.0436
mu0 = 110
v_t_over_vf = 7
v_l_over_vf = 7
a_min_nm = 4000
a_max_nm = 6000
points = 2
spacing = linear
temperature_k = 300
"""

GEOM = """
radius_m = 61.71e-6
delta_s_m = 1.5e-9
delta_p_m = 1.4e-9
err_theory_rel = 0.005
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE, encoding="utf-8")
    return str(path)


@pytest.fixture
def cfg_sp_path(tmp_path):
    path = tmp_path / "run_sp.cfg"
    path.write_text(BASE.replace("a_min_nm = 4000", "a_min_nm = 223")
                        .replace("a_max_nm = 6000", "a_max_nm = 550")
                        .replace("points = 2", "points = 3") + GEOM,
                    encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


class TestPressure:
    def test_single_point_all_models_three_rows(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(BASE.replace("points = 2", "points = 1"),
                       encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run(["pressure", "--config", str(cfg), "--model", "all",
                    "--output", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["a_m", "model", "pressure_pa", "terms_used",
                          "tail_bound", "quad_error"]
        assert len(rows) == 3
        assert [r[1] for r in rows] == ["nonlocal", "plasma", "drude"]
        assert all(float(r[2]) < 0.0 for r in rows)

    def test_byte_identical_reruns(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["pressure", "--config", cfg_path, "--model", "all",
                    "--output", str(out1)]) == 0
        assert run(["pressure", "--config", cfg_path, "--model", "all",
                    "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_log_sweep_monotone_magnitude(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BASE.replace("a_min_nm = 4000", "a_min_nm = 2000")
                           .replace("a_max_nm = 6000", "a_max_nm = 7000")
                           .replace("points = 2", "points = 26")
                           .replace("spacing = linear", "spacing = log"),
                       encoding="utf-8")
        out = tmp_path / "out.csv"
        assert run(["pressure", "--config", str(cfg), "--model", "drude",
                    "--output", str(out)]) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 26
        mags = [abs(float(r[2])) for r in rows]
        assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))


class TestRatio:
    def test_single_model_has_no_ratio_columns(self, cfg_path, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["ratio", "--config", cfg_path, "--model", "drude",
                    "--output", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["a_m", "p_drude"]
        assert len(rows) == 2

    def test_reproduces_large_separation_ratios(self, cfg_path, tmp_path):
        out = tmp_path / "ratio.csv"
        assert run(["ratio", "--config", cfg_path,
                    "--output", str(out)]) == 0
        header, rows = read_csv(str(out))
        i_np = header.index("ratio_nonlocal_over_plasma")
        i_nd = header.index("ratio_nonlocal_over_drude")
        by_a = {float(r[0]): r for r in rows}
        assert float(by_a[4e-6][i_np]) == pytest.approx(0.70, abs=0.02)
        assert float(by_a[4e-6][i_nd]) == pytest.approx(0.57, abs=0.02)
        assert float(by_a[6e-6][i_np]) == pytest.approx(0.66, abs=0.02)
        assert float(by_a[6e-6][i_nd]) == pytest.approx(0.57, abs=0.02)


class TestDumps:
    def test_impedance_dump_single_model_only(self, cfg_path, tmp_path):
        out = tmp_path / "z.csv"
        assert run(["impedance-dump", "--config", cfg_path, "--model", "all",
                    "--output", str(out)]) == 1
        assert run(["impedance-dump", "--config", cfg_path,
                    "--output", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["l", "k_perp", "z_tm", "z_te"]
        assert len(rows) == 2 * 4 * 4  # separations x l grid x k grid
        assert all(float(r[2]) > 0 and float(r[3]) > 0 for r in rows)

    def test_reflect_dump_bounded(self, cfg_path, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["reflect-dump", "--config", cfg_path, "--model", "all",
                    "--output", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["model", "l", "k_perp", "r_tm", "r_te"]
        assert {r[0] for r in rows} == {"drude", "plasma", "nonlocal"}
        assert all(abs(float(r[3])) <= 1.0 and abs(float(r[4])) <= 1.0
                   for r in rows)
        assert any(r[1] == "0" for r in rows)  # static term included


class TestGradientAndCompare:
    def test_gradient_positive_and_decaying(self, cfg_sp_path, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["gradient", "--config", cfg_sp_path,
                    "--output", str(out)]) == 0
        _, rows = read_csv(str(out))
        grads = [float(r[2]) for r in rows]
        assert all(g > 0 for g in grads)
        assert all(g1 > g2 for g1, g2 in zip(grads, grads[1:]))

    def test_compare_self_consistent_inside(self, cfg_sp_path, tmp_path,
                                            capsys):
        grad_out = tmp_path / "g.csv"
        run(["gradient", "--config", cfg_sp_path, "--output", str(grad_out)])
        _, rows = read_csv(str(grad_out))
        expt = tmp_path / "expt.csv"
        lines = ["a_nm,grad_uN_per_m,err_uN_per_m"]
        for r in rows:
            lines.append(f"{float(r[0]) * 1e9},{float(r[2]) * 1e6},0.5")
        expt.write_text("\n".join(lines) + "\n", encoding="utf-8")

        out = tmp_path / "cmp.csv"
        assert run(["compare", "--config", cfg_sp_path, "--experiment",
                    str(expt), "--output", str(out)]) == 0
        summary = capsys.readouterr().out.strip()
        assert "inside=3 outside=0" in summary
        header, cmp_rows = read_csv(str(out))
        assert header == ["a_nm", "grad_theory", "delta", "ci_halfwidth",
                          "inside_ci"]
        assert all(r[4] == "true" for r in cmp_rows)

    def test_compare_offset_all_outside(self, cfg_sp_path, tmp_path, capsys):
        grad_out = tmp_path / "g.csv"
        run(["gradient", "--config", cfg_sp_path, "--output", str(grad_out)])
        _, rows = read_csv(str(grad_out))
        expt = tmp_path / "expt.csv"
        lines = ["a_nm,grad_uN_per_m,err_uN_per_m"]
        for r in rows:
            # offset far beyond the half-width (errors in uN/m)
            lines.append(f"{float(r[0]) * 1e9},"
                         f"{float(r[2]) * 1e6 + 30.0},0.1")
        expt.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--config", cfg_sp_path, "--experiment",
                    str(expt), "--output", str(out)]) == 0
        assert "inside=0 outside=3" in capsys.readouterr().out
        _, cmp_rows = read_csv(str(out))
        assert all(r[4] == "false" for r in cmp_rows)

    def test_compare_requires_experiment(self, cfg_sp_path):
        assert run(["compare", "--config", cfg_sp_path]) == 1

    def test_gradient_requires_geometry(self, cfg_path):
        assert run(["gradient", "--config", cfg_path]) == 1


class TestInterbandPlumbing:
    def test_optical_table_and_switch(self, tmp_path):
        opt = tmp_path / "ni.csv"
        _ni_optical.write_csv(opt, n=80)
        cfg = tmp_path / "ib.cfg"
        cfg.write_text(BASE.replace("points = 2", "points = 1")
                       + f"optical_data_path = {opt}\n", encoding="utf-8")
        out_ib = tmp_path / "ib.csv"
        out_fe = tmp_path / "fe.csv"
        assert run(["pressure", "--config", str(cfg),
                    "--output", str(out_ib)]) == 0
        assert run(["pressure", "--config", str(cfg), "--no-interband",
                    "--output", str(out_fe)]) == 0
        p_ib = float(read_csv(str(out_ib))[1][0][2])
        p_fe = float(read_csv(str(out_fe))[1][0][2])
        assert p_ib != p_fe  # the bound-electron core changes the pressure


class TestExitCodes:
    def test_unknown_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE + "bogus_key = 1\n", encoding="utf-8")
        assert run(["pressure", "--config", str(cfg)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("omega_p_ev", "-4"),
        ("omega_p_ev", "inf"),
        ("gamma_ev", "inf"),
        ("mu0", "inf"),
        ("a_min_nm", "inf"),
        ("a_max_nm", "inf"),
        ("temperature_k", "inf"),
    ])
    def test_invalid_value_is_validation_error(self, tmp_path, capsys, key,
                                               value):
        lines = [ln for ln in BASE.splitlines()
                 if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n",
                       encoding="utf-8")
        assert run(["pressure", "--config", str(cfg)]) == 1
        assert f"'{key}'" in capsys.readouterr().err

    def test_missing_config_file(self):
        assert run(["pressure", "--config", "/no/such/file.cfg"]) == 1

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(BASE.replace("a_min_nm = 4000", "a_min_nm = 50")
                           .replace("a_max_nm = 6000", "a_max_nm = 60")
                           .replace("points = 2", "points = 1")
                       + "l_max_cap = 10\n", encoding="utf-8")
        assert run(["pressure", "--config", str(cfg)]) == 2
        assert "not converged" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the k_z-integral oracle; a CLI start must not pay
    # for importing it
    src = os.path.dirname(os.path.dirname(casimag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, casimag.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
