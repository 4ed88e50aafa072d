"""End-to-end command-line tests (in-process via main())."""

import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import casimag
from casimag import cli, lifshitz, pressure_curves, response
from casimag.cli import main
from casimag.config import build_context, build_material, parse_config, \
    separation_grid

import _ni_optical


def read_csv(path):
    """(header, rows) of a CSV file the CLI wrote, as lists of strings."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = (line.rstrip("\n").split(",") for line in fh)
    return header, rows


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

    def test_all_models_are_one_pressure_curves_call(self, cfg_path,
                                                      monkeypatch):
        # the rows as written, before formatting: every p_<name> is the
        # pressure_curves value and every ratio p_i / p_j of its row, bit
        # for bit
        tables = []
        monkeypatch.setattr(cli, "write_csv",
                            lambda path, header, rows: tables.append(
                                (header, rows)))
        assert run(["ratio", "--config", cfg_path, "--model", "all"]) == 0
        (header, rows), = tables
        names = ["nonlocal", "plasma", "drude"]
        assert header == ["a_m", "p_nonlocal", "p_plasma", "p_drude",
                          "ratio_nonlocal_over_plasma",
                          "ratio_nonlocal_over_drude",
                          "ratio_plasma_over_drude"]
        with open(cfg_path, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        grid = separation_grid(cfg)
        model = build_material(cfg)
        curves = pressure_curves(
            grid, [replace(model, variant=n) for n in names],
            build_context(cfg), cfg.quad_tol, cfg.series_tol)
        assert [row[0] for row in rows] == grid
        for row, *points in zip(rows, *curves):
            assert row[1:4] == [res.pressure for res in points]
            p_nl, p_p, p_d = row[1:4]
            assert row[4:] == [p_nl / p_p, p_nl / p_d, p_p / p_d]

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

    def test_compare_to_stdout_keeps_the_summary_out_of_the_csv(
            self, cfg_sp_path, tmp_path, capsys):
        expt = tmp_path / "expt.csv"
        expt.write_text("a_nm,grad_uN_per_m,err_uN_per_m\n223,40,1\n"
                        "550,1,0.1\n", encoding="utf-8")
        assert run(["compare", "--config", cfg_sp_path, "--model", "all",
                    "--experiment", str(expt), "--output", "-"]) == 0
        out, err = capsys.readouterr()
        header, *rows = (line.split(",") for line in out.splitlines())
        assert header == ["model", "a_nm", "grad_theory", "delta",
                          "ci_halfwidth", "inside_ci"]
        assert [r[:2] for r in rows] == [[m, a] for m in
                                         ("nonlocal", "plasma", "drude")
                                         for a in ("2.23000000000e+02",
                                                   "5.50000000000e+02")]
        assert [line.split()[0] for line in err.splitlines()] == [
            "model=nonlocal", "model=plasma", "model=drude"]

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

    def test_optical_table_read_once_for_all_models(self, tmp_path,
                                                    monkeypatch):
        opt = tmp_path / "ni.csv"
        _ni_optical.write_csv(opt, n=80)
        cfg = tmp_path / "ib.cfg"
        cfg.write_text(BASE.replace("points = 2", "points = 1")
                       + f"optical_data_path = {opt}\n", encoding="utf-8")
        reads = []
        from_csv = casimag.InterbandTable.from_csv.__func__

        def spy(cls, path):
            reads.append(path)
            return from_csv(cls, path)

        monkeypatch.setattr(casimag.InterbandTable, "from_csv",
                            classmethod(spy))
        assert run(["ratio", "--config", str(cfg), "--model", "all",
                    "--output", str(tmp_path / "ratio.csv")]) == 0
        assert reads == [str(opt)]


class TestWorkCounts:
    # the README config (15 log-spaced separations, 100-800 nm, 300 K) as
    # ``ratio --model all``; a PR that changes these counts on purpose
    # restates them and says why
    README = (BASE.replace("a_min_nm = 4000", "a_min_nm = 100")
              .replace("a_max_nm = 6000", "a_max_nm = 800")
              .replace("points = 2", "points = 15")
              .replace("spacing = linear", "spacing = log"))

    def write_config(self, tmp_path, tabled):
        cfg = tmp_path / "readme.cfg"
        text = self.README
        if tabled:
            _ni_optical.write_csv(tmp_path / "ni.csv")
            text += f"optical_data_path = {tmp_path / 'ni.csv'}\n"
        cfg.write_text(text, encoding="utf-8")
        return ["ratio", "--config", str(cfg), "--model", "all",
                "--output", str(tmp_path / "ratio.csv")]

    @pytest.mark.parametrize("tabled", [False, True])
    def test_readme_ratio_work_counts(self, tmp_path, monkeypatch, tabled):
        args = self.write_config(tmp_path, tabled)
        kernel, kk = lifshitz.lifshitz_summand, response.eps_core_kk
        quad, kk_nodes = lifshitz.adaptive_quad, response._kk_nodes
        table_hash = casimag.InterbandTable.__hash__
        table_eq = casimag.InterbandTable.__eq__
        calls, nodes, freqs, kk_calls, static = [0], [0], set(), [], [0]
        quads, builds, hashed, compared = [], [], [], []

        def spy(y, xi, a, model, *work):
            calls[0] += 1
            # a block carries the frequencies of its components
            freqs.update(model.xis
                         if isinstance(model, lifshitz._Table) else [xi])
            static[0] += xi == 0.0
            out = kernel(y, xi, a, model, *work)
            nodes[0] += out.size  # components: every model at y's nodes
            return out

        def quad_spy(*args, **kwargs):
            quads.append(1)
            return quad(*args, **kwargs)

        def kk_spy(xi, table, m):
            kk_calls.append((xi, table, m))
            return kk(xi, table, m)

        def nodes_spy(table, *args):
            builds.append(table)
            return kk_nodes(table, *args)

        def hash_spy(table):
            hashed.append(table)
            return table_hash(table)

        def eq_spy(table, other):
            compared.append(table)
            return table_eq(table, other)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        monkeypatch.setattr(lifshitz, "adaptive_quad", quad_spy)
        monkeypatch.setattr(response, "eps_core_kk", kk_spy)
        monkeypatch.setattr(response, "_kk_nodes", nodes_spy)
        monkeypatch.setattr(casimag.InterbandTable, "__hash__", hash_spy)
        monkeypatch.setattr(casimag.InterbandTable, "__eq__", eq_spy)
        assert run(args) == 0
        work = len(quads), calls[0], nodes[0], len(freqs)
        # the static term of the three models is one quadrature, which
        # converges on its first round: one call
        assert static[0] == 1
        # every frequency is a Matsubara frequency of the run, from l = 0
        # on, up to the last index a sum takes (98 without the table, 119
        # with it): the tail blocks end where the tail rule predicts
        ctx = casimag.MatsubaraContext(300.0)
        assert freqs == {casimag.matsubara_xi(l, ctx)
                         for l in range(len(freqs))}
        # no term refines and no round is split: one kernel call per
        # quadrature, the static and l = 1 45 x 84-node first rounds
        # included; blocks of up to 8 indices, and from 11 separations on
        # the tail blocks, take 11 quadratures instead of 101 (12 instead
        # of 122).  The long tail blocks evaluate pairs whose sums have
        # stopped, and the grid a stopped pair while its separation sums:
        # 158,760 components (models x nodes) against 140,868 at one index
        # per quadrature.  A table of summing pairs alone, whose calls took
        # at most 14,400 components, took 13 quadratures and 156,051 (15
        # and 174,069); the grid's calls fit 6,300 nodes of a separation,
        # 18,900 components, in the same work array
        if not tabled:
            assert work == (11, 11, 158_760, 99)
            assert kk_calls == builds == []
            return
        assert work == (12, 12, 177_660, 120)
        # the models are grouped by core once, when the run's component
        # table is built: one hash of the table per model, no comparison
        assert len(hashed) <= 3
        assert compared == []
        # one KK evaluation per frequency, shared by the three variants
        assert len({xi for xi, _, _ in kk_calls}) == 119
        assert len(kk_calls) == 119
        # on one KK node set, which the table keeps
        _, table, m = kk_calls[0]
        assert builds == [table]
        assert all(t is table for _, t, _ in kk_calls)
        (key, (w2, _, _)), = table._kk.items()
        assert key == (m.omega_p, m.gamma)
        assert w2.size == 2188

    def test_second_run_compares_no_tables(self, tmp_path, monkeypatch):
        # each run reads the CSV into a new, equal table; nothing
        # process-wide keys on a table, so no run compares its table with
        # an earlier one, and each table builds its own one KK node set
        args = self.write_config(tmp_path, True)
        table_eq, kk_nodes = casimag.InterbandTable.__eq__, response._kk_nodes
        compared, builds = [], []

        def eq_spy(table, other):
            compared.append(table)
            return table_eq(table, other)

        def nodes_spy(table, *args):
            builds.append(table)
            return kk_nodes(table, *args)

        monkeypatch.setattr(casimag.InterbandTable, "__eq__", eq_spy)
        monkeypatch.setattr(response, "_kk_nodes", nodes_spy)
        assert run(args) == 0
        assert run(args) == 0
        assert compared == []
        first, second = builds
        assert first is not second
        # the node sets a table keeps take no part in equality, hashing or
        # repr
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) and "_kk" not in repr(first)


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

    @pytest.mark.parametrize("key,value,named", [
        ("a_min_nm", "1e-300", "separation 1.000000e-309 m"),
        ("temperature_k", "1e-300", "temperature 1e-300 K"),
        ("a_max_nm", "1e300", "separation 1.000000e+291 m"),
    ], ids=["a-cubed-underflow", "cap-underflow", "a-cubed-overflow"])
    def test_out_of_range_separation_or_temperature_is_one_line_error(
            self, tmp_path, capsys, key, value, named):
        lines = [ln for ln in BASE.splitlines()
                 if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "range.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n",
                       encoding="utf-8")
        assert run(["pressure", "--config", str(cfg), "--model", "all",
                    "--output", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "out of range" in err

    def test_config_with_byte_order_mark(self, cfg_path, tmp_path):
        bom = tmp_path / "bom.cfg"
        bom.write_text("\ufeff" + BASE, encoding="utf-8")
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        assert run(["pressure", "--config", cfg_path, "--model", "drude",
                    "--output", str(ref)]) == 0
        assert run(["pressure", "--config", str(bom), "--model", "drude",
                    "--output", str(out)]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_dissipationless_nonlocal_is_one_line_error(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "g0.cfg"
        cfg.write_text(BASE.replace("gamma_ev = 0.0436", "gamma_ev = 0")
                           .replace("points = 2", "points = 1"),
                       encoding="utf-8")
        assert run(["pressure", "--config", str(cfg), "--model",
                    "nonlocal"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "plasma variant" in err

    @pytest.mark.parametrize("args,message", [
        (["pressure"], "--config"),
        (["pressure", "--config", "run.cfg", "--model", "local"],
         "invalid choice"),
        (["--config", "run.cfg"], "command"),
        (["pressure", "--config", "run.cfg", "--bogus"], "--bogus"),
        (["pressure", "--config", "run.cfg", "--model"], "--model"),
        (["presure", "--config", "run.cfg"], "presure"),
        (["pressure", "ratio", "--config", "run.cfg"], "pressure ratio"),
    ], ids=["missing-config", "bad-model", "missing-command",
            "unknown-option", "option-without-value", "unknown-command",
            "two-commands"])
    def test_usage_error_is_validation_error(self, capsys, args, message):
        # 2 is kept for numerical non-convergence
        assert run(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: casimag") and message in err

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_exits_zero(self, capsys, flag):
        assert run([flag]) == 0
        assert capsys.readouterr().out.startswith("usage: casimag")

    @pytest.mark.parametrize("spelling", [
        ["pressure", "--config={cfg}", "--model", "drude", "--output={out}"],
        ["pressure", "--conf", "{cfg}", "--mod", "drude", "--out", "{out}"],
        ["--config", "{cfg}", "--model", "drude", "--output", "{out}",
         "pressure"],
    ], ids=["equals", "unique-prefix", "options-before-command"])
    def test_option_spellings_give_the_same_run(self, cfg_path, tmp_path,
                                                spelling):
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        assert run(["pressure", "--config", cfg_path, "--model", "drude",
                    "--output", str(ref)]) == 0
        assert run([w.format(cfg=cfg_path, out=out) for w in spelling]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_console_script_reads_sys_argv(self, cfg_path, tmp_path,
                                           monkeypatch):
        out = tmp_path / "out.csv"
        monkeypatch.setattr(sys, "argv", [
            "casimag", "pressure", "--config", cfg_path, "--model", "drude",
            "--output", str(out)])
        assert main() == 0
        header, rows = read_csv(str(out))
        assert header[:2] == ["a_m", "model"] and len(rows) == 2

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

    def test_unreachable_term_cap_exits_2_at_once(self, tmp_path, capsys,
                                                  monkeypatch):
        # at 1e-3 K the derived caps at 100 and 200 nm, 36,444,745 and
        # 18,222,423 terms, exceed lifshitz.MAX_TERMS: the run exits 2
        # before any kernel call instead of printing nothing for minutes
        calls = []
        monkeypatch.setattr(lifshitz, "lifshitz_summand",
                            lambda *args: calls.append(args))
        cfg = tmp_path / "cold.cfg"
        cfg.write_text(BASE.replace("a_min_nm = 4000", "a_min_nm = 100")
                           .replace("a_max_nm = 6000", "a_max_nm = 200")
                           .replace("temperature_k = 300",
                                    "temperature_k = 1e-3"),
                       encoding="utf-8")
        start = time.perf_counter()
        assert run(["pressure", "--config", str(cfg), "--model", "all"]) == 2
        assert time.perf_counter() - start < 5.0
        assert not calls
        assert ("model nonlocal at separation 1.000000e-07 m has a term cap "
                "of 36444745, above the limit of 4194304 terms"
                in capsys.readouterr().err)

    def test_non_convergence_names_model_and_separation(self, tmp_path,
                                                        capsys):
        # one Matsubara loop serves all three models
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(BASE.replace("a_min_nm = 4000", "a_min_nm = 50")
                           .replace("a_max_nm = 6000", "a_max_nm = 5000")
                       + "l_max_cap = 10\n", encoding="utf-8")
        assert run(["ratio", "--config", str(cfg), "--model", "all",
                    "--output", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "model nonlocal at separation 5.000000e-08 m" in err

    def test_kk_bound_miss_is_one_line_error_naming_xi(
            self, tmp_path, capsys, monkeypatch):
        # one KK panel per segment of a 3-row table spanning six decades:
        # the a-priori bound of its fixed nodes misses KK_QUAD_TOL
        monkeypatch.setattr(response, "KK_PANEL_WIDTH", 100.0)
        opt = tmp_path / "coarse.csv"
        opt.write_text("omega_ev,im_eps\n0.0016,0\n1.6,50\n1600,0.001\n",
                       encoding="utf-8")
        cfg = tmp_path / "kk.cfg"
        cfg.write_text(BASE.replace("points = 2", "points = 1")
                       + f"optical_data_path = {opt}\n", encoding="utf-8")
        assert run(["ratio", "--config", str(cfg), "--model", "all",
                    "--output", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: KK quadrature at xi = ")
        assert err.count("\n") == 1
        assert "missed its relative tolerance 1.0e-09" in err

    @pytest.mark.parametrize("cmd", ["gradient", "compare"])
    @pytest.mark.parametrize("a_max_nm,match", [
        ("7000", "proximity"),  # radius / 10 = 6171 nm
        (None, "perturbative")])
    def test_separations_checked_before_any_kernel_call(
            self, tmp_path, capsys, monkeypatch, cmd, a_max_nm, match):
        geom = GEOM if a_max_nm else GEOM.replace("1.5e-9", "25e-9")
        cfg = tmp_path / "sp.cfg"
        cfg.write_text(BASE.replace("a_min_nm = 4000", "a_min_nm = 223")
                           .replace("6000", a_max_nm or "550")
                           .replace("points = 2", "points = 3") + geom,
                       encoding="utf-8")
        expt = tmp_path / "expt.csv"
        expt.write_text("a_nm,grad_uN_per_m,err_uN_per_m\n223,40,1\n"
                        f"{a_max_nm or 550},1,0.1\n", encoding="utf-8")
        calls = []
        kernel = lifshitz.lifshitz_summand

        def spy(y, xi, *args):
            calls.append(xi)
            return kernel(y, xi, *args)

        monkeypatch.setattr(lifshitz, "lifshitz_summand", spy)
        assert run([cmd, "--config", str(cfg), "--model", "all",
                    "--experiment", str(expt),
                    "--output", str(tmp_path / "out.csv")]) == 1
        assert match in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("cmd", ["gradient", "compare"])
    def test_empty_theta_table_is_one_line_error(self, tmp_path, capsys,
                                                 monkeypatch, cmd):
        # a header-only PFA-correction table is rejected before any
        # pressure, not after the whole run
        theta = tmp_path / "theta.csv"
        theta.write_text("a_nm,theta\n", encoding="utf-8")
        cfg = tmp_path / "sp.cfg"
        cfg.write_text(BASE.replace("a_min_nm = 4000", "a_min_nm = 300")
                           .replace("a_max_nm = 6000", "a_max_nm = 400")
                       + GEOM + f"theta_table_path = {theta}\n",
                       encoding="utf-8")
        expt = tmp_path / "expt.csv"
        expt.write_text("a_nm,grad_uN_per_m,err_uN_per_m\n300,40,1\n",
                        encoding="utf-8")
        calls = []
        monkeypatch.setattr(lifshitz, "lifshitz_summand",
                            lambda *args: calls.append(args))
        assert run([cmd, "--config", str(cfg), "--experiment", str(expt),
                    "--output", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "theta_table" in err
        assert calls == []


def test_cli_run_imports_neither_argparse_nor_locale(cfg_path, tmp_path):
    # each CLI run is a fresh process; argparse and the locale module that
    # its gettext lookup imports cost milliseconds of every run
    src = os.path.dirname(os.path.dirname(casimag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "out.csv"
    code = ("import sys, casimag.cli as cli\n"
            "assert cli.main(['--help']) == 0\n"
            f"assert cli.main(['pressure', '--config', {cfg_path!r}, "
            f"'--output', {str(out)!r}]) == 0\n"
            "print(sorted({'argparse', 'locale'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert res.stdout.splitlines()[-1] == "[]"
    assert out.is_file()
