"""Command-line interface.

Subcommands: pressure, ratio, impedance-dump, reflect-dump, gradient,
compare.  Every run is driven by a config file (--config); --model
optionally overrides the configured response variant.  Exit codes:
0 success, 1 validation error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, build_context, build_geometry, \
    build_material, parse_config, separation_grid
from .csvio import write_csv
from .impedance import impedance_pair
from .lifshitz import PressureQuery, SeriesConvergenceError, pressure, \
    pressure_ratio_table
from .quadrature import QuadratureError
from .reflection import refl_pair
from .response import VARIANTS
from .sphere_plate import ExperimentDataset, compare, gradient_theory

_L_GRID = (1, 2, 10, 100)
_KFACS = (0.0, 0.1, 1.0, 10.0)


def _model_list(cfg, choice: str | None, use_interband: bool):
    """[(name, MaterialModel)] for the requested --model choice.

    'all' lists the wavevector-dependent variant first so the emitted
    pairwise ratios read nonlocal/plasma, nonlocal/drude, plasma/drude.
    """
    if choice in (None, "config"):
        names = [cfg.variant]
    elif choice == "all":
        names = [n for n in ("nonlocal", "plasma", "drude") if n in VARIANTS]
    else:
        names = [choice]
    return [(n, build_material(cfg, n, use_interband)) for n in names]


def _cmd_pressure(cfg, args) -> list[list]:
    models = _model_list(cfg, args.model, not args.no_interband)
    ctx = build_context(cfg)
    rows = []
    for a in separation_grid(cfg):
        for name, model in models:
            res = pressure(PressureQuery(separation=a, model=model,
                                         quad_tol=cfg.quad_tol,
                                         series_tol=cfg.series_tol), ctx)
            rows.append([a, name, res.pressure, res.terms_used,
                         res.series_tail_bound, res.quad_error])
    return [["a_m", "model", "pressure_pa", "terms_used", "tail_bound",
             "quad_error"]] + rows


def _cmd_ratio(cfg, args) -> list[list]:
    choice = args.model if args.model else "all"
    models = _model_list(cfg, choice, not args.no_interband)
    ctx = build_context(cfg)
    table = pressure_ratio_table(separation_grid(cfg), models, ctx,
                                 quad_tol=cfg.quad_tol,
                                 series_tol=cfg.series_tol)
    header = [k for k in table[0] if not k.startswith("terms_")]
    header[0] = "a_m"
    rows = [[row["a"] if k == "a_m" else row[k] for k in header]
            for row in table]
    return [header] + rows


def _cmd_impedance_dump(cfg, args) -> list[list]:
    if args.model == "all":
        raise ConfigError("impedance-dump emits a single-model table; "
                          "pick one of drude, plasma, nonlocal")
    (_, model), = _model_list(cfg, args.model, not args.no_interband)
    ctx = build_context(cfg)
    rows = []
    for a in separation_grid(cfg):
        for l in _L_GRID:
            for fac in _KFACS:
                k_perp = fac / a
                z = impedance_pair(l, k_perp, model, ctx)
                rows.append([l, k_perp, z.z_tm, z.z_te])
    return [["l", "k_perp", "z_tm", "z_te"]] + rows


def _cmd_reflect_dump(cfg, args) -> list[list]:
    models = _model_list(cfg, args.model, not args.no_interband)
    ctx = build_context(cfg)
    rows = []
    for name, model in models:
        for a in separation_grid(cfg):
            for l in (0,) + _L_GRID:
                for fac in _KFACS:
                    k_perp = fac / a
                    r = refl_pair(l, k_perp, model, ctx)
                    rows.append([name, l, k_perp, r.r_tm, r.r_te])
    return [["model", "l", "k_perp", "r_tm", "r_te"]] + rows


def _cmd_gradient(cfg, args) -> list[list]:
    models = _model_list(cfg, args.model, not args.no_interband)
    ctx = build_context(cfg)
    geom = build_geometry(cfg)
    rows = []
    for a in separation_grid(cfg):
        for name, model in models:
            grad = gradient_theory(a, model, geom, ctx,
                                   quad_tol=cfg.quad_tol,
                                   series_tol=cfg.series_tol)
            rows.append([a, name, grad])
    return [["a_m", "model", "grad_n_per_m"]] + rows


def _cmd_compare(cfg, args) -> tuple[list[list], list[str]]:
    if args.experiment is None:
        raise ConfigError("compare requires --experiment PATH")
    data = ExperimentDataset.from_csv(args.experiment)
    models = _model_list(cfg, args.model, not args.no_interband)
    ctx = build_context(cfg)
    geom = build_geometry(cfg)

    multi = len(models) > 1
    header = ["a_nm", "grad_theory", "delta", "ci_halfwidth", "inside_ci"]
    if multi:
        header = ["model"] + header
    rows, summary = [], []
    for name, model in models:
        comp = compare(data, model, geom, ctx,
                       err_theory_rel=cfg.err_theory_rel,
                       quad_tol=cfg.quad_tol, series_tol=cfg.series_tol)
        inside = sum(1 for c in comp if c.inside_ci)
        summary.append(f"model={name} inside={inside} "
                       f"outside={len(comp) - inside}")
        for c in comp:
            # gradients reported in uN/m to match the experiment file units
            row = [c.a * 1e9, c.grad_theory * 1e6, c.delta * 1e6,
                   c.ci_halfwidth * 1e6, c.inside_ci]
            rows.append(([name] + row) if multi else row)
    return [header] + rows, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="casimag",
        description="Casimir pressure and sphere-plate force gradients for "
                    "magnetic metals with local or wavevector-dependent "
                    "dielectric response.")
    parser.add_argument("command",
                        choices=["pressure", "ratio", "impedance-dump",
                                 "reflect-dump", "gradient", "compare"])
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--model",
                        choices=["drude", "plasma", "nonlocal", "all"],
                        help="override the configured response variant")
    parser.add_argument("--output", help="output CSV path ('-' = stdout); "
                                         "overrides output_path")
    parser.add_argument("--experiment",
                        help="measured force-gradient CSV (compare)")
    parser.add_argument("--no-interband", action="store_true",
                        help="ignore optical_data_path; free-electron "
                             "response only")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        out_path = args.output if args.output else cfg.output_path

        summary = None
        if args.command == "pressure":
            table = _cmd_pressure(cfg, args)
        elif args.command == "ratio":
            table = _cmd_ratio(cfg, args)
        elif args.command == "impedance-dump":
            table = _cmd_impedance_dump(cfg, args)
        elif args.command == "reflect-dump":
            table = _cmd_reflect_dump(cfg, args)
        elif args.command == "gradient":
            table = _cmd_gradient(cfg, args)
        else:
            table, summary = _cmd_compare(cfg, args)

        write_csv(out_path, table[0], table[1:])
        if summary:
            for line in summary:
                print(line)
        return 0
    except (SeriesConvergenceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
