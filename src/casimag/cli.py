"""Command-line interface.

Subcommands: pressure, ratio, impedance-dump, reflect-dump, gradient,
compare, each driven by a config file (--config).  Options go before or
after the subcommand, as --opt VALUE, --opt=VALUE or a unique prefix of
--opt.  Exit codes: 0 success (--help included), 1 validation error (a
usage error included), 2 numerical non-convergence.
"""

from __future__ import annotations

import getopt
import sys
from dataclasses import replace
from types import SimpleNamespace

from .config import ConfigError, build_context, build_geometry, \
    build_material, parse_config, separation_grid
from .csvio import write_csv
from .impedance import impedance_pair
from .lifshitz import SeriesConvergenceError, pressure_curves, \
    pressure_ratio_table
from .quadrature import QuadratureError
from .reflection import refl_pair
from .sphere_plate import ExperimentDataset, compare_models, \
    gradient_curves

_COMMANDS = ("pressure", "ratio", "impedance-dump", "reflect-dump",
             "gradient", "compare")
_MODELS = ("drude", "plasma", "nonlocal", "all")
# (usage form, help): yields the usage line, --help and getopt's options
_OPTIONS = (
    ("--config PATH", "config file path"),
    ("[--model MODEL]", f"one of {', '.join(_MODELS)}; overrides the config"),
    ("[--output PATH]", "output CSV ('-' = stdout); overrides output_path"),
    ("[--experiment PATH]", "measured force-gradient CSV (compare)"),
    ("[--no-interband]", "ignore optical_data_path (free electrons only)"),
)
_LONG = [f"{w[0][2:]}=" if len(w) > 1 else w[0][2:]
         for w in (form.strip("[]").split() for form, _ in _OPTIONS)]
_USAGE = ("usage: casimag [-h] COMMAND " + " ".join(f for f, _ in _OPTIONS[:2])
          + "\n" + " " * 15 + " ".join(f for f, _ in _OPTIONS[2:]))
_HELP = "\n".join(
    [_USAGE, "", "Casimir pressure and sphere-plate force gradients for "
     "magnetic metals.", "", "commands: " + ", ".join(_COMMANDS), "",
     "options:", f"  {'-h, --help':<20}show this help message and exit"]
    + [f"  {form.strip('[]'):<20}{text}" for form, text in _OPTIONS])

_L_GRID = (1, 2, 10, 100)
_KFACS = (0.0, 0.1, 1.0, 10.0)


def _model_list(cfg, choice: str | None, use_interband: bool):
    """[(name, MaterialModel)] for the requested --model choice.

    'all' lists the wavevector-dependent variant first so the emitted
    pairwise ratios read nonlocal/plasma, nonlocal/drude, plasma/drude.
    """
    if choice is None:
        names = [cfg.variant]
    elif choice == "all":
        names = ["nonlocal", "plasma", "drude"]
    else:
        names = [choice]
    model = build_material(cfg, use_interband=use_interband)
    return [(n, replace(model, variant=n)) for n in names]


def _cmd_pressure(cfg, args) -> list[list]:
    models = _model_list(cfg, args.model, not args.no_interband)
    ctx = build_context(cfg)
    grid = separation_grid(cfg)
    curves = pressure_curves(grid, [m for _, m in models], ctx,
                             cfg.quad_tol, cfg.series_tol)
    rows = []
    for i, a in enumerate(grid):  # separation outer, model inner
        for (name, _), curve in zip(models, curves):
            res = curve[i]
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
    header = ["a_m", *list(table[0])[1:]]  # the key 'a' is the column a_m
    return [header] + [list(row.values()) for row in table]


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
    grid = separation_grid(cfg)
    curves = gradient_curves(grid, [m for _, m in models], geom, ctx,
                             cfg.quad_tol, cfg.series_tol)
    rows = []
    for i, a in enumerate(grid):  # separation outer, model inner
        for (name, _), curve in zip(models, curves):
            rows.append([a, name, curve[i]])
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
    comps = compare_models(data, [m for _, m in models], geom, ctx,
                           err_theory_rel=cfg.err_theory_rel,
                           quad_tol=cfg.quad_tol, series_tol=cfg.series_tol)
    for (name, _), comp in zip(models, comps):
        inside = sum(1 for c in comp if c.inside_ci)
        summary.append(f"model={name} inside={inside} "
                       f"outside={len(comp) - inside}")
        for c in comp:
            # gradients reported in uN/m to match the experiment file units
            row = [c.a * 1e9, c.grad_theory * 1e6, c.delta * 1e6,
                   c.ci_halfwidth * 1e6, c.inside_ci]
            rows.append(([name] + row) if multi else row)
    return [header] + rows, summary


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The parsed arguments, or None for --help; GetoptError if unusable."""
    opts, words = getopt.gnu_getopt(argv, "h", _LONG + ["help"])
    args = SimpleNamespace(config=None, model=None, output=None,
                           experiment=None, no_interband=False)
    for opt, value in opts:
        if opt in ("-h", "--help"):
            return None
        setattr(args, opt[2:].replace("-", "_"),
                value if f"{opt[2:]}=" in _LONG else True)
    if len(words) != 1 or words[0] not in _COMMANDS:
        raise getopt.GetoptError(
            f"expected one command of {', '.join(_COMMANDS)}; got "
            f"{' '.join(words) or 'none'}")
    if args.model is not None and args.model not in _MODELS:
        raise getopt.GetoptError(f"invalid choice --model {args.model!r} "
                                 f"(choose from {', '.join(_MODELS)})")
    if args.config is None:
        raise getopt.GetoptError("the option --config PATH is required")
    args.command = words[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except getopt.GetoptError as exc:  # a usage error is a validation error
        print(f"{_USAGE}\ncasimag: error: {exc}", file=sys.stderr)
        return 1
    if args is None:
        print(_HELP)
        return 0

    try:
        with open(args.config, encoding="utf-8") as fh:  # as csvio reads
            cfg = parse_config(fh.read().removeprefix("\ufeff"))
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
        for line in summary or ():  # never into a CSV on stdout
            print(line, file=sys.stderr if out_path == "-" else sys.stdout)
        return 0
    except (SeriesConvergenceError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
