"""Command-line interface.

Subcommands: pressure, ratio, impedance-dump, reflect-dump, gradient,
compare, each driven by a config file (--config).  Options go before or
after the subcommand, as --opt VALUE, --opt=VALUE or a unique prefix of
--opt.  Exit codes: 0 success (--help included), 1 validation error (a
usage error included), 2 numerical non-convergence.

Each subcommand is one function of (config, arguments, context) that
returns the CSV header, its rows and any summary lines; ``main``
dispatches through the table ``_COMMANDS``.
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
from .lifshitz import SeriesConvergenceError, pressure_curves
from .quadrature import QuadratureError
from .reflection import refl_pair
from .sphere_plate import ExperimentDataset, compare_models, \
    gradient_curves

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

_L_GRID = (1, 2, 10, 100)
_KFACS = (0.0, 0.1, 1.0, 10.0)


def _models(cfg, args, default=None):
    """(names, models) of --model, or of ``default`` without it (None is
    the config's variant).

    'all' lists the wavevector-dependent variant first so the emitted
    pairwise ratios read nonlocal/plasma, nonlocal/drude, plasma/drude.
    """
    choice = args.model or default
    names = (["nonlocal", "plasma", "drude"] if choice == "all"
             else [choice or cfg.variant])
    model = build_material(cfg, use_interband=not args.no_interband)
    return names, [replace(model, variant=n) for n in names]


def _per_point(grid, names, curves, fields) -> list[list]:
    """Rows [a, name, *fields(value)]: separation outer, model inner."""
    return [[a, name, *fields(curve[i])] for i, a in enumerate(grid)
            for name, curve in zip(names, curves)]


def _dump_points(cfg, ls) -> list[tuple]:
    """(l, k_perp) of the dumps: separation a outer, then l, then
    k_perp = fac/a over ``_KFACS``."""
    return [(l, fac / a) for a in separation_grid(cfg) for l in ls
            for fac in _KFACS]


def _pressure(cfg, args, ctx):
    names, models = _models(cfg, args)
    grid = separation_grid(cfg)
    curves = pressure_curves(grid, models, ctx, cfg.quad_tol,
                             cfg.series_tol)
    return (["a_m", "model", "pressure_pa", "terms_used", "tail_bound",
             "quad_error"],
            _per_point(grid, names, curves, lambda r: (
                r.pressure, r.terms_used, r.series_tail_bound,
                r.quad_error)), ())


def _ratio(cfg, args, ctx):
    names, models = _models(cfg, args, "all")
    grid = separation_grid(cfg)
    curves = pressure_curves(grid, models, ctx, cfg.quad_tol,
                             cfg.series_tol)
    pairs = [(i, j) for i in range(len(names))
             for j in range(i + 1, len(names))]  # first over later
    header = ["a_m", *(f"p_{n}" for n in names),
              *(f"ratio_{names[i]}_over_{names[j]}" for i, j in pairs)]
    rows = []
    for k, a in enumerate(grid):
        p = [curve[k].pressure for curve in curves]
        rows.append([a, *p, *(p[i] / p[j] for i, j in pairs)])
    return header, rows, ()


def _impedance_dump(cfg, args, ctx):
    if args.model == "all":
        raise ConfigError("impedance-dump emits a single-model table; "
                          "pick one of drude, plasma, nonlocal")
    _, (model,) = _models(cfg, args)
    rows = []
    for l, k in _dump_points(cfg, _L_GRID):
        z = impedance_pair(l, k, model, ctx)
        rows.append([l, k, z.z_tm, z.z_te])
    return ["l", "k_perp", "z_tm", "z_te"], rows, ()


def _reflect_dump(cfg, args, ctx):
    names, models = _models(cfg, args)
    points = _dump_points(cfg, (0,) + _L_GRID)
    rows = []
    for name, model in zip(names, models):
        for l, k in points:
            r = refl_pair(l, k, model, ctx)
            rows.append([name, l, k, r.r_tm, r.r_te])
    return ["model", "l", "k_perp", "r_tm", "r_te"], rows, ()


def _gradient(cfg, args, ctx):
    names, models = _models(cfg, args)
    geom = build_geometry(cfg)
    grid = separation_grid(cfg)
    curves = gradient_curves(grid, models, geom, ctx, cfg.quad_tol,
                             cfg.series_tol)
    return (["a_m", "model", "grad_n_per_m"],
            _per_point(grid, names, curves, lambda g: (g,)), ())


def _compare(cfg, args, ctx):
    if args.experiment is None:
        raise ConfigError("compare requires --experiment PATH")
    data = ExperimentDataset.from_csv(args.experiment)
    names, models = _models(cfg, args)
    geom = build_geometry(cfg)
    comps = compare_models(data, models, geom, ctx,
                           err_theory_rel=cfg.err_theory_rel,
                           quad_tol=cfg.quad_tol, series_tol=cfg.series_tol)
    multi = len(names) > 1
    rows, summary = [], []
    for name, comp in zip(names, comps):
        inside = sum(1 for c in comp if c.inside_ci)
        summary.append(f"model={name} inside={inside} "
                       f"outside={len(comp) - inside}")
        # gradients reported in uN/m to match the experiment file units
        rows += [[name] * multi + [c.a * 1e9, c.grad_theory * 1e6,
                                   c.delta * 1e6, c.ci_halfwidth * 1e6,
                                   c.inside_ci] for c in comp]
    return (["model"] * multi + ["a_nm", "grad_theory", "delta",
                                 "ci_halfwidth", "inside_ci"], rows, summary)


_COMMANDS = {"pressure": _pressure, "ratio": _ratio,
             "impedance-dump": _impedance_dump,
             "reflect-dump": _reflect_dump, "gradient": _gradient,
             "compare": _compare}

_HELP = "\n".join(
    [_USAGE, "", "Casimir pressure and sphere-plate force gradients for "
     "magnetic metals.", "", "commands: " + ", ".join(_COMMANDS), "",
     "options:", f"  {'-h, --help':<20}show this help message and exit"]
    + [f"  {form.strip('[]'):<20}{text}" for form, text in _OPTIONS])


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

        header, rows, summary = _COMMANDS[args.command](
            cfg, args, build_context(cfg))
        write_csv(out_path, header, rows)
        for line in summary:  # never into a CSV on stdout
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
