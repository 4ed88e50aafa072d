"""Run configuration: flat ``key = value`` text files.

The format is deliberately minimal for diff-friendliness: one assignment
per line, ``#`` comments, blank lines ignored.  Unknown keys are rejected
by name; every parse error carries the offending line or field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .constants import ev_to_rad_s
from .response import VARIANTS, InterbandTable, MaterialModel, \
    MatsubaraContext
from .sphere_plate import GeometryParams, read_theta_table


class ConfigError(ValueError):
    """Invalid configuration text or values."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for the command-line runs."""

    # material
    variant: str
    omega_p_ev: float
    gamma_ev: float = 0.0
    mu0: float = 1.0
    v_t_over_vf: float = 0.0
    v_l_over_vf: float = 0.0
    v_f_m_s: float = 1.31e6
    optical_data_path: str | None = None
    # sweep
    a_min_nm: float = 100.0
    a_max_nm: float = 1000.0
    points: int = 1
    spacing: str = "linear"
    # run
    temperature_k: float = 300.0
    quad_tol: float = 1e-9
    series_tol: float = 1e-8
    l_max_cap: int | None = None
    output_path: str = "-"
    # sphere-plate geometry (used by gradient/compare)
    radius_m: float | None = None
    delta_s_m: float = 0.0
    delta_p_m: float = 0.0
    theta_table_path: str | None = None
    err_theory_rel: float = 0.0


_REQUIRED = ("variant", "omega_p_ev", "a_min_nm", "a_max_nm", "points")

_FLOAT_KEYS = {
    "omega_p_ev", "gamma_ev", "mu0", "v_t_over_vf", "v_l_over_vf",
    "v_f_m_s", "a_min_nm", "a_max_nm", "temperature_k", "quad_tol",
    "series_tol", "radius_m", "delta_s_m", "delta_p_m", "err_theory_rel",
}
_INT_KEYS = {"points", "l_max_cap"}
_STR_KEYS = {"variant", "spacing", "optical_data_path", "output_path",
             "theta_table_path"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


def parse_config(text: str) -> RunConfig:
    """Parse and validate the documented key = value format."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: field '{key}': non-numeric value "
                    f"'{value}'") from None
            if not math.isfinite(values[key]):
                raise ConfigError(f"line {lineno}: field '{key}': "
                                  f"non-finite value '{value}'")
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: field '{key}': expected an integer, "
                    f"got '{value}'") from None
        else:
            values[key] = value

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key '{key}'")

    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"field '{field}': {message}")


def _validate(cfg: RunConfig) -> None:
    _require(cfg.variant in VARIANTS, "variant",
             f"must be one of {', '.join(VARIANTS)}")
    _require(cfg.omega_p_ev > 0.0, "omega_p_ev", "must be > 0")
    _require(cfg.gamma_ev >= 0.0, "gamma_ev", "must be >= 0")
    _require(cfg.mu0 >= 1.0, "mu0", "must be >= 1")
    _require(cfg.v_t_over_vf >= 0.0, "v_t_over_vf", "must be >= 0")
    _require(cfg.v_l_over_vf >= 0.0, "v_l_over_vf", "must be >= 0")
    _require(cfg.v_f_m_s > 0.0, "v_f_m_s", "must be > 0")
    _require(cfg.a_min_nm > 0.0, "a_min_nm", "must be > 0")
    _require(cfg.a_max_nm > cfg.a_min_nm, "a_max_nm", "must exceed a_min_nm")
    _require(cfg.points >= 1, "points", "must be >= 1")
    _require(cfg.spacing in ("linear", "log"), "spacing",
             "must be 'linear' or 'log'")
    _require(cfg.temperature_k > 0.0, "temperature_k", "must be > 0")
    for name in ("quad_tol", "series_tol"):
        _require(0.0 < getattr(cfg, name) <= 1e-4, name,
                 "must be in (0, 1e-4]")
    if cfg.l_max_cap is not None:
        _require(cfg.l_max_cap >= 10, "l_max_cap", "must be >= 10")
    if cfg.radius_m is not None:
        _require(cfg.radius_m > 0.0, "radius_m", "must be > 0")
    _require(cfg.delta_s_m >= 0.0, "delta_s_m", "must be >= 0")
    _require(cfg.delta_p_m >= 0.0, "delta_p_m", "must be >= 0")
    _require(cfg.err_theory_rel >= 0.0, "err_theory_rel", "must be >= 0")


def serialize(cfg: RunConfig) -> str:
    """Emit a config text that parses back to an equal RunConfig."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, float):
            lines.append(f"{f.name} = {value!r}")
        else:
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def separation_grid(cfg: RunConfig) -> list[float]:
    """Sweep separations in meters (a_min is used when points == 1)."""
    a_min = cfg.a_min_nm * 1e-9
    a_max = cfg.a_max_nm * 1e-9
    if cfg.points == 1:
        return [a_min]
    if cfg.spacing == "log":
        step = math.log(a_max / a_min) / (cfg.points - 1)
        return [a_min * math.exp(i * step) for i in range(cfg.points)]
    step = (a_max - a_min) / (cfg.points - 1)
    return [a_min + i * step for i in range(cfg.points)]


def build_material(cfg: RunConfig, variant: str | None = None,
                   use_interband: bool = True) -> MaterialModel:
    """MaterialModel from the config, optionally overriding the variant."""
    interband = None
    if use_interband and cfg.optical_data_path is not None:
        interband = InterbandTable.from_csv(cfg.optical_data_path)
    return MaterialModel(
        omega_p=ev_to_rad_s(cfg.omega_p_ev),
        gamma=ev_to_rad_s(cfg.gamma_ev),
        mu0=cfg.mu0,
        v_t=cfg.v_t_over_vf * cfg.v_f_m_s,
        v_l=cfg.v_l_over_vf * cfg.v_f_m_s,
        interband=interband,
        variant=variant if variant is not None else cfg.variant,
    )


def build_context(cfg: RunConfig) -> MatsubaraContext:
    return MatsubaraContext(temperature=cfg.temperature_k,
                            l_max_cap=cfg.l_max_cap)


def build_geometry(cfg: RunConfig) -> GeometryParams:
    if cfg.radius_m is None:
        raise ConfigError("field 'radius_m': required for sphere-plate runs")
    theta = None
    if cfg.theta_table_path is not None:
        theta = read_theta_table(cfg.theta_table_path)
    return GeometryParams(radius=cfg.radius_m, delta_s=cfg.delta_s_m,
                          delta_p=cfg.delta_p_m, theta_table=theta)
