"""Run configuration: flat ``key = value`` text files.

The format is deliberately minimal for diff-friendliness: one assignment
per line, blank lines ignored, and ``#`` comments, on a line of their own
or after whitespace at the end of an assignment.  The keys, their types
and which are required are ``RunConfig``'s fields.  Unknown keys are
rejected by name; every parse error carries the offending line or field.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields

from .constants import C_LIGHT, ev_to_rad_s
from .response import NI_V_FERMI, VARIANTS, InterbandTable, \
    MaterialModel, MatsubaraContext
from .sphere_plate import GeometryParams, read_theta_table


class ConfigError(ValueError):
    """Invalid configuration text or values."""


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Validated configuration for the command-line runs; a field without
    a default is a required key."""

    # material
    variant: str
    omega_p_ev: float
    gamma_ev: float = 0.0
    mu0: float = 1.0
    v_t_over_vf: float = 0.0
    v_l_over_vf: float = 0.0
    v_f_m_s: float = NI_V_FERMI
    optical_data_path: str | None = None
    # sweep
    a_min_nm: float
    a_max_nm: float
    points: int
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


_REQUIRED = [f.name for f in fields(RunConfig) if f.default is MISSING]
# key -> "float", "int" or "str", from annotations such as "int | None"
_KIND = {f.name: f.type.partition(" ")[0] for f in fields(RunConfig)}
# a comment after whitespace ends an assignment's value
_INLINE_COMMENT = re.compile(r"\s#.*")


def parse_config(text: str) -> RunConfig:
    """Parse and validate the documented key = value format."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _INLINE_COMMENT.sub("", raw).strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = _KIND.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if kind == "float":
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: field '{key}': non-numeric value "
                    f"'{value}'") from None
            if not math.isfinite(values[key]):
                raise ConfigError(f"line {lineno}: field '{key}': "
                                  f"non-finite value '{value}'")
        elif kind == "int":
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
    _require(cfg.v_f_m_s > 0.0, "v_f_m_s", "must be > 0")
    for name in ("v_t_over_vf", "v_l_over_vf"):
        _require(0.0 <= getattr(cfg, name) * cfg.v_f_m_s < C_LIGHT, name,
                 f"must be >= 0 with {name} * v_f_m_s below c")
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


def build_material(cfg: RunConfig,
                   use_interband: bool = True) -> MaterialModel:
    """MaterialModel of the configured variant."""
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
        variant=cfg.variant,
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
