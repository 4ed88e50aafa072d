import pytest

from casimag.config import (ConfigError, build_material, parse_config,
                            separation_grid)

MINIMAL = """
variant = nonlocal
omega_p_ev = 4.89
gamma_ev = 0.0436
mu0 = 110
v_t_over_vf = 7
v_l_over_vf = 7
a_min_nm = 100
a_max_nm = 800
points = 5
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.temperature_k == 300.0
    assert cfg.series_tol == 1e-8
    assert cfg.quad_tol == 1e-9
    assert cfg.spacing == "linear"
    assert cfg.v_f_m_s == 1.31e6
    assert cfg.output_path == "-"


def test_velocity_conversion():
    cfg = parse_config(MINIMAL)
    model = build_material(cfg)
    assert model.v_t == 9.17e6
    assert model.v_l == 9.17e6
    assert model.mu0 == 110.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# heading\n\n" + MINIMAL + "\n# trailing comment\n")
    assert cfg.points == 5


@pytest.mark.parametrize("mark", ["\x0c", "\x1c", "\x85", "\u2028"],
                         ids=["form-feed", "file-sep", "nel", "line-sep"])
def test_only_newlines_end_lines(mark):
    # str.splitlines also breaks at these, which would make " see below"
    # a line of its own; an error names the line of the file
    text = f"# heading\n# note{mark} see below\n" + MINIMAL
    assert parse_config(text).points == 5
    with pytest.raises(ConfigError, match="line 12: field 'points'"):
        parse_config(text.replace("points = 5", "points = five"))


def test_inline_comment_after_a_path(tmp_path):
    # the README's commented-out table line, uncommented as it invites
    import _ni_optical
    path = tmp_path / "ni.csv"
    _ni_optical.write_csv(path, n=60)
    cfg = parse_config(MINIMAL + f"optical_data_path = {path}   "
                       "# enables the interband core\n")
    assert cfg.optical_data_path == str(path)
    assert build_material(cfg).interband is not None


def test_inline_comment_after_numbers_and_names():
    cfg = parse_config(MINIMAL.replace("points = 5", "points = 5  # sweep")
                       .replace("variant = nonlocal", "variant = nonlocal # x")
                       + "temperature_k = 10\t# cold\n")
    assert (cfg.points, cfg.variant, cfg.temperature_k) == (5, "nonlocal",
                                                            10.0)


def test_hash_inside_a_value_is_kept():
    # only a "#" after whitespace starts a comment
    cfg = parse_config(MINIMAL + "output_path = run#1.csv\n")
    assert cfg.output_path == "run#1.csv"


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="unknown key 'omega_p'"):
        parse_config(MINIMAL + "omega_p = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(MINIMAL + "points = 7\n")


@pytest.mark.parametrize("key", ["variant", "omega_p_ev", "a_min_nm",
                                 "a_max_nm", "points"])
def test_missing_required_key_named(key):
    text = "\n".join(line for line in MINIMAL.splitlines()
                     if not line.startswith(f"{key} "))
    with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
        parse_config(text)


def test_non_numeric_value_cites_line_and_field():
    bad = MINIMAL.replace("points = 5", "points = five")
    with pytest.raises(ConfigError, match="field 'points'"):
        parse_config(bad)


def test_negative_plasma_frequency_names_field():
    bad = MINIMAL.replace("omega_p_ev = 4.89", "omega_p_ev = -1")
    with pytest.raises(ConfigError, match="omega_p_ev"):
        parse_config(bad)


@pytest.mark.parametrize("key,other", [("v_t_over_vf", "v_l_over_vf"),
                                       ("v_l_over_vf", "v_t_over_vf")])
@pytest.mark.parametrize("value,v_f", [("300", "1.31e6"), ("7", "5e7")])
def test_superluminal_velocity_names_config_key(key, other, value, v_f):
    # ratio * v_f_m_s >= c is rejected under the config key, not later under
    # the library field (v_t, v_l) it turns into
    bad = (MINIMAL.replace(f"{key} = 7", f"{key} = {value}")
           .replace(f"{other} = 7", f"{other} = 1")
           + f"v_f_m_s = {v_f}\n")
    with pytest.raises(ConfigError, match=f"field '{key}'.*below c"):
        parse_config(bad)


def test_sweep_bounds_validated():
    bad = MINIMAL.replace("a_max_nm = 800", "a_max_nm = 50")
    with pytest.raises(ConfigError, match="a_max_nm"):
        parse_config(bad)


def test_bad_variant_rejected():
    bad = MINIMAL.replace("variant = nonlocal", "variant = lorentz")
    with pytest.raises(ConfigError, match="variant"):
        parse_config(bad)


def test_optional_keys_parsed():
    cfg = parse_config(MINIMAL + "spacing = log\nl_max_cap = 500\n"
                       "radius_m = 61.71e-6\nerr_theory_rel = 0.01\n")
    assert (cfg.spacing, cfg.l_max_cap) == ("log", 500)
    assert (cfg.radius_m, cfg.err_theory_rel) == (61.71e-6, 0.01)


def test_separation_grids():
    cfg = parse_config(MINIMAL)
    grid = separation_grid(cfg)
    assert len(grid) == 5
    assert grid[0] == pytest.approx(100e-9)
    assert grid[-1] == pytest.approx(800e-9)
    steps = [b - a for a, b in zip(grid, grid[1:])]
    assert steps[0] == pytest.approx(steps[-1])

    log_cfg = parse_config(MINIMAL.replace("points = 5", "points = 4")
                           + "spacing = log\n")
    ratios = [b / a for a, b in
              zip(separation_grid(log_cfg), separation_grid(log_cfg)[1:])]
    assert ratios[0] == pytest.approx(ratios[-1])


def test_single_point_sweep_uses_lower_bound():
    cfg = parse_config(MINIMAL.replace("points = 5", "points = 1"))
    assert separation_grid(cfg) == pytest.approx([100e-9], rel=1e-15)


def test_interband_switch(tmp_path):
    import _ni_optical
    path = tmp_path / "ni.csv"
    _ni_optical.write_csv(path, n=60)
    cfg = parse_config(MINIMAL + f"optical_data_path = {path}\n")
    assert build_material(cfg).interband is not None
    assert build_material(cfg, use_interband=False).interband is None
