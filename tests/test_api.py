"""The public names of the casimag package: one entry per quantity."""

import types

import casimag

PUBLIC = [
    # models, context and the Matsubara frequencies
    "DRUDE", "NONLOCAL", "PLASMA", "InterbandTable", "MaterialModel",
    "MatsubaraContext", "eps_core_kk", "matsubara_xi", "nickel",
    # permittivities and reflection coefficients
    "FixedReflection", "ReflectionPair", "eps_pair", "refl_fresnel",
    "refl_pair",
    # surface impedances: the closed forms and the k_z integrals
    "ImpedancePair", "impedance_integral", "impedance_pair",
    "refl_from_impedance",
    # the pressure
    "PressureResult", "QuadratureError", "SeriesConvergenceError",
    "pressure", "pressure_curves",
    # the sphere-plate gradient and the comparison with measurements
    "ComparisonRow", "ExperimentDataset", "GeometryParams",
    "apply_pfa_correction", "compare_models", "gradient_curves",
    "roughness_factor",
]


def test_public_names():
    # submodules become attributes once imported, so they are left out
    names = [n for n, v in vars(casimag).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == sorted(PUBLIC)
