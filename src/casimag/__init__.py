"""Casimir pressure between magnetic metal plates for local and
wavevector-dependent dielectric response, and sphere-plate force gradients.

The pressure between identical thick plates follows from the Matsubara sum
over imaginary frequencies of reflection-coefficient integrals; impedances
and reflection coefficients are available both in closed form and through
numerical wavevector integrals that validate them.
"""

from .impedance import ImpedancePair, impedance_pair, \
    refl_from_impedance, refl_via_impedance, z_local, z_te_closed, \
    z_te_integral, z_tm_closed, z_tm_integral
from .lifshitz import FixedReflection, PressureQuery, PressureResult, \
    SeriesConvergenceError, pressure, pressure_ratio_table, pressure_term
from .quadrature import QuadratureError
from .reflection import ReflectionPair, eps_drude, eps_longitudinal_nl, \
    eps_plasma, eps_transverse_nl, refl_fresnel, refl_nonlocal_closed, \
    refl_pair, refl_static, refl_zero_freq, refl_zero_freq_local
from .response import DRUDE, NONLOCAL, PLASMA, InterbandTable, \
    MaterialModel, MatsubaraContext, eps_core_kk, matsubara_xi, mu_at, \
    nickel
from .sphere_plate import ComparisonRow, ExperimentDataset, GeometryParams, \
    apply_pfa_correction, apply_roughness, compare, gradient_pfa, \
    gradient_theory, roughness_factor

__version__ = "0.1.0"
