"""Casimir pressure between magnetic metal plates for local and
wavevector-dependent dielectric response, and sphere-plate force gradients.

The pressure between identical thick plates follows from the Matsubara sum
over imaginary frequencies of reflection-coefficient integrals; impedances
and reflection coefficients are available both in closed form and through
numerical wavevector integrals that validate them.
"""

from .impedance import ImpedancePair, impedance_pair, \
    refl_from_impedance, z_local, z_te_closed, z_te_integral, z_tm_closed, \
    z_tm_integral
from .lifshitz import PressureResult, SeriesConvergenceError, pressure, \
    pressure_curves, pressure_ratio_table, pressure_term
from .quadrature import QuadratureError
from .reflection import FixedReflection, ReflectionPair, eps_pair, \
    refl_fresnel, refl_pair
from .response import DRUDE, NONLOCAL, PLASMA, InterbandTable, \
    MaterialModel, MatsubaraContext, eps_core_kk, matsubara_xi, nickel
from .sphere_plate import ComparisonRow, ExperimentDataset, GeometryParams, \
    apply_pfa_correction, compare_models, gradient_curves, roughness_factor

__version__ = "0.1.0"
