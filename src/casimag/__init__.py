"""Casimir pressure between magnetic metal plates for local and
wavevector-dependent dielectric response, and sphere-plate force gradients.

The pressure between identical thick plates follows from the Matsubara sum
over imaginary frequencies of reflection-coefficient integrals.  Each
quantity has one entry: ``pressure_curves`` (``pressure`` for one point),
``gradient_curves``, ``compare_models``, ``refl_pair`` and the closed-form
``impedance_pair``, checked by the k_z integrals of ``impedance_integral``.
"""

from .impedance import ImpedancePair, impedance_integral, impedance_pair, \
    refl_from_impedance
from .lifshitz import PressureResult, SeriesConvergenceError, pressure, \
    pressure_curves
from .quadrature import QuadratureError
from .reflection import FixedReflection, ReflectionPair, eps_pair, \
    refl_fresnel, refl_pair
from .response import DRUDE, NONLOCAL, PLASMA, InterbandTable, \
    MaterialModel, MatsubaraContext, eps_core_kk, matsubara_xi, nickel
from .sphere_plate import ComparisonRow, ExperimentDataset, GeometryParams, \
    apply_pfa_correction, compare_models, gradient_curves, roughness_factor

__version__ = "0.1.0"
