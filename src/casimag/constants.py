"""Physical constants (CODATA 2018, SI) and unit conversions.

All internal computation is in SI: angular frequencies in rad/s, lengths in
m, temperatures in K, pressures in Pa.  Energy-like inputs (plasma
frequency, relaxation parameter, photon energies in optical tables) are
accepted in eV and converted through hbar.
"""

import math

HBAR = 1.054571817e-34     # J s
K_BOLTZMANN = 1.380649e-23  # J/K
C_LIGHT = 299792458.0       # m/s
EV = 1.602176634e-19        # J

# 1 eV of photon energy as an angular frequency, ~1.519e15 rad/s
EV_TO_RAD_S = EV / HBAR

PI = math.pi


def ev_to_rad_s(energy_ev: float) -> float:
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * EV_TO_RAD_S
