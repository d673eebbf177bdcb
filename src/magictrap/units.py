"""Physical constants and unit conversion.

The radial, potential and polarizability work happens in Hartree
atomic units; the hyperfine Hamiltonian works in MHz, with
polarizabilities in Hz/(W/cm^2).  Everything a user touches (config
files, CLI output) carries experimental units and passes through this
module exactly once on the way in or out.

Conversions are purely multiplicative within a dimension group, so a
round trip reproduces the input to within a couple of ulps.  The one
deliberately non-CODATA number is :data:`AU_POL_TO_MHZ_PER_WCM2`, the
conventional rounded factor used to quote polarizabilities as light
shift per intensity.
"""

from __future__ import annotations

import enum
import math

from .errors import UnitError

__all__ = [
    "Unit",
    "convert",
    "AU_POL_TO_MHZ_PER_WCM2",
    "HARTREE_TO_CM1",
    "HARTREE_TO_GHZ",
    "HARTREE_TO_MHZ",
    "CM1_TO_GHZ",
    "AMU_TO_ME",
    "DEBYE_TO_EA0",
    "NUCLEAR_MAGNETON_MHZ_PER_G",
    "C_AU",
    "BOHR_RADIUS_M",
]

# CODATA 2022 values (SI; h, c and e exact), written out so that the
# output does not depend on the installed scipy's constants table
_H = 6.62607015e-34                    # J s
_C = 299792458.0                       # m/s
_E = 1.602176634e-19                   # C
_M_E = 9.1093837139e-31                # kg
_M_U = 1.66053906892e-27               # kg
_ALPHA = 0.0072973525643
BOHR_RADIUS_M = 5.29177210544e-11
_HARTREE_J = 4.359744722206e-18
_NUCLEAR_MAGNETON_J_T = 5.0507837393e-27

C_AU = 1.0 / _ALPHA

HARTREE_TO_CM1 = _HARTREE_J / (_H * _C * 100.0)
HARTREE_TO_GHZ = _HARTREE_J / _H / 1e9
HARTREE_TO_MHZ = _HARTREE_J / _H / 1e6
CM1_TO_GHZ = _C * 100.0 / 1e9          # 29.9792458 exactly
AMU_TO_ME = _M_U / _M_E
DEBYE_TO_EA0 = 1e-21 / _C / (_E * BOHR_RADIUS_M)

# Nuclear magneton expressed as a frequency shift per Gauss.
NUCLEAR_MAGNETON_MHZ_PER_G = _NUCLEAR_MAGNETON_J_T / _H / 1e10

# Adopted conversion between the atomic unit of polarizability and the
# light-shift-per-intensity unit.  This is the rounded literature value;
# it differs from the CODATA-derived factor in the sixth digit and is
# used verbatim so tabulated coefficients stay comparable.
AU_POL_TO_MHZ_PER_WCM2 = 4.68645e-8


class Unit(enum.Enum):
    """Enumerated physical units, tagged with a dimension group.

    The second member field is the scale factor to the group's base
    unit (Hartree, polarizability a.u., e*a0, Bohr, Gauss, V/m, W/cm^2,
    radian, electron mass).
    """

    # energy (photon energies, rotational constants, detunings)
    HARTREE = ("energy", 1.0)
    WAVENUMBER = ("energy", 1.0 / HARTREE_TO_CM1)
    GHZ = ("energy", 1.0 / HARTREE_TO_GHZ)
    MHZ = ("energy", 1.0 / HARTREE_TO_MHZ)

    # polarizability
    AU_POL = ("polarizability", 1.0)
    MHZ_PER_WCM2 = ("polarizability", 1.0 / AU_POL_TO_MHZ_PER_WCM2)
    HZ_PER_WCM2 = ("polarizability", 1e-6 / AU_POL_TO_MHZ_PER_WCM2)

    # electric dipole moment
    EA0 = ("dipole", 1.0)
    DEBYE = ("dipole", DEBYE_TO_EA0)

    # length
    BOHR = ("length", 1.0)
    ANGSTROM = ("length", 1e-10 / BOHR_RADIUS_M)
    NANOMETER = ("length", 1e-9 / BOHR_RADIUS_M)

    # magnetic field
    GAUSS = ("magnetic_field", 1.0)
    TESLA = ("magnetic_field", 1e4)

    # electric field
    V_PER_M = ("electric_field", 1.0)
    KV_PER_CM = ("electric_field", 1e5)

    # laser intensity
    W_PER_CM2 = ("intensity", 1.0)
    KW_PER_CM2 = ("intensity", 1e3)
    W_PER_M2 = ("intensity", 1e-4)

    # angle
    RADIAN = ("angle", 1.0)
    DEGREE = ("angle", math.pi / 180.0)

    # mass
    ELECTRON_MASS = ("mass", 1.0)
    DALTON = ("mass", AMU_TO_ME)

    def __init__(self, dimension: str, factor: float):
        self.dimension = dimension
        self.factor = factor


def convert(value: float, src: Unit, dst: Unit) -> float:
    """Convert ``value`` from ``src`` to ``dst``.

    Raises :class:`UnitError` if the two units measure different
    physical dimensions.
    """
    if not isinstance(src, Unit) or not isinstance(dst, Unit):
        raise ValueError("src and dst must be Unit members")
    if src.dimension != dst.dimension:
        raise UnitError(
            f"cannot convert {src.name} ({src.dimension}) "
            f"to {dst.name} ({dst.dimension})"
        )
    return value * (src.factor / dst.factor)
