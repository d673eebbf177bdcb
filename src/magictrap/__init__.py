"""Magic optical-trapping conditions for bialkali rotational states.

Layers, bottom up: :mod:`~magictrap.units` and :mod:`~magictrap.angular`
(conversions and Wigner algebra), :mod:`~magictrap.potentials` and
:mod:`~magictrap.radial` (curves and bound-state solver),
:mod:`~magictrap.polarizability` (real and imaginary responses, closed
form and sum over states), :mod:`~magictrap.hyperfine` (field-dressed
eigenstates), :mod:`~magictrap.magic` (crossing searches and
calibration), :mod:`~magictrap.config` (INI run configuration, the one
source of the NaRb numbers), :mod:`~magictrap.narb` (the surrogate
excited complex built from a config), and the :mod:`~magictrap.cli`
scan tool.
"""

from .angular import (
    MAGIC_ANGLE_DEG,
    AngularFactors,
    ResonanceOffsets,
    angular_factors,
    resonance_offsets,
    rot_tensor_element,
    wigner3j,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DataFormatError,
    GridError,
    MagicTrapError,
    NoRootError,
    PoleProximityError,
    UnitError,
)
from .hyperfine import (
    TERMS,
    EigenSolution,
    FieldConfiguration,
    HyperfineBasis,
    MolecularConstants,
    build_basis,
    build_hamiltonian,
    diagonalize,
    eigenstate_polarizability,
    polarization_operator,
    track_states,
)
from .magic import (
    MagicSolution,
    calibrate_gamma,
    find_magic_angle,
    find_magic_detuning,
)
from .polarizability import (
    Background,
    PolarizabilitySpec,
    ResonantLine,
    alpha_analytic,
    alpha_fardetuned,
    alpha_imag,
    alpha_sum_over_states,
    gamma_from_dipole,
    line_strength,
    spec_from_levels,
    validity_notes,
)
from .potentials import (
    CoupledModel,
    DipoleFunction,
    MorseCurve,
    PointwiseCurve,
    calibrate_morse,
    load_pointwise,
)
from .radial import (
    RadialGrid,
    RovibBasis,
    RovibLevel,
    dvr_kinetic,
    linewidth,
    radial_matrix_element,
    rovib_basis,
    solve_coupled,
    solve_single,
)
from .units import Unit, convert, wavelength_nm

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # units
    "Unit", "convert", "wavelength_nm",
    # angular
    "MAGIC_ANGLE_DEG", "AngularFactors", "ResonanceOffsets",
    "angular_factors", "resonance_offsets", "rot_tensor_element", "wigner3j",
    # potentials
    "MorseCurve", "PointwiseCurve", "DipoleFunction", "CoupledModel",
    "calibrate_morse", "load_pointwise",
    # radial
    "RadialGrid", "RovibLevel", "RovibBasis", "dvr_kinetic", "rovib_basis",
    "solve_single", "solve_coupled", "radial_matrix_element", "linewidth",
    # polarizability
    "Background", "ResonantLine", "PolarizabilitySpec",
    "alpha_analytic", "alpha_fardetuned", "alpha_sum_over_states", "validity_notes",
    "gamma_from_dipole", "line_strength",
    "alpha_imag", "spec_from_levels",
    # hyperfine
    "MolecularConstants", "FieldConfiguration", "HyperfineBasis",
    "TERMS", "EigenSolution", "build_basis", "build_hamiltonian",
    "polarization_operator", "diagonalize", "eigenstate_polarizability",
    "track_states",
    # magic
    "MagicSolution", "find_magic_detuning", "find_magic_angle", "calibrate_gamma",
    # errors
    "MagicTrapError", "UnitError", "DataFormatError", "GridError",
    "ConfigError", "PoleProximityError", "NoRootError", "CalibrationError",
]
