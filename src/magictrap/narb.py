"""Surrogate excited A-b complex of NaRb, built from a run configuration.

The measured numbers (rotational constants, transition energy, masses,
trap-laser backgrounds, hyperfine constants, field settings) live only
in the INI configuration (bundled: ``data/narb-defaults.ini``) and
reach the model through :class:`~magictrap.config.RunConfig`.

Everything about the excited A-b pair beyond its lowest transition
energy and rotational constant is NOT publicly tabulated, so the
coupled model here is a surrogate: two Morse wells with a constant
spin-orbit coupling, shaped to produce a b-dominant lowest level whose
transition strength is borrowed from the A channel.  It supports
structure, sign and scaling studies; absolute line strengths are only
as real as the calibrated linewidth.
"""

from __future__ import annotations

import math

from .config import RunConfig
from .potentials import CoupledModel, DipoleFunction, MorseCurve, calibrate_morse
from .radial import RovibBasis, rovib_basis
from .units import AMU_TO_ME, HARTREE_TO_CM1

# Surrogate well shapes, chosen, not fitted: the X and b wells match
# the printed rotational constants, the A well sits outside with a
# shallow long minimum, and the diabats cross between the two minima.
OMEGA_X_CM1 = 107.0
D_X_CM1 = 5000.0
OMEGA_B_CM1 = 110.0
D_B_CM1 = 3000.0
A_RE_BOHR = 8.8
A_DE_CM1 = 4000.0
A_WIDTH_INV_BOHR = 0.15
CROSSING_BOHR = 7.5
XI_CM1 = 20.0
DIPOLE_XA_EA0 = 1.0


def radial_models(cfg: RunConfig) -> tuple[MorseCurve, CoupledModel, DipoleFunction]:
    """Ground curve, unshifted coupled model and dipole from config constants.

    Well shapes follow the surrogate above; the printed rotational
    constants and masses come from the config.  The X <-> A moment is
    R-independent; the b channel is dark on its own.  Nothing is solved:
    :func:`pinned_models` aligns the coupled model to the configured
    transition energy.
    """
    mass = cfg.reduced_mass_amu()
    mu = mass * AMU_TO_ME
    ground = calibrate_morse(
        cfg.get("molecule", "b_v_cm1"), OMEGA_X_CM1, mass,
        d_e_cm1=D_X_CM1, label="X",
    )
    d_b = D_B_CM1 / HARTREE_TO_CM1
    omega_b = OMEGA_B_CM1 / HARTREE_TO_CM1
    b_curve = MorseCurve(
        label="b", d_e=d_b, a=omega_b * math.sqrt(mu / (2.0 * d_b)),
        r_e=1.0 / math.sqrt(
            2.0 * mu * cfg.get("molecule", "b_vprime_cm1") / HARTREE_TO_CM1
        ),
        asymptote=0.0,
    )
    d_a = A_DE_CM1 / HARTREE_TO_CM1
    a_trial = MorseCurve(label="A", d_e=d_a, a=A_WIDTH_INV_BOHR,
                         r_e=A_RE_BOHR, asymptote=0.0)
    # raise the A asymptote until the diabats cross at the chosen radius
    offset = float(b_curve(CROSSING_BOHR)) - float(a_trial(CROSSING_BOHR))
    a_curve = MorseCurve(label="A", d_e=d_a, a=A_WIDTH_INV_BOHR,
                         r_e=A_RE_BOHR, asymptote=offset)
    model = CoupledModel.constant_coupling(
        labels=("A", "b"), curves=(a_curve, b_curve),
        xi=XI_CM1 / HARTREE_TO_CM1,
    )
    return ground, model, DipoleFunction.constant(("X", "A"), DIPOLE_XA_EA0)


def pinned_models(cfg: RunConfig) -> tuple[MorseCurve, CoupledModel, DipoleFunction,
                                           RovibBasis, RovibBasis]:
    """:func:`radial_models` with the coupled model pinned, and its bases.

    The coupled model is shifted so E(v'=0, J'=1) - E_X(0, 0) equals the
    configured transition energy on the configured grid, which gives
    scans built from it and from :meth:`RunConfig.spec` the same
    detuning origin.

    The last two values are the ground curve's basis at J=0 and the
    shifted coupled model's basis at J'=1, one dense solve each, from
    which a caller reads the levels at every J.
    """
    ground, model, dipole = radial_models(cfg)
    mass = cfg.reduced_mass_amu()
    grid = cfg.radial_grid()
    # the 2n x 2n coupled solve first, so its peak memory does not stack
    # on what the n x n ground solve leaves allocated
    ab_basis = rovib_basis(model, 1, mass, grid)
    x_basis = rovib_basis(ground, 0, mass, grid)
    shift = (cfg.get("molecule", "transition_cm1") / HARTREE_TO_CM1
             + x_basis.levels(0, 1)[0].energy - ab_basis.levels(1, 1)[0].energy)
    return (ground, model.with_shift(shift), dipole, x_basis,
            ab_basis.with_shift(shift))
