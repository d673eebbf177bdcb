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

import logging
import math
from functools import lru_cache

from .config import RunConfig
from .potentials import CoupledModel, DipoleFunction, MorseCurve, calibrate_morse
from .radial import RadialGrid, RovibBasis, rovib_basis
from .units import AMU_TO_ME, HARTREE_TO_CM1

logger = logging.getLogger(__name__)

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


def _models(b_v_cm1: float, b_vprime_cm1: float,
            mass_amu: float) -> tuple[MorseCurve, CoupledModel, DipoleFunction]:
    """Ground curve, unshifted coupled model and dipole from the only three
    numbers they read, with no solve; the b channel is dark on its own."""
    mu = mass_amu * AMU_TO_ME
    ground = calibrate_morse(b_v_cm1, OMEGA_X_CM1, mass_amu, d_e_cm1=D_X_CM1, label="X")
    d_b = D_B_CM1 / HARTREE_TO_CM1
    omega_b = OMEGA_B_CM1 / HARTREE_TO_CM1
    b_curve = MorseCurve(
        label="b", d_e=d_b, a=omega_b * math.sqrt(mu / (2.0 * d_b)),
        r_e=1.0 / math.sqrt(2.0 * mu * b_vprime_cm1 / HARTREE_TO_CM1),
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


# two entries: one model on two grids, as a convergence check compares
@lru_cache(maxsize=2)
def _bases(b_v_cm1: float, b_vprime_cm1: float, mass_amu: float,
           grid: RadialGrid) -> tuple[MorseCurve, CoupledModel, DipoleFunction,
                                      RovibBasis, RovibBasis]:
    """:func:`_models` and their X (J=0) and unshifted A-b (J'=1) bases.

    Keyed on all that the two dense solves read, and on nothing of a
    config, so a later config cannot make an entry stale.  One entry on
    the bundled grid holds 14.3 MB of read-only basis arrays, kept for
    the life of the process (``_bases.cache_clear()`` frees them), and
    the level tables each basis keeps for every view of it
    (:meth:`RovibBasis.levels`): 0.12 MB per 12-level X table, 0.23 MB per
    12-level A-b table and 3.1 MB for all 162 A-b levels, up to
    :data:`~magictrap.radial.TABLE_CACHE_BYTES` per basis.  The bundled
    ``solve-rovib`` and ``imag-scan`` keep 2.4 MB of them.  A hit saves the
    two dense solves, 1.2 s on the bundled grid on a 2-core host, and each
    kept table its block solves: ``solve-rovib`` then ``imag-scan`` over
    J = 0..3 makes 18 block eigensolves on a new entry and none on a warm one.
    """
    ground, model, dipole = _models(b_v_cm1, b_vprime_cm1, mass_amu)
    # the two-channel solve first, so its peak memory does not stack on
    # the ground basis: on the bundled grid solve-rovib peaks at 82 MB
    # resident this way, 85 MB the other
    ab_basis = rovib_basis(model, 1, mass_amu, grid)
    x_basis = rovib_basis(ground, 0, mass_amu, grid)
    return ground, model, dipole, x_basis, ab_basis


def pinned_models(cfg: RunConfig) -> tuple[MorseCurve, CoupledModel, DipoleFunction,
                                           RovibBasis, RovibBasis]:
    """The ground curve, coupled model and dipole of ``cfg``, with the
    coupled model pinned, and their bases.

    The coupled model is shifted so E(v'=0, J'=1) - E_X(0, 0) equals the
    configured transition energy on the configured grid, which gives
    scans built from it and from :meth:`RunConfig.spec` the same
    detuning origin.

    The last two values are the ground curve's basis at J=0 and the
    shifted coupled model's basis at J'=1, one dense solve each, per
    process and per model key: the rotational constants, the reduced
    mass and the grid.  The transition energy only sets the shift, so a
    call that changes nothing else reuses both solves, and the shifted
    view it returns shares the level tables its basis keeps: each (J,
    max_levels) table is solved once per model, whatever the shift.  That
    pays only in a process that calls this more than once on one key:
    library or notebook code that sweeps ``transition_cm1``, the scan, the
    polarization angle or M, or runs ``solve-rovib`` then ``imag-scan``
    through ``cli.main``, and the benchmark's in-process passes.  The
    ``magictrap`` command runs one subcommand per process, so it still
    pays both solves each run.  The two reference energies are the
    bases' own lowest eigenvalues, E_X(0, 0) and E(v'=0, J'=1) at their
    reference J, so a call reads no level table and a warm call makes
    no eigensolve.
    """
    grid = cfg.radial_grid()
    hits = _bases.cache_info().hits
    ground, model, dipole, x_basis, ab_basis = _bases(
        cfg.get("molecule", "b_v_cm1"), cfg.get("molecule", "b_vprime_cm1"),
        cfg.reduced_mass_amu(), grid)
    if _bases.cache_info().hits > hits:
        logger.info("reusing the X basis (K=%d) and the %s basis (K=%d) "
                    "on the n=%d grid", x_basis.size, ab_basis.label,
                    ab_basis.size, grid.n)
    shift = float(cfg.get("molecule", "transition_cm1") / HARTREE_TO_CM1
                  + x_basis.energies[0] - ab_basis.energies[0])
    return (ground, model.with_shift(shift), dipole, x_basis,
            ab_basis.with_shift(shift))
