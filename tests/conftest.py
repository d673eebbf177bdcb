"""Shared fixtures.

The session-scoped fixtures build the two expensive radial models once:
the bundled molecule surrogate with its per-J levels from the
uncontracted DVR (the oracle of the contracted basis and of the
channel-by-channel solve) and a stiff two-channel model whose
closed-form constants are recovered from its own levels (used by the
dual-route comparisons).
Every NaRb input comes from the bundled defaults via ``load_config()``.
Each test starts with empty ``narb._bases`` and ``hyperfine._basis``
memos, so a test that counts dense solves or operator builds sees its
own and none left by an earlier test.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

import magictrap as mt
from magictrap import hyperfine, narb
from magictrap.config import load_config
from magictrap.potentials import CoupledModel, DipoleFunction, MorseCurve, calibrate_morse
from magictrap.radial import BOUND_MARGIN, RovibBasis
from magictrap.units import AMU_TO_ME, HARTREE_TO_CM1


@pytest.fixture(autouse=True)
def _empty_radial_memo():
    narb._bases.cache_clear()
    hyperfine._basis.cache_clear()


@pytest.fixture(scope="session")
def narb_config():
    return load_config()


@pytest.fixture(scope="session")
def narb_spec(narb_config):
    return narb_config.spec()


@pytest.fixture(scope="session")
def narb_fields(narb_config):
    return narb_config.field_configuration()


def uncached(basis):
    """``basis`` with an empty table cache (``dataclasses.replace`` starts
    one), so each of its levels calls solves afresh."""
    return replace(basis)


def full_dvr_levels(model, j, mass_amu, grid):
    """Every bound level of ``model`` at ``j`` from the uncontracted DVR.

    The whole n_channels * n Hamiltonian is built as one matrix, each
    channel block the kinetic matrix plus the channel potential and the
    centrifugal term, the two channels of a coupled model coupled
    pointwise by xi(R), and LAPACK's MRRR solver (``dsyevr``) finds the
    eigenpairs below the threshold.  The package's own levels code then
    gives them their signs, fractions and flags.
    """
    coupled = isinstance(model, CoupledModel)
    curves = tuple(model.curves) if coupled else (model,)
    mu = mass_amu * AMU_TO_ME
    r, n = grid.points, grid.n
    t = mt.dvr_kinetic(grid, mass_amu)
    h = np.zeros((n * len(curves),) * 2)
    idx = np.arange(n)
    for c, curve in enumerate(curves):
        h[c * n:(c + 1) * n, c * n:(c + 1) * n] = t
        h[idx + c * n, idx + c * n] += curve(r) + j * (j + 1) / (2.0 * mu * r ** 2)
    if coupled:
        h[idx, idx + n] = h[idx + n, idx] = model.coupling(r)
    threshold = min(curve.asymptote for curve in curves)
    floor = -np.abs(h).sum(axis=1).max()  # below every eigenvalue (Gershgorin)
    energies, vectors = eigh(h, subset_by_value=(floor, threshold - BOUND_MARGIN),
                             driver="evr")
    basis = RovibBasis(
        label="".join(model.labels) if coupled else model.label, j_ref=j,
        energies=energies, vectors=vectors, centrifugal=np.zeros((0, 0)), grid=grid,
        mu=mu, channel_labels=tuple(model.labels) if coupled else (model.label,),
        potentials=curves, threshold=threshold, shift=model.shift if coupled else 0.0)
    return basis.levels(j)


@pytest.fixture(scope="session")
def narb_radial(narb_config):
    """Bundled ground curve, dipole and contracted bases, plus every bound
    level of the uncontracted DVR at J = 0..6."""
    grid = narb_config.radial_grid()
    ground, model, dipole, x_basis, ab_basis = narb.pinned_models(narb_config)
    mass = narb_config.reduced_mass_amu()
    return {
        "ground": ground,
        "dipole": dipole,
        "x_basis": x_basis,
        "ab_basis": ab_basis,
        "x": {j: full_dvr_levels(ground, j, mass, grid) for j in range(7)},
        "ab": {j: full_dvr_levels(model, j, mass, grid) for j in range(7)},
    }


def build_stiff_pair():
    """Stiff two-channel model plus closed-form constants from its levels.

    The bright upper well shares the ground equilibrium radius so the
    vibrational overlap has no first-order J dependence; that keeps the
    two polarizability routes consistent at the 1e-7 level.
    """
    cfg = load_config()
    mass = cfg.reduced_mass_amu()
    mu = mass * AMU_TO_ME
    grid = mt.RadialGrid(4.5, 12.0, 700)
    omega = 800.0
    ground = calibrate_morse(0.06970, omega, mass, d_e_cm1=25 * omega, label="X")
    d_up = 25 * omega / HARTREE_TO_CM1
    om_up = (omega + 10.0) / HARTREE_TO_CM1
    bright = MorseCurve(label="A", d_e=d_up, a=om_up * math.sqrt(mu / (2 * d_up)),
                        r_e=ground.r_e, asymptote=0.0)
    dark = MorseCurve(label="b", d_e=d_up, a=om_up * math.sqrt(mu / (2 * d_up)),
                      r_e=ground.r_e * 1.02, asymptote=0.30)
    model = CoupledModel.constant_coupling(("A", "b"), (bright, dark), xi=1e-6)
    e_g0 = mt.solve_single(ground, 0, mass, grid, max_levels=1)[0].energy
    e_l1 = mt.solve_coupled(model, 1, mass, grid, max_levels=1)[0].energy
    model = model.with_shift(cfg.get("molecule", "transition_cm1") / HARTREE_TO_CM1
                             + e_g0 - e_l1)

    x_levels = mt.RovibLevels.join([mt.solve_single(ground, j, mass, grid, max_levels=1)
                                    for j in range(5)])
    ab_levels = mt.RovibLevels.join([mt.solve_coupled(model, jp, mass, grid, max_levels=1)
                                     for jp in range(5)])
    dip = DipoleFunction.constant(("X", "A"), 1.0)
    dipoles = mt.radial_matrix_element(x_levels, dip, ab_levels, pairs={(0, 0): dip})
    background = cfg.background()
    spec = mt.spec_from_levels(x_levels, ab_levels, dipoles, background)
    return {
        "x": x_levels,
        "ab": ab_levels,
        "dipoles": dipoles,
        "background": background,
        "spec": spec,
    }


@pytest.fixture(scope="session")
def stiff_pair():
    return build_stiff_pair()


@pytest.fixture(scope="session")
def narb_hyperfine(narb_fields):
    """Default-field 64-state solution with polarizabilities attached."""
    basis = mt.build_basis(1, narb_fields.constants)
    h = mt.build_hamiltonian(basis, narb_fields)
    sol = mt.diagonalize(h, basis)
    return mt.eigenstate_polarizability(sol, narb_fields)


def assert_close(actual, expected, rel=0.0, abs_tol=0.0, label=""):
    __tracebackhide__ = True
    actual = float(actual)
    expected = float(expected)
    bound = max(rel * abs(expected), abs_tol)
    err = abs(actual - expected)
    if not err <= bound:
        pytest.fail(f"{label or 'value'}: {actual!r} differs from {expected!r} "
                    f"by {err:.3e} (allowed {bound:.3e})")
