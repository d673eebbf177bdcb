"""Shared fixtures.

The session-scoped fixtures build the two expensive radial models once:
the bundled molecule surrogate with its per-J dense levels (the oracle
of the contracted basis) and a stiff two-channel model whose
closed-form constants are recovered from its own levels (used by the
dual-route comparisons).
Every NaRb input comes from the bundled defaults via ``load_config()``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import magictrap as mt
from magictrap import narb
from magictrap.config import load_config
from magictrap.potentials import CoupledModel, DipoleFunction, MorseCurve, calibrate_morse
from magictrap.units import AMU_TO_ME, HARTREE_TO_CM1


@pytest.fixture(scope="session")
def narb_config():
    return load_config()


@pytest.fixture(scope="session")
def narb_spec(narb_config):
    return narb_config.spec()


@pytest.fixture(scope="session")
def narb_fields(narb_config):
    return narb_config.field_configuration()


@pytest.fixture(scope="session")
def narb_radial(narb_config):
    """Bundled ground curve, dipole and contracted bases, plus every bound
    level of the per-J dense solves at J = 0..6."""
    grid = narb_config.radial_grid()
    ground, model, dipole, x_basis, ab_basis = narb.pinned_models(narb_config)
    mass = narb_config.reduced_mass_amu()
    return {
        "ground": ground,
        "dipole": dipole,
        "x_basis": x_basis,
        "ab_basis": ab_basis,
        "x": {j: mt.solve_single(ground, j, mass, grid) for j in range(7)},
        "ab": {j: mt.solve_coupled(model, j, mass, grid) for j in range(7)},
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

    x_levels = [mt.solve_single(ground, j, mass, grid, max_levels=1)[0]
                for j in range(5)]
    ab_levels = []
    for jp in range(5):
        ab_levels.extend(l for l in mt.solve_coupled(model, jp, mass, grid,
                                                     max_levels=1) if l.v == 0)
    dip = DipoleFunction.constant(("X", "A"), 1.0)
    dipoles = {
        (xi, ai): mt.radial_matrix_element(x, dip, ab, pairs={(0, 0): dip})
        for xi, x in enumerate(x_levels)
        for ai, ab in enumerate(ab_levels)
        if abs(ab.j - x.j) == 1
    }
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
