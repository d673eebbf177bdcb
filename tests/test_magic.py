"""Root finding for magic detunings and magic polarization angles."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import magictrap as mt
from magictrap.angular import MAGIC_ANGLE_DEG
from magictrap.config import load_config
from magictrap.errors import CalibrationError, NoRootError, PoleProximityError
from magictrap.magic import (
    ANGLE_RESIDUAL_TOL,
    DETUNING_RESIDUAL_TOL,
    MagicSolution,
    calibrate_gamma,
    find_magic_angle,
    find_magic_detuning,
)

BARE_TERMS = {"rotation", "polarization", "zeeman"}


def default_fields(**overrides):
    return replace(load_config().field_configuration(), **overrides)


def test_scan_constants_are_frozen():
    assert DETUNING_RESIDUAL_TOL == 1e-10
    assert ANGLE_RESIDUAL_TOL == 1e-6


def test_bare_magic_angle_is_the_geometric_one():
    fields = default_fields(b_field=0.0)
    sol = find_magic_angle(fields, (1, 0), (0, 0), terms=BARE_TERMS)
    assert sol.kind == "angle"
    assert sol.location == pytest.approx(MAGIC_ANGLE_DEG, abs=1e-6)
    assert abs(sol.residual) <= ANGLE_RESIDUAL_TOL


def test_bare_magic_angle_for_m1_pair():
    # (1, +/-1) crosses J=0 at the same geometric angle from below
    fields = default_fields(b_field=0.0)
    sol = find_magic_angle(fields, (1, 1), (0, 0), terms=BARE_TERMS)
    assert sol.location == pytest.approx(MAGIC_ANGLE_DEG, abs=1e-6)


def test_magic_angle_bracket_without_root():
    fields = default_fields(b_field=0.0)
    with pytest.raises(NoRootError, match=r"no sign change over \(0.0, 30.0\)"):
        find_magic_angle(fields, (1, 0), (0, 0), bracket=(0.0, 30.0),
                         terms=BARE_TERMS)


def test_magic_angle_bracket_validation():
    fields = default_fields(b_field=0.0)
    with pytest.raises(ValueError, match="0 <= lo < hi <= 180"):
        find_magic_angle(fields, (1, 0), (0, 0), bracket=(-5.0, 30.0))
    with pytest.raises(ValueError, match="unknown method"):
        find_magic_angle(fields, (1, 0), (0, 0), method="secant")


def test_eigen_magic_angle_with_dc_field():
    """Full-diagonalization search stays near the geometric angle.

    A 0.5 kV/cm dc field decouples the nuclear spins, so every
    (J=1, M=0)-character state crosses the J=0 manifold within a small
    fraction of a degree of the bare angle.
    """
    fields = default_fields(e_field=0.5)
    roots = []
    for rank in range(3):
        sol = find_magic_angle(fields, (1, 0, rank), (0, 0, 0),
                               bracket=(40.0, 70.0))
        assert 45.0 < sol.location < 65.0
        assert abs(sol.residual) <= ANGLE_RESIDUAL_TOL
        roots.append(sol.location)
    assert max(roots) - min(roots) < 0.05


def test_eigen_magic_angle_sizes_the_basis_from_the_spins():
    # a spin-5/2 Na gives 24 (J=1, M=0)-character states, spin 3/2 only 16
    fields = default_fields(e_field=0.1)
    wide = replace(fields, constants=replace(fields.constants, i_a=2.5))
    sol = find_magic_angle(wide, (1, 0, 20), (0, 0, 0), bracket=(40.0, 70.0),
                           method="eigen")
    assert 40.0 < sol.location < 70.0
    assert abs(sol.residual) <= ANGLE_RESIDUAL_TOL
    with pytest.raises(ValueError, match="rank 20 out of range"):
        find_magic_angle(fields, (1, 0, 20), (0, 0, 0), bracket=(40.0, 70.0),
                         method="eigen")


def test_quadrupole_shifts_the_magic_angle():
    # at the default operating point the eigen search must disagree
    # with the bare geometric angle by a visible margin
    sol = find_magic_angle(default_fields(), (1, 0, 0), (0, 0, 0))
    assert abs(sol.location - MAGIC_ANGLE_DEG) > 0.5


def test_magic_detuning_default_bracket(narb_spec):
    sol = find_magic_detuning(narb_spec, 0, 1)
    assert sol.kind == "detuning"
    assert sol.state_a == (0, 0) and sol.state_b == (1, 0)
    assert sol.location == pytest.approx(103.0, abs=1e-6)
    assert abs(sol.residual) <= DETUNING_RESIDUAL_TOL


def test_magic_detuning_is_bracket_independent(narb_spec):
    wide = find_magic_detuning(narb_spec, 0, 1, bracket=(60.0, 140.0))
    narrow = find_magic_detuning(narb_spec, 0, 1, bracket=(80.0, 120.0))
    assert abs(wide.location - narrow.location) < 1e-3


def test_magic_detuning_refuses_brackets_with_poles(narb_spec):
    with pytest.raises(PoleProximityError) as err:
        find_magic_detuning(narb_spec, 0, 1, bracket=(-10.0, 10.0))
    message = str(err.value)
    assert "J=0 at +0.0000 GHz" in message
    assert "J=1 at -8.3690 GHz" in message
    assert "J=1 at +4.2007 GHz" in message


def test_magic_detuning_reports_endpoint_values(narb_spec):
    with pytest.raises(NoRootError, match="f\\(lo\\) = .* f\\(hi\\) = "):
        find_magic_detuning(narb_spec, 0, 1, bracket=(150.0, 300.0))


def test_solution_rejects_root_outside_bracket():
    with pytest.raises(ValueError, match="strictly inside"):
        MagicSolution(kind="detuning", location=150.0, state_a=(0, 0),
                      state_b=(1, 0), residual=0.0, bracket=(30.0, 100.0))


def test_calibrate_gamma_hits_the_target(narb_spec):
    template = load_config(overrides=[f"molecule.gamma_hz={1000.0!r}"]).spec()
    calibrated = calibrate_gamma(template, (0, 1), 103.0)
    sol = find_magic_detuning(calibrated, 0, 1)
    assert abs(sol.location - 103.0) < 1e-6
    # and reproduces the bundled linewidth from a cold start
    ratio = calibrated.lines[0].gamma / narb_spec.lines[0].gamma
    assert ratio == pytest.approx(1.0, rel=1e-6)


def test_calibrate_gamma_is_monotonic_in_the_target(narb_spec):
    g103 = calibrate_gamma(narb_spec, (0, 1), 103.0).lines[0].gamma
    g120 = calibrate_gamma(narb_spec, (0, 1), 120.0).lines[0].gamma
    assert g120 > g103 > 0.0


def test_calibrated_gamma_scales_with_background_anisotropy(narb_spec):
    """Doubling the background split doubles the calibrated linewidth.

    The crossing condition balances the resonant differential (linear
    in gamma) against the angular split of the constant background, so
    the calibrated gamma is exactly proportional to the anisotropy.
    """
    bg = narb_spec.background
    doubled = mt.Background(
        alpha_par=bg.alpha_perp + 2.0 * (bg.alpha_par - bg.alpha_perp),
        alpha_perp=bg.alpha_perp,
    )
    spec2 = mt.PolarizabilitySpec(lines=narb_spec.lines, b_v=narb_spec.b_v,
                                  background=doubled)
    g1 = calibrate_gamma(narb_spec, (0, 1), 103.0).lines[0].gamma
    g2 = calibrate_gamma(spec2, (0, 1), 103.0).lines[0].gamma
    assert g2 / g1 == pytest.approx(2.0, rel=1e-12)


def test_calibrate_gamma_guards(narb_spec):
    with pytest.raises(CalibrationError, match="two different J"):
        calibrate_gamma(narb_spec, (1, 1), 103.0)
    flat = mt.PolarizabilitySpec(
        lines=narb_spec.lines, b_v=narb_spec.b_v,
        background=mt.Background(alpha_par=200.0, alpha_perp=200.0),
    )
    with pytest.raises(CalibrationError, match="anisotropy is zero"):
        calibrate_gamma(flat, (0, 1), 103.0)
    with pytest.raises(CalibrationError, match="sits on a branch pole"):
        calibrate_gamma(narb_spec, (0, 1), 0.0)
    with pytest.raises(CalibrationError, match="nonpositive gamma scale"):
        calibrate_gamma(narb_spec, (0, 1), -50.0)
