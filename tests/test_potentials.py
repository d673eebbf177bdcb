"""Potential curves, dipole functions, and coupled models."""

import math

import numpy as np
import pytest

from magictrap import (
    CalibrationError,
    CoupledModel,
    DipoleFunction,
    MorseCurve,
    calibrate_morse,
)
from magictrap.units import AMU_TO_ME, HARTREE_TO_CM1

from oracles import harmonic_omega, morse_levels


MASS = 18.0  # amu, an arbitrary diatomic-scale reduced mass


def test_morse_shape():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.001)
    assert curve(6.0) == pytest.approx(0.001 - 0.02, abs=1e-15)
    assert curve(200.0) == pytest.approx(0.001, abs=1e-10)
    # repulsive wall rises above the asymptote
    assert curve(3.0) > 0.001
    # vectorized call matches scalars
    r = np.array([5.0, 6.0, 8.0])
    np.testing.assert_allclose(curve(r), [curve(x) for x in r], rtol=1e-15)


def test_morse_parameter_validation():
    with pytest.raises(ValueError):
        MorseCurve(label="X", d_e=-1.0, a=0.5, r_e=6.0)
    with pytest.raises(ValueError):
        MorseCurve(label="X", d_e=0.02, a=0.0, r_e=6.0)


def test_morse_harmonic_omega_is_second_derivative():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    mu = MASS * AMU_TO_ME
    h = 1e-4
    k = (curve(6.0 + h) - 2 * curve(6.0) + curve(6.0 - h)) / h**2
    assert harmonic_omega(curve, mu) == pytest.approx(math.sqrt(k / mu),
                                                      rel=1e-6)


def test_morse_analytic_levels_closed_form():
    """E_v = -D + w(v + 1/2) - [w(v + 1/2)]^2 / 4D, rederived here."""
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.003)
    mu = MASS * AMU_TO_ME
    w = curve.a * math.sqrt(2 * curve.d_e / mu)
    levels = morse_levels(curve, mu)
    for v, e in enumerate(levels):
        x = w * (v + 0.5)
        assert e == pytest.approx(0.003 - 0.02 + x - x * x / (4 * curve.d_e),
                                  rel=1e-14)
    # all bound, monotonically increasing
    assert np.all(np.diff(levels) > 0.0)
    assert levels[-1] < 0.003


def test_calibrate_morse_round_trip():
    curve = calibrate_morse(0.06970, 107.0, MASS)
    mu = MASS * AMU_TO_ME
    b_here = 1.0 / (2.0 * mu * curve.r_e**2) * HARTREE_TO_CM1
    assert b_here == pytest.approx(0.06970, rel=1e-12)
    assert harmonic_omega(curve, mu) * HARTREE_TO_CM1 == pytest.approx(
        107.0, rel=1e-12)
    assert curve.d_e * HARTREE_TO_CM1 == pytest.approx(25.0 * 107.0, rel=1e-12)


def test_calibrate_morse_places_the_minimum():
    # the rotational constant matching a 6.885 bohr separation must
    # put the well minimum exactly there
    mu = MASS * AMU_TO_ME
    b_e = 1.0 / (2.0 * mu * 6.885**2) * HARTREE_TO_CM1
    curve = calibrate_morse(b_e, 107.0, MASS)
    assert curve.r_e == pytest.approx(6.885, abs=1e-6)


def test_calibrate_morse_rejects_shallow_wells():
    with pytest.raises(CalibrationError):
        calibrate_morse(0.06970, 107.0, MASS, d_e_cm1=500.0)
    with pytest.raises(CalibrationError):
        calibrate_morse(-1.0, 107.0, MASS)


def test_dipole_function_constant_and_connects():
    dip = DipoleFunction.constant(("X", "A"), 1.25)
    assert dip(6.0) == pytest.approx(1.25)
    np.testing.assert_allclose(dip(np.array([5.0, 7.0])), [1.25, 1.25])
    assert dip.connects("X", "A") and dip.connects("A", "X")
    assert not dip.connects("X", "b")


def test_coupled_model_shift():
    up = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.05)
    dn = MorseCurve(label="b", d_e=0.015, a=0.5, r_e=6.5, asymptote=0.04)
    model = CoupledModel.constant_coupling(("A", "b"), (up, dn), xi=1e-4)
    shifted = model.with_shift(0.01)
    assert shifted.shift == pytest.approx(model.shift + 0.01)
