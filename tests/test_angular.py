"""Angular algebra against independent oracles.

Wigner symbols are checked against sympy's implementation and against
frozen closed forms; spherical-tensor matrix elements are checked
against direct quadrature of spherical harmonics.  The branch-weight
sum rules are exercised as properties.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import sph_harm_y

from magictrap import (
    MAGIC_ANGLE_DEG,
    alpha_analytic,
    RadialGrid,
    angular_factors,
    resonance_offsets,
    rot_tensor_element,
    rovib_basis,
    wigner3j,
)
from magictrap import narb
from magictrap.units import HARTREE_TO_CM1, HARTREE_TO_GHZ

from conftest import assert_close


FROZEN_3J = [
    # (j1, j2, j3, m1, m2, m3, exact)
    (1, 1, 0, 0, 0, 0, -1.0 / math.sqrt(3.0)),
    (1, 1, 2, 0, 0, 0, math.sqrt(30.0) / 15.0),
    (2, 2, 2, 0, 0, 0, -math.sqrt(70.0) / 35.0),
    (1, 2, 3, 1, -2, 1, math.sqrt(105.0) / 105.0),
    (1.5, 1.5, 2, 0.5, 0.5, -1, 0.0),
    (0.5, 0.5, 1, 0.5, -0.5, 0, math.sqrt(6.0) / 6.0),
]


@pytest.mark.parametrize("j1,j2,j3,m1,m2,m3,exact", FROZEN_3J)
def test_wigner3j_frozen_values(j1, j2, j3, m1, m2, m3, exact):
    assert wigner3j(j1, j2, j3, m1, m2, m3) == pytest.approx(exact, abs=1e-14)


def _wigner3j_fractions(tj1, tj2, tj3, tm1, tm2, tm3):
    """The 3-j symbol of arguments given as twice their values, by Racah's
    sum reduced to lowest terms at every term: the summation the integer
    one replaced, kept as its oracle (allowed arguments only)."""
    f = lambda two_n: math.factorial(two_n // 2)  # noqa: E731
    pref = Fraction(f(tj1 + tj2 - tj3) * f(tj1 - tj2 + tj3) * f(-tj1 + tj2 + tj3),
                    f(tj1 + tj2 + tj3 + 2)) * (f(tj1 + tm1) * f(tj1 - tm1) * f(tj2 + tm2)
                                               * f(tj2 - tm2) * f(tj3 + tm3) * f(tj3 - tm3))
    total = Fraction(0)
    for t in range(max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2),
                   min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2) + 1):
        total += Fraction((-1) ** t, math.factorial(t) * f(tj3 - tj2 + tm1 + 2 * t)
                          * f(tj3 - tj1 - tm2 + 2 * t) * f(tj1 + tj2 - tj3 - 2 * t)
                          * f(tj1 - tm1 - 2 * t) * f(tj2 + tm2 - 2 * t))
    if total == 0:
        return 0.0
    phase = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    return phase * math.copysign(math.sqrt(float(pref * total * total)), total)


def test_wigner3j_matches_the_rational_sum_bit_for_bit():
    """Every symbol with m1 + m2 + m3 = 0 and 2j <= 12 that the triangle
    and parity rules allow: the integer sum rounds once, as the reduced
    fractions did, so each float is the same."""
    checked = 0
    for tj1, tj2, tj3 in itertools.product(range(13), repeat=3):
        if not abs(tj1 - tj2) <= tj3 <= tj1 + tj2 or (tj1 + tj2 + tj3) % 2:
            continue
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > tj3:
                    continue
                got = wigner3j(tj1 / 2, tj2 / 2, tj3 / 2, tm1 / 2, tm2 / 2, tm3 / 2)
                want = _wigner3j_fractions(tj1, tj2, tj3, tm1, tm2, tm3)
                assert got.hex() == want.hex(), (tj1, tj2, tj3, tm1, tm2, tm3)
                checked += 1
    assert checked > 10_000


def test_wigner3j_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_3j

    rng = np.random.default_rng(11)
    two_js = [0, 1, 2, 3, 4, 5, 6, 7, 8]
    checked = 0
    for _ in range(200):
        # plain ints only: numpy integers corrupt sympy's factorial cache
        tj1, tj2 = (int(t) for t in rng.choice(two_js, size=2))
        tj3 = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
        if (tj1 + tj2 + tj3) % 2:
            continue
        tm1 = int(rng.integers(-tj1, tj1 + 1))
        tm2 = int(rng.integers(-tj2, tj2 + 1))
        if (tm1 + tj1) % 2 or (tm2 + tj2) % 2 or (tj3 + tm1 + tm2) % 2:
            continue
        tm3 = -(tm1 + tm2)
        if abs(tm3) > tj3:
            continue
        twos = (tj1, tj2, tj3, tm1, tm2, tm3)
        ref = float(wigner_3j(*[sympy.Rational(t, 2) for t in twos]))
        val = wigner3j(*[t / 2.0 for t in twos])
        assert val == pytest.approx(ref, abs=1e-13)
        checked += 1
    assert checked > 50


def test_wigner3j_selection_rules():
    assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0          # triangle violation
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0          # odd-sum parity zero
    assert wigner3j(2, 2, 1, 1, 0, 0) == 0.0          # m1 + m2 + m3 != 0
    assert wigner3j(1, 1, 2, 2, -2, 0) == 0.0         # |m| > j is a plain zero
    with pytest.raises(ValueError):
        wigner3j(1.2, 1, 2, 0, 0, 0)                  # not half-integer
    with pytest.raises(ValueError):
        wigner3j(1, 1, 2, 0.5, -0.5, 0)               # j - m not an integer
    with pytest.raises(ValueError):
        wigner3j(-1, 1, 2, 0, 0, 0)                   # negative j


def test_wigner3j_orthogonality():
    """Fixed (j3', m3): sum over m1 of (2 j3 + 1) [3j][3j'] = delta."""
    for j1 in range(5):
        for j2 in range(5):
            j3s = range(abs(j1 - j2), j1 + j2 + 1)
            for j3 in j3s:
                for j3p in j3s:
                    for m3 in range(-min(j3, j3p), min(j3, j3p) + 1):
                        acc = 0.0
                        for m1 in range(-j1, j1 + 1):
                            m2 = -m3 - m1
                            if abs(m2) > j2:
                                continue
                            acc += ((2 * j3 + 1)
                                    * wigner3j(j1, j2, j3, m1, m2, m3)
                                    * wigner3j(j1, j2, j3p, m1, m2, m3))
                        expected = 1.0 if j3 == j3p else 0.0
                        assert acc == pytest.approx(expected, abs=1e-12)


FROZEN_TENSOR = [
    # (jp, mp, k, q, j, m, exact)
    (1, 0, 1, 0, 0, 0, 1.0 / math.sqrt(3.0)),
    (2, 0, 2, 0, 0, 0, math.sqrt(5.0) / 5.0),
    (0, 0, 2, 0, 2, 0, math.sqrt(5.0) / 5.0),
    (1, 0, 2, 0, 1, 0, 2.0 / 5.0),
    (2, 1, 2, 1, 1, 0, 0.0),                          # parity zero
    (1, 1, 1, 0, 0, 0, 0.0),                          # projection rule
]


@pytest.mark.parametrize("jp,mp,k,q,j,m,exact", FROZEN_TENSOR)
def test_rot_tensor_frozen_values(jp, mp, k, q, j, m, exact):
    assert rot_tensor_element(jp, mp, k, q, j, m) == pytest.approx(
        exact, abs=1e-14)


def _tensor_by_quadrature(jp, mp, k, q, j, m):
    """<J' M'| C_kq |J M> from theta quadrature of spherical harmonics.

    The phi integral enforces M' = M + q and leaves a theta integral
    over the three harmonics' theta parts times sin(theta).
    """
    if mp != m + q:
        return 0.0

    def integrand(theta):
        ybra = sph_harm_y(jp, mp, theta, 0.0).real
        yop = sph_harm_y(k, q, theta, 0.0).real
        yket = sph_harm_y(j, m, theta, 0.0).real
        return ybra * yop * yket * math.sin(theta)

    val, _ = quad(integrand, 0.0, math.pi, limit=200)
    return 2.0 * math.pi * math.sqrt(4.0 * math.pi / (2 * k + 1)) * val


def test_rot_tensor_matches_quadrature():
    worst = 0.0
    for jp in range(4):
        for j in range(4):
            for k in (1, 2):
                for m in range(-j, j + 1):
                    for q in range(-k, k + 1):
                        mp = m + q
                        if abs(mp) > jp:
                            continue
                        ref = _tensor_by_quadrature(jp, mp, k, q, j, m)
                        val = rot_tensor_element(jp, mp, k, q, j, m)
                        worst = max(worst, abs(val - ref))
    assert worst < 1e-9


@given(j=st.integers(min_value=0, max_value=6),
       theta=st.floats(min_value=0.0, max_value=math.pi,
                       allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_branch_weight_sum_rule(j, theta):
    total = sum(angular_factors(j, m, theta).total for m in range(-j, j + 1))
    assert total == pytest.approx((2 * j + 1) / 3.0, abs=1e-12)


def test_magic_angle_collapses_all_weights():
    theta = math.radians(MAGIC_ANGLE_DEG)
    assert 3.0 * math.cos(theta) ** 2 == pytest.approx(1.0, abs=1e-14)
    for j in range(7):
        for m in range(-j, j + 1):
            fac = angular_factors(j, m, theta)
            assert fac.total == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_branch_weights_match_tensor_route():
    """Closed-form A, B agree with the explicit 3j contraction."""
    def weight(jp, j, m, theta):
        c2 = math.cos(theta) ** 2
        s2 = math.sin(theta) ** 2
        t0 = rot_tensor_element(jp, m, 1, 0, j, m)
        tm = rot_tensor_element(jp, m - 1, 1, -1, j, m)
        tp = rot_tensor_element(jp, m + 1, 1, 1, j, m)
        return c2 * t0 ** 2 + 0.5 * s2 * (tm ** 2 + tp ** 2)

    for j in range(5):
        for m in range(-j, j + 1):
            for theta in (0.0, 0.4, 1.0, math.pi / 2):
                fac = angular_factors(j, m, theta)
                if j > 0:
                    assert fac.a == pytest.approx(weight(j - 1, j, m, theta),
                                                  abs=1e-13)
                assert fac.b == pytest.approx(weight(j + 1, j, m, theta),
                                              abs=1e-13)


def test_branch_weights_at_poles_of_polarization():
    # theta = 0: only the m' = m path survives
    fac = angular_factors(1, 0, 0.0)
    assert fac.a == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert fac.b == pytest.approx(4.0 / 15.0, abs=1e-14)
    fac = angular_factors(1, 1, 0.0)
    assert fac.a == pytest.approx(0.0, abs=1e-14)
    assert fac.b == pytest.approx(1.0 / 5.0, abs=1e-14)


def test_angular_factor_validation():
    with pytest.raises(ValueError):
        angular_factors(-1, 0, 0.0)
    with pytest.raises(ValueError):
        angular_factors(1, 2, 0.0)


def test_numpy_integers_are_valid_j_and_m(narb_config, narb_spec):
    """An ``np.int64`` J or M gives bit-identical results to a Python int,
    and a non-integral or negative J is still a ValueError."""
    j, m = np.int64(1), np.int64(0)
    nu = narb_spec.reference.energy
    assert (alpha_analytic(narb_spec, nu, j, m, 0.3)
            == alpha_analytic(narb_spec, nu, 1, 0, 0.3))
    fac, ref = angular_factors(j, m, 0.3), angular_factors(1, 0, 0.3)
    assert (fac.a, fac.b) == (ref.a, ref.b)
    offs, ref = resonance_offsets(j, 1.0, 1.1), resonance_offsets(1, 1.0, 1.1)
    assert (offs.l, offs.r) == (ref.l, ref.r)
    ground = narb.radial_models(narb_config)[0]
    basis = rovib_basis(ground, 0, narb_config.reduced_mass_amu(), RadialGrid(4.5, 20.0, 300))
    levels, ref = basis.levels(np.int64(2), 2), basis.levels(2, 2)
    assert len(levels) == len(ref) == 2
    for got, want in zip(levels, ref):
        assert got.energy == want.energy
        assert np.array_equal(got.wavefunction, want.wavefunction)
    for bad in (1.5, -1):
        with pytest.raises(ValueError):
            alpha_analytic(narb_spec, nu, bad, 0)
        with pytest.raises(ValueError):
            angular_factors(bad, 0, 0.0)
        with pytest.raises(ValueError):
            resonance_offsets(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            basis.levels(bad)


def test_resonance_offsets_frozen():
    b_v = 0.06970 / HARTREE_TO_CM1
    b_vp = 0.06988 / HARTREE_TO_CM1
    offs = resonance_offsets(1, b_v, b_vp)
    assert_close(offs.l * HARTREE_TO_GHZ, 8.369006257528, rel=1e-10,
                 label="J=1 lower-branch offset")
    assert_close(offs.r * HARTREE_TO_GHZ, -4.200691921496, rel=1e-10,
                 label="J=1 upper-branch offset")
    # J = 0 has no lower branch and its upper branch sits at the line
    offs0 = resonance_offsets(0, b_v, b_vp)
    assert offs0.r == pytest.approx(0.0, abs=1e-18)


def test_resonance_offsets_scale_linearly():
    offs = resonance_offsets(2, 2.0, 1.0)
    assert offs.l == pytest.approx(6 * 2.0 - 0 * 1.0, rel=1e-14)
    assert offs.r == pytest.approx(6 * 2.0 - 10 * 1.0, rel=1e-14)
