"""The block-levels certificate as a bound, on drawn models.

``RovibBasis._eigenpairs`` accepts the leading m x m block of
H = diag(E) + f U^T C U when, for each level i asked for, r_i / gap_i is
at most ``LEVELS_TOL``, with r_i = |f C[m:, :m] c_i| the block vector's
residual in H and gap_i = E_m + min(f, 0) max C - e_i its distance to a
lower bound on the dropped block's spectrum.  Parlett (The Symmetric
Eigenvalue Problem, ch. 11) then puts the block energy within
r_i^2 / gap_i of the whole solve's, and Davis and Kahan (SIAM J. Numer.
Anal. 7, 1 (1970)) the vector within sin theta <= r_i / gap_i.  Here
both hold on Morse curves and coupled pairs drawn on 60- to 200-point
grids, against one ``np.linalg.eigh`` of the whole K x K matrix, up to a
round-off floor of 8 K eps |H| for energies and 8 K eps |H| / delta_i for
vectors, where delta_i separates level i from the rest of the whole
spectrum.  A block the certificate refuses leaves the whole solve, bit
for bit.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, given, seed, settings
from hypothesis import strategies as st

from magictrap import CoupledModel, MorseCurve, RadialGrid, radial, rovib_basis
from magictrap.errors import GridError
from magictrap.units import AMU_TO_ME

EPS = np.finfo(float).eps


@st.composite
def drawn_bases(draw):
    """A contracted basis of a drawn Morse curve or coupled pair, with a
    J off its reference J and a number of levels to ask for.  The grid
    spacing is drawn below the one at which the kinetic cutoff meets the
    well depth, so that the wells hold tens of levels."""
    n = draw(st.integers(60, 200))
    mass = draw(st.floats(10.0, 40.0))
    depth = draw(st.floats(0.01, 0.04))
    a = draw(st.floats(0.4, 0.8))
    r_e = draw(st.floats(6.0, 8.0))
    dr = draw(st.floats(0.5, 0.9)) * math.pi / math.sqrt(2.0 * mass * AMU_TO_ME * depth)
    r_min = r_e - 1.2 / a  # 4.4 depths above the asymptote
    grid = RadialGrid(r_min, min(r_min + (n + 1) * dr, r_e + 12.0), n)
    well = MorseCurve(label="A", d_e=depth, a=a, r_e=r_e)
    if draw(st.booleans()):
        model = MorseCurve(label="X", d_e=well.d_e, a=well.a, r_e=r_e)
    else:
        dark = MorseCurve(label="b", d_e=depth * draw(st.floats(0.5, 1.0)),
                          a=draw(st.floats(0.4, 0.9)), r_e=r_e + draw(st.floats(-0.3, 0.6)),
                          asymptote=depth * draw(st.floats(0.0, 0.3)))
        xi = draw(st.floats(1e-5, 2e-3))
        if draw(st.booleans()):
            model = CoupledModel.constant_coupling(("A", "b"), (well, dark), xi=xi)
        else:
            width = draw(st.floats(0.3, 1.5))
            model = CoupledModel(("A", "b"), (well, dark),
                                 lambda r: xi * np.exp(-((np.asarray(r) - r_e) / width) ** 2))
    j_ref = draw(st.integers(0, 3))
    j = draw(st.integers(0, 13))
    try:
        basis = rovib_basis(model, j_ref, mass, grid)
    except GridError:  # no level bound at j_ref
        return None
    return basis, j + (j >= j_ref), draw(st.integers(1, 12))


def _whole(basis, factor):
    return np.linalg.eigh(np.diag(basis.energies) + factor * basis.centrifugal)


@seed(3301)
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_bases())
def test_certified_blocks_are_within_their_bounds(case):
    if case is None:
        event("no basis on the drawn grid")
        return
    basis, j, want = case
    size, cent = basis.size, basis.centrifugal
    factor = j * (j + 1) - basis.j_ref * (basis.j_ref + 1)
    top = basis.threshold - radial.BOUND_MARGIN
    energies, coeffs = basis._eigenpairs(j, factor, top, want)
    whole_e, whole_c = _whole(basis, factor)
    m = coeffs.shape[0]
    event("whole solve" if m == size else "certified block")
    if m == size:
        assert np.array_equal(energies, whole_e) and np.array_equal(coeffs, whole_c)
        return
    residual = np.linalg.norm(factor * (cent[m:, :m] @ coeffs[:, :want]), axis=0)
    gap = basis.energies[m] + min(factor, 0) / (2.0 * basis.mu * basis.grid.points[0] ** 2) \
        - energies[:want]
    assert np.all(gap > 0.0) and np.max(residual / gap) <= radial.LEVELS_TOL
    floor = 8 * size * EPS * np.max(np.abs(whole_e))
    assert np.all(np.abs(energies[:want] - whole_e[:want]) <= residual ** 2 / gap + floor)
    for i in range(want):
        block = np.zeros(size)
        block[:m] = coeffs[:, i]
        exact = whole_c[:, i]
        sin_theta = np.linalg.norm(exact - (block @ exact) * block)
        delta = np.min(np.abs(np.delete(whole_e, i) - whole_e[i]))
        assert sin_theta <= residual[i] / gap[i] + floor / delta, (i, sin_theta)


@seed(3302)
@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_bases())
def test_a_refused_block_leaves_the_whole_solve(case):
    if case is None:
        return
    basis, j, want = case
    factor = j * (j + 1) - basis.j_ref * (basis.j_ref + 1)
    with mock.patch.object(radial, "LEVELS_TOL", 0.0):
        energies, coeffs = basis._eigenpairs(j, factor, basis.threshold - radial.BOUND_MARGIN,
                                             want)
    whole_e, whole_c = _whole(basis, factor)
    assert np.array_equal(energies, whole_e) and np.array_equal(coeffs, whole_c)
    assert math.isfinite(float(energies[0]))
