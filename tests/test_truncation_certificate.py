"""The channel-truncation certificate as a bound, on drawn models.

``radial._channel_eigenpairs`` diagonalizes each channel's n x n DVR
block alone.  A coupled pair keeps each channel's states up to
``CHANNEL_CUTOFF`` above its asymptote, couples them in that basis, and
reports a truncation bound over the levels below the threshold
(``radial._truncation_bound``): for a level alone, r_i^2 / (E_drop - E_i),
with r_i the norm of what the coupling carries from level i into the
dropped channel states and E_drop the lowest dropped channel energy less
max |xi|, raised by the kept levels close to it.  Here that bound holds
on Morse curves and
coupled pairs (constant or Gaussian xi) drawn on 60- to 200-point grids:
each bound level lies within the reported bound of the full
n * channels DVR, up to a round-off floor of 8 N eps |H| at N = n *
channels.  The cutoff is drawn at 0.1-3 well depths, not the bundled
0.2 Eh, so that almost every drawn solve drops channel states; the
bound is checked with ``TRUNCATION_TOL`` lifted, whatever its size.  A
solve whose bound the tolerance refuses returns the solve that keeps
every channel state, bit for bit.  The bound test targets each draw's
largest error over its allowance, bound plus floor, so that hypothesis
climbs towards a breach rather than only sampling: over its 200 seeded
examples the largest ratio reached is 0.962, on a coupled pair whose
bound, 1.6e-10 Eh, is 6,000 times the floor.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, event, given, seed, settings, target
from hypothesis import strategies as st

from magictrap import CoupledModel, MorseCurve, RadialGrid, radial
from magictrap.units import AMU_TO_ME

EPS = np.finfo(float).eps


@st.composite
def drawn_solves(draw):
    """The arguments of one ``_channel_eigenpairs`` call, as ``_dense_basis``
    makes them, for a drawn Morse curve or coupled pair at a drawn J, and a
    channel cutoff to patch in.  The grid spacing is drawn below the one at
    which the kinetic cutoff meets the well depth, so that the wells hold
    tens of levels."""
    n = draw(st.integers(60, 200))
    mass = draw(st.floats(10.0, 40.0))
    depth = draw(st.floats(0.01, 0.04))
    a = draw(st.floats(0.4, 0.8))
    r_e = draw(st.floats(6.0, 8.0))
    dr = draw(st.floats(0.5, 0.9)) * math.pi / math.sqrt(2.0 * mass * AMU_TO_ME * depth)
    r_min = r_e - 1.2 / a  # 4.4 depths above the asymptote
    grid = RadialGrid(r_min, min(r_min + (n + 1) * dr, r_e + 12.0), n)
    well = MorseCurve(label="A", d_e=depth, a=a, r_e=r_e)
    r = grid.points
    if draw(st.booleans()):
        curves, coupling = (well,), None
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
        curves, coupling = model.curves, np.asarray(model.coupling(r), dtype=float)
    j = draw(st.integers(0, 6))
    cent = j * (j + 1) / (2.0 * mass * AMU_TO_ME * r ** 2)
    diagonals = [np.asarray(curve(r), dtype=float) + cent for curve in curves]
    asymptotes = [curve.asymptote for curve in curves]
    args = (radial.dvr_kinetic(grid, mass), diagonals, coupling, asymptotes,
            min(asymptotes) - radial.BOUND_MARGIN)
    return args, draw(st.floats(0.1, 3.0)) * depth


def _solve(args, cutoff, tol):
    t, *rest = args
    with mock.patch.object(radial, "CHANNEL_CUTOFF", cutoff), \
            mock.patch.object(radial, "TRUNCATION_TOL", tol):
        return radial._channel_eigenpairs(t.copy, *rest)  # each block a copy of t


def _full_dvr(t, diagonals, coupling):
    """The eigenvalues of the whole n * channels DVR Hamiltonian."""
    n = t.shape[0]
    h = np.zeros((n * len(diagonals), n * len(diagonals)))
    for c, d in enumerate(diagonals):
        h[c * n:(c + 1) * n, c * n:(c + 1) * n] = t + np.diag(d)
    if coupling is not None:
        h[n:, :n] = h[:n, n:] = np.diag(coupling)
    return np.linalg.eigvalsh(h)


@seed(3303)
@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_solves())
def test_bound_levels_are_within_the_truncation_bound(case):
    args, cutoff = case
    t, diagonals, coupling, _, top = args
    energies, _, kept, bound = _solve(args, cutoff, math.inf)
    full = _full_dvr(t, diagonals, coupling)
    n_all = full.size
    if coupling is None:
        event("single curve")
        assert kept == (t.shape[0],) and bound == 0.0
    else:
        event("states dropped" if sum(kept) < n_all else "every state kept")
    bound_levels = int(np.searchsorted(energies, top))
    floor = 8 * n_all * EPS * np.max(np.abs(full))
    error = np.abs(energies[:bound_levels] - full[:bound_levels])
    # steer the draws towards the worst case: a ratio above 1 breaks the bound
    target(float(error.max(initial=0.0)) / (bound + floor), label="error / (bound + floor)")
    assert np.all(error <= bound + floor), (kept, bound, float(error.max(initial=0.0)))


@seed(3304)
@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(drawn_solves())
def test_a_refused_truncation_returns_the_whole_solve(case):
    args, cutoff = case
    if args[2] is None:
        return
    n = args[0].shape[0]
    energies, vectors, kept, bound = _solve(args, cutoff, 0.0)
    whole = _solve(args, math.inf, 0.0)  # keeps every channel state: bound 0
    assert whole[2] == kept == (n, n) and whole[3] == bound == 0.0
    assert np.array_equal(energies, whole[0]) and np.array_equal(vectors, whole[1])



def _pair(grid, mass, curves, xi, j, cutoff):
    """(channel states kept, largest bound-level error, reported bound) of
    the constant-xi pair ``curves`` at ``j``, cut ``cutoff`` above each
    asymptote."""
    model = CoupledModel.constant_coupling(("A", "b"), curves, xi=xi)
    r = grid.points
    cent = j * (j + 1) / (2.0 * mass * AMU_TO_ME * r ** 2)
    diagonals = [np.asarray(curve(r), dtype=float) + cent for curve in curves]
    coupling = np.asarray(model.coupling(r), dtype=float)
    t = radial.dvr_kinetic(grid, mass)
    asymptotes = [curve.asymptote for curve in curves]
    top = min(asymptotes) - radial.BOUND_MARGIN
    energies, _, kept, bound = _solve((t, diagonals, coupling, asymptotes, top), cutoff,
                                      math.inf)
    full = _full_dvr(t, diagonals, coupling)
    bound_levels = int(np.searchsorted(energies, top))
    return kept, float(np.max(np.abs(energies[:bound_levels] - full[:bound_levels]))), bound


def test_the_bound_covers_coupled_dropped_states():
    """The dropped A and b states couple to each other, which lowers the
    dropped block's spectrum by up to max |xi| below its lowest channel
    energy.  On this pair a bound taken to that channel energy, 2.99e-8
    Eh, falls short of the 3.04e-8 Eh error it claims to cover."""
    depth = 0.01171875
    kept, error, bound = _pair(RadialGrid(3.6, 7.385, 60), 15.0,
                               (MorseCurve(label="A", d_e=depth, a=0.5, r_e=6.0),
                                MorseCurve(label="b", d_e=depth, a=0.5, r_e=6.25)),
                               1.0 / 512.0, 0, depth)
    assert kept == (32, 29) and 3.0e-8 < error <= bound


def test_the_bound_covers_levels_close_to_each_other():
    """The top two bound levels, 8.4e-6 Eh apart, each couple to the
    dropped states and through them to each other, so the pair moves more
    than either level's own second-order estimate r^2 / (E_drop - E): the
    largest such estimate is 3.28e-6 Eh (3.16e-6 Eh to the lowest dropped
    channel energy) against an error of 3.64e-6 Eh."""
    kept, error, bound = _pair(RadialGrid(3.925, 6.2125, 67), 36.6,
                               (MorseCurve(label="A", d_e=0.0269, a=0.448, r_e=6.603),
                                MorseCurve(label="b", d_e=0.0222, a=0.57, r_e=6.745,
                                           asymptote=0.002882)),
                               0.00125, 6, 0.033)
    assert kept == (37, 23) and 3.6e-6 < error <= bound
