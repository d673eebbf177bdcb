"""Radial bound-state solver against analytic oracles.

The sine-DVR kinetic matrix is compared with an explicit spectral
construction, box and Morse spectra with their closed forms, and
matrix elements and linewidths with hand-evaluated integrals.  The
contracted basis, and the channel-by-channel solve under it, are
compared with the uncontracted DVR (``conftest.full_dvr_levels``).
"""

import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import full_dvr_levels, uncached

from magictrap import (
    CoupledModel,
    DipoleFunction,
    GridError,
    MorseCurve,
    RadialGrid,
    dvr_kinetic,
    linewidth,
    radial_matrix_element,
    rovib_basis,
    solve_coupled,
    solve_single,
)
from magictrap import narb, radial
from magictrap.config import load_config
from magictrap.potentials import PotentialCurve
from magictrap.radial import BASIS_STATES_PER_BOUND
from magictrap.units import AMU_TO_ME, C_AU

MASS = 18.0
MU = MASS * AMU_TO_ME


class QuadraticWell(PotentialCurve):
    """Harmonic well of depth v0 below a zero asymptote."""

    def __init__(self, k: float, r_e: float, v0: float):
        self.label = "ho"
        self.asymptote = 0.0
        self.k = k
        self.r_e = r_e
        self.v0 = v0

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = 0.5 * self.k * (r - self.r_e) ** 2 - self.v0
        return out if out.ndim else float(out)


def test_grid_validation_and_geometry():
    grid = RadialGrid(4.0, 12.0, 99)
    assert grid.dr == pytest.approx(8.0 / 100.0)
    assert grid.points.shape == (99,)
    assert grid.points[0] == pytest.approx(4.0 + grid.dr)
    assert grid.points[-1] == pytest.approx(12.0 - grid.dr)
    with pytest.raises(GridError):
        RadialGrid(-1.0, 12.0, 99)
    with pytest.raises(GridError):
        RadialGrid(4.0, 4.0, 99)
    with pytest.raises(GridError):
        RadialGrid(4.0, 12.0, 4)
    # each bad field is named here, not found later as a TypeError or
    # IndexError inside a solve
    for n in (300.0, 300.5, "300"):
        with pytest.raises(GridError, match="n must be an integer"):
            RadialGrid(3.5, 14.0, n)
    for r_min, r_max in [(math.nan, 14.0), (3.5, math.inf), (3.5, math.nan),
                         (-math.inf, 14.0)]:
        with pytest.raises(GridError, match="finite"):
            RadialGrid(r_min, r_max, 300)
    assert RadialGrid(4.0, 12.0, np.int64(99)).points.shape == (99,)
    curve = MorseCurve("X", 0.02, 0.5, 6.0)
    assert (solve_single(curve, 0, MASS, RadialGrid(3.5, 14.0, np.int64(300)), 1)[0].energy
            == solve_single(curve, 0, MASS, RadialGrid(3.5, 14.0, 300), 1)[0].energy)


def test_kinetic_matrix_matches_spectral_construction():
    """T = U diag(k_n^2 / 2 mu) U^T with sine eigenvectors, built here."""
    grid = RadialGrid(4.0, 9.0, 24)
    n = grid.n
    big_n = n + 1
    length = grid.r_max - grid.r_min
    modes = np.arange(1, n + 1)
    u = np.sqrt(2.0 / big_n) * np.sin(
        np.pi * np.outer(modes, np.arange(1, n + 1)) / big_n)
    eigs = (modes * np.pi / length) ** 2 / (2.0 * MU)
    ref = u.T @ np.diag(eigs) @ u
    np.testing.assert_allclose(dvr_kinetic(grid, MASS), ref,
                               rtol=0.0, atol=1e-12)


def _kinetic_oracle(grid, mu):
    """The n^2 construction: every 1/sin^2 evaluated at its own entry."""
    n = grid.n
    big_n = n + 1
    length = grid.r_max - grid.r_min
    i = np.arange(1, n + 1)
    diff = i[:, None] - i[None, :]
    summ = i[:, None] + i[None, :]
    pref = math.pi ** 2 / (2.0 * mu * length ** 2) * 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (
            1.0 / np.sin(math.pi * diff / (2.0 * big_n)) ** 2
            - 1.0 / np.sin(math.pi * summ / (2.0 * big_n)) ** 2
        )
    t = pref * np.where(diff % 2 == 0, 1.0, -1.0) * off
    diag = pref * ((2.0 * big_n ** 2 + 1.0) / 3.0 - 1.0 / np.sin(math.pi * i / big_n) ** 2)
    t[np.diag_indices(n)] = diag
    return t


@pytest.mark.parametrize("n", [8, 24, 99, 300, 1200])
@pytest.mark.parametrize("mass", [MASS, 45.9])
def test_kinetic_matrix_equals_the_entrywise_build(n, mass):
    """The table-gathered matrix is the entrywise one bit for bit, and
    each call returns its own writeable array."""
    grid = RadialGrid(4.5, 19.0, n)
    first = dvr_kinetic(grid, mass)
    assert np.array_equal(first, _kinetic_oracle(grid, mass * AMU_TO_ME))
    second = dvr_kinetic(grid, mass)
    assert second is not first and not np.shares_memory(first, second)
    assert first.flags.writeable and second.flags.writeable
    first[0, 0] = 0.0
    assert np.array_equal(second, _kinetic_oracle(grid, mass * AMU_TO_ME))


def test_kinetic_eigenvalues_are_box_levels():
    grid = RadialGrid(4.0, 9.0, 60)
    length = grid.r_max - grid.r_min
    evals = np.linalg.eigvalsh(dvr_kinetic(grid, MASS))
    n = np.arange(1, 61)
    exact = (n * np.pi / length) ** 2 / (2.0 * MU)
    np.testing.assert_allclose(evals, exact, rtol=1e-11)


def test_harmonic_spectrum_and_matrix_element():
    k = 0.5
    omega = math.sqrt(k / MU)
    well = QuadraticWell(k, 6.5, 60.0 * omega)
    grid = RadialGrid(4.0, 9.0, 400)
    levels = solve_single(well, 0, MASS, grid, max_levels=8)
    for n, lvl in enumerate(levels):
        assert lvl.energy == pytest.approx(-60.0 * omega + omega * (n + 0.5),
                                           rel=1e-9)
    # |<0| (R - R_e) |1>| = sqrt(1 / (2 mu omega)); sign is a phase choice
    x01 = radial_matrix_element(levels[0], lambda r: r - 6.5, levels[1])
    assert abs(x01) == pytest.approx(math.sqrt(1.0 / (2.0 * MU * omega)),
                                     rel=1e-9)
    # parity forbids <0| (R - R_e) |0>
    x00 = radial_matrix_element(levels[0], lambda r: r - 6.5, levels[0])
    assert abs(x00) < 1e-10


def test_morse_spectrum_matches_closed_form():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 600)
    levels = solve_single(curve, 0, MASS, grid, max_levels=10)
    exact = curve.analytic_levels(MU)
    assert len(levels) == 10
    for lvl, ref in zip(levels, exact):
        assert lvl.energy == pytest.approx(ref, rel=1e-9)


def test_wavefunctions_orthonormal():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    levels = solve_single(curve, 0, MASS, grid, max_levels=5)
    for i, a in enumerate(levels):
        for j, b in enumerate(levels):
            ov = radial_matrix_element(a, lambda r: np.ones_like(r), b)
            assert ov == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_centrifugal_term_shifts_energies():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    e0 = solve_single(curve, 0, MASS, grid, max_levels=1)[0]
    e1 = solve_single(curve, 1, MASS, grid, max_levels=1)[0]
    b0 = e0.rotational_constant()
    # J = 0 -> 1 spacing equals 2B to first order
    assert e1.energy - e0.energy == pytest.approx(2.0 * b0, rel=1e-3)
    # <1/(2 mu R^2)> close to the rigid-rotor value at R_e
    assert b0 == pytest.approx(1.0 / (2.0 * MU * 6.0**2), rel=5e-3)


def test_rotational_constant_matches_density_integral():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    lvl = solve_single(curve, 0, MASS, grid, max_levels=1)[0]
    dens = lvl.wavefunction[0] ** 2 * grid.dr
    ref = float(np.sum(dens / (2.0 * MU * grid.points**2)))
    assert lvl.rotational_constant() == pytest.approx(ref, rel=1e-14)


def test_solver_rejects_bad_arguments():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    with pytest.raises(ValueError):
        solve_single(curve, -1, MASS, grid)
    with pytest.raises(ValueError):
        solve_single(curve, 1.5, MASS, grid)


def test_coarse_grid_raises_grid_error():
    deep = MorseCurve(label="X", d_e=1.0, a=2.0, r_e=6.0)
    coarse = RadialGrid(3.5, 30.0, 10)
    with pytest.raises(GridError):
        solve_single(deep, 0, MASS, coarse)


def test_near_threshold_flag():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    levels = solve_single(curve, 0, MASS, grid, max_levels=3)
    assert not any(l.near_threshold for l in levels)


def test_coupled_decoupled_limit_matches_singles():
    up = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.0)
    dn = MorseCurve(label="b", d_e=0.018, a=0.45, r_e=6.4, asymptote=0.0)
    grid = RadialGrid(3.5, 14.0, 300)
    model = CoupledModel.constant_coupling(("A", "b"), (up, dn), xi=0.0)
    coupled = solve_coupled(model, 0, MASS, grid, max_levels=6)
    singles = sorted(
        [l.energy for l in solve_single(up, 0, MASS, grid, max_levels=6)]
        + [l.energy for l in solve_single(dn, 0, MASS, grid, max_levels=6)]
    )[:6]
    for lvl, ref in zip(coupled, singles):
        assert lvl.energy == pytest.approx(ref, rel=1e-12, abs=1e-14)
        assert max(lvl.channel_fractions) > 1.0 - 1e-9


def test_coupled_identical_wells_split_by_coupling():
    """Two identical channels with constant xi give E_n +/- xi exactly."""
    xi = 2e-4
    a = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0)
    b = MorseCurve(label="b", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    model = CoupledModel.constant_coupling(("A", "b"), (a, b), xi=xi)
    coupled = solve_coupled(model, 0, MASS, grid, max_levels=4)
    singles = solve_single(a, 0, MASS, grid, max_levels=2)
    expected = sorted([singles[0].energy - xi, singles[0].energy + xi,
                       singles[1].energy - xi, singles[1].energy + xi])
    for lvl, ref in zip(coupled, expected):
        assert lvl.energy == pytest.approx(ref, rel=1e-10)
        # perfect mixing
        assert lvl.channel_fractions[0] == pytest.approx(0.5, abs=1e-9)


def test_matrix_element_pairs_and_grid_guard():
    up = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.05)
    gnd = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    other = RadialGrid(3.5, 14.0, 301)
    x0 = solve_single(gnd, 0, MASS, grid, max_levels=1)[0]
    dark = MorseCurve(label="b", d_e=0.02, a=0.5, r_e=6.4, asymptote=0.05)
    model = CoupledModel.constant_coupling(("A", "b"), (up, dark), xi=1e-5)
    ab0 = solve_coupled(model, 1, MASS, grid, max_levels=1)[0]
    dip = DipoleFunction.constant(("X", "A"), 1.0)

    # channel counts differ: pairs are mandatory
    with pytest.raises(ValueError):
        radial_matrix_element(x0, dip, ab0)
    val = radial_matrix_element(x0, dip, ab0, pairs={(0, 0): dip})
    manual = float(np.sum(x0.wavefunction[0] * 1.0 * ab0.wavefunction[0])
                   * grid.dr)
    assert val == pytest.approx(manual, rel=1e-14)

    x0_other = solve_single(gnd, 0, MASS, other, max_levels=1)[0]
    with pytest.raises(GridError):
        radial_matrix_element(x0_other, dip, ab0, pairs={(0, 0): dip})


def test_matrix_element_default_pairs_sum_matching_channels():
    """Without ``pairs`` the element is the per-channel sum, bit for bit."""
    up = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.05)
    dark = MorseCurve(label="b", d_e=0.02, a=0.5, r_e=6.4, asymptote=0.05)
    grid = RadialGrid(3.5, 14.0, 300)
    model = CoupledModel.constant_coupling(("A", "b"), (up, dark), xi=1e-3)
    bra, ket = solve_coupled(model, 1, MASS, grid, max_levels=2)
    assert min(bra.channel_fractions) > 1e-3 and min(ket.channel_fractions) > 1e-3
    fr = grid.points ** 2
    expected = 0.0
    for c in range(2):
        expected += float(np.sum(bra.wavefunction[c] * fr * ket.wavefunction[c])) * grid.dr
    assert radial_matrix_element(bra, lambda r: r ** 2, ket) == expected


def test_linewidth_constant_gap_closed_form():
    """Parallel curves: Gamma = (4/3) dE^3 d^2 / c^3 exactly."""
    gap = 0.05
    gnd = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    up = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=gap)
    dark = MorseCurve(label="b", d_e=0.02, a=0.5, r_e=8.5, asymptote=gap + 0.2)
    grid = RadialGrid(3.5, 14.0, 300)
    model = CoupledModel.constant_coupling(("A", "b"), (up, dark), xi=0.0)
    lvl = solve_coupled(model, 0, MASS, grid, max_levels=1)[0]
    d = 1.3
    dip = DipoleFunction.constant(("X", "A"), d)
    gamma = linewidth(lvl, [(gnd, dip)])
    assert gamma == pytest.approx((4.0 / 3.0) * gap**3 * d**2 / C_AU**3,
                                  rel=1e-12)


def test_linewidth_zero_without_dipole_path():
    gnd = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    up = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.05)
    dark = MorseCurve(label="b", d_e=0.02, a=0.5, r_e=8.5, asymptote=0.25)
    grid = RadialGrid(3.5, 14.0, 300)
    model = CoupledModel.constant_coupling(("A", "b"), (up, dark), xi=0.0)
    lvl = solve_coupled(model, 0, MASS, grid, max_levels=1)[0]
    wrong = DipoleFunction.constant(("Q", "Z"), 1.0)
    assert linewidth(lvl, [(gnd, wrong)]) == 0.0


def test_linewidth_rejects_target_above_level():
    gnd = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0, asymptote=1.0)
    up = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.05)
    dark = MorseCurve(label="b", d_e=0.02, a=0.5, r_e=8.5, asymptote=0.25)
    grid = RadialGrid(3.5, 14.0, 300)
    model = CoupledModel.constant_coupling(("A", "b"), (up, dark), xi=0.0)
    lvl = solve_coupled(model, 0, MASS, grid, max_levels=1)[0]
    dip = DipoleFunction.constant(("X", "A"), 1.0)
    with pytest.raises(ValueError):
        linewidth(lvl, [(gnd, dip)])


def test_max_levels_truncates():
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    assert len(solve_single(curve, 0, MASS, grid, max_levels=3)) == 3
    full = solve_single(curve, 0, MASS, grid)
    assert len(full) > 3
    assert all(l.energy < 0.0 for l in full)


# ---- contracted basis against the per-J full DVR --------------------

J_RANGE = range(7)  # imag-scan's J' for the bundled J = 0..5
RETAINED = 12       # the bundled scan.max_levels


def _rel(a, b):
    return abs(a - b) / abs(b)


def _assert_levels_match(levels, full):
    """Every bound level of the full DVR, matched in energy and B_v to
    1e-10 of itself and in channel fractions to 1e-10."""
    assert len(levels) == len(full)
    for ref, lvl in zip(full, levels):
        assert (lvl.label, lvl.v, lvl.j) == (ref.label, ref.v, ref.j)
        assert _rel(lvl.energy, ref.energy) <= 1e-10, (ref.j, ref.v)
        assert _rel(lvl.rotational_constant(), ref.rotational_constant()) <= 1e-10, (ref.j, ref.v)
        assert np.allclose(lvl.channel_fractions, ref.channel_fractions,
                           rtol=0.0, atol=1e-10), (ref.j, ref.v)
        assert lvl.near_threshold == ref.near_threshold


@pytest.mark.parametrize("name", ["x", "ab"])
def test_basis_levels_match_the_full_dvr_at_every_j(narb_radial, name):
    basis = narb_radial[f"{name}_basis"]
    assert basis.size == BASIS_STATES_PER_BOUND * len(narb_radial[name][basis.j_ref])
    for j in J_RANGE:
        full = narb_radial[name][j]
        assert len(full) > RETAINED
        _assert_levels_match(basis.levels(j), full)
        _assert_levels_match(basis.levels(j, RETAINED), full[:RETAINED])


def _whole_k_levels(basis, j):
    """Bound (energy, wavefunction) pairs at ``j`` from one np.linalg.eigh
    of the whole K x K contracted matrix, signed and scaled as
    ``RovibBasis.levels`` does: the oracle of its block solves."""
    factor = j * (j + 1) - basis.j_ref * (basis.j_ref + 1)
    energies, coeffs = np.linalg.eigh(np.diag(basis.energies) + factor * basis.centrifugal)
    bound = int(np.searchsorted(energies, basis.threshold - radial.BOUND_MARGIN))
    vectors = basis.vectors @ coeffs[:, :bound]
    pairs = []
    for v in range(bound):
        channels = vectors[:, v].reshape(-1, basis.grid.n)
        flat = channels.ravel()
        if flat[np.argmax(np.abs(flat))] < 0.0:
            channels = -channels
        pairs.append((energies[v] + basis.shift, channels / math.sqrt(basis.grid.dr)))
    return pairs


@pytest.mark.parametrize("name", ["x", "ab"])
def test_block_levels_match_the_whole_k_solve(narb_radial, name):
    """With ``max_levels`` given, each J is solved in a leading block of the
    basis; its levels lie within 1e-15 Eh of the whole K x K solve, and
    their channel fractions and B_v within 1e-12.  Without it the whole
    solve runs, bit for bit."""
    basis = narb_radial[f"{name}_basis"]
    dr, r = basis.grid.dr, basis.grid.points
    for j in J_RANGE:
        oracle = _whole_k_levels(basis, j)
        if j != basis.j_ref:
            exact = basis.levels(j)
            assert len(exact) == len(oracle)
            for lvl, (energy, psi) in zip(exact, oracle):
                assert lvl.energy == energy and np.array_equal(lvl.wavefunction, psi)
        for max_levels in (1, 3, RETAINED):
            levels = basis.levels(j, max_levels)
            assert len(levels) == max_levels
            for lvl, (energy, psi) in zip(levels, oracle):
                assert abs(lvl.energy - energy) <= 1e-15, (j, max_levels, lvl.v)
                assert np.allclose(lvl.channel_fractions, np.sum(psi ** 2, axis=1) * dr,
                                   rtol=0.0, atol=1e-12), (j, max_levels, lvl.v)
                b_v = float(np.sum(np.sum(psi ** 2, axis=0) * dr / (2.0 * basis.mu * r ** 2)))
                assert _rel(lvl.rotational_constant(), b_v) <= 1e-12, (j, max_levels, lvl.v)


def _logged_blocks(text, label):
    """(J, m, K, max r/gap) from each block-solve log line of ``label``."""
    return [(int(j), int(m), int(k), float(ratio)) for j, m, k, ratio in re.findall(
        rf"^.*{label} levels at J=(\d+): m=(\d+) of K=(\d+), max r/gap (\S+)$", text,
        re.MULTILINE)]


@pytest.mark.parametrize("name", ["x", "ab"])
def test_a_failed_level_certificate_runs_the_whole_solve(narb_radial, name,
                                                         monkeypatch, caplog):
    """At a zero tolerance no block below K is certified, so every J ends
    on the whole K x K solve and gives its levels bit for bit."""
    basis = uncached(narb_radial[f"{name}_basis"])
    monkeypatch.setattr(radial, "LEVELS_TOL", 0.0)
    for j in (0, 3, 6):
        if j == basis.j_ref:
            continue
        exact = basis.levels(j)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="magictrap.radial"):
            levels = basis.levels(j, RETAINED)
        assert _logged_blocks(caplog.text, basis.label) == [(j, basis.size, basis.size, 0.0)]
        for lvl, ref in zip(levels, exact[:RETAINED], strict=True):
            assert lvl.energy == ref.energy
            assert np.array_equal(lvl.wavefunction, ref.wavefunction)
            assert lvl.channel_fractions == ref.channel_fractions


@pytest.mark.parametrize("name", ["x", "ab"])
def test_block_solves_are_certified_and_logged(narb_radial, name, caplog):
    """Each levels call off the reference J logs the block it stopped at:
    below K with a certificate within the tolerance when ``max_levels``
    is given, and K with nothing dropped when it is not."""
    basis = uncached(narb_radial[f"{name}_basis"])
    j = basis.j_ref + 2
    with caplog.at_level(logging.DEBUG, logger="magictrap.radial"):
        basis.levels(j, RETAINED)
        basis.levels(j)
        basis.levels(basis.j_ref, RETAINED)
    (j_block, m, k, ratio), whole = _logged_blocks(caplog.text, basis.label)
    assert j_block == j and k == basis.size and 2 * RETAINED + 16 <= m < k
    assert ratio <= radial.LEVELS_TOL
    assert whole == (j, k, k, 0.0)


def test_coarse_bases_match_the_full_dvr_up_to_the_3j_limit():
    """The contraction keeps unbound states that no truncation bound
    covers; at J = 10, 15 and 20, where the 3-j symbols stop, both bundled
    bases on a 300-point grid still give every bound level of the full DVR."""
    cfg = load_config(overrides=["grid.points=300"])
    ground, model, _, x_basis, ab_basis = narb.pinned_models(cfg)
    grid, mass = cfg.radial_grid(), cfg.reduced_mass_amu()
    for j in (10, 15, 20):
        for system, basis in ((ground, x_basis), (model, ab_basis)):
            _assert_levels_match(basis.levels(j), full_dvr_levels(system, j, mass, grid))


def test_basis_dipoles_and_linewidths_match_the_full_dvr(narb_radial):
    """Linewidths agree to 1e-10 of themselves, and X(v=0)-A-b dipoles to
    1e-10 of the strongest one.  A weak dipole is a near-cancelling
    overlap, and the full DVR itself fixes it no better: two LAPACK
    eigensolvers on the same matrix put the 5.9e-4 ea0 X(0, J=1) - A-b
    (v'=1, J'=0) dipole 1.5e-10 of itself apart."""
    dip, targets = narb_radial["dipole"], [(narb_radial["ground"], narb_radial["dipole"])]
    pairs = {(0, 0): dip}
    pairs_of_values = []
    for jp in J_RANGE:
        full = narb_radial["ab"][jp][:RETAINED]
        contracted = narb_radial["ab_basis"].levels(jp, RETAINED)
        for ref, lvl in zip(full, contracted, strict=True):
            assert _rel(linewidth(lvl, targets), linewidth(ref, targets)) <= 1e-10
            for j in (jp - 1, jp + 1):
                if j in J_RANGE:
                    pairs_of_values.append((
                        radial_matrix_element(narb_radial["x_basis"].levels(j, 1)[0],
                                              dip, lvl, pairs=pairs),
                        radial_matrix_element(narb_radial["x"][j][0], dip, ref,
                                              pairs=pairs)))
    strongest = max(abs(ref) for _, ref in pairs_of_values)
    for value, ref in pairs_of_values:
        assert abs(value - ref) <= 1e-10 * strongest


def test_shifted_basis_is_the_unshifted_one_plus_the_shift(narb_radial):
    shifted = narb_radial["ab_basis"]
    unshifted = shifted.with_shift(0.0)
    assert shifted.shift != 0.0
    for j in (0, 1, 4):
        for a, b in zip(unshifted.levels(j), shifted.levels(j), strict=True):
            assert a.energy + shifted.shift == b.energy
            assert np.array_equal(a.wavefunction, b.wavefunction)
            assert (a.shift, b.shift) == (0.0, shifted.shift)


def test_retained_levels_are_converged_on_the_bundled_grid(narb_radial, narb_config):
    """Halving the grid moves none of the 12 retained X(J=0) and A-b(J'=1)
    energies by more than 1e-12 of itself."""
    coarse = load_config(overrides=[f"grid.points={narb_config.radial_grid().n // 2}"])
    *_, x_coarse, ab_coarse = narb.pinned_models(coarse)
    for fine, half, j in [(narb_radial["x_basis"], x_coarse, 0),
                          (narb_radial["ab_basis"].with_shift(0.0), ab_coarse.with_shift(0.0), 1)]:
        for a, b in zip(half.levels(j, RETAINED), fine.levels(j, RETAINED), strict=True):
            assert _rel(a.energy, b.energy) <= 1e-12


SYNTHETIC_GRID = RadialGrid(3.5, 14.0, 600)


def _synthetic(name):
    """A coupled pair whose lowest asymptote sits at 0.1 Eh, so that no
    bound energy lies within round-off of zero, where a relative
    tolerance would ask more than either solve can hold.  The grid's
    kinetic cutoff, 0.49 Eh, lies above the 0.2 Eh channel cutoff, so
    the solve drops states from both channels."""
    bright = MorseCurve(label="A", d_e=0.02, a=0.5, r_e=6.0, asymptote=0.1)
    if name == "dark offset":
        # no dark state lies within 0.2 Eh of the lowest threshold
        dark = MorseCurve(label="b", d_e=0.02, a=0.5, r_e=6.4, asymptote=0.4)
        return CoupledModel.constant_coupling(("A", "b"), (bright, dark), xi=1e-4)
    dark = MorseCurve(label="b", d_e=0.018, a=0.45, r_e=6.6, asymptote=0.102)
    return CoupledModel(("A", "b"), (bright, dark),
                        lambda r: 2e-4 * np.exp(-((np.asarray(r) - 6.3) / 0.8) ** 2))


def _logged_truncation(text, label):
    """(K_A, K_b, n, bound) from the log line of a coupled basis."""
    found = re.search(rf"^.*{label} basis at .*channel states kept (\d+) \+ (\d+) "
                      r"of (\d+) each, truncation bound (\S+) Eh$", text, re.MULTILINE)
    assert found, text
    return (*map(int, found.groups()[:3]), float(found[4]))


@pytest.mark.parametrize("name", ["dark offset", "R-dependent xi"])
def test_channel_truncation_matches_the_full_dvr(name, caplog):
    """Each channel keeps its states up to the cutoff above its own
    asymptote.  A cutoff measured from the lowest threshold would keep no
    state of a dark channel 0.30 Eh above it, and would move the bound
    levels by 4e-7 of themselves."""
    model = _synthetic(name)
    for j in (0, 3):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="magictrap.radial"):
            basis = rovib_basis(model, j, MASS, SYNTHETIC_GRID)
        k_a, k_b, n, bound = _logged_truncation(caplog.text, "Ab")
        assert 0 < k_a < n and 0 < k_b < n == SYNTHETIC_GRID.n
        assert 0.0 < bound <= radial.TRUNCATION_TOL
        assert "keeping all" not in caplog.text
        _assert_levels_match(basis.levels(j), full_dvr_levels(model, j, MASS, SYNTHETIC_GRID))


def test_a_failed_certificate_keeps_every_channel_state(monkeypatch, caplog):
    """A 0.01 Eh cutoff drops states the bound levels need.  The bound
    then covers the error this leaves, and exceeds the tolerance, so the
    solve keeps every channel state and matches the full DVR."""
    model = _synthetic("R-dependent xi")
    n = SYNTHETIC_GRID.n
    full = full_dvr_levels(model, 0, MASS, SYNTHETIC_GRID)
    monkeypatch.setattr(radial, "CHANNEL_CUTOFF", 0.01)
    tol = radial.TRUNCATION_TOL
    monkeypatch.setattr(radial, "TRUNCATION_TOL", math.inf)
    basis, kept, bound = radial._dense_basis(model, 0, MASS, SYNTHETIC_GRID)
    assert max(kept) < n // 4
    error = max(abs(lvl.energy - ref.energy)
                for lvl, ref in zip(basis.levels(0), full, strict=True))
    assert tol < 1e-12 < error <= bound + 1e-15

    monkeypatch.setattr(radial, "TRUNCATION_TOL", tol)
    with caplog.at_level(logging.INFO, logger="magictrap.radial"):
        basis, kept, bound = radial._dense_basis(model, 0, MASS, SYNTHETIC_GRID)
    assert (kept, bound) == ((n, n), 0.0)
    assert f"keeping all {n} + {n}" in caplog.text
    _assert_levels_match(basis.levels(0), full)


def test_bundled_truncation_is_certified_and_logged(narb_config, caplog):
    """On the bundled grid the A-b solve keeps part of each channel, and
    its bound lies below the round-off floor; the log line says both."""
    with caplog.at_level(logging.INFO, logger="magictrap.radial"):
        narb.pinned_models(narb_config)
    k_a, k_b, n, bound = _logged_truncation(caplog.text, "Ab")
    assert 0 < k_a < n and 0 < k_b < n == narb_config.radial_grid().n
    assert 0.0 < bound <= radial.TRUNCATION_TOL
    assert "keeping all" not in caplog.text


def test_dense_solves_run_once_per_model_key(monkeypatch):
    """The curves alone cost nothing; pinning the line costs the two
    basis solves, one per model, the first time the process sees their
    inputs.  Moving only the line or the scan reuses both solves, and
    moving any one input of the solves runs both again."""
    sizes = []

    def counting(t, diagonals, *args):
        sizes.append(t.shape[0] * len(diagonals))
        return dense(t, diagonals, *args)

    def solved(*overrides):
        sizes.clear()
        narb.pinned_models(load_config(overrides=["grid.points=300", *overrides]))
        return sorted(sizes)

    dense = radial._channel_eigenpairs
    monkeypatch.setattr(radial, "_channel_eigenpairs", counting)
    narb._bases.cache_clear()
    narb.radial_models(load_config(overrides=["grid.points=300"]))
    assert sizes == []
    assert solved() == [300, 600]
    assert solved("molecule.transition_cm1=11290.0", "scan.j_values=2",
                  "scan.max_levels=1") == []
    for item, n in [("grid.points=320", 320), ("grid.r_min_bohr=4.6", 300),
                    ("grid.r_max_bohr=19.5", 300), ("molecule.b_v_cm1=0.0698", 300),
                    ("molecule.b_vprime_cm1=0.0699", 300),
                    ("molecule.mass_na_amu=23.0", 300), ("molecule.mass_rb_amu=87.0", 300)]:
        assert solved() == []  # the base key stays the most recent one
        assert solved(item) == [n, 2 * n], item


def test_reused_bases_are_logged(caplog):
    cfg = load_config(overrides=["grid.points=300"])
    narb._bases.cache_clear()
    with caplog.at_level(logging.INFO, logger="magictrap"):
        *_, x_basis, ab_basis = narb.pinned_models(cfg)
        assert "reusing" not in caplog.text
        narb.pinned_models(cfg)
    assert caplog.text.count("reusing") == 1
    assert (f"reusing the X basis (K={x_basis.size}) and the Ab basis "
            f"(K={ab_basis.size}) on the n=300 grid") in caplog.text


def test_pinned_bases_are_read_only(narb_radial):
    """Later calls share a pinned basis's arrays, so none can be written;
    a level's wavefunction is a read-only row of its table's array, which
    the basis keeps for later calls and which shares no memory with the
    basis's own arrays."""
    for basis, j_ref in [(narb_radial["x_basis"], 0), (narb_radial["ab_basis"], 1)]:
        for array in (basis.energies, basis.vectors, basis.centrifugal):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        for j in (j_ref, j_ref + 1):
            table = basis.levels(j, 1)
            psi = table[0].wavefunction
            with pytest.raises(ValueError, match="read-only"):
                psi[0, 0] = 0.0
            assert np.shares_memory(psi, table.wavefunctions)
            assert table.wavefunctions.flags.owndata
            assert not np.shares_memory(psi, basis.vectors)


def test_grid_points_are_built_once_and_read_only():
    """Every solve and quadrature reads a grid's points, so they are one
    array per grid, and no caller can write them."""
    grid = RadialGrid(3.5, 14.0, 300)
    points = grid.points
    assert points is grid.points
    assert np.array_equal(points, 3.5 + grid.dr * np.arange(1, 301))
    with pytest.raises(ValueError, match="read-only"):
        points[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        points *= 2.0
    assert RadialGrid(3.5, 14.0, 300) == grid and RadialGrid(3.5, 14.0, 300).points is not points


def test_basis_needs_a_bound_level():
    shallow = MorseCurve(label="X", d_e=1e-7, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 100)
    assert len(solve_single(shallow, 0, MASS, grid)) == 0
    with pytest.raises(GridError, match="no bound X level"):
        rovib_basis(shallow, 0, MASS, grid)


def test_saturated_basis_raises():
    """A basis whose every state is bound at some J has no room to
    contract into; asking for that J is an error, not a silent truncation."""
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    basis = rovib_basis(curve, 40, MASS, grid)
    small = replace(basis, energies=basis.energies[:3], vectors=basis.vectors[:, :3],
                    centrifugal=basis.centrifugal[:3, :3])
    assert len(small.levels(40)) == 3
    with pytest.raises(GridError, match="no room"):
        small.levels(0)
    with pytest.raises(GridError, match="no room"):
        small.levels(0, 1)
    # 40 states, all bound at J = 0: a block of m = 18 could certify the
    # one level asked for, so the error rests on the diagonal check
    wider = replace(basis, energies=basis.energies[:40], vectors=basis.vectors[:, :40],
                    centrifugal=basis.centrifugal[:40, :40])
    with pytest.raises(GridError, match="all 40 states .* no room"):
        wider.levels(0, 1)


def test_basis_size_is_worked_out_and_logged(caplog):
    curve = MorseCurve(label="X", d_e=0.02, a=0.5, r_e=6.0)
    grid = RadialGrid(3.5, 14.0, 300)
    bound = len(solve_single(curve, 2, MASS, grid))
    with caplog.at_level(logging.INFO, logger="magictrap.radial"):
        basis = rovib_basis(curve, 2, MASS, grid)
    assert basis.size == min(grid.n, BASIS_STATES_PER_BOUND * bound)
    assert (f"X basis at J=2: K={basis.size} of {grid.n} states, {bound} bound; channel "
            f"states kept {grid.n} of {grid.n} each, truncation bound 0.0e+00 Eh") in caplog.text
