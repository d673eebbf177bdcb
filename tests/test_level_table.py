"""Level tables against the per-level code they replaced.

``RovibBasis.levels`` returns one table of arrays per call, and
``linewidth`` and ``radial_matrix_element`` each take a table in one
array expression.  The per-level path they replaced is kept here as the
oracle: one object per level, with its channel fractions, B_v,
linewidth and dipoles computed level by level, and the block solve
doubling from m = 2 max_levels + 16.  On both bundled bases the table
path gives the same bits.  A basis keeps each table it solves, and every
view of it reads the kept table: uncached solves are the oracle there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from conftest import uncached

from magictrap import RovibLevels, linewidth, radial, radial_matrix_element
from magictrap.errors import GridError
from magictrap.units import C_AU

J_RANGE = range(7)
MAX_LEVELS = (1, 3, 12, None)


@dataclass(frozen=True, eq=False)
class SlowLevel:
    label: str
    v: int
    j: int
    energy: float
    grid: radial.RadialGrid
    mu: float
    wavefunction: np.ndarray = field(repr=False)
    channel_labels: tuple
    channel_fractions: tuple
    potentials: tuple = field(repr=False)
    shift: float = 0.0

    def rotational_constant(self) -> float:
        r = self.grid.points
        dens = np.sum(self.wavefunction ** 2, axis=0) * self.grid.dr
        return float(np.sum(dens / (2.0 * self.mu * r ** 2)))


def slow_eigenpairs(basis, factor, top, max_levels):
    """The block solve, doubling m from 2 max_levels + 16 until certified."""
    size = basis.size
    want = max_levels or 0
    room = np.max(basis.energies + factor * np.diagonal(basis.centrifugal)) > top
    m = min(size, 2 * want + 16) if want > 0 and room else size
    floor = min(factor, 0) / (2.0 * basis.mu * basis.grid.points[0] ** 2)
    while True:
        energies, coeffs = np.linalg.eigh(
            np.diag(basis.energies[:m]) + factor * basis.centrifugal[:m, :m])
        if m == size:
            return energies, coeffs
        residual = np.linalg.norm(
            factor * (basis.centrifugal[m:, :m] @ coeffs[:, :want]), axis=0)
        gap = basis.energies[m] + floor - energies[:want]
        ratio = float(np.max(residual / gap)) if np.all(gap > 0.0) else math.inf
        if ratio <= radial.LEVELS_TOL and np.searchsorted(energies, top) >= want:
            return energies, coeffs
        m = min(2 * m, size)


def slow_levels(basis, j, max_levels=None) -> list[SlowLevel]:
    """One object per level, each sign-fixed and reduced on its own."""
    top = basis.threshold - radial.BOUND_MARGIN
    factor = j * (j + 1) - basis.j_ref * (basis.j_ref + 1)
    if factor == 0:
        energies = basis.energies
    else:
        energies, coeffs = slow_eigenpairs(basis, factor, top, max_levels)
    bound = int(np.searchsorted(energies, top))
    if factor and bound == basis.size < basis.vectors.shape[0]:
        raise GridError("no room")
    energies = energies[:bound][:max_levels]
    vectors = (basis.vectors[:, :energies.size] if factor == 0
               else basis.vectors[:, :coeffs.shape[0]] @ coeffs[:, :energies.size])
    levels = []
    for v, energy in enumerate(energies + basis.shift):
        channels = vectors[:, v].reshape(-1, basis.grid.n)
        flat = channels.ravel()
        if flat[np.argmax(np.abs(flat))] < 0.0:
            channels = -channels
        levels.append(SlowLevel(
            label=basis.label, v=v, j=j, energy=float(energy), grid=basis.grid,
            mu=basis.mu, wavefunction=channels / math.sqrt(basis.grid.dr),
            channel_labels=basis.channel_labels,
            channel_fractions=tuple(float(np.sum(ch ** 2)) for ch in channels),
            potentials=basis.potentials, shift=basis.shift,
        ))
    return levels


def slow_matrix_element(bra, ket, pairs) -> float:
    r, dr = bra.grid.points, bra.grid.dr
    acc = 0.0
    for (cb, ck), fn in pairs.items():
        fr = np.asarray(fn(r), dtype=float)
        acc += float(np.sum(bra.wavefunction[cb] * fr * ket.wavefunction[ck])) * dr
    return acc


def slow_linewidth(level, decay_targets) -> float:
    r, dr = level.grid.points, level.grid.dr
    gamma = 0.0
    for target_curve, dip in decay_targets:
        v_t = np.asarray(target_curve(r), dtype=float)
        assert level.energy >= float(np.min(v_t))
        for c, ch_label in enumerate(level.channel_labels):
            if not dip.connects(ch_label, target_curve.label):
                continue
            v_c = np.asarray(level.potentials[c](r), dtype=float) + level.shift
            rate_r = (4.0 / 3.0) * np.abs(v_c - v_t) ** 3 * dip(r) ** 2 / C_AU ** 3
            gamma += float(np.sum(level.wavefunction[c] ** 2 * rate_r)) * dr
    return gamma


def _assert_table_is(table: RovibLevels, slow: list[SlowLevel]):
    """Every row of ``table``, as arrays and as one-row slices, is the
    oracle's level bit for bit: energy, sign-fixed wavefunction, fractions,
    B_v."""
    assert len(table) == len(slow)
    assert np.array_equal(table.energies, [lv.energy for lv in slow])
    assert np.array_equal(table.v, [lv.v for lv in slow])
    assert np.array_equal(table.j, [lv.j for lv in slow])
    assert np.array_equal(table.b_rot, [lv.rotational_constant() for lv in slow])
    assert table.channel_fractions.shape == (len(slow), len(table.channel_labels))
    for i, ref in enumerate(slow):
        row = table[i:i + 1]
        assert len(row) == 1
        assert (row.label, row.v[0], row.j[0]) == (ref.label, ref.v, ref.j)
        assert row.energies[0] == ref.energy
        assert np.array_equal(row.wavefunctions[0], ref.wavefunction)
        assert tuple(row.channel_fractions[0].tolist()) == ref.channel_fractions
        assert row.b_rot[0] == ref.rotational_constant()
        assert (row.grid, row.mu, row.shift) == (ref.grid, ref.mu, ref.shift)


@pytest.mark.parametrize("name", ["x", "ab"])
def test_level_tables_are_the_per_level_levels(narb_radial, name):
    basis = narb_radial[f"{name}_basis"]
    for j in J_RANGE:
        for max_levels in MAX_LEVELS:
            _assert_table_is(basis.levels(j, max_levels), slow_levels(basis, j, max_levels))


def test_dipoles_and_linewidths_over_tables_are_the_per_level_ones(narb_radial):
    """The (X, A-b) dipole array and the A-b linewidths, each one array
    expression over tables, hold the oracle's per-pair and per-level
    values bit for bit; a one-row slice gives the same row."""
    x_basis, ab_basis = narb_radial["x_basis"], narb_radial["ab_basis"]
    dip = narb_radial["dipole"]
    targets = [(narb_radial["ground"], dip)]
    pairs = {(0, 0): dip}
    x_table = RovibLevels.join([x_basis.levels(j, 1) for j in J_RANGE])
    x_slow = [lv for j in J_RANGE for lv in slow_levels(x_basis, j, 1)]
    for jp in J_RANGE:
        for max_levels in MAX_LEVELS:
            ab_table = ab_basis.levels(jp, max_levels)
            ab_slow = slow_levels(ab_basis, jp, max_levels)
            gammas = linewidth(ab_table, targets)
            assert gammas.shape == (len(ab_slow),)
            assert np.array_equal(gammas, [slow_linewidth(lv, targets) for lv in ab_slow])
            dipoles = radial_matrix_element(x_table, dip, ab_table, pairs=pairs)
            assert dipoles.shape == (len(x_slow), len(ab_slow))
            assert np.array_equal(dipoles, [[slow_matrix_element(x, ab, pairs) for ab in ab_slow]
                                            for x in x_slow])
        ab_table = ab_basis.levels(jp, 3)
        dipoles = radial_matrix_element(x_table, dip, ab_table, pairs=pairs)
        x_row, ab_row = x_table[jp:jp + 1], ab_table[2:3]
        assert np.array_equal(linewidth(ab_row, targets), linewidth(ab_table, targets)[2:3])
        assert np.array_equal(radial_matrix_element(x_row, dip, ab_row, pairs=pairs),
                              dipoles[jp:jp + 1, 2:3])
        assert np.array_equal(radial_matrix_element(x_row, dip, ab_table, pairs=pairs),
                              dipoles[jp:jp + 1])
        assert np.array_equal(radial_matrix_element(x_table, dip, ab_row, pairs=pairs),
                              dipoles[:, 2:3])


def test_tables_slice_and_join_by_rows(narb_radial):
    ab_basis = narb_radial["ab_basis"]
    first, second = ab_basis.levels(0, 3), ab_basis.levels(2, 4)
    joined = RovibLevels.join([first, second])
    assert len(joined) == 7 and list(joined.j) == [0] * 3 + [2] * 4
    assert list(joined.v) == [0, 1, 2, 0, 1, 2, 3]
    assert np.array_equal(joined[3:].wavefunctions, second.wavefunctions)
    assert joined[-1:].energies[0] == second.energies[-1] and joined[4:5].j[0] == 2
    assert len(joined[7:]) == 0
    # a row is read from the arrays: a table has no level type to index into
    for index in (0, -1, 7, np.int64(2)):
        with pytest.raises(TypeError, match="slice"):
            joined[index]
    with pytest.raises(TypeError, match="slice"):
        next(iter(joined))
    with pytest.raises(ValueError, match="one basis"):
        RovibLevels.join([first, narb_radial["x_basis"].levels(0, 1)])


def test_bundled_block_solves_end_on_the_certified_block(narb_radial, monkeypatch):
    """Every J off the reference solves the blocks m = 2 max_levels + 16,
    doubled, up to the one the certificate accepts: at 12 levels (and at 1
    for X, as imag-scan asks) X ends on m = 40 (18 at one level) and A-b on
    m = 160, after m = 40 and 80."""
    sizes = []
    eigh = radial._eigh
    monkeypatch.setattr(radial, "_eigh", lambda h, overwrite=False: sizes.append(len(h))
                        or eigh(h, overwrite))
    for name, counts, m in [("x", (12, 1), {12: 40, 1: 18}), ("ab", (12,), {12: 160})]:
        basis = uncached(narb_radial[f"{name}_basis"])
        for j in J_RANGE:
            for max_levels in counts:
                sizes.clear()
                basis.levels(j, max_levels)
                doubling = [(2 * max_levels + 16) * 2 ** k for k in range(4)]
                assert sizes == ([] if j == basis.j_ref
                                 else [b for b in doubling if b <= m[max_levels]]), (name, j)


def _assert_same_table(table, ref):
    """Two tables alike in every field, each array to the bit."""
    for name in ("label", "grid", "mu", "channel_labels", "potentials", "shift"):
        assert getattr(table, name) == getattr(ref, name), name
    for name in RovibLevels._ROWS:
        got, want = getattr(table, name), getattr(ref, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                         want.tobytes()), name


@pytest.mark.parametrize("name", ["x", "ab"])
def test_kept_tables_equal_uncached_solves(narb_radial, name):
    """A basis and its views at another shift (the pinned A-b basis and its
    unshifted view, the X basis and a shifted view) share one set of kept
    tables, and each table read from it, at J = 0..6 for 1, 12 or all
    levels, equals the solve of a basis with nothing kept, bit for bit."""
    basis = narb_radial[f"{name}_basis"]
    views = (basis, basis.with_shift(0.0 if basis.shift else narb_radial["ab_basis"].shift))
    assert views[1]._tables is basis._tables and views[1].shift != basis.shift
    for j in J_RANGE:
        for max_levels in (1, 12, None):
            for view in views:
                fresh = uncached(view).levels(j, max_levels)
                _assert_same_table(view.levels(j, max_levels), fresh)
                _assert_same_table(view.levels(j, max_levels), fresh)
                assert (j, max_levels) in basis._tables


def test_kept_tables_are_read_only(narb_radial):
    """Every array a basis keeps is read-only, in the table it keeps and in
    each table it returns; the shifted energies are the caller's."""
    basis = narb_radial["ab_basis"]
    table = basis.levels(2, 12)
    for name in ("v", "j", "wavefunctions", "channel_fractions", "b_rot"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, name)[0] = 0
    for kept in basis._tables.values():
        for name in RovibLevels._ROWS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(kept, name)[...] = 0
    assert table.energies.flags.writeable


def test_kept_tables_stay_within_their_bytes(narb_radial, monkeypatch):
    """Past TABLE_CACHE_BYTES of wavefunctions the oldest tables go, and a
    table larger than the bound alone is not kept."""
    basis = uncached(narb_radial["x_basis"])
    one = basis.levels(1, 12).wavefunctions.nbytes
    monkeypatch.setattr(radial, "TABLE_CACHE_BYTES", 2 * one)
    basis.levels(2, 12)
    basis.levels(3, 12)
    assert list(basis._tables) == [(2, 12), (3, 12)]
    _assert_same_table(basis.levels(4), uncached(basis).levels(4))
    assert not basis._tables
