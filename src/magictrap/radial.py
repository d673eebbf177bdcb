"""Radial bound-state solver on a sinc (sine) DVR grid.

The grid covers a hard-wall interval [r_min, r_max] with n interior
points R_i = r_min + i dr, dr = (r_max - r_min)/(n + 1).  The kinetic
matrix is the closed-form particle-in-a-box DVR expression; its leading
diagonal term is hbar^2 pi^2 / (6 mu dr^2) with the standard interval
adjustments, and off-diagonal entries fall off as (-1)^(i-j)/(i-j)^2
with the corresponding interval correction.  Single curves and
two-channel spin-orbit coupled pairs share the same machinery.

Each solve diagonalizes every channel's n x n block on its own
(``np.linalg.eigh``).  A single curve's eigenpairs are the model's.  A
coupled model's channels each keep their eigenstates up to
:data:`CHANNEL_CUTOFF` above their own asymptote, and one more eigh
couples them in that basis; an a-posteriori bound on what the dropped
states could move each bound energy certifies the truncation, and a
solve whose bound exceeds :data:`TRUNCATION_TOL` keeps every channel
state instead.  This is the sequential diagonalization-truncation of
Bacic & Light (Annu. Rev. Phys. Chem. 40, 469 (1989)) applied to the
channels of the Colbert-Miller DVR (J. Chem. Phys. 96, 1982 (1992)).

J enters the Hamiltonian only through the diagonal centrifugal term
J(J+1) C with C = 1/(2 mu R^2) on every channel.  A :class:`RovibBasis`
keeps the lowest eigenpairs of one solve at a reference J and C in
their span, and gives the levels at any J from that small matrix, the
same contraction again, over J.  Asked for its lowest few levels, it
diagonalizes only a leading block of that matrix, grown until a residual
bound on the levels asked for (Parlett, The Symmetric Eigenvalue Problem
(1998), ch. 11) certifies them; asked for all, the whole matrix.
:func:`solve_single` and
:func:`solve_coupled` are its one-J case: one solve at the J asked for,
with no contraction over J.

Levels come as one :class:`RovibLevels` table of arrays per call, and
linewidths and matrix elements are quadratures over its wavefunction
array, as in LEVEL (Le Roy, JQSRT 186, 167 (2017)).

All quantities are in Hartree atomic units unless stated otherwise;
reduced masses cross the API boundary in atomic mass units.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Integral

import numpy as np

from .angular import _check_j
from .errors import GridError
from .potentials import CoupledModel, DipoleFunction, PotentialCurve
from .units import AMU_TO_ME, C_AU

__all__ = [
    "RadialGrid",
    "RovibLevel",
    "RovibLevels",
    "RovibBasis",
    "dvr_kinetic",
    "rovib_basis",
    "solve_single",
    "solve_coupled",
    "radial_matrix_element",
    "linewidth",
]

logger = logging.getLogger(__name__)

# levels closer than this to the dissociation threshold get flagged
NEAR_THRESHOLD_WINDOW = 1e-6
BOUND_MARGIN = 1e-10
MIN_POINTS = 8
# A contracted basis keeps this many states per level bound at its
# reference J: the bound levels and twice as many above the threshold.
# On the bundled grid, keeping the bound levels alone leaves
# near-threshold energies at J = 6 off by 6e-3, two per bound level
# leave their B_v off by 1.6e-10, and three match every bound level at
# J = 0..6 to the full DVR within 1e-11 (tests/test_radial.py).
BASIS_STATES_PER_BOUND = 3
# A coupled solve keeps each channel's eigenstates up to this far above
# the channel's own asymptote (Hartree) before coupling them.  On the
# bundled grid at J' = 1 that keeps 586 + 568 of 1200 + 1200 states,
# with a truncation bound of 7.4e-18 Eh; 0.1 Eh keeps 426 + 402 and
# leaves a bound of 7.0e-14 Eh, 0.05 Eh keeps 318 + 283 and 5.3e-9 Eh.
CHANNEL_CUTOFF = 0.2
# Largest truncation bound (Hartree) a coupled solve may carry, at the
# solves' round-off floor; above it the solve keeps every channel state.
TRUNCATION_TOL = 1e-16
# Largest r_i / gap_i, the bound on how far a level's vector is off, that a
# block solve of RovibBasis.levels may carry; above it m doubles.
LEVELS_TOL = 1e-14
# A block solve starts at the first m whose first-order r/gap is at most this
# many LEVELS_TOL: on the bundled bases (J <= 20) it is 0.75-2x the certificate.
LEVELS_START = 100.0
# A basis keeps its level tables (RovibBasis.levels) up to this many bytes of
# wavefunctions.  On the bundled grid a 12-level A-b table holds 0.23 MB and
# one of all its levels 3.1 MB: the bundled solve-rovib and imag-scan keep
# 2.4 MB, and ten all-level A-b tables fit.
TABLE_CACHE_BYTES = 32 * 2 ** 20


@dataclass(frozen=True)
class RadialGrid:
    """Uniform DVR grid on a hard-wall interval (lengths in Bohr)."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise GridError("r_min and r_max must be finite")
        if not isinstance(self.n, Integral):
            raise GridError(f"n must be an integer, got {self.n!r}")
        if self.r_min <= 0.0:
            raise GridError("r_min must be positive (radial coordinate)")
        if self.r_max <= self.r_min:
            raise GridError("r_max must exceed r_min")
        if self.n < MIN_POINTS:
            raise GridError(f"need at least {MIN_POINTS} grid points")

    @property
    def dr(self) -> float:
        return (self.r_max - self.r_min) / (self.n + 1)

    @cached_property
    def points(self) -> np.ndarray:
        """The n interior points, built once per grid and read-only."""
        points = self.r_min + self.dr * np.arange(1, self.n + 1)
        points.setflags(write=False)
        return points

    @property
    def kinetic_cutoff_factor(self) -> float:
        """mu-independent part of the kinetic cutoff hbar^2 pi^2/(2 mu dr^2)."""
        return math.pi ** 2 / (2.0 * self.dr ** 2)


@dataclass(frozen=True, eq=False)
class RovibLevels:
    """Bound rovibrational levels of one basis, one row per level.

    ``v``, ``j``, ``energies`` (with the model shift), ``b_rot``
    (<hbar^2 / (2 mu R^2)>, Hartree) and ``near_threshold`` are (L,)
    arrays, ``channel_fractions`` (L, n_channels) the norm shares, and
    ``wavefunctions`` (L, n_channels, n) amplitude densities psi(R_i),
    sum over channels and points of psi^2 dr = 1, largest-amplitude point
    positive.  An int index gives a :class:`RovibLevel` view of a row, a
    slice a table, and :meth:`join` one table of several.
    """

    label: str
    grid: RadialGrid
    mu: float  # reduced mass, electron masses
    channel_labels: tuple[str, ...]
    potentials: tuple[PotentialCurve, ...] = field(repr=False)
    shift: float
    v: np.ndarray
    j: np.ndarray
    energies: np.ndarray
    wavefunctions: np.ndarray = field(repr=False)
    channel_fractions: np.ndarray = field(repr=False)
    b_rot: np.ndarray = field(repr=False)
    near_threshold: np.ndarray = field(repr=False)

    _ROWS = ("v", "j", "energies", "wavefunctions", "channel_fractions", "b_rot",
             "near_threshold")

    def __len__(self) -> int:
        return self.energies.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return replace(self, **{name: getattr(self, name)[index] for name in self._ROWS})
        return RovibLevel(self, range(len(self))[index])

    @classmethod
    def join(cls, tables) -> "RovibLevels":
        """The rows of ``tables``, all of one basis, in order."""
        first = tables[0]
        if any((t.label, t.grid, t.mu, t.shift) != (first.label, first.grid, first.mu,
                                                    first.shift) for t in tables):
            raise ValueError("tables to join must come from one basis")
        return replace(first, **{name: np.concatenate([getattr(t, name) for t in tables])
                                 for name in cls._ROWS})


class RovibLevel:
    """One bound level: row ``index`` of a :class:`RovibLevels` table, its
    values as Python scalars and ``wavefunction`` (n_channels, n) the
    table's row."""

    __slots__ = ("table", "index")

    def __init__(self, table: RovibLevels, index: int):
        self.table, self.index = table, index

    label = property(lambda self: self.table.label)
    grid = property(lambda self: self.table.grid)
    mu = property(lambda self: self.table.mu)
    channel_labels = property(lambda self: self.table.channel_labels)
    potentials = property(lambda self: self.table.potentials)
    shift = property(lambda self: self.table.shift)
    v = property(lambda self: int(self.table.v[self.index]))
    j = property(lambda self: int(self.table.j[self.index]))
    energy = property(lambda self: float(self.table.energies[self.index]))
    near_threshold = property(lambda self: bool(self.table.near_threshold[self.index]))
    wavefunction = property(lambda self: self.table.wavefunctions[self.index])
    channel_fractions = property(
        lambda self: tuple(self.table.channel_fractions[self.index].tolist()))

    def rotational_constant(self) -> float:
        """Vibrationally averaged <hbar^2 / (2 mu R^2)> in Hartree."""
        return float(self.table.b_rot[self.index])


def _as_table(levels: RovibLevels | RovibLevel) -> tuple[RovibLevels, bool]:
    """A table and whether ``levels`` was one level: a level is its row."""
    if isinstance(levels, RovibLevel):
        return levels.table[levels.index:levels.index + 1], True
    return levels, False


def dvr_kinetic(grid: RadialGrid, mass_amu: float) -> np.ndarray:
    """Kinetic-energy matrix (Hartree) for the given grid and mass.

    Entry (i, j) reads (-1)^k / sin^2(pi k / 2(n+1)) only at k = |i - j|
    and k = i + j, whose parities agree, and the diagonal at k = 2i, so
    one table over k = 0..2n fills the whole matrix.  Each call returns
    a new array.
    """
    if mass_amu <= 0.0:
        raise ValueError("mass must be positive")
    mu = mass_amu * AMU_TO_ME
    n = grid.n
    big_n = n + 1
    pref = math.pi ** 2 / (2.0 * mu * (grid.r_max - grid.r_min) ** 2) * 0.5
    k = np.arange(2 * n + 1)
    # k = 0 only lands on the diagonal, which is overwritten below
    with np.errstate(divide="ignore"):
        table = np.where(k % 2, -1.0, 1.0) / np.sin(math.pi * k / (2.0 * big_n)) ** 2
    i = np.arange(1, n + 1)
    t = table[np.abs(i[:, None] - i[None, :])]
    t -= table[i[:, None] + i[None, :]]
    t *= pref
    t[np.diag_indices(n)] = pref * ((2.0 * big_n ** 2 + 1.0) / 3.0 - table[2 * i])
    return t


def _check_grid(grid: RadialGrid, mu: float, v_on_grid: np.ndarray,
                asymptote: float) -> None:
    depth = asymptote - float(np.min(v_on_grid))
    cutoff = grid.kinetic_cutoff_factor / mu
    if depth > 0.0 and cutoff < depth:
        raise GridError(
            f"kinetic cutoff {cutoff:.3e} Eh below well depth {depth:.3e} Eh; "
            "decrease grid spacing"
        )


@dataclass(frozen=True, eq=False)
class RovibBasis:
    """The lowest eigenpairs of one radial model at a reference J.

    ``energies`` (K,) and the DVR coefficient columns ``vectors``
    (n_channels * n, K) solve the model without its shift at ``j_ref``;
    ``centrifugal`` is U^T C U with C = 1/(2 mu R^2) on every channel.
    At J the levels are the eigenpairs of diag(energies) +
    [J(J+1) - j_ref(j_ref+1)] U^T C U, with wavefunctions U c, and
    ``shift`` is added to every energy afterwards, so a shifted basis
    gives the unshifted levels plus the shift.  With ``max_levels`` given,
    :meth:`levels` solves a certified leading block of that matrix
    (:meth:`_eigenpairs`), m = 160 of K = 486 for the bundled A-b basis at
    12 levels, in one eigensolve; without it, the whole K x K matrix.

    Each unshifted table is solved once: ``_tables`` keeps it, read-only,
    keyed on (J, max_levels), and :meth:`with_shift` hands the same dict to
    the shifted view, so every view of one solve shares it.  Nothing else
    enters a table, as the module tolerances are constants; a basis made
    by ``dataclasses.replace`` starts with an empty dict.  The oldest
    tables go once their wavefunctions pass :data:`TABLE_CACHE_BYTES`.
    """

    label: str
    j_ref: int
    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    centrifugal: np.ndarray = field(repr=False)
    grid: RadialGrid
    mu: float  # reduced mass, electron masses
    channel_labels: tuple[str, ...]
    potentials: tuple[PotentialCurve, ...] = field(repr=False)
    threshold: float  # lowest channel asymptote, without the shift
    shift: float = 0.0
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self) -> int:
        """K, the number of basis states kept."""
        return self.energies.size

    def with_shift(self, shift: float) -> "RovibBasis":
        shifted = replace(self, shift=shift)
        object.__setattr__(shifted, "_tables", self._tables)
        return shifted

    def levels(self, j: int, max_levels: int | None = None) -> RovibLevels:
        """Bound levels at rotational ``j``, ordered by energy, v = 0, 1, ...,
        as one table: the lowest ``max_levels`` of them, or all.

        The table is the one kept under (J, ``max_levels``), solved on the
        first call, with ``shift`` added to its energies; its other arrays
        are the kept, read-only ones.
        """
        j = _check_j(j)
        table = self._tables.get((j, max_levels))
        if table is None:
            table = self._tables[j, max_levels] = self._table(j, max_levels)
            while sum(t.wavefunctions.nbytes for t in self._tables.values()) > TABLE_CACHE_BYTES:
                del self._tables[next(iter(self._tables))]
        energies = table.energies + self.shift
        near = energies > self.threshold + self.shift - NEAR_THRESHOLD_WINDOW
        return replace(table, shift=self.shift, energies=energies, near_threshold=near)

    def _table(self, j: int, max_levels: int | None) -> RovibLevels:
        """:meth:`levels` without the shift, solved afresh, every array read-only."""
        top = self.threshold - BOUND_MARGIN
        factor = j * (j + 1) - self.j_ref * (self.j_ref + 1)
        if factor == 0:
            energies = self.energies
        else:
            energies, coeffs = self._eigenpairs(j, factor, top, max_levels)
        bound = int(np.searchsorted(energies, top))
        if factor and bound == self.size < self.vectors.shape[0]:
            raise GridError(
                f"all {self.size} states of the {self.label} basis are bound "
                f"at J={j}; the contraction has no room above the threshold"
            )
        energies = energies[:bound][:max_levels]
        count = energies.size
        vectors = (self.vectors[:, :count] if factor == 0
                   else self.vectors[:, :coeffs.shape[0]] @ coeffs[:, :count])
        # one row of DVR coefficients per level, channels then grid points
        flat = np.ascontiguousarray(vectors.T)
        psi = flat.reshape(count, len(self.channel_labels), self.grid.n)
        # deterministic overall sign: largest-amplitude point positive
        flip = flat[np.arange(count), np.argmax(np.abs(flat), axis=1)] < 0.0
        wavefunctions = np.where(flip[:, None, None], -psi, psi) / math.sqrt(self.grid.dr)
        density = np.sum(wavefunctions ** 2, axis=1) * self.grid.dr
        table = RovibLevels(
            label=self.label, grid=self.grid, mu=self.mu,
            channel_labels=self.channel_labels, potentials=self.potentials,
            shift=0.0, v=np.arange(count), j=np.full(count, j), energies=energies,
            wavefunctions=wavefunctions, channel_fractions=np.sum(psi ** 2, axis=-1),
            b_rot=np.sum(density / (2.0 * self.mu * self.grid.points ** 2), axis=-1),
            near_threshold=energies > self.threshold - NEAR_THRESHOLD_WINDOW,
        )
        for name in RovibLevels._ROWS:
            getattr(table, name).setflags(write=False)
        return table

    def _eigenpairs(self, j: int, factor: int, top: float, max_levels: int | None):
        """Lowest eigenpairs of H = diag(energies) + factor U^T C U, from its
        leading m x m block.

        m runs over 2 max_levels + 16 and its doublings, up to K, which is the
        exact solve; ``max_levels=None`` goes to m = K at once.  The first m
        solved is the first whose first-order ratio, |factor C[m:, i]| over
        E_m + min(factor, 0) max C - E_i - factor C_ii for the basis vectors
        i < ``max_levels``, is at most :data:`LEVELS_START` times the
        tolerance: it reads the basis, J and ``max_levels`` alone.  For a block
        eigenpair (e_i, c_i), r_i = |factor C[m:, :m] c_i| is its residual in
        H, and E_m + min(factor, 0) max C bounds the dropped block's spectrum
        from below (U has orthonormal columns), so with gap_i above e_i the
        vector is off by at most r_i / gap_i and the energy by r_i^2 / gap_i.
        A block is certified when every gap is positive, the largest
        r_i / gap_i is at most :data:`LEVELS_TOL`, it has ``max_levels``
        levels below ``top``, and some diagonal entry of H lies above ``top``
        (so H has a state above it, and :meth:`levels` cannot owe the
        "no room" error).  The log line names J, m, K and that largest ratio.
        """
        size = self.size
        want = max_levels or 0
        cent = self.centrifugal
        room = np.max(self.energies + factor * np.diagonal(cent)) > top
        m = min(size, 2 * want + 16) if want > 0 and room else size
        floor = min(factor, 0) / (2.0 * self.mu * self.grid.points[0] ** 2)
        first = self.energies[:want] + factor * np.diagonal(cent)[:want]
        while m < size and np.any(abs(factor) * np.linalg.norm(cent[m:, :want], axis=0)
                                  > LEVELS_START * LEVELS_TOL
                                  * (self.energies[m] + floor - first)):
            m = min(2 * m, size)
        while True:
            energies, coeffs = np.linalg.eigh(np.diag(self.energies[:m]) + factor * cent[:m, :m])
            if m == size:
                ratio = 0.0
                break
            residual = np.linalg.norm(factor * (cent[m:, :m] @ coeffs[:, :want]), axis=0)
            gap = self.energies[m] + floor - energies[:want]
            ratio = float(np.max(residual / gap)) if np.all(gap > 0.0) else math.inf
            if ratio <= LEVELS_TOL and np.searchsorted(energies, top) >= want:
                break
            m = min(2 * m, size)
        logger.debug("%s levels at J=%d: m=%d of K=%d, max r/gap %.1e",
                     self.label, j, m, size, ratio)
        return energies, coeffs


def _kept(energies: np.ndarray, top: float) -> int:
    """How many of the ascending ``energies`` a basis keeps:
    :data:`BASIS_STATES_PER_BOUND` per one below ``top``, or all."""
    return min(energies.size, BASIS_STATES_PER_BOUND * int(np.searchsorted(energies, top)))


def _couple(channels, coupling: np.ndarray, kept: tuple[int, int], top: float):
    """Lowest eigenpairs of two channels coupled in their kept eigenstates.

    ``channels`` holds each channel's ascending (energies, vectors) and
    ``kept`` how many of each enter.  The Hamiltonian in that basis is
    diag(E_A, E_b) with U_A^T xi U_b off the diagonal.  Returns the
    :func:`_kept` energies, their DVR coefficient columns (channel A's
    rows first) and the truncation bound: the largest r_i^2 / (E_drop - E_i)
    over the levels i below ``top``, where r_i is the norm of what the
    coupling carries from level i into the dropped channel states and
    E_drop is the lowest dropped channel energy.  It is 0 if nothing is
    dropped.
    """
    (e_a, u_a), (e_b, u_b) = channels
    k_a, k_b = kept
    a, b = u_a[:, :k_a], u_b[:, :k_b]
    h = np.diag(np.concatenate([e_a[:k_a], e_b[:k_b]]))
    h[k_a:, :k_a] = b.T @ (coupling[:, None] * a)  # eigh reads the lower triangle
    energies, c = np.linalg.eigh(h)
    del h
    keep = _kept(energies, top)
    energies = energies[:keep]
    psi_a, psi_b = a @ c[:k_a, :keep], b @ c[k_a:, :keep]
    del c
    nb = int(np.searchsorted(energies, top))
    r2 = (np.sum((u_a[:, k_a:].T @ (coupling[:, None] * psi_b[:, :nb])) ** 2, axis=0)
          + np.sum((u_b[:, k_b:].T @ (coupling[:, None] * psi_a[:, :nb])) ** 2, axis=0))
    gap = min(e_a[k_a:].min(initial=np.inf), e_b[k_b:].min(initial=np.inf)) - energies[:nb]
    bound = float(np.max(r2 / gap, initial=0.0)) if np.all(gap > 0.0) else math.inf
    return energies, np.vstack([psi_a, psi_b]), bound


def _channel_eigenpairs(t: np.ndarray, diagonals: list[np.ndarray],
                        coupling: np.ndarray | None, asymptotes: list[float], top: float):
    """Lowest eigenpairs of the DVR Hamiltonian whose channel blocks are
    ``t + diag(d)``, one per ``diagonals`` entry, and whose two channels,
    if ``coupling`` is given, are coupled pointwise by it.

    Each block is diagonalized alone.  A single curve's eigenpairs are
    the model's.  Two channels each keep their states up to
    :data:`CHANNEL_CUTOFF` above their own asymptote, and one more eigh
    couples them in that basis (:func:`_couple`); if the truncation bound
    exceeds :data:`TRUNCATION_TOL`, the coupling step is repeated with
    every channel state, which is exact.  Returns the :func:`_kept`
    energies and DVR coefficient columns, the states kept per channel
    and the truncation bound of the solve returned.
    """
    n = t.shape[0]
    channels = [np.linalg.eigh(t + np.diag(d)) for d in diagonals]
    if coupling is None:
        (energies, u), = channels
        keep = _kept(energies, top)
        # a copy, so the n x n eigenvectors can go
        return energies[:keep], np.array(u[:, :keep]), (n,), 0.0
    kept = tuple(int(np.searchsorted(e, asymptote + CHANNEL_CUTOFF))
                 for (e, _), asymptote in zip(channels, asymptotes))
    energies, vectors, bound = _couple(channels, coupling, kept, top)
    if bound > TRUNCATION_TOL:
        logger.info("truncation bound %.1e Eh above %.0e Eh with %d + %d channel "
                    "states; keeping all %d + %d", bound, TRUNCATION_TOL, *kept, n, n)
        kept = (n, n)
        energies, vectors, bound = _couple(channels, coupling, kept, top)
    return energies, vectors, kept, bound


def _dense_basis(model: PotentialCurve | CoupledModel, j: int, mass_amu: float,
                 grid: RadialGrid):
    """One DVR solve of ``model`` without its shift at rotational ``j``.

    Each channel's block is the DVR kinetic matrix plus the channel
    potential and the centrifugal term, and a coupled model's two
    channels are coupled pointwise through xi(R).  The solve is
    :func:`_channel_eigenpairs`: exact for a single curve, and for a
    coupled model certified to round-off against the uncontracted 2n x 2n
    solve.  Returns the basis, the channel states kept and the
    truncation bound.
    """
    j = _check_j(j)
    if isinstance(model, CoupledModel):
        label, labels, curves = "".join(model.labels), tuple(model.labels), tuple(model.curves)
        shift = model.shift
    else:
        label, labels, curves, shift = model.label, (model.label,), (model,), 0.0
    mu = mass_amu * AMU_TO_ME
    r = grid.points
    potentials = [np.asarray(curve(r), dtype=float) for curve in curves]
    threshold = min(curve.asymptote for curve in curves)
    _check_grid(grid, mu, np.min(potentials, axis=0), threshold)

    cent = 1.0 / (2.0 * mu * r ** 2)
    coupling = (np.asarray(model.coupling(r), dtype=float)
                if isinstance(model, CoupledModel) else None)
    energies, vectors, kept, bound = _channel_eigenpairs(
        dvr_kinetic(grid, mass_amu), [v + j * (j + 1) * cent for v in potentials],
        coupling, [curve.asymptote for curve in curves], threshold - BOUND_MARGIN)
    c_diag = np.tile(cent, len(curves))
    centrifugal = vectors.T @ (c_diag[:, None] * vectors)
    # read-only, as a basis may be shared by every later caller
    for array in (energies, vectors, centrifugal):
        array.setflags(write=False)
    basis = RovibBasis(
        label=label, j_ref=j, energies=energies, vectors=vectors,
        centrifugal=centrifugal, grid=grid, mu=mu,
        channel_labels=labels, potentials=curves, threshold=threshold, shift=shift,
    )
    return basis, kept, bound


def rovib_basis(model: PotentialCurve | CoupledModel, j_ref: int, mass_amu: float,
                grid: RadialGrid) -> RovibBasis:
    """Contracted rovibrational basis of a curve or coupled model.

    One solve at ``j_ref`` (:func:`_dense_basis`) keeps
    :data:`BASIS_STATES_PER_BOUND` states per bound level there (all
    states, if the grid has fewer); :meth:`RovibBasis.levels` then
    serves any J, and a coupled model's shift is carried as
    :attr:`RovibBasis.shift`.  The log line names the channel states
    the solve kept and its truncation bound.  Raises :class:`GridError`
    if no level is bound at ``j_ref``.
    """
    basis, kept, bound = _dense_basis(model, j_ref, mass_amu, grid)
    if not basis.size:
        raise GridError(f"no bound {basis.label} level at J={j_ref} on the grid "
                        "to build a basis from")
    logger.info("%s basis at J=%d: K=%d of %d states, %d bound; channel states "
                "kept %s of %d each, truncation bound %.1e Eh",
                basis.label, j_ref, basis.size, basis.vectors.shape[0],
                int(np.searchsorted(basis.energies, basis.threshold - BOUND_MARGIN)),
                " + ".join(map(str, kept)), grid.n, bound)
    return basis


def solve_single(model: PotentialCurve | CoupledModel, j: int, mass_amu: float,
                 grid: RadialGrid, max_levels: int | None = None) -> RovibLevels:
    """Bound levels of a curve or a coupled model at rotational j.

    Returns the levels below the lowest asymptote, ordered by energy and
    indexed v = 0, 1, ...  A coupled model's shift is added to every
    energy, and channel fractions are the norm shares of its components.
    One solve at this j alone (:func:`_dense_basis`: exact for a curve,
    channel-contracted and certified to round-off for a coupled model);
    use :func:`rovib_basis` for several J.  :func:`solve_coupled` is the
    same function.
    """
    return _dense_basis(model, j, mass_amu, grid)[0].levels(j, max_levels)


solve_coupled = solve_single


def radial_matrix_element(bra: RovibLevel | RovibLevels, f, ket: RovibLevel | RovibLevels,
                          pairs: dict[tuple[int, int], object] | None = None):
    """<bra| f(R) |ket> on the common grid: a float for two levels, else an
    array with one axis per table, the bra's first (built a bra at a time).

    With ``pairs`` omitted, ``f`` is applied on matching channels
    (requires equal channel counts).  Otherwise ``pairs`` maps
    (bra_channel, ket_channel) to the function weighting that block,
    which is how a transition dipole connecting only one channel pair
    is expressed.
    """
    bras, bra_one = _as_table(bra)
    kets, ket_one = _as_table(ket)
    if bras.grid != kets.grid:
        raise GridError("bra and ket live on different grids")
    r = bras.grid.points
    dr = bras.grid.dr
    if pairs is None:
        if len(bras.channel_labels) != len(kets.channel_labels):
            raise ValueError("channel counts differ; pass explicit pairs")
        pairs = {(c, c): f for c in range(len(bras.channel_labels))}
    acc = np.zeros((len(bras), len(kets)))
    for (cb, ck), fn in pairs.items():
        fr = np.asarray(fn(r), dtype=float)
        for row, psi in zip(acc, bras.wavefunctions[:, cb]):
            row += np.sum(psi * fr * kets.wavefunctions[:, ck], axis=-1) * dr
    out = acc[0 if bra_one else slice(None), 0 if ket_one else slice(None)]
    return float(out) if bra_one and ket_one else out


def linewidth(levels: RovibLevel | RovibLevels,
              decay_targets: list[tuple[PotentialCurve, DipoleFunction]]):
    """Radiative linewidth gamma_f (atomic units) of a level, or (L,) of a table.

    Averages the R-local spontaneous rate over each level's density:

        Gamma(R) = |dE(R)|^3 d(R)^2 / (3 pi eps0 hbar^4 c^3)

    written in atomic units as (4/3) |dE|^3 d^2 / c^3, where dE(R) is
    the difference between the emitting channel's potential (including
    the model shift) and the target curve.  Channels without a dipole
    path to any target contribute nothing.
    """
    table, one = _as_table(levels)
    r = table.grid.points
    dr = table.grid.dr
    gamma = np.zeros(len(table))
    for target_curve, dip in decay_targets:
        v_t = np.asarray(target_curve(r), dtype=float)
        below = table.energies < float(np.min(v_t))
        if below.any():
            raise ValueError(
                f"level at {table.energies[below][0]:.6e} Eh lies below the minimum of "
                f"decay target {target_curve.label!r}"
            )
        for c, ch_label in enumerate(table.channel_labels):
            if not dip.connects(ch_label, target_curve.label):
                continue
            v_c = np.asarray(table.potentials[c](r), dtype=float) + table.shift
            de = v_c - v_t
            rate_r = (4.0 / 3.0) * np.abs(de) ** 3 * dip(r) ** 2 / C_AU ** 3
            gamma += np.sum(table.wavefunctions[:, c] ** 2 * rate_r, axis=-1) * dr
    return float(gamma[0]) if one else gamma
