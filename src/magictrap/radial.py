"""Radial bound-state solver on a sinc (sine) DVR grid.

The grid covers a hard-wall interval [r_min, r_max] with n interior
points R_i = r_min + i dr, dr = (r_max - r_min)/(n + 1).  The kinetic
matrix is the closed-form particle-in-a-box DVR expression; its leading
diagonal term is hbar^2 pi^2 / (6 mu dr^2) with the standard interval
adjustments, and off-diagonal entries fall off as (-1)^(i-j)/(i-j)^2
with the corresponding interval correction.  Single curves and
two-channel spin-orbit coupled pairs share the same machinery.

Each solve diagonalizes every channel's n x n block on its own, in
place through numpy's own LAPACK (:func:`_eigh`), and hands the heap it
frees back to the OS (:func:`_trim`).  A single curve's eigenpairs are the
model's.  A coupled model's channels each keep their eigenstates up to
:data:`CHANNEL_CUTOFF` above their own asymptote, and one more eigh
couples them in that basis; an a-posteriori bound on what
the dropped states could move each bound energy certifies the
truncation, and a solve whose bound exceeds :data:`TRUNCATION_TOL` keeps
every channel state instead.  This is the sequential diagonalization-truncation of
Bacic & Light (Annu. Rev. Phys. Chem. 40, 469 (1989)) applied to the
channels of the Colbert-Miller DVR (J. Chem. Phys. 96, 1982 (1992)).

J enters the Hamiltonian only through the diagonal centrifugal term
J(J+1) C with C = 1/(2 mu R^2) on every channel.  A :class:`RovibBasis`
keeps the lowest eigenpairs of one solve at a reference J and C in
their span, and gives the levels at any J from that small matrix, the
same contraction again, over J.  Asked for its lowest few levels, it
diagonalizes only a leading block of that matrix, grown until a residual
bound on the levels asked for (Parlett, The Symmetric Eigenvalue Problem
(1998), ch. 11) certifies them; asked for all, the whole matrix.  The
levels at ``j_ref`` itself are the dense solve's own eigenpairs, so
``rovib_basis(model, j, mass, grid).levels(j)`` is the one-J solve.

Levels come as one :class:`RovibLevels` table of arrays per call, and
linewidths and matrix elements are quadratures over its wavefunction
array, as in LEVEL (Le Roy, JQSRT 186, 167 (2017)).

All quantities are in Hartree atomic units unless stated otherwise;
reduced masses cross the API boundary in atomic mass units.
"""

from __future__ import annotations

import ctypes
import logging
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from numbers import Integral

import numpy as np

try:
    import resource
except ImportError:  # no getrusage on this platform
    resource = None

from .angular import _as_int, _check_j
from .errors import GridError
from .potentials import CoupledModel, DipoleFunction, PotentialCurve
from .units import AMU_TO_ME, C_AU

__all__ = [
    "RadialGrid",
    "RovibLevels",
    "RovibBasis",
    "dvr_kinetic",
    "rovib_basis",
    "radial_matrix_element",
    "linewidth",
]

logger = logging.getLogger(__name__)

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

    ``v``, ``j``, ``energies`` (with the model shift) and ``b_rot``
    (<hbar^2 / (2 mu R^2)>, Hartree) are (L,) arrays,
    ``channel_fractions`` (L, n_channels) the norm shares, and
    ``wavefunctions`` (L, n_channels, n) amplitude densities psi(R_i),
    sum over channels and points of psi^2 dr = 1, largest-amplitude point
    positive.  A slice gives a table of those rows, and :meth:`join` one
    table of several; a row is read from the arrays, as an int index
    raises TypeError.
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

    _ROWS = ("v", "j", "energies", "wavefunctions", "channel_fractions", "b_rot")

    def __len__(self) -> int:
        return self.energies.size

    def __getitem__(self, index: slice) -> "RovibLevels":
        if not isinstance(index, slice):
            raise TypeError("a level table takes a slice; read a row from its arrays")
        return replace(self, **{name: getattr(self, name)[index] for name in self._ROWS})

    @classmethod
    def join(cls, tables) -> "RovibLevels":
        """The rows of ``tables``, all of one basis, in order."""
        first = tables[0]
        if any((t.label, t.grid, t.mu, t.shift) != (first.label, first.grid, first.mu,
                                                    first.shift) for t in tables):
            raise ValueError("tables to join must come from one basis")
        return replace(first, **{name: np.concatenate([getattr(t, name) for t in tables])
                                 for name in cls._ROWS})


def dvr_kinetic(grid: RadialGrid, mass_amu: float) -> np.ndarray:
    """Kinetic-energy matrix (Hartree) for the given grid and mass.

    Entry (i, j) reads (-1)^k / sin^2(pi k / 2(n+1)) only at k = |i - j|
    and k = i + j, whose parities agree, and the diagonal at k = 2i, so
    one table over k = 0..2n fills the whole matrix: a Toeplitz and a
    Hankel strided view of it, subtracted once.  Each call returns a new
    array.
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
    windows = np.lib.stride_tricks.sliding_window_view
    # counting rows and columns from 0, the reversed windows over table[n-1],
    # ..., table[1], table[0], ..., table[n-1] read table[|i - j|] at (i, j),
    # and the windows over table[2:] read table[i + j + 2]
    toeplitz = windows(np.concatenate([table[n - 1:0:-1], table[:n]]), n)[::-1]
    t = toeplitz - windows(table[2:], n)
    t *= pref
    i = np.arange(1, n + 1)
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
    gives the unshifted levels plus the shift.  At ``j_ref`` the levels are
    the dense solve's own eigenpairs.  At any other J with ``max_levels``
    given, :meth:`levels` solves a certified leading block of that matrix
    (:meth:`_eigenpairs`), m = 160 of K = 486 for the bundled A-b basis at
    12 levels, after the m = 40 and 80 blocks fail; without it, the whole
    K x K matrix.

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
        first call.  An unshifted view (``shift`` 0.0) returns the kept,
        read-only table itself; a shifted one a table with ``shift`` added
        to its energies and the kept, read-only arrays otherwise.
        ``max_levels`` is None or an integer of at least 1; anything else
        raises ValueError.
        """
        j = _check_j(j)
        if max_levels is not None:
            max_levels = _as_int(max_levels, "max_levels must be None or an integer >= 1", 1)
        table = self._tables.get((j, max_levels))
        if table is None:
            table = self._tables[j, max_levels] = self._table(j, max_levels)
            while sum(t.wavefunctions.nbytes for t in self._tables.values()) > TABLE_CACHE_BYTES:
                del self._tables[next(iter(self._tables))]
        if not self.shift:
            return table
        return replace(table, shift=self.shift, energies=table.energies + self.shift)

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
        )
        for name in RovibLevels._ROWS:
            getattr(table, name).setflags(write=False)
        return table

    def _eigenpairs(self, j: int, factor: int, top: float, max_levels: int | None):
        """Lowest eigenpairs of H = diag(energies) + factor U^T C U, from its
        leading m x m block.

        m runs over 2 max_levels + 16 and its doublings, up to K, which is the
        exact solve; ``max_levels=None`` goes to m = K at once.  For a block
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
        while True:
            energies, coeffs = _eigh(np.diag(self.energies[:m]) + factor * cent[:m, :m])
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


def _bind(library: Callable[[], str | None], name: str, restype, argtypes):
    """Symbol ``name`` of the library at ``library()`` (None: the process),
    typed through ctypes, or None where the library or symbol is missing."""
    try:
        symbol = getattr(ctypes.CDLL(library()), name)
    except (OSError, AttributeError, TypeError):
        return None
    symbol.restype, symbol.argtypes = restype, argtypes
    return symbol


@cache
def _lapack_dsyevd():
    """The ILP64 LAPACK ``dsyevd`` that numpy's own ``linalg`` calls, bound
    through ctypes, or None where numpy ships no such symbol (another BLAS,
    32-bit integers, another platform).

    Keyed on nothing: the first dense solve binds it, which saves the later
    ones the library load and symbol lookup, 40-120 us each on a 2-core host.
    """
    # dlsym on the extension also searches the libraries it links; jobz, uplo,
    # every other argument by address, then the hidden lengths of jobz and uplo
    return _bind(lambda: np.linalg._umath_linalg.__file__, "scipy_dsyevd_64_", None,
                 [ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 9 + [ctypes.c_size_t] * 2)


@cache
def _malloc_trim():
    """glibc's ``malloc_trim``, bound through ctypes, or None where the C
    library has no such symbol (another libc, another platform).

    Keyed on nothing: the first dense solve binds it, which saves the later
    calls the library handle and symbol lookup, about 18 us each on a
    2-core host.
    """
    return _bind(lambda: None, "malloc_trim", ctypes.c_int, [ctypes.c_size_t])


def _trim() -> None:
    """Hand the heap's free pages back to the OS, where glibc can.

    glibc raises its mmap threshold to the size of each mmapped block it
    frees, up to 32 MB, so once the first n x n block and dsyevd workspace
    go (11.5 and 23 MB at n = 1200), later blocks of that size come from
    the heap and stay resident when freed.  A solve calls this where such blocks have just
    gone, so the next ones do not stack on them.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _peak_rss() -> str:
    """The process's peak resident set size so far, as log text."""
    if resource is None:
        return "unknown"
    # ru_maxrss counts bytes on macOS, KiB elsewhere
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return f"{peak / (2 ** 20 if sys.platform == 'darwin' else 2 ** 10):.1f} MB"


def _eigh(h: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(h)`` to the bit, of a matrix or a stack ``(..., n, n)``:
    every eigensolve of the package, whose bits, and so every output's,
    hang on the BLAS thread count and the OpenBLAS kernel family.

    ``overwrite=True`` is the dense radial solves' path, for an exactly
    symmetric C-ordered ``h``, which it overwrites.  Where
    :func:`_lapack_dsyevd` is bound, dsyevd runs in place on h, read
    as the Fortran array h^T: jobz V, uplo L and the workspace query are
    numpy's, and its lower triangle is h's upper one, the same numbers.
    Its eigenvector columns land as h's rows and are copied out to
    C-ordered columns once the 2n^2 workspace is freed, so the solve holds
    3n^2 doubles at its peak, where np.linalg.eigh holds h, its own copy of
    it, the workspace and its n x n output, 5n^2.  An empty h, or a numpy
    without that symbol, goes to np.linalg.eigh.  On either path the heap
    is trimmed (:func:`_trim`) before the eigh allocates its workspace and
    after the eigh frees it.  Raises numpy's LinAlgError if dsyevd fails.
    The debug line names n, the path, the wall time and the process's peak
    RSS so far.
    """
    if not overwrite:
        return np.linalg.eigh(h)
    n = len(h)
    dsyevd = _lapack_dsyevd() if n else None
    start = time.perf_counter()
    if dsyevd is None:
        _trim()
        energies, vectors = np.linalg.eigh(h)
        _trim()
    else:
        h = np.require(h, np.float64, "CW")
        energies = np.empty(n)
        size, lwork, liwork, info = (ctypes.c_int64(v) for v in (n, -1, -1, 0))

        def call(work, iwork):
            dsyevd(b"V", b"L", ctypes.byref(size), h.ctypes.data, ctypes.byref(size),
                   energies.ctypes.data, work.ctypes.data, ctypes.byref(lwork),
                   iwork.ctypes.data, ctypes.byref(liwork), ctypes.byref(info), 1, 1)

        work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
        call(work, iwork)  # the workspace query
        lwork.value, liwork.value = int(work[0]), int(iwork[0])
        _trim()
        work, iwork = np.empty(lwork.value), np.empty(liwork.value, dtype=np.int64)
        call(work, iwork)
        del work, iwork
        _trim()
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        vectors = np.ascontiguousarray(h.T)
    logger.debug("dense eigh n=%d by %s in %.3f s, peak RSS %s", n,
                 "np.linalg.eigh" if dsyevd is None else "dsyevd in place",
                 time.perf_counter() - start, _peak_rss())
    return energies, vectors


def _kept(energies: np.ndarray, top: float) -> int:
    """How many of the ascending ``energies`` a basis keeps:
    :data:`BASIS_STATES_PER_BOUND` per one below ``top``, or all."""
    return min(energies.size, BASIS_STATES_PER_BOUND * int(np.searchsorted(energies, top)))


def _couple(channels: list, coupling: np.ndarray, kept: tuple[int, int], top: float):
    """Lowest eigenpairs of two channels coupled in their kept eigenstates.

    ``channels`` holds each channel's ascending (energies, vectors) and
    ``kept`` how many of each enter; the call empties it, so a caller that
    holds no other reference lets the n x n eigenvectors go before the
    coupling eigh.  The Hamiltonian in that basis is diag(E_A, E_b) with
    U_A^T xi U_b off the diagonal.  Returns the :func:`_kept` energies,
    their DVR coefficient columns (channel A's rows first) and the
    :func:`_truncation_bound` of the levels below ``top``, from r_j, the
    norm of what the coupling carries from kept eigenstate j into the
    dropped channel states: r_j^2 = |D_a c_b,j|^2 + |D_b c_a,j|^2, with
    D_a = U_A,drop^T xi U_b,kept and D_b = U_b,drop^T xi U_A,kept formed
    before the eigh, which is |U_A,drop^T xi psi_b|^2 + |U_b,drop^T xi
    psi_a|^2 regrouped.  The dropped block's spectrum lies above its
    lowest channel energy less max |xi(R_i)|: the dropped A and b states
    couple to each other through U_A,drop^T xi U_b,drop, of norm at most
    max |xi|.
    """
    (e_a, u_a), (e_b, u_b) = channels
    channels.clear()
    k_a, k_b = kept
    # the kept columns, C-ordered; all of u where nothing is dropped
    a, b = np.ascontiguousarray(u_a[:, :k_a]), np.ascontiguousarray(u_b[:, :k_b])
    d_a = u_a[:, k_a:].T @ (coupling[:, None] * b)
    del u_a
    d_b = u_b[:, k_b:].T @ (coupling[:, None] * a)
    del u_b
    h = np.diag(np.concatenate([e_a[:k_a], e_b[:k_b]]))
    cross = h[k_a:, :k_a]
    cross[...] = b.T @ (coupling[:, None] * a)
    h[:k_a, k_a:] = cross.T  # exactly symmetric, as _eigh needs
    # |U_kept^T xi U_drop|_F^2: each channel's |xi U_kept|_F^2 less what stays kept
    carried = float(coupling ** 2 @ (np.einsum("ij,ij->i", a, a) + np.einsum("ij,ij->i", b, b))
                    - 2.0 * np.einsum("ij,ij", cross, cross))
    energies, c = _eigh(h, overwrite=True)
    del h, cross
    _trim()
    keep = _kept(energies, top)
    c_a, c_b = c[:k_a, :keep], c[k_a:, :keep]
    psi_a, psi_b = a @ c_a, b @ c_b
    r2 = np.sum((d_a @ c_b) ** 2, axis=0) + np.sum((d_b @ c_a) ** 2, axis=0)
    del c, c_a, c_b
    floor = (min(e_a[k_a:].min(initial=np.inf), e_b[k_b:].min(initial=np.inf))
             - np.max(np.abs(coupling)))
    bound = _truncation_bound(energies, r2, carried, floor, top)
    return energies[:keep], np.vstack([psi_a, psi_b]), bound


def _truncation_bound(energies: np.ndarray, r2: np.ndarray, carried: float, floor: float,
                      top: float) -> float:
    """How far below its kept-basis energy e_i any level under ``top`` may lie.

    ``energies`` are every kept eigenvalue e_j, ``r2`` the r_j^2 of the
    first few, ``carried`` the sum of all r_j^2 and ``floor`` a lower bound
    on the dropped block's spectrum (inf if nothing is dropped, which gives
    0).  By the Schur complement onto the kept states, level i lies at
    most s_i below e_i, where s_i solves sum_{j >= i} r_j^2 / (s + e_j - e_i)
    = floor - e_i.  Its first term alone gives s0_i = r_i^2 / (floor - e_i),
    the second-order estimate; the others, at s = s0_i and over
    floor - e_i, sum to a_i, and s_i <= s0_i / (1 - a_i), so levels close to
    i raise the bound.  States past ``r2`` enter as one term at the first
    of them, with the rest of ``carried``.  Returns the largest of these.
    """
    if floor == math.inf:
        return 0.0
    keep = r2.size
    e = energies[:int(np.searchsorted(energies, top)), None]
    gap = floor - e
    if not np.all(gap > 0.0):
        return math.inf
    s0 = r2[:e.size, None] / gap
    dist = s0 + np.maximum(energies[:keep] - e, 0.0)
    above = np.divide(r2, dist, out=np.zeros_like(dist),
                      where=np.triu(np.ones(dist.shape, dtype=bool), 1) & (r2 > 0.0))
    rest = (max(carried - float(np.sum(r2)), 0.0) / (s0 + energies[keep] - e)
            if keep < energies.size else 0.0)
    share = (np.sum(above, axis=1, keepdims=True) + rest) / gap
    return float(np.max(np.where(share < 1.0, s0 / (1.0 - share), math.inf), initial=0.0))


def _channel_blocks(kinetic: Callable[[], np.ndarray], diagonals: list[np.ndarray]) -> list:
    """Each channel's ascending (energies, vectors): T + diag(d) per
    ``diagonals`` entry, added into its own new T and diagonalized alone by
    :func:`_eigh`, which overwrites it.  Each block is dropped before the
    next is built, so two are never alive at once."""
    n = diagonals[0].size
    channels = []
    for d in diagonals:
        h = kinetic()
        h[np.diag_indices(n)] += d
        channels.append(_eigh(h, overwrite=True))
        del h
    return channels


def _channel_eigenpairs(kinetic: Callable[[], np.ndarray], diagonals: list[np.ndarray],
                        coupling: np.ndarray | None, asymptotes: list[float], top: float):
    """Lowest eigenpairs of the DVR Hamiltonian whose channel blocks are
    T + diag(d), one per ``diagonals`` entry, and whose two channels, if
    ``coupling`` is given, are coupled pointwise by it.  ``kinetic()``
    returns a new n x n kinetic matrix T on each call.

    Each block is solved alone (:func:`_channel_blocks`): a channel's eigh
    holds that one n x n block and a 2n^2 workspace.  A single curve's
    eigenpairs are the model's.  Two channels each keep their states up to
    :data:`CHANNEL_CUTOFF` above their own asymptote, and one more eigh
    couples them in that basis (:func:`_couple`), which is handed the only
    references to the channels' n x n eigenvectors and keeps just their
    kept columns and the two dropped-column products through that eigh.
    If the truncation bound exceeds :data:`TRUNCATION_TOL`, the channel
    blocks are solved again and coupled with every channel state, which is
    exact.  Returns the :func:`_kept` energies and DVR coefficient columns,
    the states kept per channel and the truncation bound of the solve
    returned.
    """
    n = diagonals[0].size
    channels = _channel_blocks(kinetic, diagonals)
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
                    "states; keeping all %d + %d, solving both channel blocks again",
                    bound, TRUNCATION_TOL, *kept, n, n)
        kept = (n, n)
        energies, vectors, bound = _couple(_channel_blocks(kinetic, diagonals), coupling,
                                           kept, top)
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

    The solve's memory grows as n^2 doubles (8n^2 bytes, 11.5 MB at the
    bundled n = 1200): each channel's eigh holds its one block, which
    dsyevd overwrites with the eigenvectors, and a 2n^2 workspace, 3n^2 in
    all.  A coupled model's coupling eigh holds the same at the kept
    states' size K (1154 on the bundled grid) beside the channels' kept
    columns and the two dropped-column products of :func:`_couple`, 4.25n^2
    in all; the channels' n x n eigenvectors are gone by then.  Nothing
    else of size n^2 is kept.  The heap is trimmed (:func:`_trim`) where
    the solve frees its blocks and once more at its end, so a freed block
    does not stay resident under the next.  ``solve-rovib`` peaks at 82 MB
    resident at n = 1200 and 215 MB at n = 2400, against 103 and 218 MB
    with the freed blocks kept and both eigenvector sets alive through the
    coupling eigh.  At n = 2400 every block exceeds glibc's 32 MB mmap
    threshold and goes back to the OS when freed, so the trim finds little,
    and the peak is the b channel's eigh beside A's eigenvectors, 4n^2.
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
        partial(dvr_kinetic, grid, mass_amu), [v + j * (j + 1) * cent for v in potentials],
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
    _trim()
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


def radial_matrix_element(bra: RovibLevels, f, ket: RovibLevels,
                          pairs: dict[tuple[int, int], object] | None = None) -> np.ndarray:
    """<bra| f(R) |ket> on the common grid: a (len(bra), len(ket)) array,
    one row per bra level (built a bra at a time).

    With ``pairs`` omitted, ``f`` is applied on matching channels
    (requires equal channel counts).  Otherwise ``pairs`` maps
    (bra_channel, ket_channel) to the function weighting that block,
    which is how a transition dipole connecting only one channel pair
    is expressed.
    """
    if bra.grid != ket.grid:
        raise GridError("bra and ket live on different grids")
    r = bra.grid.points
    dr = bra.grid.dr
    if pairs is None:
        if len(bra.channel_labels) != len(ket.channel_labels):
            raise ValueError("channel counts differ; pass explicit pairs")
        pairs = {(c, c): f for c in range(len(bra.channel_labels))}
    acc = np.zeros((len(bra), len(ket)))
    for (cb, ck), fn in pairs.items():
        fr = np.asarray(fn(r), dtype=float)
        for row, psi in zip(acc, bra.wavefunctions[:, cb]):
            row += np.sum(psi * fr * ket.wavefunctions[:, ck], axis=-1) * dr
    return acc


def linewidth(levels: RovibLevels,
              decay_targets: list[tuple[PotentialCurve, DipoleFunction]]) -> np.ndarray:
    """Radiative linewidths gamma_f (atomic units) of a table's levels, (L,).

    Averages the R-local spontaneous rate over each level's density:

        Gamma(R) = |dE(R)|^3 d(R)^2 / (3 pi eps0 hbar^4 c^3)

    written in atomic units as (4/3) |dE|^3 d^2 / c^3, where dE(R) is
    the difference between the emitting channel's potential (including
    the model shift) and the target curve.  Channels without a dipole
    path to any target contribute nothing.
    """
    r = levels.grid.points
    dr = levels.grid.dr
    gamma = np.zeros(len(levels))
    density = np.empty((len(levels), levels.grid.n))  # one channel's psi^2 at a time
    for target_curve, dip in decay_targets:
        v_t = np.asarray(target_curve(r), dtype=float)
        below = levels.energies < float(np.min(v_t))
        if below.any():
            raise ValueError(
                f"level at {levels.energies[below][0]:.6e} Eh lies below the minimum of "
                f"decay target {target_curve.label!r}"
            )
        for c, ch_label in enumerate(levels.channel_labels):
            if not dip.connects(ch_label, target_curve.label):
                continue
            v_c = np.asarray(levels.potentials[c](r), dtype=float) + levels.shift
            de = v_c - v_t
            rate_r = (4.0 / 3.0) * np.abs(de) ** 3 * dip(r) ** 2 / C_AU ** 3
            np.square(levels.wavefunctions[:, c], out=density)
            density *= rate_r
            gamma += np.sum(density, axis=-1) * dr
    return gamma
