"""Radial bound-state solver on a sinc (sine) DVR grid.

The grid covers a hard-wall interval [r_min, r_max] with n interior
points R_i = r_min + i dr, dr = (r_max - r_min)/(n + 1).  The kinetic
matrix is the closed-form particle-in-a-box DVR expression; its leading
diagonal term is hbar^2 pi^2 / (6 mu dr^2) with the standard interval
adjustments, and off-diagonal entries fall off as (-1)^(i-j)/(i-j)^2
with the corresponding interval correction.  Single curves and
two-channel spin-orbit coupled pairs share the same machinery.

J enters the Hamiltonian only through the diagonal centrifugal term
J(J+1) C with C = 1/(2 mu R^2) on every channel.  A :class:`RovibBasis`
keeps the lowest eigenpairs of one dense solve at a reference J and C in
their span, and gives the levels at any J from that small matrix: the
diagonalization-truncation contraction (Bacic & Light, Annu. Rev. Phys.
Chem. 40, 469 (1989)) of the Colbert-Miller DVR (J. Chem. Phys. 96,
1982 (1992)).  :func:`solve_single` and :func:`solve_coupled` are its
one-J case, a dense solve at the J asked for with no contraction.

All quantities are in Hartree atomic units unless stated otherwise;
reduced masses cross the API boundary in atomic mass units.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .angular import _check_j
from .errors import GridError
from .potentials import CoupledModel, DipoleFunction, PotentialCurve
from .units import AMU_TO_ME, C_AU

__all__ = [
    "RadialGrid",
    "RovibLevel",
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

    @property
    def points(self) -> np.ndarray:
        return self.r_min + self.dr * np.arange(1, self.n + 1)

    @property
    def kinetic_cutoff_factor(self) -> float:
        """mu-independent part of the kinetic cutoff hbar^2 pi^2/(2 mu dr^2)."""
        return math.pi ** 2 / (2.0 * self.dr ** 2)


@dataclass(frozen=True, eq=False)
class RovibLevel:
    """One bound rovibrational level.

    ``wavefunction`` has shape (n_channels, n) and is normalized as
    sum over channels and grid points of psi^2 dr = 1, i.e. it stores
    amplitude densities psi(R_i), not bare DVR coefficients.
    """

    label: str
    v: int
    j: int
    energy: float
    grid: RadialGrid
    mu: float  # reduced mass, electron masses
    wavefunction: np.ndarray = field(repr=False)
    channel_labels: tuple[str, ...]
    channel_fractions: tuple[float, ...]
    potentials: tuple[PotentialCurve, ...] = field(repr=False)
    shift: float = 0.0
    near_threshold: bool = False

    def rotational_constant(self) -> float:
        """Vibrationally averaged <hbar^2 / (2 mu R^2)> in Hartree."""
        r = self.grid.points
        dens = np.sum(self.wavefunction ** 2, axis=0) * self.grid.dr
        return float(np.sum(dens / (2.0 * self.mu * r ** 2)))


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
    gives the unshifted levels plus the shift.
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

    @property
    def size(self) -> int:
        """K, the number of basis states kept."""
        return self.energies.size

    def with_shift(self, shift: float) -> "RovibBasis":
        return replace(self, shift=shift)

    def levels(self, j: int, max_levels: int | None = None) -> list[RovibLevel]:
        """Bound levels at rotational ``j``, ordered by energy, v = 0, 1, ..."""
        j = _check_j(j)
        top = self.threshold - BOUND_MARGIN
        factor = j * (j + 1) - self.j_ref * (self.j_ref + 1)
        if factor == 0:
            energies = self.energies
        else:
            energies, coeffs = np.linalg.eigh(
                np.diag(self.energies) + factor * self.centrifugal)
        bound = int(np.searchsorted(energies, top))
        if factor and bound == self.size < self.vectors.shape[0]:
            raise GridError(
                f"all {self.size} states of the {self.label} basis are bound "
                f"at J={j}; the contraction has no room above the threshold"
            )
        energies = energies[:bound][:max_levels]
        vectors = (self.vectors[:, :energies.size] if factor == 0
                   else self.vectors @ coeffs[:, :energies.size])
        near = self.threshold + self.shift - NEAR_THRESHOLD_WINDOW
        levels = []
        for v, energy in enumerate(energies + self.shift):
            channels = vectors[:, v].reshape(-1, self.grid.n)
            # deterministic overall sign: largest-amplitude point positive
            flat = channels.ravel()
            if flat[np.argmax(np.abs(flat))] < 0.0:
                channels = -channels
            levels.append(RovibLevel(
                label=self.label, v=v, j=j, energy=float(energy), grid=self.grid,
                mu=self.mu, wavefunction=channels / math.sqrt(self.grid.dr),
                channel_labels=self.channel_labels,
                channel_fractions=tuple(float(np.sum(ch ** 2)) for ch in channels),
                potentials=self.potentials, shift=self.shift,
                near_threshold=bool(energy > near),
            ))
        return levels


def _lowest_eigenpairs(h: np.ndarray, top: float):
    """Lowest eigenpairs of the symmetric ``h``, which is overwritten:
    :data:`BASIS_STATES_PER_BOUND` times as many as lie below ``top``,
    in ascending order.

    One Householder tridiagonalization H = Q T Q^T, every eigenpair of T
    by divide and conquer, and Q applied to the kept vectors only, so
    keeping states above ``top`` costs little more than the bound ones.
    """
    from scipy.linalg import eigh_tridiagonal, lapack

    dim = h.shape[0]
    lwork = int(lapack.dsytrd_lwork(dim, lower=1)[0])
    reflectors, diag, off, tau, info = lapack.dsytrd(h, lower=1, lwork=lwork,
                                                     overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dsytrd failed with info={info}")
    energies, z = eigh_tridiagonal(diag, off, lapack_driver="stevd")
    keep = min(dim, BASIS_STATES_PER_BOUND * int(np.searchsorted(energies, top)))
    vectors = np.array(z[:, :keep], order="F")  # a copy, so z can go
    del z
    # Q = diag(1, Q') with Q' the product of the reflectors stored
    # below the subdiagonal, laid out as a QR factor
    vectors[1:], _, info = lapack.dormqr(
        "L", "N", reflectors[1:, :-1], tau, vectors[1:], lwork=max(1, 64 * keep))
    if info:
        raise np.linalg.LinAlgError(f"dormqr failed with info={info}")
    return energies[:keep], vectors


def _dense_basis(model: PotentialCurve | CoupledModel, j: int, mass_amu: float,
                 grid: RadialGrid) -> RovibBasis:
    """One dense DVR solve of ``model`` without its shift at rotational ``j``.

    The Hamiltonian stacks the DVR kinetic block on each channel's
    diagonal, adds the channel potential plus the centrifugal term, and
    couples the two channels of a coupled model pointwise through xi(R).
    """
    j = _check_j(j)
    if isinstance(model, CoupledModel):
        label, labels, curves = "".join(model.labels), tuple(model.labels), tuple(model.curves)
        shift = model.shift
    else:
        label, labels, curves, shift = model.label, (model.label,), (model,), 0.0
    mu = mass_amu * AMU_TO_ME
    r, n = grid.points, grid.n
    potentials = [np.asarray(curve(r), dtype=float) for curve in curves]
    threshold = min(curve.asymptote for curve in curves)
    _check_grid(grid, mu, np.min(potentials, axis=0), threshold)

    cent = 1.0 / (2.0 * mu * r ** 2)
    t = dvr_kinetic(grid, mass_amu)
    # Fortran order lets the tridiagonalization overwrite h in place
    h = np.zeros((n * len(curves),) * 2, order="F")
    idx = np.arange(n)
    for c, v in enumerate(potentials):
        h[c * n:(c + 1) * n, c * n:(c + 1) * n] = t
        h[idx + c * n, idx + c * n] += v + j * (j + 1) * cent
    del t  # so it is not held beside h through the solve
    if isinstance(model, CoupledModel):
        xi = np.asarray(model.coupling(r), dtype=float)
        h[idx, idx + n] = xi
        h[idx + n, idx] = xi

    energies, vectors = _lowest_eigenpairs(h, threshold - BOUND_MARGIN)
    c_diag = np.tile(cent, len(curves))
    centrifugal = vectors.T @ (c_diag[:, None] * vectors)
    # read-only, as a basis may be shared by every later caller
    for array in (energies, vectors, centrifugal):
        array.setflags(write=False)
    return RovibBasis(
        label=label, j_ref=j, energies=energies, vectors=vectors,
        centrifugal=centrifugal, grid=grid, mu=mu,
        channel_labels=labels, potentials=curves, threshold=threshold, shift=shift,
    )


def rovib_basis(model: PotentialCurve | CoupledModel, j_ref: int, mass_amu: float,
                grid: RadialGrid) -> RovibBasis:
    """Contracted rovibrational basis of a curve or coupled model.

    One dense solve at ``j_ref`` keeps :data:`BASIS_STATES_PER_BOUND`
    states per bound level there (all states, if the grid has fewer);
    :meth:`RovibBasis.levels` then serves any J, and a coupled model's
    shift is carried as :attr:`RovibBasis.shift`.  Raises
    :class:`GridError` if no level is bound at ``j_ref``.
    """
    basis = _dense_basis(model, j_ref, mass_amu, grid)
    if not basis.size:
        raise GridError(f"no bound {basis.label} level at J={j_ref} on the grid "
                        "to build a basis from")
    logger.info("%s basis at J=%d: K=%d of %d states, %d bound",
                basis.label, j_ref, basis.size, basis.vectors.shape[0],
                int(np.searchsorted(basis.energies, basis.threshold - BOUND_MARGIN)))
    return basis


def solve_single(model: PotentialCurve | CoupledModel, j: int, mass_amu: float,
                 grid: RadialGrid, max_levels: int | None = None) -> list[RovibLevel]:
    """Bound levels of a curve or a coupled model at rotational j.

    Returns the levels below the lowest asymptote, ordered by energy and
    indexed v = 0, 1, ...  A coupled model's shift is added to every
    energy, and channel fractions are the norm shares of its components.
    A dense solve at this j alone; use :func:`rovib_basis` for several J.
    :func:`solve_coupled` is the same function.
    """
    return _dense_basis(model, j, mass_amu, grid).levels(j, max_levels)


solve_coupled = solve_single


def radial_matrix_element(bra: RovibLevel, f, ket: RovibLevel,
                          pairs: dict[tuple[int, int], object] | None = None) -> float:
    """<bra| f(R) |ket> on the common grid.

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
        if bra.wavefunction.shape[0] != ket.wavefunction.shape[0]:
            raise ValueError("channel counts differ; pass explicit pairs")
        pairs = {(c, c): f for c in range(bra.wavefunction.shape[0])}
    acc = 0.0
    for (cb, ck), fn in pairs.items():
        fr = np.asarray(fn(r), dtype=float)
        acc += float(np.sum(bra.wavefunction[cb] * fr * ket.wavefunction[ck])) * dr
    return acc


def linewidth(level_f: RovibLevel,
              decay_targets: list[tuple[PotentialCurve, DipoleFunction]]) -> float:
    """Radiative linewidth gamma_f of an excited level (atomic units).

    Averages the R-local spontaneous rate over the level's density:

        Gamma(R) = |dE(R)|^3 d(R)^2 / (3 pi eps0 hbar^4 c^3)

    written in atomic units as (4/3) |dE|^3 d^2 / c^3, where dE(R) is
    the difference between the emitting channel's potential (including
    the model shift) and the target curve.  Channels without a dipole
    path to any target contribute nothing.
    """
    r = level_f.grid.points
    dr = level_f.grid.dr
    gamma = 0.0
    for target_curve, dip in decay_targets:
        v_t = np.asarray(target_curve(r), dtype=float)
        if level_f.energy < float(np.min(v_t)):
            raise ValueError(
                f"level at {level_f.energy:.6e} Eh lies below the minimum of "
                f"decay target {target_curve.label!r}"
            )
        for c, ch_label in enumerate(level_f.channel_labels):
            if not dip.connects(ch_label, target_curve.label):
                continue
            v_c = np.asarray(level_f.potentials[c](r), dtype=float) + level_f.shift
            de = v_c - v_t
            rate_r = (4.0 / 3.0) * np.abs(de) ** 3 * dip(r) ** 2 / C_AU ** 3
            gamma += float(np.sum(level_f.wavefunction[c] ** 2 * rate_r)) * dr
    return gamma
