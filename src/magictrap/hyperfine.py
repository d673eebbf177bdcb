"""Rotational-hyperfine structure of the vibronic ground state.

The model space is the product of the lowest rotational levels with the
two nuclear spin manifolds, |J, M, m_a, m_b>.  The effective
Hamiltonian collects five switchable terms:

* rotation                 B_v J(J+1)
* nuclear quadrupole       sum_k (eqQ)_k [C2 . T2(i_k)] / (i_k(2i_k - 1))
* nuclear Zeeman           -sum_k g_k mu_N B m_k          (B defines z)
* dc Stark                 -d0 E . C1
* laser polarization       -[ (a_par + 2 a_perp)/3
                              + sqrt(6)/3 (a_par - a_perp) T2(e,e) . C2 ] I

All directions (static E field, linear laser polarization) are given as
polar angles against the magnetic-field axis and lie in the x-z plane,
so every operator is a real symmetric matrix.  Energies are in MHz.
``theta_p`` may be a 1-D array, a scan axis: the theta_p-independent
terms are built once and every function then carries a leading angle
axis, ``(..., dim, dim)``, so a whole scan is one batched ``eigh``.

Shielding, rotational Zeeman, centrifugal distortion, spin-rotation and
spin-spin terms are deliberately left out; they are far below the MHz
scales treated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import constants as _sc
from scipy.optimize import linear_sum_assignment

from .angular import rot_tensor_element
from .errors import ConfigError
from .units import NUCLEAR_MAGNETON_MHZ_PER_G

__all__ = [
    "TERMS",
    "QUADRUPOLE_DENOMINATORS",
    "MolecularConstants",
    "FieldConfiguration",
    "HyperfineBasis",
    "EigenSolution",
    "build_basis",
    "build_hamiltonian",
    "polarization_operator",
    "diagonalize",
    "eigenstate_polarizability",
    "track_states",
]

TERMS = frozenset({"rotation", "quadrupole", "zeeman", "stark", "polarization"})
QUADRUPOLE_DENOMINATORS = ("standard", "literal")

# MHz per (debye * V/m)
_DEBYE_V_M_TO_MHZ = 1e-21 / _sc.c / _sc.h / 1e6


@dataclass(frozen=True)
class MolecularConstants:
    """Ground-state coupling constants, all of them required.

    ``b_v`` in MHz, ``eqq_a``/``eqq_b`` in MHz, ``d0`` in debye,
    ``alpha_par``/``alpha_perp`` in Hz/(W/cm^2) at the trap frequency.
    ``quadrupole_denominator`` selects i(2i-1) ("standard") or the
    i(i-1) variant ("literal") in the quadrupole prefactor.  ``i_a``
    and ``i_b`` are the nuclear spins that size the spin basis.
    """

    b_v: float
    eqq_a: float
    eqq_b: float
    g_a: float
    g_b: float
    d0: float
    alpha_par: float
    alpha_perp: float
    quadrupole_denominator: str
    i_a: float
    i_b: float

    def __post_init__(self):
        if self.quadrupole_denominator not in QUADRUPOLE_DENOMINATORS:
            raise ConfigError(
                f"quadrupole_denominator must be one of {QUADRUPOLE_DENOMINATORS}, "
                f"got {self.quadrupole_denominator!r}"
            )


@dataclass(frozen=True)
class FieldConfiguration:
    """External fields and the trap light.

    ``b_field`` in G along z; ``e_field`` in kV/cm at polar angle
    ``theta_e``; linear polarization at polar angle ``theta_p``, a
    scalar or a 1-D array (a scan axis); ``intensity`` in W/cm^2.
    Angles are radians in the x-z plane.
    """

    constants: MolecularConstants
    b_field: float = 0.0
    e_field: float = 0.0
    theta_e: float = 0.0
    theta_p: float = 0.0
    intensity: float = 0.0

    def __post_init__(self):
        if self.b_field < 0.0 or self.e_field < 0.0:
            raise ValueError("field magnitudes must be >= 0")
        if self.intensity < 0.0:
            raise ValueError("intensity must be >= 0")


@dataclass(frozen=True)
class HyperfineBasis:
    """Ordered product basis |J, M, m_a, m_b>."""

    j_max: int
    i_a: float
    i_b: float
    states: tuple[tuple[int, int, float, float], ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def rot_states(self) -> tuple[tuple[int, int], ...]:
        return _rot_states(self.j_max)


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Sorted eigensystem with dominant-character labels.

    ``energies`` in MHz ascending; ``vectors[:, i]`` belongs to
    ``energies[i]``; ``labels[i]`` is the (J, M) block carrying the
    largest weight; ``polarizabilities`` in Hz/(W/cm^2) when attached.
    A solution over a theta_p axis stacks these along a leading axis
    (``labels`` as one tuple per angle); ``sol[k]`` is the k-th angle.
    """

    basis: HyperfineBasis
    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple
    polarizabilities: np.ndarray | None = None

    def __getitem__(self, k: int) -> "EigenSolution":
        alphas = self.polarizabilities
        return EigenSolution(self.basis, self.energies[k], self.vectors[k], self.labels[k],
                             None if alphas is None else alphas[k])

    def select(self, label: tuple[int, int]) -> list[int]:
        """Indices of all eigenstates with the given (J, M) character."""
        return [i for i, lab in enumerate(self.labels) if lab == label]


def build_basis(j_max: int, constants: MolecularConstants) -> HyperfineBasis:
    """Lexicographic basis in (J, M, m_a, m_b), all quantum numbers ascending.

    The nuclear spins that size it are those of ``constants``.
    """
    if j_max not in (0, 1, 2):
        raise ValueError(f"j_max must be 0, 1 or 2, got {j_max}")
    i_a, i_b = constants.i_a, constants.i_b
    for i in (i_a, i_b):
        two_i = round(2 * i)
        if two_i <= 0 or abs(2 * i - two_i) > 1e-9:
            raise ValueError(f"nuclear spin must be a positive half-integer, got {i}")
    states = tuple(
        (j, m, ma, mb)
        for j, m in _rot_states(j_max)
        for ma in _spin_projections(i_a)
        for mb in _spin_projections(i_b)
    )
    return HyperfineBasis(j_max=j_max, i_a=i_a, i_b=i_b, states=states)


def _rot_states(j_max: int) -> tuple[tuple[int, int], ...]:
    return tuple((j, m) for j in range(j_max + 1) for m in range(-j, j + 1))


def _spin_dim(i: float) -> int:
    return round(2 * i) + 1


def _spin_projections(i: float) -> list[float]:
    return [-i + k for k in range(_spin_dim(i))]


def _spin_z(i: float) -> np.ndarray:
    return np.diag(_spin_projections(i))


def _spin_raise(i: float) -> np.ndarray:
    m = np.array(_spin_projections(i)[:-1])
    return np.diag(np.sqrt(i * (i + 1) - m * (m + 1)), -1)


def _spin_t2(i: float) -> dict[int, np.ndarray]:
    """Rank-2 spin tensor T2q(i, i) in the ascending-m basis."""
    iz = _spin_z(i)
    ip = _spin_raise(i)
    im = ip.T
    t = {
        0: (3.0 * iz @ iz - i * (i + 1) * np.eye(_spin_dim(i))) / math.sqrt(6.0),
        +1: -(iz @ ip + ip @ iz) / 2.0,
        -1: +(iz @ im + im @ iz) / 2.0,
        +2: ip @ ip / 2.0,
        -2: im @ im / 2.0,
    }
    return t


@lru_cache(maxsize=None)
def _rot_tensors(j_max: int) -> dict[tuple[int, int], np.ndarray]:
    """Read-only C_kq matrices, k = 1 and 2, over the rotational states."""
    rot = _rot_states(j_max)
    table = {}
    for k in (1, 2):
        for q in range(-k, k + 1):
            table[k, q] = np.array([[rot_tensor_element(jp, mp, k, q, j, m)
                                     if mp == m + q else 0.0 for j, m in rot]
                                    for jp, mp in rot])
            table[k, q].flags.writeable = False
    return table


def _h_rotation(basis: HyperfineBasis, c: MolecularConstants) -> np.ndarray:
    return np.diag([c.b_v * j * (j + 1) for (j, m, ma, mb) in basis.states])


def _h_quadrupole(basis: HyperfineBasis, c: MolecularConstants) -> np.ndarray:
    ckq = _rot_tensors(basis.j_max)
    eye_a = np.eye(_spin_dim(basis.i_a))
    eye_b = np.eye(_spin_dim(basis.i_b))
    h = np.zeros((basis.dim, basis.dim))
    for i_spin, eqq, slot in ((basis.i_a, c.eqq_a, 0), (basis.i_b, c.eqq_b, 1)):
        if c.quadrupole_denominator == "standard":
            denom = i_spin * (2.0 * i_spin - 1.0)
        else:
            denom = i_spin * (i_spin - 1.0)
        if denom == 0.0:
            if eqq == 0.0:
                continue
            raise ConfigError(
                f"quadrupole prefactor vanishes for spin {i_spin} "
                f"({c.quadrupole_denominator} denominator)"
            )
        t2 = _spin_t2(i_spin)
        for q in range(-2, 3):
            spin_a = t2[-q] if slot == 0 else eye_a
            spin_b = t2[-q] if slot == 1 else eye_b
            h += (-1) ** q * (eqq / denom) * np.kron(ckq[2, q], np.kron(spin_a, spin_b))
    return h


def _h_zeeman(basis: HyperfineBasis, c: MolecularConstants, b_field: float) -> np.ndarray:
    shift = [
        -(c.g_a * ma + c.g_b * mb) * NUCLEAR_MAGNETON_MHZ_PER_G * b_field
        for (j, m, ma, mb) in basis.states
    ]
    return np.diag(shift)


def _h_stark(basis: HyperfineBasis, c: MolecularConstants, e_field: float,
             theta_e: float) -> np.ndarray:
    ckq = _rot_tensors(basis.j_max)
    # e . C1 for a field in the x-z plane at polar angle theta_e
    direction = (
        math.cos(theta_e) * ckq[1, 0]
        + (math.sin(theta_e) / math.sqrt(2.0)) * (ckq[1, -1] - ckq[1, +1])
    )
    scale = c.d0 * e_field * 1e5 * _DEBYE_V_M_TO_MHZ
    return -scale * np.kron(direction, np.eye(basis.dim // len(basis.rot_states)))


def polarization_operator(basis: HyperfineBasis, c: MolecularConstants,
                          theta_p: float | np.ndarray) -> np.ndarray:
    """Light-shift operator per unit intensity, in Hz/(W/cm^2).

    The polarization term of the Hamiltonian is -I times this matrix.
    Its expectation value in an eigenstate is the state's dynamic
    polarizability, which is how the Hellmann-Feynman extraction works.
    An array ``theta_p`` gives one matrix per angle, ``(..., dim, dim)``.
    """
    ckq = _rot_tensors(basis.j_max)
    theta = np.asarray(theta_p, dtype=float)[..., None, None]
    cth, sth = np.cos(theta), np.sin(theta)
    # sqrt(6)/3 * sum_q (-1)^q T2q(e,e) C2,-q, all components real
    aniso = (math.sqrt(6.0) / 3.0) * (
        (3.0 * cth * cth - 1.0) / math.sqrt(6.0) * ckq[2, 0]
        + sth * cth * (ckq[2, -1] - ckq[2, +1])
        + 0.5 * sth * sth * (ckq[2, -2] + ckq[2, +2])
    )
    iso = (c.alpha_par + 2.0 * c.alpha_perp) / 3.0
    delta = c.alpha_par - c.alpha_perp
    op = iso * np.eye(len(basis.rot_states)) + delta * aniso
    return np.kron(op, np.eye(basis.dim // len(basis.rot_states)))


def build_hamiltonian(basis: HyperfineBasis, fields: FieldConfiguration,
                      terms: frozenset[str] | set[str] = TERMS) -> np.ndarray:
    """Assemble the selected terms; result is real symmetric, in MHz.

    The basis must be built for the constants' nuclear spins.  An array
    ``fields.theta_p`` gives one matrix per angle, ``(..., dim, dim)``.
    """
    unknown = set(terms) - TERMS
    if unknown:
        raise ValueError(f"unknown terms {sorted(unknown)}; valid: {sorted(TERMS)}")
    c = fields.constants
    if (basis.i_a, basis.i_b) != (c.i_a, c.i_b):
        raise ValueError(
            f"basis spins ({basis.i_a}, {basis.i_b}) differ from the "
            f"constants' nuclear spins ({c.i_a}, {c.i_b})"
        )
    # the cache key leaves theta_p out: it may be an (unhashable) array
    h = _fixed_terms(basis, replace(fields, theta_p=0.0), frozenset(terms))
    if "polarization" in terms:
        return h + -fields.intensity * 1e-6 * polarization_operator(basis, c, fields.theta_p)
    return np.broadcast_to(h, np.shape(fields.theta_p) + h.shape).copy()


@lru_cache(maxsize=8)
def _fixed_terms(basis: HyperfineBasis, fields: FieldConfiguration,
                 terms: frozenset[str]) -> np.ndarray:
    """The theta_p-independent terms, read-only; a search reuses them per step."""
    c = fields.constants
    h = np.zeros((basis.dim, basis.dim))
    if "rotation" in terms:
        h += _h_rotation(basis, c)
    if "quadrupole" in terms:
        h += _h_quadrupole(basis, c)
    if "zeeman" in terms:
        h += _h_zeeman(basis, c, fields.b_field)
    if "stark" in terms:
        h += _h_stark(basis, c, fields.e_field, fields.theta_e)
    h.flags.writeable = False
    return h


def diagonalize(h: np.ndarray, basis: HyperfineBasis) -> EigenSolution:
    """Eigensystem with a deterministic phase convention.

    The largest-magnitude component of each eigenvector is made
    positive.  A stack ``(..., dim, dim)`` is solved in one call.  Raises
    ValueError when a matrix is not symmetric within 1e-10 relative.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (basis.dim, basis.dim):
        raise ValueError(f"matrix shape {h.shape} does not match basis dim {basis.dim}")
    scale = np.maximum(1.0, np.max(np.abs(h), axis=(-2, -1)))
    if np.any(np.max(np.abs(h - np.swapaxes(h, -2, -1)), axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError("Hamiltonian is not symmetric within 1e-10 relative")
    energies, vectors = np.linalg.eigh(h)
    pivot = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    vectors *= np.where(np.take_along_axis(vectors, pivot, axis=-2) < 0.0, -1.0, 1.0)
    # |amplitude|^2 summed over the spins of each (J, M) block, per vector
    rot = basis.rot_states
    blocks = np.ascontiguousarray(np.swapaxes(vectors, -2, -1)).reshape(
        vectors.shape[:-1] + (len(rot), -1))
    dominant = np.argmax(np.sum(blocks ** 2, axis=-1), axis=-1)
    # one (J, M) tuple per vector, and one tuple of those per angle of a stack
    labels = tuple(map(tuple, np.fromiter(rot, dtype=object)[dominant]))
    return EigenSolution(basis=basis, energies=energies, vectors=vectors, labels=labels)


def eigenstate_polarizability(sol: EigenSolution, fields: FieldConfiguration
                              ) -> EigenSolution:
    """Attach per-eigenstate polarizabilities in Hz/(W/cm^2).

    Hellmann-Feynman: the polarization term is linear in intensity, so
    alpha_i = <psi_i| (-dH_pol/dI) |psi_i> at any operating intensity.
    ``fields.theta_p`` must match the angle axis ``sol`` was solved on.
    """
    op = polarization_operator(sol.basis, fields.constants, fields.theta_p)
    alphas = np.einsum("...ij,...ik,...kj->...j", sol.vectors, op, sol.vectors)
    return replace(sol, polarizabilities=alphas)


def track_states(a: EigenSolution, b: EigenSolution) -> np.ndarray:
    """Maximal-overlap matching between two eigensolutions.

    Returns ``perm`` with ``perm[i]`` the index in ``b`` continuing
    state ``i`` of ``a``; each target is used once, and the summed
    |overlap| is the largest any one-to-one matching reaches.
    """
    if a.basis.dim != b.basis.dim:
        raise ValueError("eigensolutions live in different bases")
    return linear_sum_assignment(np.abs(a.vectors.T @ b.vectors), maximize=True)[1]
