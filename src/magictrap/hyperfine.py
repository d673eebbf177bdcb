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

The field-free operators (the C_kq table, each nucleus's quadrupole
tensor, J(J+1) per rotational state, m_a and m_b per basis state) are
carried by the basis, built once per (j_max, spins);
``build_hamiltonian`` scales them by the constants and fields.
Rotation, dc Stark and light are op_rot (x) 1_spin: each is built as
its (n_rot, n_rot) block (4 x 4 at j_max = 1) and added onto the spin
diagonal, and the Hellmann-Feynman polarizability of eigenvector V is
a trace over spins, alpha_j = sum_s sum_{r,r'} V[r,s,j] op_rot[r,r'] V[r',s,j].
``polarization_operator`` is the dense (dim, dim) form.

All directions (static E field, linear laser polarization) are given as
polar angles against the magnetic-field axis and lie in the x-z plane,
so every operator is a real symmetric matrix.  Energies are in MHz.
``theta_p`` may be a 1-D array, a scan axis: the theta_p-independent
terms are built once and every function then carries a leading angle
axis, ``(..., dim, dim)``, so a whole scan is one batched ``eigh``.
A magic-angle search, one angle per Newton step, likewise builds those
terms once and adds only the light per step (``_angle_solver``); its
step shares the checks, ``eigh`` and the dominant (J, M) index with
``diagonalize`` (``_eigensolve``) and skips only the phase.  From the
step's eigenpairs it also gives d(alpha)/d(theta_p) of a state.

Shielding, rotational Zeeman, centrifugal distortion, spin-rotation and
spin-spin terms are deliberately left out; they are far below the MHz
scales treated here.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .angular import rot_tensor_element
from .errors import ConfigError
from .units import _C, _H, NUCLEAR_MAGNETON_MHZ_PER_G

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
_DEBYE_V_M_TO_MHZ = 1e-21 / _C / _H / 1e6


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
    """Ordered product basis |J, M, m_a, m_b> and its field-free operators.

    Only (j_max, i_a, i_b, states) take part in equality and hashing; the
    rest follows from them and is read-only: ``rot_states``, the (J, M)
    per rotational block; ``ckq``, C_kq for k = 1, 2 keyed (k, q);
    ``quadrupole``, sum_q (-1)^q C2q (x) T2,-q(i_k) per nucleus; ``jj1``,
    J(J+1) per rotational state; ``m_a`` and ``m_b`` per basis state.
    """

    j_max: int
    i_a: float
    i_b: float
    states: tuple[tuple[int, int, float, float], ...]
    rot_states: tuple[tuple[int, int], ...] = field(compare=False, repr=False)
    ckq: Mapping[tuple[int, int], np.ndarray] = field(compare=False, repr=False)
    quadrupole: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)
    jj1: np.ndarray = field(compare=False, repr=False)
    m_a: np.ndarray = field(compare=False, repr=False)
    m_b: np.ndarray = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Sorted eigensystem with the dominant character of each state.

    ``energies`` in MHz ascending; ``vectors[:, i]`` belongs to
    ``energies[i]``; ``labels[i]`` is the (J, M) block carrying the
    largest weight and ``dominant[i]`` its index in ``basis.rot_states``;
    ``polarizabilities`` in Hz/(W/cm^2) when attached.
    A solution over a theta_p axis stacks these along a leading axis
    (``labels`` as one tuple per angle); ``sol[k]`` is the k-th angle.
    """

    basis: HyperfineBasis
    energies: np.ndarray
    vectors: np.ndarray
    dominant: np.ndarray
    polarizabilities: np.ndarray | None = None

    def __getitem__(self, k: int) -> "EigenSolution":
        if self.energies.ndim < 2:
            raise ValueError(f"a solution with energies of shape {self.energies.shape} "
                             "has no angle axis to index")
        alphas = self.polarizabilities
        return EigenSolution(self.basis, self.energies[k], self.vectors[k], self.dominant[k],
                             None if alphas is None else alphas[k])

    @property
    def labels(self) -> tuple:
        """The (J, M) of each ``dominant`` index, one tuple per angle of a stack."""
        if self.dominant.ndim > 1:
            return tuple([self[k].labels for k in range(len(self.dominant))])
        return tuple([self.basis.rot_states[i] for i in self.dominant.tolist()])

    def select(self, label: tuple[int, int]) -> list[int]:
        """Indices of all eigenstates with the given (J, M) character."""
        if self.energies.ndim != 1:
            raise ValueError(f"select needs the solution at one angle, energies of shape "
                             f"({self.basis.dim},); got {self.energies.shape}: take sol[k]")
        return np.flatnonzero(self.dominant == _rot_index(self.basis, label)).tolist()


def build_basis(j_max: int, constants: MolecularConstants) -> HyperfineBasis:
    """Lexicographic basis in (J, M, m_a, m_b), all quantum numbers ascending.

    The nuclear spins that size it are those of ``constants``.  Every
    call with the same j_max and spins returns the same basis object.
    """
    if j_max not in (0, 1, 2):
        raise ValueError(f"j_max must be 0, 1 or 2, got {j_max}")
    i_a, i_b = constants.i_a, constants.i_b
    for i in (i_a, i_b):
        two_i = round(2 * i)
        if two_i <= 0 or abs(2 * i - two_i) > 1e-9:
            raise ValueError(f"nuclear spin must be a positive half-integer, got {i}")
    return _basis(j_max, i_a, i_b)


@lru_cache(maxsize=None)
def _basis(j_max: int, i_a: float, i_b: float) -> HyperfineBasis:
    """The basis of :func:`build_basis`, built once per process.

    Keyed on (j_max, i_a, i_b), all it reads of the constants; it holds
    the states and 66 KiB of read-only operators at j_max = 1.  A hit
    saves each eigen ``magic-find`` (~5.6 ms warm) or ``hyperfine-scan``
    call a 2.5 ms rebuild on a 2-core host: the C_kq table with its 3-j
    symbols 1.4 ms, the operators 0.75 ms, the states 46 us.
    """
    rot_states = tuple((j, m) for j in range(j_max + 1) for m in range(-j, j + 1))
    states = tuple((j, m, ma, mb) for j, m in rot_states
                   for ma in _spin_projections(i_a) for mb in _spin_projections(i_b))
    ckq = {(k, q): np.array([[rot_tensor_element(jp, mp, k, q, j, m)
                              if mp == m + q else 0.0 for j, m in rot_states]
                             for jp, mp in rot_states])
           for k in (1, 2) for q in range(-k, k + 1)}
    t2_a, t2_b = _spin_t2(i_a), _spin_t2(i_b)
    eye_a, eye_b = np.eye(_spin_dim(i_a)), np.eye(_spin_dim(i_b))
    # term q changes M by q, so the terms never overlap and their sum is exact
    quadrupole = (
        sum((-1) ** q * np.kron(ckq[2, q], np.kron(t2_a[-q], eye_b)) for q in range(-2, 3)),
        sum((-1) ** q * np.kron(ckq[2, q], np.kron(eye_a, t2_b[-q])) for q in range(-2, 3)),
    )
    jj1 = np.array([j * (j + 1.0) for j, m in rot_states])
    _, _, m_a, m_b = map(np.array, zip(*states))
    for op in (*ckq.values(), *quadrupole, jj1, m_a, m_b):
        op.flags.writeable = False
    return HyperfineBasis(j_max=j_max, i_a=i_a, i_b=i_b, states=states,
                          rot_states=rot_states, ckq=MappingProxyType(ckq),
                          quadrupole=quadrupole, jj1=jj1, m_a=m_a, m_b=m_b)


def _rot_index(basis: HyperfineBasis, label: tuple[int, int]) -> int:
    """The index of the (J, M) ``label`` in ``basis.rot_states``; -1 outside the basis."""
    rot = basis.rot_states
    return rot.index(label) if label in rot else -1


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


def _spin_diagonal(h: np.ndarray, n_rot: int) -> np.ndarray:
    """Writeable view of the spin diagonal of each rotational block of ``h``:
    element [..., r, r', s] is h[..., (r, s), (r', s)]."""
    n_spin = h.shape[-1] // n_rot
    blocks = h.reshape(h.shape[:-2] + (n_rot, n_spin, n_rot, n_spin))
    return np.einsum("...rsts->...rts", blocks)


def _add_rotational_block(h: np.ndarray, block: np.ndarray) -> None:
    """Add block (x) 1_spin to ``h`` in place; ``block`` is (..., n_rot, n_rot)."""
    spin_diagonal = _spin_diagonal(h, block.shape[-1])
    spin_diagonal += block[..., None]


def _light_operands(basis: HyperfineBasis, c: MolecularConstants) -> tuple:
    """The theta_p-independent operands of the light block: the isotropic
    part iso * 1, delta = alpha_par - alpha_perp, C20, C2,-1 - C2,+1 and
    C2,-2 + C2,+2."""
    ckq = basis.ckq
    iso = (c.alpha_par + 2.0 * c.alpha_perp) / 3.0
    return (iso * np.eye(len(basis.rot_states)), c.alpha_par - c.alpha_perp,
            ckq[2, 0], ckq[2, -1] - ckq[2, +1], ckq[2, -2] + ckq[2, +2])


def _light_block(operands: tuple, cth, sth) -> np.ndarray:
    """op_rot of the light shift from ``_light_operands`` and cos, sin of
    theta_p: floats, or arrays shaped (..., 1, 1) for (..., n_rot, n_rot)."""
    iso, delta, c20, c21, c22 = operands
    # sqrt(6)/3 * sum_q (-1)^q T2q(e,e) C2,-q, all components real
    aniso = (math.sqrt(6.0) / 3.0) * (
        (3.0 * cth * cth - 1.0) / math.sqrt(6.0) * c20
        + sth * cth * c21
        + 0.5 * sth * sth * c22
    )
    return iso + delta * aniso


def _light_block_slope(operands: tuple, cth: float, sth: float) -> np.ndarray:
    """d/d(theta_p) of ``_light_block`` per radian, at cos and sin of theta_p."""
    _, delta, c20, c21, c22 = operands
    return delta * (math.sqrt(6.0) / 3.0) * (
        -6.0 * sth * cth / math.sqrt(6.0) * c20
        + (cth * cth - sth * sth) * c21
        + sth * cth * c22
    )


def _light_shift(basis: HyperfineBasis, c: MolecularConstants,
                 theta_p: float | np.ndarray) -> np.ndarray:
    """The rotational block op_rot of the light-shift operator, ``(..., n_rot, n_rot)``."""
    theta = np.asarray(theta_p, dtype=float)[..., None, None]
    return _light_block(_light_operands(basis, c), np.cos(theta), np.sin(theta))


def polarization_operator(basis: HyperfineBasis, c: MolecularConstants,
                          theta_p: float | np.ndarray) -> np.ndarray:
    """Light-shift operator per unit intensity, in Hz/(W/cm^2).

    The polarization term of the Hamiltonian is -I times this matrix.
    Its expectation value in an eigenstate is the state's dynamic
    polarizability, which is how the Hellmann-Feynman extraction works.
    An array ``theta_p`` gives one matrix per angle, ``(..., dim, dim)``.
    The light acts on rotation alone, so the matrix is op_rot (x) 1_spin.
    The library works on the op_rot block; this dense form is the
    reference the tests compare it with.
    """
    return np.kron(_light_shift(basis, c, theta_p),
                   np.eye(basis.dim // len(basis.rot_states)))


def build_hamiltonian(basis: HyperfineBasis, fields: FieldConfiguration,
                      terms: frozenset[str] | set[str] = TERMS) -> np.ndarray:
    """Assemble the selected terms; result is real symmetric, in MHz.

    The basis must be built for the constants' nuclear spins.  An array
    ``fields.theta_p`` gives one matrix per angle, ``(..., dim, dim)``.
    """
    h = _static_hamiltonian(basis, fields, terms)
    h = np.broadcast_to(h, np.shape(fields.theta_p) + h.shape).copy()
    if "polarization" in terms:
        op = _light_shift(basis, fields.constants, fields.theta_p)
        _add_rotational_block(h, -fields.intensity * 1e-6 * op)
    return h


def _static_hamiltonian(basis: HyperfineBasis, fields: FieldConfiguration,
                        terms: frozenset[str] | set[str]) -> np.ndarray:
    """The theta_p-independent terms of ``build_hamiltonian``, one (dim, dim) matrix."""
    unknown = set(terms) - TERMS
    if unknown:
        raise ValueError(f"unknown terms {sorted(unknown)}; valid: {sorted(TERMS)}")
    c = fields.constants
    if (basis.i_a, basis.i_b) != (c.i_a, c.i_b):
        raise ValueError(
            f"basis spins ({basis.i_a}, {basis.i_b}) differ from the "
            f"constants' nuclear spins ({c.i_a}, {c.i_b})"
        )
    h = np.zeros((basis.dim, basis.dim))
    if "rotation" in terms:
        _add_rotational_block(h, np.diag(c.b_v * basis.jj1))
    if "quadrupole" in terms:
        # the nuclei are summed first: rot + (q_a + q_b) is the rounding the goldens pin
        quad = np.zeros_like(h)
        for tensor, i_spin, eqq in zip(basis.quadrupole, (basis.i_a, basis.i_b),
                                       (c.eqq_a, c.eqq_b)):
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
            quad += (eqq / denom) * tensor
        h += quad
    if "zeeman" in terms:
        h += np.diag(-(c.g_a * basis.m_a + c.g_b * basis.m_b) * NUCLEAR_MAGNETON_MHZ_PER_G
                     * fields.b_field)
    if "stark" in terms:
        ckq = basis.ckq
        # e . C1 for a field in the x-z plane at polar angle theta_e
        direction = (
            math.cos(fields.theta_e) * ckq[1, 0]
            + (math.sin(fields.theta_e) / math.sqrt(2.0)) * (ckq[1, -1] - ckq[1, +1])
        )
        scale = c.d0 * fields.e_field * 1e5 * _DEBYE_V_M_TO_MHZ
        _add_rotational_block(h, -scale * direction)
    return h


def _angle_solver(basis: HyperfineBasis, fields: FieldConfiguration,
                  terms: frozenset[str] | set[str]):
    """The step of an eigen magic-angle search: at one scalar theta_p
    (radians) per call, the polarizabilities of
    ``eigenstate_polarizability(diagonalize(build_hamiltonian(...)))`` bit for
    bit, and each eigenvector's dominant (J, M) as an index into
    ``basis.rot_states``.

    The theta_p-independent terms and parts of the light block are built
    once; each call copies the terms into one work matrix and adds only
    the light.  The phase convention is skipped: alpha is a trace,
    bit-identical under v -> -v.

    ``solve.slope(i)`` is d(alpha_i)/d(theta_p) per radian of eigenstate i
    at the last call's angle, from that call's eigenpairs (Hellmann-Feynman
    and first-order perturbation of the vector, as in Nelson, AIAA J. 14,
    1201 (1976)).  With O = op_rot (x) 1, O' = dO/d(theta_p) and H = static + s O,
        d(alpha_i)/d(theta_p) = <i|O'|i> + 2 s sum_{j != i} O_ij O'_ji / (E_i - E_j),
    where s is 0 without the light term.  A degenerate partner E_j = E_i
    makes the slope inf or NaN, silently: the caller decides what to do.
    ``solve.vector(i)`` is eigenvector i of the last call, unphased.
    """
    static = _static_hamiltonian(basis, fields, terms)
    work = np.empty_like(static)
    n_rot = len(basis.rot_states)
    spin_diagonal = _spin_diagonal(work, n_rot)
    operands = _light_operands(basis, fields.constants)
    light = "polarization" in terms
    scale = -fields.intensity * 1e-6 if light else 0.0
    # theta_p as the (1, 1) array _light_shift takes np.cos and np.sin of:
    # for a 0-d argument they may round differently
    theta = np.empty((1, 1))
    last = {}

    def solve(theta_p: float) -> tuple[np.ndarray, np.ndarray]:
        theta[0, 0] = theta_p
        cth, sth = float(np.cos(theta)[0, 0]), float(np.sin(theta)[0, 0])
        op = _light_block(operands, cth, sth)
        np.copyto(work, static)
        if light:
            np.add(spin_diagonal, (scale * op)[..., None], out=spin_diagonal)
        energies, vectors, dominant = _eigensolve(work, basis)
        last.update(energies=energies, vectors=vectors, op=op, cth=cth, sth=sth)
        return _spin_trace(vectors, op), dominant

    def slope(i: int) -> float:
        vectors = last["vectors"]
        v = vectors[:, i].reshape(n_rot, -1)
        d_row = vectors.T @ (_light_block_slope(operands, last["cth"], last["sth"]) @ v).ravel()
        value = float(d_row[i])
        if scale:
            row = vectors.T @ (last["op"] @ v).ravel()
            gaps = last["energies"][i] - last["energies"]
            gaps[i] = math.inf
            with np.errstate(divide="ignore", invalid="ignore"):
                value += 2.0 * scale * float((row * d_row / gaps).sum())
        return value

    solve.slope = slope
    solve.vector = lambda i: last["vectors"][:, i]
    return solve


def _eigensolve(h: np.ndarray, basis: HyperfineBasis
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eigh`` of a checked matrix or stack ``(..., dim, dim)``, and each
    eigenvector's dominant (J, M) block as an index into ``basis.rot_states``.

    Raises ValueError when the shape does not match the basis, when a
    matrix has a non-finite entry or is not symmetric within 1e-10 relative.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (basis.dim, basis.dim):
        raise ValueError(f"matrix shape {h.shape} does not match basis dim {basis.dim}")
    scale = np.maximum(np.abs(h).max(axis=(-2, -1)), 1.0)
    # the largest |entry| is inf or NaN exactly when some entry is
    if not np.isfinite(scale).all():
        raise ValueError("Hamiltonian has a non-finite (inf or NaN) entry")
    asym = h - h.swapaxes(-2, -1)
    if (np.abs(asym, out=asym).max(axis=(-2, -1)) > 1e-10 * scale).any():
        raise ValueError("Hamiltonian is not symmetric within 1e-10 relative")
    del asym
    energies, vectors = np.linalg.eigh(h)
    # amplitude^2 with one contiguous row per vector (at most three stacks
    # live), summed over the spins of each (J, M) block
    weights = np.square(vectors.swapaxes(-2, -1), order="C")
    blocks = weights.reshape(vectors.shape[:-1] + (len(basis.rot_states), -1))
    return energies, vectors, blocks.sum(axis=-1).argmax(axis=-1)


def diagonalize(h: np.ndarray, basis: HyperfineBasis) -> EigenSolution:
    """Eigensystem with a deterministic phase convention.

    The largest-magnitude component of each eigenvector is made
    positive.  A stack ``(..., dim, dim)`` is solved in one call.  Raises
    ValueError when a matrix has a non-finite entry or is not symmetric
    within 1e-10 relative.
    """
    energies, vectors, dominant = _eigensolve(h, basis)
    # |amplitude| with one contiguous row per vector
    mags = np.ascontiguousarray(vectors.swapaxes(-2, -1))
    pivot = np.argmax(np.abs(mags, out=mags), axis=-1)[..., None, :]
    vectors *= np.where(np.take_along_axis(vectors, pivot, axis=-2) < 0.0, -1.0, 1.0)
    return EigenSolution(basis=basis, energies=energies, vectors=vectors, dominant=dominant)


def eigenstate_polarizability(sol: EigenSolution, fields: FieldConfiguration
                              ) -> EigenSolution:
    """Attach per-eigenstate polarizabilities in Hz/(W/cm^2).

    Hellmann-Feynman: the polarization term is linear in intensity, so
    alpha_i = <psi_i| (-dH_pol/dI) |psi_i> at any operating intensity.
    ``fields.theta_p`` must match the angle axis ``sol`` was solved on.
    """
    if np.shape(fields.theta_p) != sol.energies.shape[:-1]:
        raise ValueError(
            f"theta_p of shape {np.shape(fields.theta_p)} does not match the "
            f"angle axis {sol.energies.shape[:-1]} of the solution"
        )
    op = _light_shift(sol.basis, fields.constants, fields.theta_p)
    return replace(sol, polarizabilities=_spin_trace(sol.vectors, op))


def _spin_trace(vectors: np.ndarray, op: np.ndarray) -> np.ndarray:
    """alpha_j = sum_s sum_{r,r'} V[r,s,j] op[r,r'] V[r',s,j] per eigenvector j,
    for ``vectors`` (..., dim, dim) and op_rot ``op`` (..., n_rot, n_rot)."""
    # V as (..., r, (s, j)): sum over r and r' per spin, then over the spins
    v = vectors.reshape(vectors.shape[:-2] + (op.shape[-1], -1))
    per_spin = (v * (op @ v)).sum(axis=-2)
    return per_spin.reshape(vectors.shape[:-2] + (-1, vectors.shape[-1])).sum(axis=-2)


def track_states(a: EigenSolution, b: EigenSolution) -> np.ndarray:
    """Maximal-overlap matching between two eigensolutions.

    Returns ``perm`` with ``perm[i]`` the index in ``b`` continuing
    state ``i`` of ``a``; each target is used once, and the summed
    |overlap| is the largest any one-to-one matching reaches.
    """
    if a.basis.dim != b.basis.dim:
        raise ValueError("eigensolutions live in different bases")
    if a.energies.ndim != 1 or b.energies.ndim != 1:
        raise ValueError(f"track_states needs two solutions at one angle; got energies of "
                         f"shapes {a.energies.shape} and {b.energies.shape}: take sol[k]")
    overlap = np.abs(a.vectors.T @ b.vectors)
    # no matching sums more than the row maxima; where each row's maximum
    # is strict and the argmaxes form a permutation, it is the only match
    # that reaches that sum
    best = overlap.argmax(axis=1)
    top = overlap[np.arange(len(best)), best]
    if (np.count_nonzero(overlap == top[:, None]) == len(best)
            and np.bincount(best, minlength=len(best)).max() == 1):
        return best
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment(overlap, maximize=True)[1]
