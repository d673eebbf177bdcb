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

All directions (static E field, linear laser polarization) are given as
polar angles against the magnetic-field axis and lie in the x-z plane,
so every operator is a real symmetric matrix.  Energies are in MHz.
``theta_p`` may be a 1-D array, a scan axis: the theta_p-independent
terms are built once and every function then carries a leading angle
axis, ``(..., dim, dim)``.  One pipeline, ``_angle_solver``, adds the
light at each call's angles to those terms and takes the eigenpairs and
dominant (J, M) of ``_eigensolve`` and alpha of ``_spin_trace``: a
magic-angle search calls it at one angle per Newton step, the CLI's
``hyperfine-scan`` once on its whole axis.  Neither fixes the
eigenvectors' signs: every output is a trace or an overlap magnitude.
From a one-angle call's kept eigenpairs it also gives d(alpha)/d(theta_p)
of the states the search names, when the search asks for it.

Shielding, rotational Zeeman, centrifugal distortion, spin-rotation and
spin-spin terms are deliberately left out; they are far below the MHz
scales treated here.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType

import numpy as np

from . import radial
from .angular import rot_tensor_element
from .errors import ConfigError
from .units import _C, _H, NUCLEAR_MAGNETON_MHZ_PER_G

__all__ = [
    "TERMS",
    "QUADRUPOLE_DENOMINATORS",
    "MolecularConstants",
    "FieldConfiguration",
    "HyperfineBasis",
    "build_basis",
    "build_hamiltonian",
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
    saves each eigen ``magic-find`` (~2.8 ms warm) or ``hyperfine-scan``
    call a 1.1 ms rebuild on a 2-core host: the C_kq table with its 3-j
    symbols 0.45 ms, the operators 0.5 ms, the states 18 us.
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


def build_hamiltonian(basis: HyperfineBasis, fields: FieldConfiguration,
                      terms: frozenset[str] | set[str] = TERMS) -> np.ndarray:
    """Assemble the selected terms; result is real symmetric, in MHz.

    The basis must be built for the constants' nuclear spins.  An array
    ``fields.theta_p`` gives one matrix per angle, ``(..., dim, dim)``.
    """
    static = _static_hamiltonian(basis, fields, terms)
    # filled, not np.broadcast_to(...).copy(): 4 against 24 us cold on a
    # 2-core x86 host, which each eigen search pays once
    h = np.empty(np.shape(fields.theta_p) + static.shape)
    h[...] = static
    if "polarization" in terms:
        theta = _angles(np.shape(fields.theta_p))
        theta.flat = fields.theta_p
        spin_diagonal = _spin_diagonal(h, len(basis.rot_states))
        _write_light(spin_diagonal, spin_diagonal, -fields.intensity * 1e-6,
                     _light_operands(basis, fields.constants), theta)
    return h


def _angles(shape: tuple) -> np.ndarray:
    """A buffer for angles of ``shape``, () or (k,), for ``_write_light``:
    (1, k, 1, 1), whose cos and sin broadcast against (n_rot, n_rot) blocks,
    or (1,), whose cos and sin are numpy floats (on (1, 1) arrays the light
    block's scalar arithmetic costs ~4 us more per search step).  np.cos and
    np.sin of a 0-d array may round differently."""
    return np.empty((1,) + shape + ((1, 1) if shape else ()))


def _write_light(spin_diagonal: np.ndarray, static: np.ndarray, scale: float | None,
                 operands: tuple, theta: np.ndarray) -> tuple:
    """op_rot (..., n_rot, n_rot) of the light at the ``_angles`` ``theta``,
    and cos, sin of theta; unless ``scale`` (MHz per Hz/(W/cm^2)) is None, it
    first writes ``static`` + scale op_rot (x) 1_spin onto ``spin_diagonal``."""
    cth, sth = np.cos(theta)[0], np.sin(theta)[0]
    op = _light_block(operands, cth, sth)
    if scale is not None:
        np.add(static, (scale * op)[..., None], out=spin_diagonal)
    return op, cth, sth


def _static_hamiltonian(basis: HyperfineBasis, fields: FieldConfiguration,
                        terms: frozenset[str] | set[str]) -> np.ndarray:
    """The theta_p-independent terms of ``build_hamiltonian``, one (dim, dim) matrix.

    Each entry is ((rot + (q_a + q_b)) + zeeman) + stark, added onto 0.0:
    the rounding the goldens pin.  The dc Stark term (C1) is nonzero only
    between J of odd difference and the rest only between J of even
    difference, so stark goes into one rotational block with the rotation
    and every entry keeps its bits.
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
    h = np.zeros((basis.dim, basis.dim))
    rotation, stark = "rotation" in terms, "stark" in terms
    if rotation or stark:
        n_rot = len(basis.rot_states)
        # an infinite constant or field times a zero entry is NaN, which
        # _eigensolve refuses as a non-finite Hamiltonian
        with np.errstate(invalid="ignore"):
            if stark:
                ckq = basis.ckq
                # -d0 E e . C1 for a field in the x-z plane at polar angle theta_e
                block = (-(c.d0 * fields.e_field * 1e5 * _DEBYE_V_M_TO_MHZ)) * (
                    math.cos(fields.theta_e) * ckq[1, 0]
                    + (math.sin(fields.theta_e) / math.sqrt(2.0)) * (ckq[1, -1] - ckq[1, +1])
                )
            else:
                block = np.zeros((n_rot, n_rot))
            if rotation:
                block.reshape(-1)[::n_rot + 1] += c.b_v * basis.jj1
            spin_diagonal = _spin_diagonal(h, n_rot)
            spin_diagonal += block[..., None]
    if "quadrupole" in terms:
        # the nuclei are summed first: rot + (q_a + q_b)
        quad = None
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
            term = (eqq / denom) * tensor
            quad = term if quad is None else np.add(quad, term, out=quad)
        if quad is not None:
            h += quad
    if "zeeman" in terms:
        # an overflow is an inf or NaN entry, which _eigensolve refuses
        with np.errstate(over="ignore", invalid="ignore"):
            h.reshape(-1)[::basis.dim + 1] += (-(c.g_a * basis.m_a + c.g_b * basis.m_b)
                                               * NUCLEAR_MAGNETON_MHZ_PER_G * fields.b_field)
    return h


def _angle_solver(basis: HyperfineBasis, fields: FieldConfiguration,
                  terms: frozenset[str] | set[str]):
    """The hyperfine pipeline at angles shaped like ``fields.theta_p``, a
    float for an eigen magic-angle search step or an axis for a scan:
    ``solve(theta_p)``, in radians, gives ``(energies, vectors, dominant,
    alphas)`` of ``_eigensolve`` and ``_spin_trace`` over
    ``build_hamiltonian(...)`` at those angles, bit for bit, with no phase
    convention (alpha is a trace).  The static terms are built once; each
    call copies them into one work matrix or stack, writes them plus the
    light onto its spin diagonal (``_write_light``, as ``build_hamiltonian``
    does), solves it and then takes its memory for alpha's product op_rot V,
    so that a scan holds no Hamiltonian stack beside its eigenvectors.

    ``solve.slopes(*states)``, after a call at one angle, is a function of
    no arguments that gives d(alpha_i)/d(theta_p) per radian of each
    eigenstate i of ``states`` at that angle.  It keeps that call's
    eigenpairs, so it may be called after later calls, or never: a search
    computes no slope that it does not read.
    """
    work = build_hamiltonian(basis, fields, terms - {"polarization"})
    n_rot = len(basis.rot_states)
    spin_diagonal = _spin_diagonal(work, n_rot)
    # the static terms and their spin diagonal are the same at every angle:
    # one matrix's copies
    static = work.reshape((-1,) + work.shape[-2:])[0].copy()
    static_diagonal = spin_diagonal.reshape((-1,) + spin_diagonal.shape[-3:])[0].copy()
    product = work.reshape(work.shape[:-2] + (n_rot, -1))
    operands = _light_operands(basis, fields.constants)
    scale = -fields.intensity * 1e-6 if "polarization" in terms else None
    theta = _angles(work.shape[:-2])
    last = None  # the last call's energies, vectors, light block and cos, sin of theta_p

    def solve(theta_p: float | np.ndarray) -> tuple:
        nonlocal last
        theta.flat = theta_p
        work[...] = static
        op, cth, sth = _write_light(spin_diagonal, static_diagonal, scale, operands, theta)
        energies, vectors, dominant = _eigensolve(work, basis)
        last = energies, vectors, op, cth, sth
        return energies, vectors, dominant, _spin_trace(vectors, op, product)

    solve.slopes = lambda *states: partial(_state_slopes, last, operands, scale, states)
    return solve


def _state_slopes(step: tuple, operands: tuple, scale: float | None,
                  states: tuple[int, ...]) -> list[float]:
    """d(alpha_i)/d(theta_p) per radian of each eigenstate i of ``states``,
    from one ``_angle_solver`` step: its energies, vectors, light block
    op_rot and cos, sin of theta_p, with the light term scaled by ``scale``
    (MHz per Hz/(W/cm^2)), None without it.

    Hellmann-Feynman and first-order perturbation of the vector, as in
    Nelson, AIAA J. 14, 1201 (1976).  With O = op_rot (x) 1,
    O' = dO/d(theta_p) and H = static + s O,
        d(alpha_i)/d(theta_p) = <i|O'|i> + 2 s sum_{j != i} O_ij O'_ji / (E_i - E_j),
    where s is 0 without the light term.  A degenerate partner E_j = E_i
    makes the slope inf or NaN, silently: the caller decides what to do.
    """
    energies, vectors, op, cth, sth = step
    n_rot = len(op)
    # one angle's numpy floats as Python floats, cheaper in scalar arithmetic
    d_op = _light_block_slope(operands, float(cth), float(sth))
    # O' and O stacked: one product gives O' v and O v, each row the sum it
    # is alone, since a strided v takes numpy's own matmul loop, not BLAS
    ops = np.concatenate((d_op, op)) if scale else d_op
    vt = vectors.T
    slopes = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in states:
            products = ops @ vectors[:, i].reshape(n_rot, -1)
            d_row = vt @ products[:n_rot].ravel()
            value = float(d_row[i])
            if scale:
                row = vt @ products[n_rot:].ravel()
                gaps = energies[i] - energies
                gaps[i] = math.inf
                row *= d_row
                row /= gaps
                value += 2.0 * scale * float(row.sum())
            slopes.append(value)
    return slopes


def _eigensolve(h: np.ndarray, basis: HyperfineBasis
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``radial._eigh`` of a checked matrix or stack ``(..., dim, dim)``, and
    each eigenvector's dominant (J, M) block as an index into ``basis.rot_states``.

    Raises ValueError when the shape does not match the basis, when a
    matrix has a non-finite entry (named first in a stack) or is not
    symmetric within 1e-10 relative.  Every shape takes the same checks,
    solve and labels: one matrix is a stack of one, bit for bit.
    """
    h = np.asarray(h, dtype=float)
    if h.shape[-2:] != (basis.dim, basis.dim):
        raise ValueError(f"matrix shape {h.shape} does not match basis dim {basis.dim}")
    # h - h^T is exactly antisymmetric, so its max over a matrix is its
    # largest |entry|, and a non-finite entry of h makes it inf or NaN.  A
    # max of at most 1e-10 passes every matrix's checks; only a larger one,
    # or NaN, takes them matrix by matrix
    with np.errstate(invalid="ignore", over="ignore"):
        asym = h - h.swapaxes(-2, -1)
    if not asym.max(initial=0.0) <= 1e-10:
        # each largest |entry|, inf or NaN exactly where some entry is
        top = np.maximum(h.max(axis=(-2, -1)), -h.min(axis=(-2, -1)))
        if not np.isfinite(top).all():
            raise ValueError(_NON_FINITE)
        if (asym.max(axis=(-2, -1)) > 1e-10 * np.maximum(top, 1.0)).any():
            raise ValueError(_ASYMMETRIC)
    del asym
    energies, vectors = radial._eigh(h)
    # amplitude^2 with one contiguous row per vector, summed over the spins
    # of each (J, M) block, 8 matrices at a time, so that beside h and the
    # vectors only their squares are live; rows is a view
    n_rot, dim = len(basis.rot_states), basis.dim
    rows = vectors.swapaxes(-2, -1).reshape(-1, dim, n_rot, dim // n_rot)
    weights = np.empty(vectors.shape[:-1] + (n_rot,))
    chunks = weights.reshape(-1, dim, n_rot)
    for k in range(0, len(rows), 8):
        np.square(rows[k:k + 8], order="C").sum(axis=-1, out=chunks[k:k + 8])
    return energies, vectors, weights.argmax(axis=-1)


_NON_FINITE = "Hamiltonian has a non-finite (inf or NaN) entry"
_ASYMMETRIC = "Hamiltonian is not symmetric within 1e-10 relative"


def _spin_trace(vectors: np.ndarray, op: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
    """alpha_j = sum_s sum_{r,r'} V[r,s,j] op[r,r'] V[r',s,j] per eigenvector j,
    for ``vectors`` (..., dim, dim) and op_rot ``op`` (..., n_rot, n_rot); the
    product op_rot V goes into ``out``, (..., n_rot, dim^2 / n_rot), if given."""
    # V as (..., r, (s, j)): sum over r and r' per spin, then over the spins
    v = vectors.reshape(vectors.shape[:-2] + (op.shape[-1], -1))
    # v * (op @ v), multiplied into the product's own array
    op_v = np.matmul(op, v, out=out)
    per_spin = np.multiply(op_v, v, out=op_v).sum(axis=-2)
    return per_spin.reshape(vectors.shape[:-2] + (-1, vectors.shape[-1])).sum(axis=-2)


def _match(overlap: np.ndarray) -> np.ndarray:
    """The one-to-one matching of largest summed |V_a^T V_b| for one (dim, dim)
    ``overlap`` or a stack ``(..., dim, dim)``: ``perm[..., i]`` is the
    column that continues row i."""
    # no matching sums more than the row maxima; where each row's maximum
    # is strict and the argmaxes form a permutation, it is the only match
    # that reaches that sum
    best = overlap.argmax(axis=-1)
    top = np.take_along_axis(overlap, best[..., None], axis=-1)
    dim = overlap.shape[-1]
    unique = ((np.count_nonzero(overlap == top, axis=(-2, -1)) == dim)
              & (np.sort(best, axis=-1) == np.arange(dim)).all(axis=-1))
    for at in map(tuple, np.argwhere(~unique)):
        from scipy.optimize import linear_sum_assignment
        best[at] = linear_sum_assignment(overlap[at], maximize=True)[1]
    return best
