"""Reference routes the tests compare the package with.

No subcommand runs these, so they live beside the tests: each is a second
or more general path beside one the CLI runs, built on the same private
kernels (``hyperfine._eigensolve``, ``polarizability._transitions``, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from magictrap import hyperfine, magic, narb, radial
from magictrap.angular import _check_state, rot_tensor_element
from magictrap.config import RunConfig
from magictrap.errors import PoleProximityError
from magictrap.hyperfine import FieldConfiguration, HyperfineBasis, MolecularConstants
from magictrap.polarizability import (_POLE_GUARD, _SINGLE_LINE_GUARD, Background,
                                      PolarizabilitySpec, ResonantLine, _guard_poles,
                                      _transitions, alpha_analytic, line_strength)
from magictrap.potentials import CoupledModel, DipoleFunction, MorseCurve
from magictrap.radial import RovibLevels
from magictrap.units import C_AU, Unit, convert


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
        return np.flatnonzero(self.dominant == hyperfine._rot_index(self.basis, label)).tolist()


def light_shift(basis: HyperfineBasis, c: MolecularConstants,
                theta_p: float | np.ndarray) -> np.ndarray:
    """The rotational block op_rot of the light-shift operator, ``(..., n_rot, n_rot)``,
    at each angle of ``theta_p`` (radians)."""
    theta = np.asarray(theta_p, dtype=float)[..., None, None]
    return hyperfine._light_block(hyperfine._light_operands(basis, c), np.cos(theta),
                                  np.sin(theta))


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
    return np.kron(light_shift(basis, c, theta_p),
                   np.eye(basis.dim // len(basis.rot_states)))


def diagonalize(h: np.ndarray, basis: HyperfineBasis) -> EigenSolution:
    """Eigensystem with a deterministic phase convention.

    The largest-magnitude component of each eigenvector is made
    positive.  A stack ``(..., dim, dim)`` is solved in one call.  Raises
    ValueError when a matrix has a non-finite entry or is not symmetric
    within 1e-10 relative.
    """
    energies, vectors, dominant = hyperfine._eigensolve(h, basis)
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
    op = light_shift(sol.basis, fields.constants, fields.theta_p)
    return replace(sol, polarizabilities=hyperfine._spin_trace(sol.vectors, op))


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
    return hyperfine._match(np.abs(a.vectors.T @ b.vectors))


def gamma_from_dipole(energy: float, dipole: float) -> float:
    """Spontaneous width hbar*Gamma (Hartree) of a transition.

    Standard atomic-unit rate (4/3) w^3 d^2 / c^3 for transition energy
    ``energy`` (Hartree) and dipole ``dipole`` (e a0).
    """
    return (4.0 / 3.0) * energy ** 3 * dipole ** 2 / C_AU ** 3


def alpha_fardetuned(spec: PolarizabilitySpec, nu: float | np.ndarray, j: int, m: int,
                     theta_p: float = 0.0) -> np.float64 | np.ndarray:
    """First-order far-detuned form: branch offsets collapsed to zero.

        alpha = (A + B) [-(3 pi c^2/2 w^3) hG / D + a_par - a_perp]
                + a_perp

    with D measured from each band reference.  It is :func:`alpha_analytic`
    with B_v and every B_v' zero, so the two agree exactly for J = 0 and to
    O(B/D) otherwise.
    """
    lines = tuple(replace(ln, b_rot=0.0) for ln in spec.lines)
    return alpha_analytic(replace(spec, lines=lines, b_v=0.0), nu, j, m, theta_p)


def magic_detuning_per_evaluation(spec: PolarizabilitySpec, j_a: int, j_b: int, m: int = 0,
                                  theta_p: float = 0.0,
                                  bracket: tuple[float, float] = (30.0, 300.0)
                                  ) -> tuple[tuple[float, float, float], list[float]]:
    """The search of :func:`magictrap.find_magic_detuning` with f and f'
    evaluated afresh at every abscissa: (root, residual, slope) and the
    detunings evaluated, in order."""
    slope = magic._detuning_slope(spec, (j_a, m), (j_b, m), theta_p)
    evaluated = []

    def objective(delta: float) -> tuple[float, Callable[[], float]]:
        evaluated.append(delta)
        value, d = magic._detuning_objective(spec, (j_a, m), (j_b, m), delta, theta_p), slope(delta)
        return value, lambda: d

    return magic._bracketed_root(objective, bracket, 1e-12, magic.DETUNING_RESIDUAL_TOL,
                                 "GHz", " a.u."), evaluated


def alpha_sum_over_states(x_levels: RovibLevels, ab_levels: RovibLevels,
                          dipoles: np.ndarray, nu: float | np.ndarray,
                          j: int, m: int, theta_p: float = 0.0,
                          background: Background | None = None
                          ) -> np.float64 | np.ndarray:
    """Explicit second-order polarizability sum (atomic units).

    ``dipoles[x, a]`` is the vibrationally averaged transition dipole
    (e a0) between row x of ``x_levels`` and row a of ``ab_levels``;
    only the pairs with J' = J +- 1 are read, and each must be finite.
    Both rotating and counter-rotating denominators are kept.  Each line
    and the quasi-static background, when given, take their angular
    weights from :func:`polarization_weight_by_elements`, the 3-j route:
    the lines are read here, not through ``polarizability._transitions``,
    so no weight comes from the closed-form factors.
    """
    j, m = _check_state(j, m)
    ground = np.flatnonzero(x_levels.j == j)
    if not ground.size:
        raise ValueError(f"no ground level with J = {j} among x_levels")
    dipoles = np.asarray(dipoles, dtype=float)
    if dipoles.shape != (len(x_levels), len(ab_levels)):
        raise ValueError(f"dipoles has shape {dipoles.shape}, not "
                         f"({len(x_levels)}, {len(ab_levels)})")
    weights = {jp: polarization_weight_by_elements(jp, j, m, theta_p)
               for jp in (j - 1, j + 1) if jp >= 0}
    lines = np.flatnonzero(np.abs(ab_levels.j - j) == 1)
    if not lines.size:
        raise ValueError(f"no retained lines couple to J = {j}")
    d = dipoles[ground[0], lines]
    if not np.all(np.isfinite(d)):
        raise ValueError(f"missing dipole for pair (x={ground[0]}, "
                         f"ab={lines[~np.isfinite(d)][0]})")
    de = ab_levels.energies[lines] - x_levels.energies[ground[0]]
    rows = list(zip(de.tolist(), d.tolist(),
                    [weights[jp] for jp in ab_levels.j[lines].tolist()]))
    x = np.asarray(nu, dtype=float)
    _guard_poles(rows, x)
    total = np.zeros(x.shape)
    for de, d, w in rows:
        total += d * d * w * (1.0 / (de - x) + 1.0 / (de + x))
    if background is not None:
        w = weights.get(j - 1, 0.0) + weights[j + 1]
        total += w * background.anisotropy + background.alpha_perp
    return total[()]


def polarization_weight_by_elements(jp: int, j: int, m: int, theta_p: float) -> float:
    """sum_M' |<J' M'| e.C_1 |J M>|^2 for linear polarization at theta_p,
    from three full ``rot_tensor_element`` calls, each taking its own
    reduced symbol: the 3-j route to the branch weight that
    ``angular.angular_factors`` gives in closed form (A at J' = J - 1,
    B at J' = J + 1)."""
    cos2 = math.cos(theta_p) ** 2
    sin2 = math.sin(theta_p) ** 2
    w = cos2 * rot_tensor_element(jp, m, 1, 0, j, m) ** 2
    for q in (-1, 1):
        w += 0.5 * sin2 * rot_tensor_element(jp, m + q, 1, q, j, m) ** 2
    return w


def guard_poles_per_line(rows, nu: np.ndarray) -> None:
    """``polarizability._guard_poles`` with fresh arrays per line: |dE - nu|
    and its mask are new arrays for each line."""
    uniq = sorted({row[0] for row in rows})
    if len(uniq) > 1:
        scale = min(b - a for a, b in zip(uniq, uniq[1:]))
    else:
        scale = uniq[0] * _SINGLE_LINE_GUARD / _POLE_GUARD
    guard = _POLE_GUARD * scale
    for de, *_ in rows:
        near = np.abs(de - nu) < guard
        if np.any(near):
            raise PoleProximityError(
                f"photon energy within {guard:.3e} Eh of the line at {de:.6e} Eh",
                point=int(np.argmax(near.ravel())), line=de, guard=guard)


def alpha_imag_per_line(x_levels: RovibLevels, ab_levels: RovibLevels,
                        dipoles: np.ndarray, gammas, nu: float | np.ndarray,
                        j: int, m: int, theta_p: float = 0.0) -> np.float64 | np.ndarray:
    """``polarizability.alpha_imag`` as one new array expression per line,
    (h nu)^2 taken afresh for each, guarded by :func:`guard_poles_per_line`."""
    if len(gammas) != len(ab_levels):
        raise ValueError("gammas must align with ab_levels")
    rows, x = _transitions(x_levels, ab_levels, dipoles, nu, j, m, theta_p)
    guard_poles_per_line(rows, x)
    gammas = np.asarray(gammas, dtype=float).tolist()
    total = np.zeros(x.shape)
    with np.errstate(over="ignore"):
        for de, a_idx, d, w in rows:
            total -= gammas[a_idx] * d * d * w / (de * de - x * x)
    return total[()]


def spec_from_levels(x_levels: RovibLevels, ab_levels: RovibLevels, dipoles: np.ndarray,
                     background: Background) -> PolarizabilitySpec:
    """Distill solver output into a :class:`PolarizabilitySpec`.

    ``dipoles`` is read as by :func:`alpha_sum_over_states`, here at the
    pairs of the J = 0 ground level and each J' = 1 excited level.

    For each excited vibrational index the band energy is the actual
    (J = 0 -> J' = 1) level difference, B_v' comes from the lowest
    excited spacing (E_{J'=1} - E_{J'=0})/2, and gamma encodes the band
    strength through the spontaneous-width relation applied to the
    reference transition dipole.  B_v comes from the ground spacing.

    The counter-rotating response of each band, nearly constant across
    a narrow detuning window, is folded into the parallel background at
    the first band energy, so the closed form tracks the full sum over
    states inside its validity window.
    """
    x_at = {j: i for i, j in enumerate(x_levels.j.tolist())}
    if 0 not in x_at or 1 not in x_at:
        raise ValueError("need ground levels with J = 0 and J = 1")
    e_x0 = float(x_levels.energies[x_at[0]])
    b_v = (float(x_levels.energies[x_at[1]]) - e_x0) / 2.0
    ab_at = {vj: i for i, vj in enumerate(zip(ab_levels.v.tolist(), ab_levels.j.tolist()))}

    lines = []
    for vprime in sorted(set(ab_levels.v.tolist())):
        if (vprime, 0) not in ab_at or (vprime, 1) not in ab_at:
            raise ValueError(
                f"excited v' = {vprime} needs both J' = 0 and J' = 1 levels"
            )
        e1, e0 = (float(ab_levels.energies[ab_at[vprime, jp]]) for jp in (1, 0))
        energy = e1 - e_x0
        d = float(dipoles[x_at[0], ab_at[vprime, 1]])
        if not math.isfinite(d):
            raise ValueError(f"missing reference dipole for v' = {vprime}")
        lines.append(ResonantLine(
            vprime=vprime, energy=energy,
            gamma=gamma_from_dipole(energy, d), b_rot=(e1 - e0) / 2.0,
        ))
    lines.sort(key=lambda ln: ln.energy)
    cr_shift = sum(line_strength(ln) / (ln.energy + lines[0].energy) for ln in lines)

    bg = Background(
        alpha_par=background.alpha_par + cr_shift,
        alpha_perp=background.alpha_perp,
    )
    return PolarizabilitySpec(lines=tuple(lines), b_v=b_v, background=bg)


def wavelength_nm(energy: float, unit: Unit = Unit.WAVENUMBER) -> float:
    """Vacuum wavelength in nm of a photon with the given energy.

    This map is reciprocal, not multiplicative, which is why it lives
    outside :func:`convert`.
    """
    cm1 = convert(energy, unit, Unit.WAVENUMBER)
    if cm1 <= 0.0:
        raise ValueError("photon energy must be positive")
    return 1e7 / cm1


def radial_models(cfg: RunConfig) -> tuple[MorseCurve, CoupledModel, DipoleFunction]:
    """Ground curve, unshifted coupled model and dipole from config
    constants, with no solve: ``narb.pinned_models`` before its pinning."""
    return narb._models(cfg.get("molecule", "b_v_cm1"), cfg.get("molecule", "b_vprime_cm1"),
                        cfg.reduced_mass_amu())


def couple_after_eigh(channels, coupling: np.ndarray, kept: tuple[int, int], top: float):
    """``radial._couple`` with r_j taken after the coupling eigh, as the
    dropped channel columns times xi psi: r_j^2 = |U_A,drop^T xi psi_b,j|^2
    + |U_b,drop^T xi psi_a,j|^2.  It reads ``channels`` without emptying
    it, so both channels' n x n eigenvectors stay alive through the eigh."""
    (e_a, u_a), (e_b, u_b) = channels
    k_a, k_b = kept
    a, b = u_a[:, :k_a], u_b[:, :k_b]
    h = np.diag(np.concatenate([e_a[:k_a], e_b[:k_b]]))
    cross = h[k_a:, :k_a]
    cross[...] = b.T @ (coupling[:, None] * a)
    h[:k_a, k_a:] = cross.T
    carried = float(coupling ** 2 @ (np.einsum("ij,ij->i", a, a) + np.einsum("ij,ij->i", b, b))
                    - 2.0 * np.einsum("ij,ij", cross, cross))
    energies, c = radial._eigh(h, overwrite=True)
    keep = radial._kept(energies, top)
    psi_a, psi_b = a @ c[:k_a, :keep], b @ c[k_a:, :keep]
    r2 = (np.sum((u_a[:, k_a:].T @ (coupling[:, None] * psi_b)) ** 2, axis=0)
          + np.sum((u_b[:, k_b:].T @ (coupling[:, None] * psi_a)) ** 2, axis=0))
    floor = (min(e_a[k_a:].min(initial=np.inf), e_b[k_b:].min(initial=np.inf))
             - np.max(np.abs(coupling)))
    bound = radial._truncation_bound(energies, r2, carried, floor, top)
    return energies[:keep], np.vstack([psi_a, psi_b]), bound


def harmonic_omega(curve: MorseCurve, mu: float) -> float:
    """Harmonic frequency of a Morse curve at its minimum, mu in electron masses."""
    return curve.a * math.sqrt(2.0 * curve.d_e / mu)


def morse_levels(curve: MorseCurve, mu: float) -> np.ndarray:
    """Exact Morse spectrum (J = 0) in Hartree, mu in electron masses."""
    omega = harmonic_omega(curve, mu)
    n_bound = int(math.floor(2.0 * curve.d_e / omega - 0.5)) + 1
    v = np.arange(max(n_bound, 0)) + 0.5
    return curve.asymptote - curve.d_e + omega * v - (omega * v) ** 2 / (4.0 * curve.d_e)
