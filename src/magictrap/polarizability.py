"""Dynamic polarizability of rotational levels near a weak vibronic line.

:func:`alpha_analytic` evaluates the closed form for a level (v, J)
probed near one vibronic band: a resonant term with the two branch
poles offset by L_J and R_J from the band reference, plus the
quasi-static background

    alpha = -(3 pi c^2 / 2 w^3) [A hG/(D + L_J) + B hG/(D + R_J)]
            + (A + B)(a_par - a_perp) + a_perp

where D is the detuning from the (J = 0 -> J' = 1) line of the band
and A, B are the closed-form angular factors.  Its poles are listed
once, by ``_branches``, which the magic-detuning pole guard reads too.
The tests check it against the explicit sum over solver levels, with
both rotating and counter-rotating denominators and branch weights from
3-j symbols.  :func:`alpha_imag` sums the imaginary part over retained
solver levels, each line weighted by its branch's A or B, so both parts
of one level read the same closed-form weights.

Convention: polarizabilities are returned in atomic units.  The
resonant prefactor is the light-shift-per-intensity expression; mapped
to polarizability atomic units it reduces to (3 c^3 / 4 w^3) hG, which
equals the squared transition dipole when hG is the band's spontaneous
width.  The imaginary part follows the same convention, giving

      Im alpha = - sum_f gamma_f |<f| d e.R |i>|^2
                   / ((E_f - E_i)^2 - (h nu)^2)

in atomic units (negative below every resonance).

Every route takes the photon energy ``nu`` as a scalar or as an array
(a scan axis) and returns the value itself: ``np.float64`` for a scalar,
a float array of the same shape for an array.  The angular weights and
the transition table are built once per (J, M, theta_p), not once per
point.  Each point gets the same floating-point operations in the same
order whichever way it is passed.  :func:`validity_notes` says where
the closed forms leave their window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import _check_state, angular_factors, resonance_offsets
from .errors import PoleProximityError
from .radial import RovibLevels
from .units import C_AU

__all__ = [
    "ResonantLine",
    "PolarizabilitySpec",
    "Background",
    "line_strength",
    "validity_notes",
    "alpha_analytic",
    "alpha_imag",
]

# fallback pole guard for a single retained line, relative to its energy
_SINGLE_LINE_GUARD = 1e-9
_POLE_GUARD = 1e-6


@dataclass(frozen=True)
class ResonantLine:
    """One vibronic band used by the closed-form evaluation.

    ``energy`` is the (J = 0 -> J' = 1) transition energy in Hartree,
    ``gamma`` the band linewidth hbar*Gamma in Hartree, ``b_rot`` the
    excited-state rotational constant B_v' in Hartree.
    """

    vprime: int
    energy: float
    gamma: float
    b_rot: float


@dataclass(frozen=True)
class Background:
    """Quasi-static background polarizability components (atomic units)."""

    alpha_par: float
    alpha_perp: float

    @property
    def anisotropy(self) -> float:
        return self.alpha_par - self.alpha_perp


@dataclass(frozen=True)
class PolarizabilitySpec:
    """Inputs of the closed-form polarizability.

    ``lines`` must be ordered by energy; the first line is the detuning
    reference used by the magic-condition search.
    """

    lines: tuple[ResonantLine, ...]
    b_v: float
    background: Background

    def __post_init__(self):
        if not self.lines:
            raise ValueError("need at least one resonant line")
        energies = [ln.energy for ln in self.lines]
        if sorted(energies) != energies:
            raise ValueError("lines must be sorted by energy")

    @property
    def reference(self) -> ResonantLine:
        return self.lines[0]

    def with_gamma_scale(self, scale: float) -> "PolarizabilitySpec":
        if scale <= 0.0:
            raise ValueError("gamma scale must be positive")
        lines = tuple(
            ResonantLine(ln.vprime, ln.energy, ln.gamma * scale, ln.b_rot)
            for ln in self.lines
        )
        return PolarizabilitySpec(lines=lines, b_v=self.b_v, background=self.background)


def line_strength(line: ResonantLine) -> float:
    """Resonant amplitude (3 c^3 / 4 w^3) hG in polarizability a.u. * Hartree.

    Equals the squared transition dipole |d|^2 in e^2 a0^2 when the
    line's gamma is its spontaneous width.
    """
    return 0.75 * C_AU ** 3 * line.gamma / line.energy ** 3


def validity_notes(spec: PolarizabilitySpec, nu: float | np.ndarray,
                   j: int) -> tuple[str, ...]:
    """Where the closed forms of level J leave their validity window.

    One note per violated condition, none inside the window; over an
    axis, the union of the notes at its points.  The closed forms do not
    fail outside the window, so a caller that reports their values asks
    for these separately.
    """
    energies = np.array([ln.energy for ln in spec.lines])
    dist = np.abs(np.asarray(nu)[..., None] - energies)
    near = dist.argmin(axis=-1)
    dist = dist.min(axis=-1)
    offs = [(resonance_offsets(j, spec.b_v, ln.b_rot), ln.b_rot) for ln in spec.lines]
    rot_scale = np.array([max(abs(o.l), abs(o.r), 2.0 * b) for o, b in offs])
    gammas = np.array([ln.gamma for ln in spec.lines])
    if len(spec.lines) > 1:
        far = ("detuning comparable to the band spacing",
               dist > 0.3 * float(np.min(np.diff(energies))))
    else:
        far = ("detuning comparable to the transition energy",
               dist > 0.02 * energies[0])
    checks = (
        ("detuning inside the rotational branch structure",
         dist < 3.0 * rot_scale[near]),
        ("detuning not large against the linewidth", dist < 1e3 * gammas[near]),
        far,
    )
    return tuple(note for note, hit in checks if hit.any())


def _branches(spec: PolarizabilitySpec, j: int, m: int, theta_p: float):
    """The angular factors of (J, M) and, per line of nonzero width, the
    (weight, offset) of each branch whose |weight| is at least 1e-15.

    The closed forms have a pole at nu = E - offset for each listed branch
    and nowhere else; a weight below the floor is round-off, as cos^2(pi/2).
    """
    fac = angular_factors(j, m, theta_p)
    table = []
    for ln in [ln for ln in spec.lines if ln.gamma != 0.0]:
        offs = resonance_offsets(j, spec.b_v, ln.b_rot)
        table.append((ln, [(w, off) for w, off in ((fac.a, offs.l), (fac.b, offs.r))
                           if abs(w) >= 1e-15]))
    return fac, table


def alpha_analytic(spec: PolarizabilitySpec, nu: float | np.ndarray, j: int, m: int,
                   theta_p: float = 0.0) -> np.float64 | np.ndarray:
    """Closed-form real polarizability at photon energy ``nu`` (Hartree).

    Detunings outside the validity window do not fail (see
    :func:`validity_notes`).  Evaluation exactly at a branch pole yields
    an infinite value rather than an error.
    """
    fac, table = _branches(spec, j, m, theta_p)
    bg = spec.background
    x = np.asarray(nu, dtype=float)
    total = np.full(x.shape, fac.total * bg.anisotropy + bg.alpha_perp)
    for ln, branches in table:
        delta = x - ln.energy
        with np.errstate(divide="ignore"):
            total += -line_strength(ln) * sum(np.divide(w, delta + off)
                                              for w, off in branches)
    return total[()]


def _transitions(x_levels: RovibLevels, ab_levels: RovibLevels, dipoles: np.ndarray,
                 nu, j, m, theta_p):
    """One row (dE, ab index, d, W) per retained line out of (J, M), in
    ``ab_levels`` order, with W the branch weight A (J' = J - 1) or B
    (J' = J + 1) of :func:`angular_factors`, and ``nu`` as a float array.
    The caller guards the poles (:func:`_guard_poles`).
    """
    j, m = _check_state(j, m)
    ground = np.flatnonzero(x_levels.j == j)
    if not ground.size:
        raise ValueError(f"no ground level with J = {j} among x_levels")
    x_idx = int(ground[0])
    dipoles = np.asarray(dipoles, dtype=float)
    if dipoles.shape != (len(x_levels), len(ab_levels)):
        raise ValueError(f"dipoles has shape {dipoles.shape}, not "
                         f"({len(x_levels)}, {len(ab_levels)})")
    lines = np.flatnonzero(np.abs(ab_levels.j - j) == 1)
    if not lines.size:
        raise ValueError(f"no retained lines couple to J = {j}")
    d = dipoles[x_idx, lines]
    if not np.all(np.isfinite(d)):
        raise ValueError(
            f"missing dipole for pair (x={x_idx}, ab={lines[~np.isfinite(d)][0]}); "
            "provide all J' = J +- 1 moments"
        )
    de = ab_levels.energies[lines] - x_levels.energies[x_idx]
    fac = angular_factors(j, m, theta_p)
    rows = list(zip(de.tolist(), lines.tolist(), d.tolist(),
                    [fac.b if jp > j else fac.a for jp in ab_levels.j[lines].tolist()]))
    return rows, np.asarray(nu, dtype=float)


def _guard_poles(rows, nu: np.ndarray) -> None:
    """Raise if any photon energy sits within the pole guard of a line,
    naming the first such point of the first such line.

    fl(dE - nu) is rounded monotonically, so it never rises as nu does,
    and over the axis |dE - nu| is least at the two points on either side
    of dE in sorted order.  Only if one of those lies within the guard of
    its line are the lines scanned point by point for the first one.
    """
    uniq = sorted({row[0] for row in rows})
    if len(uniq) > 1:
        scale = min(b - a for a, b in zip(uniq, uniq[1:]))
    else:
        scale = uniq[0] * _SINGLE_LINE_GUARD / _POLE_GUARD
    guard = _POLE_GUARD * scale
    axis = np.sort(nu, axis=None)
    if not axis.size:
        return
    lines = np.array([row[0] for row in rows])
    at = np.searchsorted(axis, lines)
    below, above = axis[np.maximum(at - 1, 0)], axis[np.minimum(at, axis.size - 1)]
    if not np.any((np.abs(lines - below) < guard) | (np.abs(lines - above) < guard)):
        return
    for de, *_ in rows:
        near = np.abs(de - nu) < guard
        if np.any(near):
            raise PoleProximityError(
                f"photon energy within {guard:.3e} Eh of the line at {de:.6e} Eh",
                point=int(np.argmax(near.ravel())), line=de, guard=guard)


def alpha_imag(x_levels: RovibLevels, ab_levels: RovibLevels,
               dipoles: np.ndarray, gammas: np.ndarray,
               nu: float | np.ndarray, j: int, m: int,
               theta_p: float = 0.0) -> np.float64 | np.ndarray:
    """Imaginary polarizability from the retained lines (atomic units).

        Im alpha = - sum_f gamma_f |d_f|^2 W_f / ((E_f - E_i)^2 - (h nu)^2)

    where W_f is the :func:`angular_factors` weight of line f's branch, A
    for J' = J - 1 and B for J' = J + 1, as in :func:`alpha_analytic`.
    ``dipoles[x, a]`` is the vibrationally averaged transition dipole
    (e a0) between row x of ``x_levels`` and row a of ``ab_levels``; only
    the pairs with J' = J +- 1 are read, and each must be finite.
    ``gammas`` (L,) holds the linewidths (atomic units) of the rows of
    ``ab_levels``.  The value is negative whenever the photon energy is
    below every retained resonance.
    """
    if len(gammas) != len(ab_levels):
        raise ValueError("gammas must align with ab_levels")
    rows, x = _transitions(x_levels, ab_levels, dipoles, nu, j, m, theta_p)
    _guard_poles(rows, x)
    gammas = np.asarray(gammas, dtype=float).tolist()
    # each line's term in one buffer of the axis' shape, with (h nu)^2 taken
    # once: each point gets the float operations of -= g d d W / (dE^2 - nu^2)
    total = np.zeros(x.shape)
    term = np.empty(x.shape)
    # (h nu)^2 is inf where |h nu| is far beyond every line, and Im alpha 0
    with np.errstate(over="ignore"):
        x2 = x * x
        for de, a_idx, d, w in rows:
            np.subtract(de * de, x2, out=term)
            np.divide(gammas[a_idx] * d * d * w, term, out=term)
            np.subtract(total, term, out=total)
    return total[()]
