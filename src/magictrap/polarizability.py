"""Dynamic polarizability of rotational levels near a weak vibronic line.

Two independent evaluation routes are provided and cross-validated
against each other:

* :func:`alpha_sum_over_states` performs the explicit second-order sum
  over retained excited rovibrational levels with full (rotating plus
  counter-rotating) denominators and angular weights from Wigner 3-j
  machinery.

* :func:`alpha_analytic` evaluates the closed form for a level (v, J)
  probed near one vibronic band: a resonant term with the two branch
  poles offset by L_J and R_J from the band reference, plus the
  quasi-static background

      alpha = -(3 pi c^2 / 2 w^3) [A hG/(D + L_J) + B hG/(D + R_J)]
              + (A + B)(a_par - a_perp) + a_perp

  where D is the detuning from the (J = 0 -> J' = 1) line of the band
  and A, B are the closed-form angular factors.

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

import math
from dataclasses import dataclass

import numpy as np

from .angular import _check_state, angular_factors, resonance_offsets, rot_tensor_element
from .errors import PoleProximityError
from .radial import RovibLevel
from .units import C_AU

__all__ = [
    "ResonantLine",
    "PolarizabilitySpec",
    "Background",
    "line_strength",
    "validity_notes",
    "alpha_analytic",
    "alpha_fardetuned",
    "alpha_sum_over_states",
    "alpha_imag",
    "spec_from_levels",
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


def gamma_from_dipole(energy: float, dipole: float) -> float:
    """Spontaneous width hbar*Gamma (Hartree) of a transition.

    Standard atomic-unit rate (4/3) w^3 d^2 / c^3 for transition energy
    ``energy`` (Hartree) and dipole ``dipole`` (e a0).
    """
    return (4.0 / 3.0) * energy ** 3 * dipole ** 2 / C_AU ** 3


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


def alpha_analytic(spec: PolarizabilitySpec, nu: float | np.ndarray, j: int, m: int,
                   theta_p: float = 0.0) -> np.float64 | np.ndarray:
    """Closed-form real polarizability at photon energy ``nu`` (Hartree).

    Detunings outside the validity window do not fail (see
    :func:`validity_notes`).  Evaluation exactly at a branch pole yields
    an infinite value rather than an error.
    """
    fac = angular_factors(j, m, theta_p)
    bg = spec.background
    x = np.asarray(nu, dtype=float)
    total = np.full(x.shape, fac.total * bg.anisotropy + bg.alpha_perp)
    # a line or branch of zero weight has no pole: skip it, not 0/0 or
    # 0 * inf = nan at that pole
    for ln in [ln for ln in spec.lines if ln.gamma != 0.0]:
        delta = x - ln.energy
        offs = resonance_offsets(j, spec.b_v, ln.b_rot)
        with np.errstate(divide="ignore"):
            total += -line_strength(ln) * sum(
                np.divide(w, delta + off)
                for w, off in ((fac.a, offs.l), (fac.b, offs.r)) if w != 0.0
            )
    return total[()]


def alpha_fardetuned(spec: PolarizabilitySpec, nu: float | np.ndarray, j: int, m: int,
                     theta_p: float = 0.0) -> np.float64 | np.ndarray:
    """First-order far-detuned form: branch offsets collapsed to zero.

        alpha = (A + B) [-(3 pi c^2/2 w^3) hG / D + a_par - a_perp]
                + a_perp

    with D measured from each band reference.  Agrees with
    :func:`alpha_analytic` exactly for J = 0 and to O(B/D) otherwise.
    """
    fac = angular_factors(j, m, theta_p)
    bg = spec.background
    x = np.asarray(nu, dtype=float)
    total = np.full(x.shape, fac.total * bg.anisotropy + bg.alpha_perp)
    # no pole without weight, as in alpha_analytic
    for ln in [ln for ln in spec.lines if ln.gamma != 0.0 and fac.total != 0.0]:
        with np.errstate(divide="ignore"):
            total += -line_strength(ln) * np.divide(fac.total, x - ln.energy)
    return total[()]


def _polarization_weight(jp: int, j: int, m: int, theta_p: float) -> float:
    """sum_M' |<J' M'| e.C_1 |J M>|^2 for linear polarization at theta_p."""
    cos2 = math.cos(theta_p) ** 2
    sin2 = math.sin(theta_p) ** 2
    w = cos2 * rot_tensor_element(jp, m, 1, 0, j, m) ** 2
    for q in (-1, 1):
        w += 0.5 * sin2 * rot_tensor_element(jp, m + q, 1, q, j, m) ** 2
    return w


def _transitions(x_levels, ab_levels, dipoles, j, m, theta_p):
    """The transition table out of (J, M), independent of the photon energy.

    Returns the polarization weight W of each branch J' = J +- 1, and one
    row (dE, ab index, d, W) per retained line in ``ab_levels`` order.
    """
    j, m = _check_state(j, m)
    try:
        x_idx, x_level = next(
            (i, lv) for i, lv in enumerate(x_levels) if lv.j == j
        )
    except StopIteration:
        raise ValueError(f"no ground level with J = {j} among x_levels")
    weights = {jp: _polarization_weight(jp, j, m, theta_p)
               for jp in (j - 1, j + 1) if jp >= 0}
    rows = []
    for a_idx, ab in enumerate(ab_levels):
        if ab.j not in weights:
            continue
        d = dipoles.get((x_idx, a_idx))
        if d is None:
            raise ValueError(
                f"missing dipole for pair (x={x_idx}, ab={a_idx}); "
                "provide all J' = J +- 1 moments"
            )
        rows.append((ab.energy - x_level.energy, a_idx, d, weights[ab.j]))
    if not rows:
        raise ValueError(f"no retained lines couple to J = {j}")
    return weights, rows


def _guard_poles(rows, nu: np.ndarray) -> None:
    """Raise if any photon energy sits within the pole guard of a line."""
    uniq = sorted({row[0] for row in rows})
    if len(uniq) > 1:
        scale = min(b - a for a, b in zip(uniq, uniq[1:]))
    else:
        scale = uniq[0] * _SINGLE_LINE_GUARD / _POLE_GUARD
    guard = _POLE_GUARD * scale
    for de, *_ in rows:
        if np.any(np.abs(de - nu) < guard):
            raise PoleProximityError(
                f"photon energy within {guard:.3e} Eh of the line at {de:.6e} Eh"
            )


def alpha_sum_over_states(x_levels: list[RovibLevel], ab_levels: list[RovibLevel],
                          dipoles: dict[tuple[int, int], float],
                          nu: float | np.ndarray,
                          j: int, m: int, theta_p: float = 0.0,
                          background: Background | None = None
                          ) -> np.float64 | np.ndarray:
    """Explicit second-order polarizability sum (atomic units).

    ``dipoles`` maps (index into x_levels, index into ab_levels) to the
    vibrationally averaged transition dipole in e a0.  Both rotating
    and counter-rotating denominators are kept.  The quasi-static
    background, when given, is added with angular weights computed from
    the same 3-j route (never from the closed-form factors).
    """
    weights, rows = _transitions(x_levels, ab_levels, dipoles, j, m, theta_p)
    x = np.asarray(nu, dtype=float)
    _guard_poles(rows, x)
    total = np.zeros(x.shape)
    for de, _, d, w in rows:
        total += d * d * w * (1.0 / (de - x) + 1.0 / (de + x))
    if background is not None:
        w = weights.get(j - 1, 0.0) + weights[j + 1]
        total += w * background.anisotropy + background.alpha_perp
    return total[()]


def alpha_imag(x_levels: list[RovibLevel], ab_levels: list[RovibLevel],
               dipoles: dict[tuple[int, int], float], gammas: list[float],
               nu: float | np.ndarray, j: int, m: int,
               theta_p: float = 0.0) -> np.float64 | np.ndarray:
    """Imaginary polarizability from the retained lines (atomic units).

        Im alpha = - sum_f gamma_f |d_f|^2 W_f / ((E_f - E_i)^2 - (h nu)^2)

    ``gammas`` holds the level linewidths (atomic units) aligned with
    ``ab_levels``.  The value is negative whenever the photon energy is
    below every retained resonance.
    """
    if len(gammas) != len(ab_levels):
        raise ValueError("gammas must align with ab_levels")
    _, rows = _transitions(x_levels, ab_levels, dipoles, j, m, theta_p)
    x = np.asarray(nu, dtype=float)
    _guard_poles(rows, x)
    total = np.zeros(x.shape)
    for de, a_idx, d, w in rows:
        total -= gammas[a_idx] * d * d * w / (de * de - x * x)
    return total[()]


def spec_from_levels(x_levels: list[RovibLevel], ab_levels: list[RovibLevel],
                     dipoles: dict[tuple[int, int], float],
                     background: Background, nu_ref: float | None = None
                     ) -> PolarizabilitySpec:
    """Distill solver output into a :class:`PolarizabilitySpec`.

    For each excited vibrational index the band energy is the actual
    (J = 0 -> J' = 1) level difference, B_v' comes from the lowest
    excited spacing (E_{J'=1} - E_{J'=0})/2, and gamma encodes the band
    strength through the spontaneous-width relation applied to the
    reference transition dipole.  B_v comes from the ground spacing.

    The counter-rotating response of each band, nearly constant across
    a narrow detuning window, is folded into the parallel background at
    the reference photon energy ``nu_ref`` (default: the first band
    energy), so the closed form tracks the full sum over states inside
    its validity window.
    """
    x_by_j = {lv.j: (i, lv) for i, lv in enumerate(x_levels)}
    if 0 not in x_by_j or 1 not in x_by_j:
        raise ValueError("need ground levels with J = 0 and J = 1")
    x0_idx, x0 = x_by_j[0]
    _, x1 = x_by_j[1]
    b_v = (x1.energy - x0.energy) / 2.0

    by_v: dict[int, dict[int, tuple[int, RovibLevel]]] = {}
    for i, ab in enumerate(ab_levels):
        by_v.setdefault(ab.v, {})[ab.j] = (i, ab)

    lines = []
    cr_shift = 0.0
    for vprime in sorted(by_v):
        group = by_v[vprime]
        if 0 not in group or 1 not in group:
            raise ValueError(
                f"excited v' = {vprime} needs both J' = 0 and J' = 1 levels"
            )
        i1, lv1 = group[1]
        _, lv0 = group[0]
        energy = lv1.energy - x0.energy
        b_rot = (lv1.energy - lv0.energy) / 2.0
        d = dipoles.get((x0_idx, i1))
        if d is None:
            raise ValueError(f"missing reference dipole for v' = {vprime}")
        lines.append(ResonantLine(
            vprime=vprime, energy=energy,
            gamma=gamma_from_dipole(energy, d), b_rot=b_rot,
        ))
    lines.sort(key=lambda ln: ln.energy)
    ref = nu_ref if nu_ref is not None else lines[0].energy
    for ln in lines:
        cr_shift += line_strength(ln) / (ln.energy + ref)

    bg = Background(
        alpha_par=background.alpha_par + cr_shift,
        alpha_perp=background.alpha_perp,
    )
    return PolarizabilitySpec(lines=tuple(lines), b_v=b_v, background=bg)
