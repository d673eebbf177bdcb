"""Search for magic trapping conditions.

A magic condition is a zero of the differential polarizability between
two states changed by one knob: the trap-laser detuning (rotational
state pairs, closed-form polarizability) or the linear-polarization
angle (hyperfine eigenstate pairs).  All root finding is bracketed
Brent iteration; the objectives have genuine poles nearby, so nothing
here estimates derivatives.

Detunings are in GHz relative to the reference line of the
:class:`~magictrap.polarizability.PolarizabilitySpec`; angles are in
degrees against the quantization axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .angular import angular_factors, resonance_offsets
from .errors import CalibrationError, NoRootError, PoleProximityError
from .hyperfine import (
    TERMS,
    FieldConfiguration,
    HyperfineBasis,
    build_basis,
    build_hamiltonian,
    diagonalize,
    eigenstate_polarizability,
)
from .polarizability import PolarizabilitySpec, alpha_analytic
from .units import HARTREE_TO_GHZ

__all__ = [
    "ANGLE_METHODS",
    "MagicSolution",
    "find_magic_detuning",
    "find_magic_angle",
    "calibrate_gamma",
]

ANGLE_METHODS = ("auto", "bare", "eigen")

# residual |alpha_a - alpha_b| accepted at a detuning root, atomic units
DETUNING_RESIDUAL_TOL = 1e-10
# same for angle roots, in the units of the supplied backgrounds
ANGLE_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class MagicSolution:
    """A located magic condition.

    ``location`` is a detuning in GHz for kind ``"detuning"`` and an
    angle in degrees for kind ``"angle"``.  ``residual`` is the
    re-evaluated differential polarizability at the root.
    """

    kind: str
    location: float
    state_a: tuple
    state_b: tuple
    residual: float
    bracket: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo < self.location < hi:
            raise ValueError("root must lie strictly inside the bracket")


def _detuning_objective(spec: PolarizabilitySpec, state_a, state_b,
                        delta_ghz: float, theta_p: float) -> float:
    nu = spec.reference.energy + delta_ghz / HARTREE_TO_GHZ
    j_a, m_a = state_a
    j_b, m_b = state_b
    val_a = alpha_analytic(spec, nu, j_a, m_a, theta_p)
    val_b = alpha_analytic(spec, nu, j_b, m_b, theta_p)
    return val_a - val_b


def _angle_method(fields: FieldConfiguration, terms, method: str) -> str:
    if method not in ANGLE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "auto":
        return method
    c = fields.constants
    quad_on = "quadrupole" in terms and bool(c.eqq_a or c.eqq_b)
    stark_on = "stark" in terms and fields.e_field > 0.0 and bool(c.d0)
    return "eigen" if (quad_on or stark_on) else "bare"


def _bare_alpha(fields: FieldConfiguration, j: int, m: int,
                theta_deg: float) -> float:
    c = fields.constants
    fac = angular_factors(j, m, math.radians(theta_deg))
    return fac.total * (c.alpha_par - c.alpha_perp) + c.alpha_perp


def _pick_state(sol, state) -> int:
    j, m = state[0], state[1]
    rank = state[2] if len(state) > 2 else None
    matches = sol.select((j, m))
    if not matches:
        raise ValueError(f"no eigenstate with dominant character (J={j}, M={m})")
    if rank is None:
        if len(matches) > 1:
            raise ValueError(
                f"{len(matches)} eigenstates share character (J={j}, M={m}); "
                "pass (J, M, rank) to pick one"
            )
        return matches[0]
    if not 0 <= rank < len(matches):
        raise ValueError(
            f"rank {rank} out of range for character (J={j}, M={m}) "
            f"with {len(matches)} states"
        )
    return matches[rank]


def _angle_objective(fields: FieldConfiguration, state_a, state_b,
                     theta_deg: float, terms, basis: HyperfineBasis | None) -> float:
    if basis is None:
        return (_bare_alpha(fields, state_a[0], state_a[1], theta_deg)
                - _bare_alpha(fields, state_b[0], state_b[1], theta_deg))
    at = replace(fields, theta_p=math.radians(theta_deg))
    sol = eigenstate_polarizability(
        diagonalize(build_hamiltonian(basis, at, terms), basis), at)
    alphas = sol.polarizabilities
    return float(alphas[_pick_state(sol, state_a)] - alphas[_pick_state(sol, state_b)])


def _poles_in_window(spec: PolarizabilitySpec, js: Sequence[int], m: int,
                     theta_p: float, lo: float, hi: float) -> list[tuple[int, float]]:
    """Branch poles (J, detuning GHz) with nonzero residue inside [lo, hi]."""
    ref = spec.reference.energy
    found = []
    for j in sorted(set(js)):
        fac = angular_factors(j, m, theta_p)
        for ln in spec.lines:
            offs = resonance_offsets(j, spec.b_v, ln.b_rot)
            base_ghz = (ln.energy - ref) * HARTREE_TO_GHZ
            for weight, offset in ((fac.a, offs.l), (fac.b, offs.r)):
                if abs(weight) < 1e-15:
                    continue
                pole = base_ghz - offset * HARTREE_TO_GHZ
                if lo <= pole <= hi:
                    found.append((j, pole))
    return found


def find_magic_detuning(spec: PolarizabilitySpec, j_a: int, j_b: int,
                        m: int = 0, theta_p: float = 0.0,
                        bracket: tuple[float, float] = (30.0, 300.0)
                        ) -> MagicSolution:
    """Detuning (GHz) where the (j_a, m) and (j_b, m) polarizabilities cross.

    The bracket must exclude every branch pole of both states and the
    objective must change sign across it; violations raise
    :class:`PoleProximityError` / :class:`NoRootError` rather than
    returning a nearest-miss root.
    """
    lo, hi = bracket
    poles = _poles_in_window(spec, (j_a, j_b), m, theta_p, lo, hi)
    if poles:
        listing = ", ".join(f"J={j} at {p:+.4f} GHz" for j, p in poles)
        raise PoleProximityError(f"bracket ({lo}, {hi}) GHz contains poles: {listing}")

    def objective(delta: float) -> float:
        return _detuning_objective(spec, (j_a, m), (j_b, m), delta, theta_p)

    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0.0 or f_hi == 0.0 or np.sign(f_lo) == np.sign(f_hi):
        raise NoRootError(
            f"no sign change over ({lo}, {hi}) GHz: "
            f"f(lo) = {f_lo:.6e}, f(hi) = {f_hi:.6e} a.u."
        )
    root = brentq(objective, lo, hi, xtol=1e-12, rtol=8.9e-16)
    residual = objective(root)
    if abs(residual) > DETUNING_RESIDUAL_TOL:
        raise NoRootError(
            f"root at {root:.6f} GHz fails the residual check: "
            f"|{residual:.3e}| > {DETUNING_RESIDUAL_TOL} a.u."
        )
    return MagicSolution(
        kind="detuning", location=float(root),
        state_a=(j_a, m), state_b=(j_b, m),
        residual=float(residual), bracket=(float(lo), float(hi)),
    )


def find_magic_angle(fields: FieldConfiguration, state_a, state_b,
                     bracket: tuple[float, float] = (0.0, 90.0),
                     terms: frozenset[str] | set[str] = TERMS,
                     method: str = "auto", j_max: int = 1) -> MagicSolution:
    """Polarization angle (degrees) equalizing two state polarizabilities.

    ``method="bare"`` evaluates the closed-form angular dependence of
    lab-frame (J, M) states, appropriate when nothing but the light
    couples rotational projections.  ``method="eigen"`` diagonalizes
    the full hyperfine Hamiltonian at each angle and resolves states by
    dominant character, with an explicit rank for repeated labels.
    ``"auto"`` picks "eigen" exactly when an active quadrupole or dc
    Stark term breaks the bare picture.
    """
    eigen = _angle_method(fields, terms, method) == "eigen"
    basis = build_basis(j_max, fields.constants) if eigen else None

    def objective(theta: float) -> float:
        return _angle_objective(fields, state_a, state_b, theta, terms, basis)

    lo, hi = bracket
    if not 0.0 <= lo < hi <= 180.0:
        raise ValueError("angle bracket must satisfy 0 <= lo < hi <= 180 degrees")
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo == 0.0 or f_hi == 0.0 or np.sign(f_lo) == np.sign(f_hi):
        raise NoRootError(
            f"no sign change over ({lo}, {hi}) degrees: "
            f"f(lo) = {f_lo:.6e}, f(hi) = {f_hi:.6e}"
        )
    root = brentq(objective, lo, hi, xtol=1e-8, rtol=8.9e-16)
    residual = objective(root)
    if abs(residual) > ANGLE_RESIDUAL_TOL:
        raise NoRootError(
            f"root at {root:.6f} deg fails the residual check: "
            f"|{residual:.3e}| > {ANGLE_RESIDUAL_TOL}"
        )
    return MagicSolution(
        kind="angle", location=float(root),
        state_a=tuple(state_a), state_b=tuple(state_b),
        residual=float(residual), bracket=(float(lo), float(hi)),
    )


def calibrate_gamma(template: PolarizabilitySpec, j_pair: tuple[int, int],
                    delta_magic_ghz: float, m: int = 0,
                    theta_p: float = 0.0) -> PolarizabilitySpec:
    """Rescale every linewidth so a crossing lands on a target detuning.

    The closed-form differential polarizability at fixed detuning is
    exactly linear in a common scale on the gammas, so the calibration
    is a two-point linear solve; monotonicity of the crossing in the
    scale makes it unique.  Requires a nonzero background anisotropy
    and a resonant differential between the two states.
    """
    j_a, j_b = j_pair
    if j_a == j_b:
        raise CalibrationError("state pair must involve two different J")
    if template.background.anisotropy == 0.0:
        raise CalibrationError(
            "background anisotropy is zero; no crossing detuning exists"
        )
    poles = _poles_in_window(
        template, j_pair, m, theta_p,
        delta_magic_ghz - 1e-6, delta_magic_ghz + 1e-6,
    )
    if poles:
        raise CalibrationError(
            f"target detuning {delta_magic_ghz} GHz sits on a branch pole"
        )

    def diff_at_target(scaled: PolarizabilitySpec) -> float:
        return _detuning_objective(
            scaled, (j_a, m), (j_b, m), delta_magic_ghz, theta_p
        )

    d1 = diff_at_target(template)
    d2 = diff_at_target(template.with_gamma_scale(2.0))
    slope = d2 - d1
    if slope == 0.0:
        raise CalibrationError(
            "the resonant differential vanishes for this state pair; "
            "gammas cannot move the crossing"
        )
    scale = 1.0 - d1 / slope
    if scale <= 0.0:
        raise CalibrationError(
            f"target requires a nonpositive gamma scale ({scale:.3e}); "
            "the crossing lies on the other side of the reference line"
        )
    calibrated = template.with_gamma_scale(scale)
    residual = diff_at_target(calibrated)
    tol = 1e-9 * max(abs(d1), abs(d2), 1.0)
    if abs(residual) > tol:
        raise CalibrationError(
            f"calibration residual {residual:.3e} exceeds {tol:.3e}"
        )
    return calibrated
