"""Electronic potential curves, transition dipoles, and coupled models.

Curves are functions of internuclear distance R (Bohr) returning energy
in Hartree.  The concrete form is the analytic Morse curve, built
directly or calibrated to a rotational constant and frequency.  A
two-channel spin-orbit coupled pair of curves is wrapped in
:class:`CoupledModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CalibrationError
from .units import AMU_TO_ME, HARTREE_TO_CM1

__all__ = [
    "PotentialCurve",
    "MorseCurve",
    "DipoleFunction",
    "CoupledModel",
    "calibrate_morse",
]


class PotentialCurve:
    """Base class: a labeled V(R) with a long-range asymptote."""

    label: str
    asymptote: float

    def __call__(self, r):
        raise NotImplementedError


@dataclass(frozen=True)
class MorseCurve(PotentialCurve):
    """V(R) = asymptote - D_e + D_e (1 - exp(-a (R - R_e)))^2.

    Parameters are in atomic units: ``d_e`` and ``asymptote`` in
    Hartree, ``a`` in 1/Bohr, ``r_e`` in Bohr.
    """

    label: str
    d_e: float
    a: float
    r_e: float
    asymptote: float = 0.0

    def __post_init__(self):
        if self.d_e <= 0.0 or self.a <= 0.0 or self.r_e <= 0.0:
            raise ValueError("Morse parameters d_e, a, r_e must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        # far inside a wall exp overflows to inf, and V is +inf there
        with np.errstate(over="ignore"):
            g = 1.0 - np.exp(-self.a * (r - self.r_e))
        out = self.asymptote - self.d_e + self.d_e * g * g
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DipoleFunction:
    """Transition dipole d(R) between two electronic states.

    ``pair`` names the connected states, e.g. ``("A", "X")``; the order
    is not significant.  Values are in e*a0.
    """

    pair: tuple[str, str]
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.asarray(self.fn(r), dtype=float)
        return float(out) if out.ndim == 0 else out

    def connects(self, a: str, b: str) -> bool:
        return {a, b} == set(self.pair)

    @classmethod
    def constant(cls, pair: tuple[str, str], value: float) -> "DipoleFunction":
        return cls(pair=tuple(pair), fn=lambda r: np.full_like(np.asarray(r, float), value))


@dataclass(frozen=True)
class CoupledModel:
    """Two spin-orbit coupled electronic channels.

    ``curves`` maps channel label to its potential; ``coupling`` is the
    off-diagonal xi(R) in Hartree; ``shift`` is one additive constant
    applied to both diagonal entries, used to pin the lowest coupled
    line to a measured transition energy.
    """

    labels: tuple[str, str]
    curves: tuple[PotentialCurve, PotentialCurve]
    coupling: Callable[[np.ndarray], np.ndarray]
    shift: float = 0.0

    def with_shift(self, shift: float) -> "CoupledModel":
        return CoupledModel(self.labels, self.curves, self.coupling, shift)

    @classmethod
    def constant_coupling(cls, labels, curves, xi: float) -> "CoupledModel":
        return cls(labels=tuple(labels), curves=tuple(curves),
                   coupling=lambda r: np.full_like(np.asarray(r, float), xi))


def calibrate_morse(b_e_cm1: float, omega_e_cm1: float, mass_amu: float,
                    d_e_cm1: float | None = None, label: str = "X") -> MorseCurve:
    """Build a Morse curve matching a rotational constant and frequency.

    The equilibrium distance comes from the rigid-rotor relation
    R_e = sqrt(hbar^2 / (2 mu B_e)) and the Morse range parameter from
    the harmonic match a = omega sqrt(mu / (2 D_e)).  When ``d_e_cm1``
    is omitted the well depth defaults to 25 * omega_e, an anharmonicity
    x_e = 1% that supports about 50 bound levels.  Depths supporting
    fewer than 20 levels are rejected.
    """
    if b_e_cm1 <= 0.0 or omega_e_cm1 <= 0.0 or mass_amu <= 0.0:
        raise CalibrationError("b_e, omega_e and mass must be positive")
    mu = mass_amu * AMU_TO_ME
    b_au = b_e_cm1 / HARTREE_TO_CM1
    omega_au = omega_e_cm1 / HARTREE_TO_CM1
    if d_e_cm1 is None:
        d_e_cm1 = 25.0 * omega_e_cm1
    d_au = d_e_cm1 / HARTREE_TO_CM1
    # Morse supports floor(2 D/omega - 1/2) + 1 bound levels
    n_bound = int(math.floor(2.0 * d_au / omega_au - 0.5)) + 1
    if n_bound < 20:
        raise CalibrationError(
            f"d_e = {d_e_cm1:g} cm^-1 supports only {n_bound} bound levels (< 20)"
        )
    r_e = 1.0 / math.sqrt(2.0 * mu * b_au)
    a = omega_au * math.sqrt(mu / (2.0 * d_au))
    return MorseCurve(label=label, d_e=d_au, a=a, r_e=r_e)
