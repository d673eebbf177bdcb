"""Electronic potential curves, transition dipoles, and coupled models.

Curves are functions of internuclear distance R (Bohr) returning energy
in Hartree.  Two concrete forms are provided: an analytic Morse curve
and a tabulated curve with cubic-spline interpolation.  A two-channel
spin-orbit coupled pair of curves is wrapped in :class:`CoupledModel`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import CalibrationError, DataFormatError
from .units import AMU_TO_ME, HARTREE_TO_CM1, Unit, convert

__all__ = [
    "PotentialCurve",
    "MorseCurve",
    "PointwiseCurve",
    "DipoleFunction",
    "CoupledModel",
    "load_pointwise",
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
        g = 1.0 - np.exp(-self.a * (r - self.r_e))
        out = self.asymptote - self.d_e + self.d_e * g * g
        return out if out.ndim else float(out)

    def harmonic_omega(self, mu: float) -> float:
        """Harmonic frequency at the minimum, mu in electron masses."""
        return self.a * math.sqrt(2.0 * self.d_e / mu)

    def analytic_levels(self, mu: float) -> np.ndarray:
        """Exact Morse spectrum (J = 0) in Hartree, mu in electron masses."""
        omega = self.harmonic_omega(mu)
        n_bound = int(math.floor(2.0 * self.d_e / omega - 0.5)) + 1
        v = np.arange(max(n_bound, 0)) + 0.5
        return self.asymptote - self.d_e + omega * v - (omega * v) ** 2 / (4.0 * self.d_e)


class PointwiseCurve(PotentialCurve):
    """Tabulated V(R) with cubic-spline interpolation.

    Outside the tabulated range the curve continues with an exponential
    wall fitted to the two innermost points (short range) and a constant
    equal to the last tabulated value (long range, the asymptote).
    """

    def __init__(self, label: str, r: Sequence[float], v: Sequence[float]):
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise DataFormatError("r and v must be 1-d arrays of equal length")
        if r.size < 8:
            raise DataFormatError(f"need at least 8 points, got {r.size}")
        dr = np.diff(r)
        if np.any(dr <= 0.0):
            i = int(np.argmax(dr <= 0.0))
            raise DataFormatError(
                f"radii must be strictly increasing; violation after R = {r[i]:g}"
            )
        self.label = label
        self.r_data = r
        self.v_data = v
        self.asymptote = float(v[-1])
        from scipy.interpolate import CubicSpline

        self._spline = CubicSpline(r, v, bc_type="natural")

        # short-range continuation: exponential wall above the asymptote
        w1 = v[0] - self.asymptote
        w2 = v[1] - self.asymptote
        if w1 > w2 > 0.0:
            self._wall_kappa = math.log(w1 / w2) / (r[1] - r[0])
            self._wall_amp = w1
        else:
            warnings.warn(
                f"curve {label!r}: innermost points are not on a repulsive "
                "wall, falling back to linear short-range extrapolation",
                stacklevel=2,
            )
            self._wall_kappa = None
            self._wall_slope = (v[1] - v[0]) / (r[1] - r[0])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        lo = r < self.r_data[0]
        hi = r > self.r_data[-1]
        mid = ~(lo | hi)
        out[mid] = self._spline(r[mid])
        if self._wall_kappa is not None:
            out[lo] = self.asymptote + self._wall_amp * np.exp(
                self._wall_kappa * (self.r_data[0] - r[lo])
            )
        else:
            out[lo] = self.v_data[0] + self._wall_slope * (r[lo] - self.r_data[0])
        out[hi] = self.asymptote
        return float(out[0]) if scalar else out


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
    def constant(cls, pair: tuple[str, str], value: float,
                 unit: Unit = Unit.EA0) -> "DipoleFunction":
        d = convert(value, unit, Unit.EA0)
        return cls(pair=tuple(pair), fn=lambda r: np.full_like(np.asarray(r, float), d))

    @classmethod
    def from_points(cls, pair: tuple[str, str], r: Sequence[float],
                    d: Sequence[float], r_unit: Unit = Unit.BOHR,
                    d_unit: Unit = Unit.EA0) -> "DipoleFunction":
        r = np.asarray([convert(x, r_unit, Unit.BOHR) for x in r])
        d = np.asarray([convert(x, d_unit, Unit.EA0) for x in d])
        if r.size < 2 or np.any(np.diff(r) <= 0):
            raise DataFormatError("dipole table needs >= 2 strictly increasing radii")
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(r, d, bc_type="natural")

        def fn(x):
            x = np.asarray(x, float)
            return spline(np.clip(x, r[0], r[-1]))

        return cls(pair=tuple(pair), fn=fn)


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
    def constant_coupling(cls, labels, curves, xi: float,
                          shift: float = 0.0) -> "CoupledModel":
        return cls(
            labels=tuple(labels),
            curves=tuple(curves),
            coupling=lambda r: np.full_like(np.asarray(r, float), xi),
            shift=shift,
        )


def load_pointwise(path: str | Path, label: str,
                   r_unit: Unit = Unit.BOHR,
                   v_unit: Unit = Unit.HARTREE) -> PointwiseCurve:
    """Read a two-column (R, V) table into a :class:`PointwiseCurve`.

    Columns are whitespace or comma separated; blank lines and lines
    starting with ``#`` are skipped.  Malformed rows raise
    :class:`DataFormatError` with the offending line number.
    """
    path = Path(path)
    rs: list[float] = []
    vs: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.replace(",", " ").split()
            if len(parts) != 2:
                raise DataFormatError(
                    f"{path.name}:{lineno}: expected 2 columns, got {len(parts)}"
                )
            try:
                r_val = float(parts[0])
                v_val = float(parts[1])
            except ValueError as exc:
                raise DataFormatError(
                    f"{path.name}:{lineno}: non-numeric entry {parts!r}"
                ) from exc
            rs.append(convert(r_val, r_unit, Unit.BOHR))
            vs.append(convert(v_val, v_unit, Unit.HARTREE))
    if len(rs) < 8:
        raise DataFormatError(f"{path.name}: need at least 8 points, got {len(rs)}")
    order = np.argsort(rs)
    rs_arr = np.asarray(rs)[order]
    vs_arr = np.asarray(vs)[order]
    if np.any(np.diff(rs_arr) == 0.0):
        i = int(np.argmax(np.diff(rs_arr) == 0.0))
        raise DataFormatError(f"{path.name}: duplicate radius R = {rs_arr[i]:g}")
    return PointwiseCurve(label, rs_arr, vs_arr)


def calibrate_morse(b_e_cm1: float, omega_e_cm1: float, mass_amu: float,
                    asymptote: float = 0.0, d_e_cm1: float | None = None,
                    label: str = "X") -> MorseCurve:
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
    return MorseCurve(label=label, d_e=d_au, a=a, r_e=r_e, asymptote=asymptote)
