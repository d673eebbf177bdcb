"""Angular-momentum algebra for linearly polarized light on a 1-Sigma rotor.

Contains the Wigner 3-j symbol (exact Racah summation in integers,
uncached: each call sums afresh), matrix elements of the
Racah spherical tensors C_kq in the |J, M> rotor basis, the closed-form
angular weight factors A and B that enter the dynamic polarizability of
a rotational level dressed by a J -> J -+ 1 vibronic transition, and the
rotational resonance offsets L_J and R_J of the two branches.

Conventions
-----------
The polarization angle ``theta_p`` is measured between the static
quantization axis (z) and the linear laser polarization.  ``A`` carries
the J' = J - 1 branch and ``B`` the J' = J + 1 branch; their sum obeys
``sum_M (A + B) = (2J + 1)/3`` and collapses to 1/3 for every (J, M)
at cos^2(theta_p) = 1/3.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = [
    "wigner3j",
    "rot_tensor_element",
    "AngularFactors",
    "angular_factors",
    "ResonanceOffsets",
    "resonance_offsets",
    "MAGIC_ANGLE_DEG",
]

# arccos(1/sqrt(3)), the angle where A + B = 1/3 independent of (J, M)
MAGIC_ANGLE_DEG = math.degrees(math.acos(1.0 / math.sqrt(3.0)))

_MAX_TWO_J = 40  # supported up to j = 20


def _as_int(value, message: str, minimum: float = -math.inf) -> int:
    """``value`` as a Python int, from any integral type (numpy's too);
    a non-integral value, or one below ``minimum``, raises ValueError(message)."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if n < minimum:
        raise ValueError(message)
    return n


def _as_two_j(x: float, name: str) -> int:
    two = 2.0 * x
    rounded = round(two)
    if abs(two - rounded) > 1e-9:
        raise ValueError(f"{name} = {x} is not integer or half-integer")
    return int(rounded)


def wigner3j(j1: float, j2: float, j3: float,
             m1: float, m2: float, m3: float) -> float:
    """Wigner 3-j symbol, exact rational evaluation rounded to float.

    Integer and half-integer angular momenta up to j = 20 are
    supported.  Violated selection rules (triangle condition, m-sum,
    |m| <= j) give 0.0; malformed arguments raise ValueError.
    """
    tj = [_as_two_j(j, n) for j, n in ((j1, "j1"), (j2, "j2"), (j3, "j3"))]
    tm = [_as_two_j(m, n) for m, n in ((m1, "m1"), (m2, "m2"), (m3, "m3"))]
    for t, name in zip(tj, ("j1", "j2", "j3")):
        if t < 0:
            raise ValueError(f"{name} must be non-negative")
        if t > _MAX_TWO_J:
            raise ValueError(f"{name} exceeds the supported maximum j = 20")
    for t, m in zip(tj, tm):
        if (t - m) % 2 != 0:
            # j and m differ by a non-integer: malformed pair
            raise ValueError("m must differ from j by an integer")
    tj1, tj2, tj3 = tj
    tm1, tm2, tm3 = tm
    # violated selection rules (m-sum, triangle, parity, |m| <= j) give 0.0
    if (tm1 + tm2 + tm3 != 0 or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2
            or (tj1 + tj2 + tj3) % 2 != 0 or any(abs(m) > t for t, m in zip(tj, tm))):
        return 0.0

    def f(two_n: int) -> int:
        # factorial of an argument given as twice its value
        if two_n % 2 != 0 or two_n < 0:
            raise ValueError("internal: factorial of a non-integer")
        return math.factorial(two_n // 2)

    # Racah's single-sum formula, evaluated exactly in integers: the symbol
    # squared is (pref_num / pref_den) (total_num / total_den)^2, divided once
    pref_num = (f(tj1 + tj2 - tj3) * f(tj1 - tj2 + tj3) * f(-tj1 + tj2 + tj3)
                * f(tj1 + tm1) * f(tj1 - tm1)
                * f(tj2 + tm2) * f(tj2 - tm2)
                * f(tj3 + tm3) * f(tj3 - tm3))
    pref_den = f(tj1 + tj2 + tj3 + 2)

    t_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    t_max = min(
        (tj1 + tj2 - tj3) // 2,
        (tj1 - tm1) // 2,
        (tj2 + tm2) // 2,
    )
    total_num, total_den = 0, 1
    for t in range(t_min, t_max + 1):
        denom = (
            math.factorial(t)
            * f(tj3 - tj2 + tm1 + 2 * t)
            * f(tj3 - tj1 - tm2 + 2 * t)
            * f(tj1 + tj2 - tj3 - 2 * t)
            * f(tj1 - tm1 - 2 * t)
            * f(tj2 + tm2 - 2 * t)
        )
        total_num = total_num * denom + (-total_den if t % 2 else total_den)
        total_den *= denom
    if total_num == 0:
        return 0.0

    phase = -1.0 if ((tj1 - tj2 - tm3) // 2) % 2 else 1.0
    sign = 1.0 if total_num > 0 else -1.0
    # int / int rounds the exact quotient once, as float(Fraction) does
    magnitude = math.sqrt(pref_num * total_num ** 2 / (pref_den * total_den ** 2))
    return phase * sign * magnitude


def rot_tensor_element(jp: int, mp: int, k: int, q: int,
                       j: int, m: int) -> float:
    """Matrix element <J' M'| C_kq |J M> of a Racah spherical tensor.

    Wigner-Eckart reduction for integer rotor states:

        (-1)^M' sqrt((2J'+1)(2J+1)) (J' k J; -M' q M) (J' k J; 0 0 0)
    """
    jp, k, j = (_as_int(val, f"{name} must be a non-negative integer", 0)
                for val, name in ((jp, "jp"), (k, "k"), (j, "j")))
    mp, q, m = (_as_int(val, f"{name} must be an integer")
                for val, name in ((mp, "mp"), (q, "q"), (m, "m")))
    if abs(mp) > jp or abs(m) > j or abs(q) > k:
        return 0.0
    geom = wigner3j(jp, k, j, -mp, q, m) * wigner3j(jp, k, j, 0, 0, 0)
    if geom == 0.0:
        return 0.0
    phase = -1.0 if mp % 2 else 1.0
    return phase * math.sqrt((2 * jp + 1) * (2 * j + 1)) * geom


@dataclass(frozen=True)
class AngularFactors:
    """Angular weights of the two rotational branches.

    ``a`` multiplies the J' = J - 1 (lower) branch, ``b`` the
    J' = J + 1 (upper) branch.  Both are dimensionless and depend on
    the polarization angle only through cos^2/sin^2.
    """

    a: float
    b: float

    @property
    def total(self) -> float:
        return self.a + self.b


def _check_j(j) -> int:
    """A rotational J as a Python int; anything else raises ValueError."""
    return _as_int(j, "j must be a non-negative integer", 0)


def _check_state(j, m) -> tuple[int, int]:
    """A rotor state (J, M) as Python ints; one that does not exist raises
    ValueError."""
    j = _check_j(j)
    m = _as_int(m, "m must be an integer with |m| <= j")
    if abs(m) > j:
        raise ValueError("m must be an integer with |m| <= j")
    return j, m


def angular_factors(j: int, m: int, theta_p: float) -> AngularFactors:
    """Closed-form branch weights A_JM and B_JM for linear polarization.

    Parameters
    ----------
    j, m : int
        Rotational quantum numbers, |m| <= j.
    theta_p : float
        Angle in radians between polarization and quantization axis.
    """
    j, m = _check_state(j, m)
    cos2 = math.cos(theta_p) ** 2
    sin2 = math.sin(theta_p) ** 2

    if j == 0:
        a = 0.0
    elif abs(m) == j:
        a = (j + abs(m)) * (j + abs(m) - 1) * sin2 / (4 * (2 * j + 1) * (2 * j - 1))
    else:
        den = 2 * (2 * j + 1) * (2 * j - 1)
        a = ((j * (j + 1) - 3 * m * m) * cos2 + (j - 1) * j + m * m) / den

    den_b = 2 * (2 * j + 1) * (2 * j + 3)
    b = ((j * (j + 1) - 3 * m * m) * cos2 + (j + 1) * (j + 2) + m * m) / den_b
    return AngularFactors(a=a, b=b)


@dataclass(frozen=True)
class ResonanceOffsets:
    """Rotational offsets of the two branch resonances.

    For a level (v, J) probed near the vibronic line referenced to the
    (J = 0 -> J' = 1) transition, the lower branch (J' = J - 1) sits at
    detuning -L and the upper branch (J' = J + 1) at -R.  Units follow
    the B constants passed in.
    """

    l: float
    r: float


def resonance_offsets(j: int, b_v: float, b_vprime: float) -> ResonanceOffsets:
    """Branch offsets L_J and R_J from the two rotational constants.

    L_J = J(J+1) B_v - [J(J-1) - 2] B_v'
    R_J = J(J+1) B_v - [(J+1)(J+2) - 2] B_v'

    R_0 = 0 exactly: for J = 0 the only resonance is the reference line
    itself.
    """
    j = _check_j(j)
    jj = j * (j + 1)
    l = jj * b_v - (j * (j - 1) - 2) * b_vprime
    r = jj * b_v - ((j + 1) * (j + 2) - 2) * b_vprime
    return ResonanceOffsets(l=l, r=r)
