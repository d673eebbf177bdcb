"""Search for magic trapping conditions.

A magic condition is a zero of the differential polarizability between
two states changed by one knob: the trap-laser detuning (rotational
state pairs, closed-form polarizability) or the linear-polarization
angle (hyperfine eigenstate pairs).  Every search is one call of
``_bracketed_root``, a bracketed Newton-bisection (``rtsafe``): it takes
Newton steps on the objective's slope, and bisects the bracket where a step
would leave it or stall.  Every objective returns its value and its slope
as a function of no arguments, which the search calls only where it reads
the slope: at each interior abscissa, and at a bracket end only if that
end is the root.
The slope is in closed form for the detuning (the derivative of the branch
poles' sum) and the bare angle (A + B is affine in cos^2), and the
Hellmann-Feynman slope of each step's kept eigenpairs for the eigen angle,
so the eigen search computes the two named states' slopes nowhere else.

Detunings are in GHz relative to the reference line of the
:class:`~magictrap.polarizability.PolarizabilitySpec`; angles are in
degrees against the quantization axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .angular import angular_factors
from .errors import CalibrationError, NoRootError, PoleProximityError
from .hyperfine import TERMS, FieldConfiguration, _angle_solver, _rot_index, build_basis
from .polarizability import PolarizabilitySpec, _branches, alpha_analytic, line_strength
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
# same for angle roots, in Hz/(W/cm^2)
ANGLE_RESIDUAL_TOL = 1e-6
# smallest |<v|u>| an eigen angle search accepts between the vector it picks
# for a state and the one it picked at the nearest earlier angle: searches
# over 0.10-2.00 kV/cm read at least 0.998, and those that swap states 0.000
PICK_OVERLAP_MIN = 0.5


@dataclass(frozen=True)
class MagicSolution:
    """A located magic condition.

    ``location`` is a detuning in GHz for kind ``"detuning"`` and an
    angle in degrees for kind ``"angle"``.  ``residual`` is the
    objective, the differential polarizability, at the root.  ``slope``
    is its derivative there, how fast a drifting knob spoils the magic
    condition: in a.u. per GHz for a detuning and in Hz/(W/cm^2) per
    degree for an angle.  Every search sets it; it is NaN when not given.
    """

    kind: str
    location: float
    state_a: tuple
    state_b: tuple
    residual: float
    bracket: tuple[float, float]
    slope: float = math.nan

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


def _detuning_slope(spec: PolarizabilitySpec, state_a, state_b, theta_p: float):
    """d(alpha_a - alpha_b)/d(detuning) in a.u. per GHz, as a function of the
    detuning in GHz: the derivative of each branch term that ``_branches``
    lists for :func:`alpha_analytic`, S w / (nu - E + offset)^2.  The table
    does not depend on nu and is built once.  Where a pole lies so far
    away that its squared distance overflows (beyond ~1e154 Eh, from a
    detuning or a rotational constant of ~1e300), the slope raises
    :class:`NoRootError` naming the detuning."""
    terms = [(sign * line_strength(ln) * w, ln.energy, offset)
             for sign, (j, m) in ((1.0, state_a), (-1.0, state_b))
             for ln, branches in _branches(spec, j, m, theta_p)[1]
             for w, offset in branches]
    ref = spec.reference.energy

    def slope(delta_ghz: float) -> float:
        nu = ref + delta_ghz / HARTREE_TO_GHZ
        try:
            return sum(c / (nu - e + offset) ** 2 for c, e, offset in terms) / HARTREE_TO_GHZ
        except OverflowError:
            raise NoRootError(
                f"the slope at detuning {delta_ghz:g} GHz overflows: the squared distance "
                "to a branch pole exceeds the float range") from None

    return slope


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


def _state_picker(basis, state):
    """The function of ``dominant``, each eigenvector's (J, M) as an index
    into ``basis.rot_states``, that gives the eigenstate ``state``, (J, M)
    or (J, M, rank), names.  The (J, M) index is looked up once, here."""
    j, m = state[0], state[1]
    rank = state[2] if len(state) > 2 else None
    index = _rot_index(basis, (j, m))

    def pick(dominant: np.ndarray) -> int:
        matches = (dominant == index).nonzero()[0]
        if not len(matches):
            raise ValueError(f"no eigenstate with dominant character (J={j}, M={m})")
        if rank is None:
            if len(matches) > 1:
                raise ValueError(
                    f"{len(matches)} eigenstates share character (J={j}, M={m}); "
                    "pass (J, M, rank) to pick one"
                )
            return int(matches[0])
        if not 0 <= rank < len(matches):
            raise ValueError(
                f"rank {rank} out of range for character (J={j}, M={m}) "
                f"with {len(matches)} states"
            )
        return int(matches[rank])

    return pick


def _bare_objective(fields: FieldConfiguration, state_a, state_b):
    """The search's objective of theta in degrees by the bare closed form:
    alpha_a - alpha_b and its slope per degree, a function of no arguments."""
    # A + B is affine in cos^2(theta): d/d(theta) is -(total(0) - total(90)) sin 2 theta
    c = fields.constants
    swing = (c.alpha_par - c.alpha_perp) * sum(
        sign * (angular_factors(j, m, 0.0).total - angular_factors(j, m, math.pi / 2).total)
        for sign, (j, m, *_) in ((1.0, state_a), (-1.0, state_b)))

    def objective(theta: float) -> tuple[float, Callable[[], float]]:
        value = (_bare_alpha(fields, state_a[0], state_a[1], theta)
                 - _bare_alpha(fields, state_b[0], state_b[1], theta))
        return value, lambda: -math.radians(swing * math.sin(2.0 * math.radians(theta)))

    return objective


def _eigen_objective(fields: FieldConfiguration, state_a, state_b, terms, j_max: int):
    """The search's objective of theta in degrees in the ``j_max`` hyperfine
    basis: alpha_a - alpha_b and its slope per degree, a function of no
    arguments over the step's kept eigenpairs.

    Each state's eigenvector is checked against the one picked for it at
    the nearest angle evaluated before: an overlap below
    :data:`PICK_OVERLAP_MIN` means the (J, M, rank) label has moved to
    another state in between, and raises :class:`NoRootError`.
    """
    basis = build_basis(j_max, fields.constants)
    solve = _angle_solver(basis, fields, terms)
    pick_a, pick_b = _state_picker(basis, state_a), _state_picker(basis, state_b)
    picked = []  # (theta, vector of state_a, vector of state_b) per angle evaluated

    def objective(theta: float) -> tuple[float, Callable[[], float]]:
        _, vectors, dominant, alphas = solve(math.radians(theta))
        i_a, i_b = pick_a(dominant), pick_b(dominant)
        v_a, v_b = vectors[:, i_a], vectors[:, i_b]
        if picked:
            near, u_a, u_b = min(picked, key=lambda p: abs(p[0] - theta))
            for state, v, u in ((state_a, v_a, u_a), (state_b, v_b, u_b)):
                overlap = abs(float(v @ u))
                if overlap < PICK_OVERLAP_MIN:
                    raise NoRootError(
                        f"the eigenstate picked for state {tuple(state)} at "
                        f"{theta:.6f} degrees overlaps the one picked at {near:.6f} "
                        f"degrees by {overlap:.3f}, below {PICK_OVERLAP_MIN}: the label "
                        "names another state in between, so the search cannot follow it")
        picked.append((theta, v_a, v_b))
        slopes = solve.slopes(i_a, i_b)

        def slope() -> float:
            # per degree: d/d(theta in degrees) = (pi / 180) d/d(theta in radians)
            slope_a, slope_b = slopes()
            return math.radians(slope_a - slope_b)

        return float(alphas[i_a] - alphas[i_b]), slope

    return objective


def _poles_in_window(spec: PolarizabilitySpec, js: Sequence[int], m: int,
                     theta_p: float, lo: float, hi: float) -> list[tuple[int, float]]:
    """Branch poles (J, detuning GHz) listed by ``_branches`` that a detuning
    in [lo, hi] reaches.  The test is on the photon energy
    nu = E_ref + detuning / HARTREE_TO_GHZ, as the objective and its slope
    evaluate it: a pole is reached where its branch's (nu - E) + offset is
    zero at an end or changes sign between them.  A window narrower than
    nu resolves maps onto a pole that it excludes in GHz."""
    ref = spec.reference.energy
    nu_lo, nu_hi = ref + lo / HARTREE_TO_GHZ, ref + hi / HARTREE_TO_GHZ
    found = []
    for j in sorted(set(js)):
        for ln, branches in _branches(spec, j, m, theta_p)[1]:
            base_ghz = (ln.energy - ref) * HARTREE_TO_GHZ
            for _, offset in branches:
                if (nu_lo - ln.energy) + offset <= 0.0 <= (nu_hi - ln.energy) + offset:
                    found.append((j, base_ghz - offset * HARTREE_TO_GHZ))
    return found


# iteration limit of every search
MAXITER = 100


def _checked(x: float, fx) -> float:
    """``fx`` as a Python float; NaN is refused."""
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _bracketed_root(objective, bracket: tuple[float, float], xtol: float, tol: float,
                    unit: str, value_unit: str = "") -> tuple[float, float, float]:
    """Root of ``objective`` inside ``bracket`` (in ``unit``), its residual
    and the slope there.  ``objective(x)`` returns f(x) and a function of no
    arguments that computes f'(x).  Each abscissa is evaluated once and its
    slope read at most once: an interior abscissa's as it is evaluated, an
    end's only when that end, unmoved, is the root.

    Newton-bisection as ``rtsafe`` (Press et al., Numerical Recipes, 3rd
    ed., section 9.4): from the midpoint, each step is Newton's when it
    lands inside the bracket and is under half the step before last, and
    halves the bracket otherwise; an inf, NaN or zero slope halves it.
    Unlike ``rtsafe``, every evaluation narrows the bracket.  Once the next
    Newton step is shorter than ``xtol`` the root is the last abscissa
    evaluated; once the bracket is, it is the end with the smaller |f|,
    as in Brent's method.  Either way the residual and slope returned are
    f and f' there.

    Raises ValueError unless lo < hi and where f is NaN, and
    :class:`NoRootError` where an end is itself a root, without a sign
    change, after :data:`MAXITER` steps without convergence or when
    |residual| > ``tol`` (in ``value_unit``).
    """
    a, b = bracket
    if not a < b:
        raise ValueError(f"bracket ({a}, {b}) {unit} must have lo < hi")
    (f_a, df_a), (f_b, df_b) = objective(a), objective(b)
    for name, end, f_end in (("lo", a, f_a), ("hi", b, f_b)):
        if f_end == 0.0:
            raise NoRootError(
                f"bracket end {name} = {end} {unit} lies on a root (f = 0): move it off "
                "the root, so that the root lies strictly inside the bracket")
    # a NaN end has no sign and passes, for _checked to refuse
    if (f_a > 0.0 and f_b > 0.0) or (f_a < 0.0 and f_b < 0.0):
        raise NoRootError(
            f"no sign change over ({a}, {b}) {unit}: "
            f"f(lo) = {f_a:.6e}, f(hi) = {f_b:.6e}{value_unit}"
        )
    # (x, f, slope function) at the ends, f(lo) < 0 < f(hi); lo > hi where f falls
    lo, hi = (a, _checked(a, f_a), df_a), (b, _checked(b, f_b), df_b)
    if lo[1] > 0.0:
        lo, hi = hi, lo
    x, step_old, step = 0.5 * (a + b), b - a, b - a
    for _ in range(MAXITER):
        fx, df = objective(x)
        fx, dfx = _checked(x, fx), df()
        if fx == 0.0:
            break
        # an evaluated abscissa keeps the slope read there, so none is read twice
        if fx < 0.0:
            lo = x, fx, lambda dfx=dfx: dfx
        else:
            hi = x, fx, lambda dfx=dfx: dfx
        newton = fx / dfx if math.isfinite(dfx) and dfx != 0.0 else math.nan
        # NaN fails both tests
        if min(lo[0], hi[0]) < x - newton < max(lo[0], hi[0]) and 2.0 * abs(newton) <= step_old:
            if abs(newton) < xtol:
                break
            dx = newton
        else:
            if abs(hi[0] - lo[0]) < xtol:
                other = hi if fx < 0.0 else lo
                if abs(other[1]) < abs(fx):
                    x, fx, dfx = other[0], other[1], other[2]()
                break
            dx = x - 0.5 * (lo[0] + hi[0])
        step_old, step = step, abs(dx)
        x -= dx
    else:
        raise NoRootError(f"Newton-bisection did not converge in {MAXITER} steps "
                          f"(last x = {x:.6e}, f = {fx:.6e})")
    # the root is x, its residual fx and the slope there dfx
    if abs(fx) > tol:
        # only an eigenstate with a degenerate partner has an inf or NaN slope
        cause = ("" if math.isfinite(dfx) else
                 f"; the slope there is {dfx}, so a named state is degenerate "
                 "and names no single eigenstate")
        raise NoRootError(
            f"root at {x:.6f} {unit} fails the residual check: "
            f"|{fx:.3e}| > {tol}{value_unit}{cause}"
        )
    return x, fx, dfx


def find_magic_detuning(spec: PolarizabilitySpec, j_a: int, j_b: int,
                        m: int = 0, theta_p: float = 0.0,
                        bracket: tuple[float, float] = (30.0, 300.0)
                        ) -> MagicSolution:
    """Detuning (GHz) where the (j_a, m) and (j_b, m) polarizabilities cross.

    The bracket must exclude every branch pole of both states and the
    objective must change sign across it; violations raise
    :class:`PoleProximityError` / :class:`NoRootError` rather than
    returning a nearest-miss root.  The poles are those that
    ``polarizability._branches`` lists for :func:`alpha_analytic`.  The
    search evaluates each photon energy it reaches once.
    """
    lo, hi = bracket
    poles = _poles_in_window(spec, (j_a, j_b), m, theta_p, lo, hi)
    if poles:
        listing = ", ".join(f"J={j} at {p:+.4f} GHz" for j, p in poles)
        raise PoleProximityError(f"bracket ({lo}, {hi}) GHz contains poles: {listing}")

    slope = _detuning_slope(spec, (j_a, m), (j_b, m), theta_p)
    ref = spec.reference.energy
    # f and f' read the detuning only as nu = E_ref + detuning / HARTREE_TO_GHZ,
    # which resolves it to ~5e-11 GHz: an abscissa at a nu this search has
    # evaluated gets the f and f' it got there.  f' is computed with f, so
    # an overflowing slope raises where its abscissa is evaluated
    evaluated = {}

    def objective(delta: float) -> tuple[float, Callable[[], float]]:
        nu = ref + delta / HARTREE_TO_GHZ
        if nu not in evaluated:
            value, d = _detuning_objective(spec, (j_a, m), (j_b, m), delta, theta_p), slope(delta)
            evaluated[nu] = value, lambda: d
        return evaluated[nu]

    root, residual, slope_at_root = _bracketed_root(objective, bracket, 1e-12,
                                                    DETUNING_RESIDUAL_TOL, "GHz", " a.u.")
    return MagicSolution(
        kind="detuning", location=float(root),
        state_a=(j_a, m), state_b=(j_b, m),
        residual=float(residual), bracket=(float(lo), float(hi)), slope=slope_at_root,
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
    dominant character, with an explicit rank for repeated labels; under
    "bare" each (J, M) is one state, and a rank other than 0 raises
    ValueError.  ``"auto"`` picks "eigen" exactly when an active
    quadrupole or dc Stark term breaks the bare picture.

    Both find the root to 1e-8 degrees inside ``bracket`` by Newton-bisection
    (``_bracketed_root``) on the slope per degree, which the solution reports
    as ``slope``: in closed form for "bare", Hellmann-Feynman for "eigen".
    """
    eigen = _angle_method(fields, terms, method) == "eigen"
    lo, hi = bracket
    if not 0.0 <= lo < hi <= 180.0:
        raise ValueError("angle bracket must satisfy 0 <= lo < hi <= 180 degrees")
    for name, state in (("rank_a", state_a), ("rank_b", state_b)):
        if not eigen and len(state) > 2 and state[2] != 0:
            raise ValueError(f"{name} = {state[2]} names no state: the bare method "
                             "has one state per (J, M), rank 0")
    objective = (_eigen_objective(fields, state_a, state_b, terms, j_max) if eigen
                 else _bare_objective(fields, state_a, state_b))
    root, residual, slope = _bracketed_root(objective, bracket, 1e-8, ANGLE_RESIDUAL_TOL,
                                            "degrees")
    return MagicSolution(
        kind="angle", location=float(root),
        state_a=tuple(state_a), state_b=tuple(state_b),
        residual=float(residual), bracket=(float(lo), float(hi)), slope=slope,
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
