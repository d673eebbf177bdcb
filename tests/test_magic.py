"""Root finding for magic detunings and magic polarization angles."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import magictrap as mt
from magictrap.angular import MAGIC_ANGLE_DEG
from magictrap.config import load_config
from magictrap.errors import CalibrationError, NoRootError, PoleProximityError
from magictrap.units import HARTREE_TO_GHZ
from magictrap.magic import (
    ANGLE_RESIDUAL_TOL,
    DETUNING_RESIDUAL_TOL,
    MagicSolution,
    _poles_in_window,
    _rtsafe,
    calibrate_gamma,
    find_magic_angle,
    find_magic_detuning,
)

BARE_TERMS = {"rotation", "polarization", "zeeman"}


def default_fields(**overrides):
    return replace(load_config().field_configuration(), **overrides)


def test_scan_constants_are_frozen():
    assert DETUNING_RESIDUAL_TOL == 1e-10
    assert ANGLE_RESIDUAL_TOL == 1e-6


def test_bare_magic_angle_is_the_geometric_one():
    fields = default_fields(b_field=0.0)
    sol = find_magic_angle(fields, (1, 0), (0, 0), terms=BARE_TERMS)
    assert sol.kind == "angle"
    assert sol.location == pytest.approx(MAGIC_ANGLE_DEG, abs=1e-6)
    assert abs(sol.residual) <= ANGLE_RESIDUAL_TOL


def test_bare_magic_angle_for_m1_pair():
    # (1, +/-1) crosses J=0 at the same geometric angle from below
    fields = default_fields(b_field=0.0)
    sol = find_magic_angle(fields, (1, 1), (0, 0), terms=BARE_TERMS)
    assert sol.location == pytest.approx(MAGIC_ANGLE_DEG, abs=1e-6)


def test_magic_angle_bracket_without_root():
    fields = default_fields(b_field=0.0)
    with pytest.raises(NoRootError, match=r"no sign change over \(0.0, 30.0\)"):
        find_magic_angle(fields, (1, 0), (0, 0), bracket=(0.0, 30.0),
                         terms=BARE_TERMS)


def test_magic_angle_bracket_validation():
    fields = default_fields(b_field=0.0)
    with pytest.raises(ValueError, match="0 <= lo < hi <= 180"):
        find_magic_angle(fields, (1, 0), (0, 0), bracket=(-5.0, 30.0))
    with pytest.raises(ValueError, match="unknown method"):
        find_magic_angle(fields, (1, 0), (0, 0), method="secant")


def test_eigen_magic_angle_with_dc_field():
    """Full-diagonalization search stays near the geometric angle.

    A 0.5 kV/cm dc field decouples the nuclear spins, so every
    (J=1, M=0)-character state crosses the J=0 manifold within a small
    fraction of a degree of the bare angle.
    """
    fields = default_fields(e_field=0.5)
    roots = []
    for rank in range(3):
        sol = find_magic_angle(fields, (1, 0, rank), (0, 0, 0),
                               bracket=(40.0, 70.0))
        assert 45.0 < sol.location < 65.0
        assert abs(sol.residual) <= ANGLE_RESIDUAL_TOL
        roots.append(sol.location)
    assert max(roots) - min(roots) < 0.05


def test_eigen_magic_angle_sizes_the_basis_from_the_spins():
    # a spin-5/2 Na gives 24 (J=1, M=0)-character states, spin 3/2 only 16
    fields = default_fields(e_field=0.1)
    wide = replace(fields, constants=replace(fields.constants, i_a=2.5))
    sol = find_magic_angle(wide, (1, 0, 20), (0, 0, 0), bracket=(40.0, 70.0),
                           method="eigen")
    assert 40.0 < sol.location < 70.0
    assert abs(sol.residual) <= ANGLE_RESIDUAL_TOL
    with pytest.raises(ValueError, match="rank 20 out of range"):
        find_magic_angle(fields, (1, 0, 20), (0, 0, 0), bracket=(40.0, 70.0),
                         method="eigen")


def test_quadrupole_shifts_the_magic_angle():
    # at the default operating point the eigen search must disagree
    # with the bare geometric angle by a visible margin
    sol = find_magic_angle(default_fields(), (1, 0, 0), (0, 0, 0))
    assert abs(sol.location - MAGIC_ANGLE_DEG) > 0.5


# the (J, M, rank) pairs the bench's eigen angle searches draw, at the two
# ends of its dc-field range
BENCH_ANGLE_PAIRS = (
    ((1, 0, 0), (0, 0, 0)),
    ((1, 0, 1), (0, 0, 1)),
    ((1, 1, 0), (0, 0, 0)),
    ((1, -1, 0), (0, 0, 0)),
)
ANGLE_SEARCH_CASES = [
    pytest.param(0.5, (1, 0, 0), (0, 0, 0), id="0.5-state_a0"),
    pytest.param(2.0, (1, -1, 0), (0, 0, 0), id="2.0-state_a1"),
    *(pytest.param(e_field, a, b, id=f"{e_field}-{a[0]},{a[1]},{a[2]}-{b[0]},{b[1]},{b[2]}")
      for e_field in (0.1, 2.0) for a, b in BENCH_ANGLE_PAIRS
      if (e_field, a, b) != (2.0, (1, -1, 0), (0, 0, 0))),  # the case 2.0-state_a1
]


def _public_objective(fields, state_a, state_b):
    """alpha_a - alpha_b of theta in degrees over the public
    build_hamiltonian -> diagonalize -> eigenstate_polarizability chain."""
    basis = mt.build_basis(1, fields.constants)

    def reference(theta):
        at = replace(fields, theta_p=math.radians(theta))
        sol = mt.eigenstate_polarizability(
            mt.diagonalize(mt.build_hamiltonian(basis, at), basis), at)
        alphas = sol.polarizabilities
        return float(alphas[sol.select(state_a[:2])[state_a[2]]]
                     - alphas[sol.select(state_b[:2])[state_b[2]]])

    return reference


@pytest.mark.parametrize("e_field, state_a, state_b", ANGLE_SEARCH_CASES)
def test_eigen_angle_search_solves_each_abscissa_once(e_field, state_a, state_b, monkeypatch):
    """Each Newton abscissa is eigensolved once.  The search returns a root
    within its 1e-8 degree tolerance of a tight brentq over the public
    build/diagonalize/alpha chain, that chain's value at the root as the
    residual, and its slope there."""
    fields = default_fields(e_field=e_field)
    reference = _public_objective(fields, state_a, state_b)
    root = brentq(reference, 40.0, 70.0, xtol=1e-13, rtol=8.9e-16)
    solved = []
    eigensolve = mt.hyperfine._eigensolve

    def recording(h, basis):
        solved.append(h.tobytes())
        return eigensolve(h, basis)

    monkeypatch.setattr(mt.hyperfine, "_eigensolve", recording)
    sol = find_magic_angle(fields, state_a, state_b, bracket=(40.0, 70.0), method="eigen")
    # diagonalize runs the spied core too: the reference runs after the spy
    monkeypatch.undo()
    assert len(solved) >= 3 and len(set(solved)) == len(solved)
    assert abs(sol.location - root) <= 1e-8
    assert sol.residual == reference(sol.location)
    h = 1e-5
    difference = (reference(sol.location + h) - reference(sol.location - h)) / (2 * h)
    assert sol.slope == pytest.approx(difference, rel=1e-5)


# fields (kV/cm) and pairs where the eigenstate a label picks at 70 degrees is
# another state than at 40; the searches returned 55.4916 and 53.9393 degrees
SWAPPED_PICKS = [(0.06, (1, 0, 0), (0, 0, 0)), (0.06, (1, 0, 1), (0, 0, 1))]


@pytest.mark.parametrize("e_field", [0.05, 0.06, 0.07, 0.08, 0.09])
def test_eigen_search_refuses_a_pick_that_changes_state(e_field, monkeypatch):
    """Below the bench's 0.10 kV/cm each search either gives what it gives
    with the overlap check off (every root, and every refusal for another
    cause, unchanged) or, where a label names another state at the far end
    of the bracket, raises NoRootError naming the state, both angles and
    the overlap instead of returning a crossing of states it did not name."""
    fields = default_fields(e_field=e_field)

    def search(state_a, state_b):
        try:
            return find_magic_angle(fields, state_a, state_b, bracket=(40.0, 70.0),
                                    method="eigen")
        except NoRootError as exc:
            return exc

    for state_a, state_b in BENCH_ANGLE_PAIRS:
        checked = search(state_a, state_b)
        with monkeypatch.context() as patch:
            patch.setattr(mt.magic, "PICK_OVERLAP_MIN", 0.0)
            unchecked = search(state_a, state_b)
        if (e_field, state_a, state_b) in SWAPPED_PICKS:
            assert isinstance(unchecked, MagicSolution)
            assert unchecked.location == pytest.approx(
                {0: 55.4916, 1: 53.9393}[state_a[2]], abs=1e-4)
            assert isinstance(checked, NoRootError)
            assert re.fullmatch(
                rf"the eigenstate picked for state \(1, 0, {state_a[2]}\) at 70\.000000 "
                r"degrees overlaps the one picked at 40\.000000 degrees by 0\.000, below "
                r"0\.5: .*", str(checked))
        elif isinstance(unchecked, NoRootError):
            assert str(checked) == str(unchecked)
        else:
            assert checked == unchecked
    # the two roots near the swaps follow their named states (tracked at 0.02 degrees)
    if e_field in (0.05, 0.08):
        assert search((1, 0, 0), (0, 0, 0)).location == pytest.approx(
            {0.05: 43.77, 0.08: 61.63}[e_field], abs=5e-3)


def test_eigen_angle_searches_take_at_most_6_eigensolves_on_average(monkeypatch):
    """Newton steps on the analytic slope: over the cases above Brent
    iteration took about 8 eigensolves per search."""
    counts = []
    eigensolve = mt.hyperfine._eigensolve

    def counting(h, basis):
        counts[-1] += 1
        return eigensolve(h, basis)

    monkeypatch.setattr(mt.hyperfine, "_eigensolve", counting)
    for case in ANGLE_SEARCH_CASES:
        e_field, state_a, state_b = case.values
        counts.append(0)
        find_magic_angle(default_fields(e_field=e_field), state_a, state_b,
                         bracket=(40.0, 70.0), method="eigen")
    assert sum(counts) / len(counts) <= 6.0


def test_every_search_reports_its_slope(narb_spec):
    """Each kind of search reports d(Delta alpha)/d(knob) at its root: the
    detuning ladder against a central difference over exact nu steps, the
    bare and eigen angle searches against one over the angle."""
    def differential(nu, j_b):
        return mt.alpha_analytic(narb_spec, nu, 0, 0) - mt.alpha_analytic(narb_spec, nu, j_b, 0)

    ref = narb_spec.reference.energy
    for j_b in range(1, 6):
        sol = find_magic_detuning(narb_spec, 0, j_b, bracket=(60.0, 140.0))
        nu = ref + sol.location / HARTREE_TO_GHZ
        below, above = nu - 1e-3 / HARTREE_TO_GHZ, nu + 1e-3 / HARTREE_TO_GHZ
        difference = ((differential(above, j_b) - differential(below, j_b))
                      / ((above - below) * HARTREE_TO_GHZ))
        assert sol.slope == pytest.approx(difference, rel=1e-8)

    fields = default_fields(b_field=0.0)
    bare = find_magic_angle(fields, (1, 0), (0, 0), terms=BARE_TERMS)
    assert round(bare.slope, 4) == -0.2555

    def bare_objective(theta):
        return (mt.magic._bare_alpha(fields, 1, 0, theta)
                - mt.magic._bare_alpha(fields, 0, 0, theta))

    h = 1e-3
    difference = (bare_objective(bare.location + h) - bare_objective(bare.location - h)) / (2 * h)
    assert bare.slope == pytest.approx(difference, rel=1e-7)

    fields = default_fields(e_field=0.5)
    eigen = find_magic_angle(fields, (1, 0, 0), (0, 0, 0), bracket=(40.0, 70.0), method="eigen")
    reference = _public_objective(fields, (1, 0, 0), (0, 0, 0))
    h = 1e-5
    difference = (reference(eigen.location + h) - reference(eigen.location - h)) / (2 * h)
    assert eigen.slope == pytest.approx(difference, rel=1e-5)


@pytest.mark.parametrize("state_a, message", [
    ((2, 0, 0), r"no eigenstate with dominant character \(J=2, M=0\)"),
    ((1, 0), r"16 eigenstates share character \(J=1, M=0\); pass \(J, M, rank\)"),
    ((1, 0, 16), r"rank 16 out of range for character \(J=1, M=0\) with 16 states"),
], ids=["outside-the-basis", "unranked", "rank-too-high"])
def test_eigen_search_says_why_it_cannot_pick_a_state(state_a, message):
    with pytest.raises(ValueError, match=message):
        find_magic_angle(default_fields(e_field=0.5), state_a, (0, 0, 0),
                         bracket=(40.0, 70.0), method="eigen")


def test_detuning_search_evaluates_each_abscissa_once(narb_spec, monkeypatch):
    objective = mt.magic._detuning_objective
    expected = brentq(lambda d: objective(narb_spec, (0, 0), (2, 0), d, 0.0),
                      60.0, 140.0, xtol=1e-13, rtol=8.9e-16)
    deltas = []

    def recording(spec, state_a, state_b, delta, theta_p):
        deltas.append(delta)
        return objective(spec, state_a, state_b, delta, theta_p)

    monkeypatch.setattr(mt.magic, "_detuning_objective", recording)
    sol = find_magic_detuning(narb_spec, 0, 2, bracket=(60.0, 140.0))
    assert abs(sol.location - expected) <= 1e-10
    assert sol.residual == objective(narb_spec, (0, 0), (2, 0), sol.location, 0.0)
    assert len(deltas) >= 3 and len(set(deltas)) == len(deltas)


@pytest.mark.parametrize("j_b", [1, 2, 3, 4, 5])
def test_detuning_ladder_roots_match_brentq(narb_spec, j_b):
    """nu resolves the detuning only to ~5e-11 GHz, so the root is tight
    brentq's to within a few steps of that staircase."""
    def objective(d):
        return mt.magic._detuning_objective(narb_spec, (0, 0), (j_b, 0), d, 0.0)

    sol = find_magic_detuning(narb_spec, 0, j_b, bracket=(60.0, 140.0))
    root = brentq(objective, 60.0, 140.0, xtol=1e-13, rtol=8.9e-16)
    assert abs(sol.location - root) <= 1e-10
    assert sol.residual == objective(sol.location)


@pytest.mark.parametrize("useless", [math.nan, math.inf, 0.0])
def test_newton_bisection_halves_the_bracket_without_a_usable_slope(useless):
    """An inf, NaN or zero slope takes no Newton step: the bracket is halved
    until it is shorter than xtol, and the root is the end of that bracket
    with the smaller |f|, returned with f there."""
    evaluated = {}

    def f_df(x):
        evaluated[x] = math.tanh(3.0 * (x - 0.4))
        return evaluated[x], useless

    # the last abscissa evaluated is the end with the larger |f| here
    a, b = -1.0, 2.0
    root, f_root, slope = _rtsafe(f_df, a, b, f_df(a), f_df(b), 1e-10)
    assert abs(root - 0.4) < 1e-10 and f_root == evaluated[root]
    lo = max(x for x, fx in evaluated.items() if fx < 0.0)
    hi = min(x for x, fx in evaluated.items() if fx > 0.0)
    assert hi - lo < 1e-10
    assert abs(f_root) == min(abs(evaluated[lo]), abs(evaluated[hi]))


def test_magic_detuning_default_bracket(narb_spec):
    sol = find_magic_detuning(narb_spec, 0, 1)
    assert sol.kind == "detuning"
    assert sol.state_a == (0, 0) and sol.state_b == (1, 0)
    assert sol.location == pytest.approx(103.0, abs=1e-6)
    assert abs(sol.residual) <= DETUNING_RESIDUAL_TOL


def test_detuning_search_skips_the_validity_notes(narb_spec, monkeypatch):
    """The search reads alpha and its closed-form slope, so no step builds
    the notes."""
    expected = find_magic_detuning(narb_spec, 0, 1)

    def refuse(*args):
        raise AssertionError("validity notes built inside the search")

    monkeypatch.setattr(mt.polarizability, "validity_notes", refuse)
    sol = find_magic_detuning(narb_spec, 0, 1)
    assert (sol.location, sol.residual) == (expected.location, expected.residual)
    calibrate_gamma(narb_spec, (0, 1), 103.0)


def test_magic_detuning_is_bracket_independent(narb_spec):
    wide = find_magic_detuning(narb_spec, 0, 1, bracket=(60.0, 140.0))
    narrow = find_magic_detuning(narb_spec, 0, 1, bracket=(80.0, 120.0))
    assert abs(wide.location - narrow.location) < 1e-3


def test_magic_detuning_refuses_brackets_with_poles(narb_spec):
    with pytest.raises(PoleProximityError) as err:
        find_magic_detuning(narb_spec, 0, 1, bracket=(-10.0, 10.0))
    message = str(err.value)
    assert "J=0 at +0.0000 GHz" in message
    assert "J=1 at -8.3690 GHz" in message
    assert "J=1 at +4.2007 GHz" in message


@pytest.mark.parametrize("width", ["bundled", "zero"])
@pytest.mark.parametrize("theta_deg", [0.0, 30.0, MAGIC_ANGLE_DEG, 90.0])
def test_listed_poles_are_the_closed_form_poles(narb_spec, width, theta_deg):
    """Each pole the detuning search refuses is a pole of alpha_analytic:
    alpha flips sign across it and, 1e-6 GHz off it, exceeds 1e4 times
    its value 1 GHz away.  A line of zero width has no pole to list."""
    spec = narb_spec if width == "bundled" else replace(
        narb_spec, lines=tuple(replace(ln, gamma=0.0) for ln in narb_spec.lines))
    theta = math.radians(theta_deg)
    ref = spec.reference.energy
    for j in range(4):
        for m in range(-j, j + 1):
            poles = _poles_in_window(spec, (j,), m, theta, -math.inf, math.inf)
            # the R branch has weight B > 0 at every J, M and angle
            assert bool(poles) == (width == "bundled")

            def alpha(ghz):
                return mt.alpha_analytic(spec, ref + ghz / HARTREE_TO_GHZ, j, m, theta)

            for _, pole in poles:
                below, above = alpha(pole - 1e-6), alpha(pole + 1e-6)
                assert np.sign(below) == -np.sign(above)
                away = max(abs(alpha(pole - 1.0)), abs(alpha(pole + 1.0)))
                assert min(abs(below), abs(above)) > 1e4 * away


def test_magic_detuning_reports_endpoint_values(narb_spec):
    with pytest.raises(NoRootError, match="f\\(lo\\) = .* f\\(hi\\) = "):
        find_magic_detuning(narb_spec, 0, 1, bracket=(150.0, 300.0))


def test_solution_rejects_root_outside_bracket():
    with pytest.raises(ValueError, match="strictly inside"):
        MagicSolution(kind="detuning", location=150.0, state_a=(0, 0),
                      state_b=(1, 0), residual=0.0, bracket=(30.0, 100.0))


def test_calibrate_gamma_hits_the_target(narb_spec):
    template = load_config(overrides=[f"molecule.gamma_hz={1000.0!r}"]).spec()
    calibrated = calibrate_gamma(template, (0, 1), 103.0)
    sol = find_magic_detuning(calibrated, 0, 1)
    assert abs(sol.location - 103.0) < 1e-6
    # and reproduces the bundled linewidth from a cold start
    ratio = calibrated.lines[0].gamma / narb_spec.lines[0].gamma
    assert ratio == pytest.approx(1.0, rel=1e-6)


def test_calibrate_gamma_is_monotonic_in_the_target(narb_spec):
    g103 = calibrate_gamma(narb_spec, (0, 1), 103.0).lines[0].gamma
    g120 = calibrate_gamma(narb_spec, (0, 1), 120.0).lines[0].gamma
    assert g120 > g103 > 0.0


def test_calibrated_gamma_scales_with_background_anisotropy(narb_spec):
    """Doubling the background split doubles the calibrated linewidth.

    The crossing condition balances the resonant differential (linear
    in gamma) against the angular split of the constant background, so
    the calibrated gamma is exactly proportional to the anisotropy.
    """
    bg = narb_spec.background
    doubled = mt.Background(
        alpha_par=bg.alpha_perp + 2.0 * (bg.alpha_par - bg.alpha_perp),
        alpha_perp=bg.alpha_perp,
    )
    spec2 = mt.PolarizabilitySpec(lines=narb_spec.lines, b_v=narb_spec.b_v,
                                  background=doubled)
    g1 = calibrate_gamma(narb_spec, (0, 1), 103.0).lines[0].gamma
    g2 = calibrate_gamma(spec2, (0, 1), 103.0).lines[0].gamma
    assert g2 / g1 == pytest.approx(2.0, rel=1e-12)


def test_calibrate_gamma_guards(narb_spec):
    with pytest.raises(CalibrationError, match="two different J"):
        calibrate_gamma(narb_spec, (1, 1), 103.0)
    flat = mt.PolarizabilitySpec(
        lines=narb_spec.lines, b_v=narb_spec.b_v,
        background=mt.Background(alpha_par=200.0, alpha_perp=200.0),
    )
    with pytest.raises(CalibrationError, match="anisotropy is zero"):
        calibrate_gamma(flat, (0, 1), 103.0)
    with pytest.raises(CalibrationError, match="sits on a branch pole"):
        calibrate_gamma(narb_spec, (0, 1), 0.0)
    with pytest.raises(CalibrationError, match="nonpositive gamma scale"):
        calibrate_gamma(narb_spec, (0, 1), -50.0)
