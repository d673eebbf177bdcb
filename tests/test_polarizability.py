"""Dynamic polarizability: closed form vs explicit state sum.

The two routes share no code beyond the 3-j machinery, so their
agreement on the same level data is the main correctness check.  The
remaining tests pin scaling laws, validity notes, and failure modes.
"""

import math

import numpy as np
import pytest

from magictrap import (
    Background,
    MAGIC_ANGLE_DEG,
    PoleProximityError,
    PolarizabilitySpec,
    ResonantLine,
    alpha_analytic,
    alpha_fardetuned,
    alpha_imag,
    alpha_sum_over_states,
    angular_factors,
    gamma_from_dipole,
    line_strength,
    resonance_offsets,
    spec_from_levels,
)
from magictrap.polarizability import _polarization_weight
from magictrap.units import HARTREE_TO_CM1, HARTREE_TO_GHZ

from conftest import assert_close


def test_line_strength_inverts_gamma_from_dipole():
    energy = 11306.4 / HARTREE_TO_CM1
    for d in (0.3, 1.0, 2.7):
        gamma = gamma_from_dipole(energy, d)
        line = ResonantLine(vprime=0, energy=energy, gamma=gamma, b_rot=3e-7)
        assert line_strength(line) == pytest.approx(d * d, rel=1e-14)


def test_spec_validation():
    bg = Background(alpha_par=800.0, alpha_perp=400.0)
    l1 = ResonantLine(0, 0.05, 1e-12, 3e-7)
    l2 = ResonantLine(1, 0.051, 1e-12, 3e-7)
    with pytest.raises(ValueError):
        PolarizabilitySpec(lines=(), b_v=3e-7, background=bg)
    with pytest.raises(ValueError):
        PolarizabilitySpec(lines=(l2, l1), b_v=3e-7, background=bg)
    spec = PolarizabilitySpec(lines=(l1, l2), b_v=3e-7, background=bg)
    assert spec.reference is l1
    with pytest.raises(ValueError):
        spec.with_gamma_scale(0.0)


def test_resonant_part_scales_linearly_with_gamma(narb_spec):
    nu = narb_spec.reference.energy + 80.0 / HARTREE_TO_GHZ
    bg_part = (1.0 / 3.0) * narb_spec.background.anisotropy \
        + narb_spec.background.alpha_perp
    a1 = alpha_analytic(narb_spec, nu, 0, 0).real - bg_part
    a2 = alpha_analytic(narb_spec.with_gamma_scale(2.0), nu, 0, 0).real - bg_part
    assert a2 == pytest.approx(2.0 * a1, rel=1e-12)


def test_far_limit_tends_to_background(narb_spec):
    bg = narb_spec.background
    for j, m in ((0, 0), (1, 0), (1, 1)):
        from magictrap import angular_factors
        fac = angular_factors(j, m, 0.0)
        ref = fac.total * bg.anisotropy + bg.alpha_perp
        val = alpha_analytic(narb_spec, narb_spec.reference.energy * 0.5,
                             j, m).real
        # at half the transition energy the resonant term is tiny but
        # finite; 1% of the background anisotropy bounds it comfortably
        assert val == pytest.approx(ref, rel=0.05)
        far = alpha_fardetuned(narb_spec, narb_spec.reference.energy * 0.5,
                               j, m).real
        assert far == pytest.approx(val, rel=1e-3)


def test_pole_evaluation_is_infinite_not_an_error(narb_spec):
    nu = narb_spec.reference.energy  # J = 0 pole sits at zero detuning
    val = alpha_analytic(narb_spec, nu, 0, 0)
    assert math.isinf(val.real)


def test_fardetuned_equals_analytic_for_j0(narb_spec):
    for dghz in (40.0, 103.0, -60.0, 500.0):
        nu = narb_spec.reference.energy + dghz / HARTREE_TO_GHZ
        a = alpha_analytic(narb_spec, nu, 0, 0).real
        b = alpha_fardetuned(narb_spec, nu, 0, 0).real
        assert b == pytest.approx(a, rel=1e-14)


def test_fardetuned_differs_from_analytic_by_branch_offsets(narb_spec):
    nu = narb_spec.reference.energy + 103.0 / HARTREE_TO_GHZ
    a = alpha_analytic(narb_spec, nu, 1, 0).real
    b = alpha_fardetuned(narb_spec, nu, 1, 0).real
    assert a != pytest.approx(b, rel=1e-6)
    # relative deviation of the resonant parts is O(offset / detuning)
    assert abs(a - b) / abs(a) < 0.2


def test_fardetuned_crossing_at_strength_over_anisotropy(narb_spec):
    """alpha(J=0) = alpha(J=1) in the collapsed form at D = K / d_bg."""
    k = line_strength(narb_spec.reference)
    delta_star = k / narb_spec.background.anisotropy
    nu = narb_spec.reference.energy + delta_star
    a0 = alpha_fardetuned(narb_spec, nu, 0, 0).real
    a1 = alpha_fardetuned(narb_spec, nu, 1, 0).real
    a2 = alpha_fardetuned(narb_spec, nu, 1, 1).real
    assert a0 == pytest.approx(a1, rel=1e-10)
    assert a0 == pytest.approx(a2, rel=1e-10)


def test_window_notes(narb_spec):
    e0 = narb_spec.reference.energy
    near = alpha_analytic(narb_spec, e0 + 5.0 / HARTREE_TO_GHZ, 1, 0)
    assert "branch structure" in " ".join(near.notes)
    clean = alpha_analytic(narb_spec, e0 + 103.0 / HARTREE_TO_GHZ, 1, 0)
    assert clean.notes == ()
    huge = alpha_analytic(narb_spec, e0 * 0.5, 0, 0)
    assert any("transition energy" in n for n in huge.notes)
    # over an axis the notes are the union of the notes at its points
    axis = np.array([e0 + 5.0 / HARTREE_TO_GHZ, e0 + 103.0 / HARTREE_TO_GHZ,
                     e0 * 0.5])
    for j in (0, 1):
        whole = alpha_analytic(narb_spec, axis, j, 0).notes
        points = [alpha_analytic(narb_spec, float(nu), j, 0).notes for nu in axis]
        assert len(set(whole)) == len(whole)
        assert set(whole) == set().union(*points)
        assert any("branch structure" in n for n in whole)
        assert any("transition energy" in n for n in whole)


def test_dual_routes_agree_on_sample(stiff_pair):
    spec = stiff_pair["spec"]
    rng = np.random.default_rng(3)
    for _ in range(30):
        j = int(rng.integers(0, 4))
        m = int(rng.integers(0, min(j, 1) + 1))
        theta = float(rng.uniform(0.0, math.pi / 2))
        delta = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(30.0, 300.0))
        nu = spec.reference.energy + delta / HARTREE_TO_GHZ
        a = alpha_analytic(spec, nu, j, m, theta).real
        b = alpha_sum_over_states(stiff_pair["x"], stiff_pair["ab"],
                                  stiff_pair["dipoles"], nu, j, m, theta,
                                  background=stiff_pair["background"]).real
        assert_close(a, b, rel=1e-6, label=f"route match J={j} M={m}")


def test_sum_route_background_weights_match_closed_form(stiff_pair):
    """Zero dipoles leave only the background, same in both routes."""
    from magictrap import angular_factors
    zero = {k: 0.0 for k in stiff_pair["dipoles"]}
    bg = stiff_pair["background"]
    spec = stiff_pair["spec"]
    nu = spec.reference.energy + 100.0 / HARTREE_TO_GHZ
    for j, m, theta in ((0, 0, 0.0), (1, 0, 0.5), (2, 1, 1.0), (3, 2, 0.2)):
        val = alpha_sum_over_states(stiff_pair["x"], stiff_pair["ab"], zero,
                                    nu, j, m, theta, background=bg).real
        fac = angular_factors(j, m, theta)
        assert val == pytest.approx(fac.total * bg.anisotropy + bg.alpha_perp,
                                    rel=1e-12)


def test_magic_angle_collapse(stiff_pair):
    """At cos^2 theta = 1/3 the J dependence collapses.

    The collapse is exact once the branch offsets drop out (far-detuned
    form); the full closed form retains an O(offset / detuning)
    residual, so the angle must suppress the J=0 / J=1 differential by
    a large factor rather than to zero.
    """
    spec = stiff_pair["spec"]
    theta = math.radians(MAGIC_ANGLE_DEG)
    nu = spec.reference.energy + 120.0 / HARTREE_TO_GHZ
    ref = alpha_fardetuned(spec, nu, 0, 0, theta).real
    for j, m in ((1, 0), (1, 1), (2, 0), (2, 2), (3, 1)):
        far = alpha_fardetuned(spec, nu, j, m, theta).real
        assert far == pytest.approx(ref, rel=1e-12)

    def differential(th):
        return (alpha_analytic(spec, nu, 0, 0, th).real
                - alpha_analytic(spec, nu, 1, 0, th).real)

    assert abs(differential(theta)) < abs(differential(0.0)) / 10.0
    # the sum-over-states route shows the same suppression
    kw = dict(background=stiff_pair["background"])
    args = (stiff_pair["x"], stiff_pair["ab"], stiff_pair["dipoles"], nu)

    def differential_sum(th):
        return (alpha_sum_over_states(*args, 0, 0, th, **kw).real
                - alpha_sum_over_states(*args, 1, 0, th, **kw).real)

    assert abs(differential_sum(theta)) < abs(differential_sum(0.0)) / 10.0


def test_sum_route_guards_poles(stiff_pair):
    spec = stiff_pair["spec"]
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    line_e = ab[1].energy - x[0].energy  # the J=0 -> J'=1 line
    with pytest.raises(PoleProximityError):
        alpha_sum_over_states(x, ab, d, line_e, 0, 0)
    with pytest.raises(PoleProximityError):
        alpha_imag(x, ab, d, [1e-12] * len(ab), line_e, 0, 0)
    # one point of an axis on the line is enough
    axis = line_e + np.linspace(-100.0, 100.0, 5) / HARTREE_TO_GHZ
    assert axis[2] == line_e
    with pytest.raises(PoleProximityError):
        alpha_sum_over_states(x, ab, d, axis, 0, 0)
    with pytest.raises(PoleProximityError):
        alpha_imag(x, ab, d, [1e-12] * len(ab), axis, 0, 0)


# (J, M, theta_p) cases for the axis-versus-points oracles
AXIS_CASES = ((0, 0, 0.0), (1, 0, 0.4), (1, 1, 1.2), (2, 1, 0.9),
              (3, 2, math.pi / 2))


def _assert_axis_matches_points(call, axis, part):
    """One call over ``axis`` equals, bit for bit, a scalar call per point."""
    whole = getattr(call(axis), part)
    assert isinstance(whole, np.ndarray) and whole.shape == axis.shape
    points = [getattr(call(float(nu)), part) for nu in axis]
    assert all(isinstance(v, float) for v in points)
    assert np.array_equal(whole, np.array(points), equal_nan=True)


@pytest.mark.parametrize("route", [alpha_analytic, alpha_fardetuned])
def test_closed_forms_over_an_axis_match_points(stiff_pair, route):
    spec = stiff_pair["spec"]
    ref = spec.reference
    window = ref.energy + np.linspace(-300.0, 300.0, 41) / HARTREE_TO_GHZ
    for j, m, theta in AXIS_CASES:
        offs = resonance_offsets(j, spec.b_v, ref.b_rot)
        # each branch pole, and points just off it
        near = [(ref.energy - off) * (1.0 + eps) for off in (offs.l, offs.r)
                for eps in (0.0, -1e-12, 1e-12, -1e-9, 1e-9)]
        axis = np.concatenate([window, near])
        _assert_axis_matches_points(
            lambda nu: route(spec, nu, j, m, theta), axis, "real")


def test_zero_weight_pole_is_no_pole(stiff_pair):
    """J=0 has no P branch; at its would-be pole both closed forms agree.

    The docstring promises exact agreement of the two forms for J=0, so
    the zero-weight branch must drop out instead of evaluating 0/0.
    """
    spec = stiff_pair["spec"]
    ref = spec.reference
    assert angular_factors(0, 0, 0.0).a == 0.0
    nu = ref.energy - resonance_offsets(0, spec.b_v, ref.b_rot).l
    exact = alpha_analytic(spec, nu, 0, 0).real
    assert math.isfinite(exact)
    assert exact == alpha_fardetuned(spec, nu, 0, 0).real


def _sum_axis(stiff_pair, j):
    """A detuning window plus points just off each line out of J."""
    x = stiff_pair["x"]
    lines = [lv.energy - x[j].energy for lv in stiff_pair["ab"]
             if abs(lv.j - j) == 1]
    window = lines[0] + np.linspace(-300.0, 300.0, 40) / HARTREE_TO_GHZ
    near = [de * (1.0 + eps) for de in lines for eps in (-1e-6, -1e-8, 1e-8, 1e-6)]
    return np.concatenate([window, near])


def test_sum_over_states_over_an_axis_matches_points(stiff_pair):
    x, ab, d = stiff_pair["x"], stiff_pair["ab"], stiff_pair["dipoles"]
    for background in (None, stiff_pair["background"]):
        for j, m, theta in AXIS_CASES:
            _assert_axis_matches_points(
                lambda nu: alpha_sum_over_states(x, ab, d, nu, j, m, theta,
                                                 background=background),
                _sum_axis(stiff_pair, j), "real")


def test_alpha_imag_over_an_axis_matches_points(stiff_pair):
    x, ab, d = stiff_pair["x"], stiff_pair["ab"], stiff_pair["dipoles"]
    gammas = list(np.linspace(1e-12, 3e-12, len(ab)))
    for j, m, theta in AXIS_CASES:
        _assert_axis_matches_points(
            lambda nu: alpha_imag(x, ab, d, gammas, nu, j, m, theta),
            _sum_axis(stiff_pair, j), "imag")


def test_transitions_require_complete_inputs(stiff_pair):
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = dict(stiff_pair["dipoles"])
    nu = stiff_pair["spec"].reference.energy + 100.0 / HARTREE_TO_GHZ
    with pytest.raises(ValueError):
        alpha_sum_over_states(x, ab, d, nu, 9, 0)  # no such ground J
    missing = dict(d)
    missing.pop((0, 1))
    with pytest.raises(ValueError) as err:
        alpha_sum_over_states(x, ab, missing, nu, 0, 0)
    assert "dipole" in str(err.value)


def test_alpha_imag_negative_below_resonance(stiff_pair):
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    gammas = [1e-12] * len(ab)
    lowest = min(l.energy for l in ab) - x[0].energy
    for frac in (0.3, 0.7, 0.95, 0.999):
        for j in (0, 1):
            val = alpha_imag(x, ab, d, gammas, lowest * frac, j, 0).imag
            assert val < 0.0


def test_alpha_imag_zero_gamma_gives_zero(stiff_pair):
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    nu = 0.9 * (ab[0].energy - x[0].energy)
    val = alpha_imag(x, ab, d, [0.0] * len(ab), nu, 1, 0).imag
    assert val == 0.0
    with pytest.raises(ValueError):
        alpha_imag(x, ab, d, [0.0], nu, 1, 0)


def test_alpha_imag_ratio_constant_far_below(stiff_pair):
    """J=1 / J=0 loss ratio flattens far below the resonances."""
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    gammas = [2e-12] * len(ab)
    e_ref = ab[0].energy - x[0].energy
    ratios = []
    for nu in np.linspace(0.80 * e_ref, 0.85 * e_ref, 7):
        r = (alpha_imag(x, ab, d, gammas, nu, 1, 0).imag
             / alpha_imag(x, ab, d, gammas, nu, 0, 0).imag)
        ratios.append(r)
    assert max(ratios) / min(ratios) - 1.0 < 1e-2


def test_spec_from_levels_extracts_consistent_constants(stiff_pair):
    spec = stiff_pair["spec"]
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    b_v = 0.5 * (x[1].energy - x[0].energy)
    assert spec.b_v == pytest.approx(b_v, rel=1e-12)
    jp1 = next(l for l in ab if l.j == 1)
    assert spec.reference.energy == pytest.approx(jp1.energy - x[0].energy,
                                                  rel=1e-12)
    assert spec.reference.gamma > 0.0
    b_rot = 0.5 * (next(l for l in ab if l.j == 1).energy
                   - next(l for l in ab if l.j == 0).energy)
    assert spec.reference.b_rot == pytest.approx(b_rot, rel=1e-12)


def test_spec_from_levels_counter_rotating_fold(stiff_pair):
    """The folded background absorbs the counter-rotating response.

    Rebuilding the spec with the fold disabled must shift alpha_par by
    the counter-rotating term at the reference photon energy.
    """
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    bg = stiff_pair["background"]
    spec = stiff_pair["spec"]
    jp1 = next(l for l in ab if l.j == 1)
    e_ref = jp1.energy - x[0].energy
    cr = line_strength(spec.reference) / (e_ref + e_ref)
    assert spec.background.alpha_par - bg.alpha_par == pytest.approx(
        cr, rel=1e-6)


def _closed_form_by_hand(spec, nu, j, m, theta):
    """alpha_analytic at one float ``nu``, in plain floats, line by line."""
    fac = angular_factors(j, m, theta)
    bg = spec.background
    total = fac.total * bg.anisotropy + bg.alpha_perp
    for ln in spec.lines:
        delta = nu - ln.energy
        offs = resonance_offsets(j, spec.b_v, ln.b_rot)
        total += -line_strength(ln) * (fac.a / (delta + offs.l)
                                       + fac.b / (delta + offs.r))
    return total


def _state_sums_by_hand(stiff_pair, gammas, nu, j, m, theta):
    """Real and imaginary state sums at one float ``nu``, line by line."""
    x, d = stiff_pair["x"], stiff_pair["dipoles"]
    real = imag = 0.0
    for ai, lv in enumerate(stiff_pair["ab"]):
        if abs(lv.j - j) == 1:
            de = lv.energy - x[j].energy
            dd = d[(j, ai)]
            w = _polarization_weight(lv.j, j, m, theta)
            real += dd * dd * w * (1.0 / (de - nu) + 1.0 / (de + nu))
            imag -= gammas[ai] * dd * dd * w / (de * de - nu * nu)
    return real, imag


def test_axis_keeps_the_per_line_float_order(stiff_pair):
    """The CSVs stay byte-identical only if each point gets the same float ops."""
    spec = stiff_pair["spec"]
    x, ab, d = stiff_pair["x"], stiff_pair["ab"], stiff_pair["dipoles"]
    gammas = list(np.linspace(1e-12, 3e-12, len(ab)))
    # an even count keeps zero detuning, the J=0 pole, off the window
    window = spec.reference.energy + np.linspace(-300.0, 300.0, 40) / HARTREE_TO_GHZ
    for j, m, theta in AXIS_CASES:
        closed = [_closed_form_by_hand(spec, float(nu), j, m, theta) for nu in window]
        assert np.array_equal(alpha_analytic(spec, window, j, m, theta).real, closed)
        axis = _sum_axis(stiff_pair, j)
        sums = np.array([_state_sums_by_hand(stiff_pair, gammas, float(nu), j, m, theta)
                         for nu in axis])
        assert np.array_equal(alpha_sum_over_states(x, ab, d, axis, j, m, theta).real,
                              sums[:, 0])
        assert np.array_equal(alpha_imag(x, ab, d, gammas, axis, j, m, theta).imag,
                              sums[:, 1])
