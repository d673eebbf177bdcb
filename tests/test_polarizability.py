"""Dynamic polarizability: closed form vs explicit state sum.

The two routes share no code beyond the 3-j machinery, so their
agreement on the same level data is the main correctness check.  The
remaining tests pin scaling laws, validity notes, and failure modes.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from magictrap import (
    Background,
    MAGIC_ANGLE_DEG,
    PoleProximityError,
    PolarizabilitySpec,
    ResonantLine,
    alpha_analytic,
    alpha_imag,
    angular_factors,
    line_strength,
    resonance_offsets,
    validity_notes,
)
from magictrap.cli import _imag_inputs
from magictrap.config import load_config
from magictrap.polarizability import _polarization_weight
from magictrap.units import HARTREE_TO_CM1, HARTREE_TO_GHZ

from conftest import assert_close
from oracles import (alpha_fardetuned, alpha_imag_per_line, alpha_sum_over_states,
                     gamma_from_dipole, polarization_weight_by_elements, spec_from_levels)


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
    a1 = alpha_analytic(narb_spec, nu, 0, 0) - bg_part
    a2 = alpha_analytic(narb_spec.with_gamma_scale(2.0), nu, 0, 0) - bg_part
    assert a2 == pytest.approx(2.0 * a1, rel=1e-12)


def test_far_limit_tends_to_background(narb_spec):
    bg = narb_spec.background
    for j, m in ((0, 0), (1, 0), (1, 1)):
        from magictrap import angular_factors
        fac = angular_factors(j, m, 0.0)
        ref = fac.total * bg.anisotropy + bg.alpha_perp
        val = alpha_analytic(narb_spec, narb_spec.reference.energy * 0.5,
                             j, m)
        # at half the transition energy the resonant term is tiny but
        # finite; 1% of the background anisotropy bounds it comfortably
        assert val == pytest.approx(ref, rel=0.05)
        far = alpha_fardetuned(narb_spec, narb_spec.reference.energy * 0.5,
                               j, m)
        assert far == pytest.approx(val, rel=1e-3)


def test_pole_evaluation_is_infinite_not_an_error(narb_spec):
    nu = narb_spec.reference.energy  # J = 0 pole sits at zero detuning
    val = alpha_analytic(narb_spec, nu, 0, 0)
    assert math.isinf(val)


def test_zero_linewidth_line_has_no_pole(narb_spec):
    """A line with gamma = 0 drops out, also exactly on its pole, instead
    of giving 0 * inf = nan there."""
    spec = replace(narb_spec, lines=(replace(narb_spec.reference, gamma=0.0),))
    bg = spec.background
    nu = spec.reference.energy + np.array([0.0, 80.0]) / HARTREE_TO_GHZ
    for route in (alpha_analytic, alpha_fardetuned):
        for j in (0, 1):
            fac = angular_factors(j, 0, 0.0)
            assert np.array_equal(route(spec, nu, j, 0),
                                  np.full(2, fac.total * bg.anisotropy + bg.alpha_perp))


def test_fardetuned_equals_analytic_for_j0(narb_spec):
    for dghz in (40.0, 103.0, -60.0, 500.0):
        nu = narb_spec.reference.energy + dghz / HARTREE_TO_GHZ
        a = alpha_analytic(narb_spec, nu, 0, 0)
        b = alpha_fardetuned(narb_spec, nu, 0, 0)
        assert b == pytest.approx(a, rel=1e-14)


def test_fardetuned_matches_its_closed_form_by_hand(narb_spec, stiff_pair):
    """-S (A + B) / (nu - E) per line plus (A + B)(a_par - a_perp) + a_perp,
    summed in plain floats: exact at J = 0, where A = 0, and within 1e-14
    of the terms' magnitudes at J > 0, where the route divides A and B by
    D separately."""
    for spec in (narb_spec, stiff_pair["spec"]):
        bg = spec.background
        for dghz in (-300.0, -60.0, 40.0, 103.0, 500.0):
            nu = spec.reference.energy + dghz / HARTREE_TO_GHZ
            for j in range(4):
                for m in range(j + 1):
                    for theta in (0.0, 0.4, math.radians(MAGIC_ANGLE_DEG), math.pi / 2):
                        fac = angular_factors(j, m, theta)
                        terms = [fac.total * bg.anisotropy + bg.alpha_perp]
                        terms += [-line_strength(ln) * (fac.total / (nu - ln.energy))
                                  for ln in spec.lines]
                        far = alpha_fardetuned(spec, nu, j, m, theta)
                        if j == 0:
                            assert far == sum(terms)
                        else:
                            assert abs(far - sum(terms)) <= 1e-14 * sum(map(abs, terms))


def test_fardetuned_differs_from_analytic_by_branch_offsets(narb_spec):
    nu = narb_spec.reference.energy + 103.0 / HARTREE_TO_GHZ
    a = alpha_analytic(narb_spec, nu, 1, 0)
    b = alpha_fardetuned(narb_spec, nu, 1, 0)
    assert a != pytest.approx(b, rel=1e-6)
    # relative deviation of the resonant parts is O(offset / detuning)
    assert abs(a - b) / abs(a) < 0.2


def test_fardetuned_crossing_at_strength_over_anisotropy(narb_spec):
    """alpha(J=0) = alpha(J=1) in the collapsed form at D = K / d_bg."""
    k = line_strength(narb_spec.reference)
    delta_star = k / narb_spec.background.anisotropy
    nu = narb_spec.reference.energy + delta_star
    a0 = alpha_fardetuned(narb_spec, nu, 0, 0)
    a1 = alpha_fardetuned(narb_spec, nu, 1, 0)
    a2 = alpha_fardetuned(narb_spec, nu, 1, 1)
    assert a0 == pytest.approx(a1, rel=1e-10)
    assert a0 == pytest.approx(a2, rel=1e-10)


def test_window_notes(narb_spec):
    e0 = narb_spec.reference.energy
    near = validity_notes(narb_spec, e0 + 5.0 / HARTREE_TO_GHZ, 1)
    assert "branch structure" in " ".join(near)
    clean = validity_notes(narb_spec, e0 + 103.0 / HARTREE_TO_GHZ, 1)
    assert clean == ()
    huge = validity_notes(narb_spec, e0 * 0.5, 0)
    assert any("transition energy" in n for n in huge)
    # over an axis the notes are the union of the notes at its points
    axis = np.array([e0 + 5.0 / HARTREE_TO_GHZ, e0 + 103.0 / HARTREE_TO_GHZ,
                     e0 * 0.5])
    for j in (0, 1):
        whole = validity_notes(narb_spec, axis, j)
        points = [validity_notes(narb_spec, float(nu), j) for nu in axis]
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
        a = alpha_analytic(spec, nu, j, m, theta)
        b = alpha_sum_over_states(stiff_pair["x"], stiff_pair["ab"],
                                  stiff_pair["dipoles"], nu, j, m, theta,
                                  background=stiff_pair["background"])
        assert_close(a, b, rel=1e-6, label=f"route match J={j} M={m}")


def test_sum_route_background_weights_match_closed_form(stiff_pair):
    """Zero dipoles leave only the background, same in both routes."""
    from magictrap import angular_factors
    zero = np.zeros_like(stiff_pair["dipoles"])
    bg = stiff_pair["background"]
    spec = stiff_pair["spec"]
    nu = spec.reference.energy + 100.0 / HARTREE_TO_GHZ
    for j, m, theta in ((0, 0, 0.0), (1, 0, 0.5), (2, 1, 1.0), (3, 2, 0.2)):
        val = alpha_sum_over_states(stiff_pair["x"], stiff_pair["ab"], zero,
                                    nu, j, m, theta, background=bg)
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
    ref = alpha_fardetuned(spec, nu, 0, 0, theta)
    for j, m in ((1, 0), (1, 1), (2, 0), (2, 2), (3, 1)):
        far = alpha_fardetuned(spec, nu, j, m, theta)
        assert far == pytest.approx(ref, rel=1e-12)

    def differential(th):
        return (alpha_analytic(spec, nu, 0, 0, th)
                - alpha_analytic(spec, nu, 1, 0, th))

    assert abs(differential(theta)) < abs(differential(0.0)) / 10.0
    # the sum-over-states route shows the same suppression
    kw = dict(background=stiff_pair["background"])
    args = (stiff_pair["x"], stiff_pair["ab"], stiff_pair["dipoles"], nu)

    def differential_sum(th):
        return (alpha_sum_over_states(*args, 0, 0, th, **kw)
                - alpha_sum_over_states(*args, 1, 0, th, **kw))

    assert abs(differential_sum(theta)) < abs(differential_sum(0.0)) / 10.0


def test_sum_route_guards_poles(stiff_pair):
    spec = stiff_pair["spec"]
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    line_e = float(ab.energies[1] - x.energies[0])  # the J=0 -> J'=1 line
    with pytest.raises(PoleProximityError):
        alpha_sum_over_states(x, ab, d, line_e, 0, 0)
    with pytest.raises(PoleProximityError):
        alpha_imag(x, ab, d, [1e-12] * len(ab), line_e, 0, 0)
    # one point of an axis on the line is enough
    axis = line_e + np.linspace(-100.0, 100.0, 5) / HARTREE_TO_GHZ
    assert axis[2] == line_e
    with pytest.raises(PoleProximityError):
        alpha_sum_over_states(x, ab, d, axis, 0, 0)
    with pytest.raises(PoleProximityError) as err:
        alpha_imag(x, ab, d, [1e-12] * len(ab), axis, 0, 0)
    # the error names the point of the axis, the line and the guard
    assert (err.value.point, err.value.line) == (2, line_e)
    assert 0.0 < err.value.guard < abs(axis[3] - line_e)


# (J, M, theta_p) cases for the axis-versus-points oracles
AXIS_CASES = ((0, 0, 0.0), (1, 0, 0.4), (1, 1, 1.2), (2, 1, 0.9),
              (3, 2, math.pi / 2))


def _assert_axis_matches_points(call, axis):
    """One call over ``axis`` equals, bit for bit, a scalar call per point;
    the route returns the value itself: a float array of the axis' shape,
    and ``np.float64`` at a point."""
    whole = call(axis)
    assert type(whole) is np.ndarray and whole.dtype == np.float64
    assert whole.shape == axis.shape
    points = [call(float(nu)) for nu in axis]
    assert all(type(v) is np.float64 for v in points)
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
            lambda nu: route(spec, nu, j, m, theta), axis)


def test_zero_weight_pole_is_no_pole(stiff_pair):
    """J=0 has no P branch; at its would-be pole both closed forms agree.

    The docstring promises exact agreement of the two forms for J=0, so
    the zero-weight branch must drop out instead of evaluating 0/0.
    """
    spec = stiff_pair["spec"]
    ref = spec.reference
    assert angular_factors(0, 0, 0.0).a == 0.0
    nu = ref.energy - resonance_offsets(0, spec.b_v, ref.b_rot).l
    exact = alpha_analytic(spec, nu, 0, 0)
    assert math.isfinite(exact)
    assert exact == alpha_fardetuned(spec, nu, 0, 0)


def _sum_axis(stiff_pair, j):
    """A detuning window plus points just off each line out of J."""
    x, ab = stiff_pair["x"], stiff_pair["ab"]
    lines = (ab.energies - x.energies[j])[np.abs(ab.j - j) == 1].tolist()
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
                _sum_axis(stiff_pair, j))


def test_alpha_imag_over_an_axis_matches_points(stiff_pair):
    x, ab, d = stiff_pair["x"], stiff_pair["ab"], stiff_pair["dipoles"]
    gammas = list(np.linspace(1e-12, 3e-12, len(ab)))
    for j, m, theta in AXIS_CASES:
        _assert_axis_matches_points(
            lambda nu: alpha_imag(x, ab, d, gammas, nu, j, m, theta),
            _sum_axis(stiff_pair, j))


def test_transitions_require_complete_inputs(stiff_pair):
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    nu = stiff_pair["spec"].reference.energy + 100.0 / HARTREE_TO_GHZ
    with pytest.raises(ValueError):
        alpha_sum_over_states(x, ab, d, nu, 9, 0)  # no such ground J
    missing = d.copy()
    missing[0, 1] = np.nan  # the J = 0 -> J' = 1 moment
    with pytest.raises(ValueError) as err:
        alpha_sum_over_states(x, ab, missing, nu, 0, 0)
    assert "dipole" in str(err.value)
    with pytest.raises(ValueError, match="dipoles has shape"):
        alpha_sum_over_states(x, ab, d[:, 1:], nu, 0, 0)
    # M = 1 has no J = 0 state: both state sums refuse it, as the closed
    # forms do, instead of summing zero weights
    for call in (lambda: alpha_sum_over_states(x, ab, d, nu, 0, 1),
                 lambda: alpha_imag(x, ab, d, [1e-12] * len(ab), nu, 0, 1),
                 lambda: alpha_analytic(stiff_pair["spec"], nu, 0, 1)):
        with pytest.raises(ValueError, match=r"\|m\| <= j"):
            call()


def test_alpha_imag_negative_below_resonance(stiff_pair):
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    gammas = [1e-12] * len(ab)
    lowest = float(ab.energies.min() - x.energies[0])
    for frac in (0.3, 0.7, 0.95, 0.999):
        for j in (0, 1):
            val = alpha_imag(x, ab, d, gammas, lowest * frac, j, 0)
            assert val < 0.0


def test_alpha_imag_zero_gamma_gives_zero(stiff_pair):
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    nu = 0.9 * float(ab.energies[0] - x.energies[0])
    val = alpha_imag(x, ab, d, [0.0] * len(ab), nu, 1, 0)
    assert val == 0.0
    with pytest.raises(ValueError):
        alpha_imag(x, ab, d, [0.0], nu, 1, 0)


def test_alpha_imag_ratio_constant_far_below(stiff_pair):
    """J=1 / J=0 loss ratio flattens far below the resonances."""
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    d = stiff_pair["dipoles"]
    gammas = [2e-12] * len(ab)
    e_ref = float(ab.energies[0] - x.energies[0])
    ratios = []
    for nu in np.linspace(0.80 * e_ref, 0.85 * e_ref, 7):
        r = (alpha_imag(x, ab, d, gammas, nu, 1, 0)
             / alpha_imag(x, ab, d, gammas, nu, 0, 0))
        ratios.append(r)
    assert max(ratios) / min(ratios) - 1.0 < 1e-2


def test_spec_from_levels_extracts_consistent_constants(stiff_pair):
    spec = stiff_pair["spec"]
    x = stiff_pair["x"]
    ab = stiff_pair["ab"]
    b_v = 0.5 * (x.energies[1] - x.energies[0])
    assert spec.b_v == pytest.approx(b_v, rel=1e-12)
    e_jp1 = ab.energies[ab.j == 1][0]
    assert spec.reference.energy == pytest.approx(e_jp1 - x.energies[0],
                                                  rel=1e-12)
    assert spec.reference.gamma > 0.0
    b_rot = 0.5 * (e_jp1 - ab.energies[ab.j == 0][0])
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
    e_ref = float(ab.energies[ab.j == 1][0] - x.energies[0])
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
    x, ab, d = stiff_pair["x"], stiff_pair["ab"], stiff_pair["dipoles"]
    e_x = float(x.energies[j])
    real = imag = 0.0
    for ai, (e_ab, jp) in enumerate(zip(ab.energies.tolist(), ab.j.tolist())):
        if abs(jp - j) == 1:
            de = e_ab - e_x
            dd = float(d[j, ai])
            w = _polarization_weight(jp, j, m, theta)
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
        assert np.array_equal(alpha_analytic(spec, window, j, m, theta), closed)
        axis = _sum_axis(stiff_pair, j)
        sums = np.array([_state_sums_by_hand(stiff_pair, gammas, float(nu), j, m, theta)
                         for nu in axis])
        assert np.array_equal(alpha_sum_over_states(x, ab, d, axis, j, m, theta),
                              sums[:, 0])
        assert np.array_equal(alpha_imag(x, ab, d, gammas, axis, j, m, theta),
                              sums[:, 1])


def test_polarization_weight_is_the_element_sum_bit_for_bit():
    """The weight takes the reduced symbol (J' 1 J; 0 0 0) once, and gives
    the bits of three full ``rot_tensor_element`` calls, up to j = 20."""
    thetas = (0.0, 0.3, math.radians(MAGIC_ANGLE_DEG), 1.2, math.pi / 2, 2.5, math.pi)
    for j in range(20):
        for jp in (j - 1, j + 1):
            for m in range(-j, j + 1) if jp >= 0 else ():
                for theta in thetas:
                    assert (_polarization_weight(jp, j, m, theta).hex()
                            == polarization_weight_by_elements(jp, j, m, theta).hex()), \
                        (jp, j, m, theta)


@pytest.fixture(scope="module")
def imag_inputs():
    """The bundled model's imag-scan inputs on a 300-point grid: X levels at
    J = 0..3 and 12 A-b levels at each J' = 0..4, 24 lines out of J >= 1."""
    return _imag_inputs(load_config(overrides=["grid.points=300"]), (0, 1, 2, 3))


def _outcome(call):
    """``call()``'s value, or its refusal as (message, point, line, guard)."""
    try:
        return call()
    except PoleProximityError as exc:
        return str(exc), exc.point, exc.line, exc.guard


def _same(got, want):
    """One refusal, or one value of one type and shape with the same bits."""
    if isinstance(want, tuple):
        return got == want
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@seed(3601)
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_alpha_imag_is_the_per_line_oracle_bit_for_bit(imag_inputs, data):
    """The in-place line sum and the sorted-neighbour pole screen give the
    per-line route's bits, and its refusal (message, point, line and guard),
    over drawn axes: 0-d, ascending, descending, unsorted and 2-d, with
    points on, inside, at and just outside a line's guard, +-1e300, +-inf
    and nan, at zero branch weights and zero linewidths."""
    x, ab, d, gammas = imag_inputs
    j = data.draw(st.integers(0, 3), label="j")
    m = data.draw(st.integers(-j, j), label="m")
    # theta 0 at |M| = J zeroes the J' = J - 1 weight
    theta = data.draw(st.sampled_from([0.0, math.pi / 2, math.radians(MAGIC_ANGLE_DEG)])
                      | st.floats(0.0, math.pi), label="theta")
    zeros = data.draw(st.sampled_from(["none", "some", "all"]), label="zero gammas")
    if zeros != "none":
        gammas = np.where(np.arange(len(ab)) % 2 == 0 if zeros == "some" else True, 0.0, gammas)
    lines = (ab.energies - x.energies[j])[np.abs(ab.j - j) == 1]
    guard = 1e-6 * np.min(np.diff(np.unique(lines)))
    de = data.draw(st.sampled_from(lines.tolist()), label="line")
    near = st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e3, 1e6]).flatmap(
        lambda k: st.sampled_from([de - k * guard, de + k * guard])) | st.sampled_from(
        [-1.0, 1.0]).map(lambda s: float(np.nextafter(de + s * guard, s * np.inf)))
    special = st.sampled_from([1e300, -1e300, np.inf, -np.inf, np.nan, 0.0, -0.0])
    window = st.floats(0.9 * lines.min(), 1.1 * lines.max())
    points = data.draw(st.lists(near | special | window, max_size=30), label="points")
    shape = data.draw(st.sampled_from(["0-d", "ascending", "descending", "drawn", "2-d"]),
                      label="shape")
    if shape == "0-d":
        nu = points[0] if points else de + 3.0 * guard
    else:
        nu = np.array(points, dtype=float)
        if shape in ("ascending", "descending"):
            nu = np.sort(nu)[::1 if shape == "ascending" else -1]
        elif shape == "2-d" and nu.size % 2 == 0:
            nu = nu.reshape(2, -1)
    assert _same(_outcome(lambda: alpha_imag(x, ab, d, gammas, nu, j, m, theta)),
                 _outcome(lambda: alpha_imag_per_line(x, ab, d, gammas, nu, j, m, theta)))


def test_alpha_imag_holds_a_few_axis_buffers(imag_inputs):
    """One call over P = 200,000 points peaks below 4 float buffers of the
    axis' shape, 8P bytes each: the pole screen's sorted copy first, then
    nu^2, one line's term and the total.  A (lines x points) temporary would
    hold 24 such buffers here, and any per-line stack of two, 5."""
    x, ab, d, gammas = imag_inputs
    lines = (ab.energies - x.energies[1])[np.abs(ab.j - 1) == 1]
    nu = np.linspace(0.9 * lines.min(), 0.999 * lines.min(), 200_000)
    tracemalloc.start()
    try:
        alpha_imag(x, ab, d, gammas, nu, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * nu.size, peak / (8 * nu.size)
