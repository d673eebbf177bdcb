"""Acceptance gate: the nine release checks, one printed verdict each.

Every test re-derives its inputs from the bundled constants (or the
stiff two-channel recipe in conftest), measures its own runtime, and
prints exactly one ``criterion N: PASS/FAIL`` line.  Run with ``-s`` to
see the lines live:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import sph_harm_y

import magictrap as mt
from magictrap import narb
from magictrap.config import load_config
from magictrap.magic import calibrate_gamma, find_magic_angle, find_magic_detuning
from magictrap.units import (
    AMU_TO_ME,
    AU_POL_TO_MHZ_PER_WCM2,
    CM1_TO_GHZ,
    HARTREE_TO_CM1,
    HARTREE_TO_GHZ,
    Unit,
    convert,
)

from conftest import build_stiff_pair
from oracles import (alpha_sum_over_states, diagonalize, eigenstate_polarizability,
                     morse_levels, radial_models, wavelength_nm)


def report(n: int, ok: bool, detail: str) -> None:
    __tracebackhide__ = True
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_magic_angle():
    t0 = time.perf_counter()
    fields = load_config().field_configuration()
    sol = find_magic_angle(fields, (1, 0), (0, 0),
                           terms={"rotation", "polarization", "zeeman"})
    elapsed = time.perf_counter() - t0
    err = abs(sol.location - 54.7356)
    report(1, err <= 0.001 and elapsed < 1.0,
           f"angle {sol.location:.4f} deg, err {err:.1e} <= 1e-3 deg, "
           f"{elapsed:.2f}s < 1s")


def test_criterion_2_magic_detuning_ladder():
    t0 = time.perf_counter()
    template = load_config(overrides=[f"molecule.gamma_hz={1000.0!r}"]).spec()
    calibrated = calibrate_gamma(template, (0, 1), 103.0)
    anchor = find_magic_detuning(calibrated, 0, 1).location
    targets = {2: 105.0, 3: 108.0, 4: 112.0, 5: 116.0}
    crossings = {jp: find_magic_detuning(calibrated, 0, jp).location
                 for jp in targets}
    elapsed = time.perf_counter() - t0
    worst = max(abs(crossings[jp] - t) for jp, t in targets.items())
    ladder = [anchor] + [crossings[jp] for jp in sorted(crossings)]
    increasing = all(a < b for a, b in zip(ladder, ladder[1:]))
    detail = ("crossings " +
              ", ".join(f"J'={jp}: {crossings[jp]:.2f}" for jp in sorted(crossings)) +
              f" GHz, worst dev {worst:.2f} <= 1.5 GHz, "
              f"increasing {increasing}, {elapsed:.2f}s < 10s")
    report(2, abs(anchor - 103.0) < 1e-6 and worst <= 1.5 and increasing
           and elapsed < 10.0, detail)


def test_criterion_3_resonance_structure(narb_spec):
    t0 = time.perf_counter()
    deltas = np.linspace(-50.0, 150.0, 512)
    step = deltas[1] - deltas[0]

    def poles_of(j):
        vals = np.array([
            mt.alpha_analytic(narb_spec,
                              narb_spec.reference.energy + d / HARTREE_TO_GHZ,
                              j, 0)
            for d in deltas
        ])
        found = []
        for k in range(len(deltas) - 1):
            y0, y1 = vals[k], vals[k + 1]
            if not (np.isfinite(y0) and np.isfinite(y1)):
                found.append(0.5 * (deltas[k] + deltas[k + 1]))
            elif np.sign(y0) != np.sign(y1) and min(abs(y0), abs(y1)) > 1e4:
                found.append(0.5 * (deltas[k] + deltas[k + 1]))
        return found

    p0 = poles_of(0)
    p1 = sorted(poles_of(1))
    elapsed = time.perf_counter() - t0
    # the J=1 poles sit where the detuning cancels a branch offset, so
    # the recovered offsets are minus the pole positions
    ok = (len(p0) == 1 and abs(p0[0]) <= step
          and len(p1) == 2
          and abs(-p1[0] - 8.369) <= step
          and abs(-p1[1] - (-4.201)) <= step
          and elapsed < 5.0)
    detail = (f"J=0 poles {[f'{p:+.2f}' for p in p0]}, "
              f"J=1 poles {[f'{p:+.2f}' for p in p1]} GHz "
              f"(offsets +8.369/-4.201 within {step:.2f} GHz), "
              f"{elapsed:.2f}s < 5s")
    report(3, ok, detail)


def test_criterion_4_dual_route_equivalence():
    t0 = time.perf_counter()
    pack = build_stiff_pair()
    spec = pack["spec"]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        j = int(rng.integers(0, 4))
        m = int(rng.integers(0, min(j, 1) + 1))
        theta = float(rng.uniform(0.0, math.pi / 2))
        delta = float(rng.uniform(30.0, 300.0)) * (1 if rng.random() < 0.5 else -1)
        nu = spec.reference.energy + delta / HARTREE_TO_GHZ
        closed = mt.alpha_analytic(spec, nu, j, m, theta)
        summed = alpha_sum_over_states(pack["x"], pack["ab"], pack["dipoles"],
                                       nu, j, m, theta,
                                       background=pack["background"])
        worst = max(worst, abs(closed - summed) / abs(summed))
    elapsed = time.perf_counter() - t0
    report(4, worst < 1e-6 and elapsed < 30.0,
           f"200 detunings, worst rel dev {worst:.2e} < 1e-6, "
           f"{elapsed:.2f}s < 30s")


def test_criterion_5_dvr_fidelity():
    t0 = time.perf_counter()
    cfg = load_config()
    grid = cfg.radial_grid()            # n = 1200
    ground, _, _ = radial_models(cfg)
    mass = cfg.reduced_mass_amu()
    numeric = mt.rovib_basis(ground, 0, mass, grid).levels(0, 10)
    exact = morse_levels(ground, mass * AMU_TO_ME)[:10]
    morse_rel = max(abs(lv - ex) / abs(ex)
                    for lv, ex in zip(numeric.energies, exact))
    v0 = [mt.rovib_basis(ground, j, mass, grid).levels(j, 1)
          for j in range(6)]
    b0 = (v0[1].energies[0] - v0[0].energies[0]) / 2.0
    rotor_rel = max(
        abs((v0[j].energies[0] - v0[0].energies[0]) / (j * (j + 1)) - b0) / b0
        for j in range(1, 6)
    )
    b0_cm1 = v0[0].b_rot[0] * HARTREE_TO_CM1
    b0_rel = abs(b0_cm1 - 0.06970) / 0.06970
    elapsed = time.perf_counter() - t0
    ok = (morse_rel <= 1e-8 and rotor_rel <= 0.005 and b0_rel <= 0.01
          and elapsed < 20.0)
    report(5, ok,
           f"Morse rel {morse_rel:.1e} <= 1e-8, rotor rel {rotor_rel:.1e} "
           f"<= 5e-3, B0 {b0_cm1:.5f} cm^-1 ({b0_rel:.2%} of 0.06970), "
           f"{elapsed:.2f}s < 20s")


def test_criterion_6_imaginary_part():
    t0 = time.perf_counter()
    cfg = load_config()
    grid = cfg.radial_grid()
    ground, model, dipole = narb.pinned_models(cfg)[:3]
    mass = cfg.reduced_mass_amu()
    x_levels = mt.RovibLevels.join([mt.rovib_basis(ground, j, mass, grid).levels(j, 1)
                                    for j in (0, 1)])
    ab_levels = mt.RovibLevels.join([mt.rovib_basis(model, jp, mass, grid).levels(jp, 6)
                                     for jp in (0, 1, 2)])
    dipoles = mt.radial_matrix_element(x_levels, dipole, ab_levels, pairs={(0, 0): dipole})
    gammas = mt.linewidth(ab_levels, [(ground, dipole)])
    lowest = min(ab - x
                 for x, xj in zip(x_levels.energies, x_levels.j)
                 for ab, abj in zip(ab_levels.energies, ab_levels.j)
                 if abs(abj - xj) == 1)
    spacing = 34.5 / HARTREE_TO_CM1    # upper-well vibrational ladder

    sign_ok = True
    variations = []
    for lo, hi in [
        (lowest - 130.0 / HARTREE_TO_CM1, lowest - 15.0 / HARTREE_TO_CM1),
        (0.80 * lowest, 0.85 * lowest),
    ]:
        assert (hi - lo) / spacing >= 3.0
        ratios = []
        for nu in np.linspace(lo, hi, 40):
            im0 = mt.alpha_imag(x_levels, ab_levels, dipoles, gammas,
                                nu, 0, 0)
            im1 = mt.alpha_imag(x_levels, ab_levels, dipoles, gammas,
                                nu, 1, 0)
            sign_ok = sign_ok and im0 <= 0.0 and im1 <= 0.0
            ratios.append(im1 / im0)
        variations.append(max(ratios) / min(ratios) - 1.0)
    elapsed = time.perf_counter() - t0
    ok = sign_ok and all(v < 0.01 for v in variations) and elapsed < 20.0
    report(6, ok,
           f"Im alpha <= 0 below lowest line {sign_ok}, ratio variation "
           f"{max(variations):.1e} < 1e-2 over windows >= 3 spacings, "
           f"{elapsed:.2f}s < 20s")


def test_criterion_7_hyperfine_suite():
    t0 = time.perf_counter()
    fields = load_config().field_configuration()
    basis = mt.build_basis(1, fields.constants)
    h = mt.build_hamiltonian(basis, fields)
    dim_ok = basis.dim == 64 and h.shape == (64, 64)
    hermitian_ok = np.abs(h - h.T.conj()).max() <= 1e-12 * np.abs(h).max()
    hq = mt.build_hamiltonian(basis, fields, terms={"quadrupole"})
    block_ok = np.abs(hq[:16, :16]).max() == 0.0

    sol = eigenstate_polarizability(
        diagonalize(h, basis), fields)
    delta = 1.0
    e_hi = diagonalize(mt.build_hamiltonian(
        basis, replace(fields, intensity=fields.intensity + delta)),
        basis).energies
    e_lo = diagonalize(mt.build_hamiltonian(
        basis, replace(fields, intensity=fields.intensity - delta)),
        basis).energies
    fd = -(e_hi - e_lo) / (2.0 * delta) * 1e6
    fd_rel = np.max(np.abs(fd - sol.polarizabilities)
                    / np.abs(sol.polarizabilities))

    def theta_spread(e_field):
        worst = 0.0
        for theta_deg in np.linspace(0.0, 90.0, 13):
            f = replace(fields, e_field=e_field,
                        theta_p=math.radians(theta_deg))
            s = eigenstate_polarizability(
                diagonalize(mt.build_hamiltonian(basis, f), basis), f)
            vals = s.polarizabilities[s.select((1, 0))]
            assert len(vals) == 16
            worst = max(worst, float(vals.max() - vals.min()))
        return worst

    spread_off = theta_spread(0.0)
    spread_on = theta_spread(0.5)
    shrink = spread_off / spread_on
    elapsed = time.perf_counter() - t0
    ok = (dim_ok and hermitian_ok and block_ok and fd_rel <= 1e-6
          and shrink >= 5.0 and elapsed < 60.0)
    report(7, ok,
           f"dim 64 {dim_ok}, Hermitian {hermitian_ok}, J=0 quad block zero "
           f"{block_ok}, FD rel {fd_rel:.1e} <= 1e-6 on all 64, theta-spread "
           f"shrink {shrink:.0f}x >= 5x at 0.5 kV/cm, {elapsed:.2f}s < 60s")


def _tensor_by_quadrature(jp, mp, k, q, j, m):
    if mp != m + q:
        return 0.0

    def integrand(theta):
        return (sph_harm_y(jp, mp, theta, 0.0).real
                * sph_harm_y(k, q, theta, 0.0).real
                * sph_harm_y(j, m, theta, 0.0).real
                * math.sin(theta))

    val, _ = quad(integrand, 0.0, math.pi, limit=200)
    return 2.0 * math.pi * math.sqrt(4.0 * math.pi / (2 * k + 1)) * val


def test_criterion_8_angular_algebra():
    t0 = time.perf_counter()
    sum_dev = 0.0
    collapse_dev = 0.0
    magic = math.radians(mt.MAGIC_ANGLE_DEG)
    for j in range(7):
        for theta in (0.0, 0.3, 1.0, magic, math.pi / 2):
            total = sum(mt.angular_factors(j, m, theta).total
                        for m in range(-j, j + 1))
            sum_dev = max(sum_dev, abs(total - (2 * j + 1) / 3.0))
        for m in range(-j, j + 1):
            collapse_dev = max(
                collapse_dev,
                abs(mt.angular_factors(j, m, magic).total - 1.0 / 3.0))

    ortho_dev = 0.0
    for j1 in range(5):
        for j2 in range(5):
            j3_range = range(abs(j1 - j2), j1 + j2 + 1)
            for j3 in j3_range:
                for j3p in j3_range:
                    for m3 in range(-min(j3, j3p), min(j3, j3p) + 1):
                        acc = Fraction(0)
                        for m1 in range(-j1, j1 + 1):
                            m2 = -m3 - m1
                            if abs(m2) > j2:
                                continue
                            acc += (mt.wigner3j(j1, j2, j3, m1, m2, m3)
                                    * mt.wigner3j(j1, j2, j3p, m1, m2, m3)
                                    * (2 * j3 + 1))
                        expect = 1.0 if (j3 == j3p) else 0.0
                        ortho_dev = max(ortho_dev, abs(float(acc) - expect))

    quad_dev = 0.0
    for k in (1, 2):
        for jp in range(4):
            for j in range(4):
                for m in range(-j, j + 1):
                    for q in range(-k, k + 1):
                        if abs(m + q) > jp:
                            continue
                        quad_dev = max(quad_dev, abs(
                            mt.rot_tensor_element(jp, m + q, k, q, j, m)
                            - _tensor_by_quadrature(jp, m + q, k, q, j, m)))
    elapsed = time.perf_counter() - t0
    ok = (sum_dev <= 1e-12 and collapse_dev <= 1e-12
          and ortho_dev <= 1e-12 and quad_dev <= 1e-9)
    report(8, ok,
           f"sum rule dev {sum_dev:.1e} and magic collapse dev "
           f"{collapse_dev:.1e} <= 1e-12 (J <= 6), 3j orthogonality dev "
           f"{ortho_dev:.1e} <= 1e-12 (j <= 4), tensor-vs-quadrature dev "
           f"{quad_dev:.1e} <= 1e-9, {elapsed:.2f}s")


def test_criterion_9_unit_round_trips():
    t0 = time.perf_counter()
    factor_ok = AU_POL_TO_MHZ_PER_WCM2 == 4.68645e-8
    au = convert(convert(1.0, Unit.AU_POL, Unit.MHZ_PER_WCM2),
                 Unit.MHZ_PER_WCM2, Unit.AU_POL)
    round_au = abs(au - 1.0)
    ghz = convert(1.0, Unit.WAVENUMBER, Unit.GHZ)
    cm_rel = abs(ghz - 29.9792458) / 29.9792458
    back = convert(ghz, Unit.GHZ, Unit.WAVENUMBER)
    round_cm = abs(back - 1.0)
    nm = wavelength_nm(11306.4, Unit.WAVENUMBER)
    nm_err = abs(nm - 884.0)
    elapsed = time.perf_counter() - t0
    ok = (factor_ok and round_au <= 1e-12 and cm_rel <= 1e-12
          and round_cm <= 1e-12 and nm_err < 1.0)
    report(9, ok,
           f"a.u. <-> MHz/(W/cm^2) via 4.68645e-8 {factor_ok}, round trips "
           f"{max(round_au, round_cm):.1e} <= 1e-12, cm^-1 <-> GHz rel "
           f"{cm_rel:.1e}, 11306.4 cm^-1 -> {nm:.2f} nm (|err| {nm_err:.2f} "
           f"< 1 nm), {elapsed:.2f}s")
