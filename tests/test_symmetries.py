"""Relations that the model's symmetries make exact.

They hold on any host, up to round-off, where a golden digest pins one
host's bits.  Each comes with a control that breaks it:

- At E parallel to B, a rotation by 180 degrees about z keeps both fields
  and every (J, M) and maps the polarization at theta_p to the one at
  180 degrees - theta_p.  The hyperfine energies, dominant labels and
  alpha are the same at both angles; a dc field tilted off z breaks it.
- The closed-form alpha reads M only through M^2 and |M|, so alpha(J, M)
  and alpha(J, -M) are the same bits; alpha(J, M - 1) is not.  So are the
  value columns of ``alpha-scan`` and ``imag-scan`` at ``scan.m`` = +M and
  -M, and not at M - 1.
- A scan cell is a function of its photon energy alone: two axes that
  share a detuning give the same cell there, and another M does not.
- Swapping a search's two states negates its objective, and the driver
  orders the bracket by the sign of f, so it takes the same steps: the
  same root with the residual and slope negated.  Another state in place
  of one (M - 1 for an angle, J' + 1 for a detuning) gives another root.
- A search in a bracket narrowed around its root returns that root to
  within the search's resolution; a bracket narrowed beside it holds no
  sign change.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from magictrap import cli, hyperfine
from magictrap.config import load_config
from magictrap.errors import NoRootError
from magictrap.magic import find_magic_angle, find_magic_detuning
from magictrap.polarizability import alpha_analytic
from magictrap.units import HARTREE_TO_GHZ

# bounds of the mirrored pipeline's differences: energies in MHz, alpha
# relative to the largest |alpha|.  On a 2-core x86 host they read at most
# 1.8e-11 MHz and 3.1e-10 under the SkylakeX, Haswell and Sandybridge
# OpenBLAS kernels and at one thread; the control reads 2.0e-2 MHz and 0.24
ENERGY_BOUND_MHZ = 1e-9
ALPHA_BOUND = 1e-8


def _mirror_differences(overrides: list[str]) -> tuple[bool, float, float]:
    """Whether the labels agree, and the largest |dE| (MHz) and |d alpha| /
    max |alpha| between the hyperfine pipeline at the 91 angles 0..90
    degrees and at 180 degrees less each."""
    cfg = load_config(None, overrides)
    fields = cfg.field_configuration()
    basis = hyperfine.build_basis(cli._J_MAX, fields.constants)
    degrees = np.linspace(0.0, 90.0, 91)
    solved = []
    for axis in (degrees, 180.0 - degrees):
        at = replace(fields, theta_p=np.radians(axis))
        energies, _, dominant, alphas = hyperfine._angle_solver(basis, at, cfg.terms())(
            at.theta_p)
        solved.append((energies, dominant, alphas))
    (e0, d0, a0), (e1, d1, a1) = solved
    return (np.array_equal(d0, d1), float(np.max(np.abs(e0 - e1))),
            float(np.max(np.abs(a0 - a1)) / np.max(np.abs(a0))))


@pytest.mark.parametrize("overrides", [[], ["fields.e_field_kv_cm=0.5"]],
                         ids=["bundled", "E=0.5kV/cm"])
def test_polarization_mirror_at_e_parallel_to_b(overrides):
    same_labels, energy, alpha = _mirror_differences(overrides)
    assert same_labels
    assert energy <= ENERGY_BOUND_MHZ
    assert alpha <= ALPHA_BOUND


def test_a_tilted_dc_field_breaks_the_polarization_mirror():
    _, energy, alpha = _mirror_differences(["fields.e_field_kv_cm=0.5",
                                            "fields.e_theta_deg=20"])
    assert energy > ENERGY_BOUND_MHZ
    assert alpha > ALPHA_BOUND


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_alpha_is_even_in_m_bit_for_bit(narb_spec, j):
    nu = narb_spec.reference.energy + np.linspace(-50.0, 150.0, 4001) / HARTREE_TO_GHZ
    for theta in (0.0, 0.7, math.pi / 2):
        for m in range(1, j + 1):
            plus = alpha_analytic(narb_spec, nu, j, m, theta)
            assert plus.tobytes() == alpha_analytic(narb_spec, nu, j, -m, theta).tobytes()
    assert not np.array_equal(plus, alpha_analytic(narb_spec, nu, j, j - 1, theta))


# (detuning text, J) -> value text of each row, with the M column dropped:
# the 201 and 401 points over -50.25..149.75 GHz step by 1 and 0.5 GHz, so
# every other point of the finer axis is the same float as the coarser's,
# and no point lands on the J = 0 line at 0 GHz
SCAN_AXIS = ["scan.start_ghz=-50.25", "scan.stop_ghz=149.75", "scan.j_values=1,2,3"]
SCANS = {"alpha-scan": [],
         "imag-scan": ["grid.points=300", "scan.max_levels=3"]}


def _scan_cells(subcommand: str, points: int, m: int, out) -> dict[tuple[str, str], str]:
    overrides = [*SCAN_AXIS, *SCANS[subcommand], f"scan.points={points}", f"scan.m={m}"]
    assert cli.main([subcommand, "--out", str(out),
                     *(arg for o in overrides for arg in ("--override", o))]) == 0
    lines = (out / f"{subcommand.replace('-', '_')}.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["detuning_ghz", "j", "m"]
    cells = {}
    for line in lines[1:]:
        detuning, j, row_m, value = line.split(",")
        assert int(row_m) == m
        cells[detuning, j] = value
    return cells


@pytest.mark.parametrize("subcommand", sorted(SCANS))
def test_one_photon_energy_gives_one_cell_on_any_axis(subcommand, tmp_path):
    coarse = _scan_cells(subcommand, 201, 1, tmp_path)
    fine = _scan_cells(subcommand, 401, 1, tmp_path)
    shared = coarse.keys() & fine.keys()
    assert len(shared) == 603 == len(coarse)
    assert [k for k in shared if coarse[k] != fine[k]] == []
    # control: the finer axis at M - 1
    other = _scan_cells(subcommand, 401, 0, tmp_path)
    assert [k for k in shared if coarse[k] != other[k]]


@pytest.mark.parametrize("subcommand", sorted(SCANS))
def test_scan_value_columns_are_even_in_m(subcommand, tmp_path):
    plus = _scan_cells(subcommand, 201, 1, tmp_path)
    assert _scan_cells(subcommand, 201, -1, tmp_path) == plus
    assert _scan_cells(subcommand, 201, 0, tmp_path) != plus


# the four state pairs of the benchmark's eigen angle searches
ANGLE_PAIRS = (((1, 0, 0), (0, 0, 0)), ((1, 0, 1), (0, 0, 1)),
               ((1, 1, 0), (0, 0, 0)), ((1, -1, 0), (0, 0, 0)))
ANGLE_XTOL_DEG = 1e-8
# nu = E_ref + detuning / HARTREE_TO_GHZ resolves a detuning only to
# ~5e-11 GHz, so a search from another bracket may end a few nu steps away
# from the first: on a 2-core x86 host the narrowed ladder moved by at most
# 3.0e-11 GHz
DETUNING_STAIRCASE_GHZ = 1e-10


def _angle_fields(e_field: float):
    return replace(load_config().field_configuration(), e_field=e_field)


@pytest.mark.parametrize("e_field", [0.1, 0.5, 2.0])
def test_swapping_an_angle_search_s_states_negates_it_bit_for_bit(e_field):
    fields = _angle_fields(e_field)
    for a, b in ANGLE_PAIRS:
        sol = find_magic_angle(fields, a, b, (40.0, 70.0), method="eigen")
        swapped = find_magic_angle(fields, b, a, (40.0, 70.0), method="eigen")
        assert swapped.location == sol.location, (a, b)
        assert (swapped.residual, swapped.slope) == (-sol.residual, -sol.slope), (a, b)
        # control: the swapped search of the state at M - 1, where it exists
        j, m, rank = a
        if abs(m - 1) <= j:
            other = find_magic_angle(fields, b, (j, m - 1, rank), (40.0, 70.0), method="eigen")
            assert abs(other.location - sol.location) > ANGLE_XTOL_DEG, (a, b)


@pytest.mark.parametrize("bracket", [(30.0, 300.0), (60.0, 140.0)],
                         ids=["30-300GHz", "60-140GHz"])
def test_swapping_a_detuning_search_s_states_negates_it(narb_spec, bracket):
    """The same root to a few ulp; both ends of the swap read the same nu
    there, so the residual is negated exactly.  The slope sums its branch
    terms in the other order, so it is negated to rounding."""
    for j_b in range(1, 6):
        sol = find_magic_detuning(narb_spec, 0, j_b, bracket=bracket)
        swapped = find_magic_detuning(narb_spec, j_b, 0, bracket=bracket)
        assert abs(swapped.location - sol.location) <= 4 * math.ulp(sol.location), j_b
        assert swapped.residual == -sol.residual, j_b
        assert swapped.slope == pytest.approx(-sol.slope, rel=1e-12), j_b
        # control: the swapped search of J' + 1
        other = find_magic_detuning(narb_spec, j_b + 1, 0, bracket=bracket)
        assert abs(other.location - sol.location) > DETUNING_STAIRCASE_GHZ, j_b


@pytest.mark.parametrize("e_field", [0.1, 0.5, 2.0])
def test_a_narrowed_bracket_keeps_the_angle_root(e_field):
    fields = _angle_fields(e_field)
    for a, b in ANGLE_PAIRS:
        root = find_magic_angle(fields, a, b, (40.0, 70.0), method="eigen").location
        # asymmetric, so no search starts on the root
        for width in (1.0, 1e-3, 1e-6):
            narrowed = find_magic_angle(fields, a, b, (root - width, root + 0.7 * width),
                                        method="eigen")
            assert abs(narrowed.location - root) <= ANGLE_XTOL_DEG, (a, b, width)
        # control: a bracket narrowed beside the root
        with pytest.raises(NoRootError, match="no sign change"):
            find_magic_angle(fields, a, b, (root + 1e-3, root + 1.0), method="eigen")


def test_a_narrowed_bracket_keeps_the_detuning_root(narb_spec):
    for j_b in range(1, 6):
        root = find_magic_detuning(narb_spec, 0, j_b, bracket=(60.0, 140.0)).location
        for width in (1.0, 1e-3, 1e-6):
            narrowed = find_magic_detuning(narb_spec, 0, j_b,
                                           bracket=(root - width, root + 0.7 * width))
            assert abs(narrowed.location - root) <= DETUNING_STAIRCASE_GHZ, (j_b, width)
        with pytest.raises(NoRootError, match="no sign change"):
            find_magic_detuning(narb_spec, 0, j_b, bracket=(root + 1e-3, root + 1.0))
