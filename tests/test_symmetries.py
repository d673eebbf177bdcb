"""Relations that the model's symmetries make exact.

They hold on any host, up to round-off, where a golden digest pins one
host's bits.  Each comes with a control that breaks it:

- At E parallel to B, a rotation by 180 degrees about z keeps both fields
  and every (J, M) and maps the polarization at theta_p to the one at
  180 degrees - theta_p.  The hyperfine energies, dominant labels and
  alpha are the same at both angles; a dc field tilted off z breaks it.
- The closed-form alpha reads M only through M^2 and |M|, so alpha(J, M)
  and alpha(J, -M) are the same bits; alpha(J, M - 1) is not.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from magictrap import cli, hyperfine
from magictrap.config import load_config
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
