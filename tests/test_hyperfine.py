"""Hyperfine-rotational Hamiltonian in the coupled spin basis."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants as sc

from magictrap import (
    ConfigError,
    EigenSolution,
    FieldConfiguration,
    TERMS,
    build_basis,
    build_hamiltonian,
    diagonalize,
    eigenstate_polarizability,
    polarization_operator,
    track_states,
)
from magictrap.angular import rot_tensor_element
from magictrap.cli import main
from magictrap.config import load_config
from magictrap.hyperfine import _rot_tensors

DEFAULTS = load_config()
CONSTANTS = DEFAULTS.molecular_constants()
B_V_MHZ = CONSTANTS.b_v


def fields_with(**overrides):
    return replace(DEFAULTS.field_configuration(), **overrides)


def test_basis_dimensions_and_order():
    for j_max, dim in ((0, 16), (1, 64), (2, 144)):
        basis = build_basis(j_max, CONSTANTS)
        assert basis.dim == dim
    basis = build_basis(1, CONSTANTS)
    # lexicographic in (J, M, m_a, m_b), spins ascending
    assert basis.states[0] == (0, 0, -1.5, -1.5)
    assert basis.states[1] == (0, 0, -1.5, -0.5)
    assert basis.states[16] == (1, -1, -1.5, -1.5)
    assert basis.states[-1] == (1, 1, 1.5, 1.5)
    assert basis.rot_states == ((0, 0), (1, -1), (1, 0), (1, 1))


def test_basis_validation():
    with pytest.raises(ValueError):
        build_basis(3, CONSTANTS)
    with pytest.raises(ValueError):
        build_basis(1, replace(CONSTANTS, i_a=0.7))
    with pytest.raises(ValueError):
        build_basis(1, replace(CONSTANTS, i_b=0.0))


def test_all_terms_hermitian_and_real():
    basis = build_basis(1, CONSTANTS)
    f = fields_with(e_field=0.5, theta_e=0.4, theta_p=0.7,
                    intensity=1500.0, b_field=200.0)
    for term in TERMS:
        h = build_hamiltonian(basis, f, terms={term})
        assert h.shape == (64, 64)
        assert np.isrealobj(h)
        np.testing.assert_allclose(h, h.T, atol=1e-9 * max(1.0, np.abs(h).max()),
                                   err_msg=term)
    full = build_hamiltonian(basis, f)
    np.testing.assert_allclose(full, full.T, atol=1e-9 * np.abs(full).max())


def test_unknown_term_rejected():
    basis = build_basis(1, CONSTANTS)
    with pytest.raises(ValueError) as err:
        build_hamiltonian(basis, fields_with(), terms={"rotation", "spinspin"})
    assert "spinspin" in str(err.value)


def test_rotation_spectrum():
    basis = build_basis(1, CONSTANTS)
    h = build_hamiltonian(basis, fields_with(), terms={"rotation"})
    evals = np.sort(np.linalg.eigvalsh(h))
    np.testing.assert_allclose(evals[:16], 0.0, atol=1e-9)
    np.testing.assert_allclose(evals[16:], 2.0 * B_V_MHZ, rtol=1e-12)


def test_quadrupole_j0_block_zero_and_traceless():
    basis = build_basis(1, CONSTANTS)
    h = build_hamiltonian(basis, fields_with(), terms={"quadrupole"})
    np.testing.assert_allclose(h[:16, :16], 0.0, atol=1e-15)
    assert abs(np.trace(h)) < 1e-9 * np.abs(h).max()
    assert np.abs(h).max() > 0.0


def test_quadrupole_denominator_conventions_differ_by_factor_four():
    """For spin 3/2: i(2i - 1) = 3 versus i(i - 1) = 3/4."""
    basis = build_basis(1, CONSTANTS)
    std = build_hamiltonian(
        basis, fields_with(constants=DEFAULTS.molecular_constants()),
        terms={"quadrupole"})
    lit = build_hamiltonian(
        basis, fields_with(constants=load_config(overrides=[
            "molecule.quadrupole_denominator=literal"]).molecular_constants()),
        terms={"quadrupole"})
    np.testing.assert_allclose(lit, 4.0 * std, atol=1e-12)


def test_quadrupole_spin_half_rejected_for_standard_denominator():
    consts = replace(CONSTANTS, i_a=0.5)
    basis = build_basis(1, consts)
    f = FieldConfiguration(constants=consts)
    with pytest.raises(ConfigError):
        build_hamiltonian(basis, f, terms={"quadrupole"})


def test_basis_spins_must_match_the_constants():
    fields = load_config(overrides=["molecule.spin_na=2.5"]).field_configuration()
    with pytest.raises(ValueError, match="spins"):
        build_hamiltonian(build_basis(1, CONSTANTS), fields)
    h = build_hamiltonian(build_basis(1, fields.constants), fields)
    assert h.shape == (96, 96)


def test_zeeman_is_diagonal_with_projection_weights():
    basis = build_basis(1, CONSTANTS)
    b_gauss = 100.0
    h = build_hamiltonian(basis, fields_with(b_field=b_gauss),
                          terms={"zeeman"})
    mu_n = sc.physical_constants["nuclear magneton"][0] / sc.h / 1e10  # MHz/G
    c = DEFAULTS.molecular_constants()
    expected = np.array([
        -(c.g_a * ma + c.g_b * mb) * mu_n * b_gauss
        for (_, _, ma, mb) in basis.states
    ])
    np.testing.assert_allclose(np.diag(h), expected, rtol=1e-10)
    np.testing.assert_allclose(h - np.diag(np.diag(h)), 0.0, atol=1e-15)


def test_stark_coupling_strength():
    """<1 0|H_st|0 0> = -d E / sqrt(3) for a z-aligned field."""
    basis = build_basis(1, CONSTANTS)
    e_kv = 0.5
    h = build_hamiltonian(basis, fields_with(e_field=e_kv),
                          terms={"stark"})
    d_si = 3.2 * 1e-21 / sc.c                  # debye -> C m
    rabi_mhz = d_si * e_kv * 1e5 / sc.h / 1e6  # d E / h
    # spin-diagonal block between (0,0) and (1,0)
    got = h[0, 32]
    assert got == pytest.approx(-rabi_mhz / math.sqrt(3.0), rel=1e-10)
    # no spin flips, no Delta M != 0 elements for theta_E = 0
    for i, si in enumerate(basis.states):
        for k, sk in enumerate(basis.states):
            if si[2:] != sk[2:] or abs(si[0] - sk[0]) != 1 or si[1] != sk[1]:
                assert h[i, k] == pytest.approx(0.0, abs=1e-12)


def test_tilted_stark_couples_delta_m():
    basis = build_basis(1, CONSTANTS)
    h = build_hamiltonian(basis, fields_with(e_field=0.5, theta_e=0.3),
                          terms={"stark"})
    # (0,0,ma,mb) <-> (1,+1,ma,mb) element now nonzero
    assert abs(h[0, 48]) > 0.0


def test_isotropic_polarization_is_identity_shift():
    basis = build_basis(1, CONSTANTS)
    iso = replace(CONSTANTS, alpha_par=30.0, alpha_perp=30.0)
    op = polarization_operator(basis, iso, theta_p=0.7)
    np.testing.assert_allclose(op, 30.0 * np.eye(64), atol=1e-12)


def test_polarizability_frozen_values():
    """J=0: (a_par + 2 a_perp)/3; J=1, M=0, theta=0: (3 a_par + 2 a_perp)/5."""
    basis = build_basis(1, CONSTANTS)
    f = fields_with(b_field=0.0)
    h = build_hamiltonian(basis, f, terms={"rotation", "polarization"})
    sol = eigenstate_polarizability(diagonalize(h, basis), f)
    j0 = sol.select((0, 0))
    assert len(j0) == 16
    for i in j0:
        assert sol.polarizabilities[i] == pytest.approx(32.02066666666667,
                                                        rel=1e-10)
    j10 = sol.select((1, 0))
    for i in j10:
        assert sol.polarizabilities[i] == pytest.approx(42.374, rel=1e-10)
    j11 = sol.select((1, 1)) + sol.select((1, -1))
    assert len(j11) == 32
    for i in j11:
        # weight 1/5: (a_par + 4 a_perp) / 5
        assert sol.polarizabilities[i] == pytest.approx(26.844, rel=1e-10)


def test_spectator_spins_share_polarizability():
    """Spin projections never split the light shift.

    Grouping the 64 attached polarizabilities by value must give the
    three rotational classes (J=0, J=1 |M|=1, J=1 M=0) with spin
    multiplicities 16/32/16; label-based selection is ambiguous inside
    the exactly degenerate M = +/-1 pair, so group by value instead.
    The counts are also invariant under tilting the polarization axis.
    """
    basis = build_basis(1, CONSTANTS)
    f = fields_with(theta_p=0.6)
    h = build_hamiltonian(basis, f, terms={"rotation", "polarization"})
    sol = eigenstate_polarizability(diagonalize(h, basis), f)
    values, counts = np.unique(np.round(sol.polarizabilities, 6),
                               return_counts=True)
    np.testing.assert_allclose(values, [26.844, 32.020667, 42.374],
                               rtol=1e-6)
    assert counts.tolist() == [32, 16, 16]


def test_m_reversal_symmetry_without_magnetic_field():
    """Flipping every projection commutes with H unless B is on.

    The sign flip (m, m_a, m_b) -> (-m, -m_a, -m_b) with phase
    (-1)^(m + m_a + m_b + 3) is an orthogonal involution; electric,
    quadrupole, and light-shift terms all commute with it, while the
    Zeeman term (odd under time reversal) does not.
    """
    basis = build_basis(1, CONSTANTS)
    index = {state: k for k, state in enumerate(basis.states)}
    n = len(basis.states)
    s = np.zeros((n, n))
    for i, (j, m, ma, mb) in enumerate(basis.states):
        k = index[(j, -m, -ma, -mb)]
        s[k, i] = (-1) ** round(m + ma + mb + 3)
    np.testing.assert_allclose(s @ s.T, np.eye(n), atol=1e-14)

    f = fields_with(b_field=0.0, e_field=0.5, theta_e=0.3, theta_p=0.6)
    h = build_hamiltonian(basis, f)
    scale = np.abs(h).max()
    np.testing.assert_allclose(s @ h @ s.T, h, atol=1e-9 * scale)

    hz = build_hamiltonian(basis, fields_with(b_field=200.0),
                           terms={"zeeman"})
    assert np.abs(s @ hz @ s.T - hz).max() > 1e-3


def test_finite_difference_matches_attached_polarizability():
    basis = build_basis(1, CONSTANTS)
    f0 = fields_with(e_field=0.5)
    delta = 1.0  # W/cm^2
    sol = eigenstate_polarizability(
        diagonalize(build_hamiltonian(basis, f0), basis), f0)
    e_hi = diagonalize(build_hamiltonian(
        basis, replace(f0, intensity=f0.intensity + delta)), basis).energies
    e_lo = diagonalize(build_hamiltonian(
        basis, replace(f0, intensity=f0.intensity - delta)), basis).energies
    fd = -(e_hi - e_lo) / (2.0 * delta) * 1e6  # MHz -> Hz per (W/cm^2)
    np.testing.assert_allclose(fd, sol.polarizabilities, rtol=1e-6)


def test_diagonalize_validation():
    basis = build_basis(1, CONSTANTS)
    with pytest.raises(ValueError):
        diagonalize(np.zeros((4, 4)), basis)
    h = np.zeros((64, 64))
    h[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        diagonalize(h, basis)


def test_field_configuration_validation():
    c = DEFAULTS.molecular_constants()
    with pytest.raises(ValueError):
        FieldConfiguration(constants=c, b_field=-1.0)
    with pytest.raises(ValueError):
        FieldConfiguration(constants=c, intensity=-5.0)


def test_track_states_identity_and_mixing():
    basis = build_basis(1, CONSTANTS)
    f = fields_with()
    sol = diagonalize(build_hamiltonian(basis, f), basis)
    perm = track_states(sol, sol)
    np.testing.assert_array_equal(perm, np.arange(64))
    # a tiny field step keeps the pairing bijective
    f2 = fields_with(intensity=f.intensity + 5.0)
    sol2 = diagonalize(build_hamiltonian(basis, f2), basis)
    perm2 = track_states(sol, sol2)
    assert sorted(perm2) == list(range(64))


def test_eigen_solution_select_and_labels(narb_hyperfine):
    sol = narb_hyperfine
    assert isinstance(sol, EigenSolution)
    counts = {label: len(sol.select(label)) for label in set(sol.labels)}
    assert sum(counts.values()) == 64
    # labels cover all four rotational characters at the default fields
    assert set(counts) == {(0, 0), (1, -1), (1, 0), (1, 1)}
    assert counts[(0, 0)] == 16


def _greedy_match(overlap):
    """Largest-entry-first matching, the pairing the assignment replaced."""
    work = overlap.copy()
    perm = np.full(len(work), -1)
    for _ in range(len(work)):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i] = j
        work[i, :] = -1.0
        work[:, j] = -1.0
    return tuple(perm.tolist())


def _givens(i, j, deg):
    r = np.eye(4)
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    r[i, i] = r[j, j] = c
    r[i, j], r[j, i] = -s, s
    return r


def test_track_states_maximizes_the_summed_overlap():
    """A rotation whose largest overlap is a trap for a greedy match."""
    basis = build_basis(0, replace(CONSTANTS, i_a=0.5, i_b=0.5))
    rotation = _givens(0, 1, 50) @ _givens(1, 2, 60) @ _givens(0, 1, 40)
    a = EigenSolution(basis=basis, energies=np.zeros(4), vectors=np.eye(4),
                      labels=((0, 0),) * 4)
    b = replace(a, vectors=rotation)
    overlap = np.abs(rotation)

    def total(perm):
        return sum(overlap[i, k] for i, k in enumerate(perm))

    best = max(itertools.permutations(range(4)), key=total)
    assert total(_greedy_match(overlap)) < total(best) - 0.1
    assert tuple(track_states(a, b).tolist()) == best


def _rot_ckq(rot_states, k, q):
    """C_kq over ``rot_states``, one 3-j evaluation per element."""
    n = len(rot_states)
    op = np.zeros((n, n))
    for col, (j, m) in enumerate(rot_states):
        for row, (jp, mp) in enumerate(rot_states):
            if mp == m + q:
                op[row, col] = rot_tensor_element(jp, mp, k, q, j, m)
    return op


def test_rot_tensor_table_matches_per_element_build():
    for j_max in (0, 1, 2):
        rot = build_basis(j_max, CONSTANTS).rot_states
        table = _rot_tensors(j_max)
        assert sorted(table) == [(k, q) for k in (1, 2) for q in range(-k, k + 1)]
        for (k, q), op in table.items():
            assert not op.flags.writeable
            assert np.array_equal(op, _rot_ckq(rot, k, q))


def _per_vector_phases_and_labels(h, basis):
    """eigh, then the phase convention and labels one eigenvector at a time."""
    energies, vectors = np.linalg.eigh(h)
    labels = []
    for i in range(vectors.shape[1]):
        col = vectors[:, i]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            vectors[:, i] = -col
        blocks = vectors[:, i].reshape(len(basis.rot_states), -1)
        weights = {jm: float(np.sum(blocks[r] ** 2))
                   for r, jm in enumerate(basis.rot_states)}
        labels.append(max(weights, key=weights.get))
    return energies, vectors, tuple(labels)


@pytest.mark.parametrize("terms", [TERMS, TERMS - {"polarization"}])
def test_angle_axis_matches_per_angle_calls(terms):
    basis = build_basis(1, CONSTANTS)
    f = fields_with(e_field=0.5, theta_e=0.35)
    thetas = np.radians(np.linspace(0.0, 90.0, 13))
    at = replace(f, theta_p=thetas)
    h = build_hamiltonian(basis, at, terms)
    assert h.shape == (len(thetas), 64, 64)
    sol = diagonalize(h, basis)
    if "polarization" in terms:
        sol = eigenstate_polarizability(sol, at)
    for k, theta in enumerate(thetas.tolist()):
        one = replace(f, theta_p=theta)
        h_k = build_hamiltonian(basis, one, terms)
        assert h_k.shape == (64, 64) and np.array_equal(h[k], h_k)
        sol_k = diagonalize(h_k, basis)
        energies, vectors, labels = _per_vector_phases_and_labels(h_k, basis)
        assert np.array_equal(sol_k.energies, energies)
        assert np.array_equal(sol_k.vectors, vectors)
        assert sol_k.labels == labels
        assert np.array_equal(sol.energies[k], energies)
        assert np.array_equal(sol.vectors[k], vectors)
        assert sol.labels[k] == sol[k].labels == labels
        if "polarization" in terms:
            alphas = eigenstate_polarizability(sol_k, one).polarizabilities
            assert np.array_equal(sol.polarizabilities[k], alphas)
            assert np.array_equal(
                alphas, np.einsum("ij,ik,kj->j", vectors,
                                  polarization_operator(basis, f.constants, theta),
                                  vectors))


def test_hyperfine_scan_is_one_eigh_call(tmp_path, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert main(["hyperfine-scan", "--out", str(tmp_path),
                 "--override", "scan.points=8"]) == 0
    assert calls == [(8, 64, 64)]
