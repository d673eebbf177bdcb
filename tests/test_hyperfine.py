"""Hyperfine-rotational Hamiltonian in the coupled spin basis."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants as sc
import scipy.optimize
from scipy.optimize import linear_sum_assignment

from magictrap import (
    ConfigError,
    FieldConfiguration,
    TERMS,
    build_basis,
    build_hamiltonian,
    find_magic_angle,
)
from magictrap import cli, hyperfine, radial
from magictrap.angular import rot_tensor_element
from magictrap.cli import main
from magictrap.config import load_config
from magictrap.magic import _state_picker
from magictrap.units import NUCLEAR_MAGNETON_MHZ_PER_G

from oracles import (EigenSolution, diagonalize, eigenstate_polarizability,
                     polarization_operator, track_states)

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
    # NaN fails every comparison, so the symmetry check alone would pass it
    # on to eigh, whose NaN energies label every state (0, 0)
    for bad in (math.nan, math.inf):
        h = np.zeros((2, 64, 64))
        h[1, 5, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
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
    # on one angle of a stack, select and the search's pick find each (J, M)
    # where the tuple labels put it; (2, 0) lies outside the basis
    basis = build_basis(1, CONSTANTS)
    at = fields_with(e_field=0.5, theta_p=np.radians([30.0, 60.0]))
    one = diagonalize(build_hamiltonian(basis, at), basis)[1]
    for label in (*basis.rot_states, (2, 0)):
        expected = [i for i, lab in enumerate(one.labels) if lab == label]
        assert bool(expected) == (label != (2, 0))
        assert one.select(label) == expected
        assert [_state_picker(basis, (*label, rank))(one.dominant)
                for rank in range(len(expected))] == expected
    with pytest.raises(ValueError, match=r"no eigenstate with dominant character \(J=2, M=0\)"):
        _state_picker(basis, (2, 0))(one.dominant)


def test_eigen_solution_refuses_the_wrong_stacking(narb_hyperfine):
    """Indexing an angle needs a stack, and select needs one angle: the wrong
    one raises naming the shapes instead of returning a scalar or []."""
    one = narb_hyperfine
    with pytest.raises(ValueError, match=r"energies of shape \(64,\) has no angle axis"):
        one[0]
    basis = build_basis(1, CONSTANTS)
    at = fields_with(theta_p=np.radians([30.0, 60.0]))
    stack = eigenstate_polarizability(diagonalize(build_hamiltonian(basis, at), basis), at)
    with pytest.raises(ValueError, match=r"energies of shape \(64,\); got \(2, 64\)"):
        stack.select((1, 0))
    assert stack[1].select((1, 0)) == [i for i, lab in enumerate(stack.labels[1])
                                       if lab == (1, 0)]
    with pytest.raises(ValueError, match=r"got energies of shapes \(2, 64\) and \(2, 64\)"):
        track_states(stack, stack)


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


def _recording_assignment(monkeypatch):
    """Record each call of the assignment solver that track_states falls back on."""
    calls = []

    def recording(cost, maximize=False):
        calls.append(cost)
        return linear_sum_assignment(cost, maximize=maximize)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", recording)
    return calls


def _near_permutation(rng, dim, angle):
    """A random permutation times a rotation by small random angles, with
    random column signs."""
    generator = rng.normal(scale=angle, size=(dim, dim))
    w, v = np.linalg.eigh(1j * (generator - generator.T))
    rotation = (v * np.exp(-1j * w)) @ v.conj().T  # exp(generator - generator.T)
    signs = rng.choice([-1.0, 1.0], size=dim)
    return rotation.real[:, rng.permutation(dim)] * signs


def test_track_states_equals_the_assignment_on_near_permutations(monkeypatch):
    """Both paths of track_states, the row argmaxes of |overlap| where they
    are a permutation with strict maxima and the solver elsewhere, give
    the assignment's answer; the smaller rotations take the first path."""
    basis = build_basis(1, CONSTANTS)
    a = EigenSolution(basis=basis, energies=np.zeros(64), vectors=np.eye(64),
                      dominant=np.zeros(64, dtype=int))
    calls = _recording_assignment(monkeypatch)
    rng = np.random.default_rng(314)
    for angle in [0.02] * 10 + [0.05] * 10 + [0.1] * 10:
        b = replace(a, vectors=_near_permutation(rng, 64, angle))
        expected = linear_sum_assignment(np.abs(b.vectors), maximize=True)[1]
        np.testing.assert_array_equal(track_states(a, b), expected)
        if angle < 0.1:
            assert not calls
    assert calls


def test_a_stack_of_overlaps_is_matched_as_each_pair_is():
    """``hyperfine._match`` over a stack of |overlap| matrices, some taking
    the row argmaxes and some the solver, gives each pair's assignment."""
    rng = np.random.default_rng(2718)
    overlaps = np.abs([_near_permutation(rng, 64, angle) for angle in [0.02, 0.1] * 6])
    expected = [linear_sum_assignment(overlap, maximize=True)[1] for overlap in overlaps]
    np.testing.assert_array_equal(hyperfine._match(overlaps), expected)
    assert hyperfine._match(overlaps[:0]).shape == (0, 64)


def _tied_rows(kind):
    """Orthonormal vectors whose |overlap| with the unit vectors ties at a
    row maximum: two states mixed at 45 degrees, whose row argmaxes
    collide, or a first row (0.6, 0.6, c) whose argmaxes still form a
    permutation."""
    vectors = np.eye(4)
    if kind == "collide":
        vectors[1:3, 1:3] = np.sqrt(0.5) * np.array([[1.0, -1.0], [1.0, 1.0]])
    else:
        top = np.array([0.6, 0.6, math.sqrt(1.0 - 0.72)])
        u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        w = np.cross(top, u)
        phi = math.radians(60.0)
        rows = [top, math.cos(phi) * u + math.sin(phi) * w,
                -math.sin(phi) * u + math.cos(phi) * w]
        vectors[:3, :3] = np.array(rows)
        assert sorted(np.abs(vectors).argmax(axis=1).tolist()) == [0, 1, 2, 3]
    return vectors


@pytest.mark.parametrize("kind", ["collide", "permutation"])
def test_track_states_falls_back_on_a_tie(kind, monkeypatch):
    basis = build_basis(0, replace(CONSTANTS, i_a=0.5, i_b=0.5))
    a = EigenSolution(basis=basis, energies=np.zeros(4), vectors=np.eye(4),
                      dominant=np.zeros(4, dtype=int))
    b = replace(a, vectors=_tied_rows(kind))
    calls = _recording_assignment(monkeypatch)
    perm = track_states(a, b)
    assert len(calls) == 1
    np.testing.assert_array_equal(perm, linear_sum_assignment(np.abs(b.vectors),
                                                              maximize=True)[1])


def test_track_states_maximizes_the_summed_overlap(monkeypatch):
    """A rotation whose largest overlap is a trap for a greedy match."""
    basis = build_basis(0, replace(CONSTANTS, i_a=0.5, i_b=0.5))
    rotation = _givens(0, 1, 50) @ _givens(1, 2, 60) @ _givens(0, 1, 40)
    a = EigenSolution(basis=basis, energies=np.zeros(4), vectors=np.eye(4),
                      dominant=np.zeros(4, dtype=int))
    b = replace(a, vectors=rotation)
    overlap = np.abs(rotation)

    def total(perm):
        return sum(overlap[i, k] for i, k in enumerate(perm))

    best = max(itertools.permutations(range(4)), key=total)
    assert total(_greedy_match(overlap)) < total(best) - 0.1
    calls = _recording_assignment(monkeypatch)
    assert tuple(track_states(a, b).tolist()) == best
    assert len(calls) == 1  # the row argmaxes are no permutation here


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
        basis = build_basis(j_max, CONSTANTS)
        table = basis.ckq
        assert sorted(table) == [(k, q) for k in (1, 2) for q in range(-k, k + 1)]
        for (k, q), op in table.items():
            assert not op.flags.writeable
            assert np.array_equal(op, _rot_ckq(basis.rot_states, k, q))


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
            np.testing.assert_allclose(
                alphas, _dense_alphas(vectors, polarization_operator(basis, f.constants, theta)),
                rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("terms", [TERMS, TERMS - {"polarization"}, TERMS - {"quadrupole"},
                                   frozenset({"rotation", "zeeman", "polarization"})],
                         ids=["all", "no-light", "no-quadrupole", "bare"])
@pytest.mark.parametrize("e_field, theta_e_deg", [(0.0, 0.0), (0.5, 0.0), (0.0, 20.0),
                                                  (0.5, 20.0)])
@pytest.mark.parametrize("spin_na", [1.5, 2.5])
def test_angle_solver_matches_the_public_composition(terms, e_field, theta_e_deg, spin_na):
    """What the Brent step returns (static terms once, light per angle, one
    op_rot for the trace, no phase convention), alpha and each vector's
    dominant (J, M) index, is bit for bit build_hamiltonian -> diagonalize
    -> alpha and its labels."""
    f = replace(fields_with(e_field=e_field, theta_e=math.radians(theta_e_deg)),
                constants=replace(CONSTANTS, i_a=spin_na))
    basis = build_basis(1, f.constants)
    solve = hyperfine._angle_solver(basis, f, terms)
    for theta in np.radians([40.0, 54.7, 70.0, 0.0, 90.0]).tolist():
        one = replace(f, theta_p=theta)
        expected = eigenstate_polarizability(
            diagonalize(build_hamiltonian(basis, one, terms), basis), one)
        energies, _, dominant, alphas = solve(theta)
        assert np.array_equal(energies, expected.energies)
        assert np.array_equal(alphas, expected.polarizabilities)
        assert tuple(basis.rot_states[i] for i in dominant) == expected.labels


@pytest.mark.parametrize("terms", [TERMS, TERMS - {"polarization"}], ids=["all", "no-light"])
@pytest.mark.parametrize("e_field", [0.5, 2.0])
def test_angle_solver_slope_matches_a_central_difference(terms, e_field):
    """The step's d(alpha)/d(theta_p) matches a +-1e-5 degree central
    difference of build_hamiltonian -> diagonalize -> alpha to 1e-5
    relative.  Without the light the states do not move with theta_p, so
    the sum over the other states must vanish and <i|O'|i> is the slope."""
    f = fields_with(e_field=e_field)
    basis = build_basis(1, f.constants)
    solve = hyperfine._angle_solver(basis, f, terms)

    def alpha(theta_deg, state):
        at = replace(f, theta_p=math.radians(theta_deg))
        sol = diagonalize(build_hamiltonian(basis, at, terms), basis)
        alphas = eigenstate_polarizability(sol, at).polarizabilities
        return alphas[_state_picker(basis, state)(sol.dominant)]

    h = 1e-5
    for theta in (40.0, 54.7, 70.0):
        dominant = solve(math.radians(theta))[2]
        for state in ((1, 0, 0), (0, 0, 0), (1, 1, 0)):
            # per degree, as the difference is taken
            slope = math.radians(solve.slopes(_state_picker(basis, state)(dominant))()[0])
            difference = (alpha(theta + h, state) - alpha(theta - h, state)) / (2 * h)
            assert slope == pytest.approx(difference, rel=1e-5, abs=0.0)


def test_a_step_keeps_its_slopes_for_later(monkeypatch):
    """solve.slopes(...) keeps its step's eigenpairs: called after later
    steps, it gives the bits it gives at once, and it solves nothing."""
    f = fields_with(e_field=0.5)
    basis = build_basis(1, f.constants)
    solve = hyperfine._angle_solver(basis, f, TERMS)
    solve(math.radians(40.0))
    kept = solve.slopes(0, 17, 40)
    for theta in (55.0, 70.0):
        solve(math.radians(theta))
    with monkeypatch.context() as patch:
        patch.setattr(hyperfine, "_eigensolve", None)
        later = kept()
    solve(math.radians(40.0))
    assert later == solve.slopes(0, 17, 40)()


@pytest.mark.parametrize("e_field, theta_e_deg, terms", [
    (0.0, 0.0, TERMS), (0.5, 0.0, TERMS), (2.0, 20.0, TERMS),
    (0.5, 0.0, TERMS - {"polarization"}), (0.0, 0.0, frozenset({"rotation"})),
])
def test_one_matrix_eigensolve_is_a_stack_of_one(e_field, theta_e_deg, terms):
    """A single matrix takes _eigensolve's own path: its energies, vectors
    and dominant (J, M) are those of the same matrix as a stack of one, bit
    for bit, and it refuses what the stack refuses with the same text."""
    f = fields_with(e_field=e_field, theta_e=math.radians(theta_e_deg))
    basis = build_basis(1, f.constants)
    for theta in np.radians([0.0, 40.0, 54.7, 70.0, 90.0]).tolist():
        h = build_hamiltonian(basis, replace(f, theta_p=theta), terms)
        one = hyperfine._eigensolve(h, basis)
        stack = hyperfine._eigensolve(h[None], basis)
        for a, b in zip(one, stack):
            assert a.dtype == b.dtype and a.shape == b.shape[1:]
            assert a.tobytes() == b[0].tobytes()

    def refusal(m):
        with pytest.raises(ValueError) as err:
            hyperfine._eigensolve(m, basis)
        return str(err.value)

    largest = float(np.abs(h).max())
    for where, value in [((5, 5), math.nan), ((5, 9), math.inf), ((9, 5), -math.inf),
                         ((3, 7), h[3, 7] + 1e-9 * largest)]:
        bad = h.copy()
        bad[where] = value
        assert refusal(bad) == refusal(bad[None]) == (
            "Hamiltonian has a non-finite (inf or NaN) entry" if where != (3, 7)
            else "Hamiltonian is not symmetric within 1e-10 relative")
    # just inside the tolerance, both paths solve
    near = h.copy()
    near[3, 7] += 1e-11 * largest
    assert hyperfine._eigensolve(near, basis)[0].tobytes() == \
        hyperfine._eigensolve(near[None], basis)[0].tobytes()


@pytest.mark.parametrize("e_field", np.linspace(0.10, 2.00, 20).round(2).tolist())
def test_one_matrix_labels_are_the_stacked_labels(e_field):
    """A search step's dominant (J, M), one square-and-sum over its own
    (dim, n_rot, n_spin) copy, is the stacked path's, on the matrices of
    the bench's eigen searches: 0.10-2.00 kV/cm and 40-70 degrees."""
    f = fields_with(e_field=e_field)
    basis = build_basis(1, f.constants)
    thetas = np.radians(np.linspace(40.0, 70.0, 61))
    _, _, stacked = hyperfine._eigensolve(build_hamiltonian(basis, replace(f, theta_p=thetas)),
                                          basis)
    solve = hyperfine._angle_solver(basis, f, TERMS)
    for theta, labels in zip(thetas.tolist(), stacked):
        assert solve(theta)[2].tobytes() == labels.tobytes()


_NON_FINITE = "Hamiltonian has a non-finite (inf or NaN) entry"
_ASYMMETRIC = "Hamiltonian is not symmetric within 1e-10 relative"


@pytest.mark.parametrize("at", [None, 0, 15, 31], ids=["one", "first", "middle", "last"])
def test_the_screen_keeps_each_refusal(at):
    """One h - h^T pass screens a matrix or a stack of 32, and only a failed
    screen runs the per-matrix checks.  A NaN or inf entry, on or off the
    diagonal, is refused as non-finite, also beside an asymmetric matrix.
    An asymmetry above 1e-10 times the largest |entry| or 1 is refused; one
    below it is solved, with the energies of the lower triangle eigh reads.
    ``at`` places the bad matrix in the stack; None takes one matrix."""
    basis = build_basis(1, CONSTANTS)
    stack = build_hamiltonian(basis, fields_with(e_field=0.5,
                                                 theta_p=np.radians(np.linspace(0.0, 90.0, 32))))
    # an upper-triangle entry that is zero, with its mirror, in every matrix
    i, j = next((i, j) for i, j in np.argwhere((stack == 0.0).all(axis=0)) if i < j)

    def outcome(scale, edits):
        h = stack * scale
        bad = h[at] if at is not None else h[7]
        for (row, col), value in edits:
            bad[row, col] = value
        try:
            energies = hyperfine._eigensolve(bad if at is None else h, basis)[0]
        except ValueError as err:
            return str(err)
        clean = hyperfine._eigensolve(stack[7 if at is None else at] * scale, basis)[0]
        return "solved" if np.array_equal(energies if at is None else energies[at], clean) \
            else "other energies"

    # the largest |entry| is about 4.2e3 MHz, or 0.42 at scale 1e-4
    top = float(np.abs(stack[7 if at is None else at]).max())
    cases = [
        ((1.0, [((5, 5), math.nan)]), _NON_FINITE),
        ((1.0, [((5, 9), math.nan)]), _NON_FINITE),
        ((1.0, [((5, 5), math.inf)]), _NON_FINITE),
        ((1.0, [((5, 5), -math.inf)]), _NON_FINITE),
        ((1.0, [((5, 9), math.inf)]), _NON_FINITE),
        ((1.0, [((9, 5), -math.inf)]), _NON_FINITE),
        ((1.0, [((i, j), 1.01e-10 * top)]), _ASYMMETRIC),
        ((1.0, [((i, j), 0.99e-10 * top)]), "solved"),
        ((1e-4, [((i, j), 1.01e-10)]), _ASYMMETRIC),
        ((1e-4, [((i, j), 0.99e-10)]), "solved"),
        ((1.0, [((i, j), 1e-6 * top), ((5, 9), math.nan)]), _NON_FINITE),
    ]
    assert [outcome(*case) for case, _ in cases] == [expected for _, expected in cases]
    if at is not None:
        # the asymmetric matrix at ``at`` and a NaN in another
        h = stack.copy()
        h[at, i, j] = 1e-6 * top
        h[(at + 16) % 32, 5, 9] = math.nan
        with pytest.raises(ValueError) as err:
            hyperfine._eigensolve(h, basis)
        assert str(err.value) == _NON_FINITE


def test_a_stack_of_no_matrices_solves_to_empty_arrays():
    """No matrix passes the screen and solves to empty energies, vectors and labels."""
    basis = build_basis(1, CONSTANTS)
    energies, vectors, dominant = hyperfine._eigensolve(np.empty((0, 64, 64)), basis)
    assert (energies.shape, vectors.shape, dominant.shape) == ((0, 64), (0, 64, 64), (0, 64))
    assert dominant.dtype.kind == "i"


def _dense_alphas(vectors, op):
    """Hellmann-Feynman on the dense (dim, dim) operator: the reference."""
    return np.einsum("ij,ik,kj->j", vectors, op, vectors)


@pytest.mark.parametrize("constants, j_max", [(CONSTANTS, 1),
                                              (replace(CONSTANTS, i_a=2.5), 1),
                                              (CONSTANTS, 2)],
                         ids=["64", "96", "144"])
def test_spin_trace_matches_dense_operator(constants, j_max):
    """alpha as a trace over spins of op_rot equals <V| op_rot (x) 1_spin |V>.

    The sums run in another order, so the check is to 1e-13 relative.
    """
    basis = build_basis(j_max, constants)
    f = replace(fields_with(e_field=0.5, theta_e=math.radians(20.0)), constants=constants)
    thetas = np.radians([0.0, 30.0, 54.7, 90.0])
    at = replace(f, theta_p=thetas)
    sol = eigenstate_polarizability(diagonalize(build_hamiltonian(basis, at), basis), at)
    for k, theta in enumerate(thetas.tolist()):
        one = replace(f, theta_p=theta)
        sol_k = eigenstate_polarizability(diagonalize(build_hamiltonian(basis, one), basis), one)
        dense = _dense_alphas(sol_k.vectors, polarization_operator(basis, constants, theta))
        np.testing.assert_allclose(sol_k.polarizabilities, dense, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(sol.polarizabilities[k], dense, rtol=1e-13, atol=0.0)


def test_polarizability_rejects_a_mismatched_angle_axis():
    basis = build_basis(1, CONSTANTS)
    at = fields_with(theta_p=np.radians(np.linspace(0.0, 90.0, 8)))
    axis_sol = diagonalize(build_hamiltonian(basis, at), basis)
    with pytest.raises(ValueError, match=r"\(\) .* \(8,\)"):
        eigenstate_polarizability(axis_sol, replace(at, theta_p=0.3))
    one = fields_with(theta_p=0.3)
    single_sol = diagonalize(build_hamiltonian(basis, one), basis)
    with pytest.raises(ValueError, match=r"\(8,\) .* \(\)"):
        eigenstate_polarizability(single_sol, at)


def test_hyperfine_scan_is_one_eigh_call(tmp_path, monkeypatch):
    """hyperfine-scan solves its angles as one stack through the seam,
    ``radial._eigh``; alpha-scan, calibrate and the detuning magic-find on
    the bundled config solve nothing."""
    calls = []
    eigh = radial._eigh

    def counting_eigh(h, overwrite=False):
        calls.append(np.shape(h))
        return eigh(h, overwrite)

    monkeypatch.setattr(radial, "_eigh", counting_eigh)
    for argv, solved in [(["hyperfine-scan", "--override", "scan.points=8"], [(8, 64, 64)]),
                         (["alpha-scan"], []), (["calibrate"], []), (["magic-find"], [])]:
        calls.clear()
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert calls == solved, argv


@pytest.mark.parametrize("theta_deg", [0.0, 40.0, 54.7, 90.0])
def test_a_one_angle_scan_is_a_search_step(theta_deg):
    """The bundled hyperfine-scan at scan.points = 1, a stack of one, gives
    the energies, the dominant (J, M) and alpha of an eigen search step at
    that angle, bit for bit: both are one call of the one pipeline."""
    cfg = load_config(None, ["scan.points=1", f"scan.start_deg={theta_deg}",
                             f"scan.stop_deg={theta_deg}"])
    headers, columns, _ = cli._cmd_hyperfine_scan(cfg)
    fields = cfg.field_configuration()
    basis = build_basis(1, fields.constants)
    energies, _, dominant, alphas = hyperfine._angle_solver(basis, fields, cfg.terms())(
        math.radians(theta_deg))
    scan = dict(zip(headers, columns))
    assert scan["energy_mhz"].tobytes() == energies.tobytes()
    assert scan["alpha_hz_wcm2"].tobytes() == alphas.tobytes()
    assert list(zip(scan["j"].tolist(), scan["m"].tolist())) == \
        [basis.rot_states[i] for i in dominant.tolist()]


def test_no_cli_path_builds_the_dense_operator(tmp_path, monkeypatch):
    """The light shift lives on the rotational block; the dense
    op_rot (x) 1_spin matrix is the tests' reference only: once the basis
    is built, neither CLI path takes a Kronecker product."""
    def dense(*args, **kwargs):
        raise AssertionError("dense operator built")

    build_basis(1, CONSTANTS)
    monkeypatch.setattr(np, "kron", dense)
    assert main(["hyperfine-scan", "--out", str(tmp_path),
                 "--override", "scan.points=8"]) == 0
    assert main(["magic-find", "--out", str(tmp_path),
                 "--override", "magic.kind=angle", "--override", "magic.method=eigen",
                 "--override", "fields.e_field_kv_cm=0.5",
                 "--override", "magic.j_a=1", "--override", "magic.rank_a=0",
                 "--override", "magic.j_b=0", "--override", "magic.rank_b=0"]) == 0


def _kron_hamiltonian(basis, f, terms):
    """Term-by-term dense build, each term a kron over (rotation, spin a, spin b).

    The reference for the build from the basis's operators: the same
    formulas, summed in the same order (rotation, quadrupole with the
    nuclei summed first, Zeeman, Stark, then the light on every angle).
    """
    c = f.constants
    ckq = basis.ckq
    eye_a = np.eye(round(2 * basis.i_a) + 1)
    eye_b = np.eye(round(2 * basis.i_b) + 1)
    h = np.zeros((basis.dim, basis.dim))
    if "rotation" in terms:
        h += np.diag([c.b_v * j * (j + 1) for (j, m, ma, mb) in basis.states])
    if "quadrupole" in terms:
        quad = np.zeros_like(h)
        for i_spin, eqq, slot in ((basis.i_a, c.eqq_a, 0), (basis.i_b, c.eqq_b, 1)):
            if c.quadrupole_denominator == "standard":
                denom = i_spin * (2.0 * i_spin - 1.0)
            else:
                denom = i_spin * (i_spin - 1.0)
            t2 = hyperfine._spin_t2(i_spin)
            for q in range(-2, 3):
                spin_a = t2[-q] if slot == 0 else eye_a
                spin_b = t2[-q] if slot == 1 else eye_b
                quad += (-1) ** q * (eqq / denom) * np.kron(ckq[2, q], np.kron(spin_a, spin_b))
        h += quad
    if "zeeman" in terms:
        h += np.diag([-(c.g_a * ma + c.g_b * mb) * NUCLEAR_MAGNETON_MHZ_PER_G
                      * f.b_field for (j, m, ma, mb) in basis.states])
    if "stark" in terms:
        direction = (math.cos(f.theta_e) * ckq[1, 0]
                     + (math.sin(f.theta_e) / math.sqrt(2.0)) * (ckq[1, -1] - ckq[1, +1]))
        scale = c.d0 * f.e_field * 1e5 * hyperfine._DEBYE_V_M_TO_MHZ
        h += -scale * np.kron(direction, np.eye(eye_a.shape[0] * eye_b.shape[0]))
    h = np.broadcast_to(h, np.shape(f.theta_p) + h.shape).copy()
    if "polarization" in terms:
        h += -f.intensity * 1e-6 * polarization_operator(basis, c, f.theta_p)
    return h


@pytest.mark.parametrize("j_max", [0, 1, 2])
@pytest.mark.parametrize("constants", [CONSTANTS, replace(CONSTANTS, i_a=2.5),
                                       replace(CONSTANTS, quadrupole_denominator="literal")],
                         ids=["bundled", "i_a=5/2", "literal"])
def test_cached_operator_build_matches_the_kron_reference(constants, j_max):
    """Every term subset, a scalar angle and an axis, a tilted E field:
    bit-identical to the term-by-term kron build."""
    basis = build_basis(j_max, constants)
    f = replace(fields_with(b_field=120.0, e_field=0.8, theta_e=math.radians(35.0),
                            intensity=1500.0), constants=constants)
    subsets = [frozenset(s) for r in range(1, len(TERMS) + 1)
               for s in itertools.combinations(sorted(TERMS), r)]
    assert len(subsets) == 31
    for theta_p in (0.7, np.radians([0.0, 20.0, 54.7, 90.0])):
        at = replace(f, theta_p=theta_p)
        for terms in subsets:
            assert np.array_equal(build_hamiltonian(basis, at, terms),
                                  _kron_hamiltonian(basis, at, terms)), sorted(terms)


def test_spin_tensors_are_built_once_per_basis(monkeypatch):
    """Searches at new E fields reuse the basis's operators: one spin-tensor
    build per nucleus, however many fields follow."""
    calls = []
    spin_t2 = hyperfine._spin_t2

    def counting_spin_t2(i):
        calls.append(i)
        return spin_t2(i)

    monkeypatch.setattr(hyperfine, "_spin_t2", counting_spin_t2)
    hyperfine._basis.cache_clear()
    for e_field in (0.5, 1.0):
        find_magic_angle(fields_with(e_field=e_field), (1, 0, 0), (0, 0, 0),
                         bracket=(40.0, 70.0), method="eigen")
    assert calls == [CONSTANTS.i_a, CONSTANTS.i_b]


def test_one_basis_per_j_max_and_spins():
    """The basis is built once per (j_max, i_a, i_b): constants that differ
    in every other field share it, another spin gets its own, and no
    array it carries can be written through."""
    basis = build_basis(1, CONSTANTS)
    others = replace(CONSTANTS, b_v=2.0 * CONSTANTS.b_v, eqq_a=1.0, eqq_b=-1.0, g_a=0.5,
                     g_b=0.25, d0=1.0, alpha_par=2.0, alpha_perp=1.0,
                     quadrupole_denominator="literal")
    assert build_basis(1, others) is basis

    wider = build_basis(1, replace(CONSTANTS, i_a=2.5))
    assert wider is not basis
    assert (wider.dim, wider.i_a) == (4 * 6 * 4, 2.5)

    for b in (basis, wider):
        arrays = [*b.ckq.values(), *b.quadrupole, b.jj1, b.m_a, b.m_b]
        assert len(arrays) == 8 + 2 + 3
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(TypeError):
            b.ckq[1, 0] = np.zeros((4, 4))
