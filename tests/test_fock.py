import json

import numpy as np
import pytest

from fockbox.fock import (
    BOSE,
    FERMI,
    DimensionCapError,
    annihilation,
    anticommutator,
    build_basis,
    commutator,
    creation,
    field_operator,
    fock_dimension,
    identity,
    number_operator,
)
from fockbox.lattice import LatticeModel, build_hamiltonian, normal_modes


def test_dimension_bose_two_sites_one_particle():
    basis = build_basis(BOSE, L=2, g=1, n_max=1)
    assert basis.dim == 3
    assert basis.states == ((0, 0), (1, 0), (0, 1))


def test_dimension_fermi_full_space():
    basis = build_basis(FERMI, L=2, g=1, n_max=2)
    assert basis.dim == 4


def test_dimension_bose_stars_and_bars():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    assert basis.dim == 10  # 1 + 3 + 6


def test_index_is_bijection():
    basis = build_basis(BOSE, L=3, g=2, n_max=2)
    assert len(basis.index) == basis.dim
    for i, occ in enumerate(basis.states):
        assert basis.index[occ] == i


def test_enumeration_deterministic():
    a = build_basis(BOSE, L=4, g=1, n_max=3)
    b = build_basis(BOSE, L=4, g=1, n_max=3)
    assert a.states == b.states
    assert a.sectors == b.sectors


def test_sectors_sorted_by_total():
    basis = build_basis(FERMI, L=4, g=1, n_max=3)
    totals = basis.totals()
    assert np.all(np.diff(totals) >= 0)
    for n, sl in basis.sector_slices():
        assert np.all(totals[sl] == n)


def test_dimension_cap_refuses():
    with pytest.raises(DimensionCapError) as exc:
        build_basis(BOSE, L=10, g=1, n_max=10, dim_cap=100)
    assert exc.value.dim == fock_dimension(BOSE, 10, 10)
    assert exc.value.cap == 100


def test_dim_cap_env_override(monkeypatch):
    monkeypatch.setenv("FOCKBOX_DIM_CAP", "5")
    with pytest.raises(DimensionCapError):
        build_basis(BOSE, L=3, g=1, n_max=2)


def test_bose_ladder_sqrt2():
    basis = build_basis(BOSE, L=1, g=1, n_max=2)
    up = creation(basis, 0).to_dense()
    v1 = basis.basis_vector([1])
    v2 = basis.basis_vector([2])
    assert np.allclose(up @ v1, np.sqrt(2.0) * v2)


def test_fermi_double_creation_vanishes():
    basis = build_basis(FERMI, L=2, g=1, n_max=2)
    up = creation(basis, 0)
    assert (up @ up).max_abs() == 0.0


def test_bose_commutator_truncation_edge():
    # single mode, n_max = 2: the 3x3 matrices are explicit
    basis = build_basis(BOSE, L=1, g=1, n_max=2)
    a = annihilation(basis, 0).to_dense()
    ad = creation(basis, 0).to_dense()
    expected_a = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(a, expected_a)
    defect = a @ ad - ad @ a - np.eye(3)
    # annihilates n = 0 and n = 1 but not the edge state n = 2
    assert np.allclose(defect @ basis.basis_vector([0]), 0.0)
    assert np.allclose(defect @ basis.basis_vector([1]), 0.0)
    assert np.linalg.norm(defect @ basis.basis_vector([2])) > 1.0


def test_adjoint_structural():
    basis = build_basis(FERMI, L=3, g=1, n_max=3)
    for m in range(basis.modes):
        a = annihilation(basis, m)
        assert creation(basis, m).equal_bits(a.dag())


def test_fermi_anticommutators_exact_full_space():
    basis = build_basis(FERMI, L=3, g=1, n_max=3)
    eye = identity(basis).to_dense()
    for m in range(basis.modes):
        for mp in range(basis.modes):
            a = annihilation(basis, m)
            adp = creation(basis, mp)
            acomm = anticommutator(a, adp).to_dense()
            target = eye if m == mp else np.zeros_like(eye)
            assert np.max(np.abs(acomm - target)) < 1e-12
    # {a_m, a_m'} = 0 always
    for m in range(basis.modes):
        for mp in range(basis.modes):
            acomm = anticommutator(annihilation(basis, m), annihilation(basis, mp))
            assert acomm.max_abs() < 1e-12


def test_bose_commutators_exact_below_truncation():
    basis = build_basis(BOSE, L=2, g=1, n_max=3)
    totals = basis.totals()
    sub = totals < basis.n_max
    for m in range(basis.modes):
        for mp in range(basis.modes):
            comm = commutator(annihilation(basis, m), creation(basis, mp)).to_dense()
            target = (1.0 if m == mp else 0.0) * np.eye(basis.dim)
            assert np.max(np.abs((comm - target)[np.ix_(sub, sub)])) < 1e-12


def test_number_operator_commutes_with_ladder_bilinears():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    ntot = number_operator(basis)
    for m in range(basis.modes):
        nm = number_operator(basis, m)
        assert commutator(nm, ntot).max_abs() < 1e-12


def test_invalid_mode_rejected():
    basis = build_basis(BOSE, L=2, g=1, n_max=1)
    with pytest.raises(ValueError):
        annihilation(basis, 5)


@pytest.fixture
def model3():
    return LatticeModel(L=3, dx=0.5, statistics=BOSE)


def test_field_annihilates_vacuum(model3):
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    vac = basis.basis_vector([0, 0, 0])
    for x in range(3):
        psi = field_operator(basis, model3, x)
        assert np.allclose(psi.to_dense() @ vac, 0.0)


def test_field_site_vs_mode_construction(model3):
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    modes = normal_modes(model3)
    for x in range(3):
        direct = field_operator(basis, model3, x).to_dense()
        built = np.zeros_like(direct)
        for r in range(3):
            a_r = np.zeros_like(direct)
            for xp in range(3):
                c = np.sqrt(model3.dx) * modes.mode_functions[r, xp]
                a_r += c * annihilation(basis, xp).to_dense()
            built += modes.mode_functions[r, x] * a_r
        assert np.max(np.abs(direct - built)) < 1e-12


def test_field_canonical_commutator_lattice_delta():
    model = LatticeModel(L=2, dx=0.5, statistics=BOSE)
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    totals = basis.totals()
    sub = totals < basis.n_max
    for x in range(2):
        for xp in range(2):
            psi = field_operator(basis, model, x)
            psid = field_operator(basis, model, xp).dag()
            comm = commutator(psi, psid).to_dense()
            target = (1.0 / model.dx if x == xp else 0.0) * np.eye(basis.dim)
            assert np.max(np.abs((comm - target)[np.ix_(sub, sub)])) < 1e-12


def test_fermi_field_anticommutator_exact():
    model = LatticeModel(L=2, dx=2.0, statistics=FERMI)
    basis = build_basis(FERMI, L=2, g=1, n_max=2)
    for x in range(2):
        for xp in range(2):
            psi = field_operator(basis, model, x)
            psid = field_operator(basis, model, xp).dag()
            acomm = anticommutator(psi, psid).to_dense()
            target = (1.0 / model.dx if x == xp else 0.0) * np.eye(basis.dim)
            assert np.max(np.abs(acomm - target)) < 1e-12


def test_json_dumps_roundtrip_shapes():
    basis = build_basis(BOSE, L=2, g=1, n_max=1)
    doc = json.loads(basis.to_json())
    assert doc["dim"] == 3
    assert doc["states"] == [[0, 0], [1, 0], [0, 1]]
    op = annihilation(basis, 0)
    op_doc = json.loads(op.to_json())
    assert op_doc["dim"] == 3
    for row, col, re, im in op_doc["triplets"]:
        assert 0 <= row < 3 and 0 <= col < 3
        assert isinstance(re, float) and isinstance(im, float)
    # the two properties are read off the matrix, not carried as flags
    assert op_doc["number_conserving"] is False
    assert json.loads((op + op.dag()).to_json())["hermitian"] is True
    h = build_hamiltonian(basis, LatticeModel(L=2))
    h_doc = json.loads(h.to_json())
    assert h_doc["hermitian"] is True and h_doc["number_conserving"] is True
    assert json.loads((1j * h).to_json())["hermitian"] is False


def test_operator_equality_bitwise_after_canonicalization():
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    a = annihilation(basis, 1)
    b = annihilation(basis, 1)
    assert a.equal_bits(b)
    assert not a.equal_bits(annihilation(basis, 0))
