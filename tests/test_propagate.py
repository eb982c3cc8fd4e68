import gc
import re
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from strategies import SETTINGS, hermitian_models

from fockbox import propagate, scenarios
from fockbox.config import build_model
from fockbox.fock import BOSE, FieldOperator, build_basis, number_operator
from fockbox.lattice import LatticeModel, build_hamiltonian, potential_preset
from fockbox.maxent import entropy
from fockbox.propagate import Spectrum, evolve_state, heisenberg, propagator


@pytest.fixture
def box():
    model = LatticeModel(L=3, dx=1.0)
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    return basis, model, build_hamiltonian(basis, model)


def test_zero_time_is_identity(box):
    basis, _, h = box
    u = propagator(h, 0.0)
    assert np.max(np.abs(u.to_dense() - np.eye(basis.dim))) < 1e-14


def test_group_property(box):
    _, _, h = box
    u = propagator(h, 0.4).to_dense()
    uinv = propagator(h, -0.4).to_dense()
    assert np.max(np.abs(u @ uinv - np.eye(len(u)))) < 1e-10


def test_single_mode_phase():
    basis = build_basis(BOSE, L=1, g=1, n_max=3)
    h = number_operator(basis, 0)  # single mode with unit energy
    for t in (0.3, 1.7, 5.0):
        u = propagator(h, t).to_dense()
        one = basis.basis_vector([1])
        amp = one @ u @ one
        assert abs(np.angle(amp) - (-t % (2 * np.pi) - 2 * np.pi * ((-t % (2 * np.pi)) > np.pi))) < 1e-10


def test_non_hermitian_rejected(box):
    basis, _, h = box
    from fockbox.fock import annihilation

    with pytest.raises(ValueError):
        propagator(annihilation(basis, 0), 0.1)


def test_eigenprojector_stationary(box):
    _, _, h = box
    w, v = np.linalg.eigh(h.to_dense())
    rho = np.outer(v[:, 2], v[:, 2].conj())
    out = evolve_state(rho, h, 0.0, 1.3)
    assert np.max(np.abs(out - rho)) < 1e-10


def test_trace_entropy_energy_invariant(box):
    basis, _, h = box
    rng = np.random.default_rng(3)
    m = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    out = evolve_state(rho, h, 0.0, 2.0)
    assert abs(np.trace(out).real - 1.0) < 1e-10
    assert abs(entropy(out) - entropy(rho)) < 1e-9
    hd = h.to_dense()
    assert abs(np.trace(hd @ out) - np.trace(hd @ rho)) < 1e-10


def test_heisenberg_duality_random_pairs(box):
    basis, _, h = box
    rng = np.random.default_rng(11)
    for _ in range(4):
        m = rng.normal(size=(basis.dim, basis.dim))
        rho = m @ m.T
        rho /= np.trace(rho)
        a = rng.normal(size=(basis.dim, basis.dim))
        a = a + a.T
        lhs = np.trace(a @ evolve_state(rho, h, 0.0, 0.9))
        rhs = np.trace(heisenberg(a, h, 0.0, 0.9) @ rho)
        assert abs(lhs - rhs) < 1e-10


def test_time_dependent_steps_second_order():
    drive = potential_preset("table", 3, values=[0.0, 1.0, 0.0])

    def u_of(site, t):
        return drive(site) * np.sin(3.0 * t)

    model = LatticeModel(L=3, dx=1.0, U=u_of)
    basis = build_basis(BOSE, L=3, g=1, n_max=1)
    h0 = build_hamiltonian(basis, LatticeModel(L=3, dx=1.0))
    n1 = number_operator(basis, 1)

    def h_of(t):
        return h0 + np.sin(3.0 * t) * n1

    v = basis.basis_vector([1, 0, 0])
    rho = np.outer(v, v)
    obs = number_operator(basis, 1).to_dense()
    ref = np.trace(obs @ evolve_state(rho, h_of, 0.0, 1.0, n_steps=4096)).real
    errs = []
    for n in (16, 32, 64):
        val = np.trace(obs @ evolve_state(rho, h_of, 0.0, 1.0, n_steps=n)).real
        errs.append(abs(val - ref))
    rate1 = errs[0] / errs[1]
    rate2 = errs[1] / errs[2]
    assert 3.0 < rate1 < 5.0
    assert 3.0 < rate2 < 5.0


def test_heisenberg_duality_time_dependent():
    basis = build_basis(BOSE, L=3, g=1, n_max=1)
    h0 = build_hamiltonian(basis, LatticeModel(L=3, dx=1.0))
    n1 = number_operator(basis, 1)

    def h_of(t):
        return h0 + np.sin(3.0 * t) * n1

    rng = np.random.default_rng(5)
    m = rng.normal(size=(basis.dim, basis.dim))
    rho = m @ m.T / np.trace(m @ m.T)
    a = n1.to_dense()
    lhs = np.trace(a @ evolve_state(rho, h_of, 0.0, 1.0, n_steps=4))
    rhs = np.trace(heisenberg(a, h_of, 0.0, 1.0, n_steps=4) @ rho)
    assert abs(lhs - rhs) < 1e-12


# ---- the kept decomposition and the sparse propagator ---------------------------


def test_operator_keeps_one_read_only_decomposition():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    h = build_hamiltonian(basis, LatticeModel(L=3, dx=1.0))
    one, two = Spectrum(h, hbar=1.0), Spectrum(h, hbar=2.0)
    assert one.w is two.w
    assert all(a is b for a, b in zip(one.blocks, two.blocks))
    for spectrum, hbar in ((one, 1.0), (two, 2.0)):
        want = scipy.linalg.expm(-1j * 0.8 * h.to_dense() / hbar)
        assert np.max(np.abs(spectrum.unitary(0.8) - want)) < 1e-10
    with pytest.raises(ValueError, match="read-only"):
        one.w[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        one.blocks[0][0, 0] = 1.0
    # the kept blocks follow ROW_RESTRICT as it is when a Spectrum is made
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", 1)
        dense = Spectrum(h.to_dense(), sectors=basis.sector_slices())
        assert Spectrum(h).slices == dense.slices != one.slices
    assert Spectrum(h).slices == one.slices
    # an operator made by algebra keeps nothing until it is diagonalized
    for op in (h.dag(), h + h, 2 * h):
        assert op._eig is None
        Spectrum(op)
        assert op._eig is not None
    block = weakref.ref(one.blocks[0])
    del h, op, one, two, spectrum
    gc.collect()
    assert block() is None


def test_relaxation_diagonalizes_its_hamiltonian_once(tmp_path, monkeypatch):
    config = scenarios.scenario_defaults("relaxation")
    model, basis = build_model(config["model"])
    h = scenarios.mass_energy_relevant(basis, model)[1].to_dense()
    decompose, of_h = propagate._decompose, []

    def counted(m, sectors):
        of_h.append(m.shape == h.shape and np.array_equal(m, h))
        return decompose(m, sectors)

    monkeypatch.setattr(propagate, "_decompose", counted)
    scenarios.run_scenario(config, tmp_path)
    assert sum(of_h) == 1


@SETTINGS
@given(st.data())
def test_propagator_is_sparse_and_matches_per_block_expm(data):
    basis, _, h = data.draw(hermitian_models())
    t = data.draw(st.floats(-2.0, 2.0))
    u = propagator(h, t).matrix
    spectrum = Spectrum(h)
    hd = h.to_dense()
    for sl in spectrum.slices:
        want = scipy.linalg.expm(-1j * t * hd[sl, sl])
        assert np.max(np.abs(u[sl, sl].toarray() - want)) < 1e-10
    rows = np.repeat(np.arange(basis.dim), np.diff(u.indptr))
    assert np.array_equal(spectrum.sector[rows], spectrum.sector[u.indices])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "UNITARITY_TOL", 0.0)
        with pytest.raises(AssertionError, match="lost unitarity"):
            propagator(h, t)


def oracle_propagator(h, t):
    """The CSR matrix of the unitary blocks through scipy's block_diag and a
    canonicalizing copy, as propagator built it before."""
    return FieldOperator(h.basis, sp.block_diag(Spectrum(h).unitary_blocks(t),
                                                format="csr")).matrix


@SETTINGS
@given(st.data())
def test_propagator_csr_equals_the_block_diag_oracle_bit_for_bit(data):
    _, _, h = data.draw(hermitian_models())
    # t = 0 gives identity blocks, whose explicit zeros are dropped
    for t in (data.draw(st.floats(-2.0, 2.0)), 0.0):
        got, want = propagator(h, t).matrix, oracle_propagator(h, t)
        assert got.shape == want.shape and got.has_canonical_format
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_non_unitary_block_raises_with_the_complex_deviation(box, monkeypatch):
    _, _, h = box
    blocks = Spectrum(h).unitary_blocks(0.7)
    rng = np.random.default_rng(5)
    bent = [u + 0.05 * (rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape))
            for u in blocks]
    dev = max(float(np.max(np.abs(u @ u.conj().T - np.eye(len(u))))) for u in bent)
    monkeypatch.setattr(Spectrum, "eigenvalue_blocks", lambda self, f: bent)
    with pytest.raises(AssertionError,
                       match=re.escape(f"propagator lost unitarity: {dev:.3e}")):
        propagator(h, 0.7)


# ---- the member matrix of an operator stack --------------------------------------


def oracle_member_rows(ops):
    """Each operator reshaped to one row of d*d columns, stacked, real when every
    entry is: the construction the index shift of OperatorStack replaces."""
    mats = [op.matrix if isinstance(op, FieldOperator) else sp.csr_matrix(op) for op in ops]
    d = mats[0].shape[1]
    rows = sp.vstack([m.reshape(1, d * d) for m in mats], format="csr")
    return rows if np.any(rows.data.imag) else rows.real


def test_member_matrix_equals_the_per_member_reshape(box):
    """FieldOperators, CSR and dense members, an all-zero one, one whose entries
    all lie in its last row and a complex one among real ones: the rows of the
    member matrix, their pointers and dtype equal the per-member reshape."""
    basis, _, h = box
    d, rng = basis.dim, np.random.default_rng(5)
    last_row = np.zeros((d, d))
    last_row[-1, [0, 3, d - 1]] = [1.5, -2.0, 0.25]
    sparse = sp.random(d, d, density=0.2, random_state=3, format="csr")
    real = [h, number_operator(basis, 1), sparse, np.zeros((d, d)), last_row,
            rng.normal(size=(d, d)), np.zeros((d, d))]
    for ops in (real, real[:3] + [1j * last_row.T] + real[3:]):
        got = propagate.OperatorStack(ops).matrix
        want = oracle_member_rows(ops)
        assert got.shape == want.shape == (len(ops), d * d)
        assert got.dtype == want.dtype == (float if ops is real else complex)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
