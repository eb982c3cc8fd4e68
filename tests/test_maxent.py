import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson
from strategies import SETTINGS, hermitian_models

import fockbox.maxent as maxent

from fockbox.config import build_model, scenario_defaults
from fockbox.fock import BOSE, build_basis, number_operator
from fockbox.lattice import LatticeModel, build_hamiltonian, density_ops, momentum_density_ops
from fockbox.maxent import (
    MatchFailure,
    cumulant_expect,
    entropy,
    expectations,
    gauge_projector,
    gibbs_state,
    kubo,
    kubo_gram,
    match_expectations,
    relevant_set,
)
from fockbox.scenarios import mass_energy_relevant


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


# ---- gibbs_state ------------------------------------------------------------


def test_zero_parameters_give_maximally_mixed():
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    rel = relevant_set(["n0", "n1"],
                       [number_operator(basis, 0), number_operator(basis, 1)])
    rho, zf = gibbs_state(rel, [0.0, 0.0])
    assert np.max(np.abs(rho - np.eye(basis.dim) / basis.dim)) < 1e-14
    assert abs(zf.zeta0 - np.log(basis.dim)) < 1e-12


def test_single_mode_thermal_occupations():
    # single mode with unit energy, four Fock levels: weights e^{-n}/Z
    basis = build_basis(BOSE, L=1, g=1, n_max=3)
    h = number_operator(basis, 0)
    rel = relevant_set(["H"], [h])
    rho, zf = gibbs_state(rel, [1.0])
    z = sum(np.exp(-n) for n in range(4))
    for n in range(4):
        v = basis.basis_vector([n])
        assert abs((v @ rho @ v).real - np.exp(-n) / z) < 1e-12
    assert abs(zf.zeta0 - np.log(z)) < 1e-12
    occ = np.trace(h.to_dense() @ rho).real
    expected = sum(n * np.exp(-n) for n in range(4)) / z
    assert abs(occ - expected) < 1e-12


def test_state_commutes_with_commuting_family():
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    ops = [number_operator(basis, 0), number_operator(basis, 1)]
    rel = relevant_set(["n0", "n1"], ops)
    rho, _ = gibbs_state(rel, [0.4, -0.2])
    for op in ops:
        od = op.to_dense()
        assert np.max(np.abs(od @ rho - rho @ od)) < 1e-12


def test_nonfinite_zeta_rejected():
    basis = build_basis(BOSE, L=1, g=1, n_max=2)
    rel = relevant_set(["n"], [number_operator(basis, 0)])
    with pytest.raises(ValueError):
        gibbs_state(rel, [np.inf])


def test_huge_zeta_is_overflow_safe():
    basis = build_basis(BOSE, L=1, g=1, n_max=2)
    rel = relevant_set(["n"], [number_operator(basis, 0)])
    rho, zf = gibbs_state(rel, [800.0])
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.isfinite(zf.zeta0)


# ---- entropy -----------------------------------------------------------------


def test_entropy_pure_state():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0
    assert entropy(rho) == 0.0


def test_entropy_maximally_mixed():
    assert abs(entropy(np.eye(10) / 10.0) - np.log(10.0)) < 1e-12


def test_entropy_two_level():
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    assert abs(entropy(rho) - np.log(2.0)) < 1e-12


def test_entropy_clamps_and_rejects():
    assert entropy(np.diag([1.0 + 5e-10, -5e-10])) >= 0.0
    with pytest.raises(ValueError):
        entropy(np.diag([1.1, -0.1]))


# ---- kubo --------------------------------------------------------------------


def test_kubo_maximally_mixed():
    d = 5
    c = random_hermitian(d, 1)
    b = random_hermitian(d, 2)
    w = np.eye(d) / d
    val = kubo(c, b, w)
    expected = np.trace(c @ b) / d - np.trace(c) * np.trace(b) / d**2
    assert abs(val - expected) < 1e-12


def test_kubo_commuting_reduces_to_covariance():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.2, 1.0, size=4)
    p /= p.sum()
    w = np.diag(p)
    b = np.diag(rng.normal(size=4))  # commutes with W
    c = random_hermitian(4, 8)
    val = kubo(c, b, w)
    expected = np.trace(c @ b @ w) - np.trace(c @ w) * np.trace(b @ w)
    assert abs(val - expected) < 1e-12


def test_kubo_against_quadrature_oracle():
    # independent route: Simpson quadrature of the similarity integral
    rng = np.random.default_rng(17)
    a = random_hermitian(3, 23)
    w = scipy.linalg.expm(a)
    w /= np.trace(w).real
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    us = np.linspace(0.0, 1.0, 1001)
    loga = scipy.linalg.logm(w)
    vals = np.array([
        np.trace(c @ scipy.linalg.expm(u * loga) @ b
                 @ scipy.linalg.expm(-u * loga) @ w)
        for u in us
    ])
    oracle = (simpson(vals.real, x=us) + 1j * simpson(vals.imag, x=us)
              - np.trace(c @ w) * np.trace(b @ w))
    assert abs(kubo(c, b, w) - oracle) < 1e-8


def test_kubo_positivity_hermitian():
    for seed in range(6):
        rho = random_density(6, seed + 40)
        a = random_hermitian(6, seed + 90)
        val = kubo(a, a, rho)
        assert abs(val.imag) < 1e-10
        assert val.real > -1e-10


def test_kubo_hermitian_symmetry():
    rho = random_density(5, 3)
    a = random_hermitian(5, 4)
    b = random_hermitian(5, 5)
    assert abs(kubo(a, b, rho) - np.conj(kubo(b, a, rho))) < 1e-10


def test_kubo_singular_state_advice():
    w = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="eig_floor"):
        kubo(np.eye(2), np.eye(2), w, eig_floor=None)


# ---- cumulant expansion ------------------------------------------------------


def test_cumulant_exact_at_zero_perturbation():
    a = random_hermitian(4, 12)
    c = random_hermitian(4, 13)
    w = scipy.linalg.expm(a)
    w /= np.trace(w).real
    est = cumulant_expect(c, a, np.zeros((4, 4)))
    assert abs(est - np.trace(c @ w).real) < 1e-12


def test_cumulant_normalization_preserved():
    a = random_hermitian(4, 14)
    b = random_hermitian(4, 15)
    est = cumulant_expect(np.eye(4), a, b)
    assert abs(est - 1.0) < 1e-10


def test_cumulant_error_scales_second_order():
    a = random_hermitian(5, 21)
    b0 = random_hermitian(5, 22)
    c = random_hermitian(5, 20)
    eps = np.array([1e-1, 1e-2, 1e-3])
    errs = []
    for e in eps:
        exact_num = scipy.linalg.expm(a + e * b0)
        exact = np.trace(c @ exact_num).real / np.trace(exact_num).real
        errs.append(abs(cumulant_expect(c, a, e * b0) - exact))
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert 1.9 < slope < 2.1


# ---- match_expectations ------------------------------------------------------


@pytest.fixture
def lattice_relevant():
    model = LatticeModel(L=3, dx=1.0)
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    h = build_hamiltonian(basis, model)
    rho_cells = density_ops(basis, model)
    ops = list(rho_cells) + [h]
    labels = [f"rho[{x}]" for x in range(3)] + ["H"]
    weights = [model.dx] * 3 + [1.0]
    return relevant_set(labels, ops, weights)


def test_match_maximally_mixed_targets(lattice_relevant):
    rel = lattice_relevant
    dim = rel.basis.dim
    targets = [np.trace(op.to_dense()).real / dim for op in rel.operators]
    zf = match_expectations(rel, targets)
    assert np.max(np.abs(zf.values)) < 1e-8


def test_match_round_trip(lattice_relevant):
    rel = lattice_relevant
    rng = np.random.default_rng(123)
    zeta_star = rng.uniform(-0.5, 0.5, size=len(rel))
    rho, _ = gibbs_state(rel, zeta_star)
    targets = expectations(rel, rho)
    zf = match_expectations(rel, targets)
    proj = zf.gauge_projector
    assert np.max(np.abs(proj @ (zf.values - zeta_star))) < 1e-6
    rho_back, _ = gibbs_state(rel, zf.values)
    assert np.max(np.abs(expectations(rel, rho_back) - targets)) < 1e-9


def test_match_with_gauge_degeneracy():
    # densities plus the total number: the sum of the densities is m N,
    # so one direction of the parameter space is pure gauge
    model = LatticeModel(L=2, dx=1.0)
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    cells = density_ops(basis, model)
    ntot = number_operator(basis)
    rel = relevant_set(["rho0", "rho1", "N"], list(cells) + [ntot],
                       [1.0, 1.0, 1.0])
    proj = gauge_projector(rel)
    # exactly one gauge direction: (1, 1, -1) up to scale
    assert abs(np.trace(proj) - 2.0) < 1e-9
    null_dir = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
    assert np.max(np.abs(proj @ null_dir)) < 1e-9
    rng = np.random.default_rng(6)
    zeta_star = proj @ rng.uniform(-0.4, 0.4, size=3)
    rho, _ = gibbs_state(rel, zeta_star)
    zf = match_expectations(rel, expectations(rel, rho))
    assert np.max(np.abs(proj @ (zf.values - zeta_star))) < 1e-6


def test_entropy_dominance_over_feasible_states(lattice_relevant):
    rel = lattice_relevant
    rng = np.random.default_rng(77)
    zeta = rng.uniform(-0.3, 0.3, size=len(rel))
    rho, _ = gibbs_state(rel, zeta)
    s_max = entropy(rho)
    dim = rel.basis.dim
    # basis of the orthogonal complement of span{1, A_j} in Hermitian space
    span = [np.eye(dim)] + [op.to_dense() for op in rel.operators]
    flat = np.array([m.conj().ravel() for m in span])
    q, _ = np.linalg.qr(flat.T.conj())
    lam_min = np.linalg.eigvalsh(rho)[0]
    wins = 0
    for seed in range(100):
        t = random_hermitian(dim, 1000 + seed)
        tv = t.ravel()
        tv = tv - q @ (q.conj().T @ tv)
        t = tv.reshape(dim, dim)
        t = 0.5 * (t + t.conj().T)
        norm = np.linalg.norm(t)
        if norm < 1e-12:
            continue
        sigma = rho + (0.5 * lam_min / np.linalg.norm(t, 2)) * t
        # same expectations, genuinely different state
        assert np.max(np.abs(expectations(rel, sigma) - expectations(rel, rho))) < 1e-10
        assert entropy(sigma, tol=1e-7) <= s_max + 1e-12
        wins += 1
    assert wins >= 90


def test_newton_jacobian_matches_finite_differences(lattice_relevant):
    rel = lattice_relevant
    rng = np.random.default_rng(31)
    zeta = rng.uniform(-0.3, 0.3, size=len(rel))
    rho, _ = gibbs_state(rel, zeta)
    gram = kubo_gram(rel, rho)
    step = 1e-5
    for l in range(len(rel)):
        zp = zeta.copy()
        zp[l] += step
        zm = zeta.copy()
        zm[l] -= step
        rp, _ = gibbs_state(rel, zp)
        rm, _ = gibbs_state(rel, zm)
        fd = (expectations(rel, rp) - expectations(rel, rm)) / (2 * step)
        analytic = -gram[:, l] * rel.weights[l]
        denom = np.maximum(np.abs(analytic), 1e-8)
        assert np.max(np.abs(fd - analytic) / denom) < 1e-5


def test_unattainable_targets_fail_structurally(lattice_relevant):
    rel = lattice_relevant
    targets = expectations(rel, np.eye(rel.basis.dim) / rel.basis.dim)
    targets[-1] = 1e3  # far beyond the spectrum of H
    with pytest.raises(MatchFailure) as exc:
        match_expectations(rel, targets, max_iters=25)
    assert exc.value.residual is not None


def test_extremal_targets_fail(lattice_relevant):
    rel = lattice_relevant
    # vacuum expectations sit on the boundary of the attainable set
    dim = rel.basis.dim
    vac = np.zeros((dim, dim))
    vac[0, 0] = 1.0
    targets = expectations(rel, vac)
    with pytest.raises(MatchFailure):
        match_expectations(rel, targets, max_iters=30)


def test_gauge_projector_held_once_per_set(monkeypatch):
    model = LatticeModel(L=2, dx=1.0)
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    rel = relevant_set(["rho0", "rho1", "N"],
                       list(density_ops(basis, model)) + [number_operator(basis)],
                       [1.0, 1.0, 1.0])
    calls = []
    compute = maxent.gauge_projector
    monkeypatch.setattr(maxent, "gauge_projector",
                        lambda *args: calls.append(args) or compute(*args))
    targets = expectations(rel, gibbs_state(rel, [0.1, -0.2, 0.3])[0])
    for _ in range(3):
        zf = match_expectations(rel, targets)
    assert len(calls) == 1
    assert zf.gauge_projector is rel.gauge_projector
    assert np.array_equal(rel.gauge_projector, compute(rel))
    assert not rel.gauge_projector.flags.writeable


# ---- expectations ---------------------------------------------------------------


def expectations_oracle(relevant, rho):
    """Tr(A_j rho) from the member matrix against rho transposed, which copies rho."""
    return (relevant.stacked.matrix @ np.asarray(rho).T.ravel()).real


@SETTINGS
@given(st.data())
def test_expectations_match_the_transposing_oracle(data):
    basis, model, h = data.draw(hermitian_models())
    # densities are real, momentum densities imaginary, h either
    ops = list(density_ops(basis, model)) + list(momentum_density_ops(basis, model)) + [h]
    rel = relevant_set([f"A{j}" for j in range(len(ops))], ops)
    zeta = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=len(ops), max_size=len(ops)))
    gibbs, _ = gibbs_state(rel, zeta)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    d = basis.dim
    square = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for rho in (gibbs, square, np.asfortranarray(square), square.real):
        want = expectations_oracle(rel, rho)
        assert np.max(np.abs(expectations(rel, rho) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_expectations_copy_no_state_at_dim_1001():
    basis = build_basis(BOSE, L=10, g=1, n_max=4)
    model = LatticeModel(L=10)
    h = build_hamiltonian(basis, model)
    rel = relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                       list(density_ops(basis, model)) + [h])
    rho = np.eye(basis.dim, dtype=complex) / basis.dim
    assert basis.dim == 1001
    expectations(rel, rho)
    tracemalloc.start()
    try:
        expectations(rel, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one copy of rho is 16 MB
    assert peak < 1 << 20


def test_match_halves_its_step_and_still_recovers_zeta(monkeypatch):
    """On the relaxation default the full Newton step from zeta = 0 overshoots
    the targets of a Gibbs state at |zeta| up to 2; the line search halves it
    and the match still lands on zeta.  Each trial step is one gibbs_state call
    and each iteration one kubo_gram call, so any gibbs_state call beyond the
    first and one per iteration is a halving."""
    model, basis = build_model(scenario_defaults("relaxation")["model"])
    rel, _ = mass_energy_relevant(basis, model)
    zeta_star = np.random.default_rng(1).uniform(-2, 2, len(rel))
    rho, _ = gibbs_state(rel, zeta_star)
    calls = {"gibbs_state": 0, "kubo_gram": 0}
    for name in calls:
        def counted(*args, _f=getattr(maxent, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(maxent, name, counted)
    zf = match_expectations(rel, expectations(rel, rho))
    assert np.max(np.abs(zf.values - zeta_star)) < 1e-12
    assert calls["gibbs_state"] - 1 - calls["kubo_gram"] >= 1
