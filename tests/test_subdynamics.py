import numpy as np
import pytest

from fockbox.fock import (
    BOSE,
    FERMI,
    build_basis,
    number_operator,
)
from fockbox.lattice import LatticeModel, build_hamiltonian, density_ops, potential_preset
from fockbox.propagate import evolve_state
from fockbox.subdynamics import (
    embed,
    embed_two_quanton,
    embedding_residual,
    extract_pure,
    gaussian_packet,
    induced_observable,
    observable_drift,
    one_quanton,
    reduced_path,
    reduced_schrodinger_step,
    region,
    surface_term,
    vacuum_residual,
)


def one_particle_state(basis, site, L):
    occ = [0] * L
    occ[site] = 1
    v = basis.basis_vector(occ)
    return np.outer(v, v.conj())


@pytest.fixture
def box5():
    model = LatticeModel(L=5, dx=1.0)
    basis = build_basis(BOSE, L=5, g=1, n_max=2)
    return basis, model


# ---- vacuum_residual ---------------------------------------------------------


def test_vacuum_residual_on_vacuum(box5):
    basis, model = box5
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    res = vacuum_residual(vac, basis, model, region([1, 2, 3]))
    assert res.strong == 0.0
    assert res.pairwise == 0.0


def test_vacuum_residual_particle_outside(box5):
    basis, model = box5
    rho = one_particle_state(basis, 0, 5)
    res = vacuum_residual(rho, basis, model, region([2, 3, 4]))
    assert res.strong < 1e-12
    assert res.pairwise < 1e-12


def test_vacuum_residual_particle_inside(box5):
    basis, model = box5
    rho = one_particle_state(basis, 2, 5)
    res = vacuum_residual(rho, basis, model, region([1, 2, 3]))
    assert res.strong > 0.1
    assert res.pairwise < 1e-12  # one particle cannot feed two destructions


# ---- embed -------------------------------------------------------------------


def test_embed_pure_on_vacuum_is_one_particle_state(box5):
    basis, model = box5
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    reg = region([1, 2, 3])
    psi = one_quanton(reg, [0.2, 1.0 + 0.3j, -0.4], dx=model.dx)
    rho = embed(psi, vac, basis, model, reg)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    expected = np.zeros(basis.dim, dtype=complex)
    for iy, y in enumerate(reg.sites):
        occ = [0] * 5
        occ[y] = 1
        expected[basis.state_ordinal(occ)] = np.sqrt(model.dx) * psi.amplitudes[iy, 0]
    assert np.max(np.abs(rho - np.outer(expected, expected.conj()))) < 1e-12


def test_embed_trace_one_with_background_particle(box5):
    basis, model = box5
    reg = region([0, 1])
    rho_bg = one_particle_state(basis, 3, 5)
    psi = one_quanton(reg, [1.0, 1.0j], dx=model.dx)
    rho = embed(psi, rho_bg, basis, model, reg)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_embed_gate_on_vacuum_violation(box5):
    basis, model = box5
    reg = region([1, 2])
    rho_bad = one_particle_state(basis, 1, 5)
    psi = one_quanton(reg, [1.0, 0.0], dx=model.dx)
    with pytest.raises(ValueError, match="vacuum"):
        embed(psi, rho_bad, basis, model, reg)


def test_embed_matches_kernel_construction(box5):
    # pure amplitudes and the rank-one kernel must embed identically
    basis, model = box5
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    reg = region([1, 2, 3])
    psi = one_quanton(reg, [0.5, -0.2 + 0.9j, 0.1], dx=model.dx)
    a = psi.amplitudes[:, 0]
    kernel = np.outer(a, a.conj())
    direct = embed(psi, vac, basis, model, reg)
    via_kernel = embed(kernel, vac, basis, model, reg)
    assert np.max(np.abs(direct - via_kernel)) < 1e-12


def test_embed_linear_in_kernel(box5):
    basis, model = box5
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    reg = region([1, 2, 3])
    p1 = one_quanton(reg, [1.0, 0.0, 0.0], dx=model.dx)
    p2 = one_quanton(reg, [0.0, 1.0, 1.0j], dx=model.dx)
    k1 = np.outer(p1.amplitudes[:, 0], p1.amplitudes[:, 0].conj())
    k2 = np.outer(p2.amplitudes[:, 0], p2.amplitudes[:, 0].conj())
    lam = 0.3
    mixed = embed(lam * k1 + (1 - lam) * k2, vac, basis, model, reg)
    parts = (lam * embed(k1, vac, basis, model, reg)
             + (1 - lam) * embed(k2, vac, basis, model, reg))
    assert np.max(np.abs(mixed - parts)) < 1e-12


# ---- reduced Schroedinger step ------------------------------------------------


def test_reduced_step_eigenstate_phase_only():
    model = LatticeModel(L=7, dx=1.0)
    reg = region([1, 2, 3, 4, 5])
    n = len(reg)
    # lowest region box mode
    xs = np.arange(1, n + 1)
    amp = np.sin(np.pi * xs / (n + 1))
    psi = one_quanton(reg, amp, dx=model.dx)
    out = reduced_schrodinger_step(psi, model, 0.0, 0.7)
    assert np.max(np.abs(np.abs(out.amplitudes) - np.abs(psi.amplitudes))) < 1e-12


def test_reduced_step_norm_conservation_long_run():
    model = LatticeModel(L=6, dx=1.0,
                         U=potential_preset("harmonic", 6, k=0.3))
    reg = region([0, 1, 2, 3, 4, 5])
    psi = gaussian_packet(reg, center=2.0, width=0.8, k=0.5, dx=model.dx)
    for _ in range(1000):
        psi = reduced_schrodinger_step(psi, model, 0.0, 0.01)
    assert abs(psi.norm() - 1.0) < 1e-9


def test_reduced_step_matches_full_field_evolution():
    model = LatticeModel(L=9, dx=1.0)
    basis = build_basis(BOSE, L=9, g=1, n_max=1)
    h = build_hamiltonian(basis, model)
    reg = region(range(9))  # region walls coincide with the box walls
    psi0 = gaussian_packet(reg, center=4.0, width=0.9, k=0.6, dx=model.dx)
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    rho = embed(psi0, vac, basis, model, reg)
    t_final, steps = 0.5, 25
    rho_t = evolve_state(rho, h, 0.0, t_final)
    psi = psi0
    for k in range(steps):
        psi = reduced_schrodinger_step(psi, model, k * t_final / steps,
                                       t_final / steps)
    rho_from_reduced = embed(psi, vac, basis, model, reg)
    assert np.max(np.abs(rho_t - rho_from_reduced)) < 1e-9


def test_reduced_step_interior_agreement_with_subregion():
    # while the packet stays clear of the region edge, evolving inside the
    # subregion agrees with the full-lattice evolution
    model = LatticeModel(L=9, dx=1.0)
    basis = build_basis(BOSE, L=9, g=1, n_max=1)
    h = build_hamiltonian(basis, model)
    reg = region([1, 2, 3, 4, 5, 6, 7])
    psi0 = gaussian_packet(reg, center=4.0, width=0.55, dx=model.dx)
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    rho_t = evolve_state(embed(psi0, vac, basis, model, reg), h, 0.0, 0.2)
    psi = psi0
    for k in range(10):
        psi = reduced_schrodinger_step(psi, model, k * 0.02, 0.02)
    extracted = extract_pure(rho_t, basis, model, reg)
    overlap = model.dx * np.vdot(extracted.amplitudes, psi.amplitudes)
    assert abs(abs(overlap) - 1.0) < 1e-6


# ---- embedding residual and surface term --------------------------------------


def make_residual_inputs(center, width, model, basis, reg, n_grid=5, dt=2e-4):
    psi0 = gaussian_packet(reg, center=center, width=width, dx=model.dx)
    psis = reduced_path(psi0, model, 0.0, dt, n_grid - 1)
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    rhops = [vac] * n_grid
    return psis, rhops


def test_embedding_residual_interior_vs_boundary():
    model = LatticeModel(L=11, dx=1.0)
    basis = build_basis(BOSE, L=11, g=1, n_max=1)
    reg = region([1, 2, 3, 4, 5, 6, 7, 8, 9])
    psis, rhops = make_residual_inputs(5.0, 0.5, model, basis, reg, dt=1e-4)
    h = build_hamiltonian(basis, model)
    interior = embedding_residual(psis, rhops, h, model, reg, dt=1e-4)
    assert interior.value < 1e-6
    psis_b, rhops_b = make_residual_inputs(1.0, 0.5, model, basis, reg, dt=1e-4)
    boundary = embedding_residual(psis_b, rhops_b, h, model, reg, dt=1e-4)
    assert boundary.value > 1e3 * interior.value


def test_embedding_residual_scales_with_potential_error():
    model = LatticeModel(L=9, dx=1.0)
    basis = build_basis(BOSE, L=9, g=1, n_max=1)
    reg = region([1, 2, 3, 4, 5, 6, 7])
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    h = build_hamiltonian(basis, model)
    vals = []
    for du in (0.05, 0.1):
        wrong = LatticeModel(L=9, dx=1.0,
                             U=potential_preset("table", 9, values=[du * x for x in range(9)]))
        psi0 = gaussian_packet(reg, center=4.0, width=0.45, dx=model.dx)
        psis = reduced_path(psi0, wrong, 0.0, 2e-4, 4)
        rep = embedding_residual(psis, [vac] * 5, h, model, reg, dt=2e-4)
        vals.append(rep.value)
    assert 1.7 < vals[1] / vals[0] < 2.3


def test_residual_coarse_grid_flag():
    model = LatticeModel(L=9, dx=1.0)
    basis = build_basis(BOSE, L=9, g=1, n_max=1)
    reg = region([1, 2, 3, 4, 5, 6, 7])
    psis, rhops = make_residual_inputs(4.0, 0.45, model, basis, reg,
                                       n_grid=5, dt=0.3)
    rep = embedding_residual(psis, rhops, build_hamiltonian(basis, model), model, reg,
                             dt=0.3)
    assert rep.grid_too_coarse


def test_surface_term_zero_for_flat_boundary():
    model = LatticeModel(L=7, dx=1.0)
    basis = build_basis(BOSE, L=7, g=1, n_max=1)
    reg = region([1, 2, 3, 4, 5])
    amps = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    # zero amplitude and zero one-sided gradient at both edges
    psi = one_quanton(reg, amps, dx=model.dx)
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    _, norm = surface_term(psi, vac, basis, model, reg)
    assert norm == 0.0


def test_surface_term_small_for_interior_packet():
    model = LatticeModel(L=13, dx=1.0)
    basis = build_basis(BOSE, L=13, g=1, n_max=1)
    reg = region(range(1, 12))
    psi = gaussian_packet(reg, center=6.0, width=0.42, dx=model.dx)
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    _, norm = surface_term(psi, vac, basis, model, reg)
    assert norm < 1e-8


def test_surface_term_tracks_residual_across_positions():
    from scipy.stats import spearmanr

    model = LatticeModel(L=9, dx=1.0)
    basis = build_basis(BOSE, L=9, g=1, n_max=1)
    reg = region([1, 2, 3, 4, 5, 6, 7])
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    h = build_hamiltonian(basis, model)
    residuals, norms = [], []
    # sweep from deep interior to near (not onto) the boundary layer, where
    # the packet tail drives both diagnostics
    for center in np.linspace(4.0, 5.8, 9):
        psis, rhops = make_residual_inputs(center, 0.45, model, basis, reg)
        residuals.append(embedding_residual(psis, rhops, h, model, reg,
                                            dt=2e-4).value)
        _, n = surface_term(psis[2], vac, basis, model, reg)
        norms.append(n)
    rho, _ = spearmanr(residuals, norms)
    assert rho > 0.9


# ---- induced observables -------------------------------------------------------


def test_induced_number_on_vacuum_is_identity(box5):
    basis, model = box5
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    reg = region([1, 2, 3])
    obs = induced_observable(number_operator(basis), vac, basis, model, reg)
    assert np.max(np.abs(obs.matrix - np.eye(3))) < 1e-12
    assert obs.split_deviation < 1e-12


def test_induced_kernel_hermitian_and_split(box5):
    basis, model = box5
    reg = region([0, 1, 2])
    rho_bg = one_particle_state(basis, 4, 5)
    h = build_hamiltonian(basis, model)
    obs = induced_observable(h, rho_bg, basis, model, reg)
    assert np.max(np.abs(obs.kernel - obs.kernel.conj().T)) < 1e-12
    assert obs.split_deviation < 1e-12


def test_reduction_duality_multiple_observables(box5):
    basis, model = box5
    reg = region([0, 1, 2])
    rho_bg = one_particle_state(basis, 4, 5)
    psi = one_quanton(reg, [0.6, -0.3 + 0.2j, 0.8j], dx=model.dx)
    rho = embed(psi, rho_bg, basis, model, reg)
    h = build_hamiltonian(basis, model)
    tested = [number_operator(basis), h] + list(density_ops(basis, model))
    for a in tested:
        lhs = np.trace(a.to_dense() @ rho).real
        obs = induced_observable(a, rho_bg, basis, model, reg)
        rhs = obs.expectation(psi).real
        assert abs(lhs - rhs) < 1e-10


def test_pov_positive_and_complete(box5):
    basis, model = box5
    reg = region([0, 1, 2])
    rho_bg = one_particle_state(basis, 4, 5)
    h = build_hamiltonian(basis, model)
    w = np.linalg.eigvalsh(h.to_dense())
    edges = np.linspace(w.min() - 1.0, w.max() + 1.0, 5)
    windows = [(float(a), float(b)) for a, b in zip(edges[:-1], edges[1:])]
    obs = induced_observable(h, rho_bg, basis, model, reg, windows=windows)
    total = np.zeros((3, 3), dtype=complex)
    for win in windows:
        m = obs.pov_matrix(win)
        assert np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() > -1e-10
        total += m
    assert np.max(np.abs(total - np.eye(3))) < 1e-10
    # probabilities reduce through the POV kernels
    psi = one_quanton(reg, [0.3, 1.0, -0.5j], dx=model.dx)
    rho = embed(psi, rho_bg, basis, model, reg)
    wvals, wvecs = np.linalg.eigh(h.to_dense())
    for win in windows:
        sel = (wvals >= win[0]) & (wvals < win[1])
        proj = wvecs[:, sel] @ wvecs[:, sel].conj().T
        p_field = np.trace(proj @ rho).real
        v = np.sqrt(model.dx) * psi.amplitudes.ravel()
        p_reduced = (v.conj() @ obs.pov_matrix(win) @ v).real
        assert abs(p_field - p_reduced) < 1e-10


# ---- observable drift -----------------------------------------------------------


def test_drift_zero_for_stationary_background(box5):
    basis, model = box5
    h = build_hamiltonian(basis, model)
    w, v = np.linalg.eigh(h.to_dense())
    rho_bg = np.outer(v[:, 1], v[:, 1].conj())
    reg = region([1, 2, 3])
    # check it is vacuum enough in the region? an eigenstate spreads over
    # the box, so use the observable drift of a number observable instead
    path = [rho_bg, evolve_state(rho_bg, h, 0.0, 0.5),
            evolve_state(rho_bg, h, 0.0, 1.0)]
    drift = observable_drift(number_operator(basis), path, basis, model, reg)
    assert drift < 1e-10


def test_drift_small_far_background_short_window():
    model = LatticeModel(L=6, dx=1.0)
    basis = build_basis(BOSE, L=6, g=1, n_max=2)
    h = build_hamiltonian(basis, model)
    rho_bg = one_particle_state(basis, 0, 6)
    reg = region([3, 4, 5])
    ts = np.linspace(0.0, 0.005, 4)
    path = [evolve_state(rho_bg, h, 0.0, t) for t in ts]
    drift = observable_drift(h, path, basis, model, reg)
    assert drift < 1e-4


def test_drift_large_when_particle_approaches():
    model = LatticeModel(L=6, dx=1.0)
    basis = build_basis(BOSE, L=6, g=1, n_max=2)
    h = build_hamiltonian(basis, model)
    rho_bg = one_particle_state(basis, 2, 6)
    reg = region([3, 4, 5])
    ts = np.linspace(0.0, 2.0, 6)
    path = [evolve_state(rho_bg, h, 0.0, t) for t in ts]
    drift = observable_drift(h, path, basis, model, reg)
    assert drift > 1e-2


# ---- two-quanton embedding -------------------------------------------------------


def sym_product(phi, chi, sign):
    outer = np.outer(phi, chi)
    return outer + sign * outer.T


def test_two_quanton_bose_product(box5):
    basis, model = box5
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    reg = region([1, 2, 3])
    phi = np.array([1.0, 0.0, 0.0])
    chi = np.array([0.0, 1.0, 0.0])
    psi2 = sym_product(phi, chi, +1.0)
    psi2 /= np.sqrt(model.dx**2 * np.sum(np.abs(psi2) ** 2))
    rho = embed_two_quanton(psi2, vac, basis, model, reg)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    # the state is the two-particle occupation |1_1 1_2>
    occ = [0, 1, 1, 0, 0]
    v = basis.basis_vector(occ)
    assert abs((v @ rho @ v).real - 1.0) < 1e-10


def test_two_quanton_symmetry_mismatch_rejected(box5):
    basis, model = box5
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    reg = region([1, 2, 3])
    phi = np.array([1.0, 0.0, 0.0])
    chi = np.array([0.0, 1.0, 0.0])
    anti = sym_product(phi, chi, -1.0)
    anti /= np.sqrt(model.dx**2 * np.sum(np.abs(anti) ** 2))
    with pytest.raises(ValueError, match="symmetric"):
        embed_two_quanton(anti, vac, basis, model, reg)


def test_two_quanton_fermi_slater():
    model = LatticeModel(L=5, dx=1.0, statistics=FERMI)
    basis = build_basis(FERMI, L=5, g=1, n_max=2)
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    reg = region([1, 2, 3])
    phi = np.array([1.0, 0.0, 0.0])
    chi = np.array([0.0, 0.0, 1.0])
    psi2 = sym_product(phi, chi, -1.0)
    psi2 /= np.sqrt(model.dx**2 * np.sum(np.abs(psi2) ** 2))
    rho = embed_two_quanton(psi2, vac, basis, model, reg)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    occ = [0, 1, 0, 1, 0]
    v = basis.basis_vector(occ)
    assert abs((v @ rho @ v).real - 1.0) < 1e-10
