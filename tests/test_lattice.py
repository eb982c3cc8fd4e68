import numpy as np
import oracles
import pytest

from fockbox.fock import BOSE, FERMI, build_basis, commutator, number_operator
from fockbox.lattice import (
    ENERGY,
    MASS,
    MOMENTUM,
    LatticeModel,
    UnsupportedFamilyError,
    build_hamiltonian,
    current_ops,
    density_ops,
    divergence_ops,
    energy_density_ops,
    momentum_density_ops,
    momentum_op,
    normal_modes,
    pair_preset,
    potential_preset,
)
from fockbox.propagate import evolve_state


def dirichlet_dispersion(L, dx, m, hbar):
    """Analytic Dirichlet box energies hbar^2/(m dx^2) (1 - cos(r pi/(L+1)))."""
    r = np.arange(1, L + 1)
    return hbar**2 / (m * dx**2) * (1.0 - np.cos(r * np.pi / (L + 1)))


def test_normal_modes_two_sites_frozen():
    model = LatticeModel(L=2, dx=1.0)
    w = normal_modes(model).energies
    assert np.allclose(w, [0.5, 1.5], atol=1e-12)
    assert np.allclose(w, dirichlet_dispersion(2, 1.0, 1.0, 1.0), atol=1e-12)


@pytest.mark.parametrize("L,dx", [(2, 1.0), (4, 0.5), (5, 1.3)])
def test_normal_modes_match_dispersion_and_orthonormality(L, dx):
    model = LatticeModel(L=L, dx=dx, mass=1.7, hbar=0.9)
    modes = normal_modes(model)
    assert np.allclose(modes.energies,
                       dirichlet_dispersion(L, dx, 1.7, 0.9), atol=1e-10)
    gram = modes.mode_functions @ modes.mode_functions.T * dx
    assert np.max(np.abs(gram - np.eye(L))) < 1e-10
    # eigenproblem residual
    h1 = model.single_particle_matrix(0.0)
    for r in range(L):
        u = modes.mode_functions[r]
        assert np.max(np.abs(h1 @ u - modes.energies[r] * u)) < 1e-10


def test_middle_mode_has_center_node():
    modes = normal_modes(LatticeModel(L=3, dx=1.0))
    assert abs(modes.mode_functions[1, 1]) < 1e-12


def test_hamiltonian_vacuum_energy_zero():
    basis, model, h, _ = oracles.contact_model(v0=0.0)
    vac = basis.basis_vector([0, 0, 0])
    assert np.linalg.norm(h.to_dense() @ vac) < 1e-14


def test_single_particle_sector_equals_first_quantized():
    pot = potential_preset("table", 4, values=[0.3, -0.1, 0.7, 0.0])
    model = LatticeModel(L=4, dx=0.8, U=pot)
    basis = build_basis(BOSE, L=4, g=1, n_max=2)
    h = build_hamiltonian(basis, model).to_dense()
    # one-particle states are ordinals 1..L in the enumeration
    block = h[1:5, 1:5]
    assert np.max(np.abs(block - model.single_particle_matrix(0.0))) < 1e-12


def test_contact_interaction_counted_once():
    basis, model, h, _ = oracles.contact_model(L=2, v0=1.3)
    h = h.to_dense()
    free = build_hamiltonian(basis, LatticeModel(L=2, dx=1.0)).to_dense()
    pair = basis.state_ordinal([2, 0])
    assert abs((h - free)[pair, pair] - 1.3) < 1e-12
    # one particle per site: interaction only if within range (r = 0 here)
    split = basis.state_ordinal([1, 1])
    assert abs((h - free)[split, split]) < 1e-12


def test_mass_density_counts_particles():
    model = LatticeModel(L=3, dx=0.5, mass=2.0)
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    rho = density_ops(basis, model)
    v = basis.basis_vector([1, 0, 0])
    # integrated density at the occupied site gives the particle mass
    assert abs(model.dx * (v @ rho[0].to_dense() @ v) - 2.0) < 1e-12
    total = sum((model.dx * r.to_dense() for r in rho), np.zeros((basis.dim,) * 2))
    n = number_operator(basis).to_dense()
    assert np.max(np.abs(total - 2.0 * n)) < 1e-12


def test_momentum_vanishes_on_real_amplitudes():
    basis, model, _, _ = oracles.contact_model(L=4, n_max=1, v0=0.0)
    p = momentum_op(basis, model).to_dense()
    rng = np.random.default_rng(7)
    amps = rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    v = np.zeros(basis.dim)
    for x in range(4):
        occ = [0] * 4
        occ[x] = 1
        v[basis.state_ordinal(occ)] = amps[x]
    assert abs(v @ p @ v) < 1e-12


def test_energy_density_sums_to_hamiltonian():
    pot = potential_preset("harmonic", 4, k=0.7)
    v, r = pair_preset("table", dx=1.0, values=[0.9, 0.4])
    model = LatticeModel(L=4, dx=1.0, U=pot, V=v, range_V=r)
    basis = build_basis(BOSE, L=4, g=1, n_max=2)
    h = build_hamiltonian(basis, model)
    cells = energy_density_ops(basis, model)
    total = sum((model.dx * c.to_dense() for c in cells),
                np.zeros((basis.dim,) * 2))
    assert np.max(np.abs(total - h.to_dense())) < 1e-12


def test_hermiticity_of_all_operator_families():
    v, r = pair_preset("contact", v0=0.5)
    model = LatticeModel(L=3, dx=1.0, V=v, range_V=r,
                         U=potential_preset("barrier", 3, height=2.0, sites=[1]))
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    ops = [build_hamiltonian(basis, model), momentum_op(basis, model)]
    ops += density_ops(basis, model)
    ops += energy_density_ops(basis, model)
    ops += momentum_density_ops(basis, model)
    for op in ops:
        assert (op - op.dag()).max_abs() < 1e-12


def test_hamiltonian_conserves_number():
    v, r = pair_preset("contact", v0=0.5)
    model = LatticeModel(L=3, dx=1.0, V=v, range_V=r, statistics=FERMI)
    basis = build_basis(FERMI, L=3, g=1, n_max=3)
    h = build_hamiltonian(basis, model)
    n = number_operator(basis)
    assert commutator(h, n).max_abs() < 1e-12


def test_free_spectrum_equals_mode_number_sums():
    basis, model, h, _ = oracles.contact_model(v0=0.0)
    w = normal_modes(model).energies
    predicted = sorted(
        float(np.dot(w, occ_modes))
        for occ_modes in _mode_occupations(3, 2)
    )
    spectrum = np.sort(np.linalg.eigvalsh(h.to_dense()))
    assert np.max(np.abs(spectrum - np.array(predicted))) < 1e-10


def _mode_occupations(modes, n_max):
    from itertools import product

    for occ in product(range(n_max + 1), repeat=modes):
        if sum(occ) <= n_max:
            yield occ


@pytest.mark.parametrize("family", [MASS, MOMENTUM, ENERGY])
def test_continuity_identity_direct_commutator_oracle(family):
    v, r = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=4, dx=1.0, V=v, range_V=r,
                         U=potential_preset("table", 4, values=[0.1, 0.0, 0.2, 0.0]))
    basis = build_basis(BOSE, L=4, g=1, n_max=2)
    h = build_hamiltonian(basis, model).to_dense()
    from fockbox.lattice import family_density_ops

    cells = family_density_ops(basis, model, family)
    currents = current_ops(basis, model, family)
    div = divergence_ops(currents, model)
    for x in range(model.L):
        a = cells[x].to_dense()
        dot = (1j / model.hbar) * (h @ a - a @ h)
        resid = dot + div[x].to_dense()
        assert np.max(np.abs(resid)) < 1e-10


def test_mass_energy_currents_close_at_walls():
    basis, model, _, _ = oracles.contact_model(L=4)
    for family in (MASS, ENERGY):
        cs = current_ops(basis, model, family)
        assert cs.wall_defect < 1e-10
        assert cs.bonds[0].max_abs() == 0.0
        assert cs.bonds[-1].max_abs() < 1e-10


def test_momentum_wall_flux_is_the_total_force():
    basis, model, _, _ = oracles.contact_model(L=4, n_max=1, v0=0.0)
    cs = current_ops(basis, model, MOMENTUM)
    assert cs.wall_defect > 1e-3  # walls push back on the box
    with pytest.raises(UnsupportedFamilyError):
        current_ops(basis, model, MOMENTUM, require_closed_walls=True)


def test_mass_current_matches_local_hopping_form():
    # independent construction: j(b) = (hbar m / dx^2) Im(a_b^dag a_{b-1}) form
    model = LatticeModel(L=4, dx=0.7, mass=1.3, hbar=1.1)
    basis = build_basis(BOSE, L=4, g=1, n_max=2)
    from fockbox.fock import annihilation

    cs = current_ops(basis, model, MASS)
    c = model.hopping
    for b in range(1, model.L):
        left = annihilation(basis, b - 1).to_dense()
        right = annihilation(basis, b).to_dense()
        local = (1j * c * model.mass / model.hbar) * (
            right.conj().T @ left - left.conj().T @ right)
        assert np.max(np.abs(cs.bonds[b].to_dense() - local)) < 1e-10


def test_density_stationary_in_eigenstate():
    basis, model, h, _ = oracles.contact_model(n_max=1, v0=0.0)
    w, v = np.linalg.eigh(h.to_dense())
    rho_state = np.outer(v[:, 1], v[:, 1].conj())
    for op in density_ops(basis, model):
        before = np.trace(op.to_dense() @ rho_state).real
        after = np.trace(op.to_dense()
                         @ evolve_state(rho_state, h, 0.0, 0.37)).real
        assert abs(after - before) < 1e-12


def test_uniform_positive_mass_current_for_momentum_superposition():
    basis, model, h, _ = oracles.contact_model(L=4, n_max=1, v0=0.0)
    k = 1.1
    amps = np.exp(1j * k * np.arange(4)) / 2.0
    v = np.zeros(basis.dim, dtype=complex)
    for x in range(4):
        occ = [0] * 4
        occ[x] = 1
        v[basis.state_ordinal(occ)] = amps[x]
    rho_state = np.outer(v, v.conj())
    cs = current_ops(basis, model, MASS)
    interior = [np.trace(cs.bonds[b].to_dense() @ rho_state).real
                for b in range(1, 4)]
    assert np.allclose(interior, interior[0], atol=1e-12)
    assert interior[0] > 0.0
    # finite-difference oracle: d<rho(x)>/dt from exact evolution
    dt = 1e-5
    rho_plus = evolve_state(rho_state, h, 0.0, dt)
    rho_minus = evolve_state(rho_state, h, 0.0, -dt)
    dens = density_ops(basis, model)
    div = divergence_ops(cs, model)
    for x in range(4):
        dnum = np.trace(dens[x].to_dense() @ (rho_plus - rho_minus)).real / (2 * dt)
        assert abs(dnum + np.trace(div[x].to_dense() @ rho_state).real) < 1e-6


def test_unknown_family_rejected():
    basis, model, _, _ = oracles.contact_model(L=2, n_max=1, v0=0.0)
    with pytest.raises(ValueError):
        current_ops(basis, model, "charge")
