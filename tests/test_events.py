import numpy as np
import pytest

from fockbox.events import (
    EventSpec,
    InactiveSourceError,
    SupportViolationError,
    build_event_mixture,
    check_channel_support,
    memory_witness,
    shielded_expectation,
)
from fockbox.fock import BOSE, build_basis, number_operator
from fockbox.lattice import LatticeModel, build_hamiltonian, potential_preset
from fockbox.maxent import entropy
from fockbox.propagate import evolve_state
from fockbox.subdynamics import region


def one_particle(basis, site, L):
    occ = [0] * L
    occ[site] = 1
    v = basis.basis_vector(occ)
    return np.outer(v, v.conj())


@pytest.fixture
def channel_box():
    # source sites {0, 1}, barrier at 2, channel {3, 4}
    model = LatticeModel(L=5, dx=1.0,
                         U=potential_preset("barrier", 5, height=50.0, sites=[2]))
    basis = build_basis(BOSE, L=5, g=1, n_max=1)
    h = build_hamiltonian(basis, model)
    return basis, model, h


def delta_spec(lam=0.5, target=0):
    k = np.zeros((2, 2), dtype=complex)
    k[target, 0] = 1.0  # source site 0 feeds channel site 3 + target
    return EventSpec(lam=lam, source=region([0, 1]), channel=region([3, 4]), kernel=k)


def test_delta_kernel_moves_particle(channel_box):
    basis, model, _ = channel_box
    rho_n = one_particle(basis, 0, 5)
    mix = build_event_mixture(rho_n, delta_spec(), basis, model)
    expected = one_particle(basis, 3, 5)
    assert np.max(np.abs(mix.rho_anomalous - expected)) < 1e-12
    # induced one-quanton kernel is the unit-trace delta at the target site
    assert abs(model.dx * np.trace(mix.quanton_kernel).real - 1.0) < 1e-12
    assert abs(mix.quanton_kernel[0, 0] - 1.0) < 1e-12


def test_mixture_unit_trace_random_kernel(channel_box):
    basis, model, _ = channel_box
    rng = np.random.default_rng(8)
    rho_n = one_particle(basis, 1, 5)
    k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    spec = EventSpec(lam=0.3, source=region([0, 1]), channel=region([3, 4]),
                     kernel=k)
    mix = build_event_mixture(rho_n, spec, basis, model)
    for state in (mix.rho, mix.rho_anomalous):
        assert abs(np.trace(state).real - 1.0) < 1e-12
        assert np.max(np.abs(state - state.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(state).min() > -1e-12
    assert abs(model.dx * np.trace(mix.quanton_kernel).real - 1.0) < 1e-12


def test_lambda_one_limit_is_normal_state(channel_box):
    basis, model, _ = channel_box
    rho_n = one_particle(basis, 0, 5)
    spec = delta_spec(lam=1.0 - 1e-12)
    mix = build_event_mixture(rho_n, spec, basis, model)
    assert np.max(np.abs(mix.rho - rho_n)) < 1e-10


def test_lambda_outside_open_interval_rejected():
    with pytest.raises(ValueError):
        delta_spec(lam=1.0)
    with pytest.raises(ValueError):
        delta_spec(lam=0.0)


def test_overlapping_regions_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        EventSpec(lam=0.5, source=region([0, 1]), channel=region([1, 2]),
                  kernel=np.ones((2, 2)))


def test_inactive_source_raises(channel_box):
    basis, model, _ = channel_box
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    with pytest.raises(InactiveSourceError):
        build_event_mixture(vac, delta_spec(), basis, model)


def test_mixture_builds_its_emitter_stack_once(channel_box, monkeypatch):
    from fockbox import events

    basis, model, _ = channel_box
    calls = []
    emitters = events._emitters
    monkeypatch.setattr(events, "_emitters",
                        lambda *args: calls.append(args) or emitters(*args))
    build_event_mixture(one_particle(basis, 0, 5), delta_spec(), basis, model)
    assert len(calls) == 1


def test_channel_vacuum_gate(channel_box):
    basis, model, _ = channel_box
    rho_bad = one_particle(basis, 3, 5)
    with pytest.raises(ValueError, match="vacuum"):
        build_event_mixture(rho_bad, delta_spec(), basis, model)


def test_mixture_linearity(channel_box):
    basis, model, _ = channel_box
    rho_n = one_particle(basis, 0, 5)
    mix = build_event_mixture(rho_n, delta_spec(lam=0.37), basis, model)
    rng = np.random.default_rng(3)
    for seed in range(5):
        r = np.random.default_rng(seed)
        x = r.normal(size=(basis.dim, basis.dim))
        lhs = np.trace(x @ mix.rho)
        rhs = 0.37 * np.trace(x @ mix.rho_normal) \
            + 0.63 * np.trace(x @ mix.rho_anomalous)
        assert abs(lhs - rhs) < 1e-12


def test_entropy_mixing_bounds(channel_box):
    basis, model, _ = channel_box
    rho_n = one_particle(basis, 0, 5)
    lam = 0.5
    mix = build_event_mixture(rho_n, delta_spec(lam=lam), basis, model)
    s_mix = entropy(mix.rho)
    s_n = entropy(mix.rho_normal)
    s_a = entropy(mix.rho_anomalous)
    lower = lam * s_n + (1 - lam) * s_a
    h_lam = -lam * np.log(lam) - (1 - lam) * np.log(1 - lam)
    assert s_mix >= lower - 1e-10
    assert s_mix <= lower + h_lam + 1e-10


def test_support_check_accepts_channel_observables(channel_box):
    basis, model, _ = channel_box
    spec = delta_spec()
    check_channel_support(number_operator(basis, 3), basis, model, spec)
    with pytest.raises(SupportViolationError):
        check_channel_support(number_operator(basis, 0), basis, model, spec)
    from fockbox.fock import annihilation

    hop_out = annihilation(basis, 3).dag() @ annihilation(basis, 2)
    with pytest.raises(SupportViolationError):
        check_channel_support(hop_out, basis, model, spec)


def test_shielded_identity_no_evolution(channel_box):
    basis, model, h = channel_box
    rho_n = one_particle(basis, 0, 5)
    lam = 0.5
    mix = build_event_mixture(rho_n, delta_spec(lam=lam), basis, model)
    b = number_operator(basis, 3) + number_operator(basis, 4)
    rep = shielded_expectation(b, mix, h, 0.0, 0.0, basis, model, delta_spec(lam=lam))
    # normal part is vacuum in the channel: identity exact at t = t_bar
    assert abs(rep.shielding_residual) < 1e-12
    assert abs(rep.lhs - rep.rhs) < 1e-12
    assert abs(rep.rhs - (1 - lam) * 1.0) < 1e-12


def test_shielded_identity_with_barrier(channel_box):
    basis, model, h = channel_box
    rho_n = one_particle(basis, 0, 5)
    lam = 0.4
    mix = build_event_mixture(rho_n, delta_spec(lam=lam), basis, model)
    b = number_operator(basis, 3) + number_operator(basis, 4)
    spec = delta_spec(lam=lam)
    for t in (0.5, 1.0):
        rep = shielded_expectation(b, mix, h, 0.0, t, basis, model, spec)
        assert abs(rep.shielding_residual) < 1e-3
        assert abs(rep.lhs - rep.rhs - lam * rep.shielding_residual) < 1e-12


def test_shielded_series_matches_one_call_per_time(channel_box):
    basis, model, h = channel_box
    spec = delta_spec(lam=0.4)
    mix = build_event_mixture(one_particle(basis, 0, 5), spec, basis, model)
    b = number_operator(basis, 3) + number_operator(basis, 4)
    times = [0.25, 0.5, 1.0]
    series = shielded_expectation(b, mix, h, 0.0, times, basis, model, spec)
    assert series == [shielded_expectation(b, mix, h, 0.0, t, basis, model, spec)
                      for t in times]


def test_shielding_degrades_without_barrier():
    model = LatticeModel(L=5, dx=1.0)  # no barrier
    basis = build_basis(BOSE, L=5, g=1, n_max=1)
    h = build_hamiltonian(basis, model)
    rho_n = one_particle(basis, 0, 5)
    lam = 0.4
    spec = delta_spec(lam=lam)
    mix = build_event_mixture(rho_n, spec, basis, model)
    b = number_operator(basis, 3) + number_operator(basis, 4)
    res = [abs(shielded_expectation(b, mix, h, 0.0, t, basis, model,
                                    spec).shielding_residual)
           for t in (0.5, 1.5, 3.0)]
    assert res[-1] > 10 * res[0] or res[-1] > 0.1


def test_memory_witness_identical_kernels_zero(channel_box):
    basis, model, h = channel_box
    rho_n = one_particle(basis, 0, 5)
    spec = delta_spec()
    b = number_operator(basis, 3)
    w = memory_witness(spec, spec, rho_n, b, h, 0.0, 0.7, basis, model)
    assert w == 0.0


def test_memory_witness_distinguishes_orthogonal_kernels(channel_box):
    basis, model, h = channel_box
    rho_n = one_particle(basis, 0, 5)
    spec_left = delta_spec(target=0)
    spec_right = delta_spec(target=1)
    b = number_operator(basis, 3)  # left half of the channel
    w0 = memory_witness(spec_left, spec_right, rho_n, b, h, 0.0, 0.0,
                        basis, model)
    assert w0 > 0.1
    w_transit = memory_witness(spec_left, spec_right, rho_n, b, h, 0.0, 0.6,
                               basis, model)
    assert w_transit > 0.1


def test_memory_witness_series_matches_per_time_evolution(channel_box):
    basis, model, h = channel_box
    rho_n = one_particle(basis, 0, 5)
    spec_left, spec_right = delta_spec(target=0), delta_spec(target=1)
    b = number_operator(basis, 3)
    t_bar, times = 0.3, [0.3, 0.9, 1.6]
    series = memory_witness(spec_left, spec_right, rho_n, b, h, t_bar, times, basis, model)
    # each time on its own, as a mixture evolved from t_bar by evolve_state
    mixtures = [build_event_mixture(rho_n, s, basis, model).rho
                for s in (spec_left, spec_right)]
    bd = b.to_dense()
    for t, w in zip(times, series):
        vals = [np.trace(bd @ evolve_state(m, h, t_bar, t)).real for m in mixtures]
        assert w == abs(vals[0] - vals[1])
        assert w == memory_witness(spec_left, spec_right, rho_n, b, h, t_bar, t,
                                   basis, model)


def test_memory_witness_checks_the_detector_against_both_channels():
    model = LatticeModel(L=5, dx=1.0)
    basis = build_basis(BOSE, L=5, g=1, n_max=1)
    h = build_hamiltonian(basis, model)
    wide = EventSpec(lam=0.5, source=region([0, 1]), channel=region([2, 3, 4]),
                     kernel=np.ones((3, 2)))
    narrow = EventSpec(lam=0.5, source=region([0, 1]), channel=region([3, 4]),
                       kernel=np.ones((2, 2)))
    b = number_operator(basis, 2)  # inside the wide channel, outside the narrow one
    for one, two in ((wide, narrow), (narrow, wide)):
        with pytest.raises(SupportViolationError):
            memory_witness(one, two, one_particle(basis, 0, 5), b, h, 0.0, 0.5,
                           basis, model)


def test_memory_witness_decays_under_channel_disorder():
    # kernels launching left- vs right-movers have identical densities at
    # t_bar; the witness needs transport, which strong static disorder in
    # the channel freezes out
    witnesses = []
    for strength in (0.0, 60.0):
        rng = np.random.default_rng(123)
        u = np.zeros(7)
        u[2] = 50.0  # barrier between source and channel
        u[3:6] += strength * rng.uniform(-1.0, 1.0, size=3)
        model = LatticeModel(L=7, dx=1.0,
                             U=potential_preset("table", 7, values=list(u)))
        basis = build_basis(BOSE, L=7, g=1, n_max=1)
        h = build_hamiltonian(basis, model)
        rho_n = one_particle(basis, 0, 7)
        k = np.pi / 3.0
        ys = np.arange(3)
        k_plus = np.zeros((3, 2), dtype=complex)
        k_plus[:, 0] = np.exp(1j * k * ys)
        k_minus = np.zeros((3, 2), dtype=complex)
        k_minus[:, 0] = np.exp(-1j * k * ys)
        assert abs(np.vdot(k_plus[:, 0], k_minus[:, 0])) < 1e-12
        spec_p = EventSpec(lam=0.5, source=region([0, 1]),
                           channel=region([3, 4, 5]), kernel=k_plus)
        spec_m = EventSpec(lam=0.5, source=region([0, 1]),
                           channel=region([3, 4, 5]), kernel=k_minus)
        b = number_operator(basis, 5)  # right edge of the channel
        w = max(memory_witness(spec_p, spec_m, rho_n, b, h, 0.0, t, basis, model)
                for t in (1.0, 1.5))
        witnesses.append(w)
    assert witnesses[0] > 0.1
    assert witnesses[1] < 0.2 * witnesses[0]
