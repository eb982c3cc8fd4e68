from functools import lru_cache

import tracemalloc

import numpy as np
import pytest

import fockbox.maxent as maxent
import fockbox.neqso as neqso
from fockbox.fock import BOSE, build_basis, commutator, number_operator, zero_operator
from fockbox.lattice import (
    MASS,
    LatticeModel,
    build_hamiltonian,
    current_ops,
    density_ops,
    divergence_ops,
    pair_preset,
)
from fockbox.maxent import entropy, expectations, gibbs_state, relevant_set
from fockbox.neqso import (
    HistorySpec,
    HistoryTerm,
    ZetaTrajectory,
    build_rho_t0,
    cosine_test_function,
    decay_time,
    entropy_monitor,
    evolve_and_rewrite,
    hydro_parametrize,
    macrostate_of,
    zeta_dynamics,
)
from fockbox.propagate import evolve_state


def diagonal_model():
    """Single site, two components: everything commutes exactly."""
    model = LatticeModel(L=1, dx=1.0, g=2)
    basis = build_basis(BOSE, L=1, g=2, n_max=2)
    h = build_hamiltonian(basis, model)
    ops = [number_operator(basis, 0), number_operator(basis, 1)]
    rel = relevant_set(["n0", "n1"], ops, [1.0, 1.0],
                       div_currents=[zero_operator(basis)] * 2)
    return basis, model, h, rel


def interacting_model(L=3, v0=0.6, n_max=2):
    v, rv = pair_preset("contact", v0=v0)
    model = LatticeModel(L=L, dx=1.0, V=v, range_V=rv)
    basis = build_basis(BOSE, L=L, g=1, n_max=n_max)
    h = build_hamiltonian(basis, model)
    cells = density_ops(basis, model)
    div_mass = divergence_ops(current_ops(basis, model, MASS), model)
    rel = relevant_set(
        [f"rho[{x}]" for x in range(L)] + ["H"],
        list(cells) + [h],
        [model.dx] * L + [1.0],
        div_currents=list(div_mass) + [zero_operator(basis)],
    )
    return basis, model, h, rel


# ---- build_rho_t0 -------------------------------------------------------------


def test_zero_history_reduces_to_gibbs():
    basis, model, h, rel = interacting_model()
    zeta = np.array([0.2, -0.1, 0.3, 0.25])
    rho_hist, logz = build_rho_t0(rel, zeta, HistorySpec.empty(0.0), h)
    rho_gibbs, zf = gibbs_state(rel, zeta)
    assert np.max(np.abs(rho_hist - rho_gibbs)) < 1e-14
    assert abs(logz - zf.zeta0) < 1e-12


def test_prepared_state_positive_unit_trace():
    basis, model, h, rel = interacting_model()
    rng = np.random.default_rng(9)
    term = HistoryTerm(
        label="drive",
        operators=rel.operators[:3],
        coeffs=rng.uniform(-0.2, 0.2, size=3),
        h=cosine_test_function(1.3),
    )
    cur = current_ops(basis, model, MASS)
    term_j = HistoryTerm(
        label="currents",
        operators=cur.bonds[1:3],
        coeffs=rng.uniform(-0.2, 0.2, size=2),
        h=cosine_test_function(0.7),
    )
    hist = HistorySpec(T=-1.0, t0=0.0, terms=(term, term_j),
                       gamma_T=np.array([0.1, 0.0, -0.1, 0.05]), n_quad=41)
    zeta = np.array([0.2, -0.1, 0.3, 0.25])
    rho, _ = build_rho_t0(rel, zeta, hist, h)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > 0.0
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-14


def test_non_hermitian_history_term_rejected():
    from fockbox.fock import annihilation

    basis, *_ = interacting_model()
    with pytest.raises(ValueError, match="non-Hermitian"):
        HistoryTerm(label="bad", operators=(annihilation(basis, 0),),
                    coeffs=np.array([0.5]), h=lambda t: 1.0)


def test_commuting_history_collapses_to_zeta_shift():
    basis, model, h, rel = diagonal_model()
    gam = np.array([0.3, -0.2])
    T, t0 = -2.0, 0.0
    term = HistoryTerm(label="const", operators=rel.operators,
                       coeffs=gam * rel.weights, h=lambda t: 1.0)
    hist = HistorySpec(T=T, t0=t0, terms=(term,), n_quad=31)
    zeta = np.array([0.5, 0.1])
    rho_hist, _ = build_rho_t0(rel, zeta, hist, h)
    # constant test function over [T, t0] amounts to zeta -> zeta - gam (t0 - T)
    rho_shift, _ = gibbs_state(rel, zeta - gam * (t0 - T))
    assert np.max(np.abs(rho_hist - rho_shift)) < 1e-12


# ---- evolve_and_rewrite --------------------------------------------------------


def test_rewrite_at_t0_is_identity():
    basis, model, h, rel = interacting_model()
    zeta = np.array([0.2, -0.1, 0.3, 0.25])
    rep = evolve_and_rewrite(rel, zeta, HistorySpec.empty(0.0), h, 0.0,
                             lambda t: zeta, n_quad=10)
    assert rep.distance < 1e-12


def test_rewrite_exact_for_commuting_family():
    basis, model, h, rel = diagonal_model()
    zeta = np.array([0.4, -0.3])
    rep = evolve_and_rewrite(rel, zeta, HistorySpec.empty(0.0), h, 1.7,
                             lambda t: zeta, n_quad=50)
    assert rep.distance < 1e-10


def test_rewrite_matches_direct_for_interacting_case():
    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])
    rho0, _ = gibbs_state(rel, zeta0)

    @lru_cache(maxsize=None)
    def zeta_at(t):
        rho_t = evolve_state(rho0, h, 0.0, t)
        return tuple(macrostate_of(rho_t, rel, zeta_guess=zeta0).values)

    def zeta_of_t(t):
        return np.array(zeta_at(round(float(t), 12)))

    rep = evolve_and_rewrite(rel, zeta0, HistorySpec.empty(0.0), h, 0.4,
                             zeta_of_t, n_quad=200)
    assert rep.distance < 1e-6
    assert rep.coarse_distance < 1e-6


def test_rewrite_is_path_independent_but_anchor_sensitive():
    # the rewrite telescopes exactly for any differentiable path anchored at
    # zeta(t0); a broken anchor leaves a stable, visible gap
    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])
    frozen = evolve_and_rewrite(rel, zeta0, HistorySpec.empty(0.0), h, 0.4,
                                lambda t: zeta0, n_quad=200)
    assert frozen.distance < 1e-6
    ramp = evolve_and_rewrite(rel, zeta0, HistorySpec.empty(0.0), h, 0.4,
                              lambda t: zeta0 + 0.2 * (t - 0.0), n_quad=200)
    assert ramp.distance < 1e-6
    broken = evolve_and_rewrite(rel, zeta0, HistorySpec.empty(0.0), h, 0.4,
                                lambda t: zeta0 + 0.1, n_quad=200)
    assert broken.distance > 1e-3
    assert not broken.quadrature_suspect


def test_rewrite_holds_with_preparation_history():
    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])
    prep = HistoryTerm(label="prep", operators=rel.operators[:3],
                       coeffs=np.array([0.15, -0.05, 0.1]),
                       h=cosine_test_function(1.1))
    hist = HistorySpec(T=-1.0, t0=0.0, terms=(prep,),
                       gamma_T=np.array([0.2, 0.0, -0.1, 0.05]), n_quad=41)
    traj = zeta_dynamics(rel, zeta0, hist, h, 0.0, 0.4, step=0.01)
    rep = evolve_and_rewrite(rel, zeta0, hist, h, 0.4, traj.interpolator(),
                             n_quad=200)
    assert rep.distance < 1e-6


# ---- macrostate_of --------------------------------------------------------------


def test_macrostate_round_trip():
    basis, model, h, rel = interacting_model()
    rng = np.random.default_rng(4)
    zeta_star = rng.uniform(-0.4, 0.4, size=len(rel))
    rho, _ = gibbs_state(rel, zeta_star)
    zf = macrostate_of(rho, rel)
    assert np.max(np.abs(zf.gauge_projector @ (zf.values - zeta_star))) < 1e-6


def test_macrostate_extremal_expectations_fail():
    from fockbox.maxent import MatchFailure

    basis, model, h, rel = interacting_model()
    vac = np.zeros((basis.dim, basis.dim))
    vac[0, 0] = 1.0
    with pytest.raises(MatchFailure):
        macrostate_of(vac, rel)


def test_macrostate_entropy_dominates():
    basis, model, h, rel = interacting_model()
    zeta = np.array([0.2, -0.1, 0.3, 0.25])
    rho, _ = gibbs_state(rel, zeta)
    rho_t = evolve_state(rho, h, 0.0, 0.8)
    zf = macrostate_of(rho_t, rel, zeta_guess=zeta)
    rho_macro, _ = gibbs_state(rel, zf.values)
    assert entropy(rho_macro) >= entropy(rho_t) - 1e-10


# ---- zeta_dynamics ---------------------------------------------------------------


def test_dynamics_constant_for_commuting_family():
    basis, model, h, rel = diagonal_model()
    zeta = np.array([0.5, -0.2])
    traj = zeta_dynamics(rel, zeta, HistorySpec.empty(0.0), h, 0.0, 1.0,
                         step=0.1)
    assert np.max(np.abs(traj.zetas - zeta[None, :])) == 0.0
    assert np.max(np.abs(traj.zdots)) == 0.0


def test_dynamics_times_lie_on_the_grid():
    # times are t0 + i * step, not a running sum of steps that drifts off it
    basis, model, h, rel = diagonal_model()
    t0, step, n = 0.1, 0.025, 40
    traj = zeta_dynamics(rel, np.array([0.5, -0.2]), HistorySpec.empty(t0), h, t0,
                         t0 + n * step, step=step)
    assert np.array_equal(traj.times, t0 + step * np.arange(n + 1))


def test_dynamics_tracks_exact_inversion_short_horizon():
    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])
    traj = zeta_dynamics(rel, zeta0, HistorySpec.empty(0.0), h, 0.0, 0.5,
                         step=0.025)
    rho0, _ = gibbs_state(rel, zeta0)
    rho_t = evolve_state(rho0, h, 0.0, 0.5)
    zx = macrostate_of(rho_t, rel, zeta_guess=zeta0).values
    assert np.max(np.abs(traj.zetas[-1] - zx)) < 0.05 * np.max(np.abs(zeta0))


def test_dynamics_step_halving_stable():
    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])
    coarse = zeta_dynamics(rel, zeta0, HistorySpec.empty(0.0), h, 0.0, 0.5,
                           step=0.05)
    fine = zeta_dynamics(rel, zeta0, HistorySpec.empty(0.0), h, 0.0, 0.5,
                         step=0.025)
    assert np.max(np.abs(fine.zetas[::2] - coarse.zetas)) < 1e-3


def test_dynamics_gauge_covariance():
    # adding a multiple of the identity to one observable shifts zeta0 only
    basis, model, h, rel = interacting_model()
    from fockbox.fock import identity

    shifted_ops = list(rel.operators)
    shifted_ops[-1] = shifted_ops[-1] + 2.5 * identity(basis)
    rel_shift = relevant_set(rel.labels, shifted_ops, rel.weights,
                             div_currents=rel.div_currents)
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])
    t1 = zeta_dynamics(rel, zeta0, HistorySpec.empty(0.0), h, 0.0, 0.3,
                       step=0.05)
    t2 = zeta_dynamics(rel_shift, zeta0, HistorySpec.empty(0.0), h, 0.0, 0.3,
                       step=0.05)
    for i in range(len(t1.times)):
        w1, _ = gibbs_state(rel, t1.zetas[i])
        w2, _ = gibbs_state(rel_shift, t2.zetas[i])
        assert np.max(np.abs(w1 - w2)) < 1e-10


def test_dynamics_gram_condition_abort():
    from fockbox.neqso import GramConditionError

    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.3, 0.0, -0.3, 0.4])
    with pytest.raises(GramConditionError) as exc:
        zeta_dynamics(rel, zeta0, HistorySpec.empty(0.0), h, 0.0, 0.1,
                      step=0.05, cond_max=1.0)
    assert exc.value.cond > 1.0


def test_dynamics_memory_cutoff_drops_preparation():
    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.2, 0.0, -0.2, 0.3])
    gam = np.array([0.3, -0.1, 0.2, 0.0])
    hist = HistorySpec(T=-6.0, t0=0.0, terms=(), gamma_T=gam, n_quad=16)
    hist2 = HistorySpec(T=-6.0, t0=0.0, terms=(), gamma_T=2.0 * gam, n_quad=16)
    kw = dict(t0=0.0, t_end=0.4, step=0.05, tau_cut=1.5)
    t1 = zeta_dynamics(rel, zeta0, hist, h, **kw)
    t2 = zeta_dynamics(rel, zeta0, hist2, h, **kw)
    assert np.max(np.abs(t1.zetas - t2.zetas)) == 0.0
    # without the cutoff the terminal term is active and doubling it matters
    t3 = zeta_dynamics(rel, zeta0, hist, h, t0=0.0, t_end=0.4, step=0.05)
    t4 = zeta_dynamics(rel, zeta0, hist2, h, t0=0.0, t_end=0.4, step=0.05)
    assert np.max(np.abs(t3.zetas - t4.zetas)) > 1e-6


def test_dynamics_master_equation_regime():
    # near a thermal fixed point the map between expectation vectors one
    # memory-time apart is approximately linear and time-homogeneous: the
    # map fitted over [0, tau] composed with itself reproduces the 2 tau
    # data.  The regime premise (parameters varying well below 1% over tau)
    # is asserted alongside the 5% composition bound.
    basis, model, h, rel = interacting_model()
    n = len(rel)
    zeta_star = np.array([0.0, 0.0, 0.0, 0.5])
    tau, eps, step = 0.25, 0.02, 0.025

    def a_of(zeta):
        rho, _ = gibbs_state(rel, zeta)
        return expectations(rel, rho)

    def probe(zeta0):
        tr = zeta_dynamics(rel, zeta0, HistorySpec.empty(0.0), h, 0.0,
                           2 * tau, step=step)
        i_tau = int(round(tau / step))
        var = np.max(np.abs(tr.zetas[i_tau] - tr.zetas[0])) \
            / max(np.max(np.abs(tr.zetas[0])), 1e-12)
        return [a_of(tr.zetas[i]) for i in (0, i_tau, 2 * i_tau)], var

    base, _ = probe(zeta_star)
    d0, d1, d2 = [], [], []
    for k in range(4):  # density directions around the fixed point
        pert, var = probe(zeta_star + eps * np.eye(n)[k])
        assert var < 0.01
        d0.append(pert[0] - base[0])
        d1.append(pert[1] - base[1])
        d2.append(pert[2] - base[2])
    D0, D1, D2 = (np.array(m).T for m in (d0, d1, d2))
    m_tau, *_ = np.linalg.lstsq(D0.T, D1.T, rcond=None)
    mismatch = np.linalg.norm(m_tau.T @ D1 - D2) / np.linalg.norm(D2)
    assert mismatch < 0.05


# ---- decay_time -----------------------------------------------------------------


def test_decay_table_static_value_matches_kubo():
    from fockbox.maxent import kubo

    basis, model, h, rel = interacting_model()
    zeta = np.array([0.25, 0.05, -0.25, 0.3])
    rep = decay_time(rel, zeta, h, horizon=1.0, n_samples=5)
    rho, _ = gibbs_state(rel, zeta)
    hd = h.to_dense()
    for j in range(len(rel)):
        a_j = rel.operators[j].to_dense()
        c_j = 1j * (hd @ a_j - a_j @ hd)
        for l in range(len(rel)):
            direct = kubo(c_j, rel.operators[l].to_dense(), rho)
            assert abs(rep.table[0, j, l] - direct.real) < 1e-10


def test_decay_commuting_family_is_zero():
    basis, model, h, rel = diagonal_model()
    rep = decay_time(rel, np.array([0.3, -0.3]), h, horizon=2.0, n_samples=9)
    assert rep.tau == 0.0
    assert not rep.no_decay
    assert np.max(np.abs(rep.table)) < 1e-12


def test_decay_quasiperiodic_frequencies_match_spectral_gaps():
    basis, model, h, rel = interacting_model(L=3)
    zeta = np.array([0.3, 0.0, -0.3, 0.2])
    horizon, n = 60.0, 1200
    rep = decay_time(rel, zeta, h, horizon=horizon, n_samples=n + 1)
    assert rep.no_decay  # tiny systems recur instead of decaying
    sig = rep.table[:, 0, 1] - np.mean(rep.table[:, 0, 1])
    freqs = np.fft.rfftfreq(len(sig), d=horizon / n) * 2 * np.pi
    amp = np.abs(np.fft.rfft(sig * np.hanning(len(sig))))
    peak_freq = freqs[np.argmax(amp)]
    w = np.linalg.eigvalsh(h.to_dense())
    gaps = np.abs(w[:, None] - w[None, :]).ravel()
    gaps = gaps[gaps > 1e-8]
    assert np.min(np.abs(gaps - peak_freq)) < 2 * np.pi / horizon


# ---- entropy monitor --------------------------------------------------------------


def test_entropy_constant_for_equilibrium_family():
    basis, model, h, rel = interacting_model()
    n = number_operator(basis)
    conserved = relevant_set(["H", "N"], [h, n], [1.0, 1.0])
    zeta_eq = np.array([0.0, 0.0, 0.0, 0.6])  # thermal in H alone
    traj = zeta_dynamics(rel, zeta_eq, HistorySpec.empty(0.0), h, 0.0, 0.6,
                         step=0.06)
    series = entropy_monitor(traj, rel, conserved=conserved)
    assert np.max(series.entropy) - np.min(series.entropy) < 1e-10
    assert not series.decreasing_steps
    assert np.nanmax(series.dist_equilibrium) < 1e-6


def test_entropy_monitor_holds_one_state_at_a_time():
    """At dim 165, with the distance to equilibrium, the traced peak of 20
    samples stays within half a dense state of the peak of 5: each state's
    entropy and distance are read before the next state is built (the parent
    kept every state, 4.3 and 12.9 MB)."""
    basis, model, h, rel = interacting_model(L=8, n_max=3)
    conserved = relevant_set(["H", "N"], [h, number_operator(basis)], [1.0, 1.0])
    rng = np.random.default_rng(0)

    def peak(n_t):
        zetas = np.linspace(-0.3, 0.3, len(rel)) + 0.05 * rng.normal(size=(n_t, len(rel)))
        traj = ZetaTrajectory(labels=rel.labels, times=np.linspace(0.0, 1.0, n_t),
                              zetas=zetas, zdots=np.zeros_like(zetas), gram_cond_max=1.0)
        tracemalloc.start()
        try:
            series = entropy_monitor(traj, rel, conserved=conserved)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(series.dist_equilibrium))
        return top

    peak(2)  # first-use caches are not counted
    state = basis.dim ** 2 * 16
    assert basis.dim == 165
    assert peak(20) < peak(5) + 0.5 * state


def test_entropy_monitor_builds_each_conserved_state_once(monkeypatch):
    """The distance to equilibrium reads the matcher's own final state: one
    _gibbs call per sample fewer than building gibbs_state of the matched
    parameters again, and the same distances bit for bit."""
    basis, model, h, rel = interacting_model()
    conserved = relevant_set(["H", "N"], [h, number_operator(basis)], [1.0, 1.0])
    traj = zeta_dynamics(rel, np.array([0.3, -0.1, 0.2, 0.5]), HistorySpec.empty(0.0),
                         h, 0.0, 0.3, step=0.05)
    calls, gibbs = [], maxent._gibbs
    monkeypatch.setattr(maxent, "_gibbs", lambda *args: calls.append(1) or gibbs(*args))
    series = entropy_monitor(traj, rel, conserved=conserved)
    n_calls = len(calls)
    calls.clear()
    guess, want = None, []
    for zeta in traj.zetas:
        rho, _ = gibbs_state(rel, zeta)
        guess = macrostate_of(rho, conserved, zeta_guess=guess).values
        want.append(float(np.linalg.norm(rho - gibbs_state(conserved, guess)[0])))
    assert n_calls == len(calls) - len(traj.times)
    assert np.array_equal(series.dist_equilibrium, want)


def test_entropy_micro_constant_macro_grows():
    basis, model, h, rel = interacting_model()
    zeta0 = np.array([0.4, 0.0, -0.4, 0.3])
    traj = zeta_dynamics(rel, zeta0, HistorySpec.empty(0.0), h, 0.0, 0.6,
                         step=0.03)
    series = entropy_monitor(traj, rel)
    assert not series.decreasing_steps
    assert series.entropy[-1] > series.entropy[0]
    rho0, _ = gibbs_state(rel, zeta0)
    s0 = entropy(rho0)
    for t in (0.2, 0.6):
        assert abs(entropy(evolve_state(rho0, h, 0.0, t)) - s0) < 1e-10


# ---- hydro parametrization ---------------------------------------------------------


def test_hydro_rest_frame_trivial_at_zero_velocity():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    model = LatticeModel(L=3, dx=1.0)
    exponent, parts = hydro_parametrize([1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                                        [0.0, 0.0, 0.0], basis, model)
    for x in range(3):
        assert (parts["e_o"][x] - parts["e"][x]).max_abs() == 0.0
        assert (parts["p_o"][x] - parts["p"][x]).max_abs() == 0.0
    h = build_hamiltonian(basis, model)
    assert (exponent - h).max_abs() < 1e-12


def test_hydro_galilean_relations_hold_exactly():
    basis = build_basis(BOSE, L=4, g=1, n_max=2)
    v, rv = pair_preset("contact", v0=0.4)
    model = LatticeModel(L=4, dx=0.8, V=v, range_V=rv)
    rng = np.random.default_rng(2)
    vel = rng.uniform(-0.7, 0.7, size=4)
    _, parts = hydro_parametrize(np.ones(4), np.zeros(4), vel, basis, model)
    for x in range(4):
        e_back = (parts["e_o"][x] + vel[x] * parts["p_o"][x]
                  + 0.5 * vel[x] ** 2 * parts["rho"][x])
        assert (e_back - parts["e"][x]).max_abs() < 1e-12
        p_back = parts["p_o"][x] + vel[x] * parts["rho"][x]
        assert (p_back - parts["p"][x]).max_abs() < 1e-12


def test_hydro_uniform_equilibrium_commutes_with_hamiltonian():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    v, rv = pair_preset("contact", v0=0.4)
    model = LatticeModel(L=3, dx=1.0, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    exponent, _ = hydro_parametrize([0.7] * 3, [0.3] * 3, [0.0] * 3, basis, model)
    assert commutator(exponent, h).max_abs() < 1e-12


def test_kubo_kernel_once_per_derivative(monkeypatch):
    basis, model, h, rel = interacting_model(L=2)
    engine = neqso._DynamicsEngine(rel, HistorySpec.empty(0.0), h, 1.0, None)
    zeta = np.array([0.2, -0.1, 0.3])
    engine.record(0.0, zeta, np.array([0.01, 0.02, -0.01]))
    want, _ = engine.derivative(0.1, zeta)
    calls = []
    kernel = neqso._kubo_kernel
    for module in (neqso, maxent):
        monkeypatch.setattr(module, "_kubo_kernel", lambda p: calls.append(p) or kernel(p))
    got, _ = engine.derivative(0.1, zeta)
    assert len(calls) == 1
    assert np.array_equal(got, want)
