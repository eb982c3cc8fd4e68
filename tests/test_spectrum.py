"""Spectrum and kubo_matrix against the slow full-space paths they replaced.

The oracles below are the per-pair Kubo double loop over a full-space
eigendecomposition of the state, Heisenberg dressing by a full-space eigh
of H, scipy's expm, a per-history-node evaluation of the parameter
derivative, and the memory integrals with every history node combined and
dressed afresh on every call.  Models are drawn at random: Bose and Fermi
boxes, free (with the degenerate many-body levels of a symmetric box),
interacting, or a multiple of the total number operator (fully degenerate
in each sector), with real Hamiltonians and, from hermitian_models(), complex
Hermitian ones; the operands include field operators that change the
particle number.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fockbox.fock import (
    BOSE,
    FERMI,
    FieldOperator,
    annihilation,
    build_basis,
    field_operator,
    identity,
    number_operator,
    zero_operator,
)
from fockbox.lattice import (
    MASS,
    LatticeModel,
    build_hamiltonian,
    current_ops,
    density_ops,
    divergence_ops,
    momentum_density_ops,
    pair_preset,
    potential_preset,
)
from fockbox.maxent import (
    _density,
    _gibbs,
    _gram,
    eigenbasis_stack,
    expectations,
    exponent_matrix,
    gauge_projector,
    gibbs_state,
    kubo_gram,
    kubo_matrix,
    relevant_set,
    state_from_exponent,
)
from fockbox.neqso import (
    HistorySpec,
    HistoryTerm,
    _DynamicsEngine,
    cosine_test_function,
    evolve_and_rewrite,
    zeta_dynamics,
)
from fockbox.propagate import (
    Spectrum,
    evolve_state,
    heisenberg,
    hermitian_eig,
    propagator,
    stacked,
)

# a fixed seed keeps the suite reproducible; model construction is the slow part
SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


# ---- test-only oracles -------------------------------------------------------


def oracle_kernel(w):
    logw = np.log(w)
    d = logw[:, None] - logw[None, :]
    num = w[:, None] - w[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = num / d
    small = np.abs(d) < 1e-7
    geo = np.sqrt(w[:, None] * w[None, :])
    return np.where(small, geo * (1.0 + d * d / 24.0), kappa)


def oracle_kubo_matrix(cs, bs, rho, eig_floor=1e-14):
    """Per-pair Kubo double loop over a full-space eigh of rho."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, eig_floor, None)
    kappa = oracle_kernel(w)
    out = np.empty((len(cs), len(bs)), dtype=complex)
    for j, c in enumerate(cs):
        cm = v.conj().T @ c @ v
        for l, b in enumerate(bs):
            bm = v.conj().T @ b @ v
            connected = np.sum(cm.T * bm * kappa)
            disconnected = np.sum(np.diag(cm) * w) * np.sum(np.diag(bm) * w)
            out[j, l] = connected - disconnected
    return out


def oracle_dress(h_dense, a, t, hbar=1.0):
    """exp(+iHt/hbar) A exp(-iHt/hbar) from a full-space eigh of H."""
    w, v = np.linalg.eigh(h_dense)
    phase = np.exp(1j * w * t / hbar)
    return (v * phase) @ (v.conj().T @ a @ v) @ (v * phase).conj().T


def oracle_gibbs(x):
    e = scipy.linalg.expm(x)
    return e / np.trace(e).real


# ---- random models -------------------------------------------------------------


@st.composite
def models(draw):
    statistics = draw(st.sampled_from([BOSE, FERMI]))
    L = draw(st.integers(1, 3))
    g = draw(st.integers(1, 2)) if statistics == FERMI else 1
    n_max = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["free", "interacting", "number"]))
    basis = build_basis(statistics, L, g=g, n_max=n_max)
    if kind == "interacting":
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=L, max_size=L))
        v, rv = pair_preset("contact", v0=draw(st.floats(0.0, 1.0)))
        model = LatticeModel(L=L, g=g, statistics=statistics,
                             U=potential_preset("table", L, values=values),
                             V=v, range_V=rv)
    else:
        model = LatticeModel(L=L, g=g, statistics=statistics)
    h = build_hamiltonian(basis, model)
    if kind == "number":
        h = draw(st.sampled_from([0.5, 1.0, 2.0])) * number_operator(basis)
    return basis, model, h


@st.composite
def hermitian_models(draw):
    """models(), half of them made complex Hermitian by a momentum-density or
    bond-current term, which keeps the particle number."""
    basis, model, h = draw(models())
    if draw(st.booleans()):
        assume(model.L > 1)
        site = draw(st.integers(0, model.L - 2))
        term = draw(st.sampled_from([momentum_density_ops(basis, model)[site],
                                     current_ops(basis, model, MASS).bonds[site + 1]]))
        h = h + draw(st.sampled_from([0.4, -0.9])) * term
        assert np.any(h.to_dense().imag)
    return basis, model, h


def operands(basis, model, draw):
    """A number-conserving density, a field operator and a Hermitian field."""
    site = draw(st.integers(0, model.L - 1))
    psi = field_operator(basis, model, site)
    return [density_ops(basis, model)[site], psi, psi + psi.dag()]


def random_state_exponent(basis, model, h, draw):
    """-sum z_j A_j over N, H and one density; all-zero gives a flat spectrum."""
    ops = [number_operator(basis), h, density_ops(basis, model)[0]]
    zeta = draw(st.one_of(st.just([0.0] * 3),
                          st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]),
                                   min_size=3, max_size=3)))
    return sum((-z * op.to_dense() for z, op in zip(zeta, ops)),
               np.zeros((basis.dim, basis.dim), dtype=complex))


# ---- Spectrum ----------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_dress_matches_full_space_eigh(data):
    basis, model, h = data.draw(models())
    t = data.draw(st.floats(-2.0, 2.0))
    spectrum = Spectrum(h)
    blocks = sum((b - a) ** 2 for _, a, b in basis.sectors)
    assert np.count_nonzero(spectrum.v) <= blocks
    for op in operands(basis, model, data.draw):
        want = oracle_dress(h.to_dense(), op.to_dense(), t)
        got = spectrum.dress(op, t)
        assert np.max(np.abs(got - want)) < 1e-10


@SETTINGS
@given(st.data())
def test_unitary_matches_expm(data):
    basis, _, h = data.draw(models())
    t = data.draw(st.floats(-3.0, 3.0))
    want = scipy.linalg.expm(-1j * t * h.to_dense())
    assert np.max(np.abs(Spectrum(h).unitary(t) - want)) < 1e-10
    dense = Spectrum(h.to_dense(), sectors=basis.sector_slices())
    assert np.max(np.abs(dense.unitary(t) - want)) < 1e-10


@SETTINGS
@given(st.data())
def test_gibbs_matches_expm(data):
    basis, model, h = data.draw(models())
    x = random_state_exponent(basis, model, h, data.draw)
    spectrum = Spectrum(x, sectors=basis.sector_slices())
    p, log_z = spectrum.gibbs()
    rho = (spectrum.v * p) @ spectrum.v.conj().T
    assert np.max(np.abs(rho - oracle_gibbs(x))) < 1e-10
    assert abs(log_z - np.log(np.trace(scipy.linalg.expm(x)).real)) < 1e-10


def test_non_hermitian_input_rejected():
    basis = build_basis(BOSE, L=2, g=1, n_max=1)
    for op in (annihilation(basis, 0), annihilation(basis, 0).to_dense()):
        with pytest.raises(ValueError, match="not Hermitian"):
            Spectrum(op)


# ---- kubo_matrix ---------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_kubo_matrix_matches_pairwise_oracle(data):
    basis, model, h = data.draw(models())
    x = random_state_exponent(basis, model, h, data.draw)
    state = Spectrum(x, sectors=basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    ops = operands(basis, model, data.draw) + [h]
    stack = eigenbasis_stack(state, ops)
    got = kubo_matrix(p, stack, stack)
    dense = [op.to_dense() for op in ops]
    want = oracle_kubo_matrix(dense, dense, oracle_gibbs(x))
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(st.data())
def test_kubo_gram_matches_pairwise_oracle(data):
    basis, model, h = data.draw(models())
    rel = relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                       list(density_ops(basis, model)) + [h])
    rho = oracle_gibbs(random_state_exponent(basis, model, h, data.draw))
    if data.draw(st.booleans()):
        # a state that couples the particle-number sectors
        m = np.random.default_rng(data.draw(st.integers(0, 99))).normal(
            size=(basis.dim, basis.dim))
        rho = 0.5 * rho + 0.5 * (m @ m.T) / np.trace(m @ m.T)
    g = kubo_gram(rel, rho)
    assert np.array_equal(g, g.T)
    dense = [op.to_dense() for op in rel.operators]
    want = oracle_kubo_matrix(dense, dense, rho).real
    assert np.max(np.abs(g - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(st.data())
def test_newton_gram_shares_the_exponent_spectrum(data):
    basis, model, h = data.draw(models())
    rel = relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                       list(density_ops(basis, model)) + [h])
    zeta = data.draw(st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]),
                              min_size=len(rel), max_size=len(rel)))
    state, p, log_z = _gibbs(rel, zeta)
    rho = oracle_gibbs(exponent_matrix(rel, zeta))
    assert np.max(np.abs(_density(state, p) - rho)) < 1e-10
    assert np.array_equal(_density(state, p), gibbs_state(rel, zeta)[0])
    assert log_z == gibbs_state(rel, zeta)[1].zeta0
    g = _gram(rel, state, np.clip(p, 1e-14, None))
    dense = [op.to_dense() for op in rel.operators]
    want = oracle_kubo_matrix(dense, dense, rho).real
    assert np.max(np.abs(g - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(st.data())
def test_gauge_projector_matches_dense_gram(data):
    basis, model, h = data.draw(models())
    # the identity is a pure gauge direction; the densities sum to m N
    ops = list(density_ops(basis, model)) + [number_operator(basis), h, identity(basis)]
    weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                 min_size=len(ops), max_size=len(ops)))
    rel = relevant_set([str(j) for j in range(len(ops))], ops, weights)
    eye = np.eye(basis.dim)
    traceless = [w * op.to_dense() - (w * op.trace() / basis.dim) * eye
                 for w, op in zip(weights, ops)]
    gram = np.array([[np.trace(a.conj().T @ b).real for b in traceless]
                     for a in traceless])
    evals, evecs = np.linalg.eigh(gram)
    keep = evecs[:, evals > 1e-10 * max(evals.max(), 1.0)]
    assert np.max(np.abs(gauge_projector(rel) - keep @ keep.T)) < 1e-9


@SETTINGS
@given(st.data())
def test_expectations_match_dense_trace(data):
    basis, model, h = data.draw(models())
    # interior bond currents are imaginary Hermitian matrices
    bonds = current_ops(basis, model, MASS).bonds[1:-1]
    ops = list(density_ops(basis, model)) + list(bonds) + [h]
    rel = relevant_set([str(j) for j in range(len(ops))], ops)
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    m = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
    rho = m @ m.conj().T / np.trace(m @ m.conj().T).real
    want = [np.trace(op.to_dense() @ rho).real for op in ops]
    assert np.max(np.abs(expectations(rel, rho) - want)) < 1e-12


# ---- parameter derivative -------------------------------------------------------


def oracle_derivative(rel, history, h, t, zeta, times, zetas, zdots,
                      tau_cut):
    """The memory integral with one Kubo evaluation per history node."""
    hd = h.to_dense()
    rho = oracle_gibbs(exponent_matrix(rel, zeta))
    a = [op.to_dense() for op in rel.operators]
    dv = [op.to_dense() for op in rel.div_currents]
    cs = [1j * (hd @ m - m @ hd) for m in a]
    w = rel.weights

    def against_c(operand):
        return oracle_kubo_matrix(cs, [operand], rho)[:, 0].real

    def spont(z, zd):
        return sum(w[l] * (zd[l] * a[l] - z[l] * dv[l]) for l in range(len(a)))

    gram = oracle_kubo_matrix(a, a, rho).real
    rhs = np.array([np.trace(c @ rho).real for c in cs])
    cutoff = -np.inf if tau_cut is None else t - tau_cut
    nodes = history.prep_grid()
    nodes = nodes[nodes >= cutoff]
    wq = np.zeros(len(nodes))
    if len(nodes) >= 2:
        wq[:-1] += 0.5 * np.diff(nodes)
        wq[1:] += 0.5 * np.diff(nodes)
    for term in history.terms:
        combo = sum(c * op.to_dense() for c, op in zip(term.coeffs, term.operators))
        for tp, wt in zip(nodes, wq):
            rhs += wt * term.h(tp) * against_c(oracle_dress(hd, combo, -(t - tp)))
    kept = [i for i, tp in enumerate(times) if tp >= cutoff]
    all_nodes = np.array([times[i] for i in kept] + [t])
    wq = np.zeros(len(all_nodes))
    if len(all_nodes) >= 2:
        wq[:-1] += 0.5 * np.diff(all_nodes)
        wq[1:] += 0.5 * np.diff(all_nodes)
    for k, i in enumerate(kept):
        dressed = oracle_dress(hd, spont(zetas[i], zdots[i]), -(t - times[i]))
        rhs += wq[k] * against_c(dressed)
    rhs += wq[-1] * against_c(spont(zeta, np.zeros_like(zeta)))
    if history.T >= cutoff:
        gamma = sum(g * w[l] * a[l] for l, g in enumerate(history.gamma_T))
        rhs -= against_c(oracle_dress(hd, gamma, -(t - history.T)))
    kmat = oracle_kubo_matrix(cs, a, rho).real
    m = (gram + wq[-1] * kmat) * w[None, :]
    u, *_ = np.linalg.lstsq(m, -rhs, rcond=1e-13)
    return gauge_projector(rel) @ u


@settings(SETTINGS, max_examples=10)
@given(zeta=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
       tau_cut=st.sampled_from([None, 0.25, 0.6]))
def test_derivative_matches_per_node_oracle(zeta, tau_cut):
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=2, dx=1.0, V=v, range_V=rv)
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    h = build_hamiltonian(basis, model)
    cells = density_ops(basis, model)
    rel = relevant_set(["rho[0]", "rho[1]", "H"], list(cells) + [h],
                       div_currents=list(divergence_ops(
                           current_ops(basis, model, MASS), model))
                       + [zero_operator(basis)])
    history = HistorySpec(
        T=-0.5, t0=0.0, n_quad=6, gamma_T=np.array([0.2, -0.2, 0.1]),
        terms=(HistoryTerm("drive", (cells[0],), np.array([0.3]),
                           cosine_test_function(2.0)),))
    engine = _DynamicsEngine(rel, history, h, 1.0, tau_cut)
    zeta = np.array(zeta)
    rng = np.random.default_rng(0)
    times = [0.0, 0.1, 0.2]
    zetas = [zeta + 0.1 * rng.normal(size=3) for _ in times]
    zdots = [rng.normal(size=3) for _ in times]
    t = 0.3
    for record in zip(times, zetas, zdots):
        engine.record(*record)
    got, _ = engine.derivative(t, zeta)
    want = oracle_derivative(rel, history, h, t, zeta, times, zetas,
                             zdots, tau_cut)
    assert np.max(np.abs(got - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))


# ---- memory integrals: per-node oracle -------------------------------------------


def trapezoid(nodes):
    nodes = np.asarray(nodes, float)
    w = np.zeros(len(nodes))
    if len(nodes) >= 2:
        w[:-1] += 0.5 * np.diff(nodes)
        w[1:] += 0.5 * np.diff(nodes)
    return w


def per_node_integral(spectrum, s, nodes, combos):
    """Trapezoid over nodes t' of combo(t') dressed by -(s - t'), node by node."""
    acc = np.zeros_like(spectrum.v)
    for tp, wq, combo in zip(nodes, trapezoid(nodes), combos):
        acc += wq * spectrum.dress_eig(combo, -(s - tp))
    return acc


def per_node_prep(rel, history, spectrum, s, cutoff):
    """Preparation branch and terminal term, each node combined on the spot."""
    nodes = history.prep_grid() if history.terms else np.array([])
    nodes = nodes[nodes >= cutoff]
    term_combos = [
        np.tensordot(term.coeffs, eigenbasis_stack(spectrum, term.operators), 1)
        for term in history.terms]
    combos = [sum(term.h(tp) * c for term, c in zip(history.terms, term_combos))
              for tp in nodes]
    acc = per_node_integral(spectrum, s, nodes, combos)
    if history.gamma_T is not None and history.T >= cutoff:
        gamma = np.tensordot(history.gamma_T * rel.weights,
                             eigenbasis_stack(spectrum, rel.operators), 1)
        acc -= spectrum.dress_eig(gamma, -(s - history.T))
    return acc


def spont_combo(rel, ad_eig, zeta, zdot):
    w = rel.weights
    return np.tensordot(np.concatenate([w * zdot, -w * zeta]), ad_eig, 1)


def per_node_derivative(engine, history, t, zeta, times, zetas, zdots):
    """The derivative with the history passed in and re-dressed on every call."""
    rel, spectrum = engine.relevant, engine.spectrum
    state = Spectrum(exponent_matrix(rel, zeta), sectors=rel.basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    a_st = eigenbasis_stack(state, rel.operators)
    c_st = eigenbasis_stack(state, engine.commutators)
    gram = kubo_matrix(p, a_st, a_st).real
    rhs = (np.diagonal(c_st, axis1=1, axis2=2) @ p).real
    cutoff = -np.inf if engine.tau_cut is None else t - engine.tau_cut
    operand = per_node_prep(rel, history, spectrum, t, cutoff)
    kept = [k for k, tp in enumerate(times) if tp >= cutoff]
    nodes = [times[k] for k in kept] + [t]
    combos = [spont_combo(rel, engine.ad_eig, zetas[k], zdots[k]) for k in kept]
    combos.append(spont_combo(rel, engine.ad_eig, zeta, np.zeros_like(zeta)))
    operand += per_node_integral(spectrum, t, nodes, combos)
    w_end = trapezoid(nodes)[-1]
    to_state = state.v.conj().T @ spectrum.v
    operand = to_state @ operand @ to_state.conj().T
    rhs += kubo_matrix(p, c_st, operand[None])[:, 0].real
    kmat = kubo_matrix(p, c_st, a_st).real if w_end else 0.0
    mw = (gram + w_end * kmat) * rel.weights[None, :]
    u, *_ = np.linalg.lstsq(mw, -rhs, rcond=1e-13)
    return engine.proj @ u


def per_node_trajectory(rel, zeta0, history, h, step, n_steps, tau_cut):
    """Explicit midpoint as zeta_dynamics takes it, with the per-node derivative."""
    engine = _DynamicsEngine(rel, history, h, 1.0, tau_cut)
    ts, zs, zdots, t = [0.0], [np.asarray(zeta0, float)], [], 0.0
    for _ in range(n_steps):
        f1 = per_node_derivative(engine, history, t, zs[-1], ts[:-1], zs[:-1], zdots)
        zdots.append(f1)
        zm = zs[-1] + 0.5 * step * f1
        f2 = per_node_derivative(engine, history, t + 0.5 * step, zm, ts, zs, zdots)
        zs.append(zs[-1] + step * f2)
        t += step
        ts.append(t)
    zdots.append(per_node_derivative(engine, history, t, zs[-1], ts[:-1], zs[:-1], zdots))
    return np.array(zs), np.array(zdots)


def per_node_rewritten(rel, zeta_of_t, history, h, t, n_quad):
    """rho_rewritten of evolve_and_rewrite with both history branches per node."""
    spectrum = Spectrum(h)
    ad_eig = eigenbasis_stack(spectrum, rel.operators + rel.div_currents)
    grid = np.linspace(history.t0, t, n_quad)
    zetas = np.array([zeta_of_t(tp) for tp in grid])
    zdots = np.gradient(zetas, grid, axis=0)
    combos = [spont_combo(rel, ad_eig, z, zd) for z, zd in zip(zetas, zdots)]
    operand = (per_node_prep(rel, history, spectrum, t, -np.inf)
               + per_node_integral(spectrum, t, grid, combos))
    x = exponent_matrix(rel, zeta_of_t(t)) + spectrum.from_eigenbasis(operand)
    return state_from_exponent(x, rel.basis.sector_slices())[0]


def mass_relevant(basis, model, h):
    """Per-cell densities and H, with the mass-current divergences."""
    cells = density_ops(basis, model)
    return relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                        list(cells) + [h],
                        div_currents=list(divergence_ops(
                            current_ops(basis, model, MASS), model))
                        + [zero_operator(basis)])


STEP, N_STEPS = 0.05, 6


@SETTINGS
@given(st.data())
def test_trajectory_matches_per_node_oracle(data):
    basis, model, h = data.draw(models())
    rel = mass_relevant(basis, model, h)
    zeta0 = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=len(rel),
                                        max_size=len(rel))))
    if data.draw(st.booleans()):
        history = HistorySpec.empty(0.0)
    else:
        history = HistorySpec(
            T=-0.4, t0=0.0, n_quad=7,
            gamma_T=np.array(data.draw(st.lists(st.floats(-0.3, 0.3), min_size=len(rel),
                                                max_size=len(rel)))),
            terms=(HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                               cosine_test_function(2.0)),))
    # the run spans 0.3 after a preparation of 0.4: cutoffs shorter than the
    # run, cutting through the preparation record, and longer than both
    tau_cut = data.draw(st.sampled_from([None, 0.12, 0.5, 1.0]))
    traj = zeta_dynamics(rel, zeta0, history, h, 0.0, STEP * N_STEPS, STEP,
                         tau_cut=tau_cut)
    zetas, zdots = per_node_trajectory(rel, zeta0, history, h, STEP, N_STEPS, tau_cut)
    for got, want in ((traj.zetas, zetas), (traj.zdots, zdots)):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    t = STEP * N_STEPS
    rep = evolve_and_rewrite(rel, zeta0, history, h, t, traj.interpolator(), n_quad=40)
    want = per_node_rewritten(rel, traj.interpolator(), history, h, t, 40)
    assert np.max(np.abs(rep.rho_rewritten - want)) <= 1e-12


def footprint(obj):
    """Bytes of each array an object holds and the length of each list."""
    return {k: v.nbytes if isinstance(v, np.ndarray) else len(v)
            for k, v in vars(obj).items() if isinstance(v, (np.ndarray, list, dict))}


def test_engine_memory_is_one_node_per_record():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=3, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    rel = mass_relevant(basis, model, h)
    history = HistorySpec(
        T=-0.5, t0=0.0, n_quad=9, gamma_T=np.full(len(rel), 0.1),
        terms=(HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                           cosine_test_function(2.0)),))
    engine = _DynamicsEngine(rel, history, h, 1.0, None)
    rng = np.random.default_rng(1)
    zeta = 0.2 * rng.normal(size=len(rel))
    n_nodes = 15
    for k in range(n_nodes):
        engine.record(0.05 * k, zeta + 0.01 * k, rng.normal(size=len(rel)))
    held = [footprint(x) for x in (engine, engine.past, engine.spectrum)]
    for t, tau_cut in itertools.product([0.7, 0.725, 1.3, 4.0],
                                        [None, 0.1, 0.4, 0.9, 10.0]):
        engine.tau_cut = tau_cut
        engine.derivative(t, zeta)
    assert engine.stack.shape == (n_nodes, basis.dim, basis.dim)
    assert len(engine.times) == n_nodes
    assert [footprint(x) for x in (engine, engine.past, engine.spectrum)] == held


# ---- real and complex arithmetic, sector blocks ----------------------------------


# real arithmetic must never drop an imaginary part on the way
NO_COMPLEX_CASTS = pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")


@NO_COMPLEX_CASTS
@SETTINGS
@given(st.data())
def test_real_and_complex_spectra_match_oracles(data):
    basis, model, h = data.draw(hermitian_models())
    hd = h.to_dense()
    spectrum = Spectrum(h)
    assert all(np.iscomplexobj(b) == bool(np.any(hd.imag)) for b in spectrum.blocks)
    t = data.draw(st.floats(-2.0, 2.0))
    # number-conserving (a density, a momentum density) and number-changing operands
    ops = operands(basis, model, data.draw) + [momentum_density_ops(basis, model)[0]]
    dense = [op.to_dense() for op in ops]
    for op, a in zip(ops, dense):
        assert np.max(np.abs(spectrum.dress(op, t) - oracle_dress(hd, a, t))) < 1e-10
    assert np.max(np.abs(spectrum.unitary(t) - scipy.linalg.expm(-1j * t * hd))) < 1e-10

    x = random_state_exponent(basis, model, h, data.draw)
    state = Spectrum(x, sectors=basis.sector_slices())
    p, log_z = state.gibbs()
    assert np.max(np.abs(_density(state, p) - oracle_gibbs(x))) < 1e-10
    assert abs(log_z - np.log(np.trace(scipy.linalg.expm(x)).real)) < 1e-10
    p = np.clip(p, 1e-14, None)
    want = oracle_kubo_matrix(dense, dense, oracle_gibbs(x))
    for stack in (eigenbasis_stack(state, ops), eigenbasis_stack(state, stacked(ops)),
                  eigenbasis_stack(state, dense)):
        got = kubo_matrix(p, stack, stack)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    # from one eigenbasis to another, sectored alike (through the block
    # overlaps) or not (a spectrum of H as one sector)
    real = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=hd.shape)
    for other, m in itertools.product((spectrum, Spectrum(hd)), (real, None)):
        m = other.to_eigenbasis(ops[1]) if m is None else m
        to_state = state.v.conj().T @ other.v
        want_m = to_state @ m @ to_state.conj().T
        assert np.max(np.abs(state.from_other(other, m) - want_m)) < 1e-10

    rel = relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                       list(density_ops(basis, model)) + [h])
    rho = oracle_gibbs(x)
    rel_dense = [op.to_dense() for op in rel.operators]
    want = oracle_kubo_matrix(rel_dense, rel_dense, rho).real
    g = kubo_gram(rel, rho)
    assert np.max(np.abs(g - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@NO_COMPLEX_CASTS
def test_real_blocks_stay_in_their_sectors_and_public_dtypes_hold():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=3, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    spectrum = Spectrum(h)
    assert len(spectrum.blocks) == len(basis.sectors)
    assert all(np.isrealobj(b) for b in spectrum.blocks)
    assert spectrum.v.dtype == complex

    rel = mass_relevant(basis, model, h)
    zeta = [0.2, -0.1, 0.3, 0.5]
    state, p, _ = _gibbs(rel, zeta)
    inside = np.zeros((basis.dim,) * 2, dtype=bool)
    for _, sl in basis.sector_slices():
        inside[sl, sl] = True
    for m in (spectrum.unitary(0.7), _density(state, p)):
        assert np.count_nonzero(m[~inside]) == 0
    # real operands stay real; the imaginary current divergences do not
    assert np.isrealobj(eigenbasis_stack(state, rel.operators))
    assert np.iscomplexobj(eigenbasis_stack(state, rel.div_currents))

    rho, _ = gibbs_state(rel, zeta)
    assert rho.dtype == complex
    u = propagator(h, 0.7)
    assert isinstance(u, FieldOperator) and u.matrix.dtype == complex
    assert evolve_state(rho, h, 0.0, 0.7).dtype == complex
    dressed = heisenberg(rel.operators[0], h, 0.0, 0.7)
    assert isinstance(dressed, FieldOperator) and dressed.matrix.dtype == complex
    assert heisenberg(rel.operators[0].to_dense(), h, 0.0, 0.7).dtype == complex
    w, vecs = hermitian_eig(h)
    assert w.dtype == float and vecs.dtype == complex
