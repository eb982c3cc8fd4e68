"""Spectrum and the Kubo sums against the slow full-space paths they replaced.

The oracles below are the per-pair Kubo double loop over a full-space
eigendecomposition of the state, Heisenberg dressing by a full-space eigh
of H, scipy's expm, a per-history-node evaluation of the parameter
derivative, and the memory integrals with every history node combined and
dressed afresh on every call.  Models are drawn at random: Bose and Fermi
boxes, free (with the degenerate many-body levels of a symmetric box),
interacting, or a multiple of the total number operator (fully degenerate
in each sector), with real Hamiltonians and, from hermitian_models(), complex
Hermitian ones; the operands include field operators that change the
particle number.  The full (n, d, d) transform and the per-member Kubo pass
over it, which the block-pair paths replaced, are kept as oracles too.
"""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import SETTINGS, hermitian_models, models

from fockbox.fock import (
    BOSE,
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
    MOMENTUM,
    LatticeModel,
    build_hamiltonian,
    current_ops,
    density_ops,
    divergence_ops,
    momentum_density_ops,
    pair_preset,
)
from fockbox.maxent import (
    EIG_FLOOR,
    _correlation,
    _density,
    _dressed,
    _kubo_kernel,
    cumulant_expect,
    entropy,
    expectations,
    exponent_matrix,
    gauge_projector,
    gibbs_state,
    kubo,
    kubo_gram,
    relevant_set,
    state_from_exponent,
)
from fockbox import neqso, propagate
from fockbox.neqso import (
    DECAY_THRESHOLD,
    HistorySpec,
    HistoryTerm,
    _DynamicsEngine,
    _masks,
    _PreparedHistory,
    cosine_test_function,
    decay_time,
    evolve_and_rewrite,
    zeta_dynamics,
)
from fockbox.propagate import (
    OperatorStack,
    Spectrum,
    evolve_state,
    heisenberg,
    hermitian_eig,
    propagator,
    sector_blocks,
)

# ---- test-only oracles -------------------------------------------------------


def gibbs_spectrum(rel, zeta):
    """(spectrum, p, log Z): the exponent of w[zeta] diagonalized by sector, and its weights."""
    spectrum = Spectrum(exponent_matrix(rel, zeta), sectors=rel.basis.sector_slices())
    return (spectrum,) + spectrum.gibbs()


def eigenvectors(spectrum, dtype=complex):
    """The full eigenvector matrix, assembled from the sector blocks."""
    v = np.zeros((len(spectrum.w),) * 2, dtype=dtype)
    for sl, b in zip(spectrum.slices, spectrum.blocks):
        v[sl, sl] = b
    return v


def block_diagonal(spectrum, blocks):
    """The (n, d, d) stack holding one (n, d_k, d_k) block per block of spectrum
    on its diagonal."""
    out = np.zeros((len(blocks[0]),) + (len(spectrum.w),) * 2, dtype=complex)
    for sl, b in zip(spectrum.slices, blocks):
        out[:, sl, sl] = b
    return out


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


def dress_in_eigenbasis(spectrum, m, t):
    """exp(+iHt/hbar) m exp(-iHt/hbar) for m (or a stack) in the eigenbasis of H:
    an elementwise phase mask."""
    phase = np.exp(1j * spectrum.w * t / spectrum.hbar)
    return np.outer(phase, phase.conj()) * m


def oracle_gibbs(x):
    e = scipy.linalg.expm(x)
    return e / np.trace(e).real


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
    assert np.count_nonzero(eigenvectors(spectrum)) <= blocks
    for op in operands(basis, model, data.draw):
        want = oracle_dress(h.to_dense(), op.to_dense(), t)
        got = heisenberg(op, h, 0.0, t).to_dense()
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
    v = eigenvectors(spectrum)
    rho = (v * p) @ v.conj().T
    assert np.max(np.abs(rho - oracle_gibbs(x))) < 1e-10
    assert abs(log_z - np.log(np.trace(scipy.linalg.expm(x)).real)) < 1e-10


def test_non_hermitian_input_rejected():
    basis = build_basis(BOSE, L=2, g=1, n_max=1)
    for op in (annihilation(basis, 0), annihilation(basis, 0).to_dense()):
        with pytest.raises(ValueError, match="not Hermitian"):
            Spectrum(op)


def assert_runs_of_sectors(spectrum, basis):
    """The blocks are runs of whole consecutive sectors, each closed as soon as
    it holds ROW_RESTRICT states: all but the last hold that many, and none
    would without its last sector."""
    starts = [a for _, a, _ in basis.sectors] + [basis.dim]
    assert spectrum.slices[0].start == 0 and spectrum.slices[-1].stop == basis.dim
    for sl, nxt in zip(spectrum.slices, spectrum.slices[1:]):
        assert sl.stop == nxt.start
    for i, sl in enumerate(spectrum.slices):
        assert sl.start in starts and sl.stop in starts
        last = max(a for a in starts if a < sl.stop)
        assert last - sl.start < propagate.ROW_RESTRICT
        if i < len(spectrum.slices) - 1:
            assert sl.stop - sl.start >= propagate.ROW_RESTRICT


@SETTINGS
@given(st.data())
def test_blocks_are_runs_of_whole_sectors(data):
    basis, _, h = data.draw(hermitian_models())
    # the library's threshold and smaller ones, under which these small bases
    # split into several blocks
    row_restrict = data.draw(st.sampled_from([1, 4, propagate.ROW_RESTRICT]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", row_restrict)
        for spectrum in (Spectrum(h), Spectrum(h.to_dense(), sectors=basis.sector_slices())):
            assert_runs_of_sectors(spectrum, basis)
            assert_close(spectrum.dense(spectrum.eigenvalue_blocks(spectrum.w)),
                         h.to_dense())


def oracle_not_hermitian(dense):
    """The message of the Hermiticity check on the whole d x d matrix, which
    Spectrum made before it checked an operator block by block."""
    dev = np.max(np.abs(dense - dense.conj().T))
    return f"operator is not Hermitian: ||A - A^dag||_max = {dev:.3e}"


@SETTINGS
@given(st.data())
def test_operator_blocks_match_the_dense_construction(data):
    """Spectrum of a FieldOperator, which it keeps, against the dense
    construction over the same sectors, at 1, 4 and the library's
    ROW_RESTRICT states a block."""
    basis, model, h = data.draw(hermitian_models())
    psi = field_operator(basis, model, data.draw(st.integers(0, model.L - 1)))
    row_restrict = data.draw(st.sampled_from([1, 4, propagate.ROW_RESTRICT]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", row_restrict)
        # h keeps the particle number; psi + psi^dag changes it: one block
        for op in (h, psi + psi.dag()):
            kept = Spectrum(op)
            dense = Spectrum(op.to_dense(), sectors=basis.sector_slices())
            assert kept.slices == dense.slices
            assert np.array_equal(kept.w, dense.w)
            v = eigenvectors(kept)
            assert_close((v * kept.w) @ v.conj().T, op.to_dense())
        assert Spectrum(psi + psi.dag()).slices == [slice(0, basis.dim)]
        # an anti-Hermitian part on the vacuum block within the tolerance of the
        # operator's largest entry, which lies in another block
        tiny = FieldOperator(basis, sp.csr_matrix(([1e-9j], ([0], [0])),
                                                  shape=(basis.dim,) * 2))
        Spectrum(1e3 * number_operator(basis) + tiny)
        # non-Hermitian: one that keeps the particle number, and one that does not
        for op in (h + 0.5j * number_operator(basis), h + 0.3 * psi):
            with pytest.raises(ValueError) as raised:
                Spectrum(op)
            assert str(raised.value) == oracle_not_hermitian(op.to_dense())


# ---- Kubo sums -----------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_kubo_matrix_matches_pairwise_oracle(data):
    basis, model, h = data.draw(models())
    x = random_state_exponent(basis, model, h, data.draw)
    state = Spectrum(x, sectors=basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    ops = operands(basis, model, data.draw) + [h]
    stack = oracle_eigenbasis_stack(state, ops)
    got = oracle_full_kubo(p, stack, stack)
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
    state, p, log_z = gibbs_spectrum(rel, zeta)
    rho = oracle_gibbs(exponent_matrix(rel, zeta))
    assert np.max(np.abs(_density(state, p) - rho)) < 1e-10
    assert np.array_equal(_density(state, p), gibbs_state(rel, zeta)[0])
    assert log_z == gibbs_state(rel, zeta)[1].zeta0
    g = kubo_gram(rel, gibbs_state(rel, zeta)[0])
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
    acc = np.zeros((len(spectrum.w),) * 2, dtype=complex)
    for tp, wq, combo in zip(nodes, trapezoid(nodes), combos):
        acc += wq * dress_in_eigenbasis(spectrum, combo, -(s - tp))
    return acc


def per_node_prep(rel, history, spectrum, s, cutoff):
    """Preparation branch and terminal term, each node combined on the spot."""
    nodes = history.prep_grid() if history.terms else np.array([])
    nodes = nodes[nodes >= cutoff]
    term_combos = [
        np.tensordot(term.coeffs, oracle_eigenbasis_stack(spectrum, term.operators), 1)
        for term in history.terms]
    combos = [sum(term.h(tp) * c for term, c in zip(history.terms, term_combos))
              for tp in nodes]
    acc = per_node_integral(spectrum, s, nodes, combos)
    if history.gamma_T is not None and history.T >= cutoff:
        gamma = np.tensordot(history.gamma_T * rel.weights,
                             oracle_eigenbasis_stack(spectrum, rel.operators), 1)
        acc -= dress_in_eigenbasis(spectrum, gamma, -(s - history.T))
    return acc


def spont_combo(rel, ad_eig, zeta, zdot):
    w = rel.weights
    return np.tensordot(np.concatenate([w * zdot, -w * zeta]), ad_eig, 1)


def commutators(rel, h):
    """(i/hbar)[H, A_j] for every member, hbar = 1."""
    return [1j * (h @ a - a @ h) for a in rel.operators]


def per_node_history(rel, history, spectrum, tau_cut, t, zeta, records):
    """The history operand of the derivative at (t, zeta) in the eigenbasis of
    H that spectrum holds, every node combined and dressed on the spot, and the
    trapezoid weight of the endpoint; records are the (t', zeta, zdot) nodes so far."""
    ad_eig = oracle_eigenbasis_stack(spectrum, rel.operators + rel.div_currents)
    cutoff = -np.inf if tau_cut is None else t - tau_cut
    operand = per_node_prep(rel, history, spectrum, t, cutoff)
    kept = [r for r in records if r[0] >= cutoff]
    nodes = [tp for tp, _, _ in kept] + [t]
    combos = [spont_combo(rel, ad_eig, z, zd) for _, z, zd in kept]
    combos.append(spont_combo(rel, ad_eig, zeta, np.zeros_like(zeta)))
    return operand + per_node_integral(spectrum, t, nodes, combos), trapezoid(nodes)[-1]


def per_node_operand(rel, history, h, tau_cut, t, zeta, records):
    """per_node_history in the state's eigenbasis, and the endpoint's weight."""
    spectrum = Spectrum(h)
    operand, w_end = per_node_history(rel, history, spectrum, tau_cut, t, zeta, records)
    state = Spectrum(exponent_matrix(rel, zeta), sectors=rel.basis.sector_slices())
    to_state = eigenvectors(state).conj().T @ eigenvectors(spectrum)
    return to_state @ operand @ to_state.conj().T, w_end


def per_node_derivative(rel, history, h, tau_cut, t, zeta, records):
    """The derivative with the history passed in and re-dressed on every call."""
    state = Spectrum(exponent_matrix(rel, zeta), sectors=rel.basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    a_st = oracle_eigenbasis_stack(state, rel.operators)
    c_st = oracle_eigenbasis_stack(state, commutators(rel, h))
    gram = oracle_full_kubo(p, a_st, a_st).real
    rhs = (np.diagonal(c_st, axis1=1, axis2=2) @ p).real
    operand, w_end = per_node_operand(rel, history, h, tau_cut, t, zeta, records)
    rhs += oracle_full_kubo(p, c_st, operand[None])[:, 0].real
    kmat = oracle_full_kubo(p, c_st, a_st).real if w_end else 0.0
    mw = (gram + w_end * kmat) * rel.weights[None, :]
    u, *_ = np.linalg.lstsq(mw, -rhs, rcond=1e-13)
    return gauge_projector(rel) @ u


def per_node_condition(rel, zeta):
    """The condition number of the weighted Gram matrix sqrt(w) G sqrt(w) on the
    non-gauge directions, from the full-space Gram matrix restricted to an
    orthonormal basis of the range of the gauge projector."""
    state = Spectrum(exponent_matrix(rel, zeta), sectors=rel.basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    a_st = oracle_eigenbasis_stack(state, rel.operators)
    d = np.sqrt(rel.weights)
    s = oracle_full_kubo(p, a_st, a_st).real * np.outer(d, d)
    evals, evecs = np.linalg.eigh(gauge_projector(rel))
    live = evecs[:, evals > 0.5]
    x = np.linalg.eigvalsh(live.T @ s @ live)
    return x[-1] / x[0]


@settings(SETTINGS, max_examples=20)
@given(st.data())
def test_derivative_matches_per_node_derivative_on_every_block(data):
    """One derivative, zeta-dot and condition number, against the per-node
    oracle: real and complex models, the mass cells and H with or without a
    complex momentum density (the member that makes K = Re i <R_j, A_l>
    nonzero), an empty preparation record or one of a density, H and a
    momentum density, up to four records, a cutoff or none, and the spectrum
    cut into blocks at 1, 4 and the library's ROW_RESTRICT states."""
    basis, model, h = data.draw(hermitian_models())
    rel = mass_relevant(basis, model, h)
    if data.draw(st.booleans()):
        site = data.draw(st.integers(0, model.L - 1))
        div = divergence_ops(current_ops(basis, model, MOMENTUM), model)[site]
        rel = relevant_set(rel.labels + ("p",), rel.operators + (
            momentum_density_ops(basis, model)[site],), np.append(rel.weights, 1.0),
            div_currents=rel.div_currents + (div,))
    n = len(rel)
    zeta = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    history = HistorySpec.empty(0.0) if data.draw(st.booleans()) else HistorySpec(
        T=-0.4, t0=0.0, n_quad=5, gamma_T=np.linspace(-0.3, 0.3, n),
        terms=(HistoryTerm("drive", (rel.operators[0], h), np.array([0.3, -0.2]),
                           cosine_test_function(2.0)),
               HistoryTerm("flow", (momentum_density_ops(basis, model)[0],),
                           np.array([0.5]), cosine_test_function(0.7))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    records = [(0.05 * k, zeta + 0.1 * rng.normal(size=n), rng.normal(size=n))
               for k in range(data.draw(st.integers(0, 4)))]
    t = 0.05 * len(records) + data.draw(st.floats(0.0, 0.05))
    # cutoffs inside the spontaneous record, through the preparation one, past both
    tau_cut = data.draw(st.sampled_from([None, 0.07, 0.3, 1.0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", data.draw(st.sampled_from(
            [1, 4, propagate.ROW_RESTRICT])))
        engine = _DynamicsEngine(rel, history, h, 1.0, tau_cut)
        for record in records:
            engine.record(*record)
        got, got_cond = engine.derivative(t, zeta)
        assert_close(got, per_node_derivative(rel, history, h, tau_cut, t, zeta, records))
        assert_close(got_cond, per_node_condition(rel, zeta))


def logarithmic_mean(a, b):
    """(a - b) / (log a - log b), and a at a = b, as sqrt(ab) sinh(y/2) / (y/2) with
    y = log(a/b) taken by log1p near 1, so it keeps its relative accuracy as a and
    b approach each other."""
    r = a / b
    half = 0.5 * np.where(np.abs(r - 1.0) < 0.5, np.log1p((a - b) / b), np.log(r))
    safe = np.where(half == 0.0, 1.0, half)
    return np.sqrt(a * b) * np.where(half == 0.0, 1.0, np.sinh(safe) / safe)


@SETTINGS
@given(st.data())
def test_kubo_kernel_is_the_logarithmic_mean(data):
    """_kubo_kernel of w with itself and with u, against the logarithmic mean:
    weights over fourteen decades, at EIG_FLOOR, and near copies of each other
    down to a relative gap of 1e-15.  The quotient loses eps (|log a| + |log b|)
    / |log a - log b| of relative accuracy to the rounding of the logarithms, so
    it is bounded by that; below a gap of 1e-7 the expansion is within a few
    eps."""
    weight = st.one_of(st.just(EIG_FLOOR), st.floats(-14.0, 0.0).map(lambda e: 10.0 ** e))
    gap = st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 3e-8, 1e-7, 3e-7, 1e-5, 1e-3, 0.1])

    def weights():
        w = data.draw(st.lists(weight, min_size=1, max_size=6))
        return np.array(w + [x * (1.0 + g) for x, g in zip(
            w, data.draw(st.lists(gap, min_size=len(w), max_size=len(w))))])

    w, u = weights(), weights()
    eps = np.finfo(float).eps
    for got, (a, b) in ((_kubo_kernel(w), np.meshgrid(w, w, indexing="ij")),
                        (_kubo_kernel(w, u), np.meshgrid(w, u, indexing="ij"))):
        d = np.abs(np.log(a) - np.log(b))
        far = 4.0 * eps * (2.0 + (np.abs(np.log(a)) + np.abs(np.log(b))) / np.maximum(d, 1e-7))
        bound = np.where(d < 1e-7, 8.0 * eps, far)
        want = logarithmic_mean(a, b)
        assert np.all(np.abs(got - want) <= bound * want)


def per_node_trajectory(rel, zeta0, history, h, step, n_steps, tau_cut):
    """Explicit midpoint as zeta_dynamics takes it, with the per-node derivative."""
    ts, zs, zdots, t = [0.0], [np.asarray(zeta0, float)], [], 0.0

    def derivative(t, zeta, k):
        return per_node_derivative(rel, history, h, tau_cut, t, zeta,
                                   list(zip(ts[:k], zs[:k], zdots[:k])))

    for i in range(n_steps):
        f1 = derivative(t, zs[-1], i)
        zdots.append(f1)
        zm = zs[-1] + 0.5 * step * f1
        f2 = derivative(t + 0.5 * step, zm, i + 1)
        zs.append(zs[-1] + step * f2)
        t += step
        ts.append(t)
    zdots.append(derivative(t, zs[-1], n_steps))
    return np.array(zs), np.array(zdots)


def per_node_rewritten(rel, zeta_of_t, history, h, t, n_quad):
    """rho_rewritten of evolve_and_rewrite with both history branches per node."""
    spectrum = Spectrum(h)
    ad_eig = oracle_eigenbasis_stack(spectrum, rel.operators + rel.div_currents)
    grid = np.linspace(history.t0, t, n_quad)
    zetas = np.array([zeta_of_t(tp) for tp in grid])
    zdots = np.gradient(zetas, grid, axis=0)
    combos = [spont_combo(rel, ad_eig, z, zd) for z, zd in zip(zetas, zdots)]
    operand = (per_node_prep(rel, history, spectrum, t, -np.inf)
               + per_node_integral(spectrum, t, grid, combos))
    v = eigenvectors(spectrum)
    x = exponent_matrix(rel, zeta_of_t(t)) + v @ operand @ v.conj().T
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


@SETTINGS
@given(st.data())
def test_history_operand_matches_per_node_oracle_on_every_block(data):
    """The preparation operand at a cutoff before, inside and past the grid, and
    the rewritten state, against the per-node oracles, with the spectrum cut into
    blocks of whole sectors at 1, 4 and the library's ROW_RESTRICT states."""
    basis, model, h = data.draw(hermitian_models())
    rel = mass_relevant(basis, model, h)
    zeta0 = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=len(rel),
                                        max_size=len(rel))))
    # a density with H, and a complex momentum density
    history = HistorySpec(
        T=-0.4, t0=0.0, n_quad=7, gamma_T=np.linspace(-0.3, 0.3, len(rel)),
        terms=(HistoryTerm("drive", (rel.operators[0], h), np.array([0.3, -0.2]),
                           cosine_test_function(2.0)),
               HistoryTerm("flow", (momentum_density_ops(basis, model)[0],),
                           np.array([0.5]), cosine_test_function(0.7))))
    t = data.draw(st.floats(0.05, 0.6))
    row_restrict = data.draw(st.sampled_from([1, 4, propagate.ROW_RESTRICT]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", row_restrict)
        past = _PreparedHistory(rel, history, h, 1.0)
        for cutoff in (-np.inf, -0.25, 0.1):
            want = per_node_prep(rel, history, past.spectrum, t, cutoff)
            assert_close(scipy.linalg.block_diag(*past.operand(t, cutoff)), want)

        def zeta_of_t(tp):
            return zeta0 * np.cos(tp) + 0.2 * np.sin(3.0 * tp)

        rep = evolve_and_rewrite(rel, zeta_of_t(0.0), history, h, t, zeta_of_t, n_quad=40)
        assert_close(rep.rho_rewritten, per_node_rewritten(rel, zeta_of_t, history, h, t, 40))


def footprint(obj):
    """Bytes of each array an object holds, alone or in a list of arrays, and
    the length of each other list."""
    def size(v):
        if isinstance(v, np.ndarray):
            return v.nbytes
        return [x.nbytes for x in v] if v and isinstance(v[0], np.ndarray) else len(v)
    return {k: size(v) for k, v in vars(obj).items() if isinstance(v, (np.ndarray, list, dict))}


def block_shapes(engine):
    return [(sl.stop - sl.start,) * 2 for sl in engine.past.spectrum.slices]


def test_engine_memory_is_one_running_sum_per_block():
    """After 15 records the engine holds, per block, one sum and one last node of
    the spontaneous history, derivatives whose windows move forward, back and
    past every node leave what it holds as it was, and dropping the engine frees
    its preparation record at once."""
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
    parts = (engine, engine.spont, engine.past, engine.past.record, engine.past.spectrum)
    held = [footprint(x) for x in parts]
    for t, tau_cut in itertools.product([0.7, 0.725, 1.3, 4.0],
                                        [None, 0.1, 0.4, 0.9, 10.0]):
        engine.tau_cut = tau_cut
        engine.derivative(t, zeta)
    for sums in (engine.spont.sum, engine.spont.last, engine.past.record.sum):
        assert [x.shape for x in sums] == block_shapes(engine)
    assert len(engine.spont.times) == n_nodes
    assert [footprint(x) for x in parts] == held
    # reference counts alone free it: no cycle keeps the blocks after a run
    past = weakref.ref(engine.past)
    del parts
    gc.disable()
    try:
        del engine
        assert past() is None
    finally:
        gc.enable()


@settings(SETTINGS, max_examples=10)
@given(st.data())
def test_windowed_memory_matches_per_node_oracle(data):
    """The derivative's history operand, both branches held as running sums,
    against the per-node trapezoid over about 150 records: the window start
    moves forward through the preparation record, then through the spontaneous
    one, then back."""
    basis, model, h = data.draw(models())
    rel = mass_relevant(basis, model, h)
    history = HistorySpec(
        T=-0.4, t0=0.0, n_quad=9, gamma_T=np.linspace(-0.3, 0.3, len(rel)),
        terms=(HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                           cosine_test_function(2.0)),))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_records = data.draw(st.integers(140, 160))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.002, 0.01, n_records - 1))])
    records = [(tp, 0.3 * rng.normal(size=len(rel)), rng.normal(size=len(rel)))
               for tp in times]
    t, zeta = times[-1] + 0.005, 0.3 * rng.normal(size=len(rel))
    cutoffs = [data.draw(st.floats(-0.4, 0.0))] + sorted(
        data.draw(st.lists(st.floats(0.0, float(t)), min_size=2, max_size=4)))
    cutoffs.append(data.draw(st.floats(-0.5, cutoffs[-1])))
    engine = _DynamicsEngine(rel, history, h, 1.0, None)
    for record in records:
        engine.record(*record)
    operands, correlations = [], _DynamicsEngine._correlations
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_DynamicsEngine, "_correlations", lambda self, us, p, kappa, operand:
                   operands.append(operand) or correlations(self, us, p, kappa, operand))
        for tau_cut in [None] + [t - cutoff for cutoff in cutoffs]:
            engine.tau_cut = tau_cut
            engine.derivative(t, zeta)
            want, _ = per_node_history(rel, history, engine.past.spectrum, tau_cut, t,
                                       zeta, records)
            assert_close(scipy.linalg.block_diag(*operands[-1]), want)


@pytest.mark.parametrize("tau_cut", [None, 0.05])
def test_engine_memory_does_not_grow_with_the_record(tau_cut):
    """At dim 165 with an empty preparation record, what the engine holds after
    10 and after 160 records, and the traced peak of the derivative that
    follows, differ by under 64 KB: the scalar record grows, and no block array
    does, where 160 phased nodes alone would take 42 MB.  A cutoff makes the
    window drop 5 and 155 nodes in that derivative."""
    basis = build_basis(BOSE, L=8, g=1, n_max=3)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=8, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    rel = mass_relevant(basis, model, h)
    _ = rel.gauge_projector  # the set's own cached projector is not counted
    rng = np.random.default_rng(5)
    zeta = 0.2 * rng.normal(size=len(rel))
    records = [(0.01 * k, zeta + 0.01 * rng.normal(size=len(rel)), rng.normal(size=len(rel)))
               for k in range(160)]
    warm = _DynamicsEngine(rel, HistorySpec.empty(0.0), h, 1.0, tau_cut)
    warm.record(*records[0])
    warm.derivative(0.01, zeta)  # first-use caches are not counted
    held, peaks = [], []
    for n_records in (10, 160):
        tracemalloc.start()
        try:
            engine = _DynamicsEngine(rel, HistorySpec.empty(0.0), h, 1.0, tau_cut)
            for record in records[:n_records]:
                engine.record(*record)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            engine.derivative(0.01 * n_records, zeta)
            peaks.append(tracemalloc.get_traced_memory()[1] - held[-1])
        finally:
            tracemalloc.stop()
        del engine
    assert abs(held[1] - held[0]) < 64 * 1024
    assert abs(peaks[1] - peaks[0]) < 64 * 1024


# ---- real and complex arithmetic, sector blocks ----------------------------------


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
        got = heisenberg(op, h, 0.0, t).to_dense()
        assert np.max(np.abs(got - oracle_dress(hd, a, t))) < 1e-10
    assert np.max(np.abs(spectrum.unitary(t) - scipy.linalg.expm(-1j * t * hd))) < 1e-10

    x = random_state_exponent(basis, model, h, data.draw)
    state = Spectrum(x, sectors=basis.sector_slices())
    p, log_z = state.gibbs()
    assert np.max(np.abs(_density(state, p) - oracle_gibbs(x))) < 1e-10
    assert abs(log_z - np.log(np.trace(scipy.linalg.expm(x)).real)) < 1e-10
    p = np.clip(p, 1e-14, None)
    want = oracle_kubo_matrix(dense, dense, oracle_gibbs(x))
    # FieldOperators, CSR and dense matrices as the operands of the eigenbasis stack
    for stack in (oracle_eigenbasis_stack(state, ops),
                  oracle_eigenbasis_stack(state, [op.matrix for op in ops]),
                  oracle_eigenbasis_stack(state, dense)):
        got = oracle_full_kubo(p, stack, stack)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    # one matrix per block of the eigenbasis, back in the occupation basis
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    ms = [rng.normal(size=(sl.stop - sl.start,) * 2) for sl in spectrum.slices]
    v = eigenvectors(spectrum)
    want_m = v @ scipy.linalg.block_diag(*ms) @ v.conj().T
    assert np.max(np.abs(spectrum.from_blocks(ms) - want_m)) < 1e-10

    rel = relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                       list(density_ops(basis, model)) + [h])
    rho = oracle_gibbs(x)
    rel_dense = [op.to_dense() for op in rel.operators]
    want = oracle_kubo_matrix(rel_dense, rel_dense, rho).real
    g = kubo_gram(rel, rho)
    assert np.max(np.abs(g - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(st.data())
def test_decay_table_matches_dense_oracle(data):
    """The whole decay_time table, C_jl(s) = <(i/hbar)[H, A_j], A_l(-s)> at every
    sample, against expm-dressed A_l contracted by the pairwise Kubo oracle."""
    basis, model, h = data.draw(hermitian_models())
    rel = mass_relevant(basis, model, h)
    zeta = np.array(data.draw(st.one_of(
        st.just([0.0] * len(rel)),
        st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]), min_size=len(rel),
                 max_size=len(rel)))))
    rep = decay_time(rel, zeta, h, horizon=1.5, n_samples=7)

    hd = h.to_dense()
    dense = [op.to_dense() for op in rel.operators]
    rho = oracle_gibbs(-sum(z * w * a for z, w, a in zip(zeta, rel.weights, dense)))
    cs = [1j * (hd @ a - a @ hd) for a in dense]
    table = []
    for s in rep.times:
        u = scipy.linalg.expm(-1j * s * hd)
        table.append(oracle_kubo_matrix(cs, [u @ a @ u.conj().T for a in dense], rho).real)
    table = np.array(table)
    v = rel.weights * (zeta if np.any(zeta) else 1.0)
    assert_close(rep.table, table)
    assert_close(rep.aggregate, np.linalg.norm(table @ v, axis=1))


def oracle_decay_table(relevant, zeta, H, horizon, n_samples, hbar=1.0):
    """(table, aggregate, tau, no_decay) of decay_time by its per-sample pass: the
    C_j = i R_j moved into the state's eigenvectors once, the phased A_l moved
    there at every sample, and one Kubo pass per sample."""
    past = _PreparedHistory(relevant, HistorySpec.empty(), H, hbar)
    us, p = past.state(relevant, zeta)
    spectrum, w = past.spectrum, past.spectrum.w
    cs = block_diagonal(spectrum, [u.conj().T @ (np.subtract.outer(w[sl], w[sl]) / hbar * a) @ u
                                   for sl, u, a in zip(spectrum.slices, us, past.members)])
    times = np.linspace(0.0, horizon, n_samples)
    table = np.array([(1j * oracle_full_kubo(p, cs, block_diagonal(spectrum, [
        u.conj().T @ (mask * a) @ u for u, mask, a in zip(
            us, _masks(spectrum, -s), past.members)]))).real for s in times])
    zeta = np.asarray(zeta, float)
    v = relevant.weights * (zeta if np.max(np.abs(zeta)) > 0 else 1.0)
    aggregate = np.linalg.norm(table @ v, axis=1)
    scale = max(aggregate[0], float(aggregate.max()))
    tau = 0.0 if scale <= 1e-14 * max(1.0, float(np.max(np.abs(table)))) else None
    for s_star in times[1:] if tau is None else ():
        if 3.0 * s_star > horizon:
            break
        window = (times >= s_star) & (times <= 3.0 * s_star)
        if np.all(aggregate[window] <= DECAY_THRESHOLD * scale):
            tau = float(s_star)
            break
    return table, aggregate, float(horizon) if tau is None else tau, tau is None


@SETTINGS
@given(st.data())
def test_decay_table_matches_its_per_sample_pass(data):
    """decay_time's Lehmann table, with no Kubo pass, against the per-sample
    pass it replaced, over real and complex models and horizons short enough
    for a decay horizon to be found."""
    basis, model, h = data.draw(hermitian_models())
    rel = mass_relevant(basis, model, h)
    zeta = np.array(data.draw(st.one_of(
        st.just([0.0] * len(rel)),
        st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]), min_size=len(rel),
                 max_size=len(rel)))))
    horizon = data.draw(st.sampled_from([0.5, 1.5, 6.0]))
    n_samples = data.draw(st.sampled_from([2, 7, 31]))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neqso, "_kubo", lambda *args, **kw: calls.append(args))
        rep = decay_time(rel, zeta, h, horizon=horizon, n_samples=n_samples)
    assert calls == []
    table, aggregate, tau, no_decay = oracle_decay_table(rel, zeta, h, horizon, n_samples)
    assert_close(rep.table, table)
    assert_close(rep.aggregate, aggregate)
    assert (rep.tau, rep.no_decay) == (tau, no_decay)


def test_real_blocks_stay_in_their_sectors_and_public_dtypes_hold():
    basis = build_basis(BOSE, L=3, g=1, n_max=2)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=3, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    spectrum = Spectrum(h)
    assert_runs_of_sectors(spectrum, basis)
    assert all(np.isrealobj(b) for b in spectrum.blocks)
    assert hermitian_eig(h)[1].dtype == complex

    rel = mass_relevant(basis, model, h)
    zeta = [0.2, -0.1, 0.3, 0.5]
    state, p, _ = gibbs_spectrum(rel, zeta)
    inside = np.zeros((basis.dim,) * 2, dtype=bool)
    for _, sl in basis.sector_slices():
        inside[sl, sl] = True
    for m in (spectrum.unitary(0.7), _density(state, p)):
        assert np.count_nonzero(m[~inside]) == 0
    # real operands stay real; the imaginary current divergences do not
    for ops, real in ((rel.operators, True), (rel.div_currents, False)):
        blocks = [b for _, _, b in sector_blocks(state, OperatorStack(ops))]
        assert blocks and all(np.isrealobj(b) == real for b in blocks)

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


# ---- sector residency: full-stack oracles ------------------------------------------


def oracle_eigenbasis_stack(spectrum, ops):
    """The full (n, d, d) transform: one sparse product with the assembled
    block-diagonal eigenvectors, then v_r^dag on each sector pair present."""
    ops = ops if sp.issparse(ops) else sp.vstack(
        [op.matrix if isinstance(op, FieldOperator) else sp.csr_matrix(op) for op in ops],
        format="csr")
    d, k = len(spectrum.w), len(spectrum.slices)
    out = (ops @ eigenvectors(spectrum, spectrum.blocks[0].dtype)).reshape(-1, d, d)
    rows = np.repeat(np.tile(np.arange(d), len(out)), np.diff(ops.indptr))
    pairs = np.unique(spectrum.sector[rows] * k + spectrum.sector[ops.indices])
    for r, c in (divmod(int(pair), k) for pair in pairs):
        rs, cs = spectrum.slices[r], spectrum.slices[c]
        out[:, rs, cs] = spectrum.blocks[r].T.conj() @ out[:, rs, cs]
    return out


def oracle_full_kubo(p, cs, bs):
    """<C_j, B_l> for (n, d, d) stacks in the state's eigenbasis with weights p:
    one pass over the full stack bs per member of cs."""
    kappa = oracle_kernel(p)
    flat_b = bs.reshape(len(bs), -1)
    connected = np.array([flat_b @ (c.T * kappa).ravel() for c in cs])
    means_c = np.diagonal(cs, axis1=1, axis2=2) @ p
    means_b = np.diagonal(bs, axis1=1, axis2=2) @ p
    return connected - np.outer(means_c, means_b)


def oracle_full_gram(relevant, spectrum, p):
    mats = oracle_eigenbasis_stack(spectrum, [op.matrix for op in relevant.operators])
    g = oracle_full_kubo(p, mats, mats).real
    return 0.5 * (g + g.T)


def full_stack_derivative(rel, history, h, t, zeta, records):
    """The parameter derivative with full operand stacks in the state's
    eigenbasis and one full-stack Kubo pass per product, without a cutoff."""
    state, p, _ = gibbs_spectrum(rel, zeta)
    p = np.clip(p, 1e-14, None)
    ops = list(rel.operators) + commutators(rel, h)
    a_st, c_st = np.split(oracle_eigenbasis_stack(state, ops), 2)
    gram = oracle_full_kubo(p, a_st, a_st).real
    rhs = (np.diagonal(c_st, axis1=1, axis2=2) @ p).real
    operand, w_end = per_node_operand(rel, history, h, None, t, zeta, records)
    rhs += oracle_full_kubo(p, c_st, operand[None])[:, 0].real
    kmat = oracle_full_kubo(p, c_st, a_st).real
    mw = (gram + w_end * kmat) * rel.weights[None, :]
    u, *_ = np.linalg.lstsq(mw, -rhs, rcond=1e-13)
    return gauge_projector(rel) @ u


def assert_close(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


def assert_sector_sums_match_oracles(basis, model, h, ops, x, zeta, hermitian_extra):
    """Blocks, _correlation, kubo_gram of a dense and of a Gibbs state and one
    derivative call against the full-stack oracles: ops are transformed in the
    eigenbasis of exp(x), the Gram and the dynamics use the mass cells and H,
    plus the number-changing Hermitian hermitian_extra (with a zero current
    divergence) when given."""
    state = Spectrum(x, sectors=basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    held = OperatorStack(ops)
    want = oracle_eigenbasis_stack(state, ops)
    seen = np.zeros(want.shape[1:], dtype=bool)
    for rs, cs, block in sector_blocks(state, held):
        assert_close(block, want[:, rs, cs])
        seen[rs, cs] = True
    assert not np.any(want[:, ~seen])
    # every pair through _correlation, which meets C's block at (c, r) on B's (r, c)
    got = np.array([[_correlation(state, p, c, b) for b in ops] for c in ops])
    assert_close(got[..., 0], oracle_full_kubo(p, want, want))
    assert_close(got[:, 0, 1], np.diagonal(want, axis1=1, axis2=2) @ p)

    rel = mass_relevant(basis, model, h)
    if hermitian_extra is not None:
        rel = relevant_set(rel.labels + ("psi+psi^dag",), rel.operators + (hermitian_extra,),
                           div_currents=rel.div_currents + (zero_operator(basis),))
    rho = oracle_gibbs(x)
    spectrum = Spectrum(rho, sectors=basis.sector_slices())
    want_g = oracle_full_gram(rel, spectrum, np.clip(spectrum.w, 1e-14, None))
    assert_close(kubo_gram(rel, rho), want_g)
    state, p, _ = gibbs_spectrum(rel, zeta[:len(rel)])
    p = np.clip(p, 1e-14, None)
    assert_close(kubo_gram(rel, gibbs_state(rel, zeta[:len(rel)])[0]),
                 oracle_full_gram(rel, state, p))

    history = HistorySpec(
        T=-0.4, t0=0.0, n_quad=5, gamma_T=np.full(len(rel), 0.1),
        terms=(HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                           cosine_test_function(2.0)),))
    assert_engine_matches_full_stack_oracle(rel, history, h, zeta[:len(rel)])


def assert_engine_matches_full_stack_oracle(rel, history, h, zeta):
    engine = _DynamicsEngine(rel, history, h, 1.0, None)
    rng = np.random.default_rng(3)
    records = [(0.05 * k, zeta + 0.01 * k, rng.normal(size=len(rel))) for k in range(3)]
    for record in records:
        engine.record(*record)
    got, _ = engine.derivative(0.15, zeta)
    assert_close(got, full_stack_derivative(rel, history, h, 0.15, zeta, records))
    return engine


@SETTINGS
@given(st.data())
def test_sector_blocks_and_kubo_sums_match_full_stack_oracles(data):
    basis, model, h = data.draw(hermitian_models())
    site = data.draw(st.integers(0, model.L - 1))
    psi = field_operator(basis, model, site)
    # number-conserving and number-changing operands, real and complex
    ops = operands(basis, model, data.draw) + [h, momentum_density_ops(basis, model)[0]]
    x = random_state_exponent(basis, model, h, data.draw)
    zeta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]),
                                       min_size=model.L + 2, max_size=model.L + 2)))
    extra = data.draw(st.sampled_from([None, psi + psi.dag()]))
    # both branches of the transform on these small blocks: row-restricted
    # from 1 or 4 states a side, batched under the library's threshold
    row_restrict = data.draw(st.sampled_from([1, 4, propagate.ROW_RESTRICT]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", row_restrict)
        assert_sector_sums_match_oracles(basis, model, h, ops, x, zeta, extra)


@pytest.mark.parametrize("complex_h", [False, True])
def test_row_restricted_blocks_match_full_stack_oracles(complex_h):
    # blocks of 1, 6, 21 and 56 states: the largest is row-restricted
    basis = build_basis(BOSE, L=6, g=1, n_max=3)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=6, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    if complex_h:
        h = h + 0.4 * momentum_density_ops(basis, model)[2]
    sizes = [b - a for _, a, b in basis.sectors]
    assert max(sizes) >= propagate.ROW_RESTRICT > sorted(sizes)[-2]
    psi = field_operator(basis, model, 2)
    ops = list(density_ops(basis, model)) + [h, psi, psi + psi.dag()]
    x = -0.3 * number_operator(basis).to_dense() - 0.2 * h.to_dense()
    zeta = np.linspace(-0.3, 0.3, model.L + 2)
    assert_sector_sums_match_oracles(basis, model, h, ops, x, zeta, None)
    assert_sector_sums_match_oracles(basis, model, h, ops, x, zeta, psi + psi.dag())


# ---- kubo and cumulant_expect on Fock-space operands --------------------------


def assert_kubo_and_cumulant_match_oracle(basis, ops, x):
    """kubo and cumulant_expect on every pair of ops in the Gibbs state W of x,
    against Tr(C W) and the pairwise oracle: W and x are passed dense (one
    block) and as FieldOperators (blocked by particle number)."""
    w = oracle_gibbs(x)
    dense = [op.to_dense() for op in ops]
    want = oracle_kubo_matrix(dense, dense, w)
    means = np.array([np.trace(c @ w) for c in dense])
    for state, exponent in ((w, x), (FieldOperator(basis, w), FieldOperator(basis, x))):
        got = np.array([[kubo(c, b, state) for b in ops] for c in ops])
        assert_close(got, want, 1e-10)
        got = np.array([[cumulant_expect(c, exponent, b) for b in ops] for c in ops])
        assert_close(got, (means[:, None] + want).real, 1e-10)


@SETTINGS
@given(st.data())
def test_kubo_and_cumulant_match_pairwise_oracle(data):
    basis, model, h = data.draw(hermitian_models())
    # a density, a field operator, psi + psi^dag and a complex momentum density
    ops = operands(basis, model, data.draw) + [momentum_density_ops(basis, model)[0]]
    x = random_state_exponent(basis, model, h, data.draw)
    # both branches of the transform, as in the full-stack test above
    row_restrict = data.draw(st.sampled_from([1, 4, propagate.ROW_RESTRICT]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", row_restrict)
        assert_kubo_and_cumulant_match_oracle(basis, ops, x)


@pytest.mark.parametrize("complex_h", [False, True])
def test_kubo_and_cumulant_restrict_rows_at_the_library_threshold(complex_h):
    # dim 56: a dense W is one block of 56 states, a blocked one 35 + 21
    basis = build_basis(BOSE, L=3, g=1, n_max=5)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=3, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    if complex_h:
        h = h + 0.4 * momentum_density_ops(basis, model)[1]
    psi = field_operator(basis, model, 1)
    ops = [density_ops(basis, model)[0], psi, psi + psi.dag(),
           momentum_density_ops(basis, model)[2]]
    x = -0.3 * number_operator(basis).to_dense() - 0.2 * h.to_dense()
    for m in (x, oracle_gibbs(x)):
        assert [sl.stop - sl.start for sl in Spectrum(FieldOperator(basis, m)).slices] \
            == [35, 21]
    assert_kubo_and_cumulant_match_oracle(basis, ops, x)


def test_number_changing_member_takes_the_one_block_path():
    # sectors of 1, 3, 6, 10, 15, 21 and 28 states: blocks of 35 and 49
    basis = build_basis(BOSE, L=3, g=1, n_max=6)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=3, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    assert [sl.stop - sl.start for sl in Spectrum(h).slices] == [35, 49]
    psi = field_operator(basis, model, 1)
    base = mass_relevant(basis, model, h)
    rel = relevant_set(base.labels + ("psi+psi^dag",), base.operators + (psi + psi.dag(),),
                       div_currents=base.div_currents + (zero_operator(basis),))
    history = HistorySpec(
        T=-0.4, t0=0.0, n_quad=5, gamma_T=np.full(len(rel), 0.1),
        terms=(HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                           cosine_test_function(2.0)),))
    engine = assert_engine_matches_full_stack_oracle(rel, history, h,
                                                     np.linspace(-0.3, 0.3, len(rel)))
    assert engine.past.spectrum.slices == [slice(0, basis.dim)]


def test_engine_holds_less_than_one_full_complex_stack():
    """At dim 165 (blocks of 45 and 120 states) the engine holds its members
    and current divergences per block and real, so all it keeps stays under
    0.6 of the complex (2n, d, d) stack of the members and divergences alone;
    one history term on the coarsest preparation grid."""
    basis = build_basis(BOSE, L=8, g=1, n_max=3)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=8, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    rel = mass_relevant(basis, model, h)
    history = HistorySpec(
        T=-0.5, t0=0.0, n_quad=2, gamma_T=np.full(len(rel), 0.1),
        terms=(HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                           cosine_test_function(2.0)),))
    _ = rel.gauge_projector  # the set's own cached projector is not counted
    tracemalloc.start()
    try:
        engine = _DynamicsEngine(rel, history, h, 1.0, None)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, d = len(rel), basis.dim
    assert len(engine.past.spectrum.slices) == 2
    assert held < 0.6 * (2 * n * d * d * 16)


def test_preparation_record_holds_the_same_at_every_grid_size():
    """At dim 165 (blocks of 45 and 120 states) the record holds one operator per
    history term on each block, so at n_quad 64 and 2 it holds the same but for
    its table of node values: under 64 KB apart, where 64 nodes dressed one by
    one would take 16.8 MB."""
    basis = build_basis(BOSE, L=8, g=1, n_max=3)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=8, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    rel = mass_relevant(basis, model, h)

    def history(n_quad):
        return HistorySpec(
            T=-0.5, t0=0.0, n_quad=n_quad, gamma_T=np.full(len(rel), 0.1),
            terms=(HistoryTerm("drive", rel.operators[:8], np.linspace(-0.3, 0.3, 8),
                               cosine_test_function(2.0)),))

    _PreparedHistory(rel, history(2), h, 1.0)  # first-use caches are not counted
    held = []
    for n_quad in (64, 2):
        tracemalloc.start()
        try:
            past = _PreparedHistory(rel, history(n_quad), h, 1.0)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(past.nodes) == n_quad and len(past.spectrum.slices) == 2
    assert abs(held[0] - held[1]) < 64 * 1024


def test_kubo_gram_peak_memory_stays_below_one_full_stack():
    basis = build_basis(BOSE, L=10, g=1, n_max=4)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=10, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    rel = relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                       list(density_ops(basis, model)) + [h],
                       [model.dx] * model.L + [1.0])
    rho, _ = gibbs_state(rel, np.linspace(-0.3, 0.3, len(rel)))
    n, d = len(rel), basis.dim
    assert d == 1001
    tracemalloc.start()
    try:
        kubo_gram(rel, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n, d, d) float stack alone is 88 MB
    assert peak < n * d * d * 8


def test_engine_records_into_a_running_trapezoid_sum():
    """Each record adds its interval to one sum per block and becomes the last
    node: after every one of 64 records the sum is the trapezoid over the nodes
    so far, each dressed by its time, and no array of the engine grows."""
    basis = build_basis(BOSE, L=2, g=1, n_max=2)
    model = LatticeModel(L=2)
    h = build_hamiltonian(basis, model)
    rel = mass_relevant(basis, model, h)
    engine = _DynamicsEngine(rel, HistorySpec.empty(0.0), h, 1.0, None)
    rng = np.random.default_rng(4)
    records = [(0.01 * k, rng.normal(size=len(rel)), rng.normal(size=len(rel)))
               for k in range(64)]
    spectrum = engine.past.spectrum
    ad_eig = oracle_eigenbasis_stack(spectrum, rel.operators + rel.div_currents)
    nodes = []
    for k, (t, zeta, zdot) in enumerate(records):
        engine.record(t, zeta, zdot)
        nodes.append(dress_in_eigenbasis(spectrum, spont_combo(rel, ad_eig, zeta, zdot), t))
        want = np.tensordot(trapezoid([r[0] for r in records[:k + 1]]), np.array(nodes), 1)
        for got, last, sl in zip(engine.spont.sum, engine.spont.last, spectrum.slices):
            assert_close(got, want[sl, sl])
            assert_close(last, nodes[-1][sl, sl])
        assert [x.shape for x in engine.spont.sum] == block_shapes(engine)
    assert engine.spont.times == [r[0] for r in records]


# ---- kept Gibbs decompositions and the dynamics rows as traces ----------------------


def counting_decompositions(mp):
    """A list that grows by one per propagate._decompose call from now on."""
    calls, decompose = [], propagate._decompose
    mp.setattr(propagate, "_decompose",
               lambda m, sectors: calls.append(m.shape) or decompose(m, sectors))
    return calls


@SETTINGS
@given(st.data())
def test_gibbs_state_keeps_its_decomposition_for_kubo_gram_and_entropy(data):
    """kubo_gram and entropy of a gibbs_state output read its kept blocks and
    weights, with no _decompose call, and agree with the dense path that a
    plain copy of the state takes."""
    basis, model, h = data.draw(hermitian_models())
    rel = mass_relevant(basis, model, h)
    zeta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]),
                                       min_size=len(rel), max_size=len(rel))))
    rho, _ = gibbs_state(rel, zeta)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_decompositions(mp)
        got_g, got_s = kubo_gram(rel, rho), entropy(rho)
        assert calls == []
        dense = np.array(rho)
        want_g, want_s = kubo_gram(rel, dense), entropy(dense)
        assert len(calls) == 1
    assert_close(got_g, want_g)
    assert abs(got_s - want_s) <= 1e-12 * max(1.0, abs(want_s))


def test_a_gibbs_state_is_read_only_and_derived_arrays_keep_nothing():
    # blocks of 35 and 49 states
    basis = build_basis(BOSE, L=3, g=1, n_max=6)
    v, rv = pair_preset("contact", v0=0.6)
    model = LatticeModel(L=3, V=v, range_V=rv)
    h = build_hamiltonian(basis, model)
    rel = mass_relevant(basis, model, h)
    rho, _ = gibbs_state(rel, np.linspace(-0.3, 0.3, len(rel)))
    row_restrict, (slices, p, blocks) = rho._eig
    assert row_restrict == propagate.ROW_RESTRICT and len(slices) == len(blocks) > 1
    for a in (rho, p) + blocks:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    for derived in (rho.copy(), rho[:2], rho[1:, 1:], rho * 1.0, rho + rho, rho.T,
                    np.asarray(rho)):
        assert getattr(derived, "_eig", None) is None
    # a Spectrum made under another ROW_RESTRICT diagonalizes the state afresh
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_decompositions(mp)
        Spectrum(rho)
        mp.setattr(propagate, "ROW_RESTRICT", 1)
        Spectrum(rho)
        assert calls == [rho.shape]
    # nothing is cached at module level: the blocks are freed with the state
    block = weakref.ref(blocks[0])
    del rho, p, blocks
    gc.collect()
    assert block() is None


def today_pass(engine, us, p, kappa, operand):
    """(G, rhs, K) from the (2n, n + 1) Kubo pass of [A; R]^T against the
    conjugated A_l and operand, the rates R_j = Delta o A_j made for the
    call: the derivative's pass for every model before its rows became traces
    against dressed operands, over the full stacks in the state's eigenbasis."""
    past, n = engine.past, len(engine.relevant)
    w, hbar = past.spectrum.w, past.spectrum.hbar
    cs, bs = [], []
    for sl, u, a, o in zip(past.spectrum.slices, us, past.members, operand):
        r = np.subtract.outer(w[sl], w[sl]) / hbar * a
        block = u.conj().T @ np.concatenate([a, r]) @ u
        cs.append(np.swapaxes(block, 1, 2))
        bs.append(np.concatenate([block[:n], (u.conj().T @ o @ u)[None]]).conj())
    cs = block_diagonal(past.spectrum, cs)
    k = oracle_full_kubo(p, cs, block_diagonal(past.spectrum, bs))
    means = np.diagonal(cs, axis1=1, axis2=2) @ p
    return k[:n, :n].real, (1j * (means[n:] + k[n:, n])).real, (1j * k[n:, :n]).real


@SETTINGS
@given(st.data())
def test_traced_derivative_matches_todays_pass(data):
    """The derivative against the same engine with today's pass, with a
    preparation record, spontaneous nodes and a cutoff or none.  Every model
    makes one (n, n) Kubo pass and dresses one operand per block (Im O on a
    real model, O on a complex one, whose A_l are dressed from the Gram pass)."""
    basis, model, h = data.draw(hermitian_models())
    rel = mass_relevant(basis, model, h)
    zeta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]),
                                       min_size=len(rel), max_size=len(rel))))
    history = HistorySpec(
        T=-0.4, t0=0.0, n_quad=5, gamma_T=np.full(len(rel), 0.1),
        terms=(HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                           cosine_test_function(2.0)),))
    tau_cut = data.draw(st.sampled_from([None, 0.1, 0.5]))
    engine = _DynamicsEngine(rel, history, h, 1.0, tau_cut)
    rng = np.random.default_rng(3)
    for k in range(3):
        engine.record(0.05 * k, zeta + 0.01 * k, rng.normal(size=len(rel)))
    n, sizes, dressed, kubo_ = len(rel), [], [], neqso._kubo
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neqso, "_kubo", lambda p, pairs, size, kappa=None:
                   sizes.append(size) or kubo_(p, pairs, size, kappa))
        mp.setattr(neqso, "_dressed", lambda u, kappa, x:
                   dressed.append(1 if x.ndim == 2 else len(x)) or _dressed(u, kappa, x))
        got, got_cond = engine.derivative(0.15, zeta)
    assert sizes == [n]
    assert sum(dressed) == len(engine.past.spectrum.slices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_DynamicsEngine, "_correlations", today_pass)
        want, want_cond = engine.derivative(0.15, zeta)
    assert_close(got, want)
    assert np.isclose(got_cond, want_cond, rtol=1e-9)
