"""Spectrum, the Kubo sums and the parameter dynamics against the dense
references of oracles.py, on the random models of strategies.py, real and,
from hermitian_models(), complex Hermitian; the operands include field
operators that change the particle number.
"""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import oracles
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
    current_ops,
    density_ops,
    divergence_ops,
    momentum_density_ops,
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
)
from fockbox import neqso, propagate
from fockbox.neqso import (
    HistorySpec,
    HistoryTerm,
    _DynamicsEngine,
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


def assert_close(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


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


def drive(rel, T=-0.4, n_quad=5, gamma_T=None, terms=None):
    """A preparation record on [T, 0]: gamma_T, 0.1 on each member unless
    given, and terms, unless given one cos(2t) drive of 0.3 A_0."""
    return HistorySpec(
        T=T, t0=0.0, n_quad=n_quad,
        gamma_T=np.full(len(rel), 0.1) if gamma_T is None else np.asarray(gamma_T),
        terms=terms or (HistoryTerm("drive", (rel.operators[0],), np.array([0.3]),
                                    cosine_test_function(2.0)),))


def two_terms(rel, basis, model, h):
    """A density with H, and a complex momentum density."""
    return (HistoryTerm("drive", (rel.operators[0], h), np.array([0.3, -0.2]),
                        cosine_test_function(2.0)),
            HistoryTerm("flow", (momentum_density_ops(basis, model)[0],),
                        np.array([0.5]), cosine_test_function(0.7)))


# ---- Spectrum ----------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_dress_matches_full_space_eigh(data):
    basis, model, h = data.draw(models())
    t = data.draw(st.floats(-2.0, 2.0))
    spectrum = Spectrum(h)
    blocks = sum((b - a) ** 2 for _, a, b in basis.sectors)
    assert np.count_nonzero(spectrum.dense(spectrum.blocks)) <= blocks
    for op in operands(basis, model, data.draw):
        want = oracles.dress(h.to_dense(), op.to_dense(), t)
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
    v = spectrum.dense(spectrum.blocks, complex)
    rho = (v * p) @ v.conj().T
    assert np.max(np.abs(rho - oracles.gibbs(x))) < 1e-10
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
            v = kept.dense(kept.blocks, complex)
            assert_close((v * kept.w) @ v.conj().T, op.to_dense())
        assert Spectrum(psi + psi.dag()).slices == [slice(0, basis.dim)]
        # an anti-Hermitian part on the vacuum block within the tolerance of the
        # operator's largest entry, which lies in another block
        tiny = FieldOperator(basis, sp.csr_matrix(([1e-9j], ([0], [0])),
                                                  shape=(basis.dim,) * 2))
        Spectrum(1e3 * number_operator(basis) + tiny)
        # non-Hermitian: one that keeps the particle number, and one that does not,
        # reported as the check on the whole d x d matrix reported it
        for op in (h + 0.5j * number_operator(basis), h + 0.3 * psi):
            with pytest.raises(ValueError) as raised:
                Spectrum(op)
            dev = np.max(np.abs(op.to_dense() - op.to_dense().conj().T))
            assert str(raised.value) == f"operator is not Hermitian: ||A - A^dag||_max = {dev:.3e}"


# ---- Kubo sums -----------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_kubo_matrix_matches_pairwise_oracle(data):
    """_correlation of every pair, number-changing field operators among them,
    in the sector-blocked spectrum of the state's exponent."""
    basis, model, h = data.draw(models())
    x = random_state_exponent(basis, model, h, data.draw)
    state = Spectrum(x, sectors=basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    ops = operands(basis, model, data.draw) + [h]
    got = np.array([[_correlation(state, p, c, b)[0] for b in ops] for c in ops])
    dense = [op.to_dense() for op in ops]
    want = oracles.kubo_matrix(dense, dense, oracles.gibbs(x))
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(st.data())
def test_kubo_gram_matches_pairwise_oracle(data):
    basis, model, h = data.draw(models())
    rel = oracles.mass_relevant(basis, model, h)
    rho = oracles.gibbs(random_state_exponent(basis, model, h, data.draw))
    if data.draw(st.booleans()):
        # a state that couples the particle-number sectors
        m = np.random.default_rng(data.draw(st.integers(0, 99))).normal(
            size=(basis.dim, basis.dim))
        rho = 0.5 * rho + 0.5 * (m @ m.T) / np.trace(m @ m.T)
    g = kubo_gram(rel, rho)
    assert np.array_equal(g, g.T)
    dense = [op.to_dense() for op in rel.operators]
    want = oracles.kubo_matrix(dense, dense, rho).real
    assert np.max(np.abs(g - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(st.data())
def test_newton_gram_shares_the_exponent_spectrum(data):
    basis, model, h = data.draw(models())
    rel = oracles.mass_relevant(basis, model, h)
    zeta = data.draw(st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]),
                              min_size=len(rel), max_size=len(rel)))
    state = Spectrum(exponent_matrix(rel, zeta), sectors=basis.sector_slices())
    p, log_z = state.gibbs()
    rho = oracles.gibbs(exponent_matrix(rel, zeta))
    assert np.max(np.abs(_density(state, p) - rho)) < 1e-10
    assert np.array_equal(_density(state, p), gibbs_state(rel, zeta)[0])
    assert log_z == gibbs_state(rel, zeta)[1].zeta0
    g = kubo_gram(rel, gibbs_state(rel, zeta)[0])
    dense = [op.to_dense() for op in rel.operators]
    want = oracles.kubo_matrix(dense, dense, rho).real
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
    assert np.max(np.abs(gauge_projector(rel) - oracles.gauge_projector(rel))) < 1e-9


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


@settings(SETTINGS, max_examples=10)
@given(zeta=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
       tau_cut=st.sampled_from([None, 0.25, 0.6]))
def test_derivative_matches_per_node_oracle(zeta, tau_cut):
    basis, model, h, rel = oracles.contact_model(L=2)
    history = drive(rel, T=-0.5, n_quad=6, gamma_T=[0.2, -0.2, 0.1])
    engine = _DynamicsEngine(rel, history, h, 1.0, tau_cut)
    zeta = np.array(zeta)
    rng = np.random.default_rng(0)
    times = [0.0, 0.1, 0.2]
    zetas = [zeta + 0.1 * rng.normal(size=3) for _ in times]
    records = list(zip(times, zetas, [rng.normal(size=3) for _ in times]))
    for record in records:
        engine.record(*record)
    got, _ = engine.derivative(0.3, zeta)
    want, _ = oracles.derivative(rel, history, h, 0.3, zeta, records, tau_cut)
    assert np.max(np.abs(got - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))


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
    rel = oracles.mass_relevant(basis, model, h)
    if data.draw(st.booleans()):
        site = data.draw(st.integers(0, model.L - 1))
        div = divergence_ops(current_ops(basis, model, MOMENTUM), model)[site]
        rel = relevant_set(rel.labels + ("p",), rel.operators + (
            momentum_density_ops(basis, model)[site],), np.append(rel.weights, 1.0),
            div_currents=rel.div_currents + (div,))
    n = len(rel)
    zeta = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    history = HistorySpec.empty(0.0) if data.draw(st.booleans()) else drive(
        rel, gamma_T=np.linspace(-0.3, 0.3, n), terms=two_terms(rel, basis, model, h))
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
        want, want_cond = oracles.derivative(rel, history, h, t, zeta, records, tau_cut)
        assert_close(got, want)
        assert_close(got_cond, want_cond)


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
        want = oracles.logarithmic_mean(a, b)
        assert np.all(np.abs(got - want) <= bound * want)


@SETTINGS
@given(st.data())
def test_trajectory_matches_per_node_oracle(data):
    step, n_steps = 0.05, 6
    basis, model, h = data.draw(models())
    rel = oracles.mass_relevant(basis, model, h)
    zeta0 = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=len(rel),
                                        max_size=len(rel))))
    if data.draw(st.booleans()):
        history = HistorySpec.empty(0.0)
    else:
        history = drive(rel, n_quad=7, gamma_T=data.draw(
            st.lists(st.floats(-0.3, 0.3), min_size=len(rel), max_size=len(rel))))
    # the run spans 0.3 after a preparation of 0.4: cutoffs shorter than the
    # run, cutting through the preparation record, and longer than both
    tau_cut = data.draw(st.sampled_from([None, 0.12, 0.5, 1.0]))
    traj = zeta_dynamics(rel, zeta0, history, h, 0.0, step * n_steps, step, tau_cut=tau_cut)
    ts, zs, zdots = [0.0], [zeta0], []

    def zdot(t, zeta):
        records = list(zip(ts, zs, zdots))
        return oracles.derivative(rel, history, h, t, zeta, records, tau_cut)[0]

    for i in range(n_steps):  # explicit midpoint on t_i = i step, as zeta_dynamics takes it
        zdots.append(zdot(ts[-1], zs[-1]))
        zs.append(zs[-1] + step * zdot((i + 0.5) * step, zs[-1] + 0.5 * step * zdots[-1]))
        ts.append((i + 1) * step)
    zdots.append(zdot(ts[-1], zs[-1]))
    for got, want in ((traj.zetas, np.array(zs)), (traj.zdots, np.array(zdots))):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    rep = evolve_and_rewrite(rel, zeta0, history, h, ts[-1], traj.interpolator(), n_quad=40)
    want = oracles.rewritten(rel, traj.interpolator(), history, h, ts[-1], 40)
    assert np.max(np.abs(rep.rho_rewritten - want)) <= 1e-12


@SETTINGS
@given(st.data())
def test_history_operand_matches_per_node_oracle_on_every_block(data):
    """The preparation operand at a cutoff before, inside and past the grid, and
    the rewritten state, against the per-node oracles, with the spectrum cut into
    blocks of whole sectors at 1, 4 and the library's ROW_RESTRICT states."""
    basis, model, h = data.draw(hermitian_models())
    rel = oracles.mass_relevant(basis, model, h)
    zeta0 = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=len(rel),
                                        max_size=len(rel))))
    history = drive(rel, n_quad=7, gamma_T=np.linspace(-0.3, 0.3, len(rel)),
                    terms=two_terms(rel, basis, model, h))
    t = data.draw(st.floats(0.05, 0.6))
    row_restrict = data.draw(st.sampled_from([1, 4, propagate.ROW_RESTRICT]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", row_restrict)
        past = _PreparedHistory(rel, history, h, 1.0)
        for cutoff in (-np.inf, -0.25, 0.1):
            want = oracles.memory_operand(rel, history, h, t, [], cutoff)
            assert_close(past.spectrum.from_blocks(past.operand(t, cutoff)), want)

        def zeta_of_t(tp):
            return zeta0 * np.cos(tp) + 0.2 * np.sin(3.0 * tp)

        rep = evolve_and_rewrite(rel, zeta_of_t(0.0), history, h, t, zeta_of_t, n_quad=40)
        assert_close(rep.rho_rewritten, oracles.rewritten(rel, zeta_of_t, history, h, t, 40))


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
    basis, model, h, rel = oracles.contact_model()
    engine = _DynamicsEngine(rel, drive(rel, T=-0.5, n_quad=9), h, 1.0, None)
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
    rel = oracles.mass_relevant(basis, model, h)
    history = drive(rel, n_quad=9, gamma_T=np.linspace(-0.3, 0.3, len(rel)))
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
            nodes = records + [(t, zeta, np.zeros_like(zeta))]
            want = oracles.memory_operand(rel, history, h, t, nodes,
                                          -np.inf if tau_cut is None else t - tau_cut)
            assert_close(engine.past.spectrum.from_blocks(operands[-1]), want)


@pytest.mark.parametrize("tau_cut", [None, 0.05])
def test_engine_memory_does_not_grow_with_the_record(tau_cut):
    """At dim 165 with an empty preparation record, what the engine holds after
    10 and after 160 records, and the traced peak of the derivative that
    follows, differ by under 64 KB: the scalar record grows, and no block array
    does, where 160 phased nodes alone would take 42 MB.  A cutoff makes the
    window drop 5 and 155 nodes in that derivative."""
    basis, model, h, rel = oracles.contact_model(L=8, n_max=3)
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
    """Dressing, propagator, Gibbs state and the map back from the eigenbasis of
    real and complex models; their Kubo sums are those of the sector tests."""
    basis, model, h = data.draw(hermitian_models())
    hd = h.to_dense()
    spectrum = Spectrum(h)
    assert all(np.iscomplexobj(b) == bool(np.any(hd.imag)) for b in spectrum.blocks)
    t = data.draw(st.floats(-2.0, 2.0))
    # number-conserving (a density, a momentum density) and number-changing operands
    for op in operands(basis, model, data.draw) + [momentum_density_ops(basis, model)[0]]:
        got = heisenberg(op, h, 0.0, t).to_dense()
        assert np.max(np.abs(got - oracles.dress(hd, op.to_dense(), t))) < 1e-10
    assert np.max(np.abs(spectrum.unitary(t) - scipy.linalg.expm(-1j * t * hd))) < 1e-10

    x = random_state_exponent(basis, model, h, data.draw)
    state = Spectrum(x, sectors=basis.sector_slices())
    p, log_z = state.gibbs()
    assert np.max(np.abs(_density(state, p) - oracles.gibbs(x))) < 1e-10
    assert abs(log_z - np.log(np.trace(scipy.linalg.expm(x)).real)) < 1e-10

    # one matrix per block of the eigenbasis, back in the occupation basis
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    ms = [rng.normal(size=(sl.stop - sl.start,) * 2) for sl in spectrum.slices]
    v = spectrum.dense(spectrum.blocks, complex)
    want_m = v @ scipy.linalg.block_diag(*ms) @ v.conj().T
    assert np.max(np.abs(spectrum.from_blocks(ms) - want_m)) < 1e-10


def assert_decay_table_matches_oracle(data, horizon=None, n_samples=None):
    """decay_time's Lehmann table, C_jl(s) = <(i/hbar)[H, A_j], A_l(-s)> at every
    sample, made with no Kubo pass, its aggregate and its horizon against the
    dense table, on real and complex models; horizon and n_samples, unless
    given, drawn short enough for a decay horizon to be found."""
    basis, model, h = data.draw(hermitian_models())
    rel = oracles.mass_relevant(basis, model, h)
    zeta = np.array(data.draw(st.one_of(
        st.just([0.0] * len(rel)),
        st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]), min_size=len(rel),
                 max_size=len(rel)))))
    horizon = horizon or data.draw(st.sampled_from([0.5, 1.5, 6.0]))
    n_samples = n_samples or data.draw(st.sampled_from([2, 7, 31]))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neqso, "_kubo", lambda *args, **kw: calls.append(args))
        rep = decay_time(rel, zeta, h, horizon=horizon, n_samples=n_samples)
    assert calls == []
    table, aggregate, tau, no_decay = oracles.decay_table(rel, zeta, h, horizon, n_samples)
    assert_close(rep.table, table)
    assert_close(rep.aggregate, aggregate)
    assert (rep.tau, rep.no_decay) == (tau, no_decay)


@SETTINGS
@given(st.data())
def test_decay_table_matches_dense_oracle(data):
    assert_decay_table_matches_oracle(data, horizon=1.5, n_samples=7)


@SETTINGS
@given(st.data())
def test_decay_table_matches_its_per_sample_pass(data):
    assert_decay_table_matches_oracle(data)


def test_real_blocks_stay_in_their_sectors_and_public_dtypes_hold():
    basis, model, h, rel = oracles.contact_model()
    spectrum = Spectrum(h)
    assert_runs_of_sectors(spectrum, basis)
    assert all(np.isrealobj(b) for b in spectrum.blocks)
    assert hermitian_eig(h)[1].dtype == complex

    zeta = [0.2, -0.1, 0.3, 0.5]
    rho, _ = gibbs_state(rel, zeta)
    state = Spectrum(rho)
    inside = np.zeros((basis.dim,) * 2, dtype=bool)
    for _, sl in basis.sector_slices():
        inside[sl, sl] = True
    for m in (spectrum.unitary(0.7), rho):
        assert np.count_nonzero(m[~inside]) == 0
    # real operands stay real; the imaginary current divergences do not
    for ops, real in ((rel.operators, True), (rel.div_currents, False)):
        blocks = [b for _, _, b in sector_blocks(state, OperatorStack(ops))]
        assert blocks and all(np.isrealobj(b) == real for b in blocks)

    assert rho.dtype == complex
    u = propagator(h, 0.7)
    assert isinstance(u, FieldOperator) and u.matrix.dtype == complex
    assert evolve_state(rho, h, 0.0, 0.7).dtype == complex
    dressed = heisenberg(rel.operators[0], h, 0.0, 0.7)
    assert isinstance(dressed, FieldOperator) and dressed.matrix.dtype == complex
    assert heisenberg(rel.operators[0].to_dense(), h, 0.0, 0.7).dtype == complex
    w, vecs = hermitian_eig(h)
    assert w.dtype == float and vecs.dtype == complex


# ---- sector residency ------------------------------------------------------------


def assert_sector_sums_match_oracles(basis, model, h, ops, x, zeta, hermitian_extra):
    """Blocks, _correlation, kubo_gram of a dense and of a Gibbs state and one
    derivative call against the dense references: ops are transformed in the
    eigenbasis of exp(x), the Gram and the dynamics use the mass cells and H,
    plus the number-changing Hermitian hermitian_extra (with a zero current
    divergence) when given."""
    state = Spectrum(x, sectors=basis.sector_slices())
    p = np.clip(state.gibbs()[0], 1e-14, None)
    dense = [op.to_dense() for op in ops]
    v = state.dense(state.blocks, complex)
    want = np.array([v.conj().T @ a @ v for a in dense])
    seen = np.zeros(want.shape[1:], dtype=bool)
    for rs, cs, block in sector_blocks(state, OperatorStack(ops)):
        assert_close(block, want[:, rs, cs])
        seen[rs, cs] = True
    assert not np.any(want[:, ~seen])
    # every pair through _correlation, which meets C's block at (c, r) on B's (r, c)
    rho = oracles.gibbs(x)
    got = np.array([[_correlation(state, p, c, b) for b in ops] for c in ops])
    assert_close(got[..., 0], oracles.kubo_matrix(dense, dense, rho))
    assert_close(got[:, 0, 1], [np.trace(a @ rho) for a in dense])

    rel = oracles.mass_relevant(basis, model, h)
    if hermitian_extra is not None:
        rel = relevant_set(rel.labels + ("psi+psi^dag",), rel.operators + (hermitian_extra,),
                           div_currents=rel.div_currents + (zero_operator(basis),))
    rel_dense = [op.to_dense() for op in rel.operators]
    assert_close(kubo_gram(rel, rho), oracles.kubo_matrix(rel_dense, rel_dense, rho).real)
    z = zeta[:len(rel)]
    rho_z = oracles.gibbs(oracles.exponent(rel, z))
    assert_close(kubo_gram(rel, gibbs_state(rel, z)[0]),
                 oracles.kubo_matrix(rel_dense, rel_dense, rho_z).real)
    assert_engine_matches_oracle(rel, drive(rel), h, z)


def assert_engine_matches_oracle(rel, history, h, zeta, tau_cut=None):
    """The derivative and its condition number at t = 0.15 after three records."""
    engine = _DynamicsEngine(rel, history, h, 1.0, tau_cut)
    rng = np.random.default_rng(3)
    records = [(0.05 * k, zeta + 0.01 * k, rng.normal(size=len(rel))) for k in range(3)]
    for record in records:
        engine.record(*record)
    got, got_cond = engine.derivative(0.15, zeta)
    want, want_cond = oracles.derivative(rel, history, h, 0.15, zeta, records, tau_cut)
    assert_close(got, want)
    assert np.isclose(got_cond, want_cond, rtol=1e-9)
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
    basis, model, h, _ = oracles.contact_model(L=6, n_max=3)
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
    w = oracles.gibbs(x)
    dense = [op.to_dense() for op in ops]
    want = oracles.kubo_matrix(dense, dense, w)
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
    # both branches of the transform, as in the sector tests above
    row_restrict = data.draw(st.sampled_from([1, 4, propagate.ROW_RESTRICT]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagate, "ROW_RESTRICT", row_restrict)
        assert_kubo_and_cumulant_match_oracle(basis, ops, x)


@pytest.mark.parametrize("complex_h", [False, True])
def test_kubo_and_cumulant_restrict_rows_at_the_library_threshold(complex_h):
    # dim 56: a dense W is one block of 56 states, a blocked one 35 + 21
    basis, model, h, _ = oracles.contact_model(n_max=5)
    if complex_h:
        h = h + 0.4 * momentum_density_ops(basis, model)[1]
    psi = field_operator(basis, model, 1)
    ops = [density_ops(basis, model)[0], psi, psi + psi.dag(),
           momentum_density_ops(basis, model)[2]]
    x = -0.3 * number_operator(basis).to_dense() - 0.2 * h.to_dense()
    for m in (x, oracles.gibbs(x)):
        assert [sl.stop - sl.start for sl in Spectrum(FieldOperator(basis, m)).slices] \
            == [35, 21]
    assert_kubo_and_cumulant_match_oracle(basis, ops, x)


def test_number_changing_member_takes_the_one_block_path():
    # sectors of 1, 3, 6, 10, 15, 21 and 28 states: blocks of 35 and 49
    basis, model, h, base = oracles.contact_model(n_max=6)
    assert [sl.stop - sl.start for sl in Spectrum(h).slices] == [35, 49]
    psi = field_operator(basis, model, 1)
    rel = relevant_set(base.labels + ("psi+psi^dag",), base.operators + (psi + psi.dag(),),
                       div_currents=base.div_currents + (zero_operator(basis),))
    engine = assert_engine_matches_oracle(rel, drive(rel), h, np.linspace(-0.3, 0.3, len(rel)))
    assert engine.past.spectrum.slices == [slice(0, basis.dim)]


def test_engine_holds_less_than_one_full_complex_stack():
    """At dim 165 (blocks of 45 and 120 states) the engine holds its members
    and current divergences per block and real, so all it keeps stays under
    0.6 of the complex (2n, d, d) stack of the members and divergences alone;
    one history term on the coarsest preparation grid."""
    basis, model, h, rel = oracles.contact_model(L=8, n_max=3)
    history = drive(rel, T=-0.5, n_quad=2)
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
    basis, model, h, rel = oracles.contact_model(L=8, n_max=3)

    def history(n_quad):
        return drive(rel, T=-0.5, n_quad=n_quad, terms=(HistoryTerm(
            "drive", rel.operators[:8], np.linspace(-0.3, 0.3, 8), cosine_test_function(2.0)),))

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
    basis, model, h, rel = oracles.contact_model(L=10, n_max=4)
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
    basis, model, h, rel = oracles.contact_model(L=2, v0=0.0)
    engine = _DynamicsEngine(rel, HistorySpec.empty(0.0), h, 1.0, None)
    rng = np.random.default_rng(4)
    records = [(0.01 * k, rng.normal(size=len(rel)), rng.normal(size=len(rel)))
               for k in range(64)]
    spectrum = engine.past.spectrum
    a, divs = ([op.to_dense() for op in ops] for ops in (rel.operators, rel.div_currents))
    for k, (t, zeta, zdot) in enumerate(records):
        engine.record(t, zeta, zdot)
        want = oracles.memory_operand(rel, HistorySpec.empty(0.0), h, 0.0, records[:k + 1])
        assert_close(spectrum.from_blocks(engine.spont.sum), want)
        node = sum(w * (zd * m - z * j) for w, z, zd, m, j in zip(rel.weights, zeta, zdot, a, divs))
        assert_close(spectrum.from_blocks(engine.spont.last), oracles.dress(h.to_dense(), node, t))
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
    rel = oracles.mass_relevant(basis, model, h)
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
    basis, model, h, rel = oracles.contact_model(n_max=6)
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


@SETTINGS
@given(st.data())
def test_traced_derivative_matches_todays_pass(data):
    """The derivative, with a preparation record, spontaneous nodes and a
    cutoff or none, against the per-node oracle.  Every model makes one (n, n)
    Kubo pass and dresses one operand per block (Im O on a real model, O on a
    complex one, whose A_l are dressed from the Gram pass)."""
    basis, model, h = data.draw(hermitian_models())
    rel = oracles.mass_relevant(basis, model, h)
    zeta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.3, -0.7, 1.0]),
                                       min_size=len(rel), max_size=len(rel))))
    tau_cut = data.draw(st.sampled_from([None, 0.1, 0.5]))
    engine = assert_engine_matches_oracle(rel, drive(rel), h, zeta, tau_cut)
    n, sizes, dressed, kubo_ = len(rel), [], [], neqso._kubo
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neqso, "_kubo", lambda p, pairs, size, kappa=None:
                   sizes.append(size) or kubo_(p, pairs, size, kappa))
        mp.setattr(neqso, "_dressed", lambda u, kappa, x:
                   dressed.append(1 if x.ndim == 2 else len(x)) or _dressed(u, kappa, x))
        engine.derivative(0.15, zeta)
    assert sizes == [n]
    assert sum(dressed) == len(engine.past.spectrum.slices)
