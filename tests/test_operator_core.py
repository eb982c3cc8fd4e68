"""The occupation-array operator core against the loops it replaced.

The oracles below are the builders fockbox used before its operators were
assembled from the basis's occupation array: the tuple-loop annihilation
operator, number operators as a^dag a, sums of sparse a_i^dag a_j products
for the one-body terms, the quartic psi^dag psi^dag psi psi products of the
interaction, the per-site loops of the density families, the dense field
products of the vacuum residual and the quanton creator, and the d^2 Python
loop of the channel-support check, the dense loops of the boundary term,
the induced kernels, the two-quanton creator and the event operators, and
the recursive basis enumeration, and the pass over the occupation array
per coefficient that built the ladder stack and the one-body sums before
both were read off one ranking pass.  Models are drawn at random: Bose and
Fermi statistics, one or two components, random potential tables and
random pair tables of up to three ranges; the canonical-form check draws
from the shared hermitian_models().
"""

import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given
from hypothesis import strategies as st
from strategies import SETTINGS, hermitian_models

from fockbox import fock
from fockbox.events import (
    EventSpec,
    SupportViolationError,
    _emission_operator,
    _quanton_kernel,
    build_event_mixture,
    check_channel_support,
)
from fockbox.fock import (
    BOSE,
    FERMI,
    FieldOperator,
    annihilation,
    build_basis,
    creation,
    field_operator,
    identity,
    mode_index,
    number_operator,
    one_body,
    zero_operator,
)
from fockbox.lattice import (
    LatticeModel,
    build_hamiltonian,
    density_ops,
    energy_density_ops,
    momentum_density_ops,
    momentum_op,
    pair_preset,
    potential_preset,
)
from fockbox.subdynamics import (
    OneQuantonState,
    VacuumConditionError,
    _creator_for,
    _require_vacuum,
    embed,
    embed_two_quanton,
    induced_observable,
    region,
    surface_term,
    vacuum_residual,
)

# agreement with the oracles, relative to the largest entry of the oracle
CORE_TOL = 1e-15


# ---- test-only oracles -------------------------------------------------------


def oracle_annihilation(basis, mode):
    """The tuple loop over the basis states, with a dict lookup per target."""
    rows, cols, vals = [], [], []
    for j, occ in enumerate(basis.states):
        n = occ[mode]
        if n == 0:
            continue
        target = occ[:mode] + (n - 1,) + occ[mode + 1:]
        if basis.statistics == FERMI:
            amp = -1.0 if (sum(occ[:mode]) % 2) else 1.0
        else:
            amp = math.sqrt(n)
        rows.append(basis.index[target])
        cols.append(j)
        vals.append(amp)
    return sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim),
                         dtype=complex).tocsr()


def oracle_site_ops(basis, model):
    return [[oracle_annihilation(basis, mode_index(x, s, model.g)) for s in range(model.g)]
            for x in range(model.L)]


def oracle_quadratic(basis, ops, coeff):
    """sum_ij coeff[i, j] a_i^dag a_j as a sum of sparse products."""
    flat = [a for row in ops for a in row]
    acc = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for i, ai in enumerate(flat):
        for j, aj in enumerate(flat):
            if coeff[i, j] != 0.0:
                acc = acc + coeff[i, j] * (ai.getH() @ aj)
    return acc


def oracle_transitions(basis, coeff, create, destroy):
    """(rows, cols, values) of coeff a_create^dag a_destroy, either mode None:
    one pass over the occupation array that ranks every target."""
    occ, cols, amp = basis.occ, np.arange(basis.dim), np.full(basis.dim, coeff)
    per_mode = 1 if basis.statistics == FERMI else basis.n_max
    for mode, step in ((destroy, -1), (create, 1)):
        if mode is None:
            continue
        after = occ[:, mode] + step
        keep = (after >= 0) & (after <= per_mode)
        if step > 0:
            keep &= occ.sum(axis=1) < basis.sectors[-1][0]
        occ, cols, amp, after = occ[keep], cols[keep], amp[keep], after[keep]
        if basis.statistics == FERMI:
            amp = np.where(occ[:, :mode].sum(axis=1) % 2, -amp, amp)
        else:
            amp = amp * np.sqrt(np.maximum(occ[:, mode], after))
        occ = occ.copy()
        occ[:, mode] = after
    return basis.rank(occ), cols, amp


def oracle_ladder_sum(basis, terms, diagonal=0.0):
    """sum of c a_i^dag a_j over the terms (c, i, j) plus a per-state diagonal,
    one oracle_transitions pass per term, as a canonical complex CSR matrix."""
    diagonal = np.broadcast_to(diagonal, basis.dim)
    nz = np.flatnonzero(diagonal)
    parts = [(nz, nz, diagonal[nz])] + [oracle_transitions(basis, *t) for t in terms]
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    m = sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim,) * 2, dtype=complex)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


def oracle_one_body(basis, coeff, diagonal=0.0):
    number = [coeff[i, i] * basis.occ[:, i] for i in np.flatnonzero(np.diagonal(coeff))]
    diag = sum(number, np.zeros(basis.dim)) + diagonal
    return oracle_ladder_sum(basis, [(coeff[i, j], i, j) for i, j in zip(*np.nonzero(coeff))
                                     if i != j], diag)


def oracle_ladder(basis):
    """The per-mode stack: one oracle pass per a_m."""
    m = sp.vstack([oracle_ladder_sum(basis, [(1.0, None, mode)])
                   for mode in range(basis.modes)], format="csr")
    m.sort_indices()
    return m


def oracle_interaction_cell_terms(model, ops):
    """(x, term) per cell: (1/2) sum_y V psi^dag_x psi^dag_y psi_y psi_x, as
    quartic products."""
    v = model.pair_matrix()
    for x in range(model.L):
        terms = [0.5 * v[x, y] * (ops[x][s].getH() @ ops[y][s2].getH()
                                  @ ops[y][s2] @ ops[x][s])
                 for y in range(model.L) if v[x, y] != 0.0
                 for s in range(model.g) for s2 in range(model.g)]
        if terms:
            yield x, sum(terms[1:], terms[0])


def oracle_hamiltonian(basis, model, t=0.0):
    ops = oracle_site_ops(basis, model)
    coeff = np.kron(model.single_particle_matrix(t), np.eye(model.g))
    acc = oracle_quadratic(basis, ops, coeff)
    for _, term in oracle_interaction_cell_terms(model, ops):
        acc = acc + term
    return acc


def oracle_densities(basis, model):
    ops = oracle_site_ops(basis, model)
    return [sum((ops[x][s].getH() @ ops[x][s] for s in range(model.g)),
                sp.csr_matrix((basis.dim, basis.dim), dtype=complex))
            * (model.mass / model.dx) for x in range(model.L)]


def oracle_momentum_densities(basis, model):
    ops = oracle_site_ops(basis, model)
    pref = model.hbar / (4.0 * model.dx**2)
    out = []
    for x in range(model.L):
        acc = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
        for s in range(model.g):
            ax = ops[x][s]
            if x + 1 < model.L:
                an = ops[x + 1][s]
                acc = acc + 1j * pref * (an.getH() @ ax - ax.getH() @ an)
            if x - 1 >= 0:
                ap = ops[x - 1][s]
                acc = acc + 1j * pref * (ax.getH() @ ap - ap.getH() @ ax)
        out.append(acc)
    return out


def oracle_energy_densities(basis, model, t=0.0):
    ops = oracle_site_ops(basis, model)
    c = model.hopping
    u = model.potential_vector(t)
    cells = [sp.csr_matrix((basis.dim, basis.dim), dtype=complex) for _ in range(model.L)]
    for s in range(model.g):
        for x in range(model.L):
            n_x = ops[x][s].getH() @ ops[x][s]
            if x == 0:
                cells[x] = cells[x] + c * n_x
            if x == model.L - 1:
                cells[x] = cells[x] + c * n_x
            if x + 1 < model.L:
                an = ops[x + 1][s]
                bond = c * (n_x + an.getH() @ an - an.getH() @ ops[x][s]
                            - ops[x][s].getH() @ an)
                cells[x] = cells[x] + 0.5 * bond
                cells[x + 1] = cells[x + 1] + 0.5 * bond
            cells[x] = cells[x] + u[x] * n_x
    for x, term in oracle_interaction_cell_terms(model, ops):
        cells[x] = cells[x] + term
    return [m * (1.0 / model.dx) for m in cells]


def oracle_vacuum_residual(rho, basis, model, region_):
    """Dense d^3 field products."""
    flat = [field_operator(basis, model, y, s).to_dense()
            for y in region_.sites for s in range(model.g)]
    strong = max(float(np.linalg.norm(f @ rho)) for f in flat)
    pairwise = max(float(np.linalg.norm(f @ (f2 @ rho))) for f in flat for f2 in flat)
    return strong, pairwise


def oracle_creator(psi, basis, model):
    acc = np.zeros((basis.dim, basis.dim), dtype=complex)
    for iy, y in enumerate(psi.region.sites):
        for s in range(model.g):
            acc += model.dx * psi.amplitudes[iy, s] \
                * field_operator(basis, model, y, s).dag().to_dense()
    return acc


def oracle_channel_support(dense, basis, model, spec, tol=1e-12):
    """The d^2 Python loop; returns the message of the first violation, or None."""
    states = basis.states
    channel_modes = sorted(site * model.g + s for site in spec.channel.sites
                           for s in range(model.g))
    outside_modes = [k for k in range(basis.modes) if k not in channel_modes]
    inner = [tuple(occ[k] for k in channel_modes) for occ in states]
    outer = [tuple(occ[k] for k in outside_modes) for occ in states]
    reference = {}
    for r in range(basis.dim):
        for c in range(basis.dim):
            val = dense[r, c]
            if outer[r] != outer[c]:
                if abs(val) > tol:
                    return ("observable couples occupations outside the channel "
                            f"(states {states[r]} and {states[c]})")
                continue
            key = (inner[r], inner[c])
            if key in reference:
                if abs(val - reference[key]) > tol:
                    return ("observable matrix elements depend on the occupation "
                            f"outside the channel (inner pair {key})")
            else:
                reference[key] = val
    return None


def oracle_surface_term(psi, rho, basis, model):
    """The boundary term as a quadruple loop of dense field products."""
    reg, amps = psi.region, psi.amplitudes
    fields = [[field_operator(basis, model, y, s).to_dense() for s in range(model.g)]
              for y in reg.sites]
    pos = {y: i for i, y in enumerate(reg.sites)}

    def outward_gradient(y, s):
        i = pos[y]
        inner = 0.0
        if len(reg) > 1:
            inner = amps[i + 1, s] if y == reg.sites[0] else amps[i - 1, s]
        return (amps[i, s] - inner) / model.dx

    pref = model.hbar**2 / (2.0 * model.mass)
    acc = np.zeros((basis.dim, basis.dim), dtype=complex)
    for yb in sorted({reg.sites[0], reg.sites[-1]}):
        for s in range(model.g):
            grad, fb = outward_gradient(yb, s), fields[pos[yb]][s]
            for iy in range(len(reg)):
                for s2 in range(model.g):
                    c, f2 = amps[iy, s2], fields[iy][s2]
                    acc += pref * model.dx * grad * np.conj(c) * (fb.conj().T @ rho @ f2)
                    acc -= pref * model.dx * c * np.conj(grad) * (f2.conj().T @ rho @ fb)
    return acc


def oracle_induced(a, rho, basis, model, region_, windows):
    """Kernel Tr(A psi^dag(c) rho psi(r)), its splitting deviation and the window
    kernels, entry by entry."""
    flat = [field_operator(basis, model, y, s).to_dense()
            for y in region_.sites for s in range(model.g)]
    n = len(flat)

    def entries(op):
        return np.array([[np.trace(op @ flat[c].conj().T @ rho @ flat[r])
                          for c in range(n)] for r in range(n)])

    kernel = entries(a)
    split = np.array([[np.trace(0.5 * ((fr @ a - a @ fr) @ fc.conj().T
                                       + fr @ (a @ fc.conj().T - fc.conj().T @ a)) @ rho)
                       for fc in flat] for fr in flat])
    split += np.eye(n) * np.trace(a @ rho) / model.dx
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    pov = {}
    for lo, hi in windows:
        sel = (w >= lo) & (w < hi)
        pov[(lo, hi)] = entries(v[:, sel] @ v[:, sel].conj().T)
    return kernel, float(np.max(np.abs(kernel - split))), pov


def oracle_two_quanton_creator(psi2, basis, model, region_):
    flat = [field_operator(basis, model, y, s).to_dense()
            for y in region_.sites for s in range(model.g)]
    b = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, fi in enumerate(flat):
        for j, fj in enumerate(flat):
            b += model.dx**2 * psi2[i, j] * (fi.conj().T @ fj.conj().T)
    return b


def oracle_emission(spec, basis, model):
    acc = np.zeros((basis.dim, basis.dim), dtype=complex)
    for iy, y in enumerate(spec.channel.sites):
        for s in range(model.g):
            create = field_operator(basis, model, y, s).dag().to_dense()
            for ix, x in enumerate(spec.source.sites):
                destroy = field_operator(basis, model, x, s).to_dense()
                acc += model.dx * spec.kernel[iy, ix] * (create @ destroy)
    return acc


def oracle_quanton_kernel(rho, spec, basis, model):
    ops = [sum(spec.kernel[iy, ix] * field_operator(basis, model, x, s).to_dense()
               for ix, x in enumerate(spec.source.sites))
           for iy in range(len(spec.channel)) for s in range(model.g)]
    kernel = np.array([[np.trace(ai @ rho @ aj.conj().T) for aj in ops] for ai in ops])
    return kernel / (model.dx * np.trace(kernel).real)


def oracle_occupations(modes, total, per_mode):
    """The recursive enumeration: ascending with the last mode most significant."""
    if modes == 1:
        if total <= per_mode:
            yield (total,)
        return
    for last in range(min(total, per_mode) + 1):
        for head in oracle_occupations(modes - 1, total - last, per_mode):
            yield head + (last,)


# ---- random models -------------------------------------------------------------


@st.composite
def table_models(draw):
    """Bose or Fermi, g in {1, 2}, a random U table and a random pair table."""
    statistics = draw(st.sampled_from([BOSE, FERMI]))
    g = draw(st.integers(1, 2))
    L = draw(st.integers(1, 4 if g == 1 else 3))
    n_max = draw(st.integers(1, 3 if statistics == FERMI else 2))
    dx = draw(st.sampled_from([1.0, 0.5, 1.3]))
    u = draw(st.lists(st.floats(-2.0, 2.0), min_size=L, max_size=L))
    pair = draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3))
    v, rv = pair_preset("table", dx=dx, values=pair)
    model = LatticeModel(L=L, dx=dx, g=g, statistics=statistics,
                         mass=draw(st.sampled_from([1.0, 2.0])),
                         U=potential_preset("table", L, values=u), V=v, range_V=rv)
    return build_basis(statistics, L, g=g, n_max=n_max), model


def assert_agrees(got, want):
    got = got.matrix if isinstance(got, FieldOperator) else got
    diff = abs(got - want)
    scale = max(1.0, float(abs(want).max()) if want.nnz else 0.0)
    assert (float(diff.max()) if diff.nnz else 0.0) <= CORE_TOL * scale


def is_canonical(m):
    """Sorted, duplicate-free indices and no explicit zeros, read off the raw arrays."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    increasing = (np.diff(m.indices) > 0) | (np.diff(rows) > 0)
    return (sp.isspmatrix_csr(m) and m.dtype == complex
            and bool(np.all(increasing)) and bool(np.all(m.data != 0)))


# ---- the builders ----------------------------------------------------------------


@SETTINGS
@given(table_models())
def test_operator_core_matches_the_loop_oracles(bm):
    basis, model = bm
    assert np.array_equal(basis.rank(basis.occ), np.arange(basis.dim))
    for mode in range(basis.modes):
        a = oracle_annihilation(basis, mode)
        assert_agrees(annihilation(basis, mode), a)
        assert_agrees(creation(basis, mode), a.getH())
        assert_agrees(number_operator(basis, mode), a.getH() @ a)
    for x in range(model.L):
        for s in range(model.g):
            want = oracle_annihilation(basis, mode_index(x, s, model.g)) \
                * (1.0 / math.sqrt(model.dx))
            assert_agrees(field_operator(basis, model, x, s), want)
    assert_agrees(build_hamiltonian(basis, model), oracle_hamiltonian(basis, model))
    families = [(density_ops, oracle_densities),
                (momentum_density_ops, oracle_momentum_densities),
                (energy_density_ops, oracle_energy_densities)]
    for new, old in families:
        for got, want in zip(new(basis, model), old(basis, model), strict=True):
            assert_agrees(got, want)


@SETTINGS
@given(table_models(), st.data())
def test_one_body_matches_sum_of_ladder_products(bm, data):
    basis, model = bm
    n = basis.modes
    coeff = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -0.3, 0.7j, 2.5]),
                                        min_size=n * n, max_size=n * n))).reshape(n, n)
    ops = [[oracle_annihilation(basis, m)] for m in range(n)]
    assert_agrees(one_body(basis, coeff), oracle_quadratic(basis, ops, coeff))


def same_bits(a, b):
    """Identical canonical arrays, down to the signs of zero parts."""
    return (a.shape == b.shape and a.indices.dtype == b.indices.dtype
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes())


@SETTINGS
@given(st.sampled_from([BOSE, FERMI]), st.integers(1, 4), st.integers(1, 2), st.integers(0, 3),
       st.sampled_from(["real", "complex", "diagonal", "zero"]), st.booleans(),
       st.integers(0, 2**16))
# Bose hops between two occupied modes, where the order of the amplitude products shows,
# and Fermi hops of coefficients with a zero part, where a sign flip shows in its sign
@example(BOSE, 3, 1, 3, "real", False, 2)
@example(FERMI, 3, 1, 3, "complex", False, 2)
def test_ladder_stack_and_one_body_match_the_per_coefficient_passes(statistics, L, g, n_max,
                                                                    kind, per_state, seed):
    basis = build_basis(statistics, L, g=g, n_max=n_max)
    rng = np.random.default_rng(seed)
    n = basis.modes
    coeff = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
    if kind == "complex":
        coeff = coeff + 1j * rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
    if kind == "diagonal":
        coeff = np.diag(np.diagonal(coeff))
    if kind == "zero":
        coeff = np.zeros((n, n))
    diagonal = rng.normal(size=basis.dim) * (rng.random(basis.dim) < 0.7) if per_state else 0.0
    got = FieldOperator._held(basis, one_body(basis, coeff, diagonal))
    want = FieldOperator._held(basis, oracle_one_body(basis, coeff, diagonal))
    assert got.equal_bits(want) and same_bits(got.matrix, want.matrix)
    stacked = sp.vstack([annihilation(basis, m).matrix for m in range(basis.modes)],
                        format="csr")
    assert same_bits(stacked, oracle_ladder(basis))
    source, amp = basis.ladder
    assert source.shape == amp.shape == (basis.modes, basis.dim)
    assert np.array_equal(amp == 0.0, source == -1) and source.min() >= -1
    assert not (source.flags.writeable or amp.flags.writeable)


def ladder_rows(basis, mode):
    """a_mode as the basis's gather table holds it: amp[mode, r] in row r, column
    source[mode, r]."""
    source, amp = (a[mode] for a in basis.ladder)
    rows = np.flatnonzero(source >= 0)
    return FieldOperator(basis, sp.csr_matrix((amp[rows], (rows, source[rows])),
                                              shape=(basis.dim,) * 2))


def test_held_ladder_operators_die_with_their_basis():
    basis = build_basis(BOSE, L=3, g=2, n_max=2)
    model = LatticeModel(L=3, g=2)
    ops = [annihilation(basis, 0), field_operator(basis, model, 1, 1),
           build_hamiltonian(basis, model)]
    assert ops[0].equal_bits(ladder_rows(basis, 0))
    ref = weakref.ref(basis)
    del basis, ops
    gc.collect()
    assert ref() is None


def test_region_fields_come_from_the_one_held_ladder_stack(monkeypatch):
    basis = build_basis(BOSE, L=4, g=2, n_max=2)
    model = LatticeModel(L=4, g=2)
    assert all(annihilation(basis, m).equal_bits(ladder_rows(basis, m))
               for m in range(basis.modes))
    reg = region([1, 2])
    vac = np.zeros((basis.dim, basis.dim), dtype=complex)
    vac[basis.vacuum_ordinal(), basis.vacuum_ordinal()] = 1.0
    one = basis.basis_vector([1] + [0] * (basis.modes - 1))
    n_op = number_operator(basis, 2)
    spec = EventSpec(lam=0.5, source=region([0, 1]), channel=region([2, 3]),
                     kernel=np.ones((2, 2)))
    # the table is held now; no later build ranks an occupation array again
    calls = []
    rank = fock.FockBasis.rank
    monkeypatch.setattr(fock.FockBasis, "rank",
                        lambda *args: calls.append(args) or rank(*args))
    psi = OneQuantonState(reg, np.ones((2, 2)), model.dx).normalized()
    n = len(reg) * model.g
    psi2 = np.zeros((n, n))
    psi2[0, 1] = psi2[1, 0] = 1.0 / math.sqrt(2.0)
    embed(psi, vac, basis, model, reg)
    embed(np.eye(n) / n, vac, basis, model, reg)
    surface_term(psi, vac, basis, model, reg)
    embed_two_quanton(psi2, vac, basis, model, reg)
    induced_observable(n_op, vac, basis, model, reg, windows=[(0.5, 1.5)])
    _quanton_kernel(np.outer(one, one), spec, basis, model)
    _emission_operator(spec, basis, model)
    build_event_mixture(np.outer(one, one), spec, basis, model)
    assert calls == []


@SETTINGS
@given(hermitian_models())
def test_every_result_stays_canonical(bmh):
    basis, model, h = bmh
    a = annihilation(basis, basis.modes - 1)
    b = field_operator(basis, model, model.L - 1, model.g - 1)
    n = number_operator(basis, 0)
    results = [a, b, creation(basis, 0), n, number_operator(basis), h,
               build_hamiltonian(basis, model), identity(basis), zero_operator(basis),
               a + b, a - a, b - a, a * 0.0, 0.0 * h, h * 2.5, (1j * h), -b, a.dag(),
               a @ b, b.dag() @ b, n @ n - n, h @ h, h @ b - b @ h, h @ h - h @ h,
               momentum_op(basis, model),
               FieldOperator(basis, np.diag([0.0, 1.0] + [0.0] * (basis.dim - 2)))]
    results += density_ops(basis, model) + energy_density_ops(basis, model)
    assert all(is_canonical(op.matrix) for op in results)
    assert (a - a).matrix.nnz == 0 and (a * 0.0).matrix.nnz == 0
    assert (h @ b).equal_bits(FieldOperator(basis, (h.matrix @ b.matrix).toarray()))


# ---- field products in the subdynamics -------------------------------------------


@SETTINGS
@given(table_models(), st.data())
def test_region_field_products_match_dense_oracles(bm, data):
    basis, model = bm
    lo = data.draw(st.integers(0, model.L - 1))
    reg = region(range(lo, data.draw(st.integers(lo, model.L - 1)) + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
    rho = x @ x.conj().T
    res = vacuum_residual(rho, basis, model, reg)
    strong, pairwise = oracle_vacuum_residual(rho, basis, model, reg)
    assert abs(res.strong - strong) <= 1e-14 * max(1.0, strong)
    assert abs(res.pairwise - pairwise) <= 1e-14 * max(1.0, pairwise)
    _require_vacuum(rho, basis, model, reg, 1.5 * strong)
    with pytest.raises(VacuumConditionError) as err:
        _require_vacuum(rho, basis, model, reg, 0.5 * strong)
    assert abs(err.value.residual - strong) <= 1e-14 * max(1.0, strong)
    amps = rng.normal(size=(len(reg), model.g)) + 1j * rng.normal(size=(len(reg), model.g))
    psi = OneQuantonState(reg, amps, model.dx)
    want = oracle_creator(psi, basis, model)
    assert np.max(np.abs(_creator_for(psi, basis, model) - want)) \
        <= 1e-14 * max(1.0, np.max(np.abs(want)))


@SETTINGS
@given(table_models(), st.data())
def test_dense_field_consumers_match_loop_oracles(bm, data):
    basis, model = bm
    lo = data.draw(st.integers(0, model.L - 1))
    reg = region(range(lo, data.draw(st.integers(lo, model.L - 1)) + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    x = rand(basis.dim, basis.dim)
    rho = x @ x.conj().T / np.trace(x @ x.conj().T).real
    psi = OneQuantonState(reg, rand(len(reg), model.g), model.dx)
    acc, norm = surface_term(psi, rho, basis, model, reg)
    assert close(acc, oracle_surface_term(psi, rho, basis, model))
    assert abs(norm - np.linalg.norm(acc)) == 0.0

    a = rand(basis.dim, basis.dim)
    a = a + a.conj().T
    windows = [(-np.inf, 0.0), (0.0, np.inf), (1e9, 2e9)]
    obs = induced_observable(a, rho, basis, model, reg, windows=windows)
    kernel, split_dev, pov = oracle_induced(a, rho, basis, model, reg, windows)
    assert close(obs.kernel, kernel)
    assert close(obs.split_deviation, split_dev)
    assert all(close(obs.pov[w], pov[w]) for w in windows)

    n = len(reg) * model.g
    psi2 = rand(n, n)
    psi2 = psi2 + (1 if model.statistics == BOSE else -1) * psi2.T
    vac = np.zeros((basis.dim, basis.dim), dtype=complex)
    vac[basis.vacuum_ordinal(), basis.vacuum_ordinal()] = 1.0
    b = oracle_two_quanton_creator(psi2, basis, model, reg)
    norm2 = np.trace(0.5 * b @ vac @ b.conj().T).real
    if norm2 > 1e-6:
        got = embed_two_quanton(psi2 / np.sqrt(norm2), vac, basis, model, reg)
        assert close(got, 0.5 * b @ vac @ b.conj().T / norm2)


@SETTINGS
@given(table_models(), st.data())
def test_event_operators_match_loop_oracles(bm, data):
    basis, model = bm
    assume(model.L > 1)
    cut = data.draw(st.integers(1, model.L - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    shape = (model.L - cut, cut)
    spec = EventSpec(lam=0.4, source=region(range(cut)),
                     channel=region(range(cut, model.L)),
                     kernel=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    want = oracle_emission(spec, basis, model)
    assert np.max(np.abs(_emission_operator(spec, basis, model).toarray() - want)) \
        <= 1e-14 * np.max(np.abs(want))
    # a complex rho: with a real one, C and its transpose coincide
    x = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    rho = x @ x.conj().T / np.trace(x @ x.conj().T).real
    want = oracle_quanton_kernel(rho, spec, basis, model)
    assert np.max(np.abs(_quanton_kernel(rho, spec, basis, model) - want)) \
        <= 1e-13 * np.max(np.abs(want))


def test_enumeration_matches_recursive_oracle():
    for statistics in (BOSE, FERMI):
        for modes in range(1, 9):
            for n_max in range(4):
                basis = build_basis(statistics, modes, n_max=n_max)
                per_mode = 1 if statistics == FERMI else n_max
                top = min(n_max, modes) if statistics == FERMI else n_max
                want = [occ for total in range(top + 1)
                        for occ in oracle_occupations(modes, total, per_mode)]
                assert basis.states == tuple(want)
                assert np.array_equal(basis.rank(basis.occ), np.arange(basis.dim))


# ---- channel support ---------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_channel_support_matches_loop_oracle(data):
    statistics = data.draw(st.sampled_from([BOSE, FERMI]))
    g = data.draw(st.integers(1, 2))
    L = data.draw(st.integers(2, 4))
    basis = build_basis(statistics, L, g=g, n_max=2)
    model = LatticeModel(L=L, g=g, statistics=statistics)
    cut = data.draw(st.integers(1, L - 1))
    spec = EventSpec(lam=0.5, source=region(range(cut)), channel=region(range(cut, L)),
                     kernel=np.ones((L - cut, cut)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    channel = [mode_index(x, s, g) for x in range(cut, L) for s in range(g)]
    outside = [m for m in range(basis.modes) if m not in channel]
    # a random one-body channel operator and its channel number products are supported
    coeff = np.zeros((basis.modes,) * 2, dtype=complex)
    coeff[np.ix_(channel, channel)] = rng.normal(size=(len(channel),) * 2)
    b = one_body(basis, coeff)
    b = b + 0.3 * (b @ number_operator(basis, channel[-1]).matrix)
    kind = data.draw(st.sampled_from(["supported", "coupling", "dependent"]))
    if kind == "coupling":
        hop = creation(basis, channel[0]) @ annihilation(basis, outside[-1])
        b = b + 0.2 * hop.matrix
    if kind == "dependent":
        b = b + 0.4 * (number_operator(basis, outside[0]) @ FieldOperator(basis, b)).matrix
    dense = b.toarray()
    want = oracle_channel_support(dense, basis, model, spec)
    if want is None:
        check_channel_support(dense, basis, model, spec)
        assert kind == "supported"
    else:
        with pytest.raises(SupportViolationError) as err:
            check_channel_support(FieldOperator(basis, b), basis, model, spec)
        assert str(err.value) == want
