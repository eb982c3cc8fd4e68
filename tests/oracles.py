"""One dense reference per quantity, and the models the tests share.

Each reference is a loop over dense matrices that calls as little of fockbox
as it can, since the ranking pass, Spectrum, the phase masks, the exponent
and the gauge projector are what the tests hold to it; README.md maps each
quantity to its reference.  hbar is 1 throughout.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import simpson

from fockbox.fock import BOSE, FERMI, build_basis, number_operator, zero_operator
from fockbox.lattice import (
    MASS,
    LatticeModel,
    build_hamiltonian,
    current_ops,
    density_ops,
    divergence_ops,
    pair_preset,
)
from fockbox.maxent import relevant_set
from fockbox.neqso import DECAY_THRESHOLD

# ---- shared models ---------------------------------------------------------------


def contact_model(L=3, n_max=2, v0=0.6):
    """(basis, model, H, rel): the Bose box of L sites and at most n_max
    particles with the contact pair potential v0, and its mass_relevant set."""
    v, rv = pair_preset("contact", v0=v0)
    model = LatticeModel(L=L, V=v, range_V=rv)
    basis = build_basis(BOSE, L=L, g=1, n_max=n_max)
    h = build_hamiltonian(basis, model)
    return basis, model, h, mass_relevant(basis, model, h)


def mass_relevant(basis, model, h):
    """The cell densities and H, weighted dx and 1, with the mass-current
    divergences and a zero one for H."""
    divs = divergence_ops(current_ops(basis, model, MASS), model)
    return relevant_set([f"rho[{x}]" for x in range(model.L)] + ["H"],
                        list(density_ops(basis, model)) + [h], [model.dx] * model.L + [1.0],
                        div_currents=list(divs) + [zero_operator(basis)])


def diagonal_model():
    """(basis, model, H, rel): one site of two components, n0 and n1 as the
    relevant set; everything commutes exactly."""
    model = LatticeModel(L=1, dx=1.0, g=2)
    basis = build_basis(BOSE, L=1, g=2, n_max=2)
    rel = relevant_set(["n0", "n1"], [number_operator(basis, 0), number_operator(basis, 1)],
                       [1.0, 1.0], div_currents=[zero_operator(basis)] * 2)
    return basis, model, build_hamiltonian(basis, model), rel


def one_particle(basis, site, L):
    """The pure state of one particle at site of L."""
    occ = [0] * L
    occ[site] = 1
    v = basis.basis_vector(occ)
    return np.outer(v, v.conj())


# ---- ladder operators ----------------------------------------------------------------


def annihilation(basis, mode):
    """a_mode by the tuple loop over the basis states, a dict lookup per target."""
    rows, cols, vals = [], [], []
    for j, occ in enumerate(basis.states):
        n = occ[mode]
        if n == 0:
            continue
        target = occ[:mode] + (n - 1,) + occ[mode + 1:]
        rows.append(basis.index[target])
        cols.append(j)
        vals.append((-1.0 if sum(occ[:mode]) % 2 else 1.0) if basis.statistics == FERMI
                    else math.sqrt(n))
    return sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim),
                         dtype=complex).tocsr()


def one_body(basis, coeff, diagonal=0.0):
    """sum_ij coeff[i, j] a_i^dag a_j plus a diagonal given per state, as a
    canonical complex CSR matrix: the number terms read off the occupations,
    each hop the sparse product a_i^dag (c a_j), a Fermi one c or -c by the
    sign of a_i^dag a_j, so that every entry rounds as fock.one_body's."""
    number = [coeff[i, i] * basis.occ[:, i] for i in np.flatnonzero(np.diagonal(coeff))]
    diag = sum(number, np.zeros(basis.dim)) + diagonal
    nz = np.flatnonzero(diag)
    parts, down = [(nz, nz, diag[nz])], [annihilation(basis, m) for m in range(basis.modes)]
    for i, j in zip(*np.nonzero(coeff)):
        if i != j:
            c, fermi = coeff[i, j], basis.statistics == FERMI
            hop = (down[i].getH() @ (down[j] if fermi else down[j] * c)).tocoo()
            parts.append((hop.row, hop.col,
                          np.where(hop.data.real > 0, c, -c) if fermi else hop.data))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    m = sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim,) * 2, dtype=complex)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


# ---- states, dressing and the Kubo product -------------------------------------------


def exponent(rel, zeta):
    """-sum_j zeta_j w_j A_j, dense."""
    return -sum(z * w * op.to_dense() for z, w, op in zip(zeta, rel.weights, rel.operators))


def gibbs(x):
    """exp(x) / Tr exp(x) by scipy's expm."""
    e = scipy.linalg.expm(x)
    return e / np.trace(e).real


def dress(h_dense, a, t):
    """exp(+iHt) A exp(-iHt) from a full-space eigh of H."""
    w, v = np.linalg.eigh(h_dense)
    phase = np.exp(1j * w * t)
    return (v * phase) @ (v.conj().T @ a @ v) @ (v * phase).conj().T


def logarithmic_mean(a, b):
    """(a - b) / (log a - log b), and a at a = b, as sqrt(ab) sinh(y/2) / (y/2) with
    y = log(a/b) taken by log1p near 1, so it keeps its relative accuracy as a and
    b approach each other."""
    r = a / b
    half = 0.5 * np.where(np.abs(r - 1.0) < 0.5, np.log1p((a - b) / b), np.log(r))
    safe = np.where(half == 0.0, 1.0, half)
    return np.sqrt(a * b) * np.where(half == 0.0, 1.0, np.sinh(safe) / safe)


def kubo_matrix(cs, bs, rho, eig_floor=1e-14):
    """<C_j, B_l> in rho by the per-pair double loop over a full-space eigh of
    rho, its eigenvalues lifted to eig_floor: sum_ab C_ba B_ab L(w_a, w_b)
    - Tr(C rho) Tr(B rho), L the logarithmic mean."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, eig_floor, None)
    kappa = logarithmic_mean(w[:, None], w[None, :])
    cms, bms = ([v.conj().T @ m @ v for m in ms] for ms in (cs, bs))
    out = np.empty((len(cs), len(bs)), dtype=complex)
    for j, cm in enumerate(cms):
        for l, bm in enumerate(bms):
            out[j, l] = (np.sum(cm.T * bm * kappa)
                         - np.sum(np.diag(cm) * w) * np.sum(np.diag(bm) * w))
    return out


def kubo_integral(c, b, w):
    """<C, B>_W by its defining integral, int_0^1 du Tr(C W^u B W^-u W) - Tr(C W)
    Tr(B W), W^u = expm(u logm W), in Simpson's rule on 1001 nodes."""
    us, log_w = np.linspace(0.0, 1.0, 1001), scipy.linalg.logm(w)
    vals = np.array([np.trace(c @ scipy.linalg.expm(u * log_w) @ b
                              @ scipy.linalg.expm(-u * log_w) @ w) for u in us])
    return (simpson(vals.real, x=us) + 1j * simpson(vals.imag, x=us)
            - np.trace(c @ w) * np.trace(b @ w))


def gauge_projector(rel):
    """The projector onto the eigenvectors of the dense Hilbert-Schmidt Gram
    matrix of the traceless w_j A_j above 1e-10 of its largest eigenvalue (or 1)."""
    eye = np.eye(rel.basis.dim)
    traceless = [w * op.to_dense() - (w * op.trace() / rel.basis.dim) * eye
                 for w, op in zip(rel.weights, rel.operators)]
    gram = np.array([[np.vdot(a, b).real for b in traceless] for a in traceless])
    evals, evecs = np.linalg.eigh(gram)
    keep = evecs[:, evals > 1e-10 * max(evals.max(), 1.0)]
    return keep @ keep.T


# ---- the parameter equation and its memory ---------------------------------------------


def trapezoid(nodes):
    """Trapezoid weights of the nodes: half the span of each node's neighbours."""
    ext = np.concatenate([nodes[:1], nodes, nodes[-1:]]).astype(float)
    return 0.5 * (ext[2:] - ext[:-2])


def memory_operand(rel, history, h, s, nodes, cutoff=-np.inf):
    """The history exponent at s, node by node, each node's operator dressed by
    -(s - t') in the eigenbasis of H: the trapezoid over the [T, t0] grid of
    sum_terms h(t') sum_k coeffs_k O_k, minus sum_l gamma_l w_l A_l at T, and
    the trapezoid over the nodes (t', zeta, zdot) of sum_l w_l (zdot_l A_l -
    zeta_l div J_l); a node before cutoff drops out, gamma_T once T does."""
    a = [op.to_dense() for op in rel.operators]
    combos = [[c * op.to_dense() for c, op in zip(term.coeffs, term.operators)]
              for term in history.terms]
    grid = history.prep_grid() if history.terms else np.array([])
    grid = grid[grid >= cutoff]
    parts = [(tp, wq, sum(term.h(tp) * m for term, ms in zip(history.terms, combos) for m in ms))
             for tp, wq in zip(grid, trapezoid(grid))]
    if history.gamma_T is not None and history.T >= cutoff:
        parts.append((history.T, -1.0, sum(g * w * m for g, w, m in
                                            zip(history.gamma_T, rel.weights, a))))
    nodes = [n for n in nodes if n[0] >= cutoff]
    divs = [op.to_dense() for op in rel.div_currents]
    parts += [(tp, wq, sum(w * (zd * m - z * j) for w, z, zd, m, j in
                           zip(rel.weights, zeta, zdot, a, divs)))
              for (tp, zeta, zdot), wq in zip(nodes, trapezoid([n[0] for n in nodes]))]
    w, v = np.linalg.eigh(h.to_dense())
    acc = np.zeros((len(w),) * 2, dtype=complex)
    for tp, wq, m in parts:
        phase = np.exp(-1j * w * (s - tp))
        acc += wq * np.outer(phase, phase.conj()) * (v.conj().T @ m @ v)
    return v @ acc @ v.conj().T


def derivative(rel, history, h, t, zeta, records, tau_cut=None):
    """(zeta-dot, condition number) at (t, zeta) after the spontaneous records
    (t', zeta, zdot).  With C_j = i[H, A_j], O the memory operand at t closed
    by the endpoint (t, zeta, 0) of trapezoid weight w_end, and every Kubo
    product by kubo_matrix in the expm Gibbs state: -(G + w_end K) diag(w)
    zdot = rhs, G = <A_j, A_l>, K = <C_j, A_l>, rhs = Tr(C_j rho) + <C_j, O>,
    solved by least squares and projected off the gauge; the condition number
    is that of sqrt(w) G sqrt(w) on the non-gauge directions."""
    hd, w, n = h.to_dense(), rel.weights, len(rel)
    a = [op.to_dense() for op in rel.operators]
    rho = gibbs(exponent(rel, zeta))
    cs = [1j * (hd @ m - m @ hd) for m in a]
    cutoff = -np.inf if tau_cut is None else t - tau_cut
    nodes = [r for r in records if r[0] >= cutoff] + [(t, zeta, np.zeros_like(zeta))]
    k = kubo_matrix(a + cs, a + [memory_operand(rel, history, h, t, nodes, cutoff)], rho).real
    gram, kmat = k[:n, :n], k[n:, :n]
    rhs = np.array([np.trace(c @ rho).real for c in cs]) + k[n:, n]
    w_end = trapezoid([r[0] for r in nodes])[-1]
    u, *_ = np.linalg.lstsq((gram + w_end * kmat) * w, -rhs, rcond=1e-13)
    proj = gauge_projector(rel)
    evals, evecs = np.linalg.eigh(proj)
    live = evecs[:, evals > 0.5]
    x = np.linalg.eigvalsh(live.T @ (gram * np.sqrt(np.outer(w, w))) @ live)
    return proj @ u, x[-1] / x[0]


def rewritten(rel, zeta_of_t, history, h, t, n_quad):
    """The rewritten state of evolve_and_rewrite: the expm Gibbs state of the
    exponent at zeta(t) plus the memory operand at t over the grid of n_quad
    nodes on [t0, t], with np.gradient's zeta-dot."""
    grid = np.linspace(history.t0, t, n_quad)
    zetas = np.array([zeta_of_t(tp) for tp in grid])
    nodes = list(zip(grid, zetas, np.gradient(zetas, grid, axis=0)))
    return gibbs(exponent(rel, zeta_of_t(t)) + memory_operand(rel, history, h, t, nodes))


# ---- correlation decay -------------------------------------------------------------


def decay_table(rel, zeta, h, horizon, n_samples):
    """(table, aggregate, tau, no_decay) of decay_time: C_jl(s) = <i[H, A_j],
    A_l(-s)> at each sample, A_l dressed by expm and contracted by kubo_matrix
    in the expm Gibbs state, and the horizon read off the aggregate as
    decay_time states it."""
    hd, zeta = h.to_dense(), np.asarray(zeta, float)
    dense = [op.to_dense() for op in rel.operators]
    rho = gibbs(exponent(rel, zeta))
    cs = [1j * (hd @ a - a @ hd) for a in dense]
    times = np.linspace(0.0, horizon, n_samples)
    table = []
    for s in times:
        u = scipy.linalg.expm(-1j * s * hd)
        table.append(kubo_matrix(cs, [u @ a @ u.conj().T for a in dense], rho).real)
    table = np.array(table)
    aggregate = np.linalg.norm(table @ (rel.weights * (zeta if np.any(zeta) else 1.0)), axis=1)
    scale = max(aggregate[0], aggregate.max())
    tau = 0.0 if scale <= 1e-14 * max(1.0, np.max(np.abs(table))) else None
    for s_star in times[1:] if tau is None else ():
        if 3.0 * s_star > horizon:
            break
        if np.all(aggregate[(times >= s_star) & (times <= 3.0 * s_star)]
                  <= DECAY_THRESHOLD * scale):
            tau = float(s_star)
            break
    return table, aggregate, float(horizon) if tau is None else tau, tau is None
