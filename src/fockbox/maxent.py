"""Maximum-entropy inference over a declared set of relevant observables.

Implements the generalized Gibbs family w[zeta] = exp(-sum_j zeta_j w_j A_j)/Z
(w_j the lattice cell weight standing in for the integration measure), the
von Neumann entropy, the canonical two-point correlation function that both
drives the first-order cumulant expansion and serves as the Newton Jacobian,
and the damped-Newton solver matching Lagrange parameters to target
expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np  # scipy.sparse is imported where used, as in fock

from . import propagate
from .fock import NumericalError
from .propagate import OperatorStack, Spectrum, sector_blocks

MATCH_TOL = 1e-9
MAX_NEWTON_ITERS = 60
EIG_FLOOR = 1e-14
GAUGE_TOL = 1e-10
ZETA_MAX = 20.0


class MatchFailure(RuntimeError):
    """Expectation matching failed; carries residual and null direction."""

    def __init__(self, message, residual=None, null_direction=None):
        self.residual = residual
        self.null_direction = null_direction
        super().__init__(message)


@dataclass(frozen=True)
class RelevantSet:
    """Labeled Hermitian observables defining the macroscopic description.

    weights are the lattice measures multiplying each member inside the
    exponent (dx for per-cell densities, 1 for global observables);
    div_currents optionally aligns the per-member current divergences used
    by the history-carrying dynamics (zero operator for conserved totals).
    """

    labels: tuple
    operators: tuple
    weights: np.ndarray
    div_currents: Optional[tuple] = None

    def __post_init__(self):
        if len(self.labels) != len(self.operators):
            raise ValueError("labels and operators differ in length")
        if len(self.weights) != len(self.operators):
            raise ValueError("weights and operators differ in length")
        for lab, op in zip(self.labels, self.operators):
            if not op.is_hermitian(tol=1e-10):
                raise ValueError(f"relevant observable {lab!r} is not Hermitian")
        if self.div_currents is not None and len(self.div_currents) != len(self.operators):
            raise ValueError("div_currents and operators differ in length")
        # built with the set: made on first use inside the Gibbs and Kubo stages,
        # these long-lived arrays kept freed heap memory resident
        _ = self.columns, self.conj_rows, self.stacked

    def __len__(self):
        return len(self.operators)

    @property
    def basis(self):
        return self.operators[0].basis

    @cached_property
    def stacked(self):
        """The members held as one OperatorStack, whose matrix holds member j
        raveled in row j, real when every entry is, so that a real model's
        exponent is real."""
        return OperatorStack(self.operators)

    @cached_property
    def columns(self):
        """stacked's rows transposed: the members as the columns of a sparse
        (d*d, n) matrix."""
        return self.stacked.matrix.T

    @cached_property
    def conj_rows(self):
        """stacked's rows with conjugated entries, the form expectations reads
        rho with."""
        return self.stacked.matrix.conj()

    @cached_property
    def gauge_projector(self):
        """gauge_projector(self), read-only."""
        proj = gauge_projector(self)
        proj.flags.writeable = False
        return proj


def relevant_set(labels, operators, weights=None, div_currents=None):
    weights = np.ones(len(operators)) if weights is None else np.asarray(weights, float)
    return RelevantSet(labels=tuple(labels), operators=tuple(operators),
                       weights=weights,
                       div_currents=None if div_currents is None else tuple(div_currents))


@dataclass(frozen=True)
class ZetaField:
    """Lagrange parameters aligned with a RelevantSet, plus log Z."""

    labels: tuple
    values: np.ndarray
    zeta0: float
    gauge_projector: Optional[np.ndarray] = field(default=None, repr=False)


def exponent_matrix(relevant, zeta):
    """-sum_j zeta_j w_j A_j as a dense Hermitian matrix."""
    zeta = np.asarray(zeta, float)
    if not np.all(np.isfinite(zeta)):
        raise ValueError("zeta contains non-finite entries")
    d = relevant.basis.dim
    return (relevant.columns @ (-zeta * relevant.weights)).reshape(d, d)


def state_from_exponent(x, sectors=None):
    """(rho, logZ) from a Hermitian exponent, overflow-safe via log-sum-exp.

    sectors, when given, are the particle-number blocks to diagonalize x
    by, should it couple none of them.
    """
    spectrum = Spectrum(x, sectors=sectors)
    p, logz = spectrum.gibbs()
    return _density(spectrum, p), logz


class _State(np.ndarray):
    """A dense state that keeps the decomposition it was assembled from, read-only:
    _eig = (ROW_RESTRICT, (slices, p, blocks)), the dense counterpart of
    FieldOperator._eig, which Spectrum and entropy read instead of diagonalizing
    and which is freed with the state.  An array derived from it (a copy, a
    slice, an arithmetic result or np.asarray) keeps nothing."""

    _eig = None


def _density(spectrum, p):
    """sum_a p_a |a><a| over the eigenvectors of spectrum, exactly Hermitian:
    each block is symmetrized in its own dtype, then written into the state.
    The state is a read-only _State keeping p, made read-only too, and a
    read-only copy of spectrum's blocks in one buffer, written once the state
    is assembled.  The eigh outputs are allocated while the exponent's
    temporaries are live; kept, they hold the top of the malloc heap, which
    then cannot shrink: at dim 1001 the heap held 38 MB free after
    gibbs_state, 4 MB with the copy, and a run's peak memory varied by up to
    10 MB from one run to the next."""
    rho = spectrum.dense([0.5 * (m + m.conj().T) for m in spectrum.eigenvalue_blocks(p)],
                         complex).view(_State)
    flat = np.concatenate([b.ravel() for b in spectrum.blocks])
    rho.flags.writeable = p.flags.writeable = flat.flags.writeable = False
    blocks = np.split(flat, np.cumsum([b.size for b in spectrum.blocks])[:-1])
    rho._eig = propagate.ROW_RESTRICT, (tuple(spectrum.slices), p, tuple(
        part.reshape(b.shape) for part, b in zip(blocks, spectrum.blocks)))
    return rho


def gibbs_state(relevant, zeta):
    """Generalized Gibbs state and its ZetaField (zeta0 = log Z).

    Positive semidefinite with unit trace by construction (Hermitian
    eigendecomposition by particle-number sector with a log-sum-exp shift, so
    the exponent cannot overflow for finite zeta).  The state is read-only and
    keeps the blocks of its exponent's eigenvectors and its weights on them,
    sum_k d_k^2 + d floats, so kubo_gram and entropy of it diagonalize nothing.
    """
    rho, logz = state_from_exponent(exponent_matrix(relevant, zeta),
                                    relevant.basis.sector_slices())
    return rho, ZetaField(labels=relevant.labels, values=np.asarray(zeta, float).copy(),
                          zeta0=logz)


def entropy(rho, tol=1e-9):
    """von Neumann entropy -Tr rho log rho in units of k = 1.

    Eigenvalues in [-tol, 0] are clamped to zero; below -tol the input is
    rejected as not a state.  A state that keeps its decomposition, as
    gibbs_state's does, is read from its weights; any other rho takes a dense
    eigvalsh.
    """
    eig = getattr(rho, "_eig", None)
    w = np.linalg.eigvalsh(np.asarray(rho)) if eig is None else eig[1][1]
    if w.min() < -tol:
        raise NumericalError(f"matrix has eigenvalue {w.min():.3e} < -{tol:.0e}")
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    # clamping can leave an eigenvalue marginally above 1; entropy stays >= 0
    return max(0.0, float(-(nz * np.log(nz)).sum()))


def _kubo_kernel(w, u=None):
    """kappa[a, b] = (w_a - u_b)/(log w_a - log u_b), with u = w when not given:
    the logarithmic mean, sqrt(w_a u_b) where the two nearly coincide."""
    log_w = np.log(w)
    u, log_u = (w, log_w) if u is None else (u, np.log(u))
    d = np.subtract.outer(log_w, log_u)
    # near-degenerate pairs: symmetric expansion sqrt(wa wb) sinh(d/2)/(d/2), which
    # the quotient overwrites everywhere else
    kappa = np.sqrt(np.multiply.outer(w, u))
    kappa *= 1.0 + d * d / 24.0
    return np.divide(np.subtract.outer(w, u), d, out=kappa, where=np.abs(d) >= 1e-7)


def _dressed(u, kappa, x):
    """G_x = u (kappa o u^dag x u) u^dag: x, one matrix or a stack, dressed by the
    Kubo kernel kappa of the state W with eigenvectors u, in the basis x is given
    in; the connected part of <C, B> is Tr(C G_B) = Tr(G_C B) there."""
    return u @ (kappa * (u.conj().T @ x @ u)) @ u.conj().T


def _kubo(p, pairs, n, kappa=None):
    """(K, m): K[j, l] = <B_j, B_l> and m[j] = Tr(B_j W) for n Hermitian B_j in
    the state W with eigenvalues p, summed over the sector-pair blocks of the
    operators in its eigenbasis, one block at a time.  The connected part
    contracts each pair with the closed-form divided-difference kernel (Higham,
    Functions of Matrices, ch. 3); the disconnected part is Tr(B_j W) Tr(B_l W).

    pairs yields (rs, cs, b) for the pairs of rows rs and columns cs where the
    B_j live, b their blocks there, (n, |rs|, |cs|).  b is scaled in place by
    sqrt(kappa), kappa being positive, and enters as conj(b) b^T, so no second
    array of its size is made.  kappa is the whole kernel _kubo_kernel(p) when
    the caller holds it, else each block's part is computed alone.
    """
    connected, means = np.zeros((n, n)), np.zeros(n)
    for rs, cs, b in pairs:
        k = _kubo_kernel(p[rs], p[cs]) if kappa is None else kappa[rs, cs]
        if rs == cs:
            means = means + b.diagonal(0, 1, 2) @ p[rs]
        b *= np.sqrt(k)
        b = b.reshape(n, -1)
        connected = connected + b.conj() @ b.T
        # unbound before the next block is made, so one block is alive at a time
        del b
    return connected - means[:, None] * means, means


def kubo(C, B, W, eig_floor=EIG_FLOOR):
    """Canonical two-point correlation of C and B in the state W.

    <C, B>_W = Tr C int_0^1 du exp(uA) B exp(-uA) W  -  Tr(C W) Tr(B W)
    with W = exp(A)/Tr exp(A); evaluated in W's eigenbasis through the
    closed-form kernel, so no quadrature enters.  The operands are dense and
    the eigenvectors assembled from W's blocks.  W must be positive definite;
    eigenvalues below eig_floor are lifted to it (documented regularization),
    unless eig_floor is None, in which case a singular W raises.
    """
    spectrum = Spectrum(W)
    w = spectrum.w
    if w.min() < -1e-12:
        raise ValueError(f"W has negative eigenvalue {w.min():.3e}")
    if eig_floor is None and w.min() <= 0.0:
        raise ValueError("W is singular; pass eig_floor (e.g. 1e-14) to regularize")
    floored = w if eig_floor is None else np.clip(w, eig_floor, None)
    return _correlation(spectrum, floored, C, B)[0]


def cumulant_expect(C, A_exponent, B_perturbation):
    """First-order estimate of Tr C exp(A+B)/Tr exp(A+B).

    Tr(C W) + <C, B>_W with W = exp(A)/Tr exp(A); exact at B = 0 and with
    an O(|B|^2) error for small perturbations.  Evaluated in the eigenbasis
    of A, which is W's.
    """
    spectrum = Spectrum(A_exponent)
    p, _ = spectrum.gibbs()
    corr, mean = _correlation(spectrum, np.clip(p, EIG_FLOOR, None), C, B_perturbation)
    return float((mean + corr).real)


def _correlation(spectrum, p, C, B):
    """(<C, B>, Tr(C W)) in the state W with eigenvalues p on the eigenvectors
    of spectrum, for FieldOperators or matrices C and B: Tr(C G_B) - Tr(C W)
    Tr(B W) over the assembled eigenvectors."""
    c, b = (x.to_dense() if hasattr(x, "to_dense") else np.asarray(x) for x in (C, B))
    u = spectrum.dense(spectrum.blocks)
    w = (u * p) @ u.conj().T
    mean_c, mean_b = np.sum(c.T * w), np.sum(b.T * w)
    return complex(np.sum(c.T * _dressed(u, _kubo_kernel(p), b)) - mean_c * mean_b), mean_c


def expectations(relevant, rho):
    """Tr(A_j rho) for every member as one sparse product, O(nnz).

    Tr(A rho) = sum_ik A_ik rho_ki = sum_ik conj(A_ki) rho_ki for a Hermitian
    A, so the conjugated rows meet rho as it is laid out, with no copy.
    """
    return (relevant.conj_rows @ np.asarray(rho).ravel()).real


def gauge_projector(relevant):
    """Projector onto the non-gauge directions of the parameter space.

    A direction c is pure gauge when sum_j c_j w_j A_j is proportional to
    the identity (including the zero operator); along it the state
    w[zeta] does not change, only zeta0 does.  Detected from the
    Hilbert-Schmidt Gram matrix of the traceless parts,
    Tr(A^dag B) - Tr(A^dag) Tr(B) / d, summed over the sparse entries: an
    eigenvalue at most GAUGE_TOL times the largest (or 1) is a gauge one.
    """
    d, w = relevant.basis.dim, relevant.weights
    traces = w * np.array([op.trace() for op in relevant.operators])
    gram = w[:, None] * (relevant.conj_rows @ relevant.columns).toarray() * w[None, :]
    gram = (gram - np.outer(traces.conj(), traces) / d).real
    evals, evecs = np.linalg.eigh(gram)
    scale = max(evals.max(), 1.0)
    keep = evals > GAUGE_TOL * scale
    basis_vectors = evecs[:, keep]
    return basis_vectors @ basis_vectors.T


def kubo_gram(relevant, rho):
    """Symmetric matrix of pairwise correlations <A_j, A_l>_rho.

    rho's eigenvalues are lifted to EIG_FLOOR.  A state that
    keeps its decomposition, as gibbs_state's does, is read from its blocks and
    weights, so no eigendecomposition is made; any other rho is diagonalized by
    particle-number sector.  The members' blocks are made and contracted one
    sector pair at a time.
    """
    spectrum = Spectrum(rho, sectors=relevant.basis.sector_slices())
    g = _kubo(np.clip(spectrum.w, EIG_FLOOR, None), sector_blocks(spectrum, relevant.stacked),
              len(relevant))[0].real
    return 0.5 * (g + g.T)


def match_expectations(relevant, targets, zeta_init=None, max_iters=MAX_NEWTON_ITERS):
    """Solve Tr(A_j w[zeta]) = targets_j by damped Newton iteration.

    The Jacobian is the negative weighted correlation Gram matrix; steps are
    projected off the gauge directions (the component of zeta along them
    stays at its initial value) and damped by halving until the residual
    norm decreases.  Raises MatchFailure with the residual and, for rank
    problems, the offending null direction.  Converged means every residual
    is below MATCH_TOL.  Targets on the boundary of the attainable set (sharp
    eigenstate expectations) make the parameters diverge; that is reported
    as a failure once the iterate passes ZETA_MAX while still unconverged.
    """
    return _match(relevant, targets, zeta_init, max_iters)[0]


def _match(relevant, targets, zeta_init=None, max_iters=MAX_NEWTON_ITERS, start=None):
    """(ZetaField, rho): match_expectations, with gibbs_state's state at the
    parameters it converged to; start, a pair _match returned, is the first
    iterate in place of zeta_init's state."""
    targets = np.asarray(targets, float)
    n = len(relevant)
    zeta = np.zeros(n) if zeta_init is None else np.asarray(zeta_init, float).copy()
    if not np.all(np.isfinite(zeta)):
        raise ValueError("zeta_init contains non-finite entries")
    proj = relevant.gauge_projector

    # one diagonalization per iterate: the state keeps it, and its Gram matrix
    # reads it
    zf, rho = start or gibbs_state(relevant, zeta)[::-1]
    zeta, resid = zf.values, expectations(relevant, rho) - targets
    for _ in range(max_iters):
        if np.max(np.abs(resid)) < MATCH_TOL:
            return replace(zf, gauge_projector=proj), rho
        gram = kubo_gram(relevant, rho)
        # Newton system -G diag(w) step = -resid, solved in the symmetric
        # coordinates y = sqrt(w) step where S = sqrt(w) G sqrt(w); the
        # thresholded pseudo-inverse deflates the gauge null space
        d_sqrt = np.sqrt(relevant.weights)
        s = gram * d_sqrt[None, :] * d_sqrt[:, None]
        evals, evecs = np.linalg.eigh(s)
        good = evals > 1e-13 * max(evals.max(), 1.0)
        if not np.any(good):
            raise MatchFailure("correlation Gram matrix vanished",
                               residual=resid, null_direction=evecs[:, 0])
        inv = np.where(good, 1.0 / np.where(good, evals, 1.0), 0.0)
        # step = -jac^+ resid with jac = -G diag(w)
        step = ((evecs * inv) @ (evecs.T @ (d_sqrt * resid))) / d_sqrt
        step = proj @ step
        # backtracking: halve until the residual norm decreases
        norm0 = np.linalg.norm(resid)
        lam = 1.0
        for _ in range(40):
            rho_t, zf_t = gibbs_state(relevant, zeta + lam * step)
            resid_t = expectations(relevant, rho_t) - targets
            if np.linalg.norm(resid_t) < norm0:
                break
            lam *= 0.5
        else:
            null = evecs[:, ~good][:, 0] if np.any(~good) else None
            raise MatchFailure(
                "line search stalled; targets may lie outside the attainable set "
                f"(residual inf-norm {np.max(np.abs(resid)):.3e})",
                residual=resid, null_direction=null)
        zeta, rho, zf, resid = zf_t.values, rho_t, zf_t, resid_t
        if np.max(np.abs(zeta)) > ZETA_MAX and np.max(np.abs(resid)) >= MATCH_TOL:
            raise MatchFailure(
                "parameters diverged past "
                f"{ZETA_MAX:g} before convergence; the targets lie on (or "
                "outside) the boundary of the attainable expectation set",
                residual=resid, null_direction=None)
    if np.max(np.abs(resid)) < MATCH_TOL:
        return replace(zf, gauge_projector=proj), rho
    raise MatchFailure(
        f"no convergence in {max_iters} iterations "
        f"(residual inf-norm {np.max(np.abs(resid)):.3e})",
        residual=resid, null_direction=None)
