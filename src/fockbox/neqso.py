"""Non-equilibrium statistical operators with preparation history.

The initial statistical operator is the exponential of the relevant-set
term plus time-integrated, test-function-weighted density and current
history terms accumulated during a preparation interval [T, t0], minus a
terminal term at T.  Unitary evolution of that operator admits an exact
rewrite in which the terminal parameters are the current ones and the
history extends through the spontaneous interval [t0, t]; the parameters
then obey an integrodifferential equation, integrated by explicit midpoint;
its memory term is one windowed trapezoid sum over both history branches,
the window set by an optional memory cutoff.  It and the decay table are
canonical correlations of the commutator rows in the current macrostate,
traces against operands dressed once by the Kubo kernel.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .maxent import (
    EIG_FLOOR,
    _dressed,
    _kubo,
    _kubo_kernel,
    _match,
    entropy,
    exponent_matrix,
    expectations,
    gibbs_state,
    match_expectations,
    state_from_exponent,
)
from .propagate import Spectrum, diagonal_blocks

DECAY_THRESHOLD = 0.05
ENTROPY_STEP_TOL = 1e-6
# the largest deflated condition number of the correlation Gram matrix that the
# parameter dynamics advances through
GRAM_COND_MAX = 1e12


class GramConditionError(RuntimeError):
    """Correlation Gram matrix too ill-conditioned to advance the dynamics."""

    def __init__(self, cond, t, cond_max):
        self.cond = cond
        self.t = t
        super().__init__(
            f"Gram condition number {cond:.3e} exceeds {cond_max:.0e} "
            f"at t = {t:.6g}"
        )


# ---- preparation history ----------------------------------------------------


def cosine_test_function(omega):
    """The test-function preset h(t) = cos(omega t)."""

    def h(t):
        return float(np.cos(omega * t))

    return h


@dataclass(frozen=True)
class HistoryTerm:
    """One test-function-weighted history integrand.

    operators are Hermitian densities or bond currents, checked when the term
    is built; coeffs are their classical weights with the cell measure folded
    in, so the term contributes  h(t') * sum_k coeffs[k] O_k(-(s - t'))  to
    the exponent of the operator prepared at time s.
    """

    label: str
    operators: tuple
    coeffs: np.ndarray
    h: Callable

    def __post_init__(self):
        for k, op in enumerate(self.operators):
            if not op.is_hermitian(tol=1e-10):
                raise ValueError(f"history term {self.label!r}: operator {k} is non-Hermitian")


@dataclass(frozen=True)
class HistorySpec:
    """Preparation record on [T, t0] plus the terminal weights at T.

    gamma_T aligns with the relevant-set labels (the terminal density
    weights; zero means no terminal term).  n_quad is the trapezoid grid
    size for all history integrals over [T, t0].
    """

    T: float
    t0: float
    terms: tuple = ()
    gamma_T: Optional[np.ndarray] = None
    n_quad: int = 64

    def __post_init__(self):
        if self.T > self.t0:
            raise ValueError("need T <= t0")
        if self.T == self.t0 and self.terms:
            raise ValueError("history terms need a nonempty interval [T, t0]")
        if self.n_quad < 2:
            raise ValueError("need n_quad >= 2")

    @classmethod
    def empty(cls, t0=0.0):
        return cls(T=t0, t0=t0, terms=(), gamma_T=None)

    def prep_grid(self):
        if self.T == self.t0:
            return np.array([])
        return np.linspace(self.T, self.t0, self.n_quad)


def _weighted(c, stack):
    """sum_k c[k] stack[k] over an (m, d, d) stack, as one matrix product."""
    return (c @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


def _masks(spectrum, t):
    """exp(i (w_a - w_b) t / hbar) on each block of spectrum: dressing by t there."""
    phase = np.exp((1j * t / spectrum.hbar) * spectrum.w)
    return [phase[sl, None] * phase[sl].conj() for sl in spectrum.slices]


class _WindowedSum:
    """Trapezoid sum, on each block of spectrum, over the nodes that a window
    [start, inf) keeps.  Node k is a time t_k and a coefficient row c_k, with the
    value mask(t_k) o combine(c_k), built again only when it is needed: held are
    the sum over the closed intervals inside the window and the last node, O(d_k^2)
    per block whatever the number of nodes, and the scalar record."""

    def __init__(self, spectrum, combine):
        self.spectrum, self.combine = spectrum, combine
        self.times, self.coefs, self.first = [], [], 0
        self.sum = self.last = [np.zeros((sl.stop - sl.start,) * 2, complex)
                                for sl in spectrum.slices]

    def node(self, k):
        return [m * x for m, x in zip(_masks(self.spectrum, self.times[k]),
                                      self.combine(self.coefs[k]))]

    def _interval(self, k, lo, sign=1.0):
        """Add sign times the interval [t_k, t_k+1] to the sum, lo the node at
        t_k, and return the node at t_k+1."""
        hi, h = self.node(k + 1), 0.5 * sign * (self.times[k + 1] - self.times[k])
        self.sum = [s + h * (a + b) for s, a, b in zip(self.sum, lo, hi)]
        return hi

    def append(self, t, c):
        """Record the node (t, c), t at or after every recorded time."""
        self.times.append(t)
        self.coefs.append(c)
        k = len(self.times) - 1
        self.last = self._interval(k - 1, self.last) if k > self.first else self.node(k)

    def window(self, start):
        """Keep the nodes at or after start: the intervals that leave are
        subtracted, and a start that moves back sums again from the record."""
        first, n = bisect_left(self.times, start), len(self.times)
        back = first < self.first
        if back:
            self.sum = [np.zeros_like(s) for s in self.sum]
        ks = range(first, n - 1) if back else range(self.first, min(first, n - 1))
        lo = self.node(ks[0]) if ks else None
        for k in ks:
            lo = self._interval(k, lo, 1.0 if back else -1.0)
        self.first = first


class _PreparedHistory:
    """The [T, t0] record and terminal term on each block of spectrum, H's (as one
    block when a member, current divergence or history operator couples two):
    there members holds the A_j, delta the (w_a - w_b)/hbar, so that (i/hbar)[H, A_j]
    = i delta o A_j, div_rates the i div J_j (real for the imaginary divergences of
    a real model), record the sum over the [T, t0] nodes, rows h(t') on each term's
    sum_k coeffs[k] O_k, and fixed that over every node minus the terminal term."""

    def __init__(self, relevant, history, H, hbar):
        self.history, terms = history, history.terms
        groups = [relevant.stacked] + [term.operators for term in terms]
        groups += [] if relevant.div_currents is None else [relevant.div_currents]
        spectrum = Spectrum(H, hbar=hbar)
        blocks = [diagonal_blocks(spectrum, ops) for ops in groups]
        if None in blocks:
            spectrum = Spectrum(H.to_dense(), hbar=hbar)
            blocks = [diagonal_blocks(spectrum, ops) for ops in groups]
        self.spectrum, self.members = spectrum, blocks[0]
        self.delta = [np.subtract.outer(spectrum.w[sl], spectrum.w[sl]) / hbar
                      for sl in spectrum.slices]
        self.div_rates = None if relevant.div_currents is None else [
            1j * b if np.any(b.real) else -b.imag for b in blocks[-1]]
        self.nodes = history.prep_grid() if terms else np.array([])
        # the sums' closures hold no reference to self, so no cycle outlives a call
        combos = [np.array([_weighted(t.coeffs, b[k]) for t, b in zip(terms, blocks[1:])])
                  .reshape((len(terms),) + a.shape[1:]) for k, a in enumerate(self.members)]
        self.record = _WindowedSum(spectrum, lambda c: [_weighted(c, x) for x in combos])
        for tp in self.nodes:
            self.record.append(tp, np.array([term.h(tp) for term in terms]))
        self.fixed = self.record.sum
        if history.gamma_T is not None:
            gamma = np.asarray(history.gamma_T, float) * relevant.weights
            self.fixed = [acc - mask * _weighted(gamma, a) for acc, mask, a in zip(
                self.fixed, _masks(spectrum, history.T), self.members)]

    def state(self, relevant, zeta):
        """Per block, the eigenvectors u of the exponent of w[zeta], which w[zeta]
        shares, and the weights of w[zeta] on them, floored at EIG_FLOOR."""
        eigs = [np.linalg.eigh(_weighted(-relevant.weights * zeta, a)) for a in self.members]
        x = np.concatenate([x for x, _ in eigs])
        p = np.exp(x - x.max())
        return [u for _, u in eigs], np.maximum(p / p.sum(), EIG_FLOOR)

    def spontaneous(self):
        """An empty sum over the nodes sum_l w_l (zdot_l A_l - zeta_l div J_l) of
        [t0, t], each a row [w zdot, w zeta]: -zeta div J = i zeta (i div J)."""
        pairs, n = list(zip(self.members, self.div_rates)), len(self.members[0])
        return _WindowedSum(self.spectrum, lambda c: [
            _weighted(c[:n], a) + 1j * _weighted(c[n:], j) for a, j in pairs])

    def phased(self, cutoff=-np.inf):
        """The history exponent of the operator prepared at s, dressed by s, per
        block: nodes before cutoff drop out, the terminal term once T does."""
        if cutoff <= self.history.T:
            return self.fixed
        self.record.window(cutoff)
        return self.record.sum

    def operand(self, s, cutoff=-np.inf):
        """History exponent of the operator prepared at s, per block: test-function
        integrals over [T, t0] dressed by -(s - t') minus gamma_T dressed by
        -(s - T); nodes before cutoff drop out, gamma_T once T does."""
        return [mask * x for mask, x in zip(_masks(self.spectrum, -s), self.phased(cutoff))]


def build_rho_t0(relevant, zeta_t0, history, H, hbar=1.0):
    """Prepared statistical operator at the isolation time t0.

    The exponent is -sum_j zeta_j w_j A_j plus the h-weighted density and
    current history integrals over [T, t0] (Heisenberg operators at
    negative delay), minus the terminal term gamma_T.  All-zero history
    reduces exactly to the generalized Gibbs state.  Returns (rho, logZ).
    """
    return _prepared_state(relevant, zeta_t0, _PreparedHistory(relevant, history, H, hbar))


def _prepared_state(relevant, zeta_t0, past):
    x = exponent_matrix(relevant, zeta_t0)
    x = x + past.spectrum.from_blocks(past.operand(past.history.t0))
    return state_from_exponent(x, relevant.basis.sector_slices())


# ---- evolve and rewrite ------------------------------------------------------


@dataclass(frozen=True)
class RewriteReport:
    rho_direct: np.ndarray
    rho_rewritten: np.ndarray
    distance: float
    coarse_distance: float
    quadrature_suspect: bool


def evolve_and_rewrite(relevant, zeta_t0, history, H, t, zeta_of_t,
                       n_quad=200, hbar=1.0):
    """Evolved operator two ways: unitary conjugation vs the exponent rewrite.

    The direct route conjugates the prepared operator with the exact
    propagator.  The rewrite carries the current parameters zeta(t) in the
    terminal slot and trades the initial ones for a history integral of
    zeta-dot against retarded densities minus zeta against retarded current
    divergences over [t0, t] (trapezoid, n_quad nodes), with the [T, t0]
    record re-dressed to delay t.  The identity telescopes for any
    differentiable zeta_of_t anchored at zeta_t0 - the parameter dynamics'
    own trajectory, or exact macrostate inversion when the history is
    empty.  The report carries the Frobenius distance and a flag raised
    when halving the grid moves it by over 10% (the reported distance is
    then quadrature-limited, i.e. an upper bound on the true one).
    """
    if relevant.div_currents is None:
        raise ValueError("relevant set needs div_currents for the rewrite")
    past = _PreparedHistory(relevant, history, H, hbar)
    rho0, _ = _prepared_state(relevant, zeta_t0, past)
    u = past.spectrum.unitary(t - history.t0)
    rho_direct = u @ rho0 @ u.conj().T
    x_past = exponent_matrix(relevant, zeta_of_t(t))
    masks, w = _masks(past.spectrum, -t), relevant.weights

    def rewritten(nq):
        blocks = past.phased()
        if t != history.t0:
            grid = np.linspace(history.t0, t, nq)
            zs = np.array([zeta_of_t(tp) for tp in grid])
            spont = past.spontaneous()
            for tp, row in zip(grid, np.hstack([np.gradient(zs, grid, axis=0) * w, zs * w])):
                spont.append(tp, row)
            blocks = [o + x for o, x in zip(blocks, spont.sum)]
        x = x_past + past.spectrum.from_blocks([m * b for m, b in zip(masks, blocks)])
        return state_from_exponent(x, relevant.basis.sector_slices())[0]

    rho_fine = rewritten(n_quad)
    rho_coarse = rewritten(max(2, n_quad // 2))
    dist = float(np.linalg.norm(rho_direct - rho_fine))
    dist_c = float(np.linalg.norm(rho_direct - rho_coarse))
    suspect = abs(dist_c - dist) > 0.1 * max(dist, 1e-300)
    return RewriteReport(rho_direct=rho_direct, rho_rewritten=rho_fine,
                         distance=dist, coarse_distance=dist_c,
                         quadrature_suspect=bool(suspect))


def macrostate_of(rho, relevant, zeta_guess=None):
    """Lagrange parameters of the entropy-maximizing state matching rho.

    Feeds the expectations of the relevant observables in rho to the
    Newton matcher; failures (extremal expectations, rank problems)
    propagate from the solver.
    """
    targets = expectations(relevant, rho)
    return match_expectations(relevant, targets, zeta_init=zeta_guess)


# ---- parameter dynamics ------------------------------------------------------


@dataclass
class ZetaTrajectory:
    labels: tuple
    times: np.ndarray
    zetas: np.ndarray
    zdots: np.ndarray
    gram_cond_max: float

    def interpolator(self):
        times, zetas = self.times, self.zetas

        def zeta_of_t(t):
            return np.array([np.interp(t, times, zetas[:, l])
                             for l in range(zetas.shape[1])])

        return zeta_of_t

    def as_rows(self):
        rows = []
        for i, t in enumerate(self.times):
            for l, lab in enumerate(self.labels):
                rows.append((float(t), str(lab), float(self.zetas[i, l])))
        return rows


class _DynamicsEngine:
    """The parameter equation in the eigenbasis of H, one block at a time.

    To the members, i div J_j and preparation record that past holds per block
    the engine adds the spontaneous history as one windowed sum: O(d_k^2) arrays
    and O(N n) scalars after N records, at a derivative cost that does not grow
    with N.  Bound once are the weights as record and the condition number take
    them, whether the model is real (the members' dtype) and, per block, the rows
    of the A_j and of i div J_j (views) and Delta.  A derivative makes one phase
    vector, diagonalizes the exponent of w[zeta] on each block and moves the A_j
    into its eigenvectors for one Gram pass.  The rows R_j = Delta o A_j are
    traces against operands dressed by the Kubo kernel, in the eigenbasis of H
    with no R_j made: Im O on a real model, O and the Gram pass's u^dag A_l u on
    a complex one.
    """

    def __init__(self, relevant, history, H, hbar, tau_cut):
        if relevant.div_currents is None:
            raise ValueError("relevant set needs div_currents for the dynamics")
        self.relevant, self.tau_cut = relevant, tau_cut
        self.past = past = _PreparedHistory(relevant, history, H, hbar)
        self.spont = past.spontaneous()
        self.proj = relevant.gauge_projector
        self.rank = int(round(np.trace(self.proj)))  # the gauge rank, fixed by the set
        w, n = relevant.weights, len(relevant)
        self.w2, self.sqrt_ww = np.tile(w, 2), np.outer(np.sqrt(w), np.sqrt(w))
        self.blocks = [(sl, a.reshape(n, -1), j.reshape(n, -1), delta) for sl, a, j, delta
                       in zip(past.spectrum.slices, past.members, past.div_rates, past.delta)]
        self.real = np.isrealobj(past.members[0])  # so are u and every block

    def record(self, t, zeta, zdot):
        """Store the node sum_l w_l (zdot_l A_l - zeta_l div J_l) at t, after
        every node stored so far."""
        self.spont.append(t, np.concatenate([zdot, zeta]) * self.w2)

    def derivative(self, t, zeta):
        """zeta-dot at (t, zeta) given the recorded spontaneous history.

        The history integrand enters linearly through <C_j, O>, so all its
        pieces are summed in the eigenbasis of H before one correlation.
        """
        # preparation branch and terminal gamma(T) term; a memory cutoff
        # drops the latter together with the rest of the preparation record
        # once T falls behind the window, which is what makes the truncated
        # dynamics depend on the state parameters alone
        cutoff = -np.inf if self.tau_cut is None else t - self.tau_cut
        prep = self.past.phased(cutoff)

        # spontaneous branch over the recorded nodes in the window, closed by
        # the endpoint t, where only -zeta div J enters: the unknown zeta-dot
        # stays on the left-hand side of the linear solve
        spont, wz = self.spont, self.relevant.weights * zeta
        spont.window(cutoff)
        w_end = 0.5 * (t - spont.times[-1]) if spont.first < len(spont.times) else 0.0
        operand = [mask * (q + s + w_end * last) + (1j * w_end) * (wz @ j).reshape(q.shape)
                   for mask, q, s, last, (_, _, j, _) in zip(
                       _masks(self.past.spectrum, -t), prep, spont.sum, spont.last,
                       self.blocks)]

        us, p = self.past.state(self.relevant, zeta)
        gram, rhs, kmat = self._correlations(us, p, _kubo_kernel(p), operand)

        # ---- linear solve:  -(G + w_end K) diag(w) zdot = rhs -------------
        mw = (gram + w_end * kmat) * self.relevant.weights
        cond = self._deflated_condition(gram)
        if cond > GRAM_COND_MAX:
            raise GramConditionError(cond, t, GRAM_COND_MAX)
        u, *_ = np.linalg.lstsq(mw, -rhs, rcond=1e-13)
        zdot = self.proj @ u
        return zdot, cond

    def _correlations(self, us, p, kappa, operand):
        """(G, rhs, K) in the state with weights p on the eigenvectors us.

        G is one (n, n) Kubo pass over the u^dag A_j u.  The rows R_j = Delta o A_j
        meet any X as <R_j, X> = sum_ab A_j[a,b] Delta_ab conj(G_X)[a,b] - Tr(R_j rho)
        conj(Tr(X rho)), G_X = u (kappa o u^dag X u) u^dag, rho = u diag(p) u^dag,
        with no R_j made: rhs_j = Re i (Tr(R_j rho) + <R_j, O>), K = Re i <R_j, A_l>.
        On a real model (u, A_j real) time reversal zeroes Tr(R_j rho) and K: only
        Im O is dressed, in real arithmetic.  A complex one dresses O, and each A_l
        from the Gram pass's block, which that pass leaves scaled by sqrt(kappa).
        """
        n, blocks = len(self.relevant), self.blocks
        pairs = ((b[0], b[0], u.conj().T @ a @ u)
                 for b, u, a in zip(blocks, us, self.past.members))
        pairs = pairs if self.real else list(pairs)  # made one at a time unless kept
        gram, tr_a = _kubo(p, pairs, n, kappa)
        if self.real:  # G_Re O and G_Im O are real: Re i conj(G_O) = G_Im O
            return gram, sum(rows @ (delta * _dressed(u, kappa[sl, sl], o.imag)).ravel()
                             for (sl, rows, _, delta), u, o in zip(blocks, us, operand)), 0.0
        conn_o = conn_a = tr_r = tr_o = 0.0
        for (sl, rows, _, delta), u, o in zip(blocks, us, operand):
            k, g = kappa[sl, sl], pairs.pop(0)[2]  # each block dropped once used
            rho_t = ((u * p[sl]) @ u.conj().T).T
            conn_o += rows @ (delta * _dressed(u, k, o).conj()).ravel()
            tr_r += rows @ (delta * rho_t).ravel()
            tr_o += np.sum(o * rho_t)
            # conj(G_A_l) o Delta, one step at a time: at most two stacks are alive
            g *= np.sqrt(k)
            g = u @ g
            g = g @ u.conj().T
            np.conjugate(g, out=g)
            g *= delta
            conn_a += rows @ g.reshape(n, -1).T
        rhs = (1j * (tr_r + conn_o - tr_r * np.conj(tr_o))).real
        return gram.real, rhs, (1j * (conn_a - np.outer(tr_r, np.conj(tr_a)))).real

    def _deflated_condition(self, gram):
        s = self.proj @ (gram * self.sqrt_ww) @ self.proj
        live = np.linalg.eigvalsh(s)[-self.rank:]  # ascending
        if self.rank == 0 or live[0] <= 0.0:
            return np.inf
        return float(live[-1] / live[0])


def zeta_dynamics(relevant, zeta_t0, history, H, t0, t_end, step,
                  tau_cut=None, hbar=1.0):
    """Integrate the parameter equation from t0 to t_end by explicit midpoint.

    At every stage the correlation Gram matrix of the current macrostate is
    solved (gauge directions deflated) against the commutator drift, the
    two-branch history integrand evaluated at retarded times (trapezoid,
    truncated below t - tau_cut when a cutoff is given), and the terminal
    gamma_T term.  A commuting relevant family gives an exactly constant
    trajectory.
    """
    engine = _DynamicsEngine(relevant, history, H, hbar, tau_cut)
    zeta = np.asarray(zeta_t0, float).copy()
    n_steps = int(round((t_end - t0) / step))
    if n_steps < 1:
        raise ValueError("need at least one step")

    ts, zs, zdots, cond_seen = [t0], [zeta.copy()], [], 0.0
    for i in range(n_steps):
        f1, c1 = engine.derivative(ts[-1], zs[-1])
        engine.record(ts[-1], zs[-1], f1)
        zdots.append(f1)
        zm = zs[-1] + 0.5 * step * f1
        f2, c2 = engine.derivative(t0 + (i + 0.5) * step, zm)
        zs.append(zs[-1] + step * f2)
        ts.append(t0 + (i + 1) * step)
        cond_seen = max(cond_seen, c1, c2)
    f_final, c_final = engine.derivative(ts[-1], zs[-1])
    zdots.append(f_final)
    cond_seen = max(cond_seen, c_final)

    return ZetaTrajectory(labels=relevant.labels, times=np.array(ts), zetas=np.array(zs),
                          zdots=np.array(zdots), gram_cond_max=cond_seen)


# ---- correlation decay -------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    """Correlation table C_jl(s) with the measured decay horizon.

    tau is the smallest sampled s* whose aggregate stays below the
    DECAY_THRESHOLD fraction of its peak throughout [s*, 3 s*]; finite
    systems are quasiperiodic, so no_decay marks the (expected) case where
    no such s* exists within the sampled horizon.
    """

    tau: float
    no_decay: bool
    times: np.ndarray
    table: np.ndarray
    aggregate: np.ndarray
    labels: tuple


def decay_time(relevant, zeta, H, horizon, n_samples=61, hbar=1.0):
    """Correlation decay time of the commutator-density correlations.

    C_jl(s) = <(i/hbar)[H, A_j], A_l(-s)> in the state w[zeta]; the scalar
    aggregate contracts l with the current parameters (uniformly when zeta
    vanishes) and takes the 2-norm over j.  The horizon tau is read at
    DECAY_THRESHOLD of the aggregate's peak.  The table is a Lehmann sum: per block of
    H's eigenbasis each R_j = Delta o A_j is dressed once, and a sample is the A_l under
    the phase mask of -s in one product with those and rho^T, with no d^3 work.
    """
    past = _PreparedHistory(relevant, HistorySpec.empty(), H, hbar)
    us, p = past.state(relevant, zeta)
    n, kappa = len(relevant), _kubo_kernel(p)
    # rows G_j^T, Tr(G_j B) = sum_ab G_j^T[a,b] B[a,b], then rho^T for Tr(B rho); the
    # mask's real and imaginary parts take one product each, real for a real model
    rows, tr_r = [], 0.0
    for sl, u, a, delta in zip(past.spectrum.slices, us, past.members, past.delta):
        r, rho_t = delta * a, ((u * p[sl]) @ u.conj().T).T
        g = np.swapaxes(_dressed(u, kappa[sl, sl], r), 1, 2)
        rows.append(np.concatenate([g, rho_t[None]]).reshape(n + 1, -1))
        tr_r = tr_r + r.reshape(n, -1) @ rho_t.ravel()
    times = np.linspace(0.0, horizon, n_samples)
    table = []
    for s in times:
        k = sum(g @ (m.real * a).reshape(n, -1).T + 1j * (g @ (m.imag * a).reshape(n, -1).T)
                for g, m, a in zip(rows, _masks(past.spectrum, -s), past.members))
        table.append((1j * (k[:n] - np.outer(tr_r, k[n]))).real)  # C_j = i R_j
    table = np.array(table)

    zeta = np.asarray(zeta, float)
    v = relevant.weights * (zeta if np.max(np.abs(zeta)) > 0 else 1.0)
    aggregate = np.linalg.norm(table @ v, axis=1)

    # time-reversal symmetry of real models makes the s = 0 value vanish
    # identically; reference the threshold to the kernel peak in that case
    scale = max(aggregate[0], float(aggregate.max()))
    tau = 0.0 if scale <= 1e-14 * max(1.0, float(np.max(np.abs(table)))) else None
    for s_star in times[1:] if tau is None else ():
        if 3.0 * s_star > horizon:
            break
        window = (times >= s_star) & (times <= 3.0 * s_star)
        if np.all(aggregate[window] <= DECAY_THRESHOLD * scale):
            tau = float(s_star)
            break
    return DecayReport(tau=float(horizon) if tau is None else tau, no_decay=tau is None,
                       times=times, table=table, aggregate=aggregate, labels=relevant.labels)


# ---- entropy monitor ---------------------------------------------------------


@dataclass(frozen=True)
class EntropySeries:
    times: np.ndarray
    entropy: np.ndarray
    dist_equilibrium: np.ndarray
    decreasing_steps: tuple
    min_step: float


def entropy_monitor(trajectory, relevant, conserved=None):
    """Macrostate entropy along a parameter trajectory, with equilibrium gap.

    For each sample, S(t) of w[zeta(t)]; steps decreasing by more than
    ENTROPY_STEP_TOL are flagged.  When a conserved relevant set is given (e.g.
    total energy and number), the distance to the equilibrium Gibbs state
    with the same conserved totals, the matcher's own final state, is reported.
    """
    times = trajectory.times
    s_vals, dist, eq = np.empty(len(times)), np.full(len(times), np.nan), None
    for i, zeta in enumerate(trajectory.zetas):
        rho, _ = gibbs_state(relevant, zeta)
        s_vals[i] = entropy(rho)
        if conserved is not None:  # each match starts from the last one's state
            eq = _match(conserved, expectations(conserved, rho), start=eq)
            dist[i] = float(np.linalg.norm(rho - eq[1]))
        # read before the next state is built, so one is alive at a time
        del rho
    steps = np.diff(s_vals)
    bad = tuple(int(i) for i in np.flatnonzero(steps < -ENTROPY_STEP_TOL))
    return EntropySeries(times=times.copy(), entropy=s_vals,
                         dist_equilibrium=dist, decreasing_steps=bad,
                         min_step=float(steps.min()) if len(steps) else 0.0)


# ---- hydrodynamic parametrization --------------------------------------------


def hydro_parametrize(beta, mu, v, basis, model, t=0.0):
    """Relevant-set exponent of the local-rest-frame hydrodynamic family.

    Builds the rest-frame densities by inverting the Galilean relations
    e = e_o + v p_o + v^2 rho / 2 and p = p_o + v rho (exact operator
    identities by construction on the lattice) and returns
    sum_x dx beta(x) [e_o(x) + mu(x)/m rho(x)] together with the pieces.
    """
    from .lattice import density_ops, energy_density_ops, momentum_density_ops

    beta = np.asarray(beta, float)
    mu = np.asarray(mu, float)
    v = np.asarray(v, float)
    if not (len(beta) == len(mu) == len(v) == model.L):
        raise ValueError("beta, mu, v must have one entry per site")
    rho_x = density_ops(basis, model)
    p_x = momentum_density_ops(basis, model)
    e_x = energy_density_ops(basis, model, t)
    p_o = [p_x[x] - v[x] * rho_x[x] for x in range(model.L)]
    e_o = [e_x[x] - v[x] * p_x[x] + 0.5 * v[x] ** 2 * rho_x[x]
           for x in range(model.L)]
    total = None
    for x in range(model.L):
        piece = model.dx * beta[x] * (e_o[x] + (mu[x] / model.mass) * rho_x[x])
        total = piece if total is None else total + piece
    return total, {"e_o": e_o, "p_o": p_o, "e": e_x, "p": p_x, "rho": rho_x}
