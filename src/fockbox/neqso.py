"""Non-equilibrium statistical operators with preparation history.

The initial statistical operator is the exponential of the relevant-set
term plus time-integrated, test-function-weighted density and current
history terms accumulated during a preparation interval [T, t0], minus a
terminal term at T.  Unitary evolution of that operator admits an exact
rewrite in which the terminal parameters are the current ones and the
history extends through the spontaneous interval [t0, t]; the parameters
themselves then obey an integrodifferential equation driven by two-point
correlation functions of the current macrostate, integrated by explicit
midpoint with a trapezoid memory term and an optional memory cutoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .maxent import (
    EIG_FLOOR,
    _kubo,
    _kubo_kernel,
    entropy,
    exponent_matrix,
    expectations,
    gibbs_state,
    match_expectations,
    state_from_exponent,
)
from .propagate import Spectrum, diagonal_blocks

HERM_WARN = 1e-10
HERM_FAIL = 1e-6
DECAY_THRESHOLD = 0.05
ENTROPY_STEP_TOL = 1e-6


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

    operators are Hermitian densities or bond currents; coeffs are the
    corresponding classical weights with the cell measure already folded
    in, so the term contributes  h(t') * sum_k coeffs[k] O_k(-(s - t'))
    to the exponent of the operator prepared at time s.
    """

    label: str
    operators: tuple
    coeffs: np.ndarray
    h: Callable


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


def _trapezoid_weights(nodes):
    w = np.zeros(len(nodes))
    d = 0.5 * np.diff(nodes)
    w[:-1] += d
    w[1:] += d
    return w


def _weighted(c, stack):
    """sum_k c[k] stack[k] over an (m, d, d) stack, as one matrix product."""
    return (c @ stack.reshape(len(stack), np.prod(stack.shape[1:]))).reshape(stack.shape[1:])


def _checked_hermitian(x, what):
    dev = float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0
    if dev > HERM_FAIL:
        raise ValueError(f"{what} exponent non-Hermitian beyond tolerance ({dev:.3e})")
    if dev > HERM_WARN:
        warnings.warn(f"{what} exponent symmetrized (deviation {dev:.3e})")
        return 0.5 * (x + x.conj().T)
    return x


def _masks(spectrum, t):
    """exp(i (w_a - w_b) t / hbar) on each block of spectrum: dressing by t there."""
    phase = np.exp(1j * spectrum.w * t / spectrum.hbar)
    return [np.outer(phase[sl], phase[sl].conj()) for sl in spectrum.slices]


class _PreparedHistory:
    """The [T, t0] record and terminal term on each block of spectrum, H's (as one
    block when a member, current divergence or history operator couples two):
    there members holds the A_j, div_rates the i div J_j (real for the imaginary
    divergences of a real model), stack the combined preparation nodes, each
    dressed once by its t', and gamma the terminal term."""

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
        self.div_rates = None if relevant.div_currents is None else [
            1j * b if np.any(b.real) else -b.imag for b in blocks[-1]]
        self.nodes = history.prep_grid() if terms else np.array([])
        h = np.array([[term.h(tp) for term in terms] for tp in self.nodes])
        # each node dressed once, by its t': mask(t' - s) = mask(-s) * mask(t')
        phase = np.exp(1j * np.multiply.outer(self.nodes, spectrum.w) / hbar)
        self.stack = []
        for k, (sl, a) in enumerate(zip(spectrum.slices, self.members)):
            combos = np.array([_weighted(term.coeffs, b[k]) for term, b in zip(terms, blocks[1:])],
                              dtype=complex).reshape((len(terms),) + a.shape[1:])
            self.stack.append(np.tensordot(h.reshape(len(self.nodes), len(terms)), combos, 1)
                              * phase[:, sl, None] * phase[:, None, sl].conj())
        self.gamma = None if history.gamma_T is None else [
            _weighted(np.asarray(history.gamma_T, float) * relevant.weights, a)
            for a in self.members]

    def rates(self):
        """R_j = (w_a - w_b)/hbar * A_j per block, so that (i/hbar)[H, A_j] = i R_j."""
        w, hbar = self.spectrum.w, self.spectrum.hbar
        return [np.subtract.outer(w[sl], w[sl]) / hbar * a
                for sl, a in zip(self.spectrum.slices, self.members)]

    def state(self, relevant, zeta):
        """Per block, the eigenvectors u of the exponent of w[zeta], which w[zeta]
        shares, and the weights of w[zeta] on them, floored at EIG_FLOOR."""
        eigs = [np.linalg.eigh(_weighted(-relevant.weights * zeta, a)) for a in self.members]
        x = np.concatenate([x for x, _ in eigs])
        p = np.exp(x - x.max())
        return [u for _, u in eigs], np.clip(p / p.sum(), EIG_FLOOR, None)

    def operand(self, s, cutoff=-np.inf):
        """History exponent of the operator prepared at s, per block: test-function
        integrals over [T, t0] dressed by -(s - t') minus gamma_T dressed by
        -(s - T); nodes before cutoff drop out, gamma_T once T does."""
        first = np.searchsorted(self.nodes, cutoff)
        weights = _trapezoid_weights(self.nodes[first:])
        out = [mask * _weighted(weights, stack[first:])
               for mask, stack in zip(_masks(self.spectrum, -s), self.stack)]
        if self.gamma is not None and self.history.T >= cutoff:
            masks = _masks(self.spectrum, self.history.T - s)
            out = [acc - mask * gamma for acc, mask, gamma in zip(out, masks, self.gamma)]
        return out


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
    return state_from_exponent(_checked_hermitian(x, "prepared"),
                               relevant.basis.sector_slices())


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
    operand = past.operand(t)

    def rewritten(nq):
        blocks = operand
        if t != history.t0:
            grid = np.linspace(history.t0, t, nq)
            zetas = np.array([zeta_of_t(tp) for tp in grid])
            zdots = np.gradient(zetas, grid, axis=0)
            blocks = [a + b for a, b in zip(blocks, _spontaneous_integral(
                relevant, past, t, grid, zetas, zdots))]
        x = x_past + past.spectrum.from_blocks(blocks)
        rho, _ = state_from_exponent(_checked_hermitian(x, "rewritten"),
                                     relevant.basis.sector_slices())
        return rho

    rho_fine = rewritten(n_quad)
    rho_coarse = rewritten(max(2, n_quad // 2))
    dist = float(np.linalg.norm(rho_direct - rho_fine))
    dist_c = float(np.linalg.norm(rho_direct - rho_coarse))
    suspect = abs(dist_c - dist) > 0.1 * max(dist, 1e-300)
    return RewriteReport(rho_direct=rho_direct, rho_rewritten=rho_fine,
                         distance=dist, coarse_distance=dist_c,
                         quadrature_suspect=bool(suspect))


def _spontaneous_integral(relevant, past, s, nodes, zetas, zdots):
    """Trapezoid over nodes of sum_l w_l (zdot_l A_l - zeta_l div J_l)(-(s - t')),
    per block of past, contracted as one phase kernel sum_k c_kl mask(t_k - s) per
    member against its A_l and i div J_l there: no (nodes, d, d) stack."""
    w, n, spectrum = relevant.weights, len(relevant), past.spectrum
    # -zeta div J = i zeta (i div J)
    coef = _trapezoid_weights(nodes)[:, None] * np.hstack([zdots * w, 1j * zetas * w])
    phase = np.exp(1j * np.multiply.outer(nodes - s, spectrum.w) / spectrum.hbar)
    out = []
    for sl, a, j in zip(spectrum.slices, past.members, past.div_rates):
        weighted = (coef[:, :, None] * phase[:, None, sl]).reshape(len(nodes), -1)
        kernels = (weighted.T @ phase[:, sl].conj()).reshape((2 * n,) + a.shape[1:])
        out.append(np.einsum("lab,lab->ab", kernels[:n], a)
                   + np.einsum("lab,lab->ab", kernels[n:], j))
    return out


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
    the engine adds the commutator rates R_j and the spontaneous history as
    phased nodes, one buffer per block that doubles when full.  A derivative
    diagonalizes the exponent of w[zeta] on each block, moves [A; R] and the
    history operand into its eigenvectors and makes one Kubo pass.
    """

    def __init__(self, relevant, history, H, hbar, tau_cut, cond_max=1e12):
        if relevant.div_currents is None:
            raise ValueError("relevant set needs div_currents for the dynamics")
        self.relevant, self.tau_cut, self.cond_max = relevant, tau_cut, cond_max
        self.past = _PreparedHistory(relevant, history, H, hbar)
        self.rates = self.past.rates()
        self.proj = relevant.gauge_projector
        self.times = []
        self._nodes = [np.zeros((0,) + a.shape[1:], dtype=complex) for a in self.past.members]

    @property
    def stack(self):
        """The phased nodes recorded so far, in order: per block, the filled
        prefix of its buffer."""
        return [nodes[:len(self.times)] for nodes in self._nodes]

    def record(self, t, zeta, zdot):
        """Store the node sum_l w_l (zdot_l A_l - zeta_l div J_l) at t, dressed by t,
        after every node stored so far."""
        k, w = len(self.times), self.relevant.weights
        if k == len(self._nodes[0]):
            self._nodes = [np.concatenate([b, np.empty_like(b, shape=(max(1, k),) + b.shape[1:])])
                           for b in self._nodes]
        for nodes, mask, a, j in zip(self._nodes, _masks(self.past.spectrum, t),
                                     self.past.members, self.past.div_rates):
            nodes[k] = mask * (_weighted(w * zdot, a) + 1j * _weighted(w * zeta, j))
        self.times.append(t)

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
        operand = self.past.operand(t, cutoff)

        # spontaneous branch over the recorded nodes in the window (a suffix:
        # times increase) and the endpoint t, where only -zeta div J enters:
        # the unknown zeta-dot stays on the left-hand side of the linear solve
        first = np.searchsorted(self.times, cutoff)
        *wq, w_end = _trapezoid_weights(np.append(self.times[first:], t))
        wz = self.relevant.weights * zeta
        for acc, mask, nodes, j in zip(operand, _masks(self.past.spectrum, -t),
                                       self.stack, self.past.div_rates):
            acc += mask * _weighted(wq, nodes[first:]) + (1j * w_end) * _weighted(wz, j)

        us, p = self.past.state(self.relevant, zeta)

        # one Kubo contraction per block: the A_j and R_j against the conjugated A_l
        # and operand.  Hermitian A_j give the conjugate of each correlation (the
        # real part is kept); anti-Hermitian R_j give -conj(<R_j, .>) = conj(<C_j, .>) / i
        n = len(self.relevant)

        def pairs():
            for sl, u, a, r, o in zip(self.past.spectrum.slices, us,
                                      self.past.members, self.rates, operand):
                block = u.conj().T @ np.concatenate([a, r]) @ u
                b = np.concatenate([block[:n], (u.conj().T @ o @ u)[None]])
                yield sl, sl, block, np.conjugate(b, out=b)

        k, means = _kubo(p, pairs(), (2 * n, n + 1), _kubo_kernel(p))
        gram = k[:n, :n].real
        rhs = (1j * (means[n:] + k[n:, n])).real
        kmat = (1j * k[n:, :n]).real

        # ---- linear solve:  -(G + w_end K) diag(w) zdot = rhs -------------
        mw = (gram + w_end * kmat) * self.relevant.weights[None, :]
        cond = self._deflated_condition(gram)
        if cond > self.cond_max:
            raise GramConditionError(cond, t, self.cond_max)
        u, *_ = np.linalg.lstsq(mw, -rhs, rcond=1e-13)
        zdot = self.proj @ u
        return zdot, cond

    def _deflated_condition(self, gram):
        d_sqrt = np.sqrt(self.relevant.weights)
        s = gram * d_sqrt[None, :] * d_sqrt[:, None]
        evals = np.linalg.eigvalsh(self.proj @ s @ self.proj)
        rank = int(round(np.trace(self.proj)))
        if rank == 0:
            return np.inf
        live = np.sort(evals)[-rank:]
        if live[0] <= 0.0:
            return np.inf
        return float(live[-1] / live[0])


def zeta_dynamics(relevant, zeta_t0, history, H, t0, t_end, step,
                  tau_cut=None, hbar=1.0, cond_max=1e12):
    """Integrate the parameter equation from t0 to t_end by explicit midpoint.

    At every stage the correlation Gram matrix of the current macrostate is
    solved (gauge directions deflated) against the commutator drift, the
    two-branch history integrand evaluated at retarded times (trapezoid,
    truncated below t - tau_cut when a cutoff is given), and the terminal
    gamma_T term.  A commuting relevant family gives an exactly constant
    trajectory.
    """
    engine = _DynamicsEngine(relevant, history, H, hbar, tau_cut, cond_max=cond_max)
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
    DECAY_THRESHOLD of the aggregate's peak.
    """
    past = _PreparedHistory(relevant, HistorySpec.empty(), H, hbar)
    us, p = past.state(relevant, zeta)
    n, kappa = len(relevant), _kubo_kernel(p)
    # per block of the eigenbasis of H: C_j = i R_j, transposed into the state's
    # eigenvectors once, and A_l(-s) moved there per sample
    cts = [np.swapaxes(u.conj().T @ r @ u, 1, 2) for u, r in zip(us, past.rates())]
    times = np.linspace(0.0, horizon, n_samples)
    table = np.array([(1j * _kubo(p, [
        (sl, sl, ct, u.conj().T @ (mask * a) @ u) for sl, u, ct, mask, a in zip(
            past.spectrum.slices, us, cts, _masks(past.spectrum, -s), past.members)],
        (n, n), kappa)[0]).real for s in times])

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
    with the same conserved totals is reported alongside.
    """
    times = trajectory.times
    n_t = len(times)
    s_vals = np.empty(n_t)
    dist = np.full(n_t, np.nan)
    relevant_states = []
    for i in range(n_t):
        rho, _ = gibbs_state(relevant, trajectory.zetas[i])
        relevant_states.append(rho)
        s_vals[i] = entropy(rho)
    if conserved is not None:
        guess = None
        for i, rho in enumerate(relevant_states):
            targets = expectations(conserved, rho)
            zf = match_expectations(conserved, targets, zeta_init=guess)
            guess = zf.values
            rho_eq, _ = gibbs_state(conserved, zf.values)
            dist[i] = float(np.linalg.norm(rho - rho_eq))
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
