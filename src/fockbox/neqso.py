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

from .fock import FieldOperator
from .maxent import (
    EIG_FLOOR,
    _gibbs,
    entropy,
    exponent_matrix,
    expectations,
    gauge_projector,
    gibbs_state,
    kubo_matrix,
    match_expectations,
    state_from_exponent,
)
from .propagate import Spectrum, eigenbasis_stack, stacked

HERM_WARN = 1e-10
HERM_FAIL = 1e-6


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


def _checked_hermitian(x, what):
    dev = float(np.max(np.abs(x - x.conj().T))) if x.size else 0.0
    if dev > HERM_FAIL:
        raise ValueError(f"{what} exponent non-Hermitian beyond tolerance ({dev:.3e})")
    if dev > HERM_WARN:
        warnings.warn(f"{what} exponent symmetrized (deviation {dev:.3e})")
        return 0.5 * (x + x.conj().T)
    return x


def _phased_integral(spectrum, s, weights, stack):
    """sum_k weights[k] stack[k] dressed by -s: stack[k] is dressed by its t'."""
    return spectrum.dress_eig(np.tensordot(weights, stack, 1), -s)


class _PreparedHistory:
    """The [T, t0] record and terminal term, combined in the eigenbasis of H."""

    def __init__(self, relevant, history, spectrum):
        self.history = history
        self.spectrum = spectrum
        terms = history.terms
        self.nodes = history.prep_grid() if terms else np.array([])
        h = np.array([[term.h(tp) for term in terms] for tp in self.nodes])
        d = len(spectrum.w)
        combos = np.array([
            np.tensordot(term.coeffs, eigenbasis_stack(spectrum, term.operators), 1)
            for term in terms], dtype=complex).reshape(len(terms), d, d)
        # each node dressed once, by its t': mask(t' - s) = mask(-s) * mask(t')
        self.stack = np.tensordot(h.reshape(len(self.nodes), len(terms)), combos, 1)
        phase = np.exp(1j * np.multiply.outer(self.nodes, spectrum.w) / spectrum.hbar)
        self.stack *= phase[:, :, None]
        self.stack *= phase.conj()[:, None, :]
        self.gamma = None if history.gamma_T is None else np.tensordot(
            np.asarray(history.gamma_T, float) * relevant.weights,
            eigenbasis_stack(spectrum, relevant.operators), 1)

    def operand(self, s, cutoff=-np.inf):
        """History exponent of the operator prepared at s, in the eigenbasis:
        test-function integrals over [T, t0] dressed by -(s - t') minus gamma_T
        dressed by -(s - T); nodes before cutoff drop out, gamma_T once T does."""
        first = np.searchsorted(self.nodes, cutoff)
        acc = _phased_integral(self.spectrum, s, _trapezoid_weights(self.nodes[first:]),
                               self.stack[first:])
        if self.gamma is not None and self.history.T >= cutoff:
            acc -= self.spectrum.dress_eig(self.gamma, -(s - self.history.T))
        return acc


def build_rho_t0(relevant, zeta_t0, history, H, hbar=1.0):
    """Prepared statistical operator at the isolation time t0.

    The exponent is -sum_j zeta_j w_j A_j plus the h-weighted density and
    current history integrals over [T, t0] (Heisenberg operators at
    negative delay), minus the terminal term gamma_T.  All-zero history
    reduces exactly to the generalized Gibbs state.  Returns (rho, logZ).
    """
    past = _PreparedHistory(relevant, history, Spectrum(H, hbar=hbar))
    return _prepared_state(relevant, zeta_t0, past)


def _prepared_state(relevant, zeta_t0, past):
    x = exponent_matrix(relevant, zeta_t0)
    x = x + past.spectrum.from_eigenbasis(past.operand(past.history.t0))
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
    spectrum = Spectrum(H, hbar=hbar)
    past = _PreparedHistory(relevant, history, spectrum)
    rho0, _ = _prepared_state(relevant, zeta_t0, past)
    u = spectrum.unitary(t - history.t0)
    rho_direct = u @ rho0 @ u.conj().T
    x_past = (exponent_matrix(relevant, zeta_of_t(t))
              + spectrum.from_eigenbasis(past.operand(t)))
    ad_eig = eigenbasis_stack(spectrum, relevant.operators + relevant.div_currents)

    def rewritten(nq):
        x = x_past
        if t != history.t0:
            grid = np.linspace(history.t0, t, nq)
            zetas = np.array([zeta_of_t(tp) for tp in grid])
            zdots = np.gradient(zetas, grid, axis=0)
            x = x + spectrum.from_eigenbasis(_spontaneous_integral(
                relevant, spectrum, ad_eig, t, grid, zetas, zdots))
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


def _spontaneous_integral(relevant, spectrum, ad_eig, s, nodes, zetas, zdots):
    """Trapezoid over nodes of sum_l w_l (zdot_l A_l - zeta_l div J_l)(-(s - t')),
    with ad_eig the A_l then the div J_l in the eigenbasis of H, contracted as
    one phase kernel sum_k c_kl mask(t_k - s) per member: no (nodes, d, d) stack."""
    w = relevant.weights
    coef = _trapezoid_weights(nodes)[:, None] * np.hstack([zdots * w, -zetas * w])
    phase = np.exp(1j * np.multiply.outer(nodes - s, spectrum.w) / spectrum.hbar)
    weighted = (coef[:, :, None] * phase[:, None, :]).reshape(len(nodes), -1)
    kernels = (weighted.T @ phase.conj()).reshape(ad_eig.shape)
    return np.einsum("lab,lab->ab", kernels, ad_eig)


def macrostate_of(rho, relevant, zeta_guess=None):
    """Lagrange parameters of the entropy-maximizing state matching rho.

    Feeds the expectations of the relevant observables in rho to the
    Newton matcher; failures (extremal expectations, rank problems)
    propagate from the solver.
    """
    targets = expectations(relevant, rho)
    return match_expectations(relevant, targets, zeta_init=zeta_guess)


# ---- parameter dynamics ------------------------------------------------------


@dataclass(frozen=True)
class MemoryKernelState:
    """Bookkeeping of the memory treatment used by a trajectory."""

    tau_cut: Optional[float]
    prep_nodes: int
    step: float


@dataclass
class ZetaTrajectory:
    labels: tuple
    times: np.ndarray
    zetas: np.ndarray
    zdots: np.ndarray
    memory: MemoryKernelState
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


def _macrostate(relevant, zeta):
    """Eigenbasis of w[zeta] and its eigenvalues, floored at EIG_FLOOR."""
    state, p, _ = _gibbs(relevant, zeta)
    return state, np.clip(p, EIG_FLOOR, None)


class _DynamicsEngine:
    """The parameter equation, with the spontaneous history as a stack of phased nodes."""

    def __init__(self, relevant, history, H, hbar, tau_cut, cond_max=1e12):
        if relevant.div_currents is None:
            raise ValueError("relevant set needs div_currents for the dynamics")
        self.relevant = relevant
        self.tau_cut = tau_cut
        self.cond_max = cond_max
        self.spectrum = Spectrum(H, hbar=hbar)
        self.commutators = [(1j / hbar) * (H @ a - a @ H) for a in relevant.operators]
        self.operands = stacked(list(relevant.operators) + self.commutators)
        self.ad_eig = eigenbasis_stack(self.spectrum,
                                       relevant.operators + relevant.div_currents)
        self.past = _PreparedHistory(relevant, history, self.spectrum)
        self.proj = gauge_projector(relevant)
        self.times = []
        self.stack = np.zeros((0,) + (len(self.spectrum.w),) * 2, dtype=complex)

    def _combo(self, zeta, zdot):
        w = self.relevant.weights
        return np.tensordot(np.concatenate([w * zdot, -w * zeta]), self.ad_eig, 1)

    def record(self, t, zeta, zdot):
        """Store the spontaneous history node at t, after every node stored so far."""
        self.times.append(t)
        phased = self.spectrum.dress_eig(self._combo(zeta, zdot), t)
        self.stack = np.concatenate([self.stack, phased[None]])

    def derivative(self, t, zeta):
        """zeta-dot at (t, zeta) given the recorded spontaneous history.

        The history integrand enters linearly through <C_j, O>, so all its
        pieces are summed in the eigenbasis of H before one correlation.
        """
        state, p = _macrostate(self.relevant, zeta)
        a_st, c_st = np.split(eigenbasis_stack(state, self.operands), 2)
        gram = kubo_matrix(p, a_st, a_st).real
        rhs = (np.diagonal(c_st, axis1=1, axis2=2) @ p).real

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
        operand += _phased_integral(self.spectrum, t, wq, self.stack[first:])
        operand += w_end * self._combo(zeta, np.zeros_like(zeta))
        operand = state.from_other(self.spectrum, operand)
        rhs += kubo_matrix(p, c_st, operand[None])[:, 0].real

        # ---- linear solve:  -(G + w_end K) diag(w) zdot = rhs -------------
        kmat = kubo_matrix(p, c_st, a_st).real if w_end else 0.0
        m = gram + w_end * kmat
        mw = m * self.relevant.weights[None, :]
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

    ts = [t0]
    zs = [zeta.copy()]
    zdots = []
    cond_seen = 0.0
    t = t0
    for _ in range(n_steps):
        f1, c1 = engine.derivative(t, zs[-1])
        engine.record(t, zs[-1], f1)
        zdots.append(f1)
        zm = zs[-1] + 0.5 * step * f1
        f2, c2 = engine.derivative(t + 0.5 * step, zm)
        zs.append(zs[-1] + step * f2)
        t += step
        ts.append(t)
        cond_seen = max(cond_seen, c1, c2)
    f_final, c_final = engine.derivative(t, zs[-1])
    zdots.append(f_final)
    cond_seen = max(cond_seen, c_final)

    return ZetaTrajectory(
        labels=relevant.labels,
        times=np.array(ts),
        zetas=np.array(zs),
        zdots=np.array(zdots),
        memory=MemoryKernelState(tau_cut=tau_cut,
                                 prep_nodes=len(history.prep_grid()),
                                 step=step),
        gram_cond_max=cond_seen,
    )


# ---- correlation decay -------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    """Correlation table C_jl(s) with the measured decay horizon.

    tau is the smallest sampled s* whose smoothed aggregate stays below the
    threshold fraction of its s = 0 value throughout [s*, 3 s*]; finite
    systems are quasiperiodic, so no_decay marks the (expected) case where
    no such s* exists within the sampled horizon.
    """

    tau: float
    no_decay: bool
    times: np.ndarray
    table: np.ndarray
    aggregate: np.ndarray
    labels: tuple


def decay_time(relevant, zeta, H, horizon, n_samples=61, threshold=0.05,
               hbar=1.0):
    """Correlation decay time of the commutator-density correlations.

    C_jl(s) = <(i/hbar)[H, A_j], A_l(-s)> in the state w[zeta]; the scalar
    aggregate contracts l with the current parameters (uniformly when zeta
    vanishes) and takes the 2-norm over j.
    """
    spectrum = Spectrum(H, hbar=hbar)
    state, p = _macrostate(relevant, zeta)
    c_st = eigenbasis_stack(state, [(1j / hbar) * (H @ a - a @ H)
                                    for a in relevant.operators])
    a_eig = eigenbasis_stack(spectrum, relevant.operators)
    times = np.linspace(0.0, horizon, n_samples)
    table = np.array([
        kubo_matrix(p, c_st,
                    state.from_other(spectrum, spectrum.dress_eig(a_eig, -s))).real
        for s in times])

    zeta = np.asarray(zeta, float)
    v = relevant.weights * (zeta if np.max(np.abs(zeta)) > 0 else 1.0)
    aggregate = np.linalg.norm(table @ v, axis=1)

    # time-reversal symmetry of real models makes the s = 0 value vanish
    # identically; reference the threshold to the kernel peak in that case
    scale = max(aggregate[0], float(aggregate.max()))
    if scale <= 1e-14 * max(1.0, float(np.max(np.abs(table))) if table.size else 1.0):
        return DecayReport(tau=0.0, no_decay=False, times=times, table=table,
                           aggregate=aggregate, labels=relevant.labels)
    level = threshold * scale
    for i, s_star in enumerate(times[1:], start=1):
        if 3.0 * s_star > horizon:
            break
        window = (times >= s_star) & (times <= 3.0 * s_star)
        if np.all(aggregate[window] <= level):
            return DecayReport(tau=float(s_star), no_decay=False, times=times,
                               table=table, aggregate=aggregate,
                               labels=relevant.labels)
    return DecayReport(tau=float(horizon), no_decay=True, times=times,
                       table=table, aggregate=aggregate,
                       labels=relevant.labels)


# ---- entropy monitor ---------------------------------------------------------


@dataclass(frozen=True)
class EntropySeries:
    times: np.ndarray
    entropy: np.ndarray
    dist_equilibrium: np.ndarray
    decreasing_steps: tuple
    min_step: float


def entropy_monitor(trajectory, relevant, conserved=None, step_tol=1e-6):
    """Macrostate entropy along a parameter trajectory, with equilibrium gap.

    For each sample, S(t) of w[zeta(t)]; steps decreasing by more than
    step_tol are flagged.  When a conserved relevant set is given (e.g.
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
    bad = tuple(int(i) for i in np.flatnonzero(steps < -step_tol))
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
    exponent = FieldOperator(total.basis, total.matrix, hermitian=True,
                             number_conserving=True, check=False)
    return exponent, {"e_o": e_o, "p_o": p_o, "e": e_x, "p": p_x, "rho": rho_x}
