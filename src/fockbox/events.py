"""Seeded events: anomalous mixtures carrying source memory to a detector.

A normal background whose classical parameters leave one region an exact
local vacuum can be corrected by a history term that moves a quanton from a
source region into that channel region.  The corrected operator is a
mixture of the untouched background (weight lambda, the probability the
source stays quiet) and an anomalous component built from the bilinear part
of the correction; observables shielded from the source region then read
the anomalous component alone, and differences between source kernels
survive as a strictly positive witness at the detector.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .fock import FieldOperator, one_body
from .propagate import evolve_state
from .subdynamics import Region, _fields, _region_modes, _require_vacuum, _traces

EVENT_VACUUM_TOL = 1e-8
SUPPORT_TOL = 1e-12


class InactiveSourceError(RuntimeError):
    """The source kernel annihilates the background: nothing can be emitted."""


class SupportViolationError(ValueError):
    """Detector observable couples occupations outside the channel region."""


@dataclass(frozen=True)
class EventSpec:
    """Mixture weight, source/channel regions and the emission kernel.

    kernel[y_index, x_index] couples channel site y (row, over omega_I) to
    source site x (column, over omega_S): the emission operator acts as
    A(y, sigma) = sum_x K(y, x) psi(x, sigma).  The time integral of the
    history record the kernel stands for is folded into K itself.  The
    background must be a vacuum in the channel to EVENT_VACUUM_TOL, and a
    detector may differ from the identity outside the channel by at most
    SUPPORT_TOL per matrix element.
    """

    lam: float
    source: Region
    channel: Region
    kernel: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ValueError("mixture weight must lie strictly inside (0, 1)")
        if set(self.source.sites) & set(self.channel.sites):
            raise ValueError("source and channel regions must be disjoint")
        k = np.asarray(self.kernel, dtype=complex)
        if k.shape != (len(self.channel), len(self.source)):
            raise ValueError(
                f"kernel shape {k.shape} != "
                f"({len(self.channel)}, {len(self.source)})"
            )
        object.__setattr__(self, "kernel", k)


@dataclass(frozen=True)
class EventMixture:
    """Mixture rho = lam rho_n + (1 - lam) rho_a with the induced kernel."""

    rho: np.ndarray
    rho_normal: np.ndarray
    rho_anomalous: np.ndarray
    lam: float
    quanton_kernel: np.ndarray


def _emission_operator(spec, basis, model):
    """S = sum_{y, sigma} dx psi^dag(y, sigma) A(y, sigma) as a canonical sparse
    matrix: moves one quanton from the source region into the channel.  With
    psi = a / sqrt(dx) it is the one-body operator sum K(y, x) a^dag_(y, sigma)
    a_(x, sigma), coefficients K (x) 1_g in the (channel, source) block."""
    modes = (_region_modes(basis, model, r) for r in (spec.channel, spec.source))
    coeff = np.zeros((basis.modes,) * 2, dtype=complex)
    coeff[np.ix_(*modes)] = np.kron(spec.kernel, np.eye(model.g))
    return one_body(basis, coeff)


def build_event_mixture(rho_normal, spec, basis, model):
    """Anomalous component and mixture seeded by the source kernel.

    The anomalous state is the normalized bilinear correction
    S rho_n S^dag / Tr(...) with S the emission operator; the induced
    one-quanton kernel Tr(A(y) rho_n A^dag(y')) is normalized to unit
    lattice trace and returned alongside.  The background must satisfy the
    vacuum condition in the channel to EVENT_VACUUM_TOL; an emission operator
    that annihilates the background raises InactiveSourceError.
    """
    rho_n = np.asarray(rho_normal, dtype=complex)
    _require_vacuum(rho_n, basis, model, spec.channel, EVENT_VACUUM_TOL,
                    what="normal component")
    s_op = _emission_operator(spec, basis, model)
    raw = s_op @ rho_n @ s_op.conj().T
    norm = np.trace(raw).real
    if norm <= 1e-14:
        raise InactiveSourceError(
            "inactive source: the emission kernel annihilates the background"
        )
    rho_a = raw / norm
    rho_a = 0.5 * (rho_a + rho_a.conj().T)

    kernel = _quanton_kernel(rho_n, spec, basis, model)
    mix = spec.lam * rho_n + (1.0 - spec.lam) * rho_a
    return EventMixture(rho=mix, rho_normal=rho_n, rho_anomalous=rho_a,
                        lam=spec.lam, quanton_kernel=kernel)


def _quanton_kernel(rho_n, spec, basis, model):
    """Normalized kernel Tr(A(y) rho_n A^dag(y')) over the channel grid: W C W^dag
    with W = K (x) 1_g and C[m, n] = Tr(psi_m rho_n psi_n^dag), the source fields'
    one-body density matrix, gathered from their table (source, amp) as
    sum_r amp[m, r] amp[n, r] rho_n[source[m, r], source[n, r]]."""
    source, amp = _fields(basis, model, spec.source)
    live = np.any(source >= 0, axis=0)  # the rows some source field lowers onto
    source, amp = source[:, live], amp[:, live]
    c = np.einsum("mr,nr,mnr->mn", amp, amp, rho_n[source[:, None], source])
    w = np.kron(spec.kernel, np.eye(model.g))
    kernel = w @ c @ w.conj().T
    trace = model.dx * np.trace(kernel).real
    if trace <= 1e-14:
        raise InactiveSourceError(
            "inactive source: the emission kernel annihilates the background"
        )
    return kernel / trace


def check_channel_support(B, basis, model, spec):
    """Raise unless B acts as identity outside the channel region, to SUPPORT_TOL.

    An operator built solely from fields at channel sites has vanishing
    matrix elements between occupation vectors that differ outside the
    channel, and inside a fixed outside configuration its elements do not
    depend on that configuration: each element must match the first one,
    in row-major order, with the same pair of channel occupations.  Both
    conditions are verified, and the first violation in row-major order is
    reported.
    """
    dense = B.to_dense() if isinstance(B, FieldOperator) else np.asarray(B)
    channel = np.zeros(basis.modes, dtype=bool)
    channel[_region_modes(basis, model, spec.channel)] = True
    _, inner = np.unique(basis.occ[:, channel], axis=0, return_inverse=True)
    _, outer = np.unique(basis.occ[:, ~channel], axis=0, return_inverse=True)
    same = outer[:, None] == outer[None, :]
    coupling = np.flatnonzero(~same & (np.abs(dense) > SUPPORT_TOL))
    # pairs within one outside configuration, keyed by their channel occupations
    within = np.flatnonzero(same)
    keys = (inner[:, None] * (inner.max() + 1) + inner[None, :]).ravel()[within]
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    values = dense.ravel()[within]
    varying = within[np.abs(values - values[first[which]]) > SUPPORT_TOL]
    if coupling.size and (not varying.size or coupling[0] < varying[0]):
        r, c = divmod(int(coupling[0]), basis.dim)
        raise SupportViolationError(
            "observable couples occupations outside the channel "
            f"(states {basis.states[r]} and {basis.states[c]})"
        )
    if varying.size:
        r, c = divmod(int(varying[0]), basis.dim)
        key = tuple(tuple(int(n) for n in basis.occ[k, channel]) for k in (r, c))
        raise SupportViolationError(
            "observable matrix elements depend on the occupation "
            f"outside the channel (inner pair {key})"
        )


@dataclass(frozen=True)
class ShieldedReport:
    lhs: float
    rhs: float
    shielding_residual: float


def shielded_expectation(B, mixture, H, t_bar, t, basis, model, spec, hbar=1.0):
    """Both sides of the shielded-detector identity, plus the leakage.

    lhs = Tr(B rho_t) for the evolved mixture; rhs = (1 - lam) times the
    evolved anomalous expectation; shielding_residual = the evolved normal
    expectation.  lhs - rhs equals lam times the residual identically, so
    the identity holds to the degree the detector is actually shielded.
    t may be a sequence of times, for which a list of reports is returned:
    the detector is checked once for the whole series, and the normal and
    anomalous components evolve as one stack to each time.
    """
    check_channel_support(B, basis, model, spec)
    bd = B.to_dense() if isinstance(B, FieldOperator) else np.asarray(B)
    pair = np.stack([mixture.rho_normal, mixture.rho_anomalous])
    lam, out = mixture.lam, []
    for t_k in np.atleast_1d(t):
        normal, anomalous = _traces(bd[None], evolve_state(pair, H, t_bar, t_k,
                                                           hbar=hbar))[0].real
        out.append(ShieldedReport(lhs=float(lam * normal + (1.0 - lam) * anomalous),
                                  rhs=float((1.0 - lam) * anomalous),
                                  shielding_residual=float(normal)))
    return out if np.ndim(t) else out[0]


def memory_witness(spec_one, spec_two, rho_normal, B, H, t_bar, t, basis,
                   model, hbar=1.0):
    """Detector-visible distinction between two source histories.

    Builds the two mixtures from the same background and mixture weight,
    evolves both to t and returns |Tr(B rho^(1)) - Tr(B rho^(2))|; zero for
    identical kernels, strictly positive when the channel transmits the
    distinction.  t may be a sequence of times, for which a list is
    returned: the mixtures are built and the detector checked once for the
    whole series, and H, which keeps its eigendecomposition, is
    diagonalized once.  Both mixtures evolve as one stack.
    """
    if spec_one.lam != spec_two.lam:
        raise ValueError("witness comparison needs equal mixture weights")
    for spec in {spec.channel: spec for spec in (spec_one, spec_two)}.values():
        check_channel_support(B, basis, model, spec)
    bd = B.to_dense() if isinstance(B, FieldOperator) else np.asarray(B)
    mixtures = np.stack([build_event_mixture(rho_normal, spec, basis, model).rho
                         for spec in (spec_one, spec_two)])
    out = []
    for t_k in np.atleast_1d(t):
        one, two = _traces(bd[None], evolve_state(mixtures, H, t_bar, t_k, hbar=hbar))[0].real
        out.append(float(abs(one - two)))
    return out if np.ndim(t) else out[0]
