"""Exact unitary dynamics: state evolution and Heisenberg dressing.

Propagators are built by Hermitian eigendecomposition rather than by any
stepping scheme: at desk-scale dimensions exactness of the unitary matters
more than speed.  Number-conserving generators are diagonalized per
particle-number sector (the basis enumeration keeps sectors contiguous),
which is the only performance lever needed here.
"""

from __future__ import annotations

import numpy as np

from .fock import FieldOperator

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10


class Spectrum:
    """Eigendecomposition of a Hermitian operator, blocked by particle number.

    op is a FieldOperator or a dense Hermitian matrix.  It is diagonalized
    block by block over the particle-number sectors of its basis (or the
    given sectors, for a dense matrix) when it couples none of them, and
    whole otherwise.  Dressing A -> exp(+iHt/hbar) A exp(-iHt/hbar) is an
    elementwise phase mask in the eigenbasis, computed afresh on each call;
    negative times give the retarded operators A(-s) of the history
    integrals.
    """

    def __init__(self, op, hbar=1.0, sectors=None):
        if isinstance(op, FieldOperator):
            sectors = op.basis.sector_slices()
            op = op.to_dense()
        m = np.asarray(op, dtype=complex)
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev >= HERMITICITY_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError(f"operator is not Hermitian: ||A - A^dag||_max = {dev:.3e}")
        if sectors is not None and np.count_nonzero(m) != sum(
                np.count_nonzero(m[sl, sl]) for _, sl in sectors):
            sectors = None
        self.hbar = hbar
        if sectors is None:
            self.w, self.v = np.linalg.eigh(m)
            return
        self.w = np.empty(len(m))
        self.v = np.zeros_like(m)
        for _, sl in sectors:
            self.w[sl], self.v[sl, sl] = np.linalg.eigh(m[sl, sl])

    def to_eigenbasis(self, A):
        m = A.matrix if isinstance(A, FieldOperator) else np.asarray(A)
        return self.v.conj().T @ (m @ self.v)

    def from_eigenbasis(self, m):
        return self.v @ m @ self.v.conj().T

    def dress_eig(self, A_eig, t):
        """Dress an operator already expressed in the eigenbasis."""
        phase = np.exp(1j * self.w * t / self.hbar)
        return np.outer(phase, phase.conj()) * A_eig

    def dress(self, A, t):
        return self.from_eigenbasis(self.dress_eig(self.to_eigenbasis(A), t))

    def unitary(self, t):
        """exp(-i op t / hbar) as a dense matrix."""
        return (self.v * np.exp(-1j * self.w * t / self.hbar)) @ self.v.conj().T

    def gibbs(self):
        """Weights of exp(op)/Z on the eigenvectors and log Z, via log-sum-exp."""
        shift = self.w.max()
        boltz = np.exp(self.w - shift)
        z = boltz.sum()
        return boltz / z, float(shift + np.log(z))


# the Heisenberg-dressing name of the same object
Dresser = Spectrum


def hermitian_eig(op):
    """Eigenpairs of a Hermitian FieldOperator, ascending within each sector."""
    spectrum = Spectrum(op)
    return spectrum.w, spectrum.v


def propagator(H, dt, hbar=1.0):
    """U = exp(-i H dt / hbar) for Hermitian H."""
    u = Spectrum(H, hbar=hbar).unitary(dt)
    unit_dev = np.max(np.abs(u @ u.conj().T - np.eye(len(u))))
    if unit_dev >= UNITARITY_TOL:
        raise AssertionError(f"propagator lost unitarity: {unit_dev:.3e}")
    return FieldOperator(H.basis, u, hermitian=False,
                         number_conserving=H.number_conserving, check=False)


def _step_unitaries(H_of_t, t0, t1, n_steps, hbar):
    """Dense midpoint-sampled propagators, first step first; one for a fixed H."""
    if isinstance(H_of_t, FieldOperator):
        return [propagator(H_of_t, t1 - t0, hbar=hbar).to_dense()]
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    dt = (t1 - t0) / n_steps
    return [propagator(H_of_t(t0 + (k + 0.5) * dt), dt, hbar=hbar).to_dense()
            for k in range(n_steps)]


def evolve_state(rho, H_of_t, t0, t1, n_steps=1, hbar=1.0):
    """rho(t1) = U rho U^dag composed over midpoint-sampled steps.

    H_of_t may be a FieldOperator (time-independent) or a callable t -> H.
    Unitary conjugation preserves trace, Hermiticity and spectrum exactly.
    """
    m = np.asarray(rho, dtype=complex)
    for u in _step_unitaries(H_of_t, t0, t1, n_steps, hbar):
        m = u @ m @ u.conj().T
    return m


def heisenberg(A, H_of_t, t0, t1, n_steps=1, hbar=1.0):
    """Heisenberg-evolved observable, the dual dressing of evolve_state.

    Satisfies Tr(A rho(t1)) = Tr(heisenberg(A) rho) for any initial rho:
    the steps act on A last step first.
    """
    m = A.to_dense() if isinstance(A, FieldOperator) else np.asarray(A, dtype=complex)
    for u in reversed(_step_unitaries(H_of_t, t0, t1, n_steps, hbar)):
        m = u.conj().T @ m @ u
    if not isinstance(A, FieldOperator):
        return m
    return FieldOperator(A.basis, m, hermitian=False, number_conserving=False,
                         check=False)
