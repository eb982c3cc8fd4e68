"""Embedding of one- and two-quanton states into field statistical operators.

A region of the lattice in which the background state is locally a perfect
vacuum can carry an additional quanton: the embedded field state solves the
full Liouville-von Neumann equation exactly (up to an operator-valued
boundary term measured here, not assumed away) while the quanton amplitude
obeys the ordinary one-particle Schroedinger equation inside the region.
Field observables induce kernels and positive-operator-valued spectral
families on the one-particle space; their drift under the background
evolution quantifies whether the surroundings act as a stable measuring
device.

One-particle kernels carry the lattice measure: inner products are
sum_y dx conj(a) b, an operator kernel K(y, y') acts with one dx-weighted
sum, and the matrix in the orthonormalized site basis is dx * K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fock import FieldOperator, NumericalError, check_model

VACUUM_TOL = 1e-10
SYMMETRY_TOL = 1e-10


class VacuumConditionError(ValueError):
    """Background state is not locally vacuum; carries the measured residual."""

    def __init__(self, residual, tol, what="background"):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"{what} violates the vacuum condition in the region "
            f"(strong residual {residual:.3e} >= {tol:.0e})"
        )


@dataclass(frozen=True)
class Region:
    """Contiguous site set with its outermost layer as the boundary."""

    sites: tuple

    def __post_init__(self):
        s = tuple(sorted(int(x) for x in self.sites))
        if not s:
            raise ValueError("region is empty")
        if any(b - a != 1 for a, b in zip(s, s[1:])):
            raise ValueError("region sites must be contiguous")
        object.__setattr__(self, "sites", s)

    def __len__(self):
        return len(self.sites)

    def check_inside(self, model):
        if self.sites[0] < 0 or self.sites[-1] >= model.L:
            raise ValueError(f"region {self.sites} leaves the lattice [0, {model.L})")


def region(sites):
    return Region(sites=tuple(sites))


@dataclass
class OneQuantonState:
    """Complex amplitude field on a region, unit norm in the lattice measure."""

    region: Region
    amplitudes: np.ndarray  # shape (len(region), g)
    dx: float

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim == 1:
            a = a[:, None]
        if a.shape[0] != len(self.region):
            raise ValueError("amplitude grid does not match the region")
        self.amplitudes = a

    @property
    def g(self):
        return self.amplitudes.shape[1]

    def norm(self):
        return float(np.sqrt(self.dx * np.sum(np.abs(self.amplitudes) ** 2)))

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return OneQuantonState(self.region, self.amplitudes / n, self.dx)


def one_quanton(region_, amplitudes, dx=1.0):
    return OneQuantonState(region_, np.asarray(amplitudes, complex), dx).normalized()


def gaussian_packet(region_, center, width, k=0.0, dx=1.0, g=1):
    """Normalized Gaussian amplitude exp(-(x-c)^2/(4 w^2) + i k x) on a region."""
    xs = np.array(region_.sites, dtype=float)
    amp = np.exp(-((xs - center) ** 2) / (4.0 * width**2) + 1j * k * xs)
    a = np.zeros((len(region_), g), dtype=complex)
    a[:, 0] = amp
    return one_quanton(region_, a, dx=dx)


@dataclass(frozen=True)
class VacuumResidual:
    """Norms measuring how far a state is from local vacuum in a region.

    strong: max over region sites of ||psi(y) rho||_F (perfect vacuum);
    pairwise: max over site pairs of ||psi(y) psi(y') rho||_F (the weaker
    interaction-free condition).
    """

    strong: float
    pairwise: float


def _region_modes(basis, model, region_):
    """The modes of a region's (site, component) grid: contiguous sites and a
    site-major mode order make them one range."""
    check_model(basis, model)
    region_.check_inside(model)
    return range(region_.sites[0] * model.g, (region_.sites[-1] + 1) * model.g)


def _fields(basis, model, region_):
    """The region's fields psi = a / sqrt(dx), site-major, in the gather form
    (source, amp) of FockBasis.ladder: the region's rows of its table."""
    modes = _region_modes(basis, model, region_)
    source, amp = (a[modes.start:modes.stop] for a in basis.ladder)
    return source, amp * (1.0 / math.sqrt(model.dx))


def _field_sums(basis, model, region_, weights):
    """sum_m weights[i, m] psi_m over the region's fields, site-major, for each
    row i of weights, as a dense (n, d, d) stack; the ladder amplitudes are real,
    so its transpose is sum_m weights[i, m] psi_m^dag.  Distinct fields share no
    stored position, so each entry is one product."""
    source, amp = _fields(basis, model, region_)
    mode, row = np.nonzero(source >= 0)
    weights = np.reshape(weights, (len(weights), -1))
    out = np.zeros((len(weights), basis.dim, basis.dim), dtype=complex)
    out[:, row, source[mode, row]] = weights[:, mode] * amp[mode, row]
    return out


def _traces(x, y):
    """[r, c] -> Tr(x_r y_c) for two (n, d, d) stacks."""
    return np.einsum("rij,cji->rc", x, y)


def vacuum_residual(rho, basis, model, region_):
    """Read off the squared row norms q of rho: psi_m^dag psi_m = n_m / dx and
    psi_m^dag psi_n^dag psi_n psi_m = n_m (n_n - delta_mn) / dx^2 are diagonal
    for either statistics, so ||psi_m rho||_F^2 = sum_s n_m(s) q(s) / dx, and
    the pairwise norms are sums of q weighted the same way."""
    occ = basis.occ[:, _region_modes(basis, model, region_)]
    weighted = occ * (np.einsum("ij,ij->i", rho, np.conj(rho)).real / model.dx)[:, None]
    pairs = weighted.T @ occ
    np.fill_diagonal(pairs, np.sum(weighted * (occ - 1), axis=0))
    return VacuumResidual(strong=math.sqrt(weighted.sum(axis=0).max()),
                          pairwise=math.sqrt(pairs.max() / model.dx))


def _require_vacuum(rho, basis, model, region_, tol, what="background"):
    """Raise VacuumConditionError unless the strong residual max_y ||psi(y) rho||
    is below tol."""
    strong = vacuum_residual(rho, basis, model, region_).strong
    if strong >= tol:
        raise VacuumConditionError(strong, tol, what)


def _creator_for(psi, basis, model):
    """B = sum_{y,sigma} dx Psi(y,sigma) psi^dag(y,sigma)."""
    return _field_sums(basis, model, psi.region, [model.dx * psi.amplitudes])[0].T


def embed(state, rho_prime, basis, model, region_):
    """Dress a vacuum-in-region background with a one-quanton state.

    state is either a OneQuantonState (pure case) or a Hermitian PSD kernel
    matrix over the region grid, unit trace in the lattice measure
    (dx * sum of the diagonal = 1).  The result is Hermitian, positive
    semidefinite and of unit trace whenever the background satisfies the
    strong vacuum condition (residual below VACUUM_TOL) and has truncation
    headroom for one more particle.
    """
    rho_prime = np.asarray(rho_prime, dtype=complex)
    _require_vacuum(rho_prime, basis, model, region_, VACUUM_TOL)
    if isinstance(state, OneQuantonState):
        b = _creator_for(state, basis, model)
        out = b @ rho_prime @ b.conj().T
    else:
        kernel = np.asarray(state, dtype=complex)
        n = len(region_) * model.g
        if kernel.shape != (n, n):
            raise ValueError(f"kernel shape {kernel.shape} != {(n, n)}")
        # orthonormal-basis matrix of the kernel; eigenvectors give the
        # pure components of the mixture
        mat = model.dx * kernel
        evals, evecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
        if evals.min() < -1e-10:
            raise ValueError(f"kernel is not positive (eigenvalue {evals.min():.3e})")
        keep = evals > 1e-14
        # the components' amplitudes are the eigenvectors over sqrt(dx); their
        # creators are the transposed field sums f, so b rho' b^dag = f^T rho' conj(f)
        f = _field_sums(basis, model, region_, np.sqrt(model.dx) * evecs.T[keep])
        out = np.tensordot(evals[keep], f.transpose(0, 2, 1) @ rho_prime @ f.conj(), 1)
    tr = np.trace(out).real
    if abs(tr - 1.0) > 1e-10:
        raise NumericalError(
            f"embedded trace {tr:.12f} != 1; check normalization and that the "
            f"background leaves truncation headroom for one more particle"
        )
    return out


def extract_pure(rho_embedded, basis, model, region_):
    """Recover the quanton amplitudes from a purely embedded vacuum state.

    Takes the dominant eigenvector of the one-particle block and fixes the
    global phase against the first amplitude, or against the largest one
    when the first is below 1e-12 in modulus.
    """
    rho = np.asarray(rho_embedded)
    w, v = np.linalg.eigh(rho)
    vec = v[:, -1]
    one = np.eye(basis.modes, dtype=np.int64)[_region_modes(basis, model, region_)]
    amps = (vec[basis.rank(one)] / np.sqrt(model.dx)).reshape(len(region_), model.g)
    flat = amps.ravel()
    ref = flat[0] if np.abs(flat[0]) > 1e-12 else flat[np.argmax(np.abs(flat))]
    amps = amps * (np.abs(ref) / ref)
    return OneQuantonState(region_, amps, model.dx)


def reduced_schrodinger_step(psi, model, t, dt):
    """One-particle unitary step on the region with hard walls at its edge.

    The generator is the Dirichlet Laplacian restricted to the region plus
    the external potential sampled at the step midpoint; the norm is
    preserved exactly by construction.
    """
    reg = psi.region
    h1 = model.single_particle_matrix(t + 0.5 * dt)[np.ix_(reg.sites, reg.sites)]
    w, v = np.linalg.eigh(h1)
    u = (v * np.exp(-1j * w * dt / model.hbar)) @ v.conj().T
    return OneQuantonState(reg, u @ psi.amplitudes, psi.dx)


def reduced_path(psi0, model, t0, dt, n_steps):
    """Sampled reduced-equation trajectory [psi(t0), ..., psi(t0 + n dt)]."""
    path = [psi0]
    for i in range(n_steps):
        path.append(reduced_schrodinger_step(path[-1], model, t0 + i * dt, dt))
    return path


@dataclass(frozen=True)
class ResidualReport:
    value: float
    coarse_value: float
    grid_too_coarse: bool


def embedding_residual(psi_path, rho_prime_path, H, model, region_, dt):
    """How far the embedded trajectory is from solving the full dynamics.

    Central-difference time derivative of the embedded state against
    -(i/hbar)[H, rho] at the middle grid point m // 2, where H is the field
    Hamiltonian, a FieldOperator on the states' basis; also evaluated on the
    doubled stencil, and flagged when the two differ by more than 10% (grid
    too coarse to trust the derivative).
    """
    m = len(psi_path)
    if len(rho_prime_path) != m:
        raise ValueError("paths differ in length")
    if m < 5:
        raise ValueError("need at least 5 grid points")
    k = m // 2
    basis, hd = H.basis, H.to_dense()

    def embedded(i):
        return embed(psi_path[i], rho_prime_path[i], basis, model, region_)

    rho_m = embedded(k)
    comm = hd @ rho_m - rho_m @ hd

    def resid(step):
        d = (embedded(k + step) - embedded(k - step)) / (2.0 * step * dt)
        return float(np.linalg.norm(d + 1j / model.hbar * comm))

    value = resid(1)
    coarse = resid(2)
    too_coarse = abs(coarse - value) > 0.1 * max(value, 1e-300)
    return ResidualReport(value=value, coarse_value=coarse,
                          grid_too_coarse=bool(too_coarse))


def surface_term(psi, rho_prime, basis, model, region_):
    """Discrete operator-valued boundary term and its Frobenius norm.

    One-sided outward differences of the quanton amplitude at the region's
    outermost sites, contracted with psi^dag rho' psi; its size controls the
    feasibility of treating the embedded quanton as autonomous.
    """
    rho_prime = np.asarray(rho_prime, dtype=complex)
    reg, amps = psi.region, psi.amplitudes
    grad = np.zeros_like(amps)
    inner = amps[[1, -2]] if len(reg) > 1 else 0.0
    grad[[0, -1]] = (amps[[0, -1]] - inner) / model.dx
    # G = sum grad psi^dag over the boundary, C = sum Psi psi^dag over the region
    g_dag, c_dag = _field_sums(basis, model, reg, [grad, amps]).transpose(0, 2, 1)
    pref = model.hbar**2 / (2.0 * model.mass) * model.dx
    acc = pref * (g_dag @ rho_prime @ c_dag.conj().T - c_dag @ rho_prime @ g_dag.conj().T)
    return acc, float(np.linalg.norm(acc))


@dataclass
class ReducedObservable:
    """Kernel of a field observable induced on the one-particle space.

    kernel[(y', s'), (y, s)] = Tr(A psi^dag(y, s) rho' psi(y', s')); the
    matrix in the orthonormalized basis is dx * kernel.  pov maps spectral
    windows (lo, hi) to the induced positive kernels of the corresponding
    spectral projectors.
    """

    region: Region
    kernel: np.ndarray
    dx: float
    pov: Optional[dict] = field(default=None)

    @property
    def matrix(self):
        return self.dx * self.kernel

    def pov_matrix(self, window):
        return self.dx * self.pov[window]

    def expectation(self, state):
        if isinstance(state, OneQuantonState):
            v = np.sqrt(self.dx) * state.amplitudes.ravel()
            return complex(v.conj() @ self.matrix @ v)
        return complex(np.trace(self.matrix @ (self.dx * np.asarray(state))))


def induced_observable(A, rho_prime, basis, model, region_, windows=None):
    """Kernel (and optionally the spectral-window POV family) induced by A.

    Also verifies the exact splitting of the kernel into the lattice delta
    times Tr(A rho') plus the commutator remainder; the two constructions
    must agree elementwise, which is returned as split_deviation.
    """
    rho_prime = np.asarray(rho_prime, dtype=complex)
    a = A.to_dense() if isinstance(A, FieldOperator) else np.asarray(A, complex)
    # psi(y', sigma') by row, psi^dag(y, sigma) by column
    fields = _field_sums(basis, model, region_, np.eye(len(region_) * model.g))
    adjoints = fields.conj().transpose(0, 2, 1)
    sandwich = adjoints @ rho_prime
    kernel = _traces(fields, a @ sandwich)

    # splitting: lattice delta * Tr(A rho') + symmetrized commutator kernel
    tr_a = np.trace(a @ rho_prime)
    split = 0.5 * (_traces(fields @ a - a @ fields, sandwich)
                   + _traces(fields, (a @ adjoints - adjoints @ a) @ rho_prime))
    split += np.eye(len(fields)) * (tr_a / model.dx)
    split_dev = float(np.max(np.abs(kernel - split)))

    pov = None
    if windows is not None:
        w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        pov = {}
        for lo, hi in windows:
            sel = (w >= lo) & (w < hi)
            proj = v[:, sel] @ v[:, sel].conj().T
            pov[(lo, hi)] = _traces(fields, proj @ sandwich)

    out = ReducedObservable(region=region_, kernel=kernel, dx=model.dx, pov=pov)
    out.split_deviation = split_dev
    return out


def observable_drift(A, rho_prime_path, basis, model, region_):
    """max_t ||A1_t - A1_{t0}|| / ||A1_{t0}|| along a background path."""
    kernels = [induced_observable(A, r, basis, model, region_).matrix
               for r in rho_prime_path]
    ref = kernels[0]
    ref_norm = float(np.linalg.norm(ref))
    if ref_norm == 0.0:
        raise ValueError("reference kernel vanishes")
    return max(float(np.linalg.norm(k - ref)) for k in kernels) / ref_norm


def embed_two_quanton(psi2, rho_prime, basis, model, region_):
    """Two-quanton embedding with the 1/2! collision of orderings.

    psi2 is the amplitude matrix over the flattened (site, component) grid
    of the region, (anti)symmetric to match the field statistics (to
    SYMMETRY_TOL) and normalized so that dx^2 * sum |psi2|^2 = 1; then the
    embedded state has unit trace over a vacuum-condition background
    (residual below VACUUM_TOL) with two particles of truncation headroom.
    """
    from .fock import BOSE

    rho_prime = np.asarray(rho_prime, dtype=complex)
    _require_vacuum(rho_prime, basis, model, region_, VACUUM_TOL)
    n = len(region_) * model.g
    psi2 = np.asarray(psi2, dtype=complex)
    if psi2.shape != (n, n):
        raise ValueError(f"two-quanton amplitude must be {(n, n)}, got {psi2.shape}")
    sign = 1.0 if model.statistics == BOSE else -1.0
    sym_dev = float(np.max(np.abs(psi2 - sign * psi2.T)))
    if sym_dev > SYMMETRY_TOL:
        kind = "symmetric" if sign > 0 else "antisymmetric"
        raise ValueError(
            f"two-quanton amplitude is not {kind} for {model.statistics} "
            f"statistics (deviation {sym_dev:.3e})"
        )
    # b = sum_i psi^dag_i B_i with B_i = sum_j dx^2 psi2_ij psi^dag_j: the adjoint
    # field stack times the B_i stacked
    creators = _field_sums(basis, model, region_, model.dx**2 * psi2).transpose(0, 2, 1)
    fields = _field_sums(basis, model, region_, np.eye(n)).reshape(-1, basis.dim)
    b = fields.conj().T @ creators.reshape(-1, basis.dim)
    out = 0.5 * (b @ rho_prime @ b.conj().T)
    tr = np.trace(out).real
    if abs(tr - 1.0) > 1e-10:
        raise NumericalError(
            f"two-quanton trace {tr:.12f} != 1; check the symmetrized "
            f"normalization dx^2 sum |psi2|^2 = 1 and truncation headroom"
        )
    return out
