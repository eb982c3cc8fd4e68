"""1D lattice field model in a hard-walled box.

Discretizes the self-interacting field on L sites with spacing dx:
three-point Dirichlet Laplacian for the kinetic term (amplitudes vanish on
the virtual sites -1 and L), an external single-particle potential U(x, t),
and a normal-ordered finite-range density-density pair interaction
V(|x - y|).  Also builds the per-cell densities of the conserved families
(mass, momentum, energy) and the bond currents closing their discrete
continuity identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .fock import (
    BOSE,
    FERMI,
    FieldOperator,
    annihilation,
    commutator,
    mode_index,
    number_operator,
    zero_operator,
)

CONTINUITY_TOL = 1e-10

MASS = "mass"
MOMENTUM = "momentum"
ENERGY = "energy"


class UnsupportedFamilyError(ValueError):
    """Continuity identity for the requested family does not close."""

    def __init__(self, family, defect):
        self.family = family
        self.defect = defect
        super().__init__(
            f"continuity identity for {family!r} does not close with "
            f"zero wall flux (defect norm {defect:.3e})"
        )


def _zero_potential(site, t=0.0):
    return 0.0


def _zero_pair(r):
    return 0.0


@dataclass(frozen=True)
class LatticeModel:
    """Geometry, units and potentials of the box model.

    U is a callable (site, t) -> real; V a callable of the physical pair
    distance r = dx * |i - j|, zero beyond range_V.  Hard walls: field
    amplitudes vanish on the virtual sites -1 and L.
    """

    L: int
    dx: float = 1.0
    g: int = 1
    statistics: str = BOSE
    mass: float = 1.0
    hbar: float = 1.0
    U: Callable = field(default=_zero_potential)
    V: Callable = field(default=_zero_pair)
    range_V: float = 0.0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("need L >= 1")
        if self.dx <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise ValueError("dx, mass and hbar must be positive")
        if self.statistics not in (BOSE, FERMI):
            raise ValueError(f"unknown statistics {self.statistics!r}")

    @property
    def hopping(self):
        """Kinetic prefactor hbar^2 / (2 m dx^2) of the Dirichlet Laplacian."""
        return self.hbar**2 / (2.0 * self.mass * self.dx**2)

    def potential_vector(self, t=0.0):
        u = np.array([float(self.U(x, t)) for x in range(self.L)])
        if not np.all(np.isfinite(u)):
            raise ValueError("external potential evaluated to a non-finite value")
        return u

    def pair_matrix(self):
        v = np.zeros((self.L, self.L))
        for i in range(self.L):
            for j in range(self.L):
                r = self.dx * abs(i - j)
                v[i, j] = float(self.V(r)) if r <= self.range_V else 0.0
        if not np.all(np.isfinite(v)):
            raise ValueError("pair potential evaluated to a non-finite value")
        return v

    def single_particle_matrix(self, t=0.0):
        """First-quantized -(hbar^2/2m) Laplacian + U on the L sites."""
        c = self.hopping
        h = np.diag(np.full(self.L, 2.0 * c) + self.potential_vector(t))
        for i in range(self.L - 1):
            h[i, i + 1] = -c
            h[i + 1, i] = -c
        return h


@dataclass(frozen=True)
class NormalModeSet:
    """Eigenpairs of the single-particle box problem, energies ascending.

    mode_functions[r] is u_r over the flattened (site, component) grid,
    orthonormal under the lattice measure: sum_x dx u_r(x) u_s(x) = delta.
    """

    energies: np.ndarray
    mode_functions: np.ndarray
    dx: float

    def check(self, model, tol=1e-10):
        n = len(self.energies)
        gram = self.mode_functions @ self.mode_functions.T * self.dx
        if np.max(np.abs(gram - np.eye(n))) > tol:
            raise AssertionError("mode functions are not lattice-orthonormal")


def normal_modes(model):
    """Stationary waves of the empty box: Dirichlet eigenproblem, ascending.

    With g > 1 every spatial mode appears once per internal component; the
    internal index is the fast (site-major) one and breaks energy ties
    deterministically.
    """
    h = model.single_particle_matrix(0.0) - np.diag(model.potential_vector(0.0))
    w, v = np.linalg.eigh(h)
    # lattice-measure normalization and a deterministic sign convention
    v = v / np.sqrt(model.dx)
    for r in range(model.L):
        col = v[:, r]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            v[:, r] = -col
    if model.g == 1:
        return NormalModeSet(energies=w.copy(), mode_functions=v.T.copy(),
                             dx=model.dx)
    n = model.L * model.g
    energies = np.empty(n)
    funcs = np.zeros((n, n))
    k = 0
    for r in range(model.L):
        for sigma in range(model.g):
            energies[k] = w[r]
            for x in range(model.L):
                funcs[k, mode_index(x, sigma, model.g)] = v[x, r]
            k += 1
    return NormalModeSet(energies=energies, mode_functions=funcs, dx=model.dx)


def _check_compatible(basis, model):
    if basis.modes != model.L * model.g:
        raise ValueError(
            f"basis has {basis.modes} modes, model needs {model.L * model.g}"
        )
    if basis.statistics != model.statistics:
        raise ValueError("basis and model statistics differ")


def _site_ops(basis, model):
    return [
        [annihilation(basis, mode_index(x, s, model.g)) for s in range(model.g)]
        for x in range(model.L)
    ]


def _quadratic(basis, ops, coeff):
    """sum_ij coeff[i, j] a_i^dag a_j over flat (site, component) labels."""
    flat = [a for row in ops for a in row]
    acc = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    for i, ai in enumerate(flat):
        for j, aj in enumerate(flat):
            c = coeff[i, j]
            if c != 0.0:
                acc = acc + c * (ai.dag() @ aj).matrix
    return acc


def build_hamiltonian(basis, model, t=0.0):
    """Normal-ordered lattice Hamiltonian at time t.

    Kinetic: nearest-neighbor hopping -hbar^2/(2 m dx^2) with the +2
    diagonal kept (Dirichlet walls), so single-particle energies are
    positive.  Interaction: (1/2) sum V(|x-y|) psi^dag psi^dag psi psi,
    exactly as normal ordered - the vacuum energy is zero.
    """
    _check_compatible(basis, model)
    ops = _site_ops(basis, model)
    h1 = model.single_particle_matrix(t)
    coeff = np.kron(h1, np.eye(model.g))
    acc = _quadratic(basis, ops, coeff)
    for _, term in _interaction_cell_terms(model, ops):
        acc = acc + term
    return FieldOperator(basis, acc, hermitian=True, number_conserving=True)


def _interaction_cell_terms(model, ops):
    """(x, term) for each energy cell x with an interaction part,
    (1/2) sum_y V(|x-y|) psi^dag_x psi^dag_y psi_y psi_x, as written cellwise."""
    v = model.pair_matrix()
    for x in range(model.L):
        terms = [0.5 * v[x, y] * (ops[x][s].dag() @ ops[y][sp_].dag()
                                  @ ops[y][sp_] @ ops[x][s]).matrix
                 for y in range(model.L) if v[x, y] != 0.0
                 for s in range(model.g) for sp_ in range(model.g)]
        if terms:
            yield x, sum(terms[1:], terms[0])


def density_ops(basis, model):
    """Mass density rho(x) = m sum_sigma psi^dag psi, one operator per site.

    sum_x dx rho(x) = m N exactly.
    """
    _check_compatible(basis, model)
    out = []
    for x in range(model.L):
        acc = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
        for s in range(model.g):
            n = number_operator(basis, mode_index(x, s, model.g))
            acc = acc + n.matrix
        acc = acc * (model.mass / model.dx)
        out.append(FieldOperator(basis, acc, hermitian=True,
                                 number_conserving=True, check=False))
    return out


def momentum_density_ops(basis, model):
    """Momentum density from the symmetrized central-difference form.

    p(x) = (i hbar / 2) [ (grad psi^dag)(x) psi(x) - psi^dag(x) (grad psi)(x) ]
    with Dirichlet virtual sites; sum_x dx p(x) is the total momentum.
    """
    _check_compatible(basis, model)
    ops = _site_ops(basis, model)
    pref = model.hbar / (4.0 * model.dx**2)
    out = []
    for x in range(model.L):
        acc = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
        for s in range(model.g):
            ax = ops[x][s]
            if x + 1 < model.L:
                an = ops[x + 1][s]
                acc = acc + 1j * pref * ((an.dag() @ ax).matrix
                                         - (ax.dag() @ an).matrix)
            if x - 1 >= 0:
                ap = ops[x - 1][s]
                acc = acc + 1j * pref * ((ax.dag() @ ap).matrix
                                         - (ap.dag() @ ax).matrix)
        out.append(FieldOperator(basis, acc, hermitian=True,
                                 number_conserving=True, check=False))
    return out


def momentum_op(basis, model):
    """Total momentum, sum_x dx p(x)."""
    cells = momentum_density_ops(basis, model)
    total = cells[0] * model.dx
    for c in cells[1:]:
        total = total + c * model.dx
    return FieldOperator(basis, total.matrix, hermitian=True,
                         number_conserving=True, check=False)


def energy_density_ops(basis, model, t=0.0):
    """Energy density e(x) with the bond kinetic energy split symmetrically.

    Each interior bond's kinetic term is shared half/half between its two
    cells; the wall half-bonds belong to the single adjacent cell.  The
    external and interaction terms are cellwise as written.  By construction
    sum_x dx e(x) = H exactly.
    """
    _check_compatible(basis, model)
    ops = _site_ops(basis, model)
    c = model.hopping
    u = model.potential_vector(t)
    cells = [sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
             for _ in range(model.L)]
    for s in range(model.g):
        for x in range(model.L):
            n_x = (ops[x][s].dag() @ ops[x][s]).matrix
            # wall half-bonds
            if x == 0:
                cells[x] = cells[x] + c * n_x
            if x == model.L - 1:
                cells[x] = cells[x] + c * n_x
            # interior bond (x, x+1), split half/half
            if x + 1 < model.L:
                an = ops[x + 1][s]
                n_n = (an.dag() @ an).matrix
                hop = (an.dag() @ ops[x][s]).matrix + (ops[x][s].dag() @ an).matrix
                bond = c * (n_x + n_n - hop)
                cells[x] = cells[x] + 0.5 * bond
                cells[x + 1] = cells[x + 1] + 0.5 * bond
            cells[x] = cells[x] + u[x] * n_x
    for x, term in _interaction_cell_terms(model, ops):
        cells[x] = cells[x] + term
    return [FieldOperator(basis, m * (1.0 / model.dx), hermitian=True,
                          number_conserving=True, check=False)
            for m in cells]


def family_density_ops(basis, model, family, t=0.0):
    if family == MASS:
        return density_ops(basis, model)
    if family == MOMENTUM:
        return momentum_density_ops(basis, model)
    if family == ENERGY:
        return energy_density_ops(basis, model, t)
    raise ValueError(f"unknown conserved family {family!r}")


@dataclass(frozen=True)
class CurrentSet:
    """Bond currents J(x + 1/2) for one conserved family.

    bonds[b] sits between sites b-1 and b (b = 0 is the left wall bond,
    b = L the right wall bond), so the lattice continuity identity reads
    (i/hbar) [H, A(x)] = -(bonds[x+1] - bonds[x]) / dx at every site x.
    wall_defect is the norm of the right-wall flux; it vanishes for the
    families conserved in the box (mass, energy) while for momentum the
    wall bonds carry the force the walls and the external field exert.
    """

    family: str
    bonds: tuple
    wall_defect: float


def current_ops(basis, model, family, t=0.0, require_closed_walls=None):
    """Bond currents closing the continuity identity for one family.

    The flux through bond b is accumulated from the commutators of all
    cells left of the bond (a two-site Irving-Kirkwood style assignment),
    so the per-site identity is exact by construction.  Mass and energy
    close with zero flux through both walls; momentum is returned with the
    right-wall bond carrying the total force, unless require_closed_walls
    is set, in which case a non-closing family raises.
    """
    _check_compatible(basis, model)
    if require_closed_walls is None:
        require_closed_walls = family in (MASS, ENERGY)
    h = build_hamiltonian(basis, model, t)
    cells = family_density_ops(basis, model, family, t)
    bonds = [zero_operator(basis)]
    for x in range(model.L):
        dot = commutator(h, cells[x]) * (1j / model.hbar)
        bonds.append(bonds[-1] - dot * model.dx)
    defect = bonds[-1].max_abs()
    if require_closed_walls and defect > CONTINUITY_TOL:
        raise UnsupportedFamilyError(family, defect)
    bonds = [b.as_hermitian(tol=1e-9) if b.is_hermitian(tol=1e-9) else b
             for b in bonds]
    return CurrentSet(family=family, bonds=tuple(bonds), wall_defect=defect)


def divergence_ops(current_set, model):
    """Per-cell divergence (J(x+1/2) - J(x-1/2)) / dx of a current set."""
    bonds = current_set.bonds
    return [(bonds[x + 1] - bonds[x]) * (1.0 / model.dx)
            for x in range(len(bonds) - 1)]


# ---- named potential presets (used by the scenario configs) ----------------


def potential_preset(name, L, dx=1.0, **kw):
    """Named external potentials: box, barrier, harmonic, table."""
    if name == "box":
        return _zero_potential
    if name == "barrier":
        height = float(kw.get("height", 10.0))
        sites = set(int(s) for s in kw.get("sites", [L // 2]))

        def barrier(site, t=0.0):
            return height if site in sites else 0.0

        return barrier
    if name == "harmonic":
        k = float(kw.get("k", 1.0))
        center = float(kw.get("center", (L - 1) / 2.0))

        def harmonic(site, t=0.0):
            return 0.5 * k * (dx * (site - center)) ** 2

        return harmonic
    if name == "table":
        values = [float(v) for v in kw["values"]]
        if len(values) != L:
            raise ValueError(f"potential table needs {L} entries, got {len(values)}")

        def table(site, t=0.0):
            return values[site]

        return table
    raise ValueError(f"unknown potential preset {name!r}")


def pair_preset(name, dx=1.0, **kw):
    """Named pair potentials; returns (callable, range_V)."""
    if name == "none":
        return _zero_pair, 0.0
    if name == "contact":
        v0 = float(kw.get("v0", 1.0))

        def contact(r):
            return v0 if r == 0.0 else 0.0

        return contact, 0.0
    if name == "table":
        values = [float(v) for v in kw["values"]]

        def table(r):
            k = int(round(r / dx))
            return values[k] if 0 <= k < len(values) else 0.0

        return table, dx * (len(values) - 1)
    raise ValueError(f"unknown pair potential preset {name!r}")
