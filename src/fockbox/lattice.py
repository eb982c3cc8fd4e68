"""1D lattice field model in a hard-walled box.

Discretizes the self-interacting field on L sites with spacing dx:
three-point Dirichlet Laplacian for the kinetic term (amplitudes vanish on
the virtual sites -1 and L), an external single-particle potential U(x, t),
and a normal-ordered finite-range density-density pair interaction
V(|x - y|).  Also builds the per-cell densities of the conserved families
(mass, momentum, energy) and the bond currents closing their discrete
continuity identities.

Every kinetic, external and density term is a one-body sum
sum_ij c_ij a_i^dag a_j with c a first-quantized coefficient matrix over the
(site, component) modes; ``fock.one_body`` reads its hops off the basis's
ladder gather table and its number terms off the occupation array.  The
normal-ordered interaction is diagonal in the occupation basis: cell x
carries (1/2) sum_y V_xy (N_x N_y - delta_xy N_x) with N_x the site
occupation, read off the occupation array too.  Each operator holds the
canonical matrix one_body returns, uncopied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fock import (
    BOSE,
    FERMI,
    FieldOperator,
    NumericalError,
    check_model,
    commutator,
    one_body,
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
            raise NumericalError("external potential evaluated to a non-finite value")
        return u

    def pair_matrix(self):
        by_distance = np.array([float(self.V(self.dx * k)) if self.dx * k <= self.range_V
                                else 0.0 for k in range(self.L)])
        v = by_distance[np.abs(np.subtract.outer(range(self.L), range(self.L)))]
        if not np.all(np.isfinite(v)):
            raise NumericalError("pair potential evaluated to a non-finite value")
        return v

    def single_particle_matrix(self, t=0.0):
        """First-quantized -(hbar^2/2m) Laplacian + U on the L sites."""
        c = self.hopping
        hop = np.full(self.L - 1, -c)
        return np.diag(np.full(self.L, 2.0 * c) + self.potential_vector(t)) \
            + np.diag(hop, 1) + np.diag(hop, -1)


@dataclass(frozen=True)
class NormalModeSet:
    """Eigenpairs of the single-particle box problem, energies ascending.

    mode_functions[r] is u_r over the flattened (site, component) grid,
    orthonormal under the lattice measure: sum_x dx u_r(x) u_s(x) = delta.
    """

    energies: np.ndarray
    mode_functions: np.ndarray
    dx: float


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
    return NormalModeSet(energies=np.repeat(w, model.g),
                         mode_functions=_modes(model, v.T), dx=model.dx)


def _modes(model, site_coeff):
    """A first-quantized site matrix acting alike on every internal component."""
    return np.kron(site_coeff, np.eye(model.g))


def _cell_ops(basis, model, cells, diagonals=None):
    """One Hermitian, number-conserving operator per cell, from the cell's
    first-quantized site matrix plus, optionally, a diagonal per state."""
    check_model(basis, model)
    return [FieldOperator._held(basis, one_body(basis, _modes(model, cell),
                                                0.0 if diagonals is None else diagonals[:, x]))
            for x, cell in enumerate(cells)]


def build_hamiltonian(basis, model, t=0.0):
    """Normal-ordered lattice Hamiltonian at time t.

    Kinetic: nearest-neighbor hopping -hbar^2/(2 m dx^2) with the +2
    diagonal kept (Dirichlet walls), so single-particle energies are
    positive.  Interaction: (1/2) sum V(|x-y|) psi^dag psi^dag psi psi,
    exactly as normal ordered - the vacuum energy is zero.
    """
    check_model(basis, model)
    m = one_body(basis, _modes(model, model.single_particle_matrix(t)),
                 _interaction_cells(basis, model).sum(axis=1))
    return FieldOperator._held(basis, m)


def _interaction_cells(basis, model):
    """(dim, L) diagonals: cell x's (1/2) sum_y V(|x-y|) psi^dag_x psi^dag_y psi_y psi_x,
    which is (1/2) sum_y V_xy (N_x N_y - delta_xy N_x) for either statistics."""
    v = model.pair_matrix()
    n = basis.occ.reshape(basis.dim, model.L, model.g).sum(axis=2)
    return 0.5 * n * (n @ v.T - np.diagonal(v))


def density_ops(basis, model):
    """Mass density rho(x) = m sum_sigma psi^dag psi, one operator per site.

    sum_x dx rho(x) = m N exactly.
    """
    cells = np.zeros((model.L,) * 3)
    cells[np.diag_indices(model.L, 3)] = model.mass / model.dx
    return _cell_ops(basis, model, cells)


def momentum_density_ops(basis, model):
    """Momentum density from the symmetrized central-difference form.

    p(x) = (i hbar / 2) [ (grad psi^dag)(x) psi(x) - psi^dag(x) (grad psi)(x) ]
    with Dirichlet virtual sites; sum_x dx p(x) is the total momentum.
    """
    pref = model.hbar / (4.0 * model.dx**2)
    cells = np.zeros((model.L,) * 3, dtype=complex)
    for x in range(model.L - 1):
        # both cells of the bond (x, x+1) carry its hops: +i toward x+1, -i back
        cells[[x, x + 1], x + 1, x] = 1j * pref
        cells[[x, x + 1], x, x + 1] = -1j * pref
    return _cell_ops(basis, model, cells)


def momentum_op(basis, model):
    """Total momentum, sum_x dx p(x)."""
    cells = momentum_density_ops(basis, model)
    return sum((c * model.dx for c in cells[1:]), cells[0] * model.dx)


def energy_density_ops(basis, model, t=0.0):
    """Energy density e(x) with the bond kinetic energy split symmetrically.

    Each interior bond's kinetic term is shared half/half between its two
    cells; the wall half-bonds belong to the single adjacent cell.  The
    external and interaction terms are cellwise as written.  By construction
    sum_x dx e(x) = H exactly.
    """
    L, c = model.L, model.hopping
    cells = np.zeros((L, L, L))
    half_bond = 0.5 * c * np.array([[1.0, -1.0], [-1.0, 1.0]])
    for x in range(L - 1):
        cells[[x, x + 1], x:x + 2, x:x + 2] += half_bond
    np.add.at(cells, ([0, L - 1],) * 3, c)  # the wall half-bonds
    cells[np.diag_indices(L, 3)] += model.potential_vector(t)
    return _cell_ops(basis, model, cells / model.dx,
                     _interaction_cells(basis, model) / model.dx)


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
    check_model(basis, model)
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
