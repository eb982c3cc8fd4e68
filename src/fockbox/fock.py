"""Truncated Fock spaces and the creation/annihilation operator algebra.

The state space is the span of occupation-number vectors over ``L * g``
modes (``g`` internal components per lattice site, site-major ordering),
truncated by *total* particle number ``n_max``.  Truncation by total number
keeps every fixed-particle sector intact, which is what the one- and
two-quanton constructions elsewhere in the package rely on.

Enumeration is deterministic: states are sorted by total occupation first,
then lexicographically with mode 0 as the least significant digit, so two
builds of the same basis are bit-identical.  A basis also holds its states
as one integer array ``occ`` and ranks occupation arrays back to ordinals
combinatorially (Zhang & Dong, Eur. J. Phys. 31, 591 (2010)).  It holds its
ladder operators as one gather table, built once, on first use, by one
vectorized pass over ``occ`` that ranks every lowered state, and freed with
it.  Every one-body operator reads its hops off that table and its number
terms off ``occ``, with no further ranking.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# scipy.sparse is imported where a sparse matrix is built, so that a process
# which builds no operator does not pay for it

# defined in the numpy-free config, re-exported here
from .config import BOSE, DIM_CAP_ENV, FERMI, dim_cap_from_env, fock_dimension

HERMITICITY_TOL = 1e-12


class DimensionCapError(ValueError):
    """Basis construction refused: dimension exceeds the configured cap."""

    def __init__(self, dim, cap, statistics, modes, n_max):
        self.dim = dim
        self.cap = cap
        super().__init__(
            f"Fock dimension {dim} exceeds cap {cap} "
            f"({statistics}, {modes} modes, n_max={n_max}); "
            f"raise the cap explicitly or via {DIM_CAP_ENV} if intended"
        )


class NumericalError(ValueError):
    """A computed value is not finite, or lost its Hermiticity, positivity or trace."""


def mode_index(site, component, g):
    """Canonical dense mode label for (site, component), site-major."""
    if component < 0 or component >= g:
        raise ValueError(f"component {component} outside [0, {g})")
    return site * g + component


@dataclass(frozen=True)
class FockBasis:
    """Enumerated truncated occupation-number basis.

    states[i] is the i-th occupation vector (length ``modes``); ``index``
    maps the tuple back to its ordinal.  ``sectors`` lists the contiguous
    (start, stop) index range of each total-particle-number block, in
    ascending particle number.  ``occ`` holds the states as one integer
    array and ``ladder`` every a_m as one gather table, both built on first
    use.  The table is the one held form of the a_m: annihilation reads a_m
    off row m, a region's fields, whose modes are contiguous, are a row slice
    of it, and one_body reads every hop a_i^dag a_j off it.  Among the
    operator builders, only the table ranks states.
    """

    statistics: str
    modes: int
    n_max: int
    states: tuple = field(repr=False)
    index: dict = field(repr=False)
    sectors: tuple = field(repr=False)

    @property
    def dim(self):
        return len(self.states)

    def sector_slices(self):
        return [(n, slice(a, b)) for n, a, b in self.sectors]

    def state_ordinal(self, occupation):
        return self.index[tuple(int(n) for n in occupation)]

    def vacuum_ordinal(self):
        return self.index[(0,) * self.modes]

    def basis_vector(self, occupation):
        v = np.zeros(self.dim, dtype=complex)
        v[self.state_ordinal(occupation)] = 1.0
        return v

    def totals(self):
        return self.occ.sum(axis=1)

    @cached_property
    def occ(self):
        """The states as one read-only (dim, modes) integer array."""
        occ = np.array(self.states, dtype=np.int64).reshape(self.dim, self.modes)
        occ.flags.writeable = False
        return occ

    @cached_property
    def _rank_table(self):
        """Sector starts by particle number, and below[k, r]: the number of
        occupations of modes 0..k-1 with total at most r."""
        below = [[fock_dimension(self.statistics, k, r) if k else 1
                  for r in range(self.n_max + 1)] for k in range(self.modes)]
        return np.array([a for _, a, _ in self.sectors]), np.array(below, dtype=np.int64)

    def rank(self, occ):
        """Ordinals of the occupation vectors in the rows of occ, all in the basis.

        Within a sector the states ascend with the last mode most
        significant, so a state is preceded by those that agree on the modes
        above k and hold fewer quanta in mode k, for every k.
        """
        starts, below = self._rank_table
        cum = np.cumsum(occ, axis=1)
        modes = np.arange(self.modes)
        preceding = below[modes, cum] - below[modes, cum - occ]
        return starts[cum[:, -1]] + preceding.sum(axis=1)

    @cached_property
    def ladder(self):
        """Every a_m as a gather table (source, amp) of two read-only (modes, dim)
        arrays: row r of a_m holds amp[m, r] in column source[m, r], the state a_m
        lowers onto r, or nothing where source is -1 and amp 0.  One pass lowers each
        occupied (state, mode) pair, ranks the target and takes the Bose sqrt(n) or
        the Jordan-Wigner sign (-1)**(number of occupied modes of smaller index)."""
        occ = self.occ
        states, modes = np.nonzero(occ)
        lowered = occ[states]
        lowered[np.arange(len(states)), modes] -= 1
        source, amp = np.full((self.modes, self.dim), -1), np.zeros((self.modes, self.dim))
        at = modes, self.rank(lowered)
        source[at] = states
        amp[at] = (np.where((np.cumsum(occ, axis=1) - occ)[states, modes] % 2, -1.0, 1.0)
                   if self.statistics == FERMI else np.sqrt(occ[states, modes]))
        source.flags.writeable = amp.flags.writeable = False
        return source, amp

    def to_json(self):
        """Documented dump: occupation vectors as integer arrays."""
        return json.dumps(
            {
                "statistics": self.statistics,
                "modes": self.modes,
                "n_max": self.n_max,
                "dim": self.dim,
                "states": [list(s) for s in self.states],
            },
            sort_keys=True,
        )


def build_basis(statistics, L, g=1, n_max=1, dim_cap=None):
    """Enumerate the truncated Fock basis for L sites with g components.

    Raises DimensionCapError before enumerating anything if the exact
    combinatorial dimension exceeds the cap (default 20000, overridable via
    the FOCKBOX_DIM_CAP environment variable).
    """
    if L < 1 or g < 1 or n_max < 0:
        raise ValueError("need L >= 1, g >= 1, n_max >= 0")
    if statistics not in (BOSE, FERMI):
        raise ValueError(f"unknown statistics {statistics!r}")
    modes = L * g
    cap = dim_cap_from_env() if dim_cap is None else dim_cap
    dim = fock_dimension(statistics, modes, n_max)
    if dim > cap:
        raise DimensionCapError(dim, cap, statistics, modes, n_max)

    pick = itertools.combinations if statistics == FERMI \
        else itertools.combinations_with_replacement
    states, sectors = [], []
    for total in range((min(n_max, modes) if statistics == FERMI else n_max) + 1):
        # a state picks its quanta's modes; the last mode is the most significant
        picks = sorted(pick(range(modes), total), key=lambda c: c[::-1])
        sectors.append((total, len(states), len(states) + len(picks)))
        states += [tuple(c.count(m) for m in range(modes)) for c in picks]
    assert len(states) == dim
    index = {s: i for i, s in enumerate(states)}
    return FockBasis(
        statistics=statistics,
        modes=modes,
        n_max=n_max,
        states=tuple(states),
        index=index,
        sectors=tuple(sectors),
    )


class FieldOperator:
    """Sparse complex operator on a FockBasis.

    Immutable by convention; all algebra returns new instances.  The matrix
    is kept in canonical CSR form (sorted indices, duplicates summed,
    explicit zeros dropped) so that equality is testable on the raw arrays.
    A matrix handed to the constructor is copied and canonicalized there,
    once.  Algebra results skip that: sums, differences and scalar multiples
    of canonical operands come out of scipy canonical, and products are
    made so in place.  A Hermitian operator keeps its eigendecomposition,
    made by its first propagate.Spectrum, so it is freed with the operator.
    """

    _eig = None  # (ROW_RESTRICT, (slices, w, blocks)), set by propagate.Spectrum

    def __init__(self, basis, matrix):
        import scipy.sparse as sp

        if matrix.shape != (basis.dim, basis.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match basis dim {basis.dim}"
            )
        self.basis = basis
        self.matrix = _canonical(sp.csr_matrix(matrix, dtype=complex, copy=True))

    @classmethod
    def _held(cls, basis, matrix):
        """An operator holding a canonical complex CSR matrix as it is."""
        op = cls.__new__(cls)
        op.basis, op.matrix = basis, matrix
        return op

    # ---- algebra ----------------------------------------------------------

    def dag(self):
        return FieldOperator._held(self.basis, self.matrix.getH().tocsr())

    def __add__(self, other):
        self._compat(other)
        return FieldOperator._held(self.basis, self.matrix + other.matrix)

    def __sub__(self, other):
        self._compat(other)
        return FieldOperator._held(self.basis, self.matrix - other.matrix)

    def __mul__(self, scalar):
        m = self.matrix * scalar
        if not np.all(m.data):  # a zero scalar, or underflow
            m.eliminate_zeros()
        return FieldOperator._held(self.basis, m)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __matmul__(self, other):
        self._compat(other)
        return FieldOperator._held(self.basis, _canonical(self.matrix @ other.matrix))

    def _compat(self, other):
        if not isinstance(other, FieldOperator):
            raise TypeError(f"expected FieldOperator, got {type(other)!r}")
        if other.basis is not self.basis and other.basis != self.basis:
            raise ValueError("operators live on different bases")

    # ---- queries ----------------------------------------------------------

    def to_dense(self):
        return self.matrix.toarray()

    def max_abs(self):
        return _max_abs(self.matrix)

    def trace(self):
        return complex(self.matrix.diagonal().sum())

    def is_hermitian(self, tol=HERMITICITY_TOL):
        return _max_abs(self.matrix - self.matrix.getH()) < tol

    def equal_bits(self, other):
        """Exact equality of the canonical sparse representation."""
        a, b = self.matrix, other.matrix
        return (a.shape == b.shape
                and np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.data, b.data))

    def to_json(self):
        """Sparse triplet dump (row, col, re, im), in the row-major order of the
        canonical matrix, with the Hermiticity and number conservation read
        off the matrix."""
        coo = self.matrix.tocoo()
        triplets = [[int(r), int(c), float(v.real), float(v.imag)]
                    for r, c, v in zip(coo.row, coo.col, coo.data)]
        totals = self.basis.totals()
        return json.dumps(
            {
                "dim": self.basis.dim,
                "hermitian": self.is_hermitian(),
                "number_conserving": bool(np.all(totals[coo.row] == totals[coo.col])),
                "triplets": triplets,
            },
            sort_keys=True,
        )


def _canonical(m):
    """Sum duplicates, drop explicit zeros and sort the indices, in place."""
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


def _max_abs(matrix):
    return float(np.max(np.abs(matrix.data))) if matrix.nnz else 0.0


def one_body(basis, coeff, diagonal=0.0):
    """sum_ij coeff[i, j] a_i^dag a_j over the modes plus a diagonal given per
    state, as a canonical complex CSR matrix.  The number terms are read off
    the occupations, the hops off the basis's gather table (source, amp): row
    y of a_m holds amp[m, y] from source[m, y], so a_i^dag a_j sends the
    source of (j, y) to that of (i, y) with the value coeff[i, j] amp[j, y]
    amp[i, y]."""
    import scipy.sparse as sp

    coeff, d = np.asarray(coeff), basis.dim
    # an entry that overflows is reported by the finite check below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        number = [coeff[i, i] * basis.occ[:, i] for i in np.flatnonzero(np.diagonal(coeff))]
        diag = sum(number, np.zeros(d)) + diagonal
        nz = np.flatnonzero(diag)
        parts = [(nz, nz, diag[nz])]
        create, destroy = np.nonzero(coeff)
        hop = create != destroy
        if hop.any():
            source, amp = basis.ladder
            term, y = np.nonzero((source[create[hop]] >= 0) & (source[destroy[hop]] >= 0))
            i, j = create[hop][term], destroy[hop][term]
            # a Jordan-Wigner sign negates: a complex product with -1.0 can flip a
            # zero part's sign
            value = (np.where(amp[i, y] == amp[j, y], coeff[i, j], -coeff[i, j])
                     if basis.statistics == FERMI else coeff[i, j] * amp[j, y] * amp[i, y])
            parts.append((source[i, y], source[j, y], value))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    if not np.all(np.isfinite(vals)):
        raise NumericalError("one-body operator has a non-finite entry")
    return _canonical(sp.csr_matrix((vals, (rows, cols)), shape=(d, d), dtype=complex))


def zero_operator(basis):
    import scipy.sparse as sp

    return FieldOperator._held(basis, sp.csr_matrix((basis.dim, basis.dim), dtype=complex))


def identity(basis):
    import scipy.sparse as sp

    return FieldOperator._held(basis, sp.identity(basis.dim, dtype=complex, format="csr"))


def _check_mode(basis, mode):
    if mode < 0 or mode >= basis.modes:
        raise ValueError(f"mode {mode} outside [0, {basis.modes})")


def annihilation(basis, mode):
    """Ladder-down operator for one mode: its row of the basis's gather table
    as a canonical CSR matrix, at most one entry per row; FockBasis.ladder
    gives the Bose and Fermi amplitudes."""
    import scipy.sparse as sp

    _check_mode(basis, mode)
    held = basis.ladder[0][mode] >= 0
    source, amp = (a[mode, held] for a in basis.ladder)
    return FieldOperator._held(basis, sp.csr_matrix(
        (amp.astype(complex), source, np.r_[0, np.cumsum(held)]), shape=(basis.dim,) * 2))


def creation(basis, mode):
    """Adjoint of annihilation; creation out of the top sector maps to zero."""
    return annihilation(basis, mode).dag()


def number_operator(basis, mode=None):
    """n_m for one mode, or the total number operator when mode is None: the
    diagonal of one_body, read off the occupation array."""
    if mode is not None:
        _check_mode(basis, mode)
    n = basis.totals() if mode is None else basis.occ[:, mode]
    return FieldOperator._held(basis, one_body(basis, np.zeros((basis.modes,) * 2), n))


def check_model(basis, model):
    """Raise unless the basis carries the model's L * g modes and statistics."""
    if basis.modes != model.L * model.g:
        raise ValueError(
            f"basis has {basis.modes} modes but model asks for {model.L * model.g}"
        )
    if model.statistics != basis.statistics:
        raise ValueError("basis and model statistics differ")


def field_operator(basis, model, site, component=0):
    """Annihilation part of the field at a lattice point, psi(x, sigma).

    Carries the lattice delta normalization: [psi(x), psi^dag(x')]_± =
    delta_{xx'} / dx, so sums over sites weighted by dx mimic integrals.
    """
    check_model(basis, model)
    if site < 0 or site >= model.L:
        raise ValueError(f"site {site} outside [0, {model.L})")
    m = mode_index(site, component, model.g)
    return annihilation(basis, m) * (1.0 / math.sqrt(model.dx))


def commutator(a, b):
    return a @ b - b @ a


def anticommutator(a, b):
    return a @ b + b @ a
