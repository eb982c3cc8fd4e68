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
combinatorially, so operators are assembled by vectorized passes over
``occ`` (Zhang & Dong, Eur. J. Phys. 31, 591 (2010)).  Its ladder operators
are built once, on first use, as one stack held by it, so they are freed
with it.
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
from .config import BOSE, DEFAULT_DIM_CAP, DIM_CAP_ENV, FERMI, dim_cap_from_env, fock_dimension

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
    array and ``ladder`` every a_m as one stack, both built on first use;
    ``lowering`` views the stack per mode, and a region's fields, whose modes
    are contiguous, are a row slice of it.
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
        """Every a_m once, as one canonical complex CSR stack of shape
        (modes * dim, dim) whose rows m * dim .. (m + 1) * dim - 1 hold a_m."""
        import scipy.sparse as sp

        return _canonical(sp.vstack([_ladder_sum(self, [(1.0, None, m)])
                                     for m in range(self.modes)], format="csr"))

    @cached_property
    def lowering(self):
        """a_m for every mode m: canonical CSR views onto the rows of ``ladder``
        that share its data and indices arrays."""
        import scipy.sparse as sp

        s, d = self.ladder, self.dim
        views = tuple(sp.csr_matrix((d, d), dtype=complex) for _ in range(self.modes))
        for m, view in enumerate(views):
            # assigned, not passed to the constructor, which copies a small view
            lo, hi = s.indptr[m * d], s.indptr[(m + 1) * d]
            view.data, view.indices = s.data[lo:hi], s.indices[lo:hi]
            view.indptr = s.indptr[m * d:(m + 1) * d + 1] - lo
        return views

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
    made so in place.
    """

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


def _transitions(basis, coeff, create, destroy):
    """(rows, cols, values) of coeff a_create^dag a_destroy on the basis states;
    either mode may be None.

    Bose amplitudes are square roots of the occupations; Fermi amplitudes
    carry the Jordan-Wigner sign (-1)**(number of occupied modes with
    smaller canonical index).  Targets are ranked, not looked up.
    """
    occ, cols, amp = basis.occ, np.arange(basis.dim), np.full(basis.dim, coeff)
    per_mode = 1 if basis.statistics == FERMI else basis.n_max
    for mode, step in ((destroy, -1), (create, 1)):
        if mode is None:
            continue
        after = occ[:, mode] + step
        keep = (after >= 0) & (after <= per_mode)
        if step > 0:
            keep &= occ.sum(axis=1) < basis.sectors[-1][0]
        occ, cols, amp, after = occ[keep], cols[keep], amp[keep], after[keep]
        if basis.statistics == FERMI:
            amp = np.where(occ[:, :mode].sum(axis=1) % 2, -amp, amp)
        else:
            amp = amp * np.sqrt(np.maximum(occ[:, mode], after))
        occ = occ.copy()
        occ[:, mode] = after
    return basis.rank(occ), cols, amp


def _ladder_sum(basis, terms, diagonal=0.0):
    """sum of c a_i^dag a_j over the terms (c, i, j), where i or j may be None,
    plus a diagonal given per state, as a canonical complex CSR matrix.  Each
    term is one vectorized pass over the occupation array; distinct terms
    touch distinct entries."""
    import scipy.sparse as sp

    diagonal = np.broadcast_to(diagonal, basis.dim)
    nz = np.flatnonzero(diagonal)
    parts = [(nz, nz, diagonal[nz])] + [_transitions(basis, *term) for term in terms]
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return _canonical(sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim,) * 2,
                                    dtype=complex))


def one_body(basis, coeff, diagonal=0.0):
    """sum_ij coeff[i, j] a_i^dag a_j over the modes plus a diagonal given per
    state, as a canonical complex CSR matrix: one pass per nonzero
    off-diagonal coefficient, the number terms read off the occupations."""
    coeff = np.asarray(coeff)
    number = [coeff[i, i] * basis.occ[:, i] for i in np.flatnonzero(np.diagonal(coeff))]
    diag = sum(number, np.zeros(basis.dim)) + diagonal
    return _ladder_sum(basis, [(coeff[i, j], i, j) for i, j in zip(*np.nonzero(coeff))
                               if i != j], diag)


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
    """Ladder-down operator for one mode, as held by the basis.

    Bose amplitudes are sqrt(n); Fermi amplitudes carry the Jordan-Wigner
    sign (-1)**(number of occupied modes with smaller canonical index).
    """
    _check_mode(basis, mode)
    return FieldOperator._held(basis, basis.lowering[mode])


def creation(basis, mode):
    """Adjoint of annihilation; creation out of the top sector maps to zero."""
    return annihilation(basis, mode).dag()


def number_operator(basis, mode=None):
    """n_m for one mode, or the total number operator when mode is None: a
    diagonal read off the occupation array."""
    if mode is not None:
        _check_mode(basis, mode)
    n = basis.totals() if mode is None else basis.occ[:, mode]
    return FieldOperator._held(basis, _ladder_sum(basis, [], n))


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
