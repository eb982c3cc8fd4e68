"""Exact unitary dynamics: state evolution and Heisenberg dressing.

Propagators are built by Hermitian eigendecomposition rather than by any
stepping scheme: at desk-scale dimensions exactness of the unitary matters
more than speed.  Two structures of the box model keep that exactness
cheap.  Particle-number sectors are contiguous, so a generator that couples
no two is diagonalized by blocks, runs of consecutive sectors, and every
operand is transformed only on the block pairs it connects, one pair at a
time, so no path builds the full (n, d, d) stack.  The model is real in the
occupation basis, so a generator or operand with no imaginary part is
diagonalized and transformed in real arithmetic.  An operator is
diagonalized once: it keeps its blocks, read-only, from its first Spectrum
on, so the propagators, dressings and Kubo sums of one Hamiltonian share
one eigendecomposition, freed with it.  A dense state assembled from a
decomposition (maxent's Gibbs states) keeps it the same way, so the Kubo
sums in that state diagonalize nothing.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np  # scipy.sparse is imported where used, as in fock

from .fock import FieldOperator, NumericalError

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10
# a Spectrum block closes at this many states; from this many on a side of a block
# pair, each operator is transformed on its own nonzero rows, else all in one product
ROW_RESTRICT = 32


class Spectrum:
    """Eigendecomposition of a Hermitian operator, blocked by particle number.

    op is a FieldOperator or a dense Hermitian matrix.  Its blocks are runs of
    consecutive particle-number sectors of its basis (or the given sectors),
    each closed once it holds ROW_RESTRICT states; op is diagonalized block by
    block when it couples no two of them, else as one block: blocks[i] holds
    the eigenvectors of slices[i], real when op is.  A FieldOperator keeps its
    decomposition from the first Spectrum of it on, so every later one, of any
    hbar, shares its read-only w and blocks while ROW_RESTRICT is unchanged.
    Any other op that carries a kept _eig made under the current ROW_RESTRICT,
    as a Gibbs state does, is read from it, its sectors aside; a dense matrix
    without one is diagonalized.
    Changes of basis act on the block pairs an operand connects: sector_blocks
    yields an operator stack's blocks there one pair at a time, diagonal_blocks
    gathers them per block, and from_blocks, eigenvalue_blocks and dense map
    back.
    """

    def __init__(self, op, hbar=1.0, sectors=None):
        eig = getattr(op, "_eig", None)
        if eig is None or eig[0] != ROW_RESTRICT:
            if isinstance(op, FieldOperator):
                eig = ROW_RESTRICT, _decompose(op.to_dense(), op.basis.sector_slices())
                op._eig = eig
            else:
                eig = ROW_RESTRICT, _decompose(np.asarray(op), sectors)
        slices, self.w, blocks = eig[1]
        self.slices, self.blocks, self.hbar = list(slices), list(blocks), hbar

    @cached_property
    def sector(self):
        """The block of each state, made when a stack is first split by it."""
        return np.repeat(np.arange(len(self.slices)), [sl.stop - sl.start for sl in self.slices])

    def from_blocks(self, ms):
        """sum_k v_k m_k v_k^dag for one matrix m_k per block, in the eigenbasis."""
        return self.dense([v @ m @ v.T.conj() for v, m in zip(self.blocks, ms)])

    def eigenvalue_blocks(self, f):
        """[sum_a f[a] |a><a| on each block]; on real blocks the real and
        imaginary parts of a complex f take one real product each."""
        split = np.iscomplexobj(f) and np.isrealobj(self.blocks[0])
        out = []
        for sl, b in zip(self.slices, self.blocks):
            if split:
                m = np.empty(b.shape, dtype=complex)
                m.real, m.imag = (b * f.real[sl]) @ b.T.conj(), (b * f.imag[sl]) @ b.T.conj()
            else:
                m = (b * f[sl]) @ b.T.conj()
            out.append(m)
        return out

    def dense(self, ms, dtype=None):
        """The d x d matrix holding one matrix per block on its diagonal, of
        dtype or else the type of the ms."""
        out = np.zeros((len(self.w),) * 2, dtype=dtype or np.result_type(*ms))
        for sl, m in zip(self.slices, ms):
            out[sl, sl] = m
        return out

    def unitary_blocks(self, t):
        """exp(-i op t / hbar) on each block, each checked unitary: with u = a + ib,
        u u^dag - 1 = (a a^T + b b^T - 1) + i (b a^T - a b^T), three real products."""
        us = self.eigenvalue_blocks(np.exp(-1j * self.w * t / self.hbar))
        dev = 0.0
        for u in us:
            a, b = np.ascontiguousarray(u.real), np.ascontiguousarray(u.imag)
            ba = b @ a.T
            re, im = a @ a.T + b @ b.T - np.eye(len(u)), ba - ba.T
            dev = max(dev, float(np.sqrt(np.max(re * re + im * im))))
        if dev >= UNITARITY_TOL:
            raise AssertionError(f"propagator lost unitarity: {dev:.3e}")
        return us

    def unitary(self, t):
        """exp(-i op t / hbar) as a dense matrix: unitary_blocks assembled."""
        return self.dense(self.unitary_blocks(t))

    def gibbs(self):
        """Weights of exp(op)/Z on the eigenvectors and log Z, via log-sum-exp."""
        shift = self.w.max()
        boltz = np.exp(self.w - shift)
        z = boltz.sum()
        return boltz / z, float(shift + np.log(z))


def _decompose(m, sectors):
    """(slices, w, blocks) of the dense Hermitian matrix m.

    The slices are runs of the sectors, as Spectrum describes, or one block
    when m has a nonzero outside them.  Each block is checked Hermitian and
    diagonalized, in real arithmetic when m has no imaginary part; w and the
    blocks are read-only.
    """
    m = m.real if np.iscomplexobj(m) and not np.any(m.imag) else m
    slices = []
    for _, sl in sectors or ():
        if slices and slices[-1].stop - slices[-1].start < ROW_RESTRICT:
            sl = slice(slices.pop().start, sl.stop)
        slices.append(sl)
    parts = [m[sl, sl] for sl in slices]
    if not slices or np.count_nonzero(m) != sum(map(np.count_nonzero, parts)):
        slices, parts = [slice(0, len(m))], [m]
    dev = max(float(np.max(np.abs(a - a.conj().T))) for a in parts)
    if dev >= HERMITICITY_TOL * max(1.0, max(float(np.max(np.abs(a))) for a in parts)):
        raise NumericalError(f"operator is not Hermitian: ||A - A^dag||_max = {dev:.3e}")
    eigs = [np.linalg.eigh(a) for a in parts]
    w, blocks = np.concatenate([w for w, _ in eigs]), tuple(v for _, v in eigs)
    for a in (w,) + blocks:
        a.flags.writeable = False
    return tuple(slices), w, blocks


# bench/tracing.py traces Spectrum construction under this name until the
# benchmark moves to Spectrum itself
Dresser = Spectrum


class OperatorStack:
    """n operators on one basis, held for repeated changes of basis.

    ops are FieldOperators or sparse or dense matrices; matrix holds operator j
    raveled in row j of one sparse (n, d*d) CSR matrix, real when every entry
    is.  The stack is split by the block partition of the last spectrum it met:
    on each block pair (r, c) the operators connect, a pair with fewer than
    ROW_RESTRICT states on each side keeps the dense (n, d_r, d_c) block of all
    n, a larger one, for each operator j, the rows R it touches in r and its
    entries A[R, c] as CSR, as (j, R or None for all rows, A).
    """

    def __init__(self, ops):
        import scipy.sparse as sp

        m = sp.vstack([op.matrix if isinstance(op, FieldOperator)
                       else op if sp.issparse(op) else sp.csr_matrix(op) for op in ops],
                      format="csr")
        self.dim = d = m.shape[1]
        self.n = m.shape[0] // d
        # row i of the (n d, d) stack is row i mod d of operator i // d: its entries
        # move right by (i mod d) d, and every d-th row pointer bounds an operator
        shift = np.repeat(np.arange(m.shape[0]) % d * d, np.diff(m.indptr))
        m = sp.csr_matrix((m.data, m.indices + shift, m.indptr[::d].copy()),
                          shape=(self.n, d * d))
        self.matrix = m if np.any(m.data.imag) else m.real
        self._held = (None, None)

    def split(self, spectrum):
        """[(r, c, part)] over the block pairs of spectrum the operators connect."""
        key = tuple((sl.start, sl.stop) for sl in spectrum.slices)
        if self._held[0] != key:
            self._held = (key, self._parts(spectrum))
        return self._held[1]

    def _parts(self, spectrum):
        import scipy.sparse as sp

        m, k = self.matrix, len(spectrum.slices)
        member = np.repeat(np.arange(self.n), np.diff(m.indptr))
        row, col = np.divmod(m.indices, self.dim)
        # entries grouped by block pair, operator-major within each pair
        pair = spectrum.sector[row] * k + spectrum.sector[col]
        order = np.argsort(pair, kind="stable")
        keys, starts = np.unique(pair[order], return_index=True)
        out = []
        for key, idx in zip(keys, np.split(order, starts[1:])):
            r, c = divmod(int(key), k)
            r0, c0 = spectrum.slices[r].start, spectrum.slices[c].start
            shape = (spectrum.slices[r].stop - r0, spectrum.slices[c].stop - c0)
            if max(shape) < ROW_RESTRICT:
                part = np.zeros((self.n,) + shape, dtype=m.dtype)
                part[member[idx], row[idx] - r0, col[idx] - c0] = m.data[idx]
            else:
                part = []
                members, firsts = np.unique(member[idx], return_index=True)
                for j, sub in zip(members, np.split(idx, firsts[1:])):
                    touched, local = np.unique(row[sub] - r0, return_inverse=True)
                    entries = sp.csr_matrix((m.data[sub], (local, col[sub] - c0)),
                                            shape=(len(touched), shape[1]))
                    part.append((j, None if len(touched) == shape[0] else touched,
                                 entries))
            out.append((r, c, part))
        return out


def sector_blocks(spectrum, held):
    """Yield (rs, cs, block) for each block pair (r, c) of spectrum that the
    operators of the OperatorStack held connect: block = v_r^dag A_rc v_c for
    every operator A, a fresh (n, d_r, d_c) array, real when both are; rs and
    cs are the pair's slices.

    Number-conserving operators connect diagonal pairs only.  Each block is
    made when it is asked for, so a consumer that drops it holds one at a time.
    """
    for r, c, part in held.split(spectrum):
        yield (spectrum.slices[r], spectrum.slices[c],
               _transformed(spectrum.blocks[r], spectrum.blocks[c], part, held.n))


def diagonal_blocks(spectrum, ops):
    """[v_k^dag A v_k for every A of ops] on each block k of spectrum, an (n, d_k,
    d_k) array, real when both are; None when an operator couples two blocks.
    ops is a list of operators or an OperatorStack."""
    held = ops if isinstance(ops, OperatorStack) else OperatorStack(ops)
    parts = {r: part for r, c, part in held.split(spectrum) if r == c}
    if len(parts) < len(held.split(spectrum)):
        return None
    return [_transformed(v, v, parts[k], held.n) if k in parts else np.zeros(
        (held.n,) + v.shape, dtype=np.result_type(held.matrix.dtype, v))
        for k, v in enumerate(spectrum.blocks)]


def _transformed(vr, vc, part, n):
    """v_r^dag A v_c on one block pair, from a part of OperatorStack.split."""
    if isinstance(part, np.ndarray):
        return vr.conj().T @ part @ vc
    out = np.zeros((n, len(vr), len(vc)), dtype=np.result_type(vr, part[0][2].dtype))
    for j, rows, entries in part:
        np.matmul((vr if rows is None else vr[rows]).conj().T, entries @ vc, out=out[j])
    return out


def hermitian_eig(op):
    """Eigenvalues of a Hermitian FieldOperator, ascending within each block and
    read-only, and its full complex eigenvector matrix, assembled from the
    Spectrum's blocks."""
    spectrum = Spectrum(op)
    return spectrum.w, spectrum.dense(spectrum.blocks, complex)


def propagator(H, dt, hbar=1.0):
    """U = exp(-i H dt / hbar) for Hermitian H, a canonical CSR matrix made
    straight from the Spectrum's unitary blocks: row by row, the raveled blocks
    with their explicit zeros dropped."""
    import scipy.sparse as sp

    blocks = Spectrum(H, hbar=hbar).unitary_blocks(dt)
    sizes = [len(u) for u in blocks]
    data = np.concatenate([u.ravel() for u in blocks])
    cols = np.concatenate([np.tile(np.arange(end - n, end), n)
                           for end, n in zip(np.cumsum(sizes), sizes)])
    keep = data != 0
    counts = np.concatenate([np.count_nonzero(u, axis=1) for u in blocks])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    d = H.basis.dim
    return FieldOperator._held(H.basis, sp.csr_matrix((data[keep], cols[keep], indptr),
                                                      shape=(d, d)))


def _step_unitaries(H_of_t, t0, t1, n_steps, hbar):
    """Dense midpoint-sampled propagators, first step first; one for a fixed H."""
    if isinstance(H_of_t, FieldOperator):
        return [Spectrum(H_of_t, hbar=hbar).unitary(t1 - t0)]
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    dt = (t1 - t0) / n_steps
    return [Spectrum(H_of_t(t0 + (k + 0.5) * dt), hbar=hbar).unitary(dt)
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
    return FieldOperator(A.basis, m)
