"""Exact unitary dynamics: state evolution and Heisenberg dressing.

Propagators are built by Hermitian eigendecomposition rather than by any
stepping scheme: at desk-scale dimensions exactness of the unitary matters
more than speed.  Two structures of the box model keep that exactness
cheap.  The basis enumeration keeps particle-number sectors contiguous, so
a generator that couples no two sectors is diagonalized sector by sector,
and every operand is transformed only on the sector pairs it connects, one
pair at a time, so a consumer never needs the full (n, d, d) stack.  The
model is real in the occupation basis, so a generator or operand with no
imaginary part is diagonalized and transformed in real arithmetic.
"""

from __future__ import annotations

import numpy as np  # scipy.sparse is imported where used, as in fock

from .fock import FieldOperator

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-10


class Spectrum:
    """Eigendecomposition of a Hermitian operator, blocked by particle number.

    op is a FieldOperator or a dense Hermitian matrix.  It is diagonalized
    block by block over the particle-number sectors of its basis (or the
    given sectors, for a dense matrix) when it couples none of them, and as
    one sector spanning the basis otherwise: blocks[i] holds the
    eigenvectors of slices[i], real when op is, and v the full complex
    eigenvector matrix, assembled on demand.  Changes of basis act on the
    sector pairs an operand connects: sector_blocks yields an operator
    stack's blocks there one pair at a time, and eigenbasis_stack scatters
    them into a full stack.  Dressing
    A -> exp(+iHt/hbar) A exp(-iHt/hbar) is an elementwise phase mask in the
    eigenbasis, computed afresh on each call; negative times give the
    retarded operators A(-s) of the history integrals.
    """

    def __init__(self, op, hbar=1.0, sectors=None):
        if isinstance(op, FieldOperator):
            sectors = op.basis.sector_slices()
            op = op.to_dense()
        m = np.asarray(op)
        m = m.real if np.iscomplexobj(m) and not np.any(m.imag) else m
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev >= HERMITICITY_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError(f"operator is not Hermitian: ||A - A^dag||_max = {dev:.3e}")
        self.slices = [sl for _, sl in sectors or ()]
        if not self.slices or np.count_nonzero(m) != sum(
                np.count_nonzero(m[sl, sl]) for sl in self.slices):
            self.slices = [slice(0, len(m))]
        self.hbar = hbar
        self.sector = np.repeat(np.arange(len(self.slices)),
                                [sl.stop - sl.start for sl in self.slices])
        eigs = [np.linalg.eigh(m[sl, sl]) for sl in self.slices]
        self.w = np.concatenate([w for w, _ in eigs])
        self.blocks = [v for _, v in eigs]

    @property
    def v(self):
        """The full eigenvector matrix, complex, assembled on each call."""
        v = np.zeros((len(self.w),) * 2, dtype=complex)
        for sl, b in zip(self.slices, self.blocks):
            v[sl, sl] = b
        return v

    def _pairs(self, rows, cols):
        """The sector pairs (r, c) holding the entries at (rows, cols)."""
        k = len(self.slices)
        counts = np.bincount(self.sector[rows] * k + self.sector[cols], minlength=k * k)
        return [divmod(int(p), k) for p in np.flatnonzero(counts)]

    def _sandwich(self, x, left, right):
        """left[r] X_rc right[c] on each sector pair (r, c) that a dense matrix or
        (n, d, d) stack X connects; zero elsewhere."""
        stack = np.asarray(x).reshape((-1,) + np.shape(x)[-2:])
        out = np.zeros(stack.shape, dtype=np.result_type(stack, *left, *right))
        for r, c in self._pairs(*np.nonzero(np.any(stack, axis=0))):
            rs, cs = self.slices[r], self.slices[c]
            out[:, rs, cs] = left[r] @ stack[:, rs, cs] @ right[c]
        return out.reshape(np.shape(x))

    def to_eigenbasis(self, A):
        return eigenbasis_stack(self, [A])[0]

    def from_eigenbasis(self, m):
        """v m v^dag for one matrix or an (n, d, d) stack in the eigenbasis."""
        return self._sandwich(m, self.blocks, [b.T.conj() for b in self.blocks])

    def from_other(self, other, m):
        """m, a matrix or stack in the eigenbasis of other, in this eigenbasis:
        through the block overlaps v_r^dag u_r when both share their sectors."""
        if self.slices != other.slices:
            return self._sandwich(other.from_eigenbasis(m),
                                  [b.T.conj() for b in self.blocks], self.blocks)
        overlap = [a.T.conj() @ b for a, b in zip(self.blocks, other.blocks)]
        return self._sandwich(m, overlap, [o.T.conj() for o in overlap])

    def dress_eig(self, A_eig, t):
        """Dress an operator (or a stack) already expressed in the eigenbasis."""
        phase = np.exp(1j * self.w * t / self.hbar)
        return np.outer(phase, phase.conj()) * A_eig

    def dress(self, A, t):
        return self.from_eigenbasis(self.dress_eig(self.to_eigenbasis(A), t))

    def with_eigenvalues(self, f):
        """sum_a f[a] |a><a|, by sector block; on real blocks the real and
        imaginary parts of a complex f take one real product each."""
        out = np.zeros((len(self.w),) * 2, dtype=np.result_type(f, *self.blocks))
        split = np.iscomplexobj(f) and np.isrealobj(self.blocks[0])
        parts = [(out.real, f.real), (out.imag, f.imag)] if split else [(out, f)]
        for sl, b in zip(self.slices, self.blocks):
            for part, g in parts:
                part[sl, sl] = (b * g[sl]) @ b.T.conj()
        return out

    def unitary(self, t):
        """exp(-i op t / hbar) as a dense matrix, its unitarity checked by block."""
        u = self.with_eigenvalues(np.exp(-1j * self.w * t / self.hbar))
        dev = max(float(np.max(np.abs(u[sl, sl] @ u[sl, sl].T.conj()
                                      - np.eye(sl.stop - sl.start))))
                  for sl in self.slices)
        if dev >= UNITARITY_TOL:
            raise AssertionError(f"propagator lost unitarity: {dev:.3e}")
        return u

    def gibbs(self):
        """Weights of exp(op)/Z on the eigenvectors and log Z, via log-sum-exp."""
        shift = self.w.max()
        boltz = np.exp(self.w - shift)
        z = boltz.sum()
        return boltz / z, float(shift + np.log(z))


# the Heisenberg-dressing name of the same object
Dresser = Spectrum


def stacked(ops):
    """Operators as one sparse (n d, d) CSR matrix, real when every entry is."""
    import scipy.sparse as sp

    s = sp.vstack([op.matrix if isinstance(op, FieldOperator)
                   else op if sp.issparse(op) else sp.csr_matrix(op) for op in ops],
                  format="csr")
    return s if np.any(s.data.imag) else s.real


# from this many states on a side of a sector pair, each operator is transformed
# on its own nonzero rows; smaller pairs take one batched product
ROW_RESTRICT = 32


class OperatorStack:
    """n operators on one basis, held for repeated changes of basis.

    matrix is the stack as one sparse (n d, d) CSR matrix, real when every
    entry is.  The stack is split by the sector partition of the last spectrum
    it met: on each sector pair (r, c) the operators connect, a pair with
    fewer than ROW_RESTRICT states on each side keeps the dense (n, d_r, d_c)
    block of all n, a larger one, for each operator j, the rows R it touches
    in r and its entries A[R, c] as CSR, as (j, R or None for all rows, A).
    """

    def __init__(self, ops):
        import scipy.sparse as sp

        self.matrix = ops if sp.issparse(ops) else stacked(ops)
        self.dim = self.matrix.shape[1]
        self.n = self.matrix.shape[0] // self.dim
        self._held = (None, None)

    def split(self, spectrum):
        """[(r, c, part)] over the sector pairs of spectrum the operators connect."""
        key = tuple((sl.start, sl.stop) for sl in spectrum.slices)
        if self._held[0] != key:
            self._held = (key, self._parts(spectrum))
        return self._held[1]

    def _parts(self, spectrum):
        import scipy.sparse as sp

        m, k = self.matrix, len(spectrum.slices)
        member, row = np.divmod(np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)),
                                self.dim)
        col = m.indices
        # entries grouped by sector pair, operator-major within each pair
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
    """Yield (rs, cs, block) for each sector pair (r, c) of spectrum that the
    operators of the OperatorStack held connect: block = v_r^dag A_rc v_c for
    every operator A, a fresh (n, d_r, d_c) array, real when both are; rs and
    cs are the pair's slices.

    Number-conserving operators connect diagonal pairs only.  Each block is
    made when it is asked for, so a consumer that drops it holds one at a time.
    """
    for r, c, part in held.split(spectrum):
        yield (spectrum.slices[r], spectrum.slices[c],
               _transformed(spectrum.blocks[r], spectrum.blocks[c], part, held.n))


def _transformed(vr, vc, part, n):
    """v_r^dag A v_c on one sector pair, from a part of OperatorStack.split."""
    if isinstance(part, np.ndarray):
        return vr.conj().T @ part @ vc
    out = np.zeros((n, len(vr), len(vc)), dtype=np.result_type(vr, part[0][2].dtype))
    for j, rows, entries in part:
        np.matmul((vr if rows is None else vr[rows]).conj().T, entries @ vc, out=out[j])
    return out


def eigenbasis_stack(spectrum, ops):
    """(n, d, d) stack of ops (a list, stacked, or an OperatorStack) in the
    eigenbasis of spectrum, real when both are: the blocks of sector_blocks
    scattered into a zero stack."""
    held = ops if isinstance(ops, OperatorStack) else OperatorStack(ops)
    d = len(spectrum.w)
    out = np.zeros((held.n, d, d),
                   dtype=np.result_type(held.matrix.dtype, spectrum.blocks[0].dtype))
    for rs, cs, block in sector_blocks(spectrum, held):
        out[:, rs, cs] = block
    return out


def hermitian_eig(op):
    """Eigenpairs of a Hermitian FieldOperator, ascending within each sector."""
    spectrum = Spectrum(op)
    return spectrum.w, spectrum.v


def propagator(H, dt, hbar=1.0):
    """U = exp(-i H dt / hbar) for Hermitian H."""
    u = Spectrum(H, hbar=hbar).unitary(dt)
    return FieldOperator(H.basis, u)


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
