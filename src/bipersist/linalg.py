"""Exact dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  The
modulus travels as an explicit argument; containers higher up the stack
(grid modules, resolutions) carry it once for all their matrices.
Everything here is deterministic: no pivoting heuristics beyond
first-nonzero, and subspaces are kept in a canonical reduced echelon
form so equality is plain array equality.

`ColumnReducer` is the one incremental column reducer, and it reports
the lead row of every column it admits; `block` shows its reduced
basis, from which `resolution.presented_module` reads normal forms.  At
p = 2 it packs columns into uint64 words and reduces by XOR; at other p
it works on int64 rows in place, with products through `matmul`.
`pair_counts` turns its leads into 2-D cumulative pair counts, and the
rank DP and the kappa/iota tables share that one helper: the DP pairs
the relation matrix once per (generator class, t_y), the check path
pairs two flags at each grid point.  `rref` (and with it
`kernel_basis`, `extend_basis`, `solve_matrix` and the subspace
operations) is still a separate row-by-row elimination.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

MAX_MODULUS = 2**31 - 1


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for all p below 2**31."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # bases 2,3,5,7 are a proven witness set for p < 3_215_031_751
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> int:
    if not isinstance(p, (int, np.integer)):
        raise ValueError("field modulus must be an integer")
    p = int(p)
    if p < 2 or p > MAX_MODULUS:
        raise ValueError(f"field modulus {p} out of range [2, {MAX_MODULUS}]")
    if not is_prime(p):
        raise ValueError(f"field modulus {p} is not prime")
    return p


def asmatrix(a, p: int) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries reduced mod p."""
    m = np.array(a, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    return np.mod(m, p)


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in F_p")
    return pow(int(a), p - 2, p)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p), exact in int64.

    When k products of size p^2 could overflow, b is split into w-bit
    limbs with k (p - 1) 2^w < 2^61 and the partial products are
    combined by Horner's rule mod p, so every intermediate stays below
    2^62.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    k = a.shape[1]
    if k == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    w = 61 - (k * (p - 1)).bit_length()
    bits = (p - 1).bit_length()
    if w >= bits:
        return np.mod(a @ b, p)
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for shift in range((bits - 1) // w * w, -1, -w):
        limb = (b >> shift) & ((1 << w) - 1)
        acc = np.mod(acc * (1 << w) + a @ limb, p)
    return acc


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = m.copy()
    rows, cols = r.shape
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        nz = np.nonzero(r[pr:, pc])[0]
        if nz.size == 0:
            continue
        i = pr + int(nz[0])
        if i != pr:
            r[[pr, i]] = r[[i, pr]]
        inv = inv_mod(int(r[pr, pc]), p)
        r[pr] = (r[pr] * inv) % p
        hit = np.nonzero(r[:, pc])[0]
        for j in hit:
            if j != pr:
                r[j] = (r[j] - r[j, pc] * r[pr]) % p
        pivots.append(pc)
        pr += 1
    return r, pivots


def rank(m: np.ndarray, p: int) -> int:
    if m.shape[0] == 0 or m.shape[1] == 0:
        return 0
    return len(rref(m, p)[1])


class ColumnReducer:
    """Incremental rank of a growing set of columns in F_p^k.

    `add(v)` reduces v against the pivot block, a fully reduced echelon
    basis of the columns added so far (row i is a basis vector whose
    pivot entry is 1 and whose other pivot entries are 0), keeps the
    reduced v when it is independent, and reports its lead row.  The
    block lives in one preallocated array, updated in place and doubled
    when full.

    The leads obey the pairing lemma: after columns c_1..c_j are added
    in order, the rank of rows 0..i of [c_1 .. c_j] is the number of
    leads <= i among the columns admitted so far, for every i and j.
    Adding the columns of a matrix with its rows reversed therefore
    gives the rank of every lower-left submatrix from one reduction.

    The storage follows p.  At p = 2 a vector is packed into uint64
    words and reduced by XOR; at any other p rows are int64 with
    products through `matmul`, exact for every p up to MAX_MODULUS.
    """

    def __init__(self, k: int, p: int):
        self.k = int(k)
        self.p = p
        self.rank = 0
        self._packed = p == 2
        cap = min(self.k, 64)
        if self._packed:
            width = (self.k + 63) // 64
            self._rows = np.zeros((cap, width), dtype=np.uint64)
            self._bits = np.zeros(64 * width, dtype=np.uint8)  # v mod 2, zero-padded to whole words
        else:
            self._rows = np.zeros((cap, self.k), dtype=np.int64)
        self._piv = np.zeros(cap, dtype=np.int64)

    def add(self, v: np.ndarray) -> Optional[int]:
        """Admit column v (length k, any int64 entries).

        Returns the lead of v reduced against the block (its first
        nonzero row) when v is independent, else None.
        """
        if self.rank == self.k:
            return None
        if self.rank == self._rows.shape[0]:
            self._grow()
        r = self.rank
        reduce = self._reduce_gf2 if self._packed else self._reduce_modp
        found = reduce(v, self._rows[:r], self._piv[:r])
        if found is None:
            return None
        self._rows[r], self._piv[r] = w, lead = found
        self.rank = r + 1
        return lead

    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, leads): the reduced block as read-only int64 rows of length
        k, in admission order, and the lead of each row.  At p = 2 the rows
        are unpacked into a new array."""
        r = self.rank
        if self._packed:
            rows = np.unpackbits(self._rows[:r].view(np.uint8), axis=1, count=self.k, bitorder="little")
            rows = rows.astype(np.int64)
        else:
            rows = self._rows[:r].view()
        rows.flags.writeable = False
        leads = self._piv[:r].view()
        leads.flags.writeable = False
        return rows, leads

    def _reduce_gf2(self, v, rows, piv):
        """Packed XOR reduction; clears the new pivot from `rows` in place."""
        np.bitwise_and(v, 1, out=self._bits[: self.k], casting="unsafe")
        w = np.packbits(self._bits, bitorder="little").view(np.uint64)
        # the block is fully reduced, so v's entry at a pivot is the
        # coefficient of that pivot's row
        hit = np.flatnonzero(self._bits[piv])
        if hit.size:
            w ^= np.bitwise_xor.reduce(rows.take(hit, axis=0), axis=0)
        nz = np.flatnonzero(w)
        if nz.size == 0:
            return None
        word = int(w[nz[0]])
        lead = 64 * int(nz[0]) + (word & -word).bit_length() - 1
        above = np.flatnonzero(rows[:, lead >> 6] & np.uint64(1 << (lead & 63)))
        if above.size:
            rows[above] ^= w
        return w, lead

    def _reduce_modp(self, v, rows, piv):
        """int64 reduction mod p; clears the new pivot from `rows` in place."""
        p = self.p
        w = np.mod(v, p)
        if piv.size:
            w = np.mod(w - matmul(rows.T, w[piv, None], p)[:, 0], p)
        nz = np.flatnonzero(w)
        if nz.size == 0:
            return None
        lead = int(nz[0])
        w = w * inv_mod(int(w[lead]), p) % p
        above = np.flatnonzero(rows[:, lead])
        if above.size:  # w is zero before its lead
            rows[above, lead:] = (rows[above, lead:] - np.outer(rows[above, lead], w[lead:])) % p
        return w, lead

    def _grow(self) -> None:
        cap = min(self.k, 2 * self._rows.shape[0])
        rows = np.zeros((cap, self._rows.shape[1]), dtype=self._rows.dtype)
        rows[: self.rank] = self._rows
        piv = np.zeros(cap, dtype=np.int64)
        piv[: self.rank] = self._piv
        self._rows, self._piv = rows, piv


def pair_counts(mat: np.ndarray, row_key: np.ndarray, col_key: np.ndarray, shape, p: int) -> np.ndarray:
    """C[a, b] = #{lead pairs (i, j) with row_key[i] <= a and col_key[j] <= b}.

    The columns of `mat` go left to right through one `ColumnReducer`,
    and every admitted column j is paired with its lead row i; rows
    keyed shape[0] or more never count.  When the row keys never rise
    down the rows and the column keys never fall along the columns, the
    pairing lemma gives

        C[a, b] = rank(mat[:, key <= b]) - rank(mat[key > a, key <= b]).
    """
    reducer = ColumnReducer(mat.shape[0], p)
    leads, cols = [], []
    for j in range(mat.shape[1]):
        lead = reducer.add(mat[:, j])
        if lead is not None:
            leads.append(lead)
            cols.append(j)
    a, b = row_key[leads], col_key[cols]
    keep = a < shape[0]
    hist = np.bincount(a[keep] * shape[1] + b[keep], minlength=shape[0] * shape[1])
    return hist.reshape(shape).cumsum(axis=0).cumsum(axis=1)


class Subspace:
    """A subspace of F_p^n held as a canonical column basis.

    The basis matrix has shape (ambient_dim, dim) and is the reduced
    column echelon form of any generating set, so two Subspace objects
    are equal iff their basis arrays are identical.
    """

    __slots__ = ("ambient_dim", "basis", "p")

    def __init__(self, ambient_dim: int, basis: np.ndarray, p: int):
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        self.p = p

    @classmethod
    def from_columns(cls, cols: np.ndarray, p: int) -> "Subspace":
        """Span of the columns of `cols`, canonicalized."""
        cols = asmatrix(cols, p)
        r, piv = rref(cols.T, p)
        return cls(cols.shape[0], r[: len(piv)].T.copy(), p)

    @classmethod
    def zero(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.int64), p)

    @classmethod
    def full(cls, ambient_dim: int, p: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=np.int64), p)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def contains(self, vec) -> bool:
        v = asmatrix(vec, self.p)
        return rank(np.hstack([self.basis, v]), self.p) == self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.p == other.p
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"


def kernel_basis(m: np.ndarray, p: int) -> Subspace:
    """Null space {v : m v = 0} as a canonical Subspace of F_p^cols."""
    rows, cols = m.shape
    if cols == 0:
        return Subspace.zero(0, p)
    if rows == 0:
        return Subspace.full(cols, p)
    r, piv = rref(m, p)
    free = [j for j in range(cols) if j not in piv]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, pc in enumerate(piv):
            basis[pc, k] = (-r[i, j]) % p
    return Subspace.from_columns(basis, p)


def image_basis(m: np.ndarray, p: int) -> Subspace:
    """Column space of m as a canonical Subspace of F_p^rows."""
    return Subspace.from_columns(m, p)


def extend_basis(base: np.ndarray, candidates: np.ndarray, p: int) -> list[int]:
    """Indices of candidate columns completing span(base) to span(base|candidates).

    Echelon pivots prefer base columns, so the selection is deterministic
    and the chosen candidates are independent modulo span(base).
    """
    if candidates.shape[1] == 0:
        return []
    stacked = np.hstack([base, candidates]) % p
    _, piv = rref(stacked, p)
    b = base.shape[1]
    return [j - b for j in piv if j >= b]


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim or a.p != b.p:
        raise ValueError("subspace sum needs a common ambient space")
    return Subspace.from_columns(np.hstack([a.basis, b.basis]), a.p)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of [A | -B]."""
    if a.ambient_dim != b.ambient_dim or a.p != b.p:
        raise ValueError("subspace intersection needs a common ambient space")
    p = a.p
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim, p)
    stacked = np.hstack([a.basis, (-b.basis) % p])
    ker = kernel_basis(stacked, p)
    vecs = matmul(a.basis, ker.basis[: a.dim], p)
    return Subspace.from_columns(vecs, p)


def solve(m: np.ndarray, b, p: int) -> Optional[np.ndarray]:
    """One solution x of m x = b, or None if the system is inconsistent."""
    s = solve_matrix(m, asmatrix(b, p), p)
    return None if s is None else s[:, 0]


def solve_matrix(m: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Solve m X = b column-wise; None if any column is inconsistent."""
    rows, cols = m.shape
    if b.shape[0] != rows:
        raise ValueError(f"shape mismatch {m.shape} x = {b.shape}")
    aug = np.hstack([m, b])
    r, piv = rref(aug, p)
    main = [pc for pc in piv if pc < cols]
    if len(main) < len(piv):
        return None  # a pivot landed in the right-hand block
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(main):
        x[pc] = r[i, cols:]
    return x


def image_of_subspace(a: np.ndarray, s: Subspace) -> Subspace:
    """a(S) for a linear map a and subspace S of its source."""
    return Subspace.from_columns(matmul(a, s.basis, s.p), s.p)


def preimage_of_subspace(a: np.ndarray, s: Subspace) -> Subspace:
    """{v : a v in S}, a subspace of the source of a."""
    p = s.p
    rows, cols = a.shape
    if rows != s.ambient_dim:
        raise ValueError("preimage needs map target = subspace ambient")
    if s.dim == 0:
        return kernel_basis(a, p)
    stacked = np.hstack([a, (-s.basis) % p])
    ker = kernel_basis(stacked, p)
    return Subspace.from_columns(ker.basis[:cols], p)


def invertible(m: np.ndarray, p: int) -> bool:
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]
