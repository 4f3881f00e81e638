"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  The
modulus travels as an explicit argument; containers higher up the stack
(grid modules, resolutions) carry it once for all their matrices.
Everything here is deterministic: no pivoting heuristics beyond
first-nonzero, and a reduced basis is the reduced row echelon form of
its span, so equal spans give equal arrays.

`ColumnReducer` is the only elimination, one lead-keyed column
reduction at every p, and the rest runs on it: `rank`, `solve_matrix`
(a reduction against [m; I]), `pair_counts` (the 2-D cumulative counts
of its lead pairs, which the rank DP takes per generator class and t_y)
and the flag walk (`flag_step`, `pair_flags`) of the kappa/iota tables
and `zigzag-barcode`.  The graded kernel and homology bases are read off
reducers fed columns stacked on an identity block, and completed on one
that holds the span so far: it admits exactly the new directions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_CHUNK_ENTRIES = 1 << 14  # entries of a matrix gathered at once by `ColumnReducer.columns`


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


class ColumnReducer:
    """Incremental rank of a growing set of columns in F_p^k.

    `add(v)` reduces v against the columns admitted so far, admits the
    residue when it is nonzero and reports its lead row (its first
    nonzero entry); `reduce(v)` gives the residue and admits nothing.
    `block()` gives the admitted columns as a fully reduced echelon
    basis, rows sorted by lead: row i is a basis vector whose lead entry
    is 1 and whose entries at the other leads are 0, the reduced row
    echelon form of the span of the columns.

    The leads obey the pairing lemma: after columns c_1..c_j are added
    in order, the rank of rows 0..i of [c_1 .. c_j] is the number of
    leads <= i among the columns admitted so far, for every i and j.
    Adding the columns of a matrix with its rows reversed therefore
    gives the rank of every lower-left submatrix from one reduction.
    The pairs do not depend on how a column is reduced, only on the
    order the columns come in.

    One algorithm serves every p, the lead-keyed column reduction: the
    admitted columns sit in a dict keyed by lead, and a new column
    subtracts the admitted column at its lead until it is zero or its
    lead is free.  Only the storage follows p.  At p = 2 a column is a
    Python-int bitset with bit k-1-i for row i, keyed by bit length, so
    that `int.bit_length` reads its lead without building an int, and a
    subtraction is one XOR.  At any other p it is an int64 array in
    [0, p) with lead entry 1, and a subtraction is one axpy
    w = (w - w[lead] c) mod p, whose products are at most
    (p - 1)^2 < 2^62: exact in int64 for every p up to `ioutil.MAX_MODULUS`.
    `block` back-substitutes when called and keeps the result until the
    rank changes.  `columns` converts a whole matrix at once to the form
    `add` takes, and `admitted` gives back an admitted column in it.
    """

    def __init__(self, k: int, p: int):
        self.k = int(k)
        self.p = p
        self.rank = 0
        self._cols: dict = {}  # lead (bit length at p = 2) -> admitted column, in admission order
        self._block = None  # block() at the rank it was built for

    @staticmethod
    def columns(mat: np.ndarray, p: int, rows: Optional[np.ndarray] = None):
        """The columns of `mat` (any int entries), or of `mat[rows]` when
        `rows` is given, in the form `add` takes at modulus p, as a new
        list: Python-int bitsets at p = 2, which `add` uses as they are,
        and otherwise the rows of mat.T (of a copy of mat[rows]), views
        that `add` reduces mod p into new arrays and never writes.

        At p = 2 the parity bits are gathered a few columns at a time
        and packed, so beside the bitsets only one bounded chunk of mat
        is made; a small matrix is one chunk."""
        mat = np.asarray(mat)
        if p != 2:
            return list((mat if rows is None else mat[rows]).T)
        k, cols = (mat.shape[0] if rows is None else len(rows)), mat.shape[1]
        n = (k + 7) // 8
        pad = 8 * n - k  # the zero bits past the last row
        step = max(1, _CHUNK_ENTRIES // max(1, k))
        bitsets = []
        for lo in range(0, cols, step):
            part = mat[:, lo : lo + step] if rows is None else mat[rows, lo : lo + step]
            data = np.packbits(part & 1, axis=0).T.tobytes()
            bitsets += [int.from_bytes(data[j * n : (j + 1) * n], "big") >> pad for j in range(part.shape[1])]
        return bitsets

    def add(self, v) -> Optional[int]:
        """Admit column v (length k, any int entries, or at p = 2 a bitset
        from `columns`) if it is independent, and return the lead of its
        residue (the first nonzero row); else return None."""
        if self.rank == self.k:
            return None
        w, lead = self._reduce_gf2(v) if self.p == 2 else self._reduce_modp(v)
        if lead is None:
            return None
        if self.p == 2:
            self._cols[self.k - lead] = w
        else:
            self._cols[lead] = w * inv_mod(int(w[lead]), self.p) % self.p
        self.rank += 1
        return lead

    def reduce(self, v):
        """v minus a combination of the admitted columns, in the form `add`
        takes, zero exactly when v lies in their span; admits nothing."""
        return (self._reduce_gf2(v) if self.p == 2 else self._reduce_modp(v))[0]

    def admitted(self, lead: int):
        """The admitted column whose lead is `lead`, reduced, in the form
        `add` takes."""
        return self._cols[self.k - lead if self.p == 2 else lead]

    def block(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, leads): the reduced block as read-only int64 rows of length
        k, sorted by lead, and the lead of each row; built once per
        rank."""
        if self._block is None or self._block[1].size != self.rank:
            self._block = None  # the stale block can go while the new one is built
            rows, leads = self._block_gf2() if self.p == 2 else self._block_modp()
            rows.flags.writeable = leads.flags.writeable = False
            self._block = rows, leads
        return self._block

    def _reduce_gf2(self, w):
        """(residue, its lead, or None when the residue is zero)."""
        if type(w) is not int:
            w = self.columns(np.reshape(w, (-1, 1)), 2)[0]
        cols = self._cols
        while w:
            top = w.bit_length()
            c = cols.get(top)
            if c is None:
                return w, self.k - top
            w ^= c  # clears the lead; c has no higher bit set
        return w, None

    def _reduce_modp(self, v):
        p, cols = self.p, self._cols
        w = np.asarray(v, dtype=np.int64) % p
        lead = 0
        while True:
            nz = w[lead:].nonzero()[0]
            if nz.size == 0:
                return w, None
            lead += int(nz[0])
            c = cols.get(lead)
            if c is None:
                return w, lead
            tail = w[lead:]  # c is zero before its lead
            tail -= tail[0] * c[lead:]
            tail %= p

    @staticmethod
    def _unpacked(bitsets: list, k: int) -> np.ndarray:
        """The bitsets of length k (bit k-1-i for entry i) as int64 rows,
        unpacked a bounded chunk of rows at a time."""
        n = (k + 7) // 8
        rows = np.empty((len(bitsets), k), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES // max(1, k))
        for lo in range(0, len(bitsets), step):
            chunk = bitsets[lo : lo + step]
            data = np.frombuffer(b"".join(w.to_bytes(n, "big") for w in chunk), dtype=np.uint8)
            rows[lo : lo + step] = np.unpackbits(data).reshape(len(chunk), 8 * n)[:, 8 * n - k :]
        return rows

    def _block_gf2(self):
        """Back-substitution, from the last lead row up: a column's entries
        at the other leads all lie below its own lead, where the rows are
        already fully reduced, and XOR with such a row changes no other
        lead entry."""
        cols = self._cols
        lead_bits = sum(1 << (top - 1) for top in cols)
        tops = sorted(cols)
        red = {}
        for top in tops:
            w = cols[top]
            hits = (w & lead_bits) ^ (1 << (top - 1))
            while hits:
                bit = hits.bit_length()
                w ^= red[bit]
                hits ^= 1 << (bit - 1)
            red[top] = w
        return self._unpacked([red[top] for top in tops[::-1]], self.k), self.k - np.array(tops[::-1], dtype=np.int64)

    def _block_modp(self):
        """Back-substitution, from the last lead up, one lead column at a
        time: the row of that lead is by then zero at every other lead, so
        clearing its column in the rows above changes no other lead entry,
        and which rows need it can be read off before the first step."""
        p = self.p
        leads = np.array(sorted(self._cols), dtype=np.int64)
        rows = np.array([self._cols[lead] for lead in leads.tolist()], dtype=np.int64).reshape(self.rank, self.k)
        hits = rows[:, leads] != 0  # zero below the diagonal, one on it
        for i in np.flatnonzero(hits.sum(axis=0) > 1)[::-1]:
            lead, above = leads[i], hits[:i, i].nonzero()[0]
            rows[above, lead:] = (rows[above, lead:] - rows[above, lead, None] * rows[i, lead:]) % p
        return rows, leads


def rank(m: np.ndarray, p: int) -> int:
    """Row rank = column rank: the reducer takes the shorter side's vectors."""
    if not np.count_nonzero(m):
        return 0
    reducer = ColumnReducer(max(m.shape), p)
    for v in ColumnReducer.columns(m.T if m.shape[0] <= m.shape[1] else m, p):
        reducer.add(v)
    return reducer.rank


def pair_counts(columns, k: int, row_key: np.ndarray, col_key: np.ndarray, shape, p: int) -> np.ndarray:
    """C[a, b] = #{lead pairs (i, j) with row_key[i] <= a and col_key[j] <= b}.

    `columns` is a list of the columns of a k-row matrix in the form
    `ColumnReducer.add` takes (`ColumnReducer.columns`), so a caller that
    pairs several column subsets of one matrix converts it once.  They
    go left to right through one `ColumnReducer`, and every admitted
    column j is paired with its lead row i; rows keyed shape[0] or more
    never count.  When the row keys never rise down the rows and the
    column keys never fall along the columns, the pairing lemma gives

        C[a, b] = rank(mat[:, key <= b]) - rank(mat[key > a, key <= b]).

    Each entry of `columns` is replaced by its reduced form: the column
    as admitted, or the zero column (0 at p = 2) when it is dependent.
    A reduced form is its column plus a combination of the columns
    before it, so the span of every prefix, and with it every pair, is
    unchanged when the reduced forms are paired again, in the same
    relative order, with new columns inserted among them.  Only the
    inserted columns and the leads they take then cost more than one
    lookup per column.
    """
    reducer = ColumnReducer(k, p)
    zero = 0 if p == 2 else np.zeros(k, dtype=np.int64)
    leads, cols = [], []
    for j, v in enumerate(columns):
        lead = reducer.add(v)
        if lead is None:
            columns[j] = zero
        else:
            columns[j] = reducer.admitted(lead)
            leads.append(lead)
            cols.append(j)
    a, b = row_key[leads], col_key[cols]
    keep = a < shape[0]
    hist = np.bincount(a[keep] * shape[1] + b[keep], minlength=shape[0] * shape[1])
    return hist.reshape(shape).cumsum(axis=0).cumsum(axis=1)


def flag_step(edge: np.ndarray, flag, here: int, p: int):
    """One step of a flag walk V_0 -> V_1 -> ... along a path of maps.

    The flag at V_h is the chain of images Im(V_u -> V_h), u <= h.  A
    flag is held as (basis, births): a basis of V_h adapted to it, with
    the birth u of each vector, so that Im(V_u -> V_h) is the span of
    the vectors born at or before u.  Given the flag at V_{h-1} and the
    map `edge` from V_{h-1} into V_h = F_p^d, this returns the flag at
    V_h, h = `here`.  The pushed basis spans the earlier flag spaces and
    is sorted by birth; each column independent of those before it is
    kept, and unit vectors born at `here` complete the basis.  The kept
    columns are those a `ColumnReducer` admits, in order, until the
    rank is d.  A walk starts from the zero space: an edge with no
    columns and a flag with an empty basis.
    """
    d = edge.shape[0]
    cand = np.hstack((matmul(edge, flag[0], p), np.eye(d, dtype=np.int64)))
    born = np.concatenate((flag[1], np.full(d, here, dtype=np.int64)))
    reducer = ColumnReducer(d, p)
    keep = []
    for j, v in enumerate(ColumnReducer.columns(cand, p)):
        if reducer.add(v) is not None:
            keep.append(j)
            if reducer.rank == d:
                break
    return cand[:, keep], born[keep]


def pair_flags(flag_a, flag_b, shape, p: int) -> np.ndarray:
    """C[x, y] = dim(A_x cap B_y) for two flags A and B of F_p^d, held as
    `flag_step` returns them, for x < shape[0] and y < shape[1].

    Let X be the B-basis in coordinates of the A-basis, rows ordered by
    falling A-birth.  Then dim B_y - dim(A_x cap B_y) is the rank of the
    rows of A-birth > x in the columns of B-birth <= y, a lower-left
    submatrix.  One left-to-right reduction of X pairs every column with
    a lead row (X is invertible), so by the pairing lemma C[x, y] counts
    the pairs with A-birth <= x and B-birth <= y: `pair_counts` of X.
    """
    (a, a_birth), (b, b_birth) = flag_a, flag_b
    coords = solve_matrix(a, b, p)[::-1]
    return pair_counts(ColumnReducer.columns(coords, p), a.shape[0], a_birth[::-1], b_birth, shape, p)


def solve_matrix(m: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution X of m X = b; None if any column of b is inconsistent.

    One `ColumnReducer` admits the columns of [m; I], each [m y; y] once
    reduced (R = D V, as in `resolution.graded_kernel_basis`), and
    reduces each [b_j; 0] to a residue [b_j - m y; -y].  Its top part is
    zero exactly when m x = b_j has a solution, since a nonzero one leads
    where no admitted column does; then x_j = -y, the only solution when
    the columns of m are independent.  The stacked columns are made one
    at a time (at p = 2 as shifted bitsets), never as [m; I] or [m | b].
    """
    rows, cols = m.shape
    if b.shape[0] != rows:
        raise ValueError(f"shape mismatch {m.shape} x = {b.shape}")
    reducer = ColumnReducer(rows + cols, p)
    if p == 2:
        for j, v in enumerate(ColumnReducer.columns(m, 2)):
            reducer.add(v << cols | 1 << (cols - 1 - j))
        residues = [reducer.reduce(v << cols) for v in ColumnReducer.columns(b, 2)]
        if any(r >> cols for r in residues):
            return None
        return ColumnReducer._unpacked(residues, cols).T
    for j in range(cols):
        reducer.add(np.concatenate((m[:, j], np.arange(cols) == j)))  # column j of [m; I]
    x = np.empty((cols, b.shape[1]), dtype=np.int64)
    for j in range(b.shape[1]):
        r = reducer.reduce(np.concatenate((b[:, j], np.zeros(cols, dtype=np.int64))))
        if r[:rows].any():
            return None
        x[:, j] = -r[rows:] % p
    return x
