"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  The
modulus travels as an explicit argument; containers higher up the stack
(grid modules, resolutions) carry it once for all their matrices.
Everything here is deterministic: no pivoting heuristics beyond
first-nonzero, and a reduced basis is the reduced row echelon form of
its span, so equal spans give equal arrays.

`ColumnReducer` is the only elimination, one lead-keyed column
reduction at every p, and the rest runs on it: `rank`, `solve_columns`
(a reduction against [m; I]; `solve_matrix` is its dense form),
`pair_counts` (the 2-D cumulative counts
of its lead pairs, which the rank DP takes per generator class and t_y)
and the flag walk (`flag_step`, `pair_flags`) of the kappa/iota tables
and `zigzag-barcode`.  The graded kernel and homology bases are read off
reducers fed [m; I] in their own form, and completed on one that holds
the span so far: it admits exactly the new directions.
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


def column_bytes(rows: int, cols: int, p: int) -> int:
    """The bytes of `cols` columns of `rows` entries in the form
    `ColumnReducer.add` takes, with their list: at p = 2 an int of 4 bytes
    per 30 bits and about 40 with its slot; otherwise 8 bytes an entry and
    128 an array with its slot."""
    return cols * (4 * ((rows + 29) // 30) + 40 if p == 2 else 8 * rows + 128)


class ColumnReducer:
    """Incremental rank of a growing set of columns in F_p^k.

    `add(v)` reduces v against the columns admitted so far, admits the
    residue when it is nonzero and reports its lead row (its first
    nonzero entry).
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
    `add` takes and `dense` back, and `sparse` builds it from nonzero
    entries, as the boundaries of a bifiltration are; `gathered` takes a
    row subset of columns in it and `support` reads their nonzero
    entries; `stacked` makes the columns of [m; I] in it, `unit` the unit
    vectors, and `admitted`, `kernel` and `solve` give columns back in it.
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

    @staticmethod
    def sparse(entries: list, k: int, p: int) -> list:
        """The columns, in the form `add` takes, of the k-row matrix whose
        columns have the given (row, value) pairs, in distinct rows."""
        if p == 2:
            return [sum(1 << (k - 1 - i) for i, v in col if v & 1) for col in entries]
        out = [np.zeros(k, dtype=np.int64) for _ in entries]
        for w, col in zip(out, entries):
            for i, v in col:
                w[i] = v % p
        return out

    @staticmethod
    def gathered(columns: list, k: int, p: int, rows: np.ndarray) -> list:
        """The columns of mat[rows], from those of the k-row mat in the form
        `add` takes, in that form, as a new list: past p = 2 a copy of each
        column's entries at `rows`; at p = 2 the bits of a bounded chunk of
        columns are unpacked, gathered and packed again, so no matrix of
        all the columns is made."""
        if p != 2:
            return [v[rows] for v in columns]
        step = max(1, _CHUNK_ENTRIES // max(1, k))
        out = []
        for lo in range(0, len(columns), step):
            out += ColumnReducer.columns(ColumnReducer._unpacked(columns[lo : lo + step], k).T, 2, rows=rows)
        return out

    @staticmethod
    def support(columns: list, k: int, p: int) -> np.ndarray:
        """The (len(columns), k) bool array of the nonzero entries of the
        columns, given in the form `add` takes."""
        if p == 2:
            return ColumnReducer._unpacked(columns, k).view(bool)
        return np.array(columns, dtype=np.int64).reshape(len(columns), k) != 0

    @staticmethod
    def stacked(columns: list, k: int, p: int):
        """The columns of [m; I] from the n columns of the k-row m, both in
        the form `add` takes, one at a time and with no identity block
        built: at p = 2, m's bitset shifted past n bits, plus bit n-1-j;
        otherwise a new int64 array of length k + n each."""
        n = len(columns)
        for j, v in enumerate(columns):
            if p == 2:
                yield v << n | 1 << (n - 1 - j)
            else:
                w = np.zeros(k + n, dtype=np.int64)
                w[:k] = v
                w[k + j] = 1
                yield w

    @staticmethod
    def dense(columns: list, k: int, p: int) -> np.ndarray:
        """The k-row int64 matrix of `columns`, in the form `add` takes with
        entries in [0, p); bitsets are unpacked a bounded chunk at a time."""
        if p != 2:
            return np.array(columns, dtype=np.int64).reshape(len(columns), k).T
        rows = np.empty((len(columns), k), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES // max(1, k))
        for lo in range(0, len(columns), step):
            rows[lo : lo + step] = ColumnReducer._unpacked(columns[lo : lo + step], k)
        return rows.T

    @staticmethod
    def _unpacked(bitsets: list, k: int) -> np.ndarray:
        """The (len(bitsets), k) uint8 array of the bits of k-bit bitsets,
        row i of the matrix in column i."""
        n = (k + 7) // 8
        data = np.frombuffer(b"".join(w.to_bytes(n, "big") for w in bitsets), dtype=np.uint8)
        return np.unpackbits(data).reshape(len(bitsets), 8 * n)[:, 8 * n - k :]

    def unit(self, i: int):
        """The unit vector e_i of F_p^k in the form `add` takes."""
        if self.p == 2:
            return 1 << (self.k - 1 - i)
        e = np.zeros(self.k, dtype=np.int64)
        e[i] = 1
        return e

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
            rows, leads = self._reduced_gf2(0) if self.p == 2 else self._reduced_modp(0)
            if self.p == 2:
                rows = self.dense(rows, self.k, 2).T
            rows.flags.writeable = leads.flags.writeable = False
            self._block = rows, leads
        return self._block

    def kernel(self, k: int, span: "ColumnReducer") -> list:
        """The kernel vectors that `span`, over F_p^(self.k - k), admits, as
        new columns in the form `add` takes.  Fed columns of [m; I]
        (`stacked`), m with k rows, the block rows that lead at k or past
        vanish on m; their lower parts, by lead, are the reduced echelon
        basis of the kernel of the columns fed (R = D V, Edelsbrunner &
        Harer, Computational Topology, VII.1)."""
        if self.p == 2:
            return [v for v in self._reduced_gf2(k)[0] if span.add(v) is not None]
        return [row.copy() for row in self._reduced_modp(k)[0] if span.add(row) is not None]

    def solve(self, v, k: int):
        """A y with m y = v, or None, in the form `add` takes, when the
        reducer was fed the columns of [m; I] of a k-row m (`stacked`).
        Each is [m y; y] once admitted, so [v; 0] reduces to [v - m y; -y],
        zero on top exactly when m y = v is solvable: a nonzero top leads
        where no admitted column does."""
        if self.p == 2:
            w, lead = self._reduce_gf2(v << (self.k - k))
            return None if lead is not None and lead < k else w
        w, lead = self._reduce_modp(np.concatenate((v, np.zeros(self.k - k, dtype=np.int64))))
        return None if lead is not None and lead < k else -w[k:] % self.p

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

    def _reduced_gf2(self, lo: int):
        """(bitsets, leads): the admitted columns that lead at lo or past,
        fully reduced among themselves, by lead.  Back-substitution, from
        the last lead row up: a column's entries at the other leads all
        lie below its own lead, where the rows are already fully reduced,
        and XOR with such a row changes no other lead entry."""
        cols = self._cols
        tops = sorted(top for top in cols if top <= self.k - lo)
        lead_bits = sum(1 << (top - 1) for top in tops)
        red = {}
        for top in tops:
            w = cols[top]
            hits = (w & lead_bits) ^ (1 << (top - 1))
            while hits:
                bit = hits.bit_length()
                w ^= red[bit]
                hits ^= 1 << (bit - 1)
            red[top] = w
        return [red[top] for top in tops[::-1]], self.k - np.array(tops[::-1], dtype=np.int64)

    def _reduced_modp(self, lo: int):
        """(rows, leads): the admitted columns that lead at lo or past, cut
        to rows lo.., fully reduced among themselves, by lead, in a new
        array.  Back-substitution, from the last lead up, one lead column at
        a time: the row of that lead is by then zero at every other lead, so
        clearing its column in the rows above changes no other lead entry,
        and which rows need it can be read off before the first step."""
        leads = np.array(sorted(lead for lead in self._cols if lead >= lo), dtype=np.int64)
        rows = np.array([self._cols[lead][lo:] for lead in leads.tolist()], dtype=np.int64).reshape(leads.size, self.k - lo)
        leads -= lo
        hits = (rows != 0)[:, leads]  # zero below the diagonal, one on it
        for i in np.flatnonzero(hits.sum(axis=0) > 1)[::-1]:
            lead, above = leads[i], hits[:i, i].nonzero()[0]
            rows[above, lead:] = (rows[above, lead:] - rows[above, lead, None] * rows[i, lead:]) % self.p
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
    kept, and unit vectors born at `here` complete the basis.  One
    `ColumnReducer` takes the pushed columns, then the unit vectors in
    its own form, until its rank is d, and the basis is built from what
    it admits.  A walk starts from the zero space: an edge with no
    columns and a flag with an empty basis.
    """
    d = edge.shape[0]
    pushed = matmul(edge, flag[0], p)
    reducer = ColumnReducer(d, p)
    keep = []
    for j, v in enumerate(ColumnReducer.columns(pushed, p)):
        if reducer.rank == d:
            break
        if reducer.add(v) is not None:
            keep.append(j)
    units = [i for i in range(d) if reducer.rank < d and reducer.add(reducer.unit(i)) is not None]
    basis = np.zeros((d, len(keep) + len(units)), dtype=np.int64)
    basis[:, : len(keep)] = pushed[:, keep]
    basis[units, np.arange(len(keep), basis.shape[1])] = 1
    return basis, np.concatenate((flag[1][keep], np.full(len(units), here, dtype=np.int64)))


def pair_flags(flag_a, flag_b, shape, p: int) -> np.ndarray:
    """C[x, y] = dim(A_x cap B_y) for two flags A and B of F_p^d, held as
    `flag_step` returns them, for x < shape[0] and y < shape[1].

    Let X be the B-basis in coordinates of the A-basis, rows ordered by
    falling A-birth.  Then dim B_y - dim(A_x cap B_y) is the rank of the
    rows of A-birth > x in the columns of B-birth <= y, a lower-left
    submatrix.  One left-to-right reduction of X pairs every column with
    a lead row (X is invertible), so by the pairing lemma C[x, y] counts
    the pairs with A-birth <= x and B-birth <= y: `pair_counts` of X,
    whose columns the solve against the A-basis reversed gives in the
    reducer's form.
    """
    (a, a_birth), (b, b_birth) = flag_a, flag_b
    coords = solve_columns(ColumnReducer.columns(a[:, ::-1], p), ColumnReducer.columns(b, p), a.shape[0], p)
    return pair_counts(coords, a.shape[0], a_birth[::-1], b_birth, shape, p)


def solve_columns(m: list, b: list, k: int, p: int) -> Optional[list]:
    """One solution X of m X = b, or None if any column of b is
    inconsistent, with m, b and X given as columns in the form
    `ColumnReducer.add` takes, m and b of k rows.

    One reducer admits the columns of [m; I] (R = D V, as in
    `resolution.graded_kernel_basis`), each handed to it as it is made,
    and solves each column of b on them (`ColumnReducer.solve`), by the
    same code at every p; the solution is the only one when the columns
    of m are independent.  No [m | b] is built, and no [m; I] array.
    """
    reducer = ColumnReducer(k + len(m), p)
    for v in ColumnReducer.stacked(m, k, p):
        reducer.add(v)
    x = []
    for v in b:
        x.append(reducer.solve(v, k))
        if x[-1] is None:
            return None
    return x


def solve_matrix(m, b, p: int, k: Optional[int] = None) -> Optional[np.ndarray]:
    """One solution X of m X = b as an int64 matrix; None if any column of
    b is inconsistent.

    m and b are matrices, or the columns of k-row ones in the form
    `ColumnReducer.add` takes; `solve_columns` solves them.
    """
    if isinstance(b, np.ndarray):
        k = b.shape[0]
        b = ColumnReducer.columns(b, p)
    if isinstance(m, np.ndarray):
        if m.shape[0] != k:
            raise ValueError(f"shape mismatch {m.shape} x = ({k}, {len(b)})")
        m = ColumnReducer.columns(m, p)
    x = solve_columns(m, b, k, p)
    return None if x is None else ColumnReducer.dense(x, len(m), p)
