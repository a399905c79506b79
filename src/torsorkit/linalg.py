"""Dense exact matrices with fraction-free (Bareiss-style) elimination.

Rows are tuples of field values.  The reduced row echelon form is computed
with one-step fraction-free Gauss-Jordan updates, which keeps entries
integral for integer input over the rationals; the same update is valid
verbatim over GF(p).  All pivot choices are deterministic (leftmost column,
topmost row), so echelon bases are canonical and reproducible.

A permutation is an index map, not a matrix.  ``leg_permutation`` gives the
index map of a reordering of tensor legs of mixed dimensions;
``permute_rows`` and ``permute_cols`` apply it to a matrix by moving rows or
columns, with no arithmetic.  ``mixed_permutation`` builds the same
permutation as a dense matrix and is kept as the reference the tests
compare against.
"""

from __future__ import annotations

from .errors import NotInvertible, ShapeMismatch
from .fields import Field

_identity_cache: dict = {}


class Matrix:
    """Immutable ``rows x cols`` matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_id_flag")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ShapeMismatch("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ShapeMismatch("ncols disagrees with row length")
        else:
            if ncols is None:
                raise ShapeMismatch("empty matrix needs explicit ncols")
            self.ncols = ncols
        self._id_flag = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        return Matrix(field, [(z,) * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(field, n):
        key = (id(field), n)
        hit = _identity_cache.get(key)
        if hit is not None:
            return hit
        z, o = field.zero, field.one
        m = Matrix(field, [tuple(o if i == j else z for j in range(n)) for i in range(n)], n)
        m._id_flag = True
        _identity_cache[key] = m
        return m

    @staticmethod
    def from_rows(field, rows, ncols=None):
        return Matrix(field, [[field.parse(x) for x in r] for r in rows], ncols)

    @staticmethod
    def from_cols(field, cols, nrows=None):
        cols = list(cols)
        if not cols:
            if nrows is None:
                raise ShapeMismatch("from_cols: empty column list needs nrows")
            return Matrix(field, [()] * nrows, 0) if nrows else Matrix(field, [], 0)
        n = len(cols[0])
        return Matrix(field, [tuple(c[i] for c in cols) for i in range(n)], len(cols))

    # -- basics ------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"

    def entry(self, i, j):
        return self.rows[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def is_zero(self):
        iz = self.field.is_zero
        return all(iz(x) for r in self.rows for x in r)

    def is_identity(self):
        if self._id_flag is not None:
            return self._id_flag
        if self.nrows != self.ncols:
            self._id_flag = False
            return False
        f = self.field
        ok = all(
            (f.is_zero(f.sub(x, f.one)) if i == j else f.is_zero(x))
            for i, r in enumerate(self.rows)
            for j, x in enumerate(r)
        )
        self._id_flag = ok
        return ok

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)) if self.nrows else [], self.nrows)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        self._check_same_shape(other)
        f = self.field
        return Matrix(
            self.field,
            [tuple(f.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        f = self.field
        return Matrix(
            self.field,
            [tuple(f.sub(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self):
        f = self.field
        return Matrix(self.field, [tuple(f.neg(a) for a in r) for r in self.rows], self.ncols)

    def scale(self, c):
        f = self.field
        return Matrix(self.field, [tuple(f.mul(c, a) for a in r) for r in self.rows], self.ncols)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product; sparse-aware on both factors."""
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        f = self.field
        z = f.zero
        iz, add, mul = f.is_zero, f.add, f.mul
        n = other.ncols
        nz_rows = [None] * other.nrows
        orows = other.rows
        out = []
        for r in self.rows:
            acc = [z] * n
            for j, a in enumerate(r):
                if iz(a):
                    continue
                pairs = nz_rows[j]
                if pairs is None:
                    pairs = tuple((k, b) for k, b in enumerate(orows[j]) if not iz(b))
                    nz_rows[j] = pairs
                for k, b in pairs:
                    acc[k] = add(acc[k], mul(a, b))
            out.append(tuple(acc))
        return Matrix(f, out, n)

    def apply(self, vec):
        """Image of a coordinate vector; cost scales with its support."""
        if len(vec) != self.ncols:
            raise ShapeMismatch("vector length mismatch")
        if self._id_flag:
            return tuple(vec)
        f = self.field
        iz, add, mul = f.is_zero, f.add, f.mul
        out = [f.zero] * self.nrows
        rows = self.rows
        for j, v in enumerate(vec):
            if iz(v):
                continue
            for i in range(self.nrows):
                a = rows[i][j]
                if not iz(a):
                    out[i] = add(out[i], mul(a, v))
        return tuple(out)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major index convention."""
        f = self.field
        if self.is_identity() and other.is_identity():
            return Matrix.identity(f, self.nrows * other.nrows)
        iz, mul = f.is_zero, f.mul
        z = f.zero
        zrow = (z,) * other.ncols
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                row = []
                for a in r1:
                    if iz(a):
                        row.extend(zrow)
                    else:
                        row.extend(mul(a, b) for b in r2)
                out.append(tuple(row))
        return Matrix(f, out, self.ncols * other.ncols)

    @staticmethod
    def stack_rows(mats):
        mats = list(mats)
        f = mats[0].field
        ncols = mats[0].ncols
        rows = []
        for m in mats:
            if m.ncols != ncols:
                raise ShapeMismatch("stack_rows: column counts differ")
            rows.extend(m.rows)
        return Matrix(f, rows, ncols)

    @staticmethod
    def augment(a: "Matrix", b: "Matrix") -> "Matrix":
        if a.nrows != b.nrows:
            raise ShapeMismatch("augment: row counts differ")
        return Matrix(a.field, [ra + rb for ra, rb in zip(a.rows, b.rows)], a.ncols + b.ncols)

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form and pivot column list.

        Deterministic pivoting (leftmost column, topmost row), so the result
        is the canonical rref.  Small dense matrices use one-step
        fraction-free Gauss-Jordan (Bareiss update), which keeps integer
        input integral; larger ones use a sparse-friendly normalised
        elimination that only touches nonzero rows.  Both are exact and the
        rref is unique, so the paths agree.
        """
        if max(self.nrows, self.ncols) <= 48:
            return self._rref_fraction_free()
        return self._rref_sparse()

    def _rref_fraction_free(self):
        f = self.field
        iz, mul, sub, div = f.is_zero, f.mul, f.sub, f.div
        m, n = self.nrows, self.ncols
        rows = [list(r) for r in self.rows]
        pivots = []
        prev = f.one
        r = 0
        for c in range(n):
            pr = None
            for i in range(r, m):
                if not iz(rows[i][c]):
                    pr = i
                    break
            if pr is None:
                continue
            if pr != r:
                rows[r], rows[pr] = rows[pr], rows[r]
            p = rows[r][c]
            piv_row = rows[r]
            p_is_prev = p == prev
            for i in range(m):
                if i == r:
                    continue
                ri = rows[i]
                ai = ri[c]
                if iz(ai):
                    if p_is_prev:
                        continue
                    for k in range(n):
                        x = ri[k]
                        if not iz(x):
                            ri[k] = div(mul(p, x), prev)
                else:
                    for k in range(n):
                        ri[k] = div(sub(mul(p, ri[k]), mul(ai, piv_row[k])), prev)
            prev = p
            pivots.append(c)
            r += 1
            if r == m:
                break
        for i, c in enumerate(pivots):
            p = rows[i][c]
            if not iz(sub(p, f.one)):
                rows[i] = [div(x, p) for x in rows[i]]
        return Matrix(f, [tuple(row) for row in rows], n), pivots

    def _rref_sparse(self):
        f = self.field
        iz, mul, sub, div = f.is_zero, f.mul, f.sub, f.div
        m, n = self.nrows, self.ncols
        # rows as sparse dicts col -> value
        rows = []
        for r in self.rows:
            d = {j: x for j, x in enumerate(r) if not iz(x)}
            rows.append(d)
        pivots = []
        piv_rows = []
        r = 0
        for c in range(n):
            pr = None
            for i in range(r, m):
                if c in rows[i]:
                    pr = i
                    break
            if pr is None:
                continue
            if pr != r:
                rows[r], rows[pr] = rows[pr], rows[r]
            piv = rows[r]
            p = piv[c]
            if p != f.one:
                for k in list(piv):
                    piv[k] = div(piv[k], p)
            piv_items = tuple(piv.items())
            for i in range(m):
                if i == r:
                    continue
                ri = rows[i]
                a = ri.get(c)
                if a is None:
                    continue
                for k, v in piv_items:
                    w = sub(ri.get(k, f.zero), mul(a, v))
                    if iz(w):
                        ri.pop(k, None)
                    else:
                        ri[k] = w
            pivots.append(c)
            r += 1
            if r == m:
                break
        z = f.zero
        out = []
        for d in rows:
            row = [z] * n
            for k, v in d.items():
                row[k] = v
            out.append(tuple(row))
        # move zero rows to the bottom preserving order of nonzero rows
        nonzero = [row for row in out if any(not iz(x) for x in row)]
        zero = [row for row in out if all(iz(x) for x in row)]
        return Matrix(f, nonzero + zero, n), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Canonical kernel basis (one row per free column of the rref)."""
        f = self.field
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        basis = []
        z, o = f.zero, f.one
        for j in free:
            v = [z] * self.ncols
            v[j] = o
            for i, p in enumerate(pivots):
                v[p] = f.neg(R.rows[i][j])
            basis.append(tuple(v))
        return basis

    def row_space_basis(self):
        """Canonical (rref) basis of the row space."""
        R, pivots = self.rref()
        return [R.rows[i] for i in range(len(pivots))]

    def solve(self, rhs: "Matrix"):
        """A particular X with ``self @ X == rhs``, or None if inconsistent.

        Free variables are set to zero, so the solution is canonical.
        """
        if rhs.nrows != self.nrows:
            raise ShapeMismatch("solve: row counts differ")
        f = self.field
        R, pivots = Matrix.augment(self, rhs).rref()
        n = self.ncols
        if any(p >= n for p in pivots):
            return None
        z = f.zero
        out_rows = [[z] * rhs.ncols for _ in range(n)]
        for i, p in enumerate(pivots):
            out_rows[p] = list(R.rows[i][n:])
        return Matrix(f, [tuple(r) for r in out_rows], rhs.ncols)

    def inverse(self):
        f = self.field
        if self.nrows != self.ncols:
            raise NotInvertible(
                f"dimension mismatch: {self.nrows}x{self.ncols}", rank=None
            )
        n = self.nrows
        X = self.solve(Matrix.identity(f, n))
        if X is None or not (self @ X).is_identity() or not (X @ self).is_identity():
            rank = self.rank()
            kv = self.kernel_basis()
            return_witness = kv[0] if kv else None
            raise NotInvertible(
                f"matrix of rank {rank} < {n} is not invertible",
                rank=rank,
                kernel_vector=return_witness,
            )
        return X


def leg_permutation(dims, order) -> list[int]:
    """Index map of a leg permutation of a tensor product of mixed dims.

    ``dims`` are the input leg dimensions and output leg i carries input
    leg ``order[i]``; the result ``idx`` has out[i] = in[idx[i]] in
    row-major (first leg most significant) numbering.  Built leg by leg from
    the input strides, one list comprehension per output leg.
    """
    strides = [1] * len(dims)
    for leg in range(len(dims) - 2, -1, -1):
        strides[leg] = strides[leg + 1] * dims[leg + 1]
    idx = [0]
    for leg in order:
        s = strides[leg]
        idx = [base + s * d for base in idx for d in range(dims[leg])]
    return idx


def permute_rows(mat: Matrix, dims, order) -> Matrix:
    """``mixed_permutation(f, dims, order) @ mat`` by reordering rows."""
    idx = leg_permutation(dims, order)
    if len(idx) != mat.nrows:
        raise ShapeMismatch("permutation does not match the row count")
    rows = mat.rows
    return Matrix(mat.field, [rows[i] for i in idx], mat.ncols)


def permute_cols(mat: Matrix, dims, order) -> Matrix:
    """``mat @ mixed_permutation(f, dims, order)`` by reordering columns.

    Column ``idx[j]`` of the product is column ``j`` of ``mat``, so the
    columns are read through the inverse index.
    """
    idx = leg_permutation(dims, order)
    if len(idx) != mat.ncols:
        raise ShapeMismatch("permutation does not match the column count")
    inv = [0] * len(idx)
    for j, c in enumerate(idx):
        inv[c] = j
    return Matrix(mat.field, [tuple(r[j] for j in inv) for r in mat.rows], mat.ncols)


def mixed_permutation(field, dims, order) -> Matrix:
    """The dense permutation matrix of ``leg_permutation(dims, order)``.

    A reference for tests; the engine applies permutations with
    ``permute_rows``/``permute_cols`` instead.
    """
    idx = leg_permutation(dims, order)
    z, o, total = field.zero, field.one, len(idx)
    return Matrix(field, [(z,) * i + (o,) + (z,) * (total - i - 1) for i in idx], total)


def permutation_matrix(field, n, order):
    """``mixed_permutation`` on the legs of an n-dim space's tensor power."""
    return mixed_permutation(field, [n] * len(order), order)


def permute_tensor_rows(mat: Matrix, n: int, order) -> Matrix:
    """``permute_rows`` on the legs of an n-dim space's tensor power."""
    return permute_rows(mat, [n] * len(order), order)


def sparse_rank_lower_bound(mat: Matrix, modulus: int, stop_at: int | None = None) -> int:
    """Rank of ``mat`` reduced mod a prime, via sparse echelon insertion.

    For integer matrices over Q this is a certified lower bound on the exact
    rank (specialisation cannot raise rank).  Rows are kept as sparse dicts;
    no back-elimination, so fill-in stays small for the kron-structured
    matrices this is used on.
    """
    p = modulus
    basis: dict[int, dict[int, int]] = {}
    rank = 0
    for row in mat.rows:
        r = {}
        for j, x in enumerate(row):
            if isinstance(x, int):
                v = x % p
            else:
                num, den = x.numerator, x.denominator
                if den % p == 0:
                    raise ValueError("denominator not invertible mod p")
                v = num * pow(den, p - 2, p) % p
            if v:
                r[j] = v
        while r:
            lead = min(r)
            if lead not in basis:
                inv = pow(r[lead], p - 2, p)
                basis[lead] = {j: v * inv % p for j, v in r.items()}
                rank += 1
                break
            coef = r[lead]
            for j, v in basis[lead].items():
                w = (r.get(j, 0) - coef * v) % p
                if w:
                    r[j] = w
                elif j in r:
                    del r[j]
        if stop_at is not None and rank >= stop_at:
            return rank
    return rank
