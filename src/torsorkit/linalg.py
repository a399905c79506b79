"""Sparse exact matrices with one elimination routine.

A ``Matrix`` stores each row as a dict from column index to value, and no
dict ever holds a zero.  Equality compares those dicts, so two matrices with
the same entries are equal however they were built, and a check costs time
in proportion to the nonzero entries, never the zeros (compressed sparse
rows; Davis, *Direct Methods for Sparse Linear Systems*, SIAM 2006, ch. 2).
The public constructor takes dense rows and drops their zeros once; every
operation builds its result from sparse rows directly through
``Matrix.from_sparse_rows``.  An identity is a flag over n one-entry rows.
``.rows`` is a dense view built on demand, for documents and tests.

Stored values are canonical: over QQ an ``int`` when integral and a
``Fraction`` with denominator > 1 otherwise, over GF(p) an ``int`` in
``[1, p)``.  The kernels (the product's three paths ``_sparse_product``,
``_integer_row_product`` and ``_packed_product``, the elimination's two
paths ``_sparse_rref`` and
``_packed_rref``, the packed-resident helpers, ``kron``, ``kron_apply``,
``apply``, ``apply_pair``, the entrywise operations and the constructors)
compute every term with the native ``+``, ``-`` and ``*`` of those values
and call no per-entry field method.  Each result row, column or vector is
reduced once: by ``Field.normalise`` (which drops its zeros and puts each
value in stored form: over QQ an integral ``Fraction`` becomes its
``int``, over GF(p) a value is reduced mod p), by one gcd per value over
the row's common denominator (``_integer_row_product``), by the Barrett
step of ``_reduce`` over packed residues, or, in ``kron``, entry by entry
as it is written, each entry being one product (``% p`` over GF(p); over
QQ only a row with a ``Fraction`` factor is normalised).

The product has three paths.  ``_sparse_product`` sums each row in a dict,
one update per term, when every value of both operands is an ``int``, over
QQ and GF(p) alike.  Over QQ a product with a ``Fraction`` on either side
takes ``_integer_row_product``: each right row j is scaled by the lcm d_j
of its denominators into an int row, each left row i puts its coefficients
a_ij / d_j over one common denominator L_i and sums those int rows with
native ``+`` and ``*``, and each nonzero sum v becomes v / L_i in stored
form after one gcd.  So every term is big-int arithmetic in C and no
``Fraction`` is built or added per term (integer rows over a common
denominator, the fraction-free technique of von zur Gathen and Gerhard,
*Modern Computer Algebra*).  In a ``suite`` pass over the seed-1 dense
EX-C2 and EX-Q3 documents the 1,583 ``@`` calls with a ``Fraction``
operand took 0.19 s when they all took the dict loop and take 0.08 s
(2-core Xeon, Python 3.11).  The dispatch reads one flag per operand,
``Matrix._ints``: True when every value is an ``int``, False when one may
be a ``Fraction``, None when the builder did not know.  It is decided
where a matrix is built: every constructor and kernel of this module
passes it to ``from_sparse_rows`` from its inputs' flags (a product of int
operands is int, a transpose keeps its operand's flag, an echelon form of
an int operand is int when every pivot was 1 or -1, ``kron`` reads both
operands' types anyway), the constructors from arbitrary values read it
off the pass that puts them in stored form (``Field.normalise_rows``), and
the engine's own builders outside this module pass their inputs' flags.  A matrix built with None is scanned once, when a product, an
echelon form or a Kronecker product first needs its flag (``_integral``),
and keeps the answer; the last two ask for their operands' flags, so that
what they build inherits one answer instead of being scanned again.  So an
int-only workload adds no per-product work.  A False flag on a matrix of
ints costs only speed: its products take the integer-row path, which gives
the same stored rows.  Over GF(p) every value is an ``int``, and a product
whose right operand is dense enough takes ``_packed_product`` instead:
each row of the right operand is packed into one Python int, one
fixed-width slot per column, wide enough that no sum of residue products
carries into the next slot, so a result row is a sum of small multiples of
those ints, done in C by the big-int arithmetic (Dumas, Fousse and Salvy,
J. Symb. Comput. 46, 2011).  ``_packed_slot`` picks the path from the
operands' nonzero counts; sparse or tiny products and primes whose slot
would exceed 64 bits keep the dict loop.

A packed product stays packed.  Its row sums are joined into one int per
matrix, and every slot is reduced mod p at once by one vectorised Barrett
step (Barrett, CRYPTO '86): the even and odd slots are split to twice
their width, each gets the quotient estimate ``v * (2**b // p) >> b`` for
b-bit slots, and one conditional subtraction of p finishes it, since every
slot is below ``2**b`` (``_reduce``).  The ``Matrix`` keeps that int as
``_packed`` and builds its row dicts only when something reads ``_rows``
(``_Packed.__getattr__``, on a subclass so that reads of every other
matrix keep CPython's specialised slot access; every matrix carries the
packing slots).  ``is_zero`` and ``is_identity`` work on the packed
residues, and so does ``==`` when both sides are packed in one slot
format; against a dict matrix or another format it compares rows, which
builds the packed side's row dicts.  A packed matrix that becomes the
right operand of a packed product hands over its row ints, cut from its
one int and kept on it (``_packed_rows``), and as the left operand gives
its residues, zeros included; ``solve`` cuts its unit rows from the
packed int (``_take_rows``), and ``kron_apply`` builds its G product
packed and moves a packed stage to the next as runs of bytes
(``_move_runs``).  ``_packed_rows`` is the one packer: it cuts row ints
from a packed int of their slot format, rewrites the residues of a packed
int of another format on its bytes (``_recode``), and writes a dict
matrix's row dicts into one buffer of slots; ``_unpack_rows`` is the one
way back from packed residues to row dicts.  In a ``suite`` run
on the seed-1 dense EX-SW document over GF(101), 97 of the 101 packed
products compared with a packed product of their format are never
unpacked.

``Matrix.rref`` is the only elimination, exact over Q and GF(p) alike, and
it too has two paths.  ``_sparse_rref`` is Gauss-Jordan on the sparse rows,
with the modular reduction delayed to the points where a value is read
(once per column, pivot row and output row) and each pivot touching only
the rows its column meets.  Over GF(p) a dense enough operand takes
``_packed_rref``: the same Gauss-Jordan on the product's packed rows
(``_packed_rows``, so a product packed in the elimination's slot format is
cut from its int, not unpacked), each row step one big-int multiply-add,
with slots wide enough for the ``min(m, n)`` steps a row can take (Dumas,
Giorgi and Pernet, *FFLAS and FFPACK*, ACM TOMS 35, 2008).  A chosen pivot
row is reduced by ``_reduce``, scaled by one big-int multiply and reduced
again; at the end the pivot rows are joined, reduced by one ``_reduce``
and unpacked by ``_unpack_rows``.  So the product and the elimination
share one packer, one reducer and one unpacker.  ``_rref_slot`` picks the
path from the operand's nonzero count and shape.  Every kernel and
inverse goes through ``rref``, and so does every rank and solve except on
a matrix whose every column c has a unit row, a row equal to the unit
vector e_c (``Matrix.unit_rows``).  A matrix has exactly one reduced row
echelon form, so both paths give the same rows and pivots, and echelon
bases are canonical and reproducible whichever row supplies a pivot.

``Matrix.solve`` reads an injection's solution off its unit rows.  The
injections the engine corestricts through (canonical echelon inclusions,
identities and their Kronecker products) have a unit row for every
column; on those rows P the system is the identity, so the solution is
the right-hand side's rows P, read with no elimination (reading
permuted-identity structure instead of factoring: Davis, *Direct Methods
for Sparse Linear Systems*, SIAM 2006) and checked exactly.  Every other
system, of any shape, is solved by one ``rref`` of ``[A | B]``.

A permutation is an index map, not a matrix.  ``leg_permutation`` gives the
index map of a reordering of tensor legs of mixed dimensions;
``permute_rows`` and ``permute_cols`` apply it to a matrix by moving rows or
columns, with no arithmetic.  ``mixed_permutation`` builds the same
permutation as a matrix and is kept as the reference the tests compare
against.  An order that does not list each leg exactly once is refused.

A Kronecker product is applied, not built.  ``kron_apply`` evaluates
``(F1 (x) ... (x) Fk) . P . (G1 (x) ... (x) Gm)`` by the shuffle algorithm
(Davio, *Kronecker products and shuffle algebra*, IEEE Trans. Comput.
1981; Fackler, *Algorithm 993*, ACM TOMS 45, 2019).  It builds the G
product on its nonempty rows only, each moved through P by a per-block
index table, and then applies the F factors one at a time, last first,
each to all columns at once as one ``Matrix.__matmul__`` whose right
operand is the current rows reshaped so that the factor's legs index its
rows.  A reshape is an index map with no arithmetic, so every stage takes
the product's own path choice, and over GF(p) a dense stage is packed.
When the cost rule packs the first stage (``_packed_slot``, on counts
known before anything is built: the G product has the product of its
factors' nonzeros), the G product is built packed too: each row is one
big-int product of the rows so far, spread to the next factor's width by
one strided write, with a row int of that factor, or shifted for an
identity leg, and the rows are joined in landing order and reduced once
(``_packed_g_product``).  The stages then move byte runs and build no row
dict unless one takes the dict loop.  So
a tensor identity is checked at the size of its carrier, not of its
ambient (the vec/Kronecker identities of Van Loan, *The ubiquitous
Kronecker product*, JCAM 2000).  In the same way ``Matrix.apply_pair``
evaluates a bilinear map, such as a product or an action, on a pair of
vectors without building their outer product.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import attrgetter, mul

from .errors import NotInvertible, ShapeMismatch
from .fields import Field, PrimeField

_identity_cache: dict = {}


class Matrix:
    """Immutable ``rows x cols`` matrix over a fixed field.

    ``_rows`` is a tuple of dicts ``{col: nonzero value}``; they are shared
    between matrices and never mutated after construction, so the hash is
    computed once, on first use.

    A packed product (``_packed_product``) holds its entries as ``_packed``,
    one int of reduced residues with a ``_code`` slot per entry, row-major,
    and leaves ``_rows`` unset until something reads it (``_Packed``); a
    dict matrix has ``_packed`` None.  ``_prows`` keeps the rows as packed
    ints in one slot format, ``(code, ints)``, once the matrix has been the
    right operand of a packed product or eliminated on packed rows.  So a
    matrix holds at most one packing of each kind.  ``_ints`` says what is
    known of the values' types, which picks the QQ product's path: True
    when every one is an ``int``, False when one may be a ``Fraction``, None
    until a scan finds out (``_integral``).
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_id_flag", "_col_cache", "_hash",
                 "_packed", "_code", "_prows", "_ints")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeMismatch("ragged rows")
            if ncols is not None and ncols != width:
                raise ShapeMismatch("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            raise ShapeMismatch("empty matrix needs explicit ncols")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        stored, self._ints = field.normalise_rows([dict(enumerate(r)) for r in rows])
        self._rows = tuple(stored)
        self._id_flag = None
        self._col_cache = None
        self._hash = None
        self._packed = None
        self._prows = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_sparse_rows(field, rows, ncols, ints=None) -> "Matrix":
        """A matrix on rows given as dicts ``{col: nonzero value}``.

        The dicts must hold no zero.  They are kept, not copied, so no one
        may mutate them afterwards.  ``ints`` is what the caller knows of
        the values (see ``_ints``): True when every one is an ``int``, False
        when one may be a ``Fraction``, None when it does not know.
        """
        m = object.__new__(Matrix)
        m.field = field
        m._rows = rows = tuple(rows)
        m.nrows = len(rows)
        m.ncols = ncols
        m._id_flag = None
        m._col_cache = None
        m._hash = None
        m._packed = None
        m._prows = None
        m._ints = ints
        return m

    @staticmethod
    def _from_packed(field, nrows, ncols, packed, code) -> "Matrix":
        """A GF(p) matrix on ``packed``, its ``nrows * ncols`` residues in
        ``code`` slots, row-major (see ``_reduce``); its row dicts are built
        when first read (``_Packed``)."""
        m = object.__new__(_Packed)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m._id_flag = None
        m._col_cache = None
        m._hash = None
        m._packed = packed
        m._code = code
        m._prows = None
        m._ints = True
        return m

    @staticmethod
    def zero(field, nrows, ncols):
        return Matrix.from_sparse_rows(field, [{} for _ in range(nrows)], ncols, True)

    @staticmethod
    def identity(field, n):
        key = (id(field), n)
        hit = _identity_cache.get(key)
        if hit is None:
            one = field.one
            hit = Matrix.from_sparse_rows(field, [{i: one} for i in range(n)], n, True)
            hit._id_flag = True
            _identity_cache[key] = hit
        return hit

    @staticmethod
    def from_rows(field, rows, ncols=None):
        return Matrix(field, [[field.parse(x) for x in r] for r in rows], ncols)

    @staticmethod
    def from_cols(field, cols, nrows=None):
        cols = list(cols)
        if not cols:
            if nrows is None:
                raise ShapeMismatch("from_cols: empty column list needs nrows")
            return Matrix.zero(field, nrows, 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ShapeMismatch("from_cols: ragged columns")
        if nrows is not None and nrows != n:
            raise ShapeMismatch(f"from_cols: columns of length {n}, nrows={nrows}")
        rows = [{} for _ in range(n)]
        for j, c in enumerate(cols):
            for i, x in enumerate(c):
                rows[i][j] = x
        stored, ints = field.normalise_rows(rows)
        return Matrix.from_sparse_rows(field, stored, len(cols), ints)

    # -- basics ------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """Dense view: a tuple of row tuples, zeros filled in."""
        return tuple(self.row(i) for i in range(self.nrows))

    def sparse_rows(self):
        """The rows as dicts ``{col: nonzero value}``; do not mutate them."""
        return self._rows

    def __eq__(self, other):
        """Equal shapes and entries.  Two dict matrices compare their rows;
        two packed products in one slot format compare their packed
        residues (``_packed_equal``), so neither is unpacked for it."""
        if not (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols):
            return False
        if self._packed is None and other._packed is None:
            return self._rows == other._rows
        return _packed_equal(self, other)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.shape, tuple(frozenset(r.items()) for r in self._rows)))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"

    def entry(self, i, j):
        return self._rows[i].get(j, self.field.zero)

    def row(self, i):
        z = self.field.zero
        get = self._rows[i].get
        return tuple(get(j, z) for j in range(self.ncols))

    def col(self, j):
        z = self.field.zero
        return tuple(r.get(j, z) for r in self._rows)

    def col_supports(self):
        """Per column, the ``(row, value)`` pairs of its nonzero entries.

        Computed on the first call and kept, except an identity's, which
        are built afresh; do not mutate them."""
        if self._id_flag:
            one = self.field.one
            return [((j, one),) for j in range(self.ncols)]
        cols = self._col_cache
        if cols is None:
            cols = self._col_cache = [[] for _ in range(self.ncols)]
            for i, r in enumerate(self._rows):
                for j, x in r.items():
                    cols[j].append((i, x))
        return cols

    def is_zero(self):
        if self._packed is not None:
            return not self._packed
        return not any(self._rows)

    def is_identity(self):
        if self._id_flag is not None:
            return self._id_flag
        n = self.nrows
        packed = self._packed
        if packed is not None:
            # n set bits, each a 1 on the diagonal: slots 0, n + 1, 2n + 2, ...
            ok = (n == self.ncols and packed.bit_count() == n and packed == int.from_bytes(
                (b"\x01" + bytes(_SLOT_BYTES[self._code] * (n + 1) - 1)) * n, "little"))
        else:
            one = self.field.one
            ok = n == self.ncols and all(
                len(r) == 1 and r.get(i) == one for i, r in enumerate(self._rows))
        self._id_flag = ok
        return ok

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._rows):
            for j, x in r.items():
                cols[j][i] = x
        return Matrix.from_sparse_rows(self.field, cols, self.nrows, self._ints)

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other, negate):
        """``self + other``, or ``self - other`` when ``negate``, on the union
        of the supports; only rows whose supports meet can cancel."""
        self._check_same_shape(other)
        f = self.field
        normalise = f.normalise
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            row = dict(r1)
            for k, v in r2.items():
                if negate:
                    v = -v
                row[k] = row[k] + v if k in row else v
            out.append(normalise(row, len(row) < len(r1) + len(r2)))
        return Matrix.from_sparse_rows(f, out, self.ncols, self._ints and other._ints)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        normalise = self.field.normalise
        return Matrix.from_sparse_rows(
            self.field, [normalise({k: -v for k, v in r.items()}, False) for r in self._rows],
            self.ncols, self._ints)

    def scale(self, c):
        f = self.field
        if not c:
            return Matrix.zero(f, self.nrows, self.ncols)
        normalise = f.normalise
        # a multiple of p reduces to zero rows over GF(p); over QQ c is nonzero
        return Matrix.from_sparse_rows(
            f, [normalise({k: c * v for k, v in r.items()}, False) for r in self._rows],
            self.ncols, self._ints and type(c) is int)

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch(f"shape {self.shape} vs {other.shape}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Matrix product, row by row over the nonzero entries.

        Over GF(p) a product whose right operand is dense enough is summed
        as packed integers and kept packed (``_packed_product``;
        ``_packed_slot`` decides).  Over QQ a product with a ``Fraction`` on
        either side (the operands' ``_ints`` flags, ``_integral``) is summed
        on integer rows over one denominator per row
        (``_integer_row_product``).  Every other product takes the dict
        loop (``_sparse_product``).  All three give the same stored rows."""
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        f = self.field
        if isinstance(f, PrimeField):
            code = _packed_slot(f, self.ncols, _nnz(self), _nnz(other), other.ncols)
            if code is not None:
                return _packed_product(self, other, code)
        elif not ((self._ints or _integral(self)) and (other._ints or _integral(other))):
            rows, ints = _integer_row_product(self._rows, other._rows)
            return Matrix.from_sparse_rows(f, rows, other.ncols, ints)
        return Matrix.from_sparse_rows(
            f, _sparse_product(self._rows, other._rows, f.normalise), other.ncols, True)

    def apply(self, vec):
        """Image of a coordinate vector; cost scales with the nonzeros."""
        if len(vec) != self.ncols:
            raise ShapeMismatch("vector length mismatch")
        f = self.field
        support = {j: v for j, v in enumerate(vec) if v}
        acc = {}
        summed = False
        for i, r in enumerate(self._rows):
            for j, a in r.items():
                v = support.get(j)
                if v is not None:
                    if i in acc:
                        acc[i] += a * v
                        summed = True
                    else:
                        acc[i] = a * v
        return _dense(f, f.normalise(acc, summed), self.nrows)

    def apply_pair(self, u, v):
        """``self @ (u (x) v)``, the pair in row-major order: the image of a
        pair under a bilinear map such as a product or an action.

        The column supports are computed on the first call and kept
        (``col_supports``), so the cost scales with the nonzeros of u and v
        and of the columns they select."""
        if len(u) * len(v) != self.ncols:
            raise ShapeMismatch("pair length mismatch")
        cols = self.col_supports()
        f = self.field
        width = len(v)
        v_support = [(j, b) for j, b in enumerate(v) if b]
        acc = {}
        get = acc.get
        terms = 0
        for i, a in enumerate(u):
            if not a:
                continue
            base = i * width
            for j, b in v_support:
                c = a * b
                col = cols[base + j]
                terms += len(col)
                for k, x in col:
                    y = get(k)
                    acc[k] = c * x if y is None else y + c * x
        return _dense(f, f.normalise(acc, terms > len(acc)), self.nrows)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major index convention.

        An identity factor only moves entries: ``I (x) X`` is X's rows with
        their columns shifted block by block (its first block shares X's
        row dicts), and ``X (x) I`` spreads each entry of X along a
        diagonal.  Otherwise each entry is one product of stored values:
        over GF(p) reduced inline (a product of nonzero residues is nonzero
        mod p), over QQ already stored when both values are ``int``; a row
        with a ``Fraction`` factor is normalised, since ``2 * 1/2`` is
        integral."""
        f = self.field
        n = other.ncols
        ncols = self.ncols * n
        orows = other._rows
        if self.is_identity():
            if other.is_identity():
                return Matrix.identity(f, self.nrows * other.nrows)
            out = []
            for i in range(self.nrows):
                # block i is X shifted by i blocks of columns; block 0 is X
                base = i * n
                out += [{base + k: v for k, v in r.items()} for r in orows] if base else orows
            return Matrix.from_sparse_rows(f, out, ncols, other._ints or _integral(other))
        if other.is_identity():
            out = []
            for r1 in self._rows:
                spread = [(j * n, a) for j, a in r1.items()]
                out += [{base + d: a for base, a in spread} for d in range(n)]
            return Matrix.from_sparse_rows(f, out, ncols, self._ints or _integral(self))
        out = []
        if isinstance(f, PrimeField):
            p = f.p
            for r1 in self._rows:
                blocks = [(j1 * n, a) for j1, a in r1.items()]
                out += [{base + j2: a * b % p for base, a in blocks for j2, b in r2.items()}
                        for r2 in orows]
            return Matrix.from_sparse_rows(f, out, ncols, True)
        normalise = f.normalise
        # rows of ``other`` whose values are all ``int``; the scan of both
        # operands gives their ``_ints`` flags too
        exact = [all(type(b) is int for b in r2.values()) for r2 in orows]
        ints1, ints2 = True, all(exact)
        for r1 in self._rows:
            blocks = [(j1 * n, a) for j1, a in r1.items()]
            exact1 = all(type(a) is int for _, a in blocks)
            ints1 = ints1 and exact1
            for r2, exact2 in zip(orows, exact):
                row = {base + j2: a * b for base, a in blocks for j2, b in r2.items()}
                out.append(row if exact1 and exact2 else normalise(row, False))
        self._ints, other._ints = ints1, ints2
        return Matrix.from_sparse_rows(f, out, ncols, ints1 and ints2)

    @staticmethod
    def stack_rows(mats):
        mats = list(mats)
        f = mats[0].field
        ncols = mats[0].ncols
        rows = []
        ints = True
        for m in mats:
            if m.ncols != ncols:
                raise ShapeMismatch("stack_rows: column counts differ")
            rows.extend(m._rows)
            ints = ints and m._ints
        return Matrix.from_sparse_rows(f, rows, ncols, ints)

    @staticmethod
    def augment(a: "Matrix", b: "Matrix") -> "Matrix":
        if a.nrows != b.nrows:
            raise ShapeMismatch("augment: row counts differ")
        n = a.ncols
        rows = []
        for ra, rb in zip(a._rows, b._rows):
            row = dict(ra)
            for k, v in rb.items():
                row[n + k] = v
            rows.append(row)
        return Matrix.from_sparse_rows(a.field, rows, n + b.ncols, a._ints and b._ints)

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form and pivot column list.

        A matrix has exactly one reduced row echelon form, so the result and
        its pivots are canonical whichever path computes them and whichever
        row supplies each pivot.  Both paths take the lowest-index row that
        is not yet a pivot row, move no row, and return the pivot rows in
        pivot order and then the zero rows.  Over GF(p) a dense enough
        operand is eliminated on packed rows (``_packed_rref``); every other
        operand, and every operand over QQ, takes the dict loop
        (``_sparse_rref``).  ``_rref_slot`` decides.  The dict loop makes at
        most ``2 * ncols + nrows`` ``normalise`` calls; the packed path
        makes none, and at most two ``_reduce`` calls per pivot and one
        for the rows it returns.
        """
        f = self.field
        code = _rref_slot(self)
        if code is None:
            rows, pivots, units = _sparse_rref(self._rows, f)
            # a non-unit pivot of an int operand may still leave int rows
            ints = (self._ints or _integral(self)) if units else None
        else:
            rows, pivots = _packed_rref(self, code)
            ints = True
        return Matrix.from_sparse_rows(f, rows, self.ncols, ints), pivots

    def rank(self):
        """The rank: ``ncols`` when every column has a unit row (see
        ``unit_rows``), otherwise the number of pivots of ``rref``."""
        if self.unit_rows() is not None:
            return self.ncols
        return len(self.rref()[1])

    def unit_rows(self):
        """For each column c, the first row equal to the unit vector e_c, or
        None when some column has no such row.

        Those rows are a basis of the rows and ``self`` restricted to them is
        the identity, so ``self`` has full column rank.  Echelon inclusions
        and their Kronecker products with identities have them.
        """
        one = self.field.one
        first = {}
        for i, r in enumerate(self._rows):
            if len(r) == 1:
                for c, x in r.items():
                    if x == one and c not in first:
                        first[c] = i
        if len(first) < self.ncols:
            return None
        return [first[c] for c in range(self.ncols)]

    def nullspace(self) -> "Matrix":
        """Canonical kernel basis as the rows of a matrix: one row per free
        column j of the rref, 1 at j and minus column j of the rref at the
        pivots."""
        f = self.field
        R, pivots = self.rref()
        neg, one = f.neg, f.one
        pivset = set(pivots)
        vecs = {j: {j: one} for j in range(self.ncols) if j not in pivset}
        for p, row in zip(pivots, R._rows):
            for j, x in row.items():
                if j != p:
                    vecs[j][p] = neg(x)
        return Matrix.from_sparse_rows(f, vecs.values(), self.ncols, R._ints)

    def kernel_basis(self):
        """``nullspace`` as a list of coordinate tuples."""
        return list(self.nullspace().rows)

    def solve(self, rhs: "Matrix"):
        """A particular X with ``self @ X == rhs``, or None if inconsistent.

        Free variables are set to zero, so the solution is canonical.  When
        every column has a unit row (``unit_rows``), those rows P make
        ``self[P]`` the identity, so X is ``rhs[P]``, the unique solution,
        read off with no elimination and returned only if ``self @ X ==
        rhs``, checked exactly.  Otherwise X is read off one rref of
        ``[self | rhs]``, whatever the shape: the system is inconsistent
        exactly when a pivot falls in the ``rhs`` columns.
        """
        if rhs.nrows != self.nrows:
            raise ShapeMismatch("solve: row counts differ")
        f = self.field
        P = self.unit_rows()
        if P is not None:
            X = _take_rows(rhs, P)
            return X if self @ X == rhs else None
        R, pivots = Matrix.augment(self, rhs).rref()
        n = self.ncols
        if any(p >= n for p in pivots):
            return None
        out = [{} for _ in range(n)]
        for p, row in zip(pivots, R._rows):
            out[p] = {k - n: v for k, v in row.items() if k >= n}
        return Matrix.from_sparse_rows(f, out, rhs.ncols, R._ints)

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


class _Packed(Matrix):
    """A packed product whose row dicts are not built yet.

    Reading its unset ``_rows`` slot builds them (``_unpack_rows``) and
    makes the matrix a plain ``Matrix``.  The hook lives on this subclass
    only: a class with ``__getattr__`` loses CPython's specialised slot
    reads, so ``Matrix`` itself, and every QQ or dict matrix, keeps them."""

    __slots__ = ()

    def __getattr__(self, name):
        # only an unset slot gets here
        if name != "_rows":
            raise AttributeError(name)
        rows = self._rows = _unpack_rows(self._packed, self.nrows, self.ncols, self._code)
        self.__class__ = Matrix
        return rows


def _sparse_product(rows, orows, normalise):
    """The rows of a product, each summed over the nonzero entries in a dict
    with native ``+`` and ``*`` and normalised once.

    A product of nonzero field elements is nonzero, so a row whose entries
    each received one term holds no zero; only rows where terms met are
    tested for zeros over QQ."""
    out = []
    for r in rows:
        acc = {}
        get = acc.get
        terms = 0
        for j, a in r.items():
            brow = orows[j]
            terms += len(brow)
            for k, b in brow.items():
                x = get(k)
                acc[k] = a * b if x is None else x + a * b
        out.append(normalise(acc, terms > len(acc)))
    return out


def _integral(m: Matrix):
    """Whether every value of ``m`` is an ``int``: its ``_ints`` flag, kept
    once found when the constructor did not know it, by one scan over QQ
    and at once over GF(p)."""
    ints = m._ints
    if ints is None:
        ints = m._ints = isinstance(m.field, PrimeField) or _all_ints(m._rows)
    return ints


def _all_ints(rows):
    # a plain loop: the cheapest scan of the small matrices a document holds
    for r in rows:
        for v in r.values():
            if type(v) is not int:
                return False
    return True


_denominator = attrgetter("denominator")


def _ratio(num, den):
    """The ``Fraction`` num/den of coprime ints with ``den > 1``, built
    without the second gcd of the constructor (as Python 3.12's
    ``Fraction._from_coprime_ints`` does)."""
    x = object.__new__(Fraction)
    x._numerator = num
    x._denominator = den
    return x


def _integer_row_product(rows, orows):
    """The rows of a QQ product, summed on integer rows over one
    denominator per row, and whether every value is an ``int``.

    Each right row j is scaled by the lcm d_j of its denominators into an
    int row.  Each left row i writes its coefficients a_ij / d_j over one
    common denominator L_i and sums those int rows times the int
    numerators with native ``+`` and ``*``, so every term is big-int
    arithmetic in C and no ``Fraction`` is built or added per term (the
    fraction-free technique of von zur Gathen and Gerhard, *Modern Computer
    Algebra*).  A nonzero sum v is v / L_i in stored form after one
    gcd: an ``int`` when L_i divides v, otherwise a ``Fraction``.
    """
    # lcm by reduce, not lcm(*...): an argument tuple per row would stock
    # CPython's tuple free lists with a few hundred KB that stay allocated
    dens = [reduce(lcm, map(_denominator, b.values()), 1) for b in orows]
    scaled = [b if d == 1 else {k: v.numerator * (d // v.denominator) for k, v in b.items()}
              for b, d in zip(orows, dens)]
    out = []
    ints = True
    for r in rows:
        den = [a.denominator * dens[j] for j, a in r.items()]
        L = reduce(lcm, den, 1)
        acc = {}
        get = acc.get
        for (j, a), d in zip(r.items(), den):
            e = a.numerator * (L // d)
            for k, b in scaled[j].items():
                x = get(k)
                acc[k] = e * b if x is None else x + e * b
        if L == 1:
            out.append({k: v for k, v in acc.items() if v})
            continue
        row = {}
        for k, v in acc.items():
            if v:
                g = gcd(v, L)
                if g == L:
                    row[k] = v // L
                else:
                    row[k] = _ratio(v // g, L // g)
                    ints = False
        out.append(row)
    return out, ints


def _sparse_rref(rows, field):
    """Gauss-Jordan on sparse rows: the pivot rows in pivot order, then the
    zero rows, the pivot columns, and whether every pivot's inverse was an
    ``int``, so that over QQ the rows of an all-``int`` operand stay ``int``.

    Between pivots the rows hold raw values built with native ``+ - *``
    (delayed reduction).  An index from each column to the rows that may
    hold it limits every pivot to the rows its column meets (the row and
    column lists of sparse elimination, Davis 2006).  At column c those
    rows give up their raw entries, and one ``normalise`` of that column
    says which are nonzero and gives their stored values.  A pivot row is
    normalised once, scaled by the inverse of its pivot, when it is chosen,
    and every output row once at the end: at most ``2 * ncols + nrows``
    calls in all, over QQ and GF(p) alike.
    """
    normalise, inv = field.normalise, field.inv
    one = field.one
    m = len(rows)
    rows = [dict(r) for r in rows]
    # column -> rows that may hold it, a dict as an ordered set; a row
    # leaves a list only when that column is eliminated
    cols = {}
    for i, r in enumerate(rows):
        for k in r:
            held = cols.get(k)
            if held is None:
                cols[k] = {i: None}
            else:
                held[i] = None
    is_pivot = [False] * m
    pivots, pivot_rows = [], []
    units = True
    # a row gains keys only from pivot rows, whose columns are all
    # listed already, so the columns to visit are known up front
    for c in sorted(cols):
        col = normalise({i: x for i in cols.pop(c)
                         if (x := rows[i].pop(c, None)) is not None}, True)
        pr = min((i for i in col if not is_pivot[i]), default=None)
        if pr is None:
            # only pivot rows hold column c: they keep their entries
            for i, x in col.items():
                rows[i][c] = x
            continue
        p = col.pop(pr)
        s = inv(p) if p != one else one
        units = units and type(s) is int
        piv = normalise({k: v * s for k, v in rows[pr].items()}, True)
        # every other row that meets column c loses it; a key new to a
        # row joins its column's list
        items = [(k, v, cols[k]) for k, v in piv.items()]
        for i, a in col.items():
            ri = rows[i]
            na = -a
            for k, v, held in items:
                x = ri.get(k)
                if x is None:
                    ri[k] = na * v
                    held[i] = None
                else:
                    ri[k] = x + na * v
        piv[c] = one
        rows[pr] = piv
        is_pivot[pr] = True
        pivots.append(c)
        pivot_rows.append(pr)
        if len(pivots) == m:
            break
    # every other row lost each of its columns, so it is empty
    out = [normalise(rows[i], True) for i in pivot_rows]
    out += [{} for _ in range(m - len(out))]
    return out, pivots, units


# slots of the packed GF(p) kernels, narrowest first: (bits, memoryview
# format), each format a native unsigned integer
_SLOTS = tuple((8 * memoryview(bytes(8)).cast(code).itemsize, code) for code in "BHIQ")
_SLOT_BYTES = {code: bits // 8 for bits, code in _SLOTS}


def _slot(field, n):
    """``(bits, format)`` of the narrowest slot that holds a sum of n
    products of GF(p) residues, ``n * (p - 1)**2``, so that no carry
    crosses into the next slot; None over QQ or above 64 bits."""
    if not isinstance(field, PrimeField):
        return None
    need = (n * (field.p - 1) ** 2).bit_length()
    return next((s for s in _SLOTS if s[0] >= need), None)


def _packed_slot(field, n, nnz_a, nnz_b, ncols):
    """The slot format of a product ``a @ b`` through n, or None for the
    dict loop; a has ``nnz_a`` nonzero entries, b has ``nnz_b`` and
    ``ncols`` columns.

    A product packs when it has a slot (``_slot``) and the cost rule, on
    those counts, says it pays.  The dict loop spends about one dict update
    per term, about ``nnz_a * nnz_b / n`` terms in all; the packed path
    about one big-int step per 64-bit word it adds, ``(nnz_a + n) * words``
    with ``words`` the 64-bit words of a packed row, plus one slot write per
    nonzero of b.  Timed on the 1,984 nonempty products of a dense-gf101
    pass and on 245 random GF(101) products up to 1024 x 1024 (2-core Xeon,
    Python 3.11), a word costs about an eighth of a dict update and a
    product with fewer than 32 spare terms gains nothing.  The rule packs
    about a third of that workload's products, and its total time comes
    within 4% of always picking the faster path.
    """
    slot = _slot(field, n)
    if slot is None:
        return None
    bits, code = slot
    words = (ncols * bits + 63) // 64
    if nnz_a * nnz_b > n * ((nnz_a + n) * words // 8 + nnz_b + 32):
        return code
    return None


def _nnz(m: Matrix):
    """The nonzero entries of ``m``.  On packed residues no row dict is
    built: each slot's bits are or-ed into its lowest bit, and those bits
    counted."""
    x = m._packed
    if x is None:
        return sum(map(len, m._rows))
    w = _SLOT_BYTES[m._code]
    shift = 4 * w
    while shift:
        x |= x >> shift
        shift //= 2
    return (x & int.from_bytes((b"\x01" + bytes(w - 1)) * (m.nrows * m.ncols),
                               "little")).bit_count()


def _packed_product(a: Matrix, b: Matrix, code):
    """``a @ b`` over GF(p), summed as packed integers and kept packed.

    Each row of b is one int with a fixed-width slot per column (``code``
    is its memoryview format; ``_packed_rows``), so a result row is the sum
    of its coefficients times those ints: big-int arithmetic that runs in C
    (Kronecker substitution; Dumas, Fousse and Salvy, J. Symb. Comput. 46,
    2011).  The slot is wide enough that no carry crosses it (``_slot``).
    The result rows are joined into one int and every slot reduced mod p at
    once (``_reduce``); the result keeps that int and builds its row dicts
    only when they are read (``_Packed``).
    """
    ncols = b.ncols
    nbytes = _SLOT_BYTES[code] * ncols
    orows = _packed_rows(b, code)
    order = sys.byteorder
    if a._packed is None:
        get = orows.__getitem__
        sums = [sum(map(mul, r.values(), map(get, r))) for r in a._rows]
    else:
        # a packed left operand gives its residues, zeros included
        n = a.ncols
        vals = _slot_view(a._packed, a.nrows * n, a._code).tolist()
        sums = [sum(map(mul, vals[i:i + n], orows)) for i in range(0, a.nrows * n, n)]
    joined = int.from_bytes(b"".join([x.to_bytes(nbytes, order) for x in sums]), order)
    return Matrix._from_packed(a.field, a.nrows, ncols, _reduce(
        joined, a.nrows * ncols, 8 * _SLOT_BYTES[code], a.field.p), code)


def _reduce(x, nslots, bits, p):
    """The ``nslots`` slots of ``bits`` bits of ``x``, each reduced mod p.

    One vectorised Barrett step over the whole int (Barrett, CRYPTO '86;
    Dumas, Fousse and Salvy 2011): the even and the odd slots are split
    apart, so that each slot v has ``2 * bits`` bits of room, and each
    gets the quotient estimate ``q = v * m >> bits`` with ``m = 2**bits //
    p``.  Since ``v < 2**bits``, ``v - q * p`` lies in ``[0, 2p)``, so one
    conditional subtraction of p finishes it: ``v - q * p + 2**bits - p``
    carries into bit ``bits`` of its slot exactly when it is at least p.
    """
    if not x:
        return 0
    w = bits // 8
    # bit 0 of each even slot, the even slots' bits, and 2**bits - p in each
    flag = int.from_bytes((b"\x01" + bytes(2 * w - 1)) * ((nslots + 1) // 2), "little")
    low = flag * ((1 << bits) - 1)
    fill = flag * ((1 << bits) - p)
    m = (1 << bits) // p
    even, odd = x & low, x >> bits & low
    even -= (even * m >> bits & low) * p
    even -= ((even + fill) >> bits & flag) * p
    odd -= (odd * m >> bits & low) * p
    odd -= ((odd + fill) >> bits & flag) * p
    return even | odd << bits


def _slot_view(x, nslots, code):
    """The ``nslots`` slots of format ``code`` of the packed int x as a
    memoryview, row-major."""
    return memoryview(x.to_bytes(_SLOT_BYTES[code] * nslots, sys.byteorder)).cast(code)


def _recode(x, nslots, code, new):
    """The bytes of the ``nslots`` residues packed in x with ``code`` slots,
    rewritten in ``new`` slots, row-major.  A residue is below p, which
    fits every slot format that p has, so each slot's low bytes are copied
    as one strided slice per byte and the rest are zero.  That builds no
    int per slot: 13 us for 1,024 slots, against 82 us through
    ``array(new, _slot_view(...))`` (2-core Xeon, Python 3.11)."""
    w, v = _SLOT_BYTES[code], _SLOT_BYTES[new]
    low = min(w, v)
    # the low bytes come first in a little-endian slot, last in a big-endian one
    a, b = (0, 0) if sys.byteorder == "little" else (w - low, v - low)
    src, out = x.to_bytes(w * nslots, sys.byteorder), bytearray(v * nslots)
    for k in range(low):
        out[b + k::v] = src[a + k::w]
    return out


def _unpack_rows(x, nrows, ncols, code):
    """The row dicts of ``nrows x ncols`` residues packed in x, zeros
    dropped: the one way from packed residues to dicts.  The residues are
    reduced already (``_reduce``)."""
    vals = _slot_view(x, nrows * ncols, code).tolist()
    cols = range(ncols)
    return tuple({k: v for k, v in zip(cols, vals[i * ncols:(i + 1) * ncols]) if v}
                 for i in range(nrows))


def _packed_equal(a: Matrix, b: Matrix):
    """``a == b`` for two matrices of one shape, at least one packed.

    Two packings in one slot format compare as ints, and a known identity
    by ``is_identity``; anything else compares rows, which builds the row
    dicts of a packed side."""
    if a._id_flag or b._id_flag:
        return a.is_identity() and b.is_identity()
    if a._packed is not None and b._packed is not None and a._code == b._code:
        return a._packed == b._packed
    return a._rows == b._rows


def _take_rows(m: Matrix, index):
    """The matrix of rows ``index`` of ``m``; a packed m gives packed rows
    cut from its int, so no row dict is built."""
    if m._packed is None:
        rows = m._rows
        return Matrix.from_sparse_rows(m.field, [rows[i] for i in index], m.ncols, m._ints)
    width = _SLOT_BYTES[m._code] * m.ncols
    order = sys.byteorder
    buf = m._packed.to_bytes(width * m.nrows, order)
    return Matrix._from_packed(
        m.field, len(index), m.ncols,
        int.from_bytes(b"".join([buf[i * width:(i + 1) * width] for i in index]), order),
        m._code)


def _packed_rows(m: Matrix, code):
    """The rows of ``m`` as ints, one ``code`` slot per column in
    ``sys.byteorder``, kept on ``m`` for its next packed kernel in that
    format; do not mutate the list.  A matrix packed in that format hands
    over its rows cut from its one int, and one packed in another format
    its slots rewritten in this one (``_recode``), so no row dict is built;
    a dict matrix writes its row dicts into the slots of one buffer, cut the
    same way: the one packer."""
    held = m._prows
    if held is not None and held[0] == code:
        return held[1]
    n = m.ncols
    width = _SLOT_BYTES[code] * n
    order = sys.byteorder
    if m._packed is not None:
        buf = (m._packed.to_bytes(width * m.nrows, order) if m._code == code
               else _recode(m._packed, m.nrows * n, m._code, code))
    else:
        buf = bytearray(width * m.nrows)
        slots = memoryview(buf).cast(code)
        for i, r in enumerate(m._rows):
            base = i * n
            for k, b in r.items():
                slots[base + k] = b
    view = memoryview(buf)
    rows = [int.from_bytes(view[i * width:(i + 1) * width], order) for i in range(m.nrows)]
    m._prows = (code, rows)
    return rows


def _rref_slot(mat: Matrix):
    """The slot format ``mat.rref()`` eliminates on packed rows, or None for
    the dict loop.

    An elimination packs when it has a slot for ``min(m, n) + 1`` sums
    (``_slot``; see ``_packed_rref``) and its density ``nnz / (m * n)``
    exceeds ``4 / min(m, n)``, but at least 1/32 and, when ``min(m, n) <=
    12``, 1/3.  The dict loop's work grows with the rows each pivot meets
    and the length of the pivot row, both driven up by fill-in, over up to
    ``min(m, n)`` pivots; the packed path reads every row at every column
    it passes, whatever the density.  The constants were fitted on the 464
    nonempty GF(101) eliminations of a seed-1 dense-gf101 pass, on 192
    random GF(101) ones, 4 x 16 to 256 x 64 and 16 x 1024, full rank and
    rank-deficient, densities 0.02 to 1, and on the four largest ones of
    the relation-span oracle test on dense EX-M2 over GF(101) (2-core
    Xeon, Python 3.11).  On the pass the rule takes the eliminations from
    0.36 s on the dict loop to 0.19 s, within 8% of always picking the
    faster path, and on the random set from 4.75 s to 0.82 s, within 7%.
    The floor keeps large sparse operands on the dict loop: the oracle's
    16384 x 1024 relation span (density 0.0068, rank 1020) takes 6.5 s
    there and 29 s packed.  What the rule cannot see is structure: a
    block-shaped operand meets few rows per pivot, so the dict loop does
    well on it at any density: the pass the rule was fitted on had 16 x
    1024 solves (density 0.75, pivots in blocks of four) that packed at
    about the dict loop's speed.  The pass no longer makes them; 70 of its
    134 packed eliminations are 64 x 16.
    """
    m, n = mat.shape
    slot = _slot(mat.field, min(m, n) + 1)
    if slot is None:
        return None
    if _nnz(mat) * max(12, min(m, n, 128)) > 4 * m * n:
        return slot[1]
    return None


def _packed_rref(mat: Matrix, code):
    """Gauss-Jordan over GF(p) on the rows of ``mat`` packed as in the
    product (``_packed_rows``): the pivot rows in pivot order, then the zero
    rows, and the pivot columns, as ``_sparse_rref`` gives them.

    A matrix already packed in ``code`` slots hands over its rows cut from
    its int, so no row dict is built.  A pivot subtracts itself from a row
    as ``row += (p - a) * pivot_row``, a big-int step that runs in C, and
    column c of a row is read as its slot mod p.  A pivot row is reduced
    (``_reduce``) when it is chosen, scaled by the inverse of its pivot as
    one big-int multiply, and reduced again; at the end the pivot rows are
    joined, reduced by one ``_reduce`` and unpacked (``_unpack_rows``).
    Each row takes at most one step per pivot and each step adds at most
    ``(p - 1)**2`` to a slot that held a residue, and a scaled pivot row
    holds at most ``(p - 1)**2`` in a slot, so a slot for ``min(m, n) + 1``
    such sums never carries.  A column is read from the rows that are not
    pivot rows yet, and from the pivot rows only when it gets a pivot: a
    pivot row keeps its entries in the other columns.
    """
    field, ncols = mat.field, mat.ncols
    p, inv = field.p, field.inv
    bits = 8 * _SLOT_BYTES[code]
    mask = (1 << bits) - 1
    # a copy: the list may be the one kept on mat
    packed = list(_packed_rows(mat, code))
    free = list(range(len(packed)))
    pivots, pivot_rows = [], []
    for c in range(ncols):
        if not free:
            break
        shift = c * bits
        hits = [(i, a) for i in free if (a := (packed[i] >> shift & mask) % p)]
        if not hits:
            continue
        pr, a = hits[0]
        piv = _reduce(packed[pr], ncols, bits, p)
        if a != 1:
            piv = _reduce(piv * inv(a), ncols, bits, p)
        packed[pr] = piv
        free.remove(pr)
        for i, a in hits[1:]:
            packed[i] += (p - a) * piv
        for i in pivot_rows:
            if a := (packed[i] >> shift & mask) % p:
                packed[i] += (p - a) * piv
        pivots.append(c)
        pivot_rows.append(pr)
    nbytes, order = bits // 8 * ncols, sys.byteorder
    joined = int.from_bytes(b"".join([packed[i].to_bytes(nbytes, order) for i in pivot_rows]),
                            order)
    out = list(_unpack_rows(_reduce(joined, len(pivots) * ncols, bits, p), len(pivots), ncols,
                            code))
    out += [{} for _ in free]
    return out, pivots


def _check_order(dims, order):
    """Raise ``ShapeMismatch`` unless ``order`` lists each leg of ``dims``
    exactly once."""
    if sorted(order) != list(range(len(dims))):
        raise ShapeMismatch(f"leg order {list(order)} is not a permutation of "
                            f"{len(dims)} legs")


def leg_permutation(dims, order) -> list[int]:
    """Index map of a leg permutation of a tensor product of mixed dims.

    ``dims`` are the input leg dimensions and output leg i carries input
    leg ``order[i]``; the result ``idx`` has out[i] = in[idx[i]] in
    row-major (first leg most significant) numbering.  Built leg by leg from
    the input strides, one list comprehension per output leg.  ``order``
    must be a permutation of the legs.
    """
    _check_order(dims, order)
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
    rows = mat._rows
    return Matrix.from_sparse_rows(mat.field, [rows[i] for i in idx], mat.ncols, mat._ints)


def permute_cols(mat: Matrix, dims, order) -> Matrix:
    """``mat @ mixed_permutation(f, dims, order)`` by reordering columns.

    Column ``idx[j]`` of the product is column ``j`` of ``mat``, so each
    entry moves from column j to column ``idx[j]``.
    """
    idx = leg_permutation(dims, order)
    if len(idx) != mat.ncols:
        raise ShapeMismatch("permutation does not match the column count")
    return Matrix.from_sparse_rows(mat.field, [{idx[j]: x for j, x in r.items()} for r in mat._rows],
                                   mat.ncols, mat._ints)


def split_leg(mat: Matrix, dims, leg) -> Matrix:
    """``mat``, whose columns run over legs ``dims``, reshaped so that leg
    ``leg`` indexes the columns: row ``(i, rest)`` is row i read along
    ``leg`` with the other legs fixed at the digits ``rest``.  So
    ``split_leg(mat @ (I (x) K (x) I)) == split_leg(mat) @ K``."""
    if prod(dims) != mat.ncols:
        raise ShapeMismatch("split_leg: legs do not match the column count")
    stride = prod(dims[leg + 1:])
    span = dims[leg] * stride
    per_row = prod(dims[:leg]) * stride
    out = [{} for _ in range(mat.nrows * per_row)]
    for i, r in enumerate(mat._rows):
        base = i * per_row
        for k, x in r.items():
            hi, rem = divmod(k, span)
            t, lo = divmod(rem, stride)
            out[base + hi * stride + lo][t] = x
    return Matrix.from_sparse_rows(mat.field, out, dims[leg], mat._ints)


def _block_sizes(factors, legs, size_of):
    """Sizes of Kronecker factors laid over a run of tensor legs.

    ``None`` is the identity on one leg; a matrix covers a nonempty run of
    legs whose dimensions multiply to its size.  Legs of dimension one make
    the runs ambiguous, so the cover is searched for, depth first and
    shortest run first.  The search's first path is tried first without
    recursion: each factor takes its shortest run, and the last one the
    legs that are left.
    """
    sizes, pos, last = [], 0, len(factors) - 1
    for k, fac in enumerate(factors):
        if pos == len(legs):
            break
        size = legs[pos]
        pos += 1
        if fac is not None:
            want = size_of(fac)
            while pos < len(legs) and (size != want or k == last):
                size *= legs[pos]
                pos += 1
            if size != want:
                break
        sizes.append(size)
    else:
        if pos == len(legs):
            return sizes

    def fit(k, pos):
        if k == len(factors):
            return [] if pos == len(legs) else None
        size = 1
        for end in range(pos + 1, len(legs) + 1):
            size *= legs[end - 1]
            if factors[k] is None or size == size_of(factors[k]):
                rest = fit(k + 1, end)
                if rest is not None:
                    return [size] + rest
            if factors[k] is None:
                break
        return None

    sizes = fit(0, 0)
    if sizes is None:
        raise ShapeMismatch("kron_apply: factors do not match the legs")
    return sizes


def _block_offsets(dims, order, sizes):
    """Per block of ``sizes`` laid over ``dims``, where each of its rows
    lands once the legs are reordered by ``order``.

    An index's digit on input leg i moves to that leg's stride among the
    reordered legs, so the landing place of a G-product index is the sum of
    its blocks' table entries.  Each table has its block's size; legs of
    dimension one add nothing, so the first legs that reach a block's size
    are its legs.
    """
    stride, s = [0] * len(dims), 1
    for leg in reversed(order):
        stride[leg] = s
        s *= dims[leg]
    tables, leg = [], 0
    for n in sizes:
        table = [0]
        while len(table) != n:
            table = [t + stride[leg] * d for t in table for d in range(dims[leg])]
            leg += 1
        tables.append(table)
    return tables


def _g_rows(field, right, offsets):
    """The nonempty rows of ``P @ (G1 (x) ... (x) Gm)`` as ``{row: {col:
    value}}``, its column count and what is known of its values' types
    (``_ints``, from the factors').

    ``offsets`` gives, per G block, where each of its rows lands (a table
    from ``_block_offsets``, or a ``range`` of the block's row-major
    stride), so a product row lands at the sum of its blocks' entries.  A
    row is the outer product of one nonempty row of each factor; an
    identity factor's row r is the unit vector at r, so it moves indices
    and multiplies nothing.  A row is normalised only where it holds
    products of two matrix factors' values.
    """
    rows, ncols, scaled, ints = None, 1, False, True
    for g, off in zip(right, offsets):
        if g is None:
            n = len(off)
            if rows is None:
                one = field.one
                rows = {off[r]: {r: one} for r in range(n)}
            else:
                rows = {x + off[r]: {c * n + r: v for c, v in row.items()}
                        for x, row in rows.items() for r in range(n)}
            ncols *= n
            continue
        m = g.ncols
        if rows is None:
            rows = {off[r]: gr for r, gr in enumerate(g._rows) if gr}
        elif scaled:
            normalise = field.normalise
            rows = {x + off[r]: normalise({c * m + k: v * a for c, v in row.items()
                                           for k, a in gr.items()}, False)
                    for x, row in rows.items() for r, gr in enumerate(g._rows) if gr}
        else:
            # every value so far is one
            rows = {x + off[r]: {c * m + k: a for c in row for k, a in gr.items()}
                    for x, row in rows.items() for r, gr in enumerate(g._rows) if gr}
        ncols *= m
        scaled = True
        ints = ints and (g._ints or _integral(g))
    if rows is None:
        # no legs: the product is the 1 x 1 identity
        rows = {0: {0: field.one}}
    return rows, ncols, ints


def _g_slots(field, left, right, g_sizes, f_sizes):
    """The slot formats ``(stage, build)`` of a packed G product for
    ``kron_apply``, or None for ``_g_rows``.

    The G product is packed when its first stage, ``fac @ R`` for the last
    F factor (``_apply_block``), takes the packed product: ``_packed_slot``
    on counts known before S is built, since the nonzeros of S are the
    product of its factors' nonzeros.  It is built in the stage's slot
    format when that holds a product ``(p - 1)**k`` of residues of its k
    matrix factors, and otherwise in the narrowest one that does, then
    rewritten (``_recode``); above 64 bits it takes ``_g_rows``."""
    if not isinstance(field, PrimeField):
        return None
    k = next((k for k in range(len(left) - 1, -1, -1) if left[k] is not None), None)
    if k is None or left[k].is_identity():
        return None
    fac = left[k]
    nnz, ncols, factors = 1, 1, 0
    for g, n in zip(right, g_sizes):
        if g is None or g._id_flag:
            nnz *= n
            ncols *= n
        else:
            nnz *= _nnz(g)
            ncols *= g.ncols
            factors += 1
    # R has one column per (leading index, trailing index, column) of S
    stage = _packed_slot(field, fac.ncols, _nnz(fac), nnz,
                         prod(f_sizes[:k]) * prod(f_sizes[k + 1:]) * ncols)
    if stage is None:
        return None
    need = max(((field.p - 1) ** factors).bit_length(), 8 * _SLOT_BYTES[stage])
    build = next((code for bits, code in _SLOTS if bits >= need), None)
    return None if build is None else (stage, build)


def _packed_g_product(field, right, offsets, nrows, stage, build):
    """``P @ (G1 (x) ... (x) Gm)`` over GF(p), packed in ``stage`` slots
    and never held as row dicts (see ``_g_slots``).

    The rows are built in ``build`` slots, factor by factor, on the
    nonempty rows only.  The rows so far are spread to the new factor's
    width n, slot c to slot ``c * n``, all of them in one strided write;
    each of them times each nonempty row int of the factor
    (``_packed_rows``) is then a row of the product, with one term per
    slot, so no slot carries.  An identity factor's row r is the unit
    vector at r: a shift by r slots.  The rows land where ``offsets`` puts
    them (see ``_g_rows``), are joined in that order with zero rows
    between, and are reduced by one ``_reduce`` when a slot holds a product
    of two or more residues."""
    order = sys.byteorder
    w = _SLOT_BYTES[build]
    bits = 8 * w
    places, vals, ncols, factors = [0], [1], 1, 0
    for g, off in zip(right, offsets):
        n = len(off) if g is None or g._id_flag else g.ncols
        if ncols > 1 and n > 1 and vals:
            size = w * ncols
            spread = bytearray(size * n * len(vals))
            memoryview(spread).cast(build)[::n] = memoryview(
                b"".join([v.to_bytes(size, order) for v in vals])).cast(build)
            view, size = memoryview(spread), size * n
            vals = [int.from_bytes(view[i:i + size], order) for i in range(0, len(spread), size)]
        if g is None or g._id_flag:
            shifts = [(off[r], r * bits) for r in range(n)]
            vals = [v << s for v in vals for _, s in shifts]
        else:
            shifts = [(off[r], gr) for r, gr in enumerate(_packed_rows(g, build)) if gr]
            vals = [v * gr for v in vals for _, gr in shifts]
            factors += 1
        places = [x + o for x in places for o, _ in shifts]
        ncols *= n
    size = w * ncols
    parts = [bytes(size)] * nrows
    for x, v in zip(places, vals):
        parts[x] = v.to_bytes(size, order)
    packed = int.from_bytes(b"".join(parts), order)
    if factors > 1:
        # a slot holds a product of residues; one factor's are reduced
        packed = _reduce(packed, nrows * ncols, bits, field.p)
    if build != stage:
        packed = int.from_bytes(_recode(packed, nrows * ncols, build, stage), order)
    return Matrix._from_packed(field, nrows, ncols, packed, stage)


def _apply_block(field, fac, rows, nhi, lo, ncols, ints):
    """``(I_nhi (x) fac (x) I_lo) @ S`` for S given by its nonempty rows
    ``{row: {col: value}}`` with ``ncols`` columns, or as a packed Matrix,
    and returned as the one or the other, with what is known of its values'
    types (``ints`` is S's; see ``_ints``).

    One matrix product ``fac @ R``: R has one row per index ``mid`` of the
    block's legs and one column per (leading index, trailing index,
    column) of S, so entry (hi, mid, low; j) of S is entry (mid; hi, low,
    j) of R.  The reshapes are index maps; only ``Matrix.__matmul__``
    computes, on whichever path it picks.  A packed S or product moves
    whole runs of ``lo`` rows, each a slice of its bytes (``_move_runs``),
    so a packed stage hands the next one packed rows and no dict is built.
    S is packed from the first stage on when ``kron_apply`` built the G
    product packed (``_packed_g_product``), which it does when this
    stage's product packs.
    """
    n = fac.ncols
    width, span = n * lo, lo * ncols
    if isinstance(rows, Matrix):
        # run (hi, mid) of S is run (mid, hi) of R
        R = _move_runs(rows, n, nhi * span, nhi, n, lo * ncols)
    else:
        blocks = [{} for _ in range(n)]
        for x, row in rows.items():
            hi, rem = divmod(x, width)
            mid, low = divmod(rem, lo)
            base = hi * span + low * ncols
            blocks[mid].update({base + j: v for j, v in row.items()})
        R = Matrix.from_sparse_rows(field, blocks, nhi * span, ints)
    res = fac @ R
    if res._packed is not None:
        # run (r, hi) of the product is run (hi, r) of the result
        return _move_runs(res, nhi * fac.nrows * lo, ncols, fac.nrows, nhi, lo * ncols), True
    # entry (r; hi, low, j) of the product is entry (hi, r, low; j) of the
    # result, whose row-major position y * ncols + j moves (hi, low, j) by
    # hi blocks of the other fac.nrows - 1 rows and by r rows
    step = (fac.nrows - 1) * span
    out = {}
    get = out.get
    for r, prow in enumerate(res._rows):
        shift = r * span
        for c, v in prow.items():
            pos = c + c // span * step + shift
            y = pos // ncols
            row = get(y)
            if row is None:
                out[y] = {pos % ncols: v}
            else:
                row[pos % ncols] = v
    return out, res._ints


def _move_runs(m: Matrix, nrows, ncols, outer, inner, run):
    """The packed matrix of shape ``nrows x ncols`` whose slots are those
    of the packed ``m`` in runs of ``run`` slots, run ``(a, b)`` of ``m``
    (for a < ``outer``, b < ``inner``) becoming run ``(b, a)``: a transpose
    of runs, each one slice of bytes."""
    size = _SLOT_BYTES[m._code] * run
    order = sys.byteorder
    buf = m._packed.to_bytes(size * outer * inner, order)
    return Matrix._from_packed(m.field, nrows, ncols, int.from_bytes(b"".join(
        [buf[(a * inner + b) * size:(a * inner + b + 1) * size]
         for b in range(inner) for a in range(outer)]), order), m._code)


def kron_apply(field, left, dims, order, right) -> Matrix:
    """``(F1 (x) ... (x) Fk) @ P @ (G1 (x) ... (x) Gm)``, never built.

    ``left`` holds the F factors and ``right`` the G factors, each a Matrix
    or ``None`` for the identity on one leg.  ``dims`` are the legs the G
    product lands on, and ``P = mixed_permutation(field, dims, order)``
    reorders them for the F product (``order=None``: no reordering).

    The G product is built on its nonempty rows only, each moved through P
    by a per-block index table (``_block_offsets``, never a map over the
    whole product of the legs).  The F factors are then applied one at a
    time, last first, each to all columns at once as one matrix product
    (``_apply_block``): the shuffle algorithm of Davio, *Kronecker products
    and shuffle algebra* (IEEE Trans. Comput. 1981) and Fackler, *Algorithm
    993* (ACM TOMS 45, 2019).  Each stage is a ``Matrix.__matmul__``, so
    over GF(p) a dense stage takes the packed product.  When the first
    stage does, the G product is built packed too (``_g_slots`` decides,
    ``_packed_g_product`` builds), so the stages move packed rows from the
    start; over QQ, over a prime with no slot and when the first stage
    takes the dict loop, it is built as row dicts (``_g_rows``).  No
    Kronecker product, no ambient-sized matrix and no empty row of an
    intermediate dict stage is materialised.
    """
    if order is not None:
        _check_order(dims, order)
    g_sizes = _block_sizes(right, dims, lambda m: m.nrows)
    f_sizes = _block_sizes(left, dims if order is None else [dims[o] for o in order],
                           lambda m: m.ncols)
    if order is None and len(right) == 1 and right[0] is not None:
        # the G product is that one factor
        if len(left) == 1:
            return right[0] if left[0] is None else left[0] @ right[0]
        if all(fac is None for fac in left):
            return right[0]
    if order is None or 0 in g_sizes:
        # row-major places; past a leg of dimension 0 the product is empty,
        # and any n places do
        offsets, stride = [], 1
        for n in reversed(g_sizes):
            offsets.append(range(0, n * stride, stride) if stride else range(n))
            stride *= n
        offsets.reverse()
    else:
        offsets = _block_offsets(dims, order, g_sizes)
    slots = _g_slots(field, left, right, g_sizes, f_sizes)
    if slots is None:
        rows, ncols, ints = _g_rows(field, right, offsets)
    else:
        rows = _packed_g_product(field, right, offsets, prod(g_sizes), *slots)
        ncols, ints = rows.ncols, True
    empty = {}
    if len(left) == 1 and left[0] is not None:
        # the one factor spans every leg: S itself is the right operand
        if isinstance(rows, Matrix):
            return left[0] @ rows
        get = rows.get
        return left[0] @ Matrix.from_sparse_rows(
            field, [get(x, empty) for x in range(f_sizes[0])], ncols, ints)
    # block k is applied between the input legs of blocks 0..k-1 (lead)
    # and the output legs of the blocks after it (lo)
    lead = [1]
    for n in f_sizes:
        lead.append(lead[-1] * n)
    lo = 1
    for k in range(len(left) - 1, -1, -1):
        fac = left[k]
        if fac is None:
            lo *= f_sizes[k]
            continue
        rows, ints = _apply_block(field, fac, rows, lead[k], lo, ncols, ints)
        lo *= fac.nrows
    if isinstance(rows, Matrix):
        return rows
    get = rows.get
    return Matrix.from_sparse_rows(field, [get(y, empty) for y in range(lo)], ncols, ints)


def _dense(field, entries, size):
    """The dense vector of length ``size`` with the stored ``entries``."""
    out = [field.zero] * size
    for k, x in entries.items():
        out[k] = x
    return tuple(out)


def mixed_permutation(field, dims, order) -> Matrix:
    """The permutation matrix of ``leg_permutation(dims, order)``.

    A reference for tests; the engine applies permutations with
    ``permute_rows``/``permute_cols`` instead.
    """
    idx = leg_permutation(dims, order)
    one = field.one
    return Matrix.from_sparse_rows(field, [{i: one} for i in idx], len(idx))


def permutation_matrix(field, n, order):
    """``mixed_permutation`` on the legs of an n-dim space's tensor power."""
    return mixed_permutation(field, [n] * len(order), order)


def permute_tensor_rows(mat: Matrix, n: int, order) -> Matrix:
    """``permute_rows`` on the legs of an n-dim space's tensor power."""
    return permute_rows(mat, [n] * len(order), order)
