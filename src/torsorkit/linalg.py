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
``_packed_rref`` and the binomial one ``_binomial_rref``, the
packed-resident helpers, ``kron``, ``kron_apply``,
``apply``, ``apply_pair``, the entrywise operations and the constructors)
compute every term with the native ``+``, ``-`` and ``*`` of those values
and call no per-entry field method.  Each result row, column or vector is
reduced once: by ``Field.normalise`` (which drops its zeros and puts each
value in stored form: over QQ an integral ``Fraction`` becomes its
``int``, over GF(p) a value is reduced mod p), by the zero filter alone
(``_drop_zeros``, for an int-only QQ row of the dict loop), by one gcd
per value over the row's common denominator (``_integer_row_product``), by
the Barrett step of ``_reduce`` over packed residues, or, in ``_g_rows``,
entry by entry as it is written, each entry being one product (``% p``
over GF(p); over QQ only a row with a ``Fraction`` factor is normalised).

The product has three paths.  ``_sparse_product`` sums each row in a dict,
one update per term, when every value of both operands is an ``int``, over
QQ and GF(p) alike.  Over QQ such a row is already in stored form, so it is
reduced by the zero filter alone, and only where terms met
(``_drop_zeros``).  Over QQ a product with a ``Fraction`` on either side
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
passes it to ``from_sparse_rows`` from its inputs' flags (a product of
int operands is int, a transpose keeps its operand's flag, an echelon
form of an int operand is int when every pivot was 1 or -1, a Kronecker
product scans a factor not flagged int and keeps the answer), the
constructors from arbitrary values read it off the pass that puts them
in stored form (``Field.normalise_rows``), and the engine's own builders
outside this module pass their inputs' flags.  A matrix built with None
is scanned once, when a product, an echelon form or a Kronecker product
first needs its flag (``_integral``), and keeps the answer; the last two
ask for their operands' flags, so that what they build inherits one
answer instead of being scanned again.  So an int-only workload adds no
per-product work.  A False flag on a matrix of ints costs only speed: its
products take the integer-row path, which gives the same stored rows.
Over GF(p) every value is an ``int``, and a product whose right operand is
dense enough takes ``_packed_product`` instead: each row of the right
operand is packed into one Python int, one fixed-width slot per column,
wide enough that no sum of residue products carries into the next slot, so
a result row is a sum of small multiples of those ints, done in C by the
big-int arithmetic (Dumas, Fousse and Salvy, J. Symb. Comput. 46,
2011).  There is one slot width per prime: ``_slot`` gives GF(p) 32-bit
slots when they hold 2**16 sums of products of two residues, 64-bit ones
when those do, and none above, so every packed matrix of a field has one
format.  ``_packed_slot`` picks the path from the operands' nonzero
counts; sparse or tiny products, and products whose sums do not fit the
prime's slot, keep the dict loop.

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
residues, and so does ``==`` when both sides are packed; against a dict
matrix it compares rows, which builds the packed side's row dicts.  A
packed matrix that becomes the right operand of a packed product hands
over its row ints, cut from its one int and kept on it (``_packed_rows``),
and as the left operand gives its residues, zeros included; ``solve`` and
``permute_rows`` cut the rows they take from the packed int
(``_take_rows``), and ``kron_apply`` builds its G product packed and moves
a packed stage to the next as runs of bytes (``_move_runs``).
``_packed_rows`` is the one packer: it cuts row ints from a packed int and
writes a dict matrix's row dicts into one buffer of slots;
``_unpack_rows`` is the one way back from packed residues to row dicts.
In a ``suite`` run on the seed-1 dense EX-SW document over GF(101), 121
of the 131 packed products compared with a packed matrix are never
unpacked.

``Matrix.rref`` is the elimination of every kernel, image, rank, solve and
inverse, exact over Q and GF(p) alike, and it too has two paths.
``_sparse_rref`` is Gauss-Jordan on the sparse rows,
with the modular reduction delayed to the points where a value is read
(once per column, pivot row and output row) and each pivot touching only
the rows its column meets.  Over GF(p) a dense enough operand takes
``_packed_rref``: the same Gauss-Jordan on the product's packed rows
(``_packed_rows``, so a packed product is cut from its int, not
unpacked), each row step one big-int multiply-add, when the prime's slot
holds the ``min(m, n)`` steps a row can take (Dumas, Giorgi and Pernet,
*FFLAS and FFPACK*, ACM TOMS 35, 2008).  A chosen pivot row is reduced by
``_reduce``, scaled by one big-int multiply and reduced again; at the end
the pivot rows are joined, reduced by one ``_reduce`` and unpacked by
``_unpack_rows``.  So the product and the elimination
share one packer, one reducer and one unpacker.  ``_rref_slot`` picks the
path from the operand's nonzero count and shape.  Every kernel and
inverse goes through ``rref``, and so does every rank and solve except on
a matrix whose every column c has a unit row, a row equal to the unit
vector e_c (``Matrix.unit_rows``).  A matrix has exactly one reduced row
echelon form, so both paths give the same rows and pivots, and echelon
bases are canonical and reproducible whichever row supplies a pivot.
``complement_rows``, the rows whose kernel is an echelon span, is
``Matrix.nullspace``, the projection of ``spaces.quotient`` and, stacked,
what ``spaces.intersect`` takes the kernel of.

One elimination does not go through ``rref``: a chain step's relation
span whose every row has at most two entries, as the relations
``w.b (x) x - w (x) b.x`` of a monomial basis do, is eliminated by
``_binomial_rref``.  Its reduced echelon form is a graph problem: columns
are nodes and each two-entry row ``c_a e_a + c_b e_b`` an edge saying
e_a = -(c_b / c_a) e_b, solved by union-find with potentials (Tarjan, JACM
1975).  A component met by a one-entry row or by a cycle whose weights
disagree spans all its unit vectors; any other component of k columns has
rank k - 1, its largest column free.  It makes at most one ``inv`` per
union, where the dict loop does a Gauss-Jordan step, and gives the same
rows and pivots.  ``algebra._build_chain`` picks it by one pass over the
rows' lengths; ``rref`` itself never does, so ``Subspace.from_spanning``
and the fixtures' naive oracle stay on the two paths above.

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
identity leg, reduced before a third matrix factor and once more when
joined in landing order (``_packed_g_product``).  The stages then move
byte runs and build no row dict unless one takes the dict loop.
``Matrix.kron`` is the dict G product (``_g_rows``) of its two factors.
So a tensor identity is checked at the size of its carrier, not of its
ambient (the vec/Kronecker identities of Van Loan, *The ubiquitous
Kronecker product*, JCAM 2000).  In the same way ``Matrix.apply_pair``
evaluates a bilinear map, such as a product or an action, on a pair of
vectors without building their outer product.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from itertools import chain
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
    one int of reduced residues with one slot per entry, row-major, in the
    one slot width of its prime (``_slot``), and leaves ``_rows`` unset
    until something reads it (``_Packed``); a dict matrix has ``_packed``
    None.  ``_prows`` keeps the rows as a list of packed ints once the
    matrix has been the right operand of a packed product or eliminated on
    packed rows.  ``_ints`` says what is known of the values' types, which
    picks the QQ product's path: True when every one is an ``int``, False
    when one may be a ``Fraction``, None until a scan finds out
    (``_integral``).
    """

    __slots__ = ("field", "nrows", "ncols", "_rows", "_id_flag", "_col_cache", "_hash",
                 "_packed", "_prows", "_ints")

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
    def _from_packed(field, nrows, ncols, packed) -> "Matrix":
        """A GF(p) matrix on ``packed``, its ``nrows * ncols`` residues in
        the slots of p (``_slot``), row-major (see ``_reduce``); its row
        dicts are built when first read (``_Packed``)."""
        m = object.__new__(_Packed)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m._id_flag = None
        m._col_cache = None
        m._hash = None
        m._packed = packed
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
        two packed matrices compare their packed residues
        (``_packed_equal``), so neither is unpacked for it."""
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
                (b"\x01" + bytes(_slot(self.field.p)[0] // 8 * (n + 1) - 1)) * n, "little"))
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
        loop (``_sparse_product``), which over QQ needs only the zero filter
        (``_drop_zeros``).  All three give the same stored rows."""
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"cannot multiply {self.shape} by {other.shape}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        f = self.field
        if isinstance(f, PrimeField):
            if _packed_slot(f, self.ncols, _nnz(self), _nnz(other), other.ncols):
                return _packed_product(self, other)
            normalise = f.normalise
        elif not ((self._ints or _integral(self)) and (other._ints or _integral(other))):
            rows, ints = _integer_row_product(self._rows, other._rows)
            return Matrix.from_sparse_rows(f, rows, other.ncols, ints)
        else:
            normalise = _drop_zeros
        return Matrix.from_sparse_rows(
            f, _sparse_product(self._rows, other._rows, normalise), other.ncols, True)

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
        """Kronecker product, row-major index convention: the G product of
        its two factors (``_g_rows``), its empty rows one shared dict.
        ``I (x) I`` is an identity, and ``I (x) X`` is X's rows with their
        columns shifted block by block: its first block is X's own rows and
        the later blocks reuse X's empty rows."""
        f = self.field
        m, n = self.nrows, other.nrows
        if self.is_identity():
            if other.is_identity():
                return Matrix.identity(f, m * n)
            width = other.ncols
            orows = other._rows
            out = []
            for i in range(m):
                # block i is X shifted by i blocks of columns; block 0 is X
                base = i * width
                out += [{base + k: v for k, v in r.items()} if r else r
                        for r in orows] if base else orows
            return Matrix.from_sparse_rows(f, out, m * width, other._ints or _integral(other))
        rows, ncols, ints = _g_rows(f, [self, other],
                                    [range(0, m * n, n) if n else range(m), range(n)])
        get, empty = rows.get, {}
        return Matrix.from_sparse_rows(f, [get(x, empty) for x in range(m * n)], ncols, ints)

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
        if _rref_slot(self):
            rows, pivots = _packed_rref(self)
            ints = True
        else:
            rows, pivots, units = _sparse_rref(self._rows, f)
            # a non-unit pivot of an int operand may still leave int rows
            ints = (self._ints or _integral(self)) if units else None
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
        """Canonical kernel basis as the rows of a matrix: the complement
        rows of the rref (``complement_rows``)."""
        return complement_rows(*self.rref())

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
        rows = self._rows = _unpack_rows(self.field, self._packed, self.nrows, self.ncols)
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


def _drop_zeros(acc, summed):
    """``Field.normalise`` of a QQ row summed from ints: a sum of ints is an
    ``int``, already in stored form, and a product of nonzero ints is
    nonzero, so only a row where terms met is filtered for zeros."""
    return {k: v for k, v in acc.items() if v} if summed else acc


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


def _binomial_rref(rows, field):
    """``_sparse_rref`` of rows with at most two entries each, by weighted
    union-find: the same pivot rows in pivot order, then the zero rows, the
    pivot columns, and whether every inverse taken was an ``int``.

    Columns are nodes.  A row ``c_a e_a + c_b e_b`` is an edge that says
    e_a = -(c_b / c_a) e_b modulo the row space, and union by size with path
    compression keeps, for each column a, its potential: the p_a with
    e_a = p_a e_r for the root r of a's component (Tarjan, *Efficiency of a
    good but not linear set union algorithm*, JACM 1975).  A component is
    dead when a one-entry row meets it or a cycle's weights disagree; every
    column of it is then a pivot with the row e_a.  A live component of k
    columns has rank k - 1: its largest column M is free, and every other
    column a is a pivot with the row e_a - (p_a / p_M) e_M.  A column in no
    row is free.  Terms use the native ``+ - *``; every potential stored is
    normalised, a cycle's disagreements are normalised together at the end,
    and ``inv`` is taken at most once per union and once per live component.
    """
    normalise, inv, one = field.normalise, field.inv, field.one
    n = max(chain.from_iterable(rows), default=-1) + 1
    parent = list(range(n))
    pot = [one] * n
    size = [1] * n
    top = list(range(n))
    units = True

    def find(a):
        # the root of a and p_a, for a at least two steps below its root;
        # the path is compressed with one normalise
        path = [a]
        r = parent[a]
        while parent[r] != r:
            path.append(r)
            r = parent[r]
        lam, acc = {}, one
        for x in reversed(path):
            acc = lam[x] = pot[x] * acc
        for x, v in normalise(lam, False).items():
            parent[x] = r
            pot[x] = v
        return r, pot[a]

    def recip(x):
        # 1 and -1 are their own inverses: no Fraction is built for them
        return x if x == one or x == -one else inv(x)

    def locate(a):
        # a root's potential is one: pot is written only when it is attached
        r = parent[a]
        return (r, pot[a]) if parent[r] == r else find(a)

    # a cycle row whose weights disagree leaves a nonzero here
    clash = {}
    single = []
    for i, row in enumerate(rows):
        if len(row) != 2:
            if row:
                single.append(next(iter(row)))
            continue
        (a, ca), (b, cb) = row.items()
        # the row is alpha e_ra + beta e_rb
        ra = parent[a]
        if parent[ra] == ra:
            alpha = ca * pot[a]
        else:
            ra, pa = find(a)
            alpha = ca * pa
        rb = parent[b]
        if parent[rb] == rb:
            beta = cb * pot[b]
        else:
            rb, pb = find(b)
            beta = cb * pb
        if ra == rb:
            clash[i] = alpha + beta
            continue
        if size[ra] > size[rb]:
            ra, rb, alpha, beta = rb, ra, beta, alpha
        s = recip(alpha)
        units = units and type(s) is int
        parent[ra] = rb
        (pot[ra],) = normalise({ra: -beta * s}, False).values()
        size[rb] += size[ra]
        if top[ra] > top[rb]:
            top[rb] = top[ra]
    dead = {locate(a)[0] for a in single}
    dead.update(locate(next(iter(rows[i])))[0] for i in normalise(clash, True))
    # the live rows: e_a + scale_r p_a e_M, with scale_r = -1 / p_M
    pivots, frees, raw, scale = [], [], {}, {}
    for a in range(n):
        r = parent[a]
        if parent[r] == r:
            pa = pot[a]
        else:
            r, pa = find(a)
        if r in dead:
            pivots.append(a)
            frees.append(None)
            continue
        M = top[r]
        if a == M:
            continue
        s = scale.get(r)
        if s is None:
            s = scale[r] = -recip(locate(M)[1])
            units = units and type(s) is int
        raw[a] = pa * s
        pivots.append(a)
        frees.append(M)
    vals = normalise(raw, False)
    out = [{a: one} if M is None else {a: one, M: vals[a]} for a, M in zip(pivots, frees)]
    out += [{} for _ in range(len(rows) - len(out))]
    return out, pivots, units


# the slot formats of the packed GF(p) kernels, narrowest first: (bits,
# memoryview format), each format a native unsigned integer
_SLOTS = ((32, "I"), (64, "Q"))


def _slot(p):
    """GF(p)'s packed slot, ``(bits, memoryview format)``, or None when p
    has none: one slot width per prime, so every packed matrix of a field
    has one format.

    It is the narrower of 32 and 64 bits in which 2**16 products of two
    residues, ``(p - 1)**2`` each, add up to at most ``2**bits``: 32 bits
    when ``(p - 1)**2 <= 2**16``, so p <= 257, 64 bits when ``(p - 1)**2
    <= 2**48``, so p - 1 < 2**24 (2**24 + 1 is not prime), and none above.
    A kernel whose sums do not fit the slot takes the dict loop
    (``_fits``)."""
    return _SLOTS[0] if p <= 257 else _SLOTS[1] if p < 1 << 24 else None


def _fits(field, n):
    """The bits of the slot of GF(p) when it holds a sum of n products of
    two residues, ``n * (p - 1)**2``, so that no carry crosses into the
    next slot; None over QQ, for a prime with no slot or a longer sum."""
    if not isinstance(field, PrimeField):
        return None
    slot = _slot(field.p)
    if slot is None or (n * (field.p - 1) ** 2) >> slot[0]:
        return None
    return slot[0]


def _packed_slot(field, n, nnz_a, nnz_b, ncols):
    """Whether a product ``a @ b`` through n packs; a has ``nnz_a``
    nonzero entries, b has ``nnz_b`` and ``ncols`` columns.

    A product packs when its prime's slot holds its sums (``_fits``) and
    the cost rule, on those counts, says it pays.  The dict loop spends
    about one dict update per term, about ``nnz_a * nnz_b / n`` terms in
    all; the packed path about one big-int step per 64-bit word it adds,
    ``(nnz_a + n) * words`` with ``words`` the 64-bit words of a packed
    row, plus one slot write per nonzero of b.  Timed on the 1,984
    nonempty products of a dense-gf101 pass and on 245 random GF(101)
    products up to 1024 x 1024 (2-core Xeon, Python 3.11), a word costs
    about an eighth of a dict update and a product with fewer than 32
    spare terms gains nothing.  The rule packs about a third of that
    workload's products, and its total time comes within 4% of always
    picking the faster path.
    """
    bits = _fits(field, n)
    if bits is None:
        return False
    words = (ncols * bits + 63) // 64
    return nnz_a * nnz_b > n * ((nnz_a + n) * words // 8 + nnz_b + 32)


def _nnz(m: Matrix):
    """The nonzero entries of ``m``.  On packed residues no row dict is
    built: each slot's bits are or-ed into its lowest bit, and those bits
    counted."""
    x = m._packed
    if x is None:
        return sum(map(len, m._rows))
    w = _slot(m.field.p)[0] // 8
    shift = 4 * w
    while shift:
        x |= x >> shift
        shift //= 2
    return (x & int.from_bytes((b"\x01" + bytes(w - 1)) * (m.nrows * m.ncols),
                               "little")).bit_count()


def _packed_product(a: Matrix, b: Matrix):
    """``a @ b`` over GF(p), summed as packed integers and kept packed.

    Each row of b is one int with a slot of p per column (``_packed_rows``),
    so a result row is the sum of its coefficients times those ints:
    big-int arithmetic that runs in C (Kronecker substitution; Dumas,
    Fousse and Salvy, J. Symb. Comput. 46, 2011).  The caller has checked
    that the slot holds the sums, so no carry crosses it (``_fits``).  The
    result rows are joined into one int and every slot reduced mod p at
    once (``_reduce``); the result keeps that int and builds its row dicts
    only when they are read (``_Packed``).
    """
    field, ncols = a.field, b.ncols
    bits = _slot(field.p)[0]
    nbytes = bits // 8 * ncols
    orows = _packed_rows(b)
    order = sys.byteorder
    if a._packed is None:
        get = orows.__getitem__
        sums = [sum(map(mul, r.values(), map(get, r))) for r in a._rows]
    else:
        # a packed left operand gives its residues, zeros included
        n = a.ncols
        vals = _slot_view(field, a._packed, a.nrows * n).tolist()
        sums = [sum(map(mul, vals[i:i + n], orows)) for i in range(0, a.nrows * n, n)]
    joined = int.from_bytes(b"".join([x.to_bytes(nbytes, order) for x in sums]), order)
    return Matrix._from_packed(field, a.nrows, ncols,
                               _reduce(joined, a.nrows * ncols, bits, field.p))


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


def _slot_view(field, x, nslots):
    """The ``nslots`` slots of the packed int x over ``field`` as a
    memoryview, row-major."""
    bits, code = _slot(field.p)
    return memoryview(x.to_bytes(bits // 8 * nslots, sys.byteorder)).cast(code)


def _unpack_rows(field, x, nrows, ncols):
    """The row dicts of ``nrows x ncols`` residues packed in x, zeros
    dropped: the one way from packed residues to dicts.  The residues are
    reduced already (``_reduce``)."""
    vals = _slot_view(field, x, nrows * ncols).tolist()
    cols = range(ncols)
    return tuple({k: v for k, v in zip(cols, vals[i * ncols:(i + 1) * ncols]) if v}
                 for i in range(nrows))


def _packed_equal(a: Matrix, b: Matrix):
    """``a == b`` for two matrices of one shape, at least one packed.

    Two packed matrices compare as ints, since a field packs in one slot
    width, and a known identity by ``is_identity``; a packed matrix and a
    dict one compare rows, which builds the row dicts of the packed side."""
    if a._id_flag or b._id_flag:
        return a.is_identity() and b.is_identity()
    if a._packed is not None and b._packed is not None:
        return a._packed == b._packed
    return a._rows == b._rows


def _take_rows(m: Matrix, index):
    """The matrix of rows ``index`` of ``m``; a packed m gives packed rows
    cut from its int, so no row dict is built."""
    if m._packed is None:
        rows = m._rows
        return Matrix.from_sparse_rows(m.field, [rows[i] for i in index], m.ncols, m._ints)
    width = _slot(m.field.p)[0] // 8 * m.ncols
    order = sys.byteorder
    buf = m._packed.to_bytes(width * m.nrows, order)
    return Matrix._from_packed(
        m.field, len(index), m.ncols,
        int.from_bytes(b"".join([buf[i * width:(i + 1) * width] for i in index]), order))


def complement_rows(echelon: Matrix, pivots) -> Matrix:
    """One row per free column j of the reduced echelon form ``echelon``
    (pivot rows in pivot order, then zero rows): 1 at j and minus column j
    at the pivots.  Their common kernel is the row span of ``echelon``;
    with no pivot they are the identity's."""
    f = echelon.field
    neg, one = f.neg, f.one
    pivset = set(pivots)
    vecs = {j: {j: one} for j in range(echelon.ncols) if j not in pivset}
    for p, row in zip(pivots, echelon._rows):
        for j, x in row.items():
            if j != p:
                vecs[j][p] = neg(x)
    return Matrix.from_sparse_rows(f, vecs.values(), echelon.ncols,
                                   echelon._ints if pivots else True)


def column_selection(field, free, nrows) -> Matrix:
    """The ``nrows x len(free)`` matrix whose column k is the unit vector
    at row ``free[k]``; its empty rows share one dict."""
    rows = [{}] * nrows
    for k, j in enumerate(free):
        rows[j] = {k: field.one}
    return Matrix.from_sparse_rows(field, rows, len(free), True)


def _packed_rows(m: Matrix):
    """The rows of ``m`` as ints, one slot of its prime per column in
    ``sys.byteorder``, kept on ``m`` for its next packed kernel; do not
    mutate the list.  A packed matrix hands over its rows cut from its one
    int, so no row dict is built; a dict matrix writes its row dicts into
    the slots of one buffer, cut the same way: the one packer."""
    rows = m._prows
    if rows is not None:
        return rows
    bits, code = _slot(m.field.p)
    n = m.ncols
    width = bits // 8 * n
    order = sys.byteorder
    if m._packed is not None:
        buf = m._packed.to_bytes(width * m.nrows, order)
    else:
        buf = bytearray(width * m.nrows)
        slots = memoryview(buf).cast(code)
        for i, r in enumerate(m._rows):
            base = i * n
            for k, b in r.items():
                slots[base + k] = b
    view = memoryview(buf)
    rows = m._prows = [int.from_bytes(view[i * width:(i + 1) * width], order)
                       for i in range(m.nrows)]
    return rows


def _rref_slot(mat: Matrix):
    """Whether ``mat.rref()`` eliminates on packed rows.

    An elimination packs when its prime's slot holds ``min(m, n) + 1``
    sums (``_fits``; see ``_packed_rref``) and its density ``nnz / (m *
    n)`` exceeds ``4 / min(m, n)``, but at least 1/32 and, when ``min(m,
    n) <= 12``, 1/3.  The dict loop's work grows with the rows each pivot
    meets and the length of the pivot row, both driven up by fill-in, over
    up to ``min(m, n)`` pivots; the packed path reads every row at every
    column it passes, whatever the density.  The constants were fitted on
    the 464 nonempty GF(101) eliminations of a seed-1 dense-gf101 pass, on
    192 random GF(101) ones, 4 x 16 to 256 x 64 and 16 x 1024, full rank
    and rank-deficient, densities 0.02 to 1, and on the four largest ones
    of the relation-span oracle test on dense EX-M2 over GF(101) (2-core
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
    return (_fits(mat.field, min(m, n) + 1) is not None
            and _nnz(mat) * max(12, min(m, n, 128)) > 4 * m * n)


def _packed_rref(mat: Matrix):
    """Gauss-Jordan over GF(p) on the rows of ``mat`` packed as in the
    product (``_packed_rows``): the pivot rows in pivot order, then the zero
    rows, and the pivot columns, as ``_sparse_rref`` gives them.

    A packed matrix hands over its rows cut from its int, so no row dict
    is built.  A pivot subtracts itself from a row as ``row += (p - a) *
    pivot_row``, a big-int step that runs in C, and column c of a row is
    read as its slot mod p.  A pivot row is reduced (``_reduce``) when it
    is chosen, scaled by the inverse of its pivot as one big-int multiply,
    and reduced again; at the end the pivot rows are joined, reduced by one
    ``_reduce`` and unpacked (``_unpack_rows``).  Each row takes at most
    one step per pivot and each step adds at most ``(p - 1)**2`` to a slot
    that held a residue, and a scaled pivot row holds at most ``(p - 1)**2``
    in a slot, so a slot that holds ``min(m, n) + 1`` such sums
    (``_fits``) never carries.  A column is read from the rows that are not
    pivot rows yet, and from the pivot rows only when it gets a pivot: a
    pivot row keeps its entries in the other columns.
    """
    field, ncols = mat.field, mat.ncols
    p, inv = field.p, field.inv
    bits = _slot(p)[0]
    mask = (1 << bits) - 1
    # a copy: the list may be the one kept on mat
    packed = list(_packed_rows(mat))
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
    out = list(_unpack_rows(field, _reduce(joined, len(pivots) * ncols, bits, p), len(pivots),
                            ncols))
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
    """``mixed_permutation(f, dims, order) @ mat`` by reordering rows
    (``_take_rows``, so a packed operand gives packed rows)."""
    idx = leg_permutation(dims, order)
    if len(idx) != mat.nrows:
        raise ShapeMismatch("permutation does not match the row count")
    return _take_rows(mat, idx)


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
    row is the outer product of one nonempty row of each factor.  An
    identity factor (``None``, or ``is_identity()``) has row r the unit
    vector at r, so it moves indices and multiplies nothing.  Every other
    value is one product, over GF(p) reduced as it is written (a product
    of nonzero residues is nonzero mod p); over QQ a row is normalised only
    when a factor may hold a ``Fraction`` (``2 * 1/2`` is integral), and a
    factor whose ``_ints`` is not True is scanned and keeps the answer.
    """
    p = field.p if isinstance(field, PrimeField) else None
    rows, ncols, scaled, ints = None, 1, False, True
    for g, off in zip(right, offsets):
        if g is None or g.is_identity():
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
        g_ints = g._ints
        if not g_ints:
            # a False flag is a hint too: scanned, like None, and kept
            g_ints = g._ints = p is not None or _all_ints(g._rows)
        grows = [(off[r], gr) for r, gr in enumerate(g._rows) if gr]
        if rows is None:
            rows = dict(grows)
        elif not scaled:
            # every value so far is one
            rows = {x + o: {c * m + k: a for c in row for k, a in gr.items()}
                    for x, row in rows.items() for o, gr in grows}
        elif p is not None:
            rows = {x + o: {c * m + k: v * a % p for c, v in row.items() for k, a in gr.items()}
                    for x, row in rows.items() for o, gr in grows}
        elif ints and g_ints:
            rows = {x + o: {c * m + k: v * a for c, v in row.items() for k, a in gr.items()}
                    for x, row in rows.items() for o, gr in grows}
        else:
            normalise = field.normalise
            rows = {x + o: normalise({c * m + k: v * a for c, v in row.items()
                                      for k, a in gr.items()}, False)
                    for x, row in rows.items() for o, gr in grows}
        ncols *= m
        scaled = True
        ints = ints and g_ints
    if rows is None:
        # no legs: the product is the 1 x 1 identity
        rows = {0: {0: field.one}}
    return rows, ncols, ints


def _g_slots(field, left, right, g_sizes, f_sizes):
    """Whether ``kron_apply`` builds its G product packed
    (``_packed_g_product``) rather than with ``_g_rows``.

    The G product is packed when its first stage, ``fac @ R`` for the last
    F factor (``_apply_block``), takes the packed product: ``_packed_slot``
    on counts known before S is built, since the nonzeros of S are the
    product of its factors' nonzeros.  The rule needs ``nnz_a > n`` (its
    right side exceeds ``n * nnz_b``), so that is tested before the G
    factors are counted."""
    if not isinstance(field, PrimeField):
        return False
    k = next((k for k in range(len(left) - 1, -1, -1) if left[k] is not None), None)
    if k is None or left[k].is_identity():
        return False
    fac = left[k]
    fac_nnz = _nnz(fac)
    if fac_nnz <= fac.ncols:
        return False
    nnz, ncols = 1, 1
    for g, n in zip(right, g_sizes):
        if g is None or g._id_flag:
            nnz *= n
            ncols *= n
        else:
            nnz *= _nnz(g)
            ncols *= g.ncols
    # R has one column per (leading index, trailing index, column) of S
    return _packed_slot(field, fac.ncols, fac_nnz, nnz,
                        prod(f_sizes[:k]) * prod(f_sizes[k + 1:]) * ncols)


def _packed_g_product(field, right, offsets, nrows):
    """``P @ (G1 (x) ... (x) Gm)`` over GF(p), packed in the slots of p
    and never held as row dicts (see ``_g_slots``).

    The rows are built factor by factor, on the nonempty rows only.  The
    rows so far are spread to the new factor's width n, slot c to slot ``c
    * n``, all of them in one strided write; each of them times each
    nonempty row int of the factor (``_packed_rows``) is then a row of the
    product, with one term per slot, so no slot carries.  An identity
    factor's row r is the unit vector at r: a shift by r slots.  A slot
    holds a product of two residues (``_slot``) but not always one of
    three, so the rows are reduced (``_reduce``) before a third matrix
    factor multiplies them.  They land where ``offsets`` puts them (see ``_g_rows``), are
    joined in that order with zero rows between, and are reduced once
    more when a slot holds a product of two residues."""
    order = sys.byteorder
    p = field.p
    bits, code = _slot(p)
    w = bits // 8
    places, vals, ncols, factors = [0], [1], 1, 0
    for g, off in zip(right, offsets):
        ident = g is None or g.is_identity()
        n = len(off) if ident else g.ncols
        if factors == 2 and not ident:
            vals = [_reduce(v, ncols, bits, p) for v in vals]
            factors = 1
        if ncols > 1 and n > 1 and vals:
            size = w * ncols
            spread = bytearray(size * n * len(vals))
            memoryview(spread).cast(code)[::n] = memoryview(
                b"".join([v.to_bytes(size, order) for v in vals])).cast(code)
            view, size = memoryview(spread), size * n
            vals = [int.from_bytes(view[i:i + size], order) for i in range(0, len(spread), size)]
        if ident:
            shifts = [(off[r], r * bits) for r in range(n)]
            vals = [v << s for v in vals for _, s in shifts]
        else:
            shifts = [(off[r], gr) for r, gr in enumerate(_packed_rows(g)) if gr]
            vals = [v * gr for v in vals for _, gr in shifts]
            factors += 1
        places = [x + o for x in places for o, _ in shifts]
        ncols *= n
    size = w * ncols
    parts = [bytes(size)] * nrows
    for x, v in zip(places, vals):
        parts[x] = v.to_bytes(size, order)
    packed = int.from_bytes(b"".join(parts), order)
    if factors == 2:
        packed = _reduce(packed, nrows * ncols, bits, p)
    return Matrix._from_packed(field, nrows, ncols, packed)


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
    size = _slot(m.field.p)[0] // 8 * run
    order = sys.byteorder
    buf = m._packed.to_bytes(size * outer * inner, order)
    return Matrix._from_packed(m.field, nrows, ncols, int.from_bytes(b"".join(
        [buf[(a * inner + b) * size:(a * inner + b + 1) * size]
         for b in range(inner) for a in range(outer)]), order))


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
    if _g_slots(field, left, right, g_sizes, f_sizes):
        rows = _packed_g_product(field, right, offsets, prod(g_sizes))
        ncols, ints = rows.ncols, True
    else:
        rows, ncols, ints = _g_rows(field, right, offsets)
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
