import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit import linalg
from torsorkit.errors import NotInvertible, ShapeMismatch
from torsorkit.fields import GF, QQ
from torsorkit.linalg import (
    Matrix,
    _binomial_rref,
    _fits,
    _integer_row_product,
    _packed_product,
    _packed_rref,
    _rref_slot,
    _slot,
    _sparse_product,
    _sparse_rref,
    kron_apply,
    leg_permutation,
    mixed_permutation,
    permute_cols,
    permute_rows,
    permute_tensor_rows,
    split_leg,
)

small_entries = st.integers(min_value=-4, max_value=4)
# QQ entries in every form a caller may hand in: ints, non-integral
# Fractions and integral Fractions (Fraction(3), Fraction(4, 2)), which the
# constructors and parse store as ints, so the kernels meet both stored
# forms and mixes of them
qq_entries = st.one_of(small_entries, st.builds(Fraction, small_entries, st.integers(2, 3)),
                       small_entries.map(Fraction))
# both ends of the modulus range: GF(2) cancels often, and over GF(2^61 - 1)
# the raw products the kernels sum before reducing pass 2^64
FIELDS = st.sampled_from([QQ, GF(2), GF(101), GF(2**61 - 1)])


def entries(field):
    """Matrix entries to draw over ``field``; over QQ in every form."""
    return qq_entries if field is QQ else small_entries


def mat_strategy(max_dim=5, values=small_entries):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(values, min_size=n, max_size=n),
                min_size=m, max_size=m)))


@given(mat_strategy(values=qq_entries))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = Matrix.from_rows(QQ, rows)
    assert m.rank() + len(m.kernel_basis()) == m.ncols


@given(mat_strategy(values=qq_entries))
@settings(max_examples=60, deadline=None)
def test_kernel_killed(rows):
    m = Matrix.from_rows(QQ, rows)
    for v in m.kernel_basis():
        assert all(x == 0 for x in m.apply(v))


def assert_is_rref_of(m, r, pivots):
    """``r`` with ``pivots`` meets the definition of the rref of ``m``."""
    f = m.field
    assert r.shape == m.shape
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, c in enumerate(pivots):
        assert r.rows[i][c] == f.one
        assert all(f.is_zero(r.rows[k][c]) for k in range(r.nrows) if k != i)
        assert all(f.is_zero(x) for x in r.rows[i][:c])
    assert all(f.is_zero(x) for row in r.rows[len(pivots):] for x in row)
    # same row space: r's rows are combinations of m's, and each row of m
    # reduces to zero against r's pivot rows
    assert m.transpose().solve(r.transpose()) is not None
    assert r.rank() == len(pivots)
    for row in m.rows:
        rest = list(row)
        for i, c in enumerate(pivots):
            a = rest[c]
            rest = [f.sub(x, f.mul(a, y)) for x, y in zip(rest, r.rows[i])]
        assert all(f.is_zero(x) for x in rest)


@given(mat_strategy(), FIELDS)
@settings(max_examples=60, deadline=None)
def test_rref_meets_its_definition(rows, field):
    m = Matrix.from_rows(field, rows)
    r, pivots = m.rref()
    assert_is_rref_of(m, r, pivots)
    again, pagain = r.rref()
    assert again == r and pagain == pivots


def test_inverse_and_errors():
    m = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    inv = m.inverse()
    assert inv == Matrix.from_rows(QQ, [[1, -1], [0, 1]])
    sing = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(NotInvertible) as exc:
        sing.inverse()
    assert exc.value.rank == 1
    assert exc.value.kernel_vector is not None
    assert all(x == 0 for x in sing.apply(exc.value.kernel_vector))
    rect = Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(NotInvertible):
        rect.inverse()


def test_solve_consistent_and_not():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[1], [0]])
    x = a.solve(b)
    assert a @ x == b
    inconsistent = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    assert inconsistent.solve(Matrix.from_rows(QQ, [[1], [0]])) is None


def test_gf_field_paths():
    g = GF(5)
    m = Matrix.from_rows(g, [[1, 2], [3, 4]])
    assert (m @ m.inverse()).is_identity()
    with pytest.raises(Exception):
        GF(6)
    assert GF(5).parse("3/2") == (3 * pow(2, 3, 5)) % 5


def test_identity_cache_and_fast_paths():
    i1 = Matrix.identity(QQ, 7)
    assert Matrix.identity(QQ, 7) is i1
    m = Matrix.from_rows(QQ, [[2, 0], [1, 1]])
    assert Matrix.identity(QQ, 2) @ m == m
    assert m.apply((Fraction(1), Fraction(0))) == (Fraction(2), Fraction(1))
    # an identity reduces its input like every other matrix
    for f, vec, want in [(GF(5), (7, 3), (2, 3)),
                         (QQ, (Fraction(4, 2), Fraction(1, 2)), (2, Fraction(1, 2)))]:
        image = Matrix.identity(f, 2).apply(vec)
        assert image == want
        assert_canonical_vector(f, image)


def test_hash_is_kept_and_agrees_with_equality():
    """A matrix is immutable, so its hash is computed once; equal matrices
    built by different constructors hash alike."""
    dense = Matrix.from_rows(QQ, [[2, 0], [1, 1]])
    sparse = Matrix.from_sparse_rows(QQ, [{0: 2}, {0: 1, 1: 1}], 2)
    assert dense == sparse and hash(dense) == hash(sparse) == hash(dense)
    assert hash(dense) == hash((dense.shape, tuple(frozenset(r.items())
                                                   for r in dense.sparse_rows())))
    assert len({dense, sparse, Matrix.identity(QQ, 2), dense.transpose()}) == 3


def test_kron_and_permutations():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[0], [3]])
    k = a.kron(b)
    assert k.shape == (2, 2)
    assert k.rows[1] == (Fraction(3), Fraction(6))
    big = Matrix.from_rows(QQ, [[i] for i in range(8)])
    swapped = permute_tensor_rows(big, 2, (1, 0, 2))
    # leg swap of (i, j, k) -> value at (j, i, k)
    assert swapped.rows[int("100", 2)][0] == int("010", 2)
    mp = mixed_permutation(QQ, [2, 3], (1, 0))
    assert mp.shape == (6, 6)
    assert mp.rank() == 6


def test_rref_of_invertible_integer_matrix_is_identity():
    m = Matrix.from_rows(QQ, [[2, 4, 1], [3, 7, 2], [5, 9, 4]])
    r, piv = m.rref()
    assert piv == [0, 1, 2]
    assert r.is_identity()
    assert (m @ m.inverse()).is_identity()


@st.composite
def leg_permutation_case(draw):
    """Legs of dims 1-4, a random order, a field and a matrix to permute."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    order = draw(st.permutations(range(len(dims))))
    field = draw(FIELDS)
    total = len(leg_permutation(dims, order))
    other = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(entries(field), min_size=other, max_size=other),
                         min_size=total, max_size=total))
    return dims, order, field, Matrix.from_rows(field, rows)


@given(leg_permutation_case())
@settings(max_examples=60, deadline=None)
def test_leg_permutation_matches_the_digit_definition(case):
    dims, order, _, _ = case
    position = {digits: k for k, digits in
                enumerate(itertools.product(*map(range, dims)))}
    want = []
    for out_digits in itertools.product(*(range(dims[leg]) for leg in order)):
        in_digits = [0] * len(dims)
        for i, leg in enumerate(order):
            in_digits[leg] = out_digits[i]
        want.append(position[tuple(in_digits)])
    assert leg_permutation(dims, order) == want


@given(leg_permutation_case())
@settings(max_examples=60, deadline=None)
def test_permute_rows_matches_dense_permutation(case):
    dims, order, field, mat = case
    assert permute_rows(mat, dims, order) == mixed_permutation(field, dims, order) @ mat


@given(leg_permutation_case())
@settings(max_examples=60, deadline=None)
def test_permute_cols_matches_dense_permutation(case):
    dims, order, field, mat = case
    mat = mat.transpose()
    assert permute_cols(mat, dims, order) == mat @ mixed_permutation(field, dims, order)


@given(leg_permutation_case())
@settings(max_examples=60, deadline=None)
def test_leg_permutation_round_trip(case):
    dims, order, _, mat = case
    out_dims = [dims[leg] for leg in order]
    inverse = [order.index(leg) for leg in range(len(order))]
    there = permute_rows(mat, dims, order)
    assert permute_rows(there, out_dims, inverse) == mat
    back = permute_cols(mat.transpose(), dims, order)
    assert permute_cols(back, out_dims, inverse) == mat.transpose()


@st.composite
def kron_factors(draw, field, legs, size_side):
    """Kronecker factors laid over ``legs``: runs of legs, each a matrix
    (sparse or dense, ``size_side`` of its shape fixed by the run) or, on a
    single leg, ``None``.  Returns the factors and their sizes."""
    factors, sizes, pos = [], [], 0
    while pos < len(legs):
        end = draw(st.integers(pos + 1, len(legs)))
        size = math.prod(legs[pos:end])
        if end == pos + 1 and draw(st.booleans()):
            factors.append(None)
        else:
            other = draw(st.integers(0, 3))
            sparse = draw(st.booleans())
            values = st.one_of(entries(field), st.just(0)) if sparse else entries(field)
            shape = (size, other) if size_side == "rows" else (other, size)
            rows = draw(st.lists(st.lists(values, min_size=shape[1], max_size=shape[1]),
                                 min_size=shape[0], max_size=shape[0]))
            factors.append(Matrix(field, rows, shape[1]))
        sizes.append(size)
        pos = end
    return factors, sizes


@st.composite
def kron_apply_case(draw):
    """1-4 legs of dims 1-4, an order or none, and F/G factors over them."""
    field = draw(FIELDS)
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    order = draw(st.one_of(st.none(), st.permutations(range(len(dims)))))
    out_legs = dims if order is None else [dims[leg] for leg in order]
    right = draw(kron_factors(field, dims, "rows"))
    left = draw(kron_factors(field, out_legs, "cols"))
    return field, dims, order, left, right


def _dense_kron(field, factors, sizes):
    out = None
    for fac, size in zip(factors, sizes):
        m = Matrix.identity(field, size) if fac is None else fac
        out = m if out is None else out.kron(m)
    return out


@given(kron_apply_case())
@settings(max_examples=150, deadline=None)
def test_kron_apply_matches_dense_kron(case):
    field, dims, order, (left, lsizes), (right, rsizes) = case
    perm = mixed_permutation(field, dims, range(len(dims)) if order is None else order)
    want = _dense_kron(field, left, lsizes) @ perm @ _dense_kron(field, right, rsizes)
    got = kron_apply(field, left, dims, order, right)
    assert got == want
    assert_flag_holds(got)


def test_kron_apply_reorders_many_legs_at_the_size_of_its_blocks():
    """A reordering of twenty two-dimensional legs (2^20 positions) costs
    the size of the G blocks: no index map over the whole product is built.
    Each leg carries e1, so the one G column sits at the all-ones position,
    and each F factor (1 2) reads 2 off it."""
    legs = 20
    e1, two = Matrix.from_cols(QQ, [(0, 1)]), Matrix.from_rows(QQ, [[1, 2]])
    tracemalloc.start()
    try:
        out = kron_apply(QQ, [two] * legs, [2] * legs, tuple(reversed(range(legs))),
                         [e1] * legs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == Matrix.from_rows(QQ, [[2 ** legs]])
    assert peak < 1 << 20, peak


def test_kron_apply_rejects_factors_off_the_legs():
    three = Matrix.identity(QQ, 3)
    with pytest.raises(ShapeMismatch):
        kron_apply(QQ, [three], [2, 2], None, [None, None])
    with pytest.raises(ShapeMismatch):
        kron_apply(QQ, [None], [2, 2], (1, 0), [None, None])


def test_kron_apply_takes_a_leg_of_dimension_zero_under_a_permutation():
    """A G block over a leg of dimension 0 once made ``_block_offsets`` run
    off the legs (``IndexError``); the product is empty, of the F shape."""
    empty = Matrix(QQ, [], 0)
    got = kron_apply(QQ, [empty, None], [1, 0, 4, 3], (1, 2, 3, 0), [empty, None])
    assert got == Matrix.zero(QQ, 0, 0)
    assert got == kron_apply_per_column(QQ, [empty, None], [1, 0, 4, 3], (1, 2, 3, 0),
                                        [empty, None])

def kron_apply_per_column(field, left, dims, order, right) -> Matrix:
    """``kron_apply`` one output column at a time: the reference.

    Each output column is the outer product of the G factors' column
    supports, moved through the index map of P; the F factors are then
    applied one block at a time, last first, to that sparse column."""
    if order is not None:
        linalg._check_order(dims, order)
    g_sizes = linalg._block_sizes(right, dims, lambda m: m.nrows)
    f_sizes = linalg._block_sizes(left, dims if order is None else [dims[o] for o in order],
                                  lambda m: m.ncols)
    one, normalise = field.one, field.normalise
    g_cols = [[((c, one),) for c in range(n)] if g is None else g.col_supports()
              for g, n in zip(right, g_sizes)]
    # with a leg of dimension 0 the G product has no rows to place
    offsets = (None if order is None or 0 in g_sizes
               else linalg._block_offsets(dims, order, g_sizes))
    # F blocks, last first: (supports, block width, block height, trailing size)
    stages = []
    trailing = 1
    for fac, n in zip(reversed(left), reversed(f_sizes)):
        if fac is not None:
            stages.append((fac.col_supports(), n * trailing, fac.nrows * trailing, trailing))
        trailing *= n if fac is None else fac.nrows
    ncols = math.prod(len(c) for c in g_cols)
    out = [{} for _ in range(trailing)]
    for j, supports in enumerate(itertools.product(*g_cols)):
        vec = {0: one}
        if offsets is None:
            for supp, n in zip(supports, g_sizes):
                vec = {x * n + r: v * a for x, v in vec.items() for r, a in supp}
        else:
            for supp, off in zip(supports, offsets):
                vec = {x + off[r]: v * a for x, v in vec.items() for r, a in supp}
        for supp, width, height, lo in stages:
            nxt = {}
            for x, v in vec.items():
                hi, rem = divmod(x, width)
                mid, low = divmod(rem, lo)
                base = hi * height + low
                for r, a in supp[mid]:
                    y = base + r * lo
                    nxt[y] = nxt[y] + a * v if y in nxt else a * v
            vec = nxt
        for y, v in normalise(vec, True).items():
            out[y][j] = v
    return Matrix.from_sparse_rows(field, out, ncols)


@st.composite
def kron_reference_case(draw):
    """A ``kron_apply`` case over QQ or GF(101) on 1-4 legs of dimension
    0-4, so that legs of dimension 0 and 1 (ambiguous covers) occur, with
    the F list all ``None`` or the G list all identities now and then."""
    field = draw(st.sampled_from([QQ, GF(101)]))
    dims = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    order = draw(st.one_of(st.none(), st.permutations(range(len(dims)))))
    out_legs = dims if order is None else [dims[leg] for leg in order]
    right, _ = draw(kron_factors(field, dims, "rows"))
    left, _ = draw(kron_factors(field, out_legs, "cols"))
    if draw(st.integers(0, 5)) == 0:
        right = [None] * len(dims)
    if draw(st.integers(0, 5)) == 0:
        left = [None] * len(out_legs)
    return field, dims, order, left, right


@given(kron_reference_case())
@settings(max_examples=300, deadline=None)
def test_kron_apply_matches_the_per_column_reference(case):
    field, dims, order, left, right = case
    got = kron_apply(field, left, dims, order, right)
    assert_sparse_invariants(got)
    assert got == kron_apply_per_column(field, left, dims, order, right)


@st.composite
def dense_kron_case(draw):
    """A dense GF(101) G on three or four legs of dimension 4 and a dense F
    of 2-4 rows on two adjacent legs, dense enough that its stage passes
    ``_packed_slot``'s cost rule."""
    field = GF(101)
    legs = draw(st.integers(3, 4))
    dims = [4] * legs
    order = draw(st.one_of(st.none(), st.permutations(range(legs))))
    nonzero = st.integers(1, 100)
    g_cols = draw(st.integers(4, 8))
    right = [Matrix(field, draw(st.lists(st.lists(nonzero, min_size=g_cols, max_size=g_cols),
                                         min_size=4 ** legs, max_size=4 ** legs)), g_cols)]
    at = draw(st.integers(0, legs - 2))
    f_rows = draw(st.integers(2, 4))
    block = Matrix(field, draw(st.lists(st.lists(nonzero, min_size=16, max_size=16),
                                        min_size=f_rows, max_size=f_rows)), 16)
    left = [None] * at + [block] + [None] * (legs - 2 - at)
    return field, dims, order, left, right


@given(dense_kron_case())
@settings(max_examples=25, deadline=None)
def test_a_dense_gf_stage_takes_the_packed_product(case):
    field, dims, order, left, right = case
    packed = []
    real = linalg._packed_product

    def counted(*args):
        packed.append(args[1].shape)
        return real(*args)

    linalg._packed_product = counted
    try:
        got = kron_apply(field, left, dims, order, right)
    finally:
        linalg._packed_product = real
    assert packed
    assert got == kron_apply_per_column(field, left, dims, order, right)


@given(kron_reference_case())
@settings(max_examples=100, deadline=None)
def test_kron_apply_makes_one_product_per_f_factor(case):
    """The shuffle algorithm applies each F factor as exactly one
    ``Matrix.__matmul__``, and builds the G product with none."""
    field, dims, order, left, right = case
    calls = []
    real = Matrix.__matmul__

    def counted(a, b):
        calls.append(a)
        return real(a, b)

    Matrix.__matmul__ = counted
    try:
        kron_apply(field, left, dims, order, right)
    finally:
        Matrix.__matmul__ = real
    assert len(calls) == sum(fac is not None for fac in left)
    assert all(any(a is fac for fac in left) for a in calls)


@given(leg_permutation_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_split_leg_matches_the_digit_definition(case, data):
    dims, _, field, mat = case
    mat = mat.transpose()
    leg = data.draw(st.integers(0, len(dims) - 1))
    position = {digits: k for k, digits in
                enumerate(itertools.product(*map(range, dims)))}
    rest = list(itertools.product(*(range(d) for k, d in enumerate(dims) if k != leg)))
    want = [tuple(row[position[r[:leg] + (x,) + r[leg:]]] for x in range(dims[leg]))
            for row in mat.rows for r in rest]
    assert split_leg(mat, dims, leg) == Matrix(field, want, dims[leg])


@given(leg_permutation_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_split_leg_turns_a_leg_map_into_a_product(case, data):
    """split_leg(g @ (I (x) K (x) I)) == split_leg(g) @ K: a map kills a
    subspace on one leg iff its split matrix kills it."""
    dims, _, field, mat = case
    mat = mat.transpose()
    leg = data.draw(st.integers(0, len(dims) - 1))
    width = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(entries(field), min_size=width, max_size=width),
                              min_size=dims[leg], max_size=dims[leg]))
    k = Matrix.from_rows(field, rows)
    on_leg = (Matrix.identity(field, math.prod(dims[:leg])).kron(k)
              .kron(Matrix.identity(field, math.prod(dims[leg + 1:]))))
    out_dims = dims[:leg] + [width] + dims[leg + 1:]
    assert split_leg(mat @ on_leg, out_dims, leg) == split_leg(mat, dims, leg) @ k


@pytest.mark.parametrize("cols, nrows", [([], None), ([(1, 2), (3,)], None),
                                         ([(1, 2)], 3), ([(1, 2)], 1), ([(0, 0)], 0)])
def test_from_cols_rejects_a_shape_it_cannot_build(cols, nrows):
    """An empty list needs ``nrows``; given columns must be equally long
    and as long as ``nrows`` says."""
    cols = [tuple(QQ.from_int(x) for x in c) for c in cols]
    with pytest.raises(ShapeMismatch):
        Matrix.from_cols(QQ, cols, nrows)


def test_from_cols_takes_a_matching_nrows():
    one, two = QQ.from_int(1), QQ.from_int(2)
    assert Matrix.from_cols(QQ, [(one, two)], 2) == Matrix.from_cols(QQ, [(one, two)])
    assert Matrix.from_cols(QQ, [], 3).shape == (3, 0)


def test_split_leg_rejects_legs_off_the_columns():
    with pytest.raises(ShapeMismatch):
        split_leg(Matrix.identity(QQ, 6), [2, 2], 0)


# -- sparse Matrix against a dense reference ------------------------------
#
# The reference below works on plain tuples of rows and knows nothing of the
# sparse storage: every Matrix operation must give the same entries, store
# no zero, and hash equal matrices alike.

def _ref_matmul(f, a, b, ncols):
    return tuple(tuple(_ref_dot(f, row, [r[k] for r in b]) for k in range(ncols))
                 for row in a)


def _ref_dot(f, u, v):
    acc = f.zero
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _ref_kron(f, a, b):
    return tuple(tuple(f.mul(x, y) for x in r1 for y in r2) for r1 in a for r2 in b)


def _ref_identity(f, n):
    return tuple(tuple(f.one if i == j else f.zero for j in range(n)) for i in range(n))


def _ref_transpose(a, nrows, ncols):
    return tuple(tuple(a[i][j] for i in range(nrows)) for j in range(ncols))


def _ref_rref(f, a, ncols):
    """Gauss-Jordan on lists, leftmost pivot column and topmost row."""
    rows = [list(r) for r in a]
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if not f.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        rows[r] = [f.div(x, p) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not f.is_zero(rows[i][c]):
                a_ic = rows[i][c]
                rows[i] = [f.sub(x, f.mul(a_ic, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), pivots


def _ref_kernel(f, a, ncols):
    rr, pivots = _ref_rref(f, a, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [f.zero] * ncols
        v[j] = f.one
        for i, p in enumerate(pivots):
            v[p] = f.neg(rr[i][j])
        basis.append(tuple(v))
    return basis


def _ref_permutation(f, dims, order):
    """The leg permutation matrix from the digit definition."""
    position = {d: k for k, d in enumerate(itertools.product(*map(range, dims)))}
    total = len(position)
    out = []
    for digits in itertools.product(*(range(dims[leg]) for leg in order)):
        src = [0] * len(dims)
        for i, leg in enumerate(order):
            src[leg] = digits[i]
        col = position[tuple(src)]
        out.append(tuple(f.one if k == col else f.zero for k in range(total)))
    return tuple(out)


def assert_canonical(f, v):
    """``v`` is a nonzero value in stored form: over QQ an ``int`` when
    integral, else a ``Fraction`` with denominator > 1; over GF(p) an
    ``int`` in ``[1, p)``."""
    if f is QQ:
        assert v != 0 and (type(v) is int or type(v) is Fraction and v.denominator > 1), v
    else:
        assert type(v) is int and 0 < v < f.p, v


def assert_canonical_vector(f, vec):
    """A dense vector of stored-form values, its zeros the field's zero."""
    for v in vec:
        if v == 0:
            assert type(v) is type(f.zero) and v == f.zero, v
        else:
            assert_canonical(f, v)


def assert_sparse_invariants(m):
    """Every stored value canonical and nonzero, every column in range, no
    ``Fraction`` in a matrix flagged integral, and equal matrices hash
    alike."""
    f = m.field
    rows = m.sparse_rows()
    assert len(rows) == m.nrows
    for r in rows:
        assert all(0 <= k < m.ncols for k in r)
        for v in r.values():
            assert_canonical(f, v)
    assert_flag_holds(m)
    copy = Matrix(f, m.rows, m.ncols)
    assert copy == m and hash(copy) == hash(m)


def assert_flag_holds(m):
    """A matrix flagged integral (``_ints`` True) holds no ``Fraction``.
    Both product paths are exact, so a wrong flag would change no result,
    only send a product with a ``Fraction`` down the dict loop."""
    if m._ints:
        assert all(type(v) is int for r in m.sparse_rows() for v in r.values()), m


def assert_matches(m, ref, shape):
    assert_sparse_invariants(m)
    assert m.shape == shape
    assert m.rows == tuple(ref)



@st.composite
def operand(draw, field, nrows, ncols):
    """A zero, an identity (when square) or a mostly-zero random matrix."""
    kinds = ["random", "random", "zero"] + (["identity"] if nrows == ncols else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return Matrix.zero(field, nrows, ncols)
    if kind == "identity":
        return Matrix.identity(field, nrows)
    values = st.one_of(st.just(0), st.just(0), entries(field))
    rows = draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix(field, rows, ncols)


@st.composite
def operand_case(draw):
    """A field, shapes m x n and n x p with zero sizes allowed, operands
    a, b (m x n) and c (n x p), a scalar and a vector of length n."""
    field = draw(FIELDS)
    m, n, p = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = draw(operand(field, m, n)), draw(operand(field, m, n))
    c = draw(operand(field, n, p))
    scalar = field.parse(draw(entries(field)))
    vec = tuple(field.parse(x) for x in draw(st.lists(entries(field), min_size=n, max_size=n)))
    return field, a, b, c, scalar, vec


@given(operand_case())
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_the_dense_reference(case):
    f, a, b, c, scalar, vec = case
    (m, n), p = a.shape, c.ncols
    ra, rb, rc = a.rows, b.rows, c.rows
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    assert_matches(a @ c, _ref_matmul(f, ra, rc, p), (m, p))
    # every entry of a @ c meets its negative: sums that cancel store nothing
    cancelled = Matrix.augment(a, a) @ Matrix.stack_rows([c, -c])
    assert_matches(cancelled, [(f.zero,) * p] * m, (m, p))
    assert_matches(a + b, [tuple(map(f.add, x, y)) for x, y in zip(ra, rb)], (m, n))
    assert_matches(a - b, [tuple(map(f.sub, x, y)) for x, y in zip(ra, rb)], (m, n))
    assert_matches(a - a, [(f.zero,) * n] * m, (m, n))
    assert_matches(-a, [tuple(map(f.neg, x)) for x in ra], (m, n))
    assert_matches(a.scale(scalar), [tuple(f.mul(scalar, x) for x in r) for r in ra], (m, n))
    assert_matches(a.kron(c), _ref_kron(f, ra, rc), (m * n, n * p))
    assert_matches(a.transpose(), _ref_transpose(ra, m, n), (n, m))
    assert_matches(Matrix.stack_rows([a, b]), ra + rb, (2 * m, n))
    assert_matches(Matrix.augment(a, b), [x + y for x, y in zip(ra, rb)], (m, 2 * n))
    supports = [[(i, r[j]) for i, r in enumerate(ra) if not f.is_zero(r[j])] for j in range(n)]
    assert [list(s) for s in a.col_supports()] == supports
    assert a.apply(vec) == tuple(_ref_dot(f, r, vec) for r in ra)
    assert_canonical_vector(f, a.apply(vec))
    assert all(a.entry(i, j) == ra[i][j] for i in range(m) for j in range(n))
    assert all(a.col(j) == tuple(r[j] for r in ra) for j in range(n))
    assert a.is_zero() == all(f.is_zero(x) for r in ra for x in r)
    assert a.is_identity() == (m == n and ra == _ref_identity(f, m))


@given(operand_case())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_the_dense_reference(case):
    f, a, b, c, _, _ = case
    m, n = a.shape
    ra = a.rows
    r, pivots = a.rref()
    want, want_pivots = _ref_rref(f, ra, n)
    assert_matches(r, want, (m, n))
    assert pivots == want_pivots
    assert a.kernel_basis() == _ref_kernel(f, ra, n)
    assert row_space_basis(a) == list(want[:len(pivots)])
    # the canonical solution sets the free variables to zero; b is an
    # arbitrary right-hand side, a @ c a consistent one
    for rhs in (b, a @ c):
        assert_solves_like_the_reference(a, rhs)
    if m == n and len(pivots) == n:
        assert_matches(a @ a.inverse(), _ref_identity(f, n), (n, n))
    elif m == n:
        with pytest.raises(NotInvertible):
            a.inverse()


def row_space_basis(m):
    """The canonical (rref) basis of the row space of ``m``, as row tuples."""
    R, pivots = m.rref()
    return [R.row(i) for i in range(len(pivots))]


def assert_solves_like_the_reference(a, rhs):
    """``a.solve(rhs)`` is None exactly when the rref of ``[a | rhs]`` has a
    pivot right of ``a``, and otherwise the solution read off that rref."""
    f, n, width = a.field, a.ncols, rhs.ncols
    aug, aug_pivots = _ref_rref(f, [u + v for u, v in zip(a.rows, rhs.rows)], n + width)
    x = a.solve(rhs)
    if any(q >= n for q in aug_pivots):
        assert x is None
        return
    want = [(f.zero,) * width] * n
    for i, q in enumerate(aug_pivots):
        want[q] = aug[i][n:]
    assert_matches(x, want, (n, width))


def dense_entries(field):
    """Mostly nonzero entries: over GF(p) any residue, so raw sums meet
    multiples of p, over QQ fractions with denominators up to 3."""
    if field is QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, field.p - 1)


def dense_operand(draw, field, nrows, ncols):
    rows = draw(st.lists(st.lists(dense_entries(field), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix.from_rows(field, rows, ncols)


@st.composite
def tall_case(draw):
    """A dense m x n matrix (m <= 9, n <= 11), and a tall system: an m x t
    left side with t < m, of full column rank or of rank below t, with a
    consistent and an arbitrary right-hand side."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(101), GF(2**61 - 1)]))
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 11))
    a = dense_operand(draw, field, m, n)
    t = draw(st.integers(0, m - 1))
    left = dense_operand(draw, field, m, t)
    if draw(st.booleans()) and t > 1:
        k = draw(st.integers(0, t - 1))
        left = dense_operand(draw, field, m, k) @ dense_operand(draw, field, k, t)
    width = draw(st.integers(1, 3))
    consistent = left @ dense_operand(draw, field, t, width)
    arbitrary = dense_operand(draw, field, m, width)
    return a, left, consistent, arbitrary


@given(tall_case())
@settings(max_examples=100, deadline=None)
def test_delayed_reduction_and_tall_solves_match_the_dense_reference(case):
    """Dense operands make raw sums that are multiples of p but not zero, so
    every pivot search must read its column reduced; a tall solve must
    return None when its basis rows are consistent but the others are not."""
    a, left, consistent, arbitrary = case
    r, pivots = a.rref()
    want, want_pivots = _ref_rref(a.field, a.rows, a.ncols)
    assert_matches(r, want, a.shape)
    assert pivots == want_pivots
    for rhs in (consistent, arbitrary):
        assert_solves_like_the_reference(left, rhs)


def test_a_raw_multiple_of_p_is_no_pivot():
    """Over GF(3) the raw entry (2, 2) of this matrix is 2 - 2*2 = -2 after
    the first pivot and -2 - 1*1 = -3 after the second: nonzero as an int,
    zero in the field, so column 2 has no pivot.  The tall system on its
    first two columns is consistent for column 2 and not for column 2 plus
    e_2, though its basis rows 0 and 1 are consistent for both."""
    f = GF(3)
    m = Matrix.from_rows(f, [[1, 0, 2], [0, 1, 1], [2, 1, 2]])
    r, pivots = m.rref()
    assert_matches(r, [(1, 0, 2), (0, 1, 1), (0, 0, 0)], (3, 3))
    assert pivots == [0, 1]
    left = Matrix.from_rows(f, [[1, 0], [0, 1], [2, 1]])
    assert_matches(left.solve(Matrix.from_rows(f, [[2], [1], [2]])), [(2,), (1,)], (2, 1))
    assert left.solve(Matrix.from_rows(f, [[2], [1], [0]])) is None


@st.composite
def binomial_case(draw):
    """Rows of at most two entries on up to 12 columns, 0 columns included:
    random rows (whose cycles mostly disagree), rows ``c (p_b e_a - p_a
    e_b)`` that all vanish on one hidden vector p (whose cycles agree),
    one-entry rows, empty rows and repeated rows."""
    field = draw(FIELDS)
    n = draw(st.integers(0, 12))
    nonzero = entries(field).filter(lambda v: field.parse(v) != 0)
    hidden = [field.parse(draw(nonzero)) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["agree", "agree", "agree", "random", "one", "empty"]))
        row = [0] * n
        if kind == "one" and n:
            row[draw(st.integers(0, n - 1))] = draw(nonzero)
        elif kind != "empty" and n > 1:
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            if kind == "random":
                row[a], row[b] = draw(nonzero), draw(nonzero)
            else:
                c = field.parse(draw(nonzero))
                row[a], row[b] = field.mul(c, hidden[b]), field.neg(field.mul(c, hidden[a]))
        rows.append(row)
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return Matrix(field, rows, n)


def assert_binomial_rref_agrees(m):
    """``_binomial_rref`` gives ``_sparse_rref``'s rows and pivots and the
    dense reference's, in stored form, and its flag, read as ``rref``
    reads ``units``, never claims ``int`` for a ``Fraction``."""
    f, (nrows, n) = m.field, m.shape
    rows, pivots, units = _binomial_rref(m.sparse_rows(), f)
    assert (rows, pivots) == _sparse_rref(m.sparse_rows(), f)[:2]
    want, want_pivots = _ref_rref(f, m.rows, n)
    assert pivots == want_pivots
    got = Matrix.from_sparse_rows(f, rows, n, m._ints if units else None)
    assert_matches(got, want, (nrows, n))


@given(binomial_case())
@settings(max_examples=300, deadline=None)
def test_binomial_rref_matches_the_dict_loop_and_the_reference(m):
    assert_binomial_rref_agrees(m)


def test_binomial_rref_on_deep_trees_and_cycles():
    """A path on eight columns joined pairwise, then pairs of pairs, then
    the two halves, so union by size leaves a tree three unions deep; a
    row closing a cycle between its two deepest columns then agrees or
    disagrees with the path's weights.  Agreeing, column 7 is the one free
    column; disagreeing, the component is dead.  A one-entry row kills a
    component the same way, and a column in no row stays free."""
    for f in (QQ, GF(101)):
        half = Fraction(1, 2) if f is QQ else f.parse("1/2")
        path = [{0: 1, 1: -2}, {2: 1, 3: -2}, {4: 1, 5: -2}, {6: 1, 7: -2},
                {1: 1, 2: -2}, {5: 1, 6: -2}, {3: 1, 4: -2}]
        # e_i = 2 e_{i+1}, so e_0 = 2^6 e_6 and the cycle row e_0 - 64 e_6 agrees
        for closing, dead in (({0: 1, 6: -64}, False), ({0: 1, 6: -63}, True)):
            rows = [dict(r) for r in path] + [closing]
            m = Matrix.from_rows(f, [[r.get(j, 0) for j in range(9)] for r in rows])
            assert_binomial_rref_agrees(m)
            got, pivots, _ = _binomial_rref(m.sparse_rows(), f)
            if dead:
                assert pivots == list(range(8))
            else:
                assert pivots == list(range(7))
                assert got[6] == {6: 1, 7: f.parse(-2)}
                assert got[0] == {0: 1, 7: f.parse(-128)}
        m = Matrix.from_rows(f, [[1, half, 0], [0, 1, 0], [0, 0, 0]])
        assert_binomial_rref_agrees(m)
    for f in (QQ, GF(2)):
        for shape in ((0, 0), (3, 0), (0, 4), (3, 4)):
            assert_binomial_rref_agrees(Matrix.zero(f, *shape))


@st.composite
def reshape_case(draw):
    """Legs of dims 0-3, an order, and matrices whose rows or columns run
    over the legs."""
    field = draw(FIELDS)
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    order = draw(st.permutations(range(len(dims))))
    total = math.prod(dims)
    other = draw(st.integers(0, 3))
    on_rows = draw(operand(field, total, other))
    on_cols = draw(operand(field, other, total))
    return field, dims, order, on_rows, on_cols


@given(reshape_case(), st.data())
@settings(max_examples=200, deadline=None)
def test_reshapes_match_the_dense_reference(case, data):
    f, dims, order, on_rows, on_cols = case
    total = math.prod(dims)
    perm = _ref_permutation(f, dims, order)
    assert_matches(mixed_permutation(f, dims, order), perm, (total, total))
    assert_matches(permute_rows(on_rows, dims, order),
                   _ref_matmul(f, perm, on_rows.rows, on_rows.ncols), on_rows.shape)
    assert_matches(permute_cols(on_cols, dims, order),
                   _ref_matmul(f, on_cols.rows, perm, total), on_cols.shape)
    leg = data.draw(st.integers(0, len(dims) - 1))
    position = {d: k for k, d in enumerate(itertools.product(*map(range, dims)))}
    rest = list(itertools.product(*(range(d) for k, d in enumerate(dims) if k != leg)))
    want = [tuple(row[position[r[:leg] + (x,) + r[leg:]]] for x in range(dims[leg]))
            for row in on_cols.rows for r in rest]
    assert_matches(split_leg(on_cols, dims, leg), want, (len(want), dims[leg]))


@given(kron_apply_case())
@settings(max_examples=150, deadline=None)
def test_kron_apply_matches_the_dense_reference(case):
    field, dims, order, (left, lsizes), (right, rsizes) = case

    def dense_kron(factors, sizes):
        out = ((field.one,),)
        for fac, size in zip(factors, sizes):
            out = _ref_kron(field, out, _ref_identity(field, size) if fac is None else fac.rows)
        return out

    g = dense_kron(right, rsizes)
    ncols = len(g[0]) if g else math.prod(
        size if fac is None else fac.ncols for fac, size in zip(right, rsizes))
    perm = _ref_permutation(field, dims, range(len(dims)) if order is None else order)
    fk = dense_kron(left, lsizes)
    want = _ref_matmul(field, fk, _ref_matmul(field, perm, g, ncols), ncols)
    assert_matches(kron_apply(field, left, dims, order, right), want, (len(fk), ncols))


def outer(field, *vecs):
    """Coordinates of ``v1 (x) ... (x) vk``, row-major, built from the
    nonzeros of the factors."""
    terms, size = {0: field.one}, 1
    for vec in vecs:
        n = len(vec)
        support = [(j, a) for j, a in enumerate(vec) if a]
        terms = {x * n + j: c * a for x, c in terms.items() for j, a in support}
        size *= n
    out = [field.zero] * size
    for k, x in field.normalise(terms, False).items():
        out[k] = x
    return tuple(out)


@st.composite
def pair_case(draw):
    """A field, a matrix on the pairs of legs of dims d1 and d2 (a zero, an
    identity or a random one), a vector on each leg and a third vector."""
    field = draw(FIELDS)
    d1, d2, d3, m = (draw(st.integers(0, 3)) for _ in range(4))
    mat = draw(operand(field, m, d1 * d2))
    u, v, w = (tuple(field.parse(x) for x in draw(
        st.lists(st.one_of(st.just(0), entries(field)), min_size=d, max_size=d)))
        for d in (d1, d2, d3))
    return field, mat, u, v, w


@given(pair_case())
@settings(max_examples=150, deadline=None)
def test_apply_pair_and_outer_match_the_dense_reference(case):
    field, mat, u, v, w = case
    uv = tuple(field.mul(a, b) for a in u for b in v)
    assert outer(field, u, v) == uv
    assert outer(field, u, v, w) == tuple(field.mul(x, c) for x in uv for c in w)
    assert_canonical_vector(field, outer(field, u, v, w))
    expected = tuple(_ref_dot(field, row, uv) for row in mat.rows)
    assert mat.apply_pair(u, v) == expected
    assert_canonical_vector(field, mat.apply_pair(u, v))
    # the second call reads the column supports kept by the first
    assert mat.apply_pair(u, v) == expected
    with pytest.raises(ShapeMismatch):
        mat.apply_pair((field.one,) * (mat.ncols + 1), (field.one,))


# -- the packed GF(p) product against the dict loop ------------------------
#
# Over GF(p) ``Matrix.__matmul__`` sums a product whose right operand is
# dense enough as packed integers (``_packed_product``) and every other
# product in dicts (``_sparse_product``); ``_packed_slot`` picks the path.
# Both must give the dense reference's entries, stored alike.

# GF(2) and GF(101) pack in 32-bit slots, GF(2^24 - 3) in 64-bit ones whose
# sums of (p - 1)^2 pass 2^48, and GF(2^31 - 1) and GF(2^61 - 1) have no slot
PACKED_FIELDS = [GF(2), GF(101), GF(2**24 - 3), GF(2**31 - 1), GF(2**61 - 1)]


def random_operand(rng, field, nrows, ncols, density):
    """Entries nonzero with probability ``density``, half of them ``p - 1``
    so that the slot sums reach their bound."""
    top = field.p - 1

    def value():
        return top if rng.random() < 0.5 else rng.randrange(1, field.p)

    return Matrix.from_sparse_rows(
        field, [{j: value() for j in range(ncols) if rng.random() < density}
                for _ in range(nrows)], ncols)


@st.composite
def packed_case(draw):
    """GF(p) operands a (m x n) and b (n x q), up to 12 x 40 and 40 x 40;
    each operand has one density from full to empty, so the products fall
    on both sides of the cost rule, and empty rows and columns are common
    at the low densities."""
    field = draw(st.sampled_from(PACKED_FIELDS))
    m, n, q = draw(st.integers(1, 12)), draw(st.integers(2, 40)), draw(st.integers(8, 40))
    densities = st.sampled_from([1, 0.5, 0.125, 1 / 32, 0])
    rng = random.Random(draw(st.integers(0, 2**32)))
    return (random_operand(rng, field, m, n, draw(densities)),
            random_operand(rng, field, n, q, draw(densities)))


@given(packed_case())
@settings(max_examples=80, deadline=None)
def test_packed_product_matches_the_dict_loop_and_the_reference(case):
    a, b = case
    f, (m, n), q = a.field, a.shape, b.ncols
    product = a @ b
    assert_matches(product, _ref_matmul(f, a.rows, b.rows, q), (m, q))
    rows = tuple(_sparse_product(a.sparse_rows(), b.sparse_rows(), f.normalise))
    assert rows == product.sparse_rows()
    # every row of these products cancels to zero
    doubled, negated = Matrix.augment(a, a), Matrix.stack_rows([b, -b])
    assert_matches(doubled @ negated, [(f.zero,) * q] * m, (m, q))
    for left, right, want in ((a, b, rows), (doubled, negated, ({},) * m)):
        if _fits(f, left.ncols) is None:
            # a prime below 2^24 has a slot that holds every sum here
            assert _slot(f.p) is None and f.p > 2**24
            continue
        packed = _packed_product(left, right)
        assert packed.sparse_rows() == tuple(want)


def test_a_slot_holds_its_largest_sum():
    """One slot width per prime, the narrower of 32 and 64 bits in which
    2^16 products of two residues fit, at each boundary of the rule: 257
    is the last prime with 32-bit slots and 263 the first with 64-bit
    ones, 2^24 - 3 is the last prime with a slot and 2^24 + 43 the first
    with none.  A kernel packs only when the slot holds its n sums
    (``_fits``), up to the largest n for each width."""
    assert _slot(2) == _slot(101) == _slot(257) == (32, "I")
    assert _slot(263) == _slot(2**24 - 3) == (64, "Q")
    assert _slot(2**24 + 43) is None and _slot(2**31 - 1) is None and _slot(2**61 - 1) is None
    assert _fits(GF(2), 2**32 - 1) == 32 and _fits(GF(2), 2**32) is None
    assert _fits(GF(101), 429496) == 32 and _fits(GF(101), 429497) is None
    assert _fits(GF(257), 2**16 - 1) == 32 and _fits(GF(257), 2**16) is None
    assert _fits(GF(263), 2**16) == 64
    assert _fits(GF(2**24 - 3), 2**16) == 64 and _fits(GF(2**24 - 3), 2**16 + 1) is None
    assert _fits(GF(2**31 - 1), 1) is None and _fits(QQ, 1) is None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 251, 65521, 2**31 - 1])
def test_the_barrett_step_reduces_every_slot_value(p):
    """``_reduce`` against ``v % p``, in every slot format whose slot holds
    ``(p - 1)**2``, on its lowest and highest 4096 values and 4096 random
    ones, in slots of both parities."""
    rng = random.Random(p)
    for bits, code in linalg._SLOTS:
        if (p - 1) ** 2 >> bits:
            continue
        top = (1 << bits) - 1
        values = [*range(4096), *range(top - 4095, top + 1),
                  *(rng.randrange(top + 1) for _ in range(4096))]
        buf = bytearray(bits // 8 * len(values))
        slots = memoryview(buf).cast(code)
        for k, v in enumerate(values):
            slots[k] = v
        x = int.from_bytes(buf, sys.byteorder)
        got = linalg._reduce(x, len(values), bits, p).to_bytes(len(buf), sys.byteorder)
        assert memoryview(got).cast(code).tolist() == [v % p for v in values], (p, code)


def test_the_cost_rule_sends_each_product_down_its_path(monkeypatch):
    """Each product runs the path its field and operands name and equals
    the dense reference: dense products over GF(p) with a slot pack;
    products over a prime with no slot, with a sparse right operand or tiny
    take the dict loop; over QQ a product with a ``Fraction`` on
    either side is summed on integer rows and one of ``int`` operands takes
    the dict loop."""
    taken = []
    for name in ("_sparse_product", "_packed_product", "_integer_row_product"):
        def spy(*args, real=getattr(linalg, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(linalg, name, spy)
    rng = random.Random(18)
    cases = [
        (GF(101), (16, 64, 16), 1, 1, "_packed_product"),
        (GF(2), (16, 64, 16), 1, 1, "_packed_product"),
        (GF(101), (1024, 16, 4), 0.75, 1, "_packed_product"),
        (GF(257), (16, 64, 16), 1, 1, "_packed_product"),
        (GF(2**24 - 3), (16, 64, 16), 1, 1, "_packed_product"),
        (GF(2**31 - 1), (64, 4, 64), 1, 1, "_sparse_product"),
        (GF(2**61 - 1), (16, 64, 16), 1, 1, "_sparse_product"),
        (GF(101), (16, 64, 16), 1, 1 / 64, "_sparse_product"),
        (GF(101), (4, 64, 4), 1 / 16, 1 / 16, "_sparse_product"),
    ]
    for field, (m, n, q), dense_a, dense_b, path in cases:
        a = random_operand(rng, field, m, n, dense_a)
        b = random_operand(rng, field, n, q, dense_b)
        taken.clear()
        product = a @ b
        assert taken == [path], (field, m, n, q, dense_a, dense_b)
        assert_matches(product, _ref_matmul(field, a.rows, b.rows, q), (m, q))
    qq = Matrix.from_rows(QQ, [[1] * 64] * 16)
    taken.clear()
    assert qq @ qq.transpose() == Matrix.from_rows(QQ, [[64] * 16] * 16)
    assert taken == ["_sparse_product"]
    half = Matrix.from_rows(QQ, [["1/2"] * 64] * 16)
    for a, b, want in ((half, qq.transpose(), 32), (qq, half.transpose(), 32),
                       (half, half.transpose(), 16)):
        taken.clear()
        product = a @ b
        assert taken == ["_integer_row_product"]
        assert product == Matrix.from_rows(QQ, [[want] * 16] * 16) and product._ints


# Over QQ a product whose operands hold a ``Fraction`` is summed on integer
# rows over one denominator per row (``_integer_row_product``); every other
# QQ product takes the dict loop.  Both must give the dense reference's
# entries, stored alike.

# denominators far past a machine word, pairwise coprime, so that the
# common denominator of a row and its sums grow large
LARGE_DENOMINATORS = [2**61 - 1, 10**9 + 7, 3**40, 2**89 - 1]
large_fractions = st.builds(Fraction, st.integers(-10**12, 10**12).filter(bool),
                            st.sampled_from(LARGE_DENOMINATORS))


def qq_operand(draw, nrows, ncols):
    """A QQ matrix, about half of its entries zero, the rest drawn from
    ``qq_entries`` and ``large_fractions``; empty rows are common."""
    values = st.one_of(st.just(0), st.just(0), qq_entries, large_fractions)
    return Matrix(QQ, draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols),
                                    min_size=nrows, max_size=nrows)), ncols)


@st.composite
def integer_row_case(draw):
    """QQ operands a (m x n) and b (n x q), each size from 0 to 5."""
    m, n, q = (draw(st.integers(0, 5)) for _ in range(3))
    return qq_operand(draw, m, n), qq_operand(draw, n, q)


def assert_integer_row_product(a, b, want):
    """``_integer_row_product`` on a and b gives ``_sparse_product``'s rows,
    the dense reference's entries in stored form, and a flag that says
    exactly whether every value is an ``int``."""
    rows, ints = _integer_row_product(a.sparse_rows(), b.sparse_rows())
    assert tuple(rows) == tuple(_sparse_product(a.sparse_rows(), b.sparse_rows(),
                                                QQ.normalise))
    assert ints == all(type(v) is int for r in rows for v in r.values())
    assert_matches(Matrix.from_sparse_rows(QQ, rows, b.ncols, ints), want, (a.nrows, b.ncols))


@given(integer_row_case())
@settings(max_examples=300, deadline=None)
def test_integer_row_product_matches_the_dict_loop_and_the_reference(case):
    """On QQ operands with small and large coprime denominators: the
    product itself, a product whose every row cancels to zero, and a
    product of ``Fraction`` operands that is integral (``2 * 1/2``), each
    against the dict loop and the dense reference; ``@`` agrees."""
    a, b = case
    (m, n), q = a.shape, b.ncols
    want = _ref_matmul(QQ, a.rows, b.rows, q)
    assert_integer_row_product(a, b, want)
    assert_matches(a @ b, want, (m, q))
    # every sum meets its negative
    doubled, negated = Matrix.augment(a, a), Matrix.stack_rows([b, -b])
    assert_integer_row_product(doubled, negated, [(0,) * q] * m)
    # the numerators of a, doubled, times those of b, halved: a ``Fraction``
    # operand and an integral product (2 * 1/2)
    ints_a = Matrix.from_sparse_rows(
        QQ, [{k: v.numerator for k, v in r.items()} for r in a.sparse_rows()], n)
    ints_b = Matrix.from_sparse_rows(
        QQ, [{k: v.numerator for k, v in r.items()} for r in b.sparse_rows()], q)
    product = ints_a.scale(2) @ ints_b.scale(Fraction(1, 2))
    want = _ref_matmul(QQ, ints_a.rows, ints_b.rows, q)
    assert_integer_row_product(ints_a.scale(2), ints_b.scale(Fraction(1, 2)), want)
    assert_matches(product, want, (m, q))


@given(integer_row_case(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_no_matrix_flagged_integral_holds_a_fraction(case, integral):
    """Every QQ constructor and kernel that sets ``_ints``, on operands with
    a ``Fraction`` and on all-``int`` ones: a matrix flagged integral holds
    no ``Fraction``, and where the constructor did not know the flag the
    scan (``_integral``) finds it exactly."""
    a, b = case
    if integral:
        a, b = (Matrix.from_sparse_rows(
            QQ, [{k: v.numerator for k, v in r.items()} for r in m.sparse_rows()], m.ncols,
            True) for m in (a, b))
    (m, n), q = a.shape, b.ncols
    sq = a.transpose() @ a
    built = [a @ b, b.transpose() @ a.transpose(), a.kron(b), a.transpose(), -a, a + a,
             a - a, a.scale(3), a.scale(Fraction(1, 3)), Matrix.stack_rows([a, a]),
             Matrix.augment(a, a @ b), sq.rref()[0], a.nullspace(),
             a.solve(a @ b), linalg._take_rows(a, range(m)[::-1]),
             permute_rows(a, [1, m], (1, 0)), permute_cols(a, [n, 1], (1, 0)),
             split_leg(a, [1, n], 1), Matrix.identity(QQ, n), Matrix.zero(QQ, m, n)]
    if n:
        built.append(kron_apply(QQ, [sq, None], [n, n], (1, 0), [None, sq]))
    for x in built:
        assert_flag_holds(x)
        if x._ints is None:
            assert linalg._integral(x) == all(
                type(v) is int for r in x.sparse_rows() for v in r.values())


@st.composite
def int_product_case(draw):
    """All-int QQ operands a (m x n) and b (n x q), each size from 0 to 5,
    about half of their entries zero and ints past a machine word among the
    rest; empty rows are common."""
    m, n, q = (draw(st.integers(0, 5)) for _ in range(3))
    values = st.one_of(st.just(0), st.just(0), small_entries, st.integers(-2**70, 2**70))

    def draw_operand(nrows, ncols):
        return Matrix(QQ, draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols),
                                        min_size=nrows, max_size=nrows)), ncols)

    return draw_operand(m, n), draw_operand(n, q)


@given(int_product_case())
@settings(max_examples=200, deadline=None)
def test_an_int_product_is_reduced_by_the_zero_filter_alone(case):
    """Over QQ the dict loop reduces the rows of an int-only product by the
    zero filter alone (``_drop_zeros``).  On operands of 0 to 5 rows and
    columns, and on products whose every row cancels to zero, the filter
    gives ``QQ.normalise``'s rows, and ``@`` gives the dense reference's
    entries as ints, flagged integral."""
    a, b = case
    (m, n), q = a.shape, b.ncols
    doubled, negated = Matrix.augment(a, a), Matrix.stack_rows([b, -b])
    for x, y, want in ((a, b, _ref_matmul(QQ, a.rows, b.rows, q)),
                       (doubled, negated, [(0,) * q] * m)):
        rows = _sparse_product(x.sparse_rows(), y.sparse_rows(), linalg._drop_zeros)
        assert rows == _sparse_product(x.sparse_rows(), y.sparse_rows(), QQ.normalise)
        product = x @ y
        assert product._ints is True
        assert all(type(v) is int for r in product.sparse_rows() for v in r.values())
        assert_matches(product, want, (m, q))
        assert_matches(Matrix.from_sparse_rows(QQ, rows, q, True), want, (m, q))


# A packed product keeps its residues as one int and builds its row dicts
# only when they are read.  Every prime of the packed kernels' range, and
# the primes at the boundaries of the slot widths: GF(2) and GF(3) cancel
# often, GF(257) is the last prime with 32-bit slots and GF(263) the first
# with 64-bit ones, GF(2^24 - 3) is the last prime with a slot, and
# GF(2^31 - 1) and GF(2^61 - 1) have none.
RESIDENT_FIELDS = [GF(2), GF(3), GF(101), GF(257), GF(263), GF(2**24 - 3), GF(2**31 - 1),
                   GF(2**61 - 1)]


def is_resident(m):
    """``m`` holds packed residues and has not built its row dicts."""
    try:
        Matrix._rows.__get__(m)
    except AttributeError:
        return m._packed is not None
    return False


def unit_upper(field, n):
    """The n x n upper triangular matrix with 1 on its diagonal and p - 1
    above it, and its inverse."""
    u = Matrix.from_rows(field, [[1 if j == i else field.p - 1 if j > i else 0
                                  for j in range(n)] for i in range(n)])
    return u, u.inverse()


@st.composite
def resident_case(draw):
    """GF(p) operands a (m x n), b (n x q), c (q x r) and d (k x m), up to
    6 x 8 x 12, half their nonzero entries p - 1 so that the slot sums
    reach their bound, a at one density from full to empty."""
    field = draw(st.sampled_from(RESIDENT_FIELDS))
    m, n, q = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = random_operand(rng, field, m, n, draw(st.sampled_from([1, 0.5, 0.125, 0])))
    b = random_operand(rng, field, n, q, 1)
    c = random_operand(rng, field, q, draw(st.integers(1, 6)), 1)
    d = random_operand(rng, field, draw(st.integers(1, 6)), m, 1)
    return a, b, c, d


def _dict_product(a, b):
    f = a.field
    return Matrix.from_sparse_rows(
        f, _sparse_product(a.sparse_rows(), b.sparse_rows(), f.normalise), b.ncols)


@given(resident_case())
@settings(max_examples=200, deadline=None)
def test_packed_residents_match_the_dict_loop_and_the_reference(case):
    """A packed product against ``_sparse_product`` and the dense reference:
    packed against packed, packed against dict on either side, zero
    products of two shapes, an identity product, as either operand of a
    later packed product, and finally its rows built and in stored form.
    ``is_zero``, ``is_identity`` and ``==`` between two packed products
    leave them without row dicts; ``==`` against rows compares rows."""
    a, b, c, d = case
    f, (m, n), q = a.field, a.shape, b.ncols
    want = _ref_matmul(f, a.rows, b.rows, q)
    dict_ab = _dict_product(a, b)
    assert_matches(dict_ab, want, (m, q))
    if _slot(f.p) is None:
        assert f.p > 2**24
        assert a @ b == dict_ab
        return
    # a prime with a slot holds 2^16 sums, more than any product here
    zero = _packed_product(Matrix.augment(a, a), Matrix.stack_rows([b, -b]))
    # (b^T | -b^T) @ (a^T ; a^T) is zero too, of shape q x m
    zero_t = _packed_product(Matrix.augment(b.transpose(), -b.transpose()),
                             Matrix.stack_rows([a.transpose(), a.transpose()]))
    ab, ab_again, ab_left, ab_right = (_packed_product(a, b) for _ in range(4))
    u, u_inv = unit_upper(f, m)
    one = _packed_product(u, u_inv)
    residents = [ab, ab_again, ab_left, ab_right, zero, zero_t, one]
    nonzero = any(any(row) for row in want)
    assert ab == ab_again and ab_again == ab
    assert (zero == zero_t) == (m == q)
    assert zero.is_zero() and zero_t.is_zero() and ab.is_zero() == (not nonzero)
    assert not ab.is_identity() or want == _ref_identity(f, m)
    assert one.is_identity() and one == Matrix.identity(f, m)
    assert Matrix.identity(f, m) == one
    # as the right operand it hands over its row ints, as the left its residues
    assert _packed_product(d, ab_right) == _dict_product(d, dict_ab)
    assert _packed_product(ab_left, c) == _dict_product(dict_ab, c)
    assert all(map(is_resident, residents))
    # against dict rows, == compares rows
    assert ab == dict_ab and _dict_product(a, b) == ab
    assert (ab == zero) == (zero == ab) == (not nonzero)
    assert zero_t == Matrix.zero(f, q, m)
    assert (one == ab) == (want == _ref_identity(f, m))
    assert hash(ab) == hash(dict_ab) and hash(zero) == hash(Matrix.zero(f, m, q))
    for product in residents:
        assert_sparse_invariants(product)
    assert ab.sparse_rows() == dict_ab.sparse_rows() and ab_left.rows == want
    assert ab_right.rows == want and zero_t.rows == ((f.zero,) * m,) * q
    assert zero.sparse_rows() == ({},) * m


# GF(2^24 - 3) packs in 64-bit slots, and GF(2^31 - 1) has no slot
RREF_FIELDS = [GF(2), GF(3), GF(101), GF(2**24 - 3), GF(2**31 - 1)]


@st.composite
def packed_rref_case(draw):
    """A GF(p) operand up to 24 x 24, tall, wide or square: random at one
    density from full to empty, so the eliminations fall on both sides of
    the cost rule, or a product through an inner dimension below both
    sides, so it is rank-deficient.  Half the nonzero entries are p - 1,
    so raw slots climb towards their bound, and empty rows and columns
    are common at the low densities."""
    field = draw(st.sampled_from(RREF_FIELDS))
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    density = draw(st.sampled_from([1, 0.5, 0.25, 0.125, 1 / 32, 0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()) and min(m, n) > 1:
        k = draw(st.integers(1, min(m, n) - 1))
        a = random_operand(rng, field, m, k, density) @ random_operand(rng, field, k, n, 1)
    else:
        a = random_operand(rng, field, m, n, density)
    return a


def assert_packed_rref_agrees(a):
    """``a.rref()`` equals the dense reference, and so do the dict loop and,
    wherever the prime's slot holds the elimination's sums, the packed path
    forced on ``a``."""
    f, (m, n) = a.field, a.shape
    r, pivots = a.rref()
    want, want_pivots = _ref_rref(f, a.rows, n)
    assert_matches(r, want, (m, n))
    assert pivots == want_pivots
    expected = (list(r.sparse_rows()), pivots)
    assert _sparse_rref(a.sparse_rows(), f)[:2] == expected
    if _fits(f, min(m, n) + 1) is None:
        assert f.p == 2**31 - 1
        return
    assert _packed_rref(a) == expected


@given(packed_rref_case())
@settings(max_examples=150, deadline=None)
def test_packed_rref_matches_the_dict_loop_and_the_reference(a):
    assert_packed_rref_agrees(a)


def test_packed_rref_meets_its_slot_bound_and_empty_shapes():
    """``L @ U`` with L lower triangular of ones and U upper triangular
    with p - 1 above its unit diagonal: at every pivot each other row reads
    1 and the scaled pivot row holds p - 1, so each step adds (p - 1)**2 and
    the last row's slots climb to about 90% of ``(min(m, n) + 1) * (p -
    1)**2``.  Then operands whose every entry is p - 1, full rank or of
    rank one, and operands with no rows, no columns or only zeros."""
    rng = random.Random(19)
    for field in RREF_FIELDS:
        top = field.p - 1
        n = 24
        lower = Matrix.from_rows(field, [[1 if j <= i else 0 for j in range(n)]
                                         for i in range(n)])
        upper = Matrix.from_rows(field, [[1 if j == i else top if j > i else 0
                                          for j in range(n)] for i in range(n)])
        assert_packed_rref_agrees(lower @ upper)
        for m, n in [(3, 3), (2, 3), (3, 2), (16, 16), (24, 8), (8, 24)]:
            assert_packed_rref_agrees(Matrix.from_rows(field, [[top] * n] * m))
            # p - 1 on the diagonal and above, random below: full rank
            rows = [[top if j >= i else rng.randrange(field.p) for j in range(n)]
                    for i in range(m)]
            assert_packed_rref_agrees(Matrix.from_rows(field, rows))
        for m, n in [(0, 3), (3, 0), (0, 0), (3, 5)]:
            zero = Matrix.zero(field, m, n)
            assert zero.rref() == (zero, [])
            if _slot(field.p) is not None:
                assert _packed_rref(zero) == ([{}] * m, [])


def test_a_raw_multiple_of_p_is_no_pivot_on_packed_rows():
    """The matrix of ``test_a_raw_multiple_of_p_is_no_pivot`` forced through
    the packed path: after the two pivot steps ``row += (p - a) * pivot``
    slot (2, 2) holds 2 + 1*2 + 2*1 = 6, nonzero as an int and zero mod 3,
    so column 2 has no pivot here either."""
    f = GF(3)
    m = Matrix.from_rows(f, [[1, 0, 2], [0, 1, 1], [2, 1, 2]])
    rows, pivots = _packed_rref(m)
    assert rows == [{0: 1, 2: 2}, {1: 1, 2: 1}, {}]
    assert pivots == [0, 1]


@st.composite
def packed_operand_case(draw):
    """A GF(p) product a @ b, m x n through an inner dimension k, each up to
    12, over a prime whose slot holds the sums of the product and of its
    elimination."""
    field = draw(st.sampled_from([f for f in RREF_FIELDS if _slot(f.p) is not None]))
    m, n, k = (draw(st.integers(1, 12)) for _ in range(3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = random_operand(rng, field, m, k, draw(st.sampled_from([1, 0.5, 0.125, 0])))
    b = random_operand(rng, field, k, n, 1)
    return a, b


@given(packed_operand_case())
@settings(max_examples=150, deadline=None)
def test_packed_rref_takes_the_products_packed_rows(case):
    """A packed product eliminated on packed rows is cut from its int: the
    one ``_unpack_rows`` call is the one that unpacks the result, and the
    product keeps no row dicts.  Its rows and pivots equal
    ``_sparse_rref``'s and the dense reference's, and so do those of a dict
    operand whose packed rows are kept, which the elimination leaves as
    they were."""
    a, b = case
    f, (m, n) = a.field, (a.nrows, b.ncols)
    product = _packed_product(a, b)
    dict_ab = Matrix.from_sparse_rows(
        f, _sparse_product(a.sparse_rows(), b.sparse_rows(), f.normalise), n)
    expected = _sparse_rref(dict_ab.sparse_rows(), f)[:2]
    want, want_pivots = _ref_rref(f, dict_ab.rows, n)
    assert expected[1] == want_pivots
    assert_matches(Matrix.from_sparse_rows(f, expected[0], n), want, (m, n))
    unpacked, real = [], linalg._unpack_rows

    def spy(*args):
        unpacked.append(args[2])
        return real(*args)

    linalg._unpack_rows = spy
    try:
        got = _packed_rref(product)
        if _rref_slot(product):
            r, pivots = product.rref()
            assert (list(r.sparse_rows()), pivots) == expected
    finally:
        linalg._unpack_rows = real
    assert got == expected
    assert is_resident(product)
    assert all(rows == len(want_pivots) for rows in unpacked), unpacked
    kept = Matrix.from_sparse_rows(f, dict_ab.sparse_rows(), n)
    rows = linalg._packed_rows(kept)
    before = list(rows)
    assert _packed_rref(kept) == expected
    assert kept._prows == before and kept._prows is rows


def operand_with(rng, field, m, n, nnz):
    """An m x n GF(p) operand with exactly ``nnz`` nonzero entries."""
    rows = [{} for _ in range(m)]
    for k in rng.sample(range(m * n), nnz):
        rows[k // n][k % n] = rng.randrange(1, field.p)
    return Matrix.from_sparse_rows(field, rows, n)


def test_the_cost_rule_sends_each_elimination_down_its_path(monkeypatch):
    """Each elimination runs the path ``_rref_slot`` names and equals the
    dense reference: dense GF(p) operands with a slot pack, and so do
    operands just above the density the rule asks for; operands at that
    density or below, over QQ, or over a prime too large for a slot take
    the dict loop."""
    taken = []
    for name in ("_sparse_rref", "_packed_rref"):
        def spy(*args, real=getattr(linalg, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(linalg, name, spy)
    rng = random.Random(19)
    cases = [
        # (field, m, n, nonzeros, path); the rule packs when
        # nnz * max(12, min(m, n, 128)) > 4 * m * n
        (GF(101), 64, 64, 64 * 64, "_packed_rref"),
        (GF(2), 64, 64, 64 * 64, "_packed_rref"),
        (GF(101), 256, 64, 1025, "_packed_rref"),
        (GF(101), 256, 64, 1024, "_sparse_rref"),
        (GF(101), 16, 1024, 4097, "_packed_rref"),
        (GF(101), 16, 1024, 4096, "_sparse_rref"),
        (GF(101), 8, 8, 22, "_packed_rref"),
        (GF(101), 8, 8, 21, "_sparse_rref"),
        (GF(101), 64, 64, 128, "_sparse_rref"),
        (GF(2**24 - 3), 3, 8, 24, "_packed_rref"),
        (GF(2**31 - 1), 3, 8, 24, "_sparse_rref"),
        (GF(2**61 - 1), 16, 16, 256, "_sparse_rref"),
    ]
    # above min(m, n) = 128 the density must pass 1/32; these are only
    # classified, their dict-loop eliminations would take too long here
    assert _rref_slot(operand_with(rng, GF(101), 512, 256, 4097))
    assert not _rref_slot(operand_with(rng, GF(101), 512, 256, 4096))
    for field, m, n, nnz, path in cases:
        a = operand_with(rng, field, m, n, nnz)
        assert _rref_slot(a) == (path == "_packed_rref")
        taken.clear()
        r, pivots = a.rref()
        assert taken == [path], (field, m, n, nnz)
        if m * n <= 64 * 64:
            want, want_pivots = _ref_rref(field, a.rows, n)
            assert_matches(r, want, (m, n))
            assert pivots == want_pivots
    qq = Matrix.from_rows(QQ, [[i + j for j in range(8)] for i in range(8)])
    taken.clear()
    assert qq.rank() == 2
    assert taken == ["_sparse_rref"]


def test_kron_with_an_identity_factor_matches_the_reference():
    """``I (x) X``, ``X (x) I`` and ``I (x) I`` only move entries, an empty
    identity included; over QQ a product of Fractions that is integral is
    stored as an int, and every result holds no zero."""
    rng = random.Random(19)
    q_values = [1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)]
    for f in (QQ, GF(2), GF(101)):
        for m, n in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            if f is QQ:
                rows = [[rng.choice(q_values + [0]) for _ in range(n)] for _ in range(m)]
            else:
                rows = [[rng.randrange(f.p) for _ in range(n)] for _ in range(m)]
            x = Matrix.from_rows(f, rows)
            for k in (0, 1, 3):
                eye = Matrix.identity(f, k)
                ref_eye = _ref_identity(f, k)
                assert_matches(eye.kron(x), _ref_kron(f, ref_eye, x.rows), (k * m, k * n))
                assert_matches(x.kron(eye), _ref_kron(f, x.rows, ref_eye), (m * k, n * k))
                assert_matches(eye.kron(eye), _ref_identity(f, k * k), (k * k, k * k))
                assert_matches(x.kron(x), _ref_kron(f, x.rows, x.rows), (m * m, n * n))
            # the first block of I (x) X is X's own rows
            shared = Matrix.identity(f, 2).kron(x).sparse_rows()
            assert all(r is s for r, s in zip(shared, x.sparse_rows()))
    halves = Matrix.from_rows(QQ, [[Fraction(1, 2), Fraction(2, 3)]])
    doubles = Matrix.from_rows(QQ, [[2, Fraction(3, 2)], [Fraction(3, 4), 0]])
    k = halves.kron(doubles)
    assert_matches(k, _ref_kron(QQ, halves.rows, doubles.rows), (2, 4))
    assert k.sparse_rows()[0] == {0: 1, 1: Fraction(3, 4), 2: Fraction(4, 3), 3: 1}
    assert all(type(v) is int for v in (k.entry(0, 0), k.entry(0, 3)))


def kron_operands(rng, f):
    """Builders of ``kron`` operands over f: random ones, an identity built
    from its rows and so not flagged, 0-row and 0-column ones, over QQ one
    with integral ``Fraction`` entries (stored as ints, flagged False) and
    over GF(101) packed products (``_packed_product``), built afresh per
    call so that each reaches ``kron`` packed."""
    if f is QQ:
        values = [1, -2, 3, Fraction(1, 2), Fraction(-2, 3), 0, 0]
        rows = [[rng.choice(values) for _ in range(3)] for _ in range(2)]
    else:
        rows = [[rng.randrange(f.p) for _ in range(3)] for _ in range(2)]
    builders = [lambda: Matrix.from_rows(f, rows),
                lambda: Matrix.from_rows(f, [[int(i == j) for j in range(3)] for i in range(3)]),
                lambda: Matrix.zero(f, 0, 2), lambda: Matrix.zero(f, 2, 0)]
    if f is QQ:
        builders.append(lambda: Matrix(QQ, [[Fraction(4, 2), 0], [Fraction(-9, 3), 1]]))
    if f.name == "GF(101)":
        a, b = random_operand(rng, f, 3, 4, 1), random_operand(rng, f, 4, 5, 0.5)
        builders.append(lambda: _packed_product(a, b))
    return builders


def test_kron_is_the_g_product_of_its_factors():
    """``kron`` equals the dense reference on every pair of operands of
    ``kron_operands``, either side; all-int operands give a result stored
    and flagged int, except that ``I (x) X`` keeps X's flag; and every
    result but ``I (x) X`` has one shared empty row dict."""
    rng = random.Random(31)
    for f in (QQ, GF(2), GF(101)):
        builders = kron_operands(rng, f)
        for make_a, make_b in itertools.product(builders, repeat=2):
            a, b = make_a(), make_b()
            (m, n), (p, q) = a.shape, b.shape
            want = _ref_kron(f, make_a().rows, make_b().rows)
            k = a.kron(b)
            assert_matches(k, want, (m * p, n * q))
            if a.is_identity() and not b.is_identity():
                continue
            assert len({id(r) for r in k.sparse_rows() if not r}) <= 1
            if all(type(v) is int for x in (a, b) for r in x.sparse_rows() for v in r.values()):
                assert k._ints is True


def test_x_kron_y_builds_its_rows_with_one_g_rows_call(monkeypatch):
    """``kron`` has no arithmetic of its own: ``X (x) Y`` is one
    ``_g_rows`` call."""
    calls = []
    real = linalg._g_rows

    def watched(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_g_rows", watched)
    x, y = (Matrix.from_rows(QQ, [[1, Fraction(1, 2)], [0, 3]]) for _ in range(2))
    assert x.kron(y) == Matrix.from_rows(QQ, _ref_kron(QQ, x.rows, y.rows))
    assert len(calls) == 1


@pytest.mark.parametrize("order", [(1, 1), (0, 2), (0,), (0, 1, 2), (-1, 0)])
def test_an_order_that_is_no_permutation_is_refused(order):
    """``leg_permutation([2, 2], (1, 1))`` once gave [0, 1, 1, 2], so a row
    or column was silently duplicated; every consumer of an order refuses
    one that does not list each leg exactly once."""
    mat = Matrix.identity(QQ, 4)
    for build in (lambda: leg_permutation([2, 2], order),
                  lambda: permute_rows(mat, [2, 2], order),
                  lambda: permute_cols(mat, [2, 2], order),
                  lambda: mixed_permutation(QQ, [2, 2], order),
                  lambda: kron_apply(QQ, [None, None], [2, 2], order, [None, None])):
        with pytest.raises(ShapeMismatch, match="not a permutation"):
            build()


# ``Matrix.solve`` and ``rank`` read a matrix whose every column c has a unit
# row (a row equal to e_c) off those rows, with no elimination: the
# injections the engine corestricts through are echelon inclusions,
# identities and their Kronecker products, all of which have them.  The
# elimination body they replace is kept here as the reference.

def solve_by_elimination(a, rhs):
    """``Matrix.solve`` by elimination alone: a tall system is cut to the
    row basis P that ``a.transpose().rref()`` picks, and the canonical
    solution, free variables zero, is read off the rref of ``[a | rhs]``."""
    f = a.field
    if a.nrows > a.ncols:
        _, P = a.transpose().rref()
        rows, rhs_rows = a.sparse_rows(), rhs.sparse_rows()
        X = solve_by_elimination(
            Matrix.from_sparse_rows(f, [rows[i] for i in P], a.ncols),
            Matrix.from_sparse_rows(f, [rhs_rows[i] for i in P], rhs.ncols))
        return X if a @ X == rhs else None
    R, pivots = Matrix.augment(a, rhs).rref()
    n = a.ncols
    if any(p >= n for p in pivots):
        return None
    out = [{} for _ in range(n)]
    for p, row in zip(pivots, R.sparse_rows()):
        out[p] = {k - n: v for k, v in row.items() if k >= n}
    return Matrix.from_sparse_rows(f, out, rhs.ncols)


def echelon_inclusion(rng, field, n, k):
    """The n x k inclusion of a random k-dimensional subspace of an
    n-dimensional space by its reduced echelon basis: basis vector j is 1 at
    its pivot, 0 at the other pivots and random after its pivot, so each
    pivot row is a unit row."""
    pivots = sorted(rng.sample(range(n), k))
    pivset = set(pivots)
    rows = [{} for _ in range(n)]
    for j, p in enumerate(pivots):
        rows[p][j] = field.one
        for i in range(p + 1, n):
            if i not in pivset and rng.random() < 0.5:
                rows[i][j] = field.from_int(rng.randrange(-3, 4))
    return Matrix(field, [[r.get(j, field.zero) for j in range(k)] for r in rows], k)


def permuted_rows(rng, mat):
    rows = list(mat.sparse_rows())
    rng.shuffle(rows)
    return Matrix.from_sparse_rows(mat.field, rows, mat.ncols)


@st.composite
def unit_row_case(draw):
    """An injection with a unit row for every column: an echelon inclusion,
    or its Kronecker product with an identity on either side with its rows
    permuted, optionally with a second unit row for one column; and whether
    it has unit rows.  The variants without are the same matrix with one
    column's unit rows spoiled, by a second entry or by a value other than
    1, or with a zero column added."""
    field = draw(st.sampled_from([QQ, GF(101)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 7))
    a = echelon_inclusion(rng, field, n, draw(st.integers(0, n)))
    shape = draw(st.sampled_from(["plain", "id (x) a", "a (x) id"]))
    if shape != "plain":
        ident = Matrix.identity(field, draw(st.integers(1, 3)))
        a = permuted_rows(rng, ident.kron(a) if shape == "id (x) a" else a.kron(ident))
    rows = list(a.sparse_rows())
    if a.ncols and draw(st.booleans()):
        rows.insert(rng.randrange(len(rows) + 1), {rng.randrange(a.ncols): field.one})
    variant = draw(st.sampled_from(["unit rows", "two entries", "not 1", "zero column"]))
    ncols = a.ncols
    if variant == "zero column":
        ncols += 1
    elif variant != "unit rows" and ncols:
        c = rng.randrange(ncols)
        units = [i for i, r in enumerate(rows) if r == {c: field.one}]
        for i in units:
            if variant == "not 1":
                rows[i] = {c: field.from_int(2)}
            elif ncols > 1:
                rows[i] = {c: field.one, (c + 1) % ncols: field.one}
            else:
                rows[i] = {}
    else:
        variant = "unit rows"
    a = Matrix.from_sparse_rows(field, rows, ncols)
    width = draw(st.integers(1, 3))
    X = Matrix(field, [[field.from_int(rng.randrange(-3, 4)) for _ in range(width)]
                       for _ in range(ncols)], width) if ncols else Matrix.zero(field, 0, width)
    return a, variant == "unit rows", X, rng


@given(unit_row_case())
@settings(max_examples=300, deadline=None)
def test_unit_row_solves_and_ranks_match_elimination(case):
    """Over QQ and GF(101), ``solve`` and ``rank`` give what elimination
    gives, with and without unit rows; a consistent right-hand side is
    solved, and one changed in a row off the unit rows returns None."""
    a, has_units, X, rng = case
    f = a.field
    assert (a.unit_rows() is not None) == has_units
    assert a.rank() == len(a.rref()[1])
    if has_units:
        assert a.rank() == a.ncols
        P = a.unit_rows()
        assert Matrix.from_sparse_rows(f, [a.sparse_rows()[i] for i in P], a.ncols) \
            == Matrix.identity(f, a.ncols)
    consistent = a @ X
    assert a.solve(consistent) == solve_by_elimination(a, consistent)
    if has_units:
        assert a.solve(consistent) == X
    assert a.solve(consistent) is not None
    rhs_rows = [dict(r) for r in consistent.sparse_rows()]
    P = set(a.unit_rows() or ())
    off = [i for i in range(a.nrows) if i not in P]
    if has_units and off:
        i = rng.choice(off)
        rhs_rows[i][0] = f.add(rhs_rows[i].get(0, f.zero), f.one)
        if f.is_zero(rhs_rows[i][0]):
            del rhs_rows[i][0]
        inconsistent = Matrix.from_sparse_rows(f, rhs_rows, X.ncols)
        assert a.solve(inconsistent) is None
        assert solve_by_elimination(a, inconsistent) is None
    arbitrary = Matrix(f, [[f.from_int(rng.randrange(-3, 4)) for _ in range(X.ncols)]
                           for _ in range(a.nrows)], X.ncols) if a.nrows \
        else Matrix.zero(f, 0, X.ncols)
    assert a.solve(arbitrary) == solve_by_elimination(a, arbitrary)


def test_unit_row_solves_and_ranks_eliminate_nothing(monkeypatch):
    """On matrices with unit rows, ``solve`` and ``rank`` make no ``rref``
    call; with one column's unit row spoiled, both eliminate again."""
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append(self.shape)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    rng = random.Random(23)
    for field in (QQ, GF(101)):
        calls.clear()
        incl = echelon_inclusion(rng, field, 6, 3)
        for a in (incl, permuted_rows(rng, incl.kron(Matrix.identity(field, 2))),
                  Matrix.identity(field, 4), Matrix.zero(field, 3, 0)):
            rhs = a @ Matrix(field, [[field.from_int(j - i) for j in range(2)]
                                     for i in range(a.ncols)], 2) if a.ncols \
                else Matrix.zero(field, a.nrows, 2)
            assert a.solve(rhs) is not None and a.rank() == a.ncols
        assert not calls
        two = field.from_int(2)
        spoiled = Matrix.from_sparse_rows(field, [{0: two} if r == {0: field.one} else r
                                                  for r in incl.sparse_rows()], incl.ncols)
        assert spoiled.rank() == 3 and calls


def test_a_tall_solve_without_unit_rows_eliminates_once(monkeypatch):
    """A tall system with no unit rows is solved by one rref of
    ``[a | rhs]``, consistent or not, and agrees with the reference that
    first cuts it to a row basis."""
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append(self.shape)
        return rref(self)

    for field in (QQ, GF(101)):
        a = Matrix.from_rows(field, [[1, 2], [3, 4], [5, 6], [2, 2]])
        assert a.unit_rows() is None
        consistent = a @ Matrix.from_rows(field, [[1, 0], [2, 1]])
        inconsistent = Matrix.from_rows(field, [[1], [0], [0], [0]])
        for rhs in (consistent, inconsistent):
            want = solve_by_elimination(a, rhs)
            calls.clear()
            monkeypatch.setattr(Matrix, "rref", counted)
            got = a.solve(rhs)
            monkeypatch.setattr(Matrix, "rref", rref)
            assert got == want and calls == [(4, 2 + rhs.ncols)]
        assert a.solve(consistent) == Matrix.from_rows(field, [[1, 0], [2, 1]])


def random_kron_case(rng):
    """A GF(p) ``kron_apply`` case: 1-3 legs of dimension 0-6, an order or
    none, G factors over runs of the legs (``None`` on one leg, or a matrix
    of 0-4 columns) and F factors over the reordered legs (``None`` or a
    matrix of 1-6 rows).  Three cases in four are dense: every G matrix is
    dense, and so is the last F factor, with at least two rows, so that
    its stage often passes the cost rule; the others draw each matrix dense
    or sparse.  Half of the nonzero entries are p - 1, so that raw products
    reach their bound, and the primes run from GF(2) to two whose stages
    have no slot."""
    field = rng.choice(RESIDENT_FIELDS)
    dense = rng.random() < 0.75
    dims = [rng.randint(0, 6) if rng.random() < 0.2 else rng.randint(2, 6)
            for _ in range(rng.randint(1, 3))]
    order = None if rng.random() < 0.3 else tuple(rng.sample(range(len(dims)), len(dims)))

    def factors(legs, side):
        out, sizes, pos = [], [], 0
        while pos < len(legs):
            end = rng.randint(pos + 1, len(legs))
            size = math.prod(legs[pos:end])
            full = dense and (side == "rows" or end == len(legs))
            if end == pos + 1 and not (side == "cols" and full) and rng.random() < 0.3:
                out.append(None)
            else:
                shape = ((size, rng.randint(1 if full else 0, 4)) if side == "rows"
                         else (rng.randint(2 if full else 1, 6), size))
                out.append(random_operand(rng, field, *shape,
                                          1 if full or rng.random() < 0.5 else 0.3))
            sizes.append(size)
            pos = end
        return out, sizes

    right, rsizes = factors(dims, "rows")
    left, lsizes = factors(dims if order is None else [dims[leg] for leg in order], "cols")
    return field, dims, order, left, lsizes, right, rsizes


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_the_packed_g_product_matches_the_references(seed):
    """``kron_apply`` over GF(p), its G product packed or not, equals the
    per-column reference and the dense ``kron``/``mixed_permutation``
    product, in stored form and with a true ``_ints`` flag."""
    field, dims, order, left, lsizes, right, rsizes = random_kron_case(random.Random(seed))
    got = kron_apply(field, left, dims, order, right)
    assert_sparse_invariants(got)
    assert_flag_holds(got)
    assert got == kron_apply_per_column(field, left, dims, order, right)
    perm = mixed_permutation(field, dims, range(len(dims)) if order is None else order)
    assert got == _dense_kron(field, left, lsizes) @ perm @ _dense_kron(field, right, rsizes)


def test_a_packed_first_stage_gets_a_packed_g_product(monkeypatch):
    """Over 300 cases of ``random_kron_case`` the G product is built packed
    in at least a quarter (98 at the time of writing), each time its first stage takes the packed
    product, and then no G-product row dict is built: ``_g_rows`` is not
    called and the packed G product is never unpacked.  Every other case
    builds it once with ``_g_rows``, or not at all when it is the one G
    factor and one F factor takes it whole."""
    built, dict_built, packed_products = [], [], []

    def spy(name, log):
        real = getattr(linalg, name)

        def watched(*args):
            out = real(*args)
            log.append(out)
            return out
        monkeypatch.setattr(linalg, name, watched)

    spy("_packed_g_product", built)
    spy("_g_rows", dict_built)
    spy("_packed_product", packed_products)
    taken = 0
    for seed in range(300):
        field, dims, order, left, _, right, _ = random_kron_case(random.Random(seed))
        built.clear()
        dict_built.clear()
        packed_products.clear()
        got = kron_apply(field, left, dims, order, right)
        if built:
            taken += 1
            assert not dict_built and packed_products and is_resident(built[0]), seed
        else:
            assert len(dict_built) <= 1, seed
        assert got == kron_apply_per_column(field, left, dims, order, right)
    assert 4 * taken >= 300, taken


def test_a_g_product_past_its_stage_slot_is_reduced_before_a_third_factor(monkeypatch):
    """Over GF(2^24 - 3) three G factors give raw triple products up to
    (p - 1)**3, past 2**71 and so past the 64-bit slot: the G product is
    still built packed (``_g_slots`` says so), its rows reduced before the
    third factor, and equals the per-column reference in both orders; so
    does a product of two factors."""
    field, rng = GF(2**24 - 3), random.Random(5)
    assert (field.p - 1) ** 3 >> _slot(field.p)[0]
    packs = []
    real = linalg._g_slots

    def watched(*args):
        out = real(*args)
        packs.append(out)
        return out

    monkeypatch.setattr(linalg, "_g_slots", watched)
    for right in ([random_operand(rng, field, 4, 2, 1) for _ in range(3)],
                  [random_operand(rng, field, 16, 3, 1), None]):
        left = [None, None, random_operand(rng, field, 5, 4, 1)]
        for order in (None, (2, 0, 1)):
            packs.clear()
            got = kron_apply(field, left, [4, 4, 4], order, right)
            assert packs == [True]
            assert_sparse_invariants(got)
            assert got == kron_apply_per_column(field, left, [4, 4, 4], order, right)
