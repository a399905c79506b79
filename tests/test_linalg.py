import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit.errors import NotInvertible
from torsorkit.fields import GF, QQ
from torsorkit.linalg import (
    Matrix,
    leg_permutation,
    mixed_permutation,
    permute_cols,
    permute_rows,
    permute_tensor_rows,
    sparse_rank_lower_bound,
)

small_entries = st.integers(min_value=-4, max_value=4)


def mat_strategy(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_entries, min_size=n, max_size=n),
                min_size=m, max_size=m)))


@given(mat_strategy())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    m = Matrix.from_rows(QQ, rows)
    assert m.rank() + len(m.kernel_basis()) == m.ncols


@given(mat_strategy())
@settings(max_examples=60, deadline=None)
def test_kernel_killed(rows):
    m = Matrix.from_rows(QQ, rows)
    for v in m.kernel_basis():
        assert all(x == 0 for x in m.apply(v))


@given(mat_strategy())
@settings(max_examples=40, deadline=None)
def test_rref_idempotent_and_paths_agree(rows):
    m = Matrix.from_rows(QQ, rows)
    r1, p1 = m._rref_fraction_free()
    r2, p2 = m._rref_sparse()
    assert p1 == p2 and r1 == r2
    again, pagain = r1.rref()
    assert again == r1 and pagain == p1


@given(mat_strategy(4))
@settings(max_examples=40, deadline=None)
def test_rref_agrees_mod_p(rows):
    mq = Matrix.from_rows(QQ, rows)
    assert sparse_rank_lower_bound(mq, 32003) <= mq.rank()


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


def test_bareiss_keeps_integrality():
    m = Matrix.from_rows(QQ, [[2, 4, 1], [3, 7, 2], [5, 9, 4]])
    r, piv = m._rref_fraction_free()
    assert piv == [0, 1, 2]
    assert (m @ m.inverse()).is_identity()


@st.composite
def leg_permutation_case(draw):
    """Legs of dims 1-4, a random order, a field and a matrix to permute."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    order = draw(st.permutations(range(len(dims))))
    field = draw(st.sampled_from([QQ, GF(101)]))
    total = len(leg_permutation(dims, order))
    other = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(small_entries, min_size=other, max_size=other),
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
