import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit.algebra import corestrict_through
from torsorkit.errors import AmbientMismatch
from torsorkit.fields import GF, QQ
from torsorkit.linalg import Matrix
from torsorkit.spaces import (
    LinearMap,
    Space,
    Subspace,
    intersect,
    invert,
    kernel,
    quotient,
    tensor_space,
)


def test_kernel_examples():
    v3 = Space(QQ, 3, "V3")
    zero = LinearMap.zero(v3, v3)
    assert kernel(zero).dim == 3
    ident = LinearMap.identity(v3)
    assert kernel(ident).dim == 0
    v2, v1 = Space(QQ, 2, "V2"), Space(QQ, 1, "V1")
    f = LinearMap(v2, v1, Matrix.from_rows(QQ, [[1, 1]]))
    k = kernel(f)
    assert k.dim == 1
    assert k.inclusion.matrix.col(0) == (F(1), F(-1))


def test_quotient_examples():
    v4 = Space(QQ, 4, "V4")
    zero_sub = Subspace.from_spanning(v4, [])
    q, proj, sect = quotient(v4, zero_sub)
    assert q.dim == 4 and (proj @ sect).is_identity()
    full = Subspace.from_spanning(v4, [v4.basis_vector(i) for i in range(4)])
    q2, _, _ = quotient(v4, full)
    assert q2.dim == 0
    line = Subspace.from_spanning(v4, [(F(1), F(1), F(0), F(0))])
    q3, proj3, sect3 = quotient(v4, line)
    assert q3.dim == 3
    assert (proj3 @ sect3).is_identity()
    assert kernel(proj3) == line


def test_intersect_examples():
    v2 = Space(QQ, 2, "V2")
    all2 = Subspace.from_spanning(v2, [v2.basis_vector(0), v2.basis_vector(1)])
    assert intersect([all2, all2]) == all2
    l1 = Subspace.from_spanning(v2, [(F(1), F(0))])
    l2 = Subspace.from_spanning(v2, [(F(1), F(1))])
    assert intersect([l1, l2]).dim == 0
    other = Space(QQ, 2, "W")
    lw = Subspace.from_spanning(other, [(F(1), F(0))])
    with pytest.raises(AmbientMismatch):
        intersect([l1, lw])


def test_subspace_canonical_and_retraction():
    v3 = Space(QQ, 3, "V3")
    s1 = Subspace.from_spanning(v3, [(F(1), F(1), F(0)), (F(0), F(0), F(1))])
    s2 = Subspace.from_spanning(v3, [(F(2), F(2), F(2)), (F(0), F(0), F(5))])
    assert s1 == s2
    assert (s1.retraction @ s1.inclusion).is_identity()
    assert s1.contains_vector((F(3), F(3), F(7)))
    assert not s1.contains_vector((F(1), F(0), F(0)))


def test_invert_is_two_sided():
    v2 = Space(QQ, 2, "V2")
    f = LinearMap(v2, v2, Matrix.from_rows(QQ, [[1, 1], [0, 1]]))
    g = invert(f)
    assert (g @ f).is_identity() and (f @ g).is_identity()


def test_corestrict():
    v3 = Space(QQ, 3, "V3")
    s = Subspace.from_spanning(v3, [(F(1), F(0), F(0))])
    inside = LinearMap(Space(QQ, 1, "L"), v3,
                       Matrix.from_rows(QQ, [[2], [0], [0]]))
    co = corestrict_through(s.inclusion, inside, AmbientMismatch, "outside")
    assert (s.inclusion @ co).matrix == inside.matrix
    outside = LinearMap(Space(QQ, 1, "L2"), v3,
                        Matrix.from_rows(QQ, [[0], [1], [0]]))
    with pytest.raises(AmbientMismatch):
        corestrict_through(s.inclusion, outside, AmbientMismatch, "outside")


def test_tensor_space_labels():
    a = Space(QQ, 2, "a", labels=["x", "y"])
    b = Space(QQ, 2, "b", labels=["u", "v"])
    t = tensor_space([a, b])
    assert t.dim == 4
    assert t.labels[1] == "x|v"


@st.composite
def maps_case(draw):
    """Two maps over QQ or GF(p) on one domain, often wide, each of rank
    below both its dimensions as often as not: a product through an inner
    space of dimension 0-4."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    n = draw(st.integers(0, 12))
    values = st.integers(-3, 3) if field is QQ else st.integers(0, field.p - 1)

    def mat(rows, cols):
        return Matrix.from_rows(field, draw(st.lists(
            st.lists(values, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
            cols)

    def linear_map():
        m, k = draw(st.integers(0, 5)), draw(st.integers(0, 4))
        return mat(m, n) if draw(st.booleans()) else mat(m, k) @ mat(k, n)

    return field, n, linear_map(), linear_map()


@given(maps_case())
@settings(max_examples=150, deadline=None)
def test_kernel_and_intersect_match_the_span_of_the_nullspace(case):
    """The kernel read off one elimination of the column-reversed map is the
    subspace ``from_spanning`` makes of the nullspace: the same echelon
    basis, stored alike, and the same pivots; so is an intersection."""
    field, n, first, second = case
    domain = Space(field, n, "D")
    subs = []
    for mat in (first, second):
        sub = kernel(LinearMap(domain, Space(field, mat.nrows), mat))
        want = Subspace.from_spanning(domain, mat.nullspace())
        assert sub == want and sub.pivots == want.pivots
        values = [v for r in sub.inclusion.matrix.sparse_rows() for v in r.values()]
        assert values == [v for r in want.inclusion.matrix.sparse_rows() for v in r.values()]
        assert all(type(v) is int or type(v) is F and v.denominator > 1 for v in values)
        subs.append(sub)
    both = intersect(subs)
    stacked = Matrix.stack_rows([(s.inclusion @ s.retraction).matrix
                                 - Matrix.identity(field, n) for s in subs])
    want = Subspace.from_spanning(domain, stacked.nullspace())
    assert both == want and both.pivots == want.pivots


def test_a_wide_kernel_takes_one_elimination(monkeypatch):
    """The kernel of a rank-4 map from a 1024-dimensional space over QQ is
    read off one ``rref``; re-eliminating its 1,020 nullspace vectors took
    seconds."""
    rng = random.Random(15)
    n = 1024
    mat = Matrix.from_rows(QQ, [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                                for _ in range(4)])
    f = LinearMap(Space(QQ, n, "W"), Space(QQ, 4, "V4"), mat)
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append(self.shape)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    sub = kernel(f)
    assert calls == [(4, n)]
    assert sub.dim == n - 4 and (f @ sub.inclusion).is_zero()
