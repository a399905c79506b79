import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit.algebra import corestrict_through
from torsorkit.errors import AmbientMismatch
from torsorkit.fields import GF, QQ
from torsorkit.linalg import Matrix, complement_rows
from torsorkit.spaces import (
    LinearMap,
    Space,
    Subspace,
    _kernel,
    intersect,
    invert,
    kernel,
    quotient,
    tensor_space,
)

from test_linalg import _ref_kernel, assert_sparse_invariants


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
    assert s1.coordinates(s1.inclusion.matrix).is_identity()
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
    for blocks in ([projector_rows(s) for s in subs],
                   [complement_rows(s.basis, s.pivots) for s in subs]):
        want = Subspace.from_spanning(domain, Matrix.stack_rows(blocks).nullspace())
        assert both == want and both.pivots == want.pivots


def projector_rows(sub):
    """``inclusion @ selection - I``, whose kernel is ``sub``: the rows
    ``intersect`` stacked before it read complement rows, with selection
    the identity's rows at the pivots."""
    f, n = sub.ambient.field, sub.ambient.dim
    selection = Matrix.from_sparse_rows(f, [{p: f.one} for p in sub.pivots], n, True)
    return sub.inclusion.matrix @ selection - Matrix.identity(f, n)


def reduction_rows(sub):
    """The rows ``quotient`` wrote before it read complement rows: the
    identity for a zero span, and otherwise, per free column j, 1 at j and
    minus row j of the inclusion at the pivots."""
    f, n = sub.ambient.field, sub.ambient.dim
    if sub.dim == 0:
        return Matrix.identity(f, n)
    incl = sub.inclusion.matrix
    rows = []
    for j in range(n):
        if j not in sub.pivots:
            row = {j: f.one}
            for bi, c in incl.sparse_rows()[j].items():
                row[sub.pivots[bi]] = f.neg(c)
            rows.append(row)
    return Matrix.from_sparse_rows(f, rows, n, incl._ints)


@st.composite
def spans_case(draw):
    """Two spanning families in one ambient of dimension 0-7 over QQ (with
    ``Fraction`` values), GF(2) or GF(101): each no rows, the identity or
    random rows; the second is as often as not a respanning of the first."""
    field = draw(st.sampled_from([QQ, GF(2), GF(101)]))
    n = draw(st.integers(0, 7))
    values = (st.builds(F, st.integers(-3, 3), st.integers(1, 3)) if field is QQ
              else st.integers(0, field.p - 1))

    def mat(rows, cols):
        return Matrix(field, draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                                           min_size=rows, max_size=rows)), cols)

    def family():
        kind = draw(st.sampled_from(["zero", "full", "random", "random"]))
        if kind == "zero":
            return Matrix.zero(field, 0, n)
        return Matrix.identity(field, n) if kind == "full" else mat(draw(st.integers(1, 5)), n)

    first = family()
    if draw(st.booleans()):
        return field, n, first, family()
    return field, n, first, Matrix.stack_rows([mat(draw(st.integers(0, 3)), first.nrows) @ first,
                                               first])


@given(spans_case())
@settings(max_examples=200, deadline=None)
def test_complement_rows_match_the_old_formulas_and_the_dense_reference(case):
    """``complement_rows`` behind ``nullspace``, ``quotient`` and
    ``intersect`` gives the dense reference's kernel and the results and
    pivots of the formulas it replaced: ``quotient``'s reduction loop,
    with its ``_ints`` flag, and ``intersect``'s stacked
    ``inclusion @ selection - I``."""
    field, n, first, second = case
    V = Space(field, n, "V")
    subs = [Subspace.from_spanning(V, m) for m in (first, second)]
    for m, sub in zip((first, second), subs):
        null = m.nullspace()
        assert null.rows == tuple(_ref_kernel(field, m.rows, n))
        Q, proj, sect = quotient(V, sub)
        want = reduction_rows(sub)
        assert proj.matrix == want and proj.matrix._ints == want._ints
        assert proj.matrix.rows == tuple(_ref_kernel(field, sub.basis.rows, n))
        assert Q.dim == n - sub.dim and (proj @ sect).is_identity()
        assert (proj @ sub.inclusion).is_zero()
        for mat in (null, proj.matrix, sect.matrix, sub.basis):
            assert_sparse_invariants(mat)
    both = intersect(subs)
    old = _kernel(V, Matrix.stack_rows([projector_rows(s) for s in subs]), "old")
    dense = Subspace.from_spanning(V, _ref_kernel(
        field, Matrix.stack_rows([projector_rows(s) for s in subs]).rows, n))
    assert both == old == dense and both.pivots == old.pivots == dense.pivots
    # the complement rows keep their bases' flags, which may say False of
    # ints (a hint only), where the projector product scanned its values
    assert_sparse_invariants(both.basis)
    assert intersect([subs[0], subs[0]]) == subs[0]
    if subs[0] == subs[1]:
        assert both == subs[0]


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
