import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit.algebra import (
    AlgebraMap,
    Bimodule,
    certify_free,
    Algebra,
    Link,
    chain_of_spaces,
    chain_outer_bimodule,
    fix_left,
    fix_right,
    induce,
    make_algebra,
    opposite,
    regular_bimodule,
    single_chain,
    sub_bimodule,
    tensor_chain,
)
from torsorkit.bialgebroid import _opposite_link
from torsorkit.errors import NotAssociative, NotFree, NotUnital, NotWellDefined, ShapeMismatch
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import field_algebra, group_algebra, matrix_algebra, unit_algebra_map
from torsorkit.linalg import Matrix, kron_apply, permute_cols
from torsorkit.spaces import LinearMap, Space, Subspace, tensor_space

from conftest import join_left, join_right


def validated(bim: Bimodule) -> Bimodule:
    """``bim`` built again with its checks on: raises unless its actions
    are unital and associative and commute."""
    return Bimodule(bim.space, bim.left, bim.right, bim.lact, bim.ract)


def is_commutative(A: Algebra) -> bool:
    return A.mult.matrix == permute_cols(A.mult.matrix, [A.dim] * 2, (1, 0))


def enveloping(B: Algebra) -> Algebra:
    """B (x)_k B^op with product (b (x) b')(c (x) c') = bc (x) c'b': legs
    (b, b', c, c') reordered to (b, c, c', b') and multiplied in pairs."""
    n, f = B.dim, B.field
    space = Space(f, n * n, B.name + "^e",
                  [f"{a}(x){b}" for a in B.space.labels for b in B.space.labels])
    mult = kron_apply(f, [B.mult.matrix] * 2, [n] * 4, (0, 2, 3, 1), [None] * 4)
    return Algebra(space, LinearMap(tensor_space([space, space]), space, mult),
                   B.unit_col.kron(B.unit_col), space.name)


def test_make_algebra_validation():
    k = make_algebra(QQ, 1, [(0, 0, 0, 1)], [1], "k")
    assert k.dim == 1
    c2 = group_algebra(QQ, 2, "kC2")
    assert is_commutative(c2)
    # e0 e0 = e1 with e1 absorbing and no unit: both sides fail at e0, and
    # the left side is reported first
    with pytest.raises(NotUnital) as err:
        make_algebra(QQ, 2, [(0, 0, 1, 1)], [1, 0], "bad")
    assert (err.value.index, err.value.side) == (0, "left")
    # (e0 e1)e1 = 0 but e0(e1 e1) = e0: the first failing triple
    with pytest.raises(NotAssociative) as err2:
        make_algebra(QQ, 2,
                     [(0, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1)],
                     [1, 0], "bad2")
    assert err2.value.triple == (0, 1, 1)
    # e0 is a left unit only (e1 e0 = 0), then a right unit only (e0 e1 = 0)
    with pytest.raises(NotUnital) as err3:
        make_algebra(QQ, 2, [(0, 0, 0, 1), (0, 1, 1, 1)], [1, 0], "bad3")
    assert (err3.value.index, err3.value.side) == (1, "right")
    with pytest.raises(NotUnital) as err4:
        make_algebra(QQ, 2, [(0, 0, 0, 1), (1, 0, 1, 1)], [1, 0], "bad4")
    assert (err4.value.index, err4.value.side) == (1, "left")


def test_balanced_tensor_examples():
    k = field_algebra(QQ)
    k_bim = regular_bimodule(k)
    assert tensor_chain([k_bim, k_bim], [k]).dim == 1
    c2 = group_algebra(QQ, 2, "kC2")
    kk = field_algebra(QQ)
    um = unit_algebra_map(kk, c2)
    t_bim = regular_bimodule(c2, um, um)
    chain2 = tensor_chain([t_bim, t_bim], [kk])
    assert chain2.dim == 4
    assert (chain2.proj @ chain2.sect).is_identity()
    m2 = matrix_algebra(QQ)
    m2_bim = regular_bimodule(m2)
    chain3 = tensor_chain([m2_bim, m2_bim], [m2])
    assert chain3.dim == 4
    # M2 (x)_M2 M2 is an M2-M2 bimodule through its edge factors
    outer = validated(chain_outer_bimodule(chain3, m2_bim, m2_bim))
    assert outer.space is chain3.carrier
    assert outer.left is m2 and outer.right is m2


def test_balanced_tensor_over_field_is_plain():
    c2 = group_algebra(QQ, 2, "kC2")
    kk = field_algebra(QQ)
    um = unit_algebra_map(kk, c2)
    t_bim = regular_bimodule(c2, um, um)
    assert tensor_chain([t_bim, t_bim], [kk]).proj.matrix.is_identity()


def test_iterated_tensors_share_one_carrier():
    m2 = matrix_algebra(QQ)
    bim = regular_bimodule(m2)
    flat = tensor_chain([bim, bim, bim], [m2, m2])
    assert tensor_chain([bim, bim, bim], [m2, m2]).carrier is flat.carrier
    assert flat.dim == 4
    # bracketing through the outer bimodule of a pair gives the same size
    pair = tensor_chain([bim, bim], [m2])
    outer = validated(chain_outer_bimodule(pair, bim, bim))
    assert tensor_chain([outer, bim], [m2]).dim == 4
    assert tensor_chain([bim, outer], [m2]).dim == 4


def test_a_link_that_does_not_descend_through_the_prefix_raises():
    """On M (x)_M2 M (x) M, the regular M2 bimodule thrice, a second link
    from leg 0 to leg 2 is read on the prefix M (x)_M2 M, where right
    multiplication on leg 0 does not descend: x.s (x) y and x (x) s.y are
    equal there, but x.s.r (x) y and x.r (x) s.y need not be.  The step
    raises with a relation of the prefix the action does not kill.  The same
    link over k, through the unit map, descends and adds no relation."""
    m2 = matrix_algebra(QQ)
    M = regular_bimodule(m2)
    spaces = [M.space] * 3
    adjacent = Link(0, 1, m2, M.ract, M.lact)
    with pytest.raises(NotWellDefined) as err:
        chain_of_spaces(spaces, [adjacent, Link(0, 2, m2, M.ract, M.lact)])
    prefix = chain_of_spaces(spaces[:2], [adjacent])
    witness = Matrix.from_cols(QQ, [err.value.witness], prefix.ambient.dim)
    assert not witness.is_zero() and (prefix.proj.matrix @ witness).is_zero()
    kk = field_algebra(QQ)
    um = unit_algebra_map(kk, m2)
    Mk = regular_bimodule(m2, um, um)
    chain = chain_of_spaces(spaces, [adjacent, Link(0, 2, kk, Mk.ract, Mk.lact)])
    assert (chain.dim, chain.ambient.dim) == (16, 64)
    plain = chain_of_spaces(spaces, [adjacent])
    assert chain.proj.matrix == plain.proj.matrix
    assert chain.sect.matrix == plain.sect.matrix
    assert chain.carrier.labels == plain.carrier.labels


def _mult_on_square(m2):
    """M2 (x)_M2 M2, its multiplication as a raw map and the plain chain
    on M2 it lands in."""
    chain = tensor_chain([regular_bimodule(m2)] * 2, [m2])
    return chain, m2.mult.matrix, single_chain(m2.space)


def test_induce_well_defined_and_not():
    m2 = matrix_algebra(QQ)
    chain, mu, cod = _mult_on_square(m2)
    induced = induce(chain, mu, cod)
    assert induced.domain is chain.carrier and induced.codomain is m2.space
    # multiplication after the swap is not balanced over a matrix algebra
    n = m2.dim
    perm_cols = []
    for i in range(n):
        for j in range(n):
            v = [QQ.zero] * (n * n)
            v[j * n + i] = QQ.one
            perm_cols.append(tuple(v))
    swap = Matrix.from_cols(QQ, perm_cols, n * n)
    with pytest.raises(NotWellDefined) as err:
        induce(chain, mu @ swap, cod)
    assert err.value.witness is not None
    # a raw map on the wrong number of ambient columns
    with pytest.raises(ShapeMismatch):
        induce(chain, Matrix.identity(QQ, n), cod)


def test_certify_free_examples():
    m2 = matrix_algebra(QQ)
    cert = certify_free(regular_bimodule(m2), "right")
    assert cert.rank == 1
    c2 = group_algebra(QQ, 2, "kC2")
    kk = field_algebra(QQ)
    um = unit_algebra_map(kk, c2)
    cert2 = certify_free(regular_bimodule(c2, um, um), "left")
    assert cert2.rank == 2
    k_bim = regular_bimodule(kk)
    assert certify_free(k_bim, "right").rank == 1
    # dimension obstruction: the sign representation of the order-two group
    # algebra on a one-dimensional space cannot be free
    from torsorkit.algebra import Bimodule
    from torsorkit.spaces import Space
    one = Space(QQ, 1, "sgn")
    lact = LinearMap(tensor_space([c2.space, one]), one,
                     Matrix.from_rows(QQ, [[1, -1]]))
    ract = LinearMap(tensor_space([one, kk.space]), one,
                     Matrix.from_rows(QQ, [[1]]))
    sgn = Bimodule(one, c2, kk, lact, ract)
    with pytest.raises(NotFree):
        certify_free(sgn, "left")


def test_enveloping_examples():
    kk = field_algebra(QQ)
    assert enveloping(kk).dim == 1
    c2 = group_algebra(QQ, 2, "kC2")
    env = enveloping(c2)
    assert env.dim == 4 and is_commutative(env)
    m2 = matrix_algebra(QQ)
    env2 = enveloping(m2)
    assert env2.dim == 16
    assert not is_commutative(env2)


def test_opposite():
    m2 = matrix_algebra(QQ)
    op = opposite(m2)
    e01 = m2.space.basis_vector(1)
    e10 = m2.space.basis_vector(2)
    assert op.mult.matrix.apply_pair(e01, e10) == m2.mult.matrix.apply_pair(e10, e01)


def test_algebra_map_validation():
    c2 = group_algebra(QQ, 2, "kC2")
    kk = field_algebra(QQ)
    um = unit_algebra_map(kk, c2)
    assert um.is_injective()
    from torsorkit.errors import NotHomomorphism
    bad = LinearMap.from_columns(kk.space, c2.space, [(F(0), F(1))])
    with pytest.raises(NotHomomorphism):
        AlgebraMap(kk, c2, bad)


def test_induced_map_composes_with_projection():
    # the induced map followed by the projection recovers the raw map
    chain, mu, cod = _mult_on_square(matrix_algebra(QQ))
    assert (induce(chain, mu, cod) @ chain.proj).matrix == mu


# (ring dim, module dim) pairs: unequal, with one-dimensional legs on
# either side, so a swapped pair of column legs changes the matrix
LEG_DIMS = [(1, 3), (3, 1), (2, 3), (3, 2), (2, 4), (1, 1)]
SMALL = st.integers(-3, 3)


def _basis(field, n):
    return [tuple(field.one if j == i else field.zero for j in range(n)) for i in range(n)]


@given(st.sampled_from([QQ, GF(101)]), st.sampled_from(LEG_DIMS), st.data())
@settings(max_examples=40, deadline=None)
def test_action_helpers_agree_with_apply_pair(field, dims, data):
    """``fix_left``/``fix_right`` read back, at each ring basis vector
    e_r, the map ``maps[r]`` that ``join_left``/``join_right`` put there: the
    tests' action layout is the engine's.  Each helper agrees column by
    column with ``apply_pair`` on basis vectors."""
    k, m = dims

    def draw_matrix(rows, cols):
        return Matrix(field, data.draw(st.lists(st.lists(SMALL, min_size=cols, max_size=cols),
                                                min_size=rows, max_size=rows)), cols)

    maps = [draw_matrix(m, m) for _ in range(k)]
    ring, module = _basis(field, k), _basis(field, m)
    lact, ract = join_left(maps), join_right(maps)
    assert lact.shape == ract.shape == (m, k * m)
    for r, mi in zip(ring, maps):
        assert fix_left(lact, Matrix.from_cols(field, [r]), m) == mi
        assert fix_right(ract, m, Matrix.from_cols(field, [r])) == mi
        for j, x in enumerate(module):
            assert lact.apply_pair(r, x) == mi.col(j) == ract.apply_pair(x, r)
    u = tuple(field.parse(a) for a in data.draw(st.lists(SMALL, min_size=k, max_size=k)))
    left_bilinear, right_bilinear = draw_matrix(m, k * m), draw_matrix(m, m * k)
    u_col = Matrix.from_cols(field, [u])
    for j, x in enumerate(module):
        assert fix_left(left_bilinear, u_col, m).col(j) == left_bilinear.apply_pair(u, x)
        assert fix_right(right_bilinear, m, u_col).col(j) == right_bilinear.apply_pair(x, u)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_actions_through_algebra_maps_agree_with_apply_pair(field):
    """``regular_bimodule`` through two different embeddings of kC2 in M2,
    and the A^op-link of ``monoidal_product`` on those bimodules, over a base
    of dimension 2 acting on a module of dimension 4."""
    T = matrix_algebra(field)
    c2 = group_algebra(field, 2, "kC2")

    def embed(g):
        cols = [T.unit, tuple(field.parse(x) for x in g)]
        return AlgebraMap(c2, T, LinearMap.from_columns(c2.space, T.space, cols))

    swap, sign = embed([0, 1, 1, 0]), embed([1, 0, 0, -1])
    M, Mp = regular_bimodule(T, swap, sign), regular_bimodule(T, sign, swap)
    link = _opposite_link(opposite(c2), M, Mp)
    for a in _basis(field, c2.dim):
        for x in _basis(field, T.dim):
            assert M.lact.matrix.apply_pair(a, x) == T.mult.matrix.apply_pair(swap.map.apply(a), x)
            assert M.ract.matrix.apply_pair(x, a) == T.mult.matrix.apply_pair(x, sign.map.apply(a))
            assert link.act_i.matrix.apply_pair(x, a) == M.lact.matrix.apply_pair(a, x)
            assert link.act_j.matrix.apply_pair(a, x) == Mp.ract.matrix.apply_pair(x, a)


class Unstable(Exception):
    pass


def _first_leaving(sub, outer, swapped=False):
    """The message of the first action column that leaves ``sub``: the left
    action over (ring, module) pairs, then the right action over (module,
    ring) pairs; ``swapped`` swaps both pair orders."""
    cols = [sub.inclusion.matrix.col(j) for j in range(sub.dim)]
    for side, ring, act in (("left", outer.left, lambda a, w: outer.lact.matrix.apply_pair(a, w)),
                            ("right", outer.right, lambda a, w: outer.ract.matrix.apply_pair(w, a))):
        pairs = list(itertools.product(range(ring.dim), cols))
        if (side == "right") != swapped:
            pairs = [(i, w) for w in cols for i in range(ring.dim)]
        for i, w in pairs:
            if not sub.contains_vector(act(ring.space.basis_vector(i), w)):
                return f"{side} action by {ring.space.labels[i]} leaves the subspace"
    return None


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_sub_bimodule_names_the_first_column_that_leaves(field):
    """An unstable subspace raises the caller's error, naming the ring basis
    element of the first leaving column: the left action is checked first,
    in (ring, module) order, then the right one in (module, ring) order."""
    T = matrix_algebra(field)
    k = field_algebra(field)
    e = _basis(field, T.dim)
    vectors = e + [tuple(a + b for a, b in zip(e[i], e[j]))
                   for i, j in itertools.combinations(range(T.dim), 2)]
    order_matters = set()
    for outer in (regular_bimodule(T), regular_bimodule(T, unit_algebra_map(k, T), None)):
        for pair in itertools.combinations(vectors, 2):
            sub = Subspace.from_spanning(T.space, pair)
            expected = _first_leaving(sub, outer)
            if expected is None:
                assert validated(sub_bimodule(sub, outer, Unstable)).space is sub.space
                continue
            if expected != _first_leaving(sub, outer, swapped=True):
                order_matters.add(expected.split()[0])
            with pytest.raises(Unstable) as err:
                sub_bimodule(sub, outer, Unstable)
            assert str(err.value) == expected
    # both sides meet a subspace whose first leaving column depends on the order
    assert order_matters == {"left", "right"}
