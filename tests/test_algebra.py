from fractions import Fraction as F

import pytest

from torsorkit.algebra import (
    AlgebraMap,
    certify_free,
    chain_outer_bimodule,
    enveloping,
    induce,
    make_algebra,
    opposite,
    regular_bimodule,
    tensor_chain,
)
from torsorkit.errors import NotAssociative, NotFree, NotUnital, NotWellDefined
from torsorkit.fields import QQ
from torsorkit.fixtures import field_algebra, group_algebra, matrix_algebra, unit_algebra_map
from torsorkit.linalg import Matrix
from torsorkit.spaces import LinearMap, tensor_space


def test_make_algebra_validation():
    k = make_algebra(QQ, 1, [(0, 0, 0, 1)], [1], "k")
    assert k.dim == 1
    c2 = group_algebra(QQ, 2, "kC2")
    assert c2.is_commutative()
    # e0 e0 = e1 with e1 absorbing and no unit
    with pytest.raises(NotUnital) as err:
        make_algebra(QQ, 2, [(0, 0, 1, 1)], [1, 0], "bad")
    assert err.value.index is not None
    # (e0 e1)e1 = 0 but e0(e1 e1) = e0
    with pytest.raises(NotAssociative) as err2:
        make_algebra(QQ, 2,
                     [(0, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1)],
                     [1, 0], "bad2")
    assert len(err2.value.triple) == 3


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
    outer = chain_outer_bimodule(chain3, m2_bim, m2_bim, check=True)
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
    outer = chain_outer_bimodule(pair, bim, bim, check=True)
    assert tensor_chain([outer, bim], [m2]).dim == 4
    assert tensor_chain([bim, outer], [m2]).dim == 4


def _mult_on_square(m2):
    chain = tensor_chain([regular_bimodule(m2)] * 2, [m2])
    return chain, LinearMap(chain.ambient, m2.space, m2.mult.matrix)


def test_induce_well_defined_and_not():
    m2 = matrix_algebra(QQ)
    chain, mu = _mult_on_square(m2)
    induced = induce(chain, mu)
    assert induced.domain is chain.carrier
    # multiplication after the swap is not balanced over a matrix algebra
    n = m2.dim
    perm_cols = []
    for i in range(n):
        for j in range(n):
            v = [QQ.zero] * (n * n)
            v[j * n + i] = QQ.one
            perm_cols.append(tuple(v))
    swap = Matrix.from_cols(QQ, perm_cols, n * n)
    bad = LinearMap(chain.ambient, m2.space, m2.mult.matrix @ swap)
    with pytest.raises(NotWellDefined) as err:
        induce(chain, bad)
    assert err.value.witness is not None


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
    assert env.dim == 4 and env.is_commutative()
    m2 = matrix_algebra(QQ)
    env2 = enveloping(m2)
    assert env2.dim == 16
    assert not env2.is_commutative()


def test_opposite():
    m2 = matrix_algebra(QQ)
    op = opposite(m2)
    e01 = m2.space.basis_vector(1)
    e10 = m2.space.basis_vector(2)
    assert op.product_vec(e01, e10) == m2.product_vec(e10, e01)


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
    chain, mu = _mult_on_square(matrix_algebra(QQ))
    assert (induce(chain, mu) @ chain.proj).matrix == mu.matrix
