from fractions import Fraction as F

import pytest

from torsorkit import pretorsor
from torsorkit.algebra import (
    Algebra,
    chain_map,
    corestrict_through,
    regular_bimodule,
    tensor_chain,
)
from torsorkit.coring import (
    Comodule,
    Coring,
    check_grouplike,
    coinvariants,
    coring_morphism,
    cotensor,
    cotensor_coaction,
)
from torsorkit.errors import (
    MembershipFailure,
    NotCoassociative,
    NotCounitPreserving,
    NotGroupLike,
)
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import FIXTURE_NAMES, group_algebra
from torsorkit.linalg import Matrix
from torsorkit.spaces import LinearMap, Subspace, kernel, tensor_space

from conftest import analysis


def coinvariants_entwined(M: Comodule, action: LinearMap, rho_unit: Matrix,
                          name: str = "") -> Subspace:
    """Coinvariants of an entwined module: rho(m) = m . rho(1).

    ``action`` is the module structure (M (x) T -> M for a right comodule,
    T (x) M -> M for a left one) on the k-tensor ambient; ``rho_unit`` is
    the image of the ring unit under the reference coaction, a column on
    the k-tensor ambient of that coaction's chain.  For a right comodule
    the reference is m -> sum (m.t_k) (x) c_k, with rho(1) = sum t_k (x)
    c_k; a left one reads it through ``M.legs``.
    """
    f, n = M.space.field, M.dim
    coring_leg = Matrix.identity(f, rho_unit.nrows // (action.domain.dim // n))
    insert, act = (a.kron(b) for a, b in (M.legs(Matrix.identity(f, n), rho_unit),
                                           M.legs(action.matrix, coring_leg)))
    ref = LinearMap(M.space, M.chain.carrier, M.chain.proj.matrix @ act @ insert)
    return kernel(M.rho - ref, name or f"{M.name}^co")


def trivial_coring(base: Algebra) -> Coring:
    """The base algebra as a coring: Delta the canonical iso, eps = id."""
    bb = regular_bimodule(base)
    cc = tensor_chain([bb, bb], [base])
    delta = LinearMap(base.space, cc.carrier, cc.proj.matrix @ Matrix.identity(
        base.field, base.dim).kron(base.unit_col))
    return Coring(base, bb, delta, LinearMap.identity(base.space), base.name + "-triv")


@pytest.fixture(scope="module")
def trivial_on_group():
    b = group_algebra(QQ, 2, "B")
    return trivial_coring(b)


def test_trivial_coring_valid(trivial_on_group):
    c = trivial_on_group
    assert c.dim == 2
    g = check_grouplike(c, c.base.unit_col)
    assert g.element == c.base.unit_col


def test_mutated_coproduct_fails(trivial_on_group):
    c = trivial_on_group
    rows = [list(r) for r in c.delta.matrix.rows]
    rows[0][1] = QQ.sub(rows[0][1], QQ.one)  # flip a sign-ish entry
    bad = LinearMap(c.space, c.cc.carrier, Matrix(QQ, rows, c.dim))
    with pytest.raises(Exception):
        Coring(c.base, c.carrier, bad, c.eps)


def test_regular_cotensor_collapses(trivial_on_group):
    c = trivial_on_group
    reg_r = Comodule(c, c.carrier, "right", c.delta, "reg")
    reg_l = Comodule(c, c.carrier, "left", c.delta, "regL")
    box = cotensor(reg_r, reg_l)
    assert box.dim == c.dim
    # explicit iso via (eps (x) id) on representatives
    mn = tensor_chain([c.carrier, c.carrier], [c.base])
    collapse = (c.carrier.lact.matrix
                @ c.eps.matrix.kron(Matrix.identity(QQ, c.dim))
                @ mn.sect.matrix @ box.inclusion.matrix)
    iso = LinearMap(box.space, c.space, collapse)
    assert iso.rank() == c.dim


def test_zero_comodule_cotensor(trivial_on_group):
    c = trivial_on_group
    from torsorkit.algebra import Bimodule
    from torsorkit.spaces import Space, tensor_space
    zero = Space(QQ, 0, "Z")
    lact = LinearMap(tensor_space([c.base.space, zero]), zero, Matrix(QQ, [], 0))
    ract = LinearMap(tensor_space([zero, c.base.space]), zero, Matrix(QQ, [], 0))
    zbim = Bimodule(zero, c.base, c.base, lact, ract)
    zch = tensor_chain([c.carrier, zbim], [c.base])
    zrho = LinearMap(zero, zch.carrier, Matrix(QQ, [() for _ in range(zch.dim)], 0))
    zcom = Comodule(c, zbim, "left", zrho, "zero")
    reg_r = Comodule(c, c.carrier, "right", c.delta, "reg")
    assert cotensor(reg_r, zcom).dim == 0


def test_coinvariants_regular(trivial_on_group):
    c = trivial_on_group
    reg = Comodule(c, c.carrier, "right", c.delta, "reg")
    g = check_grouplike(c, c.base.unit_col)
    co = coinvariants(reg, g)
    # contains the base multiples of the group-like element
    assert co.contains_vector(c.base.unit)


def test_grouplike_negative(ex_c2, an_c2):
    pair = an_c2.pair
    c = pair.C
    good = pair.grouplike_C.element.col(0)
    with pytest.raises(NotGroupLike):
        # the sum of two distinct group-likes is not group-like
        other = c.space.basis_vector(0)
        two = tuple(QQ.add(a, b) for a, b in zip(good, other)) \
            if tuple(good) != tuple(other) else tuple(
                QQ.add(a, b) for a, b in zip(good, c.space.basis_vector(1)))
        check_grouplike(c, Matrix.from_cols(QQ, [two]))


def test_coring_morphism_identity_and_zero(trivial_on_group):
    c = trivial_on_group
    ident = coring_morphism(LinearMap.identity(c.space), c, c)
    assert ident.is_bijective()
    zero = LinearMap.zero(c.space, c.space)
    with pytest.raises(NotCounitPreserving):
        coring_morphism(zero, c, c)


def test_bicomodule_from_bundle(an_c2, monkeypatch):
    """T and Tbar enter the cotensors of Thm 4.4 as the validated one-sided
    parts of the structure bicomodule and the coinvariant bicomodule:
    ``_collapse`` cotensors exactly those objects, on both hands."""
    an = an_c2
    pair, tb = an.pair, an.tbar
    seen = []

    def watched(M, N, name=""):
        seen.append((M, N))
        return cotensor(M, N, name)

    monkeypatch.setattr(pretorsor, "cotensor", watched)
    right, left = (pretorsor.Hand(an.bundle, side, pair) for side in ("right", "left"))
    pretorsor._collapse(right, left, tb)
    pretorsor._collapse(left, right, tb)
    T, Tbar = pair.bicomodule, tb.bicomodule
    assert len(seen) == 2
    assert seen[0][0] is T.right_part and seen[0][1] is Tbar.left_part
    assert seen[1][0] is Tbar.right_part and seen[1][1] is T.left_part


@pytest.mark.parametrize("name, field", [(name, field) for name in FIXTURE_NAMES
                                         for field in (QQ, GF(101))],
                         ids=lambda x: getattr(x, "name", x))
def test_cotensor_with_the_regular_comodule_is_the_bicomodule(name, field):
    """R box_C C = R for the structure bicomodule R = T: the cotensor has
    dim T, rho_T corestricts to an isomorphism onto it, and that
    isomorphism intertwines the left D-coactions."""
    an = analysis(name, field)
    b, pair = an.bundle, an.pair
    S, S_bim, coact = cotensor_coaction(pair.bicomodule, an.creg, "TboxC",
                                        "the D-coaction misses the cotensor")
    assert S.dim == b.T.dim
    iso = corestrict_through(S.inclusion, pair.rho_T, MembershipFailure,
                             "rho_T misses the cotensor")
    assert iso.rank() == b.T.dim
    DS = tensor_chain([pair.D.carrier, S_bim], [b.B])
    assert coact @ iso == chain_map(pair.DT, [(1, None, 1), (1, iso, 1)], DS) @ pair.lrho_T


def test_entwined_coinvariants_of_bundle(an_c2):
    # the coinvariants of the carrier itself recover the base subalgebra
    an = an_c2
    b = an.bundle
    pair = an.pair
    T_com = pair.bicomodule.right_part
    # right T-action on T is multiplication
    action = LinearMap(tensor_space([b.T.space, b.T.space]), b.T.space, b.T.mult.matrix)
    rho_unit = pair.TC.sect.matrix @ pair.rho_T.matrix @ b.T.unit_col
    co = coinvariants_entwined(T_com, action, rho_unit)
    assert co.dim == b.B.dim
    assert co.contains_vector(b.beta.map.apply(b.B.space.basis_vector(0)))


def test_coinvariants_monotone_under_inclusion(an_c2):
    # a subcomodule's coinvariants include into the bigger ones
    from torsorkit.coring import coinvariants
    pair = an_c2.pair
    g = pair.grouplike_C
    reg = Comodule(pair.C, pair.C.carrier, "right", pair.C.delta, "reg")
    co_reg = coinvariants(reg, g)
    assert co_reg.dim >= 1
    assert co_reg.contains_vector(g.element.col(0))


def test_cotensor_with_regular_both_sides(an_c2):
    # cotensor against the regular comodule collapses on either side
    from torsorkit.algebra import tensor_chain
    pair = an_c2.pair
    c = pair.C
    b = an_c2.bundle
    reg_r = Comodule(c, c.carrier, "right", c.delta, "reg")
    reg_l = Comodule(c, c.carrier, "left", c.delta, "regL")
    T_right = pair.bicomodule.right_part
    box = cotensor(T_right, reg_l)     # T box C = T
    assert box.dim == b.T.dim
    tc = tensor_chain([b.T_BA, c.carrier], [c.base])
    collapse = (b.T_BA.ract.matrix
                @ Matrix.identity(QQ, b.T.dim).kron(c.eps.matrix)
                @ tc.sect.matrix @ box.inclusion.matrix)
    assert LinearMap(box.space, b.T.space, collapse).rank() == b.T.dim
