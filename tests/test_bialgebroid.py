"""Bialgebroids of a torsor, their Galois maps and the monoidal witnesses.

Each bialgebroid axiom row is one matrix identity in ``bialgebroid``; the
per-value loops near the end of this file evaluate the same rows one basis
vector or basis pair at a time and are the reference they are checked
against, on every fixture, on the ``cleft_twist`` sweeps and on perturbed
structure maps.
"""

import copy

import pytest

from torsorkit import bialgebroid
from torsorkit.algebra import (
    Algebra,
    AlgebraMap,
    Bimodule,
    corestrict_through,
    fix_left,
    fix_right,
    make_algebra,
    regular_bimodule,
)
from torsorkit.analysis import BundleAnalysis
from torsorkit.bialgebroid import (
    LeftBialgebroid,
    _beta_actions_on_cotensor,
    _comodule_algebra_rows,
    _factorwise_product_mixed,
    _subalgebra,
    _translation_identities,
    bialgebroid_axioms,
    bialgebroid_from_torsor,
    can_factorisation,
    cleft_pretorsor,
    comodule_actions,
    diagonal_coinvariants,
    homogeneous_pretorsor,
    lemma55_check,
    monoidal_witness,
    recovered_structure,
)
from torsorkit.cleft_twist import (
    cocycle_double_twist,
    hopf_algebra_as_left_bialgebroid,
    twist_data_for_fixture,
    twisted_bialgebroid,
)
from torsorkit.coring import Comodule, GroupLike
from torsorkit.errors import (
    AxiomFailure,
    ClosureFailure,
    Disagreement,
    MembershipFailure,
    NotConvolutionInverse,
    NotSubcomoduleCompatible,
    NotWellDefined,
    TakeuchiViolation,
)
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import FIXTURE_NAMES, field_algebra, group_hopf, sweedler_hopf
from torsorkit.linalg import Matrix, permute_cols
from torsorkit.pretorsor import Hand
from torsorkit.report import Report
from torsorkit.spaces import LinearMap, Subspace, intersect, kernel, tensor_space

from conftest import analysis, fixture, join_left, join_right
from test_linalg import outer


def test_c2_bialgebroid_products(an_c2):
    bC, bD = an_c2.bialgebroids
    pair = an_c2.pair
    alg = bC.algebra
    # unit is e(x)e; the other basis vector squares to the unit
    assert tuple(alg.unit) in [alg.space.basis_vector(i) for i in range(2)]
    other = 1 if tuple(alg.unit) == alg.space.basis_vector(0) else 0
    g = alg.space.basis_vector(other)
    assert alg.mult.matrix.apply_pair(g, g) == tuple(alg.unit)
    assert alg.mult.matrix.apply_pair(tuple(alg.unit), g) == g


def test_bialgebroid_sweeps(an_triv, an_c2, an_sw, an_smash):
    for an in (an_triv, an_c2, an_sw, an_smash):
        bC, bD = an.bialgebroids
        assert bC.report.ok and bD.report.ok


def test_m2_bialgebroid_fails_honestly(an_m2):
    with pytest.raises(ClosureFailure):
        bialgebroid_from_torsor(an_m2.bundle, an_m2.pair)


def test_theta_dims_and_identities(an_triv, an_c2, an_sw):
    for an, dim in ((an_triv, 1), (an_c2, 4), (an_sw, 16)):
        th = an.theta_right
        assert th.theta.domain.dim == dim
        assert th.report.ok
        assert an.theta_left.report.ok


def test_diagonal_coinvariants(an_triv, an_c2, an_sw, an_smash):
    for an in (an_triv, an_c2, an_sw, an_smash):
        assert diagonal_coinvariants(an.bundle, an.pair).ok


@pytest.mark.parametrize("name", ["EX-SW", "EX-SMASH"])
@pytest.mark.parametrize("side, coring", [("right", "D"), ("left", "C")])
def test_diagonal_coinvariants_see_a_scaled_grouplike(monkeypatch, name, side, coring):
    """Doubling one hand's group-like leaves no coinvariants, so Lemma 5.3
    fails on the other hand's coring: the right hand's on D, the left
    hand's on C, after lem5.3.D has passed."""
    b, pair = analysis(name).bundle, analysis(name).pair
    key = {"right": "grouplike_C", "left": "grouplike_D"}[side]
    g = getattr(pair, key)
    monkeypatch.setattr(pair, key, GroupLike(g.coring, g.element.scale(b.field.from_int(2))))
    with pytest.raises(Disagreement, match=f"differ from {coring}$"):
        diagonal_coinvariants(b, pair)


def test_comodule_actions_regular_and_unit(an_c2):
    an = an_c2
    bC = an.bialgebroids[0]
    pair = an.pair
    creg = Comodule(pair.C, pair.C.carrier, "left", pair.C.delta, "C")
    enriched, rep = comodule_actions(creg, bC)
    assert rep.ok
    # the induced action on the regular comodule matches the coring action
    assert enriched.carrier.ract.matrix == pair.C.carrier.ract.matrix
    # the monoidal unit with coaction via the target map has trivial action
    from torsorkit.algebra import regular_bimodule as rb
    from torsorkit.algebra import tensor_chain
    A_bim = rb(an.bundle.A)
    CA = tensor_chain([pair.C.carrier, A_bim], [an.bundle.A])
    cols = [CA.proj.apply(
        tuple(x * y for x in bC.target.map.apply(an.bundle.A.space.basis_vector(i))
              for y in an.bundle.A.unit))
        for i in range(an.bundle.A.dim)]
    rho_A = LinearMap.from_columns(an.bundle.A.space, CA.carrier, cols)
    A_com = Comodule(pair.C, A_bim, "left", rho_A, "A")
    enrichedA, repA = comodule_actions(A_com, bC)
    assert repA.ok


def test_monoidal_witness_and_512(an_triv, an_c2, an_sw):
    for an in (an_triv, an_c2, an_sw):
        b = an.bundle
        bC = an.bialgebroids[0]
        creg = an.regular_comodule()
        w, data = monoidal_witness(b, an.pair, bC, creg)
        assert w.ok, w.report.summary()
        assert can_factorisation(b, an.pair, an.galois_right, data)
        rec = recovered_structure(b, an.pair, bC, data)
        assert rec.ok, rec.summary()


def left_module_wrap(A, space, lact, K):
    """An A-K-bimodule on ``space``: ``lact`` on the left, K = k acting
    trivially on the right."""
    ident = Matrix.identity(space.field, space.dim)
    return Bimodule(space, A, K, lact, LinearMap(tensor_space([space, K.space]), space, ident))


def test_lemma55_unit_and_regular(an_c2):
    an = an_c2
    b = an.bundle
    bC = an.bialgebroids[0]
    th = an.theta_right
    K = field_algebra(QQ)
    A_bim = regular_bimodule(b.A)
    assert lemma55_check(b, an.pair, bC, th, A_bim).ok
    C_mod = left_module_wrap(b.A, an.pair.C.space, an.pair.C.carrier.lact, K)
    assert lemma55_check(b, an.pair, bC, th, C_mod).ok


def _count_calls(monkeypatch, names):
    """Wrap each named ``bialgebroid`` function so that its calls are
    counted; returns the counts, by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, real=getattr(bialgebroid, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(bialgebroid, name, spy)
    return counts


@pytest.mark.parametrize("name", ["EX-C2", "EX-SMASH"])
def test_lemma55_builds_one_cofree_comodule_for_one_bimodule(monkeypatch, name):
    """C (x)_A N and its induced action are built once and serve both
    factors of the double cofree comodule."""
    an = analysis(name)
    b, bC = an.bundle, an.bialgebroids[0]
    counts = _count_calls(monkeypatch, ["cofree_comodule", "comodule_actions"])
    rep = lemma55_check(b, an.pair, bC, an.theta_right, regular_bimodule(b.A))
    assert counts == {"cofree_comodule": 1, "comodule_actions": 1}
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("name", ["EX-C2", "EX-SMASH"])
def test_monoidal_witness_builds_one_cotensor_for_one_comodule(monkeypatch, name):
    """T box M, its B-actions and the corestriction of rho onto it are
    built once and serve both factors; the witness, (5.12) and (5.11)
    rows pass."""
    an = analysis(name)
    b, bC = an.bundle, an.bialgebroids[0]
    counts = _count_calls(monkeypatch, ["cotensor", "_beta_actions_on_cotensor",
                                        "corestrict_through"])
    w, data = monoidal_witness(b, an.pair, bC, an.regular_comodule())
    # T box A and T box M; the B-actions on T box M and on T box (M (x) M)
    assert counts["cotensor"] == 2 and counts["_beta_actions_on_cotensor"] == 2
    counts["corestrict_through"] = 0
    bialgebroid._rho_rho(b, an.pair, data)
    assert counts["corestrict_through"] == 1
    assert w.ok and can_factorisation(b, an.pair, an.galois_right, data)
    assert recovered_structure(b, an.pair, bC, data).ok


def test_homogeneous_pretorsor_cases(an_sw):
    an = an_sw
    bC = an.bialgebroids[0]
    th = an.theta_right
    # P = t(A): the quotient is the whole coring
    bun, rep, aux = homogeneous_pretorsor(bC, th, [], "homog-tA")
    assert rep.ok
    assert aux["Q"].dim == an.pair.C.dim
    # P = the whole coring: quotient collapses to the base
    allc = [an.pair.C.space.basis_vector(i) for i in range(an.pair.C.dim)]
    bun2, rep2, aux2 = homogeneous_pretorsor(bC, th, allc, "homog-C")
    assert rep2.ok
    assert aux2["Q"].dim == an.bundle.A.dim
    assert aux2["B"].dim == an.pair.C.dim
    # P = span{1, g(x)g}: a two-dimensional quotient
    b = an.bundle
    gvec = b.T.space.basis_vector(1)
    amb = [QQ.zero] * (b.T.dim ** 2)
    for i, x in enumerate(gvec):
        for j, y in enumerate(gvec):
            amb[i * b.T.dim + j] = QQ.mul(x, y)
    on_C = b.TBT.proj.apply(tuple(amb))
    gg = tuple(on_C[p] for p in an.pair.C_sub.pivots)
    bun3, rep3, aux3 = homogeneous_pretorsor(bC, th, [gg], "homog-g")
    assert rep3.ok
    assert aux3["Q"].dim == 2


def _c2_cleaving(ex_c2, an_c2):
    # identify the kernel coring with the Hopf algebra by the first leg
    # against the counit: j picks out the group element, jt its inverse
    h = ex_c2.hopf
    b = an_c2.bundle
    pair = an_c2.pair
    first_leg = Matrix.identity(QQ, b.T.dim).kron(h.eps)
    j_mat = first_leg @ b.TBT.sect.matrix @ pair.C_sub.inclusion.matrix
    j = LinearMap(pair.C.space, b.T.space, j_mat)
    jt = LinearMap(pair.C.space, b.T.space, h.antipode @ j_mat)
    return j, jt


def test_cleft_pretorsor_reproduces_c2(ex_c2, an_c2):
    b = an_c2.bundle
    pair = an_c2.pair
    er = an_c2.ent_right
    j, jt = _c2_cleaving(ex_c2, an_c2)
    bundle2, rep = cleft_pretorsor(b.A, b.T, b.alpha, pair.C, pair.rho_T,
                                   er.psi, j, jt, "c2-cleft")
    assert rep.ok
    assert bundle2.tau_raw == b.tau_raw


def test_cleft_pretorsor_bad_inverse(ex_c2, an_c2):
    b = an_c2.bundle
    pair = an_c2.pair
    er = an_c2.ent_right
    j, jt = _c2_cleaving(ex_c2, an_c2)
    rows = [list(r) for r in jt.matrix.rows]
    # flip the sign of the image of the group-like spanned by g (x) g
    gcol = max(k for k in range(pair.C.dim)
               if any(x != 0 for x in jt.matrix.col(k)))
    for i in range(len(rows)):
        rows[i][gcol] = QQ.neg(rows[i][gcol])
    jt_bad = LinearMap(pair.C.space, b.T.space, Matrix(QQ, rows, pair.C.dim))
    with pytest.raises(NotConvolutionInverse) as err:
        cleft_pretorsor(b.A, b.T, b.alpha, pair.C, pair.rho_T,
                        er.psi, j, jt_bad, "c2-cleft-bad")
    assert err.value.witness is not None


def test_homogeneous_pretorsor_rejects_a_span_whose_coproduct_leaves_c_x_p(an_sw):
    """On EX-SW the second basis vector of C, closed under products and
    the target map, spans no left coideal: Delta(P) leaves C (x) P."""
    C = an_sw.pair.C
    with pytest.raises(NotSubcomoduleCompatible, match="coproduct leaves C"):
        homogeneous_pretorsor(an_sw.bialgebroids[0], an_sw.theta_right,
                              [C.space.basis_vector(1)], "homog-e1")


# ---------------------------------------------------------------------------
# the per-value reference: each axiom row as it was evaluated before it
# became one matrix identity, one basis vector or basis pair at a time


def _left_mult(alg, v):
    """x -> v x on ``alg``, for the coordinate vector v."""
    return fix_left(alg.mult.matrix, Matrix.from_cols(alg.field, [v]), alg.dim)


def _right_mult(alg, v):
    """x -> x v on ``alg``, for the coordinate vector v."""
    return fix_right(alg.mult.matrix, alg.dim, Matrix.from_cols(alg.field, [v]))


def _reference_takeuchi_right(C, C_alg, source, target):
    """{ sum c (x) c' : s(a) c (x) c' = c (x) t(a) c' for all a }."""
    f, A = C.field, C.base
    idC = Matrix.identity(f, C.dim)
    subs = []
    for i in range(A.dim):
        a = A.space.basis_vector(i)
        ls = _left_mult(C_alg, source.map.apply(a))
        lt = _left_mult(C_alg, target.map.apply(a))
        m1 = C.cc.proj.matrix @ ls.kron(idC) @ C.cc.sect.matrix
        m2 = C.cc.proj.matrix @ idC.kron(lt) @ C.cc.sect.matrix
        subs.append(kernel(LinearMap(C.cc.carrier, C.cc.carrier, m1 - m2)))
    return intersect(subs, "takeuchi")


def _reference_takeuchi_left(D, D_alg, source, target):
    """{ sum x (x) y : x t(b) (x) y = x (x) y s(b) for all b }."""
    f, B = D.field, D.base
    idD = Matrix.identity(f, D.dim)
    subs = []
    for i in range(B.dim):
        a = B.space.basis_vector(i)
        rt = _right_mult(D_alg, target.map.apply(a))
        rs = _right_mult(D_alg, source.map.apply(a))
        m1 = D.cc.proj.matrix @ rt.kron(idD) @ D.cc.sect.matrix
        m2 = D.cc.proj.matrix @ idD.kron(rs) @ D.cc.sect.matrix
        subs.append(kernel(LinearMap(D.cc.carrier, D.cc.carrier, m1 - m2)))
    return intersect(subs, "takeuchi")


def _reference_right_axioms(name, C, C_alg, source, target, rep):
    f, A = C.field, C.base
    ok = True
    for i in range(A.dim):
        sa = source.map.apply(A.space.basis_vector(i))
        for j in range(A.dim):
            ta = target.map.apply(A.space.basis_vector(j))
            if C_alg.mult.matrix.apply_pair(sa, ta) != C_alg.mult.matrix.apply_pair(ta, sa):
                ok = False
    rep.add("bgd.commuting-ranges", "2(bgd)", ok)
    ok = True
    for i in range(A.dim):
        a = A.space.basis_vector(i)
        sa = source.map.apply(a)
        ta = target.map.apply(a)
        for k in range(C.dim):
            c = C.space.basis_vector(k)
            if C.carrier.lact.matrix.apply_pair(a, c) != C_alg.mult.matrix.apply_pair(c, ta):
                ok = False
            if C.carrier.ract.matrix.apply_pair(c, a) != C_alg.mult.matrix.apply_pair(c, sa):
                ok = False
    rep.add("bgd.bimodule-rule", "2(bgd)", ok)
    ok = _reference_takeuchi_right(C, C_alg, source, target).contains_map(C.delta)
    rep.add("bgd.takeuchi", "2(bgd)", ok)
    if not ok:
        raise TakeuchiViolation(f"{name}: coproduct image leaves the Takeuchi product")
    mult = C_alg.mult.matrix
    lhs = C.delta.matrix @ mult
    rhs = (_factorwise_product_mixed(C.cc, mult, mult, [C.dim] * 2)
           @ C.delta.matrix.kron(C.delta.matrix))
    rep.add("bgd.delta-multiplicative", "2(bgd)", lhs == rhs)
    one_cc = C.cc.proj.apply(outer(f, C_alg.unit, C_alg.unit))
    rep.add("bgd.delta-unital", "2(bgd)", C.delta.apply(C_alg.unit) == one_cc)
    rep.add("bgd.eps-unital", "2(bgd)", C.eps.apply(C_alg.unit) == A.unit)
    ok = True
    for k in range(C.dim):
        c = C.space.basis_vector(k)
        eps_c = C.eps.apply(c)
        ls = _left_mult(C_alg, source.map.apply(eps_c))
        lt = _left_mult(C_alg, target.map.apply(eps_c))
        for kk in range(C.dim):
            cp = C.space.basis_vector(kk)
            v1 = C.eps.apply(ls.apply(cp))
            v2 = C.eps.apply(lt.apply(cp))
            v3 = C.eps.apply(C_alg.mult.matrix.apply_pair(c, cp))
            if v1 != v3 or v2 != v3:
                ok = False
    rep.add("bgd.eps-weak-mult", "2(bgd)", ok)


def _reference_left_axioms(name, D, D_alg, source, target, rep):
    f, B = D.field, D.base
    ok = True
    for i in range(B.dim):
        sb = source.map.apply(B.space.basis_vector(i))
        for j in range(B.dim):
            tb = target.map.apply(B.space.basis_vector(j))
            if D_alg.mult.matrix.apply_pair(sb, tb) != D_alg.mult.matrix.apply_pair(tb, sb):
                ok = False
    rep.add("bgd.commuting-ranges", "2(bgd)", ok)
    ok = True
    for i in range(B.dim):
        a = B.space.basis_vector(i)
        sb = source.map.apply(a)
        tb = target.map.apply(a)
        for k in range(D.dim):
            d = D.space.basis_vector(k)
            if D.carrier.lact.matrix.apply_pair(a, d) != D_alg.mult.matrix.apply_pair(sb, d):
                ok = False
            if D.carrier.ract.matrix.apply_pair(d, a) != D_alg.mult.matrix.apply_pair(tb, d):
                ok = False
    rep.add("bgd.bimodule-rule", "2(bgd)", ok)
    ok = _reference_takeuchi_left(D, D_alg, source, target).contains_map(D.delta)
    rep.add("bgd.takeuchi", "2(bgd)", ok)
    if not ok:
        raise TakeuchiViolation(f"{name}: coproduct image leaves the Takeuchi product")
    mult = D_alg.mult.matrix
    lhs = D.delta.matrix @ mult
    rhs = (_factorwise_product_mixed(D.cc, mult, mult, [D.dim] * 2)
           @ D.delta.matrix.kron(D.delta.matrix))
    rep.add("bgd.delta-multiplicative", "2(bgd)", lhs == rhs)
    one_dd = D.cc.proj.apply(outer(f, D_alg.unit, D_alg.unit))
    rep.add("bgd.delta-unital", "2(bgd)", D.delta.apply(D_alg.unit) == one_dd)
    rep.add("bgd.eps-unital", "2(bgd)", D.eps.apply(D_alg.unit) == B.unit)
    ok = True
    for k in range(D.dim):
        d = D.space.basis_vector(k)
        for kk in range(D.dim):
            dp = D.space.basis_vector(kk)
            eps_dp = D.eps.apply(dp)
            v1 = D.eps.apply(D_alg.mult.matrix.apply_pair(d, source.map.apply(eps_dp)))
            v2 = D.eps.apply(D_alg.mult.matrix.apply_pair(d, target.map.apply(eps_dp)))
            v3 = D.eps.apply(D_alg.mult.matrix.apply_pair(d, dp))
            if v1 != v3 or v2 != v3:
                ok = False
    rep.add("bgd.eps-weak-mult", "2(bgd)", ok)


def _reference_axioms(bgd, name):
    """The reference rows of ``bialgebroid_axioms`` as (id, status) pairs,
    closed by the message of a TakeuchiViolation if one is raised."""
    reference = (_reference_left_axioms if isinstance(bgd, LeftBialgebroid)
                 else _reference_right_axioms)
    rep = Report("reference")
    try:
        reference(name, bgd.coring, bgd.algebra, bgd.source, bgd.target, rep)
        raised = None
    except TakeuchiViolation as exc:
        raised = str(exc)
    return _rows(rep, "bgd."), raised


def _engine_axioms(bgd, name):
    bgd.report = Report("engine")
    try:
        bialgebroid_axioms(bgd, name)
        raised = None
    except TakeuchiViolation as exc:
        raised = str(exc)
    return _rows(bgd.report, "bgd."), raised


def _reference_comodule_algebra(b, pair, bgd, rep):
    """T is a comodule algebra: both hands' loops as they were written."""
    f = b.field
    if isinstance(bgd, LeftBialgebroid):
        DT, lrho = pair.DT, pair.lrho_T
        mult_dt = _factorwise_product_mixed(DT, bgd.algebra.mult.matrix, b.mu,
                                            [bgd.dim, b.T.dim])
        lhs = lrho.matrix @ b.mu
        rhs = mult_dt @ lrho.matrix.kron(lrho.matrix)
        rep.add("bgd.comodule-algebra", "5.2", lhs == rhs)
        one_dt = DT.proj.apply(outer(f, bgd.algebra.unit, b.T.unit))
        rep.add("bgd.comodule-algebra-unital", "5.2",
                lrho.apply(tuple(b.T.unit)) == one_dt)
        return
    TC, rho = pair.TC, pair.rho_T
    mult_tc = _factorwise_product_mixed(TC, b.mu, bgd.algebra.mult.matrix,
                                        [b.T.dim, bgd.dim])
    lhs = rho.matrix @ b.mu
    rhs = mult_tc @ rho.matrix.kron(rho.matrix)
    rep.add("bgd.comodule-algebra", "5.2", lhs == rhs)
    one_tc = TC.proj.apply(outer(f, b.T.unit, bgd.algebra.unit))
    rep.add("bgd.comodule-algebra-unital", "5.2",
            rho.apply(tuple(b.T.unit)) == one_tc)


def _reference_source_target(b, pair, left):
    """The source and target matrices of one hand, one basis column at a time."""
    f = b.field
    if left:
        base, unit_map, two, sub = b.B, b.beta, b.TAT, pair.D_sub
    else:
        base, unit_map, two, sub = b.A, b.alpha, b.TBT, pair.C_sub
    def coords(vec):
        on_two = two.proj.apply(vec)
        return tuple(on_two[p] for p in sub.pivots)

    s_cols, t_cols = [], []
    for i in range(base.dim):
        v = unit_map.map.apply(base.space.basis_vector(i))
        one_v, v_one = outer(f, b.T.unit, v), outer(f, v, b.T.unit)
        s_cols.append(coords(v_one if left else one_v))
        t_cols.append(coords(one_v if left else v_one))
    K = sub.space
    return (Matrix.from_cols(f, s_cols, K.dim), Matrix.from_cols(f, t_cols, K.dim))


def _reference_translation_identities(bgd, chain_op, th_inv, rep):
    f = bgd.coring.field
    C = bgd.coring
    one = bgd.algebra.unit
    left = isinstance(bgd, LeftBialgebroid)
    ok1 = ok2 = True
    for i in range(bgd.base.dim):
        a = bgd.base.space.basis_vector(i)
        ta, sa = bgd.target.map.apply(a), bgd.source.map.apply(a)
        if left:
            lhs = th_inv.apply(C.cc.proj.apply(outer(f, ta, one)))
            rhs = chain_op.proj.apply(outer(f, one, sa))
        else:
            lhs = th_inv.apply(C.cc.proj.apply(outer(f, one, ta)))
            rhs = chain_op.proj.apply(outer(f, sa, one))
        ok1 = ok1 and lhs == rhs
        into = (sa, one) if left else (one, sa)
        lhs = th_inv.apply(C.cc.proj.apply(outer(f, *into)))
        rhs = chain_op.proj.apply(outer(f, *into))
        ok2 = ok2 and lhs == rhs
    tag = "theta.eq2.3-mirror" if left else "theta.eq2.3"
    rep.add(f"{tag}-target", "(2.3)", ok1)
    rep.add(f"{tag}-source", "(2.3)", ok2)


def _rows(rep, prefix):
    return [(c.check_id, c.status) for c in rep.checks if c.check_id.startswith(prefix)]


FIELDS = [QQ, GF(101)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bialgebroid_rows_match_the_per_value_reference(name, field):
    """On both hands of every fixture the source and target maps and each
    row of the bialgebroid sweep and of the (2.3) translation identities
    give the reference's verdict; EX-M2's product leaves its kernel before
    any row is written."""
    an = BundleAnalysis(fixture(name, field).bundle)
    b, pair = an.bundle, an.pair
    if name == "EX-M2":
        with pytest.raises(ClosureFailure):
            an.bialgebroids
        return
    for bgd, th in zip(an.bialgebroids, (an.theta_right, an.theta_left)):
        left = isinstance(bgd, LeftBialgebroid)
        assert (bgd.source.map.matrix, bgd.target.map.matrix) \
            == _reference_source_target(b, pair, left)
        rows, raised = _reference_axioms(bgd, "ref")
        ref = Report("reference")
        _reference_comodule_algebra(b, pair, bgd, ref)
        assert raised is None
        assert rows + _rows(ref, "bgd.") == _rows(bgd.report, "bgd.")
        ref = Report("reference")
        _reference_translation_identities(bgd, th.chain_op, th.theta_inv, ref)
        assert _rows(ref, "theta.eq2.3") == _rows(th.report, "theta.eq2.3")


def _cleft_twist_sites(field):
    """The left bialgebroids of the three ``cleft_twist`` sites that sweep
    one: Sweedler's Hopf algebra over k, EX-SMASH's twisted bialgebroid
    (over a base of dimension 2) and a cocycle double twist of kC2."""
    hopf_bgd, _ = hopf_algebra_as_left_bialgebroid(sweedler_hopf(field))
    ex = fixture("EX-SMASH", field)
    inp = twist_data_for_fixture(ex, BundleAnalysis(ex.bundle).bundle)[0]
    twisted = twisted_bialgebroid(inp, "EX-SMASH").bgd
    bgdC2, _ = hopf_algebra_as_left_bialgebroid(group_hopf(field, 2, "kC2"))
    sigma = Matrix.from_cols(field, [(field.one,)] * 4, 1)
    double, _ = cocycle_double_twist(bgdC2, sigma, sigma, "c2")
    return [hopf_bgd, twisted, double]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_cleft_twist_sweeps_match_the_per_value_reference(field):
    for bgd in _cleft_twist_sites(field):
        rows, raised = _reference_axioms(bgd, bgd.coring.name)
        assert raised is None
        assert rows == _rows(bgd.report, "bgd.")


def _perturbations(bgd):
    """Copies of a bialgebroid with one structure map broken, unvalidated:
    (name, copy) pairs."""
    C, alg, base = bgd.coring, bgd.algebra, bgd.base
    f, n = C.field, C.dim
    two = f.from_int(2)

    def remade(coring=C, algebra=alg, source=bgd.source, target=bgd.target):
        return type(bgd)(coring, algebra, source, target, Report("perturbed"))

    def coring_with(**maps):
        out = copy.copy(C)
        vars(out).update(maps)
        return out

    def bumped(i, j):
        """The product with e_i e_j changed in its first coordinate."""
        bump = Matrix.from_sparse_rows(f, [{i * n + j: f.one}] + [{} for _ in range(n - 1)],
                                       n * n)
        return Algebra(alg.space, LinearMap(alg.mult.domain, alg.space, alg.mult.matrix + bump),
                       alg.unit_col, check=False)

    def first_support(mat):
        return next(k for k, x in enumerate(mat.col(base.dim - 1)) if x)

    def scaled(alg_map):
        return AlgebraMap(base, alg, LinearMap(base.space, C.space, alg_map.map.matrix.scale(two)),
                          anti=alg_map.anti, check=False)

    zero_delta = LinearMap.zero(C.space, C.cc.carrier)
    shift = Matrix.from_sparse_rows(f, [{(k + 1) % n: f.one} for k in range(n)], n)
    shifted = AlgebraMap(base, alg, LinearMap(base.space, C.space,
                                              shift @ bgd.source.map.matrix), check=False)
    return [
        ("target := source",
         remade(target=AlgebraMap(base, alg, bgd.source.map, anti=True, check=False))),
        ("source := target", remade(source=AlgebraMap(base, alg, bgd.target.map, check=False))),
        ("source scaled", remade(source=scaled(bgd.source))),
        ("eps scaled", remade(coring=coring_with(
            eps=LinearMap(C.space, base.space, C.eps.matrix.scale(two))))),
        ("delta scaled", remade(coring=coring_with(
            delta=LinearMap(C.space, C.cc.carrier, C.delta.matrix.scale(two))))),
        ("delta columns moved", remade(coring=coring_with(
            delta=LinearMap(C.space, C.cc.carrier, C.delta.matrix @ shift)))),
        # over a base of dimension 1 the ranges of s and t commute unless
        # both the source and the product change
        ("source shifted, s(a) t(a') changed", remade(
            algebra=bumped(first_support(shifted.map.matrix),
                           first_support(bgd.target.map.matrix)),
            source=shifted)),
        ("mult entry changed", remade(algebra=bumped(n - 1, n - 1))),
        # a zero coproduct lies in every Takeuchi product, so the rows after
        # it run with one of source and target broken alone
        ("source scaled, delta zero", remade(
            source=scaled(bgd.source), coring=coring_with(delta=zero_delta))),
        ("target scaled, delta zero", remade(
            target=scaled(bgd.target), coring=coring_with(delta=zero_delta))),
    ]


BASE_ROWS = ["bgd.commuting-ranges", "bgd.bimodule-rule", "bgd.takeuchi",
             "bgd.delta-multiplicative", "bgd.delta-unital", "bgd.eps-unital",
             "bgd.eps-weak-mult"]


def test_each_base_row_bites_as_the_reference_does(an_smash):
    """On perturbed copies of both hands of EX-SMASH (base dimension 2) and
    of the twisted bialgebroid, every base row gives the reference's
    verdict, a TakeuchiViolation carries the reference's message, and each
    of the seven rows fails on at least one copy of each hand."""
    hands = list(an_smash.bialgebroids) + [_cleft_twist_sites(QQ)[1]]
    for bgd in hands:
        failed = set()
        for what, broken in _perturbations(bgd):
            got = _engine_axioms(broken, "broken")
            assert got == _reference_axioms(broken, "broken"), what
            rows, raised = got
            failed |= {check for check, status in rows if status == "fail"}
            if raised is not None:
                assert raised == "broken: coproduct image leaves the Takeuchi product"
                failed.add("bgd.takeuchi")
        assert failed == set(BASE_ROWS), (bgd, set(BASE_ROWS) - failed)


def test_comodule_algebra_and_translation_rows_bite(an_smash):
    """A doubled coaction fails both comodule-algebra rows, a changed C
    product the multiplicative one, and a doubled theta^{-1} all four
    (2.3) rows, on each hand and as the reference does."""
    b, pair = an_smash.bundle, an_smash.pair
    two = b.field.from_int(2)
    for bgd, th, side in zip(an_smash.bialgebroids,
                             (an_smash.theta_right, an_smash.theta_left), ("right", "left")):
        h = Hand(b, side, pair)
        doubled = copy.copy(pair)
        rho = h.rho
        vars(doubled)[h.pick("rho_T", "lrho_T")] = LinearMap(
            rho.domain, rho.codomain, rho.matrix.scale(two))
        changed = dict(_perturbations(bgd))["mult entry changed"]
        for p, broken, fails in ((doubled, copy.copy(bgd), 2), (pair, changed, 1)):
            broken.report = Report("engine")
            _comodule_algebra_rows(Hand(b, side, p), broken)
            ref = Report("reference")
            _reference_comodule_algebra(b, p, broken, ref)
            assert _rows(broken.report, "bgd.") == _rows(ref, "bgd.")
            assert [s for _, s in _rows(ref, "bgd.")].count("fail") == fails
        inv = th.theta_inv
        doubled_inv = LinearMap(inv.domain, inv.codomain, inv.matrix.scale(two))
        got, ref = Report("engine"), Report("reference")
        _translation_identities(bgd, th.chain_op, doubled_inv, got)
        _reference_translation_identities(bgd, th.chain_op, doubled_inv, ref)
        assert _rows(got, "theta.") == _rows(ref, "theta.")
        assert [s for _, s in _rows(got, "theta.")] == ["fail", "fail"]


def _reference_beta_actions(b, chain_TM, sub):
    """B-multiplication on the T-leg of a cotensor, one basis element at a
    time, joined into action matrices on B (x) sub and sub (x) B."""
    f = b.field
    rest = chain_TM.ambient.dim // b.T.dim
    id_rest = Matrix.identity(f, rest)
    lacts, racts = [], []
    for i in range(b.B.dim):
        bv = b.beta.map.apply(b.B.space.basis_vector(i))
        for mult, acts in ((_left_mult(b.T, bv), lacts), (_right_mult(b.T, bv), racts)):
            act = chain_TM.proj.matrix @ mult.kron(id_rest) @ chain_TM.sect.matrix
            acts.append(sub.coordinates(act @ sub.inclusion.matrix))
    return join_left(lacts), join_right(racts)


def test_monoidal_witness_maps_match_the_per_value_reference(an_smash):
    """On EX-SMASH (B of dimension 2) the coaction of the monoidal unit,
    xi0 and the B-actions on each cotensor equal their column loops."""
    b, pair, bC = an_smash.bundle, an_smash.pair, an_smash.bialgebroids[0]
    creg = an_smash.regular_comodule()
    w, data = monoidal_witness(b, pair, bC, creg)
    assert w.ok, w.report.summary()
    f, A, CA = b.field, b.A, data["A_com"].chain
    rho_A = [CA.proj.apply(outer(f, bC.target.map.apply(A.space.basis_vector(i)), A.unit))
             for i in range(A.dim)]
    assert data["A_com"].rho.matrix == Matrix.from_cols(f, rho_A)
    xi0 = [data["TA"].proj.apply(outer(f, b.beta.map.apply(b.B.space.basis_vector(i)), A.unit))
           for i in range(b.B.dim)]
    xi0_amb = LinearMap(b.B.space, data["TA"].carrier, Matrix.from_cols(f, xi0))
    assert w.xi0 == corestrict_through(data["S_A"].inclusion, xi0_amb, MembershipFailure, "xi0")
    for chain, sub in ((data["TM"], data["S1"]), (data["TMM"], data["S_MM"])):
        assert _beta_actions_on_cotensor(b, chain, sub) == _reference_beta_actions(b, chain, sub)


@pytest.mark.parametrize("leg", [0, 1])
def test_xi_bilinear_row_bites(an_smash, monkeypatch, leg):
    """A doubled left or right B-action on T box (M (x) M) fails
    thm5.4.xi-bilinear.  The actions are built twice: on the one factor
    T box M and then on the product."""
    calls = []

    def doubled_on_the_product(bundle, chain_TM, sub):
        acts = list(_beta_actions_on_cotensor(bundle, chain_TM, sub))
        calls.append(sub.space.name)
        if sub.space.name == "TboxMM":
            acts[leg] = acts[leg].scale(bundle.field.from_int(2))
        return tuple(acts)

    monkeypatch.setattr(bialgebroid, "_beta_actions_on_cotensor", doubled_on_the_product)
    creg = an_smash.regular_comodule()
    w, _ = monoidal_witness(an_smash.bundle, an_smash.pair, an_smash.bialgebroids[0], creg)
    assert calls == [f"Tbox{creg.name}", "TboxMM"]
    assert w.report.find("thm5.4.xi-bilinear").status == "fail"


def _doubled(lin: LinearMap) -> LinearMap:
    return LinearMap(lin.domain, lin.codomain, lin.matrix.scale(lin.domain.field.from_int(2)))


# the input each Section 5 row compares, doubled once monoidal_witness has run
SECTION5_PERTURBATIONS = {
    "thm5.6.eq5.12": lambda mp, an, data: mp.setattr(
        an.galois_right, "can", _doubled(an.galois_right.can)),
    "thm5.4.recovered-mult": lambda mp, an, data: mp.setitem(
        an.bundle._cache, "mu_TBT", _doubled(an.bundle.mu_TBT)),
    "thm5.4.recovered-unit": lambda mp, an, data: mp.setattr(
        an.bundle, "beta", AlgebraMap(an.bundle.B, an.bundle.T, _doubled(an.bundle.beta.map),
                                      check=False)),
    "thm5.4.recovered-xi": lambda mp, an, data: mp.setitem(
        data, "pair_reps", data["pair_reps"].scale(an.bundle.field.from_int(2))),
}


def _section5_rows(an, perturb=None):
    """The (5.12) and (5.11) rows on the regular comodule, as
    ``bialgebroid_report`` runs them, with ``perturb(data)`` applied to
    their inputs after the witness is built."""
    b, pair, bC = an.bundle, an.pair, an.bialgebroids[0]
    creg = an.regular_comodule()
    w, data = monoidal_witness(b, pair, bC, creg)
    if perturb is not None:
        perturb(data)
    rows = {"thm5.6.eq5.12": can_factorisation(b, pair, an.galois_right, data)}
    rows.update((c.check_id, c.status == "pass")
                for c in recovered_structure(b, pair, bC, data).checks)
    return rows


@pytest.mark.parametrize("name", ["EX-SW", "EX-SMASH"])
@pytest.mark.parametrize("row", sorted(SECTION5_PERTURBATIONS))
def test_each_section5_row_sees_its_own_input(monkeypatch, name, row):
    """Doubling the one input a row compares fails exactly that row of
    thm5.6.eq5.12 and thm5.4.recovered-mult/-unit/-xi; unperturbed, all
    four pass."""
    an = analysis(name)
    rows = _section5_rows(an)
    assert sorted(rows) == sorted(SECTION5_PERTURBATIONS) and all(rows.values())
    rows = _section5_rows(an, lambda data: SECTION5_PERTURBATIONS[row](monkeypatch, an, data))
    assert [r for r, ok in rows.items() if not ok] == [row]


def test_recovered_xi_refuses_an_unbalanced_formula(monkeypatch, an_smash):
    """With the two T legs of ``_rho_pair`` swapped, the recovered xi
    formula no longer kills the balancing relations of (T box C) (x)_B
    (T box C), a real quotient on EX-SMASH: its descent raises and names a
    relation, rather than reading ``fail``."""
    b, pair, bC = an_smash.bundle, an_smash.pair, an_smash.bialgebroids[0]
    n, rho_pair = b.T.dim, bialgebroid._rho_pair
    monkeypatch.setattr(bialgebroid, "_rho_pair", lambda bundle, p: permute_cols(
        rho_pair(bundle, p), [n, n], (1, 0)))
    _, data = monoidal_witness(b, pair, bC, an_smash.regular_comodule())
    S11 = data["S11"]
    assert S11.dim < S11.ambient.dim
    with pytest.raises(NotWellDefined, match="recovered xi is not balanced") as err:
        recovered_structure(b, pair, bC, data)
    witness = err.value.witness
    assert any(not b.field.is_zero(v) for v in witness)
    assert all(b.field.is_zero(v) for v in S11.proj.apply(witness))


def _reference_subalgebra(alg, sub, name, err, msg):
    """A subalgebra's structure constants, one product of basis vectors at
    a time."""
    f = alg.field
    sc = []
    for i in range(sub.dim):
        vi = sub.inclusion.matrix.col(i)
        for j in range(sub.dim):
            w = alg.mult.matrix.apply_pair(vi, sub.inclusion.matrix.col(j))
            if not sub.contains_vector(w):
                raise err(msg)
            sc += [(i, j, k, w[p]) for k, p in enumerate(sub.pivots) if w[p]]
    return make_algebra(f, sub.dim, sc, tuple(alg.unit[p] for p in sub.pivots), name)


def test_subalgebra_matches_the_per_value_reference(an_smash):
    """EX-SMASH's B inside T gives the reference's structure constants and
    unit; the span of y alone is not closed (y^2 = 1) and raises."""
    b = an_smash.bundle
    T, beta = b.T, b.beta.map.matrix
    B_in_T = Subspace.from_spanning(T.space, beta.transpose())
    got = _subalgebra(T, B_in_T, "B", AxiomFailure, "not closed")
    want = _reference_subalgebra(T, B_in_T, "B", AxiomFailure, "not closed")
    assert (got.mult.matrix, got.unit) == (want.mult.matrix, want.unit)
    y_only = Subspace.from_spanning(T.space, [beta.col(1)])
    for build in (_subalgebra, _reference_subalgebra):
        with pytest.raises(AxiomFailure, match="not closed"):
            build(T, y_only, "B", AxiomFailure, "not closed")
