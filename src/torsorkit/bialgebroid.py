"""Bialgebroids on the associated corings, their Galois maps, and the
monoidal-functor witnesses of a torsor.

The product on the A-side coring is inherited from T^op (x)_k T; closure in
the defining kernel and representative-independence are both verified before
any axiom is tested.  The Galois map theta of the resulting bialgebroid is
inverted (failure is the verdict "not a x_A-Hopf algebra") and the pentagon
and translation-map identities are checked as matrix equations on triple
balanced tensors with several non-adjacent balancing relations.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    AlgebraMap,
    Bimodule,
    TensorChain,
    Link,
    chain_map,
    chain_of_spaces,
    chain_outer_bimodule,
    corestrict_through,
    first_unbalanced,
    fix_left,
    fix_right,
    induce,
    join_left,
    join_right,
    opposite,
    tensor_chain,
    tensor_space,
)
from .coring import Comodule, Coring, check_grouplike, cotensor
from .errors import (
    AxiomFailure,
    ClosureFailure,
    Disagreement,
    IsoFailure,
    MembershipFailure,
    NotInvertible,
    NotTimesAHopf,
    ShapeMismatch,
    TakeuchiViolation,
)
from .linalg import Matrix, kron_apply, outer, permute_cols, permute_rows, split_leg
from .pretorsor import CoringPair, PreTorsorBundle
from .report import Report
from .spaces import LinearMap, Space, Subspace, intersect, invert, kernel


class RightBialgebroid:
    """A right bialgebroid structure on a coring, with validation report."""

    def __init__(self, coring: Coring, algebra: Algebra, source: AlgebraMap,
                 target: AlgebraMap, report: Report):
        self.coring = coring
        self.algebra = algebra          # product structure on the carrier
        self.source = source
        self.target = target
        self.report = report

    @property
    def base(self):
        return self.coring.base

    @property
    def dim(self):
        return self.coring.dim

    def s_vec(self, a):
        return self.source.map.apply(a)

    def t_vec(self, a):
        return self.target.map.apply(a)

    def left_mult(self, vec) -> Matrix:
        return self.algebra.left_mult_map(vec).matrix

    def __repr__(self):
        return f"RightBialgebroid({self.coring.name})"


class LeftBialgebroid(RightBialgebroid):
    def __repr__(self):
        return f"LeftBialgebroid({self.coring.name})"


def _bilinear_from_pairs(bundle, raw_amb: Matrix, chain: TensorChain,
                         sub: Subspace, name: str):
    """Descend a bilinear map on chain-ambient pairs to the subspace.

    ``raw_amb`` maps ambient (x)_k ambient into the chain carrier; it must
    kill the relations in each argument and send sub x sub into sub.
    """
    f = chain.ambient.field
    proj, sect = chain.proj.matrix, chain.sect.matrix
    reps = sect @ sub.inclusion.matrix
    # independence of the representative of either kernel element: with the
    # other argument in sub, raw_amb must kill ker(proj) on each leg
    legs, reps_t = [chain.ambient.dim] * 2, reps.transpose()
    for leg in (0, 1):
        on_leg = kron_apply(f, [None, reps_t], [raw_amb.nrows, chain.ambient.dim], None,
                            [split_leg(raw_amb, legs, leg)])
        if first_unbalanced(on_leg, proj, sect) is not None:
            raise ClosureFailure(f"{name}: product is not representative-independent")
    on_sub = raw_amb @ reps.kron(reps)
    on_sub_map = LinearMap(tensor_space([sub.space, sub.space]), chain.carrier, on_sub)
    if not sub.contains_map(on_sub_map):
        raise ClosureFailure(f"{name}: product leaves the defining kernel")
    return sub.retraction.matrix @ on_sub


def bialgebroid_from_torsor(bundle: PreTorsorBundle, pair: CoringPair):
    """The right bialgebroid on the A-side coring and the left one on the
    B-side coring of a torsor, with the full axiom sweeps."""
    b = bundle
    f = b.field
    C, D = pair.C, pair.D

    # product on C from T^op (x) T: (u(x)v)(u'(x)v') = u'u (x) vv'
    raw_c = permute_cols(b.TBT.proj.matrix @ b.mu.kron(b.mu),
                         [b.T.dim] * 4, (2, 0, 1, 3))
    mult_C_pairs = _bilinear_from_pairs(b, raw_c, b.TBT, pair.C_sub, f"{b.name}:C-product")
    gl_C = pair.grouplike_C
    if gl_C is None:
        raise AxiomFailure(f"{b.name}: bundle is not unital, no candidate unit")
    C_alg = Algebra(C.space,
                    LinearMap(tensor_space([C.space, C.space]), C.space, mult_C_pairs),
                    gl_C.element, name=f"Calg({b.name})")
    sC_cols = []
    tC_cols = []
    for i in range(b.A.dim):
        av = b.alpha.map.apply(b.A.space.basis_vector(i))
        amb = outer(f, b.T.unit, av)
        sC_cols.append(pair.C_sub.retraction.apply(b.TBT.proj.apply(amb)))
        amb2 = outer(f, av, b.T.unit)
        tC_cols.append(pair.C_sub.retraction.apply(b.TBT.proj.apply(amb2)))
    source_C = AlgebraMap(b.A, C_alg,
                          LinearMap.from_columns(b.A.space, C.space, sC_cols))
    target_C = AlgebraMap(b.A, C_alg,
                          LinearMap.from_columns(b.A.space, C.space, tC_cols),
                          anti=True)
    rep_C = Report(f"{b.name}:bialgebroid-C")
    _right_bialgebroid_sweep(b, pair, C, C_alg, source_C, target_C, rep_C)
    bgd_C = RightBialgebroid(C, C_alg, source_C, target_C, rep_C)

    # product on D from T (x) T^op: (u(x)v)(u'(x)v') = uu' (x) v'v
    raw_d = permute_cols(b.TAT.proj.matrix @ b.mu.kron(b.mu),
                         [b.T.dim] * 4, (0, 2, 3, 1))
    mult_D_pairs = _bilinear_from_pairs(b, raw_d, b.TAT, pair.D_sub, f"{b.name}:D-product")
    gl_D = pair.grouplike_D
    D_alg = Algebra(D.space,
                    LinearMap(tensor_space([D.space, D.space]), D.space, mult_D_pairs),
                    gl_D.element, name=f"Dalg({b.name})")
    sD_cols = []
    tD_cols = []
    for i in range(b.B.dim):
        bv = b.beta.map.apply(b.B.space.basis_vector(i))
        amb = outer(f, bv, b.T.unit)
        sD_cols.append(pair.D_sub.retraction.apply(b.TAT.proj.apply(amb)))
        amb2 = outer(f, b.T.unit, bv)
        tD_cols.append(pair.D_sub.retraction.apply(b.TAT.proj.apply(amb2)))
    source_D = AlgebraMap(b.B, D_alg,
                          LinearMap.from_columns(b.B.space, D.space, sD_cols))
    target_D = AlgebraMap(b.B, D_alg,
                          LinearMap.from_columns(b.B.space, D.space, tD_cols),
                          anti=True)
    rep_D = Report(f"{b.name}:bialgebroid-D")
    _left_bialgebroid_sweep(b, pair, D, D_alg, source_D, target_D, rep_D)
    bgd_D = LeftBialgebroid(D, D_alg, source_D, target_D, rep_D)
    return bgd_C, bgd_D


def _right_bialgebroid_sweep(b, pair, C: Coring, C_alg: Algebra,
                             source: AlgebraMap, target: AlgebraMap, rep: Report):
    f = b.field
    A = C.base
    # commuting ranges
    ok = True
    for i in range(A.dim):
        sa = source.map.apply(A.space.basis_vector(i))
        for j in range(A.dim):
            ta = target.map.apply(A.space.basis_vector(j))
            if C_alg.product_vec(sa, ta) != C_alg.product_vec(ta, sa):
                ok = False
    rep.add("bgd.commuting-ranges", "2(bgd)", ok)
    # coring bimodule rule: a.c.a' = c s(a') t(a)
    ok = True
    for i in range(A.dim):
        a = A.space.basis_vector(i)
        sa = source.map.apply(a)
        ta = target.map.apply(a)
        for k in range(C.dim):
            c = C.space.basis_vector(k)
            if C.carrier.lact_vec(a, c) != C_alg.product_vec(c, ta):
                ok = False
            if C.carrier.ract_vec(c, a) != C_alg.product_vec(c, sa):
                ok = False
    rep.add("bgd.bimodule-rule", "2(bgd)", ok)
    # Takeuchi membership of the coproduct image
    takeuchi = takeuchi_subspace_right(b, C, C_alg, source, target)
    ok = takeuchi.contains_map(C.delta)
    rep.add("bgd.takeuchi", "2(bgd)", ok)
    if not ok:
        raise TakeuchiViolation(f"{b.name}: coproduct image leaves the Takeuchi product")
    # Delta multiplicative and unital
    mult_pairs = _factorwise_product(C.cc, C_alg)
    lhs = C.delta.matrix @ C_alg.mult.matrix
    rhs = mult_pairs @ C.delta.matrix.kron(C.delta.matrix)
    rep.add("bgd.delta-multiplicative", "2(bgd)", lhs == rhs)
    one_cc = C.cc.proj.apply(outer(f, C_alg.unit, C_alg.unit))
    rep.add("bgd.delta-unital", "2(bgd)", C.delta.apply(C_alg.unit) == one_cc)
    # counit laws
    rep.add("bgd.eps-unital", "2(bgd)", C.eps.apply(C_alg.unit) == A.unit)
    ok = True
    for k in range(C.dim):
        c = C.space.basis_vector(k)
        eps_c = C.eps.apply(c)
        ls = C_alg.left_mult_map(source.map.apply(eps_c)).matrix
        lt = C_alg.left_mult_map(target.map.apply(eps_c)).matrix
        for kk in range(C.dim):
            cp = C.space.basis_vector(kk)
            v1 = C.eps.apply(ls.apply(cp))
            v2 = C.eps.apply(lt.apply(cp))
            v3 = C.eps.apply(C_alg.product_vec(c, cp))
            if v1 != v3 or v2 != v3:
                ok = False
    rep.add("bgd.eps-weak-mult", "2(bgd)", ok)
    # T is a comodule algebra
    TC = pair.TC
    mult_tc = _factorwise_product_mixed(TC, b.mu, C_alg.mult.matrix,
                                        [b.T.dim, C.dim])
    lhs = pair.rho_T.matrix @ b.mu
    rhs = mult_tc @ pair.rho_T.matrix.kron(pair.rho_T.matrix)
    rep.add("bgd.comodule-algebra", "5.2", lhs == rhs)
    one_tc = TC.proj.apply(outer(f, b.T.unit, C_alg.unit))
    rep.add("bgd.comodule-algebra-unital", "5.2",
            pair.rho_T.apply(tuple(b.T.unit)) == one_tc)
    if not rep.ok:
        raise AxiomFailure(f"{b.name}: right bialgebroid sweep failed: "
                           + ", ".join(c.check_id for c in rep.failures()))


def _left_bialgebroid_sweep(b, pair, D: Coring, D_alg: Algebra,
                            source: AlgebraMap, target: AlgebraMap, rep: Report):
    left_bialgebroid_axioms(D, D_alg, source, target, rep)
    f = b.field
    DT = pair.DT
    mult_dt = _factorwise_product_mixed(DT, D_alg.mult.matrix, b.mu,
                                        [D.dim, b.T.dim])
    lhs = pair.lrho_T.matrix @ b.mu
    rhs = mult_dt @ pair.lrho_T.matrix.kron(pair.lrho_T.matrix)
    rep.add("bgd.comodule-algebra", "5.2", lhs == rhs)
    one_dt = DT.proj.apply(outer(f, D_alg.unit, b.T.unit))
    rep.add("bgd.comodule-algebra-unital", "5.2",
            pair.lrho_T.apply(tuple(b.T.unit)) == one_dt)
    if not rep.ok:
        raise AxiomFailure(f"{b.name}: left bialgebroid sweep failed: "
                           + ", ".join(c.check_id for c in rep.failures()))


def left_bialgebroid_axioms(D: Coring, D_alg: Algebra,
                            source: AlgebraMap, target: AlgebraMap, rep: Report):
    """The base-algebra-only axioms of a left bialgebroid (no comodule
    algebra): commuting ranges, the bimodule rule, Takeuchi membership,
    multiplicativity of the coproduct and the weak counit laws."""
    f = D.field
    B = D.base
    ok = True
    for i in range(B.dim):
        sb = source.map.apply(B.space.basis_vector(i))
        for j in range(B.dim):
            tb = target.map.apply(B.space.basis_vector(j))
            if D_alg.product_vec(sb, tb) != D_alg.product_vec(tb, sb):
                ok = False
    rep.add("bgd.commuting-ranges", "2(bgd)", ok)
    # left rule: b.d.b' = s(b) t(b') d
    ok = True
    for i in range(B.dim):
        a = B.space.basis_vector(i)
        sb = source.map.apply(a)
        tb = target.map.apply(a)
        for k in range(D.dim):
            d = D.space.basis_vector(k)
            if D.carrier.lact_vec(a, d) != D_alg.product_vec(sb, d):
                ok = False
            if D.carrier.ract_vec(d, a) != D_alg.product_vec(tb, d):
                ok = False
    rep.add("bgd.bimodule-rule", "2(bgd)", ok)
    takeuchi = takeuchi_subspace_left(D, D_alg, source, target)
    ok = takeuchi.contains_map(D.delta)
    rep.add("bgd.takeuchi", "2(bgd)", ok)
    if not ok:
        raise TakeuchiViolation(f"{D.name}: coproduct image leaves the Takeuchi product")
    mult_pairs = _factorwise_product(D.cc, D_alg)
    lhs = D.delta.matrix @ D_alg.mult.matrix
    rhs = mult_pairs @ D.delta.matrix.kron(D.delta.matrix)
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
            v1 = D.eps.apply(D_alg.product_vec(d, source.map.apply(eps_dp)))
            v2 = D.eps.apply(D_alg.product_vec(d, target.map.apply(eps_dp)))
            v3 = D.eps.apply(D_alg.product_vec(d, dp))
            if v1 != v3 or v2 != v3:
                ok = False
    rep.add("bgd.eps-weak-mult", "2(bgd)", ok)


def _factorwise_product(cc: TensorChain, alg: Algebra) -> Matrix:
    """(c (x) c')(d (x) d') = cd (x) c'd' on canonical representatives."""
    mult = alg.mult.matrix
    return _factorwise_product_mixed(cc, mult, mult, [alg.dim, alg.dim])


def _factorwise_product_mixed(chain: TensorChain, mult1: Matrix, mult2: Matrix,
                              dims, order=(0, 2, 1, 3)) -> Matrix:
    """mult1 (x) mult2 on pairs of representatives whose legs ``order``
    interleaves, landed in the chain carrier."""
    sect = chain.sect.matrix
    return chain.proj.matrix @ kron_apply(chain.ambient.field, [mult1, mult2],
                                          dims + dims, order, [sect, sect])


def takeuchi_subspace_right(b, C: Coring, C_alg: Algebra,
                            source: AlgebraMap, target: AlgebraMap) -> Subspace:
    """{ sum c (x) c' : s(a) c (x) c' = c (x) t(a) c' for all a }."""
    f = b.field
    A = C.base
    idC = Matrix.identity(f, C.dim)
    subs = []
    for i in range(A.dim):
        a = A.space.basis_vector(i)
        ls = C_alg.left_mult_map(source.map.apply(a)).matrix
        lt = C_alg.left_mult_map(target.map.apply(a)).matrix
        m1 = C.cc.proj.matrix @ ls.kron(idC) @ C.cc.sect.matrix
        m2 = C.cc.proj.matrix @ idC.kron(lt) @ C.cc.sect.matrix
        subs.append(kernel(LinearMap(C.cc.carrier, C.cc.carrier, m1 - m2)))
    return intersect(subs, "takeuchi") if subs else None


def takeuchi_subspace_left(D: Coring, D_alg: Algebra,
                           source: AlgebraMap, target: AlgebraMap) -> Subspace:
    """{ sum x (x) y : x t(b) (x) y = x (x) y s(b) for all b }."""
    f = D.field
    B = D.base
    idD = Matrix.identity(f, D.dim)
    subs = []
    for i in range(B.dim):
        a = B.space.basis_vector(i)
        rt = D_alg.right_mult_map(target.map.apply(a)).matrix
        rs = D_alg.right_mult_map(source.map.apply(a)).matrix
        m1 = D.cc.proj.matrix @ rt.kron(idD) @ D.cc.sect.matrix
        m2 = D.cc.proj.matrix @ idD.kron(rs) @ D.cc.sect.matrix
        subs.append(kernel(LinearMap(D.cc.carrier, D.cc.carrier, m1 - m2)))
    return intersect(subs, "takeuchi") if subs else None


# ---------------------------------------------------------------------------
# theta


class ThetaData:
    def __init__(self, theta: LinearMap, theta_inv: LinearMap,
                 chain_op: TensorChain, report: Report):
        self.theta = theta
        self.theta_inv = theta_inv
        self.chain_op = chain_op       # the A^op-balanced square
        self.report = report


def _op_bimodules(bgd):
    """C as a bimodule over A^op via the target map, plus mixed taggings.

    The A^op-bimodule is the factor of the A^op-balanced square on which
    theta is defined, for a right and a left bialgebroid alike."""
    A_op = opposite(bgd.base)
    C = bgd.coring
    f, n, mult, t = C.field, C.dim, bgd.algebra.mult.matrix, bgd.target.map.matrix
    lact = LinearMap(tensor_space([A_op.space, C.space]), C.space,
                     kron_apply(f, [mult], [n, n], None, [t, None]))
    ract = LinearMap(tensor_space([C.space, A_op.space]), C.space,
                     kron_apply(f, [mult], [n, n], None, [None, t]))
    C_opop = Bimodule(C.space, A_op, A_op, lact, ract, check=False)
    # mixed: left A^op (target, left mult), right A (source, right mult)
    C_L = Bimodule(C.space, A_op, bgd.base, lact, C.carrier.ract, check=False)
    return A_op, C_opop, C_L


def theta(bgd: RightBialgebroid) -> ThetaData:
    """The bialgebroid Galois map c (x) c' -> c Delta(c') and its inverse.

    For a left bialgebroid the mirror map Delta(x) y with the opposite
    balancing via the source map is used.
    """
    f = bgd.coring.field
    C = bgd.coring
    rep = Report(f"{C.name}:theta")
    left_handed = isinstance(bgd, LeftBialgebroid)
    op_data = _op_bimodules(bgd)
    chain_op = tensor_chain([op_data[1], op_data[1]], [op_data[0]])
    mult, split = bgd.algebra.mult.matrix, C.cc.sect.matrix @ C.delta.matrix
    if left_handed:
        raw = kron_apply(f, [None, mult], [C.dim] * 3, None, [split, None])
    else:
        raw = kron_apply(f, [mult, None], [C.dim] * 3, None, [None, split])
    th = induce(chain_op, LinearMap(
        chain_op.ambient, C.cc.carrier, C.cc.proj.matrix @ raw), "theta")
    try:
        th_inv = invert(th)
    except NotInvertible as exc:
        raise NotTimesAHopf(
            f"{C.name}: bialgebroid Galois map is not bijective",
            rank_deficit=th.domain.dim - (exc.rank or 0)) from None
    rep.add("theta.bijective", "(2.1)", True,
            dims={"domain": th.domain.dim})
    if left_handed:
        _left_theta_identities(bgd, chain_op, th, th_inv, rep)
    else:
        _right_theta_identities(bgd, chain_op, th, th_inv, rep, op_data)
    if not rep.ok:
        raise NotTimesAHopf(f"{C.name}: theta identities failed: "
                            + ", ".join(c.check_id for c in rep.failures()))
    return ThetaData(th, th_inv, chain_op, rep)


def _right_theta_identities(bgd, chain_op, th, th_inv, rep, op_data):
    f = bgd.coring.field
    C = bgd.coring
    A = bgd.base
    # translation identities: theta^{-1}(1 (x) t(a)) = s(a) (x) 1 and
    # theta^{-1}(1 (x) s(a)) = 1 (x) s(a)
    ok1 = ok2 = True
    for i in range(A.dim):
        a = A.space.basis_vector(i)
        ta, sa = bgd.t_vec(a), bgd.s_vec(a)
        one = bgd.algebra.unit
        lhs = th_inv.apply(C.cc.proj.apply(outer(f, one, ta)))
        rhs = chain_op.proj.apply(outer(f, sa, one))
        if lhs != rhs:
            ok1 = False
        lhs = th_inv.apply(C.cc.proj.apply(outer(f, one, sa)))
        rhs = chain_op.proj.apply(outer(f, one, sa))
        if lhs != rhs:
            ok2 = False
    rep.add("theta.eq2.3-target", "(2.3)", ok1)
    rep.add("theta.eq2.3-source", "(2.3)", ok2)
    # translation map is an algebra map into C^op (x) C
    chi = th_inv.matrix @ C.cc.proj.matrix @ _left_tensor_unit(f, bgd)
    mult = bgd.algebra.mult.matrix
    prod_op = _factorwise_product_mixed(chain_op, mult, mult, [C.dim] * 2, (2, 0, 1, 3))
    lhs = chi @ bgd.algebra.mult.matrix
    rhs = prod_op @ chi.kron(chi)
    rep.add("theta.translation-multiplicative", "2(bgd)", lhs == rhs)
    _pentagon_right(bgd, chain_op, th, rep, op_data)


def _left_tensor_unit(f, bgd) -> Matrix:
    """c -> 1 (x) c at the pair-ambient level."""
    one_col = Matrix(f, [(x,) for x in bgd.algebra.unit], 1)
    return one_col.kron(Matrix.identity(f, bgd.dim))


def _pentagon_right(bgd, chain_op, th, rep, op_data):
    f = bgd.coring.field
    C = bgd.coring
    A_op, C_opop, C_L = op_data
    idC = Matrix.identity(f, C.dim)
    Y1 = tensor_chain([C_opop, C_opop, C_opop], [A_op, A_op])
    Z = tensor_chain([C.carrier, C.carrier, C.carrier], [bgd.base, bgd.base])
    M_mid = tensor_chain([C_opop, C_L, C.carrier], [A_op, bgd.base])
    lhs = (chain_map(M_mid, [(2, th, 2), (1, None, 1)], Z)
           @ chain_map(Y1, [(1, None, 1), (2, th, 2)], M_mid))
    # right-hand side through theta_13
    M2 = tensor_chain([C.carrier, C.carrier, C_opop], [bgd.base, None],
                      extra_links=[Link(0, 2, A_op, C_opop.ract, C_opop.lact)])
    M3 = tensor_chain([C.carrier, C_opop, C_opop], [None, A_op],
                      extra_links=[Link(0, 2, bgd.base, C.carrier.ract,
                                        C.carrier.lact)])
    first = chain_map(Y1, [(2, th, 2), (1, None, 1)], M2)
    raw13 = (bgd.algebra.mult.matrix.kron(idC).kron(idC)
             @ permute_rows(idC.kron(idC).kron(C.cc.sect.matrix @ C.delta.matrix),
                            [C.dim] * 4, (0, 2, 1, 3)))
    th13 = induce(M2, LinearMap(M2.ambient, M3.carrier,
                                M3.proj.matrix @ raw13), "theta13")
    last = chain_map(M3, [(1, None, 1), (2, th, 2)], Z)
    rhs = last @ th13 @ first
    rep.add("theta.pentagon", "(2.2)", lhs == rhs)


def _left_theta_identities(bgd, chain_op, th, th_inv, rep):
    """Translation identities for the left Galois map Delta(x)y.

    The translation is theta^{-1}(- (x) 1): it sends t(b) to 1 (x) s(b) and
    s(b) to s(b) (x) 1 (mirrors of the right-handed identities).
    """
    f = bgd.coring.field
    D = bgd.coring
    B = bgd.base
    ok1 = ok2 = True
    one = bgd.algebra.unit
    for i in range(B.dim):
        a = B.space.basis_vector(i)
        tb, sb = bgd.t_vec(a), bgd.s_vec(a)
        lhs = th_inv.apply(D.cc.proj.apply(outer(f, tb, one)))
        rhs = chain_op.proj.apply(outer(f, one, sb))
        if lhs != rhs:
            ok1 = False
        lhs = th_inv.apply(D.cc.proj.apply(outer(f, sb, one)))
        rhs = chain_op.proj.apply(outer(f, sb, one))
        if lhs != rhs:
            ok2 = False
    rep.add("theta.eq2.3-mirror-target", "(2.3)", ok1)
    rep.add("theta.eq2.3-mirror-source", "(2.3)", ok2)


# ---------------------------------------------------------------------------
# diagonal coinvariants


def _diagonal_coactions_raw(b: PreTorsorBundle):
    """The right and left diagonal coactions on pair representatives, each
    from T (x) T to the fourfold ambient:
    u (x) v -> u1 (x) v1 (x) v2 u2 (x) u3 v3 and u1 v1 (x) v2 u2 (x) u3 (x) v3.

    Both finish from one ``tau_pair_inner`` (the middle product v2 u2
    already contracted, t1 (x) t'1 (x) t'2 t2 (x) t3 (x) t'3): mu on its last
    two legs gives the right coaction, mu on its first two the left."""
    n, W = b.T.dim, b.tau_pair_inner()
    return (kron_apply(b.field, [None, None, None, b.mu], [n] * 5, None, [W]),
            kron_apply(b.field, [b.mu, None, None, None], [n] * 5, None, [W]))


def diagonal_coinvariants(bundle: PreTorsorBundle, pair: CoringPair) -> Report:
    """The two corings as coinvariants of diagonal coactions.

    The B-coring equals the coinvariants of T (x)_A T under the diagonal
    right coaction, and the A-coring those of T (x)_B T under the diagonal
    left coaction, both as canonical subspaces.
    """
    b = bundle
    f = b.field
    rep = Report(f"{b.name}:diagonal-coinvariants")
    C, D = pair.C, pair.D
    raw, raw2 = _diagonal_coactions_raw(b)

    # right coaction on T (x)_A T: u (x) v -> u1 (x) v1 (x) (v2 u2 (x) u3 v3)
    X4diag = tensor_chain([b.T_BA, b.T_AA, b.T_AB, b.T_BA], [b.A, b.A, b.B])
    to_big = b.to_chain(b.TAT, raw, X4diag, "diag-C-coaction")
    TTC = tensor_chain([b.T_BA, b.T_AA, C.carrier], [b.A, b.A])
    j = chain_map(TTC, [(1, None, 1), (1, None, 1),
                        (1, pair.C_sub.inclusion, 2)], X4diag)
    rho_diag = corestrict_through(j, to_big, MembershipFailure,
                                  f"{b.name}: diagonal coaction misses (TxT)xC")
    gC = Matrix(f, [(x,) for x in pair.grouplike_C.element], 1)
    ref = LinearMap(b.TAT.carrier, TTC.carrier,
                    TTC.proj.matrix @ b.TAT.sect.matrix.kron(gC))
    coinv = kernel(rho_diag - ref, "D-diag")
    ok = coinv == pair.D_sub
    rep.add("lem5.3.D", "5.3", ok,
            dims={"coinvariants": coinv.dim, "D": pair.D_sub.dim})
    if not ok:
        raise Disagreement(f"{b.name}: diagonal coinvariants differ from D")

    # left coaction on T (x)_B T: u (x) v -> (u1 v1 (x) v2 u2) (x) u3 (x) v3
    X4diag2 = tensor_chain([b.T_BA, b.T_AB, b.T_BB, b.T_BA], [b.A, b.B, b.B])
    to_big2 = b.to_chain(b.TBT, raw2, X4diag2, "diag-D-coaction")
    DTT = tensor_chain([D.carrier, b.T_BB, b.T_BA], [b.B, b.B])
    j2 = chain_map(DTT, [(1, pair.D_sub.inclusion, 2), (1, None, 1),
                         (1, None, 1)], X4diag2)
    lrho_diag = corestrict_through(j2, to_big2, MembershipFailure,
                                   f"{b.name}: diagonal coaction misses Dx(TxT)")
    gD = Matrix(f, [(x,) for x in pair.grouplike_D.element], 1)
    ref2 = LinearMap(b.TBT.carrier, DTT.carrier,
                     DTT.proj.matrix @ gD.kron(b.TBT.sect.matrix))
    coinv2 = kernel(lrho_diag - ref2, "C-diag")
    ok = coinv2 == pair.C_sub
    rep.add("lem5.3.C", "5.3", ok,
            dims={"coinvariants": coinv2.dim, "C": pair.C_sub.dim})
    if not ok:
        raise Disagreement(f"{b.name}: diagonal coinvariants differ from C")
    return rep


# ---------------------------------------------------------------------------
# induced actions on comodules


def comodule_actions(M: Comodule, bgd: RightBialgebroid):
    """Install the induced base action on a left comodule of a right
    bialgebroid and verify the Takeuchi membership of its coaction.

    Returns (enriched comodule, report).
    """
    if M.side != "left" or M.coring is not bgd.coring:
        raise ShapeMismatch("need a left comodule over the bialgebroid coring")
    C = bgd.coring
    A = bgd.base
    f = C.field
    rep = Report(f"{M.name}:induced-action")
    CM = M.chain
    rho_exp = CM.sect.matrix @ M.rho.matrix
    idM = Matrix.identity(f, M.dim)
    mult, n = bgd.algebra.mult.matrix, C.dim
    # m . a = eps(s(a) m_(-1)) . m_(0), and the same with t(a) for s(a)
    s_act, t_act = (M.carrier.lact.matrix @ kron_apply(
        f, [C.eps.matrix @ kron_apply(f, [mult], [n, n], None, [st.map.matrix, None]), None],
        [n, M.dim, A.dim], (2, 0, 1), [rho_exp, None]) for st in (bgd.source, bgd.target))
    ok = s_act == t_act
    rep.add("act.s-t-agree", "2(comod)", ok)
    if not ok:
        raise AxiomFailure(f"{M.name}: source and target action forms disagree")
    ract = LinearMap(tensor_space([M.space, A.space]), M.space, s_act)
    new_bim = Bimodule(M.space, A, A, M.carrier.lact, ract)
    # Takeuchi membership of the coaction
    subs = []
    idC = Matrix.identity(f, C.dim)
    for i in range(A.dim):
        a = A.space.basis_vector(i)
        ls = bgd.left_mult(bgd.s_vec(a))
        m1 = CM.proj.matrix @ idC.kron(fix_right(s_act, M.dim, a)) @ CM.sect.matrix
        m2 = CM.proj.matrix @ ls.kron(idM) @ CM.sect.matrix
        subs.append(kernel(LinearMap(CM.carrier, CM.carrier, m1 - m2)))
    tak = intersect(subs, "takeuchi") if subs else None
    ok = tak.contains_map(M.rho)
    rep.add("act.takeuchi", "2(comod)", ok)
    if not ok:
        raise TakeuchiViolation(f"{M.name}: coaction leaves the Takeuchi product")
    enriched = Comodule(C, new_bim, "left", M.rho, M.name)
    return enriched, rep


def monoidal_product(bgd: RightBialgebroid, M: Comodule, Mp: Comodule,
                     K: Algebra):
    """M (x)_{A^op} M' with the diagonal coaction, as a validated comodule.

    Both factors must carry the induced base actions (see comodule_actions).
    """
    C = bgd.coring
    A = bgd.base
    f = C.field
    A_op = opposite(A)
    link = _opposite_link(A_op, M.carrier, Mp.carrier)
    MM = chain_of_spaces([M.space, Mp.space], [link])
    # carrier bimodule: left A through the second factor, trivial right
    lact = LinearMap(tensor_space([A.space, MM.carrier]), MM.carrier,
                     MM.proj.matrix @ kron_apply(f, [None, Mp.carrier.lact.matrix],
                                                 [A.dim, M.dim, Mp.dim], (1, 0, 2),
                                                 [None, MM.sect.matrix]))
    ract = LinearMap(tensor_space([MM.carrier, K.space]), MM.carrier,
                     Matrix.identity(f, MM.dim))
    MM_bim = Bimodule(MM.carrier, A, K, lact, ract)
    # diagonal coaction
    CMM = chain_of_spaces(
        [C.space, M.space, Mp.space],
        [Link(1, 2, A_op, link.act_i, link.act_j),
         Link(0, 2, A, C.carrier.ract, Mp.carrier.lact)])
    rho_M = M.chain.sect.matrix @ M.rho.matrix
    rho_Mp = Mp.chain.sect.matrix @ Mp.rho.matrix
    raw = (bgd.algebra.mult.matrix.kron(Matrix.identity(f, M.dim))
           .kron(Matrix.identity(f, Mp.dim))
           @ permute_rows(rho_M.kron(rho_Mp),
                          [C.dim, M.dim, C.dim, Mp.dim], (0, 2, 1, 3)))
    rho_amb = LinearMap(MM.ambient, CMM.carrier, CMM.proj.matrix @ raw)
    rho_MM_big = induce(MM, rho_amb, "diagonal coaction")
    # view C (x) (M (x) M') through the pair chain
    CMM2 = tensor_chain([C.carrier, MM_bim], [A])
    j_map = _pair_to_triple(C, MM, MM_bim, CMM2, CMM)
    rho_MM = corestrict_through(j_map, rho_MM_big, MembershipFailure,
                                "diagonal coaction misses C (x) (M (x) M')")
    com = Comodule(bgd.coring, MM_bim, "left", rho_MM, f"{M.name}(x){Mp.name}")
    return com, MM


def _opposite_link(A_op: Algebra, M: Bimodule, Mp: Bimodule) -> Link:
    """The balancing of M (x)_{A^op} M': the right A^op-action on M is its
    left A-action, the left A^op-action on M' its right A-action."""
    n = A_op.dim
    return Link(0, 1, A_op,
                LinearMap(tensor_space([M.space, A_op.space]), M.space,
                          permute_cols(M.lact.matrix, [M.dim, n], (1, 0))),
                LinearMap(tensor_space([A_op.space, Mp.space]), Mp.space,
                          permute_cols(Mp.ract.matrix, [n, Mp.dim], (1, 0))))


def _pair_to_triple(C, MM, MM_bim, CMM2, CMM) -> LinearMap:
    """Identify C (x)_A (MxM') with the triple chain via representatives."""
    f = C.field
    idC = Matrix.identity(f, C.dim)
    raw = idC.kron(MM.sect.matrix) @ CMM2.sect.matrix
    return LinearMap(CMM2.carrier, CMM.carrier, CMM.proj.matrix @ raw)


# ---------------------------------------------------------------------------
# monoidal witnesses


class MonoidalWitness:
    def __init__(self, xi0, xi, unit_cotensor, product_cotensor, report):
        self.xi0 = xi0
        self.xi = xi
        self.unit_cotensor = unit_cotensor
        self.product_cotensor = product_cotensor
        self.report = report

    @property
    def ok(self):
        return self.report.ok


def _beta_actions_on_cotensor(bundle, chain_TM, sub: Subspace):
    """Left and right B-multiplication on the T-leg, restricted to a
    cotensor subspace (torsor case: both stabilise it)."""
    b = bundle
    f = b.field
    rest = 1
    for s in chain_TM.factor_spaces[1:]:
        rest *= s.dim
    id_rest = Matrix.identity(f, rest)
    lacts, racts = [], []
    for i in range(b.B.dim):
        bv = b.beta.map.apply(b.B.space.basis_vector(i))
        lm = b.T.left_mult_map(bv).matrix
        rm = b.T.right_mult_map(bv).matrix
        act_l = chain_TM.proj.matrix @ lm.kron(id_rest) @ chain_TM.sect.matrix
        act_r = chain_TM.proj.matrix @ rm.kron(id_rest) @ chain_TM.sect.matrix
        for mat in (act_l, act_r):
            img = LinearMap(sub.space, chain_TM.carrier,
                            mat @ sub.inclusion.matrix)
            if not sub.contains_map(img):
                raise MembershipFailure(
                    f"{bundle.name}: base multiplication leaves the cotensor")
        lacts.append(sub.retraction.matrix @ act_l @ sub.inclusion.matrix)
        racts.append(sub.retraction.matrix @ act_r @ sub.inclusion.matrix)
    return lacts, racts


def _bb_bimodule(bundle, sub: Subspace, lacts, racts) -> Bimodule:
    B = bundle.B
    return Bimodule(sub.space, B, B,
                    LinearMap(tensor_space([B.space, sub.space]), sub.space, join_left(lacts)),
                    LinearMap(tensor_space([sub.space, B.space]), sub.space, join_right(racts)))


def monoidal_witness(bundle: PreTorsorBundle, pair: CoringPair,
                     bgd: RightBialgebroid, M: Comodule, Mp: Comodule,
                     gal_right=None, theta_data: ThetaData | None = None,
                     K: Algebra | None = None):
    """The lax monoidal structure maps on the cotensor functor.

    Builds xi0: B -> T box A and xi: (T box M) (x)_B (T box M') ->
    T box (M (x) M'), checks bilinearity, cotensor membership and
    bijectivity, and verifies the factorisation of the canonical map through
    xi_{C,C} plus the recovered-structure consistency chain.
    """
    b = bundle
    f = b.field
    C = pair.C
    A = b.A
    rep = Report(f"{b.name}:monoidal-{M.name}-{Mp.name}")
    if K is None:
        from .fixtures import field_algebra
        K = field_algebra(f)
    T_right = Comodule(C, b.T_BA, "right", pair.rho_T, "T", check=False)

    # the monoidal unit: A with coaction through the target map
    from .algebra import regular_bimodule
    A_bim = regular_bimodule(A)
    CA = tensor_chain([C.carrier, A_bim], [A])
    rho_A_cols = []
    for i in range(A.dim):
        ta = bgd.t_vec(A.space.basis_vector(i))
        rho_A_cols.append(CA.proj.apply(outer(f, ta, A.unit)))
    rho_A = LinearMap.from_columns(A.space, CA.carrier, rho_A_cols)
    A_com = Comodule(C, A_bim, "left", rho_A, "A")
    S_A = cotensor(T_right, A_com, "TboxA")
    TA = tensor_chain([b.T_BA, A_bim], [A])
    xi0_cols = []
    for i in range(b.B.dim):
        bv = b.beta.map.apply(b.B.space.basis_vector(i))
        xi0_cols.append(TA.proj.apply(outer(f, bv, A.unit)))
    xi0_amb = LinearMap.from_columns(b.B.space, TA.carrier, xi0_cols)
    xi0 = corestrict_through(S_A.inclusion, xi0_amb, MembershipFailure,
                             f"{b.name}: xi0 misses the cotensor")
    rep.add("thm5.4.xi0-bijective", "(5.1)",
            xi0.rank() == b.B.dim and S_A.dim == b.B.dim,
            dims={"B": b.B.dim, "T box A": S_A.dim})

    # the product comodule and xi
    MM_com, MM = monoidal_product(bgd, M, Mp, K)
    S_MM = cotensor(T_right, MM_com, "TboxMM")
    TMM = tensor_chain([b.T_BA, MM_com.carrier], [A])
    TM = tensor_chain([b.T_BA, M.carrier], [A])
    TMp = tensor_chain([b.T_BA, Mp.carrier], [A])
    S1 = cotensor(T_right, M, f"Tbox{M.name}")
    S1p = cotensor(T_right, Mp, f"Tbox{Mp.name}")
    l1, r1 = _beta_actions_on_cotensor(b, TM, S1)
    l2, r2 = _beta_actions_on_cotensor(b, TMp, S1p)
    S1_bb = _bb_bimodule(b, S1, l1, r1)
    S1p_bb = _bb_bimodule(b, S1p, l2, r2)
    S11 = tensor_chain([S1_bb, S1p_bb], [b.B])
    raw = (b.mu.kron(MM.proj.matrix)
           @ permute_rows((TM.sect.matrix @ S1.inclusion.matrix).kron(
               TMp.sect.matrix @ S1p.inclusion.matrix),
               [b.T.dim, M.dim, b.T.dim, Mp.dim], (0, 2, 1, 3)))
    to_TMM = induce(S11, LinearMap(S11.ambient, TMM.carrier,
                                   TMM.proj.matrix @ raw), "xi")
    xi = corestrict_through(S_MM.inclusion, to_TMM, MembershipFailure,
                            f"{b.name}: xi misses the cotensor")
    rep.add("thm5.4.xi-bijective", "(5.2)",
            S11.dim == S_MM.dim and xi.rank() == S11.dim,
            dims={"domain": S11.dim, "codomain": S_MM.dim})

    # B-B bilinearity of xi
    lmm, rmm = _beta_actions_on_cotensor(b, TMM, S_MM)
    s11_outer = chain_outer_bimodule(S11, S1_bb, S1p_bb)
    ok = True
    for i in range(b.B.dim):
        a = b.B.space.basis_vector(i)
        lact_fix = fix_left(s11_outer.lact.matrix, a, S11.dim)
        ract_fix = fix_right(s11_outer.ract.matrix, S11.dim, a)
        if xi.matrix @ lact_fix != lmm[i] @ xi.matrix:
            ok = False
        if xi.matrix @ ract_fix != rmm[i] @ xi.matrix:
            ok = False
    rep.add("thm5.4.xi-bilinear", "(5.2)", ok)

    witness = MonoidalWitness(xi0, xi, S_A, S_MM, rep)
    return witness, {"MM_com": MM_com, "MM": MM, "S1": S1, "S1p": S1p,
                     "S11": S11, "S_MM": S_MM, "TMM": TMM, "TM": TM,
                     "A_com": A_com, "S_A": S_A, "TA": TA}


def can_factorisation(bundle: PreTorsorBundle, pair: CoringPair,
                      bgd: RightBialgebroid, gal_right, witness_data) -> bool:
    """can = (T box (eps (x) C)) o xi_{C,C} o (rho (x)_B rho), matrix-exact."""
    b = bundle
    f = b.field
    C = pair.C
    S1 = witness_data["S1"]
    S1p = witness_data["S1p"]
    S11 = witness_data["S11"]
    S_MM = witness_data["S_MM"]
    TMM = witness_data["TMM"]
    MM = witness_data["MM"]
    xi = witness_data["xi"]
    rhoS1 = corestrict_through(S1.inclusion, pair.rho_T, MembershipFailure,
                               f"{b.name}: rho misses T box C")
    rhoS1p = corestrict_through(S1p.inclusion, pair.rho_T, MembershipFailure,
                                f"{b.name}: rho misses T box C")
    step1 = chain_map(b.TBT, [(1, rhoS1, 1), (1, rhoS1p, 1)], S11, "rho x rho")
    idC = Matrix.identity(f, C.dim)
    alpha_eps = b.alpha.map.matrix @ C.eps.matrix
    final_raw = (pair.TC.proj.matrix
                 @ (b.mu @ b.idT.kron(alpha_eps)).kron(idC)
                 @ b.idT.kron(MM.sect.matrix) @ TMM.sect.matrix
                 @ S_MM.inclusion.matrix)
    final = LinearMap(S_MM.space, pair.TC.carrier, final_raw)
    composite = final @ xi @ step1
    return composite == gal_right.can


# ---------------------------------------------------------------------------
# the cotensor-with-cofree isomorphism


def _left_module_wrap(A: Algebra, space: Space, lact: LinearMap, K: Algebra) -> Bimodule:
    ident = Matrix.identity(space.field, space.dim)
    return Bimodule(space, A, K, lact, LinearMap(tensor_space([space, K.space]), space, ident))


def cofree_comodule(bgd: RightBialgebroid, N_bim: Bimodule):
    """C (x)_A N with the coaction through the first factor, validated."""
    C = bgd.coring
    A = bgd.base
    CN = tensor_chain([C.carrier, N_bim], [A])
    CN_bim = chain_outer_bimodule(CN, C.carrier, N_bim)
    CCN = tensor_chain([C.carrier, C.carrier, N_bim], [A, A])
    big = chain_map(CN, [(1, C.delta, 2), (1, None, 1)], CCN)
    CCN2 = tensor_chain([C.carrier, CN_bim], [A])
    f = C.field
    j = LinearMap(CCN2.carrier, CCN.carrier,
                  CCN.proj.matrix @ Matrix.identity(f, C.dim).kron(CN.sect.matrix)
                  @ CCN2.sect.matrix)
    rho = corestrict_through(j, big, MembershipFailure,
                             "cofree coaction misses the pair chain")
    return Comodule(C, CN_bim, "left", rho, f"C(x){N_bim.space.name}"), CN


def lemma55_check(bundle: PreTorsorBundle, pair: CoringPair,
                  bgd: RightBialgebroid, th: ThetaData,
                  N_bim: Bimodule, M_bim: Bimodule,
                  K: Algebra | None = None) -> Report:
    """The cotensor of T with a double cofree comodule collapses.

    Verifies that the counit-collapse map psi and its theta-built inverse
    theta are mutually inverse between the cotensor T box ((C (x) N)
    (x)_{A^op} (C (x) M)) = ker(phi) and Z = (T (x) C (x) N) (x) M.  Three
    rows decide it: ``psi-theta-id`` (psi theta = id, so theta is
    injective), ``range-in-cotensor`` (phi theta = 0, so im theta lies in
    ker phi) and ``two-sided``, the exact rank equality ``rank phi =
    dim TX - dim Z``.  Together they give ker phi = im theta, so theta psi
    is the identity on the cotensor; no kernel basis is built.  If any row
    fails, ``IsoFailure`` is raised.
    """
    b = bundle
    f = b.field
    C = pair.C
    A = b.A
    rep = Report(f"{b.name}:cotensor-collapse")
    if K is None:
        from .fixtures import field_algebra
        K = field_algebra(f)
    CN_com, CN = cofree_comodule(bgd, N_bim)
    CM_com, CM = cofree_comodule(bgd, M_bim)
    CN_enr, _ = comodule_actions(CN_com, bgd)
    CM_enr, _ = comodule_actions(CM_com, bgd)
    X_com, X = monoidal_product(bgd, CN_enr, CM_enr, K)
    TX = tensor_chain([b.T_BA, X_com.carrier], [A])

    # the equaliser difference whose kernel is the cotensor
    TCX = tensor_chain([b.T_BA, C.carrier, X_com.carrier], [A, A])
    lhs = chain_map(TX, [(1, pair.rho_T, 2), (1, None, 1)], TCX)
    rhs = chain_map(TX, [(1, None, 1), (1, X_com.rho, 2)], TCX)
    phi = lhs - rhs

    nT, nC, nN, nM = b.T.dim, C.dim, N_bim.dim, M_bim.dim
    idT, idC = b.idT, Matrix.identity(f, nC)
    idN, idM = Matrix.identity(f, nN), Matrix.identity(f, nM)
    # target chain with its three balancings
    # c . a = t(a) c
    ract_lt = LinearMap(tensor_space([C.space, A.space]), C.space, kron_apply(
        f, [bgd.algebra.mult.matrix], [nC, nC], (1, 0), [None, bgd.target.map.matrix]))
    Z55 = chain_of_spaces(
        [b.T.space, C.space, N_bim.space, M_bim.space],
        [Link(0, 1, A, b.T_BA.ract, C.carrier.lact),
         Link(1, 2, A, ract_lt, N_bim.lact),
         Link(1, 3, A, C.carrier.ract, M_bim.lact)])

    # Psi: t (x) (c (x) n) (x) (c' (x) m) -> t (x) c' (x) eps(c)n (x) m
    expand = idT.kron(CN.sect.matrix.kron(CM.sect.matrix) @ X.sect.matrix) \
        @ TX.sect.matrix
    collapse_eps = N_bim.lact.matrix @ C.eps.matrix.kron(idN)
    step = idT.kron(collapse_eps).kron(idC).kron(idM)
    psi_map = LinearMap(TX.carrier, Z55.carrier,
                        permute_cols(Z55.proj.matrix, [nT, nN, nC, nM], (0, 2, 1, 3))
                        @ step @ expand)

    # Theta: t (x) c (x) n (x) m ->
    #        t0 (x) ((t1 c-) (x) n) (x) (c+ (x) m)
    chi = th.chain_op.sect.matrix @ th.theta_inv.matrix \
        @ C.cc.proj.matrix @ _left_tensor_unit(f, bgd)
    rho_exp = pair.TC.sect.matrix @ pair.rho_T.matrix
    s1 = rho_exp.kron(chi).kron(idN).kron(idM) @ Z55.sect.matrix
    # legs now: t0, t1, c-, c+, n, m
    s2 = idT.kron(bgd.algebra.mult.matrix).kron(idC).kron(idN).kron(idM) @ s1
    # legs: t0, (t1 c-), c+, n, m -> reorder to t0, (t1 c-), n, c+, m
    s3 = permute_rows(s2, [nT, nC, nC, nN, nM], (0, 1, 3, 2, 4))
    into_X = idT.kron(X.proj.matrix @ CN.proj.matrix.kron(CM.proj.matrix)) @ s3
    theta_map = LinearMap(Z55.carrier, TX.carrier, TX.proj.matrix @ into_X)

    rep.add("lem5.5.psi-theta-id", "(5.13)",
            (psi_map @ theta_map).is_identity())
    rep.add("lem5.5.range-in-cotensor", "(5.13)",
            (phi @ theta_map).is_zero())
    rep.add("lem5.5.two-sided", "(5.14)", phi.matrix.rank() == TX.dim - Z55.dim,
            dims={"cotensor": Z55.dim, "ambient": TX.dim})
    if not rep.ok:
        raise IsoFailure(f"{b.name}: the cotensor collapse maps are not inverse")
    return rep


# ---------------------------------------------------------------------------
# recovered structure (the consistency chain)


def recovered_structure(bundle, pair, bgd, witness_data, xi0, xi,
                        M: Comodule, Mp: Comodule) -> Report:
    """Recover multiplication, unit and the coherence map from xi itself and
    compare with the originals."""
    b = bundle
    C = pair.C
    rep = Report(f"{b.name}:recovered-structure")
    S1, S1p = witness_data["S1"], witness_data["S1p"]
    S11 = witness_data["S11"]
    S_MM, TMM, MM = witness_data["S_MM"], witness_data["TMM"], witness_data["MM"]
    # D1 = (T (x) eps o mu) o xi, then mu_rec = D1 o (rho x rho)
    collapse = (b.mu @ b.idT.kron(b.alpha.map.matrix @ C.eps.matrix
                                  @ bgd.algebra.mult.matrix @ MM.sect.matrix)
                @ TMM.sect.matrix @ S_MM.inclusion.matrix)
    D1 = LinearMap(S_MM.space, b.T.space, collapse)
    rhoS1 = corestrict_through(S1.inclusion, pair.rho_T, MembershipFailure, "rho")
    rhoS1p = corestrict_through(S1p.inclusion, pair.rho_T, MembershipFailure, "rho")
    step1 = chain_map(b.TBT, [(1, rhoS1, 1), (1, rhoS1p, 1)], S11, "rho x rho")
    mu_rec = D1 @ xi @ step1
    rep.add("thm5.4.recovered-mult", "(5.11)", mu_rec == bundle.mu_TBT)
    # eta_rec = (T (x) eps) o (T box t) o xi0
    TA = witness_data["TA"]
    S_A = witness_data["S_A"]
    eta_collapse = (b.mu @ b.idT.kron(b.alpha.map.matrix)
                    @ TA.sect.matrix @ S_A.inclusion.matrix)
    eta_rec = LinearMap(S_A.space, b.T.space, eta_collapse) @ xi0
    rep.add("thm5.4.recovered-unit", "(5.11)", eta_rec.matrix == b.beta.map.matrix)
    # xi_rec via the recovered multiplication formula
    TM = witness_data["TM"]
    TMp = tensor_chain([b.T_BA, Mp.carrier], [b.A])
    pair_reps = permute_rows((TM.sect.matrix @ S1.inclusion.matrix).kron(
        TMp.sect.matrix @ S1p.inclusion.matrix),
        [b.T.dim, M.dim, b.T.dim, Mp.dim], (0, 2, 1, 3))
    # d(u, u') = u0 u'0 alpha(eps(u1 u'1)) as a map T (x) T -> T
    du = (b.mu @ b.mu.kron(b.alpha.map.matrix @ C.eps.matrix
                           @ bgd.algebra.mult.matrix)
          @ _rho_pair(b, pair))
    xi_rec_raw = (TMM.proj.matrix
                  @ du.kron(MM.proj.matrix) @ pair_reps
                  @ S11.sect.matrix)
    xi_rec = corestrict_through(
        S_MM.inclusion, LinearMap(S11.carrier, TMM.carrier, xi_rec_raw),
        MembershipFailure, "recovered xi misses the cotensor")
    rep.add("thm5.4.recovered-xi", "(5.11)", xi_rec == xi)
    return rep


def _rho_pair(b, pair) -> Matrix:
    """(t, t') -> (t0 (x) t'0) (x) (t1 t'1) pre-collapse block: returns the
    matrix T (x) T -> T (x) C x C arranged as mu-input (x) mult-input."""
    rho_exp = pair.TC.sect.matrix @ pair.rho_T.matrix
    return permute_rows(rho_exp.kron(rho_exp),
                        [b.T.dim, pair.C.dim, b.T.dim, pair.C.dim], (0, 2, 1, 3))


# ---------------------------------------------------------------------------
# pre-torsors from quotient corings of a bialgebroid


def homogeneous_pretorsor(bgd: RightBialgebroid, th: ThetaData, p_span,
                          name: str = "homog"):
    """The pre-torsor of a quotient coring by a base-stable subalgebra.

    ``p_span`` spans a subset of the carrier; it is closed under products
    and the target map, the induced right ideal is verified to be a coideal,
    the quotient coring and its coinvariants are built, and the canonical
    map with its theta-built inverse is checked before the displayed
    structure map is emitted and revalidated.
    """
    from .coring import Coring as CoringCls
    from .pretorsor import make_bundle, validate_pretorsor

    C = bgd.coring
    A = bgd.base
    alg = bgd.algebra
    f = C.field
    # close the span under t(A), the unit and products
    vectors = [alg.unit]
    for i in range(A.dim):
        vectors.append(bgd.t_vec(A.space.basis_vector(i)))
    vectors.extend(tuple(v) for v in p_span)
    P = Subspace.from_spanning(C.space, vectors, "P")
    while True:
        prods = []
        for i in range(P.dim):
            vi = P.inclusion.matrix.col(i)
            for j in range(P.dim):
                prods.append(alg.product_vec(vi, P.inclusion.matrix.col(j)))
        bigger = Subspace.from_spanning(
            C.space, [P.inclusion.matrix.col(i) for i in range(P.dim)] + prods, "P")
        if bigger.dim == P.dim:
            break
        P = bigger
    # Delta(P) inside C (x) P
    CP_cols = []
    for i in range(C.dim):
        for j in range(P.dim):
            CP_cols.append(C.cc.proj.apply(outer(
                f, C.space.basis_vector(i), P.inclusion.matrix.col(j))))
    W = Subspace.from_spanning(C.cc.carrier, CP_cols, "CxP")
    if not W.contains_map(C.delta @ P.inclusion):
        raise NotSubcomoduleCompatible(f"{name}: coproduct leaves C (x) P")
    # P+ and the right ideal P+C
    Pplus = intersect([P, kernel(LinearMap(C.space, A.space, C.eps.matrix))],
                      "P+")
    ideal_vecs = []
    for i in range(Pplus.dim):
        p = Pplus.inclusion.matrix.col(i)
        for j in range(C.dim):
            ideal_vecs.append(alg.product_vec(p, C.space.basis_vector(j)))
    I = Subspace.from_spanning(C.space, ideal_vecs, "P+C")
    # coideal checks
    if not (C.eps @ I.inclusion).is_zero():
        raise NotSubcomoduleCompatible(f"{name}: the ideal misses ker eps")
    spanning = []
    for i in range(C.dim):
        for j in range(I.dim):
            spanning.append(C.cc.proj.apply(outer(
                f, C.space.basis_vector(i), I.inclusion.matrix.col(j))))
            spanning.append(C.cc.proj.apply(outer(
                f, I.inclusion.matrix.col(j), C.space.basis_vector(i))))
    coideal_span = Subspace.from_spanning(C.cc.carrier, spanning, "coideal")
    if not coideal_span.contains_map(C.delta @ I.inclusion):
        raise NotSubcomoduleCompatible(f"{name}: the ideal is not a coideal")

    # quotient coring
    from .spaces import quotient as space_quotient
    Q_space, pi, sect_Q = space_quotient(C.space, I, "Q")
    # induced bimodule structure on the quotient
    lact_Q = LinearMap(tensor_space([A.space, Q_space]), Q_space, pi.matrix @ kron_apply(
        f, [C.carrier.lact.matrix], [A.dim, C.dim], None, [None, sect_Q.matrix]))
    ract_Q = LinearMap(tensor_space([Q_space, A.space]), Q_space, pi.matrix @ kron_apply(
        f, [C.carrier.ract.matrix], [C.dim, A.dim], None, [sect_Q.matrix, None]))
    Q_bim = Bimodule(Q_space, A, A, lact_Q, ract_Q)
    QQ = tensor_chain([Q_bim, Q_bim], [A])
    two_pi = QQ.proj.matrix @ pi.matrix.kron(pi.matrix) @ C.cc.sect.matrix
    if not (two_pi @ C.delta.matrix @ I.inclusion.matrix).is_zero():
        raise NotSubcomoduleCompatible(f"{name}: quotient coproduct ill-defined")
    delta_Q = LinearMap(Q_space, QQ.carrier,
                        two_pi @ C.delta.matrix @ sect_Q.matrix)
    eps_Q = LinearMap(Q_space, A.space, C.eps.matrix @ sect_Q.matrix)
    Q = CoringCls(A, Q_bim, delta_Q, eps_Q, name=f"Q({name})")

    # Q-comodule structure on C and its coinvariants
    CQ = tensor_chain([C.carrier, Q_bim], [A])
    rho_C = LinearMap(C.space, CQ.carrier,
                      CQ.proj.matrix @ Matrix.identity(f, C.dim).kron(pi.matrix)
                      @ C.cc.sect.matrix @ C.delta.matrix)
    C_comodule = Comodule(Q, C.carrier, "right", rho_C, "C")
    gQ = check_grouplike(Q, pi.apply(tuple(alg.unit)))
    from .coring import coinvariants
    Bsub = coinvariants(C_comodule, gQ, "B")
    # B must contain P and close under products
    for i in range(P.dim):
        if not Bsub.contains_vector(P.inclusion.matrix.col(i)):
            raise CoinvariantMismatch(f"{name}: P is not inside the coinvariants")
    b_prods = []
    for i in range(Bsub.dim):
        vi = Bsub.inclusion.matrix.col(i)
        for j in range(Bsub.dim):
            w = alg.product_vec(vi, Bsub.inclusion.matrix.col(j))
            if not Bsub.contains_vector(w):
                raise CoinvariantMismatch(f"{name}: coinvariants not a subalgebra")
            b_prods.append((i, j, w))
    sc = []
    for (i, j, w) in b_prods:
        coeffs = Bsub.retraction.apply(w)
        for k, v in enumerate(coeffs):
            if not f.is_zero(v):
                sc.append((i, j, k, v))
    from .algebra import make_algebra
    B_alg = make_algebra(f, Bsub.dim, sc, Bsub.retraction.apply(tuple(alg.unit)),
                         f"B({name})")
    beta = AlgebraMap(B_alg, alg,
                      LinearMap(B_alg.space, C.space,
                                Bsub.inclusion.matrix))

    # the canonical map and its theta-built inverse
    incl_B_mat, dims = Bsub.inclusion.matrix, [C.dim, C.dim]
    ract_B = LinearMap(tensor_space([C.space, B_alg.space]), C.space,
                       kron_apply(f, [alg.mult.matrix], dims, None, [None, incl_B_mat]))
    lact_B = LinearMap(tensor_space([B_alg.space, C.space]), C.space,
                       kron_apply(f, [alg.mult.matrix], dims, None, [incl_B_mat, None]))
    C_AB = Bimodule(C.space, C.carrier.left, B_alg, C.carrier.lact, ract_B,
                    check=False)
    C_BA = Bimodule(C.space, B_alg, C.carrier.right, lact_B, C.carrier.ract,
                    check=False)
    CBC = tensor_chain([C_AB, C_BA], [B_alg])
    idC = Matrix.identity(f, C.dim)
    can_raw = (alg.mult.matrix.kron(pi.matrix)
               @ idC.kron(C.cc.sect.matrix @ C.delta.matrix))
    can = induce(CBC, LinearMap(CBC.ambient, CQ.carrier,
                                CQ.proj.matrix @ can_raw), "can")
    chi_theta = th.chain_op.sect.matrix @ th.theta_inv.matrix \
        @ C.cc.proj.matrix @ _left_tensor_unit(f, bgd)
    caninv_raw = (alg.mult.matrix.kron(idC)
                  @ idC.kron(chi_theta @ sect_Q.matrix))
    # independence of the quotient representative
    if not (CBC.proj.matrix @ alg.mult.matrix.kron(idC)
            @ idC.kron(chi_theta @ I.inclusion.matrix)).is_zero():
        raise IsoFailure(f"{name}: displayed inverse is not defined on the quotient")
    can_inv = induce(CQ, LinearMap(CQ.ambient, CBC.carrier,
                                   CBC.proj.matrix @ caninv_raw), "can-inv")
    if not (can @ can_inv).is_identity() or not (can_inv @ can).is_identity():
        raise IsoFailure(f"{name}: canonical map and displayed inverse not inverse")

    # the pre-torsor structure map c -> c1 (x) c2- (x) c2+
    tau_raw = (idC.kron(chi_theta) @ C.cc.sect.matrix @ C.delta.matrix)
    T_alg = alg
    bundle = make_bundle(A, B_alg, T_alg, bgd.source, beta, tau_raw,
                         name=name)
    report = validate_pretorsor(bundle)
    return bundle, report, {"Q": Q, "pi": pi, "B": Bsub, "can": can,
                            "P": P, "ideal": I}


# ---------------------------------------------------------------------------
# pre-torsors from cleft extensions


def cleft_pretorsor(A: Algebra, T: Algebra, alpha: AlgebraMap, C,
                    rho: LinearMap, psi: LinearMap, j: LinearMap,
                    jt: LinearMap, name: str = "cleft"):
    """The pre-torsor of a cleft extension.

    ``rho`` is an entwined coaction on T over the coring ``C`` with
    entwining map ``psi``; ``j`` must be left linear and colinear with
    convolution inverse ``jt``.  All hypotheses are verified before the
    displayed structure map is emitted and revalidated.
    """
    from .errors import NotColinear, NotConvolutionInverse
    from .pretorsor import make_bundle, validate_pretorsor
    from .algebra import make_algebra, regular_bimodule

    f = T.field
    idT = Matrix.identity(f, T.dim)
    idC = Matrix.identity(f, C.dim)
    mu = T.mult.matrix
    T_AA = regular_bimodule(T, alpha, alpha, check=False)
    TC = tensor_chain([T_AA, C.carrier], [A])
    CT = tensor_chain([C.carrier, T_AA], [A])
    if rho.domain is not T.space or rho.codomain is not TC.carrier:
        raise ShapeMismatch("coaction must map T into T (x) C")
    Comodule(C, T_AA, "right", rho, "T")  # validates the coaction

    # j: left linear, right colinear
    if j.matrix @ C.carrier.lact.matrix != mu @ alpha.map.matrix.kron(j.matrix):
        raise NotColinear(f"{name}: the cleaving map is not left linear")
    lhs = rho @ j
    rhs = chain_map(C.cc, [(1, j, 1), (1, None, 1)], TC) @ C.delta
    if lhs != rhs:
        raise NotColinear(f"{name}: the cleaving map is not colinear")
    # jt: bilinear
    if jt.matrix @ C.carrier.lact.matrix != mu @ alpha.map.matrix.kron(jt.matrix):
        raise NotColinear(f"{name}: the convolution inverse is not left linear")
    if jt.matrix @ C.carrier.ract.matrix != mu @ jt.matrix.kron(alpha.map.matrix):
        raise NotColinear(f"{name}: the convolution inverse is not right linear")
    # convolution identities
    delta_raw = C.cc.sect.matrix @ C.delta.matrix
    conv1 = mu @ j.matrix.kron(jt.matrix) @ delta_raw
    conv2 = mu @ jt.matrix.kron(j.matrix) @ delta_raw
    alpha_eps = alpha.map.matrix @ C.eps.matrix
    if conv1 != alpha_eps or conv2 != alpha_eps:
        bad = next(k for k in range(C.dim)
                   if conv1.col(k) != alpha_eps.col(k)
                   or conv2.col(k) != alpha_eps.col(k))
        raise NotConvolutionInverse(
            f"{name}: convolution identities fail",
            witness=C.space.labels[bad])
    # entwined module identity for T
    TAT = tensor_chain([T_AA, T_AA], [A])
    mu_bal = induce(TAT, LinearMap(TAT.ambient, T.space, mu), "mu")
    TCT = tensor_chain([T_AA, C.carrier, T_AA], [A, A])
    TTC = tensor_chain([T_AA, T_AA, C.carrier], [A, A])
    lhs = rho @ mu_bal
    rhs = (chain_map(TTC, [(2, mu_bal, 1), (1, None, 1)], TC)
           @ chain_map(TCT, [(1, None, 1), (2, psi, 2)], TTC)
           @ chain_map(TAT, [(1, rho, 2), (1, None, 1)], TCT))
    if lhs != rhs:
        raise AxiomFailure(f"{name}: T is not an entwined module")
    # identity (3.5): jt(c) rho(1) = psi(c1 (x) jt(c2))
    rho1 = Matrix(f, [(x,) for x in rho.apply(tuple(T.unit))], 1)
    lmult_TC = TC.proj.matrix @ mu.kron(idC) @ idT.kron(TC.sect.matrix)
    lhs35 = LinearMap(C.space, TC.carrier, lmult_TC @ jt.matrix.kron(rho1))
    rhs35 = psi @ chain_map(C.cc, [(1, None, 1), (1, jt, 1)], CT) @ C.delta
    if lhs35 != rhs35:
        raise AxiomFailure(f"{name}: the convolution-inverse entwining identity fails")
    # alpha lands in the coinvariants
    ref = LinearMap(T.space, TC.carrier, lmult_TC @ idT.kron(rho1))
    coinv = kernel(rho - ref, "Tco")
    for i in range(A.dim):
        if not coinv.contains_vector(alpha.map.apply(A.space.basis_vector(i))):
            raise AxiomFailure(f"{name}: the base does not land in the coinvariants")
    # B := coinvariants as an algebra
    sc = []
    for i in range(coinv.dim):
        vi = coinv.inclusion.matrix.col(i)
        for jj in range(coinv.dim):
            w = T.product_vec(vi, coinv.inclusion.matrix.col(jj))
            if not coinv.contains_vector(w):
                raise AxiomFailure(f"{name}: coinvariants are not a subalgebra")
            for k, v in enumerate(coinv.retraction.apply(w)):
                if not f.is_zero(v):
                    sc.append((i, jj, k, v))
    B_alg = make_algebra(f, coinv.dim, sc,
                         coinv.retraction.apply(tuple(T.unit)), f"B({name})")
    beta = AlgebraMap(B_alg, T, LinearMap(B_alg.space, T.space,
                                          coinv.inclusion.matrix))
    # tau(t) = t0 (x) jt(t1) (x) j(t2)
    rho_exp = TC.sect.matrix @ rho.matrix
    tau_raw = (idT.kron(jt.matrix).kron(j.matrix)
               @ idT.kron(delta_raw) @ rho_exp)
    bundle = make_bundle(A, B_alg, T, alpha, beta, tau_raw, name=name)
    report = validate_pretorsor(bundle)
    return bundle, report
