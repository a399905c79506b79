"""Bialgebroids on the associated corings, their Galois maps, and the
monoidal-functor witnesses of a torsor.

The product on the A-side coring is inherited from T^op (x)_k T; closure in
the defining kernel and representative-independence are both verified before
any axiom is tested.  The Galois map theta of the resulting bialgebroid is
inverted (failure is the verdict "not a x_A-Hopf algebra") and the pentagon
and translation-map identities are checked as matrix equations on triple
balanced tensors with several non-adjacent balancing relations.

Each axiom of a bialgebroid is written once (``bialgebroid_axioms``), for a
right bialgebroid, as one matrix identity over the whole base and carrier;
a left bialgebroid is checked as the right one for its opposite product
with source and target exchanged (``right_hand_form``), after Boehm,
*Hopf algebroids*, Handbook of Algebra 6 (2009).  The two bialgebroids of a
torsor are built by one body against a ``pretorsor.Hand``, as are both
diagonal coactions of Lemma 5.3, and both hands' (2.3) translation
identities by one body with the legs reversed (``RightBialgebroid.legs``).
The (5.11) and (5.12) rows of Thm 5.4 read xi0, xi and the cotensors from
the data ``monoidal_witness`` returns.  No check reads a structure map one
basis vector at a time; the per-value loops are the tests' reference.
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
    field_algebra,
    first_nonzero_col,
    first_unbalanced,
    induce,
    leg_action,
    nonlinear_side,
    opposite,
    regular_bimodule,
    single_chain,
    tensor_chain,
    tensor_space,
)
from .coring import (
    Comodule,
    Coring,
    check_grouplike,
    coinvariants,
    cotensor,
    cotensor_difference,
)
from .errors import (
    AxiomFailure,
    ClosureFailure,
    CoinvariantMismatch,
    Disagreement,
    IsoFailure,
    MembershipFailure,
    NotColinear,
    NotConvolutionInverse,
    NotInvertible,
    NotSubcomoduleCompatible,
    NotTimesAHopf,
    ShapeMismatch,
    TakeuchiViolation,
)
from .linalg import Matrix, kron_apply, permute_cols, permute_rows, split_leg
from .pretorsor import CoringPair, Hand, PreTorsorBundle, make_bundle, validate_pretorsor
from .report import Report
from .spaces import LinearMap, Space, Subspace, intersect, invert, kernel, quotient


class RightBialgebroid:
    """A right bialgebroid structure on a coring, with validation report.

    ``legs`` orders tensor legs as ``pretorsor.Hand`` does: as written for a
    right bialgebroid, reversed for a left one."""

    reversed = False

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

    def legs(self, *xs) -> list:
        return list(xs[::-1] if self.reversed else xs)

    def right_hand_form(self):
        """The product, source and target matrices for which the base axioms
        read as those of a right bialgebroid."""
        return self.algebra.mult.matrix, self.source.map.matrix, self.target.map.matrix

    def __repr__(self):
        return f"RightBialgebroid({self.coring.name})"


class LeftBialgebroid(RightBialgebroid):
    """A left bialgebroid: a right bialgebroid for the opposite product, with
    source and target exchanged."""

    reversed = True

    def right_hand_form(self):
        n = self.dim
        return (permute_cols(self.algebra.mult.matrix, [n, n], (1, 0)),
                self.target.map.matrix, self.source.map.matrix)

    def __repr__(self):
        return f"LeftBialgebroid({self.coring.name})"


def _bilinear_from_pairs(raw_amb: Matrix, chain: TensorChain, sub: Subspace, name: str):
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
    on_sub = LinearMap(tensor_space([sub.space, sub.space]), chain.carrier,
                       raw_amb @ reps.kron(reps))
    return corestrict_through(sub.inclusion, on_sub, ClosureFailure,
                              f"{name}: product leaves the defining kernel").matrix


def bialgebroid_from_torsor(bundle: PreTorsorBundle, pair: CoringPair):
    """The right bialgebroid on the A-side coring and the left one on the
    B-side coring of a torsor, with the full axiom sweeps."""
    return tuple(_bialgebroid_on(Hand(bundle, side, pair)) for side in ("right", "left"))


def _bialgebroid_on(h: Hand) -> RightBialgebroid:
    """One hand's bialgebroid, swept.  The product on C comes from
    T^op (x) T, (u(x)v)(u'(x)v') = u'u (x) vv'; the source is
    a -> 1 (x) alpha(a) and the target a -> alpha(a) (x) 1.  The left hand
    reverses the legs: D's product uu' (x) v'v comes from T (x) T^op."""
    b, C, sub = h.bundle, h.coring, h.sub
    n = b.T.dim
    mu_op = permute_cols(b.mu, [n, n], (1, 0))
    raw = permute_cols(h.two.proj.matrix @ h.kron(mu_op, b.mu), [n] * 4, (0, 2, 1, 3))
    mult = _bilinear_from_pairs(raw, h.two, sub, f"{b.name}:{h.letter}-product")
    if h.grouplike is None:
        raise AxiomFailure(f"{b.name}: bundle is not unital, no candidate unit")
    alg = Algebra(C.space, LinearMap(tensor_space([C.space, C.space]), C.space, mult),
                  h.grouplike.element, name=f"{h.letter}alg({b.name})")
    to_C, unit = sub.coordinates(h.two.proj.matrix), h.unit.map.matrix
    source = AlgebraMap(h.base, alg, LinearMap(h.base.space, C.space,
                                               to_C @ h.kron(b.T.unit_col, unit)))
    target = AlgebraMap(h.base, alg, LinearMap(h.base.space, C.space,
                                               to_C @ h.kron(unit, b.T.unit_col)), anti=True)
    bgd = h.pick(RightBialgebroid, LeftBialgebroid)(
        C, alg, source, target, Report(f"{b.name}:bialgebroid-{h.letter}"))
    bialgebroid_axioms(bgd, h.pick(b.name, C.name))
    _comodule_algebra_rows(h, bgd)
    if not bgd.report.ok:
        raise AxiomFailure(f"{b.name}: {h.side} bialgebroid sweep failed: "
                           + ", ".join(c.check_id for c in bgd.report.failures()))
    return bgd


def bialgebroid_axioms(bgd: RightBialgebroid, name: str):
    """The axioms of a bialgebroid that involve its base alone: commuting
    ranges, the bimodule rule, Takeuchi membership of the coproduct, the
    coproduct multiplicative and unital, and the counit laws.

    Each row is one matrix identity, written for a right bialgebroid and
    read through ``right_hand_form``, so a left bialgebroid is checked as
    the right one for its opposite product with source and target
    exchanged.  The rows go to ``bgd.report``; a coproduct outside the
    Takeuchi product raises ``TakeuchiViolation`` naming ``name``.
    """
    C, rep = bgd.coring, bgd.report
    f, n = C.field, C.dim
    mult, s, t = bgd.right_hand_form()
    # s(a) t(a') = t(a') s(a)
    rep.add("bgd.commuting-ranges", "2(bgd)",
            kron_apply(f, [mult], [n, n], None, [s, t])
            == kron_apply(f, [mult], [n, n], (1, 0), [s, t]))
    # the bimodule rule a.c.a' = c s(a') t(a)
    rep.add("bgd.bimodule-rule", "2(bgd)",
            C.carrier.lact.matrix == kron_apply(f, [mult], [n, n], (1, 0), [t, None])
            and C.carrier.ract.matrix == kron_apply(f, [mult], [n, n], None, [None, s]))
    # s(a) c (x) c' = c (x) t(a) c' on the image of the coproduct
    ls, lt = (kron_apply(f, [mult], [n, n], None, [x, None]) for x in (s, t))
    ok = takeuchi_subspace(C.cc, ls, lt).contains_map(C.delta)
    rep.add("bgd.takeuchi", "2(bgd)", ok)
    if not ok:
        raise TakeuchiViolation(f"{name}: coproduct image leaves the Takeuchi product")
    delta = C.delta.matrix
    rep.add("bgd.delta-multiplicative", "2(bgd)",
            delta @ mult == _factorwise_product_mixed(C.cc, mult, mult, [n, n], into=delta))
    one = bgd.algebra.unit_col
    rep.add("bgd.delta-unital", "2(bgd)", delta @ one == C.cc.proj.matrix @ one.kron(one))
    rep.add("bgd.eps-unital", "2(bgd)", C.eps.matrix @ one == bgd.base.unit_col)
    # eps(s(eps(c)) c') = eps(t(eps(c)) c') = eps(c c')
    eps_mult = C.eps.matrix @ mult
    rep.add("bgd.eps-weak-mult", "2(bgd)", all(
        kron_apply(f, [eps_mult], [n, n], None, [x @ C.eps.matrix, None]) == eps_mult
        for x in (s, t)))


def _comodule_algebra_rows(h: Hand, bgd: RightBialgebroid):
    """T is a comodule algebra over one hand's coring: the coaction is
    multiplicative, factorwise on T (x) C, and unital."""
    b, rep = h.bundle, bgd.report
    rho, TK = h.rho.matrix, h.TK
    rep.add("bgd.comodule-algebra", "5.2", rho @ b.mu == _factorwise_product_mixed(
        TK, *h.legs(b.mu, bgd.algebra.mult.matrix), h.legs(b.T.dim, bgd.dim), into=rho))
    rep.add("bgd.comodule-algebra-unital", "5.2", rho @ b.T.unit_col
            == TK.proj.matrix @ h.kron(b.T.unit_col, bgd.algebra.unit_col))


def _factorwise_product_mixed(chain: TensorChain, mult1: Matrix, mult2: Matrix,
                              dims, order=(0, 2, 1, 3), into: Matrix | None = None) -> Matrix:
    """mult1 (x) mult2 on pairs of representatives whose legs ``order``
    interleaves, landed in the chain carrier.  With ``into``, a map into
    the chain carrier, the product is taken on pairs of its images
    instead: it is composed with ``into (x) into`` before it is expanded,
    on ``dim(into)**2`` columns rather than ``chain.dim**2``."""
    sect = chain.sect.matrix if into is None else chain.sect.matrix @ into
    return chain.proj.matrix @ kron_apply(chain.ambient.field, [mult1, mult2],
                                          dims + dims, order, [sect, sect])


def takeuchi_subspace(chain: TensorChain, first: Matrix, second: Matrix) -> Subspace:
    """{ w : (x_a (x) id) w = (id (x) y_a) w for every basis element a } on
    the carrier of a two-factor chain V (x)_A W.

    ``first`` (A (x) V -> V) and ``second`` (A (x) W -> W) hold the maps x_a
    and y_a side by side, as a left action matrix does.  The result is the
    kernel of the blocks proj o (x_a (x) id - id (x) y_a) o sect, stacked.
    """
    f = chain.carrier.field
    nv, nw = first.nrows, second.nrows
    m = first.ncols // nv
    dims, sect = [m, nv, nw], [None, chain.sect.matrix]
    diff = chain.proj.matrix @ (kron_apply(f, [first, None], dims, None, sect)
                                - kron_apply(f, [None, second], dims, (1, 0, 2), sect))
    blocks = split_leg(diff, [m, chain.dim], 1)
    return kernel(LinearMap(chain.carrier, Space(f, blocks.nrows, "takeuchi-blocks"),
                            blocks), "takeuchi")


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

    For a left bialgebroid the legs are reversed: the mirror map
    Delta(x) y with the opposite balancing via the source map.
    """
    f = bgd.coring.field
    C = bgd.coring
    rep = Report(f"{C.name}:theta")
    op_data = _op_bimodules(bgd)
    chain_op = tensor_chain([op_data[1], op_data[1]], [op_data[0]])
    mult, split = bgd.algebra.mult.matrix, C.cc.sect.matrix @ C.delta.matrix
    raw = kron_apply(f, bgd.legs(mult, None), [C.dim] * 3, None, bgd.legs(None, split))
    th = induce(chain_op, raw, C.cc, "theta")
    try:
        th_inv = invert(th)
    except NotInvertible as exc:
        raise NotTimesAHopf(
            f"{C.name}: bialgebroid Galois map is not bijective",
            rank_deficit=th.domain.dim - (exc.rank or 0)) from None
    rep.add("theta.bijective", "(2.1)", True,
            dims={"domain": th.domain.dim})
    _translation_identities(bgd, chain_op, th_inv, rep)
    if not bgd.reversed:
        _translation_multiplicative(bgd, chain_op, th_inv, rep)
        _pentagon_right(bgd, th, rep, op_data)
    if not rep.ok:
        raise NotTimesAHopf(f"{C.name}: theta identities failed: "
                            + ", ".join(c.check_id for c in rep.failures()))
    return ThetaData(th, th_inv, chain_op, rep)


def _translation_identities(bgd, chain_op, th_inv, rep):
    """(2.3) on all of the base at once: theta^{-1}(1 (x) t(a)) = s(a) (x) 1
    and theta^{-1}(1 (x) s(a)) = 1 (x) s(a).  A left bialgebroid reads both
    with the legs reversed, as its mirror rows."""
    C = bgd.coring
    one = bgd.algebra.unit_col
    s, t = bgd.source.map.matrix, bgd.target.map.matrix
    tag = "theta.eq2.3-mirror" if bgd.reversed else "theta.eq2.3"

    def on(chain, pair):
        x, y = bgd.legs(*pair)
        return chain.proj.matrix @ x.kron(y)

    for part, into, want in (("target", (one, t), (s, one)), ("source", (one, s), (one, s))):
        rep.add(f"{tag}-{part}", "(2.3)", th_inv.matrix @ on(C.cc, into) == on(chain_op, want))


def _translation_multiplicative(bgd, chain_op, th_inv, rep):
    """The translation map is an algebra map into C^op (x) C."""
    C = bgd.coring
    mult = bgd.algebra.mult.matrix
    chi = th_inv.matrix @ C.cc.proj.matrix @ _left_tensor_unit(C.field, bgd)
    rep.add("theta.translation-multiplicative", "2(bgd)", chi @ mult
            == _factorwise_product_mixed(chain_op, mult, mult, [C.dim] * 2, (2, 0, 1, 3),
                                         into=chi))


def _left_tensor_unit(f, bgd) -> Matrix:
    """c -> 1 (x) c at the pair-ambient level."""
    return bgd.algebra.unit_col.kron(Matrix.identity(f, bgd.dim))


def _pentagon_right(bgd, th, rep, op_data):
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
    th13 = induce(M2, raw13, M3, "theta13")
    last = chain_map(M3, [(1, None, 1), (2, th, 2)], Z)
    rhs = last @ th13 @ first
    rep.add("theta.pentagon", "(2.2)", lhs == rhs)


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
    left coaction, both as canonical subspaces.  One body serves both: the
    right hand's coaction u (x) v -> u1 (x) v1 (x) (v2 u2 (x) u3 v3) lands
    in (T (x) T) (x) C, the left hand's, legs reversed, in D (x) (T (x) T),
    and each is compared with the other hand's coring.
    """
    b = bundle
    rep = Report(f"{b.name}:diagonal-coinvariants")
    hands = (Hand(b, "right", pair), Hand(b, "left", pair))
    for h, other, raw in zip(hands, hands[::-1], _diagonal_coactions_raw(b)):
        X4diag = tensor_chain(h.legs(b.T_BA, h.T_base, b.T_AB, b.T_BA),
                              h.legs(h.base, h.base, other.base))
        to_big = induce(h.base_two, raw, X4diag, f"diag-{h.letter}-coaction")
        TTK = tensor_chain(h.legs(b.T_BA, h.T_base, h.coring.carrier), h.legs(h.base, h.base))
        j = chain_map(TTK, h.legs((1, None, 1), (1, None, 1), (1, h.sub.inclusion, 2)),
                      X4diag)
        rho_diag = corestrict_through(j, to_big, MembershipFailure,
                                      f"{b.name}: diagonal coaction misses "
                                      + "x".join(h.legs("(TxT)", h.letter)))
        ref = LinearMap(h.base_two.carrier, TTK.carrier, TTK.proj.matrix @ h.kron(
            h.base_two.sect.matrix, h.grouplike.element))
        coinv = kernel(rho_diag - ref, f"{other.letter}-diag")
        ok = coinv == other.sub
        rep.add(f"lem5.3.{other.letter}", "5.3", ok,
                dims={"coinvariants": coinv.dim, other.letter: other.sub.dim})
        if not ok:
            raise Disagreement(f"{b.name}: diagonal coinvariants differ from {other.letter}")
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
    # Takeuchi membership of the coaction: s(a) c (x) m = c (x) m . a
    ls = kron_apply(f, [mult], [n, n], None, [bgd.source.map.matrix, None])
    tak = takeuchi_subspace(CM, ls, permute_cols(s_act, [A.dim, M.dim], (1, 0)))
    ok = tak.contains_map(M.rho)
    rep.add("act.takeuchi", "2(comod)", ok)
    if not ok:
        raise TakeuchiViolation(f"{M.name}: coaction leaves the Takeuchi product")
    enriched = Comodule(C, new_bim, "left", M.rho, M.name)
    return enriched, rep


def monoidal_product(bgd: RightBialgebroid, M: Comodule, Mp: Comodule):
    """M (x)_{A^op} M' with the diagonal coaction, as a validated comodule.

    Both factors must carry the induced base actions (see comodule_actions);
    the product is an A-k-bimodule, k acting trivially on the right.
    """
    C = bgd.coring
    A = bgd.base
    f = C.field
    A_op = opposite(A)
    link = _opposite_link(A_op, M.carrier, Mp.carrier)
    MM = chain_of_spaces([M.space, Mp.space], [link])
    # carrier bimodule: left A through the second factor, trivial right
    lact = LinearMap(tensor_space([A.space, MM.carrier]), MM.carrier,
                     leg_action(MM, 1, A, Mp.carrier.lact.matrix, "left"))
    K = field_algebra(f)
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
    rho_MM_big = induce(MM, raw, CMM, "diagonal coaction")
    # view C (x) (M (x) M') through the pair chain
    CMM2 = tensor_chain([C.carrier, MM_bim], [A])
    j_map = chain_map(CMM2, [(1, None, 1), (1, LinearMap.identity(MM.carrier), 2)], CMM)
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


# ---------------------------------------------------------------------------
# monoidal witnesses


class MonoidalWitness:
    def __init__(self, xi0, xi, report):
        self.xi0 = xi0
        self.xi = xi
        self.report = report

    @property
    def ok(self):
        return self.report.ok


def _beta_actions_on_cotensor(bundle, chain_TM, sub: Subspace):
    """Left and right B-multiplication on the T-leg, restricted to a
    cotensor subspace (torsor case: both stabilise it): the action
    matrices on B (x) sub and sub (x) B."""
    b = bundle
    on_sub = chain_TM.sect.matrix @ sub.inclusion.matrix
    acts = ((leg_action(chain_TM, 0, b.B, b.T_BB.lact.matrix, "left", on_sub),
             [b.B.space, sub.space]),
            (leg_action(chain_TM, 0, b.B, b.T_BB.ract.matrix, "right", on_sub),
             [sub.space, b.B.space]))
    return tuple(corestrict_through(
        sub.inclusion, LinearMap(tensor_space(legs), chain_TM.carrier, act),
        MembershipFailure, f"{bundle.name}: base multiplication leaves the cotensor").matrix
        for act, legs in acts)


def _bb_bimodule(bundle, sub: Subspace, lact: Matrix, ract: Matrix) -> Bimodule:
    B = bundle.B
    return Bimodule(sub.space, B, B,
                    LinearMap(tensor_space([B.space, sub.space]), sub.space, lact),
                    LinearMap(tensor_space([sub.space, B.space]), sub.space, ract))


def monoidal_witness(bundle: PreTorsorBundle, pair: CoringPair,
                     bgd: RightBialgebroid, M: Comodule):
    """The lax monoidal structure maps on the cotensor functor, at M.

    Builds xi0: B -> T box A and xi: (T box M) (x)_B (T box M) ->
    T box (M (x) M), the structure map on the one comodule M in both
    factors as the (5.11) and (5.12) rows read it (M = C), and checks
    bilinearity, cotensor membership and bijectivity.  T box M, its chain
    and its B-actions are built once and serve both factors.  Returns the
    witness and the data the (5.11) and (5.12) rows read
    (``can_factorisation``, ``recovered_structure``): the cotensors and
    chains, xi0, xi, and ``pair_reps``, the pairs of cotensor
    representatives xi is built on, legs t (x) t' (x) m (x) m'.
    """
    b = bundle
    C = pair.C
    A = b.A
    rep = Report(f"{b.name}:monoidal-{M.name}-{M.name}")
    T_right = pair.bicomodule.right_part

    # the monoidal unit: A with coaction through the target map
    A_bim = regular_bimodule(A)
    CA = tensor_chain([C.carrier, A_bim], [A])
    unit_A = A.unit_col
    rho_A = LinearMap(A.space, CA.carrier,
                      CA.proj.matrix @ bgd.target.map.matrix.kron(unit_A))
    A_com = Comodule(C, A_bim, "left", rho_A, "A")
    S_A = cotensor(T_right, A_com, "TboxA")
    TA = tensor_chain([b.T_BA, A_bim], [A])
    xi0_amb = LinearMap(b.B.space, TA.carrier,
                        TA.proj.matrix @ b.beta.map.matrix.kron(unit_A))
    xi0 = corestrict_through(S_A.inclusion, xi0_amb, MembershipFailure,
                             f"{b.name}: xi0 misses the cotensor")
    rep.add("thm5.4.xi0-bijective", "(5.1)",
            xi0.rank() == b.B.dim and S_A.dim == b.B.dim,
            dims={"B": b.B.dim, "T box A": S_A.dim})

    # the product comodule and xi
    MM_com, MM = monoidal_product(bgd, M, M)
    phi_MM = cotensor_difference(T_right, MM_com)
    S_MM = kernel(phi_MM, "TboxMM")
    TMM = tensor_chain([b.T_BA, MM_com.carrier], [A])
    TM = tensor_chain([b.T_BA, M.carrier], [A])
    S1 = cotensor(T_right, M, f"Tbox{M.name}")
    S1_bb = _bb_bimodule(b, S1, *_beta_actions_on_cotensor(b, TM, S1))
    S11 = tensor_chain([S1_bb, S1_bb], [b.B])
    reps = TM.sect.matrix @ S1.inclusion.matrix
    pair_reps = permute_rows(reps.kron(reps), [b.T.dim, M.dim, b.T.dim, M.dim],
                             (0, 2, 1, 3))
    to_TMM = induce(S11, b.mu.kron(MM.proj.matrix) @ pair_reps, TMM, "xi")
    xi = corestrict_through(S_MM.inclusion, to_TMM, MembershipFailure,
                            f"{b.name}: xi misses the cotensor")
    rep.add("thm5.4.xi-bijective", "(5.2)",
            S11.dim == S_MM.dim and xi.rank() == S11.dim,
            dims={"domain": S11.dim, "codomain": S_MM.dim})

    # B-B bilinearity of xi
    lmm, rmm = _beta_actions_on_cotensor(b, TMM, S_MM)
    S_MM_bb = Bimodule(S_MM.space, b.B, b.B,
                       LinearMap(tensor_space([b.B.space, S_MM.space]), S_MM.space, lmm),
                       LinearMap(tensor_space([S_MM.space, b.B.space]), S_MM.space, rmm),
                       check=False)
    rep.add("thm5.4.xi-bilinear", "(5.2)", nonlinear_side(
        xi.matrix, chain_outer_bimodule(S11, S1_bb, S1_bb), S_MM_bb) is None)

    witness = MonoidalWitness(xi0, xi, rep)
    return witness, {"MM": MM, "S1": S1, "S11": S11, "S_MM": S_MM,
                     "phi_MM": phi_MM, "TMM": TMM, "TM": TM, "A_com": A_com, "S_A": S_A,
                     "TA": TA, "xi0": xi0, "xi": xi, "pair_reps": pair_reps}


def _rho_rho(b: PreTorsorBundle, pair: CoringPair, data) -> LinearMap:
    """rho (x)_B rho: T (x)_B T -> (T box C) (x)_B (T box C), on the
    cotensor of ``monoidal_witness`` for M = C; rho is corestricted once
    and serves both legs."""
    rho = corestrict_through(data["S1"].inclusion, pair.rho_T, MembershipFailure,
                             f"{b.name}: rho misses T box C")
    return chain_map(b.TBT, [(1, rho, 1), (1, rho, 1)], data["S11"], "rho x rho")


def can_factorisation(bundle: PreTorsorBundle, pair: CoringPair, gal_right,
                      witness_data) -> bool:
    """can = (T box (eps (x) C)) o xi_{C,C} o (rho (x)_B rho), matrix-exact."""
    b, w = bundle, witness_data
    C = pair.C
    alpha_eps = b.alpha.map.matrix @ C.eps.matrix
    final_raw = ((b.mu @ b.idT.kron(alpha_eps)).kron(Matrix.identity(b.field, C.dim))
                 @ b.idT.kron(w["MM"].sect.matrix))
    final = induce(w["TMM"], final_raw, pair.TC, "T box (eps (x) C)") @ w["S_MM"].inclusion
    return final @ w["xi"] @ _rho_rho(b, pair, w) == gal_right.can


# ---------------------------------------------------------------------------
# the cotensor-with-cofree isomorphism


def cofree_comodule(bgd: RightBialgebroid, N_bim: Bimodule):
    """C (x)_A N with the coaction through the first factor, validated."""
    C = bgd.coring
    A = bgd.base
    CN = tensor_chain([C.carrier, N_bim], [A])
    CN_bim = chain_outer_bimodule(CN, C.carrier, N_bim)
    CCN = tensor_chain([C.carrier, C.carrier, N_bim], [A, A])
    big = chain_map(CN, [(1, C.delta, 2), (1, None, 1)], CCN)
    CCN2 = tensor_chain([C.carrier, CN_bim], [A])
    j = chain_map(CCN2, [(1, None, 1), (1, LinearMap.identity(CN.carrier), 2)], CCN)
    rho = corestrict_through(j, big, MembershipFailure,
                             "cofree coaction misses the pair chain")
    return Comodule(C, CN_bim, "left", rho, f"C(x){N_bim.space.name}"), CN


def lemma55_check(bundle: PreTorsorBundle, pair: CoringPair,
                  bgd: RightBialgebroid, th: ThetaData,
                  N_bim: Bimodule, reduced=None) -> Report:
    """The cotensor of T with a double cofree comodule collapses.

    Verifies that the counit-collapse map psi and its theta-built inverse
    theta are mutually inverse between the cotensor T box ((C (x) N)
    (x)_{A^op} (C (x) N)) = ker(phi) and Z = (T (x) C (x) N) (x) N, with
    the one bimodule N in both factors: the cofree comodule C (x)_A N and
    its induced action are built once and serve both.  Three
    rows decide it: ``psi-theta-id`` (psi theta = id, so theta is
    injective), ``range-in-cotensor`` (phi theta = 0, so im theta lies in
    ker phi) and ``two-sided``, the exact rank equality ``rank phi =
    dim TX - dim Z``.  Together they give ker phi = im theta, so theta psi
    is the identity on the cotensor; no kernel basis is built.  If any row
    fails, ``IsoFailure`` is raised.

    ``reduced`` is an optional ``(difference, cotensor)`` pair whose
    cotensor is the kernel of ``difference``, as ``monoidal_witness``
    builds for C (x) C.  When phi is that same matrix (it is whenever
    N = A over a base of dimension one), its rank is read as
    ``dim TX - dim cotensor`` instead of eliminating phi again.
    """
    b = bundle
    f = b.field
    C = pair.C
    A = b.A
    rep = Report(f"{b.name}:cotensor-collapse")
    CN_com, CN = cofree_comodule(bgd, N_bim)
    CN_enr, _ = comodule_actions(CN_com, bgd)
    X_com, X = monoidal_product(bgd, CN_enr, CN_enr)
    TX = tensor_chain([b.T_BA, X_com.carrier], [A])

    # the equaliser difference whose kernel is the cotensor
    phi = cotensor_difference(pair.bicomodule.right_part, X_com)

    nT, nC, nN = b.T.dim, C.dim, N_bim.dim
    idT, idC, idN = b.idT, Matrix.identity(f, nC), Matrix.identity(f, nN)
    # target chain with its three balancings
    # c . a = t(a) c
    ract_lt = LinearMap(tensor_space([C.space, A.space]), C.space, kron_apply(
        f, [bgd.algebra.mult.matrix], [nC, nC], (1, 0), [None, bgd.target.map.matrix]))
    Z55 = chain_of_spaces(
        [b.T.space, C.space, N_bim.space, N_bim.space],
        [Link(0, 1, A, b.T_BA.ract, C.carrier.lact),
         Link(1, 2, A, ract_lt, N_bim.lact),
         Link(1, 3, A, C.carrier.ract, N_bim.lact)])

    # Psi: t (x) (c (x) n) (x) (c' (x) n') -> t (x) c' (x) eps(c)n (x) n'
    expand = idT.kron(CN.sect.matrix.kron(CN.sect.matrix) @ X.sect.matrix)
    collapse_eps = N_bim.lact.matrix @ C.eps.matrix.kron(idN)
    step = idT.kron(collapse_eps).kron(idC).kron(idN)
    psi_map = induce(TX, permute_rows(step, [nT, nN, nC, nN], (0, 2, 1, 3)) @ expand,
                     Z55, "psi")

    # Theta: t (x) c (x) n (x) n' ->
    #        t0 (x) ((t1 c-) (x) n) (x) (c+ (x) n')
    chi = th.chain_op.sect.matrix @ th.theta_inv.matrix \
        @ C.cc.proj.matrix @ _left_tensor_unit(f, bgd)
    rho_exp = pair.TC.sect.matrix @ pair.rho_T.matrix
    s1 = rho_exp.kron(chi).kron(idN).kron(idN)
    # legs now: t0, t1, c-, c+, n, n'
    s2 = idT.kron(bgd.algebra.mult.matrix).kron(idC).kron(idN).kron(idN) @ s1
    # legs: t0, (t1 c-), c+, n, n' -> reorder to t0, (t1 c-), n, c+, n'
    s3 = permute_rows(s2, [nT, nC, nC, nN, nN], (0, 1, 3, 2, 4))
    into_X = idT.kron(X.proj.matrix @ CN.proj.matrix.kron(CN.proj.matrix)) @ s3
    theta_map = induce(Z55, into_X, TX, "theta")

    rep.add("lem5.5.psi-theta-id", "(5.13)",
            (psi_map @ theta_map).is_identity())
    rep.add("lem5.5.range-in-cotensor", "(5.13)",
            (phi @ theta_map).is_zero())
    if reduced is not None and reduced[0].matrix == phi.matrix:
        rank = TX.dim - reduced[1].dim
    else:
        rank = phi.matrix.rank()
    rep.add("lem5.5.two-sided", "(5.14)", rank == TX.dim - Z55.dim,
            dims={"cotensor": Z55.dim, "ambient": TX.dim})
    if not rep.ok:
        raise IsoFailure(f"{b.name}: the cotensor collapse maps are not inverse")
    return rep


# ---------------------------------------------------------------------------
# recovered structure (the consistency chain)


def recovered_structure(bundle: PreTorsorBundle, pair: CoringPair,
                        bgd: RightBialgebroid, witness_data) -> Report:
    """Recover multiplication, unit and the coherence map from xi itself and
    compare with the originals."""
    b, w = bundle, witness_data
    C = pair.C
    rep = Report(f"{b.name}:recovered-structure")
    S_MM, TMM, MM = w["S_MM"], w["TMM"], w["MM"]
    # D1 = (T (x) eps o mu) o xi, then mu_rec = D1 o (rho x rho)
    collapse = b.mu @ b.idT.kron(b.alpha.map.matrix @ C.eps.matrix
                                 @ bgd.algebra.mult.matrix @ MM.sect.matrix)
    D1 = induce(TMM, collapse, single_chain(b.T.space), "D1") @ S_MM.inclusion
    mu_rec = D1 @ w["xi"] @ _rho_rho(b, pair, w)
    rep.add("thm5.4.recovered-mult", "(5.11)", mu_rec == b.mu_TBT)
    # eta_rec = (T (x) eps) o (T box t) o xi0
    eta_collapse = induce(w["TA"], b.mu @ b.idT.kron(b.alpha.map.matrix),
                          single_chain(b.T.space), "eta collapse")
    eta_rec = eta_collapse @ w["S_A"].inclusion @ w["xi0"]
    rep.add("thm5.4.recovered-unit", "(5.11)", eta_rec.matrix == b.beta.map.matrix)
    # xi_rec via the recovered multiplication formula, with
    # d(u, u') = u0 u'0 alpha(eps(u1 u'1)) as a map T (x) T -> T
    du = (b.mu @ b.mu.kron(b.alpha.map.matrix @ C.eps.matrix
                           @ bgd.algebra.mult.matrix)
          @ _rho_pair(b, pair))
    rec_to_TMM = induce(w["S11"], du.kron(MM.proj.matrix) @ w["pair_reps"], TMM,
                        "recovered xi")
    xi_rec = corestrict_through(S_MM.inclusion, rec_to_TMM, MembershipFailure,
                                "recovered xi misses the cotensor")
    rep.add("thm5.4.recovered-xi", "(5.11)", xi_rec == w["xi"])
    return rep


def _rho_pair(b, pair) -> Matrix:
    """(t, t') -> (t0 (x) t'0) (x) (t1 t'1) pre-collapse block: returns the
    matrix T (x) T -> T (x) C x C arranged as mu-input (x) mult-input."""
    rho_exp = pair.TC.sect.matrix @ pair.rho_T.matrix
    return permute_rows(rho_exp.kron(rho_exp),
                        [b.T.dim, pair.C.dim, b.T.dim, pair.C.dim], (0, 2, 1, 3))


# ---------------------------------------------------------------------------
# pre-torsors from quotient corings of a bialgebroid


def _span(ambient: Space, cols: Matrix, name: str) -> Subspace:
    """The canonical subspace spanned by the columns of ``cols``."""
    return Subspace.from_spanning(ambient, cols.transpose(), name)


def _subalgebra(alg: Algebra, sub: Subspace, name: str, err, msg: str) -> Algebra:
    """``sub`` as an algebra on its own basis under the product of ``alg``;
    raises ``err(msg)`` unless the products of its basis stay in it."""
    f, n, incl = alg.field, alg.dim, sub.inclusion.matrix
    prods = LinearMap(tensor_space([sub.space, sub.space]), alg.space,
                      kron_apply(f, [alg.mult.matrix], [n, n], None, [incl, incl]))
    mult = corestrict_through(sub.inclusion, prods, err, msg).matrix
    space = Space(f, sub.dim, name)
    return Algebra(space, LinearMap(tensor_space([space, space]), space, mult),
                   sub.coordinates(alg.unit_col), name)


def homogeneous_pretorsor(bgd: RightBialgebroid, th: ThetaData, p_span,
                          name: str = "homog"):
    """The pre-torsor of a quotient coring by a base-stable subalgebra.

    ``p_span`` spans a subset of the carrier; it is closed under products
    and the target map, the induced right ideal is verified to be a coideal,
    the quotient coring and its coinvariants are built, and the canonical
    map with its theta-built inverse is checked before the displayed
    structure map is emitted and revalidated.
    """
    C = bgd.coring
    A = bgd.base
    alg = bgd.algebra
    f, n = C.field, C.dim
    mult, proj_cc = alg.mult.matrix, C.cc.proj.matrix
    # close the span under t(A), the unit and products
    P = _span(C.space, Matrix.augment(Matrix.augment(
        alg.unit_col, Matrix.from_cols(f, p_span, n)), bgd.target.map.matrix), "P")
    while True:
        incl = P.inclusion.matrix
        bigger = _span(C.space, Matrix.augment(
            incl, kron_apply(f, [mult], [n, n], None, [incl, incl])), "P")
        if bigger.dim == P.dim:
            break
        P = bigger
    # Delta(P) inside C (x) P
    W = _span(C.cc.carrier, kron_apply(f, [proj_cc], [n, n], None,
                                       [None, P.inclusion.matrix]), "CxP")
    if not W.contains_map(C.delta @ P.inclusion):
        raise NotSubcomoduleCompatible(f"{name}: coproduct leaves C (x) P")
    # P+ and the right ideal P+C
    Pplus = intersect([P, kernel(LinearMap(C.space, A.space, C.eps.matrix))],
                      "P+")
    I = _span(C.space, kron_apply(f, [mult], [n, n], None,
                                  [Pplus.inclusion.matrix, None]), "P+C")
    # coideal checks
    if not (C.eps @ I.inclusion).is_zero():
        raise NotSubcomoduleCompatible(f"{name}: the ideal misses ker eps")
    incl_I = I.inclusion.matrix
    coideal_span = _span(C.cc.carrier, Matrix.augment(
        kron_apply(f, [proj_cc], [n, n], None, [None, incl_I]),
        kron_apply(f, [proj_cc], [n, n], None, [incl_I, None])), "coideal")
    if not coideal_span.contains_map(C.delta @ I.inclusion):
        raise NotSubcomoduleCompatible(f"{name}: the ideal is not a coideal")

    # quotient coring
    Q_space, pi, sect_Q = quotient(C.space, I, "Q")
    # induced bimodule structure on the quotient
    lact_Q = LinearMap(tensor_space([A.space, Q_space]), Q_space, pi.matrix @ kron_apply(
        f, [C.carrier.lact.matrix], [A.dim, C.dim], None, [None, sect_Q.matrix]))
    ract_Q = LinearMap(tensor_space([Q_space, A.space]), Q_space, pi.matrix @ kron_apply(
        f, [C.carrier.ract.matrix], [C.dim, A.dim], None, [sect_Q.matrix, None]))
    Q_bim = Bimodule(Q_space, A, A, lact_Q, ract_Q)
    QQ = tensor_chain([Q_bim, Q_bim], [A])
    two_pi = chain_map(C.cc, [(1, pi, 1), (1, pi, 1)], QQ)
    if not (two_pi @ C.delta @ I.inclusion).is_zero():
        raise NotSubcomoduleCompatible(f"{name}: quotient coproduct ill-defined")
    delta_Q = two_pi @ C.delta @ sect_Q
    eps_Q = LinearMap(Q_space, A.space, C.eps.matrix @ sect_Q.matrix)
    Q = Coring(A, Q_bim, delta_Q, eps_Q, name=f"Q({name})")

    # Q-comodule structure on C and its coinvariants
    CQ = tensor_chain([C.carrier, Q_bim], [A])
    rho_C = chain_map(C.cc, [(1, None, 1), (1, pi, 1)], CQ) @ C.delta
    C_comodule = Comodule(Q, C.carrier, "right", rho_C, "C")
    gQ = check_grouplike(Q, pi.matrix @ alg.unit_col)
    Bsub = coinvariants(C_comodule, gQ, "B")
    # B must contain P and close under products
    if not Bsub.contains_map(P.inclusion):
        raise CoinvariantMismatch(f"{name}: P is not inside the coinvariants")
    B_alg = _subalgebra(alg, Bsub, f"B({name})", CoinvariantMismatch,
                        f"{name}: coinvariants not a subalgebra")
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
    can = induce(CBC, can_raw, CQ, "can")
    chi_theta = th.chain_op.sect.matrix @ th.theta_inv.matrix \
        @ C.cc.proj.matrix @ _left_tensor_unit(f, bgd)
    caninv_raw = (alg.mult.matrix.kron(idC)
                  @ idC.kron(chi_theta @ sect_Q.matrix))
    # independence of the quotient representative
    if not (CBC.proj.matrix @ alg.mult.matrix.kron(idC)
            @ idC.kron(chi_theta @ I.inclusion.matrix)).is_zero():
        raise IsoFailure(f"{name}: displayed inverse is not defined on the quotient")
    can_inv = induce(CQ, caninv_raw, CBC, "can-inv")
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
    f = T.field
    idT = Matrix.identity(f, T.dim)
    mu = T.mult.matrix
    T_AA = regular_bimodule(T, alpha, alpha, check=False)
    TC = tensor_chain([T_AA, C.carrier], [A])
    CT = tensor_chain([C.carrier, T_AA], [A])
    if rho.domain is not T.space or rho.codomain is not TC.carrier:
        raise ShapeMismatch("coaction must map T into T (x) C")
    Comodule(C, T_AA, "right", rho, "T")  # validates the coaction

    # j: left linear, right colinear
    side = nonlinear_side(j.matrix, C.carrier, T_AA, ("left",))
    if side is not None:
        raise NotColinear(f"{name}: the cleaving map is not {side} linear")
    lhs = rho @ j
    rhs = chain_map(C.cc, [(1, j, 1), (1, None, 1)], TC) @ C.delta
    if lhs != rhs:
        raise NotColinear(f"{name}: the cleaving map is not colinear")
    # jt: bilinear
    side = nonlinear_side(jt.matrix, C.carrier, T_AA)
    if side is not None:
        raise NotColinear(f"{name}: the convolution inverse is not {side} linear")
    # convolution identities
    delta_raw = C.cc.sect.matrix @ C.delta.matrix
    conv1 = mu @ j.matrix.kron(jt.matrix) @ delta_raw
    conv2 = mu @ jt.matrix.kron(j.matrix) @ delta_raw
    alpha_eps = alpha.map.matrix @ C.eps.matrix
    if conv1 != alpha_eps or conv2 != alpha_eps:
        bad = first_nonzero_col(Matrix.stack_rows([conv1 - alpha_eps, conv2 - alpha_eps]))
        raise NotConvolutionInverse(
            f"{name}: convolution identities fail",
            witness=C.space.labels[bad])
    # entwined module identity for T
    TAT = tensor_chain([T_AA, T_AA], [A])
    mu_bal = induce(TAT, mu, single_chain(T.space), "mu")
    TCT = tensor_chain([T_AA, C.carrier, T_AA], [A, A])
    TTC = tensor_chain([T_AA, T_AA, C.carrier], [A, A])
    lhs = rho @ mu_bal
    rhs = (chain_map(TTC, [(2, mu_bal, 1), (1, None, 1)], TC)
           @ chain_map(TCT, [(1, None, 1), (2, psi, 2)], TTC)
           @ chain_map(TAT, [(1, rho, 2), (1, None, 1)], TCT))
    if lhs != rhs:
        raise AxiomFailure(f"{name}: T is not an entwined module")
    # identity (3.5): jt(c) rho(1) = psi(c1 (x) jt(c2)), with t -> t rho(1)
    ref = LinearMap(T.space, TC.carrier, leg_action(
        TC, 0, T, mu, "left", TC.sect.matrix @ rho.matrix @ T.unit_col))
    rhs35 = psi @ chain_map(C.cc, [(1, None, 1), (1, jt, 1)], CT) @ C.delta
    if ref @ jt != rhs35:
        raise AxiomFailure(f"{name}: the convolution-inverse entwining identity fails")
    # alpha lands in the coinvariants
    coinv = kernel(rho - ref, "Tco")
    if not coinv.contains_map(alpha.map):
        raise AxiomFailure(f"{name}: the base does not land in the coinvariants")
    B_alg = _subalgebra(T, coinv, f"B({name})", AxiomFailure,
                        f"{name}: coinvariants are not a subalgebra")
    beta = AlgebraMap(B_alg, T, LinearMap(B_alg.space, T.space,
                                          coinv.inclusion.matrix))
    # tau(t) = t0 (x) jt(t1) (x) j(t2)
    rho_exp = TC.sect.matrix @ rho.matrix
    tau_raw = (idT.kron(jt.matrix).kron(j.matrix)
               @ idT.kron(delta_raw) @ rho_exp)
    bundle = make_bundle(A, B_alg, T, alpha, beta, tau_raw, name=name)
    report = validate_pretorsor(bundle)
    return bundle, report
