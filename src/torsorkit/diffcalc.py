"""First order differential calculi and connections of a unital pre-torsor.

The degree-one forms on the A side are the elements of T (x)_B T killed by
multiplication whose first-leg structure-map image is the unit insertion;
equivalently the intersection of the A-side coring with the multiplication
kernel.  Differentials are implemented in degrees up to two, which carries
every identity checked here (d squared on degree zero, flatness of the two
canonical connections, and the twisted Leibniz rule of the bimodule
connection).  Everything is an exact matrix identity.  The base actions of
the Leibniz rules and B on tau's last leg go through ``algebra.leg_action``,
the one place a ring meets a chain leg.
"""

from __future__ import annotations

from .algebra import (
    chain_map,
    chain_outer_bimodule,
    corestrict_through,
    induce,
    leg_action,
    sub_bimodule,
    tensor_chain,
)
from .errors import (
    MembershipFailure,
    NotFlat,
    NotUnital,
    RangeFailure,
)
from .linalg import Matrix
from .pretorsor import CoringPair, EntwiningData, Hand, PreTorsorBundle
from .report import Report
from .spaces import LinearMap, intersect, kernel


class DiffCalculus:
    def __init__(self, side, base, omega1, omega1_bim, omega2, d0, d1, report):
        self.side = side                  # "A" or "B"
        self.base = base
        self.omega1 = omega1              # Subspace of the two-leg chain
        self.omega1_bim = omega1_bim
        self.omega2 = omega2              # TensorChain omega1 (x) omega1
        self.d0 = d0
        self.d1 = d1
        self.report = report

    @property
    def dim(self):
        return self.omega1.dim


class Connection:
    def __init__(self, side, nabla, extended, module_chain, report):
        self.side = side
        self.nabla = nabla
        self.extended = extended
        self.module_chain = module_chain
        self.report = report


class BimoduleConnection:
    def __init__(self, sigma_l, report):
        self.sigma_l = sigma_l            # None when tau is not right linear
        self.report = report


def build_calculus(bundle: PreTorsorBundle, pair: CoringPair,
                   side: str = "A") -> DiffCalculus:
    """Degree-(0,1,2) calculus on one base algebra of a unital pre-torsor:
    on A from the right hand's coring C, on B from the left hand's D."""
    if not bundle.is_unital():
        raise NotUnital(bundle.name, side="structure map")
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    b = bundle
    f = b.field
    rep = Report(f"{b.name}:calculus-{side}")
    h = Hand(b, "right" if side == "A" else "left", pair)
    base, two_leg, four_leg = h.base, h.two, h.X4
    unit_map_mat = h.unit.map.matrix
    outer = chain_outer_bimodule(two_leg, *h.legs(b.T_AB, b.T_BA))

    # degree-one forms: multiplication kernel intersected with the coring
    omega1 = intersect([kernel(h.mu_two, "ker mu"), h.sub],
                       f"Omega1({side})")
    rep.add("appB.omega1-in-kermu", "B.1", True,
            dims={"omega1": omega1.dim})
    om1_bim = sub_bimodule(omega1, outer, MembershipFailure)
    omega2 = tensor_chain([om1_bim, om1_bim], [base])

    # d0: a -> 1 (x) u(a) - u(a) (x) 1
    unit_col = b.T.unit_col
    d0_big = LinearMap(base.space, two_leg.carrier,
                       two_leg.proj.matrix
                       @ (unit_col.kron(unit_map_mat)
                          - unit_map_mat.kron(unit_col)))
    d0 = corestrict_through(omega1.inclusion, d0_big, MembershipFailure,
                            f"{b.name}: d0 does not land in the forms")

    # d1: three-term formula into the four-leg chain
    incl_two = omega1.inclusion.matrix
    reps = two_leg.sect.matrix @ incl_two
    term1 = four_leg.proj.matrix @ unit_col.kron(unit_col).kron(reps)
    term2 = h.two_tau.matrix @ incl_two
    term3 = four_leg.proj.matrix @ reps.kron(unit_col).kron(unit_col)
    d1_big = LinearMap(omega1.space, four_leg.carrier, term1 - term2 + term3)
    j_om2 = chain_map(omega2, [(1, omega1.inclusion, 2),
                               (1, omega1.inclusion, 2)], four_leg)
    d1 = corestrict_through(j_om2, d1_big, MembershipFailure,
                            f"{b.name}: d1 does not land in degree two")
    rep.add("appB.d1d0", "B.1", (d1 @ d0).is_zero())

    # Leibniz on degree zero
    idb = Matrix.identity(f, base.dim)
    lhs = d0.matrix @ base.mult.matrix
    rhs = (om1_bim.ract.matrix @ d0.matrix.kron(idb)
           + om1_bim.lact.matrix @ idb.kron(d0.matrix))
    rep.add("appB.leibniz0", "B.1", lhs == rhs)
    if not rep.ok:
        raise NotFlat(f"{b.name}: calculus identities failed on side {side}")
    return DiffCalculus(side, base, omega1, om1_bim, omega2, d0, d1, rep)


def connections(bundle: PreTorsorBundle, pair: CoringPair,
                calcA: DiffCalculus, calcB: DiffCalculus):
    """The canonical flat right and left connections on the pre-torsor.

    The right one is nabla(t) = tau(t) - t (x) 1 (x) 1 in T (x)_A Omega1(A),
    with the degree-one extension nabla (x) id + id (x) d1.  The left one is
    its mirror in Omega1(B) (x)_B T with the sign of every nabla term
    flipped: nabla(t) = 1 (x) 1 (x) t - tau(t), extended by
    d1 (x) id - id (x) nabla.
    """
    b = bundle
    f = b.field
    one = b.T.unit_col
    conns = []
    for h, calc in ((Hand(b, "right", pair), calcA), (Hand(b, "left", pair), calcB)):
        rep = Report(f"{b.name}:connection-{h.side}")
        chain = tensor_chain(h.legs(b.T_BA, calc.omega1_bim), [h.base])
        embed = LinearMap(b.T.space, b.X3.carrier,
                          b.X3.proj.matrix @ h.kron(b.idT, one, one))
        j = chain_map(chain, h.legs((1, None, 1), (1, calc.omega1.inclusion, 2)), b.X3)
        nabla = corestrict_through(j, h.signed(bundle.tau - embed), RangeFailure,
                                   f"{b.name}: the {h.side} connection leaves its range")
        # Leibniz: the base acts on the forms leg of nabla's values
        lhs = nabla.matrix @ h.pick(b.T_BA.ract, b.T_BA.lact).matrix
        rhs = (leg_action(chain, h.pick(1, 0), h.base,
                          h.pick(calc.omega1_bim.ract, calc.omega1_bim.lact).matrix, h.side,
                          chain.sect.matrix @ nabla.matrix)
               + chain.proj.matrix @ h.kron(b.idT, calc.d0.matrix))
        rep.add(f"appB.leibniz-{h.side}", "B.1", lhs == rhs)
        # flatness via the degree-one extension; the two Leibniz terms are only
        # jointly balanced, so the sum is induced in one step
        chain2 = tensor_chain(h.legs(b.T_BA, calc.omega1_bim, calc.omega1_bim),
                              [h.base, h.base])
        raw_nabla = h.kron(chain.sect.matrix @ nabla.matrix, Matrix.identity(f, calc.dim))
        raw_d1 = h.kron(b.idT, calc.omega2.sect.matrix @ calc.d1.matrix)
        ext = induce(chain, h.signed(raw_nabla) + raw_d1, chain2, f"{h.side} extension")
        rep.add(f"appB.flat-{h.side}", "B.1", (ext @ nabla).is_zero())
        if not rep.ok:
            raise NotFlat(f"{b.name}: {h.side} connection identities failed")
        conns.append(Connection(h.side, nabla, ext, chain, rep))
    return tuple(conns)


def _tau_right_linear(b: PreTorsorBundle) -> bool:
    """Whether tau is right B-linear, as one identity of maps on T (x) B:
    ``tau o ract_T == ract_X3 o (tau (x) id)``, where B acts on X3 through
    its last leg (``leg_action`` on ``tau_raw``)."""
    ract = b.T_AB.ract.matrix
    acted = leg_action(b.X3, 2, b.B, ract, "right", b.tau_raw)
    return b.tau.matrix @ ract == acted


def bimodule_connection(bundle: PreTorsorBundle, pair: CoringPair,
                        calcA: DiffCalculus, calcB: DiffCalculus,
                        left_conn: Connection, ent_left: EntwiningData) -> BimoduleConnection:
    """The twist map t (x) omega -> tau(t omega_1) omega_2 and its variants.

    ``sigma_l`` exists only when the structure map is right B-linear; its
    absence is a verdict recorded in the report.
    """
    b = bundle
    rep = Report(f"{b.name}:bimodule-connection")
    Om1T = left_conn.module_chain
    om1B = calcB.omega1

    j_l = chain_map(Om1T, [(1, om1B.inclusion, 2), (1, None, 1)], b.X3)

    def twist(chain, two_leg, omega1, name, msg):
        # t (x) omega -> tau(t omega_1) omega_2 on ``chain``, into Omega1(B) (x)_B T:
        # the left entwining's formula on Omega1 instead of the coring D
        raw = Hand(b, "left").entwined(two_leg.sect.matrix @ omega1.inclusion.matrix)
        to_X3 = induce(chain, raw, b.X3, name)
        return corestrict_through(j_l, to_X3, MembershipFailure, f"{b.name}: {msg}")

    # sigma_B on T (x)_B Omega1(B)
    TOm1B = tensor_chain([b.T_BB, calcB.omega1_bim], [b.B])
    sigma_b = twist(TOm1B, b.TAT, om1B, "sigma_B", "the twist map leaves its range")
    rep.add("propB.2.sigmaB-defined", "B.2(1)", True)

    # twisted Leibniz: nabla_l(t b) = nabla_l(t) b + sigma_B(t (x) d0 b);
    # the right action on the range goes through the T leg via beta
    lhs = left_conn.nabla.matrix @ b.T_BB.ract.matrix
    rhs = (leg_action(Om1T, 1, b.B, b.T_AB.ract.matrix, "right",
                      Om1T.sect.matrix @ left_conn.nabla.matrix)
           + sigma_b.matrix @ TOm1B.proj.matrix @ b.idT.kron(calcB.d0.matrix))
    rep.add("propB.2.twisted-leibniz", "B.2(1)", lhs == rhs)

    # sigma_B is a restriction of the left entwining map
    D_sub = pair.D_sub
    om1_to_D = LinearMap(om1B.space, D_sub.space,
                         D_sub.coordinates(om1B.inclusion.matrix))
    TD = tensor_chain([b.T_BB, pair.D.carrier], [b.B])
    lift = chain_map(TOm1B, [(1, None, 1), (1, om1_to_D, 1)], TD)
    into_DT = chain_map(Om1T, [(1, om1_to_D, 1), (1, None, 1)], pair.DT)
    rep.add("propB.2.sigmaB-is-psiD", "B.2", ent_left.psi @ lift == into_DT @ sigma_b)

    # sigma_l needs tau right B-linear
    tau_right_linear = _tau_right_linear(b)
    # a verdict, not a failure: the mixed twist simply may not exist
    rep.add("propB.2.tau-right-linear", "B.2(2)", True,
            witness=None if tau_right_linear
            else "TauNotRightBLinear: no mixed twist on this bundle")
    sigma_l = None
    if tau_right_linear:
        TOm1A = tensor_chain([b.T_BA, calcA.omega1_bim], [b.A])
        sigma_l = twist(TOm1A, b.TBT, calcA.omega1, "sigma_l",
                        "the mixed twist leaves its range")
        kills = sigma_l.matrix @ TOm1A.proj.matrix @ b.idT.kron(calcA.d0.matrix)
        rep.add("propB.2.sigma-l-kills-dA", "B.2(2)", kills.is_zero())
    if not rep.ok:
        raise NotFlat(f"{b.name}: bimodule connection identities failed")
    return BimoduleConnection(sigma_l, rep)
