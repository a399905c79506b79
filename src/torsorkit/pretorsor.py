"""Pre-torsor bundles and everything attached to them.

A bundle is (A, B, T, alpha, beta, tau) with tau: T -> T (x)_A T (x)_B T a
structure map subject to three axioms.  From a validated bundle the module
builds the two associated corings (kernels of explicit maps on T (x)_B T and
T (x)_A T), the canonical Galois maps and translation maps, the induced
entwining maps, the coinvariant bicomodule inside T (x)_B T (x)_A T and the
structure isomorphisms relating all of these.  Every corestriction is solved
as a linear system, never assumed; each solved system replaces a flatness or
purity argument with a direct check on the given data.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    AlgebraMap,
    TensorChain,
    _carrier_leg_map,
    certify_free,
    chain_map,
    chain_outer_bimodule,
    corestrict_through,
    induce,
    regular_bimodule,
    single_chain,
    sub_bimodule,
    tensor_chain,
)
from .coring import (
    Bicomodule,
    Comodule,
    Coring,
    CoringMorphism,
    check_grouplike,
    coring_morphism,
    cotensor,
)
from .errors import (
    AlphaNotInjective,
    NotWellDefined,
    BetaNotInjective,
    CharacterizationsDisagree,
    CoproductDoesNotCorestrict,
    CounitNotInImageOfUnit,
    IsoFailure,
    MembershipFailure,
    NotAMorphism,
    NotFree,
    NotGalois,
    NotInvertible,
    NotSubcomoduleCompatible,
    ShapeMismatch,
    TorsorKitError,
    WitnessNotIso,
)
from .linalg import Matrix, kron_apply
from .report import Report
from .spaces import LinearMap, Space, image, intersect, invert, kernel


class PreTorsorBundle:
    """(A, B, T, alpha, beta, tau); tau maps T into the chain T(x)_AT(x)_BT."""

    def __init__(self, A: Algebra, B: Algebra, T: Algebra,
                 alpha: AlgebraMap, beta: AlgebraMap, tau_raw: Matrix,
                 name: str = "bundle"):
        if T.dim == 0:
            raise ShapeMismatch("a pre-torsor needs a unital T, so dim T > 0")
        if alpha.source is not A or alpha.target is not T:
            raise ShapeMismatch("alpha must map A to T")
        if beta.source is not B or beta.target is not T:
            raise ShapeMismatch("beta must map B to T")
        self.A, self.B, self.T = A, B, T
        self.alpha, self.beta = alpha, beta
        self.name = name
        self.field = T.field
        # wrapped copies of T: left/right algebra tags used by the chains
        self.T_BA = regular_bimodule(T, beta, alpha, check=False)
        self.T_AB = regular_bimodule(T, alpha, beta, check=False)
        self.T_AA = regular_bimodule(T, alpha, alpha, check=False)
        self.T_BB = regular_bimodule(T, beta, beta, check=False)
        if tau_raw.shape != (T.dim ** 3, T.dim):
            raise ShapeMismatch("tau must be given on the cube ambient of T")
        self.tau = LinearMap(T.space, self.X3.carrier,
                             self.X3.proj.matrix @ tau_raw)
        self._cache: dict = {}

    # -- chain handles -------------------------------------------------

    @property
    def X3(self) -> TensorChain:
        """T (x)_A T (x)_B T, the codomain of tau."""
        return tensor_chain([self.T_BA, self.T_AB, self.T_BA], [self.A, self.B])

    @property
    def X5(self) -> TensorChain:
        return tensor_chain(
            [self.T_BA, self.T_AB, self.T_BA, self.T_AB, self.T_BA],
            [self.A, self.B, self.A, self.B],
        )

    @property
    def TBT(self) -> TensorChain:
        """T (x)_B T, the ambient of the A-coring."""
        return tensor_chain([self.T_AB, self.T_BA], [self.B])

    @property
    def TAT(self) -> TensorChain:
        """T (x)_A T, the ambient of the B-coring."""
        return tensor_chain([self.T_BA, self.T_AB], [self.A])

    @property
    def X3bar(self) -> TensorChain:
        """T (x)_B T (x)_A T, the ambient of the coinvariant bicomodule."""
        return tensor_chain([self.T_AB, self.T_BA, self.T_AB], [self.B, self.A])

    @property
    def X4C(self) -> TensorChain:
        return tensor_chain([self.T_AB, self.T_BA, self.T_AB, self.T_BA],
                            [self.B, self.A, self.B])

    @property
    def X4D(self) -> TensorChain:
        return tensor_chain([self.T_BA, self.T_AB, self.T_BA, self.T_AB],
                            [self.A, self.B, self.A])

    # -- raw building blocks ---------------------------------------------

    @property
    def tau_raw(self) -> Matrix:
        """tau on canonical cube representatives."""
        return self.X3.sect.matrix @ self.tau.matrix

    @property
    def idT(self) -> Matrix:
        return Matrix.identity(self.field, self.T.dim)

    @property
    def mu(self) -> Matrix:
        return self.T.mult.matrix

    @property
    def unit_col(self) -> Matrix:
        return Matrix(self.field, [(x,) for x in self.T.unit], 1)

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def to_chain(self, dom: TensorChain, mat: Matrix, cod: TensorChain, name="") -> LinearMap:
        full = LinearMap(dom.ambient, cod.carrier, cod.proj.matrix @ mat)
        return induce(dom, full, name)

    @property
    def mu_TBT(self) -> LinearMap:
        """Multiplication T (x)_B T -> T."""
        return self._memo("mu_TBT", lambda: self.to_chain(
            self.TBT, self.mu, single_chain(self.T.space), "mu over B"))

    @property
    def mu_TAT(self) -> LinearMap:
        return self._memo("mu_TAT", lambda: self.to_chain(
            self.TAT, self.mu, single_chain(self.T.space), "mu over A"))

    # -- the defining kernels ------------------------------------------

    @property
    def omega_C(self) -> LinearMap:
        """(mu (x) T (x) T) o (T (x) tau) - (unit insertion), on T (x)_B T."""
        def build():
            step1 = self.idT.kron(self.tau_raw)
            step2 = self.mu.kron(self.idT).kron(self.idT)
            first = step2 @ step1
            second = self.unit_col.kron(self.idT).kron(self.idT)
            return self.to_chain(self.TBT, first - second, self.X3, "omega_C")
        return self._memo("omega_C", build)

    @property
    def omega_D(self) -> LinearMap:
        """(T (x) T (x) mu) o (tau (x) T) - (unit append), on T (x)_A T."""
        def build():
            step1 = self.tau_raw.kron(self.idT)
            step2 = self.idT.kron(self.idT).kron(self.mu)
            first = step2 @ step1
            second = self.idT.kron(self.idT).kron(self.unit_col)
            return self.to_chain(self.TAT, first - second, self.X3, "omega_D")
        return self._memo("omega_D", build)

    def is_unital(self) -> bool:
        one = self.unit_col.kron(self.unit_col).kron(self.unit_col)
        return self.tau.apply(tuple(self.T.unit)) == tuple(
            self.X3.proj.matrix.apply(one.col(0)))

    def __repr__(self):
        return f"PreTorsorBundle({self.name}: {self.A.name}-{self.B.name} on {self.T.name})"


class TorsorBundle(PreTorsorBundle):
    """A pre-torsor declared to satisfy the torsor axioms as well."""


def make_bundle(A, B, T, alpha, beta, tau_raw, name="bundle", torsor=False):
    cls = TorsorBundle if torsor else PreTorsorBundle
    return cls(A, B, T, alpha, beta, tau_raw, name)


# ---------------------------------------------------------------------------
# validation


def _first_diff_label(space: Space, lhs: LinearMap, rhs: LinearMap):
    f = space.field
    d = lhs - rhs
    for j in range(d.domain.dim):
        if any(not f.is_zero(x) for x in d.matrix.col(j)):
            return space.labels[j] if j < len(space.labels) else str(j)
    return None


def validate_pretorsor(bundle: PreTorsorBundle) -> Report:
    """Check bilinearity and the three structure axioms, report-style."""
    rep = Report(f"{bundle.name}:pre-torsor")
    T, f = bundle.T, bundle.field
    X3, TBT, TAT, X5 = bundle.X3, bundle.TBT, bundle.TAT, bundle.X5
    idA = Matrix.identity(f, bundle.A.dim)
    idB = Matrix.identity(f, bundle.B.dim)
    x3_outer = chain_outer_bimodule(X3, bundle.T_BA, bundle.T_BA)

    lhs = bundle.tau.matrix @ bundle.T_BA.lact.matrix
    rhs = x3_outer.lact.matrix @ idB.kron(bundle.tau.matrix)
    rep.add("def3.1.bilinear.left", "3.1", lhs == rhs,
            witness=None if lhs == rhs else "left B-linearity")
    lhs = bundle.tau.matrix @ bundle.T_BA.ract.matrix
    rhs = x3_outer.ract.matrix @ bundle.tau.matrix.kron(idA)
    rep.add("def3.1.bilinear.right", "3.1", lhs == rhs,
            witness=None if lhs == rhs else "right A-linearity")

    # (a) (mu (x)_B T) o tau = beta (x)_B T
    mu12 = chain_map(X3, [(2, bundle.mu_TAT, 1), (1, None, 1)], TBT, "(mu,T)")
    lhs_a = mu12 @ bundle.tau
    rhs_a = LinearMap(T.space, TBT.carrier,
                      TBT.proj.matrix @ bundle.unit_col.kron(bundle.idT))
    ok = lhs_a == rhs_a
    rep.add("def3.1.a", "3.1(a)", ok,
            witness=None if ok else _first_diff_label(T.space, lhs_a, rhs_a))

    # (b) (T (x)_A mu) o tau = T (x)_A alpha
    mu23 = chain_map(X3, [(1, None, 1), (2, bundle.mu_TBT, 1)], TAT, "(T,mu)")
    lhs_b = mu23 @ bundle.tau
    rhs_b = LinearMap(T.space, TAT.carrier,
                      TAT.proj.matrix @ bundle.idT.kron(bundle.unit_col))
    ok = lhs_b == rhs_b
    rep.add("def3.1.b", "3.1(b)", ok,
            witness=None if ok else _first_diff_label(T.space, lhs_b, rhs_b))

    # (c) coassociativity of tau; a non-bilinear candidate makes the two
    # composites themselves ill defined, which is already a failure
    try:
        lhs_c = chain_map(X3, [(1, bundle.tau, 3), (1, None, 1), (1, None, 1)],
                          X5, "(tau,T,T)") @ bundle.tau
        rhs_c = chain_map(X3, [(1, None, 1), (1, None, 1), (1, bundle.tau, 3)],
                          X5, "(T,T,tau)") @ bundle.tau
        ok = lhs_c == rhs_c
        rep.add("def3.1.c", "3.1(c)", ok,
                witness=None if ok else _first_diff_label(T.space, lhs_c, rhs_c))
    except NotWellDefined:
        rep.add("def3.1.c", "3.1(c)", False,
                witness="structure map is not bilinear, composite undefined")

    rep.add("def3.1.unital", "B(unital)", bundle.is_unital())
    return rep


def validate_torsor(bundle: PreTorsorBundle) -> Report:
    """Commuting base images plus the four torsor axioms, report-style."""
    rep = Report(f"{bundle.name}:torsor")
    T, f = bundle.T, bundle.field
    X3 = bundle.X3
    n = T.dim

    commute = True
    witness = None
    for i in range(bundle.A.dim):
        a = bundle.alpha.map.apply(bundle.A.space.basis_vector(i))
        for j in range(bundle.B.dim):
            b = bundle.beta.map.apply(bundle.B.space.basis_vector(j))
            if T.product_vec(a, b) != T.product_vec(b, a):
                commute = False
                witness = f"({bundle.A.space.labels[i]}, {bundle.B.space.labels[j]})"
                break
        if not commute:
            break
    rep.add("def5.1.commuting", "5.1", commute, witness=witness)
    if not commute:
        return rep

    # leg multiplications on X3 (well defined thanks to the commuting images)
    def leg_mult(pos, alg_map, opposite_side):
        # per basis element of the source algebra, the multiplication on
        # leg ``pos`` of X3 seen on its carrier
        src = alg_map.source
        cols = []
        for i in range(src.dim):
            v = alg_map.map.apply(src.space.basis_vector(i))
            m = T.left_mult_map(v) if not opposite_side else T.right_mult_map(v)
            cols.append(_carrier_leg_map(X3, pos, m.matrix).matrix)
        return cols

    # (a) alpha(a) on leg 1 from the left == alpha(a) on leg 2 from the right
    lhs_cols = leg_mult(0, bundle.alpha, opposite_side=False)
    rhs_cols = leg_mult(1, bundle.alpha, opposite_side=True)
    ok = all(l @ bundle.tau.matrix == r @ bundle.tau.matrix
             for l, r in zip(lhs_cols, rhs_cols))
    rep.add("def5.1.a", "5.1(a)", ok)

    # (b) beta(b) on leg 2 from the left == beta(b) on leg 3 from the right
    lhs_cols = leg_mult(1, bundle.beta, opposite_side=False)
    rhs_cols = leg_mult(2, bundle.beta, opposite_side=True)
    ok = all(l @ bundle.tau.matrix == r @ bundle.tau.matrix
             for l, r in zip(lhs_cols, rhs_cols))
    rep.add("def5.1.b", "5.1(b)", ok)

    # (c) tau(t t') = t1 t'1 (x) t'2 t2 (x) t3 t'3: tau (x) tau lands on the
    # t legs then the t' legs, which are interleaved for mu (x) mu (x) mu
    rhs_mat = X3.proj.matrix @ kron_apply(f, [bundle.mu] * 3, [n] * 6, (0, 3, 4, 1, 2, 5),
                                          [bundle.tau_raw, bundle.tau_raw])
    lhs_mat = bundle.tau.matrix @ bundle.mu
    ok = lhs_mat == rhs_mat
    rep.add("def5.1.c", "5.1(c)", ok)

    # (d) unitality
    rep.add("def5.1.d", "5.1(d)", bundle.is_unital())
    return rep


# ---------------------------------------------------------------------------
# the two corings


class CoringPair:
    def __init__(self, bundle, C, D, C_sub, D_sub, rho_T, lrho_T, bicomodule,
                 grouplike_C, grouplike_D):
        self.bundle = bundle
        self.C = C                  # Coring over A
        self.D = D                  # Coring over B
        self.C_sub = C_sub          # Subspace of TBT.carrier
        self.D_sub = D_sub          # Subspace of TAT.carrier
        self.rho_T = rho_T          # T -> T (x)_A C
        self.lrho_T = lrho_T        # T -> D (x)_B T
        self.bicomodule = bicomodule
        self.grouplike_C = grouplike_C
        self.grouplike_D = grouplike_D

    @property
    def TC(self):
        b = self.bundle
        return tensor_chain([b.T_BA, self.C.carrier], [b.A])

    @property
    def DT(self):
        b = self.bundle
        return tensor_chain([self.D.carrier, b.T_BA], [b.B])


def build_corings(bundle: PreTorsorBundle) -> CoringPair:
    """The A-coring ker(omega_C) and B-coring ker(omega_D), fully validated."""
    if not bundle.alpha.is_injective():
        raise AlphaNotInjective(f"{bundle.name}: alpha has a kernel")
    if not bundle.beta.is_injective():
        raise BetaNotInjective(f"{bundle.name}: beta has a kernel")
    b = bundle
    TBT, TAT, X3 = b.TBT, b.TAT, b.X3

    C_sub = kernel(b.omega_C, "C")
    D_sub = kernel(b.omega_D, "D")
    # re-assert the kernel property (nothing larger is killed)
    assert (b.omega_C @ C_sub.inclusion).is_zero()
    assert C_sub.dim == TBT.dim - b.omega_C.rank()

    tbt_outer = chain_outer_bimodule(TBT, b.T_AB, b.T_BA)
    tat_outer = chain_outer_bimodule(TAT, b.T_BA, b.T_AB)
    C_bim = sub_bimodule(C_sub, tbt_outer, NotSubcomoduleCompatible)
    D_bim = sub_bimodule(D_sub, tat_outer, NotSubcomoduleCompatible)

    # Delta_C: corestriction of T (x)_B tau
    TBtau = b.to_chain(TBT, b.idT.kron(b.tau_raw), b.X4C, "T(x)tau")
    CC = tensor_chain([C_bim, C_bim], [b.A])
    j_CC = chain_map(CC, [(1, C_sub.inclusion, 2), (1, C_sub.inclusion, 2)], b.X4C)
    assert j_CC.rank() == CC.dim
    delta_C = corestrict_through(
        j_CC, TBtau @ C_sub.inclusion, CoproductDoesNotCorestrict,
        f"{b.name}: T(x)tau does not corestrict to C(x)C")

    # eps_C: multiplication followed by an alpha-preimage
    mu_C = b.mu_TBT @ C_sub.inclusion
    eps_C = corestrict_through(
        b.alpha.map, mu_C, CounitNotInImageOfUnit,
        f"{b.name}: mu(C) does not lie in alpha(A)")

    C = Coring(b.A, C_bim, delta_C, eps_C, name=f"C({b.name})")

    # Delta_D: corestriction of tau (x)_A T
    tauT = b.to_chain(TAT, b.tau_raw.kron(b.idT), b.X4D, "tau(x)T")
    DD = tensor_chain([D_bim, D_bim], [b.B])
    j_DD = chain_map(DD, [(1, D_sub.inclusion, 2), (1, D_sub.inclusion, 2)], b.X4D)
    assert j_DD.rank() == DD.dim
    delta_D = corestrict_through(
        j_DD, tauT @ D_sub.inclusion, CoproductDoesNotCorestrict,
        f"{b.name}: tau(x)T does not corestrict to D(x)D")
    mu_D = b.mu_TAT @ D_sub.inclusion
    eps_D = corestrict_through(
        b.beta.map, mu_D, CounitNotInImageOfUnit,
        f"{b.name}: mu(D) does not lie in beta(B)")
    D = Coring(b.B, D_bim, delta_D, eps_D, name=f"D({b.name})")

    # coactions on T given by tau
    TC = tensor_chain([b.T_BA, C_bim], [b.A])
    j_TC = chain_map(TC, [(1, None, 1), (1, C_sub.inclusion, 2)], X3)
    rho_T = corestrict_through(j_TC, bundle.tau, MembershipFailure,
                               f"{b.name}: tau does not land in T(x)C")
    DT = tensor_chain([D_bim, b.T_BA], [b.B])
    j_DT = chain_map(DT, [(1, D_sub.inclusion, 2), (1, None, 1)], X3)
    lrho_T = corestrict_through(j_DT, bundle.tau, MembershipFailure,
                                f"{b.name}: tau does not land in D(x)T")
    bicomodule = Bicomodule(D, C, b.T_BA, lrho_T, rho_T, name=f"T({b.name})")

    grouplike_C = grouplike_D = None
    if bundle.is_unital():
        one_pair = b.unit_col.kron(b.unit_col)
        gC = TBT.proj.apply(one_pair.col(0))
        grouplike_C = check_grouplike(C, C_sub.retraction.apply(gC))
        gD = TAT.proj.apply(one_pair.col(0))
        grouplike_D = check_grouplike(D, D_sub.retraction.apply(gD))
        # eps applied to the group-like is the base unit
        assert C.eps.apply(grouplike_C.element) == b.A.unit

    return CoringPair(bundle, C, D, C_sub, D_sub, rho_T, lrho_T, bicomodule,
                      grouplike_C, grouplike_D)


# ---------------------------------------------------------------------------
# Galois maps


class GaloisData:
    def __init__(self, side, can, can_inv, chi):
        self.side = side
        self.can = can
        self.can_inv = can_inv
        self.chi = chi

    def __repr__(self):
        return f"GaloisData({self.side}, can {self.can.domain.dim}x{self.can.domain.dim})"


def galois(bundle: PreTorsorBundle, pair: CoringPair, side: str = "right") -> GaloisData:
    """The canonical map and translation map, with the reconstruction checks.

    Right side: can: T(x)_BT -> T(x)_AC, t (x) t' -> t rho(t').  A failed
    inversion is the verdict NotGalois and carries the rank deficit.
    """
    b = bundle
    f = b.field
    if side == "right":
        TC = pair.TC
        rho_exp = TC.sect.matrix @ pair.rho_T.matrix
        step1 = b.idT.kron(rho_exp)
        step2 = b.mu.kron(Matrix.identity(f, pair.C.dim))
        can = b.to_chain(b.TBT, step2 @ step1, TC, "can_C")
        try:
            can_inv = invert(can)
        except NotInvertible as exc:
            raise NotGalois(f"{b.name}: right canonical map is not bijective",
                            rank_deficit=can.domain.dim - (exc.rank or 0)) from None
        one_tensor = LinearMap(pair.C.space, TC.carrier,
                               TC.proj.matrix @ b.unit_col.kron(Matrix.identity(f, pair.C.dim)))
        chi = can_inv @ one_tensor
        # reconstruction: tau = (T (x) chi) o rho
        tau_rt = chain_map(TC, [(1, None, 1), (1, chi, 2)], b.X3) @ pair.rho_T
        if tau_rt != bundle.tau:
            raise NotGalois(f"{b.name}: translation map does not reproduce tau")
        # mu o chi = alpha o eps
        if b.mu_TBT @ chi != b.alpha.map @ pair.C.eps:
            raise NotGalois(f"{b.name}: mu o chi != alpha o eps")
        return GaloisData("right", can, can_inv, chi)

    DT = pair.DT
    rho_exp = DT.sect.matrix @ pair.lrho_T.matrix
    step1 = rho_exp.kron(b.idT)
    step2 = Matrix.identity(f, pair.D.dim).kron(b.mu)
    can = b.to_chain(b.TAT, step2 @ step1, DT, "can_D_left")
    try:
        can_inv = invert(can)
    except NotInvertible as exc:
        raise NotGalois(f"{b.name}: left canonical map is not bijective",
                        rank_deficit=can.domain.dim - (exc.rank or 0)) from None
    one_tensor = LinearMap(pair.D.space, DT.carrier,
                           DT.proj.matrix @ Matrix.identity(f, pair.D.dim).kron(b.unit_col))
    chi = can_inv @ one_tensor
    tau_rt = chain_map(DT, [(1, chi, 2), (1, None, 1)], b.X3) @ pair.lrho_T
    if tau_rt != bundle.tau:
        raise NotGalois(f"{b.name}: left translation map does not reproduce tau")
    if b.mu_TAT @ chi != b.beta.map @ pair.D.eps:
        raise NotGalois(f"{b.name}: mu o chi != beta o eps")
    return GaloisData("left", can, can_inv, chi)


# ---------------------------------------------------------------------------
# entwining structures


class EntwiningData:
    def __init__(self, side, psi, psi_inv, report):
        self.side = side
        self.psi = psi
        self.psi_inv = psi_inv      # None when not invertible
        self.report = report

    @property
    def invertible(self):
        return self.psi_inv is not None


def entwining(bundle: PreTorsorBundle, pair: CoringPair, side: str = "right") -> EntwiningData:
    """The induced entwining map, with all four axioms checked.

    Right side: psi_C: C (x)_A T -> T (x)_A C by t_i (x) u_i (x) v ->
    t_i tau(u_i v); left side mirrored with the B-coring.
    """
    b = bundle
    f = b.field
    rep = Report(f"{b.name}:entwining-{side}")
    if side == "right":
        C, C_sub = pair.C, pair.C_sub
        CT = tensor_chain([C.carrier, b.T_AA], [b.A])
        TC = pair.TC
        expand_C = b.TBT.sect.matrix @ C_sub.inclusion.matrix
        idC = Matrix.identity(f, C.dim)
        raw = (
            b.mu.kron(b.idT).kron(b.idT)
            @ b.idT.kron(b.tau_raw)
            @ b.idT.kron(b.mu)
            @ expand_C.kron(b.idT)
        )
        to_X3 = induce(CT, LinearMap(CT.ambient, b.X3.carrier, b.X3.proj.matrix @ raw),
                       "psi_C")
        j_TC = chain_map(TC, [(1, None, 1), (1, C_sub.inclusion, 2)], b.X3)
        psi = corestrict_through(j_TC, to_X3, MembershipFailure,
                                 f"{b.name}: psi_C does not land in T(x)C")

        CTT = tensor_chain([C.carrier, b.T_AA, b.T_AA], [b.A, b.A])
        TCT = tensor_chain([b.T_BA, C.carrier, b.T_AA], [b.A, b.A])
        TTC = tensor_chain([b.T_BA, b.T_AA, C.carrier], [b.A, b.A])
        TCC = tensor_chain([b.T_BA, C.carrier, C.carrier], [b.A, b.A])
        CCT = tensor_chain([C.carrier, C.carrier, b.T_AA], [b.A, b.A])
        mu_A = bundle.mu_TAT
        lhs1 = psi @ chain_map(CTT, [(1, None, 1), (2, mu_A, 1)], CT)
        rhs1 = (chain_map(TTC, [(2, mu_A, 1), (1, None, 1)], TC)
                @ chain_map(TCT, [(1, None, 1), (2, psi, 2)], TTC)
                @ chain_map(CTT, [(2, psi, 2), (1, None, 1)], TCT))
        rep.add("entw.right.mult", "2(psi)", lhs1 == rhs1)

        unit_in = LinearMap(C.space, CT.carrier,
                            CT.proj.matrix @ idC.kron(b.unit_col))
        unit_out = LinearMap(C.space, TC.carrier,
                             TC.proj.matrix @ b.unit_col.kron(idC))
        rep.add("entw.right.unit", "2(psi)", psi @ unit_in == unit_out)

        lhs3 = chain_map(TC, [(1, None, 1), (1, C.delta, 2)], TCC) @ psi
        rhs3 = (chain_map(CTC := tensor_chain([C.carrier, b.T_AA, C.carrier],
                                              [b.A, b.A]),
                          [(2, psi, 2), (1, None, 1)], TCC)
                @ chain_map(CCT, [(1, None, 1), (2, psi, 2)], CTC)
                @ chain_map(CT, [(1, C.delta, 2), (1, None, 1)], CCT))
        rep.add("entw.right.coprod", "2(psi)", lhs3 == rhs3)

        alpha_eps = b.alpha.map.matrix @ C.eps.matrix
        lhs4 = b.mu @ b.idT.kron(alpha_eps) @ TC.sect.matrix @ psi.matrix
        rhs4 = b.mu @ alpha_eps.kron(b.idT) @ CT.sect.matrix
        rep.add("entw.right.counit", "2(psi)", lhs4 == rhs4)

        # entwined module identity for T
        lhs5 = pair.rho_T @ bundle.mu_TAT
        rhs5 = (chain_map(TTC, [(2, mu_A, 1), (1, None, 1)], TC)
                @ chain_map(TCT, [(1, None, 1), (2, psi, 2)], TTC)
                @ chain_map(b.TAT, [(1, pair.rho_T, 2), (1, None, 1)], TCT))
        rep.add("entw.right.module", "2(entwined)", lhs5 == rhs5)
    else:
        D, D_sub = pair.D, pair.D_sub
        TD = tensor_chain([b.T_BB, D.carrier], [b.B])
        DT = pair.DT
        expand_D = b.TAT.sect.matrix @ D_sub.inclusion.matrix
        idD = Matrix.identity(f, D.dim)
        raw = (
            b.idT.kron(b.idT).kron(b.mu)
            @ b.tau_raw.kron(b.idT)
            @ b.mu.kron(b.idT)
            @ b.idT.kron(expand_D)
        )
        to_X3 = induce(TD, LinearMap(TD.ambient, b.X3.carrier, b.X3.proj.matrix @ raw),
                       "psi_D")
        j_DT = chain_map(DT, [(1, D_sub.inclusion, 2), (1, None, 1)], b.X3)
        psi = corestrict_through(j_DT, to_X3, MembershipFailure,
                                 f"{b.name}: psi_D does not land in D(x)T")

        TTD = tensor_chain([b.T_BB, b.T_BB, D.carrier], [b.B, b.B])
        TDT = tensor_chain([b.T_BB, D.carrier, b.T_BA], [b.B, b.B])
        DTT = tensor_chain([D.carrier, b.T_BB, b.T_BA], [b.B, b.B])
        DDT = tensor_chain([D.carrier, D.carrier, b.T_BA], [b.B, b.B])
        TDD = tensor_chain([b.T_BB, D.carrier, D.carrier], [b.B, b.B])
        lhs1 = psi @ chain_map(TTD, [(2, bundle.mu_TBT, 1), (1, None, 1)], TD)
        rhs1 = (chain_map(DTT, [(1, None, 1), (2, bundle.mu_TBT, 1)], DT)
                @ chain_map(TDT, [(2, psi, 2), (1, None, 1)], DTT)
                @ chain_map(TTD, [(1, None, 1), (2, psi, 2)], TDT))
        rep.add("entw.left.mult", "2(psi)", lhs1 == rhs1)

        unit_in = LinearMap(D.space, TD.carrier,
                            TD.proj.matrix @ b.unit_col.kron(idD))
        unit_out = LinearMap(D.space, DT.carrier,
                             DT.proj.matrix @ idD.kron(b.unit_col))
        rep.add("entw.left.unit", "2(psi)", psi @ unit_in == unit_out)

        lhs3 = chain_map(DT, [(1, D.delta, 2), (1, None, 1)], DDT) @ psi
        rhs3 = (chain_map(DTD := tensor_chain([D.carrier, b.T_BB, D.carrier],
                                              [b.B, b.B]),
                          [(1, None, 1), (2, psi, 2)], DDT)
                @ chain_map(TDD, [(2, psi, 2), (1, None, 1)], DTD)
                @ chain_map(TD, [(1, None, 1), (1, D.delta, 2)], TDD))
        rep.add("entw.left.coprod", "2(psi)", lhs3 == rhs3)

        beta_eps = b.beta.map.matrix @ D.eps.matrix
        lhs4 = b.mu @ beta_eps.kron(b.idT) @ DT.sect.matrix @ psi.matrix
        rhs4 = b.mu @ b.idT.kron(beta_eps) @ TD.sect.matrix
        rep.add("entw.left.counit", "2(psi)", lhs4 == rhs4)

        lhs5 = pair.lrho_T @ bundle.mu_TBT
        rhs5 = (chain_map(DTT, [(1, None, 1), (2, bundle.mu_TBT, 1)], DT)
                @ chain_map(TDT, [(2, psi, 2), (1, None, 1)], DTT)
                @ chain_map(b.TBT, [(1, None, 1), (1, pair.lrho_T, 2)], TDT))
        rep.add("entw.left.module", "2(entwined)", lhs5 == rhs5)

    psi_inv = None
    try:
        psi_inv = invert(psi)
    except NotInvertible:
        psi_inv = None
    return EntwiningData(side, psi, psi_inv, rep)


# ---------------------------------------------------------------------------
# the coinvariant bicomodule


class TbarBicomodule:
    def __init__(self, subspace, carrier, bicomodule, lrho, rrho):
        self.subspace = subspace        # Subspace of X3bar.carrier
        self.carrier = carrier          # Bimodule on the subspace
        self.bicomodule = bicomodule    # validated C-D bicomodule
        self.lrho = lrho                # Tbar -> C (x)_A Tbar
        self.rrho = rrho                # Tbar -> Tbar (x)_B D

    @property
    def dim(self):
        return self.subspace.dim


def tbar(bundle: PreTorsorBundle, pair: CoringPair,
         ent_right: EntwiningData, ent_left: EntwiningData) -> TbarBicomodule:
    """The three characterisations of the coinvariant sub-bimodule.

    (i) coinvariants of the left entwined module T (x)_B D, (ii) coinvariants
    of the right entwined module C (x)_A T, (iii) the intersection of
    C (x)_A T and T (x)_B D inside T (x)_B T (x)_A T.  All three are computed
    and must agree as canonical subspaces.
    """
    b = bundle
    f = b.field
    C, D = pair.C, pair.D
    C_sub, D_sub = pair.C_sub, pair.D_sub
    X3bar = b.X3bar
    idC = Matrix.identity(f, C.dim)
    idD = Matrix.identity(f, D.dim)

    TD = tensor_chain([b.T_BB, D.carrier], [b.B])
    CT = tensor_chain([C.carrier, b.T_AA], [b.A])
    j_TD = chain_map(TD, [(1, None, 1), (1, D_sub.inclusion, 2)], X3bar)
    j_CT = chain_map(CT, [(1, C_sub.inclusion, 2), (1, None, 1)], X3bar)

    # (i): left coaction (psi_D (x) D) o (T (x) Delta_D) on T (x)_B D
    DTD = tensor_chain([D.carrier, b.T_BB, D.carrier], [b.B, b.B])
    TDD = tensor_chain([b.T_BB, D.carrier, D.carrier], [b.B, b.B])
    coact_TD = (chain_map(TDD, [(2, ent_left.psi, 2), (1, None, 1)], DTD)
                @ chain_map(TD, [(1, None, 1), (1, D.delta, 2)], TDD))
    # reference: x -> lrho(1) . x with the left T-action mu (x) D
    w1 = Matrix(f, [(x,) for x in pair.DT.sect.apply(
        pair.lrho_T.apply(tuple(b.T.unit)))], 1)
    laction_TD = TD.proj.matrix @ b.mu.kron(Matrix.identity(f, D.space.dim)) \
        @ b.idT.kron(TD.sect.matrix)
    ref_TD = LinearMap(
        TD.carrier, DTD.carrier,
        DTD.proj.matrix @ idD.kron(TD.sect.matrix)
        @ idD.kron(laction_TD) @ w1.kron(Matrix.identity(f, TD.dim)))
    sub_i = kernel(coact_TD - ref_TD)
    S_i = image(j_TD @ sub_i.inclusion, "Tbar")

    # (ii): right coaction (C (x) psi_C) o (Delta_C (x) T) on C (x)_A T
    CTC = tensor_chain([C.carrier, b.T_AA, C.carrier], [b.A, b.A])
    CCT = tensor_chain([C.carrier, C.carrier, b.T_AA], [b.A, b.A])
    coact_CT = (chain_map(CCT, [(1, None, 1), (2, ent_right.psi, 2)], CTC)
                @ chain_map(CT, [(1, C.delta, 2), (1, None, 1)], CCT))
    v1 = Matrix(f, [(x,) for x in pair.TC.sect.apply(
        pair.rho_T.apply(tuple(b.T.unit)))], 1)
    raction_CT = CT.proj.matrix @ Matrix.identity(f, C.space.dim).kron(b.mu) \
        @ CT.sect.matrix.kron(b.idT)
    ref_CT = LinearMap(
        CT.carrier, CTC.carrier,
        CTC.proj.matrix @ CT.sect.matrix.kron(idC)
        @ raction_CT.kron(idC) @ Matrix.identity(f, CT.dim).kron(v1))
    sub_ii = kernel(coact_CT - ref_CT)
    S_ii = image(j_CT @ sub_ii.inclusion, "Tbar")

    # (iii): the intersection
    S_iii = intersect([image(j_CT), image(j_TD)], "Tbar")

    if not (S_i == S_ii == S_iii):
        raise CharacterizationsDisagree(
            f"{b.name}: coinvariant characterisations disagree",
            dims=(S_i.dim, S_ii.dim, S_iii.dim))

    x3bar_outer = chain_outer_bimodule(X3bar, b.T_AB, b.T_AB)
    Tbar_bim = sub_bimodule(S_iii, x3bar_outer, NotSubcomoduleCompatible)

    # coactions: restriction of T (x)_B tau (x)_A T
    X5bar = tensor_chain([b.T_AB, b.T_BA, b.T_AB, b.T_BA, b.T_AB],
                         [b.B, b.A, b.B, b.A])
    mid_tau = X5bar.proj.matrix @ b.idT.kron(b.tau_raw).kron(b.idT) \
        @ X3bar.sect.matrix @ S_iii.inclusion.matrix
    to_X5 = LinearMap(S_iii.space, X5bar.carrier, mid_tau)
    CTbar = tensor_chain([C.carrier, Tbar_bim], [b.A])
    j_CTbar = chain_map(CTbar, [(1, C_sub.inclusion, 2),
                                (1, S_iii.inclusion, 3)], X5bar)
    lrho = corestrict_through(j_CTbar, to_X5, MembershipFailure,
                              f"{b.name}: coaction does not land in C(x)Tbar")
    TbarD = tensor_chain([Tbar_bim, D.carrier], [b.B])
    j_TbarD = chain_map(TbarD, [(1, S_iii.inclusion, 3),
                                (1, D_sub.inclusion, 2)], X5bar)
    rrho = corestrict_through(j_TbarD, to_X5, MembershipFailure,
                              f"{b.name}: coaction does not land in Tbar(x)D")
    bico = Bicomodule(C, D, Tbar_bim, lrho, rrho, name=f"Tbar({b.name})")
    return TbarBicomodule(S_iii, Tbar_bim, bico, lrho, rrho)


# ---------------------------------------------------------------------------
# structure isomorphisms


class IsoReport:
    def __init__(self, report: Report, maps: dict):
        self.report = report
        self.maps = maps

    @property
    def ok(self):
        return self.report.ok


def structure_isos(bundle: PreTorsorBundle, pair: CoringPair, tb: TbarBicomodule,
                   ent_right: EntwiningData, ent_left: EntwiningData,
                   gal_right: GaloisData | None = None,
                   gal_left: GaloisData | None = None,
                   certified: bool = True) -> IsoReport:
    """The cotensor isomorphisms and, with invertible entwinings, the
    identification of T with the coinvariant bicomodule."""
    b = bundle
    f = b.field
    C, D = pair.C, pair.D
    rep = Report(f"{b.name}:isos")
    maps = {}
    Tbar = tb.subspace
    Tbar_bim = tb.carrier
    X3bar, X4D, X4C = b.X3bar, b.X4D, b.X4C

    T_comodule_right = Comodule(C, b.T_BA, "right", pair.rho_T, "T", check=False)
    Tbar_left = Comodule(C, Tbar_bim, "left", tb.lrho, "Tbar", check=False)
    box = cotensor(T_comodule_right, Tbar_left, "TboxTbar")
    TTbar = tensor_chain([b.T_BA, Tbar_bim], [b.A])
    rep.add("thm4.4.box-dim", "4.4", box.dim == D.dim,
            dims={"T box Tbar": box.dim, "D": D.dim}, certified=certified)

    # varpi: multiply the first three legs
    expand = b.idT.kron(X3bar.sect.matrix @ Tbar.inclusion.matrix)
    mul3 = (b.mu @ b.mu.kron(b.idT)).kron(b.idT)
    varpi_amb = induce(TTbar, LinearMap(
        TTbar.ambient, b.TAT.carrier, b.TAT.proj.matrix @ mul3 @ expand), "varpi")
    varpi = corestrict_through(pair.D_sub.inclusion, varpi_amb @ box.inclusion,
                               IsoFailure, f"{b.name}: varpi does not land in D")
    # inverse: restriction of tau (x) T
    tauT = b.to_chain(b.TAT, b.tau_raw.kron(b.idT), X4D, "tau(x)T")
    j_TTbar = chain_map(TTbar, [(1, None, 1), (1, Tbar.inclusion, 3)], X4D)
    into_TTbar = corestrict_through(
        j_TTbar, tauT @ pair.D_sub.inclusion, IsoFailure,
        f"{b.name}: tau(x)T does not land in T(x)Tbar")
    varpi_inv = corestrict_through(
        box.inclusion, into_TTbar, IsoFailure,
        f"{b.name}: tau(x)T does not land in the cotensor")
    ok = (varpi @ varpi_inv).is_identity() and (varpi_inv @ varpi).is_identity()
    rep.add("thm4.4.varpi", "4.4", ok, certified=certified)
    maps["varpi"] = varpi
    maps["varpi_inv"] = varpi_inv

    # left/right D-colinearity of varpi (the two displayed identities)
    DD = tensor_chain([D.carrier, D.carrier], [b.B])
    W = tensor_chain([b.T_BA, b.T_AB, b.T_BA, Tbar_bim], [b.A, b.B, b.A])
    lhs = chain_map(DD, [(1, pair.D_sub.inclusion, 2),
                         (1, box.inclusion @ varpi_inv, 2)], W) @ D.delta @ varpi
    rhs = chain_map(TTbar, [(1, bundle.tau, 3), (1, None, 1)], W) @ box.inclusion
    rep.add("thm4.4.left-colinear", "4.4", lhs == rhs, certified=certified)

    W2 = tensor_chain([b.T_BA, Tbar_bim, D.carrier], [b.A, b.B])
    lhs2 = chain_map(DD, [(1, box.inclusion @ varpi_inv, 2),
                          (1, None, 1)], W2) @ D.delta @ varpi
    rhs2 = chain_map(TTbar, [(1, None, 1), (1, tb.rrho, 2)], W2) @ box.inclusion
    rep.add("thm4.4.right-colinear", "4.4", lhs2 == rhs2, certified=certified)

    # mirror: Tbar box_D T = C
    Tbar_right = Comodule(D, Tbar_bim, "right", tb.rrho, "Tbar", check=False)
    T_left = Comodule(D, b.T_BA, "left", pair.lrho_T, "T", check=False)
    box2 = cotensor(Tbar_right, T_left, "TbarboxT")
    TbarT = tensor_chain([Tbar_bim, b.T_BA], [b.B])
    rep.add("thm4.4.box2-dim", "4.4", box2.dim == C.dim,
            dims={"Tbar box T": box2.dim, "C": C.dim}, certified=certified)
    expand2 = (X3bar.sect.matrix @ Tbar.inclusion.matrix).kron(b.idT)
    # multiply legs 2,3,4 of (t,u,v,w): t (x) (uvw)
    mul_tail = b.idT.kron(b.mu @ b.mu.kron(b.idT))
    varpi2_amb = induce(TbarT, LinearMap(
        TbarT.ambient, b.TBT.carrier, b.TBT.proj.matrix @ mul_tail @ expand2),
        "varpi2")
    varpi2 = corestrict_through(pair.C_sub.inclusion, varpi2_amb @ box2.inclusion,
                                IsoFailure, f"{b.name}: mirror map does not land in C")
    Ttau = b.to_chain(b.TBT, b.idT.kron(b.tau_raw), X4C, "T(x)tau")
    j_TbarT = chain_map(TbarT, [(1, Tbar.inclusion, 3), (1, None, 1)], X4C)
    into_TbarT = corestrict_through(
        j_TbarT, Ttau @ pair.C_sub.inclusion, IsoFailure,
        f"{b.name}: T(x)tau does not land in Tbar(x)T")
    varpi2_inv = corestrict_through(box2.inclusion, into_TbarT, IsoFailure,
                                    f"{b.name}: mirror inverse misses the cotensor")
    ok = (varpi2 @ varpi2_inv).is_identity() and (varpi2_inv @ varpi2).is_identity()
    rep.add("thm4.4.varpi-mirror", "4.4", ok, certified=certified)
    maps["varpi2"] = varpi2

    # Cor 4.3: T (x)_A Tbar = T (x)_B D and C (x)_A T = Tbar (x)_B T
    TD = tensor_chain([b.T_BB, D.carrier], [b.B])
    CT = tensor_chain([C.carrier, b.T_AA], [b.A])
    j_TD = chain_map(TD, [(1, None, 1), (1, pair.D_sub.inclusion, 2)], X3bar)
    j_CT = chain_map(CT, [(1, pair.C_sub.inclusion, 2), (1, None, 1)], X3bar)
    dcou_amb = induce(TTbar, LinearMap(
        TTbar.ambient, X3bar.carrier,
        X3bar.proj.matrix @ b.mu.kron(b.idT).kron(b.idT) @ expand), "Dcou")
    dcou = corestrict_through(j_TD, dcou_amb, IsoFailure,
                              f"{b.name}: counit map does not land in T(x)D")
    expand_D = b.idT.kron(b.TAT.sect.matrix @ pair.D_sub.inclusion.matrix)
    dcouinv_mat = b.mu.kron(b.idT).kron(b.idT).kron(b.idT) \
        @ b.idT.kron(b.tau_raw).kron(b.idT) @ expand_D
    dcouinv_amb = induce(TD, LinearMap(TD.ambient, X4D.carrier,
                                       X4D.proj.matrix @ dcouinv_mat), "Dcouinv")
    dcouinv = corestrict_through(j_TTbar, dcouinv_amb, IsoFailure,
                                 f"{b.name}: inverse misses T(x)Tbar")
    ok = (dcou @ dcouinv).is_identity() and (dcouinv @ dcou).is_identity()
    rep.add("cor4.3.1", "4.3(1)", ok, certified=certified)
    maps["TA_Tbar_to_TD"] = dcou

    ccou_amb = induce(TbarT, LinearMap(
        TbarT.ambient, X3bar.carrier,
        X3bar.proj.matrix @ b.idT.kron(b.idT).kron(b.mu) @ expand2), "Ccou")
    ccou = corestrict_through(j_CT, ccou_amb, IsoFailure,
                              f"{b.name}: mirror counit does not land in C(x)T")
    expand_C = (b.TBT.sect.matrix @ pair.C_sub.inclusion.matrix).kron(b.idT)
    ccouinv_mat = b.idT.kron(b.idT).kron(b.idT).kron(b.mu) \
        @ b.idT.kron(b.tau_raw).kron(b.idT) @ expand_C
    ccouinv_amb = induce(CT, LinearMap(CT.ambient, X4C.carrier,
                                       X4C.proj.matrix @ ccouinv_mat), "Ccouinv")
    j_TbarT_X4C = chain_map(TbarT, [(1, Tbar.inclusion, 3), (1, None, 1)], X4C)
    ccouinv = corestrict_through(j_TbarT_X4C, ccouinv_amb, IsoFailure,
                                 f"{b.name}: mirror inverse misses Tbar(x)T")
    ok = (ccou @ ccouinv).is_identity() and (ccouinv @ ccou).is_identity()
    rep.add("cor4.3.2", "4.3(2)", ok, certified=certified)
    maps["C_AT_to_TbarT"] = ccou

    # Thm 4.9: with invertible entwinings, T = Tbar via equal one-sided coactions
    if ent_right.invertible and ent_left.invertible:
        idC = Matrix.identity(f, C.dim)
        idD = Matrix.identity(f, D.dim)
        v1c = Matrix(f, [(x,) for x in pair.rho_T.apply(tuple(b.T.unit))], 1)
        lmult_TC = pair.TC.proj.matrix @ b.mu.kron(idC) \
            @ b.idT.kron(pair.TC.sect.matrix)
        t_tau1 = LinearMap(b.T.space, pair.TC.carrier,
                           lmult_TC @ b.idT.kron(v1c))
        lcoact = ent_right.psi_inv @ t_tau1
        w1c = Matrix(f, [(x,) for x in pair.lrho_T.apply(tuple(b.T.unit))], 1)
        rmult_DT = pair.DT.proj.matrix @ idD.kron(b.mu) \
            @ pair.DT.sect.matrix.kron(b.idT)
        tau1_t = LinearMap(b.T.space, pair.DT.carrier,
                           rmult_DT @ w1c.kron(b.idT))
        rcoact = ent_left.psi_inv @ tau1_t
        taubar_left = j_CT @ lcoact
        taubar_right = j_TD @ rcoact
        ok = taubar_left == taubar_right
        rep.add("thm4.9.coactions-coincide", "4.9", ok, certified=certified)
        taubar = corestrict_through(Tbar.inclusion, taubar_left, IsoFailure,
                                    f"{b.name}: taubar does not land in Tbar")
        bij = taubar.rank() == Tbar.dim and Tbar.dim == b.T.dim
        rep.add("thm4.9.taubar-bijective", "4.9", bij,
                dims={"T": b.T.dim, "Tbar": Tbar.dim}, certified=certified)
        maps["taubar"] = taubar

        # identity (4.8)
        lcan = induce(b.TBT, LinearMap(
            b.TBT.ambient, CT.carrier,
            CT.proj.matrix @ idC.kron(b.mu)
            @ (CT.sect.matrix @ lcoact.matrix).kron(b.idT)), "lcan")
        rcan = induce(b.TAT, LinearMap(
            b.TAT.ambient, TD.carrier,
            TD.proj.matrix @ b.mu.kron(idD)
            @ b.idT.kron(TD.sect.matrix @ rcoact.matrix)), "rcan")
        lcan_inv = invert(lcan)
        rcan_inv = invert(rcan)
        can_right = gal_right or galois(bundle, pair, "right")
        can_left = gal_left or galois(bundle, pair, "left")
        TCT = tensor_chain([b.T_BA, C.carrier, b.T_AA], [b.A, b.A])
        TDT = tensor_chain([b.T_AB, D.carrier, b.T_BA], [b.B, b.B])
        lhs48 = (chain_map(TCT, [(1, None, 1), (2, lcan_inv, 2)], b.X3)
                 @ chain_map(X3bar, [(2, can_right.can, 2), (1, None, 1)], TCT))
        rhs48 = (chain_map(TDT, [(2, rcan_inv, 2), (1, None, 1)], b.X3)
                 @ chain_map(X3bar, [(1, None, 1), (2, can_left.can, 2)], TDT))
        rep.add("thm4.9.eq4.8", "(4.8)", lhs48 == rhs48, certified=certified)
        maps["can_D_right"] = rcan
        maps["can_C_left"] = lcan
    return IsoReport(rep, maps)


# ---------------------------------------------------------------------------
# per-object equivalence witnesses


def _factor_matrix(jmat: Matrix, fmat: Matrix, err, msg: str) -> Matrix:
    X = jmat.solve(fmat)
    if X is None or jmat @ X != fmat:
        raise err(msg)
    return X


def equivalence_witness(bundle: PreTorsorBundle, pair: CoringPair,
                        tb: TbarBicomodule, M: Comodule,
                        certified: bool = True) -> IsoReport:
    """The composite cotensor applied to one comodule, with an explicit iso.

    For a left comodule M over the A-coring this computes the subspace
    Tbar box_D (T box_C M) and exhibits the collapse isomorphism onto M;
    symmetrically T box_C (Tbar box_D N) for a left comodule over the
    B-coring.  This is a per-object witness; no functoriality is claimed.
    """
    b = bundle
    f = b.field
    rep = Report(f"{b.name}:equivalence-{M.name}")
    maps = {}
    if M.side != "left":
        raise ShapeMismatch("equivalence witness expects a left comodule")
    idM = Matrix.identity(f, M.dim)
    mu3 = b.mu @ b.mu.kron(b.idT)
    mu4 = b.mu @ mu3.kron(b.idT)

    if M.coring is pair.C:
        T_right = Comodule(pair.C, b.T_BA, "right", pair.rho_T, "T", check=False)
        S1 = cotensor(T_right, M, f"Tbox{M.name}")
        TM = tensor_chain([b.T_BA, M.carrier], [b.A])
        tm_outer = chain_outer_bimodule(TM, b.T_BA, M.carrier)
        S1_bim = sub_bimodule(S1, tm_outer, NotSubcomoduleCompatible)
        # left D-coaction on the cotensor, restricted from lrho (x) M
        DTM = tensor_chain([pair.D.carrier, b.T_BA, M.carrier], [b.B, b.A])
        step = chain_map(TM, [(1, pair.lrho_T, 2), (1, None, 1)], DTM) @ S1.inclusion
        DS1 = tensor_chain([pair.D.carrier, S1_bim], [b.B])
        j_DS1 = chain_map(DS1, [(1, None, 1), (1, S1.inclusion, 2)], DTM)
        coact_S1 = corestrict_through(
            j_DS1, step, MembershipFailure,
            f"{b.name}: the left coaction does not restrict to the cotensor")
        S1_com = Comodule(pair.D, S1_bim, "left", coact_S1, f"Tbox{M.name}")
        Tbar_right = Comodule(pair.D, tb.carrier, "right", tb.rrho, "Tbar",
                              check=False)
        S2 = cotensor(Tbar_right, S1_com, f"TbarboxTbox{M.name}")
        TbarS1 = tensor_chain([tb.carrier, S1_bim], [b.B])
        rep.add("cor4.8.dim", "4.8", S2.dim == M.dim,
                dims={"composite": S2.dim, M.name: M.dim}, certified=certified)
        expand = (b.X3bar.sect.matrix @ tb.subspace.inclusion.matrix).kron(
            TM.sect.matrix @ S1.inclusion.matrix)
        to_TM = mu4.kron(idM) @ expand @ TbarS1.sect.matrix @ S2.inclusion.matrix
        X = _factor_matrix(
            b.alpha.map.matrix.kron(idM), to_TM, WitnessNotIso,
            f"{b.name}: collapse does not factor through alpha")
        iso = LinearMap(S2.space, M.space, M.carrier.lact.matrix @ X)
        ok = iso.rank() == S2.dim == M.dim
        rep.add("cor4.8.iso", "4.8", ok,
                dims={"rank": iso.rank()}, certified=certified)
        maps["iso"] = iso
        # colinearity of the witness with the left C-coactions
        tbars1_outer = chain_outer_bimodule(TbarS1, tb.carrier, S1_bim)
        S2_bim = sub_bimodule(S2, tbars1_outer, NotSubcomoduleCompatible)
        CTbarS1 = tensor_chain([pair.C.carrier, tb.carrier, S1_bim], [b.A, b.B])
        step2 = chain_map(TbarS1, [(1, tb.lrho, 2), (1, None, 1)], CTbarS1) \
            @ S2.inclusion
        CS2 = tensor_chain([pair.C.carrier, S2_bim], [b.A])
        j_CS2 = chain_map(CS2, [(1, None, 1), (1, S2.inclusion, 2)], CTbarS1)
        coact_S2 = corestrict_through(
            j_CS2, step2, MembershipFailure,
            f"{b.name}: the C-coaction does not restrict to the composite")
        transported = chain_map(CS2, [(1, None, 1), (1, iso, 1)], M.chain) @ coact_S2
        rep.add("cor4.8.colinear", "4.8", transported == M.rho @ iso,
                certified=certified)
        return IsoReport(rep, maps)

    if M.coring is pair.D:
        Tbar_right = Comodule(pair.D, tb.carrier, "right", tb.rrho, "Tbar",
                              check=False)
        S1 = cotensor(Tbar_right, M, f"Tbarbox{M.name}")
        TbarM = tensor_chain([tb.carrier, M.carrier], [b.B])
        tbm_outer = chain_outer_bimodule(TbarM, tb.carrier, M.carrier)
        S1_bim = sub_bimodule(S1, tbm_outer, NotSubcomoduleCompatible)
        CTbarM = tensor_chain([pair.C.carrier, tb.carrier, M.carrier], [b.A, b.B])
        step = chain_map(TbarM, [(1, tb.lrho, 2), (1, None, 1)], CTbarM) \
            @ S1.inclusion
        CS1 = tensor_chain([pair.C.carrier, S1_bim], [b.A])
        j_CS1 = chain_map(CS1, [(1, None, 1), (1, S1.inclusion, 2)], CTbarM)
        coact_S1 = corestrict_through(
            j_CS1, step, MembershipFailure,
            f"{b.name}: the left coaction does not restrict to the cotensor")
        S1_com = Comodule(pair.C, S1_bim, "left", coact_S1, f"Tbarbox{M.name}")
        T_right = Comodule(pair.C, b.T_BA, "right", pair.rho_T, "T", check=False)
        S2 = cotensor(T_right, S1_com, f"TboxTbarbox{M.name}")
        TS1 = tensor_chain([b.T_BA, S1_bim], [b.A])
        rep.add("cor4.8.dim", "4.8", S2.dim == M.dim,
                dims={"composite": S2.dim, M.name: M.dim}, certified=certified)
        expand = b.idT.kron(
            (b.X3bar.sect.matrix @ tb.subspace.inclusion.matrix).kron(idM)
            @ TbarM.sect.matrix @ S1.inclusion.matrix)
        to_TM = mu4.kron(idM) @ expand @ TS1.sect.matrix @ S2.inclusion.matrix
        X = _factor_matrix(
            b.beta.map.matrix.kron(idM), to_TM, WitnessNotIso,
            f"{b.name}: collapse does not factor through beta")
        iso = LinearMap(S2.space, M.space, M.carrier.lact.matrix @ X)
        ok = iso.rank() == S2.dim == M.dim
        rep.add("cor4.8.iso", "4.8", ok,
                dims={"rank": iso.rank()}, certified=certified)
        maps["iso"] = iso
        return IsoReport(rep, maps)
    raise ShapeMismatch("comodule is not over either associated coring")


# ---------------------------------------------------------------------------
# uniqueness of the coring (the comparison morphism)


def kappa(bundle: PreTorsorBundle, pair: CoringPair, Ct: Coring,
          rho_tilde: LinearMap) -> tuple[CoringMorphism, bool, bool]:
    """The comparison morphism into another coring coacting on T.

    ``rho_tilde`` makes T a right comodule over ``Ct`` (with the right
    base action given by the ring structure).  Returns the validated coring
    morphism together with its bijectivity verdict and the Galois verdict of
    the alternative canonical map; the two verdicts must agree.
    """
    b = bundle
    f = b.field
    TCt = tensor_chain([b.T_BA, Ct.carrier], [b.A])
    if rho_tilde.domain is not b.T.space or rho_tilde.codomain is not TCt.carrier:
        raise ShapeMismatch("alternative coaction has wrong spaces")
    Comodule(Ct, b.T_BA, "right", rho_tilde, "T")  # validates the coaction
    # T must stay a D-Ct bicomodule
    Bicomodule(pair.D, Ct, b.T_BA, pair.lrho_T, rho_tilde, "T")

    # the induced coaction on C, with membership solved
    rho_exp = TCt.sect.matrix @ rho_tilde.matrix
    idCt = Matrix.identity(f, Ct.dim)
    raw = b.idT.kron(rho_exp) @ b.TBT.sect.matrix @ pair.C_sub.inclusion.matrix
    TBTCt = tensor_chain([b.T_AB, b.T_BA, Ct.carrier], [b.B, b.A])
    to_big = LinearMap(pair.C.space, TBTCt.carrier, TBTCt.proj.matrix @ raw)
    CCt = tensor_chain([pair.C.carrier, Ct.carrier], [b.A])
    j_CCt = chain_map(CCt, [(1, pair.C_sub.inclusion, 2), (1, None, 1)], TBTCt)
    # the corestriction succeeding is the content of the check
    corestrict_through(j_CCt, to_big, MembershipFailure,
                       f"{b.name}: induced coaction misses C(x)Ct")

    # kappa: collapse with mu, pull back along alpha, act on Ct
    collapse = b.mu.kron(idCt) @ raw
    X = _factor_matrix(b.alpha.map.matrix.kron(idCt), collapse, NotAMorphism,
                       f"{b.name}: comparison map does not factor through alpha")
    kap = LinearMap(pair.C.space, Ct.space, Ct.carrier.lact.matrix @ X)
    try:
        morphism = coring_morphism(kap, pair.C, Ct)
    except TorsorKitError as exc:
        raise NotAMorphism(f"{b.name}: comparison map fails: {exc}") from exc

    kappa_bijective = morphism.is_bijective()
    # Galois verdict for the alternative coring
    step1 = b.idT.kron(rho_exp)
    step2 = b.mu.kron(idCt)
    can_t = b.to_chain(b.TBT, step2 @ step1, TCt, "can_Ct")
    galois_verdict = can_t.domain.dim == can_t.codomain.dim \
        and can_t.rank() == can_t.domain.dim
    return morphism, kappa_bijective, galois_verdict


# ---------------------------------------------------------------------------
# hypothesis certificates


def freeness_certificates(bundle: PreTorsorBundle):
    """Freeness of T as a right A-module and left B-module.

    Returns (dict, certified): the sufficient stand-in for the faithful
    flatness hypotheses.  Missing certificates downgrade dependent checks to
    hypothesis-uncertified, they do not fail them.
    """
    certs = {}
    ok = True
    for side, mod in (("right", bundle.T_BA), ("left", bundle.T_BA)):
        try:
            certs[side] = certify_free(mod, side)
        except NotFree:
            certs[side] = None
            ok = False
    return certs, ok
