"""Pre-torsor bundles and everything attached to them.

A bundle is (A, B, T, alpha, beta, tau) with tau: T -> T (x)_A T (x)_B T a
structure map subject to three axioms.  From a validated bundle the module
builds the two associated corings (kernels of explicit maps on T (x)_B T and
T (x)_A T), the canonical Galois maps and translation maps, the induced
entwining maps, the coinvariant bicomodule inside T (x)_B T (x)_A T and the
structure isomorphisms relating all of these.  Every corestriction is solved
as a linear system, never assumed; each solved system replaces a flatness or
purity argument with a direct check on the given data.

The two families are mirrors.  The right hand builds the A-coring C inside
T (x)_B T, its coaction T -> T (x)_A C, the Galois map and psi_C; the left
hand builds the B-coring D inside T (x)_A T, the coaction T -> D (x)_B T and
psi_D.  The left hand is the right hand with its tensor legs in reverse
order and B, beta, D in place of A, alpha, C.  Each mirrored construction
is written once, in right-hand order, against a ``Hand``, and only ``Hand``
tells the two apart; ``Hand.signed`` flips the sign of a mirror that
changes one, as the left connection of ``diffcalc`` does.  The witness of
Cor 4.8 takes a left comodule over either coring and is one body: the
cotensor functor ``coring.cotensor_coaction`` applied with T then Tbar, or
Tbar then T, and one colinear collapse.  T and Tbar as one-sided
comodules are the validated parts of ``CoringPair.bicomodule`` and
``TbarBicomodule.bicomodule``.  Not mirrors, and written out: ``kappa``,
the identity (4.8) of ``structure_isos``, and in ``diffcalc`` d0 and the
outer terms of d1 (mirroring d0 flips its sign).

Each check on elements is one identity of maps: bilinearity of tau through
``algebra.nonlinear_side``, the commuting base images as mu o (alpha (x)
beta) against its swap, units and group-likes as the columns
``Algebra.unit_col`` and ``GroupLike.element``, and the multiplication by
each ring basis element read off an action matrix (``algebra.split_left``).
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
    factor_matrix,
    first_nonzero_col,
    induce,
    nonlinear_side,
    regular_bimodule,
    single_chain,
    split_left,
    split_right,
    sub_bimodule,
    tensor_chain,
)
from .coring import (
    Bicomodule,
    Comodule,
    Coring,
    CoringMorphism,
    _witness,
    check_grouplike,
    coring_morphism,
    cotensor,
    cotensor_coaction,
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
from .linalg import Matrix, kron_apply, permute_rows
from .report import Report
from .spaces import LinearMap, image, intersect, invert, kernel


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

    def tau_pair_inner(self) -> Matrix:
        """``W = (id (x) id (x) mu (x) id (x) id) o P(0,3,4,1,2,5) o (tau (x) tau)``
        on pair representatives: t (x) t' -> t1 (x) t'1 (x) t'2 t2 (x) t3 (x) t'3,
        an n^5 x n^2 matrix.

        The middle legs are contracted first.  ``half`` sends t (x) s to
        t1 (x) s t2 (x) t3; it is applied to the t and t'2 legs of
        t (x) tau(t'), giving t'1 (x) t1 (x) t'2 t2 (x) t3 (x) t'3, and a row
        permutation swaps the first two legs.  The n^6 outer product
        tau(t) (x) tau(t') is never formed.  Not memoised: it is cheap to
        build and large to keep.
        """
        f, n, tau = self.field, self.T.dim, self.tau_raw
        half = kron_apply(f, [None, self.mu, None], [n] * 4, (0, 3, 1, 2), [tau, None])
        Z = kron_apply(f, [None, half, None], [n] * 4, (1, 0, 2, 3), [None, tau])
        return permute_rows(Z, [n] * 5, (1, 0, 2, 3, 4))

    @property
    def idT(self) -> Matrix:
        return Matrix.identity(self.field, self.T.dim)

    @property
    def mu(self) -> Matrix:
        return self.T.mult.matrix

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @staticmethod
    def to_chain(dom: TensorChain, mat: Matrix, cod: TensorChain, name="") -> LinearMap:
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

    def _omega(self, side: str) -> LinearMap:
        h = Hand(self, side)

        def build():
            step1 = h.kron(self.idT, self.tau_raw)
            first = h.kron(self.mu, self.idT, self.idT) @ step1
            second = h.kron(self.T.unit_col, self.idT, self.idT)
            return self.to_chain(h.two, first - second, self.X3, f"omega_{h.letter}")
        return self._memo(f"omega_{h.letter}", build)

    @property
    def omega_C(self) -> LinearMap:
        """(mu (x) T (x) T) o (T (x) tau) - (unit insertion), on T (x)_B T."""
        return self._omega("right")

    @property
    def omega_D(self) -> LinearMap:
        """(T (x) T (x) mu) o (tau (x) T) - (unit append), on T (x)_A T."""
        return self._omega("left")

    def is_unital(self) -> bool:
        one = self.T.unit_col
        return self.tau.matrix @ one == self.X3.proj.matrix @ one.kron(one).kron(one)

    def __repr__(self):
        return f"PreTorsorBundle({self.name}: {self.A.name}-{self.B.name} on {self.T.name})"


class TorsorBundle(PreTorsorBundle):
    """A pre-torsor declared to satisfy the torsor axioms as well."""


def make_bundle(A, B, T, alpha, beta, tau_raw, name="bundle", torsor=False):
    cls = TorsorBundle if torsor else PreTorsorBundle
    return cls(A, B, T, alpha, beta, tau_raw, name)


# ---------------------------------------------------------------------------
# the two hands


def _mirrored(right: str, left: str, owner: str = "bundle"):
    """A ``Hand`` attribute read, on use, from the bundle or the coring pair
    under its right-hand or its left-hand name."""
    return property(lambda h: getattr(getattr(h, owner), left if h.reversed else right))


class Hand:
    """The right hand (A, alpha, the coring C) or the left hand (B, beta,
    the coring D) of a bundle, and with a coring pair its coring.

    Mirrored constructions are written once, in right-hand order: ``legs``
    and ``kron`` reverse tensor factors, chain-map blocks and Kronecker
    factors for the left hand, and ``label`` does the same for the names in
    messages.  ``pick`` chooses between two words that are not mirrors, and
    ``signed`` negates for the left hand.
    """

    # per side: the coring's letter, the unit map, the base, the other side
    _WORDS = {"right": ("C", "alpha", "A", "left"), "left": ("D", "beta", "B", "right")}

    two = _mirrored("TBT", "TAT")               # the coring's ambient
    mu_two = _mirrored("mu_TBT", "mu_TAT")
    base_two = _mirrored("TAT", "TBT")          # T (x) T over the base
    mu_base = _mirrored("mu_TAT", "mu_TBT")
    X4 = _mirrored("X4C", "X4D")
    omega = _mirrored("omega_C", "omega_D")
    coring = _mirrored("C", "D", "pair")
    sub = _mirrored("C_sub", "D_sub", "pair")
    rho = _mirrored("rho_T", "lrho_T", "pair")  # T -> T (x)_A C
    TK = _mirrored("TC", "DT", "pair")
    grouplike = _mirrored("grouplike_C", "grouplike_D", "pair")

    def __init__(self, bundle: PreTorsorBundle, side: str, pair: CoringPair | None = None):
        if side not in self._WORDS:
            raise ShapeMismatch(f"side must be 'right' or 'left', not {side!r}")
        self.bundle, self.side, self.pair = bundle, side, pair
        self.reversed = side == "left"
        self.letter, self.unit_name, self.base_name, self.opposite = self._WORDS[side]
        self.unit = getattr(bundle, self.unit_name)
        self.base = getattr(bundle, self.base_name)
        self.T_base = getattr(bundle, f"T_{self.base_name}{self.base_name}")

    @property
    def KT(self) -> TensorChain:
        """C (x)_A T."""
        return tensor_chain(self.legs(self.coring.carrier, self.T_base), [self.base])

    @property
    def two_tau(self) -> LinearMap:
        """T (x)_B tau from the coring's ambient, memoised on the bundle."""
        b = self.bundle
        name = self.label("T", "tau")
        return b._memo(name, lambda: b.to_chain(
            self.two, self.kron(b.idT, b.tau_raw), self.X4, name))

    def legs(self, *xs) -> list:
        return list(xs[::-1] if self.reversed else xs)

    def kron(self, *ms: Matrix) -> Matrix:
        first, *rest = self.legs(*ms)
        for m in rest:
            first = first.kron(m)
        return first

    def entwined(self, expand: Matrix) -> Matrix:
        """The raw entwining ``(mu (x) T (x) T)(T (x) tau)(T (x) mu)(E (x)
        T)`` on the ambient, mirrored for the left hand, with E = ``expand``
        taking a coring element to ``T (x) T``: ``entwining``'s psi, and
        with E from Omega1(B) or Omega1(A) the twist maps of ``diffcalc``."""
        b = self.bundle
        return (self.kron(b.mu, b.idT, b.idT) @ self.kron(b.idT, b.tau_raw)
                @ self.kron(b.idT, b.mu) @ self.kron(expand, b.idT))

    def label(self, *names: str) -> str:
        return "(x)".join(self.legs(*names))

    def pick(self, right, left):
        return left if self.reversed else right

    def signed(self, x):
        """``x`` for the right hand and ``-x`` for the left, for a mirror
        that flips a sign."""
        return -x if self.reversed else x


# ---------------------------------------------------------------------------
# validation


def validate_pretorsor(bundle: PreTorsorBundle) -> Report:
    """Check bilinearity and the three structure axioms, report-style."""
    rep = Report(f"{bundle.name}:pre-torsor")
    T = bundle.T
    X3, X5 = bundle.X3, bundle.X5
    x3_outer = chain_outer_bimodule(X3, bundle.T_BA, bundle.T_BA)
    right, left = Hand(bundle, "right"), Hand(bundle, "left")

    # tau is left B-linear and right A-linear
    for h in (left, right):
        ok = nonlinear_side(bundle.tau.matrix, bundle.T_BA, x3_outer, (h.side,)) is None
        rep.add(f"def3.1.bilinear.{h.side}", "3.1", ok,
                witness=None if ok else f"{h.side} {h.base_name}-linearity")

    # (a) (mu (x)_B T) o tau = beta (x)_B T and, mirrored, (b)
    for h, part in ((right, "a"), (left, "b")):
        mu_legs = chain_map(X3, h.legs((2, h.mu_base, 1), (1, None, 1)), h.two,
                            f"({','.join(h.legs('mu', 'T'))})")
        lhs = mu_legs @ bundle.tau
        rhs = LinearMap(T.space, h.two.carrier,
                        h.two.proj.matrix @ h.kron(bundle.T.unit_col, bundle.idT))
        ok = lhs == rhs
        rep.add(f"def3.1.{part}", f"3.1({part})", ok,
                witness=None if ok else _witness(T.space, lhs - rhs))

    # (c) coassociativity of tau; a non-bilinear candidate makes the two
    # composites themselves ill defined, which is already a failure
    try:
        lhs_c = chain_map(X3, [(1, bundle.tau, 3), (1, None, 1), (1, None, 1)],
                          X5, "(tau,T,T)") @ bundle.tau
        rhs_c = chain_map(X3, [(1, None, 1), (1, None, 1), (1, bundle.tau, 3)],
                          X5, "(T,T,tau)") @ bundle.tau
        ok = lhs_c == rhs_c
        rep.add("def3.1.c", "3.1(c)", ok,
                witness=None if ok else _witness(T.space, lhs_c - rhs_c))
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

    # alpha(a) beta(b) == beta(b) alpha(a), the witness the first failing pair
    maps = [bundle.alpha.map.matrix, bundle.beta.map.matrix]
    bad = first_nonzero_col(kron_apply(f, [bundle.mu], [n, n], None, maps)
                            - kron_apply(f, [bundle.mu], [n, n], (1, 0), maps))
    if bad is not None:
        i, j = divmod(bad, bundle.B.dim)
        rep.add("def5.1.commuting", "5.1", False,
                witness=f"({bundle.A.space.labels[i]}, {bundle.B.space.labels[j]})")
        return rep
    rep.add("def5.1.commuting", "5.1", True)

    # (a) alpha(a) on leg 1 from the left == alpha(a) on leg 2 from the right,
    # (b) beta(b) on leg 2 from the left == beta(b) on leg 3 from the right,
    # per basis element, the multiplications read off the actions of T
    # (well defined on X3 thanks to the commuting images)
    tau = bundle.tau.matrix
    for part, ring, lact, ract, pos in (("a", bundle.A, bundle.T_AB.lact, bundle.T_BA.ract, 0),
                                        ("b", bundle.B, bundle.T_BA.lact, bundle.T_AB.ract, 1)):
        ok = all(_carrier_leg_map(X3, pos, l).matrix @ tau
                 == _carrier_leg_map(X3, pos + 1, r).matrix @ tau
                 for l, r in zip(split_left(lact.matrix, ring.dim),
                                 split_right(ract.matrix, ring.dim)))
        rep.add(f"def5.1.{part}", f"5.1({part})", ok)

    # (c) tau(t t') = t1 t'1 (x) t'2 t2 (x) t3 t'3: the middle product comes
    # contracted in tau_pair_inner, mu on the outer leg pairs finishes it
    rhs_mat = X3.proj.matrix @ kron_apply(f, [bundle.mu, None, bundle.mu], [n] * 5, None,
                                          [bundle.tau_pair_inner()])
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
    hands = (Hand(b, "right"), Hand(b, "left"))

    subs = [kernel(h.omega, h.letter) for h in hands]
    # re-check the kernel property (nothing larger is killed)
    if not (b.omega_C @ subs[0].inclusion).is_zero():
        raise MembershipFailure(f"{b.name}: omega_C does not kill C")
    if subs[0].dim != b.TBT.dim - b.omega_C.rank():
        raise MembershipFailure(f"{b.name}: C and ker(omega_C) differ in dimension")

    bims = [sub_bimodule(sub, chain_outer_bimodule(h.two, *h.legs(b.T_AB, b.T_BA)),
                         NotSubcomoduleCompatible) for h, sub in zip(hands, subs)]
    C, D = (_coring(h, sub, bim) for h, sub, bim in zip(hands, subs, bims))

    # coactions on T given by tau
    rho_T, lrho_T = (
        corestrict_through(
            chain_map(tensor_chain(h.legs(b.T_BA, bim), [h.base]),
                      h.legs((1, None, 1), (1, sub.inclusion, 2)), b.X3),
            b.tau, MembershipFailure,
            f"{b.name}: tau does not land in {h.label('T', h.letter)}")
        for h, sub, bim in zip(hands, subs, bims))
    bicomodule = Bicomodule(D, C, b.T_BA, lrho_T, rho_T, name=f"T({b.name})")

    grouplike_C = grouplike_D = None
    if bundle.is_unital():
        one_pair = b.T.unit_col.kron(b.T.unit_col)
        grouplike_C, grouplike_D = (
            check_grouplike(K, sub.retraction.matrix @ h.two.proj.matrix @ one_pair)
            for h, K, sub in zip(hands, (C, D), subs))

    return CoringPair(bundle, C, D, subs[0], subs[1], rho_T, lrho_T, bicomodule,
                      grouplike_C, grouplike_D)


def _coring(h: Hand, sub, bim) -> Coring:
    """Delta corestricts T (x)_B tau to C (x)_A C, eps pulls mu back along alpha."""
    b = h.bundle
    K = h.letter
    two_tau = h.two_tau
    KK = tensor_chain([bim, bim], [h.base])
    j_KK = chain_map(KK, [(1, sub.inclusion, 2), (1, sub.inclusion, 2)], h.X4)
    if j_KK.rank() != KK.dim:
        raise CoproductDoesNotCorestrict(f"{b.name}: {K}(x){K} -> X4 is not injective")
    delta = corestrict_through(
        j_KK, two_tau @ sub.inclusion, CoproductDoesNotCorestrict,
        f"{b.name}: {h.label('T', 'tau')} does not corestrict to {K}(x){K}")
    eps = corestrict_through(
        h.unit.map, h.mu_two @ sub.inclusion, CounitNotInImageOfUnit,
        f"{b.name}: mu({K}) does not lie in {h.unit_name}({h.base_name})")
    return Coring(h.base, bim, delta, eps, name=f"{K}({b.name})")


# ---------------------------------------------------------------------------
# Galois maps


class GaloisData:
    def __init__(self, side, can, chi):
        self.side = side
        self.can = can
        self.chi = chi

    def __repr__(self):
        return f"GaloisData({self.side}, can {self.can.domain.dim}x{self.can.domain.dim})"


def galois(bundle: PreTorsorBundle, pair: CoringPair, side: str = "right") -> GaloisData:
    """The canonical map and translation map, with the reconstruction checks.

    Right side: can: T(x)_BT -> T(x)_AC, t (x) t' -> t rho(t'); the left side
    mirrors it with the B-coring.  A failed inversion is the verdict
    NotGalois and carries the rank deficit.
    """
    h = Hand(bundle, side, pair)
    b = bundle
    f = b.field
    K, TK = h.coring, h.TK
    idK = Matrix.identity(f, K.dim)
    rho_exp = TK.sect.matrix @ h.rho.matrix
    step1 = h.kron(b.idT, rho_exp)
    step2 = h.kron(b.mu, idK)
    can = b.to_chain(h.two, step2 @ step1, TK, h.pick("can_C", "can_D_left"))
    try:
        can_inv = invert(can)
    except NotInvertible as exc:
        raise NotGalois(f"{b.name}: {side} canonical map is not bijective",
                        rank_deficit=can.domain.dim - (exc.rank or 0)) from None
    one_tensor = LinearMap(K.space, TK.carrier,
                           TK.proj.matrix @ h.kron(b.T.unit_col, idK))
    chi = can_inv @ one_tensor
    # reconstruction: tau = (T (x) chi) o rho
    tau_rt = chain_map(TK, h.legs((1, None, 1), (1, chi, 2)), b.X3) @ h.rho
    if tau_rt != bundle.tau:
        translation = h.pick("translation map", "left translation map")
        raise NotGalois(f"{b.name}: {translation} does not reproduce tau")
    # mu o chi = alpha o eps
    if h.mu_two @ chi != h.unit.map @ K.eps:
        raise NotGalois(f"{b.name}: mu o chi != {h.unit_name} o eps")
    return GaloisData(side, can, chi)


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
    h = Hand(bundle, side, pair)
    b = bundle
    f = b.field
    rep = Report(f"{b.name}:entwining-{side}")
    K, KT, TK = h.coring, h.KT, h.TK
    idK = Matrix.identity(f, K.dim)
    raw = h.entwined(h.two.sect.matrix @ h.sub.inclusion.matrix)
    to_X3 = induce(KT, LinearMap(KT.ambient, b.X3.carrier, b.X3.proj.matrix @ raw),
                   f"psi_{h.letter}")
    j_TK = chain_map(TK, h.legs((1, None, 1), (1, h.sub.inclusion, 2)), b.X3)
    psi = corestrict_through(
        j_TK, to_X3, MembershipFailure,
        f"{b.name}: psi_{h.letter} does not land in {h.label('T', h.letter)}")

    def chain3(*factors):
        return tensor_chain(h.legs(*factors), [h.base, h.base])

    Tb = h.T_base
    KTT = chain3(K.carrier, Tb, Tb)
    TKT = chain3(b.T_BA, K.carrier, Tb)
    TTK = chain3(b.T_BA, Tb, K.carrier)
    TKK = chain3(b.T_BA, K.carrier, K.carrier)
    KKT = chain3(K.carrier, K.carrier, Tb)
    mu_base = h.mu_base
    # (mu (x) C) o (T (x) psi), shared by the mult and module identities
    mu_psi = (chain_map(TTK, h.legs((2, mu_base, 1), (1, None, 1)), TK)
              @ chain_map(TKT, h.legs((1, None, 1), (2, psi, 2)), TTK))
    lhs1 = psi @ chain_map(KTT, h.legs((1, None, 1), (2, mu_base, 1)), KT)
    rhs1 = mu_psi @ chain_map(KTT, h.legs((2, psi, 2), (1, None, 1)), TKT)
    rep.add(f"entw.{side}.mult", "2(psi)", lhs1 == rhs1)

    unit_in = LinearMap(K.space, KT.carrier, KT.proj.matrix @ h.kron(idK, b.T.unit_col))
    unit_out = LinearMap(K.space, TK.carrier, TK.proj.matrix @ h.kron(b.T.unit_col, idK))
    rep.add(f"entw.{side}.unit", "2(psi)", psi @ unit_in == unit_out)

    lhs3 = chain_map(TK, h.legs((1, None, 1), (1, K.delta, 2)), TKK) @ psi
    KTK = chain3(K.carrier, Tb, K.carrier)
    rhs3 = (chain_map(KTK, h.legs((2, psi, 2), (1, None, 1)), TKK)
            @ chain_map(KKT, h.legs((1, None, 1), (2, psi, 2)), KTK)
            @ chain_map(KT, h.legs((1, K.delta, 2), (1, None, 1)), KKT))
    rep.add(f"entw.{side}.coprod", "2(psi)", lhs3 == rhs3)

    unit_eps = h.unit.map.matrix @ K.eps.matrix
    lhs4 = b.mu @ h.kron(b.idT, unit_eps) @ TK.sect.matrix @ psi.matrix
    rhs4 = b.mu @ h.kron(unit_eps, b.idT) @ KT.sect.matrix
    rep.add(f"entw.{side}.counit", "2(psi)", lhs4 == rhs4)

    # entwined module identity for T
    lhs5 = h.rho @ mu_base
    rhs5 = mu_psi @ chain_map(h.base_two, h.legs((1, h.rho, 2), (1, None, 1)), TKT)
    rep.add(f"entw.{side}.module", "2(entwined)", lhs5 == rhs5)

    try:
        psi_inv = invert(psi)
    except NotInvertible:
        psi_inv = None
    return EntwiningData(side, psi, psi_inv, rep)


# ---------------------------------------------------------------------------
# the coinvariant bicomodule


class TbarBicomodule:
    def __init__(self, subspace, carrier, bicomodule, lrho, rrho, j_CT, j_TD):
        self.subspace = subspace        # Subspace of X3bar.carrier
        self.carrier = carrier          # Bimodule on the subspace
        self.bicomodule = bicomodule    # validated C-D bicomodule
        self.lrho = lrho                # Tbar -> C (x)_A Tbar
        self.rrho = rrho                # Tbar -> Tbar (x)_B D
        self.j_CT = j_CT                # C (x)_A T -> X3bar
        self.j_TD = j_TD                # T (x)_B D -> X3bar

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
    X3bar = b.X3bar
    left, right = Hand(b, "left", pair), Hand(b, "right", pair)
    j_TD, j_CT = (chain_map(h.KT, h.legs((1, h.sub.inclusion, 2), (1, None, 1)), X3bar)
                  for h in (left, right))
    # (i) and (ii): the coinvariants of T (x)_B D and of C (x)_A T
    S_i = _coinvariant_image(left, ent_left, j_TD)
    S_ii = _coinvariant_image(right, ent_right, j_CT)

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
    lrho, rrho = (
        corestrict_through(
            chain_map(tensor_chain(h.legs(h.coring.carrier, Tbar_bim), [h.base]),
                      h.legs((1, h.sub.inclusion, 2), (1, S_iii.inclusion, 3)), X5bar),
            to_X5, MembershipFailure,
            f"{b.name}: coaction does not land in {h.label(h.letter, 'Tbar')}")
        for h in (right, left))
    bico = Bicomodule(pair.C, pair.D, Tbar_bim, lrho, rrho, name=f"Tbar({b.name})")
    return TbarBicomodule(S_iii, Tbar_bim, bico, lrho, rrho, j_CT, j_TD)


def _coinvariant_image(h: Hand, ent: EntwiningData, j: LinearMap):
    """The coinvariants of C (x)_A T under (C (x) psi_C) o (Delta_C (x) T),
    against x -> x . rho(1), as a subspace of the codomain of ``j``."""
    b = h.bundle
    f = b.field
    K, KT = h.coring, h.KT
    idK = Matrix.identity(f, K.dim)
    KTK = tensor_chain(h.legs(K.carrier, h.T_base, K.carrier), [h.base, h.base])
    KKT = tensor_chain(h.legs(K.carrier, K.carrier, h.T_base), [h.base, h.base])
    coact = (chain_map(KKT, h.legs((1, None, 1), (2, ent.psi, 2)), KTK)
             @ chain_map(KT, h.legs((1, K.delta, 2), (1, None, 1)), KKT))
    v1 = h.TK.sect.matrix @ h.rho.matrix @ b.T.unit_col
    action = KT.proj.matrix @ h.kron(Matrix.identity(f, K.space.dim), b.mu) \
        @ h.kron(KT.sect.matrix, b.idT)
    ref = LinearMap(
        KT.carrier, KTK.carrier,
        KTK.proj.matrix @ h.kron(KT.sect.matrix, idK)
        @ h.kron(action, idK) @ h.kron(Matrix.identity(f, KT.dim), v1))
    sub = kernel(coact - ref)
    return image(j @ sub.inclusion, "Tbar")


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
                   gal_right: GaloisData, gal_left: GaloisData,
                   certified: bool = True) -> IsoReport:
    """The cotensor isomorphisms and, with invertible entwinings, the
    identification of T with the coinvariant bicomodule."""
    b = bundle
    C, D = pair.C, pair.D
    rep = Report(f"{b.name}:isos")
    maps = {}
    Tbar = tb.subspace
    Tbar_bim = tb.carrier
    X3bar = b.X3bar
    right, left = Hand(b, "right", pair), Hand(b, "left", pair)

    box, TTbar, expand, j_TTbar, varpi, varpi_inv = _collapse(right, left, tb)
    rep.add("thm4.4.box-dim", "4.4", box.dim == D.dim,
            dims={"T box Tbar": box.dim, "D": D.dim}, certified=certified)
    rep.add("thm4.4.varpi", "4.4", _mutually_inverse(varpi, varpi_inv),
            certified=certified)
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
    box2, TbarT, expand2, j_TbarT, varpi2, varpi2_inv = _collapse(left, right, tb)
    rep.add("thm4.4.box2-dim", "4.4", box2.dim == C.dim,
            dims={"Tbar box T": box2.dim, "C": C.dim}, certified=certified)
    rep.add("thm4.4.varpi-mirror", "4.4", _mutually_inverse(varpi2, varpi2_inv),
            certified=certified)
    maps["varpi2"] = varpi2

    # Cor 4.3: T (x)_A Tbar = T (x)_B D and C (x)_A T = Tbar (x)_B T
    dcou, ok = _counit_iso(right, left, TTbar, expand, j_TTbar, tb.j_TD)
    rep.add("cor4.3.1", "4.3(1)", ok, certified=certified)
    maps["TA_Tbar_to_TD"] = dcou
    ccou, ok = _counit_iso(left, right, TbarT, expand2, j_TbarT, tb.j_CT)
    rep.add("cor4.3.2", "4.3(2)", ok, certified=certified)
    maps["C_AT_to_TbarT"] = ccou

    # Thm 4.9: with invertible entwinings, T = Tbar via equal one-sided coactions
    if ent_right.invertible and ent_left.invertible:
        lcoact = _one_sided_coaction(right, ent_right)
        rcoact = _one_sided_coaction(left, ent_left)
        taubar_left = tb.j_CT @ lcoact
        taubar_right = tb.j_TD @ rcoact
        ok = taubar_left == taubar_right
        rep.add("thm4.9.coactions-coincide", "4.9", ok, certified=certified)
        taubar = corestrict_through(Tbar.inclusion, taubar_left, IsoFailure,
                                    f"{b.name}: taubar does not land in Tbar")
        bij = taubar.rank() == Tbar.dim and Tbar.dim == b.T.dim
        rep.add("thm4.9.taubar-bijective", "4.9", bij,
                dims={"T": b.T.dim, "Tbar": Tbar.dim}, certified=certified)
        maps["taubar"] = taubar

        # identity (4.8)
        lcan, rcan = (
            induce(h.two, LinearMap(
                h.two.ambient, h.KT.carrier,
                h.KT.proj.matrix @ h.kron(Matrix.identity(b.field, h.coring.dim), b.mu)
                @ h.kron(h.KT.sect.matrix @ coact.matrix, b.idT)), f"{h.opposite[0]}can")
            for h, coact in ((right, lcoact), (left, rcoact)))
        lcan_inv = invert(lcan)
        rcan_inv = invert(rcan)
        TCT = tensor_chain([b.T_BA, C.carrier, b.T_AA], [b.A, b.A])
        TDT = tensor_chain([b.T_AB, D.carrier, b.T_BA], [b.B, b.B])
        lhs48 = (chain_map(TCT, [(1, None, 1), (2, lcan_inv, 2)], b.X3)
                 @ chain_map(X3bar, [(2, gal_right.can, 2), (1, None, 1)], TCT))
        rhs48 = (chain_map(TDT, [(2, rcan_inv, 2), (1, None, 1)], b.X3)
                 @ chain_map(X3bar, [(1, None, 1), (2, gal_left.can, 2)], TDT))
        rep.add("thm4.9.eq4.8", "(4.8)", lhs48 == rhs48, certified=certified)
        maps["can_D_right"] = rcan
        maps["can_C_left"] = lcan
    return IsoReport(rep, maps)


def _mutually_inverse(f: LinearMap, g: LinearMap) -> bool:
    return (f @ g).is_identity() and (g @ f).is_identity()


def _collapse(h: Hand, other: Hand, tb: TbarBicomodule):
    """T box_C Tbar and the collapse varpi onto D, with its inverse from
    tau (x)_A T; the left hand gives the mirror Tbar box_D T onto C.

    Also returns the chain T (x)_A Tbar, the expansion of its Tbar leg and
    its injection into tau (x)_A T's codomain, which Cor 4.3 reuses.
    """
    b = h.bundle
    Tbar = tb.subspace
    first, second = h.legs(h.pair.bicomodule, tb.bicomodule)
    box = cotensor(first.right_part, second.left_part, "box".join(h.legs("T", "Tbar")))
    TTbar = tensor_chain(h.legs(b.T_BA, tb.carrier), [h.base])
    # varpi: multiply the first three legs
    expand = h.kron(b.idT, b.X3bar.sect.matrix @ Tbar.inclusion.matrix)
    mul3 = h.kron(b.mu @ b.mu.kron(b.idT), b.idT)
    varpi_amb = induce(TTbar, LinearMap(
        TTbar.ambient, h.base_two.carrier, h.base_two.proj.matrix @ mul3 @ expand),
        h.pick("varpi", "varpi2"))
    varpi = corestrict_through(
        other.sub.inclusion, varpi_amb @ box.inclusion, IsoFailure,
        f"{b.name}: {h.pick('varpi', 'mirror map')} does not land in {other.letter}")
    # inverse: restriction of tau (x) T
    j = chain_map(TTbar, h.legs((1, None, 1), (1, Tbar.inclusion, 3)), other.X4)
    into_TTbar = corestrict_through(
        j, other.two_tau @ other.sub.inclusion, IsoFailure,
        f"{b.name}: {other.label('T', 'tau')} does not land in {h.label('T', 'Tbar')}")
    varpi_inv = corestrict_through(
        box.inclusion, into_TTbar, IsoFailure, f"{b.name}: " + h.pick(
            "tau(x)T does not land in the cotensor", "mirror inverse misses the cotensor"))
    return box, TTbar, expand, j, varpi, varpi_inv


def _counit_iso(h: Hand, other: Hand, TTbar, expand: Matrix, j_TTbar: LinearMap,
                j_KT: LinearMap) -> tuple[LinearMap, bool]:
    """Cor 4.3(1), T (x)_A Tbar = T (x)_B D: multiply the first two legs, and
    back by tau on the middle leg; the left hand gives (2), Tbar (x)_B T =
    C (x)_A T.  ``j_KT`` injects T (x)_B D into T (x)_B T (x)_A T.  mu and
    tau act on the ambient legs through ``kron_apply``; no Kronecker
    product of them is built."""
    b = h.bundle
    f, n = b.field, b.T.dim
    X3bar, X4, KT = b.X3bar, other.X4, other.KT
    name = f"{other.letter}cou"
    cou_amb = induce(TTbar, LinearMap(
        TTbar.ambient, X3bar.carrier, X3bar.proj.matrix @ kron_apply(
            f, h.legs(b.mu, None, None), [n] * 4, None, [expand])), name)
    cou = corestrict_through(
        j_KT, cou_amb, IsoFailure, f"{b.name}: {h.pick('counit map', 'mirror counit')} "
        f"does not land in {other.label(other.letter, 'T')}")
    expand_K = other.kron(other.two.sect.matrix @ other.sub.inclusion.matrix, b.idT)
    inv_mat = kron_apply(f, h.legs(b.mu, None, None, None), [n] * 5, None,
                         [kron_apply(f, [None, b.tau_raw, None], [n] * 3, None, [expand_K])])
    inv_amb = induce(KT, LinearMap(KT.ambient, X4.carrier, X4.proj.matrix @ inv_mat),
                     f"{name}inv")
    inv = corestrict_through(
        j_TTbar, inv_amb, IsoFailure,
        f"{b.name}: {h.pick('inverse', 'mirror inverse')} misses {h.label('T', 'Tbar')}")
    return cou, _mutually_inverse(cou, inv)


def _one_sided_coaction(h: Hand, ent: EntwiningData) -> LinearMap:
    """T -> C (x)_A T, t -> psi_C^-1(t rho(1)); the left hand gives T -> T (x)_B D."""
    b = h.bundle
    TK = h.TK
    idK = Matrix.identity(b.field, h.coring.dim)
    v1 = h.rho.matrix @ b.T.unit_col
    mult = TK.proj.matrix @ h.kron(b.mu, idK) @ h.kron(b.idT, TK.sect.matrix)
    return ent.psi_inv @ LinearMap(b.T.space, TK.carrier, mult @ h.kron(b.idT, v1))


# ---------------------------------------------------------------------------
# per-object equivalence witnesses


def equivalence_witness(bundle: PreTorsorBundle, pair: CoringPair,
                        tb: TbarBicomodule, M: Comodule,
                        certified: bool = True) -> IsoReport:
    """The composite cotensor applied to one comodule, with an explicit iso.

    For a left comodule M over the A-coring this computes the subspace
    Tbar box_D (T box_C M) and exhibits the collapse isomorphism onto M,
    colinear for the left C-coactions; for a left comodule over the B-coring
    the roles of T and Tbar, of C and D and of alpha and beta are exchanged,
    giving T box_C (Tbar box_D M).  Each box is ``coring.cotensor_coaction``
    on the validated bicomodule.  This is a per-object witness; no
    functoriality is claimed.
    """
    b = bundle
    f = b.field
    rep = Report(f"{b.name}:equivalence-{M.name}")
    maps = {}
    if M.side != "left":
        raise ShapeMismatch("equivalence witness expects a left comodule")
    if M.coring is not pair.C and M.coring is not pair.D:
        raise ShapeMismatch("comodule is not over either associated coring")
    h = Hand(b, "right" if M.coring is pair.C else "left", pair)
    # M is cotensored with the first factor, the result with the second; each
    # factor comes with the expansion of its carrier into copies of T
    (n1, R1, e1), (n2, R2, e2) = h.legs(
        ("T", pair.bicomodule, b.idT),
        ("Tbar", tb.bicomodule, b.X3bar.sect.matrix @ tb.subspace.inclusion.matrix))
    S1, S1_bim, coact_S1 = cotensor_coaction(
        R1, M, f"{n1}box{M.name}",
        f"{b.name}: the left coaction does not restrict to the cotensor")
    S1_com = Comodule(R1.left_coring, S1_bim, "left", coact_S1, f"{n1}box{M.name}")
    S2, S2_bim, coact_S2 = cotensor_coaction(
        R2, S1_com, f"{n2}box{n1}box{M.name}",
        f"{b.name}: the {h.letter}-coaction does not restrict to the composite")
    rep.add("cor4.8.dim", "4.8", S2.dim == M.dim,
            dims={"composite": S2.dim, M.name: M.dim}, certified=certified)
    # collapse: multiply the four T legs, pull back along (alpha or beta) (x) M
    idM = Matrix.identity(f, M.dim)
    R1M = tensor_chain([R1.carrier, M.carrier], [M.coring.base])
    R2S1 = tensor_chain([R2.carrier, S1_bim], [S1_com.coring.base])
    expand = e2.kron(e1.kron(idM) @ R1M.sect.matrix @ S1.inclusion.matrix)
    mu4 = b.mu @ (b.mu @ b.mu.kron(b.idT)).kron(b.idT)
    to_TM = kron_apply(f, [mu4, None], [b.T.dim ** 4, M.dim], None, [expand]) \
        @ R2S1.sect.matrix @ S2.inclusion.matrix
    X = factor_matrix(
        h.unit.map.matrix.kron(idM), to_TM, WitnessNotIso,
        f"{b.name}: collapse does not factor through {h.unit_name}")
    iso = LinearMap(S2.space, M.space, M.carrier.lact.matrix @ X)
    rank = iso.rank()
    rep.add("cor4.8.iso", "4.8", rank == S2.dim == M.dim,
            dims={"rank": rank}, certified=certified)
    maps["iso"] = iso
    # colinearity of the witness with the left coactions of M's coring
    KS2 = tensor_chain([M.coring.carrier, S2_bim], [M.coring.base])
    transported = chain_map(KS2, [(1, None, 1), (1, iso, 1)], M.chain) @ coact_S2
    rep.add("cor4.8.colinear", "4.8", transported == M.rho @ iso,
            certified=certified)
    return IsoReport(rep, maps)


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
    # validates the coaction: T must stay a D-Ct bicomodule
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
    X = factor_matrix(b.alpha.map.matrix.kron(idCt), collapse, NotAMorphism,
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
