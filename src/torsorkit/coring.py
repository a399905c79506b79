"""Corings, comodules, bicomodules, cotensor products and coinvariants.

A coring is a coalgebra in A-A bimodules; its coproduct lands in the
balanced tensor of the carrier with itself.  All axioms are validated at
construction as exact matrix identities, with the first failing basis
vector as witness; bilinearity of the coproduct, the counit, a coaction and
a coring morphism is ``algebra.nonlinear_side``.  A left comodule is
validated by the right comodule's one body with its tensor legs reversed
and its two actions exchanged (``Comodule.legs``), after Brzezinski and
Wisbauer, *Corings and Comodules* (LMS LN 309, 2003), where the comodule
axioms are identities of maps.  A group-like element is a column.
``cotensor_coaction`` is the cotensor functor of a bicomodule on one
comodule, with the coaction the cotensor keeps.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    Bimodule,
    TensorChain,
    chain_map,
    chain_outer_bimodule,
    corestrict_through,
    first_nonzero_col,
    nonlinear_side,
    sub_bimodule,
    tensor_chain,
)
from .errors import (
    MembershipFailure,
    NotBilinear,
    NotCoassociative,
    NotColinear,
    NotCounital,
    NotCounitPreserving,
    NotGroupLike,
    NotSubcomoduleCompatible,
    ShapeMismatch,
)
from .linalg import Matrix
from .spaces import LinearMap, Subspace, kernel


def _witness(space, diff: LinearMap):
    """Label of the first basis vector on which ``diff`` is nonzero, or None."""
    j = first_nonzero_col(diff.matrix)
    if j is None:
        return None
    return space.labels[j] if j < len(space.labels) else str(j)


class Coring:
    """(C, Delta, eps) over a base algebra, validated on construction."""

    def __init__(self, base: Algebra, carrier: Bimodule, delta: LinearMap,
                 eps: LinearMap, name: str = "", check: bool = True):
        if carrier.left is not base or carrier.right is not base:
            raise ShapeMismatch("coring carrier must be a base-base bimodule")
        self.base = base
        self.carrier = carrier
        self.space = carrier.space
        self.name = name or self.space.name
        self.cc = tensor_chain([carrier, carrier], [base])
        self.cc_outer = chain_outer_bimodule(self.cc, carrier, carrier)
        if delta.domain is not self.space or delta.codomain is not self.cc.carrier:
            raise ShapeMismatch("coproduct must map the carrier into C(x)_A C")
        if eps.domain is not self.space or eps.codomain is not base.space:
            raise ShapeMismatch("counit must map the carrier to the base")
        self.delta = delta
        self.eps = eps
        if check:
            self._validate()

    @property
    def dim(self):
        return self.space.dim

    @property
    def field(self):
        return self.space.field

    def ccc(self) -> TensorChain:
        return tensor_chain([self.carrier] * 3, [self.base] * 2)

    def _validate(self):
        A, C = self.base, self.carrier
        f = self.field
        # bilinearity of Delta and eps
        side = nonlinear_side(self.delta.matrix, C, self.cc_outer)
        if side is not None:
            raise NotBilinear(f"{self.name}: coproduct is not {side} linear")
        side = nonlinear_side(self.eps.matrix, C,
                              Bimodule(A.space, A, A, A.mult, A.mult, check=False))
        if side is not None:
            raise NotBilinear(f"{self.name}: counit is not {side} linear")
        # coassociativity
        ccc = self.ccc()
        left = chain_map(self.cc, [(1, self.delta, 2), (1, None, 1)], ccc) @ self.delta
        right = chain_map(self.cc, [(1, None, 1), (1, self.delta, 2)], ccc) @ self.delta
        if left != right:
            raise NotCoassociative(
                f"{self.name}: coproduct fails coassociativity at basis vector "
                f"{_witness(self.space, left - right)}"
            )
        # counit laws, via the action identifications
        ident = Matrix.identity(f, self.dim)
        left_counit = (
            C.lact.matrix @ self.eps.matrix.kron(ident) @ self.cc.sect.matrix @ self.delta.matrix
        )
        if left_counit != ident:
            raise NotCounital(f"{self.name}: (eps (x) id) o Delta != id")
        right_counit = (
            C.ract.matrix @ ident.kron(self.eps.matrix) @ self.cc.sect.matrix @ self.delta.matrix
        )
        if right_counit != ident:
            raise NotCounital(f"{self.name}: (id (x) eps) o Delta != id")

    def __repr__(self):
        return f"Coring({self.name} over {self.base.name}, dim={self.dim})"


class GroupLike:
    """A group-like element of a coring, kept as a one-column matrix."""

    def __init__(self, coring: Coring, element: Matrix):
        self.coring = coring
        self.element = element

    def __repr__(self):
        return f"GroupLike({self.coring.name})"


def check_grouplike(C: Coring, g: Matrix) -> GroupLike:
    """``g``, a one-column matrix, as a group-like element of C."""
    if C.delta.matrix @ g != C.cc.proj.matrix @ g.kron(g):
        raise NotGroupLike(f"{C.name}: Delta(g) != g (x) g")
    if C.eps.matrix @ g != C.base.unit_col:
        raise NotGroupLike(f"{C.name}: eps(g) != 1")
    return GroupLike(C, g)


class Comodule:
    """A one-sided comodule; ``side`` is 'right' or 'left'.

    A left comodule is the right one with its tensor legs reversed and its
    two actions exchanged (``legs``), so each construction and check is
    written once, in right-hand order."""

    def __init__(self, coring: Coring, carrier: Bimodule, side: str,
                 rho: LinearMap, name: str = "", check: bool = True):
        if side not in ("right", "left"):
            raise ShapeMismatch("side must be 'right' or 'left'")
        self.coring = coring
        self.carrier = carrier
        self.space = carrier.space
        self.side = side
        self.name = name or self.space.name
        A = coring.base
        if (carrier.left if side == "left" else carrier.right) is not A:
            raise ShapeMismatch(f"{side} comodule needs a {side} base action")
        self.chain = tensor_chain(self.legs(carrier, coring.carrier), [A])
        self.outer = chain_outer_bimodule(self.chain, *self.legs(carrier, coring.carrier))
        if rho.domain is not self.space or rho.codomain is not self.chain.carrier:
            raise ShapeMismatch("coaction has wrong domain or codomain")
        self.rho = rho
        if check:
            self._validate()

    @property
    def dim(self):
        return self.space.dim

    def legs(self, *xs) -> list:
        """Tensor legs in right-hand order, reversed for a left comodule."""
        return list(xs[::-1] if self.side == "left" else xs)

    def _validate(self):
        """Coassociativity, the counit law, then linearity over the base and
        over the other ring, for a right comodule M -> M (x)_A C; a left
        comodule reads each through ``legs``."""
        C, M, rho = self.coring, self.carrier, self.rho
        ident = Matrix.identity(self.space.field, self.dim)
        mcc = tensor_chain(self.legs(M, C.carrier, C.carrier), [C.base] * 2)
        lhs = chain_map(self.chain, self.legs((1, rho, 2), (1, None, 1)), mcc) @ rho
        rhs = chain_map(self.chain, self.legs((1, None, 1), (1, C.delta, 2)), mcc) @ rho
        if lhs != rhs:
            raise NotCoassociative(
                f"{self.name}: coaction fails coassociativity at "
                f"{_witness(self.space, lhs - rhs)}"
            )
        base_act = self.legs(M.ract, M.lact)[0]
        first, second = self.legs(ident, C.eps.matrix)
        if base_act.matrix @ first.kron(second) @ self.chain.sect.matrix @ rho.matrix != ident:
            raise NotCounital(f"{self.name}: ({' (x) '.join(self.legs('id', 'eps'))}) "
                              "o rho != id")
        base_side, other = self.legs("right", "left")
        side = nonlinear_side(rho.matrix, M, self.outer, (base_side, other))
        if side is not None:
            base = "base-" if side == base_side else ""
            raise NotBilinear(f"{self.name}: coaction is not {side} {base}linear")

    def __repr__(self):
        return f"Comodule({self.name}, {self.side} over {self.coring.name})"


class Bicomodule:
    """A D-C bicomodule: commuting left D- and right C-coactions."""

    def __init__(self, left_coring: Coring, right_coring: Coring, carrier: Bimodule,
                 lrho: LinearMap, rrho: LinearMap, name: str = "", check: bool = True):
        self.left_coring = left_coring
        self.right_coring = right_coring
        self.carrier = carrier
        self.space = carrier.space
        self.name = name or self.space.name
        self.left_part = Comodule(left_coring, carrier, "left", lrho, name, check)
        self.right_part = Comodule(right_coring, carrier, "right", rrho, name, check)
        self.lrho = lrho
        self.rrho = rrho
        if check:
            self._validate_commuting()

    def _validate_commuting(self):
        D, C, M = self.left_coring, self.right_coring, self.carrier
        dmc = tensor_chain([D.carrier, M, C.carrier], [D.base, C.base])
        via_right = chain_map(
            self.right_part.chain, [(1, self.lrho, 2), (1, None, 1)], dmc
        ) @ self.rrho
        via_left = chain_map(
            self.left_part.chain, [(1, None, 1), (1, self.rrho, 2)], dmc
        ) @ self.lrho
        if via_right != via_left:
            raise NotColinear(
                f"{self.name}: coactions do not commute at "
                f"{_witness(self.space, via_right - via_left)}"
            )

    def __repr__(self):
        return (
            f"Bicomodule({self.name}: {self.left_coring.name}-{self.right_coring.name})"
        )


def cotensor(M: Comodule, N: Comodule, name: str = "") -> Subspace:
    """The equaliser M cotensor_C N inside the carrier of M (x)_A N."""
    return kernel(cotensor_difference(M, N), name or f"{M.name}cot{N.name}")


def cotensor_difference(M: Comodule, N: Comodule) -> LinearMap:
    """``rho_M (x) id - id (x) rho_N`` from M (x)_A N to M (x)_A C (x)_A N,
    whose kernel is the cotensor."""
    if M.side != "right" or N.side != "left":
        raise ShapeMismatch("cotensor needs a right and a left comodule")
    if M.coring is not N.coring:
        raise ShapeMismatch("cotensor factors are over different corings")
    C = M.coring
    A = C.base
    mn = tensor_chain([M.carrier, N.carrier], [A])
    mcn = tensor_chain([M.carrier, C.carrier, N.carrier], [A, A])
    lhs = chain_map(mn, [(1, M.rho, 2), (1, None, 1)], mcn)
    rhs = chain_map(mn, [(1, None, 1), (1, N.rho, 2)], mcn)
    return lhs - rhs


def cotensor_coaction(R: Bicomodule, M: Comodule, name: str, msg: str):
    """R box_K M for a K'-K bicomodule R and a left K-comodule M, as the
    cotensor functor of Brzezinski and Wisbauer (section 22) gives it: the
    subspace of R (x) M, its sub-bimodule and its left K'-coaction, the
    restriction of ``lrho_R (x) M``, corestricted with ``msg`` as the error."""
    S = cotensor(R.right_part, M, name)
    K, A = R.left_coring, M.coring.base
    RM = tensor_chain([R.carrier, M.carrier], [A])
    S_bim = sub_bimodule(S, chain_outer_bimodule(RM, R.carrier, M.carrier),
                         NotSubcomoduleCompatible)
    KRM = tensor_chain([K.carrier, R.carrier, M.carrier], [K.base, A])
    step = chain_map(RM, [(1, R.lrho, 2), (1, None, 1)], KRM) @ S.inclusion
    KS = tensor_chain([K.carrier, S_bim], [K.base])
    j = chain_map(KS, [(1, None, 1), (1, S.inclusion, 2)], KRM)
    return S, S_bim, corestrict_through(j, step, MembershipFailure, msg)


def _tensor_with_grouplike(M: Comodule, g: Matrix) -> LinearMap:
    first, second = M.legs(Matrix.identity(M.space.field, M.dim), g)
    return LinearMap(M.space, M.chain.carrier, M.chain.proj.matrix @ first.kron(second))


def coinvariants(M: Comodule, g: GroupLike, name: str = "") -> Subspace:
    """Elements whose coaction is tensoring with the group-like element."""
    if g.coring is not M.coring:
        raise ShapeMismatch("group-like lives in a different coring")
    diff = M.rho - _tensor_with_grouplike(M, g.element)
    return kernel(diff, name or f"{M.name}^co")


class CoringMorphism:
    def __init__(self, source: Coring, target: Coring, map: LinearMap):
        self.source = source
        self.target = target
        self.map = map

    def is_bijective(self):
        return (
            self.source.dim == self.target.dim
            and self.map.rank() == self.source.dim
        )

    def __repr__(self):
        return f"CoringMorphism({self.source.name} -> {self.target.name})"


def coring_morphism(kappa: LinearMap, C: Coring, Ct: Coring) -> CoringMorphism:
    """Validate an A-coring morphism C -> Ct."""
    if C.base is not Ct.base:
        raise ShapeMismatch("coring morphism needs a common base algebra")
    if kappa.domain is not C.space or kappa.codomain is not Ct.space:
        raise ShapeMismatch("morphism has wrong underlying spaces")
    side = nonlinear_side(kappa.matrix, C.carrier, Ct.carrier)
    if side is not None:
        raise NotColinear(f"coring morphism is not {side} linear")
    two = chain_map(C.cc, [(1, kappa, 1), (1, kappa, 1)], Ct.cc)
    if Ct.delta @ kappa != two @ C.delta:
        raise NotColinear("coring morphism does not intertwine the coproducts")
    if Ct.eps @ kappa != C.eps:
        raise NotCounitPreserving("coring morphism does not preserve the counit")
    return CoringMorphism(C, Ct, kappa)
