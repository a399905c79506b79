"""Corings, comodules, bicomodules, cotensor products and coinvariants.

A coring is a coalgebra in A-A bimodules; its coproduct lands in the
balanced tensor of the carrier with itself.  All axioms are validated at
construction as exact matrix identities, with the first failing basis
vector as witness.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    Bimodule,
    TensorChain,
    chain_map,
    chain_outer_bimodule,
    first_nonzero_col,
    regular_bimodule,
    tensor_chain,
)
from .errors import (
    NotBilinear,
    NotCoassociative,
    NotColinear,
    NotCounital,
    NotCounitPreserving,
    NotGroupLike,
    ShapeMismatch,
)
from .linalg import Matrix, outer
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
        lhs = self.delta.matrix @ C.lact.matrix
        rhs = self.cc_outer.lact.matrix @ Matrix.identity(f, A.dim).kron(self.delta.matrix)
        if lhs != rhs:
            raise NotBilinear(f"{self.name}: coproduct is not left linear")
        lhs = self.delta.matrix @ C.ract.matrix
        rhs = self.cc_outer.ract.matrix @ self.delta.matrix.kron(Matrix.identity(f, A.dim))
        if lhs != rhs:
            raise NotBilinear(f"{self.name}: coproduct is not right linear")
        lhs = self.eps.matrix @ C.lact.matrix
        rhs = A.mult.matrix @ Matrix.identity(f, A.dim).kron(self.eps.matrix)
        if lhs != rhs:
            raise NotBilinear(f"{self.name}: counit is not left linear")
        lhs = self.eps.matrix @ C.ract.matrix
        rhs = A.mult.matrix @ self.eps.matrix.kron(Matrix.identity(f, A.dim))
        if lhs != rhs:
            raise NotBilinear(f"{self.name}: counit is not right linear")
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


def trivial_coring(base: Algebra, carrier: Bimodule | None = None, name: str = "") -> Coring:
    """The base algebra as a coring: Delta the canonical iso, eps = id."""
    bb = carrier or regular_bimodule(base)
    cc = tensor_chain([bb, bb], [base])
    cols = [cc.proj.apply(outer(base.field, base.space.basis_vector(j), base.unit))
            for j in range(base.dim)]
    delta = LinearMap.from_columns(base.space, cc.carrier, cols)
    eps = LinearMap.identity(base.space)
    return Coring(base, bb, delta, eps, name or base.name + "-triv")


class GroupLike:
    def __init__(self, coring: Coring, element):
        self.coring = coring
        self.element = tuple(element)

    def __repr__(self):
        return f"GroupLike({self.coring.name})"


def check_grouplike(C: Coring, g) -> GroupLike:
    g = tuple(g)
    gg = C.cc.proj.apply(outer(C.field, g, g))
    dg = C.delta.apply(g)
    if dg != gg:
        raise NotGroupLike(f"{C.name}: Delta(g) != g (x) g")
    if C.eps.apply(g) != C.base.unit:
        raise NotGroupLike(f"{C.name}: eps(g) != 1")
    return GroupLike(C, g)


class Comodule:
    """A one-sided comodule; ``side`` is 'right' or 'left'."""

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
        if side == "right":
            if carrier.right is not A:
                raise ShapeMismatch("right comodule needs a right base action")
            self.chain = tensor_chain([carrier, coring.carrier], [A])
        else:
            if carrier.left is not A:
                raise ShapeMismatch("left comodule needs a left base action")
            self.chain = tensor_chain([coring.carrier, carrier], [A])
        self.outer = chain_outer_bimodule(
            self.chain,
            carrier if side == "right" else coring.carrier,
            coring.carrier if side == "right" else carrier,
        )
        if rho.domain is not self.space or rho.codomain is not self.chain.carrier:
            raise ShapeMismatch("coaction has wrong domain or codomain")
        self.rho = rho
        if check:
            self._validate()

    @property
    def dim(self):
        return self.space.dim

    def _validate(self):
        C = self.coring
        A = C.base
        f = self.space.field
        M = self.carrier
        ident = Matrix.identity(f, self.dim)
        if self.side == "right":
            mcc = tensor_chain([M, C.carrier, C.carrier], [A, A])
            lhs = chain_map(self.chain, [(1, self.rho, 2), (1, None, 1)], mcc) @ self.rho
            rhs = chain_map(self.chain, [(1, None, 1), (1, C.delta, 2)], mcc) @ self.rho
            if lhs != rhs:
                raise NotCoassociative(
                    f"{self.name}: coaction fails coassociativity at "
                    f"{_witness(self.space, lhs - rhs)}"
                )
            counit = (
                M.ract.matrix @ ident.kron(C.eps.matrix)
                @ self.chain.sect.matrix @ self.rho.matrix
            )
            if counit != ident:
                raise NotCounital(f"{self.name}: (id (x) eps) o rho != id")
            lhs_m = self.rho.matrix @ M.ract.matrix
            rhs_m = self.outer.ract.matrix @ self.rho.matrix.kron(Matrix.identity(f, A.dim))
            if lhs_m != rhs_m:
                raise NotBilinear(f"{self.name}: coaction is not right base-linear")
            L = M.left
            lhs_m = self.rho.matrix @ M.lact.matrix
            rhs_m = self.outer.lact.matrix @ Matrix.identity(f, L.dim).kron(self.rho.matrix)
            if lhs_m != rhs_m:
                raise NotBilinear(f"{self.name}: coaction is not left linear")
        else:
            ccm = tensor_chain([C.carrier, C.carrier, M], [A, A])
            lhs = chain_map(self.chain, [(1, None, 1), (1, self.rho, 2)], ccm) @ self.rho
            rhs = chain_map(self.chain, [(1, C.delta, 2), (1, None, 1)], ccm) @ self.rho
            if lhs != rhs:
                raise NotCoassociative(
                    f"{self.name}: coaction fails coassociativity at "
                    f"{_witness(self.space, lhs - rhs)}"
                )
            counit = (
                M.lact.matrix @ C.eps.matrix.kron(ident)
                @ self.chain.sect.matrix @ self.rho.matrix
            )
            if counit != ident:
                raise NotCounital(f"{self.name}: (eps (x) id) o rho != id")
            lhs_m = self.rho.matrix @ M.lact.matrix
            rhs_m = self.outer.lact.matrix @ Matrix.identity(f, A.dim).kron(self.rho.matrix)
            if lhs_m != rhs_m:
                raise NotBilinear(f"{self.name}: coaction is not left base-linear")
            R = M.right
            lhs_m = self.rho.matrix @ M.ract.matrix
            rhs_m = self.outer.ract.matrix @ self.rho.matrix.kron(Matrix.identity(f, R.dim))
            if lhs_m != rhs_m:
                raise NotBilinear(f"{self.name}: coaction is not right linear")

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
    return kernel(lhs - rhs, name or f"{M.name}cot{N.name}")


def _tensor_with_grouplike(M: Comodule, g) -> LinearMap:
    f = M.space.field
    n = M.dim
    gcol = Matrix(f, [(x,) for x in g], 1)
    if M.side == "right":
        raw = Matrix.identity(f, n).kron(gcol)
    else:
        raw = gcol.kron(Matrix.identity(f, n))
    return LinearMap(M.space, M.chain.carrier, M.chain.proj.matrix @ raw)


def coinvariants(M: Comodule, g: GroupLike, name: str = "") -> Subspace:
    """Elements whose coaction is tensoring with the group-like element."""
    if g.coring is not M.coring:
        raise ShapeMismatch("group-like lives in a different coring")
    diff = M.rho - _tensor_with_grouplike(M, g.element)
    return kernel(diff, name or f"{M.name}^co")


def coinvariants_entwined(M: Comodule, action: LinearMap, rho_unit, name: str = "") -> Subspace:
    """Coinvariants of an entwined module: rho(m) = m . rho(1).

    ``action`` is the module structure (M (x) T -> M for a right comodule,
    T (x) M -> M for a left one) on the k-tensor ambient; ``rho_unit`` is
    the image of the ring unit under the reference coaction, expanded to
    the k-tensor ambient of that coaction's chain.
    """
    f = M.space.field
    n = M.dim
    ru = Matrix(f, [(x,) for x in rho_unit], 1)
    if M.side == "right":
        # m -> sum (m.t_k) (x) c_k ; rho_unit lives in T (x) C coordinates
        t_dim = action.domain.dim // n
        c_dim = len(rho_unit) // t_dim
        step1 = Matrix.identity(f, n).kron(ru)  # M -> M(x)T(x)C
        step2 = action.matrix.kron(Matrix.identity(f, c_dim))
        raw = step2 @ step1
    else:
        m_side = action.domain.dim // n
        d_dim = len(rho_unit) // m_side
        step1 = ru.kron(Matrix.identity(f, n))  # M -> D(x)T(x)M
        step2 = Matrix.identity(f, d_dim).kron(action.matrix)
        raw = step2 @ step1
    ref = LinearMap(M.space, M.chain.carrier, M.chain.proj.matrix @ raw)
    return kernel(M.rho - ref, name or f"{M.name}^co")


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
    f = C.field
    A = C.base
    lhs = kappa.matrix @ C.carrier.lact.matrix
    rhs = Ct.carrier.lact.matrix @ Matrix.identity(f, A.dim).kron(kappa.matrix)
    if lhs != rhs:
        raise NotColinear("coring morphism is not left linear")
    lhs = kappa.matrix @ C.carrier.ract.matrix
    rhs = Ct.carrier.ract.matrix @ kappa.matrix.kron(Matrix.identity(f, A.dim))
    if lhs != rhs:
        raise NotColinear("coring morphism is not right linear")
    two = chain_map(C.cc, [(1, kappa, 1), (1, kappa, 1)], Ct.cc)
    if Ct.delta @ kappa != two @ C.delta:
        raise NotColinear("coring morphism does not intertwine the coproducts")
    if Ct.eps @ kappa != C.eps:
        raise NotCounitPreserving("coring morphism does not preserve the counit")
    return CoringMorphism(C, Ct, kappa)
