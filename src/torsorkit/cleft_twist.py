"""Twisted bialgebroids from measured algebras and cocycles.

The carrier is B (x)_L (B (x)_L H) for a left x_L-Hopf algebra H acting on
an L-ring B, with a B-valued 2-cocycle.  The cocycle axioms live outside
this engine's data model, so the inputs are validated purely through their
consequences: every displayed structure formula must be balanced over the
stated tensor products, and the assembled object must pass the full left
bialgebroid sweep with a bijective Galois map whose displayed inverse is
verified two-sided.  Twist reports carry a note naming these stand-in
checks.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    AlgebraMap,
    Bimodule,
    Link,
    chain_of_spaces,
    make_algebra,
    opposite,
    tensor_chain,
    tensor_space,
)
from .bialgebroid import (
    LeftBialgebroid,
    ThetaData,
    _outer_pair,
    left_bialgebroid_axioms,
    theta,
)
from .coring import Coring
from .errors import (
    AxiomFailure,
    IsoFailure,
    NotWellDefined,
    ShapeMismatch,
)
from .linalg import Matrix, permute_cols, permute_rows
from .report import Report
from .spaces import LinearMap
from .fixtures import HopfData, field_algebra

COCYCLE_NOTE = ("cocycle axioms are external data: validated through balance "
                "of every displayed formula and the resulting bialgebroid sweep")


class TwistInput:
    """Data for the twisted bialgebroid B (x)_L (B (x)_L H).

    ``hopf_left`` is a left bialgebroid over L together with its Galois-map
    inverse; ``action`` is the measuring H (x) B -> B; ``sigma`` and
    ``sigma_tilde`` are the 2-cocycle and its convolution inverse, as maps
    H (x) H -> B.
    """

    def __init__(self, L: Algebra, hopf_left: LeftBialgebroid, th: ThetaData,
                 B: Algebra, iota: AlgebraMap, action: Matrix,
                 sigma: Matrix, sigma_tilde: Matrix):
        self.L = L
        self.H = hopf_left
        self.theta = th
        self.B = B
        self.iota = iota
        self.action = action
        self.sigma = sigma
        self.sigma_tilde = sigma_tilde
        nH, nB = hopf_left.dim, B.dim
        if action.shape != (nB, nH * nB):
            raise ShapeMismatch("measuring must map H (x) B to B")
        if sigma.shape != (nB, nH * nH) or sigma_tilde.shape != (nB, nH * nH):
            raise ShapeMismatch("cocycles must map H (x) H to B")


def hopf_algebra_as_left_bialgebroid(h: HopfData) -> tuple[LeftBialgebroid, ThetaData]:
    """A Hopf algebra over the scalars, packaged as a left bialgebroid."""
    f = h.algebra.field
    L = field_algebra(f)
    H = h.algebra
    unit_map = AlgebraMap(L, H, LinearMap.from_columns(L.space, H.space, [H.unit]))
    lact = LinearMap(tensor_space([L.space, H.space]), H.space,
                     Matrix.identity(f, H.dim))
    ract = LinearMap(tensor_space([H.space, L.space]), H.space,
                     Matrix.identity(f, H.dim))
    carrier = Bimodule(H.space, L, L, lact, ract)
    cc = tensor_chain([carrier, carrier], [L])
    delta = LinearMap(H.space, cc.carrier, cc.proj.matrix @ h.delta)
    eps = LinearMap(H.space, L.space, h.eps)
    coring = Coring(L, carrier, delta, eps, name=H.name)
    rep = Report(f"{H.name}:left-bialgebroid")
    bgd = LeftBialgebroid(coring, H, unit_map,
                          AlgebraMap(L, H, unit_map.map, anti=True), rep)
    left_bialgebroid_axioms(coring, H, bgd.source, bgd.target, rep)
    if not rep.ok:
        raise AxiomFailure(f"{H.name}: not a left bialgebroid")
    th = theta(bgd)
    return bgd, th


def _nz(field, vec):
    return [(i, x) for i, x in enumerate(vec) if not field.is_zero(x)]


class TwistedBialgebroid:
    def __init__(self, bgd: LeftBialgebroid, th: ThetaData, chain, report: Report):
        self.bgd = bgd
        self.theta = th
        self.chain = chain
        self.report = report

    @property
    def dim(self):
        return self.bgd.dim


def twisted_bialgebroid(inp: TwistInput, name: str = "twist") -> TwistedBialgebroid:
    """Assemble and fully verify the twisted left bialgebroid."""
    f = inp.B.field
    L, H, B = inp.L, inp.H, inp.B
    nH, nB, nL = H.dim, B.dim, L.dim
    rep = Report(f"{name}:twisted-bialgebroid")
    rep.add("propA.1.note", "A.1", True, witness=COCYCLE_NOTE)

    # the carrier chain B (x)_L (B (x)_L H)
    iota_mat = inp.iota.map.matrix
    ract_B = LinearMap(tensor_space([B.space, L.space]), B.space,
                       B.mult.matrix @ Matrix.identity(f, nB).kron(iota_mat))
    t_mult_cols = []
    for j in range(nH):
        hj = H.coring.space.basis_vector(j)
        for i in range(nL):
            tl = H.t_vec(L.space.basis_vector(i))
            t_mult_cols.append(H.algebra.product_vec(hj, tl))
    lact_t = LinearMap.from_columns(tensor_space([H.coring.space, L.space]),
                                    H.coring.space, t_mult_cols)
    # act maps for the links: (2,3): b'.iota(l) vs h t(l); (1,3): b.iota(l) vs s(l) h
    s_mult_cols = []
    for i in range(nL):
        sl = H.s_vec(L.space.basis_vector(i))
        lm = H.algebra.left_mult_map(sl)
        for j in range(nH):
            s_mult_cols.append(lm.apply(H.coring.space.basis_vector(j)))
    lact_s = LinearMap.from_columns(tensor_space([L.space, H.coring.space]),
                                    H.coring.space, s_mult_cols)
    lact_t_link = LinearMap(tensor_space([L.space, H.coring.space]),
                            H.coring.space,
                            permute_cols(lact_t.matrix, [nL, nH], (1, 0)))
    chain = chain_of_spaces(
        [B.space, B.space, H.coring.space],
        [Link(1, 2, L, ract_B, lact_t_link),
         Link(0, 2, L, ract_B, lact_s)], name=f"D({name})")
    dim_D = chain.dim

    Hd = H.coring
    delta_H = Hd.cc.sect.matrix @ Hd.delta.matrix       # H -> H (x) H
    delta2_H = delta_H.kron(Matrix.identity(f, nH)) @ delta_H

    def act(hvec, bvec):
        out = [f.zero] * nB
        for hi, hv in _nz(f, hvec):
            for bi, bv in _nz(f, bvec):
                col = inp.action.col(hi * nB + bi)
                for k, x in enumerate(col):
                    if not f.is_zero(x):
                        out[k] = f.add(out[k], f.mul(f.mul(hv, bv), x))
        return tuple(out)

    def coc(mat, h1, h2):
        out = [f.zero] * nB
        for i1, v1 in _nz(f, h1):
            for i2, v2 in _nz(f, h2):
                col = mat.col(i1 * nH + i2)
                for k, x in enumerate(col):
                    if not f.is_zero(x):
                        out[k] = f.add(out[k], f.mul(f.mul(v1, v2), x))
        return tuple(out)

    # evaluate the product on all representative pairs
    amb_dim = nB * nB * nH
    basisH = [Hd.space.basis_vector(i) for i in range(nH)]
    basisB = [B.space.basis_vector(i) for i in range(nB)]
    chi_mat = _minus_plus(inp)

    def product_vector(bi, bpi, hi, ci, cpi, ki):
        acc = [f.zero] * amb_dim
        ph = chi_mat.col(hi)        # h-1 (x) h+2 over H (x) H
        pk = chi_mat.col(ki)
        for (xy, vxy) in _nz(f, ph):
            x, y = divmod(xy, nH)
            d2x = delta2_H.col(x)   # x1 (x) x2 (x) x3
            for (uv, vuv) in _nz(f, pk):
                u, v = divmod(uv, nH)
                d1u = delta_H.col(u)
                d1v = delta_H.col(v)
                for (x123, vx) in _nz(f, d2x):
                    x12, x3 = divmod(x123, nH)
                    x1, x2 = divmod(x12, nH)
                    for (u12, vu) in _nz(f, d1u):
                        u1, u2 = divmod(u12, nH)
                        for (v12, vv) in _nz(f, d1v):
                            v1, v2 = divmod(v12, nH)
                            coef = f.mul(f.mul(vxy, vuv),
                                         f.mul(vx, f.mul(vu, vv)))
                            b1 = B.product_vec(
                                basisB[bi],
                                B.product_vec(
                                    act(basisH[x1], basisB[ci]),
                                    coc(inp.sigma, basisH[x2], basisH[u1])))
                            b2 = B.product_vec(
                                basisB[cpi],
                                B.product_vec(
                                    act(_bv(f, nH, v1), basisB[bpi]),
                                    coc(inp.sigma, _bv(f, nH, v2), _bv(f, nH, y))))
                            hleg = H.algebra.product_vec(_bv(f, nH, x3),
                                                         _bv(f, nH, u2))
                            for (i1, w1) in _nz(f, b1):
                                for (i2, w2) in _nz(f, b2):
                                    for (i3, w3) in _nz(f, hleg):
                                        idx = (i1 * nB + i2) * nH + i3
                                        acc[idx] = f.add(
                                            acc[idx],
                                            f.mul(coef, f.mul(w1, f.mul(w2, w3))))
        return tuple(acc)

    # full raw map on ambient (x) ambient, column by column
    cols = []
    for left in range(amb_dim):
        b1i, rem = divmod(left, nB * nH)
        b2i, h1i = divmod(rem, nH)
        for right in range(amb_dim):
            c1i, rem2 = divmod(right, nB * nH)
            c2i, h2i = divmod(rem2, nH)
            cols.append(chain.proj.apply(
                product_vector(b1i, b2i, h1i, c1i, c2i, h2i)))
    raw6 = Matrix.from_cols(f, cols, chain.dim)
    # balance in each argument over the chain relations
    rel = chain.relations
    if rel.dim:
        amb_id = Matrix.identity(f, amb_dim)
        if not (raw6 @ rel.inclusion.matrix.kron(amb_id)).is_zero() \
                or not (raw6 @ amb_id.kron(rel.inclusion.matrix)).is_zero():
            raise NotWellDefined(f"{name}: the twisted product is not balanced")
    rep.add("propA.1.product-balanced", "A.1(1)", True)
    mult_mat = raw6 @ chain.sect.matrix.kron(chain.sect.matrix)
    unit_vec = chain.proj.apply(_triple(f, B.unit, B.unit, H.algebra.unit, nB, nH))
    D_alg = Algebra(chain.carrier,
                    LinearMap(tensor_space([chain.carrier, chain.carrier]),
                              chain.carrier, mult_mat),
                    unit_vec, name=f"Dalg({name})")
    rep.add("propA.1.ring", "A.1(1)", True)

    # source and target
    s_cols, t_cols = [], []
    for i in range(nB):
        bvec = basisB[i]
        s_cols.append(chain.proj.apply(_triple(f, bvec, B.unit, H.algebra.unit,
                                               nB, nH)))
        t_cols.append(chain.proj.apply(_triple(f, B.unit, bvec, H.algebra.unit,
                                               nB, nH)))
    source = AlgebraMap(B, D_alg, LinearMap.from_columns(B.space, chain.carrier,
                                                         s_cols))
    target = AlgebraMap(B, D_alg, LinearMap.from_columns(B.space, chain.carrier,
                                                         t_cols), anti=True)

    # carrier bimodule from the left bialgebroid rule
    lcols, rcols = [], []
    for i in range(nB):
        sl = D_alg.left_mult_map(source.map.apply(basisB[i]))
        tl = D_alg.left_mult_map(target.map.apply(basisB[i]))
        lcols.append(sl.matrix)
        rcols.append(tl.matrix)
    lact_D = LinearMap.from_columns(
        tensor_space([B.space, chain.carrier]), chain.carrier,
        [lcols[i].col(j) for i in range(nB) for j in range(dim_D)])
    ract_D = LinearMap.from_columns(
        tensor_space([chain.carrier, B.space]), chain.carrier,
        [rcols[i].col(j) for j in range(dim_D) for i in range(nB)])
    carrier = Bimodule(chain.carrier, B, B, lact_D, ract_D)

    # coproduct and counit
    dd = tensor_chain([carrier, carrier], [B])
    delta_cols = []
    eps_cols = []
    for j in range(dim_D):
        rep_vec = chain.sect.matrix.col(j)
        dvec = [f.zero] * dd.dim
        evec = [f.zero] * nB
        for (idx, val) in _nz(f, rep_vec):
            b_i, rem = divmod(idx, nB * nH)
            bp_i, h_i = divmod(rem, nH)
            d2 = delta2_H.col(h_i)
            for (h123, vh) in _nz(f, d2):
                h12, h3 = divmod(h123, nH)
                h1, h2 = divmod(h12, nH)
                ph1 = chi_mat.col(h1)
                for (xy, vxy) in _nz(f, ph1):
                    x, y = divmod(xy, nH)
                    st = coc(inp.sigma_tilde, _bv(f, nH, y), _bv(f, nH, h2))
                    left_leg = chain.proj.apply(_triple(
                        f, basisB[b_i], st, _bv(f, nH, x), nB, nH))
                    right_leg = chain.proj.apply(_triple(
                        f, B.unit, basisB[bp_i], _bv(f, nH, h3), nB, nH))
                    pair_amb = _outer_pair(f, left_leg, right_leg)
                    contrib = dd.proj.apply(pair_amb)
                    for k, x2 in enumerate(contrib):
                        if not f.is_zero(x2):
                            dvec[k] = f.add(dvec[k], f.mul(f.mul(val, vh),
                                                           f.mul(vxy, x2)))
            d1 = delta_H.col(h_i)
            for (h12, vh) in _nz(f, d1):
                h1, h2 = divmod(h12, nH)
                ph2 = chi_mat.col(h2)
                for (xy, vxy) in _nz(f, ph2):
                    x, y = divmod(xy, nH)
                    term = B.product_vec(
                        basisB[b_i],
                        B.product_vec(act(_bv(f, nH, h1), basisB[bp_i]),
                                      coc(inp.sigma, _bv(f, nH, x),
                                          _bv(f, nH, y))))
                    for k, x2 in enumerate(term):
                        if not f.is_zero(x2):
                            evec[k] = f.add(evec[k],
                                            f.mul(f.mul(val, vh),
                                                  f.mul(vxy, x2)))
        delta_cols.append(tuple(dvec))
        eps_cols.append(tuple(evec))
    delta_D = LinearMap.from_columns(chain.carrier, dd.carrier, delta_cols)
    eps_D = LinearMap.from_columns(chain.carrier, B.space, eps_cols)
    coring = Coring(B, carrier, delta_D, eps_D, name=f"D({name})")
    rep.add("propA.1.coring", "A.1(2)", True)
    bgd = LeftBialgebroid(coring, D_alg, source, target, rep)
    left_bialgebroid_axioms(coring, D_alg, source, target, rep)
    if not rep.ok:
        raise AxiomFailure(f"{name}: twisted bialgebroid sweep failed: "
                           + ", ".join(c.check_id for c in rep.failures()))
    th = theta(bgd)
    rep.add("propA.1.hopf", "A.1(3)", True, dims={"theta-domain": th.theta.domain.dim})

    # the displayed Galois inverse, evaluated from the formulas
    _displayed_galois_inverse(inp, bgd, th, chain, chi_mat, delta_H, delta2_H,
                              act, coc, rep, name)
    return TwistedBialgebroid(bgd, th, chain, rep)


def _bv(f, n, i):
    return tuple(f.one if j == i else f.zero for j in range(n))


def _triple(f, b, bp, h, nB, nH):
    out = [f.zero] * (nB * nB * nH)
    for i, x in enumerate(b):
        if f.is_zero(x):
            continue
        for j, y in enumerate(bp):
            if f.is_zero(y):
                continue
            for k, z in enumerate(h):
                if not f.is_zero(z):
                    out[(i * nB + j) * nH + k] = f.mul(x, f.mul(y, z))
    return tuple(out)


def _minus_plus(inp: TwistInput) -> Matrix:
    """h -> h+1 (x) h+2 = theta^{-1}(h (x) 1), on plain H (x) H coordinates."""
    f = inp.B.field
    H = inp.H
    nH = H.dim
    one_col = Matrix(f, [(x,) for x in H.algebra.unit], 1)
    into = H.coring.cc.proj.matrix @ Matrix.identity(f, nH).kron(one_col)
    return inp.theta.chain_op.sect.matrix @ inp.theta.theta_inv.matrix @ into


def _displayed_galois_inverse(inp, bgd, th, chain, chi_mat, delta_H, delta2_H,
                              act, coc, rep, name):
    """Prop A.1(3): the displayed formula is a two-sided inverse of theta."""
    f = inp.B.field
    B, H = inp.B, inp.H
    nB, nH = B.dim, H.dim
    dim_D = chain.dim
    basisB = [B.space.basis_vector(i) for i in range(nB)]
    dd = bgd.coring.cc
    delta3_H = delta_H.kron(Matrix.identity(f, nH * nH)) @ delta2_H

    def inv_vector(b_i, bp_i, h_i, c_i, cp_i, k_i):
        """The displayed inverse on representatives, in D (x) D coordinates."""
        acc = [f.zero] * (dim_D * dim_D)
        ph = chi_mat.col(h_i)
        pk = chi_mat.col(k_i)
        for (xy, vxy) in _nz(f, ph):
            x, y = divmod(xy, nH)        # h+1 = x, h+2 = y
            d3y = delta3_H.col(y)        # y1 (x) y2 (x) y3 (x) y4
            for (y1234, vy) in _nz(f, d3y):
                y123, y4 = divmod(y1234, nH)
                y12, y3 = divmod(y123, nH)
                y1, y2 = divmod(y12, nH)
                py3 = chi_mat.col(y3)
                for (uv, vuv) in _nz(f, pk):
                    u, v = divmod(uv, nH)    # k+1 = u, k+2 = v
                    d1u = delta_H.col(u)
                    for (u12, vu) in _nz(f, d1u):
                        u1, u2 = divmod(u12, nH)
                        for (ab, vab) in _nz(f, py3):
                            a, bb = divmod(ab, nH)   # y3+1 = a, y3+2 = bb
                            coef = f.mul(f.mul(vxy, vy), f.mul(vuv,
                                                               f.mul(vu, vab)))
                            first = chain.proj.apply(_triple(
                                f, basisB[b_i], B.unit, _bv(f, nH, x), nB, nH))
                            mid_b = B.product_vec(
                                basisB[bp_i],
                                B.product_vec(act(_bv(f, nH, y1), basisB[c_i]),
                                              coc(inp.sigma, _bv(f, nH, y2),
                                                  _bv(f, nH, u1))))
                            last_b = B.product_vec(
                                basisB[cp_i],
                                coc(inp.sigma_tilde,
                                    H.algebra.product_vec(_bv(f, nH, v),
                                                          _bv(f, nH, bb)),
                                    _bv(f, nH, y4)))
                            hleg = H.algebra.product_vec(_bv(f, nH, a),
                                                         _bv(f, nH, u2))
                            second = chain.proj.apply(_triple_from_vecs(
                                f, mid_b, last_b, hleg, nB, nH))
                            pair = _outer_pair(f, first, second)
                            # the pair lives in D (x)_{B^op} D
                            contrib = th.chain_op.proj.apply(pair)
                            for k2, val in enumerate(contrib):
                                if not f.is_zero(val):
                                    acc_idx = k2
                                    acc[acc_idx] = f.add(
                                        acc[acc_idx], f.mul(coef, val))
        return tuple(acc)

    # assemble on representative pairs of D (x)_B D
    cols = []
    for jj in range(dd.dim):
        rep_vec = dd.sect.matrix.col(jj)
        acc = [f.zero] * th.chain_op.dim
        for (pair_idx, val) in _nz(f, rep_vec):
            li, ri = divmod(pair_idx, dim_D)
            lrep = chain.sect.matrix.col(li)
            rrep = chain.sect.matrix.col(ri)
            for (lidx, lv) in _nz(f, lrep):
                b_i, rem = divmod(lidx, nB * nH)
                bp_i, h_i = divmod(rem, nH)
                for (ridx, rv) in _nz(f, rrep):
                    c_i, rem2 = divmod(ridx, nB * nH)
                    cp_i, k_i = divmod(rem2, nH)
                    vec = inv_vector(b_i, bp_i, h_i, c_i, cp_i, k_i)
                    for k2, x in enumerate(vec):
                        if not f.is_zero(x):
                            acc[k2] = f.add(acc[k2],
                                            f.mul(f.mul(val, f.mul(lv, rv)), x))
        cols.append(tuple(acc))
    displayed_inv = LinearMap.from_columns(dd.carrier, th.chain_op.carrier, cols)
    ok = (th.theta @ displayed_inv).is_identity() \
        and (displayed_inv @ th.theta).is_identity()
    rep.add("propA.1.galois-inverse", "A.1(3)", ok)
    if not ok:
        raise IsoFailure(f"{name}: displayed Galois inverse is not two-sided")


def _triple_from_vecs(f, b, bp, h, nB, nH):
    return _triple(f, b, bp, h, nB, nH)


# ---------------------------------------------------------------------------
# trivial-cocycle comparison against an independently coded smash pattern


def smash_pattern_product(inp: TwistInput, antipode: Matrix) -> Matrix:
    """(b(x)b'(x)h)(c(x)c'(x)k) = b(h1.c) (x) c'(S(k2).b') (x) h2 k1.

    Coded directly from the comultiplication and antipode, independently of
    the Galois-map machinery; used to cross-check the trivial-cocycle case.
    """
    f = inp.B.field
    B, H = inp.B, inp.H
    nB, nH = B.dim, H.dim
    delta_H = H.coring.cc.sect.matrix @ H.coring.delta.matrix
    basisB = [B.space.basis_vector(i) for i in range(nB)]
    basisH = [H.coring.space.basis_vector(i) for i in range(nH)]
    amb = nB * nB * nH

    def act(hvec, bvec):
        out = [f.zero] * nB
        for hi, hv in _nz(f, hvec):
            for bi, bv in _nz(f, bvec):
                col = inp.action.col(hi * nB + bi)
                for k, x in enumerate(col):
                    if not f.is_zero(x):
                        out[k] = f.add(out[k], f.mul(f.mul(hv, bv), x))
        return tuple(out)

    cols = []
    for left in range(amb):
        b_i, rem = divmod(left, nB * nH)
        bp_i, h_i = divmod(rem, nH)
        dh = delta_H.col(h_i)
        for right in range(amb):
            c_i, rem2 = divmod(right, nB * nH)
            cp_i, k_i = divmod(rem2, nH)
            dk = delta_H.col(k_i)
            acc = [f.zero] * amb
            for (h12, vh) in _nz(f, dh):
                h1, h2 = divmod(h12, nH)
                for (k12, vk) in _nz(f, dk):
                    k1, k2 = divmod(k12, nH)
                    sk2 = antipode.col(k2)
                    leg1 = B.product_vec(basisB[b_i],
                                         act(basisH[h1], basisB[c_i]))
                    leg2 = B.product_vec(basisB[cp_i],
                                         act(tuple(sk2), basisB[bp_i]))
                    leg3 = H.algebra.product_vec(basisH[h2], basisH[k1])
                    for (i1, w1) in _nz(f, leg1):
                        for (i2, w2) in _nz(f, leg2):
                            for (i3, w3) in _nz(f, leg3):
                                idx = (i1 * nB + i2) * nH + i3
                                acc[idx] = f.add(
                                    acc[idx],
                                    f.mul(f.mul(vh, vk),
                                          f.mul(w1, f.mul(w2, w3))))
            cols.append(tuple(acc))
    return Matrix.from_cols(f, cols, amb)


def smash_comparison(inp: TwistInput, tw: TwistedBialgebroid,
                     antipode: Matrix) -> bool:
    """Trivial cocycle: the twisted product equals the smash pattern."""
    f = inp.B.field
    raw = smash_pattern_product(inp, antipode)
    chain = tw.chain
    lhs = tw.bgd.algebra.mult.matrix
    rhs = chain.proj.matrix @ raw @ chain.sect.matrix.kron(chain.sect.matrix)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the cocycle double twist


def cocycle_double_twist(bgdH: LeftBialgebroid, sigma: Matrix,
                         sigma_tilde: Matrix, name: str = "twist"):
    """New product s(sigma(h1,h'1)) t(sigma~(h3,h'3)) h2 h'2 on the same
    coring; the bialgebroid sweep decides validity (report-style)."""
    f = bgdH.coring.field
    H = bgdH
    L = H.base
    nH, nL = H.dim, L.dim
    rep = Report(f"{name}:double-twist")
    delta_H = H.coring.cc.sect.matrix @ H.coring.delta.matrix
    delta2_H = delta_H.kron(Matrix.identity(f, nH)) @ delta_H
    basisH = [H.coring.space.basis_vector(i) for i in range(nH)]

    def coc(mat, i1v, i2v):
        out = [f.zero] * nL
        for (i1, v1) in _nz(f, i1v):
            for (i2, v2) in _nz(f, i2v):
                col = mat.col(i1 * nH + i2)
                for k, x in enumerate(col):
                    if not f.is_zero(x):
                        out[k] = f.add(out[k], f.mul(f.mul(v1, v2), x))
        return tuple(out)

    cols = []
    for i in range(nH):
        d2i = delta2_H.col(i)
        for j in range(nH):
            d2j = delta2_H.col(j)
            acc = [f.zero] * nH
            for (i123, vi) in _nz(f, d2i):
                i12, i3 = divmod(i123, nH)
                i1, i2 = divmod(i12, nH)
                for (j123, vj) in _nz(f, d2j):
                    j12, j3 = divmod(j123, nH)
                    j1, j2 = divmod(j12, nH)
                    sfac = coc(sigma, basisH[i1], basisH[j1])
                    tfac = coc(sigma_tilde, basisH[i3], basisH[j3])
                    mid = H.algebra.product_vec(basisH[i2], basisH[j2])
                    term = H.algebra.product_vec(
                        H.s_vec(sfac),
                        H.algebra.product_vec(H.t_vec(tfac), mid))
                    for k, x in enumerate(term):
                        if not f.is_zero(x):
                            acc[k] = f.add(acc[k], f.mul(f.mul(vi, vj), x))
            cols.append(tuple(acc))
    mult = LinearMap(tensor_space([H.coring.space, H.coring.space]),
                     H.coring.space, Matrix.from_cols(f, cols, nH))
    try:
        H_tw = Algebra(H.coring.space, mult, H.algebra.unit,
                       name=f"{H.coring.name}-twisted")
        rep.add("remA.2.associative-unital", "A.2(2)", True)
    except Exception as exc:  # noqa: BLE001 - report-style verdict
        rep.add("remA.2.associative-unital", "A.2(2)", False, witness=str(exc))
        return None, rep
    try:
        src = AlgebraMap(L, H_tw, bgdH.source.map)
        tgt = AlgebraMap(L, H_tw, bgdH.target.map, anti=True)
        twisted = LeftBialgebroid(bgdH.coring, H_tw, src, tgt, rep)
        left_bialgebroid_axioms(bgdH.coring, H_tw, src, tgt, rep)
    except Exception as exc:  # noqa: BLE001
        rep.add("remA.2.bialgebroid", "A.2(2)", False, witness=str(exc))
        return None, rep
    return twisted, rep


def remark_a2_automorphism(inp: TwistInput, tw: TwistedBialgebroid,
                           name: str = "twist") -> Report:
    """For B = L the twisted bialgebroid is the cocycle double twist of H,
    via the displayed automorphism (verified as a bialgebroid iso)."""
    f = inp.B.field
    H = inp.H
    nH = H.dim
    rep = Report(f"{name}:base-case-automorphism")
    if inp.B.dim != inp.L.dim:
        raise ShapeMismatch("the base-case comparison needs B = L")
    chi_mat = _minus_plus(inp)
    delta_H = H.coring.cc.sect.matrix @ H.coring.delta.matrix
    basisH = [H.coring.space.basis_vector(i) for i in range(nH)]

    # phi: h -> t(sigma(h2+1, h2+2)) h1 ; psi: h -> h1+1 t(sigma~(h1+2, h2))
    def eval_map(sig_mat, plus_on_second):
        cols = []
        for i in range(nH):
            acc = [f.zero] * nH
            dh = delta_H.col(i)
            for (h12, vh) in _nz(f, dh):
                h1, h2 = divmod(h12, nH)
                if plus_on_second:
                    p = chi_mat.col(h2)
                    for (xy, vxy) in _nz(f, p):
                        x, y = divmod(xy, nH)
                        lval = _coc_L(f, inp, sig_mat, basisH[x], basisH[y], nH)
                        term = H.algebra.product_vec(H.t_vec(lval), basisH[h1])
                        for k, w in enumerate(term):
                            if not f.is_zero(w):
                                acc[k] = f.add(acc[k], f.mul(f.mul(vh, vxy), w))
                else:
                    p = chi_mat.col(h1)
                    for (xy, vxy) in _nz(f, p):
                        x, y = divmod(xy, nH)
                        lval = _coc_L(f, inp, sig_mat, basisH[y], basisH[h2], nH)
                        term = H.algebra.product_vec(basisH[x], H.t_vec(lval))
                        for k, w in enumerate(term):
                            if not f.is_zero(w):
                                acc[k] = f.add(acc[k], f.mul(f.mul(vh, vxy), w))
            cols.append(tuple(acc))
        return Matrix.from_cols(f, cols, nH)

    phi = eval_map(inp.sigma, True)
    psi = eval_map(inp.sigma_tilde, False)
    rep.add("remA.2.inverse-pair", "A.2(2)",
            (phi @ psi).is_identity() and (psi @ phi).is_identity())
    # identify D (B = L) with H and transport
    emb_cols = [tw.chain.proj.apply(_triple(f, inp.B.unit, inp.B.unit,
                                            basisH[i], inp.B.dim, nH))
                for i in range(nH)]
    emb = Matrix.from_cols(f, emb_cols, tw.chain.dim)
    # emb is a bijection H -> D; invert it to get the comparison map D -> H_tw
    back = emb.solve(Matrix.identity(f, tw.chain.dim))
    comp = phi @ back  # D -> twisted H
    twisted, rep2 = cocycle_double_twist(inp.H, inp.sigma, inp.sigma_tilde, name)
    rep.extend(rep2)
    if twisted is None:
        rep.add("remA.2.iso", "A.2(2)", False)
        return rep
    # multiplicativity of the comparison
    lhs = comp @ tw.bgd.algebra.mult.matrix
    rhs = twisted.algebra.mult.matrix @ comp.kron(comp)
    rep.add("remA.2.iso-multiplicative", "A.2(2)", lhs == rhs)
    # coring structure transported
    dd_tw = tw.bgd.coring.cc
    hh = twisted.coring.cc
    two = hh.proj.matrix @ comp.kron(comp) @ dd_tw.sect.matrix
    lhs = two @ tw.bgd.coring.delta.matrix
    rhs = twisted.coring.delta.matrix @ comp
    rep.add("remA.2.iso-coproduct", "A.2(2)", lhs == rhs)
    rep.add("remA.2.iso-counit", "A.2(2)",
            twisted.coring.eps.matrix @ comp == tw.bgd.coring.eps.matrix)
    return rep


def _coc_L(f, inp, mat, h1, h2, nH):
    out = [f.zero] * inp.L.dim
    for (i1, v1) in _nz(f, h1):
        for (i2, v2) in _nz(f, h2):
            col = mat.col(i1 * nH + i2)
            for k, x in enumerate(col):
                if not f.is_zero(x):
                    out[k] = f.add(out[k], f.mul(f.mul(v1, v2), x))
    return tuple(out)


# ---------------------------------------------------------------------------
# the cleft comparison isomorphism


def cleft_iso_check(bundle, pair, bgd_D, tw: TwistedBialgebroid,
                    inp: TwistInput, rho_raw: Matrix, j_raw: Matrix,
                    jt_raw: Matrix, antipode: Matrix,
                    name: str = "cleft-iso") -> Report:
    """The comparison between the torsor-side left bialgebroid and the
    twisted one, via the displayed map and its antipode-built inverse.

    ``rho_raw`` is the fixture coaction T -> T (x) H on plain coordinates,
    ``j_raw``/``jt_raw`` the cleaving map and its convolution inverse, and
    ``antipode`` the antipode of the underlying Hopf structure.
    """
    b = bundle
    f = b.field
    B, H = inp.B, inp.H
    nT, nB, nH = b.T.dim, B.dim, H.dim
    rep = Report(f"{b.name}:{name}")
    if b.B is not B:
        raise ShapeMismatch("the torsor base and the twist base must coincide")
    idT = Matrix.identity(f, nT)
    idH = Matrix.identity(f, nH)
    # forward: u (x) v -> u00 jt(u01) (x) v0 jt(v1) (x) u1
    collapse = b.mu @ idT.kron(jt_raw)                     # T (x) H -> T
    P2 = collapse @ rho_raw                                # T -> T
    P1 = collapse.kron(idH) @ rho_raw.kron(idH) @ rho_raw  # T -> T (x) H
    to_TTH = permute_rows(P1.kron(P2), [nT, nH, nT], (0, 2, 1)) \
        @ b.TAT.sect.matrix @ pair.D_sub.inclusion.matrix
    # factor the two T legs through beta
    beta2 = b.beta.map.matrix.kron(b.beta.map.matrix).kron(idH)
    X = beta2.solve(to_TTH)
    ok = X is not None and beta2 @ X == to_TTH
    rep.add("thmA.3.lands-in-B", "A.3", ok)
    if not ok:
        raise IsoFailure(f"{name}: comparison does not factor through the base")
    fwd = LinearMap(pair.D_sub.space, tw.chain.carrier, tw.chain.proj.matrix @ X)
    # inverse: b (x) b' (x) h -> b j(h1) (x) b' j(S(h2))
    delta_H = H.coring.cc.sect.matrix @ H.coring.delta.matrix
    expand = (b.mu @ b.beta.map.matrix.kron(j_raw)).kron(
        b.mu @ b.beta.map.matrix.kron(j_raw @ antipode))
    raw_inv = (permute_cols(expand, [nB, nB, nH, nH], (0, 2, 1, 3))
               @ Matrix.identity(f, nB * nB).kron(delta_H)
               @ tw.chain.sect.matrix)
    into_TAT = b.TAT.proj.matrix @ raw_inv
    Y = pair.D_sub.inclusion.matrix.solve(into_TAT)
    ok = Y is not None and pair.D_sub.inclusion.matrix @ Y == into_TAT
    rep.add("thmA.3.inverse-lands-in-D", "A.3", ok)
    if not ok:
        raise IsoFailure(f"{name}: displayed inverse misses the coinvariants")
    bwd = LinearMap(tw.chain.carrier, pair.D_sub.space, Y)
    rep.add("thmA.3.mutually-inverse", "A.3",
            (fwd @ bwd).is_identity() and (bwd @ fwd).is_identity())
    # structure preservation
    lhs = fwd.matrix @ bgd_D.algebra.mult.matrix
    rhs = tw.bgd.algebra.mult.matrix @ fwd.matrix.kron(fwd.matrix)
    rep.add("thmA.3.multiplicative", "A.3", lhs == rhs)
    rep.add("thmA.3.source", "A.3",
            fwd.matrix @ bgd_D.source.map.matrix == tw.bgd.source.map.matrix)
    rep.add("thmA.3.target", "A.3",
            fwd.matrix @ bgd_D.target.map.matrix == tw.bgd.target.map.matrix)
    rep.add("thmA.3.counit", "A.3",
            tw.bgd.coring.eps.matrix @ fwd.matrix == bgd_D.coring.eps.matrix)
    dd_tor = bgd_D.coring.cc
    dd_tw = tw.bgd.coring.cc
    two = dd_tw.proj.matrix @ fwd.matrix.kron(fwd.matrix) @ dd_tor.sect.matrix
    rel = dd_tor.relations
    if rel.dim:
        pairwise = dd_tw.proj.matrix @ fwd.matrix.kron(fwd.matrix)
        lift = dd_tor.proj.matrix
        # balance: the pair map must kill the torsor-side relations
        killed = pairwise @ rel.inclusion.matrix
        rep.add("thmA.3.pair-balanced", "A.3", killed.is_zero())
    lhs = two @ bgd_D.coring.delta.matrix
    rhs = tw.bgd.coring.delta.matrix @ fwd.matrix
    rep.add("thmA.3.coproduct", "A.3", lhs == rhs)
    if not rep.ok:
        raise IsoFailure(f"{name}: comparison is not a bialgebroid isomorphism")
    return rep


# ---------------------------------------------------------------------------
# fixture wiring


def twist_data_for_fixture(fx, bundle):
    """TwistInput plus the raw cleft maps for a Hopf-based fixture."""
    h = fx.hopf
    if h is None:
        raise ShapeMismatch(f"fixture {fx.name} carries no Hopf data")
    f = bundle.field
    bgdH, thH = hopf_algebra_as_left_bialgebroid(h)
    B = bundle.B
    L = bgdH.base
    nH, nB, nT = h.algebra.dim, B.dim, bundle.T.dim
    iota = AlgebraMap(L, B, LinearMap.from_columns(L.space, B.space, [B.unit]))
    if fx.twist is not None and "action" in fx.twist:
        action = fx.twist["action"]
    else:
        cols = []
        for hi in range(nH):
            e = h.eps.entry(0, hi)
            for bi in range(nB):
                base = B.space.basis_vector(bi)
                cols.append(tuple(f.mul(e, x) for x in base))
        action = Matrix.from_cols(f, cols, nB)
    sig_cols = []
    for i in range(nH):
        for j in range(nH):
            e = f.mul(h.eps.entry(0, i), h.eps.entry(0, j))
            sig_cols.append(tuple(f.mul(e, x) for x in B.unit))
    sigma = Matrix.from_cols(f, sig_cols, nB)
    inp = TwistInput(L, bgdH, thH, B, iota, action, sigma, sigma)

    if fx.name == "EX-SMASH":
        # T = B # H: coaction through the H leg, cleaving h -> 1 # h
        rho_cols = []
        for bi in range(nB):
            for hi in range(nH):
                d = h.delta.col(hi)
                acc = [f.zero] * (nT * nH)
                for (h12, v) in _nz(f, d):
                    h1, h2 = divmod(h12, nH)
                    acc[(bi * nH + h1) * nH + h2] = v
                rho_cols.append(tuple(acc))
        rho_raw = Matrix.from_cols(f, rho_cols, nT * nH)
        j_cols = []
        for hi in range(nH):
            acc = [f.zero] * nT
            acc[0 * nH + hi] = f.one
            j_cols.append(tuple(acc))
        j_raw = Matrix.from_cols(f, j_cols, nT)
    else:
        # T = H itself
        rho_raw = h.delta
        j_raw = Matrix.identity(f, nT)
    jt_raw = j_raw @ h.antipode
    return inp, rho_raw, j_raw, jt_raw, h.antipode
