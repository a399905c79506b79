"""Twisted bialgebroids, the cocycle double twist and the cleft comparison.

The displayed formulas are ``kron_apply`` expressions in ``cleft_twist``;
the per-value loops at the end of this file evaluate the same formulas one
basis tuple and one scalar at a time and are the reference they are
checked against, on random (non-cocycle) inputs.
"""

import random

import pytest

from torsorkit import cleft_twist
from torsorkit.algebra import AlgebraMap, relation_witness
from torsorkit.cleft_twist import (
    TwistInput,
    _minus_plus,
    a2_maps,
    cleft_iso_check,
    cocycle_double_twist,
    displayed_inverse,
    double_twist_product,
    hopf_algebra_as_left_bialgebroid,
    remark_a2_automorphism,
    smash_comparison,
    twist_data_for_fixture,
    twisted_bialgebroid,
    twisted_coproduct,
    twisted_counit,
    twisted_product,
)
from torsorkit.errors import NotWellDefined
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import field_algebra, group_hopf, poly_mod_algebra, sweedler_hopf
from torsorkit.linalg import Matrix, kron_apply
from torsorkit.spaces import LinearMap

from test_linalg import outer


def _trivial_sigma(h, B):
    cols = []
    n = h.algebra.dim
    for i in range(n):
        for j in range(n):
            e = QQ.mul(h.eps.entry(0, i), h.eps.entry(0, j))
            cols.append(tuple(QQ.mul(e, x) for x in B.unit))
    return Matrix.from_cols(QQ, cols, B.dim)


def test_trivial_everything():
    h = group_hopf(QQ, 1, "k")
    bgdH, thH = hopf_algebra_as_left_bialgebroid(h)
    B = field_algebra(QQ)
    iota = AlgebraMap(bgdH.base, B,
                      LinearMap.from_columns(bgdH.base.space, B.space, [B.unit]))
    action = Matrix.from_rows(QQ, [[1]])
    sigma = _trivial_sigma(h, B)
    tw = twisted_bialgebroid(
        TwistInput(bgdH.base, bgdH, thH, B, iota, action, sigma, sigma), "triv")
    assert tw.dim == 1 and tw.report.ok


def test_smash_fixture_twist(ex_smash, an_smash):
    inp, rho_raw, j_raw, jt_raw, antipode = twist_data_for_fixture(
        ex_smash, an_smash.bundle)
    tw = twisted_bialgebroid(inp, "EX-SMASH")
    assert tw.dim == 8
    assert tw.report.ok
    assert tw.report.find("propA.1.galois-inverse").status == "pass"
    assert smash_comparison(inp, tw, antipode)


def _trivial_twist_over_the_base(an):
    """The twist of EX-SMASH's left Hopf algebroid D over its base L = B by
    the trivial data: B = L, the measuring h . l = eps(h s(l)) and the
    cocycles sigma = sigma~ = eps o mult.  L is two-dimensional, so the
    carrier chain L (x)_L (L (x)_L D) is a real quotient."""
    bgd = an.bialgebroids[1]
    L, f, n = bgd.base, bgd.coring.field, bgd.dim
    eps_mult = bgd.coring.eps.matrix @ bgd.algebra.mult.matrix
    action = kron_apply(f, [eps_mult], [n, n], None, [None, bgd.source.map.matrix])
    iota = AlgebraMap(L, L, LinearMap.identity(L.space))
    return TwistInput(L, bgd, an.theta_left, L, iota, action, eps_mult, eps_mult)


def test_an_unbalanced_twisted_coproduct_is_refused(monkeypatch, an_smash):
    """The twisted coproduct plus a rank-one term ``3 w z^T``, with z a
    relation of the carrier chain (in ``ker(proj)``) and w a representative
    of a nonzero element of D (x)_B D, no longer kills the chain's
    relations: the descent of Delta_D raises and names a relation, rather
    than projecting the term away."""
    inp = _trivial_twist_over_the_base(an_smash)
    tw = twisted_bialgebroid(inp, "EX-SMASH-base")
    assert tw.report.ok
    chain, dd = tw.chain, tw.bgd.coring.cc
    f, proj, sect = inp.B.field, chain.proj.matrix, chain.sect.matrix
    assert chain.dim < chain.ambient.dim
    x = min(i for i, r in enumerate(sect.sparse_rows()) if not r)
    z = relation_witness(proj, sect, x)
    w = (sect.kron(sect) @ dd.sect.matrix).col(0)
    term = Matrix.from_cols(f, [w], len(w)) @ Matrix(f, [z], len(z)).scale(3)
    real = cleft_twist.twisted_coproduct
    monkeypatch.setattr(cleft_twist, "twisted_coproduct",
                        lambda inp, chi: real(inp, chi) + term)
    with pytest.raises(NotWellDefined, match="twisted coproduct is not balanced") as err:
        twisted_bialgebroid(inp, "EX-SMASH-base")
    witness = err.value.witness
    assert any(v != 0 for v in witness)
    assert all(v == 0 for v in proj.apply(witness))


def test_an_unbalanced_twisted_counit_is_refused(monkeypatch, an_smash):
    """The twisted counit plus a rank-one term ``3 w e_x^T``, with x a
    column the carrier chain does not select and w the unit of B, no longer
    kills the relation ``e_x - sect proj e_x``: the descent of eps_D raises
    and names a relation, rather than reading the counit on the chosen
    representatives only."""
    inp = _trivial_twist_over_the_base(an_smash)
    tw = twisted_bialgebroid(inp, "EX-SMASH-base")
    assert tw.report.ok
    chain, f = tw.chain, inp.B.field
    x = min(set(range(chain.ambient.dim)).difference(chain.free))
    e_x = [f.zero] * chain.ambient.dim
    e_x[x] = f.one
    term = inp.B.unit_col @ Matrix(f, [e_x]).scale(3)
    real = cleft_twist.twisted_counit
    monkeypatch.setattr(cleft_twist, "twisted_counit", lambda inp, chi: real(inp, chi) + term)
    with pytest.raises(NotWellDefined, match="twisted counit is not balanced") as err:
        twisted_bialgebroid(inp, "EX-SMASH-base")
    witness = err.value.witness
    assert witness[x] == f.one
    assert all(v == 0 for v in chain.proj.apply(witness))


def test_remark_a2_over_a_real_base_descends_through_induce(monkeypatch, an_smash):
    """Remark A.2 on the trivial twist over L = B: the report passes, and
    the comparison on D (x)_B D, a real quotient, reaches H (x)_L H through
    ``induce``, which checks that it kills the relations of D (x)_B D."""
    inp = _trivial_twist_over_the_base(an_smash)
    tw = twisted_bialgebroid(inp, "EX-SMASH-base")
    doms, real = [], cleft_twist.induce

    def watched(dom, raw, cod, name=""):
        doms.append(dom)
        return real(dom, raw, cod, name)

    monkeypatch.setattr(cleft_twist, "induce", watched)
    rep = remark_a2_automorphism(inp, tw, "EX-SMASH-base")
    assert rep.ok, rep.summary()
    dd = tw.bgd.coring.cc
    assert doms == [dd] and dd.dim < dd.ambient.dim


def test_base_case_and_double_twist():
    # B = L with the nontrivial order-two cocycle sigma(g,g) = -1
    h = group_hopf(QQ, 2, "kC2")
    bgdH, thH = hopf_algebra_as_left_bialgebroid(h)
    L = bgdH.base
    B = field_algebra(QQ)
    iota = AlgebraMap(L, B, LinearMap.from_columns(L.space, B.space, [B.unit]))
    action = Matrix.from_rows(QQ, [[1, 1]])  # trivial measuring on scalars
    sig_cols = []
    for i in range(2):
        for j in range(2):
            val = QQ.neg(QQ.one) if i == j == 1 else QQ.one
            sig_cols.append((val,))
    sigma = Matrix.from_cols(QQ, sig_cols, 1)
    inp = TwistInput(L, bgdH, thH, B, iota, action, sigma, sigma)
    tw = twisted_bialgebroid(inp, "c2-cocycle")
    assert tw.dim == 2 and tw.report.ok
    rep = remark_a2_automorphism(inp, tw, "c2-cocycle")
    assert rep.ok, rep.summary()
    # the double twist alone: s(sigma(g,g)) t(sigma~(g,g)) g g = (-1)(-1) e,
    # so the order-two cocycle leaves the product unchanged; the sweep decides
    twisted, rep2 = cocycle_double_twist(bgdH, sigma, sigma, "c2")
    assert rep2.ok and twisted is not None
    g = twisted.coring.space.basis_vector(1)
    assert twisted.algebra.mult.matrix.apply_pair(g, g) == tuple(h.algebra.unit)


def test_double_twist_trivial_keeps_product():
    h = group_hopf(QQ, 3, "kC3")
    bgdH, _ = hopf_algebra_as_left_bialgebroid(h)
    B = field_algebra(QQ)
    sigma = _trivial_sigma(h, B)
    twisted, rep = cocycle_double_twist(bgdH, sigma, sigma, "c3")
    assert rep.ok
    assert twisted.algebra.mult.matrix == h.algebra.mult.matrix


def test_cleft_iso_c2(ex_c2, an_c2):
    inp, rho_raw, j_raw, jt_raw, antipode = twist_data_for_fixture(
        ex_c2, an_c2.bundle)
    tw = twisted_bialgebroid(inp, "EX-C2")
    assert tw.dim == 2
    bgd_D = an_c2.bialgebroids[1]
    rep = cleft_iso_check(an_c2.bundle, an_c2.pair, bgd_D, tw, inp,
                          rho_raw, j_raw, jt_raw, antipode)
    assert rep.ok, rep.summary()


def test_cleft_iso_smash(ex_smash, an_smash):
    inp, rho_raw, j_raw, jt_raw, antipode = twist_data_for_fixture(
        ex_smash, an_smash.bundle)
    tw = twisted_bialgebroid(inp, "EX-SMASH")
    bgd_D = an_smash.bialgebroids[1]
    rep = cleft_iso_check(an_smash.bundle, an_smash.pair, bgd_D, tw, inp,
                          rho_raw, j_raw, jt_raw, antipode)
    assert rep.ok, rep.summary()
    assert tw.dim == 8 and an_smash.pair.D.dim == 8


# ---------------------------------------------------------------------------
# the per-value reference: each displayed formula summed over basis tuples


def _nonzero(f, vec):
    return [(i, x) for i, x in enumerate(vec) if not f.is_zero(x)]


def _reference_legs(inp):
    """chi, Delta_H, Delta^2_H, Delta^3_H and the bases, built by ``kron``."""
    f, H = inp.B.field, inp.H
    nH = H.dim
    delta_H = H.coring.cc.sect.matrix @ H.coring.delta.matrix
    delta2_H = delta_H.kron(Matrix.identity(f, nH)) @ delta_H
    delta3_H = delta_H.kron(Matrix.identity(f, nH * nH)) @ delta2_H
    basisB = [inp.B.space.basis_vector(i) for i in range(inp.B.dim)]
    basisH = [H.coring.space.basis_vector(i) for i in range(nH)]
    return _minus_plus(inp), delta_H, delta2_H, delta3_H, basisB, basisH


def _reference_product(inp):
    f, B, H = inp.B.field, inp.B, inp.H
    nB, nH = B.dim, H.dim
    chi_mat, delta_H, delta2_H, _, basisB, basisH = _reference_legs(inp)
    act, sigma = inp.action.apply_pair, inp.sigma.apply_pair
    amb_dim = nB * nB * nH

    def product_vector(bi, bpi, hi, ci, cpi, ki):
        acc = [f.zero] * amb_dim
        ph = chi_mat.col(hi)        # h-1 (x) h+2 over H (x) H
        pk = chi_mat.col(ki)
        for (xy, vxy) in _nonzero(f, ph):
            x, y = divmod(xy, nH)
            d2x = delta2_H.col(x)   # x1 (x) x2 (x) x3
            for (uv, vuv) in _nonzero(f, pk):
                u, v = divmod(uv, nH)
                d1u = delta_H.col(u)
                d1v = delta_H.col(v)
                for (x123, vx) in _nonzero(f, d2x):
                    x12, x3 = divmod(x123, nH)
                    x1, x2 = divmod(x12, nH)
                    for (u12, vu) in _nonzero(f, d1u):
                        u1, u2 = divmod(u12, nH)
                        for (v12, vv) in _nonzero(f, d1v):
                            v1, v2 = divmod(v12, nH)
                            coef = f.mul(f.mul(vxy, vuv),
                                         f.mul(vx, f.mul(vu, vv)))
                            b1 = B.mult.matrix.apply_pair(
                                basisB[bi],
                                B.mult.matrix.apply_pair(
                                    act(basisH[x1], basisB[ci]),
                                    sigma(basisH[x2], basisH[u1])))
                            b2 = B.mult.matrix.apply_pair(
                                basisB[cpi],
                                B.mult.matrix.apply_pair(
                                    act(basisH[v1], basisB[bpi]),
                                    sigma(basisH[v2], basisH[y])))
                            hleg = H.algebra.mult.matrix.apply_pair(basisH[x3], basisH[u2])
                            for (i1, w1) in _nonzero(f, b1):
                                for (i2, w2) in _nonzero(f, b2):
                                    for (i3, w3) in _nonzero(f, hleg):
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
            cols.append(product_vector(b1i, b2i, h1i, c1i, c2i, h2i))
    return Matrix.from_cols(f, cols, amb_dim)


def _reference_coproduct_counit(inp):
    f, B, H = inp.B.field, inp.B, inp.H
    nB, nH = B.dim, H.dim
    chi_mat, delta_H, delta2_H, _, basisB, basisH = _reference_legs(inp)
    act, sigma = inp.action.apply_pair, inp.sigma.apply_pair
    amb_dim = nB * nB * nH
    delta_cols = []
    eps_cols = []
    for idx in range(amb_dim):
        dvec = [f.zero] * (amb_dim * amb_dim)
        evec = [f.zero] * nB
        b_i, rem = divmod(idx, nB * nH)
        bp_i, h_i = divmod(rem, nH)
        d2 = delta2_H.col(h_i)
        for (h123, vh) in _nonzero(f, d2):
            h12, h3 = divmod(h123, nH)
            h1, h2 = divmod(h12, nH)
            ph1 = chi_mat.col(h1)
            for (xy, vxy) in _nonzero(f, ph1):
                x, y = divmod(xy, nH)
                st = inp.sigma_tilde.apply_pair(basisH[y], basisH[h2])
                left_leg = outer(f, basisB[b_i], st, basisH[x])
                right_leg = outer(f, B.unit, basisB[bp_i], basisH[h3])
                contrib = outer(f, left_leg, right_leg)
                for k, x2 in enumerate(contrib):
                    if not f.is_zero(x2):
                        dvec[k] = f.add(dvec[k], f.mul(vh, f.mul(vxy, x2)))
        d1 = delta_H.col(h_i)
        for (h12, vh) in _nonzero(f, d1):
            h1, h2 = divmod(h12, nH)
            ph2 = chi_mat.col(h2)
            for (xy, vxy) in _nonzero(f, ph2):
                x, y = divmod(xy, nH)
                term = B.mult.matrix.apply_pair(
                    basisB[b_i],
                    B.mult.matrix.apply_pair(act(basisH[h1], basisB[bp_i]),
                                  sigma(basisH[x], basisH[y])))
                for k, x2 in enumerate(term):
                    if not f.is_zero(x2):
                        evec[k] = f.add(evec[k], f.mul(vh, f.mul(vxy, x2)))
        delta_cols.append(tuple(dvec))
        eps_cols.append(tuple(evec))
    return (Matrix.from_cols(f, delta_cols, amb_dim * amb_dim),
            Matrix.from_cols(f, eps_cols, nB))


def _reference_inverse(inp):
    f, B, H = inp.B.field, inp.B, inp.H
    nB, nH = B.dim, H.dim
    chi_mat, delta_H, _, delta3_H, basisB, basisH = _reference_legs(inp)
    act, sigma, sigma_tilde = (inp.action.apply_pair, inp.sigma.apply_pair,
                               inp.sigma_tilde.apply_pair)
    amb_dim = nB * nB * nH

    def inv_vector(b_i, bp_i, h_i, c_i, cp_i, k_i):
        """The displayed inverse on representatives, in ambient coordinates."""
        acc = [f.zero] * (amb_dim * amb_dim)
        ph = chi_mat.col(h_i)
        pk = chi_mat.col(k_i)
        for (xy, vxy) in _nonzero(f, ph):
            x, y = divmod(xy, nH)        # h+1 = x, h+2 = y
            d3y = delta3_H.col(y)        # y1 (x) y2 (x) y3 (x) y4
            for (y1234, vy) in _nonzero(f, d3y):
                y123, y4 = divmod(y1234, nH)
                y12, y3 = divmod(y123, nH)
                y1, y2 = divmod(y12, nH)
                py3 = chi_mat.col(y3)
                for (uv, vuv) in _nonzero(f, pk):
                    u, v = divmod(uv, nH)    # k+1 = u, k+2 = v
                    d1u = delta_H.col(u)
                    for (u12, vu) in _nonzero(f, d1u):
                        u1, u2 = divmod(u12, nH)
                        for (ab, vab) in _nonzero(f, py3):
                            a, bb = divmod(ab, nH)   # y3+1 = a, y3+2 = bb
                            coef = f.mul(f.mul(vxy, vy), f.mul(vuv,
                                                               f.mul(vu, vab)))
                            first = outer(f, basisB[b_i], B.unit, basisH[x])
                            mid_b = B.mult.matrix.apply_pair(
                                basisB[bp_i],
                                B.mult.matrix.apply_pair(act(basisH[y1], basisB[c_i]),
                                              sigma(basisH[y2], basisH[u1])))
                            last_b = B.mult.matrix.apply_pair(
                                basisB[cp_i],
                                sigma_tilde(H.algebra.mult.matrix.apply_pair(basisH[v], basisH[bb]),
                                            basisH[y4]))
                            hleg = H.algebra.mult.matrix.apply_pair(basisH[a], basisH[u2])
                            second = outer(f, mid_b, last_b, hleg)
                            pair = outer(f, first, second)
                            for k2, val in enumerate(pair):
                                if not f.is_zero(val):
                                    acc[k2] = f.add(acc[k2], f.mul(coef, val))
        return tuple(acc)

    cols = []
    for left in range(amb_dim):
        b_i, rem = divmod(left, nB * nH)
        bp_i, h_i = divmod(rem, nH)
        for right in range(amb_dim):
            c_i, rem2 = divmod(right, nB * nH)
            cp_i, k_i = divmod(rem2, nH)
            cols.append(inv_vector(b_i, bp_i, h_i, c_i, cp_i, k_i))
    return Matrix.from_cols(f, cols, amb_dim * amb_dim)


def _reference_double_twist(bgdH, sigma, sigma_tilde):
    f, H, nH = bgdH.coring.field, bgdH, bgdH.dim
    delta_H = H.coring.cc.sect.matrix @ H.coring.delta.matrix
    delta2_H = delta_H.kron(Matrix.identity(f, nH)) @ delta_H
    basisH = [H.coring.space.basis_vector(i) for i in range(nH)]
    cols = []
    for i in range(nH):
        d2i = delta2_H.col(i)
        for j in range(nH):
            d2j = delta2_H.col(j)
            acc = [f.zero] * nH
            for (i123, vi) in _nonzero(f, d2i):
                i12, i3 = divmod(i123, nH)
                i1, i2 = divmod(i12, nH)
                for (j123, vj) in _nonzero(f, d2j):
                    j12, j3 = divmod(j123, nH)
                    j1, j2 = divmod(j12, nH)
                    sfac = sigma.apply_pair(basisH[i1], basisH[j1])
                    tfac = sigma_tilde.apply_pair(basisH[i3], basisH[j3])
                    mid = H.algebra.mult.matrix.apply_pair(basisH[i2], basisH[j2])
                    term = H.algebra.mult.matrix.apply_pair(
                        H.source.map.apply(sfac),
                        H.algebra.mult.matrix.apply_pair(H.target.map.apply(tfac), mid))
                    for k, x in enumerate(term):
                        if not f.is_zero(x):
                            acc[k] = f.add(acc[k], f.mul(f.mul(vi, vj), x))
            cols.append(tuple(acc))
    return Matrix.from_cols(f, cols, nH)


def _reference_a2_maps(inp):
    f, H, nH = inp.B.field, inp.H, inp.H.dim
    chi_mat, delta_H, _, _, _, basisH = _reference_legs(inp)

    # phi: h -> t(sigma(h2+1, h2+2)) h1 ; psi: h -> h1+1 t(sigma~(h1+2, h2))
    def eval_map(sig_mat, plus_on_second):
        cols = []
        for i in range(nH):
            acc = [f.zero] * nH
            dh = delta_H.col(i)
            for (h12, vh) in _nonzero(f, dh):
                h1, h2 = divmod(h12, nH)
                if plus_on_second:
                    p = chi_mat.col(h2)
                    for (xy, vxy) in _nonzero(f, p):
                        x, y = divmod(xy, nH)
                        lval = sig_mat.apply_pair(basisH[x], basisH[y])
                        term = H.algebra.mult.matrix.apply_pair(H.target.map.apply(lval), basisH[h1])
                        for k, w in enumerate(term):
                            if not f.is_zero(w):
                                acc[k] = f.add(acc[k], f.mul(f.mul(vh, vxy), w))
                else:
                    p = chi_mat.col(h1)
                    for (xy, vxy) in _nonzero(f, p):
                        x, y = divmod(xy, nH)
                        lval = sig_mat.apply_pair(basisH[y], basisH[h2])
                        term = H.algebra.mult.matrix.apply_pair(basisH[x], H.target.map.apply(lval))
                        for k, w in enumerate(term):
                            if not f.is_zero(w):
                                acc[k] = f.add(acc[k], f.mul(f.mul(vh, vxy), w))
            cols.append(tuple(acc))
        return Matrix.from_cols(f, cols, nH)

    return eval_map(inp.sigma, True), eval_map(inp.sigma_tilde, False)


def _random_matrix(field, rng, nrows, ncols):
    """Small random entries, about a third of them zero."""
    return Matrix.from_rows(field, [[rng.choice(("0", "0", "1", "-1", "2", "-3/2", "5/3"))
                                     for _ in range(ncols)] for _ in range(nrows)])


def _random_input(field, hopf, B, seed):
    """Random action, sigma and sigma~ on the given Hopf data and base
    ring: no cocycle, so only the raw formulas can be compared."""
    bgdH, thH = hopf_algebra_as_left_bialgebroid(hopf)
    L = bgdH.base
    iota = AlgebraMap(L, B, LinearMap.from_columns(L.space, B.space, [B.unit]))
    rng = random.Random(seed)
    nH, nB = hopf.algebra.dim, B.dim
    return TwistInput(L, bgdH, thH, B, iota,
                      _random_matrix(field, rng, nB, nH * nB),
                      _random_matrix(field, rng, nB, nH * nH),
                      _random_matrix(field, rng, nB, nH * nH))


FIELDS = [QQ, GF(101)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("data", ["smash", "sweedler"])
def test_formulas_match_the_per_value_reference(field, data):
    """The twisted product, coproduct, counit and displayed Galois inverse
    as ``kron_apply`` expressions equal the per-value loops, on random
    action, sigma and sigma~.  EX-SMASH's data (kC2 on B = k[y]/(y^2 - 1))
    has B != k, so a misplaced B leg shows; Sweedler's H over B = k is not
    cocommutative, so a misplaced coproduct leg shows."""
    if data == "smash":
        inp = _random_input(field, group_hopf(field, 2, "kC2"), poly_mod_algebra(field), 5)
    else:
        inp = _random_input(field, sweedler_hopf(field), field_algebra(field), 7)
    chi = _minus_plus(inp)
    assert not inp.sigma.is_zero() and not inp.action.is_zero()
    assert twisted_product(inp, chi) == _reference_product(inp)
    assert (twisted_coproduct(inp, chi), twisted_counit(inp, chi)) \
        == _reference_coproduct_counit(inp)
    assert displayed_inverse(inp, chi) == _reference_inverse(inp)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_base_case_formulas_match_the_per_value_reference(field):
    """Rem A.2's double-twist product and its maps phi, psi equal the
    per-value loops on Sweedler's H over B = L = k, with random sigma and
    sigma~."""
    inp = _random_input(field, sweedler_hopf(field), field_algebra(field), 11)
    assert double_twist_product(inp.H, inp.sigma, inp.sigma_tilde) \
        == _reference_double_twist(inp.H, inp.sigma, inp.sigma_tilde)
    assert a2_maps(inp, _minus_plus(inp)) == _reference_a2_maps(inp)
