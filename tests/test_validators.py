"""The object validators, each one matrix identity, against the per-value
loops they replace.

Two kinds of test.  The pinned ones hold the exception type and message
each validator raises on a perturbed input, as the per-basis-vector loops
raised them; a whole-matrix identity must name the same side, pair and
basis label.  The reference ones keep those loops here, one basis vector or
basis pair at a time, and check that the matrix identities reach the same
verdict on a family of inputs: ``AlgebraMap``, ``Bimodule`` and
``Comodule`` validation, the commuting base images of ``validate_torsor``
and the generators ``certify_free`` chooses.
"""

import itertools

import pytest

from torsorkit.algebra import (
    AlgebraMap,
    Bimodule,
    certify_free,
    chain_map,
    fix_left,
    fix_right,
    regular_bimodule,
    tensor_chain,
)
from torsorkit.bialgebroid import cleft_pretorsor
from torsorkit.coring import (
    Comodule,
    Coring,
    _witness,
    check_grouplike,
    coring_morphism,
)
from torsorkit.errors import NotFree
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import FIXTURE_NAMES, field_algebra, group_algebra, matrix_algebra
from torsorkit.linalg import Matrix
from torsorkit.pretorsor import make_bundle, validate_pretorsor, validate_torsor
from torsorkit.spaces import LinearMap, Space, tensor_space

from conftest import analysis, fixture, join_left, join_right
from test_coring import trivial_coring
from test_linalg import row_space_basis

f = QQ


def _col(vec):
    return Matrix.from_cols(f, [vec])


def _bimodule(space, L, R, lact, ract, check=True):
    return Bimodule(space, L, R, LinearMap(tensor_space([L.space, space]), space, lact),
                    LinearMap(tensor_space([space, R.space]), space, ract), check=check)


def _raised(build):
    """``(exception type name, message)`` of ``build()``, or None."""
    try:
        build()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc).__name__, str(exc)
    return None


C2, K, M2 = group_algebra(f, 2, "kC2"), field_algebra(f), matrix_algebra(f)
ONE, TWO = Space(f, 1, "m"), Space(f, 2, "m2")
TRIV_C2, TRIV_M2 = trivial_coring(C2), trivial_coring(M2)
# x -> x E12 and x -> E12 x on M2, neither of them M2-bilinear
E12 = _col(M2.space.basis_vector(1))
R_E12, L_E12 = fix_right(M2.mult.matrix, 4, E12), fix_left(M2.mult.matrix, E12, 4)
# the projection onto E11 along the other matrix units, linear on neither side
P_E11 = Matrix.from_sparse_rows(f, [{0: 1}, {}, {}, {}], 4)


def _tampered(side, act):
    """The regular comodule of kC2's trivial coring on ``side``, built
    unchecked, with one action of its outer bimodule doubled: only the
    linearity check reads the outer bimodule."""
    com = Comodule(TRIV_C2, TRIV_C2.carrier, side, TRIV_C2.delta, "reg", check=False)
    o = com.outer
    acts = {"lact": o.lact, "ract": o.ract}
    acts[act] = LinearMap(acts[act].domain, acts[act].codomain, acts[act].matrix.scale(2))
    com.outer = Bimodule(o.space, o.left, o.right, acts["lact"], acts["ract"], check=False)
    return com


def _cleft_on_m2(j, jt):
    """``cleft_pretorsor`` for M2 over itself with its trivial coring."""
    ident = AlgebraMap(M2, M2, LinearMap.identity(M2.space))
    TC = tensor_chain([regular_bimodule(M2, ident, ident, check=False), TRIV_M2.carrier],
                      [M2])
    rho = LinearMap(M2.space, TC.carrier,
                    TC.proj.matrix @ Matrix.identity(f, 4).kron(M2.unit_col))
    return cleft_pretorsor(M2, M2, ident, TRIV_M2, rho, None,
                           LinearMap(TRIV_M2.space, M2.space, j),
                           LinearMap(TRIV_M2.space, M2.space, jt), "cleft")


def _coring_on_m2(delta=None, eps=None):
    c = TRIV_M2
    return Coring(M2, c.carrier,
                  c.delta if delta is None else LinearMap(c.space, c.cc.carrier,
                                                          c.delta.matrix @ delta),
                  c.eps if eps is None else LinearMap(c.space, M2.space, c.eps.matrix @ eps))


I4 = Matrix.identity(f, 4)
SWAP = Matrix.from_rows(f, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
SCALE_E12 = Matrix.from_rows(f, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

# (label, build, exception type, message), each recorded from the
# per-value validators
PINNED = [
    ("algebra-map unit",
     lambda: AlgebraMap(K, C2, LinearMap.from_columns(K.space, C2.space, [(0, 1)])),
     "NotHomomorphism", "AlgebraMap(k -> kC2) does not preserve the unit"),
    ("algebra-map multiplication",
     lambda: AlgebraMap(M2, M2, LinearMap(M2.space, M2.space, SCALE_E12)),
     "NotHomomorphism",
     "AlgebraMap(M2 -> M2) does not preserve multiplication on basis pair (1, 2)"),
    ("algebra-map anti-multiplication",
     lambda: AlgebraMap(M2, M2, LinearMap.identity(M2.space), anti=True),
     "NotHomomorphism",
     "AlgebraMap(M2 -/-> M2) does not preserve anti-multiplication on basis pair (0, 1)"),
    ("bimodule unital",
     lambda: _bimodule(C2.space, C2, C2, C2.mult.matrix.scale(2), C2.mult.matrix),
     "ActionMismatch", "actions on kC2 are not unital"),
    ("bimodule left associative",
     lambda: _bimodule(ONE, C2, K, Matrix.from_rows(f, [[1, 2]]), Matrix.from_rows(f, [[1]])),
     "ActionMismatch", "left action is not associative"),
    ("bimodule right associative",
     lambda: _bimodule(ONE, K, C2, Matrix.from_rows(f, [[1]]), Matrix.from_rows(f, [[1, 2]])),
     "ActionMismatch", "right action is not associative"),
    ("bimodule commuting",
     lambda: _bimodule(TWO, C2, C2, Matrix.from_rows(f, [[1, 0, 0, 1], [0, 1, 1, 0]]),
                       Matrix.from_rows(f, [[1, 1, 0, 0], [0, 0, 1, -1]])),
     "ActionMismatch", "left and right actions do not commute"),
    ("grouplike coproduct",
     lambda: check_grouplike(TRIV_C2, C2.unit_col.scale(2)),
     "NotGroupLike", "kC2-triv: Delta(g) != g (x) g"),
    ("grouplike counit",
     lambda: check_grouplike(TRIV_C2, Matrix.zero(f, 2, 1)),
     "NotGroupLike", "kC2-triv: eps(g) != 1"),
    ("coring coproduct left", lambda: _coring_on_m2(delta=P_E11),
     "NotBilinear", "M2: coproduct is not left linear"),
    ("coring coproduct right", lambda: _coring_on_m2(delta=R_E12),
     "NotBilinear", "M2: coproduct is not right linear"),
    ("coring counit left", lambda: _coring_on_m2(eps=P_E11),
     "NotBilinear", "M2: counit is not left linear"),
    ("coring counit right", lambda: _coring_on_m2(eps=R_E12),
     "NotBilinear", "M2: counit is not right linear"),
    ("coring morphism left",
     lambda: coring_morphism(LinearMap(TRIV_M2.space, TRIV_M2.space, L_E12), TRIV_M2, TRIV_M2),
     "NotColinear", "coring morphism is not left linear"),
    ("coring morphism right",
     lambda: coring_morphism(LinearMap(TRIV_M2.space, TRIV_M2.space, R_E12), TRIV_M2, TRIV_M2),
     "NotColinear", "coring morphism is not right linear"),
    ("cleaving map left", lambda: _cleft_on_m2(L_E12, I4),
     "NotColinear", "cleft: the cleaving map is not left linear"),
    ("convolution inverse left", lambda: _cleft_on_m2(I4, L_E12),
     "NotColinear", "cleft: the convolution inverse is not left linear"),
    ("convolution inverse right", lambda: _cleft_on_m2(I4, R_E12),
     "NotColinear", "cleft: the convolution inverse is not right linear"),
] + [
    (f"comodule {side} {kind}", build, exc, msg)
    for side, counit in (("right", "(id (x) eps)"), ("left", "(eps (x) id)"))
    for kind, build, exc, msg in (
        ("coassociative",
         lambda side=side: Comodule(TRIV_C2, TRIV_C2.carrier, side, LinearMap(
             TRIV_C2.space, TRIV_C2.cc.carrier, TRIV_C2.delta.matrix.scale(2)), "reg"),
         "NotCoassociative", "reg: coaction fails coassociativity at e"),
        ("counital",
         lambda side=side: Comodule(TRIV_C2, TRIV_C2.carrier, side,
                                    LinearMap.zero(TRIV_C2.space, TRIV_C2.cc.carrier), "reg"),
         "NotCounital", f"reg: {counit} o rho != id"),
        ("left action", lambda side=side: _tampered(side, "lact")._validate(),
         "NotBilinear", "reg: coaction is not left " + ("base-" if side == "left" else "")
         + "linear"),
        ("right action", lambda side=side: _tampered(side, "ract")._validate(),
         "NotBilinear", "reg: coaction is not right " + ("base-" if side == "right" else "")
         + "linear"),
    )
]


@pytest.mark.parametrize("label, build, exc, message", PINNED, ids=[p[0] for p in PINNED])
def test_each_validator_message_is_pinned(label, build, exc, message):
    assert _raised(build) == (exc, message)


def test_valid_inputs_raise_nothing():
    """The unperturbed data of the pinned cases passes."""
    AlgebraMap(M2, M2, LinearMap(M2.space, M2.space, SWAP), anti=True)
    _bimodule(TWO, C2, C2, Matrix.from_rows(f, [[1, 0, 0, 1], [0, 1, 1, 0]]),
              Matrix.from_rows(f, [[1, 0, 0, 1], [0, 1, 1, 0]]))
    check_grouplike(TRIV_C2, C2.unit_col)
    _coring_on_m2()
    coring_morphism(LinearMap.identity(TRIV_M2.space), TRIV_M2, TRIV_M2)
    for side in ("right", "left"):
        Comodule(TRIV_C2, TRIV_C2.carrier, side, TRIV_C2.delta, "reg")


def test_commuting_witness_is_the_first_failing_pair():
    """EX-M2's base images do not commute; the witness is the first basis
    pair, A before B, that the per-pair loop stopped at."""
    b = fixture("EX-M2").bundle
    assert validate_torsor(b).find("def5.1.commuting").witness == "(E11, E12)"
    assert _reference_commuting(b) == "(E11, E12)"


# (fixture, tau entry raised by one) -> (left B-linear, right A-linear) witnesses
BILINEAR_ROWS = {
    ("EX-M2", 0, 0): ("left B-linearity", "right A-linearity"),
    ("EX-M2", 5, 1): (None, None),
    ("EX-M2", 30, 3): ("left B-linearity", "right A-linearity"),
    ("EX-SMASH", 0, 0): ("left B-linearity", None),
    ("EX-SMASH", 17, 2): ("left B-linearity", None),
}


@pytest.mark.parametrize("key", sorted(BILINEAR_ROWS))
def test_tau_bilinearity_rows_are_pinned(key):
    name, i, j = key
    b = fixture(name).bundle
    raw = b.tau_raw
    bump = Matrix.from_sparse_rows(b.field, [{j: b.field.one} if r == i else {}
                                             for r in range(raw.nrows)], raw.ncols)
    rep = validate_pretorsor(make_bundle(b.A, b.B, b.T, b.alpha, b.beta, raw + bump,
                                         b.name + "-mut"))
    witnesses = tuple(rep.find(f"def3.1.bilinear.{side}").witness for side in ("left", "right"))
    assert witnesses == BILINEAR_ROWS[key]


# ---------------------------------------------------------------------------
# the per-value references


def _basis(space):
    return [space.basis_vector(i) for i in range(space.dim)]


def _reference_algebra_map(src, tgt, m, anti):
    """The message of the per-pair loop, or None."""
    amap = m.apply
    product_src, product_tgt = src.mult.matrix.apply_pair, tgt.mult.matrix.apply_pair
    name = f"AlgebraMap({src.name} {'-/->' if anti else '->'} {tgt.name})"
    if amap(src.unit) != tgt.unit:
        return f"{name} does not preserve the unit"
    e = _basis(src.space)
    for i in range(src.dim):
        fi = amap(e[i])
        for j in range(src.dim):
            fj = amap(e[j])
            lhs = amap(product_src(e[i], e[j]))
            rhs = product_tgt(fj, fi) if anti else product_tgt(fi, fj)
            if lhs != rhs:
                kind = "anti-multiplication" if anti else "multiplication"
                return f"{name} does not preserve {kind} on basis pair ({i}, {j})"
    return None


@pytest.mark.parametrize("anti", [False, True])
def test_algebra_map_agrees_with_the_per_pair_loop(anti):
    """Every single-entry change of the identity (or, anti, of the
    transpose) of M2, and of the unit map k -> kC2."""
    start = SWAP if anti else I4
    cases = [(M2, M2, start + Matrix.from_sparse_rows(
        f, [{c: v} if r == row else {} for r in range(4)], 4))
        for row, c, v in itertools.product(range(4), range(4), (1, -1))]
    cases += [(M2, M2, start), (K, C2, _col((1, 1))), (K, C2, C2.unit_col)]
    for src, tgt, m in cases:
        got = _raised(lambda: AlgebraMap(src, tgt, LinearMap(src.space, tgt.space, m), anti))
        want = _reference_algebra_map(src, tgt, m, anti)
        assert got == (None if want is None else ("NotHomomorphism", want))


def _reference_bimodule(M):
    """The message of the per-basis-vector loop, or None."""
    L, R = M.left, M.right
    lact, ract = M.lact.matrix.apply_pair, M.ract.matrix.apply_pair
    e, eL, eR = _basis(M.space), _basis(L.space), _basis(R.space)
    for m in e:
        if lact(L.unit, m) != m or ract(m, R.unit) != m:
            return f"actions on {M.space.name} are not unital"
    for a, b in itertools.product(eL, eL):
        ab = L.mult.matrix.apply_pair(a, b)
        if any(lact(ab, m) != lact(a, lact(b, m)) for m in e):
            return "left action is not associative"
    for a, b in itertools.product(eR, eR):
        ab = R.mult.matrix.apply_pair(a, b)
        if any(ract(m, ab) != ract(ract(m, a), b) for m in e):
            return "right action is not associative"
    for a, b in itertools.product(eL, eR):
        if any(ract(lact(a, m), b) != lact(a, ract(m, b)) for m in e):
            return "left and right actions do not commute"
    return None


# maps on a two-dimensional module: involutions, and two that are not
MAPS2 = [Matrix.from_rows(f, rows) for rows in (
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[1, 1], [0, -1]],
    [[2, 0], [0, 1]], [[1, 1], [0, 1]])]


def test_bimodule_agrees_with_the_per_vector_loop():
    """kC2 acting on both sides of a two-dimensional module, the generator
    acting by any two of ``MAPS2``, and the unit by the identity or not;
    every verdict and message of the loops is reached."""
    seen = set()
    for unit_l, unit_r in ((MAPS2[0], MAPS2[0]), (MAPS2[4], MAPS2[0]), (MAPS2[0], MAPS2[5])):
        for x, y in itertools.product(MAPS2, repeat=2):
            M = _bimodule(TWO, C2, C2, join_left([unit_l, x]), join_right([unit_r, y]),
                          check=False)
            want = _reference_bimodule(M)
            seen.add(want)
            assert _raised(M._validate) == (None if want is None else ("ActionMismatch", want))
    assert len(seen) == 5, seen


def _reference_comodule(com):
    """The written-out right and left branches of the comodule validator:
    the message, or None."""
    C, M = com.coring, com.carrier
    A = C.base
    ident = Matrix.identity(f, com.dim)
    if com.side == "right":
        mcc = tensor_chain([M, C.carrier, C.carrier], [A, A])
        lhs = chain_map(com.chain, [(1, com.rho, 2), (1, None, 1)], mcc) @ com.rho
        rhs = chain_map(com.chain, [(1, None, 1), (1, C.delta, 2)], mcc) @ com.rho
        if lhs != rhs:
            return f"{com.name}: coaction fails coassociativity at " \
                   f"{_witness(com.space, lhs - rhs)}"
        counit = (M.ract.matrix @ ident.kron(C.eps.matrix)
                  @ com.chain.sect.matrix @ com.rho.matrix)
        if counit != ident:
            return f"{com.name}: (id (x) eps) o rho != id"
        rho = com.rho.matrix
        if rho @ M.ract.matrix != com.outer.ract.matrix @ rho.kron(Matrix.identity(f, A.dim)):
            return f"{com.name}: coaction is not right base-linear"
        if rho @ M.lact.matrix != com.outer.lact.matrix @ Matrix.identity(
                f, M.left.dim).kron(rho):
            return f"{com.name}: coaction is not left linear"
        return None
    ccm = tensor_chain([C.carrier, C.carrier, M], [A, A])
    lhs = chain_map(com.chain, [(1, None, 1), (1, com.rho, 2)], ccm) @ com.rho
    rhs = chain_map(com.chain, [(1, C.delta, 2), (1, None, 1)], ccm) @ com.rho
    if lhs != rhs:
        return f"{com.name}: coaction fails coassociativity at " \
               f"{_witness(com.space, lhs - rhs)}"
    counit = (M.lact.matrix @ C.eps.matrix.kron(ident)
              @ com.chain.sect.matrix @ com.rho.matrix)
    if counit != ident:
        return f"{com.name}: (eps (x) id) o rho != id"
    rho = com.rho.matrix
    if rho @ M.lact.matrix != com.outer.lact.matrix @ Matrix.identity(f, A.dim).kron(rho):
        return f"{com.name}: coaction is not left base-linear"
    if rho @ M.ract.matrix != com.outer.ract.matrix @ rho.kron(Matrix.identity(
            f, M.right.dim)):
        return f"{com.name}: coaction is not right linear"
    return None


@pytest.mark.parametrize("side", ["right", "left"])
def test_comodule_agrees_with_the_written_out_branches(side):
    """The regular comodule of kC2's trivial coring with its coaction
    scaled, and with either outer action doubled; then the comodules of the
    EX-SMASH bundle over both corings, unperturbed."""
    c = TRIV_C2
    coms = [Comodule(c, c.carrier, side, LinearMap(c.space, c.cc.carrier,
                                                   c.delta.matrix.scale(s)), "reg", check=False)
            for s in (0, 1, 2, -1)]
    coms += [_tampered(side, act) for act in ("lact", "ract")]
    pair = analysis("EX-SMASH").pair
    K, rho = (pair.C, pair.rho_T) if side == "right" else (pair.D, pair.lrho_T)
    coms += [Comodule(K, pair.bundle.T_BA, side, rho, "T", check=False),
             Comodule(K, K.carrier, side, K.delta, "K", check=False)]
    verdicts = set()
    for com in coms:
        want = _reference_comodule(com)
        verdicts.add(want is None)
        got = _raised(com._validate)
        assert (got and got[1]) == want
    assert verdicts == {True, False}


def _reference_commuting(b):
    """The witness of the per-pair commuting loop, or None."""
    product = b.T.mult.matrix.apply_pair
    for i in range(b.A.dim):
        a = b.alpha.map.apply(b.A.space.basis_vector(i))
        for j in range(b.B.dim):
            y = b.beta.map.apply(b.B.space.basis_vector(j))
            if product(a, y) != product(y, a):
                return f"({b.A.space.labels[i]}, {b.B.space.labels[j]})"
    return None


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_commuting_row_agrees_with_the_per_pair_loop(name):
    b = fixture(name).bundle
    check = validate_torsor(b).find("def5.1.commuting")
    assert check.witness == _reference_commuting(b)
    assert (check.status == "pass") == (check.witness is None)


def _reference_certify_free(M, side):
    """The generators (as vectors) and iso matrix of the per-vector search,
    or None where it finds no certificate."""
    alg = M.left if side == "left" else M.right
    if M.dim % alg.dim:
        return None
    rank, field = M.dim // alg.dim, M.field
    basis = _basis(M.space)
    candidates, run = list(basis), None
    for v in basis:
        run = v if run is None else tuple(field.add(a, c) for a, c in zip(run, v))
        candidates.append(run)
    for i in range(min(M.dim, 6)):
        for j in range(i + 1, min(M.dim, 6)):
            candidates.append(tuple(field.add(a, c) for a, c in zip(basis[i], basis[j])))

    def orbit_cols(v):
        return [M.lact.matrix.apply_pair(a, v) if side == "left"
                else M.ract.matrix.apply_pair(v, a) for a in _basis(alg.space)]

    chosen, span_rows, span_rank = [], [], 0
    for v in candidates:
        if len(chosen) == rank:
            break
        test = Matrix(field, span_rows + orbit_cols(v), M.dim)
        r = test.rank()
        if r == span_rank + alg.dim:
            chosen.append(v)
            span_rows, span_rank = row_space_basis(test), r
    if len(chosen) != rank:
        return None
    cols = [c for v in chosen for c in orbit_cols(v)]
    return chosen, Matrix.from_cols(field, cols, M.dim)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_certify_free_agrees_with_the_per_vector_search(name, field):
    """T as a left and right module over each base, as the freeness
    certificates and the hypothesis checks read it."""
    b = fixture(name, None if field is QQ else field).bundle
    for M, side in ((b.T_BA, "right"), (b.T_BA, "left"), (b.T_AB, "right"), (b.T_AB, "left")):
        want = _reference_certify_free(M, side)
        try:
            cert = certify_free(M, side)
        except NotFree:
            assert want is None
            continue
        assert [g.col(0) for g in cert.generators] == want[0]
        assert cert.iso.matrix == want[1]
