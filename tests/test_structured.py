"""Structured tensor operators at their call sites.

Each product that the engine evaluates through ``linalg.kron_apply`` or
builds from column supports is compared with the dense Kronecker
expression it replaced, which lives on here only as the reference.  Balance
on a tensor chain is the projector identity ``g == (g @ sect) @ proj``; the
relation kernel ``kernel(chain.proj)`` it replaced is the reference here.
The mutation tests show that the structured identities can still fail.
"""

import argparse
import math
import random
import sys
from fractions import Fraction as F
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit import algebra, bialgebroid
from torsorkit.algebra import (
    Algebra,
    Link,
    _cached_chain,
    _prefix_action,
    _relation_columns,
    chain_of_spaces,
    first_unbalanced,
    fix_left,
    fix_right,
    induce,
    leg_action,
    make_algebra,
    relation_witness,
    single_chain,
)
from torsorkit.analysis import BundleAnalysis, bialgebroid_report
from torsorkit.bialgebroid import (
    _bilinear_from_pairs,
    _diagonal_coactions_raw,
    _factorwise_product_mixed,
    _left_tensor_unit,
    _translation_multiplicative,
    diagonal_coinvariants,
)
from torsorkit.cli import run
from torsorkit.diffcalc import _tau_right_linear
from torsorkit.errors import ClosureFailure, Disagreement, NotWellDefined
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import FIXTURE_NAMES, generate
from torsorkit.linalg import Matrix, kron_apply, mixed_permutation, permute_cols, permute_rows
from torsorkit.pretorsor import Hand, PreTorsorBundle, TorsorBundle, validate_torsor
from torsorkit.serialize import bundle_from_document, loads
from torsorkit.report import Report
from torsorkit.spaces import LinearMap, Space, Subspace, kernel, tensor_space

from conftest import fixture, opposite_bundle, opposite_document, suite_on_document
from test_linalg import assert_sparse_invariants

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dense_factorwise(chain, mult1, mult2, dims, order=(0, 2, 1, 3)):
    sect = chain.sect.matrix
    return (permute_cols(chain.proj.matrix @ mult1.kron(mult2), dims + dims, order)
            @ sect.kron(sect))


def test_factorwise_products_match_dense_on_smash(an_smash):
    b, pair = an_smash.bundle, an_smash.pair
    C_alg, D_alg = (bgd.algebra for bgd in an_smash.bialgebroids)
    for cc, alg in ((pair.C.cc, C_alg), (pair.D.cc, D_alg)):
        mult = alg.mult.matrix
        want = _dense_factorwise(cc, mult, mult, [alg.dim] * 2)
        assert _factorwise_product_mixed(cc, mult, mult, [alg.dim] * 2) == want
    mixed = [(pair.TC, b.mu, C_alg.mult.matrix, [b.T.dim, pair.C.dim]),
             (pair.DT, D_alg.mult.matrix, b.mu, [pair.D.dim, b.T.dim])]
    for chain, mult1, mult2, dims in mixed:
        want = _dense_factorwise(chain, mult1, mult2, dims)
        assert _factorwise_product_mixed(chain, mult1, mult2, dims) == want
    # the opposite-product leg order that theta uses
    mult = C_alg.mult.matrix
    want = _dense_factorwise(pair.C.cc, mult, mult, [C_alg.dim] * 2, (2, 0, 1, 3))
    got = _factorwise_product_mixed(pair.C.cc, mult, mult, [C_alg.dim] * 2, (2, 0, 1, 3))
    assert got == want


def _contracted_rows(an, scale=1):
    """Per hand of a torsor fixture: (lhs, contracted rhs, dense rhs) of
    bgd.delta-multiplicative and of bgd.comodule-algebra, with the coproduct
    and the coaction scaled by ``scale``."""
    b, pair = an.bundle, an.pair
    c = b.field.from_int(scale)
    rows = []
    for bgd, side in zip(an.bialgebroids, ("right", "left")):
        C = bgd.coring
        mult, _, _ = bgd.right_hand_form()
        n, delta = C.dim, C.delta.matrix.scale(c)
        rows.append((delta @ mult,
                     _factorwise_product_mixed(C.cc, mult, mult, [n, n], into=delta),
                     _dense_factorwise(C.cc, mult, mult, [n, n]) @ delta.kron(delta)))
        h = Hand(b, side, pair)
        rho = h.rho.matrix.scale(c)
        mults, dims = h.legs(b.mu, bgd.algebra.mult.matrix), h.legs(b.T.dim, bgd.dim)
        rows.append((rho @ b.mu,
                     _factorwise_product_mixed(h.TK, *mults, dims, into=rho),
                     _dense_factorwise(h.TK, *mults, dims) @ rho.kron(rho)))
    return rows


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_contracted_rows_match_their_dense_forms(name, field):
    """bgd.delta-multiplicative and bgd.comodule-algebra compose the
    factorwise product with Delta (x) Delta and rho (x) rho before
    expanding it; on both hands of every torsor fixture each equals its
    dense ``X @ Y.kron(Z)`` form and holds, and under a doubled coproduct
    or coaction each still fails.  EX-M2 is a pre-torsor only, with no
    bialgebroid and so no such rows."""
    bundle = fixture(name, field).bundle
    if name == "EX-M2":
        assert not isinstance(bundle, TorsorBundle)
        return
    an = BundleAnalysis(bundle)
    for lhs, contracted, dense in _contracted_rows(an):
        assert contracted == dense
        assert lhs == contracted
    for lhs, contracted, dense in _contracted_rows(an, scale=2):
        assert contracted == dense
        assert lhs != contracted


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "EX-M2"])
def test_translation_multiplicative_row_matches_its_dense_form(name, field):
    """theta.translation-multiplicative composes the factorwise product on
    the A^op-balanced square with chi (x) chi before expanding it, chi the
    translation map; on every torsor fixture that equals the dense
    ``X @ chi.kron(chi)`` form and the row passes, and with theta^{-1}
    doubled both forms fail."""
    an = BundleAnalysis(fixture(name, field).bundle)
    bgd, th = an.bialgebroids[0], an.theta_right
    C, mult = bgd.coring, bgd.algebra.mult.matrix
    for scale in (1, 2):
        th_inv = LinearMap(th.theta_inv.domain, th.theta_inv.codomain,
                           th.theta_inv.matrix.scale(field.from_int(scale)))
        chi = th_inv.matrix @ C.cc.proj.matrix @ _left_tensor_unit(field, bgd)
        dense = (_dense_factorwise(th.chain_op, mult, mult, [C.dim] * 2, (2, 0, 1, 3))
                 @ chi.kron(chi))
        assert _factorwise_product_mixed(th.chain_op, mult, mult, [C.dim] * 2,
                                         (2, 0, 1, 3), into=chi) == dense
        rep = Report("translation")
        _translation_multiplicative(bgd, th.chain_op, th_inv, rep)
        assert rep.ok == (chi @ mult == dense) == (scale == 1)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_lemma55_reads_the_rank_of_phi_off_the_reduced_cotensor(name, monkeypatch):
    """lem5.5.two-sided's phi is, on every torsor fixture, the matrix whose
    kernel monoidal_witness's T box (C (x) C) is, so its rank is read off
    that cotensor: no rank is computed in lemma55_check, and the row's
    verdict and dims are those of the rank of phi itself."""
    bundle = fixture(name).bundle
    if name == "EX-M2":
        assert not isinstance(bundle, TorsorBundle)
        return
    diffs, ranks = [], []
    real_difference, real_rank = bialgebroid.cotensor_difference, Matrix.rank

    def recorded(M, N):
        diffs.append(real_difference(M, N))
        return diffs[-1]

    def counted_rank(mat):
        ranks.append(sys._getframe(1).f_code.co_name)
        return real_rank(mat)

    monkeypatch.setattr(bialgebroid, "cotensor_difference", recorded)
    monkeypatch.setattr(Matrix, "rank", counted_rank)
    rep = bialgebroid_report(BundleAnalysis(generate(name).bundle))
    monkeypatch.undo()
    phi_mm, phi = diffs
    assert phi.matrix == phi_mm.matrix
    assert "lemma55_check" not in ranks
    row = rep.find("lem5.5.two-sided")
    assert row.status == "pass"
    assert phi.matrix.rank() == row.dims["ambient"] - row.dims["cotensor"]
    assert row.dims["ambient"] == phi.domain.dim


# the benchmark's seeded dense bases; dense tau is where contracting the
# inner leg of tau (x) tau first saves the most
DENSE_SEED = 15
_DENSE_BUNDLES = {}


def _bundle(name, field):
    """The fixture's bundle, or for ``dense-NAME`` the fixture's document
    moved to a seeded dense basis by the benchmark and loaded as a document."""
    if not name.startswith("dense-"):
        return fixture(name, field).bundle
    key = (name, field.name)
    if key not in _DENSE_BUNDLES:
        text = _dense_text(name, "Q" if field is QQ else f"GF{field.p}")
        _DENSE_BUNDLES[key] = bundle_from_document(loads(text))
    return _DENSE_BUNDLES[key]


def _dense_text(name, field):
    """The document of ``dense-NAME`` over the field named ``field``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    return workloads.dense_document_text(name[len("dense-"):], field, DENSE_SEED)


def _dense_two_tau(b):
    return permute_rows(b.tau_raw.kron(b.tau_raw), [b.T.dim] * 6, (0, 3, 4, 1, 2, 5))


def test_diagonal_coactions_match_dense():
    """``tau_pair_inner`` and the two diagonal coactions finished from it,
    against the dense Kronecker forms, on native and dense-basis bundles."""
    cases = [(name, QQ) for name in ("EX-SW", "EX-Q3")]
    cases += [(name, field) for name in ("dense-EX-SW", "dense-EX-Q4")
              for field in (QQ, GF(101))]
    for name, field in cases:
        b = _bundle(name, field)
        two_tau = _dense_two_tau(b)
        assert b.tau_pair_inner() == (b.idT.kron(b.idT).kron(b.mu).kron(b.idT).kron(b.idT)
                                      @ two_tau), name
        right, left = _diagonal_coactions_raw(b)
        assert right == b.idT.kron(b.idT).kron(b.mu).kron(b.mu) @ two_tau, name
        assert left == b.mu.kron(b.mu).kron(b.idT).kron(b.idT) @ two_tau, name


def _entries(field):
    """Small values, over QQ with fractions among them."""
    values = [0, 0, 1, -1, 2, -3]
    if field is QQ:
        values += [F(1, 2), F(-3, 4), F(5, 3)]
    return st.sampled_from(values)


def _rect(field, nrows, ncols):
    return st.lists(st.lists(_entries(field), min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(
        lambda rows: Matrix(field, [tuple(field.parse(x) for x in r) for r in rows], ncols))


@st.composite
def relation_case(draw):
    """A right action ``rho: H (x) R -> H`` and a left action ``lam: R (x) L
    -> L`` of an m-dim ring, as general matrices (the generator reads only
    their entries), with H or L possibly zero-dimensional."""
    field = draw(st.sampled_from([QQ, GF(101)]))
    h, m, l = draw(st.integers(0, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return field, draw(_rect(field, h, h * m)), draw(_rect(field, l, m * l)), m


def _dense_leg_map(field, dims, pos, m):
    left = Matrix.identity(field, math.prod(dims[:pos]))
    return left.kron(m).kron(Matrix.identity(field, math.prod(dims[pos + 1:])))


@given(relation_case())
@settings(max_examples=80, deadline=None)
def test_relation_columns_match_dense(case):
    """The chain step's relation columns are the nonzero columns of the
    dense ``rho (x) I - I (x) lam`` on ``H (x) R (x) L``, in column order,
    with no stored zero."""
    field, rho, lam, m = case
    h, l = rho.nrows, lam.nrows
    gen = rho.kron(Matrix.identity(field, l)) - Matrix.identity(field, h).kron(lam)
    want = [c for c in gen.transpose().rows if any(not field.is_zero(x) for x in c)]
    got = _relation_columns(field, rho, lam, m)
    assert [tuple(c.get(y, field.zero) for y in range(h * l)) for c in got] == want
    assert all(not field.is_zero(v) for c in got for v in c.values())


def test_prefix_action_matches_dense(tmp_path):
    """The whole right action a chain step reads on its prefix carrier is
    ``proj @ (act on leg i) @ P @ (sect (x) I_m)``, P the dense permutation
    that moves the ring leg beside leg i.  EX-SMASH^op's pentagon chains
    have a link from leg 0 to leg 2 over its two-dimensional base, read on
    an inner leg of a prefix with a quotient, beside the adjacent link read
    on the prefix's edge leg."""
    before = set(map(id, algebra._chain_cache.values()))
    suite_on_document(opposite_document("EX-SMASH", "Q"), tmp_path / "bundle.json")
    seen = set()
    for chain in [c for c in list(algebra._chain_cache.values()) if id(c) not in before]:
        n = len(chain.factor_spaces)
        if n < 2:
            continue
        head = _cached_chain(list(chain.factor_spaces[:-1]),
                             [l for l in chain.links if l.j < n - 1])
        dims = [s.dim for s in head.factor_spaces]
        for link in chain.links:
            if link.j != n - 1 or link.ring.dim == 1 or head.dim == head.ambient.dim:
                continue
            f, m = head.carrier.field, link.ring.dim
            order = [*range(link.i + 1), n - 1, *range(link.i + 1, n - 1)]
            want = (head.proj.matrix @ _dense_leg_map(f, dims, link.i, link.act_i.matrix)
                    @ mixed_permutation(f, dims + [m], order)
                    @ head.sect.matrix.kron(Matrix.identity(f, m)))
            assert _prefix_action(head, link) == want, (chain, link.i)
            seen.add("edge" if link.i == n - 2 else "inner")
    assert seen == {"edge", "inner"}


def _diagonal(field, m):
    """k^m, the m-dim ring of diagonal matrices."""
    return make_algebra(field, m, [(i, i, i, field.one) for i in range(m)], [field.one] * m,
                        f"k^{m}")


def _leg_action_case(data, field, side, inner, with_rep):
    """A chain of two or three legs of dimension 0-3, each pair of adjacent
    legs joined or not by a link of general matrices (so ``proj`` and
    ``sect`` are a real quotient), and the action ``act`` of an m-dim ring
    on an edge leg (the first for "left", the last for "right") or on the
    inner leg of three, applied to ``sect`` or to a caller's map ``rep``
    into the ambient."""
    dims = data.draw(st.lists(st.integers(0, 3), min_size=3 if inner else 2, max_size=3))
    spaces = [Space(field, d, f"S{i}") for i, d in enumerate(dims)]
    links = []
    for i in range(len(dims) - 1):
        if data.draw(st.booleans()):
            r = data.draw(st.integers(1, 2))
            ring = _diagonal(field, r)
            act_i = data.draw(_rect(field, dims[i], dims[i] * r))
            act_j = data.draw(_rect(field, dims[i + 1], r * dims[i + 1]))
            links.append(Link(i, i + 1, ring,
                              LinearMap(tensor_space([spaces[i], ring.space]), spaces[i], act_i),
                              LinearMap(tensor_space([ring.space, spaces[i + 1]]),
                                        spaces[i + 1], act_j)))
    chain = chain_of_spaces(spaces, links)
    leg = 1 if inner else (0 if side == "left" else len(dims) - 1)
    m = data.draw(st.integers(1, 3))
    act = data.draw(_rect(field, dims[leg], dims[leg] * m))
    rep = (data.draw(_rect(field, chain.ambient.dim, data.draw(st.integers(0, 2))))
           if with_rep else None)
    return chain, leg, _diagonal(field, m), act, rep


def _check_leg_action(chain, leg, ring, act, side, rep):
    """``leg_action`` against the dense ``proj @ (I (x) act (x) I) @ P @ G``,
    P the permutation matrix that moves the ring leg just after (right) or
    just before (left) the leg and G = ``rep (x) I_R`` or ``I_R (x) rep``,
    and, one ring basis element at a time, against ``act`` fixed at that
    element (``fix_right``/``fix_left``) on the leg."""
    f, m = chain.carrier.field, ring.dim
    dims = [s.dim for s in chain.factor_spaces]
    n, proj = len(dims), chain.proj.matrix
    got = leg_action(chain, leg, ring, act, side, rep)
    rep = chain.sect.matrix if rep is None else rep
    id_R = Matrix.identity(f, m)
    on_leg = proj @ _dense_leg_map(f, dims, leg, act)
    if side == "right":
        perm = mixed_permutation(f, dims + [m], [*range(leg + 1), n, *range(leg + 1, n)])
        assert got == on_leg @ perm @ rep.kron(id_R)
    else:
        perm = mixed_permutation(f, [m] + dims, [*range(1, leg + 1), 0, *range(leg + 1, n + 1)])
        assert got == on_leg @ perm @ id_R.kron(rep)
    assert_sparse_invariants(got)
    for e in _basis_cols(f, m):
        fixed = (fix_right(act, dims[leg], e) if side == "right"
                 else fix_left(act, e, dims[leg]))
        column = (fix_right(got, rep.ncols, e) if side == "right"
                  else fix_left(got, e, rep.ncols))
        assert column == proj @ _dense_leg_map(f, dims, leg, fixed) @ rep


@pytest.mark.parametrize("with_rep", [False, True], ids=["sect", "rep"])
@pytest.mark.parametrize("inner", [False, True], ids=["edge", "inner"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_leg_action_matches_dense(field, side, inner, with_rep, data):
    """``leg_action`` on both sides, on edge and inner legs, on ``sect`` and
    on a caller's map, over QQ (with fractions) and GF(101), legs of
    dimension zero included."""
    chain, leg, ring, act, rep = _leg_action_case(data, field, side, inner, with_rep)
    _check_leg_action(chain, leg, ring, act, side, rep)


@pytest.mark.parametrize("side", ["left", "right"])
def test_leg_action_on_a_zero_dimensional_leg(side):
    """A leg of dimension zero: the action is empty, of the right shape,
    with no division by the leg's dimension."""
    field = QQ
    spaces = [Space(field, 2, "S0"), Space(field, 0, "S1"), Space(field, 3, "S2")]
    chain = chain_of_spaces(spaces, [])
    ring = _diagonal(field, 2)
    for leg in range(3):
        act = Matrix.identity(field, spaces[leg].dim).kron(Matrix.zero(field, 1, 2))
        _check_leg_action(chain, leg, ring, act, side, None)
        got = leg_action(chain, leg, ring, act, side)
        assert got.shape == (0, 0)


def _basis_cols(field, m):
    return [Matrix.from_sparse_rows(field, [{0: field.one} if k == r else {} for k in range(m)], 1)
            for r in range(m)]


def _first_failing_column(lhs, rhs):
    """The least column index at which two matrices differ, one column at a
    time, or None."""
    return next((j for j in range(lhs.ncols) if lhs.col(j) != rhs.col(j)), None)


def _per_element_def51(bundle, part):
    """Def 5.1(a)/(b) one ring basis element r at a time, each leg map read
    on X3's carrier through its dense Kronecker product: the per-element
    loop the whole-ring rows replaced.  The first (t, r) it rejects, named
    as the report names it, or None."""
    f, n, X3, tau = bundle.field, bundle.T.dim, bundle.X3, bundle.tau.matrix
    ring, lact, ract, pos = {"a": (bundle.A, bundle.T_AB.lact, bundle.T_BA.ract, 0),
                             "b": (bundle.B, bundle.T_BA.lact, bundle.T_AB.ract, 1)}[part]

    def on_carrier(leg, m):
        return X3.proj.matrix @ _dense_leg_map(f, [n] * 3, leg, m) @ X3.sect.matrix

    for r, e in enumerate(_basis_cols(f, ring.dim)):
        t = _first_failing_column(on_carrier(pos, fix_left(lact.matrix, e, n)) @ tau,
                                  on_carrier(pos + 1, fix_right(ract.matrix, n, e)) @ tau)
        if t is not None:
            return f"({bundle.T.space.labels[t]}, {ring.space.labels[r]})"
    return None


def _per_element_def51c(bundle):
    """Def 5.1(c) one pair (t, t') at a time against the dense ``mu (x) mu
    (x) mu`` after the interleaving of ``tau (x) tau``: the first pair it
    rejects, or None."""
    b, n = bundle, bundle.T.dim
    dense = b.X3.proj.matrix @ b.mu.kron(b.mu).kron(b.mu) @ _dense_two_tau(b)
    bad = _first_failing_column(b.tau.matrix @ b.mu, dense)
    if bad is None:
        return None
    labels = b.T.space.labels
    return f"({labels[bad // n]}, {labels[bad % n]})"


def _per_element_tau_right_linear(b):
    """Right B-linearity of tau, one basis element of B at a time: the
    per-element loop ``_tau_right_linear`` replaced."""
    f, n, tau = b.field, b.T.dim, b.tau.matrix
    return all(tau @ rmul == b.X3.proj.matrix @ b.idT.kron(b.idT).kron(rmul)
               @ b.X3.sect.matrix @ tau
               for rmul in (fix_right(b.T_AB.ract.matrix, n, e) for e in _basis_cols(f, b.B.dim)))


def _torsor_row(row):
    return lambda bundle: validate_torsor(bundle).find(row).status == "pass"


# each row's whole-ring form in the engine and its per-element reference
WHOLE_RING_ROWS = {
    "def5.1.a": (_torsor_row("def5.1.a"), lambda bundle: _per_element_def51(bundle, "a") is None),
    "def5.1.b": (_torsor_row("def5.1.b"), lambda bundle: _per_element_def51(bundle, "b") is None),
    "propB.2.tau-right-linear": (_tau_right_linear, _per_element_tau_right_linear),
}


def _perturbed(bundle, c, t):
    """``bundle`` with ``tau(e_t)`` moved by the carrier basis vector c of X3."""
    bump = Matrix.from_sparse_rows(bundle.field, [{t: bundle.field.one} if k == c else {}
                                                  for k in range(bundle.X3.dim)], bundle.T.dim)
    return PreTorsorBundle(bundle.A, bundle.B, bundle.T, bundle.alpha, bundle.beta,
                           bundle.tau_raw + bundle.X3.sect.matrix @ bump, bundle.name)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_whole_ring_rows_match_the_per_element_loop(field):
    """``def5.1.a``, ``def5.1.b`` and ``propB.2.tau-right-linear`` read each
    ring action as one matrix; on EX-SMASH and its opposite bundle they
    agree with the per-basis-element loop they replaced.  Both bundles pass
    (a) and (b); EX-SMASH's tau is not right B-linear, its opposite's (over
    B = k) is.  For each row, the first perturbation of tau, one carrier
    basis vector added to one of its columns, that the loop rejects is
    rejected by the whole-ring form too: (a) on the opposite bundle, whose
    A is two-dimensional, (b) on EX-SMASH, whose B is, and right
    B-linearity on EX-M2, whose B is M2 and whose tau is right B-linear.
    On the perturbed bundles the (a), (b) and (c) rows name as witness the
    pair their per-element loops reject first: the perturbation moves one
    column of tau, so the failing pairs share their T element."""
    smash = fixture("EX-SMASH", field).bundle
    op = opposite_bundle(smash)
    m2 = fixture("EX-M2", field).bundle
    for bundle, linear in ((smash, False), (op, True)):
        for row, (whole, per_element) in WHOLE_RING_ROWS.items():
            want = linear if row == "propB.2.tau-right-linear" else True
            assert whole(bundle) == per_element(bundle) == want, (bundle.name, row)
    for row, bundle in (("def5.1.a", op), ("def5.1.b", smash),
                        ("propB.2.tau-right-linear", m2)):
        whole, per_element = WHOLE_RING_ROWS[row]
        assert whole(bundle), row
        bumped = next(p for p in (_perturbed(bundle, c, t) for t in range(bundle.T.dim)
                                  for c in range(bundle.X3.dim))
                      if not per_element(p))
        assert not whole(bumped), row
        if row == "propB.2.tau-right-linear":
            continue
        report = validate_torsor(bumped)
        for part, want in (("a", _per_element_def51(bumped, "a")),
                           ("b", _per_element_def51(bumped, "b")),
                           ("c", _per_element_def51c(bumped))):
            check = report.find(f"def5.1.{part}")
            assert (check.status, check.witness) == \
                ("pass" if want is None else "fail", want), (row, part)
        assert report.find(row).witness is not None


def test_perturbed_d_product_breaks_delta_multiplicativity(an_smash):
    """One changed structure constant of EX-SMASH's D product must make
    ``Delta . m == (m (x) m)-on-pairs . (Delta (x) Delta)`` false."""
    D = an_smash.pair.D
    D_alg = an_smash.bialgebroids[1].algebra
    f = D.field
    delta = D.delta.matrix
    delta2 = delta.kron(delta)

    def delta_multiplicative(alg):
        mult = alg.mult.matrix
        return delta @ mult == _factorwise_product_mixed(D.cc, mult, mult, [D.dim] * 2) @ delta2

    assert delta_multiplicative(D_alg)
    rows = [list(r) for r in D_alg.mult.matrix.rows]
    i, j = next((i, j) for i, r in enumerate(rows) for j, x in enumerate(r)
                if not f.is_zero(x))
    rows[i][j] = f.add(rows[i][j], f.one)
    mult = LinearMap(D_alg.mult.domain, D_alg.space, Matrix(f, rows))
    perturbed = Algebra(D_alg.space, mult, D_alg.unit_col, "D'", check=False)
    assert not delta_multiplicative(perturbed)


@pytest.mark.parametrize("name", ["EX-SW", "EX-SMASH", "dense-EX-SW", "dense-EX-Q4"])
@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_torsor_axiom_c_matches_dense(name, field):
    """def5.1.c finishes ``tau_pair_inner`` with ``mu (x) id (x) mu``; the
    dense ``mu (x) mu (x) mu`` after the interleaving of ``tau (x) tau`` is
    the reference, and the report row must give the reference verdict."""
    b = _bundle(name, field)
    n = b.T.dim
    dense = b.X3.proj.matrix @ b.mu.kron(b.mu).kron(b.mu) @ _dense_two_tau(b)
    structured = b.X3.proj.matrix @ kron_apply(field, [b.mu, None, b.mu], [n] * 5, None,
                                               [b.tau_pair_inner()])
    assert structured == dense
    row = next(c for c in validate_torsor(b).checks if c.check_id == "def5.1.c")
    assert (row.status == "pass") == (b.tau.matrix @ b.mu == dense)


def test_perturbed_tau_pair_inner_breaks_def51c_and_lemma53(monkeypatch):
    """def5.1.c and both diagonal coactions finish the one ``tau_pair_inner``:
    with one entry of it changed, def5.1.c fails, both coactions change and
    Lemma 5.3's coinvariant check raises."""
    an = BundleAnalysis(generate("EX-SW").bundle)
    b, pair = an.bundle, an.pair
    f = b.field
    right, left = _diagonal_coactions_raw(b)
    inner = PreTorsorBundle.tau_pair_inner

    def bumped(self):
        W = inner(self)
        return W + Matrix.from_sparse_rows(f, [{0: f.one}] + [{} for _ in range(W.nrows - 1)], W.ncols)

    monkeypatch.setattr(PreTorsorBundle, "tau_pair_inner", bumped)
    assert validate_torsor(b).find("def5.1.c").status == "fail"
    bumped_right, bumped_left = _diagonal_coactions_raw(b)
    assert bumped_right != right and bumped_left != left
    with pytest.raises(Disagreement, match="diagonal coinvariants differ"):
        diagonal_coinvariants(b, pair)


# -- balance by the projector identity ------------------------------------

_QUOTIENT_CHAINS = {}


def _quotient_chains(name, field):
    """The chains with a quotient that a fresh bundle builds up to its
    corings, each with its relation span computed the slow way."""
    key = (name, field.name)
    if key not in _QUOTIENT_CHAINS:
        before = set(map(id, algebra._chain_cache.values()))
        BundleAnalysis(generate(name, field).bundle).pair
        _QUOTIENT_CHAINS[key] = [(c, kernel(c.proj)) for c in list(algebra._chain_cache.values())
                                 if id(c) not in before and c.dim < c.ambient.dim]
    return _QUOTIENT_CHAINS[key]


@given(st.sampled_from(["EX-SMASH", "EX-M2"]), st.sampled_from([QQ, GF(101)]),
       st.integers(0, 1 << 30), st.data())
@settings(max_examples=60, deadline=None)
def test_projector_identity_matches_relation_kernel(name, field, pick, data):
    """g = h.proj + c.w.z^T with z a column of I - sect.proj: balanced iff it
    kills ``kernel(proj)``, and the witness is a relation g does not kill."""
    chains = _quotient_chains(name, field)
    chain, rel = chains[pick % len(chains)]
    proj, sect = chain.proj.matrix, chain.sect.matrix
    rng = random.Random(data.draw(st.integers(0, 1 << 30)))
    cod = data.draw(st.integers(1, 3))

    def small():
        return field.from_int(rng.choice([0, 0, 1, -1, 2, -3]))

    h = Matrix(field, [tuple(small() for _ in range(chain.dim)) for _ in range(cod)])
    z = (Matrix.identity(field, chain.ambient.dim) - sect @ proj).col(
        rng.randrange(chain.ambient.dim))
    c = field.from_int(rng.choice([0, 1, -2]))
    w = [field.mul(c, small()) for _ in range(cod)]
    g = h @ proj + Matrix(field, [tuple(field.mul(a, b) for b in z) for a in w])
    bad = first_unbalanced(g, proj, sect)
    assert (bad is None) == (g @ rel.inclusion.matrix).is_zero()
    if bad is not None:
        witness = relation_witness(proj, sect, bad)
        assert rel.contains_vector(witness)
        assert any(not field.is_zero(v) for v in g.apply(witness))


def _general_relation_columns(field, dims, i, mi: Matrix, j, mj: Matrix):
    """Nonzero columns of (mi on leg i) - (mj on leg j), in column order,
    each a dict ``{row: nonzero value}``.

    Column x is ``mi[:, x_i]`` put on leg i minus ``mj[:, x_j]`` put on leg
    j, where x_i, x_j are the digits of x; it is built from the two column
    supports, never from the ambient-sized operators.
    """
    total = prod(dims)
    si, sj = prod(dims[i + 1:]), prod(dims[j + 1:])
    iz, sub, neg = field.is_zero, field.sub, field.neg
    mi_cols, mj_cols = mi.col_supports(), mj.col_supports()
    cols = []
    for x in range(total):
        xi, xj = x // si % dims[i], x // sj % dims[j]
        entries = {x + (r - xi) * si: v for r, v in mi_cols[xi]}
        for r, w in mj_cols[xj]:
            y = x + (r - xj) * sj
            v = entries.get(y)
            if v is None:
                entries[y] = neg(w)
            elif iz(v := sub(v, w)):
                del entries[y]
            else:
                entries[y] = v
        if entries:
            cols.append(entries)
    return cols


def _link_relation_columns(field, factor_spaces, link):
    """The relation generators of one link, as sparse columns over the full
    ambient of a chain, one ring basis element at a time: the slow way,
    which the engine never takes."""
    dims = [s.dim for s in factor_spaces]
    si, sj = dims[link.i], dims[link.j]
    cols = []
    for e in _basis_cols(field, link.ring.dim):
        mi = fix_right(link.act_i.matrix, si, e)
        mj = fix_left(link.act_j.matrix, e, sj)
        cols += _general_relation_columns(field, dims, link.i, mi, link.j, mj)
    return cols


@pytest.mark.parametrize("name", ["EX-SMASH", "EX-M2", "dense-EX-M2", "op-EX-SMASH"])
@pytest.mark.parametrize("field", ["Q", "GF101"])
def test_every_quotient_chain_meets_the_relation_oracle(name, field, tmp_path):
    """Each chain is its cached prefix plus one quotient step.  For every
    chain with a quotient that ``suite`` builds on a fresh bundle, the
    relation span of all its links on the full ambient, generated the slow
    way, is ``kernel(proj)``, ``sect`` sends each carrier basis vector to
    the ambient basis vector of the same label, and both hold stored-form
    values.  In a dense basis the reduction rows of ``proj`` carry general
    coefficients, not just +-1, and over GF(p) their sums need reducing.
    EX-SMASH's opposite bundle ("op-") has links over its two-dimensional
    base that join legs 0 and 2, across a prefix with a quotient."""
    before = set(map(id, algebra._chain_cache.values()))
    if name.startswith(("dense-", "op-")):
        doc = tmp_path / "bundle.json"
        text = (_dense_text(name, field) if name.startswith("dense-")
                else opposite_document(name[len("op-"):], field))
        doc.write_text(text, encoding="utf-8")
        args = argparse.Namespace(fixture=None, input=str(doc), field=None,
                                  dump_matrices=False)
    else:
        args = argparse.Namespace(fixture=name, input=None, field=field,
                                  dump_matrices=False)
    run("suite", args)
    chains = [c for c in list(algebra._chain_cache.values())
              if id(c) not in before and c.dim < c.ambient.dim]
    assert chains
    for chain in chains:
        f = chain.carrier.field
        gens = [col for link in chain.links
                for col in _link_relation_columns(f, chain.factor_spaces, link)]
        if f is QQ and name.startswith("dense-"):
            assert _spans_the_relation_kernel_mod_p(chain, gens), chain
        else:
            rel = Subspace.from_spanning(chain.ambient,
                                         Matrix.from_sparse_rows(f, gens, chain.ambient.dim))
            assert kernel(chain.proj) == rel, chain
        assert_sparse_invariants(chain.proj.matrix)
        assert_sparse_invariants(chain.sect.matrix)
        for q, col in enumerate(chain.sect.matrix.col_supports()):
            assert len(col) == 1 and col[0][1] == f.one, (chain, q)
            assert chain.ambient.labels[col[0][0]] == chain.carrier.labels[q], (chain, q)


def _spans_the_relation_kernel_mod_p(chain, cols):
    """``_spans_the_relation_kernel`` for rational columns, with the rank
    read mod the prime 2^31 - 1 after each column is scaled to integers.
    That rank is at most the rank over Q, and ``ker(proj)`` has dimension
    ``ambient.dim - dim``, so columns that die under ``proj`` and reach it
    span ``ker(proj)``.  Over Q, exact elimination of the relations of a
    dense-basis EX-M2 chain on its 4^5-dimensional ambient takes half a
    minute; mod p it takes a second."""
    gen = Matrix.from_sparse_rows(QQ, cols, chain.ambient.dim)
    if not (chain.proj.matrix @ gen.transpose()).is_zero():
        return False
    gf = GF(2**31 - 1)
    reduced = []
    for col in cols:
        scale = math.lcm(*(getattr(v, "denominator", 1) for v in col.values()))
        reduced.append(gf.normalise({k: int(v * scale) for k, v in col.items()}, True))
    rank = Matrix.from_sparse_rows(gf, reduced, chain.ambient.dim).rank()
    return rank == chain.ambient.dim - chain.dim


def test_induce_rejects_the_swapped_product_on_smash(ex_smash):
    """mu is balanced on T (x)_B T; mu after the leg swap is not, and the
    witness is a relation with nonzero image.  Into a codomain that is a
    real quotient, T (x)_B T itself, mu on the first two legs of
    T (x)_A T (x)_B T descends to ``cod.proj @ raw @ dom.sect``."""
    b = ex_smash.bundle
    TBT, f = b.TBT, b.field
    assert TBT.dim < TBT.ambient.dim
    T_chain = single_chain(b.T.space)
    assert induce(TBT, b.mu, T_chain).matrix == b.mu @ TBT.sect.matrix
    first_two = b.mu.kron(b.idT)
    assert induce(b.X3, first_two, TBT).matrix \
        == TBT.proj.matrix @ first_two @ b.X3.sect.matrix
    swapped = permute_cols(b.mu, [b.T.dim] * 2, (1, 0))
    with pytest.raises(NotWellDefined) as err:
        induce(TBT, swapped, T_chain)
    witness = err.value.witness
    assert not any(not f.is_zero(v) for v in TBT.proj.apply(witness))
    assert any(not f.is_zero(v) for v in swapped.apply(witness))


def test_product_descent_matches_dense_and_catches_a_perturbation(an_smash):
    """``_bilinear_from_pairs`` checks each leg with the projector identity;
    the dense ``raw @ (kernel (x) reps)`` products are the reference.  A
    rank-one term on a relation of either leg must be rejected."""
    b, pair = an_smash.bundle, an_smash.pair
    chain, sub, f = b.TBT, pair.C_sub, b.field
    raw = permute_cols(chain.proj.matrix @ b.mu.kron(b.mu), [b.T.dim] * 4, (2, 0, 1, 3))
    rel = kernel(chain.proj).inclusion.matrix
    reps = chain.sect.matrix @ sub.inclusion.matrix

    def dense_balanced(m):
        return (m @ rel.kron(reps)).is_zero() and (m @ reps.kron(rel)).is_zero()

    assert dense_balanced(raw)
    assert _bilinear_from_pairs(raw, chain, sub, "C").shape == (sub.dim, sub.dim ** 2)
    proj, sect = chain.proj.matrix, chain.sect.matrix
    z = next(w for w in (relation_witness(proj, sect, x) for x in range(chain.ambient.dim))
             if any(not f.is_zero(v) for v in w))
    u = reps.col(0)
    zero_row = (f.zero,) * raw.ncols
    for left, right in ((z, u), (u, z)):
        bump = Matrix(f, [left]).kron(Matrix(f, [right]))
        bumped = raw + Matrix(f, bump.rows + (zero_row,) * (raw.nrows - 1))
        assert not dense_balanced(bumped)
        with pytest.raises(ClosureFailure, match="representative-independent"):
            _bilinear_from_pairs(bumped, chain, sub, "C")


def _spans_the_relation_kernel(chain, cols):
    """Whether sparse relation columns span ``ker(chain.proj)``: each one
    dies under ``proj`` and together they have rank ``ambient.dim - dim``,
    computed by exact elimination."""
    gen = Matrix.from_sparse_rows(chain.ambient.field, cols, chain.ambient.dim)
    dies = not cols or (chain.proj.matrix @ gen.transpose()).is_zero()
    return dies and gen.rank() == chain.ambient.dim - chain.dim


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["Q", "GF101"])
def test_relation_span_check_catches_a_rank_loss(field):
    """The balancing relations of every quotient chain of EX-SMASH and
    EX-M2, regenerated link by link in reverse order, span exactly
    ``ker(proj)``; the family cut to its first column dies under ``proj``
    but spans too little, and the check rejects it."""
    for name in ("EX-SMASH", "EX-M2"):
        chains = _quotient_chains(name, field)
        assert chains
        for chain, _ in chains:
            cols = []
            for link in reversed(chain.links):
                cols.extend(reversed(_link_relation_columns(
                    field, chain.factor_spaces, link)))
            assert _spans_the_relation_kernel(chain, cols), chain
            assert chain.ambient.dim - chain.dim > 1
            assert not _spans_the_relation_kernel(chain, cols[:1]), chain
