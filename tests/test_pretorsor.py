import copy
import re
from fractions import Fraction as F

import pytest

from torsorkit import pretorsor
from torsorkit.algebra import induce, sub_bimodule, tensor_chain
from torsorkit.coring import Bicomodule, Comodule, Coring
from torsorkit.diffcalc import build_calculus
from torsorkit.errors import (
    NotCoassociative,
    NotCounital,
    NotGalois,
    ShapeMismatch,
    TorsorKitError,
)
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import FIXTURE_NAMES, generate
from torsorkit.linalg import Matrix
from torsorkit.pretorsor import (
    Hand,
    entwining,
    equivalence_witness,
    galois,
    kappa,
    make_bundle,
    structure_isos,
    validate_pretorsor,
    validate_torsor,
)
from torsorkit.spaces import LinearMap

from conftest import analysis


def _mutate_tau(fx, i, j, delta=1):
    b = fx.bundle
    rows = [list(r) for r in b.tau_raw.rows]
    rows[i][j] = b.field.add(rows[i][j], b.field.from_int(delta))
    return make_bundle(b.A, b.B, b.T, b.alpha, b.beta,
                       Matrix(b.field, rows, b.T.dim), b.name + "-mut")


def test_fixture_axioms(ex_triv, ex_c2, ex_sw, ex_smash):
    for fx in (ex_triv, ex_c2, ex_sw, ex_smash):
        assert validate_pretorsor(fx.bundle).ok
        assert validate_torsor(fx.bundle).ok


def test_m2_is_pretorsor_but_commuting_fails(ex_m2):
    assert validate_pretorsor(ex_m2.bundle).ok
    rep = validate_torsor(ex_m2.bundle)
    failed = rep.find("def5.1.commuting")
    assert failed.status == "fail" and failed.witness


def test_mutations_fail_with_witness(ex_c2):
    seen = 0
    for (i, j) in [(0, 0), (1, 0), (2, 0), (7, 1), (5, 1), (3, 0)]:
        mutated = _mutate_tau(ex_c2, i, j)
        rep = validate_pretorsor(mutated)
        assert not rep.ok
        assert any(c.witness for c in rep.failures())
        seen += 1
    assert seen == 6


def test_tau_mutation_witness_is_localized(ex_c2):
    # tau(g) = g (x) g (x) g; perturbing the g-column breaks axiom (b) at g
    mutated = _mutate_tau(ex_c2, 0, 1)
    rep = validate_pretorsor(mutated)
    bad = [c for c in rep.failures()]
    assert bad
    assert any(c.witness == "g" for c in bad if c.witness)


def test_c2_corings_explicit(an_c2):
    pair = an_c2.pair
    b = an_c2.bundle
    assert pair.C.dim == 2 and pair.D.dim == 2
    # basis {e(x)e, g(x)g}: both group-like, counit 1 on both
    for k in range(2):
        basis_vec = pair.C_sub.inclusion.matrix.col(k)
        amb = b.TBT.sect.apply(pair.C_sub.inclusion.matrix.col(k))
        nz = [i for i, x in enumerate(amb) if x != 0]
        assert nz in ([0], [3])  # e|e or g|g in the square basis
        on_C = b.TBT.proj.apply(amb)
        assert pair.C.eps.apply(tuple(on_C[p] for p in pair.C_sub.pivots)) == b.A.unit
    from torsorkit.coring import check_grouplike
    for k in range(2):
        check_grouplike(pair.C, Matrix.from_cols(QQ, [pair.C.space.basis_vector(k)]))


def test_galois_translation_values(an_c2):
    pair = an_c2.pair
    b = an_c2.bundle
    g = an_c2.galois_right
    assert g.can.domain.dim == 4
    # chi fixes the canonical basis of C: chi(e(x)e) = e(x)e, chi(g(x)g) = g(x)g
    for k in range(2):
        image = b.TBT.sect.apply(g.chi.apply(pair.C.space.basis_vector(k)))
        on_C = b.TBT.proj.apply(image)
        assert tuple(on_C[p] for p in pair.C_sub.pivots) == pair.C.space.basis_vector(k)


def test_galois_roundtrip_all(an_triv, an_c2, an_sw, an_m2):
    # Lemma 3.7 reconstruction is asserted inside galois(); reaching here
    # means tau was reproduced exactly on every fixture, both sides.
    for an in (an_triv, an_c2, an_sw, an_m2):
        assert an.galois_right.can is not None
        assert an.galois_left.can is not None


def test_entwining_reports(an_c2, an_sw):
    for an in (an_c2, an_sw):
        assert an.ent_right.report.ok and an.ent_right.invertible
        assert an.ent_left.report.ok and an.ent_left.invertible


def test_tbar_characterisations(an_triv, an_c2, an_sw, an_m2, an_smash):
    for an, expected in ((an_triv, 1), (an_c2, 2), (an_sw, 4), (an_m2, 4),
                         (an_smash, 4)):
        assert an.tbar.dim == expected


def test_structure_isos(an_triv, an_c2, an_sw, an_m2):
    for an in (an_triv, an_c2, an_sw, an_m2):
        rep = an.isos.report
        assert rep.ok, rep.summary()
        assert "taubar" in an.isos.maps


def test_equivalence_witness_regular_and_sum(an_c2):
    an = an_c2
    b = an.bundle
    pair = an.pair
    creg = Comodule(pair.C, pair.C.carrier, "left", pair.C.delta, "C")
    w = equivalence_witness(b, pair, an.tbar, creg)
    assert w.ok
    # one-dimensional comodule on the group-like e(x)e
    from torsorkit.algebra import Bimodule
    from torsorkit.spaces import Space, tensor_space
    one = Space(QQ, 1, "M1")
    lact = LinearMap(tensor_space([b.A.space, one]), one,
                     Matrix.from_rows(QQ, [[1]]))
    ract = LinearMap(tensor_space([one, b.A.space]), one,
                     Matrix.from_rows(QQ, [[1]]))
    mbim = Bimodule(one, b.A, b.A, lact, ract)
    gcol = pair.grouplike_C.element
    cm = tensor_chain([pair.C.carrier, mbim], [b.A])
    rho = LinearMap(one, cm.carrier, cm.proj.matrix @ gcol)
    m1 = Comodule(pair.C, mbim, "left", rho, "M1")
    w1 = equivalence_witness(b, pair, an.tbar, m1)
    assert w1.ok
    dims = w1.report.find("cor4.8.dim").dims
    assert dims["composite"] == 1


def _regular_comodules(an):
    """C and D as left comodules over themselves."""
    D = an.pair.D
    return an.creg, Comodule(D, D.carrier, "left", D.delta, "D")


@pytest.mark.parametrize("name, field", [(name, field) for name in FIXTURE_NAMES
                                         for field in (QQ, GF(101))],
                         ids=lambda x: getattr(x, "name", x))
def test_equivalence_witness_in_both_directions(name, field):
    """Cor 4.8 on the regular comodules of both corings, the D direction
    the mirror of the C one: each composite has the comodule's dimension
    and collapses onto it by a colinear isomorphism."""
    an = analysis(name, field)
    for M in _regular_comodules(an):
        rep = equivalence_witness(an.bundle, an.pair, an.tbar, M).report
        assert [c.check_id for c in rep.checks] == \
            ["cor4.8.dim", "cor4.8.iso", "cor4.8.colinear"], M.name
        assert rep.ok, rep.summary()


@pytest.mark.parametrize("name, field", [(name, field) for name in ("EX-SW", "EX-SMASH")
                                         for field in (QQ, GF(101))],
                         ids=lambda x: getattr(x, "name", x))
def test_kron_apply_call_sites_equal_their_dense_expressions(monkeypatch, name, field):
    """Cor 4.3's counit maps on the ambient, ``(mu (x) id (x) id) @ expand``
    and ``(mu (x) id (x) id (x) id) @ (id (x) tau (x) id) @ expand_K`` before
    the projection, in both hands, and Cor 4.8's collapse ``(mu4 (x) id_M) @
    expand`` on both regular comodules, each applied through ``kron_apply``,
    equal the dense Kronecker products they replace."""
    an = analysis(name, field)
    b, n = an.bundle, an.bundle.T.dim
    raw, applied = {}, []
    kron_apply = pretorsor.kron_apply

    def watched_induce(dom, raw_map, cod, label=""):
        raw[label] = cod.proj.matrix @ raw_map
        return induce(dom, raw_map, cod, label)

    def watched_kron_apply(*args):
        out = kron_apply(*args)
        applied.append((args, out))
        return out

    monkeypatch.setattr(pretorsor, "induce", watched_induce)
    monkeypatch.setattr(pretorsor, "kron_apply", watched_kron_apply)
    structure_isos(b, an.pair, an.tbar, an.ent_right, an.ent_left, an.galois_right,
                   an.galois_left)
    idT, Tbar = b.idT, an.tbar.subspace
    for h, other in ((Hand(b, "right", an.pair), Hand(b, "left", an.pair)),
                     (Hand(b, "left", an.pair), Hand(b, "right", an.pair))):
        expand = h.kron(idT, b.X3bar.sect.matrix @ Tbar.inclusion.matrix)
        expand_K = other.kron(other.two.sect.matrix @ other.sub.inclusion.matrix, idT)
        assert raw[f"{other.letter}cou"] == \
            b.X3bar.proj.matrix @ h.kron(b.mu, idT, idT) @ expand
        assert raw[f"{other.letter}couinv"] == other.X4.proj.matrix \
            @ h.kron(b.mu, idT, idT, idT) @ h.kron(idT, b.tau_raw, idT) @ expand_K
    mu4 = b.mu @ (b.mu @ b.mu.kron(idT)).kron(idT)
    for M in _regular_comodules(an):
        applied.clear()
        assert equivalence_witness(b, an.pair, an.tbar, M).ok
        (_, left, dims, order, right), out = next(
            call for call in applied if call[0][2] == [n ** 4, M.dim])
        assert left[0] == mu4 and order is None
        assert out == mu4.kron(Matrix.identity(field, M.dim)) @ right[0]


def _doubled_left_coaction(bico):
    """``bico`` with its left coaction doubled, left unvalidated."""
    return Bicomodule(bico.left_coring, bico.right_coring, bico.carrier,
                      bico.lrho + bico.lrho, bico.rrho, bico.name, check=False)


@pytest.mark.parametrize("direction", ["C", "D"])
def test_equivalence_witness_sees_a_coaction_that_is_not_colinear(direction):
    """Doubling the left coaction of the composite's outer factor (Tbar for
    a C-comodule, T for a D-comodule) leaves the composite and its collapse
    alone, and only ``cor4.8.colinear`` fails."""
    an = analysis("EX-C2")
    pair, tb = copy.copy(an.pair), copy.copy(an.tbar)
    if direction == "C":
        M = _regular_comodules(an)[0]
        tb.bicomodule = _doubled_left_coaction(tb.bicomodule)
    else:
        M = _regular_comodules(an)[1]
        pair.bicomodule = _doubled_left_coaction(pair.bicomodule)
    rep = equivalence_witness(an.bundle, pair, tb, M).report
    assert [c.check_id for c in rep.failures()] == ["cor4.8.colinear"], rep.summary()


def test_kappa_identity_permutation_and_degenerate(an_c2):
    an = an_c2
    b = an.bundle
    pair = an.pair
    # identity case
    tc = pair.TC
    morph, bij, gal = kappa(b, pair, pair.C, pair.rho_T)
    assert bij and gal
    assert morph.map.matrix.is_identity()
    # permuted copy of the coring
    P = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    from torsorkit.algebra import Bimodule
    from torsorkit.spaces import Space, tensor_space
    c2s = Space(QQ, 2, "Cperm")
    Pinv = P
    lact = LinearMap(tensor_space([b.A.space, c2s]), c2s,
                     P @ pair.C.carrier.lact.matrix
                     @ Matrix.identity(QQ, 1).kron(Pinv))
    ract = LinearMap(tensor_space([c2s, b.A.space]), c2s,
                     P @ pair.C.carrier.ract.matrix
                     @ Pinv.kron(Matrix.identity(QQ, 1)))
    carrier = Bimodule(c2s, b.A, b.A, lact, ract)
    cc = tensor_chain([carrier, carrier], [b.A])
    two = cc.proj.matrix @ P.kron(P) @ pair.C.cc.sect.matrix
    delta = LinearMap(c2s, cc.carrier, two @ pair.C.delta.matrix @ Pinv)
    eps = LinearMap(c2s, b.A.space, pair.C.eps.matrix @ Pinv)
    Cperm = Coring(b.A, carrier, delta, eps, "Cperm")
    tct = tensor_chain([b.T_BA, carrier], [b.A])
    rho_p = LinearMap(b.T.space, tct.carrier,
                      tct.proj.matrix @ Matrix.identity(QQ, b.T.dim).kron(P)
                      @ pair.TC.sect.matrix @ pair.rho_T.matrix)
    morph2, bij2, gal2 = kappa(b, pair, Cperm, rho_p)
    assert bij2 and gal2
    assert morph2.map.matrix == P
    # group-like span: surjective but not injective, Galois verdict false
    gcol = pair.grouplike_C.element
    span = Space(QQ, 1, "Cg")
    lact1 = LinearMap(tensor_space([b.A.space, span]), span,
                      Matrix.from_rows(QQ, [[1]]))
    ract1 = LinearMap(tensor_space([span, b.A.space]), span,
                      Matrix.from_rows(QQ, [[1]]))
    carrier1 = Bimodule(span, b.A, b.A, lact1, ract1)
    cc1 = tensor_chain([carrier1, carrier1], [b.A])
    delta1 = LinearMap(span, cc1.carrier, Matrix.from_rows(QQ, [[1]]))
    eps1 = LinearMap(span, b.A.space, Matrix.from_rows(QQ, [[1]]))
    Cg = Coring(b.A, carrier1, delta1, eps1, "Cg")
    tcg = tensor_chain([b.T_BA, carrier1], [b.A])
    rho_triv = LinearMap(b.T.space, tcg.carrier,
                         tcg.proj.matrix
                         @ Matrix.identity(QQ, b.T.dim).kron(
                             Matrix.from_rows(QQ, [[1]])))
    morph3, bij3, gal3 = kappa(b, pair, Cg, rho_triv)
    assert not bij3 and not gal3
    assert morph3.map.rank() == 1  # surjective onto the span, not injective


@pytest.mark.parametrize("double, error, message", [
    (True, NotCoassociative, "T: coaction fails coassociativity"),
    (False, NotCounital, "T: (id (x) eps) o rho != id"),
], ids=["doubled", "zero"])
def test_kappa_rejects_an_alternative_coaction_that_is_not_one(an_c2, double, error,
                                                               message):
    """Twice rho_T is not coassociative and the zero map is not counital;
    ``kappa`` validates ``rho_tilde`` as the right part of the D-Ct
    bicomodule on T and raises for both."""
    pair = an_c2.pair
    rho = pair.rho_T + pair.rho_T if double \
        else LinearMap.zero(pair.rho_T.domain, pair.rho_T.codomain)
    with pytest.raises(error, match=re.escape(message)):
        kappa(an_c2.bundle, pair, pair.C, rho)


@pytest.mark.parametrize("build, side, error", [
    (galois, "Right", ShapeMismatch),
    (galois, "x", ShapeMismatch),
    (entwining, "Right", ShapeMismatch),
    (entwining, "x", ShapeMismatch),
    (Hand, "", ShapeMismatch),
    (build_calculus, "right", ValueError),
    (build_calculus, "C", ValueError),
], ids=["galois-Right", "galois-x", "entwining-Right", "entwining-x", "Hand-empty",
        "calculus-right", "calculus-C"])
def test_an_unknown_side_raises(build, side, error):
    """A side that names neither hand raises; it never runs the left-hand
    construction.  ``build_calculus`` names its sides by base, A or B."""
    an = analysis("EX-C2")
    with pytest.raises(error, match="side must be"):
        build(an.bundle, side, an.pair) if build is Hand else build(an.bundle, an.pair, side)
