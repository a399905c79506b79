"""Acceptance suite: one printed pass/fail line per criterion.

Everything is exact arithmetic with zero tolerance.  Three sub-components
involving the matrix-algebra bundle are provably unattainable on the given
data (its base images cannot commute elementwise); they are implemented
faithfully, print FAIL, and are marked strict-xfail with the analysis
recorded in the project notes.  All other components must pass.
"""

import argparse

import pytest

from torsorkit.algebra import regular_bimodule
from torsorkit.bialgebroid import (
    bialgebroid_from_torsor,
    can_factorisation,
    diagonal_coinvariants,
    lemma55_check,
    monoidal_witness,
    recovered_structure,
)
from torsorkit.analysis import BundleAnalysis
from torsorkit.cli import run
from torsorkit.diffcalc import build_calculus
from torsorkit.errors import TorsorKitError
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import field_algebra, generate
from torsorkit.linalg import Matrix
from torsorkit.pretorsor import TorsorBundle, make_bundle, validate_pretorsor, validate_torsor
from torsorkit.spaces import LinearMap

from conftest import analysis, fixture
from test_bialgebroid import left_module_wrap

TORSOR_NAMES = ("EX-TRIV", "EX-C2", "EX-SW")
BIG_PRIME = 2**61 - 1
ALL_NAMES = ("EX-TRIV", "EX-C2", "EX-SW", "EX-M2")


def _line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def _mutations(fx, count=6):
    """Single-entry perturbations of the structure map.

    Entries whose unit perturbation vanishes in the balanced quotient leave
    the map itself unchanged and are skipped (they mutate only the chosen
    representative, not the structure map).
    """
    b = fx.bundle
    n3, n = b.tau_raw.shape
    spots = []
    if n3 * n >= count:
        for i in range(n3):
            if len(spots) >= count:
                break
            probe = [b.field.zero] * n3
            probe[i] = b.field.one
            if all(b.field.is_zero(x) for x in b.X3.proj.apply(tuple(probe))):
                continue
            spots.append((i, i % n, 1))
    else:
        spots = [(0, 0, d) for d in range(1, count + 1)]
    out = []
    for (i, j, d) in spots[:count]:
        rows = [list(r) for r in b.tau_raw.rows]
        rows[i][j] = b.field.add(rows[i][j], b.field.from_int(d))
        out.append(make_bundle(b.A, b.B, b.T, b.alpha, b.beta,
                               Matrix(b.field, rows, n), f"{b.name}-mut"))
    return out


def test_criterion_1_axiom_suites():
    ok = True
    for name in ALL_NAMES:
        fx = fixture(name)
        ok &= validate_pretorsor(fx.bundle).ok
        if name != "EX-M2":
            ok &= validate_torsor(fx.bundle).ok
        for mutated in _mutations(fx):
            rep = validate_pretorsor(mutated)
            failed = rep.failures()
            ok &= bool(failed) and any(c.witness for c in failed)
    m2_torsor = validate_torsor(fixture("EX-M2").bundle).ok
    _line(1, ok and m2_torsor,
          "axiom suites and localized mutation witnesses "
          + ("" if m2_torsor else "(EX-M2 torsor axioms fail: "
             "base images of a matrix algebra cannot commute)"))
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="EX-M2 cannot satisfy the torsor axioms: "
                          "commuting base images would force M2 commutative")
def test_criterion_1_m2_torsor_component():
    assert validate_torsor(fixture("EX-M2").bundle).ok


def test_criterion_2_roundtrip_and_dims():
    ok = True
    dims = {}
    for name in ALL_NAMES:
        an = analysis(name)
        # galois() raises unless the translation map reproduces tau exactly
        ok &= an.galois_right.can is not None
        ok &= an.galois_left.can is not None
        dims[name] = (an.pair.C.dim, an.pair.D.dim)
        fx = fixture(name)
        ok &= fx.oracle_report["dim_C"] == an.pair.C.dim
        ok &= fx.oracle_report["dim_D"] == an.pair.D.dim
    ok &= dims["EX-C2"] == (2, 2)
    ok &= dims["EX-SW"][0] == 4
    ok &= dims["EX-M2"][0] == 4
    assert _line(2, ok, f"coring round-trips, dims {dims}")


def test_criterion_3_galois_bijectivity():
    ok = True
    for name, size in (("EX-C2", 4), ("EX-SW", 16)):
        an = analysis(name)
        g = an.galois_right
        ok &= g.can.domain.dim == size and g.can.rank() == size
    for name in ALL_NAMES:
        an = analysis(name)
        g = an.galois_right
        b = an.bundle
        pair = an.pair
        one_tensor = LinearMap(
            pair.C.space, pair.TC.carrier,
            pair.TC.proj.matrix @ b.T.unit_col.kron(
                Matrix.identity(b.field, pair.C.dim)))
        ok &= g.can @ g.chi == one_tensor
        ok &= b.mu_TBT @ g.chi == b.alpha.map @ pair.C.eps
    assert _line(3, ok, "canonical maps bijective, translation identities exact")


def test_criterion_4_tbar_three_ways():
    ok = True
    dims = {}
    for name in ALL_NAMES + ("EX-SMASH",):
        an = analysis(name)
        try:
            dims[name] = an.tbar.dim   # construction compares the three
            ok &= fixture(name).oracle_report["dim_Tbar"] == an.tbar.dim
        except TorsorKitError as exc:
            ok = False
            dims[name] = str(exc)
    assert _line(4, ok, f"coinvariant sub-bimodule agrees three ways, dims {dims}")


def test_criterion_5_structure_isos():
    ok = True
    for name in ALL_NAMES + ("EX-SMASH",):
        an = analysis(name)
        rep = an.isos.report
        ok &= rep.ok
        if an.ent_right.invertible and an.ent_left.invertible:
            ok &= rep.find("thm4.9.taubar-bijective").status == "pass"
            ok &= rep.find("thm4.9.eq4.8").status == "pass"
    assert _line(5, ok, "cotensor isomorphisms two-sided, "
                        "identification with the coinvariants exact")


def test_criterion_6_diagonal_coinvariants():
    ok = True
    for name in TORSOR_NAMES + ("EX-SMASH",):
        an = analysis(name)
        ok &= diagonal_coinvariants(an.bundle, an.pair).ok
    m2_ok = True
    try:
        an = analysis("EX-M2")
        diagonal_coinvariants(an.bundle, an.pair)
    except TorsorKitError:
        m2_ok = False
    _line(6, ok and m2_ok,
          "diagonal coinvariants equal the corings"
          + ("" if m2_ok else " (EX-M2 diagonal coaction is "
             "representative-dependent without torsor axioms)"))
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="the diagonal coaction is not well defined on "
                          "EX-M2; it needs the torsor axioms")
def test_criterion_6_m2_component():
    an = analysis("EX-M2")
    assert diagonal_coinvariants(an.bundle, an.pair).ok


def test_criterion_7_bialgebroid_and_theta():
    ok = True
    for name in TORSOR_NAMES:
        an = analysis(name)
        bC, bD = an.bialgebroids
        ok &= bC.report.ok and bD.report.ok
        thC, thD = an.theta_right, an.theta_left
        ok &= thC.report.ok and thD.report.ok
        ok &= thC.report.find("theta.pentagon").status == "pass"
        ok &= thC.report.find("theta.eq2.3-target").status == "pass"
        ok &= thC.report.find("theta.eq2.3-source").status == "pass"
    m2_ok = True
    try:
        bialgebroid_from_torsor(analysis("EX-M2").bundle, analysis("EX-M2").pair)
    except TorsorKitError:
        m2_ok = False
    _line(7, ok and m2_ok,
          "bialgebroid sweeps, bijective Galois maps, pentagon and "
          "translation identities"
          + ("" if m2_ok else " (EX-M2 product is not well defined on the "
             "kernel coring)"))
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="the EX-M2 kernel coring admits no bialgebroid "
                          "product: representative-independence fails")
def test_criterion_7_m2_component():
    an = analysis("EX-M2")
    bC, bD = bialgebroid_from_torsor(an.bundle, an.pair)
    assert bC.report.ok


def test_criterion_8_monoidal_witnesses():
    ok = True
    for name in TORSOR_NAMES:
        an = analysis(name)
        b = an.bundle
        bC = an.bialgebroids[0]
        creg = an.regular_comodule()
        w, data = monoidal_witness(b, an.pair, bC, creg)
        ok &= w.ok
        ok &= can_factorisation(b, an.pair, an.galois_right, data)
        ok &= recovered_structure(b, an.pair, bC, data).ok
        K = field_algebra(b.field)
        A_bim = regular_bimodule(b.A)
        ok &= lemma55_check(b, an.pair, bC, an.theta_right, A_bim).ok
        C_mod = left_module_wrap(b.A, an.pair.C.space,
                                 an.pair.C.carrier.lact, K)
        ok &= lemma55_check(b, an.pair, bC, an.theta_right, C_mod).ok
    assert _line(8, ok, "monoidal structure maps bijective, canonical-map "
                        "factorisation and cotensor collapse exact")


def test_criterion_9_twisted_bialgebroid():
    from torsorkit.cleft_twist import (
        cleft_iso_check, smash_comparison, twist_data_for_fixture,
        twisted_bialgebroid)
    an = analysis("EX-SMASH")
    fx = fixture("EX-SMASH")
    inp, rho_raw, j_raw, jt_raw, antipode = twist_data_for_fixture(fx, an.bundle)
    tw = twisted_bialgebroid(inp, "EX-SMASH")
    ok = tw.dim == 8 and tw.report.ok
    ok &= tw.report.find("propA.1.galois-inverse").status == "pass"
    ok &= smash_comparison(inp, tw, antipode)
    bgd_D = an.bialgebroids[1]
    ok &= cleft_iso_check(an.bundle, an.pair, bgd_D, tw, inp,
                          rho_raw, j_raw, jt_raw, antipode).ok
    assert _line(9, ok, "dim-8 twisted bialgebroid with verified displayed "
                        "inverse, equals the independent smash pattern")


def test_criterion_10_differential_calculi():
    from torsorkit.diffcalc import (bimodule_connection, build_calculus,
                                    connections)
    ok = True
    for name in ALL_NAMES + ("EX-SMASH",):
        an = analysis(name)
        calcA = build_calculus(an.bundle, an.pair, "A")
        calcB = build_calculus(an.bundle, an.pair, "B")
        ok &= calcA.report.ok and calcB.report.ok
        right, left = connections(an.bundle, an.pair, calcA, calcB)
        ok &= right.report.ok and left.report.ok
        ok &= (right.extended @ right.nabla).is_zero()
        ok &= (left.extended @ left.nabla).is_zero()
        bc = bimodule_connection(an.bundle, an.pair, calcA, calcB, left,
                                 an.ent_left)
        ok &= bc.report.ok
        ok &= bc.report.find("propB.2.sigmaB-is-psiD").status == "pass"
        if name == "EX-C2":
            ok &= calcA.dim == 1
            amb = an.bundle.TBT.sect.apply(calcA.omega1.inclusion.matrix.col(0))
            ok &= amb == (QQ.one, QQ.zero, QQ.zero, QQ.neg(QQ.one))
    assert _line(10, ok, "degree-one forms, flat connections, twist map "
                         "equal to the restricted entwining")


def _suite_rows(name, field):
    """(id, status, dims) of every check of ``suite`` on a fixture."""
    args = argparse.Namespace(fixture=name, input=None, field=field, dump_matrices=False)
    _, doc = run("suite", args)
    return [(c["id"], c["status"], c["dims"]) for c in doc["checks"]]


def dimension_summary(an: BundleAnalysis) -> dict:
    """The dimension verdicts compared across fields (exact integers)."""
    b = an.bundle
    pair = an.pair
    out = {
        "C": pair.C.dim,
        "D": pair.D.dim,
        "Tbar": an.tbar.dim,
        "can": an.galois_right.can.domain.dim,
        "psi_C_invertible": an.ent_right.invertible,
        "psi_D_invertible": an.ent_left.invertible,
        "Omega1A": build_calculus(b, pair, "A").dim,
        "Omega1B": build_calculus(b, pair, "B").dim,
    }
    if isinstance(b, TorsorBundle):
        try:
            out["theta_C"] = an.theta_right.theta.domain.dim
            out["theta_D"] = an.theta_left.theta.domain.dim
        except TorsorKitError:
            out["theta_C"] = out["theta_D"] = None
    return out


def test_criterion_11_cross_field():
    """The verdicts hold over GF(101), and over GF(2^61 - 1), whose raw
    products pass 2^64 before the kernels reduce them."""
    ok = True
    for name in ALL_NAMES + ("EX-SMASH",):
        dq = dimension_summary(analysis(name))
        fxp = generate(name, GF(101))
        dp = dimension_summary(BundleAnalysis(fxp.bundle))
        ok &= dq == dp
    for name in ("EX-SW", "EX-SMASH"):
        dq = dimension_summary(analysis(name))
        dbig = dimension_summary(BundleAnalysis(generate(name, GF(BIG_PRIME)).bundle))
        ok &= dq == dbig
        ok &= _suite_rows(name, "Q") == _suite_rows(name, f"GF{BIG_PRIME}")
    assert _line(11, ok, "dimension verdicts identical over Q, GF(101) and GF(2^61-1)")


def _failing_rows(doc):
    return [c["id"] for c in doc["checks"] if c["status"] == "fail"]


@pytest.mark.parametrize("name, checks", [("EX-SW", 99), ("EX-M2", 56)])
@pytest.mark.parametrize("field", ["Q", "GF101"])
def test_opposite_bundle_passes_every_check(opposite_suites, name, field, checks):
    """The opposite bundle of a fixture whose algebras A and B are k: the
    torsor EX-SW^op passes all of ``suite``, and the pre-torsor EX-M2^op
    all of its pre-torsor rows."""
    doc = opposite_suites(name, field)
    assert len(doc["checks"]) == checks
    assert _failing_rows(doc) == []


@pytest.mark.parametrize("field", ["Q", "GF101"])
def test_opposite_smash_fails_only_the_right_linearity_rows(opposite_suites, field):
    """EX-SMASH^op, a right bialgebroid over the two-dimensional base B^op,
    runs all 91 checks, and no row fails but the two of the strict xfail
    below."""
    doc = opposite_suites("EX-SMASH", field)
    assert len(doc["checks"]) == 91
    assert set(_failing_rows(doc)) <= {"thm5.4.witness", "lem5.5"}


@pytest.mark.xfail(strict=True,
                   reason="over a base of dimension > 1 thm5.4.witness and lem5.5 "
                          "fail: a comodule with an induced right action is checked "
                          "for rho(m.a) = m(-1) (x) m(0).a, where the Takeuchi "
                          "condition gives rho(m.a) = t(a)m(-1) (x) m(0)")
def test_opposite_smash_suite_has_no_failing_row(opposite_suites):
    for field in ("Q", "GF101"):
        assert _failing_rows(opposite_suites("EX-SMASH", field)) == [], field
