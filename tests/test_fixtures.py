import importlib.util
from pathlib import Path

import pytest

from torsorkit import fixtures
from torsorkit.errors import TorsorKitError, UnknownFixture
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import (
    _EXPECTED,
    FIXTURE_NAMES,
    _check_expected,
    _oracle_dims,
    generate,
    group_hopf,
    oracle_check_hopf,
    sweedler_hopf,
)
from torsorkit.linalg import Matrix
from torsorkit.pretorsor import build_corings, validate_pretorsor
from torsorkit.serialize import dumps
from torsorkit.spaces import Space, Subspace, intersect, quotient

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        generate("EX-NOPE")


def test_oracle_validates_hopf_structures():
    for h in (group_hopf(QQ, 2, "c2"), group_hopf(QQ, 4, "c4"),
              sweedler_hopf(QQ)):
        oracle_check_hopf(QQ, h.algebra.mult.matrix, h.algebra.unit,
                          h.delta, h.eps, h.antipode)


def test_oracle_rejects_broken_antipode():
    h = sweedler_hopf(QQ)
    rows = [list(r) for r in h.antipode.rows]
    rows[3][2] = QQ.neg(rows[3][2])
    with pytest.raises(TorsorKitError):
        oracle_check_hopf(QQ, h.algebra.mult.matrix, h.algebra.unit,
                          h.delta, h.eps, Matrix(QQ, rows, 4))


def test_all_fixtures_generate_and_validate():
    for name in FIXTURE_NAMES:
        fx = generate(name)
        assert validate_pretorsor(fx.bundle).ok
        assert fx.oracle_report["dim_C"] >= 1


def test_oracle_dims_match_engine(ex_c2, an_c2):
    pair = an_c2.pair
    assert ex_c2.oracle_report["dim_C"] == pair.C.dim
    assert ex_c2.oracle_report["dim_D"] == pair.D.dim
    assert ex_c2.oracle_report["dim_Tbar"] == an_c2.tbar.dim


def test_q3_cyclic_fixture():
    fx = generate("EX-Q3")
    assert fx.bundle.T.dim == 3
    pair = build_corings(fx.bundle)
    assert pair.C.dim == 3 and pair.D.dim == 3


def test_gf_generation_matches_dims():
    fxq = generate("EX-C2")
    fxp = generate("EX-C2", GF(101))
    assert fxq.oracle_report == fxp.oracle_report


def test_relabelling_changes_nothing():
    # verdicts and dimensions do not depend on basis-label strings
    from torsorkit.fixtures import group_algebra, field_algebra, unit_algebra_map, hopf_torsor_tau, group_hopf
    from torsorkit.pretorsor import make_bundle
    h = group_hopf(QQ, 2, "renamed")
    h.algebra.space.labels = tuple(["apple", "pear"])  # cosmetic only
    kA, kB = field_algebra(QQ), field_algebra(QQ)
    bundle = make_bundle(kA, kB, h.algebra, unit_algebra_map(kA, h.algebra),
                         unit_algebra_map(kB, h.algebra),
                         hopf_torsor_tau(h), "relabel", torsor=True)
    assert validate_pretorsor(bundle).ok
    pair = build_corings(bundle)
    assert pair.C.dim == 2 and pair.D.dim == 2


def test_gf2_smoke():
    # small characteristic smoke: dimensions survive reduction mod 2
    fx = generate("EX-C2", GF(2))
    assert fx.oracle_report["dim_C"] == 2
    assert validate_pretorsor(fx.bundle).ok
    pair = build_corings(fx.bundle)
    assert pair.C.dim == 2 and pair.D.dim == 2


# The oracle's former per-value forms, kept as the reference for its sparse
# one: relation generators found by scanning every dense column of the
# difference, per-element actions assembled from images of unit vectors, and
# the T-bar spans built as dense vectors of length n^3.


def _relations_by_apply(field, n, act_right, act_left, rdim):
    rows = []
    for r in range(rdim):
        mi_cols = []
        for t in range(n):
            vec = [field.zero] * (n * rdim)
            vec[t * rdim + r] = field.one
            mi_cols.append(act_right.apply(tuple(vec)))
        mj_cols = []
        for t in range(n):
            vec = [field.zero] * (rdim * n)
            vec[r * n + t] = field.one
            mj_cols.append(act_left.apply(tuple(vec)))
        rows.append((Matrix.from_cols(field, mi_cols, n), Matrix.from_cols(field, mj_cols, n)))
    return rows


def _quotient_by_columns(field, leg_dims, links):
    total = 1
    for d in leg_dims:
        total *= d
    amb = Space(field, total, "oracle-amb")
    gen_rows = []
    for (pos, act_r, act_l, rdim) in links:
        n1, n2 = leg_dims[pos], leg_dims[pos + 1]
        left = 1
        for d in leg_dims[:pos]:
            left *= d
        right = 1
        for d in leg_dims[pos + 2:]:
            right *= d
        for mi, mj in _relations_by_apply(field, n1, act_r, act_l, rdim):
            gi = Matrix.identity(field, left).kron(mi).kron(
                Matrix.identity(field, n2 * right))
            gj = Matrix.identity(field, left * n1).kron(mj).kron(
                Matrix.identity(field, right))
            diff = gi - gj
            for j in range(total):
                col = diff.col(j)
                if any(not field.is_zero(x) for x in col):
                    gen_rows.append(col)
    return quotient(amb, Subspace.from_spanning(amb, gen_rows))


def _reference_oracle(field, T, alpha, beta, tau_raw, adim, bdim):
    """The oracle in its per-value form: its dims, its four quotients and
    the spans of C (x) T and T (x) D in the T-bar carrier."""
    n = T.dim
    m = T.mult.matrix
    idn = Matrix.identity(field, n)
    unit_col = Matrix(field, [(x,) for x in T.unit], 1)
    ract_alpha, lact_alpha = m @ idn.kron(alpha), m @ alpha.kron(idn)
    ract_beta, lact_beta = m @ idn.kron(beta), m @ beta.kron(idn)
    quotients = [
        _quotient_by_columns(field, [n, n], [(0, ract_beta, lact_beta, bdim)]),
        _quotient_by_columns(field, [n, n], [(0, ract_alpha, lact_alpha, adim)]),
        _quotient_by_columns(field, [n, n, n], [(0, ract_alpha, lact_alpha, adim),
                                                 (1, ract_beta, lact_beta, bdim)]),
        _quotient_by_columns(field, [n, n, n], [(0, ract_beta, lact_beta, bdim),
                                                 (1, ract_alpha, lact_alpha, adim)])]
    (q2b, _, s2b), (q2a, _, s2a), (_, p3, _), (q3bar, p3bar, _) = quotients
    omega_c = p3.matrix @ (m.kron(idn).kron(idn) @ idn.kron(tau_raw)
                           - unit_col.kron(idn).kron(idn)) @ s2b.matrix
    C_basis = Matrix(field, omega_c.kernel_basis() or [], q2b.dim)
    omega_d = p3.matrix @ (idn.kron(idn).kron(m) @ tau_raw.kron(idn)
                           - idn.kron(idn).kron(unit_col)) @ s2a.matrix
    D_basis = Matrix(field, omega_d.kernel_basis() or [], q2a.dim)
    ct_cols = []
    for i in range(C_basis.nrows):
        rep = s2b.apply(C_basis.row(i))
        for t in range(n):
            vec = [field.zero] * (n ** 3)
            for j, x in enumerate(rep):
                vec[j * n + t] = x
            ct_cols.append(p3bar.apply(tuple(vec)))
    td_cols = []
    for i in range(D_basis.nrows):
        rep = s2a.apply(D_basis.row(i))
        for t in range(n):
            vec = [field.zero] * (n ** 3)
            for j, x in enumerate(rep):
                vec[t * n * n + j] = x
            td_cols.append(p3bar.apply(tuple(vec)))
    spans = [Subspace.from_spanning(q3bar, ct_cols), Subspace.from_spanning(q3bar, td_cols)]
    cond2 = p3.matrix @ (m.kron(idn).kron(idn) @ idn.kron(tau_raw)) @ s2b.matrix \
        - p3.matrix @ unit_col.kron(s2b.matrix)
    dim_omega = len(Matrix.stack_rows([m @ s2b.matrix, cond2]).kernel_basis())
    dims = {"dim_C": C_basis.nrows, "dim_D": D_basis.nrows,
            "dim_Tbar": intersect(spans).dim, "dim_Omega1A": dim_omega}
    return dims, quotients, spans


def _oracle_inputs(monkeypatch, name, field):
    """The arguments ``generate`` hands ``_oracle_dims`` for one fixture."""
    seen = []

    def record(*args):
        seen.append(args)
        return _oracle_dims(*args)

    with monkeypatch.context() as mp:
        mp.setattr(fixtures, "_oracle_dims", record)
        generate(name, field)
    (args,) = seen
    return args


def _traced_oracle(monkeypatch, args):
    """``_oracle_dims(*args)``, its four quotients and its two T-bar spans."""
    quotients, spans = [], []
    naive_quotient = fixtures._naive_quotient

    def traced_quotient(*qargs):
        quotients.append(naive_quotient(*qargs))
        return quotients[-1]

    class TracedSubspace:
        @staticmethod
        def from_spanning(ambient, vectors):
            spans.append(Subspace.from_spanning(ambient, vectors))
            return spans[-1]

    with monkeypatch.context() as mp:
        mp.setattr(fixtures, "_naive_quotient", traced_quotient)
        mp.setattr(fixtures, "Subspace", TracedSubspace)
        dims = _oracle_dims(*args)
    # each quotient spans its relations once; the last two spans are T-bar's
    return dims, quotients, spans[len(quotients):]


def _same_subspace(a, b):
    return (a.dim, a.pivots, a.inclusion.matrix) == (b.dim, b.pivots, b.inclusion.matrix)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2), GF(3)], ids=str)
def test_sparse_oracle_matches_its_per_value_form(monkeypatch, field):
    """On every fixture the oracle's sparse relation and T-bar spans give
    the per-value form's quotients (carrier dimension, ``proj`` and
    ``sect``), the same spans of C (x) T and T (x) D and the same dims."""
    for name in FIXTURE_NAMES:
        args = _oracle_inputs(monkeypatch, name, field)
        dims, quotients, spans = _traced_oracle(monkeypatch, args)
        ref_dims, ref_quotients, ref_spans = _reference_oracle(*args)
        assert dims == ref_dims == _EXPECTED[name], name
        assert len(quotients) == len(ref_quotients) == 4 and len(spans) == 2
        for (q, p, s), (rq, rp, rs) in zip(quotients, ref_quotients):
            assert (q.dim, p.matrix, s.matrix) == (rq.dim, rp.matrix, rs.matrix), name
        assert all(_same_subspace(a, b) for a, b in zip(spans, ref_spans)), name


def test_oracle_rejects_a_scaled_tau(monkeypatch):
    """With EX-SW's tau scaled by 2 both forms of the oracle give the same
    dims, which disagree with the stored expectations, so generation would
    raise."""
    field, T, alpha, beta, tau_raw, adim, bdim = _oracle_inputs(monkeypatch, "EX-SW", QQ)
    args = (field, T, alpha, beta, tau_raw.scale(2), adim, bdim)
    dims = _oracle_dims(*args)
    assert dims == _reference_oracle(*args)[0]
    assert dims != _EXPECTED["EX-SW"]
    with pytest.raises(TorsorKitError):
        _check_expected("EX-SW", dims)


def test_ladder_cyclic_recipe_is_the_ex_q4_fixture():
    """The ladder's cyclic rungs rest on one recipe: at n = 4 and named
    EX-Q4 it gives the same validate, build, bialgebroid and diffcalc
    report bytes as the fixture EX-Q4."""
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)

    def docs(bundle):
        return [dumps(r.to_json()) for r in ladder.reports(bundle)]

    assert docs(ladder._cyclic(4, "EX-Q4")) == docs(generate("EX-Q4").bundle)
