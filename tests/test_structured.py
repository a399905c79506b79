"""Structured tensor operators at their call sites.

Each product that the engine evaluates through ``linalg.kron_apply`` or
builds from column supports is compared with the dense Kronecker
expression it replaced, which lives on here only as the reference.  The last test shows
that the structured ``bgd.delta-multiplicative`` identity can still fail.
"""

import math

from hypothesis import given, settings, strategies as st

from torsorkit.algebra import Algebra, _carrier_leg_map, _relation_columns
from torsorkit.bialgebroid import (
    _diagonal_coactions_raw,
    _factorwise_product,
    _factorwise_product_mixed,
)
from torsorkit.fields import GF, QQ
from torsorkit.linalg import Matrix, permute_cols, permute_rows
from torsorkit.spaces import LinearMap

from conftest import fixture


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
        assert _factorwise_product(cc, alg) == want
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


def test_diagonal_coactions_match_dense():
    for name in ("EX-SW", "EX-Q3"):
        b = fixture(name).bundle
        two_tau = permute_rows(b.tau_raw.kron(b.tau_raw), [b.T.dim] * 6,
                               (0, 3, 4, 1, 2, 5))
        right, left = _diagonal_coactions_raw(b)
        assert right == b.idT.kron(b.idT).kron(b.mu).kron(b.mu) @ two_tau
        assert left == b.mu.kron(b.mu).kron(b.idT).kron(b.idT) @ two_tau


def _square(field, side):
    return st.lists(st.lists(st.one_of(st.integers(-3, 3), st.just(0)),
                             min_size=side, max_size=side),
                    min_size=side, max_size=side).map(
        lambda rows: Matrix(field, [tuple(field.from_int(x) for x in r) for r in rows], side))


@st.composite
def relation_case(draw):
    """Two or three legs, two of them acted on: ``lifted``/``mj`` of a chain
    step are legs 0 and 1 of two, a non-adjacent link legs 0 and 2 of three."""
    field = draw(st.sampled_from([QQ, GF(101)]))
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    i = draw(st.integers(0, len(dims) - 2))
    j = draw(st.integers(i + 1, len(dims) - 1))
    return field, dims, i, draw(_square(field, dims[i])), j, draw(_square(field, dims[j]))


def _dense_leg_map(field, dims, pos, m):
    left = Matrix.identity(field, math.prod(dims[:pos]))
    return left.kron(m).kron(Matrix.identity(field, math.prod(dims[pos + 1:])))


@given(relation_case())
@settings(max_examples=80, deadline=None)
def test_relation_columns_match_dense(case):
    field, dims, i, mi, j, mj = case
    gen = _dense_leg_map(field, dims, i, mi) - _dense_leg_map(field, dims, j, mj)
    want = [c for c in gen.cols() if any(not field.is_zero(x) for x in c)]
    assert _relation_columns(field, dims, i, mi, j, mj) == want


def test_carrier_leg_maps_match_dense(ex_smash):
    """The outer actions of a chain: a map on its first or last leg, seen on
    the carrier of EX-SMASH's threefold balanced tensor."""
    chain = ex_smash.bundle.X3
    f = chain.carrier.field
    dims = [s.dim for s in chain.factor_spaces]
    for pos in (0, len(dims) - 1):
        m = Matrix(f, [tuple(f.from_int((3 * r + 5 * c) % 7 - 3) for c in range(dims[pos]))
                       for r in range(dims[pos])])
        want = chain.proj.matrix @ _dense_leg_map(f, dims, pos, m) @ chain.sect.matrix
        assert _carrier_leg_map(chain, pos, m).matrix == want


def test_perturbed_d_product_breaks_delta_multiplicativity(an_smash):
    """One changed structure constant of EX-SMASH's D product must make
    ``Delta . m == (m (x) m)-on-pairs . (Delta (x) Delta)`` false."""
    D = an_smash.pair.D
    D_alg = an_smash.bialgebroids[1].algebra
    f = D.field
    delta = D.delta.matrix
    delta2 = delta.kron(delta)

    def delta_multiplicative(alg):
        return delta @ alg.mult.matrix == _factorwise_product(D.cc, alg) @ delta2

    assert delta_multiplicative(D_alg)
    rows = [list(r) for r in D_alg.mult.matrix.rows]
    i, j = next((i, j) for i, r in enumerate(rows) for j, x in enumerate(r)
                if not f.is_zero(x))
    rows[i][j] = f.add(rows[i][j], f.one)
    mult = LinearMap(D_alg.mult.domain, D_alg.space, Matrix(f, rows))
    perturbed = Algebra(D_alg.space, mult, D_alg.unit, "D'", check=False)
    assert not delta_multiplicative(perturbed)
