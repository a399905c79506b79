import argparse
import functools

import pytest

from torsorkit.algebra import AlgebraMap, opposite
from torsorkit.analysis import BundleAnalysis
from torsorkit.cli import run
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import generate
from torsorkit.linalg import Matrix, permute_cols, permute_rows
from torsorkit.pretorsor import TorsorBundle, make_bundle
from torsorkit.serialize import bundle_to_document, dumps
from torsorkit.spaces import LinearMap

FIELDS = {"Q": QQ, "GF101": GF(101)}


def join_left(maps) -> Matrix:
    """The left action matrix on ``L (x) M`` whose i-th fixed map is
    ``maps[i]``: the blocks side by side."""
    return functools.reduce(Matrix.augment, maps)


def join_right(maps) -> Matrix:
    """The right action matrix on ``M (x) R`` whose i-th fixed map is
    ``maps[i]``: ``join_left`` with its two column legs swapped."""
    return permute_cols(join_left(maps), [maps[0].ncols, len(maps)], (1, 0))


_FIXTURES = {}
_ANALYSES = {}


def fixture(name, field=None):
    key = (name, getattr(field, "name", "Q"))
    if key not in _FIXTURES:
        _FIXTURES[key] = generate(name) if field is None else generate(name, field)
    return _FIXTURES[key]


def analysis(name, field=None):
    key = (name, getattr(field, "name", "Q"))
    if key not in _ANALYSES:
        _ANALYSES[key] = BundleAnalysis(fixture(name, field).bundle)
    return _ANALYSES[key]


@pytest.fixture(scope="session")
def ex_triv():
    return fixture("EX-TRIV")


@pytest.fixture(scope="session")
def ex_c2():
    return fixture("EX-C2")


@pytest.fixture(scope="session")
def ex_sw():
    return fixture("EX-SW")


@pytest.fixture(scope="session")
def ex_m2():
    return fixture("EX-M2")


@pytest.fixture(scope="session")
def ex_smash():
    return fixture("EX-SMASH")


@pytest.fixture(scope="session")
def an_triv():
    return analysis("EX-TRIV")


@pytest.fixture(scope="session")
def an_c2():
    return analysis("EX-C2")


@pytest.fixture(scope="session")
def an_sw():
    return analysis("EX-SW")


@pytest.fixture(scope="session")
def an_m2():
    return analysis("EX-M2")


@pytest.fixture(scope="session")
def an_smash():
    return analysis("EX-SMASH")


def opposite_bundle(b):
    """The opposite bundle: T^op with A' = B^op, B' = A^op, alpha' = beta,
    beta' = alpha, and tau with its three legs in reverse order.  Its right
    coring sits over B^op, so a fixture with dim B > 1 gives a right
    bialgebroid over a base of dimension > 1."""
    n = b.T.dim
    T, A, B = opposite(b.T), opposite(b.B), opposite(b.A)
    alpha = AlgebraMap(A, T, LinearMap(A.space, T.space, b.beta.map.matrix))
    beta = AlgebraMap(B, T, LinearMap(B.space, T.space, b.alpha.map.matrix))
    return make_bundle(A, B, T, alpha, beta, permute_rows(b.tau_raw, [n] * 3, (2, 1, 0)),
                       name=f"{b.name}^op", torsor=isinstance(b, TorsorBundle))


def opposite_document(name, field):
    """The document of fixture ``name``'s opposite bundle over the field
    named ``field`` ("Q" or "GF101")."""
    return dumps(bundle_to_document(opposite_bundle(generate(name, FIELDS[field]).bundle)))


def suite_on_document(text, path):
    """The ``suite`` report of a bundle document, written to ``path`` and
    loaded the way ``--input FILE`` loads it."""
    path.write_text(text, encoding="utf-8")
    return run("suite", argparse.Namespace(fixture=None, input=str(path), field=None,
                                           dump_matrices=False))[1]


@pytest.fixture(scope="session")
def opposite_suites(tmp_path_factory):
    """``suite`` on the opposite bundle of a fixture over a field, run once
    per pair for the whole session."""
    reports = {}

    def get(name, field):
        if (name, field) not in reports:
            path = tmp_path_factory.mktemp("opposite") / f"{name}-{field}.json"
            reports[name, field] = suite_on_document(opposite_document(name, field), path)
        return reports[name, field]

    return get
