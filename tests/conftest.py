import pytest

from torsorkit.analysis import BundleAnalysis
from torsorkit.fixtures import generate

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
