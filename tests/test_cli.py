import argparse
import copy
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from torsorkit.cli import main, run
from torsorkit.fields import GF, QQ
from torsorkit.fixtures import generate
from torsorkit.linalg import Matrix
from torsorkit.pretorsor import make_bundle
from torsorkit.serialize import (
    bundle_from_document,
    bundle_to_document,
    dumps,
    loads,
)

ROOT = Path(__file__).resolve().parent.parent


def test_export_import_byte_stable(tmp_path):
    fx = generate("EX-C2")
    doc = bundle_to_document(fx.bundle)
    text = dumps(doc)
    bundle2 = bundle_from_document(loads(text))
    text2 = dumps(bundle_to_document(bundle2))
    assert text == text2


def test_import_validates(tmp_path):
    fx = generate("EX-C2")
    doc = bundle_to_document(fx.bundle)
    bundle2 = bundle_from_document(doc)
    from torsorkit.pretorsor import validate_pretorsor
    assert validate_pretorsor(bundle2).ok
    # structural parse failure carries a JSON pointer
    from torsorkit.errors import DocumentError
    bad = dict(doc)
    bad["maps"] = {"alpha": [["1"]], "beta": [["1"]], "tau": [["1"]]}
    with pytest.raises(DocumentError) as err:
        bundle_from_document(bad)
    assert err.value.pointer.startswith("/maps")


def test_cli_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", "--fixture", "EX-C2"]) == 0
    out = capsys.readouterr().out
    assert "def3.1.a" in out and "0 failed" in out
    # a perturbed structure map fails with a localized witness
    fx = generate("EX-C2")
    b = fx.bundle
    rows = [list(r) for r in b.tau_raw.rows]
    rows[0][1] = b.field.add(rows[0][1], b.field.one)
    mutated = make_bundle(b.A, b.B, b.T, b.alpha, b.beta,
                          Matrix(b.field, rows, b.T.dim), "mut")
    from torsorkit.serialize import bundle_to_document, dumps
    path = tmp_path / "mut.json"
    path.write_text(dumps(bundle_to_document(mutated)))
    assert main(["validate", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", "--input", str(path)]) == 2
    assert main(["validate", "--fixture", "EX-NOPE"]) == 2


def test_cli_fixture_export_and_gf(capsys):
    assert main(["fixture", "EX-TRIV", "--field", "GF101"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"] == {"GF": 101}


def test_cli_suite_triv(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["suite", "--fixture", "EX-TRIV", "--json", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    ids = {c["id"] for c in report["checks"]}
    assert "def3.1.a" in ids
    assert any(i.startswith("thm4.4") for i in ids)
    assert all(c["status"] != "fail" for c in report["checks"])
    assert all("paper_ref" in c for c in report["checks"])


def test_report_three_valued_statuses():
    from torsorkit.report import Report
    rep = Report("r")
    rep.add("a", "x", True)
    rep.add("b", "x", True, certified=False)
    rep.add("c", "x", False, witness="w")
    statuses = [c.status for c in rep.checks]
    assert statuses == ["pass", "hypothesis-uncertified", "fail"]
    assert not rep.ok
    doc = rep.to_json()
    assert doc["checks"][2]["witnesses"] == ["w"]


def test_alpha_not_injective_rejected():
    from torsorkit.algebra import AlgebraMap, make_algebra
    from torsorkit.errors import AlphaNotInjective
    from torsorkit.fields import QQ
    from torsorkit.fixtures import field_algebra, unit_algebra_map
    from torsorkit.pretorsor import build_corings, make_bundle, validate_pretorsor
    from torsorkit.linalg import Matrix
    from torsorkit.spaces import LinearMap
    # A = Q x Q mapping onto the first coordinate of T = Q
    A = make_algebra(QQ, 2, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1], "QxQ")
    T = field_algebra(QQ)
    B = field_algebra(QQ)
    alpha = AlgebraMap(A, T, LinearMap(A.space, T.space,
                                       Matrix.from_rows(QQ, [[1, 0]])))
    beta = unit_algebra_map(B, T)
    bundle = make_bundle(A, B, T, alpha, beta, Matrix.from_rows(QQ, [[1]]),
                         "degenerate")
    assert validate_pretorsor(bundle).ok
    import pytest as _pytest
    with _pytest.raises(AlphaNotInjective):
        build_corings(bundle)


@pytest.mark.parametrize("path, value, pointer", [
    (("field",), {"GF": "x"}, "/field"),
    (("field",), {"GF": 7.5}, "/field"),
    (("field",), {"GF": 4}, "/field"),
    (("bundle", "torsor"), "yes", "/bundle/torsor"),
    (("bundle", "name"), 7, "/bundle/name"),
    (("bundle",), ["torsor"], "/bundle"),
    (("bundle",), [], "/bundle"),
    (("bundle",), "", "/bundle"),
    (("bundle",), 0, "/bundle"),
    (("bundle",), False, "/bundle"),
    (("bundle",), None, "/bundle"),
])
def test_malformed_field_and_metadata_exit_2(tmp_path, capsys, path, value, pointer):
    _assert_exit_2_at(tmp_path, capsys, path, value, pointer)


def _write_bad_doc(tmp_path, path, value, field=None, fixture="EX-C2"):
    """A fixture's document, EX-C2's unless ``fixture`` is given, over Q
    unless ``field`` is given, with ``value`` put at ``path``, written to a
    file whose path is returned."""
    fx = generate(fixture) if field is None else generate(fixture, field)
    doc = copy.deepcopy(bundle_to_document(fx.bundle))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(dumps(doc))
    return doc_path


def _assert_exit_2_at(tmp_path, capsys, path, value, pointer, field=None, fixture="EX-C2"):
    """A fixture's document (EX-C2's by default) with ``value`` put at
    ``path`` exits 2 at ``pointer``."""
    doc_path = _write_bad_doc(tmp_path, path, value, field, fixture)
    assert main(["validate", "--input", str(doc_path)]) == 2
    assert f"error: {pointer}: " in capsys.readouterr().err


SC = ("algebras", "T", "structure_constants")


@pytest.mark.parametrize("path, value, pointer", [
    (SC + (0,), [0, 0, 0], "/algebras/T/structure_constants/0"),
    (SC + (1,), [0, 1, 1, "1", "2"], "/algebras/T/structure_constants/1"),
    (SC + (0,), "0001", "/algebras/T/structure_constants/0"),
    (SC + (0, 0), "0", "/algebras/T/structure_constants/0"),
    (SC + (0, 1), 0.0, "/algebras/T/structure_constants/0"),
    (SC + (0, 2), True, "/algebras/T/structure_constants/0"),
    (SC, {"0": [0, 0, 0, "1"]}, "/algebras/T/structure_constants"),
    (("algebras", "T", "unit"), 5, "/algebras/T/unit"),
    (("algebras", "T", "unit"), ["1"], "/algebras/T/unit"),
    (("algebras", "T", "dim"), "2", "/algebras/T/dim"),
    (("algebras", "T", "dim"), 2.0, "/algebras/T/dim"),
    (("algebras", "T", "dim"), True, "/algebras/T/dim"),
    (("algebras", "T", "basis_labels"), 5, "/algebras/T/basis_labels"),
    (("algebras", "T", "basis_labels"), [0, 1], "/algebras/T/basis_labels"),
    (("algebras", "B"), [], "/algebras/B"),
    # indices out of range, label lists of the wrong size or repeated, a negative dim
    (SC + (2, 0), 2, "/algebras/T/structure_constants/2"),
    (SC + (1, 2), -1, "/algebras/T/structure_constants/1"),
    (("algebras", "A", "structure_constants", 0, 1), 1, "/algebras/A/structure_constants/0"),
    (("algebras", "T", "basis_labels"), ["e"], "/algebras/T/basis_labels"),
    (("algebras", "T", "basis_labels"), ["e", "g", "h"], "/algebras/T/basis_labels"),
    (("algebras", "T", "basis_labels"), ["e", "e"], "/algebras/T/basis_labels"),
    (("algebras", "T", "dim"), -1, "/algebras/T/dim"),
])
def test_malformed_algebra_exit_2(tmp_path, capsys, path, value, pointer):
    """Structure constants, units, dims and labels are type-checked, and
    indices and label lists range-checked, at the parser: a bad entry exits
    2 with a pointer to it, never a traceback or a silent conversion."""
    _assert_exit_2_at(tmp_path, capsys, path, value, pointer)


@pytest.mark.parametrize("labels, pointer", [
    (["a", "c", "a|b", "b|c"], "/algebras/T/basis_labels/2"),
    (["a", "b", "c", "a|b"], "/algebras/T/basis_labels/3"),
    (["x", "y", "z", "w|"], "/algebras/T/basis_labels/3"),
])
def test_a_label_with_the_tensor_separator_exits_2(tmp_path, capsys, labels, pointer):
    """EX-Q4 with T relabelled: a label may not contain "|", which joins
    the labels of a tensor product, so the first such label exits 2 with a
    pointer to it.  Otherwise the first two documents are refused with a
    wrong message (the labels of T (x) T collide) and the third is accepted
    with ambiguous product labels."""
    _assert_exit_2_at(tmp_path, capsys, ("algebras", "T", "basis_labels"), labels, pointer,
                      fixture="EX-Q4")


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("path, value, pointer", [
    (("algebras", "T", "unit", 0), True, "/algebras/T"),
    (("algebras", "T", "unit", 1), False, "/algebras/T"),
    (SC + (3, 3), True, "/algebras/T"),
    (("algebras", "A", "structure_constants", 0, 3), True, "/algebras/A"),
    (("maps", "alpha", 0, 0), True, "/maps/alpha"),
    (("maps", "beta", 1, 0), False, "/maps/beta"),
    (("maps", "tau", 0, 1), False, "/maps/tau"),
])
def test_boolean_scalars_exit_2(tmp_path, capsys, field, path, value, pointer):
    """JSON ``true``/``false`` is not a scalar: in a unit, a structure
    constant value or a map entry it exits 2 with a pointer.  Each boolean
    replaces an entry of the same numeric value, so only its type is
    wrong."""
    _assert_exit_2_at(tmp_path, capsys, path, value, pointer, field)


@pytest.mark.parametrize("field", [None, GF(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("path, pointer", [
    (("maps", "tau", 0, 0), "/maps/tau"),
    (SC + (3, 3), "/algebras/T"),
])
def test_exponent_literals_exit_2_at_once(tmp_path, capsys, field, path, pointer):
    """A scalar is a literal as ``to_str`` writes it: ``1e10000000`` would
    parse into a 33M-bit integer, so it exits 2 with a pointer, at once."""
    doc_path = _write_bad_doc(tmp_path, path, "1e10000000", field)
    start = time.perf_counter()
    assert main(["validate", "--input", str(doc_path)]) == 2
    assert time.perf_counter() - start < 5.0
    assert f"error: {pointer}: " in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["GFx", "GF", "GF4", "GF-7"])
def test_malformed_cli_field_exit_2(capsys, spec):
    assert main(["validate", "--fixture", "EX-TRIV", "--field", spec]) == 2
    assert "error: /field: " in capsys.readouterr().err


DOC = "<the document path>"


@pytest.mark.parametrize("doc_field, argv, pointer, says", [
    ("Q", ["validate", "--input", DOC, "--field", "GF101"], "/field", "disagrees"),
    ("GF101", ["validate", "--input", DOC, "--field", "Q"], "/field", "disagrees"),
    ("GF101", ["validate", "--input", DOC, "--field", "GF2"], "/field", "disagrees"),
    ("Q", ["validate", "--input", DOC, "--fixture", "EX-C2"], "/", "two inputs"),
    ("GF101", ["validate", "--input", DOC, "--fixture", "EX-C2", "--field", "GF101"], "/",
     "two inputs"),
    (None, ["validate", "--input", DOC, "--fixture", "EX-C2"], "/", "two inputs"),
    (None, ["fixture", "EX-C2", "--fixture", "EX-TRIV"], "/", "two inputs"),
    (None, ["fixture", "EX-C2", "--input", DOC], "/", "two inputs"),
    (None, ["validate", "EX-C2", "--fixture", "EX-TRIV"], "/", "two inputs"),
    (None, ["fixture"], "/", "needs a fixture NAME"),
], ids=["Q-doc-GF101", "GF101-doc-Q", "GF101-doc-GF2", "fixture-and-input",
        "fixture-field-and-input", "fixture-and-missing-input",
        "name-and-fixture", "name-and-missing-input", "validate-name-and-fixture",
        "fixture-without-name"])
def test_conflicting_sources_exit_2(tmp_path, capsys, doc_field, argv, pointer, says):
    """A ``--field`` that disagrees with the ``--input`` document's field,
    or two of the positional name, ``--fixture`` and ``--input`` (even a
    missing file), exits 2, and so does the fixture command without a name;
    a ``--field`` that agrees with the document runs."""
    path = tmp_path / "doc.json"
    if doc_field is not None:
        field = QQ if doc_field == "Q" else GF(int(doc_field[2:]))
        path.write_text(dumps(bundle_to_document(generate("EX-C2", field).bundle)))
    assert main([str(path) if arg == DOC else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"error: {pointer}: " in err and says in err
    if doc_field is not None:
        assert main(["validate", "--input", str(path), "--field", doc_field]) == 0


REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(REFERENCE), ids=lambda key: key.removesuffix("@Q"))
def test_suite_report_bytes_match_the_benchmark_reference(key):
    """Every bundle the benchmark gates on, over the field it is recorded
    for, gives the recorded report bytes."""
    name, _, field = key.partition("@")
    args = argparse.Namespace(fixture=name, input=None, field=field,
                              dump_matrices=False)
    _, doc = run("suite", args)
    digest = hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()
    assert digest == REFERENCE[key]["digest"]


# suite report digests for the GF(101) runs that perfbench/reference.json
# does not record; EX-SMASH is the one GF(p) bialgebroid over a base of
# dimension above 1
GF101_SUITE_DIGESTS = {
    "EX-TRIV": "24963025f913eb8224df776bbcff3b48547da45f7668d9267ac5b04aa09087b9",
    "EX-C2": "3673183cad0d861ab29aa53c12ec89d22dcefaddb0be2bdfee6003d5934513fb",
    "EX-Q3": "73b1c5acf4cab8da41aaa6ead1bc7a5d94395b0685a87457d134ad0e5e0670bc",
    "EX-SMASH": "1a9b4791fa556f602c9795382e17f13bf48f742d1c80b2c88989f6bf3638eed9",
}


@pytest.mark.parametrize("name", sorted(GF101_SUITE_DIGESTS))
def test_gf101_suite_report_bytes_match_the_recorded_digests(name):
    args = argparse.Namespace(fixture=name, input=None, field="GF101",
                              dump_matrices=False)
    _, doc = run("suite", args)
    digest = hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()
    assert digest == GF101_SUITE_DIGESTS[name]


# suite report digests of every fixture's opposite bundle (conftest's
# opposite_bundle) over both fields; a report names no scalar, so the two
# fields agree.  The EX-SMASH^op digests record its two failing
# right-linearity rows and change when ROADMAP item 5 mends them.
OPPOSITE_SUITE_DIGESTS = {
    "EX-TRIV": "5226001ae49ce915d7cb8fca80d50a3744177539a1a626501e36edc527058292",
    "EX-C2": "63c08ec8b94a3a1cbf2b0291f64a31470436eb2635931b02f9e0b4d6aa0e923e",
    "EX-SW": "959475677dba14942a4906305793f6820768433fe8ecaca35aa6fd363eb4f50f",
    "EX-M2": "1c9292e9e36956e5aa5de3f6e94e7ee9a497ee98c6387747a3748290e0c2531d",
    "EX-SMASH": "e031676615864b408a709f18db38fe50b90bc94a83f0174eb6c348fe437ee034",
    "EX-Q3": "4ddb646ce9f78276ed3654961076187679b015c02d884e76e4709de0f4f9bad8",
    "EX-Q4": "1d3cd0f3ad1e0aa230f840a6efbd0db41d64b80a8b42fffdb0cbebd0da732928",
}


@pytest.mark.parametrize("field", ["Q", "GF101"])
@pytest.mark.parametrize("name", sorted(OPPOSITE_SUITE_DIGESTS))
def test_opposite_suite_report_bytes_match_the_recorded_digests(opposite_suites, name, field):
    """The session's cached opposite-bundle reports, so no analysis runs
    twice."""
    digest = hashlib.sha256(dumps(opposite_suites(name, field)).encode("utf-8")).hexdigest()
    assert digest == OPPOSITE_SUITE_DIGESTS[name]


@pytest.mark.parametrize("path, value", [
    (("maps", "tau", 0), ["1"]),                       # ragged row
    (("maps", "tau", 0), ["1", "0", "0"]),             # too-long row
    (("maps", "alpha"), [["1"]]),                      # missing row
    (("maps", "beta"), [["1", "0"], ["0", "0"]]),      # wrong width
    (("maps", "alpha"), [[], []]),                     # zero-width rows
    (("maps", "tau"), "1"),                            # non-list matrix
    (("maps", "alpha", 0), "1"),                       # non-list row
    (("maps", "tau", 0, 0), ["1"]),                    # nested-list entry
])
def test_malformed_map_shapes_exit_2(tmp_path, capsys, path, value):
    """A map of the wrong shape or type exits 2 at ``/maps/<name>``."""
    _assert_exit_2_at(tmp_path, capsys, path, value, f"/maps/{path[1]}")


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "absent.json")]) == 2
    assert "error: /: " in capsys.readouterr().err


def test_directory_as_input_exits_2(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path)]) == 2
    assert "error: /: " in capsys.readouterr().err


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"field": "\xe9"}')
    assert main(["validate", "--input", str(path)]) == 2
    assert "error: /: " in capsys.readouterr().err


def test_unwritable_json_target_exits_2_before_the_analysis(tmp_path, capsys, monkeypatch):
    def no_analysis(*args):
        raise AssertionError("the analysis ran before the --json target was checked")

    monkeypatch.setattr("torsorkit.cli.run", no_analysis)
    target = tmp_path / "missing-dir" / "report.json"
    assert main(["validate", "--fixture", "EX-TRIV", "--json", str(target)]) == 2
    assert "error: /: " in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "torsorkit", "validate", "--fixture", "EX-TRIV"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "0 failed" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "torsorkit", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_a_deeply_nested_document_exits_2_without_a_traceback(tmp_path):
    """200,000 nested lists overflow the JSON parser's recursion; the CLI
    refuses the document at pointer "" instead of raising."""
    doc_path = tmp_path / "deep.json"
    doc_path.write_text("[" * 200_000 + "]" * 200_000)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "torsorkit", "validate", "--input",
                           str(doc_path)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: /: invalid JSON: nested too deeply\n"


def test_importing_the_main_module_does_not_run_the_cli(monkeypatch):
    """Only ``python -m torsorkit`` runs the CLI; an import of
    ``torsorkit.__main__`` leaves the importer's ``sys.argv`` alone."""
    monkeypatch.delitem(sys.modules, "torsorkit.__main__", raising=False)
    monkeypatch.setattr(sys, "argv", ["pytest", "tests/test_cli.py"])
    module = importlib.import_module("torsorkit.__main__")
    assert callable(module.main)


# -- bounded document fuzz ------------------------------------------------

WRONG_VALUES = [None, True, False, 0, -1, 7, 1.5, "", "x", "1/0", "-3/7", [], {}, [0], {"k": 1}]
SCALAR_TEXTS = ["0", "1", "-1", "2", "1/2", "-3/7"]


@st.composite
def mutated_document(draw):
    """EX-C2's document with one entry, reached by a random walk from the
    root, given a wrong type, deleted, duplicated or changed."""
    doc = bundle_to_document(generate("EX-C2").bundle)
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        else:
            break
    kind = draw(st.sampled_from(["type", "delete", "duplicate", "change"]))
    if kind == "delete":
        del node[key]
    elif kind == "duplicate" and isinstance(node, list):
        node.insert(key, copy.deepcopy(child))
    elif kind == "change" and isinstance(child, bool):
        node[key] = not child
    elif kind == "change" and isinstance(child, int):
        node[key] = draw(st.integers(-2, 9))
    elif kind == "change" and isinstance(child, str):
        node[key] = draw(st.sampled_from(SCALAR_TEXTS))
    else:
        node[key] = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
    return doc


@given(mutated_document())
@settings(max_examples=40, deadline=None)
def test_mutated_documents_exit_0_1_or_2(tmp_path_factory, doc):
    """A mutated document is a verdict (0 or 1) or a document error (2),
    never an escaped exception."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(dumps(doc))
    assert main(["validate", "--input", str(path)]) in (0, 1, 2)
