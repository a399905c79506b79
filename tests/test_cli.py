import argparse
import copy
import hashlib
import json
from pathlib import Path

import pytest

from torsorkit.cli import main, run
from torsorkit.fixtures import generate
from torsorkit.linalg import Matrix
from torsorkit.pretorsor import make_bundle
from torsorkit.serialize import (
    bundle_from_document,
    bundle_to_document,
    dumps,
    loads,
)


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


def test_cli_suite_threaded_deterministic(tmp_path, monkeypatch):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("TORSORKIT_THREADS", "1")
    assert main(["suite", "--fixture", "EX-TRIV", "--json", str(p1)]) == 0
    monkeypatch.setenv("TORSORKIT_THREADS", "3")
    assert main(["suite", "--fixture", "EX-TRIV", "--json", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()


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
])
def test_malformed_field_and_metadata_exit_2(tmp_path, capsys, path, value, pointer):
    doc = copy.deepcopy(bundle_to_document(generate("EX-C2").bundle))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(dumps(doc))
    assert main(["validate", "--input", str(doc_path)]) == 2
    assert f"error: {pointer}: " in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["GFx", "GF", "GF4", "GF-7"])
def test_malformed_cli_field_exit_2(capsys, spec):
    assert main(["validate", "--fixture", "EX-TRIV", "--field", spec]) == 2
    assert "error: /field: " in capsys.readouterr().err


@pytest.mark.parametrize("name", ["EX-C2", "EX-Q3"])
def test_suite_report_bytes_match_the_benchmark_reference(name):
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    want = json.loads(reference.read_text(encoding="utf-8"))[f"{name}@Q"]["digest"]
    args = argparse.Namespace(fixture=name, input=None, field=None,
                              dump_matrices=False)
    _, doc = run("suite", args)
    assert hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest() == want
