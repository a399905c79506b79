"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/tests

They check the pieces a benchmark number rests on: the seeded documents,
the suite replica the passes time, and the correctness gate.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import basis_change  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from torsorkit import cli  # noqa: E402
from torsorkit.serialize import dumps  # noqa: E402


def test_generator_is_deterministic():
    for name, field in (("EX-Q3", "Q"), ("EX-SW", "GF101")):
        first = workloads.dense_document_text(name, field, 7)
        assert first == workloads.dense_document_text(name, field, 7)
        assert first != workloads.dense_document_text(name, field, 8)


def test_identity_basis_reproduces_the_native_document():
    for name, field in (("EX-C2", "Q"), ("EX-M2", "Q"), ("EX-SMASH", "Q"),
                        ("EX-Q4", "GF101")):
        native = workloads.native_document(name, field)
        assert basis_change.dumps(basis_change.change_basis(native, {})) == dumps(native)


def test_unimodular_bases_are_dense_and_integral():
    import random
    sc = basis_change._Scalars("Q")
    for n in (2, 3, 4):
        P = basis_change.unimodular(random.Random(n), n)
        Pinv = basis_change.inverse(P, sc)
        assert all(x != 0 for row in P for x in row)
        assert all(x.denominator == 1 for row in Pinv for x in row)


def test_suite_replica_matches_the_cli_bytes():
    args = argparse.Namespace(fixture="EX-C2", input=None, field=None,
                              dump_matrices=False)
    _, want = cli.run("suite", args)
    bundle, fx = worker.load({"fixture": "EX-C2", "field": "Q"})
    _, got = worker.suite_document(bundle, fx)
    assert dumps(got) == dumps(want)


def _dense_pass(tmp_path, seed):
    path = tmp_path / "doc.json"
    path.write_text(workloads.dense_document_text("EX-C2", "Q", seed), encoding="utf-8")
    bundle, fx = worker.load({"input": str(path)})
    tagged, doc = worker.suite_document(bundle, fx)
    return {"checks": worker.check_rows(tagged), "digest": ""}


def test_dense_bundle_passes_the_gate_and_a_flipped_status_fails_it(tmp_path):
    reference = gate.load_reference()["EX-C2@Q"]
    for seed in (1, 2):
        attempted, failed, problems = gate.compare(reference, _dense_pass(tmp_path, seed),
                                                   native=False)
        assert attempted > 0 and failed == 0, problems
    flipped = copy.deepcopy(reference)
    row = next(r for r in flipped["checks"] if r[2] == "pass")
    row[2] = "fail"
    attempted, failed, _ = gate.compare(flipped, _dense_pass(tmp_path, 1), native=False)
    assert failed / attempted > 0


def test_native_byte_mismatch_fails_every_check():
    reference = gate.load_reference()["EX-C2@Q"]
    result = {"checks": copy.deepcopy(reference["checks"]), "digest": "0" * 64}
    attempted, failed, _ = gate.compare(reference, result, native=True)
    assert attempted == failed == len(reference["checks"])


def test_reference_dimensions_agree_with_the_oracle():
    from torsorkit import fixtures
    from torsorkit.cli import _parse_field
    for key, entry in gate.load_reference().items():
        name, _, field = key.partition("@")
        oracle = fixtures.generate(name, _parse_field(field)).oracle_report
        assert gate.oracle_mismatches(entry["checks"], oracle) == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracer.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "verify_s", "checks_per_s", "setup_s", "peak_rss_mb"}
