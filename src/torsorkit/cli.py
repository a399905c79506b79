"""Batch front end.

    torsorkit <command> [--fixture NAME | --input FILE]
                        [--field Q|GFp] [--dump-matrices] [--json OUT]

Commands: validate, build, bialgebroid, twist, diffcalc, fixture, suite.
Exit codes: 0 all checks pass, 1 at least one failed, 2 parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import fixtures as fixture_mod
from .analysis import (
    BundleAnalysis,
    bialgebroid_report,
    build_report,
    diffcalc_report,
    validate_report,
)
from .errors import DocumentError, TorsorKitError, UnknownFixture
from .fields import QQ, field_from_spec
from .report import Report
from .serialize import bundle_from_document, bundle_to_document, dumps, loads


def _parse_field(text):
    if text in (None, "Q"):
        return QQ
    if text.startswith("GF"):
        try:
            return field_from_spec({"GF": text[2:].lstrip("=")})
        except TorsorKitError as exc:
            raise DocumentError(str(exc), "/field") from exc
    raise DocumentError(f"unrecognised field {text!r}", "/field")


def _source_field(args):
    """The ``--field`` of a run, once the positional name, ``--fixture`` and
    ``--input`` are known not to name two sources.  A caller's namespace
    may have no positional name."""
    given = [flag for flag, value in (("the positional NAME", getattr(args, "name", None)),
                                      ("--fixture", args.fixture),
                                      ("--input", args.input)) if value]
    if len(given) > 1:
        raise DocumentError(f"{given[0]} and {given[1]} name two inputs; give one", "")
    return _parse_field(args.field)


def _load_bundle(args):
    field = _source_field(args)
    if args.fixture:
        fx = fixture_mod.generate(args.fixture, field)
        return fx.bundle, fx
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {args.input}: {exc.strerror}", "") from exc
        except UnicodeDecodeError as exc:
            raise DocumentError(f"{args.input} is not UTF-8: {exc.reason}", "") from exc
        bundle = bundle_from_document(loads(text))
        if args.field is not None and bundle.field is not field:
            raise DocumentError(f"--field {args.field} disagrees with the document's "
                                f"field {bundle.field.name}", "/field")
        return bundle, None
    raise DocumentError("need --fixture NAME or --input FILE", "")


def _open_report(path):
    """The ``--json`` target, opened before the analysis runs, so a path
    that cannot be written is a document error, not a lost report."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror}", "") from exc


def _twist_report(bundle, fx) -> Report:
    from .cleft_twist import (
        cleft_iso_check,
        smash_comparison,
        twist_data_for_fixture,
        twisted_bialgebroid,
    )

    rep = Report(f"{bundle.name}:twist")
    if fx is None or fx.hopf is None:
        rep.add("twist.inputs", "A.1", False,
                witness="no Hopf data on this input")
        return rep
    try:
        inp, rho_raw, j_raw, jt_raw, antipode = twist_data_for_fixture(fx, bundle)
        tw = twisted_bialgebroid(inp, bundle.name)
        rep.extend(tw.report)
        rep.add("propA.1.smash-comparison", "A.2(1)",
                smash_comparison(inp, tw, antipode))
        an = BundleAnalysis(bundle)
        pair, bgd_D = an.pair, an.bialgebroids[1]
        rep.extend(cleft_iso_check(bundle, pair, bgd_D, tw, inp,
                                   rho_raw, j_raw, jt_raw, antipode))
    except TorsorKitError as exc:
        rep.add("twist.pipeline", "A", False, witness=str(exc))
    return rep


def run(command, args) -> tuple[int, dict]:
    """Execute one command; returns (exit code, report document)."""
    if command == "fixture":
        field = _source_field(args)
        name = args.fixture or getattr(args, "name", None)
        if not name:
            raise DocumentError("the fixture command needs a fixture NAME", "")
        fx = fixture_mod.generate(name, field)
        doc = bundle_to_document(fx.bundle)
        return 0, doc

    bundle, fx = _load_bundle(args)
    an = BundleAnalysis(bundle)
    reports: list[Report] = []
    if command == "validate":
        reports.append(validate_report(bundle))
    elif command == "build":
        reports.append(build_report(an))
    elif command == "bialgebroid":
        reports.append(bialgebroid_report(an))
    elif command == "twist":
        reports.append(_twist_report(bundle, fx))
    elif command == "diffcalc":
        reports.append(diffcalc_report(an))
    elif command == "suite":
        from .pretorsor import TorsorBundle
        reports = [validate_report(bundle), build_report(an)]
        if isinstance(bundle, TorsorBundle):
            reports.append(bialgebroid_report(an))
            if fx is not None and fx.hopf is not None:
                reports.append(_twist_report(bundle, fx))
        reports.append(diffcalc_report(an))
        reports.sort(key=lambda r: r.name)
    else:
        raise DocumentError(f"unknown command {command!r}", "")

    master = Report(bundle.name)
    for r in reports:
        master.extend(r)
    doc = master.to_json()
    if args.dump_matrices:
        from .serialize import matrix_to_json
        doc["matrices"] = {"tau": matrix_to_json(bundle.field, bundle.tau_raw)}
    return (0 if master.ok else 1), doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torsorkit",
        description="exact verification of pre-torsor structures")
    parser.add_argument("command",
                        choices=["validate", "build", "bialgebroid", "twist",
                                 "diffcalc", "fixture", "suite"])
    parser.add_argument("name", nargs="?",
                        help="fixture name (for the fixture command)")
    parser.add_argument("--fixture", help="fixture name")
    parser.add_argument("--input", help="bundle document path")
    parser.add_argument("--field", help="Q (default) or GF<p>")
    parser.add_argument("--dump-matrices", action="store_true")
    parser.add_argument("--json", dest="json_out", help="write report JSON here")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        try:
            out = stack.enter_context(_open_report(args.json_out)) if args.json_out else None
            code, doc = run(args.command, args)
        except (DocumentError, UnknownFixture) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TorsorKitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        text = dumps(doc)
        if out is not None:
            out.write(text)
    if args.command == "fixture":
        print(text, end="")
    else:
        checks = doc.get("checks", [])
        for c in checks:
            line = f"{c['status']:<24} {c['id']}"
            if c.get("witnesses"):
                line += f"  [{c['witnesses'][0]}]"
            print(line)
        bad = sum(1 for c in checks if c["status"] == "fail")
        print(f"{len(checks)} checks, {bad} failed")
    return code


if __name__ == "__main__":
    sys.exit(main())
