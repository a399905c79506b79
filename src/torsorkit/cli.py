"""Batch front end.

    torsorkit <command> [--fixture NAME | --input FILE]
                        [--field Q|GFp] [--dump-matrices] [--json OUT]

Commands: validate, build, bialgebroid, twist, diffcalc, fixture, suite.
Exit codes: 0 all checks pass, 1 at least one failed, 2 parse error.
TORSORKIT_THREADS caps concurrency of independent suite checks; report
assembly is order-deterministic either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

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


def _load_bundle(args):
    field = _parse_field(args.field)
    if args.fixture:
        fx = fixture_mod.generate(args.fixture, field)
        return fx.bundle, fx
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = loads(fh.read())
        return bundle_from_document(doc), None
    raise DocumentError("need --fixture NAME or --input FILE", "")


def _twist_report(bundle, fx) -> Report:
    from .bialgebroid import bialgebroid_from_torsor
    from .cleft_twist import (
        cleft_iso_check,
        smash_comparison,
        twist_data_for_fixture,
        twisted_bialgebroid,
    )
    from .pretorsor import build_corings

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
        pair = build_corings(bundle)
        _, bgd_D = bialgebroid_from_torsor(bundle, pair)
        rep.extend(cleft_iso_check(bundle, pair, bgd_D, tw, inp,
                                   rho_raw, j_raw, jt_raw, antipode))
    except TorsorKitError as exc:
        rep.add("twist.pipeline", "A", False, witness=str(exc))
    return rep


def run(command, args) -> tuple[int, dict]:
    """Execute one command; returns (exit code, report document)."""
    if command == "fixture":
        field = _parse_field(args.field)
        fx = fixture_mod.generate(args.fixture or args.name, field)
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
        jobs = [lambda: validate_report(bundle),
                lambda: build_report(an)]
        from .pretorsor import TorsorBundle
        if isinstance(bundle, TorsorBundle):
            jobs.append(lambda: bialgebroid_report(an))
            if fx is not None and fx.hopf is not None:
                jobs.append(lambda: _twist_report(bundle, fx))
        jobs.append(lambda: diffcalc_report(an))
        threads = int(os.environ.get("TORSORKIT_THREADS", "1"))
        if threads > 1:
            # the analysis cache is shared; populate the common stages first
            validate_report(bundle)
            try:
                an.pair
            except TorsorKitError:
                pass
            with ThreadPoolExecutor(max_workers=threads) as pool:
                reports = list(pool.map(lambda j: j(), jobs))
        else:
            reports = [j() for j in jobs]
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
    try:
        code, doc = run(args.command, args)
    except (DocumentError, UnknownFixture) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TorsorKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = dumps(doc)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
