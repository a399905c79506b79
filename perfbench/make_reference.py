"""Record the correctness reference the benchmark gates on.

    python3 perfbench/make_reference.py

Runs the suite once, cold, on every native bundle a workload uses or is
derived from, and writes ``reference.json``: each bundle's check rows and
report digest.  Before writing, every reported dimension is cross-checked
against the fixture's own naive oracle (``Fixture.oracle_report``).  Run it
only when a change to the program is meant to change reports.
"""

from __future__ import annotations

import json
import sys
import time

import gate
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from torsorkit import fixtures
    from torsorkit.cli import _parse_field

    keys = sorted({(name, field) for spec in workloads.WORKLOADS.values()
                   for name, field in spec["bundles"]})
    reference = {}
    for name, field in keys:
        key = workloads.bundle_key(name, field)
        item = {"key": key, "fixture": name, "field": field, "native": True}
        result = run.run_worker([item], time.monotonic() + 600)
        bundle = result["bundles"][0]
        oracle = fixtures.generate(name, _parse_field(field)).oracle_report
        bad = gate.oracle_mismatches(bundle["checks"], oracle)
        if bad:
            print(f"error: {key} disagrees with its oracle: {bad}", file=sys.stderr)
            return 1
        reference[key] = {"checks": bundle["checks"], "digest": bundle["digest"]}
        print(f"{key}: {len(bundle['checks'])} checks, {bundle['wall_s']:.2f} s")
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
