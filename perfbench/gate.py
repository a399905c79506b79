"""Correctness gate: every pass is compared with the recorded reference.

``reference.json`` holds, per bundle (``NAME@FIELD``), the suite's checks as
(section, check id, status, dims) rows and the SHA-256 of the canonical
report bytes, recorded from the native fixtures by ``make_reference.py``.

A check fails when it is missing, extra or different.  A native bundle must
also reproduce the report bytes; a byte mismatch fails every check of that
report.  A basis-changed bundle must reproduce the native rows exactly,
minus the ``twist`` section, which needs the Hopf data a document does not
carry.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# reference rows of this section are not expected from a bundle document
DOCUMENT_SKIPS = ("twist",)


def load_reference(path=REFERENCE):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _keyed(rows):
    """{(section, id, occurrence): (status, dims)} for a list of check rows."""
    seen = Counter()
    out = {}
    for section, check_id, status, dims in rows:
        occurrence = seen[(section, check_id)]
        seen[(section, check_id)] += 1
        out[(section, check_id, occurrence)] = (status, json.dumps(dims, sort_keys=True))
    return out


def compare(entry, result, native):
    """(attempted, failed, problems) for one bundle's pass against ``entry``."""
    want_rows = entry["checks"]
    if not native:
        want_rows = [r for r in want_rows if r[0] not in DOCUMENT_SKIPS]
    want, got = _keyed(want_rows), _keyed(result["checks"])
    keys = set(want) | set(got)
    problems = []
    for key in sorted(keys):
        if key not in got:
            problems.append(f"missing {key[0]}/{key[1]}")
        elif key not in want:
            problems.append(f"extra {key[0]}/{key[1]}")
        elif want[key] != got[key]:
            problems.append(f"different {key[0]}/{key[1]}: {got[key]} != {want[key]}")
    if native and result["digest"] != entry["digest"]:
        return len(keys), len(keys), problems + ["report bytes differ"]
    return len(keys), len(problems), problems


def oracle_mismatches(rows, oracle):
    """Report dimensions that disagree with a fixture's naive oracle."""
    wanted = {("thm3.4.corings", "C"): "dim_C", ("thm3.4.corings", "D"): "dim_D",
              ("prop4.1.tbar", "Tbar"): "dim_Tbar",
              ("appB.omega-dims", "Omega1A"): "dim_Omega1A"}
    seen, bad = set(), []
    for _, check_id, _, dims in rows:
        for dim_name, value in dims.items():
            key = wanted.get((check_id, dim_name))
            if key is not None:
                seen.add(key)
                if oracle[key] != value:
                    bad.append(f"{check_id}.{dim_name}={value}, oracle {oracle[key]}")
    bad.extend(f"{key} not reported" for key in sorted(set(wanted.values()) - seen))
    return bad
