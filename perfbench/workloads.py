"""The benchmark's workloads and the inputs each one hands the program.

A workload is a list of bundles.  A native bundle is loaded the way
``torsorkit suite --fixture NAME`` loads it (the fixture generator with its
naive oracle); a ``dense-*`` bundle is the native document moved to a
seeded basis (see ``basis_change``) and loaded the way ``--input FILE``
loads it.  Only the ``dense-*`` workloads depend on the seed.
"""

from __future__ import annotations

from pathlib import Path

import basis_change

# Why each workload (BENCHMARK.json says the same in one line each):
#   fixtures-q   the paper's acceptance set, native sparse bases over Q.  The
#                Hopf fixtures sit over k, so chains take the one-dimensional
#                ring shortcut; time goes to ambient-sized matmul/kron.
#   smash-q      the one bundle with a non-trivial base and cleft/twist data:
#                tensor_chain quotients and bialgebroid_from_torsor.
#   dense-q      EX-C2 and EX-Q3 in dense bases over Q: Fraction growth and
#                rref, on ambients too small for structured operators.
#   dense-gf101  EX-Q4, EX-SW and EX-M2 in dense bases over GF(101): cheap
#                scalars, so the matmul loop and zero scans dominate.
WORKLOADS = {
    "fixtures-q": {
        "bundles": [("EX-TRIV", "Q"), ("EX-C2", "Q"), ("EX-Q3", "Q"),
                    ("EX-Q4", "Q"), ("EX-SW", "Q"), ("EX-M2", "Q")],
        "dense": False,
    },
    "smash-q": {"bundles": [("EX-SMASH", "Q")], "dense": False},
    "dense-q": {"bundles": [("EX-C2", "Q"), ("EX-Q3", "Q")], "dense": True},
    "dense-gf101": {
        "bundles": [("EX-Q4", "GF101"), ("EX-SW", "GF101"), ("EX-M2", "GF101")],
        "dense": True,
    },
}


def bundle_key(name, field):
    return f"{name}@{field}"


def native_document(name, field):
    from torsorkit import fixtures
    from torsorkit.cli import _parse_field
    from torsorkit.serialize import bundle_to_document
    return bundle_to_document(fixtures.generate(name, _parse_field(field)).bundle)


def dense_document_text(name, field, seed):
    """The seeded basis-changed document of a fixture, as canonical bytes."""
    native = native_document(name, field)
    bases = basis_change.seeded_bases(native, seed, salt=bundle_key(name, field))
    return basis_change.dumps(basis_change.change_basis(native, bases))


def prepare(workload, seed, out_dir: Path):
    """Worker bundle specs for one workload; writes the documents it needs."""
    spec = WORKLOADS[workload]
    items = []
    for name, field in spec["bundles"]:
        key = bundle_key(name, field)
        if not spec["dense"]:
            items.append({"key": key, "fixture": name, "field": field, "native": True})
            continue
        path = out_dir / f"{workload}-{seed}-{name}.json"
        path.write_text(dense_document_text(name, field, seed), encoding="utf-8")
        items.append({"key": key, "input": str(path), "native": False})
    return items


# per-layer metrics a traced pass must find non-zero on every workload; a 0
# means a by-name alias of a wrapped function escaped the tracer
ALWAYS_CALLED = (
    ["fields.ops", "fields.is_zero", "linalg.matmul.calls", "linalg.kron.calls",
     "linalg.rref.calls", "linalg.solve.self_s", "algebra.tensor_chain.calls",
     "coring.validate.calls", "diffcalc.wall_s"]
    + [f"spaces.{k}.self_s" for k in ("kernel", "intersect", "invert", "from_spanning")]
    + [f"algebra.{k}.self_s" for k in ("chain_map", "induce", "certify_free")]
    + [f"pretorsor.{k}.wall_s" for k in (
        "validate", "build_corings", "galois", "entwining", "tbar",
        "structure_isos", "equivalence_witness", "freeness_certificates")]
    + [f"bialgebroid.{k}.wall_s" for k in (
        "bialgebroid_from_torsor", "theta", "diagonal_coinvariants",
        "monoidal_witness", "can_factorisation", "recovered_structure",
        "lemma55_check")]
    + [f"analysis.{k}_report.wall_s" for k in ("validate", "build", "bialgebroid",
                                               "diffcalc")]
)

# a chain is a quotient only over a ring of dimension above one, which
# every workload has but dense-q, whose bundles all sit over k
QUOTIENT_FREE = ("dense-q",)

# non-zero exactly where the bundles carry Hopf data (the native workloads)
HOPF_ONLY = (
    [f"cleft_twist.{k}.{m}" for k in ("twisted_bialgebroid", "smash_comparison",
                                      "cleft_iso_check") for m in ("calls", "wall_s")]
    + ["analysis.twist_report.wall_s"]
)
