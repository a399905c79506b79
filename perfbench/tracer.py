"""Spans and counters around the program's layers, installed from outside.

The tracer wraps the public functions of each ``torsorkit`` module and the
``Matrix`` kernels, and rebinds every by-name alias of a wrapped function
in every ``torsorkit`` module (``analysis``, ``cli``, ``bialgebroid``,
``cleft_twist`` and ``pretorsor`` import many of them by name).  No file of
the program changes.

A span is (name, start, end, parent).  Spans stay in memory and are written
once, at the end of the pass, as JSON lines.  A layer's self time is its
spans' durations minus the time their child spans cover; its wall time is
the inclusive time of its outermost spans, so recursion is not counted
twice.  Scalar operations and chain builds are counted, not spanned.
"""

from __future__ import annotations

import json
import sys
import time

import torsorkit.algebra as algebra
import torsorkit.analysis as analysis
import torsorkit.bialgebroid as bialgebroid
import torsorkit.cleft_twist as cleft_twist
import torsorkit.cli as cli
import torsorkit.coring as coring
import torsorkit.diffcalc as diffcalc
import torsorkit.fields as fields
import torsorkit.linalg as linalg
import torsorkit.pretorsor as pretorsor
import torsorkit.spaces as spaces

# (module, function name, span name)
FUNCTION_SPANS = [
    (linalg, "permutation_matrix", "linalg.permutation"),
    (linalg, "mixed_permutation", "linalg.permutation"),
    (linalg, "permute_tensor_rows", "linalg.permutation"),
    (spaces, "kernel", "spaces.kernel"),
    (spaces, "quotient", "spaces.quotient"),
    (spaces, "intersect", "spaces.intersect"),
    (spaces, "invert", "spaces.invert"),
    (algebra, "tensor_chain", "algebra.tensor_chain"),
    (algebra, "chain_of_spaces", "algebra.tensor_chain"),
    (algebra, "chain_map", "algebra.chain_map"),
    (algebra, "induce", "algebra.induce"),
    (algebra, "certify_free", "algebra.certify_free"),
    (coring, "cotensor", "coring.cotensor"),
    (coring, "coinvariants", "coring.coinvariants"),
    (pretorsor, "validate_pretorsor", "pretorsor.validate"),
    (pretorsor, "validate_torsor", "pretorsor.validate"),
] + [(pretorsor, fn, f"pretorsor.{fn}") for fn in (
    "build_corings", "galois", "entwining", "tbar", "structure_isos",
    "equivalence_witness", "freeness_certificates")] + [
    (bialgebroid, fn, f"bialgebroid.{fn}") for fn in (
        "bialgebroid_from_torsor", "theta", "diagonal_coinvariants",
        "monoidal_witness", "can_factorisation", "recovered_structure",
        "lemma55_check")] + [
    (cleft_twist, fn, f"cleft_twist.{fn}") for fn in (
        "twisted_bialgebroid", "smash_comparison", "cleft_iso_check")] + [
    (diffcalc, "build_calculus", "diffcalc"),
    (diffcalc, "connections", "diffcalc"),
    (diffcalc, "bimodule_connection", "diffcalc"),
    (analysis, "validate_report", "analysis.validate_report"),
    (analysis, "build_report", "analysis.build_report"),
    (analysis, "bialgebroid_report", "analysis.bialgebroid_report"),
    (analysis, "diffcalc_report", "analysis.diffcalc_report"),
    (cli, "_twist_report", "analysis.twist_report"),
]

# (class, method name, span name)
METHOD_SPANS = [
    (linalg.Matrix, "__matmul__", "linalg.matmul"),
    (linalg.Matrix, "kron", "linalg.kron"),
    (linalg.Matrix, "rref", "linalg.rref"),
    (linalg.Matrix, "solve", "linalg.solve"),
    (coring.Coring, "__init__", "coring.validate"),
    (coring.Comodule, "__init__", "coring.validate"),
]

# spans whose Matrix result counts towards dense_entries / max_entries
MATERIALISING = {"linalg.matmul", "linalg.kron", "linalg.permutation"}

# every call counts, so a div also counts the mul and inv it makes
FIELD_OPS = ("add", "sub", "mul", "div", "inv", "neg", "is_zero")

# the per-layer metrics a traced run reports, with their units
METRICS = (
    [("fields.ops", "count"), ("fields.is_zero", "count")]
    + [(f"linalg.{k}.{m}", "count" if m == "calls" else "s")
       for k, ms in (("matmul", ("calls", "self_s")), ("kron", ("calls", "self_s")),
                     ("rref", ("calls", "self_s")), ("solve", ("self_s",)))
       for m in ms]
    + [("linalg.dense_entries", "entries"), ("linalg.max_entries", "entries")]
    + [(f"spaces.{k}.self_s", "s")
       for k in ("kernel", "quotient", "intersect", "invert", "from_spanning")]
    + [("algebra.tensor_chain.calls", "count"), ("algebra.tensor_chain.builds", "count"),
       ("algebra.tensor_chain.hit_ratio", "ratio"), ("algebra.tensor_chain.self_s", "s"),
       ("algebra.chain_map.self_s", "s"), ("algebra.induce.self_s", "s"),
       ("algebra.certify_free.self_s", "s"), ("algebra.chain_cache.entries", "count")]
    + [("coring.validate.calls", "count"), ("coring.validate.self_s", "s"),
       ("coring.cotensor.self_s", "s"), ("coring.coinvariants.self_s", "s")]
    + [(f"pretorsor.{k}.wall_s", "s") for k in (
        "validate", "build_corings", "galois", "entwining", "tbar",
        "structure_isos", "equivalence_witness", "freeness_certificates")]
    + [(f"bialgebroid.{k}.wall_s", "s") for k in (
        "bialgebroid_from_torsor", "theta", "diagonal_coinvariants",
        "monoidal_witness", "can_factorisation", "recovered_structure",
        "lemma55_check")]
    + [(f"cleft_twist.{k}.{m}", "count" if m == "calls" else "s")
       for k in ("twisted_bialgebroid", "smash_comparison", "cleft_iso_check")
       for m in ("calls", "wall_s")]
    + [("diffcalc.wall_s", "s")]
    + [(f"analysis.{k}_report.wall_s", "s")
       for k in ("validate", "build", "bialgebroid", "twist", "diffcalc")]
    + [("setup.generate_s", "s"), ("setup.load_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []       # [name id, start, end, parent, outermost]
        self.stack: list[int] = []
        self.active: list[int] = []       # open spans per name id
        self.ops = {op: [0] for op in FIELD_OPS}
        self.builds = [0]
        self.entries = [0, 0]             # total, largest
        self.bundle_builds: list[tuple[str, int]] = []

    # -- wrapping --------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.name_ids[name]

    def span(self, name, fn):
        nid = self._name_id(name)
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter
        entries = self.entries if name in MATERIALISING else None
        matrix = linalg.Matrix

        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, active[nid] == 0]
            stack.append(len(spans))
            spans.append(rec)
            active[nid] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[nid] -= 1
                stack.pop()
            if entries is not None and type(out) is matrix and \
                    not any(out is a for a in args):
                size = out.nrows * out.ncols
                entries[0] += size
                if size > entries[1]:
                    entries[1] = size
            return out

        return wrapper

    @staticmethod
    def counter(cell, fn):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    @staticmethod
    def _rebind(original, replacement):
        for name, mod in list(sys.modules.items()):
            if name == "torsorkit" or name.startswith("torsorkit."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

    def install(self):
        for mod, attr, name in FUNCTION_SPANS:
            original = getattr(mod, attr)
            self._rebind(original, self.span(name, original))
        for cls, attr, name in METHOD_SPANS:
            setattr(cls, attr, self.span(name, getattr(cls, attr)))
        from_spanning = spaces.Subspace.__dict__["from_spanning"].__func__
        spaces.Subspace.from_spanning = staticmethod(
            self.span("spaces.from_spanning", from_spanning))
        self._rebind(algebra._build_chain,
                     self.counter(self.builds, algebra._build_chain))
        for cls in (fields.Rationals, fields.PrimeField):
            for op in FIELD_OPS:
                setattr(cls, op, self.counter(self.ops[op], getattr(cls, op)))

    def mark_bundle(self, key):
        """Close a bundle's share of the chain builds."""
        self.bundle_builds.append((key, self.builds[0]))

    # -- results ---------------------------------------------------------

    def aggregate(self):
        n = len(self.names)
        calls, self_s, wall_s = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(self.spans)
        # a child is appended after its parent: walking backwards sees it first
        for idx in range(len(self.spans) - 1, -1, -1):
            nid, start, end, parent, outermost = self.spans[idx]
            dur = end - start
            calls[nid] += 1
            self_s[nid] += dur - child[idx]
            if outermost:
                wall_s[nid] += dur
            if parent >= 0:
                child[parent] += dur
        return {name: {"calls": calls[i], "self_s": self_s[i], "wall_s": wall_s[i]}
                for i, name in enumerate(self.names)}

    def finish(self, path):
        """Write the spans to ``path`` and return the per-layer numbers."""
        with open(path, "w", encoding="utf-8") as fh:
            for nid, start, end, parent, _ in self.spans:
                fh.write(json.dumps([self.names[nid], start, end, parent]) + "\n")
        previous = 0
        per_bundle = {}
        for key, builds in self.bundle_builds:
            per_bundle[key] = builds - previous
            previous = builds
        return {
            "spans": self.aggregate(),
            "ops": {op: cell[0] for op, cell in self.ops.items()},
            "builds": self.builds[0],
            "builds_per_bundle": per_bundle,
            "dense_entries": self.entries[0],
            "max_entries": self.entries[1],
            "chain_cache_entries": len(algebra._chain_cache),
        }


def layer_metrics(layers, setup, overhead_s):
    """The ``METRICS`` values from one traced pass."""
    spans = layers["spans"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    calls_tc = get("algebra.tensor_chain", "calls")
    values = {
        "fields.ops": sum(layers["ops"].values()),
        "fields.is_zero": layers["ops"]["is_zero"],
        "linalg.dense_entries": layers["dense_entries"],
        "linalg.max_entries": layers["max_entries"],
        "algebra.tensor_chain.builds": layers["builds"],
        "algebra.tensor_chain.hit_ratio":
            (calls_tc - layers["builds"]) / calls_tc if calls_tc else 0.0,
        "algebra.chain_cache.entries": layers["chain_cache_entries"],
        "setup.generate_s": setup["generate_s"],
        "setup.load_s": setup["load_s"],
        "trace.overhead_s": overhead_s,
    }
    for name, unit in METRICS:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        values[name] = get(layer, field)
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
