"""Structural guards: the permutation and Kronecker fast paths and the
benchmark hooks.

The engine works on sparse matrix rows and never reads the dense view.
Leg permutations are applied as index maps (``linalg.permute_rows`` and
``linalg.permute_cols``); the dense permutation matrices stay in ``linalg``
as the reference the tests compare against.  Tensor identities are
evaluated on carriers, so no report materialises an ambient-sized matrix,
and balance on a chain is the projector identity, so no relation span of
nearly ambient dimension is built.
The ``Matrix`` kernels sum with native operators and reduce each result
once, through ``Field.normalise``, a packed row's one mod-p pass or a packed
product's one Barrett step, never through the per-entry field methods, and
a packed product compared by ``==`` is never unpacked; ``rref``'s dict loop
reduces once per column, pivot row and output row, and its packed path once
per pivot row and output row.  The package
imports nothing outside the standard library.
The benchmark's tracer and worker reach into the program by attribute
name, so a renamed or deleted attribute must fail here rather than in a
traced benchmark run.  No module keeps an import it never reads, and no
module-level container but the three caches grows from one run to the next.
Each mirrored left/right construction is written once, against a
``pretorsor.Hand``, and only ``Hand`` tells the two hands apart.
Over QQ integral values are stored as ``int``, so only ``fields`` may
divide: ``a / b`` on two stored ints would give a ``float``.
The engine states its consistency checks as explicit raises, never as
``assert``, and a chain is built from its cached prefix with one quotient
step, so no prefix is folded twice and no relation is generated on a
chain's full ambient; a link over a one-dimensional ring never reaches a
step, and a step never transposes its relation span.
Every bimodule action is a matrix expression in the structure maps, never
assembled one basis vector at a time, and a traced benchmark pass passes.
The checks on tau (x) tau contract its middle legs before any outer product.
Every displayed cleft/twist formula is a ``kron_apply`` expression; only the
independent smash-pattern reference still sums one scalar at a time.  No
bialgebroid check reads a structure map one value at a time, and no engine
code outside a short list of named functions reads a value at a time at
all.  Every name a module reads is bound in it, every name a function
assigns is read, and every name a docstring cites resolves.  The engine
modules' ``.kron(`` calls only fall, and every map defined on a chain's
representatives descends through ``algebra.induce``: no other module builds
a ``LinearMap`` on a chain ambient.
"""

import argparse
import ast
import builtins
import importlib
import importlib.util
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torsorkit import algebra, linalg
from torsorkit.analysis import BundleAnalysis, bialgebroid_report
from torsorkit.bialgebroid import diagonal_coinvariants
from torsorkit.cli import run
from torsorkit.fields import PrimeField
from torsorkit.fixtures import FIXTURE_NAMES, generate
from torsorkit.linalg import Matrix, _rref_slot, kron_apply
from torsorkit.pretorsor import validate_torsor
from torsorkit.serialize import bundle_from_document, loads
from torsorkit.spaces import Subspace

from conftest import opposite_document, suite_on_document

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torsorkit"
PERFBENCH = ROOT / "perfbench"
DENSE_PERMUTATIONS = {"mixed_permutation", "permutation_matrix"}
DENSE_VIEW_READERS = {"linalg.py", "serialize.py"}
# the dense ambients of T (x) T (x) T (x) T and beyond start here (n = 4)
AMBIENT_ENTRIES = 1 << 20
# structure_isos stays below this: a dense (mu (x) id (x) id (x) id) on
# T^(x)5 has 2^18 shape entries at n = 4
ISO_ENTRIES = 1 << 16
# the relation spans of the chains over T^(x)5 have 768 (EX-SMASH) and
# 1,020 (EX-M2) dimensions; every subspace the suite needs is below this
SPAN_DIM = 512
# module-level containers that may grow: the chain cache, the identity cache
# and the field cache (GF(p) must return the same field object)
GROWING_CACHES = {"algebra._chain_cache", "linalg._identity_cache", "fields._gf_cache"}
# the linalg kernels that sum with native operators, and the per-entry
# field methods they must not call
NATIVE_KERNELS = {"__init__", "from_cols", "_combine", "__neg__", "scale", "__matmul__",
                  "_sparse_product", "_packed_product", "apply", "apply_pair", "kron",
                  "rref", "_sparse_rref", "_binomial_rref", "_packed_rref", "kron_apply",
                  # the packed residents: built, reduced, compared, cut and moved
                  # without unpacking
                  "_from_packed", "__getattr__", "_nnz", "_reduce", "_slot_view",
                  "_unpack_rows", "_packed_equal", "_take_rows",
                  "_packed_rows", "_move_runs",
                  # kron_apply's G product built packed, and its slot choice
                  "_g_slots", "_packed_g_product",
                  # the G product on row dicts, which is also kron's arithmetic
                  "_g_rows"}
SCALAR_METHODS = {"add", "sub", "mul", "div", "is_zero"}
# the modules whose mirrored constructions take a Hand, the words that name a
# hand, and the one comparison with such a word that is not about a hand:
# equivalence_witness requires its comodule to be a left one
MIRRORED_MODULES = ("pretorsor.py", "diffcalc.py", "bialgebroid.py")
HAND_WORDS = {"right", "left"}
COMODULE_SIDE_CHECKS = {"M.side != 'left'"}
# the coactions of the structure bicomodule T and the coinvariant bicomodule
# Tbar: only Bicomodule.__init__ wraps them in a Comodule
BICOMODULE_COACTIONS = {"rho_T", "lrho_T", "lrho", "rrho"}
# the fixture constructions (structure constants, coproducts, the smash
# product and its cleft tau) are written a value at a time on purpose
ORACLE = "fixtures.py"
# the naive oracle's functions, and the calls they may not make: the chain,
# coring and kron_apply machinery they are independent of, and the reads of
# a dense column, one vector's image or one value's zero test
ORACLE_FUNCTIONS = {"_naive_relations", "_naive_quotient", "_oracle_dims"}
ORACLE_MACHINERY = {"tensor_chain", "chain_of_spaces", "_cached_chain", "_build_chain",
                    "_relation_columns", "_binomial_rref", "_prefix_action", "leg_action",
                    "induce", "chain_map", "kron_apply", "Coring", "build_corings"}
# the ``.kron(`` calls left in each engine module: a ratchet that may only
# fall, as the Kronecker products built just to be projected away are
# applied through ``kron_apply`` (``algebra.leg_action`` for ring actions)
KRON_CALLS = {"algebra.py": 5, "pretorsor.py": 37, "bialgebroid.py": 55,
              "cleft_twist.py": 19, "diffcalc.py": 14, "coring.py": 5}
ORACLE_DENSE_READS = {"col", "apply", "is_zero"}
COLUMN_LOOP_HELPERS = {"_fixed_left_act", "_fixed_right_act",
                       "_assemble_action_left", "_assemble_action_right"}
# cleft_twist: the per-value reference kept on purpose, the helpers and
# closures that evaluated the displayed formulas one basis tuple at a time,
# and the per-value reads they were built from
CLEFT_REFERENCE = "smash_pattern_product"
CLEFT_LOOP_HELPERS = {"_nz", "product_vector", "inv_vector", "eval_map"}
PER_VALUE_READS = {"basis_vector", "col", "apply", "apply_pair", "product_vec", "lact_vec",
                   "ract_vec", "s_vec", "t_vec"}
# the modules whose job is values one at a time: the Matrix kernels, the
# scalars, the document layer and the naive oracle
PER_VALUE_MODULES = {"linalg.py", "fields.py", "serialize.py", ORACLE}
# the only engine functions that still read values one at a time, and why
PER_VALUE_EXEMPT = {
    "algebra.make_algebra": "parses a document's structure constants",
    "algebra.algebra_from_table": "parses a document's dense product table",
    "algebra._restrict": "its per-column contains_vector keeps dense-q's traced "
                         "fields.is_zero calls, which the benchmark requires",
    "algebra.relation_witness": "a witness is a vector",
    "algebra.Algebra.unit": "the unit as the vector documents store and the tests read",
    "spaces.LinearMap.apply": "the per-vector image the tests use as their reference",
    "spaces.Subspace.contains_vector": "the per-value fields.is_zero calls dense-q's "
                                       "traced benchmark requires",
    "cleft_twist.smash_pattern_product": "the independent per-value reference",
}

# the functions of src/ that nothing in src/ calls, and why each stays
UNREACHED = {
    "bialgebroid.homogeneous_pretorsor": "paper construction: the pre-torsor of a "
                                         "quotient coring, awaiting a fixture generator",
    "bialgebroid.cleft_pretorsor": "paper construction: the pre-torsor of a cleft "
                                   "extension, awaiting a fixture generator",
    "cleft_twist.remark_a2_automorphism": "paper construction: Remark A.2's automorphism, "
                                          "awaiting an opt-in report section",
    "linalg.permutation_matrix": "perfbench's tracer wraps it",
    "linalg.permute_tensor_rows": "perfbench's tracer wraps it",
    "fields.Field.from_int": "the Field interface: a scalar from an int, for callers "
                             "building matrices",
    "fields.Rationals.from_int": "the QQ side of Field.from_int",
    "fields.PrimeField.from_int": "the GF(p) side of Field.from_int",
    "linalg.Matrix.scale": "Matrix arithmetic beside +, - and negation",
    "report.Report.find": "the lookup of one check row, for callers reading a report",
    "report.Report.summary": "the failures of a report in one line, for callers",
    "pretorsor.kappa": "paper construction: the comparison morphism into another coring "
                       "coacting on T, awaiting a fixture with a second coring",
    "linalg.Matrix.entry": "the one-entry read of a Matrix, for callers",
}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_only_linalg_builds_dense_permutations():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line} {name}" for name, line in _names(tree)
                      if name in DENSE_PERMUTATIONS]
    assert not offenders, offenders


def test_only_linalg_and_serialize_read_the_dense_view():
    """``Matrix.rows`` builds a dense copy on every read; the engine works
    on the sparse rows through accessors instead."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in DENSE_VIEW_READERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "rows"]
    assert not offenders, offenders


def test_matrix_kernels_call_no_scalar_field_method():
    """The ``Matrix`` kernels compute with native ``+ - *`` and hand each
    result row, column or vector once to ``Field.normalise``; none reads a
    field's per-entry ``add``, ``sub``, ``mul``, ``div`` or ``is_zero``."""
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    kernels = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in NATIVE_KERNELS}
    assert set(kernels) == NATIVE_KERNELS, NATIVE_KERNELS - set(kernels)
    offenders = [f"{name}:{node.lineno} .{node.attr}"
                 for name, fn in sorted(kernels.items()) for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute) and node.attr in SCALAR_METHODS]
    assert not offenders, offenders


class CountingField(PrimeField):
    """GF(p) that counts its ``normalise`` calls."""

    def __init__(self, p):
        super().__init__(p)
        self.calls = 0

    def normalise(self, acc, summed):
        self.calls += 1
        return super().normalise(acc, summed)


def test_rref_reduces_once_per_column_pivot_and_output_row():
    """The dict loop of ``rref`` delays the modular reduction: one
    ``normalise`` per column it reads, per pivot row it chooses and per row
    it returns, never one per row it touches at each pivot (about
    ``rank * nrows``).  The operand is dense, over a prime with no packing
    slot, so the cost rule sends it to the dict loop."""
    f = CountingField(2**61 - 1)
    rng = random.Random(0)
    n = 12
    dense = Matrix(f, [[rng.randrange(1, f.p) for _ in range(n)] for _ in range(n)])
    assert not _rref_slot(dense)
    f.calls = 0
    _, pivots = dense.rref()
    assert len(pivots) == n
    assert f.calls <= 2 * dense.ncols + dense.nrows, f.calls


def test_packed_rref_reduces_once_per_pivot_and_output_row(monkeypatch):
    """On packed rows ``rref`` reduces a pivot row when it chooses it, at
    most twice (before and after scaling), and the rows it returns once, all
    together, never at a row step; it calls no ``normalise``."""
    f = CountingField(101)
    rng = random.Random(0)
    n = 12
    dense = Matrix(f, [[rng.randrange(1, 101) for _ in range(n)] for _ in range(n)])
    assert _rref_slot(dense)
    reduced = []

    def counting_reduce(*args, real=linalg._reduce):
        reduced.append(args[0])
        return real(*args)

    monkeypatch.setattr(linalg, "_reduce", counting_reduce)
    f.calls = 0
    _, pivots = dense.rref()
    assert len(pivots) == n
    assert f.calls == 0, f.calls
    assert len(reduced) <= 2 * len(pivots) + 1, len(reduced)


def test_only_fields_uses_true_division():
    """Integral rationals are stored as ``int``, and ``/`` on two ints is a
    ``float``: division goes through ``Field.inv``/``Field.div``."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                      if isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.Div)]
    assert not offenders, offenders


def test_only_hand_tells_the_hands_apart():
    """Outside ``Hand`` no code in ``pretorsor``, ``diffcalc`` or
    ``bialgebroid`` compares a value with "right" or "left": a construction
    that branches on its side would write the mirror a second time."""
    offenders = []
    for name in MIRRORED_MODULES:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        for scope in tree.body:
            if isinstance(scope, ast.ClassDef) and scope.name == "Hand":
                continue
            offenders += [
                f"{name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(scope)
                if isinstance(node, ast.Compare)
                and ast.unparse(node) not in COMODULE_SIDE_CHECKS
                and any(isinstance(leaf, ast.Constant) and leaf.value in HAND_WORDS
                        for operand in (node.left, *node.comparators)
                        for leaf in ast.walk(operand))]
    assert not offenders, offenders


def test_structure_comodules_are_the_bicomodule_parts():
    """Outside ``Bicomodule.__init__`` no ``Comodule(`` call in ``src/``
    takes a coaction of T or Tbar: each one-sided comodule on T or Tbar is a
    validated ``right_part`` or ``left_part`` of ``pair.bicomodule`` or
    ``tb.bicomodule``, never an unvalidated rebuild."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for scope in ast.walk(tree)
                  if isinstance(scope, ast.ClassDef) and scope.name == "Bicomodule"
                  for init in scope.body
                  if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                  for node in ast.walk(init)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _called_name(node) == "Comodule") \
                    or id(node) in exempt:
                continue
            coaction = [*node.args[3:4], *(k.value for k in node.keywords if k.arg == "rho")]
            if any(getattr(leaf, "id", getattr(leaf, "attr", None)) in BICOMODULE_COACTIONS
                   for arg in coaction for leaf in ast.walk(arg)):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not offenders, offenders


def test_engine_checks_survive_optimised_mode():
    """``python -O`` strips ``assert`` statements, so the engine states each
    consistency check as an explicit ``raise``."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not offenders, offenders


def test_suite_quotients_each_chain_prefix_once(monkeypatch):
    """A chain is its cached prefix plus at most one quotient step, so one
    ``suite`` on a fresh bundle never folds the same prefix twice.  Each
    quotient step is keyed by the chain being built when it runs: its
    factor-space uids and link keys."""
    building, steps = [], []
    build_chain, quotient = algebra._build_chain, algebra.quotient

    def traced_build(*args):
        spaces, links = args[:2]
        building.append((tuple(s.uid for s in spaces),
                         tuple(sorted(link.key() for link in links))))
        try:
            return build_chain(*args)
        finally:
            building.pop()

    def traced_quotient(*args):
        steps.append(building[-1])
        return quotient(*args)

    monkeypatch.setattr(algebra, "_build_chain", traced_build)
    monkeypatch.setattr(algebra, "quotient", traced_quotient)
    run("suite", argparse.Namespace(fixture="EX-SMASH", input=None, field=None,
                                    dump_matrices=False))
    assert steps
    assert len(set(steps)) == len(steps), f"{len(steps) - len(set(steps))} of {len(steps)} refold"


def test_chain_steps_assemble_proj_and_sect_without_kron_apply(monkeypatch):
    """A quotient step writes ``sect`` as a column selection and ``proj`` as
    its reduction rows applied to the prefix's ``proj``, so on a fresh
    EX-SMASH ``suite`` ``_build_chain`` itself never calls ``kron_apply``.
    The step's relation columns still reach it through the whole ring
    action of ``_prefix_action``, which calls ``leg_action``, the one
    ``kron_apply`` caller that places a ring leg on a chain leg."""
    callers = []

    def watched(*args):
        callers.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
        return kron_apply(*args)

    monkeypatch.setattr(algebra, "kron_apply", watched)
    run("suite", argparse.Namespace(fixture="EX-SMASH", input=None, field=None,
                                    dump_matrices=False))
    assert ("leg_action", "_prefix_action") in callers
    direct = [caller for caller, _ in callers]
    assert "_prefix_action" not in direct and "chain_outer_bimodule" not in direct
    assert direct.count("_build_chain") == 0, direct.count("_build_chain")


def test_chain_steps_never_transpose_their_relation_span(monkeypatch):
    """A quotient step reads its projection off the relation span's echelon
    rows (``linalg.complement_rows``) and writes its section as a column
    selection, so on a fresh EX-SMASH ``suite`` nothing under
    ``_build_chain`` calls ``Matrix.transpose``: the span's inclusion is
    never built."""
    building, builds, transposed = [], [], []
    build_chain, transpose = algebra._build_chain, Matrix.transpose

    def traced_build(*args):
        building.append(args)
        builds.append(len(args[1]))
        try:
            return build_chain(*args)
        finally:
            building.pop()

    def traced_transpose(self):
        if building:
            transposed.append(sys._getframe(1).f_code.co_name)
        return transpose(self)

    monkeypatch.setattr(algebra, "_build_chain", traced_build)
    monkeypatch.setattr(Matrix, "transpose", traced_transpose)
    run("suite", argparse.Namespace(fixture="EX-SMASH", input=None, field=None,
                                    dump_matrices=False))
    assert any(builds), "no chain with a link was built"
    assert transposed == [], sorted(set(transposed))


def test_kron_calls_only_fall():
    """The ``.kron(`` calls of each engine module, counted on its syntax
    tree, stay at or below ``KRON_CALLS``."""
    counts = {}
    for name in KRON_CALLS:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        counts[name] = sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call)
                           and getattr(node.func, "attr", None) == "kron")
    assert all(counts[name] <= bound for name, bound in KRON_CALLS.items()), counts


def test_only_induce_maps_a_chain_ambient():
    """No module but ``algebra`` builds a ``LinearMap`` whose domain is a
    chain's ``.ambient``: a raw map on representatives reaches its carrier
    through ``induce(dom, raw, cod)`` or ``chain_map``, which check that it
    kills the balancing relations."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _called_name(node) == "LinearMap"
                      and node.args and isinstance(node.args[0], ast.Attribute)
                      and node.args[0].attr == "ambient"]
    assert not offenders, offenders


def test_chain_relations_are_generated_on_two_legs(monkeypatch, tmp_path):
    """Every relation a chain step generates lives on the prefix carrier
    tensored with the last factor, never on the chain's full ambient: the
    right action it reads has a row per prefix carrier basis vector.
    EX-SMASH^op's pentagon chains join legs 0 and 2 over its two-dimensional
    base, each link read on the prefix carrier at its own leg, and there the
    prefix carrier is below its ambient."""
    heads, seen = {}, []
    prefix_action, relation_columns = algebra._prefix_action, algebra._relation_columns

    def watched_action(head, link):
        rho = prefix_action(head, link)
        heads[id(rho)] = (rho, head)
        return rho

    def watched(field, rho, lam, m):
        head = heads[id(rho)][1]
        seen.append((rho.nrows, head.dim, head.ambient.dim))
        return relation_columns(field, rho, lam, m)

    monkeypatch.setattr(algebra, "_prefix_action", watched_action)
    monkeypatch.setattr(algebra, "_relation_columns", watched)
    suite_on_document(opposite_document("EX-SMASH", "Q"), tmp_path / "bundle.json")
    assert seen
    assert all(rows == dim for rows, dim, _ in seen), [s for s in seen if s[0] != s[1]]
    assert any(dim < amb for _, dim, amb in seen), seen


def test_links_over_one_dimensional_rings_relate_nothing(monkeypatch):
    """A link over a one-dimensional ring relates nothing, so
    ``_cached_chain`` drops it before it keys the chain: no step of a fresh
    EX-SMASH ``suite`` (A = k) reads a prefix action or relation columns
    for such a link, and over EX-SW's A = k the chain T (x)_A T is the
    cached chain T (x) T with no links."""
    ring_dims = []
    prefix_action, relation_columns = algebra._prefix_action, algebra._relation_columns

    def watched_action(head, link):
        ring_dims.append(link.ring.dim)
        return prefix_action(head, link)

    def watched(field, rho, lam, m):
        ring_dims.append(m)
        return relation_columns(field, rho, lam, m)

    monkeypatch.setattr(algebra, "_prefix_action", watched_action)
    monkeypatch.setattr(algebra, "_relation_columns", watched)
    run("suite", argparse.Namespace(fixture="EX-SMASH", input=None, field=None,
                                    dump_matrices=False))
    assert ring_dims and min(ring_dims) > 1, sorted(ring_dims)
    b = generate("EX-SW").bundle
    assert (algebra.tensor_chain([b.T_BA, b.T_AB], [b.A])
            is algebra.chain_of_spaces([b.T.space, b.T.space], []))


def test_tracer_spans_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in tracer.FUNCTION_SPANS
               if not callable(getattr(mod, attr, None))]
    missing += [f"{cls.__name__}.{attr}" for cls, attr, _ in tracer.METHOD_SPANS
                if not callable(getattr(cls, attr, None))]
    algebra = importlib.import_module("torsorkit.algebra")
    spaces = importlib.import_module("torsorkit.spaces")
    if not callable(getattr(algebra, "_build_chain", None)):
        missing.append("algebra._build_chain")
    if "from_spanning" not in vars(spaces.Subspace):
        missing.append("Subspace.from_spanning")
    assert not missing, missing


def test_worker_caches_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    caches = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "GLOBAL_CACHES"
                          for t in node.targets))
    assert caches.values
    for key, value in zip(caches.keys, caches.values):
        module = importlib.import_module(f"torsorkit.{value.value.id}")
        assert isinstance(getattr(module, value.attr, None), dict), key.value


@pytest.mark.parametrize("name", ["EX-SW", "EX-SMASH"])
def test_bialgebroid_report_stays_below_ambient_size(monkeypatch, name):
    """No ``kron`` or ``@`` result of a bialgebroid report reaches the
    entry count of a dense fourfold ambient operator.  A freshly generated
    bundle has fresh spaces, so its chains and stages are built here."""
    largest = []

    def watched(method):
        def wrapper(self, other):
            out = method(self, other)
            largest.append((out.nrows * out.ncols, out.shape))
            return out
        return wrapper

    monkeypatch.setattr(Matrix, "kron", watched(Matrix.kron))
    monkeypatch.setattr(Matrix, "__matmul__", watched(Matrix.__matmul__))
    assert bialgebroid_report(BundleAnalysis(generate(name).bundle)).ok
    size, shape = max(largest)
    assert size < AMBIENT_ENTRIES, shape


@pytest.mark.parametrize("name", ["EX-SW", "EX-SMASH"])
def test_structure_isos_stay_below_a_fourfold_operator(monkeypatch, name):
    """No ``kron`` or ``@`` result under ``structure_isos`` reaches 2^16
    shape entries: Cor 4.3's ``mu (x) id (x) id (x) id`` (256 x 1024 at n =
    4) is applied through ``kron_apply``, never built.  A freshly generated
    bundle has fresh spaces, so the chains ``structure_isos`` asks for are
    built under the watch too; the stages it reads are built before."""
    an = BundleAnalysis(generate(name).bundle)
    for stage in ("pair", "tbar", "ent_right", "ent_left", "galois_right", "galois_left",
                  "certified"):
        getattr(an, stage)
    largest = []

    def watched(method):
        def wrapper(self, other):
            out = method(self, other)
            largest.append((out.nrows * out.ncols, out.shape))
            return out
        return wrapper

    monkeypatch.setattr(Matrix, "kron", watched(Matrix.kron))
    monkeypatch.setattr(Matrix, "__matmul__", watched(Matrix.__matmul__))
    assert an.isos.report.ok
    size, shape = max(largest)
    assert size < ISO_ENTRIES, shape


@pytest.mark.parametrize("name", ["EX-SMASH", "EX-M2"])
def test_suite_builds_no_relation_span(monkeypatch, name):
    """No ``Subspace.from_spanning`` result of ``suite`` on a fresh bundle
    reaches ``SPAN_DIM`` dimensions: balance is checked with ``proj`` and
    ``sect``, never through a basis of the relation span."""
    dims = []
    from_spanning = Subspace.__dict__["from_spanning"].__func__

    def watched(*args, **kwargs):
        out = from_spanning(*args, **kwargs)
        dims.append((out.dim, out.ambient.dim))
        return out

    monkeypatch.setattr(Subspace, "from_spanning", staticmethod(watched))
    args = argparse.Namespace(fixture=name, input=None, field=None, dump_matrices=False)
    run("suite", args)
    assert max(dims)[0] < SPAN_DIM, max(dims)


def _chain_steps(monkeypatch, commands, args):
    """Runs of the CLI ``commands``: the number of ``_build_chain`` steps
    with a nonzero relation (each makes one ``quotient`` call by a nonzero
    span) and of those eliminated by union-find."""
    steps, binomial = [], []
    quotient, binomial_rref = algebra.quotient, algebra._binomial_rref

    def watched_quotient(V, S, *rest):
        steps.append(S.dim > 0)
        return quotient(V, S, *rest)

    def watched_binomial(*a):
        out = binomial_rref(*a)
        binomial.append(bool(out[1]))
        return out

    monkeypatch.setattr(algebra, "quotient", watched_quotient)
    monkeypatch.setattr(algebra, "_binomial_rref", watched_binomial)
    for command in commands:
        run(command, args)
    return sum(steps), sum(binomial)


@pytest.mark.parametrize("field", ["Q", "GF101"])
def test_monomial_bases_eliminate_their_relations_by_union_find(monkeypatch, field):
    """EX-SMASH's basis is monomial, so on fresh runs of every report but
    ``diffcalc`` each relation has at most two terms and every chain step
    with relations is eliminated by ``_binomial_rref``.  The calculus's
    bimodules are kernels in echelon bases, not monomial, and two of their
    steps have three-term relations (``suite`` makes 39 of its 41 steps by
    union-find)."""
    steps, binomial = _chain_steps(
        monkeypatch, ["validate", "build", "bialgebroid", "twist"],
        argparse.Namespace(fixture="EX-SMASH", input=None, field=field, dump_matrices=False))
    assert steps and binomial == steps, (steps, binomial)


def test_dense_relation_spans_keep_the_dict_loop(monkeypatch, tmp_path):
    """In the seed-1 dense EX-M2 document over GF(101) the relations are
    dense, so no chain step with a nonzero relation takes
    ``_binomial_rref``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    path = tmp_path / "dense.json"
    path.write_text(workloads.dense_document_text("EX-M2", "GF101", 1), encoding="utf-8")
    steps, binomial = _chain_steps(monkeypatch, ["suite"], argparse.Namespace(
        fixture=None, input=str(path), field=None, dump_matrices=False))
    assert steps and not binomial, (steps, binomial)


def test_every_top_level_import_is_read():
    """Each name a top-level import binds is read in its module or listed
    in ``__all__``; no linter runs on this code, so this test is the check."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, exported = {}, set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name.partition(".")[0], node.lineno)
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in read and name not in exported]
    assert not unused, unused


def _module_container_sizes():
    """The size of every module-level dict, list and set in ``torsorkit``
    but the growing caches."""
    sizes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(
            "torsorkit" if path.stem == "__init__" else f"torsorkit.{path.stem}")
        for attr, value in vars(module).items():
            key = f"{path.stem}.{attr}"
            if (isinstance(value, (dict, list, set)) and not attr.startswith("__")
                    and key not in GROWING_CACHES):
                sizes[key] = len(value)
    return sizes


def test_suite_keeps_no_process_global_state():
    """``suite`` on EX-SW and then on EX-SMASH in one process: the outer
    bimodule registry stays empty and no other module-level container
    changes size between the two runs."""
    def suite(name):
        run("suite", argparse.Namespace(fixture=name, input=None, field=None,
                                        dump_matrices=False))

    suite("EX-SW")
    after_first = _module_container_sizes()
    suite("EX-SMASH")
    assert _module_container_sizes() == after_first
    assert not algebra._chain_outer_registry


def _called_name(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def test_no_action_is_assembled_column_by_column():
    """Outside the oracle no ``LinearMap.from_columns`` call takes a
    ``tensor_space(...)`` domain, the shape of an action built one column
    at a time, and the helpers that built and took apart actions that way
    are gone."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{node.lineno} def {node.name}" for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name in COLUMN_LOOP_HELPERS]
        if path.name == ORACLE:
            continue
        offenders += [f"{path.name}:{node.lineno} {ast.unparse(node)[:60]}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _called_name(node) == "from_columns"
                      and node.args and isinstance(node.args[0], ast.Call)
                      and _called_name(node.args[0]) == "tensor_space"]
    assert not offenders, offenders


def test_the_oracle_stays_naive_independent_and_sparse():
    """The fixture oracle (``ORACLE_FUNCTIONS``) calls none of the chain,
    coring or ``kron_apply`` machinery, so it generates every relation on
    the full ambient with no prefix step, and it reads no dense column, no
    image of one vector and no single value's zero test: its relation and
    T-bar spans are sparse rows.  Every machinery name it must not call is
    defined in the package."""
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert ORACLE_MACHINERY <= defined, ORACLE_MACHINERY - defined
    tree = ast.parse((PACKAGE / ORACLE).read_text(encoding="utf-8"))
    oracle = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in ORACLE_FUNCTIONS}
    assert set(oracle) == ORACLE_FUNCTIONS, ORACLE_FUNCTIONS - set(oracle)
    offenders = [f"{name}:{node.lineno} {ast.unparse(node)[:60]}"
                 for name, fn in sorted(oracle.items()) for node in ast.walk(fn)
                 if isinstance(node, ast.Call)
                 and _called_name(node) in ORACLE_MACHINERY | ORACLE_DENSE_READS]
    assert not offenders, offenders


def test_tau_pair_checks_contract_before_the_outer_product(monkeypatch):
    """No ``kron_apply`` call under ``validate_torsor`` or
    ``diagonal_coinvariants`` on a fresh EX-SW runs over six legs, the
    n^6 outer product tau(t) (x) tau(t'): the middle legs are contracted
    first (``PreTorsorBundle.tau_pair_inner``)."""
    an = BundleAnalysis(generate("EX-SW").bundle)
    b, pair = an.bundle, an.pair
    legs = []

    def watched(field, left, dims, order, right):
        legs.append(len(dims))
        return kron_apply(field, left, dims, order, right)

    for name, module in list(sys.modules.items()):
        if name.startswith("torsorkit.") and getattr(module, "kron_apply", None) is kron_apply:
            monkeypatch.setattr(module, "kron_apply", watched)
    assert validate_torsor(b).ok
    assert diagonal_coinvariants(b, pair).ok
    assert legs and max(legs) < 6, sorted(set(legs))


@pytest.mark.parametrize("workload", ["dense-q", "smash-q", "dense-gf101"])
def test_traced_benchmark_pass_is_correct(workload):
    """One untraced and one traced benchmark pass exit 0 with ``correct``
    true: every gate check passes, every name the tracer wraps resolves and
    no layer contradicts its workload.  dense-q and smash-q meet every
    branch of the layer checks: dense-q is quotient-free and reads
    documents, smash-q quotients and carries Hopf data.  dense-gf101 is the
    one workload over GF(p), so the only one whose products take the packed
    path of ``Matrix.__matmul__``."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_engine_imports_only_the_standard_library():
    """``pyproject.toml`` declares no dependency, so every absolute import
    of the package names a standard-library module, though other packages
    (numpy among them) may be installed where the tests run."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not offenders, offenders


def _field_scalar_call(node):
    """``f.mul``, ``field.is_zero``, ``inp.B.field.add``: a per-value field
    method read off a field."""
    if not (isinstance(node, ast.Attribute) and node.attr in SCALAR_METHODS):
        return False
    recv = node.value
    return (isinstance(recv, ast.Name) and recv.id in {"f", "field"}) or (
        isinstance(recv, ast.Attribute) and recv.attr == "field")


def _per_value_reads(scope):
    """Per-value field calls and reads of a basis vector, a dense column, a
    bilinear map or action on a vector pair or a product of two vectors."""
    return [f"{node.lineno} {ast.unparse(node)}" for node in ast.walk(scope)
            if _field_scalar_call(node) or (
                isinstance(node, ast.Attribute) and node.attr in PER_VALUE_READS)]


def _engine_scopes():
    """``(module.function, node)`` for each top-level function, method and
    other top-level statement of the engine modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in PER_VALUE_MODULES:
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    yield f"{path.stem}.{node.name}.{getattr(item, 'name', '')}", item
            else:
                yield f"{path.stem}.{getattr(node, 'name', '')}", node


def test_engine_reads_no_value_at_a_time():
    """Outside ``PER_VALUE_MODULES`` and the functions of
    ``PER_VALUE_EXEMPT`` no engine code calls a per-value field method or
    reads a basis vector, a dense column, an image of one vector or a
    bilinear map on a vector pair: maps, bimodules, comodules, units and
    group-likes are checked as whole-matrix identities.  Every exemption
    names a function that exists."""
    scopes = dict(_engine_scopes())
    assert set(PER_VALUE_EXEMPT) <= set(scopes), set(PER_VALUE_EXEMPT) - set(scopes)
    offenders = [f"{name} {read}" for name, scope in scopes.items()
                 if name not in PER_VALUE_EXEMPT for read in _per_value_reads(scope)]
    assert not offenders, offenders


def test_cleft_twist_formulas_are_matrix_expressions():
    """Outside ``smash_pattern_product`` no code in ``cleft_twist`` calls a
    per-value field method or reads a basis vector, a dense column, a
    bilinear map on a vector pair or a product of two vectors, and no
    helper that evaluated a formula one basis tuple at a time is defined."""
    tree = ast.parse((PACKAGE / "cleft_twist.py").read_text(encoding="utf-8"))
    top = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert CLEFT_REFERENCE in top
    offenders = [f"{node.lineno} def {node.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name in CLEFT_LOOP_HELPERS]
    for scope in tree.body:
        if isinstance(scope, ast.FunctionDef) and scope.name == CLEFT_REFERENCE:
            continue
        offenders += _per_value_reads(scope)
    assert not offenders, offenders


def test_bialgebroid_checks_are_matrix_expressions():
    """No code in ``bialgebroid`` reads a structure map one value at a time:
    each axiom row, action and span is a matrix expression.  The per-value
    loops live on in ``tests/test_bialgebroid.py`` as the reference."""
    tree = ast.parse((PACKAGE / "bialgebroid.py").read_text(encoding="utf-8"))
    offenders = _per_value_reads(tree)
    assert not offenders, offenders


def _bound_names(tree):
    """Every name a module binds in any of its scopes: imports, defs and
    classes, arguments, assignment and loop targets, exception names."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def test_every_loaded_name_is_bound():
    """Each name a module reads is a builtin or bound somewhere in that
    module: no linter runs on this code, and a raise of an error class that
    was never imported fails only when the raise is reached."""
    known = set(dir(builtins)) | {"__file__"}
    unbound = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bound_names(tree) | known
        unbound += [f"{path.name}:{node.lineno} {node.id}" for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id not in bound]
    assert not unbound, unbound


# the ``name`` spans of docstrings that cite no code: a keyword, the CLI
# command, python-flint's integer type, a formula's operand, and a private
# classmethod of ``fractions.Fraction`` that only some Pythons have
DOC_REFERENCE_ALLOWED = {"pass", "suite", "fmpz", "difference", "Fraction._from_coprime_ints"}
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _docstring_references(tree):
    """The double-backquoted spans of a module's docstrings that are
    dotted names, with the line of their docstring's owner."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False) or ""
            for span in re.findall(r"``(.+?)``", doc, re.S):
                if DOTTED_NAME.fullmatch(span):
                    yield span, getattr(node, "lineno", 1)


def _module_attribute(module, parts):
    """Whether the dotted ``parts`` resolve on ``module``, through its
    attributes and submodules."""
    obj = importlib.import_module(module)
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif importlib.util.find_spec(f"{obj.__name__}.{part}") is not None:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            return False
    return True


def test_docstring_references_resolve():
    """Every ``name`` a ``src/`` docstring cites is something the package
    binds (a definition, a parameter, a local, an attribute it sets or an
    import), a module or a builtin.  A dotted name on a module resolves
    through that module's attributes, any other through names the package
    binds, so a docstring that still cites a deleted helper fails here."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    bound = set(dir(builtins))
    modules = {"torsorkit": "torsorkit"}
    modules.update((name, f"torsorkit.{name}") for name in trees)
    for tree in trees.values():
        bound |= _bound_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                bound.add(node.attr)
            elif isinstance(node, ast.Import):
                modules.update((a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules[node.module] = node.module
    unresolved = []
    for stem, tree in trees.items():
        for span, line in _docstring_references(tree):
            head, *rest = span.split(".")
            ok = (span in DOC_REFERENCE_ALLOWED
                  or (_module_attribute(modules[head], rest) if head in modules
                      else head in bound and all(part in bound for part in rest)))
            if not ok:
                unresolved.append(f"{stem}.py:{line} {span}")
    assert not unresolved, unresolved


def _unreached_functions():
    """Each function and method defined in ``src/`` that nothing else in
    ``src/`` reaches, as ``module.qualified.name``.  A module-level function
    is reached only by a Name load in its own module, a ``from … import`` of
    it, or an attribute read on its module (``fixture_mod.generate``); a
    method by an attribute read of its name, or by that name as a string,
    which ``getattr`` reads.  A mention inside the function's own body, and
    a Name read in a function that binds that name itself, as a parameter or
    an assignment target, reach nothing.  Dunder methods are reached by the
    language and are skipped."""
    defs, reached = [], {}

    def collect(node, prefix, module):
        # a module-level function's key is (module, name), a method's its name
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = child.name if prefix else (module, child.name)
                defs.append((f"{module}.{prefix}{child.name}", key, child))
            elif isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}{child.name}.", module)

    def keys(node, module, modules, local):
        """What ``node`` reaches (see ``collect``)."""
        if isinstance(node, ast.Name):
            return [(module, node.id)] if isinstance(node.ctx, ast.Load) \
                and node.id not in local else []
        if isinstance(node, ast.Attribute):
            if not isinstance(node.ctx, ast.Load):
                return []
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            return [node.attr] + ([(modules[owner], node.attr)] if owner in modules else [])
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            return [(node.module, alias.name) for alias in node.names]
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            return [node.value]
        return []

    def walk(node, module, modules, local, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _locally_bound(node)
            inside = inside | {id(node)}
        for key in keys(node, module, modules, local):
            reached.setdefault(key, []).append(inside)
        for child in ast.iter_child_nodes(node):
            walk(child, module, modules, local, inside)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the names this module binds to a package module: from . import x as y
        modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for alias in node.names}
        collect(tree, "", path.stem)
        walk(tree, path.stem, modules, frozenset(), frozenset())
    return {qualname for qualname, key, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and all(id(node) in inside for inside in reached.get(key, ()))}


def test_every_local_is_read():
    """Every name a ``src/`` function binds by a plain assignment is read in
    that function, so no value is computed for nothing.  Names bound by
    unpacking a tuple are exempt: taking some of a result's parts is how a
    caller reads it."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {fn.name}: {target.id}"
                       for node in ast.walk(fn) if isinstance(node, (ast.Assign, ast.AnnAssign))
                       for target in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target])
                       if isinstance(target, ast.Name) and target.id not in read]
    assert not unread, unread


def _parameters(fn):
    a = fn.args
    return [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]


def _locally_bound(fn):
    """The parameters of a function or lambda and the names its body
    assigns."""
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    return frozenset(_parameters(fn)) | {
        node.id for stmt in body for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def test_every_function_is_reached_from_the_package():
    """Every ``src/`` function has a caller in ``src/``, or is listed in
    ``UNREACHED`` with its reason.  A helper only tests call lives in those
    tests, so code that nothing in the package reaches cannot rot unseen."""
    unreached = _unreached_functions()
    assert unreached <= set(UNREACHED), sorted(unreached - set(UNREACHED))
    assert set(UNREACHED) <= unreached, sorted(set(UNREACHED) - unreached)


FACTOR_FIXTURES = [(name, field) for name in FIXTURE_NAMES for field in ("Q", "GF101")]
# the seed-1 documents of the dense-q and dense-gf101 workloads
DENSE_DOCUMENTS = [("EX-C2", "Q"), ("EX-Q3", "Q"), ("EX-Q4", "GF101"), ("EX-SW", "GF101"),
                   ("EX-M2", "GF101")]


def _eliminating_factorisations(monkeypatch, args):
    """The left operand of each ``factor_matrix`` call of one ``suite`` run
    that calls ``Matrix.rref``."""
    inside, eliminating = [], []
    factor_matrix, rref = algebra.factor_matrix, Matrix.rref

    def watched_factor(jmat, *rest):
        inside.append(jmat)
        try:
            return factor_matrix(jmat, *rest)
        finally:
            inside.pop()

    def watched_rref(self):
        if inside and (not eliminating or eliminating[-1] is not inside[-1]):
            eliminating.append(inside[-1])
        return rref(self)

    for name, module in list(sys.modules.items()):
        if name.startswith("torsorkit") and getattr(module, "factor_matrix", None) \
                is factor_matrix:
            monkeypatch.setattr(module, "factor_matrix", watched_factor)
    monkeypatch.setattr(Matrix, "rref", watched_rref)
    run("suite", args)
    return eliminating


@pytest.mark.parametrize("name, field", FACTOR_FIXTURES)
def test_suite_corestricts_without_elimination(monkeypatch, name, field):
    """Every injection ``suite`` corestricts through on a fixture is a
    chain map of echelon inclusions and identities, so it has a unit row
    for every column and ``Matrix.solve`` reads the corestriction off those
    rows: no ``factor_matrix`` call makes an ``rref`` call."""
    args = argparse.Namespace(fixture=name, input=None, field=field, dump_matrices=False)
    eliminating = _eliminating_factorisations(monkeypatch, args)
    assert not eliminating, [j.shape for j in eliminating]


@pytest.mark.parametrize("name, field", DENSE_DOCUMENTS)
def test_dense_documents_eliminate_only_through_the_unit_maps(monkeypatch, tmp_path,
                                                              name, field):
    """On the seed-1 dense documents of the benchmark the only corestrictions
    that eliminate go through a unit map, alpha or beta (the counits of both
    corings), or a unit map tensored with an identity (the collapse of
    ``equivalence_witness``): those are the document's own data, which the
    basis change makes dense.  Every chain-map injection still has unit
    rows."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    text = workloads.dense_document_text(name, field, 1)
    path = tmp_path / "dense.json"
    path.write_text(text, encoding="utf-8")
    bundle = bundle_from_document(loads(text))
    args = argparse.Namespace(fixture=None, input=str(path), field=None, dump_matrices=False)
    eliminating = _eliminating_factorisations(monkeypatch, args)
    units = [bundle.alpha.map.matrix, bundle.beta.map.matrix]

    def through_a_unit(j):
        return any(j.ncols % u.ncols == 0 and j == u.kron(Matrix.identity(
            u.field, j.ncols // u.ncols)) for u in units)

    assert eliminating and all(through_a_unit(j) for j in eliminating), \
        [j.shape for j in eliminating]


def _qq_product_paths(monkeypatch, args):
    """One ``suite`` run: per QQ product of each dict path, whether an
    operand held a ``Fraction``, and every matrix built flagged integral."""
    paths = {"_sparse_product": [], "_integer_row_product": []}
    flagged = []

    def holds_fraction(rows):
        return any(type(v) is not int for r in rows for v in r.values())

    for name, taken in paths.items():
        def spy(rows, orows, *rest, real=getattr(linalg, name), taken=taken):
            taken.append(holds_fraction(rows) or holds_fraction(orows))
            return real(rows, orows, *rest)
        monkeypatch.setattr(linalg, name, spy)
    build = Matrix.from_sparse_rows

    def watched_build(field, rows, ncols, ints=None):
        m = build(field, rows, ncols, ints)
        if ints:
            flagged.append(m)
        return m

    monkeypatch.setattr(Matrix, "from_sparse_rows", staticmethod(watched_build))
    run("suite", args)
    return paths, flagged


def test_an_int_bundle_takes_no_integer_row_product(monkeypatch):
    """``suite`` on EX-SW over Q, whose values are all ``int``: every
    product that is not an identity or a packed one takes the dict loop,
    none the integer-row kernel, and no matrix flagged integral holds a
    ``Fraction``."""
    paths, flagged = _qq_product_paths(monkeypatch, argparse.Namespace(
        fixture="EX-SW", input=None, field="Q", dump_matrices=False))
    assert paths["_sparse_product"] and not any(paths["_sparse_product"])
    assert not paths["_integer_row_product"]
    assert all(type(v) is int for m in flagged for r in m.sparse_rows() for v in r.values())


def test_a_dense_document_sends_its_fractional_products_to_integer_rows(monkeypatch,
                                                                        tmp_path):
    """``suite`` on the seed-1 dense EX-C2 document over Q: every product
    with a ``Fraction`` on either side is summed on integer rows, the dict
    loop sees only ``int`` operands, and no matrix flagged integral holds a
    ``Fraction``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    path = tmp_path / "dense.json"
    path.write_text(workloads.dense_document_text("EX-C2", "Q", 1), encoding="utf-8")
    paths, flagged = _qq_product_paths(monkeypatch, argparse.Namespace(
        fixture=None, input=str(path), field=None, dump_matrices=False))
    assert any(paths["_integer_row_product"]), len(paths["_integer_row_product"])
    assert not any(paths["_sparse_product"])
    assert all(type(v) is int for m in flagged for r in m.sparse_rows() for v in r.values())


def test_a_product_compared_by_eq_is_never_unpacked(monkeypatch, tmp_path):
    """``suite`` on the seed-1 dense EX-SW document over GF(101): every
    packed matrix is built in the one slot width of GF(101), 32 bits, so
    its residues read in that width are its rows.  A packed product keeps
    its residues packed until something reads its rows, and ``==`` between
    two packed matrices compares packed residues, so no such comparison
    unpacks either side and the products compared that way are mostly
    never unpacked at all."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads
    path = tmp_path / "dense.json"
    path.write_text(workloads.dense_document_text("EX-SW", "GF101", 1), encoding="utf-8")
    products, compared, unpacked, inside = [], set(), set(), []
    unpacked_by_eq, built = [], []
    packed_product, eq = linalg._packed_product, Matrix.__eq__
    getattr_, from_packed = linalg._Packed.__getattr__, Matrix._from_packed

    def watched_from_packed(*args):
        m = from_packed(*args)
        built.append(m)
        return m

    def watched_product(*args):
        product = packed_product(*args)
        products.append(product)
        return product

    def watched_eq(self, other):
        # packed on both sides; a pair with a dict side compares rows
        packed = (isinstance(other, Matrix) and self._packed is not None
                  and other._packed is not None)
        if packed:
            compared.update((id(self), id(other)))
        inside.append(packed)
        try:
            return eq(self, other)
        finally:
            inside.pop()

    def watched_getattr(self, name):
        if name == "_rows":
            unpacked.add(id(self))
            if inside and inside[-1]:
                unpacked_by_eq.append(self.shape)
        return getattr_(self, name)

    monkeypatch.setattr(linalg, "_packed_product", watched_product)
    monkeypatch.setattr(Matrix, "__eq__", watched_eq)
    monkeypatch.setattr(linalg._Packed, "__getattr__", watched_getattr)
    monkeypatch.setattr(Matrix, "_from_packed", staticmethod(watched_from_packed))
    run("suite", argparse.Namespace(fixture=None, input=str(path), field=None,
                                    dump_matrices=False))
    assert not unpacked_by_eq, unpacked_by_eq
    compared_products = [m for m in products if id(m) in compared]
    kept = [m for m in compared_products if id(m) not in unpacked]
    # most compared products are read in no other way
    assert products and 2 * len(kept) > len(compared_products), \
        (len(products), len(compared_products), len(kept))
    # read last: reading the rows unpacks
    assert linalg._slot(101) == (32, "I") and built
    for m in built:
        slots = memoryview(m._packed.to_bytes(4 * m.nrows * m.ncols, sys.byteorder)).cast("I")
        assert [tuple(slots[i * m.ncols:(i + 1) * m.ncols]) for i in range(m.nrows)] == \
            list(m.rows), m.shape


def test_every_parameter_is_read():
    """Every parameter of every ``src/`` function is read in its body, so
    no caller sets a knob that nothing reads.  The ``Field`` interface is
    exempt: its abstract methods and their overrides take the interface's
    parameters whether or not one field needs them."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        interface = {node.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     and cls.name == "Field" for node in cls.body
                     if isinstance(node, ast.FunctionDef)}
        exempt = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  and (cls.name == "Field" or any(getattr(base, "id", None) == "Field"
                                                  for base in cls.bases))
                  for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name in interface}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(fn) in exempt:
                continue
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {fn.name}({p})"
                       for p in _parameters(fn) if p not in read]
    assert not unread, unread
