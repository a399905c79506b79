"""Structural guards: the permutation fast path and the benchmark hooks.

Leg permutations are applied as index maps (``linalg.permute_rows`` and
``linalg.permute_cols``); the dense permutation matrices stay in ``linalg``
as the reference the tests compare against.  The benchmark's tracer and
worker reach into the program by attribute name, so a renamed or deleted
attribute must fail here rather than in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torsorkit"
PERFBENCH = ROOT / "perfbench"
DENSE_PERMUTATIONS = {"mixed_permutation", "permutation_matrix"}


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
