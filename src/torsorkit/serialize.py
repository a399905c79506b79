"""JSON bundle documents.

Scalars are serialized as decimal strings like ``-3/7`` so no float ever
enters the pipeline.  Matrices are dense row-major.  The structure map is
stored on canonical cube representatives, so export-import-export is
byte-stable after the single normalisation that export performs.
"""

from __future__ import annotations

import json

from .algebra import Algebra, AlgebraMap, make_algebra
from .errors import DocumentError, TorsorKitError
from .fields import field_from_spec, field_to_spec
from .linalg import Matrix
from .pretorsor import PreTorsorBundle, TorsorBundle, make_bundle
from .spaces import LinearMap


def matrix_to_json(field, mat: Matrix):
    return [[field.to_str(x) for x in row] for row in mat.rows]


def matrix_from_json(field, rows, shape, pointer):
    if not isinstance(rows, list):
        raise DocumentError("missing or non-list matrix", pointer)
    try:
        mat = Matrix.from_rows(field, rows, shape[1] if rows == [] else None)
    except (TorsorKitError, TypeError, ValueError) as exc:
        raise DocumentError(str(exc), pointer) from exc
    if mat.shape != tuple(shape):
        raise DocumentError(f"expected shape {shape}, found {mat.shape}", pointer)
    return mat


def algebra_to_json(alg: Algebra):
    field = alg.field
    sc = []
    n = alg.dim
    for i in range(n):
        for j in range(n):
            col = alg.mult.matrix.col(i * n + j)
            for k, v in enumerate(col):
                if not field.is_zero(v):
                    sc.append([i, j, k, field.to_str(v)])
    return {
        "dim": alg.dim,
        "basis_labels": list(alg.space.labels),
        "unit": [field.to_str(x) for x in alg.unit],
        "structure_constants": sc,
    }


def algebra_from_json(field, doc, name, pointer):
    for key in ("dim", "unit", "structure_constants"):
        if key not in doc:
            raise DocumentError(f"missing key {key!r}", pointer)
    try:
        return make_algebra(
            field, int(doc["dim"]),
            [(int(i), int(j), int(k), field.parse(v))
             for (i, j, k, v) in doc["structure_constants"]],
            [field.parse(x) for x in doc["unit"]],
            name, doc.get("basis_labels"))
    except TorsorKitError as exc:
        raise DocumentError(str(exc), pointer) from exc


def bundle_to_document(bundle: PreTorsorBundle) -> dict:
    field = bundle.field
    return {
        "field": field_to_spec(field),
        "algebras": {
            "A": algebra_to_json(bundle.A),
            "B": algebra_to_json(bundle.B),
            "T": algebra_to_json(bundle.T),
        },
        "maps": {
            "alpha": matrix_to_json(field, bundle.alpha.map.matrix),
            "beta": matrix_to_json(field, bundle.beta.map.matrix),
            "tau": matrix_to_json(field, bundle.tau_raw),
        },
        "bundle": {
            "name": bundle.name,
            "torsor": isinstance(bundle, TorsorBundle),
        },
    }


def bundle_from_document(doc: dict) -> PreTorsorBundle:
    if not isinstance(doc, dict):
        raise DocumentError("document must be an object", "")
    try:
        field = field_from_spec(doc.get("field"))
    except TorsorKitError as exc:
        raise DocumentError(str(exc), "/field") from exc
    algs = doc.get("algebras")
    if not isinstance(algs, dict):
        raise DocumentError("missing algebras table", "/algebras")
    loaded = {}
    for role in ("A", "B", "T"):
        if role not in algs:
            raise DocumentError(f"missing algebra {role!r}", "/algebras")
        loaded[role] = algebra_from_json(field, algs[role], role,
                                         f"/algebras/{role}")
    maps = doc.get("maps")
    if not isinstance(maps, dict):
        raise DocumentError("missing maps table", "/maps")
    A, B, T = loaded["A"], loaded["B"], loaded["T"]
    alpha_mat = matrix_from_json(field, maps.get("alpha"),
                                 (T.dim, A.dim), "/maps/alpha")
    beta_mat = matrix_from_json(field, maps.get("beta"),
                                (T.dim, B.dim), "/maps/beta")
    tau_mat = matrix_from_json(field, maps.get("tau"),
                               (T.dim ** 3, T.dim), "/maps/tau")
    meta = doc.get("bundle") or {}
    if not isinstance(meta, dict):
        raise DocumentError("bundle metadata must be an object", "/bundle")
    name, torsor = meta.get("name", "bundle"), meta.get("torsor", False)
    if not isinstance(name, str):
        raise DocumentError(f"name must be a string, not {name!r}", "/bundle/name")
    if not isinstance(torsor, bool):
        raise DocumentError(f"torsor must be true or false, not {torsor!r}",
                            "/bundle/torsor")
    try:
        alpha = AlgebraMap(A, T, LinearMap(A.space, T.space, alpha_mat))
        beta = AlgebraMap(B, T, LinearMap(B.space, T.space, beta_mat))
        return make_bundle(A, B, T, alpha, beta, tau_mat, name=name, torsor=torsor)
    except TorsorKitError as exc:
        raise DocumentError(str(exc), "/bundle") from exc


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}", "") from exc
