"""Seeded change of basis for bundle documents.

A bundle document stores its algebras, maps and the structure map ``tau`` in
the basis the fixture was written in; those bases make every matrix sparse,
with entries 0 and +-1.  Users write bundles in bases of their own, so the
``dense-*`` workloads move each algebra of dimension above one to a seeded
random basis P and hand the result to the program as a document:

    mu'    = P^-1 mu (P (x) P)          unit'  = P^-1 unit
    alpha' = P_T^-1 alpha P_A           beta'  = P_T^-1 beta P_B
    tau'   = (P_T^-1)^(x)3 tau P_T

The new bundle is isomorphic to the old one, so every verdict and every
dimension in its report must equal the native ones.

Over Q, P is unimodular (integral, det +-1, integral inverse) and drawn from
a family of fixed shape, so that seeds give comparable work: see
``unimodular``.  Over GF(p), P is a random invertible matrix with no zero
entry.  Everything here is plain Python arithmetic on the document's
scalars, independent of the engine, and the same seed gives byte-identical
documents.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


class _Scalars:
    """Parsing, formatting and arithmetic for one document field spec."""

    def __init__(self, spec):
        if spec == "Q":
            self.p = None
        elif isinstance(spec, dict) and set(spec) == {"GF"}:
            self.p = int(spec["GF"])
        else:
            raise ValueError(f"unsupported field spec {spec!r}")

    def parse(self, text):
        if self.p is None:
            return Fraction(text)
        return int(text) % self.p

    def fmt(self, x):
        if self.p is None:
            return str(x)
        return str(x % self.p)

    def reduce(self, x):
        return x if self.p is None else x % self.p

    def inv(self, x):
        if self.p is None:
            return 1 / Fraction(x)
        return pow(x, self.p - 2, self.p)


def _matmul(a, b, sc):
    return [[sc.reduce(sum(a[i][k] * b[k][j] for k in range(len(b))))
             for j in range(len(b[0]))] for i in range(len(a))]


def inverse(mat, sc):
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(mat)
    rows = [list(r) + [1 if i == j else 0 for j in range(n)]
            for i, r in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if sc.reduce(rows[r][col]) != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = sc.inv(rows[col][col])
        rows[col] = [sc.reduce(x * scale) for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [sc.reduce(x - factor * y)
                           for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def unimodular(rng: random.Random, n: int):
    """A fully dense integral P with integral inverse, from a fixed family.

    P = L U S with L unit lower- and U unit upper-triangular, all their
    entries on and off the diagonal equal to 1 (so P[i][j] = min(i, j) + 1),
    and S a seeded diagonal sign matrix.  The seed flips the signs of the
    new basis vectors only: every entry of P and of P^-1 keeps its size, so
    the work a bundle needs is comparable from seed to seed.
    """
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[Fraction((min(i, j) + 1) * signs[j]) for j in range(n)]
            for i in range(n)]


def invertible_mod(rng: random.Random, n: int, p: int):
    """A random invertible n x n matrix over GF(p) with no zero entry."""
    sc = _Scalars({"GF": p})
    while True:
        mat = [[rng.randrange(1, p) for _ in range(n)] for _ in range(n)]
        try:
            inverse(mat, sc)
        except ZeroDivisionError:
            continue
        return mat


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _change_algebra(alg, P, Pinv, sc):
    n = int(alg["dim"])
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k, v) in alg["structure_constants"]:
        c[i][j][k] = sc.reduce(c[i][j][k] + sc.parse(v))
    # mu'(f_a f_b) = P^-1 mu(P f_a (x) P f_b)
    sc_new = []
    for a in range(n):
        for b in range(n):
            img = [0] * n
            for i in range(n):
                if P[i][a] == 0:
                    continue
                for j in range(n):
                    pij = P[i][a] * P[j][b]
                    if pij == 0:
                        continue
                    for k in range(n):
                        if c[i][j][k] != 0:
                            img[k] += pij * c[i][j][k]
            for cc in range(n):
                v = sc.reduce(sum(Pinv[cc][k] * img[k] for k in range(n)))
                if v != 0:
                    sc_new.append([a, b, cc, sc.fmt(v)])
    unit = [sc.parse(x) for x in alg["unit"]]
    unit_new = [sc.reduce(sum(Pinv[a][k] * unit[k] for k in range(n)))
                for a in range(n)]
    out = dict(alg)
    out["structure_constants"] = sc_new
    out["unit"] = [sc.fmt(x) for x in unit_new]
    return out


def _change_tau(rows, P, Pinv, n, sc):
    """(P^-1)^(x)3 tau P on the dense n^3 x n matrix ``rows``."""
    mat = _matmul(rows, P, sc)
    for leg in range(3):
        stride = n ** (2 - leg)
        out = [[0] * n for _ in range(n ** 3)]
        for idx in range(n ** 3):
            digit = (idx // stride) % n
            base = idx - digit * stride
            for a in range(n):
                coeff = Pinv[a][digit]
                if coeff == 0:
                    continue
                target = out[base + a * stride]
                for col, x in enumerate(mat[idx]):
                    if x != 0:
                        target[col] += coeff * x
        mat = [[sc.reduce(x) for x in row] for row in out]
    return mat


def change_basis(doc: dict, bases: dict) -> dict:
    """The document ``doc`` in the bases ``{role: P}`` (a missing role keeps its own)."""
    sc = _Scalars(doc["field"])
    algs = doc["algebras"]
    P, Pinv = {}, {}
    for role in ("A", "B", "T"):
        n = int(algs[role]["dim"])
        P[role] = bases.get(role) or identity(n)
        Pinv[role] = inverse(P[role], sc)
    n = int(algs["T"]["dim"])
    maps = doc["maps"]

    def parse_mat(rows):
        return [[sc.parse(x) for x in r] for r in rows]

    def fmt_mat(rows):
        return [[sc.fmt(x) for x in r] for r in rows]

    out = dict(doc)
    out["algebras"] = {role: _change_algebra(algs[role], P[role], Pinv[role], sc)
                       for role in ("A", "B", "T")}
    out["maps"] = {
        "alpha": fmt_mat(_matmul(_matmul(Pinv["T"], parse_mat(maps["alpha"]), sc),
                                 P["A"], sc)),
        "beta": fmt_mat(_matmul(_matmul(Pinv["T"], parse_mat(maps["beta"]), sc),
                                P["B"], sc)),
        "tau": fmt_mat(_change_tau(parse_mat(maps["tau"]), P["T"], Pinv["T"], n, sc)),
    }
    return out


def seeded_bases(doc: dict, seed: int, salt: str) -> dict:
    """One seeded P per algebra of ``doc`` whose dimension is above one."""
    rng = random.Random(f"{salt}:{seed}")
    spec = doc["field"]
    bases = {}
    for role in ("T", "A", "B"):
        n = int(doc["algebras"][role]["dim"])
        if n <= 1:
            continue
        if spec == "Q":
            bases[role] = unimodular(rng, n)
        else:
            bases[role] = invertible_mod(rng, n, int(spec["GF"]))
    return bases


def dumps(doc: dict) -> str:
    """Canonical document bytes, the same encoding the program writes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
