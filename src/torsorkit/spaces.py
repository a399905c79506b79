"""Named finite-dimensional spaces, linear maps between them, subspaces.

A ``LinearMap`` is the universal currency of the engine: column j of its
matrix is the image of the j-th domain basis vector.  Composition is only
defined when the inner space handles match, which catches a large class of
assembly mistakes at the type level.

A ``Subspace`` is its canonical reduced-echelon basis and its pivots, so
two computations of one subspace compare equal as matrices.  A map into it
is read in its coordinates by gathering the map's pivot rows; no
retraction is stored.  Quotients and intersections are read off the
complement rows of the bases (``linalg.complement_rows``).
"""

from __future__ import annotations

import itertools

from .errors import AmbientMismatch, NotInvertible, ShapeMismatch
from .fields import Field
from .linalg import Matrix, _take_rows, column_selection, complement_rows

_space_counter = itertools.count()


class Space:
    """A based vector space with a unique handle and basis labels."""

    __slots__ = ("uid", "name", "dim", "labels", "field")

    def __init__(self, field: Field, dim: int, name: str = "", labels=None):
        if dim < 0:
            raise ShapeMismatch("negative dimension")
        self.uid = next(_space_counter)
        self.field = field
        self.dim = dim
        self.name = name or f"V{self.uid}"
        if labels is None:
            labels = [f"{self.name}.{i}" for i in range(dim)]
        labels = list(labels)
        if len(labels) != dim:
            raise ShapeMismatch("label count differs from dimension")
        if len(set(labels)) != dim:
            raise ShapeMismatch("duplicate basis labels")
        self.labels = tuple(labels)

    def __repr__(self):
        return f"Space({self.name}, dim={self.dim})"

    def basis_vector(self, i):
        f = self.field
        return tuple(f.one if j == i else f.zero for j in range(self.dim))


class LinearMap:
    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: Space, codomain: Space, matrix: Matrix):
        if matrix.shape != (codomain.dim, domain.dim):
            raise ShapeMismatch(
                f"matrix {matrix.shape} does not map {domain.name}(dim {domain.dim}) "
                f"to {codomain.name}(dim {codomain.dim})"
            )
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    # -- constructors --------------------------------------------------

    @staticmethod
    def identity(space: Space) -> "LinearMap":
        return LinearMap(space, space, Matrix.identity(space.field, space.dim))

    @staticmethod
    def zero(domain: Space, codomain: Space) -> "LinearMap":
        return LinearMap(domain, codomain, Matrix.zero(domain.field, codomain.dim, domain.dim))

    @staticmethod
    def from_columns(domain: Space, codomain: Space, cols) -> "LinearMap":
        return LinearMap(domain, codomain, Matrix.from_cols(domain.field, list(cols), codomain.dim))

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """Composition self after other."""
        if other.codomain is not self.domain:
            raise ShapeMismatch(
                f"composition mismatch: {other.codomain.name} vs {self.domain.name}"
            )
        return LinearMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def __add__(self, other):
        self._same_hom(other)
        return LinearMap(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other):
        self._same_hom(other)
        return LinearMap(self.domain, self.codomain, self.matrix - other.matrix)

    def __neg__(self):
        return LinearMap(self.domain, self.codomain, -self.matrix)

    def _same_hom(self, other):
        if self.domain is not other.domain or self.codomain is not other.codomain:
            raise ShapeMismatch("maps live between different spaces")

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.domain.uid, self.codomain.uid, self.matrix))

    def __repr__(self):
        return f"LinearMap({self.domain.name} -> {self.codomain.name})"

    def apply(self, vec):
        return self.matrix.apply(vec)

    def is_zero(self):
        return self.matrix.is_zero()

    def is_identity(self):
        return self.domain is self.codomain and self.matrix.is_identity()

    def rank(self):
        return self.matrix.rank()


class Subspace:
    """A subspace as its reduced-echelon ``basis``, built on ``rows`` with
    flag ``ints`` (``Matrix.from_sparse_rows``), and ``pivots``.

    Row i has 1 at ``pivots[i]`` and no entry at another pivot, checked on
    the stored rows; so the pivot entries of a vector in the subspace are
    its coordinates (``coordinates``).
    """

    __slots__ = ("ambient", "space", "basis", "pivots", "_inclusion")

    def __init__(self, ambient: Space, rows, pivots, name: str, ints):
        field = ambient.field
        self.ambient = ambient
        self.pivots = tuple(pivots)
        self.space = Space(field, len(self.pivots), name)
        self.basis = Matrix.from_sparse_rows(field, rows, ambient.dim, ints)
        self._inclusion = None
        one, pivset = field.one, set(self.pivots)
        if not self.basis.nrows == len(pivset) == self.dim or not all(
                r.get(p) == one and len(pivset.intersection(r)) == 1
                for r, p in zip(self.basis.sparse_rows(), self.pivots)):
            raise ShapeMismatch(f"{name}: the basis is not reduced at its pivots")

    @property
    def dim(self):
        return self.space.dim

    @property
    def inclusion(self) -> LinearMap:
        """The transposed basis, built on first read and kept."""
        if self._inclusion is None:
            self._inclusion = LinearMap(self.space, self.ambient, self.basis.transpose())
        return self._inclusion

    @staticmethod
    def from_spanning(ambient: Space, vectors, name: str = "") -> "Subspace":
        """Canonicalise a spanning family into a Subspace.

        ``vectors`` is a list of coordinate tuples, or a Matrix whose rows
        are the vectors."""
        field = ambient.field
        if isinstance(vectors, Matrix):
            mat = vectors
        else:
            mat = Matrix(field, list(vectors), ambient.dim)
        R, pivots = mat.rref()
        return Subspace(ambient, R.sparse_rows()[:len(pivots)], pivots,
                        name or f"sub({ambient.name})", R._ints)

    def coordinates(self, m: Matrix) -> Matrix:
        """The pivot rows of ``m``: each column of ``m`` that lies in the
        subspace, in its basis."""
        return _take_rows(m, self.pivots)

    def contains_vector(self, vec) -> bool:
        back = self.inclusion.apply(tuple(vec[p] for p in self.pivots))
        f = self.ambient.field
        return all(f.is_zero(f.sub(a, b)) for a, b in zip(back, vec))

    def contains_map(self, f: LinearMap) -> bool:
        """Whether the image of ``f`` (into the ambient) lies in this
        subspace: whether the inclusion of its coordinates is ``f``."""
        if f.codomain is not self.ambient:
            raise AmbientMismatch("map does not land in the ambient space")
        return self.inclusion.matrix @ self.coordinates(f.matrix) == f.matrix

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient is other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient.uid, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient.name})"


def kernel(f: LinearMap, name: str = "") -> Subspace:
    """Kernel as a canonical Subspace of the domain; rank-nullity checked."""
    return _kernel(f.domain, f.matrix, name or f"ker({f.domain.name})")


def _kernel(domain: Space, mat: Matrix, name: str) -> Subspace:
    """The kernel of ``mat`` on ``domain``, from one elimination.

    ``nullspace`` gives one vector per free column j of the rref, with 1 at
    j, 0 at the other free columns and every other nonzero left of j.  So
    for ``mat`` with its columns reversed, those vectors read backwards are
    the reduced-echelon basis of the kernel, each leading with 1 at its
    pivot and 0 at the other pivots, and in reverse order.  Rank plus
    nullity is the domain dimension exactly when those vectors are
    independent, that is when their leading columns are distinct.
    """
    last = mat.ncols - 1
    flipped = Matrix.from_sparse_rows(
        mat.field, [{last - k: v for k, v in r.items()} for r in mat.sparse_rows()],
        mat.ncols, mat._ints)
    null = flipped.nullspace()
    rows = [{last - k: v for k, v in r.items()} for r in reversed(null.sparse_rows())]
    pivots = [min(r) for r in rows]
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise ShapeMismatch(f"the nullspace basis of {name} is not independent")
    return Subspace(domain, rows, pivots, name, null._ints)


def image(f: LinearMap, name: str = "") -> Subspace:
    return Subspace.from_spanning(f.codomain, f.matrix.transpose(),
                                  name or f"im({f.codomain.name})")


def quotient(V: Space, S: Subspace, name: str = ""):
    """Quotient V/S with canonical complement-pivot basis.

    Returns (Q, proj, sect): ``proj`` the complement rows of S's basis,
    whose kernel is S, and ``sect`` the ``column_selection`` of the rest.
    """
    if S.ambient is not V:
        raise AmbientMismatch("subspace does not live in the given space")
    pivset = set(S.pivots)
    free = [j for j in range(V.dim) if j not in pivset]
    Q = Space(V.field, len(free), name or f"{V.name}/~", labels=[V.labels[j] for j in free])
    return (Q, LinearMap(V, Q, complement_rows(S.basis, S.pivots)),
            LinearMap(Q, V, column_selection(V.field, free, V.dim)))


def invert(f: LinearMap) -> LinearMap:
    """Two-sided inverse; NotInvertible carries rank and a kernel witness."""
    try:
        inv = f.matrix.inverse()
    except NotInvertible as exc:
        if f.domain.dim != f.codomain.dim:
            raise NotInvertible(
                f"{f!r}: dimension mismatch {f.domain.dim} vs {f.codomain.dim}",
                rank=f.matrix.rank(),
            ) from None
        raise NotInvertible(
            f"{f!r}: {exc}", rank=exc.rank, kernel_vector=exc.kernel_vector
        ) from None
    return LinearMap(f.codomain, f.domain, inv)


def intersect(subspaces, name: str = "") -> Subspace:
    """Set-theoretic intersection, via the kernel of stacked complements."""
    subspaces = list(subspaces)
    if not subspaces:
        raise AmbientMismatch("intersection of an empty family")
    ambient = subspaces[0].ambient
    if any(s.ambient is not ambient for s in subspaces):
        raise AmbientMismatch("subspaces live in different ambients")
    return _kernel(ambient, Matrix.stack_rows([complement_rows(s.basis, s.pivots)
                                               for s in subspaces]), name or "intersection")


def tensor_space(spaces) -> Space:
    """Plain k-tensor product space with product labels."""
    spaces = list(spaces)
    field = spaces[0].field
    dim = 1
    for s in spaces:
        if s.field is not field:
            raise ShapeMismatch("tensor factors over different fields")
        dim *= s.dim
    labels = []
    for combo in itertools.product(*[s.labels for s in spaces]):
        labels.append("|".join(combo))
    return Space(field, dim, "(" + "*".join(s.name for s in spaces) + ")", labels)
