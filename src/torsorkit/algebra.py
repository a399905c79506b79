"""Finite-dimensional algebras, bimodules and balanced tensor products.

The balanced tensor product M1 (x)_R1 M2 (x)_R2 ... Mn is realised once as a
``TensorChain``, the only balanced tensor the engine has: the quotient of the
full k-tensor ambient by all balancing relations.  ``chain_outer_bimodule``
gives a chain's carrier the outer bimodule structure of its edge factors.
Chains are cached, so the same factor/action data always yields the
identical carrier -- rebracketing never produces two different spaces.  A
link over a one-dimensional ring relates nothing (its lone basis vector is a
multiple of the unit, so it acts by one scalar on both legs), and the cache
drops it: T (x)_k T is the chain T (x) T.  A chain with no links is its
ambient.  Any other is its cached prefix plus one quotient step, by one
rule: the chain on all but the last factor, tensored with the last factor
and quotiented by the links that end there (maybe none), each read on the
prefix carrier (which keeps the quotient small).  No prefix is folded twice,
and no relation is generated on a chain's full ambient.  Every column of a
chain's ``sect`` is an ambient basis vector, so a step writes ``sect`` down
as a column selection (``_compose_selections``), and its ``proj`` is the
step's reduction rows applied to the prefix's ``proj``, assembled row by row
(``_lift_rows``); neither goes through ``kron_apply``.  Every map the engine
defines on representatives goes through ``induce(dom, raw, cod)``, the one
descent: a raw map from ``dom``'s ambient to ``cod``'s, projected by
``cod.proj``, must kill ``dom``'s relation span before it is read as a map
of carriers.  A raw map into a plain space takes ``single_chain`` of it as
``cod``, and ``chain_map`` is the descent of a map given as per-run blocks.
A chain carries only ``proj``/``sect`` with ``proj @ sect = I``; the
relation span is ``ker(proj)``, never built, and a map ``g`` kills it iff
``g == (g @ sect) @ proj`` (``first_unbalanced``).

A bimodule action is one matrix, on ``L (x) M`` or ``M (x) R``, and is
read whole: a balancing relation, a leg action on a chain carrier and a
linearity check each take the action matrix of the whole ring, never one
map per ring basis element.  ``leg_action`` is the one place a ring meets a
chain leg: it moves the ring leg beside the leg it acts on and reads the
action on the carrier, for chain steps, outer bimodules and every check
that acts on one leg of a balanced tensor product.  ``fix_left`` and
``fix_right`` read off the map of one ring element, given as a column.
Every action is written as a matrix expression in the structure maps, such
as ``mult o (alpha (x) id)``, and evaluated by ``kron_apply``; none is
built one basis vector at a time.

Elements the engine checks are columns, as the unit ``Algebra.unit_col``
is.  Each validator is an identity of maps checked on the whole basis at
once: associativity and the unit for ``Algebra``, ``map o mult = mult o
(map (x) map)`` for ``AlgebraMap``, and unitality, associativity and
commuting actions for ``Bimodule``; a failing identity names its first
failing basis element, the one a per-element loop would have stopped at.
``nonlinear_side`` is the one bimodule-linearity check, ``x o act_M =
act_N o (id (x) x)`` on either side, for every validator that needs it.
"""

from __future__ import annotations

import functools

from .errors import (
    ActionMismatch,
    NotAssociative,
    NotFree,
    NotHomomorphism,
    NotUnital,
    NotWellDefined,
    ShapeMismatch,
)
from .linalg import Matrix, _binomial_rref, kron_apply, permute_cols, split_leg
from .spaces import LinearMap, Space, Subspace, quotient, tensor_space


class Algebra:
    """Structure-constant algebra with unit, validated at construction.

    The unit is given and kept as a one-column matrix, ``unit_col``;
    ``unit`` is the same element as a coordinate vector, the form documents
    store."""

    def __init__(self, space: Space, mult: LinearMap, unit: Matrix, name: str = "",
                 check: bool = True):
        self.space = space
        self.field = space.field
        if mult.codomain is not space:
            raise ShapeMismatch("multiplication must land in the algebra space")
        if mult.domain.dim != space.dim * space.dim:
            raise ShapeMismatch("multiplication domain is not the square tensor")
        self.mult = mult
        if unit.shape != (space.dim, 1):
            raise ShapeMismatch("unit vector has wrong length")
        self.unit_col = unit
        self.name = name or space.name
        if check:
            self._validate()

    @functools.cached_property
    def unit(self):
        return self.unit_col.col(0)

    @property
    def dim(self):
        return self.space.dim

    def __repr__(self):
        return f"Algebra({self.name}, dim={self.dim})"

    def _validate(self):
        """mult o (mult (x) id) == mult o (id (x) mult), and the unit's left
        and right multiplication maps are the identity.  The witness is the
        first failing basis triple, or the first failing basis vector with
        the left side before the right."""
        n, f, mult = self.dim, self.field, self.mult.matrix
        xy_z = kron_apply(f, [mult], [n, n], None, [mult, None])
        x_yz = kron_apply(f, [mult], [n, n], None, [None, mult])
        if xy_z != x_yz:
            ij, k = divmod(first_nonzero_col(xy_z - x_yz), n)
            raise NotAssociative(*divmod(ij, n), k)
        by_unit = (fix_left(mult, self.unit_col, n), fix_right(mult, n, self.unit_col))
        if all(m.is_identity() for m in by_unit):
            return
        one = Matrix.identity(f, n)
        left, right = (first_nonzero_col(m - one) for m in by_unit)
        if right is None or (left is not None and left <= right):
            raise NotUnital(left, side="left")
        raise NotUnital(right, side="right")


def make_algebra(field, dim, structure_constants, unit, name="", labels=None) -> Algebra:
    """Algebra from sparse structure constants [(i, j, k, value), ...]."""
    space = Space(field, dim, name, labels)
    tensor = tensor_space([space, space])
    cols = [[field.zero] * dim for _ in range(dim * dim)]
    for (i, j, k, v) in structure_constants:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ShapeMismatch(f"structure constant index ({i},{j},{k}) out of range")
        cols[i * dim + j][k] = field.add(cols[i * dim + j][k], field.parse(v))
    mult = LinearMap.from_columns(tensor, space, cols)
    return Algebra(space, mult, Matrix.from_cols(field, [[field.parse(x) for x in unit]]), name)


def algebra_from_table(field, dim, table, unit, name="", labels=None) -> Algebra:
    """Algebra from a dense table: table[i][j] = coefficient vector of ei*ej."""
    sc = []
    for i in range(dim):
        for j in range(dim):
            for k, v in enumerate(table[i][j]):
                val = field.parse(v)
                if not field.is_zero(val):
                    sc.append((i, j, k, val))
    return make_algebra(field, dim, sc, unit, name, labels)


def field_algebra(field) -> Algebra:
    """The ground field k as a one-dimensional algebra."""
    return make_algebra(field, 1, [(0, 0, 0, field.one)], [field.one], "k")


def opposite(A: Algebra) -> Algebra:
    """The opposite algebra on the same underlying space."""
    space = Space(A.field, A.dim, A.name + "^op", A.space.labels)
    mult = permute_cols(A.mult.matrix, [A.dim, A.dim], (1, 0))
    return Algebra(space, LinearMap(tensor_space([space, space]), space, mult), A.unit_col,
                   A.name + "^op")


class AlgebraMap:
    """A validated (anti-)homomorphism of algebras."""

    def __init__(self, source: Algebra, target: Algebra, map: LinearMap,
                 anti: bool = False, check: bool = True):
        if map.domain is not source.space or map.codomain is not target.space:
            raise ShapeMismatch("algebra map has wrong underlying spaces")
        self.source = source
        self.target = target
        self.map = map
        self.anti = anti
        if check:
            self._validate()

    def _validate(self):
        """map @ unit == unit, and map o mult == mult o (map (x) map), with
        the factors swapped for an anti-homomorphism; the witness is the
        first failing basis pair."""
        src, tgt, m = self.source, self.target, self.map.matrix
        if m @ src.unit_col != tgt.unit_col:
            raise NotHomomorphism(f"{self!r} does not preserve the unit")
        lhs = m @ src.mult.matrix
        rhs = kron_apply(src.field, [tgt.mult.matrix], [tgt.dim] * 2,
                         (1, 0) if self.anti else None, [m, m])
        if lhs != rhs:
            i, j = divmod(first_nonzero_col(lhs - rhs), src.dim)
            kind = "anti-multiplication" if self.anti else "multiplication"
            raise NotHomomorphism(f"{self!r} does not preserve {kind} on basis pair ({i}, {j})")

    def is_injective(self):
        return self.map.rank() == self.source.dim

    def __repr__(self):
        arrow = "-/->" if self.anti else "->"
        return f"AlgebraMap({self.source.name} {arrow} {self.target.name})"


class Bimodule:
    """An L-R bimodule with explicit action matrices.

    ``lact: L (x) M -> M`` and ``ract: M (x) R -> M`` are stored as full
    matrices on k-tensor ambients so induced maps stay uniform; the map of
    one ring element is read with ``fix_left``/``fix_right``.
    """

    def __init__(self, space: Space, left: Algebra, right: Algebra,
                 lact: LinearMap, ract: LinearMap, check: bool = True):
        self.space = space
        self.left = left
        self.right = right
        if lact.codomain is not space or ract.codomain is not space:
            raise ShapeMismatch("actions must land in the module space")
        if lact.domain.dim != left.dim * space.dim:
            raise ShapeMismatch("left action domain has wrong dimension")
        if ract.domain.dim != space.dim * right.dim:
            raise ShapeMismatch("right action domain has wrong dimension")
        self.lact = lact
        self.ract = ract
        if check:
            self._validate()

    @property
    def dim(self):
        return self.space.dim

    @property
    def field(self):
        return self.space.field

    def _validate(self):
        """The actions are unital and associative and commute, each checked
        as one identity of maps on the whole of L, M and R."""
        L, R, f, n = self.left, self.right, self.field, self.dim
        lact, ract = self.lact.matrix, self.ract.matrix
        one = Matrix.identity(f, n)
        if fix_left(lact, L.unit_col, n) != one or fix_right(ract, n, R.unit_col) != one:
            raise ActionMismatch(f"actions on {self.space.name} are not unital")
        left = [L.dim, n]
        if (kron_apply(f, [lact], left, None, [L.mult.matrix, None])
                != kron_apply(f, [lact], left, None, [None, lact])):
            raise ActionMismatch("left action is not associative")
        right = [n, R.dim]
        if (kron_apply(f, [ract], right, None, [None, R.mult.matrix])
                != kron_apply(f, [ract], right, None, [ract, None])):
            raise ActionMismatch("right action is not associative")
        if (kron_apply(f, [ract], right, None, [lact, None])
                != kron_apply(f, [lact], left, None, [None, ract])):
            raise ActionMismatch("left and right actions do not commute")

    def __repr__(self):
        return f"Bimodule({self.left.name}-{self.space.name}-{self.right.name})"


def regular_bimodule(T: Algebra, left: AlgebraMap | None = None,
                     right: AlgebraMap | None = None, check: bool = True) -> Bimodule:
    """T as a bimodule over subalgebra images: ``mult o (alpha (x) id)`` and
    ``mult o (id (x) beta)``.

    ``left``/``right`` default to T acting on itself by multiplication.
    """
    L = left.source if left else T
    R = right.source if right else T
    f, n, mult = T.field, T.dim, T.mult.matrix
    lact = kron_apply(f, [mult], [n, n], None, [left.map.matrix if left else None, None])
    ract = kron_apply(f, [mult], [n, n], None, [None, right.map.matrix if right else None])
    return Bimodule(T.space, L, R, LinearMap(tensor_space([L.space, T.space]), T.space, lact),
                    LinearMap(tensor_space([T.space, R.space]), T.space, ract), check=check)


def sub_bimodule(sub: Subspace, outer: Bimodule, err=ActionMismatch) -> Bimodule:
    """Restrict a bimodule structure to a stable subspace.

    Raises ``err`` when an action does not preserve the subspace, naming the
    ring basis element of the first column, in action-matrix order, that
    leaves it.  The result is not validated again: the restriction of a
    bimodule to a stable subspace is one.
    """
    if sub.ambient is not outer.space:
        raise ShapeMismatch("subspace does not live in the bimodule space")
    L, R = outer.left, outer.right
    f, incl, n = outer.field, sub.inclusion.matrix, outer.dim
    lact = _restrict(sub, kron_apply(f, [outer.lact.matrix], [L.dim, n], None, [None, incl]),
                     lambda x: err(f"left action by {L.space.labels[x // sub.dim]} "
                                   "leaves the subspace"))
    ract = _restrict(sub, kron_apply(f, [outer.ract.matrix], [n, R.dim], None, [incl, None]),
                     lambda x: err(f"right action by {R.space.labels[x % R.dim]} "
                                   "leaves the subspace"))
    return Bimodule(sub.space, L, R,
                    LinearMap(tensor_space([L.space, sub.space]), sub.space, lact),
                    LinearMap(tensor_space([sub.space, R.space]), sub.space, ract), check=False)


def _restrict(sub: Subspace, full: Matrix, fail) -> Matrix:
    """``full`` read in the subspace's coordinates; ``fail(x)`` is raised at
    the first column x of ``full`` that leaves the subspace."""
    for x in range(full.ncols):
        if not sub.contains_vector(full.col(x)):
            raise fail(x)
    return sub.coordinates(full)


def factor_matrix(jmat: Matrix, fmat: Matrix, err, msg: str) -> Matrix:
    """The canonical X with ``jmat @ X == fmat`` (``Matrix.solve``, which
    checks it exactly).  When there is none, the image of ``fmat`` does not
    lie in the image of ``jmat``; the error raised is the mathematical
    verdict supplied by the caller."""
    X = jmat.solve(fmat)
    if X is None:
        raise err(msg)
    return X


def corestrict_through(j: LinearMap, f: LinearMap, err, msg: str) -> LinearMap:
    """Solve j o g = f for g (``factor_matrix`` on the maps' matrices);
    ``j`` must be injective."""
    if j.codomain is not f.codomain:
        raise ShapeMismatch("corestriction target mismatch")
    return LinearMap(f.domain, j.domain, factor_matrix(j.matrix, f.matrix, err, msg))


class Link:
    """Balancing relation between factor positions i < j of a chain.

    ``act_i: S_i (x) R -> S_i`` plays the right-action role and
    ``act_j: R (x) S_j -> S_j`` the left-action role; the relation span is
    generated by (x.r)_i - (r.x)_j over ring basis elements r.
    """

    __slots__ = ("i", "j", "ring", "act_i", "act_j")

    def __init__(self, i, j, ring: Algebra, act_i: LinearMap, act_j: LinearMap):
        if not i < j:
            raise ShapeMismatch("link positions must satisfy i < j")
        self.i, self.j, self.ring = i, j, ring
        self.act_i, self.act_j = act_i, act_j

    def key(self):
        return (self.i, self.j, self.ring.space.uid, self.act_i.matrix, self.act_j.matrix)


class TensorChain:
    """Canonical flat realisation of an iterated balanced tensor product."""

    def __init__(self, factor_spaces, links, carrier, proj, sect):
        self.factor_spaces = tuple(factor_spaces)
        self.links = tuple(links)
        self.carrier = carrier
        self.proj = proj          # ambient -> carrier; its kernel is the relation span
        self.sect = sect          # carrier -> ambient, proj @ sect = I
        self.ambient = proj.domain

    @property
    def dim(self):
        return self.carrier.dim

    def __repr__(self):
        return f"TensorChain({'*'.join(s.name for s in self.factor_spaces)}, dim={self.dim})"


_chain_cache: dict = {}
# never written; kept only because perfbench/worker.py lists it in GLOBAL_CACHES
_chain_outer_registry: dict = {}


def _relation_columns(field, rho: Matrix, lam: Matrix, m):
    """Nonzero columns of ``rho (x) id - id (x) lam`` on ``H (x) R (x) L``,
    in (w, r, x) order, each a dict ``{row: nonzero value}`` on ``H (x) L``.

    ``rho: H (x) R -> H`` is a right and ``lam: R (x) L -> L`` a left action
    of the m-dim ring R, so column (w, r, x) is ``w.r (x) x - w (x) r.x``;
    it is built from the two column supports, never from the operators,
    with native arithmetic: two terms cancel when their stored values are
    equal, and the sums where they met and did not are normalised together.
    """
    l = lam.nrows
    normalise = field.normalise
    rho_cols, lam_cols = rho.col_supports(), lam.col_supports()
    # each value c of lam beside -c in stored form, from one normalise
    neg = iter(normalise({k: -c for k, c in enumerate(c for col in lam_cols for _, c in col)},
                         False).values())
    lam_terms = [[(y, c, next(neg)) for y, c in col] for col in lam_cols]
    cols = []
    # (column, row) -> the raw sum where two terms met and did not cancel
    summed = {}
    for w in range(rho.nrows):
        base = w * l
        for r in range(m):
            wr = rho_cols[w * m + r]
            for x in range(l):
                entries = {v * l + x: c for v, c in wr}
                for y, c, nc in lam_terms[r * l + x]:
                    y += base
                    v = entries.get(y)
                    if v is None:
                        entries[y] = nc
                    elif v == c:
                        # stored forms are canonical: the two terms cancel
                        del entries[y]
                    else:
                        entries[y] = summed[len(cols), y] = v + nc
                if entries:
                    cols.append(entries)
    for (k, y), v in normalise(summed, True).items():
        cols[k][y] = v
    return cols


def tensor_chain(factors, rings, extra_links=()) -> TensorChain:
    """Balanced tensor of bimodule factors over the given rings.

    ``factors`` is a list of Bimodules, ``rings`` the list of middle algebras
    (adjacent links use factor i's right action and factor i+1's left
    action).  ``extra_links`` adds non-adjacent balancing relations.  Results
    are cached by factor spaces and action matrices, so equal data yields
    the identical carrier object.
    """
    factors = list(factors)
    rings = list(rings)
    if len(rings) != len(factors) - 1:
        raise ShapeMismatch("need exactly one ring slot between consecutive factors")
    links = []
    for idx, ring in enumerate(rings):
        if ring is None:
            continue
        M, N = factors[idx], factors[idx + 1]
        if M.right is not ring or N.left is not ring:
            raise ActionMismatch(
                f"factor actions do not match ring {ring.name} at position {idx}"
            )
        links.append(Link(idx, idx + 1, ring, M.ract, N.lact))
    links.extend(extra_links)
    return _cached_chain([m.space for m in factors], links)


def chain_of_spaces(spaces, links) -> TensorChain:
    """Like tensor_chain but with explicit spaces and links."""
    return _cached_chain(list(spaces), list(links))


def _cached_chain(spaces, links) -> TensorChain:
    # a link over a one-dimensional ring relates nothing (module docstring)
    links = [l for l in links if l.ring.dim > 1]
    key = (tuple(s.uid for s in spaces), tuple(sorted(l.key() for l in links)))
    chain = _chain_cache.get(key)
    if chain is None:
        chain = _chain_cache[key] = _build_chain(spaces, links)
    return chain


def _build_chain(spaces, links) -> TensorChain:
    """A chain with no links is its ambient; any other is its cached prefix
    and one quotient step.

    A single factor is its own ambient and carrier.  No link here is over a
    one-dimensional ring: such a link relates nothing, and ``_cached_chain``
    drops it.  The prefix ``head`` is the chain on all factors but the last,
    with the links that end before it.  The step tensors its carrier with
    the last factor and quotients by the relations of every link that ends
    at the last factor (the zero span if none does), each link's whole right
    action read on the prefix carrier at its own leg (``_prefix_action``).
    The step's ``proj`` is the complement rows of the span's echelon rows,
    which are never transposed.  The chain's ``sect`` is a column
    selection: the prefix's selection composed with the step's.  Its
    ``proj`` is ``step_proj @ (head.proj (x) I)``, assembled row by row.
    A column is free in the reduced echelon form of the whole relation span
    exactly when it is free once the prefix's relations are quotiented out,
    so the carrier basis does not depend on the order the links are folded
    in.
    When every relation has at most two terms, as every relation of a
    monomial basis does, the step's span is eliminated by weighted
    union-find (``linalg._binomial_rref``); any other span by
    ``Subspace.from_spanning``.  Both give the one reduced echelon form, so
    the carrier does not depend on which ran.
    """
    field = spaces[0].field
    ambient = spaces[0] if len(spaces) == 1 else tensor_space(spaces)
    name = "(x)".join(s.name for s in spaces)
    if not links:
        carrier = ambient if len(spaces) == 1 else Space(field, ambient.dim, name, ambient.labels)
        ident = Matrix.identity(field, ambient.dim)
        return TensorChain(spaces, (), carrier, LinearMap(ambient, carrier, ident),
                           LinearMap(carrier, ambient, ident))
    n = len(spaces)
    head = _cached_chain(spaces[:-1], [l for l in links if l.j < n - 1])
    last = spaces[-1]
    # a prefix with no quotient keeps its factors' product labels
    step_amb = ambient if head.dim == head.ambient.dim else tensor_space([head.carrier, last])
    rel_cols, ints = [], True
    for link in links:
        if link.j == n - 1:
            rho, lam = _prefix_action(head, link), link.act_j.matrix
            rel_cols += _relation_columns(field, rho, lam, link.ring.dim)
            ints = ints and rho._ints and lam._ints
    if max(map(len, rel_cols), default=0) <= 2:
        rows, pivots, units = _binomial_rref(rel_cols, field)
        # flagged as Matrix.rref flags an echelon form: int when every inverse was
        rel = Subspace(step_amb, rows[:len(pivots)], pivots, f"sub({step_amb.name})",
                       ints if units else None)
    else:
        rel = Subspace.from_spanning(
            step_amb, Matrix.from_sparse_rows(field, rel_cols, step_amb.dim, ints))
    carrier, step_proj, step_sect = quotient(step_amb, rel, name)
    proj = _lift_rows(field, step_proj.matrix, head.proj.matrix, last.dim)
    sect = _compose_selections(field, head.sect.matrix, step_sect.matrix, last.dim)
    proj, sect = LinearMap(ambient, carrier, proj), LinearMap(carrier, ambient, sect)
    if not (proj @ sect).is_identity():
        raise ShapeMismatch(f"the section of {name} does not split its projection")
    return TensorChain(spaces, links, carrier, proj, sect)


def _lift_rows(field, step: Matrix, head: Matrix, width) -> Matrix:
    """``step @ (head (x) I_width)``, assembled row by row: entry (s, c) of
    a ``step`` row, with (x, l) = divmod(s, width), adds c times ``head``
    row x at columns k * width + l."""
    if head.is_identity():
        return step
    normalise, head_rows = field.normalise, head.sparse_rows()
    out = []
    for row in step.sparse_rows():
        acc = {}
        get = acc.get
        terms = 0
        for s, c in row.items():
            x, l = divmod(s, width)
            hrow = head_rows[x]
            terms += len(hrow)
            for k, v in hrow.items():
                y = k * width + l
                w = get(y)
                acc[y] = c * v if w is None else w + c * v
        out.append(normalise(acc, terms > len(acc)))
    return Matrix.from_sparse_rows(field, out, head.ncols * width, step._ints and head._ints)


def _compose_selections(field, head: Matrix, step: Matrix, width) -> Matrix:
    """``(head (x) I_width) @ step`` for two selection matrices, each column
    an ambient unit vector: the column q that ``step`` puts at row s, with
    (x, l) = divmod(s, width), lands at row pos(x) * width + l, where pos(x)
    is the row of ``head``'s column x, read off its sparse rows."""
    if head.is_identity():
        return step
    pos = [None] * head.ncols
    for i, row in enumerate(head.sparse_rows()):
        for x in row:
            pos[x] = i
    one = field.one
    out = [{} for _ in range(head.nrows * width)]
    for s, row in enumerate(step.sparse_rows()):
        x, l = divmod(s, width)
        for q in row:
            out[pos[x] * width + l] = {q: one}
    return Matrix.from_sparse_rows(field, out, step.ncols, True)


def single_chain(space: Space) -> TensorChain:
    """A one-factor chain: the space is its ambient and its carrier."""
    return chain_of_spaces([space], [])


def induce(dom: TensorChain, raw: Matrix, cod: TensorChain, name: str = "") -> LinearMap:
    """Descend a raw map ``dom.ambient -> cod.ambient`` to the carriers.

    ``cod.proj @ raw`` must kill the balancing relations of ``dom``; the
    failure witness is a relation vector with nonzero image.  A raw map
    that already lands in a plain space takes ``single_chain`` of it as
    ``cod``, whose ``proj`` is the identity.
    """
    if raw.ncols != dom.ambient.dim:
        raise ShapeMismatch("raw map is not defined on the chain ambient")
    g = cod.proj.matrix @ raw
    proj, sect = dom.proj.matrix, dom.sect.matrix
    composed = g @ sect
    bad = first_unbalanced(g, proj, sect, composed)
    if bad is not None:
        raise NotWellDefined(f"{name or 'map'} is not balanced on {dom!r}",
                             witness=relation_witness(proj, sect, bad))
    return LinearMap(dom.carrier, cod.carrier, composed)


def first_unbalanced(g: Matrix, proj: Matrix, sect: Matrix, g_sect: Matrix | None = None):
    """First column x at which ``g`` and ``g @ sect @ proj`` differ, or None.

    ``proj @ sect = I``, so ``sect @ proj`` is the projector along
    ``ker(proj)`` and ``g`` kills ``ker(proj)`` iff ``g == (g @ sect) @ proj``.
    ``g_sect`` is ``g @ sect`` when the caller has it already.  A square
    ``proj`` is invertible and has nothing to kill.
    """
    if proj.nrows == proj.ncols:
        return None
    back = (g @ sect if g_sect is None else g_sect) @ proj
    return None if back == g else first_nonzero_col(g - back)


def first_nonzero_col(m: Matrix):
    """The least column index at which ``m`` has a nonzero entry, or None;
    read off the sparse rows, so for a difference ``a - b`` the first basis
    vector on which a and b differ."""
    return min((min(r) for r in m.sparse_rows() if r), default=None)


def relation_witness(proj: Matrix, sect: Matrix, x: int):
    """``e_x - sect @ proj @ e_x``, a vector of ``ker(proj)``; at the index
    ``first_unbalanced`` returns, the map has a nonzero image on it."""
    f = proj.field
    v = [f.neg(a) for a in sect.apply(proj.col(x))]
    v[x] = f.add(v[x], f.one)
    return tuple(v)


def chain_map(dom: TensorChain, blocks, cod: TensorChain, name: str = "") -> LinearMap:
    """Assemble a carrier-level map from per-run block maps.

    ``blocks`` is a list of (dom_run_len, block, cod_run_len); ``block``
    maps the carrier of the dom sub-chain onto the carrier of the cod
    sub-chain (None = identity on a single shared factor).  Balance across
    block boundaries is verified by ``induce``.
    """
    di = ci = 0
    mat = None
    for (dlen, block, clen) in blocks:
        dom_run = _subchain(dom, di, di + dlen)
        cod_run = _subchain(cod, ci, ci + clen)
        if block is None:
            if dom_run.carrier.dim != cod_run.carrier.dim:
                raise ShapeMismatch("identity block between different dims")
            piece = cod_run.sect.matrix @ dom_run.proj.matrix
        else:
            if block.domain is not dom_run.carrier:
                raise ShapeMismatch(
                    f"block domain {block.domain.name} is not the run carrier {dom_run.carrier.name}"
                )
            if block.codomain is not cod_run.carrier:
                raise ShapeMismatch(
                    f"block codomain {block.codomain.name} is not the run carrier {cod_run.carrier.name}"
                )
            piece = cod_run.sect.matrix @ block.matrix @ dom_run.proj.matrix
        mat = piece if mat is None else mat.kron(piece)
        di += dlen
        ci += clen
    if di != len(dom.factor_spaces) or ci != len(cod.factor_spaces):
        raise ShapeMismatch("blocks do not cover the chains")
    return induce(dom, mat, cod, name)


def _subchain(chain: TensorChain, a: int, b: int) -> TensorChain:
    spaces = chain.factor_spaces[a:b]
    links = []
    for l in chain.links:
        if a <= l.i and l.j < b:
            links.append(Link(l.i - a, l.j - a, l.ring, l.act_i, l.act_j))
    return chain_of_spaces(spaces, links)


def chain_outer_bimodule(chain: TensorChain, left_factor: Bimodule,
                         right_factor: Bimodule) -> Bimodule:
    """Outer bimodule structure on a chain carrier, from the edge factors:
    the left factor's action on the first leg and the right factor's on the
    last (``leg_action``).  The result is not validated again: the edge
    actions of a balanced tensor product of bimodules make it one."""
    L, R = left_factor.left, right_factor.right
    last = len(chain.factor_spaces) - 1
    return Bimodule(chain.carrier, L, R,
                    LinearMap(tensor_space([L.space, chain.carrier]), chain.carrier,
                              leg_action(chain, 0, L, left_factor.lact.matrix, "left")),
                    LinearMap(tensor_space([chain.carrier, R.space]), chain.carrier,
                              leg_action(chain, last, R, right_factor.ract.matrix, "right")),
                    check=False)


def leg_action(chain: TensorChain, leg: int, ring: Algebra, act: Matrix, side: str,
               rep: Matrix | None = None) -> Matrix:
    """The whole action ``act`` of ``ring`` on leg ``leg`` of a chain, read
    on its carrier: ``proj @ (act on the leg) @ P @ (rep (x) I)`` for
    ``side="right"`` and ``proj @ (act on the leg) @ P @ (I (x) rep)`` for
    "left", P moving the ring leg just after or just before the leg, through
    ``kron_apply``.  ``rep`` maps into the ambient and defaults to ``sect``.
    The one place a ring meets a chain leg."""
    if side not in ("left", "right"):
        raise ShapeMismatch(f"side must be 'left' or 'right', not {side!r}")
    f, m = chain.carrier.field, ring.dim
    dims = [s.dim for s in chain.factor_spaces]
    n = len(dims)
    legs = [None] * n
    legs[leg] = act
    rep = chain.sect.matrix if rep is None else rep
    if side == "right":
        order, dims, g = [*range(leg + 1), n, *range(leg + 1, n)], dims + [m], [rep, None]
    else:
        order, dims, g = [*range(1, leg + 1), 0, *range(leg + 1, n + 1)], [m] + dims, [None, rep]
    # beside an edge leg the ring leg is in place already: no reordering
    order = None if order == sorted(order) else order
    return chain.proj.matrix @ kron_apply(f, legs, dims, order, g)


def _prefix_action(head: TensorChain, link: Link) -> Matrix:
    """The whole right action ``H (x) R -> H`` of ``link.ring`` on leg
    ``link.i`` of a chain step's prefix H, read on the prefix carrier
    (``leg_action``).

    On an inner leg of a prefix with a quotient the action must descend
    through the prefix's relations: read along the ambient leg
    (``split_leg``), the action on the ambient must kill ``ker(proj)``
    (``first_unbalanced``), or ``NotWellDefined`` names a relation."""
    pos, act = link.i, link.act_i.matrix
    if pos < len(head.factor_spaces) - 1 and head.dim < head.ambient.dim:
        proj, sect, amb = head.proj.matrix, head.sect.matrix, head.ambient.dim
        raw = leg_action(head, pos, link.ring, act, "right", Matrix.identity(proj.field, amb))
        bad = first_unbalanced(split_leg(raw, [amb, link.ring.dim], 0), proj, sect)
        if bad is not None:
            raise NotWellDefined(f"the right {link.ring.name}-action on leg {pos} is not "
                                 f"balanced on {head!r}",
                                 witness=relation_witness(proj, sect, bad))
    return leg_action(head, pos, link.ring, act, "right")


def fix_left(bilinear: Matrix, u: Matrix, n) -> Matrix:
    """``x -> bilinear(u (x) x)`` on an n-dim second leg: the map of one
    element, given as a column u, read off a left action (or product)
    matrix, as ``bilinear @ (u (x) id)``."""
    return bilinear @ u.kron(Matrix.identity(u.field, n))


def fix_right(bilinear: Matrix, n, v: Matrix) -> Matrix:
    """``x -> bilinear(x (x) v)`` on an n-dim first leg: the map of one
    element, given as a column v, read off a right action (or product)
    matrix, as ``bilinear @ (id (x) v)``."""
    return bilinear @ Matrix.identity(v.field, n).kron(v)


def nonlinear_side(x: Matrix, M: Bimodule, N: Bimodule, sides=("left", "right")):
    """The first of ``sides`` on which ``x: M -> N`` is not linear, or None:
    "left" when ``x o lact_M != lact_N o (id (x) x)``, "right" when
    ``x o ract_M != ract_N o (x (x) id)``."""
    f = x.field
    for side in sides:
        if side == "left":
            ok = x @ M.lact.matrix == N.lact.matrix @ Matrix.identity(f, M.left.dim).kron(x)
        else:
            ok = x @ M.ract.matrix == N.ract.matrix @ x.kron(Matrix.identity(f, M.right.dim))
        if not ok:
            return side
    return None


class FreenessCertificate:
    """Witness that a one-sided module is free of the forced rank."""

    def __init__(self, module: Bimodule, side: str, rank: int, iso: LinearMap, generators):
        self.module = module
        self.side = side
        self.rank = rank
        self.iso = iso
        self.generators = generators

    def __repr__(self):
        return f"FreenessCertificate({self.module.space.name}, {self.side}, rank={self.rank})"


def certify_free(M: Bimodule, side: str) -> FreenessCertificate:
    """Certify M free as a one-sided module, solving for an explicit iso.

    Generators, one-column matrices, are searched deterministically among
    basis vectors, running sums and pairwise sums, each orbit read off the
    action matrix with ``fix_left``/``fix_right``; NotFree means no
    certificate was found (which does not decide faithful flatness).
    """
    if side not in ("left", "right"):
        raise ShapeMismatch("side must be 'left' or 'right'")
    alg = M.left if side == "left" else M.right
    if alg.dim == 0 or M.dim % alg.dim != 0:
        raise NotFree(f"dim {M.dim} not a multiple of dim {alg.dim}")
    rank = M.dim // alg.dim
    field, n = M.field, M.dim
    # the supports of the candidates: basis vectors, running sums, pairwise sums
    supports = ([{i} for i in range(n)] + [set(range(i + 1)) for i in range(n)]
                + [{i, j} for i in range(min(n, 6)) for j in range(i + 1, min(n, 6))])
    chosen, orbits = [], []
    span = Matrix.zero(field, 0, n)
    for support in supports:
        if len(chosen) == rank:
            break
        v = Matrix.from_sparse_rows(field, [{0: field.one} if i in support else {}
                                            for i in range(n)], 1)
        # the orbit a.v (left) or v.a (right) over the basis a of alg, as columns
        orbit = (fix_right(M.lact.matrix, alg.dim, v) if side == "left"
                 else fix_left(M.ract.matrix, v, alg.dim))
        R, pivots = Matrix.stack_rows([span, orbit.transpose()]).rref()
        if len(pivots) == span.nrows + alg.dim:
            chosen.append(v)
            orbits.append(orbit)
            span = Matrix.from_sparse_rows(field, R.sparse_rows()[:len(pivots)], n)
    if len(chosen) != rank:
        raise NotFree(f"no free generating set of rank {rank} found for {M!r}")
    iso = LinearMap(Space(field, n, f"{alg.name}^{rank}"), M.space,
                    functools.reduce(Matrix.augment, orbits, Matrix.zero(field, n, 0)))
    if iso.rank() != M.dim:
        raise NotFree("assembled module map is not bijective")
    return FreenessCertificate(M, side, rank, iso, chosen)
