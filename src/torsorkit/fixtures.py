"""Deterministic desk-scale example bundles, each with its own oracle.

Every fixture is rebuilt from first principles on each call.  Before a
bundle is emitted, an oracle checks the construction independently: Hopf
axioms are verified by direct matrix identities, and the expected dimensions
of the derived objects (the two corings, the coinvariant sub-bimodule, the
degree-one forms) are recomputed by naive kernel enumeration using only the
basic linear algebra layer -- none of the chain or coring machinery.  The
stored expectations exist to catch regressions, not to define truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, AlgebraMap, algebra_from_table, make_algebra
from .errors import TorsorKitError, UnknownFixture
from .fields import QQ, Field
from .linalg import Matrix, permute_cols
from .pretorsor import PreTorsorBundle, TorsorBundle, make_bundle
from .spaces import LinearMap, Space, Subspace, intersect, kernel, quotient


@dataclass
class HopfData:
    """A Hopf algebra presented by matrices (base ring = the scalar field)."""

    algebra: Algebra
    delta: Matrix        # n^2 x n
    eps: Matrix          # 1 x n
    antipode: Matrix     # n x n


@dataclass
class Fixture:
    name: str
    bundle: PreTorsorBundle
    oracle_report: dict
    hopf: HopfData | None = None
    twist: dict | None = None
    comment: str = ""


FIXTURE_NAMES = ("EX-TRIV", "EX-C2", "EX-SW", "EX-M2", "EX-SMASH",
                 "EX-Q3", "EX-Q4")

# regression guards; the oracle recomputes these every run
_EXPECTED = {
    "EX-TRIV": {"dim_C": 1, "dim_D": 1, "dim_Tbar": 1, "dim_Omega1A": 0},
    "EX-C2": {"dim_C": 2, "dim_D": 2, "dim_Tbar": 2, "dim_Omega1A": 1},
    "EX-SW": {"dim_C": 4, "dim_D": 4, "dim_Tbar": 4, "dim_Omega1A": 3},
    "EX-M2": {"dim_C": 4, "dim_D": 4, "dim_Tbar": 4, "dim_Omega1A": 0},
    "EX-SMASH": {"dim_C": 2, "dim_D": 8, "dim_Tbar": 4, "dim_Omega1A": 1},
    "EX-Q3": {"dim_C": 3, "dim_D": 3, "dim_Tbar": 3, "dim_Omega1A": 2},
    "EX-Q4": {"dim_C": 4, "dim_D": 4, "dim_Tbar": 4, "dim_Omega1A": 3},
}


# ---------------------------------------------------------------------------
# independent oracle (exact linear algebra only)


def oracle_check_hopf(field: Field, mult: Matrix, unit, delta: Matrix,
                      eps: Matrix, antipode: Matrix) -> None:
    """Direct matrix verification of the Hopf axioms; raises on failure."""
    n = mult.nrows
    idn = Matrix.identity(field, n)
    unit_col = Matrix(field, [(x,) for x in unit], 1)
    if delta.kron(idn) @ delta != idn.kron(delta) @ delta:
        raise TorsorKitError("oracle: coproduct is not coassociative")
    if eps.kron(idn) @ delta != idn or idn.kron(eps) @ delta != idn:
        raise TorsorKitError("oracle: counit law fails")
    m2 = permute_cols(mult.kron(mult), [n] * 4, (0, 2, 1, 3))
    if delta @ mult != m2 @ delta.kron(delta):
        raise TorsorKitError("oracle: coproduct is not an algebra map")
    if eps @ mult != eps.kron(eps):
        raise TorsorKitError("oracle: counit is not an algebra map")
    one = Matrix(field, [(field.one,)], 1)
    if eps @ unit_col != one or delta @ unit_col != unit_col.kron(unit_col):
        raise TorsorKitError("oracle: unit is not group-like")
    conv1 = mult @ antipode.kron(idn) @ delta
    conv2 = mult @ idn.kron(antipode) @ delta
    if conv1 != unit_col @ eps or conv2 != unit_col @ eps:
        raise TorsorKitError("oracle: antipode identities fail")


def _naive_relations(field, n, act_right: Matrix, act_left: Matrix, rdim):
    """Relation rows for one balanced link on a pair of n-dim legs."""
    rows = []
    for r in range(rdim):
        er = [field.one if i == r else field.zero for i in range(rdim)]
        # x.er on the left leg
        mi_cols = []
        for t in range(n):
            vec = [field.zero] * (n * rdim)
            vec[t * rdim + r] = field.one
            mi_cols.append(act_right.apply(tuple(vec)))
        mi = Matrix.from_cols(field, mi_cols, n)
        mj_cols = []
        for t in range(n):
            vec = [field.zero] * (rdim * n)
            vec[r * n + t] = field.one
            mj_cols.append(act_left.apply(tuple(vec)))
        mj = Matrix.from_cols(field, mj_cols, n)
        rows.append((mi, mj))
    return rows


def _naive_quotient(field, leg_dims, links):
    """Quotient of a plain tensor power by balancing relations.

    ``links`` is a list of (position, act_right, act_left, ring_dim) acting
    on legs (position, position+1).  Returns (space, proj, sect).
    """
    total = 1
    for d in leg_dims:
        total *= d
    amb = Space(field, total, "oracle-amb")
    gen_rows = []
    for (pos, act_r, act_l, rdim) in links:
        n1, n2 = leg_dims[pos], leg_dims[pos + 1]
        left = 1
        for d in leg_dims[:pos]:
            left *= d
        right = 1
        for d in leg_dims[pos + 2:]:
            right *= d
        for mi, mj in _naive_relations(field, n1, act_r, act_l, rdim):
            # mi acts on leg pos, mj on leg pos+1; build the difference
            gi = Matrix.identity(field, left).kron(mi).kron(
                Matrix.identity(field, n2 * right))
            gj = Matrix.identity(field, left * n1).kron(mj).kron(
                Matrix.identity(field, right))
            diff = gi - gj
            for j in range(total):
                col = diff.col(j)
                if any(not field.is_zero(x) for x in col):
                    gen_rows.append(col)
    rel = Subspace.from_spanning(amb, gen_rows)
    return quotient(amb, rel)


def _oracle_dims(field, T: Algebra, alpha: Matrix, beta: Matrix,
                 tau_raw: Matrix, adim, bdim) -> dict:
    """Naive recomputation of the derived dimensions for one bundle."""
    n = T.dim
    m = T.mult.matrix
    idn = Matrix.identity(field, n)
    unit_col = Matrix(field, [(x,) for x in T.unit], 1)
    # right multiplication by alpha/beta images, as actions on pairs
    ract_alpha = m @ idn.kron(alpha)          # T (x) A -> T
    lact_alpha = m @ alpha.kron(idn)
    ract_beta = m @ idn.kron(beta)
    lact_beta = m @ beta.kron(idn)

    q2b, p2b, s2b = _naive_quotient(field, [n, n],
                                    [(0, ract_beta, lact_beta, bdim)])
    q2a, p2a, s2a = _naive_quotient(field, [n, n],
                                    [(0, ract_alpha, lact_alpha, adim)])
    q3, p3, s3 = _naive_quotient(
        field, [n, n, n],
        [(0, ract_alpha, lact_alpha, adim), (1, ract_beta, lact_beta, bdim)])
    q3bar, p3bar, s3bar = _naive_quotient(
        field, [n, n, n],
        [(0, ract_beta, lact_beta, bdim), (1, ract_alpha, lact_alpha, adim)])

    # dim C: kernel of x (x) y -> x tau(y) - 1 (x) x (x) y on q2b
    omega_c = p3.matrix @ (
        m.kron(idn).kron(idn) @ idn.kron(tau_raw)
        - unit_col.kron(idn).kron(idn)) @ s2b.matrix
    C_basis = Matrix(field, omega_c.kernel_basis() or [], q2b.dim)
    dim_C = C_basis.nrows

    omega_d = p3.matrix @ (
        idn.kron(idn).kron(m) @ tau_raw.kron(idn)
        - idn.kron(idn).kron(unit_col)) @ s2a.matrix
    D_basis = Matrix(field, omega_d.kernel_basis() or [], q2a.dim)
    dim_D = D_basis.nrows

    # Tbar as the intersection (C (x) T and T (x) D inside q3bar)
    ct_cols = []
    for i in range(dim_C):
        rep = s2b.apply(C_basis.rows[i])
        for t in range(n):
            vec = [field.zero] * (n ** 3)
            for j, x in enumerate(rep):
                vec[j * n + t] = x
            ct_cols.append(p3bar.apply(tuple(vec)))
    td_cols = []
    for i in range(dim_D):
        rep = s2a.apply(D_basis.rows[i])
        for t in range(n):
            vec = [field.zero] * (n ** 3)
            for j, x in enumerate(rep):
                vec[t * n * n + j] = x
            td_cols.append(p3bar.apply(tuple(vec)))
    S_ct = Subspace.from_spanning(q3bar, ct_cols)
    S_td = Subspace.from_spanning(q3bar, td_cols)
    dim_Tbar = intersect([S_ct, S_td]).dim

    # degree-one forms on the A side: mu = 0 and the tau condition, in q2b
    cond1 = m @ s2b.matrix
    first_leg_tau = p3.matrix @ \
        (m.kron(idn).kron(idn) @ idn.kron(tau_raw)) @ s2b.matrix
    embed = p3.matrix @ unit_col.kron(s2b.matrix)
    cond2 = first_leg_tau - embed
    stacked = Matrix.stack_rows([cond1, cond2])
    dim_Omega1A = len(stacked.kernel_basis())

    return {"dim_C": dim_C, "dim_D": dim_D, "dim_Tbar": dim_Tbar,
            "dim_Omega1A": dim_Omega1A}


# ---------------------------------------------------------------------------
# fixture constructions


def field_algebra(field: Field) -> Algebra:
    return make_algebra(field, 1, [(0, 0, 0, field.one)], [field.one], "k")


def unit_algebra_map(k: Algebra, T: Algebra) -> AlgebraMap:
    return AlgebraMap(k, T, LinearMap.from_columns(k.space, T.space, [T.unit]))


def group_algebra(field: Field, n: int, name: str) -> Algebra:
    sc = [(i, j, (i + j) % n, field.one) for i in range(n) for j in range(n)]
    unit = [field.one] + [field.zero] * (n - 1)
    labels = ["e" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(n)]
    return make_algebra(field, n, sc, unit, name, labels)


def group_hopf(field: Field, n: int, name: str) -> HopfData:
    T = group_algebra(field, n, name)
    dim = n
    z, o = field.zero, field.one
    delta_cols = []
    for i in range(dim):
        col = [z] * (dim * dim)
        col[i * dim + i] = o
        delta_cols.append(col)
    delta = Matrix.from_cols(field, delta_cols, dim * dim)
    eps = Matrix(field, [tuple([o] * dim)], dim)
    s_cols = []
    for i in range(dim):
        col = [z] * dim
        col[(-i) % n] = o
        s_cols.append(col)
    antipode = Matrix.from_cols(field, s_cols, dim)
    return HopfData(T, delta, eps, antipode)


def sweedler_hopf(field: Field) -> HopfData:
    z, o = field.zero, field.one
    mo = field.neg(o)
    # basis 1, g, x, gx
    table = [
        [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]],
        [[z, o, z, z], [o, z, z, z], [z, z, z, o], [z, z, o, z]],
        [[z, z, o, z], [z, z, z, mo], [z, z, z, z], [z, z, z, z]],
        [[z, z, z, o], [z, z, mo, z], [z, z, z, z], [z, z, z, z]],
    ]
    T = algebra_from_table(field, 4, table, [o, z, z, z], "H4",
                           labels=["1", "g", "x", "gx"])
    dim = 4
    dcols = [[z] * 16 for _ in range(4)]
    dcols[0][0 * 4 + 0] = o                      # 1 -> 1(x)1
    dcols[1][1 * 4 + 1] = o                      # g -> g(x)g
    dcols[2][2 * 4 + 0] = o                      # x -> x(x)1 + g(x)x
    dcols[2][1 * 4 + 2] = o
    dcols[3][3 * 4 + 1] = o                      # gx -> gx(x)g + 1(x)gx
    dcols[3][0 * 4 + 3] = o
    delta = Matrix.from_cols(field, dcols, 16)
    eps = Matrix(field, [(o, o, z, z)], 4)
    scols = [[o, z, z, z], [z, o, z, z], [z, z, z, mo], [z, z, o, z]]
    antipode = Matrix.from_cols(field, scols, 4)
    return HopfData(T, delta, eps, antipode)


def hopf_torsor_tau(h: HopfData) -> Matrix:
    """tau = (id (x) S (x) id) o (Delta (x) id) o Delta."""
    n = h.algebra.dim
    idn = Matrix.identity(h.algebra.field, n)
    return idn.kron(h.antipode).kron(idn) @ h.delta.kron(idn) @ h.delta


def matrix_algebra(field: Field, size: int = 2) -> Algebra:
    idx = {}
    k = 0
    for a in range(size):
        for bb in range(size):
            idx[(a, bb)] = k
            k += 1
    sc = []
    for (a, bb), i in idx.items():
        for (c, d), j in idx.items():
            if bb == c:
                sc.append((i, j, idx[(a, d)], field.one))
    unit = [field.zero] * (size * size)
    for a in range(size):
        unit[idx[(a, a)]] = field.one
    labels = [f"E{a+1}{bb+1}" for a in range(size) for bb in range(size)]
    return make_algebra(field, size * size, sc, unit, f"M{size}", labels)


def poly_mod_algebra(field: Field) -> Algebra:
    """k[y]/(y^2 - 1), the order-two measured algebra."""
    o, z = field.one, field.zero
    sc = [(0, 0, 0, o), (0, 1, 1, o), (1, 0, 1, o), (1, 1, 0, o)]
    return make_algebra(field, 2, sc, [o, z], "B", labels=["1", "y"])


def smash_product(field: Field, B: Algebra, h: HopfData, action: Matrix,
                  name: str = "B#H") -> Algebra:
    """The smash product algebra on B (x) H: (b#h)(c#k) = b(h1.c) # h2 k."""
    nb, nh = B.dim, h.algebra.dim
    dim = nb * nh
    sc = []
    f = field
    for i in range(nb):
        for j in range(nh):
            for p in range(nb):
                for q in range(nh):
                    # (e_i # e_j)(e_p # e_q)
                    d = h.delta.col(j)  # coefficients of Delta(e_j)
                    acc = [f.zero] * dim
                    for idx1 in range(nh):
                        for idx2 in range(nh):
                            cji = d[idx1 * nh + idx2]
                            if f.is_zero(cji):
                                continue
                            avec = [f.zero] * (nh * nb)
                            avec[idx1 * nb + p] = cji
                            acted = action.apply(tuple(avec))
                            prod_b = B.product_vec(B.space.basis_vector(i),
                                                   acted)
                            prod_h = h.algebra.product_vec(
                                h.algebra.space.basis_vector(idx2),
                                h.algebra.space.basis_vector(q))
                            for bi, bv in enumerate(prod_b):
                                if f.is_zero(bv):
                                    continue
                                for hi, hv in enumerate(prod_h):
                                    if not f.is_zero(hv):
                                        acc[bi * nh + hi] = f.add(
                                            acc[bi * nh + hi], f.mul(bv, hv))
                    for kk, v in enumerate(acc):
                        if not f.is_zero(v):
                            sc.append((i * nh + j, p * nh + q, kk, v))
    unit = [f.zero] * dim
    for bi, bv in enumerate(B.unit):
        for hi, hv in enumerate(h.algebra.unit):
            v = f.mul(bv, hv)
            if not f.is_zero(v):
                unit[bi * nh + hi] = v
    labels = [f"{bl}#{hl}" for bl in B.space.labels for hl in h.algebra.space.labels]
    return make_algebra(f, dim, sc, unit, name, labels)


def c2_action_on_poly(field: Field, B: Algebra, h: HopfData) -> Matrix:
    """The sign action of the order-two group algebra on k[y]/(y^2-1)."""
    f = field
    cols = []
    for hi in range(h.algebra.dim):
        for bi in range(B.dim):
            if hi == 0:
                out = B.space.basis_vector(bi)
            else:
                v = B.space.basis_vector(bi)
                out = v if bi == 0 else tuple(f.neg(x) for x in v)
            cols.append(out)
    dom = Space(f, h.algebra.dim * B.dim, "H*B")
    return LinearMap.from_columns(dom, B.space, cols).matrix


def smash_cleft_tau(field: Field, B: Algebra, h: HopfData) -> Matrix:
    """tau(b#h) = (b#h1) (x) (1#S(h2)) (x) (1#h3) on the smash product."""
    f = field
    nb, nh = B.dim, h.algebra.dim
    n = nb * nh
    cols = []
    for bi in range(nb):
        for hi in range(nh):
            acc = [f.zero] * (n ** 3)
            d2 = (h.delta.kron(Matrix.identity(f, nh)) @ h.delta).col(hi)
            for i1 in range(nh):
                for i2 in range(nh):
                    for i3 in range(nh):
                        cval = d2[(i1 * nh + i2) * nh + i3]
                        if f.is_zero(cval):
                            continue
                        svec = h.antipode.col(i2)
                        for si, sv in enumerate(svec):
                            v = f.mul(cval, sv)
                            if f.is_zero(v):
                                continue
                            leg1 = bi * nh + i1
                            leg2 = 0 * nh + si
                            leg3 = 0 * nh + i3
                            acc[(leg1 * n + leg2) * n + leg3] = f.add(
                                acc[(leg1 * n + leg2) * n + leg3], v)
            cols.append(acc)
    return Matrix.from_cols(field, cols, n ** 3)


# ---------------------------------------------------------------------------
# generation


def generate(name: str, field: Field = QQ) -> Fixture:
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    f = field
    if name == "EX-TRIV":
        k = field_algebra(f)
        T = field_algebra(f)
        alpha = unit_algebra_map(k, T)
        k2 = field_algebra(f)
        beta = unit_algebra_map(k2, T)
        tau_raw = Matrix(f, [(f.one,)], 1)
        bundle = make_bundle(k, k2, T, alpha, beta, tau_raw, name, torsor=True)
        dims = _oracle_dims(f, T, alpha.map.matrix, beta.map.matrix, tau_raw, 1, 1)
        _check_expected(name, dims)
        return Fixture(name, bundle, dims)

    if name in ("EX-C2", "EX-Q3", "EX-Q4", "EX-SW"):
        if name == "EX-SW":
            h = sweedler_hopf(f)
        else:
            order = {"EX-C2": 2, "EX-Q3": 3, "EX-Q4": 4}[name]
            h = group_hopf(f, order, f"kC{order}")
        oracle_check_hopf(f, h.algebra.mult.matrix, h.algebra.unit,
                          h.delta, h.eps, h.antipode)
        T = h.algebra
        kA = field_algebra(f)
        kB = field_algebra(f)
        alpha = unit_algebra_map(kA, T)
        beta = unit_algebra_map(kB, T)
        tau_raw = hopf_torsor_tau(h)
        bundle = make_bundle(kA, kB, T, alpha, beta, tau_raw, name, torsor=True)
        dims = _oracle_dims(f, T, alpha.map.matrix, beta.map.matrix, tau_raw, 1, 1)
        _check_expected(name, dims)
        return Fixture(name, bundle, dims, hopf=h)

    if name == "EX-M2":
        T = matrix_algebra(f)
        alpha = AlgebraMap(T, T, LinearMap.identity(T.space))
        beta = AlgebraMap(T, T, LinearMap.identity(T.space))
        unit_col = Matrix(f, [(x,) for x in T.unit], 1)
        tau_raw = unit_col.kron(unit_col).kron(Matrix.identity(f, T.dim))
        # a genuine pre-torsor; the base images of a simple algebra cannot
        # commute elementwise, so no torsor structure exists on this data
        bundle = make_bundle(T, T, T, alpha, beta, tau_raw, name, torsor=False)
        dims = _oracle_dims(f, T, alpha.map.matrix, beta.map.matrix, tau_raw,
                            T.dim, T.dim)
        _check_expected(name, dims)
        return Fixture(name, bundle, dims,
                       comment="pre-torsor only: base images do not commute")

    if name == "EX-SMASH":
        h = group_hopf(f, 2, "kC2")
        oracle_check_hopf(f, h.algebra.mult.matrix, h.algebra.unit,
                          h.delta, h.eps, h.antipode)
        B = poly_mod_algebra(f)
        action = c2_action_on_poly(f, B, h)
        T = smash_product(f, B, h, action)
        kA = field_algebra(f)
        alpha = unit_algebra_map(kA, T)
        beta_cols = []
        for bi in range(B.dim):
            col = [f.zero] * T.dim
            col[bi * h.algebra.dim] = f.one
            beta_cols.append(col)
        beta = AlgebraMap(B, T, LinearMap.from_columns(B.space, T.space, beta_cols))
        tau_raw = smash_cleft_tau(f, B, h)
        bundle = make_bundle(kA, B, T, alpha, beta, tau_raw, name, torsor=True)
        dims = _oracle_dims(f, T, alpha.map.matrix, beta.map.matrix, tau_raw,
                            1, B.dim)
        _check_expected(name, dims)
        twist = {
            "hopf": h,
            "B": B,
            "action": action,
            "trivial_cocycle": True,
        }
        return Fixture(name, bundle, dims, hopf=h, twist=twist)

    raise UnknownFixture(name)


def _check_expected(name, dims):
    exp = _EXPECTED.get(name)
    if exp is not None and exp != dims:
        raise TorsorKitError(
            f"{name}: oracle dims {dims} disagree with stored expectations {exp}")
