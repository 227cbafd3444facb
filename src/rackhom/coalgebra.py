"""Coproducts on cubical chain complexes and homology, algebraic-law
verification (coZinbiel, codendriform, Hopf, semi-Hopf), the primitive
filtration, and the tensor-coalgebra reference model.

Sign convention, fixed by the arbiter tests (chain-map property, the
half-sum identity with the full coproduct, the degree-2 homotopy, and the
strict laws in the zero-differential case): every shuffle term carries the
raw inversion-parity sign.  For a degree-n cell and p + q = n,

    full     Delta(x)   = sum over all (p,q)-shuffles
    left     Delta_<(x) = sum over shuffles with value 1 at position 1
    right    Delta_>(x) = the complementary shuffles

with term  eps(sigma) (faces eps=0 at the second block)(x)  (x)
                      (faces eps=1 at the first block)(x),
plus the counital edge terms x (x) pt for Delta_< and pt (x) x for Delta_>.
h(x) = d_{1,0}x (x) x is then a degree-2 homotopy from Delta_> to
tau Delta_< (dh + hd = tau Delta_< - Delta_>), as stated.

Graded twist: tau(a (x) b) = (-1)^{|a||b|} b (x) a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _perms

from .chains import (
    ChainComplex,
    GradedMap,
    HomologySummary,
    NotChainMap,
    TensorComplex,
    verify_chain_map,
)
from .exactfield import Echelon, FieldTag, Matrix, column_space_analysis
from .shuffles import All, FirstFixed, FirstIsPPlus1, Permutation, enumerate_shuffles, koszul_shuffle_sign


class NotCubical(Exception):
    pass


class NotLSet(Exception):
    pass


class MissingStructure(Exception):
    pass


class NotAbelian(Exception):
    pass


# -- chain-level coproducts ----------------------------------------------------


def _coproduct_map(C: ChainComplex, which: str) -> GradedMap:
    x = C.source
    f = C.field
    T = TensorComplex(C, C, up_to=C.max_degree)
    mats = {}
    degrees = range(0, C.max_degree + 1) if which == "full" else range(1, C.max_degree + 1)
    kind = {"full": All, "prec": FirstFixed, "succ": FirstIsPPlus1}[which]
    for n in degrees:
        cols = []
        for k in range(C.dim(n)):
            cell = C.cell_of_pos[n][k]
            col = {}

            def add(p, q, lc, rc, coeff):
                lp = C.pos_of_cell[p][lc]
                rp = C.pos_of_cell[q][rc]
                if lp is None or rp is None:
                    return
                key = T.index(n, (p, q), lp, rp)
                w = f.add(col.get(key, f.zero()), f.of_int(coeff))
                if w:
                    col[key] = w
                elif key in col:
                    del col[key]

            if n == 0:
                add(0, 0, cell, cell, 1)
            else:
                for p in range(0, n + 1):
                    q = n - p
                    if p >= 1 and q >= 1:
                        for sigma, sign in enumerate_shuffles(kind(p, q)):
                            first = [sigma(i) for i in range(1, p + 1)]
                            second = [sigma(i) for i in range(p + 1, n + 1)]
                            add(p, q,
                                x.face_word(n, [(i, 0) for i in second], cell),
                                x.face_word(n, [(i, 1) for i in first], cell),
                                sign)
                    elif q == 0 and which in ("full", "prec"):
                        add(n, 0, cell,
                            x.face_word(n, [(i, 1) for i in range(1, n + 1)], cell), 1)
                    elif p == 0 and which in ("full", "succ"):
                        add(0, n,
                            x.face_word(n, [(i, 0) for i in range(1, n + 1)], cell),
                            cell, 1)
            cols.append(col)
        mats[n] = Matrix(f, T.dim(n), C.dim(n), cols)
    name = {"full": "Delta", "prec": "Delta_<", "succ": "Delta_>"}[which]
    gm = GradedMap(C, T, mats, desc=name)
    gm.tensor = T
    return gm


def cubical_coproduct(C: ChainComplex) -> GradedMap:
    """The full shuffle coproduct on the normalized chains of a cubical set;
    a chain map with the Koszul tensor differential."""
    if C.source_kind != "cubical":
        raise NotCubical("coproduct needs a cubical-set complex")
    return _coproduct_map(C, "full")


def delta_halves(C: ChainComplex):
    """The two half-coproducts on the normalized chains of a cubical set
    with one vertex and equal first faces; defined in degrees >= 1."""
    if C.source_kind != "cubical":
        raise NotCubical("half coproducts need a cubical-set complex")
    if not C.source.is_lset:
        raise NotLSet("half coproducts need a single-vertex equal-first-faces source")
    return _coproduct_map(C, "prec"), _coproduct_map(C, "succ")


def tau_map(T: TensorComplex) -> dict:
    """Graded twist on a tensor-square complex: per-degree matrices for
    a (x) b -> (-1)^{|a||b|} b (x) a."""
    f = T.field
    a, b = T.factors
    out = {}
    for n in range(T.up_to + 1):
        cols = [dict() for _ in range(T.dim(n))]
        for (p, q) in T.components(n):
            sgn = f.of_int(-1 if (p * q) % 2 else 1)
            for i in range(a.dim(p)):
                for j in range(b.dim(q)):
                    cols[T.index(n, (p, q), i, j)][T.index(n, (q, p), j, i)] = sgn
        out[n] = Matrix(f, T.dim(n), T.dim(n), cols)
    return out


def compose_with_tau(delta: GradedMap) -> GradedMap:
    tm = tau_map(delta.tensor)
    gm = GradedMap(delta.source, delta.target,
                   {n: tm[n] @ delta.mat(n) for n in delta.mats},
                   desc="tau o " + delta.desc)
    gm.tensor = delta.tensor
    return gm


def coproduct_homotopy(C: ChainComplex, T: TensorComplex) -> GradedMap:
    """The degree-2 homotopy h(x) = d_{1,0}x (x) x from Delta_> to
    tau Delta_<."""
    f = C.field
    x = C.source
    cols = []
    for k in range(C.dim(2)):
        cell = C.cell_of_pos[2][k]
        left = C.pos_of_cell[1][x.face(2, 1, 0, cell)]
        col = {}
        if left is not None:
            col[T.index(3, (1, 2), left, k)] = f.one()
        cols.append(col)
    return GradedMap(C, T, {2: Matrix(f, T.dim(3), C.dim(2), cols)}, shift=1,
                     desc="h(x) = d_{1,0}x (x) x")


# -- homology level -------------------------------------------------------------


def induced_on_homology(fmap: GradedMap, hs_src: HomologySummary,
                        hs_tgt: HomologySummary) -> GradedMap:
    """Pass a certified chain map to homology coordinates."""
    from .chains import homology_complex

    bad = verify_chain_map(fmap)
    if bad:
        raise NotChainMap("not a chain map: %s" % (bad[:3],))
    f = fmap.source.field
    up = min(hs_src.up_to, max(fmap.degrees()))
    mats = {}
    for n in range(up + 1):
        if n not in fmap.mats:
            continue
        cols = [hs_tgt.project_vec(n, fmap.mat(n).apply(col)) for col in hs_src.reps[n]]
        mats[n] = Matrix(f, hs_tgt.dims[n], hs_src.dims[n], cols)
    return GradedMap(homology_complex(hs_src), homology_complex(hs_tgt), mats,
                     desc="H(%s)" % fmap.desc)


def induced_coproduct_components(delta: GradedMap, hs: HomologySummary,
                                 max_total: int) -> dict:
    """Homology-level components H_n -> H_p (x) H_q of a chain-level
    coproduct, via representatives and the exact projections (independent
    of the representative choice since the coproduct is a chain map)."""
    bad = verify_chain_map(delta)
    if bad:
        raise NotChainMap("not a chain map: %s" % (bad[:3],))
    T = delta.tensor
    C = delta.source
    f = C.field
    out = {}
    for n in range(min(max_total, hs.up_to) + 1):
        if n not in delta.mats:
            continue
        images = [delta.mat(n).apply(col) for col in hs.reps[n]]
        for (p, q) in T.components(n):
            cols = []
            for img in images:
                block = T.component_block(img, n, (p, q))
                # project each factor: first collect rows of the block
                # grouped by left index, then push through both projections
                by_left = {}
                for (i, j), v in block.items():
                    by_left.setdefault(i, {})[j] = v
                acc = {}
                for i, vec in by_left.items():
                    right_h = hs.project_vec(q, vec)
                    if not right_h:
                        continue
                    for hj, hv in right_h.items():
                        key = (i, hj)
                        acc[key] = f.add(acc.get(key, f.zero()), hv)
                # now project the left factor
                by_right = {}
                for (i, hj), v in acc.items():
                    by_right.setdefault(hj, {})[i] = v
                col = {}
                for hj, vec in by_right.items():
                    left_h = hs.project_vec(p, vec)
                    for hi, hv in left_h.items():
                        key = hi * hs.dims[q] + hj
                        w = f.add(col.get(key, f.zero()), hv)
                        if w:
                            col[key] = w
                        elif key in col:
                            del col[key]
                cols.append(col)
            out[(p, q)] = Matrix(f, hs.dims[p] * hs.dims[q], hs.dims[n], cols)
    return out


# -- graded coalgebras and law checks -------------------------------------------


@dataclass
class GradedCoalgebra:
    """Coproduct components over a graded space (homology coordinates or
    zero-differential chain coordinates).  delta_prec[(p,q)] maps V_{p+q}
    to V_p (x) V_q (second index fastest); the counit is the coordinate on
    the one-dimensional degree-0 part.  Counital edge components (n,0) and
    (0,n) follow the convention Delta_<(x) = reduced + x (x) 1 and
    Delta_>(x) = reduced + 1 (x) x."""

    field: FieldTag
    dims: list
    delta_prec: dict
    delta_succ: dict = None
    star: dict = None
    delta_full: dict = None  # a standalone coassociative coproduct (e.g. AW)

    def __post_init__(self):
        if self.dims[0] != 1:
            raise MissingStructure("counit needs a one-dimensional degree 0")

    @property
    def max_degree(self):
        return len(self.dims) - 1

    def comp(self, table, p, q):
        m = table.get((p, q))
        if m is None:
            return Matrix.zeros(self.field, self.dims[p] * self.dims[q],
                                self.dims[p + q])
        return m

    def prec(self, p, q):
        return self.comp(self.delta_prec, p, q)

    def succ(self, p, q):
        if self.delta_succ is not None:
            return self.comp(self.delta_succ, p, q)
        return self.tau_of_prec(p, q)

    def tau_of_prec(self, p, q):
        return self._swap(q, p) @ self.prec(q, p)

    def delta(self, p, q):
        if self.delta_full is not None:
            return self.comp(self.delta_full, p, q)
        # the halves exclude degree 0 (1 < 1 and 1 > 1 are undefined); the
        # counital sum coproduct has Delta(1) = 1 (x) 1
        if p == 0 and q == 0:
            return self.eye(0)
        return self.prec(p, q) + self.succ(p, q)

    def star_comp(self, p, q):
        if self.star is None:
            raise MissingStructure("no product supplied")
        m = self.star.get((p, q))
        if m is None:
            return Matrix.zeros(self.field, self.dims[p + q],
                                self.dims[p] * self.dims[q])
        return m

    def _swap(self, p, q):
        """V_p (x) V_q -> V_q (x) V_p with the Koszul sign."""
        f = self.field
        dp, dq = self.dims[p], self.dims[q]
        sgn = f.of_int(-1 if (p * q) % 2 else 1)
        cols = []
        for i in range(dp):
            for j in range(dq):
                cols.append({j * dp + i: sgn})
        return Matrix(f, dq * dp, dp * dq, cols)

    def eye(self, p):
        return Matrix.identity(self.field, self.dims[p])


def _check_triple(g: GradedCoalgebra, lhs_fn, rhs_fn, max_total, reduced=True):
    bad = []
    lo = 1 if reduced else 0
    for n in range(3 * lo, max_total + 1):
        for p in range(lo, n + 1):
            for q in range(lo, n - p + 1):
                r = n - p - q
                if r < lo:
                    continue
                lhs = lhs_fn(p, q, r)
                rhs = rhs_fn(p, q, r)
                if lhs != rhs:
                    diff = lhs - rhs
                    wit = [g_label for g_label in range(diff.cols) if diff.column(g_label)]
                    bad.append(("component (%d,%d,%d)" % (p, q, r), wit[:3]))
    return bad


def check_laws(g: GradedCoalgebra, laws, max_total: int) -> dict:
    """Assert the requested laws as exact matrix identities in every total
    degree <= max_total; returns {law: list of failures} (empty lists pass).

    Triple-coproduct laws run on the reduced components (all three factors
    in positive degree); counit and compatibility laws include the counital
    edge components.
    """
    report = {}
    eye = g.eye
    for law in laws:
        if law == "coZinbiel":
            report[law] = _check_triple(
                g,
                lambda p, q, r: g.prec(p, q).kron(eye(r)) @ g.prec(p + q, r),
                lambda p, q, r: (eye(p).kron(g.prec(q, r)) @ g.prec(p, q + r))
                + (eye(p).kron(g.tau_of_prec(q, r)) @ g.prec(p, q + r)),
                max_total)
        elif law == "codendriform":
            bad = _check_triple(
                g,
                lambda p, q, r: g.prec(p, q).kron(eye(r)) @ g.prec(p + q, r),
                lambda p, q, r: (eye(p).kron(g.prec(q, r)) @ g.prec(p, q + r))
                + (eye(p).kron(g.succ(q, r)) @ g.prec(p, q + r)),
                max_total)
            bad += _check_triple(
                g,
                lambda p, q, r: g.succ(p, q).kron(eye(r)) @ g.prec(p + q, r),
                lambda p, q, r: eye(p).kron(g.prec(q, r)) @ g.succ(p, q + r),
                max_total)
            bad += _check_triple(
                g,
                lambda p, q, r: eye(p).kron(g.succ(q, r)) @ g.succ(p, q + r),
                lambda p, q, r: (g.prec(p, q).kron(eye(r)) @ g.succ(p + q, r))
                + (g.succ(p, q).kron(eye(r)) @ g.succ(p + q, r)),
                max_total)
            report[law] = bad
        elif law == "cocommutativeOfSum":
            bad = []
            for n in range(1, max_total + 1):
                for p in range(0, n + 1):
                    q = n - p
                    if g._swap(q, p) @ g.delta(q, p) != g.delta(p, q):
                        bad.append(("cocommutativity (%d,%d)" % (p, q), []))
            bad += _check_triple(
                g,
                lambda p, q, r: g.delta(p, q).kron(eye(r)) @ g.delta(p + q, r),
                lambda p, q, r: eye(p).kron(g.delta(q, r)) @ g.delta(p, q + r),
                max_total, reduced=False)
            report[law] = bad
        elif law == "counit":
            bad = []
            for n in range(1, max_total + 1):
                if g.prec(n, 0) != g.eye(n):
                    bad.append(("(id x c) Delta_< != id at degree %d" % n, []))
                if not g.prec(0, n).is_zero():
                    bad.append(("(c x id) Delta_< != 0 at degree %d" % n, []))
            report[law] = bad
        elif law in ("Hopf", "semiHopf"):
            first = g.delta if law == "Hopf" else g.prec
            bad = []
            f = g.field
            for a in range(1, max_total + 1):
                for b in range(1, max_total - a + 1):
                    for p in range(0, a + b + 1):
                        q = a + b - p
                        lhs = first(p, q) @ g.star_comp(a, b)
                        rhs = Matrix.zeros(f, g.dims[p] * g.dims[q],
                                           g.dims[a] * g.dims[b])
                        for a1 in range(0, a + 1):
                            b1 = p - a1
                            if not (0 <= b1 <= b):
                                continue
                            a2, b2 = a - a1, b - b1
                            mid = eye(a1).kron(g._swap(a2, b1)).kron(eye(b2))
                            rhs = rhs + (g.star_comp(a1, b1).kron(g.star_comp(a2, b2))
                                         @ mid @ first(a1, a2).kron(g.delta(b1, b2)))
                        if lhs != rhs:
                            bad.append(("%s at ((%d,%d) -> (%d,%d))" % (law, a, b, p, q), []))
            report[law] = bad
        elif law == "associativeProduct":
            bad = []
            for p in range(1, max_total + 1):
                for q in range(1, max_total - p + 1):
                    for r in range(1, max_total - p - q + 1):
                        lhs = g.star_comp(p + q, r) @ g.star_comp(p, q).kron(eye(r))
                        rhs = g.star_comp(p, q + r) @ eye(p).kron(g.star_comp(q, r))
                        if lhs != rhs:
                            bad.append(("associativity (%d,%d,%d)" % (p, q, r), []))
            report[law] = bad
        elif law == "commutativeProduct":
            bad = []
            for p in range(1, max_total + 1):
                for q in range(1, max_total - p + 1):
                    if g.star_comp(q, p) @ g._swap(p, q) != g.star_comp(p, q):
                        bad.append(("graded commutativity (%d,%d)" % (p, q), []))
            report[law] = bad
        else:
            raise ValueError("unknown law %r" % (law,))
    return report


# -- primitive filtration --------------------------------------------------------


@dataclass
class PrimitiveAnalysis:
    prim_dims: list
    filtration_dims: list  # filtration_dims[r][n]
    connected: bool
    cofree_dims_match: bool


def primitive_analysis(g: GradedCoalgebra, max_degree: int) -> PrimitiveAnalysis:
    """Primitives and the kernel filtration of the reduced coproduct, plus
    the free/cofree dimension count dim V_n = sum over compositions of
    products of primitive dimensions."""
    f = g.field
    # F_r per degree as a column-span matrix; quotient tests via echelons
    filt = []  # filt[r-1][n] = list of basis columns
    prev = None
    for r in range(1, max_degree + 2):
        cur = [[{0: f.one()}] if n == 0 else [] for n in range(max_degree + 1)]
        if prev is not None:
            # quotient by F_{r-1} x V + V x F_{r-1}: complement projections
            comp = [_complement_projection(f, g.dims[p], prev[p]) for p in range(max_degree)]
        for n in range(1, max_degree + 1):
            conds = []
            for p in range(1, n):
                q = n - p
                m = g.prec(p, q)
                if prev is None:
                    conds.append(m)
                    continue
                conds.append(comp[p].kron(Matrix.identity(f, g.dims[q])) @ m)
                conds.append(Matrix.identity(f, g.dims[p]).kron(comp[q]) @ m)
            if not conds:
                cur[n] = [{i: f.one()} for i in range(g.dims[n])]
                continue
            stacked_rows = sum(c.rows for c in conds)
            cols = []
            for j in range(g.dims[n]):
                col = {}
                off = 0
                for c in conds:
                    for rr, v in c.cols_data[j].items():
                        col[off + rr] = v
                    off += c.rows
                cols.append(col)
            stacked = Matrix(f, stacked_rows, g.dims[n], cols)
            kb = column_space_analysis(stacked).kernel_basis
            cur[n] = [kb.column(j) for j in range(kb.cols)]
        filt.append(cur)
        if prev is not None and all(len(cur[n]) == len(prev[n]) for n in range(max_degree + 1)):
            break
        prev = cur
    prim = filt[0]
    prim_dims = [0] + [len(prim[n]) for n in range(1, max_degree + 1)]
    filtration_dims = [[len(fr[n]) for n in range(max_degree + 1)] for fr in filt]
    connected = all(len(filt[-1][n]) == g.dims[n] for n in range(1, max_degree + 1))
    # compositions generating function: t_n = sum_k prim_k t_{n-k}
    t = [1] + [0] * max_degree
    for n in range(1, max_degree + 1):
        t[n] = sum(prim_dims[k] * t[n - k] for k in range(1, n + 1))
    cofree = all(t[n] == g.dims[n] for n in range(1, max_degree + 1))
    return PrimitiveAnalysis(prim_dims, filtration_dims, connected, cofree)


def _complement_projection(f, dim, span_cols):
    """A matrix whose kernel is exactly the span of span_cols: the
    coordinates on the unit vectors that complete it to a basis, in the
    order they were chosen."""
    ech = Echelon(f, dim)
    for col in span_cols:
        ech.add(col)
    comp = 0
    for i in range(dim):
        if ech.add({i: f.one()}, tag=("a", comp)):
            comp += 1
    cols = [{k: v for (_, k), v in ech.coordinates({i: f.one()}).items()}
            for i in range(dim)]
    return Matrix(f, comp, dim, cols)


# -- tensor-coalgebra reference model ---------------------------------------------


def half_shuffle_model(generator_degrees, max_weight: int) -> GradedCoalgebra:
    """T(V) with the half-shuffle coproduct and concatenation product, on
    words of total degree <= max_weight.  Signs are Koszul with respect to
    the letter degrees (inversion parity when every letter has degree 1)."""
    degs = list(generator_degrees)
    if any(d < 1 for d in degs):
        raise ValueError("generator degrees must be >= 1")
    words = [[] for _ in range(max_weight + 1)]
    words[0] = [()]

    def extend(word, total):
        for a, d in enumerate(degs):
            t = total + d
            if t <= max_weight:
                words[t].append(word + (a,))
                extend(word + (a,), t)

    extend((), 0)
    for n in range(max_weight + 1):
        words[n].sort()
    index = [{w: i for i, w in enumerate(ws)} for ws in words]
    dims = [len(ws) for ws in words]
    f = FieldTag(0)
    prec = {}
    star = {}
    for n in range(1, max_weight + 1):
        by_comp = {}
        for k, w in enumerate(words[n]):
            L = len(w)
            # counital edge
            by_comp.setdefault((n, 0), [dict() for _ in words[n]])
            by_comp[(n, 0)][k][k * 1 + 0] = f.one()
            if L < 2:
                continue
            wdegs = [degs[a] for a in w]
            for p_len in range(1, L):
                q_len = L - p_len
                for sigma, _ in enumerate_shuffles(FirstFixed(p_len, q_len)):
                    sign = koszul_shuffle_sign(sigma, wdegs)
                    left = tuple(w[sigma(i) - 1] for i in range(1, p_len + 1))
                    right = tuple(w[sigma(i) - 1] for i in range(p_len + 1, L + 1))
                    p = sum(degs[a] for a in left)
                    q = n - p
                    comp = by_comp.setdefault((p, q), [dict() for _ in words[n]])
                    key = index[p][left] * dims[q] + index[q][right]
                    w0 = comp[k].get(key, f.zero())
                    w1 = f.add(w0, f.of_int(sign))
                    if w1:
                        comp[k][key] = w1
                    elif key in comp[k]:
                        del comp[k][key]
        for (p, q), cols in by_comp.items():
            prec[(p, q)] = Matrix(f, dims[p] * dims[q], dims[n], cols)
    for p in range(0, max_weight + 1):
        for q in range(0, max_weight - p + 1):
            cols = []
            for i in range(dims[p]):
                for j in range(dims[q]):
                    w = words[p][i] + words[q][j]
                    cols.append({index[p + q][w]: f.one()})
            star[(p, q)] = Matrix(f, dims[p + q], dims[p] * dims[q], cols)
    g = GradedCoalgebra(f, dims, prec, star=star)
    g.words = words
    return g


# -- abelian antisymmetrization -----------------------------------------------


def antisymmetrization_compare(group, field: FieldTag, max_n: int) -> dict:
    """For an abelian group: the comparison map on chains equals the full
    antisymmetrization, and it kills the symmetrized tensors (so the induced
    map factors through the exterior power)."""
    from .chains import s_map_rack_formula

    if not group.is_abelian():
        raise NotAbelian("antisymmetrization compare needs an abelian group")
    s = s_map_rack_formula(group, field, max_n)
    src, tgt = s.source, s.target
    f = field
    report = {"matches_antisymmetrization": True, "kills_symmetric": True,
              "term_counts": {}}
    for n in range(1, max_n + 1):
        count = 0
        for k in range(src.dim(n)):
            tup = tuple(group.elements.index(e) for e in src.label(n, k))
            want = {}
            for images in _perms(range(1, n + 1)):
                sigma = Permutation(images)
                term = tuple(tup[images[i] - 1] for i in range(n))
                cell = tgt.source.index(n, tuple(group.elements[a] for a in term))
                pos = tgt.cell_pos(n, cell)
                if pos is None:
                    continue
                count += 1
                w = f.add(want.get(pos, f.zero()), f.of_int(sigma.sign))
                if w:
                    want[pos] = w
                elif pos in want:
                    del want[pos]
            if s.mat(n).column(k) != want:
                report["matches_antisymmetrization"] = False
        report["term_counts"][n] = count
        if n >= 2:
            for k in range(src.dim(n)):
                tup = tuple(group.elements.index(e) for e in src.label(n, k))
                for i in range(n - 1):
                    swapped = list(tup)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    k2 = src.pos_of_cell[n][src.source.index(
                        n, tuple(group.elements[a] for a in swapped))]
                    su = s.mat(n).column(k)
                    for r, v in s.mat(n).column(k2).items():
                        w = f.add(su.get(r, f.zero()), v)
                        if w:
                            su[r] = w
                        elif r in su:
                            del su[r]
                    if su:
                        report["kills_symmetric"] = False
    return report


def rack_half_coproduct_formula(C: ChainComplex, rack) -> GradedMap:
    """Independent route to Delta_< on rack chains: the explicit tuple
    formula.  For each shuffle with value 1 at position 1, the left factor
    keeps the first-block letters; a right-block letter x_{sigma(i)} is
    conjugated by the first-block letters larger than sigma(i), in
    increasing order.  Must agree with the face-composition route exactly
    (tested); the two constructions share only the shuffle enumeration."""
    f = C.field
    T = TensorComplex(C, C, up_to=C.max_degree)
    nerve = C.source
    mats = {}
    for n in range(1, C.max_degree + 1):
        cols = []
        for k in range(C.dim(n)):
            tup = tuple(rack.elements.index(e) for e in C.label(n, k))
            col = {}

            def add(p, q, left, right, coeff):
                lp = C.cell_pos(p, nerve.index(p, tuple(rack.elements[a] for a in left)))
                rp = C.cell_pos(q, nerve.index(q, tuple(rack.elements[a] for a in right)))
                if lp is None or rp is None:
                    return
                key = T.index(n, (p, q), lp, rp)
                w = f.add(col.get(key, f.zero()), f.of_int(coeff))
                if w:
                    col[key] = w
                elif key in col:
                    del col[key]

            add(n, 0, tup, (), 1)
            for p in range(1, n):
                q = n - p
                for sigma, sign in enumerate_shuffles(FirstFixed(p, q)):
                    first = [sigma(i) for i in range(1, p + 1)]
                    left = tuple(tup[i - 1] for i in first)
                    right = []
                    for i in range(p + 1, n + 1):
                        v = tup[sigma(i) - 1]
                        for a in sorted(x for x in first if x > sigma(i)):
                            v = rack.op[v][tup[a - 1]]
                        right.append(v)
                    add(p, q, left, tuple(right), sign)
            cols.append(col)
        mats[n] = Matrix(f, T.dim(n), C.dim(n), cols)
    gm = GradedMap(C, T, mats, desc="Delta_< (tuple formula)")
    gm.tensor = T
    return gm


def bar_shuffle_product(C: ChainComplex, group) -> GradedMap:
    """Pontryagin product on normalized bar chains of an abelian group:
    sum over (p,q)-shuffles with sign, placing the letters at the shuffled
    positions.  A chain map exactly when the multiplication is a group
    morphism, i.e. for abelian groups."""
    from .shuffles import All as _All

    f = C.field
    T = TensorComplex(C, C, up_to=C.max_degree)
    nerve = C.source
    mats = {}
    for n in range(C.max_degree + 1):
        cols = [dict() for _ in range(T.dim(n))]
        for (p, q) in T.components(n):
            for i in range(C.dim(p)):
                li = tuple(group.elements.index(v) for v in C.label(p, i))
                for j in range(C.dim(q)):
                    rj = tuple(group.elements.index(v) for v in C.label(q, j))
                    letters = li + rj
                    src = T.index(n, (p, q), i, j)
                    if p == 0 or q == 0:
                        terms = [(letters, 1)]
                    else:
                        terms = []
                        for sigma, sign in enumerate_shuffles(_All(p, q)):
                            inv = sigma.inverse()
                            terms.append((tuple(letters[inv(t) - 1]
                                                for t in range(1, n + 1)), sign))
                    for word, sign in terms:
                        cell = nerve.index(n, tuple(group.elements[a] for a in word))
                        pos = C.cell_pos(n, cell)
                        if pos is None:
                            continue
                        w = f.add(cols[src].get(pos, f.zero()), f.of_int(sign))
                        if w:
                            cols[src][pos] = w
                        elif pos in cols[src]:
                            del cols[src][pos]
        mats[n] = Matrix(f, C.dim(n), T.dim(n), cols)
    star = GradedMap(T, C, mats, desc="bar shuffle product")
    star.tensor = T
    return star


def bar_aw_coproduct(C: ChainComplex) -> GradedMap:
    """Front-face/back-face (deconcatenation) coproduct on normalized bar
    chains; a chain map for any group."""
    f = C.field
    T = TensorComplex(C, C, up_to=C.max_degree)
    nerve = C.source
    mats = {}
    for n in range(C.max_degree + 1):
        cols = []
        for k in range(C.dim(n)):
            lbl = C.label(n, k)
            col = {}
            for p in range(0, n + 1):
                left, right = lbl[:p], lbl[p:]
                lp = C.cell_pos(p, nerve.index(p, left))
                rp = C.cell_pos(n - p, nerve.index(n - p, right))
                if lp is None or rp is None:
                    continue
                col[T.index(n, (p, n - p), lp, rp)] = f.one()
            cols.append(col)
        mats[n] = Matrix(f, T.dim(n), C.dim(n), cols)
    gm = GradedMap(C, T, mats, desc="bar AW coproduct")
    gm.tensor = T
    return gm


def graded_coalgebra_from_chain_maps(C: ChainComplex, prec: GradedMap = None,
                                     succ: GradedMap = None, star: GradedMap = None,
                                     full: GradedMap = None, up_to=None) -> GradedCoalgebra:
    """Package chain-level coproduct/product maps as componentwise matrices
    over the chain coordinates (degree 0 must be one-dimensional)."""
    if up_to is None:
        up_to = C.max_degree
    T = (prec or full).tensor

    def comps(gm):
        out = {}
        for n in gm.mats:
            if n > up_to:
                continue
            m = gm.mat(n)
            for (p, q) in T.components(n):
                off = T.offset(n, (p, q))
                size = C.dim(p) * C.dim(q)
                cols = []
                nonzero = False
                for j in range(C.dim(n)):
                    cc = {}
                    for row, v in m.cols_data[j].items():
                        if off <= row < off + size:
                            cc[row - off] = v
                    if cc:
                        nonzero = True
                    cols.append(cc)
                if nonzero:
                    out[(p, q)] = Matrix(C.field, size, C.dim(n), cols)
        return out

    from .glstable import star_components

    dims = list(C.dims[:up_to + 1])
    return GradedCoalgebra(C.field, dims, comps(prec) if prec is not None else {},
                           delta_succ=comps(succ) if succ is not None else None,
                           star=star_components(star) if star is not None else None,
                           delta_full=comps(full) if full is not None else None)
