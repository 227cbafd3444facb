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

Graded twist: tau(a (x) b) = (-1)^{|a||b|} b (x) a.  _koszul_swap builds
its block V_p (x) V_q -> V_q (x) V_p once for both users: GradedCoalgebra
on homology coordinates, and tau_map, which places the blocks in a tensor
square.  Coproducts and products of C map into and out of
C.tensor_square(), whose layout chains.TensorComplex owns; on homology a
component is P_p (x) P_q applied to a block of it, P the exact projection.

Law checks: each law is a generator of its identities (label, lhs, rhs,
names_witnesses), one per component, built lazily in a fixed order;
check_laws compares each pair as exact matrices and records the failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations as _perms

import numpy as np

from .chains import (
    ChainComplex,
    GradedMap,
    HomologySummary,
    NotChainMap,
    TensorComplex,
    _differing_columns,
    _induced,
    _signed_matrix,
    homology_complex,
    s_map_rack_formula,
    verify_chain_map,
)
from .cubical import CubSet
from .exactfield import Echelon, FieldTag, Matrix, column_space_analysis
from .glstable import star_components
from .nerves import cell_digits, cell_numbers
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


def _faces_at(faces, n, word, cells):
    """The cells reached from degree-n cells by the faces at an index set,
    applied largest index first so the remaining indices need no shifting:
    one gather of a whole face table per face.  word: (i, eps) pairs."""
    for i, eps in sorted(word, reverse=True):
        cells = faces[(n, i, eps)][cells]
        n -= 1
    return cells


def _coproduct_map(C: ChainComplex, which: str) -> GradedMap:
    """Per shuffle, the left and right faces of all basis cells at once, as
    compositions of whole face tables; summed by _signed_matrix."""
    faces = C.source._face
    T = C.tensor_square()
    mats = {}
    degrees = range(0, C.max_degree + 1) if which == "full" else range(1, C.max_degree + 1)
    kind = {"full": All, "prec": FirstFixed, "succ": FirstIsPPlus1}[which]
    for n in degrees:
        cells = C.cell_of_pos[n]
        tables, signs = [], []
        if n == 0:
            tables.append(T.pair_rows(0, 0, cells, cells))
            signs.append(1)
        if n and which in ("full", "succ"):  # the counital edge pt (x) x
            tables.append(T.pair_rows(
                n, 0, _faces_at(faces, n, [(i, 0) for i in range(1, n + 1)], cells), cells))
            signs.append(1)
        for p in range(1, n):
            for sigma, sign in enumerate_shuffles(kind(p, n - p)):
                first = [sigma(i) for i in range(1, p + 1)]
                second = [sigma(i) for i in range(p + 1, n + 1)]
                tables.append(T.pair_rows(
                    n, p, _faces_at(faces, n, [(i, 0) for i in second], cells),
                    _faces_at(faces, n, [(i, 1) for i in first], cells)))
                signs.append(sign)
        if n and which in ("full", "prec"):  # the counital edge x (x) pt
            tables.append(T.pair_rows(
                n, n, cells, _faces_at(faces, n, [(i, 1) for i in range(1, n + 1)], cells)))
            signs.append(1)
        mats[n] = _signed_matrix(tables, signs, T.dim(n), C.field)
    name = {"full": "Delta", "prec": "Delta_<", "succ": "Delta_>"}[which]
    return GradedMap(C, T, mats, desc=name)


def cubical_coproduct(C: ChainComplex) -> GradedMap:
    """The full shuffle coproduct on the normalized chains of a cubical set;
    a chain map with the Koszul tensor differential."""
    if not isinstance(C.source, CubSet):
        raise NotCubical("coproduct needs a cubical-set complex")
    return _coproduct_map(C, "full")


def delta_halves(C: ChainComplex):
    """The two half-coproducts on the normalized chains of a cubical set
    with one vertex and equal first faces; defined in degrees >= 1."""
    if not isinstance(C.source, CubSet):
        raise NotCubical("half coproducts need a cubical-set complex")
    if not C.source.is_lset:
        raise NotLSet("half coproducts need a single-vertex equal-first-faces source")
    return _coproduct_map(C, "prec"), _coproduct_map(C, "succ")


def _koszul_swap(f: FieldTag, dims, p, q) -> Matrix:
    """V_p (x) V_q -> V_q (x) V_p, a (x) b -> (-1)^{pq} b (x) a, in the
    Matrix.kron layout (second index fastest), dims[k] = dim V_k."""
    dp, dq = dims[p], dims[q]
    sgn = f.of_int(-1 if (p * q) % 2 else 1)
    return Matrix(f, dq * dp, dp * dq, [{j * dp + i: sgn} for i in range(dp) for j in range(dq)])


def tau_map(T: TensorComplex) -> dict:
    """Graded twist on a tensor-square complex: per-degree matrices for
    a (x) b -> (-1)^{|a||b|} b (x) a, the Koszul swap of (p, q) placed at
    rows span(q, p) and columns span(p, q)."""
    out = {}
    for n in range(T.up_to + 1):
        cols = [None] * T.dim(n)
        for (p, q) in T.components(n):
            start = T.span(n, (q, p)).start
            cols[T.span(n, (p, q))] = [{start + r: v for r, v in col.items()} for col in
                                       _koszul_swap(T.field, T.factor_dims, p, q).cols_data]
        out[n] = Matrix.trusted(T.field, T.dim(n), T.dim(n), cols)
    return out


def compose_with_tau(delta: GradedMap) -> GradedMap:
    tm = tau_map(delta.target)
    return GradedMap(delta.source, delta.target,
                     {n: tm[n] @ delta.mat(n) for n in delta.mats},
                     desc="tau o " + delta.desc)


def coproduct_homotopy(C: ChainComplex) -> GradedMap:
    """The degree-2 homotopy h(x) = d_{1,0}x (x) x from Delta_> to
    tau Delta_<, into the tensor square of C."""
    T = C.tensor_square()
    cells = C.cell_of_pos[2]
    left = C.source._face[(2, 1, 0)][cells]
    h = _signed_matrix([T.pair_rows(3, 1, left, cells)], [1], T.dim(3), C.field)
    return GradedMap(C, T, {2: h}, shift=1, desc="h(x) = d_{1,0}x (x) x")


# -- homology level -------------------------------------------------------------


def induced_on_homology(fmap: GradedMap, hs_src: HomologySummary,
                        hs_tgt: HomologySummary) -> GradedMap:
    """Pass a certified chain map to homology coordinates."""
    bad = verify_chain_map(fmap)
    if bad:
        raise NotChainMap("not a chain map: %s" % (bad[:3],))
    mats = {n: _induced(hs_src, hs_tgt, fmap.mat(n), n)
            for n in fmap.degrees() if n <= hs_src.up_to}
    return GradedMap(homology_complex(hs_src), homology_complex(hs_tgt), mats,
                     desc="H(%s)" % fmap.desc)


def induced_coproduct_components(delta: GradedMap, hs: HomologySummary,
                                 max_total: int) -> dict:
    """Homology-level components H_n -> H_p (x) H_q of a chain-level
    coproduct: the exact projections P_p (x) P_q applied to the (p, q)
    block of the images of the representatives (independent of the
    representative choice since the coproduct is a chain map)."""
    bad = verify_chain_map(delta)
    if bad:
        raise NotChainMap("not a chain map: %s" % (bad[:3],))
    out = {}
    for n in range(min(max_total, hs.up_to) + 1):
        if n not in delta.mats:
            continue
        images = delta.mat(n) @ hs.rep_matrix(n)
        for (p, q), block in delta.target.blocks(images, n).items():
            out[(p, q)] = hs.projection(p).kron(hs.projection(q)) @ block
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
        m = self.star.get((p, q))
        if m is None:
            return Matrix.zeros(self.field, self.dims[p + q],
                                self.dims[p] * self.dims[q])
        return m

    def _swap(self, p, q):
        """V_p (x) V_q -> V_q (x) V_p with the Koszul sign."""
        return _koszul_swap(self.field, self.dims, p, q)

    def eye(self, p):
        return Matrix.identity(self.field, self.dims[p])


def _triples(max_total, lo):
    """The (p, q, r) with every entry >= lo and p + q + r <= max_total, by
    total degree, then p, then q."""
    return [(p, q, n - p - q) for n in range(3 * lo, max_total + 1)
            for p in range(lo, n + 1) for q in range(lo, n - p + 1) if n - p - q >= lo]


def _component(p, q, r):
    return "component (%d,%d,%d)" % (p, q, r)


def _cozinbiel(g, max_total):
    """(D< x id) D< = (id x (D< + tau D<)) D<, with D< = Delta_<."""
    prec, eye = g.prec, g.eye
    for p, q, r in _triples(max_total, 1):
        yield (_component(p, q, r), prec(p, q).kron(eye(r)) @ prec(p + q, r),
               eye(p).kron(prec(q, r) + g.tau_of_prec(q, r)) @ prec(p, q + r), True)


def _codendriform(g, max_total):
    """(D< x id) D< = (id x D) D<,  (D> x id) D< = (id x D<) D>  and
    (id x D>) D> = (D x id) D>, with D = D< + D>, each over every triple."""
    prec, succ, eye = g.prec, g.succ, g.eye
    for p, q, r in _triples(max_total, 1):
        yield (_component(p, q, r), prec(p, q).kron(eye(r)) @ prec(p + q, r),
               eye(p).kron(prec(q, r) + succ(q, r)) @ prec(p, q + r), True)
    for p, q, r in _triples(max_total, 1):
        yield (_component(p, q, r), succ(p, q).kron(eye(r)) @ prec(p + q, r),
               eye(p).kron(prec(q, r)) @ succ(p, q + r), True)
    for p, q, r in _triples(max_total, 1):
        yield (_component(p, q, r), eye(p).kron(succ(q, r)) @ succ(p, q + r),
               (prec(p, q) + succ(p, q)).kron(eye(r)) @ succ(p + q, r), True)


def _cocommutative_of_sum(g, max_total):
    """tau Delta = Delta in every (p, q), then coassociativity of Delta."""
    delta, eye = g.delta, g.eye
    for n in range(1, max_total + 1):
        for p in range(n + 1):
            yield ("cocommutativity (%d,%d)" % (p, n - p),
                   g._swap(n - p, p) @ delta(n - p, p), delta(p, n - p), False)
    for p, q, r in _triples(max_total, 0):
        yield (_component(p, q, r), delta(p, q).kron(eye(r)) @ delta(p + q, r),
               eye(p).kron(delta(q, r)) @ delta(p, q + r), True)


def _counit(g, max_total):
    for n in range(1, max_total + 1):
        yield "(id x c) Delta_< != id at degree %d" % n, g.prec(n, 0), g.eye(n), False
        m = g.prec(0, n)
        yield ("(c x id) Delta_< != 0 at degree %d" % n, m,
               Matrix.zeros(m.field, m.rows, m.cols), False)


def _compatibility(law, g, max_total):
    """first star = (star x star)(id x swap x id)(first x Delta) on each
    (a, b) -> (p, q), with first = Delta (Hopf) or Delta_< (semiHopf)."""
    first = g.delta if law == "Hopf" else g.prec
    eye, star = g.eye, g.star_comp
    for a in range(1, max_total + 1):
        for b in range(1, max_total - a + 1):
            for p in range(a + b + 1):
                q = a + b - p
                rhs = Matrix.zeros(g.field, g.dims[p] * g.dims[q], g.dims[a] * g.dims[b])
                for a1 in range(max(0, p - b), min(a, p) + 1):
                    a2, b1, b2 = a - a1, p - a1, b - p + a1
                    rhs = rhs + (star(a1, b1).kron(star(a2, b2))
                                 @ eye(a1).kron(g._swap(a2, b1)).kron(eye(b2))
                                 @ first(a1, a2).kron(g.delta(b1, b2)))
                yield ("%s at ((%d,%d) -> (%d,%d))" % (law, a, b, p, q),
                       first(p, q) @ star(a, b), rhs, False)


def _associative_product(g, max_total):
    star, eye = g.star_comp, g.eye
    for p, q, r in sorted(_triples(max_total, 1)):  # by p, then q, then r
        yield ("associativity (%d,%d,%d)" % (p, q, r),
               star(p + q, r) @ star(p, q).kron(eye(r)),
               star(p, q + r) @ eye(p).kron(star(q, r)), False)


def _commutative_product(g, max_total):
    for p in range(1, max_total + 1):
        for q in range(1, max_total - p + 1):
            yield ("graded commutativity (%d,%d)" % (p, q),
                   g.star_comp(q, p) @ g._swap(p, q), g.star_comp(p, q), False)


# each law as a generator of its identities (label, lhs, rhs, names_witnesses)
_IDENTITIES = {"coZinbiel": _cozinbiel, "codendriform": _codendriform,
               "cocommutativeOfSum": _cocommutative_of_sum, "counit": _counit,
               "Hopf": partial(_compatibility, "Hopf"),
               "semiHopf": partial(_compatibility, "semiHopf"),
               "associativeProduct": _associative_product,
               "commutativeProduct": _commutative_product}
PRODUCT_LAWS = ("Hopf", "semiHopf", "associativeProduct", "commutativeProduct")
LAWS = ("coZinbiel", "codendriform", "cocommutativeOfSum", "counit") + PRODUCT_LAWS


def check_laws(g: GradedCoalgebra, laws, max_total: int) -> dict:
    """Assert the requested laws as exact matrix identities in every total
    degree <= max_total; returns {law: list of failures} (empty lists pass).
    A failure is (label, witnesses): for the triple-coproduct components,
    the first three columns where the two sides differ, else [].

    The coZinbiel and codendriform triples run on the reduced components
    (all three factors in positive degree); the coassociativity of Delta,
    counit and compatibility laws include the counital edge components.
    The law names are LAWS; a law in PRODUCT_LAWS raises MissingStructure,
    whatever max_total, when g has no product.
    """
    if g.star is None and any(law in PRODUCT_LAWS for law in laws):
        raise MissingStructure("no product supplied")
    report = {}
    for law in laws:
        if law not in _IDENTITIES:
            raise ValueError("unknown law %r" % (law,))
        bad = report[law] = []
        for label, lhs, rhs, names_witnesses in _IDENTITIES[law](g, max_total):
            if lhs != rhs:
                bad.append((label, _differing_columns(lhs, rhs)[:3] if names_witnesses else []))
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
    """A matrix whose kernel is exactly the span of span_cols: a vector's
    remainder against an echelon of the span, read at the rows that are no
    pivot row, in increasing order.  Those rows' unit vectors complete the
    span to a basis, and the remainder is zero exactly on the span."""
    ech = Echelon(f, dim)
    for col in span_cols:
        ech.add(col)
    pivots = {prow for prow, _ in ech.pivots}
    at = {i: k for k, i in enumerate(i for i in range(dim) if i not in pivots)}
    cols = [{at[r]: v for r, v in ech.remainder({i: f.one()}).items()} for i in range(dim)]
    return Matrix(f, len(at), dim, cols)


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
            by_comp[(n, 0)][k][k * 1 + 0] = 1
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
                    comp[k][key] = comp[k].get(key, 0) + sign
        for (p, q), cols in by_comp.items():
            prec[(p, q)] = Matrix(f, dims[p] * dims[q], dims[n], [f.vector(c) for c in cols])
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
    if not group.is_abelian():
        raise NotAbelian("antisymmetrization compare needs an abelian group")
    s = s_map_rack_formula(group, field, max_n)
    src, tgt = s.source, s.target
    report = {"matches_antisymmetrization": True, "kills_symmetric": True,
              "term_counts": {}}
    for n in range(1, max_n + 1):
        rows = cell_digits(src.cell_of_pos[n], group.order, n)
        perms = list(_perms(range(1, n + 1)))
        tables = [tgt.basis_rows(n, cell_numbers(rows[:, [i - 1 for i in images]], group.order))
                  for images in perms]
        report["term_counts"][n] = sum(int((t >= 0).sum()) for t in tables)
        m = s.mat(n)
        if m != _signed_matrix(tables, [Permutation(images).sign for images in perms],
                               tgt.dim(n), field):
            report["matches_antisymmetrization"] = False
        for i in range(n - 1):
            swap = list(range(n))
            swap[i], swap[i + 1] = i + 1, i
            twins = src.basis_rows(n, cell_numbers(rows[:, swap], group.order)).tolist()
            for k, k2 in enumerate(twins):
                if field.axpy(m.column(k), m.cols_data[k2]):
                    report["kills_symmetric"] = False
    return report


def rack_half_coproduct_formula(C: ChainComplex, rack) -> GradedMap:
    """Independent route to Delta_< on rack chains: the explicit tuple
    formula.  For each shuffle with value 1 at position 1, the left factor
    keeps the first-block letters; a right-block letter x_{sigma(i)} is
    conjugated by the first-block letters larger than sigma(i), in
    increasing order.  Must agree with the face-composition route exactly
    (tested); the two constructions share only the shuffle enumeration and
    the signed sum, and this one reads only the digit rows and the rack
    operation, never the nerve's face tables."""
    T = C.tensor_square()
    op = np.array(rack.op)
    mats = {}
    for n in range(1, C.max_degree + 1):
        rows = cell_digits(C.cell_of_pos[n], rack.order, n)
        # the counital edge term x (x) pt
        tables = [T.pair_rows(n, n, cell_numbers(rows, rack.order),
                              cell_numbers(rows[:, :0], rack.order))]
        signs = [1]
        for p in range(1, n):
            for sigma, sign in enumerate_shuffles(FirstFixed(p, n - p)):
                first = [sigma(i) for i in range(1, p + 1)]
                right = []
                for i in range(p + 1, n + 1):
                    v = rows[:, sigma(i) - 1]
                    for a in sorted(x for x in first if x > sigma(i)):
                        v = op[v, rows[:, a - 1]]
                    right.append(v)
                tables.append(T.pair_rows(
                    n, p, cell_numbers(rows[:, [i - 1 for i in first]], rack.order),
                    cell_numbers(np.stack(right, axis=1), rack.order)))
                signs.append(sign)
        mats[n] = _signed_matrix(tables, signs, T.dim(n), C.field)
    return GradedMap(C, T, mats, desc="Delta_< (tuple formula)")


def bar_shuffle_product(C: ChainComplex, group) -> GradedMap:
    """Pontryagin product on normalized bar chains of an abelian group:
    sum over (p,q)-shuffles with sign, placing the letters at the shuffled
    positions.  A chain map exactly when the multiplication is a group
    morphism, i.e. for abelian groups."""
    f = C.field
    T = C.tensor_square()
    digits = [cell_digits(C.cell_of_pos[n], group.order, n) for n in range(C.max_degree + 1)]
    mats = {}
    for n in range(C.max_degree + 1):
        cols = []
        for (p, q) in T.components(n):
            i, j = T.basis_pairs(n, p)
            letters = np.concatenate((digits[p][i], digits[q][j]), axis=1)
            if p == 0 or q == 0:
                terms = [(list(range(n)), 1)]
            else:
                terms = [([sigma.inverse()(t) - 1 for t in range(1, n + 1)], sign)
                         for sigma, sign in enumerate_shuffles(All(p, q))]
            tables = [C.basis_rows(n, cell_numbers(letters[:, word], group.order))
                      for word, _ in terms]
            cols += _signed_matrix(tables, [sign for _, sign in terms], C.dim(n), f).cols_data
        mats[n] = Matrix(f, C.dim(n), T.dim(n), cols)
    return GradedMap(T, C, mats, desc="bar shuffle product")


def bar_aw_coproduct(C: ChainComplex) -> GradedMap:
    """Front-face/back-face (deconcatenation) coproduct on normalized bar
    chains; a chain map for any group."""
    order = C.source.n_cells(1)  # the group order: bar cells are words
    T = C.tensor_square()
    mats = {}
    for n in range(C.max_degree + 1):
        rows = cell_digits(C.cell_of_pos[n], order, n)
        tables = [T.pair_rows(n, p, cell_numbers(rows[:, :p], order),
                              cell_numbers(rows[:, p:], order)) for p in range(n + 1)]
        mats[n] = _signed_matrix(tables, [1] * (n + 1), T.dim(n), C.field)
    return GradedMap(C, T, mats, desc="bar AW coproduct")


def graded_coalgebra_from_chain_maps(C: ChainComplex, prec: GradedMap = None,
                                     succ: GradedMap = None, star: GradedMap = None,
                                     full: GradedMap = None, up_to=None) -> GradedCoalgebra:
    """Package chain-level coproduct/product maps as componentwise matrices
    over the chain coordinates (degree 0 must be one-dimensional)."""
    if up_to is None:
        up_to = C.max_degree
    T = C.tensor_square()

    def comps(gm):
        """The nonzero (p, q) blocks of a coproduct through degree up_to."""
        return {pq: b for n in gm.degrees() if n <= up_to
                for pq, b in T.blocks(gm.mat(n), n).items() if not b.is_zero()}

    dims = list(C.dims[:up_to + 1])
    return GradedCoalgebra(C.field, dims, comps(prec) if prec is not None else {},
                           delta_succ=comps(succ) if succ is not None else None,
                           star=star_components(star) if star is not None else None,
                           delta_full=comps(full) if full is not None else None)
