"""Per-cell reference builders for the table maps in rackhom, the full-scan
echelon sweep, and the nerve storage that labels decoded on demand replaced.

Each function builds a map the slow way: one cell at a time, reading cells
through their labels (`index`) and faces one `face` call at a time.  The
table versions in the package must equal them entry by entry.
`FullScanEchelon` reduces a column by visiting every stored pivot; the
heap-ordered `Echelon` must equal it entry by entry.  `stored_nerve` builds
a nerve's labels as itertools.product lists and its tables as tuples of
Python ints, and `unionfind_classes` finds the Gamma classes with a
union-find, as the package did before its int32 arrays, Words views and
array component search.  `TupleSquareMatrix` and its functions are the
matrices over Z/m as tuples of Python ints, one entry at a time, as
glstable computed them before its numpy arrays.  `check_laws_reference`
checks the coalgebra laws with one hand-written loop per law, as
coalgebra.check_laws did before its identity generators.
`lrel_les_reference` builds the L-relative long exact sequence with the
first-face equalizer's own cells as the subcomplex, d_S = retract d_T incl,
as chains did before the rack complex became the subcomplex.
`gamma_les_reference` builds the Gamma long exact sequence by running
gamma_functor_with_projection over a nerve with cells through max_n + 2, as
chains did before it wrote down that Gamma of a group's nerve is a point.
`TaggedEchelon` is a full-scan echelon that tracks each tagged column as a
combination of the tagged inputs, as exactfield.Echelon did before it held
a span and nothing else; the oracles below are the ones that need tags.
`tagged_echelon_analysis` is the analysis of a matrix as
exactfield.column_space_analysis computed it before its combinations rode
on negative keys, every column into one `TaggedEchelon`, tagged by its
index, kept as the image: the oracle of column_space_analysis, entry for
entry and in key order, and of the dense route (dense.dense_analysis).
`homology_by_search` finds the representatives as chains.homology did
before it read them off the image's pivot rows: each kernel column, tagged
("r", k), is added to a `TaggedEchelon` on the image's span and kept when
it enlarges it, at every degree, and `SearchHomology` projects by
completing that echelon with unit vectors, tagged ("a", i), and solving
in it.  `complement_projection_reference` is
coalgebra._complement_projection by the same unit completion and solve.
`product_quotient_boundaries` gives the quotient's boundaries as the
product proj d_T section, as chains._quotient did before it re-indexed d_T.
`added_top_images` builds a saturated top image and its projection to the
quotient through `Echelon.add`, as chains did before it handed the kernel
basis on through `Echelon.insert`.
`signed_matrix_reference` sums each column of a signed table map with
`signed_column` and canonicalises it in the `Matrix` constructor, as
chains._signed_matrix did before it checked the row range on the arrays.
`identity_perm`, `conjugacy_classes`, `is_trivial` and `rack_to_json` are
the identity permutation, the conjugacy classes of a group, the triviality
of a rack and a rack as the JSON text racks.rack_from_json reads, which
only tests ask for.
`morphism_normal_form`, `find_isomorphism` and `eta_section` have no
caller in the package: the surjection-then-injection factorization of a
cube-category morphism, a backtracking search for a cubical isomorphism
between small cubical sets, and the section of the normalization quotient
of a cubical set's chains.
"""

import json
from functools import partial
from itertools import permutations, product
from math import gcd

import numpy as np

from rackhom.chains import (GradedMap, HomologySummary, _les_assemble, _others, _quotient,
                            _restriction, _selection, _subcomplex, build_complex)
from rackhom.cubical import (ConstructionBug, Labels, Picked, QuotientIllDefined,
                             TruncationTooLow, gamma_functor_with_projection,
                             l_functor_with_inclusion)
from rackhom.exactfield import ColumnSpaceAnalysis, Echelon, Matrix
from rackhom.nerves import (BLOCK, GroupArith, _bar_face, _cube_faces, _insert, _rack_face,
                            cell_digits, cell_numbers)
from rackhom.shuffles import All, FirstFixed, FirstIsPPlus1, Permutation, enumerate_shuffles


def lnerve_inclusion_labels(g, tup):
    """Vertex labeling of the cubical-nerve cell corresponding to a rack
    nerve cell (g_1,...,g_n): v(A) is the product of the g_i over i in A in
    increasing order."""
    n = len(tup)
    v = []
    for mask in range(1, 2 ** n):
        acc = g.unit
        for i in range(n):
            if mask >> i & 1:
                acc = g.mul[acc][tup[i]]
        v.append(acc)
    return tuple(v)


def lnerve_inclusion_reference(g, y):
    """maps[n][c]: the cell of y (the cubical nerve of g, or its first-face
    equalizer) with the label lnerve_inclusion_labels assigns to rack cell c."""
    return [[y.index(n, tuple(g.elements[a] for a in lnerve_inclusion_labels(g, tup)))
             for tup in product(range(g.order), repeat=n)]
            for n in range(y.max_degree + 1)]


def face_word(x, n, word, c):
    """Faces at an index set applied to one cell, largest index first."""
    for i, eps in sorted(word, reverse=True):
        c = x.face(n, i, eps, c)
        n -= 1
    return c


def coproduct_reference(C, which):
    """The full or half shuffle coproduct, one cell and one shuffle at a time."""
    x = C.source
    f = C.field
    T = C.tensor_square()
    mats = {}
    degrees = range(0, C.max_degree + 1) if which == "full" else range(1, C.max_degree + 1)
    kind = {"full": All, "prec": FirstFixed, "succ": FirstIsPPlus1}[which]
    for n in degrees:
        cols = []
        for k in range(C.dim(n)):
            cell = C.cell_of_pos[n][k]
            col = {}

            def add(p, q, lc, rc, coeff):
                lp = C.cell_pos(p, lc)
                rp = C.cell_pos(q, rc)
                if lp is None or rp is None:
                    return
                key = T.index(n, (p, q), lp, rp)
                col[key] = col.get(key, 0) + coeff

            if n == 0:
                add(0, 0, cell, cell, 1)
            else:
                for p in range(0, n + 1):
                    q = n - p
                    if p >= 1 and q >= 1:
                        for sigma, sign in enumerate_shuffles(kind(p, q)):
                            first = [sigma(i) for i in range(1, p + 1)]
                            second = [sigma(i) for i in range(p + 1, n + 1)]
                            add(p, q, face_word(x, n, [(i, 0) for i in second], cell),
                                face_word(x, n, [(i, 1) for i in first], cell), sign)
                    elif q == 0 and which in ("full", "prec"):
                        add(n, 0, cell,
                            face_word(x, n, [(i, 1) for i in range(1, n + 1)], cell), 1)
                    elif p == 0 and which in ("full", "succ"):
                        add(0, n, face_word(x, n, [(i, 0) for i in range(1, n + 1)], cell),
                            cell, 1)
            cols.append(f.vector(col))
        mats[n] = Matrix(f, T.dim(n), C.dim(n), cols)
    return mats


def induced_coproduct_reference(delta, hs, max_total):
    """The homology components of a coproduct one representative at a time:
    each image is split by component through the rows of T.index, then the
    right factor is projected row group by row group, then the left."""
    T = delta.target
    C = hs.complex
    f = C.field
    out = {}
    for n in range(min(max_total, hs.up_to) + 1):
        if n not in delta.mats:
            continue
        images = [delta.mat(n).apply(col) for col in hs.reps[n]]
        for (p, q) in T.components(n):
            pair_of = {T.index(n, (p, q), i, j): (i, j)
                       for i in range(C.dim(p)) for j in range(C.dim(q))}
            cols = []
            for img in images:
                by_left = {}
                for r, v in img.items():
                    if r in pair_of:
                        i, j = pair_of[r]
                        by_left.setdefault(i, {})[j] = v
                acc = {}
                for i, vec in by_left.items():
                    f.axpy(acc, {(i, hj): hv for hj, hv in hs.project_vec(q, vec).items()})
                by_right = {}
                for (i, hj), v in acc.items():
                    by_right.setdefault(hj, {})[i] = v
                col = {}
                for hj, vec in by_right.items():
                    f.axpy(col, {hi * hs.dims[q] + hj: hv
                                 for hi, hv in hs.project_vec(p, vec).items()})
                cols.append(col)
            out[(p, q)] = Matrix(f, hs.dims[p] * hs.dims[q], hs.dims[n], cols)
    return out


def bar_shuffle_product_reference(C, group):
    f = C.field
    T = C.tensor_square()
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
                        for sigma, sign in enumerate_shuffles(All(p, q)):
                            inv = sigma.inverse()
                            terms.append((tuple(letters[inv(t) - 1]
                                                for t in range(1, n + 1)), sign))
                    for word, sign in terms:
                        cell = nerve.index(n, tuple(group.elements[a] for a in word))
                        pos = C.cell_pos(n, cell)
                        if pos is not None:
                            cols[src][pos] = cols[src].get(pos, 0) + sign
        mats[n] = Matrix(f, C.dim(n), T.dim(n), [f.vector(col) for col in cols])
    return mats


def bar_aw_coproduct_reference(C):
    f = C.field
    T = C.tensor_square()
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
    return mats


def pontryagin_reference(C, rack, mu_table, target, target_rack, up_to):
    f = C.field
    T = C.tensor_square()
    e = rack.basepoint
    mats = {}
    for n in range(up_to + 1):
        cols = [dict() for _ in range(T.dim(n))]
        for (p, q) in T.components(n):
            for i in range(C.dim(p)):
                li = tuple(rack.elements.index(v) for v in C.label(p, i))
                for j in range(C.dim(q)):
                    rj = tuple(rack.elements.index(v) for v in C.label(q, j))
                    out = tuple(mu_table[x][e] for x in li) + \
                        tuple(mu_table[e][y] for y in rj)
                    cell = target.source.index(
                        n, tuple(target_rack.elements[a] for a in out))
                    pos = target.cell_pos(n, cell)
                    if pos is not None:
                        cols[T.index(n, (p, q), i, j)][pos] = f.one()
        mats[n] = Matrix(f, target.dim(n), T.dim(n), cols)
    return mats


def rack_conjugation_reference(C, rack, a):
    """(c_a matrices, h_a matrices) as in rackhom.chains.rack_conjugation_data."""
    nerve = C.source
    f = C.field
    N = C.max_degree

    def chain_of(tup, n):
        cell = nerve.index(n, tuple(rack.elements[i] for i in tup))
        p = C.cell_pos(n, cell)
        return {} if p is None else {p: f.one()}

    ca_mats = {}
    for n in range(N + 1):
        cols = []
        for k in range(C.dim(n)):
            tup = tuple(rack.elements.index(e) for e in C.label(n, k))
            cols.append(chain_of(tuple(rack.op[x][a] for x in tup), n))
        ca_mats[n] = Matrix(f, C.dim(n), C.dim(n), cols)
    h_mats = {}
    for n in range(N):
        sgn = f.of_int(1 if n % 2 == 0 else -1)
        cols = []
        for k in range(C.dim(n)):
            tup = tuple(rack.elements.index(e) for e in C.label(n, k))
            col = chain_of(tup + (a,), n + 1)
            cols.append({kk: f.mul(sgn, v) for kk, v in col.items()})
        h_mats[n] = Matrix(f, C.dim(n + 1), C.dim(n), cols)
    return ca_mats, h_mats


def antisymmetrization_reference(group, s):
    """The report of rackhom.coalgebra.antisymmetrization_compare, from the
    comparison map s it builds."""
    src, tgt = s.source, s.target
    f = src.field
    report = {"matches_antisymmetrization": True, "kills_symmetric": True,
              "term_counts": {}}
    for n in range(1, src.max_degree + 1):
        count = 0
        for k in range(src.dim(n)):
            tup = tuple(group.elements.index(e) for e in src.label(n, k))
            want = {}
            for images in permutations(range(1, n + 1)):
                term = tuple(tup[images[i] - 1] for i in range(n))
                pos = tgt.cell_pos(n, tgt.source.index(n, tuple(group.elements[a] for a in term)))
                if pos is None:
                    continue
                count += 1
                want[pos] = want.get(pos, 0) + Permutation(images).sign
            if s.mat(n).column(k) != f.vector(want):
                report["matches_antisymmetrization"] = False
        report["term_counts"][n] = count
        if n >= 2:
            for k in range(src.dim(n)):
                tup = tuple(group.elements.index(e) for e in src.label(n, k))
                for i in range(n - 1):
                    swapped = list(tup)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    k2 = src.cell_pos(n, src.source.index(
                        n, tuple(group.elements[a] for a in swapped)))
                    if f.axpy(s.mat(n).column(k), s.mat(n).cols_data[k2]):
                        report["kills_symmetric"] = False
    return report


# -- nerve storage as it was: label lists, tuple tables, union-find classes ----


def _tuple_tables(order, width, keys, fn):
    """{key: tuple of the images of every cell of the given width under
    fn(rows, *key[1:])}, collected in lists BLOCK cells at a time."""
    total = order ** width
    cols = {key: [] for key in keys}
    for start in range(0, total, BLOCK):
        rows = cell_digits(np.arange(start, min(start + BLOCK, total)), order, width)
        for key, col in cols.items():
            col += cell_numbers(fn(rows, *key[1:]), order).tolist()
    return {key: tuple(col) for key, col in cols.items()}


def stored_nerve(kind, obj, max_degree):
    """(labels, faces, degens) of the group cubical ("group"), rack ("rack")
    or bar ("bar") nerve of obj: per degree the list of product words, and
    every face and degeneracy table as a tuple of ints."""
    if kind == "group":
        arith = GroupArith(obj)
        width, face_keys, face, degen = lambda n: 2 ** n - 1, _cube_faces, arith.face, arith.degen
    elif kind == "rack":
        width, face_keys = (lambda n: n), _cube_faces
        face, degen = partial(_rack_face, np.array(obj.op)), partial(_insert, obj.basepoint)
    else:
        width, face_keys = (lambda n: n), (lambda n: [(n, i) for i in range(n + 1)])
        face, degen = partial(_bar_face, np.array(obj.mul)), partial(_insert, obj.unit)
    order = len(obj.elements)
    faces, degens = {}, {}
    for n in range(1, max_degree + 1):
        faces.update(_tuple_tables(order, width(n), face_keys(n), face))
        degens.update(_tuple_tables(order, width(n - 1), [(n, i) for i in range(1, n + 1)],
                                    degen))
    labels = [list(product(obj.elements, repeat=width(n))) for n in range(max_degree + 1)]
    return labels, faces, degens


class _UnionFind:
    """The union-find the Gamma functor used before its classes were found
    on whole arrays: the smaller root wins each union."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller root wins, for deterministic class representatives
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def unionfind_classes(x, n):
    """The Gamma projection of degree n as the union-find built it: one
    union per degree-(n+1) cell, classes numbered by their roots."""
    u = _UnionFind(x.n_cells(n))
    for a, b in zip(x._face[(n + 1, 1, 0)].tolist(), x._face[(n + 1, 1, 1)].tolist()):
        u.union(a, b)
    roots = np.array([u.find(c) for c in range(x.n_cells(n))], dtype=np.intp)
    return np.searchsorted(np.unique(roots), roots)


def gamma_reference(x):
    """The Gamma functor one cell and one class at a time: (labels, face
    tables, degeneracy tables, projection) as gamma_functor_with_projection
    builds them."""
    N = x.max_degree
    if N < 1:
        raise TruncationTooLow("gamma needs at least degree 1")
    M = N - 1
    uf = []
    for n in range(M + 1):
        u = _UnionFind(x.n_cells(n))
        for c in range(x.n_cells(n + 1)):
            u.union(x.face(n + 1, 1, 0, c), x.face(n + 1, 1, 1, c))
        uf.append(u)
    reps = []
    cls_index = []
    for n in range(M + 1):
        rep = sorted({uf[n].find(c) for c in range(x.n_cells(n))})
        reps.append(rep)
        cls_index.append({r: i for i, r in enumerate(rep)})
    if len(reps[0]) != 1:
        raise QuotientIllDefined(
            "degree-0 coequalizer is not a single class (disconnected input)",
            witnesses=[x.label(0, r) for r in reps[0]])

    def cls(n, c):
        return cls_index[n][uf[n].find(c)]

    labels = [[x.label(n, r) for r in reps[n]] for n in range(M + 1)]
    face = {}
    degen = {}
    for n in range(1, M + 1):
        members = [[] for _ in range(len(reps[n]))]
        for c in range(x.n_cells(n)):
            members[cls(n, c)].append(c)
        for i in range(1, n + 1):
            for eps in (0, 1):
                col = []
                for k, ms in enumerate(members):
                    images = {cls(n - 1, x.face(n, i, eps, c)) for c in ms}
                    if len(images) != 1:
                        raise QuotientIllDefined(
                            "induced face d_%d,%d not constant on a class" % (i, eps),
                            witnesses=[x.label(n, c) for c in ms])
                    col.append(images.pop())
                face[(n, i, eps)] = tuple(col)
        for i in range(1, n + 1):
            membs = [[] for _ in range(len(reps[n - 1]))]
            for c in range(x.n_cells(n - 1)):
                membs[cls(n - 1, c)].append(c)
            col = []
            for k, ms in enumerate(membs):
                images = {cls(n, x.degen(n, i, c)) for c in ms}
                if len(images) != 1:
                    raise QuotientIllDefined(
                        "induced degeneracy s_%d not constant on a class" % i,
                        witnesses=[x.label(n - 1, c) for c in ms])
                col.append(images.pop())
            degen[(n, i)] = tuple(col)
    proj = [tuple(cls(n, c) for c in range(x.n_cells(n))) for n in range(M + 1)]
    return labels, face, degen, proj


class FullScanEchelon(Echelon):
    """An `Echelon` whose sweep tests every stored pivot, in insertion
    order, for its row in the column."""

    def remainder(self, col):
        f = self.field
        col = {r: v for r, v in col.items() if v}
        for prow, pcol in self.pivots:
            if prow in col:
                f.axpy(col, pcol, -f.div(col[prow], pcol[prow]))
        return col


class TaggedEchelon(Echelon):
    """A full-scan `Echelon` that tracks each tagged column as a
    combination of the tagged inputs, as exactfield.Echelon did before its
    combinations moved onto negative keys: an untagged column is reduced
    but not tracked, so coordinates are read modulo the span of the
    untagged ones.  span, when given, is an untagged echelon whose pivots
    it starts from, shared."""

    def __init__(self, field, rows, span=None):
        super().__init__(field, rows)
        if span is not None:
            self.pivots = list(span.pivots)
            self._order = dict(span._order)
        self.combos = [None] * self.rank  # the tracked combination of each pivot
        self.last_combo = None

    def _reduce(self, col, combo):
        f = self.field
        col = {r: v for r, v in col.items() if v}
        for (prow, pcol), pcombo in zip(self.pivots, self.combos):
            if prow in col:
                factor = -f.div(col[prow], pcol[prow])
                f.axpy(col, pcol, factor)
                if combo is not None and pcombo is not None:
                    f.axpy(combo, pcombo, factor)
        return col, combo

    def remainder(self, col):
        return self._reduce(col, None)[0]

    def add(self, col, tag=None):
        """Echelon.add; for a dependent tagged column the dependency lands
        in last_combo."""
        col, combo = self._reduce(col, None if tag is None else {tag: self.field.one()})
        self.last_combo = None if col else combo
        if col:
            self._order[max(col)] = self.rank
            self.pivots.append((max(col), col))
            self.combos.append(combo)
        return bool(col)

    def coordinates(self, col):
        """The tagged combination equal to col modulo the untagged columns,
        as tag -> coefficient; None when col is outside the span."""
        rem, combo = self._reduce(col, {})
        return None if rem else {t: self.field.neg(c) for t, c in combo.items()}


def tagged_echelon_analysis(m: Matrix) -> ColumnSpaceAnalysis:
    """Rank, kernel basis and image echelon of m from every column, tagged
    by its index, added to one TaggedEchelon in order; a dependent column's
    combination is its kernel column."""
    ech = TaggedEchelon(m.field, m.rows)
    kernel = [ech.last_combo for j in range(m.cols) if not ech.add(m.column(j), tag=j)]
    return ColumnSpaceAnalysis(ech.rank, Matrix(m.field, m.cols, len(kernel), kernel), ech)


class SearchHomology(HomologySummary):
    """A HomologySummary whose projection completes the degree's echelon
    (the image, then the representatives tagged ("r", k)) by every unit
    vector that enlarges it, tagged ("a", i), and solves in it, keeping the
    coordinates on the representatives."""

    def project_vec(self, n, vec):
        f = self.complex.field
        if self.dims[n] == 0:
            return {}
        ech = self.echelons[n]
        if ech.rank < ech.rows:
            for i in range(ech.rows):
                ech.add({i: f.one()}, tag=("a", i))
        coords = ech.coordinates(vec)
        if coords is None:
            raise ConstructionBug("projection echelon does not span the chain space")
        return {tag[1]: v for tag, v in coords.items() if tag[0] == "r"}


def homology_by_search(cx, up_to, top_image=None):
    """Homology through up_to with no orbit route and no early stop: every
    kernel column of d_n, in order, is added tagged ("r", k) to a
    TaggedEchelon on the span of an echelon of im d_{n+1} (d_{up_to+1}
    reduced column by column unless top_image is given) and is a
    representative when it enlarges it."""
    dims, reps, echs = [], [], []
    for n in range(up_to + 1):
        if n < up_to:
            image = cx.analysis(n + 1).image
        elif top_image is not None:
            image = top_image
        else:
            image = Echelon(cx.field, cx.dim(n))
            for col in cx.d(n + 1).cols_data:
                image.add(col)
        ech = TaggedEchelon(cx.field, cx.dim(n), span=image)
        myreps = []
        for col in cx.analysis(n).kernel_basis.cols_data:
            if ech.add(col, tag=("r", len(myreps))):
                myreps.append(dict(col))
        dims.append(len(myreps))
        reps.append(myreps)
        echs.append(ech)
    return SearchHomology(cx, up_to, dims, reps, echs)


def complement_projection_reference(f, dim, span_cols):
    """A matrix whose kernel is the span of span_cols: the span's echelon
    completed by each unit vector that enlarges it, tagged ("a", k) in
    order, and each unit vector's coordinates on those, solved in it."""
    ech = TaggedEchelon(f, dim)
    for col in span_cols:
        ech.add(col)
    comp = 0
    for i in range(dim):
        if ech.add({i: f.one()}, tag=("a", comp)):
            comp += 1
    cols = [{k: v for (_, k), v in ech.coordinates({i: f.one()}).items()}
            for i in range(dim)]
    return Matrix(f, comp, dim, cols)


def product_quotient_boundaries(T, proj, section):
    """d_Q(n) = proj[n-1] d_T(n) section[n] for n = 1 .. T.max_degree, by
    two matrix products."""
    return [proj[n - 1] @ (T.d(n) @ section[n]) for n in range(1, T.max_degree + 1)]


def added_top_images(kernel: Matrix, proj: Matrix):
    """The top image spanned by the columns of kernel, each added to an
    Echelon, and its projection by proj, each projected pivot column added
    in order."""
    image = Echelon(kernel.field, kernel.rows)
    for col in kernel.cols_data:
        image.add(col)
    top_q = Echelon(kernel.field, proj.rows)
    for _, col in image.pivots:
        top_q.add(proj.apply(col))
    return image, top_q


def signed_column(targets, signs):
    """The chain sum of the target rows with their integer signs, without
    the dropped terms (row -1), as a dict of integers (a cancelled entry
    stays as 0).  Matrix and Matrix.apply make the entries field elements."""
    col = {}
    for t, s in zip(targets, signs):
        if t >= 0:
            col[t] = col.get(t, 0) + s
    return col


def signed_matrix_reference(tables, signs, rows, f):
    """chains._signed_matrix through the checking Matrix constructor: the
    signed_column of each column's targets, range-checked and made
    canonical entry by entry."""
    cols = [signed_column(targets, signs)
            for targets in zip(*(np.asarray(t).tolist() for t in tables))]
    return Matrix(f, rows, len(cols), cols)


class TupleSquareMatrix:
    """An n x n matrix over Z/m as a tuple of tuples of Python ints."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(v % ring.m for v in r) for r in rows)
        self.n = len(self.rows)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("not square")

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, TupleSquareMatrix) and self.ring == other.ring
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        return "SquareMatrix(%s, %r)" % (self.ring, [list(r) for r in self.rows])

    def __matmul__(self, other):
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("size or ring mismatch")
        m = self.ring.m
        n = self.n
        brows = other.rows
        return TupleSquareMatrix(self.ring, [
            [sum(self.rows[i][k] * brows[k][j] for k in range(n)) % m
             for j in range(n)] for i in range(n)])

    def det(self):
        """Exact integer Bareiss elimination, then reduced."""
        n = self.n
        if n == 0:
            return 1 % self.ring.m
        a = [[int(v) for v in r] for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return (sign * a[n - 1][n - 1]) % self.ring.m

    def is_invertible(self):
        return gcd(self.det(), self.ring.m) == 1


def direct_sum_reference(a, b):
    n = a.n + b.n
    rows = [[0] * n for _ in range(n)]
    for i in range(a.n):
        for j in range(a.n):
            rows[i][j] = a.rows[i][j]
    for i in range(b.n):
        for j in range(b.n):
            rows[a.n + i][a.n + j] = b.rows[i][j]
    return TupleSquareMatrix(a.ring, rows)


def interleave_reference(a, b):
    """a-entries at odd (1-based) positions, b-entries at even ones."""
    n = a.n
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(1, 2 * n + 1):
        for j in range(1, 2 * n + 1):
            if i % 2 != j % 2:
                continue
            if i % 2 == 1:
                rows[i - 1][j - 1] = a.rows[(i + 1) // 2 - 1][(j + 1) // 2 - 1]
            else:
                rows[i - 1][j - 1] = b.rows[i // 2 - 1][j // 2 - 1]
    return TupleSquareMatrix(a.ring, rows)


def permutation_reference(ring, images):
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for k, i in enumerate(images, start=1):
        rows[i - 1][k - 1] = 1
    return TupleSquareMatrix(ring, rows)


def conjugators_reference(ring, n, m=None):
    if m is None:
        m = n
    images = [2 * k - 1 for k in range(1, n + 1)] + [2 * (k - n) for k in range(n + 1, 2 * n + 1)]
    d_images = [m + k for k in range(1, n + 1)] + [i for i in range(1, m + 1)]
    return permutation_reference(ring, images), permutation_reference(ring, d_images)


def random_invertible_reference(ring, n, rng):
    while True:
        m = TupleSquareMatrix(ring, [[rng.randrange(ring.m) for _ in range(n)]
                                     for _ in range(n)])
        if m.is_invertible():
            return m


def _swap_reference(g, p, q):
    """V_p (x) V_q -> V_q (x) V_p with the Koszul sign, one column at a time."""
    f = g.field
    dp, dq = g.dims[p], g.dims[q]
    sgn = f.of_int(-1 if (p * q) % 2 else 1)
    cols = []
    for i in range(dp):
        for j in range(dq):
            cols.append({j * dp + i: sgn})
    return Matrix(f, dq * dp, dp * dq, cols)


def _tau_of_prec_reference(g, p, q):
    return _swap_reference(g, q, p) @ g.prec(q, p)


def _succ_reference(g, p, q):
    if g.delta_succ is not None:
        return g.comp(g.delta_succ, p, q)
    return _tau_of_prec_reference(g, p, q)


def _delta_reference(g, p, q):
    if g.delta_full is not None:
        return g.comp(g.delta_full, p, q)
    if p == 0 and q == 0:
        return g.eye(0)
    return g.prec(p, q) + _succ_reference(g, p, q)


def _check_triple_reference(g, lhs_fn, rhs_fn, max_total, reduced=True):
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


def check_laws_reference(g, laws, max_total):
    """check_laws as one hand-written loop per law, each with its own
    comparison and failure list, and the Koszul swap built column by column:
    the same failures, in the same order, with the same witness columns."""
    if g.star is None and any(law in ("Hopf", "semiHopf", "associativeProduct",
                                      "commutativeProduct") for law in laws):
        raise ValueError("no product supplied")
    report = {}
    eye = g.eye
    swap, succ, delta = (partial(h, g) for h in
                         (_swap_reference, _succ_reference, _delta_reference))
    for law in laws:
        if law == "coZinbiel":
            report[law] = _check_triple_reference(
                g,
                lambda p, q, r: g.prec(p, q).kron(eye(r)) @ g.prec(p + q, r),
                lambda p, q, r: (eye(p).kron(g.prec(q, r)) @ g.prec(p, q + r))
                + (eye(p).kron(_tau_of_prec_reference(g, q, r)) @ g.prec(p, q + r)),
                max_total)
        elif law == "codendriform":
            bad = _check_triple_reference(
                g,
                lambda p, q, r: g.prec(p, q).kron(eye(r)) @ g.prec(p + q, r),
                lambda p, q, r: (eye(p).kron(g.prec(q, r)) @ g.prec(p, q + r))
                + (eye(p).kron(succ(q, r)) @ g.prec(p, q + r)),
                max_total)
            bad += _check_triple_reference(
                g,
                lambda p, q, r: succ(p, q).kron(eye(r)) @ g.prec(p + q, r),
                lambda p, q, r: eye(p).kron(g.prec(q, r)) @ succ(p, q + r),
                max_total)
            bad += _check_triple_reference(
                g,
                lambda p, q, r: eye(p).kron(succ(q, r)) @ succ(p, q + r),
                lambda p, q, r: (g.prec(p, q).kron(eye(r)) @ succ(p + q, r))
                + (succ(p, q).kron(eye(r)) @ succ(p + q, r)),
                max_total)
            report[law] = bad
        elif law == "cocommutativeOfSum":
            bad = []
            for n in range(1, max_total + 1):
                for p in range(0, n + 1):
                    q = n - p
                    if swap(q, p) @ delta(q, p) != delta(p, q):
                        bad.append(("cocommutativity (%d,%d)" % (p, q), []))
            bad += _check_triple_reference(
                g,
                lambda p, q, r: delta(p, q).kron(eye(r)) @ delta(p + q, r),
                lambda p, q, r: eye(p).kron(delta(q, r)) @ delta(p, q + r),
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
            first = delta if law == "Hopf" else g.prec
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
                            mid = eye(a1).kron(swap(a2, b1)).kron(eye(b2))
                            rhs = rhs + (g.star_comp(a1, b1).kron(g.star_comp(a2, b2))
                                         @ mid @ first(a1, a2).kron(delta(b1, b2)))
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
                    if g.star_comp(q, p) @ swap(p, q) != g.star_comp(p, q):
                        bad.append(("graded commutativity (%d,%d)" % (p, q), []))
            report[law] = bad
        else:
            raise ValueError("unknown law %r" % (law,))
    return report


def lrel_les_reference(x, field, max_n):
    """The L-relative long exact sequence of a cubical set x with cells
    through max_n + 1: the subcomplex is spanned by the cells that
    l_functor_with_inclusion keeps, with d_S = retract d_T incl."""
    if x.max_degree < max_n + 1:
        raise TruncationTooLow("lrel LES through %d needs cells through %d"
                               % (max_n, max_n + 1))
    T = build_complex(x, field, "normalized")
    _, cells = l_functor_with_inclusion(x)
    sub = []
    for n in range(T.max_degree + 1):
        rows = T.basis_rows(n, cells[n])
        sub.append(np.unique(rows[rows >= 0]))
    incl = [_selection(rows, T.dim(n), field) for n, rows in enumerate(sub)]
    Q, proj, section, retract = _quotient(T, sub)
    S = _subcomplex(T, incl, retract, [Picked(T.labels[n], rows)
                                       for n, rows in enumerate(sub)])
    return _les_assemble("lrel", field, max_n, S, T, Q, incl, proj, section, retract)


def gamma_les_reference(x, field, max_n):
    """The Gamma long exact sequence ker(C -> C(quotient)) -> C -> C(quotient
    by first faces) of a cubical set x with cells through max_n + 2: the
    quotient is gamma_functor_with_projection's, each class represented by
    its smallest cell, and the subcomplex is spanned by the cells that
    represent no class, each minus the section of its projection."""
    gx, gproj = gamma_functor_with_projection(x)
    N = gx.max_degree
    T = build_complex(x.truncated(N), field, "normalized")
    Q = build_complex(gx, field, "normalized")
    proj, section, incl, retract = [], [], [], []
    for n in range(N + 1):
        proj.append(_selection(Q.basis_rows(n, gproj[n][T.cell_of_pos[n]]), Q.dim(n), field))
        # a class's smallest cell, its representative, comes first
        _, reps = np.unique(gproj[n], return_index=True)
        rows = T.basis_rows(n, reps[Q.cell_of_pos[n]])
        if (rows < 0).any():
            raise ConstructionBug("quotient cell %r is degenerate in the total complex"
                                  % (Q.label(n, int(np.argmax(rows < 0))),))
        section.append(_selection(rows, T.dim(n), field))
        # ker proj: each other cell minus the section of its projection
        others = _others(rows, T.dim(n))
        picked = _selection(others, T.dim(n), field)
        incl.append(picked - section[n] @ (proj[n] @ picked))
        retract.append(_restriction(others, T.dim(n), field))
    labels = [Labels(incl[n].cols, partial("{}{}".format, "k%d_" % n)) for n in range(N + 1)]
    S = _subcomplex(T, incl, retract, labels)
    return _les_assemble("gamma", field, max_n, S, T, Q, incl, proj, section, retract)


def identity_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def conjugacy_classes(g):
    """The conjugacy classes of the group g, each a sorted list of element
    indices, in the order of their least elements."""
    n = g.order
    seen = set()
    classes = []
    for a in range(n):
        if a in seen:
            continue
        cls = {g.mul[g.mul[g.inv[h]][a]][h] for h in range(n)}
        classes.append(sorted(cls))
        seen.update(cls)
    return classes


def is_trivial(rack) -> bool:
    n = rack.order
    return all(rack.op[a][b] == a for a in range(n) for b in range(n))


def rack_to_json(rack) -> str:
    return json.dumps({"elements": [repr(e) for e in rack.elements],
                       "op": [list(r) for r in rack.op],
                       "basepoint": rack.basepoint}, sort_keys=True)


def morphism_normal_form(f, m: int):
    """Canonical surjection-then-injection factorization of a cube-category
    morphism: strictly increasing sigma indices (the unused inputs, deleted
    largest-first so no reindexing occurs) followed by strictly increasing
    delta insertions (i, eps) at the constant output positions."""
    deltas = tuple((pos + 1, e[1]) for pos, e in enumerate(f) if e[0] == "c")
    used = {e[1] for e in f if e[0] == "v"}
    sigmas = tuple(sorted(set(range(1, m + 1)) - used))
    return sigmas, deltas


def morphism_from_normal_form(sigmas, deltas, m: int, n: int):
    """Rebuild the output-tuple form; inverse of morphism_normal_form."""
    used = [j for j in range(1, m + 1) if j not in set(sigmas)]
    consts = dict()
    for i, eps in deltas:
        consts[i] = eps
    out = []
    it = iter(used)
    for pos in range(1, n + 1):
        if pos in consts:
            out.append(("c", consts[pos]))
        else:
            out.append(("v", next(it)))
    return tuple(out)


def find_isomorphism(x, y, up_to=None):
    """Backtracking search for a cubical isomorphism x -> y through degree
    up_to; returns the degreewise maps or None.  Intended for small objects;
    candidates are pruned by commuting with the already-fixed lower degrees.
    """
    N = min(x.max_degree, y.max_degree) if up_to is None else up_to
    for n in range(N + 1):
        if x.n_cells(n) != y.n_cells(n):
            return None
    maps = [None] * (N + 1)

    def extend(n):
        if n > N:
            return True
        kx, ky = x.n_cells(n), y.n_cells(n)
        cands = []
        for c in range(kx):
            ok = []
            for d in range(ky):
                good = True
                if n >= 1:
                    for i in range(1, n + 1):
                        for eps in (0, 1):
                            if maps[n - 1][x.face(n, i, eps, c)] != y.face(n, i, eps, d):
                                good = False
                                break
                        if not good:
                            break
                if good:
                    ok.append(d)
            cands.append(ok)

        assign = [None] * kx
        # degeneracy images are forced by the lower-degree map
        if n >= 1:
            for i in range(1, n + 1):
                for c in range(x.n_cells(n - 1)):
                    src = x.degen(n, i, c)
                    tgt = y.degen(n, i, maps[n - 1][c])
                    if assign[src] is not None and assign[src] != tgt:
                        return False
                    if tgt not in cands[src]:
                        return False
                    assign[src] = tgt
        used = set(a for a in assign if a is not None)
        if len(used) != sum(1 for a in assign if a is not None):
            return False
        free = [c for c in range(kx) if assign[c] is None]
        free.sort(key=lambda c: len(cands[c]))

        def place(t):
            if t == len(free):
                return extend(n + 1)
            c = free[t]
            for d in cands[c]:
                if d in used:
                    continue
                assign[c] = d
                used.add(d)
                maps[n] = assign
                if place(t + 1):
                    return True
                used.discard(d)
                assign[c] = None
            return False

        maps[n] = assign
        return place(0)

    if extend(0):
        return maps
    return None


def eta_section(x, field, up_to=None):
    """Section of the normalization quotient: on a degree-n cell apply
    (id - s_1 d_{1,0}) ... (id - s_n d_{n,0}) rightmost factor first, inside
    the unnormalized complex.  Kills degenerate cells; quotient o section
    is the identity on normalized chains (both are asserted by tests)."""
    if up_to is None:
        up_to = x.max_degree
    norm = build_complex(x, field, "normalized")
    unnorm = build_complex(x, field, "unnormalized")
    f = field
    mats = {}
    for n in range(up_to + 1):
        cols = []
        for k in range(norm.dim(n)):
            vec = {int(norm.cell_of_pos[n][k]): 1}
            for i in range(n, 0, -1):
                out = dict(vec)
                for c, v in vec.items():
                    t = x.degen(n, i, x.face(n, i, 0, c))
                    out[t] = out.get(t, 0) - v
                vec = out
            cols.append(f.vector(vec))
        mats[n] = Matrix(f, unnorm.dim(n), norm.dim(n), cols)
    gm = GradedMap(norm, unnorm, mats, desc="eta")
    gm.unnormalized = unnorm
    return gm
