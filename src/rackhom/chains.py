"""Chain complexes of cubical/simplicial sets, homology with exact
projections, graded maps, the comparison map from rack chains to bar chains,
and the two long exact sequences.

Boundary conventions (fixed once, used everywhere):

    cubical     d = sum_{i=1..n} (-1)^(i+1) (d_{i,1} - d_{i,0})
    simplicial  d = sum_{i=0..n} (-1)^i d_i
    tensor      d(a x b) = da x b + (-1)^|a| a x db

Normalized complexes have the nondegenerate cells as basis; boundary terms
landing on degenerate cells are dropped.  Homology in degree n always
requires boundaries through degree n+1; at the top degree that boundary may
be supplied as a streamed column echelon instead of a matrix (the group
cubical nerve grows like |G|^(2^n - 1), so the top is never materialised for
the larger groups).

Every map between cell bases is a signed sum of cell maps: one table of
target rows for all source basis cells per term, with an integer sign,
summed column by column by _signed_matrix.  The terms are the faces of a
boundary, the permutations of the comparison map S, the shuffles of a
coproduct or a shuffle product (coalgebra), the single cell map of a
Pontryagin product (glstable) or of conjugation and its homotopy
(rack_conjugation_data).  A table is read off whole face tables, or off
numpy gathers on the digit rows of all source cells at once (cell_digits,
cell_numbers); the face tables are the nerve's int32 arrays, read as they
are.  A cell is its number.  basis_rows and TensorComplex.pair_rows turn
target cells into rows, with -1 for a term that lands on a degenerate cell
and is dropped.

Labels are decoded on demand: the labels of every complex (a nerve's basis
cells, a subcomplex or quotient, the pairs of a tensor square, homology
generators) are read-only Labels views over the labels they come from, so
a label is computed only when a report prints it or a failure names it.

The tensor square C (x) C is one TensorComplex per complex, built by
ChainComplex.tensor_square; no other code knows its layout.

Both long exact sequences (L-relative and Gamma) run through _les_assemble,
and both arrive split on cell bases: each has an inclusion incl, a
projection proj, a section of proj and a retraction of incl, all 0/1
matrices (_selection, _restriction), so no map of a sequence is eliminated
or solved in.  Both quotients are _quotient, d_Q = proj d_T section, read
off d_T by renumbering rows, with the retraction onto the subcomplex's rows
beside proj.  The L-relative
subcomplex is the rack complex of Conj(G): the first-face equalizer of the
group's cubical nerve is the rack space of Fenn, Rourke and Sanderson,
lnerve_inclusion maps the rack nerve onto it, and the inclusion is
certified a chain map.  Gamma of a group's cubical nerve is a point, so the
Gamma quotient is k in degree 0 and the Gamma subcomplex, the kernel of
proj, is spanned by every cell above degree 0; _subcomplex gives it
d_S = retract d_T incl, checked by incl d_S = d_T incl.  A top boundary
that is not materialised enters as one Echelon of its image
(stream_group_top_image); the quotient's top image is its projection.
The stream hands its rank tracker batches of face rows, which the mod-p
tracker scatters into one block (float32 or int64, whichever the batch's
written bound admits; _ModRank), and checks d^2 = 0 on each batch with
one gathered product.  A saturated stream's image is ker d itself,
handed on as the kernel basis of T's analysis (inserted unreduced, and
projected to the quotient mostly the same way; see _les_assemble): the
rack complex's top boundary is checked against the image only when the
stream is exhausted.  Every analysis of a boundary is
dense.boundary_analysis (dense_analysis gives its argument).
homology reads its representatives off the pivot rows of the image's
echelon, which are unit rows of ker d_n (every pivot sits at its column's
max key), and a projection off a chain's remainder against that echelon:
neither eliminates (see homology).  The top degree of a rack complex with
Inn X not trivial, over a field whose characteristic does not divide
|Inn X|, is read off the Inn(X)-orbit complex and the orbit-indicator
cocycles of Etingof and Grana (JPAA 177, 2003), and its top boundary is
not reduced (orbitcap; see homology).  The Gamma subcomplex shares T's boundaries above degree 1, and
their eliminations (ChainComplex.shares).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dfield
from functools import partial
from itertools import permutations
from math import gcd

import numpy as np

from .cubical import ConstructionBug, CubSet, Labels, Picked, TruncationTooLow
from .dense import _mod, boundary_analysis
from .exactfield import (ColumnSpaceAnalysis, Echelon, FieldTag, Matrix, ShapeError,
                         column_space_analysis, least_prime_not_dividing)
from .nerves import (BLOCK, DEFAULT_BUDGET, BudgetExceeded, GroupArith, bar_nerve,
                     cell_digits, cell_numbers, group_cubical_nerve, lnerve_inclusion,
                     rack_nerve)
from .orbitcap import orbit_words, phi
from .racks import FiniteGroup, PointedRack, conj_rack
from .shuffles import Permutation


class NotChainMap(Exception):
    pass


class ChainComplex:
    """Graded basis-indexed free modules with boundary matrices.  labels
    holds one label sequence per degree (usually a Labels view), kept as
    given."""

    def __init__(self, field, labels, boundaries, source=None, cell_rows=None,
                 cell_of_pos=None, check=True, shares=None):
        self.field = field
        self.labels = list(labels)
        self.dims = [len(l) for l in self.labels]
        self.max_degree = len(self.labels) - 1
        self.boundaries = list(boundaries)  # boundaries[n]: C_n -> C_{n-1}, n >= 1
        self.source = source
        self._rows = cell_rows  # per degree: cell -> basis position, -1 when degenerate
        self.cell_of_pos = cell_of_pos
        # degree n -> a checked complex whose d_n is this complex's d_n, the
        # same Matrix: it owns the eliminations of d_n, and d_{n-1} d_n = 0
        # is its check where it owns d_{n-1} as well
        self.shares = shares or {}
        self._analyses = {}
        self._images = {}
        self._square = None
        if check:
            for n in range(2, self.max_degree + 1):
                if self.shares.get(n, self) is self.shares.get(n - 1):
                    continue
                if not (self.d(n - 1) @ self.d(n)).is_zero():
                    for j in range(self.dims[n]):
                        if self.d(n - 1).apply(self.d(n).column(j)):
                            raise ConstructionBug(
                                "d^2 != 0 at degree %d on %r" % (n, self.label(n, j)))

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n <= self.max_degree else 0

    def d(self, n: int) -> Matrix:
        if n <= 0 or n > self.max_degree:
            return Matrix.zeros(self.field, self.dim(n - 1), self.dim(n))
        return self.boundaries[n - 1]

    def label(self, n: int, k: int):
        return self.labels[n][k]

    def analysis(self, n: int) -> ColumnSpaceAnalysis:
        """The one elimination of d_n: rank, ker d_n and im d_n all come
        from it.  Callers read it and never add to its image.  It is
        dense.boundary_analysis (dense_analysis gives its argument)."""
        owner = self.shares.get(n, self)
        if n not in owner._analyses:
            owner._analyses[n] = boundary_analysis(owner.d(n))
        return owner._analyses[n]

    def image(self, n: int) -> Echelon:
        """An echelon of im d_n alone, its columns reduced once: the top
        image homology reads, where ker d_n is not needed.  Callers never
        add to it."""
        owner = self.shares.get(n, self)
        if n not in owner._images:
            ech = Echelon(owner.field, owner.dim(n - 1))
            for col in owner.d(n).cols_data:
                ech.add(col)
            owner._images[n] = ech
        return owner._images[n]

    def tensor_square(self) -> "TensorComplex":
        """C (x) C through the top degree, built once; every coproduct and
        product of C lives on it."""
        if self._square is None:
            self._square = TensorComplex(self, self.max_degree)
        return self._square

    def cell_pos(self, n: int, cell_index: int):
        """Basis position of a source cell (None if the cell is degenerate)."""
        if self._rows is None:
            return cell_index
        p = int(self._rows[n][cell_index])
        return None if p < 0 else p

    def basis_rows(self, n: int, cells):
        """Basis positions of an array of degree-n cells, -1 for each
        degenerate one."""
        return _table_rows(self._rows, n, cells)


def _table_rows(tables, n, cells):
    """The rows of an array of degree-n cells in per-degree cell -> row
    tables (-1 for a degenerate cell); with no tables a cell is its row."""
    cells = np.asarray(cells, dtype=np.int64)
    return cells if tables is None else tables[n][cells]


def _boundary_keys(n: int, cubical: bool):
    """The faces summed in the degree-n boundary, in order: (i, eps) for
    d_{i,eps} or (i,) for d_i, each with the sign (-1)^sum(key)."""
    if cubical:
        return [(i, eps) for i in range(1, n + 1) for eps in (1, 0)]
    return [(i,) for i in range(n + 1)]


def _signed_matrix(tables, signs, rows, f):
    """The matrix with rows rows whose column j is the chain sum of the
    rows tables[t][j], one table of target rows per term t (basis_rows or
    pair_rows), with the integer signs[t], without the dropped terms (row
    -1) and the entries that cancel.  A column's keys are its rows in the
    order of their first terms.

    The row range is checked once per table, on the array.  Each column is
    summed in the field elements of the signs, and is canonical as built
    unless two of its terms meet at one row or a sign is 0 in the field;
    only such a column passes through field.vector, which reduces its sums
    and drops its zeros, keeping the key order."""
    tables = [np.asarray(t) for t in tables]
    for t in tables:
        if t.size and not (t.min() >= -1 and t.max() < rows):
            raise ShapeError("row index out of range")
    units = [f.of_int(s) for s in signs]
    exact = all(units)
    vector = f.vector
    cols = []
    for targets in zip(*(t.tolist() for t in tables)):
        col = {}
        met = not exact
        for t, s in zip(targets, units):
            if t >= 0:
                if t in col:
                    col[t] += s
                    met = True
                else:
                    col[t] = s
        cols.append(vector(col) if met else col)
    return Matrix.trusted(f, rows, len(cols), cols)


def build_complex(x, field: FieldTag, flavor: str = "normalized") -> ChainComplex:
    """Chain complex of a cubical or simplicial set over the given field.
    cell_of_pos[n] is the array of basis cells (the nondegenerate ones when
    normalized), ascending; the labels pick theirs from x.labels."""
    if flavor not in ("normalized", "unnormalized"):
        raise ValueError("unknown flavor %r" % (flavor,))
    cubical = isinstance(x, CubSet)
    N = x.max_degree
    rows_of = []  # per degree: cell -> basis position, -1 when degenerate
    cell_of = []
    for n in range(N + 1):
        if flavor == "normalized":
            cells = np.flatnonzero(~x.degenerate_cells(n))
        else:
            cells = np.arange(x.n_cells(n))
        rows = np.full(x.n_cells(n), -1, dtype=np.int64)
        rows[cells] = np.arange(len(cells))
        rows_of.append(rows)
        cell_of.append(cells)
    boundaries = []
    for n in range(1, N + 1):
        keys = _boundary_keys(n, cubical)
        tables = [rows_of[n - 1][x._face[(n, *key)][cell_of[n]]] for key in keys]
        boundaries.append(_signed_matrix(tables, [(-1) ** sum(key) for key in keys],
                                         len(cell_of[n - 1]), field))
    return ChainComplex(field, [Picked(x.labels[n], cell_of[n]) for n in range(N + 1)],
                        boundaries, source=x, cell_rows=rows_of, cell_of_pos=cell_of)


class _PairLabels(Labels):
    """The basis labels of a tensor square at total degree n, components
    (p, n - p) in order: label k is the pair of factor labels it stands
    for."""

    __slots__ = ("_factor", "_n", "_starts")

    def __init__(self, factor_labels, n, starts, length):
        super().__init__(length)
        self._factor = factor_labels
        self._n = n
        self._starts = starts

    def _label(self, k):
        p = bisect_right(self._starts, k) - 1
        right = self._factor[self._n - p]
        i, j = divmod(k - self._starts[p], len(right))
        return (self._factor[p][i], right[j])


class TensorComplex(ChainComplex):
    """Tensor square C (x) C with the Koszul differential; built by
    ChainComplex.tensor_square, and the one owner of its layout.  The basis
    at total degree n is grouped by components (p, q), p = 0 .. n, each a
    run of dim C_p * dim C_q rows with the second index varying fastest
    (the Matrix.kron convention).  pair_rows and index place basis pairs in
    it, basis_pairs reads them off, span gives a component's run, and
    blocks splits a matrix by it."""

    def __init__(self, c: ChainComplex, up_to: int):
        # the factor's dimensions, cell -> row tables and label views, not
        # the factor: the square C caches holds nothing that refers back to C
        self.factor_dims = list(c.dims)
        self._factor_rows = c._rows
        self.up_to = up_to
        f = c.field
        self._spans = []
        labels = []
        for n in range(up_to + 1):
            spans = {}
            end = 0
            for p in range(n + 1):
                spans[(p, n - p)] = slice(end, end + c.dim(p) * c.dim(n - p))
                end = spans[(p, n - p)].stop
            self._spans.append(spans)
            labels.append(_PairLabels(c.labels, n, [sp.start for sp in spans.values()], end))
        boundaries = []
        for n in range(1, up_to + 1):
            cols = []
            for (p, q) in self._spans[n]:
                for i in range(c.dim(p)):
                    for j in range(c.dim(q)):
                        col = {self.index(n - 1, (p - 1, q), r, j): v
                               for r, v in c.d(p).cols_data[i].items()} if p else {}
                        if q:
                            f.axpy(col, {self.index(n - 1, (p, q - 1), i, r): v
                                         for r, v in c.d(q).cols_data[j].items()}, (-1) ** p)
                        cols.append(col)
            boundaries.append(Matrix(f, len(labels[n - 1]), len(labels[n]), cols))
        super().__init__(f, labels, boundaries, check=False)

    def components(self, n):
        return list(self._spans[n])

    def span(self, n, comp) -> slice:
        """The run of rows (as a slice) of component comp at total degree n."""
        return self._spans[n][comp]

    def index(self, n, comp, i, j):
        return self._spans[n][comp].start + i * self.factor_dims[comp[1]] + j

    def basis_pairs(self, n, p):
        """The factor positions (i, j) of the basis of component (p, n - p),
        in order, as two arrays."""
        return np.divmod(np.arange(self.factor_dims[p] * self.factor_dims[n - p]),
                         self.factor_dims[n - p])

    def pair_rows(self, n, p, left, right):
        """Rows of the basis pairs (left[k], right[k]) of component
        (p, n - p), given as cell arrays of the two factors; -1 where either
        cell is degenerate."""
        q = n - p
        lp, rq = _table_rows(self._factor_rows, p, left), _table_rows(self._factor_rows, q, right)
        return np.where((lp >= 0) & (rq >= 0), self.index(n, (p, q), lp, rq), -1)

    def blocks(self, m: Matrix, n: int) -> dict:
        """The rows of a matrix into total degree n split by component:
        {(p, q): the rows of span(n, (p, q)), renumbered from 0}."""
        comps = self.components(n)
        starts = [self._spans[n][comp].start for comp in comps]
        cols = [[{} for _ in range(m.cols)] for _ in comps]
        for j, col in enumerate(m.cols_data):
            for r, v in col.items():
                k = bisect_right(starts, r) - 1
                cols[k][j][r - starts[k]] = v
        return {comp: Matrix.trusted(m.field, self._spans[n][comp].stop - starts[k], m.cols,
                                     cols[k])
                for k, comp in enumerate(comps)}


class GradedMap:
    """Degree-homogeneous linear map, stored as per-degree matrices.

    mats[n]: source degree n -> target degree n + shift.
    """

    def __init__(self, source, target, mats, shift=0, desc=""):
        self.source = source
        self.target = target
        self.shift = shift
        self.mats = dict(mats)
        self.desc = desc
        for n, m in self.mats.items():
            if m.cols != source.dim(n) or m.rows != target.dim(n + shift):
                raise ConstructionBug(
                    "%s: degree-%d block is %dx%d, expected %dx%d"
                    % (desc or "graded map", n, m.rows, m.cols,
                       target.dim(n + shift), source.dim(n)))

    def mat(self, n: int) -> Matrix:
        if n in self.mats:
            return self.mats[n]
        return Matrix.zeros(self.source.field, self.target.dim(n + self.shift),
                            self.source.dim(n))

    def degrees(self):
        return sorted(self.mats)


def verify_chain_map(fmap: GradedMap):
    """Failures of (target d) o f = f o (source d), listed with witness basis
    labels.  Empty list == certified chain map on the stored degrees."""
    assert fmap.shift == 0, "chain-map check is for degree-0 maps"
    bad = []
    for n in fmap.degrees():
        if n == 0 or n - 1 not in fmap.mats:
            continue
        lhs = fmap.target.d(n) @ fmap.mat(n)
        rhs = fmap.mat(n - 1) @ fmap.source.d(n)
        bad += [(n, fmap.source.label(n, j)) for j in _differing_columns(lhs, rhs)]
    return bad


def verify_homotopy(f: GradedMap, g: GradedMap, h: GradedMap):
    """Failures of  d h + h d = g - f  (h of degree +1), per degree."""
    assert h.shift == 1
    bad = []
    for n in h.degrees():
        lhs = h.target.d(n + 1) @ h.mat(n)
        if n >= 1:
            lhs = lhs + h.mat(n - 1) @ h.source.d(n)
        rhs = g.mat(n) - f.mat(n)
        bad += [(n, h.source.label(n, j)) for j in _differing_columns(lhs, rhs)]
    return bad


def _differing_columns(lhs: Matrix, rhs: Matrix) -> list:
    """The columns where two matrices of one shape differ.  Columns are
    canonical, so these are the nonzero columns of lhs - rhs."""
    return [j for j, (a, b) in enumerate(zip(lhs.cols_data, rhs.cols_data)) if a != b]


# -- homology -----------------------------------------------------------------


class HomologySummary:
    """Per-degree dimensions, representative cycles and exact projections.

    At a degree read off the image (see homology), echelons[n] is the
    echelon of the degree-n boundaries that homology read, untouched, and
    the representatives are the kernel columns K_j whose unit row j is no
    pivot row of it.  project_vec reads a chain's remainder against that
    echelon at the representatives' unit rows.  The matrix kills the
    boundaries (remainder 0) and the pivot units e_p of d_n (p is no
    kernel unit row, and so no pivot row of the image either), and fixes
    each representative, which has no entry at a pivot row; these span the
    chains, so projection o inclusion = id.

    At a degree in words (a rack top read off its orbit cocycles, see
    homology), echelons[n] is None, and a chain v is read out as Phi of its
    kernel part, the sum of v_i K_i over the non-pivot columns i of d_n,
    then by (Phi R)^-1, R the representatives: the same matrix, since that
    part kills the pivot units of d_n too.
    """

    def __init__(self, cx: ChainComplex, up_to: int, dims, reps, echelons, words=None):
        self.complex = cx
        self.up_to = up_to
        self.dims = dims
        self.reps = reps
        self.echelons = echelons
        self.words = words or {}
        # each representative is a kernel column K_j, whose max key is its unit row j
        self._rep_at = [{max(r): k for k, r in enumerate(rs)} for rs in reps]
        self._readouts = {}
        self._projections = {}

    def rep_matrix(self, n: int) -> Matrix:
        return Matrix(self.complex.field, self.complex.dim(n), self.dims[n], self.reps[n])

    def _readout(self, n: int):
        """The matrix of v -> Phi(kernel part of v) at a degree in words, and (Phi R)^-1,
        read off the kernel columns e_{b+k} - (Phi R)^-1 e_k of [Phi R | I], b = dims[n]."""
        if n not in self._readouts:
            f, words, b = self.complex.field, self.words[n], self.dims[n]
            cols = [{}] * self.complex.dim(n)
            for col in self.complex.analysis(n).kernel_basis.cols_data:
                cols[max(col)] = phi(words, f, col)
            aug = [phi(words, f, col) for col in self.reps[n]] + [{k: f.one()} for k in range(b)]
            kernel = column_space_analysis(Matrix.trusted(f, b, 2 * b, aug)).kernel_basis
            inverse = [{i: f.neg(v) for i, v in col.items() if i < b} for col in kernel.cols_data]
            self._readouts[n] = (Matrix.trusted(f, b, len(cols), cols),
                                 Matrix.trusted(f, b, b, inverse))
        return self._readouts[n]

    def project_vec(self, n: int, vec: dict) -> dict:
        """Homology coordinates of a chain (sparse dict in, sparse dict out)."""
        if self.dims[n] == 0:
            return {}
        if n in self.words:
            readout, inverse = self._readout(n)
            return inverse.apply(readout.apply(vec))
        at = self._rep_at[n]
        return {at[r]: v for r, v in self.echelons[n].remainder(vec).items() if r in at}

    def projection(self, n: int) -> Matrix:
        """The matrix of project_vec at degree n, built once."""
        if n not in self._projections:
            f = self.complex.field
            cols = [self.project_vec(n, {i: f.one()}) for i in range(self.complex.dim(n))]
            self._projections[n] = Matrix(f, self.dims[n], self.complex.dim(n), cols)
        return self._projections[n]


def homology(cx: ChainComplex, up_to=None, top_image: Echelon = None) -> HomologySummary:
    """Homology through degree up_to; boundaries must exist through
    up_to + 1, or an echelon of the image of the top boundary is supplied.
    Kernels and images come from the cached analyses of d_1 .. d_up_to;
    the image of d_{up_to+1} is cx.image, with no kernel, since only its
    span is needed.

    The representatives are read off the image, with no elimination.  The
    kernel column K_j of a non-pivot column j of d_n has its unit at j and
    its other entries at pivot columns before j, so its unit row j is its
    max key.  A cycle is the sum of its entry at each unit row j times K_j,
    so a nonzero one has its max key at a unit row, and the pivot rows of
    an echelon of im d_{n+1}, inside ker d_n, are unit rows (an Echelon
    stores each column with its pivot at its max key).  A search feeding
    the K_j in order to that echelon keeps K_j exactly when j is no pivot
    row (a cycle with max key j is a multiple of K_j plus earlier K_i).
    So the representatives are the K_j, in order, whose unit row is no
    pivot row, dim ker d_n - rank(image) of them, and the echelon is
    neither copied nor written.  An image pivot row that is no unit row
    raises ConstructionBug, and an image of rank above dim ker d_n has one.

    The image lies in the kernel for every echelon homology receives.  An
    analysis of d_{n+1}, or cx.image of the top boundary, spans
    im d_{n+1}, and d_n d_{n+1} = 0 is checked when a ChainComplex is
    built (a tensor square's holds by the Koszul sign, and a homology
    complex has zero differentials).  A supplied top image must lie in
    ker d_n as well; its one supplier is _les_assemble.  The total
    complex's is stream_group_top_image's: ker d_n itself when the stream
    saturates (its kernel columns inserted unreduced, each with its pivot
    at its unit row), and otherwise the span of streamed columns each
    checked to be killed by d_n.  The quotient's is its projection, and
    proj is a chain map (d_Q proj = proj d_T, as the subcomplex's inclusion
    is a certified chain map), so it lands in ker d_n of the quotient.

    The top degree n of a rack complex is read off the orbit cocycles, and
    d_{n+1} is never reduced, when orbitcap.orbit_words returns the orbit
    word of each basis cell: cx is the complex of a rack nerve, Inn X is
    not trivial, the characteristic of the field does not divide |Inn X|,
    and b_n of the Inn(X)-orbit complex equals the number of orbit words
    (the orbitcap docstring gives the argument, and checks the cocycles and
    cycles).
    Then Phi = (phi_w)_w is an isomorphism H_n -> k^#words that kills the
    boundaries, so a kernel column is independent of im d_{n+1} and of the
    earlier representatives exactly when its Phi-vector is independent of
    theirs: a search in a #words-dimensional echelon, stopped once b_n
    representatives are found, picks the representatives above.
    b_n <= dim ker d_n (rank d_{n+1} = dim ker d_n - b_n) and b_n
    representatives found are checked (ConstructionBug).  project_vec gives
    the same matrix as on the image: both kill the pivot units of d_n, and
    at any other column i, e_i is K_i minus pivot units, sent to
    (Phi R)^-1 Phi(K_i), R the representatives.  When a guard fails every
    column of d_{n+1} is reduced, as for every other complex."""
    if up_to is None:
        up_to = cx.max_degree - 1
    if up_to < 0:
        raise TruncationTooLow("nothing to report")
    if up_to > cx.max_degree or (up_to == cx.max_degree and top_image is None):
        raise TruncationTooLow(
            "homology through %d needs boundaries through %d" % (up_to, up_to + 1))
    f = cx.field
    dims = []
    reps = []
    echs = []
    words = {}
    for n in range(up_to + 1):
        kernel = cx.analysis(n).kernel_basis
        w = orbit_words(cx, n) if n == up_to and top_image is None else None
        if w is None:
            ech = (cx.analysis(n + 1).image if n < up_to else
                   cx.image(n + 1) if top_image is None else top_image)
            pivots = {prow for prow, _ in ech.pivots}
            myreps = [dict(col) for col in kernel.cols_data if max(col) not in pivots]
            # the unit rows are distinct, so a shortfall is a pivot row off them
            if len(myreps) + ech.rank != kernel.cols:
                raise ConstructionBug("an image pivot row is no unit row of ker d_%d" % n)
        else:
            words[n] = w
            missing = max(w, default=-1) + 1
            if missing > kernel.cols:
                raise ConstructionBug("orbit Betti number above dim ker d_%d" % n)
            ech = Echelon(f, missing)
            myreps = []
            for col in kernel.cols_data:
                if len(myreps) == missing:
                    break
                if ech.add(phi(w, f, col)):
                    myreps.append(dict(col))
            if len(myreps) < missing:
                raise ConstructionBug("%d of %d representatives found at degree %d"
                                      % (len(myreps), missing, n))
        dims.append(len(myreps))
        reps.append(myreps)
        echs.append(ech if w is None else None)
    return HomologySummary(cx, up_to, dims, reps, echs, words)


def homology_complex(hs: HomologySummary) -> ChainComplex:
    """Homology as a chain complex with zero differentials, so graded-map
    and tensor machinery applies to homology coordinates verbatim."""
    f = hs.complex.field
    labels = [Labels(hs.dims[n], partial("{}{}".format, "h%d_" % n))
              for n in range(hs.up_to + 1)]
    bounds = [Matrix.zeros(f, hs.dims[n - 1], hs.dims[n]) for n in range(1, hs.up_to + 1)]
    return ChainComplex(f, labels, bounds, check=False)


# -- the comparison map S -----------------------------------------------------


def _s_map(source, bar, order, width, term, desc):
    """S_n = sum over the permutations sigma of sign(sigma) * term(rows,
    sigma), where rows are the digit rows (width(n) digits) of the source
    basis cells and term returns the digit rows of the bar cells, n digits
    each.  Bar cells are numbered in itertools.product order as well."""
    mats = {}
    for n in range(source.max_degree + 1):
        rows = cell_digits(source.cell_of_pos[n], order, width(n))
        perms = list(permutations(range(n)))
        signs = [Permutation(tuple(a + 1 for a in sigma)).sign for sigma in perms]
        tables = [bar.basis_rows(n, cell_numbers(term(rows, sigma), order)) for sigma in perms]
        mats[n] = _signed_matrix(tables, signs, bar.dim(n), source.field)
    return GradedMap(source, bar, mats, desc=desc)


def s_map_rack_formula(g: FiniteGroup, field: FieldTag, up_to: int, bar=None,
                       budget: int = DEFAULT_BUDGET) -> GradedMap:
    """S: normalized rack chains of Conj(G) -> normalized bar chains.  The
    term of sigma carries x_{sigma(i)} at position i, acted on by the
    earlier-placed larger values, in increasing order.  Each nerve built
    here raises BudgetExceeded past budget cells."""
    rack = conj_rack(g)
    if bar is None:
        bar = build_complex(bar_nerve(g, up_to, budget), field, "normalized")
    op = np.array(rack.op)

    def term(rows, sigma):
        out = rows[:, list(sigma)]
        for i, b in enumerate(sigma):
            for a in sorted(a for a in sigma[:i] if a > b):
                out[:, i] = op[out[:, i], rows[:, a]]
        return out

    return _s_map(build_complex(rack_nerve(rack, up_to, budget), field, "normalized"), bar,
                  g.order, lambda n: n, term, "S (rack formula)")


def s_map_cubical(g: FiniteGroup, field: FieldTag, up_to: int, bar=None,
                  budget: int = DEFAULT_BUDGET) -> GradedMap:
    """S: normalized cubical-nerve chains -> normalized bar chains; the term
    of sigma pulls back along the chain of subsets {sigma(1)},
    {sigma(1),sigma(2)}, ...: entry i is v(A_{i-1})^-1 v(A_i).  Each nerve
    built here raises BudgetExceeded past budget cells."""
    if bar is None:
        bar = build_complex(bar_nerve(g, up_to, budget), field, "normalized")
    arith = GroupArith(g)

    def term(rows, sigma):
        v = np.insert(rows, 0, g.unit, axis=1)  # column m holds v(m)
        masks = np.cumsum([0] + [1 << a for a in sigma])
        return arith.mul[arith.inv[v[:, masks[:-1]]], v[:, masks[1:]]]

    return _s_map(build_complex(group_cubical_nerve(g, up_to, budget), field, "normalized"), bar,
                  g.order, lambda n: 2 ** n - 1, term, "S (cubical)")


# -- long exact sequences ------------------------------------------------------


@dataclass
class LESNode:
    at: str
    degree: int
    dim: int
    rank_in: int
    rank_out: int
    exact: bool


@dataclass
class LESResult:
    kind: str
    max_n: int
    field: FieldTag
    dims: dict
    nodes: list
    notes: list = dfield(default_factory=list)

    @property
    def all_exact(self) -> bool:
        return all(node.exact for node in self.nodes)

    def to_jsonable(self):
        return {
            "kind": self.kind,
            "max_n": self.max_n,
            "field": str(self.field),
            "dims": self.dims,
            "nodes": [{"at": n.at, "degree": n.degree, "dim": n.dim,
                       "rank_in": n.rank_in, "rank_out": n.rank_out,
                       "exact": n.exact} for n in self.nodes],
            "all_exact": self.all_exact,
            "notes": list(self.notes),
        }


def _induced(hs_src, hs_tgt, chain_mat, n):
    """Homology-coordinate matrix of a chain map (given at degree n)."""
    cols = [hs_tgt.project_vec(n, chain_mat.apply(col)) for col in hs_src.reps[n]]
    return Matrix(hs_src.complex.field, hs_tgt.dims[n], hs_src.dims[n], cols)


def _les_assemble(kind, field, max_n, S, T, Q, incl, proj, section, retract,
                  top_image=None, notes=()):
    """Homology of the three complexes, the induced maps, the snake
    connecting map, and the exactness report (im = ker by rank at each
    node).  incl/proj/section/retract are per-degree chain matrices that
    split the sequence: proj @ section = id and retract @ incl = id, both
    checked, so the snake lift of a boundary in im incl is its retraction.
    top_image, when given, is an echelon of the image of T's top boundary
    (T and Q then stop at degree max_n); the quotient's is its projection.

    A top image of rank dim ker d_T(max_n) is that kernel, handed on by a
    saturated stream as the kernel basis of T.analysis(max_n): column K_j
    has its unit at its own non-pivot row j of d_T(max_n), its max key,
    and its other entries on pivot columns of d_T(max_n), which no K_j has
    as its unit.  proj keeps the quotient rows in order and drops the
    others, so the projections of the K_j with j in the quotient are
    already reduced against each other, and enter top_Q by the checked
    Echelon.insert, with no sweep.  The other projections lie on the at
    most rank d_T(max_n) pivot rows in the quotient, which no inserted
    column has as its pivot row, and go through add.  Only the span of
    top_Q is read (homology), and it is the span of all the projections.
    Any other top image (an exhausted stream) has each projection added in
    order.

    proj[max_n] is the selection _quotient builds (column r the unit at
    the quotient row of r, or zero for a subcomplex row), so a top-image
    column is projected by renumbering its rows through that row map and
    dropping the subcomplex rows: the entries, values and key order of
    proj[max_n].apply, with no axpy per entry."""
    notes = list(notes)
    # projected first: built after the checks below, this echelon and its
    # neighbours left up to 1 MiB more resident for the next query
    top_Q = None
    if top_image is not None:
        top_Q = Echelon(field, Q.dim(max_n))
        handed = top_image.rank == T.dim(max_n) - T.analysis(max_n).rank
        below = _row_map(proj[max_n])
        rest = []
        for prow, col in top_image.pivots:
            col = _renumbered(col, below)
            if handed and below[prow] >= 0:
                top_Q.insert(col)
            else:
                rest.append(col)
        for col in rest:
            top_Q.add(col)
    # chain-level short exactness on the stored degrees
    avail = min(T.max_degree, max_n + 1 if top_image is None else max_n)
    for n in range(avail + 1):
        if not (proj[n] @ incl[n]).is_zero():
            raise ConstructionBug("proj o incl != 0 at degree %d" % n)
        if S.dim(n) + Q.dim(n) != T.dim(n):
            raise ConstructionBug("dim S + dim Q != dim T at degree %d" % n)
        # retract o incl = id makes incl injective; with proj o incl = 0, the
        # dimension count and proj surjective (below), im incl = ker proj
        if not _is_identity(retract[n] @ incl[n]):
            raise ConstructionBug("inclusion not injective at degree %d" % n)
        # proj o section = id also certifies that proj is surjective
        if not _is_identity(proj[n] @ section[n]):
            raise ConstructionBug("section does not split proj at degree %d" % n)
    hs_S = homology(S, max_n)
    hs_T = homology(T, max_n, top_image=top_image)
    hs_Q = homology(Q, max_n, top_image=top_Q)
    maps = {}
    for n in range(max_n + 1):
        maps[("incl", n)] = _induced(hs_S, hs_T, incl[n], n)
        maps[("proj", n)] = _induced(hs_T, hs_Q, proj[n], n)
    for n in range(1, max_n + 1):
        cols = []
        for col in hs_Q.reps[n]:
            y = section[n].apply(col)
            dy = T.d(n).apply(y)
            w = retract[n - 1].apply(dy)
            if incl[n - 1].apply(w) != dy:
                raise ConstructionBug("snake lift failed at degree %d" % n)
            # the lifted boundary is a cycle in the subcomplex
            if S.d(n - 1).apply(w):
                raise ConstructionBug("snake image not a cycle at degree %d" % n)
            cols.append(hs_S.project_vec(n - 1, w))
        maps[("conn", n)] = Matrix(field, hs_S.dims[n - 1], hs_Q.dims[n], cols)

    nodes = []
    ranks = {key: column_space_analysis(m).rank for key, m in maps.items()}

    def node(at, degree, dim, kin, kout):
        # kout ("conn", 0) is absent: H_0(quotient) maps to zero
        comp_zero = kout not in maps or (maps[kout] @ maps[kin]).is_zero()
        rin, rout = ranks[kin], ranks.get(kout, 0)
        nodes.append(LESNode(at, degree, dim, rin, rout, comp_zero and rin + rout == dim))

    for n in range(max_n, -1, -1):
        # H_n(S): incoming conn_{n+1} (unavailable at n = max_n), outgoing incl_n
        if n < max_n:
            node("H_%d(sub)" % n, n, hs_S.dims[n], ("conn", n + 1), ("incl", n))
        else:
            notes.append("node H_%d(sub) skipped: needs degree-%d quotient homology"
                         % (n, n + 1))
        node("H_%d(total)" % n, n, hs_T.dims[n], ("incl", n), ("proj", n))
        node("H_%d(quotient)" % n, n, hs_Q.dims[n], ("proj", n), ("conn", n))
    dims = {"sub": hs_S.dims, "total": hs_T.dims, "quotient": hs_Q.dims}
    return LESResult(kind, max_n, field, dims, nodes, notes)


def _selection(rows, n_rows: int, field: FieldTag) -> Matrix:
    """The 0/1 matrix with n_rows rows whose column j is the unit vector at
    rows[j], or zero where rows[j] is -1.  Its columns are canonical, the
    row range is checked once on the array, and the zero columns share one
    empty dict (a Matrix is never written), so a wide restriction holds
    little more than its nonzero columns."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) and not (rows.min() >= -1 and rows.max() < n_rows):
        raise ShapeError("selection row out of range")
    one, zero = field.one(), {}
    return Matrix.trusted(field, n_rows, len(rows),
                          [{r: one} if r >= 0 else zero for r in rows.tolist()])


def _row_map(sel: Matrix) -> list:
    """The rows of a _selection, column by column: the row of its unit,
    -1 for a zero column."""
    return [next(iter(col), -1) for col in sel.cols_data]


def _renumbered(col: dict, below) -> dict:
    """The column with each row r renumbered below[r], without the rows
    where below[r] is -1: _selection(below, ...).apply(col) for a column
    without zeros, with its entries and key order."""
    return {k: v for r, v in col.items() if (k := below[r]) >= 0}


def _restriction(rows, n_rows: int, field: FieldTag) -> Matrix:
    """The 0/1 matrix that reads the entries rows[0], rows[1], ... off a
    vector of n_rows entries: a left inverse of _selection(rows, n_rows)."""
    at = np.full(n_rows, -1)
    at[rows] = np.arange(len(rows))
    return _selection(at, len(rows), field)


def _others(rows, n_rows: int):
    """The rows below n_rows that are not in rows, ascending."""
    keep = np.ones(n_rows, dtype=bool)
    keep[rows] = False
    return np.flatnonzero(keep)


def _is_identity(m: Matrix) -> bool:
    return m.rows == m.cols and all(col.keys() == {j} and col[j] == 1
                                    for j, col in enumerate(m.cols_data))


def _subcomplex(T: ChainComplex, incl, retract, labels) -> ChainComplex:
    """The subcomplex of T spanned by the columns of the chain matrices
    incl[n], given left inverses retract[n]: d_S(n) = retract[n-1] d_T(n)
    incl[n], checked by incl[n-1] d_S(n) = d_T(n) incl[n].  Where incl[n],
    incl[n-1] and retract[n-1] are identities, d_S(n) is d_T(n) itself,
    the check holds as it stands, and S shares T's eliminations of it."""
    bounds = []
    shares = {}
    for n in range(1, T.max_degree + 1):
        if all(map(_is_identity, (incl[n], incl[n - 1], retract[n - 1]))):
            bounds.append(T.d(n))
            shares[n] = T
            continue
        image = T.d(n) @ incl[n]
        bounds.append(retract[n - 1] @ image)
        if incl[n - 1] @ bounds[-1] != image:
            raise ConstructionBug("not a subcomplex at degree %d" % n)
    return ChainComplex(T.field, labels, bounds, shares=shares)


def _quotient(T: ChainComplex, sub):
    """The quotient of T by the subcomplex spanned by the basis rows sub[n]:
    its basis is the other rows, ascending, and d_Q(n) = proj[n-1] d_T(n)
    section[n]; retract[n] restricts to the rows sub[n].  Returns (Q, proj,
    section, retract).  d_Q(n) is read off d_T(n) with no product: section
    picks the columns of the quotient rows, and proj keeps each quotient
    row once, renumbered, and drops the subcomplex rows, so column j of
    d_Q(n) is column rows[j] of d_T(n) with its rows renumbered or
    dropped.  Q checks d^2 = 0 as every complex does."""
    f = T.field
    labels, proj, section, retract, bounds = [], [], [], [], []
    for n in range(T.max_degree + 1):
        rows = _others(sub[n], T.dim(n))
        at = np.full(T.dim(n), -1)
        at[rows] = np.arange(len(rows))
        labels.append(Picked(T.labels[n], rows))
        proj.append(_selection(at, len(rows), f))
        section.append(_selection(rows, T.dim(n), f))
        retract.append(_restriction(sub[n], T.dim(n), f))
        if n:
            d = T.d(n).cols_data
            bounds.append(Matrix.trusted(f, proj[n - 1].rows, len(rows), [
                _renumbered(d[j], below) for j in rows.tolist()]))
        below = at.tolist()
    Q = ChainComplex(f, labels, bounds)
    return Q, proj, section, retract


# -- streamed top boundary for group cubical nerves ---------------------------


def _coprime_stride(M: int) -> int:
    s = (0x9E3779B97F4A7C15 % M) | 1
    while gcd(s, M) != 1:
        s += 2
    return max(s % M, 1)


# streamed columns reduced together: one product against the stored rows per
# batch; the columns of a batch are then echelonised among themselves in order
TRACKER_BATCH = 32


class _ModRank:
    """Rank of integer columns modulo a prime, reduced a batch at a time
    (blocked elimination in the style of FFLAS-FFPACK: Dumas, Giorgi and
    Pernet, ACM TOMS 35(3), 2008).  A batch arrives as face rows and signs
    (faces[j] the rows of the terms of column j, -1 for a dropped term,
    signs[k] the sign of term k); _boundary_block makes it a block V, one
    column of the stream per row.

    The stored rows span the columns added so far and are fully reduced:
    each starts with a unit at its pivot (its first nonzero entry) and is
    zero at every other pivot, so they are the reduced row echelon form of
    the span, whatever the batching.  Only their entries on the free
    (non-pivot) columns are stored, in `rows`.  `add` reduces a block V
    against them with one product  V[:, free] - V[:, pivots] @ rows,
    echelonises the residuals R among themselves in stream order, and
    clears the new pivot columns from the old rows with one product
    rows - rows[:, new] @ R.

    Exactness.  A column of V sums F signed terms (F = faces.shape[1]),
    so each entry of V is at most F in size; a residue is at most p - 1
    in size.  Each clearing of the Gauss-Jordan step moves an entry of R by
    at most (p-1)^2, once per new pivot, and resets the pivot's own row to
    residues.  A batch of n columns takes one of two routes, chosen by
    narrow(n, F):
    - narrow, while n (p-1)^2 + p < 2^15 and dim F (p-1) < 2^22 (at
      TRACKER_BATCH, p <= 31).  R is int16: it starts from residues and
      takes at most n clearings, so every entry stays below
      n (p-1)^2 + p < 2^15 in size.  V and the stored rows are float32,
      and both products run in float32 (BLAS) and are reduced by
      dense._mod.  The reduce-in subtracts from an entry of V a sum of
      k < dim terms, each at most F (p-1) in size: every partial sum and
      the result are at most dim F (p-1) < 2^22 in size.  The clearing
      subtracts from a residue a sum of at most n terms, each at most
      (p-1)^2: below n (p-1)^2 + p < 2^15.  Every partial sum and every
      value reduced is thus an integer below 2^22 in size, exact in
      float32 and in the range where dense._mod is exact.  The stored
      rows hold residues of least size.
    - wide, otherwise.  V and R are int64 with entries reduced into
      [0, p), and the stored rows int64 residues, so every dot product is
      a sum of at most dim terms at most (p-1)^2 in size.  A product runs
      in float64 (BLAS) when dim (p-1)^2 < 2^53, where every partial sum
      is an integer that float64 represents exactly, and in int64
      otherwise, which dim p^2 < 2^63 (enforced, ValueError) keeps free
      of overflow; R takes at most dim clearings and stays below dim p^2.
      Results are reduced into [0, p) in int64.
    Both routes compute the same residues, so the pivots, `used` and
    reduced_columns() do not depend on the route, and the routes may
    alternate from batch to batch.

    Stopping point: since the batch is echelonised in order, `add` knows
    which column brings the rank to the bound; it stops there and returns
    how many columns it consumed, so a caller counts exactly the columns a
    one-at-a-time tracker would have read.

    For a complex over Q the mod-p rank of integer columns is a lower bound
    on the rational rank; over F_q (q = p) it is the rank."""

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        if max(dim, 1) * p * p >= 2 ** 63:
            raise ValueError("modulus too large for overflow-free int64 dots")
        self.float_products = max(dim, 1) * (p - 1) ** 2 < 2 ** 53
        self.pivots = []
        self.free = np.arange(dim)  # the other columns, ascending
        self.rows = np.zeros((0, dim), dtype=np.int64)  # stored rows on free

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def narrow(self, n: int, terms: int) -> bool:
        """Whether a batch of n columns of `terms` terms each takes the
        int16/float32 route (see the class docstring)."""
        p = self.p
        return (n * (p - 1) ** 2 + p < 2 ** 15
                and max(self.dim, 1) * terms * (p - 1) < 2 ** 22)

    def _subtract_product(self, out, a, b):
        """out -= a @ b in place, reduced mod p, and returned: in float32
        for a float32 out (the narrow route), else as the wide route runs
        it, without an int64 copy of a @ b."""
        if out.dtype == np.float32:
            np.subtract(out, a @ b, out=out)
            return _mod(out, self.p)
        if self.float_products:
            a, b = a.astype(np.float64), b.astype(np.float64)
        np.subtract(out, a @ b, out=out, casting="unsafe")
        out %= self.p
        return out

    def add(self, faces, signs, bound: int) -> int:
        """Add the columns of the batch in order until the rank reaches
        bound; returns how many columns were consumed."""
        p = self.p
        k = len(self.pivots)
        n = len(faces)
        narrow = self.narrow(n, faces.shape[1])
        # the dtype of the block and the stored rows
        store = np.float32 if narrow else np.int64
        block = _boundary_block(faces, signs, self.dim, store)
        if not narrow:
            block %= p  # the wide route multiplies residues
        self.rows = self.rows.astype(store, copy=False)
        # the residuals are zero on the pivots: keep their free columns
        R = self._subtract_product(np.take(block, self.free, axis=1),
                                   np.take(block, self.pivots, axis=1), self.rows)
        R = R.astype(np.int16 if narrow else np.int64, copy=False)
        # Gauss-Jordan on the batch in stream order: row i, reduced mod p,
        # is zero when the rows before it span it; otherwise it is scaled to
        # a unit at its first nonzero entry, its pivot, and cleared from
        # every other row, with entries reduced lazily (class docstring)
        new, at = [], []
        used = n
        for i in range(n):
            v = R[i] % p
            nz = v.nonzero()[0]
            if not len(nz):
                continue
            piv = nz[0]
            if v[piv] != 1:
                v = v * pow(int(v[piv]), p - 2, p) % p
            col = R[:, piv] % p
            col[i] = 0
            R -= np.multiply.outer(col, v)
            R[i] = v
            new.append(piv)
            at.append(i)
            if k + len(new) == bound:
                used = i + 1
                break
        m = len(new)
        if not m:
            return used
        R = R[at] % p  # fully reduced: the identity on new
        # the rows without the new pivot columns, in one new array: the old
        # rows with the new pivots cleared, then R
        keep = np.delete(np.arange(len(self.free)), new)
        rows = np.empty((k + m, len(keep)), dtype=store)
        if k:
            np.take(self.rows, keep, axis=1, out=rows[:k], mode="clip")
            self._subtract_product(rows[:k], self.rows[:, new], R[:, keep].astype(store))
        rows[k:] = R[:, keep]
        self.rows = rows
        self.pivots.extend(self.free[new].tolist())
        self.free = self.free[keep]
        return used

    def reduced_columns(self):
        """The stored rows as sparse columns {row: value in [0, p)}."""
        for piv, rest in zip(self.pivots, self.rows):
            row = np.zeros(self.dim, dtype=np.int64)
            row[self.free] = rest
            row %= self.p
            row[piv] = 1
            nz = np.flatnonzero(row)
            yield dict(zip(nz.tolist(), row[nz].tolist()))


class _F2Rank:
    """Incremental rank over F_2 with columns as Python int bitmasks.  Its
    input is a batch of face rows and signs +-1, as for _ModRank: a
    column's bitmask sums the bits of its face rows mod 2, with no dense
    block.

    The stored columns sit in a table indexed by bit length: entry b holds
    the stored column whose top bit is b - 1, and 0 where there is none
    (entry 0, the bit length of the zero column, stays 0).  A new column is
    reduced top bit by top bit: while it is nonzero, the entry at its bit
    length is XORed into it, or, where that entry is 0, the column is
    stored there and the rank counted.  These are the steps of a dict keyed
    by top bit, against the same stored columns in the same order, so the
    rank after every column, and with it the stream's processed count, are
    those of that dict; a step costs one bit_length, one list index and one
    XOR.  The table costs one reference per row; the dict cost an entry
    and an int key per stored column, several times that, so the table is
    the smaller once the rank passes a small fraction of dim."""

    def __init__(self, dim: int):
        self.dim = dim
        self.table = [0] * (dim + 1)
        self.rank = 0

    def add(self, faces, signs, bound: int) -> int:
        """As _ModRank.add, one column at a time."""
        table = self.table
        for used, rows in enumerate(faces.tolist(), 1):
            v = 0
            for r in rows:
                if r >= 0:
                    v ^= 1 << r
            while v:
                b = v.bit_length()
                piv = table[b]
                if not piv:
                    table[b] = v
                    self.rank += 1
                    break
                v ^= piv
            if self.rank == bound:
                return used
        return len(faces)


def _certificate_tracker(dim: int, field: FieldTag, group_order: int):
    """Rank tracker for the streamed top boundary.  Over Q any prime gives a
    lower bound on the rational rank; a prime not dividing |G| is chosen so
    no rank is lost to torsion and saturation can actually occur."""
    if field.p:
        return _ModRank(dim, p=field.p)
    p = least_prime_not_dividing(group_order)
    if p == 2:
        return _F2Rank(dim)
    return _ModRank(dim, p=p)


def _stream_block(arith, order: int, top_degree: int, ks):
    """Faces and degeneracy flags of the streamed cells ks: one array of
    cell numbers (in the group nerve one degree down) per key of
    _boundary_keys.  Cell k labels vertex m by the (m-1)th base-|G| digit
    of k, least significant first."""
    rows = cell_digits(ks, order, 2 ** top_degree - 1)[:, ::-1]
    keys = _boundary_keys(top_degree, True)
    faces = [arith.face(rows, *key) for key in keys]
    return ([cell_numbers(face, order) for face in faces],
            arith.degenerate(rows, [face for (_, eps), face in zip(keys, faces) if eps == 0]))


def _boundary_block(faces, signs, dim: int, dtype=np.int64):
    """The boundary columns of a batch of cells as the rows of a block of
    the given dtype: faces[j, k] is the basis row of face k of cell j, -1
    where it is degenerate and dropped, and signs[k] its sign.  The block is
    a view that leaves out one last column, where the dropped faces land."""
    block = np.zeros((len(faces), dim + 1), dtype=dtype)
    np.add.at(block, (np.arange(len(faces))[:, None], faces), signs)
    return block[:, :dim]


def _d_squared_vanishes(T: ChainComplex, N: int, faces, signs) -> bool:
    """Whether d_N kills the boundary column of every cell of a batch
    (faces and signs as for _boundary_block, in degree N of T, the
    normalized complex of a cubical set): one exact product of the batch
    with d_N.  The faces of each face, read off the cubical set's face
    tables (d_N's own), with the products of the two signs, make the
    _boundary_block of the batch one degree down.

    Exactness: an entry sums at most len(signs) * 2N signs, so int64 holds
    it exactly; reduced mod p it is the entry of d_N d_{N+1} over F_p, and
    over Q it is the entry itself."""
    cells = T.cell_of_pos[N][faces]
    keys = _boundary_keys(N, True)
    twice = np.concatenate([T.basis_rows(N - 1, T.source._face[(N, *key)][cells])
                            for key in keys], axis=1)
    twice[np.tile(faces < 0, len(keys))] = -1  # the faces of dropped faces
    signs = np.concatenate([signs * (-1) ** sum(key) for key in keys])
    block = _boundary_block(twice, signs, T.dim(N - 1))
    if T.field.p:
        block %= T.field.p
    return not block.any()


def stream_group_top_image(g: FiniteGroup, top_degree: int, T: ChainComplex,
                           field: FieldTag, cell_budget: int):
    """The image of the top boundary of the normalized cubical-nerve complex,
    certified by streaming cells without materialising the top degree.

    Rank is tracked modulo a prime (the field's own prime; for Q a prime
    coprime to |G|, where the mod-p rank of the integer boundary columns is
    a lower bound on the rational rank).  The image lies inside
    ker d_{top-1} (d^2 = 0, asserted on every streamed cell, a batch at a
    time), so the moment the tracked rank reaches dim ker d_{top-1} we have
    im = ker exactly.  The nondegenerate cells go to the tracker in batches
    of TRACKER_BATCH, as face rows read off each decoded block of cells, a
    batch spanning block boundaries; the tracker stops at the column that reaches
    the bound, so `processed` counts the cells up to and including that
    one, as a column-at-a-time stream would.  Once cell_budget cells are
    read without saturating while cells remain, it raises BudgetExceeded.

    Returns (image, processed, note): image is an Echelon of ker d_{top-1}
    when the stream saturates, and of the exhausted tracker's reduced rows
    when it runs at the field's own prime; an exhausted stream over Q raises
    ConstructionBug, since its mod-p rank only bounds the image from below.
    note says which of the two happened.  A saturated image is the kernel
    basis T.analysis(top-1) already holds, handed on: each kernel column
    has its unit at its own non-pivot row, its max key, and its other
    entries on pivot columns only, so the columns are reduced against each
    other and enter by the checked Echelon.insert, shared and unreduced."""
    n1 = top_degree
    N = n1 - 1
    f = field
    nverts = 2 ** n1 - 1
    M = g.order ** nverts
    dim = T.dim(N)
    bound = dim - T.analysis(N).rank
    arith = GroupArith(g)
    signs = np.array([(-1) ** sum(key) for key in _boundary_keys(n1, True)])
    tracker = _certificate_tracker(dim, field, g.order)
    stride = _coprime_stride(M)

    def batches():
        """(cells read through each cell, face rows) per batch of
        TRACKER_BATCH nondegenerate cells; the last batch may be short.
        Cells are decoded in blocks of TRACKER_BATCH cells, doubling up to
        BLOCK, so a stream that saturates early decodes at most about twice
        the cells it reads."""
        read = np.zeros(0, dtype=np.int64)
        rows = np.zeros((0, len(signs)), dtype=np.int64)
        start, size = 0, TRACKER_BATCH
        while start < M:
            ks = [j * stride % M for j in range(start, min(start + size, M))]
            faces, degenerate = _stream_block(arith, g.order, n1, ks)
            live = np.flatnonzero(~degenerate)
            read = np.concatenate((read, start + live + 1))
            rows = np.concatenate((rows, np.stack([T.basis_rows(N, nums)[live]
                                                   for nums in faces], axis=1)))
            full = len(read) - len(read) % TRACKER_BATCH
            for lo in range(0, full, TRACKER_BATCH):
                yield read[lo:lo + TRACKER_BATCH], rows[lo:lo + TRACKER_BATCH]
            read, rows = read[full:], rows[full:]
            start, size = start + len(ks), min(2 * size, BLOCK)
        if len(read):
            yield read, rows

    stream = batches()
    processed = 0
    saturated = tracker.rank == bound  # bound 0: nothing to do
    while not saturated and processed < M:
        if processed >= cell_budget:
            raise BudgetExceeded(
                "top boundary stream read %d of %d degree-%d cells without"
                " saturating (cell budget %d)" % (processed, M, n1, cell_budget), n1)
        read, faces = next(stream, (None, None))
        if read is None:
            processed = M  # the rest of the stream is degenerate
            break
        if N >= 1 and not _d_squared_vanishes(T, N, faces, signs):
            raise ConstructionBug("d^2 != 0 on a streamed degree-%d cell" % n1)
        used = tracker.add(faces, signs, bound)
        processed = int(read[used - 1])
        saturated = tracker.rank == bound
    image = Echelon(f, T.dim(N))
    if saturated:
        del tracker, stream  # the kernel echelon below reuses their memory
        note = ("top boundary streamed: %d of %d degree-%d cells processed,"
                " rank saturated at dim ker d (im = ker certified)" % (processed, M, n1))
        for col in T.analysis(N).kernel_basis.cols_data:
            image.insert(col)
    elif field.p:
        # over the field's own prime the exhausted tracker is the exact image
        note = ("top boundary streamed to exhaustion (%d cells): the top homology is"
                " nonzero over %s; image taken from the complete mod-%d echelon"
                % (M, field, field.p))
        for col in tracker.reduced_columns():
            image.add({r: f.of_int(v) for r, v in col.items()})
    else:
        raise ConstructionBug(
            "top boundary stream exhausted %d cells without reaching dim"
            " ker d over Q; this size needs the materialised path" % M)
    return image, processed, note


# the lrel LES streams its top boundary when the top degree has more cells
MATERIALIZE_CELLS = 3000


def les_for_group(kind: str, g: FiniteGroup, field: FieldTag, max_n: int,
                  cell_budget: int = DEFAULT_BUDGET) -> LESResult:
    """LES front end for group cubical nerves.  cell_budget is the one size
    limit: every nerve built here raises BudgetExceeded past cell_budget
    cells in a degree, and so does a streamed top boundary that reads
    cell_budget cells without saturating.

    The gamma side is materialised through max_n + 1.  Gamma of a group
    nerve is a point (one class in each degree): given cells a, b of degree
    n, the degree-(n+1) labelling v(A) = a(A) and v({1} u A) = b(A), for A a
    subset of {2..n+1} read as one of {1..n}, has d_{1,0} v = a and
    d_{1,1} v = b (v({1}) = b(empty) = e, so nothing is renormalized).  The
    class in degree n >= 1 is that of the degenerate cell at the unit, so
    the normalized quotient is k in degree 0, and its kernel, the
    subcomplex, is spanned by every cell above degree 0.

    The lrel subcomplex is the rack complex of conj_rack(g) through
    max_n + 1, mapped onto the first-face equalizer by lnerve_inclusion and
    certified a chain map on every degree of the nerve.  The nerve's top
    boundary is materialised while the top degree has at most
    MATERIALIZE_CELLS cells.  Past that the nerve stops at max_n and its top
    image is streamed; the streamed route takes at most 6000 cells in degree
    max_n (TruncationTooLow past that, whatever the budget).  A saturated
    stream certifies its image to be ker d_T(max_n), which holds the rack
    complex's top boundary by the chain-map check through max_n; only an
    exhausted stream is checked to contain that boundary."""
    if kind == "gamma":
        T = build_complex(group_cubical_nerve(g, max_n + 1, budget=cell_budget), field,
                          "normalized")
        # the kernel of T -> k[0]: every cell above degree 0
        sub = [np.arange(0)] + [np.arange(T.dim(n)) for n in range(1, max_n + 2)]
        incl = [_selection(rows, T.dim(n), field) for n, rows in enumerate(sub)]
        Q, proj, section, retract = _quotient(T, sub)
        S = _subcomplex(T, incl, retract, [Picked(T.labels[n], rows)
                                           for n, rows in enumerate(sub)])
        return _les_assemble("gamma", field, max_n, S, T, Q, incl, proj, section, retract)
    if kind != "lrel":
        raise ValueError("unknown LES kind %r" % (kind,))
    materialize = g.order ** (2 ** (max_n + 1) - 1) <= MATERIALIZE_CELLS
    if not materialize and g.order ** (2 ** max_n - 1) > 6000:
        # the streamed route still materialises degree max_n and runs dense
        # rank certificates against it; past a few thousand cells the
        # quotient-side homology is out of reach as well
        raise TruncationTooLow(
            "the streamed route handles at most 6000 cells at degree max_n, and degree"
            " %d of the cubical nerve of %s has %d" % (max_n, g.name or "G",
                                                      g.order ** (2 ** max_n - 1)))
    x = group_cubical_nerve(g, max_n + 1 if materialize else max_n, budget=cell_budget)
    T = build_complex(x, field, "normalized")
    S = build_complex(rack_nerve(conj_rack(g), max_n + 1, cell_budget), field, "normalized")
    sub = [T.basis_rows(n, cells[S.cell_of_pos[n]])
           for n, cells in enumerate(lnerve_inclusion(g, x))]
    if any((rows < 0).any() for rows in sub):
        raise ConstructionBug("rack cell mapped to a degenerate nerve cell")
    incl = [_selection(rows, T.dim(n), field) for n, rows in enumerate(sub)]
    # the inclusion is a chain map (certifies the explicit equalizer bijection)
    bad = verify_chain_map(GradedMap(S, T, dict(enumerate(incl)), desc="CL inclusion"))
    if bad:
        raise ConstructionBug("rack-chain inclusion is not a chain map: %s" % (bad[:3],))
    # the quotient before the stream, so that the top image is built in the
    # memory the tracker frees: a lower resident peak than the other order
    Q, proj, section, retract = _quotient(T, sub)
    if materialize:
        return _les_assemble("lrel", field, max_n, S, T, Q, incl, proj, section, retract)
    image, _, note = stream_group_top_image(g, max_n + 1, T, field, cell_budget)
    # the chain-map check at the top degree, needed only when the stream is
    # exhausted: a saturated image is ker d_T(max_n), which holds the rack
    # boundaries already (incl is a chain map through max_n, d_S^2 = 0)
    if image.rank < T.dim(max_n) - T.analysis(max_n).rank:
        for j, col in enumerate(S.d(max_n + 1).cols_data):
            if not image.contains(incl[max_n].apply(col)):
                raise ConstructionBug(
                    "rack-chain inclusion is not a chain map: the boundary of rack cell %r"
                    " is outside the streamed top image" % (S.label(max_n + 1, j),))
    return _les_assemble("lrel", field, max_n, S, T, Q, incl, proj, section, retract,
                         top_image=image, notes=[note])


def rack_conjugation_data(C: ChainComplex, rack: PointedRack, a: int):
    """The chain map induced by  - <| a  on normalized rack chains, and the
    chain homotopy witnessing conjugation invariance:

        h_a(x_1,...,x_n) = (-1)^n (x_1,...,x_n,a),   d h + h d = c_a - id.

    (The degree sign and appending at the tail are forced by the boundary
    convention; verified degree by degree in the tests.)  Both are one cell
    map on the digit rows of the basis cells."""
    f = C.field
    op = np.array(rack.op)
    ca_mats = {}
    h_mats = {}
    for n in range(C.max_degree + 1):
        rows = cell_digits(C.cell_of_pos[n], rack.order, n)
        ca_mats[n] = _signed_matrix([C.basis_rows(n, cell_numbers(op[rows, a], rack.order))],
                                    [1], C.dim(n), f)
        if n < C.max_degree:
            tail = cell_numbers(np.insert(rows, n, a, axis=1), rack.order)
            h_mats[n] = _signed_matrix([C.basis_rows(n + 1, tail)], [(-1) ** n], C.dim(n + 1), f)
    c_a = GradedMap(C, C, ca_mats, desc="conjugation by %r" % (rack.elements[a],))
    h_a = GradedMap(C, C, h_mats, shift=1, desc="conjugation homotopy")
    return c_a, h_a


def identity_map(C: ChainComplex, up_to=None) -> GradedMap:
    if up_to is None:
        up_to = C.max_degree
    return GradedMap(C, C, {n: Matrix.identity(C.field, C.dim(n))
                            for n in range(up_to + 1)}, desc="id")

