"""Exact scalars (rationals and prime fields) and sparse linear algebra.

Every homology computation in this package reduces to column-space analysis
of boundary matrices over Q or F_p.  Matrices are stored column-sparse
(dict row -> scalar per column).  All values are canonical on entry, so
equality is structural.  Canonical means: a rational is a Python `int` when
it is integral and a `fractions.Fraction` with denominator > 1 otherwise; a
prime field element is an int in [0, p).  Almost every boundary entry and
pivot is +-1, so Q arithmetic stays in machine-speed ints and builds a
`Fraction` only for a value that is not integral.

The scalar operations are bound once per `FieldTag`, so none of them tests
which field it is in.  One sparse-accumulate kernel: every  acc += a * vec
on sparse vectors is `FieldTag.axpy`, which reduces mod p (over Q, turns an
integral Fraction into an int) and drops the entries that cancel, and every
chain sum with integer coefficients is accumulated in plain ints and
converted once by `FieldTag.vector`.  No other code adds sparse vectors.

One elimination per matrix: `column_space_analysis` eliminates a matrix
once, and its rank, kernel and image echelon are read from it; the
kernel rides on keys below 0 inside that elimination, and an `Echelon`
holds a span and nothing else.  A boundary of a chain complex gets the
same analysis from dense.boundary_analysis (dense_analysis gives its
argument).  A column already reduced against an echelon enters it by
`Echelon.insert`, checked, with no sweep.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

# heapq's C core: the pure-Python layer of the heapq module, unused here,
# adds 128 KiB to the peak RSS of a process that imports it.
from _heapq import heapify, heappop, heappush


class FieldMismatch(Exception):
    pass


class ShapeError(Exception):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def least_prime_not_dividing(m: int) -> int:
    """The least prime that does not divide m."""
    p = 2
    while m % p == 0 or not _is_prime(p):
        p += 1
    return p


# -- the operations of Q on canonical values (int, or Fraction off Z) ---------


def _q_canon(v):
    return v if type(v) is int or v.denominator != 1 else v.numerator


def _q_mul(a, b):
    return _q_canon(a * b)


def _q_div(a, b):
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _q_canon(a / b)


def _q_inv(a):
    return _q_div(1, a)


def _q_axpy(acc: dict, vec: dict, a=None) -> dict:
    for k, v in vec.items():
        if a is not None:
            v = a * v
        w = acc[k] + v if k in acc else v
        if type(w) is not int and w.denominator == 1:
            w = w.numerator
        if w:
            acc[k] = w
        elif k in acc:
            del acc[k]
    return acc


def _q_vector(vals: dict) -> dict:
    return {k: v if type(v) is int else _q_canon(v) for k, v in vals.items() if v}


def _q_ops() -> dict:
    return dict(zero=lambda: 0, one=lambda: 1, of_int=operator.index,
                mul=_q_mul, neg=operator.neg, inv=_q_inv, div=_q_div,
                axpy=_q_axpy, vector=_q_vector)


def _fp_ops(p: int) -> dict:
    """The operations of F_p, closed over p."""

    def inv(a):
        if a % p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % p)
        return pow(a, p - 2, p)

    def axpy(acc: dict, vec: dict, a=None) -> dict:
        for k, v in vec.items():
            if a is not None:
                v = a * v
            w = (acc[k] + v) % p if k in acc else v % p
            if w:
                acc[k] = w
            elif k in acc:
                del acc[k]
        return acc

    return dict(zero=lambda: 0, one=lambda: 1, of_int=lambda n: n % p,
                mul=lambda a, b: a * b % p, neg=lambda a: -a % p, inv=inv,
                div=lambda a, b: a * inv(b) % p, axpy=axpy,
                vector=lambda vals: {k: w for k, v in vals.items() if (w := v % p)})


@dataclass(frozen=True)
class FieldTag:
    """Coefficient field: p == 0 means Q, otherwise the prime field F_p.

    The scalar operations are attributes bound in __post_init__ to the
    field's own functions, all returning canonical values:
      zero(), one(), of_int(n)   the constants and the integer n
      mul(a, b), neg(a)          product and negative
      inv(a), div(a, b)          inverse and quotient; ZeroDivisionError at 0
      axpy(acc, vec, a=None)     acc += a * vec in place (a = 1 when None),
                                 without the entries that cancel; returns
                                 acc.  The entries of vec are field elements;
                                 a may be any integer or field element
      vector(vals)               the sparse vector of integers or field
                                 elements vals, canonical and without zeros
    """

    p: int = 0

    def __post_init__(self):
        if self.p:
            if not (self.p < 2**31 and _is_prime(self.p)):
                raise ValueError("modulus must be a prime below 2^31: %r" % (self.p,))
        for name, fn in (_fp_ops(self.p) if self.p else _q_ops()).items():
            object.__setattr__(self, name, fn)

    def __reduce__(self):  # the bound operations are closures, which do not pickle
        return (FieldTag, (self.p,))

    def to_str(self, a) -> str:
        return str(a)

    def __str__(self):
        return "Q" if self.p == 0 else "F%d" % self.p


QQ = FieldTag(0)


class Matrix:
    """Immutable matrix over a single FieldTag, stored as sparse columns.

    `cols_data[j]` maps row index -> nonzero scalar, made canonical on entry
    (a Fraction(2, 1) is stored as 2).  The results of matrix operations
    are canonical and in range by construction and skip those checks
    (`trusted`).  Boundary operators of nerves have at most 2n nonzeros per
    column, so the sparse form is also the dense-safe default at the scales
    this package handles.
    """

    __slots__ = ("field", "rows", "cols", "cols_data")

    def __init__(self, field: FieldTag, rows: int, cols: int, cols_data=None):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        self.field = field
        self.rows = rows
        self.cols = cols
        if cols_data is None:
            cols_data = [dict() for _ in range(cols)]
        if len(cols_data) != cols:
            raise ShapeError("column count mismatch")
        for col in cols_data:
            for r in col:
                if not (0 <= r < rows):
                    raise ShapeError("row index out of range")
        self.cols_data = tuple(map(field.vector, cols_data))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldTag, rows: Iterable[Iterable]) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
        cols = [dict() for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                cols[j][i] = v
        return cls(field, nrows, ncols, cols)

    @classmethod
    def trusted(cls, field: FieldTag, rows: int, cols: int, cols_data) -> "Matrix":
        """A matrix on cols_data stored as given, without the range check
        and canonicalisation of the constructor: for columns that are
        canonical and in range by construction, as the results of matrix
        operations are."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.cols_data = tuple(cols_data)
        return m

    @classmethod
    def zeros(cls, field: FieldTag, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field: FieldTag, n: int) -> "Matrix":
        one = field.one()
        return cls.trusted(field, n, n, [{i: one} for i in range(n)])

    # -- basic queries -----------------------------------------------------

    def column(self, j: int) -> dict:
        return dict(self.cols_data[j])

    def entry(self, i: int, j: int):
        return self.cols_data[j].get(i, self.field.zero())

    def is_zero(self) -> bool:
        return all(not c for c in self.cols_data)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.cols_data == other.cols_data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols,
                     tuple(tuple(sorted(c.items())) for c in self.cols_data)))

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.field, self.rows, self.cols)

    # -- arithmetic ---------------------------------------------------------

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("%s vs %s" % (self.field, other.field))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, None)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def _combine(self, other: "Matrix", a) -> "Matrix":
        """self + a * other (a = 1 when None)."""
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add shape mismatch")
        f = self.field
        return Matrix.trusted(f, self.rows, self.cols,
                              [f.axpy(dict(c), oc, a)
                               for c, oc in zip(self.cols_data, other.cols_data)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeError("matmul %dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        out = []
        for bc in other.cols_data:
            acc: dict = {}
            for k, bv in bc.items():
                f.axpy(acc, self.cols_data[k], bv)
            out.append(acc)
        return Matrix.trusted(f, self.rows, other.cols, out)

    def apply(self, vec: dict) -> dict:
        """Matrix times sparse column vector."""
        f = self.field
        acc: dict = {}
        for k, bv in vec.items():
            if not (0 <= k < self.cols):
                raise ShapeError("vector index out of range")
            f.axpy(acc, self.cols_data[k], bv)
        return acc

    def transpose(self) -> "Matrix":
        cols = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.cols_data):
            for i, v in col.items():
                cols[i][j] = v
        return Matrix.trusted(self.field, self.cols, self.rows, cols)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; row/column index of the second factor varies
        fastest, matching the tensor-basis layout used by the chain code."""
        self._check_field(other)
        f = self.field
        cols = []
        for ja in range(self.cols):
            ca = self.cols_data[ja]
            for jb in range(other.cols):
                cb = other.cols_data[jb]
                col = {}
                for ra, va in ca.items():
                    for rb, vb in cb.items():
                        col[ra * other.rows + rb] = f.mul(va, vb)
                cols.append(col)
        return Matrix.trusted(f, self.rows * other.rows, self.cols * other.cols, cols)


class Echelon:
    """Incremental column echelon of a span, and nothing else.

    Pivots are kept in insertion order: each stored column is fully reduced
    against the earlier ones, so its pivot row is untouched by them and a
    single forward sweep reduces any new column exactly.  The sweep visits
    only the pivots whose row is present: it pops them in insertion order
    from a heap seeded with the pivot rows of the column, and a step with
    pivot i can only bring in rows of pivots later than i, which it pushes.
    It therefore applies the same steps, in the same order, as a sweep over
    every pivot.  Feeding columns one at a time keeps streamed rank
    computations cheap: the snake-lemma machinery pushes very long column
    streams through this without ever materialising a matrix.
    """

    def __init__(self, field: FieldTag, rows: int):
        self.field = field
        self.rows = rows
        self.pivots: list = []  # (pivot_row, reduced_col), insertion order
        self._order: dict = {}  # pivot_row -> its index in self.pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def remainder(self, col: dict) -> dict:
        """col reduced against the stored columns: col minus the one vector
        of the span that leaves it no entry at any pivot row."""
        div, axpy = self.field.div, self.field.axpy
        pivots, order = self.pivots, self._order
        col = {r: v for r, v in col.items() if v}
        heap = [order[r] for r in col if r in order]
        heapify(heap)
        last = -1
        while heap:
            i = heappop(heap)
            if i == last:  # pushed again after its row cancelled and came back
                continue
            last = i
            prow, pcol = pivots[i]
            if prow not in col:
                continue
            for r in pcol:
                if r not in col and r in order:
                    heappush(heap, order[r])
            axpy(col, pcol, -div(col[prow], pcol[prow]))
        return col

    def contains(self, col: dict) -> bool:
        return not self.remainder(col)

    def add(self, col: dict) -> bool:
        """Add a column; returns True iff it enlarged the span."""
        col = self.remainder(col)
        if not col:
            return False
        # max-index pivots: kernel-basis columns (unit vector + small tail at
        # early pivot columns) then get disjoint pivot rows, avoiding fill-in
        prow = max(col)
        self._order[prow] = len(self.pivots)
        self.pivots.append((prow, col))
        return True

    def insert(self, col: dict) -> None:
        """Add a column that is reduced already: one with no entry at a
        pivot row.  Its max key becomes its pivot row, with no sweep.  Such
        a column is outside the span, since a nonzero vector of the span has
        an entry at the pivot row of the earliest stored column in its
        combination.  The column is stored as given (no echelon handed out
        writes a stored column).  Raises ConstructionBug on a column that
        would need reduction: an empty one, or one with an entry at a pivot
        row (its max key among them)."""
        order = self._order
        if not col or not order.keys().isdisjoint(col):
            from .cubical import ConstructionBug  # not at the top: cubical loads numpy
            raise ConstructionBug("inserted column is not reduced: %r" % (sorted(col)[:8],))
        prow = max(col)
        order[prow] = len(self.pivots)
        self.pivots.append((prow, col))


@dataclass
class ColumnSpaceAnalysis:
    """The one elimination of a matrix: its rank, kernel and image.  The
    analysis of [m | v] solves m @ x == v: v's column is no pivot exactly
    when x exists, and its kernel column is then the unit at v minus x."""

    rank: int
    kernel_basis: Matrix
    image: Echelon


def column_space_analysis(m: Matrix) -> ColumnSpaceAnalysis:
    """Rank, exact kernel basis and image echelon of m, from one elimination.

    rank + kernel dimension == cols; m @ kernel_basis == 0 entrywise.
    Column j enters with the unit at key ~j (= -1 - j) beside its rows, so
    a column the echelon holds or reduces is m @ x on its rows and x_k at
    ~k.  No pivot sits at a negative key (never the max while a row is
    present), so column j keeps its unit; a remainder with negative keys
    only is its kernel column, each ~k read as k, in the values and key
    order of a combination tracked beside it (the same axpy steps).  The
    image is the echelon with its negative keys deleted, in place.
    """
    f = m.field
    ech = Echelon(f, m.rows)
    one = f.one()
    kernel = []
    for j, col in enumerate(m.cols_data):
        col = ech.remainder({**col, ~j: one})
        prow = max(col)
        if prow < 0:
            kernel.append({~k: v for k, v in col.items()})
        else:
            ech._order[prow] = len(ech.pivots)
            ech.pivots.append((prow, col))
    for _, pcol in ech.pivots:
        for r in [r for r in pcol if r < 0]:
            del pcol[r]
    return ColumnSpaceAnalysis(ech.rank, Matrix.trusted(f, m.cols, len(kernel), kernel), ech)
