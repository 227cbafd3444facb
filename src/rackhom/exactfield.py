"""Exact scalars (rationals and prime fields) and sparse linear algebra.

Every homology computation in this package reduces to column-space analysis
of boundary matrices over Q or F_p.  Matrices are stored column-sparse
(dict row -> scalar per column); rationals are `fractions.Fraction`, prime
field elements are ints in [0, p).  All values are canonical on entry, so
equality is structural.

One echelon per matrix: `column_space_analysis` eliminates a matrix once,
and its rank, kernel, image and every solve are read from that `Echelon`.
Tagged columns are tracked as combinations of the tagged inputs; untagged
columns are reduced but not tracked, so coordinates are read modulo their span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


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


@dataclass(frozen=True)
class FieldTag:
    """Coefficient field: p == 0 means Q, otherwise the prime field F_p."""

    p: int = 0

    def __post_init__(self):
        if self.p:
            if not (self.p < 2**31 and _is_prime(self.p)):
                raise ValueError("modulus must be a prime below 2^31: %r" % (self.p,))

    @property
    def is_rationals(self) -> bool:
        return self.p == 0

    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p == 0 else n % self.p

    def of_str(self, s: str):
        """Parse "a" or "a/b" (the JSON wire format for scalars)."""
        if self.p == 0:
            return Fraction(s)
        return int(s) % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.p == 0:
            return 1 / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a) -> str:
        return str(a)

    def __str__(self):
        return "Q" if self.p == 0 else "F%d" % self.p


QQ = FieldTag(0)


def _freeze_col(col: dict) -> dict:
    return {r: v for r, v in col.items() if v}


class Matrix:
    """Immutable matrix over a single FieldTag, stored as sparse columns.

    `cols_data[j]` maps row index -> nonzero scalar.  Boundary operators of
    nerves have at most 2n nonzeros per column, so the sparse form is also
    the dense-safe default at the scales this package handles.
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
        clean = []
        for col in cols_data:
            for r in col:
                if not (0 <= r < rows):
                    raise ShapeError("row index out of range")
            clean.append(_freeze_col(col))
        self.cols_data = tuple(clean)

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
                fv = field.of_int(v) if isinstance(v, int) else v
                if not field.is_rationals and isinstance(fv, int):
                    fv %= field.p
                if fv:
                    cols[j][i] = fv
        return cls(field, nrows, ncols, cols)

    @classmethod
    def zeros(cls, field: FieldTag, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field: FieldTag, n: int) -> "Matrix":
        return cls(field, n, n, [{i: field.one()} for i in range(n)])

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
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add shape mismatch")
        f = self.field
        cols = []
        for a, b in zip(self.cols_data, other.cols_data):
            c = dict(a)
            for r, v in b.items():
                w = f.add(c.get(r, f.zero()), v)
                if w:
                    c[r] = w
                elif r in c:
                    del c[r]
            cols.append(c)
        return Matrix(f, self.rows, self.cols, cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scaled(self.field.of_int(-1))

    def scaled(self, a) -> "Matrix":
        f = self.field
        return Matrix(f, self.rows, self.cols,
                      [{r: f.mul(a, v) for r, v in c.items()} for c in self.cols_data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeError("matmul %dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        f = self.field
        out = []
        for bc in other.cols_data:
            acc: dict = {}
            for k, bv in bc.items():
                for r, av in self.cols_data[k].items():
                    w = f.add(acc.get(r, f.zero()), f.mul(av, bv))
                    if w:
                        acc[r] = w
                    elif r in acc:
                        del acc[r]
            out.append(acc)
        return Matrix(f, self.rows, other.cols, out)

    def apply(self, vec: dict) -> dict:
        """Matrix times sparse column vector."""
        f = self.field
        acc: dict = {}
        for k, bv in vec.items():
            if not (0 <= k < self.cols):
                raise ShapeError("vector index out of range")
            for r, av in self.cols_data[k].items():
                w = f.add(acc.get(r, f.zero()), f.mul(av, bv))
                if w:
                    acc[r] = w
                elif r in acc:
                    del acc[r]
        return acc

    def transpose(self) -> "Matrix":
        cols = [dict() for _ in range(self.rows)]
        for j, col in enumerate(self.cols_data):
            for i, v in col.items():
                cols[i][j] = v
        return Matrix(self.field, self.cols, self.rows, cols)

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
        return Matrix(f, self.rows * other.rows, self.cols * other.cols, cols)


class Echelon:
    """Incremental column echelon with per-column combination tracking.

    Pivots are kept in insertion order: each stored column is fully reduced
    against the earlier ones, so its pivot row is untouched by them and a
    single forward sweep reduces any new column exactly.  Feeding columns
    one at a time keeps streamed rank computations cheap: the snake-lemma
    machinery pushes very long column streams through this without ever
    materialising a matrix.
    """

    def __init__(self, field: FieldTag, rows: int):
        self.field = field
        self.rows = rows
        self.pivots: list = []  # (pivot_row, reduced_col, combo or None), insertion order
        self.last_combo: Optional[dict] = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, col: dict, combo: Optional[dict]):
        f = self.field
        col = {r: v for r, v in col.items() if v}
        for prow, pcol, pcombo in self.pivots:
            if prow in col:
                factor = f.div(col[prow], pcol[prow])
                for r, v in pcol.items():
                    w = f.sub(col.get(r, f.zero()), f.mul(factor, v))
                    if w:
                        col[r] = w
                    elif r in col:
                        del col[r]
                if combo is not None and pcombo is not None:
                    for r, v in pcombo.items():
                        w = f.sub(combo.get(r, f.zero()), f.mul(factor, v))
                        if w:
                            combo[r] = w
                        elif r in combo:
                            del combo[r]
        return col, combo

    def contains(self, col: dict) -> bool:
        return not self._reduce(col, None)[0]

    def add(self, col: dict, tag=None) -> bool:
        """Add a column; returns True iff it enlarged the span.

        For a tagged column the invariant  reduced == sum combo[t] * column(t)
        over the tagged columns holds modulo the untagged ones; for a
        dependent tagged column the dependency lands in self.last_combo.
        """
        combo = None if tag is None else {tag: self.field.one()}
        col, combo = self._reduce(col, combo)
        if not col:
            self.last_combo = combo
            return False
        self.last_combo = None
        # max-index pivots: kernel-basis columns (unit vector + small tail at
        # early pivot columns) then get disjoint pivot rows, avoiding fill-in
        self.pivots.append((max(col), col, combo))
        return True

    def coordinates(self, col: dict) -> Optional[dict]:
        """The tagged combination equal to col modulo the untagged columns,
        as tag -> coefficient; None when col is outside the span."""
        f = self.field
        rem, combo = self._reduce(col, {})
        if rem:
            return None
        return {t: f.neg(c) for t, c in combo.items()}

    def untracked_copy(self) -> "Echelon":
        """A new echelon over the same span whose columns are untagged.  It
        shares the reduced columns, which no echelon writes after insertion."""
        ech = Echelon(self.field, self.rows)
        ech.pivots = [(prow, pcol, None) for prow, pcol, _ in self.pivots]
        return ech


@dataclass
class ColumnSpaceAnalysis:
    """The one elimination of a matrix: its rank, kernel and image, and
    solutions of m @ x == v read from the same tracked echelon."""

    rank: int
    kernel_basis: Matrix
    image_basis: Matrix
    echelon: Echelon

    def solve(self, v) -> Optional[list]:
        """Solve m @ x == v exactly; None when v is not in the image of m.

        v may be a dense list or a sparse dict over row indices.
        """
        ech = self.echelon
        f = ech.field
        if isinstance(v, dict):
            vec = v
            for r, w in vec.items():
                if w and not (0 <= r < ech.rows):
                    raise ShapeError("rhs index out of range")
        else:
            v = list(v)
            if len(v) != ech.rows:
                raise ShapeError("rhs length %d != rows %d" % (len(v), ech.rows))
            vec = {i: f.of_int(w) if isinstance(w, int) else w for i, w in enumerate(v)}
        coords = ech.coordinates(vec)
        if coords is None:
            return None
        x = [f.zero()] * self.kernel_basis.rows
        for j, c in coords.items():
            x[j] = c
        return x


def column_space_analysis(m: Matrix) -> ColumnSpaceAnalysis:
    """Rank, exact kernel basis and image basis of m, from one elimination.

    rank + kernel dimension == cols; m @ kernel_basis == 0 entrywise.
    The image basis is the original columns at the pivot positions.
    """
    f = m.field
    ech = Echelon(f, m.rows)
    kernel_cols = []
    pivot_columns = []
    for j in range(m.cols):
        if ech.add(m.column(j), tag=j):
            pivot_columns.append(j)
        else:
            kernel_cols.append(ech.last_combo)
    kernel = Matrix(f, m.cols, len(kernel_cols), kernel_cols)
    image = Matrix(f, m.rows, len(pivot_columns), [m.column(j) for j in pivot_columns])
    return ColumnSpaceAnalysis(len(pivot_columns), kernel, image, ech)


def solve_in_image(m: Matrix, v) -> Optional[list]:
    """One-call form of `column_space_analysis(m).solve(v)`."""
    return column_space_analysis(m).solve(v)
