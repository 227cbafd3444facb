"""The three nerve constructions: cubical nerve of a one-object groupoid,
simplicial bar nerve, and the rack nerve.

Cubical-nerve cells in degree n are functors from the subset poset of
{1..n} into the group, encoded as vertex labelings v with v(empty) = e and
F(A -> B) = v(A)^-1 v(B); this is a bijection with G^(2^n - 1), avoiding
backtracking over edge labelings (cross-checked against brute force in the
tests at small sizes).

Simplicial degeneracies are indexed 1..n+1, with s_i inserting the unit
before position i (so s_1(g) = (e, g)); faces keep the usual 0..n indexing.
The matching identities are documented on validate_simplicial.

Cell numbering: a degree-n cell is a word of element indices, n long in the
rack and bar nerves and 2^n - 1 long in the group nerve (entry m-1 is v(m)
for the nonzero masks m), and its number is that word read as a base-|X|
numeral, first entry most significant: the itertools.product order, so the
labels are product(elements, repeat=width).  Every face and degeneracy map
is arithmetic on blocks of digit rows (cell_digits, cell_numbers).  The
rack nerve drops an entry, acting on the earlier ones first when eps = 1;
the bar nerve drops an entry or multiplies two adjacent ones; the group
nerve (GroupArith) prepends the unit column v(0), gathers the masks in the
image of the coordinate insertion or deletion, and renormalizes faces so
the new origin maps to the unit.  The streamed top-boundary certificate in
chains runs the same GroupArith on blocks of its cells.

Every face and degeneracy table is one int32 array, filled BLOCK cells at
a time (_tables); a degree must have fewer than 2^31 cells.  Every nerve is
validated as it is built (validate_cubical or validate_simplicial, whole
tables at a time).  A rack nerve also records the Inn(X)-orbit of each
element (CubSet.orbits), from which orbitcap reads the orbit complex and
the orbit-word cocycles that give its top homology in chains.homology.

A cell is its number; labels are for reports only, and none is stored: the
degree-n labels are a Words view that decodes label k from the base-|X|
digits of k when it is read, and encodes a label back in `index`.  Maps
between nerves work on digit rows as well: lnerve_inclusion sends each rack
nerve cell of conj(G) to the number of its cubical nerve cell, and the L
and Gamma functors (cubical) return their cell inclusion and projection.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .cubical import MAX_CELLS, CellTables, CubSet, Labels, mismatches, tables_by_degree
from .racks import FiniteGroup, PointedRack

# Cells per block of digit rows: bounds the numpy temporaries, which the
# allocator keeps resident after they are freed.
BLOCK = 1024

# The default cell budget of every nerve, in the library and the CLI alike:
# a degree with more cells raises BudgetExceeded.
DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    def __init__(self, message, degree):
        super().__init__(message)
        self.degree = degree


class Words(Labels):
    """The labels of one nerve degree: the words of `width` elements in
    itertools.product order.  Label k is decoded from the base-|X| digits
    of k, first entry most significant, each time it is read; index(word)
    encodes a word back to its cell number."""

    __slots__ = ("elements", "width")

    def __init__(self, elements, width: int):
        self.elements = tuple(elements)
        self.width = width
        super().__init__(len(self.elements) ** width)

    def _label(self, k):
        order = len(self.elements)
        word = [None] * self.width
        for j in reversed(range(self.width)):
            k, d = divmod(k, order)
            word[j] = self.elements[d]
        return tuple(word)

    def index(self, label):
        word = tuple(label)
        if len(word) != self.width:
            raise ValueError("%r is not a word of length %d" % (label, self.width))
        k = 0
        for e in word:
            k = k * len(self.elements) + self.elements.index(e)
        return k


class SimplicialSet(CellTables):
    """face[(n,i)]: X_n -> X_{n-1} for 0 <= i <= n;
    degen[(n,i)]: X_{n-1} -> X_n for 1 <= i <= n."""

    __slots__ = ()

    def face(self, n, i, c):
        return int(self._face[(n, i)][c])


def validate_simplicial(x: SimplicialSet):
    """Simplicial identities, adjusted for 1-indexed degeneracies
    (S_J below is the classical s_{J-1}):

        d_i d_k = d_{k-1} d_i                    (i < k)
        S_A S_B = S_{B+1} S_A                    (A <= B)
        d_i S_J = S_{J-1} d_i   (i <= J-2) ; id  (i in {J-1, J}) ;
                  S_J d_{i-1}   (i >= J+1)

    Each identity is checked on every cell as one comparison of composed
    tables; violations are listed as in validate_cubical.
    """
    ff, ss, ds = [], [], []
    for n, d, s, d0, s0 in tables_by_degree(x):
        for i in range(n if n > 1 else 0):  # X_n -> X_{n-2}: none at n = 1
            for k in range(i + 1, n + 1):
                mismatches(ff, x, n, d0[i][d[k]], d0[k - 1][d[i]], "d_%d d_%d" % (i, k))
        # S_A S_B = S_{B+1} S_A on X_{n-2} -> X_n
        for a in range(1, n + 1):
            for b in range(a, n):
                mismatches(ss, x, n - 2, s[a][s0[b]], s[b + 1][s0[a]], "s_%d s_%d" % (a, b))
        for j in range(1, n + 1):
            for i in range(0, n + 1):
                if i in (j - 1, j):
                    want = np.arange(len(s[j]))
                elif i <= j - 2:
                    want = s0[j - 1][d0[i]]
                else:
                    want = s0[j][d0[i - 1]]
                mismatches(ds, x, n - 1, d[i][s[j]], want, "d_%d s_%d" % (i, j))
    return ff + ss + ds


# -- cell numbers and the face kernel -----------------------------------------


def cell_digits(cells, order: int, width: int):
    """Digit rows of cell numbers: row k lists the entries of cell cells[k],
    first entry most significant."""
    cells = np.asarray(cells, dtype=np.int64)
    rows = np.empty((len(cells), width), dtype=np.int64)
    for j in reversed(range(width)):
        cells, rows[:, j] = np.divmod(cells, order)
    return rows


def cell_numbers(rows, order: int):
    """The cell numbers of digit rows (inverse of cell_digits), as an int64
    array."""
    cells = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        cells = cells * order + rows[:, j]
    return cells


def _insert(value, rows, i):
    """s_i of the rack and bar nerves: insert value before entry i."""
    return np.insert(rows, i - 1, value, axis=1)


def _rack_face(op, rows, i, eps):
    """d_{i,eps} of the rack nerve: drop entry i, after acting on the
    earlier entries by <| x_i when eps = 1."""
    out = np.delete(rows, i - 1, axis=1)
    if eps:
        out[:, :i - 1] = op[out[:, :i - 1], rows[:, i - 1:i]]
    return out


def _bar_face(mul, rows, i):
    """d_i of the bar nerve: drop the first or last entry, or multiply
    entries i and i+1."""
    if i == 0:
        return rows[:, 1:]
    if i == rows.shape[1]:
        return rows[:, :-1]
    out = np.delete(rows, i, axis=1)
    out[:, i - 1] = mul[rows[:, i - 1], rows[:, i]]
    return out


class GroupArith:
    """Faces, degeneracies and the degeneracy test of the group cubical
    nerve on digit rows.  With v(0) = e prepended, column m holds v(m).
    Reshaped to (cell, m >> (i-1), low i-1 bits of m), the masks whose bit i
    is eps (the image of the insertion delta_{i,eps}) are the middle rows
    congruent to eps mod 2, and deleting bit i repeats each middle row."""

    def __init__(self, g: FiniteGroup):
        self.mul = np.array(g.mul, dtype=np.int64)
        self.inv = np.array(g.inv, dtype=np.int64)
        self.unit = g.unit

    def _vertices(self, rows, i):
        # filled in place: np.insert costs more than the gathers on a block
        # of a few dozen cells, where the streamed certificate starts
        v = np.empty((len(rows), rows.shape[1] + 1), dtype=rows.dtype)
        v[:, 0] = self.unit
        v[:, 1:] = rows
        return v.reshape(len(v), -1, 2 ** (i - 1))

    def face(self, rows, i, eps):
        """d_{i,eps}: precompose with delta_{i,eps}, then renormalize so the
        new origin maps to the unit."""
        w = self._vertices(rows, i)[:, eps::2].reshape(len(rows), -1)
        return self.mul[self.inv[w[:, :1]], w[:, 1:]]

    def degen(self, rows, i):
        """s_i: precompose with the deletion of coordinate i."""
        return np.repeat(self._vertices(rows, i), 2, axis=1).reshape(len(rows), -1)[:, 1:]

    def degenerate(self, rows, zero_faces):
        """Flags of the degenerate cells: c = s_i d_{i,0} c for some i.
        zero_faces holds face(rows, i, 0) for i = 1, 2, .. n, which the
        caller has computed for the boundary already."""
        flags = np.zeros(len(rows), dtype=bool)
        for i, face in enumerate(zero_faces, 1):
            flags |= (self.degen(face, i) == rows).all(axis=1)
        return flags


def _tables(order, width, keys, fn):
    """{key: int32 array of the images of every cell of the given width
    under fn(rows, *key[1:])}, filled BLOCK cells at a time."""
    total = order ** width
    assert total <= MAX_CELLS, "cell numbers must fit int32"
    out = {key: np.empty(total, dtype=np.int32) for key in keys}
    for start in range(0, total, BLOCK):
        stop = min(start + BLOCK, total)
        rows = cell_digits(np.arange(start, stop), order, width)
        for key, table in out.items():
            table[start:stop] = cell_numbers(fn(rows, *key[1:]), order)
    return out


def _build(kind, elements, max_degree, budget, width, face_keys, face, degen):
    """Labels, face and degeneracy tables of a nerve whose degree-n cells
    are the words of width(n) elements: face(rows, *key[1:]) for each key in
    face_keys(n) maps degree n to n-1, degen(rows, i) maps n-1 to n."""
    order = len(elements)
    limit = min(budget, MAX_CELLS)
    for n in range(max_degree + 1):
        if order ** width(n) > limit:
            raise BudgetExceeded("%s nerve degree %d needs %d cells (cell budget %d)"
                                 % (kind, n, order ** width(n), limit), n)
    faces, degens = {}, {}
    for n in range(1, max_degree + 1):
        faces.update(_tables(order, width(n), face_keys(n), face))
        degens.update(_tables(order, width(n - 1), [(n, i) for i in range(1, n + 1)], degen))
    return [Words(elements, width(n)) for n in range(max_degree + 1)], faces, degens


def _cube_faces(n):
    return [(n, i, eps) for i in range(1, n + 1) for eps in (0, 1)]


# -- the three nerves ------------------------------------------------------------


def bar_nerve(g: FiniteGroup, max_degree: int,
              budget: int = DEFAULT_BUDGET) -> SimplicialSet:
    """Degree-n cells are n-tuples of group elements; the three-case face
    formula drops, multiplies, or truncates; degeneracies insert the unit."""
    labels, face, degen = _build("bar", g.elements, max_degree, budget, lambda n: n,
                                 lambda n: [(n, i) for i in range(n + 1)],
                                 partial(_bar_face, np.array(g.mul)), partial(_insert, g.unit))
    x = SimplicialSet(max_degree, labels, face, degen)
    bad = validate_simplicial(x)
    assert not bad, "bar nerve failed simplicial identities: %s" % (bad[:3],)
    return x


def _inn_orbits(op):
    """The Inn(X)-orbit of each element of a rack with table op, named by
    its least element: every right translation is a bijection, so an orbit
    is a component of the graph b -> b <| c, and the least element not yet
    named names the elements it reaches."""
    least = [None] * len(op)
    for a in range(len(op)):
        if least[a] is None:
            least[a], todo = a, [a]
            while todo:
                for c in op[todo.pop()]:
                    if least[c] is None:
                        least[c] = a
                        todo.append(c)
    return np.array(least)


def rack_nerve(x: PointedRack, max_degree: int, budget: int = DEFAULT_BUDGET) -> CubSet:
    """Nerve of a pointed rack: degree-n cells are n-tuples; the eps=1 face
    at i acts on the earlier entries by <| x_i and drops entry i, the eps=0
    face just drops it; degeneracies insert the neutral element.  The nerve
    records the Inn(X)-orbit of each element (_inn_orbits)."""
    labels, face, degen = _build("rack", x.elements, max_degree, budget, lambda n: n,
                                 _cube_faces, partial(_rack_face, np.array(x.op)),
                                 partial(_insert, x.basepoint))
    return CubSet(max_degree, labels, face, degen, is_lset=True,
                  orbits=_inn_orbits(x.op)).validate()


def group_cubical_nerve(g: FiniteGroup, max_degree: int,
                        budget: int = DEFAULT_BUDGET) -> CubSet:
    """Degree-n cells: vertex labelings v of the nonzero masks of {0,1}^n
    (v(0) = e implicitly), as tuples indexed by mask-1.  Faces precompose
    with the insertion delta_{i,eps} and renormalize so the new origin maps
    to the unit; degeneracies precompose with the coordinate deletion."""
    arith = GroupArith(g)
    labels, face, degen = _build("cubical", g.elements, max_degree, budget,
                                 lambda n: 2 ** n - 1, _cube_faces, arith.face, arith.degen)
    return CubSet(max_degree, labels, face, degen, is_lset=False).validate()


def lnerve_inclusion(g: FiniteGroup, y: CubSet):
    """maps[n][c]: the cell of y, the cubical nerve of g, that corresponds to
    the degree-n cell c of the rack nerve of conj_rack(g), for n through
    y.max_degree.  Cell (g_1,...,g_n) goes to the vertex labeling
    v(A) = v(A minus max A) g_{max A}, the product of the g_i over i in A
    in increasing order: the explicit bijection between the rack nerve and
    the first-face equalizer of the cubical nerve."""
    mul = np.array(g.mul, dtype=np.int64)
    maps = []
    for n in range(y.max_degree + 1):
        rows = cell_digits(np.arange(g.order ** n), g.order, n)
        v = np.empty((len(rows), 2 ** n), dtype=np.int64)
        v[:, 0] = g.unit
        for m in range(1, 2 ** n):
            top = m.bit_length() - 1
            v[:, m] = mul[v[:, m ^ (1 << top)], rows[:, top]]
        maps.append(cell_numbers(v[:, 1:], g.order))
    return maps
