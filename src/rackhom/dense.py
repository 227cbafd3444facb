"""Boundary analyses by dense row reduction mod p, verified over Z.

boundary_analysis gives ChainComplex.analysis the rank, kernel basis and
image echelon that exactfield.column_space_analysis would give, entry for
entry, from a dense float64 row reduction mod a word-size prime instead of
one sparse column at a time (Dixon, Numer. Math. 40, 1982; the blocked,
float64 elimination of FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS
35(3), 2008).  Over F_p the reduction runs at the field's own p and is
exact; over Q it runs at DENSE_PRIME, and its answer is checked exactly
over Z, with column_space_analysis as the fallback (dense_analysis gives
the argument).  Induced maps and coalgebra matrices keep
column_space_analysis.

This module imports numpy, so it is not part of exactfield, which the
package imports before anything else: a process that loads numpy first
compiles every later module above numpy's footprint, and the benchmark's
peak resident memory rose by 0.25 MiB that way.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from .cubical import ConstructionBug
from .exactfield import ColumnSpaceAnalysis, Echelon, Matrix, column_space_analysis

# The reduction keeps float64 residues of absolute value at most
# h = (p - 1) / 2 (_mod) and runs in panels of at most PANEL pivots.  Each
# value it forms is a residue minus a sum of at most PANEL products of two
# residues, below PANEL h^2 + h < 2^48 for every p up to DENSE_PRIME: an
# exact float64 integer, in the range where _mod is exact.
PANEL = 64
DENSE_PRIME = 4194301  # the largest prime below 2^22, the prime of the route over Q
# the size rule of boundary_analysis: at most 16 MiB of float64, and wide
# enough that the dense route pays for its fixed cost
DENSE_ENTRIES = 2 ** 21
DENSE_MIN_COLS = 200
# non-pivot columns checked and written out at a time
KERNEL_CHUNK = 256


def _mod(x, p: int):
    """Reduce the float64 array x of integers below 2^50 in size mod p in
    place, to the residues of least size, and return it.  x * (1/p) is
    within |x| 2^-52 (1 + 2^-52) / p < 1/(4p) of x/p, a multiple of 1/p
    that is at least 1/(2p) from every half-integer for odd p (and exact
    for p = 2), so rint finds the integer nearest x/p, and x minus its
    product with p, an exact float64 integer, is the residue.

    A float32 array is reduced in float32 (1/p rounded to float32), exact
    for integers below 2^22 in size by the same argument: the two
    roundings leave x * (1/p) within |x| 2^-23 (1 + 2^-25) / p < 1/(2p) of
    x/p, and the quotient times p, below 2^22 + p, is an exact float32
    integer (chains._ModRank's narrow route)."""
    t = x * (1.0 / p)
    np.rint(t, out=t)
    t *= p
    x -= t
    return x


def _unit(v, p: int) -> int:
    """The inverse mod p of the nonzero residue v."""
    return pow(int(v) % p, p - 2, p)


def _inverse_mod(b, p: int):
    """The inverse mod p of the invertible residue matrix b."""
    k = len(b)
    m = np.concatenate((b, np.eye(k)), axis=1)
    for c in range(k):
        i = c + int(np.flatnonzero(m[c:, c])[0])
        m[[c, i]] = m[[i, c]]
        pivot = _mod(m[c] * _unit(m[c, c], p), p)
        _mod(np.subtract(m, np.outer(m[:, c], pivot), out=m), p)
        m[c] = pivot
    return m[:, k:]


def _panel_pivots(s, p: int):
    """The pivots of the residue panel s mod p, each as (column, row) of s,
    in column order; s is reduced in place.  A pivot row is cleared once it
    is used, so the next pivot column is the first column left with an
    entry."""
    pivots = []
    while True:
        live = np.flatnonzero(s.any(axis=0))
        if not len(live):
            return pivots
        c = int(live[0])
        i = int(np.flatnonzero(s[:, c])[0])
        pivots.append((c, i))
        _mod(np.multiply(s[i], _unit(s[i, c], p), out=s[i]), p)
        _mod(np.subtract(s, np.outer(s[:, c], s[i]), out=s), p)


def _rref_mod(r, p: int):
    """Reduce the residue matrix r in place to its reduced row echelon form
    mod p, up to the order of its rows.  Returns the pivot columns,
    ascending, and the row of r that holds each.

    A panel of PANEL columns is searched for pivots on the rows that hold
    none yet (_panel_pivots).  Its k pivots, at columns pc on rows pr, make
    the k x k block b = r[pr, pc] invertible, and the rows of the reduced
    form are then b^-1 r[pr] on rows pr, and r[i] - r[i, pc] b^-1 r[pr] on
    every other row i: two products of inner dimension k <= PANEL.  Left
    of the panel rows pr are zero, so only the columns from the panel on
    change, and only on the rows with an entry in pc."""
    rows, cols = r.shape
    free = np.ones(rows, dtype=bool)
    pivot_cols, pivot_rows = [], []
    for c0 in range(0, cols, PANEL):
        fr = np.flatnonzero(free)
        if not len(fr):
            break
        found = _panel_pivots(r[fr, c0:c0 + PANEL], p)
        if not found:
            continue
        pc = np.array([c0 + c for c, _ in found])
        pr = fr[[i for _, i in found]]
        top = _mod(_inverse_mod(r[np.ix_(pr, pc)], p) @ r[pr, c0:], p)
        hit = np.flatnonzero(r[:, pc].any(axis=1))
        for lo in range(0, len(hit), PANEL):
            i = hit[lo:lo + PANEL]
            rest = r[i, c0:]
            rest -= r[np.ix_(i, pc)] @ top
            r[i, c0:] = _mod(rest, p)
        r[pr, c0:] = top
        free[pr] = False
        pivot_cols += pc.tolist()
        pivot_rows += pr.tolist()
    return pivot_cols, pivot_rows


def _dense(m: Matrix, cols):
    """The columns cols of m as a float64 array; its entries are exact
    while they are below 2^53."""
    picked = [m.cols_data[j] for j in cols]
    lengths = list(map(len, picked))
    count = sum(lengths)
    out = np.zeros((m.rows, len(picked)))
    out[np.fromiter(chain.from_iterable(picked), np.int64, count),
        np.repeat(np.arange(len(picked)), lengths)] = \
        np.fromiter(chain.from_iterable(map(dict.values, picked)), np.float64, count)
    return out


def dense_analysis(m: Matrix) -> Optional[ColumnSpaceAnalysis]:
    """column_space_analysis of m, the same rank, kernel and image echelon,
    from a dense row reduction mod p verified over Z; None when the route
    does not apply or its check fails.

    Route.  m is read as a float64 array of residues mod p, the field's own
    p over F_p and DENSE_PRIME over Q, and reduced to its reduced row echelon
    form R in natural column order (_rref_mod).  Its pivot columns P are the
    greedy pivots, and the kernel column of a non-pivot column j is
    e_j - sum_i R[i, j] e_{P_i}.  Over F_p that is exact.  Over Q, R is read
    as least residues C, and m[:, P] C = m[:, not P] is checked exactly over
    Z.  Soundness: P is independent mod p, so m[:, P] has a minor prime to
    p, which is not 0, and P is independent over Q.  A row of R is zero
    left of its pivot, so the check writes each non-pivot column j as a
    Q-combination of the pivot columns before j.  So rank_Q m = |P|, the
    greedy pivots over Q are P, and the lifted columns are the kernel
    column_space_analysis reads (its dependency of column j on the earlier
    pivot columns is unique), entry for entry.  The image echelon gets
    only the pivot columns: a dependent column stores nothing there, so
    its pivots and reduced columns are the same.

    None when an entry is not an int (a Fraction over Q), when p is above
    DENSE_PRIME (the float64 reduction could round), when the check could
    round (over Q, min(rows, cols) max |m| (p - 1)/2 must be below 2^50:
    then every sum of the float64 product m[:, P] C is an exact integer,
    and so is every entry _mod reduces), and when the check fails (a kernel
    with fractions, or a prime that divides a minor).  Memory: one float64
    copy of m while it is reduced, then C as int32, m[:, P] as float64 over
    Q, and KERNEL_CHUNK columns of the check at a time."""
    f = m.field
    p = f.p or DENSE_PRIME

    def values():
        return chain.from_iterable(map(dict.values, m.cols_data))

    if p > DENSE_PRIME or not {int}.issuperset(map(type, values())):
        return None
    if not f.p and min(m.rows, m.cols) * (p // 2) * max(map(abs, values()), default=0) >= 2 ** 50:
        return None
    r = _dense(m, range(m.cols))
    for lo in range(0, m.rows, PANEL):
        _mod(r[lo:lo + PANEL], p)
    pivots, pivot_rows = _rref_mod(r, p)
    others = np.ones(m.cols, dtype=bool)
    others[pivots] = False
    others = np.flatnonzero(others)
    c = np.empty((len(pivots), len(others)), dtype=np.int32)
    for lo in range(0, len(others), KERNEL_CHUNK):
        c[:, lo:lo + KERNEL_CHUNK] = r[np.ix_(pivot_rows, others[lo:lo + KERNEL_CHUNK])]
    del r
    at_pivots = None if f.p else _dense(m, pivots)
    keys = np.array(pivots, dtype=np.int64)
    kernel_cols = []
    for lo in range(0, len(others), KERNEL_CHUNK):
        js = others[lo:lo + KERNEL_CHUNK]
        block = c[:, lo:lo + KERNEL_CHUNK].astype(np.int64)
        if f.p:
            block = -block % p  # the negatives, canonical
        elif np.array_equal(at_pivots @ block, _dense(m, js.tolist())):
            block = -block
        else:
            return None
        cj, ci = np.nonzero(block.T)
        ends = np.cumsum(np.bincount(cj, minlength=len(js))).tolist()
        terms = list(zip(keys[ci].tolist(), block[ci, cj].tolist()))
        start = 0
        for j, end in zip(js.tolist(), ends):
            col = {j: 1}
            col.update(terms[start:end])
            kernel_cols.append(col)
            start = end
    del c, at_pivots
    ech = Echelon(f, m.rows)
    for j in pivots:
        if not ech.add(m.cols_data[j]):
            raise ConstructionBug("dense pivot column %d of a %dx%d matrix is dependent"
                                  % (j, m.rows, m.cols))
    return ColumnSpaceAnalysis(ech.rank, Matrix.trusted(f, m.cols, len(kernel_cols),
                                                        kernel_cols), ech)


def boundary_analysis(m: Matrix) -> ColumnSpaceAnalysis:
    """The analysis of a boundary matrix: dense_analysis when m has from
    DENSE_MIN_COLS columns to DENSE_ENTRIES entries, and where it returns
    None, or outside that range, column_space_analysis.  The size rule
    bounds the one dense float64 copy of m by 16 MiB (d_5 of
    conj:symmetric:3, 625 x 3125, is 15.6 MB; its d_6, 3125 x 15625, would
    be 390 MB and takes column_space_analysis).  Below DENSE_MIN_COLS
    columns the fixed cost of the dense route outweighs what it saves
    (measured: 25 x 125 and 5 x 109 ran slower dense, 5 x 205 and 7 x 497
    faster)."""
    if DENSE_MIN_COLS <= m.cols and m.rows * m.cols <= DENSE_ENTRIES:
        a = dense_analysis(m)
        if a is not None:
            return a
    return column_space_analysis(m)
