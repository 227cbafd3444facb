"""The rank cap that the orbit-indicator cocycles of Etingof and Grana
(J. Pure Appl. Algebra 177, 2003) put on the top boundary of a rack complex
over Q, and the columns of that boundary a probe mod a prime q finds under
the cap.  chains.homology reduces only those columns over Q and gives the
soundness argument.

The indicator cochain phi_w of an orbit word w = (w_1 .. w_n) is 1 on a
cell whose entries lie in the orbits w_1 .. w_n and 0 elsewhere; the orbit
sum s_w is the sum of the degree-n basis cells of word w, so
phi_w(s_v) = [w = v] #cells of w.  A rack nerve records the orbit of each
element (CubSet.orbits), so the word of a cell is read off its digits, and
capped_pivots checks on the nerve's face tables that every phi_w kills
every column of d_{n+1} and that every s_w is a cycle.
"""

from __future__ import annotations

import numpy as np

from .cubical import ConstructionBug, CubSet
from .exactfield import Echelon, FieldTag, least_prime_not_dividing
from .nerves import cell_digits, cell_numbers


def capped_pivots(cx, n: int):
    """The columns of d_{n+1} of the complex cx that span its image,
    found by a mod-q probe capped by the orbit cocycles (see
    chains.homology), in order; None when cx is not a rack complex over Q
    or the probe ends below the cap.  Raises ConstructionBug when the orbit
    cochains are not checked cocycles or the orbit sums not cycles."""
    x = cx.source
    if cx.field.p or not isinstance(x, CubSet) or x.orbits is None:
        return None
    # the orbit word of each degree-n basis cell, as the number of the cell
    # whose entries are the least elements of the orbits of its entries
    order = len(x.orbits)
    base = cx.cell_of_pos[n]
    words = cell_numbers(x.orbits[cell_digits(base, order, n)], order)
    # every phi_w kills the column of c when its faces d_{i,1} c and
    # d_{i,0} c, of opposite signs, have one orbit word (or both are
    # dropped, word -1) for each i
    face_words = np.append(words, -1)
    cells = cx.cell_of_pos[n + 1]
    for i in range(1, n + 2):
        acted, dropped = (face_words[cx.basis_rows(n, x._face[(n + 1, i, eps)][cells])]
                          for eps in (1, 0))
        bad = np.flatnonzero(acted != dropped)
        if len(bad):
            raise ConstructionBug("orbit cochain not a cocycle: d_%d,1 and d_%d,0 of %r"
                                  " have different orbit words"
                                  % (i, i, cx.label(n + 1, int(bad[0]))))
    # every s_w is a cycle when, for each i, the faces d_{i,1} and d_{i,0}
    # of the cells of w, of opposite signs, are one multiset of rows (or of
    # drops, row -1): compare the sorted keys (word, row)
    width = cx.dim(n - 1) + 1
    for i in range(1, n + 1):
        acted, dropped = (np.sort(words * width + cx.basis_rows(n - 1, x._face[(n, i, eps)][base]))
                          for eps in (1, 0))
        bad = np.flatnonzero(acted != dropped)
        if len(bad):
            word = (min(acted[bad[0]], dropped[bad[0]]) + 1) // width
            raise ConstructionBug("orbit sum not a cycle: d_%d,1 != d_%d,0 on the word of %r"
                                  % (i, i, cx.label(n, int(np.flatnonzero(words == word)[0]))))
    cap = cx.dim(n) - cx.analysis(n).rank - len(np.unique(words))
    fq = FieldTag(least_prime_not_dividing(order))
    probe = Echelon(fq, cx.dim(n))
    picks = []
    for j, col in enumerate(cx.d(n + 1).cols_data):
        if len(picks) == cap:
            break
        if probe.add(fq.vector(col)):
            picks.append(j)
    return picks if len(picks) == cap else None
