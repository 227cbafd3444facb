"""The rank cap that the orbit-indicator cocycles of Etingof and Grana
(J. Pure Appl. Algebra 177, 2003) put on the top boundary of a rack complex
over Q, and the columns of that boundary a probe mod a prime q finds under
the cap.  chains.homology reduces only those columns over Q and gives the
soundness argument.

The indicator cochain phi_w of an orbit word w = (w_1 .. w_n) is 1 on a
cell whose entries lie in the orbits w_1 .. w_n and 0 elsewhere.  A rack
nerve records the orbit of each element (CubSet.orbits), so the word of a
cell is read off its digits, and capped_pivots checks on the nerve's face
tables that every phi_w kills every column of d_{n+1}.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .cubical import ConstructionBug, CubSet
from .exactfield import Echelon, FieldTag, least_prime_not_dividing
from .nerves import cell_digits, cell_numbers


def capped_pivots(cx, n: int):
    """The columns of d_{n+1} of the complex cx that span its image,
    found by a mod-q probe capped by the orbit cocycles (see
    chains.homology), in order; None when cx is not a rack complex over Q
    or the probe ends below the cap.  Raises ConstructionBug when the orbit
    cochains are not checked cocycles."""
    x = cx.source
    if cx.field.p or not isinstance(x, CubSet) or x.orbits is None:
        return None
    # the orbit word of each degree-n basis cell, as the number of the cell
    # whose entries are the least elements of the orbits of its entries
    order = len(x.orbits)
    words = cell_numbers(x.orbits[cell_digits(cx.cell_of_pos[n], order, n)], order)
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
    fq = FieldTag(least_prime_not_dividing(order))
    # the rank mod q of the pairing, its columns the kernel columns paired
    word_of = words.tolist()
    n_words = len(set(word_of))
    kernel = cx.analysis(n).kernel_basis
    pairing = Echelon(fq, order ** n)
    for col in kernel.cols_data:
        if pairing.rank == n_words:
            break
        scale = lcm(*(v.denominator for v in col.values() if type(v) is not int))
        paired = {}
        for r, v in col.items():
            paired[word_of[r]] = paired.get(word_of[r], 0) + int(v * scale)
        pairing.add(fq.vector(paired))
    cap = kernel.cols - pairing.rank
    probe = Echelon(fq, cx.dim(n))
    picks = []
    for j, col in enumerate(cx.d(n + 1).cols_data):
        if len(picks) == cap:
            break
        if probe.add(fq.vector(col)):
            picks.append(j)
    return picks if len(picks) == cap else None
