"""The top degree of a rack complex from its Inn(X)-orbit complex:
orbit_words decides whether chains.homology may read b_n and the
generators of H_n off the orbit-indicator cocycles of Etingof and Grana
(J. Pure Appl. Algebra 177, 2003), and phi reads a chain's pairings with
them.  On that route the top boundary d_{n+1} is never eliminated.

Betti numbers.  Conjugation c_a, (x_1 .. x_n) -> (x_1 <| a .. x_n <| a),
is a map of cubical sets, and the paper's homotopy
h_a(x_1 .. x_n) = (-1)^n (x_1 .. x_n, a) gives d h_a + h_a d = c_a - id.
A pointed rack's basepoint is fixed by every right translation, so the
c_a keep the nondegenerate cells: Inn(X), the group the c_a generate, acts
on the normalized chains by chain maps and trivially on their homology.
Over a field k whose characteristic does not divide |Inn X|, taking
coinvariants is exact (K. S. Brown, Cohomology of Groups, GTM 87, ch. III),
so H(C) = H(C)_Inn = H(C_Inn).  The coinvariants form the orbit complex:
its basis is the Inn(X)-orbits of basis cells, and d[c] = [dc].  Its d_n
and d_{n+1} are reduced in an Echelon, which gives b_n of the rack complex.

Generators.  The indicator cochain phi_w of an orbit word w = (w_1 .. w_n)
is 1 on a cell whose entries lie in the orbits w_1 .. w_n and 0 elsewhere;
the orbit sum s_w is the sum of the degree-n basis cells of word w, so
phi_w(s_v) = [w = v] #cells of w.  A rack nerve records the orbit of each
element (CubSet.orbits), so the word of a cell is read off its digits, and
orbit_words checks on the face tables that every phi_w kills every column
of d_{n+1} and that every s_w is a cycle (ConstructionBug if not).  #cells
of w is the product of the sizes of the orbits w_i, and each orbit size
divides |Inn X| (an orbit is Inn X over a stabiliser), so #cells of w is
invertible in k.  Hence Phi = (phi_w)_w is well defined on H_n and onto
k^#words, and when b_n = #words it is an isomorphism H_n -> k^#words.

The argument holds for the unnormalized complex as well, where the words
run over every orbit.

Guards: cx is the complex of a rack nerve, n >= 1 (the rack table is read
off the degree-2 face d_{2,1}(x, y) = x <| y), Inn X is not trivial, the
characteristic of k does not divide |Inn X|, and b_n = #words.  When one
fails, orbit_words returns None and homology reduces d_{n+1} in full.  For
a trivial Inn X (a trivial rack, the conjugation rack of an abelian group)
the orbit complex is the complex itself and every boundary is zero
(d_{i,1} = d_{i,0}), so the full reduce of d_{n+1} costs less than the
orbit complex and gives the same answer.
"""

from __future__ import annotations

import numpy as np

from .cubical import ConstructionBug, CubSet
from .exactfield import Echelon
from .nerves import cell_digits, cell_numbers


def inn_group(nerve: CubSet):
    """The elements of Inn(X) for the rack nerve of X, as the rows of an
    array, row g the permutation x -> x g of X: the closure of the right
    translations under composition, taken one translation at a time (a
    translation already in the group adds nothing).  The rack table is read
    off the nerve, x <| a = d_{2,1}(x, a)."""
    n = len(nerve.orbits)
    op = nerve._face[(2, 2, 1)].reshape(n, n)
    group = {tuple(range(n))}
    gens = []
    for a in range(n):
        t = tuple(op[:, a].tolist())
        if t in group:
            continue
        gens.append(t)
        todo = list(group)
        while todo:
            g = todo.pop()
            for s in gens:
                h = tuple(s[v] for v in g)
                if h not in group:
                    group.add(h)
                    todo.append(h)
    return np.array(sorted(group))


def _orbits(cx, inn, m):
    """The Inn(X)-orbit of each degree-m basis cell, as an index into the
    orbits, and the basis position of one cell of each orbit.  An orbit is
    named by its least cell, a basis cell since the action keeps them."""
    cells = cx.cell_of_pos[m]
    digits = cell_digits(cells, inn.shape[1], m)
    least = cells
    for g in inn:
        least = np.minimum(least, cell_numbers(g[digits], inn.shape[1]))
    _, first, index = np.unique(least, return_index=True, return_inverse=True)
    return index.tolist(), first.tolist()


def _orbit_rank(cx, m, rows, cols):
    """The rank of d_m of the orbit complex: the column of an orbit is
    d_m of one of its cells with each row read as its orbit (rows)."""
    f = cx.field
    ech = Echelon(f, max(rows, default=-1) + 1)
    d = cx.d(m).cols_data
    for pos in cols:
        ech.add(phi(rows, f, d[pos]))
    return ech.rank


def phi(words, f, col):
    """Phi(col) = (phi_w(col))_w: the sum of the entries of the chain col
    over the cells of each word, words[r] the word of basis row r."""
    out = {}
    for r, v in col.items():
        w = words[r]
        out[w] = out.get(w, 0) + v
    return f.vector(out)


def orbit_words(cx, n: int):
    """The orbit word of each degree-n basis cell of cx, as an index into
    the words in ascending order, when homology may read H_n off the orbit
    cocycles (see the module docstring); None when a guard fails.  Raises
    ConstructionBug when the orbit cochains are not checked cocycles or the
    orbit sums not cycles."""
    x = cx.source
    if n < 1 or not isinstance(x, CubSet) or x.orbits is None:
        return None
    order = len(x.orbits)
    inn = inn_group(x)
    if len(inn) == 1 or (cx.field.p and len(inn) % cx.field.p == 0):
        return None
    # the orbit word of each degree-n basis cell, as the number of the cell
    # whose entries are the least elements of the orbits of its entries
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
    names, word_of = np.unique(words, return_inverse=True)
    return word_of.tolist() if orbit_betti(cx, inn, n) == len(names) else None


def orbit_betti(cx, inn, n: int) -> int:
    """b_n of the Inn(X)-orbit complex of the rack complex cx, inn the
    elements of Inn(X) (inn_group), from the ranks of its d_n and
    d_{n+1}."""
    below, _ = _orbits(cx, inn, n - 1)
    index, firsts = _orbits(cx, inn, n)
    _, above = _orbits(cx, inn, n + 1)
    return len(firsts) - _orbit_rank(cx, n, below, firsts) - _orbit_rank(cx, n + 1, index, above)
