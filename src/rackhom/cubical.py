"""Finite truncated cubical sets, the cube-category models, and the functors
that cut a cubical set down to (or collapse it onto) a single-vertex object
whose two first faces coincide ("L-sets").

A CubSet stores cells per degree as indices 0..k-1 with face tables
d_{i,eps} (1 <= i <= n, eps in {0,1}) and degeneracy tables s_i
(1 <= i <= n, mapping degree n-1 into degree n), each one int32 array over
the cells of its source degree; every reader gathers through the stored
arrays as they are.  A cell is its number.  Its label is for reports only
and is decoded on demand: the labels of a degree are a read-only Labels
view that computes label k when it is read, so a nerve, a complex or a
functor holds no label until one is printed or looked up (`index`).  The
L and Gamma functors hand back their cell maps, as arrays, with the object
they build: the inclusion of the kept cells (l_functor_with_inclusion) and
the projection onto the classes (gamma_functor_with_projection).

All structure maps honour the cubical identities; `validate_cubical` checks
every instance on every cell and returns a report.  It reads only the
tables: each identity is one comparison of two composed index arrays
(tables_by_degree, mismatches), so it does not share code with the nerve
kernel that builds them.  The simplicial validator and verify_cubset_map
work the same way.

Composition convention: "d_{i,eps} d_{j,omega}" etc. are written as function
composition (right map applied first).  The identities checked are

    d_{i,eps} d_{k,omega} = d_{k-1,omega} d_{i,eps}          (i < k)
    s_i s_k = s_{k+1} s_i                                    (i <= k)
    d_{k,eps} s_i = s_i d_{k-1,eps}   (i < k)
                  = id                (i = k)
                  = s_{i-1} d_{k,eps} (i > k)
"""

from __future__ import annotations

import json
import operator
import warnings
from collections.abc import Sequence
from itertools import combinations

import numpy as np


class ConstructionBug(AssertionError):
    """An identity a construction guarantees failed: a program fault (CLI exit 4)."""


class QuotientIllDefined(Exception):
    def __init__(self, message, witnesses):
        super().__init__(message)
        self.witnesses = witnesses


class TruncationTooLow(Exception):
    pass


# -- labels, decoded on demand -------------------------------------------------


class Labels(Sequence):
    """A read-only sequence of `length` labels; label k is fn(k), computed
    each time it is read and never stored.  Subclasses compute it in
    _label instead of through fn."""

    __slots__ = ("_len", "_fn")

    def __init__(self, length: int, fn=None):
        self._len = length
        self._fn = fn

    def _label(self, k: int):
        return self._fn(k)

    def __len__(self):
        return self._len

    def __getitem__(self, k):
        k = operator.index(k)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("label %d of %d" % (k, self._len))
        return self._label(k)


class Picked(Labels):
    """The labels of the cells `cells` (an int array) of the labels `base`:
    label k is base[cells[k]]."""

    __slots__ = ("_base", "_cells")

    def __init__(self, base, cells):
        super().__init__(len(cells))
        self._base = base
        self._cells = cells

    def _label(self, k):
        return self._base[int(self._cells[k])]


# -- cells with face and degeneracy tables --------------------------------------

# Cell numbers are int32 in every table, so a degree has at most MAX_CELLS cells.
MAX_CELLS = 2 ** 31 - 1


def _int32_table(table):
    """A structure map as a read-only int32 array (an int32 array is kept as
    it is)."""
    t = np.asarray(table, dtype=np.int32)
    t.flags.writeable = False
    return t


class CellTables:
    """Cells per degree with face tables _face[(n, *key)]: X_n -> X_{n-1}
    and degeneracy tables _degen[(n, i)]: X_{n-1} -> X_n, as int32 arrays,
    and one label sequence per degree.  CubSet and nerves.SimplicialSet
    differ in how faces are keyed."""

    __slots__ = ("max_degree", "sizes", "labels", "_face", "_degen")

    def __init__(self, max_degree, labels, face, degen):
        self.max_degree = max_degree
        self.labels = tuple(labels)
        self.sizes = tuple(len(lbls) for lbls in self.labels)
        self._face = {k: _int32_table(t) for k, t in face.items()}
        self._degen = {k: _int32_table(t) for k, t in degen.items()}

    def n_cells(self, n: int) -> int:
        return self.sizes[n] if 0 <= n <= self.max_degree else 0

    def degen(self, n: int, i: int, c: int) -> int:
        """s_i applied to a cell of degree n-1, landing in degree n."""
        return int(self._degen[(n, i)][c])

    def label(self, n: int, c: int):
        return self.labels[n][c]

    def index(self, n: int, label) -> int:
        return self.labels[n].index(label)

    def degenerate_cells(self, n: int):
        """Boolean mask over the degree-n cells: True on the image of some
        degeneracy."""
        mask = np.zeros(self.n_cells(n), dtype=bool)
        for i in range(1, n + 1):
            mask[self._degen[(n, i)]] = True
        return mask


class CubSet(CellTables):
    __slots__ = ("is_lset", "orbits")

    def __init__(self, max_degree, labels, face, degen, is_lset=False, orbits=None):
        """labels: one sequence of cell labels per degree; face[(n,i,eps)]
        and degen[(n,i)] are integer sequences of target cells, stored as
        int32 arrays (degen maps degree n-1 into degree n).  orbits is set
        on a rack nerve only: for each element, the entries of its cells,
        the least element of its Inn(X)-orbit."""
        super().__init__(max_degree, labels, face, degen)
        self.is_lset = is_lset
        self.orbits = orbits

    # -- structure maps --------------------------------------------------

    def face(self, n: int, i: int, eps: int, c: int) -> int:
        return int(self._face[(n, i, eps)][c])

    def truncated(self, n: int) -> "CubSet":
        """The cells and structure maps through degree n."""
        return CubSet(n, self.labels[:n + 1],
                      {k: t for k, t in self._face.items() if k[0] <= n},
                      {k: t for k, t in self._degen.items() if k[0] <= n},
                      is_lset=self.is_lset, orbits=self.orbits)

    # -- validation --------------------------------------------------------

    def validate(self):
        report = validate_cubical(self)
        if report:
            raise ConstructionBug(
                "cubical identities violated: %s" % (report[:3],))
        return self


def tables_by_degree(x, up_to=None):
    """Yield (n, faces, degens, faces of n-1, degens of n-1) for n = 1..up_to
    (default x.max_degree): the stored arrays of x._face and x._degen, keyed
    so that faces[key] maps X_n -> X_{n-1} (key is (i, eps) on a cubical set,
    i on a simplicial one) and degens[i] is s_i: X_{n-1} -> X_n."""
    prev = ({}, {})
    for n in range(1, (x.max_degree if up_to is None else up_to) + 1):
        cur = ({k[1:] if len(k) == 3 else k[1]: t for k, t in x._face.items() if k[0] == n},
               {i: x._degen[(n, i)] for i in range(1, n + 1)})
        yield (n,) + cur + prev
        prev = cur


def mismatches(bad, x, n, lhs, rhs, desc):
    """Append (n, label, desc) for every degree-n cell where the composed
    tables lhs and rhs differ, in cell order."""
    bad.extend((n, x.label(n, c), desc) for c in np.flatnonzero(lhs != rhs).tolist())


def validate_cubical(x: CubSet):
    """Check every cubical identity instance on every cell, one whole
    composed table per identity.

    Returns a list of violations (degree, cell label, identity description),
    grouped by identity family (face-face, degeneracy-degeneracy, mixed,
    first-face equalizer), then by degree and identity, then by cell; an
    empty list means the structure is a genuine truncated cubical set.
    """
    ff, ss, ds, eq = [], [], [], []
    if x.is_lset and x.n_cells(0) != 1:
        eq.append((0, None, "is_lset but |X_0| != 1"))
    for n, d, s, d0, s0 in tables_by_degree(x):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                for eps in (0, 1):
                    for om in (0, 1):
                        mismatches(ff, x, n, d0[i, eps][d[k, om]], d0[k - 1, om][d[i, eps]],
                                   "d_%d,%d d_%d,%d != d_%d,%d d_%d,%d"
                                   % (i, eps, k, om, k - 1, om, i, eps))
        # s_i s_k = s_{k+1} s_i on X_{n-2} -> X_n
        for i in range(1, n + 1):
            for k in range(i, n):
                mismatches(ss, x, n - 2, s[i][s0[k]], s[k + 1][s0[i]],
                           "s_%d s_%d != s_%d s_%d" % (i, k, k + 1, i))
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                for eps in (0, 1):
                    if i == k:
                        want = np.arange(len(s[i]))
                    elif i < k:
                        want = s0[i][d0[k - 1, eps]]
                    else:
                        want = s0[i - 1][d0[k, eps]]
                    mismatches(ds, x, n - 1, d[k, eps][s[i]], want,
                               "d_%d,%d s_%d violation" % (k, eps, i))
        if x.is_lset:
            mismatches(eq, x, n, d[1, 0], d[1, 1], "is_lset but d_1,0 != d_1,1")
    return ff + ss + ds + eq


# -- the cube category ------------------------------------------------------


def cube_morphisms(m: int, n: int):
    """Hom(square_m, square_n): each output coordinate is a constant 0/1 or
    copies a distinct input variable, variable indices strictly increasing
    across outputs.  Returned as tuples of ('c',eps) / ('v',j) entries."""
    out = []
    for k in range(0, min(m, n) + 1):
        for outpos in combinations(range(n), k):
            for invars in combinations(range(1, m + 1), k):
                base = {}
                for pos, var in zip(outpos, invars):
                    base[pos] = ("v", var)
                rest = [p for p in range(n) if p not in base]
                for bits in range(2 ** len(rest)):
                    word = dict(base)
                    for t, p in enumerate(rest):
                        word[p] = ("c", (bits >> t) & 1)
                    out.append(tuple(word[p] for p in range(n)))
    out.sort()
    return out


def precompose_delta(f, i: int, eps: int):
    """f o delta_{i,eps}: substitute input i := eps, renumber higher inputs."""
    out = []
    for e in f:
        if e[0] == "v":
            j = e[1]
            if j == i:
                out.append(("c", eps))
            elif j > i:
                out.append(("v", j - 1))
            else:
                out.append(e)
        else:
            out.append(e)
    return tuple(out)


def precompose_sigma(f, i: int):
    """f o sigma_i: inputs above i shift up (input i of the source is unused)."""
    out = []
    for e in f:
        if e[0] == "v" and e[1] >= i:
            out.append(("v", e[1] + 1))
        else:
            out.append(e)
    return tuple(out)


# -- standard models ---------------------------------------------------------


def standard_model(kind: str, n: int, truncation=None) -> CubSet:
    """The representable cubical set on the n-cube ("cube") or its collapse
    to a single vertex ("lcube")."""
    if truncation is None:
        truncation = n + 1
    if truncation < n:
        warnings.warn("truncation %d below %d: top cells missing" % (truncation, n),
                      stacklevel=2)
    if kind == "cube":
        labels = [cube_morphisms(m, n) for m in range(truncation + 1)]
        face = {}
        degen = {}
        index = [{f: i for i, f in enumerate(ls)} for ls in labels]
        for m in range(1, truncation + 1):
            for i in range(1, m + 1):
                for eps in (0, 1):
                    face[(m, i, eps)] = np.fromiter(
                        (index[m - 1][precompose_delta(f, i, eps)] for f in labels[m]),
                        dtype=np.int32, count=len(labels[m]))
                degen[(m, i)] = np.fromiter(
                    (index[m][precompose_sigma(f, i)] for f in labels[m - 1]),
                    dtype=np.int32, count=len(labels[m - 1]))
        return CubSet(truncation, labels, face, degen, is_lset=False).validate()
    if kind == "lcube":
        cube = standard_model("cube", n, truncation + 1)
        return gamma_functor(cube)
    raise ValueError("unknown standard model %r" % (kind,))


# -- the L functor (equalizer of iterated first faces) ----------------------


def l_functor_with_inclusion(x: CubSet):
    """The subobject of x on the cells whose iterated first-face words all
    agree, with a single 0-cell (raises if the 0-cell is not unique), and
    its inclusion incl[n]: the kept cells of x in ascending order, as an
    array, so cell c of the subobject is cell incl[n][c] of x."""
    N = x.max_degree
    keep = [np.ones(x.n_cells(0), dtype=bool)]
    for n in range(1, N + 1):
        a = x._face[(n, 1, 0)]
        keep.append((a == x._face[(n, 1, 1)]) & keep[n - 1][a])
    # degree 0: the common endpoint of the kept 1-cells
    if x.n_cells(0) != 1:
        zero = np.unique(x._face[(1, 1, 0)][keep[1]])
        if len(zero) != 1:
            raise ConstructionBug(
                "L functor needs a unique 0-cell; found endpoints %r" % (zero.tolist(),))
        keep[0] = np.arange(x.n_cells(0)) == zero[0]
    incl = [np.flatnonzero(k) for k in keep]
    new = []  # cell of x -> cell of the subobject, -1 off it
    for k in keep:
        pos = np.full(len(k), -1, dtype=np.int32)
        pos[k] = np.arange(np.count_nonzero(k), dtype=np.int32)
        new.append(pos)

    def restrict(table, cells, tgt, message):
        out = new[tgt][table[cells]]
        if (out < 0).any():
            raise ConstructionBug(message)
        return out

    face = {(n, i, eps): restrict(t, incl[n], n - 1,
                                  "face left the equalizer subset at degree %d" % n)
            for (n, i, eps), t in x._face.items()}
    degen = {(n, i): restrict(t, incl[n - 1], n, "degeneracy image escaped the"
                              " equalizer subset at degree %d" % n)
             for (n, i), t in x._degen.items()}
    lx = CubSet(N, [Picked(x.labels[n], incl[n]) for n in range(N + 1)], face, degen,
                is_lset=True).validate()
    return lx, incl


def subobject_cells(incl, maps):
    """maps[n] (cells of x) as cells of the subobject included by incl
    (ascending cells of x, as l_functor_with_inclusion returns them), or
    None when some cell lies outside it."""
    out = []
    for sub, cells in zip(incl, maps):
        sub = np.asarray(sub, dtype=np.intp)
        pos = np.searchsorted(sub, cells)
        if (pos >= len(sub)).any() or (sub[pos] != cells).any():
            return None
        out.append(pos.tolist())
    return out


# -- the Gamma functor (coequalizer of the two first faces) ------------------


def _component_minima(size: int, a, b):
    """For each of `size` vertices, the smallest vertex of its connected
    component in the graph with edges (a[k], b[k]): min-label hooking with
    pointer jumping on whole arrays.  Invariant: lab[c] <= c lies in the
    component of c.  After the jumps lab points at roots (lab[lab] = lab);
    each hook links the larger root of an edge to the smaller one.  At the
    fixed point every edge joins equal labels and each label is its own
    root, so the label of a component is a member m with lab[m] = m, which
    is its minimum (lab[min] <= min forces it)."""
    lab = np.arange(size, dtype=np.int32)
    while True:
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
        ra, rb = lab[a], lab[b]
        split = ra != rb
        if not split.any():
            return lab
        np.minimum.at(lab, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])


def first_face_classes(x: CubSet, n: int):
    """The classes of the degree-n cells of x under d_{1,0} c ~ d_{1,1} c
    (c of degree n+1), as an int32 array cell -> class; classes are
    numbered in the order of their smallest cells."""
    roots = _component_minima(x.n_cells(n), x._face[(n + 1, 1, 0)], x._face[(n + 1, 1, 1)])
    return (np.cumsum(roots == np.arange(x.n_cells(n)), dtype=np.int32) - 1)[roots]


def gamma_functor(x: CubSet) -> CubSet:
    """Quotient of x identifying the two first faces of every cell, degree by
    degree; the output is truncated one below x (degree-n classes need the
    degree-(n+1) cells to generate the relation)."""
    gx, _ = gamma_functor_with_projection(x)
    return gx


def gamma_functor_with_projection(x: CubSet):
    """gamma_functor plus the projection arrays proj[n][cell] = class index
    (first_face_classes).  Classes are numbered by their smallest cell, so
    the first cell of x that projects to class k is the representative of
    k."""
    N = x.max_degree
    if N < 1:
        raise TruncationTooLow("gamma needs at least degree 1")
    M = N - 1
    proj = [first_face_classes(x, n) for n in range(M + 1)]
    first = [np.unique(cls, return_index=True)[1] for cls in proj]
    if len(first[0]) != 1:
        raise QuotientIllDefined(
            "degree-0 coequalizer is not a single class (disconnected input)",
            witnesses=[x.label(0, r) for r in first[0].tolist()])

    def induced(table, n, tgt, message):
        """The class map of a structure map from degree n into degree tgt;
        raises unless it is constant on every class."""
        images = proj[tgt][table]
        bad = np.flatnonzero(images != images[first[n]][proj[n]])
        if len(bad):
            k = proj[n][bad].min()
            raise QuotientIllDefined(message, witnesses=[
                x.label(n, c) for c in np.flatnonzero(proj[n] == k).tolist()])
        return images[first[n]]

    face, degen = {}, {}
    for n in range(1, M + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                face[(n, i, eps)] = induced(x._face[(n, i, eps)], n, n - 1,
                                            "induced face d_%d,%d not constant on a class"
                                            % (i, eps))
        for i in range(1, n + 1):
            degen[(n, i)] = induced(x._degen[(n, i)], n - 1, n,
                                    "induced degeneracy s_%d not constant on a class" % i)
    gx = CubSet(M, [Picked(x.labels[n], first[n]) for n in range(M + 1)], face, degen,
                is_lset=True).validate()
    return gx, proj


# -- comparisons -------------------------------------------------------------


def verify_cubset_map(x: CubSet, y: CubSet, maps, up_to=None) -> bool:
    """Check that maps[n]: cells(x,n) -> cells(y,n) is a degreewise bijection
    commuting with every face and degeneracy (whole tables at a time)."""
    N = min(x.max_degree, y.max_degree) if up_to is None else up_to
    m = [np.asarray(maps[n], dtype=np.intp) for n in range(N + 1)]
    for n in range(N + 1):
        if x.n_cells(n) != y.n_cells(n) or \
                not np.array_equal(np.sort(m[n]), np.arange(x.n_cells(n))):
            return False
    for (n, dx, sx, _, _), (_, dy, sy, _, _) in zip(tables_by_degree(x, N), tables_by_degree(y, N)):
        if any((m[n - 1][dx[key]] != dy[key][m[n]]).any() for key in dx) or \
                any((m[n][sx[i]] != sy[i][m[n - 1]]).any() for i in sx):
            return False
    return True


def cubset_to_json(x: CubSet) -> str:
    doc = {
        "max_degree": x.max_degree,
        "cells": [list(range(k)) for k in x.sizes],
        "faces": {"%d,%d,%d" % k: v.tolist() for k, v in sorted(x._face.items())},
        "degeneracies": {"%d,%d" % k: v.tolist() for k, v in sorted(x._degen.items())},
        "is_lset": x.is_lset,
        "labels": [[repr(l) for l in lbls] for lbls in x.labels],
    }
    return json.dumps(doc, sort_keys=True)
