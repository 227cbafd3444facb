"""Matrices over Z/m and F_p: the interleaving product, block sums, the
conjugator identities behind stable associativity/commutativity of the
Pontryagin product, and the Pontryagin product on rack chains.

No matrix is ever inverted: every claimed conjugation identity
X^-1 A X = B is checked as A X = X B together with invertibility of X
(unit determinant).

A SquareMatrix stores its entries once, reduced into [0, m), as a
read-only numpy array; products, block sums, the interleaving and
permutation matrices are whole-array operations (one matmul and one `% m`
per product).  The dtype is int64 while n (m-1)^2 < 2^63: an entry of the
product of two reduced n x n matrices is a sum of n terms, each at most
(m-1)^2, so every partial sum fits in int64 before the `% m`.  An empty
matrix counts as n = 1, so that its `% m` fits too.  Past that bound the
dtype is object, whose entries are Python ints, so `zmod:<m>` stays exact
for every modulus.  The dtype depends only on (m, n), so matrices of one
size over one ring share it.  The determinant is exact Bareiss elimination
on Python ints, and each matrix object runs it at most once: the fixed
witnesses X, Y, P_n and D_{m,n} are tested for invertibility once, not
once per identity they conjugate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import gcd

import numpy as np

from .chains import GradedMap, _signed_matrix
from .exactfield import Matrix as FieldMatrix
from .nerves import cell_digits, cell_numbers
from .racks import PointedRack


class NotRackMorphism(Exception):
    pass


@dataclass(frozen=True)
class RingTag:
    """Z/m for m >= 2 (prime m doubles as F_p)."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("modulus must be >= 2")

    def __str__(self):
        return "Z/%d" % self.m


class SquareMatrix:
    """An n x n matrix over Z/m: `entries` is the read-only array of its
    entries, `rows` a tuple-of-tuples view of it for hashing, group tables
    and failure witnesses.  `is_invertible` is computed once per object."""

    __slots__ = ("ring", "n", "entries", "_invertible")

    def __init__(self, ring: RingTag, rows):
        m = ring.m
        rows = [[int(v) % m for v in r] for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("not square")
        self._set(ring, np.array(rows, dtype=_dtype(m, n)).reshape(n, n))

    def _set(self, ring, entries):
        entries.flags.writeable = False
        self.ring = ring
        self.n = entries.shape[0]
        self.entries = entries
        self._invertible = None

    @classmethod
    def _of(cls, ring: RingTag, entries) -> "SquareMatrix":
        """Wrap an array already reduced mod m, of its size's dtype."""
        out = cls.__new__(cls)
        out._set(ring, entries)
        return out

    @classmethod
    def identity(cls, ring: RingTag, n: int) -> "SquareMatrix":
        return cls._of(ring, np.eye(n, dtype=_dtype(ring.m, n)))

    @property
    def rows(self):
        return tuple(map(tuple, self.entries.tolist()))

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix) and self.ring == other.ring
                and self.n == other.n and bool((self.entries == other.entries).all()))

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        return "SquareMatrix(%s, %r)" % (self.ring, self.entries.tolist())

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("size or ring mismatch")
        return SquareMatrix._of(self.ring, (self.entries @ other.entries) % self.ring.m)

    def det(self) -> int:
        """Determinant: exact integer Bareiss elimination, then reduced."""
        n = self.n
        if n == 0:
            return 1 % self.ring.m
        a = self.entries.tolist()
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

    def is_invertible(self) -> bool:
        if self._invertible is None:
            self._invertible = gcd(self.det(), self.ring.m) == 1
        return self._invertible


def _dtype(m: int, n: int):
    """int64 while a product's entries fit before `% m`, else Python ints."""
    return np.int64 if max(n, 1) * (m - 1) ** 2 < 2 ** 63 else object


def _zeros(ring: RingTag, n: int):
    return np.zeros((n, n), dtype=_dtype(ring.m, n))


def direct_sum(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Block diagonal [[A,0],[0,B]]."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    out = _zeros(a.ring, a.n + b.n)
    out[:a.n, :a.n] = a.entries
    out[a.n:, a.n:] = b.entries
    return SquareMatrix._of(a.ring, out)


def interleave_mu(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """The 2n x 2n interleaving: zero off the parity classes, a-entries at
    odd (1-based) positions, b-entries at even positions."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    if a.n != b.n:
        raise ValueError("size mismatch")
    out = _zeros(a.ring, 2 * a.n)
    out[0::2, 0::2] = a.entries
    out[1::2, 1::2] = b.entries
    return SquareMatrix._of(a.ring, out)


def permutation_matrix(ring: RingTag, images) -> SquareMatrix:
    """Column k carries e_{images[k]} (1-based images)."""
    n = len(images)
    out = _zeros(ring, n)
    out[np.asarray(images, dtype=np.intp) - 1, np.arange(n)] = 1
    return SquareMatrix._of(ring, out)


def conjugators(ring: RingTag, n: int, m: int = None):
    """P_n: the perfect-interleave permutation with
    P_n^-1 mu_n(A,B) P_n = A (+) B   (column k -> 2k-1 for k <= n, else
    2(k-n)); and D_{m,n} with D^-1 (A (+) B) D = B (+) A for A m x m,
    B n x n."""
    if m is None:
        m = n
    images = [2 * k - 1 for k in range(1, n + 1)] + [2 * (k - n) for k in range(n + 1, 2 * n + 1)]
    p = permutation_matrix(ring, images)
    d_images = [m + k for k in range(1, n + 1)] + [i for i in range(1, m + 1)]
    d = permutation_matrix(ring, d_images)
    return p, d


def conjugation_holds(x: SquareMatrix, a: SquareMatrix, b: SquareMatrix) -> bool:
    """x^-1 a x == b, checked multiplicatively as a x == x b."""
    return x.is_invertible() and (a @ x) == (x @ b)


def random_invertible(ring: RingTag, n: int, rng) -> SquareMatrix:
    while True:
        m = SquareMatrix(ring, [[rng.randrange(ring.m) for _ in range(n)]
                                for _ in range(n)])
        if m.is_invertible():
            return m


def all_invertible(ring: RingTag, n: int):
    out = []
    for flat in product(range(ring.m), repeat=n * n):
        m = SquareMatrix(ring, [flat[i * n:(i + 1) * n] for i in range(n)])
        if m.is_invertible():
            out.append(m)
    return out


def associativity_witnesses(ring: RingTag, n: int):
    """The pair (X, Y) in GL_{4n} conjugating all six bulleted identities of
    the stable associativity proof:
        X = P_{2n} (I_{2n} (+) P_n)
        Y = P_{2n} (P_n (+) I_{2n}) (I_n (+) D_{2n,n})
    """
    p_n, _ = conjugators(ring, n)
    p_2n, _ = conjugators(ring, 2 * n)
    i_n = SquareMatrix.identity(ring, n)
    i_2n = SquareMatrix.identity(ring, 2 * n)
    _, d_2n_n = conjugators(ring, n, m=2 * n)  # D_{2n,n}: (2n+n) square
    x = p_2n @ direct_sum(i_2n, p_n)
    y = p_2n @ direct_sum(p_n, i_2n) @ direct_sum(i_n, d_2n_n)
    return x, y


def commutativity_witnesses(ring: RingTag, n: int):
    """The pair (X, Y) in GL_{2n} for the four commutativity identities:
    X = P_n and Y = P_n D_{n,n}."""
    p_n, d_nn = conjugators(ring, n)
    return p_n, p_n @ d_nn


def verify_matrix_lemmas(ring: RingTag, n_max: int, trials: int, seed: int = 0,
                         exhaustive_upto: int = 0) -> dict:
    """All conjugation identities: the two conjugator lemmas, the group
    morphism property of the interleaving, and the bulleted identities of
    the associativity and commutativity proofs with the explicit witnesses.
    Randomised over invertible matrices (seeded); optionally exhaustive
    through the given size."""
    rng = random.Random(seed)
    report = {"ring": str(ring), "n_max": n_max, "trials": trials, "checks": [], "ok": True}

    def record(name, ok, witness=None):
        report["checks"].append({"name": name, "ok": ok,
                                 **({"witness": witness} if witness and not ok else {})})
        if not ok:
            report["ok"] = False

    for n in range(1, n_max + 1):
        if n <= exhaustive_upto:
            pool = all_invertible(ring, n)
            pairs = [(a, b) for a in pool for b in pool]
        else:
            pairs = [(random_invertible(ring, n, rng), random_invertible(ring, n, rng))
                     for _ in range(trials)]
        p_n, d_nn = conjugators(ring, n)
        ok_p = ok_mu = True
        for a, b in pairs:
            if not conjugation_holds(p_n, interleave_mu(a, b), direct_sum(a, b)):
                ok_p = False
            c, d = pairs[0]
            if interleave_mu(a @ c, b @ d) != interleave_mu(a, b) @ interleave_mu(c, d):
                ok_mu = False
        record("P_%d conjugates mu to (+)" % n, ok_p)
        record("mu_%d is a group morphism" % n, ok_mu)
        for m in range(1, n_max + 1):
            _, d_mn = conjugators(ring, n, m=m)
            ok_d = True
            for _ in range(min(trials, 10)):
                a = random_invertible(ring, m, rng)
                b = random_invertible(ring, n, rng)
                if not conjugation_holds(d_mn, direct_sum(a, b), direct_sum(b, a)):
                    ok_d = False
            record("D_{%d,%d} swaps the blocks" % (m, n), ok_d)
        # associativity bullets with fixed X, Y
        x, y = associativity_witnesses(ring, n)
        i_n = SquareMatrix.identity(ring, n)
        i_2n = SquareMatrix.identity(ring, 2 * n)
        ok_a = x.is_invertible() and y.is_invertible()
        for t in range(min(trials, 12)):
            a = random_invertible(ring, n, rng)
            targets = [
                (interleave_mu(direct_sum(a, i_n), i_2n),
                 direct_sum(direct_sum(a, i_n), i_2n),
                 interleave_mu(interleave_mu(a, i_n), i_2n)),
                (interleave_mu(i_2n, interleave_mu(a, i_n)),
                 direct_sum(direct_sum(i_n, direct_sum(i_n, a)), i_n),
                 interleave_mu(interleave_mu(i_n, a), i_2n)),
                (interleave_mu(i_2n, interleave_mu(i_n, a)),
                 direct_sum(direct_sum(i_n, direct_sum(i_n, i_n)), a),
                 interleave_mu(i_2n, direct_sum(a, i_n))),
            ]
            for lhs_x, middle, lhs_y in targets:
                if not conjugation_holds(x, lhs_x, middle):
                    ok_a = False
                if not conjugation_holds(y, lhs_y, middle):
                    ok_a = False
        record("associativity bullets via explicit X, Y (n=%d)" % n, ok_a)
        # commutativity identities
        cx, cy = commutativity_witnesses(ring, n)
        ok_c = cx.is_invertible() and cy.is_invertible()
        for t in range(min(trials, 12)):
            a = random_invertible(ring, n, rng)
            if not conjugation_holds(cx, interleave_mu(a, i_n), direct_sum(a, i_n)):
                ok_c = False
            if not conjugation_holds(cy, interleave_mu(i_n, a), direct_sum(a, i_n)):
                ok_c = False
            if not conjugation_holds(cx, interleave_mu(i_n, a), direct_sum(i_n, a)):
                ok_c = False
            if not conjugation_holds(cy, interleave_mu(a, i_n), direct_sum(i_n, a)):
                ok_c = False
        record("commutativity identities via explicit X, Y (n=%d)" % n, ok_c)
    return report


# -- Pontryagin product on rack chains -----------------------------------------


def check_rack_morphism(src_a: PointedRack, src_b: PointedRack,
                        dst: PointedRack, mu_table) -> bool:
    """mu: A x B -> dst is a rack morphism preserving the basepoints:
    mu(x <| x', y <| y') = mu(x,y) <| mu(x',y')."""
    if mu_table[src_a.basepoint][src_b.basepoint] != dst.basepoint:
        return False
    for x in range(src_a.order):
        for y in range(src_b.order):
            for x2 in range(src_a.order):
                for y2 in range(src_b.order):
                    lhs = mu_table[src_a.op[x][x2]][src_b.op[y][y2]]
                    rhs = dst.op[mu_table[x][y]][mu_table[x2][y2]]
                    if lhs != rhs:
                        return False
    return True


def pontryagin_rack_product(C, rack: PointedRack, mu_table, target=None,
                            target_rack: PointedRack = None, up_to=None):
    """Chain-level Pontryagin product CR_p (x) CR_q -> CR_{p+q} induced by a
    rack morphism mu: on cells,

        (x_1..x_p) * (y_1..y_q) = (mu(x_1,e),...,mu(x_p,e),mu(e,y_1),...)

    For an abelian rack with mu the group addition this is concatenation.
    Returns a certified chain map from the tensor square."""
    if target is None:
        target = C
    if target_rack is None:
        target_rack = rack
    if not check_rack_morphism(rack, rack, target_rack, mu_table):
        raise NotRackMorphism("supplied table is not a rack morphism")
    if up_to is None:
        up_to = C.max_degree
    f = C.field
    T = C.tensor_square()
    e = rack.basepoint
    mu = np.array(mu_table)
    # each factor's letters pushed into the target rack: x -> mu(x, e), y -> mu(e, y)
    left = [mu[cell_digits(C.cell_of_pos[p], rack.order, p), e] for p in range(up_to + 1)]
    right = [mu[e, cell_digits(C.cell_of_pos[q], rack.order, q)] for q in range(up_to + 1)]
    mats = {}
    for n in range(up_to + 1):
        cols = []
        for (p, q) in T.components(n):
            i, j = T.basis_pairs(n, p)
            words = np.concatenate((left[p][i], right[q][j]), axis=1)
            cells = cell_numbers(words, target_rack.order)
            cols += _signed_matrix([target.basis_rows(n, cells)], [1], target.dim(n), f).cols_data
        mats[n] = FieldMatrix(f, target.dim(n), T.dim(n), cols)
    return GradedMap(T, target, mats, desc="Pontryagin product")


def star_components(star) -> dict:
    """Per-(p,q) component matrices of a Pontryagin chain map, for the
    graded-coalgebra law checks: the columns of each component's span."""
    T = star.source
    out = {}
    for n, m in star.mats.items():
        for comp in T.components(n):
            cols = m.cols_data[T.span(n, comp)]
            out[comp] = FieldMatrix(T.field, m.rows, len(cols), cols)
    return out
