"""Signed shuffle permutations and the three block-shuffle bijections.

Permutations are 1-indexed throughout: images[k-1] is the value at position
k, matching the usual convention for (p,q)-shuffles (increasing on the first
p and the last q positions).  Sh^1 consists of the shuffles with value 1 at
position 1; the complementary set (value 1 sits at position p+1) is labelled
"first is p+1".  Together they partition Sh_{p,q}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


class EmptyBlock(Exception):
    """Shuffle blocks must have size >= 1."""


class NotAShuffle(Exception):
    pass


@dataclass(frozen=True)
class Permutation:
    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (n, self.images))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    @property
    def sign(self) -> int:
        inv = 0
        im = self.images
        for a in range(len(im)):
            for b in range(a + 1, len(im)):
                if im[a] > im[b]:
                    inv += 1
        return -1 if inv % 2 else 1


# -- shuffle kinds ---------------------------------------------------------


@dataclass(frozen=True)
class All:
    p: int
    q: int


@dataclass(frozen=True)
class FirstFixed:
    """Sh^1: shuffles with sigma(1) = 1."""

    p: int
    q: int


@dataclass(frozen=True)
class FirstIsPPlus1:
    """The complement of Sh^1 in Sh_{p,q}: the value 1 sits at position p+1."""

    p: int
    q: int


@dataclass(frozen=True)
class Triple:
    p: int
    q: int
    r: int


def _shuffle_from_first_block(p: int, q: int, block: tuple) -> Permutation:
    rest = [v for v in range(1, p + q + 1) if v not in set(block)]
    return Permutation(tuple(block) + tuple(rest))


def _two_block_shuffles(p, q, keep=None):
    n = p + q
    for block in combinations(range(1, n + 1), p):
        if keep is not None and not keep(block):
            continue
        sigma = _shuffle_from_first_block(p, q, block)
        yield sigma, sigma.sign


def enumerate_shuffles(kind):
    """All shuffles of the requested kind as (Permutation, sign) pairs.

    Deterministic lexicographic order by images; signs are inversion parity.
    """
    if isinstance(kind, (All, FirstFixed, FirstIsPPlus1)):
        p, q = kind.p, kind.q
        if p < 1 or q < 1:
            raise EmptyBlock("shuffle blocks need p,q >= 1, got (%d,%d)" % (p, q))
        if isinstance(kind, All):
            return list(_two_block_shuffles(p, q))
        if isinstance(kind, FirstFixed):
            return list(_two_block_shuffles(p, q, keep=lambda b: b[0] == 1))
        return list(_two_block_shuffles(p, q, keep=lambda b: b[0] != 1))
    if isinstance(kind, Triple):
        p, q, r = kind.p, kind.q, kind.r
        if min(p, q, r) < 1:
            raise EmptyBlock("shuffle blocks need p,q,r >= 1")
        out = []
        n = p + q + r
        for first in combinations(range(1, n + 1), p):
            rest1 = [v for v in range(1, n + 1) if v not in set(first)]
            for mid_idx in combinations(range(len(rest1)), q):
                mid = tuple(rest1[i] for i in mid_idx)
                last = tuple(v for i, v in enumerate(rest1) if i not in set(mid_idx))
                sigma = Permutation(first + mid + last)
                out.append((sigma, sigma.sign))
        out.sort(key=lambda t: t[0].images)
        return out
    raise TypeError("unknown shuffle kind: %r" % (kind,))


def is_shuffle(sigma: Permutation, blocks) -> bool:
    """Does sigma increase on each of the given consecutive blocks?"""
    pos = 1
    for size in blocks:
        vals = [sigma(k) for k in range(pos, pos + size)]
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            return False
        pos += size
    return pos - 1 == sigma.n


# -- the bijections iota, alpha, beta ---------------------------------------


def iota(sigma: Permutation, p: int, q: int) -> Permutation:
    """The bijection Sh_{p,q} -> Sh_{q,p} swapping the two blocks."""
    if sigma.n != p + q or not is_shuffle(sigma, (p, q)):
        raise NotAShuffle("expected an element of Sh_{%d,%d}" % (p, q))
    images = []
    for k in range(1, p + q + 1):
        if k <= q:
            images.append(sigma(k + p))
        else:
            images.append(sigma(k - q))
    out = Permutation(tuple(images))
    assert is_shuffle(out, (q, p))
    return out


def alpha(sigma: Permutation, gamma: Permutation, p: int, q: int, r: int) -> Permutation:
    """Sh_{p+q,r} x Sh_{p,q} -> Sh_{p,q,r}."""
    if sigma.n != p + q + r or not is_shuffle(sigma, (p + q, r)):
        raise NotAShuffle("first argument must lie in Sh_{%d,%d}" % (p + q, r))
    if gamma.n != p + q or not is_shuffle(gamma, (p, q)):
        raise NotAShuffle("second argument must lie in Sh_{%d,%d}" % (p, q))
    images = []
    for k in range(1, p + q + r + 1):
        if k <= p + q:
            images.append(sigma(gamma(k)))
        else:
            images.append(sigma(k))
    out = Permutation(tuple(images))
    if not is_shuffle(out, (p, q, r)):
        raise NotAShuffle("alpha output left Sh_{p,q,r}; inputs invalid")
    return out


def beta(sigma: Permutation, gamma: Permutation, p: int, q: int, r: int) -> Permutation:
    """Sh_{p,q+r} x Sh_{q,r} -> Sh_{p,q,r}."""
    if sigma.n != p + q + r or not is_shuffle(sigma, (p, q + r)):
        raise NotAShuffle("first argument must lie in Sh_{%d,%d}" % (p, q + r))
    if gamma.n != q + r or not is_shuffle(gamma, (q, r)):
        raise NotAShuffle("second argument must lie in Sh_{%d,%d}" % (q, r))
    images = []
    for k in range(1, p + q + r + 1):
        if k <= p:
            images.append(sigma(k))
        else:
            images.append(sigma(p + gamma(k - p)))
    out = Permutation(tuple(images))
    if not is_shuffle(out, (p, q, r)):
        raise NotAShuffle("beta output left Sh_{p,q,r}; inputs invalid")
    return out


def koszul_shuffle_sign(sigma: Permutation, degrees) -> int:
    """Sign of rearranging homogeneous factors (d_1,...,d_n) into
    (d_{sigma(1)},...,d_{sigma(n)}): product of (-1)^(d_a d_b) over the
    inversions of sigma.  Equals sigma.sign when every degree is odd.
    """
    im = sigma.images
    sign = 1
    for a in range(len(im)):
        for b in range(a + 1, len(im)):
            if im[a] > im[b] and (degrees[im[a] - 1] * degrees[im[b] - 1]) % 2:
                sign = -sign
    return sign
