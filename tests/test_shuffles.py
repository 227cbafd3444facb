from itertools import permutations
from math import comb

import pytest

from rackhom.shuffles import (
    All,
    EmptyBlock,
    FirstFixed,
    FirstIsPPlus1,
    NotAShuffle,
    Permutation,
    Triple,
    alpha,
    beta,
    enumerate_shuffles,
    iota,
    is_shuffle,
    koszul_shuffle_sign,
)

from cellref import identity_perm


def brute_force_shuffles(blocks):
    """Oracle: filter the full symmetric group by block monotonicity."""
    n = sum(blocks)
    out = []
    for images in permutations(range(1, n + 1)):
        sigma = Permutation(images)
        if is_shuffle(sigma, blocks):
            out.append(sigma)
    return out


def test_smallest_case():
    got = enumerate_shuffles(All(1, 1))
    assert [(s.images, sign) for s, sign in got] == [((1, 2), 1), ((2, 1), -1)]


def test_counts_match_binomials():
    for p in range(1, 5):
        for q in range(1, 5):
            if p + q > 8:
                continue
            assert len(enumerate_shuffles(All(p, q))) == comb(p + q, p)


def test_counts_against_brute_force():
    for p in range(1, 4):
        for q in range(1, 4):
            if p + q > 6:
                continue
            got = [s.images for s, _ in enumerate_shuffles(All(p, q))]
            want = sorted(s.images for s in brute_force_shuffles((p, q)))
            assert got == want


def test_first_fixed_counts():
    assert len(enumerate_shuffles(FirstFixed(2, 1))) == 2
    assert len(enumerate_shuffles(FirstFixed(1, 2))) == 1


def test_partition_of_shuffle_set():
    for p in range(1, 5):
        for q in range(1, 5):
            if p + q > 8:
                continue
            full = {s.images for s, _ in enumerate_shuffles(All(p, q))}
            one = {s.images for s, _ in enumerate_shuffles(FirstFixed(p, q))}
            other = {s.images for s, _ in enumerate_shuffles(FirstIsPPlus1(p, q))}
            assert one | other == full
            assert not (one & other)
            # value 1 at position 1 vs at position p+1
            assert all(im[0] == 1 for im in one)
            assert all(im[p] == 1 for im in other)


def test_signs_are_inversion_parity():
    for sigma, sign in enumerate_shuffles(All(2, 2)):
        assert sign == sigma.sign


def test_empty_block_rejected():
    with pytest.raises(EmptyBlock):
        enumerate_shuffles(All(0, 2))
    with pytest.raises(EmptyBlock):
        enumerate_shuffles(Triple(1, 0, 1))


def test_iota_on_sh11():
    # piecewise formula: iota(id) is the transposition
    assert iota(identity_perm(2), 1, 1).images == (2, 1)


def test_iota_is_bijection():
    for p in range(1, 5):
        for q in range(1, 5):
            if p + q > 8:
                continue
            src = [s for s, _ in enumerate_shuffles(All(p, q))]
            tgt = {s.images for s, _ in enumerate_shuffles(All(q, p))}
            images = {iota(s, p, q).images for s in src}
            assert images == tgt


def test_iota_rejects_non_shuffle():
    with pytest.raises(NotAShuffle):
        iota(Permutation((2, 1, 3)), 2, 1)


def test_alpha_identity_inputs():
    out = alpha(identity_perm(3), identity_perm(2), 1, 1, 1)
    assert out.images == (1, 2, 3)


def test_alpha_beta_are_bijections():
    for p, q, r in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1),
                    (1, 2, 2), (2, 1, 2), (3, 2, 2), (1, 3, 3)]:
        if p + q + r > 7:
            continue
        triple = {s.images for s, _ in enumerate_shuffles(Triple(p, q, r))}
        via_alpha = set()
        for s, _ in enumerate_shuffles(All(p + q, r)):
            for g, _ in enumerate_shuffles(All(p, q)):
                via_alpha.add(alpha(s, g, p, q, r).images)
        via_beta = set()
        for s, _ in enumerate_shuffles(All(p, q + r)):
            for g, _ in enumerate_shuffles(All(q, r)):
                via_beta.add(beta(s, g, p, q, r).images)
        assert via_alpha == triple
        assert via_beta == triple
        # injectivity: domain and image sizes match
        assert len(triple) == len(enumerate_shuffles(All(p + q, r))) * len(enumerate_shuffles(All(p, q)))
        assert len(triple) == len(enumerate_shuffles(All(p, q + r))) * len(enumerate_shuffles(All(q, r)))


def test_triple_count_is_multinomial():
    from math import factorial

    for p, q, r in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 3)]:
        n = p + q + r
        want = factorial(n) // (factorial(p) * factorial(q) * factorial(r))
        assert len(enumerate_shuffles(Triple(p, q, r))) == want


def test_koszul_sign_reduces_to_parity_for_odd_degrees():
    for sigma, sign in enumerate_shuffles(All(2, 2)):
        assert koszul_shuffle_sign(sigma, [1, 1, 1, 1]) == sign
        assert koszul_shuffle_sign(sigma, [2, 2, 2, 2]) == 1
