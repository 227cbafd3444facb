import tracemalloc
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.chains import _boundary_keys, _coprime_stride, _stream_block
from rackhom.cubical import (
    l_functor_with_inclusion,
    subobject_cells,
    validate_cubical,
    verify_cubset_map,
)
from rackhom.nerves import (
    BudgetExceeded,
    GroupArith,
    Words,
    bar_nerve,
    cell_digits,
    cell_numbers,
    group_cubical_nerve,
    lnerve_inclusion,
    rack_nerve,
    validate_simplicial,
)
from rackhom.racks import FiniteGroup, conj_rack, preset, symmetric_group, trivial_rack

from cellref import lnerve_inclusion_labels, lnerve_inclusion_reference, stored_nerve


def test_trivial_group_nerve_sizes():
    g = preset("cyclic:1")
    x = group_cubical_nerve(g, 3)
    assert x.sizes == (1, 1, 1, 1)


def test_z2_cubical_nerve_counts():
    g = preset("cyclic:2")
    x = group_cubical_nerve(g, 3)
    assert [x.n_cells(n) for n in range(4)] == [1, 2, 8, 128]
    assert validate_cubical(x) == []


def brute_force_functor_count(g, n):
    """Oracle: count edge labelings of the n-cube poset with commuting squares.

    Edges A -> A|{i}; squares A -> A|{i} -> A|{i,j} must commute.
    """
    masks = list(range(2 ** n))
    edges = []
    for m in masks:
        for i in range(n):
            if not (m >> i) & 1:
                edges.append((m, i))
    count = 0
    for assignment in product(range(g.order), repeat=len(edges)):
        lab = {e: v for e, v in zip(edges, assignment)}
        ok = True
        for m in masks:
            for i in range(n):
                if (m >> i) & 1:
                    continue
                for j in range(i + 1, n):
                    if (m >> j) & 1:
                        continue
                    a = g.mul[lab[(m, i)]][lab[(m | (1 << i), j)]]
                    b = g.mul[lab[(m, j)]][lab[(m | (1 << j), i)]]
                    if a != b:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_vertex_labeling_encoding_matches_brute_force():
    z2 = preset("cyclic:2")
    for n in range(0, 4):
        assert brute_force_functor_count(z2, n) == z2.order ** (2 ** n - 1)
    z3 = preset("cyclic:3")
    for n in range(0, 3):
        assert brute_force_functor_count(z3, n) == z3.order ** (2 ** n - 1)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded) as exc:
        group_cubical_nerve(symmetric_group(3), 4, budget=10_000)
    assert exc.value.degree <= 4


def test_int32_cell_limit_holds_above_any_budget():
    """6^12 > 2^31 - 1 cells would overflow the int32 tables: refused before
    any table is built, whatever the budget."""
    with pytest.raises(BudgetExceeded) as exc:
        rack_nerve(preset("conj:symmetric:3"), 13, budget=10 ** 12)
    assert exc.value.degree == 12


def test_bar_faces_and_degeneracies():
    g = symmetric_group(3)
    x = bar_nerve(g, 3)
    a, b = 1, 4
    idx = x.index(2, (g.elements[a], g.elements[b]))
    assert x.label(1, x.face(2, 1, idx)) == (g.elements[g.mul[a][b]],)
    assert x.label(1, x.face(2, 0, idx)) == (g.elements[b],)
    assert x.label(1, x.face(2, 2, idx)) == (g.elements[a],)
    gidx = x.index(1, (g.elements[a],))
    assert x.label(2, x.degen(2, 1, gidx)) == (g.elements[g.unit], g.elements[a])
    assert x.label(2, x.degen(2, 2, gidx)) == (g.elements[a], g.elements[g.unit])
    assert validate_simplicial(x) == []


def test_rack_nerve_faces():
    g = symmetric_group(3)
    r = conj_rack(g)
    x = rack_nerve(r, 3)
    a, b = 1, 4
    idx = x.index(2, (r.elements[a], r.elements[b]))
    assert x.label(1, x.face(2, 2, 1, idx)) == (r.elements[r.op[a][b]],)
    assert x.label(1, x.face(2, 2, 0, idx)) == (r.elements[a],)
    assert x.label(1, x.face(2, 1, 0, idx)) == (r.elements[b],)
    assert x.label(1, x.face(2, 1, 1, idx)) == (r.elements[b],)


def test_trivial_rack_nerve_faces_agree():
    r = trivial_rack(3)
    x = rack_nerve(r, 3)
    for n in range(1, 4):
        for i in range(1, n + 1):
            assert np.array_equal(x._face[(n, i, 0)], x._face[(n, i, 1)])


def test_rack_nerve_degenerate_cells_are_tuples_with_e():
    r = conj_rack(symmetric_group(3))
    x = rack_nerve(r, 3)
    for n in range(1, 4):
        degen = x.degenerate_cells(n)
        for c in range(x.n_cells(n)):
            has_e = r.elements[r.basepoint] in x.label(n, c)
            assert degen[c] == has_e


def test_lnerve_isomorphism_explicit_bijection():
    """rack_nerve(conj G) == L(cubical nerve of G) via the explicit
    product-labeling bijection, checked cell-by-cell."""
    for name, depth in (("cyclic:2", 3), ("cyclic:3", 2), ("symmetric:3", 2)):
        g = preset(name)
        r = conj_rack(g)
        x = group_cubical_nerve(g, depth, budget=10 ** 7)
        lx, incl = l_functor_with_inclusion(x)
        rn = rack_nerve(r, depth)
        maps = []
        for n in range(depth + 1):
            col = []
            for c in range(rn.n_cells(n)):
                tup = tuple(g.elements.index(e) for e in rn.label(n, c))
                v = lnerve_inclusion_labels(g, tup)
                lbl = tuple(g.elements[a] for a in v)
                col.append(lx.index(n, lbl))
            maps.append(col)
        assert verify_cubset_map(rn, lx, maps)
        assert subobject_cells(incl, lnerve_inclusion(g, x)) == maps


@pytest.mark.parametrize("name,depth", [("cyclic:2", 4), ("symmetric:3", 2), ("quaternion:8", 2)])
def test_lnerve_inclusion_matches_label_reference(name, depth):
    g = preset(name)
    x = group_cubical_nerve(g, depth, budget=10 ** 7)
    assert [m.tolist() for m in lnerve_inclusion(g, x)] == lnerve_inclusion_reference(g, x)


def test_subobject_cells_rejects_a_cell_outside():
    x = group_cubical_nerve(preset("cyclic:3"), 2)
    _, incl = l_functor_with_inclusion(x)
    outside = [c for c in range(x.n_cells(2)) if c not in incl[2]][0]
    assert subobject_cells(incl, incl) == [list(range(len(cells))) for cells in incl]
    assert subobject_cells(incl, [incl[0], incl[1], [incl[2][0], outside]]) is None
    assert subobject_cells(incl, [incl[0], incl[1], [x.n_cells(2)]]) is None


def test_lnerve_iso_z2_degree3_counts():
    g = preset("cyclic:2")
    lx = l_functor_with_inclusion(group_cubical_nerve(g, 3))[0]
    rn = rack_nerve(conj_rack(g), 3)
    assert lx.sizes == rn.sizes == (1, 2, 4, 8)


def relabelled_s3():
    """S3 with its element indices reversed, so the unit is not index 0."""
    g = symmetric_group(3)
    r = list(range(g.order))[::-1]
    return FiniteGroup([g.elements[r[a]] for a in range(g.order)],
                       [[r[g.mul[r[a]][r[b]]] for b in range(g.order)] for a in range(g.order)],
                       r[g.unit])


GROUP_NAMES = ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:2x2", "dihedral:3",
               "dihedral:4", "symmetric:3", "quaternion:8", "symmetric:3 relabelled")


def reference_face(g, v, i, eps):
    """d_{i,eps} of a vertex labeling (v[m-1] = v(m)) in plain Python: the
    masks with bit i equal to eps, renormalized by the new origin."""
    vert = [g.unit] + list(v)
    masks = [m for m in range(len(vert)) if (m >> (i - 1)) & 1 == eps]
    oi = g.inv[vert[masks[0]]]
    return tuple(g.mul[oi][vert[m]] for m in masks[1:])


def reference_degenerate(g, v):
    """A labeling is degenerate iff it does not depend on some coordinate."""
    vert = [g.unit] + list(v)
    return any(all(vert[m] == vert[m & ~bit] for m in range(len(vert)) if m & bit)
               for bit in (1 << k for k in range(len(vert).bit_length() - 1)))


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_group_kernel_and_stream_match_materialised_nerve(name):
    """Cell by cell, in every degree of at most 4096 cells: the kernel's
    face numbers and degeneracy flags on digit rows, and the stream's own
    decoding of its strided cell numbers, agree with the materialised
    nerve, whose tables agree with a plain-Python reference."""
    g = relabelled_s3() if name == "symmetric:3 relabelled" else preset(name)
    arith = GroupArith(g)
    n = 1
    while n <= 4 and g.order ** (2 ** n - 1) <= 4096:
        w = 2 ** n - 1
        x = group_cubical_nerve(g, n)
        degen = x.degenerate_cells(n)
        cells = range(x.n_cells(n))
        rows = cell_digits(cells, g.order, w)
        words = [tuple(r) for r in rows.tolist()]
        assert [x.label(n, c) for c in cells] == [tuple(g.elements[a] for a in t) for t in words]
        assert cell_numbers(rows, g.order).tolist() == list(cells)
        zero_faces = [arith.face(rows, i, 0) for i in range(1, n + 1)]
        assert arith.degenerate(rows, zero_faces).tolist() == degen.tolist() \
            == [reference_degenerate(g, t) for t in words]
        for i in range(1, n + 1):
            for eps in (0, 1):
                want = [x.face(n, i, eps, c) for c in cells]
                assert cell_numbers(arith.face(rows, i, eps), g.order).tolist() == want
                assert [x.label(n - 1, c) for c in want] == [
                    tuple(g.elements[a] for a in reference_face(g, t, i, eps)) for t in words]
        # the stream visits k = j * stride mod M; cell k labels vertex m by
        # the (m-1)th base-|G| digit of k, least significant first
        M = g.order ** w
        ks = [j * _coprime_stride(M) % M for j in range(min(M, 700))]
        cs = [x.index(n, tuple(g.elements[k // g.order ** m % g.order] for m in range(w)))
              for k in ks]
        faces, flags = _stream_block(arith, g.order, n, ks)
        assert flags.tolist() == degen[cs].tolist()
        keys = _boundary_keys(n, True)
        assert sorted(keys) == [(i, eps) for i in range(1, n + 1) for eps in (0, 1)]
        assert len(faces) == len(keys)
        for nums, (i, eps) in zip(faces, keys):
            assert nums.tolist() == [x.face(n, i, eps, c) for c in cs]
        n += 1


# -- storage: int32 tables, labels decoded on demand ---------------------------

STORED = {  # name -> (kind, preset, max degree)
    "group cyclic:2": ("group", "cyclic:2", 4),
    "group cyclic:3": ("group", "cyclic:3", 2),
    "group symmetric:3": ("group", "symmetric:3", 2),
    "group quaternion:8": ("group", "quaternion:8", 2),
    "rack conj:symmetric:3": ("rack", "conj:symmetric:3", 3),
    "rack conj:quaternion:8": ("rack", "conj:quaternion:8", 3),
    "rack conj:dihedral:4": ("rack", "conj:dihedral:4", 3),
    "rack trivial_rack:3": ("rack", "trivial_rack:3", 3),
    "bar symmetric:3": ("bar", "symmetric:3", 3),
    "bar cyclic:4": ("bar", "cyclic:4", 3),
}
BUILDERS = {"group": group_cubical_nerve, "rack": rack_nerve, "bar": bar_nerve}


@pytest.mark.parametrize("name", sorted(STORED))
def test_nerve_storage_matches_label_lists_and_tuple_tables(name):
    """Every label decoded on demand equals the stored product word, index
    finds it back, and every int32 table equals the tuple table entry by
    entry."""
    kind, preset_name, depth = STORED[name]
    obj = preset(preset_name)
    x = BUILDERS[kind](obj, depth)
    labels, faces, degens = stored_nerve(kind, obj, depth)
    for n in range(depth + 1):
        assert [x.label(n, c) for c in range(x.n_cells(n))] == list(x.labels[n]) == labels[n]
        assert [x.index(n, lbl) for lbl in labels[n]] == list(range(len(labels[n])))
    for got, want in ((x._face, faces), (x._degen, degens)):
        assert sorted(got) == sorted(want)
        for key, table in want.items():
            assert got[key].dtype == np.int32
            assert got[key].tolist() == list(table)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 5), st.data())
def test_words_index_and_label_round_trip(order, width, data):
    elements = [("g", a) for a in range(order)]
    words = Words(elements, width)
    assert len(words) == order ** width
    k = data.draw(st.integers(0, len(words) - 1))
    assert words.index(words[k]) == k
    assert words[k] == next(islice(product(elements, repeat=width), k, None))
    assert words[k - len(words)] == words[k]
    word = tuple(data.draw(st.lists(st.sampled_from(elements), min_size=width,
                                    max_size=width)))
    assert words[words.index(word)] == word
    with pytest.raises(IndexError):
        words[len(words)]
    with pytest.raises(ValueError):
        words.index(word + (elements[0],))
    if width:  # a word with an element from elsewhere
        with pytest.raises(ValueError):
            words.index((("h", 0),) + word[1:])


def test_group_nerve_memory_bound():
    """The traced peak of building the 32768-cell degree-4 nerve of Z/2 (it
    counts numpy buffers, so it does not depend on the machine): int32
    tables and no stored labels keep it under 3 MiB, where label tuples and
    tuple tables took 8.9 MiB."""
    g = preset("cyclic:2")
    group_cubical_nerve(g, 2)  # first-call imports and caches
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        x = group_cubical_nerve(g, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert x.n_cells(4) == 32768
    assert peak < 3 * 2 ** 20
