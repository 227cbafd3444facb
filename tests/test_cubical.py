import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.cubical import (
    CubSet,
    QuotientIllDefined,
    _component_minima,
    cube_morphisms,
    first_face_classes,
    gamma_functor,
    gamma_functor_with_projection,
    l_functor_with_inclusion,
    precompose_delta,
    precompose_sigma,
    standard_model,
    subobject_cells,
    validate_cubical,
    verify_cubset_map,
)
from rackhom.nerves import (
    SimplicialSet,
    bar_nerve,
    group_cubical_nerve,
    lnerve_inclusion,
    rack_nerve,
    validate_simplicial,
)
from rackhom.racks import conj_rack, preset, symmetric_group

from cellref import (_UnionFind, find_isomorphism, gamma_reference, morphism_from_normal_form,
                     morphism_normal_form, unionfind_classes)


def hom_count(m, n):
    # each output is a constant or a distinct increasing variable
    return sum(comb(n, k) * comb(m, k) * 2 ** (n - k) for k in range(min(m, n) + 1))


def test_cube_morphism_counts():
    for m in range(0, 5):
        for n in range(0, 4):
            assert len(cube_morphisms(m, n)) == hom_count(m, n)


def test_cube_model_degree_counts_n1():
    c = standard_model("cube", 1, truncation=2)
    assert c.n_cells(0) == 2
    assert c.n_cells(1) == 3
    assert c.degenerate_cells(1).sum() == 2  # one nondegenerate 1-cell


def test_standard_models_validate():
    for n in range(0, 4):
        assert validate_cubical(standard_model("cube", n)) == []
    for n in range(0, 3):
        assert validate_cubical(standard_model("lcube", n, truncation=n + 1)) == []


def test_normal_form_roundtrip_and_generators():
    for m in range(0, 4):
        for n in range(0, 4):
            for f in cube_morphisms(m, n):
                sig, del_ = morphism_normal_form(f, m)
                assert list(sig) == sorted(sig)
                assert [i for i, _ in del_] == sorted(i for i, _ in del_)
                assert morphism_from_normal_form(sig, del_, m, n) == f


def test_precompose_generators_consistency():
    # d_{i,eps} then d_{j,om} vs cocubical identity, spot check via model validation
    f = (("v", 1), ("c", 0), ("v", 2))  # square_2 -> square_3
    assert precompose_delta(f, 1, 1) == (("c", 1), ("c", 0), ("v", 1))
    assert precompose_sigma(f, 1) == (("v", 2), ("c", 0), ("v", 3))


def corrupted(x, table, key, cell):
    """A copy of x with entry `cell` of x.<table>[key] moved to another cell."""
    tables = {"face": dict(x._face), "degen": dict(x._degen)}
    size = x.n_cells(key[0] - 1 if table == "face" else key[0])
    col = list(tables[table][key])
    col[cell] = (col[cell] + 1) % size
    tables[table][key] = tuple(col)
    if isinstance(x, SimplicialSet):
        return SimplicialSet(x.max_degree, x.labels, tables["face"], tables["degen"])
    return CubSet(x.max_degree, x.labels, tables["face"], tables["degen"], is_lset=x.is_lset)


def nondegenerate(x, n):
    return int(np.flatnonzero(~x.degenerate_cells(n))[0])


def reported_cells(report):
    return {(n, lbl) for n, lbl, _ in report}


def test_mutation_is_detected():
    """One corrupted table entry of a nondegenerate cell is reported, and
    every violation names that cell."""
    c = standard_model("cube", 2, truncation=2)
    assert validate_cubical(c) == []
    top = nondegenerate(c, 2)
    report = validate_cubical(corrupted(c, "face", (2, 1, 0), top))
    assert report and reported_cells(report) == {(2, c.label(2, top))}
    assert all(desc.startswith("d_") for _, _, desc in report)
    # s_1 of a nondegenerate edge: its faces no longer match
    edge = nondegenerate(c, 1)
    report = validate_cubical(corrupted(c, "degen", (2, 1), edge))
    assert report and reported_cells(report) == {(1, c.label(1, edge))}
    assert all(desc.endswith("s_1 violation") for _, _, desc in report)
    # the two first faces of an L-set cell
    r = rack_nerve(conj_rack(preset("cyclic:3")), 2)
    cell = nondegenerate(r, 2)
    report = validate_cubical(corrupted(r, "face", (2, 1, 0), cell))
    assert reported_cells(report) == {(2, r.label(2, cell))}
    assert (2, r.label(2, cell), "is_lset but d_1,0 != d_1,1") in report
    # a bar-nerve face
    b = bar_nerve(symmetric_group(3), 3)
    cell = nondegenerate(b, 3)
    report = validate_simplicial(corrupted(b, "face", (3, 1), cell))
    assert report and reported_cells(report) == {(3, b.label(3, cell))}


def reference_cubical(x):
    """validate_cubical one cell at a time through x.face and x.degen."""
    N, ff, ss, ds, eq = x.max_degree, [], [], [], []
    for n in range(2, N + 1):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                for eps in (0, 1):
                    for om in (0, 1):
                        ff += [(n, x.label(n, c), "d_%d,%d d_%d,%d != d_%d,%d d_%d,%d"
                                % (i, eps, k, om, k - 1, om, i, eps))
                               for c in range(x.n_cells(n))
                               if x.face(n - 1, i, eps, x.face(n, k, om, c))
                               != x.face(n - 1, k - 1, om, x.face(n, i, eps, c))]
    for n in range(1, N):
        for i in range(1, n + 2):
            for k in range(i, n + 1):
                ss += [(n - 1, x.label(n - 1, c), "s_%d s_%d != s_%d s_%d" % (i, k, k + 1, i))
                       for c in range(x.n_cells(n - 1))
                       if x.degen(n + 1, i, x.degen(n, k, c)) != x.degen(n + 1, k + 1, x.degen(n, i, c))]
    for n in range(1, N + 1):
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                for eps in (0, 1):
                    for c in range(x.n_cells(n - 1)):
                        want = c if i == k else \
                            x.degen(n - 1, i, x.face(n - 1, k - 1, eps, c)) if i < k else \
                            x.degen(n - 1, i - 1, x.face(n - 1, k, eps, c))
                        if x.face(n, k, eps, x.degen(n, i, c)) != want:
                            ds.append((n - 1, x.label(n - 1, c), "d_%d,%d s_%d violation" % (k, eps, i)))
    if x.is_lset:
        eq += [(0, None, "is_lset but |X_0| != 1")] if x.n_cells(0) != 1 else []
        eq += [(n, x.label(n, c), "is_lset but d_1,0 != d_1,1") for n in range(1, N + 1)
               for c in range(x.n_cells(n)) if x.face(n, 1, 0, c) != x.face(n, 1, 1, c)]
    return ff + ss + ds + eq


def reference_simplicial(x):
    """validate_simplicial one cell at a time through x.face and x.degen."""
    N, ff, ss, ds = x.max_degree, [], [], []
    for n in range(2, N + 1):
        for i in range(0, n + 1):
            for k in range(i + 1, n + 1):
                ff += [(n, x.label(n, c), "d_%d d_%d" % (i, k)) for c in range(x.n_cells(n))
                       if x.face(n - 1, i, x.face(n, k, c)) != x.face(n - 1, k - 1, x.face(n, i, c))]
    for n in range(1, N):
        for a in range(1, n + 2):
            for b in range(a, n + 1):
                ss += [(n - 1, x.label(n - 1, c), "s_%d s_%d" % (a, b)) for c in range(x.n_cells(n - 1))
                       if x.degen(n + 1, a, x.degen(n, b, c)) != x.degen(n + 1, b + 1, x.degen(n, a, c))]
    for n in range(1, N + 1):
        for j in range(1, n + 1):
            for i in range(0, n + 1):
                for c in range(x.n_cells(n - 1)):
                    want = c if i in (j - 1, j) else \
                        x.degen(n - 1, j - 1, x.face(n - 1, i, c)) if i <= j - 2 else \
                        x.degen(n - 1, j, x.face(n - 1, i - 1, c))
                    if x.face(n, i, x.degen(n, j, c)) != want:
                        ds.append((n - 1, x.label(n - 1, c), "d_%d s_%d" % (i, j)))
    return ff + ss + ds


@pytest.mark.parametrize("name", ["cube 3", "lcube 2", "group nerve cyclic:2", "rack nerve conj:quaternion:8",
                                  "bar nerve symmetric:3"])
def test_validators_match_cell_by_cell_reference(name):
    """Same violation list, in the same order, as the per-cell reference, on
    pristine tables and on corruptions of one face entry (for L-sets, at
    times a first face), one degeneracy entry, or one of each."""
    x = {"cube 3": lambda: standard_model("cube", 3),
         "lcube 2": lambda: standard_model("lcube", 2, truncation=3),
         "group nerve cyclic:2": lambda: group_cubical_nerve(preset("cyclic:2"), 3),
         "rack nerve conj:quaternion:8": lambda: rack_nerve(preset("conj:quaternion:8"), 3),
         "bar nerve symmetric:3": lambda: bar_nerve(symmetric_group(3), 3)}[name]()
    validate, reference = (validate_simplicial, reference_simplicial) \
        if isinstance(x, SimplicialSet) else (validate_cubical, reference_cubical)
    assert validate(x) == reference(x) == []
    rng = random.Random(name)
    for trial in range(12):
        y = x
        for table in [("face",), ("degen",), ("face", "degen")][trial % 3]:
            keys = sorted(getattr(y, "_" + table))
            if table == "face" and trial % 2 and getattr(y, "is_lset", False):
                keys = [k for k in keys if k[1:] == (1, 0)]
            key = rng.choice(keys)
            y = corrupted(y, table, key, rng.randrange(len(getattr(y, "_" + table)[key])))
        assert validate(y) == reference(y)


def test_verify_cubset_map_rejects_a_wrong_entry():
    g = preset("cyclic:3")
    rn = rack_nerve(conj_rack(g), 2)
    x = group_cubical_nerve(g, 2)
    lx, incl = l_functor_with_inclusion(x)
    maps = subobject_cells(incl, lnerve_inclusion(g, x))
    assert verify_cubset_map(rn, lx, maps)
    # not a bijection
    broken = [list(m) for m in maps]
    broken[2][1] = broken[2][0]
    assert not verify_cubset_map(rn, lx, broken)
    # a bijection that no longer commutes with the faces: (1, 1) and (1, 2)
    # are nondegenerate, so only the face tables can tell them apart
    broken = [list(m) for m in maps]
    broken[2][4], broken[2][5] = broken[2][5], broken[2][4]
    assert not verify_cubset_map(rn, lx, broken)


def test_rack_nerve_is_valid_to_degree_3():
    r = conj_rack(symmetric_group(3))
    nerve = rack_nerve(r, 3)
    assert validate_cubical(nerve) == []
    assert nerve.is_lset


def test_lcube_1_cell_counts():
    l1 = standard_model("lcube", 1, truncation=2)
    assert l1.n_cells(0) == 1
    assert l1.n_cells(1) == 2
    assert l1.n_cells(2) == 3
    assert l1.degenerate_cells(1).sum() == 1
    assert l1.degenerate_cells(2).sum() == 3  # everything above degree 1 is degenerate


def test_lcube_0_is_point():
    l0 = standard_model("lcube", 0, truncation=2)
    assert l0.sizes == (1, 1, 1)


def test_gamma_of_cube1_equals_lcube1():
    got = gamma_functor(standard_model("cube", 1, truncation=3))
    want = standard_model("lcube", 1, truncation=2)
    assert got.sizes == want.sizes
    iso = find_isomorphism(got, want)
    assert iso is not None


def test_l_functor_is_idempotent():
    x = group_cubical_nerve(preset("cyclic:2"), 3)
    lx = l_functor_with_inclusion(x)[0]
    llx = l_functor_with_inclusion(lx)[0]
    assert llx.sizes == lx.sizes
    assert verify_cubset_map(lx, llx, [list(range(k)) for k in lx.sizes])


def test_l_functor_of_group_nerve_counts():
    x = group_cubical_nerve(preset("cyclic:2"), 3)
    lx = l_functor_with_inclusion(x)[0]
    assert [lx.n_cells(n) for n in range(4)] == [1, 2, 4, 8]


def test_l_functor_fixes_lsets():
    r = conj_rack(preset("cyclic:3"))
    nerve = rack_nerve(r, 3)
    ln = l_functor_with_inclusion(nerve)[0]
    assert ln.sizes == nerve.sizes
    assert verify_cubset_map(nerve, ln, [list(range(k)) for k in nerve.sizes])


def test_gamma_is_idempotent():
    x = group_cubical_nerve(preset("cyclic:2"), 3)
    g1 = gamma_functor(x)          # degrees <= 2
    g2 = gamma_functor(g1)         # degrees <= 1
    iso = find_isomorphism(g2, g1, up_to=1)
    assert iso is not None


def test_gamma_l_interchange():
    x = group_cubical_nerve(preset("cyclic:2"), 3)
    lx = l_functor_with_inclusion(x)[0]
    # Gamma(LX) iso LX (in the available truncation)
    glx = gamma_functor(lx)
    assert find_isomorphism(glx, lx, up_to=lx.max_degree - 1) is not None
    # L(Gamma X) iso Gamma X
    gx = gamma_functor(x)
    lgx = l_functor_with_inclusion(gx)[0]
    assert lgx.sizes == gx.sizes
    assert verify_cubset_map(gx, lgx, [list(range(k)) for k in gx.sizes])


def test_inclusion_and_projection_commute_with_structure():
    x = group_cubical_nerve(preset("cyclic:3"), 3)
    lx, inc = l_functor_with_inclusion(x)
    assert [cells.tolist() for cells in inc] == [
        [x.index(n, lx.label(n, c)) for c in range(lx.n_cells(n))]
        for n in range(lx.max_degree + 1)]
    for n in range(1, lx.max_degree + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                for c in range(lx.n_cells(n)):
                    assert inc[n - 1][lx.face(n, i, eps, c)] == x.face(n, i, eps, inc[n][c])
            for c in range(lx.n_cells(n - 1)):
                assert inc[n][lx.degen(n, i, c)] == x.degen(n, i, inc[n - 1][c])
    gx, proj = gamma_functor_with_projection(x)
    # the first cell of each class is its representative, whose label it takes
    for n in range(gx.max_degree + 1):
        firsts = [proj[n].tolist().index(k) for k in range(gx.n_cells(n))]
        assert [x.label(n, c) for c in firsts] == list(gx.labels[n])
    for n in range(1, gx.max_degree + 1):
        for i in range(1, n + 1):
            for eps in (0, 1):
                for c in range(x.n_cells(n)):
                    assert proj[n - 1][x.face(n, i, eps, c)] == gx.face(n, i, eps, proj[n][c])
            for c in range(x.n_cells(n - 1)):
                assert proj[n][x.degen(n, i, c)] == gx.degen(n, i, proj[n - 1][c])


@pytest.mark.parametrize("make", [
    lambda: group_cubical_nerve(preset("cyclic:2"), 3),
    lambda: group_cubical_nerve(preset("symmetric:3"), 2),
    lambda: standard_model("cube", 2, truncation=3),
    lambda: rack_nerve(conj_rack(preset("cyclic:3")), 3),
], ids=["nerve cyclic:2", "nerve symmetric:3", "cube 2", "rack nerve cyclic:3"])
def test_gamma_matches_per_cell_reference(make):
    x = make()
    gx, proj = gamma_functor_with_projection(x)
    labels, face, degen, want_proj = gamma_reference(x)
    assert [list(lbls) for lbls in gx.labels] == [list(lbls) for lbls in labels]
    assert {k: t.tolist() for k, t in gx._face.items()} == {k: list(t) for k, t in face.items()}
    assert {k: t.tolist() for k, t in gx._degen.items()} == {k: list(t) for k, t in degen.items()}
    assert [p.tolist() for p in proj] == [list(p) for p in want_proj]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 40).flatmap(lambda size: st.tuples(
    st.just(size), st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                            max_size=60))))
def test_component_minima_are_union_find_roots(graph):
    size, edges = graph
    u = _UnionFind(size)
    for a, b in edges:
        u.union(a, b)
    a, b = (np.array(ends, dtype=np.int32).reshape(-1) for ends in zip(*edges)) \
        if edges else (np.zeros(0, dtype=np.int32),) * 2
    assert _component_minima(size, a, b).tolist() == [u.find(c) for c in range(size)]


def _gamma_outcome(fn, x):
    """(labels, face tables, degeneracy tables, projection) as lists, or the
    message and witnesses of the QuotientIllDefined raised."""
    try:
        out = fn(x)
    except QuotientIllDefined as exc:
        return str(exc), exc.witnesses
    if isinstance(out, tuple) and len(out) == 2:  # gamma_functor_with_projection
        gx, proj = out
        return ([list(lbls) for lbls in gx.labels],
                {k: t.tolist() for k, t in gx._face.items()},
                {k: t.tolist() for k, t in gx._degen.items()}, [p.tolist() for p in proj])
    labels, face, degen, proj = out
    return ([list(lbls) for lbls in labels], {k: list(t) for k, t in face.items()},
            {k: list(t) for k, t in degen.items()}, [list(p) for p in proj])


@pytest.mark.parametrize("make", [
    lambda: group_cubical_nerve(preset("cyclic:2"), 3),
    lambda: group_cubical_nerve(preset("cyclic:3"), 2),
    lambda: standard_model("cube", 2, truncation=3),
    lambda: rack_nerve(conj_rack(preset("cyclic:3")), 3),
    lambda: rack_nerve(conj_rack(preset("quaternion:8")), 2),
], ids=["nerve cyclic:2", "nerve cyclic:3", "cube 2", "rack nerve cyclic:3",
        "rack nerve quaternion:8"])
def test_gamma_projection_equals_union_find(make):
    """The array component search gives the union-find's classes, on the
    pristine object and with one first face moved to another cell; the
    whole functor then agrees with the per-cell reference, failures
    included."""
    x = make()
    _, proj = gamma_functor_with_projection(x)
    assert [p.tolist() for p in proj] == \
        [unionfind_classes(x, n).tolist() for n in range(x.max_degree)]
    rng = random.Random(repr(x.sizes))
    for n in range(x.max_degree):
        for _ in range(3):
            y = corrupted(x, "face", (n + 1, 1, 0), rng.randrange(x.n_cells(n + 1)))
            assert first_face_classes(y, n).tolist() == unionfind_classes(y, n).tolist()
            assert _gamma_outcome(gamma_functor_with_projection, y) == \
                _gamma_outcome(gamma_reference, y)


def test_lset_flag_iff_fixed_by_both_functors():
    # rack nerves are fixed points of both functors; the group cubical nerve
    # of a nontrivial group is fixed by neither
    r = conj_rack(preset("cyclic:3"))
    nerve = rack_nerve(r, 3)
    assert nerve.is_lset
    lx = l_functor_with_inclusion(nerve)[0]
    assert lx.sizes == nerve.sizes
    gx = gamma_functor(nerve)
    assert gx.sizes == nerve.sizes[:-1]
    assert find_isomorphism(gx, nerve, up_to=gx.max_degree) is not None
    x = group_cubical_nerve(preset("cyclic:2"), 3)
    assert not x.is_lset
    assert l_functor_with_inclusion(x)[0].sizes != x.sizes
    assert gamma_functor(x).sizes != x.sizes[:-1]


def test_quotient_ill_defined_fires_on_garbage():
    # two 0-cells a,b; one relation from a 1-cell pair; an incompatible face
    labels = [["a", "b", "c"], ["y", "z"], ["w"]]
    face = {
        (1, 1, 0): (0, 2),  # d10 y = a, d10 z = c
        (1, 1, 1): (1, 2),  # d11 y = b  (so a ~ b), d11 z = c
        (2, 1, 0): (0,),    # d10 w = y
        (2, 1, 1): (1,),    # d11 w = z  (so y ~ z, but faces of y,z disagree)
        (2, 2, 0): (0,),
        (2, 2, 1): (0,),
    }
    degen = {
        (1, 1): (0, 1, 1),
        (2, 1): (0, 0),
        (2, 2): (0, 0),
    }
    x = CubSet(2, labels, face, degen)
    with pytest.raises(QuotientIllDefined) as exc:
        gamma_functor(x)
    assert exc.value.witnesses


def test_truncation_below_n_warns():
    import warnings

    with pytest.warns(UserWarning):
        standard_model("cube", 3, truncation=2)
