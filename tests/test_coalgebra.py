import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.chains import build_complex, homology, verify_chain_map, verify_homotopy
from rackhom.coalgebra import (
    LAWS,
    PRODUCT_LAWS,
    GradedCoalgebra,
    MissingStructure,
    NotAbelian,
    NotLSet,
    _complement_projection,
    antisymmetrization_compare,
    bar_aw_coproduct,
    bar_shuffle_product,
    check_laws,
    compose_with_tau,
    coproduct_homotopy,
    cubical_coproduct,
    delta_halves,
    graded_coalgebra_from_chain_maps,
    half_shuffle_model,
    induced_coproduct_components,
    induced_on_homology,
    primitive_analysis,
    rack_half_coproduct_formula,
)
from rackhom.exactfield import QQ, FieldTag, Matrix, column_space_analysis
from rackhom.nerves import bar_nerve, group_cubical_nerve, rack_nerve
from rackhom.racks import conj_rack, preset, symmetric_group

from cellref import (
    antisymmetrization_reference,
    bar_aw_coproduct_reference,
    bar_shuffle_product_reference,
    check_laws_reference,
    complement_projection_reference,
    coproduct_reference,
    induced_coproduct_reference,
)


def rack_complex(name, depth):
    return build_complex(rack_nerve(preset(name), depth), QQ)


def test_degree0_coproduct_is_diagonal():
    c = rack_complex("conj:cyclic:2", 2)
    full = cubical_coproduct(c)
    assert full.mat(0).column(0) == {0: Fraction(1)}


def test_degree1_coproduct_edge_terms():
    c = rack_complex("conj:cyclic:3", 2)
    full = cubical_coproduct(c)
    t = full.target
    # Delta(g) = g (x) pt + pt (x) g  (reduced part empty in degree 1)
    for k in range(c.dim(1)):
        col = full.mat(1).column(k)
        want = {t.index(1, (1, 0), k, 0): Fraction(1),
                t.index(1, (0, 1), 0, k): Fraction(1)}
        assert col == want


def test_full_coproduct_is_chain_map():
    for mk in (lambda: rack_complex("conj:symmetric:3", 4),
               lambda: build_complex(group_cubical_nerve(preset("cyclic:2"), 3), QQ)):
        c = mk()
        assert verify_chain_map(cubical_coproduct(c)) == []


def test_halves_are_chain_maps_and_sum_to_full():
    c = rack_complex("conj:symmetric:3", 4)
    prec, succ = delta_halves(c)
    assert verify_chain_map(prec) == []
    assert verify_chain_map(succ) == []
    full = cubical_coproduct(c)
    for n in range(1, 5):
        d = full.target.blocks(prec.mat(n) + succ.mat(n) - full.mat(n), n)
        for (p, q), block in d.items():
            assert block.is_zero() or not (p >= 1 and q >= 1), "reduced parts differ"


def test_halves_reject_non_lset():
    c = build_complex(group_cubical_nerve(preset("cyclic:2"), 2), QQ)
    with pytest.raises(NotLSet):
        delta_halves(c)


def test_trivial_rack_degree2_half():
    c = rack_complex("trivial_rack:3", 3)
    prec, _ = delta_halves(c)
    t = prec.target
    # Delta_<(x1,x2) reduced part = (x1) (x) (x2): single first-fixed shuffle
    k = c.cell_pos(2, c.source.index(2, (1, 2)))
    col = prec.mat(2).column(k)
    p1 = c.cell_pos(1, c.source.index(1, (1,)))
    p2 = c.cell_pos(1, c.source.index(1, (2,)))
    assert col == {t.index(2, (2, 0), k, 0): Fraction(1),
                   t.index(2, (1, 1), p1, p2): Fraction(1)}


def test_degree2_homotopy_identity():
    for name in ("conj:cyclic:2", "conj:cyclic:3", "conj:symmetric:3"):
        c = rack_complex(name, 3)
        prec, succ = delta_halves(c)
        h = coproduct_homotopy(c)
        # h is a homotopy from Delta_> to tau Delta_<
        assert verify_homotopy(succ, compose_with_tau(prec), h) == []


@pytest.mark.parametrize("field", [QQ, FieldTag(3)], ids=str)
def test_tuple_formula_matches_face_route(field):
    for name in ("conj:cyclic:3", "conj:symmetric:3", "conj:quaternion:8"):
        r = preset(name)
        depth = 3 if r.order > 6 else 4
        c = build_complex(rack_nerve(r, depth), field)
        prec, _ = delta_halves(c)
        formula = rack_half_coproduct_formula(c, r)
        for n in range(1, depth + 1):
            assert prec.mat(n) == formula.mat(n)


@pytest.mark.parametrize("name,depth,field", [
    ("conj:symmetric:3", 4, QQ), ("conj:cyclic:3", 4, QQ),
    ("conj:dihedral:4", 3, QQ), ("conj:quaternion:8", 3, FieldTag(3)),
])
def test_coproducts_match_per_cell_reference(name, depth, field):
    c = build_complex(rack_nerve(preset(name), depth), field)
    prec, succ = delta_halves(c)
    for which, got in (("prec", prec), ("succ", succ), ("full", cubical_coproduct(c))):
        assert got.mats == coproduct_reference(c, which), which


def test_laws_lists_every_law_check_laws_knows():
    tv = half_shuffle_model([1, 1], 3)
    assert sorted(check_laws(tv, LAWS, 3)) == sorted(LAWS)
    with pytest.raises(ValueError):
        check_laws(tv, ["coZinbiel", "nonsense"], 3)


def _law_targets():
    """(coalgebra, top degree) pairs covering every law: three tensor models,
    the chain-level bialgebra of conj:cyclic:3 (as in criterion 9), and the
    Q homology coalgebra of conj:symmetric:3 through degree 3."""
    from rackhom.glstable import pontryagin_rack_product

    out = [(half_shuffle_model(degs, top), top)
           for degs, top in (([1, 1], 4), ([1, 2], 4), ([1], 5))]
    g = preset("cyclic:3")
    r = conj_rack(g)
    c = build_complex(rack_nerve(r, 4), QQ)
    prec, succ = delta_halves(c)
    mu = [[g.mul[x][y] for y in range(g.order)] for x in range(g.order)]
    star = pontryagin_rack_product(c, r, mu, up_to=4)
    out.append((graded_coalgebra_from_chain_maps(c, prec, succ=succ, star=star, up_to=4), 4))
    c = build_complex(rack_nerve(preset("conj:symmetric:3"), 4), QQ)
    hs = homology(c, up_to=3)
    prec, succ = delta_halves(c)
    out.append((GradedCoalgebra(QQ, hs.dims, induced_coproduct_components(prec, hs, 3),
                                delta_succ=induced_coproduct_components(succ, hs, 3)), 3))
    return out


def _perturbed(g, name, key, rng):
    """A copy of g with one random entry of block `key` of its table `name`
    raised by one."""
    table = dict(getattr(g, name))
    m = table[key]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    cols = [m.column(k) for k in range(m.cols)]
    cols[j][i] = m.entry(i, j) + 1
    table[key] = Matrix(m.field, m.rows, m.cols, cols)
    return dataclasses.replace(g, **{name: table})


def test_check_laws_equals_reference_on_perturbed_coalgebras():
    """One entry of delta_prec, delta_succ or star perturbed at a time, in
    every block of the one-letter tensor model (whose blocks are 1x1) and in
    three random blocks of each table of the other coalgebras: every law
    fails somewhere, and each failure list (labels, order and witness
    columns) equals the one-loop-per-law reference."""
    rng = random.Random(0)
    failed = set()
    for g, top in _law_targets():
        laws = LAWS if g.star is not None else [law for law in LAWS if law not in PRODUCT_LAWS]
        for name in ("delta_prec", "delta_succ", "star"):
            if getattr(g, name) is None:
                continue
            keys = sorted(k for k, m in getattr(g, name).items() if m.rows and m.cols)
            for key in keys if max(g.dims) == 1 else rng.sample(keys, 3):
                h = _perturbed(g, name, key, rng)
                rep = check_laws(h, laws, top)
                assert rep == check_laws_reference(h, laws, top)
                failed |= {law for law, bad in rep.items() if bad}
    assert failed == set(LAWS)


def test_half_shuffle_model_basics():
    tv = half_shuffle_model([1, 1], 4)
    # single letters are primitive; two-letter coproduct
    k = tv.words[2].index((0, 1))
    col = tv.prec(1, 1).column(k)
    assert col == {tv.words[1].index((0,)) * 2 + tv.words[1].index((1,)): Fraction(1)}
    k3 = tv.words[3].index((0, 1, 0))
    assert len(tv.prec(2, 1).column(k3)) + len(tv.prec(1, 2).column(k3)) == 3


def test_tensor_model_laws_through_weight_5():
    tv = half_shuffle_model([1, 1], 5)
    rep = check_laws(tv, ["coZinbiel", "codendriform", "counit", "semiHopf",
                          "Hopf", "associativeProduct", "cocommutativeOfSum"], 5)
    assert all(not v for v in rep.values()), rep


def test_tensor_model_mixed_degrees():
    tv = half_shuffle_model([1, 2], 5)
    rep = check_laws(tv, ["coZinbiel", "codendriform", "counit", "semiHopf"], 5)
    assert all(not v for v in rep.values()), rep


def test_tensor_model_primitives():
    tv = half_shuffle_model([1, 1], 5)
    pa = primitive_analysis(tv, 5)
    assert pa.prim_dims == [0, 2, 0, 0, 0, 0]
    assert pa.connected and pa.cofree_dims_match


def test_abelian_chain_level_strict_laws():
    for name in ("cyclic:2", "cyclic:3"):
        g = preset(name)
        r = conj_rack(g)
        c = build_complex(rack_nerve(r, 4), QQ)
        prec, succ = delta_halves(c)
        from rackhom.glstable import pontryagin_rack_product

        mu = [[g.mul[x][y] for y in range(g.order)] for x in range(g.order)]
        star = pontryagin_rack_product(c, r, mu, up_to=4)
        gc = graded_coalgebra_from_chain_maps(c, prec, succ=succ, star=star, up_to=4)
        rep = check_laws(gc, ["coZinbiel", "codendriform", "counit", "semiHopf",
                              "cocommutativeOfSum", "associativeProduct"], 4)
        assert all(not v for v in rep.values()), (name, rep)


def test_rack_homology_coalgebra_laws():
    for name, upto in (("conj:cyclic:2", 4), ("conj:cyclic:3", 4), ("conj:symmetric:3", 3)):
        r = preset(name)
        c = build_complex(rack_nerve(r, upto + 1), QQ)
        hs = homology(c, up_to=upto)
        prec, succ = delta_halves(c)
        gch = GradedCoalgebra(QQ, hs.dims,
                              induced_coproduct_components(prec, hs, upto),
                              delta_succ=induced_coproduct_components(succ, hs, upto))
        rep = check_laws(gch, ["coZinbiel", "codendriform", "cocommutativeOfSum",
                               "counit"], upto)
        assert all(not v for v in rep.values()), (name, rep)


@pytest.mark.parametrize("field", [QQ, FieldTag(2), FieldTag(3)], ids=str)
@pytest.mark.parametrize("name,upto", [("conj:symmetric:3", 3), ("conj:cyclic:3", 3),
                                       ("conj:dihedral:4", 2), ("conj:quaternion:8", 2)])
def test_induced_components_match_per_representative_reference(name, upto, field):
    c = build_complex(rack_nerve(preset(name), upto + 1), field)
    hs = homology(c, up_to=upto)
    for half in delta_halves(c):
        assert induced_coproduct_components(half, hs, upto) == \
            induced_coproduct_reference(half, hs, upto)


def test_induced_succ_is_tau_of_induced_prec_on_homology():
    r = preset("conj:symmetric:3")
    c = build_complex(rack_nerve(r, 4), QQ)
    hs = homology(c, up_to=3)
    prec, succ = delta_halves(c)
    hp = induced_coproduct_components(prec, hs, 3)
    hsucc = induced_coproduct_components(succ, hs, 3)
    gch = GradedCoalgebra(QQ, hs.dims, hp)
    for (p, q), m in hsucc.items():
        if p >= 1 and q >= 1:
            assert m == gch.tau_of_prec(p, q)


def test_primitives_of_rack_homology():
    # HR(Z/2): prim dims (1,0,0,...), dim HR_n = 1
    r = preset("conj:cyclic:2")
    c = build_complex(rack_nerve(r, 5), QQ)
    hs = homology(c, up_to=4)
    prec, succ = delta_halves(c)
    gch = GradedCoalgebra(QQ, hs.dims,
                          induced_coproduct_components(prec, hs, 4),
                          delta_succ=induced_coproduct_components(succ, hs, 4))
    pa = primitive_analysis(gch, 4)
    assert pa.prim_dims == [0, 1, 0, 0, 0]
    assert pa.connected and pa.cofree_dims_match
    # HR(Z/3): prim_1 = 2, dims 2^n
    r3 = preset("conj:cyclic:3")
    c3 = build_complex(rack_nerve(r3, 5), QQ)
    hs3 = homology(c3, up_to=4)
    p3, s3 = delta_halves(c3)
    g3 = GradedCoalgebra(QQ, hs3.dims,
                         induced_coproduct_components(p3, hs3, 4),
                         delta_succ=induced_coproduct_components(s3, hs3, 4))
    assert hs3.dims == [1, 2, 4, 8, 16]
    pa3 = primitive_analysis(g3, 4)
    assert pa3.prim_dims == [0, 2, 0, 0, 0]
    assert pa3.connected and pa3.cofree_dims_match


def test_induced_on_homology_contract():
    from rackhom.chains import identity_map

    c = rack_complex("conj:symmetric:3", 3)
    hs = homology(c, up_to=2)
    idh = induced_on_homology(identity_map(c, 2), hs, hs)
    for n in range(3):
        assert idh.mat(n) == Matrix.identity(QQ, hs.dims[n])


def test_induced_on_homology_rejects_non_chain_map():
    from rackhom.chains import GradedMap
    from rackhom.coalgebra import NotChainMap

    c = rack_complex("conj:symmetric:3", 3)  # nonzero differential
    hs = homology(c, up_to=2)
    # identity in degree 2 but zero in degree 1 cannot commute with d_2 != 0
    bogus = GradedMap(c, c, {0: Matrix.identity(QQ, c.dim(0)),
                             1: Matrix.zeros(QQ, c.dim(1), c.dim(1)),
                             2: Matrix.identity(QQ, c.dim(2))})
    with pytest.raises(NotChainMap):
        induced_on_homology(bogus, hs, hs)


def test_antisymmetrization_compare():
    rep = antisymmetrization_compare(preset("cyclic:3"), QQ, 3)
    assert rep["matches_antisymmetrization"]
    assert rep["kills_symmetric"]
    # six signed terms per degree-3 basis cell (the full symmetric group)
    assert rep["term_counts"][3] == 6 * 2 ** 3
    with pytest.raises(NotAbelian):
        antisymmetrization_compare(symmetric_group(3), QQ, 2)


def test_s2_antisymmetrization_values():
    # S_2(g,h) = (g,h) - (h,g) for abelian; S_2(g,g) = 0
    from rackhom.chains import s_map_rack_formula

    g = preset("cyclic:3")
    s = s_map_rack_formula(g, QQ, 2)
    src, tgt = s.source, s.target
    k = src.cell_pos(2, src.source.index(2, (1, 2)))
    col = s.mat(2).column(k)
    p1 = tgt.cell_pos(2, tgt.source.index(2, (1, 2)))
    p2 = tgt.cell_pos(2, tgt.source.index(2, (2, 1)))
    assert col == {p1: Fraction(1), p2: Fraction(-1)}
    kk = src.cell_pos(2, src.source.index(2, (1, 1)))
    assert s.mat(2).column(kk) == {}


@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3"])
def test_bar_product_and_coproduct_match_per_cell_reference(name):
    g = preset(name)
    c = build_complex(bar_nerve(g, 4), QQ)
    assert bar_shuffle_product(c, g).mats == bar_shuffle_product_reference(c, g)
    assert bar_aw_coproduct(c).mats == bar_aw_coproduct_reference(c)


@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3"])
def test_antisymmetrization_compare_matches_per_cell_reference(name):
    from rackhom.chains import s_map_rack_formula

    g = preset(name)
    assert antisymmetrization_compare(g, QQ, 3) == \
        antisymmetrization_reference(g, s_map_rack_formula(g, QQ, 3))


def test_bar_bialgebra_strict_for_abelian():
    for name in ("cyclic:2", "cyclic:3"):
        g = preset(name)
        c = build_complex(bar_nerve(g, 4), QQ)
        star = bar_shuffle_product(c, g)
        aw = bar_aw_coproduct(c)
        assert verify_chain_map(star) == []
        assert verify_chain_map(aw) == []
        gc = graded_coalgebra_from_chain_maps(c, full=aw, star=star, up_to=4)
        rep = check_laws(gc, ["Hopf", "associativeProduct", "commutativeProduct"], 4)
        assert all(not v for v in rep.values()), (name, rep)


def test_s_map_coalgebra_morphism_on_homology():
    """(S (x) S) Delta^rack = Delta^bar S on homology classes.  Contentful
    over F_p for p dividing |G| (rational homology of a finite group
    vanishes in positive degrees); the rational cases are checked too."""
    from rackhom.chains import s_map_rack_formula
    from rackhom.exactfield import FieldTag

    cases = [("cyclic:2", FieldTag(2), [1, 1, 1, 1]),
             ("cyclic:3", FieldTag(3), [1, 1, 1, 1]),
             ("cyclic:3", QQ, [1, 0, 0, 0]),
             ("symmetric:3", QQ, [1, 0, 0, 0])]
    for name, field, bar_dims in cases:
        g = preset(name)
        s = s_map_rack_formula(g, field, 4)
        cr, cb = s.source, s.target
        hr = homology(cr, up_to=3)
        hb = homology(cb, up_to=3)
        assert hb.dims == bar_dims, (name, field, hb.dims)
        s_h = induced_on_homology(s, hr, hb)
        prec, succ = delta_halves(cr)
        rack_delta = {}
        for (p, q), m in induced_coproduct_components(prec, hr, 3).items():
            rack_delta[(p, q)] = m
        for (p, q), m in induced_coproduct_components(succ, hr, 3).items():
            rack_delta[(p, q)] = rack_delta.get(
                (p, q), Matrix.zeros(field, m.rows, m.cols)) + m
        aw = bar_aw_coproduct(cb)
        bar_delta = induced_coproduct_components(aw, hb, 3)
        for n in range(1, 4):
            for p in range(0, n + 1):
                q = n - p
                lhs = rack_delta.get((p, q))
                if lhs is None:
                    lhs = Matrix.zeros(field, hr.dims[p] * hr.dims[q], hr.dims[n])
                lhs = s_h.mat(p).kron(s_h.mat(q)) @ lhs
                rhs = bar_delta.get((p, q))
                if rhs is None:
                    rhs = Matrix.zeros(field, hb.dims[p] * hb.dims[q], hb.dims[n])
                rhs = rhs @ s_h.mat(n)
                assert lhs == rhs, (name, str(field), n, p, q)


def test_cubical_coproduct_rejects_simplicial_source():
    from rackhom.coalgebra import NotCubical

    c = build_complex(bar_nerve(preset("cyclic:2"), 3), QQ)
    with pytest.raises(NotCubical):
        cubical_coproduct(c)


@st.composite
def spans(draw):
    dim = draw(st.integers(1, 5))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    return dim, draw(st.lists(row, max_size=4))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spans(), st.sampled_from([0, 2, 3]))
def test_complement_projection_kills_span_and_reads_complement(case, p):
    """The remainder reading equals the unit completion and solve, and its
    kernel is the span."""
    f = FieldTag(p)
    dim, rows = case
    span = [{i: f.of_int(v) for i, v in enumerate(r) if f.of_int(v)} for r in rows]
    proj = _complement_projection(f, dim, span)
    assert proj == complement_projection_reference(f, dim, span)

    def rank(cols):
        return column_space_analysis(Matrix(f, dim, len(cols), cols)).rank

    for col in span:
        assert not proj.apply(col)
    assert column_space_analysis(proj).rank == dim - rank(span)
    # the complement: unit vectors independent of the span and earlier choices
    chosen = []
    for i in range(dim):
        units = [{j: f.one()} for j in chosen]
        if rank(span + units + [{i: f.one()}]) > rank(span + units):
            chosen.append(i)
    assert proj.rows == len(chosen)
    for k, i in enumerate(chosen):
        assert proj.column(i) == {k: f.one()}
