"""The acceptance suite: eleven numbered checks, each returning a dict with
an "ok" flag and the measured data.  The CLI suite subcommands and the
acceptance tests both run these, so the mapping between suite entries and
criteria is one-to-one by construction.

Where a check caps a parameter for budget reasons (the LES tops grow like
|G|^(2^n - 1)), the cap and its reason are recorded in the returned notes.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .chains import (
    build_complex,
    homology,
    identity_map,
    les_for_group,
    rack_conjugation_data,
    s_map_rack_formula,
    verify_chain_map,
    verify_homotopy,
)
from .coalgebra import (
    GradedCoalgebra,
    antisymmetrization_compare,
    check_laws,
    compose_with_tau,
    coproduct_homotopy,
    cubical_coproduct,
    delta_halves,
    graded_coalgebra_from_chain_maps,
    half_shuffle_model,
    induced_coproduct_components,
    primitive_analysis,
    rack_half_coproduct_formula,
)
from .cubical import (
    l_functor_with_inclusion,
    standard_model,
    subobject_cells,
    validate_cubical,
    verify_cubset_map,
)
from .exactfield import QQ, FieldTag
from .glstable import RingTag, pontryagin_rack_product, verify_matrix_lemmas
from .nerves import (
    bar_nerve,
    cell_numbers,
    group_cubical_nerve,
    lnerve_inclusion,
    rack_nerve,
    validate_simplicial,
)
from .racks import conj_rack, preset, symmetric_group
from .shuffles import All, Triple, alpha, beta, enumerate_shuffles, iota

RACK_PRESETS = ("trivial_rack:4", "conj:cyclic:2", "conj:cyclic:3",
                "conj:cyclic:2x2", "conj:symmetric:3", "conj:dihedral:4",
                "conj:quaternion:8")
GROUP_PRESETS = ("cyclic:2", "cyclic:3", "cyclic:2x2", "symmetric:3",
                 "dihedral:4", "quaternion:8")


def criterion_1(seed=0):
    """Cubical/simplicial identity suites: zero violations on the standard
    models, every preset rack nerve through degree 4, and the bar nerves."""
    details = {}
    ok = True
    for n in range(0, 4):
        v = validate_cubical(standard_model("cube", n))
        details["cube^%d" % n] = len(v)
        ok = ok and not v
    for n in range(0, 4):
        v = validate_cubical(standard_model("lcube", n, truncation=n + 1))
        details["lcube^%d" % n] = len(v)
        ok = ok and not v
    for name in RACK_PRESETS:
        v = validate_cubical(rack_nerve(preset(name), 4))
        details["rack nerve %s" % name] = len(v)
        ok = ok and not v
    for name in GROUP_PRESETS:
        v = validate_simplicial(bar_nerve(preset(name), 4))
        details["bar nerve %s" % name] = len(v)
        ok = ok and not v
    return {"ok": ok, "violations": details}


def criterion_2(seed=0):
    """d^2 = 0 exactly on every constructed complex, every stored degree."""
    complexes = []
    for name in RACK_PRESETS:
        for field in (QQ, FieldTag(2), FieldTag(3)):
            complexes.append(("rack %s %s" % (name, field),
                              build_complex(rack_nerve(preset(name), 4), field)))
    for name in GROUP_PRESETS[:4]:
        complexes.append(("bar %s" % name,
                          build_complex(bar_nerve(preset(name), 4), QQ)))
    for n in range(0, 4):
        complexes.append(("cube^%d" % n, build_complex(standard_model("cube", n), QQ)))
        if n:
            complexes.append(("lcube^%d" % n,
                              build_complex(standard_model("lcube", n, truncation=n + 1), QQ)))
    ok = True
    checked = {}
    for name, c in complexes:
        good = all((c.d(n - 1) @ c.d(n)).is_zero() for n in range(2, c.max_degree + 1))
        checked[name] = good
        ok = ok and good
    return {"ok": ok, "complexes": len(complexes), "checked": checked}


def criterion_3(seed=0):
    """H_1(L^n, Q) = Q^n and H_p = 0 for p >= 2 (n = 1, 2, 3); H_0 = Q is
    recorded with the reduced-homology caveat."""
    dims = {}
    ok = True
    for n in (1, 2, 3):
        ln = standard_model("lcube", n, truncation=max(n, 3) + 1)
        hs = homology(build_complex(ln, QQ), up_to=3)
        dims["L^%d" % n] = hs.dims
        ok = ok and hs.dims == [1, n, 0, 0]
    return {"ok": ok, "dims": dims,
            "note": "H_0 = Q throughout; the stated vanishing off degree 1 "
                    "is the reduced reading"}


def criterion_4(seed=0):
    """The first-face equalizer of the group cubical nerve is isomorphic to
    the rack nerve, via the explicit edge-tuple bijection, cell by cell."""
    cases = [("cyclic:2", 2), ("cyclic:3", 2), ("symmetric:3", 2), ("cyclic:2", 3)]
    results = {}
    ok = True
    for name, depth in cases:
        g = preset(name)
        r = conj_rack(g)
        x = group_cubical_nerve(g, depth)
        lx, incl = l_functor_with_inclusion(x)
        maps = subobject_cells(incl, lnerve_inclusion(g, x))
        good = maps is not None and verify_cubset_map(rack_nerve(r, depth), lx, maps)
        results["%s depth %d" % (name, depth)] = good
        ok = ok and good
    return {"ok": ok, "cases": results}


def criterion_5(seed=0):
    """dim HR_n(G, k) = (|G| - 1)^n for abelian G, n <= 4, over Q, F_2, F_3,
    with identically zero boundary."""
    ok = True
    table = {}
    for name in ("cyclic:2", "cyclic:3", "cyclic:2x2"):
        g = preset(name)
        r = conj_rack(g)
        nerve = rack_nerve(r, 5)
        for field in (QQ, FieldTag(2), FieldTag(3)):
            c = build_complex(nerve, field)
            zero = all(c.d(n).is_zero() for n in range(1, 6))
            hs = homology(c, up_to=4)
            want = [(g.order - 1) ** n for n in range(5)]
            table["%s over %s" % (name, field)] = hs.dims
            ok = ok and zero and hs.dims == want
    return {"ok": ok, "dims": table}


def criterion_6(seed=0):
    """S is a chain map through degree 4 for Z/2, Z/3, S3; equals full
    antisymmetrization for abelian groups; and S_2(g1,g2) =
    (g1,g2) - (g2, g1 <| g2)."""
    ok = True
    details = {}
    for name in ("cyclic:2", "cyclic:3", "symmetric:3"):
        g = preset(name)
        s = s_map_rack_formula(g, QQ, 4)
        bad = verify_chain_map(s)
        details["chain map %s" % name] = not bad
        ok = ok and not bad
        if name == "symmetric:3":
            src, tgt = s.source, s.target
            r = conj_rack(g)
            a, b = 1, 4
            ab, ba = cell_numbers(np.array([[a, b], [b, r.op[a][b]]]), g.order)
            col = s.mat(2).column(src.cell_pos(2, ab))
            want = {tgt.cell_pos(2, ab): QQ.one(), tgt.cell_pos(2, ba): QQ.of_int(-1)}
            details["S_2 formula"] = col == want
            ok = ok and col == want
    for name in ("cyclic:2", "cyclic:3"):
        rep = antisymmetrization_compare(preset(name), QQ, 3)
        good = rep["matches_antisymmetrization"] and rep["kills_symmetric"]
        details["antisymmetrization %s" % name] = good
        ok = ok and good
    return {"ok": ok, "details": details}


def criterion_7(seed=0):
    """Both long exact sequences: exactness (im = ker by rank) at every
    reachable node.  The top of the total complex grows like |G|^(2^n - 1),
    so S3 runs through degree 2; Z/2 and Z/3 run through degree 3 with a
    streamed, certified top boundary.  The gamma side runs Z/2 through
    degree 2: its quotient is k in degree 0, so it needs the nerve through
    max_n + 1 only, and degree 3 (2^15 top cells) is within reach but not
    run here; the note names the command that runs it."""
    runs = [("lrel", "cyclic:2", 3), ("lrel", "cyclic:3", 3),
            ("lrel", "symmetric:3", 2), ("gamma", "cyclic:2", 2)]
    ok = True
    out = {}
    notes = []
    for kind, name, max_n in runs:
        res = les_for_group(kind, preset(name), QQ, max_n)
        key = "%s %s max_n=%d" % (kind, name, max_n)
        out[key] = {"dims": res.dims, "exact": res.all_exact,
                    "nodes": len(res.nodes)}
        notes.extend("%s: %s" % (key, n) for n in res.notes)
        ok = ok and res.all_exact
    notes.append("S3 capped at degree 2 and the gamma side at degree 2: the "
                 "next degree needs |G|^15 resp. 2^15 top cells; S3's is beyond "
                 "the criterion's stated time budget, and the gamma side's runs "
                 "in `les --kind gamma --preset cyclic:2 --max-degree 3`")
    return {"ok": ok, "runs": out, "notes": notes}


def criterion_8(seed=0):
    """Coproduct arbiter suite: the halves sum to the reduced full
    coproduct, are chain maps, satisfy the degree-2 homotopy identity with
    h(x) = d_{1,0}x (x) x, and on homology the coZinbiel law holds exactly
    with cocommutative symmetrized coproduct."""
    ok = True
    details = {}
    for name, top in (("conj:cyclic:2", 4), ("conj:cyclic:3", 4),
                      ("conj:symmetric:3", 3)):
        r = preset(name)
        c = build_complex(rack_nerve(r, top + 1), QQ)
        prec, succ = delta_halves(c)
        full = cubical_coproduct(c)
        good_sum = True
        for n in range(1, c.max_degree + 1):
            diff = full.target.blocks(prec.mat(n) + succ.mat(n) - full.mat(n), n)
            # the halves may differ from the full coproduct on the counital edges only
            good_sum = good_sum and all(b.is_zero() for (p, q), b in diff.items() if p and q)
        good_chain = not verify_chain_map(prec) and not verify_chain_map(succ) \
            and not verify_chain_map(full)
        h = coproduct_homotopy(c)
        good_homotopy = not verify_homotopy(succ, compose_with_tau(prec), h)
        hs = homology(c, up_to=top)
        gch = GradedCoalgebra(QQ, hs.dims,
                              induced_coproduct_components(prec, hs, top),
                              delta_succ=induced_coproduct_components(succ, hs, top))
        rep = check_laws(gch, ["coZinbiel", "cocommutativeOfSum"], top)
        good_laws = all(not v for v in rep.values())
        formula = rack_half_coproduct_formula(c, r)
        formula_ok = all(prec.mat(n) == formula.mat(n) for n in range(1, c.max_degree + 1))
        details[name] = {"sum": good_sum, "chain_maps": good_chain,
                         "degree2_homotopy": good_homotopy,
                         "homology_laws": good_laws,
                         "tuple_formula_agrees": formula_ok,
                         "hr_dims": hs.dims}
        ok = ok and good_sum and good_chain and good_homotopy and good_laws and formula_ok
    return {"ok": ok, "racks": details}


def criterion_9(seed=0):
    """Abelian rack chains (zero differential): strict semi-Hopf and
    coZinbiel through degree 4; primitive filtration connected and the
    free/cofree dimension count matches."""
    ok = True
    details = {}
    for name in ("cyclic:2", "cyclic:3"):
        g = preset(name)
        r = conj_rack(g)
        c = build_complex(rack_nerve(r, 4), QQ)
        prec, succ = delta_halves(c)
        mu = [[g.mul[x][y] for y in range(g.order)] for x in range(g.order)]
        star = pontryagin_rack_product(c, r, mu, up_to=4)
        good_star = not verify_chain_map(star)
        gc = graded_coalgebra_from_chain_maps(c, prec, succ=succ, star=star, up_to=4)
        rep = check_laws(gc, ["coZinbiel", "semiHopf", "counit",
                              "associativeProduct"], 4)
        good_laws = all(not v for v in rep.values())
        pa = primitive_analysis(gc, 4)
        details[name] = {"star_chain_map": good_star, "laws": good_laws,
                         "prim_dims": pa.prim_dims, "connected": pa.connected,
                         "cofree_dims_match": pa.cofree_dims_match}
        ok = ok and good_star and good_laws and pa.connected and pa.cofree_dims_match
    return {"ok": ok, "groups": details}


def criterion_10(seed=0):
    """The tensor-coalgebra reference model passes coZinbiel and semi-Hopf
    through weight 5 (dim V <= 2); shuffle cardinalities and the three
    block-shuffle bijections check out for p+q(+r) <= 7."""
    ok = True
    details = {}
    for dim_v in (1, 2):
        tv = half_shuffle_model([1] * dim_v, 5)
        rep = check_laws(tv, ["coZinbiel", "semiHopf", "counit"], 5)
        good = all(not v for v in rep.values())
        details["T(V) dim %d" % dim_v] = good
        ok = ok and good
    card = True
    for p in range(1, 7):
        for q in range(1, 7):
            if p + q > 7:
                continue
            if len(enumerate_shuffles(All(p, q))) != comb(p + q, p):
                card = False
            src = [s for s, _ in enumerate_shuffles(All(p, q))]
            if {iota(s, p, q).images for s in src} != \
                    {s.images for s, _ in enumerate_shuffles(All(q, p))}:
                card = False
    bij = True
    for p, q, r in ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1),
                    (2, 1, 2), (1, 2, 2), (3, 2, 2), (2, 3, 2), (5, 1, 1)):
        if p + q + r > 7:
            continue
        triple = {s.images for s, _ in enumerate_shuffles(Triple(p, q, r))}
        via_a = {alpha(s, g2, p, q, r).images
                 for s, _ in enumerate_shuffles(All(p + q, r))
                 for g2, _ in enumerate_shuffles(All(p, q))}
        via_b = {beta(s, g2, p, q, r).images
                 for s, _ in enumerate_shuffles(All(p, q + r))
                 for g2, _ in enumerate_shuffles(All(q, r))}
        if via_a != triple or via_b != triple:
            bij = False
    details["cardinalities and iota"] = card
    details["alpha/beta bijections"] = bij
    return {"ok": ok and card and bij, "details": details}


def criterion_11(seed=0):
    """The stable-matrix suite: conjugator lemmas, interleaving morphism
    property, the associativity/commutativity bullets with explicit
    witnesses (Z/4 randomised with the given seed, F_2 exhaustive through
    GL_2), and the conjugation-invariance homotopy on conj(S3)."""
    ok = True
    details = {}
    rep4 = verify_matrix_lemmas(RingTag(4), 3, 50, seed=seed)
    details["Z/4"] = rep4["ok"]
    rep2 = verify_matrix_lemmas(RingTag(2), 3, 50, seed=seed, exhaustive_upto=2)
    details["F_2 (exhaustive GL_1, GL_2)"] = rep2["ok"]
    ok = ok and rep4["ok"] and rep2["ok"]
    r = conj_rack(symmetric_group(3))
    c = build_complex(rack_nerve(r, 4), QQ)
    a = r.elements.index((1, 0, 2))
    c_a, h_a = rack_conjugation_data(c, r, a)
    good_h = not verify_chain_map(c_a) and \
        not verify_homotopy(identity_map(c, 3), c_a, h_a)
    details["conjugation homotopy on conj(S3) through degree 3"] = good_h
    ok = ok and good_h
    return {"ok": ok, "details": details}


CRITERIA = {n: globals()["criterion_%d" % n] for n in range(1, 12)}

SUITES = {
    "nerves": (1, 2, 4),
    "les": (3, 7),
    "laws": (5, 6, 8, 9, 10),
    "gl": (11,),
    "all": tuple(range(1, 12)),
}


def run_suite(name: str, seed: int = 0):
    """Run a named group of acceptance criteria; returns (ok, results)."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (name, sorted(SUITES)))
    results = {}
    ok = True
    for k in SUITES[name]:
        res = CRITERIA[k](seed=seed)
        results["criterion_%d" % k] = res
        ok = ok and res["ok"]
    return ok, results
