import pytest

from rackhom.racks import (
    FiniteGroup,
    UnknownPreset,
    conj_rack,
    preset,
    rack_from_json,
    symmetric_group,
    trivial_rack,
    validate_rack,
)

from cellref import conjugacy_classes, is_trivial, rack_to_json


def test_trivial_rack_valid():
    for n in (1, 2, 5):
        r = trivial_rack(n)
        v = validate_rack(r.elements, r.op, r.basepoint)
        assert v.ok


def test_conj_s3_passes_validation():
    r = conj_rack(symmetric_group(3))
    assert validate_rack(r.elements, r.op, r.basepoint).ok


def test_conj_s3_specific_value():
    # (12) <| (13) = (23) with h <| g = g^-1 h g
    g = symmetric_group(3)
    r = conj_rack(g)
    t12 = g.elements.index((1, 0, 2))
    t13 = g.elements.index((2, 1, 0))
    t23 = g.elements.index((0, 2, 1))
    assert r.op[t12][t13] == t23


def test_dihedral_quandle_pointing_fails():
    # x <| y = 2y - x mod 3 is a quandle but has no neutral element
    n = 3
    op = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    for base in range(n):
        v = validate_rack(list(range(n)), op, base)
        assert not v.ok
        assert any(kind == "pointing" for kind, *_ in v.violations)
    # and the specific witness: 1 <| 0 = -1 = 2 != 1
    assert op[1][0] == 2


def test_abelian_conjugation_is_trivial():
    for name in ("cyclic:2", "cyclic:5", "cyclic:2x2"):
        g = preset(name)
        r = conj_rack(g)
        assert is_trivial(r)
        assert r.op == trivial_rack(g.order).op


def test_conj_orbits_are_conjugacy_classes():
    for name in ("symmetric:3", "dihedral:4", "quaternion:8"):
        g = preset(name)
        r = conj_rack(g)
        # orbit of a under all right translations
        seen = set()
        orbits = []
        for a in range(g.order):
            if a in seen or a == r.basepoint:
                continue
            orbit = {a}
            frontier = [a]
            while frontier:
                b = frontier.pop()
                for c in range(g.order):
                    d = r.op[b][c]
                    if d not in orbit:
                        orbit.add(d)
                        frontier.append(d)
            orbits.append(sorted(orbit))
            seen |= orbit
        classes = [cls for cls in conjugacy_classes(g) if cls != [g.unit]]
        assert sorted(orbits) == sorted(classes)


def test_presets_validate():
    for name in ("cyclic:2", "cyclic:3", "cyclic:2x2", "dihedral:3",
                 "symmetric:4", "quaternion:8"):
        g = preset(name)
        assert isinstance(g, FiniteGroup)
    r = preset("conj:symmetric:3")
    assert r.order == 6
    assert validate_rack(r.elements, r.op, r.basepoint).ok


def test_unknown_preset():
    for name in ("lie:8", "cyclic:x", "conj:trivial_rack:3", "trivial_rack:0",
                 "trivial_rack:-2", "cyclic:2x0", "conj:cyclic:0x3"):
        with pytest.raises(UnknownPreset):
            preset(name)


def test_random_tables_always_get_a_verdict():
    import random

    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 8)
        op = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        v = validate_rack(list(range(n)), op, rng.randrange(n))
        assert v.ok == (not v.violations)


def test_rack_json_roundtrip():
    r = conj_rack(preset("cyclic:3"))
    v = rack_from_json(rack_to_json(r))
    # labels come back as reprs; table and basepoint are what validation uses
    assert v.ok
    assert v.rack.op == r.op


def test_trivial_rack_any_basepoint_is_valid():
    r = trivial_rack(4)
    for base in range(4):
        assert validate_rack(r.elements, r.op, base).ok
