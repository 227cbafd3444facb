"""Finite pointed racks and finite groups, with table validation and the
conjugation functor.

Rack convention (right self-distributive, pointed):

    e <| g = e,   g <| e = g,   (k <| h) <| g = (k <| g) <| (h <| g)

and every right translation  - <| g  is a bijection.  Conjugation racks use
h <| g = g^-1 h g.  Only pointed racks are accepted as homology inputs;
tables without a neutral element are rejected, not silently augmented.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations, product


class UnknownPreset(Exception):
    pass


class FiniteGroup:
    """Multiplication table group; elements are opaque labels."""

    def __init__(self, elements, mul_table, unit_index, name=""):
        self.elements = tuple(elements)
        self.mul = tuple(tuple(r) for r in mul_table)
        self.unit = unit_index
        self.name = name
        n = len(self.elements)
        for a in range(n):
            if self.mul[a][self.unit] != a or self.mul[self.unit][a] != a:
                raise ValueError("unit law fails at %r" % (self.elements[a],))
        for a, b, c in product(range(n), repeat=3):
            if self.mul[self.mul[a][b]][c] != self.mul[a][self.mul[b][c]]:
                raise ValueError("associativity fails at (%d,%d,%d)" % (a, b, c))
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.mul[a][b] == self.unit and self.mul[b][a] == self.unit:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError("no inverse for %r" % (self.elements[a],))
        self.inv = tuple(inv)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.mul[a][b] == self.mul[b][a] for a in range(n) for b in range(n))


@dataclass(frozen=True)
class PointedRack:
    elements: tuple
    op: tuple  # op[a][b] = a <| b, as indices
    basepoint: int
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass
class RackValidation:
    rack: PointedRack | None
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_rack(elements, op, basepoint) -> RackValidation:
    """Validate a candidate table; on failure every broken axiom is reported
    with a witness triple instead of raising."""
    n = len(elements)
    op = tuple(tuple(r) for r in op)
    bad = []
    if len(op) != n or any(len(r) != n for r in op):
        return RackValidation(None, [("shape", "table is not %dx%d" % (n, n))])
    if any(not (0 <= v < n) for r in op for v in r):
        return RackValidation(None, [("shape", "table entry out of range")])
    if not (0 <= basepoint < n):
        return RackValidation(None, [("basepoint", "index out of range")])
    for g in range(n):
        col = [op[a][g] for a in range(n)]
        if sorted(col) != list(range(n)):
            bad.append(("bijectivity", "right translation by %r is not a bijection"
                        % (elements[g],), (g,)))
    for k, h, g in product(range(n), repeat=3):
        lhs = op[op[k][h]][g]
        rhs = op[op[k][g]][op[h][g]]
        if lhs != rhs:
            bad.append(("self-distributivity",
                        "(k<|h)<|g != (k<|g)<|(h<|g)", (elements[k], elements[h], elements[g])))
    e = basepoint
    for g in range(n):
        if op[e][g] != e:
            bad.append(("pointing", "e <| g != e", (elements[g],)))
        if op[g][e] != g:
            bad.append(("pointing", "g <| e != g", (elements[g],)))
    if bad:
        return RackValidation(None, bad)
    return RackValidation(PointedRack(tuple(elements), op, basepoint))


def conj_rack(g: FiniteGroup) -> PointedRack:
    """The conjugation rack h <| g = g^-1 h g, pointed at the unit."""
    n = g.order
    op = [[g.mul[g.mul[g.inv[b]][a]][b] for b in range(n)] for a in range(n)]
    val = validate_rack(g.elements, op, g.unit)
    assert val.ok, "conjugation table failed rack validation: %s" % (val.violations[:3],)
    rack = val.rack
    return PointedRack(rack.elements, rack.op, rack.basepoint, name="conj:%s" % (g.name or "?"))


def trivial_rack(n: int) -> PointedRack:
    if n < 1:
        raise UnknownPreset("trivial_rack order must be >= 1")
    op = tuple(tuple(a for _ in range(n)) for a in range(n))
    return PointedRack(tuple(range(n)), op, 0, name="trivial_rack:%d" % n)


# -- group constructions -----------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownPreset("cyclic order must be >= 1")
    mul = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(tuple(range(n)), mul, 0, name="cyclic:%d" % n)


def product_of_cyclics(orders) -> FiniteGroup:
    if min(orders) < 1:
        raise UnknownPreset("cyclic orders must be >= 1")
    elems = list(product(*[range(n) for n in orders]))
    index = {e: i for i, e in enumerate(elems)}
    mul = [[index[tuple((a[k] + b[k]) % orders[k] for k in range(len(orders)))]
            for b in elems] for a in elems]
    return FiniteGroup(tuple(elems), mul, index[tuple(0 for _ in orders)],
                       name="cyclic:" + "x".join(str(n) for n in orders))


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n: elements (i, s) = r^i s^s with s r s = r^-1."""
    if n < 1:
        raise UnknownPreset("dihedral parameter must be >= 1")
    elems = [(i, s) for s in (0, 1) for i in range(n)]
    index = {e: k for k, e in enumerate(elems)}

    def mult(a, b):
        (i, s), (j, t) = a, b
        if s == 0:
            return ((i + j) % n, t)
        return ((i - j) % n, 1 - t)

    mul = [[index[mult(a, b)] for b in elems] for a in elems]
    return FiniteGroup(tuple(elems), mul, index[(0, 0)], name="dihedral:%d" % n)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of 0..n-1 as tuples; (a*b)(x) = a[b[x]] (b applied first)."""
    if n < 1 or n > 5:
        raise UnknownPreset("symmetric:n supported for 1 <= n <= 5")
    elems = sorted(permutations(range(n)))
    index = {e: k for k, e in enumerate(elems)}
    mul = [[index[tuple(a[b[x]] for x in range(n))] for b in elems] for a in elems]
    return FiniteGroup(tuple(elems), mul, index[tuple(range(n))], name="symmetric:%d" % n)


def quaternion_group() -> FiniteGroup:
    """Q8 on {1,-1,i,-i,j,-j,k,-k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    index = {s: k for k, s in enumerate(names)}

    def neg(s):
        return s[1:] if s.startswith("-") else "-" + s

    base = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}

    def mult(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        c = base[(a, b)]
        return neg(c) if sign < 0 else c

    mul = [[index[mult(a, b)] for b in names] for a in names]
    return FiniteGroup(tuple(names), mul, 0, name="quaternion:8")


def preset(name: str):
    """Named constructions: cyclic:n, cyclic:AxB..., dihedral:n, symmetric:n,
    quaternion:8, trivial_rack:n, conj:<group>."""
    if name.startswith("conj:"):
        g = preset(name[len("conj:"):])
        if not isinstance(g, FiniteGroup):
            raise UnknownPreset("conj: expects a group, got %r" % (name,))
        return conj_rack(g)
    try:
        kind, _, arg = name.partition(":")
        if kind == "cyclic":
            if "x" in arg:
                return product_of_cyclics([int(s) for s in arg.split("x")])
            return cyclic_group(int(arg))
        if kind == "dihedral":
            return dihedral_group(int(arg))
        if kind == "symmetric":
            return symmetric_group(int(arg))
        if kind == "quaternion":
            if arg != "8":
                raise UnknownPreset("only quaternion:8 exists")
            return quaternion_group()
        if kind == "trivial_rack":
            return trivial_rack(int(arg))
    except (ValueError, TypeError) as exc:
        raise UnknownPreset("bad preset %r: %s" % (name, exc)) from exc
    raise UnknownPreset("unknown preset %r" % (name,))


def rack_from_json(text: str) -> RackValidation:
    doc = json.loads(text)
    return validate_rack(doc["elements"], doc["op"], doc["basepoint"])
