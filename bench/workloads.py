"""The benchmark's workloads: named lists of queries, the seeded inputs they
run on, and the check of every answer against bench/expected.json.

A query calls the same public functions the matching `rackhom` CLI command
calls and keeps the facts the CLI report is built from; it skips only the
JSON formatting.  Functions are looked up on their modules at call time
(`chains.les_for_group`, not a by-name import), so the trace wrappers that
bench/layertrace.py installs on those modules see every call.

Inputs: `--seed` and the round number draw one permutation of each group's
element indices and rebuild the isomorphic multiplication table through
`FiniteGroup`, so cell order, elimination order and stream order change
with the seed while every answer stays the same.  Each round gets its own
tables (and its own `gl verify` seed), so a cache kept across queries can
help within a round but does not replay a previous round's answers; the
exception is a group of order n <= 4, which has only n! relabellings (2
for Z/2), so a run of more rounds than that sees one again.  The
program only ever receives the generated tables.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from rackhom import chains, coalgebra, glstable, nerves, racks
from rackhom.exactfield import QQ, FieldTag

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
SMALL_ORDER = 4

# Each query is (command, target, field, max degree); gl takes (ring
# modulus, nmax, trials) instead.  The reasons for each mix are recorded
# with the workloads in BENCHMARK.json.
WORKLOADS = {
    # Everything over Q (plus one F3 rack homology): both long exact
    # sequences, where Fraction scalars, rational elimination,
    # build_complex with its d^2 = 0 check and group_cubical_nerve do most
    # of the work; then rack nerves, coproducts, law checks, the comparison
    # map and the matrix lemmas, where sparse matmul replaces elimination.
    # conj:symmetric:3 recurs, so the queries share work.
    "q-mix": [
        ("les", "lrel", "cyclic:2", "q", 3),
        ("les", "lrel", "cyclic:3", "q", 3),
        ("les", "lrel", "symmetric:3", "q", 2),
        ("les", "gamma", "cyclic:2", "q", 2),
        ("coalgebra", "conj:symmetric:3", "q", 3),
        ("coalgebra", "conj:cyclic:3", "q", 4),
        ("coalgebra", "conj:dihedral:4", "q", 2),
        ("coalgebra", "tensor:2", "q", 5),
        ("rack-homology", "conj:quaternion:8", "q", 3),
        ("rack-homology", "conj:dihedral:4", "q", 3),
        ("rack-homology", "conj:symmetric:3", "f3", 3),
        ("map-s", "symmetric:3", "q", 4),
        ("gl", 4, 3, 50),
    ],
    # Streamed top boundaries over F_p: machine-int scalars, the dense
    # mod-p tracker and the stream's face logic dominate.
    "les-stream-fp": [
        ("les", "lrel", "quaternion:8", "f3", 2),
        ("les", "lrel", "quaternion:8", "f5", 2),
        ("les", "lrel", "dihedral:4", "f3", 2),
        ("les", "lrel", "dihedral:4", "f5", 2),
        ("les", "lrel", "cyclic:2x2", "f3", 2),
        ("les", "lrel", "symmetric:3", "f5", 2),
        ("les", "lrel", "cyclic:2", "f3", 3),
    ],
}


# The reference kernel (bench/run.py KERNELS) that scales each workload's
# query times: the one whose speed followed the machine's speed changes
# most closely around that workload's queries.  q-mix is pure Python
# (Fraction scalars, dicts of tuples); les-stream-fp spends about four
# fifths of its time in the numpy mod-p tracker (chains.tracker_s).
KERNEL_OF = {"q-mix": "python", "les-stream-fp": "numpy"}


def query_id(spec) -> str:
    return " ".join(str(part) for part in spec)


def field_of(text: str) -> FieldTag:
    return QQ if text == "q" else FieldTag(int(text[1:]))


def relabelled_group(name: str, seed: int, rnd: int) -> racks.FiniteGroup:
    """The preset group with its element indices permuted by a permutation
    drawn from (seed, round, name); isomorphic to the preset, so every
    homological answer is unchanged.

    A group of order at most SMALL_ORDER has few relabellings, and the run
    time of a query can differ by a third between them (lrel cyclic:3 over
    Q to degree 3), so rounds step through all of them in an order drawn
    from (seed, name): a run's rounds then see distinct ones until all are
    used, and the spread between runs does not hinge on which ones chance
    repeats."""
    g = racks.preset(name)
    if g.order <= SMALL_ORDER:
        perms = list(itertools.permutations(range(g.order)))
        random.Random("%d:%s" % (seed, name)).shuffle(perms)
        perm = list(perms[rnd % len(perms)])  # perm[old] = new
    else:
        perm = list(range(g.order))
        random.Random("%d:%d:%s" % (seed, rnd, name)).shuffle(perm)
    old_of = [0] * g.order
    for old, new in enumerate(perm):
        old_of[new] = old
    mul = [[perm[g.mul[old_of[a]][old_of[b]]] for b in range(g.order)]
           for a in range(g.order)]
    return racks.FiniteGroup([g.elements[old_of[k]] for k in range(g.order)],
                             mul, perm[g.unit], name=g.name)


def seeded_rack(name: str, seed: int, rnd: int) -> racks.PointedRack:
    if not name.startswith("conj:"):
        raise ValueError("benchmark racks are conjugation racks, got %r" % name)
    return racks.conj_rack(relabelled_group(name[len("conj:"):], seed, rnd))


# -- the queries: what the CLI commands compute, returned as (ok, facts) ------


def run_les(kind, group, field, n):
    res = chains.les_for_group(kind, group, field, n)
    return res.all_exact, dict(res.dims)


def run_rack_homology(rack, field, n):
    c = chains.build_complex(nerves.rack_nerve(rack, n + 1), field)
    hs = chains.homology(c, up_to=n)
    return True, {"dims": hs.dims}


def run_coalgebra(target, field, n):
    laws = ["coZinbiel", "cocommutativeOfSum", "counit"]
    if isinstance(target, int):
        g = coalgebra.half_shuffle_model([1] * target, n)
        laws.append("semiHopf")
    else:
        c = chains.build_complex(nerves.rack_nerve(target, n + 1), field)
        hs = chains.homology(c, up_to=n)
        prec, succ = coalgebra.delta_halves(c)
        g = coalgebra.GradedCoalgebra(
            field, hs.dims, coalgebra.induced_coproduct_components(prec, hs, n),
            delta_succ=coalgebra.induced_coproduct_components(succ, hs, n))
    rep = coalgebra.check_laws(g, laws, n)
    pa = coalgebra.primitive_analysis(g, n)
    ok = all(not v for v in rep.values())
    return ok, {"dims": list(g.dims), "primitives": pa.prim_dims,
                "connected": pa.connected,
                "cofree_dims_match": pa.cofree_dims_match}


def run_map_s(group, field, n):
    s = chains.s_map_rack_formula(group, field, n)
    bad = chains.verify_chain_map(s)
    return not bad, {"shapes": [[s.mat(k).rows, s.mat(k).cols] for k in s.degrees()]}


def run_gl(ring, nmax, trials, seed):
    rep = glstable.verify_matrix_lemmas(ring, nmax, trials, seed=seed,
                                        exhaustive_upto=0)
    return rep["ok"], {"checks": len(rep["checks"])}


@dataclass
class Query:
    id: str
    fn: object
    args: tuple
    expected: dict

    def check(self):
        """Run once; returns None when the answer is right, else why not."""
        try:
            ok, facts = self.fn(*self.args)
        except Exception as exc:  # a raising query is a failed query
            return "raised %s: %s" % (type(exc).__name__, exc)
        if not ok:
            return "result not ok"
        if facts != self.expected:
            return "facts %s differ from expected %s" % (facts, self.expected)
        return None


def prepare(workload: str, seed: int, rnd: int = 0):
    """Seeded inputs of round `rnd` for every query of the workload, paired
    with the expected facts.  Raises KeyError for an unknown workload."""
    specs = WORKLOADS[workload]
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    out = []
    for spec in specs:
        qid = query_id(spec)
        cmd = spec[0]
        if cmd == "les":
            _, kind, name, fld, n = spec
            args = (kind, relabelled_group(name, seed, rnd), field_of(fld), n)
            fn = run_les
        elif cmd == "rack-homology":
            _, name, fld, n = spec
            args = (seeded_rack(name, seed, rnd), field_of(fld), n)
            fn = run_rack_homology
        elif cmd == "coalgebra":
            _, name, fld, n = spec
            target = int(name.split(":")[1]) if name.startswith("tensor:") \
                else seeded_rack(name, seed, rnd)
            args = (target, field_of(fld), n)
            fn = run_coalgebra
        elif cmd == "map-s":
            _, name, fld, n = spec
            args = (relabelled_group(name, seed, rnd), field_of(fld), n)
            fn = run_map_s
        elif cmd == "gl":
            _, modulus, nmax, trials = spec
            args = (glstable.RingTag(modulus), nmax, trials,
                    random.Random("%d:%d" % (seed, rnd)).randrange(2 ** 31))
            fn = run_gl
        else:
            raise ValueError("unknown query command %r" % (cmd,))
        out.append(Query(qid, fn, args, expected[qid]["facts"]))
    return out
