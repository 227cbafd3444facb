"""Command-line surface: constructions, homology tables, the comparison
map, both long exact sequences, law checks, the matrix suite, and the
acceptance suites, all with machine-readable JSON reports.

Exit codes: 0 all requested checks pass; 1 a check failed; 2 bad input
(flags such as a negative --max-degree or a flag the command does not take,
files, presets, a prime too large for the streamed certificate); 3 cell
budget exceeded; 4 an internal invariant was violated (a construction bug,
reported on stderr).  Reports are JSON with sorted keys; apart from the
timing block they are byte-stable for fixed flags and seed.  Only
rack-homology and group-homology take --csv (a degree,dim table), and only
gl verify and suite take --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .chains import ConstructionBug, NotChainMap
from .cubical import InternalInvariantViolation, TruncationTooLow
from .exactfield import QQ, FieldTag
from .nerves import BudgetExceeded
from .racks import UnknownPreset, preset


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _field(text: str) -> FieldTag:
    if text in ("q", "Q"):
        return QQ
    if text and text[0] in "fF":
        try:
            return FieldTag(int(text[1:]))
        except ValueError as exc:
            raise _CliError("bad field %r: %s" % (text, exc), 2)
    raise _CliError("field must be q or f<p>, got %r" % (text,), 2)


def _degree(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("degree must be >= 0, got %d" % n)
    return n


def _emit(report: dict, args, started: float) -> None:
    report["timing"] = {"wall_ms": int((time.time() - started) * 1000)}
    if getattr(args, "csv", False) and "dims" in report:
        lines = ["degree,dim"]
        lines += ["%d,%d" % (n, d) for n, d in enumerate(report["dims"])]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=1, default=str) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _rack_or_die(name: str):
    from .racks import PointedRack

    obj = preset(name)
    if not isinstance(obj, PointedRack):
        raise _CliError("%r is a group preset; rack homology needs a rack "
                        "(try conj:%s)" % (name, name), 2)
    return obj


def _group_or_die(name: str):
    from .racks import FiniteGroup

    obj = preset(name)
    if not isinstance(obj, FiniteGroup):
        raise _CliError("%r is not a group preset" % (name,), 2)
    return obj


def cmd_rack_check(args, started):
    from .racks import rack_from_json

    try:
        with open(args.file) as fh:
            text = fh.read()
        val = rack_from_json(text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _CliError("cannot read rack file: %s" % exc, 2)
    report = {"command": "rack check", "ok": val.ok,
              "violations": [list(map(str, v)) for v in val.violations]}
    _emit(report, args, started)
    return 0 if val.ok else 1


def cmd_rack_homology(args, started):
    from .chains import build_complex, homology
    from .nerves import rack_nerve

    rack = _rack_or_die(args.preset)
    field = _field(args.field)
    nerve = rack_nerve(rack, args.max_degree + 1, budget=args.budget)
    c = build_complex(nerve, field)
    hs = homology(c, up_to=args.max_degree)
    gens = [[_label_str(c.label(n, max(col))) for col in hs.reps[n]]
            for n in range(args.max_degree + 1)]
    report = {"command": "rack-homology", "preset": args.preset,
              "field": str(field), "dims": hs.dims, "generators": gens, "ok": True}
    _emit(report, args, started)
    return 0


def _label_str(lbl):
    return repr(lbl)


def cmd_group_homology(args, started):
    from .chains import build_complex, homology
    from .nerves import bar_nerve

    g = _group_or_die(args.preset)
    field = _field(args.field)
    c = build_complex(bar_nerve(g, args.max_degree + 1, budget=args.budget), field)
    hs = homology(c, up_to=args.max_degree)
    report = {"command": "group-homology", "preset": args.preset,
              "field": str(field), "dims": hs.dims, "ok": True}
    _emit(report, args, started)
    return 0


def cmd_nerve_export(args, started):
    from .cubical import cubset_to_json
    from .nerves import group_cubical_nerve, rack_nerve
    from .racks import FiniteGroup

    obj = preset(args.preset)
    if isinstance(obj, FiniteGroup):
        nerve = group_cubical_nerve(obj, args.max_degree, budget=args.budget)
    else:
        nerve = rack_nerve(obj, args.max_degree, budget=args.budget)
    doc = json.loads(cubset_to_json(nerve))
    doc.update({"command": "nerve export", "preset": args.preset, "ok": True})
    _emit(doc, args, started)
    return 0


def cmd_map_s(args, started):
    from .chains import s_map_cubical, s_map_rack_formula, verify_chain_map

    g = _group_or_die(args.preset)
    field = _field(args.field)
    if args.mode == "rack":
        s = s_map_rack_formula(g, field, args.max_degree)
    else:
        s = s_map_cubical(g, field, args.max_degree)
    bad = verify_chain_map(s)
    mats = {str(n): [[field.to_str(s.mat(n).entry(i, j))
                      for j in range(s.mat(n).cols)]
                     for i in range(s.mat(n).rows)] for n in s.degrees()}
    report = {"command": "map s", "mode": args.mode, "preset": args.preset,
              "field": str(field), "chain_map": not bad,
              "failures": [str(b) for b in bad[:5]], "matrices": mats,
              "ok": not bad}
    _emit(report, args, started)
    return 0 if not bad else 1


def cmd_les(args, started):
    from .chains import les_for_group

    g = _group_or_die(args.preset)
    field = _field(args.field)
    try:
        res = les_for_group(args.kind, g, field, args.max_degree)
    except ValueError as exc:  # a prime too large for the int64 certificate
        raise _CliError(str(exc), 2)
    report = {"command": "les", "preset": args.preset, **res.to_jsonable(),
              "ok": res.all_exact}
    _emit(report, args, started)
    return 0 if res.all_exact else 1


def cmd_coalgebra_verify(args, started):
    from .chains import build_complex, homology
    from .coalgebra import (GradedCoalgebra, check_laws, delta_halves,
                            half_shuffle_model, induced_coproduct_components,
                            primitive_analysis)
    from .nerves import rack_nerve

    laws = args.laws.split(",") if args.laws else ["coZinbiel", "cocommutativeOfSum", "counit"]
    if args.target.startswith("tensor:"):
        dim_v = int(args.target.split(":")[1])
        g = half_shuffle_model([1] * dim_v, args.max_degree)
        if "semiHopf" not in laws and not args.laws:
            laws.append("semiHopf")
        rep = check_laws(g, laws, args.max_degree)
        pa = primitive_analysis(g, args.max_degree)
    else:
        rack = _rack_or_die(args.target)
        field = _field(args.field)
        c = build_complex(rack_nerve(rack, args.max_degree + 1, budget=args.budget), field)
        hs = homology(c, up_to=args.max_degree)
        prec, succ = delta_halves(c)
        g = GradedCoalgebra(field, hs.dims,
                            induced_coproduct_components(prec, hs, args.max_degree),
                            delta_succ=induced_coproduct_components(succ, hs, args.max_degree))
        rep = check_laws(g, laws, args.max_degree)
        pa = primitive_analysis(g, args.max_degree)
    ok = all(not v for v in rep.values())
    report = {"command": "coalgebra verify", "target": args.target,
              "laws": {k: {"ok": not v, "failures": [str(x) for x in v[:5]]}
                       for k, v in rep.items()},
              "primitives": pa.prim_dims, "connected": pa.connected,
              "cofree_dims_match": pa.cofree_dims_match, "ok": ok}
    _emit(report, args, started)
    return 0 if ok else 1


def cmd_gl_verify(args, started):
    from .glstable import RingTag, verify_matrix_lemmas

    kind, _, mod = args.ring.partition(":")
    try:
        ring = RingTag(int(mod))
    except (ValueError, TypeError) as exc:
        raise _CliError("bad ring %r: %s" % (args.ring, exc), 2)
    if kind not in ("zmod", "f"):
        raise _CliError("ring must be zmod:<m> or f:<p>", 2)
    exhaustive = 2 if (kind == "f" and ring.m == 2) else 0
    rep = verify_matrix_lemmas(ring, args.nmax, args.trials, seed=args.seed,
                               exhaustive_upto=exhaustive)
    rep["command"] = "gl verify"
    rep["seed"] = args.seed
    _emit(rep, args, started)
    return 0 if rep["ok"] else 1


def cmd_verify_lset_iso(args, started):
    from .cubical import l_functor, verify_cubset_map
    from .nerves import group_cubical_nerve, lnerve_inclusion_labels, rack_nerve
    from .racks import conj_rack

    g = _group_or_die(args.preset)
    depth = args.max_degree
    x = group_cubical_nerve(g, depth, budget=args.budget,
                            validate=(g.order ** (2 ** depth - 1) <= 4096))
    lx = l_functor(x)
    rn = rack_nerve(conj_rack(g), depth)
    maps = []
    for n in range(depth + 1):
        col = []
        for c in range(rn.n_cells(n)):
            tup = tuple(g.elements.index(e) for e in rn.label(n, c))
            lbl = tuple(g.elements[a] for a in lnerve_inclusion_labels(g, tup))
            col.append(lx.index(n, lbl))
        maps.append(col)
    ok = verify_cubset_map(rn, lx, maps)
    report = {"command": "verify lset-iso", "preset": args.preset,
              "max_degree": depth,
              "cells": [rn.n_cells(n) for n in range(depth + 1)], "ok": ok}
    _emit(report, args, started)
    return 0 if ok else 1


def cmd_suite(args, started):
    from .acceptance import SUITES, run_suite

    if args.name not in SUITES:
        raise _CliError("unknown suite %r (choose from %s)"
                        % (args.name, sorted(SUITES)), 2)
    ok, results = run_suite(args.name, seed=args.seed)
    report = {"command": "suite", "suite": args.name, "seed": args.seed,
              "criteria": {k: {"ok": v["ok"]} for k, v in results.items()},
              "ok": ok}
    _emit(report, args, started)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rackhom",
                                 description="exact rack/cubical homology engine")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, field=True, degree=True):
        if field:
            p.add_argument("--field", default="q", help="q or f<p>")
        if degree:
            p.add_argument("--max-degree", type=_degree, default=3)
        p.add_argument("--budget", type=int, default=2_000_000)
        p.add_argument("--out")

    p = sub.add_parser("rack", help="rack table utilities")
    rsub = p.add_subparsers(dest="racksub", required=True)
    pc = rsub.add_parser("check", help="validate a rack JSON file")
    pc.add_argument("file")
    common(pc, field=False, degree=False)
    pc.set_defaults(fn=cmd_rack_check)

    p = sub.add_parser("rack-homology")
    p.add_argument("--preset", required=True)
    common(p)
    p.add_argument("--csv", action="store_true", help="degree,dim table instead of JSON")
    p.set_defaults(fn=cmd_rack_homology)

    p = sub.add_parser("group-homology")
    p.add_argument("--preset", required=True)
    common(p)
    p.add_argument("--csv", action="store_true", help="degree,dim table instead of JSON")
    p.set_defaults(fn=cmd_group_homology)

    p = sub.add_parser("nerve", help="nerve utilities")
    nsub = p.add_subparsers(dest="nervesub", required=True)
    pe = nsub.add_parser("export")
    pe.add_argument("--preset", required=True)
    common(pe, field=False)
    pe.set_defaults(fn=cmd_nerve_export)

    p = sub.add_parser("map", help="comparison maps")
    msub = p.add_subparsers(dest="mapsub", required=True)
    ps = msub.add_parser("s")
    ps.add_argument("--mode", choices=("rack", "cubical"), default="rack")
    ps.add_argument("--preset", required=True)
    common(ps)
    ps.set_defaults(fn=cmd_map_s)

    p = sub.add_parser("les")
    p.add_argument("--kind", choices=("lrel", "gamma"), default="lrel")
    p.add_argument("--preset", required=True)
    common(p)
    p.set_defaults(fn=cmd_les)

    p = sub.add_parser("coalgebra")
    csub = p.add_subparsers(dest="coalsub", required=True)
    pv = csub.add_parser("verify")
    pv.add_argument("--target", required=True,
                    help="tensor:<dimV> or a rack preset name")
    pv.add_argument("--laws", default="")
    common(pv)
    pv.set_defaults(fn=cmd_coalgebra_verify)

    p = sub.add_parser("gl")
    gsub = p.add_subparsers(dest="glsub", required=True)
    pg = gsub.add_parser("verify")
    pg.add_argument("--ring", default="zmod:4")
    pg.add_argument("--nmax", type=int, default=3)
    pg.add_argument("--trials", type=int, default=50)
    common(pg, field=False, degree=False)
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(fn=cmd_gl_verify)

    p = sub.add_parser("verify", help="named verifications")
    vsub = p.add_subparsers(dest="verifysub", required=True)
    pl = vsub.add_parser("lset-iso")
    pl.add_argument("--preset", "--group", dest="preset", required=True)
    common(pl, field=False)
    pl.set_defaults(fn=cmd_verify_lset_iso)

    p = sub.add_parser("suite")
    p.add_argument("name", choices=("all", "laws", "les", "gl", "nerves"))
    common(p, field=False, degree=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None) -> int:
    started = time.time()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args, started)
    except _CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return exc.code
    except (UnknownPreset, FileNotFoundError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (BudgetExceeded, TruncationTooLow) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (ConstructionBug, NotChainMap, InternalInvariantViolation) as exc:
        sys.stderr.write("error: internal invariant violated: %s\n" % exc)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
