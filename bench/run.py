"""Benchmark for rackhom: one named workload, run as a single-threaded,
closed-loop client (one query at a time, the next sent after the previous
answer is checked).

    python3 bench/run.py --workload q-mix --seed 0 --seconds 45 --trace 0

The workload's queries form a round; rounds repeat until the next one would
end past --seconds (at least MIN_ROUNDS rounds).  Round r runs on inputs
drawn from (--seed, r), built before the round starts, so a round does
not replay the inputs of an earlier round (see bench/workloads.py for the
exception of the smallest groups).
Every answer is checked against bench/expected.json.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the exit code is 0 only when every answer was right.

Times are in reference seconds.  The cores this runs on are shared with
other tenants, and their speed changes by up to 1.7x within seconds, so a
fixed reference kernel (KERNELS[workloads.KERNEL_OF[workload]], using
nothing from rackhom) is timed before and after every query (or run of short
queries), and the query time is scaled by the kernel's nominal time over
the mean of those two kernel times.  A setup probe is scaled the same way
by a reference process instead (REF_STARTUP: start Python and import
numpy, fractions and json, nothing from rackhom), which tracks process
start-up better than a kernel does.  A reference second is thus a second
of a machine on which the references take their nominal times.  A
change to the program moves these times as it moves wall time; a change
of the machine's speed moves the reference times with it and cancels out.
The unscaled times are printed in the human-readable lines.

--trace 0 reports the end-to-end metrics:
  wall_s        median over rounds of the time from the first query sent to
                the last answer checked (the sum of the scaled query times)
  setup_s       time from process start to ready (importing rackhom and
                numpy and generating the seeded inputs) of a fresh process:
                the median over SETUP_PROBES processes timed before the
                rounds
  peak_rss_mib  peak resident memory (ru_maxrss) of a fresh process that
                sets up and runs round 0 without a reference kernel, so
                kernel arrays do not count
failed_frac (failed / attempted) is printed as well; it is 0 on a correct
run, so it is not a bounded metric.

--trace 1 alternates traced rounds (the wrappers of bench/layertrace.py
installed) with untraced ones; it reports per-layer self times (means over
traced rounds, each round's scaled by its reference wall over its wall,
so self times plus bench.unattributed_s add up to bench.traced_wall_s),
the counters of round 0, and the tracing overhead as the median over
(traced round, next untraced round) pairs of their ratio minus 1.  It
then traces round 0 again in a fresh process and fails unless the
counters are identical, and writes every span to .bench_trace/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_PROBES = 12
REF_STARTUP = ["-c", "import numpy, fractions, json"]
REF_STARTUP_S = 0.150   # nominal REF_STARTUP time
SEGMENT_S = 0.5         # least query time between two kernel timings
MIN_ROUNDS = 3          # untraced run
MIN_TRACED_PAIRS = 2    # traced run: (traced, untraced) round pairs
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def setup(workload: str, seed: int):
    """Import the program from this checkout and build the seeded inputs of
    round 0."""
    if not (SRC / "rackhom" / "__init__.py").is_file():
        raise BenchError("no rackhom sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported lazily by the first _ModRank otherwise)
    import rackhom

    if Path(rackhom.__file__).resolve().parent != SRC / "rackhom":
        raise BenchError("imported rackhom from %s, not from this checkout"
                         % rackhom.__file__)
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(workloads.WORKLOADS)))
    return workloads.prepare(workload, seed)


def _child(mode: str, workload: str, seed: int, timeout: float):
    """Run this script in a fresh process in `mode`; returns the seconds
    from spawn to its 'ready' line and the rest of its standard output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), mode,
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        rest, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s timed out" % mode)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError("%s failed: %s" % (mode, err.strip()))
    return t1 - t0, rest


def python_kernel():
    """Fixed pure-Python work: Fraction arithmetic, tuple-keyed dict updates
    and mod-p list arithmetic, as in q-mix's nerves, sparse matrices and
    rational elimination."""
    acc = Fraction(0)
    for i in range(1, 3600):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    cells = {}
    for i in range(18000):
        key = (i % 97, i % 13, i % 7)
        cells[key] = cells.get(key, 0) + i
    row = list(range(64))
    for i in range(900):
        row = [(a + i * b) % 5 for a, b in zip(row, reversed(row))]
    return acc, len(cells), row[0]


def numpy_kernel():
    """Fixed work, mostly numpy: int64 row operations mod 5 on a 512 x 2048
    array, as in the dense mod-p tracker (about four fifths of the time),
    and a dict of 15000 tuple keys mapping to Fractions, built and swept."""
    import numpy

    rows = numpy.arange(512 * 2048, dtype=numpy.int64).reshape(512, 2048) % 5
    c, v = rows[:, 1], rows[3]
    for _ in range(3):
        rows = (rows - numpy.outer(c, v)) % 5
        v = (c @ rows) % 5
    cells = {}
    for i in range(15000):
        cells[(i % 211, i % 17, i)] = Fraction(i % 11 + 1, i % 3 + 1)
    return int(v.sum()) + sum(k[0] for k, x in cells.items() if x.numerator > 5)


# Reference kernels by name, with the nominal time a reference second maps
# to.  Each workload names its kernel in workloads.KERNEL_OF.
KERNELS = {"python": (python_kernel, 0.020), "numpy": (numpy_kernel, 0.100)}


def kernel_time(kernel) -> float:
    t0 = perf_counter()
    kernel[0]()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float, ref_s: float) -> float:
    """`seconds` measured between reference times `before` and `after`, in
    reference seconds (a machine on which the reference takes ref_s)."""
    return seconds * ref_s * 2.0 / (before + after)


def startup_time() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable] + REF_STARTUP, check=True,
                   timeout=PROBE_TIMEOUT_S)
    return perf_counter() - t0


def setup_probes(workload: str, seed: int, count: int):
    """Setup times of `count` fresh processes, each spawn to its 'ready'
    line: a list of (reference seconds, seconds)."""
    out = []
    before = startup_time()
    for _ in range(count):
        seconds = _child("--setup-probe", workload, seed, PROBE_TIMEOUT_S)[0]
        after = startup_time()
        out.append((scaled(seconds, before, after, REF_STARTUP_S), seconds))
        before = after
    return out


def rss_probe(workload: str, seed: int) -> float:
    """Peak resident memory in MiB of a fresh process running round 0."""
    return float(_child("--rss-probe", workload, seed,
                        PROBE_TIMEOUT_S)[1].strip().splitlines()[-1])


def round_inputs(workload: str, seed: int, first):
    """Inputs of rounds 0, 1, 2, ...: round 0's are the ones built by
    setup(), later ones are built on demand."""
    import workloads

    yield first
    rnd = 1
    while True:
        yield workloads.prepare(workload, seed, rnd)
        rnd += 1


def run_round(queries, kernel, tracer=None):
    """Run every query once; returns (wall in reference seconds, wall in
    seconds, per-query reference seconds, failures).  The kernel is timed
    once a run of queries has taken SEGMENT_S, so short queries share the
    kernel times around them."""
    times, raw, failures = [], [], []
    before = kernel_time(kernel)
    for k, q in enumerate(queries):
        t0 = perf_counter()
        why = q.check() if tracer is None else tracer.run_query(q.id, q.check)
        raw.append(perf_counter() - t0)
        if why is not None:
            failures.append((q.id, why))
        if sum(raw[len(times):]) >= SEGMENT_S or k + 1 == len(queries):
            after = kernel_time(kernel)
            times += [scaled(t, before, after, kernel[1])
                      for t in raw[len(times):]]
            before = after
    return sum(times), sum(raw), times, failures


def _enough(rounds, min_rounds, started, seconds):
    """True once `rounds` rounds are done and one more, taking as long as
    the mean so far, would end past `seconds`."""
    elapsed = perf_counter() - started
    return rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds


def untraced(inputs, seconds, kernel):
    """Rounds until `seconds` are used; returns a list of (reference
    seconds, seconds) per round, the per-query times and the failures."""
    walls, times, failures = [], [], []
    started = perf_counter()
    while True:
        wall, raw_wall, ts, fails = run_round(next(inputs), kernel)
        walls.append((wall, raw_wall))
        times.append(ts)
        failures += fails
        if _enough(len(walls), MIN_ROUNDS, started, seconds):
            return walls, times, failures


def traced_round(queries, kernel, tracer):
    tracer.install()
    try:
        return run_round(queries, kernel, tracer)
    finally:
        tracer.uninstall()


def traced(inputs, seconds, workload, seed, kernel):
    """(traced, untraced) round pairs, so the overhead is measured against
    the untraced round next to each traced one."""
    from layertrace import COUNTERS, LAYERS, Tracer

    tracer = Tracer()
    walls, base_walls, factors, rounds, times, failures = [], [], [], [], [], []
    started = perf_counter()
    while True:
        wall, raw_wall, ts, fails = traced_round(next(inputs), kernel, tracer)
        walls.append(wall)
        factors.append(wall / raw_wall)
        rounds.append(tracer.take_round())
        times.append(ts)
        failures += fails
        base_wall, _, ts, fails = run_round(next(inputs), kernel)
        base_walls.append(base_wall)
        times.append(ts)
        failures += fails
        if _enough(len(walls), MIN_TRACED_PAIRS, started, seconds):
            break
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / ("%s-seed%d.jsonl" % (workload, seed)))

    metrics = {}
    for metric in LAYERS:
        metrics[metric] = (statistics.fmean(
            r[0].get(metric, 0.0) * f for r, f in zip(rounds, factors)), "s")
    first = rounds[0][1]
    again = json.loads(_child("--counter-probe", workload, seed,
                              PROBE_TIMEOUT_S)[1].strip().splitlines()[-1])
    repeatable = again == first
    if not repeatable:
        sys.stderr.write("FAILED self-check: round-0 counters differ between"
                         " two traced processes of one seed: %s vs %s\n"
                         % (first, again))
    for counter in COUNTERS:
        metrics[counter] = (first.get(counter, 0), "count")
    adds = first.get("chains.tracker_adds", 0)
    metrics["chains.tracker_useful_ratio"] = (
        first.get("chains.tracker_useful", 0) / adds if adds else 0.0, "ratio")
    traced_wall = statistics.fmean(walls)
    layer_self = sum(metrics[m][0] for m in LAYERS)
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.unattributed_s"] = (traced_wall - layer_self, "s")
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(t / u for t, u in zip(walls, base_walls)) - 1.0, "ratio")
    absent = sorted(set(tracer.absent))
    if absent:
        print("absent from this program (reported as 0): %s" % ", ".join(absent))
    return metrics, times, failures, repeatable


def rss_child(queries) -> int:
    """Run round 0, without the reference kernel, and print this process's
    peak resident memory in MiB.  Wrong answers are left to the timed
    rounds to count."""
    for q in queries:
        q.check()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


def counter_probe(queries) -> int:
    """Trace round 0 and print its counters as one JSON line."""
    from layertrace import Tracer

    tracer = Tracer()
    failures = traced_round(queries, KERNELS["python"], tracer)[3]
    print(json.dumps(tracer.take_round()[1], sort_keys=True))
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--counter-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        queries = setup(args.workload, args.seed)
        if args.setup_probe or args.counter_probe or args.rss_probe:
            print("ready", flush=True)
        if args.setup_probe:
            return 0
        if args.counter_probe:
            return counter_probe(queries)
        if args.rss_probe:
            return rss_child(queries)
        import workloads

        kernel = KERNELS[workloads.KERNEL_OF[args.workload]]
        inputs = round_inputs(args.workload, args.seed, queries)
        repeatable = True
        if args.trace:
            metrics, times, failures, repeatable = traced(
                inputs, args.seconds, args.workload, args.seed, kernel)
        else:
            t0 = perf_counter()
            rss = rss_probe(args.workload, args.seed)
            setups = setup_probes(args.workload, args.seed, SETUP_PROBES)
            walls, times, failures = untraced(
                inputs, args.seconds - (perf_counter() - t0), kernel)
            print("round walls: %s ref s; unscaled %s s; unscaled setup"
                  " median %.4f s"
                  % (" ".join("%.3f" % w[0] for w in walls),
                     " ".join("%.3f" % w[1] for w in walls),
                     statistics.median(s[1] for s in setups)))
            metrics = {
                "wall_s": (statistics.median(w[0] for w in walls), "s"),
                "setup_s": (statistics.median(s[0] for s in setups), "s"),
                "peak_rss_mib": (rss, "MiB"),
            }
    except (BenchError, ImportError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2

    attempted = len(queries) * len(times)
    failed = len(failures)
    for qid, why in failures:
        sys.stderr.write("FAILED %s: %s\n" % (qid, why))
    print("workload %s, seed %d: %d rounds, %d queries attempted, %d failed"
          % (args.workload, args.seed, len(times), attempted, failed))
    for k, q in enumerate(queries):
        print("  %-40s %8.3f ref s median"
              % (q.id, statistics.median(t[k] for t in times)))
    for name, (value, unit) in list(metrics.items()) + [
            ("failed_frac", (failed / attempted, "ratio"))]:
        print("  %-32s %12.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures and repeatable else 1


if __name__ == "__main__":
    raise SystemExit(main())
