"""Run one benchmark workload and print its result as JSON on the last line.

    python3 perfbench/run.py --workload flat-lp --seed 1 --seconds 38 --trace 0

Jobs run back to back in this one process (a closed loop) until --seconds
have passed, in whole rounds.  Each job's outputs are checked against the
references in refcheck.  Between jobs a fixed pure-Python calibration loop
is timed, so job cost can also be read in machine-independent units.
With --trace 0 the result holds the end-to-end metrics; with --trace 1
each round runs once plain and once traced, and the result holds the
per-layer metrics of the traced jobs.  Results and spans are written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# Set-up is timed in this process and in this many fresh ones.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def calibration_loop():
    """Fixed work of the kind exact chain algebra does, with no polychain code:
    Fraction arithmetic and hashing tuples of Fractions."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 201):
        a = Fraction(i, 7 + i % 11)
        b = Fraction(3 * i + 1, 13 + i % 5)
        c = a * b - a / b + Fraction(1, 1 + i % 9)
        key = ((a, b), (c, a + b))
        table[key] = table.get(key, 0) + 1
        acc += c
    return acc, len(table)


def set_up(name, seed, workdir, tracer=None):
    """Import polychain from this checkout, build and warm the workload's
    grids and generate its first round of inputs."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import polychain
    if not os.path.abspath(polychain.__file__).startswith(SRC + os.sep):
        raise ImportError("polychain was not imported from %s" % SRC)
    import workloads
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[name](workdir)
    workload.warm()
    first = workload.make_round(seed, 0)
    return workload, first, time.perf_counter() - start


def probe_set_up(name, seed):
    """Set-up time of a fresh interpreter running this script's set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return float(done.stdout.split()[-1])


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Loop:
    """Jobs run, timed and checked, plus the calibration times between them."""

    def __init__(self, workload, check):
        self.workload = workload
        self.check = check
        self.job_s = []
        self.cal_s = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def run_round(self, inputs, tracer=None):
        for inp in inputs:
            if tracer is not None:
                tracer.job = inp["index"]
            start = time.perf_counter()
            try:
                out = self.workload.run(inp)
            except Exception as exc:  # a job that raises is a failed job
                out, broken = None, ["raised %s: %s" % (type(exc).__name__, exc)]
            self.job_s.append(time.perf_counter() - start)
            if out is not None:
                broken = self.check(inp, out)
            self.attempted += 1
            self.failed += bool(broken)
            surprise = set(broken) - self.workload.expected_failures(inp)
            if surprise:
                self.unexpected.append((inp["index"], sorted(surprise)))
            start = time.perf_counter()
            calibration_loop()
            self.cal_s.append(time.perf_counter() - start)


def run(args):
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_only:
            print(repr(set_up(args.workload, args.seed, workdir)[2]))
            return 0
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        workload, first, setup_s = set_up(args.workload, args.seed, workdir, tracer)
        if tracer is not None:
            tracer.uninstall()
            setup_totals = {k: list(v) for k, v in tracer.totals.items()}
            tracer.totals.clear()
            tracer.counters.clear()
        else:
            setups = [setup_s] + [probe_set_up(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
        import checks
        plain = Loop(workload, checks.CHECKS[args.workload])
        traced = Loop(workload, plain.check)
        start = time.perf_counter()
        r = 0
        while True:
            plain.run_round(first if r == 0 else workload.make_round(args.seed, r))
            if tracer is not None:
                inputs = workload.make_round(args.seed, r)
                tracer.install()
                traced.run_round(inputs, tracer)
                tracer.uninstall()
            r += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for index, broken in plain.unexpected + traced.unexpected:
        print("job %d broke: %s" % (index, ", ".join(broken)), file=sys.stderr)
    print("%s seed %d: %d jobs in %.1f s, calibration median %.2f ms"
          % (args.workload, args.seed, plain.attempted + traced.attempted,
             time.perf_counter() - start, statistics.median(plain.cal_s) * 1000),
          file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(plain, setups)
    else:
        metrics = per_layer(tracer, setup_totals, plain, traced)
    result = {"correct": not (plain.unexpected or traced.unexpected),
              "attempted": plain.attempted + traced.attempted,
              "failed": plain.failed + traced.failed,
              "metrics": metrics}
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if tracer is not None:
        tracer.dump(stem + ".spans.json", {"workload": args.workload, "seed": args.seed})
    with open(stem + ".result.json", "w") as fp:
        json.dump(result, fp, indent=1)
    print(json.dumps(result))
    return 0


def declared(kind):
    """Names and units of BENCHMARK.json's `end_to_end` or `per_layer` metrics."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)[kind]}


def end_to_end(loop, setups):
    job_ms = [s * 1000 for s in loop.job_s]
    cal_ms = statistics.median(loop.cal_s) * 1000
    p50, p90 = statistics.median(job_ms), quantile(job_ms, 0.9)
    values = {"setup_s": statistics.median(setups),
              "jobs_per_s": len(loop.job_s) / sum(loop.job_s),
              "job_ms.p50": p50, "job_ms.p90": p90,
              "job_cal.p50": p50 / cal_ms, "job_cal.p90": p90 / cal_ms,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {k: {"value": values[k], "unit": unit} for k, unit in declared("end_to_end").items()}


def per_layer(tracer, setup_totals, plain, traced):
    jobs = len(traced.job_s)
    from polychain import grid

    def per_run_ms(layer):
        return (setup_totals.get(layer, [0, 0.0])[1] + tracer.totals[layer][1]) * 1000

    values = {
        # grids are built and their tables filled once, during set-up
        "grid.build.self_ms": per_run_ms("grid.build"),
        "grid.incidence.self_ms": per_run_ms("grid.incidence"),
        "grid.cached_complexes": len(grid._CACHE),
        "trace.overhead_ms": (statistics.median(traced.job_s)
                              - statistics.median(plain.job_s)) * 1000,
    }
    out = {}
    for name, unit in declared("per_layer").items():
        if name in values:
            value = values[name]
        elif name.endswith(".self_ms"):
            value = tracer.totals[name[:-len(".self_ms")]][1] * 1000 / jobs
        elif name.endswith(".calls"):
            value = tracer.totals[name[:-len(".calls")]][0] / jobs
        else:
            value = tracer.counters[name] / jobs
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lift-coarea", "flat-lp", "approx"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ImportError, subprocess.SubprocessError, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
