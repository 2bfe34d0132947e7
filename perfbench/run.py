"""Benchmark for hermeq: three closed-loop workloads, one client, one process.

Run it from the root of a source checkout; it imports hermeq from ./src and
needs nothing beyond the standard library (sympy, when installed, serves
only the output checks, which run after all timing):

    python3 perfbench/run.py --workload battery_core --seed 1 \
        --seconds 38 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
battery_core, kappa_search and cli_verdicts.

--trace 0 repeats whole passes over the workload's inputs for about
--seconds and reports the end-to-end metrics: setup_s, pass_s,
verdict_p50_ms, verdict_p90_ms, verdicts_per_s, cold_start_ms and
peak_rss_mb.  A workload's one-off operations (criterion 9 on
kappa_search) run once, a quarter of the way into the time budget, so
that the passes before and after them sample the whole run; their time is
in no pass.  The first pass warms the process up and is left out of the
figures when the run holds three passes or more.  Latency percentiles are
taken within each pass: a percentile of the pooled latencies of a few very
unequal operations sits in the gap between two of them and jumps across it
from run to run.

Each timing figure but setup_s is the upper quartile of its samples in
the run (of the passes, or of the cold starts), not their median.  On a
shared host the same work alternates, in spells of seconds to minutes,
between the usual speed and one up to 1.6x faster; a median reads
whichever speed held for most of the run, so runs of the same code split
into two groups.  The upper quartile reads the usual speed unless three
quarters of the run went fast.  setup_s is the median of its probes.

--trace 1 spends half of --seconds on untraced passes and half on passes
traced through tracing.Tracer, and reports the per-layer metrics: calls
and self time of every traced function, hit ratios, the candidate rate of
exhausted search boxes, the untraced wall time of each battery criterion,
and the tracing overhead.

Every output is checked against an independent reference after the timed
passes.  The second-to-last line of stdout is a stamp (git SHA, Python
version, core count, seed, sample counts, failed share); the last line is
the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Spans and the stamp are also written to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5
COLD_STARTS = 21
COLD_POLY = [1, 2, -4, -1, 1]

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms", "verdicts_per_s": "1/s", "cold_start_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".hit_ratio", "_frac")):
        return "ratio"
    return "s"


def import_hermeq():
    """Import hermeq from the checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hermeq", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import hermeq
    import hermeq.cli  # noqa: F401  (loads every module the tracer rebinds)
    if os.path.dirname(os.path.dirname(os.path.abspath(hermeq.__file__))) \
            != SRC:
        return None
    return hermeq


class Pass:
    __slots__ = ("total", "lat", "outputs")

    def __init__(self, total, lat, outputs):
        self.total = total
        self.lat = lat
        self.outputs = outputs


def run_pass(ops, tracer=None, after_op=None):
    """One pass over the operations; its total is the sum of the operation
    times, so work done between operations (after_op) is not in it."""
    from workloads import Error
    lat, outputs = [], []
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.label)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed operation
            out = Error(exc)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        lat.append(dt)
        outputs.append(out)
        if after_op is not None:
            after_op(dt)
    return Pass(sum(lat), lat, outputs)


def run_passes(ops, budget, tracer=None, after_op=None):
    """Whole passes until the next one would overrun the budget of
    operation time; at least one."""
    passes, busy = [], 0.0
    while True:
        passes.append(run_pass(ops, tracer, after_op))
        busy += passes[-1].total
        if busy + passes[-1].total > budget:
            return passes


def run_workload(first_ops, ops, budget, after_op=None):
    """(one-off pass, passes): passes over a quarter of the budget, the
    one-off operations, then passes over what is left of the budget."""
    head = run_passes(ops, budget / 4.0, after_op=after_op)
    first = run_pass(first_ops, after_op=after_op)
    busy = first.total + sum(p.total for p in head)
    return first, head + run_passes(ops, budget - busy, after_op=after_op)


def timed(passes):
    """The passes the figures come from: all but the warm-up pass, when
    at least two others remain."""
    return passes[1:] if len(passes) >= 3 else passes


def upper_quartile(values):
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


class Probes:
    """Set-up probes and cold starts, spread evenly over the operation time
    of the run so that they sample the same machine conditions as the
    passes do.  Each runs between two operations, outside their timing.

    A set-up probe spawns this script with --setup-probe and times from
    the spawn to its "ready" line: interpreter start, imports, input
    generation.  A cold start times a fresh `python -m hermeq.cli disc`
    process to its exit (one untimed run first compiles the bytecode).
    """

    def __init__(self, args, budget):
        self.setup_cmd = [
            sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "1",
            "--trace", "0", "--size", args.size, "--setup-probe"]
        self.cold_cmd = [sys.executable, "-m", "hermeq.cli", "disc",
                         "--poly", json.dumps(COLD_POLY)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        jobs = [(i / COLD_STARTS, self._cold) for i in range(COLD_STARTS)]
        jobs += [((i + 0.5) / SETUP_PROBES, self._setup)
                 for i in range(SETUP_PROBES)]
        jobs.sort(key=lambda j: j[0])
        self.jobs = [(budget * at, job) for at, job in jobs]
        self.busy = 0.0
        self.setup_s, self.cold_ms, self.cold_results = [], [], []
        self._cold(timed=False)

    def after_op(self, dt):
        self.busy += dt
        while self.jobs and self.jobs[0][0] <= self.busy:
            self.jobs.pop(0)[1]()

    def finish(self):
        while self.jobs:
            self.jobs.pop(0)[1]()

    def _setup(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.setup_cmd, cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            self.setup_s.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")

    def _cold(self, timed=True):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cold_cmd, cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        if timed:
            self.cold_ms.append((time.perf_counter() - t0) * 1000.0)
            self.cold_results.append((proc.returncode, proc.stdout))


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end_metrics(passes, probes, rss_mb):
    passes = timed(passes)
    pass_s = upper_quartile(p.total for p in passes)
    return {
        "setup_s": statistics.median(probes.setup_s),
        "pass_s": pass_s,
        "verdict_p50_ms": 1000.0 * upper_quartile(
            statistics.median(p.lat) for p in passes),
        "verdict_p90_ms": 1000.0 * upper_quartile(
            statistics.quantiles(p.lat, n=10, method="inclusive")[8]
            for p in passes),
        # the rate of the pass that pass_s reads
        "verdicts_per_s": len(passes[0].lat) / pass_s,
        "cold_start_ms": upper_quartile(probes.cold_ms),
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(first_ops, first, ops, untraced, traced, tracer):
    from hermeq import reproduce
    untraced = timed(untraced)
    out = tracer.summary(len(traced))
    runs = [(first_ops, first)] + [(ops, p) for p in untraced]
    for _, name, _ in reproduce.CHECKS:
        times = [p.lat[i] for run_ops, p in runs
                 for i, op in enumerate(run_ops) if op.label == name]
        out["reproduce.%s.s" % name] = statistics.median(times) \
            if times else 0.0
    out["tracing_overhead_frac"] = (
        statistics.median(p.total for p in traced)
        / statistics.median(p.total for p in untraced) - 1.0)
    return out


def check_outputs(wl, ops, passes, ref):
    """(attempted, failures): every output of every pass against ref."""
    from workloads import Error
    attempted, failures = 0, []
    for p in passes:
        for op, out in zip(ops, p.outputs):
            attempted += 1
            if isinstance(out, Error):
                failures.append("%s raised %s" % (op.label, out.text))
                continue
            try:
                reason = wl.check(op, out, ref)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                reason = "malformed output (%s: %s)" % (type(exc).__name__,
                                                        exc)
            if reason is not None:
                failures.append("%s: %s" % (op.label, reason))
    return attempted, failures


def check_cold_starts(results):
    import oracle
    want = json.dumps({"discriminant": str(oracle.sympy_disc(COLD_POLY))},
                      separators=(",", ":")) + "\n"
    return ["cold start: exit %r, stdout %r" % (code, out)
            for code, out in results if (code, out) != (0, want)]


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: a few inputs per workload, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    from workloads import WORKLOADS
    from tracing import Tracer

    if import_hermeq() is None:
        sys.stderr.write("error: run from the root of a hermeq source "
                         "checkout (no importable src/hermeq)\n")
        return 2
    wl = WORKLOADS[args.workload](args.seed, ROOT, args.size == "smoke")
    first_ops, ops = wl.first_ops(), wl.ops()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace == 0:
        probes = Probes(args, args.seconds)
        first, passes = run_workload(first_ops, ops, args.seconds,
                                     probes.after_op)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes.finish()
        cold_results = probes.cold_results
        metrics = end_to_end_metrics(passes, probes, rss_mb)
        measured = timed(passes)
        units = END_TO_END
    else:
        first, untraced = run_workload(first_ops, ops, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        measured = timed(untraced) + traced
        cold_results = []
        metrics = per_layer_metrics(first_ops, first, ops, untraced,
                                    traced, tracer)
        units = {k: per_layer_unit(k) for k in metrics}

    # everything below is outside the measurements
    ref = wl.reference(ROOT)
    attempted, failures = check_outputs(wl, ops, passes, ref)
    once_attempted, once_failures = check_outputs(wl, first_ops, [first], ref)
    attempted += once_attempted
    failures = once_failures + failures
    failures += check_cold_starts(cold_results)
    attempted += len(cold_results)
    for line in failures[:20]:
        sys.stderr.write("FAILED %s\n" % line)

    stamp = {
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "passes": len(passes), "ops_per_pass": len(ops),
        "one_off_ops": len(first_ops),
        "timed_passes": len(measured),
        "verdict_samples": sum(len(p.lat) for p in measured),
        "failed_frac": len(failures) / attempted,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w",
              encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "metrics": metrics,
                   "failures": failures}, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(os.path.join(OUT_DIR, "spans-%s.jsonl" % tag))

    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
