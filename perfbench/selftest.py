"""Self-test of the benchmark harness, at smoke size.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks three things and exits 0 only if all hold:

1. run.py, on every workload declared in BENCHMARK.json, with --trace 0
   and --trace 1, prints a result line with exactly the contract's keys,
   reports a correct run, and prints exactly the declared metric names
   with the declared units.
2. Each workload's output check passes on a real smoke pass, and flags a
   failure once a fault is injected into the checker's reference (never
   into hermeq).
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, KappaSearch, EXAMPLE_F  # noqa: E402
import oracle  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _declared():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_metric_names(bench, problems):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   w["name"], "--seed", "3", "--seconds", "1", "--trace",
                   str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=600)
            tag = "%s trace %d" % (w["name"], trace)
            if proc.returncode != 0:
                problems.append("%s: exit %d: %s" % (tag, proc.returncode,
                                                     proc.stderr[-500:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if result["correct"] is not True or result["failed"]:
                problems.append("%s: smoke run not correct" % tag)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared:
                extra = sorted(set(printed) - set(declared))
                missing = sorted(set(declared) - set(printed))
                units = sorted(k for k in set(printed) & set(declared)
                               if printed[k] != declared[k])
                problems.append("%s: undeclared %s, missing %s, unit "
                                "mismatch %s" % (tag, extra, missing, units))


def _swap_first_two_classes(classes):
    classes[0][0], classes[1][0] = classes[1][0], classes[0][0]


# One fault per workload, each planted in the reference the checker reads.
FAULTS = {
    "battery_core": lambda ref: _swap_first_two_classes(
        ref["printed"]["table1"]),
    "kappa_search": lambda ref: ref.update(monic_generator=["2", "0", "0",
                                                            "0"]),
    "cli_verdicts": lambda ref: ref["disc"].update(
        {k: v + 1 for k, v in ref["disc"].items()}),
}


def check_fault_injection(problems):
    if run.import_hermeq() is None:
        problems.append("hermeq is not importable from src/")
        return
    for name, wl_class in sorted(WORKLOADS.items()):
        wl = wl_class(5, run.ROOT, smoke=True)
        ops = wl.ops()
        passes = [run.run_pass(ops)]
        ref = wl.reference(run.ROOT)
        _, failures = run.check_outputs(wl, ops, passes, ref)
        if failures:
            problems.append("%s: clean reference flags %s" % (name, failures))
        FAULTS[name](ref)
        _, failures = run.check_outputs(wl, ops, passes, ref)
        if not failures:
            problems.append("%s: fault in the reference went unnoticed" % name)

    # The stock example is too slow for smoke size; check its checker on
    # the paper's values, then with a wrong generator in the reference.
    ex = {"f": list(EXAMPLE_F), "generator": ["371", "-116", "-48", "16"],
          "disc": oracle.disc(EXAMPLE_F), "disc_g": oracle.disc(EXAMPLE_F),
          "bound": 16}
    detail = {"f_generator": {"coords": list(ex["generator"])},
              "f_status": "principal", "f_orientation": "inverse",
              "g_status": "inconclusive", "search_bound": 16,
              "disc": ex["disc"]}
    if KappaSearch._check_example((True, detail), ex) is not None:
        problems.append("quartic example checker rejects the paper's values")
    ex["generator"] = ["372", "-116", "-48", "16"]
    if KappaSearch._check_example((True, detail), ex) is None:
        problems.append("quartic example checker missed a wrong generator")


def check_fails_without_source(problems):
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "battery_core", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without src/ exited %d with stdout %r"
                            % (proc.returncode, proc.stdout[-200:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    problems = []
    bench = _declared()
    check_metric_names(bench, problems)
    check_fault_injection(problems)
    check_fails_without_source(problems)
    for p in problems:
        print("PROBLEM", p)
    print("selftest:", "ok" if not problems else "%d problems" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
