#!/usr/bin/env python3
"""Self-check of the benchmark: metric names, units and the verdict oracle.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. For every workload, declared in
BENCHMARK.json or runnable by hand, it makes a short end-to-end run and a
short traced run and checks that each prints exactly the metrics
BENCHMARK.json declares, with the declared units, with every verdict right
and no trace event dropped. It then runs each workload with
one known answer deliberately flipped (--corrupt-oracle) and checks that the
benchmark reports the wrong verdict and exits non-zero. Exit code 0 means
every check passed.
"""
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402  (the launcher's workload list)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL:", what)


def bench(workload, trace, seconds, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace), *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, r.stderr


def check_metrics(result, declared, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + ": result keys")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, label + ": metric names/units differ from "
          "BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    for k, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)), label + ": " + k)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    for n in names:
        check(NAME.match(n) is not None, "name syntax: " + n)
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, "unit syntax: " + m["unit"])
    for m in spec["end_to_end"]:
        check(0 < m["bound"] <= 0.25, "bound of " + m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower", "setup_s declared")
    check(setup and all(m["bound"] <= setup[0]["bound"]
                        for m in spec["end_to_end"]),
          "setup_s has the largest bound")

    declared = [w["name"] for w in spec["workloads"]]
    check(set(declared) <= set(run.WORKLOADS), "declared workloads exist")
    # The undeclared run workloads are checked too: their oracle and ledger
    # must keep working for by-hand runs.
    for name in run.WORKLOADS:
        code, res, err = bench(name, 0, 1)
        check(code == 0 and res and res["correct"] and res["failed"] == 0,
              name + ": end-to-end run correct (exit %d)\n%s"
              % (code, err[-400:]))
        if res:
            check_metrics(res, spec["end_to_end"], name + " --trace 0")
        code, res, err = bench(name, 1, 2)
        check(code == 0 and res and res["correct"],
              name + ": traced run correct (exit %d)\n%s" % (code, err[-400:]))
        if res:
            check_metrics(res, spec["per_layer"], name + " --trace 1")
            dropped = res["metrics"].get("trace.events_dropped", {})
            check(dropped.get("value") == 0,
                  name + ": trace.events_dropped == 0")
        code, res, _ = bench(name, 0, 1, "--corrupt-oracle")
        check(code != 0 and res and not res["correct"] and res["failed"] > 0,
              name + ": a wrong known answer fails the run (exit %d)" % code)
        print("checked", name, flush=True)

    print("self-check:", "FAILED (%d)" % len(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
