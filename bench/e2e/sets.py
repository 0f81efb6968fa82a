"""Run full sets of the end-to-end benchmark and check that they agree.

    python3 bench/e2e/sets.py [--sets 2] [--seed 1] [--seconds 20] [--out FILE]

Run from the repository root.  One set is every workload of
BENCHMARK.json, untraced then traced, each in its own process.  The
script fails (exit 1) unless every run passed its own gates, traced and
untraced runs of a workload agree on the wire digest and the virtual-time
results, every set agrees on those exactly, traced coverage is at least
0.95 (the 1% layer-sum check is one of the run's own gates), and for every
end-to-end metric the medians of any two sets differ by less than the
metric's bound.  With --out it writes the merged result.  Each run's own
JSON and Chrome trace stay under _build/e2e-sets.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

EXE = "./_build/default/bench/e2e/e2e.exe"
WORK = "_build/e2e-sets"


def run(workload, seed, seconds, traced, out_dir):
    cmd = [EXE, "run", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", out_dir] + (["--trace"] if traced else [])
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit("%s failed:\n%s" % (" ".join(cmd), r.stderr))
    stem = "e2e_%s_%s" % (workload, "traced" if traced else "untraced")
    with open(os.path.join(out_dir, stem + ".json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        decl = json.load(f)
    seconds = a.seconds if a.seconds is not None else decl["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in decl["end_to_end"]}
    workloads = [w["name"] for w in decl["workloads"]]
    subprocess.run(["dune", "build", "bench/e2e/e2e.exe"], check=True)
    problems = []
    sets = []
    shutil.rmtree(WORK, ignore_errors=True)
    for k in range(a.sets):
        one = {}
        d = os.path.join(WORK, "set%d" % k)
        os.makedirs(d)
        for w in workloads:
            u = run(w, a.seed, seconds, False, d)
            t = run(w, a.seed, seconds, True, d)
            one[w] = {"untraced": u, "traced": t}
            print("set %d %-10s done" % (k + 1, w), flush=True)
            if u["det"]["ilp"] != t["det"]["ilp"]:
                problems.append("%s set %d: traced and untraced runs differ: %s vs %s"
                                % (w, k + 1, u["det"]["ilp"], t["det"]["ilp"]))
            tm = t["metrics"]
            if tm["attr.coverage"]["value"] < 0.95:
                problems.append("%s set %d: attr.coverage %.3f < 0.95"
                                % (w, k + 1, tm["attr.coverage"]["value"]))
        sets.append(one)
    for w in workloads:
        first = sets[0][w]
        for k, s in enumerate(sets[1:], start=2):
            if s[w]["untraced"]["det"] != first["untraced"]["det"]:
                problems.append("%s: set %d differs from set 1 in virtual time or on the wire"
                                % (w, k))
            for name, bound in bounds.items():
                m1 = first["untraced"]["metrics"][name]["value"]
                mk = s[w]["untraced"]["metrics"][name]["value"]
                if abs(mk - m1) >= bound * abs(m1):
                    problems.append("%s %s: set %d median %.6g vs set 1 %.6g (bound %.0f%%)"
                                    % (w, name, k, mk, m1, 100 * bound))
    summary = {}
    for w in workloads:
        rows = {}
        for mode in ("untraced", "traced"):
            for name, m in sets[0][w][mode]["metrics"].items():
                rows[name] = {"unit": m["unit"],
                              "value": [s[w][mode]["metrics"][name]["value"] for s in sets],
                              "median": [s[w][mode]["metrics"][name]["median"] for s in sets],
                              "q1": [s[w][mode]["metrics"][name]["q1"] for s in sets],
                              "q3": [s[w][mode]["metrics"][name]["q3"] for s in sets],
                              "n": [s[w][mode]["metrics"][name]["n"] for s in sets]}
        summary[w] = {"det": sets[0][w]["untraced"]["det"], "metrics": rows}
    result = {
        "benchmark": "e2e",
        "seed": a.seed,
        "seconds": seconds,
        "sets": a.sets,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "ocaml": sets[0][workloads[0]]["untraced"]["ocaml"],
        "workloads": summary,
        "agreement_problems": problems,
    }
    if a.out:
        with open(a.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    for w in workloads:
        rows = summary[w]["metrics"]
        print("%-10s host %s ns/B  separate %s ns/B  ilp_gain %s" % (
            w, rows["host_ns_per_byte"]["value"], rows["host_ns_per_byte_separate"]["value"],
            rows["engine.ilp_gain"]["value"]))
    for p in problems:
        print("PROBLEM:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
