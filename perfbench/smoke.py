"""The benchmark's own test: `python3 perfbench/run.py --smoke`.

Runs all three workloads end to end at tiny sizes with every oracle check
on, then the traced run twice with one seed, and asserts that:
  * no operation failed (every served or printed value matched its oracle);
  * every end-to-end and per-layer metric is printed with its unit;
  * the two same-seed runs wrote byte-identical instance files and request
    streams and agree on planner picks and exact counts.
Exits 0 when all hold.
"""

import hashlib
import json
import os

import run as bench

SEED = 7
SECONDS = 2.0
# Generated inputs of one run directory (outputs such as traces, oracle
# answers and reports are excluded).
INPUT_SUFFIXES = (".dl", ".facts", ".graph.csv", "tags.csv", ".ndjson", "lanes.tsv",
                  "updates.tsv")


def input_digests(workdir):
    out = {}
    for d, _, names in os.walk(workdir):
        for n in sorted(names):
            if n.endswith(INPUT_SUFFIXES) and not n.startswith("server-trace"):
                p = os.path.join(d, n)
                with open(p, "rb") as f:
                    out[os.path.relpath(p, workdir)] = hashlib.sha256(f.read()).hexdigest()
    return out


def check_result(what, result, units, problems):
    if result["failed"] or not result["correct"]:
        problems.append("%s: %d of %d operations failed" %
                        (what, result["failed"], result["attempted"]))
    for name, unit in units.items():
        m = result["metrics"].get(name)
        if m is None or m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append("%s: metric %s missing or without unit %s" % (what, name, unit))
    extra = set(result["metrics"]) - set(units)
    if extra:
        problems.append("%s: unexpected metrics %s" % (what, sorted(extra)))


def main(run_fn):
    problems = []
    for w in bench.WORKLOADS:
        result, _ = run_fn(w, SEED, SECONDS, 0, smoke=True)
        check_result(w, result, bench.END_TO_END, problems)
        print("smoke: %-11s attempted %d failed %d" % (w, result["attempted"], result["failed"]))
    traced = []
    for _ in range(2):
        result, report = run_fn("compile", SEED, SECONDS, 1, smoke=True)
        check_result("traced", result, bench.per_layer_units(), problems)
        workdir = os.path.join(bench.OUT, "smoke-compile-%d-1" % SEED)
        picks = {f: {k: v for k, v in info.items() if k != "stage_sum_over_compile"}
                 for f, info in report["compile-instances"].items()}
        traced.append((input_digests(workdir), picks))
        print("smoke: traced      attempted %d failed %d, %d input files" %
              (result["attempted"], result["failed"], len(traced[-1][0])))
    (files_a, picks_a), (files_b, picks_b) = traced
    if not files_a or files_a != files_b:
        diff = sorted(k for k in set(files_a) | set(files_b) if files_a.get(k) != files_b.get(k))
        problems.append("same seed, different inputs: %s" % diff)
    if picks_a != picks_b:
        problems.append("same seed, different planner picks or counts: %s / %s" %
                        (json.dumps(picks_a), json.dumps(picks_b)))
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("OK" if not problems else "FAILED"))
    return 0 if not problems else 1
