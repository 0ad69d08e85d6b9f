#!/usr/bin/env python3
"""Collects sets of benchmark runs and says whether two sets agree.

Run from the root of a checkout.

  python3 fsdmbench/agree.py collect OUT.jsonl [--workloads ingest olap mixed]
          [--seeds 1-10]
      Runs fsdmbench/run.py untraced once per workload and seed (run length
      from BENCHMARK.json) and appends one JSON line per run to OUT.jsonl.

  python3 fsdmbench/agree.py compare A.jsonl [B.jsonl]
      For each workload and end-to-end metric of BENCHMARK.json, prints the
      median and quartiles of each set and the spread (the distance between
      the quartiles as a share of the median). With two sets it also prints
      whether they agree (the medians differ, in either direction, by no
      more than the metric's bound as a share of A's median), disagree, or
      are unresolved because a spread is wider than the bound. It exits
      non-zero when any pair disagrees or is unresolved, when a spread is
      wider than its bound, or when the share of failed operations differs
      between the sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args, spec):
    for workload in args.workloads:
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, universal_newlines=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            rec = {"workload": workload, "seed": seed, "exit": proc.returncode,
                   "result": result}
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
            brief = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()
                     if k in {m["name"] for m in spec["end_to_end"]}}
            print(workload, seed, "exit", proc.returncode, brief, flush=True)


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def failed_share(recs):
    att = sum(r["result"]["attempted"] for r in recs if r["result"])
    fail = sum(r["result"]["failed"] for r in recs if r["result"])
    return fail / att if att else float("nan")


def compare(args, spec):
    sets = [load_runs(p) for p in args.sets]
    bad = False
    for workload in sorted(set().union(*[s.keys() for s in sets])):
        groups = [s.get(workload, []) for s in sets]
        shares = [failed_share(g) for g in groups]
        print("== %s: runs %s, failed share %s" %
              (workload, "/".join(str(len(g)) for g in groups),
               "/".join("%.6f" % x for x in shares)))
        if any(r["exit"] != 0 or not r["result"] for g in groups for r in g):
            print("   some runs exited non-zero or printed no result")
            bad = True
        if len(groups) == 2 and shares[0] != shares[1]:
            bad = True
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            stats = []
            for g in groups:
                vals = [r["result"]["metrics"][name]["value"] for r in g
                        if r["result"] and name in r["result"]["metrics"]]
                if not vals:
                    cols.append("%-40s" % "no values")
                    stats.append(None)
                    continue
                med, q1, q3, spread = summary(vals)
                stats.append((med, spread))
                cols.append("med %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f" %
                            (med, q1, q3, spread))
                if spread > bound:
                    bad = True
            verdict = ""
            if len(stats) == 2 and None not in stats:
                (ma, sa), (mb, sb) = stats
                worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                if max(sa, sb) > bound:
                    verdict = "unresolved (spread above bound %.2f)" % bound
                elif abs(worse) <= bound:
                    verdict = "agree (B worse by %+.3f, bound %.2f)" % (worse, bound)
                else:
                    verdict = "DISAGREE (B worse by %+.3f, bound %.2f)" % (worse, bound)
                    bad = True
            print("   %-24s %s  %s" % (name, " | ".join(cols), verdict))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workloads", nargs="+", default=["ingest", "olap", "mixed"])
    c.add_argument("--seeds", default="1-10")
    k = sub.add_parser("compare")
    k.add_argument("sets", nargs="+")
    args = p.parse_args()
    spec = load_spec()
    if args.cmd == "collect":
        collect(args, spec)
        return 0
    return compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
