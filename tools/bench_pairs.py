"""Run perfbench in alternating parent/change pairs and write BENCH_<n>.json.

Usage:
    python tools/bench_pairs.py --parent DIR --change DIR --out BENCH_28.json \
        [--pairs 3] [--seed 1] [--workloads erm_train,stream_unidg] \
        [--parent-rev SHA] [--what TEXT]

Each DIR is the root of a checkout, say a `git archive` of the parent commit
and the working tree of the change: it holds `perfbench/run.py` and `src/`.
Every run is `python3 perfbench/run.py --workload W --seed S --seconds T`,
started from that root, with T the `run_seconds` of the change's
BENCHMARK.json. Pair k runs each workload once on each side. The parent
runs first in odd pairs and the change first in even ones. The workload
order of each pair is shuffled by a generator seeded with S, and the file
records it, so that no workload always runs after the same one.

The file keeps, per run, the `env:` line, the `wall.op_ms_p50` report line
(unscaled milliseconds) and the final JSON line. Per workload it gives the
median and quartiles (inclusive method) of each metric on each side, the
change's median over the parent's, and for the two op times the number of
pairs in which the change was faster. The workloads default to those of the
change's BENCHMARK.json; a subset serves to run one workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRED = ("op_ms_p50", "wall.op_ms_p50")  # the times counted pair by pair


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="root of the parent's checkout")
    p.add_argument("--change", required=True, help="root of the change's checkout")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--seed", type=int, default=1,
                   help="perfbench's --seed, which also seeds the workload order")
    p.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    p.add_argument("--parent-rev", help="the parent's commit, recorded as given")
    p.add_argument("--what", default="", help="one sentence on the change measured")
    return p.parse_args(argv)


def run_once(root, workload, seed, seconds) -> dict:
    """One perfbench run from `root`: its exit code, env line, wall op time
    and final JSON line (None where the output lacks one)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[len("env:"):]) for ln in lines if ln.startswith("env:")), None)
    wall = next((float(ln.split()[1]) for ln in lines if ln.startswith("wall.op_ms_p50 ")),
                None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
        sys.stderr.write(proc.stderr)
    return {"rc": proc.returncode, "env": env, "wall.op_ms_p50": wall, "result": result}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs, pairs) -> dict:
    """Per-metric medians and quartiles of one workload's runs, by side."""
    def value(run, name):
        if name == "wall.op_ms_p50":
            return run["wall.op_ms_p50"]
        return run["result"]["metrics"][name]["value"]

    ok = [r for r in runs if r["result"] is not None]
    if not ok:
        return {"pairs": pairs, "runs_without_result": len(runs)}
    first = ok[0]["result"]["metrics"]
    units = {name: m["unit"] for name, m in first.items()} | {"wall.op_ms_p50": "ms"}
    metrics = {}
    for name, unit in units.items():
        by_side = {side: {r["pair"]: value(r, name) for r in ok if r["side"] == side}
                   for side in SIDES}
        entry = {"unit": unit, **{side: spread(list(by_side[side].values())) for side in SIDES}}
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        if name in PAIRED:
            both = set(by_side["parent"]) & set(by_side["change"])
            entry["change_faster_in_pairs"] = sum(
                by_side["change"][k] < by_side["parent"][k] for k in both)
        metrics[name] = entry
    return {
        "pairs": pairs,
        "metrics": metrics,
        **{key: {side: sum(r["result"][key] for r in ok if r["side"] == side)
                 for side in SIDES} for key in ("attempted", "failed")},
        "runs_without_result": sum(r["result"] is None for r in runs),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    if args.workloads:
        workloads = args.workloads.split(",")
    else:
        workloads = [w["name"] for w in bench["workloads"]]
    shuffle = random.Random(args.seed)
    runs, orders = [], {}
    for pair in range(1, args.pairs + 1):
        order = shuffle.sample(workloads, len(workloads))
        orders[pair] = order
        sides = SIDES if pair % 2 else SIDES[::-1]
        for workload in order:
            for side in sides:
                run = {"pair": pair, "workload": workload, "side": side,
                       **run_once(roots[side], workload, args.seed, seconds)}
                runs.append(run)
                result = run["result"] or {}
                op = result.get("metrics", {}).get("op_ms_p50", {}).get("value")
                print(f"pair {pair} {workload} {side}: rc {run['rc']}, op_ms_p50 {op}, "
                      f"wall.op_ms_p50 {run['wall.op_ms_p50']}", file=sys.stderr, flush=True)
    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g}",
        "parent": args.parent_rev,
        "order": "pairs alternate which side runs first: parent first in odd pairs, change "
                 f"first in even ones; each pair's workload order is shuffled by "
                 f"random.Random({args.seed}) (workload_orders)",
        "workload_orders": orders,
        "env": next((r["env"] for r in runs if r["env"]), None),
        "host": f"{os.cpu_count()}-core {platform.machine()}",
        "workloads": {w: summary([r for r in runs if r["workload"] == w], args.pairs)
                      for w in workloads},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["rc"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
