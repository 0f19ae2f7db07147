"""Run perfbench in alternating parent/change pairs and write BENCH_<n>.json.

Usage:
    python tools/bench_pairs.py --parent DIR --change DIR --out BENCH_28.json \
        [--pairs 3] [--seed 1] [--workloads erm_train,stream_unidg] \
        [--parent-rev SHA] [--what TEXT] [--trace cli_pipeline] [--control DIR]

Each DIR is the root of a checkout, say a `git archive` of the parent commit
and the working tree of the change: it holds `perfbench/run.py` and `src/`.
Before each run, that side's `src/`, `perfbench/` and BENCHMARK.json are
copied, without `__pycache__` and `.git`, into one staging directory (a
fresh temporary directory per invocation, removed at the end; `stage`), and
the run starts from there. Every side thus runs from the same path bytes,
so neither a checkout's path nor what else lies in it can favour a side.
The file records each side's root ("roots") and the staging path ("stage").
Every run is `python3 perfbench/run.py --workload W --seed S --seconds T`,
started from the staging directory, with T the `run_seconds` of the change's
BENCHMARK.json, and with the environment variable BENCH_PAIRS_PAD set to a
run of "x" whose length (0 to 4095 bytes) is drawn for each run, in the
order the runs start, from random.Random(S) (`pad_lengths`); the file
records each run's length as its "pad". The environment sits at the top of
the stack, so its size moves where a run's stack and what follows it lie:
a layout that happens to suit one side is spread over the runs instead of
always falling to it (the layout randomisation of Stabilizer, Curtsinger
and Berger, ASPLOS 2013). Pair k runs each workload once on each side, in
the order of `side_order`, which rotates the sides by one place per pair,
so each side runs first once in every len(sides) pairs. The workload
order of each pair is shuffled by a generator seeded with S, and the file
records it, so that no workload always runs after the same one.

The file keeps, per run, the `env:` line, the `wall.op_ms_p50` report line
(unscaled milliseconds) and the final JSON line. Per workload it gives the
median and quartiles (inclusive method) of each metric on each side, the
change's median over the parent's, and for each end-to-end metric of the
change's BENCHMARK.json, and for `wall.op_ms_p50`, the number of pairs in
which the change was better in that metric's `better` direction
(`change_better_in_pairs`; a tie counts for neither side). The workloads
default to those of the change's BENCHMARK.json; a subset serves to run one
workload alone.

With --control, a second copy of the parent (say another `git archive` of
it, in another directory) runs as a third side in every pair. The
three sides rotate over each block of three pairs (parent, change, control;
then change, control, parent; then control, parent, change), so each side
runs first, second and last once per block. Beside each A/B
entry the file then gives the A/A one, the control's median over the
parent's (`control_over_parent`) and the pairs the control won
(`control_better_in_pairs`): what the layout of a checkout alone moves. A
change's ratio means something only outside the control's: a claim counts
only when the change's ratio lies outside the range of the control's
ratios measured on the same seed.

Each workload named by --trace then runs once more per side, parent first,
with `--trace 1`; the file keeps those runs' final JSON lines (per-layer
metrics per operation) under "traced".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change", "control")
PAD_VAR = "BENCH_PAIRS_PAD"
PAD_MAX = 4096  # bytes: one page of stack offsets
STAGED = ("src", "perfbench", "BENCHMARK.json")  # what a run needs of a checkout


def pad_lengths(seed):
    """The padding length of each run, in the order the runs start: an
    endless draw from random.Random(seed), so one seed repeats its lengths."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(PAD_MAX)


def side_order(sides, pair):
    """The order in which the sides run in `pair` (counted from 1): the
    sides rotate by one place per pair."""
    shift = (pair - 1) % len(sides)
    return sides[shift:] + sides[:shift]


def stage(root, path):
    """Replaces `path` with a copy of the STAGED entries of the checkout at
    `root`, leaving out `__pycache__` and `.git`."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    skip = shutil.ignore_patterns("__pycache__", ".git")
    for name in STAGED:
        source = os.path.join(root, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(path, name), ignore=skip)
        else:
            shutil.copy2(source, os.path.join(path, name))


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
    p.add_argument("--trace", default="",
                   help="comma-separated workloads to run once per side with --trace 1")
    p.add_argument("--control", help="root of a second copy of the parent, run as a third side")
    return p.parse_args(argv)


def run_once(root, staging, workload, seed, seconds, pad, trace=False) -> dict:
    """One perfbench run of the checkout at `root`, staged at `staging`, with
    `pad` bytes in PAD_VAR: the pad, its exit code, env line, wall op time
    and final JSON line (None where the output lacks one)."""
    stage(root, staging)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", "1"]
    proc = subprocess.run(cmd, cwd=staging, capture_output=True, text=True,
                          env={**os.environ, PAD_VAR: "x" * pad})
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[len("env:"):]) for ln in lines if ln.startswith("env:")), None)
    wall = next((float(ln.split()[1]) for ln in lines if ln.startswith("wall.op_ms_p50 ")),
                None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
        sys.stderr.write(proc.stderr)
    return {"pad": pad, "rc": proc.returncode, "env": env, "wall.op_ms_p50": wall,
            "result": result}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs, pairs, better) -> dict:
    """Per-metric medians and quartiles of one workload's runs, by side, and
    for each metric in `better` ({name: "lower" or "higher"}) the number of
    pairs the change won, and the control when it ran."""
    def value(run, name):
        if name == "wall.op_ms_p50":
            return run["wall.op_ms_p50"]
        return run["result"]["metrics"][name]["value"]

    ok = [r for r in runs if r["result"] is not None]
    if not ok:
        return {"pairs": pairs, "runs_without_result": len(runs)}
    sides = [side for side in SIDES if any(r["side"] == side for r in ok)]
    first = ok[0]["result"]["metrics"]
    units = {name: m["unit"] for name, m in first.items()} | {"wall.op_ms_p50": "ms"}
    metrics = {}
    for name, unit in units.items():
        by_side = {side: {r["pair"]: value(r, name) for r in ok if r["side"] == side}
                   for side in sides}
        entry = {"unit": unit, **{side: spread(list(by_side[side].values())) for side in sides}}
        for side in sides[1:]:
            entry[f"{side}_over_parent"] = entry[side]["median"] / entry["parent"]["median"]
            if name in better:
                sign = 1 if better[name] == "higher" else -1
                both = set(by_side["parent"]) & set(by_side[side])
                entry[f"{side}_better_in_pairs"] = sum(
                    sign * (by_side[side][k] - by_side["parent"][k]) > 0 for k in both)
        metrics[name] = entry
    return {
        "pairs": pairs,
        "metrics": metrics,
        **{key: {side: sum(r["result"][key] for r in ok if r["side"] == side)
                 for side in sides} for key in ("attempted", "failed")},
        "runs_without_result": sum(r["result"] is None for r in runs),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if args.control:
        roots["control"] = os.path.abspath(args.control)
    sides = tuple(roots)
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    if args.workloads:
        workloads = args.workloads.split(",")
    else:
        workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    better["wall.op_ms_p50"] = "lower"
    shuffle = random.Random(args.seed)
    pads = pad_lengths(args.seed)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        staging = os.path.join(tmp, "tree")
        runs, orders = [], {}
        for pair in range(1, args.pairs + 1):
            order = shuffle.sample(workloads, len(workloads))
            orders[pair] = order
            for workload in order:
                for side in side_order(sides, pair):
                    run = {"pair": pair, "workload": workload, "side": side,
                           **run_once(roots[side], staging, workload, args.seed, seconds,
                                      next(pads))}
                    runs.append(run)
                    result = run["result"] or {}
                    op = result.get("metrics", {}).get("op_ms_p50", {}).get("value")
                    print(f"pair {pair} {workload} {side}: rc {run['rc']}, op_ms_p50 {op}, "
                          f"wall.op_ms_p50 {run['wall.op_ms_p50']}",
                          file=sys.stderr, flush=True)
        doc = {
            "what": args.what,
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                       f"--seconds {seconds:g}",
            "parent": args.parent_rev,
            "sides": list(sides),
            "roots": roots,
            "stage": staging,
            "order": f"the sides rotate by one place per pair (side_order); each "
                     f"pair's workload order is shuffled by random.Random({args.seed}) "
                     f"(workload_orders)",
            "workload_orders": orders,
            "env": next((r["env"] for r in runs if r["env"]), None),
            "host": f"{os.cpu_count()}-core {platform.machine()}",
            "workloads": {w: summary([r for r in runs if r["workload"] == w], args.pairs, better)
                          for w in workloads},
            "runs": runs,
            "traced": {w: {side: run_once(roots[side], staging, w, args.seed, seconds,
                                          next(pads), trace=True)
                           for side in sides[:2]} for w in filter(None, args.trace.split(","))},
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    traced = [r for by_side in doc["traced"].values() for r in by_side.values()]
    return 0 if all(r["rc"] == 0 for r in runs + traced) else 1


if __name__ == "__main__":
    sys.exit(main())
