"""Paired before/after runs of the benchmark (stdlib only).

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --workload oracle-n6-cold --workload gram-det --pairs 10 --tag pr8

Both sides must be plain copies of their trees (``git archive <commit> |
tar -x -C DIR``), never a git working tree: the same sources read about
0.26 MB higher ``peak_rss_mb`` when run from a working tree than from a
copy (cause not found), which would read as a change in memory.

For every workload, runs ``bench/run.py`` of the parent checkout and of the
change checkout in alternating pairs: pair k runs the parent first when k is
even and the change first when k is odd, so a slow drift of the machine
falls on both sides.  Each run is one ``bench/run.py --workload W --seed S
--trace T --seconds L`` process, where L is the benchmark's own run
length (``run_seconds`` in the change's BENCHMARK.json); its last stdout
line is the result and the line before it the environment record.

Writes ``BENCH_<tag>.json`` (``--out`` overrides the path) with every run's
metrics and environment (``source_sha256``, ``git_commit``, ``nproc``,
``python``, ``platform``, as ``bench/run.py`` reports them), the median and
quartiles of each metric on each side, and the number of pairs the change
won; a pair is won when the change's value is better in the direction
BENCHMARK.json gives for that metric.  Each run also keeps ``call_s``, the
median seconds of every argv over its untraced repetitions (``bench/run.py``
records them), and the entry's ``call_s`` summarizes those per argv and
side, so a gain confined to one call shows where it sits.  Quartiles are
``statistics.quantiles(..., n=4, method="inclusive")``.  Entries are keyed
``<workload> seed=<S> trace=<T>``; an existing file keeps the entries this
call does not rerun; each entry records the run length in ``seconds``.
Exits 1 if a run fails to produce a result or reports a failed operation.

Its last stdout lines give, for every workload run and every end-to-end
metric of BENCHMARK.json, the parent and change medians, the parent's IQR,
the pairs the change won and the run length, and end with one verdict
(``verdict``): ``gain``, ``worse than bound``, ``unresolved`` or
``within bound``, read against the metric's relative ``bound`` in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SHOWN = ("wall_s", "peak_rss_mb", "coeff.mul_calls")   # printed per run
KEPT = ("source_sha256", "git_commit", "nproc", "python", "platform")


def run_bench(checkout, workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr.strip()[-500:]))
    env = json.loads(lines[-2])["environment"]
    result = json.loads(lines[-1])
    call_s = {}
    for rep in env["repetitions"]:
        if not rep["traced"]:
            for argv, seconds in zip(env["argvs"], rep["call_s"]):
                call_s.setdefault(" ".join(argv), []).append(seconds)
    call_s = {argv: statistics.median(v) for argv, v in call_s.items()}
    return {"started": start, "correct": result["correct"],
            "environment": {name: env[name] for name in KEPT},
            "call_s": call_s,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def directions(checkout):
    """The better direction of every metric, the end-to-end metrics'
    bounds by name in BENCHMARK.json's order, and its run length in
    seconds."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["better"]
             for m in spec["end_to_end"] + spec["per_layer"]},
            {m["name"]: m["bound"] for m in spec["end_to_end"]},
            spec["run_seconds"])


def summary(values):
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def compare(runs, better):
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    names = sorted(set(runs[0]["metrics"]))
    out = {}
    for name in names:
        sides = {side: [r["metrics"][name] for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        won = 0
        for pair in by_pair.values():
            a, b = pair["parent"][name], pair["change"][name]
            won += b < a if better.get(name, "lower") == "lower" else b > a
        out[name] = {"better": better.get(name, "lower"),
                     "parent": summary(sides["parent"]),
                     "change": summary(sides["change"]),
                     "pairs_won": won, "pairs": len(by_pair)}
    return out


def call_summary(runs):
    out = {}
    for run in runs:
        for argv, seconds in run["call_s"].items():
            out.setdefault(argv, {}).setdefault(run["side"], []).append(
                seconds)
    return {argv: {side: summary(values) for side, values in sides.items()}
            for argv, sides in out.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--out", help="output path (default BENCH_<tag>.json)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    out_path = args.out or "BENCH_%s.json" % args.tag
    better, bounds, seconds = directions(args.change)
    report = {"tag": args.tag, "workloads": {}}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    setting = {"seed": args.seed, "trace": args.trace, "pairs": args.pairs,
               "seconds": seconds}
    status = 0
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change")
            for side in order if pair % 2 == 0 else reversed(order):
                checkout = args.parent if side == "parent" else args.change
                try:
                    res = run_bench(checkout, workload, args.seed,
                                    args.trace, seconds)
                except RuntimeError as err:
                    print("bench_pairs: %s" % err, file=sys.stderr)
                    return 1
                if not res["correct"]:
                    status = 1
                runs.append(dict(res, pair=pair, side=side))
                shown = " ".join("%s=%.4g" % (name, res["metrics"][name])
                                 for name in SHOWN if name in res["metrics"])
                print("%s pair %d %s: %s" % (workload, pair, side, shown),
                      file=sys.stderr)
        key = "%s seed=%d trace=%d" % (workload, args.seed, args.trace)
        report["workloads"][key] = dict(setting, runs=runs,
                                        metrics=compare(runs, better),
                                        call_s=call_summary(runs))
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("wrote %s" % out_path)
    for workload in args.workload:
        key = "%s seed=%d trace=%d" % (workload, args.seed, args.trace)
        metrics = report["workloads"][key]["metrics"]
        for name, bound in bounds.items():
            if name in metrics:
                print(summary_line(key, name, metrics[name], seconds, bound))
    return status


def verdict(m, bound):
    """How one end-to-end metric reads, first match wins:
    ``gain`` when the change won at least 9/10 of the pairs and its median
    is better than the parent's by more than the parent's IQR;
    ``worse than bound`` when its median is worse than the parent's by more
    than ``bound`` times the parent's median;
    ``unresolved`` when the parent's IQR exceeds ``bound`` times its
    median, so the runs spread too widely to tell;
    ``within bound`` otherwise."""
    parent, change = m["parent"]["median"], m["change"]["median"]
    gain = parent - change if m["better"] == "lower" else change - parent
    if 10 * m["pairs_won"] >= 9 * m["pairs"] and gain > m["parent"]["iqr"]:
        return "gain"
    if -gain > bound * abs(parent):
        return "worse than bound"
    if m["parent"]["iqr"] > bound * abs(parent):
        return "unresolved"
    return "within bound"


def summary_line(key, name, m, seconds, bound):
    """One workload's end-to-end metric: the two medians, the parent's
    IQR, the pairs the change won and the run length, the figures a
    claimed gain is read from, and last the verdict."""
    return ("%s %s: parent median %.4g, change median %.4g, parent IQR "
            "%.4g, change won %d/%d pairs (%s is better; %g s runs): %s"
            % (key, name, m["parent"]["median"], m["change"]["median"],
               m["parent"]["iqr"], m["pairs_won"], m["pairs"], m["better"],
               seconds, verdict(m, bound)))


if __name__ == "__main__":
    sys.exit(main())
