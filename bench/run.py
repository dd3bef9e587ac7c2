"""End-to-end and per-layer benchmark of bmwgram (stdlib only).

    python3 bench/run.py --workload oracle-n6-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload gram-det --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload sweep-n5 --seed 1 --seconds 1 --trace 0 --smoke
    python3 bench/run.py --record

Every repetition of a workload runs in a fresh interpreter (bench/worker.py),
so the package's in-process caches start cold, and drives the package the
way a user does: ``bmwgram.cli.main(argv)`` with stdout captured, one
thread.  Repetitions continue while another one fits in ``--seconds``
(at least one); the end-to-end metrics are medians over them.  With
``--trace 1`` one untraced repetition is followed by profiled ones, and the
per-layer metrics come from the profile.

Every call's stdout must equal the bytes recorded in bench/reference.json,
its exit code must be 0, and every oracle verdict must agree with
``classify_bmw``; anything else counts as a failed operation.  ``--record``
rewrites the reference file from the code as it stands.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and every repetition.  NOTES.md gives each workload's rationale.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
PACKAGE_DIR = os.path.join(ROOT, "src", "bmwgram")

SETUP_PROBES = 5          # minimum number of interpreters started only
                          # to time set-up
TIME_LIMIT_S = 170        # the whole run must end well within 180 s

# -- workloads ---------------------------------------------------------------

ORACLE_PRIMES = (11, 13)
ORACLE_REGIMES = 8
# Every oracle regime has ord(q^2) = 2.  The first n = 6 verdict then builds
# the Gram matrices of the 2-restricted cells (2,1,1), (1^4), (1,1) and ()
# in about 5 s; a regime with ord(q^2) >= 5 would also build (4), (3,1),
# (2,2) and (2) and take over a minute, which no repeated run can afford.
ORACLE_ORDER_QSQ = 2
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# (n, f, lambda, r) of every `gram --det` call.  Each repetition is kept
# short (about 6 s) so that a run holds several; the 30- and 45-dimensional
# n = 6 determinants at r = q^-1 take 14 s and 45 s alone and are left out.
# The f = 0 cell runs at one r only: building its Gram matrix dominates the
# call, and a second r would only build it again.
GRAM_DET_CELLS = [
    (6, 3, "()", "q^-1"), (6, 3, "()", "-q"),
    (6, 1, "(1,1,1,1)", "q^-1"), (6, 1, "(1,1,1,1)", "-q"),
    (6, 2, "(1,1)", "-q"),
    (5, 1, "(2,1)", "q^-1"), (5, 1, "(2,1)", "-q"),
    (5, 2, "(1)", "q^-1"), (5, 2, "(1)", "-q"),
    (5, 0, "(4,1)", "q^-1"),
]
SMOKE_GRAM_DET_CELLS = [(3, 1, "(1)", "q^-1")]


def concrete_regimes(primes):
    """(p, q0, r0) with q0^2 != 1, in the order of oracle.sweep_specs."""
    return [(p, q0, r0) for p in primes for q0 in range(2, p - 1)
            if q0 * q0 % p != 1 for r0 in range(1, p)]


def order_qsq(p, q0):
    q2 = q0 * q0 % p
    k, x = 1, q2
    while x != 1:
        x = x * q2 % p
        k += 1
    return k


ORACLE_POOL = [reg for reg in concrete_regimes(ORACLE_PRIMES)
               if order_qsq(reg[0], reg[1]) == ORACLE_ORDER_QSQ]


def oracle_argv(n, regime):
    p, q0, r0 = regime
    return ["--output", "json", "oracle", "--n", str(n), "--p", str(p),
            "--q0", str(q0), "--r0", str(r0)]


def gram_argv(cell):
    n, f, lam, r = cell
    return ["--output", "json", "gram", "--n", str(n), "--f", str(f),
            "--lambda", lam, "--subst", "r=" + r, "--det"]


def sweep_argv(nmax):
    return ["--output", "json", "sweep", "--nmax", str(nmax),
            "--primes", ",".join(map(str, SWEEP_PRIMES))]


def sweep_regimes(nmax):
    return (nmax - 1) * len(concrete_regimes(SWEEP_PRIMES))


def workload(name, seed, smoke):
    """(argvs, results) of one repetition; results counts the verdicts,
    determinants or sweep regimes the argvs produce."""
    if name == "oracle-n6-cold":
        chosen = random.Random(seed).sample(ORACLE_POOL, ORACLE_REGIMES)
        argvs = [oracle_argv(4 if smoke else 6, reg) for reg in chosen]
        return argvs, len(argvs)
    if name == "gram-det":
        cells = SMOKE_GRAM_DET_CELLS if smoke else GRAM_DET_CELLS
        return [gram_argv(c) for c in cells], len(cells)
    if name == "sweep-n5":
        nmax = 3 if smoke else 5
        return [sweep_argv(nmax)], sweep_regimes(nmax)
    raise KeyError(name)


WORKLOADS = ("oracle-n6-cold", "gram-det", "sweep-n5")


def reference_argvs():
    """Every argv any seed can generate, full size and smoke."""
    out = [oracle_argv(n, reg) for n in (6, 4) for reg in ORACLE_POOL]
    out += [gram_argv(c) for c in GRAM_DET_CELLS + SMOKE_GRAM_DET_CELLS]
    out += [sweep_argv(5), sweep_argv(3)]
    return out


# -- repetitions ---------------------------------------------------------------

class HarnessError(Exception):
    """The benchmark itself could not run: no result is printed."""


def child_env():
    env = dict(os.environ)
    for key in ("PYTHONPATH", "BMWGRAM_CACHE_DIR", "PYTHONSTARTUP"):
        env.pop(key, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(argvs, trace, deadline):
    """One fresh interpreter running argvs; returns the worker's record
    with ``setup_s`` (spawn to package imported) added."""
    job = json.dumps({"root": ROOT, "argvs": argvs, "trace": trace})
    spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=job,
                              capture_output=True, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        raise HarnessError("repetition exceeded the %d s time limit"
                           % TIME_LIMIT_S) from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError("worker exited with %s: %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["setup_s"] = rec["ready"] - spawn
    rec["rep_s"] = time.monotonic() - spawn
    return rec


def check_calls(rec, reference):
    """Failed operations of one repetition, as (argv, reason) pairs."""
    bad = []
    for call, verdict in zip(rec["calls"], rec["verdicts"]):
        argv = call["argv"]
        expected = reference.get(" ".join(argv))
        if call["error"] is not None:
            bad.append((argv, "exception: " + call["error"].strip()[-500:]))
        elif call["exit"] != 0:
            bad.append((argv, "exit code %s" % call["exit"]))
        elif expected is None:
            bad.append((argv, "no reference output recorded"))
        elif call["stdout"] != expected:
            bad.append((argv, "stdout differs from the reference"))
        elif verdict is not None and \
                json.loads(call["stdout"])["singular"] != verdict:
            bad.append((argv, "oracle disagrees with classify_bmw"))
    return bad


def run_workload(argvs, seconds, trace):
    """Untraced: a set-up probe and a repetition, again while another
    repetition fits in ``seconds``, then probes up to SETUP_PROBES.
    Traced: one untraced repetition, then traced ones while another fits.
    Returns (probes, untraced repetitions, traced repetitions)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    stop = start + seconds
    probes, reps, traced = [], [], []
    if trace:
        reps.append(run_rep(argvs, False, deadline))
        traced.append(run_rep(argvs, True, deadline))
        while time.monotonic() + traced[-1]["rep_s"] <= stop:
            traced.append(run_rep(argvs, True, deadline))
        return probes, reps, traced
    while not reps or time.monotonic() + statistics.median(
            r["rep_s"] for r in reps) <= stop:
        probes.append(run_rep([], False, deadline))
        reps.append(run_rep(argvs, False, deadline))
    while len(probes) < SETUP_PROBES:
        probes.append(run_rep([], False, deadline))
    return probes, reps, traced


# -- metrics -------------------------------------------------------------------

def end_to_end(probes, reps, results):
    walls = [r["end"] - r["start"] for r in reps]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
        "wall_s": statistics.median(walls),
        "results_per_s": statistics.median(results / w for w in walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps, traced):
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    wall = statistics.median(r["end"] - r["start"] for r in reps)
    out["trace.wall_s"] = statistics.median(r["end"] - r["start"]
                                            for r in traced)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / wall
    return out


def environment(name, seed, argvs, smoke):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"workload": name, "seed": seed, "smoke": smoke, "argvs": argvs,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "platform": platform.platform(), "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise HarnessError("cannot read %s: %s" % (path, err)) from None


def bench(args):
    spec = load_json(SPEC)
    reference = load_json(REFERENCE)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "cli.py")):
        raise HarnessError("no bmwgram source under %s" % PACKAGE_DIR)
    argvs, results = workload(args.workload, args.seed, args.smoke)
    probes, reps, traced = run_workload(argvs, args.seconds, args.trace)

    failures = [bad for rec in reps + traced
                for bad in check_calls(rec, reference)]
    attempted = sum(len(rec["calls"]) for rec in reps + traced)
    for argv, reason in failures[:20]:
        print("FAILED %s: %s" % (" ".join(argv), reason), file=sys.stderr)

    if args.trace:
        values = per_layer(reps, traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(probes, reps, results)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = environment(args.workload, args.seed, argvs, args.smoke)
    record["absent"] = sorted(set(a for r in traced for a in r["absent"]))
    record["repetitions"] = [
        {"traced": traced_rep, "setup_s": r["setup_s"],
         "wall_s": r["end"] - r["start"], "peak_rss_mb": r["peak_rss_mb"],
         "call_s": [c["seconds"] for c in r["calls"]]}
        for traced_rep, group in ((False, reps), (True, traced))
        for r in group]
    record["setup_probes_s"] = [r["setup_s"] for r in probes]
    print(json.dumps({"environment": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def record_reference():
    """Run every argv any seed can generate and store its stdout."""
    argvs = reference_argvs()
    rec = run_rep(argvs, False, time.monotonic() + 3600)
    out = {" ".join(call["argv"]): call["stdout"] for call in rec["calls"]}
    bad = check_calls(rec, out)
    if bad:
        raise HarnessError("%s: %s" % (" ".join(bad[0][0]), bad[0][1]))
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d reference outputs in %s" % (len(out), REFERENCE))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs through the same code path")
    ap.add_argument("--record", action="store_true",
                    help="rewrite bench/reference.json and exit")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record_reference()
        elif args.workload is None:
            ap.error("--workload is required")
        else:
            bench(args)
    except HarnessError as err:
        print("bench: %s" % err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
