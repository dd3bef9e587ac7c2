"""Command line surface.

Subcommands: classify, classify-brauer, gram, dims, verify, oracle and
sweep.  Output is deterministic.  Exit codes: 0 success, 1 domain
error or failed internal check (reported as one ``error:`` line on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bmw as B
from . import cellmod as CM
from . import classify as CL
from . import oracle as OR
from . import verify as V
from .coeff import ParamSpec


def _parse_partition(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("partition must look like (3,2,1) or ()")
    inner = text[1:-1].strip().rstrip(",")
    if not inner:
        return ()
    return tuple(int(part) for part in inner.split(","))


def _parse_rform(text):
    text = text.strip()
    if text == "generic":
        return "generic"
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    elif text.startswith("+"):
        text = text[1:]
    if text == "q":
        return (sign, 1)
    if text.startswith("q^"):
        try:
            return (sign, int(text[2:]))
        except ValueError:
            pass
    raise ValueError("r must be generic or ±q^a")


def _spec_from_args(args):
    if args.q0 is not None or args.r0 is not None:
        if args.p in (None, 0):
            raise ValueError("concrete specs need a prime --p")
        if args.q0 is None or args.r0 is None:
            raise ValueError("concrete specs need both --q0 and --r0")
        if any(getattr(args, name) is not None for name in ("e", "r", "qe")):
            raise ValueError("a concrete point --q0 --r0 fixes e, r and the "
                             "sign of q^e; do not also give --e, --r or --qe")
        return ParamSpec.concrete(args.p, args.q0, args.r0)
    e = None if args.e in (None, 0) else args.e
    if e is None and args.qe is not None:
        raise ValueError("--qe needs a finite order --e: q^e has no sign "
                         "when ord(q^2) is infinite")
    p = None if args.p in (None, 0) else args.p
    r = _parse_rform(args.r) if args.r is not None else "generic"
    qe = {"+1": 1, "-1": -1, None: 0}[args.qe]
    return ParamSpec.symbolic(e=e, p=p, r=r, qe=qe)


def _emit(args, payload, text_lines):
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _add_spec_args(sub):
    sub.add_argument("--r", help="r=generic or ±q^a, e.g. q^-1, -q^3")
    sub.add_argument("--e", type=int, help="order of q^2 (0 = infinite)")
    sub.add_argument("--p", type=int, help="characteristic (0 = zero)")
    sub.add_argument("--qe", choices=["+1", "-1"], help="sign of q^e")
    sub.add_argument("--q0", type=int, help="concrete q over GF(p)")
    sub.add_argument("--r0", type=int, help="concrete r over GF(p)")


def build_parser():
    ap = argparse.ArgumentParser(prog="bmwgram",
                                 description="Exact BMW-algebra engine: "
                                             "Gram matrices, determinants "
                                             "and singular parameters.")
    ap.add_argument("--output", choices=["json", "text", "csv"],
                    default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="singularity of (r, q) for degree n")
    c.add_argument("--n", type=int, required=True)
    _add_spec_args(c)

    cb = sub.add_parser("classify-brauer", help="Brauer-algebra singularity")
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--delta", type=int, required=True)
    cb.add_argument("--p", type=int, default=0, help="characteristic (0 = zero)")

    g = sub.add_parser("gram", help="Gram matrix of one cell")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--f", type=int, required=True)
    g.add_argument("--lambda", dest="lam", required=True,
                   help='partition, e.g. "(2,1)"')
    g.add_argument("--subst", help="substitution r=±q^a, e.g. r=q^-1")
    g.add_argument("--det", action="store_true",
                   help="print the determinant (unit-normalized)")
    g.add_argument("--rank", action="store_true",
                   help="rank over GF(p); needs --p --q0 --r0")
    _add_spec_args(g)

    d = sub.add_parser("dims", help="cell dimension table")
    d.add_argument("--n", type=int, required=True)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=sorted(V.SUITES))
    v.add_argument("--nmax", type=int)

    o = sub.add_parser("oracle", help="brute-force singularity over GF(p)")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--q0", type=int, required=True)
    o.add_argument("--r0", type=int, required=True)

    s = sub.add_parser("sweep", help="oracle vs classifier agreement sweep")
    s.add_argument("--nmax", type=int, default=4)
    s.add_argument("--primes", default=",".join(map(str, OR.DEFAULT_PRIMES)))
    return ap


def _emit_verdict(args, verdict):
    _emit(args, verdict.to_json(),
          ["singular: %s" % verdict.singular,
           "clause: %s" % verdict.clause]
          + (["notes: %s" % verdict.notes] if verdict.notes else []))


def cmd_classify(args):
    spec = _spec_from_args(args)
    _emit_verdict(args, CL.classify_bmw(args.n, spec))
    return 0


def cmd_classify_brauer(args):
    p = None if args.p == 0 else args.p
    _emit_verdict(args, CL.classify_brauer(args.n, args.delta, p))
    return 0


def _rank_point(args, subst):
    """The concrete point of ``gram --rank`` (None without --rank); every
    regime option gram would drop is refused."""
    if not args.rank:
        if any(getattr(args, name) is not None
               for name in ("r", "e", "qe", "p", "q0", "r0")):
            raise ValueError("gram takes no --r, --e or --qe (substitute r "
                             "by --subst), and --p --q0 --r0 only with --rank")
        return None
    spec = _spec_from_args(args)
    if not spec.is_concrete():
        raise ValueError("--rank needs a concrete spec")
    if subst is not None:
        sign, a = subst
        want = sign * pow(spec.q0, a, spec.p) % spec.p
        if spec.r0 != want:
            raise ValueError("--subst %s needs r0 = %d mod %d at q0 = %d, "
                             "not %d" % (args.subst, want, spec.p, spec.q0,
                                         spec.r0))
    return spec


def cmd_gram(args):
    lam = _parse_partition(args.lam)
    cell = CM.CellIndex(args.n, args.f, lam)
    subst = None
    if args.subst:
        key, _, val = args.subst.partition("=")
        if key.strip() != "r":
            raise ValueError("only substitutions of r are supported")
        subst = _parse_rform(val)
        if subst == "generic":
            raise ValueError("--subst takes r=±q^a; for generic r leave "
                             "--subst out")
        if abs(subst[1]) > CM.SUBST_MAX_EXP:
            raise ValueError("--subst %s outside the budget |a| <= %d"
                             % (args.subst, CM.SUBST_MAX_EXP))
    spec = _rank_point(args, subst)
    gram = CM.gram_matrix(cell)
    if spec is not None:
        rank = CM.gram_rank(cell, spec)   # r0 = ±q0^a by _rank_point
        _emit(args, {"cell": gram.to_json()["cell"], "rank": rank,
                     "dim": gram.dim()},
              ["rank = %d of %d" % (rank, gram.dim())])
        return 0
    if subst is not None:
        gram = gram.substitute_r(*subst)
    if args.det:
        det = CM.gram_det(gram)
        if det.is_zero():
            _emit(args, {"det": "0"}, ["det = 0"])
            return 0
        unit, core = det.normalize_unit()
        _emit(args, {"det": str(det), "unit": str(unit), "core": str(core)},
              ["det = %s * (%s)" % (unit, core)])
        return 0
    _emit(args, gram.to_json(),
          ["cell (%d, %s) at n=%d, dimension %d"
           % (cell.f, list(cell.lam), cell.n, gram.dim())]
          + ["  ".join(str(e) for e in row) for row in gram.entries])
    return 0


def cmd_dims(args):
    dims = CM.cell_dims(args.n)
    total = sum(d * d for d in dims.values())
    rows = sorted(((c.f, c.lam, d) for c, d in dims.items()))
    payload = {"n": args.n,
               "cells": [{"f": f, "lambda": list(lam), "dim": d}
                         for f, lam, d in rows],
               "sum_of_squares": total,
               "double_factorial": B.basis_size(args.n)}
    if args.output == "csv":
        print("f,lambda,dim")
        for f, lam, d in rows:
            print("%d,\"%s\",%d" % (f, list(lam), d))
        return 0
    _emit(args, payload,
          ["f=%d lambda=%-12s dim=%d" % (f, str(list(lam)), d)
           for f, lam, d in rows]
          + ["sum of squares = %d (%s!! check: %d)"
             % (total, 2 * args.n - 1 if args.n else "(-1)",
                B.basis_size(args.n))])
    return 0


def cmd_verify(args):
    results = V.run_suite(args.suite, args.nmax)
    failed = [name for name, ok, _d in results if not ok]
    for name, ok, detail in results:
        line = "%s: %s" % (name, "PASS" if ok else "FAIL")
        if detail and not ok:
            line += " (%s)" % detail
        print(line)
    print("%d/%d passed" % (len(results) - len(failed), len(results)))
    return 0 if not failed else 1


def cmd_oracle(args):
    spec = ParamSpec.concrete(args.p, args.q0, args.r0)
    report = OR.singular_oracle(args.n, spec)
    if args.output == "csv":
        print("f,lambda,dim_induced,dim_simple")
        for f, lam, a, b in report.table:
            print("%d,\"%s\",%d,%d" % (f, list(lam), a, b))
        return 0
    _emit(args, report.to_json(),
          ["singular: %s" % report.singular]
          + ["f=%d lambda=%-10s induced=%d simple=%d"
             % (f, str(list(lam)), a, b) for f, lam, a, b in report.table])
    return 0


def cmd_sweep(args):
    if not 2 <= args.nmax <= CM.DEFAULT_MAX_N:
        raise ValueError("nmax %d outside the budget 2..%d"
                         % (args.nmax, CM.DEFAULT_MAX_N))
    primes = tuple(int(x) for x in args.primes.split(","))
    rows, disagreements = OR.agreement_sweep(ns=range(2, args.nmax + 1),
                                             primes=primes)
    disagreements = [(n, str(spec), rep.singular, verdict.singular)
                     for n, spec, rep, verdict in disagreements]
    if args.output == "csv":
        print("n,spec,oracle,classifier")
        for n, spec, a, b in rows:
            print('%d,"%s",%s,%s' % (n, spec, a, b))
    else:
        _emit(args, {"rows": len(rows),
                     "disagreements": [list(r) for r in disagreements]},
              ["%d regimes checked, %d disagreements"
               % (len(rows), len(disagreements))]
              + ["DISAGREE n=%d %s oracle=%s classifier=%s" % row
                 for row in disagreements])
    return 0 if not disagreements else 1


COMMANDS = {
    "classify": cmd_classify,
    "classify-brauer": cmd_classify_brauer,
    "gram": cmd_gram,
    "dims": cmd_dims,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, KeyError, ArithmeticError, RuntimeError,
            AssertionError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
