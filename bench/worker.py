"""One cold repetition of a benchmark workload, in a fresh interpreter.

Reads a JSON job from stdin:

    {"root": <checkout root>, "argvs": [[...], ...], "trace": bool}

imports ``bmwgram`` from ``<root>/src``, calls ``bmwgram.cli.main(argv)``
for every argv in order with stdout captured, and prints one JSON object
with the captured outputs, the timestamps and the peak RSS.  With
``"trace": true`` the calls run under ``cProfile`` and the object also
carries the per-layer figures (see ``layer_metrics``).

Timestamps are ``time.monotonic()`` values, so the parent can subtract its
own spawn time from ``ready`` to get the set-up time.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

# Modules of the package whose self time is reported as <module>.self_s.
LAYER_MODULES = ("coeff", "combin", "hecke", "bmw", "cellmod", "exactla",
                 "classify", "oracle", "cli")

# Public entry points whose call count and cumulative time are read from the
# profile: metric prefix -> (module, qualified name).
ENTRY_POINTS = {
    "coeff.mul": ("coeff", "LaurentPoly.__mul__"),
    "coeff.add": ("coeff", "LaurentPoly.__add__"),
    "coeff.init": ("coeff", "LaurentPoly.__init__"),
    "coeff.specialize": ("coeff", "LaurentPoly.specialize"),
    "bmw.mul_elems": ("bmw", "mul_elems"),
    "hecke.cell_coefficient": ("hecke", "cell_coefficient"),
    "hecke.specht_gram": ("hecke", "specht_gram"),
    "cellmod.gram_matrix": ("cellmod", "gram_matrix"),
    "exactla.bareiss_det": ("exactla", "bareiss_det"),
    "exactla.gf_rank": ("exactla", "gf_rank"),
    "oracle.singular_oracle": ("oracle", "singular_oracle"),
    "oracle.gram_lookup": ("oracle", "_gram"),
    "classify.classify_bmw": ("classify", "classify_bmw"),
}

# Module-level cache tables, read after the run: metric -> (module, name).
TABLES = {
    "bmw.wt_entries": ("bmw", "_WT"),
    "bmw.we_entries": ("bmw", "_WE"),
    "bmw.phi_entries": ("bmw", "_PHI"),
    "oracle.gram_cache_entries": ("oracle", "_GRAM_CACHE"),
}


def _resolve(module, qualname):
    """The code object of module.qualname, or None if it does not exist."""
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return getattr(obj, "__code__", None)


def _import_layers(package):
    import importlib
    modules = {}
    for name in LAYER_MODULES:
        try:
            modules[name] = importlib.import_module(package + "." + name)
        except ModuleNotFoundError:
            modules[name] = None
    return modules


def _wrap_gram_matrix(package, cellmod, counter):
    """Count the upper-triangle entries of every Gram matrix built, by
    wrapping ``cellmod.gram_matrix`` wherever a module of the package has
    bound it.  Returns False if the function does not exist."""
    original = getattr(cellmod, "gram_matrix", None)
    if original is None:
        return False

    def gram_matrix(cell):
        gram = original(cell)
        d = gram.dim()
        counter[0] += d * (d + 1) // 2
        return gram

    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, gram_matrix)
    return True


def layer_metrics(profile, modules, codes, pkg_dir, gram_entries):
    """Per-layer figures from a finished profile.

    Self time is summed by the file each function lives in (``builtin`` for
    C functions, ``other`` for files outside the package).  Call counts and
    cumulative times come from the entry points in ENTRY_POINTS, cache
    sizes from the tables in TABLES.  ``codes`` maps each entry point to
    its code object, resolved before any wrapping.  A name that no longer
    exists in the program is listed in ``absent`` and reported as 0.
    """
    import pstats
    stats = pstats.Stats(profile).stats
    out = {}
    absent = []
    self_s = {m: 0.0 for m in LAYER_MODULES + ("builtin", "other")}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, _callers) in \
            stats.items():
        if filename == "~":
            key = "builtin"
        elif os.path.dirname(os.path.abspath(filename)) == pkg_dir:
            key = os.path.splitext(os.path.basename(filename))[0]
            if key not in self_s:
                key = "other"
        else:
            key = "other"
        self_s[key] += tt
    for key, value in self_s.items():
        out[key + ".self_s"] = value

    by_code = {}
    for (filename, line, name), (_cc, nc, _tt, ct, _callers) in \
            stats.items():
        by_code[(os.path.abspath(filename), line, name)] = (nc, ct)
    for prefix, code in codes.items():
        if code is None:
            absent.append(prefix)
            calls, cum = 0, 0.0
        else:
            calls, cum = by_code.get((os.path.abspath(code.co_filename),
                                      code.co_firstlineno, code.co_name),
                                     (0, 0.0))
        out[prefix + "_calls"] = calls
        out[prefix + "_s"] = cum

    for metric, (modname, attr) in TABLES.items():
        table = getattr(modules[modname], attr, None) \
            if modules[modname] is not None else None
        if table is None:
            absent.append(metric)
            out[metric] = 0
        else:
            out[metric] = len(table)

    lookups = out["oracle.gram_lookup_calls"]
    if "oracle.gram_lookup" in absent or "oracle.gram_cache_entries" in absent:
        absent.append("oracle.gram_cache_hit_ratio")
        out["oracle.gram_cache_hit_ratio"] = 0.0
    else:
        hits = lookups - out["oracle.gram_cache_entries"]
        out["oracle.gram_cache_hit_ratio"] = hits / lookups if lookups else 0.0

    if gram_entries is None:
        absent.append("cellmod.gram_entries")
        out["cellmod.gram_entries"] = 0
    else:
        out["cellmod.gram_entries"] = gram_entries
    return out, absent


def run_argv(cli, argv):
    """Call the CLI once; returns (exit code, stdout text, error text)."""
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # recorded as a failed operation, never re-raised
        code = None
        error = traceback.format_exc()
    return code, buf.getvalue(), error


def main():
    job = json.loads(sys.stdin.read())
    src_dir = os.path.join(os.path.abspath(job["root"]), "src")
    sys.path.insert(0, src_dir)
    import importlib
    package = "bmwgram"
    cli = importlib.import_module(package + ".cli")
    pkg_file = os.path.abspath(sys.modules[package].__file__)
    if os.path.dirname(os.path.dirname(pkg_file)) != src_dir:
        raise SystemExit("bmwgram imported from %s, not from %s"
                         % (pkg_file, src_dir))
    ready = time.monotonic()

    profile = None
    gram_entries = [0]
    if job["trace"]:
        import cProfile
        modules = _import_layers(package)
        codes = {prefix: _resolve(modules[mod], qualname)
                 for prefix, (mod, qualname) in ENTRY_POINTS.items()}
        wrapped = modules["cellmod"] is not None and _wrap_gram_matrix(
            package, modules["cellmod"], gram_entries)
        profile = cProfile.Profile()

    calls = []
    start = time.monotonic()
    for argv in job["argvs"]:
        t0 = time.monotonic()
        if profile is not None:
            profile.enable()
        try:
            code, stdout, error = run_argv(cli, argv)
        finally:
            if profile is not None:
                profile.disable()
        calls.append({"argv": argv, "exit": code, "stdout": stdout,
                      "error": error, "seconds": time.monotonic() - t0})
    end = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ready": ready, "start": start, "end": end,
              "peak_rss_mb": peak_kb / 1024.0, "calls": calls}
    if profile is not None:
        result["layers"], result["absent"] = layer_metrics(
            profile, modules, codes, os.path.join(src_dir, package),
            gram_entries[0] if wrapped else None)
    result["verdicts"] = classifier_verdicts(job["argvs"])
    sys.stdout.write(json.dumps(result) + "\n")


def classifier_verdicts(argvs):
    """For each ``oracle`` argv, the closed-form ``classify_bmw`` verdict,
    computed after the timed region; None for other argvs."""
    from bmwgram.classify import classify_bmw
    from bmwgram.coeff import ParamSpec
    out = []
    for argv in argvs:
        if "oracle" not in argv:
            out.append(None)
            continue
        opts = dict(zip(argv[argv.index("oracle") + 1::2],
                        argv[argv.index("oracle") + 2::2]))
        spec = ParamSpec.concrete(int(opts["--p"]), int(opts["--q0"]),
                                  int(opts["--r0"]))
        out.append(classify_bmw(int(opts["--n"]), spec).singular)
    return out


if __name__ == "__main__":
    main()
