"""One certify in a fresh process, as a CLI user runs it.

``bench/run.py`` starts this file once per certify, so every certify sees
the cold interpreter and heap a ``lorsolve solve`` user gets.  It prints
one JSON line: the timings, the peak resident memory after the certify,
the failed correctness checks and, when traced, the per-module metrics.

    python3 bench/certify.py setup [--no-audit] -- --instance twobranch --grid 1024
    python3 bench/certify.py certify --out DIR [--trace SPANS.csv] [--oracle X] -- ...
"""

import argparse
import contextlib
import io
import json
import pathlib
import resource
import sys
import time
import traceback

import tracing

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TOL = 1e-9


def import_lorsolve():
    """Import lorsolve from this checkout's ``src``; exit 1 when it is absent."""
    if not (SRC / "lorsolve" / "__init__.py").is_file():
        sys.exit(f"error: no lorsolve sources in {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import lorsolve
    import lorsolve.cli

    if pathlib.Path(lorsolve.__file__).resolve().parent != SRC / "lorsolve":
        sys.exit(f"error: imported lorsolve from {lorsolve.__file__}, not {SRC}")
    return lorsolve


def setup(lorsolve, solve_args, audit):
    """Time ``load_instance`` as the CLI calls it, then audit the instance."""
    name = solve_args[1]
    path = (lorsolve.bundled_instance_path(name)
            if name in lorsolve.BUNDLED_INSTANCES else name)
    grid = int(solve_args[3]) if len(solve_args) > 3 else None
    t0 = time.perf_counter()
    inst, _ = lorsolve.load_instance(path, grid=grid, require_admissible=True)
    setup_s = time.perf_counter() - t0
    if not audit:
        return {"setup_s": setup_s}
    report = lorsolve.audit_contraction(inst)
    import numpy

    return {
        "setup_s": setup_s,
        "audit_passed": report.passed,
        "audit": report.as_text(),
        "ncells": inst.h0.ncells,
        "array_bytes": inst.h0.values.nbytes,
        "numpy": numpy.__version__,
        "lorsolve": lorsolve.__version__,
    }


def check(lorsolve, rc, out, solved, oracle):
    """Failed correctness checks of one certify (empty when it passed)."""
    if rc is None:
        return ["lorsolve raised an exception"]
    if rc != 0:
        return [f"exit status {rc}"]
    if "verdict = PASS" not in (out / "certificate.txt").read_text().splitlines():
        return ["certificate verdict is not PASS"]
    if not solved:
        return ["solve_elementary was not called"]
    inst, solution, trace = solved[0]
    failures = []
    if not trace.certified_error <= trace.tol:
        failures.append(f"bound {trace.certified_error!r} > tol {trace.tol!r}")
    last = trace.rows[-1]
    limit = (2 * trace.alpha) ** last.m * trace.h0_norm * (1 + TOL)
    if not last.residual_norm <= limit:
        failures.append(f"residual {last.residual_norm!r} > {limit!r}")
    if oracle is not None:
        dev = float(abs(solution.values - oracle).max())
        if not dev <= TOL:
            failures.append(f"max deviation {dev!r} from oracle {oracle!r}")
    h = lorsolve.pointwise_norm(solution) if solution.is_vector else solution
    vals = [lorsolve.lorentz_norm(h, inst.tau, r).value for r in lorsolve.ROUTES]
    spread = (max(vals) - min(vals)) / max(max(vals), 1e-300)
    if not spread <= TOL:
        failures.append(f"norm routes spread {spread!r}")
    return failures


def certify(lorsolve, solve_args, out, spans_path, oracle):
    """One timed ``lorsolve solve``; checks run after the timed region."""
    tracer = tracing.Tracer()
    solved = []
    targets = tracing.boundary_targets(tracer, lambda *s: solved.append(s))
    if spans_path is not None:
        targets += tracing.layer_targets(tracer)
    sink = io.StringIO()
    with tracing.patched(targets) as missing, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = lorsolve.cli.main(["solve", *solve_args, "--out", str(out)])
        except Exception:  # a crash is a failed certify, reported with its traceback
            rc = None
            traceback.print_exc(file=sys.stdout)
        certify_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans = tracer.summary()
    result = {
        "rc": rc,
        "certify_s": certify_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": spans.get("config.load_instance", [[None]])[0][0],
        "solve_s": spans.get("solve.solve_elementary", [[None]])[0][0],
        "steps": solved[0][2].m_stop if solved else 0,
        "ncells": solved[0][1].ncells if solved else 0,
        "failures": check(lorsolve, rc, out, solved, oracle),
        "output": sink.getvalue(),
    }
    if spans_path is not None:
        result["layers"] = tracing.layer_metrics(tracer, result["steps"])
        result["missing"] = missing
        tracer.write_csv(pathlib.Path(spans_path))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "certify"))
    parser.add_argument("--out", default=".")
    parser.add_argument("--trace", default=None, metavar="SPANS_CSV")
    parser.add_argument("--oracle", type=float, default=None)
    parser.add_argument("--no-audit", action="store_true",
                        help="setup only: skip the audit and the environment")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    solve_args = argv[split + 1:]
    lorsolve = import_lorsolve()
    if args.mode == "setup":
        result = setup(lorsolve, solve_args, not args.no_audit)
    else:
        result = certify(lorsolve, solve_args, pathlib.Path(args.out),
                         args.trace, args.oracle)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
