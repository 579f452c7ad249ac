"""Command-line front end.

Subcommands: solve, audit, norm, axioms, bridge, cov-check, selftest.
All outputs are plain CSV / flat text, written atomically (temp + rename)
into --out, and contain no timestamps or machine identifiers: the same
inputs and seed produce byte-identical files.  Exit status: 0 for PASS
verdicts, 1 for FAIL verdicts, 2 for input errors.
"""

import argparse
import ctypes
import io
import os
import pathlib
import sys
import tempfile

import numpy as np

from .config import (
    BUNDLED_INSTANCES,
    ConfigError,
    bundled_instance_path,
    load_instance,
)
from .grids import Domain, GridError, SampledFn
from .maps import (
    MapError,
    change_of_variables_check,
    doubling_map,
    halving_map,
    identity_map,
    tent3_map,
)
from .norms import (
    ROUTES,
    axiom_suite,
    check_orlicz_lorentz_bridge,
    default_test_sets,
    lorentz_norm,
    seeded_corpus,
)
from .solve import DivergenceError, ToleranceError, solve_elementary
from .transfer import AuditFailure, InstanceError, audit_contraction
from .young import YoungFnError, derive_tau, monomial_young, young_family

__all__ = ["main"]


class _InputError(ValueError):
    """CLI-level input problem: reported on stderr, exit status 2."""


# Characters per write in _atomic_write.
_WRITE_SLICE = 2**16


def _atomic_write(out_dir, filename, text):
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / filename
    fd, tmp = tempfile.mkstemp(dir=str(out_dir), prefix=f".{filename}.")
    try:
        with os.fdopen(fd, "w") as fh:
            # In slices: the encoder then never holds a second copy of a
            # large text (solution.csv at 2^16 cells is over 3 MiB).
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start:start + _WRITE_SLICE])
        # mkstemp creates 0600; give the artifact the mode open() would.
        # Reading the umask means setting it, so set it straight back.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


# glibc mallopt parameters.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc_thresholds(block):
    """Serve blocks up to ``block`` bytes from glibc's heap from now on.

    glibc's thresholds adapt by default: the first free of a large mmapped
    block raises the mmap threshold, and the heap top is returned to the
    system whenever more than twice that is free.  Whether the grid-sized
    temporaries of each solve step then reuse heap memory or are
    page-faulted afresh depends on how the process left the heap before
    the solve: one import order made the same 2^16-cell solve 20% slower
    than another (2-core Xeon, glibc 2.36).  Pinned, blocks up to
    ``block`` bytes (at most 32 MiB) come from the heap and freed memory
    stays there for reuse; larger ones, such as the text of solution.csv,
    are still mapped and unmapped whole.  Does nothing on other C
    libraries.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(_M_MMAP_THRESHOLD, min(block, 32 * 2**20))
    mallopt(_M_TRIM_THRESHOLD, 256 * 2**20)


def _check_grid(m):
    if m < 16 or m & (m - 1):
        raise _InputError(
            f"grid size must be a power of two >= 16, got {m} "
            "(halvable for refinement studies)"
        )
    return m


def _resolve_instance(arg):
    p = pathlib.Path(arg)
    if p.exists():
        return p
    if arg in BUNDLED_INSTANCES:
        return bundled_instance_path(arg)
    raise _InputError(
        f"instance {arg!r} is neither a file nor one of the bundled "
        f"instances {', '.join(BUNDLED_INSTANCES)}"
    )


def _load(args, require_admissible=False):
    path = _resolve_instance(args.instance)
    inst, oracle = load_instance(
        path,
        grid=args.grid,
        psi_family=args.psi,
        psi_param=args.m,
        require_admissible=require_admissible,
    )
    _check_grid(inst.m)
    return inst, oracle


def _psi_from_flags(args, default_family="power", default_param=2.0):
    family = args.psi or default_family
    param = args.m if args.m is not None else default_param
    return young_family(family, param)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_solve(args):
    if args.tol is not None and not args.tol > 0:
        raise _InputError(f"--tol must be > 0, got {args.tol!r}")
    if args.max_steps < 0:
        raise _InputError(f"--max-steps must be >= 0, got {args.max_steps!r}")
    inst, _ = _load(args, require_admissible=True)
    # A complex step doubles the bytes of a real h0.
    _pin_malloc_thresholds(2 * inst.h0.values.nbytes + 2**16)
    try:
        solution, trace = solve_elementary(
            inst, tol=args.tol, max_steps=args.max_steps, force=args.force
        )
    except AuditFailure as exc:
        _atomic_write(args.out, "audit.txt", exc.report.as_text())
        print(f"audit FAIL (report in {args.out}/audit.txt); "
              "use --force to iterate anyway", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"solve aborted: {exc}", file=sys.stderr)
        return 1
    _atomic_write(args.out, "solution.csv", solution.csv_text())
    buf = io.StringIO()
    trace.write_csv(buf)
    _atomic_write(args.out, "trace.csv", buf.getvalue())
    _atomic_write(args.out, "certificate.txt", trace.certificate_text())
    ok = trace.certified
    print(
        f"solved {inst.label}: {trace.m_stop} steps, certified error "
        f"{trace.certified_error!r} (tol {trace.tol!r}) -> "
        f"{'PASS' if ok else 'FAIL'}; wrote solution.csv, trace.csv, "
        f"certificate.txt to {args.out}"
    )
    return 0 if ok else 1


def _cmd_audit(args):
    inst, _ = _load(args)
    report = audit_contraction(inst)
    _atomic_write(args.out, "audit.txt", report.as_text())
    print(f"audit {inst.label}: {'PASS' if report.passed else 'FAIL'} "
          f"(feasible alpha {report.feasible_alpha!r}); wrote audit.txt "
          f"to {args.out}")
    return 0 if report.passed else 1


def _cmd_norm(args):
    inst, _ = _load(args)
    h = inst.h0
    if h.is_vector:
        from .grids import pointwise_norm

        h = pointwise_norm(h)
    routes = ROUTES if args.route == "all" else (args.route,)
    values = [lorentz_norm(h, inst.tau, r).value for r in routes]
    rows = ["function_id,route,value"]
    for r, v in zip(routes, values):
        rows.append(f"{inst.label},{r},{v!r}")
    _atomic_write(args.out, "norms.csv", "\n".join(rows) + "\n")
    spread = 0.0
    if len(values) > 1:
        scale = max(max(values), 1e-300)
        spread = (max(values) - min(values)) / scale
    ok = spread <= 1e-9
    print(f"norm {inst.label}: " +
          ", ".join(f"{r} = {v!r}" for r, v in zip(routes, values)) +
          f"; route spread {spread:.3e} -> {'PASS' if ok else 'FAIL'}; "
          f"wrote norms.csv to {args.out}")
    return 0 if ok else 1


def _cmd_axioms(args):
    if args.instance:
        inst, _ = _load(args)
        domain, m, tau = inst.domain, inst.m, inst.tau
    else:
        m = _check_grid(args.grid if args.grid else 1024)
        domain = Domain.unit_interval()
        tau = derive_tau(_psi_from_flags(args))
    corpus = seeded_corpus(domain, m, args.count, args.seed)
    sets = default_test_sets(domain)
    report = axiom_suite(tau, corpus, sets)
    _atomic_write(args.out, "axioms.txt", report.as_text())
    print(f"axioms ({report.psi_label}, corpus {report.n_corpus}, seed "
          f"{args.seed}): {'PASS' if report.passed else 'FAIL'}; wrote "
          f"axioms.txt to {args.out}")
    return 0 if report.passed else 1


def _cmd_bridge(args):
    inst, _ = _load(args)
    psi_orlicz = monomial_young(args.orlicz_power)
    report = check_orlicz_lorentz_bridge(inst.h0, psi_orlicz, inst.psi)
    _atomic_write(args.out, "bridge.txt", report.as_text())
    print(f"bridge {inst.label}: modular {report.modular!r}, verdict "
          f"{report.verdict}; wrote bridge.txt to {args.out}")
    return 1 if report.verdict == "FAIL" else 0


_COV_H_SHAPES = (
    ("one", lambda y: np.ones(np.shape(y))),
    ("first_half", None),  # indicator, built per-domain below
    ("linear", lambda y: np.asarray(y, dtype=float)),
)


def _cmd_cov_check(args):
    m = _check_grid(args.grid if args.grid else 4096)
    if args.instance:
        inst, _ = _load(args)
        domain = inst.domain
        maps = inst.maps
    else:
        domain = Domain.unit_interval()
        maps = (identity_map(), doubling_map(), halving_map(), tent3_map())
    tol = args.tol if args.tol is not None else 1e-3
    lo0, hi0 = domain.intervals()[0]
    rows = ["map,h,lhs,rhs,rel_gap,verdict"]
    all_ok = True
    for F in maps:
        for name, fn in _COV_H_SHAPES:
            if fn is None:
                H = SampledFn.indicator(
                    domain, m, [(lo0, lo0 + 0.5 * (hi0 - lo0))]
                )
            else:
                H = SampledFn.from_callable(domain, m, fn)
            rep = change_of_variables_check(F, H, domain, m=m, tol=tol)
            all_ok = all_ok and rep.passed
            rows.append(
                f"{F.label},{name},{rep.lhs!r},{rep.rhs!r},"
                f"{rep.rel_gap!r},{'PASS' if rep.passed else 'FAIL'}"
            )
    _atomic_write(args.out, "cov.csv", "\n".join(rows) + "\n")
    print(f"cov-check over {len(maps)} maps x {len(_COV_H_SHAPES)} weights "
          f"at grid {m}: {'PASS' if all_ok else 'FAIL'}; wrote cov.csv to "
          f"{args.out}")
    return 0 if all_ok else 1


def _cmd_selftest(args):
    lines = []
    all_ok = True

    def check(name, ok, detail=""):
        nonlocal all_ok
        all_ok = all_ok and bool(ok)
        lines.append(
            f"{name} = {'PASS' if ok else 'FAIL'}"
            + (f"  ({detail})" if detail else "")
        )

    for name in BUNDLED_INSTANCES:
        inst, oracle = load_instance(bundled_instance_path(name))
        report = audit_contraction(inst)
        check(f"{name}.audit", report.passed,
              f"feasible_alpha = {report.feasible_alpha!r}")
        try:
            solution, trace = solve_elementary(inst)
        except (AuditFailure, DivergenceError) as exc:
            check(f"{name}.solve", False, str(exc))
            continue
        check(f"{name}.solve", trace.certified,
              f"steps = {trace.m_stop}, bound = {trace.certified_error!r}")
        if "solution_constant" in oracle:
            dev = float(np.max(np.abs(
                solution.values - oracle["solution_constant"]
            )))
            check(f"{name}.solution_constant", dev <= 1e-9,
                  f"max_dev = {dev!r}")
        if "h0_lorentz_norm" in oracle:
            got = inst.norm(inst.h0)
            ref = oracle["h0_lorentz_norm"]
            rel = abs(got - ref) / max(abs(ref), 1e-300)
            check(f"{name}.h0_lorentz_norm", rel <= 1e-4,
                  f"value = {got!r}, reference = {ref!r} (continuum)")
        h = inst.h0
        vals = [lorentz_norm(h, inst.tau, r).value for r in ROUTES]
        spread = (max(vals) - min(vals)) / max(max(vals), 1e-300)
        check(f"{name}.route_agreement", spread <= 1e-9,
              f"spread = {spread:.3e}")
    lines.append(f"verdict = {'PASS' if all_ok else 'FAIL'}")
    _atomic_write(args.out, "selftest.txt", "\n".join(lines) + "\n")
    print(f"selftest: {'PASS' if all_ok else 'FAIL'} "
          f"({len(lines) - 1} checks); wrote selftest.txt to {args.out}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lorsolve",
        description=(
            "Neumann-series solver for weighted composition equations in "
            "Lorentz spaces, with contraction audits and certified error "
            "bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, default=None, metavar="M",
                        help="override grid size (power of two >= 16)")
    common.add_argument("--psi", default=None, metavar="FAMILY",
                        help="Young function family (default: instance file, "
                             "else 'power')")
    common.add_argument("--m", type=float, default=None, metavar="PARAM",
                        help="Young family parameter (default: instance "
                             "file, else 2.0)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for generated corpora (default 0)")
    common.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current directory)")

    with_inst = argparse.ArgumentParser(add_help=False)
    with_inst.add_argument("--instance", required=True,
                           help="instance file path, or a bundled name: "
                                + ", ".join(BUNDLED_INSTANCES))

    p = sub.add_parser("solve", parents=[common, with_inst],
                       help="sum the series with a certified stopping rule")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute error tolerance (default 1e-8 * ||h0||)")
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--force", action="store_true",
                   help="iterate even if the contraction audit fails")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("audit", parents=[common, with_inst],
                       help="run the contraction audit only")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("norm", parents=[common, with_inst],
                       help="Lorentz norm of the instance h0 across routes")
    p.add_argument("--route", choices=ROUTES + ("all",), default="all")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("axioms", parents=[common],
                       help="function-norm axiom suite on a seeded corpus")
    p.add_argument("--instance", default=None,
                   help="optional instance providing domain/grid/psi")
    p.add_argument("--count", type=int, default=200,
                   help="corpus size (default 200)")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("bridge", parents=[common, with_inst],
                       help="Orlicz-Lorentz comparison check on h0")
    p.add_argument("--orlicz-power", type=float, default=2.0,
                   help="exponent p of the Orlicz side t^p (default 2)")
    p.set_defaults(fn=_cmd_bridge)

    p = sub.add_parser("cov-check", parents=[common],
                       help="change-of-variables identity over a map corpus")
    p.add_argument("--instance", default=None,
                   help="optional instance whose maps replace the standard "
                        "corpus")
    p.add_argument("--tol", type=float, default=None,
                   help="relative gap tolerance (default 1e-3)")
    p.set_defaults(fn=_cmd_cov_check)

    p = sub.add_parser("selftest", parents=[common],
                       help="replay all bundled instances against their "
                            "oracle values")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_InputError, ConfigError, InstanceError, GridError, MapError,
            ToleranceError, YoungFnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
