#!/usr/bin/env python3
"""Certify benchmark: ``lorsolve solve`` from instance file to artifacts.

Usage, from the root of a checkout:

    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --workload const-64k --seed 3 --seconds 30 --trace 0

Closed loop, one client: each certify is ``bench/certify.py`` in a fresh
interpreter, timing an in-process call of ``lorsolve.cli.main(["solve",
...])``; the next starts only after the previous one returned, while
``--seconds`` have not passed.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-module metrics of ``tracing.py``, taken
after one untraced certify that gives the tracing overhead.  Correctness checks run
after each certify, outside its timed region.  Lines before the last one
print every metric with its unit, the environment and the output digests.
See bench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
ARTIFACTS = ("solution.csv", "trace.csv", "certificate.txt")
# Setup-only processes before the certifies: the audited one, and more (up
# to SETUP_MAX in all) until SETUP_SECONDS have gone into them.
SETUP_MAX, SETUP_SECONDS = 8, 2.0

# Cap BLAS/OpenMP pools at the cores this process may use, before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), NPROC) if _have.isdigit() else NPROC)

import workloads  # noqa: E402

END_TO_END = (
    ("certify_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cell_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_bytes_computed": "B",
                   "bytes_written": "B", "levels_per_cell": "ratio",
                   "overhead": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _unit(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _read_first(path, prefix):
    try:
        for line in pathlib.Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes():
    sizes = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(pre, seed):
    caches = _cache_sizes()
    l3 = caches.get("L3", "")
    scale = {"K": 2**10, "M": 2**20}.get(l3[-1:])
    l3_bytes = int(l3[:-1]) * scale if scale and l3[:-1].isdigit() else None
    return {
        "nproc": NPROC,
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": pre["numpy"],
        "lorsolve": pre["lorsolve"],
        "commit": _git_commit(),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "ncells": pre["ncells"],
        "array_mib": pre["array_bytes"] / 2**20,
        "array_over_l3": pre["array_bytes"] / l3_bytes if l3_bytes else None,
    }


def _digests(out):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


def _child(mode, solve_args, *options):
    """Run ``certify.py`` in a fresh interpreter; return its JSON line."""
    cmd = [sys.executable, str(BENCH / "certify.py"), mode, *options, "--",
           *solve_args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"certify.py {mode} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, cells=None):
    """Run one workload; returns the result object of the last output line."""
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    try:
        solve_args, oracle = workloads.generate(name, work / "input", seed, cells)
        start = time.perf_counter()
        pre = _child("setup", solve_args)
        if not pre["audit_passed"]:
            raise BenchError(f"generated instance fails its audit:\n{pre['audit']}")
        setups = [pre["setup_s"]]
        while (len(setups) < SETUP_MAX
               and time.perf_counter() - start < SETUP_SECONDS):
            setups.append(_child("setup", solve_args, "--no-audit")["setup_s"])
        options = ["--out", str(work / "out")]
        if oracle is not None:
            options += ["--oracle", repr(oracle)]
        untraced, traced, digests = [], [], None
        start = time.perf_counter()
        # With tracing on, the first certify is the untraced reference.
        while (not untraced or (trace and not traced)
               or time.perf_counter() - start < seconds):
            if trace and untraced:
                spans = WORK / f"spans-{name}-seed{seed}-{len(traced) + 1}.csv"
                r = _child("certify", solve_args, *options, "--trace", str(spans))
                traced.append(r)
            else:
                r = _child("certify", solve_args, *options)
                untraced.append(r)
            if not r["failures"]:
                got = _digests(work / "out")
                digests = digests or got
                if got != digests:
                    r["failures"].append("artifacts differ from the first certify")
            if r["failures"]:
                print(f"certify FAILED: {'; '.join(r['failures'])}\n{r['output']}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _report(name, seed, trace, pre, setups, untraced, traced, digests)


def _report(name, seed, trace, pre, setups, untraced, traced, digests):
    runs = untraced + traced
    failed = sum(1 for r in runs if r["failures"])
    print(f"workload {name}: {workloads.WORKLOADS[name]}")
    print("environment " + json.dumps(_environment(pre, seed), sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    print(f"fail_rate {failed / len(runs)!r} ({failed} of {len(runs)} certifies)")
    metrics = {}
    if trace:
        layers = [r["layers"] for r in traced]
        values = {k: statistics.mean(d[k] for d in layers) for k in layers[0]}
        values["trace.overhead"] = (
            statistics.median(r["certify_s"] for r in traced)
            / statistics.median(r["certify_s"] for r in untraced) - 1)
        missing = sorted({m for r in traced for m in r["missing"]})
        if missing:
            print("untraced (not in this program): " + ", ".join(missing))
        print(f"{'metric':32} {'value':>16}  unit   (per traced certify, "
              f"{len(traced)} traced)")
        for key, value in values.items():
            metrics[key] = {"value": value, "unit": _unit(key)}
            print(f"{key:32} {value:16.6g}  {_unit(key)}")
    else:
        ok = [r for r in untraced if r["solve_s"]]
        samples = {
            "certify_s": [r["certify_s"] for r in untraced],
            "setup_s": setups + [r["setup_s"] for r in ok],
            "solve_s": [r["solve_s"] for r in ok],
            "cell_steps_per_s": [r["ncells"] * r["steps"] / r["solve_s"] for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
        print(f"{'metric':18} {'median':>12} {'tail':>22} {'n':>4}  unit")
        for key, unit in END_TO_END:
            xs = samples[key]
            med = statistics.median(xs) if xs else 0.0
            tail = _tail(xs)
            tail_txt = f"p{tail[0]:.0f} = {tail[1]:.6g}" if tail else "n/a (n <= 10)"
            print(f"{key:18} {med:12.6g} {tail_txt:>22} {len(xs):4d}  {unit}")
            metrics[key] = {"value": med, "unit": unit}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def run_all(seed, seconds, cells):
    """Every workload untraced, then traced, each in a process of its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            if cells is not None:
                cmd += ["--cells", str(cells)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=1800)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchError(f"{name} (trace {trace}) exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] = summary["correct"] and res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for key, val in res["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = val
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int, default=None,
                        help="cells per interval instead of the full size "
                             "(smoke tests)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.cells)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, args.cells)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
