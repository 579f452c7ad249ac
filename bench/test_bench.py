"""Smoke tests of the certify benchmark at 2^10 cells per interval.

Run with ``python3 -m pytest -q bench`` from the root of a checkout.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import types

import tracing
import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_all_workloads_traced_and_untraced_at_tiny_size():
    proc = _run(["--seconds", "0", "--cells", "1024", "--seed", "3"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    # Per workload: one untraced run, and one traced run that starts with
    # its untraced reference certify.
    assert result["attempted"] == 3 * len(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(result["metrics"]) == {f"{w}.{n}" for w in workloads.WORKLOADS
                                      for n in units}
    for w in workloads.WORKLOADS:
        for name, unit in units.items():
            metric = result["metrics"][f"{w}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] >= 0 or name == "trace.overhead"
    for name in (m["name"] for m in SPEC["end_to_end"]):
        assert all(result["metrics"][f"{w}.{name}"]["value"] > 0
                   for w in workloads.WORKLOADS)
    assert result["metrics"]["multibox-vec.transfer.overlap_subsets"]["value"] \
        == 2**14 - 1


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("rough-csv", "multibox-vec"):
        files = []
        for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
            workloads.generate(name, tmp_path / name / sub, seed, cells=64)
            files.append(sorted(
                (p.name, p.read_bytes()) for p in (tmp_path / name / sub).iterdir()
            ))
        assert files[0] == files[1]
        assert files[0] != files[2]


def test_benchmark_json_lists_the_generated_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "const-64k", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_skips_names_the_program_no_longer_has():
    module = types.ModuleType("module")
    module.present = len
    tracer = tracing.Tracer()
    targets = [(module, "present", tracer.span("present")),
               (module, "gone", tracer.span("gone"))]
    with tracing.patched(targets) as missing:
        assert module.present("abc") == 3
    assert missing == ["module.gone"]
    assert module.present is len
    assert list(tracer.summary()) == ["present"]
