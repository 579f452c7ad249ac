"""Golden digests of the CLI's deterministic outputs.

The solver promises byte-identical ``solution.csv``, ``trace.csv``,
``certificate.txt`` and ``audit.txt`` for the same inputs, and so do the
reports of ``cov-check``, ``axioms``, ``bridge``, ``norm`` and
``selftest``.  These digests pin those bytes, so a refactor that claims
to keep behaviour proves it by running the suite.  A change that alters
an output on purpose updates the digest here and says why.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from lorsolve.cli import main

from test_cli import TIGHT

# Two intervals of unequal width, a vector h0 and two maps whose images
# overlap: covers the multi-interval geometry, the vector CSV columns and
# the audit's overlap witness.
PAIR = textwrap.dedent("""\
    [instance]
    name = pair

    [domain]
    boxes = 0, 1; 2, 2.5

    [grid]
    m = 32

    [young]
    family = power
    m = 2.0

    [constants]
    K = 1
    L = 2
    alpha = 0.25

    [h0]
    components = 1 + x; 0.5; x*x

    [map1]
    branch1 = 0, 1, x/2, 0.5
    branch2 = 2, 2.5, 2 + (x - 2)/2, 0.5

    [map2]
    branch1 = 0, 1, 2 + x/2, 0.5
    branch2 = 2, 2.5, 2*(x - 2), 2

    [coeff1]
    expr = 0.05

    [coeff2]
    expr = 0.02*x
    """)

SOLVE_FILES = ("solution.csv", "trace.csv", "certificate.txt")

# The four trace.csv digests changed when the solver stopped computing
# partial_norm and residual on every step: those two fields are now empty
# on every row but the last.  Each row's m, term_norm and tail_bound, and
# the whole last row, kept their bytes.
#
# Every certificate.txt digest changed when the certificate gained the
# line audited_alpha, and every audit.txt digest when the audit, now
# proved on every closed cell, gained the line audit_mode = cell-enclosure,
# its own note and a witness cell given by its edges; audit-pair's
# worst_ratio_map_2 is the bound 0.10000000000000005 on the cells of the
# box [2, 2.5] instead of 0.0996875 at its last midpoint.  solve-pair audits
# alpha 0.2 < the declared 0.25, so it stops at the rate 0.4 after 21
# steps instead of 28: its trace.csv changed, its solution.csv did not
# (the terms past step 21 are below an ulp of the sum).
GOLDEN = {
    "solve-doubling": {
        "solution.csv":
            "0aae345ec43c102b534cfb1846e914bacee5ffd0c05a276ed7a1e70cb1c8f28b",
        "trace.csv":
            "371839578b409c78c42b04da4c8393a1f13d86a53833c2beed1ddba018b21861",
        "certificate.txt":
            "3dd92904baa0ddc23426163da7b0df65a5eb01ea72e396229f30db3cfe281c0f",
    },
    "solve-twobranch": {
        "solution.csv":
            "0aae345ec43c102b534cfb1846e914bacee5ffd0c05a276ed7a1e70cb1c8f28b",
        "trace.csv":
            "371839578b409c78c42b04da4c8393a1f13d86a53833c2beed1ddba018b21861",
        "certificate.txt":
            "7aea84a0ff2bff0e4cd6e2dfd71b980c4e093c95879e5102c46f807936dfe28d",
    },
    "solve-linear_h0": {
        "solution.csv":
            "73fd4a5434c949c320f12ae2c50dcb486005a057da31b03c7a5c9ef11b47f5ca",
        "trace.csv":
            "4c2d19e179d40f3500f701c9e88c280285de8d1a0fe6319143c87a618c7305a2",
        "certificate.txt":
            "d495ea732069f4c119f3b1197f980537acab1c612c97c8e6376e10df261a03c8",
    },
    "audit-tight": {
        # The two clamp lines became the one line clamped_images = 0.
        "audit.txt":
            "c972e7f69ff8c44e512b910338b61d926a806285a02069d35fe36a4003c96c9b",
    },
    "solve-pair": {
        "solution.csv":
            "d885c1a9f0db4156c7d82d97a8e2d2a5001bf21b8a951aa9b844d41aa06b40c4",
        # Norms summed by np.sum instead of a BLAS dot product moved the
        # last digit of some trace and certificate values.
        "trace.csv":
            "8f6b619d15a67b65503f6bc0789d0015087a8adc0dee68e55a8a66722c25b0f8",
        "certificate.txt":
            "b4d8c655c323ee95035882e9783a23775023372dbf34546635e2c8c07597adff",
    },
    "audit-pair": {
        # The two clamp lines became the one line clamped_images = 0.
        "audit.txt":
            "f466b94f223baac669f82f6724bb098423972143d647fe6625e9854d364d440b",
    },
    "cov-check": {
        "cov.csv":
            "d8f57f844509e40acce3ad9ec5d7647595e0a7b9bd55d339cf7c4b13c977fb65",
    },
    "cov-check-twobranch": {
        "cov.csv":
            "8725ccd8b580e0fb485d0e55458d50f9a2749d28b542147df34d1827daf71b73",
    },
    "axioms": {
        "axioms.txt":
            "c0627c78d62d2f7182f8689807bdb09141a27d01c48875488149cf53e191e7e8",
    },
    "bridge-linear_h0": {
        "bridge.txt":
            "c91f4fcd50bb3d26fdf005b0800c793cde0381efe63761bdd8090d153af6a05a",
    },
    "norm-twobranch": {
        "norms.csv":
            "266f525de75aa235cabf5722c304fa3e0c99cc9e0cd7f9d55e443a8657eeec08",
    },
    "selftest": {
        "selftest.txt":
            "8076f6a4b50ef3aacea8b500d566303864c4c0b781caaad5f893474b48bc0270",
    },
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# case -> (arguments before --out, expected exit status); an argument
# holding a newline is config text, passed as a file.  The case writes the
# files its GOLDEN entry names.
CASES = {
    "solve-doubling": (["solve", "--instance", "doubling", "--grid", "64"], 0),
    "solve-twobranch": (["solve", "--instance", "twobranch", "--grid", "64"],
                        0),
    "solve-linear_h0": (["solve", "--instance", "linear_h0", "--grid", "64"],
                        0),
    "audit-tight": (["audit", "--instance", TIGHT], 1),
    "solve-pair": (["solve", "--instance", PAIR], 0),
    "audit-pair": (["audit", "--instance", PAIR], 0),
    "cov-check": (["cov-check"], 0),
    "cov-check-twobranch": (["cov-check", "--instance", "twobranch"], 0),
    "axioms": (["axioms", "--count", "40"], 0),
    "bridge-linear_h0": (["bridge", "--instance", "linear_h0"], 0),
    "norm-twobranch": (["norm", "--instance", "twobranch"], 0),
    "selftest": (["selftest"], 0),
}


def _run(tmp_path, case):
    """Run one golden case; returns {file name: sha256} of its outputs."""
    args, rc = CASES[case]
    args = list(args)
    for i, a in enumerate(args):
        if "\n" in a:
            cfg = tmp_path / "instance.cfg"
            cfg.write_text(a)
            args[i] = str(cfg)
    assert main(args + ["--out", str(tmp_path / "out")]) == rc
    return {f: _digest(tmp_path / "out" / f) for f in GOLDEN[case]}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digests(tmp_path, case):
    assert _run(tmp_path, case) == GOLDEN[case]


def test_outputs_do_not_depend_on_locale(tmp_path):
    """Files are read and written as UTF-8 under an ASCII locale too."""
    cfg = tmp_path / "accent.cfg"
    cfg.write_text(PAIR.replace("name = pair", "name = pair\u00e9"),
                   encoding="utf-8")
    assert main(["solve", "--instance", str(cfg),
                 "--out", str(tmp_path / "utf8")]) == 0
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C",
               PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lorsolve.cli",
         "solve", "--instance", str(cfg), "--out", str(tmp_path / "ascii")],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    cert = (tmp_path / "ascii" / "certificate.txt").read_bytes()
    assert b"instance = pair\xc3\xa9\n" in cert
    assert cert == (tmp_path / "utf8" / "certificate.txt").read_bytes()


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _digests_per_blas_thread_count(tmp_path, args, files):
    """Run ``lorsolve <args>`` with 1 and 2 BLAS threads; sha256 per file."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "lorsolve.cli", *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append({f: _digest(out / f) for f in files})
    return digests


needs_two_cpus = pytest.mark.skipif(
    _cpus() < 2, reason="needs 2 CPUs for 2 BLAS threads")


@needs_two_cpus
def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """Reruns are byte-identical whatever the BLAS thread count.

    32768 cells give the norm more levels than OpenBLAS's dot product
    keeps on one thread, so a norm summed by BLAS rounds differently with
    1 and 2 threads.
    """
    a, b = _digests_per_blas_thread_count(
        tmp_path, ["solve", "--instance", "linear_h0", "--grid", "32768"],
        SOLVE_FILES)
    assert a == b


@needs_two_cpus
def test_norm_routes_do_not_depend_on_blas_threads(tmp_path):
    """Both norm routes of ``lorsolve norm`` sum without BLAS.

    At 262144 cells a BLAS dot product over the rearrangement's plateaus
    moved the last digit of ``rearrangement_tau`` between 1 and 2 threads.
    """
    a, b = _digests_per_blas_thread_count(
        tmp_path, ["norm", "--instance", "linear_h0", "--grid", "262144"],
        ("norms.csv",))
    assert a == b
