import csv
import os
import pathlib
import stat
import subprocess
import sys
import textwrap

import pytest

from lorsolve import ROUTES, bundled_instance_path, load_instance, lorentz_norm
from lorsolve import cli
from lorsolve.cli import _atomic_file, _atomic_write, main

TIGHT = textwrap.dedent("""\
    [instance]
    name = tight

    [domain]
    boxes = 0, 1

    [grid]
    m = 128

    [young]
    family = power
    m = 2.0

    [constants]
    K = 2
    L = 1
    alpha = 0.2

    [h0]
    expr = 1

    [map1]
    branch1 = 0, 0.5, 2*x, 2
    branch2 = 0.5, 1, 2*x - 1, 2

    [coeff1]
    expr = 0.25
    """)


def test_import_leaves_numpy_polynomial_unloaded():
    """The Gauss-Legendre rule is built only when a weight is integrated.

    numpy 1.x imports ``numpy.polynomial`` with ``numpy`` itself, so the
    check is that importing lorsolve adds nothing to what numpy loaded.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, numpy; before = 'numpy.polynomial' in sys.modules; "
            "import lorsolve.cli; "
            "print(before, 'numpy.polynomial' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


class TestSolve:
    def test_bundled_pass(self, tmp_path):
        rc = main(["solve", "--instance", "doubling",
                   "--out", str(tmp_path)])
        assert rc == 0
        for name in ("solution.csv", "trace.csv", "certificate.txt"):
            assert (tmp_path / name).exists()
        cert = (tmp_path / "certificate.txt").read_text()
        assert "verdict = PASS" in cert

    def test_outputs_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--instance", "twobranch",
                     "--out", str(a)]) == 0
        assert main(["solve", "--instance", "twobranch",
                     "--out", str(b)]) == 0
        for name in ("solution.csv", "trace.csv", "certificate.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_failed_audit_blocks(self, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(TIGHT)
        rc = main(["solve", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert (tmp_path / "audit.txt").exists()
        assert not (tmp_path / "solution.csv").exists()

    def test_forced_run_reports_fail(self, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(TIGHT)
        rc = main(["solve", "--instance", str(cfg), "--force",
                   "--out", str(tmp_path)])
        assert rc == 1
        cert = (tmp_path / "certificate.txt").read_text()
        assert "audit = FAIL (forced run)" in cert
        assert "verdict = FAIL" in cert

    @pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
    def test_artifacts_follow_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            rc = main(["solve", "--instance", "doubling", "--grid", "64",
                       "--out", str(tmp_path)])
        finally:
            os.umask(old)
        assert rc == 0
        for name in ("solution.csv", "trace.csv", "certificate.txt"):
            mode = stat.S_IMODE((tmp_path / name).stat().st_mode)
            assert mode == 0o666 & ~umask, (name, oct(mode))

    def test_grid_override_changes_solution_rows(self, tmp_path):
        rc = main(["solve", "--instance", "doubling", "--grid", "64",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "solution.csv").read_text().splitlines()
        assert len(rows) == 65


class TestAtomicWrite:
    @pytest.mark.parametrize("size", [0, 1, 2**16, 2**17 + 3])
    def test_text_is_written_whole(self, tmp_path, size):
        text = ("0.25,1e-05\n" * (size // 11 + 1))[:size]
        _atomic_write(tmp_path, "t.csv", text)
        assert (tmp_path / "t.csv").read_text() == text

    @pytest.mark.parametrize("existing", [None, b"old\n"])
    def test_failed_writer_leaves_target_alone(self, tmp_path, existing):
        target = tmp_path / "solution.csv"
        if existing is not None:
            target.write_bytes(existing)
        with pytest.raises(RuntimeError, match="halfway"):
            with _atomic_file(tmp_path, "solution.csv") as fh:
                fh.write("cell_left,cell_right,value\n" * 1000)
                raise RuntimeError("halfway")
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == existing
        assert not list(tmp_path.glob(".solution.csv.*"))


class TestAudit:
    def test_bundled_pass(self, tmp_path):
        rc = main(["audit", "--instance", "doubling", "--out",
                   str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "audit.txt").read_text()
        assert "verdict = PASS" in text

    def test_tight_alpha_fails(self, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(TIGHT)
        rc = main(["audit", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "verdict = FAIL" in (tmp_path / "audit.txt").read_text()


    def _doubling(self, tmp_path, coeff, alpha):
        """The bundled doubling instance with the coefficient ``coeff``
        and the declared ``alpha``."""
        text = bundled_instance_path("doubling").read_text()
        assert "[coeff1]\nexpr = 0.25\n" in text and "alpha = 0.25\n" in text
        cfg = tmp_path / "doubling.cfg"
        cfg.write_text(text.replace("[coeff1]\nexpr = 0.25\n",
                                    f"[coeff1]\nexpr = {coeff}\n")
                       .replace("alpha = 0.25\n", f"alpha = {alpha}\n"))
        return cfg

    def test_ratio_at_a_cell_end_fails(self, tmp_path, capsys):
        # |g| = 0.25*(1 - x) reaches 1/4 at x = 0, the left end of the
        # first cell, where no midpoint lies: the midpoint audit passed
        # alpha = 0.2499 at 0.2498779296875.
        cfg = self._doubling(tmp_path, "0.25*(1 - x)", 0.2499)
        out = tmp_path / "out"
        assert main(["audit", "--instance", str(cfg), "--out", str(out)]) == 1
        text = (out / "audit.txt").read_text()
        assert "audit_mode = cell-enclosure\n" in text
        assert "verdict = FAIL\n" in text
        feasible = float(text.split("feasible_alpha = ")[1].split("\n")[0])
        assert 0.25 <= feasible < 0.25 * (1 + 1e-12)
        assert "cell 0 on [0.0, 0.0009765625]" in text
        assert main(["solve", "--instance", str(cfg), "--out", str(out)]) == 1
        assert "use --force" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    def test_coefficient_that_wraps_in_a_cell_is_sampled(self, tmp_path):
        # 7x % 1 wraps at x = k/7, inside a cell of the 1024-cell grid:
        # the audit falls back to the midpoints, and the solve to the
        # declared rate 2*alpha.
        cfg = self._doubling(tmp_path, "0.2*((7*x) % 1)", 0.25)
        out = tmp_path / "out"
        assert main(["audit", "--instance", str(cfg), "--out", str(out)]) == 0
        text = (out / "audit.txt").read_text()
        assert "audit_mode = midpoint-sampled\n" in text
        assert "grid resolution" in text
        assert main(["solve", "--instance", str(cfg), "--out", str(out)]) == 0
        cert = (out / "certificate.txt").read_text()
        assert "audited_alpha = none\n" in cert
        rows = list(csv.DictReader((out / "trace.csv").open()))
        h0_norm = float(rows[0]["term_norm"])
        for row in rows:
            m = int(row["m"])
            assert float(row["tail_bound"]) == pytest.approx(
                h0_norm / (1 - 0.5) * 0.5**m, rel=1e-12)


class TestNorm:
    def test_all_routes(self, tmp_path):
        rc = main(["norm", "--instance", "linear_h0", "--out",
                   str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "norms.csv").read_text().splitlines()
        assert lines[0] == "function_id,route,value"
        assert len(lines) == 1 + len(ROUTES)
        routes = [line.split(",")[1] for line in lines[1:]]
        assert routes == ["distribution", "rearrangement_tau"]

    def test_single_route(self, tmp_path):
        rc = main(["norm", "--instance", "doubling", "--route",
                   "distribution", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "norms.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_vector_h0(self, tmp_path):
        from test_golden import PAIR

        cfg = tmp_path / "pair.cfg"
        cfg.write_text(PAIR)
        out = tmp_path / "out"
        assert main(["norm", "--instance", str(cfg), "--out", str(out)]) == 0
        lines = (out / "norms.csv").read_text().splitlines()
        assert len(lines) == 1 + len(ROUTES)

    def test_name_with_a_comma(self, tmp_path):
        cfg = tmp_path / "comma.cfg"
        cfg.write_text(bundled_instance_path("twobranch").read_text()
                       .replace("name = twobranch", "name = two, branch"))
        rc = main(["norm", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "norms.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        inst, _ = load_instance(cfg)
        assert rows == [["function_id", "route", "value"]] + [
            ["two, branch", r, repr(lorentz_norm(inst.h0, inst.tau, r).value)]
            for r in ROUTES]

    def test_weight_route_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--instance", "doubling", "--route",
                  "rearrangement_weight", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "norms.csv").exists()


class TestAxioms:
    def test_default_corpus(self, tmp_path):
        rc = main(["axioms", "--count", "16", "--grid", "128",
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "axioms.txt").read_text()
        assert "P5_averaging_bound = PASS" in text

    def test_instance_supplies_grid(self, tmp_path):
        rc = main(["axioms", "--instance", "doubling", "--count", "8",
                   "--out", str(tmp_path)])
        assert rc == 0


class TestBridge:
    def test_bundled(self, tmp_path):
        rc = main(["bridge", "--instance", "linear_h0", "--out",
                   str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "bridge.txt").read_text()
        assert "verdict =" in text
        assert "diagnostic" not in text


class TestCovCheck:
    def test_standard_gallery(self, tmp_path):
        rc = main(["cov-check", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "cov.csv").read_text().splitlines()
        assert lines[0] == "map,h,lhs,rhs,rel_gap,verdict"
        assert len(lines) == 13  # 4 maps x 3 weights
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_coarse_grid_needs_looser_tol(self, tmp_path):
        # The discretization gap scales like 1/grid, so at 512 cells the
        # default 1e-3 tolerance is not attainable for every weight.
        rc = main(["cov-check", "--grid", "512", "--out", str(tmp_path)])
        assert rc == 1
        rc = main(["cov-check", "--grid", "512", "--tol", "1e-2",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_instance_maps(self, tmp_path):
        rc = main(["cov-check", "--instance", "doubling", "--grid", "512",
                   "--tol", "1e-2", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "cov.csv").read_text().splitlines()
        assert len(lines) == 4  # 1 map x 3 weights


class TestSelftest:
    def test_full_pass(self, tmp_path):
        rc = main(["selftest", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "selftest.txt").read_text()
        assert "verdict = PASS" in text
        assert text.count("= PASS") >= 14


class TestInputErrors:
    def test_unknown_instance(self, tmp_path, capsys):
        rc = main(["solve", "--instance", "missing", "--out",
                   str(tmp_path)])
        assert rc == 2
        assert "bundled" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path, capsys):
        rc = main(["audit", "--instance", "doubling", "--grid", "100",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["axioms", "--grid", "0", "--count", "4"],
        ["cov-check", "--grid", "0"],
    ], ids=["axioms", "cov-check"])
    def test_zero_grid_is_refused_not_defaulted(self, tmp_path, capsys,
                                                argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "got 0" in err
        assert not out.exists()

    def test_small_grid(self, tmp_path):
        assert main(["audit", "--instance", "doubling", "--grid", "8",
                     "--out", str(tmp_path)]) == 2

    def test_bad_grid_refused_before_loading(self, tmp_path, capsys,
                                             monkeypatch):
        def load_instance(*args, **kwargs):
            raise AssertionError("instance built before --grid was checked")

        monkeypatch.setattr("lorsolve.cli.load_instance", load_instance)
        rc = main(["solve", "--instance", "twobranch", "--grid", "1000000",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "power of two" in capsys.readouterr().err

    def test_bad_grid_on_csv_instance(self, tmp_path, capsys):
        rows = ["cell_left,cell_right,value"]
        rows += [f"{i / 16!r},{(i + 1) / 16!r},1.0" for i in range(16)]
        (tmp_path / "h0.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TIGHT.replace("m = 128", "m = 16")
                       .replace("expr = 1\n", "csv = h0.csv\n", 1))
        rc = main(["solve", "--instance", str(cfg), "--grid", "1000",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "power of two" in err and "CSV" not in err

    @pytest.mark.parametrize("expr", [
        "(" * 400 + "0.125" + ")" * 400,
        "+".join(["0.001"] * 1200),
    ], ids=["400-nested-parentheses", "1200-term-sum"])
    def test_expression_too_deep(self, tmp_path, capsys, expr):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(bundled_instance_path("twobranch").read_text()
                       .replace("expr = 0.125", f"expr = {expr}", 1))
        out = tmp_path / "out"
        rc = main(["solve", "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "[coeff1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["solve", "audit"])
    @pytest.mark.parametrize("branches, message", [
        ("branch1 = 0, 1, x/2 - 0.0009, 0.5",
         "image [-0.0009, 0.4991] reaches outside the domain"),
        ("branch1 = 0, 0.5, x/2, 0.5\nbranch2 = 0.5001, 1, x/2, 0.5",
         "does not cover the domain: no branch holds [0.5, 0.5001)"),
    ], ids=["not-a-self-map", "gap-between-branches"])
    def test_map_that_leaves_or_misses_the_domain(self, tmp_path, capsys,
                                                 subcommand, branches,
                                                 message):
        # Checked from the branch ends: no midpoint of the default grid
        # falls into the gap, and only two leave the domain.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bundled_instance_path("twobranch").read_text()
                       .replace("branch1 = 0, 1, x/2, 0.5", branches))
        out = tmp_path / "out"
        rc = main([subcommand, "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "map 'map1'" in err and message in err
        assert not out.exists()

    @staticmethod
    def _eighth_map(tmp_path, branch):
        """linear_h0 with the map x/8 and g = 0.24 at alpha = 0.25: since
        |g|/|f'| = 1.92, the contraction audit must FAIL."""
        cfg = tmp_path / "eighth.cfg"
        cfg.write_text(bundled_instance_path("linear_h0").read_text()
                       .replace("branch1 = 0, 1, x, 1", branch)
                       .replace("[coeff1]\nexpr = 0", "[coeff1]\nexpr = 0.24")
                       .replace("alpha = 0.0", "alpha = 0.25"))
        return cfg

    @pytest.mark.parametrize("subcommand", ["solve", "audit"])
    def test_declared_derivative_that_is_wrong(self, tmp_path, capsys,
                                               subcommand):
        # Declared 1 where x/8 has slope 1/8: taken on trust, the 1 let
        # the audit PASS.
        cfg = self._eighth_map(tmp_path, "branch1 = 0, 1, x/8, 1")
        out = tmp_path / "out"
        rc = main([subcommand, "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("[map1] branch1: the declared derivative '1' is 1.0 at "
                "x = 0.0, but the derivative of the expression is 0.125 "
                "there") in err
        assert not out.exists()

    def test_derived_derivative_fails_the_audit(self, tmp_path, capsys):
        cfg = self._eighth_map(tmp_path, "branch1 = 0, 1, x/8")
        out = tmp_path / "out"
        assert main(["audit", "--instance", str(cfg), "--out", str(out)]) == 1
        assert "feasible_alpha = 1.92\n" in (out / "audit.txt").read_text()
        assert main(["solve", "--instance", str(cfg), "--out", str(out)]) == 1
        assert "use --force" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    @pytest.mark.parametrize("subcommand", ["solve", "audit"])
    def test_percent_that_wraps_inside_a_branch(self, tmp_path, capsys,
                                                subcommand):
        # The value falls from 0.249949 at x = 0.4899 to 0.245051 at
        # x = 0.4901, between two monotonicity probes: with K = 2 the
        # audit's ratio would be 0.392, but K = 1 let it PASS at 0.196.
        cfg = tmp_path / "wrap.cfg"
        cfg.write_text(bundled_instance_path("linear_h0").read_text()
                       .replace("branch1 = 0, 1, x, 1",
                                "branch1 = 0, 1, 0.5*x + 0.01*((x + 0.01) % 0.5)")
                       .replace("[coeff1]\nexpr = 0", "[coeff1]\nexpr = 0.1")
                       .replace("alpha = 0.0", "alpha = 0.25"))
        out = tmp_path / "out"
        rc = main([subcommand, "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "[map1] branch1" in err and "'%'" in err and "wraps" in err
        assert not out.exists()

    def test_percent_that_wraps_between_any_two_probes(self, tmp_path,
                                                       capsys):
        # The dividend dips below 0 on (0.3/32, 0.7/32) only, where the
        # value jumps up by 2 and back: neither monotone nor continuous.
        cfg = tmp_path / "dip.cfg"
        cfg.write_text(bundled_instance_path("linear_h0").read_text()
                       .replace("branch1 = 0, 1, x, 1",
                                "branch1 = 0, 1, x + 0.001*((1000*(x - 0.3/32)"
                                "*(x - 0.7/32)) % 2000)"))
        out = tmp_path / "out"
        rc = main(["solve", "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "[map1] branch1" in err and "wraps" in err
        assert not out.exists()

    def test_branch_part_outside_the_domain_does_not_count(self, tmp_path):
        # x/2 on [0, 2) and on [0, 1) give the same operator on [0, 1).
        texts = []
        for branch in ("branch1 = 0, 2, x/2", "branch1 = 0, 1, x/2"):
            cfg = tmp_path / "outside.cfg"
            cfg.write_text(bundled_instance_path("twobranch").read_text()
                           .replace("branch1 = 0, 1, x/2, 0.5", branch)
                           .replace("expr = 0.125", "expr = 0.1")
                           .replace("alpha = 0.25", "alpha = 0.4"))
            out = tmp_path / "out"
            assert main(["audit", "--instance", str(cfg),
                         "--out", str(out)]) == 0
            texts.append((out / "audit.txt").read_text())
        assert "L_estimated = 1\n" in texts[0]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("subcommand, value", [
        ("solve", "1.5e308"),  # ||h0|| overflows
        ("norm", "1.5e308"),
        ("solve", "1e308"),  # ||h0|| is finite, the partial sum's is not
    ])
    def test_norm_that_overflows(self, tmp_path, capsys, subcommand, value):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(bundled_instance_path("twobranch").read_text()
                       .replace("[h0]\nexpr = 1\n", f"[h0]\nexpr = {value}\n"))
        out = tmp_path / "out"
        rc = main([subcommand, "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "norm value must be finite" in err
        assert not out.exists()

    def test_bridge_near_the_largest_float_under_warnings_as_errors(
            self, tmp_path):
        # The Luxemburg bisection's midpoint and the modular's psi both
        # overflow here unless guarded; a warning would be a traceback.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(bundled_instance_path("twobranch").read_text()
                       .replace("[h0]\nexpr = 1\n", "[h0]\nexpr = 1e308\n"))
        out = tmp_path / "out"
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lorsolve.cli", "bridge",
             "--instance", str(cfg), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        lines = (out / "bridge.txt").read_text().splitlines()
        assert "modular = inf" in lines
        assert "orlicz_norm = 1e+308" in lines
        assert "verdict = NO_CLAIM" in lines

    @pytest.mark.parametrize("expr", ["x % 0", "(x - x)^-1", "(0 - x)^0.5",
                                      "10^(400*x)"])
    @pytest.mark.parametrize("old, new, where", [
        ("[h0]\nexpr = 1\n", "[h0]\nexpr = {}\n", "[h0] expr: "),
        ("[h0]\nexpr = 1\n", "[h0]\ncomponents = 1; {}\n",
         "[h0] components: "),
        ("[coeff1]\nexpr = 0.125\n", "[coeff1]\nexpr = {}\n",
         "the coefficient of map 'map1': "),
    ], ids=["h0", "components", "coeff"])
    def test_values_that_are_not_finite(self, tmp_path, capsys, expr, old,
                                        new, where):
        # Refused by the finiteness check alone: a numpy warning on the
        # way would fail this test, as it would be a traceback under -W.
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(bundled_instance_path("twobranch").read_text()
                       .replace(old, new.format(expr)))
        out = tmp_path / "out"
        rc = main(["solve", "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{where}cell values must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("[h0]\nexpr = 1\n", "[h0]\nexpr = x % 0\n"),
        ("[h0]\nexpr = 1\n", "[h0]\ncomponents = 1; (0 - x)^0.5\n"),
        ("[coeff1]\nexpr = 0.125\n", "[coeff1]\nexpr = 10^(400*x)\n"),
    ], ids=["h0", "components", "coeff"])
    def test_values_that_are_not_finite_under_warnings_as_errors(
            self, tmp_path, old, new):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(bundled_instance_path("twobranch").read_text()
                       .replace(old, new))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lorsolve.cli", "solve",
             "--instance", str(cfg), "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "cell values must be finite" in lines[0]

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(TIGHT.replace("name = tight", "name = tight\u00e9")
                        .encode("latin-1"))
        rc = main(["solve", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "utf-8" in capsys.readouterr().err
        assert not (tmp_path / "solution.csv").exists()

    def test_h0_csv_not_utf8(self, tmp_path, capsys):
        rows = ["cell_left,cell_right,value\u00e9"]
        rows += [f"{i / 16!r},{(i + 1) / 16!r},1.0" for i in range(16)]
        (tmp_path / "h0.csv").write_bytes(("\n".join(rows) + "\n").encode("latin-1"))
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TIGHT.replace("m = 128", "m = 16")
                       .replace("expr = 1\n", "csv = h0.csv\n", 1))
        rc = main(["solve", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "h0.csv" in err and "not UTF-8" in err

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_h0_csv_non_finite_value(self, tmp_path, capsys, value):
        rows = ["cell_left,cell_right,value"]
        rows += [f"{i / 16!r},{(i + 1) / 16!r},1.0" for i in range(16)]
        rows[5] = f"{4 / 16!r},{5 / 16!r},{value}"
        (tmp_path / "h0.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TIGHT.replace("m = 128", "m = 16")
                       .replace("expr = 1\n", "csv = h0.csv\n", 1))
        out = tmp_path / "out"
        rc = main(["solve", "--instance", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("CSV row 5 has a non-finite value: "
                f"['0.25', '0.3125', '{value}']") in err
        assert not out.exists()

    def test_broken_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[instance]\nname = broken\n")
        rc = main(["solve", "--instance", str(cfg), "--out",
                   str(tmp_path)])
        assert rc == 2
        assert "missing section" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, where", [
        ("m = 128", "m = inf", "[grid] m"),
        ("m = 128", "m = 1e400", "[grid] m"),
        ("m = 128", "m = nan", "[grid] m"),
        ("K = 2", "K = inf", "[constants] K"),
        ("L = 1", "L = nan", "[constants] L"),
    ], ids=["m-inf", "m-1e400", "m-nan", "K-inf", "L-nan"])
    def test_non_finite_integer(self, tmp_path, capsys, old, new, where):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(TIGHT.replace(old, new))
        rc = main(["audit", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert where in err[0]

    @pytest.mark.parametrize("expr", ["1/0", "0^-1", "10^400", "(0-1)^0.5",
                                      "(-0.3^0.3 % 1) / (0-7.6)^-2.25"])
    @pytest.mark.parametrize("old, new, where", [
        ("[coeff1]\nexpr = 0.25", "[coeff1]\nexpr = {}", "[coeff1] expr"),
        ("[h0]\nexpr = 1", "[h0]\nexpr = {}", "[h0] expr"),
        ("branch1 = 0, 0.5, 2*x, 2", "branch1 = 0, 0.5, 2*x, {}",
         "[map1] branch1 derivative"),
    ], ids=["coeff", "h0", "branch"])
    def test_expression_that_cannot_be_evaluated(self, tmp_path, capsys,
                                                 expr, old, new, where):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TIGHT.replace(old, new.format(expr)))
        rc = main(["audit", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert where in err[0] and repr(expr) in err[0]

    @pytest.mark.parametrize("old, new, where", [
        ("branch1 = 0, 0.5, 2*x, 2", "branch1 = 0, 0.5, 2*x + x*(0-1)^0.5, 2",
         "[map1] branch1"),
        ("[h0]\nexpr = 1", "[h0]\ncomponents = 1; x*(0-1)^0.5",
         "[h0] components[1]"),
    ], ids=["branch", "h0-components"])
    def test_complex_value_where_a_real_one_is_needed(self, tmp_path, capsys,
                                                      old, new, where):
        # Complex in every x, so no constant probe refuses it.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TIGHT.replace(old, new))
        rc = main(["audit", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert where in err[0]
        assert "a complex value where a real one is needed" in err[0]

    @pytest.mark.parametrize("flag, value, message", [
        ("--count", "0", "--count must be >= 1"),
        ("--count", "-3", "--count must be >= 1"),
        ("--seed", "-1", "--seed must be >= 0"),
    ])
    def test_degenerate_axiom_corpus(self, tmp_path, capsys, flag, value,
                                     message):
        rc = main(["axioms", flag, value, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert message in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e400"])
    def test_degenerate_tolerance(self, tmp_path, capsys, tol):
        rc = main(["solve", "--instance", "doubling", "--tol", tol,
                   "--max-steps", "3", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--tol must be > 0 and finite" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_degenerate_cov_check_tolerance(self, tmp_path, capsys, tol):
        rc = main(["cov-check", "--grid", "64", "--tol", tol,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "--tol must be > 0 and finite" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_negative_max_steps(self, tmp_path, capsys):
        rc = main(["solve", "--instance", "doubling", "--max-steps", "-1",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "--max-steps must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tolerance_below_float_resolution(self, tmp_path, capsys):
        rc = main(["solve", "--instance", "doubling", "--tol", "1e-300",
                   "--max-steps", "2000", "--out", str(tmp_path)])
        assert rc == 2
        assert "below float resolution" in capsys.readouterr().err
        assert not (tmp_path / "certificate.txt").exists()

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("cell_left,cell_right,value", "CSV has 0 cells, grid needs 16"),
    ])
    def test_h0_csv_without_cells(self, tmp_path, capsys, text, message):
        (tmp_path / "h0.csv").write_text(text)
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TIGHT.replace("m = 128", "m = 16")
                       .replace("expr = 1\n", "csv = h0.csv\n", 1))
        rc = main(["solve", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_non_numeric_h0_csv(self, tmp_path, capsys):
        rows = ["cell_left,cell_right,value"]
        rows += [f"{i / 16!r},{(i + 1) / 16!r},1.0" for i in range(16)]
        rows[5] = rows[5].replace("1.0", "one")
        (tmp_path / "h0.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TIGHT.replace("m = 128", "m = 16")
                       .replace("expr = 1\n", "csv = h0.csv\n", 1))
        rc = main(["solve", "--instance", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_monomial_family_rejected_for_solve(self, tmp_path, capsys):
        rc = main(["solve", "--instance", "doubling", "--psi", "monomial",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags, young_m", [
        (["--m", "400"], None),
        (["--m", "1e6"], None),
        ([], "400"),
    ], ids=["flag-400", "flag-1e6", "file-400"])
    def test_large_young_parameter_solves(self, tmp_path, flags, young_m):
        # psi(1/t) overflows for large m, but the norm only evaluates
        # tau^-1(s) = 1/psi^-1(1/s), which stays finite.
        instance = "twobranch"
        if young_m is not None:
            instance = tmp_path / "big_m.cfg"
            instance.write_text(TIGHT.replace("alpha = 0.2", "alpha = 0.25")
                                .replace("m = 2.0", f"m = {young_m}"))
        rc = main(["solve", "--instance", str(instance), *flags,
                   "--grid", "64", "--out", str(tmp_path)])
        assert rc == 0
        assert "verdict = PASS" in (tmp_path / "certificate.txt").read_text()

    @pytest.mark.parametrize("flags, young_m", [
        (["--m", "1"], None),
        ([], "1"),
    ], ids=["flag-1", "file-1"])
    def test_young_parameter_out_of_range(self, tmp_path, capsys, flags,
                                          young_m):
        instance = "twobranch"
        if young_m is not None:
            instance = tmp_path / "small_m.cfg"
            instance.write_text(TIGHT.replace("m = 2.0", f"m = {young_m}"))
        out = tmp_path / "out"
        rc = main(["solve", "--instance", str(instance), *flags,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "1 < m < inf" in err
        if young_m is not None:
            assert str(instance) in err and "[young]" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--instance", "doubling", "--seed", "1"],
        ["audit", "--instance", "doubling", "--seed", "1"],
        ["norm", "--instance", "doubling", "--seed", "1"],
        ["bridge", "--instance", "doubling", "--seed", "1"],
        ["cov-check", "--seed", "1"],
        pytest.param(["cov-check", "--psi", "power"], id="cov-check-psi"),
        pytest.param(["cov-check", "--m", "2"], id="cov-check-m"),
        pytest.param(["audit", "--instance", "doubling", "--psi", "power"],
                     id="audit-psi"),
        pytest.param(["audit", "--instance", "doubling", "--m", "2"],
                     id="audit-m"),
        ["selftest", "--grid", "64"],
    ], ids=lambda argv: argv[0])
    def test_flag_the_subcommand_does_not_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_solve_pins_the_heap_before_it_loads(monkeypatch, tmp_path):
    calls = []
    load = cli._load
    monkeypatch.setattr(cli, "_pin_malloc_thresholds",
                        lambda: calls.append("pin"))
    monkeypatch.setattr(cli, "_load",
                        lambda *a, **k: calls.append("load") or load(*a, **k))
    assert main(["solve", "--instance", "twobranch", "--grid", "64",
                 "--out", str(tmp_path)]) == 0
    assert calls == ["pin", "load"]
