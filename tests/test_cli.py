import os
import stat
import textwrap

import pytest

from lorsolve import ROUTES
from lorsolve.cli import _WRITE_SLICE, _atomic_write, main

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
    @pytest.mark.parametrize("size", [0, 1, _WRITE_SLICE, 2 * _WRITE_SLICE + 3])
    def test_text_is_written_whole(self, tmp_path, size):
        text = ("0.25,1e-05\n" * (size // 11 + 1))[:size]
        _atomic_write(tmp_path, "t.csv", text)
        assert (tmp_path / "t.csv").read_text() == text


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

    def test_small_grid(self, tmp_path):
        assert main(["audit", "--instance", "doubling", "--grid", "8",
                     "--out", str(tmp_path)]) == 2

    def test_broken_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[instance]\nname = broken\n")
        rc = main(["solve", "--instance", str(cfg), "--out",
                   str(tmp_path)])
        assert rc == 2
        assert "missing section" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_degenerate_tolerance(self, tmp_path, capsys, tol):
        rc = main(["solve", "--instance", "doubling", "--tol", tol,
                   "--max-steps", "3", "--out", str(tmp_path)])
        assert rc == 2
        assert "--tol must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "certificate.txt").exists()

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
