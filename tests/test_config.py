import math
import textwrap

import numpy as np
import pytest

from lorsolve import (
    BUNDLED_INSTANCES,
    ConfigError,
    SampledFn,
    audit_contraction,
    bundled_instance_path,
    load_instance,
)
from lorsolve import config
from conftest import bench_workloads

MINIMAL = textwrap.dedent("""\
    [instance]
    name = mini

    [domain]
    boxes = 0, 1

    [grid]
    m = 64

    [young]
    family = power
    m = 2.0

    [constants]
    K = 2
    L = 1
    alpha = 0.25

    [h0]
    expr = 1

    [map1]
    branch1 = 0, 0.5, 2*x, 2
    branch2 = 0.5, 1, 2*x - 1, 2

    [coeff1]
    expr = 0.25
    """)


class TestBundled:
    def test_names(self):
        assert BUNDLED_INSTANCES == ("doubling", "twobranch", "linear_h0")

    @pytest.mark.parametrize("name", BUNDLED_INSTANCES)
    def test_all_load(self, name):
        inst, oracle = load_instance(bundled_instance_path(name))
        assert inst.label == name
        assert "h0_lorentz_norm" in oracle

    def test_doubling_oracle_values(self):
        inst, oracle = load_instance(bundled_instance_path("doubling"))
        assert oracle["solution_constant"] == pytest.approx(4.0 / 3.0,
                                                            rel=1e-15)
        assert inst.norm(inst.h0) == pytest.approx(
            oracle["h0_lorentz_norm"], rel=1e-12
        )

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            bundled_instance_path("missing")


class TestLoadInstance:
    def test_from_text(self):
        inst, oracle = load_instance(MINIMAL)
        assert inst.m == 64
        assert inst.n_maps == 1
        assert inst.alpha == 0.25
        assert oracle == {}
        assert inst.label == "mini"

    def test_grid_override(self):
        inst, _ = load_instance(MINIMAL, grid=128)
        assert inst.m == 128

    def test_psi_override(self):
        inst, _ = load_instance(MINIMAL, psi_param=3.0)
        assert inst.psi_label == "power[m=3]"

    def test_from_path_with_label_fallback(self, tmp_path):
        p = tmp_path / "renamed_case.cfg"
        p.write_text(MINIMAL.replace("[instance]\nname = mini\n\n", ""))
        inst, _ = load_instance(p)
        assert inst.label == "renamed_case"

    def test_vector_components(self):
        text = MINIMAL.replace("expr = 1\n", "components = 1; 0; 0\n", 1)
        inst, _ = load_instance(text)
        assert inst.h0.is_vector
        assert inst.h0.values.shape == (64, 3)
        assert np.all(inst.h0.values[:, 0] == 1.0)

    def test_h0_from_csv(self, tmp_path):
        from lorsolve import Domain

        f = SampledFn.from_callable(Domain.unit_interval(), 64,
                                    lambda x: x * 2.0)
        csv_path = tmp_path / "h0.csv"
        with csv_path.open("w", encoding="utf-8") as fh:
            f.write_csv(fh)
        cfg = tmp_path / "case.cfg"
        cfg.write_text(MINIMAL.replace("expr = 1\n", "csv = h0.csv\n", 1))
        inst, _ = load_instance(cfg)
        assert np.array_equal(inst.h0.values, f.values)

    def test_expression_h0(self):
        text = MINIMAL.replace("expr = 1\n", "expr = x^2\n", 1)
        inst, _ = load_instance(text)
        mid0 = inst.h0.midpoints[0]
        assert inst.h0.values[0] == mid0**2


class TestRejections:
    def test_empty(self):
        with pytest.raises(ConfigError, match="empty"):
            load_instance("\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_instance("no_such_file.cfg")

    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"\[grid\]"):
            load_instance(MINIMAL.replace("[grid]\nm = 64\n", ""))

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="alpha"):
            load_instance(MINIMAL.replace("alpha = 0.25", "alpha = wide"))

    def test_branch_needs_three_or_four_fields(self):
        for branch in ["0, 0.5", "0, 0.5, 2*x, 2, 2"]:
            with pytest.raises(ConfigError, match="branch1 must be"):
                load_instance(MINIMAL.replace("0, 0.5, 2*x, 2", branch))

    def test_declared_derivative_changes_nothing(self):
        three = MINIMAL.replace(", 2\n", "\n")
        assert "2*x\n" in three and "2*x - 1\n" in three
        (a, _), (b, _) = load_instance(three), load_instance(MINIMAL)
        assert all(np.array_equal(i, j)
                   for i, j in zip(a._target_idx, b._target_idx))
        assert audit_contraction(a).as_text() == audit_contraction(b).as_text()

    def test_declared_negative_slope_is_not_probed(self, tmp_path,
                                                   monkeypatch):
        # Half the branches of the benchmark's many-branch workload are
        # "c - s*(x - a), -s": the derived slope folds to the constant -s,
        # which is the declared "-s", so nothing is compiled or checked.
        def refuse(*args):
            raise AssertionError("a declared derivative was probed")

        monkeypatch.setattr(config, "_probed", refuse)
        monkeypatch.setattr(config, "_check_derivative", refuse)
        bench_workloads().generate("multibox-vec", tmp_path, 23, cells=16)
        inst, _ = load_instance(tmp_path / "instance.cfg")
        slopes = [b.deriv_tree for F in inst.maps for b in F.branches]
        assert len(slopes) == 168
        assert all(tree[0] == "const" for tree in slopes)
        assert sum(tree[1] < 0.0 for tree in slopes) == 84

    @pytest.mark.parametrize("declared", ["", ", 0.5*x^-0.5"],
                             ids=["derived", "declared"])
    def test_infinite_slope_at_an_end_loads_without_warning(self, declared):
        # The slope of x^0.5 is infinite at x = 0, a probe point; a numpy
        # warning there is an error under this suite's warning filter.
        text = MINIMAL.replace(
            "branch1 = 0, 0.5, 2*x, 2\nbranch2 = 0.5, 1, 2*x - 1, 2",
            f"branch1 = 0, 1, x^0.5{declared}")
        branch = load_instance(text)[0].maps[0].branches[0]
        assert branch.deriv(np.array([0.25, 1.0])).tolist() == [1.0, 0.5]

    def test_noncontiguous_maps(self):
        text = MINIMAL.replace("[map1]", "[map3]").replace("[coeff1]",
                                                           "[coeff3]")
        with pytest.raises(ConfigError, match="map"):
            load_instance(text)

    def test_coeff_without_map(self):
        text = MINIMAL + "\n[coeff2]\nexpr = 0.1\n"
        with pytest.raises(ConfigError, match="coeff"):
            load_instance(text)

    def test_map_without_coeff(self):
        text = MINIMAL.replace("[coeff1]\nexpr = 0.25\n", "")
        with pytest.raises(ConfigError, match="coeff"):
            load_instance(text)

    def test_h0_requires_exactly_one_source(self):
        text = MINIMAL.replace("expr = 1\n", "expr = 1\ncsv = also.csv\n", 1)
        with pytest.raises(ConfigError, match="h0"):
            load_instance(text)

    def test_monomial_rejected_for_solving(self):
        text = MINIMAL.replace("family = power", "family = monomial")
        with pytest.raises(ConfigError, match="admissible|power"):
            load_instance(text, require_admissible=True)

    def test_oracle_must_be_numeric(self):
        text = MINIMAL + "\n[oracle]\nsolution_constant = approx\n"
        with pytest.raises(ConfigError, match="oracle"):
            load_instance(text)


class TestLoadConfigRaw:
    def test_inline_comments_stripped(self):
        text = MINIMAL.replace("m = 64", "m = 64  # cells")
        inst, _ = load_instance(text)
        assert inst.m == 64

    def test_oracle_floats(self):
        text = MINIMAL + "\n[oracle]\nsolution_constant = 1.25\n"
        _, oracle = load_instance(text)
        assert oracle == {"solution_constant": 1.25}
