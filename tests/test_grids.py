import builtins
import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorsolve import (
    Domain,
    GridError,
    SampledFn,
    derive_tau,
    distribution,
    lorentz_norm,
    pointwise_norm,
    power_young,
    rearrangement,
)
from lorsolve import grids
from lorsolve.grids import StepDistribution, StepFn


def _csv_text(f):
    """What ``f.write_csv`` writes, as one string."""
    buf = io.StringIO()
    f.write_csv(buf)
    return buf.getvalue()


class TestDomain:
    def test_unit_interval(self, unit):
        assert unit.total_measure == 1.0
        assert unit.boxes == ((0.0, 1.0),)

    def test_union_measure(self):
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        assert d.total_measure == 0.75

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(GridError):
            Domain.from_intervals([(0.0, 0.6), (0.5, 1.0)])

    def test_contains_half_open(self, unit):
        hits = unit.contains(np.array([0.0, 0.5, 1.0, -0.1]))
        assert hits.tolist() == [True, True, False, False]

    def test_empty_interval_rejected(self):
        with pytest.raises(GridError):
            Domain.interval(1.0, 1.0)


class TestSampledFn:
    def test_cells_per_box(self):
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        f = SampledFn.zeros(d, 16)
        assert f.ncells == 32
        assert f.cell_measures.sum() == pytest.approx(0.75, rel=1e-15)

    def test_from_callable_midpoint_projection(self, unit):
        f = SampledFn.from_callable(unit, 4, lambda x: x)
        assert np.array_equal(f.values, np.array([1, 3, 5, 7]) / 8.0)

    def test_indicator_measure(self, unit):
        chi = SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        assert chi.integral() == pytest.approx(0.25, rel=1e-15)

    def test_integral_linear_exact(self):
        # midpoint projection integrates affine functions exactly
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        g = SampledFn.from_callable(d, 16, lambda x: x)
        assert g.integral() == pytest.approx(0.40625, rel=1e-14)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_vector_integral_is_componentwise(self, order):
        d = Domain.from_intervals([(0.0, 0.25), (0.5, 1.0)])
        rng = np.random.default_rng(12)
        vals = np.asarray(rng.normal(size=(4096, 3)), order=order)
        got = SampledFn(d, 2048, vals).integral()
        want = [SampledFn(d, 2048, vals[:, j]).integral() for j in range(3)]
        assert got.tolist() == want

    def test_eval_at_zero_outside(self, unit):
        f = SampledFn.constant(unit, 8, 3.0)
        vals = f.eval_at(np.array([0.5, 1.5, -1.0]))
        assert vals.tolist() == [3.0, 0.0, 0.0]

    def test_cell_index_half_open(self, unit):
        f = SampledFn.zeros(unit, 4)
        idx = f.cell_index_of(np.array([0.0, 0.25, 0.999, 1.0]))
        assert idx.tolist() == [0, 1, 3, -1]

    def test_arithmetic_and_clip(self, unit):
        f = SampledFn.from_callable(unit, 8, lambda x: x)
        g = (2.0 * f - f).clip_at(0.5)
        assert np.max(g.values) == 0.5
        assert np.allclose((f + f).values, 2 * f.values)

    def test_mixed_grid_arithmetic_rejected(self, unit):
        f = SampledFn.zeros(unit, 8)
        g = SampledFn.zeros(unit, 16)
        with pytest.raises(GridError):
            _ = f + g

    def test_constructor_copies_its_values(self, unit):
        arr = np.array([1.0, -2.0, 3.0, 0.5])
        f = SampledFn(unit, 4, arr)
        arr[:] = 7.0
        assert f.values.tolist() == [1.0, -2.0, 3.0, 0.5]

    def test_results_are_read_only(self):
        d = Domain.from_intervals([(0.0, 0.3), (1.0, 1.7)])
        rng = np.random.default_rng(4)
        f = SampledFn(d, 8, rng.normal(size=16))
        v = SampledFn(d, 8, rng.normal(size=(16, 3)))
        results = [f + f, f - f, -f, 2.0 * f, f * f, f.abs(), f.clip_at(0.0),
                   v + v, v - v, pointwise_norm(v), pointwise_norm(f)]
        for r in results:
            assert not r.values.flags.writeable
            with pytest.raises(ValueError):
                r.values[0] = 1.0

    def test_results_keep_the_checks_of_the_constructor(self, unit):
        f = SampledFn(unit, 4, [1e308, 1.0, 2.0, 3.0])
        with pytest.raises(GridError, match="must be finite"), \
                np.errstate(over="ignore"):
            _ = f + f

    @pytest.mark.parametrize("boxes", [[(-0.3, 2.0), (2.0, 2.5)], [(0.1, 0.7)]])
    def test_last_edge_of_each_interval_is_its_end(self, boxes):
        # -0.3 + 16 * (2.0 - -0.3) / 16 is 1.9999999999999998.
        m = 16
        f = SampledFn.zeros(Domain.from_intervals(boxes), m)
        left, right = f.cell_bounds()
        for b, (lo, hi) in enumerate(boxes):
            assert left[b * m] == lo
            assert right[(b + 1) * m - 1] == hi
        rows = _csv_text(f).splitlines()[1:]
        for b, (lo, hi) in enumerate(boxes):
            assert rows[(b + 1) * m - 1].split(",")[1] == repr(hi)

    @pytest.mark.parametrize("lo, hi", [(-0.0, 1.0), (-1.0, -0.0)])
    def test_signed_zero_ends_echo_the_domain(self, lo, hi):
        # -0.0 + 0 * w is +0.0, and -1.0 + 4 * (1.0 / 4) is +0.0.
        domain = Domain.interval(lo, hi)
        f = SampledFn(domain, 4, np.arange(4.0))
        text = _csv_text(f)
        rows = text.splitlines()[1:]
        assert rows[0].split(",")[0] == repr(lo)
        assert rows[-1].split(",")[1] == repr(hi)
        g = SampledFn.from_csv(text, domain, 4)
        assert g.values.tobytes() == f.values.tobytes()
        assert _csv_text(g) == text

    def test_integral_abs_over_subset(self, unit):
        f = SampledFn.from_callable(unit, 64, lambda x: -np.ones_like(x))
        sub = Domain.from_intervals([(0.25, 0.75)])
        assert f.integral_abs_over(sub) == pytest.approx(0.5, rel=1e-12)


class TestCsvRoundTrip:
    def test_float_exact(self, unit):
        f = SampledFn.from_callable(unit, 32, lambda x: np.sin(7 * x))
        g = SampledFn.from_csv(_csv_text(f), unit, 32)
        assert np.array_equal(f.values, g.values)

    def test_vector_exact(self, unit):
        vals = np.arange(24, dtype=float).reshape(8, 3) / 7.0
        f = SampledFn(unit, 8, vals)
        g = SampledFn.from_csv(_csv_text(f), unit, 8)
        assert np.array_equal(f.values, g.values)
        assert g.is_vector

    def test_complex_exact(self, unit):
        f = SampledFn(unit, 8, np.arange(8) * (0.5 + 0.25j))
        g = SampledFn.from_csv(_csv_text(f), unit, 8)
        assert np.array_equal(f.values, g.values)

    def test_no_numpy_reprs_in_output(self, unit):
        f = SampledFn.zeros(unit, 8)
        assert "np." not in _csv_text(f)

    def test_wrong_grid_rejected(self, unit):
        f = SampledFn.zeros(unit, 8)
        with pytest.raises(GridError):
            SampledFn.from_csv(_csv_text(f), unit, 16)

    @staticmethod
    def _rows(unit):
        return _csv_text(SampledFn.zeros(unit, 4)).splitlines()

    def test_non_numeric_value_rejected(self, unit):
        rows = self._rows(unit)
        rows[2] = rows[2].rsplit(",", 1)[0] + ",abc"
        with pytest.raises(GridError, match="row 2 has a non-numeric field"):
            SampledFn.from_csv("\n".join(rows) + "\n", unit, 4)

    def test_wrong_field_count_rejected(self, unit):
        rows = self._rows(unit)
        rows[3] += ",0.0"
        with pytest.raises(GridError, match="row 3 has 4 fields"):
            SampledFn.from_csv("\n".join(rows) + "\n", unit, 4)

    def test_nan_edge_rejected(self, unit):
        rows = self._rows(unit)
        rows[1] = "nan," + rows[1].split(",", 1)[1]
        with pytest.raises(GridError, match="row 1 cell edges"):
            SampledFn.from_csv("\n".join(rows) + "\n", unit, 4)


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308,
             1e16, 1.5e-7, -3.0e-300, 123456789012345680.0]
_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(_EXTREMES))
_CSV_DOMAINS = [
    Domain.unit_interval(),
    Domain.from_intervals([(0.0, 1 / 3), (0.5, 2.0)]),
    Domain.from_intervals([(-1000.0, -999.9), (3.0, 3.1)]),
]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """Where _read_both writes its file (module scope: hypothesis tests
    rewrite it for every example)."""
    return tmp_path_factory.mktemp("csv") / "h0.csv"


def _read_both(text, domain, m, path):
    """SampledFn.from_csv of ``text`` as a string and of its UTF-8 bytes
    as a file at ``path``: both routes give the same values, bit for bit,
    or raise a GridError with the same message, which is raised again."""
    path.write_bytes(text.encode())
    outcomes = []
    for src in (text, path):
        try:
            g = SampledFn.from_csv(src, domain, m)
            outcomes.append((g.values.dtype, g.values.shape,
                             g.values.tobytes()))
        except GridError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[1], str):
        raise GridError(outcomes[1])
    return g


def _np_reads(field, dtype):
    """The number np.loadtxt reads ``field`` as, of ``dtype``, or None if
    it does not read one number."""
    try:
        a = np.loadtxt(io.StringIO(f"0,{field}\n"), dtype=dtype, delimiter=",",
                       comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    return a[0, 1] if a.shape == (1, 2) else None


class TestCsvParser:
    """SampledFn.from_csv: what it accepts, bit for bit, and the row its
    error messages name, the same for a string and for a file."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(_CSV_DOMAINS), st.integers(1, 9),
           st.integers(1, 3), st.booleans(), st.data())
    def test_round_trip_bit_for_bit(self, csv_path, domain, m, d, is_complex,
                                    data):
        n = len(domain.boxes) * m * d * (2 if is_complex else 1)
        vals = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
        if is_complex:
            # Set both halves: arithmetic would turn -0.0 parts into 0.0.
            vals = vals.view(complex)
        vals = vals.reshape(-1, d) if d > 1 else vals
        f = SampledFn(domain, m, vals)
        g = _read_both(_csv_text(f), domain, m, csv_path)
        assert g.values.dtype == f.values.dtype
        assert g.values.shape == f.values.shape
        assert g.values.tobytes() == f.values.tobytes()

    @staticmethod
    def _rows(m=5000):
        f = SampledFn.from_callable(Domain.unit_interval(), m,
                                    lambda x: np.cos(3 * x))
        return _csv_text(f).splitlines()

    @staticmethod
    def _read(rows, path, m=5000, end="\n"):
        return _read_both(end.join(rows) + end, Domain.unit_interval(), m,
                          path)

    @pytest.mark.parametrize("edit, message", [
        ({4097: lambda r: r.rsplit(",", 1)[0] + ",abc"},
         "CSV row 4097 has a non-numeric field: "),
        ({3000: lambda r: r + ",0.0"},
         "CSV row 3000 has 4 fields, header has 3"),
        ({4999: lambda r: "0.5," + r.split(",", 1)[1]},
         "CSV row 4999 cell edges do not match grid"),
        ({2500: lambda r: ""}, "CSV row 2500 has 0 fields, header has 3"),
        ({2500: lambda r: r + "\n"}, "CSV has 5001 cells, grid needs 5000"),
        ({5000: lambda r: r + "\n"}, "CSV has 5001 cells, grid needs 5000"),
        ({4999: lambda r: None}, "CSV has 4999 cells, grid needs 5000"),
        # The first bad row is named, whatever kind of fault comes later.
        ({3000: lambda r: r + ",0.0", 4097: lambda r: r + "x",
          4999: lambda r: "0.5," + r.split(",", 1)[1]},
         "CSV row 3000 has 4 fields"),
        ({10: lambda r: "0.5," + r.split(",", 1)[1], 4097: lambda r: r + "x"},
         "CSV row 10 cell edges do not match grid"),
    ])
    def test_first_fault_is_named(self, edit, message, csv_path):
        rows = self._rows()
        for i, change in edit.items():
            rows[i] = change(rows[i])
        rows = [r for r in rows if r is not None]
        with pytest.raises(GridError) as err:
            self._read(rows, csv_path)
        assert str(err.value).startswith(message)

    def test_non_numeric_message_lists_the_fields(self, csv_path):
        rows = self._rows(16)
        rows[5] = rows[5].rsplit(",", 1)[0] + ", one "
        fields = next(csv.reader([rows[5]]))
        with pytest.raises(GridError) as err:
            self._read(rows, csv_path, 16)
        assert str(err.value) == f"CSV row 5 has a non-numeric field: {fields!r}"

    @pytest.mark.parametrize("value", ["0.5#", "#0.5", "0.5 # note"])
    def test_hash_is_not_a_comment(self, value, csv_path):
        rows = self._rows(16)
        rows[7] = rows[7].rsplit(",", 1)[0] + "," + value
        with pytest.raises(GridError, match="CSV row 7 has a non-numeric"):
            self._read(rows, csv_path, 16)

    def test_comment_line_is_a_row(self, csv_path):
        rows = self._rows(16)
        rows.insert(3, "# a comment")
        with pytest.raises(GridError, match="CSV has 17 cells, grid needs 16"):
            self._read(rows, csv_path, 16)

    @pytest.mark.parametrize("value", ["1_0", "١", "2J", "1+j", "1e"])
    def test_refused_numbers(self, value, csv_path):
        rows = self._rows(16)
        rows[16] = rows[16].rsplit(",", 1)[0] + "," + value
        with pytest.raises(GridError, match="CSV row 16 has a non-numeric"):
            self._read(rows, csv_path, 16)

    def test_crlf_quotes_and_spaces_accepted(self, csv_path):
        rows = self._rows(16)
        want = self._read(rows, csv_path, 16).values
        styled = []
        for i, row in enumerate(rows):
            lo, hi, v = row.split(",")
            styled.append(row if i == 0 else
                          [f'"{lo}",{hi},{v}', f' {lo} ,\t{hi},"  {v} "',
                           f'{lo},"{hi}", {v}'][i % 3])
        got = self._read(styled, csv_path, 16, end="\r\n").values
        assert got.tobytes() == want.tobytes()

    def test_missing_final_newline_accepted(self, csv_path):
        rows = self._rows(16)
        got = _read_both("\n".join(rows), Domain.unit_interval(), 16,
                         csv_path)
        want = self._read(rows, csv_path, 16).values
        assert got.values.tobytes() == want.tobytes()

    def test_complex_forms(self, csv_path):
        rows = ["cell_left,cell_right,value",
                "0.0,0.25,(1+2j)", "0.25,0.5,3j", "0.5,0.75, ( -1-0j ) ",
                "0.75,1.0,1.5"]
        g = self._read(rows, csv_path, 4)
        assert g.values.tolist() == [1 + 2j, 3j, complex(-1.0, -0.0), 1.5]

    def test_complex_edge_is_non_numeric(self, csv_path):
        rows = ["cell_left,cell_right,value",
                "0.0,0.25,1j", "0.25j,0.5,1j", "0.5,0.75,1j", "0.75,1.0,1j"]
        with pytest.raises(GridError, match="CSV row 2 has a non-numeric"):
            self._read(rows, csv_path, 4)

    def test_line_break_inside_quotes_refused(self, csv_path):
        rows = self._rows(16)
        rows[4] = rows[4].rsplit(",", 1)[0] + ',"0.5\n"'
        with pytest.raises(GridError,
                           match="CSV row 4 has a line break inside a quoted"):
            self._read(rows, csv_path, 16)

    def test_stray_carriage_return_refused(self, csv_path):
        rows = self._rows(16)
        # Data row 6 is line 7 of the file.
        rows[6] = rows[6] + "\r" + rows[7]
        del rows[7]
        with pytest.raises(GridError, match="CSV line 7: "):
            self._read(rows, csv_path, 16)
        rows = self._rows(16)
        rows[0] = rows[0].replace(",", "\r", 1)
        with pytest.raises(GridError, match="CSV header: "):
            self._read(rows, csv_path, 16)

    def test_stray_carriage_return_inside_a_row_refused(self, csv_path):
        # The file keeps its 16 lines, so np.loadtxt reads it.
        rows = self._rows(16)
        rows[6] = rows[6].replace(",", ",\r", 1)
        with pytest.raises(GridError, match="CSV line 7: "):
            self._read(rows, csv_path, 16)

    def test_edge_padded_with_x1c_is_scanned(self, csv_path):
        # np.loadtxt and the row scan strip "\x1c", which str.strip
        # takes for whitespace and float does not.
        rows = self._rows(16)
        rows[2] = rows[2].replace(",", "\x1c,", 1)
        rows[9] += "x"
        with pytest.raises(GridError, match="CSV row 9 has a non-numeric"):
            self._read(rows, csv_path, 16)

    def test_row_ending_in_two_carriage_returns_refused(self, csv_path):
        # From a path numpy would read "\r\r\n" as a row end and a blank
        # line, and accept the file.
        rows = self._rows(16)
        rows[16] += "\r\r"
        with pytest.raises(GridError,
                           match="CSV is not one line of numbers per cell"):
            self._read(rows, csv_path, 16)

    def test_crlf_without_final_newline_accepted(self, csv_path):
        rows = self._rows(16)
        got = _read_both("\r\n".join(rows), Domain.unit_interval(), 16,
                         csv_path)
        want = self._read(rows, csv_path, 16).values
        assert got.values.tobytes() == want.tobytes()

    def test_utf8_bom_accepted(self, csv_path):
        rows = self._rows(16)
        got = _read_both("\ufeff" + "\n".join(rows) + "\n",
                         Domain.unit_interval(), 16, csv_path)
        want = self._read(rows, csv_path, 16).values
        assert got.values.tobytes() == want.tobytes()

    def test_unclosed_quote_at_the_end_accepted(self, csv_path):
        rows = self._rows(16)
        want = self._read(rows, csv_path, 16).values
        lo, hi, v = rows[16].split(",")
        rows[16] = f'{lo},{hi},"{v}'
        got = self._read(rows, csv_path, 16).values
        assert got.tobytes() == want.tobytes()

    def test_line_break_inside_quotes_on_a_full_count_refused(self, csv_path):
        # With a row left out the file keeps its 16 lines, so np.loadtxt
        # reads it, and joins the two lines into one row.
        rows = self._rows(16)
        rows[4] = rows[4].rsplit(",", 1)[0] + ',"0.5\n"'
        del rows[9]
        with pytest.raises(GridError, match="CSV has 15 cells, grid needs 16"):
            self._read(rows, csv_path, 16)

    def test_non_utf8_file_refused(self, csv_path):
        data = ("\n".join(self._rows(16)) + "\n").encode()
        data = data.replace(b"0.5,", b"0.5\xe9,", 1)
        with pytest.raises(UnicodeDecodeError) as want:
            data.decode("utf-8")
        csv_path.write_bytes(data)
        with pytest.raises(GridError) as err:
            SampledFn.from_csv(csv_path, Domain.unit_interval(), 16)
        assert str(err.value) == f"CSV is not UTF-8 text: {want.value}"

    @pytest.mark.parametrize("value", [
        "nan", "inf", "-Infinity", "1e400", "-1e309", "(1+nanj)", "1e400j",
        "inf-1j"])
    def test_non_finite_value_names_its_row(self, value, csv_path):
        rows = self._rows(16)
        rows[9] = rows[9].rsplit(",", 1)[0] + "," + value
        rows[12] = rows[12].rsplit(",", 1)[0] + ",nan"
        fields = next(csv.reader([rows[9]]))
        with pytest.raises(GridError) as err:
            self._read(rows, csv_path, 16)
        assert str(err.value) == (
            f"CSV row 9 has a non-finite value: {fields!r}")

    def test_non_finite_value_before_other_faults(self, csv_path):
        rows = self._rows(16)
        rows[3] = rows[3].rsplit(",", 1)[0] + ",inf"
        rows[5] = "0.5," + rows[5].split(",", 1)[1]
        with pytest.raises(GridError, match="CSV row 3 has a non-finite"):
            self._read(rows, csv_path, 16)
        rows[3] = "0.5," + rows[3].split(",", 1)[1]
        with pytest.raises(GridError, match="CSV row 3 cell edges"):
            self._read(rows, csv_path, 16)

    def test_non_finite_vector_component_names_its_row(self, csv_path):
        f = SampledFn(Domain.unit_interval(), 8, np.ones((8, 2)))
        rows = _csv_text(f).splitlines()
        rows[6] = rows[6].rsplit(",", 1)[0] + ",-inf"
        with pytest.raises(GridError, match="CSV row 6 has a non-finite"):
            self._read(rows, csv_path, 8)

    def test_a_plain_file_is_parsed_from_its_path(self, tmp_path,
                                                  monkeypatch):
        # numpy reads a path fastest; a file with a "\r", or a name numpy
        # would decompress, is parsed from its lines.
        srcs = []
        loadtxt = np.loadtxt

        def recorder(src, *args, **kwargs):
            srcs.append(src)
            return loadtxt(src, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recorder)
        monkeypatch.chdir(tmp_path)
        text = "\n".join(self._rows(16)) + "\n"
        want = self._read(self._rows(16), tmp_path / "want.csv", 16).values
        for name, content, route in [
                ("h0.csv", text, str),
                ("crlf.csv", text.replace("\n", "\r\n"), list),
                ("h0.csv.gz", text, list)]:
            (tmp_path / name).write_bytes(content.encode())
            srcs.clear()
            got = SampledFn.from_csv(name, Domain.unit_interval(), 16)
            assert got.values.tobytes() == want.tobytes()
            assert [type(src) for src in srcs] == [route]
            if route is str:
                assert srcs[0] == str(tmp_path / name)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        list("0123456789.eE+-jJ() \t_#x") + ["\xa0", "١", "inf", "nan",
                                             "infinity", "NaN", "1", "5"]),
        max_size=8).map("".join), st.booleans())
    def test_bad_row_is_the_one_numpy_refuses(self, csv_path, field,
                                              complex_file):
        # Row 1 holds ``field`` and row 2 is never a number: the message
        # names row 1 exactly when np.loadtxt refuses ``field``, or reads
        # it as a number that is not finite.
        last = "1j" if complex_file else "1.0"
        rows = ["cell_left,cell_right,value", f"0.0,0.25,{field}",
                "0.25,0.5,x", "0.5,0.75,1.0", f"0.75,1.0,{last}"]
        dtype = complex if complex_file or "j" in field else float
        value = _np_reads(field, dtype)
        if value is None:
            message = "CSV row 1 has a non-numeric field"
        elif np.isfinite(value):
            message = "CSV row 2 has a non-numeric field"
        else:
            message = "CSV row 1 has a non-finite value"
        with pytest.raises(GridError) as err:
            self._read(rows, csv_path, 4)
        assert str(err.value).startswith(message)


def _reference_csv(f):
    """Row-by-row writer that SampledFn.write_csv must match byte for byte."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    left, right = f.cell_bounds()
    if f.is_vector:
        w.writerow(["cell_left", "cell_right"]
                   + [f"value_{j}" for j in range(f.values.shape[1])])
    else:
        w.writerow(["cell_left", "cell_right", "value"])
    vals = f.values if f.is_vector else f.values[:, None]
    fmt = complex if np.iscomplexobj(vals) else float
    for i in range(f.ncells):
        w.writerow([repr(float(left[i])), repr(float(right[i]))]
                   + [repr(fmt(v)) for v in vals[i]])
    return buf.getvalue()


def _assert_same_text(got, want):
    """Fail with the first differing line of two CSV texts.

    A plain ``==`` on multi-MB texts makes pytest diff them, which runs for
    minutes.
    """
    if got == want:
        return
    g, w = got.splitlines(), want.splitlines()
    i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b),
             min(len(g), len(w)))
    pytest.fail(f"texts differ first at line {i}: "
                f"got {g[i] if i < len(g) else '<end>'!r}, "
                f"want {w[i] if i < len(w) else '<end>'!r}")


def _awkward_levels(rng, n):
    """A long run of one level, then random draws from +-0.0, subnormals
    and normal numbers of mixed scale."""
    k = n - n // 2
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320,
                     1e16, 1e-5, 4.0 / 3.0])
    normal = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, k)
    mixed = np.where(rng.random(k) < 0.5, rng.choice(pool, k), normal)
    return np.concatenate([np.full(n // 2, 4.0 / 3.0), mixed])


# Dyadic rationals k / 2**j of every size: short exact decimal
# expansions, such as the edges of dyadic grids, and long ones (|x| <
# 1e-4, |x| * 10**j of 2**53 and more).
_dyadics = st.builds(lambda k, j: k / 2.0**j,
                     st.integers(min_value=-2**56, max_value=2**56),
                     st.integers(min_value=0, max_value=30))
_finite = st.floats(allow_nan=False, allow_infinity=False)
# Powers of two and of ten across the fixed-notation range and just past
# it, with both float neighbours of each.
_POWERS = [2.0**k for k in range(-15, 56)] + [10.0**k for k in range(-5, 18)]
_POWERS += ([float(np.nextafter(v, 0)) for v in _POWERS]
            + [float(np.nextafter(v, np.inf)) for v in _POWERS])


def _texts(mat):
    """The rows of a zero-padded text matrix of grids, as strs: bulk rows
    are padded on the left, ``repr`` rows on the right."""
    return [bytes(r).replace(b"\0", b"").decode() for r in mat]


def _bulk_texts(x):
    """grids._text_matrix with every fixed-notation value on the bulk path,
    however few there are, in chunks of the writer's size, as strs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "_BULK_MIN", 1)
        step = grids._CSV_CHUNK_ROWS
        return [t for i in range(0, len(x), step)
                for t in _texts(grids._text_matrix(x[i:i + step]))]


def _assert_shortest_tier_matches(x, want):
    """The shortest-digits tier alone writes ``want``, the ``repr`` texts
    of ``x``, for every fixed-notation value of ``x``, dyadic ones
    included."""
    fixed = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)
    a = np.abs(x[fixed])
    neg = np.signbit(x[fixed])
    texts = []
    for i in range(0, len(a), grids._CSV_CHUNK_ROWS):
        chunk = slice(i, i + grids._CSV_CHUNK_ROWS)
        d, s = grids._shortest_digits(a[chunk])
        texts += _texts(grids._decimal_text(d, s, neg[chunk]))
    assert texts == [w for w, f in zip(want, fixed.tolist()) if f]


def _mixed_widths(rng):
    """At least ``_BULK_MIN`` distinct values whose ``repr`` fallbacks are
    wider (-1.2345678901234567e-300) and narrower (1e-05, inf) than any
    bulk text, among wide bulk texts (-9999999999999998.0), 0.0 and -0.0."""
    n = grids._BULK_MIN
    odd = [-1.2345678901234567e-300, 1e-05, np.inf, -9999999999999998.0,
           0.0, -0.0]
    # 1 <= |x| < 1000: at most 16 digits after the point, so the bulk
    # texts are no wider than the 19 characters of -9999999999999998.0.
    bulk = rng.uniform(1.0, 1000.0, n) * rng.choice([-1.0, 1.0], n)
    x = np.concatenate([bulk, odd * 4])
    return x[rng.permutation(len(x))]


_CORPUS_KINDS = ["bits", "uniform", "log-uniform", "decimals", "integers",
                 "four-thirds", "dyadic-grids"]


def _corpus(kind, n=100_000):
    """At least ``n`` seeded float64 values of one kind."""
    rng = np.random.default_rng(_CORPUS_KINDS.index(kind))
    if kind == "bits":
        # Finite ones: NaN and the infinities go through repr.
        x = rng.integers(0, 2**64, 2 * n, dtype=np.uint64).view(np.float64)
        return x[np.isfinite(x)][:n]
    if kind == "uniform":
        return rng.random(n)
    if kind == "log-uniform":
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5, 17, n)
    if kind == "decimals":
        # The float nearest a decimal of 0 to 9 places: an exact integer
        # over an exact power of ten, rounded once.
        places = 10.0 ** rng.integers(0, 10, n)
        return np.round(rng.uniform(-1e6, 1e6, n) * places) / places
    if kind == "integers":
        return rng.integers(-2**53 + 1, 2**53, n).astype(float)
    if kind == "four-thirds":
        return 4 / 3 + np.arange(-n // 2, n - n // 2) * np.spacing(4 / 3)
    # Edges of dyadic grids, up to 2**20 cells.
    return np.concatenate([np.arange(2**20 + 1) / 2**20,
                           -7.5 + np.arange(2**17 + 1) * (5.25 / 2**17)])



class TestReprFloats:
    """grids._text_matrix against ``repr``, one value at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_dyadics, _dyadics, _finite), max_size=40))
    @example([0.0])
    @example([-0.0])
    @example([0.0, -0.0, 5e-324, -2.5e-310])
    @example([5e-324])
    @example([1e-4])
    @example([float(np.nextafter(1e-4, 0))])
    @example([float(np.nextafter(1e-4, 1))])
    @example([2.0**-14])
    @example([2.0**-16])
    @example([-2.0**-16, 0.5])
    @example([1e15])
    @example([1e16])
    @example([2.0**53 - 1])
    @example([2.0**53])
    @example([2.0**53 + 2])
    @example([-(2.0**53 - 1), 2.0**52 + 0.5])
    @example([0.1])
    @example([1 / 3])
    @example([1 + 2.0**-20])
    @example([(2.0**53 - 1) / 2.0**19])
    @example([-7.5, -2.25, -0.0009765625, -123456.75])
    @example([0.5, 0.1, 0.25, 1 / 3, -0.75])
    @example([0.99993133544921875])     # a tie: repr 0.9999313354492188
    @example([9999999999999998.0])
    @example(_POWERS)
    @example(_mixed_widths(np.random.default_rng(12)).tolist())
    def test_matches_repr(self, values):
        x = np.array(values, dtype=float)
        want = [repr(v) for v in x.tolist()]
        assert _texts(grids._text_matrix(x)) == want
        assert _bulk_texts(x) == want
        _assert_shortest_tier_matches(x, want)

    @pytest.mark.parametrize("kind", _CORPUS_KINDS)
    def test_seeded_corpus_matches_repr(self, kind):
        x = _corpus(kind)
        assert len(x) >= 100_000
        want = [repr(v) for v in x.tolist()]
        assert _bulk_texts(x) == want
        _assert_shortest_tier_matches(x, want)

    def test_only_scientific_values_go_through_repr(self, monkeypatch):
        # Enough values for the bulk path, dyadic ones among them, and
        # four that only repr writes.
        rng = np.random.default_rng(5)
        n = grids._BULK_MIN
        x = np.concatenate([rng.uniform(0.5, 1.0, n), np.arange(n) / 64.0,
                            [1e-5, -2e20, np.inf, np.nan]])
        x = x[rng.permutation(len(x))]
        want = [repr(v) for v in x.tolist()]
        calls = []

        def counting_repr(v):
            calls.append(v)
            return builtins.repr(v)

        monkeypatch.setattr(grids, "repr", counting_repr, raising=False)
        assert _texts(grids._text_matrix(x)) == want
        assert len(calls) == 4

    def test_non_finite_values_go_through_repr(self):
        x = np.array([0.5, np.inf, 0.25, -np.inf, 1.5, np.nan, -2.0])
        assert _texts(grids._text_matrix(x)) == [repr(v) for v in x.tolist()]
        assert _bulk_texts(x) == [repr(v) for v in x.tolist()]

    def test_no_fixed_notation_value(self):
        x = np.resize([1e20, -3e-7, np.inf, np.nan], grids._BULK_MIN)
        assert _texts(grids._text_matrix(x)) == [repr(v) for v in x.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_dyadics.filter(lambda v: abs(v) < 1e6),
                     st.floats(min_value=-1e6, max_value=1e6)),
           st.one_of(st.integers(min_value=1, max_value=2**20).map(float),
                     st.floats(min_value=1e-3, max_value=1e6)),
           st.one_of(st.integers(min_value=0, max_value=13).map(lambda j: 2**j),
                     st.integers(min_value=1, max_value=5000)))
    @example(0.0, 1.0, 2**13)
    @example(-7.5, 5.25, 2**12)
    @example(0.3, 0.7, 2**13)
    @example(-0.3, 2.3, 16)
    def test_grid_edges_match_repr(self, lo, width, m):
        hi = lo + width
        if not hi > lo:
            return
        (edges,) = SampledFn.zeros(Domain.interval(lo, hi), m)._interval_edges()
        want = [repr(v) for v in edges.tolist()]
        assert _texts(grids._text_matrix(edges)) == want
        assert _bulk_texts(edges) == want


class TestCsvWriter:
    """write_csv against the row-by-row reference, across chunk boundaries
    and on two intervals of unequal width."""

    @pytest.mark.parametrize("kind", ["real", "vector", "complex"])
    def test_matches_reference(self, kind):
        m = 2 * grids._CSV_CHUNK_ROWS + 5
        domain = Domain.from_intervals([(-0.3, 0.7), (2.0, 2.125)])
        rng = np.random.default_rng(7)
        n = 2 * m
        if kind == "real":
            vals = _awkward_levels(rng, n)
        elif kind == "vector":
            vals = np.stack([_awkward_levels(rng, n) for _ in range(3)], axis=1)
        else:
            imag = rng.permutation(_awkward_levels(rng, n))
            vals = _awkward_levels(rng, n) + 1j * imag
        f = SampledFn(domain, m, vals)
        _assert_same_text(_csv_text(f), _reference_csv(f))

    @pytest.mark.parametrize("boxes, m", [
        ([(0.0, 1.0), (2.0, 2.5), (3.0, 3.25)], 2 * grids._CSV_CHUNK_ROWS),
        ([(-7.5, -2.25)], 4 * grids._CSV_CHUNK_ROWS),
        ([(0.0, 1.0)], 2 * grids._CSV_CHUNK_ROWS + 5),
        ([(0.0, 1.0)], 2**18),
    ])
    def test_dyadic_edges_match_reference(self, boxes, m):
        # Every edge takes the shortest-digits tier of _text_matrix: all
        # edges of the first two grids have short exact expansions, most of
        # the last two grids' edges do not (at 2**18 cells, 26.5 % do).
        domain = Domain.from_intervals(boxes)
        rng = np.random.default_rng(9)
        f = SampledFn(domain, m, _awkward_levels(rng, len(boxes) * m))
        _assert_same_text(_csv_text(f), _reference_csv(f))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_fields_of_mixed_widths(self, kind):
        # Cell values are finite: inf is left out.
        rng = np.random.default_rng(13)
        vals = _mixed_widths(rng)
        vals = vals[np.isfinite(vals)]
        if kind == "complex":
            vals = vals + 1j * rng.permutation(vals)
        f = SampledFn(Domain.interval(-0.3, 0.7), len(vals), vals)
        text = _csv_text(f)
        assert "\0" not in text
        _assert_same_text(text, _reference_csv(f))

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_single_precision_values_keep_every_row(self, dtype):
        # Keyed as uint64 without widening, float32 columns lost rows.
        m = grids._CSV_CHUNK_ROWS + 3
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if dtype == np.float32:
            vals = vals.real
        f = SampledFn(Domain.unit_interval(), m, vals.astype(dtype))
        assert f.values.dtype == dtype
        _assert_same_text(_csv_text(f), _reference_csv(f))

    def test_vector_layout_does_not_change_bytes(self):
        # ProblemInstance.apply returns Fortran-ordered vector values.
        m = grids._CSV_CHUNK_ROWS + 3
        domain = Domain.from_intervals([(-0.3, 0.7), (2.0, 2.125)])
        rng = np.random.default_rng(8)
        vals = np.stack([_awkward_levels(rng, 2 * m) for _ in range(4)], axis=1)
        c_order = SampledFn(domain, m, vals)
        f_order = SampledFn(domain, m, np.asfortranarray(vals))
        assert f_order.values.flags.f_contiguous
        assert not f_order.values.flags.c_contiguous
        _assert_same_text(_csv_text(f_order), _csv_text(c_order))


class TestDistribution:
    def test_scaled_indicator(self, unit, tau2):
        f = 2.0 * SampledFn.indicator(unit, 64, [(0.0, 0.25)])
        mu = distribution(f)
        assert mu.thresholds.tolist() == [0.0, 2.0]
        assert mu.measures.tolist() == [0.25]
        # integral of tau_inv(mu(s)) ds = tau_inv(1/4) * 2
        want = tau2.inverse(0.25) * 2.0
        assert mu.lorentz_integral(tau2.inverse) == pytest.approx(want, rel=1e-15)

    def test_right_continuity_convention(self, unit):
        f = SampledFn.indicator(unit, 4, [(0.0, 0.5)])
        mu = distribution(f)
        # mu(s) = measure{|f| > s}: 1/2 on [0,1), then 0
        assert mu(0.0) == 0.5
        assert mu(0.99) == 0.5
        assert mu(1.0) == 0.0

    def test_uses_magnitudes(self, unit):
        f = SampledFn.from_callable(unit, 16, lambda x: np.where(x < 0.5, -1.0, 1.0))
        mu = distribution(f)
        assert mu.thresholds.tolist() == [0.0, 1.0]
        assert mu.measures.tolist() == [1.0]


def _tied_values(rng, n, nlevels):
    """n values drawn from nlevels distinct ones (0.0 and -0.0 among them)."""
    pool = np.concatenate([[0.0, -0.0], rng.normal(size=max(nlevels - 2, 0))])
    return rng.choice(pool[:nlevels], size=n)


class TestLevels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=0, max_value=9),
           st.integers(min_value=-3, max_value=3),
           st.integers(min_value=1, max_value=12))
    @example(seed=0, log_m=4, log_len=0, nlevels=1)  # the zero function
    @example(seed=0, log_m=4, log_len=0, nlevels=2)  # 0.0 and -0.0 only
    def test_shared_measure_matches_per_cell_on_dyadic_widths(
            self, seed, log_m, log_len, nlevels):
        rng = np.random.default_rng(seed)
        m, length = 2 ** log_m, 2.0 ** log_len
        domain = Domain.interval(1.0, 1.0 + length)
        vals = _tied_values(rng, m, nlevels)
        if nlevels > 2 and seed % 3 == 0:
            vals = np.full(m, vals[0])  # a constant function
        f = SampledFn(domain, m, vals)
        levels, starts, w, mu = grids._levels(f)
        assert isinstance(w, float) and w == length / m and mu is None
        mags = np.abs(vals)
        assert _same_bits(levels, np.unique(mags))  # +-0.0 share a level
        assert (starts is None) == (levels.size == m)
        assert _same_bits(f.values, vals)  # sorted a copy, not f's values
        # On a dyadic width, count * w is the exact sum of the measures of
        # the cells at or above a level.
        cells = f.cell_measures
        above = [math.fsum(cells[mags >= u]) for u in levels]
        fs = rearrangement(f)
        assert fs.edges[:0:-1].tolist() == above
        dist = distribution(f)
        assert dist.measures.tolist() == (above if levels[0] > 0.0
                                          else above[1:])

    def test_equal_width_intervals_share_one_measure(self, tau2, monkeypatch):
        domain = Domain.from_intervals([(0.0, 0.5), (2.0, 2.5)])
        rng = np.random.default_rng(1)
        f = SampledFn(domain, 16, rng.choice([0.0, 1.0, 3.0], size=32))

        def no_cell_measures(self):
            raise AssertionError("a per-cell measure array was built")

        # No per-cell measure array is built on a one-width grid.
        monkeypatch.setattr(SampledFn, "cell_measures",
                            property(no_cell_measures))
        assert grids._levels(f)[2] == 0.5 / 16
        distribution(f)
        rearrangement(f)
        lorentz_norm(f, tau2)

    def test_unequal_width_intervals_keep_per_cell_measures(self):
        domain = Domain.from_intervals([(0.0, 1.0), (2.0, 2.5)])
        f = SampledFn.constant(domain, 16, 1.0)
        levels, starts, w, mu = grids._levels(f)
        assert w is None and starts.tolist() == [0]
        assert mu.tolist() == [1.5]
        assert distribution(f).measures.tolist() == [1.5]

    @pytest.mark.parametrize("boxes", [
        # dyadic widths 1, 1/2, 1/4, 1/8; widths 0.3, 0.7, 0.1 (not dyadic)
        [(0.0, 1.0), (2.0, 2.5), (3.0, 3.25), (4.0, 4.125)],
        [(0.0, 0.3), (1.0, 1.7), (2.0, 2.1)],
    ], ids=["dyadic", "non-dyadic"])
    @pytest.mark.parametrize("kind", ["ties", "distinct"])
    @pytest.mark.parametrize("seed", range(4))
    def test_per_interval_sorts_merged(self, boxes, kind, seed):
        # Each interval sorted on its own, the sorted runs merged: the
        # levels, and a running sum of the cell measures in the stable
        # order of |f|, equal values from the last cell back.
        domain = Domain.from_intervals(boxes)
        m = 64
        rng = np.random.default_rng(seed)
        n = len(boxes) * m
        vals = (_tied_values(rng, n, 6) if kind == "ties"
                else rng.normal(size=n))
        f = SampledFn(domain, m, vals)
        levels, starts, w, mu = grids._levels(f)
        assert w is None
        assert _same_bits(f.values, vals)  # sorted a copy, not f's values
        mags, cells = np.abs(vals), f.cell_measures
        ref_levels, ref_mu = _ref_level_measures(mags, cells)
        assert _same_bits(levels, ref_levels)
        assert _same_bits(mu, ref_mu)
        assert (starts is None) == (kind == "distinct")
        if starts is not None:
            assert _same_bits(np.sort(mags)[starts], levels)
        # The unstable order of one argsort of all cells sums equal values
        # in another order; that shows only on widths that are not dyadic.
        order = np.argsort(mags)
        unstable = np.cumsum(cells[order[::-1]])[::-1]
        if starts is not None:
            unstable = unstable[starts]
        if kind == "distinct" or boxes[1] == (2.0, 2.5):
            assert _same_bits(mu, unstable)

    def test_level_measure_is_count_times_width(self):
        # 0.3 / 4096 is not dyadic: a running sum of the width drifts, while
        # count * width rounds once.
        m = 4096
        domain = Domain.interval(0.0, 0.3)
        rng = np.random.default_rng(2)
        vals = np.ones(m)
        vals[3300:] = rng.choice([0.0, 2.5, 7.0], size=m - 3300)
        f = SampledFn(domain, m, vals)
        w = grids._levels(f)[2]
        assert w == 0.3 / m
        dist = distribution(f)
        for level, measure in zip(dist.thresholds, dist.measures):
            assert measure == np.count_nonzero(vals > level) * w
        assert 3300 * w == 0.24169921875
        assert np.cumsum(f.cell_measures)[3299] == 0.24169921874998565


_NON_DYADIC = {"0.3": Domain.interval(0.0, 0.3),
               "1/3": Domain.interval(0.0, 1.0 / 3.0)}


class TestNonDyadicMeasures:
    @pytest.mark.parametrize("kind", ["distinct", "ties", "constant", "zero"])
    @pytest.mark.parametrize("grid", sorted(_NON_DYADIC))
    def test_measure_is_count_times_width_rounded_once(self, grid, kind):
        m = 4096
        rng = np.random.default_rng(23)
        vals = {"distinct": rng.uniform(-1.0, 1.0, m),
                "ties": rng.integers(-40, 41, m) / 8.0,
                "constant": np.full(m, 0.7),
                "zero": np.zeros(m)}[kind]
        f = SampledFn(_NON_DYADIC[grid], m, vals)
        lo, hi = _NON_DYADIC[grid].boxes[0]
        w = Fraction((hi - lo) / m)
        mags = np.sort(np.abs(vals))

        def measure(count):
            return float(Fraction(int(count)) * w)

        mu = distribution(f)
        above = m - np.searchsorted(mags, mu.thresholds[:-1], side="right")
        assert mu.measures.tolist() == [measure(c) for c in above]
        fs = rearrangement(f)
        at_or_above = m - np.searchsorted(mags, fs.values, side="left")
        assert fs.edges[1:].tolist() == [measure(c) for c in at_or_above]


def _ref_level_measures(values, cells):
    """The levels of ``values`` (>= 0) and the measure of {value >= level}
    of each, coded apart from ``grids._levels``.  ``cells`` is the one cell
    width (a float) or the per-cell measures.  One width: the exact product
    of the count and the width, rounded once.  Unequal widths: a running
    sum of the cell measures in a Python loop, from the top of the stable
    ``argsort`` order down, so equal values go from the last cell back."""
    if np.ndim(cells) == 0:
        uniq, counts = np.unique(values, return_counts=True)
        above = np.cumsum(counts[::-1])[::-1]
        return uniq, np.array([float(Fraction(int(c)) * Fraction(cells))
                               for c in above])
    order = np.argsort(values, kind="stable")
    running, sums = 0.0, []
    for i in order[::-1]:
        running += float(cells[i])
        sums.append(running)
    uniq, starts = np.unique(values[order], return_index=True)
    return uniq, np.array(sums[::-1])[starts]


def _ref_distribution_from(values, cells):
    """(thresholds, measures) of the distribution of ``values`` >= 0."""
    uniq, above = _ref_level_measures(values, cells)
    if uniq[0] > 0.0:
        return np.concatenate([[0.0], uniq]), above
    return uniq, above[1:]


def _ref_tau_inv(psi, s):
    """tau^-1 by the masked path only."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = 1.0 / np.asarray(psi.inv(1.0 / s[pos]), dtype=float)
    return out if out.ndim else float(out)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b) and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


# (domain, cells per interval): one shared dyadic width, one shared
# non-dyadic width, two equal-width intervals, and unequal widths (the
# per-cell-measure path), dyadic and not.  On the last, the order in which
# the cell measures are summed shows in their bits.
_NORM_GRIDS = {
    "dyadic": (Domain.interval(1.0, 2.0), 256),
    "non-dyadic": (Domain.interval(0.0, 0.3), 4096),
    "two-equal": (Domain.from_intervals([(0.0, 0.5), (2.0, 2.5)]), 128),
    "unequal": (Domain.from_intervals([(0.0, 1.0), (2.0, 2.5)]), 128),
    "unequal-non-dyadic": (Domain.from_intervals([(0.0, 0.3), (1.0, 1.7)]),
                           128),
}


class TestNormPipelineReference:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(_NORM_GRIDS)),
           st.sampled_from(["ties", "zero", "constant", "distinct"]),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=12))
    @example(grid="non-dyadic", kind="distinct", seed=0, nlevels=1)
    @example(grid="non-dyadic", kind="constant", seed=0, nlevels=1)
    @example(grid="dyadic", kind="ties", seed=0, nlevels=2)  # 0.0 and -0.0
    @example(grid="two-equal", kind="zero", seed=0, nlevels=1)
    @example(grid="unequal", kind="distinct", seed=0, nlevels=1)
    @example(grid="unequal-non-dyadic", kind="distinct", seed=0, nlevels=1)
    @example(grid="unequal-non-dyadic", kind="ties", seed=0, nlevels=2)
    @example(grid="unequal-non-dyadic", kind="ties", seed=0, nlevels=5)
    @example(grid="unequal-non-dyadic", kind="zero", seed=0, nlevels=1)
    def test_bit_for_bit(self, grid, kind, seed, nlevels):
        domain, m = _NORM_GRIDS[grid]
        rng = np.random.default_rng(seed)
        n = len(domain.boxes) * m
        if kind == "ties":
            vals = _tied_values(rng, n, nlevels)
        elif kind == "zero":
            vals = np.zeros(n)
        elif kind == "constant":
            vals = np.full(n, rng.normal())
        else:
            vals = rng.normal(size=n)
        f = SampledFn(domain, m, vals)
        one_width = not grid.startswith("unequal")
        lo, hi = domain.boxes[0]
        cells = (hi - lo) / m if one_width else f.cell_measures

        t_ref, mu_ref = _ref_distribution_from(np.abs(vals), cells)
        mu = distribution(f)
        assert _same_bits(mu.thresholds, t_ref)
        assert _same_bits(mu.measures, mu_ref)
        assert _same_bits(f.values, vals)  # sorted a copy, not f's values
        for exponent in (1.5, 2.0, 3.0):
            psi = power_young(exponent)
            want = float(np.sum(_ref_tau_inv(psi, mu_ref) * np.diff(t_ref)))
            got = mu.lorentz_integral(derive_tau(psi).inverse)
            assert _same_bits(got, want)
            assert _same_bits(lorentz_norm(f, derive_tau(psi)).value, want)

        # +-0.0 included: |f| gives them one level.
        levels, starts, w, _ = grids._levels(f)
        ref_levels, ref_measures = _ref_level_measures(np.abs(vals), cells)
        assert _same_bits(levels, ref_levels)
        assert (w is None) == (not one_width)
        fs = rearrangement(f)
        assert _same_bits(fs.values, ref_levels[::-1])
        assert _same_bits(fs.edges,
                          np.concatenate([[0.0], ref_measures[::-1]]))


class TestStepFinite:
    @pytest.mark.parametrize("thresholds, measures, field", [
        ([0.0, np.nan], [1.0], "thresholds"),
        ([0.0, np.inf], [1.0], "thresholds"),
        ([np.nan, 1.0], [1.0], "thresholds"),
        ([0.0, 1.0, np.nan], [2.0, 1.0], "thresholds"),
        ([0.0, 1.0, 2.0], [1.0, np.nan], "measures"),
        ([0.0, 1.0, 2.0], [np.nan, 1.0], "measures"),
        ([0.0, 1.0], [np.inf], "measures"),
        ([0.0, 1.0, 2.0], [1.0, -np.inf], "measures"),
    ])
    def test_distribution_refuses(self, thresholds, measures, field):
        with pytest.raises(GridError, match=f"{field} must be finite"):
            StepDistribution(thresholds, measures)

    @pytest.mark.parametrize("edges, values, field", [
        ([0.0, np.nan], [1.0], "edges"),
        ([0.0, np.inf], [1.0], "edges"),
        ([0.0, 1.0, np.nan], [2.0, 1.0], "edges"),
        ([0.0, 1.0, 2.0], [np.nan, 1.0], "values"),
        ([0.0, 1.0, 2.0], [1.0, np.nan], "values"),
        ([0.0, 1.0], [np.inf], "values"),
    ])
    def test_step_fn_refuses(self, edges, values, field):
        with pytest.raises(GridError, match=f"{field} must be finite"):
            StepFn(edges, values)

    def test_order_faults_keep_their_messages(self):
        with pytest.raises(GridError, match="thresholds must strictly increase"):
            StepDistribution([0.0, 1.0, 1.0], [2.0, 1.0])
        with pytest.raises(GridError, match="measures must be nonincreasing"):
            StepDistribution([0.0, 1.0, 2.0], [1.0, 2.0])
        with pytest.raises(GridError, match="edges must strictly increase"):
            StepFn([0.0, 2.0, 1.0], [2.0, 1.0])
        with pytest.raises(GridError, match="values must be nonincreasing"):
            StepFn([0.0, 1.0, 2.0], [1.0, 2.0])
        with pytest.raises(GridError, match="thresholds must start at 0"):
            StepDistribution([0.5, 1.0], [1.0])
        with pytest.raises(GridError, match="edges must start at 0"):
            StepFn([0.5, 1.0], [1.0])

    @pytest.mark.parametrize("thresholds, measures", [
        ([0.0, 1.0], [-1.0]),
        ([0.0, 1.0, 2.0], [1.0, -1e-300]),
    ])
    def test_negative_measure_refused(self, thresholds, measures):
        # tau^-1 is 0 wherever s <= 0, so a negative measure would count as 0
        with pytest.raises(GridError, match="measures must be nonnegative"):
            StepDistribution(thresholds, measures)
        with pytest.raises(GridError, match="values must be nonnegative"):
            StepFn(thresholds, measures)

    def test_finite_data_accepted(self, tau2):
        mu = StepDistribution([0.0, 1.0, 3.0], [2.0, 0.5])
        assert np.isfinite(mu.lorentz_integral(tau2.inverse))
        assert StepDistribution([0.0], []).lorentz_integral(tau2.inverse) == 0.0
        assert StepDistribution([0.0, 1.0], [-0.0]).lorentz_integral(
            tau2.inverse) == 0.0
        assert StepFn([0.0, 1.0, 2.0], [3.0, 0.0]).integral() == 3.0


class TestRearrangement:
    def test_equimeasurable_bitwise(self, unit):
        # measure{|f| > s} at each level of f*, read off its edges, is the
        # distribution's, the total below the lowest level included.
        rng = np.random.default_rng(5)
        f = SampledFn(unit, 128, rng.normal(size=128))
        fs = rearrangement(f)
        mu = distribution(f)
        assert _same_bits(mu.thresholds[1:], fs.values[::-1])
        assert _same_bits(mu.measures, fs.edges[:0:-1])

    def test_nonincreasing_with_zero_plateau(self, unit):
        f = SampledFn.indicator(unit, 8, [(0.25, 0.5)])
        fs = rearrangement(f)
        assert np.all(np.diff(fs.values) <= 0)
        assert fs.edges[-1] == pytest.approx(1.0, rel=1e-15)
        assert fs.values[-1] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_preserves_l1_mass(self, seed):
        unit = Domain.unit_interval()
        rng = np.random.default_rng(seed)
        f = SampledFn(unit, 64, rng.normal(size=64) * 3.0)
        fs = rearrangement(f)
        mass = float(np.sum(fs.values * np.diff(fs.edges)))
        assert mass == pytest.approx(f.abs().integral(), rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=-8.0, max_value=8.0))
    @example(seed=0, c=5e-324)
    def test_scaling_property(self, seed, c):
        # (c f)* = |c| f*, compared as functions on the common refinement of
        # both plateau partitions: a subnormal c collapses the levels of c f
        # into a few plateaus, so the two step lists differ in length.
        unit = Domain.unit_interval()
        rng = np.random.default_rng(seed)
        f = SampledFn(unit, 32, rng.normal(size=32))
        left = rearrangement(c * f)
        right = rearrangement(f)
        grid = np.union1d(left.edges, right.edges)
        mids = 0.5 * (grid[:-1] + grid[1:])
        assert np.allclose(left(mids), abs(c) * right(mids),
                           rtol=1e-12, atol=1e-300)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_hardy_littlewood_inequality(self, seed):
        # integral |f g| <= integral f* g* over (0, mu(domain))
        unit = Domain.unit_interval()
        rng = np.random.default_rng(seed)
        f = SampledFn(unit, 64, rng.normal(size=64))
        g = SampledFn(unit, 64, rng.normal(size=64))
        lhs = float(np.sum(np.abs(f.values * g.values) * f.cell_measures))
        fs, gs = rearrangement(f), rearrangement(g)
        grid = np.union1d(fs.edges, gs.edges)
        mids = 0.5 * (grid[:-1] + grid[1:])
        rhs = float(np.sum(fs(mids) * gs(mids) * np.diff(grid)))
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


class TestPointwiseNorm:
    def test_three_four_five(self, unit):
        vals = np.tile([3.0, 4.0], (8, 1))
        f = SampledFn(unit, 8, vals)
        assert np.allclose(pointwise_norm(f).values, 5.0, rtol=1e-15)

    def test_component_embedding_is_exact(self, unit):
        # (h, 0, 0) must reduce to exactly |h|, bit for bit
        rng = np.random.default_rng(11)
        h = rng.normal(size=16) * 1.7
        vals = np.zeros((16, 3))
        vals[:, 0] = h
        f = SampledFn(unit, 16, vals)
        assert np.array_equal(pointwise_norm(f).values, np.abs(h))

    def test_complex_magnitude(self, unit):
        f = SampledFn(unit, 8, np.full(8, 3.0 + 4.0j))
        assert np.allclose(pointwise_norm(f).values, 5.0, rtol=1e-15)

    def test_scalar_passthrough(self, unit):
        f = SampledFn.from_callable(unit, 8, lambda x: x - 0.5)
        assert np.array_equal(pointwise_norm(f).values, np.abs(f.values))

    @staticmethod
    def _axis1_reference(vals):
        """The row reduction along ``axis=1`` that pointwise_norm replaced."""
        a = np.abs(vals)
        mx = a.max(axis=1)
        safe = np.where(mx > 0, mx, 1.0)
        r = a / safe[:, None]
        return mx * np.sqrt((r * r).sum(axis=1))

    @staticmethod
    def _awkward_vectors(d, dtype):
        """Rows of normal draws, all-zero rows, rows with single nonzero
        components, and components near 1e+300 and 1e-300, mixed."""
        rng = np.random.default_rng(100 + d)
        n = 512
        vals = rng.normal(size=(n, d))
        if dtype == "complex":
            vals = vals + 1j * rng.normal(size=(n, d))
        vals[:32] = 0.0
        vals[32:64, 1:] = 0.0
        vals[64:128] *= 1e300
        vals[128:192] *= 1e-300
        vals[192:256, ::2] *= 1e300
        vals[256:320, 1::2] *= 1e-300
        vals[320:352, -1] = 1.7e308
        return vals

    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_axis1_reference_bit_for_bit(self, unit, d, order, dtype):
        vals = self._awkward_vectors(d, dtype)
        f = SampledFn(unit, vals.shape[0], np.asarray(vals, order=order))
        got = pointwise_norm(f).values
        assert got.tobytes() == self._axis1_reference(vals).tobytes()

    @pytest.mark.parametrize("d", [8, 9])
    def test_pairwise_row_sum_differs_by_at_most_2_ulp(self, unit, d):
        # For d >= 8 numpy sums a C-ordered row pairwise, pointwise_norm
        # from left to right.
        vals = self._awkward_vectors(d, "real")
        got = pointwise_norm(SampledFn(unit, vals.shape[0], vals)).values
        want = self._axis1_reference(vals)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
