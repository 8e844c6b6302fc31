import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvelast.errors import (
    DataError,
    DuplicateDate,
    GapInDates,
    MissingValue,
    NonPositiveLevel,
    OutOfRange,
    TooShort,
)
from tvelast import series
from tvelast.series import (
    Dataset,
    MonthDate,
    MonthlySeries,
    csv_text,
    decade_averages,
    demean,
    float_texts,
    json_text,
    month_labels,
    parse_csv,
    shared_float_texts,
    window,
    write_csv,
    yoy_growth,
)

import _oracles
from conftest import make_dataset, make_series


class TestMonthDate:
    def test_ordering_matches_month_index(self, rng):
        dates = [MonthDate(int(y), int(m))
                 for y, m in zip(rng.integers(1900, 2100, 200), rng.integers(1, 13, 200))]
        for a, b in zip(dates, dates[1:]):
            assert (a < b) == (a.index < b.index)
            assert (a == b) == (a.index == b.index)

    def test_plus_and_months_until_roundtrip(self):
        d = MonthDate(1999, 11)
        for k in (-30, -1, 0, 1, 14, 360):
            assert d.months_until(d.plus(k)) == k

    def test_parse_formats(self):
        assert MonthDate.parse("1971-01") == MonthDate(1971, 1)
        assert MonthDate.parse("2000:12") == MonthDate(2000, 12)
        assert MonthDate.parse("1985M6") == MonthDate(1985, 6)
        with pytest.raises(ValueError):
            MonthDate.parse("1971/01")
        with pytest.raises(ValueError):
            MonthDate.parse("1971-13")

    def test_invalid_month_rejected(self):
        with pytest.raises(ValueError):
            MonthDate(2000, 0)


class TestParseCsv:
    def test_three_row_csv(self):
        ds = parse_csv("date,cpi,m2\n1971-01,100,50\n1971-02,101,51\n1971-03,102,52\n")
        assert len(ds) == 3
        assert ds.start == MonthDate(1971, 1)
        assert ds.y_raw.values == (100.0, 101.0, 102.0)
        assert ds.x_raw.values == (50.0, 51.0, 52.0)

    def test_gap_in_dates(self):
        with pytest.raises(GapInDates):
            parse_csv("date,a,b\n1971-01,1,1\n1971-03,1,1\n")

    def test_zero_level(self):
        with pytest.raises(NonPositiveLevel):
            parse_csv("date,a,b\n1971-01,0,1\n1971-02,1,1\n")

    def test_duplicate_date(self):
        with pytest.raises(DuplicateDate):
            parse_csv("date,a,b\n1971-01,1,1\n1971-01,2,2\n")

    def test_missing_and_non_numeric_cells(self):
        with pytest.raises(MissingValue):
            parse_csv("date,a,b\n1971-01,,1\n")
        with pytest.raises(MissingValue):
            parse_csv("date,a,b\n1971-01,abc,1\n")

    def test_rows_sorted_before_validation(self):
        ds = parse_csv("date,a,b\n1971-02,2,2\n1971-01,1,1\n1971-03,3,3\n")
        assert ds.start == MonthDate(1971, 1)
        assert ds.y_raw.values == (1.0, 2.0, 3.0)

    def test_named_columns(self):
        text = "date,skip,m2,cpi\n1971-01,9,50,100\n1971-02,9,51,101\n"
        ds = parse_csv(text, y="cpi", x="m2")
        assert ds.y_raw.values == (100.0, 101.0)
        assert ds.x_raw.values == (50.0, 51.0)
        assert parse_csv(text.replace("date", "month", 1), date="month", y="cpi", x="m2") == ds

    def test_one_named_column_leaves_the_other_to_the_rest(self):
        text = "date,cpi,m2\n1971-01,100,50\n1971-02,101,51\n"
        ds = parse_csv(text, y="m2")
        assert (ds.y_raw.name, ds.x_raw.name) == ("m2", "cpi")
        ds = parse_csv(text, x="cpi")
        assert (ds.y_raw.name, ds.x_raw.name) == ("m2", "cpi")
        with pytest.raises(MissingValue, match="'m2' is named for both y and x"):
            parse_csv(text, y="m2", x="M2")
        with pytest.raises(MissingValue, match="no 'm3' column"):
            parse_csv(text, y="m3")

    def test_roundtrip_identity(self):
        for seed in range(5):
            ds = make_dataset(n_months=40, seed=seed)
            again = parse_csv(write_csv(ds))
            assert again == ds

    @settings(max_examples=100)
    @given(data=st.data())
    def test_roundtrip_identity_property(self, data):
        n = data.draw(st.integers(1, 30))
        start = MonthDate(data.draw(st.integers(1800, 2100)), data.draw(st.integers(1, 12)))
        # commas, quotes and inner spaces make csv quote the header cell
        name = st.text('abcxyzABCXYZ019_," ', min_size=1, max_size=8).filter(
            lambda s: s.lower() != "date" and s == s.strip())
        level = st.floats(1e-300, 1e300)
        ds = Dataset(
            MonthlySeries(start, tuple(data.draw(st.lists(level, min_size=n, max_size=n))),
                          data.draw(name)),
            MonthlySeries(start, tuple(data.draw(st.lists(level, min_size=n, max_size=n))),
                          data.draw(name)),
        )
        assert parse_csv(write_csv(ds)) == ds

    def test_crlf_and_bom_tolerated(self):
        text = "﻿date,cpi,m2\r\n1971-01,100,50\r\n1971-02,101,51\r\n"
        ds = parse_csv(text)
        assert len(ds) == 2
        assert ds.y_raw.name == "cpi"
        # utf-8 encoding turns the leading U+FEFF into the standard BOM bytes
        ds_bytes = parse_csv(text.encode("utf-8"))
        assert ds_bytes == ds

    @pytest.mark.parametrize("eol", ["\r", "\r\n", "\n"])
    def test_every_source_reads_line_ends_alike(self, tmp_path, eol):
        # the quoted header cell keeps its own line break, untranslated
        text = eol.join(['date,"c' + eol + 'pi",m2', "1971-01,100,50", "1971-02,101,51", ""])
        path = tmp_path / "levels.csv"
        path.write_bytes(text.encode())
        by_path = parse_csv(path)
        assert by_path.y_raw.name == "c" + eol + "pi"
        assert by_path.x_raw.values == (50.0, 51.0)
        for source in (text, text.encode(), io.BytesIO(text.encode()), io.StringIO(text)):
            assert parse_csv(source) == by_path

    @pytest.mark.parametrize("source, error, message", [
        (io.StringIO(""), MissingValue, "empty CSV: no header row"),
        (b"", MissingValue, "empty CSV: no header row"),
        ("date,a\n1971-01,1\n", MissingValue,
         "need at least two numeric columns besides the date"),
        ("date,a,b\n1971-01,1\n", MissingValue, "row 2: too few cells"),
        # the blank line is row 2, so the short row is row 3
        ("date,a,b\n\n1971-01,1\n", MissingValue, "row 3: too few cells"),
        ("date,a,b\n1971-01,1,1\n 1971/02 ,2,2\n", MissingValue,
         "row 3: unparseable month ' 1971/02 '; expected YYYY-MM"),
        ("date,a,b\n1971-1-1,1,1\n", MissingValue,
         "row 2: unparseable month '1971-1-1'; expected YYYY-MM"),
        ("date,a,b\n71-01,1,1\n", MissingValue,
         "row 2: unparseable month '71-01'; expected YYYY-MM"),
        ("date,a,b\n1971-13,1,1\n", MissingValue, "row 2: month must be in 1..12, got 13"),
        ("date,a,b\n1971M0,1,1\n", MissingValue, "row 2: month must be in 1..12, got 0"),
        ("date,a,b\n", MissingValue, "CSV has no data rows"),
        ("date,a,b\n\n , ,\n", MissingValue, "CSV has no data rows"),
        ("date,a,b\n1971-01,1,1\n1971-01,2,2\n", DuplicateDate,
         "1971-01 appears more than once"),
        ("date,a,b\n1971-01,1,1\n1971-03,1,1\n", GapInDates, "gap between 1971-01 and 1971-03"),
        # unsorted: the checks see the rows in date order
        ("date,a,b\n1972-02,1,1\n1971-12,1,1\n1972-01,1,1\n1971-12,2,2\n", DuplicateDate,
         "1971-12 appears more than once"),
        ("date,a,b\n1980-01,1,1\n1979-11,1,1\n1979-12,1,1\n1979-08,1,1\n", GapInDates,
         "gap between 1979-08 and 1979-11"),
        # a duplicate sorts before a later gap, and a gap before a later duplicate
        ("date,a,b\n1971-03,1,1\n1971-01,1,1\n1971-01,1,1\n", DuplicateDate,
         "1971-01 appears more than once"),
        ("date,a,b\n1971-03,1,1\n1971-01,1,1\n1971-03,1,1\n", GapInDates,
         "gap between 1971-01 and 1971-03"),
        ("date,a,b\n1971-01,1,nan\n1971-13,1,1\n", MissingValue,
         "row 2: non-finite cell 'nan' in column 'b'"),
        ("date,a,b\n1971-01,-1,1\n1971-02,1,1\n", NonPositiveLevel,
         "a at 1971-01 is -1.0; levels must be strictly positive"),
        ("date,a,b\n1971-01,1,1\n1971-02,1,0\n", NonPositiveLevel,
         "b at 1971-02 is 0.0; levels must be strictly positive"),
    ])
    def test_row_level_errors_keep_their_type_and_text(self, source, error, message):
        with pytest.raises(DataError) as caught:
            parse_csv(source)
        assert (type(caught.value), str(caught.value)) == (error, message)

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV: no header row"),
        ("date,cpi,m2", "CSV has no data rows"),
    ])
    def test_a_str_without_a_line_break_is_text_not_a_path(self, text, message):
        for source in (text, io.StringIO(text)):
            with pytest.raises(DataError) as caught:
                parse_csv(source)
            assert (type(caught.value), str(caught.value)) == (MissingValue, message)

    def test_blank_rows_are_skipped(self):
        ds = parse_csv("date,a,b\n\n1971-01,1,1\n , ,\n,,\n1971-02,2,2\n\n")
        assert ds.start == MonthDate(1971, 1)
        assert ds.y_raw.values == (1.0, 2.0)

    def test_every_month_form_reads_alike(self):
        ds = parse_csv("date,a,b\n1971:12,1,1\n1971M11,2,2\n 1972-1 ,3,3\n1971-10,4,4\n")
        assert ds.start == MonthDate(1971, 10)
        assert ds.end == MonthDate(1972, 1)
        assert ds.y_raw.values == (4.0, 2.0, 1.0, 3.0)

    def test_malformed_csv_is_a_data_error_naming_the_row(self):
        oversized = "date,cpi,m2\n1971-01,1," + "5" * 200_000 + "\n"
        with pytest.raises(DataError, match="^row 2: field larger than field limit"):
            parse_csv(oversized)


# cells of every kind the package writes: text that needs quoting, None,
# bools, ints, and floats including -0.0, nan, inf, subnormals and np.float64
_CELL = st.one_of(
    st.text(st.sampled_from('ab ,"\n\r'), max_size=5),
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)


class TestCsvText:
    @settings(max_examples=300)
    @given(header=st.lists(st.text(st.sampled_from('ab ,"\n'), max_size=4), min_size=1,
                           max_size=4),
           rows=st.lists(st.lists(_CELL, max_size=5), max_size=6))
    def test_matches_the_per_cell_writer(self, header, rows):
        assert csv_text(header, rows) == _oracles.csv_text_reference(header, rows)

    def test_rows_may_be_any_iterable_of_tuples(self):
        rows = zip(["1971-01", "1971-02"], [0.1, np.float64(-0.0)], [None, 3])
        assert csv_text(["date", "a", "b"], rows) == "date,a,b\n1971-01,0.1,\n1971-02,-0.0,3\n"

    @given(year=st.integers(1, 9999), month=st.integers(1, 12), n=st.integers(0, 400))
    def test_month_labels_are_the_month_strings(self, year, month, n):
        start = MonthDate(year, month)
        assert month_labels(start, n) == [str(start.plus(i)) for i in range(n)]


# JSON leaves: text that needs escaping (quotes, backslashes, control
# characters, non-ASCII), ints, bools, None, floats including nan and
# +-inf, np.float64, empty containers, and float columns of 0-600 items
_JSON_STR = st.text(st.one_of(st.sampled_from('a"\\/\b\n\t\x00\x1f\x7f\u00e9\u2028'),
                              st.characters()), max_size=8)


def _float_column(n: int, seed: int, special: float | None, as_tuple: bool):
    """n exact floats over many magnitudes, with `special` at a seeded place."""
    rng = np.random.default_rng(seed)
    col = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
    if special is not None and n:
        col[int(rng.integers(n))] = special
    return tuple(col) if as_tuple else col


_JSON_LEAF = st.one_of(
    _JSON_STR,
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([[], {}, ()]),
    st.builds(_float_column, st.integers(0, 600), st.integers(0, 2**32 - 1),
              st.sampled_from([None, None, math.nan, math.inf, -math.inf, -0.0, 1.7e308]),
              st.booleans()),
)
_JSON_PAYLOAD = st.recursive(_JSON_LEAF, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_JSON_STR, children, max_size=4),
), max_leaves=12)


class TestJsonText:
    @settings(max_examples=300)
    @given(payload=_JSON_PAYLOAD)
    def test_matches_the_stdlib_writer(self, payload):
        for indent in (None, 2):
            assert json_text(payload, indent) == _oracles.json_text_stdlib(payload, indent)

    @pytest.mark.parametrize("leaf", [set(), {1.5}, np.float32(1.5)], ids=repr)
    @pytest.mark.parametrize("indent", [None, 2])
    def test_a_set_or_float32_leaf_is_a_type_error(self, leaf, indent):
        for payload in ({"a": [math.nan, {"b": leaf}]}, [1.0, leaf, 2.0]):
            for encode in (json_text, _oracles.json_text_stdlib):
                with pytest.raises(TypeError, match="is not JSON serializable"):
                    encode(payload, indent)

    @pytest.mark.parametrize("key", [7, None, (1, 2)], ids=repr)
    def test_a_key_that_is_not_a_string_is_a_type_error(self, key):
        with pytest.raises(TypeError):
            json_text({key: 1.0})


class TestFloatTexts:
    def test_each_text_is_the_float_repr(self):
        values = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 0.1,
                  np.float64(-0.0), np.float64(1e16), np.float64(math.nan))
        assert float_texts(values) == tuple(repr(float(v)) for v in values)

    def test_the_memo_lives_only_inside_its_block(self):
        column = (0.5, -0.0)
        with shared_float_texts():
            first = float_texts(column)
            assert float_texts(column) is first
            # equal values in another object are formatted on their own
            assert float_texts((0.5, 0.0)) == ("0.5", "0.0")
        assert series._float_memo is None
        assert float_texts(column) == first and float_texts(column) is not first
        with pytest.raises(RuntimeError):
            with shared_float_texts():
                float_texts(column)
                raise RuntimeError
        assert series._float_memo is None


class TestYoyGrowth:
    def test_constant_series_zero_growth(self):
        s = make_series([7.5] * 30)
        for mode in ("log-diff", "pct-change"):
            g = yoy_growth(s, mode)
            assert g.values == (0.0,) * 18
            assert g.start == s.start.plus(12)

    def test_doubling_series(self):
        s = make_series([100.0 * 2 ** (t / 12) for t in range(25)])
        log_g = yoy_growth(s, "log-diff")
        pct_g = yoy_growth(s, "pct-change")
        assert log_g.values[0] == pytest.approx(100.0 * math.log(2.0), abs=1e-9)
        assert pct_g.values[0] == pytest.approx(100.0, abs=1e-9)

    def test_matches_elementwise_recomputation(self, rng):
        vals = rng.uniform(10.0, 200.0, 24)
        s = make_series(vals)
        g = yoy_growth(s, "log-diff")
        for i in range(12, 24):
            expect = 100.0 * (math.log(vals[i]) - math.log(vals[i - 12]))
            assert g.values[i - 12] == pytest.approx(expect, abs=1e-12)
        p = yoy_growth(s, "pct-change")
        for i in range(12, 24):
            expect = 100.0 * (vals[i] / vals[i - 12] - 1.0)
            assert p.values[i - 12] == pytest.approx(expect, abs=1e-12)

    def test_exponential_series_constant_growth(self):
        c = 0.073
        s = make_series([math.exp(c * t / 12.0) for t in range(60)])
        g = yoy_growth(s, "log-diff")
        np.testing.assert_allclose(g.values, 100.0 * c, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            yoy_growth(make_series([1.0] * 12))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            yoy_growth(make_series([1.0] * 20), "geometric")

    def test_errors_name_the_first_bad_month(self):
        levels = [1.0] * 20
        levels[5], levels[9] = -2.0, 0.0
        s = MonthlySeries(MonthDate(1999, 11), tuple(levels), "cpi")
        with pytest.raises(NonPositiveLevel) as caught:
            yoy_growth(s)
        assert str(caught.value) == "cpi at 2000-04 is -2.0"
        levels = [1e-300] * 12 + [1.0, 1e300, 1e300] + [1.0] * 5
        s = MonthlySeries(MonthDate(1999, 11), tuple(levels), "m2")
        with pytest.raises(DataError) as caught:
            yoy_growth(s, "pct-change")
        assert str(caught.value) == ("m2 growth at 2000-12 overflows: "
                                     "1e+300 against 1e-300 twelve months before")
        # finite growth whose squares, summed over the 8 months, would not be
        s = MonthlySeries(MonthDate(1999, 11), tuple([1.0] * 12 + [1e152] * 3 + [1.0] * 5), "m2")
        with pytest.raises(DataError) as caught:
            yoy_growth(s, "pct-change")
        assert str(caught.value) == ("m2 growth at 2000-11 is 1e+154, beyond +/-2.96e+152, "
                                     "the largest whose sums of squares over 8 months are finite")
        assert yoy_growth(s).values[0] == pytest.approx(100.0 * 152 * math.log(10.0))


class TestDemean:
    def test_simple_case(self):
        centered, mean = demean(make_series([1.0, 2.0, 3.0]))
        assert centered.values == (-1.0, 0.0, 1.0)
        assert mean == 2.0

    def test_zero_sum(self, rng):
        s = make_series(rng.normal(5.0, 3.0, 400))
        centered, _ = demean(s)
        assert abs(math.fsum(centered.values)) <= 1e-10 * len(s)

    def test_idempotent(self, rng):
        s = make_series(rng.normal(0.0, 1.0, 50))
        once, _ = demean(s)
        twice, _ = demean(once)
        assert twice.values == once.values

    def test_reconstruction(self, rng):
        s = make_series(rng.normal(-2.0, 4.0, 100))
        centered, mean = demean(s)
        for orig, c in zip(s.values, centered.values):
            assert orig == pytest.approx(c + mean, abs=1e-12)


class TestWindow:
    def test_full_span_identity(self):
        s = make_series(range(1, 25))
        assert window(s, s.start, s.end) == s

    def test_month_count(self):
        s = make_series([1.0] * 543, start=MonthDate(1971, 1))
        w = window(s, MonthDate(1971, 1), MonthDate(2000, 12))
        assert len(w) == 360  # 30 years of months

    def test_reversed_bounds(self):
        s = make_series(range(10))
        with pytest.raises(OutOfRange):
            window(s, MonthDate(2000, 5), MonthDate(2000, 2))

    def test_outside_span(self):
        s = make_series(range(10))
        with pytest.raises(OutOfRange):
            window(s, MonthDate(1999, 1), MonthDate(2000, 3))

    def test_composition(self):
        s = make_series(range(50))
        a, b = MonthDate(2001, 3), MonthDate(2003, 7)
        once = window(s, a, b)
        assert window(once, a, b) == once


class TestDecadeAverages:
    def test_constant_two_decades(self):
        s = make_series([5.0] * 240, start=MonthDate(1990, 1))
        out = decade_averages(s)
        assert [d.label for d in out] == ["1990s", "2000s"]
        assert all(d.mean == 5.0 for d in out)

    def test_brute_force_means(self, rng):
        # months grouped by calendar decade one at a time; the starts include
        # every month of 1979, so one series opens on its decade's last month
        starts = [(MonthDate(1987, 5), 200)] + [(MonthDate(1979, m), 30) for m in range(1, 13)]
        for start, n in starts:
            s = make_series(rng.normal(0, 2, n), start=start)
            groups = {}
            for i, v in enumerate(s.values):
                groups.setdefault(s.date_at(i).year // 10 * 10, []).append((s.date_at(i), v))
            want = [(f"{decade}s", g[0][0], g[-1][0], math.fsum(v for _, v in g) / len(g))
                    for decade, g in sorted(groups.items())]
            assert [(d.label, d.first, d.last, d.mean) for d in decade_averages(s)] == want

    def test_partial_decade_flagged(self):
        s = make_series([1.0] * 55, start=MonthDate(1995, 6))
        out = decade_averages(s)
        assert len(out) == 1
        assert out[0].label == "1990s"
        assert out[0].first == MonthDate(1995, 6)
        assert out[0].last == MonthDate(1999, 12)


class TestInvariants:
    def test_series_rejects_nan(self):
        with pytest.raises(ValueError):
            MonthlySeries(MonthDate(2000, 1), (1.0, float("nan")))

    def test_series_names_its_first_non_finite_value(self):
        for values, text in (((1.0, math.inf, math.nan), "inf"),
                             ((np.float64(-math.inf), 1.0), "-inf"),
                             ((2, math.nan), "nan")):
            with pytest.raises(ValueError) as caught:
                MonthlySeries(MonthDate(2000, 1), values, "y")
            assert str(caught.value) == f"series 'y' contains non-finite value {text}"

    def test_series_values_are_exact_floats(self):
        s = MonthlySeries(MonthDate(2000, 1), [1, np.float64(2.5), 3.0])
        assert s.values == (1.0, 2.5, 3.0)
        assert set(map(type, s.values)) == {float}

    def test_dataset_names_its_first_non_positive_level(self):
        y = make_series([1.0, 2.0, 3.0])
        for levels, text in (((1.0, -0.0, -1.0), "x at 2000-02 is -0.0"),
                             ((1.0, 1.0, 5e-324 - 5e-324), "x at 2000-03 is 0.0")):
            x = MonthlySeries(y.start, levels, "x")
            with pytest.raises(NonPositiveLevel) as caught:
                Dataset(y, x)
            assert str(caught.value) == text + "; levels must be strictly positive"
        unnamed = MonthlySeries(y.start, (0.5, 0.0, 1.0))
        with pytest.raises(NonPositiveLevel, match="^level at 2000-02 is 0.0;"):
            Dataset(y, unnamed)

    def test_series_rejects_empty(self):
        with pytest.raises(ValueError):
            MonthlySeries(MonthDate(2000, 1), ())

    def test_dataset_alignment_enforced(self):
        a = make_series([1.0, 2.0])
        b = make_series([1.0, 2.0, 3.0])
        from tvelast.series import Dataset
        with pytest.raises(ValueError):
            Dataset(a, b)
