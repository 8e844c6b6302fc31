"""Monthly time-series data model, CSV and JSON text, and basic transforms.

Everything downstream (regressions, unit-root tests, the state-space fit)
consumes the immutable containers defined here. Dates are plain
(year, month) pairs; the only calendar arithmetic is month stepping.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Sequence

from .errors import (
    DataError,
    DuplicateDate,
    GapInDates,
    MissingValue,
    NonPositiveLevel,
    OutOfRange,
    TooShort,
)

GROWTH_MODES = ("log-diff", "pct-change")
_MONTH_RE = re.compile(r"^(\d{4})[-:M](\d{1,2})$")


@dataclass(frozen=True, order=True)
class MonthDate:
    """A calendar month, totally ordered by 12*year + month."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    @property
    def index(self) -> int:
        return 12 * self.year + (self.month - 1)

    def plus(self, months: int) -> "MonthDate":
        return MonthDate.from_index(self.index + months)

    @classmethod
    def from_index(cls, index: int) -> "MonthDate":
        """The month whose index is 12*year + month - 1."""
        return cls(index // 12, index % 12 + 1)

    def months_until(self, other: "MonthDate") -> int:
        return other.index - self.index

    @classmethod
    def parse(cls, text: str) -> "MonthDate":
        """Parse 'YYYY-MM', 'YYYY:M' or 'YYYYMmm' forms."""
        m = _MONTH_RE.match(text.strip())
        if not m:
            raise ValueError(f"unparseable month {text!r}; expected YYYY-MM")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


_MONTH_TEXTS = tuple(f"{m:02d}" for m in range(1, 13))


def month_labels(start: MonthDate, n: int) -> list[str]:
    """[str(start.plus(i)) for i in range(n)]: each year's prefix formatted
    once and joined to the twelve month texts, then the span cut out."""
    first = start.index
    labels: list[str] = []
    for year in range(first // 12, (first + n + 11) // 12):
        labels += map(f"{year:04d}-".__add__, _MONTH_TEXTS)
    return labels[first % 12:first % 12 + n]


@dataclass(frozen=True)
class MonthlySeries:
    """Gap-free monthly observations; values[i] belongs to start + i months."""

    start: MonthDate
    values: tuple[float, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("series must be non-empty")
        vals = tuple(map(float, self.values))
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValueError(f"series {self.name!r} contains non-finite value {bad}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> MonthDate:
        return self.start.plus(len(self.values) - 1)

    def date_at(self, i: int) -> MonthDate:
        return self.start.plus(i)

    def index_of(self, date: MonthDate) -> int:
        i = self.start.months_until(date)
        if not 0 <= i < len(self.values):
            raise OutOfRange(f"{date} outside series span {self.start}..{self.end}")
        return i


@dataclass(frozen=True)
class Dataset:
    """Aligned price-index and money-stock level series."""

    y_raw: MonthlySeries
    x_raw: MonthlySeries

    def __post_init__(self):
        if self.y_raw.start != self.x_raw.start or len(self.y_raw) != len(self.x_raw):
            raise ValueError("y_raw and x_raw must share start and length")
        for s in (self.y_raw, self.x_raw):
            i = _first_non_positive(s.values)
            if i is not None:
                raise NonPositiveLevel(
                    f"{s.name or 'level'} at {s.date_at(i)} is {s.values[i]}; "
                    "levels must be strictly positive"
                )

    def __len__(self) -> int:
        return len(self.y_raw)

    @property
    def start(self) -> MonthDate:
        return self.y_raw.start

    @property
    def end(self) -> MonthDate:
        return self.y_raw.end


@dataclass(frozen=True)
class DecadeAverage:
    label: str
    first: MonthDate
    last: MonthDate
    mean: float


def parse_csv(source, *, date: str = "date", y: str | None = None,
              x: str | None = None) -> Dataset:
    """Parse a header-ed CSV of monthly levels into an aligned Dataset.

    `source` may be a path (an os.PathLike such as pathlib.Path), a text or
    byte stream, bytes, or CSV text: a str is always the text, never a file
    name. `date`, `y` and `x` name the date, price-index and money-stock
    columns. When y/x are None the first and second non-date columns are
    used, in header order; when only one is named, the other is the first
    non-date column it does not name. Rows are sorted ascending by date
    before validation; months must then be consecutive, unique, and every
    level strictly positive.
    """
    records = _csv_rows(_read_text(source))
    try:
        _, header = next(records)
    except StopIteration:
        raise MissingValue("empty CSV: no header row") from None
    header = [h.strip() for h in header]

    date_idx = _find_column(header, date)
    value_cols = [i for i in range(len(header)) if i != date_idx]
    if len(value_cols) < 2:
        raise MissingValue("need at least two numeric columns besides the date")
    y_idx = _find_column(header, y) if y else None
    x_idx = _find_column(header, x) if x else None
    if y_idx is not None and y_idx == x_idx:
        raise MissingValue(f"column {header[y_idx]!r} is named for both y and x")
    unnamed = (i for i in value_cols if i not in (y_idx, x_idx))
    y_idx = next(unnamed) if y_idx is None else y_idx
    x_idx = next(unnamed) if x_idx is None else x_idx

    # (month index, y, x) per row; a MonthDate is built only for the start
    # and to word an error
    rows: list[tuple[int, float, float]] = []
    last_idx = max(date_idx, y_idx, x_idx)
    for lineno, row in records:
        if not any(map(str.strip, row)):  # a blank row
            continue
        if len(row) <= last_idx:
            raise MissingValue(f"row {lineno}: too few cells")
        m = _MONTH_RE.match(row[date_idx].strip())
        month = int(m[2]) if m else 0
        if not 0 < month < 13:
            try:
                MonthDate.parse(row[date_idx])  # raises, and words the error
            except ValueError as exc:
                raise MissingValue(f"row {lineno}: {exc}") from None
        rows.append((12 * int(m[1]) + month - 1,
                     _cell(row[y_idx], lineno, header[y_idx]),
                     _cell(row[x_idx], lineno, header[x_idx])))
    if not rows:
        raise MissingValue("CSV has no data rows")

    rows.sort(key=itemgetter(0))
    months, ys, xs = zip(*rows)
    first = months[0]
    if months != tuple(range(first, first + len(months))):
        for a, b in zip(months, months[1:]):
            if b == a:
                raise DuplicateDate(f"{MonthDate.from_index(b)} appears more than once")
            if b != a + 1:
                raise GapInDates(
                    f"gap between {MonthDate.from_index(a)} and {MonthDate.from_index(b)}")

    start = MonthDate.from_index(first)
    return Dataset(y_raw=MonthlySeries(start, ys, name=header[y_idx]),
                   x_raw=MonthlySeries(start, xs, name=header[x_idx]))


def write_csv(dataset: Dataset) -> str:
    """Serialize a Dataset back to the input CSV schema (round-trippable)."""
    return csv_text(
        ["date", dataset.y_raw.name or "y", dataset.x_raw.name or "x"],
        zip(month_labels(dataset.start, len(dataset)), dataset.y_raw.values, dataset.x_raw.values),
    )


def csv_text(header: Sequence[str], rows) -> str:
    """The package's one CSV format: excel dialect, minimal quoting, "\n"
    line ends. None is empty and any other cell is str(c), so a float or
    np.float64 cell is repr(float(c)), the shortest text that reads back to
    the same float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def row_csv(record: dict) -> str:
    """One record as a one-row CSV, its keys sorted into the header."""
    keys = sorted(record)
    return csv_text(keys, [[record[k] for k in keys]])


def json_text(obj, indent: int | None = None) -> str:
    """The package's one JSON writer: the text of the standard json module
    with sorted keys and this indent, byte for byte, except that a nan or
    inf is written as null, not as its NaN/Infinity tokens, which are not
    JSON. Dict keys must be str. A list or tuple of finite floats is
    written as one join of its float_texts."""
    chunks: list[str] = []
    _json_chunks(obj, chunks, None if indent is None else "\n", " " * (indent or 0))
    return "".join(chunks)


def _json_chunks(obj, out: list[str], nl: str | None, step: str) -> None:
    # nl is the line break and indent before a top-level item of obj, or
    # None for one-line output; step is one level of indent
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = None if nl is None else nl + step
        sep = ", " if inner is None else "," + inner
        if isinstance(obj, dict):
            out.append("{" + (inner or ""))
            for i, key in enumerate(sorted(obj)):
                if i:
                    out.append(sep)
                out.append(encode_basestring_ascii(key) + ": ")
                _json_chunks(obj[key], out, inner, step)
            out.append((nl or "") + "}")
            return
        out.append("[" + (inner or ""))
        # a finite sum means every item is finite
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            out.append(sep.join(float_texts(obj)))
        else:
            for i, item in enumerate(obj):
                if i:
                    out.append(sep)
                _json_chunks(item, out, inner, step)
        out.append((nl or "") + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# id(values) -> (values, their texts) while shared_float_texts() is open, else
# None; holding values keeps its id from being reused by another object
_float_memo: dict[int, tuple[object, tuple[str, ...]]] | None = None


def float_texts(values) -> tuple[str, ...]:
    """repr(float(v)) for each item; made once per sequence object while
    shared_float_texts() is open, so report.json and a figure CSV that
    write the same column format it once."""
    if _float_memo is None:
        return tuple(map(float.__repr__, values))
    hit = _float_memo.get(id(values))
    if hit is None:
        hit = _float_memo[id(values)] = (values, tuple(map(float.__repr__, values)))
    return hit[1]


@contextmanager
def shared_float_texts():
    """Memoize float_texts for the block; the memo is dropped when it exits,
    by return or by exception."""
    global _float_memo
    _float_memo = {}
    try:
        yield
    finally:
        _float_memo = None


def yoy_growth(s: MonthlySeries, mode: str = "log-diff") -> MonthlySeries:
    """Twelve-month growth rate in percent.

    mode 'log-diff' gives 100*(ln s_t - ln s_{t-12}); 'pct-change' gives
    100*(s_t/s_{t-12} - 1). Output starts twelve months after the input.
    """
    if mode not in GROWTH_MODES:
        raise ValueError(f"unknown growth mode {mode!r}")
    if len(s) < 13:
        raise TooShort(f"need at least 13 observations for 12-month growth, got {len(s)}")
    vals = s.values
    i = _first_non_positive(vals)
    if i is not None:
        raise NonPositiveLevel(f"{s.name or 'series'} at {s.date_at(i)} is {vals[i]}")
    if mode == "log-diff":
        logs = list(map(math.log, vals))
        out = tuple(100.0 * (b - a) for a, b in zip(logs, logs[12:]))
    else:
        out = tuple(100.0 * (b / a - 1.0) for a, b in zip(vals, vals[12:]))
    if not all(map(math.isfinite, out)):
        i = next(i for i, g in enumerate(out) if not math.isfinite(g))
        raise DataError(
            f"{s.name or 'series'} growth at {s.date_at(i + 12)} overflows: "
            f"{vals[i + 12]!r} against {vals[i]!r} twelve months before"
        )
    # Every later sum of squares or products over these n values stays below
    # 16 n^2 G^2 when |growth| <= G: demeaning leaves each value within 2G and
    # a mean-corrected one within 4G; an OLS residual is within sqrt(sum y^2)
    # <= 2G sqrt(n), as is a recursive residual (their squares sum to the OLS
    # SSR), so the largest sums, of n squared differences of two residuals
    # (the Durbin-Watson numerator and the CUSUM scale), are at most
    # n (4G sqrt(n))^2. G = sqrt(max / 2) / (4n) keeps them, and every
    # partial sum of an fsum, within half the float range.
    bound = math.sqrt(sys.float_info.max / 2.0) / (4 * len(out))
    if max(map(abs, out)) > bound:
        i = next(i for i, g in enumerate(out) if abs(g) > bound)
        raise DataError(
            f"{s.name or 'series'} growth at {s.date_at(i + 12)} is {out[i]!r}, beyond "
            f"+/-{bound:.3g}, the largest whose sums of squares over {len(out)} months are finite"
        )
    suffix = "_yoy" if mode == "log-diff" else "_yoy_pct"
    return MonthlySeries(s.start.plus(12), out, name=s.name + suffix)


def demean(s: MonthlySeries) -> tuple[MonthlySeries, float]:
    """Subtract the sample mean; returns (centered series, mean).

    A mean below one ulp of the data scale is indistinguishable from zero,
    so it is treated as zero; this makes centering exactly idempotent.
    """
    mean = math.fsum(s.values) / len(s)
    scale = max(map(abs, s.values))
    if abs(mean) <= 2.0 ** -52 * scale:
        return s, 0.0
    centered = tuple(v - mean for v in s.values)
    return MonthlySeries(s.start, centered, name=s.name), mean


def window(s: MonthlySeries, first: MonthDate, last: MonthDate) -> MonthlySeries:
    """Inclusive date slice; both endpoints must lie within the span."""
    if first > last:
        raise OutOfRange(f"window start {first} is after end {last}")
    i = s.index_of(first)
    j = s.index_of(last)
    return MonthlySeries(first, s.values[i:j + 1], name=s.name)


def decade_averages(s: MonthlySeries) -> list[DecadeAverage]:
    """Arithmetic mean per calendar decade (1970-1979, ...) over the span.

    Partial decades are averaged over the months actually present and carry
    their true first/last dates.
    """
    out: list[DecadeAverage] = []
    first = s.start.index
    lo = 0
    while lo < len(s):
        decade = (first + lo) // 120 * 10  # the year is the month index // 12
        hi = min(len(s), 12 * (decade + 10) - first)
        out.append(DecadeAverage(
            label=f"{decade}s",
            first=s.date_at(lo),
            last=s.date_at(hi - 1),
            mean=math.fsum(s.values[lo:hi]) / (hi - lo),
        ))
        lo = hi
    return out


def _first_non_positive(values: tuple[float, ...]) -> int | None:
    """Index of the first value <= 0, or None; values hold no nan, so min
    finds one when there is one."""
    if min(values) > 0:
        return None
    return next(i for i, v in enumerate(values) if v <= 0)


def _csv_rows(text: str):
    """(row number, cells) for each CSV row; a malformed row is a DataError.

    newline="" hands csv every line end untranslated, so CR-only, LF and
    CRLF files read alike, and quoted fields keep their own line breaks.
    """
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            yield lineno, row
    except csv.Error as exc:
        raise DataError(f"row {lineno + 1}: {exc}") from None


def _read_text(source) -> str:
    # utf-8-sig strips the BOM Excel likes to prepend
    try:
        if isinstance(source, os.PathLike):
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                return fh.read()
        data = source if isinstance(source, (str, bytes)) else source.read()
        if isinstance(data, bytes):
            return data.decode("utf-8-sig")
        return data.lstrip("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"input is not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}"
        ) from None


def _find_column(header: Sequence[str], name: str) -> int:
    lowered = [h.lower() for h in header]
    if name.lower() not in lowered:
        raise MissingValue(f"no {name!r} column in header {header}")
    return lowered.index(name.lower())


def _cell(raw: str, lineno: int, col: str) -> float:
    text = raw.strip()
    if not text:
        raise MissingValue(f"row {lineno}: empty cell in column {col!r}")
    try:
        value = float(text)
    except ValueError:
        raise MissingValue(f"row {lineno}: non-numeric cell {raw!r} in column {col!r}") from None
    if not math.isfinite(value):
        raise MissingValue(f"row {lineno}: non-finite cell {raw!r} in column {col!r}")
    return value
