"""CSV ingestion, IQR cleaning, features, splitting, windowing, scaling."""

import logging
import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpforecast import (
    DataFormatError,
    MinMaxScaler,
    MobilitySeries,
    WindowedDataset,
    descriptive_stats,
    feature_matrix,
    iqr_clean,
    load_csv,
    make_windows,
    split,
)
from dpforecast import data as data_module
from dpforecast.data import TIME_FORMAT, _linear_quantile, cyclical_matrix

import reference
from conftest import SLOT, START, build_series, write_series_csv


def series_from_column(values, start=START, label="R1"):
    values = np.asarray(values, dtype=np.float64)
    ts = start + np.arange(len(values)) * SLOT
    return MobilitySeries(ts, values[:, None], (label,))


def constant_column_warnings(bounds):
    """The scaler's warnings, in order, for ``to_dict``-shaped bounds."""
    warnings = []
    for name in ("input", "target"):
        lo, hi = np.array(bounds[f"{name}_min"]), np.array(bounds[f"{name}_max"])
        constant = np.flatnonzero(lo == hi).tolist()
        if constant:
            warnings.append(f"{name} columns {constant} are constant; scaling them to 0")
    return warnings


class TestMobilitySeriesChecks:
    @pytest.mark.parametrize("steps, shape, labels, message", [
        ((0, 1, 2), (3,), ("R1",), "counts shape (3,) inconsistent with 3 timestamps"),
        ((0, 1, 2), (2, 1), ("R1",), "counts shape (2, 1) inconsistent with 3 timestamps"),
        ((0, 1, 2), (3, 2), ("R1",), "region label count does not match count columns"),
        ((0, 2, 1), (3, 1), ("R1",), "timestamps must be strictly increasing"),
        ((0, 1, 1), (3, 1), ("R1",), "timestamps must be strictly increasing"),
        ((0, 1, 3), (3, 1), ("R1",), "timestamps must sit on a 30-minute grid"),
    ], ids=["flat-counts", "short-counts", "labels", "order", "repeat", "grid"])
    def test_refusal_names_what_is_wrong(self, steps, shape, labels, message):
        with pytest.raises(DataFormatError) as err:
            MobilitySeries(START + np.array(steps) * SLOT, np.zeros(shape), labels)
        assert str(err.value) == message


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "datetime,R1,R2\n"
            "2020-08-24 00:00:00,10,20\n"
            "2020-08-24 00:30:00,11,21\n"
        )
        series = load_csv(path)
        assert series.n_slots == 2
        assert series.region_labels == ("R1", "R2")
        np.testing.assert_array_equal(series.counts, [[10, 20], [11, 21]])

    def test_round_trips_generated_series(self, tmp_path):
        series = build_series(n_days=2, n_regions=6, seed=4)
        path = write_series_csv(series, tmp_path / "gen.csv")
        loaded = load_csv(path)
        assert loaded.n_slots == series.n_slots
        assert loaded.region_labels == series.region_labels

    def test_duplicate_timestamp_named_in_error(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "datetime,R1\n"
            "2020-08-24 00:00:00,1\n"
            "2020-08-24 00:00:00,2\n"
        )
        with pytest.raises(DataFormatError, match="2020-08-24"):
            load_csv(path)

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "ooo.csv"
        path.write_text(
            "datetime,R1\n"
            "2020-08-24 01:00:00,1\n"
            "2020-08-24 00:00:00,2\n"
        )
        with pytest.raises(DataFormatError, match="out of order"):
            load_csv(path)

    def test_malformed_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("datetime,R1\n2020-08-24 00:00:00,xyz\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("datetime,R1\n2020-08-24 00:00:00,-3\n")
        with pytest.raises(DataFormatError):
            load_csv(path)

    def test_missing_rows_become_gaps(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "datetime,R1\n"
            "2020-08-24 00:00:00,5\n"
            "2020-08-24 01:30:00,8\n"
        )
        series = load_csv(path)
        assert series.n_slots == 4
        assert np.isnan(series.counts[1, 0]) and np.isnan(series.counts[2, 0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"datetime,R1\r\n2020-08-24 00:00:00,7\r\n")
        assert load_csv(path).counts[0, 0] == 7

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"datetime,R\xe9\n2020-08-24 00:00:00,7\n")
        with pytest.raises(DataFormatError, match="latin1.csv: not UTF-8"):
            load_csv(path)

    def test_first_row_error_wins(self, tmp_path):
        # line 3 has a negative count, line 5 a bad timestamp
        path = tmp_path / "two_errors.csv"
        path.write_text(
            "datetime,R1\n"
            "2020-08-24 00:00:00,1\n"
            "2020-08-24 00:30:00,-1\n"
            "2020-08-24 01:00:00,1\n"
            "not a time,1\n"
        )
        with pytest.raises(DataFormatError, match=r"two_errors\.csv:3: negative count$"):
            load_csv(path)

    def test_count_too_large_for_float_names_line(self, tmp_path):
        # line 3 overflows a float; line 4 repeats a timestamp, a column error
        path = tmp_path / "huge.csv"
        path.write_text(
            "datetime,R1,R2\n"
            "2020-08-24 00:00:00,1,2\n"
            f"2020-08-24 00:30:00,3,{'9' * 400}\n"
            "2020-08-24 00:30:00,5,6\n"
        )
        with pytest.raises(DataFormatError, match=r"huge\.csv:3: count too large for a float$"):
            load_csv(path)

    def test_largest_float_count_loads(self, tmp_path):
        # float() rounds every integer below 2**1024 - 2**970 to a finite double
        path = tmp_path / "edge.csv"
        edge = 2**1024 - 2**970
        path.write_text(f"datetime,R1\n2020-08-24 00:00:00,{edge - 1}\n")
        assert load_csv(path).counts[0, 0] == np.finfo(np.float64).max
        path.write_text(f"datetime,R1\n2020-08-24 00:00:00,{edge}\n")
        with pytest.raises(DataFormatError, match=r"edge\.csv:2: count too large"):
            load_csv(path)

    def test_off_grid_message(self, tmp_path):
        path = tmp_path / "offgrid.csv"
        path.write_text(
            "datetime,R1\n"
            "2020-08-24 00:00:00,1\n"
            "2020-08-24 00:15:00,1\n"
            "2020-08-24 00:20:00,1\n"
            "2020-08-24 01:00:00,1\n"
        )
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == (
            f"{path}: timestamp 2020-08-24T00:15:00 off the 30-minute grid"
        )

    def test_misaligned_span_message(self, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text(
            "datetime,R1\n"
            "2020-08-24 00:00:00,1\n"
            "2020-08-24 00:45:00,1\n"
        )
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: timestamps not aligned to the 30-minute grid"

    def test_duplicate_reported_before_later_disorder(self, tmp_path):
        path = tmp_path / "dup_ooo.csv"
        path.write_text(
            "datetime,R1\n"
            "2020-08-24 00:00:00,1\n"
            "2020-08-24 00:30:00,1\n"
            "2020-08-24 00:30:00,1\n"
            "2020-08-24 00:00:00,1\n"
        )
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: duplicated timestamp 2020-08-24T00:30:00"

    def test_strptime_forms_still_load(self, tmp_path):
        # strptime accepts unpadded fields and any Unicode decimal digits;
        # the parser must keep doing so
        path = tmp_path / "unpadded.csv"
        path.write_text("datetime,R1\n2020-8-24 0:30:00,3\n2020-08-24 01:00:00,4\n"
                        "\u0662\u0660\u0662\u0660-08-24 01:30:00,5\n", encoding="utf-8")
        series = load_csv(path)
        np.testing.assert_array_equal(
            series.timestamps,
            np.array(["2020-08-24T00:30:00", "2020-08-24T01:00:00", "2020-08-24T01:30:00"],
                     dtype="datetime64[s]"),
        )
        np.testing.assert_array_equal(series.counts, [[3.0], [4.0], [5.0]])

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        start=st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9998, 1, 1)),
        steps=st.lists(st.integers(1, 500), min_size=1, max_size=30),
        padded=st.lists(st.booleans(), min_size=31, max_size=31),
    )
    def test_timestamps_match_strptime(self, tmp_path, start, steps, padded):
        # canonical and unpadded rows, mixed, on the 30-minute grid
        first = start.replace(minute=start.minute // 30 * 30, second=0, microsecond=0)
        offsets = np.cumsum([0] + steps)
        stamps = [first + timedelta(minutes=30 * int(k)) for k in offsets]
        text = [
            d.strftime(TIME_FORMAT) if pad
            else f"{d.year}-{d.month}-{d.day} {d.hour}:{d.minute}:{d.second}"
            for d, pad in zip(stamps, padded)
        ]
        path = tmp_path / "grid.csv"
        path.write_text("datetime,R1\n" + "".join(f"{t},1\n" for t in text))
        series = load_csv(path)
        expected = np.array([datetime.strptime(t, TIME_FORMAT) for t in text],
                            dtype="datetime64[s]")
        np.testing.assert_array_equal(series.timestamps[offsets], expected)
        assert series.n_slots == offsets[-1] + 1

    @pytest.mark.parametrize("stamp", [
        "2020-08-24T00:00:00", "2020-08-24 00:00:00.5", "2020-08-24 00:00:00+01:00",
    ])
    def test_isoformat_only_forms_rejected(self, tmp_path, stamp):
        # datetime.fromisoformat reads these; strptime, and so load_csv, does not
        path = tmp_path / "iso.csv"
        path.write_text(f"datetime,R1\n2020-08-23 23:30:00,1\n{stamp},2\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:3: bad timestamp {stamp!r}"

    @pytest.mark.parametrize("space", [" ", "\t", "\u3000", "\x1c", "\x1f"])
    def test_counts_padded_with_whitespace_load(self, tmp_path, space):
        # str.strip() whitespace, including U+001C..U+001F, which int() alone rejects
        path = tmp_path / "space.csv"
        path.write_text(f"datetime,R1\n2020-08-24 00:00:00,{space}7{space}\n",
                        encoding="utf-8")
        assert load_csv(path).counts[0, 0] == 7

    @pytest.mark.parametrize("header, message", [
        ("datetime,R1,R1, ", "region label 'R1' repeated in column 3"),
        ("datetime,R1, ,R2", "blank region label in column 3"),
        ("datetime,", "blank region label in column 2"),
        ("datetime,R1,R2,R1", "region label 'R1' repeated in column 4"),
    ])
    def test_blank_or_repeated_label_names_its_column(self, tmp_path, header, message):
        # two columns of one label would merge into one region downstream
        path = tmp_path / "labels.csv"
        width = header.count(",")
        path.write_text(f"{header}\n2020-08-24 00:00:00{',1' * width}\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header", ["datetime", "time,R1", "", " ,R1"],
                             ids=["no-region", "not-datetime", "blank", "blank-first"])
    def test_bad_header_is_refused(self, tmp_path, header):
        path = tmp_path / "header.csv"
        path.write_text(f"{header}\n2020-08-24 00:00:00,1\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: header must be 'datetime' followed by region columns"

    @pytest.mark.parametrize("body", ["", "\n\n", "  \n"], ids=["none", "blank", "spaces"])
    def test_header_without_data_rows_is_refused(self, tmp_path, body):
        path = tmp_path / "header-only.csv"
        path.write_text(f"datetime,R1\n{body}")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: no data rows"


def _canonical_rows(n):
    """``n`` zero-padded rows of one region from 2020-08-24 00:00 on the
    30-minute grid, with counts 0, 1, ..."""
    first = datetime(2020, 8, 24)
    return [f"{(first + timedelta(minutes=30 * i)).strftime(TIME_FORMAT)},{i}\n"
            for i in range(n)]


class TestLoadCsvFallback:
    """Records that cannot be read in bulk take the per-row checks, unchanged."""

    def test_canonical_rows_skip_the_row_checks(self, tmp_path, monkeypatch):
        # blank records, here a whole trailing block of them, are skipped too
        n = data_module._BLOCK_ROWS
        path = tmp_path / "canonical.csv"
        path.write_text("datetime,R1\n" + "".join(_canonical_rows(n)) + "\n \n")

        def refuse(*args):
            raise AssertionError("row checks ran on a canonical file")

        monkeypatch.setattr(data_module, "_parse_row", refuse)
        np.testing.assert_array_equal(load_csv(path).counts[:, 0], np.arange(n))

    def test_an_odd_record_sends_only_its_block_to_the_row_checks(self, tmp_path, monkeypatch):
        n = data_module._BLOCK_ROWS
        path = tmp_path / "first.csv"
        path.write_text("datetime,R1\n2020-8-24 0:0:0,0\n"
                        + "".join(_canonical_rows(n + 1)[1:]))
        checked = []
        parse_row = data_module._parse_row

        def counted(path, lineno, row, n_regions):
            checked.append(lineno)
            return parse_row(path, lineno, row, n_regions)

        monkeypatch.setattr(data_module, "_parse_row", counted)
        np.testing.assert_array_equal(load_csv(path).counts[:, 0], np.arange(n + 1))
        assert checked == list(range(2, n + 2))

    def test_year_zero_is_a_bad_timestamp_on_its_line(self, tmp_path):
        # numpy reads year 0000; datetime, and so load_csv, does not
        path = tmp_path / "year0.csv"
        path.write_text("datetime,R1\n" + "".join(_canonical_rows(3))
                        + "0000-01-01 00:00:00,1\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:5: bad timestamp '0000-01-01 00:00:00'"

    def test_count_past_int64_loads_as_its_float(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("datetime,R1,R2\n2020-08-24 00:00:00,1,2\n"
                        f"2020-08-24 00:30:00,{2**63},{2**63 - 1}\n")
        counts = load_csv(path).counts
        assert counts[1, 0] == float(2**63) and counts[1, 1] == float(2**63 - 1)

    def test_count_behind_u001c_loads_through_strip(self, tmp_path):
        path = tmp_path / "fs.csv"
        path.write_text("datetime,R1\n" + "".join(_canonical_rows(4))
                        + "2020-08-24 02:00:00,\x1c7\n", encoding="utf-8")
        np.testing.assert_array_equal(load_csv(path).counts[:, 0], [0, 1, 2, 3, 7])

    def test_only_the_last_record_odd(self, tmp_path):
        # the odd record sits in a later block than the first
        n = data_module._BLOCK_ROWS + 4
        path = tmp_path / "last.csv"
        rows = "datetime,R1\n" + "".join(_canonical_rows(n))
        last = datetime(2020, 8, 24) + timedelta(minutes=30 * n)
        path.write_text(rows + f"{last.year}-{last.month}-{last.day} "
                               f"{last.hour}:{last.minute}:{last.second},9\n")
        series = load_csv(path)
        assert series.timestamps[-1] == np.datetime64(last, "s")
        np.testing.assert_array_equal(series.counts[:, 0], [*range(n), 9])
        path.write_text(rows + f"{last:%Y-%m-%d %H:%M:%S},-9\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:{n + 2}: negative count"


_ODD_COUNTS = [str(v) for v in (2**53 + 1, 2**63 - 1, 2**63, 10**300)] + ["1_000", " 7", "+7"]
_FAULTS = ("width", "timestamp", "non-integer", "negative", "too large", "duplicate",
           "out of order", "off grid")


@st.composite
def mobility_csv_texts(draw):
    """Small CSVs on the 30-minute grid: mostly canonical stamps, up to two in
    strptime-only forms, one padded with whitespace, up to three odd counts,
    up to two faults and at most one blank record."""
    n_regions = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 8))
    start = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9998, 1, 1)))
    first = start.replace(minute=start.minute // 30 * 30, second=0, microsecond=0)
    offsets = np.cumsum([0] + draw(st.lists(st.integers(1, 3), min_size=n_rows - 1,
                                            max_size=n_rows - 1)))
    times = [first + timedelta(minutes=30 * int(k)) for k in offsets]
    unpadded = draw(st.sets(st.integers(0, n_rows - 1), max_size=2))
    spaced = draw(st.sets(st.integers(0, n_rows - 1), max_size=1))
    rows = []
    for i, t in enumerate(times):
        # strptime's %Y takes exactly four digits; the rest may go unpadded
        stamp = (f"{t.year:04d}-{t.month}-{t.day} {t.hour}:{t.minute}:{t.second}"
                 if i in unpadded else f"{t.year:04d}-{t:%m-%d %H:%M:%S}")
        if i in spaced:
            stamp = f" {stamp}\t"
        rows.append([stamp] + [str(draw(st.integers(0, 1000))) for _ in range(n_regions)])
    for odd in draw(st.lists(st.sampled_from(_ODD_COUNTS), max_size=3)):
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(1, n_regions))] = odd
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=2)):
        i = draw(st.integers(0, n_rows - 1))
        row = rows[i]
        if fault == "width":
            if draw(st.booleans()):
                row.append("1")
            else:
                row.pop()
        elif fault == "timestamp":
            row[0] = draw(st.sampled_from([
                "not a time", "2021-02-29 00:00:00", "0000-01-01 00:00:00",
                "2020-08-24T00:00:00", "2020-13-01 00:00:00", "2020-08-24 24:00:00",
            ]))
        elif fault in ("non-integer", "negative", "too large") and len(row) > 1:
            bad = {"non-integer": draw(st.sampled_from(["x", "5.0", "", "1e3"])),
                   "negative": "-3", "too large": "9" * 400}[fault]
            row[draw(st.integers(1, len(row) - 1))] = bad
        elif fault == "off grid":
            t = times[i] + timedelta(minutes=15)
            row[0] = f"{t.year:04d}-{t:%m-%d %H:%M:%S}"
        elif n_rows > 1:  # duplicate, out of order: stamp i against stamp i - 1
            j = max(i, 1)
            if fault == "duplicate":
                rows[j][0] = rows[j - 1][0]
            else:
                rows[j][0], rows[j - 1][0] = rows[j - 1][0], rows[j][0]
    lines = [",".join(["datetime"] + [f"R{r + 1}" for r in range(n_regions)])]
    lines += [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  "])))
    return "\n".join(lines) + "\n"


def _load_outcome(load, path):
    """What a parser makes of ``path``: the series' bytes and labels, or its error text."""
    try:
        series = load(path)
    except DataFormatError as exc:
        return str(exc)
    return series.timestamps.tobytes(), series.counts.tobytes(), series.region_labels


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mobility_csv_texts(), block_rows=st.integers(1, 9))
def test_load_csv_matches_the_per_row_parser(tmp_path, monkeypatch, text, block_rows):
    # small blocks put records, blanks and faults on every side of a boundary
    monkeypatch.setattr(data_module, "_BLOCK_ROWS", block_rows)
    path = tmp_path / "case.csv"
    path.write_text(text, encoding="utf-8")
    assert _load_outcome(load_csv, path) == _load_outcome(reference.load_csv, path)


def reference_iqr_clean(series, log):
    """The group-at-a-time IQR cleaning that ``iqr_clean`` must match bit for bit."""
    counts = np.array(series.counts, dtype=np.float64)
    secs = series.timestamps.astype("datetime64[s]").astype(np.int64)
    slots = (secs % 86400) // 1800
    weeks = []
    for ts in series.timestamps.astype("datetime64[s]").tolist():
        iso = ts.isocalendar()
        weeks.append((iso[0], iso[1]))

    week_index = {}
    for idx, wk in enumerate(weeks):
        week_index.setdefault(wk, []).append(idx)

    for region in range(series.n_regions):
        col = counts[:, region]
        weekly_mean = {}
        for wk, idxs in week_index.items():
            vals = col[idxs]
            present = vals[~np.isnan(vals)]
            weekly_mean[wk] = float(present.mean()) if present.size else math.nan
        region_mean = float(np.nanmean(col)) if not np.all(np.isnan(col)) else 0.0

        groups = {}
        for idx, (wk, slot) in enumerate(zip(weeks, slots)):
            groups.setdefault((wk, int(slot)), []).append(idx)

        for (wk, slot), idxs in groups.items():
            vals = col[np.asarray(idxs)]
            present_mask = ~np.isnan(vals)
            present = vals[present_mask]
            replacement = None
            outlier_mask = np.zeros(len(idxs), dtype=bool)
            if present.size >= 2:
                q1, q3 = np.percentile(present, [25.0, 75.0])
                iqr = q3 - q1
                lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
                in_fence = present[(present >= lo) & (present <= hi)]
                outlier_mask = present_mask & ((vals < lo) | (vals > hi))
                if in_fence.size >= 2:
                    replacement = float(in_fence.mean())
            if replacement is None:
                replacement = weekly_mean[wk]
                if math.isnan(replacement):
                    replacement = region_mean
                log.append(
                    "group week=%s slot=%d region=%s has <2 usable values; "
                    "falling back to weekly mean" % (wk, slot, series.region_labels[region])
                )
            needs = outlier_mask | ~present_mask
            if needs.any():
                col[np.asarray(idxs)[needs]] = replacement
        counts[:, region] = col
    return counts


def assert_matches_reference(series, caplog):
    """Same bytes as the reference, and the same fallback warnings in order."""
    expected_log = []
    expected = reference_iqr_clean(series, expected_log)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="dpforecast.data"):
        cleaned = iqr_clean(series)
    got_log = [r.getMessage() for r in caplog.records if r.name == "dpforecast.data"]
    assert cleaned.counts.dtype == np.float64
    assert cleaned.counts.tobytes() == expected.tobytes()
    assert got_log == expected_log
    return expected_log


def dirty_series(seed, n_days=72, n_regions=6, start=START):
    """``build_series`` counts with NaN runs, single gaps and gross outliers."""
    base = build_series(n_days=n_days, n_regions=n_regions, seed=seed, noise=30.0)
    gen = np.random.default_rng(seed + 100)
    counts = np.array(base.counts)
    n = counts.shape[0]
    for _ in range(8):
        at, region = gen.integers(0, n - 12), gen.integers(0, n_regions)
        counts[at:at + gen.integers(1, 12), region] = np.nan
    counts[gen.random(counts.shape) < 0.01] = np.nan
    spikes = gen.random(counts.shape) < 0.01
    counts[spikes] *= gen.uniform(3.0, 6.0, spikes.sum())
    ts = start + np.arange(n) * SLOT
    return MobilitySeries(ts, counts, base.region_labels)


class TestIqrClean:
    def test_textbook_group_outlier(self):
        # Five days (one ISO week) so the slot-0 group is {10,11,12,13,100}:
        # Q1=11, Q3=13, fences [8,16]; 100 becomes mean(10,11,12,13)=11.5.
        day_values = [10.0, 11.0, 12.0, 13.0, 100.0]
        counts = np.full((5 * 48, 1), 50.0)
        for day, v in enumerate(day_values):
            counts[day * 48, 0] = v
        ts = START + np.arange(5 * 48) * SLOT
        series = MobilitySeries(ts, counts, ("R1",))
        cleaned = iqr_clean(series)
        assert cleaned.counts[4 * 48, 0] == pytest.approx(11.5, abs=1e-12)
        for day, v in enumerate(day_values[:4]):
            assert cleaned.counts[day * 48, 0] == v

    def test_clean_group_is_unchanged(self):
        series = build_series(n_days=7, n_regions=2, seed=2, noise=1.0)
        cleaned = iqr_clean(series)
        # the generator has no outliers at this noise level
        frac_changed = np.mean(cleaned.counts != series.counts)
        assert frac_changed < 0.05

    def test_missing_slot_filled_with_group_mean(self):
        counts = np.full((3 * 48, 1), 9.0)
        counts[0, 0] = 4.0
        counts[48, 0] = np.nan
        counts[96, 0] = 6.0
        ts = START + np.arange(3 * 48) * SLOT
        cleaned = iqr_clean(MobilitySeries(ts, counts, ("R1",)))
        assert cleaned.counts[48, 0] == pytest.approx(5.0, abs=1e-12)

    def test_sparse_group_falls_back_to_weekly_mean(self, caplog):
        counts = np.full((48, 1), 10.0)
        counts[5, 0] = np.nan  # single-day series: every group has one member
        ts = START + np.arange(48) * SLOT
        with caplog.at_level(logging.WARNING):
            cleaned = iqr_clean(MobilitySeries(ts, counts, ("R1",)))
        assert cleaned.counts[5, 0] == pytest.approx(10.0, abs=1e-12)
        assert any("weekly mean" in rec.message for rec in caplog.records)

    def test_idempotent_on_fences(self):
        series = build_series(n_days=7, n_regions=2, seed=9, noise=20.0)
        counts = np.array(series.counts)
        counts[10, 0] *= 8.0  # inject one gross outlier
        counts[200, 1] = 0.0
        once = iqr_clean(MobilitySeries(series.timestamps, counts, series.region_labels))
        twice = iqr_clean(once)
        np.testing.assert_allclose(twice.counts, once.counts, rtol=1e-12)

    def test_no_nans_remain(self):
        series = build_series(n_days=7, n_regions=2, seed=3)
        counts = np.array(series.counts)
        counts[13:19, 0] = np.nan
        cleaned = iqr_clean(MobilitySeries(series.timestamps, counts, series.region_labels))
        assert not np.isnan(cleaned.counts).any()

    def test_empty_series_comes_back_empty(self):
        empty = MobilitySeries(START + np.arange(0) * SLOT, np.zeros((0, 2)), ("R1", "R2"))
        cleaned = iqr_clean(empty)
        assert cleaned.n_slots == 0 and cleaned.counts.shape == (0, 2)
        assert cleaned.region_labels == ("R1", "R2") and cleaned.privacy is None


class TestIqrCleanMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_shape_with_gaps_and_outliers(self, seed, caplog):
        series = dirty_series(seed)
        cleaned = iqr_clean(series)
        assert not np.isnan(cleaned.counts).any()
        assert (cleaned.counts != series.counts).sum() > np.isnan(series.counts).sum()
        assert_matches_reference(series, caplog)

    def test_starts_mid_week_and_mid_day(self, caplog):
        start = START + np.timedelta64(5 * 86400 + 17 * 1800, "s")  # Saturday 08:30
        series = dirty_series(3, n_days=20, start=start)
        counts = np.array(series.counts)
        counts[:2 * 48, 0] = 100.0
        counts[30 - 17, 0] = np.nan  # Saturday's slot 30 is now a one-value group
        series = MobilitySeries(series.timestamps, counts, series.region_labels)
        log = assert_matches_reference(series, caplog)
        # warnings follow each group's first slot in the series, not slot order:
        # slot 30 first appears on Saturday, slots 0-16 (one value each) on Sunday
        assert "slot=30 region=R1" in log[0]
        assert "slot=0 region=R1" in log[1]

    def test_iso_week_53_across_the_year_end(self, caplog):
        start = np.datetime64("2020-12-28T00:00:00", "s")  # Monday of 2020-W53
        series = dirty_series(4, n_days=14, n_regions=2, start=start)
        assert_matches_reference(series, caplog)
        # 2021-01-01..03 belong to 2020-W53: their groups hold seven values
        counts = np.array(series.counts)
        counts[4 * 48 + 10, 0] = 1e7  # Friday 2021-01-01 05:00
        cleaned = iqr_clean(MobilitySeries(series.timestamps, counts, series.region_labels))
        assert cleaned.counts[4 * 48 + 10, 0] < 1e6

    def test_single_day(self, caplog):
        log = assert_matches_reference(dirty_series(5, n_days=1, n_regions=2), caplog)
        assert len(log) == 96

    def test_all_nan_group_and_all_nan_region(self, caplog):
        series = dirty_series(6, n_days=14, n_regions=3)
        counts = np.array(series.counts)
        counts[:, 1] = np.nan
        counts[7 * 48 + 5::48, 0] = np.nan  # slot 5 of the second week
        counts[:7 * 48, 2] = np.nan  # region 2's first week
        gappy = MobilitySeries(series.timestamps, counts, series.region_labels)
        log = assert_matches_reference(gappy, caplog)
        assert any("slot=5 region=R1" in line for line in log)
        assert not np.isnan(iqr_clean(gappy).counts).any()

    def test_quartiles_have_percentile_bits(self):
        gen = np.random.default_rng(11)
        groups = np.full((4000, 7, 1), np.nan)
        n_present = gen.integers(2, 8, size=(4000, 1))
        for g, k in enumerate(n_present[:, 0]):
            values = gen.normal(0.0, 1.0, k) * 10.0 ** gen.integers(-3, 6)
            if g % 3 == 0:
                values = np.round(values, 1)  # ties
            groups[g, :k, 0] = values
        ordered = np.sort(groups, axis=1)
        q1 = _linear_quantile(ordered, n_present, 0.25)
        q3 = _linear_quantile(ordered, n_present, 0.75)
        for g, k in enumerate(n_present[:, 0]):
            expected = np.percentile(groups[g, :k, 0], [25.0, 75.0])
            # == holds bit for bit except for the sign of a zero, which
            # depends on how a sort places -0.0 and 0.0 and no fence sees
            assert (q1[g, 0], q3[g, 0]) == tuple(expected)

    @pytest.mark.parametrize("n_days", [2, 3, 4, 5, 6, 7])
    def test_small_groups_with_ties(self, n_days, caplog):
        gen = np.random.default_rng(n_days)
        counts = gen.integers(0, 4, size=(n_days * 48, 3)).astype(np.float64)
        counts[gen.random(counts.shape) < 0.1] = 50.0
        counts[gen.random(counts.shape) < 0.1] = np.nan
        ts = START + np.arange(n_days * 48) * SLOT
        assert_matches_reference(MobilitySeries(ts, counts, ("A", "B", "C")), caplog)


class TestCyclicalFeatures:
    def test_monday_midnight_phase_zero(self):
        feats = cyclical_matrix([datetime(2020, 8, 24, 0, 0, 0)])[0]
        np.testing.assert_allclose(feats, [0.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_quarter_day(self):
        feats = cyclical_matrix([datetime(2020, 8, 26, 6, 0, 0)])[0]
        np.testing.assert_allclose(feats[:2], [1.0, 0.0], atol=1e-12)

    def test_thursday_noon_is_half_week(self):
        feats = cyclical_matrix([datetime(2020, 8, 27, 12, 0, 0)])[0]
        np.testing.assert_allclose(feats[2:], [0.0, -1.0], atol=1e-12)

    def test_weekly_periodicity_exact(self):
        ts = np.datetime64("2020-09-02T17:30:00", "s")
        week = np.timedelta64(7 * 86400, "s")
        first, later = cyclical_matrix([ts, ts + week])
        np.testing.assert_array_equal(first, later)

    def test_matches_calendar_oracle(self):
        series = build_series(n_days=2, seed=0)
        mat = cyclical_matrix(series.timestamps)
        for i, ts in enumerate(series.timestamps.tolist()):
            minutes = ts.hour * 60 + ts.minute
            day, week = minutes / 1440, (ts.weekday() * 1440 + minutes) / 10080
            expected = [math.sin(2 * math.pi * day), math.cos(2 * math.pi * day),
                        math.sin(2 * math.pi * week), math.cos(2 * math.pi * week)]
            np.testing.assert_allclose(mat[i], expected, atol=1e-12)


class TestSplit:
    def test_72_day_series_gives_reference_split_sizes(self):
        series = build_series(n_days=72, n_regions=2, seed=0, noise=0.0)
        train, test = split(series)
        assert train.n_slots == 3120
        assert test.n_slots == 336
        assert train.timestamps[-1] + SLOT == test.timestamps[0]

    @pytest.mark.parametrize("train_days, test_days", [(13, 0), (13, -1), (0, 2), (-1, 2)])
    def test_fewer_than_one_day_is_refused(self, train_days, test_days):
        series = build_series(n_days=15, seed=0)
        with pytest.raises(ValueError, match="must be >= 1"):
            split(series, train_days, test_days)

    def test_short_series_rejected_with_requirement(self):
        series = build_series(n_days=10, seed=0)
        with pytest.raises(ValueError, match="3456"):
            split(series)

    def test_one_plus_one_day(self):
        series = build_series(n_days=2, seed=0)
        train, test = split(series, train_days=1, test_days=1)
        assert train.n_slots == 48 and test.n_slots == 48

    def test_longer_series_uses_final_days(self):
        series = build_series(n_days=80, n_regions=1, seed=0)
        train, test = split(series)
        assert test.timestamps[-1] == series.timestamps[-1]
        assert train.timestamps[0] == series.timestamps[(80 - 72) * 48]


class TestMakeWindows:
    def test_sample_count(self):
        series = build_series(n_days=65, n_regions=2, seed=0, noise=0.0)
        w = make_windows(series, lag=6)
        assert w.n_samples == 3120 - 6
        assert w.inputs.shape == (3114, 6, 2 + 4)

    @pytest.mark.parametrize("inputs, targets, message", [
        ((2, 6), (2, 1), "inputs must be (n, lag, d) and targets (n, regions)"),
        ((2, 6, 5), (2,), "inputs must be (n, lag, d) and targets (n, regions)"),
        ((2, 6, 5), (3, 1), "inputs and targets disagree on sample count"),
    ], ids=["flat-inputs", "flat-targets", "sample-count"])
    def test_windowed_dataset_refuses_mismatched_arrays(self, inputs, targets, message):
        with pytest.raises(ValueError) as err:
            WindowedDataset(np.zeros(inputs), np.zeros(targets), START + np.arange(2) * SLOT)
        assert str(err.value) == message

    def test_zero_lag_rejected(self):
        series = build_series(n_days=1)
        with pytest.raises(ValueError):
            make_windows(series, lag=0)

    def test_window_consistency_recovers_series(self):
        series = build_series(n_days=1, n_regions=2, seed=5)
        lag = 4
        w = make_windows(series, lag=lag)
        regions = series.n_regions
        for i in range(w.n_samples):
            np.testing.assert_array_equal(
                w.inputs[i, :, :regions], series.counts[i:i + lag]
            )
            np.testing.assert_array_equal(w.targets[i], series.counts[i + lag])

    def test_no_leakage_targets_strictly_after_inputs(self):
        series = build_series(n_days=1, n_regions=1, seed=5)
        w = make_windows(series, lag=6)
        assert np.all(w.target_timestamps == series.timestamps[6:])

    @pytest.mark.parametrize("n_days", [2, 4])
    @pytest.mark.parametrize("lag", [1, 95])
    def test_matches_stacked_slices(self, lag, n_days):
        # lag 95 is n_slots - 1 of two days: a single window
        series = build_series(n_days=n_days, n_regions=3, seed=2)
        feats = feature_matrix(series)
        w = make_windows(series, lag=lag)
        expected = np.stack([feats[i:i + lag] for i in range(series.n_slots - lag)])
        assert w.inputs.shape == expected.shape
        assert w.inputs.dtype == expected.dtype
        assert w.inputs.tobytes() == expected.tobytes()
        assert w.inputs.flags.c_contiguous and w.inputs.flags.owndata
        assert w.inputs.base is None

    @pytest.mark.parametrize("scaled", ["fitted", "later"])
    @pytest.mark.parametrize("lag", [1, 6, 95])
    def test_scaler_scales_rows_as_transform_scales_windows(self, lag, scaled):
        series = build_series(n_days=4, n_regions=3, seed=4)
        fitted, later = split(series, train_days=2, test_days=2)
        scaler = MinMaxScaler().fit(fitted, lag=min(lag, 6))
        part = fitted if scaled == "fitted" else later
        expected = scaler.transform(make_windows(part, lag=lag))
        got = make_windows(part, lag=lag, scaler=scaler)
        for a, b in [(got.inputs, expected.inputs), (got.targets, expected.targets),
                     (got.target_timestamps, expected.target_timestamps)]:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert a.flags.c_contiguous and a.base is None

    def test_unfitted_scaler_is_refused(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            make_windows(build_series(n_days=1), lag=2, scaler=MinMaxScaler())

    def test_feature_layout_regions_then_cycles(self):
        series = build_series(n_days=1, n_regions=3, seed=0)
        w = make_windows(series, lag=2)
        mat = feature_matrix(series)
        assert mat.shape == (48, 7)
        np.testing.assert_array_equal(mat[:, :3], series.counts)
        np.testing.assert_array_equal(mat[:, 3:], cyclical_matrix(series.timestamps))
        np.testing.assert_array_equal(w.inputs[0], mat[:2])


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self):
        # lag=1 windows make the targets exactly {0, 50, 100}
        series = series_from_column([33.0, 0.0, 50.0, 100.0])
        w = make_windows(series, lag=1)
        scaler = MinMaxScaler().fit(series, lag=1)
        scaled = scaler.transform(w)
        np.testing.assert_allclose(scaled.targets.ravel(), [0.0, 0.5, 1.0], atol=1e-12)

    def test_apply_then_invert_is_identity(self):
        series = build_series(n_days=2, n_regions=3, seed=8)
        w = make_windows(series, lag=3)
        scaler = MinMaxScaler().fit(series, lag=3)
        restored = scaler.inverse_transform_targets(scaler.transform(w).targets)
        np.testing.assert_allclose(restored, w.targets, rtol=1e-12, atol=1e-9)

    def test_out_of_range_values_extrapolate(self):
        # fitted target range is [0, 20]; a test value of 40 maps to 2.0
        series = series_from_column([7.0, 0.0, 10.0, 20.0])
        scaler = MinMaxScaler().fit(series, lag=1)
        doubled = scaler._scale(np.array([40.0]), scaler.target_min_, scaler.target_max_)
        assert doubled[0] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_column_maps_to_zero(self, caplog):
        series = series_from_column([7.0, 7.0, 7.0, 7.0])
        w = make_windows(series, lag=1)
        with caplog.at_level(logging.WARNING):
            scaler = MinMaxScaler().fit(series, lag=1)
        scaled = scaler.transform(w)
        assert np.all(scaled.targets == 0.0)
        assert any("constant" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("values", [
        np.arange(96.0),  # rising: the last row is the only input row above the rest
        np.arange(96.0)[::-1],
        np.full(96, 7.0),  # constant: both warnings
    ], ids=["rising", "falling", "constant"])
    @pytest.mark.parametrize("lag", [1, 6, 95])
    def test_fit_bounds_are_the_windows_min_and_max(self, caplog, lag, values):
        series = series_from_column(values)
        w = make_windows(series, lag=lag)
        rows = w.inputs.reshape(-1, w.inputs.shape[2])
        expected = {"input_min": np.min(rows, axis=0).tolist(),
                    "input_max": np.max(rows, axis=0).tolist(),
                    "target_min": np.min(w.targets, axis=0).tolist(),
                    "target_max": np.max(w.targets, axis=0).tolist()}
        with caplog.at_level(logging.WARNING):
            got = MinMaxScaler().fit(series, lag)
        assert got.to_dict() == expected
        assert [r.getMessage() for r in caplog.records] == constant_column_warnings(expected)

    @pytest.mark.parametrize("lag, message", [(0, "lag must be >= 1"),
                                              (96, "at least 97 required")])
    def test_fit_refuses_what_make_windows_refuses(self, lag, message):
        series = series_from_column(np.arange(96.0))
        for call in (lambda: make_windows(series, lag=lag),
                     lambda: MinMaxScaler().fit(series, lag)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_state_lists_the_fitted_bounds(self):
        series = build_series(n_days=1, n_regions=2, seed=1)
        scaler = MinMaxScaler().fit(series, lag=2)
        state = scaler.to_dict()
        for key in ("input_min", "input_max", "target_min", "target_max"):
            assert state[key] == getattr(scaler, f"{key}_").tolist()


class TestDescriptiveStats:
    def test_constant_series(self):
        series = series_from_column([42.0] * 96)
        stats = descriptive_stats(series)
        assert stats["std"][0] == 0.0
        assert stats["min"][0] == stats["max"][0] == stats["mean"][0] == 42.0
        assert stats["median"][0] == 42.0

    def test_sample_std_convention(self):
        series = series_from_column([1.0, 2.0, 3.0, 4.0])
        stats = descriptive_stats(series)
        assert stats["std"][0] == pytest.approx(
            math.sqrt(np.var([1, 2, 3, 4], ddof=1)), rel=1e-12
        )

    def test_rejects_gappy_series(self):
        counts = np.array([[1.0], [np.nan], [2.0]])
        ts = START + np.arange(3) * SLOT
        with pytest.raises(ValueError):
            descriptive_stats(MobilitySeries(ts, counts, ("R1",)))
