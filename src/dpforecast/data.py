"""Mobility series ingestion, IQR cleaning, features, windowing, scaling.

The raw input is a CSV of per-region user counts on a 30-minute grid:

    datetime,R1,R2,R3,R4,R5,R6
    2020-08-24 00:00:00,99154,12813,...

Timestamps are ``YYYY-MM-DD HH:MM:SS``; counts are nonnegative integers.
Missing rows become gaps that the IQR cleaning step fills with the mean of
the in-fence values for the same (ISO week, region, time-of-day slot)
group. Supervised windows pair ``lag`` consecutive feature rows (region
counts plus four cyclical time features) with the next slot's counts.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import islice
from typing import TYPE_CHECKING, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:  # pragma: no cover
    from .privacy import PrivacyRecord

logger = logging.getLogger(__name__)

SLOT_SECONDS = 1800
SLOTS_PER_DAY = 48
TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
# TIME_FORMAT zero-padded in ASCII digits, as bytes, with the "|" that joins
# stamps after it: a stamp of this form minus this shape, as uint8, is at
# most 9 at a digit and 0 elsewhere.
_STAMP_SHAPE = np.frombuffer(b"0000-00-00 00:00:00|", dtype=np.uint8)
_STAMP_SLACK = np.where(_STAMP_SHAPE == ord("0"), 9, 0).astype(np.uint8)
_YEAR_ONE = np.datetime64("0001-01-01T00:00:00", "s")
_BLOCK_ROWS = 1024
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
# The least integer that float() rounds past the largest finite double.
_FLOAT_OVERFLOW = 2**1024 - 2**970

MINUTES_PER_DAY = 1440.0
MINUTES_PER_WEEK = 10080.0


class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class MobilitySeries:
    """Timestamped matrix of per-region user counts on a 30-minute grid.

    ``counts`` has one row per slot and one column per region; gaps are
    NaN until cleaned. ``privacy`` is set when (and only when) the counts
    were released through a sanitizing mechanism.
    """

    timestamps: np.ndarray  # datetime64[s], shape (n_slots,)
    counts: np.ndarray      # float64, shape (n_slots, n_regions)
    region_labels: tuple[str, ...]
    privacy: Optional["PrivacyRecord"] = None

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        counts = np.asanyarray(self.counts)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.shape[0] != ts.shape[0]:
            raise DataFormatError(
                f"counts shape {counts.shape} inconsistent with {ts.shape[0]} timestamps"
            )
        if counts.shape[1] != len(self.region_labels):
            raise DataFormatError("region label count does not match count columns")
        if ts.shape[0] > 1:
            deltas = np.diff(ts).astype("timedelta64[s]").astype(np.int64)
            if np.any(deltas <= 0):
                raise DataFormatError("timestamps must be strictly increasing")
            if np.any(deltas != SLOT_SECONDS):
                raise DataFormatError("timestamps must sit on a 30-minute grid")

    @property
    def n_slots(self) -> int:
        return self.timestamps.shape[0]

    @property
    def n_regions(self) -> int:
        return self.counts.shape[1]


def load_csv(path) -> MobilitySeries:
    """Parse a mobility CSV; missing 30-minute rows stay as NaN gaps.

    The file must be UTF-8 text, and its region labels nonblank and
    distinct. Each row is checked (field count, timestamp, integer and
    nonnegative counts that a float can hold), so a row-level error names
    the first offending line. The timestamps are then checked as one
    column, in this order: duplicates, order, the span's and then each
    row's alignment to the 30-minute grid; each check names its first
    offender.

    The file is read once, ``_BLOCK_ROWS`` rows at a time. A block is read
    as columns when all its records pass in bulk (:func:`_parse_block`);
    otherwise its records go through :func:`_parse_row`, which alone
    defines what a row may hold, so row errors still come in line order.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file") from None
    if not header or header[0].strip() != "datetime" or len(header) < 2:
        raise DataFormatError(
            f"{path}: header must be 'datetime' followed by region columns"
        )
    labels = tuple(h.strip() for h in header[1:])
    seen = set()
    for column, label in enumerate(labels, start=2):
        if not label:
            raise DataFormatError(f"{path}: blank region label in column {column}")
        if label in seen:
            raise DataFormatError(f"{path}: region label {label!r} repeated in column {column}")
        seen.add(label)
    times, values = [], []
    lineno = 2  # of the block's first row
    while block := list(islice(reader, _BLOCK_ROWS)):
        first, lineno = lineno, lineno + len(block)
        parsed = _parse_block(block, len(labels))
        if parsed is None:
            rows = [_parse_row(path, i, row, len(labels))
                    for i, row in enumerate(block, start=first) if _is_record(row)]
            if not rows:
                continue
            stamps, counts = zip(*rows)  # seconds since the epoch; Python ints
            parsed = np.array(stamps, dtype="datetime64[s]"), np.array(counts, dtype=np.float64)
        times.append(parsed[0])
        values.append(parsed[1])
    if not times:
        raise DataFormatError(f"{path}: no data rows")
    times, values = np.concatenate(times), np.concatenate(values)

    steps = np.diff(times).astype(np.int64)
    bad = np.flatnonzero(steps <= 0)
    if bad.size:
        i = bad[0]
        if steps[i] == 0:
            raise DataFormatError(f"{path}: duplicated timestamp {times[i]}")
        raise DataFormatError(f"{path}: timestamps out of order at {times[i + 1]}")
    offsets = (times - times[0]).astype(np.int64)
    if offsets[-1] % SLOT_SECONDS != 0:
        raise DataFormatError(f"{path}: timestamps not aligned to the 30-minute grid")
    off_grid = np.flatnonzero(offsets % SLOT_SECONDS)
    if off_grid.size:
        raise DataFormatError(f"{path}: timestamp {times[off_grid[0]]} off the 30-minute grid")
    n = offsets[-1] // SLOT_SECONDS + 1
    grid = times[0] + np.arange(n) * np.timedelta64(SLOT_SECONDS, "s")
    counts = np.full((n, len(labels)), np.nan)
    counts[offsets // SLOT_SECONDS] = values
    return MobilitySeries(grid, counts, labels)


def _is_record(row: list[str]) -> bool:
    """False for a blank record, which :func:`load_csv` skips."""
    return bool(row) and (len(row) != 1 or bool(row[0].strip()))


def _parse_row(path, lineno: int, row: list[str], n_regions: int) -> tuple[int, list[int]]:
    """One record's seconds since the epoch and counts, or the error on its line."""
    if len(row) != n_regions + 1:
        raise DataFormatError(f"{path}:{lineno}: expected {n_regions + 1} fields")
    try:
        ts = datetime.strptime(row[0].strip(), TIME_FORMAT)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from None
    try:
        values = [int(v) for v in row[1:]]
    except ValueError:
        # int() skips the whitespace str.strip() does, except U+001C..U+001F.
        try:
            values = [int(v.strip()) for v in row[1:]]
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-integer count") from None
    if min(values) < 0:
        raise DataFormatError(f"{path}:{lineno}: negative count")
    if max(values) >= _FLOAT_OVERFLOW:
        raise DataFormatError(f"{path}:{lineno}: count too large for a float")
    return (ts - _EPOCH) // _SECOND, values


def _parse_block(block: list[list[str]], n_regions: int):
    """One block's times and int64 counts as two arrays, or None.

    None means some record needs :func:`_parse_row`, or that the block has
    no records: a record's field count is not ``n_regions + 1``; its
    stripped timestamp is not ``TIME_FORMAT`` zero-padded in ASCII digits,
    or is in year 0, which numpy reads and ``datetime`` refuses; or a count
    is negative, too large for int64, or refused by ``int()``. numpy reads
    the other timestamps as ``strptime`` does and the counts as ``int()``
    does.
    """
    # A row of two or more fields is a record; the test only saves calls.
    records = [row for row in block if len(row) > 1 or _is_record(row)]
    n = len(records)
    if set(map(len, records)) != {n_regions + 1}:
        return None
    stamps = [row[0].strip() for row in records]
    text = np.frombuffer(("|".join(stamps) + "|").encode(), dtype=np.uint8)
    if text.size != n * _STAMP_SHAPE.size:
        return None
    if np.any(text.reshape(n, -1) - _STAMP_SHAPE > _STAMP_SLACK):
        return None
    try:
        times = np.array(stamps, dtype="datetime64[s]")
        counts = np.array([row[1:] for row in records], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if np.any(times < _YEAR_ONE) or counts.min() < 0:
        return None
    return times, counts


def format_timestamps(timestamps: np.ndarray) -> list[str]:
    """Each timestamp as ``TIME_FORMAT`` text, to the second, as :func:`load_csv` reads it."""
    return [str(t).replace("T", " ") for t in timestamps.astype("datetime64[s]")]


def _linear_quantile(ordered: np.ndarray, n_present: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile``'s linear method along axis 1 of NaN-last sorted groups.

    ``n_present`` counts each group's non-NaN values. numpy's lerp is
    written out, so a group of two or more values gets the bits
    ``np.percentile`` gives it, up to the sign of a zero, which no
    comparison sees.
    """
    pos = (n_present - 1) * q
    below = np.floor(pos)
    t = pos - below
    i = np.clip(below.astype(np.intp), 0, ordered.shape[1] - 2)[:, None, :]
    a = np.take_along_axis(ordered, i, axis=1)[:, 0]
    b = np.take_along_axis(ordered, i + 1, axis=1)[:, 0]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def iqr_clean(series: MobilitySeries) -> MobilitySeries:
    """Replace outliers and fill gaps using interquartile-range fences.

    Values are grouped by (ISO week, region, time-of-day slot). Within a
    group, quartiles come from linear interpolation on the sorted present
    values; entries outside [Q1 - 1.5*IQR, Q3 + 1.5*IQR] and missing slots
    are replaced by the mean of the group's in-fence values. Groups with
    fewer than two in-fence values fall back to the region's weekly mean
    (its overall mean if that week has no values) and log a warning.

    An ISO week is keyed by its Monday, ``days - (days + 3) % 7`` in days
    since the epoch: two slots share an ISO (year, week) exactly when they
    share that Monday, across an ISO-year boundary too. Each group is one
    row of a NaN-padded (weeks * 48 slots, 7 weekdays, regions) array, so a
    single sort along the weekday axis, where NaN sorts last, orders every
    group at once. The quartiles are ``np.percentile``'s, and the in-fence
    mean is a sum in time order divided by the count, which for at most
    seven values has the bits of ``np.mean``. Only the fallback groups are
    handled one by one.
    """
    counts = np.array(series.counts, dtype=np.float64)
    if series.n_slots == 0:
        return MobilitySeries(series.timestamps, counts, series.region_labels, series.privacy)
    secs = series.timestamps.astype(np.int64)
    days = secs // 86400
    weekday = (days + 3) % 7  # the epoch, 1970-01-01, was a Thursday
    monday = days - weekday
    week = (monday - monday[0]) // 7
    group = week * SLOTS_PER_DAY + (secs % 86400) // SLOT_SECONDS
    n_groups = (int(week[-1]) + 1) * SLOTS_PER_DAY

    dense = np.full((n_groups, 7, series.n_regions), np.nan)
    dense[group, weekday] = counts
    n_present = np.count_nonzero(~np.isnan(dense), axis=1)
    ordered = np.sort(dense, axis=1)
    q1 = _linear_quantile(ordered, n_present, 0.25)
    q3 = _linear_quantile(ordered, n_present, 0.75)
    iqr = q3 - q1
    lo = (q1 - 1.5 * iqr)[:, None, :]
    hi = (q3 + 1.5 * iqr)[:, None, :]
    # A group of fewer than two values has NaN fences: nothing in it is an
    # outlier and nothing is inside.
    inside = (dense >= lo) & (dense <= hi)
    needs = np.isnan(dense) | (dense < lo) | (dense > hi)

    kept = np.where(inside, dense, 0.0)
    total = np.zeros((n_groups, series.n_regions))
    for day in range(7):
        total += kept[:, day]
    n_inside = np.count_nonzero(inside, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        replacement = total / n_inside

    # Fallback groups warn by region, then by their first slot in the series.
    members, first_row = np.unique(group, return_index=True)
    sparse = zip(*np.nonzero(n_inside[members].T < 2))
    for region, m in sorted(sparse, key=lambda rm: (rm[0], first_row[rm[1]])):
        g, row = members[m], first_row[m]
        col = counts[:, region]
        in_week = col[week == week[row]]
        in_week = in_week[~np.isnan(in_week)]
        value = float(in_week.mean()) if in_week.size else math.nan
        if math.isnan(value):
            value = float(np.nanmean(col)) if not np.all(np.isnan(col)) else 0.0
        replacement[g, region] = value
        iso = series.timestamps[row].tolist().isocalendar()
        logger.warning(
            "group week=%s slot=%d region=%s has <2 usable values; "
            "falling back to weekly mean", (iso[0], iso[1]), g % SLOTS_PER_DAY,
            series.region_labels[region],
        )
    cleaned = np.where(needs[group, weekday], replacement[group], counts)
    return MobilitySeries(series.timestamps, cleaned, series.region_labels, series.privacy)


def cyclical_matrix(timestamps: np.ndarray) -> np.ndarray:
    """[sin, cos] pairs for the daily and weekly phase, one row per timestamp.

    Columns are day sin, day cos, week sin, week cos. Phase zero is
    midnight for the day pair and Monday 00:00 for the week pair, so a
    timestamp and the same time 7 days later get the same row.
    """
    secs = np.asarray(timestamps, dtype="datetime64[s]").astype(np.int64)
    minutes_day = (secs % 86400) / 60.0
    days = secs // 86400
    weekday = (days + 3) % 7  # the epoch, 1970-01-01, was a Thursday
    minutes_week = weekday * MINUTES_PER_DAY + minutes_day
    day_phase = 2.0 * np.pi * minutes_day / MINUTES_PER_DAY
    week_phase = 2.0 * np.pi * minutes_week / MINUTES_PER_WEEK
    return np.column_stack(
        [np.sin(day_phase), np.cos(day_phase), np.sin(week_phase), np.cos(week_phase)]
    )


def split(
    series: MobilitySeries, train_days: int = 65, test_days: int = 7
) -> tuple[MobilitySeries, MobilitySeries]:
    """Contiguous train/test split over the final ``train+test`` days."""
    if train_days < 1 or test_days < 1:
        raise ValueError(
            f"train_days and test_days must be >= 1, got {train_days} and {test_days}")
    need = (train_days + test_days) * SLOTS_PER_DAY
    if series.n_slots < need:
        raise ValueError(
            f"series has {series.n_slots} slots; "
            f"{need} required for {train_days}+{test_days} days"
        )
    start = series.n_slots - need
    cut = start + train_days * SLOTS_PER_DAY
    train = MobilitySeries(
        series.timestamps[start:cut], series.counts[start:cut],
        series.region_labels, series.privacy,
    )
    test = MobilitySeries(
        series.timestamps[cut:], series.counts[cut:],
        series.region_labels, series.privacy,
    )
    return train, test


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised pairs of lag-step feature windows and next-slot targets.

    ``inputs`` is (n, lag, d) with d = regions + 4 cyclical columns (region
    columns first); ``targets`` is (n, regions), the counts of the slot
    immediately after each window.
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_timestamps: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 3 or self.targets.ndim != 2:
            raise ValueError("inputs must be (n, lag, d) and targets (n, regions)")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree on sample count")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


def feature_matrix(series: MobilitySeries) -> np.ndarray:
    """Per-slot feature rows: region counts then cyclical time columns."""
    return np.hstack([series.counts, cyclical_matrix(series.timestamps)])


def make_windows(
    series: MobilitySeries, lag: int = 6, context: MobilitySeries | None = None
) -> WindowedDataset:
    """Build supervised windows; ``context`` supplies the first lag steps.

    Without context the first ``lag`` slots only serve as inputs, giving
    ``n_slots - lag`` samples. With a context series (whose last slot must
    immediately precede ``series``) every slot becomes a target.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    feats = feature_matrix(series)
    if context is not None:
        if context.region_labels != series.region_labels:
            raise ValueError("context and series disagree on regions")
        gap = (series.timestamps[0] - context.timestamps[-1]).astype("timedelta64[s]")
        if int(gap.astype(np.int64)) != SLOT_SECONDS:
            raise ValueError("context must end exactly one slot before the series")
        if context.n_slots < lag:
            raise ValueError(f"context provides {context.n_slots} slots; lag={lag} needed")
        tail = MobilitySeries(context.timestamps[-lag:], context.counts[-lag:],
                              context.region_labels)
        full = np.vstack([feature_matrix(tail), feats])
        n = series.n_slots
        targets = series.counts
        target_ts = series.timestamps
    else:
        if series.n_slots < lag + 1:
            raise ValueError(
                f"series has {series.n_slots} slots; at least {lag + 1} required"
            )
        full = feats
        n = series.n_slots - lag
        targets = series.counts[lag:]
        target_ts = series.timestamps[lag:]
    # window i is full[i:i + lag]; copied so it owns its bytes, never a view of full
    windows = sliding_window_view(full, lag, axis=0)[:n].transpose(0, 2, 1).copy()
    return WindowedDataset(windows, np.array(targets), np.array(target_ts))


class MinMaxScaler:
    """Per-column min-max scaling to [0, 1], fitted on training data only.

    Input columns and target columns are fitted separately; degenerate
    columns (max == min) map to 0. ``fit``/``transform`` follow the usual
    estimator conventions and test-time values outside the training range
    map outside [0, 1].
    """

    def __init__(self):
        self.input_min_ = None
        self.input_max_ = None
        self.target_min_ = None
        self.target_max_ = None

    def fit(self, windows: WindowedDataset) -> "MinMaxScaler":
        flat = windows.inputs.reshape(-1, windows.inputs.shape[2])
        self.input_min_ = flat.min(axis=0)
        self.input_max_ = flat.max(axis=0)
        self.target_min_ = windows.targets.min(axis=0)
        self.target_max_ = windows.targets.max(axis=0)
        for name, lo, hi in [("input", self.input_min_, self.input_max_),
                             ("target", self.target_min_, self.target_max_)]:
            degenerate = np.flatnonzero(hi == lo)
            if degenerate.size:
                logger.warning(
                    "%s columns %s are constant; scaling them to 0",
                    name, degenerate.tolist(),
                )
        return self

    def _check_fitted(self):
        if self.input_min_ is None:
            raise RuntimeError("scaler is not fitted")

    @staticmethod
    def _scale(x, lo, hi):
        span = hi - lo
        safe = np.where(span == 0, 1.0, span)
        scaled = (x - lo) / safe
        return np.where(span == 0, 0.0, scaled)

    def transform(self, windows: WindowedDataset) -> WindowedDataset:
        self._check_fitted()
        inputs = self._scale(windows.inputs, self.input_min_, self.input_max_)
        targets = self._scale(windows.targets, self.target_min_, self.target_max_)
        return WindowedDataset(inputs, targets, windows.target_timestamps)

    def transform_inputs(self, inputs: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self._scale(inputs, self.input_min_, self.input_max_)

    def inverse_transform_targets(self, scaled: np.ndarray) -> np.ndarray:
        self._check_fitted()
        span = self.target_max_ - self.target_min_
        return scaled * span + self.target_min_

    def to_dict(self) -> dict:
        self._check_fitted()
        return {
            "input_min": self.input_min_.tolist(),
            "input_max": self.input_max_.tolist(),
            "target_min": self.target_min_.tolist(),
            "target_max": self.target_max_.tolist(),
        }


def descriptive_stats(series: MobilitySeries) -> dict[str, np.ndarray]:
    """Per-region min, max, mean, sample std, and median over all slots."""
    counts = series.counts
    if np.isnan(counts).any():
        raise ValueError("descriptive_stats expects a cleaned (gap-free) series")
    return {
        "min": counts.min(axis=0),
        "max": counts.max(axis=0),
        "mean": counts.mean(axis=0),
        "std": counts.std(axis=0, ddof=1),
        "median": np.median(counts, axis=0),
    }
