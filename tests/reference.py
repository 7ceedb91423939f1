"""Reference implementations that the library must match.

``cell_step`` is one LSTM or GRU step written gate by gate from the
equations in ``dpforecast.nn``, with the exp form of the sigmoid and no
fused tensors, scratch buffers or zero-state shortcut; ``cell_gates`` is
its gate values, and ``network_forward`` chains it over a batch of
windows.

``log_binomial`` is ln C(n, k) from log-gamma, as the term-by-term RDP
oracle in ``test_privacy`` writes each term.

``load_csv`` is the per-row CSV parser as it stood before ``data.load_csv``
read canonical rows as columns: every record goes through the field-count,
timestamp and count checks in line order. The library's result, or its
error message, must be the same for any file whose region labels are
nonblank and distinct.
"""

import csv
import io
import math
import re
from datetime import datetime, timedelta

import numpy as np

from dpforecast import DataFormatError, MobilitySeries

SLOT_SECONDS = 1800
TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
_CANONICAL_TIME = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
_FLOAT_OVERFLOW = 2**1024 - 2**970


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma; exact to float precision for small n."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _activation(kind):
    return np.tanh if kind == "tanh" else (lambda a: np.maximum(a, 0.0))


def cell_gates(cell, p, x, h, activation="tanh"):
    """The gate values of one step of ``cell``, in gate order.

    ``(z, r, c)`` for the GRU and ``(i, f, o, g)`` for the LSTM, with ``p``,
    ``x`` and ``h`` as in ``cell_step``.
    """
    act = _activation(activation)
    if cell == "gru":
        z = _sigmoid(x @ p["W_z"] + h @ p["U_z"] + p["b_z"])
        r = _sigmoid(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
        return z, r, act(x @ p["W_c"] + (r * h) @ p["U_c"] + p["b_c"])
    i, f, o = (_sigmoid(x @ p[f"W_x{g}"] + h @ p[f"W_h{g}"] + p[f"b_{g}"]) for g in "ifo")
    return i, f, o, act(x @ p["W_xg"] + h @ p["W_hg"] + p["b_g"])


def cell_step(cell, p, x, h, c=None, activation="tanh"):
    """One step of ``cell`` from input rows ``x`` and states ``h`` (and ``c``).

    ``p`` holds one direction's per-gate tensors under their names without
    the direction prefix (``W_z``, ``U_z``, ``b_z``, ... for the GRU;
    ``W_xi``, ``W_hi``, ``b_i``, ... for the LSTM). Returns ``h_t`` for the
    GRU and ``(h_t, c_t)`` for the LSTM.
    """
    if cell == "gru":
        z, _, cand = cell_gates(cell, p, x, h, activation)
        return (1.0 - z) * h + z * cand
    i, f, o, g = cell_gates(cell, p, x, h, activation)
    c = f * c + i * g
    return o * _activation(activation)(c), c


def network_forward(spec, params, windows):
    """``cell_step`` over windows (n, lag, d) from zero states, then the dense layer.

    The ``bw`` direction reads each window reversed, and the final hidden
    states are concatenated in direction order. Returns the predictions
    (n, output) and, per direction, the hidden states after each step.
    """
    n, lag, _ = windows.shape
    states = {}
    for direction in spec.directions:
        prefix = f"{direction}_"
        p = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
        xs = windows if direction == "fw" else windows[:, ::-1]
        h = c = np.zeros((n, spec.hidden_size))
        states[direction] = []
        for t in range(lag):
            if spec.cell == "gru":
                h = cell_step("gru", p, xs[:, t], h, activation=spec.activation)
            else:
                h, c = cell_step("lstm", p, xs[:, t], h, c, activation=spec.activation)
            states[direction].append(h)
    h_cat = np.concatenate([hs[-1] for hs in states.values()], axis=1)
    return h_cat @ params["out_W"] + params["out_b"], states


def load_csv(path) -> MobilitySeries:
    """Parse a mobility CSV; missing 30-minute rows stay as NaN gaps.

    The file must be UTF-8 text. Each row is checked as it is read (field
    count, timestamp, integer and nonnegative counts that a float can hold),
    so a row-level error names the first offending line. The timestamps
    are then checked as one column, in this order: duplicates, order, the
    span's and then each row's alignment to the 30-minute grid; each check
    names its first offender.
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
    stamps: list[int] = []  # seconds since the epoch
    values: list[list[int]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(labels) + 1:
            raise DataFormatError(f"{path}:{lineno}: expected {len(labels) + 1} fields")
        stamp = row[0].strip()
        try:
            if _CANONICAL_TIME.fullmatch(stamp):
                ts = datetime.fromisoformat(stamp)
            else:
                ts = datetime.strptime(stamp, TIME_FORMAT)
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: bad timestamp {row[0]!r}"
            ) from None
        try:
            values.append([int(v) for v in row[1:]])
        except ValueError:
            # int() skips the whitespace str.strip() does, except U+001C..U+001F.
            try:
                values.append([int(v.strip()) for v in row[1:]])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer count") from None
        if min(values[-1]) < 0:
            raise DataFormatError(f"{path}:{lineno}: negative count")
        if max(values[-1]) >= _FLOAT_OVERFLOW:
            raise DataFormatError(f"{path}:{lineno}: count too large for a float")
        stamps.append((ts - _EPOCH) // _SECOND)
    if not stamps:
        raise DataFormatError(f"{path}: no data rows")

    times = np.array(stamps, dtype="datetime64[s]")
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

