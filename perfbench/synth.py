"""Seeded synthetic mobility CSV of the paper's shape.

The generator writes the canonical ``datetime,R1..R6`` layout that
``dpforecast.load_csv`` reads: a 30-minute grid with daily and weekly
structure per region, a fixed share of dropped rows (gaps that
``iqr_clean`` fills) and a fixed share of injected outliers (values that
fall outside its IQR fences). The same seed gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

START = np.datetime64("2020-08-24T00:00:00", "s")  # a Monday
SLOT_SECONDS = 1800
SLOTS_PER_DAY = 48
# Per-region mean levels of the same order as the published series.
REGION_LEVELS = (116_777.0, 14_307.0, 16_274.0, 11_758.0, 4_166.0, 11_559.0)
DROP_SHARE = 0.01
OUTLIER_SHARE = 0.005


@dataclass(frozen=True)
class SynthSummary:
    """What the generator put into the file, for the benchmark's own checks."""

    n_slots: int
    n_dropped: int
    n_outliers: int


def synth_counts(n_days: int, seed: int, n_regions: int = 6):
    """Integer counts (n_slots, n_regions), the dropped row indices and outlier cells."""
    gen = np.random.default_rng([seed, 0x5EED])
    n = n_days * SLOTS_PER_DAY
    slot = np.arange(n) % SLOTS_PER_DAY
    weekday = (np.arange(n) // SLOTS_PER_DAY) % 7
    hours = slot / 2.0
    # Two daytime peaks over a night trough, and quieter weekends.
    daily = (0.55 + 0.30 * np.exp(-((hours - 9.0) ** 2) / 8.0)
             + 0.40 * np.exp(-((hours - 18.0) ** 2) / 10.0)
             - 0.25 * np.exp(-((hours - 3.5) ** 2) / 6.0))
    weekly = np.where(weekday >= 5, 0.82, 1.0)
    cols = []
    for r in range(n_regions):
        level = REGION_LEVELS[r % len(REGION_LEVELS)]
        phase = gen.uniform(-0.5, 0.5)
        shape = np.interp(hours + phase, np.arange(0, 24, 0.5), daily[:SLOTS_PER_DAY],
                          period=24.0)
        noise = gen.normal(0.0, 0.03, n)
        trend = 1.0 + 0.05 * np.sin(2 * np.pi * np.arange(n) / (n + SLOTS_PER_DAY))
        cols.append(level * shape * weekly * trend * (1.0 + noise))
    counts = np.rint(np.maximum(np.column_stack(cols), 0.0))

    # Outliers go into the whole weeks only, at most one per (week, slot,
    # region) group of seven days, so the IQR fences can see every one.
    # In a partial week a group holds too few values to fence anything.
    weeks = n_days // 7
    n_out = int(round(OUTLIER_SHARE * counts.size))
    groups = gen.choice(weeks * SLOTS_PER_DAY * n_regions, size=n_out, replace=False)
    week, rest = np.divmod(groups, SLOTS_PER_DAY * n_regions)
    slot_of, region = np.divmod(rest, n_regions)
    day = 7 * week + gen.integers(0, 7, size=n_out)
    cells = (day * SLOTS_PER_DAY + slot_of) * n_regions + region
    counts.flat[cells] *= gen.uniform(3.0, 6.0, size=n_out)
    counts = np.rint(counts)

    # Keep the first and last rows: they fix the span of the grid.
    n_drop = int(round(DROP_SHARE * n))
    dropped = np.sort(gen.choice(np.arange(1, n - 1), size=n_drop, replace=False))
    return counts.astype(np.int64), dropped, cells


def write_csv(path: Path, n_days: int, seed: int, n_regions: int = 6) -> SynthSummary:
    """Write the synthetic series to ``path``; returns what was injected."""
    counts, dropped, cells = synth_counts(n_days, seed, n_regions)
    n = counts.shape[0]
    stamps = START + np.arange(n) * np.timedelta64(SLOT_SECONDS, "s")
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False
    header = "datetime," + ",".join(f"R{r + 1}" for r in range(n_regions))
    lines = [header]
    for stamp, row in zip(stamps[keep].astype(str), counts[keep].tolist()):
        lines.append(stamp.replace("T", " ") + "," + ",".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return SynthSummary(n_slots=n, n_dropped=int(dropped.size), n_outliers=int(cells.size))
