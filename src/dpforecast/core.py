"""Numeric building blocks: seedable random streams and stable helpers.

All tensors in this package are plain ``numpy.ndarray`` objects with
``float64`` entries; counts, privacy budgets, and Renyi exponents span
enough orders of magnitude that 32-bit floats would be unsafe.

Every text file a command reads goes through :func:`read_text`, as every
artifact it writes goes through :func:`write_csv` or :func:`write_json`,
so the file formats are stated once.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_MIX64 = 0x9E3779B97F4A7C15  # splitmix64 increment, used to derive child ids


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by ``(seed, stream)``.

    The same pair always yields the same sample sequence, on every
    platform, because the underlying Philox generator is counter-based.
    Distinct stream ids give statistically independent streams; concurrent
    users must hold distinct ids (a contract, not a runtime check).
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        # A uint64 array: from a list, numpy would make a key with one part of
        # 2**63 or more and one below it float64, and round it.
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derive an independent stream; distinct indices give distinct streams."""
        mixed = (self.stream * _MIX64 + 1 + index) & _MASK64
        return RngStream(self.seed, mixed)


def gaussian_sample(shape: Sequence[int], sigma: float, rng: RngStream) -> np.ndarray:
    """N(0, sigma^2) i.i.d. samples of the given shape.

    Implemented as ``sigma * z`` with standard-normal ``z``, so samples at
    scale ``s`` are exactly ``s`` times the samples at scale 1 for the same
    stream. ``sigma == 0`` returns exact zeros.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    z = rng.generator().standard_normal(size=tuple(shape))
    return sigma * z


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float
) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x``.

    Per coordinate i: ``(f(x + h e_i) - f(x - h e_i)) / (2h)``. Raises if
    ``f`` evaluates non-finite at any probe point.
    """
    x = np.asarray(x, dtype=np.float64)
    work = x.copy()
    flat = work.ravel()
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(work))
        flat[i] = orig - h
        fm = float(f(work))
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape)


def logsumexp(xs: Sequence[float]) -> float:
    """ln sum(exp(x_i)), shift-stabilized so huge exponents cannot overflow."""
    xs = list(xs)
    if not xs:
        raise ValueError("logsumexp of an empty list")
    m = max(xs)
    if math.isinf(m) and m < 0:
        return float("-inf")
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def read_text(path) -> str:
    """The file's UTF-8 text less one leading U+FEFF; a ValueError names a bad byte's offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 CSV lines ending in CRLF.

    Cells are written as ``csv.writer`` writes them: ``None`` empty, any
    other value as its ``str``. Callers pass floats as ``repr`` text.

    There are two branches, and they write the same bytes. When every cell
    is a ``str`` that needs no quoting (see :func:`_plain_text`), the file
    is the rows joined with ``","`` and ``"\\r\\n"``; otherwise it is
    written through ``csv.writer``.
    """
    lines = [header, *rows]
    text = _plain_text(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if text is None:
            csv.writer(fh).writerows(lines)
        else:
            fh.write(text)


def _plain_text(lines: list) -> str | None:
    """``lines`` as CSV text joined in C, or None where ``csv.writer`` is needed.

    None when a cell is not a ``str``, a line has fewer than two cells
    (``csv.writer`` quotes a lone empty cell), or a cell holds ``,``,
    ``"``, ``\\r``, ``\\n`` or NUL (which ``csv.writer`` refuses before
    Python 3.11). The last is read off the joined text: a cell holds none
    of them exactly when the text has no quote and no NUL, one comma fewer
    than cells on each line, and one CR and one LF per line.
    """
    try:
        widths = list(map(len, lines))
        text = "\r\n".join(map(",".join, lines)) + "\r\n"
    except TypeError:  # a cell that is not a str, or a line that is not a sequence
        return None
    n = len(lines)
    if (min(widths) < 2 or '"' in text or "\0" in text
            or text.count(",") != sum(widths) - n
            or text.count("\r") != n or text.count("\n") != n):
        return None
    return text


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON indented by 2 with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
