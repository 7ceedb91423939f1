"""Numeric-core operations checked against independent oracles."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpforecast import (
    RngStream,
    finite_diff_grad,
    gaussian_sample,
    logsumexp,
)
from dpforecast import core
from dpforecast.core import write_csv, write_json

from reference import log_binomial


class TestRngStream:
    def test_same_pair_is_bitwise_identical(self):
        a = gaussian_sample([64], 1.0, RngStream(42, 0))
        b = gaussian_sample([64], 1.0, RngStream(42, 0))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = gaussian_sample([64], 1.0, RngStream(42, 0))
        b = gaussian_sample([64], 1.0, RngStream(42, 1))
        assert not np.array_equal(a, b)

    def test_child_streams_are_distinct(self):
        base = RngStream(7, 3)
        kids = {base.child(i) for i in range(100)}
        assert len(kids) == 100
        assert base not in kids

    @pytest.mark.parametrize("streams", [
        [RngStream(-1), RngStream(-2), RngStream(0)],
        [RngStream(-1).child(1), RngStream(-2).child(1), RngStream(0).child(1)],
        [RngStream(0, 2**63 + 1), RngStream(0, 2**63 + 2)],
    ], ids=["negative-seeds", "their-children", "large-stream-ids"])
    def test_keys_with_one_part_past_2_63_stay_exact(self, streams):
        # Each part of the Philox key is a full 64-bit word; none is rounded.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {gaussian_sample([4], 1.0, rng).tobytes() for rng in streams}
        assert len(draws) == len(streams)


class TestGaussianSample:
    def test_zero_sigma_gives_exact_zeros(self):
        t = gaussian_sample([3], 0.0, RngStream(1))
        assert t.shape == (3,)
        assert np.all(t == 0.0)

    def test_moments_over_a_million_draws(self):
        # Law of large numbers: mean within 0.01, variance within 1% of 4.
        t = gaussian_sample([10**6], 2.0, RngStream(2024))
        assert abs(t.mean()) < 0.01
        assert abs(t.var() - 4.0) < 0.04

    def test_scale_property_is_exact(self):
        unit = gaussian_sample([100], 1.0, RngStream(5, 9))
        scaled = gaussian_sample([100], 2.5, RngStream(5, 9))
        assert np.array_equal(scaled, 2.5 * unit)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_sample([2], -0.1, RngStream(0))


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        g = finite_diff_grad(lambda t: float(np.sum(t * t)), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        g = finite_diff_grad(lambda t: 3.5, np.array([0.3, -0.2, 7.0]), 1e-5)
        np.testing.assert_allclose(g, 0.0, atol=1e-9)

    def test_mae_of_linear_model_matches_hand_subgradient(self):
        # y_hat = a*x + b on points (1,2), (2,1), (3,5) at (a,b) = (1,0):
        # residual signs are (-,+,-), so dMAE/da = (-1+2-3)/3, dMAE/db = -1/3.
        xs = np.array([1.0, 2.0, 3.0])
        ys = np.array([2.0, 1.0, 5.0])

        def loss(theta):
            return float(np.mean(np.abs(theta[0] * xs + theta[1] - ys)))

        g = finite_diff_grad(loss, np.array([1.0, 0.0]), 1e-5)
        np.testing.assert_allclose(g, [-2.0 / 3.0, -1.0 / 3.0], atol=1e-9)

    def test_nonfinite_function_raises(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: float("nan"), np.array([1.0]), 1e-5)


class TestLogBinomial:
    def test_small_exact(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10), abs=1e-12)

    def test_k_zero(self):
        assert log_binomial(512, 0) == pytest.approx(0.0, abs=1e-12)

    def test_against_big_integer_oracle(self):
        expected = math.log(math.comb(512, 256))
        assert log_binomial(512, 256) == pytest.approx(expected, rel=1e-9)

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)


class TestLogSumExp:
    def test_pair_of_zeros(self):
        assert logsumexp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_huge_inputs_shift(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2), abs=1e-9)

    def test_against_naive_sum(self):
        gen = np.random.default_rng(3)
        xs = gen.uniform(-10, 10, 50).tolist()
        naive = math.log(sum(math.exp(x) for x in xs))
        assert logsumexp(xs) == pytest.approx(naive, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp([])

    @pytest.mark.parametrize("xs", [[-math.inf], [-math.inf, -math.inf]])
    def test_all_minus_infinity_is_minus_infinity(self, xs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logsumexp(xs) == -math.inf

    @given(st.floats(-100, 100))
    def test_shift_invariance(self, c):
        xs = [0.3, -1.2, 4.0]
        shifted = logsumexp([x + c for x in xs])
        assert shifted == pytest.approx(logsumexp(xs) + c, rel=1e-12, abs=1e-12)


# Text that csv.writer quotes, or (NUL) that Python 3.10's csv.writer refuses.
_QUOTED = st.sampled_from([",", '"', "\r", "\n", "\r\n", "\0", "a,b", 'say "x"'])
# Surrogates are excluded: no UTF-8 file can hold them, whichever branch writes it.
_PLAIN = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=',"\r\n\0'),
                 max_size=6)
_STR_CELLS = _PLAIN | _QUOTED
_CELLS = st.one_of(
    _PLAIN, _QUOTED, st.text(max_size=4), st.just(""), st.none(), st.integers(),
    st.floats(), st.text(st.sampled_from("é€𝔘 \t"), max_size=3),
)


def _csv_writer_outcome(header, rows):
    """The bytes ``csv.writer`` writes for the header and rows, or its error's type."""
    buffer = io.StringIO(newline="")
    try:
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
    except csv.Error as exc:
        return type(exc)
    return buffer.getvalue().encode("utf-8")


def _write_csv_outcome(path, header, rows, as_generator):
    try:
        write_csv(path, header, (row for row in rows) if as_generator else rows)
    except csv.Error as exc:
        return type(exc)
    return path.read_bytes()


class TestArtifactWriters:
    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "value", "note"],
                  iter([["a", repr(0.1), None], ["b,c", repr(1e-07), 3]]))
        assert path.read_bytes() == b'name,value,note\r\na,0.1,\r\n"b,c",1e-07,3\r\n'

    @settings(max_examples=300, deadline=None)
    @given(header=st.lists(_CELLS, max_size=4),
           rows=st.lists(st.lists(_CELLS, max_size=4) | st.tuples(_CELLS, _CELLS), max_size=5),
           as_generator=st.booleans())
    def test_csv_bytes_are_csv_writers(self, tmp_path_factory, header, rows, as_generator):
        # Empty and single-cell rows, quoted text and non-str cells: mostly csv.writer's branch.
        path = tmp_path_factory.getbasetemp() / "write_csv.csv"
        assert _write_csv_outcome(path, header, rows, as_generator) == _csv_writer_outcome(
            header, rows)

    @settings(max_examples=300, deadline=None)
    @given(header=st.lists(_STR_CELLS, min_size=2, max_size=4),
           rows=st.lists(st.lists(_STR_CELLS, min_size=2, max_size=4), min_size=1, max_size=5))
    def test_str_rows_of_two_or_more_cells_are_csv_writers(self, tmp_path_factory, header,
                                                            rows):
        # Where the branches part: one cell that needs quoting sends the file to csv.writer.
        path = tmp_path_factory.getbasetemp() / "write_csv.csv"
        assert _write_csv_outcome(path, header, rows, False) == _csv_writer_outcome(
            header, rows)

    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(_PLAIN, min_size=2, max_size=4),
           rows=st.lists(st.lists(_PLAIN, min_size=2, max_size=4), max_size=5),
           as_generator=st.booleans())
    def test_plain_csv_bytes_are_csv_writers(self, tmp_path_factory, header, rows,
                                             as_generator):
        # Rows of two or more str cells that need no quoting: the join branch.
        assert core._plain_text([header, *rows]) is not None
        path = tmp_path_factory.getbasetemp() / "write_csv.csv"
        assert _write_csv_outcome(path, header, rows, as_generator) == _csv_writer_outcome(
            header, rows)

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": [1, 0.1], "a": {"z": None, "y": float("nan")}})
        assert path.read_bytes() == (
            b'{\n  "a": {\n    "y": NaN,\n    "z": null\n  },\n'
            b'  "b": [\n    1,\n    0.1\n  ]\n}\n'
        )


class TestReadText:
    def test_drops_exactly_one_byte_order_mark(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa,b\r\n")
        assert core.read_text(path) == "\ufeffa,b\r\n"

    def test_keeps_line_endings(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\r\nb\rc\n")
        assert core.read_text(path) == "a\r\nb\rc\n"

    @pytest.mark.parametrize("data, named", [
        (b"ab\xff", "invalid start byte at byte 2"),
        (b"\xef\xbb\xbfab\xff", "invalid start byte at byte 5"),
        (b"\xef\xbb\xbf" + b"x" * 9000 + b"\xc3(", "invalid continuation byte at byte 9003"),
    ], ids=["plain", "after-bom", "past-8-kib"])
    def test_bad_byte_is_named_by_its_file_offset(self, tmp_path, data, named):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            core.read_text(path)
        assert str(info.value) == f"not UTF-8 text ({named})"
        assert type(info.value) is ValueError

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=40) | st.text(max_size=20).map(str.encode))
    def test_reads_what_utf8_sig_decodes(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "read_text.txt"
        path.write_bytes(data)
        try:
            expected = data.decode("utf-8-sig")
        except UnicodeDecodeError:
            with pytest.raises(ValueError, match="^not UTF-8 text "):
                core.read_text(path)
        else:
            assert core.read_text(path) == expected
