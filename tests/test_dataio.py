import decimal
import io
import itertools
import math
import os
import re
import threading
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt import dataio
from vropt.dataio import (
    ParseError,
    ParseReport,
    dumps_libsvm,
    maxabs_scale,
    parse_libsvm,
    subsample,
    write_libsvm,
)
from vropt.problems import csr_dataset, synthesize


class TestParse:
    def test_basic_line(self):
        ds, report = parse_libsvm(b"1 1:0.5 3:2.0\n")
        assert ds.n == 1 and ds.d == 3
        assert ds.labels[0] == 1
        idx, val = ds.rows[0]
        assert np.array_equal(idx, [0, 2])
        assert np.array_equal(val, [0.5, 2.0])
        assert report.rows_read == 1 and report.max_index_seen == 3

    def test_zero_one_labels(self):
        ds, _ = parse_libsvm(b"0 2:1\n1 1:1\n")
        assert list(ds.labels) == [-1, 1]

    def test_negative_labels_preserved(self):
        ds, _ = parse_libsvm(b"-1 1:1\n+1 1:2\n")
        assert list(ds.labels) == [-1, 1]

    def test_indices_not_increasing(self):
        with pytest.raises(ParseError, match="indices not increasing") as err:
            parse_libsvm(b"1 3:1 2:1\n")
        assert err.value.line_no == 1

    def test_duplicate_index_rejected(self):
        with pytest.raises(ParseError, match="indices not increasing"):
            parse_libsvm(b"1 2:1 2:5\n")

    def test_malformed_token(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm(b"1 1:1\n1 1:x\n")

    def test_bad_label(self):
        with pytest.raises(ParseError, match="label"):
            parse_libsvm(b"abc 1:1\n")

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label(self, label):
        with pytest.raises(ParseError, match=re.escape(f"line 2: bad label token {label!r}")):
            parse_libsvm(f"1 1:1\n{label} 1:1\n".encode())

    def test_non_finite_value_named_past_comments_and_empty_rows(self):
        text = b"# header\n1 1:0.5\n\n-1\n1 1:1 3:-inf 4:2\n-1 2:nan\n"
        with pytest.raises(ParseError, match=re.escape("bad feature token '3:-inf'")) as err:
            parse_libsvm(text)
        assert err.value.line_no == 5

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty"):
            parse_libsvm(b"")
        with pytest.raises(ParseError, match="empty"):
            parse_libsvm(b"# only a comment\n")

    def test_comments_and_blank_lines_skipped(self):
        ds, report = parse_libsvm(b"# header\n\n1 1:1\n\n0 1:2\n")
        assert ds.n == 2
        assert report.rows_read == 2

    def test_empty_feature_row(self):
        ds, _ = parse_libsvm(b"1 2:1\n-1\n")
        idx, val = ds.rows[1]
        assert idx.size == 0 and val.size == 0

    def test_unusual_label_warns(self):
        _, report = parse_libsvm(b"3.5 1:1\n")
        assert report.warnings and report.warnings[0][0] == 1

    @pytest.mark.parametrize(
        "token, fragment",
        [("1:2:3", "bad feature token '1:2:3'"), ("0:1.0", "feature index 0 below 1"),
         ("1:nan", "bad feature token '1:nan'"), ("1:inf", "bad feature token '1:inf'")],
    )
    def test_feature_token_checks(self, token, fragment):
        with pytest.raises(ParseError, match=re.escape(fragment)) as err:
            parse_libsvm(f"1 1:0.5\n-1 {token}\n".encode())
        assert err.value.line_no == 2

    @pytest.mark.parametrize("index", ["99999999999999999999", "9223372036854775809"])
    def test_index_past_int64_is_a_data_error(self, index):
        text = f"1 1:0.5\n-1 {index}:1\n".encode()
        with pytest.raises(ParseError, match=re.escape(f"bad feature token '{index}:1'")) as err:
            parse_libsvm(text)
        assert err.value.line_no == 2
        # 2**63 itself is still stored, as 2**63 - 1
        ds, report = parse_libsvm(b"1 9223372036854775808:1\n")
        assert ds.indices.tolist() == [2**63 - 1] and report.max_index_seen == 2**63

    def test_accepts_path_and_stream(self, tmp_path):
        path = tmp_path / "toy.libsvm"
        path.write_text("1 1:0.5\n", encoding="utf-8")
        ds1, _ = parse_libsvm(path)
        with open(path, "rb") as fh:
            ds2, _ = parse_libsvm(fh)
        assert np.array_equal(ds1.rows[0][1], ds2.rows[0][1])


class TestWrite:
    def test_empty_row_writes_bare_label(self):
        ds, _ = parse_libsvm(b"1 2:1\n-1\n")
        text = dumps_libsvm(ds)
        assert text.splitlines()[1] == "-1"

    def test_three_line_fixpoint(self):
        src = b"+1 1:0.5 3:2.0\n-1\n0 2:-1.25\n"
        ds1, _ = parse_libsvm(src)
        once = dumps_libsvm(ds1)
        ds2, _ = parse_libsvm(once.encode())
        twice = dumps_libsvm(ds2)
        assert once == twice

    def test_random_round_trip_bit_exact(self):
        ds = synthesize(25, 6, 30.0, seed=0)
        out = dumps_libsvm(ds)
        back, _ = parse_libsvm(out.encode())
        assert back.n == ds.n and back.d == ds.d
        assert np.array_equal(back.labels, ds.labels)
        for (i1, v1), (i2, v2) in zip(ds.rows, back.rows):
            assert np.array_equal(i1, i2)
            assert np.array_equal(v1, v2)

    def test_write_to_path(self, tmp_path):
        ds = synthesize(4, 3, 2.0, seed=1)
        path = tmp_path / "out.libsvm"
        write_libsvm(ds, path)
        back, _ = parse_libsvm(path)
        assert back.n == 4

    def test_write_to_text_stream(self):
        ds = synthesize(3, 2, 1.0, seed=2)
        buf = io.StringIO()
        write_libsvm(ds, buf)
        assert buf.getvalue().count("\n") == 3


class TestSubsample:
    def test_identity_when_keeping_all(self):
        ds = synthesize(10, 3, 2.0, seed=3)
        assert subsample(ds, 10, seed=0) is ds

    def test_deterministic(self):
        ds = synthesize(30, 3, 2.0, seed=4)
        a = subsample(ds, 7, seed=5)
        b = subsample(ds, 7, seed=5)
        assert np.array_equal(a.labels, b.labels)
        for (i1, v1), (i2, v2) in zip(a.rows, b.rows):
            assert np.array_equal(v1, v2)

    def test_order_preserved_and_dimension_kept(self):
        ds = synthesize(30, 3, 2.0, seed=6)
        sub = subsample(ds, 5, seed=7)
        assert sub.d == ds.d and sub.n == 5
        originals = [tuple(v) for _, v in ds.rows]
        positions = [originals.index(tuple(v)) for _, v in sub.rows]
        assert positions == sorted(positions)

    def test_range_errors(self):
        ds = synthesize(5, 2, 1.0, seed=8)
        with pytest.raises(ValueError):
            subsample(ds, 0, seed=0)
        with pytest.raises(ValueError):
            subsample(ds, 6, seed=0)

    def test_row_frequencies(self):
        ds = synthesize(10, 2, 1.0, seed=9)
        n_keep, trials = 4, 10_000
        counts = np.zeros(10)
        marker = [v[0] for _, v in ds.rows]
        for t in range(trials):
            sub = subsample(ds, n_keep, seed=t)
            for _, v in sub.rows:
                counts[marker.index(v[0])] += 1
        freq = counts / trials
        target = n_keep / 10
        sigma = np.sqrt(target * (1 - target) / trials)
        assert np.all(np.abs(freq - target) <= 3 * sigma + 1e-9)


def test_maxabs_scale():
    ds, _ = parse_libsvm(b"1 1:4 2:-8\n-1 1:-2\n")
    scaled = maxabs_scale(ds)
    assert np.array_equal(scaled.rows[0][1], [1.0, -1.0])
    assert np.array_equal(scaled.rows[1][1], [-0.5])


# CRLF line ends with a comment and a row without features; rows without
# features first and last
_CRLF = b"# header 1:1\r\n1 1:0.5 3:1e-05\r\n-1\r\n+1 2:2.5E+3\r\n"
_EMPTY_ROWS = b"-1\n1 2:3 5:-0.25\n0 1:1.5\n1\n"


@pytest.mark.parametrize("build", [
    lambda: parse_libsvm(_CRLF)[0],
    lambda: parse_libsvm(_EMPTY_ROWS)[0],
    lambda: parse_libsvm(dumps_libsvm(synthesize(40, 6, 5.0, seed=2)).encode())[0],
    lambda: subsample(parse_libsvm(_EMPTY_ROWS)[0], 3, seed=1),
    lambda: subsample(synthesize(30, 4, 3.0, seed=5), 11, seed=6),
    lambda: maxabs_scale(parse_libsvm(_EMPTY_ROWS)[0]),
    lambda: maxabs_scale(synthesize(20, 3, 8.0, seed=7)),
    lambda: synthesize(25, 4, 10.0, seed=8),
    lambda: synthesize(1, 1, 1.0, seed=9),
], ids=["parse-crlf", "parse-empty-rows", "parse-written", "subsample-parsed",
        "subsample-synthetic", "maxabs-parsed", "maxabs-synthetic", "synthesize",
        "synthesize-one"])
def test_builders_make_what_csr_dataset_checks(build):
    # the parser and the builders freeze their arrays unchecked: the result
    # is csr_dataset's of the same arrays, float64 labels, every array read-only
    ds = build()
    want = csr_dataset(ds.indptr, ds.indices, ds.data, ds.labels, ds.d)
    assert (ds.n, ds.d) == (want.n, want.d)
    for name in ("indptr", "indices", "data", "labels"):
        got, ref = getattr(ds, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert not got.flags.writeable
    assert ds.labels.dtype == np.float64


# The parser's former line-by-line loop, kept verbatim as the reference the
# vectorised scan is checked against (only the names of its helpers differ).

def _reference_read_text(source) -> str:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            source = fh.read()
    data = source if isinstance(source, bytes) else source.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"not UTF-8 text ({exc.reason})") from None


def reference_parse_libsvm(source):
    report = ParseReport()
    indptr = [0]
    indices = array("q")
    values = array("d")
    labels = []
    # entries go straight into flat arrays; the lines are dropped before the
    # dataset is built
    lines = _reference_read_text(source).splitlines()
    for line_no, raw in enumerate(lines, start=1):
        if raw.startswith("#"):
            continue
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label token {tokens[0]!r}") from None
        if label not in (-1.0, 0.0, 1.0):
            if not math.isfinite(label):
                raise ParseError(line_no, f"bad label token {tokens[0]!r}")
            report.warnings.append(
                (line_no, f"unusual label {tokens[0]} mapped to {'+1' if label > 0 else '-1'}")
            )
        labels.append(1 if label > 0.0 else -1)
        prev = 0
        for tok in tokens[1:]:
            part = tok.split(":")
            if len(part) != 2:
                raise ParseError(line_no, f"bad feature token {tok!r}")
            try:
                j = int(part[0])
                x = float(part[1])
            except ValueError:
                raise ParseError(line_no, f"bad feature token {tok!r}") from None
            if j < 1:
                raise ParseError(line_no, f"feature index {j} below 1")
            if j <= prev:
                raise ParseError(line_no, "indices not increasing")
            prev = j
            indices.append(j - 1)
            values.append(x)
        report.max_index_seen = max(report.max_index_seen, prev)
        indptr.append(len(indices))
    if not labels:
        raise ParseError(0, "empty file: no examples found")
    values = np.frombuffer(values)
    if not np.isfinite(values).all():
        raise _reference_non_finite_value(lines, indptr, values)
    del lines
    report.rows_read = len(labels)
    dataset = csr_dataset(
        indptr, np.frombuffer(indices, dtype=np.int64), values, labels,
        d=report.max_index_seen,
    )
    return dataset, report


def _reference_non_finite_value(lines: list, indptr: list, values: np.ndarray) -> ParseError:
    entry = int(np.isfinite(values).argmin())
    row = int(np.searchsorted(indptr, entry, side="right")) - 1
    data_lines = (no for no, raw in enumerate(lines, start=1)
                  if not raw.startswith("#") and raw.strip())
    line_no = next(itertools.islice(data_lines, row, None))
    token = lines[line_no - 1].split()[1 + entry - indptr[row]]
    return ParseError(line_no, f"bad feature token {token!r}")


def outcome(parse, source):
    """What a parse gives, in a form that compares values by their bits; an
    index past int64 (the reference's OverflowError) reads as one outcome."""
    if isinstance(source, str):
        source = io.StringIO(source)
    try:
        ds, report = parse(source)
    except ParseError as err:
        if str(err).endswith("index past int64"):
            return ("past int64",)
        return ("error", err.line_no, str(err))
    except OverflowError:
        return ("past int64",)
    return ("ok", ds.indptr.tolist(), ds.indices.tolist(), ds.data.view(np.int64).tolist(),
            ds.labels.tolist(), ds.n, ds.d, report)


def _unicode_digits(text: str) -> str:
    return text.translate({ord("0") + i: 0x0660 + i for i in range(10)})


NUMBER_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.6f}"),
    st.floats().map(lambda x: f"{x:.17g}"),
    st.floats().map(lambda x: f"{x:.19e}"),
    st.integers(0, 10**20).map(str),
    # 14-20 digit mantissas with a '.' anywhere
    st.tuples(st.integers(10**13, 10**20), st.integers(0, 20)).map(
        lambda t: (str(t[0])[:t[1]] + "." + str(t[0])[t[1]:]).strip(".") or "0"),
    st.sampled_from([
        "-0.0", "0", "-0", "+0.5", "5e-324", "2.2250738585072014e-308", "1e308", "1e309",
        "nan", "-inf", "inf", "NaN", "Infinity", "1_0.5", "1__0", ".5", "5.", "-.5", ".", "1.2.3",
        "1e-05", "-1.193358", "1E5", "0.1234567890123456789", "", "x", "1e", "--1", "+-1",
        "0.000000000000001", "999999999999999", "9999999999999999", "٣.٥", "٣", "1\x00",
    ]),
)
SIGNED = st.tuples(st.sampled_from(["", "", "", "-", "+"]), NUMBER_TEXT).map("".join)
LABEL = st.one_of(
    st.sampled_from(["1", "-1", "+1", "0", "1", "-1", "+1", "0"]),
    st.sampled_from(["-0", "1.0", "3.5", "-2", "1e0", "+1e-0", "١", "1_0", "nan", "inf",
                     "-inf", "abc", "#", "1:1", "0x1", ".5", "5.", "-", "+", "﻿1"]),
    SIGNED,
)
ODD_INDEX = st.sampled_from([
    "0", "00", "-3", "+3", "03", "1_0", "٣", "", "x", "2.0", "99999999999999999999",
    "9223372036854775807", "9223372036854775808", "9223372036854775809", "12345678901234567",
])
ODD_TOKEN = st.sampled_from(["1:2:3", "3", ":", "1:", ":1", "1::2", "#", "1:1:"])
SEPARATOR = st.sampled_from([" ", " ", " ", "\t", "  ", " \t ", "\x1f", "\xa0", " "])
LINE_END = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                            "\x85", " ", " "])


@st.composite
def libsvm_row(draw):
    """A row that is mostly well formed: increasing indices, finite values,
    and now and then an odd label, index, value or token."""
    clean = draw(st.integers(0, 5)) > 0
    label = draw(st.sampled_from(["1", "-1", "+1", "0"]) if clean else LABEL)
    cols = sorted(draw(st.sets(st.integers(1, 2000), max_size=6)))
    tokens = [label]
    for j in cols:
        if clean:
            tokens.append(f"{j}:{draw(st.floats(-1e3, 1e3).map(repr))}")
            continue
        kind = draw(st.integers(0, 5))
        index = draw(ODD_INDEX) if kind == 0 else str(j)
        value = draw(SIGNED) if kind == 1 else draw(st.floats(-9.0, 9.0).map(repr))
        token = draw(ODD_TOKEN) if kind == 2 else f"{index}:{value}"
        tokens.append(_unicode_digits(token) if kind == 3 else token)
    if not clean and draw(st.booleans()):
        tokens.append(tokens[-1])                       # a repeated index
    pieces = [draw(st.sampled_from(["", "", " ", "\t", "\xa0"]))]
    for tok in tokens:
        pieces += [tok, draw(SEPARATOR)]
    pieces[-1] = draw(st.sampled_from(["", "", " ", "\t"]))
    return "".join(pieces)


OTHER_LINE = st.sampled_from(["", "  ", "\t", "-1", "+1 ", "# a comment 1:2", "#", "#1 2:3", "##"])
HASH_NOT_FIRST = st.sampled_from([" # 1:1", "\t#x", "1 #"])     # a bad token
LINE = st.integers(0, 39).flatmap(
    lambda r: libsvm_row() if r < 32 else OTHER_LINE if r < 39 else HASH_NOT_FIRST)


@st.composite
def libsvm_text(draw):
    """Text of up to 12 lines with assorted line ends: bytes, now and then
    with a byte that is not UTF-8, or a str as a text stream reads it."""
    lines = draw(st.lists(st.tuples(LINE, LINE_END), max_size=12))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text[:-len(lines[-1][1])]                # no line end after the last line
    kind = draw(st.sampled_from(["bytes"] * 8 + ["bad byte", "str"]))
    if kind == "str":
        return text
    data = text.encode("utf-8")
    if kind == "bad byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


DIFFERENTIAL = settings(max_examples=400, deadline=None, derandomize=True, database=None)


class TestParseAgainstReference:
    @DIFFERENTIAL
    @given(libsvm_text())
    def test_random_texts(self, source):
        assert outcome(parse_libsvm, source) == outcome(reference_parse_libsvm, source)

    @settings(DIFFERENTIAL, max_examples=100)
    @given(libsvm_text())
    def test_chunk_length_changes_nothing(self, source):
        want = outcome(parse_libsvm, source)
        for chunk in (1, 7, 64):
            with mock.patch.object(dataio, "CHUNK_BYTES", chunk):
                assert outcome(parse_libsvm, source) == want

    def test_many_chunks(self):
        """A text of many default-length chunks, with every kind of line."""
        rng = np.random.default_rng(0)
        ds = synthesize(1000, 60, 30.0, seed=3)
        rows = dumps_libsvm(ds).splitlines()
        extra = ["# comment 1:2", "", "-1", " \t", "+1 3:1e-05 7:2.5E+3 9:-0.0 11:5e-324"]
        lines = [rows[i] if i < len(rows) else extra[i % len(extra)]
                 for i in rng.permutation(len(rows) + 200)]
        text = "\r\n".join(lines).encode()
        assert len(text) > 4 * dataio.CHUNK_BYTES
        assert outcome(parse_libsvm, text) == outcome(reference_parse_libsvm, text)
        with_nan = text + b"\r\n1 1:1 2:nan\r\n1 0:1"
        assert outcome(parse_libsvm, with_nan) == outcome(reference_parse_libsvm, with_nan)
        assert outcome(parse_libsvm, with_nan)[:2] == ("error", len(lines) + 2)


def helpers(count: int):
    """Scan with ``count`` helper threads besides the calling one."""
    return mock.patch.object(dataio, "_cpus", return_value=count + 1)


class TestParallelScan:
    @settings(DIFFERENTIAL, max_examples=100)
    @given(libsvm_text())
    def test_helper_count_changes_nothing(self, source):
        want = outcome(parse_libsvm, source)
        for chunk, count in itertools.product((1, 7, 64), (0, 1, 3)):
            with mock.patch.object(dataio, "CHUNK_BYTES", chunk), helpers(count):
                assert outcome(parse_libsvm, source) == want

    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("text, line, message", [
        # malformed tokens in two chunks of two lines each: the earlier one
        # is the error, whether this thread or a helper scans either chunk
        (b"1 1:1\n" * 20 + b"1 1:x\n" + b"1 1:1\n" * 22 + b"1 0:1\n", 21, "bad feature token '1:x'"),
        (b"1 1:1\n" * 22 + b"1 1:x\n" + b"1 1:1\n" * 18 + b"1 0:1\n", 23, "bad feature token '1:x'"),
        # a nan in an early chunk and a malformed token in a later one
        (b"1 1:nan\n" + b"1 1:1\n" * 30 + b"1 2:1 1:1\n", 32, "indices not increasing"),
        (b"1 1:1\n" * 3 + b"1 1:inf\n" + b"1 1:1\n" * 4 + b"x 1:1\n", 9, "bad label token 'x'"),
    ], ids=["two-malformed", "two-malformed-later", "nan-then-malformed", "inf-then-malformed"])
    def test_first_bad_token_in_file_order(self, count, text, line, message):
        with mock.patch.object(dataio, "CHUNK_BYTES", 16), helpers(count):
            got = outcome(parse_libsvm, text)
        assert got == ("error", line, f"line {line}: {message}")
        assert got == outcome(reference_parse_libsvm, text)

    def test_threads_end_with_the_call(self):
        text = b"".join(b"1 1:%d 3:0.5\n" % i for i in range(200))
        seen = set()
        scan = dataio._scan_span

        def recording(*args):
            seen.add(threading.current_thread().name)
            return scan(*args)

        before = threading.active_count()
        with mock.patch.object(dataio, "_scan_span", recording):
            for chunk, count in ((1 << 20, 3), (64, 0), (64, 3)):
                seen.clear()
                with mock.patch.object(dataio, "CHUNK_BYTES", chunk), helpers(count):
                    parse_libsvm(text)
                    with pytest.raises(ParseError):
                        parse_libsvm(text + b"1 1:x\n" + text)
                assert threading.active_count() == before
                helped = seen - {threading.main_thread().name}
                if chunk > len(text) or not count:
                    assert not helped       # one chunk, or one CPU: no thread starts
                else:
                    assert 1 <= len(helped) <= count

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_late_chunk_line_numbers(self, count):
        """Warnings and the first nan or inf value keep their line in the
        file when a later chunk holds them."""
        rows = b"# comment\n" + b"1 1:1 2:0.5\n" * 30 + b"\n" + b"3 1:1\n" + b"1 1:1\n" * 20
        text = rows + b"-2.5 2:1\n" + b"1 1:1\n" * 5                # lines 33 and 54
        with_inf = text + b"1 1:1 2:inf\n" + b"1 1:1\n" * 9 + b"1 1:nan\n"   # lines 60, 70
        with mock.patch.object(dataio, "CHUNK_BYTES", 64), helpers(count):
            got, bad = outcome(parse_libsvm, text), outcome(parse_libsvm, with_inf)
        assert got[-1].warnings == [(33, "unusual label 3 mapped to +1"),
                                    (54, "unusual label -2.5 mapped to -1")]
        assert bad == ("error", 60, "line 60: bad feature token '2:inf'")
        assert (got, bad) == (outcome(reference_parse_libsvm, text),
                              outcome(reference_parse_libsvm, with_inf))

    # One parse's traced peak above its start, per byte of a text shaped like
    # the benchmark's (16 entries per row, indices below 2000, values of six
    # decimals), 4.3 chunks long.  Measured (numpy 2.4, 2-vCPU VM): 4.17
    # serial, and 5.2-6.2 with one helper, whose scan may overlap this
    # thread's, so that two chunks' temporaries (3.3 each) are live at once.
    @pytest.mark.parametrize("count, budget", [(0, 4.5), (1, 8.0)])
    def test_peak_memory_per_file_byte(self, count, budget):
        rng = np.random.default_rng(5)
        n, k = 5000, 16
        cols = np.sort(rng.integers(0, 2000 - k + 1, size=(n, k)), axis=1) + np.arange(k)
        ds = csr_dataset(np.arange(0, n * k + 1, k), cols.ravel(),
                         np.round(rng.standard_normal(n * k), 6), rng.choice([-1, 1], n), d=2000)
        text = dumps_libsvm(ds).encode()
        assert len(text) > 4 * dataio.CHUNK_BYTES
        with helpers(count):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                parse_libsvm(text)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peak <= budget * len(text)


def _near_midpoint(x: float, digits: int, rounding: str) -> str:
    """The midpoint between x and the next double up, rounded to ``digits``
    significant digits: a decimal that float() has to round with care."""
    exact = decimal.Context(prec=800)
    mid = exact.add(decimal.Decimal(x), exact.divide(
        exact.subtract(decimal.Decimal(math.nextafter(x, math.inf)), decimal.Decimal(x)), 2))
    return format(decimal.Context(prec=digits, rounding=rounding).plus(mid), "f")


LONG_VALUE = st.one_of(
    st.floats(0.0, allow_infinity=False).map(repr),
    st.tuples(st.floats(1e-4, 1e17), st.integers(15, 19),
              st.sampled_from([decimal.ROUND_DOWN, decimal.ROUND_UP, decimal.ROUND_HALF_EVEN])
              ).map(lambda t: _near_midpoint(*t)),
    # digits strings with a '.' anywhere and leading zeros
    st.tuples(st.integers(0, 10**19), st.integers(0, 3), st.integers(0, 22)).map(
        lambda t: (lambda d: d[:t[2]] + "." + d[t[2]:])("0" * t[1] + str(t[0]))),
    st.integers(2**51, 2**53).map(lambda n: f"{n}.5"),
    st.integers(2**50, 2**52).map(lambda n: f"{n}.{n % 4 * 25:02d}"),
)


# 1-digit and 16-digit plain indices, 1-byte and 15-digit values: rows of
# only the short ones, only the long ones, or both, so that chunks and the
# windows they read through differ in width
MIXED_INDEX = {"short": st.integers(1, 9), "long": st.integers(10**15, 10**16 - 1)}
MIXED_VALUE = {
    "short": st.sampled_from("0123456789"),
    "long": st.one_of(
        st.integers(10**14, 10**15 - 1).map(str),
        st.tuples(st.integers(10**14, 10**15 - 1), st.integers(0, 15)).map(
            lambda t: str(t[0])[:t[1]] + "." + str(t[0])[t[1]:])),
}


@st.composite
def mixed_width_row(draw):
    kinds = draw(st.sampled_from([["short"], ["long"], ["short", "long"]]))
    cols = sorted(draw(st.sets(st.one_of(*(MIXED_INDEX[kind] for kind in kinds)), max_size=5)))
    tokens = [draw(st.sampled_from(["1", "-1", "+1", "0", "3"]))]
    for j in cols:
        value = draw(st.one_of(*(MIXED_VALUE[kind] for kind in kinds)))
        tokens.append(f"{j}:{draw(st.sampled_from(['', '-', '+']))}{value}")
    return " ".join(tokens)


class TestWindows:
    @settings(DIFFERENTIAL, max_examples=100)
    @given(st.lists(mixed_width_row(), min_size=1, max_size=12))
    def test_mixed_widths(self, rows):
        text = "".join(row + "\n" for row in rows).encode()
        want = outcome(reference_parse_libsvm, text)
        for chunk, count in itertools.product((1, 64, dataio.CHUNK_BYTES), (0, 1, 3)):
            with mock.patch.object(dataio, "CHUNK_BYTES", chunk), helpers(count):
                assert outcome(parse_libsvm, text) == want


class TestLongValues:
    """Values of 16 to 18 significant digits are read vectorised, with an
    exact correction to the double float() gives."""

    @pytest.mark.parametrize("value", [
        "4503599627370496.5", "4503599627370497.5", "2251799813685248.25",
        "2251799813685248.75", "9007199254740991.5", "-0.10971600959702935",
        "0.30000000000000004", "1.0000000000000002", "1.00000000000000011", "0.99999999999999994",
        "0.50000000000000000", "4.0000000000000001", "3.9999999999999999", "9007199254740993",
        "123456789012345678", "0.000123456789012345678", "0.000000000000000001",
        "1.7976931348623157", "00000000000000000000000000.1234", "-.123456789012345678",
        "9.999999999999999999", "99999999.99999999999", "100000000000000000000000000000000.5",
        "-0.000000000000000000000000000000005",
    ])
    def test_bits_equal_float(self, value):
        ds, _ = parse_libsvm(f"1 1:{value}\n".encode())
        assert ds.data.view(np.int64)[0] == np.float64(float(value)).view(np.int64)

    @settings(deadline=None, max_examples=60, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(["", "-", "+"]), LONG_VALUE).map("".join),
                    min_size=1, max_size=300))
    def test_random_values(self, values):
        text = "".join(f"1 1:{v}\n" for v in values).encode()
        ds, _ = parse_libsvm(text)
        want = np.array([float(v) for v in values])
        assert np.array_equal(ds.data.view(np.int64), want.view(np.int64))
