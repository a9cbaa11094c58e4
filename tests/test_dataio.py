import io
import re

import numpy as np
import pytest

from vropt.dataio import (
    ParseError,
    dumps_libsvm,
    maxabs_scale,
    parse_libsvm,
    subsample,
    write_libsvm,
)
from vropt.problems import synthesize


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
