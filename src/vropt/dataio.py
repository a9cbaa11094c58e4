"""LIBSVM text-format ingestion, writing, and deterministic subsampling."""

from __future__ import annotations

import io
import itertools
import math
import os
from array import array
from dataclasses import dataclass, field

import numpy as np

from .common import ParseError
from .problems import Dataset, csr_dataset


@dataclass
class ParseReport:
    rows_read: int = 0
    max_index_seen: int = 0
    warnings: list = field(default_factory=list)


def _read_text(source) -> str:
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


def parse_libsvm(source) -> tuple[Dataset, ParseReport]:
    """Parse LIBSVM text: one `<label> <idx>:<val> ...` example per line.

    Indices are 1-based and strictly increasing within a line (stored
    0-based).  Labels map to {-1,+1} via label > 0 -> +1, else -1, so
    {0,1}-labeled files come out right.  Lines starting with '#' are
    comments.  The feature dimension is the largest index seen.
    """
    report = ParseReport()
    indptr = [0]
    indices = array("q")
    values = array("d")
    labels = []
    # entries go straight into flat arrays; the lines are dropped before the
    # dataset is built
    lines = _read_text(source).splitlines()
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
        raise _non_finite_value(lines, indptr, values)
    del lines
    report.rows_read = len(labels)
    dataset = csr_dataset(
        indptr, np.frombuffer(indices, dtype=np.int64), values, labels,
        d=report.max_index_seen,
    )
    return dataset, report


def _non_finite_value(lines: list, indptr: list, values: np.ndarray) -> ParseError:
    """The error naming the line and token of the first of ``values`` that
    parsed as nan or inf."""
    entry = int(np.isfinite(values).argmin())
    row = int(np.searchsorted(indptr, entry, side="right")) - 1
    data_lines = (no for no, raw in enumerate(lines, start=1)
                  if not raw.startswith("#") and raw.strip())
    line_no = next(itertools.islice(data_lines, row, None))
    token = lines[line_no - 1].split()[1 + entry - indptr[row]]
    return ParseError(line_no, f"bad feature token {token!r}")


def write_libsvm(dataset: Dataset, sink) -> None:
    """Write LIBSVM text that parses back bit-exactly (shortest float repr)."""
    own = False
    if isinstance(sink, (str, os.PathLike)):
        fh = open(sink, "w", encoding="utf-8", newline="\n")
        own = True
    else:
        fh = sink
    try:
        bounds = dataset.indptr.tolist()
        indices, values = dataset.indices.tolist(), dataset.data.tolist()
        for y, lo, hi in zip(dataset.labels.tolist(), bounds, bounds[1:]):
            label = "+1" if y > 0 else "-1"
            feats = " ".join(
                f"{j + 1}:{x!r}" for j, x in zip(indices[lo:hi], values[lo:hi])
            )
            fh.write(label + (" " + feats if feats else "") + "\n")
    finally:
        if own:
            fh.close()


def dumps_libsvm(dataset: Dataset) -> str:
    buf = io.StringIO()
    write_libsvm(dataset, buf)
    return buf.getvalue()


def subsample(dataset: Dataset, n_keep: int, seed: int) -> Dataset:
    """Uniformly random n_keep rows, original order preserved, seeded."""
    if not 1 <= n_keep <= dataset.n:
        raise ValueError(f"n_keep must lie in [1, {dataset.n}], got {n_keep}")
    if n_keep == dataset.n:
        return dataset
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(dataset.n, size=n_keep, replace=False))
    indptr = np.zeros(n_keep + 1, dtype=np.int64)
    np.cumsum(np.diff(dataset.indptr)[keep], out=indptr[1:])
    block = dataset.block(keep)
    return csr_dataset(indptr, block.cols, block.vals, block.labels, d=dataset.d)


def maxabs_scale(dataset: Dataset) -> Dataset:
    """Scale each feature column by 1/max|value| over its nonzeros."""
    scale = np.zeros(dataset.d)
    np.maximum.at(scale, dataset.indices, np.abs(dataset.data))
    scale[scale == 0.0] = 1.0
    data = dataset.data / scale[dataset.indices]
    return csr_dataset(dataset.indptr, dataset.indices, data, dataset.labels, dataset.d)
