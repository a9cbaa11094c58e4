"""LIBSVM text-format ingestion, writing, and deterministic subsampling."""

from __future__ import annotations

import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .common import ParseError, whole
from .problems import Dataset, _frozen_dataset


@dataclass
class ParseReport:
    rows_read: int = 0
    max_index_seen: int = 0
    warnings: list = field(default_factory=list)


# The scan reads the file in chunks of whole lines, about this many bytes
# each (a longer line is a chunk of its own), which bounds its temporaries.
# The length changes no result.  Chunks are scanned side by side, so a chunk
# must be long enough for its numpy calls, which release the GIL, to
# outweigh the Python work around them, which holds it.
CHUNK_BYTES = 1 << 18

# A number is read vectorised ("plain") when it fits a window of bytes that
# ends at its last byte: an index of 1 to 16 digits (below 2**63), or a label
# or value of an optional sign, digits and at most one '.', in one of two
# ways.  With 1 to 15 digits (a window of _WIDTH bytes) it is M / 10**k with
# M < 2**53, a quotient of two exact doubles, so IEEE division rounds it as
# float() does (Clinger's fast path).  With up to 18 significant digits and
# 18 after the '.' (a window of _LONG bytes; a shortest repr has 16 or 17)
# an exact integer residual corrects M / 10**k to float()'s double
# (_long_decimal).  Every other token is read by int() and float().  A
# chunk reads its indices, and its labels and values, through the smallest
# power-of-two window that holds its longest token of that kind, up to
# _WIDTH bytes, so short numbers gather few bytes; which tokens are plain
# does not depend on the window.
_WIDTH = 16
_LONG = 2 * _WIDTH
_VALUE_DIGITS = 15
_PAD = b" " * _LONG
_DOT = (ord(".") - ord("0")) % 256                # a '.' less '0', in a uint8
_TENS = np.array([float(10**k) for k in range(_LONG)])
_POW10 = np.array([10**min(k, 18) for k in range(_LONG)], dtype=np.int64)
_INDEX_LIMIT = 2**63           # an index j is stored as j - 1 in int64
# bytes a file may hold to be scanned as it is (after \r\n and \r become \n)
_REGULAR = bytes(range(32, 127)) + b"\t\n\r"


def _read(source) -> bytes | str:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    data = source if isinstance(source, bytes) else source.read()
    return data if isinstance(data, str) else bytes(data)


def _scan_form(data: bytes | str) -> bytes:
    """The text as the scanner reads it: lines end in \\n, tokens are split
    by spaces and tabs, and a line is a comment when its first byte is '#'.

    Text of printable ASCII, spaces, tabs and line ends is that form once
    \\r\\n and \\r become \\n.  Any other text is decoded and rewritten
    line by line as ``str.splitlines`` cuts it, each line as "#" if it is a
    comment and otherwise as a space before its ``str.split`` tokens, so
    every line keeps its number and every token its UTF-8 text."""
    if isinstance(data, bytes) and not data.translate(None, _REGULAR):
        return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(line_no, f"not UTF-8 text ({exc.reason})") from None
    lines = ("#" if raw.startswith("#") else " " + " ".join(raw.split())
             for raw in data.splitlines())
    return "\n".join(lines).encode("utf-8", "surrogatepass") + b"\n"


def parse_libsvm(source) -> tuple[Dataset, ParseReport]:
    """Parse LIBSVM text: one `<label> <idx>:<val> ...` example per line.

    Indices are 1-based and strictly increasing within a line (stored
    0-based); an index above 2**63 is an error.  Labels map to {-1,+1} via
    label > 0 -> +1, else -1, so {0,1}-labeled files come out right.  Lines
    are numbered as ``str.splitlines`` cuts them, a line whose first
    character is '#' is a comment, tokens are split as ``str.split`` splits
    them, and every label and value has the bits ``float()`` gives it.  The
    first malformed token in file order is the error; a nan or inf value
    is reported only in a file without one.  The feature dimension is the
    largest index seen.
    """
    data = _scan_form(_read(source))
    report = ParseReport()
    # chunks (lo, hi): up to the last line end within CHUNK_BYTES, else the
    # next one, else the end
    spans, lo = [], 0
    while lo < len(data):
        hi = (data.rfind(b"\n", lo, lo + CHUNK_BYTES) + 1
              or data.find(b"\n", lo + CHUNK_BYTES) + 1 or len(data))
        spans.append((lo, hi))
        lo = hi
    labels, counts, indices, values = [], [], [], []
    non_finite = None
    lines = 0           # the lines of the chunks taken so far
    # This thread scans every k-th chunk and k - 1 helpers the others; the
    # chunks are taken in file order, so the first bad token in the file is
    # the error, and each chunk's line numbers are offset by the lines
    # before it.  This thread takes its share, rather than waiting on k
    # helpers, because freed temporaries stay resident in each helper's own
    # malloc arena.  With k = 1 nothing is submitted, so no thread starts.
    k = min(_cpus(), len(spans))
    pool = ThreadPoolExecutor(max(1, k - 1), thread_name_prefix="parse_libsvm")
    try:
        helped = {i: pool.submit(_scan_span, data, *span)
                  for i, span in enumerate(spans) if i % k}
        for i, span in enumerate(spans):
            try:
                chunk = helped.pop(i).result() if i % k else _scan_span(data, *span)
            except _BadToken as bad:
                line, message = bad.args
                raise ParseError(lines + line, message) from None
            report.warnings += [(lines + line, message) for line, message in chunk.warnings]
            if chunk.non_finite and not non_finite:
                non_finite = (lines + chunk.non_finite[0], chunk.non_finite[1])
            lines += chunk.lines
            labels.append(chunk.labels)
            counts.append(chunk.counts)
            indices.append(chunk.indices)
            values.append(chunk.values)
    finally:
        # no helper outlives the call (a caller may fork next), and after a
        # bad token the chunks not yet begun are not scanned
        pool.shutdown(cancel_futures=True)
    del data            # the text is dropped before the dataset is built
    report.rows_read = sum(map(len, labels))
    if not report.rows_read:
        raise ParseError(0, "empty file: no examples found")
    if non_finite:
        raise ParseError(non_finite[0], f"bad feature token {non_finite[1]!r}")
    indptr = np.zeros(report.rows_read + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    # each list of chunk arrays is dropped as its concatenation replaces it
    labels = np.concatenate(labels)
    indices = np.concatenate(indices)
    values = np.concatenate(values)
    report.max_index_seen = int(indices.max()) + 1 if indices.size else 0
    return _frozen_dataset(indptr, indices, values, labels, report.max_index_seen), report


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not on every platform
        return os.cpu_count() or 1


def _scan_span(data: bytes, lo: int, hi: int) -> _Chunk:
    """``_scan_chunk`` of the whole lines data[lo:hi], the last given a line
    end if it has none."""
    text = data[lo:hi] if data[hi - 1] == ord("\n") else data[lo:hi] + b"\n"
    return _scan_chunk(_PAD + text)


@dataclass
class _Chunk:
    labels: np.ndarray          # +1/-1 per row
    counts: np.ndarray          # entries per row
    indices: np.ndarray         # 0-based, row after row
    values: np.ndarray
    lines: int                  # line ends in the chunk
    # the lines below are numbered within the chunk, from 1
    warnings: list              # (line, message) per label other than -1, 0, 1
    non_finite: tuple | None    # (line, token) of the first nan or inf value


class _BadToken(Exception):
    """A chunk's first malformed token: args (line in the chunk, message)."""


def _scan_chunk(raw: bytes) -> _Chunk:
    """Parse one chunk: ``_PAD`` and then whole lines of the scan form, the
    last ending in \\n.  Raises the ``_BadToken`` of its first bad token."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    sep = (buf == ord(" ")) | (buf == ord("\n")) | (buf == ord("\t"))
    edges = np.flatnonzero(sep[1:] != sep[:-1]) + 1
    start, end = edges[0::2], edges[1::2]
    breaks = np.flatnonzero(buf == 10)
    line = np.searchsorted(breaks, start)
    comment = buf[np.concatenate(([_LONG], breaks[:-1] + 1))] == ord("#")
    if comment.any():
        keep = ~comment[line]
        start, end, line = start[keep], end[keep], line[keep]
    label = np.ones(start.size, dtype=bool)
    label[1:] = line[1:] != line[:-1]
    feature = ~label
    # a label is read from its whole token, a feature from either side of its first ':'
    # (a token with no ':' reads as an index alone, with an empty value)
    colons = np.append(np.flatnonzero(buf == ord(":")), buf.size)
    colon = np.minimum(colons[np.searchsorted(colons, start)], end)
    at = np.where(label, start, np.minimum(colon + 1, end))
    number, plain = _decimal(buf, at, end)
    j, plain_index = _index(buf, start[feature], colon[feature])
    index_read = label.copy()           # a label, or a feature with a plain index
    index_read[feature] = plain_index
    plain &= index_read
    more = np.flatnonzero(~plain & index_read & (end - at > _VALUE_DIGITS))
    if more.size:
        x, long_plain = _long_decimal(buf, at[more], end[more])
        more = more[long_plain]
        number[more], plain[more] = x[long_plain], True
    index = np.zeros(start.size, dtype=np.int64)
    index[feature] = j - 1
    todo = np.flatnonzero(~plain)
    # The other tokens are mostly exponent or still longer values after a
    # plain index: float() reads them in one pass.  Only when one of them is
    # not a number, a label is not finite or an index is not plain, is each
    # token read on its own, as the error is found.
    got = _floats(raw, at[todo], end[todo]) if index_read[todo].all() else None
    bad, non_finite = {}, None
    if got is not None and np.isfinite(got[label[todo]]).all():
        number[todo] = got
        for t in todo[~np.isfinite(got)][:1].tolist():
            non_finite = (int(line[t]) + 1, _token(raw, start[t], end[t]))
    else:
        for t, a, b, is_label, ln in zip(todo.tolist(), start[todo].tolist(), end[todo].tolist(),
                                         label[todo].tolist(), line[todo].tolist()):
            token = _token(raw, a, b)
            got = _read_label(token) if is_label else _read_feature(token)
            if isinstance(got, str):
                bad[t] = got
            elif is_label:
                number[t] = got
            else:
                index[t], number[t] = got
                if non_finite is None and not math.isfinite(got[1]):
                    non_finite = (ln + 1, token)
    wrong = feature & (index < 0)
    wrong[list(bad)] = True
    wrong[1:] |= feature[1:] & feature[:-1] & (index[1:] <= index[:-1])
    if wrong.any():
        t = int(wrong.argmax())
        message = (bad.get(t) or (index[t] < 0 and f"feature index {index[t] + 1} below 1")
                   or "indices not increasing")
        raise _BadToken(int(line[t]) + 1, message)
    rows = np.flatnonzero(label)
    y = number[rows]
    warnings = [
        (int(line[t]) + 1,
         f"unusual label {_token(raw, start[t], end[t])} mapped to {'+1' if number[t] > 0 else '-1'}")
        for t in rows[(y != 1.0) & (y != -1.0) & (y != 0.0)].tolist()
    ]
    return _Chunk(
        labels=np.where(y > 0.0, 1, -1),
        counts=np.diff(np.append(rows, start.size)) - 1,
        indices=index[feature], values=number[feature], lines=breaks.size,
        warnings=warnings, non_finite=non_finite,
    )


def _token(raw: bytes, start, end) -> str:
    return raw[start:end].decode("utf-8", "surrogatepass")


def _floats(raw: bytes, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """float() of each span raw[start:end], or None when one is not a number.
    float() reads ASCII bytes as it reads their str, and fails on others."""
    try:
        return np.array([float(raw[a:b]) for a, b in zip(start.tolist(), end.tolist())])
    except ValueError:
        return None


def _window(length: np.ndarray, limit: int) -> int:
    """The smallest power of two that holds the longest span of ``length``
    bytes (1 when there is none), at most ``limit``."""
    return min(limit, 1 << (int(length.max(initial=1)) - 1).bit_length())


def _digits(buf: np.ndarray, end: np.ndarray, length: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes up to the end of each span of ``length`` bytes
    ending at ``end``, less '0', one column per span; a byte before the span
    reads 0 (a leading zero).  ``buf`` starts with ``_PAD``, so every column
    exists."""
    digit = buf[end + np.arange(-width, 0)[:, None]] - ord("0")
    column = np.arange(width, dtype=np.uint8)[:, None]
    digit *= column >= width - np.minimum(length, width).astype(np.uint8)
    return digit


def _integer(digit: np.ndarray) -> tuple:
    """Each column of ``_digits`` read as decimal integers of 16 digits,
    one row per 16 rows (the most significant first), or as one integer
    from fewer rows, and its largest byte (at most 9 when every byte is a
    digit)."""
    m = digit
    # sum by digit position, pairs of rows at a time (up to four halvings of
    # each 16 rows), each widened first to an integer that holds its partial
    # sums (so the result does not hang on numpy's scalar promotion rules)
    for wide, scale in ((np.uint8, 10), (np.uint16, 100), (np.uint32, 10**4), (np.int64, 10**8)):
        if len(m) == 1:
            break
        m = m[0::2].astype(wide, copy=False) * scale + m[1::2]
    return m, digit.max(axis=0)


def _index(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple:
    """Each span buf[start:end] read as an index, and whether it is plain:
    1 to _WIDTH digits.  The window is as wide as the longest span."""
    length = end - start
    j, top = _integer(_digits(buf, end, length, _window(length, _WIDTH)))
    return j[0].astype(np.int64), (length >= 1) & (length <= _WIDTH) & (top <= 9)


def _unsigned(buf: np.ndarray, start: np.ndarray) -> tuple:
    """Whether each span starting at ``start`` is negative, and where it
    starts after an optional sign."""
    negative = buf[start] == ord("-")
    return negative, start + (negative | (buf[start] == ord("+")))


def _mantissa(buf: np.ndarray, start: np.ndarray, end: np.ndarray, width: int) -> tuple:
    """Each span buf[start:end] read as digits and '.'s in a window of
    ``width`` bytes: its digits less the '.' as ``_integer`` reads them, the
    number k of digits after the '.', the number of digits, and whether the
    window holds only digits and at most one '.'."""
    length = end - start
    digit = _digits(buf, end, length, width)
    after = np.arange(width - 1, -1, -1, dtype=np.uint8)[:, None]   # bytes after each row
    dot = digit == _DOT
    dots = dot.sum(axis=0, dtype=np.uint8)
    k = np.where(dots == 1, (dot * after).sum(axis=0, dtype=np.uint8), 0)
    # drop the '.': the digits before it move one row down, over it
    before = after >= np.where(dots == 1, k, width)
    shifted = np.zeros_like(digit)
    shifted[1:] = digit[:-1]
    m, top = _integer(np.where(before, shifted, digit))
    return m, k, length - dots, (dots <= 1) & (top <= 9)


def _decimal(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple:
    """Each span buf[start:end] read as a label or a value, and whether it
    is plain: an optional sign, then 1 to _VALUE_DIGITS digits and at most
    one '.'.  The window is as wide as the longest span after its sign."""
    negative, start = _unsigned(buf, start)
    length = end - start
    m, k, digits, ok = _mantissa(buf, start, end, _window(length, _WIDTH))
    x = m[0] / _TENS[k]
    np.negative(x, out=x, where=negative)
    return x, ok & (length <= _WIDTH) & (digits >= 1) & (digits <= _VALUE_DIGITS)


def _long_decimal(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple:
    """Each span buf[start:end] read as a label or a value, and whether it
    is plain: an optional sign, then up to _LONG bytes of digits and at most
    one '.', with at most 18 significant digits and 18 after the '.'.

    M / 10**k rounds twice, so its double x may lie up to 2 ulps from
    float()'s.  With x = n * 2**-e (2**52 <= n < 2**53), the residual
    M * 2**e - n * 10**k is at most 2 * 10**k in magnitude, so uint64
    arithmetic, exact modulo 2**64, gives it exactly; its quotient and
    remainder by 10**k move n to the nearest mantissa, ties to even.  A
    result outside (2**52, 2**53] would need another exponent: not plain."""
    negative, start = _unsigned(buf, start)
    (high, low), k, digits, ok = _mantissa(buf, start, end, _LONG)
    m = high.astype(np.int64) * 10**16 + low
    f, exponent = np.frexp(m / _TENS[k])
    n = (f * 2.0**53).astype(np.int64)
    e = 53 - exponent.astype(np.int64)
    scaled = np.where(e < 64, m.astype(np.uint64) << np.clip(e, 0, 63).astype(np.uint64), 0)
    p = _POW10[k]
    q, r = np.divmod((scaled - n.astype(np.uint64) * p.astype(np.uint64)).view(np.int64), p)
    n += q + ((2 * r > p) | ((2 * r == p) & ((n + q) % 2 == 1)))
    x = np.ldexp(n.astype(np.float64), -e)
    np.negative(x, out=x, where=negative)
    ok &= (end - start <= _LONG) & (digits >= 1) & (high < 100) & (k <= 18)
    ok &= (e >= 0) & (n > 2**52) & (n <= 2**53)
    return x, ok


def _read_label(token: str) -> float | str:
    """The label's value, or the error message."""
    try:
        label = float(token)
    except ValueError:
        label = math.nan
    return label if math.isfinite(label) else f"bad label token {token!r}"


def _read_feature(token: str) -> tuple[int, float] | str:
    """The 0-based index and the value of an `<idx>:<val>` token, or the
    error message."""
    part = token.split(":")
    if len(part) != 2:
        return f"bad feature token {token!r}"
    try:
        j = int(part[0])
        x = float(part[1])
    except ValueError:
        return f"bad feature token {token!r}"
    if j < 1:
        return f"feature index {j} below 1"
    if j > _INDEX_LIMIT:
        return f"bad feature token {token!r}: index past int64"
    return j - 1, x


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
    n_keep = whole(n_keep, "n_keep must be a whole number")
    if not 1 <= n_keep <= dataset.n:
        raise ValueError(f"n_keep must lie in [1, {dataset.n}], got {n_keep}")
    if n_keep == dataset.n:
        return dataset
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(dataset.n, size=n_keep, replace=False))
    indptr = np.zeros(n_keep + 1, dtype=np.int64)
    np.cumsum(np.diff(dataset.indptr)[keep], out=indptr[1:])
    block = dataset.block(keep)
    return _frozen_dataset(indptr, block.cols, block.vals, block.labels, dataset.d)


def maxabs_scale(dataset: Dataset) -> Dataset:
    """Scale each feature column by 1/max|value| over its nonzeros."""
    scale = np.zeros(dataset.d)
    np.maximum.at(scale, dataset.indices, np.abs(dataset.data))
    scale[scale == 0.0] = 1.0
    data = dataset.data / scale[dataset.indices]
    return _frozen_dataset(dataset.indptr, dataset.indices, data, dataset.labels, dataset.d)
