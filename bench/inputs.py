"""Seeded benchmark inputs and the benchmark's own reference gradient.

Everything here is independent of the vropt package: the rows are generated
from the workload seed, and the reference full gradient is summed with
``math.fsum`` so that a rewritten kernel in the package is checked against
arithmetic it does not share.
"""

from __future__ import annotations

import math

import numpy as np


def synthetic_rows(n: int, d: int, skew: float, seed: int):
    """The rows ``vropt.problems.synthesize(n, d, skew, seed)`` documents:
    seeded Gaussian rows rescaled so ||a_i||^2 spans [1, skew] geometrically.
    Returns (cols, vals, labels) with one dense row of d entries per example."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    targets = skew ** (np.arange(n) / (n - 1.0))
    A *= (np.sqrt(targets) / np.linalg.norm(A, axis=1))[:, None]
    labels = rng.integers(0, 2, size=n) * 2 - 1
    cols = np.broadcast_to(np.arange(d), (n, d))
    return cols, A, labels


def sparse_rows(n: int, d: int, nnz: int, skew: float, seed: int):
    """n rows of nnz distinct sorted columns in [0, d); squared row norms span
    [1, skew] geometrically in random order; labels are the sign of a planted
    linear model plus noise, so the loss can fall.  Values are rounded to six
    decimals so the LIBSVM text is short and parses back to these doubles."""
    rng = np.random.default_rng([seed, 17])
    # sorted draws with repetition, shifted by 0..nnz-1, are distinct columns
    cols = np.sort(rng.integers(0, d - nnz + 1, size=(n, nnz)), axis=1) + np.arange(nnz)
    vals = rng.standard_normal((n, nnz))
    targets = skew ** (np.arange(n) / (n - 1.0))
    rng.shuffle(targets)
    vals *= (np.sqrt(targets) / np.linalg.norm(vals, axis=1))[:, None]
    vals = np.round(vals, 6)
    w = rng.standard_normal(d)
    margin = np.einsum("ij,ij->i", vals, w[cols])
    noisy = margin + 0.5 * margin.std() * rng.standard_normal(n)
    labels = np.where(noisy > 0.0, 1, -1)
    return cols, vals, labels


def write_libsvm(path, cols, vals, labels) -> int:
    """Write 1-based LIBSVM text with shortest-repr values; returns bytes written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c, v, y in zip(cols.tolist(), vals.tolist(), labels.tolist()):
            feats = " ".join(f"{j + 1}:{x!r}" for j, x in zip(c, v))
            fh.write(("+1 " if y > 0 else "-1 ") + feats + "\n")
        return fh.tell()


def maxabs_scaled(cols, vals, d: int):
    """Per-column division by max |value| over the stored entries."""
    scale = np.zeros(d)
    np.maximum.at(scale, cols.ravel(), np.abs(vals).ravel())
    scale[scale == 0.0] = 1.0
    return vals / scale[cols]


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def reference_gradient(cols, vals, labels, x, d: int) -> np.ndarray:
    """Full gradient of the sigmoid-squared loss (1/n) sum_i (1 - y_i s(a_i.x))^2,
    every dot product and every column sum taken with math.fsum."""
    n = len(labels)
    x = [float(t) for t in x]
    slopes = np.empty(n)
    for i, (c, v, y) in enumerate(zip(cols.tolist(), vals.tolist(), labels.tolist())):
        s = _sigmoid(math.fsum(a * x[j] for j, a in zip(c, v)))
        slopes[i] = -2.0 * y * s * (1.0 - s) * (1.0 - y * s)
    flat_cols = np.ascontiguousarray(cols).ravel()
    contrib = (vals * slopes[:, None]).ravel()
    order = np.argsort(flat_cols, kind="stable")
    sorted_cols = flat_cols[order]
    starts = np.searchsorted(sorted_cols, np.arange(d + 1))
    parts = contrib[order].tolist()
    return np.array(
        [math.fsum(parts[starts[j]:starts[j + 1]]) / n for j in range(d)]
    )


def relative_error(got, ref) -> float:
    """max |got - ref| over max |ref| (the gradient's scale, not per entry)."""
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(got - ref)) / max(float(np.max(np.abs(ref))), 1e-300))
