"""Finite-sum objectives over sparse rows with per-component smoothness constants."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .common import LossKind
from .sampling import floor_smoothness

# Largest |second derivative| of z -> (1 - y*sigmoid(z))^2 over z in R and
# y in {-1,+1}; attained on the y = -1 branch near z = -0.947.  Derived once
# by max_sigmoid_sq_curvature() (dense grid scan refined by ternary search)
# and re-derived in the test suite.
SIGMOID_SQ_CURVATURE = 0.30836848257227656


@dataclass(frozen=True)
class Dataset:
    """n sparse feature rows with +/-1 labels, held as read-only CSR arrays.

    Row i stores ``data[indptr[i]:indptr[i + 1]]`` at the 0-based, strictly
    increasing feature indices ``indices[indptr[i]:indptr[i + 1]]``; a row may
    be empty.  ``labels`` holds the n labels as float64 (each -1.0 or +1.0),
    so the loss kernels multiply by them without a dtype cast.
    """

    n: int
    d: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    labels: np.ndarray

    @property
    def rows(self) -> tuple:
        """Per-row (indices, values) views; builds all n pairs on each access."""
        b = self.indptr.tolist()
        return tuple((self.indices[i:j], self.data[i:j]) for i, j in zip(b, b[1:]))

    def block(self, rows=None) -> "RowBlock":
        """The stored entries of the rows ``rows``; all rows when None, as one
        block built on first use and shared after that."""
        if rows is None:
            return self._full_block
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(rows.size), counts)
        # position of every entry: its row's start plus its rank within the row
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        pos = np.arange(owner.size) + offsets
        return RowBlock(
            rows.size, owner, self.indices[pos], self.data[pos], self.labels[rows]
        )

    @functools.cached_property
    def _full_block(self) -> "RowBlock":
        owner = np.repeat(np.arange(self.n), np.diff(self.indptr))
        owner.setflags(write=False)
        return RowBlock(self.n, owner, self.indices, self.data, self.labels)

    def __getstate__(self):
        # derived data: a worker process rebuilds the block if it needs one
        state = dict(self.__dict__)
        state.pop("_full_block", None)
        return state

    def __setstate__(self, state):
        # pickle drops numpy's read-only flag
        for name in ("indptr", "indices", "data", "labels"):
            state[name].setflags(write=False)
        self.__dict__.update(state)


@dataclass(slots=True)
class RowBlock:
    """The stored entries of a row subset S, flattened in CSR order: entry k
    sits in column ``cols[k]`` of the ``owner[k]``-th row of S.  A plain
    slotted record, cheap to build once per minibatch step; nothing changes
    its arrays.

    Both products sum with ``np.bincount``, which adds each bin's terms in
    entry order, so results do not depend on threads or BLAS.
    """

    size: int
    owner: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    labels: np.ndarray

    def margins(self, x: np.ndarray) -> np.ndarray:
        """z = A_S x, one entry per row of S."""
        terms = x[self.cols]
        terms *= self.vals
        z = np.bincount(self.owner, weights=terms, minlength=self.size)
        return z.astype(float, copy=False)  # bincount gives int64 when S has no entries

    def scatter(self, c: np.ndarray, d: int, bins: np.ndarray | None = None) -> np.ndarray:
        """A_S^T c: the dense d-vector sum_k c_k a_k over the rows of S.
        ``bins``, when given, replaces ``cols`` as the bin of each entry, so
        that one call sums several row sets into disjoint ranges of d bins."""
        terms = c[self.owner]
        terms *= self.vals
        g = np.bincount(self.cols if bins is None else bins, weights=terms, minlength=d)
        return g.astype(float, copy=False)

    def split(self, sizes) -> list["RowBlock"]:
        """Consecutive sub-blocks of ``sizes[k]`` rows each, as views into
        this block's arrays with sub-block-local row numbers; each equals
        ``Dataset.block`` of its own rows."""
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        # first entry of each sub-block (owner never decreases; rows may be empty)
        starts = np.searchsorted(self.owner, bounds)
        owner = self.owner - np.repeat(bounds[:-1], np.diff(starts))
        rb, eb = bounds.tolist(), starts.tolist()
        return [
            RowBlock(r1 - r0, owner[e0:e1], self.cols[e0:e1], self.vals[e0:e1],
                     self.labels[r0:r1])
            for r0, r1, e0, e1 in zip(rb, rb[1:], eb, eb[1:])
        ]


@dataclass(frozen=True)
class Problem:
    """A finite-sum objective: dataset, loss model and smoothness constants.

    Immutable (``L`` is a read-only array), so runs on one problem cannot
    affect each other.
    """

    dataset: Dataset
    loss: LossKind
    mu: float
    L: np.ndarray
    Lbar: float
    Lmax: float

    def __setstate__(self, state):
        state["L"].setflags(write=False)  # pickle drops numpy's read-only flag
        self.__dict__.update(state)


def make_dataset(rows, labels, d: int | None = None) -> Dataset:
    """Validate and freeze a sparse dataset.

    ``rows`` is a sequence of (indices, values) pairs with 0-based, strictly
    increasing indices; ``labels`` must be in {-1, +1}.
    """
    if len(rows) < 1:
        raise ValueError("dataset needs at least one example")
    idx = [np.asarray(i, dtype=np.int64) for i, _ in rows]
    val = [np.asarray(v, dtype=float) for _, v in rows]
    if any(i.shape != v.shape or i.ndim != 1 for i, v in zip(idx, val)):
        raise ValueError("row indices and values must be 1-d and aligned")
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([i.size for i in idx], out=indptr[1:])
    return csr_dataset(indptr, np.concatenate(idx), np.concatenate(val), labels, d)


def csr_dataset(indptr, indices, data, labels, d: int | None = None) -> Dataset:
    """Validate CSR arrays and freeze them into a Dataset (see make_dataset);
    ``d`` defaults to the largest index plus one."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=float)
    n = indptr.size - 1
    if n < 1:
        raise ValueError("dataset needs at least one example")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels length does not match number of rows")
    if not np.all(np.isin(labels, (-1, 1))):
        raise ValueError("labels must be -1 or +1")
    if indices.shape != data.shape or indices.ndim != 1 or indptr[-1] != indices.size:
        raise ValueError("row indices and values must be 1-d and aligned")
    counts = np.diff(indptr)
    if indptr[0] != 0 or np.any(counts < 0):
        raise ValueError("row pointers must start at 0 and never decrease")
    # indices must rise strictly except where a new row begins
    row_start = np.zeros(indices.size, dtype=bool)
    row_start[indptr[:-1][counts > 0]] = True
    if np.any(indices < 0) or np.any((np.diff(indices) <= 0) & ~row_start[1:]):
        raise ValueError("row indices must be strictly increasing and >= 0")
    max_idx = int(indices.max()) if indices.size else -1
    if d is None:
        d = max_idx + 1
    elif max_idx >= d:
        raise ValueError(f"row index {max_idx} outside feature dimension {d}")
    y = labels.astype(float)
    for a in (indptr, indices, data, y):
        a.setflags(write=False)
    return Dataset(n=n, d=d, indptr=indptr, indices=indices, data=data, labels=y)


def synthesize(n: int, d: int, skew: float, seed: int) -> Dataset:
    """Seeded Gaussian rows rescaled so ||a_i||^2 spans [1, skew] geometrically."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if not 1.0 <= skew < math.inf:
        raise ValueError("skew must be finite and >= 1")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    targets = skew ** (np.arange(n) / (n - 1.0)) if n > 1 else np.ones(1)
    norms = np.linalg.norm(A, axis=1)
    A *= (np.sqrt(targets) / norms)[:, None]
    labels = rng.integers(0, 2, size=n) * 2 - 1
    indptr = np.arange(n + 1, dtype=np.int64) * d
    return csr_dataset(indptr, np.tile(np.arange(d), n), A.ravel(), labels, d)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function of a float array: 1/(1+e^-z) for
    z >= 0, e^z/(1+e^z) below."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def stable_sigmoid(z):
    """The logistic function of a scalar or array (see ``_sigmoid``)."""
    out = _sigmoid(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def _loss_terms(loss: LossKind, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row losses l(z_i; y_i) at the margins z_i = a_i . x."""
    if loss is LossKind.SIGMOID_SQUARED:
        r = 1.0 - y * _sigmoid(z)
        return r * r
    return 0.5 * (z - y) ** 2


def _loss_slopes(loss: LossKind, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row derivatives dl/dz at the margins z_i = a_i . x (``z`` may
    stack several points' margins along a leading axis; ``y`` broadcasts)."""
    if loss is LossKind.SIGMOID_SQUARED:
        s = _sigmoid(z)
        return -2.0 * y * s * (1.0 - s) * (1.0 - y * s)
    return z - y


def _sigmoid_sq_curvature(z, y):
    s = stable_sigmoid(z)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    return -2.0 * y * spp * (1.0 - y * s) + 2.0 * sp * sp


def max_sigmoid_sq_curvature() -> float:
    """Re-derive SIGMOID_SQ_CURVATURE: grid scan of |l''| over [-20, 20] at
    step 1e-4 for both labels, refined by ternary search around the grid
    argmax."""
    best = 0.0
    for y in (1.0, -1.0):
        z = np.arange(-20.0, 20.0 + 0.5e-4, 1e-4)
        c = np.abs(_sigmoid_sq_curvature(z, y))
        i = int(np.argmax(c))
        lo = z[max(i - 1, 0)]
        hi = z[min(i + 1, z.size - 1)]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if abs(_sigmoid_sq_curvature(m1, y)) < abs(_sigmoid_sq_curvature(m2, y)):
                lo = m1
            else:
                hi = m2
        best = max(best, abs(float(_sigmoid_sq_curvature(0.5 * (lo + hi), y))))
    return best


def smoothness_constants(dataset: Dataset, loss: LossKind, mu: float = 0.0) -> np.ndarray:
    """Per-component gradient Lipschitz constants L_i, floored away from zero."""
    block = dataset.block()
    sq = np.bincount(block.owner, weights=block.vals * block.vals, minlength=dataset.n)
    if loss is LossKind.SIGMOID_SQUARED:
        L = SIGMOID_SQ_CURVATURE * sq
    else:
        L = sq + mu
    return floor_smoothness(L)


def build_problem(dataset: Dataset, loss: LossKind, mu: float = 0.0) -> Problem:
    if not 0.0 <= mu < math.inf:
        raise ValueError("mu must be finite and nonnegative")
    if loss is LossKind.SIGMOID_SQUARED and mu != 0.0:
        raise ValueError("the sigmoid-squared loss takes no strong-convexity term")
    L = smoothness_constants(dataset, loss, mu)
    L.setflags(write=False)
    return Problem(
        dataset=dataset,
        loss=loss,
        mu=float(mu),
        L=L,
        Lbar=float(L.mean()),
        Lmax=float(L.max()),
    )


def _check_point(problem: Problem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = problem.dataset.d
    if x.shape != (d,):
        raise ValueError(f"x must have shape ({d},), got {x.shape}")
    return x


def loss_value(problem: Problem, x) -> float:
    """f(x) = (1/n) sum_i f_i(x), the row losses summed exactly (math.fsum)."""
    return full_pass(problem, _check_point(problem, x), gradient=False)[0]


def component_gradient(problem: Problem, i: int, x) -> np.ndarray:
    """Gradient of f_i; support equals the row support (plus the dense mu*x
    term for the quadratic loss)."""
    ds = problem.dataset
    if not 0 <= i < ds.n:
        raise IndexError(f"component index {i} out of range [0, {ds.n})")
    x = _check_point(problem, x)
    lo, hi = ds.indptr[i], ds.indptr[i + 1]
    idx, val = ds.indices[lo:hi], ds.data[lo:hi]
    (slope,) = _loss_slopes(problem.loss, np.array([val @ x[idx]]), ds.labels[i])
    g = np.zeros(ds.d)
    g[idx] = slope * val
    if problem.mu:
        g += problem.mu * x
    return g


def row_slopes(problem: Problem, block: RowBlock, x: np.ndarray) -> np.ndarray:
    """Loss slopes l'(a_i . x) of the rows in ``block``."""
    return _loss_slopes(problem.loss, block.margins(x), block.labels)


def full_pass(problem: Problem, x: np.ndarray, value: bool = True,
              gradient: bool = True) -> tuple:
    """(f(x), the row slopes at x, grad f(x)) from one margin pass over the
    rows; f is None unless ``value``, the slopes and gradient None unless
    ``gradient``.  ``loss_value``, ``full_gradient`` and a checkpoint (which
    wants both f and grad f) are all this one pass."""
    ds = problem.dataset
    block = ds.block()
    z = block.margins(x)
    f = slopes = g = None
    if value:
        f = math.fsum(_loss_terms(problem.loss, z, block.labels).tolist()) / ds.n
        if problem.mu:
            f += 0.5 * problem.mu * float(x @ x)
    if gradient:
        slopes = _loss_slopes(problem.loss, z, block.labels)
        g = block.scatter(slopes, ds.d) / ds.n
        if problem.mu:
            g += problem.mu * x
    return f, slopes, g


def full_gradient(problem: Problem, x) -> np.ndarray:
    """Mean of the component gradients, from ``full_pass``.

    Every coordinate is summed over the rows in index order by
    ``np.bincount``, without compensation.  The order is fixed, so reruns are
    bit-identical whatever the thread count, and the test suite checks that
    the result stays within 1e-13 (relative, max-norm) of a per-coordinate
    ``math.fsum`` of the component gradients.
    """
    return full_pass(problem, _check_point(problem, x), value=False)[2]
