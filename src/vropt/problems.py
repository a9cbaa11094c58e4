"""Finite-sum objectives over sparse rows with per-component smoothness constants."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .common import LossKind, whole
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

    def margins(self, points: np.ndarray) -> np.ndarray:
        """z = A x for each row x of the (R, d) array ``points``, as an
        (R, n) array.  One gather of the R points' entries, then each row's
        terms summed as one segment by ``np.add.reduceat``: the row's first
        term plus numpy's pairwise sum of the rest, in entry order.  A row
        without entries reads 0, and each point's margins are those of the
        point alone."""
        # the indices lie in [0, d) (checked by csr_dataset, guaranteed by the
        # parser and the package's builders), so "clip" changes nothing;
        # without the bounds test a five-point gather takes half the time
        terms = np.take(points, self.indices, axis=1, mode="clip")
        terms *= self.data
        starts, rows = self._segments
        if rows is None:
            return np.add.reduceat(terms, starts, axis=1)
        # reduceat gives an empty segment its next entry, not 0: sum only
        # the rows with entries
        z = np.zeros((points.shape[0], self.n))
        if starts.size:
            z[:, rows] = np.add.reduceat(terms, starts, axis=1)
        return z

    def gradient_sums(self, slopes: np.ndarray) -> np.ndarray:
        """A^T s for each row s of the (R, n) array ``slopes``, as an (R, d)
        array.  When every row stores every column, each column's n terms
        are summed as one segment of the column-major copy of the values:
        numpy's pairwise sum over the rows in index order.  Otherwise each
        point is scattered by ``RowBlock.scatter`` (``np.bincount``, the
        rows added one after another); the column order that segment sums
        would need costs a sort of the entries there, more than it saves."""
        if self._columns is None:
            block = self._full_block
            return np.stack([block.scatter(s, self.d) for s in slopes])
        return np.add.reduce(slopes[:, None, :] * self._columns, axis=2)

    def block(self, rows=None, shift=None) -> "RowBlock":
        """The stored entries of the rows ``rows``; all rows when None, as one
        block built on first use and shared after that.  ``shift``, when
        given, holds one number per row that is added to the columns of its
        entries: the block then gathers and scatters by bin, so that row k
        reads and writes coordinates ``shift[k]`` onwards of a longer vector
        (the runners' look-ahead steps several runs' points end to end so)."""
        if rows is None:
            return self._full_block
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        owner = np.repeat(np.arange(rows.size), counts)
        # position of every entry: its row's start plus its rank within the row
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        pos = np.arange(owner.size) + offsets
        cols = self.indices[pos]
        if shift is not None:
            cols += np.repeat(shift, counts)
        return RowBlock(rows.size, owner, cols, self.data[pos], self.labels[rows])

    @functools.cached_property
    def _full_block(self) -> "RowBlock":
        owner = np.repeat(np.arange(self.n), np.diff(self.indptr))
        owner.setflags(write=False)
        return RowBlock(self.n, owner, self.indices, self.data, self.labels)

    @functools.cached_property
    def _segments(self) -> tuple:
        """(the first entry of each row with entries, those rows), or
        (the row starts, None) when every row has entries."""
        counts = np.diff(self.indptr)
        if counts.all():
            return self.indptr[:-1], None
        rows = np.flatnonzero(counts)
        return self.indptr[rows], rows

    @functools.cached_property
    def _columns(self) -> np.ndarray | None:
        """The values as a (d, n) array, column after column, when every row
        stores every column (then the entries are the n x d matrix row after
        row, so the column order needs no sort); None otherwise."""
        if self.indices.size != self.n * self.d:
            return None
        columns = self.data.reshape(self.n, self.d).T.copy()
        columns.setflags(write=False)
        return columns

    def __getstate__(self):
        # derived data: a worker process rebuilds what it needs
        state = dict(self.__dict__)
        for name in ("_full_block", "_segments", "_columns"):
            state.pop(name, None)
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
    entry order, so results do not depend on threads or BLAS.  A pass over
    all rows sums by segments instead (``Dataset.margins`` and
    ``Dataset.gradient_sums``).
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
    ``d``, a whole number above every index, defaults to the largest index
    plus one."""
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
    d = whole(d, "feature dimension must be a whole number")
    if d >= 2**63:
        raise ValueError(f"feature dimension {d} does not fit in int64")
    if max_idx >= d:
        raise ValueError(f"row index {max_idx} outside feature dimension {d}")
    return _frozen_dataset(indptr, indices, data, labels, d)


def _frozen_dataset(indptr, indices, data, labels, d: int) -> Dataset:
    """Freeze CSR arrays known valid (see ``csr_dataset``) into a Dataset, unchecked."""
    y = labels.astype(float)
    for a in (indptr, indices, data, y):
        a.setflags(write=False)
    return Dataset(n=indptr.size - 1, d=d, indptr=indptr, indices=indices, data=data, labels=y)


def synthesize(n: int, d: int, skew: float, seed: int) -> Dataset:
    """Seeded Gaussian rows rescaled so ||a_i||^2 spans [1, skew] geometrically."""
    n, d = whole(n, "n must be a whole number"), whole(d, "d must be a whole number")
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
    return _frozen_dataset(indptr, np.tile(np.arange(d, dtype=np.int64), n), A.ravel(), labels, d)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function of a float array: 1/(1+e^-z) for
    z >= 0, e^z/(1+e^z) below.  The numerator e^min(z, 0) is 1 exactly for
    z >= 0, and for z < 0 it is e = e^-|z| itself."""
    e = np.exp(-np.abs(z))
    s = np.exp(np.minimum(z, 0.0))
    s /= e + 1.0
    return s


def stable_sigmoid(z):
    """The logistic function of a scalar or array (see ``_sigmoid``)."""
    out = _sigmoid(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def _loss_terms(loss: LossKind, z: np.ndarray, y: np.ndarray, s) -> np.ndarray:
    """Per-row losses l(z_i; y_i) at the margins z_i = a_i . x; ``s`` is
    ``_sigmoid(z)`` for the sigmoid loss."""
    if loss is LossKind.SIGMOID_SQUARED:
        r = 1.0 - y * s
        return r * r
    return 0.5 * (z - y) ** 2


def _loss_slopes(loss: LossKind, z: np.ndarray, y: np.ndarray, s=None) -> np.ndarray:
    """Per-row derivatives dl/dz at the margins z_i = a_i . x (``z`` may
    stack several points' margins along a leading axis; ``y`` broadcasts);
    ``s``, when given, is ``_sigmoid(z)``, already computed."""
    if loss is LossKind.SIGMOID_SQUARED:
        s = _sigmoid(z) if s is None else s
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
    with np.errstate(over="ignore", invalid="ignore"):
        L = smoothness_constants(dataset, loss, mu)
        # every variance constant and step size sums L_i^2
        sums = np.cumsum(L * L)
    bad = np.flatnonzero(~(np.isfinite(L) & np.isfinite(sums)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"row {i} (counting from 0): smoothness constant L_{i} = {L[i]:g} "
                         "is too large (each L_i^2 and their sum must be finite)")
    if not L.any():
        raise ValueError("every smoothness constant is 0: no row stores a nonzero value")
    L.setflags(write=False)
    return Problem(
        dataset=dataset,
        loss=loss,
        mu=float(mu),
        L=L,
        Lbar=float(L.mean()),
        Lmax=float(L.max()),
    )


def _check_point(problem: Problem, x, points: bool = False) -> np.ndarray:
    """x as a float array of shape (d,), or with ``points`` of any 1-d length
    that is a multiple of d (several points end to end)."""
    x = np.asarray(x, dtype=float)
    d = problem.dataset.d
    if x.shape != (d,) and not (points and x.ndim == 1 and x.size and x.size % d == 0):
        raise ValueError(f"x must have shape ({d},), got {x.shape}")
    return x


def loss_value(problem: Problem, x) -> float:
    """f(x) = (1/n) sum_i f_i(x), the row losses summed exactly (math.fsum)."""
    return full_pass(problem, _check_point(problem, x), gradient=False)[0][0]


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


def _sq_norm(v: np.ndarray) -> float:
    """v . v as numpy's pairwise sum of the squares: a fixed order, where a
    BLAS dot's last bits can change with its thread count."""
    return float(np.add.reduce(v * v))


def row_slopes(problem: Problem, block: RowBlock, x: np.ndarray) -> np.ndarray:
    """Loss slopes l'(a_i . x) of the rows in ``block``."""
    return _loss_slopes(problem.loss, block.margins(x), block.labels)


def full_pass(problem: Problem, x: np.ndarray, value: bool = True,
              gradient: bool = True) -> tuple:
    """(f, the row slopes, grad f) at x from one margin pass over the rows.

    x holds R >= 1 points of d coordinates: end to end in one 1-d array, or
    as the rows of an (R, d) array.  f is the list of the R values (None
    unless ``value``); the slopes (R n of them) and the gradients come back
    shaped as x (None unless ``gradient``).  Each point's numbers are those
    of a pass over that point alone: its own sums, in the same order.
    ``loss_value``, ``full_gradient`` and a checkpoint (which wants both f
    and grad f) are all this one pass, and its sums are the segment sums of
    ``Dataset.margins`` and ``Dataset.gradient_sums``."""
    ds = problem.dataset
    points = x.reshape(-1, ds.d)
    z = ds.margins(points)
    f = slopes = g = None
    # the sigmoid loss's f and grad f read one sigmoid of the margins
    sig = _sigmoid(z) if problem.loss is LossKind.SIGMOID_SQUARED else None
    if value:
        terms = _loss_terms(problem.loss, z, ds.labels, sig).tolist()
        f = [math.fsum(t) / ds.n for t in terms]
        if problem.mu:
            f = [fj + 0.5 * problem.mu * _sq_norm(p) for fj, p in zip(f, points)]
    if gradient:
        s = _loss_slopes(problem.loss, z, ds.labels, sig)
        g = ds.gradient_sums(s) / ds.n
        if problem.mu:
            g += problem.mu * points
        slopes, g = s.reshape(-1) if x.ndim == 1 else s, g.reshape(x.shape)
    return f, slopes, g


def full_gradient(problem: Problem, x, done: tuple | None = None) -> np.ndarray:
    """Mean of the component gradients, from ``full_pass`` (or from
    ``done``, the pass already made at x).  x may hold several points end
    to end; their gradients come back the same way.

    Every coordinate is summed over the rows in index order, without
    compensation: on rows that store every column as one segment (numpy's
    pairwise sum), otherwise one row after another (``np.bincount``); see
    ``Dataset.gradient_sums``.  The order is fixed, so reruns are
    bit-identical whatever the thread count, and the test suite checks that
    the result stays within 1e-13 (relative, max-norm) of a per-coordinate
    ``math.fsum`` of the component gradients.
    """
    return (done or full_pass(problem, _check_point(problem, x, points=True), value=False))[2]
