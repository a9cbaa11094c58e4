"""Variance-reduced finite-sum methods under arbitrary sampling.

Implements the anchored (SVRG), memory-based (SAGA) and recursive (SARAH)
gradient estimators with importance-weighted minibatches, a restart wrapper
for gradient-dominated objectives, the single-sample convex SARAH variant,
theorem-driven hyperparameter derivation and closed-form cost predictors.

All runs are deterministic per seed: one substream drives the subset draws,
a second drives the uniform-over-iterates output selection, so the iterate
trajectory does not depend on whether an output is being selected.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .problems import (
    Problem,
    RowBlock,
    _loss_slopes,
    _sq_norm,
    full_gradient,
    full_pass,
    loss_value,
    row_slopes,
)
from .sampling import SamplingScheme, bernoulli_subset, compute_alpha, draw

MU2 = 0.25        # step constant of the anchored method's theorem
NU2 = 1.0 / 40.0  # rate constant of the anchored method's theorem
NU3 = 1.0 / 12.0  # rate constant of the memory method's theorem

DIVERGENCE_LIMIT = 1e100
# An iterate whose computed x . x is at most this passes the guard without
# its exact test: an entry above DIVERGENCE_LIMIT makes the true sum of
# squares exceed 1e200, and a dot over d < 1e15 terms rounds it down by less
# than 12%, in any summation order.
DIVERGENCE_SCREEN = 1e199

# Lower bound on f that gap_estimate measures from: both losses are
# nonnegative.
F_LOW = 0.0

# The runners draw steps ahead and gather their rows at once, in chunks of
# about this many stored entries (see ``_lookahead``).  A chunk's sets come
# from one draw call, so a run's draws depend on this value.
LOOKAHEAD_ENTRIES = 1 << 13


class ConfigError(ValueError):
    """Hyperparameters violate a theorem precondition or are inconsistent."""


class DivergenceError(RuntimeError):
    """Iterates left the finite range; carries the last finite trace."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass
class RunConfig:
    """Everything a run needs; derive_* fill theorem-mandated values."""

    scheme: SamplingScheme | None
    eta: float
    m: int = 1                 # inner-loop length (anchored / recursive methods)
    outer: int = 1             # number of outer loops M
    steps: int = 0             # total steps T (memory method)
    d_refresh: float = 0.0     # expected memory-refresh size d = b/alpha
    seed: int = 0
    checkpoint_epochs: float = 1.0
    replicates: int = 1        # convex single-sample variant
    restarts: int = 0          # restart wrapper


@dataclass
class RunTrace:
    """Per-epoch checkpoints plus the method's randomized output iterate."""

    epoch: np.ndarray
    loss: np.ndarray
    grad_norm_sq: np.ndarray
    sgrad_evals: np.ndarray
    wall_ns: np.ndarray
    x_a: np.ndarray
    total_sgrad_evals: int


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    s_draw, s_out = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(s_draw), np.random.default_rng(s_out)


class _Reservoir:
    """Uniform pick over a stream of iterates in O(1) memory, for each run
    that draws from one of ``rngs``.  Every run is offered the same number of
    points, as one array of the runs' points end to end.

    ``size`` is the number of offers to come.  The uniforms of up to
    ``BLOCK`` of them are drawn per run at once, which gives the doubles of
    as many single ``rng.random()`` calls, and never more than ``size`` in
    all, so a run that draws from its stream after the last offer gets the
    doubles it would get with single calls."""

    BLOCK = 256

    def __init__(self, *rngs: np.random.Generator, size: int = 1):
        self.rngs = rngs
        self.left = size
        self.count = 0
        self.value: np.ndarray | None = None
        self.takes: list = []   # per offer still drawn: True, False or a mask

    def offer(self, x: np.ndarray) -> None:
        if not self.takes:
            self._draw()
        take = self.takes.pop()
        self.count += 1
        if take is True:
            self.value = x.copy()
        elif take is not False:
            value = self.value.copy()
            value.reshape(len(self.rngs), -1)[take] = x.reshape(len(self.rngs), -1)[take]
            self.value = value

    def _draw(self) -> None:
        k = max(1, min(self.BLOCK, self.left))
        self.left -= k
        u = np.array([rng.random(k) for rng in self.rngs])
        take = u < 1.0 / np.arange(self.count + 1, self.count + k + 1)
        every, some = take.all(axis=0).tolist(), take.any(axis=0).tolist()
        self.takes = [True if e else (s and take[:, i]) for i, (e, s) in enumerate(zip(every, some))]
        self.takes.reverse()

    def pick(self) -> np.ndarray:
        if self.value is None:
            raise RuntimeError("no iterates offered")
        return self.value


class _Recorder:
    """One run's checkpoints at epoch boundaries and its divergence guard;
    metric evaluations are diagnostic and never counted as stochastic
    gradient work.  ``step``, ``maybe`` and ``finish`` take a run one step
    at a time, counting its evaluations in ``evals``, as the tests' reference
    loops do; the runners' ``_Group`` counts and decides the steps of all of
    its runs at once and calls ``record`` and ``guard``."""

    def __init__(self, problem: Problem, checkpoint_epochs: float = 1.0):
        self.problem = problem
        self.n = problem.dataset.n
        if not (math.isfinite(checkpoint_epochs) and checkpoint_epochs > 0):
            raise ConfigError("checkpoint cadence must be positive and finite")
        # a cadence under half a row still checkpoints once per evaluation
        self.stride = max(1, int(round(checkpoint_epochs * self.n)))
        self.rows: list[tuple[float, float, float, int, int]] = []
        self.t0 = time.perf_counter_ns()
        self.next_at = 0
        self.evals = 0

    def step(self, cost: int, x: np.ndarray) -> None:
        """A step to x that cost ``cost`` evaluations: guard x, then
        checkpoint if one is due."""
        self.evals += cost
        self.guard(x, self.evals)
        self.maybe(self.evals, x)

    def finish(self, x: np.ndarray, x_a: np.ndarray) -> RunTrace:
        """The last checkpoint, at x, then the trace with output ``x_a``."""
        self.record(self.evals, x)
        return self.trace(x_a, self.evals)

    def maybe(self, evals: int, x: np.ndarray) -> None:
        if evals >= self.next_at:
            self.record(evals, x)

    def record(self, evals: int, x: np.ndarray, done: tuple | None = None) -> None:
        """Checkpoint at x, from ``done`` if the pass at x was already made."""
        if self.rows and evals == self.rows[-1][3]:
            return
        (f,), _, g = done or full_pass(self.problem, x)
        gnorm = _sq_norm(g)
        if not (math.isfinite(f) and math.isfinite(gnorm)) or abs(f) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"objective diverged at {evals} evaluations",
                self.trace(np.full(x.shape, np.nan), evals),
            )
        self.rows.append(
            (evals / self.n, f, gnorm, evals, time.perf_counter_ns() - self.t0)
        )
        self.next_at = (evals // self.stride + 1) * self.stride

    def guard(self, x: np.ndarray, evals: int) -> None:
        # vdot is x @ x without numpy's overflow warning; NaN fails the test
        if float(np.vdot(x, x)) <= DIVERGENCE_SCREEN:
            return
        m = float(max(x.max(), -x.min())) if x.size else 0.0  # NaN if x has one
        if not math.isfinite(m) or m > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"iterate diverged at {evals} evaluations",
                self.trace(np.full(x.shape, np.nan), evals),
            )

    def trace(self, x_a: np.ndarray, evals: int) -> RunTrace:
        rows = self.rows or [(0.0, math.nan, math.nan, 0, 0)]
        cols = list(zip(*rows))
        return RunTrace(
            epoch=np.array(cols[0]),
            loss=np.array(cols[1]),
            grad_norm_sq=np.array(cols[2]),
            sgrad_evals=np.array(cols[3], dtype=np.int64),
            wall_ns=np.array(cols[4], dtype=np.int64),
            x_a=np.asarray(x_a, dtype=float),
            total_sgrad_evals=evals,
        )


# ---------------------------------------------------------------------------
# gradient estimators (pure functions of the current state, used both by the
# runners and by the enumeration-based verification suite).  The runners pass
# the rows of ``subset`` already gathered as ``block``, with their weights
# 1/(n p_i) as ``w``; what is not passed is gathered here.  For R runs
# stepped together, x holds their points end to end and ``subset`` their
# rows, run j's offset by j n, with the block's columns offset by j d (see
# ``_chunks``); the anchor state then holds the runs' states end to end too.


@dataclass
class SvrgSnapshot:
    """Anchor state: anchor point, cached per-row loss slopes there, and the
    full gradient; lets an inner step reuse the anchor pass for free."""

    x: np.ndarray
    slopes: np.ndarray
    g: np.ndarray


def _weighted_block(problem: Problem, p: np.ndarray, subset,
                    block: RowBlock | None = None, w: np.ndarray | None = None):
    """The rows of ``subset`` (``block`` if given), their indices and
    importance weights 1/(n p_i) (``w`` if given)."""
    rows = np.asarray(subset, dtype=np.int64)
    if block is None:
        block = problem.dataset.block(rows)
    if w is None:
        w = 1.0 / (problem.dataset.n * p[rows])
    return block, rows, w


def take_snapshot(problem: Problem, x: np.ndarray, done: tuple | None = None) -> SvrgSnapshot:
    """The anchor at x (one point, or several end to end), from the pass
    ``done`` if it was already made there."""
    return SvrgSnapshot(x.copy(), *(done or full_pass(problem, x, value=False))[1:])


def _runs(problem: Problem, x: np.ndarray, rows: np.ndarray) -> list:
    """For each of the points end to end in x: (its coordinates, its part of
    ``rows``), where ``rows`` lists the first point's rows, then the
    second's, each offset by n times its point's index."""
    n, d = problem.dataset.n, problem.dataset.d
    bounds = np.searchsorted(rows, np.arange(x.size // d + 1) * n).tolist()
    return [(slice(j * d, j * d + d), slice(a, b))
            for j, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def svrg_direction(
    problem: Problem, p: np.ndarray, x: np.ndarray, snap: SvrgSnapshot, subset,
    *, block: RowBlock | None = None, w: np.ndarray | None = None,
) -> np.ndarray:
    """sum_{i in S} (grad f_i(x) - grad f_i(anchor)) / (n p_i) + g."""
    block, rows, w = _weighted_block(problem, p, subset, block, w)
    c = w * (row_slopes(problem, block, x) - snap.slopes[rows])
    v = block.scatter(c, x.size)
    v += snap.g
    if problem.mu:
        for run, part in _runs(problem, x, rows):
            v[run] += problem.mu * w[part].sum() * (x[run] - snap.x[run])
    return v


@dataclass
class SagaMemory:
    """Anchor state: the loss slopes at a_i . anchor_i, which reconstruct the
    anchor gradients of linear-composite losses exactly; the anchor vectors
    only when the loss carries a dense mu*x term; and ``g``, the running
    average of the anchor gradients, re-synced by ``run_saga`` every n steps."""

    slopes: np.ndarray
    g: np.ndarray
    anchors: np.ndarray | None = None


def init_saga_memory(problem: Problem, x: np.ndarray, done: tuple | None = None) -> SagaMemory:
    """The memory with every anchor at x (one point, or several end to end:
    rows j n to j n + n - 1 then belong to point j), from the pass ``done``
    if it was already made there."""
    ds = problem.dataset
    anchors = np.repeat(x.reshape(-1, ds.d), ds.n, axis=0) if problem.mu else None
    return SagaMemory(*(done or full_pass(problem, x, value=False))[1:], anchors)


def saga_direction(
    problem: Problem, p: np.ndarray, x: np.ndarray, mem: SagaMemory, subset
) -> np.ndarray:
    """sum_{i in S} (grad f_i(x) - grad f_i(anchor_i)) / (n p_i) + g."""
    block, rows, w = _weighted_block(problem, p, subset)
    c = w * (row_slopes(problem, block, x) - mem.slopes[rows])
    v = block.scatter(c, problem.dataset.d) + mem.g
    if problem.mu:
        v += problem.mu * np.sum(w[:, None] * (x - mem.anchors[rows]), axis=0)
    return v


def saga_refresh(problem: Problem, mem: SagaMemory, x: np.ndarray, refresh) -> None:
    """Move anchors j in ``refresh`` to x and update the running average."""
    ds = problem.dataset
    rows = np.asarray(refresh, dtype=np.int64)
    block = ds.block(rows)
    slopes = row_slopes(problem, block, x)
    mem.g += block.scatter(slopes - mem.slopes[rows], ds.d) / ds.n
    if problem.mu:
        mem.g += problem.mu * np.sum(x - mem.anchors[rows], axis=0) / ds.n
        mem.anchors[rows] = x
    mem.slopes[rows] = slopes


def saga_recompute_average(problem: Problem, mem: SagaMemory) -> np.ndarray:
    """Average of the anchor gradients from scratch (each run's, for a
    memory of several runs end to end), each coordinate summed over the rows
    in index order by ``Dataset.gradient_sums``, as in ``full_gradient``
    (fixed order, no compensation)."""
    ds = problem.dataset
    g = ds.gradient_sums(mem.slopes.reshape(-1, ds.n)).reshape(-1) / ds.n
    if problem.mu:
        sums = [a.sum(axis=0) for a in mem.anchors.reshape(-1, ds.n, ds.d)]
        g += problem.mu * np.concatenate(sums) / ds.n
    return g


def sarah_increment(
    problem: Problem, p: np.ndarray, x: np.ndarray, x_prev: np.ndarray, subset,
    *, block: RowBlock | None = None, w: np.ndarray | None = None,
) -> np.ndarray:
    """sum_{i in S} (grad f_i(x) - grad f_i(x_prev)) / (n p_i)."""
    block, rows, w = _weighted_block(problem, p, subset, block, w)
    # the margins at both points as one (2, |S|) array, so one slope pass
    z = np.concatenate((block.margins(x), block.margins(x_prev))).reshape(2, -1)
    s = _loss_slopes(problem.loss, z, block.labels)
    c = w * (s[0] - s[1])
    v = block.scatter(c, x.size)
    if problem.mu:
        for run, part in _runs(problem, x, rows):
            v[run] += problem.mu * w[part].sum() * (x[run] - x_prev[run])
    return v


# ---------------------------------------------------------------------------
# runners


def _step_entries(problem: Problem, p: np.ndarray, refresh_prob: float = 0.0) -> float:
    """The expected stored entries of one step's rows: its minibatch, plus
    each row with probability ``refresh_prob`` for a refresh set.  Summed
    exactly rounded (``math.fsum``), not by a BLAS dot, so that no thread
    count can change it."""
    return math.fsum(((p + refresh_prob) * np.diff(problem.dataset.indptr)).tolist())


def _chunk_steps(problem: Problem, p: np.ndarray, refresh_prob: float = 0.0) -> int:
    """Steps per look-ahead chunk: LOOKAHEAD_ENTRIES over ``_step_entries``,
    floored, where a quotient within 1e-9 (relative) below an integer counts
    as that integer.  With rows of equal length the expectation is b times
    the row length, an integer, but the rounding of p puts the sum an ulp or
    so either side of it."""
    per_step = max(_step_entries(problem, p, refresh_prob), 1.0)
    return max(1, int(LOOKAHEAD_ENTRIES / per_step * (1.0 + 1e-9)))


def _chunks(problem: Problem, p: np.ndarray, steps: int, draws, refresh_prob: float = 0.0):
    """The look-ahead of R runs stepped together, run j drawing its sets with
    ``draws[j]``: ``draws[j](c)`` draws c steps at a time, one CSR
    ``(indptr, indices)`` pair per set kind (a minibatch, then a refresh
    set).  Yields, for each chunk of ``_chunk_steps(problem, p,
    refresh_prob)`` steps:

    - ``cost``: the (R, c) counts of each run's rows at each step;
    - the chunk's steps, one flat record ``(rows, k, block, bins, w)`` each:
      - ``rows``: the step's sets, kind after kind and, within a kind, run
        after run; run j's rows are offset by j n, and ``k`` counts the
        rows of the first kind;
      - ``block``: their entries, with row numbers local to the step and
        run j's columns offset by j d, so the block reads and writes the
        runs' points end to end (``Dataset.block``'s ``shift``);
      - ``bins``: ``block.cols`` plus (kind) R d, so one ``np.bincount``
        over (kinds) x R d bins scatters every set (None for one kind);
      - ``w``: the weights 1/(n p_i).

    Each run's sets come from its own stream in chunks of the same length
    as when it runs alone, and each bin sums one set's terms in that set's
    order, so a run's numbers do not depend on the other runs.  No draw
    depends on the iterate, so drawing ahead does not change a run; the
    draws do depend on the chunk length.  A chunk holds R times the entries
    of one run's chunk."""
    ds = problem.dataset
    R = len(draws)
    chunk = _chunk_steps(problem, p, refresh_prob)
    for start in range(0, steps, chunk):
        c = min(chunk, steps - start)
        drawn = [draw_chunk(c) for draw_chunk in draws]
        sets = [kind for kinds in zip(*drawn) for kind in kinds]  # set s: kind s // R, run s % R
        sizes = np.diff([ptr for ptr, _ in sets])  # (sets, c)
        if len(sets) == 1:
            rows = sets[0][1]
            full, chunk_bins, w = ds.block(rows), None, 1.0 / (ds.n * p[rows])
        else:
            # each step's rows, set after set: one stable sort on (step, set)
            step = np.repeat(np.tile(np.arange(c), len(sets)), sizes.ravel())
            order = np.argsort(step, kind="stable")
            rows = np.concatenate([idx for _, idx in sets])[order]
            in_set = np.repeat(np.arange(len(sets)), sizes.sum(axis=1))[order]
            w = 1.0 / (ds.n * p[rows])
            full = ds.block(rows, in_set % R * ds.d if R > 1 else None)
            rows = rows + in_set % R * ds.n if R > 1 else rows
            chunk_bins = None
            if len(sets) > R:
                chunk_bins = full.cols + (in_set // R * (R * ds.d))[full.owner]
        per_step = sizes.sum(axis=0)
        yield sizes.reshape(-1, R, c).sum(axis=0), _steps(
            rows, sizes[:R].sum(axis=0).tolist(), full, chunk_bins, w, per_step)


def _steps(rows, ks, full, chunk_bins, w, per_step):
    """A chunk's flat step records (see ``_chunks``)."""
    r = e = 0
    for r1, k, block in zip(np.cumsum(per_step).tolist(), ks, full.split(per_step)):
        e1 = e + block.cols.size
        yield rows[r:r1], k, block, None if chunk_bins is None else chunk_bins[e:e1], w[r:r1]
        r, e = r1, e1


def _lookahead(problem: Problem, p: np.ndarray, steps: int, *draws, refresh_prob: float = 0.0):
    """The step records of ``_chunks``, one after another."""
    for _, records in _chunks(problem, p, steps, draws, refresh_prob):
        yield from records


def _start_iterate(problem: Problem, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(problem.dataset.d)
    x = np.array(x0, dtype=float)
    if x.shape != (problem.dataset.d,):
        raise ValueError("x0 has the wrong dimension")
    return x


class _Diverged(Exception):
    """Run ``index`` of a group stopped with ``error``, a DivergenceError."""

    def __init__(self, index: int, error: DivergenceError):
        super().__init__(index)
        self.index, self.error = index, error


class _Group:
    """R runs of one config, one per seed, stepped together from one start.

    ``x`` holds the runs' iterates end to end: run j's point is
    ``x[j d:(j + 1) d]``.  Each run keeps its own draw and output streams and
    its own ``_Recorder``; the group does the per-step bookkeeping for all
    of them at once: the evaluation counts and the steps at which each run
    checkpoints, once per chunk (``plan``), and per step one screening dot
    over every iterate (``step``).  A run that diverges raises
    ``_Diverged``, which stops the group (see ``_grouped``)."""

    def __init__(self, problem: Problem, x: np.ndarray, runs: int, checkpoint_epochs: float):
        self.problem, self.R = problem, runs
        self.recs = [_Recorder(problem, checkpoint_epochs) for _ in range(runs)]
        self.evals = np.zeros(self.R, dtype=np.int64)
        # one pass at the start serves every run: its checkpoint at 0, and
        # the first anchor (``start``, in the runs' end-to-end form)
        f, slopes, g = full_pass(problem, x)
        for rec in self.recs:
            rec.record(0, x, (f, slopes, g))
        self.start = (f * self.R, np.tile(slopes, self.R), np.tile(g, self.R))
        self.x = np.tile(x, self.R)

    def due(self, cost: int) -> bool:
        """Whether some run checkpoints after ``cost`` more evaluations."""
        return any(e + cost >= rec.next_at for e, rec in zip(self.evals.tolist(), self.recs))

    def plan(self, cost: np.ndarray) -> None:
        """The next ``cost.shape[1]`` steps cost run j ``cost[j, t]``
        evaluations at step t: each run's counts, and at which steps it
        checkpoints (when its count reaches its next multiple of the
        stride, as ``_Recorder.maybe`` decides one step at a time)."""
        stride = self.recs[0].stride
        counts = self.evals[:, None] + np.cumsum(cost, axis=1)
        after = counts // stride
        before = np.empty_like(after)
        before[:, 0] = [rec.next_at // stride - 1 for rec in self.recs]
        before[:, 1:] = after[:, :-1]
        self.counts, self.checks = counts, after > before
        self.checks_at = self.checks.any(axis=0).tolist()
        self.evals = counts[:, -1]

    def step(self, t: int, x: np.ndarray) -> None:
        """Step t of the plan reached x: guard every run, then checkpoint
        the runs due."""
        # vdot is x @ x without numpy's overflow warning; NaN fails the test
        if not float(np.vdot(x, x)) <= DIVERGENCE_SCREEN:
            points = x.reshape(self.R, -1)
            for j, rec in enumerate(self.recs):
                self._guarded(j, rec.guard, points[j], int(self.counts[j, t]))
        if self.checks_at[t]:
            self.checkpoint(np.flatnonzero(self.checks[:, t]), self.counts[:, t], x)

    def charge(self, cost: int, x: np.ndarray, done: tuple) -> None:
        """An anchor pass at x that cost each run ``cost`` evaluations:
        checkpoint the runs due, from ``done``, the pass made there."""
        self.evals = self.evals + cost
        due = [j for j, rec in enumerate(self.recs) if self.evals[j] >= rec.next_at]
        if due:
            self.checkpoint(due, self.evals, x, done)

    def checkpoint(self, runs, counts: np.ndarray, x: np.ndarray, done: tuple | None = None):
        """Checkpoint each of ``runs`` at its count, from one pass over
        their points (or from ``done``, a pass at all of x)."""
        points = x.reshape(self.R, -1)
        if done is None:
            f, _, g = full_pass(self.problem, points[runs])
        else:
            f, g = [done[0][j] for j in runs], done[2].reshape(self.R, -1)[runs]
        for i, j in enumerate(runs):
            self._guarded(j, self.recs[j].record, int(counts[j]), points[j], ([f[i]], None, g[i]))

    def finish(self, x: np.ndarray, x_a: np.ndarray) -> list:
        """The last checkpoints, at x, then each run's trace with its output
        point from ``x_a``."""
        last = [j for j, rec in enumerate(self.recs)
                if not (rec.rows and rec.rows[-1][3] == self.evals[j])]
        if last:
            self.checkpoint(last, self.evals, x)
        out = x_a.reshape(self.R, -1)
        return [rec.trace(out[j], int(self.evals[j])) for j, rec in enumerate(self.recs)]

    @staticmethod
    def _guarded(j: int, call, *args) -> None:
        try:
            call(*args)
        except DivergenceError as exc:
            raise _Diverged(j, exc) from None


def _grouped(body, problem: Problem, config: RunConfig, x0, seeds, need_m: bool = False):
    """Check the config, then run ``body(problem, config, group, draw_rngs,
    out_rngs)`` on a ``_Group`` of one run per seed, with each run's draw and
    output streams, and return each run's RunTrace, or the DivergenceError
    that stopped it, in seed order.  A run that diverges stops the group;
    the other runs then start again without it: runs are pure functions of
    their seeds, so each one's result is that of its run alone."""
    if config.scheme is None or config.scheme.n != problem.dataset.n:
        raise ConfigError("config.scheme must match the problem size")
    if not config.eta > 0.0:
        raise ConfigError("step size must be positive")
    if need_m and config.m < 1:
        raise ConfigError("m must be at least 1")
    x = _start_iterate(problem, x0)
    result = {}
    left = list(range(len(seeds)))
    while left:
        group = _Group(problem, x, len(left), config.checkpoint_epochs)
        streams = zip(*(_streams(seeds[i]) for i in left))
        try:
            result.update(zip(left, body(problem, config, group, *streams)))
            left = []
        except _Diverged as stop:
            result[left.pop(stop.index)] = stop.error
    return [result[i] for i in range(len(seeds))]


def _run(body, problem: Problem, config: RunConfig, x0, seeds, need_m: bool = False):
    """``_grouped`` over ``seeds``; without seeds, the one run of
    ``config.seed``, whose DivergenceError is raised."""
    if seeds is not None:
        return _grouped(body, problem, config, x0, list(seeds), need_m)
    (out,) = _grouped(body, problem, config, x0, [config.seed], need_m)
    if isinstance(out, DivergenceError):
        raise out
    return out


def _draws(rngs, scheme: SamplingScheme, refresh_prob: float | None = None) -> list:
    """Each run's chunk draw from its draw stream in ``rngs``: its
    minibatches, then (with ``refresh_prob``) its refresh sets."""

    def draw_chunk(c, rng):
        subsets = draw(scheme, rng, steps=c)
        if refresh_prob is None:
            return (subsets,)
        return subsets, bernoulli_subset(scheme.n, refresh_prob, rng, steps=c)

    return [functools.partial(draw_chunk, rng=rng) for rng in rngs]


def run_svrg(problem: Problem, config: RunConfig, x0=None, seeds=None):
    """Anchored variance reduction: outer loops of m importance-weighted steps
    around a full-gradient anchor; output drawn uniformly over all iterates.

    With ``seeds``, runs one replicate per seed (``config.seed`` is not
    read), all stepped together, and returns each one's RunTrace, or the
    DivergenceError that stopped it, in seed order: each bit for bit the
    result of that seed's run alone."""
    return _run(_svrg, problem, config, x0, seeds, need_m=True)


def _svrg(problem: Problem, config: RunConfig, group: _Group, draw_rngs, out_rngs) -> list:
    n, x = problem.dataset.n, group.x
    p = config.scheme.p
    res = _Reservoir(*out_rngs, size=1 + config.outer * config.m)
    res.offer(x)
    done = group.start
    for _ in range(config.outer):
        # the anchor's pass also gives the checkpoints due at the anchor
        done = done or full_pass(problem, x, value=group.due(n))
        snap = take_snapshot(problem, x, done)
        group.charge(n, x, done)
        done = None
        for cost, steps in _chunks(problem, p, config.m, _draws(draw_rngs, config.scheme)):
            group.plan(cost)
            for t, (rows, _, block, _, w) in enumerate(steps):
                v = svrg_direction(problem, p, x, snap, rows, block=block, w=w)
                v *= config.eta
                x -= v
                res.offer(x)
                group.step(t, x)
    return group.finish(x, res.pick())


def _saga_step(
    problem: Problem, mem: SagaMemory, x: np.ndarray, rows: np.ndarray, k: int,
    block: RowBlock, bins: np.ndarray, w: np.ndarray,
) -> np.ndarray:
    """Return saga_direction(x, S) and apply saga_refresh(x, R) to ``mem``,
    for S = ``rows[:k]`` and R = ``rows[k:]``, from one margin and slope pass
    over ``rows`` (gathered as ``block`` with scatter ``bins`` and weights
    ``w``) at the pre-step iterate x, and one ``np.bincount`` over 2D bins,
    D = ``x.size``: the direction's scatter in [0, D), the refresh's change
    of the average in [D, 2D).  Rows in both S and R use the memory slopes
    from before the refresh, as the two calls do; every sum adds the same
    terms in the same order, so the result is bit-identical to them, run by
    run when x holds several runs' points (see ``_chunks``)."""
    n, D = problem.dataset.n, x.size
    subset, refresh = rows[:k], rows[k:]
    slopes = row_slopes(problem, block, x)
    c = slopes - mem.slopes[rows]
    c[:k] *= w[:k]
    out = block.scatter(c, 2 * D, bins)
    v = out[:D]
    v += mem.g
    if problem.mu:
        for run, part in _runs(problem, x, subset):
            diff = x[run] - mem.anchors[subset[part]]
            v[run] += problem.mu * np.sum(w[part, None] * diff, axis=0)
    # anchors move to the pre-step iterate
    out[D:] /= n
    mem.g += out[D:]
    if problem.mu:
        for run, part in _runs(problem, x, refresh):
            mem.g[run] += problem.mu * np.sum(x[run] - mem.anchors[refresh[part]], axis=0) / n
            mem.anchors[refresh[part]] = x[run]
    mem.slopes[refresh] = slopes[k:]
    return v


def run_saga(problem: Problem, config: RunConfig, x0=None, seeds=None):
    """Memory-based variance reduction with importance-weighted minibatches
    and an independently refreshed anchor table.

    With ``seeds``, runs one replicate per seed (``config.seed`` is not
    read), all stepped together, and returns each one's RunTrace, or the
    DivergenceError that stopped it, in seed order: each bit for bit the
    result of that seed's run alone."""
    n = problem.dataset.n
    if not 0.0 < config.d_refresh <= n:
        raise ConfigError(f"d_refresh must lie in (0, {n}]")
    return _run(_saga, problem, config, x0, seeds)


def _saga(problem: Problem, config: RunConfig, group: _Group, draw_rngs, out_rngs) -> list:
    n, x = problem.dataset.n, group.x
    p = config.scheme.p
    res = _Reservoir(*out_rngs, size=1 + config.steps)
    res.offer(x)
    mem = init_saga_memory(problem, x, group.start)
    group.charge(n, x, group.start)
    refresh_prob = min(1.0, config.d_refresh / n)
    draws = _draws(draw_rngs, config.scheme, refresh_prob)
    t0 = 0
    for cost, steps in _chunks(problem, p, config.steps, draws, refresh_prob):
        group.plan(cost)
        for t, (rows, k, block, bins, w) in enumerate(steps):
            v = _saga_step(problem, mem, x, rows, k, block, bins, w)
            v *= config.eta
            x -= v
            if (t0 + t + 1) % n == 0:
                mem.g = saga_recompute_average(problem, mem)
            res.offer(x)
            group.step(t, x)
        t0 += cost.shape[1]
    return group.finish(x, res.pick())


def _sarah_loop(problem: Problem, p: np.ndarray, x: np.ndarray, eta: float, m: int,
                draws, group: _Group, done: tuple | None = None):
    """One outer loop of the recursive method from x, for the runs of
    ``group``: the full-gradient step (from the pass ``done`` at x, if made),
    then m - 1 increments over the look-ahead steps of ``draws``, each step
    recorded in ``group``.  Yields every new iterate with its v.

    x is only read.  The loop updates two buffers of its own in place, so the
    next step overwrites the yielded arrays: a consumer copies what it
    keeps."""
    v = full_gradient(problem, x, done)
    x_prev, x = x.copy(), x - eta * v
    group.plan(np.full((group.R, 1), problem.dataset.n))
    group.step(0, x)
    yield x, v
    for cost, steps in _chunks(problem, p, m - 1, draws):
        group.plan(2 * cost)
        for t, (rows, _, block, _, w) in enumerate(steps):
            v += sarah_increment(problem, p, x, x_prev, rows, block=block, w=w)
            # x_prev's buffer takes the new iterate x - eta v
            np.multiply(v, eta, out=x_prev)
            np.subtract(x, x_prev, out=x_prev)
            x_prev, x = x, x_prev
            group.step(t, x)
            yield x, v


def run_sarah(problem: Problem, config: RunConfig, x0=None, seeds=None):
    """Recursive (biased) variance reduction; each outer loop restarts from a
    uniformly chosen iterate of the previous one, and the output is the last
    restart point.

    With ``seeds``, runs one replicate per seed (``config.seed`` is not
    read), all stepped together, and returns each one's RunTrace, or the
    DivergenceError that stopped it, in seed order: each bit for bit the
    result of that seed's run alone."""
    return _run(_sarah, problem, config, x0, seeds, need_m=True)


def _sarah(problem: Problem, config: RunConfig, group: _Group, draw_rngs, out_rngs) -> list:
    x, done = group.x, group.start
    draws = _draws(draw_rngs, config.scheme)
    for _ in range(config.outer):
        inner = _Reservoir(*out_rngs, size=config.m + 1)
        inner.offer(x)
        for x, _ in _sarah_loop(problem, config.scheme.p, x, config.eta, config.m,
                                draws, group, done):
            inner.offer(x)
        x, done = inner.pick(), None
    return group.finish(x, x)


def run_sarah_convex(
    problem: Problem, config: RunConfig, x0=None
) -> tuple[RunTrace, np.ndarray]:
    """Single-sample recursive variant with p_i proportional to L_i.

    Runs ``config.replicates`` independent single-outer-loop trajectories and
    returns the trace of the last one together with the replicate average of
    ||v_t||^2 per step (the quantity whose geometric decay the convex theory
    bounds).
    """
    if config.eta >= 2.0 / problem.Lbar:
        raise ConfigError(
            f"eta = {config.eta:g} violates eta < 2/Lbar = {2.0 / problem.Lbar:g}"
        )
    if not config.eta > 0.0:
        raise ConfigError("step size must be positive")
    if config.m < 1:
        raise ConfigError("m must be at least 1")
    if config.replicates < 1:
        raise ConfigError("replicates must be at least 1")
    x_start = _start_iterate(problem, x0)
    p_cat = problem.L / problem.L.sum()
    # rng.choice(n, p=p_cat)'s picks, without re-checking p and rebuilding
    # the cdf on every step; k doubles in one call are those of k calls
    cdf = np.cumsum(p_cat)
    cdf /= cdf[-1]
    vnorms = np.empty((config.replicates, config.m))
    for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.replicates)):
        rng = np.random.default_rng(child)
        group = _Group(problem, x_start, 1, config.checkpoint_epochs)
        def draw_chunk(k, rng=rng):
            return ((np.arange(k + 1), cdf.searchsorted(rng.random(k), side="right")),)

        steps = _sarah_loop(problem, p_cat, group.x, config.eta, config.m, [draw_chunk],
                            group, group.start)
        try:
            for t, (x, v) in enumerate(steps):
                vnorms[r, t] = float(v @ v)  # a BLAS dot (see README "Determinism")
            (trace,) = group.finish(x, x)
        except _Diverged as stop:
            raise stop.error from None
    return trace, vnorms.mean(axis=0)


def run_gd_wrapper(
    problem: Problem, inner: str, tau: float, config: RunConfig, x0=None
) -> tuple[RunTrace, np.ndarray]:
    """Restart wrapper for gradient-dominated objectives.

    Runs the inner method (``"svrg"``, ``"saga"`` or ``"sarah"``) for its
    theory-mandated budget, restarts from its randomized output, and records
    per-restart objective gaps against the lowest loss recorded so far in
    this call (the restart rows and every inner checkpoint).  ``tau`` is the
    gradient-domination constant; it parameterizes the guarantee, not the
    schedule.
    """
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    if config.restarts < 0:
        raise ConfigError("restarts must be nonnegative")
    runs = {"svrg": run_svrg, "saga": run_saga, "sarah": run_sarah}
    if inner not in runs:
        raise ConfigError(f"unsupported inner method: {inner!r}")
    x = _start_iterate(problem, x0)
    scheme = config.scheme
    if scheme is None or scheme.n != problem.dataset.n:
        raise ConfigError("config.scheme must match the problem size")
    rec = _Recorder(problem)  # holds the per-restart rows only
    rec.record(0, x)
    best = rec.rows[-1][1]
    gaps = [0.0]
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        seed = int(child.generate_state(1)[0])
        t = runs[inner](problem, _wrapper_inner_config(problem, inner, scheme, seed, config), x0=x)
        x = t.x_a
        rec.evals += t.total_sgrad_evals
        rec.record(rec.evals, x)
        f = rec.rows[-1][1]
        best = min(best, float(t.loss.min()), f)
        gaps.append(f - best)
    return rec.trace(x, rec.evals), np.array(gaps)


def _wrapper_inner_config(
    problem: Problem,
    inner: str,
    scheme: SamplingScheme,
    seed: int,
    outer_cfg: RunConfig,
) -> RunConfig:
    n = problem.dataset.n
    cc = compute_alpha(problem.L, scheme)
    alpha, Lbar, b = cc.alpha, cc.Lbar, scheme.b
    if alpha <= 0.0:
        raise ConfigError("full-batch sampling: the restart schedule is undefined")
    if inner == "svrg":
        steps = max(1, math.ceil(alpha * n ** (2.0 / 3.0) / (b * NU2)))
        cfg = derive_svrg_config(problem, scheme, epochs=1.0, seed=seed,
                                 checkpoint_epochs=outer_cfg.checkpoint_epochs)
        cfg.outer = max(1, math.ceil(steps / cfg.m))
        return cfg
    if inner == "saga":
        cfg = derive_saga_config(problem, scheme, epochs=1.0, seed=seed,
                                 checkpoint_epochs=outer_cfg.checkpoint_epochs)
        cfg.steps = max(1, math.ceil(alpha * n ** (2.0 / 3.0) / (b * NU3)))
        return cfg
    # recursive method: solve m + 1 = 2 / eta(m) by fixed-point iteration,
    # with eta(m) the largest admissible step for an m-step inner loop; each
    # iterate is clamped at 1, since a small Lbar would otherwise drive it
    # below -b/(4 alpha), where the square root is undefined
    m = 1.0
    for _ in range(200):
        m_next = max(1.0, Lbar * (1.0 + math.sqrt(1.0 + 4.0 * alpha * m / b)) - 1.0)
        if abs(m_next - m) <= 1e-12 * max(1.0, abs(m)):
            m = m_next
            break
        m = m_next
    m_int = max(1, round(m))
    cfg = derive_sarah_config(problem, scheme, m=m_int, epochs=1.0, seed=seed,
                              checkpoint_epochs=outer_cfg.checkpoint_epochs)
    cfg.outer = 1
    return cfg



# ---------------------------------------------------------------------------
# theorem-driven configuration and cost prediction


def gap_estimate(problem: Problem, x0=None) -> float:
    """f(x0) minus F_LOW, a lower bound on f."""
    x = _start_iterate(problem, x0)
    return max(loss_value(problem, x) - F_LOW, 1e-30)


def _budget(
    problem: Problem, method: str, alpha: float, Lbar: float, b: float,
    per_unit: float, fixed: float, epochs: float | None, epsilon: float | None,
) -> int:
    """How many units (outer loops or steps) of ``per_unit`` evaluations fit
    after a one-off cost of ``fixed`` evaluations: in an ``epochs`` budget
    (rounded down), or in the cost predict_complexity gives for the eps
    target (rounded up)."""
    n = problem.dataset.n
    if epochs is not None:
        return max(1, int((epochs * n - fixed) // per_unit))
    if epsilon is not None:
        total = predict_complexity(method, n, b, alpha, Lbar, gap_estimate(problem), epsilon)
        return max(1, math.ceil((total - fixed) / per_unit))
    raise ConfigError("provide an epochs budget or a target epsilon")


def _theorem_constants(problem: Problem, scheme: SamplingScheme) -> tuple:
    """(alpha, Lbar, b) after checking the anchored and memory theorems'
    preconditions: alpha > 0 and b <= alpha n^(2/3)."""
    cc = compute_alpha(problem.L, scheme)
    if cc.alpha <= 0.0:
        raise ConfigError(
            "sampling has zero variance constant (full batch); "
            "the theorem step size is undefined"
        )
    bound = cc.alpha * problem.dataset.n ** (2.0 / 3.0)
    if scheme.b > bound * (1.0 + 1e-12):
        raise ConfigError(
            f"minibatch size b = {scheme.b:g} violates the precondition "
            f"b <= alpha n^(2/3) = {bound:g}"
        )
    return cc.alpha, cc.Lbar, scheme.b


def derive_svrg_config(
    problem: Problem,
    scheme: SamplingScheme,
    epsilon: float | None = None,
    epochs: float | None = None,
    seed: int = 0,
    checkpoint_epochs: float = 1.0,
) -> RunConfig:
    """Theorem step size eta = mu2 b / (alpha Lbar n^(2/3)) and inner length
    m = floor(n alpha / (3 b mu2)); the outer count comes from an explicit
    epochs budget or from the eps target via predict_complexity."""
    n = problem.dataset.n
    alpha, Lbar, b = _theorem_constants(problem, scheme)
    eta = MU2 * b / (alpha * Lbar * n ** (2.0 / 3.0))
    m = math.floor(n * alpha / (3.0 * b * MU2))
    if m < 1:
        warnings.warn("theorem inner length floored to 0; clipping m to 1")
        m = 1
    outer = _budget(problem, "svrg", alpha, Lbar, b, n + m * b, 0, epochs, epsilon)
    return RunConfig(
        scheme=scheme,
        eta=eta,
        m=m,
        outer=outer,
        seed=seed,
        checkpoint_epochs=checkpoint_epochs,
    )


def derive_saga_config(
    problem: Problem,
    scheme: SamplingScheme,
    epsilon: float | None = None,
    epochs: float | None = None,
    seed: int = 0,
    checkpoint_epochs: float = 1.0,
) -> RunConfig:
    """Step size eta = b / (3 alpha Lbar n^(2/3)) and refresh size d = b/alpha,
    d clipped into (0, n]."""
    n = problem.dataset.n
    alpha, Lbar, b = _theorem_constants(problem, scheme)
    eta = b / (3.0 * alpha * Lbar * n ** (2.0 / 3.0))
    d_refresh = min(b / alpha, float(n))
    # the initial pass over all n rows comes first
    steps = _budget(problem, "saga", alpha, Lbar, b, b + d_refresh, n, epochs, epsilon)
    return RunConfig(
        scheme=scheme,
        eta=eta,
        steps=steps,
        d_refresh=d_refresh,
        seed=seed,
        checkpoint_epochs=checkpoint_epochs,
    )


def derive_sarah_config(
    problem: Problem,
    scheme: SamplingScheme,
    epsilon: float | None = None,
    epochs: float | None = None,
    seed: int = 0,
    m: int | None = None,
    checkpoint_epochs: float = 1.0,
) -> RunConfig:
    """Largest admissible step eta = 2 / (Lbar (sqrt(1 + 4 alpha m / b) + 1));
    the inner length defaults to ceil(n/b) as in the reference experiments."""
    n = problem.dataset.n
    cc = compute_alpha(problem.L, scheme)
    alpha, Lbar, b = cc.alpha, cc.Lbar, scheme.b
    if m is None:
        m = math.ceil(n / b)
    if m < 1:
        raise ConfigError("m must be at least 1")
    eta = 2.0 / (Lbar * (math.sqrt(1.0 + 4.0 * alpha * m / b) + 1.0))
    per_outer = n + 2.0 * b * (m - 1)
    outer = _budget(problem, "sarah", alpha, Lbar, b, per_outer, 0, epochs, epsilon)
    return RunConfig(
        scheme=scheme,
        eta=eta,
        m=m,
        outer=outer,
        seed=seed,
        checkpoint_epochs=checkpoint_epochs,
    )


def derive_sarah_convex_config(
    problem: Problem,
    m: int | None = None,
    eta: float | None = None,
    replicates: int = 1,
    seed: int = 0,
    checkpoint_epochs: float = 1.0,
) -> RunConfig:
    """Single-sample convex variant: eta defaults to the optimal strongly
    convex step 2/(mu + Lbar) (1/Lbar when mu = 0)."""
    if eta is None:
        eta = 2.0 / (problem.mu + problem.Lbar) if problem.mu > 0 else 1.0 / problem.Lbar
    if eta >= 2.0 / problem.Lbar:
        raise ConfigError(
            f"eta = {eta:g} violates eta < 2/Lbar = {2.0 / problem.Lbar:g}"
        )
    if m is None:
        m = problem.dataset.n
    return RunConfig(
        scheme=None,
        eta=eta,
        m=m,
        replicates=replicates,
        seed=seed,
        checkpoint_epochs=checkpoint_epochs,
    )


def predict_complexity(
    method: str,
    n: int,
    b: float,
    alpha: float,
    Lbar: float,
    gap: float,
    epsilon: float,
) -> float:
    """Closed-form stochastic-gradient-evaluation cost of ``method``
    (``"svrg"``, ``"saga"`` or ``"sarah"``) to reach the target
    E||grad f||^2 <= epsilon."""
    if min(n, b, Lbar, gap, epsilon) <= 0 or alpha < 0:
        raise ValueError("all predictor inputs must be positive (alpha >= 0)")
    n23 = n ** (2.0 / 3.0)
    if method == "svrg":
        return max(
            float(n),
            MU2 * Lbar * n23 * gap * (1.0 + alpha / (3.0 * MU2)) / (epsilon * NU2),
        )
    if method == "saga":
        return n + Lbar * n23 * gap * (1.0 + alpha) / (epsilon * NU3)
    if method == "sarah":
        head = 16.0 * alpha * Lbar**2 * gap**2
        root = math.sqrt(head * head + 16.0 * epsilon**2 * Lbar**2 * gap**2 * b**2)
        return n + (head + root) / (2.0 * epsilon**2)
    raise ValueError(f"no complexity formula for method {method!r}")
