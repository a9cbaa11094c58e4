"""Variance-reduced finite-sum methods under arbitrary sampling.

Implements the anchored (SVRG), memory-based (SAGA) and recursive (SARAH)
gradient estimators with importance-weighted minibatches, a restart wrapper
for gradient-dominated objectives, the single-sample convex SARAH variant,
theorem-driven hyperparameter derivation and closed-form cost predictors.

All runs are deterministic per seed: one substream drives the subset draws,
a second drives the uniform-over-iterates output selection, so the iterate
trajectory does not depend on whether an output is being selected.  Each
loop draws its output doubles before it starts (``_Group.choose``), and the
group copies each run's point out at the step it chose.  A convex
replicate, whose output is its last iterate, has only the first stream.

The runs of one config are stepped together as one ``_Group``, which alone
keeps each run's bookkeeping: its count of stochastic-gradient evaluations,
its checkpoints (at the start, at each step or anchor whose count reaches
the next multiple of the stride, and at the end) and its divergence guard,
which also screens the start point.
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

# Each run draws its sets this many steps per draw call (the steps left at
# the end), so its draws depend on its seed and config alone.  A format
# constant: another value gives other sets with the same law.
DRAW_STEPS = 64

# The runners gather the rows of R runs' drawn steps at once, in chunks of
# about R times this many stored entries (see ``_chunks``): it bounds
# memory and changes no result.
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
    replicates: int = 1        # convex variant's runs, stepped together
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


def svrg_direction(
    problem: Problem, p: np.ndarray, x: np.ndarray, snap: SvrgSnapshot, subset,
    *, block: RowBlock | None = None, w: np.ndarray | None = None,
) -> np.ndarray:
    """sum_{i in S} (grad phi_i(x) - grad phi_i(anchor)) / (n p_i) + g
    + mu (x - anchor), with f_i = phi_i + (mu/2)||x||^2: the data parts
    are variance-reduced and the regulariser's gradient mu x is exact."""
    if block is None or w is None:
        block, subset, w = _weighted_block(problem, p, subset, block, w)
    c = w * (row_slopes(problem, block, x) - snap.slopes[subset])
    v = block.scatter(c, x.size)
    v += snap.g
    if problem.mu:
        v += problem.mu * (x - snap.x)
    return v


@dataclass
class SagaMemory:
    """Anchor state: the loss slopes at a_i . anchor_i, which reconstruct the
    anchor gradients of the data parts phi_i of linear-composite losses
    exactly, and ``g``, the running average of those gradients, re-synced by
    ``run_saga`` every n steps.  The regulariser's gradient mu x is exact, so
    the memory holds no anchor vectors."""

    slopes: np.ndarray
    g: np.ndarray


def init_saga_memory(problem: Problem, x: np.ndarray, done: tuple | None = None) -> SagaMemory:
    """The memory with every anchor at x (one point, or several end to end:
    rows j n to j n + n - 1 then belong to point j), from the pass ``done``
    if it was already made there."""
    _, slopes, g = done or full_pass(problem, x, value=False)
    return SagaMemory(slopes, g - problem.mu * x if problem.mu else g)


def saga_direction(
    problem: Problem, p: np.ndarray, x: np.ndarray, mem: SagaMemory, subset
) -> np.ndarray:
    """sum_{i in S} (grad phi_i(x) - grad phi_i(anchor_i)) / (n p_i) + g
    + mu x, with f_i = phi_i + (mu/2)||x||^2."""
    block, rows, w = _weighted_block(problem, p, subset)
    c = w * (row_slopes(problem, block, x) - mem.slopes[rows])
    v = block.scatter(c, problem.dataset.d) + mem.g
    if problem.mu:
        v += problem.mu * x
    return v


def saga_refresh(problem: Problem, mem: SagaMemory, x: np.ndarray, refresh) -> None:
    """Move anchors j in ``refresh`` to x and update the running average."""
    ds = problem.dataset
    rows = np.asarray(refresh, dtype=np.int64)
    block = ds.block(rows)
    slopes = row_slopes(problem, block, x)
    mem.g += block.scatter(slopes - mem.slopes[rows], ds.d) / ds.n
    mem.slopes[rows] = slopes


def saga_recompute_average(problem: Problem, mem: SagaMemory) -> np.ndarray:
    """Average of the anchor gradients of the data parts from scratch (each
    run's, for a memory of several runs end to end), each coordinate summed
    over the rows in index order by ``Dataset.gradient_sums``, as in
    ``full_gradient`` (fixed order, no compensation)."""
    ds = problem.dataset
    return ds.gradient_sums(mem.slopes.reshape(-1, ds.n)).reshape(-1) / ds.n


def sarah_increment(
    problem: Problem, p: np.ndarray, x: np.ndarray, x_prev: np.ndarray, subset,
    *, block: RowBlock | None = None, w: np.ndarray | None = None,
) -> np.ndarray:
    """sum_{i in S} (grad f_i(x) - grad f_i(x_prev)) / (n p_i)."""
    if block is None or w is None:
        block, subset, w = _weighted_block(problem, p, subset, block, w)
    # the margins at both points as one (2, |S|) array, so one slope pass
    z = np.empty((2, block.size))
    z[0], z[1] = block.margins(x), block.margins(x_prev)
    s = _loss_slopes(problem.loss, z, block.labels)
    c = w * (s[0] - s[1])
    v = block.scatter(c, x.size)
    if problem.mu:
        # mu W_j (x_j - x_prev_j) for each run j (its rows offset by j n, see _Chunk).
        # reduceat adds a segment's first term to the pairwise sum of the rest, so a
        # 0 leads each segment: W_j has the bits of w[S_j].sum(), and 0 if S_j is empty
        runs = np.arange(x.size // problem.dataset.d)
        starts = np.searchsorted(subset, runs * problem.dataset.n)
        W = np.add.reduceat(np.insert(w, starts, 0.0), starts + runs)
        v += np.repeat(problem.mu * W, problem.dataset.d) * (x - x_prev)
    return v


# ---------------------------------------------------------------------------
# runners


@dataclass(slots=True)
class _Chunk:
    """One look-ahead chunk, flat (see ``_chunks``).  Step t has rows
    ``rb[t]:rb[t + 1]`` of ``rows``, ``w`` and ``block`` and entries
    ``eb[t]:eb[t + 1]`` of ``block``, ``owner`` and ``bins``.  ``rows``
    holds each step's sets, kind after kind and, within a kind, run after
    run, run j's offset by j n (its columns in ``block`` by j d, so that
    the block reads and writes the runs' points end to end); ``ks[t]``
    counts step t's rows of the first kind, and ``w`` their weights
    1/(n p_i).  ``owner`` numbers each entry's row within its step, and
    ``bins`` is ``block.cols`` plus (kind) R d, so that one ``np.bincount``
    over (kinds) x R d bins scatters every set of a step (None for one)."""

    rows: np.ndarray
    ks: list
    block: RowBlock
    owner: np.ndarray
    bins: np.ndarray | None
    w: np.ndarray
    rb: list
    eb: list

    def step(self, t: int) -> tuple:
        """Step t's (rows, their ``RowBlock`` of views, weights)."""
        r0, r1, e0, e1 = self.rb[t], self.rb[t + 1], self.eb[t], self.eb[t + 1]
        b = self.block
        view = RowBlock(r1 - r0, self.owner[e0:e1], b.cols[e0:e1], b.vals[e0:e1], b.labels[r0:r1])
        return self.rows[r0:r1], view, self.w[r0:r1]


def _chunks(problem: Problem, p: np.ndarray, steps: int, draws):
    """The look-ahead of R runs stepped together, run j drawing its sets with
    ``draws[j]``: ``draws[j](c)`` draws c steps at a time, one CSR
    ``(indptr, indices)`` pair per set kind (a minibatch, then a refresh
    set), ``DRAW_STEPS`` steps per call (the steps left at the end).  Each
    drawn block is gathered in as few chunks of equal steps as hold about R
    ``LOOKAHEAD_ENTRIES`` stored entries, counted exactly from the drawn
    rows' lengths.  Yields, for each chunk of c steps, ``cost``, the (R, c)
    counts of each run's rows at each step, and its rows as one ``_Chunk``.

    A run draws as it does alone, each bin sums one set's terms in that
    set's order, and a step's numbers do not depend on the steps gathered
    with it, so a run's numbers depend neither on the other runs nor on
    ``LOOKAHEAD_ENTRIES``.  No draw depends on the iterate, so drawing ahead
    does not change a run."""
    ds = problem.dataset
    R = len(draws)
    for start in range(0, steps, DRAW_STEPS):
        c = min(DRAW_STEPS, steps - start)
        drawn = [draw_block(c) for draw_block in draws]
        sets = [kind for kinds in zip(*drawn) for kind in kinds]  # set s: kind s // R, run s % R
        sizes = np.diff([ptr for ptr, _ in sets])  # (sets, c)
        rows = sets[0][1]
        if len(sets) > 1:
            # each step's rows, set after set: one stable sort on (step, set)
            step = np.repeat(np.tile(np.arange(c), len(sets)), sizes.ravel())
            order = np.argsort(step, kind="stable")
            rows = np.concatenate([idx for _, idx in sets])[order]
            in_set = np.repeat(np.arange(len(sets)), sizes.sum(axis=1))[order]
        rb = np.concatenate(([0], np.cumsum(sizes.sum(axis=0))))
        ks = sizes[:R].sum(axis=0).tolist()
        entries = int((ds.indptr[rows + 1] - ds.indptr[rows]).sum())
        pieces = max(1, -(-entries // (R * LOOKAHEAD_ENTRIES)))  # ceiling divisions
        length = -(-c // pieces)
        for a in range(0, c, length):
            b = min(a + length, c)
            r0, r1 = rb[a], rb[b]
            piece, part = rows[r0:r1], in_set[r0:r1] if len(sets) > 1 else None
            w = 1.0 / (ds.n * p[piece])
            full = ds.block(piece, part % R * ds.d if R > 1 else None)
            bins = full.cols + (part // R * (R * ds.d))[full.owner] if len(sets) > R else None
            if R > 1:
                piece = piece + part % R * ds.n
            # first entry of each step (owner never decreases; steps may be empty)
            sb = rb[a:b + 1] - r0
            eb = np.searchsorted(full.owner, sb)
            owner = full.owner - np.repeat(sb[:-1], np.diff(eb))
            yield sizes[:, a:b].reshape(-1, R, b - a).sum(axis=0), _Chunk(
                piece, ks[a:b], full, owner, bins, w, sb.tolist(), eb.tolist())


def _start_iterate(problem: Problem, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(problem.dataset.d)
    x = np.array(x0, dtype=float)
    if x.shape != (problem.dataset.d,):
        raise ValueError("x0 has the wrong dimension")
    return x


def _diverged(x: np.ndarray) -> bool:
    """Whether an entry of x is NaN, infinite or past DIVERGENCE_LIMIT in
    absolute value: one screening dot, and the exact test behind it."""
    # vdot is x @ x without numpy's overflow warning; NaN fails the screen,
    # and an empty x passes it
    if float(np.vdot(x, x)) <= DIVERGENCE_SCREEN:
        return False
    return not float(max(x.max(), -x.min())) <= DIVERGENCE_LIMIT


class _Diverged(Exception):
    """Run ``index`` of a group stopped with ``error``, a DivergenceError."""

    def __init__(self, index: int, error: DivergenceError):
        super().__init__(index)
        self.index, self.error = index, error


class _Group:
    """R runs of one config, one per seed, stepped together from one start.

    ``x`` holds the runs' iterates end to end: run j's point is
    ``x[j d:(j + 1) d]``.  Each run keeps its own streams; the group keeps
    every run's bookkeeping, on one clock: its evaluation count (``evals``),
    its checkpoint rows and its divergence guard.  Metric evaluations are
    diagnostic and never counted.  A run checkpoints at the start, at each
    step whose count // stride rises (``plan``, once per chunk; ``charge``
    plans an anchor pass as one step), and at the end (``finish``).  The
    group also picks the step at which each run keeps its output point, once
    per loop (``choose``), and per step guards every iterate with one
    screening dot and copies the points kept (``step``).  A run that
    diverges raises ``_Diverged``, which stops the group (see ``_grouped``);
    a start that diverges raises its DivergenceError, since the runs share
    it."""

    # the output doubles that ``choose`` holds per run at a time
    BLOCK = 4096

    def __init__(self, problem: Problem, x: np.ndarray, runs: int, checkpoint_epochs: float):
        if not (math.isfinite(checkpoint_epochs) and checkpoint_epochs > 0):
            raise ConfigError("checkpoint cadence must be positive and finite")
        self.problem, self.R = problem, runs
        # a cadence under half a row still checkpoints once per evaluation;
        # one past 2^62 evaluations, which no run reaches, checkpoints only
        # at the start and the end, with a stride that fits plan's int64 //
        self.stride = max(1, int(round(min(checkpoint_epochs * problem.dataset.n, 2.0**62))))
        self.rows = [[] for _ in range(runs)]  # each run's (epoch, f, ||grad f||^2, evals, wall_ns)
        self.evals = np.zeros(runs, dtype=np.int64)
        self.offered, self.keep = 0, {}
        self.t0 = time.perf_counter_ns()
        if _diverged(x):
            raise self._stop(0, "iterate", 0).error
        # one pass at the start serves every run: its checkpoint at 0, and
        # the first anchor (``start``, in the runs' end-to-end form)
        f, slopes, g = full_pass(problem, x)
        self.start = (f * runs, np.tile(slopes, runs), np.tile(g, runs))
        self.x = np.tile(x, runs)
        try:
            self.checkpoint(range(runs), self.evals, self.x, self.start)
        except _Diverged as stop:
            raise stop.error from None

    def choose(self, rngs, offers: int, x: np.ndarray) -> None:
        """Choose each run's output among ``offers`` points: x, then its
        point after each of the next ``offers - 1`` steps, which ``step``
        copies into ``out`` as they come.  Run j draws one double u_i per
        offer i from ``rngs[j]``, ``BLOCK`` at a time (k doubles in one call
        are those of k calls), and keeps the last offer with u_i < 1/(i + 1),
        which is uniform over the offers and is the point a one-point
        reservoir fed the same doubles keeps."""
        chosen = np.zeros(self.R, dtype=np.int64)
        for a in range(0, offers, self.BLOCK):
            i = np.arange(a, min(a + self.BLOCK, offers))
            take = np.array([rng.random(i.size) for rng in rngs]) < 1.0 / (i + 1)
            last = i[-1] - np.argmax(take[:, ::-1], axis=1)
            chosen = np.where(take.any(axis=1), last, chosen)
        self.out, self.offered, self.keep = x.copy(), 0, {}
        for j, i in enumerate(chosen.tolist()):
            if i:
                self.keep.setdefault(i, []).append(j)

    def plan(self, cost: np.ndarray) -> None:
        """The next ``cost.shape[1]`` steps cost run j ``cost[j, t]``
        evaluations at step t: each run's counts, and the steps at which it
        checkpoints, those at which its count // stride rises (once, however
        many multiples of the stride the step passes)."""
        counts = self.evals[:, None] + np.cumsum(cost, axis=1)
        marks = np.concatenate(((self.evals // self.stride)[:, None], counts // self.stride), axis=1)
        self.counts, self.checks = counts, np.diff(marks, axis=1) > 0
        self.checks_at = self.checks.any(axis=0).tolist()
        self.evals = counts[:, -1]

    def charge(self, cost: int) -> bool:
        """Plan an anchor pass that costs each run ``cost`` evaluations, as
        one step; whether some run checkpoints there (``checkpoint_due``)."""
        self.plan(np.full((self.R, 1), cost))
        return self.checks_at[0]

    def step(self, t: int, x: np.ndarray) -> None:
        """Step t of the plan reached x: keep the points chosen here, guard
        every run, then checkpoint the runs due."""
        self.offered += 1
        kept = self.keep.get(self.offered)
        if kept:
            self.out.reshape(self.R, -1)[kept] = x.reshape(self.R, -1)[kept]
        if _diverged(x):
            points = x.reshape(self.R, -1)
            j = next(j for j in range(self.R) if _diverged(points[j]))
            raise self._stop(j, "iterate", int(self.counts[j, t]))
        self.checkpoint_due(t, x)

    def checkpoint_due(self, t: int, x: np.ndarray, done: tuple | None = None) -> None:
        """Checkpoint at x the runs due at step t of the plan, from ``done``
        if the pass at x was already made."""
        if self.checks_at[t]:
            self.checkpoint(np.flatnonzero(self.checks[:, t]), self.counts[:, t], x, done)

    def checkpoint(self, runs, counts: np.ndarray, x: np.ndarray, done: tuple | None = None):
        """Checkpoint each of ``runs`` at its count, from one pass over
        their points (or from ``done``, a pass at all of x); a run whose f
        or ||grad f||^2 left the finite range diverges."""
        points = x.reshape(self.R, -1)
        if done is None:
            f, _, g = full_pass(self.problem, points[runs])
        else:
            f, g = [done[0][j] for j in runs], done[2].reshape(self.R, -1)[runs]
        for fj, gj, j in zip(f, g, runs):
            evals, gnorm = int(counts[j]), _sq_norm(gj)
            if not (math.isfinite(fj) and math.isfinite(gnorm)) or abs(fj) > DIVERGENCE_LIMIT:
                raise self._stop(j, "objective", evals)
            self.rows[j].append((evals / self.problem.dataset.n, fj, gnorm, evals,
                                 time.perf_counter_ns() - self.t0))

    def finish(self, x: np.ndarray, x_a: np.ndarray) -> list:
        """The last checkpoints, at x, then each run's trace with its output
        point from ``x_a``."""
        last = [j for j in range(self.R) if self.rows[j][-1][3] != self.evals[j]]
        if last:
            self.checkpoint(last, self.evals, x)
        out = x_a.reshape(self.R, -1)
        return [self.trace(j, out[j], int(self.evals[j])) for j in range(self.R)]

    def trace(self, j: int, x_a: np.ndarray, evals: int) -> RunTrace:
        """Run j's checkpoints so far, its output x_a and its count."""
        cols = list(zip(*(self.rows[j] or [(0.0, math.nan, math.nan, 0, 0)])))
        return RunTrace(
            epoch=np.array(cols[0]),
            loss=np.array(cols[1]),
            grad_norm_sq=np.array(cols[2]),
            sgrad_evals=np.array(cols[3], dtype=np.int64),
            wall_ns=np.array(cols[4], dtype=np.int64),
            x_a=np.asarray(x_a, dtype=float),
            total_sgrad_evals=evals,
        )

    def _stop(self, j: int, what: str, evals: int) -> _Diverged:
        """Run j's ``what`` left the finite range at ``evals`` evaluations:
        its trace keeps the checkpoints before, and its output is NaN."""
        trace = self.trace(j, np.full(self.problem.dataset.d, np.nan), evals)
        return _Diverged(j, DivergenceError(f"{what} diverged at {evals} evaluations", trace))


def _grouped(body, problem: Problem, config: RunConfig, x0, seeds, counts, streams=_streams):
    """Check the config, whose fields named in ``counts`` are loop counts
    (each at least 1), then run ``body(problem, config, group, *rngs)`` on a
    ``_Group`` of one run per seed, with each run's streams from
    ``streams(seed)`` (by default its draw and output streams), and return
    each run's result, or the DivergenceError that stopped it, in seed
    order.  A run that diverges stops the group; the other runs then start
    again without it: runs are pure functions of their seeds, so each one's
    result is that of its run alone.  A start that diverges raises its
    DivergenceError: every run shares it."""
    if not config.eta > 0.0:
        raise ConfigError("step size must be positive")
    for name in counts:
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be at least 1")
    x = _start_iterate(problem, x0)
    result = {}
    left = list(range(len(seeds)))
    while left:
        group = _Group(problem, x, len(left), config.checkpoint_epochs)
        rngs = zip(*(streams(seeds[i]) for i in left))
        try:
            result.update(zip(left, body(problem, config, group, *rngs)))
            left = []
        except _Diverged as stop:
            result[left.pop(stop.index)] = stop.error
    return [result[i] for i in range(len(seeds))]


def _run(body, problem: Problem, config: RunConfig, x0, seeds, counts):
    """``_grouped`` over ``seeds``; without seeds, the one run of
    ``config.seed``, whose DivergenceError is raised."""
    if config.scheme is None or config.scheme.n != problem.dataset.n:
        raise ConfigError("config.scheme must match the problem size")
    if seeds is not None:
        return _grouped(body, problem, config, x0, list(seeds), counts)
    (out,) = _grouped(body, problem, config, x0, [config.seed], counts)
    if isinstance(out, DivergenceError):
        raise out
    return out


def _draws(rngs, scheme: SamplingScheme, refresh_prob: float | None = None) -> list:
    """Each run's block draw from its draw stream in ``rngs``: its
    minibatches, then (with ``refresh_prob``) its refresh sets."""

    def draw_block(c, rng):
        subsets = draw(scheme, rng, steps=c)
        if refresh_prob is None:
            return (subsets,)
        return subsets, bernoulli_subset(scheme.n, refresh_prob, rng, steps=c)

    return [functools.partial(draw_block, rng=rng) for rng in rngs]


def run_svrg(problem: Problem, config: RunConfig, x0=None, seeds=None):
    """Anchored variance reduction: outer loops of m importance-weighted steps
    around a full-gradient anchor; output drawn uniformly over all iterates.

    With ``seeds``, runs one replicate per seed (``config.seed`` is not
    read), all stepped together, and returns each one's RunTrace, or the
    DivergenceError that stopped it, in seed order: each bit for bit the
    result of that seed's run alone."""
    return _run(_svrg, problem, config, x0, seeds, ("m", "outer"))


def _svrg(problem: Problem, config: RunConfig, group: _Group, draw_rngs, out_rngs) -> list:
    n, x = problem.dataset.n, group.x
    p = config.scheme.p
    group.choose(out_rngs, 1 + config.outer * config.m, x)
    done = group.start
    draws = _draws(draw_rngs, config.scheme)
    for _ in range(config.outer):
        # the anchor's pass also gives the checkpoints due at the anchor
        due = group.charge(n)
        done = done or full_pass(problem, x, value=due)
        snap = take_snapshot(problem, x, done)
        group.checkpoint_due(0, x, done)
        done = None
        for cost, ch in _chunks(problem, p, config.m, draws):
            group.plan(cost)
            for t in range(cost.shape[1]):
                rows, block, w = ch.step(t)
                v = svrg_direction(problem, p, x, snap, rows, block=block, w=w)
                v *= config.eta
                x -= v
                group.step(t, x)
    return group.finish(x, group.out)


def _saga_step(problem: Problem, mem: SagaMemory, x: np.ndarray, ch: _Chunk, t: int) -> np.ndarray:
    """Return saga_direction(x, S) and apply saga_refresh(x, R) to ``mem``,
    for step t of chunk ``ch``: S is its first ``ch.ks[t]`` rows and R the
    rest.  One margin and slope pass over the step's rows at the pre-step
    iterate x, and one ``np.bincount`` over 2D bins, D = ``x.size``: the
    direction's scatter in [0, D), the refresh's change of the average in
    [D, 2D).  Rows in both S and R use the memory slopes from before the
    refresh, as the two calls do; every sum adds the same terms in the same
    order, so the result is bit-identical to them, run by run when x holds
    several runs' points (see ``_chunks``)."""
    n, D, k = problem.dataset.n, x.size, ch.ks[t]
    rows, block, w = ch.step(t)
    slopes = row_slopes(problem, block, x)
    c = slopes - mem.slopes[rows]
    c[:k] *= w[:k]
    out = block.scatter(c, 2 * D, ch.bins[ch.eb[t]:ch.eb[t + 1]])
    v = out[:D]
    v += mem.g
    if problem.mu:
        v += problem.mu * x
    # anchors move to the pre-step iterate
    out[D:] /= n
    mem.g += out[D:]
    mem.slopes[rows[k:]] = slopes[k:]
    return v


def run_saga(problem: Problem, config: RunConfig, x0=None, seeds=None):
    """Memory-based variance reduction with importance-weighted minibatches
    and independently refreshed anchors, kept as one loss slope per row.

    With ``seeds``, runs one replicate per seed (``config.seed`` is not
    read), all stepped together, and returns each one's RunTrace, or the
    DivergenceError that stopped it, in seed order: each bit for bit the
    result of that seed's run alone."""
    n = problem.dataset.n
    if not 0.0 < config.d_refresh <= n:
        raise ConfigError(f"d_refresh must lie in (0, {n}]")
    return _run(_saga, problem, config, x0, seeds, ("steps",))


def _saga(problem: Problem, config: RunConfig, group: _Group, draw_rngs, out_rngs) -> list:
    n, x = problem.dataset.n, group.x
    p = config.scheme.p
    group.choose(out_rngs, 1 + config.steps, x)
    mem = init_saga_memory(problem, x, group.start)
    group.charge(n)
    group.checkpoint_due(0, x, group.start)
    refresh_prob = min(1.0, config.d_refresh / n)
    draws = _draws(draw_rngs, config.scheme, refresh_prob)
    t0 = 0
    for cost, ch in _chunks(problem, p, config.steps, draws):
        group.plan(cost)
        for t in range(cost.shape[1]):
            v = _saga_step(problem, mem, x, ch, t)
            v *= config.eta
            x -= v
            if (t0 + t + 1) % n == 0:
                mem.g = saga_recompute_average(problem, mem)
            group.step(t, x)
        t0 += cost.shape[1]
    return group.finish(x, group.out)


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
    group.charge(problem.dataset.n)
    group.step(0, x)
    yield x, v
    for cost, ch in _chunks(problem, p, m - 1, draws):
        group.plan(2 * cost)
        for t in range(cost.shape[1]):
            rows, block, w = ch.step(t)
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
    return _run(_sarah, problem, config, x0, seeds, ("m", "outer"))


def _sarah(problem: Problem, config: RunConfig, group: _Group, draw_rngs, out_rngs) -> list:
    x, done, p = group.x, group.start, config.scheme.p
    draws = _draws(draw_rngs, config.scheme)
    for _ in range(config.outer):
        group.choose(out_rngs, config.m + 1, x)
        for _ in _sarah_loop(problem, p, x, config.eta, config.m, draws, group, done):
            pass
        x, done = group.out, None
    return group.finish(x, x)


def run_sarah_convex(
    problem: Problem, config: RunConfig, x0=None
) -> tuple[RunTrace, np.ndarray]:
    """Single-sample recursive variant with p_i proportional to L_i.

    Runs ``config.replicates`` independent single-outer-loop trajectories
    together and returns the trace of the last one with the replicate
    average of ||v_t||^2 per step (the quantity whose geometric decay the
    convex theory bounds); raises the first one's DivergenceError.
    """
    if config.eta >= 2.0 / problem.Lbar:
        raise ConfigError(
            f"eta = {config.eta:g} violates eta < 2/Lbar = {2.0 / problem.Lbar:g}"
        )
    if config.replicates < 1:
        raise ConfigError("replicates must be at least 1")
    p_cat = problem.L / problem.L.sum()
    # rng.choice(n, p=p_cat)'s picks, without re-checking p and rebuilding
    # the cdf on every step; k doubles in one call are those of k calls
    cdf = np.cumsum(p_cat)
    cdf /= cdf[-1]

    def draw_block(k, rng):
        return ((np.arange(k + 1), cdf.searchsorted(rng.random(k), side="right")),)

    def body(problem, config, group, rngs):
        draws = [functools.partial(draw_block, rng=rng) for rng in rngs]
        vnorms = np.empty((config.m, group.R))  # each run's _sq_norm(v), row by row
        steps = _sarah_loop(problem, p_cat, group.x, config.eta, config.m, draws, group, group.start)
        for t, (x, v) in enumerate(steps):
            vnorms[t] = np.add.reduce((v * v).reshape(group.R, -1), axis=1)
        return list(zip(group.finish(x, x), vnorms.T))

    children = np.random.SeedSequence(config.seed).spawn(config.replicates)
    outs = _grouped(body, problem, config, x0, children, ("m",),
                    streams=lambda child: (np.random.default_rng(child),))
    for out in outs:
        if isinstance(out, DivergenceError):
            raise out
    return outs[-1][0], np.array([vnorms for _, vnorms in outs]).mean(axis=0)


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
    group = _Group(problem, x, 1, 1.0)  # holds the per-restart rows only
    rows = group.rows[0]
    best = rows[-1][1]
    gaps = [0.0]
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        seed = int(child.generate_state(1)[0])
        t = runs[inner](problem, _wrapper_inner_config(problem, inner, scheme, seed, config), x0=x)
        x = t.x_a
        group.evals += t.total_sgrad_evals
        try:
            group.checkpoint([0], group.evals, x)
        except _Diverged as stop:
            raise stop.error from None
        f = rows[-1][1]
        best = min(best, float(t.loss.min()), f)
        gaps.append(f - best)
    (trace,) = group.finish(x, x)
    return trace, np.array(gaps)


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
