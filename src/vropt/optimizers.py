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

import enum
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .problems import (
    Problem,
    RowBlock,
    _loss_slopes,
    full_gradient,
    loss_value,
    row_slopes,
    slopes_and_gradient,
)
from .sampling import SamplingScheme, bernoulli_subset, compute_alpha, draw

MU2 = 0.25        # step constant of the anchored method's theorem
NU2 = 1.0 / 40.0  # rate constant of the anchored method's theorem
NU3 = 1.0 / 12.0  # rate constant of the memory method's theorem

DIVERGENCE_LIMIT = 1e100

# Lower bound on f that gap_estimate measures from: both losses are
# nonnegative.
F_LOW = 0.0

# The runners draw steps ahead and gather their rows at once, in chunks of
# about this many stored entries (see ``_lookahead``).
LOOKAHEAD_ENTRIES = 1 << 13


class Method(enum.Enum):
    SVRG = "svrg"
    SAGA = "saga"
    SARAH = "sarah"


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


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed).spawn(index + 1)[index].generate_state(1)[0])


class _Reservoir:
    """Uniform pick over a stream of iterates in O(1) memory."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.count = 0
        self.value: np.ndarray | None = None

    def offer(self, x: np.ndarray) -> None:
        self.count += 1
        if self.rng.random() < 1.0 / self.count:
            self.value = x.copy()

    def pick(self) -> np.ndarray:
        if self.value is None:
            raise RuntimeError("no iterates offered")
        return self.value


class _Recorder:
    """Checkpoints at epoch boundaries; metric evaluations are diagnostic and
    never counted as stochastic gradient work."""

    def __init__(self, problem: Problem, checkpoint_epochs: float = 1.0):
        self.problem = problem
        self.n = problem.dataset.n
        self.stride = max(1, int(round(checkpoint_epochs * self.n)))
        self.rows: list[tuple[float, float, float, int, int]] = []
        self.t0 = time.perf_counter_ns()
        self.next_at = 0

    def maybe(self, evals: int, x: np.ndarray) -> None:
        if evals >= self.next_at:
            self.record(evals, x)

    def record(self, evals: int, x: np.ndarray) -> None:
        if self.rows and evals == self.rows[-1][3]:
            return
        f = loss_value(self.problem, x)
        g = full_gradient(self.problem, x)
        gnorm = float(g @ g)
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
# the rows of ``subset`` already gathered as ``block``; without it they are
# gathered here.


@dataclass
class SvrgSnapshot:
    """Anchor state: anchor point, cached per-row loss slopes there, and the
    full gradient; lets an inner step reuse the anchor pass for free."""

    x: np.ndarray
    slopes: np.ndarray
    g: np.ndarray


def _gathered(problem: Problem, subset, block: RowBlock | None):
    """The indices of ``subset`` and their rows (``block`` if given)."""
    rows = np.asarray(subset, dtype=np.int64)
    return (problem.dataset.block(rows) if block is None else block), rows


def _weighted_block(problem: Problem, p: np.ndarray, subset, block: RowBlock | None):
    """The rows of ``subset``, their indices and importance weights 1/(n p_i)."""
    block, rows = _gathered(problem, subset, block)
    return block, rows, 1.0 / (problem.dataset.n * p[rows])


def take_snapshot(problem: Problem, x: np.ndarray) -> SvrgSnapshot:
    return SvrgSnapshot(x.copy(), *slopes_and_gradient(problem, x))


def svrg_direction(
    problem: Problem, p: np.ndarray, x: np.ndarray, snap: SvrgSnapshot, subset,
    *, block: RowBlock | None = None,
) -> np.ndarray:
    """sum_{i in S} (grad f_i(x) - grad f_i(anchor)) / (n p_i) + g."""
    block, rows, w = _weighted_block(problem, p, subset, block)
    c = w * (row_slopes(problem, block, x) - snap.slopes[rows])
    v = block.scatter(c, problem.dataset.d) + snap.g
    if problem.mu:
        v += problem.mu * w.sum() * (x - snap.x)
    return v


@dataclass
class SagaMemory:
    """Anchor state: the loss slopes at a_i . anchor_i, which reconstruct the
    anchor gradients of linear-composite losses exactly; the anchor vectors
    only when the loss carries a dense mu*x term; and ``g``, the running
    average of the anchor gradients, re-synced every n refreshes."""

    slopes: np.ndarray
    g: np.ndarray
    anchors: np.ndarray | None = None


def init_saga_memory(problem: Problem, x: np.ndarray) -> SagaMemory:
    anchors = np.tile(x, (problem.dataset.n, 1)) if problem.mu else None
    return SagaMemory(*slopes_and_gradient(problem, x), anchors)


def saga_direction(
    problem: Problem, p: np.ndarray, x: np.ndarray, mem: SagaMemory, subset,
    *, block: RowBlock | None = None,
) -> np.ndarray:
    """sum_{i in S} (grad f_i(x) - grad f_i(anchor_i)) / (n p_i) + g."""
    block, rows, w = _weighted_block(problem, p, subset, block)
    c = w * (row_slopes(problem, block, x) - mem.slopes[rows])
    v = block.scatter(c, problem.dataset.d) + mem.g
    if problem.mu:
        v += problem.mu * np.sum(w[:, None] * (x - mem.anchors[rows]), axis=0)
    return v


def saga_refresh(
    problem: Problem, mem: SagaMemory, x: np.ndarray, refresh,
    *, block: RowBlock | None = None,
) -> None:
    """Move anchors j in ``refresh`` to x and update the running average."""
    ds = problem.dataset
    block, rows = _gathered(problem, refresh, block)
    slopes = row_slopes(problem, block, x)
    mem.g += block.scatter(slopes - mem.slopes[rows], ds.d) / ds.n
    if problem.mu:
        mem.g += problem.mu * np.sum(x - mem.anchors[rows], axis=0) / ds.n
        mem.anchors[rows] = x
    mem.slopes[rows] = slopes


def saga_recompute_average(problem: Problem, mem: SagaMemory) -> np.ndarray:
    """Average of the anchor gradients from scratch, each coordinate summed
    over the rows in index order by ``np.bincount`` as in ``full_gradient``
    (fixed order, no compensation)."""
    ds = problem.dataset
    g = ds.block().scatter(mem.slopes, ds.d) / ds.n
    if problem.mu:
        g += problem.mu * mem.anchors.sum(axis=0) / ds.n
    return g


def sarah_increment(
    problem: Problem, p: np.ndarray, x: np.ndarray, x_prev: np.ndarray, subset,
    *, block: RowBlock | None = None,
) -> np.ndarray:
    """sum_{i in S} (grad f_i(x) - grad f_i(x_prev)) / (n p_i)."""
    block, _, w = _weighted_block(problem, p, subset, block)
    # the margins at both points as one (2, |S|) array, so one slope pass
    z = np.concatenate((block.margins(x), block.margins(x_prev))).reshape(2, -1)
    s = _loss_slopes(problem.loss, z, block.labels)
    c = w * (s[0] - s[1])
    v = block.scatter(c, problem.dataset.d)
    if problem.mu:
        v += problem.mu * w.sum() * (x - x_prev)
    return v


# ---------------------------------------------------------------------------
# runners


def _chunk_steps(problem: Problem, p: np.ndarray, refresh_prob: float = 0.0) -> int:
    """Steps per look-ahead chunk: LOOKAHEAD_ENTRIES over the expected stored
    entries of one step's rows (its minibatch, plus each row with probability
    ``refresh_prob`` for a refresh set)."""
    per_step = float((p + refresh_prob) @ np.diff(problem.dataset.indptr))
    return max(1, int(LOOKAHEAD_ENTRIES // max(per_step, 1.0)))


def _lookahead(problem: Problem, steps: int, chunk: int, draw_step):
    """Yield, for each of ``steps`` steps, the tuple of row-index arrays that
    ``draw_step()`` returns and a list of their gathered rows, in that order.

    The steps are drawn in order, ``chunk`` at a time, and each chunk's rows
    are gathered by one ``Dataset.block`` call and split into per-array
    views.  No draw depends on the iterate, so the random streams, and hence
    the runs, are the same as when every step draws and gathers its own."""
    for start in range(0, steps, chunk):
        drawn = [draw_step() for _ in range(min(chunk, steps - start))]
        sets = [s for step in drawn for s in step]
        views = problem.dataset.block(np.concatenate(sets)).split([s.size for s in sets])
        k = 0
        for step in drawn:
            yield step, views[k:k + len(step)]
            k += len(step)


def _start_iterate(problem: Problem, x0) -> np.ndarray:
    if x0 is None:
        return np.zeros(problem.dataset.d)
    x = np.array(x0, dtype=float)
    if x.shape != (problem.dataset.d,):
        raise ValueError("x0 has the wrong dimension")
    return x


def _check_config(problem: Problem, config: RunConfig, need_m: bool = False) -> None:
    if config.scheme is None or config.scheme.n != problem.dataset.n:
        raise ConfigError("config.scheme must match the problem size")
    if config.eta <= 0.0:
        raise ConfigError("step size must be positive")
    if need_m and config.m < 1:
        raise ConfigError("m must be at least 1")


def run_svrg(problem: Problem, config: RunConfig, x0=None) -> RunTrace:
    """Anchored variance reduction: outer loops of m importance-weighted steps
    around a full-gradient anchor; output drawn uniformly over all iterates."""
    _check_config(problem, config, need_m=True)
    scheme = config.scheme
    n = problem.dataset.n
    rng_draw, rng_out = _streams(config.seed)
    x = _start_iterate(problem, x0)
    rec = _Recorder(problem, config.checkpoint_epochs)
    res = _Reservoir(rng_out)
    rec.record(0, x)
    res.offer(x)
    p = scheme.p
    chunk = _chunk_steps(problem, p)
    evals = 0
    for _ in range(config.outer):
        snap = take_snapshot(problem, x)
        evals += n
        rec.maybe(evals, x)
        steps = _lookahead(problem, config.m, chunk, lambda: (draw(scheme, rng_draw),))
        for (subset,), (block,) in steps:
            v = svrg_direction(problem, p, x, snap, subset, block=block)
            x = x - config.eta * v
            evals += subset.size
            res.offer(x)
            rec.guard(x, evals)
            rec.maybe(evals, x)
    rec.record(evals, x)
    return rec.trace(res.pick(), evals)


def run_saga(problem: Problem, config: RunConfig, x0=None) -> RunTrace:
    """Memory-based variance reduction with importance-weighted minibatches
    and an independently refreshed anchor table."""
    _check_config(problem, config)
    scheme = config.scheme
    n = problem.dataset.n
    if not 0.0 < config.d_refresh <= n:
        raise ConfigError(f"d_refresh must lie in (0, {n}]")
    rng_draw, rng_out = _streams(config.seed)
    x = _start_iterate(problem, x0)
    rec = _Recorder(problem, config.checkpoint_epochs)
    res = _Reservoir(rng_out)
    rec.record(0, x)
    res.offer(x)
    mem = init_saga_memory(problem, x)
    evals = n
    rec.maybe(evals, x)
    p = scheme.p
    refresh_prob = min(1.0, config.d_refresh / n)

    def draw_step():
        subset = draw(scheme, rng_draw)
        return subset, bernoulli_subset(n, refresh_prob, rng_draw)

    chunk = _chunk_steps(problem, p, refresh_prob)
    steps = _lookahead(problem, config.steps, chunk, draw_step)
    for t, ((subset, refresh), (block, refresh_block)) in enumerate(steps):
        v = saga_direction(problem, p, x, mem, subset, block=block)
        x_prev = x
        x = x - config.eta * v
        # anchors move to the pre-step iterate
        saga_refresh(problem, mem, x_prev, refresh, block=refresh_block)
        evals += subset.size + refresh.size
        if (t + 1) % n == 0:
            mem.g = saga_recompute_average(problem, mem)
        res.offer(x)
        rec.guard(x, evals)
        rec.maybe(evals, x)
    rec.record(evals, x)
    return rec.trace(res.pick(), evals)


def run_sarah(problem: Problem, config: RunConfig, x0=None) -> RunTrace:
    """Recursive (biased) variance reduction; each outer loop restarts from a
    uniformly chosen iterate of the previous one, and the output is the last
    restart point."""
    _check_config(problem, config, need_m=True)
    scheme = config.scheme
    n = problem.dataset.n
    rng_draw, rng_out = _streams(config.seed)
    x = _start_iterate(problem, x0)
    rec = _Recorder(problem, config.checkpoint_epochs)
    rec.record(0, x)
    p = scheme.p
    chunk = _chunk_steps(problem, p)
    evals = 0
    for _ in range(config.outer):
        inner = _Reservoir(rng_out)
        inner.offer(x)
        v = full_gradient(problem, x)
        evals += n
        x_prev = x
        x = x - config.eta * v
        inner.offer(x)
        rec.guard(x, evals)
        rec.maybe(evals, x)
        steps = _lookahead(problem, config.m - 1, chunk, lambda: (draw(scheme, rng_draw),))
        for (subset,), (block,) in steps:
            v = v + sarah_increment(problem, p, x, x_prev, subset, block=block)
            x_prev = x
            x = x - config.eta * v
            evals += 2 * subset.size
            inner.offer(x)
            rec.guard(x, evals)
            rec.maybe(evals, x)
        x = inner.pick()
    rec.record(evals, x)
    return rec.trace(x, evals)


def _sarah_convex_once(
    problem: Problem,
    eta: float,
    m: int,
    p_cat: np.ndarray,
    rng: np.random.Generator,
    x0: np.ndarray,
    checkpoint_epochs: float,
) -> tuple[np.ndarray, RunTrace]:
    n = problem.dataset.n
    # rng.choice(n, p=p_cat)'s pick, without re-checking p and rebuilding
    # the cdf on every step
    cdf = np.cumsum(p_cat)
    cdf /= cdf[-1]
    x = x0.copy()
    rec = _Recorder(problem, checkpoint_epochs)
    rec.record(0, x)
    v = full_gradient(problem, x)
    evals = n
    vnorms = np.empty(m)
    vnorms[0] = float(v @ v)
    x_prev = x
    x = x - eta * v
    rec.guard(x, evals)
    rec.maybe(evals, x)
    for t in range(1, m):
        i = int(cdf.searchsorted(rng.random(), side="right"))
        v = v + sarah_increment(problem, p_cat, x, x_prev, [i])
        vnorms[t] = float(v @ v)
        x_prev = x
        x = x - eta * v
        evals += 2
        rec.guard(x, evals)
        rec.maybe(evals, x)
    rec.record(evals, x)
    return vnorms, rec.trace(x, evals)


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
    if config.m < 1:
        raise ConfigError("m must be at least 1")
    x_start = _start_iterate(problem, x0)
    p_cat = problem.L / problem.L.sum()
    reps = max(1, config.replicates)
    children = np.random.SeedSequence(config.seed).spawn(reps)
    vnorms = np.empty((reps, config.m))
    for r in range(reps):
        rng = np.random.default_rng(children[r])
        vnorms[r], trace = _sarah_convex_once(
            problem, config.eta, config.m, p_cat, rng, x_start, config.checkpoint_epochs
        )
    return trace, vnorms.mean(axis=0)


def run_gd_wrapper(
    problem: Problem, inner: Method | str, tau: float, config: RunConfig, x0=None
) -> tuple[RunTrace, np.ndarray]:
    """Restart wrapper for gradient-dominated objectives.

    Runs the inner method for its theory-mandated budget, restarts from its
    randomized output, and records per-restart objective gaps against the
    lowest loss recorded so far in this call (the restart rows and every
    inner checkpoint).  ``tau`` is the gradient-domination constant; it
    parameterizes the guarantee, not the schedule.
    """
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    inner = Method(inner) if not isinstance(inner, Method) else inner
    if inner not in (Method.SVRG, Method.SAGA, Method.SARAH):
        raise ConfigError(f"unsupported inner method: {inner}")
    x = _start_iterate(problem, x0)
    scheme = config.scheme
    if scheme is None or scheme.n != problem.dataset.n:
        raise ConfigError("config.scheme must match the problem size")
    rec = _Recorder(problem)  # holds the per-restart rows only
    evals = 0
    rec.record(evals, x)
    best = rec.rows[-1][1]
    gaps = [0.0]
    for k in range(config.restarts):
        seed_k = _child_seed(config.seed, k)
        inner_cfg = _wrapper_inner_config(problem, inner, scheme, seed_k, config)
        if inner is Method.SVRG:
            t = run_svrg(problem, inner_cfg, x0=x)
        elif inner is Method.SAGA:
            t = run_saga(problem, inner_cfg, x0=x)
        else:
            t = run_sarah(problem, inner_cfg, x0=x)
        x = t.x_a
        evals += t.total_sgrad_evals
        rec.record(evals, x)
        f = rec.rows[-1][1]
        best = min(best, float(t.loss.min()), f)
        gaps.append(f - best)
    return rec.trace(x, evals), np.array(gaps)


def _wrapper_inner_config(
    problem: Problem,
    inner: Method,
    scheme: SamplingScheme,
    seed: int,
    outer_cfg: RunConfig,
) -> RunConfig:
    n = problem.dataset.n
    cc = compute_alpha(problem.L, scheme)
    alpha, Lbar, b = cc.alpha, cc.Lbar, scheme.b
    if alpha <= 0.0:
        raise ConfigError("full-batch sampling: the restart schedule is undefined")
    if inner is Method.SVRG:
        steps = max(1, math.ceil(alpha * n ** (2.0 / 3.0) / (b * NU2)))
        cfg = derive_svrg_config(problem, scheme, epochs=1.0, seed=seed,
                                 checkpoint_epochs=outer_cfg.checkpoint_epochs)
        cfg.outer = max(1, math.ceil(steps / cfg.m))
        return cfg
    if inner is Method.SAGA:
        cfg = derive_saga_config(problem, scheme, epochs=1.0, seed=seed,
                                 checkpoint_epochs=outer_cfg.checkpoint_epochs)
        cfg.steps = max(1, math.ceil(alpha * n ** (2.0 / 3.0) / (b * NU3)))
        return cfg
    # recursive method: solve m + 1 = 2 / eta(m) by fixed-point iteration,
    # with eta(m) the largest admissible step for an m-step inner loop
    m = 1.0
    for _ in range(200):
        m_next = Lbar * (1.0 + math.sqrt(1.0 + 4.0 * alpha * m / b)) - 1.0
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
    problem: Problem, method: Method, alpha: float, Lbar: float, b: float,
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
    m: int | None = None,
    checkpoint_epochs: float = 1.0,
) -> RunConfig:
    """Theorem step size eta = mu2 b / (alpha Lbar n^(2/3)) and inner length
    m = floor(n alpha / (3 b mu2)); the outer count comes from an explicit
    epochs budget or from the eps target via predict_complexity."""
    n = problem.dataset.n
    alpha, Lbar, b = _theorem_constants(problem, scheme)
    eta = MU2 * b / (alpha * Lbar * n ** (2.0 / 3.0))
    if m is None:
        m = math.floor(n * alpha / (3.0 * b * MU2))
        if m < 1:
            warnings.warn("theorem inner length floored to 0; clipping m to 1")
            m = 1
    outer = _budget(problem, Method.SVRG, alpha, Lbar, b, n + m * b, 0, epochs, epsilon)
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
    steps = _budget(problem, Method.SAGA, alpha, Lbar, b, b + d_refresh, n, epochs, epsilon)
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
    outer = _budget(problem, Method.SARAH, alpha, Lbar, b, per_outer, 0, epochs, epsilon)
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
    method: Method | str,
    n: int,
    b: float,
    alpha: float,
    Lbar: float,
    gap: float,
    epsilon: float,
) -> float:
    """Closed-form stochastic-gradient-evaluation cost to reach the target
    E||grad f||^2 <= epsilon."""
    if min(n, b, Lbar, gap, epsilon) <= 0 or alpha < 0:
        raise ValueError("all predictor inputs must be positive (alpha >= 0)")
    method = Method(method) if not isinstance(method, Method) else method
    n23 = n ** (2.0 / 3.0)
    if method is Method.SVRG:
        return max(
            float(n),
            MU2 * Lbar * n23 * gap * (1.0 + alpha / (3.0 * MU2)) / (epsilon * NU2),
        )
    if method is Method.SAGA:
        return n + Lbar * n23 * gap * (1.0 + alpha) / (epsilon * NU3)
    if method is Method.SARAH:
        head = 16.0 * alpha * Lbar**2 * gap**2
        root = math.sqrt(head * head + 16.0 * epsilon**2 * Lbar**2 * gap**2 * b**2)
        return n + (head + root) / (2.0 * epsilon**2)
    raise ValueError(f"no complexity formula for method {method}")
