"""Random-subset samplers over {0,...,n-1} with separable variance certificates.

Three sampling laws are supported: the uniform fixed-size minibatch, the
independent (per-index coin flip) sampling, and a two-stage approximation of
the independent sampling.  Each carries a vector ``v`` certifying the matrix
inequality ``P - p p^T <= Diag(p * v)``, which is what makes the variance
constants ``K`` and ``alpha`` computable in closed form.

``draw(scheme, rng, steps=k)`` draws k independent subsets in one call and
returns them as CSR ``(indptr, indices)``, each subset sorted; a single
``draw`` is the k = 1 case.  A call costs O(k b) expected work, not O(k n),
with the exact law of its kind, and pays numpy's fixed per-call cost once
for all k subsets.  A scheme builds its index plan once, at construction,
and every draw uses only exact ``Generator`` primitives (integers,
``choice``, ``geometric`` and uniforms compared against a probability):

- uniform: k x b integers, each row sorted, and the rows holding a repeat
  drawn again (rejection); for a single subset, or above
  ``REJECTION_LIMIT`` on b(b-1)/2n where rejection would retry too often,
  Floyd's algorithm (``Generator.choice``) per subset;
- independent: per class of similar p_i, one Bernoulli process with
  geometric skips (Devroye, *Non-Uniform Random Variate Generation*, 1986,
  ch. VI) over k x (class size) positions, whose quotient by the class size
  is the subset; then one thinning to each p_i, and one sort by (subset,
  index) when the classes or the p_i = 1 indices must be merged;
- two-stage: uniform a-subsets of the fractional indices through the
  uniform path (the limit applies to a(a-1)/2k), thinned.

``bernoulli_subset`` draws the i.i.d. Bernoulli(q) subsets that refresh the
memory method's anchors with the same walk, k subsets at a time.  ``draw``
states the measured cost per subset.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .common import whole

MATRIX_CAP = 64          # dense probability matrices are for verification only
PSD_TOL = 1e-10          # absolute tolerance on the smallest eigenvalue
SMOOTHNESS_FLOOR = 1e-12  # L_i below floor*max(L) are lifted before use
CLASS_RATIO = 8.0        # a class's coin-flip candidates are <= this times its expected picks
REJECTION_LIMIT = 0.5    # uniform subsets by rejection while b(b-1)/2n is at most this


class SamplingKind(enum.Enum):
    UNIFORM_MINIBATCH = "uniform-minibatch"
    INDEPENDENT = "independent"
    APPROX_INDEPENDENT = "approx-independent"


@dataclass(frozen=True)
class DrawPlan:
    """Index arrays a scheme's draws reuse, built once per scheme.

    ``members`` holds the fractional (``p_i < 1``) indices and ``full`` the
    indices with ``p_i = 1``.  A candidate at position j of ``members`` is
    kept with probability ``keep[j]``.  For the independent kind, members
    are grouped into classes ``(rate, start, stop)`` over ``members``: a
    Bernoulli(rate) process proposes the candidates of each class.
    """

    members: np.ndarray
    keep: np.ndarray
    full: np.ndarray
    classes: tuple = ()


@dataclass(frozen=True)
class SamplingScheme:
    """Immutable description of a random-subset law.

    ``p`` holds the marginal inclusion probabilities, ``b = sum(p)`` the
    expected minibatch size, ``k`` the number of entries with ``p_i < 1``,
    ``a`` the first-stage subset size (approximate kind only) and ``v`` the
    separable variance certificate, in the closed form that the kind's
    constructor states.  ``plan`` is derived from the other fields at
    construction (see ``DrawPlan``).
    """

    kind: SamplingKind
    n: int
    p: np.ndarray
    b: float
    k: int
    v: np.ndarray
    a: int | None = None
    plan: DrawPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "plan", _draw_plan(self))


@dataclass(frozen=True)
class ComplexityConstants:
    """Variance constants governing the step sizes and rates."""

    K: float
    alpha: float
    Lbar: float


def _readonly(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _check_finite(values: np.ndarray, name: str) -> None:
    """Reject the first NaN or infinite entry of ``values``, as ``name``_i."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{name}_{i} = {values[i]} is not finite")


def _check_proper(p: np.ndarray) -> None:
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be a non-empty 1-d array")
    _check_finite(p, "inclusion probability p")
    if np.any(p <= 0.0):
        raise ValueError("sampling must be proper: all p_i > 0")
    if np.any(p > 1.0):
        raise ValueError("inclusion probabilities must satisfy p_i <= 1")


def floor_smoothness(L) -> np.ndarray:
    """Lift tiny smoothness constants to ``SMOOTHNESS_FLOOR * max(L)``.

    Keeps every importance probability strictly positive; lifting an L_i
    is always sound since L-smooth implies L'-smooth for L' >= L.
    """
    L = np.asarray(L, dtype=float)
    if L.size == 0:
        raise ValueError("empty smoothness vector")
    eps = SMOOTHNESS_FLOOR * float(L.max())
    return np.maximum(L, eps)


def uniform_minibatch(n: int, b) -> SamplingScheme:
    """Uniform law over all b-subsets of {0,...,n-1} (fixed cardinality),
    with certificate v_i = (n - b)/(n - 1) (0 when n = 1)."""
    n = whole(n, "n must be a whole number")
    if n < 1:
        raise ValueError("n must be positive")
    b = whole(b, "uniform minibatch sampling requires an integer b")
    if not 1 <= b <= n:
        raise ValueError(f"minibatch size must lie in [1, {n}], got {b}")
    p = np.full(n, b / n)
    # b is read back as sum(p), which can differ from the integer b in the
    # last bits; the step sizes derived from v depend on those bits
    v = np.full(n, (n - float(p.sum())) / (n - 1.0)) if n > 1 else np.zeros(1)
    return SamplingScheme(
        kind=SamplingKind.UNIFORM_MINIBATCH,
        n=n,
        p=_readonly(p),
        b=float(b),
        k=n if b < n else 0,
        v=_readonly(v),
    )


def independent(p) -> SamplingScheme:
    """Independent sampling: index i included by its own coin with prob p_i,
    with certificate v_i = 1 - p_i."""
    p = np.asarray(p, dtype=float)
    _check_proper(p)
    return SamplingScheme(
        kind=SamplingKind.INDEPENDENT,
        n=p.size,
        p=_readonly(p),
        b=float(p.sum()),
        k=int((p < 1.0).sum()),
        v=_readonly(1.0 - p),
    )


def approximate_independent(p) -> SamplingScheme:
    """Two-stage approximation of independent sampling with the same marginals.

    Draws a uniform a-subset of the k fractional indices and thins it with
    per-index probabilities k*p_i/a; indices with p_i = 1 are always kept.
    Its certificate is v_i = 1 - p_i (1 - s) with s = (k - a)/(a (k - 1))
    on the fractional indices and 0 on the rest.  Degenerate
    parameterizations (k <= 1, or a = k where the law coincides with the
    independent one) fall back to an independent scheme.
    """
    p = np.asarray(p, dtype=float)
    _check_proper(p)
    frac = p < 1.0
    k = int(frac.sum())
    if k <= 1:
        return independent(p)
    a = math.ceil(k * float(p[frac].max()))
    if a >= k:
        return independent(p)
    s = (k - a) / (a * (k - 1.0))
    v = np.zeros(p.size)
    v[frac] = 1.0 - p[frac] * (1.0 - s)
    b = float(p.sum())
    if a < b + k - p.size - 1e-9:
        raise ValueError("inconsistent approximate sampling: a < b + k - n")
    return SamplingScheme(
        kind=SamplingKind.APPROX_INDEPENDENT,
        n=p.size,
        p=_readonly(p),
        b=b,
        k=k,
        v=_readonly(v),
        a=a,
    )


def optimal_probabilities(L, b) -> np.ndarray:
    """Importance probabilities minimizing the variance constant alpha.

    Solves min sum L_i^2/p_i subject to sum p = b, 0 < p_i <= 1: sort L
    ascending, scan k downward from n for the largest k with
    0 < b + k - n <= sum_{i<=k} L_i / L_k, set p_i = (b+k-n) L_i / sum_{j<=k} L_j
    for the k smallest constants and p_i = 1 for the rest, then undo the sort.
    """
    L = np.asarray(L, dtype=float)
    n = L.size
    if n == 0:
        raise ValueError("empty smoothness vector")
    if not 0.0 < float(b) <= n:
        raise ValueError(f"minibatch size must lie in (0, {n}], got {b}")
    _check_finite(L, "smoothness constant L")
    if np.any(L <= 0.0):
        raise ValueError("all smoothness constants must be positive")
    L = floor_smoothness(L)
    b = float(b)
    order = np.argsort(L, kind="stable")
    Ls = L[order]
    csum = np.cumsum(Ls)
    k = None
    for kk in range(n, 0, -1):
        r = b + kk - n
        if r <= 0.0:
            break
        if r <= csum[kk - 1] / Ls[kk - 1]:
            k = kk
            break
    if k is None:
        # k = n - b + 1 always satisfies the condition, so this is unreachable
        # for valid inputs; guard against pathological float inputs anyway.
        raise ValueError("no feasible support size found")
    ps = np.ones(n)
    ps[:k] = (b + k - n) * Ls[:k] / csum[k - 1]
    np.minimum(ps, 1.0, out=ps)
    p = np.empty(n)
    p[order] = ps
    return p


def compute_alpha(L, scheme: SamplingScheme) -> ComplexityConstants:
    """Variance constants K = (b/n^2) sum v_i L_i^2 / p_i and alpha = K / Lbar^2."""
    L = np.asarray(L, dtype=float)
    if L.size != scheme.n:
        raise ValueError("smoothness vector length does not match scheme")
    K = scheme.b / scheme.n**2 * float(np.sum(scheme.v * L**2 / scheme.p))
    Lbar = float(L.mean())
    return ComplexityConstants(K=K, alpha=K / Lbar**2, Lbar=Lbar)


def _index_array(idx) -> np.ndarray:
    out = np.asarray(idx, dtype=np.int64)
    out.setflags(write=False)
    return out


_NO_INDICES = _index_array(())
_UNIFORM_PLAN = DrawPlan(members=_NO_INDICES, keep=_readonly(()), full=_NO_INDICES)


def _probability_classes(p: np.ndarray, frac: np.ndarray):
    """Group the fractional indices into classes of similar p_i.

    Walking p in descending order, each class runs from its largest p_i
    (its rate) as far as its candidates (members x rate) stay within
    CLASS_RATIO times its expected picks (the sum of its p_i), so a draw
    proposes at most CLASS_RATIO * b candidates in expectation.
    """
    if frac.size == 0:
        return frac, np.empty(0), ()
    ps = p[frac]
    rate = float(ps.max())
    if frac.size * rate <= CLASS_RATIO * ps.sum():
        # one class holds them all, in any order
        return frac, ps / rate, ((rate, 0, frac.size),)
    order = np.argsort(-ps, kind="stable")
    members = frac[order]
    ps = ps[order]
    keep = np.empty(ps.size)
    classes = []
    start = 0
    while start < ps.size:
        rate = float(ps[start])
        # excess of candidates over CLASS_RATIO x picks, for each class end
        excess = rate * np.arange(1, ps.size - start + 1) - CLASS_RATIO * np.cumsum(ps[start:])
        stop = start + int(np.flatnonzero(excess <= 0.0)[-1]) + 1
        keep[start:stop] = ps[start:stop] / rate
        classes.append((rate, start, stop))
        start = stop
    return members, keep, tuple(classes)


def _draw_plan(scheme: SamplingScheme) -> DrawPlan:
    if scheme.kind is SamplingKind.UNIFORM_MINIBATCH:
        return _UNIFORM_PLAN  # Floyd's algorithm needs no index arrays
    p = scheme.p
    frac = np.flatnonzero(p < 1.0)
    full = _index_array(np.flatnonzero(p >= 1.0))
    if scheme.kind is SamplingKind.INDEPENDENT:
        members, keep, classes = _probability_classes(p, frac)
        return DrawPlan(_index_array(members), _readonly(keep), full, classes)
    return DrawPlan(_index_array(frac), _readonly(scheme.k * p[frac] / scheme.a), full)


def _bernoulli_walk(m: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions in [0, m), each included independently with
    probability q: a Bernoulli process walked by geometric skips, so the
    work is O(m q) expected, not O(m).  Skips are drawn a batch at a time
    until the walk passes m; the batch is 4 standard deviations above the
    mean count, so a second round is rare."""
    if q >= 1.0:
        return np.arange(m)
    mean = m * q
    batch = int(mean + 4.0 * math.sqrt(mean)) + 4
    parts = []
    last = -1
    while True:
        gaps = rng.geometric(q, size=batch)
        # a gap beyond the end ends the walk; clipping keeps the sums from overflowing
        np.minimum(gaps, m + 1, out=gaps)
        gaps[0] += last
        pos = np.cumsum(gaps)
        if pos[-1] >= m:
            parts.append(pos[: pos.searchsorted(m)])
            break
        parts.append(pos)
        last = int(pos[-1])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _by_step(steps: int, n: int, step: np.ndarray, idx: np.ndarray, full: np.ndarray,
             ordered: bool) -> tuple[np.ndarray, np.ndarray]:
    """The picks ``idx[j]`` of step ``step[j]``, plus the indices ``full`` in
    every one of ``steps`` steps, as (step, index) arrays in (step, index)
    order.  ``ordered`` says the picks already run in that order; otherwise
    one sort of the keys step * n + index puts them there."""
    if full.size or not ordered:
        key = step * n + idx
        if full.size:
            key = np.concatenate((key, (np.arange(steps)[:, None] * n + full).ravel()))
        key.sort()
        step, idx = np.divmod(key, n)
    return step, idx


def _uniform_rows(n: int, b: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """A (steps, b) array of independent uniform b-subsets of {0,...,n-1},
    each row sorted.

    Each row is b uniform integers, sorted; a row that holds a repeat is
    drawn again, so a kept row is uniform over the sorted b-subsets
    (rejection).  A row is kept with probability prod_{j<b} (1 - j/n), about
    exp(-b(b-1)/2n), so when b(b-1)/2n exceeds REJECTION_LIMIT the rows are
    drawn one at a time by Floyd's algorithm (``Generator.choice``) instead;
    so is a lone row, for which one ``choice`` call costs less than one
    round of rejection.
    """
    if steps == 1 or b * (b - 1) > 2.0 * REJECTION_LIMIT * n:
        out = np.empty((steps, b), dtype=np.int64)
        for row in out:
            row[:] = rng.choice(n, b, replace=False, shuffle=False)
        out.sort(axis=1)
        return out
    out = rng.integers(0, n, size=(steps, b), dtype=np.int64)
    out.sort(axis=1)
    repeats = out[:, 1:] == out[:, :-1]
    if repeats.any():
        redo = np.flatnonzero(repeats.any(axis=1))
        while redo.size:
            rows = rng.integers(0, n, size=(redo.size, b), dtype=np.int64)
            rows.sort(axis=1)
            out[redo] = rows
            redo = redo[(rows[:, 1:] == rows[:, :-1]).any(axis=1)]
    return out


def _class_walks(plan: DrawPlan, steps: int, rng: np.random.Generator):
    """The candidates of ``steps`` independent draws as (step, position in
    ``plan.members``) arrays: per class, one Bernoulli(rate) walk over
    steps x (class size) positions, each split by ``divmod`` into its step
    and its member; classes follow one another."""
    if not plan.classes:
        return _NO_INDICES, _NO_INDICES
    walks = []
    for rate, start, stop in plan.classes:
        step, j = np.divmod(_bernoulli_walk(steps * (stop - start), rate, rng), stop - start)
        if start:
            j += start
        walks.append((step, j))
    if len(walks) == 1:
        return walks[0]
    step, j = zip(*walks)
    return np.concatenate(step), np.concatenate(j)


def bernoulli_subset(n: int, q: float, rng: np.random.Generator, steps: int | None = None):
    """Each of the indices {0,...,n-1} independently with probability q, as a
    sorted int64 array; O(n q) expected work (q = 1 gives them all).

    With ``steps=k``, k independent such subsets as CSR ``(indptr, indices)``:
    step s holds ``indices[indptr[s]:indptr[s + 1]]``.  They come from one
    Bernoulli walk over k n positions, each position split by ``divmod`` into
    its step and index; a single subset is the indices of the k = 1 case."""
    if steps is None:
        return bernoulli_subset(n, q, rng, steps=1)[1]
    if not 0.0 < q <= 1.0:
        raise ValueError(f"inclusion probability must lie in (0, 1], got {q}")
    step, idx = np.divmod(_bernoulli_walk(steps * n, q, rng), n)
    return np.searchsorted(step, np.arange(steps + 1)), idx


def draw(scheme: SamplingScheme, rng: np.random.Generator, steps: int | None = None):
    """Draw one subset; returns a sorted int64 array of included indices.

    With ``steps=k``, draws k independent subsets at once and returns them as
    CSR ``(indptr, indices)``: step s holds the sorted
    ``indices[indptr[s]:indptr[s + 1]]``.  A single draw returns the indices
    of the k = 1 case, so both calls run the same code.  The k sets of one
    call follow the law of k single draws but use the stream differently, so
    the sets drawn depend on how many steps each call draws.

    Expected work is O(k b) (plus O(number of classes) for the independent
    kind), so the time hardly moves with n, and numpy's fixed per-call cost
    (about 1 us a call) is paid once per call, not once per set.  Measured
    on a 2-vCPU VM (numpy 2.4) at b = 8, n = 2 * 10^4 and 2 * 10^5, with
    importance probabilities spread 100x, per set in 64-set calls: uniform
    ~0.3 us, independent ~1.7-2.3 us, two-stage ~1.4-1.8 us; a single draw
    takes ~11, ~14-15 and ~18-20 us.

    The caller owns the random stream; schemes themselves are immutable, so
    concurrent draws with independent streams are safe.
    """
    if steps is None:
        return draw(scheme, rng, steps=1)[1]
    plan = scheme.plan
    if scheme.kind is SamplingKind.UNIFORM_MINIBATCH:
        b = int(scheme.b)
        return np.arange(0, steps * b + 1, b), _uniform_rows(scheme.n, b, steps, rng).ravel()
    if scheme.kind is SamplingKind.INDEPENDENT:
        step, cand = _class_walks(plan, steps, rng)
        kept = rng.random(cand.size) < plan.keep[cand]
        # a lone class holds the fractional indices in index order
        step, indices = _by_step(steps, scheme.n, step[kept], plan.members[cand[kept]],
                                 plan.full, len(plan.classes) == 1)
    else:
        # a uniform a-subset of the k fractional indices per step, thinned
        cand = _uniform_rows(scheme.k, scheme.a, steps, rng).ravel()
        kept = rng.random(cand.size) < plan.keep[cand]
        step, indices = _by_step(steps, scheme.n, np.flatnonzero(kept) // scheme.a,
                                 plan.members[cand[kept]], plan.full, True)
    return np.searchsorted(step, np.arange(steps + 1)), indices


def probability_matrix(scheme: SamplingScheme) -> np.ndarray:
    """Dense matrix P with P_ij = Prob({i,j} in S); diagonal equals p."""
    n = scheme.n
    if n > MATRIX_CAP:
        raise ValueError(f"probability matrix capped at n <= {MATRIX_CAP}, got n = {n}")
    p = scheme.p
    if scheme.kind is SamplingKind.UNIFORM_MINIBATCH:
        b = scheme.b
        off = b * (b - 1.0) / (n * (n - 1.0)) if n > 1 else b
        P = np.full((n, n), off)
        np.fill_diagonal(P, b / n)
        return P
    P = np.outer(p, p)
    if scheme.kind is SamplingKind.APPROX_INDEPENDENT:
        k, a = scheme.k, scheme.a
        t = (a - 1.0) * k / (a * (k - 1.0))
        frac = p < 1.0
        both = np.outer(frac, frac)
        P[both] *= t
    np.fill_diagonal(P, p)
    return P


def verify_eso(P: np.ndarray, p, v, tol: float = PSD_TOL) -> bool:
    """True iff Diag(p*v) - (P - p p^T) has smallest eigenvalue >= -tol."""
    P = np.asarray(P, dtype=float)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("P must be a square matrix")
    if not np.allclose(P, P.T, rtol=0.0, atol=1e-12):
        raise ValueError("P must be symmetric")
    if P.shape[0] != p.size or p.size != v.size:
        raise ValueError("dimension mismatch between P, p and v")
    M = np.diag(p * v) - (P - np.outer(p, p))
    return float(np.linalg.eigvalsh(M)[0]) >= -tol
