"""Property tests: the LIBSVM round trip, the optimal probabilities' KKT
form, the ESO certificate of every sampling scheme, the CSR shape of chunk
draws, the divergence guard's screen, a group's checkpoint schedule against
the one-step reference, and seeds stepped together against their runs
alone, on random inputs."""

import dataclasses
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vropt.dataio import dumps_libsvm, parse_libsvm
from vropt.common import LossKind
from vropt.problems import build_problem, csr_dataset, make_dataset, synthesize
from vropt import optimizers, sampling
from vropt.sampling import (
    SamplingKind,
    approximate_independent,
    bernoulli_subset,
    draw,
    independent,
    optimal_probabilities,
    probability_matrix,
    uniform_minibatch,
    verify_eso,
)
from test_optimizers import ReferenceRecorder

# fixed examples per run, so the suite's time and outcome do not vary
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def csr_data(draw):
    """Random CSR rows (some empty) over up to 10 columns, with +/-1 labels."""
    d = draw(st.integers(1, 10))
    rows = draw(st.lists(st.sets(st.integers(0, d - 1)), min_size=1, max_size=12))
    indices = [j for row in rows for j in sorted(row)]
    data = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=len(indices), max_size=len(indices)))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(rows), max_size=len(rows)))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return csr_dataset(indptr, indices, data, labels)


@PROPERTY
@given(csr_data())
def test_libsvm_round_trip_is_bit_exact(ds):
    back, report = parse_libsvm(dumps_libsvm(ds).encode())
    assert report.rows_read == back.n == ds.n and back.d == ds.d
    for field in ("indptr", "indices", "data", "labels"):
        got, want = getattr(back, field), getattr(ds, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field


@PROPERTY
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12), st.floats(0.01, 1.0))
def test_optimal_probabilities_kkt(L, share):
    L = np.array(L)
    b = share * L.size
    p = optimal_probabilities(L, b)
    assert abs(p.sum() - b) <= 1e-12 * b
    assert np.all(p > 0.0) and np.all(p <= 1.0)
    # p_i = min(1, c L_i) for one constant c: c = p_i / L_i wherever p_i < 1,
    # and c L_i >= 1 wherever p_i = 1
    frac = p < 1.0
    if frac.any():
        c = p[frac] / L[frac]
        assert np.allclose(c, c[0], rtol=1e-12, atol=0.0)
        assert np.all(c[0] * L[~frac] >= 1.0 - 1e-12)


@st.composite
def small_scheme(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["uniform", "independent", "approx"]))
    if kind == "uniform":
        return uniform_minibatch(n, draw(st.integers(1, n)))
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return independent(p) if kind == "independent" else approximate_independent(p)


@PROPERTY
@given(small_scheme())
def test_eso_holds_for_every_scheme(scheme):
    assert verify_eso(probability_matrix(scheme), scheme.p, scheme.v)


def assert_csr_sets(indptr, indices, steps, n):
    """indptr runs from 0 to indices.size without falling, one step at a
    time; each step's indices are sorted, distinct and in [0, n)."""
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.size == steps + 1 and indptr[0] == 0 and indptr[-1] == indices.size
    assert np.all(np.diff(indptr) >= 0)
    for a, z in zip(indptr[:-1], indptr[1:]):
        step = indices[a:z]
        assert np.all(np.diff(step) > 0)
        assert step.size == 0 or (step[0] >= 0 and step[-1] < n)


@st.composite
def chunk_scheme(draw_from):
    """Any scheme up to n = 40: p spread over up to four decades, so an
    independent plan often has several classes, and p_i = 1 entries."""
    n = draw_from(st.integers(1, 40))
    kind = draw_from(st.sampled_from(["uniform", "independent", "approx"]))
    if kind == "uniform":
        return uniform_minibatch(n, draw_from(st.integers(1, n)))
    p = 10.0 ** -np.array(draw_from(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)))
    return independent(p) if kind == "independent" else approximate_independent(p)


# the fallback side of the rejection limit, several classes with certain
# entries, one step, and steps that draw nothing
@example(scheme=uniform_minibatch(10, 9), steps=3, seed=0)
@example(scheme=uniform_minibatch(40, 3), steps=1, seed=0)
@example(scheme=approximate_independent([0.7, 0.3, 0.3, 0.3, 0.3, 1.0]), steps=4, seed=1)
@example(scheme=independent([1.0, 1e-4, 0.5, 1.0] + [1e-3] * 30), steps=6, seed=2)
@example(scheme=independent([1e-3] * 8), steps=5, seed=3)
@PROPERTY
@given(chunk_scheme(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_chunk_draws_are_csr_sets(scheme, steps, seed):
    indptr, indices = draw(scheme, np.random.default_rng(seed), steps=steps)
    assert_csr_sets(indptr, indices, steps, scheme.n)
    if scheme.kind is SamplingKind.UNIFORM_MINIBATCH:
        assert np.all(np.diff(indptr) == scheme.b)
    certain = np.flatnonzero(scheme.p == 1.0)
    for a, z in zip(indptr[:-1], indptr[1:]):
        assert np.isin(certain, indices[a:z]).all()


def test_chunk_examples_cover_their_cases():
    # what the examples above are there for
    assert 9 * 8 > 2 * sampling.REJECTION_LIMIT * 10
    s = approximate_independent([0.7, 0.3, 0.3, 0.3, 0.3, 1.0])
    assert s.kind is SamplingKind.APPROX_INDEPENDENT
    assert s.a * (s.a - 1) > 2 * sampling.REJECTION_LIMIT * s.k
    s = independent([1.0, 1e-4, 0.5, 1.0] + [1e-3] * 30)
    assert len(s.plan.classes) >= 2 and s.plan.full.tolist() == [0, 3]
    indptr, _ = draw(s, np.random.default_rng(2), steps=6)
    assert np.any(np.diff(indptr) == 2)  # a step with the certain entries alone
    indptr, _ = draw(independent([1e-3] * 8), np.random.default_rng(3), steps=5)
    assert indptr.tolist() == [0] * 6  # five empty steps


@PROPERTY
@given(st.integers(1, 30), st.floats(1e-3, 1.0, exclude_min=False), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_refresh_chunks_are_csr_sets(n, q, steps, seed):
    indptr, indices = bernoulli_subset(n, q, np.random.default_rng(seed), steps=steps)
    assert_csr_sets(indptr, indices, steps, n)
    if q == 1.0:
        assert np.array_equal(indices, np.tile(np.arange(n), steps))


LIMIT = optimizers.DIVERGENCE_LIMIT
NEAR_LIMIT = st.floats(0.5 * LIMIT, 2.0 * LIMIT) | st.sampled_from(
    [LIMIT, np.nextafter(LIMIT, np.inf), 0.99 * LIMIT])
GUARD_ENTRIES = (st.floats() | NEAR_LIMIT | NEAR_LIMIT.map(lambda v: -v)
                 | st.floats(-1e-300, 1e-300))


@PROPERTY
@given(st.lists(GUARD_ENTRIES, max_size=12), st.integers(1, 2000))
def test_guard_screen_matches_exact_predicate(values, repeat):
    # repeats push the sum of squares past the screen with every entry in range
    x = np.tile(np.array(values, dtype=float), repeat)
    rejected = not np.all(np.isfinite(x)) or bool(np.any(np.abs(x) > LIMIT))
    assert optimizers._diverged(x) == rejected


STEP_COSTS = st.integers(0, 3) | st.integers(0, 40)


@PROPERTY
@given(st.integers(1, 3), st.sampled_from([1e-3, 0.1, 0.25, 1.0, 2.5, 1e18]),
       st.lists(STEP_COSTS.filter(bool) | st.lists(st.lists(STEP_COSTS, min_size=3, max_size=3),
                                                   min_size=1, max_size=6), max_size=8))
def test_group_schedule_matches_reference(runs, cadence, events):
    # each run checkpoints at the start, at each step or anchor pass whose
    # count reaches the next multiple of the stride (once, however many it
    # passes), and at the end; steps cost 0 to 40 evaluations, anchors
    # (the single costs) 1 to 40, and a cadence of 1e-3 epochs makes the
    # stride one row
    prob = build_problem(synthesize(8, 3, 2.0, 0), LossKind.SIGMOID_SQUARED)
    x = np.array([0.3, -0.2, 0.1])
    group = optimizers._Group(prob, x, runs, cadence)
    refs = [ReferenceRecorder(prob, x, cadence) for _ in range(runs)]
    xs = np.tile(x, runs)
    for event in events:
        if isinstance(event, int):
            assert group.charge(event) == any(ref.evals + event >= ref.next_at for ref in refs)
            group.checkpoint_due(0, xs)
            for ref in refs:
                ref.anchor(event, x)
            continue
        cost = np.array(event, dtype=np.int64)[:, :runs].T  # (runs, steps)
        group.plan(cost)
        for t in range(cost.shape[1]):
            group.step(t, xs)
            for ref, c in zip(refs, cost[:, t].tolist()):
                ref.step(c, x)
    for got, ref in zip(group.finish(xs, xs), refs, strict=True):
        want = ref.finish(x, x)
        assert got.sgrad_evals.tolist() == want.sgrad_evals.tolist()
        assert got.total_sgrad_evals == want.total_sgrad_evals
        for field in ("epoch", "loss", "grad_norm_sq", "x_a"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


def group_problem(kind, seed):
    """A small sigmoid problem, a quadratic one with mu > 0, or sigmoid data
    whose every fourth row is empty."""
    if kind == "sigmoid":
        return build_problem(synthesize(12, 3, 8.0, seed), LossKind.SIGMOID_SQUARED)
    if kind == "quadratic":
        return build_problem(synthesize(12, 3, 8.0, seed), LossKind.QUADRATIC, 0.4)
    rng = np.random.default_rng(seed)
    rows = [(np.array([], dtype=np.int64), np.array([])) if i % 4 == 1 else
            (np.sort(rng.choice(4, size=int(rng.integers(1, 5)), replace=False)),
             rng.standard_normal(4)) for i in range(14)]
    rows = [(idx, val[:idx.size]) for idx, val in rows]
    labels = rng.integers(0, 2, size=14) * 2 - 1
    return build_problem(make_dataset(rows, labels, d=4), LossKind.SIGMOID_SQUARED)


def group_config(method, problem, kind, seed):
    n = problem.dataset.n
    scheme = {
        "uniform": uniform_minibatch(n, 2),
        "importance": independent(optimal_probabilities(problem.L, 2.0)),
        "approx": approximate_independent(optimal_probabilities(problem.L, 2.0)),
    }[kind]
    eta = 0.4 / problem.Lbar
    if method == "saga":
        return optimizers.RunConfig(scheme, eta=eta, steps=31, d_refresh=2.5, seed=seed,
                                    checkpoint_epochs=0.3)
    return optimizers.RunConfig(scheme, eta=eta, m=11, outer=3, seed=seed, checkpoint_epochs=0.3)


RUNNERS = {"svrg": optimizers.run_svrg, "saga": optimizers.run_saga, "sarah": optimizers.run_sarah}


@PROPERTY
@given(st.sampled_from(["sigmoid", "quadratic", "empty-rows"]), st.sampled_from(list(RUNNERS)),
       st.sampled_from(["uniform", "importance", "approx"]),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
       st.sampled_from([1, 7, optimizers.LOOKAHEAD_ENTRIES]), st.integers(0, 99))
def test_grouped_runs_equal_runs_alone(problem_kind, method, kind, seeds, entries, data_seed):
    problem = group_problem(problem_kind, data_seed)
    cfg = group_config(method, problem, kind, 0)
    x0 = np.linspace(-0.3, 0.2, problem.dataset.d)
    saved = optimizers.LOOKAHEAD_ENTRIES
    optimizers.LOOKAHEAD_ENTRIES = entries
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grouped = RUNNERS[method](problem, cfg, x0, seeds=seeds)
            alone = [RUNNERS[method](problem, dataclasses.replace(cfg, seed=s), x0) for s in seeds]
    finally:
        optimizers.LOOKAHEAD_ENTRIES = saved
    assert len(grouped) == len(seeds)
    for got, want in zip(grouped, alone):
        for field in dataclasses.fields(optimizers.RunTrace):
            if field.name != "wall_ns":
                assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field
