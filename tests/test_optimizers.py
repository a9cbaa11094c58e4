import dataclasses
import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vropt import optimizers
from vropt.bruteforce import enumerate_law, exact_estimator_moments
from vropt.optimizers import (
    ConfigError,
    DivergenceError,
    RunConfig,
    derive_saga_config,
    derive_sarah_config,
    derive_sarah_convex_config,
    derive_svrg_config,
    init_saga_memory,
    predict_complexity,
    run_gd_wrapper,
    run_saga,
    run_sarah,
    run_sarah_convex,
    run_svrg,
    saga_direction,
    saga_recompute_average,
    saga_refresh,
    sarah_increment,
    svrg_direction,
    take_snapshot,
)
from vropt.problems import (
    Dataset,
    LossKind,
    _loss_slopes,
    build_problem,
    component_gradient,
    csr_dataset,
    full_gradient,
    loss_value,
    make_dataset,
    row_slopes,
    synthesize,
)
from vropt.sampling import (
    approximate_independent,
    bernoulli_subset,
    compute_alpha,
    draw,
    independent,
    optimal_probabilities,
    uniform_minibatch,
)


def small_problem(n=4, d=3, seed=0, loss=LossKind.SIGMOID_SQUARED, mu=0.0, skew=6.0):
    return build_problem(synthesize(n, d, skew, seed=seed), loss, mu)


def unit_row_problem(n, d=2):
    # every row has unit norm, so the quadratic loss gives L_i = 1 exactly
    rows = []
    rng = np.random.default_rng(0)
    for _ in range(n):
        a = rng.standard_normal(d)
        rows.append((np.arange(d), a / np.linalg.norm(a)))
    labels = rng.integers(0, 2, size=n) * 2 - 1
    return build_problem(make_dataset(rows, labels, d=d), LossKind.QUADRATIC)


def scheme_zoo(problem, b=2.0):
    return {
        "uniform": uniform_minibatch(problem.dataset.n, int(b)),
        "importance": independent(optimal_probabilities(problem.L, b)),
        "approx": approximate_independent(
            np.full(problem.dataset.n, b / problem.dataset.n)
        ),
    }


def exact_minimizer(problem):
    n, d = problem.dataset.n, problem.dataset.d
    A = np.zeros((n, d))
    for i, (idx, val) in enumerate(problem.dataset.rows):
        A[i, idx] = val
    y = problem.dataset.labels.astype(float)
    return np.linalg.solve(A.T @ A / n + problem.mu * np.eye(d), A.T @ y / n)


class TestDeriveConfigs:
    def test_svrg_hand_computed(self):
        # alpha = 1 for b = 1 uniform with equal L; Lbar = 1
        prob = unit_row_problem(1000)
        scheme = uniform_minibatch(1000, 1)
        cfg = derive_svrg_config(prob, scheme, epochs=1.0)
        assert abs(cfg.eta - 2.5e-3) <= 1e-15
        assert cfg.m == 1333

    def test_svrg_matches_one_sample_step_size(self):
        # equal L, b = 1 uniform: eta = mu2 / (Lbar n^(2/3))
        prob = unit_row_problem(64)
        cfg = derive_svrg_config(prob, uniform_minibatch(64, 1), epochs=1.0)
        assert abs(cfg.eta - 0.25 / 64 ** (2 / 3)) <= 1e-15

    def test_full_batch_rejected(self):
        prob = unit_row_problem(8)
        scheme = independent(np.ones(8))
        with pytest.raises(ConfigError):
            derive_svrg_config(prob, scheme, epochs=1.0)

    def test_minibatch_precondition(self):
        prob = unit_row_problem(10)
        with pytest.raises(ConfigError, match="alpha n"):
            derive_svrg_config(prob, uniform_minibatch(10, 9), epochs=1.0)

    def test_saga_step_constants(self):
        prob = unit_row_problem(100)
        scheme = uniform_minibatch(100, 2)
        cfg = derive_saga_config(prob, scheme, epochs=1.0)
        cc = compute_alpha(prob.L, scheme)
        assert abs(cfg.eta - 2 / (3 * cc.alpha * prob.Lbar * 100 ** (2 / 3))) <= 1e-15
        assert abs(cfg.d_refresh - 2 / cc.alpha) <= 1e-12

    def test_saga_refresh_within_range(self):
        # under the b <= alpha n^(2/3) precondition, d = b/alpha <= n^(2/3)
        prob = unit_row_problem(30)
        scheme = uniform_minibatch(30, 3)
        cfg = derive_saga_config(prob, scheme, epochs=1.0)
        assert 0.0 < cfg.d_refresh <= 30 ** (2 / 3) + 1e-12

    def test_sarah_default_inner_length(self):
        prob = unit_row_problem(30)
        cfg = derive_sarah_config(prob, uniform_minibatch(30, 4), epochs=1.0)
        assert cfg.m == math.ceil(30 / 4)

    def test_sarah_eta_formula(self):
        prob = unit_row_problem(30)
        scheme = uniform_minibatch(30, 4)
        cfg = derive_sarah_config(prob, scheme, m=10, epochs=1.0)
        alpha = compute_alpha(prob.L, scheme).alpha
        expect = 2.0 / (prob.Lbar * (math.sqrt(1 + 4 * alpha * 10 / 4) + 1))
        assert abs(cfg.eta - expect) <= 1e-15

    def test_sarah_full_batch_is_one_over_lbar(self):
        prob = unit_row_problem(12)
        scheme = independent(np.ones(12))
        cfg = derive_sarah_config(prob, scheme, m=5, epochs=1.0)
        assert abs(cfg.eta - 1.0 / prob.Lbar) <= 1e-15

    def test_budget_requires_epochs_or_epsilon(self):
        prob = unit_row_problem(12)
        with pytest.raises(ConfigError):
            derive_svrg_config(prob, uniform_minibatch(12, 1))

    def test_epsilon_budget_path(self):
        prob = unit_row_problem(50)
        cfg = derive_svrg_config(prob, uniform_minibatch(50, 1), epsilon=1e-2)
        assert cfg.outer >= 1


class TestRunsArePure:
    """Configs and runs depend on their inputs only, not on earlier runs on
    the same problem."""

    def problem(self):
        prob = build_problem(synthesize(200, 20, 100.0, seed=0), LossKind.SIGMOID_SQUARED)
        return prob, independent(optimal_probabilities(prob.L, 2.0))

    @pytest.mark.parametrize(
        "derive", [derive_svrg_config, derive_saga_config, derive_sarah_config]
    )
    def test_epsilon_config_ignores_earlier_runs(self, derive):
        prob, scheme = self.problem()
        before = derive(prob, scheme, epsilon=1e-3, seed=4)
        run_saga(prob, derive_saga_config(prob, scheme, epochs=5.0))
        assert derive(prob, scheme, epsilon=1e-3, seed=4) == before

    def test_epsilon_outer_on_fresh_problem(self):
        prob, scheme = self.problem()
        assert derive_svrg_config(prob, scheme, epsilon=1e-3).outer == 14_050

    def test_gd_wrapper_reruns_equal(self):
        prob = build_problem(synthesize(30, 5, 2.0, seed=10), LossKind.QUADRATIC, mu=0.5)
        cfg = RunConfig(independent(optimal_probabilities(prob.L, 2.0)), eta=0.0, restarts=3)
        first, first_gaps = run_gd_wrapper(prob, "svrg", 4.0, cfg)
        second, second_gaps = run_gd_wrapper(prob, "svrg", 4.0, cfg)
        assert_same_trace(first, second)
        assert np.array_equal(first_gaps, second_gaps)


class TestEstimatorsByEnumeration:
    def test_svrg_unbiased_all_kinds(self):
        prob = small_problem()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3)
        anchor = rng.standard_normal(3)
        snap = take_snapshot(prob, anchor)
        target = full_gradient(prob, x)
        for scheme in scheme_zoo(prob).values():
            law = enumerate_law(scheme)
            mean = np.zeros(3)
            for subset, p_out in law.outcomes:
                mean += p_out * svrg_direction(prob, scheme.p, x, snap, subset)
            assert np.max(np.abs(mean - target)) <= 1e-12

    def test_saga_unbiased_all_kinds(self):
        prob = small_problem(seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3)
        mem = init_saga_memory(prob, rng.standard_normal(3))
        # scatter the anchors so the memory is nontrivial
        saga_refresh(prob, mem, rng.standard_normal(3), [1, 3])
        mem.g = saga_recompute_average(prob, mem)
        target = full_gradient(prob, x)
        for scheme in scheme_zoo(prob).values():
            law = enumerate_law(scheme)
            mean = np.zeros(3)
            for subset, p_out in law.outcomes:
                mean += p_out * saga_direction(prob, scheme.p, x, mem, subset)
            assert np.max(np.abs(mean - target)) <= 1e-12

    def test_sarah_increment_martingale(self):
        prob = small_problem(seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3)
        x_prev = rng.standard_normal(3)
        target = full_gradient(prob, x) - full_gradient(prob, x_prev)
        for scheme in scheme_zoo(prob).values():
            law = enumerate_law(scheme)
            mean = np.zeros(3)
            for subset, p_out in law.outcomes:
                mean += p_out * sarah_increment(prob, scheme.p, x, x_prev, subset)
            assert np.max(np.abs(mean - target)) <= 1e-12

    def test_svrg_second_moment_bound(self):
        # E||v||^2 <= 2||grad f(x)||^2 + (2K/b)||x - anchor||^2
        prob = small_problem(n=5, seed=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3)
        anchor = rng.standard_normal(3)
        snap = take_snapshot(prob, anchor)
        g2 = float(np.sum(full_gradient(prob, x) ** 2))
        dist2 = float(np.sum((x - anchor) ** 2))
        for scheme in scheme_zoo(prob).values():
            cc = compute_alpha(prob.L, scheme)
            law = enumerate_law(scheme)
            second = sum(
                p_out * float(np.sum(svrg_direction(prob, scheme.p, x, snap, subset) ** 2))
                for subset, p_out in law.outcomes
            )
            bound = 2.0 * g2 + 2.0 * cc.K / scheme.b * dist2
            assert second <= bound + 1e-12


def sparse_problem(loss=LossKind.SIGMOID_SQUARED, mu=0.0):
    # row 2 is all-zero; the others have differing supports
    rows = [
        (np.array([0, 2]), np.array([1.2, -0.7])),
        (np.array([1, 3]), np.array([0.4, 2.1])),
        (np.array([], dtype=int), np.array([])),
        (np.array([0, 1, 2, 3]), np.array([-0.3, 0.9, 0.5, -1.1])),
        (np.array([3]), np.array([1.6])),
        (np.array([1, 2]), np.array([-2.0, 0.8])),
    ]
    return build_problem(make_dataset(rows, [1, -1, 1, -1, 1, 1], d=4), loss, mu)


def row_gradient_mean(prob, points):
    """(1/n) sum_j grad f_j(points[j]), one component at a time."""
    n = prob.dataset.n
    return sum(component_gradient(prob, j, points[j]) for j in range(n)) / n


def weighted_row_difference(prob, p, subset, x, others):
    """sum_{i in S} (grad f_i(x) - grad f_i(others[i])) / (n p_i)."""
    n, d = prob.dataset.n, prob.dataset.d
    out = np.zeros(d)
    for i in subset:
        out += (component_gradient(prob, i, x) - component_gradient(prob, i, others[i])) / (
            n * p[i]
        )
    return out


def phi_gradient(prob, i, point):
    """Gradient of the data part phi_i of f_i = phi_i + (mu/2)||x||^2."""
    return component_gradient(prob, i, point) - prob.mu * point


def phi_gradient_mean(prob, points):
    """(1/n) sum_j grad phi_j(points[j]), one component at a time."""
    n = prob.dataset.n
    return sum(phi_gradient(prob, j, points[j]) for j in range(n)) / n


def composite_reference(prob, p, subset, x, anchors):
    """sum_{i in S} (grad phi_i(x) - grad phi_i(anchors[i])) / (n p_i)
    + mean_j grad phi_j(anchors[j]) + mu x: the anchored and memory
    estimators, whose regulariser part is exact."""
    n, d = prob.dataset.n, prob.dataset.d
    v = np.zeros(d)
    for i in subset:
        v += (phi_gradient(prob, i, x) - phi_gradient(prob, i, anchors[i])) / (n * p[i])
    return v + phi_gradient_mean(prob, anchors) + prob.mu * x


class TestEstimatorsAgainstRowReference:
    # empty subsets, an all-zero row, the dense mu*x terms of the quadratic
    SUBSETS = ([], [2], [0, 2, 5], [1, 3, 4], [0, 1, 2, 3, 4, 5])
    CASES = (
        (LossKind.SIGMOID_SQUARED, 0.0),
        (LossKind.QUADRATIC, 0.0),
        (LossKind.QUADRATIC, 0.6),
    )

    def setup_state(self, loss, mu, seed):
        prob = sparse_problem(loss, mu)
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.2, 1.0, size=6)
        x, anchor, x_prev = (rng.standard_normal(4) for _ in range(3))
        return prob, p, x, anchor, x_prev

    def test_svrg_direction(self):
        for k, (loss, mu) in enumerate(self.CASES):
            prob, p, x, anchor, _ = self.setup_state(loss, mu, k)
            snap = take_snapshot(prob, anchor)
            anchors = [anchor] * 6
            g = row_gradient_mean(prob, anchors)
            for subset in self.SUBSETS:
                ref = weighted_row_difference(prob, p, subset, x, anchors) + g
                if mu:
                    ref = composite_reference(prob, p, subset, x, anchors)
                v = svrg_direction(prob, p, x, snap, subset)
                assert np.max(np.abs(v - ref)) <= 1e-12

    def test_sarah_increment(self):
        for k, (loss, mu) in enumerate(self.CASES):
            prob, p, x, _, x_prev = self.setup_state(loss, mu, 10 + k)
            for subset in self.SUBSETS:
                ref = weighted_row_difference(prob, p, subset, x, [x_prev] * 6)
                v = sarah_increment(prob, p, x, x_prev, subset)
                assert v.dtype == float
                assert np.max(np.abs(v - ref)) <= 1e-12

    def test_saga_refresh_and_direction(self):
        for k, (loss, mu) in enumerate(self.CASES):
            prob, p, x, anchor, x_prev = self.setup_state(loss, mu, 20 + k)
            mem = init_saga_memory(prob, anchor)
            anchors = [anchor] * 6
            for refresh, point in (([], x_prev), ([2, 4], x_prev), ([0, 2, 3], x), ([], x)):
                saga_refresh(prob, mem, point, refresh)
                for j in refresh:
                    anchors[j] = point
                g = row_gradient_mean(prob, anchors)
                if mu:  # the memory averages the data parts' gradients
                    g = phi_gradient_mean(prob, anchors)
                assert np.max(np.abs(mem.g - g)) <= 1e-12
                assert np.max(np.abs(saga_recompute_average(prob, mem) - g)) <= 1e-12
                for subset in self.SUBSETS:
                    ref = weighted_row_difference(prob, p, subset, x, anchors) + g
                    if mu:
                        ref = composite_reference(prob, p, subset, x, anchors)
                    v = saga_direction(prob, p, x, mem, subset)
                    assert np.max(np.abs(v - ref)) <= 1e-12

    def test_sarah_one_slope_pass_is_bit_equal_to_two(self):
        # the (2, |S|) margins of x and x_prev go through one slope pass;
        # margins of +-800 and 0 reach both sigmoid branches and saturation
        for k, (loss, mu) in enumerate(self.CASES):
            prob, p, x, _, x_prev = self.setup_state(loss, mu, 30 + k)
            ds = prob.dataset
            for a, b in ((x, x_prev), (800.0 * x, -800.0 * x), (0.0 * x, x)):
                for subset in self.SUBSETS:
                    block = ds.block(subset)
                    z = np.concatenate((block.margins(a), block.margins(b)))
                    one = _loss_slopes(loss, z.reshape(2, -1), block.labels)
                    two = (row_slopes(prob, block, a), row_slopes(prob, block, b))
                    assert np.array_equal(one, np.array(two).reshape(2, -1))
                    w = 1.0 / (ds.n * p[np.asarray(subset, dtype=np.int64)])
                    ref = block.scatter(w * (two[0] - two[1]), ds.d)
                    if mu:
                        ref += mu * w.sum() * (a - b)
                    assert np.array_equal(sarah_increment(prob, p, a, b, subset), ref)
                    assert np.array_equal(
                        sarah_increment(prob, p, a, b, subset, block=block), ref
                    )

    # per-run set sizes: empty, one, below, at and past numpy's 8-term
    # pairwise block, and long
    RUN_SIZES = (0, 1, 7, 8, 9, 40, 57)

    def test_sarah_mu_term_of_runs_end_to_end(self):
        # R runs' points end to end, as a runner's seed group steps them: each
        # run's mu W_j (x_j - x_prev_j) has the bits of a loop over the runs
        # that sums W_j = sum_{i in S_j} 1/(n p_i) as w[S_j].sum()
        n, d, mu = 60, 5, 0.6
        rng = np.random.default_rng(40)
        mask = rng.random((n, d)) < 0.5
        mask[::7] = False  # some rows without entries
        rows = [(np.flatnonzero(m), rng.standard_normal(int(m.sum()))) for m in mask]
        labels = rng.integers(0, 2, size=n) * 2 - 1
        prob = build_problem(make_dataset(rows, labels, d=d), LossKind.QUADRATIC, mu)
        ds = prob.dataset
        p = rng.uniform(0.05, 1.0, size=n)
        sizes = self.RUN_SIZES
        for R in (1, 3, 8):
            for first in range(len(sizes)):
                ks = [sizes[(first + j) % len(sizes)] for j in range(R)]
                sets = [rng.choice(n, size=k, replace=False) for k in ks]
                x, x_prev = rng.standard_normal(R * d), rng.standard_normal(R * d)
                ref = np.empty(R * d)
                for j, S in enumerate(sets):
                    run = slice(j * d, j * d + d)
                    block = ds.block(S)
                    w = 1.0 / (n * p[S])
                    c = w * (row_slopes(prob, block, x[run]) - row_slopes(prob, block, x_prev[run]))
                    ref[run] = block.scatter(c, d)
                    ref[run] += mu * w.sum() * (x[run] - x_prev[run])
                    assert np.array_equal(sarah_increment(prob, p, x[run], x_prev[run], S), ref[run])
                # the runner's call: run j's rows offset by j n, its columns by j d
                flat = np.concatenate(sets).astype(np.int64)
                owner = np.repeat(np.arange(R), ks)
                block = ds.block(flat, owner * d if R > 1 else None)
                w = 1.0 / (n * p[flat])
                v = sarah_increment(prob, p, x, x_prev, flat + owner * n, block=block, w=w)
                assert np.array_equal(v, ref)


class TestExactRegulariser:
    """SVRG and SAGA variance-reduce the data parts phi_i of
    f_i = phi_i + (mu/2)||x||^2 and add the regulariser's gradient mu x
    exactly, so their noise is that of the phi parts alone."""

    def test_moments_are_those_of_the_data_parts(self):
        prob = build_problem(synthesize(10, 4, 8.0, seed=3), LossKind.QUADRATIC, mu=0.5)
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        snap, mem = take_snapshot(prob, y), init_saga_memory(prob, y)
        target = full_gradient(prob, x)
        zeta = [phi_gradient(prob, i, x) - phi_gradient(prob, i, y) for i in range(10)]
        dist2 = float(np.sum((x - y) ** 2))
        for scheme in (uniform_minibatch(10, 3), independent(optimal_probabilities(prob.L, 3.0))):
            law = enumerate_law(scheme)
            _, want = exact_estimator_moments(law, zeta)
            certificate = float(np.sum(scheme.v * prob.L**2 / scheme.p)) * dist2 / 10**2
            probs = np.array([q for _, q in law.outcomes])
            for direction in (
                lambda S: svrg_direction(prob, scheme.p, x, snap, S),
                lambda S: saga_direction(prob, scheme.p, x, mem, S),
            ):
                values = np.array([direction(S) for S, _ in law.outcomes])
                mean = probs @ values
                var = float(probs @ np.sum((values - mean) ** 2, axis=1))
                assert np.max(np.abs(mean - target)) <= 1e-12
                assert abs(var - want) <= 1e-12
                assert var <= certificate

    def test_saga_memory_does_not_grow_with_mu(self):
        # 1000 rows of 5 entries in 1000 columns, 4 runs: an anchor vector
        # per row and run would take R n d 8 bytes = 30.5 MiB; the runs'
        # peaks read 0.75 MiB at mu = 0 and 0.03 MiB more at mu = 0.1
        n, d, R = 1000, 1000, 4
        rng = np.random.default_rng(0)
        cols = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :5], axis=1)
        ds = csr_dataset(np.arange(n + 1) * 5, cols.ravel(), rng.standard_normal(5 * n),
                         rng.integers(0, 2, size=n) * 2 - 1, d)
        peaks = []
        for mu in (0.0, 0.1):
            prob = build_problem(ds, LossKind.QUADRATIC, mu)
            cfg = RunConfig(uniform_minibatch(n, 2), eta=0.05, steps=300, d_refresh=2.0)
            tracemalloc.start()
            try:
                traces = run_saga(prob, cfg, seeds=range(R))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(np.all(np.isfinite(t.loss)) for t in traces)
        assert peaks[1] - peaks[0] <= 1 << 20  # 1 MiB, a 30th of R n d 8 bytes


@pytest.mark.parametrize(
    "call, exc, fragment",
    [
        (lambda prob, s: run_saga(prob, RunConfig(s, eta=0.1, steps=2, d_refresh=0.0)),
         ConfigError, "d_refresh must lie in (0, 6]"),
        (lambda prob, s: run_saga(prob, RunConfig(s, eta=0.1, steps=2, d_refresh=6.5)),
         ConfigError, "d_refresh must lie in (0, 6]"),
        (lambda prob, s: run_sarah_convex(prob, derive_sarah_convex_config(prob, m=0)),
         ConfigError, "m must be at least 1"),
        (lambda prob, s: run_svrg(prob, RunConfig(s, eta=0.1, m=3, outer=0)),
         ConfigError, "outer must be at least 1"),
        (lambda prob, s: run_sarah(prob, RunConfig(s, eta=0.1, m=3, outer=-1), seeds=[1, 2]),
         ConfigError, "outer must be at least 1"),
        (lambda prob, s: run_saga(prob, RunConfig(s, eta=0.1, steps=0, d_refresh=2.0)),
         ConfigError, "steps must be at least 1"),
        (lambda prob, s: run_saga(prob, RunConfig(s, eta=0.1, steps=-2, d_refresh=2.0), seeds=[1]),
         ConfigError, "steps must be at least 1"),
        (lambda prob, s: run_gd_wrapper(prob, "svrg", 1.0,
                                        RunConfig(uniform_minibatch(5, 2), eta=0.1, restarts=1)),
         ConfigError, "config.scheme must match the problem size"),
        (lambda prob, s: run_svrg(prob, RunConfig(s, eta=0.1), x0=np.zeros(4)),
         ValueError, "x0 has the wrong dimension"),
    ],
)
def test_input_checks(call, exc, fragment):
    prob = small_problem(n=6, d=3, seed=11)
    with pytest.raises(exc, match=re.escape(fragment)):
        call(prob, uniform_minibatch(6, 2))


class TestRunSvrg:
    def test_stationary_start_stays_put(self):
        row = (np.array([0, 1]), np.array([1.0, 2.0]))
        ds = make_dataset([row, row], [1, -1], d=2)
        prob = build_problem(ds, LossKind.QUADRATIC)
        scheme = uniform_minibatch(2, 1)
        cfg = RunConfig(scheme, eta=0.05, m=4, outer=3, seed=0)
        trace = run_svrg(prob, cfg)
        assert np.array_equal(trace.x_a, np.zeros(2))
        assert np.all(trace.grad_norm_sq == trace.grad_norm_sq[0])

    def test_deterministic_rerun(self):
        prob = small_problem(n=12, d=4, seed=8)
        scheme = independent(optimal_probabilities(prob.L, 3.0))
        cfg = derive_svrg_config(prob, scheme, epochs=4.0, seed=42)
        a, b = run_svrg(prob, cfg), run_svrg(prob, cfg)
        assert np.array_equal(a.loss, b.loss)
        assert np.array_equal(a.grad_norm_sq, b.grad_norm_sq)
        assert np.array_equal(a.sgrad_evals, b.sgrad_evals)
        assert np.array_equal(a.x_a, b.x_a)

    def test_trace_epochs_strictly_increasing(self):
        prob = small_problem(n=20, d=3, seed=9)
        cfg = derive_svrg_config(prob, uniform_minibatch(20, 2), epochs=6.0, seed=1)
        trace = run_svrg(prob, cfg)
        assert np.all(np.diff(trace.epoch) > 0)
        assert np.all(trace.grad_norm_sq >= 0)

    def test_one_sample_special_case_matches_direct_loop(self):
        # b = 1 uniform: the weights collapse to 1 and the update is the plain
        # one-sample anchored step; replicate the run arithmetic directly
        prob = small_problem(n=6, d=3, seed=10)
        n = 6
        scheme = uniform_minibatch(n, 1)
        cfg = RunConfig(scheme, eta=0.02, m=4, outer=2, seed=77)
        trace = run_svrg(prob, cfg)

        s_draw, s_out = np.random.SeedSequence(77).spawn(2)
        rng_draw = np.random.default_rng(s_draw)
        rng_out = np.random.default_rng(s_out)
        count, pick = 0, None

        def offer(x):
            nonlocal count, pick
            count += 1
            if rng_out.random() < 1.0 / count:
                pick = x.copy()

        x = np.zeros(3)
        offer(x)
        for _ in range(2):
            anchor = x.copy()
            g = full_gradient(prob, anchor)
            for ((i,),) in chunked(lambda k: (draw(scheme, rng_draw, steps=k),), 4):
                v = component_gradient(prob, i, x) - component_gradient(prob, i, anchor) + g
                x = x - 0.02 * v
                offer(x)
        assert np.array_equal(trace.x_a, pick)

    def test_invalid_config_rejected(self):
        prob = small_problem(n=6, d=3, seed=11)
        scheme = uniform_minibatch(6, 2)
        with pytest.raises(ConfigError):
            run_svrg(prob, RunConfig(scheme, eta=0.0, m=2, outer=1))
        with pytest.raises(ConfigError):
            run_sarah(prob, RunConfig(scheme, eta=0.1, m=0, outer=1))
        with pytest.raises(ConfigError):
            run_svrg(prob, RunConfig(uniform_minibatch(5, 2), eta=0.1, m=2))

    def test_divergence_guard(self):
        prob = small_problem(n=6, d=3, seed=11, loss=LossKind.QUADRATIC)
        scheme = uniform_minibatch(6, 2)
        cfg = RunConfig(scheme, eta=1e6, m=50, outer=100, seed=0)
        with pytest.raises(DivergenceError) as err:
            run_svrg(prob, cfg)
        assert err.value.trace.epoch.size >= 1

    def test_guard_rejects_nan_inf_and_huge_entries(self):
        for bad in (np.nan, np.inf, -np.inf, 2e100, -2e100):
            assert optimizers._diverged(np.array([0.5, bad, -1.0]))
        assert not optimizers._diverged(np.array([1e100, -1e100, 0.0]))
        assert not optimizers._diverged(np.array([-np.inf, np.nan])[:0])

    @pytest.mark.parametrize("loss", [LossKind.SIGMOID_SQUARED, LossKind.QUADRATIC])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2 * optimizers.DIVERGENCE_LIMIT])
    def test_bad_start_rejected_before_the_start_pass(self, monkeypatch, loss, bad):
        # a start that diverges is rejected before any pass over the rows,
        # so no numpy warning is raised either; the runs of a group share it
        prob = small_problem(n=20, d=3, seed=11, loss=loss, mu=0.1 if loss is LossKind.QUADRATIC else 0.0)
        scheme = uniform_minibatch(20, 2)
        x0 = np.array([0.5, bad, -1.0])
        cfgs = {run_svrg: RunConfig(scheme, eta=0.1, m=5, outer=2),
                run_saga: RunConfig(scheme, eta=0.1, steps=9, d_refresh=2.0),
                run_sarah: RunConfig(scheme, eta=0.1, m=5, outer=2)}
        calls = [
            lambda: run_sarah_convex(prob, derive_sarah_convex_config(prob, m=5, replicates=2), x0=x0),
            *(lambda inner=inner: run_gd_wrapper(prob, inner, 1.0, RunConfig(scheme, eta=0.1, restarts=2), x0=x0)
              for inner in ("svrg", "saga", "sarah")),
        ]
        for run, cfg in cfgs.items():
            calls += [functools.partial(run, prob, cfg, x0=x0),
                      functools.partial(run, prob, cfg, x0=x0, seeds=[3, 1, 4])]
        passes = []
        monkeypatch.setattr(optimizers, "full_pass", lambda *args, **kwargs: passes.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DivergenceError, match="^iterate diverged at 0 evaluations$") as err:
                    call()
                assert err.value.trace.total_sgrad_evals == 0
                assert err.value.trace.x_a.shape == (3,) and np.isnan(err.value.trace.x_a).all()
        assert passes == []

    def test_start_whose_objective_diverges(self):
        # every entry inside the iterate guard, f past DIVERGENCE_LIMIT: the
        # start checkpoint stops the run at 0 evaluations, with no row kept
        prob = small_problem(n=20, d=3, seed=11, loss=LossKind.QUADRATIC)
        scheme = uniform_minibatch(20, 2)
        x0 = np.full(3, 1e60)
        assert not optimizers._diverged(x0)
        assert loss_value(prob, x0) > optimizers.DIVERGENCE_LIMIT
        calls = [
            lambda: run_svrg(prob, RunConfig(scheme, eta=0.1, m=5, outer=2), x0=x0),
            lambda: run_saga(prob, RunConfig(scheme, eta=0.1, steps=9, d_refresh=2.0), x0=x0,
                             seeds=[3, 1]),
            lambda: run_sarah_convex(prob, derive_sarah_convex_config(prob, m=5), x0=x0),
            lambda: run_gd_wrapper(prob, "sarah", 1.0, RunConfig(scheme, eta=0.1, restarts=2), x0=x0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DivergenceError, match="^objective diverged at 0 evaluations$") as err:
                    call()
                trace = err.value.trace
                assert trace.total_sgrad_evals == 0 and trace.sgrad_evals.tolist() == [0]
                assert np.isnan(trace.loss).all() and np.isnan(trace.x_a).all()

    def test_divergence_guard_other_methods(self):
        prob = small_problem(n=6, d=3, seed=11, loss=LossKind.QUADRATIC)
        scheme = uniform_minibatch(6, 2)
        with pytest.raises(DivergenceError):
            run_saga(
                prob,
                RunConfig(scheme, eta=1e6, steps=5000, d_refresh=1.0, seed=0),
            )
        with pytest.raises(DivergenceError):
            run_sarah(
                prob, RunConfig(scheme, eta=1e6, m=50, outer=100, seed=0)
            )


class TestRunSaga:
    def test_direction_after_init_is_full_gradient(self):
        prob = small_problem(n=5, d=3, seed=12)
        x = np.random.default_rng(13).standard_normal(3)
        mem = init_saga_memory(prob, x)
        scheme = uniform_minibatch(5, 2)
        v = saga_direction(prob, scheme.p, x, mem, [0, 3])
        assert np.array_equal(v, full_gradient(prob, x))

    def test_memory_average_consistency(self):
        for loss, mu in ((LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.9)):
            prob = small_problem(n=8, d=3, seed=14, loss=loss, mu=mu)
            scheme = uniform_minibatch(8, 2)
            rng = np.random.default_rng(15)
            x = np.zeros(3)
            mem = init_saga_memory(prob, x)
            for _ in range(150):
                subset = draw(scheme, rng)
                refresh = np.flatnonzero(rng.random(8) < 0.4)
                v = saga_direction(prob, scheme.p, x, mem, subset)
                x_prev = x
                x = x - 0.01 * v
                saga_refresh(prob, mem, x_prev, refresh)
            exact = saga_recompute_average(prob, mem)
            denom = max(1.0, float(np.linalg.norm(exact)))
            assert np.linalg.norm(mem.g - exact) / denom <= 1e-10

    def test_deterministic_and_runs(self):
        prob = small_problem(n=15, d=4, seed=16)
        scheme = independent(optimal_probabilities(prob.L, 3.0))
        cfg = derive_saga_config(prob, scheme, epochs=4.0, seed=5)
        a, b = run_saga(prob, cfg), run_saga(prob, cfg)
        assert np.array_equal(a.loss, b.loss)
        assert np.array_equal(a.x_a, b.x_a)
        assert a.total_sgrad_evals == b.total_sgrad_evals

    def test_one_sample_special_case_matches_direct_loop(self):
        # b = 1, d = 1: single-index estimator with weight 1; the refresh set
        # keeps the general coin-flip law with marginal d/n
        prob = small_problem(n=5, d=3, seed=17)
        n = 5
        scheme = uniform_minibatch(n, 1)
        cfg = RunConfig(
            scheme, eta=0.03, steps=12, d_refresh=1.0, seed=99
        )
        trace = run_saga(prob, cfg)

        s_draw, s_out = np.random.SeedSequence(99).spawn(2)
        rng_draw = np.random.default_rng(s_draw)
        rng_out = np.random.default_rng(s_out)
        count, pick = 0, None

        def offer(x):
            nonlocal count, pick
            count += 1
            if rng_out.random() < 1.0 / count:
                pick = x.copy()

        x = np.zeros(3)
        offer(x)
        anchors = [np.zeros(3) for _ in range(n)]
        g = full_gradient(prob, x)

        def draw_block(k):
            return draw(scheme, rng_draw, steps=k), bernoulli_subset(n, 1.0 / n, rng_draw, steps=k)

        for (i,), refresh in chunked(draw_block, 12):
            v = (
                component_gradient(prob, i, x)
                - component_gradient(prob, i, anchors[i])
                + g
            )
            x_prev = x
            x = x - 0.03 * v
            for j in refresh:
                g = g + (
                    component_gradient(prob, j, x_prev)
                    - component_gradient(prob, j, anchors[j])
                ) / n
                anchors[j] = x_prev.copy()
            offer(x)
        assert np.allclose(trace.x_a, pick, rtol=0, atol=1e-12)


class TestRunSarah:
    def test_m_equal_one_is_full_gradient_restart(self):
        prob = small_problem(n=6, d=3, seed=18)
        scheme = uniform_minibatch(6, 2)
        cfg = RunConfig(scheme, eta=0.05, m=1, outer=1, seed=3)
        trace = run_sarah(prob, cfg)
        x1 = -0.05 * full_gradient(prob, np.zeros(3))
        assert np.array_equal(trace.x_a, np.zeros(3)) or np.array_equal(trace.x_a, x1)
        assert trace.total_sgrad_evals == 6

    def test_full_batch_is_gradient_descent(self):
        prob = small_problem(n=10, d=3, seed=19)
        scheme = independent(np.ones(10))
        cfg = derive_sarah_config(prob, scheme, m=6, epochs=100.0, seed=0)
        cfg.outer = 1
        cfg.checkpoint_epochs = 1.0 / 10
        trace = run_sarah(prob, cfg)
        x = np.zeros(3)
        losses = [loss_value(prob, x)]
        for _ in range(6):
            x = x - cfg.eta * full_gradient(prob, x)
            losses.append(loss_value(prob, x))
        assert np.allclose(trace.loss, losses, rtol=0, atol=1e-10)

    def test_increment_telescoping(self):
        prob = small_problem(n=6, d=3, seed=20)
        scheme = uniform_minibatch(6, 2)
        rng = np.random.default_rng(21)
        x = np.zeros(3)
        v = full_gradient(prob, x)
        v0 = v.copy()
        increments = []
        for _ in range(8):
            subset = draw(scheme, rng)
            x_prev = x
            x = x - 0.05 * v
            inc = sarah_increment(prob, scheme.p, x, x_prev, subset)
            increments.append(inc)
            v = v + inc
        assert np.allclose(v - v0, np.sum(increments, axis=0), rtol=0, atol=1e-12)

    def test_deterministic(self):
        prob = small_problem(n=12, d=3, seed=22)
        scheme = independent(optimal_probabilities(prob.L, 2.0))
        cfg = derive_sarah_config(prob, scheme, epochs=5.0, seed=9)
        a, b = run_sarah(prob, cfg), run_sarah(prob, cfg)
        assert np.array_equal(a.loss, b.loss)
        assert np.array_equal(a.x_a, b.x_a)

    def test_loop_only_reads_its_start(self):
        prob = small_problem(n=12, d=3, seed=22)
        scheme = uniform_minibatch(12, 2)
        x = np.array([0.1, -0.2, 0.3])
        x.setflags(write=False)
        group = optimizers._Group(prob, x, 1, 1.0)
        rng = np.random.default_rng(4)
        loop = optimizers._sarah_loop(prob, scheme.p, x, 0.05, 9,
                                      [lambda k: (draw(scheme, rng, steps=k),)], group)
        iterates = [xt.copy() for xt, _ in loop]
        assert len(iterates) == 9
        assert np.array_equal(x, [0.1, -0.2, 0.3])
        assert not np.array_equal(iterates[-1], x)


class TestGroups:
    RUNNERS = {"svrg": run_svrg, "saga": run_saga, "sarah": run_sarah}

    @pytest.mark.parametrize("method", ["svrg", "saga", "sarah"])
    def test_diverged_run_leaves_the_others_as_alone(self, method):
        # a step size at which some seeds blow up and others do not
        prob = empty_row_problem(LossKind.QUADRATIC, n=20, seed=3)
        eta = {"svrg": 7.0, "saga": 4.25, "sarah": 50.0}[method]
        scheme = independent(optimal_probabilities(prob.L, 2.0))
        cfg = lookahead_config(method, scheme, eta=eta, d_refresh=2.0)
        seeds = [1, 2, 3, 4, 5, 6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning either
            grouped = self.RUNNERS[method](prob, cfg, seeds=seeds)
            kinds = []
            for seed, got in zip(seeds, grouped):
                try:
                    want = self.RUNNERS[method](prob, dataclasses.replace(cfg, seed=seed))
                except DivergenceError as exc:
                    assert isinstance(got, DivergenceError) and str(got) == str(exc)
                    assert_same_trace(got.trace, exc.trace)
                    kinds.append("diverged")
                else:
                    assert_same_trace(got, want)
                    kinds.append("ok")
        assert "diverged" in kinds and "ok" in kinds, kinds

    BLOCK = optimizers._Group.BLOCK

    @pytest.mark.parametrize("offers", [1, 5, 300, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("seeds", [(0,), (0, 1, 2), (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10), (5, 2, 5)])
    def test_choose_draws_as_single_calls(self, seeds, offers):
        # each run's chosen point, and what its stream draws after the
        # choice, are those of a reservoir fed one rng.random() per offer;
        # runs 0 and 2 of seeds (5, 2, 5) choose the same offer
        runs, d = len(seeds), 2
        group = optimizers._Group(small_problem(n=5, d=d), np.zeros(d), runs, 1.0)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        points = np.random.default_rng(9).standard_normal((offers, runs * d))
        group.choose(rngs, offers, points[0])
        if offers > 1:
            group.plan(np.zeros((runs, offers - 1), dtype=np.int64))  # no checkpoint
        for t, x in enumerate(points[1:]):
            group.step(t, x)
        ref = [OnePointReservoir(np.random.default_rng(seed)) for seed in seeds]
        for x in points.reshape(offers, runs, d):
            for res, point in zip(ref, x):
                res.offer(point)
        assert np.array_equal(group.out, np.ravel([res.pick() for res in ref]))
        assert [rng.random() for rng in rngs] == [res.rng.random() for res in ref]
        if seeds == (5, 2, 5) and offers > 1:
            assert [0, 2] in group.keep.values()

    @pytest.mark.parametrize("method", ["svrg", "saga", "sarah"])
    def test_one_pass_at_the_start(self, monkeypatch, method):
        # the start's checkpoint, the first anchor and (at a cadence of one
        # epoch or less) the anchor's checkpoint share one pass; the anchors
        # are still built by the functions the benchmark counts
        prob = small_problem(n=20, d=4, seed=5)
        cfg = lookahead_config(method, uniform_minibatch(20, 2), eta=0.2)
        x0 = np.full(4, 0.1)
        at_start, anchors = [], []
        margins = Dataset.margins

        def counted(dataset, points):  # a pass over all rows, at each of points
            at_start.extend(np.array_equal(x, x0) for x in points)
            return margins(dataset, points)

        def anchor(fn):
            def wrapper(*args, **kwargs):
                anchors.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Dataset, "margins", counted)
        for name in ("take_snapshot", "init_saga_memory", "full_gradient"):
            monkeypatch.setattr(optimizers, name, anchor(getattr(optimizers, name)))
        ref = self.RUNNERS[method](prob, cfg, x0)
        assert at_start.count(True) == 1 and len(at_start) > 3
        monkeypatch.undo()
        assert anchors[0] == {"svrg": "take_snapshot", "saga": "init_saga_memory",
                              "sarah": "full_gradient"}[method]
        assert_same_trace(self.RUNNERS[method](prob, cfg, x0, seeds=[cfg.seed])[0], ref)

    def test_convex_replicates_share_one_pass_at_the_start(self, monkeypatch):
        # the R = 3 replicates' start checkpoints and full-gradient steps
        # share one pass over all rows at x0, counted as above
        prob = small_problem(n=20, d=4, seed=5, loss=LossKind.QUADRATIC, mu=0.2)
        cfg = derive_sarah_convex_config(prob, m=30, replicates=3, seed=2, checkpoint_epochs=0.5)
        x0 = np.full(4, 0.1)
        at_start = []
        margins = Dataset.margins

        def counted(dataset, points):
            at_start.extend(np.array_equal(x, x0) for x in points)
            return margins(dataset, points)

        monkeypatch.setattr(Dataset, "margins", counted)
        run_sarah_convex(prob, cfg, x0)
        assert at_start.count(True) == 1 and len(at_start) > 3

    def test_convex_raises_the_first_replicate_divergence(self, monkeypatch):
        # limits at which replicates 1, 2 and 3 of 6 stop and the others do
        # not: the error raised is replicate 1's, as its run alone gives it
        prob = small_problem(n=12, d=3, seed=2, loss=LossKind.QUADRATIC, mu=0.1)
        x0 = np.full(3, 0.5)
        monkeypatch.setattr(optimizers, "DIVERGENCE_LIMIT", 20.0)
        monkeypatch.setattr(optimizers, "DIVERGENCE_SCREEN", 20.0)
        assert abs(loss_value(prob, x0)) < optimizers.DIVERGENCE_LIMIT
        cfg = derive_sarah_convex_config(prob, m=40, eta=1.95 / prob.Lbar, replicates=6,
                                         seed=3, checkpoint_epochs=0.25)
        singles = []
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.replicates):
            with monkeypatch.context() as mp:
                mp.setattr(np.random, "SeedSequence",
                           lambda seed, child=child: SimpleNamespace(spawn=lambda k: [child]))
                try:
                    singles.append(run_sarah_convex(prob, dataclasses.replace(cfg, replicates=1), x0=x0))
                except DivergenceError as exc:
                    singles.append(exc)
        stopped = [r for r, out in enumerate(singles) if isinstance(out, DivergenceError)]
        assert stopped[0] > 0 and len(stopped) > 1 and len(stopped) < cfg.replicates
        with pytest.raises(DivergenceError) as got:
            run_sarah_convex(prob, cfg, x0=x0)
        want = singles[stopped[0]]
        assert str(got.value) == str(want)
        assert_same_trace(got.value.trace, want.trace)


class TestBufferOwnership:
    @pytest.mark.parametrize("method", ["svrg", "saga", "sarah"])
    def test_kept_iterates_are_not_overwritten(self, monkeypatch, method):
        # the runners update their iterate in place; the group keeps a copy
        # of each run's point at its chosen step, which stays as it was
        # taken: it is each SARAH restart point and the output
        loops = []  # per choice: the group's output array, the chosen steps
        choose, step = optimizers._Group.choose, optimizers._Group.step

        def choosing(group, rngs, offers, x):
            choose(group, rngs, offers, x)
            loops.append((group.out, dict(group.keep), [x.reshape(group.R, -1).copy()]))

        def stepping(group, t, x):
            step(group, t, x)
            loops[-1][2].append(x.reshape(group.R, -1).copy())  # a copy of each offer

        monkeypatch.setattr(optimizers._Group, "choose", choosing)
        monkeypatch.setattr(optimizers._Group, "step", stepping)
        prob = small_problem(n=20, d=4, seed=5)
        cfg = lookahead_config(method, uniform_minibatch(20, 2), eta=0.2)
        x0 = np.full(4, 0.1)
        x0.setflags(write=False)  # the runner updates a copy of its start
        seeds = [13, 2, 5]
        traces = TestLookahead.RUNNERS[method](prob, cfg, x0=x0, seeds=seeds)
        assert len(loops) == (cfg.outer if method == "sarah" else 1)
        chosen = []
        for out, keep, offers in loops:
            at = {j: i for i, runs in keep.items() for j in runs}
            chosen.append(np.array([offers[at.get(j, 0)][j] for j in range(len(seeds))]))
            assert np.array_equal(out, chosen[-1].ravel())
        assert any(keep for _, keep, _ in loops)
        for before, (_, _, offers) in zip(chosen, loops[1:]):
            assert np.array_equal(offers[0], before)  # SARAH's restart points
        for j, trace in enumerate(traces):
            assert np.array_equal(trace.x_a, chosen[-1][j])

    def test_convex_replicates_equal_one_replicate_runs(self, monkeypatch):
        # the replicates share their start, which no replicate may write into
        prob = small_problem(n=30, d=5, seed=9, loss=LossKind.QUADRATIC, mu=0.2)
        cfg = derive_sarah_convex_config(prob, m=25, replicates=3, seed=6, checkpoint_epochs=0.5)
        x0 = np.linspace(-0.3, 0.4, 5)
        trace, vn = run_sarah_convex(prob, cfg, x0=x0)
        singles = []
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.replicates):
            with monkeypatch.context() as mp:
                # the one replicate of this run draws from ``child``
                mp.setattr(np.random, "SeedSequence",
                           lambda seed, child=child: SimpleNamespace(spawn=lambda k: [child]))
                singles.append(run_sarah_convex(prob, dataclasses.replace(cfg, replicates=1), x0=x0))
        assert_same_trace(trace, singles[-1][0])
        assert np.array_equal(vn, np.mean([v for _, v in singles], axis=0))
        assert np.array_equal(x0, np.linspace(-0.3, 0.4, 5))


def empty_row_problem(loss=LossKind.SIGMOID_SQUARED, mu=0.0, n=30, d=6, seed=0):
    # random sparse rows; every fifth row is empty
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        idx = np.sort(rng.choice(d, size=0 if i % 5 == 2 else int(rng.integers(1, d)),
                                 replace=False))
        rows.append((idx, rng.standard_normal(idx.size)))
    labels = rng.integers(0, 2, size=n) * 2 - 1
    return build_problem(make_dataset(rows, labels, d=d), loss, mu)


def chunked(draw_block, steps):
    """Each of ``steps`` steps' tuple of sets, from ``draw_block(k)`` called
    ``DRAW_STEPS`` steps at a time (the steps left at the end) as the
    look-ahead calls it, one CSR pair per set."""
    for start in range(0, steps, optimizers.DRAW_STEPS):
        drawn = draw_block(min(optimizers.DRAW_STEPS, steps - start))
        for s in range(drawn[0][0].size - 1):
            yield tuple(idx[ptr[s]:ptr[s + 1]] for ptr, idx in drawn)


def step_records(prob, p, steps, draws):
    """Each step's ``(rows, k, block, bins, w)``, sliced out of the flat
    chunk records of ``optimizers._chunks`` as the runners slice them."""
    for cost, ch in optimizers._chunks(prob, p, steps, draws):
        assert cost.shape == (len(draws), len(ch.ks)) and len(ch.rb) == len(ch.eb) == len(ch.ks) + 1
        for t, k in enumerate(ch.ks):
            rows, block, w = ch.step(t)
            yield rows, k, block, None if ch.bins is None else ch.bins[ch.eb[t]:ch.eb[t + 1]], w


def scripted_draw(sets):
    """A one-kind block draw that hands out ``sets`` in order, as CSR pairs."""
    script = iter(sets)

    def draw_block(k):
        block = [np.asarray(next(script), dtype=np.int64) for _ in range(k)]
        return ((np.cumsum([0] + [rows.size for rows in block]), np.concatenate(block)),)

    return draw_block


class ReferenceRecorder:
    """One run's checkpoints and divergence guard, kept one step at a time
    from the public ``loss_value`` and ``full_gradient``: a checkpoint at
    the start, at each step or anchor pass whose count reaches the next
    multiple of the stride max(1, round(cadence n)), and at the end.  The
    start and each step's iterate must pass the exact test: every entry
    finite and at most DIVERGENCE_LIMIT in absolute value."""

    def __init__(self, prob, x, checkpoint_epochs=1.0):
        self.prob, self.n = prob, prob.dataset.n
        self.stride = max(1, round(checkpoint_epochs * self.n))
        self.rows, self.evals, self.next_at = [], 0, 0
        self.guard(x, 0)
        self.record(x)

    def guard(self, x, evals):
        if not np.all(np.isfinite(x)) or np.any(np.abs(x) > optimizers.DIVERGENCE_LIMIT):
            self.stop("iterate", evals)

    def record(self, x):
        f, g = loss_value(self.prob, x), full_gradient(self.prob, x)
        gnorm = float(np.sum(g * g))
        if not (math.isfinite(f) and math.isfinite(gnorm)) or abs(f) > optimizers.DIVERGENCE_LIMIT:
            self.stop("objective", self.evals)
        self.rows.append((self.evals / self.n, f, gnorm, self.evals))
        self.next_at = (self.evals // self.stride + 1) * self.stride

    def anchor(self, cost, x):
        """A pass at x that cost ``cost`` evaluations."""
        self.evals += cost
        if self.evals >= self.next_at:
            self.record(x)

    def step(self, cost, x):
        """A step to x that cost ``cost`` evaluations."""
        self.guard(x, self.evals + cost)
        self.anchor(cost, x)

    def finish(self, x, x_a):
        if self.rows[-1][3] != self.evals:
            self.record(x)
        return self.trace(x_a, self.evals)

    def trace(self, x_a, evals):
        epoch, loss, gnorm, counts = zip(*(self.rows or [(0.0, math.nan, math.nan, 0)]))
        return optimizers.RunTrace(np.array(epoch), np.array(loss), np.array(gnorm),
                                   np.array(counts, dtype=np.int64), np.zeros(len(counts), dtype=np.int64),
                                   np.asarray(x_a, dtype=float), evals)

    def stop(self, what, evals):
        raise DivergenceError(f"{what} diverged at {evals} evaluations",
                              self.trace(np.full(self.prob.dataset.d, np.nan), evals))


class OnePointReservoir:
    """A uniform pick over a stream of points: one ``rng.random()`` per
    offer, which keeps the t-th point offered if it is below 1/t."""

    def __init__(self, rng):
        self.rng, self.count, self.value = rng, 0, None

    def offer(self, x):
        self.count += 1
        if self.rng.random() < 1.0 / self.count:
            self.value = x.copy()

    def pick(self):
        return self.value


def direct_run(method, prob, cfg, sizes):
    """The runners' arithmetic one step at a time, without look-ahead
    gathering: each estimator gathers its own rows.  The sets are drawn
    ``DRAW_STEPS`` steps at a time, as the runners draw them.  Every taken
    step's set sizes are appended to ``sizes``."""
    n, eta = prob.dataset.n, cfg.eta
    scheme, p = cfg.scheme, cfg.scheme.p
    q = min(1.0, cfg.d_refresh / n)
    s_draw, s_out = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_draw = np.random.default_rng(s_draw)
    rng_out = np.random.default_rng(s_out)
    x = np.zeros(prob.dataset.d)
    rec = ReferenceRecorder(prob, x, cfg.checkpoint_epochs)

    def drawn(rows):
        sizes.append(rows.size)
        return rows

    if method == "svrg":
        res = OnePointReservoir(rng_out)
        res.offer(x)
        for _ in range(cfg.outer):
            snap = take_snapshot(prob, x)
            rec.anchor(n, x)
            for (subset,) in chunked(lambda k: (draw(scheme, rng_draw, steps=k),), cfg.m):
                subset = drawn(subset)
                x = x - eta * svrg_direction(prob, p, x, snap, subset)
                res.offer(x)
                rec.step(subset.size, x)
        return rec.finish(x, res.pick())
    if method == "saga":
        res = OnePointReservoir(rng_out)
        res.offer(x)
        mem = init_saga_memory(prob, x)
        rec.anchor(n, x)

        def draw_block(k):
            return draw(scheme, rng_draw, steps=k), bernoulli_subset(n, q, rng_draw, steps=k)

        for t, (subset, refresh) in enumerate(chunked(draw_block, cfg.steps)):
            subset, refresh = drawn(subset), drawn(refresh)
            v = saga_direction(prob, p, x, mem, subset)
            x_prev = x
            x = x - eta * v
            saga_refresh(prob, mem, x_prev, refresh)
            if (t + 1) % n == 0:
                mem.g = saga_recompute_average(prob, mem)
            res.offer(x)
            rec.step(subset.size + refresh.size, x)
        return rec.finish(x, res.pick())
    for _ in range(cfg.outer):
        inner = OnePointReservoir(rng_out)
        inner.offer(x)
        v = full_gradient(prob, x)
        x_prev = x
        x = x - eta * v
        inner.offer(x)
        rec.step(n, x)
        for (subset,) in chunked(lambda k: (draw(scheme, rng_draw, steps=k),), cfg.m - 1):
            subset = drawn(subset)
            v = v + sarah_increment(prob, p, x, x_prev, subset)
            x_prev = x
            x = x - eta * v
            inner.offer(x)
            rec.step(2 * subset.size, x)
        x = inner.pick()
    return rec.finish(x, x)


def assert_same_trace(a, b):
    for field in ("epoch", "loss", "grad_norm_sq", "sgrad_evals"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(a.x_a, b.x_a, equal_nan=True)  # NaN after divergence
    assert a.total_sgrad_evals == b.total_sgrad_evals


def lookahead_config(method, scheme, eta=0.3, d_refresh=0.5):
    # inner lengths and step counts are prime, so no chunk of 2-6 steps
    # divides them
    if method == "saga":
        return RunConfig(scheme, eta=eta, steps=97, d_refresh=d_refresh,
                         seed=13, checkpoint_epochs=0.4)
    return RunConfig(scheme, eta=eta, m=23, outer=3, seed=13, checkpoint_epochs=0.4)


class TestLookahead:
    RUNNERS = {"svrg": run_svrg, "saga": run_saga, "sarah": run_sarah}

    @pytest.mark.parametrize("method", ["svrg", "saga", "sarah"])
    @pytest.mark.parametrize("kind", ["uniform", "importance", "approx"])
    def test_runner_matches_direct_loop(self, method, kind):
        prob = small_problem(n=40, d=5, seed=41)
        cfg = lookahead_config(method, scheme_zoo(prob, b=3.0)[kind], eta=0.2)
        assert_same_trace(self.RUNNERS[method](prob, cfg), direct_run(method, prob, cfg, []))

    @pytest.mark.parametrize("method, kind", [
        *((m, k) for m in ("svrg", "saga", "sarah") for k in ("uniform", "importance", "approx")),
        ("sarah-convex", None)])
    def test_lookahead_entries_change_no_result(self, monkeypatch, method, kind):
        # a run's sets and numbers depend on its seed and config only: its
        # DRAW_STEPS blocks gathered a step at a time, a few steps at a
        # time or whole give one trace, alone (R = 1) and in a group of 3
        prob = small_problem(n=40, d=5, seed=41)
        if method == "sarah-convex":
            cfg = derive_sarah_convex_config(prob, m=151, replicates=2, seed=13, checkpoint_epochs=0.4)
        else:
            cfg = lookahead_config(method, scheme_zoo(prob, b=3.0)[kind], eta=0.2)
            cfg = dataclasses.replace(cfg, m=151, steps=151)  # blocks of 64, 64 and 22 steps
        results = []
        for entries in (1, 7, optimizers.LOOKAHEAD_ENTRIES, 1 << 20):
            monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", entries)
            if method == "sarah-convex":
                trace, vnorms = run_sarah_convex(prob, cfg)
                results.append(([trace], vnorms))
            else:
                run = self.RUNNERS[method]
                results.append(([run(prob, cfg), *run(prob, cfg, seeds=[cfg.seed, 2, 5])], None))
        for traces, vnorms in results[1:]:
            for got, want in zip(traces, results[0][0], strict=True):
                assert_same_trace(got, want)
            assert np.array_equal(vnorms, results[0][1])

    @pytest.mark.parametrize("entries", [1, 4, 6])
    @pytest.mark.parametrize("method", ["svrg", "saga", "sarah"])
    @pytest.mark.parametrize("kind", ["uniform", "importance", "approx"])
    def test_small_chunks_with_empty_sets_and_rows(self, monkeypatch, entries, method, kind):
        prob = empty_row_problem()
        cfg = lookahead_config(method, scheme_zoo(prob, b=1.0)[kind])
        monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", entries)
        sizes = []
        ref = direct_run(method, prob, cfg, sizes)
        assert_same_trace(self.RUNNERS[method](prob, cfg), ref)
        if kind == "importance" or method == "saga":
            assert 0 in sizes  # empty subsets (or refresh sets) were drawn

    @pytest.mark.parametrize("entries", [None, 4])
    @pytest.mark.parametrize("method", ["svrg", "saga", "sarah"])
    @pytest.mark.parametrize("kind", ["uniform", "importance", "approx"])
    def test_quadratic_with_mu_matches_direct_loop(self, monkeypatch, entries, method, kind):
        # the dense mu terms of every estimator: exact mu x in the anchored and
        # memory methods, per-component in the recursive one
        prob = empty_row_problem(LossKind.QUADRATIC, mu=0.3)
        cfg = lookahead_config(method, scheme_zoo(prob, b=2.0)[kind], eta=0.05, d_refresh=3.0)
        if entries:
            monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", entries)
        trace = self.RUNNERS[method](prob, cfg)
        assert np.all(np.isfinite(trace.loss)) and trace.sgrad_evals.size > 2
        assert_same_trace(trace, direct_run(method, prob, cfg, []))

    @pytest.mark.parametrize("method", ["svrg", "saga", "sarah"])
    def test_divergence_mid_chunk_keeps_partial_trace(self, monkeypatch, method):
        prob = empty_row_problem(LossKind.QUADRATIC, n=20, seed=3)
        cfg = lookahead_config(method, uniform_minibatch(20, 2), eta=50.0, d_refresh=2.0)
        monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", 4)
        sizes = []
        with pytest.raises(DivergenceError) as ref:
            direct_run(method, prob, cfg, sizes)
        taken = len(sizes) // 2 if method == "saga" else len(sizes)
        calls = []

        def counted_draw(scheme, rng, steps):
            calls.append(steps)
            return draw(scheme, rng, steps=steps)

        monkeypatch.setattr(optimizers, "draw", counted_draw)
        with pytest.raises(DivergenceError) as got:
            self.RUNNERS[method](prob, cfg)
        # each loop's steps drawn DRAW_STEPS at a time (the rest last);
        # diverged before the end of a block: steps were drawn and not taken
        loop = cfg.steps if method == "saga" else cfg.m - (method == "sarah")
        blocks = [min(optimizers.DRAW_STEPS, loop - s) for s in range(0, loop, optimizers.DRAW_STEPS)]
        assert calls == (blocks * cfg.outer)[:len(calls)]
        assert sum(calls) > taken
        assert str(got.value) == str(ref.value)
        assert_same_trace(got.value.trace, ref.value.trace)

    @pytest.mark.parametrize("entries", [1, 4, 6])
    @pytest.mark.parametrize("loss, mu", [(LossKind.QUADRATIC, 0.3), (LossKind.SIGMOID_SQUARED, 0.0)])
    def test_convex_sarah_matches_per_row_loop(self, monkeypatch, entries, loss, mu):
        # single-sample picks gathered a chunk at a time give the run that
        # gathers one row per step
        prob = empty_row_problem(loss, mu=mu)
        n, d = prob.dataset.n, prob.dataset.d
        p_cat = prob.L / prob.L.sum()
        monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", entries)
        cfg = derive_sarah_convex_config(prob, m=97, replicates=2, seed=8, checkpoint_epochs=0.4)
        trace, vn = run_sarah_convex(prob, cfg)
        picks, vnorms = [], []
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.replicates):
            rng = np.random.default_rng(child)
            x = np.zeros(d)
            rec = ReferenceRecorder(prob, x, cfg.checkpoint_epochs)
            v = full_gradient(prob, x)
            norms = [float(np.sum(v * v))]
            x_prev, x = x, x - cfg.eta * v
            rec.step(n, x)
            for _ in range(1, cfg.m):
                i = int(rng.choice(n, p=p_cat))
                picks.append(i)
                v = v + sarah_increment(prob, p_cat, x, x_prev, [i])
                norms.append(float(np.sum(v * v)))
                x_prev, x = x, x - cfg.eta * v
                rec.step(2, x)
            vnorms.append(norms)
        assert_same_trace(trace, rec.finish(x, x))
        assert np.array_equal(vn, np.mean(vnorms, axis=0))
        if mu:  # L_i >= mu, so empty rows are picked too
            assert any(prob.dataset.indptr[i] == prob.dataset.indptr[i + 1] for i in picks)

    def test_views_equal_block_of_each_step(self, monkeypatch):
        prob = empty_row_problem()
        ds = prob.dataset
        script = iter([
            (np.array([0, 2, 7]), np.array([], dtype=np.int64)),
            (np.array([], dtype=np.int64), np.array([2, 12, 29])),
            (np.array([2]), np.array([1, 3])),
            (np.arange(30), np.array([7])),
            (np.array([29]), np.array([0])),
        ])
        p = np.linspace(0.1, 0.9, 30)
        wanted = []

        def draw_block(k):
            # the script's next k steps, each set kind as one CSR pair
            wanted.extend(next(script) for _ in range(k))
            return tuple((np.cumsum([0] + [s.size for s in sets]), np.concatenate(sets))
                         for sets in zip(*wanted[-k:]))

        # the 5 steps' 97 entries in chunks of 2, 2 and 1 steps, so a
        # chunk's steps are sliced out of its rows
        monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", 40)
        steps = list(step_records(prob, p, 5, [draw_block]))
        assert len(steps) == 5
        for (rows, k, view, bins, w), want_sets in zip(steps, wanted):
            sets = (rows[:k], rows[k:])
            assert all(np.array_equal(a, b) for a, b in zip(sets, want_sets))
            want = ds.block(rows)
            assert view.size == want.size == rows.size
            for field in ("owner", "cols", "vals", "labels"):
                got, ref = getattr(view, field), getattr(want, field)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), field
            # the second set's entries scatter into bins [d, 2d)
            second = (want.owner >= sets[0].size).astype(np.int64)
            assert np.array_equal(bins, want.cols + ds.d * second)
            assert np.array_equal(w, 1.0 / (ds.n * p[rows]))

    def split_problem(self):
        # empty rows first, last and in between
        rows = [
            (np.array([], dtype=int), np.array([])),
            (np.array([0, 3]), np.array([1.5, -2.0])),
            (np.array([], dtype=int), np.array([])),
            (np.array([1, 2, 4]), np.array([0.5, 0.25, -1.0])),
            (np.array([4]), np.array([3.0])),
            (np.array([], dtype=int), np.array([])),
        ]
        return build_problem(make_dataset(rows, [1, -1, 1, 1, -1, -1], d=5), LossKind.QUADRATIC)

    def test_chunk_views_equal_block_of_their_rows(self, monkeypatch):
        prob = self.split_problem()
        ds, p = prob.dataset, np.linspace(0.2, 0.7, 6)
        sets = [[0], [], [1, 3], [5, 2, 0], [], [4], [3, 3, 1], list(range(6)), []]
        # the 9 steps' 20 entries, counted exactly: in one chunk, in 4 chunks
        # of at most 3 steps (20 / 5 is 4, not a rounding above it), and in
        # 5 chunks of at most 2 steps
        chunks = []
        for entries in (1 << 20, 5, 4):
            monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", entries)
            chunks += [ch for _, ch in optimizers._chunks(prob, p, 9, [scripted_draw(sets)])]
        assert [len(ch.ks) for ch in chunks] == [9, 3, 3, 3, 2, 2, 2, 2, 1]
        steps = [(ch, t) for ch in chunks for t in range(len(ch.ks))]
        sets = sets * 3
        assert len(steps) == len(sets) and all(ch.bins is None for ch in chunks)
        for rows, (ch, t) in zip(sets, steps):
            got_rows, view, w = ch.step(t)
            want = ds.block(rows)
            assert np.array_equal(got_rows, rows) and ch.ks[t] == len(rows)
            assert view.size == want.size == len(rows)
            for field in ("owner", "cols", "vals", "labels"):
                got, ref = getattr(view, field), getattr(want, field)
                assert got.dtype == ref.dtype and np.array_equal(got, ref), field
            assert np.array_equal(w, 1.0 / (ds.n * p[np.asarray(rows, dtype=np.int64)]))
            # zero-copy: the entries are the chunk block's own
            assert view.cols.base is ch.block.cols and view.vals.base is ch.block.vals
            x = np.arange(5.0) - 2.0
            assert np.array_equal(view.margins(x), want.margins(x))

    @pytest.mark.parametrize("runs", [1, 200])
    def test_chunk_peak_memory_per_budgeted_entry(self, monkeypatch, runs):
        # drawing and gathering one chunk of R single-sample runs peaks
        # under 64 bytes per entry of the R LOOKAHEAD_ENTRIES budget
        # (measured 46.6 at R = 1, 44.0 at R = 200); a 64-step block of these
        # 256-entry rows holds 16 times that budget
        monkeypatch.setattr(optimizers, "LOOKAHEAD_ENTRIES", 1 << 10)
        prob = small_problem(n=50, d=256, seed=1, loss=LossKind.QUADRATIC, mu=0.1)
        p = prob.L / prob.L.sum()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]

        def draw_block(k, rng):  # run_sarah_convex's draw
            return ((np.arange(k + 1), cdf.searchsorted(rng.random(k), side="right")),)

        draws = [functools.partial(draw_block, rng=np.random.default_rng(j)) for j in range(runs)]
        chunks = optimizers._chunks(prob, p, optimizers.DRAW_STEPS, draws)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cost, ch = next(chunks)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert cost.shape[1] < optimizers.DRAW_STEPS  # the budget splits the block
        assert ch.block.cols.size <= runs * optimizers.LOOKAHEAD_ENTRIES
        assert peak <= 64 * runs * optimizers.LOOKAHEAD_ENTRIES

    def test_chunk_of_empty_steps(self):
        prob = self.split_problem()
        p = np.full(6, 0.5)
        assert list(optimizers._chunks(prob, p, 0, [scripted_draw([])])) == []
        # rows 0, 2 and 5 store no entries
        steps = list(step_records(prob, p, 4, [scripted_draw([[], [0, 2], [5], []])]))
        assert [view.size for _, _, view, _, _ in steps] == [0, 2, 1, 0]
        assert all(view.cols.size == 0 and view.owner.size == 0 for _, _, view, _, _ in steps)


class TestTracedNames:
    """The benchmark's tracer (bench/worker.py) wraps ``svrg_direction`` and
    ``sarah_increment`` on the ``optimizers`` module and counts each call's
    last positional argument as its rows: the runners must call them
    through the module, once per step, with the step's rows last."""

    @pytest.mark.parametrize("seeds", [[5], [5, 6, 7]])
    @pytest.mark.parametrize("method, name", [("svrg", "svrg_direction"),
                                              ("sarah", "sarah_increment")])
    def test_one_wrapped_call_per_step_counts_every_row(self, monkeypatch, method, name, seeds):
        prob = small_problem(n=40, d=5, seed=41)
        cfg = lookahead_config(method, scheme_zoo(prob, b=3.0)["importance"], eta=0.2)
        run = TestLookahead.RUNNERS[method]
        want = run(prob, cfg, seeds=seeds)
        real, rows = getattr(optimizers, name), []

        def counting(*args, **kwargs):
            assert len(args) == 5 and set(kwargs) == {"block", "w"}
            rows.append(len(args[-1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizers, name, counting)
        got = run(prob, cfg, seeds=seeds)
        for a, b in zip(got, want):
            assert_same_trace(a, b)
        steps = cfg.m if method == "svrg" else cfg.m - 1
        assert len(rows) == cfg.outer * steps
        # each outer loop opens with one pass over the n rows, per seed
        anchors = len(seeds) * cfg.outer * prob.dataset.n
        per_row = 2 if method == "sarah" else 1
        assert per_row * sum(rows) + anchors == sum(t.total_sgrad_evals for t in got)


class TestRecorder:
    @pytest.mark.parametrize(
        "loss, mu",
        [(LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.0), (LossKind.QUADRATIC, 0.6)],
    )
    def test_checkpoint_is_loss_value_and_full_gradient(self, loss, mu):
        # one pass gives both; every fifth row of the problem is empty
        prob = empty_row_problem(loss, mu)
        rng = np.random.default_rng(5)
        d = prob.dataset.d
        points = (np.zeros(d), rng.standard_normal(d), 30.0 * rng.standard_normal(d))
        group = optimizers._Group(prob, np.zeros(d), 3, 1.0)
        x = np.concatenate(points)
        # each point alone, then all three from one pass, then from a pass made at x
        for k, runs in enumerate([[0], [1], [2], [0, 1, 2], [2, 1, 0]]):
            group.checkpoint(runs, np.full(3, k + 1), x, None if k < 4 else optimizers.full_pass(prob, x))
        for j, x in enumerate(points):
            rows = group.rows[j][1:]
            g = full_gradient(prob, x)
            assert [row[3] for row in rows] == [j + 1, 4, 5]
            for _, f, gnorm, _, _ in rows:
                assert f == loss_value(prob, x)
                assert gnorm == float(np.sum(g * g))  # a fixed-order sum, not a BLAS dot

    LIMIT = optimizers.DIVERGENCE_LIMIT

    @pytest.mark.parametrize("x, rejected", [
        (np.array([0.0, np.nan, 1.0]), True),
        (np.array([np.inf]), True),
        (np.array([2.0, -np.inf]), True),
        (np.full(3, np.nan), True),
        (np.array([0.5, LIMIT]), False),
        (np.array([-LIMIT, 0.5]), False),
        (np.array([0.5, np.nextafter(LIMIT, np.inf)]), True),
        (np.array([np.nextafter(-LIMIT, -np.inf)]), True),
        # the sum of squares overflows the screen; every entry is in range
        (np.full(10**4, 0.99 * LIMIT), False),
        (np.full(10**4, -0.99 * LIMIT), False),
        (np.full(7, 5e-324), False),
        (np.array([5e-324, -2.2e-308, 1e-300]), False),
        (np.zeros(0), False),
    ])
    def test_guard_screen_keeps_the_exact_test(self, x, rejected):
        # the one-dot screen passes only iterates that the exact test passes
        assert rejected == (not np.all(np.isfinite(x)) or np.any(np.abs(x) > self.LIMIT))
        if x.size == 10**4:
            assert not float(x @ x) <= optimizers.DIVERGENCE_SCREEN
        assert optimizers._diverged(x) == rejected

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_step_stops_the_run_that_diverged(self, j):
        # the group's guard names run j, at its own count, with its trace
        # so far; every other run's point is past the screen, in range
        prob = small_problem(n=6, d=3, seed=11)
        group = optimizers._Group(prob, np.zeros(3), 3, 0.5)
        group.plan(np.array([[2, 9], [5, 1], [4, 13]]))
        group.step(0, np.zeros(9))
        x = np.full(9, 0.99 * self.LIMIT)
        x[3 * j + 1] = np.nan
        with pytest.raises(optimizers._Diverged) as stop:
            group.step(1, x)
        assert stop.value.index == j
        error = stop.value.error
        assert isinstance(error, DivergenceError)
        assert str(error) == f"iterate diverged at {[11, 6, 17][j]} evaluations"
        assert error.trace.sgrad_evals.tolist() == [[0], [0, 5], [0, 4]][j]
        assert error.trace.total_sgrad_evals == [11, 6, 17][j]
        assert np.isnan(error.trace.x_a).all() and error.trace.x_a.shape == (3,)


class TestSarahConvex:
    def test_picks_match_rng_choice(self):
        # the runner picks from a cdf built once; rng.choice(n, p=p_cat) on
        # the same stream must give the same components and so the same run
        prob = small_problem(n=40, d=3, seed=42, loss=LossKind.QUADRATIC, mu=0.5, skew=50.0)
        n = prob.dataset.n
        p_cat = prob.L / prob.L.sum()
        cfg = derive_sarah_convex_config(prob, m=300, replicates=2, seed=6)
        trace, vn = run_sarah_convex(prob, cfg)
        vnorms = []
        for child in np.random.SeedSequence(6).spawn(2):
            rng = np.random.default_rng(child)
            x = np.zeros(3)
            v = full_gradient(prob, x)
            norms = [float(np.sum(v * v))]
            x_prev, x = x, x - cfg.eta * v
            for _ in range(1, cfg.m):
                i = int(rng.choice(n, p=p_cat))
                v = v + sarah_increment(prob, p_cat, x, x_prev, [i])
                norms.append(float(np.sum(v * v)))
                x_prev, x = x, x - cfg.eta * v
            vnorms.append(norms)
        assert np.array_equal(vn, np.mean(vnorms, axis=0))
        assert np.array_equal(trace.x_a, x)
        # and pick by pick, from one seed
        cdf = np.cumsum(p_cat)
        cdf /= cdf[-1]
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        picks = [int(cdf.searchsorted(a.random(), side="right")) for _ in range(20_000)]
        assert picks == [int(b.choice(n, p=p_cat)) for _ in range(20_000)]

    def test_v0_is_exact_full_gradient(self):
        prob = small_problem(n=8, d=3, seed=23, loss=LossKind.QUADRATIC, mu=0.5)
        cfg = derive_sarah_convex_config(prob, m=5, replicates=3, seed=1)
        _, vn = run_sarah_convex(prob, cfg)
        g = full_gradient(prob, np.zeros(3))
        assert abs(vn[0] - float(g @ g)) <= 1e-15

    def test_eta_domain(self):
        prob = small_problem(n=8, d=3, seed=24, loss=LossKind.QUADRATIC, mu=0.5)
        with pytest.raises(ConfigError):
            derive_sarah_convex_config(prob, eta=2.0 / prob.Lbar)
        cfg = derive_sarah_convex_config(prob, m=3)
        cfg.eta = 2.0 / prob.Lbar
        with pytest.raises(ConfigError):
            run_sarah_convex(prob, cfg)

    def test_mu_zero_rate_degenerates_to_one(self):
        prob = small_problem(n=8, d=3, seed=25, loss=LossKind.QUADRATIC, mu=0.0)
        eta = 1.0 / prob.Lbar
        rate = 1.0 - 2.0 * prob.mu * prob.Lbar * eta / (prob.mu + prob.Lbar)
        assert rate == 1.0
        cfg = derive_sarah_convex_config(prob, m=4, replicates=2, seed=0)
        trace, vn = run_sarah_convex(prob, cfg)
        assert vn.size == 4 and np.all(vn >= 0)

    def test_strongly_convex_decay(self):
        prob = build_problem(
            synthesize(50, 10, 4.0, seed=3), LossKind.QUADRATIC, mu=0.3
        )
        eta = 2.0 / (prob.mu + prob.Lbar)
        rate = 1.0 - 2.0 * prob.mu * prob.Lbar * eta / (prob.mu + prob.Lbar)
        cfg = derive_sarah_convex_config(prob, m=20, eta=eta, replicates=150, seed=4)
        _, vn = run_sarah_convex(prob, cfg)
        fitted = math.exp(np.polyfit(np.arange(vn.size), np.log(vn), 1)[0])
        assert fitted <= rate * 1.05

    def test_average_strong_convexity_rate_bound(self):
        # the weaker guarantee needing only f (not each f_i) strongly convex:
        # per-step factor 1 - (2/(eta Lbar) - 1) mu^2 eta^2 for eta < 2/Lbar
        prob = build_problem(
            synthesize(50, 10, 16.0, seed=3), LossKind.QUADRATIC, mu=1.0
        )
        eta = 1.0 / prob.Lbar
        weak = 1.0 - (2.0 / (eta * prob.Lbar) - 1.0) * prob.mu**2 * eta**2
        cfg = derive_sarah_convex_config(prob, m=20, eta=eta, replicates=300, seed=5)
        _, vn = run_sarah_convex(prob, cfg)
        fitted = math.exp(np.polyfit(np.arange(vn.size), np.log(vn), 1)[0])
        assert fitted <= weak * 1.05


@pytest.mark.parametrize(
    "runner, fields",
    [
        ("svrg", dict(eta=math.nan)),
        ("saga", dict(eta=math.nan)),
        ("sarah", dict(eta=math.nan)),
        ("convex", dict(eta=0.0)),
        ("convex", dict(eta=-0.5)),
        ("convex", dict(eta=math.nan)),
        ("convex", dict(replicates=0)),
        ("convex", dict(replicates=-3)),
        ("wrapper", dict(restarts=-2)),
        ("svrg", dict(checkpoint_epochs=-1.0)),
        ("saga", dict(checkpoint_epochs=0.0)),
        ("sarah", dict(checkpoint_epochs=math.nan)),
        ("convex", dict(checkpoint_epochs=math.inf)),
    ],
)
def test_bad_config_rejected_before_running(runner, fields):
    prob = small_problem(n=6, d=3, seed=11, loss=LossKind.QUADRATIC, mu=0.4)
    base = dict(scheme=uniform_minibatch(6, 2), eta=1e-3, m=2, outer=1, steps=4,
                d_refresh=1.0, replicates=1, restarts=1)
    cfg = RunConfig(**{**base, **fields})
    runs = {
        "svrg": run_svrg, "saga": run_saga, "sarah": run_sarah,
        "convex": run_sarah_convex,
        "wrapper": lambda prob, cfg: run_gd_wrapper(prob, "svrg", 1.0, cfg),
    }
    with pytest.raises(ConfigError):
        runs[runner](prob, cfg)


class TestGdWrapper:
    def test_zero_restarts_identity(self):
        prob = small_problem(n=6, d=3, seed=26, loss=LossKind.QUADRATIC, mu=0.4)
        scheme = uniform_minibatch(6, 2)
        cfg = RunConfig(scheme, eta=0.0, restarts=0, seed=0)
        trace, gaps = run_gd_wrapper(prob, "svrg", tau=2.0 / 0.4, config=cfg)
        assert np.array_equal(trace.x_a, np.zeros(3))
        assert gaps.size == 1

    def test_tau_must_be_positive(self):
        prob = small_problem(n=6, d=3, seed=27, loss=LossKind.QUADRATIC, mu=0.4)
        cfg = RunConfig(uniform_minibatch(6, 2), eta=0.0, restarts=1)
        with pytest.raises(ConfigError):
            run_gd_wrapper(prob, "svrg", tau=0.0, config=cfg)

    def test_unknown_inner_method(self):
        prob = small_problem(n=6, d=3, seed=28, loss=LossKind.QUADRATIC, mu=0.4)
        cfg = RunConfig(uniform_minibatch(6, 2), eta=0.0, restarts=1)
        with pytest.raises((ConfigError, ValueError)):
            run_gd_wrapper(prob, "sarah-convex", tau=1.0, config=cfg)

    @pytest.mark.parametrize("inner", ["svrg", "saga"])
    def test_linear_convergence_on_quadratic(self, inner):
        prob = build_problem(
            synthesize(50, 10, 4.0, seed=9), LossKind.QUADRATIC, mu=0.5
        )
        fstar = loss_value(prob, exact_minimizer(prob))
        scheme = independent(optimal_probabilities(prob.L, 2.0))
        tau = 2.0 / prob.mu
        finals = []
        for seed in (1, 2, 3):
            cfg = RunConfig(scheme, eta=0.0, restarts=25, seed=seed)
            trace, gaps = run_gd_wrapper(prob, inner, tau, cfg)
            # median-of-seeds monotonicity: allow isolated stochastic upticks.
            # A restart that starts at the minimum to within rounding moves
            # the loss by 0 or an ulp either way, so those restarts are left out
            drops = np.diff(trace.loss)[trace.loss[:-1] - fstar > 1e-12]
            assert np.median(drops) < 0
            finals.append(trace.loss[-1] - fstar)
        # regression fixture: both inner methods drive the gap below 1e-6
        # within 25 restarts on this instance (first verified run)
        assert np.median(finals) <= 1e-6

    def test_sarah_inner_runs(self):
        prob = build_problem(
            synthesize(30, 5, 2.0, seed=10), LossKind.QUADRATIC, mu=0.5
        )
        scheme = independent(optimal_probabilities(prob.L, 2.0))
        cfg = RunConfig(scheme, eta=0.0, restarts=5, seed=0)
        trace, gaps = run_gd_wrapper(prob, "sarah", tau=2.0 / prob.mu, config=cfg)
        assert trace.loss[-1] <= trace.loss[0]

    def test_sarah_inner_with_small_lbar(self):
        # Lbar ~ 0.4 at b = 1 puts the fixed point of m + 1 = 2 / eta(m) below
        # 1; unclamped, the iterates fell until the square root was undefined
        ds = synthesize(50, 5, 10.0, seed=0)
        ds = csr_dataset(ds.indptr, ds.indices, ds.data * 0.3, ds.labels, ds.d)
        prob = build_problem(ds, LossKind.QUADRATIC, mu=0.05)
        scheme = uniform_minibatch(50, 1)
        cfg = RunConfig(scheme, eta=0.0, restarts=3, seed=0)
        assert optimizers._wrapper_inner_config(prob, "sarah", scheme, 0, cfg).m == 1
        trace, gaps = run_gd_wrapper(prob, "sarah", tau=2.0 / prob.mu, config=cfg)
        assert trace.sgrad_evals.tolist() == [0, 50, 100, 150]
        assert np.all(np.diff(trace.loss) < 0)

    def test_restart_whose_objective_diverges(self, monkeypatch):
        # the second restart point, 1e60 in every entry, has f past
        # DIVERGENCE_LIMIT: its checkpoint stops the wrapper at the
        # evaluations of both inner runs, with the rows before it
        prob = small_problem(n=6, d=3, seed=26, loss=LossKind.QUADRATIC, mu=0.4)
        points = iter([(np.full(3, 0.1), 20), (np.full(3, 1e60), 17)])

        def inner(problem, config, x0=None):
            x_a, evals = next(points)
            zero = np.zeros(1, dtype=np.int64)
            return optimizers.RunTrace(
                epoch=np.zeros(1), loss=np.array([loss_value(problem, x0)]),
                grad_norm_sq=np.zeros(1), sgrad_evals=zero, wall_ns=zero, x_a=x_a,
                total_sgrad_evals=evals)

        monkeypatch.setattr(optimizers, "run_svrg", inner)
        cfg = RunConfig(uniform_minibatch(6, 2), eta=0.0, restarts=3, seed=0)
        with pytest.raises(DivergenceError, match="^objective diverged at 37 evaluations$") as err:
            run_gd_wrapper(prob, "svrg", tau=2.0 / prob.mu, config=cfg)
        trace = err.value.trace
        assert trace.sgrad_evals.tolist() == [0, 20] and trace.total_sgrad_evals == 37
        assert trace.loss.tolist() == [loss_value(prob, np.zeros(3)),
                                       loss_value(prob, np.full(3, 0.1))]
        assert np.isnan(trace.x_a).all()

    def test_restart_streams_pinned(self):
        # restart k runs on the k-th child of SeedSequence(seed): a change to
        # the restart streams moves the realised evaluations and the gaps
        prob = build_problem(synthesize(30, 5, 2.0, seed=10), LossKind.QUADRATIC, mu=0.5)
        scheme = independent(optimal_probabilities(prob.L, 2.0))
        cfg = RunConfig(scheme, eta=0.0, restarts=3, seed=8)
        trace, gaps = run_gd_wrapper(prob, "svrg", tau=2.0 / prob.mu, config=cfg)
        assert trace.sgrad_evals.tolist() == [0, 629, 1287, 1940]
        assert gaps.tolist() == pytest.approx(
            [0.0, 2.7135232280317556e-05, 3.430465300713337e-08, 4.691691479763449e-12],
            rel=1e-9, abs=0.0,
        )
        assert trace.loss[-1] == pytest.approx(0.46591370661043163, rel=1e-9)


class TestPredictComplexity:
    def test_sarah_large_b_linear_scaling(self):
        base = dict(n=1000, alpha=0.5, Lbar=2.0, gap=1.0, epsilon=1.0)
        c1 = predict_complexity("sarah", b=10_000, **base)
        c2 = predict_complexity("sarah", b=20_000, **base)
        # past the constant n, the root term dominates and scales linearly in b
        assert (c2 - 1000) / (c1 - 1000) == pytest.approx(2.0, rel=0.01)

    def test_svrg_decreasing_in_alpha(self):
        a = predict_complexity("svrg", 100, 2.0, 1.0, 2.0, 1.0, 1e-4)
        b = predict_complexity("svrg", 100, 2.0, 0.5, 2.0, 1.0, 1e-4)
        assert b < a

    def test_saga_uniform_dominates_optimal(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            L = rng.uniform(0.1, 10.0, size=n)
            b = 2.0
            if b * L.max() > L.sum():
                continue
            a_uni = compute_alpha(L, uniform_minibatch(n, 2)).alpha
            a_opt = compute_alpha(L, independent(optimal_probabilities(L, b))).alpha
            c_uni = predict_complexity("saga", n, b, a_uni, float(L.mean()), 1.0, 1e-3)
            c_opt = predict_complexity("saga", n, b, a_opt, float(L.mean()), 1.0, 1e-3)
            assert c_uni >= c_opt

    def test_svrg_max_with_n(self):
        # tiny target cost is floored at n (the initial full pass)
        assert predict_complexity("svrg", 500, 1.0, 0.5, 1.0, 1e-9, 1.0) == 500

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            predict_complexity("svrg", 10, 1.0, 0.5, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            predict_complexity("gd-wrapper", 10, 1.0, 0.5, 1.0, 1.0, 1.0)


class TestEvalAccounting:
    def test_svrg_epoch_cost(self):
        # M outer loops cost n + (realized subset sizes) each; with the fixed
        # cardinality law the total is exactly M (n + m b)
        prob = small_problem(n=10, d=3, seed=30)
        scheme = uniform_minibatch(10, 2)
        cfg = RunConfig(scheme, eta=0.01, m=3, outer=4, seed=1)
        trace = run_svrg(prob, cfg)
        assert trace.total_sgrad_evals == 4 * (10 + 3 * 2)

    def test_sarah_epoch_cost(self):
        prob = small_problem(n=10, d=3, seed=31)
        scheme = uniform_minibatch(10, 2)
        cfg = RunConfig(scheme, eta=0.01, m=4, outer=3, seed=1)
        trace = run_sarah(prob, cfg)
        assert trace.total_sgrad_evals == 3 * (10 + 2 * 2 * 3)

    def test_saga_counts_realized_sets(self):
        prob = small_problem(n=10, d=3, seed=32)
        scheme = independent(np.full(10, 0.3))
        cfg = RunConfig(scheme, eta=0.01, steps=20, d_refresh=2.0, seed=1)
        trace = run_saga(prob, cfg)
        # init pass plus at least one eval accounted per drawn element
        assert trace.total_sgrad_evals >= 10
        assert trace.sgrad_evals[-1] <= trace.total_sgrad_evals


# one d = 2e4 run, its trace's numbers as one hash: a BLAS dot over the d
# coordinates (a checkpoint's ||grad f||^2, or its loss's mu ||x||^2 term)
# changes its last bits with the OpenBLAS thread count at this size
BLAS_THREADS_RUN = """
import hashlib
import numpy as np
from vropt.optimizers import derive_svrg_config, run_svrg
from vropt.problems import LossKind, build_problem, csr_dataset
from vropt.sampling import uniform_minibatch

n, d = 60, 20_000
rng = np.random.default_rng(3)
rows = [np.unique(c) for c in rng.choice(d, size=(n, 400))]
indptr = np.concatenate(([0], np.cumsum([r.size for r in rows])))
ds = csr_dataset(indptr, np.concatenate(rows), 0.05 * rng.standard_normal(indptr[-1]),
                 rng.integers(0, 2, n) * 2 - 1, d)
prob = build_problem(ds, LossKind.QUADRATIC, mu=0.1)
cfg = derive_svrg_config(prob, uniform_minibatch(n, 2), epochs=2.0, seed=1, checkpoint_epochs=0.5)
t = run_svrg(prob, cfg, x0=rng.standard_normal(d))
print(t.loss.size, hashlib.sha256(b"".join(
    a.tobytes() for a in (t.loss, t.grad_norm_sq, t.sgrad_evals, t.x_a))).hexdigest())
"""


def test_trace_bits_do_not_depend_on_blas_threads():
    src = str(Path(optimizers.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_RUN], capture_output=True,
                             text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert out[0] == out[1] and out[0].startswith("5 ")
