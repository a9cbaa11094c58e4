import re
import tracemalloc

import numpy as np
import pytest

from vropt import sampling
from vropt.bruteforce import enumerate_law
from vropt.sampling import (
    CLASS_RATIO,
    SamplingKind,
    approximate_independent,
    bernoulli_subset,
    compute_alpha,
    draw,
    floor_smoothness,
    independent,
    optimal_probabilities,
    probability_matrix,
    uniform_minibatch,
    verify_eso,
)


def kkt_min_sum_sq_over_p(L, b, iters=200):
    """Independent oracle for the importance probabilities: the KKT
    conditions of min sum L_i^2/p_i over {sum p = b, 0 < p <= 1} give
    p_i = min(1, L_i / sqrt(lam)); bisect on lam so that sum p = b."""
    L = np.asarray(L, float)

    def total(lam):
        return np.minimum(1.0, L / np.sqrt(lam)).sum()

    # total(lam) falls from n towards 0; at hi = (sum L / b)^2 it is <= b
    lo, hi = 0.0, (L.sum() / b) ** 2
    for _ in range(iters):
        lam = 0.5 * (lo + hi)
        if total(lam) > b:
            lo = lam
        else:
            hi = lam
    return np.minimum(1.0, L / np.sqrt(0.5 * (lo + hi)))


class TestComputeV:
    def test_uniform_formula(self):
        s = uniform_minibatch(10, 4)
        assert np.allclose(s.v, 6.0 / 9.0, rtol=0, atol=1e-15)

    def test_independent_full_batch(self):
        s = independent([1.0, 1.0, 1.0])
        assert np.array_equal(s.v, np.zeros(3))

    def test_v_at_least_one_minus_p(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = rng.uniform(0.05, 0.6, size=n)
            for scheme in (independent(p), approximate_independent(p)):
                assert np.all(scheme.v >= 1.0 - scheme.p - 1e-12)


class TestConstructors:
    def test_uniform_rejects_non_integer_b(self):
        with pytest.raises(ValueError):
            uniform_minibatch(5, 2.5)

    def test_uniform_bounds(self):
        with pytest.raises(ValueError):
            uniform_minibatch(5, 0)
        with pytest.raises(ValueError):
            uniform_minibatch(5, 6)

    def test_b_equals_sum_p(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.1, 1.0, size=7)
        s = independent(p)
        assert abs(s.b - p.sum()) <= 1e-12 * abs(s.b)

    def test_approx_fallback_on_degenerate(self):
        # k = 1 fractional entry
        s = approximate_independent([0.5, 1.0, 1.0])
        assert s.kind is SamplingKind.INDEPENDENT
        # a = k (law coincides with the independent one)
        s = approximate_independent([0.2, 0.4, 0.6, 0.8])
        assert s.kind is SamplingKind.INDEPENDENT

    def test_approx_genuine(self):
        s = approximate_independent([0.5, 0.5, 0.5, 0.5])
        assert s.kind is SamplingKind.APPROX_INDEPENDENT
        assert s.a == 2 and s.k == 4
        # thinning probabilities stay within [0, 1]
        assert np.all(s.k * s.p / s.a <= 1.0 + 1e-12)
        assert s.a >= s.b + s.k - s.n

    def test_scheme_immutable(self):
        s = independent([0.5, 0.5])
        with pytest.raises(ValueError):
            s.p[0] = 0.9


class TestOptimalProbabilities:
    def test_spread_example(self):
        p = optimal_probabilities([1, 2, 3, 4], 2)
        assert np.allclose(p, [0.2, 0.4, 0.6, 0.8], rtol=0, atol=1e-15)

    def test_equal_l_is_uniform(self):
        p = optimal_probabilities([5, 5, 5, 5], 3)
        assert np.allclose(p, 0.75, rtol=0, atol=1e-15)

    def test_k_scan_truncates(self):
        p = optimal_probabilities([1, 1, 1, 10], 3)
        assert np.allclose(p, [2 / 3, 2 / 3, 2 / 3, 1.0], rtol=0, atol=1e-15)

    def test_unsorted_input_unpermuted(self):
        p = optimal_probabilities([10, 1, 1, 1], 3)
        assert np.allclose(p, [1.0, 2 / 3, 2 / 3, 2 / 3], rtol=0, atol=1e-15)

    def test_sum_and_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            L = rng.uniform(0.01, 50.0, size=n)
            b = float(rng.uniform(0.5, n))
            p = optimal_probabilities(L, b)
            assert abs(p.sum() - b) <= 1e-12 * max(1.0, b)
            assert np.all(p > 0) and np.all(p <= 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_probabilities([1, 2], 0.0)
        with pytest.raises(ValueError):
            optimal_probabilities([1, 2], 2.5)
        with pytest.raises(ValueError):
            optimal_probabilities([1, -2], 1.0)

    def test_tiny_l_floored(self):
        p = optimal_probabilities([1e-300, 1.0], 1.0)
        assert np.all(p > 0)

    def test_matches_kkt_bisection_oracle(self):
        L = np.array([1.0, 2.0, 3.0, 4.0])
        b = 2.0
        p_star = optimal_probabilities(L, b)
        p_kkt = kkt_min_sum_sq_over_p(L, b)
        obj = lambda p: float(np.sum(L**2 / p))
        assert obj(p_star) <= obj(p_kkt) + 1e-9
        assert np.allclose(p_star, p_kkt, atol=1e-3)


class TestComputeAlpha:
    def test_equal_l_uniform(self):
        n, b = 10, 4
        cc = compute_alpha(np.ones(n), uniform_minibatch(n, b))
        assert abs(cc.alpha - (n - b) / (n - 1)) <= 1e-12

    def test_equal_l_optimal_independent(self):
        n, b = 10, 4
        p = optimal_probabilities(np.ones(n), float(b))
        cc = compute_alpha(np.ones(n), independent(p))
        assert abs(cc.alpha - (n - b) / n) <= 1e-12

    def test_full_batch_zero(self):
        cc = compute_alpha(np.ones(3), independent([1.0, 1.0, 1.0]))
        assert cc.alpha == 0.0

    def test_alpha_consistency(self):
        cc = compute_alpha([1.0, 2.0], independent([0.5, 0.5]))
        assert abs(cc.alpha - cc.K / cc.Lbar**2) <= 1e-15

    def test_closed_forms_when_k_is_n(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            L = rng.uniform(0.5, 2.0, size=n)
            b = min(float(rng.uniform(1.0, 3.0)), L.sum() / L.max() * 0.99)
            a_star = compute_alpha(L, independent(optimal_probabilities(L, b))).alpha
            expect = 1.0 - b * np.sum(L**2) / L.sum() ** 2
            assert abs(a_star - expect) <= 1e-12
            bi = int(rng.integers(1, n))
            a_uni = compute_alpha(L, uniform_minibatch(n, bi)).alpha
            expect_u = n * (n - bi) / (n - 1) * np.sum(L**2) / L.sum() ** 2
            assert abs(a_uni - expect_u) <= 1e-12 * max(1.0, expect_u)

    def test_approx_alpha_closed_form(self):
        # for the optimal p with a genuine two-stage scheme the variance
        # constant has the explicit form with t = (a-1)k/(a(k-1))
        L = np.array([1.0, 1.2, 1.5, 2.0, 2.5])
        b = 2.0
        p = optimal_probabilities(L, b)
        s = approximate_independent(p)
        assert s.kind is SamplingKind.APPROX_INDEPENDENT
        n, k, a = s.n, s.k, s.a
        t = (a - 1) * k / (a * (k - 1))
        expect = (
            b * L.sum() ** 2 / ((b + k - n) * n**2) - b * t / n**2 * np.sum(L**2)
        ) / L.mean() ** 2
        got = compute_alpha(L, s).alpha
        assert abs(got - expect) <= 1e-12 * max(1.0, expect)

    def test_uniform_alpha_improvement_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            b = int(rng.integers(1, n + 1))
            L = rng.uniform(0.01, 10.0, size=n)
            alpha = compute_alpha(L, uniform_minibatch(n, b)).alpha
            Lbar, Lmax = L.mean(), L.max()
            assert alpha * Lbar <= Lmax * (1 + 1e-12)
            if n > 1:
                assert alpha * Lbar**2 <= (n - b) / (n - 1) * Lmax**2 * (1 + 1e-12)

    def test_alpha_strictly_decreasing_in_b(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            L = rng.uniform(0.5, 3.0, size=n)
            b_max = int(L.sum() / L.max())
            alphas = [
                compute_alpha(L, independent(optimal_probabilities(L, float(b)))).alpha
                for b in range(1, max(2, b_max + 1))
            ]
            assert all(a2 < a1 for a1, a2 in zip(alphas, alphas[1:]))


class TestProbabilityMatrix:
    def test_bnice(self):
        P = probability_matrix(uniform_minibatch(3, 2))
        assert np.allclose(np.diag(P), 2 / 3, rtol=0, atol=1e-15)
        off = P[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1 / 3, rtol=0, atol=1e-15)

    def test_independent(self):
        P = probability_matrix(independent([0.5, 0.5]))
        assert np.allclose(P, [[0.5, 0.25], [0.25, 0.5]], rtol=0, atol=1e-15)

    def test_trace_is_b(self):
        rng = np.random.default_rng(6)
        schemes = [
            uniform_minibatch(7, 3),
            independent(rng.uniform(0.1, 1.0, size=7)),
            approximate_independent(rng.uniform(0.1, 0.5, size=7)),
        ]
        for s in schemes:
            assert abs(np.trace(probability_matrix(s)) - s.b) <= 1e-12 * max(1.0, s.b)

    def test_cap(self):
        with pytest.raises(ValueError):
            probability_matrix(uniform_minibatch(65, 2))

    def test_p_minus_ppt_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            for s in (
                uniform_minibatch(n, int(rng.integers(1, n + 1))),
                independent(rng.uniform(0.05, 1.0, size=n)),
                approximate_independent(rng.uniform(0.05, 0.55, size=n)),
            ):
                P = probability_matrix(s)
                M = P - np.outer(s.p, s.p)
                assert np.linalg.eigvalsh(M)[0] >= -1e-12


class TestVerifyEso:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_kinds_certified(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            schemes = [
                uniform_minibatch(n, int(rng.integers(1, n + 1))),
                independent(rng.uniform(0.05, 1.0, size=n)),
                approximate_independent(rng.uniform(0.05, 0.55, size=n)),
            ]
            for s in schemes:
                assert verify_eso(probability_matrix(s), s.p, s.v, tol=1e-10)

    def test_violating_v_fails(self):
        s = independent([0.5, 0.5])
        assert not verify_eso(probability_matrix(s), s.p, [0.4, 0.4])

    def test_bnice_certificate_is_tight(self):
        s = uniform_minibatch(4, 2)
        P = probability_matrix(s)
        assert verify_eso(P, s.p, s.v)
        assert not verify_eso(P, s.p, 0.99 * s.v)

    def test_fallback_certificates(self):
        # v_i = n (1 - p_i) certifies any proper sampling
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            for s in (
                uniform_minibatch(n, int(rng.integers(1, n + 1))),
                independent(rng.uniform(0.05, 1.0, size=n)),
                approximate_independent(rng.uniform(0.05, 0.55, size=n)),
            ):
                assert verify_eso(probability_matrix(s), s.p, n * (1.0 - s.p))
        # |S| <= d almost surely admits v_i = d; for the fixed-size law d = b
        s = uniform_minibatch(6, 3)
        assert verify_eso(probability_matrix(s), s.p, np.full(6, 3.0))

    def test_non_symmetric_raises(self):
        with pytest.raises(ValueError):
            verify_eso(np.array([[0.5, 0.1], [0.3, 0.5]]), [0.5, 0.5], [1, 1])


class TestDraw:
    def test_independent_full_batch_constant(self):
        s = independent([1.0, 1.0, 1.0])
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert np.array_equal(draw(s, rng), [0, 1, 2])

    def test_uniform_fixed_cardinality(self):
        s = uniform_minibatch(7, 3)
        rng = np.random.default_rng(1)
        for _ in range(200):
            out = draw(s, rng)
            assert out.size == 3
            assert np.all(np.diff(out) > 0)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: uniform_minibatch(3, 2),
            lambda: independent([0.3, 0.6, 0.9]),
            lambda: approximate_independent([0.5, 0.5, 0.4]),
        ],
    )
    def test_marginals(self, factory):
        s = factory()
        rng = np.random.default_rng(2)
        trials = 100_000
        counts = np.zeros(s.n)
        for _ in range(trials):
            counts[draw(s, rng)] += 1
        freq = counts / trials
        sigma = np.sqrt(s.p * (1 - s.p) / trials)
        assert np.all(np.abs(freq - s.p) <= 3 * sigma + 1e-9)

    def test_outcome_frequencies_match_enumerated_law(self):
        # full-distribution check: empirical outcome frequencies against the
        # exact enumeration, for one scheme of each kind
        from vropt.bruteforce import enumerate_law

        rng = np.random.default_rng(123)
        trials = 40_000
        for s in (
            uniform_minibatch(4, 2),
            independent([0.3, 0.6, 0.8]),
            approximate_independent([0.5, 0.5, 0.4, 0.3]),
        ):
            law = enumerate_law(s)
            counts = {subset: 0 for subset, _ in law.outcomes}
            for _ in range(trials):
                key = tuple(int(i) for i in draw(s, rng))
                assert key in counts  # support must match exactly
                counts[key] += 1
            for subset, prob in law.outcomes:
                sigma = np.sqrt(prob * (1 - prob) / trials)
                assert abs(counts[subset] / trials - prob) <= 4 * sigma + 1e-9

    def test_pairwise_frequencies_match_matrix(self):
        # the optimal-p scheme for L=[1,2,3,4], b=2 (degenerates to the
        # independent law) and a genuine two-stage scheme
        for s, trials in [
            (approximate_independent(optimal_probabilities([1, 2, 3, 4], 2.0)), 200_000),
            (approximate_independent([0.5, 0.5, 0.5, 0.5]), 200_000),
        ]:
            rng = np.random.default_rng(3)
            P = probability_matrix(s)
            # one indicator row per set, drawn 64 sets a call as the runners
            # draw them; M^T M counts how often i and j co-occur
            M = np.zeros((trials, s.n))
            for start in range(0, trials, 64):
                indptr, indices = draw(s, rng, steps=64)
                M[start + np.repeat(np.arange(64), np.diff(indptr)), indices] = 1.0
            freq = (M.T @ M) / trials
            sigma = np.sqrt(P * (1 - P) / trials)
            assert np.all(np.abs(freq - P) <= 3 * sigma + 1e-9)


def assert_outcomes_match_law(law, sample, trials, rng):
    """Empirical outcome frequencies of ``sample(rng)`` against an exact law:
    the support must match and each outcome lies within 4 sigma."""
    counts = {subset: 0 for subset, _ in law.outcomes}
    for _ in range(trials):
        key = tuple(int(i) for i in sample(rng))
        assert key in counts  # support must match exactly
        counts[key] += 1
    for subset, prob in law.outcomes:
        sigma = np.sqrt(prob * (1 - prob) / trials)
        assert abs(counts[subset] / trials - prob) <= 4 * sigma + 1e-9


class TestDrawPlans:
    def test_multi_class_independent_matches_enumerated_law(self, monkeypatch):
        # a class holds at least CLASS_RATIO members, so a small n reaches
        # three classes only with a smaller ratio; the law must not depend on it
        monkeypatch.setattr(sampling, "CLASS_RATIO", 1.2)
        s = independent([0.5, 1.0, 0.5, 0.12, 1.0, 1e-3])
        assert len(s.plan.classes) >= 3
        assert set(s.plan.full) == {1, 4}
        assert_outcomes_match_law(
            enumerate_law(s), lambda rng: draw(s, rng), 40_000, np.random.default_rng(124)
        )

    @pytest.mark.parametrize("n, q", [(6, 0.3), (5, 1.0), (1, 0.4), (1, 1.0)])
    def test_bernoulli_subset_matches_enumerated_law(self, n, q):
        law = enumerate_law(independent(np.full(n, q)))
        assert_outcomes_match_law(
            law, lambda rng: bernoulli_subset(n, q, rng), 40_000, np.random.default_rng(125)
        )

    def test_continued_walk_matches_enumerated_law(self):
        class OneSkipPerRound:
            # hands out one geometric skip per call, so every success
            # continues the walk for another round
            def __init__(self, rng):
                self.rng = rng

            def geometric(self, q, size):
                return self.rng.geometric(q, size=1)

        law = enumerate_law(independent(np.full(6, 0.3)))
        assert_outcomes_match_law(
            law,
            lambda rng: sampling._bernoulli_walk(6, 0.3, OneSkipPerRound(rng)),
            40_000,
            np.random.default_rng(126),
        )

    def test_class_plan_bounds_candidates(self):
        rng = np.random.default_rng(127)
        p = optimal_probabilities(100.0 ** rng.random(5000) * np.geomspace(1e-6, 1.0, 5000), 40.0)
        s = independent(p)
        plan = s.plan
        assert np.array_equal(np.sort(np.concatenate((plan.members, plan.full))), np.arange(s.n))
        assert np.all(p[plan.full] == 1.0)
        for rate, start, stop in plan.classes:
            ps = p[plan.members[start:stop]]
            assert rate == ps.max()
            assert np.array_equal(plan.keep[start:stop], ps / rate)
            assert (stop - start) * rate <= CLASS_RATIO * ps.sum() * (1 + 1e-12)
        assert len(plan.classes) >= 2

    def test_tiny_rate_does_not_overflow(self):
        rng = np.random.default_rng(128)
        for _ in range(200):
            out = bernoulli_subset(10, 1e-300, rng)
            assert out.size == 0

    @pytest.mark.parametrize("name", ["uniform", "importance", "approx", "refresh"])
    def test_one_draw_allocates_o_b_memory(self, name):
        n, b = 200_000, 8
        rng = np.random.default_rng(129)
        L = 100.0 ** rng.random(n)
        if name == "refresh":
            sample = lambda: bernoulli_subset(n, b / n, rng)
        else:
            p = optimal_probabilities(L, b)
            s = {
                "uniform": lambda: uniform_minibatch(n, b),
                "importance": lambda: independent(p),
                "approx": lambda: approximate_independent(p),
            }[name]()
            assert name != "approx" or s.kind is SamplingKind.APPROX_INDEPENDENT
            sample = lambda: draw(s, rng)
        sample()  # warm-up
        tracemalloc.start()
        try:
            out = sample()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n
        assert out.dtype == np.int64
        assert np.all(np.diff(out) > 0)
        assert out.size == 0 or (out[0] >= 0 and out[-1] < n)


def chunk_masks(sample_chunk, steps, trials, rng):
    """``trials`` consecutive sets of ``sample_chunk(rng, steps)`` chunks, each
    as the bit mask sum_i 2^i over its indices (exact in floats for n <= 16).
    Consecutive sets come from the same chunk or from the chunks on each side
    of a boundary."""
    sizes, indices = [], []
    for _ in range(-(-trials // steps)):
        indptr, idx = sample_chunk(rng, steps)
        assert indptr.size == steps + 1 and indptr[-1] == idx.size
        sizes.append(np.diff(indptr))
        indices.append(idx)
    sizes = np.concatenate(sizes)
    owner = np.repeat(np.arange(sizes.size), sizes)
    masks = np.bincount(owner, weights=2.0 ** np.concatenate(indices), minlength=sizes.size)
    return masks[:trials].astype(np.int64)


def assert_masks_match(probs, masks):
    """Mask frequencies against exact outcome probabilities ``{mask: prob}``:
    the support must match and each outcome lies within 4 sigma."""
    values, counts = np.unique(masks, return_counts=True)
    assert set(values.tolist()) <= probs.keys()  # support must match exactly
    seen = dict(zip(values.tolist(), counts.tolist()))
    for mask, prob in probs.items():
        sigma = np.sqrt(prob * (1 - prob) / masks.size)
        assert abs(seen.get(mask, 0) / masks.size - prob) <= 4 * sigma + 1e-9


def law_masks(law):
    return {sum(1 << i for i in subset): prob for subset, prob in law.outcomes}


def assert_chunks_match_law(law, sample_chunk, steps, trials, rng):
    """Each set of the chunk draws against the law, and for consecutive sets
    S, S', how often i is in S and j in S' against p_i p_j: sets in a chunk,
    and on each side of a chunk boundary, are independent.  A pair (i, j)
    expected fewer than 5 times is not tested, since the normal approximation
    behind the 4 sigma rule fails there."""
    masks = chunk_masks(sample_chunk, steps, trials, rng)
    assert_masks_match(law_masks(law), masks)
    bits = (masks.reshape(-1, 2, 1) >> np.arange(law.n)) & 1
    joint = bits[:, 0].T @ bits[:, 1] / (trials // 2)
    want = np.outer(law.p, law.p)
    sigma = np.sqrt(want * (1 - want) / (trials // 2))
    tested = want * (trials // 2) >= 5
    assert np.all(np.abs(joint - want)[tested] <= 4 * sigma[tested] + 1e-9)


def draw_chunk(scheme):
    return lambda rng, steps: draw(scheme, rng, steps=steps)


class TestChunkDraws:
    """Each chunk path against the enumerated law: 40 000 sets, taken also as
    20 000 pairs of consecutive sets, from chunks of 7 sets, so every position
    in a chunk is tested and the pairs fall within chunks and across their
    ends."""

    @pytest.mark.parametrize("n, b, limit", [
        (4, 2, None),   # b(b-1)/2n = 0.25: rejection
        (6, 3, None),   # 0.5, at the limit: rejection
        (5, 4, None),   # 1.2: Floyd's algorithm per set
        (4, 2, 0.0),    # the first law again, through Floyd's algorithm
    ])
    def test_uniform_both_sides_of_the_rejection_limit(self, monkeypatch, n, b, limit):
        if limit is not None:
            monkeypatch.setattr(sampling, "REJECTION_LIMIT", limit)
        s = uniform_minibatch(n, b)
        assert_chunks_match_law(enumerate_law(s), draw_chunk(s), 7, 40_000,
                                np.random.default_rng(130))

    def test_independent_one_class_with_certain_entries(self):
        s = independent([0.3, 1.0, 0.6, 0.8, 1.0])
        assert len(s.plan.classes) == 1 and s.plan.full.tolist() == [1, 4]
        assert_chunks_match_law(enumerate_law(s), draw_chunk(s), 7, 40_000,
                                np.random.default_rng(131))

    def test_independent_several_classes(self, monkeypatch):
        monkeypatch.setattr(sampling, "CLASS_RATIO", 1.2)
        s = independent([0.5, 1.0, 0.5, 0.12, 1.0, 1e-3])
        assert len(s.plan.classes) >= 3
        assert_chunks_match_law(enumerate_law(s), draw_chunk(s), 7, 40_000,
                                np.random.default_rng(132))

    @pytest.mark.parametrize("p", [
        [0.5, 0.5, 0.4, 0.3],             # a = 2 of k = 4: rejection
        [0.7, 0.3, 0.3, 0.3, 0.3, 1.0],   # a = 4 of k = 5: Floyd's algorithm
    ])
    def test_approx_both_sides_of_the_rejection_limit(self, p):
        s = approximate_independent(p)
        assert s.kind is SamplingKind.APPROX_INDEPENDENT
        over = s.a * (s.a - 1) > 2 * sampling.REJECTION_LIMIT * s.k
        assert over == (len(p) == 6)
        assert_chunks_match_law(enumerate_law(s), draw_chunk(s), 7, 40_000,
                                np.random.default_rng(133))

    @pytest.mark.parametrize("n, q", [(6, 0.3), (5, 1.0), (1, 0.4)])
    def test_bernoulli_subset(self, n, q):
        law = enumerate_law(independent(np.full(n, q)))
        sample = lambda rng, k: bernoulli_subset(n, q, rng, steps=k)  # noqa: E731
        assert_chunks_match_law(law, sample, 7, 40_000, np.random.default_rng(134))

    @pytest.mark.parametrize("name", ["uniform", "importance", "approx"])
    def test_single_draw_is_the_one_step_chunk(self, name):
        n, b = 50, 4
        p = optimal_probabilities(np.geomspace(1.0, 100.0, n), b)
        s = {"uniform": uniform_minibatch(n, b), "importance": independent(p),
             "approx": approximate_independent(p)}[name]
        a, c = np.random.default_rng(136), np.random.default_rng(136)
        for _ in range(50):
            indptr, indices = draw(s, a, steps=1)
            assert indptr.tolist() == [0, indices.size]
            assert np.array_equal(draw(s, c), indices)
        a, c = np.random.default_rng(137), np.random.default_rng(137)
        indptr, indices = bernoulli_subset(n, 0.1, a, steps=1)
        assert np.array_equal(bernoulli_subset(n, 0.1, c), indices)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: bernoulli_subset(5, 0.0, np.random.default_rng(0)),
         "inclusion probability must lie in (0, 1], got 0.0"),
        (lambda: bernoulli_subset(5, 1.5, np.random.default_rng(0), steps=3),
         "inclusion probability must lie in (0, 1], got 1.5"),
        (lambda: independent([0.5, 1.5, 0.2]), "inclusion probabilities must satisfy p_i <= 1"),
        (lambda: independent([0.5, 0.0]), "sampling must be proper: all p_i > 0"),
        (lambda: independent([0.5, np.nan]), "inclusion probability p_1 = nan is not finite"),
        (lambda: approximate_independent([0.5, np.nan, 0.2]),
         "inclusion probability p_1 = nan is not finite"),
        (lambda: optimal_probabilities([1.0, np.nan], 1),
         "smoothness constant L_1 = nan is not finite"),
        (lambda: optimal_probabilities([1.0, np.inf], 1),
         "smoothness constant L_1 = inf is not finite"),
        (lambda: uniform_minibatch(10, np.inf), "requires an integer b, got inf"),
        (lambda: uniform_minibatch(10, np.nan), "requires an integer b, got nan"),
        (lambda: uniform_minibatch(10, 10**400), "minibatch size must lie in [1, 10], got 1000"),
        (lambda: uniform_minibatch(10.5, 2), "n must be a whole number, got 10.5"),
    ],
)
def test_input_checks(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


def test_floor_smoothness():
    L = floor_smoothness([0.0, 1.0])
    assert L[0] == 1e-12 and L[1] == 1.0
