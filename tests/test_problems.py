import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from vropt import problems
from vropt.problems import (
    SIGMOID_SQ_CURVATURE,
    Dataset,
    LossKind,
    build_problem,
    component_gradient,
    csr_dataset,
    full_gradient,
    full_pass,
    loss_value,
    make_dataset,
    max_sigmoid_sq_curvature,
    smoothness_constants,
    stable_sigmoid,
    synthesize,
)


def single_row_problem(a, y, loss=LossKind.SIGMOID_SQUARED, mu=0.0):
    a = np.asarray(a, float)
    ds = make_dataset([(np.arange(a.size), a)], [y], d=a.size)
    return build_problem(ds, loss, mu)


def finite_difference_gradient(problem, x, h=1e-6):
    fd = np.empty(x.size)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        fd[j] = (loss_value(problem, x + e) - loss_value(problem, x - e)) / (2 * h)
    return fd


class TestLossValue:
    def test_sigmoid_at_zero(self):
        # sigma(0) = 1/2, all labels +1: (1 - 1/2)^2 = 1/4
        ds = synthesize(8, 3, 2.0, seed=0)
        ds = make_dataset(ds.rows, np.ones(8, dtype=int), d=3)
        prob = build_problem(ds, LossKind.SIGMOID_SQUARED)
        assert abs(loss_value(prob, np.zeros(3)) - 0.25) <= 1e-15

    def test_sigmoid_mixed_labels_at_zero(self):
        ds = synthesize(20, 4, 3.0, seed=1)
        prob = build_problem(ds, LossKind.SIGMOID_SQUARED)
        expect = np.mean((1.0 - ds.labels * 0.5) ** 2)
        assert abs(loss_value(prob, np.zeros(4)) - expect) <= 1e-15

    def test_saturation_drives_loss_to_zero(self):
        prob = single_row_problem([1.0], 1)
        assert loss_value(prob, np.array([50.0])) <= 1e-15

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(2)
        ds = synthesize(15, 5, 4.0, seed=3)
        for loss, mu in ((LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.7)):
            prob = build_problem(ds, loss, mu)
            x = rng.standard_normal(5)
            total = 0.0
            for i in range(ds.n):
                idx, val = ds.rows[i]
                z = float(val @ x[idx])
                y = float(ds.labels[i])
                if loss is LossKind.SIGMOID_SQUARED:
                    total += (1.0 - y / (1.0 + math.exp(-z))) ** 2
                else:
                    total += 0.5 * (z - y) ** 2
            expect = total / ds.n + 0.5 * mu * float(x @ x)
            assert abs(loss_value(prob, x) - expect) <= 1e-12

    def test_dimension_mismatch(self):
        prob = single_row_problem([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            loss_value(prob, np.zeros(3))


class TestComponentGradient:
    def test_hand_value_positive_label(self):
        prob = single_row_problem([1.0, 0.0], 1)
        g = component_gradient(prob, 0, np.zeros(2))
        assert np.allclose(g, [-0.25, 0.0], rtol=0, atol=1e-15)

    def test_hand_value_negative_label(self):
        prob = single_row_problem([1.0], -1)
        g = component_gradient(prob, 0, np.zeros(1))
        assert abs(g[0] - 0.75) <= 1e-15

    def test_zero_row_zero_gradient(self):
        ds = make_dataset(
            [(np.array([], dtype=int), np.array([])), (np.array([0]), np.array([1.0]))],
            [1, -1],
            d=2,
        )
        prob = build_problem(ds, LossKind.SIGMOID_SQUARED)
        assert np.array_equal(component_gradient(prob, 0, np.ones(2)), np.zeros(2))

    def test_support_matches_row(self):
        ds = make_dataset([(np.array([1, 3]), np.array([2.0, -1.0]))], [1], d=5)
        prob = build_problem(ds, LossKind.SIGMOID_SQUARED)
        g = component_gradient(prob, 0, np.ones(5))
        assert g[0] == g[2] == g[4] == 0.0

    def test_quadratic_includes_dense_term(self):
        prob = single_row_problem([1.0, 0.0], 1, LossKind.QUADRATIC, mu=0.5)
        x = np.array([2.0, 3.0])
        g = component_gradient(prob, 0, x)
        assert np.allclose(g, [(2.0 - 1.0) * 1.0 + 0.5 * 2.0, 0.5 * 3.0])

    def test_index_out_of_range(self):
        prob = single_row_problem([1.0], 1)
        with pytest.raises(IndexError):
            component_gradient(prob, 1, np.zeros(1))


class TestFullGradient:
    def test_single_component(self):
        prob = single_row_problem([1.0, -2.0], -1)
        x = np.array([0.3, 0.7])
        assert np.array_equal(full_gradient(prob, x), component_gradient(prob, 0, x))

    def test_finite_differences(self):
        rng = np.random.default_rng(4)
        for seed, (loss, mu) in enumerate(
            [(LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.3)]
        ):
            ds = synthesize(12, 6, 5.0, seed=seed)
            prob = build_problem(ds, loss, mu)
            for _ in range(10):
                x = rng.standard_normal(6) * 0.5
                g = full_gradient(prob, x)
                fd = finite_difference_gradient(prob, x)
                scale = max(1.0, float(np.max(np.abs(g))))
                assert np.max(np.abs(fd - g)) <= 1e-5 * scale

    def test_within_fsum_tolerance_of_component_sum(self):
        # the rows are summed in a fixed order without compensation; the
        # result must stay within 1e-13 (relative, max-norm) of the exactly
        # rounded per-coordinate sum of the component gradients
        rng = np.random.default_rng(6)
        sparse = make_dataset(
            [
                (np.array([0, 3]), np.array([1.5, -0.25])),
                (np.array([], dtype=int), np.array([])),
                (np.array([1, 2, 4]), np.array([0.75, 2.0, -1.0])),
                (np.array([4]), np.array([3.0])),
                (np.array([0, 1, 2, 3, 4]), np.array([0.1, -0.2, 0.3, -0.4, 0.5])),
            ],
            [1, -1, -1, 1, 1],
            d=5,
        )
        datasets = [synthesize(40, 6, 30.0, seed=s) for s in range(5)] + [sparse]
        for ds in datasets:
            for loss, mu in ((LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.7)):
                prob = build_problem(ds, loss, mu)
                for _ in range(3):
                    x = rng.standard_normal(ds.d)
                    rows = [component_gradient(prob, i, x) for i in range(ds.n)]
                    ref = np.array([math.fsum(col) for col in zip(*rows)]) / ds.n
                    g = full_gradient(prob, x)
                    err = np.max(np.abs(g - ref)) / np.max(np.abs(ref))
                    assert err <= 1e-13
                    assert g.tobytes() == full_gradient(prob, x).tobytes()

    def test_antisymmetric_pair_is_stationary_at_zero(self):
        row = (np.array([0, 1]), np.array([1.5, -0.5]))
        ds = make_dataset([row, row], [1, -1], d=2)
        prob = build_problem(ds, LossKind.QUADRATIC)
        assert np.array_equal(full_gradient(prob, np.zeros(2)), np.zeros(2))


class TestFullPassSegments:
    """The full pass's segment sums against exactly rounded references."""

    def edge_dataset(self):
        # empty first, middle and last rows, one-entry rows, and a last
        # column that no row stores
        rows = [
            (np.array([], dtype=int), np.array([])),
            (np.array([0, 3]), np.array([1.5, -0.25])),
            (np.array([2]), np.array([-2.0])),
            (np.array([], dtype=int), np.array([])),
            (np.array([0, 1, 2, 3, 4]), np.array([0.1, -0.2, 0.3, -0.4, 0.5])),
            (np.array([4]), np.array([3.0])),
            (np.array([], dtype=int), np.array([])),
        ]
        return make_dataset(rows, [1, -1, -1, 1, 1, -1, 1], d=6)

    def check_points(self, prob, points):
        """full_pass at the (R, d) ``points`` in all three forms against
        per-coordinate math.fsum references and loss_value."""
        ds = prob.dataset
        R, d = points.shape
        f, slopes, g = full_pass(prob, points)
        assert slopes.shape == (R, ds.n) and g.shape == (R, d) and len(f) == R
        # the same numbers for the points end to end, and for each alone
        f1, slopes1, g1 = full_pass(prob, points.reshape(-1))
        assert f1 == f and slopes1.tobytes() == slopes.tobytes() and g1.tobytes() == g.tobytes()
        assert full_gradient(prob, points.reshape(-1)).tobytes() == g.tobytes()
        z = ds.margins(points)
        for j, x in enumerate(points):
            alone = full_pass(prob, x)
            assert alone[0] == [f[j]] == [loss_value(prob, x)]
            assert alone[1].tobytes() == slopes[j].tobytes()
            assert alone[2].tobytes() == g[j].tobytes() == full_gradient(prob, x).tobytes()
            # margins: an empty row reads exactly 0
            ref_z = np.array([math.fsum(v * x[i] for i, v in zip(*row)) for row in ds.rows])
            assert np.array_equal(z[j] == 0.0, ref_z == 0.0)
            assert np.max(np.abs(z[j] - ref_z)) <= 1e-13 * np.max(np.abs(ref_z))
            comps = [component_gradient(prob, i, x) for i in range(ds.n)]
            ref = np.array([math.fsum(col) for col in zip(*comps)]) / ds.n
            assert np.max(np.abs(g[j] - ref)) <= 1e-13 * np.max(np.abs(ref))
            # a column no row stores gets only the regulariser's term
            unused = np.bincount(ds.indices, minlength=d) == 0
            assert np.array_equal(g[j][unused], prob.mu * x[unused])

    @pytest.mark.parametrize("loss, mu", [(LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.7)])
    def test_empty_rows_unused_column_one_entry_rows(self, loss, mu):
        prob = build_problem(self.edge_dataset(), loss, mu)
        assert prob.dataset._columns is None  # scattered row after row
        rng = np.random.default_rng(8)
        for R in (1, 3):
            self.check_points(prob, rng.standard_normal((R, 6)))

    @pytest.mark.parametrize("loss, mu", [(LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.7)])
    def test_dense_rows_sum_by_columns(self, loss, mu):
        # every row stores every column: the gradient's column segments,
        # longer than numpy's 128-term pairwise block
        prob = build_problem(synthesize(300, 4, 50.0, seed=2), loss, mu)
        assert prob.dataset._columns.shape == (4, 300)
        rng = np.random.default_rng(9)
        for R in (1, 3):
            self.check_points(prob, rng.standard_normal((R, 4)))

    def test_no_entries_at_all(self):
        ds = make_dataset([(np.array([], dtype=int), np.array([]))] * 3, [1, -1, 1], d=2)
        prob = build_problem(ds, LossKind.QUADRATIC, 0.5)
        x = np.array([[1.0, -2.0], [0.5, 0.0]])
        f, slopes, g = full_pass(prob, x)
        assert np.array_equal(ds.margins(x), np.zeros((2, 3)))
        assert np.array_equal(slopes, -np.tile(ds.labels, (2, 1)))
        assert np.array_equal(g, 0.5 * x)
        assert f == [loss_value(prob, p) for p in x]


class TestSmoothness:
    def test_quadratic_constant(self):
        prob = single_row_problem([3.0, 4.0], 1, LossKind.QUADRATIC)
        assert abs(prob.L[0] - 25.0) <= 1e-12

    def test_quadratic_with_mu(self):
        prob = single_row_problem([3.0, 4.0], 1, LossKind.QUADRATIC, mu=2.0)
        assert abs(prob.L[0] - 27.0) <= 1e-12

    def test_sigmoid_constant_is_curvature_times_norm(self):
        prob = single_row_problem([1.0], 1)
        assert prob.L[0] == SIGMOID_SQ_CURVATURE

    def test_scaling_quadratically(self):
        ds = synthesize(5, 3, 2.0, seed=7)
        L1 = smoothness_constants(ds, LossKind.SIGMOID_SQUARED)
        doubled = make_dataset(
            [(idx, 2.0 * val) for idx, val in ds.rows], ds.labels, d=3
        )
        L2 = smoothness_constants(doubled, LossKind.SIGMOID_SQUARED)
        assert np.allclose(L2, 4.0 * L1, rtol=1e-12)

    def test_curvature_rederivation(self):
        rederived = max_sigmoid_sq_curvature()
        assert abs(rederived - SIGMOID_SQ_CURVATURE) <= 1e-10 * SIGMOID_SQ_CURVATURE

    @pytest.mark.parametrize(
        "loss,mu", [(LossKind.SIGMOID_SQUARED, 0.0), (LossKind.QUADRATIC, 0.4)]
    )
    def test_lipschitz_certificate(self, loss, mu):
        ds = synthesize(10, 4, 8.0, seed=8)
        prob = build_problem(ds, loss, mu)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            i = int(rng.integers(ds.n))
            x = rng.standard_normal(4) * 2.0
            y_pt = rng.standard_normal(4) * 2.0
            lhs = np.linalg.norm(
                component_gradient(prob, i, x) - component_gradient(prob, i, y_pt)
            )
            assert lhs <= prob.L[i] * np.linalg.norm(x - y_pt) * (1 + 1e-9)

    def test_average_is_lbar_smooth(self):
        ds = synthesize(10, 4, 8.0, seed=10)
        prob = build_problem(ds, LossKind.SIGMOID_SQUARED)
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.standard_normal(4) * 2.0
            y_pt = rng.standard_normal(4) * 2.0
            lhs = np.linalg.norm(full_gradient(prob, x) - full_gradient(prob, y_pt))
            assert lhs <= prob.Lbar * np.linalg.norm(x - y_pt) * (1 + 1e-9)


class TestSynthesize:
    def test_skew_one_equal_norms(self):
        ds = synthesize(10, 5, 1.0, seed=12)
        norms = [float(val @ val) for _, val in ds.rows]
        assert np.allclose(norms, 1.0, rtol=1e-12)

    def test_skew_ratio(self):
        ds = synthesize(100, 5, 100.0, seed=13)
        L = smoothness_constants(ds, LossKind.SIGMOID_SQUARED)
        ratio = L.max() / L.min()
        assert 99.0 <= ratio <= 101.0

    def test_deterministic(self):
        a = synthesize(20, 4, 10.0, seed=14)
        b = synthesize(20, 4, 10.0, seed=14)
        assert np.array_equal(a.labels, b.labels)
        for (ia, va), (ib, vb) in zip(a.rows, b.rows):
            assert np.array_equal(ia, ib) and np.array_equal(va, vb)

    def test_labels_are_pm_one(self):
        ds = synthesize(50, 3, 2.0, seed=15)
        assert set(np.unique(ds.labels)) <= {-1, 1}


class TestDatasetValidation:
    def test_bad_labels(self):
        with pytest.raises(ValueError):
            make_dataset([(np.array([0]), np.array([1.0]))], [2])

    def test_duplicate_indices(self):
        with pytest.raises(ValueError):
            make_dataset([(np.array([1, 1]), np.array([1.0, 2.0]))], [1])

    def test_index_beyond_dimension(self):
        with pytest.raises(ValueError):
            make_dataset([(np.array([5]), np.array([1.0]))], [1], d=3)

    @pytest.mark.parametrize(
        "call, fragment",
        [
            (lambda: make_dataset([], []), "dataset needs at least one example"),
            (lambda: make_dataset([([0, 1], [1.0])], [1]),
             "row indices and values must be 1-d and aligned"),
            (lambda: csr_dataset([0], [], [], []), "dataset needs at least one example"),
            (lambda: csr_dataset([0, 1], [0], [1.0], [1, 1]),
             "labels length does not match number of rows"),
            (lambda: csr_dataset([0, 1], [0], [1.0], [0]), "labels must be -1 or +1"),
            (lambda: csr_dataset([0, 1], [0], [1.0, 2.0], [1]),
             "row indices and values must be 1-d and aligned"),
            (lambda: csr_dataset([0, 2], [0], [1.0], [1]),
             "row indices and values must be 1-d and aligned"),
            (lambda: csr_dataset([1, 1], [0], [1.0], [1]),
             "row pointers must start at 0 and never decrease"),
            (lambda: csr_dataset([0, 2, 1], [0], [1.0], [1, 1]),
             "row pointers must start at 0 and never decrease"),
            (lambda: csr_dataset([0, 2], [1, 0], [1.0, 1.0], [1]),
             "row indices must be strictly increasing and >= 0"),
            (lambda: csr_dataset([0, 1], [-1], [1.0], [1]),
             "row indices must be strictly increasing and >= 0"),
            (lambda: csr_dataset([0, 1], [5], [1.0], [1], d=3),
             "row index 5 outside feature dimension 3"),
        ],
    )
    def test_input_checks(self, call, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            call()

    def test_sigmoid_rejects_mu(self):
        ds = synthesize(3, 2, 1.0, seed=16)
        with pytest.raises(ValueError):
            build_problem(ds, LossKind.SIGMOID_SQUARED, mu=0.5)

    def test_problem_is_immutable(self):
        prob = build_problem(synthesize(3, 2, 1.0, seed=16), LossKind.QUADRATIC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.mu = 1.0
        with pytest.raises(ValueError):
            prob.L[0] = 1.0


class TestRowBlockSplit:
    def dataset(self):
        # empty rows first, last and in between
        rows = [
            (np.array([], dtype=int), np.array([])),
            (np.array([0, 3]), np.array([1.5, -2.0])),
            (np.array([], dtype=int), np.array([])),
            (np.array([1, 2, 4]), np.array([0.5, 0.25, -1.0])),
            (np.array([4]), np.array([3.0])),
            (np.array([], dtype=int), np.array([])),
        ]
        return make_dataset(rows, [1, -1, 1, 1, -1, -1], d=5)

    def test_full_block_built_once_and_read_only(self):
        ds = self.dataset()
        full = ds.block()
        assert full is ds.block()
        assert np.array_equal(full.owner, [1, 1, 3, 3, 3, 4])
        assert not full.owner.flags.writeable
        # a copy sent to a worker process builds its own, read-only too
        copy = pickle.loads(pickle.dumps(ds)).block()
        assert np.array_equal(copy.owner, full.owner) and not copy.owner.flags.writeable

    def test_arrays_stay_read_only_through_pickle(self):
        problem = build_problem(self.dataset(), LossKind.QUADRATIC, 0.3)
        copy = pickle.loads(pickle.dumps(problem))
        for name in ("indptr", "indices", "data", "labels"):
            got = getattr(copy.dataset, name)
            assert np.array_equal(got, getattr(problem.dataset, name)), name
            assert not got.flags.writeable, name
        assert np.array_equal(copy.L, problem.L) and not copy.L.flags.writeable


def test_stable_sigmoid_extremes():
    assert stable_sigmoid(800.0) == 1.0
    assert stable_sigmoid(-800.0) == 0.0
    assert abs(stable_sigmoid(0.0) - 0.5) <= 1e-16


def test_stable_sigmoid_array_is_elementwise_scalar():
    z = np.array([-800.0, -3.5, -0.0, 0.0, 1e-300, 2.25, 800.0])
    out = stable_sigmoid(z)
    assert out.shape == z.shape
    assert np.array_equal(out, [stable_sigmoid(float(v)) for v in z])


def where_sigmoid(z):
    """The sigmoid as it was first written, with ``np.where``: the bit
    reference for ``problems._sigmoid``."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def sigmoid_probe_points():
    tiny = np.finfo(float).tiny
    edges = np.arange(708.0, 746.0 + 1e-9, 0.125)
    # around where exp(|z|) overflows (709.78) and exp(-|z|) turns subnormal
    # (708.40), reaches the least subnormal (744.44) and rounds to 0 (745.13)
    edges = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                            [709.782712893384, 744.4400719213812, 745.1332191019411]))
    magnitudes = np.concatenate((
        np.linspace(0.0, 40.0, 400_001),
        np.geomspace(1e-300, 1e3, 20_001),
        [0.0, 5e-324, 1e-320, 2.5e-310, tiny / 2, np.nextafter(tiny, 0.0), tiny],
        edges,
        [1e300, np.finfo(float).max, np.inf],
    ))
    return np.concatenate((magnitudes, -magnitudes))


def test_sigmoid_bits_equal_the_where_formula():
    z = sigmoid_probe_points()
    assert np.signbit(z).any() and (z == 0.0).sum() >= 4  # +0.0 and -0.0 both
    with np.errstate(over="raise", under="ignore"):
        got, want = problems._sigmoid(z), where_sigmoid(z)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a stacked (2, k) input, as the recursive increment passes it
    pair = z[:4000].reshape(2, -1)
    assert np.array_equal(problems._sigmoid(pair).view(np.int64),
                          where_sigmoid(pair).view(np.int64))


def test_sigmoid_scalar_path_bits_equal_the_where_formula():
    for v in sigmoid_probe_points()[::997].tolist() + [0.0, -0.0, 5e-324, -5e-324, 745.5, -745.5]:
        got = stable_sigmoid(v)
        assert isinstance(got, float)
        want = where_sigmoid(np.array(v))
        assert np.array([got]).view(np.int64)[0] == np.array([want]).view(np.int64)[0], v


def test_sigmoid_of_nan_is_nan():
    # NaN's sign bit may differ between the formulas, so compare as NaN
    z = np.array([np.nan, -np.nan, 0.5, np.nan])
    got = problems._sigmoid(z)
    assert np.array_equal(np.isnan(got), [True, True, False, True])
    assert got[2] == where_sigmoid(z)[2]
    assert math.isnan(stable_sigmoid(math.nan))
