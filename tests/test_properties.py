"""Property tests: the LIBSVM round trip, the optimal probabilities' KKT
form, and the ESO certificate of every sampling scheme, on random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vropt.dataio import dumps_libsvm, parse_libsvm
from vropt.problems import csr_dataset
from vropt.sampling import (
    approximate_independent,
    independent,
    optimal_probabilities,
    probability_matrix,
    uniform_minibatch,
    verify_eso,
)

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
