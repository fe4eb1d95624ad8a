import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slimformer.errors import ExpansionWarning, RangeError, SvdConvergenceError
from slimformer.factorize import factorize_layer
from slimformer.svd import SvdResult, svd, svd_product


def _check_result(w: np.ndarray, res: SvdResult, tol=1e-8):
    u, s, v = res.u, res.singular_values, res.v
    p = min(w.shape)
    assert u.shape == (w.shape[0], p)
    assert v.shape == (w.shape[1], p)
    assert np.all(np.diff(s) <= 1e-12)
    assert np.all(s >= 0.0)
    assert np.linalg.norm(u.T @ u - np.eye(p)) < tol
    assert np.linalg.norm(v.T @ v - np.eye(p)) < tol
    recon = (u * s) @ v.T
    denom = max(np.linalg.norm(w), 1e-30)
    assert np.linalg.norm(recon - w) / denom < tol


def test_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])
    _check_result(np.eye(3), res)


def test_diagonal_is_its_own_svd():
    w = np.diag([3.0, 2.0, 1.0])
    res = svd(w)
    assert np.allclose(res.singular_values, [3.0, 2.0, 1.0], atol=1e-14)
    _check_result(w, res)


def test_nilpotent_2x2():
    w = np.array([[0.0, 2.0], [0.0, 0.0]])
    res = svd(w)
    assert np.allclose(res.singular_values, [2.0, 0.0], atol=1e-14)
    _check_result(w, res)


def test_random_shapes_orthogonal_and_reconstruct():
    rng = np.random.default_rng(0)
    for m, n in [(5, 5), (8, 3), (3, 8), (12, 7), (1, 6), (6, 1), (1, 1)]:
        w = rng.normal(size=(m, n))
        _check_result(w, svd(w))


def test_rank_deficient_inputs():
    rng = np.random.default_rng(5)
    u_vec = rng.normal(size=(7, 1))
    v_vec = rng.normal(size=(5, 1))
    w = u_vec @ v_vec.T  # rank one
    res = svd(w)
    _check_result(w, res)
    assert res.singular_values[1] < 1e-10 * res.singular_values[0]
    _check_result(np.zeros((4, 3)), svd(np.zeros((4, 3))))


def test_transpose_has_same_singular_values():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(9, 4))
        s1 = svd(a).singular_values
        s2 = svd(a.T).singular_values
        assert np.max(np.abs(s1 - s2)) < 1e-10 * max(1.0, s1[0])


def test_positive_scaling_scales_singular_values():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 5))
    s1 = svd(a).singular_values
    for c in (0.25, 3.0, 1e4):
        s2 = svd(c * a).singular_values
        assert np.max(np.abs(s2 - c * s1)) < 1e-10 * c * s1[0]


def test_determinism():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(10, 6))
    r1 = svd(a)
    r2 = svd(a.copy())
    assert r1.u.tobytes() == r2.u.tobytes()
    assert r1.v.tobytes() == r2.v.tobytes()
    assert np.array_equal(r1.singular_values, r2.singular_values)


def test_truncate_full_rank_is_identity():
    """At full rank factorize_layer keeps every triple: a = U sqrt(S)."""
    w = np.diag([3.0, 2.0, 1.0])
    res = svd(w)
    with pytest.warns(ExpansionWarning):  # 6 stored per 3 dense, per rank
        pair = factorize_layer(w, 3)
    root = np.sqrt(res.singular_values)
    assert np.array_equal(pair.a, res.u * root)
    assert np.array_equal(pair.b, res.v * root)


def test_truncate_keeps_top_values():
    pair = factorize_layer(np.diag([3.0, 2.0, 1.0]), 1)
    assert pair.r == 1
    assert pair.a.shape == (3, 1) and pair.b.shape == (3, 1)
    # the top triple of diag(3, 2, 1): s = 3 on e_1
    assert np.allclose(np.abs(pair.a[:, 0]), [np.sqrt(3.0), 0.0, 0.0],
                       rtol=0.0, atol=1e-15)
    assert np.array_equal(pair.a, pair.b)


def test_truncate_range_errors():
    w = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(RangeError):
        factorize_layer(w, 0)
    with pytest.raises(RangeError):
        factorize_layer(w, 4)


def test_truncation_error_closed_forms():
    """||w - a b^T|| is the norm of the discarded spectrum."""
    w = np.diag([3.0, 2.0, 1.0])
    for r, want in ((1, np.sqrt(5.0)), (2, 1.0), (3, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExpansionWarning)
            pair = factorize_layer(w, r)
        assert abs(np.linalg.norm(w - pair.a @ pair.b.T) - want) < 1e-12


def test_eckart_young_against_random_factor_oracle():
    # The rank-r truncation must match its predicted error and beat random
    # scale-optimized rank-r factor pairs on every trial.
    rng = np.random.default_rng(17)
    for _ in range(10):
        m, n = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        w = rng.normal(size=(m, n))
        res = svd(w)
        r = int(rng.integers(1, min(m, n) + 1))
        s = res.singular_values
        approx = (res.u[:, :r] * s[:r]) @ res.v[:, :r].T
        err = np.linalg.norm(w - approx)
        assert abs(err - np.sqrt(np.sum(s[r:] ** 2))) < 1e-8
        for _ in range(100):
            a = rng.normal(size=(m, r))
            b = rng.normal(size=(n, r))
            cand = a @ b.T
            scale = np.sum(w * cand) / max(np.sum(cand * cand), 1e-300)
            rand_err = np.linalg.norm(w - scale * cand)
            assert err <= rand_err + 1e-8


def test_parallel_columns_converge():
    """Rotating two parallel columns leaves one of them as rounding
    noise; sweeps must not chase that noise's direction up to the cap."""
    w = np.outer([1.0, -2.0, 3.0, 3.0], [-3.0, -2.0, -2.0, -2.0, 1.0])
    for w in (w, w.T, np.ones((6, 4))):
        res = svd(w)
        _check_result(w, res)
        assert res.singular_values[1] < 1e-14 * res.singular_values[0]


def test_convergence_error_reports_residual(monkeypatch):
    # the package attribute slimformer.svd is the function, not the module
    monkeypatch.setattr(sys.modules["slimformer.svd"], "SWEEP_CAP", 1)
    rng = np.random.default_rng(9)
    w = rng.normal(size=(8, 8))
    with pytest.raises(SvdConvergenceError) as exc:
        svd(w)
    assert exc.value.residual > 0.0
    assert exc.value.sweeps == 1


@st.composite
def factor_pairs(draw):
    """(a, b, k): an m x r and an n x r factor with r <= min(m, n), each
    half optionally masked and with some columns zeroed, and a rank
    k <= r to truncate to."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    masked = draw(st.sampled_from(("none", "a", "b", "both")))
    halves = []
    for half, rows in (("a", m), ("b", n)):
        arr = rng.normal(size=(rows, r))
        if masked in (half, "both"):
            arr *= rng.random(arr.shape) < 0.5
        zero = draw(st.lists(st.integers(0, r - 1), max_size=r, unique=True))
        arr[:, zero] = 0.0
        halves.append(arr)
    return halves[0], halves[1], draw(st.integers(1, r))


PRODUCT_SETTINGS = settings(max_examples=150, deadline=None,
                            derandomize=True)


@PRODUCT_SETTINGS
@given(factor_pairs())
def test_svd_product_matches_svd_of_product(pair):
    a, b, k = pair
    w = a @ b.T
    r = a.shape[1]
    res = svd_product(a, b)
    dense = svd(w)
    scale = max(dense.singular_values[0], 1e-300)
    assert len(res.singular_values) == r
    assert res.u.shape == (a.shape[0], r) and res.v.shape == (b.shape[0], r)
    assert res.u.flags.c_contiguous and res.v.flags.c_contiguous
    assert np.all(np.diff(res.singular_values) <= 0.0)
    assert np.max(np.abs(res.singular_values
                         - dense.singular_values[:r])) <= 1e-10 * scale
    assert np.linalg.norm(res.u.T @ res.u - np.eye(r)) < 1e-10
    assert np.linalg.norm(res.v.T @ res.v - np.eye(r)) < 1e-10
    s = res.singular_values
    assert np.linalg.norm((res.u * s) @ res.v.T - w) <= 1e-10 * scale * r
    # the rank-k truncation is a best rank-k approximation of a @ b.T
    err = np.linalg.norm(w - (res.u[:, :k] * s[:k]) @ res.v[:, :k].T)
    best = np.sqrt(np.sum(dense.singular_values[k:] ** 2))
    assert abs(err - best) <= 1e-9 * scale * r
    again = svd_product(a.copy(), b.copy())
    for x, y in ((res.u, again.u), (res.v, again.v),
                 (res.singular_values, again.singular_values)):
        assert x.tobytes() == y.tobytes()


@PRODUCT_SETTINGS
@given(factor_pairs())
def test_kept_factors_are_lapack_best_pair(pair):
    """factorize_layer on a pair keeps LAPACK's best rank-k pair
    U_k sqrt(S_k), V_k sqrt(S_k) up to one sign per triple, within the
    1e-6 the benchmark's factor check allows.  Triples with a distinct
    singular value are unique up to sign, so near-ties are skipped."""
    a, b, k = pair
    u, s, vt = np.linalg.svd(a @ b.T, full_matrices=False)
    for i in range(min(k, len(s) - 1)):
        if s[i] > 1e-13 * s[0]:
            assume(s[i] - s[i + 1] > 1e-6 * s[0])
    with warnings.catch_warnings():
        # tiny pairs may store more than their matrix; intended here
        warnings.simplefilter("ignore", ExpansionWarning)
        got = factorize_layer(a, rank=k, b=b)
    root = np.sqrt(s[:k])
    best_a, best_b = u[:, :k] * root, vt[:k].T * root
    sign = np.sign(np.sum(got.a * best_a, axis=0)
                   + np.sum(got.b * best_b, axis=0))
    sign[sign == 0.0] = 1.0
    for kept, best in ((got.a, best_a), (got.b, best_b)):
        assert (np.linalg.norm(kept - best * sign)
                <= 1e-6 * max(np.linalg.norm(best), 1e-300))


def test_svd_product_keeps_at_most_the_smaller_side():
    """p = min(m, n, r): a pair wider than its matrix has min(m, n)
    triples."""
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
    res = svd_product(a, b)
    assert len(res.singular_values) == 3
    assert np.allclose(res.singular_values, svd(a @ b.T).singular_values,
                       rtol=0.0, atol=1e-12 * res.singular_values[0])


def test_rank_above_the_pair_is_range_error():
    """A pair of width r spans rank r at most; asking for more triples
    raises RangeError rather than padding with zeros."""
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(12, 3)), rng.normal(size=(10, 3))
    assert len(svd_product(a, b).singular_values) == 3
    with pytest.raises(RangeError, match="above the rank 3"):
        factorize_layer(a, rank=4, b=b)
    assert factorize_layer(a, rank=3, b=b).r == 3
