import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorelm.errors import ConvergenceError, InvalidInputError, ParameterDomainError
from scorelm.simplex import (
    PAIRWISE_BLOCK,
    check_logits,
    check_prob_vector,
    column_sum,
    entmax,
    row_max,
    row_sum,
    smooth_distribution,
    softmax,
    tsallis_entropy,
)


def sparsemax_oracle(z):
    """Independent sorting-threshold sparsemax: try every support size and
    keep the one whose threshold is self-consistent."""
    z = np.asarray(z, dtype=np.float64)
    srt = np.sort(z)[::-1]
    for k in range(1, z.size + 1):
        tau = (srt[:k].sum() - 1.0) / k
        p = np.maximum(z - tau, 0.0)
        if np.count_nonzero(p) == k and abs(p.sum() - 1.0) < 1e-9:
            return p
    raise AssertionError("no consistent support size")


class TestSoftmax:
    def test_uniform_logits(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25)

    def test_shift_invariance(self):
        z = np.array([1.3, -0.2, 0.7])
        assert np.allclose(softmax(z), softmax(z + 123.456))
        assert np.allclose(softmax(np.array([5.0, 5.0])), [0.5, 0.5])

    def test_exp_normalize(self):
        # exp(log k + c) normalizes to k / sum(k)
        p = softmax(np.log([1.0, 2.0, 3.0]) + 7.0)
        assert np.allclose(p, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_large_logits_stable(self):
        p = softmax(np.array([1000.0, 999.0]))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            softmax(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInputError):
            softmax(np.array([np.inf, 0.0]))

    def test_output_is_prob_vector(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            p = softmax(gen.normal(scale=5.0, size=int(gen.integers(2, 20))))
            check_prob_vector(p)


@pytest.mark.parametrize("check, value, message", [
    (check_prob_vector, [[0.5, 0.5]], "probability vector must have shape (N,), got (1, 2)"),
    (check_prob_vector, 1.0, "probability vector must have shape (N,), got ()"),
    (check_prob_vector, [1.0], "probability vector must have m >= 2 entries, got 1"),
    (check_logits, [[1.0, 2.0]], "logits must have shape (N,), got (1, 2)"),
    (check_logits, [], "logits must have at least one entry, got 0"),
])
def test_vector_shapes_refused_in_the_shape_wording(check, value, message):
    # one wording with every other shape check (documents.check_shape); the size rules stay
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        check(value)


class TestEntmax:
    def test_sparsemax_threshold_example(self):
        # sorting threshold gives tau = -2/15 and full support
        p = entmax(np.array([0.5, 0.2, -0.1]), 2.0)
        assert np.allclose(p, [19 / 30, 10 / 30, 1 / 30], atol=1e-12)

    def test_sparsemax_single_support(self):
        assert np.allclose(entmax(np.array([10.0, 0.0]), 2.0), [1.0, 0.0])

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 4.0])
    def test_uniform_logits_give_uniform(self, alpha):
        p = entmax(np.full(6, 3.0), alpha)
        assert np.allclose(p, 1 / 6, atol=1e-9)

    def test_alpha_domain(self):
        for alpha in (1.0, 0.5, -2.0):
            with pytest.raises(ParameterDomainError):
                entmax(np.zeros(3), alpha)

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_unconverged_bisection_raises(self, monkeypatch, alpha):
        import scorelm.simplex as simplex_mod

        monkeypatch.setattr(simplex_mod, "ENTMAX_BISECT_TOL", -1.0)  # |sum p - 1| can never reach it
        with pytest.raises(ConvergenceError, match=rf"alpha={alpha}, \|sum p - 1\| = "):
            entmax(np.array([0.5, 0.2, -0.1]), alpha)

    def test_matches_sparsemax_oracle(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            m = int(gen.integers(2, 65))
            z = gen.normal(scale=2.0, size=m)
            assert np.abs(entmax(z, 2.0) - sparsemax_oracle(z)).max() < 1e-8

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
    def test_solution_optimality(self, alpha):
        # returned point must beat 1000 random simplex points
        gen = np.random.default_rng(2)
        z = gen.normal(size=8)
        p = entmax(z, alpha)
        check_prob_vector(p)
        best = p @ z + tsallis_entropy(p, alpha)
        for q in gen.dirichlet(np.ones(8), size=1000):
            assert q @ z + tsallis_entropy(q, alpha) <= best + 1e-8

    def test_outputs_valid_and_possibly_sparse(self):
        gen = np.random.default_rng(3)
        saw_zero = False
        for _ in range(50):
            z = gen.normal(scale=3.0, size=10)
            for alpha in (1.5, 2.0, 3.0):
                p = entmax(z, alpha)
                check_prob_vector(p)
                saw_zero |= bool((p == 0.0).any())
        assert saw_zero


class TestTsallisEntropy:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_one_hot_is_zero(self, alpha):
        p = np.zeros(5)
        p[2] = 1.0
        assert tsallis_entropy(p, alpha) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 4, 10])
    def test_quadratic_uniform_closed_form(self, m):
        assert tsallis_entropy(np.full(m, 1 / m), 2.0) == pytest.approx(0.5 * (1 - 1 / m))

    def test_shannon_fair_coin(self):
        assert tsallis_entropy([0.5, 0.5], 1.0) == pytest.approx(np.log(2))

    def test_alpha_domain(self):
        with pytest.raises(ParameterDomainError):
            tsallis_entropy([0.5, 0.5], 0.9)


class TestSmoothDistribution:
    def test_one_hot_m100(self):
        q = np.zeros(100)
        q[0] = 1.0
        qe = smooth_distribution(q, 0.1)
        assert qe[0] == pytest.approx(0.901)
        assert np.allclose(qe[1:], 0.001)

    def test_identity_and_fixed_point(self):
        q = np.array([0.2, 0.5, 0.3])
        assert np.array_equal(smooth_distribution(q, 0.0), q)
        u = np.full(4, 0.25)
        for eps in (0.1, 0.5, 1.0):
            assert np.allclose(smooth_distribution(u, eps), u)

    def test_eps_domain(self):
        for eps in (-0.1, 1.5):
            with pytest.raises(ParameterDomainError):
                smooth_distribution([0.5, 0.5], eps)

    def test_floor_property(self):
        gen = np.random.default_rng(4)
        for _ in range(50):
            m = int(gen.integers(2, 12))
            q = gen.dirichlet(np.ones(m))
            eps = float(gen.uniform(0, 1))
            qe = smooth_distribution(q, eps)
            check_prob_vector(qe)
            assert qe.min() >= eps / m - 1e-15


# ---------------------------------------------------------------------------
# Reductions over the outcome axis: numpy's, bit for bit.
# ---------------------------------------------------------------------------

SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, 1e308, -1e308]


@st.composite
def outcome_matrices(draw):
    """(N, m) float64 matrices for N = 0..300 and m = 1..16 in C, Fortran or
    strided layout, or one 1-D row: magnitudes over 40 decades, and a share
    of the entries replaced by +-0, +-inf, NaN of either sign, subnormals or
    +-1e308, whose sums overflow."""
    m, n = draw(st.integers(1, 16)), draw(st.integers(0, 300))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = gen.normal(size=(n, m)) * 10.0 ** gen.integers(-20, 21, size=(n, m))
    special = gen.random((n, m)) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    A[special] = gen.choice(SPECIALS, size=int(special.sum()))
    layout = draw(st.sampled_from(["C", "F", "strided", "1-D"]))
    if layout == "F":
        return np.asfortranarray(A)
    if layout == "strided":
        return np.repeat(A, 2, axis=0)[::2]
    return A[0] if layout == "1-D" and n else A


def assert_numpy_bits(got, want):
    """got is want bit for bit, but for the sign and payload of a NaN: numpy
    itself returns -NaN or NaN for the same row in C and Fortran layout."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(A=outcome_matrices())
def test_row_reductions_are_numpy_bit_for_bit(A):
    # and, for rows narrower than PAIRWISE_BLOCK, numpy's of a row-major copy in every layout
    wants = [A] + ([np.ascontiguousarray(A)] if A.shape[-1] < PAIRWISE_BLOCK else [])
    with np.errstate(all="ignore"):
        for want in wants:
            assert_numpy_bits(row_sum(A), want.sum(axis=-1, keepdims=True))
            if A.shape[-1]:
                assert_numpy_bits(row_max(A), want.max(axis=-1, keepdims=True))


@pytest.mark.parametrize("row, total", [
    ([-0.0, -0.0, -0.0], 0.0),   # numpy's sum starts from +0.0
    ([1.0, 1e16, -1e16], 0.0),   # left to right: 1 is lost against 1e16
    ([-1e16, 1e16, 1.0], 1.0),
    ([1e308, 1e308, -1e308], np.inf),
])
def test_row_sum_runs_left_to_right_from_zero(row, total):
    A = np.tile(row, (300, 1))
    for rows in (A, np.asfortranarray(A), A[:1]):  # row-major, outcome-major, one row
        with np.errstate(over="ignore"):
            got, want = row_sum(rows), np.ascontiguousarray(rows).sum(axis=-1, keepdims=True)
        assert got.tobytes() == want.tobytes() == np.full((rows.shape[0], 1), total).tobytes()


@st.composite
def column_matrices(draw):
    """(N, n) float64 matrices for N = 0..600 and n = 1..40, row-major as
    the backward's dZ and dA are, or Fortran or strided: magnitudes over 600
    decades, and a share of the entries replaced by +-0 or +-inf."""
    n, N = draw(st.integers(1, 40)), draw(st.integers(0, 600))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):
        A = gen.normal(size=(N, n)) * 10.0 ** gen.integers(-300, 301, size=(N, n))
    special = gen.random((N, n)) < draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    A[special] = gen.choice([0.0, -0.0, np.inf, -np.inf], size=int(special.sum()))
    layout = draw(st.sampled_from(["C", "C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(A)
    return np.repeat(A, 2, axis=0)[::2] if layout == "strided" else A


@settings(max_examples=400, deadline=None, derandomize=True)
@given(A=column_matrices())
def test_column_sum_is_numpy_bit_for_bit(A):
    # one einsum over row-major rows of two or more columns; np.sum on one column, where einsum's
    # pairing gives other bytes, and on other layouts
    out = np.full(A.shape[1], np.nan)
    with np.errstate(all="ignore"):
        got, want = column_sum(A, out), np.sum(A, axis=0)
    assert got is out and got.tobytes() == want.tobytes()
