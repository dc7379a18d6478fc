"""Probability-simplex numerics.

Normalization maps (softmax and alpha-entmax), Tsallis entropies,
distribution smoothing, and the reductions over the outcome axis that the
batched paths share.  The scalar functions take and return 1-D float
arrays; probability vectors live on the m-simplex with m >= 2.

Layout contract: softmax_rows returns narrow rows (m < PAIRWISE_BLOCK)
outcome-major when there are FEW_ROWS or more, and row_sum and row_max give
numpy's bytes in either layout.  column_sum gives A.sum(axis=0)'s bytes: one
einsum on FEW_ROWS or more row-major rows of two or more columns, numpy's
own reduction otherwise, where einsum pairs the terms or costs more.
"""

import numpy as np

from .documents import check_shape
from .errors import ConvergenceError, InvalidInputError, ParameterDomainError

SUM_TOL = 1e-9
ENTMAX_BISECT_TOL = 1e-10
ENTMAX_BISECT_ITERS = 200

# numpy's pairwise sum adds a block of fewer than 8 values one by one, left to
# right, so a row that narrow sums in column order: numpy's own, not a setting
PAIRWISE_BLOCK = 8

# below this many rows numpy's row-by-row calls cost less than one einsum, and a row-major softmax
# less than its outcome-major copy: measured between the benchmark shapes, the Markov chain's 16
# distinct pairs and the paired data's 288 rows, where einsum gains from 64 rows and the copy from 32
FEW_ROWS = 32


def row_max(A: np.ndarray) -> np.ndarray:
    """A.max(axis=-1, keepdims=True) of a float array, bit for bit but for
    the sign of a NaN result, which numpy itself picks by memory layout.  On
    an outcome-major matrix numpy's one reduction runs as one np.maximum per
    column; a max is exact in any order."""
    return np.maximum.reduce(A, axis=-1, keepdims=True)


def row_sum(A: np.ndarray) -> np.ndarray:
    """A.sum(axis=-1, keepdims=True) of a float array, bit for bit but for
    the sign and payload of a NaN result, which numpy itself picks by memory
    layout.  numpy sums a row narrower than PAIRWISE_BLOCK left to right
    from +0.0 (so a row of -0.0 sums to +0.0), and an outcome-major matrix
    in that same order, one np.add per column from initial +0.0; wider
    row-major rows take numpy's pairwise sum."""
    return np.add.reduce(A, axis=-1, keepdims=True, initial=0.0)


def column_sum(A: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A.sum(axis=0, out=out) of a 2-D float array, bit for bit.  numpy adds
    the rows in order, a call per row, the cheaper below FEW_ROWS rows;
    einsum adds a row-major A's rows in that order in one call, except on
    one column or another layout."""
    if A.shape[0] < FEW_ROWS or A.shape[1] < 2 or not A.flags.c_contiguous:
        return np.add.reduce(A, axis=0, out=out)
    return np.einsum("ij->j", A, out=out)


def check_prob_vector(p, tol: float = SUM_TOL) -> np.ndarray:
    """Validate p as a point on the simplex and return it as a float array."""
    p = np.asarray(p, dtype=np.float64)
    check_shape(p, "probability vector", (None,))
    if p.size < 2:
        raise InvalidInputError(f"probability vector must have m >= 2 entries, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("probability vector contains non-finite entries")
    if np.any(p < 0):
        raise InvalidInputError(f"probability vector has negative entries: min={p.min()}")
    s = p.sum()
    if abs(s - 1.0) > tol:
        raise InvalidInputError(f"probability vector sums to {s!r}, outside tolerance {tol}")
    return p


def check_logits(z) -> np.ndarray:
    """Validate z as a finite 1-D logit vector."""
    z = np.asarray(z, dtype=np.float64)
    check_shape(z, "logits", (None,))
    if z.size < 1:
        raise InvalidInputError("logits must have at least one entry, got 0")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logits contain non-finite entries")
    return z


def softmax(z) -> np.ndarray:
    """Exponential normalization with max subtraction for stability.

    Invariant under adding a constant to every logit.
    """
    z = check_logits(z)
    e = np.exp(z - z.max())
    return e / e.sum()


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a (B, m) logit matrix, outcome-major (Fortran
    order) for FEW_ROWS or more narrow rows, so each row reduction and (B, 1)
    broadcast runs as m long loops; wider or fewer rows stay row-major."""
    if Z.shape[-1] < PAIRWISE_BLOCK and Z.shape[0] >= FEW_ROWS:
        Z = np.asfortranarray(Z)
    e = Z - row_max(Z)
    np.exp(e, out=e)
    e /= row_sum(e)
    return e


def _sparsemax(z: np.ndarray) -> np.ndarray:
    # Exact sorting-threshold algorithm: Euclidean projection onto the simplex.
    srt = np.sort(z)[::-1]
    csum = np.cumsum(srt) - 1.0
    rho = np.arange(1, z.size + 1)
    support = rho * srt > csum
    k = int(support.sum())
    tau = csum[k - 1] / k
    return np.maximum(z - tau, 0.0)


def entmax(z, alpha: float) -> np.ndarray:
    """argmax over the simplex of p.z + H_alpha(p), the alpha-entmax map.

    alpha = 2 is solved exactly by the sparsemax sorting threshold; other
    alpha > 1 by bisection on the threshold tau in
    p_j = [(alpha-1) z_j - tau]_+^(1/(alpha-1)), over the bracket
    [min((alpha-1) z_j) - 1, max((alpha-1) z_j)].  Output entries may be
    exactly zero.  Raises ConvergenceError when the bisection has not brought
    sum(p) within ENTMAX_BISECT_TOL of 1 after ENTMAX_BISECT_ITERS steps.
    """
    z = check_logits(z)
    if alpha <= 1:
        raise ParameterDomainError(f"entmax requires alpha > 1, got {alpha}")
    if alpha == 2:
        return _sparsemax(z)
    zs = (alpha - 1.0) * z
    lo, hi = zs.min() - 1.0, zs.max()
    power = 1.0 / (alpha - 1.0)
    for _ in range(ENTMAX_BISECT_ITERS):
        tau = 0.5 * (lo + hi)
        p = np.maximum(zs - tau, 0.0) ** power
        s = p.sum()
        if abs(s - 1.0) <= ENTMAX_BISECT_TOL:
            return p / s
        if s > 1.0:
            lo = tau
        else:
            hi = tau
    raise ConvergenceError(
        f"entmax bisection did not converge in {ENTMAX_BISECT_ITERS} iterations "
        f"(alpha={alpha}, |sum p - 1| = {abs(s - 1.0):.3g})"
    )


def tsallis_entropy(p, alpha: float) -> float:
    """Tsallis alpha-entropy: sum(p - p^alpha) / (alpha (alpha-1)) for
    alpha > 1, Shannon entropy at alpha = 1 (with 0 log 0 := 0)."""
    p = check_prob_vector(p)
    if alpha < 1:
        raise ParameterDomainError(f"tsallis_entropy requires alpha >= 1, got {alpha}")
    if alpha == 1:
        nz = p[p > 0]
        return float(-np.sum(nz * np.log(nz)))
    return float(np.sum(p - p**alpha) / (alpha * (alpha - 1.0)))


def smooth_distribution(q, eps: float) -> np.ndarray:
    """Blend q with the uniform distribution: (1 - eps) q + eps / m."""
    q = check_prob_vector(q)
    if not 0.0 <= eps <= 1.0:
        raise ParameterDomainError(f"smoothing factor must lie in [0, 1], got {eps}")
    return (1.0 - eps) * q + eps / q.size
