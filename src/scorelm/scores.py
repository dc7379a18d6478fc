"""Strictly proper scoring rules, their smoothed variants, and exact
logit-space gradients.

A rule assigns S(p, i), the utility of predicting distribution p when
outcome i is observed.  Implemented rules:

    logarithmic       log p_i
    alpha_power       alpha p_i^(alpha-1) - (alpha-1) sum_j p_j^alpha
    pseudo_spherical  p_i^(alpha-1) / (sum_j p_j^alpha)^((alpha-1)/alpha)
    brier             alpha_power at alpha = 2:       2 p_i - sum_j p_j^2
    spherical         pseudo_spherical at alpha = 2:  p_i / ||p||_2
    linear            p_i   (improper; negative control for propriety scans)

Score evaluation keeps extended-real semantics: -inf is a first-class value
(logarithmic score of a zero-probability outcome), never an exception.  The
training path (token_losses_and_grads, and each rule's clamped column,
which held-out evaluation reads) instead clamps log arguments at P_MIN so
losses and gradients stay finite.  It forms what its caller reads: the
score and its gradient at each row's observed outcome, the scores and
gradients of every outcome only where smoothing sums them, and the losses
only when they are asked for.  It keeps narrow probability matrices
outcome-major, as softmax_rows returns them, and hands back dZ row-major.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .documents import check_field_types, check_shape, read_ids
from .errors import ConfigurationError, InvalidInputError, ParameterDomainError
from .simplex import check_logits, check_prob_vector, entmax, row_sum, softmax_rows, tsallis_entropy

P_MIN = 1e-12  # log clamp used only in the training path
P_TINY = np.finfo(np.float64).tiny  # floor of P in P ** (alpha - 2) for alpha < 2 (training path)


def _log_value(P, p, a):
    with np.errstate(divide="ignore"):
        return np.log(p)


def _log_clamped(P, p, a):
    return np.log(np.maximum(p, P_MIN))


def _log_grad_sum(P, a):
    act = (P >= P_MIN).astype(np.float64)  # clamp is flat below P_MIN
    return act / np.maximum(P, P_MIN)


def _log_grad(P, p_obs, a):
    return 1.0, _log_grad_sum(p_obs, a), None


def _pow(x, e):
    """x ** e, with the two exact cases taken without a call: x ** 1.0 is x
    (the very array) and x ** 0.0 is 1.0, for every x."""
    if e == 1.0:
        return x
    return 1.0 if e == 0.0 else x**e


def _power_value(P, p, a):
    return a * _pow(p, a - 1.0) - (a - 1.0) * row_sum(P**a)


def _pow_a2(P, a):
    """P ** (a - 2), with P floored at P_TINY when a < 2: a zero or subnormal
    probability would make it infinite, and the softmax chain multiplies it
    by P, so 0 * inf would poison the gradient; at P = 0 the floor gives the
    exact P -> 0 limit of that product, 0.  Normal P is untouched."""
    if a >= 2.0:
        return _pow(P, a - 2.0)
    floored = np.maximum(P, P_TINY)
    return np.power(floored, a - 2.0, out=floored)


def _power_grad(P, p_obs, a):
    return a * (a - 1.0), _pow_a2(p_obs, a), _pow(P, a - 1.0)


def _power_grad_sum(P, a):
    return a * (a - 1.0) * (_pow_a2(P, a) - P.shape[-1] * _pow(P, a - 1.0))


def _pseudo_value(P, p, a):
    qa = row_sum(P**a)
    return _pow(p, a - 1.0) / qa ** ((a - 1.0) / a)


# the gradients are written in n = ||p||_alpha so that alpha = 2 is the spherical rule bit for bit
def _pseudo_norms(P, a):
    """P ** (a - 1), and n ** (a - 1) and n ** (2a - 1) for each row's n."""
    n = row_sum(P**a) ** (1.0 / a)
    return _pow(P, a - 1.0), _pow(n, a - 1.0), n ** (2.0 * a - 1.0)


def _pseudo_grad(P, p_obs, a):
    pa1, n_lo, n_hi = _pseudo_norms(P, a)
    return a - 1.0, _pow_a2(p_obs, a) / n_lo, _pow(p_obs, a - 1.0) * pa1 / n_hi


def _pseudo_grad_sum(P, a):
    pa1, n_lo, n_hi = _pseudo_norms(P, a)
    return (a - 1.0) * (_pow_a2(P, a) / n_lo - row_sum(pa1) * pa1 / n_hi)


def _linear_value(P, p, a):
    return p.copy()


def _linear_grad(P, p_obs, a):
    return 1.0, np.ones_like(p_obs), None


def _linear_grad_sum(P, a):
    return np.ones_like(P)


@dataclass(frozen=True)
class RuleRecord:
    """One scoring rule.  value and clamped give S(p, i) for row p = P[b]
    at the outcomes whose probabilities p holds: p is P itself for every
    outcome, or the (B, 1) column p_obs of P[b, idx[b]] for the observed
    outcome idx[b] alone.  value is the extended-real S; clamped is the
    training path's, with logs clamped at P_MIN.  grad is dS(p, idx[b])/dp
    as parts (k, x, W) with dS/dp = k (x onehot(idx[b]) - W), W None
    standing for 0; grad_sum is sum_j dS(p, j)/dp, which only smoothing
    reads."""

    value: Callable  # (P, p, alpha) -> S(P[b], i) at each probability p[b, i] of row P[b]
    clamped: Callable  # (P, p, alpha) -> value with logs clamped at P_MIN
    grad: Callable  # (P, p_obs, alpha) -> (k, x, W): a scalar, a (B, 1) column, (B, m) or None
    grad_sum: Callable  # (P, alpha) -> sum_j dS(p, j)/dp per row
    sup: float  # sup over p and i of S(p, i)
    alpha: float | None = 2.0  # the pinned alpha, or None for a free alpha > 1
    proper: bool = True


_LOG = RuleRecord(_log_value, _log_clamped, _log_grad, _log_grad_sum, sup=0.0)
_POWER = RuleRecord(_power_value, _power_value, _power_grad, _power_grad_sum, sup=1.0, alpha=None)
_PSEUDO = RuleRecord(_pseudo_value, _pseudo_value, _pseudo_grad, _pseudo_grad_sum, sup=1.0, alpha=None)
_LINEAR = RuleRecord(_linear_value, _linear_value, _linear_grad, _linear_grad_sum, sup=1.0, proper=False)

# the rule table; Brier and spherical are the alpha = 2 members of their families
RULES = {
    "logarithmic": _LOG,
    "brier": replace(_POWER, alpha=2.0),
    "spherical": replace(_PSEUDO, alpha=2.0),
    "alpha_power": _POWER,
    "pseudo_spherical": _PSEUDO,
    "linear": _LINEAR,
}
KINDS = tuple(RULES)


@dataclass(frozen=True)
class ScoreRule:
    """Rule identity plus alpha: free (> 1) for the parametric families, pinned to 2 for the rest."""

    kind: str
    alpha: float = 2.0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in RULES:
            raise ParameterDomainError(f"unknown scoring rule {self.kind!r}, expected one of {KINDS}")
        pinned = RULES[self.kind].alpha
        if pinned is None and not 1 < self.alpha < np.inf:
            raise ParameterDomainError(f"{self.kind} requires a finite alpha > 1, got {self.alpha}")
        if pinned is not None and self.alpha != pinned:
            raise ParameterDomainError(f"{self.kind} has alpha pinned to {pinned}, got {self.alpha}")


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing factor eps plus the mask-enhancement flag."""

    eps: float = 0.0
    mask_enhanced: bool = False

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.eps <= 1.0:
            raise ParameterDomainError(f"eps must lie in [0, 1], got {self.eps}")
        if self.mask_enhanced and self.eps == 0.0:
            raise ConfigurationError("mask enhancement needs eps > 0 (threshold eps/m is degenerate at 0)")


NO_SMOOTHING = SmoothingConfig()


def _check_index(i: int, m: int) -> int:
    """The observed outcome i as an int in [0, m): a Python or numpy integer,
    never a boolean, a float or a sequence, which int() would read as one."""
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
        raise InvalidInputError(f"observed outcome must be an integer, got {i!r} for m={m}")
    i = int(i)
    if not 0 <= i < m:
        raise InvalidInputError(f"observed index {i} out of range for m={m}")
    return i


def score_matrix(rule: ScoreRule, P: np.ndarray) -> np.ndarray:
    """S(p, j) for every row p of P and every outcome j; shape preserved.

    Rows are assumed to be valid probability vectors (may contain zeros).
    """
    return RULES[rule.kind].value(P, P, rule.alpha)


def score_vector(rule: ScoreRule, p: np.ndarray) -> np.ndarray:
    """S(p, j) for all j, as a vector."""
    return score_matrix(rule, p[None, :])[0]


def smoothed_score_matrix(rule: ScoreRule, cfg: SmoothingConfig, P: np.ndarray) -> np.ndarray:
    """S^eps(p, j) = (1 - eps) S(p, j) + (eps / m) sum_k S(p, k) for every row
    p of P and every outcome j, extended-real; at eps = 1 the first term is
    dropped, also where S(p, j) = -inf.  With cfg.mask_enhanced each row also
    gets the penalty (eps / m) sum_{k : p_k < eps / m} log p_k, -inf if a
    masked entry is zero."""
    S = score_matrix(rule, P)
    eps, m = cfg.eps, P.shape[-1]
    if eps > 0.0:
        tail = (eps / m) * row_sum(S)
        S = (1.0 - eps) * S + tail if eps < 1.0 else np.broadcast_to(tail, S.shape)
    if cfg.mask_enhanced:
        with np.errstate(divide="ignore"):
            S = S + (eps / m) * row_sum(np.where(P < eps / m, np.log(P), 0.0))
    return S


def expectation(S: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_j q_j S[..., j] for every row of S, with q_j * (-inf) read as -inf
    for q_j > 0 and as 0 for q_j = 0."""
    with np.errstate(invalid="ignore"):
        return row_sum(np.where(q > 0, S * q, 0.0))[..., 0]


def score(rule: ScoreRule, p, i: int) -> float:
    """S(p, i); -inf for the logarithmic score of a zero-probability outcome."""
    return smoothed_score(rule, NO_SMOOTHING, p, i)


def expected_score(rule: ScoreRule, p, q) -> float:
    """sum_i q_i S(p, i), with q_i * (-inf) read as -inf for q_i > 0 and
    as 0 for q_i = 0."""
    p = check_prob_vector(p)
    q = check_prob_vector(q)
    if p.size != q.size:
        raise InvalidInputError(f"dimension mismatch: p has {p.size} entries, q has {q.size}")
    return float(expectation(score_vector(rule, p), q))


def smoothed_score(rule: ScoreRule, cfg: SmoothingConfig, p, i: int) -> float:
    """(1 - eps) S(p, i) + (eps / m) sum_j S(p, j), plus, when cfg is mask
    enhanced, (eps / m) sum over under-smooth labels {j : p_j < eps / m} of
    log p_j (-inf if any of those entries is zero)."""
    p = check_prob_vector(p)
    i = _check_index(i, p.size)
    return float(smoothed_score_matrix(rule, cfg, p[None, :])[0, i])


# ---------------------------------------------------------------------------
# Training path: losses and exact gradients through softmax, vectorized over
# a batch of logit rows.  Log arguments are clamped at P_MIN; the clamp
# indicator and the under-smooth mask are constants of the forward pass, so
# the analytic gradient is the exact gradient of the implemented loss.
# ---------------------------------------------------------------------------


def token_losses_and_grads(
    rule: ScoreRule,
    cfg: SmoothingConfig,
    Z: np.ndarray,
    idx: np.ndarray,
    mask_override: np.ndarray | None = None,
    *,
    losses: bool = True,
):
    """Per-row training losses -S_variant(softmax(z), idx) and their exact
    gradients with respect to the logits.

    Z is (B, m), idx is (B,), and any other shape is refused.  Returns
    (losses (B,), dZ (B, m)); with losses=False the losses are not formed
    and None stands in their place.  mask_override pins the under-smooth mask
    (used by finite-difference checks, where the mask must not move with the
    perturbed logits).  idx is read by read_ids, and an observed outcome
    outside [0, m) raises IndexError.
    """
    Z = np.asarray(Z, dtype=np.float64)
    check_shape(Z, "logits", (None, None))
    idx = read_ids(idx, "observed outcomes", shape=Z.shape[:1])
    if idx.size and not 0 <= idx.min() <= idx.max() < Z.shape[-1]:  # a flat index would read another row
        raise IndexError(f"observed outcomes {idx.min()}..{idx.max()} out of range for m={Z.shape[-1]}")
    return _token_losses_and_grads(rule, cfg, Z, idx, 1, mask_override, losses=losses)


def _token_losses_and_grads(rule, cfg, Z, idx, n, mask_override=None, *, losses=True):
    """token_losses_and_grads over checked outcomes, dZ divided by n in its
    row-major copy (x / -n is -(x / n))."""
    m = Z.shape[1]
    P = softmax_rows(Z)
    rows, index = np.arange(idx.size), {}

    def entries(A):  # a C- or F-contiguous A's memory as a view, and each row's observed entry's place in it
        if A.strides not in index:  # one flat index per layout, from A's own strides
            index[A.strides] = rows * (A.strides[0] // A.itemsize) + idx * (A.strides[1] // A.itemsize)
        return A.ravel(order="K"), index[A.strides]
    flat, at = entries(P)
    p_obs = flat[at][:, None]
    eps, a = cfg.eps, rule.alpha
    record = RULES[rule.kind]

    values = None
    if losses and eps > 0.0:  # smoothing sums the score of every outcome
        s = record.clamped(P, P, a)
        flat, at = entries(s)
        values = (1.0 - eps) * flat[at] + (eps / m) * row_sum(s)[:, 0]
    elif losses:
        values = record.clamped(P, p_obs, a)[:, 0]
    if cfg.mask_enhanced:
        mask = (P < eps / m) if mask_override is None else mask_override
        pt = np.maximum(P, P_MIN)
        if losses:
            values = values + (eps / m) * row_sum(np.where(mask, np.log(pt), 0.0))[:, 0]

    # dS(p, idx)/dp = k (x onehot - W); the chain through softmax is
    # dL/dz_k = -(p_k (v_k - sum_j p_j v_j)) for v = dS/dp, its negate written row-major
    k, x, W = record.grad(P, p_obs, a)
    if W is None and eps == 0.0:
        # v is k x at idx and 0 elsewhere: the row sum is its one term p_obs k x >= 0 and no
        # (B, m) matrix v is built; 0.0 - inner keeps the sign of a zero as v_k - inner does
        g = k * x
        inner = p_obs * g
        dZ = np.subtract(0.0, inner) * P
        flat, at = entries(dZ)
        flat[at] = ((g - inner) * p_obs)[:, 0]
    else:
        # v written column by column: 0.0 - W keeps the sign of a zero entry of W,
        # as x * 0 - W did (x is finite and >= 0)
        if W is None:
            grads_p = np.zeros_like(P)
            on = k * x
        else:
            flat, at = entries(W)
            on = k * (x - flat[at][:, None])
            grads_p = np.subtract(0.0, W)
            grads_p *= k
        flat, at = entries(grads_p)
        flat[at] = on[:, 0]
        if eps > 0.0:
            grads_p *= 1.0 - eps
            grads_p += (eps / m) * record.grad_sum(P, a)
        if cfg.mask_enhanced:
            grads_p += np.where(mask & (P >= P_MIN), (eps / m) / pt, 0.0)  # (eps / m) * mask * active / pt
        inner = row_sum(P * grads_p)
        dZ = np.subtract(grads_p, inner, out=grads_p)
        dZ *= P
    return (None if values is None else -values), np.divide(dZ, -n, order="C")


def entmax_power_equivalence_gap(z, x: int, alpha: float):
    """Gap between the entmax loss (p - e_x).z + H_alpha(p) at p = entmax(z)
    and the affine transform (L_power + 1) / (alpha (alpha - 1)) of the
    alpha-power loss, plus whether the gold label kept positive probability.

    The two losses coincide only when p_x > 0; out-of-support gaps are
    returned for inspection but carry no equivalence claim.
    """
    z = check_logits(z)
    x = _check_index(x, z.size)
    rule = ScoreRule("alpha_power", alpha)
    p = entmax(z, alpha)
    e_x = np.zeros_like(p)
    e_x[x] = 1.0
    loss_entmax = float((p - e_x) @ z) + tsallis_entropy(p, alpha)
    loss_power = -float(score_vector(rule, p)[x])
    gap = abs(loss_entmax - (loss_power + 1.0) / (alpha * (alpha - 1.0)))
    return gap, bool(p[x] > 0.0)
