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
training path (token_loss / loss_gradient_logits) instead clamps log
arguments at P_MIN so losses and gradients stay finite.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ParameterDomainError
from .simplex import check_logits, check_prob_vector, entmax, softmax_rows, tsallis_entropy

P_MIN = 1e-12  # log clamp used only in the training path


def _log_value(P, a):
    with np.errstate(divide="ignore"):
        return np.log(P)


def _log_parts(P, onehot, p_obs, a):
    pt = np.maximum(P, P_MIN)
    act = (P >= P_MIN).astype(np.float64)  # clamp is flat below P_MIN
    inv = act / pt
    return np.log(pt), onehot * inv, inv


def _power_value(P, a):
    return a * P ** (a - 1.0) - (a - 1.0) * np.sum(P**a, axis=-1, keepdims=True)


def _power_parts(P, onehot, p_obs, a):
    pa1 = P ** (a - 1.0)
    c = a * (a - 1.0)
    g_obs = c * (p_obs ** (a - 2.0) * onehot - pa1)
    T = c * (P ** (a - 2.0) - P.shape[-1] * pa1)
    return _power_value(P, a), g_obs, T


def _pseudo_value(P, a):
    qa = np.sum(P**a, axis=-1, keepdims=True)
    return P ** (a - 1.0) / qa ** ((a - 1.0) / a)


def _pseudo_parts(P, onehot, p_obs, a):
    # written in n = ||p||_alpha so that alpha = 2 is the spherical rule bit for bit
    pa1 = P ** (a - 1.0)
    n = np.sum(P**a, axis=-1, keepdims=True) ** (1.0 / a)
    n_lo, n_hi = n ** (a - 1.0), n ** (2.0 * a - 1.0)
    g_obs = (a - 1.0) * (p_obs ** (a - 2.0) * onehot / n_lo - p_obs ** (a - 1.0) * pa1 / n_hi)
    T = (a - 1.0) * (P ** (a - 2.0) / n_lo - np.sum(pa1, axis=-1, keepdims=True) * pa1 / n_hi)
    return _pseudo_value(P, a), g_obs, T


def _linear_value(P, a):
    return P.copy()


def _linear_parts(P, onehot, p_obs, a):
    return _linear_value(P, a), onehot, np.ones_like(P)


@dataclass(frozen=True)
class RuleRecord:
    """One scoring rule.  parts gives the training path at each row p = P[b]:
    s = S(P, .) with logs clamped at P_MIN, g_obs[b] = dS(p, idx[b])/dp and
    T[b] = sum_j dS(p, j)/dp."""

    value: Callable  # (P, alpha) -> S(p, j) for every row p of P and every outcome j
    parts: Callable  # (P, onehot, p_obs, alpha) -> (s, g_obs, T)
    sup: float  # sup over p and i of S(p, i)
    alpha: float | None = 2.0  # the pinned alpha, or None for a free alpha > 1
    proper: bool = True


# the rule table; Brier and spherical are the alpha = 2 members of their families
RULES = {
    "logarithmic": RuleRecord(_log_value, _log_parts, sup=0.0),
    "brier": RuleRecord(_power_value, _power_parts, sup=1.0),
    "spherical": RuleRecord(_pseudo_value, _pseudo_parts, sup=1.0),
    "alpha_power": RuleRecord(_power_value, _power_parts, sup=1.0, alpha=None),
    "pseudo_spherical": RuleRecord(_pseudo_value, _pseudo_parts, sup=1.0, alpha=None),
    "linear": RuleRecord(_linear_value, _linear_parts, sup=1.0, proper=False),
}
KINDS = tuple(RULES)


@dataclass(frozen=True)
class ScoreRule:
    """Rule identity plus alpha: free (> 1) for the parametric families, pinned to 2 for the rest."""

    kind: str
    alpha: float = 2.0

    def __post_init__(self):
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
        if not 0.0 <= self.eps <= 1.0:
            raise ParameterDomainError(f"eps must lie in [0, 1], got {self.eps}")


NO_SMOOTHING = SmoothingConfig()


def _check_index(i: int, m: int) -> int:
    i = int(i)
    if not 0 <= i < m:
        raise InvalidInputError(f"observed index {i} out of range for m={m}")
    return i


def score_matrix(rule: ScoreRule, P: np.ndarray) -> np.ndarray:
    """S(p, j) for every row p of P and every outcome j; shape preserved.

    Rows are assumed to be valid probability vectors (may contain zeros).
    """
    return RULES[rule.kind].value(P, rule.alpha)


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
        tail = (eps / m) * S.sum(axis=-1, keepdims=True)
        S = (1.0 - eps) * S + tail if eps < 1.0 else np.broadcast_to(tail, S.shape)
    if cfg.mask_enhanced:
        with np.errstate(divide="ignore"):
            S = S + (eps / m) * np.where(P < eps / m, np.log(P), 0.0).sum(axis=-1, keepdims=True)
    return S


def expectation(S: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_j q_j S[..., j] for every row of S, with q_j * (-inf) read as -inf
    for q_j > 0 and as 0 for q_j = 0."""
    with np.errstate(invalid="ignore"):
        return np.where(q > 0, S * q, 0.0).sum(axis=-1)


def _value_at(rule: ScoreRule, cfg: SmoothingConfig, p, i: int) -> float:
    p = check_prob_vector(p)
    i = _check_index(i, p.size)
    return float(smoothed_score_matrix(rule, cfg, p[None, :])[0, i])


def score(rule: ScoreRule, p, i: int) -> float:
    """S(p, i); -inf for the logarithmic score of a zero-probability outcome."""
    return _value_at(rule, NO_SMOOTHING, p, i)


def expected_score(rule: ScoreRule, p, q) -> float:
    """sum_i q_i S(p, i), with q_i * (-inf) read as -inf for q_i > 0 and
    as 0 for q_i = 0."""
    p = check_prob_vector(p)
    q = check_prob_vector(q)
    if p.size != q.size:
        raise InvalidInputError(f"dimension mismatch: p has {p.size} entries, q has {q.size}")
    return float(expectation(score_vector(rule, p), q))


def smoothed_score(rule: ScoreRule, cfg: SmoothingConfig, p, i: int) -> float:
    """(1 - eps) S(p, i) + (eps / m) sum_j S(p, j)."""
    if cfg.mask_enhanced:
        raise ConfigurationError("smoothed_score expects mask_enhanced=False; use masked_log_smoothed_score")
    return _value_at(rule, cfg, p, i)


def masked_log_smoothed_score(rule: ScoreRule, cfg: SmoothingConfig, p, i: int) -> float:
    """Smoothed score plus (eps / m) sum over under-smooth labels
    {j : p_j < eps / m} of log p_j; -inf if any masked entry is zero."""
    if not cfg.mask_enhanced:
        raise ConfigurationError("masked_log_smoothed_score expects mask_enhanced=True")
    if cfg.eps == 0.0:
        raise ConfigurationError("mask enhancement needs eps > 0 (threshold eps/m is degenerate at 0)")
    return _value_at(rule, cfg, p, i)


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
):
    """Per-row training losses -S_variant(softmax(z), idx) and their exact
    gradients with respect to the logits.

    Z is (B, m), idx is (B,).  Returns (losses (B,), dZ (B, m)).
    mask_override pins the under-smooth mask (used by finite-difference
    checks, where the mask must not move with the perturbed logits).
    """
    Z = np.asarray(Z, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    B, m = Z.shape
    rows = np.arange(B)
    P = softmax_rows(Z)
    eps = cfg.eps

    onehot = np.zeros_like(P)
    onehot[rows, idx] = 1.0
    s, g_obs, T = RULES[rule.kind].parts(P, onehot, P[rows, idx][:, None], rule.alpha)

    values = s[rows, idx]
    grads_p = g_obs
    if eps > 0.0:
        values = (1.0 - eps) * values + (eps / m) * s.sum(axis=1)
        grads_p = (1.0 - eps) * g_obs + (eps / m) * T
    if cfg.mask_enhanced:
        if eps == 0.0:
            raise ConfigurationError("mask enhancement needs eps > 0 (threshold eps/m is degenerate at 0)")
        mask = (P < eps / m) if mask_override is None else mask_override
        pt = np.maximum(P, P_MIN)
        values = values + (eps / m) * np.sum(np.where(mask, np.log(pt), 0.0), axis=1)
        grads_p = grads_p + (eps / m) * mask * (P >= P_MIN) / pt

    # chain through softmax: dL/dz_k = -p_k (v_k - sum_j p_j v_j)
    inner = np.sum(P * grads_p, axis=1, keepdims=True)
    dZ = -P * (grads_p - inner)
    return -values, dZ


def token_loss(rule: ScoreRule, cfg: SmoothingConfig, z, i: int) -> float:
    """Training loss -S_variant(softmax(z), i) with clamped logs."""
    z = check_logits(z)
    i = _check_index(i, z.size)
    losses, _ = token_losses_and_grads(rule, cfg, z[None, :], np.array([i]))
    return float(losses[0])


def loss_gradient_logits(rule: ScoreRule, cfg: SmoothingConfig, z, i: int) -> np.ndarray:
    """Exact gradient of token_loss with respect to the logits.

    For the logarithmic rule with eps = 0 this is softmax(z) - e_i.
    """
    z = check_logits(z)
    i = _check_index(i, z.size)
    _, dZ = token_losses_and_grads(rule, cfg, z[None, :], np.array([i]))
    return dZ[0]


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
