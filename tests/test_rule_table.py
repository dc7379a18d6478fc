"""The rule table and the smoothed score matrix against the explicit
formulas they replaced, the alpha = 2 identities, property tests over
random simplex points, and the training path at its numerical edges."""

import contextlib
import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scorelm import model as model_mod
from scorelm import scores as scores_mod
from scorelm import simplex
from scorelm.decode import normalized_objective_vector
from scorelm.errors import InvalidInputError
from scorelm.model import ModelConfig, init_params, loss_and_grads
from scorelm.scores import (
    KINDS,
    NO_SMOOTHING,
    P_MIN,
    RULES,
    ScoreRule,
    SmoothingConfig,
    expected_score,
    score_matrix,
    smoothed_score,
    smoothed_score_matrix,
    token_losses_and_grads,
)
from scorelm.simplex import PAIRWISE_BLOCK, softmax_rows
from scorelm.train import EVAL_ROWS, SCORE_FIELDS, distinct_pairs, evaluate_scores
from scorelm.verify import simplex_grid

# ---------------------------------------------------------------------------
# Reference: one explicit formula per kind, as written before the rule table.
# ---------------------------------------------------------------------------


def ref_score_matrix(rule, P):
    a = rule.alpha
    if rule.kind == "logarithmic":
        with np.errstate(divide="ignore"):
            return np.log(P)
    if rule.kind == "brier":
        return 2.0 * P - np.sum(P * P, axis=-1, keepdims=True)
    if rule.kind == "spherical":
        return P / np.sqrt(np.sum(P * P, axis=-1, keepdims=True))
    if rule.kind == "alpha_power":
        return a * P ** (a - 1.0) - (a - 1.0) * np.sum(P**a, axis=-1, keepdims=True)
    if rule.kind == "pseudo_spherical":
        qa = np.sum(P**a, axis=-1, keepdims=True)
        return P ** (a - 1.0) / qa ** ((a - 1.0) / a)
    return P.copy()  # linear


def ref_grad_parts(rule, P, idx):
    """(g_obs, T): dS(p, idx[b])/dp and sum_j dS(p, j)/dp at p = P[b]."""
    B, m = P.shape
    rows = np.arange(B)
    onehot = np.zeros_like(P)
    onehot[rows, idx] = 1.0
    p_obs = P[rows, idx][:, None]
    a = rule.alpha
    if rule.kind == "logarithmic":
        pt = np.maximum(P, P_MIN)
        inv = (P >= P_MIN).astype(np.float64) / pt
        return onehot * inv, inv
    if rule.kind == "brier":
        return 2.0 * onehot - 2.0 * P, 2.0 - 2.0 * m * P
    if rule.kind == "spherical":
        n2 = np.sqrt(np.sum(P * P, axis=-1, keepdims=True))
        sigma = np.sum(P, axis=-1, keepdims=True)
        return onehot / n2 - p_obs * P / n2**3, 1.0 / n2 - sigma * P / n2**3
    if rule.kind == "alpha_power":
        pa1 = P ** (a - 1.0)
        c = a * (a - 1.0)
        return c * (p_obs ** (a - 2.0) * onehot - pa1), c * (P ** (a - 2.0) - m * pa1)
    if rule.kind == "pseudo_spherical":
        pa1 = P ** (a - 1.0)
        lo, hi = ref_pseudo_norms(P, a)
        g_obs = (a - 1.0) * (p_obs ** (a - 2.0) / lo * onehot - p_obs ** (a - 1.0) * pa1 / hi)
        T = (a - 1.0) * (P ** (a - 2.0) / lo - np.sum(pa1, axis=-1, keepdims=True) * pa1 / hi)
        return g_obs, T
    return onehot, np.ones_like(P)  # linear


def ref_pseudo_norms(P, a):
    """n ** (a - 1) and n ** (2a - 1) for each row's n = ||p||_a."""
    n = np.sum(P**a, axis=-1, keepdims=True) ** (1.0 / a)
    return n ** (a - 1.0), n ** (2.0 * a - 1.0)


def ref_softmax_rows(Z):
    """softmax_rows on numpy's own reductions."""
    e = np.exp(Z - Z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ref_token_losses_and_grads(rule, cfg, Z, idx):
    B, m = Z.shape
    rows = np.arange(B)
    P = ref_softmax_rows(Z)
    eps = cfg.eps
    s = np.log(np.maximum(P, P_MIN)) if rule.kind == "logarithmic" else ref_score_matrix(rule, P)
    g_obs, T = ref_grad_parts(rule, P, idx)
    values = s[rows, idx]
    grads_p = g_obs
    if eps > 0.0:
        values = (1.0 - eps) * values + (eps / m) * s.sum(axis=1)
        grads_p = (1.0 - eps) * g_obs + (eps / m) * T
    if cfg.mask_enhanced:
        mask = P < eps / m
        pt = np.maximum(P, P_MIN)
        values = values + (eps / m) * np.sum(np.where(mask, np.log(pt), 0.0), axis=1)
        grads_p = grads_p + (eps / m) * mask * (P >= P_MIN) / pt
    inner = np.sum(P * grads_p, axis=1, keepdims=True)
    return -values, -P * (grads_p - inner)


def ref_objective(rule, p):
    """The decode objectives as written before the rule table."""
    if rule.kind == "logarithmic":
        with np.errstate(divide="ignore"):
            return np.log(p)
    if rule.kind == "brier":
        return 2.0 * p - np.sum(p * p) - 1.0
    return p / np.sqrt(np.sum(p * p)) - 1.0  # spherical


def ref_smoothed_score(rule, cfg, p, i):
    """smoothed_score, with and without mask enhancement, as written before
    smoothed_score_matrix."""
    s = score_matrix(rule, p[None, :])[0]
    eps = cfg.eps
    if eps == 0.0:
        base = float(s[i])
    else:
        tail = (eps / p.size) * float(s.sum())
        base = tail if eps == 1.0 else (1.0 - eps) * float(s[i]) + tail
    masked = p[p < eps / p.size]
    if not cfg.mask_enhanced or masked.size == 0:
        return base
    with np.errstate(divide="ignore"):
        return base + (eps / p.size) * float(np.sum(np.log(masked)))


def ref_scan_grids(rule, eps, P):
    """The smoothed grid and the mask penalty as the smoothing scan wrote them."""
    m = P.shape[1]
    S = score_matrix(rule, P)
    smoothed = (1.0 - eps) * S + (eps / m) * S.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        penalty = (eps / m) * np.where(P < eps / m, np.log(P), 0.0).sum(axis=1)
    return smoothed, penalty


ALL_RULES = [
    ScoreRule("logarithmic"),
    ScoreRule("brier"),
    ScoreRule("spherical"),
    ScoreRule("alpha_power", 1.5),
    ScoreRule("alpha_power", 2.5),
    ScoreRule("pseudo_spherical", 1.5),
    ScoreRule("pseudo_spherical", 2.5),
    ScoreRule("linear"),
]
CONFIGS = [NO_SMOOTHING, SmoothingConfig(0.1), SmoothingConfig(0.1, mask_enhanced=True)]


def random_batches(seed, count=60):
    """(Z, idx) batches over m = 2..40 at logit scales 0.5, 3 and 20; the
    largest scale puts probabilities below P_MIN."""
    gen = np.random.default_rng(seed)
    for k in range(count):
        m = int(gen.integers(2, 41))
        B = int(gen.integers(1, 12))
        Z = gen.normal(size=(B, m)) * (0.5, 3.0, 20.0)[k % 3]
        yield Z, gen.integers(0, m, B)


class TestTableShape:
    def test_kinds_come_from_the_table(self):
        assert KINDS == tuple(RULES) == (
            "logarithmic", "brier", "spherical", "alpha_power", "pseudo_spherical", "linear")

    def test_sup(self):
        assert {k: r.sup for k, r in RULES.items() if r.proper} == {
            "logarithmic": 0.0, "brier": 1.0, "spherical": 1.0, "alpha_power": 1.0, "pseudo_spherical": 1.0}
        assert [k for k, r in RULES.items() if not r.proper] == ["linear"]

    @pytest.mark.parametrize("kind, family", [("brier", "alpha_power"), ("spherical", "pseudo_spherical")])
    def test_alpha2_members_share_their_family_record(self, kind, family):
        for column in ("value", "clamped", "grad", "grad_sum"):
            assert getattr(RULES[kind], column) is getattr(RULES[family], column)


class TestParityWithExplicitFormulas:
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
    def test_score_matrix_bitwise(self, rule):
        for Z, _ in random_batches(1):
            P = softmax_rows(Z)
            assert score_matrix(rule, P).tobytes() == ref_score_matrix(rule, P).tobytes()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["eps0", "eps0.1", "eps0.1-mask"])
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
    def test_token_losses_and_grads_bitwise(self, rule, cfg):
        for Z, idx in random_batches(2):
            losses, dZ = token_losses_and_grads(rule, cfg, Z, idx)
            ref_losses, ref_dZ = ref_token_losses_and_grads(rule, cfg, Z, idx)
            assert losses.tobytes() == ref_losses.tobytes() and dZ.tobytes() == ref_dZ.tobytes()

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_pseudo_spherical_parts_close(self, alpha):
        # the record writes the gradient in n = ||p||_alpha (so that alpha = 2
        # is spherical bit for bit); against the qa form it agrees to rounding,
        # measured against the size of the two terms each entry is a difference of
        rule = ScoreRule("pseudo_spherical", alpha)
        for Z, idx in random_batches(3):
            P = softmax_rows(Z)
            rows = np.arange(P.shape[0])
            onehot = np.zeros_like(P)
            onehot[rows, idx] = 1.0
            p_obs = P[rows, idx][:, None]
            k, x, W = RULES[rule.kind].grad(P, p_obs, alpha)
            g_obs, T = k * (x * onehot - W), RULES[rule.kind].grad_sum(P, alpha)
            pa1 = P ** (alpha - 1.0)
            qa = np.sum(P**alpha, axis=-1, keepdims=True)
            denom = qa ** ((alpha - 1.0) / alpha)
            ref_g = (alpha - 1.0) * (p_obs ** (alpha - 2.0) * onehot - p_obs ** (alpha - 1.0) * pa1 / qa) / denom
            ref_T = (alpha - 1.0) * (P ** (alpha - 2.0) - np.sum(pa1, axis=-1, keepdims=True) * pa1 / qa) / denom
            assert np.array_equal(RULES[rule.kind].clamped(P, P, alpha), ref_score_matrix(rule, P))
            lo, hi = ref_pseudo_norms(P, alpha)
            g_terms = p_obs ** (alpha - 2.0) * onehot / lo + p_obs ** (alpha - 1.0) * pa1 / hi
            T_terms = P ** (alpha - 2.0) / lo + np.sum(pa1, axis=1, keepdims=True) * pa1 / hi
            assert (np.abs(g_obs - ref_g) <= 1e-13 * g_terms).all()
            assert (np.abs(T - ref_T) <= 1e-13 * T_terms).all()

    @pytest.mark.parametrize("kind", ["logarithmic", "brier", "spherical"])
    def test_decode_objective_bitwise(self, kind):
        rule = ScoreRule(kind)
        gen = np.random.default_rng(4)
        for k in range(600):
            p = gen.dirichlet(np.full(int(gen.integers(2, 40)), (0.05, 1.0, 5.0)[k % 3]))
            assert normalized_objective_vector(rule, p).tobytes() == ref_objective(rule, p).tobytes()


def random_simplex_rows(seed, count=40):
    """P batches over m = 2..39: Dirichlet rows at concentrations 0.05, 1
    and 5, and in every other batch one entry per row set to zero."""
    gen = np.random.default_rng(seed)
    for k in range(count):
        m = int(gen.integers(2, 40))
        P = gen.dirichlet(np.full(m, (0.05, 1.0, 5.0)[k % 3]), size=int(gen.integers(1, 5)))
        if k % 2:
            P[np.arange(P.shape[0]), gen.integers(0, m, P.shape[0])] = 0.0
            P /= P.sum(axis=1, keepdims=True)
        yield P


def threshold_rows(eps, m):
    """q^eps for every one-hot q: the off-target entries sit exactly at the
    mask threshold eps / m, which is not masked."""
    return (1.0 - eps) * np.eye(m) + eps / m


SMOOTHINGS = [SmoothingConfig(eps, mask) for eps in (0.0, 0.1, 0.5, 1.0) for mask in (False, True) if eps or not mask]


class TestSmoothedScoreMatrix:
    @pytest.mark.parametrize("cfg", SMOOTHINGS, ids=lambda c: f"eps{c.eps}{'-mask' if c.mask_enhanced else ''}")
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
    def test_against_the_scalar_formulas(self, rule, cfg):
        # bitwise, but for masked rows at m >= 8: the penalty is now summed over a
        # zero-filled row, and numpy's pairwise sum groups such rows differently;
        # there the error is measured against the two terms the value is a sum of
        for P in [*random_simplex_rows(7), threshold_rows(cfg.eps, 3), threshold_rows(cfg.eps, 12)]:
            got = smoothed_score_matrix(rule, cfg, P)
            want = np.array([[ref_smoothed_score(rule, cfg, p, i) for i in range(p.size)] for p in P])
            if cfg.mask_enhanced and P.shape[1] >= 8:
                assert np.array_equal(got == -np.inf, want == -np.inf)
                finite = np.isfinite(want)
                smoothed = smoothed_score_matrix(rule, SmoothingConfig(cfg.eps), P)[finite]
                terms = np.abs(smoothed) + np.abs(want[finite] - smoothed)
                assert (np.abs(got[finite] - want[finite]) <= 1e-14 * terms).all()
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
    def test_public_scores_read_the_matrix(self, rule):
        for P in random_simplex_rows(8, count=12):
            p = P[0]
            for cfg in SMOOTHINGS:
                want = smoothed_score_matrix(rule, cfg, p[None, :])[0]
                assert np.array_equal([smoothed_score(rule, cfg, p, i) for i in range(p.size)], want)

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
    def test_equals_the_scan_grids(self, rule, eps):
        grid = simplex_grid(3, 0.02)
        smoothed, penalty = ref_scan_grids(rule, eps, grid)
        assert np.array_equal(smoothed_score_matrix(rule, SmoothingConfig(eps), grid), smoothed)
        masked = smoothed_score_matrix(rule, SmoothingConfig(eps, mask_enhanced=True), grid)
        assert np.array_equal(masked, smoothed + penalty[:, None])


class TestAlpha2Identities:
    @pytest.mark.parametrize("kind, family", [("brier", "alpha_power"), ("spherical", "pseudo_spherical")])
    def test_score_matrix(self, kind, family):
        for Z, _ in random_batches(5):
            P = softmax_rows(Z)
            assert np.array_equal(score_matrix(ScoreRule(kind), P), score_matrix(ScoreRule(family, 2.0), P))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["eps0", "eps0.1", "eps0.1-mask"])
    @pytest.mark.parametrize("kind, family", [("brier", "alpha_power"), ("spherical", "pseudo_spherical")])
    def test_token_losses_and_grads(self, kind, family, cfg):
        for Z, idx in random_batches(6):
            a = token_losses_and_grads(ScoreRule(kind), cfg, Z, idx)
            b = token_losses_and_grads(ScoreRule(family, 2.0), cfg, Z, idx)
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# Properties of every proper rule on random simplex points.
# ---------------------------------------------------------------------------

proper_rules = st.one_of(
    st.sampled_from([ScoreRule(k) for k, r in RULES.items() if r.proper and r.alpha is not None]),
    st.builds(ScoreRule, st.sampled_from(["alpha_power", "pseudo_spherical"]),
              st.floats(1.05, 4.0, allow_nan=False)),
)


@st.composite
def simplex_pairs(draw):
    """Two distributions over the same m outcomes, zeros allowed."""
    m = draw(st.integers(2, 12))
    weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=m, max_size=m)
    out = []
    for _ in range(2):
        w = np.array(draw(weights.filter(lambda ws: sum(ws) > 0)))
        out.append(w / w.sum())
    return out


PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(rule=proper_rules, pq=simplex_pairs())
def test_score_at_most_sup_so_objective_non_positive(rule, pq):
    p, _ = pq
    sup = RULES[rule.kind].sup
    assert (score_matrix(rule, p) <= sup + 1e-12).all()
    assert (normalized_objective_vector(rule, p) <= 1e-12).all()


@PROPERTY_SETTINGS
@given(rule=proper_rules, pq=simplex_pairs())
def test_expected_score_maximized_at_truth(rule, pq):
    p, q = pq
    assert expected_score(rule, q, q) >= expected_score(rule, p, q) - 1e-12


@PROPERTY_SETTINGS
@given(rule=proper_rules,
       cfg=st.sampled_from([NO_SMOOTHING, SmoothingConfig(0.1)]),
       z=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=12),
       shift=st.floats(-100.0, 100.0),
       data=st.data())
def test_token_losses_and_grads_shift_invariant(rule, cfg, z, shift, data):
    Z = np.array([z])
    idx = np.array([data.draw(st.integers(0, len(z) - 1))])
    losses, dZ = token_losses_and_grads(rule, cfg, Z, idx)
    shifted_losses, shifted_dZ = token_losses_and_grads(rule, cfg, Z + shift, idx)
    np.testing.assert_allclose(shifted_losses, losses, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(shifted_dZ, dZ, rtol=1e-6, atol=1e-9 * max(1.0, np.abs(dZ).max()))


# ---------------------------------------------------------------------------
# The training path at its numerical edges: logits near +-50 and observed
# probabilities inside the P_MIN clamp; and batching.
# ---------------------------------------------------------------------------

FD_STEP = 1e-4
training_configs = st.sampled_from([NO_SMOOTHING, SmoothingConfig(0.1), SmoothingConfig(0.1, mask_enhanced=True)])


@st.composite
def large_logits(draw):
    """Logits over m outcomes spanning about +-50, one of them at +-50, and an observed index."""
    m = draw(st.integers(2, 12))
    z = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=m, max_size=m)))
    z[draw(st.integers(0, m - 1))] = draw(st.sampled_from([-50.0, 50.0]))
    return z, draw(st.integers(0, m - 1))


@st.composite
def clamped_logits(draw):
    """Logits whose observed outcome has probability below P_MIN: its logit
    lies at least 28 below the largest other one, and e^-28 < 1e-12."""
    m = draw(st.integers(2, 12))
    z = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    i = draw(st.integers(0, m - 1))
    z[i] = np.delete(z, i).max() - draw(st.floats(28.0, 60.0))
    return z, i


def check_fd_gradient(rule, cfg, z, i):
    """Fourth-order central differences of the training loss against its
    analytic logit gradient, the under-smooth mask frozen at z."""
    m = z.size
    P = softmax_rows(z[None, :])
    # a step of 2h moves each log p_j by at most 2h: keep every p_j that far from the clamp's kink
    assume(np.all(np.abs(np.log(P) - np.log(P_MIN)) > 4 * FD_STEP))
    mask = P < cfg.eps / m if cfg.mask_enhanced else None
    _, dZ = token_losses_and_grads(rule, cfg, z[None, :], np.array([i]), mask_override=mask)
    steps = FD_STEP * np.eye(m)
    shifted = np.concatenate([z + steps, z - steps, z + 2.0 * steps, z - 2.0 * steps])
    masks = None if mask is None else np.broadcast_to(mask, shifted.shape)
    losses, _ = token_losses_and_grads(rule, cfg, shifted, np.full(4 * m, i), mask_override=masks)
    fp, fm, fp2, fm2 = losses.reshape(4, m)
    fd = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * FD_STEP)
    assert np.isfinite(dZ).all()
    np.testing.assert_allclose(fd, dZ[0], rtol=1e-6, atol=1e-8)
    return P


@PROPERTY_SETTINGS
@given(rule=proper_rules, cfg=training_configs, zi=large_logits())
def test_fd_gradient_at_large_logits(rule, cfg, zi):
    check_fd_gradient(rule, cfg, *zi)


@PROPERTY_SETTINGS
@given(rule=proper_rules, cfg=training_configs, zi=clamped_logits())
def test_fd_gradient_inside_the_clamp(rule, cfg, zi):
    z, i = zi
    assert check_fd_gradient(rule, cfg, z, i)[0, i] < P_MIN


@st.composite
def underflow_logits(draw):
    """Logits over m outcomes where up to m - 1 of them lie up to 800 below
    the rest, so their probabilities may be subnormal or 0; and an observed
    index, which may be one of those."""
    m = draw(st.integers(2, 12))
    z = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m)))
    far = draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1))
    for j in far:
        z[j] -= draw(st.floats(600.0, 800.0))
    return z, draw(st.integers(0, m - 1))


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(["alpha_power", "pseudo_spherical"]),
       alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       cfg=training_configs, zi=underflow_logits())
def test_finite_gradient_when_a_probability_underflows(kind, alpha, cfg, zi):
    z, i = zi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        losses, dZ = token_losses_and_grads(ScoreRule(kind, alpha), cfg, z[None, :], np.array([i]))
    assert np.isfinite(losses).all() and np.isfinite(dZ).all()
    assert (dZ[softmax_rows(z[None, :]) == 0.0] == 0.0).all()  # the P -> 0 limit
    assert abs(dZ.sum()) <= 1e-12 * max(1.0, np.abs(dZ).max())  # shift invariance survives


@PROPERTY_SETTINGS
@given(rule=proper_rules, cfg=training_configs, seed=st.integers(0, 2**16), n=st.integers(1, 48), data=st.data())
def test_mean_loss_independent_of_batching(rule, cfg, seed, n, data):
    params = init_params(ModelConfig(vocab_size=7, context=2, embed_dim=4, hidden_dim=8, seed=seed))
    gen = np.random.default_rng(seed)
    contexts, targets = gen.integers(0, 7, size=(n, 2)), gen.integers(0, 7, size=n)
    whole = loss_and_grads(params, contexts, targets, rule, cfg)[0]
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    chunked = sum((b - a) * loss_and_grads(params, contexts[a:b], targets[a:b], rule, cfg)[0]
                  for a, b in zip(bounds, bounds[1:])) / n
    singles = np.array([loss_and_grads(params, contexts[t : t + 1], targets[t : t + 1], rule, cfg)[0]
                        for t in range(n)])
    # fixed from float64 before looking: a mean of n terms summed in another order moves by at
    # most about n u mean|l|, and the BLAS products may round a row differently in each batch
    # size, which moves each l by a few u (logits and logit gradients are O(1) here)
    tol = 8 * n * np.finfo(np.float64).eps * (np.abs(singles).mean() + 1.0)
    assert abs(chunked - whole) <= tol
    assert abs(singles.mean() - whole) <= tol


# ---------------------------------------------------------------------------
# Byte-level parity with the explicit formulas at the training path's edges.
# ---------------------------------------------------------------------------

# the reference floors no probability at P_TINY, so for alpha < 2 it is the
# training path only where every probability is normal: those rules get no gap
EDGE_CONFIGS = [NO_SMOOTHING, SmoothingConfig(0.1), SmoothingConfig(0.1, mask_enhanced=True),
                SmoothingConfig(1.0), SmoothingConfig(1.0, mask_enhanced=True)]


@st.composite
def edge_batches(draw, gaps=True):
    """(Z, idx): B = 1..40 rows over m = 2..12 outcomes with logits in +-10.
    With gaps, some entries lie 745-800 below the rest of their row, past the
    gap where a probability underflows to 0 (one entry of each row stays);
    and some rows' observed outcome lies 28-60 below the largest other logit
    of its row, inside the P_MIN clamp (e^-28 < 1e-12)."""
    B, m = draw(st.integers(1, 40)), draw(st.integers(2, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = gen.uniform(-10.0, 10.0, (B, m))
    idx = gen.integers(0, m, B)
    rows = np.arange(B)
    inside = gen.random(B) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    others = Z.copy()
    others[rows, idx] = -np.inf
    Z[inside, idx[inside]] = others[inside].max(axis=1) - gen.uniform(28.0, 60.0, int(inside.sum()))
    if gaps:
        far = gen.random((B, m)) < draw(st.sampled_from([0.3, 0.7]))
        far[rows, gen.integers(0, m, B)] = False
        Z[far] -= gen.uniform(745.0, 800.0, int(far.sum()))
    return Z, idx


@PROPERTY_SETTINGS
@given(rule=st.sampled_from(ALL_RULES), cfg=st.sampled_from(EDGE_CONFIGS), data=st.data())
def test_token_losses_and_grads_bitwise_at_the_edges(rule, cfg, data):
    Z, idx = data.draw(edge_batches(gaps=rule.alpha >= 2.0))
    losses, dZ = token_losses_and_grads(rule, cfg, Z, idx)
    with np.errstate(divide="ignore"):
        ref_losses, ref_dZ = ref_token_losses_and_grads(rule, cfg, Z, idx)
    assert losses.tobytes() == ref_losses.tobytes()
    assert dZ.tobytes() == ref_dZ.tobytes()
    assert token_losses_and_grads(rule, cfg, Z, idx, losses=False)[1].tobytes() == dZ.tobytes()


# ---------------------------------------------------------------------------
# Held-out scores read from the rule table against the gradient path they
# replaced: the negated per-row training losses at eps = 0.
# ---------------------------------------------------------------------------


@st.composite
def scored_batches(draw):
    """(Z, idx, inside): N = 1..300 rows over m = 2..40 outcomes with logits
    up to +-50, and the rows whose observed outcome was pushed inside the
    P_MIN clamp (28-60 below the largest other logit, and e^-28 < 1e-12)."""
    n, m = draw(st.integers(1, 300)), draw(st.integers(2, 40))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = gen.uniform(-1.0, 1.0, (n, m)) * draw(st.sampled_from([0.5, 5.0, 50.0]))
    idx = gen.integers(0, m, n)
    inside = np.flatnonzero(gen.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0])))
    others = Z.copy()
    others[np.arange(n), idx] = -np.inf
    Z[inside, idx[inside]] = others[inside].max(axis=1) - gen.uniform(28.0, 60.0, inside.size)
    return Z, idx, inside


@PROPERTY_SETTINGS
@given(rule=proper_rules, batch=scored_batches())
def test_observed_scores_equal_the_gradient_path_bitwise(rule, batch):
    Z, idx, inside = batch
    P = softmax_rows(Z)
    assert (P[inside, idx[inside]] < P_MIN).all()
    got = RULES[rule.kind].clamped(P, P[np.arange(P.shape[0]), idx][:, None], rule.alpha)[:, 0]
    assert got.tobytes() == (-token_losses_and_grads(rule, NO_SMOOTHING, Z, idx)[0]).tobytes()
    # the clamped scores at the observed column are the clamped score matrix read at the observed outcome
    assert got.tobytes() == RULES[rule.kind].clamped(P, P, rule.alpha)[np.arange(P.shape[0]), idx].tobytes()


def score_bytes(scores):
    return {k: np.float64(v).tobytes() for k, v in scores.items()}


def ref_forward(params, contexts):
    """The logits of one forward of every row of contexts, as numpy writes it."""
    H = np.tanh(params.embed[contexts].reshape(contexts.shape[0], -1) @ params.w_hidden + params.b_hidden)
    return H @ params.w_out + params.b_out


HELD_OUT_BLOCK = 512  # the rows of one held-out forward, written out here


def blocked_logits(params, C):
    """ref_forward of C, HELD_OUT_BLOCK rows at a time, the blocks stacked."""
    return np.concatenate([ref_forward(params, C[lo : lo + HELD_OUT_BLOCK])
                           for lo in range(0, C.shape[0], HELD_OUT_BLOCK)])


def ref_evaluate_scores(params, contexts, targets, Z=None):
    """evaluate_scores as it was written on the gradient path, with the
    losses of the explicit formulas, on the logits Z (by default one
    forward of every position)."""
    if Z is None:
        Z = ref_forward(params, contexts)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = {field: float((-ref_token_losses_and_grads(rule, NO_SMOOTHING, Z, targets)[0]).mean())
                  for field, rule in SCORE_FIELDS.items()}
    scores["ppl"] = float(np.exp(-scores["score_log"]))
    return scores


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**16), n=st.integers(1, 300), V=st.integers(2, 40),
       scale=st.sampled_from([1.0, 5.0, 20.0]))
def test_evaluate_scores_equal_the_gradient_path_bitwise(seed, n, V, scale):
    # scale 20 puts logits near +-50 and many observed probabilities inside the clamp
    params = init_params(ModelConfig(vocab_size=V, context=2, embed_dim=4, hidden_dim=8, seed=seed))
    params.flat *= scale
    gen = np.random.default_rng(seed)
    contexts, targets = gen.integers(0, V, size=(n, 2)), gen.integers(0, V, size=n)
    got = evaluate_scores(params, contexts, targets)
    want = ref_evaluate_scores(params, contexts, targets, Z=scored_once_logits(params, contexts, targets))
    assert list(got) == [*SCORE_FIELDS, "ppl"]
    assert score_bytes(got) == score_bytes(want)


def scored_once_logits(params, contexts, targets):
    """Each position's logits from the blocked forward of its distinct
    contexts, in the order of their first position: the forward
    evaluate_scores makes."""
    first = {}
    for row in map(tuple, contexts.tolist()):
        first.setdefault(row, len(first))
    C = np.array(list(first), dtype=np.int64).reshape(len(first), contexts.shape[1])
    return blocked_logits(params, C)[[first[row] for row in map(tuple, contexts.tolist())]]


@st.composite
def held_out_sets(draw, layouts=("one", "few", "distinct")):
    """(params, contexts, targets): 1-3000 positions whose contexts are one
    context (at two or more positions), 2-8 contexts, or all distinct, with
    V on both sides of PAIRWISE_BLOCK and K in {1, 2, 8}.  Weights are
    scaled by up to 20, and outcome V - 1 may be pushed 32-45 below the
    rest, so many observed probabilities lie inside the P_MIN clamp."""
    layout = draw(st.sampled_from(layouts))
    V, K, d, h = (draw(st.sampled_from([2, 3, 6, 7, 8, 9, 35])), draw(st.sampled_from([1, 2, 8])),
                  draw(st.sampled_from([1, 4, 8, 32])), draw(st.sampled_from([1, 2, 16, 128])))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2 if layout == "one" else 1, 3000))
    n_ctx = min({"one": 1, "few": draw(st.integers(2, 8)), "distinct": n}[layout], V**K)
    codes = gen.choice(V**K, n_ctx, replace=False)
    distinct = codes[:, None] // V ** np.arange(K) % V
    contexts = distinct if layout == "distinct" else distinct[gen.integers(0, n_ctx, n)]
    targets = gen.integers(0, V, contexts.shape[0])
    params = init_params(ModelConfig(vocab_size=V, context=K, embed_dim=d, hidden_dim=h, seed=int(codes[0])))
    params.flat *= draw(st.sampled_from([1.0, 5.0, 20.0]))
    if draw(st.booleans()):
        params.b_out[-1] -= gen.uniform(32.0, 45.0)
    return params, contexts, targets


HELD_OUT_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@HELD_OUT_SETTINGS
@given(held=held_out_sets())
def test_evaluate_scores_score_each_distinct_context_once_bitwise(held):
    # at any shape: the full-row scores of the logits a forward of each distinct context gives, and
    # within a few ulps of a forward of every position, whose matrix product may round a row
    # otherwise at another row count (one row is a matrix-vector product; tolerance fixed from
    # float64 before looking)
    params, contexts, targets = held
    got = evaluate_scores(params, contexts, targets)
    want = ref_evaluate_scores(params, contexts, targets, Z=scored_once_logits(params, contexts, targets))
    assert score_bytes(got) == score_bytes(want)
    tol = 1024 * np.finfo(np.float64).eps
    full = ref_evaluate_scores(params, contexts, targets)
    assert all(np.isclose(got[k], full[k], rtol=tol, atol=tol) for k in got)


@HELD_OUT_SETTINGS
@given(held=held_out_sets(layouts=("distinct",)))
def test_evaluate_scores_are_the_blocked_forward_of_every_position_bitwise(held):
    # contexts that are all distinct are forwarded as they stand, in position order and in blocks:
    # the same products as a blocked forward of every position, so the same bytes on any BLAS
    params, contexts, targets = held
    want = ref_evaluate_scores(params, contexts, targets, Z=blocked_logits(params, contexts))
    assert score_bytes(evaluate_scores(params, contexts, targets)) == score_bytes(want)


PAIRED_SHAPE = dict(vocab_size=35, context=8, embed_dim=32, hidden_dim=128)  # the paired benchmark's model


def distinct_held_out(n_ctx, seed, repeats=0):
    """(params, contexts, targets) at the paired shape: n_ctx distinct
    contexts in shuffled order, then `repeats` positions drawn again from
    them, each position with a random target."""
    gen = np.random.default_rng(seed)
    V, K = PAIRED_SHAPE["vocab_size"], PAIRED_SHAPE["context"]
    codes = gen.choice(2**40, n_ctx, replace=False)
    C = codes[:, None] // V ** np.arange(K) % V
    contexts = np.concatenate([C, C[gen.integers(0, n_ctx, repeats)]])
    params = init_params(ModelConfig(**PAIRED_SHAPE, seed=seed))
    params.flat *= 5.0
    return params, contexts, gen.integers(0, V, contexts.shape[0])


def test_held_out_block_is_eval_rows():
    assert EVAL_ROWS == HELD_OUT_BLOCK


@pytest.mark.parametrize("n_ctx", [1, 511, 512, 513, 1025])
def test_evaluate_scores_are_the_blocked_forward_at_block_edges(n_ctx):
    # exact for the forward in blocks of EVAL_ROWS distinct contexts, and within 1e-12 of one
    # forward of every position
    params, contexts, targets = distinct_held_out(n_ctx, seed=n_ctx, repeats=n_ctx // 2 + 1)
    got = evaluate_scores(params, contexts, targets)
    want = ref_evaluate_scores(params, contexts, targets, Z=scored_once_logits(params, contexts, targets))
    assert score_bytes(got) == score_bytes(want)
    full = ref_evaluate_scores(params, contexts, targets)
    assert all(np.isclose(got[k], full[k], rtol=1e-12, atol=1e-12) for k in got)


def test_evaluate_scores_memory_does_not_hold_the_whole_input_layer():
    # 20,000 distinct contexts at the paired shape: their input layer alone is 41 MB, and the
    # (N, V) arrays of the scoring 5.6 MB each
    params, contexts, targets = distinct_held_out(20_000, seed=4)
    tracemalloc.start()
    try:
        evaluate_scores(params, contexts, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


def test_distinct_pairs_split_the_positions():
    contexts = np.array([[3, 1], [0, 2], [3, 1], [0, 2], [3, 1], [5, 5]])
    targets = np.array([4, 4, 0, 4, 4, 1])
    C, pair_row, pair_target, position_pair = distinct_pairs(contexts, targets)
    assert C.tolist() == [[3, 1], [0, 2], [5, 5]]  # in the order of their first position
    assert pair_row.size == pair_target.size == 4
    assert (C[pair_row[position_pair]] == contexts).all() and (pair_target[position_pair] == targets).all()
    C, pair_row, pair_target, position_pair = distinct_pairs(contexts[[0, 2, 4]], targets[[0, 2, 4]])
    assert C.tolist() == [[3, 1]] and pair_row.tolist() == [0, 0]  # one context, one row
    assert pair_target.tolist() == [0, 4] and position_pair.tolist() == [1, 0, 1]


def test_evaluate_scores_split_a_part_changed_in_place_again():
    params, contexts, targets = next(outcome_batches(9, seed=5))
    evaluate_scores(params, contexts, targets)
    contexts[::2], targets[1] = contexts[0], (targets[1] + 1) % 9
    want = ref_evaluate_scores(params, contexts, targets, Z=scored_once_logits(params, contexts, targets))
    assert score_bytes(evaluate_scores(params, contexts, targets)) == score_bytes(want)


@pytest.mark.parametrize("bad", [-1, -3, 9])
@pytest.mark.parametrize("where", ["target", "context"])
def test_evaluate_scores_refuses_an_id_out_of_the_vocabulary(where, bad):
    # a negative context id would otherwise be read counted from the end of the embedding table
    params, contexts, targets = next(outcome_batches(9, seed=3))
    (targets if where == "target" else contexts[:, 1])[5] = bad
    with pytest.raises(InvalidInputError, match=f"^token id {bad} out of range for vocab size 9$"):
        evaluate_scores(params, contexts, targets)


# ---------------------------------------------------------------------------
# Reductions over the outcome axis: row_sum and row_max in place against
# numpy's reductions of a row-major copy, on both sides of PAIRWISE_BLOCK.
# ---------------------------------------------------------------------------

PROPER_RULES = [r for r in ALL_RULES if RULES[r.kind].proper]


def numpy_reductions():
    """row_sum and row_max, wherever the rule path calls them, as numpy's
    reductions of a row-major copy."""
    stack = contextlib.ExitStack()
    for module in (simplex, scores_mod):
        stack.enter_context(mock.patch.object(
            module, "row_sum", lambda A: np.ascontiguousarray(A).sum(axis=-1, keepdims=True)))
    stack.enter_context(mock.patch.object(
        simplex, "row_max", lambda A: np.ascontiguousarray(A).max(axis=-1, keepdims=True)))
    return stack


def outcome_batches(m, seed):
    """(params, contexts, targets) over a vocabulary of m with 300, 150 and 7
    positions, at weight scales 1, 20 (many probabilities inside the clamp) and 5."""
    for n, scale in ((300, 1.0), (150, 20.0), (7, 5.0)):
        params = init_params(ModelConfig(vocab_size=m, context=2, embed_dim=4, hidden_dim=8, seed=seed + n))
        params.flat *= scale
        gen = np.random.default_rng(seed + n)
        yield params, gen.integers(0, m, size=(n, 2)), gen.integers(0, m, size=n)


@pytest.mark.parametrize("cfg", CONFIGS, ids=["eps0", "eps0.1", "eps0.1-mask"])
@pytest.mark.parametrize("rule", PROPER_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
def test_loss_and_grads_equal_numpy_reductions_bitwise(rule, cfg):
    for m in range(2, 13):
        for params, contexts, targets in outcome_batches(m, seed=m):
            loss, grads = loss_and_grads(params, contexts, targets, rule, cfg)
            with numpy_reductions():
                ref_loss, ref_grads = loss_and_grads(params, contexts, targets, rule, cfg)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grads.flat.tobytes() == ref_grads.flat.tobytes()


def test_evaluate_scores_equal_numpy_reductions_bitwise():
    for m in range(2, 13):
        for params, contexts, targets in outcome_batches(m, seed=100 + m):
            got = evaluate_scores(params, contexts, targets)
            with numpy_reductions():
                want = evaluate_scores(params, contexts, targets)
            assert score_bytes(got) == score_bytes(want)


# ---------------------------------------------------------------------------
# Layout guard: narrow rows are kept outcome-major and dZ comes back
# row-major, and the training step and held-out scores are, byte for byte,
# a frozen row-major reference's: softmax on numpy's own reductions and the
# explicit formulas above.
# ---------------------------------------------------------------------------

GUARD_WIDTHS = [2, 6, 7, 8, 35]  # both sides of PAIRWISE_BLOCK, the markov and the paired vocabularies


def guard_batches(m, gaps):
    """(params, contexts, targets) over a vocabulary of m at 512 and 287
    positions, a full and a tail batch.  An output bias puts outcome m - 1
    32-45 below the rest, so every row observing it lies inside the P_MIN
    clamp; with gaps another puts outcome 0 800-840 below, so more than 745
    below every other outcome, where its probability underflows to 0.  At
    m = 2 that would leave outcome 1 at probability 1 and every gradient 0,
    so there outcome 0 goes 420-440 below: 375-408 below outcome 1, where its
    probability stays a normal number but its square underflows to 0."""
    gen = np.random.default_rng(m)
    for n in (512, 287):
        params = init_params(ModelConfig(vocab_size=m, context=2, embed_dim=4, hidden_dim=8, seed=n + m))
        params.b_out[-1] -= gen.uniform(32.0, 45.0)
        if gaps:
            params.b_out[0] -= gen.uniform(420.0, 440.0) if m == 2 else gen.uniform(800.0, 840.0)
        yield params, gen.integers(0, m, size=(n, 2)), gen.integers(0, m, size=n)


def row_major_reference():
    """loss_and_grads with ref_token_losses_and_grads as its rule part, its
    dZ divided by the n positions the step takes the mean over."""
    def reference(rule, cfg, Z, idx, n, losses=True, index=None):
        with np.errstate(divide="ignore"):
            ref_losses, ref_dZ = ref_token_losses_and_grads(rule, cfg, Z, idx)
        return ref_losses, ref_dZ / n
    return mock.patch.object(model_mod, "_token_losses_and_grads", reference)


@pytest.mark.parametrize("m", GUARD_WIDTHS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=["eps0", "eps0.1", "eps0.1-mask"])
@pytest.mark.parametrize("rule", PROPER_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
def test_step_is_the_row_major_reference_bitwise(rule, cfg, m):
    # the reference floors no probability at P_TINY: rules with alpha < 2 get no underflow gap
    for params, contexts, targets in guard_batches(m, gaps=rule.alpha >= 2.0):
        Z = ref_forward(params, contexts)
        P = softmax_rows(Z)
        assert (P.flags.f_contiguous, P.flags.c_contiguous) == ((True, False) if m < PAIRWISE_BLOCK else (False, True))
        losses, dZ = token_losses_and_grads(rule, cfg, Z, targets)
        with np.errstate(divide="ignore"):
            ref_losses, ref_dZ = ref_token_losses_and_grads(rule, cfg, Z, targets)
        assert dZ.flags.c_contiguous
        assert losses.tobytes() == ref_losses.tobytes() and dZ.tobytes() == ref_dZ.tobytes()
        loss, grads = loss_and_grads(params, contexts, targets, rule, cfg)
        with row_major_reference():
            ref_loss, ref_grads = loss_and_grads(params, contexts, targets, rule, cfg)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()


@pytest.mark.parametrize("m", GUARD_WIDTHS)
def test_evaluate_scores_is_the_row_major_reference_bitwise(m):
    for params, contexts, targets in guard_batches(m, gaps=True):
        got = evaluate_scores(params, contexts, targets)
        want = ref_evaluate_scores(params, contexts, targets, Z=scored_once_logits(params, contexts, targets))
        assert score_bytes(got) == score_bytes(want)


@pytest.mark.parametrize("m", GUARD_WIDTHS)
def test_observed_outcome_out_of_range_is_refused(m):
    # on either layout: an outcome past the row is never read from another row
    Z, idx = np.random.default_rng(m).normal(size=(5, m)), np.zeros(5, dtype=np.int64)
    for bad in (m, m + 3):
        idx[2] = bad
        with pytest.raises(IndexError):
            token_losses_and_grads(ScoreRule("logarithmic"), NO_SMOOTHING, Z, idx)


class ColumnRead(Exception):
    pass


def refusing(kind, *columns):
    """RULES[kind] with each named column raising ColumnRead when called."""
    def refuse(*args):
        raise ColumnRead
    return dataclasses.replace(RULES[kind], **{column: refuse for column in columns})


def refusing_full_scores(kind):
    """RULES[kind] with value refused, and clamped refused unless p is a (B, 1) column."""
    clamped = RULES[kind].clamped

    def observed_only(P, p, a):
        if p.shape != (P.shape[0], 1):
            raise ColumnRead
        return clamped(P, p, a)
    return dataclasses.replace(refusing(kind, "value"), clamped=observed_only)


@pytest.mark.parametrize("kind", KINDS)
def test_unsmoothed_path_never_forms_the_gradient_sum(kind, monkeypatch):
    monkeypatch.setitem(RULES, kind, refusing(kind, "grad_sum"))
    rule = ScoreRule(kind, 1.5 if RULES[kind].alpha is None else RULES[kind].alpha)
    Z, idx = next(random_batches(9))
    token_losses_and_grads(rule, NO_SMOOTHING, Z, idx)
    with pytest.raises(ColumnRead):  # smoothing reads it
        token_losses_and_grads(rule, SmoothingConfig(0.1), Z, idx)


@pytest.mark.parametrize("cfg", EDGE_CONFIGS, ids=lambda c: f"eps{c.eps}{'-mask' if c.mask_enhanced else ''}")
@pytest.mark.parametrize("kind", KINDS)
def test_losses_off_form_no_score(kind, cfg, monkeypatch):
    rule = ScoreRule(kind, 1.5 if RULES[kind].alpha is None else RULES[kind].alpha)
    Z, idx = next(random_batches(10))
    want = token_losses_and_grads(rule, cfg, Z, idx)[1]
    monkeypatch.setitem(RULES, kind, refusing(kind, "value", "clamped"))
    losses, dZ = token_losses_and_grads(rule, cfg, Z, idx, losses=False)
    assert losses is None and dZ.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_unsmoothed_loss_forms_only_the_observed_scores(kind, monkeypatch):
    rule = ScoreRule(kind, 1.5 if RULES[kind].alpha is None else RULES[kind].alpha)
    Z, idx = next(random_batches(11))
    monkeypatch.setitem(RULES, kind, refusing_full_scores(kind))
    token_losses_and_grads(rule, NO_SMOOTHING, Z, idx)
    with pytest.raises(ColumnRead):  # smoothing sums the scores of every outcome
        token_losses_and_grads(rule, SmoothingConfig(0.1), Z, idx)


def test_evaluate_scores_gather_one_observed_column_of_distinct_pairs(monkeypatch):
    # every reported rule scores the one observed column, one entry per distinct (context, target)
    # pair; none forms the score of an unobserved outcome
    columns = []
    for rule in SCORE_FIELDS.values():
        refused = refusing_full_scores(rule.kind)

        def spy(P, p, a, clamped=refused.clamped):
            columns.append(p)
            return clamped(P, p, a)
        monkeypatch.setitem(RULES, rule.kind, dataclasses.replace(refused, clamped=spy))
    params, contexts, targets = next(outcome_batches(9, seed=3))
    contexts[::2] = contexts[0]  # half the positions share one context
    evaluate_scores(params, contexts, targets)
    assert len(columns) == len(SCORE_FIELDS) and all(p is columns[0] for p in columns)
    pairs = {(*row, t) for row, t in zip(contexts.tolist(), targets.tolist())}
    assert len(pairs) < targets.size and columns[0].shape == (len(pairs), 1)
