import warnings

import numpy as np
import pytest

from scorelm.errors import ConfigurationError, InvalidInputError, ParameterDomainError
from scorelm.scores import (
    NO_SMOOTHING,
    ScoreRule,
    SmoothingConfig,
    entmax_power_equivalence_gap,
    expected_score,
    score,
    score_vector,
    smoothed_score,
    token_losses_and_grads,
)
from scorelm.simplex import smooth_distribution, softmax

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


def row_loss(rule, cfg, z, i):
    """The training loss of one logit row z at observed outcome i."""
    return float(token_losses_and_grads(rule, cfg, np.asarray(z, dtype=float)[None, :], [i])[0][0])


def row_gradient(rule, cfg, z, i):
    """The logit gradient of row_loss."""
    return token_losses_and_grads(rule, cfg, np.asarray(z, dtype=float)[None, :], [i], losses=False)[1][0]


def fd_gradient(rule, cfg, z, i, h=1e-5):
    g = np.zeros_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        g[k] = (row_loss(rule, cfg, zp, i) - row_loss(rule, cfg, zm, i)) / (2 * h)
    return g


class TestScoreRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterDomainError):
            ScoreRule("quadratic")

    @pytest.mark.parametrize("kind", ["alpha_power", "pseudo_spherical"])
    def test_alpha_domain(self, kind):
        with pytest.raises(ParameterDomainError):
            ScoreRule(kind, 1.0)
        ScoreRule(kind, 1.01)  # boundary ok

    @pytest.mark.parametrize("kind", ["alpha_power", "pseudo_spherical"])
    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_alpha_must_be_finite(self, kind, alpha):
        with pytest.raises(ParameterDomainError, match=f"{kind} requires a finite alpha > 1, got {alpha}"):
            ScoreRule(kind, alpha)

    @pytest.mark.parametrize("kind", ["logarithmic", "brier", "spherical", "linear"])
    def test_alpha_pinned_to_two(self, kind):
        for alpha in (3.0, 1.5):
            with pytest.raises(ParameterDomainError, match=f"{kind}.*{alpha}"):
                ScoreRule(kind, alpha)
        assert ScoreRule(kind, 2.0) == ScoreRule(kind)

    def test_eps_domain(self):
        with pytest.raises(ParameterDomainError):
            SmoothingConfig(-0.01)
        with pytest.raises(ParameterDomainError):
            SmoothingConfig(1.01)

    def test_mask_enhancement_needs_eps(self):
        with pytest.raises(ConfigurationError, match="mask enhancement needs eps > 0"):
            SmoothingConfig(0.0, mask_enhanced=True)


class TestScore:
    def test_brier_uniform(self):
        p = np.full(4, 0.25)
        for i in range(4):
            assert score(ScoreRule("brier"), p, i) == pytest.approx(0.25)

    def test_spherical_perfect_prediction(self):
        p = np.zeros(5)
        p[3] = 1.0
        assert score(ScoreRule("spherical"), p, 3) == pytest.approx(1.0)

    def test_pseudo_spherical_uniform(self):
        # closed form for uniform p: m^(-(alpha-1)/alpha)
        p = np.full(4, 0.25)
        assert score(ScoreRule("pseudo_spherical", 3.0), p, 2) == pytest.approx(4.0 ** (-2 / 3))

    def test_logarithmic_zero_probability_is_neg_inf(self):
        assert score(ScoreRule("logarithmic"), [1.0, 0.0], 1) == float("-inf")

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            score(ScoreRule("brier"), [0.5, 0.5], 2)
        with pytest.raises(InvalidInputError):
            score(ScoreRule("brier"), [0.5, 0.5], -1)

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, np.True_, np.float64(1.0), [1], np.array([1]), "1"],
                             ids=["float", "integral-float", "bool", "numpy-bool", "numpy-float", "list",
                                  "array", "str"])
    @pytest.mark.parametrize("call", [
        lambda i: score(ScoreRule("brier"), [0.2, 0.8], i),
        lambda i: smoothed_score(ScoreRule("brier"), SmoothingConfig(0.1), [0.2, 0.8], i),
        lambda i: entmax_power_equivalence_gap(np.array([0.3, 0.1]), i, 1.5),
    ], ids=["score", "smoothed_score", "entmax_gap"])
    def test_outcome_that_is_no_integer_refused(self, call, bad):
        # int() would read each of these as outcome 1
        with pytest.raises(InvalidInputError, match=r"^observed outcome must be an integer, got .* for m=2$"):
            call(bad)

    @pytest.mark.parametrize("i", [1, np.int64(1), np.int8(1), np.uint32(1)], ids=["int", "int64", "int8", "uint32"])
    def test_integer_outcomes_of_any_kind_taken(self, i):
        assert score(ScoreRule("brier"), [0.2, 0.8], i) == score(ScoreRule("brier"), [0.2, 0.8], 1)

    def test_special_case_collapse_alpha2(self):
        # alpha_power(2) == brier, pseudo_spherical(2) == spherical pointwise
        gen = np.random.default_rng(0)
        for _ in range(50):
            p = gen.dirichlet(np.ones(int(gen.integers(2, 10))))
            ap = score_vector(ScoreRule("alpha_power", 2.0), p)
            ps = score_vector(ScoreRule("pseudo_spherical", 2.0), p)
            assert np.abs(ap - score_vector(ScoreRule("brier"), p)).max() < 1e-12
            assert np.abs(ps - score_vector(ScoreRule("spherical"), p)).max() < 1e-12

    def test_boundedness(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            p = gen.dirichlet(np.full(int(gen.integers(2, 16)), 0.3))
            b = score_vector(ScoreRule("brier"), p)
            s = score_vector(ScoreRule("spherical"), p)
            assert (b >= -1 - 1e-12).all() and (b <= 1 + 1e-12).all()
            assert (s >= -1e-12).all() and (s <= 1 + 1e-12).all()

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_argmax_invariance(self, rule):
        # the observation-dependent part of every rule is monotone in p_i
        gen = np.random.default_rng(2)
        for _ in range(20):
            p = gen.dirichlet(np.ones(6))
            if np.sum(p == p.max()) > 1:
                continue
            assert np.argmax(score_vector(rule, p)) == np.argmax(p)
            for eps in (0.1, 0.5):
                vals = [smoothed_score(rule, SmoothingConfig(eps), p, i) for i in range(6)]
                assert np.argmax(vals) == np.argmax(p)


class TestExpectedScore:
    def setup_method(self):
        self.q = np.zeros(100)
        self.q[0] = 1.0
        self.q_eps = smooth_distribution(self.q, 0.1)

    def test_reference_values(self):
        assert expected_score(ScoreRule("brier"), self.q, self.q_eps) == pytest.approx(0.8020, abs=5e-5)
        assert expected_score(ScoreRule("spherical"), self.q_eps, self.q_eps) == pytest.approx(0.9011, abs=5e-5)
        assert expected_score(ScoreRule("logarithmic"), self.q, self.q_eps) == float("-inf")

    def test_zero_weight_kills_neg_inf(self):
        # q_i = 0 entries contribute nothing even where S = -inf
        val = expected_score(ScoreRule("logarithmic"), [1.0, 0.0], [1.0, 0.0])
        assert val == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            expected_score(ScoreRule("brier"), [0.5, 0.5], [0.3, 0.3, 0.4])


class TestSmoothedScore:
    def test_eps_zero_identity(self):
        rule = ScoreRule("spherical")
        p = np.array([0.6, 0.3, 0.1])
        for i in range(3):
            assert smoothed_score(rule, SmoothingConfig(0.0), p, i) == score(rule, p, i)

    def test_eps_one_is_uniform_average(self):
        rule = ScoreRule("brier")
        p = np.array([0.6, 0.3, 0.1])
        avg = score_vector(rule, p).mean()
        for i in range(3):
            assert smoothed_score(rule, SmoothingConfig(1.0), p, i) == pytest.approx(avg)

    def test_brier_hand_example(self):
        # S(p,0)=0.82, S(p,1)=0.02 -> 0.5*0.82 + 0.25*0.84 = 0.62
        val = smoothed_score(ScoreRule("brier"), SmoothingConfig(0.5), [0.7, 0.3], 0)
        assert val == pytest.approx(0.62)

    def test_expected_smoothed_identity(self):
        # sum_i q_i S^eps(p, i) == S(p, q^eps)
        gen = np.random.default_rng(3)
        for rule in ALL_RULES:
            for _ in range(10):
                m = int(gen.integers(2, 8))
                p = gen.dirichlet(np.ones(m))
                q = gen.dirichlet(np.ones(m))
                eps = float(gen.uniform(0.01, 0.99))
                cfg = SmoothingConfig(eps)
                lhs = sum(q[i] * smoothed_score(rule, cfg, p, i) for i in range(m))
                rhs = expected_score(rule, p, smooth_distribution(q, eps))
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMaskedLogSmoothedScore:
    def test_empty_mask_equals_smoothed(self):
        rule = ScoreRule("brier")
        p = np.array([0.4, 0.35, 0.25])  # all entries >= eps/m = 0.1/3
        cfg = SmoothingConfig(0.1, True)
        for i in range(3):
            assert smoothed_score(rule, cfg, p, i) == smoothed_score(rule, SmoothingConfig(0.1), p, i)

    def test_one_masked_entry_hand_example(self):
        # threshold 0.1 masks p_1 = 0.05: adds (0.2/2) ln 0.05 = -0.29957
        rule = ScoreRule("brier")
        sm = smoothed_score(rule, SmoothingConfig(0.2), [0.95, 0.05], 0)
        ml = smoothed_score(rule, SmoothingConfig(0.2, True), [0.95, 0.05], 0)
        assert ml == pytest.approx(sm + 0.1 * np.log(0.05))
        assert ml == pytest.approx(sm - 0.29957, abs=5e-6)

    def test_zero_entry_below_threshold(self):
        val = smoothed_score(ScoreRule("brier"), SmoothingConfig(0.2, True), [1.0, 0.0], 0)
        assert val == float("-inf")

    def test_eps_zero_config_error(self):
        with pytest.raises(ConfigurationError):
            smoothed_score(ScoreRule("brier"), SmoothingConfig(0.0, True), [0.5, 0.5], 0)

    def test_dominance(self):
        # masked variant never exceeds the smoothed score; equality iff empty mask
        gen = np.random.default_rng(4)
        for rule in ALL_RULES:
            for _ in range(20):
                m = int(gen.integers(2, 8))
                p = gen.dirichlet(np.full(m, 0.4))
                eps = float(gen.uniform(0.05, 0.5))
                q = gen.dirichlet(np.ones(m))
                sm = sum(q[i] * smoothed_score(rule, SmoothingConfig(eps), p, i) for i in range(m))
                ml = sum(
                    q[i] * smoothed_score(rule, SmoothingConfig(eps, True), p, i)
                    for i in range(m)
                )
                assert ml <= sm + 1e-12
                if not (p < eps / m).any():
                    assert ml == pytest.approx(sm, abs=1e-12)


class TestLossGradients:
    def test_logarithmic_closed_form(self):
        g = row_gradient(ScoreRule("logarithmic"), NO_SMOOTHING, np.zeros(4), 2)
        assert np.allclose(g, [0.25, 0.25, -0.75, 0.25], atol=1e-12)
        gen = np.random.default_rng(5)
        z = gen.normal(size=7)
        g = row_gradient(ScoreRule("logarithmic"), NO_SMOOTHING, z, 3)
        e = np.zeros(7)
        e[3] = 1.0
        assert np.allclose(g, softmax(z) - e, atol=1e-12)

    def test_brier_stationary_at_saturation(self):
        z = np.zeros(5)
        z[1] = 40.0
        g = row_gradient(ScoreRule("brier"), NO_SMOOTHING, z, 1)
        assert np.abs(g).max() < 1e-8

    def test_saturated_logits_no_nan(self):
        z = np.zeros(8)
        z[0] = 30.0
        for rule in ALL_RULES:
            for cfg in (NO_SMOOTHING, SmoothingConfig(0.1)):
                g = row_gradient(rule, cfg, z, 0)
                assert np.isfinite(g).all()

    @pytest.mark.parametrize("kind", ["alpha_power", "pseudo_spherical"])
    def test_underflowed_probability_gives_finite_gradient(self, kind):
        # p_1 = e^-800 underflows to 0; P ** (alpha - 2) there made 0 * inf = nan in the softmax chain
        rule, cfg = ScoreRule(kind, 1.5), SmoothingConfig(0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses, dZ = token_losses_and_grads(rule, cfg, [[0, -800, 3]], [0])
            _, near = token_losses_and_grads(rule, cfg, [[0, -700, 3]], [0])
        assert np.isfinite(losses).all() and np.isfinite(dZ).all()
        assert dZ[0, 1] == 0.0  # the P -> 0 limit of -p (v - <p, v>)
        np.testing.assert_allclose(dZ, near, rtol=1e-12, atol=1e-150)  # continuous into the underflow

    def test_spherical_smoothed_fd(self):
        gen = np.random.default_rng(6)
        rule = ScoreRule("spherical")
        cfg = SmoothingConfig(0.1)
        for _ in range(10):
            z = gen.normal(size=8)
            i = int(gen.integers(8))
            an = row_gradient(rule, cfg, z, i)
            f = fd_gradient(rule, cfg, z, i)
            sel = np.abs(an) > 1e-8
            assert np.abs((f[sel] - an[sel]) / an[sel]).max() < 1e-4

    @pytest.mark.parametrize("rule", ALL_RULES)
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_fd_all_rules(self, rule, eps):
        gen = np.random.default_rng([ALL_RULES.index(rule), int(eps * 10)])
        cfg = SmoothingConfig(eps)
        for m in (2, 8):
            z = gen.normal(size=m)
            i = int(gen.integers(m))
            an = row_gradient(rule, cfg, z, i)
            f = fd_gradient(rule, cfg, z, i)
            sel = np.abs(an) > 1e-8
            if sel.any():
                assert np.abs((f[sel] - an[sel]) / an[sel]).max() < 1e-4

    def test_masked_variant_fd_with_frozen_mask(self):
        # indicator is stop-gradient: freeze the mask at the center point
        gen = np.random.default_rng(7)
        rule = ScoreRule("brier")
        cfg = SmoothingConfig(0.3, mask_enhanced=True)
        for _ in range(10):
            z = gen.normal(scale=2.0, size=6)
            i = int(gen.integers(6))
            mask = (softmax(z) < cfg.eps / 6)[None, :]
            one = np.array([i])
            _, dZ = token_losses_and_grads(rule, cfg, z[None, :], one, mask_override=mask)
            an = dZ[0]
            h = 1e-5
            f = np.zeros(6)
            for k in range(6):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                lp, _ = token_losses_and_grads(rule, cfg, zp[None, :], one, mask_override=mask)
                lm, _ = token_losses_and_grads(rule, cfg, zm[None, :], one, mask_override=mask)
                f[k] = (float(lp[0]) - float(lm[0])) / (2 * h)
            sel = np.abs(an) > 1e-8
            assert np.abs((f[sel] - an[sel]) / an[sel]).max() < 1e-4


class TestEntmaxPowerEquivalence:
    def test_in_support_gap_tiny(self):
        gen = np.random.default_rng(8)
        seen = 0
        while seen < 30:
            z = gen.normal(size=12)
            x = int(gen.integers(12))
            gap, in_support = entmax_power_equivalence_gap(z, x, 2.0)
            if in_support:
                seen += 1
                assert gap < 1e-8

    def test_uniform_logits_full_support(self):
        gap, in_support = entmax_power_equivalence_gap(np.full(5, 2.0), 3, 1.5)
        assert in_support and gap < 1e-8

    def test_out_of_support_flagged(self):
        gap, in_support = entmax_power_equivalence_gap(np.array([10.0, 0.0]), 1, 2.0)
        assert not in_support  # gap reported but carries no claim

    def test_alpha_domain(self):
        with pytest.raises(ParameterDomainError):
            entmax_power_equivalence_gap(np.zeros(3), 0, 1.0)
