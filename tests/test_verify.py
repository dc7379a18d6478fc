import numpy as np
import pytest

from scorelm.errors import ParameterDomainError
from scorelm.scores import ScoreRule, SmoothingConfig, token_losses_and_grads
from scorelm.simplex import softmax
from scorelm.verify import (
    entmax_sweep,
    grad_check,
    propriety_scan,
    simplex_grid,
    smoothing_propriety_scan,
    table1_check,
)

Q3 = [np.array([1.0, 0.0, 0.0]), np.full(3, 1 / 3), np.array([0.5, 0.3, 0.2])]


class TestSimplexGrid:
    def test_point_count_m3(self):
        assert simplex_grid(3, 0.02).shape == (1326, 3)

    def test_point_count_m2(self):
        g = simplex_grid(2, 0.05)
        assert g.shape == (21, 2)
        assert np.allclose(g.sum(axis=1), 1.0)

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            simplex_grid(4, 0.02)
        with pytest.raises(ParameterDomainError):
            simplex_grid(3, 0.1)  # too coarse
        with pytest.raises(ParameterDomainError):
            simplex_grid(3, 0.0005)  # too many points


class TestProprietyScan:
    def test_brier_proper_at_interior_q(self):
        report = propriety_scan(ScoreRule("brier"), 3, 0.02, [np.array([0.5, 0.3, 0.2])])
        res = report["results"][0]
        assert report["pass"] and res["pass"]
        assert np.allclose(res["argmax_cell"], [0.5, 0.3, 0.2])
        assert res["margin"] > 0

    def test_linear_improper(self):
        report = propriety_scan(ScoreRule("linear"), 2, 0.02, [np.array([0.6, 0.4])])
        res = report["results"][0]
        assert not res["pass"]
        assert np.allclose(res["argmax_cell"], [1.0, 0.0])  # mode vertex, not q

    @pytest.mark.parametrize("kind", ["logarithmic", "brier", "spherical"])
    def test_vertex_q(self, kind):
        report = propriety_scan(ScoreRule(kind), 3, 0.02, [np.array([0.0, 1.0, 0.0])])
        res = report["results"][0]
        assert res["pass"]
        assert np.allclose(res["argmax_cell"], [0.0, 1.0, 0.0])

    def test_uniform_q_tied_cells(self):
        # uniform q is off-grid at step 0.02; its nearest cells tie by symmetry
        report = propriety_scan(ScoreRule("brier"), 3, 0.02, [np.full(3, 1 / 3)])
        res = report["results"][0]
        assert res["pass"]
        assert res["n_maximizers"] >= 1

    def test_report_recomputable_fields(self):
        report = propriety_scan(ScoreRule("spherical"), 3, 0.02, Q3)
        for res in report["results"]:
            assert {"q", "argmax_cell", "margin", "pass", "max_value"} <= set(res)


class TestSmoothingScan:
    def test_brier_one_hot(self):
        report = smoothing_propriety_scan(ScoreRule("brier"), 0.1, 3, 0.02, [np.array([1.0, 0.0, 0.0])])
        res = report["results"][0]
        assert res["pass"] and res["dominance"] and res["equality_at_q_eps"]
        assert np.allclose(res["q_eps"], [0.9 + 0.1 / 3, 0.1 / 3, 0.1 / 3])
        # the maximizer sits in a cell adjacent to q_eps
        assert np.abs(np.asarray(res["argmax_cell"]) - np.asarray(res["q_eps"])).max() < 0.02

    @pytest.mark.parametrize("kind", ["brier", "spherical"])
    def test_full_q_set(self, kind):
        report = smoothing_propriety_scan(ScoreRule(kind), 0.1, 3, 0.02, Q3)
        assert report["pass"]

    def test_eps_domain(self):
        for eps in (0.0, 1.0):
            with pytest.raises(ParameterDomainError):
                smoothing_propriety_scan(ScoreRule("brier"), eps, 3, 0.02, Q3)


class TestTable1:
    def test_reference_values(self):
        report = table1_check()
        assert report["pass"]
        v = report["values"]
        assert v["logarithmic"]["p=q"] == float("-inf")
        assert round(v["logarithmic"]["p=q_eps"], 4) == -0.7778
        assert round(v["brier"]["p=q"], 4) == 0.8020
        assert round(v["brier"]["p=q_eps"], 4) == 0.8119
        assert round(v["spherical"]["p=q"], 4) == 0.9010
        assert round(v["spherical"]["p=q_eps"], 4) == 0.9011


class TestGradCheck:
    def test_logarithmic_closed_form_accuracy(self):
        report = grad_check(ScoreRule("logarithmic"), SmoothingConfig(0.0), 8, 20, 1e-5)
        assert report["max_rel_error"] < 1e-6

    def test_h_domain(self):
        with pytest.raises(ParameterDomainError):
            grad_check(ScoreRule("brier"), SmoothingConfig(0.0), 4, 5, 1e-2)

    def test_skip_accounting(self):
        report = grad_check(ScoreRule("brier"), SmoothingConfig(0.0), 8, 10, 1e-5)
        assert report["checked"] + report["skipped"] == 80
        assert np.isfinite(report["max_rel_error"])

    def test_second_order_truncation_seed(self):
        # second-order differences miss by 4.6e-4 here: their O(h^2) truncation error
        # is as large as gradients just above the 1e-8 skip threshold
        report = grad_check(ScoreRule("alpha_power", 2.5), SmoothingConfig(0.0), 8, 100, 1e-4, seed=1466597378)
        assert report["max_rel_error"] < 1e-4

    def test_masked_config(self):
        report = grad_check(ScoreRule("spherical"), SmoothingConfig(0.2, True), 8, 20, 1e-5)
        assert report["max_rel_error"] < 1e-4


def grad_check_single_rows(rule, cfg, m, trials, h, seed):
    """Reference: one token_losses_and_grads call per perturbed logit row,
    with the fourth-order stencil (8 (f(z+h) - f(z-h)) - (f(z+2h) - f(z-2h))) / 12h."""
    gen = np.random.default_rng(seed)
    max_rel, checked, skipped = 0.0, 0, 0
    for _ in range(trials):
        z = gen.normal(size=m)
        one = np.array([int(gen.integers(m))])
        mask = (softmax(z) < cfg.eps / m)[None, :] if cfg.mask_enhanced else None
        analytic = token_losses_and_grads(rule, cfg, z[None, :], one, mask_override=mask)[1][0]
        for k in range(m):
            f = {}
            for c in (1.0, -1.0, 2.0, -2.0):
                zc = z.copy()
                zc[k] += c * h
                f[c] = float(token_losses_and_grads(rule, cfg, zc[None, :], one, mask_override=mask)[0][0])
            if abs(analytic[k]) <= 1e-8:
                skipped += 1
                continue
            checked += 1
            fd = (8.0 * (f[1.0] - f[-1.0]) - (f[2.0] - f[-2.0])) / (12.0 * h)
            max_rel = max(max_rel, abs(fd - analytic[k]) / abs(analytic[k]))
    return max_rel, checked, skipped


class TestGradCheckStacked:
    @pytest.mark.parametrize("rule,cfg,m", [
        (ScoreRule("logarithmic"), SmoothingConfig(0.0), 8),
        (ScoreRule("alpha_power", 1.5), SmoothingConfig(0.1), 32),
        (ScoreRule("brier"), SmoothingConfig(0.1, mask_enhanced=True), 32),
        (ScoreRule("pseudo_spherical", 2.5), SmoothingConfig(0.0), 32),  # skips 6 coordinates
        (ScoreRule("pseudo_spherical", 2.5), SmoothingConfig(0.1, mask_enhanced=True), 32),  # skips 1
        (ScoreRule("linear"), SmoothingConfig(0.0), 2),
    ])
    def test_same_report_as_single_rows(self, rule, cfg, m):
        report = grad_check(rule, cfg, m, 100, 1e-4, seed=5)
        want = grad_check_single_rows(rule, cfg, m, 100, 1e-4, seed=5)
        assert (report["max_rel_error"], report["checked"], report["skipped"]) == want


class TestEntmaxSweep:
    def test_sweep_passes_with_both_cases_present(self):
        report = entmax_sweep([1.5, 2.0, 2.5], 200, m=16, seed=0)
        assert report["pass"]
        total_out = sum(r["out_of_support"] for r in report["results"])
        for r in report["results"]:
            assert r["in_support"] > 0
            assert r["max_in_support_gap"] < 1e-8
        assert total_out > 0  # sparse cases occur and are excluded

    def test_alpha_domain(self):
        with pytest.raises(ParameterDomainError):
            entmax_sweep([1.0], 5)
