import numpy as np
import pytest

from scorelm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from scorelm.errors import InvalidInputError
from scorelm.model import (
    ModelConfig,
    Parameters,
    TokenSeq,
    _gather_positions,
    backward,
    context_window,
    forward,
    init_params,
    loss_and_grads,
    param_shapes,
    zero_grads,
)
from scorelm.scores import NO_SMOOTHING, ScoreRule, SmoothingConfig

RULES = [
    ScoreRule("logarithmic"),
    ScoreRule("brier"),
    ScoreRule("spherical"),
    ScoreRule("alpha_power", 1.5),
    ScoreRule("pseudo_spherical", 2.5),
    ScoreRule("linear"),
]


class TestInitParams:
    def test_deterministic(self):
        cfg = ModelConfig(vocab_size=7, context=3, embed_dim=5, hidden_dim=4, seed=123)
        a, b = init_params(cfg), init_params(cfg)
        for (name, ta), (_, tb) in zip(a.named(), b.named()):
            assert np.array_equal(ta, tb), name

    def test_seed_sensitivity(self):
        cfg1 = ModelConfig(vocab_size=7, context=3, embed_dim=5, hidden_dim=4, seed=1)
        cfg2 = ModelConfig(vocab_size=7, context=3, embed_dim=5, hidden_dim=4, seed=2)
        assert not np.array_equal(init_params(cfg1).flat, init_params(cfg2).flat)

    def test_parameter_count(self):
        # V=2,K=1,d=1,h=1: 2 embed + 1 hidden weight + 1 hidden bias + 2 out + 2 out bias
        cfg = ModelConfig(vocab_size=2, context=1, embed_dim=1, hidden_dim=1, seed=0)
        assert init_params(cfg).flat.size == 8

    def test_biases_zero_weights_bounded(self):
        cfg = ModelConfig(vocab_size=9, context=2, embed_dim=4, hidden_dim=8, seed=5)
        p = init_params(cfg)
        assert np.all(p.b_hidden == 0.0) and np.all(p.b_out == 0.0)
        assert np.abs(p.w_hidden).max() <= 1 / np.sqrt(8)
        assert np.abs(p.w_out).max() <= 1 / np.sqrt(8)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            ModelConfig(vocab_size=1, context=1, embed_dim=1, hidden_dim=1)
        with pytest.raises(InvalidInputError):
            ModelConfig(vocab_size=4, context=0, embed_dim=1, hidden_dim=1)


class TestForward:
    def test_zero_params_uniform(self):
        cfg = ModelConfig(vocab_size=5, context=2, embed_dim=3, hidden_dim=4, seed=0)
        params = init_params(cfg)
        for _, t in params.named():
            t[:] = 0.0
        assert np.allclose(forward(params, [2, 3]), 0.2)

    def test_sums_to_one(self):
        cfg = ModelConfig(vocab_size=6, context=3, embed_dim=4, hidden_dim=8, seed=11)
        params = init_params(cfg)
        gen = np.random.default_rng(0)
        for _ in range(20):
            ctx = gen.integers(0, 6, size=3)
            p = forward(params, ctx)
            assert abs(p.sum() - 1.0) < 1e-9 and (p >= 0).all()

    def test_golden_regression(self):
        # frozen at first build; guards the init + forward pipeline bit-for-bit
        cfg = ModelConfig(vocab_size=5, context=2, embed_dim=3, hidden_dim=4, seed=99)
        p = forward(init_params(cfg), [2, 4])
        golden = [
            0.17504428116811543,
            0.23720663366326739,
            0.1817634745404827,
            0.22593497624174258,
            0.1800506343863919,
        ]
        assert np.allclose(p, golden, rtol=0, atol=1e-15)

    def test_bad_inputs(self):
        cfg = ModelConfig(vocab_size=5, context=2, embed_dim=3, hidden_dim=4, seed=0)
        params = init_params(cfg)
        with pytest.raises(InvalidInputError):
            forward(params, [2, 9])
        with pytest.raises(InvalidInputError):
            forward(params, [2])


def gather_reference(seqs, K):
    """Per-position loop over context_window: the reference for _gather_positions."""
    rows = [(context_window(s.tokens, int(t), K), s.tokens[t]) for s in seqs for t in np.flatnonzero(s.loss_mask)]
    contexts = np.asarray([c for c, _ in rows], dtype=np.int64).reshape(len(rows), K)
    return contexts, np.asarray([t for _, t in rows], dtype=np.int64)


class TestGatherPositions:
    @pytest.mark.parametrize("K", [1, 3, 6])
    def test_matches_per_position_loop(self, K):
        gen = np.random.default_rng(K)
        for _ in range(20):
            seqs = []
            for _ in range(int(gen.integers(0, 6))):
                n = int(gen.integers(1, 12))  # shorter and longer than K
                mask = gen.random(n) < gen.choice([0.0, 0.5, 1.0])  # all-masked rows included
                seqs.append(TokenSeq(gen.integers(0, 9, size=n), loss_mask=mask))
            contexts, targets = _gather_positions(seqs, K)
            want_c, want_t = gather_reference(seqs, K)
            assert contexts.shape == want_c.shape and np.array_equal(contexts, want_c)
            assert targets.shape == want_t.shape and np.array_equal(targets, want_t)

    def test_empty_and_all_masked(self):
        for seqs in ([], [TokenSeq([2, 3], loss_mask=[False, False])]):
            contexts, targets = _gather_positions(seqs, 4)
            assert contexts.shape == (0, 4) and targets.shape == (0,)


class TestParameters:
    def test_tensors_are_views_of_one_vector(self, tmp_path):
        cfg = ModelConfig(vocab_size=6, context=2, embed_dim=4, hidden_dim=8, seed=3)
        params = init_params(cfg)
        save_checkpoint(tmp_path / "c.json", Checkpoint(cfg, ScoreRule("brier"), NO_SMOOTHING, 0, params))
        built = Parameters(**{name: t.copy() for name, t in params.named()})
        for p in (params, params.copy(), zero_grads(params), load_checkpoint(tmp_path / "c.json").params, built):
            assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
            assert [(name, t.shape) for name, t in p.named()] == param_shapes(cfg)
            offset = 0
            for name, t in p.named():
                assert np.shares_memory(p.flat, t), name
                assert np.array_equal(t.ravel(), p.flat[offset : offset + t.size]), name
                offset += t.size
            assert offset == p.flat.size

    def test_copy_and_zero_grads_share_nothing(self):
        params = init_params(ModelConfig(vocab_size=5, context=1, embed_dim=2, hidden_dim=3, seed=4))
        for other in (params.copy(), zero_grads(params)):
            assert not np.shares_memory(params.flat, other.flat)
        copy = params.copy()
        copy.flat[:] = 0.0
        assert params.flat.any() and not copy.embed.any()


class TestPositionLoss:
    """The batch loss of loss_and_grads, read through backward on TokenSeqs."""

    def setup_method(self):
        self.cfg = ModelConfig(vocab_size=6, context=2, embed_dim=4, hidden_dim=8, seed=3)
        self.params = init_params(self.cfg)

    def test_single_token_log_loss(self):
        p = forward(self.params, [0, 0])  # pad-padded empty history
        loss, _ = backward(self.params, [TokenSeq([4])], ScoreRule("logarithmic"), NO_SMOOTHING)
        assert loss == pytest.approx(-np.log(p[4]))

    def test_uniform_model_brier(self):
        self.params.flat[:] = 0.0
        loss, _ = backward(self.params, [TokenSeq([2, 3, 4, 5])], ScoreRule("brier"), NO_SMOOTHING)
        assert loss == pytest.approx(-1 / 6)

    def test_all_masked_is_zero_with_warning(self):
        seq = TokenSeq([2, 3], loss_mask=[False, False])
        with pytest.warns(UserWarning, match="all-masked"):
            loss, grads = backward(self.params, [seq], ScoreRule("brier"), NO_SMOOTHING)
        assert loss == 0.0 and not grads.flat.any()

    def test_factorization_fidelity(self):
        # exp(-summed log-loss) equals the product of per-step probabilities
        seq = TokenSeq([2, 5, 3, 3, 4])
        loss, _ = backward(self.params, [seq], ScoreRule("logarithmic"), NO_SMOOTHING)
        prod = 1.0
        toks = seq.tokens
        for t in range(len(toks)):
            ctx = np.concatenate([np.zeros(max(0, 2 - t), dtype=np.int64), toks[max(0, t - 2) : t]])
            prod *= forward(self.params, ctx)[toks[t]]
        assert np.exp(-loss * len(toks)) == pytest.approx(prod, rel=1e-9)

    def test_loss_monotone_in_observed_probability(self):
        # raising the probability of the observed token can only improve the score
        gen = np.random.default_rng(9)
        for rule in RULES:
            z = gen.normal(size=6)
            from scorelm.scores import token_loss

            i = 2
            base = token_loss(rule, NO_SMOOTHING, z, i)
            z_up = z.copy()
            z_up[i] += 0.5
            assert token_loss(rule, NO_SMOOTHING, z_up, i) < base


class TestBackward:
    def setup_method(self):
        self.cfg = ModelConfig(vocab_size=5, context=2, embed_dim=4, hidden_dim=8, seed=21)
        self.params = init_params(self.cfg)
        gen = np.random.default_rng(17)
        self.batch = [
            TokenSeq(gen.integers(2, 5, size=6)),
            TokenSeq(gen.integers(2, 5, size=4)),
            TokenSeq(gen.integers(2, 5, size=5), loss_mask=[False, True, True, True, True]),
        ]

    @pytest.mark.parametrize("rule", RULES)
    def test_grads_vs_finite_differences(self, rule):
        cfg = SmoothingConfig(0.0)
        loss, grads = backward(self.params, self.batch, rule, cfg)
        h = 1e-4
        for name, g in grads.named():
            tensor = getattr(self.params, name)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = tensor[ix]
                tensor[ix] = orig + h
                lp, _ = backward(self.params, self.batch, rule, cfg)
                tensor[ix] = orig - h
                lm, _ = backward(self.params, self.batch, rule, cfg)
                tensor[ix] = orig
                fd = (lp - lm) / (2 * h)
                if abs(g[ix]) > 1e-7:
                    assert abs(fd - g[ix]) / abs(g[ix]) < 1e-3, (name, ix)

    def test_duplicated_sequence_same_loss(self):
        rule = ScoreRule("brier")
        seq = self.batch[0]
        l1, _ = backward(self.params, [seq], rule, NO_SMOOTHING)
        l2, _ = backward(self.params, [seq, seq], rule, NO_SMOOTHING)
        assert l1 == pytest.approx(l2, abs=1e-15)

    def test_loss_is_per_token_mean(self):
        rule = ScoreRule("spherical")
        loss, _ = backward(self.params, self.batch, rule, NO_SMOOTHING)
        counts = [int(s.loss_mask.sum()) for s in self.batch]
        total = sum(backward(self.params, [s], rule, NO_SMOOTHING)[0] * n for s, n in zip(self.batch, counts))
        assert loss == pytest.approx(total / sum(counts), abs=1e-12)

    def test_equals_mean_of_sequence_losses_when_counts_match(self):
        rule = ScoreRule("logarithmic")
        gen = np.random.default_rng(3)
        batch = [TokenSeq(gen.integers(2, 5, size=5)) for _ in range(4)]
        loss, _ = backward(self.params, batch, rule, NO_SMOOTHING)
        per_seq = [backward(self.params, [s], rule, NO_SMOOTHING)[0] for s in batch]
        assert loss == pytest.approx(np.mean(per_seq), abs=1e-12)

    def test_converged_degenerate_corpus_zero_gradient(self):
        # a corpus of one repeated symbol: after convergence the gradient vanishes
        from scorelm.train import AdamState, TrainConfig, adam_step

        cfg = ModelConfig(vocab_size=3, context=1, embed_dim=2, hidden_dim=4, seed=2)
        params = init_params(cfg)
        batch = [TokenSeq(np.full(8, 2))]
        rule = ScoreRule("logarithmic")
        tc = TrainConfig(rule=rule, steps=1500, learning_rate=5e-2, warmup_steps=10)
        state = AdamState.fresh(params)
        for step in range(1, 1501):
            _, grads = backward(params, batch, rule, NO_SMOOTHING)
            params, state = adam_step(params, grads, state, step, tc)
        _, grads = backward(params, batch, rule, NO_SMOOTHING)
        norm = max(np.abs(g).max() for _, g in grads.named())
        assert norm < 1e-4

    def test_is_check_gather_and_core(self):
        # backward on TokenSeqs == loss_and_grads on the gathered index arrays, bitwise
        rule, cfg = ScoreRule("brier"), SmoothingConfig(0.1, mask_enhanced=True)
        loss, grads = backward(self.params, self.batch, rule, cfg)
        core_loss, core_grads = loss_and_grads(self.params, *gather_reference(self.batch, 2), rule, cfg)
        assert loss == core_loss
        for (n, a), (_, b) in zip(grads.named(), core_grads.named()):
            assert a.tobytes() == b.tobytes(), n

    def test_out_of_range_id_rejected(self):
        for bad in (-1, 5):
            batch = self.batch + [TokenSeq([2, bad, 3], loss_mask=[True, False, False])]
            with pytest.raises(InvalidInputError, match=f"token id {bad}"):
                backward(self.params, batch, ScoreRule("brier"), NO_SMOOTHING)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidInputError):
            backward(self.params, [], ScoreRule("brier"), NO_SMOOTHING)
