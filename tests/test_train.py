import json

import numpy as np
import pytest

from scorelm.data import MarkovSpec, synth_markov
from scorelm.errors import ConfigurationError, InvalidInputError
from scorelm.model import ModelConfig, TokenSeq, init_params, zero_grads
from scorelm.scores import ScoreRule
from scorelm.train import (
    AdamState,
    TrainConfig,
    adam_step,
    finetune,
    heldout_positions,
    relative_change,
    train,
)

T4 = np.array(
    [[0.70, 0.10, 0.10, 0.10],
     [0.10, 0.60, 0.15, 0.15],
     [0.20, 0.20, 0.50, 0.10],
     [0.25, 0.25, 0.25, 0.25]]
)


@pytest.fixture(scope="module")
def corpus():
    spec = MarkovSpec(states=4, transition=T4, initial=np.full(4, 0.25), seed=5)
    seq, _ = synth_markov(spec, 12_000)
    return seq.tokens


MODEL_CFG = ModelConfig(vocab_size=6, context=1, embed_dim=8, hidden_dim=16, seed=1)


def quick_cfg(kind="logarithmic", steps=150, **kw):
    return TrainConfig(rule=ScoreRule(kind), steps=steps, batch_size=64,
                       eval_every=50, seed=3, **kw)


class TestAdamStep:
    def setup_method(self):
        self.params = init_params(MODEL_CFG)
        self.cfg = quick_cfg()

    def test_zero_gradients_fixed_point(self):
        before = self.params.copy()
        state = AdamState.fresh(self.params)
        params, _ = adam_step(self.params, zero_grads(self.params), state, 1, self.cfg)
        for (n, a), (_, b) in zip(params.named(), before.named()):
            assert np.array_equal(a, b), n

    def test_first_step_magnitude(self):
        # bias-corrected first step moves each coordinate by ~lr * warmup scale
        grads = zero_grads(self.params)
        for _, g in grads.named():
            g[:] = 0.7
        before = self.params.copy()
        state = AdamState.fresh(self.params)
        params, _ = adam_step(self.params, grads, state, 1, self.cfg)
        expected = self.cfg.learning_rate * (1 / self.cfg.warmup_steps)
        for (n, a), (_, b) in zip(params.named(), before.named()):
            assert np.allclose(b - a, expected, rtol=1e-6), n

    def test_bitwise_reproducible_trajectory(self):
        def run():
            params = init_params(MODEL_CFG)
            state = AdamState.fresh(params)
            gen = np.random.default_rng(0)
            for step in range(1, 20):
                grads = zero_grads(params)
                for _, g in grads.named():
                    g[:] = gen.normal(size=g.shape)
                params, state = adam_step(params, grads, state, step, self.cfg)
            return params.flat

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_aborts(self, bad):
        grads = zero_grads(self.params)
        grads.w_out[0, 0] = bad
        grads.b_out[1] = bad
        with pytest.raises(FloatingPointError, match="tensor 'w_out' at step 1"):
            adam_step(self.params, grads, AdamState.fresh(self.params), 1, self.cfg)

    def test_flat_update_equals_per_tensor_loop(self):
        # the one update of params.flat against the per-tensor Adam it replaced, bit for bit
        cfg = TrainConfig(rule=ScoreRule("brier"), steps=60, learning_rate=3e-2, warmup_steps=10, lr_decay=True)

        def reference_step(params, grads, m, v, step_index):
            lr = cfg.learning_rate
            if cfg.warmup_steps > 0:
                lr *= min(1.0, step_index / cfg.warmup_steps)
            if cfg.lr_decay and step_index > cfg.warmup_steps:
                lr *= max(0.0, (cfg.steps - step_index) / max(1, cfg.steps - cfg.warmup_steps))
            bc1 = 1.0 - 0.9**step_index
            bc2 = 1.0 - 0.999**step_index
            for name, g in grads.named():
                m[name] *= 0.9
                m[name] += (1.0 - 0.9) * g
                v[name] *= 0.999
                v[name] += (1.0 - 0.999) * g * g
                getattr(params, name)[:] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)

        flat, ref = init_params(MODEL_CFG), init_params(MODEL_CFG)
        state = AdamState.fresh(flat)
        m = {name: np.zeros_like(t) for name, t in ref.named()}
        v = {name: np.zeros_like(t) for name, t in ref.named()}
        gen = np.random.default_rng(11)
        for step in range(1, 51):
            grads = zero_grads(flat)
            grads.flat[:] = gen.normal(size=grads.flat.size) * gen.choice([1e-6, 1.0, 1e3])
            adam_step(flat, grads, state, step, cfg)
            reference_step(ref, grads, m, v, step)
            assert flat.flat.tobytes() == ref.flat.tobytes(), step
        assert state.m.tobytes() == np.concatenate([m[name].ravel() for name, _ in ref.named()]).tobytes()
        assert state.v.tobytes() == np.concatenate([v[name].ravel() for name, _ in ref.named()]).tobytes()


class TestRelativeChange:
    def test_examples(self):
        assert relative_change(1.0, 1.0) == 0.0
        assert relative_change(-1.0, -2.0) == pytest.approx(0.5)
        assert relative_change(0.84, 0.8) == pytest.approx(0.05)

    def test_zero_reference(self):
        with pytest.raises(ZeroDivisionError):
            relative_change(1.0, 0.0)


class TestTrain:
    def test_zero_steps_rejected(self, corpus):
        with pytest.raises(ConfigurationError):
            train(quick_cfg(steps=0), MODEL_CFG, corpus)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(rule=ScoreRule("brier"), steps=-1)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ConfigurationError, match=f"learning_rate must be finite and > 0, got {lr}"):
            TrainConfig(rule=ScoreRule("brier"), learning_rate=lr)

    def test_loss_improves_and_metrics_consistent(self, corpus, tmp_path):
        metrics_path = tmp_path / "metrics.jsonl"
        ckpt, records = train(quick_cfg(steps=300), MODEL_CFG, corpus,
                              metrics_path=metrics_path, checkpoint_path=tmp_path / "ckpt.json")
        assert records[-1].score_log > records[0].score_log
        for rec in records:
            assert rec.ppl == pytest.approx(np.exp(-rec.score_log))
        lines = metrics_path.read_text().splitlines()
        assert len(lines) == len(records)
        fields = list(json.loads(lines[0]).keys())
        assert fields == ["step", "loss", "score_log", "score_brier", "score_spherical",
                          "ppl", "rel_log", "rel_brier", "rel_spherical"]
        assert ckpt.step == 300

    def test_determinism_byte_identical(self, corpus, tmp_path):
        paths = []
        for tag in ("a", "b"):
            m = tmp_path / f"metrics_{tag}.jsonl"
            c = tmp_path / f"ckpt_{tag}.json"
            train(quick_cfg(steps=120), MODEL_CFG, corpus, metrics_path=m, checkpoint_path=c)
            paths.append((m, c))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize("where", [100, -1])  # training split, held-out split
    def test_corpus_ids_checked_in_both_splits(self, corpus, bad, where):
        tokens = corpus.copy()
        tokens[where] = bad
        with pytest.raises(InvalidInputError, match=f"token id {bad} out of range"):
            train(quick_cfg(steps=5), MODEL_CFG, tokens)

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize("where", [0, -1])  # training split, held-out split
    def test_paired_ids_checked_in_both_splits(self, bad, where):
        seqs = [TokenSeq([2, 3, 1, 4, 5, 1], loss_mask=[False] * 3 + [True] * 3) for _ in range(20)]
        seqs[where] = TokenSeq([2, bad, 1, 4, 5, 1], loss_mask=[False] * 3 + [True] * 3)
        with pytest.raises(InvalidInputError, match=f"token id {bad} out of range"):
            train(quick_cfg(steps=5), MODEL_CFG, seqs)

    def test_eval_cadence(self, corpus):
        _, records = train(quick_cfg(steps=250), MODEL_CFG, corpus)
        assert [r.step for r in records] == [50, 100, 150, 200, 250]


class TestHeldoutPositions:
    def test_corpus_tail_with_full_history(self):
        tokens = np.arange(100) % 4 + 2
        contexts, targets = heldout_positions(tokens, 3)
        held = tokens[90:]
        assert contexts.tolist() == [held[t - 3 : t].tolist() for t in range(3, 10)]
        assert targets.tolist() == held[3:].tolist()

    def test_sequence_tail_unmasked_positions(self):
        seqs = [TokenSeq([2 + i % 3, 3, 4], loss_mask=[False, True, True]) for i in range(20)]
        contexts, targets = heldout_positions(seqs, 2)
        assert targets.tolist() == [3, 4, 3, 4]
        assert contexts.tolist() == [[0, seqs[18].tokens[0]], seqs[18].tokens[:2].tolist(),
                                     [0, seqs[19].tokens[0]], seqs[19].tokens[:2].tolist()]

    def test_short_corpus_tail_rejected(self):
        with pytest.raises(InvalidInputError, match="held-out"):
            heldout_positions(np.arange(20) % 4 + 2, 2)

    def test_fewer_than_ten_sequences_rejected(self):
        # too few records to hold any out: refused, never scored on the training set
        seqs = [TokenSeq([2, 3, 1, 4, 5, 1], loss_mask=[False] * 3 + [True] * 3) for _ in range(9)]
        with pytest.raises(InvalidInputError, match="at least 10 records"):
            heldout_positions(seqs, 2)
        with pytest.raises(InvalidInputError, match="at least 10 records"):
            train(quick_cfg(steps=5), MODEL_CFG, seqs)
        assert heldout_positions(seqs + seqs[:1], 2)[1].tolist() == [4, 5, 1]


@pytest.fixture(scope="module")
def base(corpus):
    ckpt, _ = train(quick_cfg(steps=400), MODEL_CFG, corpus)
    return ckpt


class TestFinetune:
    def test_zero_steps_identity(self, base, corpus):
        out, records = finetune(base, quick_cfg("brier", steps=0), corpus)
        assert records == []
        assert out.step == base.step
        for (n, a), (_, b) in zip(out.params.named(), base.params.named()):
            assert np.array_equal(a, b), n

    def test_config_mismatch_names_fields(self, base, corpus):
        other = ModelConfig(vocab_size=6, context=2, embed_dim=8, hidden_dim=32, seed=1)
        with pytest.raises(ConfigurationError, match="context"):
            finetune(base, quick_cfg(steps=10), corpus, model_cfg=other)

    def test_same_rule_fluctuates_near_zero(self, base, corpus):
        _, records = finetune(base, quick_cfg("logarithmic", steps=200), corpus)
        for rec in records:
            assert abs(rec.rel_log) < 0.05
            assert abs(rec.rel_brier) < 0.05

    def test_reference_is_base_checkpoint(self, base, corpus):
        _, records = finetune(base, quick_cfg("brier", steps=50), corpus)
        # step numbering continues from the base
        assert records[0].step == base.step + 50
