import itertools

import numpy as np
import pytest

from scorelm.data import MarkovSpec, synth_markov
from scorelm.decode import (
    BeamConfig,
    beam_search,
    exhaustive_search,
    greedy,
    normalized_objective,
    normalized_objective_vector,
)
from scorelm.errors import ConfigurationError, InvalidInputError, ParameterDomainError
from scorelm.model import EOS_ID, ModelConfig, context_window, forward, init_params
from scorelm.scores import ScoreRule
from scorelm.train import TrainConfig, train

OBJECTIVES = [
    ScoreRule("logarithmic"),
    ScoreRule("brier"),
    ScoreRule("spherical"),
    ScoreRule("alpha_power", 1.5),
    ScoreRule("alpha_power", 2.5),
    ScoreRule("pseudo_spherical", 1.5),
    ScoreRule("pseudo_spherical", 2.5),
]


def random_params(vocab_size, seed, scale=6.0, context=2):
    cfg = ModelConfig(vocab_size=vocab_size, context=context, embed_dim=4, hidden_dim=8, seed=seed)
    params = init_params(cfg)
    for _, t in params.named():
        t *= scale  # spread the distributions so rankings are non-trivial
    return params


def brute_force_candidates(params, prompt, max_len, objective):
    """Independent enumeration: bodies over real ids, EOS closure below
    max_len, open at max_len; returns [(tokens, raw)]."""
    V = params.embed.shape[0]
    real = list(range(2, V))
    K = params.w_hidden.shape[0] // params.embed.shape[1]

    def obj_at(prefix):
        seq = np.concatenate([prompt, np.array(prefix, dtype=np.int64)])
        p = forward(params, context_window(seq, seq.size, K))
        return normalized_objective_vector(objective, p)

    out = []
    for L in range(1, max_len + 1):
        for body in itertools.product(real, repeat=L):
            raw = 0.0
            for t in range(L):
                raw += float(obj_at(body[:t])[body[t]])
            if L < max_len:
                raw += float(obj_at(body)[EOS_ID])
                out.append((body + (EOS_ID,), raw))
            else:
                out.append((body, raw))
    return out


class TestNormalizedObjective:
    def test_spherical_perfect_is_zero(self):
        p = np.zeros(4)
        p[1] = 1.0
        assert normalized_objective(ScoreRule("spherical"), p, 1) == pytest.approx(0.0)

    def test_brier_uniform(self):
        assert normalized_objective(ScoreRule("brier"), np.full(4, 0.25), 0) == pytest.approx(-0.75)

    def test_logarithmic_unchanged(self):
        p = np.array([0.7, 0.3])
        assert normalized_objective(ScoreRule("logarithmic"), p, 0) == pytest.approx(np.log(0.7))

    def test_unsupported_rule(self):
        with pytest.raises(ConfigurationError):
            normalized_objective(ScoreRule("linear"), np.array([0.5, 0.5]), 0)
        with pytest.raises(ConfigurationError, match="linear"):
            BeamConfig(objective=ScoreRule("linear"))

    @pytest.mark.parametrize("rule", OBJECTIVES)
    def test_non_positive(self, rule):
        gen = np.random.default_rng(0)
        for _ in range(50):
            p = gen.dirichlet(np.ones(int(gen.integers(2, 10))))
            assert (normalized_objective_vector(rule, p) <= 1e-12).all()


class TestGreedy:
    def test_deterministic(self):
        params = random_params(6, seed=4)
        prompt = np.array([2, 3])
        a = greedy(params, prompt, 10)
        b = greedy(params, prompt, 10)
        assert a.tokens == b.tokens and a.raw_score == b.raw_score

    def test_absorbing_model_emits_run(self):
        # train briefly on an absorbing chain, then decode its constant run
        spec = MarkovSpec(states=2, transition=np.eye(2), initial=[0.0, 1.0], seed=0)
        seq, _ = synth_markov(spec, 400)
        mcfg = ModelConfig(vocab_size=4, context=1, embed_dim=4, hidden_dim=8, seed=0)
        cfg = TrainConfig(rule=ScoreRule("logarithmic"), steps=300, batch_size=32,
                          learning_rate=5e-3, eval_every=100, seed=0)
        ckpt, _ = train(cfg, mcfg, seq.tokens)
        hyp = greedy(ckpt.params, np.array([3]), 6)
        assert hyp.tokens == (3,) * 6  # state 1 -> token id 3, absorbing

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_rejected(self, max_len):
        # as BeamConfig refuses it: no empty generation
        with pytest.raises(ConfigurationError, match=f"max_len must be >= 1, got {max_len}"):
            greedy(random_params(6, 0), np.array([2]), max_len)

    def test_raw_score_non_positive(self):
        for seed in range(5):
            hyp = greedy(random_params(6, seed), np.array([2]), 8)
            assert hyp.raw_score <= 0.0 and hyp.finished


class TestBeamSearch:
    @pytest.mark.parametrize("rule", OBJECTIVES)
    def test_beam1_equals_greedy(self, rule):
        for seed in range(10):
            params = random_params(6, seed)
            prompt = np.array([4])
            cfg = BeamConfig(beam_size=1, max_len=8, objective=rule)
            assert beam_search(params, prompt, cfg)[0].tokens == greedy(params, prompt, 8).tokens

    def test_map_reduction(self):
        # log objective at beam width w == classic sum-of-log-probs beam search
        params = random_params(5, seed=11)
        prompt = np.array([2])
        cfg = BeamConfig(beam_size=100, max_len=4, length_penalty=0.0,
                         objective=ScoreRule("logarithmic"))
        best = beam_search(params, prompt, cfg)[0]
        cands = brute_force_candidates(params, prompt, 4, ScoreRule("logarithmic"))
        brute = max(cands, key=lambda c: (c[1], -len(c[0]), [-t for t in c[0]]))
        assert best.tokens == brute[0]
        assert best.raw_score == pytest.approx(brute[1], abs=1e-9)

    @pytest.mark.parametrize("rule", OBJECTIVES)
    @pytest.mark.parametrize("lp", [0.0, 1.0])
    def test_full_width_equals_exhaustive(self, rule, lp):
        params = random_params(4, seed=21)
        prompt = np.array([3, 2])
        cfg = BeamConfig(beam_size=4**4, max_len=4, length_penalty=lp, objective=rule)
        beam_best = beam_search(params, prompt, cfg)[0]
        ex_best = exhaustive_search(params, prompt, cfg)
        assert beam_best.tokens == ex_best.tokens
        assert beam_best.raw_score == pytest.approx(ex_best.raw_score, abs=1e-12)

    def test_raw_score_recomputable(self):
        params = random_params(6, seed=31)
        prompt = np.array([2, 5])
        rule = ScoreRule("brier")
        cfg = BeamConfig(beam_size=4, max_len=6, objective=rule)
        K = params.w_hidden.shape[0] // params.embed.shape[1]
        for hyp in beam_search(params, prompt, cfg):
            raw = 0.0
            for t, tok in enumerate(hyp.tokens):
                seq = np.concatenate([prompt, np.array(hyp.tokens[:t], dtype=np.int64)])
                p = forward(params, context_window(seq, seq.size, K))
                raw += normalized_objective(rule, p, tok)
            assert hyp.raw_score == pytest.approx(raw, abs=1e-9)
            assert hyp.raw_score <= 0.0 and hyp.finished

    def test_result_sorted_by_normalized_score(self):
        params = random_params(6, seed=41)
        for lp in (0.0, 0.7):
            cfg = BeamConfig(beam_size=5, max_len=6, length_penalty=lp,
                             objective=ScoreRule("spherical"))
            hyps = beam_search(params, np.array([2]), cfg)
            norms = [h.normalized_score(lp) for h in hyps]
            assert norms == sorted(norms, reverse=True)

    def test_zero_length_penalty_equals_raw_ranking(self):
        params = random_params(6, seed=51)
        cfg = BeamConfig(beam_size=6, max_len=5, length_penalty=0.0,
                         objective=ScoreRule("logarithmic"))
        hyps = beam_search(params, np.array([3]), cfg)
        raws = [h.raw_score for h in hyps]
        assert raws == sorted(raws, reverse=True)

    def test_prompt_validation(self):
        params = random_params(5, seed=3)
        with pytest.raises(InvalidInputError):
            beam_search(params, np.array([7]), BeamConfig(beam_size=2, max_len=3))


class TestExhaustiveSearch:
    def test_candidate_count_and_agreement(self):
        # 2 real symbols, max_len 3: 2 + 4 + 8 = 14 candidates
        params = random_params(4, seed=61)
        prompt = np.array([2])
        rule = ScoreRule("logarithmic")
        cands = brute_force_candidates(params, prompt, 3, rule)
        assert len(cands) == 14
        cfg = BeamConfig(beam_size=1, max_len=3, length_penalty=0.0, objective=rule)
        best = exhaustive_search(params, prompt, cfg)
        brute = max(cands, key=lambda c: (c[1], -len(c[0]), [-t for t in c[0]]))
        assert best.tokens == brute[0]
        assert best.raw_score == pytest.approx(brute[1], abs=1e-12)

    def test_max_len_one_picks_argmax_token(self):
        params = random_params(6, seed=71)
        prompt = np.array([4])
        cfg = BeamConfig(beam_size=1, max_len=1, objective=ScoreRule("brier"))
        best = exhaustive_search(params, prompt, cfg)
        p = forward(params, context_window(prompt, prompt.size, 2))
        real = np.arange(2, 6)
        assert best.tokens == (int(real[np.argmax(p[real])]),)

    def test_search_space_refusal(self):
        params = random_params(6, seed=0)
        with pytest.raises(ParameterDomainError, match="10"):
            exhaustive_search(params, np.array([2]), BeamConfig(beam_size=1, max_len=9))

    def test_no_generatable_symbols(self):
        params = random_params(6, seed=0)
        params2 = init_params(ModelConfig(vocab_size=2, context=2, embed_dim=4, hidden_dim=8, seed=0))
        with pytest.raises(InvalidInputError):
            greedy(params2, np.array([0]), 3)
