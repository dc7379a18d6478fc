import dataclasses
import importlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scorelm.checkpoint import load_checkpoint, save_checkpoint
from hypothesis import given, settings
from hypothesis import strategies as st

from scorelm.data import MarkovSpec, build_vocab, encode_pair, encode_pairs, make_seq_batches, synth_markov
from scorelm.decode import BeamConfig
from scorelm.errors import ConfigurationError, InvalidInputError
from scorelm.model import (
    ModelConfig,
    PackedSeqs,
    Parameters,
    TokenSeq,
    Workspace,
    _loss_and_grads,
    init_params,
    loss_and_grads,
    zero_grads,
)
from scorelm import scores
from scorelm.scores import ScoreRule, SmoothingConfig
from scorelm.train import (
    SCORE_FIELDS,
    AdamState,
    PairLayout,
    TrainConfig,
    _pair_keys,
    adam_step,
    evaluate_scores,
    finetune,
    relative_change,
    split_data,
    train,
)

from test_model import gather_reference, ref_loss_and_grads
from test_rule_table import ref_token_losses_and_grads

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


def ref_adam_step(cfg, params, grads, m, v, step_index):
    """adam_step as written per tensor, before the one update of params.flat;
    m and v map each tensor's name to its moments."""
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
        flat, ref = init_params(MODEL_CFG), init_params(MODEL_CFG)
        state = AdamState.fresh(flat)
        m = {name: np.zeros_like(t) for name, t in ref.named()}
        v = {name: np.zeros_like(t) for name, t in ref.named()}
        gen = np.random.default_rng(11)
        for step in range(1, 51):
            grads = zero_grads(flat)
            grads.flat[:] = gen.normal(size=grads.flat.size) * gen.choice([1e-6, 1.0, 1e3])
            adam_step(flat, grads, state, step, cfg)
            ref_adam_step(cfg, ref, grads, m, v, step)
            assert flat.flat.tobytes() == ref.flat.tobytes(), step
        assert state.m.tobytes() == np.concatenate([m[name].ravel() for name, _ in ref.named()]).tobytes()
        assert state.v.tobytes() == np.concatenate([v[name].ravel() for name, _ in ref.named()]).tobytes()

    def test_no_float_temporaries(self):
        # the update runs in the state's scratch vectors; only the finiteness check's
        # boolean vector (one byte per entry) is allocated
        params = init_params(ModelConfig(vocab_size=35, context=8, embed_dim=32, hidden_dim=128))
        grads = zero_grads(params)
        grads.flat[:] = np.random.default_rng(0).normal(size=grads.flat.size)
        state = AdamState.fresh(params)
        adam_step(params, grads, state, 1, self.cfg)
        tracemalloc.start()
        try:
            adam_step(params, grads, state, 2, self.cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes / 4


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

    def test_symbols_stored(self, corpus, tmp_path):
        symbols = ["<pad>", "<eos>", "a", "b", "c", "d"]
        ckpt, _ = train(quick_cfg(steps=5), MODEL_CFG, corpus, checkpoint_path=tmp_path / "c.json", symbols=symbols)
        assert ckpt.symbols == symbols and load_checkpoint(tmp_path / "c.json").symbols == symbols
        assert train(quick_cfg(steps=5), MODEL_CFG, corpus)[0].symbols is None

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

    def test_masked_corpus_rejected(self, corpus):
        # a lone TokenSeq is a corpus: its mask would be dropped, not honoured
        seq = TokenSeq(corpus, loss_mask=np.zeros(corpus.size, dtype=bool))
        with pytest.raises(InvalidInputError, match="list of TokenSeq"):
            train(quick_cfg(steps=5), MODEL_CFG, seq)
        assert train(quick_cfg(steps=5), MODEL_CFG, TokenSeq(corpus))[1][-1].step == 5

    def test_eval_cadence(self, corpus):
        _, records = train(quick_cfg(steps=250), MODEL_CFG, corpus)
        assert [r.step for r in records] == [50, 100, 150, 200, 250]

    def test_held_out_part_split_once_per_training_call(self, corpus, monkeypatch):
        train_mod = importlib.import_module("scorelm.train")  # the package's `train` is the function
        calls = []
        split = train_mod.distinct_pairs
        monkeypatch.setattr(train_mod, "distinct_pairs", lambda c, t: calls.append(t.size) or split(c, t))
        for n in (1, 2):  # the second call splits the same part again: nothing is kept between calls
            _, records = train(quick_cfg(steps=250), MODEL_CFG, corpus)
            assert len(records) == 5 and len(calls) == n
        assert calls[0] == calls[1]
        train(quick_cfg(steps=5), MODEL_CFG, corpus[:-1])  # another held-out part
        assert len(calls) == 3

    def test_training_leaves_no_array_on_the_module(self, corpus):
        train_mod = importlib.import_module("scorelm.train")
        train(quick_cfg(steps=5), MODEL_CFG, corpus)
        evaluate_scores(init_params(MODEL_CFG), *split_data(corpus, 1)[1])

        def holds_an_array(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (tuple, list)):
                return any(map(holds_an_array, value))
            return isinstance(value, np.ndarray)

        assert [name for name, value in vars(train_mod).items() if holds_an_array(value)] == []

    @pytest.mark.parametrize("rule, smoothing", [
        (ScoreRule("logarithmic"), SmoothingConfig()),
        (ScoreRule("alpha_power", 1.5), SmoothingConfig()),
        (ScoreRule("brier"), SmoothingConfig(0.1, mask_enhanced=True)),
    ], ids=["log", "alpha_power-1.5", "brier-eps0.1-mask"])
    def test_recording_does_not_steer_training(self, corpus, rule, smoothing):
        # the loss is formed only at recorded steps; the parameters must not notice
        steps = 30
        runs = [train(TrainConfig(rule=rule, smoothing=smoothing, steps=steps, batch_size=64, eval_every=every,
                                  seed=3), MODEL_CFG, corpus) for every in (1, steps)]
        (every_step, every_step_records), (last_step, last_step_records) = runs
        assert every_step.params.flat.tobytes() == last_step.params.flat.tobytes()
        assert len(every_step_records) == steps and len(last_step_records) == 1
        assert every_step_records[-1].to_json() == last_step_records[0].to_json()

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("every, formed", [(5, 1), (2, 3), (1, 5)])
    def test_training_loss_formed_only_at_recorded_steps(self, corpus, monkeypatch, eps, every, formed):
        # alpha_power scores no held-out field, so every call of its record comes from the training loss:
        # the observed column alone at eps = 0, every outcome under smoothing
        calls = []
        record = scores.RULES["alpha_power"]

        def counted(P, p, a):
            calls.append((P.shape, p.shape))
            return record.clamped(P, p, a)

        monkeypatch.setitem(scores.RULES, "alpha_power", dataclasses.replace(record, clamped=counted))
        cfg = TrainConfig(rule=ScoreRule("alpha_power", 1.5), smoothing=SmoothingConfig(eps), steps=5,
                          batch_size=64, eval_every=every, seed=3)
        train(cfg, MODEL_CFG, corpus)
        # 64 rows > 6^2 pairs, so the rule scores each recorded batch's Q distinct pairs
        batches, _ = split_data(corpus, MODEL_CFG.context, MODEL_CFG.vocab_size)
        distinct = [len(np.unique(np.column_stack(batch), axis=0))
                    for step, batch in enumerate(itertools.islice(batches(64, 3), 5), 1)
                    if step % every == 0 or step == 5]
        assert len(distinct) == formed
        assert calls == [((q, 6), (q, 6) if eps else (q, 1)) for q in distinct]


    @pytest.mark.parametrize("paired", [False, True], ids=["corpus", "paired"])
    def test_gradient_buffer_built_once_per_run(self, corpus, monkeypatch, paired):
        # every Parameters is laid out by _view: the initial parameters and one gradient buffer, whatever the steps
        data = corpus
        if paired:
            data = encode_pairs(build_vocab("abcd"), [("ab" * (i % 3 + 1), "cd" * (i % 4 + 1)) for i in range(30)])
        laid_out = []
        view = Parameters._view

        def counted(params, flat, shapes):
            laid_out.append(flat.size)
            return view(params, flat, shapes)

        monkeypatch.setattr(Parameters, "_view", counted)
        for steps in (1, 4, 40):
            laid_out.clear()
            train(TrainConfig(rule=ScoreRule("brier"), steps=steps, batch_size=8, eval_every=20, seed=3),
                  MODEL_CFG, data)
            assert len(laid_out) == 2, steps


BENCH_RULES = [  # the markov benchmark's four rule configs
    (ScoreRule("logarithmic"), SmoothingConfig()),
    (ScoreRule("spherical"), SmoothingConfig()),
    (ScoreRule("alpha_power", 1.5), SmoothingConfig()),
    (ScoreRule("brier"), SmoothingConfig(0.1, mask_enhanced=True)),
]


def reference_training(cfg, model_cfg, data):
    """(params, recorded losses, batch sizes): train() as a loop of the
    references, with the rule part of the explicit formulas, over
    split_data's batches of data.  When an epoch has a batch of at least
    V^(K + 1) rows, every batch is its sorted distinct (context, target)
    rows, each weighted by its count."""
    def rule_part(rule, smoothing, Z, idx, losses):
        return ref_token_losses_and_grads(rule, smoothing, Z, idx)

    params = init_params(model_cfg)
    m = {name: np.zeros_like(t) for name, t in params.named()}
    v = {name: np.zeros_like(t) for name, t in params.named()}
    batches, _ = split_data(data, model_cfg.context, model_cfg.vocab_size)
    pairs = model_cfg.vocab_size ** (model_cfg.context + 1)
    grouped = max(targets.size for _, targets in batches(cfg.batch_size, cfg.seed)) >= pairs
    stream = itertools.chain.from_iterable(batches(cfg.batch_size, cfg.seed + epoch) for epoch in itertools.count())
    losses, sizes = [], []
    for step in range(1, cfg.steps + 1):
        contexts, targets = next(stream)
        sizes.append(targets.size)
        counts = None
        if grouped:
            rows, counts = np.unique(np.column_stack((contexts, targets)), axis=0, return_counts=True)
            contexts, targets = rows[:, :-1], rows[:, -1]
        loss, grads = ref_loss_and_grads(params, contexts, targets, cfg.rule, cfg.smoothing, rule_part=rule_part,
                                         counts=counts)
        ref_adam_step(cfg, params, grads, m, v, step)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            losses.append(loss)
    return params, losses, sizes


@pytest.mark.parametrize("rule, smoothing", BENCH_RULES,
                         ids=["log", "spherical", "alpha_power-1.5", "brier-eps0.1-mask"])
def test_training_is_the_reference_loop_bitwise(rule, smoothing):
    # the byte rule on whatever numpy and BLAS run the test: train() against a loop of the references
    # over the same batches, into a second epoch and its short last batch
    spec = MarkovSpec(states=4, transition=T4, initial=np.full(4, 0.25), seed=8)
    tokens = synth_markov(spec, 3_000)[0].tokens
    cfg = TrainConfig(rule=rule, smoothing=smoothing, steps=60, batch_size=64, learning_rate=0.005,
                      eval_every=20, seed=3, lr_decay=True)
    ckpt, records = train(cfg, MODEL_CFG, tokens)
    params, losses, sizes = reference_training(cfg, MODEL_CFG, tokens)
    assert sizes[42] == 11  # the first epoch's last batch
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert [r.loss for r in records] == losses


PAIRED_MODEL = ModelConfig(vocab_size=35, context=8, embed_dim=32, hidden_dim=128, seed=1)  # paired benchmark shape


def paired_records(n, seed):
    """n records at the paired benchmark's shapes: a prompt of 4-12 symbols
    and EOS, masked, then a target of 4-12 symbols and EOS."""
    gen = np.random.default_rng(seed)
    seqs = []
    for _ in range(n):
        src, tgt = gen.integers(2, 35, gen.integers(4, 13)), gen.integers(2, 35, gen.integers(4, 13))
        seqs.append(TokenSeq(np.concatenate([src, [1], tgt, [1]]),
                             loss_mask=[False] * (src.size + 1) + [True] * (tgt.size + 1)))
    return seqs


@pytest.mark.parametrize("rule, smoothing", [BENCH_RULES[0], BENCH_RULES[3]], ids=["log", "brier-eps0.1-mask"])
def test_paired_training_is_the_reference_loop_bitwise(rule, smoothing):
    # batches of whole records differ in row count, and one workspace serves them all, into a
    # second epoch and its short last batch
    seqs = paired_records(60, seed=2)
    cfg = TrainConfig(rule=rule, smoothing=smoothing, steps=8, batch_size=16, learning_rate=0.003,
                      eval_every=3, seed=5, lr_decay=True)
    ckpt, records = train(cfg, PAIRED_MODEL, seqs)
    params, losses, sizes = reference_training(cfg, PAIRED_MODEL, seqs)
    assert len(set(sizes)) >= 4
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert [r.loss for r in records] == losses


def assert_count_weighted_step_is_the_per_position_step(params, contexts, targets, rule, smoothing, keys, counts):
    # keys and counts of the batch's distinct pairs, in their layout; 1e-12 relative, tensor by tensor
    assert counts.sum() == targets.size and counts.size < targets.size
    want_loss, want = loss_and_grads(params, contexts, targets, rule, smoothing)
    work = Workspace(params, counts.size)
    layout = PairLayout(keys, params.embed.shape[0], params.context, work.table)
    got_loss, got = _loss_and_grads(params, contexts, targets, rule, smoothing, work, pairs=(layout, counts))
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for (name, g), (_, w) in zip(got.named(), want.named()):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


@pytest.mark.parametrize("rule, smoothing", BENCH_RULES,
                         ids=["log", "spherical", "alpha_power-1.5", "brier-eps0.1-mask"])
def test_count_weighted_step_at_the_markov_bench_shape(corpus, rule, smoothing):
    model_cfg = ModelConfig(vocab_size=6, context=1, embed_dim=8, hidden_dim=16, seed=4)
    params = init_params(model_cfg)
    params.flat *= 5.0  # probabilities well away from uniform
    batches, _ = split_data(corpus, 1, 6)
    contexts, targets = next(batches(512, 7))
    keys, counts = _pair_keys(contexts, targets, 6)
    assert counts.size <= 16  # 4 states
    assert_count_weighted_step_is_the_per_position_step(params, contexts, targets, rule, smoothing, keys, counts)


@pytest.mark.parametrize("rule, smoothing", BENCH_RULES,
                         ids=["log", "spherical", "alpha_power-1.5", "brier-eps0.1-mask"])
def test_count_weighted_step_at_the_paired_bench_shape(rule, smoothing):
    # 35^9 keys are too many to count, so the rows are grouped by np.unique, in the same order, and
    # keyed as base-35 digits, which fit int64
    params = init_params(PAIRED_MODEL)
    params.flat *= 3.0
    gen = np.random.default_rng(6)
    distinct = gen.integers(0, 35, (40, 9))
    rows = np.repeat(distinct, gen.integers(1, 8, 40), axis=0)
    rows = rows[gen.permutation(rows.shape[0])]
    unique, counts = np.unique(rows, axis=0, return_counts=True)
    keys = unique @ 35 ** np.arange(8, -1, -1)
    assert_count_weighted_step_is_the_per_position_step(params, rows[:, :-1], rows[:, -1], rule, smoothing, keys,
                                                        counts)


def test_grouped_pairs_are_the_sorted_distinct_rows():
    gen = np.random.default_rng(3)
    for V, K in [(6, 1), (3, 3), (2, 5)]:
        rows = gen.integers(0, V, (200, K + 1))
        keys, counts = _pair_keys(rows[:, :-1], rows[:, -1], V)
        table = np.arange(V * 2).reshape(V, 2)
        layout = PairLayout(keys, V, K, table)
        unique, want = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(np.column_stack((layout.contexts, layout.targets)), unique)
        assert np.array_equal(counts, want)
        assert np.array_equal(layout.scatter, table[layout.contexts])


@pytest.mark.parametrize("batch_size, grouped", [(36, True), (35, False)])
def test_grouping_starts_where_a_batch_must_repeat_a_pair(corpus, monkeypatch, batch_size, grouped):
    # 6^2 = 36 pairs: a batch of 36 rows may hold each once, yet the run groups, since the rule is a
    # pigeonhole bound decided from shapes; at 35 rows every step is the per-position reference
    train_mod = importlib.import_module("scorelm.train")  # the package's `train` is the function
    calls, group = [], train_mod._pair_keys
    monkeypatch.setattr(train_mod, "_pair_keys", lambda *args: calls.append(1) or group(*args))
    cfg = TrainConfig(rule=ScoreRule("spherical"), steps=12, batch_size=batch_size, learning_rate=0.005,
                      eval_every=4, seed=2)
    ckpt, records = train(cfg, MODEL_CFG, corpus)
    params, losses, _ = reference_training(cfg, MODEL_CFG, corpus)
    assert len(calls) == (cfg.steps if grouped else 0)
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert [r.loss for r in records] == losses


def pair_sets(data, cfg, K, V):
    """The sorted distinct (context, target) rows of each step's batch."""
    batches, _ = split_data(data, K, V)
    stream = itertools.chain.from_iterable(batches(cfg.batch_size, cfg.seed + epoch) for epoch in itertools.count())
    return [np.unique(np.column_stack(next(stream)), axis=0) for _ in range(cfg.steps)]


def layouts_built(monkeypatch):
    """The pair layouts that training builds from here on, as a list of their key counts."""
    train_mod = importlib.import_module("scorelm.train")
    built = []
    monkeypatch.setattr(train_mod, "PairLayout", lambda keys, *args: built.append(keys.size) or PairLayout(keys, *args))
    return built


@pytest.mark.parametrize("rule, smoothing", BENCH_RULES,
                         ids=["log", "spherical", "alpha_power-1.5", "brier-eps0.1-mask"])
def test_markov_shaped_run_builds_one_layout(corpus, monkeypatch, tmp_path, rule, smoothing):
    # batches of 512 rows hold all 16 pairs of the 4-state chain at every step, so one layout serves
    # the run; checkpoint and metrics bytes are the reference loop's
    built = layouts_built(monkeypatch)
    cfg = TrainConfig(rule=rule, smoothing=smoothing, steps=12, batch_size=512, learning_rate=0.005,
                      eval_every=4, seed=3, lr_decay=True)
    assert len({rows.tobytes() for rows in pair_sets(corpus, cfg, 1, 6)}) == 1
    ckpt, records = train(cfg, MODEL_CFG, corpus, metrics_path=tmp_path / "metrics.jsonl",
                          checkpoint_path=tmp_path / "ckpt.json")
    assert built == [16]
    params, losses, _ = reference_training(cfg, MODEL_CFG, corpus)
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert [r.loss for r in records] == losses
    want = dataclasses.replace(ckpt, params=params)
    save_checkpoint(tmp_path / "want.json", want)
    assert (tmp_path / "ckpt.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    held = split_data(corpus, 1, 6)[1]
    last = json.loads((tmp_path / "metrics.jsonl").read_text().splitlines()[-1])
    assert {field: last[field] for field in SCORE_FIELDS} == {
        field: evaluate_scores(params, *held)[field] for field in SCORE_FIELDS}


@pytest.mark.parametrize("rule, smoothing", BENCH_RULES,
                         ids=["log", "spherical", "alpha_power-1.5", "brier-eps0.1-mask"])
def test_changing_pair_sets_rebuild_the_layout(corpus, monkeypatch, rule, smoothing):
    # at 36 rows a batch holds some of the 16 pairs, and which ones changes from step to step, at
    # times with the count of pairs unchanged: a layout is built at each change and nowhere else
    built = layouts_built(monkeypatch)
    cfg = TrainConfig(rule=rule, smoothing=smoothing, steps=40, batch_size=36, learning_rate=0.005,
                      eval_every=7, seed=2)
    sets = pair_sets(corpus, cfg, 1, 6)
    changes = [0] + [step for step in range(1, cfg.steps) if sets[step].tobytes() != sets[step - 1].tobytes()]
    assert len(changes) > 20
    assert any(sets[step].shape == sets[step - 1].shape for step in changes[1:])  # a new set of as many pairs
    ckpt, records = train(cfg, MODEL_CFG, corpus)
    assert built == [sets[step].shape[0] for step in changes]
    params, losses, _ = reference_training(cfg, MODEL_CFG, corpus)
    assert ckpt.params.flat.tobytes() == params.flat.tobytes()
    assert [r.loss for r in records] == losses


@pytest.mark.parametrize("batch_size, rows", [(512, 36), (36, 36), (35, 35)])
def test_workspace_rows_are_the_batch_rows_or_the_pairs(corpus, monkeypatch, batch_size, rows):
    train_mod = importlib.import_module("scorelm.train")
    made = []
    monkeypatch.setattr(train_mod, "Workspace", lambda params, n: made.append(n) or Workspace(params, n))
    train(TrainConfig(rule=ScoreRule("brier"), steps=3, batch_size=batch_size, eval_every=3), MODEL_CFG, corpus)
    assert made == [rows]


def test_paired_step_takes_no_page_faults_in_a_fresh_process():
    # a held-out part of 12 records frees too little to raise glibc's mmap threshold above the
    # step's arrays: a step that allocated them would map and fault them in again every time
    # (about 450-600 faults a step); one workspace is faulted in once
    child = textwrap.dedent("""
        import importlib, resource
        import numpy as np
        from scorelm.model import ModelConfig, TokenSeq
        from scorelm.scores import ScoreRule
        train_mod = importlib.import_module("scorelm.train")
        faults, adam_step = [], train_mod.adam_step

        def counted(*args):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return adam_step(*args)

        train_mod.adam_step = counted
        cfg = train_mod.TrainConfig(rule=ScoreRule("logarithmic"), steps=60, batch_size=32,
                                    learning_rate=0.003, eval_every=1000)
        model = ModelConfig(vocab_size=35, context=8, embed_dim=32, hidden_dim=128)
        train_mod.train(cfg, model, paired_records(120, seed=0))
        print(float(np.mean(np.diff(faults[1:-1]))))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    code = inspect.getsource(paired_records) + child  # the child imports nothing but scorelm and numpy
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert float(run.stdout) < 20


class TestHeldoutPositions:
    def test_corpus_tail_with_full_history(self):
        tokens = np.arange(100) % 4 + 2
        contexts, targets = split_data(tokens, 3)[1]
        held = tokens[90:]
        assert contexts.tolist() == [held[t - 3 : t].tolist() for t in range(3, 10)]
        assert targets.tolist() == held[3:].tolist()

    def test_sequence_tail_unmasked_positions(self):
        seqs = [TokenSeq([2 + i % 3, 3, 4], loss_mask=[False, True, True]) for i in range(20)]
        contexts, targets = split_data(seqs, 2)[1]
        assert targets.tolist() == [3, 4, 3, 4]
        assert contexts.tolist() == [[0, seqs[18].tokens[0]], seqs[18].tokens[:2].tolist(),
                                     [0, seqs[19].tokens[0]], seqs[19].tokens[:2].tolist()]

    def test_short_corpus_tail_rejected(self):
        with pytest.raises(InvalidInputError, match="held-out"):
            split_data(np.arange(20) % 4 + 2, 2)
        # with the vocabulary given, ids are checked first
        with pytest.raises(InvalidInputError, match="token id 9 out of range"):
            split_data(np.full(20, 9), 2, V=6)

    def test_fewer_than_ten_sequences_rejected(self):
        # too few records to hold any out: refused, never scored on the training set
        seqs = [TokenSeq([2, 3, 1, 4, 5, 1], loss_mask=[False] * 3 + [True] * 3) for _ in range(9)]
        with pytest.raises(InvalidInputError, match="at least 10 records"):
            split_data(seqs, 2)
        with pytest.raises(InvalidInputError, match="at least 10 records"):
            train(quick_cfg(steps=5), MODEL_CFG, seqs)
        assert split_data(seqs + seqs[:1], 2)[1][1].tolist() == [4, 5, 1]

    def test_heldout_without_scored_position_rejected(self):
        # the held-out scores would be means over no position: NaN in every metrics record
        scored = TokenSeq([2, 3, 4, 5], loss_mask=[False, True, True, True])
        unscored = TokenSeq([2, 3, 4, 5], loss_mask=[False] * 4)
        seqs = [scored] * 18 + [unscored] * 2
        with pytest.raises(InvalidInputError, match="the 2 held-out records have no unmasked position"):
            split_data(seqs, 2)
        with pytest.raises(InvalidInputError, match="no unmasked position"):
            train(quick_cfg("brier", steps=3), MODEL_CFG, seqs)
        # with the vocabulary given, ids are checked first
        with pytest.raises(InvalidInputError, match="token id 9 out of range"):
            split_data([TokenSeq([9, 3], loss_mask=[False, False])] + seqs[1:], 2, V=6)
        # one scored held-out record is enough
        assert split_data([unscored] + seqs[:-1], 2)[1][1].tolist() == [3, 4, 5]

    def test_public(self):
        import scorelm

        assert scorelm.split_data is split_data



def reference_split(seqs, K, batch_size, seed):
    """The per-record split that the packed one replaced: each batch gathered
    from its TokenSeqs, the held-out part from the last 10% of them."""
    n_held = len(seqs) // 10
    held = gather_reference(seqs[-n_held:], K)
    if held[1].size == 0:
        return f"the {n_held} held-out records have no unmasked position to score"
    batches = [gather_reference(b, K) for b in make_seq_batches(seqs[:-n_held], batch_size, seed)]
    return batches, held


# a record's strategies, built once for each of its 0-7 tokens. A record is three draws, not one per token and
# flag: its size, its ids as `size` bytes mapped into 0-9, and its mask as one integer of `size` bits, often 0
RECORD_SIZES = st.integers(0, 7)
RECORD_TOKENS = [st.binary(min_size=size, max_size=size).map(lambda raw: [byte % 10 for byte in raw])
                 for size in range(8)]
RECORD_MASKS = [st.one_of(st.just(0), st.integers(0, 2**size - 1)).map(
    lambda bits, size=size: [bool(bits >> i & 1) for i in range(size)]) for size in range(8)]


def token_seqs(draw, n):
    seqs = []
    for _ in range(n):
        size = draw(RECORD_SIZES)
        seqs.append(TokenSeq(draw(RECORD_TOKENS[size]), loss_mask=draw(RECORD_MASKS[size])))
    return seqs


@st.composite
def split_cases(draw):
    return (token_seqs(draw, draw(st.integers(10, 45))), draw(st.integers(1, 5)), draw(st.integers(1, 12)),
            draw(st.integers(0, 2**32 - 1)))


def same_arrays(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


class TestPackedSplit:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=split_cases())
    def test_batches_and_held_out_equal_the_per_record_gather(self, case):
        seqs, K, batch_size, seed = case
        want = reference_split(seqs, K, batch_size, seed)
        for data in (seqs, PackedSeqs.pack(seqs)):
            try:
                batches, held = split_data(data, K)
            except InvalidInputError as exc:
                assert str(exc) == want
                continue
            assert not isinstance(want, str)
            got = list(batches(batch_size, seed))
            assert len(got) == len(want[0])
            assert all(same_arrays(g, w) for g, w in zip(got, want[0]))
            assert all(a.flags.c_contiguous for batch in got for a in batch)
            assert same_arrays(held, want[1])

    @pytest.mark.parametrize("paired", [False, True], ids=["corpus", "paired"])
    def test_a_batch_allocates_its_own_rows_only(self, paired):
        # indexed out of the window view: no copy of the view, which holds every position of the data
        K, B = 4, 64
        gen = np.random.default_rng(5)
        if paired:
            pairs = [("".join(gen.choice(list("abcd"), 20)), "".join(gen.choice(list("abcd"), 30))) for _ in range(2000)]
            data = encode_pairs(build_vocab("abcd"), pairs)
        else:
            data = gen.integers(2, 6, 100_000)
        batches = split_data(data, K)[0](B, 0)
        next(batches)  # the epoch's shuffled order is drawn with the first batch
        tracemalloc.start()
        try:
            contexts, targets = next(batches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert contexts.flags.c_contiguous and targets.flags.c_contiguous
        assert peak < 4 * (contexts.nbytes + targets.nbytes) + 4096

    def test_batches_drawn_through_make_seq_batches_at_call_time(self, monkeypatch):
        train_mod = importlib.import_module("scorelm.train")  # the package's `train` is the function

        seqs = [TokenSeq([2, 3, 1, 4, 1], loss_mask=[False] * 3 + [True] * 2) for _ in range(20)]
        drawn = []

        def spy(items, batch_size, seed):
            for batch in make_seq_batches(items, batch_size, seed):
                drawn.append(batch)
                yield batch

        batches, _ = split_data(encode_pairs(build_vocab("ab"), [("a", "b")] * 20), 2)
        monkeypatch.setattr(train_mod, "make_seq_batches", spy)
        assert len(list(batches(4, 7))) == len(drawn) == 5
        assert sorted(i for batch in drawn for i in batch) == list(range(18))

    def test_train_on_packed_and_listed_records_writes_the_same_bytes(self, tmp_path):
        vocab = build_vocab("abcdef")
        gen = np.random.default_rng(4)
        pairs = []
        for _ in range(40):
            src = "".join(gen.choice(list("abcdef"), int(gen.integers(1, 7))))
            pairs.append((src, src[::-1]))
        model_cfg = ModelConfig(vocab_size=vocab.size, context=3, embed_dim=4, hidden_dim=8, seed=2)
        cfg = TrainConfig(rule=ScoreRule("brier"), smoothing=SmoothingConfig(0.1, mask_enhanced=True), steps=25,
                          batch_size=6, eval_every=5, seed=9)
        outputs = []
        for name, data in (("packed", encode_pairs(vocab, pairs)),
                           ("listed", [encode_pair(vocab, s, t) for s, t in pairs])):
            metrics, ckpt = tmp_path / f"{name}.metrics.jsonl", tmp_path / f"{name}.ckpt.json"
            train(cfg, model_cfg, data, metrics_path=metrics, checkpoint_path=ckpt, symbols=vocab.symbols)
            outputs.append((metrics.read_bytes(), ckpt.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 5

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

    def test_symbol_table_carried(self, base, corpus):
        base = dataclasses.replace(base, symbols=["<pad>", "<eos>", "w", "x", "y", "z"])
        out, _ = finetune(base, quick_cfg("brier", steps=3), corpus)
        assert out.symbols == base.symbols

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


class TestLibraryConfigTypes:
    @pytest.mark.parametrize("build, message", [
        (lambda: SmoothingConfig(0.1, "no"), "SmoothingConfig field 'mask_enhanced' must be a boolean, got 'no'"),
        (lambda: SmoothingConfig(True), "SmoothingConfig field 'eps' must be a number, got True"),
        (lambda: ModelConfig(6, True, 8, 16), "ModelConfig field 'context' must be an integer, got True"),
        (lambda: ModelConfig(6, 1, 8, 16.0), "ModelConfig field 'hidden_dim' must be an integer, got 16.0"),
        (lambda: ModelConfig(6, np.bool_(True), 8, 16), "ModelConfig field 'context' must be an integer, got True"),
        (lambda: TrainConfig(ScoreRule("brier"), steps=3.5), "TrainConfig field 'steps' must be an integer, got 3.5"),
        (lambda: TrainConfig(ScoreRule("brier"), lr_decay="no"),
         "TrainConfig field 'lr_decay' must be a boolean, got 'no'"),
        (lambda: TrainConfig(ScoreRule("brier"), learning_rate="0.1"),
         "TrainConfig field 'learning_rate' must be a number, got '0.1'"),
        (lambda: TrainConfig("brier"), "TrainConfig field 'rule' must be a ScoreRule, got 'brier'"),
        (lambda: ScoreRule(b"brier"), "ScoreRule field 'kind' must be a string, got b'brier'"),
        (lambda: ModelConfig(6, 1, 8, 16, seed=-1), "ModelConfig field 'seed' must lie in [0, 2**64), got -1"),
        (lambda: ModelConfig(6, 1, 8, 16, seed=2**64 + 1),
         "ModelConfig field 'seed' must lie in [0, 2**64), got 18446744073709551617"),
        (lambda: TrainConfig(ScoreRule("brier"), seed=-1), "TrainConfig field 'seed' must be >= 0, got -1"),
        (lambda: BeamConfig(beam_size=2.0), "BeamConfig field 'beam_size' must be an integer, got 2.0"),
    ], ids=["mask-string", "eps-bool", "context-bool", "hidden-float", "context-numpy-bool", "steps-float",
            "lr_decay-string", "learning_rate-string", "rule-string", "kind-bytes", "model-seed-negative",
            "model-seed-2**64+1", "train-seed-negative", "beam-float"])
    def test_refused_by_field(self, build, message):
        with pytest.raises(ConfigurationError) as info:
            build()
        assert str(info.value) == message

    def test_numpy_scalars_are_stored_as_python_scalars(self):
        cfg = ModelConfig(np.int64(6), np.int32(1), 8, 16, seed=np.uint64(2**64 - 1))
        assert cfg == ModelConfig(6, 1, 8, 16, seed=2**64 - 1) and type(cfg.seed) is int
        assert init_params(cfg).flat.tobytes() == init_params(ModelConfig(6, 1, 8, 16, seed=2**64 - 1)).flat.tobytes()
        smoothing = SmoothingConfig(np.float32(0.5), np.bool_(True))
        assert (type(smoothing.eps), type(smoothing.mask_enhanced)) == (float, bool)

    def test_integers_taken_for_number_fields(self):
        assert SmoothingConfig(1).eps == 1 and ScoreRule("alpha_power", 3).alpha == 3
