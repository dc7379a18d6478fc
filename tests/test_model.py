import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scorelm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from scorelm.errors import InvalidInputError
from scorelm.model import (
    ModelConfig,
    PackedSeqs,
    Parameters,
    TokenSeq,
    Workspace,
    _loss_and_grads,
    backward,
    context_window,
    forward,
    init_params,
    loss_and_grads,
    param_shapes,
    zero_grads,
)
from scorelm.scores import NO_SMOOTHING, ScoreRule, SmoothingConfig, token_losses_and_grads

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
    """Per-position loop over context_window: the reference for PackedSeqs.windows."""
    rows = [(context_window(s.tokens, int(t), K), s.tokens[t]) for s in seqs for t in np.flatnonzero(s.loss_mask)]
    contexts = np.asarray([c for c, _ in rows], dtype=np.int64).reshape(len(rows), K)
    return contexts, np.asarray([t for _, t in rows], dtype=np.int64)


def gathered(seqs, K):
    """(contexts, targets) of every unmasked position of seqs, read through PackedSeqs.windows."""
    windows, rows = PackedSeqs.pack(seqs).windows(K)
    picked = windows[rows]
    return picked[:, :-1], picked[:, -1]


class TestWindows:
    @pytest.mark.parametrize("K", [1, 3, 6, 14])  # at 14 every window reaches into the pads before its record
    def test_matches_per_position_loop(self, K):
        gen = np.random.default_rng(K)
        for _ in range(20):
            seqs = []
            for _ in range(int(gen.integers(0, 6))):
                n = int(gen.integers(0, 12))  # empty, shorter and longer than K
                mask = gen.random(n) < gen.choice([0.0, 0.5, 1.0])  # all-masked rows included
                seqs.append(TokenSeq(gen.integers(0, 9, size=n), loss_mask=mask))
            contexts, targets = gathered(seqs, K)
            want_c, want_t = gather_reference(seqs, K)
            assert contexts.dtype == want_c.dtype and contexts.shape == want_c.shape
            assert np.array_equal(contexts, want_c)
            assert targets.dtype == want_t.dtype and targets.shape == want_t.shape
            assert np.array_equal(targets, want_t)

    def test_empty_and_all_masked(self):
        for seqs in ([], [TokenSeq([2, 3], loss_mask=[False, False])]):
            contexts, targets = gathered(seqs, 4)
            assert contexts.shape == (0, 4) and targets.shape == (0,)

    def test_sequences_without_tokens(self):
        # fewer tokens than one window holds: no position, not a numpy error
        for seqs in ([TokenSeq([])], [TokenSeq([]), TokenSeq([])]):
            contexts, targets = gathered(seqs, 3)
            assert contexts.shape == (0, 3) and targets.shape == (0,)
        contexts, targets = gathered([TokenSeq([]), TokenSeq([5])], 3)
        assert contexts.tolist() == [[0, 0, 0]] and targets.tolist() == [5]


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
            i = 2
            z_up = z.copy()
            z_up[i] += 0.5
            base, up = token_losses_and_grads(rule, NO_SMOOTHING, np.stack([z, z_up]), [i, i])[0]
            assert up < base


def ref_loss_and_grads(params, contexts, targets, rule, cfg, *, loss=True, rule_part=token_losses_and_grads,
                       counts=None):
    """loss_and_grads as written before it ran on a workspace: each layer
    and gradient formed in a temporary and copied into a fresh Parameters,
    the bias gradients summed by numpy and the embedding's scattered by
    np.add.at, with rule_part(rule, cfg, Z, targets, losses=loss) as the
    rule part.  Given counts, row q stands for counts[q] positions: its
    loss and its dZ of the mean over all positions are scaled by its count."""
    N = targets.size if counts is None else int(counts.sum())  # the positions
    if N == 0:
        warnings.warn("loss over an all-masked batch is 0", stacklevel=2)
        return (0.0 if loss else None), zero_grads(params)
    K = contexts.shape[1]
    d = params.embed.shape[1]
    X = params.embed[contexts].reshape(targets.size, K * d)
    H = X @ params.w_hidden
    H += params.b_hidden
    np.tanh(H, out=H)
    Z = H @ params.w_out + params.b_out
    losses, dZ = rule_part(rule, cfg, Z, targets, losses=loss)
    if counts is not None and losses is not None:
        losses = losses * counts
    mean = None if losses is None else float(losses.sum()) / N
    dZ /= N
    if counts is not None:
        dZ *= counts[:, None]
    grads = zero_grads(params)
    grads.w_out[:] = H.T @ dZ
    grads.b_out[:] = dZ.sum(axis=0)
    dH = dZ @ params.w_out.T
    dA = dH * (1.0 - H * H)
    grads.w_hidden[:] = X.T @ dA
    grads.b_hidden[:] = dA.sum(axis=0)
    dX = (dA @ params.w_hidden.T).reshape(targets.size, K, d)
    np.add.at(grads.embed, contexts, dX)
    return mean, grads


PROPER_RULES = [r for r in RULES if r.kind != "linear"] + [ScoreRule("alpha_power", 3.0),
                                                          ScoreRule("pseudo_spherical", 1.5)]
SMOOTHINGS = [NO_SMOOTHING, SmoothingConfig(0.1), SmoothingConfig(0.1, mask_enhanced=True)]


@st.composite
def workspace_cases(draw):
    """(params, batches): a model of any small shape, its weights scaled up
    to put probabilities inside the clamp, and (contexts, targets, loss) of
    512, then 287, 0 and 400 rows, the contexts contiguous or a window view."""
    V, K, d, h = draw(st.integers(2, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    params = init_params(ModelConfig(vocab_size=V, context=K, embed_dim=d, hidden_dim=h, seed=seed))
    params.flat *= draw(st.sampled_from([1.0, 5.0, 20.0]))
    gen = np.random.default_rng(seed)
    batches = []
    for n in (512, 287, 0, 400):
        rows = gen.integers(0, V, (n, K + 1))
        contexts = rows[:, :-1] if draw(st.booleans()) else np.ascontiguousarray(rows[:, :-1])
        batches.append((contexts, rows[:, -1], draw(st.booleans())))
    return params, batches


def poisoned_workspace(params, rows):
    """A Workspace whose every array holds what a step must not read: NaN,
    and -1 in the scatter's flat index."""
    work = Workspace(params, rows)
    work.grads.flat[:] = np.nan
    for a in work.views(rows):
        a.fill(-1 if a.dtype.kind == "i" else np.nan)
    return work


class TestWorkspace:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=workspace_cases())
    @pytest.mark.parametrize("cfg", SMOOTHINGS, ids=["eps0", "eps0.1", "eps0.1-mask"])
    @pytest.mark.parametrize("rule", PROPER_RULES, ids=lambda r: f"{r.kind}-{r.alpha}")
    def test_one_workspace_over_shrinking_and_growing_batches_equals_fresh_calls_bitwise(self, rule, cfg, case):
        params, batches = case
        work = poisoned_workspace(params, 512)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the all-masked batch warns in both
            for contexts, targets, loss in batches:
                got_loss, got = _loss_and_grads(params, contexts, targets, rule, cfg, work, loss=loss)
                want_loss, want = ref_loss_and_grads(params, contexts, targets, rule, cfg, loss=loss)
                assert got is work.grads
                assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
                assert got.flat.tobytes() == want.flat.tobytes()
                fresh_loss, fresh = loss_and_grads(params, contexts, targets, rule, cfg, loss=loss)
                assert fresh is not got and fresh.flat.tobytes() == want.flat.tobytes()
                assert np.float64(fresh_loss).tobytes() == np.float64(want_loss).tobytes()

    def test_views_are_the_leading_rows_made_once_per_row_count(self):
        params = init_params(ModelConfig(vocab_size=5, context=3, embed_dim=2, hidden_dim=4, seed=1))
        work = Workspace(params, 10)
        full = work.views(10)
        assert [a.shape for a in full] == [(10, 6), (10, 4), (10, 5), (10, 4), (10, 6), (10, 3, 2)]
        for n in (0, 7, 10):
            views = work.views(n)
            assert work.views(n) is views
            for view, whole in zip(views, full):
                assert view.shape[0] == n and view.flags.c_contiguous
                assert n == 0 or np.shares_memory(view, whole) and view.ctypes.data == whole.ctypes.data

    def test_all_masked_batch_zeroes_the_gradient_and_warns(self):
        params = init_params(ModelConfig(vocab_size=5, context=2, embed_dim=3, hidden_dim=4, seed=1))
        work = poisoned_workspace(params, 4)
        with pytest.warns(UserWarning, match="all-masked"):
            loss, got = _loss_and_grads(params, np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64),
                                        ScoreRule("brier"), NO_SMOOTHING, work)
        assert loss == 0.0 and got is work.grads and got.flat.tobytes() == np.zeros_like(got.flat).tobytes()

    @pytest.mark.parametrize("bad", [-1, -3, 6])
    @pytest.mark.parametrize("where", ["target", "context"])
    def test_out_of_range_id_refused_by_value(self, where, bad):
        params = init_params(ModelConfig(vocab_size=6, context=2, embed_dim=4, hidden_dim=8, seed=1))
        contexts, targets = np.array([[0, 2], [3, 4], [5, 1]]), np.array([2, 3, 4])
        (targets if where == "target" else contexts)[1] = bad
        with pytest.raises(InvalidInputError, match=f"^token id {bad} out of range for vocab size 6$"):
            loss_and_grads(params, contexts, targets, ScoreRule("brier"), NO_SMOOTHING)

    def test_embedding_gradient_sums_repeated_rows_as_add_at(self):
        # every context names row 2 at both places, and signed zeros meet in the sums
        params = init_params(ModelConfig(vocab_size=4, context=2, embed_dim=3, hidden_dim=5, seed=9))
        params.w_hidden[:3] = -0.0
        contexts, targets = np.full((6, 2), 2), np.array([0, 1, 2, 3, 0, 1])
        _, got = loss_and_grads(params, contexts, targets, ScoreRule("logarithmic"), NO_SMOOTHING)
        _, want = ref_loss_and_grads(params, contexts, targets, ScoreRule("logarithmic"), NO_SMOOTHING)
        assert got.embed.tobytes() == want.embed.tobytes()
        assert not got.embed[[0, 1, 3]].any() and got.embed[2].any()


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
