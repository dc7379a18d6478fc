"""Training loop: Adam with linear warmup, pretrain / fine-tune workflows,
and per-checkpoint score-dynamics tracking."""

import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import Checkpoint
from .data import make_batches, make_seq_batches
from .errors import ConfigurationError, InvalidInputError
from .model import (
    ModelConfig,
    Parameters,
    TokenSeq,
    _check_ids,
    _forward_batch,
    _gather_positions,
    init_params,
    loss_and_grads,
)
from .scores import NO_SMOOTHING, ScoreRule, SmoothingConfig, token_losses_and_grads

HELD_OUT_FRACTION = 0.1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    rule: ScoreRule
    smoothing: SmoothingConfig = NO_SMOOTHING
    steps: int = 2000
    batch_size: int = 64
    learning_rate: float = 1e-3
    warmup_steps: int = 100
    eval_every: int = 100
    seed: int = 0
    lr_decay: bool = False  # linear decay to 0 between warmup_steps and steps

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {self.steps}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1 or self.eval_every < 1 or self.warmup_steps < 0:
            raise ConfigurationError("batch_size/eval_every must be >= 1 and warmup_steps >= 0")


@dataclass
class MetricsRecord:
    """Held-out metrics at one step.  Field names are the wire format."""

    step: int
    loss: float
    score_log: float
    score_brier: float
    score_spherical: float
    ppl: float
    rel_log: float | None
    rel_brier: float | None
    rel_spherical: float | None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, laid out like Parameters.flat
    v: np.ndarray

    @staticmethod
    def fresh(params: Parameters) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: Parameters, grads: Parameters, state: AdamState, step_index: int, cfg: TrainConfig):
    """One bias-corrected Adam update at 1-based step_index, with linear
    warmup of the learning rate over cfg.warmup_steps (and, when cfg.lr_decay
    is set, linear decay to zero over the remaining steps; constant-rate Adam
    orbits rather than settles, which matters at desk scale)."""
    lr = cfg.learning_rate
    if cfg.warmup_steps > 0:
        lr *= min(1.0, step_index / cfg.warmup_steps)
    if cfg.lr_decay and step_index > cfg.warmup_steps:
        lr *= max(0.0, (cfg.steps - step_index) / max(1, cfg.steps - cfg.warmup_steps))
    bc1 = 1.0 - ADAM_BETA1**step_index
    bc2 = 1.0 - ADAM_BETA2**step_index
    g, m, v = grads.flat, state.m, state.v
    if not np.all(np.isfinite(g)):
        name = next(name for name, t in grads.named() if not np.all(np.isfinite(t)))
        raise FloatingPointError(f"non-finite gradient in tensor {name!r} at step {step_index}")
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    params.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def relative_change(s_new: float, s_old: float) -> float:
    """(s_new - s_old) / |s_old|; positive means improvement."""
    if s_old == 0:
        raise ZeroDivisionError("reference score is zero; relative change undefined")
    return (s_new - s_old) / abs(s_old)


def _split_data(data):
    """Normalize data into (mode, train part, held-out part).

    Accepts a token id array / TokenSeq (sliding-window mode) or a list of
    TokenSeq (sequence mode).  The held-out part is the final 10%, never
    shuffled into training.
    """
    if isinstance(data, TokenSeq):
        data = data.tokens
    if isinstance(data, list) and data and isinstance(data[0], TokenSeq):
        n_held = len(data) // 10
        if n_held == 0:
            raise InvalidInputError(f"paired data needs at least 10 records for a held-out split, got {len(data)}")
        return "seqs", data[:-n_held], data[-n_held:]
    tokens = np.asarray(data, dtype=np.int64)
    if tokens.ndim != 1:
        raise InvalidInputError(f"corpus tokens must be 1-D, got shape {tokens.shape}")
    split = int(round(tokens.size * (1.0 - HELD_OUT_FRACTION)))
    return "corpus", tokens[:split], tokens[split:]


def _check_data_ids(mode, train_part, held, V: int):
    """The one id check of a training run, over both splits."""
    if mode == "corpus":
        parts = (train_part, held)
    else:
        parts = (np.concatenate([seq.tokens for seq in train_part + held]),)
    for ids in parts:
        _check_ids(ids, V)


def heldout_positions(data, K: int):
    """(contexts, targets) index arrays for every held-out position of data.

    The held-out part is the split training never sees: the final 10% of a
    corpus, scored only at positions with a full in-split history, or the
    final 10% of a sequence list, scored at its unmasked positions.  Ids are
    not checked here.
    """
    mode, _, held = _split_data(data)
    if mode == "seqs":
        return _gather_positions(held, K)
    if held.size <= K:
        raise InvalidInputError("held-out split shorter than the context window")
    rows = sliding_window_view(held, K + 1)
    return rows[:, :-1], rows[:, -1]


def evaluate_scores(params: Parameters, contexts: np.ndarray, targets: np.ndarray):
    """Mean held-out score per rule (log clamped so perplexity stays finite)."""
    _, _, Z = _forward_batch(params, contexts)
    out = {}
    for key, kind in (("log", "logarithmic"), ("brier", "brier"), ("spherical", "spherical")):
        losses, _ = token_losses_and_grads(ScoreRule(kind), NO_SMOOTHING, Z, targets)
        out[key] = float(-losses.mean())
    return out


def _safe_rel(s_new: float, s_old: float):
    return None if s_old == 0 else relative_change(s_new, s_old)


def _make_record(step, loss, scores, ref):
    return MetricsRecord(
        step=step,
        loss=loss,
        score_log=scores["log"],
        score_brier=scores["brier"],
        score_spherical=scores["spherical"],
        ppl=float(np.exp(-scores["log"])),
        rel_log=_safe_rel(scores["log"], ref["log"]),
        rel_brier=_safe_rel(scores["brier"], ref["brier"]),
        rel_spherical=_safe_rel(scores["spherical"], ref["spherical"]),
    )


def _batch_stream(mode, train_part, model_cfg: ModelConfig, cfg: TrainConfig):
    """Endless (contexts, targets) training batches, one epoch per seed."""
    K = model_cfg.context
    epoch = 0
    while True:
        if mode == "corpus":
            yield from make_batches(train_part, K, cfg.batch_size, cfg.seed + epoch)
        else:
            for batch in make_seq_batches(train_part, cfg.batch_size, cfg.seed + epoch):
                yield _gather_positions(batch, K)
        epoch += 1


def _run_loop(params, start_step, cfg, model_cfg, data, metrics_path, checkpoint_path):
    mode, train_part, held = _split_data(data)
    _check_data_ids(mode, train_part, held, model_cfg.vocab_size)
    eval_ctx, eval_tgt = heldout_positions(data, model_cfg.context)
    # relative-change reference: the model as it stands at loop entry
    ref_scores = evaluate_scores(params, eval_ctx, eval_tgt)

    state = AdamState.fresh(params)
    stream = _batch_stream(mode, train_part, model_cfg, cfg)
    records = []
    for step in range(1, cfg.steps + 1):
        contexts, targets = next(stream)
        loss, grads = loss_and_grads(params, contexts, targets, cfg.rule, cfg.smoothing)
        params, state = adam_step(params, grads, state, step, cfg)
        if step % cfg.eval_every == 0 or step == cfg.steps:
            scores = evaluate_scores(params, eval_ctx, eval_tgt)
            records.append(_make_record(start_step + step, loss, scores, ref_scores))

    ckpt = Checkpoint(
        model=model_cfg,
        rule=cfg.rule,
        smoothing=cfg.smoothing,
        step=start_step + cfg.steps,
        params=params,
    )
    if metrics_path is not None:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")
    if checkpoint_path is not None:
        ckpt.save(checkpoint_path)
    return ckpt, records


def train(cfg: TrainConfig, model_cfg: ModelConfig, data, metrics_path=None, checkpoint_path=None):
    """Train from scratch; the relative-change reference is the initial model.

    Returns (checkpoint, metrics records); optionally persists the metrics
    as JSON-lines and the final checkpoint.
    """
    if cfg.steps == 0:
        raise ConfigurationError("training requires steps > 0")
    params = init_params(model_cfg)
    return _run_loop(params, 0, cfg, model_cfg, data, metrics_path, checkpoint_path)


def finetune(base: Checkpoint, cfg: TrainConfig, data, model_cfg: ModelConfig | None = None,
             metrics_path=None, checkpoint_path=None):
    """Continue from a checkpoint with a (possibly different) rule.

    Optimizer state starts fresh; the relative-change reference is the base
    checkpoint.  steps = 0 returns the base checkpoint unchanged.
    """
    if model_cfg is not None and model_cfg != base.model:
        diffs = [f for f in vars(model_cfg) if getattr(model_cfg, f) != getattr(base.model, f)]
        raise ConfigurationError(f"model config mismatch with base checkpoint in fields: {', '.join(diffs)}")
    if cfg.steps == 0:
        return Checkpoint(base.model, cfg.rule, cfg.smoothing, base.step, base.params.copy()), []
    return _run_loop(base.params.copy(), base.step, cfg, base.model, data, metrics_path, checkpoint_path)
