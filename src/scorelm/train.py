"""Training loop: Adam with linear warmup, pretrain / fine-tune workflows,
and per-checkpoint score-dynamics tracking."""

import json
from dataclasses import asdict, dataclass
from itertools import chain, count

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import Checkpoint, save_checkpoint
from .data import make_batches, make_seq_batches
from .documents import check_field_types, read_ids
from .errors import ConfigurationError, InvalidInputError
from .model import ModelConfig, PackedSeqs, Parameters, TokenSeq, Workspace, _forward, _loss_and_grads, init_params
from .scores import NO_SMOOTHING, RULES, ScoreRule, SmoothingConfig
from .simplex import softmax_rows

HELD_OUT_FRACTION = 0.1
EVAL_ROWS = 512  # distinct held-out contexts forwarded at a time
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
        check_field_types(self)
        if self.seed < 0:
            raise ConfigurationError(f"TrainConfig field 'seed' must be >= 0, got {self.seed}")
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

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))  # adam_step's temporaries

    @staticmethod
    def fresh(params: Parameters) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: Parameters, grads: Parameters, state: AdamState, step_index: int, cfg: TrainConfig):
    """One bias-corrected Adam update at 1-based step_index, with linear
    warmup of the learning rate over cfg.warmup_steps (and, when cfg.lr_decay
    is set, linear decay to zero over the remaining steps; constant-rate Adam
    orbits rather than settles, which matters at desk scale).

    The update is params -= lr * (m / bc1) / (sqrt(v / bc2) + eps), each
    operation done in place in the state's scratch vectors, in the order the
    expression evaluates, so no temporary is allocated."""
    lr = cfg.learning_rate
    if cfg.warmup_steps > 0:
        lr *= min(1.0, step_index / cfg.warmup_steps)
    if cfg.lr_decay and step_index > cfg.warmup_steps:
        lr *= max(0.0, (cfg.steps - step_index) / max(1, cfg.steps - cfg.warmup_steps))
    bc1 = 1.0 - ADAM_BETA1**step_index
    bc2 = 1.0 - ADAM_BETA2**step_index
    g, m, v = grads.flat, state.m, state.v
    if not np.isfinite(g).all():
        name = next(name for name, t in grads.named() if not np.all(np.isfinite(t)))
        raise FloatingPointError(f"non-finite gradient in tensor {name!r} at step {step_index}")
    a, b = state.scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=a)
    v += np.multiply(a, g, out=a)
    np.divide(m, bc1, out=a)
    a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    params.flat -= np.divide(a, b, out=a)
    return params, state


def relative_change(s_new: float, s_old: float) -> float:
    """(s_new - s_old) / |s_old|; positive means improvement."""
    if s_old == 0:
        raise ZeroDivisionError("reference score is zero; relative change undefined")
    return (s_new - s_old) / abs(s_old)


def _records_split(records: PackedSeqs, K: int, V: int | None):
    """_split_data for paired records, read through records.windows(K): a
    batch is the window rows of its records' unmasked tokens, in the order
    that make_seq_batches draws the records, and the held-out part those of
    the last records.  No batch has more rows than the batch_size training
    records with the most unmasked tokens.
    """
    n = len(records)
    n_held = n // 10
    if n_held == 0:
        raise InvalidInputError(f"paired data needs at least 10 records for a held-out split, got {n}")
    read_ids(records.tokens, "tokens", V)
    windows, rows = records.windows(K)
    # the unmasked tokens before each record boundary: record i's rows are rows[first[i]:first[i + 1]]
    first = np.concatenate(([0], np.cumsum(records.loss_mask)))[records.offsets]

    contexts, targets = windows[:, :-1], windows[:, -1]

    def gather(picked):  # the C-contiguous (contexts, targets) of the window rows picked
        return contexts[picked], targets[picked]

    held = gather(rows[first[n - n_held] :])
    if held[1].size == 0:
        raise InvalidInputError(f"the {n_held} held-out records have no unmasked position to score")

    def picks(batch_size, seed):  # each batch's window rows, its records drawn by make_seq_batches
        for batch in make_seq_batches(range(n - n_held), batch_size, seed):
            sel = np.asarray(batch, dtype=np.int64)  # record ids
            starts, counts = first[sel], first[sel + 1] - first[sel]
            # batch entry j of record r is rows[starts[r] + j - out[r]], out[r] being r's first batch entry
            out = np.cumsum(counts) - counts
            yield rows[np.arange(counts.sum()) + np.repeat(starts - out, counts)]

    def batches(batch_size, seed):
        return map(gather, picks(batch_size, seed))

    def keyed():
        keys = _digits(contexts, targets, V)  # every window row's pair key
        return lambda batch_size, seed: ((None, keys[picked]) for picked in picks(batch_size, seed))

    sizes = np.sort(np.diff(first[: n - n_held + 1]))[::-1]  # the training records' row counts, largest first

    def batch_rows(batch_size):
        return int(sizes[:batch_size].sum())

    return batches, batch_rows, keyed, held


def split_data(data, K: int, V: int | None = None):
    """The one training/held-out split of data: (batches, (contexts, targets)).

    data is a corpus (a token id array, or a TokenSeq with no masked
    position) or paired records (PackedSeqs, or a list of TokenSeq, which is
    packed first).  The held-out part is the final 10%, never shuffled into
    training: a corpus tail scored at the positions with a full in-split
    history, or the last records scored at their unmasked positions.
    batches(batch_size, seed) yields one epoch of training (contexts,
    targets) index arrays, shuffled by seed.  When V is given, every id of
    both parts is checked before anything else.  A held-out part with no
    position to score is refused.
    """
    batches, _, _, held = _split_data(data, K, V)
    return batches, held


def _split_data(data, K: int, V: int | None):
    """split_data, and between its two parts batch_rows(batch_size), the
    most rows a training batch of batch_size can have, and keyed(), which
    keys every training row once (_digits) and returns the draw of
    batches' rows as (anything, their pair keys), batch for batch."""
    if isinstance(data, TokenSeq):
        if not data.loss_mask.all():
            raise InvalidInputError("a corpus has no loss mask; pass masked (paired) data as a list of TokenSeq "
                                    "or as PackedSeqs")
        data = data.tokens
    if isinstance(data, list) and data and isinstance(data[0], TokenSeq):
        data = PackedSeqs.pack(data)
    if isinstance(data, PackedSeqs):
        return _records_split(data, K, V)
    tokens = read_ids(data, "corpus tokens", V, (None,))
    split = int(round(tokens.size * (1.0 - HELD_OUT_FRACTION)))
    if tokens.size - split <= K:
        raise InvalidInputError("held-out split shorter than the context window")

    def batches(batch_size, seed):
        return make_batches(tokens[:split], K, batch_size, seed)

    def batch_rows(batch_size):  # make_batches yields one row per position K..split - 1
        return min(batch_size, max(split - K, 0))

    def keyed():
        # row t - K of the windows is position t's pair: its shuffle depends only on the row count,
        # so make_batches draws the keys of batches' positions in batches' order
        rows = sliding_window_view(tokens[:split], K + 1)
        keys = _digits(rows[:, :-1], rows[:, -1], V)
        return lambda batch_size, seed: make_batches(keys, 0, batch_size, seed)

    rows = sliding_window_view(tokens[split:], K + 1)
    return batches, batch_rows, keyed, (rows[:, :-1], rows[:, -1])


SCORE_FIELDS = {  # metrics field -> the rule whose mean held-out score it reports
    "score_log": ScoreRule("logarithmic"),
    "score_brier": ScoreRule("brier"),
    "score_spherical": ScoreRule("spherical"),
}


def distinct_pairs(contexts: np.ndarray, targets: np.ndarray):
    """(C, pair_row, pair_target, position_pair): the distinct contexts C, in
    the order of their first position, each distinct (context, target)
    pair's row in C and its target, and each position's pair, so that
    position n is (C[pair_row[j]], pair_target[j]) at j = position_pair[n].
    One lexsort groups the positions; contexts that are all distinct are C
    itself."""
    N = targets.size
    order = np.lexsort((targets, *contexts.T))
    ctx, tgt = contexts[order], targets[order]
    new_ctx = np.ones(N, dtype=bool)
    np.any(ctx[1:] != ctx[:-1], axis=1, out=new_ctx[1:])
    new_pair = new_ctx.copy()
    new_pair[1:] |= tgt[1:] != tgt[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(new_ctx))  # each context's first position
    is_first = np.zeros(N, dtype=bool)
    is_first[first] = True
    row = (np.cumsum(is_first) - 1)[first]  # each context's row in C
    position_pair = np.empty(N, dtype=np.int64)
    position_pair[order] = np.cumsum(new_pair) - 1
    return contexts[is_first], row[np.cumsum(new_ctx)[new_pair] - 1], tgt[new_pair], position_pair


def _keyed_pairs(contexts: np.ndarray, targets: np.ndarray, V: int):
    """distinct_pairs(contexts, targets), bit for bit, from the positions' pair keys at O(N + V^(K + 1))
    cost.  The keys are _digits of the context read last id first, the order of lexsort's keys, so one
    bincount finds the pairs in distinct_pairs' order; each context's first position is the least
    position of its context key."""
    N, K = contexts.shape
    keys = _digits(contexts[:, ::-1], targets, V)
    pairs = np.flatnonzero(np.bincount(keys, minlength=V ** (K + 1)))
    first = np.full(V**K, N)
    np.minimum.at(first, keys // V, np.arange(N))
    starts = np.sort(first[first < N])  # the distinct contexts' first positions, in order: C's rows
    pair = np.empty(V ** (K + 1), dtype=np.int64)  # each pair key's place among the pairs
    pair[pairs] = np.arange(pairs.size)
    return contexts[starts], np.searchsorted(starts, first[pairs // V]), pairs % V, pair[keys]


def _held_out_logits(params: Parameters, C: np.ndarray) -> np.ndarray:
    """The (C, V) logits of the distinct contexts C, forwarded EVAL_ROWS
    rows at a time through one input and one hidden layer of that many
    rows, each block written into its rows of the logits."""
    n = C.shape[0]
    rows = min(n, EVAL_ROWS)
    X, H = np.empty((rows, params.w_hidden.shape[0])), np.empty((rows, params.w_hidden.shape[1]))
    Z = np.empty((n, params.embed.shape[0]))
    for lo in range(0, n, EVAL_ROWS):
        hi = min(lo + EVAL_ROWS, n)
        _forward(params, C[lo:hi], X[: hi - lo], H[: hi - lo], Z[lo:hi])
    return Z


def evaluate_scores(params: Parameters, contexts: np.ndarray, targets: np.ndarray):
    """Mean held-out score per SCORE_FIELDS rule, keyed by its metrics field,
    and ppl = exp(-score_log) (log clamped so perplexity stays finite).

    Each distinct context is forwarded once, in blocks of EVAL_ROWS rows,
    and each distinct (context, target) pair scored once; every rule's mean
    then runs over the N positions' scores in position order.  So a
    position's score depends only on its pair, and the bytes are those of
    scoring every position on the logits of that blocked forward of the
    distinct contexts, whose memory is O(EVAL_ROWS K d + N V).  A forward
    of every position, or of all distinct contexts at once, is the same
    product, and at another row count may round a row in the last bits.
    contexts (N, K) and targets (N,) are read by read_ids, and N = 0 refused;
    their distinct contexts and pair targets are checked against the vocabulary."""
    contexts = read_ids(contexts, "contexts", shape=(None, params.context))
    targets = read_ids(targets, "targets", shape=contexts.shape[:1])
    if targets.size == 0:
        raise InvalidInputError("the held-out part has no position to score")
    held = distinct_pairs(contexts, targets)
    read_ids(held[0], "contexts", params.embed.shape[0])
    read_ids(held[2], "targets", params.embed.shape[0])
    return _held_out_scores(params, held)


def _held_out_scores(params: Parameters, held):
    """evaluate_scores of a held-out part split by distinct_pairs, its ids already checked."""
    C, pair_row, pair_target, position_pair = held
    P = softmax_rows(_held_out_logits(params, C))
    p_obs = P[pair_row, pair_target][:, None]
    P = P.take(pair_row, axis=0)
    scores = {field: float(RULES[rule.kind].clamped(P, p_obs, rule.alpha)[:, 0].take(position_pair).mean())
              for field, rule in SCORE_FIELDS.items()}
    scores["ppl"] = float(np.exp(-scores["score_log"]))
    return scores


def _safe_rel(s_new: float, s_old: float):
    return None if s_old == 0 else relative_change(s_new, s_old)


def _make_record(step, loss, scores, ref):
    rel = {field.replace("score_", "rel_"): _safe_rel(scores[field], ref[field]) for field in SCORE_FIELDS}
    return MetricsRecord(step=step, loss=loss, **scores, **rel)


def _digits(contexts: np.ndarray, targets: np.ndarray, V: int) -> np.ndarray:
    """Each position's (context, target) pair key: its K + 1 ids as base-V digits, first id first,
    so that keys order pairs lexicographically."""
    keys = contexts[:, 0] * V
    for column in contexts.T[1:]:
        keys += column
        keys *= V
    keys += targets
    return keys


class PairLayout:
    """Every array of a grouped step that its distinct pair keys alone decide: the keys' bytes, the
    pairs' (contexts, targets), the contexts' embedding scatter index, gathered from the workspace's
    table, and the rule part's observed-entry indexes, made at the first step that reads them."""

    def __init__(self, keys: np.ndarray, V: int, K: int, table: np.ndarray):
        self.keys = keys.tobytes()
        self.contexts, self.targets = keys[:, None] // V ** np.arange(K, 0, -1) % V, keys % V
        self.scatter = table.take(self.contexts, axis=0)
        self.index = {}


def _run_loop(params, start_step, cfg, model_cfg, data, metrics_path, checkpoint_path, symbols):
    V, K = model_cfg.vocab_size, model_cfg.context
    batches, batch_rows, keyed, (eval_ctx, eval_tgt) = _split_data(data, K, V)
    n_pairs = V ** (K + 1)
    # split once per call; _split_data has checked its ids against V, so a small pair space is keyed
    held = _keyed_pairs(eval_ctx, eval_tgt, V) if n_pairs <= eval_tgt.size else distinct_pairs(eval_ctx, eval_tgt)
    # relative-change reference: the model as it stands at loop entry
    ref_scores = _held_out_scores(params, held)

    state = AdamState.fresh(params)
    rows = min(batch_rows(cfg.batch_size), n_pairs)
    grouped = rows == n_pairs  # batches can hold every pair; else pairs rarely repeat and keys could overflow
    work = Workspace(params, rows)  # every step runs here and writes its gradient here
    draw = keyed() if grouped else batches  # a grouped step reads only its positions' pair keys
    stream = chain.from_iterable(draw(cfg.batch_size, cfg.seed + epoch) for epoch in count())
    records, layout, pairs = [], None, None
    for step in range(1, cfg.steps + 1):
        contexts, targets = next(stream)
        recorded = step % cfg.eval_every == 0 or step == cfg.steps
        if grouped:  # targets are the pair keys: the distinct ones, in order, and their counts
            counts = np.bincount(targets, minlength=n_pairs)
            keys = counts.nonzero()[0]
            if layout is None or layout.keys != keys.tobytes():
                layout = PairLayout(keys, V, K, work.table)
            pairs = layout, counts[keys]
        loss, grads = _loss_and_grads(params, contexts, targets, cfg.rule, cfg.smoothing, work, loss=recorded, pairs=pairs)
        params, state = adam_step(params, grads, state, step, cfg)
        if recorded:
            scores = _held_out_scores(params, held)
            records.append(_make_record(start_step + step, loss, scores, ref_scores))

    ckpt = Checkpoint(
        model=model_cfg,
        rule=cfg.rule,
        smoothing=cfg.smoothing,
        step=start_step + cfg.steps,
        params=params,
        symbols=symbols,
    )
    if metrics_path is not None:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, ckpt)
    return ckpt, records


def train(cfg: TrainConfig, model_cfg: ModelConfig, data, metrics_path=None, checkpoint_path=None,
          symbols=None):
    """Train from scratch; the relative-change reference is the initial model.

    Returns (checkpoint, metrics records); optionally persists the metrics
    as JSON-lines and the final checkpoint.  symbols, the vocabulary in id
    order, is stored as the checkpoint's symbol table.
    """
    if cfg.steps == 0:
        raise ConfigurationError("training requires steps > 0")
    params = init_params(model_cfg)
    return _run_loop(params, 0, cfg, model_cfg, data, metrics_path, checkpoint_path, symbols)


def finetune(base: Checkpoint, cfg: TrainConfig, data, model_cfg: ModelConfig | None = None,
             metrics_path=None, checkpoint_path=None):
    """Continue from a checkpoint with a (possibly different) rule.

    Optimizer state starts fresh; the relative-change reference is the base
    checkpoint, whose symbol table carries over.  steps = 0 saves the base
    parameters under the new rule.
    """
    if model_cfg is not None and model_cfg != base.model:
        diffs = [f for f in vars(model_cfg) if getattr(model_cfg, f) != getattr(base.model, f)]
        raise ConfigurationError(f"model config mismatch with base checkpoint in fields: {', '.join(diffs)}")
    return _run_loop(base.params.copy(), base.step, cfg, base.model, data, metrics_path, checkpoint_path,
                     base.symbols)
