"""Compact fixed-context feedforward next-token model.

The architecture is deliberately small: embed the last K tokens, concatenate,
one tanh hidden layer, linear output, softmax.  The point of the package is
the loss function, not the architecture, so forward and backward are exact
hand-derived numpy with no framework dependency.

Reserved token ids: PAD = 0 (left padding of short histories) and EOS = 1
(sequence separator / end of generation).  Real symbols start at 2.
"""

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .documents import check_field_types, read_ids, read_mask
from .errors import ConfigurationError, InvalidInputError
from .scores import ScoreRule, SmoothingConfig, _token_losses_and_grads
from .simplex import column_sum, softmax_rows

PAD_ID = 0
EOS_ID = 1
N_RESERVED = 2


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    context: int
    embed_dim: int
    hidden_dim: int
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"ModelConfig field 'seed' must lie in [0, 2**64), got {self.seed}")
        if self.vocab_size < 2:
            raise InvalidInputError(f"vocab_size must be >= 2, got {self.vocab_size}")
        for name in ("context", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")


def param_shapes(cfg: ModelConfig):
    """Each parameter tensor's (name, shape), in storage order."""
    V, K, d, h = cfg.vocab_size, cfg.context, cfg.embed_dim, cfg.hidden_dim
    return [("embed", (V, d)), ("w_hidden", (K * d, h)), ("b_hidden", (h,)), ("w_out", (h, V)), ("b_out", (V,))]


@dataclass
class Parameters:
    """Named weight tensors, each a view into one contiguous float64 vector, flat, in field order."""

    embed: np.ndarray
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        shapes = [(name, np.shape(t)) for name, t in self.named()]
        self._view(np.concatenate([np.ravel(t) for _, t in self.named()], dtype=np.float64), shapes)

    @classmethod
    def zeros(cls, shapes) -> "Parameters":
        """All-zero tensors laid out by shapes, (name, shape) pairs in storage order."""
        params = cls.__new__(cls)
        params._view(np.zeros(sum(math.prod(shape) for _, shape in shapes)), shapes)
        return params

    def _view(self, flat: np.ndarray, shapes):
        self.flat = flat
        offset = 0
        for name, shape in shapes:
            size = math.prod(shape)
            setattr(self, name, flat[offset : offset + size].reshape(shape))
            offset += size

    def named(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self) -> "Parameters":
        return Parameters(**dict(self.named()))


@dataclass
class TokenSeq:
    """Token ids plus a per-position loss mask (False = prompt, no loss)."""

    tokens: np.ndarray
    loss_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.tokens = read_ids(self.tokens, "tokens", shape=(None,))
        mask = np.ones(self.tokens.size, dtype=bool) if self.loss_mask is None else self.loss_mask
        self.loss_mask = read_mask(mask, "loss_mask", self.tokens.shape)

    def __len__(self):
        return int(self.tokens.size)


@dataclass(frozen=True)
class PackedSeqs:
    """Many TokenSeqs in one buffer: record i is tokens[offsets[i]:offsets[i + 1]]
    with its loss mask at the same positions."""

    tokens: np.ndarray     # int64, every record back to back
    loss_mask: np.ndarray  # bool, one flag per token
    offsets: np.ndarray    # int64, the len(self) + 1 record boundaries, from 0 to tokens.size

    def __post_init__(self):
        tokens = read_ids(self.tokens, "tokens", shape=(None,))
        mask = read_mask(self.loss_mask, "loss_mask", tokens.shape)
        offsets = read_ids(self.offsets, "offsets", shape=(None,))
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != tokens.size or np.any(np.diff(offsets) < 0):
            raise InvalidInputError(f"offsets must rise from 0 to the token count {tokens.size}")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "loss_mask", mask)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def pack(cls, seqs) -> "PackedSeqs":
        """The records of a list of TokenSeq, in list order."""
        offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
        np.cumsum([len(seq) for seq in seqs], out=offsets[1:])
        tokens = np.concatenate([np.zeros(0, dtype=np.int64), *(seq.tokens for seq in seqs)])
        mask = np.concatenate([np.zeros(0, dtype=bool), *(seq.loss_mask for seq in seqs)])
        return cls(tokens, mask, offsets)

    def __len__(self):
        return int(self.offsets.size - 1)

    def windows(self, K: int):
        """(windows, rows): the records laid in one stream, each behind K
        PAD_IDs, as the (N, K + 1) sliding window view of that stream, and
        the window row of every unmasked token, record after record.  Row
        rows[j] holds the K tokens before the j-th unmasked token, padded as
        context_window pads them, and then that token."""
        stream = np.insert(self.tokens, np.repeat(self.offsets[:-1], K), PAD_ID)
        rows = np.flatnonzero(self.loss_mask)
        # token t of record r lies at t + K (r + 1) in the stream, so its window starts at t + K r
        rows += K * (np.searchsorted(self.offsets, rows, side="right") - 1)
        if stream.size <= K:  # no token at all, and too few for one window
            return np.zeros((0, K + 1), dtype=np.int64), rows
        return sliding_window_view(stream, K + 1), rows


def init_params(cfg: ModelConfig) -> Parameters:
    """Deterministic initialization from cfg.seed via splitmix64.

    Weights are uniform in [-s, s] with s = 1/sqrt(fan_in); the embedding
    table uses fan_in = embed_dim.  Biases start at zero.  Identical seeds
    give bitwise-identical tensors on any platform.
    """
    params = Parameters.zeros(param_shapes(cfg))
    d, h = cfg.embed_dim, cfg.hidden_dim
    weights = [(params.embed, d), (params.w_hidden, cfg.context * d), (params.w_out, h)]
    u = rng.uniform(cfg.seed, sum(w.size for w, _ in weights), -1.0, 1.0)
    for w, fan_in in weights:
        w[...] = u[: w.size].reshape(w.shape) * (1.0 / np.sqrt(fan_in))
        u = u[w.size :]
    return params


def zero_grads(params: Parameters) -> Parameters:
    return Parameters.zeros([(name, t.shape) for name, t in params.named()])


def _forward(params: Parameters, contexts: np.ndarray, X: np.ndarray, H: np.ndarray, Z: np.ndarray):
    """contexts (N, K) -> logits, each layer written in place into the
    C-contiguous array given for it: X (N, K d) the concatenated inputs, H
    (N, h) the hidden layer and Z (N, V) the logits.  Returns Z.  The ids
    must be checked: the gather clips, which numpy does without buffering
    its output, and so reads the rows a checked id names."""
    N, K = contexts.shape
    params.embed.take(contexts, axis=0, out=X.reshape(N, K, -1), mode="clip")
    np.matmul(X, params.w_hidden, out=H)
    H += params.b_hidden
    np.tanh(H, out=H)
    np.matmul(H, params.w_out, out=Z)
    Z += params.b_out
    return Z


def forward(params: Parameters, context) -> np.ndarray:
    """Next-token distribution p(. | context) for exactly K token ids."""
    (V, d), (Kd, h) = params.embed.shape, params.w_hidden.shape
    context = read_ids(context, "context", V, (Kd // d,))
    Z = _forward(params, context[None, :], np.empty((1, Kd)), np.empty((1, h)), np.empty((1, V)))
    return softmax_rows(Z)[0]


def context_window(tokens: np.ndarray, t: int, K: int) -> np.ndarray:
    """The K tokens preceding position t, left-padded with PAD_ID."""
    lo = max(0, t - K)
    window = tokens[lo:t]
    if window.size < K:
        window = np.concatenate([np.full(K - window.size, PAD_ID, dtype=np.int64), window])
    return window


class Workspace:
    """The arrays of a training step on batches of up to `rows` rows, made
    once: the layers X, H and Z, the backward's dA and dX, the flat index
    of the embedding scatter, the table it is gathered from, and the
    gradient.  A batch of N rows runs on the leading N rows of each, whose
    views are made once per N, so a training run allocates none of them
    again, and what the process freed before does not decide what a step
    costs."""

    def __init__(self, params: Parameters, rows: int):
        V, d = params.embed.shape
        Kd, h = params.w_hidden.shape
        self.grads = zero_grads(params)
        self.table = np.arange(V * d, dtype=np.intp).reshape(V, d)  # row v: the flat places of embed[v]
        self._full = (np.empty((rows, Kd)), np.empty((rows, h)), np.empty((rows, V)),
                      np.empty((rows, h)), np.empty((rows, Kd)), np.empty((rows, Kd // d, d), dtype=np.intp))
        self._views = {}

    def views(self, N: int):
        """(X, H, Z, dA, dX, flat): the leading N rows of each array."""
        views = self._views.get(N)
        if views is None:
            views = self._views[N] = tuple(a[:N] for a in self._full)
        return views


def loss_and_grads(params: Parameters, contexts: np.ndarray, targets: np.ndarray,
                   rule: ScoreRule, cfg: SmoothingConfig, *, loss: bool = True):
    """Mean loss over N positions and its exact analytic gradient.

    contexts (N, K) and targets (N,) are id arrays read by read_ids, which
    refuses another shape or an id outside the vocabulary.  Positions are
    reduced in row order, so results are bitwise reproducible.  Returns
    (loss, grads) with grads shaped like params; with loss=False the loss
    is not formed and is None.  The step runs on a workspace of its own N
    rows; a training run's one workspace gives the same bytes.
    """
    V, d = params.embed.shape
    contexts = read_ids(contexts, "contexts", V, (None, params.w_hidden.shape[0] // d))
    targets = read_ids(targets, "targets", V, contexts.shape[:1])
    return _loss_and_grads(params, contexts, targets, rule, cfg, Workspace(params, targets.size), loss=loss)


def _loss_and_grads(params: Parameters, contexts: np.ndarray, targets: np.ndarray,
                    rule: ScoreRule, cfg: SmoothingConfig, work: Workspace, *, loss: bool = True):
    """loss_and_grads over ids the caller has already checked, on the
    workspace work, whose gradient it returns: training checks its data
    once at ingest, backward checks each batch."""
    grads = work.grads
    N = targets.size
    if N == 0:
        warnings.warn("loss over an all-masked batch is 0", stacklevel=3)
        grads.flat[:] = 0.0
        return (0.0 if loss else None), grads
    X, H, Z, dA, dX, flat = work.views(N)

    _forward(params, contexts, X, H, Z)
    losses, dZ = _token_losses_and_grads(rule, cfg, Z, targets, N, losses=loss)  # dZ of the mean
    mean = None if losses is None else float(losses.sum()) / N

    np.matmul(H.T, dZ, out=grads.w_out)
    column_sum(dZ, out=grads.b_out)
    np.matmul(dZ, params.w_out.T, out=dA)  # dH, then dH (1 - H H) in place
    H *= H
    dA *= np.subtract(1.0, H, out=H)
    np.matmul(X.T, dA, out=grads.w_hidden)
    column_sum(dA, out=grads.b_hidden)
    np.matmul(dA, params.w_hidden.T, out=dX)
    # np.add.at(embed gradient, contexts, dX) as one bincount over the flat places of the rows the
    # contexts name: it adds in the same order, so the sums are bitwise the same
    work.table.take(contexts, axis=0, out=flat, mode="clip")
    sums = np.bincount(flat.ravel(), weights=dX.ravel(), minlength=grads.embed.size)
    grads.embed[:] = sums.reshape(grads.embed.shape)
    return mean, grads


def backward(params: Parameters, batch, rule: ScoreRule, cfg: SmoothingConfig):
    """Batch loss (per-token mean over all unmasked positions) and its exact
    analytic gradient, for a list of TokenSeq.

    Packs the batch, checks every id, gathers its unmasked positions into
    index arrays and hands them to _loss_and_grads.  Returns (loss, grads)
    with grads shaped like params.
    """
    if not batch:
        raise InvalidInputError("batch is empty")
    records = PackedSeqs.pack(batch)
    V, d = params.embed.shape
    read_ids(records.tokens, "tokens", V)
    windows, rows = records.windows(params.w_hidden.shape[0] // d)
    picked = windows[rows]
    return _loss_and_grads(params, picked[:, :-1], picked[:, -1], rule, cfg, Workspace(params, rows.size))
