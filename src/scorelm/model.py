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
from .errors import InvalidInputError
from .scores import ScoreRule, SmoothingConfig, token_losses_and_grads
from .simplex import softmax_rows

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
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.loss_mask is None:
            self.loss_mask = np.ones(self.tokens.size, dtype=bool)
        else:
            self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
        if self.loss_mask.size != self.tokens.size:
            raise InvalidInputError(
                f"loss_mask length {self.loss_mask.size} != tokens length {self.tokens.size}"
            )

    def __len__(self):
        return int(self.tokens.size)


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


def _check_ids(ids: np.ndarray, V: int):
    if ids.size and (ids.min() < 0 or ids.max() >= V):
        bad = ids[(ids < 0) | (ids >= V)][0]
        raise InvalidInputError(f"token id {bad} out of range for vocab size {V}")


def _forward_batch(params: Parameters, contexts: np.ndarray):
    """contexts (N, K) -> (X, H, Z): concatenated inputs, hidden, logits."""
    N, K = contexts.shape
    X = params.embed[contexts].reshape(N, K * params.embed.shape[1])
    H = np.tanh(X @ params.w_hidden + params.b_hidden)
    Z = H @ params.w_out + params.b_out
    return X, H, Z


def forward(params: Parameters, context) -> np.ndarray:
    """Next-token distribution p(. | context) for exactly K token ids."""
    context = np.asarray(context, dtype=np.int64)
    K = params.w_hidden.shape[0] // params.embed.shape[1]
    if context.ndim != 1 or context.size != K:
        raise InvalidInputError(f"context must have exactly {K} token ids, got shape {context.shape}")
    _check_ids(context, params.embed.shape[0])
    _, _, Z = _forward_batch(params, context[None, :])
    return softmax_rows(Z)[0]


def context_window(tokens: np.ndarray, t: int, K: int) -> np.ndarray:
    """The K tokens preceding position t, left-padded with PAD_ID."""
    lo = max(0, t - K)
    window = tokens[lo:t]
    if window.size < K:
        window = np.concatenate([np.full(K - window.size, PAD_ID, dtype=np.int64), window])
    return window


def _gather_positions(seqs, K: int):
    """Stack every unmasked position of every sequence into (contexts, targets).

    Each sequence is laid behind K PAD_IDs, so the K tokens before position t
    are always the row of a sliding window view ending just before t,
    left-padded exactly as context_window pads them.
    """
    if not seqs:
        return np.zeros((0, K), dtype=np.int64), np.zeros(0, dtype=np.int64)
    pad, no_loss = np.full(K, PAD_ID, dtype=np.int64), np.zeros(K, dtype=bool)
    tokens = np.concatenate([part for seq in seqs for part in (pad, seq.tokens)])
    mask = np.concatenate([part for seq in seqs for part in (no_loss, seq.loss_mask)])
    rows = sliding_window_view(tokens, K + 1)[np.flatnonzero(mask) - K]
    return rows[:, :-1], rows[:, -1]


def loss_and_grads(params: Parameters, contexts: np.ndarray, targets: np.ndarray,
                   rule: ScoreRule, cfg: SmoothingConfig):
    """Mean loss over N positions and its exact analytic gradient.

    contexts (N, K) and targets (N,) are index arrays whose ids the caller
    has already checked against the vocabulary: training checks its data
    once at ingest, backward checks each batch.  Positions are reduced in
    row order, so results are bitwise reproducible.  Returns (loss, grads)
    with grads shaped like params.
    """
    N = targets.size
    if N == 0:
        warnings.warn("loss over an all-masked batch is 0", stacklevel=2)
        return 0.0, zero_grads(params)
    K = contexts.shape[1]
    d = params.embed.shape[1]

    X, H, Z = _forward_batch(params, contexts)
    losses, dZ = token_losses_and_grads(rule, cfg, Z, targets)
    loss = float(losses.sum()) / N
    dZ = dZ / N

    grads = zero_grads(params)
    grads.w_out[:] = H.T @ dZ
    grads.b_out[:] = dZ.sum(axis=0)
    dH = dZ @ params.w_out.T
    dA = dH * (1.0 - H * H)
    grads.w_hidden[:] = X.T @ dA
    grads.b_hidden[:] = dA.sum(axis=0)
    dX = (dA @ params.w_hidden.T).reshape(N, K, d)
    np.add.at(grads.embed, contexts, dX)
    return loss, grads


def backward(params: Parameters, batch, rule: ScoreRule, cfg: SmoothingConfig):
    """Batch loss (per-token mean over all unmasked positions) and its exact
    analytic gradient, for a list of TokenSeq.

    Checks every id of the batch, gathers its unmasked positions into index
    arrays and hands them to loss_and_grads.  Returns (loss, grads) with
    grads shaped like params.
    """
    if not batch:
        raise InvalidInputError("batch is empty")
    V, d = params.embed.shape
    for seq in batch:
        _check_ids(seq.tokens, V)
    contexts, targets = _gather_positions(batch, params.w_hidden.shape[0] // d)
    return loss_and_grads(params, contexts, targets, rule, cfg)
