"""scorelm: language modeling with strictly proper scoring rules.

A numpy library (plus a small CLI) for training, fine-tuning, and decoding
compact autoregressive next-token models under arbitrary strictly proper
scoring rules — logarithmic, Brier, spherical, alpha-power, and
pseudo-spherical, with optional score smoothing and mask enhancement — and
for certifying the propriety, smoothing, gradient, and entmax-equivalence
claims behind them with brute-force oracles.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    MarkovSpec,
    Vocab,
    build_vocab,
    decode,
    encode,
    encode_pair,
    encode_pairs,
    load_pairs,
    make_batches,
    synth_markov,
)
from .decode import BeamConfig, Hypothesis, beam_search, exhaustive_search, greedy, normalized_objective
from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    ConfigurationError,
    ConvergenceError,
    InvalidInputError,
    ParameterDomainError,
)
from .model import (
    EOS_ID,
    PAD_ID,
    ModelConfig,
    Parameters,
    TokenSeq,
    backward,
    forward,
    init_params,
    loss_and_grads,
)
from .scores import (
    NO_SMOOTHING,
    ScoreRule,
    SmoothingConfig,
    entmax_power_equivalence_gap,
    expected_score,
    loss_gradient_logits,
    masked_log_smoothed_score,
    score,
    smoothed_score,
    token_loss,
)
from .simplex import entmax, smooth_distribution, softmax, tsallis_entropy
from .train import MetricsRecord, TrainConfig, adam_step, finetune, heldout_positions, relative_change, train
from .verify import entmax_sweep, grad_check, propriety_scan, smoothing_propriety_scan, table1_check

__version__ = "0.1.0"
