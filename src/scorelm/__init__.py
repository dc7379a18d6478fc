"""scorelm: language modeling with strictly proper scoring rules.

A numpy library (plus a small CLI) for training, fine-tuning, and decoding
compact autoregressive next-token models under arbitrary strictly proper
scoring rules — logarithmic, Brier, spherical, alpha-power, and
pseudo-spherical, with optional score smoothing and mask enhancement — and
for certifying the propriety, smoothing, gradient, and entmax-equivalence
claims behind them with brute-force oracles.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
# the decode module first: loading a submodule binds its name on the package, and here the name is data.decode's
from .decode import BeamConfig, beam_search, exhaustive_search, greedy
from .data import (
    MarkovSpec,
    Vocab,
    build_vocab,
    decode,
    encode,
    encode_pairs,
    load_pairs,
    make_batches,
    read_text,
    synth_markov,
)
from .documents import REQUIRED, read_fields, read_json
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
    N_RESERVED,
    PAD_ID,
    ModelConfig,
    PackedSeqs,
    Parameters,
    TokenSeq,
    forward,
    init_params,
    loss_and_grads,
    param_shapes,
)
from .scores import (
    NO_SMOOTHING,
    RULES,
    ScoreRule,
    SmoothingConfig,
    entmax_power_equivalence_gap,
    expected_score,
    score,
    smoothed_score,
)
from .simplex import entmax, smooth_distribution, softmax, tsallis_entropy
from .train import MetricsRecord, TrainConfig, adam_step, evaluate_scores, finetune, relative_change, split_data, train
from .verify import CERTIFICATES, entmax_sweep, grad_check, propriety_scan, smoothing_propriety_scan, table1_check

__version__ = "0.1.0"
