"""Checkpoint persistence: a single self-describing JSON document.

Parameter tensors are stored as nested decimal arrays; Python's repr-based
float serialization round-trips doubles exactly, which more than meets the
1e-15 relative-error budget.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointFormatError, CheckpointShapeError, CheckpointVersionError
from .model import ModelConfig, Parameters, param_shapes
from .scores import ScoreRule, SmoothingConfig

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    model: ModelConfig
    rule: ScoreRule
    smoothing: SmoothingConfig
    step: int
    params: Parameters

    def to_document(self) -> dict:
        return {
            "v": FORMAT_VERSION,
            "model": asdict(self.model),
            "rule": asdict(self.rule),
            "smoothing": asdict(self.smoothing),
            "step": self.step,
            "params": {name: t.tolist() for name, t in self.params.named()},
        }


def save_checkpoint(path, ckpt: Checkpoint):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ckpt.to_document(), fh)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate a checkpoint document.

    Raises CheckpointVersionError / CheckpointShapeError /
    CheckpointFormatError for the three failure classes.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"malformed checkpoint document: {exc.msg}") from None

    if not isinstance(doc, dict) or "v" not in doc:
        raise CheckpointFormatError("checkpoint document lacks a version field")
    if doc["v"] != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {doc['v']!r}; supported versions: {FORMAT_VERSION}"
        )
    try:
        model = ModelConfig(**doc["model"])
        rule = ScoreRule(**doc["rule"])
        smoothing = SmoothingConfig(**doc["smoothing"])
        step = int(doc["step"])
        raw = doc["params"]
        params = Parameters.zeros(param_shapes(model))
        tensors = [(name, t, np.asarray(raw[name], dtype=np.float64)) for name, t in params.named()]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"incomplete or malformed checkpoint fields: {exc}") from None

    for name, t, tensor in tensors:
        if tensor.shape != t.shape:
            raise CheckpointShapeError(f"tensor {name!r} has shape {tensor.shape}, config implies {t.shape}")
        if not np.all(np.isfinite(tensor)):
            raise CheckpointFormatError(f"tensor {name!r} contains non-finite values")
        t[...] = tensor
    return Checkpoint(model=model, rule=rule, smoothing=smoothing, step=step, params=params)
