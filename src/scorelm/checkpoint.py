"""Checkpoint persistence: a single self-describing JSON document.

Format v2 holds the header (model, rule, smoothing, step), the symbol table
(the vocabulary in id order, or null when the run had none) and "params",
one base64 string of params.flat as little-endian float64.  The tensors lie
in param_shapes order, so the config fixes the layout; a change of order or
dtype bumps the version.  Raw bytes round-trip every double bit for bit.
Format v1 stored each tensor as nested decimal arrays and no symbol table;
it still loads, with symbols None.
"""

import base64
import binascii
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import EOS_SYMBOL, PAD_SYMBOL
from .errors import CheckpointError, CheckpointFormatError, CheckpointShapeError, CheckpointVersionError
from .model import ModelConfig, Parameters, param_shapes
from .scores import ScoreRule, SmoothingConfig

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)


@dataclass
class Checkpoint:
    model: ModelConfig
    rule: ScoreRule
    smoothing: SmoothingConfig
    step: int
    params: Parameters
    symbols: list | None = None  # the vocabulary in id order, reserved symbols included

    def __post_init__(self):
        if self.symbols is not None:
            self.symbols = _checked_symbols(self.symbols, self.model.vocab_size)

    def to_document(self) -> dict:
        return {
            "v": FORMAT_VERSION,
            "model": asdict(self.model),
            "rule": asdict(self.rule),
            "smoothing": asdict(self.smoothing),
            "step": self.step,
            "symbols": self.symbols,
            "params": base64.b64encode(self.params.flat.astype("<f8", copy=False).tobytes()).decode("ascii"),
        }


def save_checkpoint(path, ckpt: Checkpoint):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ckpt.to_document()) + "\n")


def _v1_flat(raw, shapes) -> np.ndarray:
    """The nested decimal tensors of a v1 document, concatenated in layout order."""
    tensors = []
    for name, shape in shapes:
        tensor = np.asarray(raw[name], dtype=np.float64)
        if tensor.shape != shape:
            raise CheckpointShapeError(f"tensor {name!r} has shape {tensor.shape}, config implies {shape}")
        tensors.append(tensor.ravel())
    return np.concatenate(tensors)


def _v2_flat(payload, shapes) -> np.ndarray:
    """The base64 parameter payload of a v2 document, its length checked against shapes."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except binascii.Error as exc:
        raise CheckpointFormatError(f"parameter payload is not valid base64: {exc}") from None
    size = sum(math.prod(shape) for _, shape in shapes)
    if len(raw) != 8 * size:
        raise CheckpointFormatError(f"parameter payload holds {len(raw)} bytes, the config needs {8 * size}")
    return np.frombuffer(raw, dtype="<f8")


def _checked_symbols(symbols, vocab_size: int) -> list:
    """symbols as a list, if it is a table of vocab_size distinct strings
    that starts with the reserved pad and EOS symbols."""
    if not isinstance(symbols, (list, tuple)) or not all(isinstance(s, str) for s in symbols):
        raise CheckpointFormatError("symbol table must be a list of strings or null")
    if len(symbols) != vocab_size:
        raise CheckpointFormatError(f"symbol table has {len(symbols)} entries, vocab_size is {vocab_size}")
    if len(set(symbols)) != len(symbols):
        dup = next(s for i, s in enumerate(symbols) if s in symbols[:i])
        raise CheckpointFormatError(f"symbol table lists {dup!r} more than once")
    if list(symbols[:2]) != [PAD_SYMBOL, EOS_SYMBOL]:
        raise CheckpointFormatError(f"symbol table must start with {PAD_SYMBOL!r}, {EOS_SYMBOL!r}")
    return list(symbols)


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate a checkpoint document (format v2, or v1 with symbols None).

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
    if doc["v"] not in READABLE_VERSIONS:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {doc['v']!r}; supported versions: {', '.join(map(str, READABLE_VERSIONS))}"
        )
    try:
        model = ModelConfig(**doc["model"])
        rule = ScoreRule(**doc["rule"])
        smoothing = SmoothingConfig(**doc["smoothing"])
        step = int(doc["step"])
        shapes = param_shapes(model)
        flat = _v1_flat(doc["params"], shapes) if doc["v"] == 1 else _v2_flat(doc["params"], shapes)
        symbols = doc["symbols"] if doc["v"] == 2 else None
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"incomplete or malformed checkpoint fields: {exc}") from None

    params = Parameters.zeros(shapes)
    params.flat[:] = flat
    if not np.all(np.isfinite(params.flat)):
        name = next(name for name, t in params.named() if not np.all(np.isfinite(t)))
        raise CheckpointFormatError(f"tensor {name!r} contains non-finite values")
    return Checkpoint(model=model, rule=rule, smoothing=smoothing, step=step, params=params, symbols=symbols)
