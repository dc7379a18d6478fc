"""Checkpoint persistence: a single self-describing JSON document.

Format v2 holds the header (model, rule, smoothing, step), the symbol table
(the vocabulary in id order, or null when the run had none) and "params",
one base64 string of params.flat as little-endian float64.  The tensors lie
in param_shapes order, so the config fixes the layout; a change of order or
dtype bumps the version.  Raw bytes round-trip every double bit for bit.
"""

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import EOS_SYMBOL, PAD_SYMBOL
from .documents import REQUIRED, read_fields, read_json
from .errors import CheckpointFormatError, CheckpointShapeError, CheckpointVersionError
from .model import ModelConfig, Parameters, param_shapes
from .scores import ScoreRule, SmoothingConfig

FORMAT_VERSION = 2
_CONFIGS = {"model": ModelConfig, "rule": ScoreRule, "smoothing": SmoothingConfig}  # header section -> dataclass


@dataclass
class Checkpoint:
    model: ModelConfig
    rule: ScoreRule
    smoothing: SmoothingConfig
    step: int
    params: Parameters
    symbols: list | None = None  # the vocabulary in id order, reserved symbols included

    def check(self):
        """Refuse tensors unfit for the model and a malformed symbol table: when built, and on save."""
        for (name, tensor), (_, shape) in zip(self.params.named(), param_shapes(self.model)):
            if tensor.shape != shape:
                raise CheckpointShapeError(f"tensor {name!r} has shape {tensor.shape}, config implies {shape}")
        if self.symbols is not None:
            self.symbols = _checked_symbols(self.symbols, self.model.vocab_size)

    __post_init__ = check

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
    ckpt.check()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ckpt.to_document()) + "\n")


def _payload_flat(payload, shapes) -> np.ndarray:
    """The base64 parameter payload, its length checked against shapes."""
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a plain ValueError for a character that is not ASCII
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


def _header(doc):
    """(model, rule, smoothing, step, params field, symbols) of a document,
    each key read by its JSON type; a config section takes exactly the
    fields of its dataclass, all of them, as save_checkpoint writes them."""
    top = read_fields(doc, "checkpoint", CheckpointFormatError, v=(int, REQUIRED), model=(object, REQUIRED),
                      rule=(object, REQUIRED), smoothing=(object, REQUIRED), step=(int, REQUIRED),
                      params=(str, REQUIRED), symbols=(object, REQUIRED))
    if top["step"] < 0:
        raise CheckpointFormatError(f"checkpoint key 'step' must be >= 0, got {top['step']}")
    sections = {key: read_fields(top[key], f"checkpoint {key}", CheckpointFormatError,
                                 **{f.name: (f.type, REQUIRED) for f in fields(cls)})
                for key, cls in _CONFIGS.items()}
    try:
        configs = [cls(**sections[key]) for key, cls in _CONFIGS.items()]
    except ValueError as exc:
        raise CheckpointFormatError(f"malformed checkpoint fields: {exc}") from None
    return (*configs, top["step"], top["params"], top["symbols"])


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate a format-v2 checkpoint document.

    The header is read by type: a key of the wrong JSON type, a missing or
    unknown key and a negative step are CheckpointFormatErrors that name the
    key.  A document of another version, v1 included, is a
    CheckpointVersionError; any other fault a CheckpointFormatError.
    """
    doc = read_json(path, CheckpointFormatError)
    if not isinstance(doc, dict) or "v" not in doc:
        raise CheckpointFormatError("checkpoint document lacks a version field")
    if type(doc["v"]) in (bool, float):  # would compare equal to a version: true == 1, 2.0 == 2
        raise CheckpointFormatError(f"checkpoint key 'v' must be an integer, got {doc['v']!r}")
    if doc["v"] != FORMAT_VERSION:
        retired = (" (version 1 is retired: load_checkpoint + save_checkpoint in an earlier scorelm, up to commit "
                   "c5ad5b8, converts the file)") if doc["v"] == 1 else ""
        raise CheckpointVersionError(
            f"unsupported checkpoint version {doc['v']!r}{retired}; supported versions: {FORMAT_VERSION}")
    model, rule, smoothing, step, payload, symbols = _header(doc)
    shapes = param_shapes(model)
    params = Parameters.zeros(shapes)
    params.flat[:] = _payload_flat(payload, shapes)
    if not np.all(np.isfinite(params.flat)):
        name = next(name for name, t in params.named() if not np.all(np.isfinite(t)))
        raise CheckpointFormatError(f"tensor {name!r} contains non-finite values")
    return Checkpoint(model=model, rule=rule, smoothing=smoothing, step=step, params=params, symbols=symbols)
