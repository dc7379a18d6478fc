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
from .documents import REQUIRED, read_fields
from .errors import CheckpointFormatError, CheckpointShapeError, CheckpointVersionError
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
        try:
            tensor = np.asarray(raw[name], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"tensor {name!r} is missing or not numeric: {exc}") from None
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


def _header(doc):
    """(model, rule, smoothing, step, params field, symbols) of a document,
    each key read by its JSON type; the version was checked first."""
    v2 = doc["v"] == 2
    top = read_fields(doc, "checkpoint", CheckpointFormatError, v=(int, REQUIRED), model=(object, REQUIRED),
                      rule=(object, REQUIRED), smoothing=(object, REQUIRED), step=(int, REQUIRED),
                      params=(str if v2 else object, REQUIRED), **({"symbols": (object, REQUIRED)} if v2 else {}))
    if top["step"] < 0:
        raise CheckpointFormatError(f"checkpoint key 'step' must be >= 0, got {top['step']}")
    model = read_fields(top["model"], "checkpoint model", CheckpointFormatError, vocab_size=(int, REQUIRED),
                        context=(int, REQUIRED), embed_dim=(int, REQUIRED), hidden_dim=(int, REQUIRED),
                        seed=(int, 0))
    rule = read_fields(top["rule"], "checkpoint rule", CheckpointFormatError, kind=(str, REQUIRED),
                       alpha=(float, 2.0))
    smoothing = read_fields(top["smoothing"], "checkpoint smoothing", CheckpointFormatError, eps=(float, 0.0),
                            mask_enhanced=(bool, False))
    try:
        configs = ModelConfig(**model), ScoreRule(**rule), SmoothingConfig(**smoothing)
    except ValueError as exc:
        raise CheckpointFormatError(f"malformed checkpoint fields: {exc}") from None
    return (*configs, top["step"], top["params"], top.get("symbols"))


def load_checkpoint(path) -> Checkpoint:
    """Parse and validate a checkpoint document (format v2, or v1 with symbols None).

    The header is read by type: a key of the wrong JSON type, a missing or
    unknown key and a negative step are CheckpointFormatErrors that name the
    key.  Raises CheckpointVersionError / CheckpointShapeError /
    CheckpointFormatError for the three failure classes.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"malformed checkpoint document: {exc.msg}") from None

    if not isinstance(doc, dict) or "v" not in doc:
        raise CheckpointFormatError("checkpoint document lacks a version field")
    if type(doc["v"]) in (bool, float):  # would compare equal to a version: true == 1, 2.0 == 2
        raise CheckpointFormatError(f"checkpoint key 'v' must be an integer, got {doc['v']!r}")
    if doc["v"] not in READABLE_VERSIONS:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {doc['v']!r}; supported versions: {', '.join(map(str, READABLE_VERSIONS))}"
        )
    model, rule, smoothing, step, payload, symbols = _header(doc)
    shapes = param_shapes(model)
    flat = _v2_flat(payload, shapes) if doc["v"] == 2 else _v1_flat(payload, shapes)

    params = Parameters.zeros(shapes)
    params.flat[:] = flat
    if not np.all(np.isfinite(params.flat)):
        name = next(name for name, t in params.named() if not np.all(np.isfinite(t)))
        raise CheckpointFormatError(f"tensor {name!r} contains non-finite values")
    return Checkpoint(model=model, rule=rule, smoothing=smoothing, step=step, params=params, symbols=symbols)
