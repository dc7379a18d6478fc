"""The one reader for the JSON documents a user hands in (read_json, then
read_fields): config and Markov spec files and checkpoint headers; and its
library counterparts, the type check of the config dataclasses and the
reader of token id arrays and loss masks.

A key is read by its JSON type, never converted: an integer key takes no
boolean and no float, a number key takes no string.  The dataclasses built
from the values check their types the same way, and their ranges.  Token id
arrays are read by dtype the same way: an id is no boolean and no float.
"""

import dataclasses
import json

import numpy as np

from .errors import ConfigurationError, InvalidInputError

REQUIRED = object()  # the default of a key that must be given
ECHO_CHARS = 80  # the most characters of a refused value that an error echoes
_JSON_TYPES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "an array"}
_NUMERIC = {int: int, float: (int, float)}  # what an int or float field takes, a bool aside


def check_field_types(config) -> None:
    """Refuse, by name, a field of the dataclass instance config whose value
    is not of its annotated type: an int field takes an integer but no
    boolean, a float field an integer or a float but no boolean, a bool or
    str field only that, and a field annotated with another class an
    instance of it.  A numpy scalar counts as the Python scalar it holds,
    which is stored in its place."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, np.generic):
            value = value.item()
            object.__setattr__(config, field.name, value)
        kind = field.type
        if kind in _NUMERIC:
            ok = isinstance(value, _NUMERIC[kind]) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind)
        if not ok:
            want = _JSON_TYPES.get(kind, f"a {kind.__name__}")
            raise ConfigurationError(f"{type(config).__name__} field {field.name!r} must be {want}, got {value!r}")


def check_shape(array: np.ndarray, what: str, shape) -> None:
    """Refuse array, named what in errors, unless shape is None or its shape: an int fixes an axis, None frees it."""
    if shape is not None and (array.ndim != len(shape) or any(n not in (None, s) for n, s in zip(shape, array.shape))):
        free = iter("NM")
        want = ", ".join(next(free) if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
        raise InvalidInputError(f"{what} must have shape ({want}), got {array.shape}")


def read_ids(values, what: str, V: int | None = None, shape=None) -> np.ndarray:
    """values, named what in errors, as an int64 array of token ids: any integer
    dtype is read (a uint64 id past int64 is refused), a boolean, float, complex
    or object one refused, and an empty input of any dtype is no ids.  With V
    given, an id outside [0, V) is refused, and with shape given, another shape."""
    ids = np.asarray(values)
    check_shape(ids, what, shape)
    if ids.size and ids.dtype.kind not in "iu":
        raise InvalidInputError(f"{what} must be integers, got dtype {ids.dtype}")
    if ids.dtype == np.uint64 and ids.size and ids.max() > np.iinfo(np.int64).max:  # it would wrap below 0
        raise InvalidInputError(f"{what} must fit int64, got {ids.max()}")
    ids = ids.astype(np.int64, copy=False)
    if V is not None and ids.size and (ids.min() < 0 or ids.max() >= V):
        bad = ids[(ids < 0) | (ids >= V)][0]
        raise InvalidInputError(f"token id {bad} out of range for vocab size {V}")
    return ids


def read_mask(values, what: str, shape=None) -> np.ndarray:
    """values, named what in errors, as a loss mask: a bool array, or any empty input, of shape (check_shape)."""
    mask = np.asarray(values)
    check_shape(mask, what, shape)
    if mask.size and mask.dtype != bool:
        raise InvalidInputError(f"{what} must be booleans, got dtype {mask.dtype}")
    return mask.astype(bool, copy=False)


def read_text(path, error=InvalidInputError) -> str:
    """The text of a UTF-8 file, newlines translated as open(path, encoding="utf-8") translates them.
    A file that is not UTF-8 is refused as error, by path, with the 1-based line and the byte offset
    of its first bad byte."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")  # the text decoder counts the position in its buffer; this counts it in the file
        except UnicodeDecodeError as exc:
            head = raw[: exc.start]  # its lines end as text mode ends them: at "\n", "\r\n" or a lone "\r"
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise error(f"{path}: line {line} is not UTF-8 (byte 0x{raw[exc.start]:02x} at byte "
                        f"offset {exc.start})") from None
        raise


def read_json(path, error=ConfigurationError):
    """The JSON document in the UTF-8 file at path (read_text).  A file that
    is not UTF-8, malformed JSON and JSON nested too deep for the parser are
    refused as error, by path, and a malformed one at its line and column."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno} column {exc.colno}: malformed JSON ({exc.msg})") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deep to read") from None


def _array_shape(value):
    """The shape of value if it is a JSON number or a rectangular nest of
    arrays of them, else None; a boolean is not a number.  The nest is read
    a level at a time, so no depth of it recurses."""
    shape, level = (), [value]
    while level and all(type(v) is list for v in level):
        if len({len(v) for v in level}) > 1:
            return None
        shape += (len(level[0]),)
        level = [x for v in level for x in v]
    return shape if all(type(v) in (int, float) for v in level) else None


def _echo(value) -> str:
    """repr(value), cut after ECHO_CHARS characters and then marked "...": a
    refused matrix or nest is named by its head, not printed whole."""
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def read_fields(section, where: str, error=ConfigurationError, **spec) -> dict:
    """section with defaults filled in; spec maps each key to (type, default).

    A key that is not in spec, a missing REQUIRED key, and a value that is
    not of the key's JSON type raise error, naming the key and echoing at
    most ECHO_CHARS characters of the value: float keys take any number,
    int keys no boolean, list keys only numbers in a vector or in rows of
    equal length, object keys anything (a value checked by its reader), and
    null is taken only where the default is None.  NaN and +-Infinity, which
    json.load accepts, are refused anywhere in a float or list value.
    """
    if not isinstance(section, dict):
        raise error(f"{where} must be a JSON object")
    unknown = [key for key in section if key not in spec]
    if unknown:
        raise error(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    out = {}
    for key, (kind, default) in spec.items():
        if key not in section:
            if default is REQUIRED:
                raise error(f"missing {where} key {key!r}")
            out[key] = default
            continue
        value = section[key]
        types = (int, float) if kind is float else (kind,)
        if kind is not object and type(value) not in types and not (value is None and default is None):
            null = " or null" if default is None else ""
            raise error(f"{where} key {key!r} must be {_JSON_TYPES[kind]}{null}, got {_echo(value)}")
        shape = _array_shape(value) if kind is list else ()
        if shape is None or len(shape) > 2:
            raise error(f"{where} key {key!r} must be an array of numbers in rows of equal length, got {_echo(value)}")
        if kind in (float, list) and not np.isfinite(np.asarray(value, dtype=np.float64)).all():
            raise error(f"{where} key {key!r} must be finite, got {_echo(value)}")
        out[key] = value
    return out
