"""The one typed reader for the JSON documents a user hands in: config and
Markov spec files (scorelm.cli) and checkpoint headers (scorelm.checkpoint);
and its library counterparts, the type check of the config dataclasses and
the reader of token id arrays and loss masks.

A key is read by its JSON type, never converted: an integer key takes no
boolean and no float, a number key takes no string.  The dataclasses built
from the values check their types the same way, and their ranges.  Token id
arrays are read by dtype the same way: an id is no boolean and no float.
"""

import dataclasses

import numpy as np

from .errors import ConfigurationError, InvalidInputError

REQUIRED = object()  # the default of a key that must be given
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


def read_ids(values, what: str, V: int | None = None) -> np.ndarray:
    """values, named what in errors, as an int64 array of token ids: any integer
    dtype is read (a uint64 id past int64 is refused), a boolean, float, complex
    or object one refused, and an empty input of any dtype is no ids.  With V
    given, an id outside [0, V) is refused."""
    ids = np.asarray(values)
    if ids.size and ids.dtype.kind not in "iu":
        raise InvalidInputError(f"{what} must be integers, got dtype {ids.dtype}")
    if ids.dtype == np.uint64 and ids.size and ids.max() > np.iinfo(np.int64).max:  # it would wrap below 0
        raise InvalidInputError(f"{what} must fit int64, got {ids.max()}")
    ids = ids.astype(np.int64, copy=False)
    if V is not None and ids.size and (ids.min() < 0 or ids.max() >= V):
        bad = ids[(ids < 0) | (ids >= V)][0]
        raise InvalidInputError(f"token id {bad} out of range for vocab size {V}")
    return ids


def read_mask(values, what: str) -> np.ndarray:
    """values, named what in errors, as a loss mask: a bool array, or any empty input."""
    mask = np.asarray(values)
    if mask.size and mask.dtype != bool:
        raise InvalidInputError(f"{what} must be booleans, got dtype {mask.dtype}")
    return mask.astype(bool, copy=False)


def _array_shape(value):
    """The shape of value if it is a JSON number or a rectangular nest of
    arrays of them, else None; a boolean is not a number."""
    if type(value) in (int, float):
        return ()
    if type(value) is not list:
        return None
    shapes = {_array_shape(v) for v in value}
    if len(shapes) > 1 or None in shapes:
        return None
    return (len(value), *next(iter(shapes), ()))


def read_fields(section, where: str, error=ConfigurationError, **spec) -> dict:
    """section with defaults filled in; spec maps each key to (type, default).

    A key that is not in spec, a missing REQUIRED key, and a value that is
    not of the key's JSON type raise error, naming the key: float keys take
    any number, int keys no boolean, list keys only numbers in rectangular
    rows, object keys anything (a value checked by its reader), and null is
    taken only where the default is None.  NaN and +-Infinity, which
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
            raise error(f"{where} key {key!r} must be {_JSON_TYPES[kind]}{null}, got {value!r}")
        if kind is list and _array_shape(value) is None:
            raise error(f"{where} key {key!r} must be an array of numbers in rows of equal length, got {value!r}")
        if kind in (float, list) and not np.isfinite(np.asarray(value, dtype=np.float64)).all():
            raise error(f"{where} key {key!r} must be finite, got {value!r}")
        out[key] = value
    return out
