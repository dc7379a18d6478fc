"""The one typed reader for the JSON documents a user hands in: config and
Markov spec files (scorelm.cli) and checkpoint headers (scorelm.checkpoint);
and its library counterpart, the type check of the config dataclasses.

A key is read by its JSON type, never converted: an integer key takes no
boolean and no float, a number key takes no string.  The dataclasses built
from the values check their types the same way, and their ranges.
"""

import dataclasses

import numpy as np

from .errors import ConfigurationError

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
