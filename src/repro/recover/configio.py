"""Dataclass <-> dict codec: the typed writer and reader of every config
and every checkpoint payload.

A checkpoint must restore from its directory alone, so its manifest
embeds the complete run configuration and its payload the state of
every runtime component.  One codec writes and reads all of them, so
the on-disk format is the dataclasses' own field lists, and both
directions follow the fields' type hints through a plan built once per
class:

* :func:`encode` writes a dataclass as a dict of its fields, an ``Enum``
  as its value, a tuple, list or set as a list (a set sorted), a
  ``dict[str, X]`` as an object and a ``dict[K, X]`` with another key
  type as sorted ``[[k, v], ...]`` pairs.  The hint picks the shape, not
  the value (an empty ``dict[int, X]`` is ``[]``); a value with no such
  hint, such as a bare ``dict``, is written as it is.
* :func:`decode` reads the same shapes back and re-runs every dataclass
  validator.  A ``float`` accepts an int or a float and stores a float;
  an ``int`` only a non-bool int; ``bool`` and ``str`` only their own
  type.  A ``tuple[tuple[K, V], ...]`` may also be spelled as an object.
  A refused value is a :class:`TypeError` naming the field by its dotted
  path (``pool.breakers[0].probe_in_flight must be bool``); a nested
  validator's ``ValueError`` gets that path in front.  An omitted key
  takes its dataclass default (an old manifest restores to the default
  it ran with); an unknown key or an omitted required field is refused.
* :func:`decode_into` loads a runtime component in place: a class with
  its own ``__init__`` whose dataclass fields are its checkpointed state.

Every dict read from outside the program becomes a typed value here:
checkpoint payloads, run configs from campaign params and CLI flags
(:mod:`repro.recover.kinds`), chaos knobs, recover and paper params and
``*.slo.json`` files; ``decode(int, value, "seed")`` reads one param.  A
run's identity in ``repro.exp`` is the
:func:`~repro.recover.codec.config_hash` of the resolved config dict
:func:`encode` emits, so defaults, dict ordering, and int or float
spellings of a float param collapse to one hash.
"""

from __future__ import annotations

import enum
import re
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache, partial
from operator import attrgetter

_NONE = type(None)
_SCALARS = (int, float, str, bool, _NONE)
_UNIONS = (typing.Union, types.UnionType)


def encode(obj, hint=None):
    """The JSON-safe form of ``obj`` read as type ``hint`` (by default
    its own type) — usually a dataclass, written field by field."""
    write = _writer(type(obj) if hint is None else hint)
    return obj if write is None else write(obj)


def decode(hint, state, path: str = ""):
    """Read ``state`` back as type ``hint`` — usually a dataclass, from a
    possibly partial :func:`encode` dict; ``path`` names it in errors."""
    return _reader(hint)(state, path)


def decode_into(obj, state, path: str = "") -> None:
    """Set ``obj``'s dataclass fields from ``state`` in place, without
    calling its ``__init__``; every field must be present."""
    _field_values(type(obj), state, path, strict=True, into=vars(obj))


def field_path(path: str, name: str) -> str:
    """The dotted path of field ``name`` of the value at ``path``."""
    return f"{path}.{name}" if path else name


def section(state: dict, key: str, path: str = ""):
    """``state[key]`` of the snapshot at ``path``; a missing key is a
    ``KeyError`` naming its full field path (``shards[1].state.batcher``)."""
    try:
        return state[key]
    except KeyError:
        raise KeyError(field_path(path, key)) from None


@cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
@cache
def _writer(hint):
    """The function writing a value of type ``hint`` as JSON-safe data,
    or None when the value already is (a scalar)."""
    if hint in _SCALARS:
        return None
    if is_dataclass(hint):
        return _dataclass_writer(hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return attrgetter("value")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS and _NONE in args and len(args) == 2:  # X | None
        write = _writer(args[args[0] is _NONE])
        return write and (lambda value: None if value is None else write(value))
    if origin is tuple and args and args[-1] is not Ellipsis:
        writes = [_writer(arg) for arg in args]
        return list if not any(writes) else lambda value: [
            x if write is None else write(x) for write, x in zip(writes, value)
        ]
    if origin in (tuple, list, set, frozenset):
        write, order = _writer(args[0]), sorted if origin in (set, frozenset) else list
        return order if write is None else lambda value: [write(x) for x in order(value)]
    if origin is dict and args[0] is str:
        write = _writer(args[1])
        return dict if write is None else lambda value: {
            key: write(x) for key, x in value.items()
        }
    if origin is dict:
        write = _writer(tuple[args])
        return lambda value: [write(pair) for pair in sorted(value.items())]
    return _write_value


def _dataclass_writer(cls):
    hints = _hints(cls)
    names = [f.name for f in fields(cls)]
    own = dict.fromkeys(names).keys()
    plan = [(name, _writer(hints[name])) for name in names]
    plan = [(name, write) for name, write in plan if write is not None]

    def write(obj) -> dict:
        if type(obj) is not cls:
            return _writer(type(obj))(obj)  # a subclass writes its own fields
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None and attrs.keys() == own:  # nothing but fields
            state = dict(attrs)
        else:
            state = {name: getattr(obj, name) for name in names}
        for name, write_field in plan:
            state[name] = write_field(state[name])
        return state

    return write


def _write_value(obj):
    """A value with no typed shape, written as what it is."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _writer(type(obj))(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [_write_value(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _write_value(value) for key, value in obj.items()}
    return obj


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
#: Types a JSON value already has when read as them: a list of them is
#: checked with one scan instead of read item by item.
_EXACT = (int, float, str, bool, dict)


@cache
def _reader(hint):
    """``read(value, path)``: ``value`` as type ``hint``; ``path`` names
    it in errors."""
    if is_dataclass(hint):
        return partial(_read_dataclass, hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return lambda value, path: hint(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS and _NONE in args and len(args) == 2:  # X | None
        read = _reader(args[args[0] is _NONE])
        return lambda value, path: None if value is None else read(value, path)
    if origin is tuple and args and args[-1] is not Ellipsis:
        return partial(_read_fixed, [_reader(arg) for arg in args])
    if origin in (tuple, list, set, frozenset):
        return _items_reader(origin, args[0])
    if origin is dict and args[0] is str:
        return _object_reader(args[1])
    if origin is dict:  # sorted [[k, v], ...] pairs
        read = _items_reader(list, tuple[args])
        return lambda value, path: dict(read(value, path))
    if hint is float:
        return lambda value, path: float(_check(value, (int, float), path, "float"))
    if hint in _EXACT:
        return lambda value, path: _check(value, hint, path, hint.__name__)
    return partial(_no_codec, hint)


def _no_codec(hint, value, path: str):
    raise TypeError(f"{path}: no codec for type {hint!r}")


def _read_fixed(reads, value, path: str) -> tuple:
    _check(value, (list, tuple), path, "list")
    if len(value) != len(reads):
        raise TypeError(f"{path} must have {len(reads)} items, got {len(value)}")
    return tuple(
        read(item, f"{path}[{i}]") for i, (read, item) in enumerate(zip(reads, value))
    )


def _is_all(items, exact) -> bool:
    """Whether every item is of type ``exact`` (a bool is not an int);
    a loop, since it allocates nothing."""
    for item in items:
        if type(item) is not exact:
            return False
    return True


def _items_reader(origin, hint):
    build, exact = list if origin is list else origin, hint if hint in _EXACT else None
    pair = typing.get_args(hint) if origin is tuple else ()
    spelled = _object_reader(pair[1]) if len(pair) == 2 and pair[0] is str else None

    def read(value, path: str):
        if type(value) is list and _is_all(value, exact):
            return build(value)  # every item is already a ``hint``
        if spelled is not None and isinstance(value, dict):
            # A tuple of (key, value) pairs spelled as a JSON object.
            return tuple(spelled(value, path).items())
        read_item = _reader(hint)
        return build(
            read_item(item, f"{path}[{i}]")
            for i, item in enumerate(_check(value, (list, tuple), path, "list"))
        )

    return read


def _object_reader(hint):
    exact = hint if hint in _EXACT else None

    def read(value, path: str) -> dict:
        if type(value) is dict and _is_all(value.values(), exact):
            return dict(value)  # JSON object keys are str
        read_item, read_key = _reader(hint), _reader(str)
        return {
            read_key(key, path): read_item(item, f"{path}[{key!r}]")
            for key, item in _check(value, dict, path, "dict").items()
        }

    return read


@cache
def _plan(cls) -> tuple:
    """Dataclass ``cls``'s field readers; its scalar fields with the type
    a JSON value of each has when it is read as it is; its other fields;
    and its required fields."""
    hints = _hints(cls)
    readers = {f.name: _reader(hints[f.name]) for f in fields(cls)}
    scalars = [(name, hints[name]) for name in readers if hints[name] in _EXACT]
    others = [name for name in readers if hints[name] not in _EXACT]
    required = [
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    ]
    return readers, scalars, others, required


def _field_values(
    cls, state, path: str, strict: bool = False, into: "dict | None" = None
) -> dict:
    """``state``'s fields of dataclass ``cls``, each read by its hint,
    stored in ``into`` (a new dict by default); ``strict`` requires every
    field, not only those without a default."""
    readers, scalars, others, required = _plan(cls)
    prefix = f"{path}." if path else ""
    values = {} if into is None else into
    try:
        # Every field present and every scalar already of its type: only
        # the other fields need reading.
        if type(state) is dict and len(state) == len(readers):
            for name, exact in scalars:
                if type(state[name]) is not exact:
                    break
            else:
                values.update(state)
                for name in others:
                    values[name] = readers[name](values[name], prefix + name)
                return values
    except KeyError:
        pass
    _check_fields(cls, state, path, readers, readers if strict else required)
    for name, value in state.items():
        values[name] = readers[name](value, prefix + name)
    return values


def _check_fields(cls, state, path: str, known, required) -> None:
    """Refuse a non-dict, an unknown field or a missing required one."""
    if not isinstance(state, dict):
        raise TypeError(f"{path or cls.__name__} must be dict, got {state!r}")
    unknown = sorted(set(state) - known.keys())
    if unknown:
        label = " ".join(
            word.lower()
            for word in re.findall(r"[A-Z][a-z]*", cls.__name__)
            if word not in ("Config", "Params")
        )
        raise TypeError(f"unknown {label} params: {unknown} (known: {sorted(known)})")
    for name in required:
        if name not in state:
            raise TypeError(f"{field_path(path, name)} is required")


def _read_dataclass(cls, state, path: str):
    kwargs = _field_values(cls, state, path)
    try:
        return cls(**kwargs)
    except ValueError as err:
        if not path:
            raise
        # A validator cannot know where its dataclass sits in the dict.
        raise type(err)(f"{path}: {err}") from err


def _check(value, allowed, path: str, expected: str):
    """``value``, if it is an ``allowed`` one; bool is an int subclass,
    but a bool is never a count or a number."""
    if isinstance(value, bool) != (allowed is bool) or not isinstance(value, allowed):
        raise TypeError(f"{path} must be {expected}, got {value!r}")
    return value
