"""One JSON codec for every record a run persists.

A :class:`Record` dataclass gets ``to_dict``/``from_dict`` from its init
fields and their type hints, with one format decision per field type:

* ``Ratio`` (an annotated Fraction) is written ``a:b``, e.g. ``9:1``;
* a bare ``Fraction`` is written ``n/d`` with ``str()`` and read with
  :func:`as_fraction`;
* tuples and lists become JSON lists, read back from a list or from
  comma-separated text; dict values are converted item by item;
* a nested class is written and read by its own ``to_dict``/``from_dict``;
* ``int``, ``float``, ``str`` and ``bool`` are coerced to the declared type.

Decoding ignores keys the record does not declare. A missing key takes the
field's default; a missing key without one raises :class:`ValidationError`
naming the record and the key. Each class's field converters are built
once, on its first use. :func:`write_json` writes the records' files.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, fields
from fractions import Fraction
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Annotated, Any, Callable, get_args, get_origin, get_type_hints

from .errors import ValidationError


def as_fraction(value) -> Fraction:
    """Convert ints, floats, strings, or Fractions to an exact Fraction.

    Floats go through their decimal string form, so ``0.1`` means one tenth
    rather than its binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def parse_ratio(text: str) -> Fraction:
    """Parse ``"9:1"`` into the Fraction 9/1."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"ratio must look like '9:1', got {text!r}")
    try:
        num, den = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"ratio must use integers, got {text!r}") from None
    if num < 1 or den < 1:
        raise ValidationError(f"ratio sides must be positive, got {text!r}")
    return Fraction(num, den)


def format_ratio(ratio: Fraction) -> str:
    return f"{ratio.numerator}:{ratio.denominator}"


#: A Fraction written as an ``a:b`` ratio rather than as ``n/d``.
Ratio = Annotated[Fraction, "a:b"]

_SCALARS = (int, float, str, bool)

#: What decoding a damaged JSON file can raise, from json.loads or a codec.
DECODE_ERRORS = (ValueError, TypeError, KeyError, AttributeError, ValidationError)

Converter = Callable[[Any], Any]


def _ratio(value) -> Fraction:
    return parse_ratio(value) if isinstance(value, str) else as_fraction(value)


def _items(value):
    """A JSON list as is, or the items of comma-separated text."""
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    return value


def _converters(kind) -> tuple[Converter, Converter]:
    """(encode, decode) of one field type."""
    if kind == Ratio:
        return format_ratio, _ratio
    if kind is Fraction:
        return str, as_fraction
    if kind in _SCALARS:
        return kind, kind
    origin, args = get_origin(kind), get_args(kind)
    if origin in (tuple, list):
        encode, decode = _converters(args[0])
        if args[0] in _SCALARS:
            return list, lambda value: origin(map(decode, _items(value)))
        return (
            lambda value: [encode(v) for v in value],
            lambda value: origin(decode(v) for v in _items(value)),
        )
    if origin is dict:
        encode, decode = _converters(args[1])
        return (
            lambda value: {k: encode(v) for k, v in value.items()},
            lambda value: {k: decode(v) for k, v in value.items()},
        )
    if hasattr(kind, "to_dict") and hasattr(kind, "from_dict"):
        return kind.to_dict, kind.from_dict
    raise TypeError(f"no JSON form for field type {kind!r}")


class _Codec:
    """The field converters of one record class."""

    def __init__(self, cls: type) -> None:
        hints = get_type_hints(cls, include_extras=True)
        self.record = cls.__name__
        self.encoders: list[tuple[str, Converter]] = []
        # (name, decode, required)
        self.decoders: list[tuple[str, Converter, bool]] = []
        for f in fields(cls):
            if not f.init:
                continue
            encode, decode = _converters(hints[f.name])
            self.encoders.append((f.name, encode))
            required = f.default is MISSING and f.default_factory is MISSING
            self.decoders.append((f.name, decode, required))
        self.by_name = {name: decode for name, decode, _ in self.decoders}

    def decode(self, data) -> dict:
        if not isinstance(data, dict):
            raise ValidationError(
                f"{self.record} must be a JSON object, got {type(data).__name__}"
            )
        kwargs = {}
        for name, decode, required in self.decoders:
            if name in data:
                kwargs[name] = decode(data[name])
            elif required:
                raise ValidationError(f"{self.record} lacks the key {name!r}")
        return kwargs


@cache
def _codec(cls: type) -> _Codec:
    return _Codec(cls)


def decode_field(cls: type, name: str, value):
    """One field of record class ``cls`` converted from its JSON form or text."""
    return _codec(cls).by_name[name](value)


class Record:
    """Base of a dataclass whose JSON form follows from its fields."""

    def to_dict(self) -> dict:
        return {name: encode(getattr(self, name)) for name, encode in _codec(type(self)).encoders}

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**_codec(cls).decode(data))


#: Types whose values the C encoder writes exactly as ``json.dumps`` does.
_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})


@cache
def _one_line(indent: str) -> Callable[[Any], str]:
    """The C encoder's text of a value, the items of a container separated
    by a comma and ``indent`` (a newline and spaces).

    The encoder is made once per indent and checks no cycles, where
    ``JSONEncoder.encode`` makes one per call.
    """
    if c_make_encoder is None:  # a Python built without the _json module
        return json.JSONEncoder(sort_keys=True, separators=("," + indent, ": ")).encode
    encode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ": ", "," + indent, True, False, True,
    )
    return lambda value: "".join(encode(value, 0))


def _json_text(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it on a line indented ``indent`` (a newline and spaces).

    A container of leaves, such as a list of indices, is written by one call
    of the C encoder; only containers of containers are walked here.
    """
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("keys must be str")
        brackets, children = "{}", value.values()
    elif isinstance(value, (list, tuple)):
        brackets, children = "[]", value
    else:
        return _one_line(indent)(value)
    if not value:
        return brackets
    inner = indent + "  "
    if set(map(type, children)) <= _LEAF_TYPES:
        body = _one_line(inner)(value)[1:-1]
    elif isinstance(value, dict):
        body = ("," + inner).join(
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in sorted(value.items())
        )
    else:
        body = ("," + inner).join(_json_text(item, inner) for item in value)
    return f"{brackets[0]}{inner}{body}{indent}{brackets[1]}"


def write_json(path: str | Path, data) -> None:
    """Write ``data`` as key-sorted, indented JSON, making its directory.

    The bytes are those of ``json.dumps(data, sort_keys=True, indent=2)``
    and a newline, for dicts with str keys, lists, tuples, str, int, float
    and bool values and None; any other value raises :class:`TypeError`.
    ``json.dumps`` encodes in pure Python when it indents, so each container
    that holds no container is handed to the C encoder whole instead.

    The text goes to ``<path>.tmp``, which is renamed over ``path``: a
    reader sees the old file or the new one, and a write cut short leaves
    only the temporary file, which the next write of ``path`` replaces.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp")
    tmp.write_text(_json_text(data, "\n") + "\n", encoding="utf-8")
    os.replace(tmp, path)
