"""One reader for plain-data specs: each block's fields declared once.

Scenario configs, fault plans and the skewed sharding strategy read their
JSON-shaped specs here.  A block is a :class:`Block` of :class:`Field` s
(name, kind, default, bounds), or a :class:`Union` of blocks told apart by
a tag field such as ``family``; :func:`read` returns its typed values with
the defaults filled in.  Nothing is parsed, truncated or coerced:

* an integer is a real number with an integral value (``7``, ``7.0`` and
  numpy integers read as ``7``); a bool, a string, ``2.5``, NaN or an
  infinity is refused (:func:`read_int`);
* a float is a finite real number; a bool or a string is refused
  (:func:`read_float`);
* null is allowed only where the field's default is null (or the field is
  declared ``nullable``), and unknown or missing fields are refused.

A refusal is a :class:`~repro.exceptions.ConfigurationError` naming the
field: ``<where> '<field>' must be an integer, got 12.9`` for a value of the
wrong kind, ``<field name> must be >= 1, got 0 in <where>`` for one out of
bounds.  The module imports only the standard library and
:mod:`repro.exceptions`, so every layer can use it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Mapping
from typing import Any

from .exceptions import ConfigurationError

__all__ = [
    "Block", "Field", "ListOf", "MapOf", "OPTIONAL", "REQUIRED", "Union", "either",
    "one_of", "read", "read_bool", "read_float", "read_int", "read_name_or_mapping",
    "read_number", "read_str",
]

#: Default of a field that must be given.
REQUIRED: Any = object()
#: Default of a field that may be left out; it is then left out of the read
#: values too, and the caller decides what its absence means.
OPTIONAL: Any = object()

#: ``kind(value, where, name)`` reads field ``name`` of the block at
#: ``where``: it returns the value typed or raises.
Kind = Callable[[Any, str, str], Any]


def _subject(where: str, name: str | None) -> str:
    return where if name is None else f"{where} {name!r}".lstrip()


def _refuse(where: str, name: str | None, expected: str, value: Any) -> ConfigurationError:
    return ConfigurationError(f"{_subject(where, name)} must be {expected}, got {value!r}")


def read_float(value: Any, where: str, name: str | None = None) -> float:
    """``value`` as a float: a finite real number, never a bool or a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # float(10**400)
            pass
        else:
            if math.isfinite(number):
                return number
    raise _refuse(where, name, "a number", value)


def read_int(value: Any, where: str, name: str | None = None) -> int:
    """``value`` as an int: a real number with an integral value."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not read_float(value, where, name).is_integer():
        raise _refuse(where, name, "an integer", value)
    return int(value)


def read_number(value: Any, where: str, name: str | None = None) -> Any:
    """A stream element: a number under the float rule, kept as given."""
    read_float(value, where, name)
    return value


def _instance(expected: str, *types: type) -> Kind:
    def read_instance(value: Any, where: str, name: str | None = None) -> Any:
        if isinstance(value, types):
            return value
        raise _refuse(where, name, expected, value)

    return read_instance


read_bool = _instance("true or false", bool)
read_str = _instance("a string", str)
#: A sharding strategy: a name or a spec mapping, kept as given.
read_name_or_mapping = _instance("a name or a mapping", str, Mapping)


def one_of(*choices: str) -> Kind:
    """A kind admitting exactly the given strings."""

    def read_choice(value: Any, where: str, name: str | None = None) -> str:
        if isinstance(value, str) and value in choices:
            return value
        raise _refuse(where, name, f"one of {', '.join(map(repr, choices))}", value)

    return read_choice


def _bounds(text: str) -> Callable[[float], bool]:
    """``">= 1"``, ``"> 0"`` or an interval such as ``"(0, 1]"`` as a test."""
    if text[0] not in "[(":
        operator, low = text.split()
        floor = float(low)
        return (lambda value: value >= floor) if operator == ">=" else (lambda value: value > floor)
    low, high = map(float, text[1:-1].split(","))
    return lambda value: (low <= value if text[0] == "[" else low < value) and (
        value <= high if text[-1] == "]" else value < high
    )


class Field:
    """One declared field: name, kind, default and optional bounds."""

    __slots__ = ("name", "kind", "default", "bounds", "within", "nullable", "partner")

    def __init__(
        self, name: str, kind: Kind, default: Any = REQUIRED, bounds: str | None = None,
        *, nullable: bool = False,
    ) -> None:
        self.name, self.kind, self.default, self.bounds = name, kind, default, bounds
        self.within = None if bounds is None else _bounds(bounds)
        self.nullable = nullable or default is None
        #: The other field of an :func:`either` pair.
        self.partner: str | None = None

    def read(self, value: Any, where: str) -> Any:
        if value is None and self.nullable:
            return None
        typed = self.kind(value, where, self.name)
        if self.within is not None and not self.within(typed):
            verb = "lie in" if self.bounds[0] in "[(" else "be"
            place = f" in {where}" if where else ""
            raise ConfigurationError(
                f"{self.name.replace('_', ' ')} must {verb} {self.bounds}, got {typed!r}{place}"
            )
        return typed


def either(first: Field, second: Field) -> tuple[Field, Field]:
    """Two ways to give one value, such as ``bound`` or ``bound_fraction``:
    a spec sets at most one, and only that one is read.  Setting neither
    gives ``first`` its default (if ``REQUIRED``, the spec needs one of
    them); declare ``second`` ``OPTIONAL``."""
    first.partner, second.partner = second.name, first.name
    return first, second


def _article(name: str) -> str:
    return "an" if name[0] in "aeiou" else "a"


class Block:
    """A spec mapping declared as fields; unknown fields are refused, and the
    two fields named by ``increasing`` (such as ``low`` and ``high``) must
    strictly increase."""

    def __init__(self, *fields: Field, increasing: tuple[str, str] | None = None) -> None:
        self.fields = {field.name: field for field in fields}
        self.increasing = increasing

    def __call__(self, value: Any, where: str, name: str) -> dict[str, Any]:
        return self.read(value, f"{where} {name}".lstrip(), _subject(where, name))

    def read(
        self,
        value: Any,
        where: str,
        subject: str | None = None,
        path: str | None = None,
        *,
        root: bool = False,
        tags: tuple[str, ...] = (),
    ) -> dict[str, Any]:
        """Read ``value``, whose fields sit at ``where``.

        ``subject`` names the value when it is no mapping, ``path`` when a
        field is unknown (both default to ``where``; a ``root`` block says
        ``unknown <path> fields``).  ``tags`` were read by a :class:`Union`.
        """
        if not isinstance(value, Mapping):
            raise _refuse(subject or where, None, "a mapping", value)
        unknown = sorted(str(key) for key in value if key not in self.fields and key not in tags)
        if unknown:
            place, names = path or where, ", ".join(unknown)
            raise ConfigurationError(
                f"unknown {place} fields: {names}" if root
                else f"unknown fields in {place}: {names}"
            )
        typed: dict[str, Any] = {}
        for name, field in self.fields.items():
            partner = field.partner
            if name in value:
                if partner in value:
                    raise ConfigurationError(f"{where} sets both {name!r} and {partner!r}; pick one")
                typed[name] = field.read(value[name], where)
            elif partner in value or field.default is OPTIONAL:
                continue
            elif field.default is not REQUIRED:
                typed[name] = field.default
            elif partner is not None:
                raise ConfigurationError(f"{where} needs either {name!r} or {partner!r}")
            else:
                raise ConfigurationError(f"{where} needs {_article(name)} {name!r}")
        if self.increasing is not None:
            low, high = (typed[name] for name in self.increasing)
            if not low < high:
                raise ConfigurationError(f"{where} range [{low}, {high}] is empty")
        return typed


class Union:
    """Blocks told apart by a ``tag`` field (``family``, ``kind``, ``mode``);
    ``default`` is the tag of a spec that leaves it out."""

    def __init__(
        self, tag: str, label: str, variants: Mapping[str, Block | Union], default: Any = REQUIRED
    ) -> None:
        self.tag, self.label, self.variants, self.default = tag, label, dict(variants), default

    __call__ = Block.__call__

    def read(
        self, value: Any, where: str, subject: str | None = None, *args: Any, **flags: Any
    ) -> dict[str, Any]:
        """Read the tag, then the variant it names (see :meth:`Block.read`)."""
        if not isinstance(value, Mapping):
            raise _refuse(subject or where, None, "a mapping", value)
        tag = value.get(self.tag, self.default)
        if tag is REQUIRED:
            raise ConfigurationError(f"{where} needs {_article(self.tag)} {self.tag!r}")
        if not (isinstance(tag, str) and tag in self.variants):
            raise ConfigurationError(
                f"unknown {self.label} {self.tag} {tag!r}; expected one of "
                f"{', '.join(map(repr, self.variants))}"
            )
        flags["tags"] = (*flags.get("tags", ()), self.tag)
        return {self.tag: tag, **self.variants[tag].read(value, where, subject, *args, **flags)}


class ListOf:
    """A list of one block, whose item ``i`` is named ``label.format(i)``."""

    def __init__(self, block: Block, label: str, *, nonempty: bool = False) -> None:
        self.block, self.label, self.nonempty = block, label, nonempty

    def __call__(self, value: Any, where: str, name: str) -> list[dict[str, Any]]:
        if not isinstance(value, (list, tuple)) or (self.nonempty and not value):
            raise _refuse(where, name, "a non-empty list" if self.nonempty else "a list", value)
        path = f"{where} {name}".lstrip()
        return [
            self.block.read(item, self.label.format(index), f"{path}[{index}]", f"{path}[{index}]")
            for index, item in enumerate(value)
        ]


class MapOf:
    """A non-empty mapping from string labels to one block or union."""

    def __init__(self, block: Block | Union) -> None:
        self.block = block

    def __call__(self, value: Any, where: str, name: str) -> dict[str, dict[str, Any]]:
        if not isinstance(value, Mapping) or not value:
            raise _refuse(where, name, "a non-empty mapping", value)
        path = f"{where} {name}".lstrip()
        for label in value:
            if not isinstance(label, str):
                raise _refuse(f"{path} label", None, "a string", label)
        return {label: self.block.read(item, f"{path}[{label!r}]") for label, item in value.items()}


def read(block: Block | Union, value: Any, where: str) -> dict[str, Any]:
    """Read one spec mapping against its declaration (see the module docs)."""
    return block.read(value, where, root=True)
