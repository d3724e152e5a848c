"""Attribute system for the IR.

Attributes are immutable pieces of compile-time metadata attached to
operations (and, for :class:`~repro.ir.types.TypeAttribute` subclasses, used
as the types of SSA values).  Equality and hashing are structural.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, Sequence


class Attribute:
    """Base class of all attributes.

    Subclasses must be immutable after construction and implement
    structural equality through :attr:`_key`.
    """

    #: short name used by the printer, e.g. ``"builtin.int"``.
    name: str = "attribute"

    def _key(self) -> tuple:
        """Return a tuple uniquely identifying this attribute's contents."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return False
        assert isinstance(other, Attribute)
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self._key()})"


class UnitAttr(Attribute):
    """Attribute carrying no data; its presence alone is the information."""

    name = "unit"

    def _key(self) -> tuple:
        return ()


class IntAttr(Attribute):
    """An integer literal attribute."""

    name = "int"

    def __init__(self, value: int):
        self.value = int(value)

    def _key(self) -> tuple:
        return (self.value,)


class BoolAttr(Attribute):
    """A boolean literal attribute."""

    name = "bool"

    def __init__(self, value: bool):
        self.value = bool(value)

    def _key(self) -> tuple:
        return (self.value,)


class FloatAttr(Attribute):
    """A floating-point literal attribute."""

    name = "float"

    def __init__(self, value: float):
        self.value = float(value)

    def _key(self) -> tuple:
        return (self.value,)


class StringAttr(Attribute):
    """A string literal attribute."""

    name = "string"

    def __init__(self, data: str):
        self.data = str(data)

    def _key(self) -> tuple:
        return (self.data,)


class SymbolRefAttr(Attribute):
    """A reference to a symbol (e.g. a function) by name."""

    name = "symbol_ref"

    def __init__(self, root: str, nested: Sequence[str] = ()):
        self.root = str(root)
        self.nested = tuple(str(part) for part in nested)

    @property
    def string_value(self) -> str:
        return ".".join((self.root, *self.nested))

    def _key(self) -> tuple:
        return (self.root, self.nested)


class ArrayAttr(Attribute):
    """An ordered, immutable collection of attributes."""

    name = "array"

    def __init__(self, data: Iterable[Attribute]):
        self.data: tuple[Attribute, ...] = tuple(data)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index: int) -> Attribute:
        return self.data[index]

    def _key(self) -> tuple:
        return self.data


class DenseArrayAttr(Attribute):
    """A dense array of python scalars (ints or floats).

    Used for things like stencil offsets, shapes, and coefficient vectors
    where wrapping every element in an attribute would be wasteful.
    """

    name = "dense_array"

    def __init__(self, values: Iterable[int | float]):
        self.values: tuple[int | float, ...] = tuple(values)

    def __iter__(self) -> Iterator[int | float]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> int | float:
        return self.values[index]

    def as_tuple(self) -> tuple[int | float, ...]:
        return self.values

    @cached_property
    def int_values(self) -> tuple[int, ...]:
        """The values as Python ints (an offset or a shape), converted once."""
        return tuple(int(v) for v in self.values)

    def _key(self) -> tuple:
        return self.values


class DictionaryAttr(Attribute):
    """An immutable string-keyed mapping of attributes."""

    name = "dictionary"

    def __init__(self, data: Mapping[str, Attribute]):
        self.data: dict[str, Attribute] = dict(data)

    def __getitem__(self, key: str) -> Attribute:
        return self.data[key]

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def items(self):
        return self.data.items()

    def _key(self) -> tuple:
        return tuple(sorted(self.data.items(), key=lambda kv: kv[0]))
