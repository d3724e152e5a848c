"""Type attributes used as the types of SSA values.

The subset implemented mirrors what the paper's pipeline manipulates:
scalars (integers, floats, index), function types, and the two shaped
container types ``tensor`` (value semantics) and ``memref`` (reference
semantics) whose interplay drives the bufferization stage.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.ir.attributes import Attribute


class TypeAttribute(Attribute):
    """Marker base class: attributes usable as SSA value types."""

    name = "type"


class IntegerType(TypeAttribute):
    """A fixed-width signless integer type (``i1``, ``i16``, ``i32``, ...)."""

    name = "integer_type"

    def __init__(self, width: int):
        self.width = int(width)

    def _key(self) -> tuple:
        return (self.width,)

    def __str__(self) -> str:
        return f"i{self.width}"


class IndexType(TypeAttribute):
    """The platform-sized index type used for loop induction variables."""

    name = "index_type"

    def _key(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return "index"


class _FloatType(TypeAttribute):
    """Base class of the floating point types."""

    width: int = 0

    def _key(self) -> tuple:
        return (self.width,)

    def __str__(self) -> str:
        return f"f{self.width}"


class Float16Type(_FloatType):
    name = "f16_type"
    width = 16


class Float32Type(_FloatType):
    name = "f32_type"
    width = 32


class Float64Type(_FloatType):
    name = "f64_type"
    width = 64


class FunctionType(TypeAttribute):
    """The type of a function: inputs and results."""

    name = "function_type"

    def __init__(self, inputs: Iterable[Attribute], outputs: Iterable[Attribute]):
        self.inputs: tuple[Attribute, ...] = tuple(inputs)
        self.outputs: tuple[Attribute, ...] = tuple(outputs)

    def _key(self) -> tuple:
        return (self.inputs, self.outputs)

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.outputs)
        return f"({ins}) -> ({outs})"


class ShapedType(TypeAttribute):
    """Common base for container types with a static shape and element type."""

    #: sentinel for a dynamic dimension.
    DYNAMIC = -1

    def __init__(self, shape: Sequence[int], element_type: Attribute):
        self.shape: tuple[int, ...] = tuple(int(dim) for dim in shape)
        self.element_type = element_type

    @property
    def rank(self) -> int:
        return len(self.shape)

    def element_count(self) -> int:
        """Total number of elements; dynamic dims count as 1."""
        count = 1
        for dim in self.shape:
            count *= dim if dim != self.DYNAMIC else 1
        return count

    def _key(self) -> tuple:
        return (self.shape, self.element_type)

    def _shape_str(self) -> str:
        dims = "x".join("?" if d == self.DYNAMIC else str(d) for d in self.shape)
        return f"{dims}x{self.element_type}" if dims else str(self.element_type)


class TensorType(ShapedType):
    """Immutable value-semantics container of elements."""

    name = "tensor_type"

    def __str__(self) -> str:
        return f"tensor<{self._shape_str()}>"


class MemRefType(ShapedType):
    """Mutable reference-semantics buffer of elements."""

    name = "memref_type"

    def __str__(self) -> str:
        return f"memref<{self._shape_str()}>"


#: Singleton-ish convenience instances.  Types are structurally compared, so
#: fresh instances compare equal to these; the constants just read better.
i1 = IntegerType(1)
i16 = IntegerType(16)
i32 = IntegerType(32)
i64 = IntegerType(64)
f16 = Float16Type()
f32 = Float32Type()
f64 = Float64Type()


def element_bytes(element_type: Attribute) -> int:
    """Size in bytes of a scalar element of the given type."""
    if isinstance(element_type, IntegerType):
        return max(1, element_type.width // 8)
    if isinstance(element_type, _FloatType):
        return element_type.width // 8
    if isinstance(element_type, IndexType):
        return 8
    raise ValueError(f"cannot compute byte size of {element_type}")
