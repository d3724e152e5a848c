"""The csl-stencil dialect (paper Section 4.1).

WSE-specific stencil representation that makes communication explicit:

* ``csl_stencil.prefetch`` fetches one piece of remote data into a local
  buffer.
* ``csl_stencil.apply`` carries two regions: the *receive* (chunk) region is
  executed once per incoming chunk of remote data and reduces it into an
  accumulator; the *compute* (done) region runs once after the exchange has
  completed and combines the accumulator with locally-held data.
* ``csl_stencil.access`` reads a neighbour value either from local storage or
  from the communication buffer, depending on the offset.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import ArrayAttr, Attribute, DenseArrayAttr, IntAttr
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region
from repro.ir.traits import IsTerminator
from repro.ir.value import SSAValue


class ExchangeDeclAttr(Attribute):
    """A single neighbour exchange, e.g. ``#csl_stencil.exchange<to [1, 0]>``."""

    name = "csl_stencil.exchange"

    def __init__(self, neighbor: Sequence[int], depth: int = 1):
        self.neighbor: tuple[int, ...] = tuple(int(c) for c in neighbor)
        self.depth = int(depth)

    def _key(self) -> tuple:
        return (self.neighbor, self.depth)

    def __str__(self) -> str:
        coords = ", ".join(str(c) for c in self.neighbor)
        return f"#csl_stencil.exchange<to [{coords}]>"


class PrefetchOp(Operation):
    """Fetch remote data required by a subsequent apply into a local buffer."""

    name = "csl_stencil.prefetch"

    def __init__(
        self,
        input_value: SSAValue,
        swaps: Sequence[ExchangeDeclAttr],
        result_type: Attribute,
    ):
        super().__init__(
            operands=[input_value],
            result_types=[result_type],
            attributes={"swaps": ArrayAttr(list(swaps))},
        )

    @property
    def input(self) -> SSAValue:
        return self.operands[0]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    @property
    def swaps(self) -> tuple[ExchangeDeclAttr, ...]:
        attr = self.attributes["swaps"]
        assert isinstance(attr, ArrayAttr)
        return tuple(a for a in attr if isinstance(a, ExchangeDeclAttr))


class ApplyOp(Operation):
    """Chunked communicate-and-compute stencil apply.

    Operands: the communicated field/temp first, then any additional
    locally-read operands, then the accumulator initial value last.

    Region 0 (*receive region*) arguments: the received-chunk buffer, the
    chunk offset (index) and the accumulator; executed ``num_chunks`` times.

    Region 1 (*compute region*) arguments: the communicated operand, the
    accumulator, then the additional operands; executed once after the
    exchange completes, yielding the apply's result.
    """

    name = "csl_stencil.apply"

    def __init__(
        self,
        communicated: SSAValue,
        accumulator: SSAValue,
        extra_operands: Sequence[SSAValue],
        result_types: Sequence[Attribute],
        receive_region: Region,
        compute_region: Region,
        swaps: Sequence[ExchangeDeclAttr],
        num_chunks: int,
        topo: Attribute | None = None,
    ):
        attributes: dict[str, Attribute] = {
            "swaps": ArrayAttr(list(swaps)),
            "num_chunks": IntAttr(num_chunks),
        }
        if topo is not None:
            attributes["topo"] = topo
        super().__init__(
            operands=[communicated, accumulator, *extra_operands],
            result_types=list(result_types),
            regions=[receive_region, compute_region],
            attributes=attributes,
        )

    @property
    def communicated(self) -> SSAValue:
        return self.operands[0]

    @property
    def accumulator(self) -> SSAValue:
        return self.operands[1]

    @property
    def extra_operands(self) -> tuple[SSAValue, ...]:
        return self.operands[2:]

    @property
    def receive_region(self) -> Region:
        return self.regions[0]

    @property
    def compute_region(self) -> Region:
        return self.regions[1]

    @property
    def swaps(self) -> tuple[ExchangeDeclAttr, ...]:
        attr = self.attributes["swaps"]
        assert isinstance(attr, ArrayAttr)
        return tuple(a for a in attr if isinstance(a, ExchangeDeclAttr))

    @property
    def num_chunks(self) -> int:
        attr = self.attributes["num_chunks"]
        assert isinstance(attr, IntAttr)
        return attr.value

    def verify_(self) -> None:
        if len(self.regions) != 2:
            raise VerifyException("csl_stencil.apply must have exactly two regions")
        if self.num_chunks < 1:
            raise VerifyException("csl_stencil.apply num_chunks must be >= 1")
        receive_block = self.receive_region.block
        if len(receive_block.args) != 3:
            raise VerifyException(
                "csl_stencil.apply receive region must have exactly three "
                "arguments (chunk buffer, offset, accumulator)"
            )
        compute_block = self.compute_region.block
        if len(compute_block.args) < 2:
            raise VerifyException(
                "csl_stencil.apply compute region must have at least two "
                "arguments (communicated operand, accumulator)"
            )
        for region in self.regions:
            terminator = region.block.last_op
            if terminator is not None and not isinstance(terminator, YieldOp):
                raise VerifyException(
                    "csl_stencil.apply regions must terminate with csl_stencil.yield"
                )


class AccessOp(Operation):
    """Access a neighbour value, locally or from the communication buffer."""

    name = "csl_stencil.access"

    def __init__(self, operand: SSAValue, offset: Sequence[int], result_type: Attribute):
        super().__init__(
            operands=[operand],
            result_types=[result_type],
            attributes={"offset": DenseArrayAttr(offset)},
        )

    @property
    def operand(self) -> SSAValue:
        return self.operands[0]

    @property
    def offset(self) -> tuple[int, ...]:
        attr = self.attributes["offset"]
        assert isinstance(attr, DenseArrayAttr)
        return attr.int_values

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    @property
    def is_local(self) -> bool:
        """An all-zero offset reads locally-held data."""
        return all(c == 0 for c in self.offset)


class YieldOp(Operation):
    """Terminator of csl_stencil.apply regions."""

    name = "csl_stencil.yield"
    traits = (IsTerminator,)

    def __init__(self, operands: Sequence[SSAValue] = ()):
        super().__init__(operands=operands)
