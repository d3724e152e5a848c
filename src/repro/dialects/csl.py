"""The csl-ir dialect (paper Section 4.3): a re-implementation of a large
subset of the Cerebras Software Language.

Constructs present in CSL are represented one-to-one so that the backend's
printer (:mod:`repro.backend.csl_printer`) can emit CSL source directly:

* module kinds (*program* vs *layout*), imports and comptime parameters;
* functions, the three task kinds (``data``/``control``/``local``) and task
  activation;
* buffers, Data Structure Descriptors (DSDs) and the DSD arithmetic builtins
  (``@fadds``, ``@fmuls``, ``@fmacs``, ``@fmovs`` ...);
* layout metaprogram operations (``@set_rectangle``, ``@set_tile_code``);
* the chunked stencil-exchange entry point of the runtime communications
  library (Section 5.6).
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    DenseArrayAttr,
    DictionaryAttr,
    FloatAttr,
    IntAttr,
    StringAttr,
    SymbolRefAttr,
)
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region
from repro.ir.traits import IsTerminator
from repro.ir.types import MemRefType, TypeAttribute
from repro.ir.value import SSAValue


# --------------------------------------------------------------------------- #
# Types
# --------------------------------------------------------------------------- #


class ComptimeStructType(TypeAttribute):
    """The comptime struct returned by ``@import_module``."""

    name = "csl.comptime_struct"

    def __init__(self, module_name: str = ""):
        self.module_name = str(module_name)

    def _key(self) -> tuple:
        return (self.module_name,)

    def __str__(self) -> str:
        return f"!csl.comptime_struct<{self.module_name}>"


class DsdKind:
    """The DSD kinds exposed by CSL."""

    MEM1D = "mem1d_dsd"
    MEM4D = "mem4d_dsd"
    FABIN = "fabin_dsd"
    FABOUT = "fabout_dsd"

    ALL = (MEM1D, MEM4D, FABIN, FABOUT)


class DsdType(TypeAttribute):
    """A Data Structure Descriptor: a hardware-supported affine iterator."""

    name = "csl.dsd"

    def __init__(self, kind: str = DsdKind.MEM1D):
        if kind not in DsdKind.ALL:
            raise VerifyException(f"unknown DSD kind '{kind}'")
        self.kind = kind

    def _key(self) -> tuple:
        return (self.kind,)

    def __str__(self) -> str:
        return f"!csl.{self.kind}"


# --------------------------------------------------------------------------- #
# Module structure
# --------------------------------------------------------------------------- #


class ModuleKind:
    PROGRAM = "program"
    LAYOUT = "layout"


class CslModuleOp(Operation):
    """A CSL source module, either a PE program or the layout metaprogram."""

    name = "csl.module"

    def __init__(self, kind: str, sym_name: str, ops: Sequence[Operation] = ()):
        if kind not in (ModuleKind.PROGRAM, ModuleKind.LAYOUT):
            raise VerifyException(f"unknown csl module kind '{kind}'")
        super().__init__(
            regions=[Region([Block(ops=ops)])],
            attributes={"kind": StringAttr(kind), "sym_name": StringAttr(sym_name)},
        )

    @property
    def kind(self) -> str:
        attr = self.attributes["kind"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def ops(self) -> list[Operation]:
        return self.body.ops


class ImportModuleOp(Operation):
    """``@import_module("<name>", .{ ... })``."""

    name = "csl.import_module"

    def __init__(self, module: str, fields: dict[str, Attribute] | None = None,
                 field_operands: Sequence[SSAValue] = ()):
        super().__init__(
            operands=field_operands,
            result_types=[ComptimeStructType(module)],
            attributes={
                "module": StringAttr(module),
                "fields": DictionaryAttr(fields or {}),
            },
        )

    @property
    def module(self) -> str:
        attr = self.attributes["module"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def fields(self) -> DictionaryAttr:
        attr = self.attributes["fields"]
        assert isinstance(attr, DictionaryAttr)
        return attr

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class ParamOp(Operation):
    """``param name : type`` — a compile-time parameter of the module."""

    name = "csl.param"

    def __init__(self, param_name: str, result_type: Attribute,
                 default: int | float | None = None):
        attributes: dict[str, Attribute] = {"param_name": StringAttr(param_name)}
        if default is not None:
            attributes["default"] = (
                IntAttr(default) if isinstance(default, int) else FloatAttr(default)
            )
        super().__init__(result_types=[result_type], attributes=attributes)

    @property
    def param_name(self) -> str:
        attr = self.attributes["param_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def default(self) -> int | float | None:
        attr = self.attributes.get("default")
        if attr is None:
            return None
        assert isinstance(attr, (IntAttr, FloatAttr))
        return attr.value

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class ConstantOp(Operation):
    """``const name = value`` at module scope."""

    name = "csl.constant"

    def __init__(self, value: int | float, result_type: Attribute):
        attr: Attribute = (
            IntAttr(int(value)) if isinstance(value, int) else FloatAttr(float(value))
        )
        super().__init__(result_types=[result_type], attributes={"value": attr})

    @property
    def value(self) -> int | float:
        attr = self.attributes["value"]
        assert isinstance(attr, (IntAttr, FloatAttr))
        return attr.value

    @property
    def result(self) -> SSAValue:
        return self.results[0]


# --------------------------------------------------------------------------- #
# Functions and tasks
# --------------------------------------------------------------------------- #


class FuncOp(Operation):
    """``fn name(args) ret_type { ... }``."""

    name = "csl.func"

    def __init__(self, sym_name: str, arg_types: Sequence[Attribute] = (),
                 body: Region | None = None):
        if body is None:
            body = Region([Block(arg_types=arg_types)])
        super().__init__(
            regions=[body],
            attributes={"sym_name": StringAttr(sym_name)},
        )

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def body(self) -> Region:
        return self.regions[0]


class TaskKind:
    DATA = "data"
    CONTROL = "control"
    LOCAL = "local"

    ALL = (DATA, CONTROL, LOCAL)


class TaskOp(Operation):
    """``task name() void { ... }`` bound to a task id.

    The three CSL task kinds are supported: ``data`` tasks listen for data
    wavelets, ``control`` tasks for control wavelets, and ``local`` tasks are
    activated internally (typically as asynchronous-completion callbacks).
    """

    name = "csl.task"

    def __init__(
        self,
        sym_name: str,
        kind: str,
        task_id: int,
        arg_types: Sequence[Attribute] = (),
        body: Region | None = None,
    ):
        if kind not in TaskKind.ALL:
            raise VerifyException(f"unknown task kind '{kind}'")
        if body is None:
            body = Region([Block(arg_types=arg_types)])
        super().__init__(
            regions=[body],
            attributes={
                "sym_name": StringAttr(sym_name),
                "kind": StringAttr(kind),
                "id": IntAttr(task_id),
            },
        )

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def kind(self) -> str:
        attr = self.attributes["kind"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def task_id(self) -> int:
        attr = self.attributes["id"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def body(self) -> Region:
        return self.regions[0]

    def verify_(self) -> None:
        if not (0 <= self.task_id < 64):
            raise VerifyException("csl.task id must be in [0, 64)")


class ReturnOp(Operation):
    """Return from a csl.func or csl.task."""

    name = "csl.return"
    traits = (IsTerminator,)

    def __init__(self, operands: Sequence[SSAValue] = ()):
        super().__init__(operands=operands)


class CallOp(Operation):
    """Direct call of a csl.func by symbol."""

    name = "csl.call"

    def __init__(self, callee: str, arguments: Sequence[SSAValue] = (),
                 result_types: Sequence[Attribute] = ()):
        super().__init__(
            operands=arguments,
            result_types=list(result_types),
            attributes={"callee": SymbolRefAttr(callee)},
        )

    @property
    def callee(self) -> str:
        attr = self.attributes["callee"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.string_value


class ActivateOp(Operation):
    """``@activate(task_id)`` — schedule a local task for execution."""

    name = "csl.activate"

    def __init__(self, task_name: str, task_id: int):
        super().__init__(
            attributes={"task_name": SymbolRefAttr(task_name), "id": IntAttr(task_id)}
        )

    @property
    def task_name(self) -> str:
        attr = self.attributes["task_name"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.string_value

    @property
    def task_id(self) -> int:
        attr = self.attributes["id"]
        assert isinstance(attr, IntAttr)
        return attr.value


class VariableOp(Operation):
    """``var name : type = init`` — a module-scope mutable scalar."""

    name = "csl.variable"

    def __init__(self, sym_name: str, var_type: Attribute, init: int | float = 0):
        attr: Attribute = (
            IntAttr(int(init)) if isinstance(init, int) else FloatAttr(float(init))
        )
        super().__init__(
            attributes={
                "sym_name": StringAttr(sym_name),
                "type": var_type,
                "init": attr,
            }
        )

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def init(self) -> int | float:
        attr = self.attributes["init"]
        assert isinstance(attr, (IntAttr, FloatAttr))
        return attr.value


class LoadVarOp(Operation):
    """Read a module-scope variable."""

    name = "csl.load_var"

    def __init__(self, sym_name: str, result_type: Attribute):
        super().__init__(
            result_types=[result_type],
            attributes={"var": SymbolRefAttr(sym_name)},
        )

    @property
    def var(self) -> str:
        attr = self.attributes["var"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.string_value

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class StoreVarOp(Operation):
    """Write a module-scope variable."""

    name = "csl.store_var"

    def __init__(self, sym_name: str, value: SSAValue):
        super().__init__(
            operands=[value],
            attributes={"var": SymbolRefAttr(sym_name)},
        )

    @property
    def var(self) -> str:
        attr = self.attributes["var"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.string_value

    @property
    def value(self) -> SSAValue:
        return self.operands[0]


# --------------------------------------------------------------------------- #
# Buffers and DSDs
# --------------------------------------------------------------------------- #


class ZerosOp(Operation):
    """``var buf = @zeros([n]f32)`` — a zero-initialised PE-local buffer."""

    name = "csl.zeros"

    def __init__(self, buffer_type: MemRefType, sym_name: str | None = None):
        attributes: dict[str, Attribute] = {}
        if sym_name is not None:
            attributes["sym_name"] = StringAttr(sym_name)
        super().__init__(result_types=[buffer_type], attributes=attributes)

    @property
    def buffer_type(self) -> MemRefType:
        result_type = self.results[0].type
        assert isinstance(result_type, MemRefType)
        return result_type

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class GetMemDsdOp(Operation):
    """``@get_dsd(mem1d_dsd, .{ .tensor_access = |i|{n} -> buf[i] })``.

    The DSD names its buffer by symbol — the ``sym_name`` of a
    ``csl.zeros`` declaration — and takes no operand."""

    name = "csl.get_mem_dsd"

    def __init__(
        self,
        buffer: str,
        length: int,
        offset: int = 0,
        stride: int = 1,
    ):
        super().__init__(
            result_types=[DsdType(DsdKind.MEM1D)],
            attributes={
                "length": IntAttr(length),
                "offset": IntAttr(offset),
                "stride": IntAttr(stride),
                "buffer": StringAttr(buffer),
            },
        )

    @property
    def buffer(self) -> str:
        attr = self.attributes["buffer"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def length(self) -> int:
        attr = self.attributes["length"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def offset(self) -> int:
        attr = self.attributes["offset"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def stride(self) -> int:
        attr = self.attributes["stride"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if self.length < 1:
            raise VerifyException("csl.get_mem_dsd length must be positive")


class IncrementDsdOffsetOp(Operation):
    """Shift the start offset of a DSD by a constant (pointer arithmetic)."""

    name = "csl.increment_dsd_offset"

    def __init__(self, dsd: SSAValue, offset: int):
        super().__init__(
            operands=[dsd],
            result_types=[DsdType(DsdKind.MEM1D)],
            attributes={"offset": IntAttr(offset)},
        )

    @property
    def dsd(self) -> SSAValue:
        return self.operands[0]

    @property
    def offset(self) -> int:
        attr = self.attributes["offset"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def result(self) -> SSAValue:
        return self.results[0]


# --------------------------------------------------------------------------- #
# DSD arithmetic builtins
# --------------------------------------------------------------------------- #


class _DsdBuiltinOp(Operation):
    """Common base of the DSD compute builtins (DPS over DSD operands)."""

    #: the CSL builtin name, e.g. ``@fadds``.
    builtin_name = "@builtin"

    def __init__(self, operands: Sequence[SSAValue]):
        super().__init__(operands=operands)

    @property
    def dest(self) -> SSAValue:
        return self.operands[0]

    @property
    def sources(self) -> tuple[SSAValue, ...]:
        return self.operands[1:]


class FaddsOp(_DsdBuiltinOp):
    """``@fadds(dest, src1, src2)`` — FP32 elementwise addition."""

    name = "csl.fadds"
    builtin_name = "@fadds"

    def __init__(self, dest: SSAValue, src1: SSAValue, src2: SSAValue):
        super().__init__([dest, src1, src2])


class FsubsOp(_DsdBuiltinOp):
    """``@fsubs(dest, src1, src2)`` — FP32 elementwise subtraction."""

    name = "csl.fsubs"
    builtin_name = "@fsubs"

    def __init__(self, dest: SSAValue, src1: SSAValue, src2: SSAValue):
        super().__init__([dest, src1, src2])


class FmulsOp(_DsdBuiltinOp):
    """``@fmuls(dest, src1, src2)`` — FP32 elementwise multiplication."""

    name = "csl.fmuls"
    builtin_name = "@fmuls"

    def __init__(self, dest: SSAValue, src1: SSAValue, src2: SSAValue):
        super().__init__([dest, src1, src2])


class FmacsOp(_DsdBuiltinOp):
    """``@fmacs(dest, src0, src1, src2)`` — FP32 fused multiply-accumulate.

    ``dest[i] = src0[i] + src1[i] * src2`` where ``src2`` may be a scalar.
    """

    name = "csl.fmacs"
    builtin_name = "@fmacs"

    def __init__(self, dest: SSAValue, acc: SSAValue, src: SSAValue, coeff: SSAValue):
        super().__init__([dest, acc, src, coeff])


class FmovsOp(_DsdBuiltinOp):
    """``@fmovs(dest, src)`` — FP32 elementwise move / broadcast."""

    name = "csl.fmovs"
    builtin_name = "@fmovs"

    def __init__(self, dest: SSAValue, src: SSAValue):
        super().__init__([dest, src])


DSD_BUILTIN_OPS = (FaddsOp, FsubsOp, FmulsOp, FmacsOp, FmovsOp)


# --------------------------------------------------------------------------- #
# Layout metaprogram operations
# --------------------------------------------------------------------------- #


class SetRectangleOp(Operation):
    """``@set_rectangle(width, height)`` in the layout metaprogram."""

    name = "csl.set_rectangle"

    def __init__(self, width: int, height: int):
        super().__init__(attributes={"width": IntAttr(width), "height": IntAttr(height)})

    @property
    def width(self) -> int:
        attr = self.attributes["width"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def height(self) -> int:
        attr = self.attributes["height"]
        assert isinstance(attr, IntAttr)
        return attr.value


class SetTileCodeOp(Operation):
    """``@set_tile_code(x, y, "program.csl", params)``."""

    name = "csl.set_tile_code"

    def __init__(self, program_file: str, params: dict[str, Attribute] | None = None):
        super().__init__(
            attributes={
                "file": StringAttr(program_file),
                "params": DictionaryAttr(params or {}),
            }
        )

    @property
    def program_file(self) -> str:
        attr = self.attributes["file"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def params(self) -> DictionaryAttr:
        attr = self.attributes["params"]
        assert isinstance(attr, DictionaryAttr)
        return attr


class ExportOp(Operation):
    """``@export_symbol`` — make a buffer or function visible to the host."""

    name = "csl.export"

    def __init__(self, sym_name: str, value: SSAValue | None = None, kind: str = "var"):
        super().__init__(
            operands=[value] if value is not None else [],
            attributes={"sym_name": StringAttr(sym_name), "kind": StringAttr(kind)},
        )

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data


class RpcOp(Operation):
    """Launch the memcpy RPC command stream (host interaction)."""

    name = "csl.rpc"

    def __init__(self, struct: SSAValue):
        super().__init__(operands=[struct])


class UnblockCmdStreamOp(Operation):
    """``memcpy.unblock_cmd_stream()`` — return control to the host."""

    name = "csl.unblock_cmd_stream"

    def __init__(self, struct: SSAValue | None = None):
        super().__init__(operands=[struct] if struct is not None else [])


# --------------------------------------------------------------------------- #
# Runtime communications library entry point (Section 5.6)
# --------------------------------------------------------------------------- #


class CommsExchangeOp(Operation):
    """``stencil_comms.communicate(&buf, num_chunks, &recv_cb, &done_cb)``.

    Schedules the chunked, star-shaped halo exchange implemented by the
    runtime communications library.  ``recv_callback`` is activated for every
    received chunk, ``done_callback`` once the whole exchange has completed.
    The exchange delivers neighbour data unscaled, as the runtime library's
    ``communicate`` does: coefficient promotion (Section 5.7) scales it
    with DSD multiplies in the receive callback.
    """

    name = "csl.comms_exchange"

    def __init__(
        self,
        buffer: SSAValue,
        num_chunks: int,
        recv_callback: str,
        done_callback: str,
        directions: Sequence[Sequence[int]],
        pattern: int = 1,
    ):
        attributes: dict[str, Attribute] = {
            "num_chunks": IntAttr(num_chunks),
            "recv_callback": SymbolRefAttr(recv_callback),
            "done_callback": SymbolRefAttr(done_callback),
            "directions": ArrayAttr(
                [DenseArrayAttr(direction) for direction in directions]
            ),
            "pattern": IntAttr(pattern),
        }
        super().__init__(operands=[buffer], attributes=attributes)

    @property
    def buffer(self) -> SSAValue:
        return self.operands[0]

    @property
    def num_chunks(self) -> int:
        attr = self.attributes["num_chunks"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def recv_callback(self) -> str:
        attr = self.attributes["recv_callback"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.string_value

    @property
    def done_callback(self) -> str:
        attr = self.attributes["done_callback"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.string_value

    @property
    def directions(self) -> tuple[tuple[int, ...], ...]:
        attr = self.attributes["directions"]
        assert isinstance(attr, ArrayAttr)
        return tuple(
            tuple(int(c) for c in direction)
            for direction in attr
            if isinstance(direction, DenseArrayAttr)
        )

    @property
    def pattern(self) -> int:
        attr = self.attributes["pattern"]
        assert isinstance(attr, IntAttr)
        return attr.value

    def verify_(self) -> None:
        if self.num_chunks < 1:
            raise VerifyException("csl.comms_exchange num_chunks must be >= 1")
        if not self.directions:
            raise VerifyException("csl.comms_exchange requires at least one direction")
