"""CSL source printer for csl-ir modules.

The csl-ir dialect mirrors CSL constructs one-to-one, so printing is a
syntax-directed walk: buffers become ``@zeros`` declarations, tasks become
``task``/``@bind_local_task`` pairs, DSD builtins print as their ``@fadds``
style calls, and the layout module prints ``@set_rectangle`` /
``@set_tile_code`` over the PE grid.

The concrete spellings (builtin names, operator symbols, the communicate call
schema) come from :mod:`repro.csl.surface`, which the text parser
(:mod:`repro.csl.parser`) consumes too — printed output is a *lossless*
encoding of the csl-ir module, so ``print → parse`` is a fixpoint (pinned by
``tests/csl/test_roundtrip.py``).
"""

from __future__ import annotations

import io

from repro.csl import surface
from repro.dialects import arith, csl, scf
from repro.ir.attributes import Attribute, StringAttr
from repro.ir.operation import Block, Operation
from repro.ir.value import SSAValue


class CslPrinter:
    """Prints one csl-ir module (program or layout) as CSL source text."""

    def __init__(self) -> None:
        self.buffer = io.StringIO()
        self.indent = 0
        self._names: dict[int, str] = {}
        self._counter = 0

    # ------------------------------------------------------------------ #

    def print_module(self, module: csl.CslModuleOp) -> str:
        if module.kind == csl.ModuleKind.LAYOUT:
            self._print_layout(module)
        else:
            self._print_program(module)
        return self.buffer.getvalue()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _line(self, text: str = "") -> None:
        self.buffer.write("  " * self.indent + text + "\n")

    def _name(self, value: SSAValue, hint: str = "v") -> str:
        key = id(value)
        if key not in self._names:
            self._names[key] = f"{hint}{self._counter}"
            self._counter += 1
        return self._names[key]

    @staticmethod
    def _attr_text(attribute: Attribute) -> str:
        return surface.attr_text(attribute)

    def _operand(self, value: SSAValue) -> str:
        return self._names.get(id(value), f"v{id(value) % 1000}")

    # ------------------------------------------------------------------ #
    # Layout module
    # ------------------------------------------------------------------ #

    def _print_layout(self, module: csl.CslModuleOp) -> None:
        width = module.attributes.get("width")
        height = module.attributes.get("height")
        self._line(f"// layout metaprogram: {module.sym_name}")
        self._line("param width : u16;")
        self._line("param height : u16;")
        self._line()
        for op in module.ops:
            if isinstance(op, csl.ImportModuleOp):
                name = self._name(op.result, "lib")
                fields = ", ".join(
                    f".{key} = {self._attr_text(value)}"
                    for key, value in op.fields.items()
                )
                suffix = f", .{{ {fields} }}" if fields else ""
                self._line(f'const {name} = @import_module("{op.module}"{suffix});')
            elif isinstance(op, csl.SetRectangleOp):
                self._line("layout {")
                self.indent += 1
                self._line(f"@set_rectangle({op.width}, {op.height});")
            elif isinstance(op, csl.SetTileCodeOp):
                params = ", ".join(
                    f".{key} = {self._attr_text(value)}"
                    for key, value in op.params.items()
                )
                self._line("var x : u16 = 0;")
                self._line(f"while (x < {self._attr_text(width)}) : (x += 1) {{")
                self.indent += 1
                self._line("var y : u16 = 0;")
                self._line(f"while (y < {self._attr_text(height)}) : (y += 1) {{")
                self.indent += 1
                self._line(
                    f'@set_tile_code(x, y, "{op.program_file}", .{{ {params} }});'
                )
                self.indent -= 1
                self._line("}")
                self.indent -= 1
                self._line("}")
        if self.indent > 0:
            self.indent -= 1
            self._line("}")

    # ------------------------------------------------------------------ #
    # Program module
    # ------------------------------------------------------------------ #

    def _print_program(self, module: csl.CslModuleOp) -> None:
        self._line(f"// PE program: {module.sym_name}")
        for op in module.ops:
            self._print_top_level(op)

    def _print_top_level(self, op: Operation) -> None:
        if isinstance(op, csl.ParamOp):
            default = f" = {op.default}" if op.default is not None else ""
            self._line(f"param {op.param_name} : i16{default};")
        elif isinstance(op, csl.ImportModuleOp):
            name = self._name(op.result, "lib")
            fields = ", ".join(
                f".{key} = {self._attr_text(value)}"
                for key, value in op.fields.items()
            )
            suffix = f", .{{ {fields} }}" if fields else ""
            self._line(f'const {name} = @import_module("{op.module}"{suffix});')
        elif isinstance(op, csl.VariableOp):
            self._line(f"var {op.sym_name} : i32 = {op.init};")
        elif isinstance(op, csl.ZerosOp):
            name_attr = op.attributes.get("sym_name")
            name = name_attr.data if isinstance(name_attr, StringAttr) else "buffer"
            size = op.buffer_type.element_count()
            self._line(f"var {name} = @zeros([{size}]f32);")
        elif isinstance(op, csl.FuncOp):
            self._print_callable(f"fn {op.sym_name}()", op.body.blocks[0])
        elif isinstance(op, csl.TaskOp):
            arguments = ", ".join(
                f"{self._name(argument, 'arg')} : i16"
                for argument in op.body.blocks[0].args
            )
            self._print_callable(f"task {op.sym_name}({arguments})", op.body.blocks[0])
            self._line(
                f"comptime {{ @bind_local_task(@get_local_task_id({op.task_id}), "
                f"{op.sym_name}); }}"
            )
        elif isinstance(op, csl.ExportOp):
            self._line(f'comptime {{ @export_symbol({op.sym_name}, "{op.sym_name}"); }}')
        elif isinstance(op, csl.RpcOp):
            self._line(
                "comptime { @rpc(@get_data_task_id("
                + self._operand(op.operands[0])
                + ".LAUNCH)); }"
            )

    def _print_callable(self, header: str, block: Block) -> None:
        self._line(f"{header} void {{")
        self.indent += 1
        for op in block.ops:
            self._print_statement(op)
        self.indent -= 1
        self._line("}")
        self._line()

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    def _print_statement(self, op: Operation) -> None:
        if isinstance(op, (csl.ConstantOp, arith.ConstantOp)):
            name = self._name(op.results[0], "c")
            self._line(f"const {name} = {op.value};")
        elif isinstance(op, csl.LoadVarOp):
            self._names[id(op.result)] = op.var
        elif isinstance(op, csl.StoreVarOp):
            self._line(f"{op.var} = {self._operand(op.value)};")
        elif type(op) in surface.BINARY_OP_SYMBOLS:
            name = self._name(op.results[0], "t")
            symbol = surface.BINARY_OP_SYMBOLS[type(op)]
            self._line(
                f"const {name} = {self._operand(op.lhs)} {symbol} "
                f"{self._operand(op.rhs)};"
            )
        elif isinstance(op, arith.CmpiOp):
            name = self._name(op.results[0], "cond")
            comparison = surface.CMP_PREDICATE_SYMBOLS[op.predicate]
            self._line(
                f"const {name} = {self._operand(op.lhs)} {comparison} "
                f"{self._operand(op.rhs)};"
            )
        elif isinstance(op, scf.IfOp):
            self._line(f"if ({self._operand(op.condition)}) {{")
            self.indent += 1
            for inner in op.then_region.blocks[0].ops:
                self._print_statement(inner)
            self.indent -= 1
            self._line("} else {")
            self.indent += 1
            for inner in op.else_region.blocks[0].ops:
                self._print_statement(inner)
            self.indent -= 1
            self._line("}")
        elif isinstance(op, csl.CallOp):
            self._line(f"{op.callee}();")
        elif isinstance(op, csl.ActivateOp):
            self._line(f"@activate(@get_local_task_id({op.task_id})); // {op.task_name}")
        elif isinstance(op, csl.GetMemDsdOp):
            name = self._name(op.result, "dsd")
            buffer = op.buffer
            index = "i" if op.stride == 1 else f"i * {op.stride}"
            if op.offset:
                access = f"{buffer}[{op.offset} + {index}]"
            else:
                access = f"{buffer}[{index}]"
            self._line(
                f"const {name} = @get_dsd({surface.DSD_KIND_MEM1D}, "
                f".{{ .tensor_access = |i|{{{op.length}}} -> {access} }});"
            )
        elif isinstance(op, csl.IncrementDsdOffsetOp):
            name = self._name(op.result, "dsd")
            base = self._operand(op.operands[0])
            dynamic = (
                f" + {self._operand(op.operands[1])}" if len(op.operands) > 1 else ""
            )
            self._line(
                f"const {name} = @increment_dsd_offset({base}, "
                f"{op.offset}{dynamic}, f32);"
            )
        elif isinstance(op, csl._DsdBuiltinOp):
            operands = ", ".join(self._operand(value) for value in op.operands)
            self._line(f"{op.builtin_name}({operands});")
        elif isinstance(op, csl.CommsExchangeOp):
            self._print_communicate(op)
        elif isinstance(op, csl.UnblockCmdStreamOp):
            self._line(f"{surface.SYS_RECEIVER}.{surface.UNBLOCK_MEMBER}();")
        elif isinstance(op, csl.ReturnOp):
            self._line("return;")
        elif isinstance(op, scf.YieldOp):
            return
        else:
            self._line(f"// <unprinted operation {op.name}>")

    def _print_communicate(self, op: csl.CommsExchangeOp) -> None:
        """The extended communicate call: every exchange attribute rides the
        argument struct, so the printed text is a lossless encoding the
        parser can rebuild the op from (the real runtime library accepts and
        ignores extra comptime struct fields)."""
        attributes = op.attributes
        directions = ", ".join(
            f".{{ {dx}, {dy} }}" for dx, dy in op.directions
        )
        fields = [
            f".num_chunks = {op.num_chunks}",
            f".chunk_size = {attributes['chunk_size'].value}",
            f".src_offset = {attributes['src_offset'].value}",
            f".src_len = {attributes['src_len'].value}",
            f".pattern = {op.pattern}",
            f".recv_buffer = &{attributes['recv_buffer'].string_value}",
            f".directions = .{{ {directions} }}",
        ]
        if op.recv_callback:
            fields.append(f".recv = &{op.recv_callback}")
        fields.append(f".done = &{op.done_callback}")
        self._line(
            f"{surface.COMMS_RECEIVER}.{surface.COMMUNICATE_MEMBER}"
            f"(&{self._operand(op.buffer)}, .{{ {', '.join(fields)} }});"
        )


def print_csl_module(module: csl.CslModuleOp) -> str:
    """Print one csl-ir module as CSL source."""
    return CslPrinter().print_module(module)


def print_csl_sources(modules: list[csl.CslModuleOp]) -> dict[str, str]:
    """Print every module of a compilation result, keyed by file name."""
    sources: dict[str, str] = {}
    for module in modules:
        suffix = "_layout" if module.kind == csl.ModuleKind.LAYOUT else ""
        file_name = f"{module.sym_name.removesuffix('_layout')}{suffix}.csl"
        sources[file_name] = print_csl_module(module)
    return sources
