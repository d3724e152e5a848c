"""Group 5 (c): lower csl_wrapper.module to csl-ir modules (Section 5.5).

The wrapper is expanded into the two CSL source modules of the staged
compilation model:

* the *layout* metaprogram — imports the routing/memcpy helpers, declares the
  grid rectangle and assigns the PE program (with its compile-time
  parameters) to every tile; and
* the *PE program* module — imports the memcpy and stencil-communication
  libraries, declares the compile-time parameters, and contains the buffers,
  functions and tasks produced by the earlier passes.  It exports each
  field's buffer, in the program's field order, beside the entry point: the
  host reads and writes a PE's fields through those symbols only.
"""

from __future__ import annotations

from repro.dialects import csl, csl_wrapper
from repro.dialects.builtin import ModuleOp
from repro.ir import ModulePass
from repro.ir.attributes import Attribute, FloatAttr, IntAttr, StringAttr
from repro.ir.operation import Operation
from repro.ir.types import i16


def _boundary_attrs(
    wrapper: csl_wrapper.ModuleOp,
) -> tuple[StringAttr, FloatAttr]:
    """The wrapper's boundary condition, defaulting to Dirichlet-zero."""
    kind = wrapper.attributes.get("boundary")
    value = wrapper.attributes.get("boundary_value")
    if not isinstance(kind, StringAttr):
        kind = StringAttr("dirichlet")
    if not isinstance(value, FloatAttr):
        value = FloatAttr(0.0)
    return kind, value


class LowerCslWrapperPass(ModulePass):
    name = "lower-csl-wrapper"

    def apply(self, module: Operation) -> None:
        assert isinstance(module, ModuleOp)
        for wrapper in list(module.walk_type(csl_wrapper.ModuleOp)):
            assert isinstance(wrapper, csl_wrapper.ModuleOp)
            layout, program = self._lower_wrapper(wrapper)
            block = wrapper.parent
            assert block is not None
            block.insert_op_before(layout, wrapper)
            block.insert_op_before(program, wrapper)
            wrapper.erase()

    # ------------------------------------------------------------------ #

    def _lower_wrapper(
        self, wrapper: csl_wrapper.ModuleOp
    ) -> tuple[csl.CslModuleOp, csl.CslModuleOp]:
        program_name = wrapper.program_name
        layout = self._build_layout(wrapper, program_name)
        program = self._build_program(wrapper, program_name)
        return layout, program

    def _build_layout(
        self, wrapper: csl_wrapper.ModuleOp, program_name: str
    ) -> csl.CslModuleOp:
        ops: list[Operation] = []
        memcpy_params = csl.ImportModuleOp(
            "<memcpy/get_params>",
            {"width": IntAttr(wrapper.width), "height": IntAttr(wrapper.height)},
        )
        routes = csl.ImportModuleOp("routes.csl", {"pattern": IntAttr(1)})
        ops.extend([memcpy_params, routes])
        ops.append(csl.SetRectangleOp(wrapper.width, wrapper.height))

        tile_params: dict[str, IntAttr] = {
            param.key: IntAttr(param.value if param.value is not None else 0)
            for param in wrapper.params
        }
        tile_params["width"] = IntAttr(wrapper.width)
        tile_params["height"] = IntAttr(wrapper.height)
        tile_params["target"] = StringAttr(wrapper.target)
        ops.append(csl.SetTileCodeOp(f"{program_name}.csl", tile_params))

        layout = csl.CslModuleOp(
            csl.ModuleKind.LAYOUT, f"{program_name}_layout", ops
        )
        layout.set_attribute("width", IntAttr(wrapper.width))
        layout.set_attribute("height", IntAttr(wrapper.height))
        layout.set_attribute("target", StringAttr(wrapper.target))
        boundary_kind, boundary_value = _boundary_attrs(wrapper)
        layout.set_attribute("boundary", boundary_kind)
        layout.set_attribute("boundary_value", boundary_value)
        return layout

    def _build_program(
        self, wrapper: csl_wrapper.ModuleOp, program_name: str
    ) -> csl.CslModuleOp:
        ops: list[Operation] = []
        for param in wrapper.params:
            param_op = csl.ParamOp(param.key, i16, param.value)
            ops.append(param_op)
        boundary_kind, boundary_value = _boundary_attrs(wrapper)
        memcpy = csl.ImportModuleOp("<memcpy/memcpy>", {})
        comms_fields: dict[str, Attribute] = {
            "pattern": IntAttr(wrapper.param_value("pattern") or 1),
            "chunkSize": IntAttr(wrapper.param_value("chunk_size") or 1),
            "boundary": boundary_kind,
        }
        if boundary_kind.data == "dirichlet":
            comms_fields["boundaryValue"] = boundary_value
        comms = csl.ImportModuleOp("stencil_comms.csl", comms_fields)
        ops.extend([memcpy, comms])

        program_block = wrapper.program_region.block
        for op in list(program_block.ops):
            op.detach()
            ops.append(op)

        entry = wrapper.attributes.get("entry")
        entry_name = entry.data if isinstance(entry, StringAttr) else "f_main"
        for field in wrapper.attributes.get("fields", ()):
            ops.append(csl.ExportOp(field.data, kind="var"))
        ops.append(csl.ExportOp(entry_name, kind="fn"))
        ops.append(csl.RpcOp(memcpy.result))

        program = csl.CslModuleOp(csl.ModuleKind.PROGRAM, program_name, ops)
        for key in ("timesteps",):
            if key in wrapper.attributes:
                program.set_attribute(key, wrapper.attributes[key])
        program.set_attribute("width", IntAttr(wrapper.width))
        program.set_attribute("height", IntAttr(wrapper.height))
        program.set_attribute("target", StringAttr(wrapper.target))
        program.set_attribute("boundary", boundary_kind)
        program.set_attribute("boundary_value", boundary_value)
        return program
