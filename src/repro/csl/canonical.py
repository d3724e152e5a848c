"""Scheduling-insensitive canonical form of a ProgramImage.

Two csl-ir programs are semantically equal when they declare the same module
surface (params, buffers, variables, imports, layout metadata) and every
callable performs the same *effectful* statements over the same operand value
trees.  This form deliberately ignores how pure SSA ops are interleaved —
`const` ordering, duplicated DSD definitions and invisible ``LoadVarOp``
placement are all spelling, not meaning — which is exactly the freedom a
human rewriting a generated kernel exercises.

Used by the print→parse fixpoint tests (generated module == reparse of its
own printout) and the ``repro.csl diff``/``dump --canonical`` CLI verbs.
"""

from __future__ import annotations

import json
from typing import Any

from repro.csl import surface
from repro.dialects import arith, csl, scf
from repro.ir.attributes import FloatAttr, IntAttr, StringAttr
from repro.ir.operation import Block, Operation
from repro.ir.value import SSAValue
from repro.wse.interpreter import ProgramImage

__all__ = ["canonical_program_image", "canonical_json_text"]


def canonical_program_image(image: ProgramImage) -> dict[str, Any]:
    """The canonical (JSON-serialisable) form of one program image."""
    module = image.module
    target = module.attributes.get(surface.ATTR_TARGET)
    boundary = image.boundary
    imports = []
    for op in module.ops:
        if isinstance(op, csl.ImportModuleOp):
            imports.append(
                [
                    op.module,
                    {
                        key: _attr_value(value)
                        for key, value in sorted(op.fields.items())
                    },
                ]
            )
    imports.sort(key=lambda entry: entry[0])
    callables = {
        name: _canonical_callable(op) for name, op in sorted(image.callables.items())
    }
    return {
        "width": image.width,
        "height": image.height,
        "target": target.data if isinstance(target, StringAttr) else None,
        "boundary": [boundary.kind, float(boundary.value)],
        "entry": image.entry,
        "params": dict(sorted(image.params.items())),
        "buffers": dict(sorted(image.buffers.items())),
        "variables": dict(sorted(image.variables.items())),
        "imports": imports,
        "callables": callables,
    }


def canonical_json_text(image: ProgramImage) -> str:
    """The canonical form as deterministic JSON text."""
    return json.dumps(canonical_program_image(image), sort_keys=True, indent=2)


# --------------------------------------------------------------------------- #
# Callables
# --------------------------------------------------------------------------- #


def _canonical_callable(op: Operation) -> dict[str, Any]:
    block: Block = op.regions[0].blocks[0]
    producers: dict[int, Operation] = {}
    _collect_producers(block, producers)
    args = {id(argument): index for index, argument in enumerate(block.args)}
    entry: dict[str, Any] = {
        "kind": "task" if isinstance(op, csl.TaskOp) else "fn",
        "args": len(block.args),
        "body": _statements(block, producers, args),
    }
    if isinstance(op, csl.TaskOp):
        entry["task_id"] = op.task_id
        entry["task_kind"] = op.kind
    return entry


def _collect_producers(block: Block, producers: dict[int, Operation]) -> None:
    for op in block.ops:
        for result in op.results:
            producers[id(result)] = op
        for region in op.regions:
            for inner in region.blocks:
                _collect_producers(inner, producers)


def _statements(
    block: Block, producers: dict[int, Operation], args: dict[int, int]
) -> list[Any]:
    statements: list[Any] = []
    for op in block.ops:
        statement = _statement(op, producers, args)
        if statement is not None:
            statements.append(statement)
    return statements


def _statement(
    op: Operation, producers: dict[int, Operation], args: dict[int, int]
) -> Any:
    def tree(value: SSAValue) -> Any:
        return _value_tree(value, producers, args)

    if isinstance(op, csl.StoreVarOp):
        return ["store", op.var, tree(op.value)]
    if isinstance(op, csl._DsdBuiltinOp):
        return ["builtin", op.builtin_name, [tree(v) for v in op.operands]]
    if isinstance(op, csl.CallOp):
        return ["call", op.callee]
    if isinstance(op, csl.ActivateOp):
        return ["activate", op.task_id, op.task_name]
    if isinstance(op, csl.CommsExchangeOp):
        exchange: dict[str, Any] = {
            "buffer": tree(op.buffer),
            "num_chunks": op.num_chunks,
            "pattern": op.pattern,
            "recv": op.recv_callback,
            "done": op.done_callback,
            "directions": [list(d) for d in op.directions],
        }
        for key in ("src_offset", "src_len", "chunk_size"):
            attr = op.attributes.get(key)
            exchange[key] = attr.value if isinstance(attr, IntAttr) else None
        recv_buffer = op.attributes.get("recv_buffer")
        exchange["recv_buffer"] = (
            recv_buffer.string_value if recv_buffer is not None else None
        )
        return ["exchange", exchange]
    if isinstance(op, csl.UnblockCmdStreamOp):
        return ["unblock"]
    if isinstance(op, scf.IfOp):
        return [
            "if",
            tree(op.condition),
            _statements(op.then_region.blocks[0], producers, args),
            _statements(op.else_region.blocks[0], producers, args),
        ]
    if isinstance(op, csl.ReturnOp):
        return ["return"]
    # pure SSA ops (constants, loads, dsd definitions, arithmetic) surface
    # only through the value trees of the effectful statements above
    return None


def _value_tree(
    value: SSAValue, producers: dict[int, Operation], args: dict[int, int]
) -> Any:
    if id(value) in args:
        return ["arg", args[id(value)]]
    op = producers.get(id(value))
    if op is None:
        return ["unknown"]

    def tree(inner: SSAValue) -> Any:
        return _value_tree(inner, producers, args)

    if isinstance(op, (csl.ConstantOp, arith.ConstantOp)):
        v = op.value
        return ["float", float(v)] if isinstance(v, float) else ["int", int(v)]
    if isinstance(op, csl.LoadVarOp):
        return ["var", op.var]
    if isinstance(op, csl.GetMemDsdOp):
        return ["dsd", op.buffer, op.offset, op.length, op.stride]
    if isinstance(op, csl.IncrementDsdOffsetOp):
        entry = ["incr", tree(op.operands[0]), op.offset]
        if len(op.operands) > 1:
            entry.append(tree(op.operands[1]))
        return entry
    if isinstance(op, arith.CmpiOp):
        return [
            "cmp",
            surface.CMP_PREDICATE_SYMBOLS[op.predicate],
            tree(op.lhs),
            tree(op.rhs),
        ]
    symbol = surface.BINARY_OP_SYMBOLS.get(type(op))
    if symbol is not None:
        return ["bin", symbol, tree(op.operands[0]), tree(op.operands[1])]
    return ["opaque", op.name]


def _attr_value(attribute: Any) -> Any:
    if isinstance(attribute, IntAttr):
        return ["i", attribute.value]
    if isinstance(attribute, FloatAttr):
        return ["f", attribute.value]
    assert isinstance(attribute, StringAttr)
    return ["s", attribute.data]
