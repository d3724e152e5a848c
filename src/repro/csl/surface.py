"""The shared CSL surface description.

Single source of truth for the concrete CSL syntax this repo speaks: op
mnemonics, builtin names, comparison/arithmetic spellings, the comms-library
import conventions and the module attributes that carry layout metadata.

Both directions of the toolchain consume these tables —
:mod:`repro.backend.csl_printer` (csl-ir → CSL text) and
:mod:`repro.csl.parser` / :mod:`repro.csl.lower` (CSL text → csl-ir) — so the
printer and the parser cannot drift apart: renaming a builtin or a struct
field here changes what is printed *and* what is accepted, and the print→parse
fixpoint tests in ``tests/csl`` pin the agreement.
"""

from __future__ import annotations

from repro.dialects import arith, csl
from repro.ir.attributes import (
    Attribute,
    FloatAttr,
    IntAttr,
    StringAttr,
)

# --------------------------------------------------------------------------- #
# Imported runtime libraries
# --------------------------------------------------------------------------- #

#: the runtime communications library (paper Section 5.6)
COMMS_MODULE = "stencil_comms.csl"
#: receiver name the printer uses for the comms struct in member calls
COMMS_RECEIVER = "stencil_comms"
#: member called to schedule the chunked halo exchange
COMMUNICATE_MEMBER = "communicate"

#: the host memcpy library and its layout-side parameter module
MEMCPY_MODULE = "<memcpy/memcpy>"
MEMCPY_PARAMS_MODULE = "<memcpy/get_params>"
ROUTES_MODULE = "routes.csl"

#: receiver name for the memcpy struct in member calls
SYS_RECEIVER = "sys_mod"
#: member called to return control to the host
UNBLOCK_MEMBER = "unblock_cmd_stream"

#: fields of the ``@import_module("stencil_comms.csl", .{ ... })`` struct
#: (see transforms/lower_csl_wrapper.py, which stamps them)
COMMS_IMPORT_PATTERN = "pattern"
COMMS_IMPORT_CHUNK_SIZE = "chunkSize"
COMMS_IMPORT_BOUNDARY = "boundary"
COMMS_IMPORT_BOUNDARY_VALUE = "boundaryValue"

#: struct fields of the printed ``stencil_comms.communicate(&dsd, .{ ... })``
#: call.  The printer emits every field the exchange op carries so the text
#: is a lossless encoding of the csl-ir op; the parser requires the same set.
COMMS_CALL_REQUIRED_FIELDS = (
    "num_chunks",
    "chunk_size",
    "src_offset",
    "src_len",
    "pattern",
    "recv_buffer",
    "directions",
    "done",
)
COMMS_CALL_OPTIONAL_FIELDS = ("recv",)

# --------------------------------------------------------------------------- #
# Module attributes carrying layout metadata
# --------------------------------------------------------------------------- #

#: program-module attributes stamped by the pipeline wrapper lowering; the
#: parser reconstructs them from the layout module + comms import fields.
ATTR_WIDTH = "width"
ATTR_HEIGHT = "height"
ATTR_TARGET = "target"
ATTR_BOUNDARY = "boundary"
ATTR_BOUNDARY_VALUE = "boundary_value"
ATTR_ENTRY = "entry"

#: ``@set_tile_code`` param key that names the hardware generation
TILE_PARAM_TARGET = "target"

# --------------------------------------------------------------------------- #
# Builtins
# --------------------------------------------------------------------------- #

#: DSD compute builtins, derived from the dialect op classes so the mnemonic
#: lives in exactly one place (``FaddsOp.builtin_name`` etc.)
DSD_BUILTINS: dict[str, type] = {op.builtin_name: op for op in csl.DSD_BUILTIN_OPS}

#: operand arity of each DSD builtin (dest + sources)
DSD_BUILTIN_ARITY: dict[str, int] = {
    csl.FaddsOp.builtin_name: 3,
    csl.FsubsOp.builtin_name: 3,
    csl.FmulsOp.builtin_name: 3,
    csl.FmacsOp.builtin_name: 4,
    csl.FmovsOp.builtin_name: 2,
}

BUILTIN_ACTIVATE = "@activate"
BUILTIN_GET_LOCAL_TASK_ID = "@get_local_task_id"
BUILTIN_GET_DATA_TASK_ID = "@get_data_task_id"
BUILTIN_BIND_LOCAL_TASK = "@bind_local_task"
BUILTIN_EXPORT_SYMBOL = "@export_symbol"
BUILTIN_RPC = "@rpc"
BUILTIN_GET_DSD = "@get_dsd"
BUILTIN_INCREMENT_DSD_OFFSET = "@increment_dsd_offset"
BUILTIN_ZEROS = "@zeros"
BUILTIN_IMPORT_MODULE = "@import_module"
BUILTIN_SET_RECTANGLE = "@set_rectangle"
BUILTIN_SET_TILE_CODE = "@set_tile_code"

#: every builtin the grammar subset accepts; anything else is a diagnostic
KNOWN_BUILTINS = frozenset(DSD_BUILTINS) | {
    BUILTIN_ACTIVATE,
    BUILTIN_GET_LOCAL_TASK_ID,
    BUILTIN_GET_DATA_TASK_ID,
    BUILTIN_BIND_LOCAL_TASK,
    BUILTIN_EXPORT_SYMBOL,
    BUILTIN_RPC,
    BUILTIN_GET_DSD,
    BUILTIN_INCREMENT_DSD_OFFSET,
    BUILTIN_ZEROS,
    BUILTIN_IMPORT_MODULE,
    BUILTIN_SET_RECTANGLE,
    BUILTIN_SET_TILE_CODE,
}

#: the only DSD kind the grammar subset supports
DSD_KIND_MEM1D = csl.DsdKind.MEM1D

# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #

#: csl-ir binary op class → printed symbol (integer and float flavours share
#: the CSL spelling; the parser re-emits the integer flavour, which the
#: interpreter and canonical form treat identically)
BINARY_OP_SYMBOLS: dict[type, str] = {
    arith.AddiOp: "+",
    arith.AddfOp: "+",
    arith.SubiOp: "-",
    arith.SubfOp: "-",
    arith.MuliOp: "*",
    arith.MulfOp: "*",
    arith.DivfOp: "/",
}

#: parse direction: symbol → op class to emit
BINARY_SYMBOL_OPS: dict[str, type] = {
    "+": arith.AddiOp,
    "-": arith.SubiOp,
    "*": arith.MuliOp,
    "/": arith.DivfOp,
}

#: arith.cmpi predicate → printed symbol, and back
CMP_PREDICATE_SYMBOLS: dict[str, str] = {
    "slt": "<",
    "sle": "<=",
    "sgt": ">",
    "sge": ">=",
    "eq": "==",
    "ne": "!=",
}
CMP_SYMBOL_PREDICATES: dict[str, str] = {
    symbol: predicate for predicate, symbol in CMP_PREDICATE_SYMBOLS.items()
}

#: scalar type annotations the grammar subset accepts
SCALAR_TYPE_NAMES = ("i16", "i32", "u16", "u32", "f32")

# --------------------------------------------------------------------------- #
# Attribute ↔ text helpers
# --------------------------------------------------------------------------- #


def attr_text(attribute: Attribute) -> str:
    """Print one attribute as a CSL struct-field value."""
    if isinstance(attribute, IntAttr):
        return str(attribute.value)
    if isinstance(attribute, FloatAttr):
        return repr(attribute.value)
    if isinstance(attribute, StringAttr):
        return f'"{attribute.data}"'
    return str(attribute)


def value_attr(value: int | float | str) -> Attribute:
    """The inverse of :func:`attr_text` for parsed struct-field values."""
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("CSL struct fields cannot be booleans")
    if isinstance(value, int):
        return IntAttr(value)
    if isinstance(value, float):
        return FloatAttr(value)
    return StringAttr(value)
