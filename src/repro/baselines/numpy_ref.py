"""Reference NumPy executor for stencil programs.

Executes a :class:`~repro.frontends.common.StencilProgram` directly with
NumPy array slicing, using the same semantics as the stencil dialect: every
equation is evaluated with value semantics (a snapshot of its inputs) over
the interior of the grid, and equations apply sequentially within a time
step.  Halo cells follow the program's
:class:`~repro.frontends.common.BoundaryCondition` via the matching
``np.pad`` mode — ``constant`` for ``dirichlet(value)``, ``wrap`` for
``periodic``, ``symmetric`` for ``reflect``.  The (x, y) halo is refreshed
from the current interior before every equation (mirroring the per-equation
fabric exchange), while the z halo is filled once at allocation and then
stays static, exactly as a PE's column halo does on the fabric (there is no
z exchange).

This is the ground truth the fabric simulator's results are validated
against, and it doubles as the "CPU" functional implementation used by the
examples.
"""

from __future__ import annotations

import numpy as np

from repro.frontends.common import (
    Add,
    BoundaryCondition,
    Constant,
    Expression,
    FieldAccess,
    Mul,
    StencilProgram,
)


def pad_keywords(boundary: BoundaryCondition) -> dict:
    """The ``np.pad`` keywords implementing one boundary condition."""
    if boundary.kind == "dirichlet":
        return {"mode": "constant", "constant_values": np.float32(boundary.value)}
    if boundary.kind == "periodic":
        return {"mode": "wrap"}
    if boundary.kind == "reflect":
        # np.pad's "symmetric": mirror with the edge cell repeated, i.e. the
        # zero-flux ghost cell; matches BoundaryCondition.fold().
        return {"mode": "symmetric"}
    raise ValueError(f"unknown boundary kind {boundary.kind!r}")


def refresh_xy_halo(
    program: StencilProgram, name: str, array: np.ndarray
) -> None:
    """Refill the (x, y) halo from the current interior columns, in place.

    Whole columns (full z extent, including the static z halo) are padded,
    which is what the fabric exchange delivers: a wrapped or mirrored
    neighbour sends its column as stored.
    """
    decl = program.field(name)
    hx, hy, _ = decl.halo
    nx, ny, _ = decl.shape
    columns = array[hx : hx + nx, hy : hy + ny, :]
    array[:] = np.pad(
        columns, ((hx, hx), (hy, hy), (0, 0)), **pad_keywords(program.boundary)
    )


def apply_boundary(program: StencilProgram, name: str, array: np.ndarray) -> None:
    """Fill every halo cell of a freshly initialised field, in place.

    The z halo is derived from the interior once, here — it ships to the
    fabric inside each PE's column and is never exchanged again — then the
    (x, y) halo is filled like any refresh.
    """
    decl = program.field(name)
    hx, hy, hz = decl.halo
    nx, ny, nz = decl.shape
    core = array[hx : hx + nx, hy : hy + ny, hz : hz + nz]
    array[hx : hx + nx, hy : hy + ny, :] = np.pad(
        core, ((0, 0), (0, 0), (hz, hz)), **pad_keywords(program.boundary)
    )
    refresh_xy_halo(program, name, array)


def allocate_fields(
    program: StencilProgram, initializer=None
) -> dict[str, np.ndarray]:
    """Allocate every field with its halo, optionally filling the interior.

    ``initializer`` is called as ``initializer(name, interior_shape)`` and
    must return an array of that shape; when omitted the interior is zero.
    Halo cells are filled according to the program's boundary condition
    (all-zero under the historical Dirichlet-zero default).
    """
    fields: dict[str, np.ndarray] = {}
    for decl in program.fields:
        padded_shape = tuple(n + 2 * h for n, h in zip(decl.shape, decl.halo))
        array = np.zeros(padded_shape, dtype=np.float32)
        if initializer is not None:
            hx, hy, hz = decl.halo
            nx, ny, nz = decl.shape
            array[hx : hx + nx, hy : hy + ny, hz : hz + nz] = np.asarray(
                initializer(decl.name, decl.shape), dtype=np.float32
            )
        apply_boundary(program, decl.name, array)
        fields[decl.name] = array
    return fields


def interior(program: StencilProgram, name: str, array: np.ndarray) -> np.ndarray:
    """The interior (non-halo) view of a field array."""
    decl = program.field(name)
    hx, hy, hz = decl.halo
    nx, ny, nz = decl.shape
    return array[hx : hx + nx, hy : hy + ny, hz : hz + nz]


def _evaluate(
    expression: Expression,
    program: StencilProgram,
    fields: dict[str, np.ndarray],
    output_field: str,
) -> np.ndarray:
    """Evaluate an expression over the interior of the output field."""
    decl = program.field(output_field)
    hx, hy, hz = decl.halo
    nx, ny, nz = decl.shape

    if isinstance(expression, Constant):
        return np.float32(expression.value)
    if isinstance(expression, FieldAccess):
        dx, dy, dz = expression.offset
        array = fields[expression.field]
        return array[
            hx + dx : hx + dx + nx,
            hy + dy : hy + dy + ny,
            hz + dz : hz + dz + nz,
        ]
    if isinstance(expression, Add):
        total = _evaluate(expression.terms[0], program, fields, output_field)
        for term in expression.terms[1:]:
            total = total + _evaluate(term, program, fields, output_field)
        return total
    if isinstance(expression, Mul):
        product = _evaluate(expression.factors[0], program, fields, output_field)
        for factor in expression.factors[1:]:
            product = product * _evaluate(factor, program, fields, output_field)
        return product
    raise TypeError(f"unsupported expression node {expression!r}")


def run_reference(
    program: StencilProgram,
    fields: dict[str, np.ndarray],
    time_steps: int | None = None,
) -> dict[str, np.ndarray]:
    """Run the program in place and return the field dictionary.

    Before each equation the exchanged (x, y) rim of every field it reads
    is refreshed from the current interior — the oracle's equivalent of the
    per-apply fabric exchange.  A field is only refreshed while *stale*
    (every field starts stale, and an interior write stales it again); a
    Dirichlet rim is a constant no write can invalidate, so the paper
    benchmarks pad each field exactly once per run.  The static z halo is
    deliberately never touched: it is established at allocation time
    (:func:`allocate_fields`, or :func:`apply_boundary` for caller-built
    arrays) and kept as loaded — exactly like a PE's column halo on the
    fabric — so running N steps in one call or in N calls is identical.
    """
    dirichlet = program.boundary.kind == "dirichlet"
    stale = {decl.name for decl in program.fields}
    steps = time_steps if time_steps is not None else program.time_steps
    for _ in range(steps):
        for equation in program.equations:
            for name in equation.reads():
                if name in stale:
                    refresh_xy_halo(program, name, fields[name])
                    stale.discard(name)
            result = _evaluate(equation.expression, program, fields, equation.output)
            result = np.asarray(result, dtype=np.float32)
            interior(program, equation.output, fields[equation.output])[...] = result
            if not dirichlet:
                stale.add(equation.output)
    return fields


def field_to_columns(
    program: StencilProgram, name: str, array: np.ndarray
) -> np.ndarray:
    """Convert a halo-padded field into per-PE columns ``(nx, ny, z_total)``.

    Each PE holds the full z extent (core plus z halo) of its (x, y) cell.
    """
    decl = program.field(name)
    hx, hy, _ = decl.halo
    nx, ny, _ = decl.shape
    return np.ascontiguousarray(array[hx : hx + nx, hy : hy + ny, :])


def columns_to_field(
    program: StencilProgram, name: str, columns: np.ndarray
) -> np.ndarray:
    """Embed per-PE columns back into a halo-padded field array.

    The (x, y) halo is filled per the program's boundary condition, so a
    gathered result can be fed straight back into :func:`run_reference`.
    """
    decl = program.field(name)
    padded_shape = tuple(n + 2 * h for n, h in zip(decl.shape, decl.halo))
    array = np.zeros(padded_shape, dtype=np.float32)
    hx, hy, _ = decl.halo
    nx, ny, _ = decl.shape
    array[hx : hx + nx, hy : hy + ny, :] = columns
    refresh_xy_halo(program, name, array)
    return array
