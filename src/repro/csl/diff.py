"""Field-by-field diff harness: handwritten vs generated kernels.

Runs two program images — typically one parsed from handwritten CSL text and
one produced by the compilation pipeline — under identical seeded inputs on
one or more executors, then compares every declared field byte for byte.
This turns the paper's generated-vs-handwritten claim into an executable
regression test: agreement is ``max_abs_diff == 0.0`` and equal SHA-256
digests, not a chart.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.wse.interpreter import ProgramImage

__all__ = ["FieldDiff", "DiffReport", "diff_images"]


@dataclass(frozen=True)
class FieldDiff:
    """One (executor, field) comparison."""

    executor: str
    fieldname: str
    digest_a: str
    digest_b: str
    max_abs_diff: float

    @property
    def identical(self) -> bool:
        return self.digest_a == self.digest_b


@dataclass
class DiffReport:
    """Every comparison of one diff run, plus the inputs that drove it."""

    label_a: str
    label_b: str
    seed: int
    entries: list[FieldDiff] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        return bool(self.entries) and all(e.identical for e in self.entries)

    def format(self) -> str:
        width = max(
            [len(e.fieldname) for e in self.entries] + [len("field")], default=5
        )
        lines = [
            f"diff: {self.label_a} vs {self.label_b} (seed {self.seed})",
            f"{'executor':<12} {'field':<{width}} {'max|diff|':>12}  verdict",
        ]
        for entry in self.entries:
            verdict = (
                "byte-identical"
                if entry.identical
                else f"DIVERGED ({entry.digest_a[:12]} != {entry.digest_b[:12]})"
            )
            lines.append(
                f"{entry.executor:<12} {entry.fieldname:<{width}} "
                f"{entry.max_abs_diff:>12.3e}  {verdict}"
            )
        lines.append(
            "result: "
            + ("FIELD-BY-FIELD AGREEMENT" if self.agreed else "DIVERGENCE DETECTED")
        )
        return "\n".join(lines)


def _digest(columns: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(columns).tobytes()).hexdigest()


def diff_images(
    image_a: ProgramImage,
    image_b: ProgramImage,
    *,
    fields: tuple[str, ...] | None = None,
    executors: tuple[str, ...] = ("reference", "vectorized"),
    seed: int = 13,
    label_a: str = "a",
    label_b: str = "b",
) -> DiffReport:
    """Run both images on every executor and compare fields byte for byte.

    Both images must declare the same fields (the buffers their programs
    export, with equal lengths); ``fields`` narrows the comparison to some
    of them and defaults to all.  Both simulations load the same inputs —
    :func:`~repro.wse.simulator.seeded_inputs` of ``image_a`` — before
    launch, so any divergence is the program's doing.
    """
    from repro.wse.simulator import WseSimulator, seeded_inputs

    if image_a.width != image_b.width or image_a.height != image_b.height:
        raise ValueError(
            f"cannot diff images on different grids: "
            f"{image_a.width}x{image_a.height} vs {image_b.width}x{image_b.height}"
        )
    if image_a.fields != image_b.fields:
        raise ValueError(
            f"the images declare different fields: {image_a.fields} vs "
            f"{image_b.fields}"
        )
    if fields is None:
        fields = tuple(image_a.fields)
    for name in fields:
        if name not in image_a.fields:
            raise ValueError(
                f"'{name}' is not a declared field "
                f"(declared: {', '.join(image_a.fields)})"
            )

    inputs = seeded_inputs(image_a, seed)
    report = DiffReport(label_a=label_a, label_b=label_b, seed=seed)
    for executor in executors:
        outputs: dict[str, dict[str, np.ndarray]] = {}
        for key, image in (("a", image_a), ("b", image_b)):
            simulator = WseSimulator(image, executor=executor)
            for name, columns in inputs.items():
                simulator.load_field(name, columns)
            simulator.execute()
            outputs[key] = {name: simulator.read_field(name) for name in fields}
        for name in fields:
            columns_a = outputs["a"][name]
            columns_b = outputs["b"][name]
            report.entries.append(
                FieldDiff(
                    executor=executor,
                    fieldname=name,
                    digest_a=_digest(columns_a),
                    digest_b=_digest(columns_b),
                    max_abs_diff=float(
                        np.max(np.abs(columns_a - columns_b), initial=0.0)
                    ),
                )
            )
    return report
