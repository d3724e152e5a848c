"""Content-addressed fingerprints of compilation inputs.

A fingerprint is the SHA-256 of a canonical JSON document combining the
stencil program (:meth:`StencilProgram.canonical`), the artifact-relevant
pipeline options (:meth:`PipelineOptions.canonical`) and the pipeline
version stamp (:func:`repro.transforms.pipeline.pipeline_stamp`).  It is
*process-stable*: the same inputs hash identically in the parent process, in
a pool worker and across interpreter restarts, which is what makes the
on-disk artifact store shareable.
"""

from __future__ import annotations

import hashlib
import json

from repro.frontends.common import StencilProgram
from repro.transforms.pipeline import PipelineOptions, pipeline_stamp


def canonical_json(payload: dict) -> str:
    """Serialise a canonical payload deterministically.

    Keys are sorted and separators fixed, so the byte stream (and therefore
    the hash) does not depend on dict construction order.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_payload(
    program: StencilProgram, options: PipelineOptions
) -> dict:
    """The document that gets hashed, exposed for tests and debugging.

    The boundary condition is hashed once, as the *effective* one: the
    program's declaration only ever reaches the pipeline by inheritance
    into ``options.boundary``, so a program declaring ``periodic`` and an
    identical program overridden to ``periodic`` via the options compile
    byte-identical artifacts — they are normalised into the program slot
    (with the options slot nulled) and share one fingerprint.
    """
    effective = (
        options.boundary if options.boundary is not None else program.boundary
    )
    program_canonical = program.canonical()
    program_canonical["boundary"] = effective.canonical()
    options_canonical = options.canonical()
    options_canonical["boundary"] = None
    return {
        "program": program_canonical,
        "options": options_canonical,
        "pipeline": pipeline_stamp(),
    }


def compute_fingerprint(
    program: StencilProgram, options: PipelineOptions
) -> str:
    """SHA-256 fingerprint of one compilation configuration."""
    text = canonical_json(fingerprint_payload(program, options))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
