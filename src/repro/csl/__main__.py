"""``python -m repro.csl`` — the CSL front-door command line.

Three verbs:

* ``parse FILE [FILE ...]`` (or ``--dir DIR``) — parse and lower the
  sources, printing a one-line summary per module; any diagnostic goes to
  stderr as ``file:line:col: message`` and exits 1;
* ``dump`` — re-print the parsed modules through the backend printer (the
  print→parse fixpoint), or ``--canonical`` for the scheduling-insensitive
  canonical JSON of the program image;
* ``diff --csl DIR --benchmark NAME`` — compile the named benchmark with
  the same grid, parse the handwritten directory, and compare the fields
  both programs export, byte for byte on the requested executors, from the
  same seeded inputs; exits 1 on divergence, and refuses (exit 1) a source
  set that exports no field.
"""

from __future__ import annotations

import argparse
import sys

from repro.csl import (
    CslDiagnosticError,
    ParsedCsl,
    canonical_json_text,
    diff_images,
    parse_csl_dir,
    parse_csl_sources,
    read_csl_source,
)
from repro.wse.interpreter import ProgramImage


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        width_text, height_text = text.lower().split("x", 1)
        return int(width_text), int(height_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid grid {text!r}: expected WIDTHxHEIGHT, e.g. 4x4"
        ) from None


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "files", nargs="*", metavar="FILE", help="CSL source files"
    )
    parser.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="parse every *.csl directly under DIR instead of naming files",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.csl",
        description="Parse, re-print and diff handwritten CSL kernels.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    parse_parser = subparsers.add_parser(
        "parse", help="parse sources and print a per-module summary"
    )
    _add_source_arguments(parse_parser)

    dump_parser = subparsers.add_parser(
        "dump", help="re-print parsed sources through the backend printer"
    )
    _add_source_arguments(dump_parser)
    dump_parser.add_argument(
        "--canonical",
        action="store_true",
        help="print the canonical JSON of the program image instead of CSL",
    )

    diff_parser = subparsers.add_parser(
        "diff",
        help="field-by-field diff of handwritten CSL against a compiled "
        "benchmark",
    )
    diff_parser.add_argument(
        "--csl", required=True, metavar="DIR", help="handwritten source dir"
    )
    diff_parser.add_argument(
        "--benchmark", required=True, metavar="NAME", help="benchmark name"
    )
    diff_parser.add_argument(
        "--grid", type=_parse_grid, default=(4, 4), metavar="WxH"
    )
    diff_parser.add_argument("--nz", type=int, default=8)
    diff_parser.add_argument("--time-steps", type=int, default=2)
    diff_parser.add_argument("--num-chunks", type=int, default=1)
    diff_parser.add_argument(
        "--boundary",
        default=None,
        metavar="MODE",
        help="'periodic', 'reflect', 'dirichlet' or 'dirichlet:VALUE'",
    )
    diff_parser.add_argument(
        "--executors",
        default="reference,vectorized",
        metavar="A,B",
        help="comma-separated executor names (default reference,vectorized)",
    )
    diff_parser.add_argument("--seed", type=int, default=13)
    diff_parser.add_argument(
        "--fields",
        default=None,
        metavar="F,G",
        help="comma-separated field names (default: every declared field)",
    )
    return parser


def _load_sources(args: argparse.Namespace) -> ParsedCsl:
    if args.dir is not None and args.files:
        raise ValueError("name files or pass --dir, not both")
    if args.dir is not None:
        return parse_csl_dir(args.dir)
    if not args.files:
        raise ValueError("name at least one CSL file or pass --dir DIR")
    return parse_csl_sources({path: read_csl_source(path) for path in args.files})


def _run_parse(args: argparse.Namespace, out) -> int:
    parsed = _load_sources(args)
    for module in parsed.modules:
        kind = getattr(module.kind, "value", module.kind)
        if kind == "program":
            image = ProgramImage(module)
            print(
                f"{module.sym_name}: program, grid "
                f"{image.width}x{image.height}, "
                f"{len(image.buffers)} buffers, "
                f"{len(image.callables)} callables, entry {image.entry}",
                file=out,
            )
        else:
            print(f"{module.sym_name}: layout", file=out)
    return 0


def _run_dump(args: argparse.Namespace, out) -> int:
    parsed = _load_sources(args)
    if args.canonical:
        print(canonical_json_text(parsed.image()), file=out)
        return 0
    from repro.backend.csl_printer import print_csl_sources

    for file_name, text in sorted(print_csl_sources(parsed.modules).items()):
        print(f"// --- {file_name} ---", file=out)
        print(text, file=out)
    return 0


def _run_diff(args: argparse.Namespace, out) -> int:
    from repro.backend.csl_printer import print_csl_sources
    from repro.benchmarks.definitions import benchmark_by_name
    from repro.frontends.common import BoundaryCondition
    from repro.transforms.pipeline import (
        PipelineOptions,
        compile_stencil_program,
    )

    width, height = args.grid
    benchmark = benchmark_by_name(args.benchmark)
    program = benchmark.program(
        nx=width, ny=height, nz=args.nz, time_steps=args.time_steps
    )
    options = PipelineOptions(
        grid_width=width,
        grid_height=height,
        num_chunks=args.num_chunks,
        boundary=(
            BoundaryCondition.parse(args.boundary)
            if args.boundary is not None
            else None
        ),
    )
    result = compile_stencil_program(program, options)
    generated = parse_csl_sources(print_csl_sources(result.csl_modules))
    handwritten = parse_csl_dir(args.csl)
    fields = (
        tuple(args.fields.split(",")) if args.fields is not None else None
    )
    report = diff_images(
        generated.runnable_image(),
        handwritten.runnable_image(),
        fields=fields,
        executors=tuple(args.executors.split(",")),
        seed=args.seed,
        label_a=f"generated:{benchmark.name}",
        label_b=f"handwritten:{args.csl}",
    )
    print(report.format(), file=out)
    return 0 if report.agreed else 1


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "parse":
            return _run_parse(args, out)
        if args.command == "dump":
            return _run_dump(args, out)
        if args.command == "diff":
            return _run_diff(args, out)
    except CslDiagnosticError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyError as error:
        # str() of a KeyError is the repr of its message
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
