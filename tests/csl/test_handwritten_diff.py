"""The handwritten seismic kernel: parses, runs on every executor with
byte-identical fields, and agrees field-by-field with the generated code."""

import os

import numpy as np
import pytest

from repro.backend.csl_printer import print_csl_sources
from repro.benchmarks import seismic_benchmark
from repro.csl import diff_images, parse_csl_dir, parse_csl_sources
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import available_executors
from repro.wse.simulator import WseSimulator

HANDWRITTEN_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "handwritten"
)


@pytest.fixture(scope="module")
def handwritten_image():
    return parse_csl_dir(HANDWRITTEN_DIR).image()


@pytest.fixture(scope="module")
def generated_image(handwritten_image):
    program = seismic_benchmark.program(
        nx=handwritten_image.width,
        ny=handwritten_image.height,
        nz=16,
        time_steps=2,
    )
    options = PipelineOptions(
        grid_width=handwritten_image.width,
        grid_height=handwritten_image.height,
        num_chunks=1,
    )
    compiled = compile_stencil_program(program, options)
    return parse_csl_sources(print_csl_sources(compiled.csl_modules)).image()


class TestHandwrittenKernel:
    def test_parses_with_layout_metadata(self, handwritten_image):
        image = handwritten_image
        assert image.module.sym_name == "seismic25"
        assert (image.width, image.height) == (9, 9)
        assert image.entry == "f_main"
        assert image.buffers["u"] == 24
        assert image.buffers["receive_buffer"] == 256

    def test_declares_its_fields_and_their_z_halo(self, handwritten_image):
        assert list(handwritten_image.fields.items()) == [("v", 24), ("u", 24)]
        assert handwritten_image.z_halo == 4

    def test_all_executors_byte_identical(self, handwritten_image):
        image = handwritten_image
        rng = np.random.default_rng(7)
        inputs = {
            name: rng.uniform(
                -1.0, 1.0, (image.width, image.height, size)
            ).astype(np.float32)
            for name, size in sorted(image.buffers.items())
        }
        baseline = None
        for executor in available_executors():
            simulator = WseSimulator(image, executor=executor)
            for name, columns in inputs.items():
                simulator.load_field(name, columns.copy())
            simulator.execute()
            fields = {
                name: simulator.read_field(name).tobytes()
                for name in sorted(image.buffers)
            }
            if baseline is None:
                baseline = fields
            else:
                assert fields == baseline, f"{executor} diverges"

    def test_agrees_with_generated(self, handwritten_image, generated_image):
        report = diff_images(
            generated_image,
            handwritten_image,
            fields=("u", "v"),
            executors=("reference", "vectorized", "compiled"),
            label_a="generated",
            label_b="handwritten",
        )
        assert report.agreed, report.format()
        assert "FIELD-BY-FIELD AGREEMENT" in report.format()

    def test_diff_detects_divergence(self, handwritten_image):
        """The harness is not vacuous: a perturbed kernel must diverge."""
        sources = {}
        for entry in sorted(os.listdir(HANDWRITTEN_DIR)):
            if entry.endswith(".csl"):
                with open(os.path.join(HANDWRITTEN_DIR, entry)) as handle:
                    sources[entry] = handle.read()
        perturbed_text = sources["seismic25.csl"].replace(
            "const dt2 = 0.001;", "const dt2 = 0.002;"
        )
        assert perturbed_text != sources["seismic25.csl"]
        sources["seismic25.csl"] = perturbed_text
        perturbed = parse_csl_sources(sources).image()
        # seed u as well: v's update is u + dt^2 * laplacian(u), so a
        # perturbed dt2 only shows up when u carries data
        report = diff_images(
            handwritten_image,
            perturbed,
            fields=("u", "v"),
            executors=("reference",),
        )
        assert not report.agreed
        assert "DIVERGENCE DETECTED" in report.format()

    def test_diff_refuses_an_undeclared_field(self, handwritten_image):
        with pytest.raises(ValueError, match="'receive_buffer' is not a declared"):
            diff_images(
                handwritten_image, handwritten_image, fields=("receive_buffer",)
            )

    def test_diff_refuses_images_declaring_different_fields(
        self, handwritten_image
    ):
        sources = {}
        for entry in sorted(os.listdir(HANDWRITTEN_DIR)):
            with open(os.path.join(HANDWRITTEN_DIR, entry)) as handle:
                sources[entry] = handle.read()
        sources["seismic25.csl"] = sources["seismic25.csl"].replace(
            'comptime { @export_symbol(v, "v"); }\n', ""
        )
        only_u = parse_csl_sources(sources).image()
        assert only_u.fields == {"u": 24}
        with pytest.raises(ValueError, match="declare different fields"):
            diff_images(handwritten_image, only_u)
