"""Validation tests for :class:`PipelineOptions`."""

from dataclasses import fields

import pytest

from repro.transforms.pipeline import PipelineOptions


class TestPipelineOptionsValidation:
    def test_defaults_are_valid(self):
        options = PipelineOptions()
        assert options.target == "wse2"

    @pytest.mark.parametrize("target", ["wse2", "wse3"])
    def test_valid_targets(self, target):
        assert PipelineOptions(target=target).target == target

    @pytest.mark.parametrize("target", ["wse1", "WSE2", "cpu", ""])
    def test_invalid_target_rejected(self, target):
        with pytest.raises(ValueError, match="invalid target"):
            PipelineOptions(target=target)

    @pytest.mark.parametrize("width,height", [(0, 1), (1, 0), (-3, 4), (2, -2)])
    def test_non_positive_grid_rejected(self, width, height):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            PipelineOptions(grid_width=width, grid_height=height)

    @pytest.mark.parametrize("num_chunks", [0, -1])
    def test_invalid_num_chunks_rejected(self, num_chunks):
        with pytest.raises(ValueError, match="num_chunks"):
            PipelineOptions(num_chunks=num_chunks)


class TestOneConfigSurface:
    """The pipeline is the one pass sequence of Figure 3: the options carry
    the grid, chunking, target and boundary, and nothing that switches a
    pass off."""

    def test_options_are_exactly_the_canonical_keys(self):
        names = {field.name for field in fields(PipelineOptions)}
        assert names == set(PipelineOptions().canonical())
        assert names == {
            "grid_width",
            "grid_height",
            "num_chunks",
            "target",
            "boundary",
        }

    @pytest.mark.parametrize(
        "switch",
        [
            "enable_stencil_inlining",
            "enable_varith_fusion",
            "enable_fmac_fusion",
            "enable_memory_optimization",
            "verify_each",
        ],
    )
    def test_pass_switches_are_not_options(self, switch):
        # A caller still passing an old switch fails loudly rather than
        # compiling with the switch silently ignored.
        with pytest.raises(TypeError, match=switch):
            PipelineOptions(**{switch: False})
