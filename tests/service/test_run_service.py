"""End-to-end run jobs: fingerprints, caching, cross-backend digests, CLI.

The run service fronts both stages — compilation (through the compile-stage
fingerprint cache) and simulation (through the run-artifact cache) — so the
tests pin the fingerprint's sensitivity to every run-level input, the
cold/warm behaviour of both tiers, and the strongest end-to-end property
the executors offer: every backend produces the *same* field digests for
the same run fingerprint inputs.
"""

import io

import pytest

from repro.benchmarks import benchmark_by_name
from repro.service.cli import main as cli_main
from repro.service.fingerprint import canonical_json, compute_fingerprint
from repro.service.run import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_RUN_SEED,
    RunArtifact,
    RunService,
    compute_run_fingerprint,
    run_fingerprint_payload,
)
from repro.transforms.pipeline import PipelineOptions
from repro.wse.codegen import (
    CODEGEN_VERSION,
    kernel_cache_statistics,
    reset_kernel_cache,
)
from repro.wse.executors.auto import FORCE_ENV_VAR
from repro.wse.plan import PLAN_VERSION
from repro.wse.simulator import WseSimulator


def _config(grid=3, nz=8, steps=1):
    benchmark = benchmark_by_name("Jacobian")
    program = benchmark.program(nx=grid, ny=grid, nz=nz, time_steps=steps)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
    return program, options


class TestRunFingerprints:
    def test_payload_extends_the_compile_payload(self):
        program, options = _config()
        payload = run_fingerprint_payload(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        )
        assert payload["run"] == {
            "schema": 2,
            "executor": "vectorized",
            "seed": 13,
            "max_rounds": DEFAULT_MAX_ROUNDS,
            "plan_version": PLAN_VERSION,
            "codegen_version": CODEGEN_VERSION,
        }
        assert "program" in payload and "options" in payload

    def test_every_run_input_is_fingerprint_sensitive(self):
        program, options = _config()
        base = compute_run_fingerprint(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        )
        assert base != compute_run_fingerprint(
            program, options, "tiled", 13, DEFAULT_MAX_ROUNDS
        ), "executor must change the run fingerprint"
        assert base != compute_run_fingerprint(
            program, options, "vectorized", 14, DEFAULT_MAX_ROUNDS
        ), "seed must change the run fingerprint"
        assert base != compute_run_fingerprint(
            program, options, "vectorized", 13, 10
        ), "round budget must change the run fingerprint"

    def test_compile_inputs_stay_fingerprint_sensitive(self):
        program, options = _config()
        other_program, _ = _config(steps=2)
        base = compute_run_fingerprint(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        )
        assert base != compute_run_fingerprint(
            other_program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        )

    def test_run_fingerprint_differs_from_compile_fingerprint(self):
        program, options = _config()
        assert compute_run_fingerprint(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        ) != compute_fingerprint(program, options)

    @pytest.mark.parametrize("version", ("PLAN_VERSION", "CODEGEN_VERSION"))
    def test_semantics_version_bumps_invalidate_run_fingerprints(
        self, monkeypatch, version
    ):
        """A planning- or codegen-semantics change (signalled by its
        version constant) must re-run every cached simulation exactly
        once — the fingerprint has to move."""
        import repro.service.run as run_module

        program, options = _config()
        base = compute_run_fingerprint(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        )
        monkeypatch.setattr(
            run_module, version, getattr(run_module, version) + 1
        )
        assert base != compute_run_fingerprint(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        ), f"{version} bump must change the run fingerprint"

    def test_fingerprint_is_insensitive_to_payload_dict_ordering(self):
        """The hash covers canonical JSON, not dict construction order:
        reversing every mapping in the payload must not move it."""

        def reordered(value):
            if isinstance(value, dict):
                return {
                    key: reordered(value[key]) for key in reversed(list(value))
                }
            if isinstance(value, list):
                return [reordered(item) for item in value]
            return value

        program, options = _config()
        payload = run_fingerprint_payload(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        )
        shuffled = reordered(payload)
        assert list(shuffled) == list(reversed(list(payload)))  # really moved
        assert canonical_json(shuffled) == canonical_json(payload)


class TestRunService:
    def test_cold_run_simulates_then_warm_run_hits_the_cache(self):
        program, options = _config()
        with RunService() as service:
            cold = service.run(program, options, executor="vectorized")
            assert service.statistics.simulations == 1
            assert service.statistics.cache_hits == 0
            warm = service.run(program, options, executor="vectorized")
            assert service.statistics.simulations == 1  # never re-simulated
            assert service.statistics.cache_hits == 1
        assert warm == cold
        assert cold.rounds > 0
        assert cold.field_digests  # one digest per program field
        assert set(cold.field_digests) == {
            decl.name for decl in program.fields
        }
        assert cold.statistics["rounds"] == cold.rounds

    def test_warm_disk_store_survives_a_service_restart(self):
        program, options = _config()
        with RunService() as first:
            cold = first.run(program, options, executor="vectorized")
        with RunService() as second:
            warm = second.run(program, options, executor="vectorized")
            assert second.statistics.simulations == 0
            assert second.statistics.cache_hits == 1
        assert warm == cold

    def test_all_backends_agree_on_field_digests(self):
        """The end-to-end cross-check: four executors, one answer."""
        program, options = _config(grid=4)
        digests = {}
        with RunService() as service:
            for executor in ("reference", "vectorized", "tiled", "compiled"):
                artifact = service.run(program, options, executor=executor)
                digests[executor] = artifact.field_digests
            # Four distinct fingerprints (executor is a run input) ...
            assert service.statistics.simulations == 4
        # ... but identical simulated bytes.
        assert (
            digests["reference"]
            == digests["vectorized"]
            == digests["tiled"]
            == digests["compiled"]
        )

    def test_compile_stage_is_shared_across_run_inputs(self):
        """Runs differing only in run-level inputs compile exactly once."""
        program, options = _config()
        with RunService() as service:
            service.run(program, options, executor="vectorized", seed=1)
            service.run(program, options, executor="vectorized", seed=2)
            assert service.statistics.simulations == 2
            compiler = service.compiler.statistics
            assert compiler.ir_compiles == 1
            assert compiler.ir_hits == 1

    def test_unknown_executor_raises_before_any_work(self):
        program, options = _config()
        with RunService() as service:
            with pytest.raises(KeyError, match="unknown executor 'warp'"):
                service.submit(program, options, executor="warp")
            assert service.statistics.submitted == 0

    def test_batch_returns_futures_in_order(self):
        jacobian = _config()
        uvkbe_program = benchmark_by_name("UVKBE").program(
            nx=3, ny=3, nz=8, time_steps=1
        )
        uvkbe = (uvkbe_program, PipelineOptions(grid_width=3, grid_height=3))
        with RunService() as service:
            futures = service.submit_batch([jacobian, uvkbe])
            artifacts = [future.result() for future in futures]
        assert [a.program_name for a in artifacts] == ["jacobian", "uvkbe"]

    def test_batch_deduplicates_identical_fingerprints(self):
        """A sweep with repeated configs executes each distinct run once;
        the repeats share the winner's future."""
        jacobian = _config()
        with RunService() as service:
            futures = service.submit_batch([jacobian, jacobian, jacobian])
            artifacts = [future.result() for future in futures]
            assert service.statistics.simulations == 1
            assert service.statistics.deduplicated == 2
            assert futures[1] is futures[0] and futures[2] is futures[0]
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_batch_dedup_distinguishes_run_level_inputs(self):
        jacobian = _config()
        with RunService() as service:
            futures = service.submit_batch(
                [jacobian, jacobian], seed=DEFAULT_RUN_SEED
            )
            assert service.statistics.deduplicated == 1
            more = service.submit_batch([jacobian], seed=99)
            assert more[0] is not futures[0]  # different fingerprint
            assert service.statistics.simulations == 2

    def test_stage_callback_fires_in_order_on_a_miss_only(self):
        program, options = _config()
        stages = []
        with RunService() as service:
            service.run(program, options, on_stage=stages.append)
            assert stages == ["compiling", "running", "digesting"]
            stages.clear()
            service.run(program, options, on_stage=stages.append)
            assert stages == []  # cache hits never enter the stages

    def test_artifact_json_round_trip(self):
        program, options = _config()
        with RunService() as service:
            artifact = service.run(program, options)
        assert RunArtifact.from_json(artifact.to_json()) == artifact

    def test_from_json_rejects_a_missing_schema_version(self):
        with pytest.raises(ValueError, match="no schema_version"):
            RunArtifact.from_json('{"fingerprint": "abc"}')

    def test_from_json_rejects_a_mismatched_schema_version(self):
        with pytest.raises(ValueError, match="does not match current"):
            RunArtifact.from_json('{"schema_version": 1}')

    def test_from_json_rejects_unknown_fields(self):
        program, options = _config()
        with RunService() as service:
            artifact = service.run(program, options)
        import json as json_module

        data = json_module.loads(artifact.to_json())
        data["surprise"] = 1
        with pytest.raises(ValueError, match=r"unknown fields \['surprise'\]"):
            RunArtifact.from_json(json_module.dumps(data))

    def test_from_json_rejects_missing_fields(self):
        program, options = _config()
        with RunService() as service:
            artifact = service.run(program, options)
        import json as json_module

        data = json_module.loads(artifact.to_json())
        del data["field_digests"]
        with pytest.raises(
            ValueError, match=r"missing fields \['field_digests'\]"
        ):
            RunArtifact.from_json(json_module.dumps(data))

    def test_from_json_rejects_non_object_documents(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            RunArtifact.from_json("[1, 2, 3]")

    def test_stale_schema_on_disk_is_a_miss(self):
        program, options = _config()
        with RunService() as service:
            artifact = service.run(program, options)
            path = service.store._path(artifact.fingerprint)
            path.write_text(
                artifact.to_json().replace(
                    f'"schema_version": {artifact.schema_version}',
                    '"schema_version": 0',
                ),
                encoding="utf-8",
            )
        with RunService() as fresh:
            fresh.run(program, options)
            assert fresh.statistics.simulations == 1  # recomputed, not served


class TestKernelStore:
    """The fleet-wide kernel source store as the run service uses it."""

    @pytest.fixture(autouse=True)
    def _fresh_kernel_cache(self):
        reset_kernel_cache()
        yield
        reset_kernel_cache()

    def test_auto_delegating_to_compiled_is_served_by_the_warmed_store(
        self, monkeypatch
    ):
        """Regression: the service warmed one kernel while ``auto ->
        compiled`` bound a separately keyed one through a store-less
        lookup, so every process regenerated a kernel no store served."""
        monkeypatch.setenv(FORCE_ENV_VAR, "compiled")
        program, options = _config(grid=4, steps=5)
        with RunService() as first:
            first.run(program, options, executor="compiled")  # warms the store
        reset_kernel_cache()  # a new process: memo gone, store warm
        built = []

        def capturing(*args, **kwargs):
            built.append(WseSimulator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("repro.service.run.WseSimulator", capturing)
        with RunService() as second:
            artifact = second.run(program, options, executor="auto")
        assert kernel_cache_statistics().codegens == 0
        assert artifact.kernel_cache["served_from"] == "store"
        delegate = built[0].executor._delegate
        assert artifact.kernel_cache["fingerprint"] == delegate.kernel_fingerprint

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],  # truncated
            lambda data: data[:-20] + bytes([data[-20] ^ 1]) + data[-19:],
            lambda data: data.partition(b"\n")[2],  # hash line removed
        ],
        ids=["truncated", "flipped-byte", "no-hash-line"],
    )
    def test_a_damaged_store_entry_is_regenerated_never_executed(
        self, damage, monkeypatch
    ):
        """The store key hashes the plan, not the text: only the entry's
        own checksum stands between a damaged file and ``exec``."""
        import repro.wse.codegen as codegen_module

        program, options = _config()
        with RunService() as first:
            good = first.run(program, options, executor="compiled")
            path = first.kernels._path(good.kernel_cache["fingerprint"])
        pristine = path.read_bytes()
        path.write_bytes(damage(pristine))
        reset_kernel_cache()
        executed = []
        materialise = codegen_module._materialise

        def recording(fingerprint, source):
            executed.append(source)
            return materialise(fingerprint, source)

        monkeypatch.setattr(codegen_module, "_materialise", recording)
        with RunService() as second:
            second.store.purge()  # re-simulate instead of serving the run
            again = second.run(program, options, executor="compiled")
        assert again.field_digests == good.field_digests
        assert again.kernel_cache["served_from"] == "codegen"
        assert kernel_cache_statistics().codegens == 1
        assert executed == [pristine.partition(b"\n")[2].decode("utf-8")]
        assert path.read_bytes() == pristine  # re-put, checksum and all


class TestRunCli:
    def test_run_subcommand_cold_then_warm(self):
        out = io.StringIO()
        code = cli_main(
            [
                "run",
                "Jacobian",
                "--grid",
                "3x3",
                "--nz",
                "8",
                "--time-steps",
                "1",
                "--repeat",
                "2",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "round 1/2" in text and "(0 served from run cache)" in text
        assert "round 2/2" in text and "(1 served from run cache)" in text
        assert "run service statistics:" in text

    def test_run_subcommand_rejects_unknown_executor(self, capsys):
        code = cli_main(
            ["run", "Jacobian", "--executor", "warp"], out=io.StringIO()
        )
        assert code == 2
        assert "unknown executor 'warp'" in capsys.readouterr().err

    def test_run_subcommand_rejects_unknown_benchmark(self, capsys):
        code = cli_main(["run", "NotABench"], out=io.StringIO())
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_stats_and_purge_cover_the_run_store(self):
        out = io.StringIO()
        cli_main(
            ["run", "Jacobian", "--grid", "3x3", "--nz", "8", "--time-steps", "1"],
            out=out,
        )
        out = io.StringIO()
        assert cli_main(["stats"], out=out) == 0
        assert "run store:" in out.getvalue()
        out = io.StringIO()
        assert cli_main(["purge"], out=out) == 0
        assert "purged 1 run artifacts" in out.getvalue()
