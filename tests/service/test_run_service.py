"""End-to-end run jobs: fingerprints, caching, cross-backend digests, CLI.

The run service fronts both stages — compilation (through the compile-stage
fingerprint cache) and simulation (through the run-artifact cache) — so the
tests pin the fingerprint's sensitivity to every run-level input, the
cold/warm behaviour of both tiers, and the strongest end-to-end property
the executors offer: every backend produces the *same* field digests for
the same run fingerprint inputs.
"""

import hashlib
import io
import re
from dataclasses import replace

import pytest

from repro import code_digest
from repro.benchmarks import benchmark_by_name
from repro.service.cli import main as cli_main
from repro.service.fingerprint import canonical_json, compute_fingerprint
from repro.service.kernels import KernelSourceStore
from repro.service.service import CompileService
from repro.service.run import (
    DEFAULT_MAX_ROUNDS,
    RunArtifact,
    RunService,
    compute_run_fingerprint,
    run_fingerprint,
    run_fingerprint_payload,
)
from repro.transforms.pipeline import PipelineOptions
from repro.wse.codegen import (
    KernelCodegenError,
    kernel_cache_statistics,
    reset_kernel_cache,
)
from repro.wse.simulator import WseSimulator


def _config(grid=3, nz=8, steps=1):
    benchmark = benchmark_by_name("Jacobian")
    program = benchmark.program(nx=grid, ny=grid, nz=nz, time_steps=steps)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
    return program, options


class TestRunFingerprints:
    def test_payload_keys_the_compile_artifact_and_the_run_inputs(self):
        program, options = _config()
        payload = run_fingerprint_payload(
            compute_fingerprint(program, options),
            "vectorized",
            13,
            DEFAULT_MAX_ROUNDS,
        )
        assert payload == {
            "code": code_digest(),
            "compile": compute_fingerprint(program, options),
            "run": {
                "executor": "vectorized",
                "seed": 13,
                "max_rounds": DEFAULT_MAX_ROUNDS,
            },
        }
        assert compute_run_fingerprint(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        ) == hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
        assert compute_run_fingerprint(
            program, options, "vectorized", 13, DEFAULT_MAX_ROUNDS
        ) == run_fingerprint(
            compute_fingerprint(program, options),
            "vectorized",
            13,
            DEFAULT_MAX_ROUNDS,
        )

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
            compute_fingerprint(program, options),
            "vectorized",
            13,
            DEFAULT_MAX_ROUNDS,
        )
        shuffled = reordered(payload)
        assert list(shuffled) == list(reversed(list(payload)))  # really moved
        assert canonical_json(shuffled) == canonical_json(payload)


class TestRunService:
    @pytest.mark.parametrize(
        ("service", "option"),
        [
            (RunService, "compile_service"),
            (RunService, "memory_capacity"),
            (CompileService, "memory_capacity"),
        ],
    )
    def test_a_service_takes_only_its_cache_dir(self, service, option):
        with pytest.raises(TypeError, match=option):
            service(**{option: None})

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
        """Runs differing only in run-level inputs compile and parse
        exactly once."""
        program, options = _config()
        with RunService() as service:
            service.run(program, options, executor="vectorized", seed=1)
            service.run(program, options, executor="vectorized", seed=2)
            assert service.statistics.simulations == 2
            compiler = service.compiler.statistics
            assert (compiler.compiles, compiler.cache_hits) == (1, 1)
            assert (compiler.ir_compiles, compiler.ir_hits) == (1, 1)

    def test_a_run_executes_the_csl_the_store_holds(self):
        """The stored compile artifact's text is the program a run
        simulates: with one coefficient edited under the real fingerprint,
        the run's digests are the edited text's run through the text door,
        not the pristine text's."""
        program, options = _config()
        stored = CompileService().compile(program, options)
        edited = dict(stored.csl_sources)
        assert edited["jacobian.csl"].count(" = 0.14285714;") == 1
        edited["jacobian.csl"] = edited["jacobian.csl"].replace(
            " = 0.14285714;", " = 0.5;"
        )
        CompileService().cache.put(replace(stored, csl_sources=edited))
        with RunService() as service:
            artifact = service.run(program, options, executor="vectorized")
            assert service.compiler.statistics.compiles == 0
            as_text = {
                name: service.run_csl(sources, executor="vectorized").field_digests
                for name, sources in (
                    ("edited", edited),
                    ("stored", stored.csl_sources),
                )
            }
        assert artifact.field_digests == as_text["edited"]
        assert artifact.field_digests != as_text["stored"]

    def test_a_fresh_service_skips_the_pipeline_on_a_warm_store(self):
        program, options = _config()
        with RunService() as first:
            first.run(program, options, executor="vectorized", seed=1)
            assert first.compiler.statistics.compiles == 1
        with RunService() as fresh:
            fresh.run(program, options, executor="vectorized", seed=2)
            assert fresh.statistics.simulations == 1
            assert fresh.compiler.statistics.compiles == 0
            assert fresh.compiler.statistics.ir_compiles == 1

    def test_unknown_executor_raises_before_any_work(self):
        program, options = _config()
        with RunService() as service:
            with pytest.raises(KeyError, match="unknown executor 'warp'"):
                service.run(program, options, executor="warp")
            assert service.statistics.submitted == 0

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

    def test_from_json_rejects_a_leftover_schema_version(self):
        """A document that still carries the deleted ``schema_version``
        field is rejected as an unknown field, not compared as a version."""
        program, options = _config()
        with RunService() as service:
            artifact = service.run(program, options)
        import json as json_module

        data = json_module.loads(artifact.to_json())
        data["schema_version"] = 3
        with pytest.raises(
            ValueError, match=r"unknown fields \['schema_version'\]"
        ):
            RunArtifact.from_json(json_module.dumps(data))

    def test_from_json_rejects_non_object_documents(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            RunArtifact.from_json("[1, 2, 3]")

    def test_an_edited_field_digest_on_disk_is_re_simulated(self):
        """A stored run artifact whose digest was edited is never served
        as the job's result: the next run simulates and returns the true
        digest."""
        program, options = _config()
        with RunService() as service:
            artifact = service.run(program, options)
            path = service.store.disk._path(artifact.fingerprint)
        digest = sorted(artifact.field_digests.values())[0]
        text = path.read_text(encoding="utf-8")
        assert digest in text
        path.write_text(text.replace(digest, "0" * 64), encoding="utf-8")
        with RunService() as fresh:
            again = fresh.run(program, options)
            assert fresh.statistics.simulations == 1
        assert again.field_digests == artifact.field_digests


class TestKernelStore:
    """The fleet-wide kernel source store as the run service uses it."""

    @pytest.fixture(autouse=True)
    def _fresh_kernel_cache(self):
        reset_kernel_cache()
        yield
        reset_kernel_cache()

    def test_auto_is_served_by_the_warmed_store(self, monkeypatch):
        """Regression: the service warmed one kernel while ``auto`` bound
        a separately keyed one through a store-less lookup, so every
        process regenerated a kernel no store served."""
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
        assert artifact.kernel_cache["store"] == 1
        executor = built[0].executor
        assert list(executor.kernel_fingerprints) == (
            artifact.kernel_cache["fingerprints"]
        )

    def test_tiled_shard_kernels_land_in_the_services_own_store(
        self, isolated_cache, tmp_path, monkeypatch
    ):
        """Regression: only ``compiled``/``auto`` were warmed through the
        service's store, so a ``tiled`` run put its shard kernels in the
        default store and recorded no kernel provenance."""
        monkeypatch.setattr(
            "repro.wse.executors.tiled.shard_grid",
            lambda width, height, cpus=None: (1, 2),
        )
        program, options = _config(grid=16, steps=2)
        cache = tmp_path / "own-store"
        with RunService(cache_dir=cache) as first:
            cold = first.run(program, options, executor="tiled")
        assert len(cold.kernel_cache["fingerprints"]) == 2
        assert cold.kernel_cache["codegen"] == 2
        assert len(KernelSourceStore(cache)) == 2
        assert len(KernelSourceStore(isolated_cache)) == 0
        reset_kernel_cache()  # a new process: memo gone, store warm
        with RunService(cache_dir=cache) as second:
            warm = second.run(program, options, executor="tiled", seed=7)
        assert kernel_cache_statistics().codegens == 0
        assert warm.kernel_cache["store"] == 2
        assert warm.kernel_cache["fingerprints"] == (
            cold.kernel_cache["fingerprints"]
        )
        assert len(KernelSourceStore(isolated_cache)) == 0

    @pytest.mark.parametrize("executor", ["compiled", "auto"])
    def test_the_warmed_kernel_is_the_one_the_executor_binds(
        self, executor, monkeypatch
    ):
        """The service warms the kernel through the executor's own
        resolution (the 1x1 box of the whole fabric), so the bind that
        follows is a memo hit on exactly that kernel."""
        program, options = _config(grid=4, steps=3)
        built = []

        def capturing(*args, **kwargs):
            before = kernel_cache_statistics().codegens
            simulator = WseSimulator(*args, **kwargs)
            built.append((simulator, kernel_cache_statistics().codegens - before))
            return simulator

        monkeypatch.setattr("repro.service.run.WseSimulator", capturing)
        with RunService() as service:
            artifact = service.run(program, options, executor=executor, seed=77)
        ((simulator, bind_codegens),) = built
        assert list(simulator.executor.kernel_fingerprints) == (
            artifact.kernel_cache["fingerprints"]
        )
        assert bind_codegens == 0

    def test_auto_artifact_is_the_compiled_run_stamped(self):
        program, options = _config(grid=4, steps=2)
        with RunService() as service:
            compiled = service.run(program, options, executor="compiled")
            auto = service.run(program, options, executor="auto")
        assert auto.fingerprint != compiled.fingerprint
        assert auto.field_digests == compiled.field_digests
        assert (
            auto.kernel_cache["fingerprints"]
            == compiled.kernel_cache["fingerprints"]
        )
        assert auto.kernel_cache["memory"] == 1
        assert auto.statistics["backend_decision"] == "compiled"
        assert compiled.statistics["backend_decision"] == ""

    @pytest.mark.parametrize("executor", ["compiled", "auto"])
    def test_a_declined_codegen_fails_the_run_and_stores_nothing(
        self, executor, monkeypatch
    ):
        """No interpreting fallback in the service either: the run raises
        and leaves no artifact, so the next run simulates afresh."""
        def declined(image, plan, store=None, box=None, geometry=None):
            raise KernelCodegenError("test: declined")

        program, options = _config(grid=4, steps=3)
        seed = 4242  # a run no other test has stored
        with monkeypatch.context() as patch:
            # Every kernel lookup declines, as a codegen would.
            patch.setattr("repro.wse.executors.tiled.get_kernel", declined)
            with RunService() as service:
                with pytest.raises(KernelCodegenError, match="test: declined"):
                    service.run(program, options, executor=executor, seed=seed)
        with RunService() as fresh:
            fresh.run(program, options, executor=executor, seed=seed)
            assert fresh.statistics.simulations == 1
            assert fresh.statistics.cache_hits == 0

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
            (fingerprint,) = good.kernel_cache["fingerprints"]
            path = first.kernels._path(fingerprint)
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
        assert again.kernel_cache["codegen"] == 1
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

    def test_run_and_queue_submit_share_the_run_inputs(self):
        """``run`` and ``queue submit`` parse the same ``--seed`` and
        ``--max-rounds`` into the same run fingerprint: the queue serves
        the synchronous run from the run cache, and another seed is a
        fresh simulation."""
        job = [
            "Jacobian", "--grid", "3x3", "--nz", "8", "--time-steps", "1",
            "--executor", "vectorized", "--max-rounds", "5000",
        ]
        out = io.StringIO()
        assert cli_main(["run", *job, "--seed", "5"], out=out) == 0
        (fingerprint,) = re.findall(
            r"^  ([0-9a-f]{12})  jacobian", out.getvalue(), re.M
        )

        out = io.StringIO()
        argv = ["queue", "submit", *job, "--seed", "5", "--inline"]
        assert cli_main(argv, out=out) == 0
        text = out.getvalue()
        assert f"{fingerprint}  served from run-cache" in text
        assert "resumed-from-cache 1" in text

        out = io.StringIO()
        argv = ["queue", "submit", *job, "--seed", "6", "--inline"]
        assert cli_main(argv, out=out) == 0
        text = out.getvalue()
        assert fingerprint not in text
        assert "served from simulation" in text

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

    def test_run_csl_names_a_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        assert cli_main(["run", "--csl", str(missing)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{missing}'" in err

    def test_run_csl_names_the_file_and_offset_of_bad_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.csl"
        path.write_bytes(b"// kernel\n\xff\n")
        assert cli_main(["run", "--csl", str(tmp_path)], out=io.StringIO()) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not valid UTF-8 at byte 10: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "NotABench"],
            ["run", "NotABench"],
            ["queue", "submit", "NotABench", "--detach"],
        ],
        ids=["compile", "run", "queue-submit"],
    )
    def test_unknown_benchmark_prints_the_bare_message(self, argv, capsys):
        assert cli_main(argv, out=io.StringIO()) == 2
        assert capsys.readouterr().err == "error: unknown benchmark 'NotABench'\n"

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
