PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench sim-bench tiled-check kernel-check service service-smoke run-service-check queue-check boundary-check csl-check ir-check fuzz lint

# Tier-1 verification: the whole suite, fail fast.
test:
	$(PYTHON) -m pytest -x -q

# Benchmarks only (compile-time trajectory + paper figures).
bench:
	$(PYTHON) -m pytest benchmarks -q

# Simulator throughput smoke: the reference/vectorized sweep (>=3x on 8x8),
# the paper-scale rows (compiled >= 1.2x vectorized asserted; tiled and
# auto, which runs compiled, recorded, with deterministic proxies asserted
# in place of host-dependent ratios) and the 256x256 weak/strong scaling
# sweep; refreshes BENCH_simulator.json and BENCH_scaling.json at the repo
# root.  Speed regressions are gated by `python -m bench compare`.
sim-bench:
	$(PYTHON) -m pytest benchmarks/test_simulator_throughput.py -q

# Gate the tiled backend: the golden byte-identical digest matrices (7
# benchmarks x 3 boundary modes x all executors, including tiled), the same
# benchmarks at six explicit shard grids (1x1, row bands, column bands, 2x2)
# on two non-square fabrics whatever the host's CPU count, plus the
# backend's own suite — shard geometry, the thread driver (one barrier per
# round plus the settling one, every shard thread joined, forced-interleaving
# stress runs), no staging slab in any benchmark's box kernel, failure paths
# and the declined-codegen error.
tiled-check:
	$(PYTHON) -m pytest tests/wse/test_tiled_executor.py \
	  tests/wse/test_tiled_geometries.py \
	  tests/wse/test_executor_equivalence.py \
	  tests/wse/test_boundary_conditions.py \
	  tests/wse/test_comms_edge_cases.py -q

# Gate the compiled backend's kernels: the emitted-source pins (57 small
# kernels plus five row-banded 64x64 ones, two of them shard boxes), the
# backend's own suite (deterministic emission, both delivery forms in
# whole-grid and box kernels, the kernel cache, the round
# budget, the declined-codegen error, and `auto` as compiled under its own
# name) and the banded goldens — every benchmark and boundary mode at forced
# 1- and 2-row bands, whole-grid and on two row-band shards, byte-identical
# to vectorized, plus the kernel-size guard.
kernel-check:
	$(PYTHON) -m pytest tests/wse/test_kernel_digests.py \
	  tests/wse/test_compiled_executor.py \
	  tests/wse/test_banded_kernels.py -q

# Compilation service: unit + throughput tests, then the CLI smoke path.
service:
	$(PYTHON) -m pytest tests/service benchmarks/test_service_throughput.py -q
	$(MAKE) service-smoke

# CLI smoke path only: compile a batch twice to show warm-cache reuse,
# inspect the store, purge it.  CI runs this after `make test`, which
# already executes the service test suite.
service-smoke:
	REPRO_CACHE_DIR=$$(mktemp -d) sh -c '\
	  $(PYTHON) -m repro.service compile Jacobian UVKBE --grid 4x4 --repeat 2 && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# End-to-end run service check: the run-job unit suite, the warm>=10x-cold
# run-throughput assertion, then a CLI smoke path whose --repeat 2 exercises
# a cold run followed by a warm run-cache hit.
run-service-check:
	$(PYTHON) -m pytest tests/service/test_run_service.py \
	  benchmarks/test_service_throughput.py::test_warm_run_job_is_at_least_10x_faster_than_cold -q
	REPRO_CACHE_DIR=$$(mktemp -d) sh -c '\
	  $(PYTHON) -m repro.service run Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 --repeat 2 && \
	  $(PYTHON) -m repro.service run Jacobian --grid 4x4 --nz 8 --time-steps 1 --executor tiled && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# Async run queue: the queue test suite (lifecycle, store, daemon,
# experiments, crash recovery, the 16-job acceptance batch, and
# test_workers.py: long-lived worker processes, compile-once per worker,
# respawn after SIGKILL/cancel, exit without close(), the reused store
# connection — all read off counters and pids) plus the cold/warm
# run-cache counters of the legacy queue benchmark, then a CLI smoke
# path: submit a batch through process workers, resubmit it inline (served
# from the run cache), inspect one job, the queue store and the combined
# stats table, purge.  Queue *speed* is `python -m bench --workload
# service_queue_sweep`, not a test.
queue-check:
	$(PYTHON) -m pytest tests/service/queue \
	  benchmarks/test_queue_throughput.py -q
	REPRO_CACHE_DIR=$$(mktemp -d) sh -c '\
	  $(PYTHON) -m repro.service queue submit Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 && \
	  $(PYTHON) -m repro.service queue submit Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 --inline && \
	  $(PYTHON) -m repro.service queue status 1 && \
	  $(PYTHON) -m repro.service queue list && \
	  $(PYTHON) -m repro.service queue stats && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# Boundary-condition equivalence: the golden per-mode tests (byte-identical
# reference/vectorized fields, NumPy-oracle agreement, analytic periodic
# advection).  The test file parametrises both execution backends
# explicitly, so a single run covers them regardless of REPRO_EXECUTOR.
boundary-check:
	$(PYTHON) -m pytest tests/wse/test_boundary_conditions.py -q

# CSL front-door gate: the parser/lowering/diagnostic/round-trip suite
# (with the lexer pins, the bounded fuzzers and the calls-per-token ledger),
# then the handwritten 25-point seismic kernel diffed field-by-field
# against the pipeline-generated code on two executors via the CLI.
csl-check:
	$(PYTHON) -m pytest tests/csl -q
	$(PYTHON) -m repro.csl parse --dir examples/handwritten
	$(PYTHON) -m repro.csl diff --csl examples/handwritten --benchmark Seismic \
	  --grid 9x9 --nz 16 --time-steps 2 --num-chunks 1 \
	  --executors reference,vectorized --fields u,v

# IR-core gate: operations, def-use chains and change tracking (ordering,
# the stateful property test against a model, determinism across hash seeds
# and addresses), the rewrite driver and its dead-op erasure, the pass
# manager, the pipeline pins (printed CSL and per-pass IR,
# tests/transforms/data/pipeline_digests.json), the compile path's cost
# ledger — calls per surviving op, ops constructed and rewrites per
# benchmark, one module traversal per pass, use-def consistency after every
# pass — and the bind memo, whose validity is the IR's change tracking.
ir-check:
	$(PYTHON) -m pytest tests/ir tests/transforms tests/wse/test_bind_memo.py -q

# The CSL front-door fuzzers at length: the properties tier-1 runs with 100
# derandomised examples each (tests/csl/test_fuzz.py, inside `make test` and
# `make csl-check`) under the `long` hypothesis profile that
# tests/csl/conftest.py registers — 2,000 examples each, about 20 s.
fuzz:
	$(PYTHON) -m pytest tests/csl/test_fuzz.py -q --hypothesis-profile=long

# No third-party linter is vendored; byte-compiling everything still catches
# syntax errors and obvious breakage in one second.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
