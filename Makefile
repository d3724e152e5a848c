PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench tiled-check kernel-check service service-smoke run-service-check queue-check boundary-check csl-check ir-check fuzz lint reach

# Tier-1 verification: the whole suite, fail fast.
test:
	$(PYTHON) -m pytest -x -q

# The benchmark: six workloads, end-to-end and per-layer metrics, JSON on
# the last line (bench/README.md).  Speed is measured here and compared with
# `python -m bench compare`, never asserted in the tests.
bench:
	$(PYTHON) -m bench

# Gate the tiled backend: the golden byte-identical digest matrices (7
# benchmarks x 3 boundary modes x all executors, including tiled), the same
# benchmarks at six explicit shard grids (1x1, row bands, column bands, 2x2)
# on two non-square fabrics whatever the host's CPU count, and on the thin
# fabrics 1x1, 1x9 and 9x2 (compiled, and tiled at every grid that fits),
# plus the backend's own suite — shard geometry, the thread driver of two or
# more shards (one barrier per round plus the settling one, every shard
# thread joined, forced-interleaving stress runs; a sole shard enters no
# barrier), every benchmark and the handwritten kernel emitted without a
# decline on the whole fabric and on 1x2 and 2x2 boxes, failure paths and
# the declined-codegen error — and the seam protocol stepped on one thread
# in forward and reverse shard order (1x2, 2x1, 2x2; five benchmarks x 3
# boundary modes; every buffer against compiled) with the static check that
# boxes write disjoint ghost cells of the shared padded sources.
tiled-check:
	$(PYTHON) -m pytest tests/wse/test_tiled_executor.py \
	  tests/wse/test_tiled_geometries.py \
	  tests/wse/test_executor_equivalence.py \
	  tests/wse/test_boundary_conditions.py \
	  tests/wse/test_comms_edge_cases.py \
	  tests/wse/test_shard_order.py -q

# Gate the generated kernels (one kind: the kernel of one shard box; the
# whole fabric is the box of the 1x1 geometry): the emitted-source pins
# (21 whole-fabric and 36 2x2 shard-box kernels, plus five row-banded 64x64
# ones, two of them shard boxes), the kernel executor's own suite
# (deterministic emission, a CSL program whose receive callback writes its
# own source declined by compiled and tiled and run byte-identically by
# reference and vectorized, the kernel cache, both round drivers' budget
# and deadlock edges, the declined-codegen error, and `auto` as compiled
# under its own name), the view-delivery goldens — every buffer,
# receive slabs included, of compiled, auto and one-shard tiled
# byte-identical to vectorized after a run (7 benchmarks x 3 boundary modes
# on 6x6 and the thin fabrics 1x1, 1x9, 9x2), and which exchanges the
# delivery schedule gives the view form (Advection, UVKBE's callback-less
# exchange and exchanges sharing a receive slab stay direct; a shard box
# takes the view form exactly when the whole fabric does) — the schedule's
# predicates on hand-built CSL programs (each condition that turns a view
# exchange direct, or declines the kernel, flipped on its own), the banded
# goldens — every benchmark and
# boundary mode at forced 1- and 2-row bands, whole-fabric and on two
# row-band shards, byte-identical to vectorized, plus the kernel-size
# guard — and the executors' cost ledger (Python calls per warm bind and
# per run of compiled and auto, against recorded ceilings, and the
# receive-slab copies, fills and copied bytes per delivery and per run, read
# off the delivery schedule: none per delivery in the view form, also on the
# sim_tiled_128 programs' two row-band boxes) — and the
# code identity: one comment line added to a copy of the package moves the
# compile, run, CSL-run and kernel fingerprints, and a kernel store the copy
# filled serves nothing to the real tree.  The pinned sources name no
# fingerprint or version, so an edit elsewhere leaves the pins alone.
kernel-check:
	$(PYTHON) -m pytest tests/wse/test_kernel_digests.py \
	  tests/service/test_code_identity.py \
	  tests/wse/test_compiled_executor.py \
	  tests/wse/test_view_delivery.py \
	  tests/wse/test_delivery_schedule.py \
	  tests/wse/test_banded_kernels.py \
	  tests/wse/test_executor_cost.py -q

# Compilation service: the service test suite (the code-identity test of
# every fingerprint, tests/service/test_code_identity.py, included), then the
# CLI smoke path.
service:
	$(PYTHON) -m pytest tests/service -q
	$(MAKE) service-smoke

# CLI smoke path only: compile a batch twice and run a compiled-backend
# job twice to show warm-cache reuse, then check that `stats` shows entries
# in the compile, run and kernel namespaces of the store, and none in any
# store after `purge`.  CI runs this after `make test`, which already
# executes the service test suite.  Like every CLI path below, it runs on
# a scratch store that is removed on exit, pass or fail.
service-smoke:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	export REPRO_CACHE_DIR="$$dir" && \
	$(PYTHON) -m repro.service compile Jacobian UVKBE --grid 4x4 --repeat 2 && \
	$(PYTHON) -m repro.service run Jacobian --grid 4x4 --nz 8 --time-steps 1 \
	  --executor compiled --repeat 2 && \
	$(PYTHON) -m repro.service stats | tee /dev/stderr | awk \
	  'NF == 6 && /^(compile|run|kernel) / { rows++; if ($$2 == 0) empty = 1 } \
	   END { exit empty || rows != 3 }' && \
	$(PYTHON) -m repro.service purge && \
	$(PYTHON) -m repro.service stats | tee /dev/stderr | awk \
	  'NF == 6 && /^(compile|run|kernel|queue) / { rows++; if ($$2 != 0) left = 1 } \
	   END { exit left || rows != 4 }'

# End-to-end run service check: the run-job unit suite (a warm run is served
# from the run cache, counted, not timed), then a CLI smoke path whose
# --repeat 2 exercises a cold run followed by a warm run-cache hit, through
# both doors: named benchmarks, and the handwritten CSL sources as text.
run-service-check:
	$(PYTHON) -m pytest tests/service/test_run_service.py -q
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	REPRO_CACHE_DIR="$$dir" sh -c '\
	  $(PYTHON) -m repro.service run Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 --repeat 2 && \
	  $(PYTHON) -m repro.service run Jacobian --grid 4x4 --nz 8 --time-steps 1 --executor tiled && \
	  $(PYTHON) -m repro.service run --csl examples/handwritten --executor compiled --repeat 2 && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# Async run queue: the queue test suite (lifecycle, store, daemon,
# experiments, crash recovery, the 16-job acceptance batch, and
# test_workers.py: long-lived worker processes, compile-once per worker,
# respawn after SIGKILL, a cancel that leaves a claimed job running, exit
# without close(), the reused store connection, the store transactions each
# worker reports back per job — all read off counters and pids; a
# resubmitted batch is served from the run cache), then a CLI smoke path:
# submit a batch through process workers, resubmit it inline (served from
# the run cache), submit two jobs detached, cancel the first while it is
# queued and wait out the second, inspect one job, list the store, print the
# combined stats (with the queue store's counters), purge.  Queue *speed* is
# `python -m bench --workload service_queue_sweep`, not a test.
queue-check:
	$(PYTHON) -m pytest tests/service/queue -q
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	REPRO_CACHE_DIR="$$dir" sh -c '\
	  $(PYTHON) -m repro.service queue submit Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 && \
	  $(PYTHON) -m repro.service queue submit Jacobian UVKBE --grid 4x4 --nz 8 --time-steps 1 --inline && \
	  $(PYTHON) -m repro.service queue submit Advection Diffusion --grid 4x4 --nz 8 --time-steps 1 --detach && \
	  $(PYTHON) -m repro.service queue cancel 5 && \
	  $(PYTHON) -m repro.service queue wait && \
	  $(PYTHON) -m repro.service queue status 1 5 6 && \
	  $(PYTHON) -m repro.service queue list && \
	  $(PYTHON) -m repro.service stats && \
	  $(PYTHON) -m repro.service purge'

# Boundary-condition equivalence: the golden per-mode tests (byte-identical
# reference/vectorized fields, NumPy-oracle agreement, analytic periodic
# advection).  The test file parametrises every execution backend
# explicitly, so a single run covers them all.
boundary-check:
	$(PYTHON) -m pytest tests/wse/test_boundary_conditions.py -q

# CSL front-door gate: the parser/lowering/diagnostic/round-trip suite
# (with the lexer pins, the bounded fuzzers and the calls-per-token ledger),
# then the handwritten 25-point seismic kernel diffed field-by-field (every
# field both programs export) against the pipeline-generated code on two
# executors via the CLI.
csl-check:
	$(PYTHON) -m pytest tests/csl -q
	$(PYTHON) -m repro.csl parse --dir examples/handwritten
	$(PYTHON) -m repro.csl diff --csl examples/handwritten --benchmark Seismic \
	  --grid 9x9 --nz 16 --time-steps 2 --num-chunks 1 \
	  --executors reference,vectorized

# IR-core gate: operations, def-use chains and change tracking (ordering,
# the stateful property test against a model, determinism across hash seeds
# and addresses), the rewrite driver and its dead-op erasure, the pass
# manager, the pipeline pins (printed CSL and per-pass IR,
# tests/transforms/data/pipeline_digests.json) and the pass census read off
# them (exactly stencil-inlining, varith-fuse-repeated-operands and
# canonicalize change no corpus program's module), the compile path's cost
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

# The reach census: trace the shipped traffic (tests/reach/reach_driver.py)
# in a fresh process, print executable and unexecuted lines per module, and
# regenerate tests/reach/data/reach_report.json — tags carry over by module,
# qualname and source text, new ranges are written untagged and listed (exit
# 1 until each is tagged by hand or its code deleted).  Tier-1 runs the
# ratchet (tests/reach/test_reach.py) against the committed report.
reach:
	$(PYTHON) tests/reach/reach_census.py --update

# No third-party linter is vendored; byte-compiling everything still catches
# syntax errors and obvious breakage in one second.
lint:
	$(PYTHON) -m compileall -q src tests examples
