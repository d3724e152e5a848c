"""The compilation service: content-addressed caching of compiles and runs.

Layered on top of the one-shot ``compile_stencil_program``:

* :mod:`repro.service.fingerprint` — canonical, process-stable content hash
  of a (program, options, code digest) triple;
* :mod:`repro.service.cache` — the one checksummed on-disk store (compile,
  run and kernel namespaces) and the two-tier artifact cache (in-memory LRU
  over one namespace) keyed by fingerprint;
* :mod:`repro.service.service` — :class:`CompileService`, which serves
  cache hits, compiles cache misses inline and parses the stored CSL into
  the program image that runs;
* :mod:`repro.service.run` — :class:`RunService`, whose ``run`` is the one
  synchronous end-to-end run job (compile → parse → simulate → field
  digests),
  content-addressed by a run fingerprint that folds in the executor, seed
  and round budget;
* :mod:`repro.service.queue` — :class:`JobQueue`, the one asynchronous
  path: ``submit`` returns a durable :class:`JobHandle` over persistent
  SQLite-backed jobs with an explicit lifecycle state machine, worked by a
  crash-isolated worker pool through ``RunService.run``, grouped into
  named resumable experiments;
* :mod:`repro.service.cli` — ``python -m repro.service``, the one command
  line (``compile`` / ``run`` / ``queue`` / ``stats`` / ``purge``).
"""

from repro.service.cache import (
    ArtifactCache,
    CacheStatistics,
    CompiledArtifact,
    DiskStore,
    InMemoryArtifactCache,
    REPRO_CACHE_DIR_ENV,
)
from repro.service.fingerprint import canonical_json, compute_fingerprint
from repro.service.queue import (
    Experiment,
    JobHandle,
    JobQueue,
    JobStatus,
    JobStore,
    WorkerPool,
)
from repro.service.run import (
    RunArtifact,
    RunService,
    RunServiceStatistics,
    compute_run_fingerprint,
)
from repro.service.service import (
    CompileService,
    ServiceStatistics,
    build_artifact,
    default_service,
    reset_default_service,
)

__all__ = [
    "ArtifactCache",
    "CacheStatistics",
    "CompileService",
    "CompiledArtifact",
    "DiskStore",
    "Experiment",
    "InMemoryArtifactCache",
    "JobHandle",
    "JobQueue",
    "JobStatus",
    "JobStore",
    "REPRO_CACHE_DIR_ENV",
    "RunArtifact",
    "RunService",
    "RunServiceStatistics",
    "ServiceStatistics",
    "WorkerPool",
    "build_artifact",
    "canonical_json",
    "compute_fingerprint",
    "compute_run_fingerprint",
    "default_service",
    "reset_default_service",
]
