"""Spawning hermetic child processes.

Every child gets a fresh scratch directory under the output directory (its
``REPRO_CACHE_DIR`` and ``TMPDIR``), an auto-dispatch trajectory pinned to a
file that does not exist, and an environment with every behaviour-changing
``REPRO_*`` variable removed.  Nothing is written outside the output
directory, and the scratch directory is deleted when the child ends.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench import ROOT
from bench.spec import SCRUBBED_ENV

#: the driver allows a run 180 s; a child that is still going by then is hung.
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """The child exited non-zero, timed out, or printed no result."""


def child_environment(scratch: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cache = scratch / "cache"
    env.update(
        REPRO_CACHE_DIR=str(cache),
        REPRO_AUTO_TRAJECTORY=str(cache / "no-such-trajectory.json"),
        TMPDIR=str(scratch),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
    )
    return env


def spawn(action: str, request: dict, out_dir: Path) -> dict:
    """Run ``python -m bench _child <action> <request>`` and return the JSON
    object it prints last."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="child-", dir=out_dir))
    request = dict(
        request,
        cache_dir=str(scratch / "cache"),
        out_dir=str(out_dir),
        spawned_at=time.time(),
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "bench", "_child", action, json.dumps(request)],
        cwd=ROOT,
        env=child_environment(scratch),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{action} child still running after {CHILD_TIMEOUT_S} s")
    finally:
        # The child leads its own session: whatever it left behind (shard or
        # queue workers of a crashed run) goes with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if process.returncode != 0:
        raise ChildFailed(f"{action} child exited with code {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{action} child printed no result")
    return json.loads(lines[-1])


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
