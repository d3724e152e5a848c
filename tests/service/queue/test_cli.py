"""``python -m repro.service queue ...`` — the queue CLI verbs."""

import io
import re

import pytest

from repro.service.cli import main as cli_main


def _run(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


def _job_ids(text):
    return sorted({int(match) for match in re.findall(r"job (\d+)", text)})


class TestQueueCli:
    def test_submit_executes_the_batch_and_prints_digests(self):
        code, text = _run(
            [
                "queue", "submit", "Jacobian", "UVKBE",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--inline",
            ]
        )
        assert code == 0
        assert text.count("submitted job") == 2
        assert "done" in text
        assert "=" in text  # the per-field digest summary lines
        assert "job queue statistics:" in text
        assert "completed 2" in text

    def test_detach_then_wait_drains_the_queue(self):
        code, text = _run(
            [
                "queue", "submit", "Jacobian",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--detach",
            ]
        )
        assert code == 0
        assert "1 job(s) submitted, 1 pending" in text
        (job_id,) = _job_ids(text)

        code, text = _run(["queue", "status", str(job_id)])
        assert code == 0
        assert "queued" in text

        code, text = _run(["queue", "wait", "--inline"])
        assert code == 0
        assert "done" in text

        code, text = _run(["queue", "status", str(job_id), "--events"])
        assert code == 0
        assert "queued -> compiling" in text
        assert "digesting -> done" in text

    def test_resubmission_after_wait_is_served_from_cache(self):
        argv = [
            "queue", "submit", "Jacobian",
            "--grid", "3x3", "--nz", "8", "--time-steps", "1",
            "--executor", "vectorized", "--inline",
        ]
        code, _ = _run(argv)
        assert code == 0
        code, text = _run(argv)
        assert code == 0
        assert "resumed-from-cache 1" in text
        assert "served from run-cache" in text

    def test_list_rolls_up_experiments(self):
        code, text = _run(
            [
                "queue", "submit", "Jacobian", "UVKBE",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--inline",
                "--experiment", "cli-sweep",
            ]
        )
        assert code == 0
        code, text = _run(["queue", "list", "--experiment", "cli-sweep"])
        assert code == 0
        assert "[cli-sweep]" in text
        assert "cli-sweep: 2/2 finished" in text
        code, text = _run(["queue", "list", "--status", "failed"])
        assert code == 0
        assert "no jobs" in text

    def test_cancel_only_touches_queued_jobs(self, capsys):
        code, text = _run(
            [
                "queue", "submit", "Jacobian",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--detach",
            ]
        )
        (job_id,) = _job_ids(text)
        code, text = _run(["queue", "cancel", str(job_id)])
        assert code == 0
        assert f"job {job_id}: cancelled" in text
        # A second cancel refuses: the job is no longer queued.
        code, _ = _run(["queue", "cancel", str(job_id)])
        assert code == 1
        assert "not cancellable" in capsys.readouterr().err

    def test_queue_stats_reports_the_store(self):
        """The queue store's counters, now printed by the one ``stats``
        verb: jobs, cache-served versus simulated, compile tiers."""
        _run(
            [
                "queue", "submit", "Jacobian",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--inline",
            ]
        )
        code, text = _run(["stats"])
        assert code == 0
        assert "queue store:" in text
        assert "jobs:      1 (done 1)" in text
        assert "done jobs: 0 run-cache 1 simulated" in text
        assert "compiles:  1 pipeline 0 cache" in text

    def test_wait_for_an_unknown_job_id_is_a_friendly_error(self, capsys):
        code, _ = _run(["queue", "wait", "999", "--inline"])
        assert code == 2
        assert capsys.readouterr().err == "job 999: unknown\n"

    def test_wait_for_an_experiment_drains_it(self):
        code, _ = _run(
            [
                "queue", "submit", "Jacobian", "UVKBE",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--detach",
                "--experiment", "later",
            ]
        )
        assert code == 0
        code, text = _run(["queue", "wait", "--experiment", "later", "--inline"])
        assert code == 0
        assert text.count("[later]") == 2
        assert "completed 2" in text

    def test_unknown_benchmark_is_a_friendly_error(self, capsys):
        code, _ = _run(["queue", "submit", "NotABench", "--detach"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_unknown_job_id_is_a_friendly_error(self, capsys):
        code, _ = _run(["queue", "status", "424242"])
        assert code == 2
        assert "unknown" in capsys.readouterr().err


class TestCombinedStats:
    def test_stats_is_one_table_across_all_stores(self):
        _run(
            [
                "queue", "submit", "Jacobian",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--inline",
            ]
        )
        code, text = _run(["stats"])
        assert code == 0
        header, *rows = [
            line for line in text.splitlines() if line.strip()
        ]
        assert header.split() == [
            "store", "entries", "bytes", "hits", "misses", "hit", "rate"
        ]
        names = [row.split()[0] for row in rows[:4]]
        assert names == ["compile", "run", "kernel", "queue"]
        queue_row = rows[3].split()
        assert queue_row[1] == "1"  # one job in the store
        assert "queue store:" in text

    def test_queue_stats_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            _run(["queue", "stats"])
        assert "invalid choice: 'stats'" in capsys.readouterr().err

    def test_purge_also_empties_the_queue_store(self):
        _run(
            [
                "queue", "submit", "Jacobian",
                "--grid", "3x3", "--nz", "8", "--time-steps", "1",
                "--executor", "vectorized", "--inline",
            ]
        )
        code, text = _run(["purge"])
        assert code == 0
        assert "purged 1 queue jobs" in text
        code, text = _run(["stats"])
        assert "jobs:      0 (empty)" in text
